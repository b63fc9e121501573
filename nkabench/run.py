#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 nkabench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the `nka` server binary and the `nkabench` package (release
profile, offline) into `$CARGO_TARGET_DIR` (default `.bench_build` at the
repository root), then runs one workload. The last line of standard
output is the JSON result; see nkabench/README.md for the workloads and
metrics. Exits non-zero, without a result line, when the build or the
run fails or any answer is wrong.
"""

import os
import resource
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Address-space ceiling for the benchmark and the server it starts: a
# query that outgrows it aborts the run instead of exhausting the host.
MEMORY_LIMIT_BYTES = 8 << 30
# Wall-clock ceiling of one run after the build.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"nkabench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for manifest, extra in (
        (os.path.join(ROOT, "Cargo.toml"), ["--bin", "nka"]),
        (os.path.join(HERE, "Cargo.toml"), []),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", manifest] + extra
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))


def main():
    for needed in ("Cargo.toml", "crates", os.path.join("tests", "data")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found under {ROOT}: run from a full checkout")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target_dir = os.path.abspath(target_dir)
    build(target_dir)
    release = os.path.join(target_dir, "release")
    cmd = [os.path.join(release, "nkabench")] + sys.argv[1:] + ["--nka", os.path.join(release, "nka")]
    proc = subprocess.Popen(cmd, cwd=ROOT, preexec_fn=limit_memory, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        # Nothing the run started may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.exit(code)


if __name__ == "__main__":
    main()
