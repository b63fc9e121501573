//! `nkabench --workload W --seed N --seconds S --trace 0|1 [--nka PATH]`
//!
//! Runs one workload from a seed and prints a human-readable report
//! followed by one JSON line: the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics of the traced replay (`--trace 1`). Any wrong
//! answer, semantic mismatch or replay-parity break makes the run exit
//! non-zero. Run it from the repository root (the `serve_repeat` hot set
//! is `tests/data/*.jsonl`).

use nkabench::gen::Mix;
use nkabench::report::RunResult;
use nkabench::{inproc, serve, stats};
use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end metrics every workload reports in its JSON line. The
/// report also prints `latency_p50_ms`, `latency_p90_ms`,
/// `latency_p99_ms`, `failed_share` and `slo_miss_share`; README.md says
/// why they stay out of it.
const END_TO_END: [&str; 4] = ["setup_s", "throughput_qps", "peak_rss_mb", "goodput_qps"];

const USAGE: &str = "usage: nkabench --workload loopfree_cold|loops_cold|serve_repeat --seed N \
                     --seconds S --trace 0|1 [--nka PATH]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    nka: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let mut nka = target.join("release").join("nka");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = value()? == "1",
            "--nka" => nka = PathBuf::from(value()?),
            _ => return Err(format!("unknown argument {arg:?}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        nka,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "loopfree_cold" => Ok(inproc::run(
            Mix::LoopFree,
            args.seed,
            args.seconds,
            args.trace,
        )),
        "loops_cold" => Ok(inproc::run(
            Mix::Looped,
            args.seed,
            args.seconds,
            args.trace,
        )),
        "serve_repeat" => serve::run(
            &PathBuf::from("."),
            &args.nka,
            args.seed,
            args.seconds,
            args.trace,
        ),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let res = match result {
        Ok(res) => res,
        Err(msg) => {
            eprintln!("nkabench: {msg}");
            return ExitCode::from(1);
        }
    };
    print_report(&args, &res);
    if !res.correct() {
        return ExitCode::from(1);
    }
    let metrics = if args.trace {
        let names: Vec<&str> = res.per_layer.0.iter().map(|m| m.name).collect();
        res.per_layer.to_json(&names)
    } else {
        res.end_to_end.to_json(&END_TO_END)
    };
    println!(
        "{}",
        stats::result_line(true, res.attempted.max(1), res.failed, &metrics)
    );
    ExitCode::SUCCESS
}

fn print_report(args: &Args, res: &RunResult) {
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    print!("{}", res.composition.render());
    println!(
        "  attempted {} failed {} wrong {} semantic checks {} ({} mismatched) replay parity {}/{}",
        res.attempted,
        res.failed,
        res.wrong.len(),
        res.semantic_checked,
        res.semantic_mismatches.len(),
        res.parity_checked - res.parity_mismatches,
        res.parity_checked,
    );
    for line in res.wrong.iter().take(5) {
        println!("  WRONG: {line}");
    }
    for (p, q) in res.semantic_mismatches.iter().take(5) {
        println!("  SEMANTIC MISMATCH: {p}  vs  {q}");
    }
    for note in &res.notes {
        println!("{note}");
    }
    println!("end-to-end:");
    print!("{}", res.end_to_end.render_lines());
    if args.trace {
        println!("per-layer:");
        print!("{}", res.per_layer.render_lines());
    }
}
