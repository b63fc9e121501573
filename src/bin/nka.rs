//! `nka` — a command-line front end for the NKA toolkit.
//!
//! Every subcommand is a thin adapter over the Query API v1
//! ([`nka_core::api`]): arguments become a typed [`Query`], one warm
//! [`Session`] answers it, and the structured [`Verdict`] is rendered as
//! text or (with `--json`) one JSON line.
//!
//! ```text
//! nka [--budget N] [--stats] [--json] decide '<expr>' '<expr>'
//!                                      decide ⊢NKA e = f
//! nka [--budget N] [--stats] [--json] ka '<expr>' '<expr>'
//!                                      decide ⊢KA e = f (Remark 2.1:
//!                                      language equivalence, = NKA on 1*K)
//! nka [--json] series '<expr>' [max-len]
//!                                      print the truncated power series
//! nka [--budget N] [--json] prove '<lhs>' '<rhs>' [hyp]…
//!                                      search for a rewrite proof under
//!                                      hypotheses of the form 'l = r'
//! nka [--budget N] [--stats] [--json] prog-eq '<prog>' '<prog>'
//!                                      decide Enc(p) = Enc(q) for two
//!                                      quantum while-programs (Def. 4.4,
//!                                      sound by Thm 4.5)
//! nka [--stats] [--json] hoare '<effect>' '<prog>' '<effect>'
//!                                      check {pre} prog {post} via wlp;
//!                                      the verdict carries the Thm 7.8
//!                                      encoded inequality
//! nka [--budget N] [--stats] [--json] analyze '<prog>' [pass…]
//!                                      run the static analyzer: Tier A
//!                                      syntactic lints plus Tier B
//!                                      engine-backed findings, each
//!                                      carrying a replayable prog-eq
//!                                      certificate (dead code ⇔
//!                                      zeroness, Def. 4.4)
//! nka [--budget N] [--stats] [--json] [--max-steps N] [--beam N]
//!     optimize '<prog>' [rule…]        greedily apply the rewrite
//!                                      catalog to fixpoint; every
//!                                      applied step is engine-certified
//!                                      and the result carries a
//!                                      replayable prog-eq certificate
//! nka [--budget N] [--stats] [--json] [--jobs N]
//!     [--max-queries-per-worker N] batch [FILE]
//!                                      run a stream of queries (JSONL or
//!                                      'e = f' per line; FILE or '-' =
//!                                      stdin) on one warm engine, or
//!                                      sharded over N worker sessions
//! nka [--budget N] [--stats] [--json] [--max-queries-per-worker N]
//!     [--max-arena-nodes N] serve
//!                                      line-oriented request/response
//!                                      loop on stdin/stdout
//! nka … serve --listen <addr> [--listen <addr>…] [--workers N]
//!     [--queue-depth N] [--max-pending N] [--stats-interval SECS]
//!                                      concurrent socket server (Serve
//!                                      v2): TCP ('host:port') and Unix
//!                                      ('unix:/path') listeners over a
//!                                      worker pool of warm sessions —
//!                                      see [`nka_core::serve`]
//! nka encode-demo                      encode a sample quantum program
//! ```
//!
//! `--budget N` caps every subset construction at `N` DFA states
//! (default 100 000) and `--stats` prints the engine's cache counters,
//! per-stream expression-size accounting, the arena lifecycle footprint
//! (persistent vs scratch nodes, reclamation totals), and per-op
//! latency histograms (p50/p99/p999 + queries/sec) to stderr at exit;
//! with `--json` the report is one machine-readable JSON object instead
//! (same counters, plus the raw log-spaced histogram buckets — see
//! [`nka_core::serve::stats::StatsBlock`]). `--jobs N` (batch only) shards the stream across `N`
//! parallel worker sessions ([`run_batch_parallel_traced`]); verdicts, output
//! order, and exit codes are identical to `--jobs 1`. The parallel path
//! reads and answers the stream in bounded chunks, so it works on live
//! pipelines in O(chunk) memory (each chunk's responses flush before
//! the next chunk is read; `--jobs 1` remains fully line-by-line).
//!
//! Memory governance (`serve`/`batch`): `--max-queries-per-worker N`
//! recycles a worker session's engine caches after `N` queries, and
//! `--max-queries-per-worker`-recycled workers keep cumulative
//! `--stats`; `serve --max-arena-nodes M` exits with code `3` once the
//! process-wide resident arena exceeds `M` nodes — the supervisor
//! restart is the only way to shed *persistent* arena growth, and the
//! exit is the defense-in-depth backstop behind the scoped reclamation
//! the prover already does per query. The socket server drains first
//! (stops accepting and reading, answers everything already read),
//! then exits — same contract on SIGTERM/SIGINT, with exit code `0`.
//! The wire format of `batch`/`serve` is documented in
//! [`nka_core::api::wire`]; `nka-loadgen` (a sibling binary) replays
//! JSONL corpora over M concurrent socket connections and diffs every
//! response against a sequential in-process session.
//!
//! Exit codes: `0` the judgment holds / a proof was found / output was
//! produced; `1` it does not hold (or no proof was found within the
//! search budget); `2` usage or parse error; `3` the decision engine ran
//! out of its state budget. `batch` exits `0` when every line was
//! answered (whatever the verdicts), `2` if any line was malformed, else
//! `3` if any query exhausted the budget. `serve` exits `0` at end of
//! input, or `3` when `--max-arena-nodes` trips mid-stream.
//!
//! Examples:
//!
//! ```sh
//! cargo run --bin nka -- decide '(p q)* p' 'p (q p)*'
//! cargo run --bin nka -- --json ka 'p + p' 'p'
//! cargo run --bin nka -- series '(a + a)*' 4
//! cargo run --bin nka -- prove 'm1 (m0 p + m1)' 'm1' 'm1 m1 = m1' 'm1 m0 = 0'
//! echo '(p q)* p = p (q p)*' | cargo run --bin nka -- batch --json
//! ```

use nka_core::api::json::Json;
use nka_core::api::{
    run_batch_parallel_traced, wire, ApiError, BatchSnapshot, Query, Session, SessionCounters,
    SessionOptions, Verdict, DEFAULT_OPTIMIZE_BEAM, DEFAULT_OPTIMIZE_MAX_STEPS,
};
use nka_core::serve::{ListenAddr, OpHistograms, ServeConfig, Server, StatsBlock};
use nka_core::snapshot::Snapshot;
use nka_core::Judgment;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// `println!` that tolerates a closed stdout (`nka … | head` must exit
/// cleanly, not panic on EPIPE like the std macro does).
macro_rules! out {
    ($($arg:tt)*) => {{
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

/// `print!` with the same EPIPE tolerance.
macro_rules! out_raw {
    ($($arg:tt)*) => {{
        let _ = write!(std::io::stdout(), $($arg)*);
    }};
}

const EXIT_OK: u8 = 0;
const EXIT_NO: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_BUDGET: u8 = 3;

const USAGE: &str = "usage:\n  nka [--budget N] [--stats] [--json] decide '<expr>' '<expr>'\n  nka [--budget N] [--stats] [--json] ka '<expr>' '<expr>'\n  nka [--json] series '<expr>' [max-len]\n  nka [--budget N] [--json] prove '<lhs>' '<rhs>' ['l = r'…]\n  nka [--budget N] [--stats] [--json] prog-eq '<prog>' '<prog>'\n  nka [--stats] [--json] hoare '<effect>' '<prog>' '<effect>'\n  nka [--budget N] [--stats] [--json] analyze '<prog>' [pass…]\n  nka [--budget N] [--stats] [--json] [--max-steps N] [--beam N]\n      optimize '<prog>' [rule…]\n  nka [--budget N] [--stats] [--json] [--jobs N] [--max-queries-per-worker N]\n      [--snapshot FILE] batch [FILE]   (FILE or '-' = stdin)\n  nka [--budget N] [--stats] [--json] [--max-queries-per-worker N]\n      [--max-arena-nodes N] [--snapshot FILE] serve\n  nka … serve --listen ADDR [--listen ADDR…] [--workers N] [--queue-depth N]\n      [--max-pending N] [--max-line-bytes N] [--stats-interval SECS]\n  nka snapshot dump FILE [CORPUS]   (run CORPUS or stdin, dump warm caches)\n  nka [--json] snapshot inspect FILE\n  nka snapshot verify FILE\n  nka encode-demo\n\nprog-eq decides Enc(p) = Enc(q) for two quantum while-programs (one\nshared encoder setting, Definition 4.4); hoare checks the triple\n{pre} prog {post} via wlp and reports the Theorem 7.8 encoding.\nanalyze lints a program: Tier A passes (unused_qubit, unreachable_code,\nself_inverse_pair, constant_guard, metrics) are purely syntactic;\nTier B passes (dead_branch, redundant_fragment, peephole) are decided\nby the engine and every finding carries a replayable prog-eq\ncertificate. Naming passes after the program restricts the run.\noptimize applies what analyze reports, then re-analyzes to fixpoint:\ngreedy rule application over the catalog (dead-branch, branch-fusion,\ngate-fusion, dead-loop, loop-peeling, double-reset, double-measure,\nabort-sink, uncompute) — every applied step is certified prog-eq by\nthe engine before it lands (refuted candidates are counted, never\napplied), and the result carries the step trace plus a final\nreplayable certificate. Naming rules after the program restricts the\ncatalog (and arms the growing peel direction for 'loop-peeling');\n--max-steps caps the fixpoint iteration (default 32), --beam bounds\nhow many certified candidates are weighed per step (default 1).\nPrograms: 'qubits N; h q0; cnot q0 q1; if q0 {…} else {…}; while q0 {…}'\n(gates: h x y z s t cnot cz swap; also init qK, skip, abort).\nEffects: sums of scaled projectors, e.g. 'I', '0.5 I', 'ket(01)', 'q0=1'.\n\nbatch/serve read one request per line: either JSONL\n  {\"op\":\"nka_eq\",\"lhs\":\"(p q)* p\",\"rhs\":\"p (q p)*\"}\n  (ops: nka_eq, ka_eq, series [expr, max_len], prove [lhs, rhs, hyps],\n   prog_eq [p, q], hoare [pre, prog, post], analyze [prog, passes],\n   optimize [prog, rules, max_steps, beam])\nor the shorthand 'e = f'; '#' comments and blank lines are skipped.\n--jobs N shards a batch across N parallel worker sessions in bounded\nchunks; verdicts, output order, and exit codes are identical to\n--jobs 1. --max-queries-per-worker N recycles a session's engine\ncaches every N queries (memory backstop; verdicts unchanged);\nserve --max-arena-nodes N exits 3 once the process-wide resident\nexpression arena exceeds N nodes, so a supervisor can restart it.\n\n--snapshot FILE warm-starts batch/serve from a verdict-cache snapshot\nand re-dumps it on exit (and on every engine recycle): decided\nverdicts, star-free word multisets, and analyzer certificates survive\nrestarts. A missing file is a cold first boot; a corrupt, truncated,\nor config-mismatched file degrades to a cold start with a warning —\nnever to a wrong answer. With batch --jobs N every worker warm-starts\nfrom the loaded entries and the dump is their deduplicated union. 'nka\nsnapshot dump|inspect|verify' create and examine snapshot files\noffline.\n\nserve --listen ADDR starts the concurrent socket server instead of the\nstdin loop: ADDR is 'host:port' (TCP; repeatable) or 'unix:/path'.\n--workers N sizes the pool of warm sessions (default: CPU count, max 8);\n--queue-depth N bounds each connection's in-flight window (backpressure:\nthe server stops reading a connection whose window is full, default 64);\n--max-pending N is the server-wide hard cap past which requests are\nanswered with a structured 'overloaded' error (default 1024);\n--max-line-bytes N rejects longer request lines (default 1 MiB);\n--stats-interval SECS prints a --stats snapshot to stderr periodically.\nSIGTERM/SIGINT (and --max-arena-nodes) drain gracefully: stop accepting,\nanswer every request already read, then exit (0 for signals, 3 for the\narena cap). nka-loadgen replays corpora against the server and diffs\nevery response against a sequential in-process session.\n\nexit codes: 0 holds/proved, 1 does not hold/no proof, 2 usage or parse\nerror, 3 budget exceeded; analyze: 0 clean or info-only findings,\n1 any warning-severity finding; optimize: 0 (the result is always\ncertified — rewritten or returned unchanged), 3 only on setup failure;\nbatch: 0 all answered, 2 any malformed\nline, else 3 any budget-exhausted query; serve: 0 at end of input or\nafter a signal-initiated drain, 3 if --max-arena-nodes tripped";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(EXIT_USAGE)
}

/// Prints the `--stats` report to stderr in the selected format.
fn print_stats(block: &StatsBlock, json: bool) {
    if json {
        eprintln!("{}", block.to_json());
    } else {
        eprint!("{}", block.render_human());
    }
}

fn main() -> ExitCode {
    let mut budget: usize = 100_000;
    let mut stats = false;
    let mut json = false;
    let mut jobs: usize = 1;
    let mut max_queries_per_worker: Option<u64> = None;
    let mut max_arena_nodes: Option<usize> = None;
    let mut listen: Vec<ListenAddr> = Vec::new();
    let mut workers: Option<usize> = None;
    let mut queue_depth: Option<usize> = None;
    let mut max_pending: Option<usize> = None;
    let mut max_line_bytes: Option<usize> = None;
    let mut stats_interval: Option<Duration> = None;
    let mut snapshot_path: Option<PathBuf> = None;
    let mut max_steps: Option<usize> = None;
    let mut beam: Option<usize> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => {
                let Some(value) = args.next() else {
                    eprintln!("--listen needs an address ('host:port' or 'unix:/path')");
                    return usage();
                };
                listen.push(ListenAddr::parse(&value));
            }
            "--workers" => {
                let Some(value) = args.next() else {
                    eprintln!("--workers needs a value");
                    return usage();
                };
                match value.parse::<usize>() {
                    Ok(n) if n > 0 => workers = Some(n),
                    _ => {
                        eprintln!("--workers needs a positive integer, got {value:?}");
                        return usage();
                    }
                }
            }
            "--queue-depth" => {
                let Some(value) = args.next() else {
                    eprintln!("--queue-depth needs a value");
                    return usage();
                };
                match value.parse::<usize>() {
                    Ok(n) if n > 0 => queue_depth = Some(n),
                    _ => {
                        eprintln!("--queue-depth needs a positive integer, got {value:?}");
                        return usage();
                    }
                }
            }
            "--max-pending" => {
                let Some(value) = args.next() else {
                    eprintln!("--max-pending needs a value");
                    return usage();
                };
                match value.parse::<usize>() {
                    Ok(n) if n > 0 => max_pending = Some(n),
                    _ => {
                        eprintln!("--max-pending needs a positive integer, got {value:?}");
                        return usage();
                    }
                }
            }
            "--max-line-bytes" => {
                let Some(value) = args.next() else {
                    eprintln!("--max-line-bytes needs a value");
                    return usage();
                };
                match value.parse::<usize>() {
                    Ok(n) if n > 0 => max_line_bytes = Some(n),
                    _ => {
                        eprintln!("--max-line-bytes needs a positive integer, got {value:?}");
                        return usage();
                    }
                }
            }
            "--stats-interval" => {
                let Some(value) = args.next() else {
                    eprintln!("--stats-interval needs a value in seconds");
                    return usage();
                };
                match value.parse::<f64>() {
                    Ok(secs) if secs > 0.0 && secs.is_finite() => {
                        stats_interval = Some(Duration::from_secs_f64(secs));
                    }
                    _ => {
                        eprintln!(
                            "--stats-interval needs a positive number of seconds, got {value:?}"
                        );
                        return usage();
                    }
                }
            }
            "--budget" => {
                let Some(value) = args.next() else {
                    eprintln!("--budget needs a value");
                    return usage();
                };
                match value.parse::<usize>() {
                    Ok(n) if n > 0 => budget = n,
                    _ => {
                        eprintln!("--budget needs a positive integer, got {value:?}");
                        return usage();
                    }
                }
            }
            "--jobs" => {
                let Some(value) = args.next() else {
                    eprintln!("--jobs needs a value");
                    return usage();
                };
                match value.parse::<usize>() {
                    Ok(n) if n > 0 => jobs = n,
                    _ => {
                        eprintln!("--jobs needs a positive integer, got {value:?}");
                        return usage();
                    }
                }
            }
            "--max-queries-per-worker" => {
                let Some(value) = args.next() else {
                    eprintln!("--max-queries-per-worker needs a value");
                    return usage();
                };
                match value.parse::<u64>() {
                    Ok(n) if n > 0 => max_queries_per_worker = Some(n),
                    _ => {
                        eprintln!(
                            "--max-queries-per-worker needs a positive integer, got {value:?}"
                        );
                        return usage();
                    }
                }
            }
            "--max-arena-nodes" => {
                let Some(value) = args.next() else {
                    eprintln!("--max-arena-nodes needs a value");
                    return usage();
                };
                match value.parse::<usize>() {
                    Ok(n) if n > 0 => max_arena_nodes = Some(n),
                    _ => {
                        eprintln!("--max-arena-nodes needs a positive integer, got {value:?}");
                        return usage();
                    }
                }
            }
            "--snapshot" => {
                let Some(value) = args.next() else {
                    eprintln!("--snapshot needs a file path");
                    return usage();
                };
                snapshot_path = Some(PathBuf::from(value));
            }
            "--max-steps" => {
                let Some(value) = args.next() else {
                    eprintln!("--max-steps needs a value");
                    return usage();
                };
                match value.parse::<usize>() {
                    Ok(n) if n > 0 => max_steps = Some(n),
                    _ => {
                        eprintln!("--max-steps needs a positive integer, got {value:?}");
                        return usage();
                    }
                }
            }
            "--beam" => {
                let Some(value) = args.next() else {
                    eprintln!("--beam needs a value");
                    return usage();
                };
                match value.parse::<usize>() {
                    Ok(n) if n > 0 => beam = Some(n),
                    _ => {
                        eprintln!("--beam needs a positive integer, got {value:?}");
                        return usage();
                    }
                }
            }
            "--stats" => stats = true,
            "--json" => json = true,
            "--help" | "-h" => {
                // An explicit help request is a success, not a usage error.
                out!("{USAGE}");
                return ExitCode::from(EXIT_OK);
            }
            _ => rest.push(arg),
        }
    }

    let command = rest.first().map(String::as_str);
    if jobs > 1 && command != Some("batch") {
        eprintln!("--jobs only applies to batch");
        return usage();
    }
    if max_queries_per_worker.is_some() && !matches!(command, Some("batch") | Some("serve")) {
        eprintln!("--max-queries-per-worker only applies to batch and serve");
        return usage();
    }
    if max_arena_nodes.is_some() && command != Some("serve") {
        eprintln!("--max-arena-nodes only applies to serve");
        return usage();
    }
    if !listen.is_empty() && command != Some("serve") {
        eprintln!("--listen only applies to serve");
        return usage();
    }
    if snapshot_path.is_some() && !matches!(command, Some("batch") | Some("serve")) {
        eprintln!("--snapshot only applies to batch and serve (see 'nka snapshot dump')");
        return usage();
    }
    if (max_steps.is_some() || beam.is_some()) && command != Some("optimize") {
        eprintln!("--max-steps/--beam only apply to optimize");
        return usage();
    }
    if listen.is_empty()
        && (workers.is_some()
            || queue_depth.is_some()
            || max_pending.is_some()
            || max_line_bytes.is_some()
            || stats_interval.is_some())
    {
        eprintln!(
            "--workers/--queue-depth/--max-pending/--max-line-bytes/--stats-interval only apply to serve --listen"
        );
        return usage();
    }

    let opts = match SessionOptions::builder()
        .max_dfa_states(budget)
        .recycle_after_queries(max_queries_per_worker)
        .snapshot_path(snapshot_path.clone())
        .build()
    {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("{}", err.render());
            return usage();
        }
    };
    let mut session = Session::with_options(opts.clone());
    // Warm-start batch / the stdin serve loop (the socket server loads
    // its own copy in `Server::bind`, and the parallel batch path
    // manages its own shared `BatchSnapshot`). A missing file is a
    // normal first boot; a bad one degrades to cold with a plain-text
    // warning.
    let parallel_batch = command == Some("batch") && jobs > 1;
    if let (Some(path), true) = (&snapshot_path, listen.is_empty() && !parallel_batch) {
        if path.exists() {
            match session.load_snapshot_file(path) {
                Ok(n) => eprintln!("snapshot: restored {n} entries from {}", path.display()),
                Err(err) => eprintln!(
                    "warning: snapshot {} not restored ({err}); starting cold",
                    path.display()
                ),
            }
        }
    }
    // Per-op latency histograms behind `--stats`; every path records
    // into them (the socket server keeps its own inside the pool).
    let hists = OpHistograms::new();
    let started = Instant::now();
    // The parallel batch path runs on worker sessions, not `session`;
    // it reports their merged counters here. The socket server reports
    // a complete block of its own (including the serve counters).
    let mut report: Option<SessionCounters> = None;
    let mut server_block: Option<StatsBlock> = None;
    let code = match command {
        Some("serve") if rest.len() == 1 && !listen.is_empty() => {
            let cfg = ServeConfig {
                session: opts.clone(),
                workers: workers.unwrap_or_else(|| ServeConfig::default().workers),
                queue_depth: queue_depth.unwrap_or_else(|| ServeConfig::default().queue_depth),
                max_pending: max_pending.unwrap_or_else(|| ServeConfig::default().max_pending),
                max_line_bytes: max_line_bytes
                    .unwrap_or_else(|| ServeConfig::default().max_line_bytes),
                max_arena_nodes,
                json,
                snapshot_path: snapshot_path.clone(),
                ..ServeConfig::default()
            };
            serve_socket(cfg, &listen, stats_interval, json, &mut server_block)
        }
        Some("decide") if rest.len() == 3 => one_shot(
            &mut session,
            json,
            &hists,
            Query::nka_eq(&rest[1], &rest[2]),
        ),
        Some("ka") if rest.len() == 3 => {
            one_shot(&mut session, json, &hists, Query::ka_eq(&rest[1], &rest[2]))
        }
        Some("series") if rest.len() >= 2 => {
            let max_len = match rest.get(2) {
                None => nka_core::api::DEFAULT_SERIES_MAX_LEN,
                Some(raw) => match raw.parse::<usize>() {
                    Ok(n) => n,
                    Err(_) => {
                        eprintln!("max-len must be a non-negative integer, got {raw:?}");
                        return usage();
                    }
                },
            };
            one_shot(&mut session, json, &hists, Query::series(&rest[1], max_len))
        }
        Some("prove") if rest.len() >= 3 => one_shot(
            &mut session,
            json,
            &hists,
            Query::prove(&rest[1], &rest[2], &rest[3..]),
        ),
        Some("prog-eq") if rest.len() == 3 => one_shot(
            &mut session,
            json,
            &hists,
            Query::prog_eq(&rest[1], &rest[2]),
        ),
        Some("hoare") if rest.len() == 4 => one_shot(
            &mut session,
            json,
            &hists,
            Query::hoare(&rest[1], &rest[2], &rest[3]),
        ),
        Some("analyze") if rest.len() >= 2 => one_shot(
            &mut session,
            json,
            &hists,
            Query::analyze(&rest[1], &rest[2..]),
        ),
        Some("optimize") if rest.len() >= 2 => one_shot(
            &mut session,
            json,
            &hists,
            Query::optimize(
                &rest[1],
                &rest[2..],
                max_steps.unwrap_or(DEFAULT_OPTIMIZE_MAX_STEPS),
                beam.unwrap_or(DEFAULT_OPTIMIZE_BEAM),
            ),
        ),
        Some("batch") if rest.len() <= 2 && jobs <= 1 => {
            batch(&mut session, json, &hists, rest.get(1).map(String::as_str))
        }
        Some("batch") if rest.len() <= 2 => batch_parallel(
            &opts,
            json,
            &hists,
            jobs,
            rest.get(1).map(String::as_str),
            snapshot_path.as_deref(),
            &mut report,
        ),
        Some("serve") if rest.len() == 1 => serve(&mut session, json, &hists, max_arena_nodes),
        Some("snapshot") => return snapshot_cmd(&rest[1..], &opts, json),
        Some("encode-demo") => encode_demo(),
        _ => return usage(),
    };
    // Graceful-exit dump for the single-session paths (batch and the
    // stdin serve loop) — the socket server re-dumps in `Server::join`,
    // and the parallel batch path writes its merged `BatchSnapshot`
    // inside `batch_parallel`.
    if let (Some(path), true) = (&snapshot_path, listen.is_empty() && !parallel_batch) {
        match session.save_snapshot(path) {
            Ok(n) => eprintln!("snapshot: dumped {n} entries to {}", path.display()),
            Err(err) => eprintln!("warning: snapshot dump to {} failed: {err}", path.display()),
        }
    }
    if stats {
        let block = server_block.unwrap_or_else(|| StatsBlock {
            counters: report.unwrap_or_else(|| session.counters()),
            elapsed: started.elapsed(),
            ops: hists.snapshot(),
            serve: None,
        });
        print_stats(&block, json);
    }
    code
}

/// Exit code for one answered query. Positive verdicts (holds /
/// proved / series / an equivalent program pair / a valid triple) exit
/// 0, negative ones 1, resource exhaustion 3.
fn verdict_exit(verdict: &Verdict) -> u8 {
    match verdict {
        Verdict::BudgetExhausted { .. } => EXIT_BUDGET,
        v if v.is_positive() => EXIT_OK,
        _ => EXIT_NO,
    }
}

/// Runs one CLI-argument query through the session and renders it.
fn one_shot(
    session: &mut Session,
    json: bool,
    hists: &OpHistograms,
    query: Result<Query, ApiError>,
) -> ExitCode {
    let query = match query {
        Ok(query) => query,
        Err(err) => {
            eprintln!("{}", err.render());
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let resp = session.run(&query);
    hists.record(query.kind(), resp.elapsed);
    if json {
        out!("{}", wire::encode_response(&query, &resp));
    } else if let (Query::Series { expr, .. }, Verdict::Series { max_len, terms }) =
        (&query, &resp.verdict)
    {
        // The wire rendering is one line per response; interactively a
        // term per line reads better.
        out!("{{{{{expr}}}}} up to length {max_len}:");
        for (word, coeff) in terms {
            out!("  {coeff} · {word}");
        }
        if terms.is_empty() {
            out!("  (the zero series)");
        }
    } else if let (Query::Analyze { prog, .. }, Verdict::Analysis { findings }) =
        (&query, &resp.verdict)
    {
        // The wire rendering is one summary line; interactively each
        // finding gets its caret on the program source, plus the
        // replayable certificate for the Tier B (engine-backed) ones.
        out!("{}", wire::encode_response_text(&query, &resp));
        for finding in findings {
            out!();
            out!("{} [{}]", finding.severity, finding.pass);
            out!(
                "{}",
                nka_syntax::render_caret(
                    prog.source(),
                    finding.span.0,
                    finding.span.1,
                    &finding.message,
                )
            );
            if let Some(cert) = &finding.certificate {
                out!(
                    "  certificate: prog-eq {:?} {:?} (expect: {})",
                    cert.p,
                    cert.q,
                    cert.expect
                );
                if let Some(rule) = cert.rule {
                    out!("  rule: {rule}");
                }
            }
        }
    } else if let (
        Query::Optimize { prog, .. },
        Verdict::Optimized {
            optimized,
            steps,
            certificate,
            note,
            ..
        },
    ) = (&query, &resp.verdict)
    {
        // The wire rendering is one summary line; interactively the
        // before/after pair plus the full engine-certified step trace
        // (every step names its catalog rule and paper citation) reads
        // better, and the final certificate is printed replay-ready.
        out!("{}", wire::encode_response_text(&query, &resp));
        out!();
        out!("before: {}", prog.source());
        out!("after:  {optimized}");
        for (i, step) in steps.iter().enumerate() {
            out!();
            out!(
                "step {}: {} @ {}..{}",
                i + 1,
                step.rule,
                step.span.0,
                step.span.1
            );
            out!("  {}", step.note);
            out!("  cite: {}", step.citation());
        }
        if let Some(note) = note {
            out!();
            out!("note: {note}");
        }
        out!();
        out!(
            "certificate: prog-eq {:?} {:?} (expect: {})",
            certificate.p,
            certificate.q,
            certificate.expect
        );
    } else {
        out!("{}", wire::encode_response_text(&query, &resp));
        if let Verdict::BudgetExhausted { .. } = resp.verdict {
            eprintln!("hint: retry with a larger --budget");
        }
        // The full proof rendering stays a human-surface extra.
        if let (Query::Prove { hyps, .. }, Some(proof)) = (&query, &resp.proof) {
            let judgments: Vec<Judgment> = hyps.iter().map(|(l, r)| Judgment::Eq(*l, *r)).collect();
            match proof.check(&judgments) {
                Ok(_) => match nka_core::render::render(proof, &judgments) {
                    Ok(text) => out_raw!("\n{text}"),
                    Err(err) => eprintln!("(rendering failed: {err})"),
                },
                Err(err) => {
                    eprintln!("internal error: prover output failed to re-check: {err}");
                    return ExitCode::from(EXIT_NO);
                }
            }
        }
    }
    ExitCode::from(verdict_exit(&resp.verdict))
}

/// Emits one answered query as an output line. The sequential and
/// parallel batch paths are contractually required to produce identical
/// output (the CI `--jobs 4` diff enforces it), so both go through
/// here.
fn emit_response(query: &Query, resp: &nka_core::api::Response, json: bool) {
    if json {
        out!("{}", wire::encode_response(query, resp));
    } else {
        out!("{}", wire::encode_response_text(query, resp));
    }
}

/// Emits one request-level error: an output line plus the caret
/// rendering on stderr. Shared by both batch paths for the same
/// reason as [`emit_response`].
fn emit_error(err: &ApiError, json: bool) {
    if json {
        out!("{}", wire::encode_error(err));
    } else {
        out!("error: {err}");
    }
    eprintln!("{}", err.render());
}

/// Handles one wire line for `batch`/`serve`; returns its exit class.
fn run_line(session: &mut Session, json: bool, hists: &OpHistograms, line: &str) -> Option<u8> {
    match wire::decode_request(line) {
        Ok(None) => None, // blank / comment
        Ok(Some(query)) => {
            let resp = session.run(&query);
            hists.record(query.kind(), resp.elapsed);
            emit_response(&query, &resp, json);
            Some(verdict_exit(&resp.verdict))
        }
        Err(err) => {
            emit_error(&err, json);
            Some(EXIT_USAGE)
        }
    }
}

/// Folds per-line exit classes into the batch exit code: malformed input
/// dominates, then budget exhaustion; verdicts themselves are data, not
/// failures.
fn fold_exit(acc: u8, line_code: u8) -> u8 {
    match (acc, line_code) {
        (EXIT_USAGE, _) | (_, EXIT_USAGE) => EXIT_USAGE,
        (EXIT_BUDGET, _) | (_, EXIT_BUDGET) => EXIT_BUDGET,
        _ => EXIT_OK,
    }
}

/// `nka batch [FILE]`: the whole stream shares this one warm session, so
/// repeated expressions and queries amortize to cache hits.
fn batch(
    session: &mut Session,
    json: bool,
    hists: &OpHistograms,
    source: Option<&str>,
) -> ExitCode {
    let reader: Box<dyn BufRead> = match source {
        None | Some("-") => Box::new(std::io::stdin().lock()),
        Some(path) => match std::fs::File::open(path) {
            Ok(file) => Box::new(std::io::BufReader::new(file)),
            Err(err) => {
                eprintln!("cannot open {path:?}: {err}");
                return ExitCode::from(EXIT_USAGE);
            }
        },
    };
    let mut code = EXIT_OK;
    for (lineno, line) in reader.lines().enumerate() {
        let line = match line {
            Ok(line) => line,
            Err(err) => {
                eprintln!("read error on line {}: {err}", lineno + 1);
                return ExitCode::from(EXIT_USAGE);
            }
        };
        if let Some(line_code) = run_line(session, json, hists, &line) {
            if line_code == EXIT_USAGE {
                eprintln!("  (line {})", lineno + 1);
            }
            code = fold_exit(code, line_code);
        }
    }
    ExitCode::from(code)
}

/// One decoded input line of a parallel batch: skippable, an index into
/// the chunk's query/response vectors, or a malformed line kept in
/// place so output order and exit codes match the sequential path.
enum BatchLine {
    Skip,
    Query(usize),
    Error(usize, ApiError),
}

/// Input lines a parallel batch reads and answers per chunk. Bounds the
/// memory of `--jobs N` to O(chunk) and gives live pipelines output at
/// chunk granularity (PR 3's parallel path buffered the entire stream
/// to EOF — the documented limitation this fixes). Large enough that
/// each chunk amortizes its worker threads' spawn cost.
const PARALLEL_CHUNK_LINES: usize = 256;

/// `nka batch --jobs N`: read the stream in chunks of
/// [`PARALLEL_CHUNK_LINES`], shard each chunk's well-formed queries
/// across `N` worker sessions ([`run_batch_parallel_traced`]), and emit one
/// output line per input line in input order before reading the next
/// chunk — byte-for-byte the same verdicts and exit code as the
/// sequential path, with only the per-response `stats`/`micros` fields
/// reflecting the sharded execution. (Worker caches reset per chunk;
/// verdicts are cache-independent, so only throughput varies.) A
/// mid-stream read error matches the sequential path too: the lines
/// read before it are still answered and printed, then the error
/// reports and the exit is `2`.
///
/// `--snapshot FILE` combines with `--jobs N` through a shared
/// [`BatchSnapshot`]: every chunk's workers warm-start from the loaded
/// entries and drain their caches into one merge builder (the serve-v2
/// drain-time merge), and the deduplicated union is written once at end
/// of stream — transient workers no longer forfeit or race over the
/// dump.
#[allow(clippy::too_many_lines)]
fn batch_parallel(
    opts: &SessionOptions,
    json: bool,
    hists: &OpHistograms,
    jobs: usize,
    source: Option<&str>,
    snapshot_path: Option<&std::path::Path>,
    report: &mut Option<SessionCounters>,
) -> ExitCode {
    let reader: Box<dyn BufRead> = match source {
        None | Some("-") => Box::new(std::io::stdin().lock()),
        Some(path) => match std::fs::File::open(path) {
            Ok(file) => Box::new(std::io::BufReader::new(file)),
            Err(err) => {
                eprintln!("cannot open {path:?}: {err}");
                return ExitCode::from(EXIT_USAGE);
            }
        },
    };
    let mut batch_snap = snapshot_path.map(|_| BatchSnapshot::new(opts));
    if let (Some(path), Some(snap)) = (snapshot_path, batch_snap.as_mut()) {
        if path.exists() {
            match snap.load_file(path, opts) {
                Ok(n) => eprintln!("snapshot: restored {n} entries from {}", path.display()),
                Err(err) => eprintln!(
                    "warning: snapshot {} not restored ({err}); starting cold",
                    path.display()
                ),
            }
        }
    }
    let mut agg = SessionCounters::default();
    let mut code = EXIT_OK;
    let mut read_error: Option<String> = None;
    let mut lineno = 0usize;

    let mut lines: Vec<BatchLine> = Vec::new();
    let mut queries: Vec<Query> = Vec::new();
    let mut input = reader.lines();
    loop {
        // Fill one chunk (or stop early on EOF / read error).
        lines.clear();
        queries.clear();
        while lines.len() < PARALLEL_CHUNK_LINES {
            lineno += 1;
            match input.next() {
                None => break,
                Some(Ok(line)) => {
                    let decoded = match wire::decode_request(&line) {
                        Ok(None) => BatchLine::Skip,
                        Ok(Some(query)) => {
                            queries.push(query);
                            BatchLine::Query(queries.len() - 1)
                        }
                        Err(err) => BatchLine::Error(lineno, err),
                    };
                    lines.push(decoded);
                }
                Some(Err(err)) => {
                    // Like the sequential path, the lines already read
                    // are still answered; the error reports after them.
                    read_error = Some(format!("read error on line {lineno}: {err}"));
                    break;
                }
            }
        }
        if lines.is_empty() {
            break;
        }

        // Answer and flush this chunk before reading the next.
        let (responses, counters) =
            run_batch_parallel_traced(&queries, opts, jobs, batch_snap.as_ref());
        agg = agg.merged(&counters);
        for decoded in &lines {
            match decoded {
                BatchLine::Skip => {}
                BatchLine::Query(i) => {
                    let (query, resp) = (&queries[*i], &responses[*i]);
                    hists.record(query.kind(), resp.elapsed);
                    emit_response(query, resp, json);
                    code = fold_exit(code, verdict_exit(&resp.verdict));
                }
                BatchLine::Error(lineno, err) => {
                    emit_error(err, json);
                    eprintln!("  (line {lineno})");
                    code = fold_exit(code, EXIT_USAGE);
                }
            }
        }
        let _ = std::io::stdout().flush();
        if read_error.is_some() {
            break;
        }
    }

    // One merged dump at end of stream (satellite to the per-chunk
    // drain-time exports above).
    if let (Some(path), Some(snap)) = (snapshot_path, batch_snap.as_ref()) {
        match snap.write_to(path) {
            Ok(n) => {
                agg.snapshot.dumps += 1;
                eprintln!("snapshot: dumped {n} entries to {}", path.display());
            }
            Err(err) => {
                agg.snapshot.dump_failures += 1;
                eprintln!("warning: snapshot dump to {} failed: {err}", path.display());
            }
        }
    }
    *report = Some(agg);
    if let Some(msg) = read_error {
        eprintln!("{msg}");
        return ExitCode::from(EXIT_USAGE);
    }
    ExitCode::from(code)
}

/// `nka serve`: request/response loop for driving from another process —
/// one response line per request line, flushed immediately. With
/// `--max-arena-nodes N`, the loop stops with exit code `3` once the
/// process-wide resident expression arena exceeds `N` nodes: recycling
/// the *process* is the only way to shed persistent-arena growth, so a
/// supervisor is expected to restart it (engine caches recycle
/// in-process via `--max-queries-per-worker` long before this trips).
fn serve(
    session: &mut Session,
    json: bool,
    hists: &OpHistograms,
    max_arena_nodes: Option<usize>,
) -> ExitCode {
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        run_line(session, json, hists, &line);
        if std::io::stdout().flush().is_err() {
            break; // downstream went away; exit quietly
        }
        if let Some(cap) = max_arena_nodes {
            let resident = nka_syntax::arena_resident_nodes();
            if resident > cap {
                eprintln!(
                    "arena cap exceeded: {resident} resident expression nodes > \
                     --max-arena-nodes {cap}; exiting for worker recycling"
                );
                return ExitCode::from(EXIT_BUDGET);
            }
        }
    }
    ExitCode::from(EXIT_OK)
}

/// `nka snapshot dump|inspect|verify`: the offline surface of the
/// snapshot format ([`nka_core::snapshot`]).
///
/// * `dump FILE [CORPUS]` — run CORPUS (JSONL / `e = f` lines; `-` or
///   absent = stdin) on a warm session, discard the responses, and
///   write the resulting caches to FILE.
/// * `inspect FILE` — print the header and entry counts (one JSON
///   object with `--json`).
/// * `verify FILE` — fully validate magic, version, checksum, and
///   structure; exit 0 iff the snapshot would load.
fn snapshot_cmd(args: &[String], opts: &SessionOptions, json: bool) -> ExitCode {
    match args {
        [cmd, file, corpus @ ..] if cmd == "dump" && corpus.len() <= 1 => {
            let source = corpus.first().map(String::as_str);
            let reader: Box<dyn BufRead> = match source {
                None | Some("-") => Box::new(std::io::stdin().lock()),
                Some(path) => match std::fs::File::open(path) {
                    Ok(file) => Box::new(std::io::BufReader::new(file)),
                    Err(err) => {
                        eprintln!("cannot open {path:?}: {err}");
                        return ExitCode::from(EXIT_USAGE);
                    }
                },
            };
            let mut session = Session::with_options(opts.clone());
            for (lineno, line) in reader.lines().enumerate() {
                let Ok(line) = line else { break };
                match wire::decode_request(&line) {
                    Ok(None) => {}
                    Ok(Some(query)) => {
                        let _ = session.run(&query);
                    }
                    Err(err) => {
                        eprintln!("{}", err.render());
                        eprintln!("  (line {})", lineno + 1);
                        return ExitCode::from(EXIT_USAGE);
                    }
                }
            }
            match session.save_snapshot(PathBuf::from(file).as_path()) {
                Ok(n) => {
                    out!("snapshot: dumped {n} entries to {file}");
                    ExitCode::from(EXIT_OK)
                }
                Err(err) => {
                    eprintln!("snapshot dump to {file} failed: {err}");
                    ExitCode::from(EXIT_USAGE)
                }
            }
        }
        [cmd, file] if cmd == "inspect" => match Snapshot::read(PathBuf::from(file).as_path()) {
            Ok(snap) => {
                let s = snap.summary();
                let int = |n: usize| Json::Int(i64::try_from(n).unwrap_or(i64::MAX));
                if json {
                    out!(
                        "{}",
                        Json::Obj(vec![
                            ("v".to_owned(), Json::Int(i64::from(s.version))),
                            (
                                "created_unix_secs".to_owned(),
                                Json::Int(i64::try_from(s.created_unix_secs).unwrap_or(i64::MAX)),
                            ),
                            (
                                "starfree_max_words".to_owned(),
                                Json::Int(
                                    i64::try_from(s.config.starfree_max_words).unwrap_or(i64::MAX),
                                ),
                            ),
                            ("symbols".to_owned(), int(s.symbols)),
                            ("exprs".to_owned(), int(s.exprs)),
                            ("nka_verdicts".to_owned(), int(s.nka_verdicts)),
                            ("ka_verdicts".to_owned(), int(s.ka_verdicts)),
                            ("multisets".to_owned(), int(s.multisets)),
                            ("certs".to_owned(), int(s.certs)),
                            ("entries".to_owned(), int(s.entry_count())),
                        ])
                    );
                } else {
                    let age =
                        nka_core::snapshot::now_unix_secs().saturating_sub(s.created_unix_secs);
                    out!("snapshot v{} ({file}), written {age}s ago", s.version);
                    out!("config: starfree_max_words={}", s.config.starfree_max_words);
                    out!(
                        "entries: {} ({} NKA + {} KA verdicts, {} multisets, {} certs) over {} exprs / {} symbols",
                        s.entry_count(),
                        s.nka_verdicts,
                        s.ka_verdicts,
                        s.multisets,
                        s.certs,
                        s.exprs,
                        s.symbols,
                    );
                }
                ExitCode::from(EXIT_OK)
            }
            Err(err) => {
                eprintln!("cannot inspect {file}: {err}");
                ExitCode::from(EXIT_NO)
            }
        },
        [cmd, file] if cmd == "verify" => match Snapshot::read(PathBuf::from(file).as_path()) {
            Ok(snap) => {
                out!(
                    "ok: {file} is a valid v{} snapshot with {} entries",
                    snap.summary().version,
                    snap.summary().entry_count()
                );
                ExitCode::from(EXIT_OK)
            }
            Err(err) => {
                eprintln!("invalid snapshot {file}: {err}");
                ExitCode::from(EXIT_NO)
            }
        },
        _ => usage(),
    }
}

/// Minimal POSIX signal plumbing for the socket server: SIGTERM/SIGINT
/// set a flag that [`serve_socket`]'s governor thread turns into a
/// graceful drain. Hand-rolled `signal(2)` binding because the build
/// environment is offline (no `libc`/`signal-hook`); storing to a
/// static atomic is async-signal-safe. (SIGPIPE needs no handling: the
/// Rust runtime ignores it before `main`, so a disconnected client
/// surfaces as an `EPIPE` write error on its own connection only.)
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    #[allow(unsafe_code)]
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    /// Installs the SIGTERM/SIGINT handlers. Call once, before serving.
    #[allow(unsafe_code)]
    pub fn install() {
        let handler = on_signal as extern "C" fn(i32) as usize;
        // SAFETY: `signal(2)` with a function pointer of the correct
        // `extern "C" fn(c_int)` ABI; the handler only stores to an
        // atomic, which is async-signal-safe.
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }

    pub fn shutdown_requested() -> bool {
        SHUTDOWN.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn shutdown_requested() -> bool {
        false
    }
}

/// `nka serve --listen …`: the Serve v2 socket server
/// ([`nka_core::serve::server`]). Binds every listener, announces them
/// on stderr, then blocks until a drain completes — triggered by
/// SIGTERM/SIGINT (exit 0) or the `--max-arena-nodes` cap (exit 3,
/// same supervisor contract as the stdin loop). `--stats-interval`
/// prints a full stats snapshot to stderr periodically; the final
/// snapshot is handed back for the exit-time `--stats` report.
fn serve_socket(
    cfg: ServeConfig,
    listen: &[ListenAddr],
    stats_interval: Option<Duration>,
    json: bool,
    server_block: &mut Option<StatsBlock>,
) -> ExitCode {
    sig::install();
    let server = match Server::bind(cfg, listen) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("cannot listen: {err}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let mut tcp = server.tcp_addrs().iter();
    for addr in listen {
        match addr {
            ListenAddr::Tcp(_) => {
                if let Some(bound) = tcp.next() {
                    eprintln!("listening on tcp:{bound}");
                }
            }
            ListenAddr::Unix(path) => eprintln!("listening on unix:{}", path.display()),
        }
    }

    // Governor: turns the signal flag into a drain. Lives until drain
    // begins for any reason (so it never outlives the server).
    let handle = server.handle();
    let governor = {
        let handle = handle.clone();
        std::thread::spawn(move || loop {
            if sig::shutdown_requested() {
                handle.begin_drain(EXIT_OK, "shutdown signal received");
                return;
            }
            if handle.draining() {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        })
    };
    let snapshotter = stats_interval.map(|period| {
        let handle = handle.clone();
        std::thread::spawn(move || {
            let mut last = Instant::now();
            while !handle.draining() {
                std::thread::sleep(Duration::from_millis(50));
                if last.elapsed() >= period {
                    last = Instant::now();
                    print_stats(&handle.stats_block(), json);
                }
            }
        })
    });

    let code = server.join();
    let _ = governor.join();
    if let Some(thread) = snapshotter {
        let _ = thread.join();
    }
    if let Some(note) = handle.drain_note() {
        eprintln!("drained: {note}");
    }
    *server_block = Some(handle.stats_block());
    ExitCode::from(code)
}

fn encode_demo() -> ExitCode {
    use nka_qprog::{EncoderSetting, Program};
    use qsim_quantum::{gates, states, Measurement};

    let meas = Measurement::computational_basis(2);
    let h = Program::unitary("h", &gates::hadamard());
    let w = Program::while_loop(["m0", "m1"], &meas, h);
    let mut setting = EncoderSetting::new(2);
    let enc = setting.encode(&w).expect("encoding succeeds");
    out!("program:   {w}");
    out!("encoding:  {enc}");
    let out = w.run(&states::basis_density(2, 1));
    out!("⟦P⟧(|1⟩⟨1|) = |0⟩⟨0| with trace {:.6}", out.trace().re);
    ExitCode::from(EXIT_OK)
}
