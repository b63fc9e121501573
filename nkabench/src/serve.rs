//! `serve_repeat`: the socket server restarted from a snapshot, driven
//! open loop.
//!
//! Set-up answers the hot set (every request line of
//! `tests/data/*.jsonl`) in process and dumps that session's caches as
//! the snapshot `nka snapshot dump` would write, then starts
//! `nka --stats --json --snapshot F serve --listen unix:… --workers 2`
//! several times, timing spawn → first accepted connection. One client
//! thread sends on two connections at a fixed offered rate: 90 % of the
//! requests Zipf-drawn from the hot set, 10 % fresh loop-free `prog_eq`
//! pairs over one or two qubits. Each request is timed from its due time to its response line,
//! and each response is diffed against the stable projection an
//! in-process session gives for the same line. The server is drained
//! with SIGTERM and its `--stats --json` block parsed.

use crate::check::{self, Outcome, SemanticBacklog};
use crate::gen::{Expect, Mix, QueryStream, Rng};
use crate::inproc;
use crate::report::{self, RunResult, ServeLayer};
use crate::stats::{self, Metrics};
use crate::trace::Replayer;
use nka_core::api::json::Json;
use nka_core::api::wire;
use nka_core::{Session, SessionOptions};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered load, requests per second over all connections.
const RATE_QPS: f64 = 2000.0;
/// The fixed p99 latency limit a response must meet to count as good.
const SLO_MS: f64 = 20.0;
/// Client connections (one client process, one sending thread).
const CONNECTIONS: usize = 2;
/// Server worker sessions.
const WORKERS: usize = 2;
/// Server starts per run; `setup_s` is their median.
const SETUPS: usize = 11;
/// Share of fresh (never seen) requests, in percent.
const FRESH_PERCENT: usize = 10;
/// Fresh requests come from the `loopfree_cold` generator, restricted
/// to small registers: encoding a 4-qubit program costs 100 ms or more
/// at the seed, which would make the encoder, not the serving path, the
/// subject of this workload (`loopfree_cold` measures it).
const FRESH_MAX_QUBITS: usize = 2;
/// Zipf exponent of the hot-set draw.
const ZIPF_S: f64 = 1.0;
/// Generator stream of the fresh requests (distinct from `loopfree_cold`).
const STREAM_FRESH: u64 = 3;
/// Generator stream of the schedule (hot/fresh choice, Zipf draws).
const STREAM_SCHEDULE: u64 = 4;
/// How long to wait for outstanding responses after the last send.
const DRAIN_WAIT: Duration = Duration::from_secs(60);

/// One scheduled request.
struct Request {
    line: String,
    /// The stable projection an in-process session answers.
    expected: String,
    /// Construction-known verdict for fresh lines.
    expect: Option<Expect>,
}

/// The hot set: every request line of the golden corpora, in file order.
fn hot_set(root: &Path) -> Result<Vec<String>, String> {
    let dir = root.join("tests/data");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    files.sort();
    let mut lines = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        for line in text.lines() {
            match wire::decode_request(line) {
                Ok(Some(_)) => lines.push(line.to_owned()),
                Ok(None) => {}
                Err(err) => return Err(format!("{}: bad request line: {err}", f.display())),
            }
        }
    }
    if lines.is_empty() {
        return Err("the hot set is empty".to_owned());
    }
    Ok(lines)
}

/// The comparison-stable projection of `line` answered in process.
fn expected(session: &mut Session, line: &str) -> (String, Option<nka_core::Response>) {
    match wire::decode_request(line) {
        Ok(Some(query)) => {
            let resp = session.run(&query);
            let rendered = wire::encode_response(&query, &resp);
            (wire::stable_response_projection(&rendered), Some(resp))
        }
        Ok(None) => (String::new(), None),
        Err(err) => (
            wire::stable_response_projection(&wire::encode_error(&err)),
            None,
        ),
    }
}

/// Zipf(`ZIPF_S`) draw over ranks `0..n` by inverse CDF.
fn zipf(rng: &mut Rng, cdf: &[f64]) -> usize {
    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

fn sigterm(child: &mut Child) -> Result<std::process::ExitStatus, String> {
    let status = Command::new("kill")
        .arg("-TERM")
        .arg(child.id().to_string())
        .status()
        .map_err(|e| format!("cannot run kill: {e}"))?;
    if !status.success() {
        let _ = child.kill();
    }
    child.wait().map_err(|e| format!("wait for nka serve: {e}"))
}

/// A started server. Dropping it kills and reaps the process, so no
/// error path leaves a server running.
struct Server {
    child: Child,
    socket: PathBuf,
    stderr: PathBuf,
}

impl Drop for Server {
    fn drop(&mut self) {
        // Both fail harmlessly once the process was drained and reaped.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn start_server(
    nka: &Path,
    dir: &Path,
    snapshot: &Path,
    k: usize,
) -> Result<(Server, f64), String> {
    let socket = dir.join(format!("s{k}.sock"));
    let stderr_path = dir.join(format!("serve{k}.err"));
    let stderr = std::fs::File::create(&stderr_path).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut child = Command::new(nka)
        .args(["--stats", "--json", "--snapshot"])
        .arg(snapshot)
        .args(["serve", "--listen"])
        .arg(format!("unix:{}", socket.display()))
        .args(["--workers", &WORKERS.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", nka.display()))?;
    loop {
        if UnixStream::connect(&socket).is_ok() {
            break;
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!("nka serve exited during start-up: {status}"));
        }
        if start.elapsed() > Duration::from_secs(30) {
            let _ = child.kill();
            let _ = child.wait();
            return Err("nka serve did not accept within 30 s".to_owned());
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    let secs = start.elapsed().as_secs_f64();
    Ok((
        Server {
            child,
            socket,
            stderr: stderr_path,
        },
        secs,
    ))
}

/// The last JSON object line of the server's stderr (the drain stats).
fn drain_stats(path: &Path) -> Option<Json> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .and_then(|l| Json::parse(l).ok())
}

fn stat(v: &Option<Json>, section: &str, key: &str) -> f64 {
    v.as_ref()
        .and_then(|v| v.get(section))
        .and_then(|s| s.get(key))
        .and_then(Json::as_i64)
        .unwrap_or(0) as f64
}

/// Responses of one connection: (arrival, line).
type Arrivals = Vec<(Instant, String)>;

/// Runs `serve_repeat`; `root` is the checkout, `nka` the server binary.
pub fn run(
    root: &Path,
    nka: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunResult, String> {
    let base = root.join(".bench_run");
    let dir = base.join(format!("serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let result = run_in(&dir, root, nka, seed, seconds, traced);
    let _ = std::fs::remove_dir_all(&dir);
    // Only removes the parent when no other run still uses it.
    let _ = std::fs::remove_dir(&base);
    result
}

fn run_in(
    dir: &Path,
    root: &Path,
    nka: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    let hot = hot_set(root)?;

    // Expected answers, in process: the hot set (plus its golden
    // annotations) and the fresh lines (plus their construction).
    let mut oracle = Session::new();
    let mut hot_expected = Vec::with_capacity(hot.len());
    for line in &hot {
        let (projection, resp) = expected(&mut oracle, line);
        if let Some(resp) = &resp {
            if let Some(why) = check::golden_disagreement(line, &resp.verdict) {
                res.wrong.push(format!("{line}  ({why})"));
            }
        }
        hot_expected.push(projection);
    }
    // The warm-restart snapshot: the oracle's caches after the hot set
    // and nothing else, as `nka snapshot dump F <hot set>` writes them.
    let pristine = dir.join("hot.nkasnap");
    oracle
        .save_snapshot(&pristine)
        .map_err(|e| format!("snapshot dump failed: {e}"))?;
    let mut rng = Rng::new(seed, STREAM_SCHEDULE);
    let weights: Vec<f64> = (1..=hot.len())
        .map(|r| 1.0 / (r as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    // Rank → line: a fixed shuffle, so popularity is not file order and
    // is the same under every seed (the seed draws the sequence).
    let mut ranked: Vec<usize> = (0..hot.len()).collect();
    let mut shuffle = Rng::new(0, STREAM_SCHEDULE);
    for i in (1..ranked.len()).rev() {
        ranked.swap(i, shuffle.below(i + 1));
    }
    let count = (RATE_QPS * seconds).ceil() as usize;
    let mut fresh = QueryStream::new(Mix::LoopFree, seed, STREAM_FRESH)
        .filter(|q| q.op() == "prog_eq" && q.qubits <= FRESH_MAX_QUBITS);
    let mut backlog = SemanticBacklog::default();
    let mut schedule = Vec::with_capacity(count);
    for _ in 0..count {
        if rng.percent(FRESH_PERCENT) {
            let q = fresh.next().expect("the generator is endless");
            let (projection, resp) = expected(&mut oracle, &q.line);
            if let Some(resp) = resp {
                if check::classify(q.expect, "", &resp.verdict, &mut backlog) == Outcome::Wrong {
                    res.wrong.push(q.line.clone());
                }
            }
            res.composition.record(&q);
            schedule.push(Request {
                line: q.line,
                expected: projection,
                expect: Some(q.expect),
            });
        } else {
            let i = ranked[zipf(&mut rng, &cdf)];
            res.composition.record_op(op_of(&hot[i]));
            schedule.push(Request {
                line: hot[i].clone(),
                expected: hot_expected[i].clone(),
                expect: None,
            });
        }
    }
    drop(oracle);

    // Set-up: start the server SETUPS times from a fresh copy of the
    // snapshot; keep the last one.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut server = None;
    for k in 0..SETUPS {
        let snap = dir.join(format!("warm{k}.nkasnap"));
        std::fs::copy(&pristine, &snap).map_err(|e| e.to_string())?;
        let (mut s, secs) = start_server(nka, dir, &snap, k)?;
        setups.push(secs);
        if k + 1 < SETUPS {
            sigterm(&mut s.child)?;
        } else {
            server = Some(s);
        }
    }
    let mut server = server.expect("at least one set-up");
    let outcome = drive(&server, &schedule);
    let peak_rss = stats::peak_rss_mib(&server.child.id().to_string()).unwrap_or(0.0);
    let exit = sigterm(&mut server.child)?;
    let drained = drain_stats(&server.stderr);
    let (arrivals, sends, start) = outcome?;
    if !exit.success() {
        return Err(format!("nka serve exited with {exit} after the drain"));
    }

    // Post-processing (untimed): latency from due time, diffs, SLO.
    let period = Duration::from_secs_f64(1.0 / RATE_QPS);
    let mut latencies = Vec::with_capacity(count);
    let mut overheads = Vec::new();
    let mut lags = Vec::with_capacity(count);
    let (mut failed, mut good, mut slo_miss) = (0u64, 0u64, 0u64);
    let mut last_arrival = start;
    let mut cursor = [0usize; CONNECTIONS];
    for (i, req) in schedule.iter().enumerate() {
        let due = due_time(start, period, i);
        let sent = sends[i];
        lags.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        let conn = i % CONNECTIONS;
        let Some((arrived, line)) = arrivals[conn].get(cursor[conn]) else {
            failed += 1;
            slo_miss += 1;
            continue;
        };
        cursor[conn] += 1;
        last_arrival = last_arrival.max(*arrived);
        let latency = arrived.saturating_duration_since(due).as_secs_f64() * 1e3;
        latencies.push(latency);
        let projection = wire::stable_response_projection(line);
        if projection != req.expected {
            if line.contains("\"overloaded") || line.contains("\"error\"") {
                failed += 1;
                slo_miss += 1;
            } else {
                res.wrong.push(format!("{}  (got {projection})", req.line));
            }
            continue;
        }
        if req.expect.is_some() && line.contains("budget_exhausted") {
            failed += 1;
            slo_miss += 1;
            continue;
        }
        if latency <= SLO_MS {
            good += 1;
        } else {
            slo_miss += 1;
        }
        if let Some(micros) = Json::parse(line.trim())
            .ok()
            .and_then(|v| v.get("micros").and_then(Json::as_i64))
        {
            let rtt_us = arrived.saturating_duration_since(sent).as_secs_f64() * 1e6;
            overheads.push(rtt_us - micros as f64);
        }
    }
    let span = last_arrival.saturating_duration_since(start).as_secs_f64();
    res.attempted = count as u64;
    res.failed = failed;
    res.semantic_checked = backlog.len() as u64;
    res.semantic_mismatches = backlog.mismatches();
    let mut m = Metrics::default();
    m.push("setup_s", "s", stats::median(&setups));
    m.push(
        "throughput_qps",
        "queries/s",
        stats::ratio((count as u64 - failed) as f64, span),
    );
    m.push("latency_p50_ms", "ms", stats::quantile_hd(&latencies, 0.50));
    m.push("latency_p90_ms", "ms", stats::quantile_hd(&latencies, 0.90));
    m.push("latency_p99_ms", "ms", stats::quantile_hd(&latencies, 0.99));
    m.push("peak_rss_mb", "MiB", peak_rss);
    m.push(
        "failed_share",
        "ratio",
        stats::ratio(failed as f64, count as f64),
    );
    m.push("goodput_qps", "queries/s", stats::ratio(good as f64, span));
    m.push(
        "slo_miss_share",
        "ratio",
        stats::ratio(slo_miss as f64, count as f64),
    );
    res.end_to_end = m;
    let refused = stat(&drained, "serve", "rejected_overload")
        + stat(&drained, "serve", "rejected_line_bytes");
    // Of all cache hits (verdicts and certificates), the share served by
    // entries the snapshot restored.
    let snapshot_hits = stat(&drained, "snapshot", "snapshot_hits")
        + stat(&drained, "snapshot", "cert_snapshot_hits");
    let cache_hits = stat(&drained, "engine", "answer_hits")
        + stat(&drained, "analysis", "cert_cache_hits")
        + stat(&drained, "optimize", "cert_cache_hits");
    res.notes.push(format!(
        "  offered {RATE_QPS} q/s over {CONNECTIONS} connections to {WORKERS} workers, SLO p99 ≤ {SLO_MS} ms; \
         client lag p99 {:.3} ms; refused {refused}; restored {} snapshot entries",
        stats::quantile(&lags, 0.99),
        stat(&drained, "snapshot", "restored_entries"),
    ));

    if traced {
        // Snapshot load in process, and the same schedule replayed
        // through the layers on a session restored from the snapshot.
        let mut loads = Vec::new();
        let mut session = Session::with_options(SessionOptions::default());
        for _ in 0..SETUPS {
            let mut s = Session::with_options(SessionOptions::default());
            let start = Instant::now();
            s.load_snapshot_file(&pristine)
                .map_err(|e| format!("snapshot load failed: {e}"))?;
            loads.push(start.elapsed().as_secs_f64() * 1e3);
            session = s;
        }
        let mut replayer = Replayer::new(session.options().decide.clone());
        let before = session.stats();
        let analysis_before = session.analysis_stats();
        let optimize_before = session.optimize_stats();
        let memory_before = session.memory_stats();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut traced_wall = Duration::ZERO;
        let mut replayed = 0u64;
        for req in &schedule {
            if Instant::now() >= deadline {
                break;
            }
            let iteration = Instant::now();
            let ans = inproc::answer(&mut session, &req.line);
            replayer.record(&req.line, &ans);
            traced_wall += iteration.elapsed();
            replayed += 1;
        }
        let analysis = session.analysis_stats();
        let optimize = session.optimize_stats();
        let memory = session.memory_stats();
        let serve_layer = ServeLayer {
            overhead_p50_us: stats::quantile(&overheads, 0.50),
            overhead_p99_us: stats::quantile(&overheads, 0.99),
            refused,
            snapshot_load_ms: stats::median(&loads),
            restored_entries: stat(&drained, "snapshot", "restored_entries"),
            snapshot_hit_share: stats::ratio(snapshot_hits, cache_hits),
            lag_p99_ms: stats::quantile(&lags, 0.99),
        };
        res.per_layer = report::layer_metrics(&report::LayerInputs {
            layers: &replayer.layers,
            queries: replayed,
            engine: session.stats().delta_since(&before),
            cert_hits: (analysis.cert_cache_hits - analysis_before.cert_cache_hits)
                + (optimize.cert_cache_hits - optimize_before.cert_cache_hits),
            cert_decides: (analysis.tier_b_decides - analysis_before.tier_b_decides)
                + (optimize.engine_decides - optimize_before.engine_decides),
            optimize_queries: optimize.queries - optimize_before.queries,
            steps_applied: optimize.steps_applied - optimize_before.steps_applied,
            candidates_refuted: optimize.candidates_refuted - optimize_before.candidates_refuted,
            optimize_decides: optimize.engine_decides - optimize_before.engine_decides,
            persistent_added: memory
                .arena_persistent_nodes
                .saturating_sub(memory_before.arena_persistent_nodes)
                as u64,
            scratch_retired: memory.scratch_retired_total - memory_before.scratch_retired_total,
            traced_wall,
            serve: Some(serve_layer),
        });
        res.parity_checked = replayer.layers.parity_checked;
        res.parity_mismatches = replayer.layers.parity_mismatches;
        res.notes.push(report::layer_shares(&replayer.layers));
    }
    Ok(res)
}

/// When request `i` of the schedule is due.
fn due_time(start: Instant, period: Duration, i: usize) -> Instant {
    start + period * u32::try_from(i).expect("schedules stay far below 2^32 requests")
}

fn op_of(line: &str) -> &'static str {
    match wire::decode_request(line) {
        Ok(Some(q)) => q.kind().op(),
        _ => "invalid",
    }
}

/// Sends the schedule open loop and collects every connection's
/// responses. Returns the arrivals per connection, the send instants,
/// and the schedule's start.
fn drive(
    server: &Server,
    schedule: &[Request],
) -> Result<(Vec<Arrivals>, Vec<Instant>, Instant), String> {
    let mut writers = Vec::with_capacity(CONNECTIONS);
    let mut readers = Vec::with_capacity(CONNECTIONS);
    let (tx, rx) = mpsc::channel::<(usize, Arrivals)>();
    for c in 0..CONNECTIONS {
        let stream = UnixStream::connect(&server.socket).map_err(|e| format!("connect: {e}"))?;
        let reader = stream.try_clone().map_err(|e| e.to_string())?;
        stream
            .set_write_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        reader
            .set_read_timeout(Some(DRAIN_WAIT))
            .map_err(|e| e.to_string())?;
        writers.push(stream);
        let expected = schedule.iter().skip(c).step_by(CONNECTIONS).count();
        let tx = tx.clone();
        readers.push(std::thread::spawn(move || {
            let mut lines = BufReader::new(reader);
            let mut out = Vec::with_capacity(expected);
            let mut buf = String::new();
            while out.len() < expected {
                buf.clear();
                match lines.read_line(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => out.push((Instant::now(), buf.clone())),
                }
            }
            let _ = tx.send((c, out));
        }));
    }
    drop(tx);
    let period = Duration::from_secs_f64(1.0 / RATE_QPS);
    let mut sends = Vec::with_capacity(schedule.len());
    let start = Instant::now() + Duration::from_millis(5);
    let mut send_error = None;
    for (i, req) in schedule.iter().enumerate() {
        let due = due_time(start, period, i);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let w = &mut writers[i % CONNECTIONS];
        if send_error.is_none() {
            if let Err(e) = w
                .write_all(req.line.as_bytes())
                .and_then(|()| w.write_all(b"\n"))
            {
                send_error = Some(e.to_string());
            }
        }
        sends.push(Instant::now());
    }
    let mut arrivals: Vec<Arrivals> = vec![Vec::new(); CONNECTIONS];
    for (c, out) in rx {
        arrivals[c] = out;
    }
    for r in readers {
        r.join()
            .map_err(|_| "a reader thread panicked".to_owned())?;
    }
    drop(writers);
    if let Some(e) = send_error {
        return Err(format!("send failed: {e}"));
    }
    Ok((arrivals, sends, start))
}
