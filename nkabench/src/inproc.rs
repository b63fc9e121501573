//! The in-process closed-loop workloads (`loopfree_cold`, `loops_cold`):
//! one warm `Session`, one thread, distinct generated queries, each
//! timed around `wire::decode_request` → `Session::run` →
//! `wire::encode_response` — the per-line path of `nka batch`.

use crate::check::{self, Outcome, SemanticBacklog};
use crate::gen::{Mix, QueryStream};
use crate::report::{self, Composition, RunResult};
use crate::stats::{self, Metrics};
use crate::trace::Replayer;
use nka_core::api::wire;
use nka_core::{Response, Session, SessionOptions};
use std::time::{Duration, Instant};

/// Generator stream of the measured queries.
const STREAM_MEASURED: u64 = 1;
/// Generator stream of the warm-up queries (never measured).
const STREAM_WARMUP: u64 = 2;
/// Warm-up: lazy set-up and the shared per-symbol caches fill before
/// timing starts; at most this many queries or this long.
const WARMUP_QUERIES: usize = 20;
const WARMUP_TIME: Duration = Duration::from_secs(2);
/// Set-up samples taken before the run starts.
const SETUP_SAMPLES: usize = 21;
/// Set-ups per sample: one takes well under a microsecond, so each
/// sample times a batch and divides.
const SETUP_BATCH: usize = 100;
/// The run takes one more set-up sample whenever this much time has
/// passed, between queries and outside their timing. The host's speed
/// shifts over seconds: samples all taken in the first 10 ms of a run
/// gave medians a factor of two apart between runs of one build, so
/// `setup_s` is the median over samples spread across the whole run.
const SETUP_INTERVAL: Duration = Duration::from_millis(50);

/// Times `SessionOptions` build plus `Session` construction in batches.
struct SetupTimer {
    /// Per-set-up seconds of each batch.
    samples: Vec<f64>,
    /// The last batch, dropped (untimed) when the next one starts.
    batch: Vec<Session>,
    last: Instant,
}

impl SetupTimer {
    /// A timer that has taken `SETUP_SAMPLES` samples.
    fn new() -> SetupTimer {
        let mut timer = SetupTimer {
            samples: Vec::new(),
            batch: Vec::with_capacity(SETUP_BATCH),
            last: Instant::now(),
        };
        for _ in 0..SETUP_SAMPLES {
            timer.sample();
        }
        timer
    }

    fn sample(&mut self) {
        self.batch.clear();
        let start = Instant::now();
        for _ in 0..SETUP_BATCH {
            let opts = SessionOptions::builder()
                .build()
                .expect("default session options are valid");
            self.batch
                .push(std::hint::black_box(Session::with_options(opts)));
        }
        self.samples
            .push(start.elapsed().as_secs_f64() / SETUP_BATCH as f64);
        self.last = Instant::now();
    }

    fn sample_if_due(&mut self) {
        if self.last.elapsed() >= SETUP_INTERVAL {
            self.sample();
        }
    }

    /// One of the sessions the last batch built.
    fn session(&mut self) -> Session {
        self.batch.pop().expect("a batch is never empty")
    }

    /// `setup_s`: the median per-set-up seconds.
    fn median(&self) -> f64 {
        stats::median(&self.samples)
    }
}

/// One request line through the wire path, with its three spans.
pub(crate) struct Answer {
    pub response: Option<Response>,
    pub decode: Duration,
    pub run: Duration,
    pub encode: Duration,
    /// Certification decides the session ran for it (0: every analyzer
    /// or optimizer certificate came from its cache).
    pub cert_decides: u64,
}

impl Answer {
    /// Decode + run + encode: the per-query latency.
    #[must_use]
    pub(crate) fn latency(&self) -> Duration {
        self.decode + self.run + self.encode
    }
}

fn cert_decides(session: &Session) -> u64 {
    session.analysis_stats().tier_b_decides + session.optimize_stats().engine_decides
}

/// Answers `line` as `nka batch` does: decode, run, encode.
pub(crate) fn answer(session: &mut Session, line: &str) -> Answer {
    let decides_before = cert_decides(session);
    let start = Instant::now();
    let Ok(Some(query)) = wire::decode_request(line) else {
        return Answer {
            response: None,
            decode: start.elapsed(),
            run: Duration::ZERO,
            encode: Duration::ZERO,
            cert_decides: 0,
        };
    };
    let decoded = Instant::now();
    let resp = session.run(&query);
    let ran = Instant::now();
    std::hint::black_box(wire::encode_response(&query, &resp));
    let done = Instant::now();
    Answer {
        response: Some(resp),
        decode: decoded - start,
        run: ran - decoded,
        encode: done - ran,
        cert_decides: cert_decides(session) - decides_before,
    }
}

/// Runs an in-process workload for `seconds` of wall time, then to the
/// end of the block in progress.
#[must_use]
pub fn run(mix: Mix, seed: u64, seconds: f64, traced: bool) -> RunResult {
    let mut setup = SetupTimer::new();
    let mut session = setup.session();
    let warmup_end = Instant::now() + WARMUP_TIME;
    for q in QueryStream::new(mix, seed, STREAM_WARMUP).take(WARMUP_QUERIES) {
        if Instant::now() >= warmup_end {
            break;
        }
        answer(&mut session, &q.line);
    }
    stats::reset_peak_rss();
    let mut comp = Composition::default();
    let mut backlog = SemanticBacklog::default();
    let mut replayer = Replayer::new(session.options().decide.clone());
    let mut latencies = Vec::new();
    let (mut attempted, mut failed, mut wrong) = (0u64, 0u64, Vec::new());
    let mut busy = Duration::ZERO;
    let mut traced_wall = Duration::ZERO;
    let stats_before = session.stats();
    let analysis_before = session.analysis_stats();
    let optimize_before = session.optimize_stats();
    let memory_before = session.memory_stats();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut stream = QueryStream::new(mix, seed, STREAM_MEASURED);
    loop {
        if Instant::now() >= deadline && stream.at_block_boundary() {
            break;
        }
        setup.sample_if_due();
        let q = stream.next().expect("the generator is endless");
        comp.record(&q);
        let iteration = Instant::now();
        let ans = answer(&mut session, &q.line);
        attempted += 1;
        busy += ans.latency();
        latencies.push(ans.latency().as_secs_f64() * 1e3);
        let outcome = match &ans.response {
            Some(r) => {
                check::classify(q.expect, &check::prog_of(&q.line), &r.verdict, &mut backlog)
            }
            None => Outcome::Failed,
        };
        match outcome {
            Outcome::Ok => {}
            Outcome::Failed => failed += 1,
            Outcome::Wrong => wrong.push(q.line.clone()),
        }
        if traced {
            replayer.record(&q.line, &ans);
            traced_wall += iteration.elapsed();
        }
    }
    let peak_rss = stats::peak_rss_mib("self").unwrap_or(0.0);
    let semantic_mismatches = backlog.mismatches();
    let mut res = RunResult {
        attempted,
        failed,
        wrong,
        semantic_checked: backlog.len() as u64,
        semantic_mismatches,
        composition: comp,
        ..RunResult::default()
    };
    let mut m = Metrics::default();
    let thr = stats::ratio(attempted as f64, busy.as_secs_f64());
    m.push("setup_s", "s", setup.median());
    m.push("throughput_qps", "queries/s", thr);
    m.push("latency_p50_ms", "ms", stats::quantile_hd(&latencies, 0.50));
    m.push("latency_p90_ms", "ms", stats::quantile_hd(&latencies, 0.90));
    m.push("latency_p99_ms", "ms", stats::quantile_hd(&latencies, 0.99));
    m.push("peak_rss_mb", "MiB", peak_rss);
    m.push(
        "failed_share",
        "ratio",
        stats::ratio(failed as f64, attempted as f64),
    );
    m.push(
        "goodput_qps",
        "queries/s",
        stats::ratio((attempted - failed) as f64, busy.as_secs_f64()),
    );
    res.end_to_end = m;
    if traced {
        let engine = session.stats().delta_since(&stats_before);
        let analysis = session.analysis_stats();
        let optimize = session.optimize_stats();
        let memory = session.memory_stats();
        res.per_layer = report::layer_metrics(&report::LayerInputs {
            layers: &replayer.layers,
            queries: attempted,
            engine,
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
            serve: None,
        });
        res.parity_checked = replayer.layers.parity_checked;
        res.parity_mismatches = replayer.layers.parity_mismatches;
        res.notes.push(report::layer_shares(&replayer.layers));
    }
    res
}
