//! The serve-v2 observability layer: per-op latency histograms, stream
//! counters, and the human/JSON renderings behind `nka --stats` and
//! `--stats --json`.
//!
//! Two layers:
//!
//! * [`OpHistograms`] — one [`LatencyHistogram`] per wire op
//!   (`nka_eq`, …, `hoare`). Shared by every `--stats` surface: the
//!   one-shot CLI, `batch` (sequential and `--jobs N`), the stdin
//!   `serve` loop, and every worker of the socket server.
//! * [`StatsBlock`] — the full `--stats` report: engine counters
//!   ([`DeciderStats`], including the tiered-equivalence
//!   `starfree_hits`/`prefix_hits`/`fastpath_fallbacks`), term-size
//!   accounting, process-arena figures, throughput, the per-op
//!   histograms, and (for the socket server) the [`ServeCounters`]
//!   section. `render_human` produces the free-text lines `--stats` has
//!   always printed (now plus latency lines); `to_json` produces the
//!   single machine-readable object `--stats --json` emits instead.

use super::histogram::{fmt_ns, HistogramSnapshot, LatencyHistogram};
use crate::api::json::Json;
use crate::api::wire::WIRE_VERSION;
use crate::api::{AnalysisStats, OptimizeStats, QueryKind, SessionCounters, SnapshotStats};
use nka_qprog::analysis::{PASS_NAMES, RULE_METADATA};
use nka_wfa::DeciderStats;
use std::time::Duration;

/// Every wire op, in the order stats are reported.
pub const OPS: [QueryKind; 8] = [
    QueryKind::NkaEq,
    QueryKind::KaEq,
    QueryKind::Series,
    QueryKind::Prove,
    QueryKind::ProgEq,
    QueryKind::Hoare,
    QueryKind::Analyze,
    QueryKind::Optimize,
];

fn op_index(kind: QueryKind) -> usize {
    match kind {
        QueryKind::NkaEq => 0,
        QueryKind::KaEq => 1,
        QueryKind::Series => 2,
        QueryKind::Prove => 3,
        QueryKind::ProgEq => 4,
        QueryKind::Hoare => 5,
        QueryKind::Analyze => 6,
        QueryKind::Optimize => 7,
    }
}

/// One latency histogram per wire op. Recording is lock-free; see
/// [`LatencyHistogram`].
#[derive(Debug, Default)]
pub struct OpHistograms {
    per_op: [LatencyHistogram; OPS.len()],
}

impl OpHistograms {
    /// An empty set of per-op histograms.
    #[must_use]
    pub fn new() -> OpHistograms {
        OpHistograms::default()
    }

    /// Records one answered query of kind `kind` that took `elapsed`.
    pub fn record(&self, kind: QueryKind, elapsed: Duration) {
        self.per_op[op_index(kind)].record(elapsed);
    }

    /// Total queries recorded across all ops.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.per_op.iter().map(LatencyHistogram::count).sum()
    }

    /// Snapshots every op's histogram, in [`OPS`] order.
    #[must_use]
    pub fn snapshot(&self) -> OpSnapshots {
        OpSnapshots {
            per_op: OPS.map(|kind| self.per_op[op_index(kind)].snapshot()),
        }
    }
}

/// A point-in-time copy of an [`OpHistograms`].
#[derive(Debug, Clone)]
pub struct OpSnapshots {
    per_op: [HistogramSnapshot; OPS.len()],
}

impl OpSnapshots {
    /// An all-empty snapshot set.
    #[must_use]
    pub fn empty() -> OpSnapshots {
        OpSnapshots {
            per_op: std::array::from_fn(|_| HistogramSnapshot::empty()),
        }
    }

    /// The snapshot for one op.
    #[must_use]
    pub fn op(&self, kind: QueryKind) -> &HistogramSnapshot {
        &self.per_op[op_index(kind)]
    }

    /// Total queries across all ops.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.per_op.iter().map(HistogramSnapshot::count).sum()
    }

    /// Merges another snapshot set in (per-op), for aggregating workers.
    pub fn merge(&mut self, other: &OpSnapshots) {
        for (a, b) in self.per_op.iter_mut().zip(&other.per_op) {
            a.merge(b);
        }
    }
}

nka_syntax::counter_table! {
    /// Socket-server counters, present in the stats report only when the
    /// query stream came over `serve --listen`.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct ServeCounters {
        /// Connections accepted over the server's life.
        connections_opened,
        /// Connections fully closed (reader gone, queue drained).
        connections_closed,
        /// Requests currently queued or running (point-in-time).
        pending_now,
        /// Requests answered with a structured `overloaded` error because
        /// the server-wide pending hard cap was exceeded.
        rejected_overload,
        /// Requests answered with a structured error because one line
        /// exceeded the per-line byte hard cap.
        rejected_line_bytes,
        /// Malformed request lines answered with structured errors.
        wire_errors,
        /// Connections dropped mid-response (client went away; EPIPE et
        /// al.). Each costs only its own connection, never the process.
        dropped_mid_response,
    }
    extra {
        /// Engine recycles per worker (`--max-queries-per-worker`), indexed
        /// by worker id.
        worker_recycles: Vec<u64>,
        /// Queries answered per worker, indexed by worker id.
        worker_queries: Vec<u64>,
    }
}

/// Everything one `--stats` report contains. Build it, then call
/// [`StatsBlock::render_human`] or [`StatsBlock::to_json`].
#[derive(Debug, Clone)]
pub struct StatsBlock {
    /// The merged counters of every session that answered the stream
    /// (engine, term sizes, recycles, analyzer, optimizer, snapshot).
    pub counters: SessionCounters,
    /// Wall-clock covered by the report.
    pub elapsed: Duration,
    /// Per-op latency snapshots; their total is the report's query
    /// count, so `queries`/`qps` always agree with the per-op counts.
    pub ops: OpSnapshots,
    /// Socket-server section, if the stream was served over sockets.
    pub serve: Option<ServeCounters>,
}

impl StatsBlock {
    /// Queries answered (every op's histogram count).
    #[must_use]
    pub fn queries(&self) -> u64 {
        self.ops.total()
    }

    /// Queries per second over the report's wall-clock window.
    #[must_use]
    pub fn qps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.queries() as f64 / secs
        }
    }

    /// The free-text multi-line rendering (the default `--stats`
    /// surface, printed to stderr). Keeps the historical line shapes —
    /// `engine stats:`, `fast-path stats:`, `expr stats:`,
    /// `arena stats:` — and adds `latency stats:` + per-op lines and,
    /// when serving sockets, a `serve stats:` line.
    #[must_use]
    pub fn render_human(&self) -> String {
        let c = &self.counters;
        let s = &c.engine;
        let mut out = format!(
            "engine stats: {} NKA + {} KA queries, {} verdict hits, {} compiles ({} cached), {} determinizations ({} cached)\n",
            s.nka_queries,
            s.ka_queries,
            s.answer_hits,
            s.compile_misses,
            s.compile_hits,
            s.dfa_misses,
            s.dfa_hits,
        );
        out.push_str(&format!(
            "fast-path stats: {} star-free hits + {} prefix hits, {} fallbacks to generic\n",
            s.starfree_hits, s.prefix_hits, s.fastpath_fallbacks,
        ));
        out.push_str(&format!(
            "expr stats: {} tree nodes over {} distinct subterms queried; {} expressions interned process-wide\n",
            c.expr_nodes,
            c.expr_subterms,
            nka_syntax::interned_expr_count(),
        ));
        out.push_str(&format!(
            "arena stats: {} resident nodes ({} persistent + {} live scratch), {} scratch retired over {} scopes, {} engine recycles\n",
            nka_syntax::arena_resident_nodes(),
            nka_syntax::interned_expr_count(),
            nka_syntax::scratch_live_nodes(),
            nka_syntax::scratch_retired_total(),
            nka_syntax::scratch_epoch(),
            c.engine_recycles,
        ));
        out.push_str(&format!(
            "latency stats: {} queries in {:.2}s ({:.1} q/s)\n",
            self.queries(),
            self.elapsed.as_secs_f64(),
            self.qps(),
        ));
        for kind in OPS {
            let h = self.ops.op(kind);
            if h.count() == 0 {
                continue;
            }
            out.push_str(&format!(
                "  {}: n={} p50={} p99={} p999={} mean={}\n",
                kind.op(),
                h.count(),
                fmt_ns(h.quantile(0.50)),
                fmt_ns(h.quantile(0.99)),
                fmt_ns(h.quantile(0.999)),
                fmt_ns(h.mean_ns()),
            ));
        }
        if !c.analysis.is_zero() {
            let per_pass: Vec<String> = PASS_NAMES
                .iter()
                .zip(c.analysis.findings_by_pass)
                .filter(|(_, n)| *n > 0)
                .map(|(pass, n)| format!("{pass}:{n}"))
                .collect();
            out.push_str(&format!(
                "analysis stats: {} findings [{}], {} Tier B decides, {} certificate cache hits\n",
                c.analysis.findings_total(),
                per_pass.join(" "),
                c.analysis.tier_b_decides,
                c.analysis.cert_cache_hits,
            ));
        }
        if !c.optimize.is_zero() {
            let per_rule: Vec<String> = RULE_METADATA
                .iter()
                .zip(c.optimize.steps_by_rule)
                .filter(|(_, n)| *n > 0)
                .map(|(meta, n)| format!("{}:{n}", meta.name))
                .collect();
            out.push_str(&format!(
                "optimize stats: {} queries, {} steps [{}], {} refuted, {} fixpoints, {} budget bails, {} cycle breaks, {} engine decides, {} certificate cache hits\n",
                c.optimize.queries,
                c.optimize.steps_applied,
                per_rule.join(" "),
                c.optimize.candidates_refuted,
                c.optimize.fixpoints,
                c.optimize.budget_bails,
                c.optimize.cycle_breaks,
                c.optimize.engine_decides,
                c.optimize.cert_cache_hits,
            ));
        }
        if !c.snapshot.is_zero() {
            let sn = &c.snapshot;
            let age = sn.loaded_created_unix_secs.map_or_else(
                || "-".to_owned(),
                |created| {
                    format!(
                        "{}s",
                        crate::snapshot::now_unix_secs().saturating_sub(created)
                    )
                },
            );
            out.push_str(&format!(
                "snapshot stats: {} entries restored (age {}), {} verdict hits + {} cert hits from snapshot, {} dumps ({} failed), {} load warnings\n",
                sn.restored_entries,
                age,
                sn.snapshot_hits,
                sn.cert_snapshot_hits,
                sn.dumps,
                sn.dump_failures,
                sn.load_warnings,
            ));
        }
        if let Some(serve) = &self.serve {
            out.push_str(&format!(
                "serve stats: {} connections ({} closed), {} pending now, {} overload-rejected, {} oversize-rejected, {} wire errors, {} dropped mid-response\n",
                serve.connections_opened,
                serve.connections_closed,
                serve.pending_now,
                serve.rejected_overload,
                serve.rejected_line_bytes,
                serve.wire_errors,
                serve.dropped_mid_response,
            ));
            let recycles: Vec<String> = serve
                .worker_queries
                .iter()
                .zip(&serve.worker_recycles)
                .enumerate()
                .map(|(w, (q, r))| format!("w{w}:{q}q/{r}r"))
                .collect();
            out.push_str(&format!(
                "worker stats: {} workers [{}] (queries/recycles)\n",
                serve.worker_queries.len(),
                recycles.join(" "),
            ));
        }
        out
    }

    /// The machine-readable rendering: one JSON object (`--stats
    /// --json` emits it as a single line on stderr). Field names are
    /// part of the wire contract and covered by a parse test:
    /// `engine.*` (the [`DeciderStats`] counters, including
    /// `starfree_hits`/`prefix_hits`/`fastpath_fallbacks`), `expr.*`,
    /// `arena.*`, `queries`/`elapsed_micros`/`qps`, `ops.<op>` with
    /// `count`/`mean_ns`/`p50_ns`/`p99_ns`/`p999_ns` and log-bucketed
    /// `buckets: [[lower_ns, count], …]`, and `serve.*` when serving
    /// sockets.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let int = Json::count;
        let c = &self.counters;
        let mut fields = vec![
            ("v".to_owned(), Json::Int(WIRE_VERSION)),
            ("queries".to_owned(), int(self.queries())),
            (
                "elapsed_micros".to_owned(),
                int(u64::try_from(self.elapsed.as_micros()).unwrap_or(u64::MAX)),
            ),
            (
                "qps".to_owned(),
                Json::Int((self.qps().round() as i64).max(0)),
            ),
            (
                "engine".to_owned(),
                Json::Obj(Json::counter_fields(
                    &DeciderStats::NAMES,
                    &c.engine.values(),
                )),
            ),
            (
                "expr".to_owned(),
                Json::Obj(vec![
                    ("nodes".to_owned(), int(c.expr_nodes)),
                    ("subterms".to_owned(), int(c.expr_subterms)),
                    (
                        "interned".to_owned(),
                        int(nka_syntax::interned_expr_count() as u64),
                    ),
                ]),
            ),
            ("arena".to_owned(), arena_stats_json(c.engine_recycles)),
        ];
        let mut ops = Vec::new();
        for kind in OPS {
            let h = self.ops.op(kind);
            if h.count() == 0 {
                continue;
            }
            let buckets = h
                .nonzero_buckets()
                .into_iter()
                .map(|(lower, n)| Json::Arr(vec![int(lower), int(n)]))
                .collect();
            ops.push((
                kind.op().to_owned(),
                Json::Obj(vec![
                    ("count".to_owned(), int(h.count())),
                    ("mean_ns".to_owned(), int(h.mean_ns())),
                    ("p50_ns".to_owned(), int(h.quantile(0.50))),
                    ("p99_ns".to_owned(), int(h.quantile(0.99))),
                    ("p999_ns".to_owned(), int(h.quantile(0.999))),
                    ("buckets".to_owned(), Json::Arr(buckets)),
                ]),
            ));
        }
        fields.push(("ops".to_owned(), Json::Obj(ops)));
        // The counter sections render from their tables; only the
        // per-pass / per-rule name maps (with `findings_total`) and the
        // snapshot age are placed by hand.
        let mut analysis = vec![
            (
                "findings".to_owned(),
                Json::Obj(
                    PASS_NAMES
                        .iter()
                        .zip(c.analysis.findings_by_pass)
                        .map(|(pass, n)| ((*pass).to_owned(), int(n)))
                        .collect(),
                ),
            ),
            (
                "findings_total".to_owned(),
                int(c.analysis.findings_total()),
            ),
        ];
        analysis.extend(Json::counter_fields(
            &AnalysisStats::NAMES,
            &c.analysis.values(),
        ));
        fields.push(("analysis".to_owned(), Json::Obj(analysis)));
        let mut optimize = Json::counter_fields(&OptimizeStats::NAMES, &c.optimize.values());
        // `steps` follows `steps_applied`, the total it breaks down.
        optimize.insert(
            2,
            (
                "steps".to_owned(),
                Json::Obj(
                    RULE_METADATA
                        .iter()
                        .zip(c.optimize.steps_by_rule)
                        .map(|(meta, n)| (meta.name.to_owned(), int(n)))
                        .collect(),
                ),
            ),
        );
        fields.push(("optimize".to_owned(), Json::Obj(optimize)));
        let mut snapshot = Json::counter_fields(&SnapshotStats::NAMES, &c.snapshot.values());
        snapshot.push((
            "age_secs".to_owned(),
            c.snapshot
                .loaded_created_unix_secs
                .map_or(Json::Null, |created| {
                    int(crate::snapshot::now_unix_secs().saturating_sub(created))
                }),
        ));
        fields.push(("snapshot".to_owned(), Json::Obj(snapshot)));
        if let Some(serve) = &self.serve {
            let mut section = Json::counter_fields(&ServeCounters::NAMES, &serve.values());
            for (name, column) in [
                ("worker_recycles", &serve.worker_recycles),
                ("worker_queries", &serve.worker_queries),
            ] {
                section.push((
                    name.to_owned(),
                    Json::Arr(column.iter().map(|&n| int(n)).collect()),
                ));
            }
            fields.push(("serve".to_owned(), Json::Obj(section)));
        }
        Json::Obj(fields)
    }
}

/// The process-arena lifecycle figures as a JSON object (the JSON form
/// of the `arena stats:` line).
#[must_use]
pub fn arena_stats_json(engine_recycles: u64) -> Json {
    let int = Json::count;
    Json::Obj(vec![
        (
            "resident_nodes".to_owned(),
            int(nka_syntax::arena_resident_nodes() as u64),
        ),
        (
            "persistent_nodes".to_owned(),
            int(nka_syntax::interned_expr_count() as u64),
        ),
        (
            "scratch_live".to_owned(),
            int(nka_syntax::scratch_live_nodes() as u64),
        ),
        (
            "scratch_retired".to_owned(),
            int(nka_syntax::scratch_retired_total()),
        ),
        (
            "scratch_epochs".to_owned(),
            int(nka_syntax::scratch_epoch()),
        ),
        ("engine_recycles".to_owned(), int(engine_recycles)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block(serve: Option<ServeCounters>) -> StatsBlock {
        let hists = OpHistograms::new();
        hists.record(QueryKind::NkaEq, Duration::from_micros(3));
        hists.record(QueryKind::NkaEq, Duration::from_micros(5));
        hists.record(QueryKind::ProgEq, Duration::from_millis(2));
        StatsBlock {
            counters: SessionCounters {
                engine: DeciderStats {
                    nka_queries: 3,
                    starfree_hits: 1,
                    ..DeciderStats::default()
                },
                expr_nodes: 10,
                expr_subterms: 7,
                engine_recycles: 2,
                ..SessionCounters::default()
            },
            elapsed: Duration::from_secs(1),
            ops: hists.snapshot(),
            serve,
        }
    }

    #[test]
    fn human_rendering_keeps_the_historical_lines_and_adds_latency() {
        let text = sample_block(None).render_human();
        for needle in [
            "engine stats: 3 NKA",
            "fast-path stats: 1 star-free hits",
            "expr stats: 10 tree nodes over 7 distinct subterms",
            "arena stats:",
            "latency stats: 3 queries",
            "  nka_eq: n=2 p50=",
            "  prog_eq: n=1 p50=",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert!(!text.contains("serve stats:"), "no serve section expected");
    }

    #[test]
    fn json_rendering_parses_and_carries_the_contract_fields() {
        let serve = ServeCounters {
            connections_opened: 4,
            worker_recycles: vec![1, 0],
            worker_queries: vec![2, 1],
            ..ServeCounters::default()
        };
        let line = sample_block(Some(serve)).to_json().to_string();
        let value = Json::parse(&line).expect("stats JSON parses");
        let engine = value.get("engine").expect("engine section");
        assert_eq!(engine.get("starfree_hits").and_then(Json::as_i64), Some(1));
        assert!(engine.get("prefix_hits").is_some());
        assert!(engine.get("fastpath_fallbacks").is_some());
        let arena = value.get("arena").expect("arena section");
        assert!(arena.get("resident_nodes").and_then(Json::as_i64).is_some());
        let ops = value.get("ops").expect("ops section");
        let nka = ops.get("nka_eq").expect("nka_eq histogram");
        assert_eq!(nka.get("count").and_then(Json::as_i64), Some(2));
        assert!(nka.get("p999_ns").and_then(Json::as_i64).is_some());
        let buckets = nka.get("buckets").and_then(Json::as_array).unwrap();
        assert!(!buckets.is_empty(), "histogram buckets present");
        let serve = value.get("serve").expect("serve section");
        assert_eq!(
            serve.get("connections_opened").and_then(Json::as_i64),
            Some(4)
        );
        assert_eq!(
            serve
                .get("worker_recycles")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn snapshot_section_is_versioned_and_renders_only_when_active() {
        // No snapshot involvement: no human line, but the JSON contract
        // always carries `v` and the zeroed section.
        let quiet = sample_block(None);
        assert!(!quiet.render_human().contains("snapshot stats:"));
        let value = Json::parse(&quiet.to_json().to_string()).unwrap();
        assert_eq!(value.get("v").and_then(Json::as_i64), Some(WIRE_VERSION));
        let snapshot = value.get("snapshot").expect("snapshot section");
        assert_eq!(
            snapshot.get("restored_entries").and_then(Json::as_i64),
            Some(0)
        );
        assert!(matches!(snapshot.get("age_secs"), Some(Json::Null)));
        // With warm-start activity the human line appears and the JSON
        // reports a numeric age.
        let mut warm = sample_block(None);
        warm.counters.snapshot.restored_entries = 9;
        warm.counters.snapshot.snapshot_hits = 4;
        warm.counters.snapshot.cert_snapshot_hits = 2;
        warm.counters.snapshot.dumps = 1;
        warm.counters.snapshot.loaded_created_unix_secs = Some(crate::snapshot::now_unix_secs());
        let text = warm.render_human();
        assert!(
            text.contains("snapshot stats: 9 entries restored"),
            "{text}"
        );
        assert!(text.contains("4 verdict hits + 2 cert hits"), "{text}");
        let value = Json::parse(&warm.to_json().to_string()).unwrap();
        let snapshot = value.get("snapshot").unwrap();
        assert_eq!(
            snapshot.get("snapshot_hits").and_then(Json::as_i64),
            Some(4)
        );
        assert!(snapshot.get("age_secs").and_then(Json::as_i64).is_some());
    }

    #[test]
    fn qps_is_queries_over_elapsed() {
        let block = sample_block(None);
        assert!((block.qps() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn analysis_section_renders_only_when_nonzero_but_is_always_in_json() {
        // All-zero analyzer counters: no human line (the historical
        // line set is unchanged for non-analyze streams), but the JSON
        // contract always carries the section, reading zero.
        let quiet = sample_block(None);
        assert!(!quiet.render_human().contains("analysis stats:"));
        let value = Json::parse(&quiet.to_json().to_string()).unwrap();
        let analysis = value.get("analysis").expect("analysis section");
        assert_eq!(
            analysis.get("tier_b_decides").and_then(Json::as_i64),
            Some(0)
        );
        assert_eq!(
            analysis.get("findings_total").and_then(Json::as_i64),
            Some(0)
        );
        // Non-zero counters: human line lists only the active passes.
        let mut busy = sample_block(None);
        busy.counters.analysis.tier_b_decides = 4;
        busy.counters.analysis.cert_cache_hits = 1;
        busy.counters.analysis.findings_by_pass[0] = 2; // unused_qubit
        busy.counters.analysis.findings_by_pass[5] = 1; // dead_branch
        let text = busy.render_human();
        assert!(
            text.contains(
                "analysis stats: 3 findings [unused_qubit:2 dead_branch:1], \
                 4 Tier B decides, 1 certificate cache hits"
            ),
            "{text}"
        );
        let value = Json::parse(&busy.to_json().to_string()).unwrap();
        let findings = value.get("analysis").unwrap().get("findings").unwrap();
        assert_eq!(findings.get("dead_branch").and_then(Json::as_i64), Some(1));
        assert_eq!(findings.get("metrics").and_then(Json::as_i64), Some(0));
    }

    #[test]
    fn optimize_section_renders_only_when_nonzero_but_is_always_in_json() {
        // All-zero optimizer counters: no human line, but the JSON
        // contract always carries the section, reading zero.
        let quiet = sample_block(None);
        assert!(!quiet.render_human().contains("optimize stats:"));
        let value = Json::parse(&quiet.to_json().to_string()).unwrap();
        let optimize = value.get("optimize").expect("optimize section");
        assert_eq!(optimize.get("queries").and_then(Json::as_i64), Some(0));
        assert_eq!(
            optimize.get("steps_applied").and_then(Json::as_i64),
            Some(0)
        );
        // Non-zero counters: human line lists only the rules that fired.
        let mut busy = sample_block(None);
        busy.counters.optimize.queries = 2;
        busy.counters.optimize.steps_applied = 3;
        let abort_sink = nka_qprog::optimize::rule_index("abort-sink").unwrap();
        let dead_branch = nka_qprog::optimize::rule_index("dead-branch").unwrap();
        busy.counters.optimize.steps_by_rule[abort_sink] = 2;
        busy.counters.optimize.steps_by_rule[dead_branch] = 1;
        busy.counters.optimize.candidates_refuted = 1;
        busy.counters.optimize.fixpoints = 2;
        busy.counters.optimize.engine_decides = 5;
        busy.counters.optimize.cert_cache_hits = 2;
        let text = busy.render_human();
        assert!(
            text.contains(
                "optimize stats: 2 queries, 3 steps [dead-branch:1 abort-sink:2], \
                 1 refuted, 2 fixpoints, 0 budget bails, 0 cycle breaks, \
                 5 engine decides, 2 certificate cache hits"
            ),
            "{text}"
        );
        let value = Json::parse(&busy.to_json().to_string()).unwrap();
        let steps = value.get("optimize").unwrap().get("steps").unwrap();
        assert_eq!(steps.get("abort-sink").and_then(Json::as_i64), Some(2));
        assert_eq!(steps.get("gate-fusion").and_then(Json::as_i64), Some(0));
    }
}
