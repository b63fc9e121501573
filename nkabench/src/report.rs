//! Run results: the workload's composition, the correctness tally, the
//! end-to-end metrics, and the per-layer metrics of a traced run.

use crate::gen::GenQuery;
use crate::stats::{self, Metrics};
use crate::trace::Layers;
use nka_core::DeciderStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// What a run's generated inputs were made of.
#[derive(Default, Debug)]
pub struct Composition {
    pub queries: u64,
    pub starred: u64,
    /// `(qubits, loops)` → count.
    pub shapes: BTreeMap<(usize, usize), u64>,
    /// op → count.
    pub ops: BTreeMap<&'static str, u64>,
}

impl Composition {
    pub fn record(&mut self, q: &GenQuery) {
        self.queries += 1;
        self.starred += u64::from(q.loops > 0);
        *self.shapes.entry((q.qubits, q.loops)).or_default() += 1;
        *self.ops.entry(q.op()).or_default() += 1;
    }

    pub fn record_op(&mut self, op: &'static str) {
        self.queries += 1;
        *self.ops.entry(op).or_default() += 1;
    }

    /// Star share, qubit/loop histogram and op mix, one line each.
    #[must_use]
    pub fn render(&self) -> String {
        let n = self.queries.max(1) as f64;
        let mut out = format!(
            "  star-containing share: {:.3} ({} of {})\n  qubits×loops:",
            self.starred as f64 / n,
            self.starred,
            self.queries
        );
        for ((qubits, loops), count) in &self.shapes {
            let _ = write!(out, " {qubits}q{loops}l={count}");
        }
        out.push_str("\n  op mix:");
        for (op, count) in &self.ops {
            let _ = write!(out, " {op}={:.3}", *count as f64 / n);
        }
        out.push('\n');
        out
    }
}

/// Everything one run measured and checked.
#[derive(Default, Debug)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Request lines answered wrongly (each fails the run).
    pub wrong: Vec<String>,
    pub semantic_checked: u64,
    pub semantic_mismatches: Vec<(String, String)>,
    pub parity_checked: u64,
    pub parity_mismatches: u64,
    pub composition: Composition,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    /// Extra report lines (the serve run's client and server facts).
    pub notes: Vec<String>,
}

impl RunResult {
    /// No wrong verdict, no semantic mismatch, full replay parity.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.wrong.is_empty() && self.semantic_mismatches.is_empty() && self.parity_mismatches == 0
    }
}

/// The serve-side facts a traced `serve_repeat` run adds.
#[derive(Default, Debug, Clone, Copy)]
pub(crate) struct ServeLayer {
    pub overhead_p50_us: f64,
    pub overhead_p99_us: f64,
    pub refused: f64,
    pub snapshot_load_ms: f64,
    pub restored_entries: f64,
    pub snapshot_hit_share: f64,
    pub lag_p99_ms: f64,
}

/// Inputs of [`layer_metrics`]: the replay's layers plus the session's
/// counter deltas over the same queries.
pub(crate) struct LayerInputs<'a> {
    pub layers: &'a Layers,
    pub queries: u64,
    pub engine: DeciderStats,
    pub cert_hits: u64,
    pub cert_decides: u64,
    pub optimize_queries: u64,
    pub steps_applied: u64,
    pub candidates_refuted: u64,
    pub optimize_decides: u64,
    pub persistent_added: u64,
    pub scratch_retired: u64,
    /// Wall time of the traced iterations (answer + replay).
    pub traced_wall: Duration,
    pub serve: Option<ServeLayer>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Every per-layer metric, in `BENCHMARK.json` order.
#[must_use]
pub(crate) fn layer_metrics(x: &LayerInputs<'_>) -> Metrics {
    let l = x.layers;
    let q = x.queries as f64;
    let per_q = |d: Duration| stats::ratio(ms(d), q);
    let e = &x.engine;
    let untraced = l.wire_decode + l.session_run + l.wire_encode;
    let mut m = Metrics::default();
    m.push("api.wire_decode_ms", "ms/query", per_q(l.wire_decode));
    m.push("api.wire_encode_ms", "ms/query", per_q(l.wire_encode));
    m.push("api.session_run_ms", "ms/query", per_q(l.session_run));
    m.push(
        "syntax.persistent_nodes_added",
        "nodes/query",
        stats::ratio(x.persistent_added as f64, q),
    );
    m.push(
        "syntax.scratch_retired",
        "nodes/query",
        stats::ratio(x.scratch_retired as f64, q),
    );
    m.push("qprog.surface.parse_ms", "ms/query", per_q(l.parse));
    m.push("qprog.encode.encode_ms", "ms/query", per_q(l.encode));
    m.push(
        "qprog.encode.expr_nodes",
        "nodes",
        stats::ratio(l.expr_nodes as f64, l.encodes as f64),
    );
    m.push(
        "wfa.engine.answer_hit_ratio",
        "ratio",
        stats::ratio(e.answer_hits as f64, e.nka_queries as f64),
    );
    m.push(
        "wfa.engine.compile_hit_ratio",
        "ratio",
        stats::ratio(
            e.compile_hits as f64,
            (e.compile_hits + e.compile_misses) as f64,
        ),
    );
    m.push(
        "wfa.engine.dfa_hit_ratio",
        "ratio",
        stats::ratio(e.dfa_hits as f64, (e.dfa_hits + e.dfa_misses) as f64),
    );
    let generic = e
        .nka_queries
        .saturating_sub(e.answer_hits + e.starfree_hits + e.prefix_hits);
    m.push(
        "wfa.engine.generic_decides",
        "count/query",
        stats::ratio(generic as f64, q),
    );
    m.push("wfa.starfree.prefix_ms", "ms/query", per_q(l.prefix));
    m.push("wfa.starfree.multiset_ms", "ms/query", per_q(l.multiset));
    m.push(
        "wfa.starfree.answered_share",
        "ratio",
        stats::ratio(l.starfree_answered as f64, l.starfree_eligible as f64),
    );
    m.push("wfa.thompson.compile_ms", "ms/query", per_q(l.thompson));
    m.push(
        "wfa.thompson.wfa_states",
        "states",
        stats::ratio(l.wfa_states as f64, l.compiles as f64),
    );
    m.push("wfa.nfa.determinize_ms", "ms/query", per_q(l.determinize));
    m.push(
        "wfa.nfa.dfa_states",
        "states",
        stats::ratio(l.dfa_states as f64, l.determinizations as f64),
    );
    m.push("wfa.nfa.equiv_ms", "ms/query", per_q(l.equiv));
    m.push(
        "wfa.nfa.early_refute_share",
        "ratio",
        stats::ratio(l.early_refutes as f64, l.generic_decides as f64),
    );
    m.push(
        "wfa.automaton.difference_ms",
        "ms/query",
        per_q(l.difference),
    );
    m.push(
        "wfa.automaton.diff_states",
        "states",
        stats::ratio(l.diff_states as f64, l.differences as f64),
    );
    m.push("wfa.zeroness.restrict_ms", "ms/query", per_q(l.restrict));
    m.push("wfa.zeroness.basis_ms", "ms/query", per_q(l.basis));
    m.push(
        "wfa.zeroness.product_states",
        "states",
        stats::ratio(l.product_states as f64, l.products as f64),
    );
    m.push(
        "wfa.zeroness.reachable_share",
        "ratio",
        stats::ratio(l.reachable_states as f64, l.product_states as f64),
    );
    m.push(
        "wfa.zeroness.nonzero_cell_share",
        "ratio",
        stats::ratio(l.nonzero_cells as f64, l.cells as f64),
    );
    m.push(
        "qprog.analysis.syntactic_ms",
        "ms/query",
        per_q(l.syntactic),
    );
    m.push(
        "qprog.analysis.semantic_checks_ms",
        "ms/query",
        per_q(l.semantic_checks),
    );
    m.push(
        "qprog.analysis.cert_hit_ratio",
        "ratio",
        stats::ratio(x.cert_hits as f64, (x.cert_hits + x.cert_decides) as f64),
    );
    m.push(
        "qprog.optimize.candidates_ms",
        "ms/query",
        per_q(l.candidates),
    );
    m.push(
        "qprog.optimize.step_yield",
        "ratio",
        stats::ratio(
            x.steps_applied as f64,
            (x.steps_applied + x.candidates_refuted) as f64,
        ),
    );
    m.push(
        "qprog.optimize.decides_per_query",
        "count/query",
        stats::ratio(x.optimize_decides as f64, x.optimize_queries as f64),
    );
    let s = x.serve.unwrap_or_default();
    m.push("serve.overhead_p50_us", "us", s.overhead_p50_us);
    m.push("serve.overhead_p99_us", "us", s.overhead_p99_us);
    m.push("serve.refused", "count", s.refused);
    m.push("snapshot.load_ms", "ms", s.snapshot_load_ms);
    m.push("snapshot.restored_entries", "count", s.restored_entries);
    m.push("snapshot.hit_share", "ratio", s.snapshot_hit_share);
    m.push("client.lag_p99_ms", "ms", s.lag_p99_ms);
    let layer_total = l.layer_time();
    m.push(
        "trace.coverage",
        "ratio",
        stats::ratio(ms(layer_total), ms(l.session_run)),
    );
    m.push(
        "trace.overhead_ratio",
        "ratio",
        stats::ratio(ms(x.traced_wall), ms(untraced)),
    );
    m.push(
        "trace.zeroness_share",
        "ratio",
        stats::ratio(ms(l.restrict + l.basis), ms(layer_total)),
    );
    m.push(
        "trace.generic_share",
        "ratio",
        stats::ratio(ms(l.generic_time()), ms(layer_total)),
    );
    m.push(
        "trace.parity_share",
        "ratio",
        stats::ratio(
            (l.parity_checked - l.parity_mismatches) as f64,
            l.parity_checked as f64,
        ),
    );
    m
}

/// Each layer's share of the traced layer time, largest first.
#[must_use]
pub(crate) fn layer_shares(l: &Layers) -> String {
    let total = ms(l.layer_time());
    let mut rows = [
        ("qprog.surface", l.parse),
        ("qprog.encode", l.encode),
        ("wfa.starfree", l.prefix + l.multiset),
        ("wfa.thompson", l.thompson),
        ("wfa.nfa", l.determinize + l.equiv),
        ("wfa.automaton", l.difference),
        ("wfa.zeroness", l.restrict + l.basis),
        ("qprog.analysis", l.syntactic + l.semantic_checks),
        ("qprog.optimize", l.candidates),
    ];
    rows.sort_by_key(|row| std::cmp::Reverse(row.1));
    let mut out = String::from("  layer shares of traced time:");
    for (name, d) in rows {
        let _ = write!(out, " {name}={:.3}", stats::ratio(ms(d), total));
    }
    out
}
