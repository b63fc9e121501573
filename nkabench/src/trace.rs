//! The traced run: replays each query's work through the public
//! functions of every pipeline layer, in the engine's order, timing
//! each call from the benchmark's own code and recording sizes.
//!
//! `prog_eq` follows the decider: surface parse → `Enc` → star-free
//! tiers (prefix normalization, word multisets) → Thompson +
//! ε-elimination → ∞-support determinization over the shared alphabet →
//! DFA equivalence → rational part and difference → complement →
//! `restrict_to_language` → forward-basis zeroness. `analyze` and
//! `optimize` time the analyzer's and optimizer's own entry points and
//! replay every certification decide the same way. Every replayed
//! verdict is compared with the `Session`'s.

use crate::inproc::Answer;
use nka_core::api::json::Json;
use nka_core::api::DEFAULT_OPTIMIZE_MAX_STEPS;
use nka_core::{DecideOptions, DeciderStats, Verdict};
use nka_qprog::analysis;
use nka_qprog::optimize::{self, RuleSet};
use nka_qprog::{EncoderSetting, SurfaceProgram};
use nka_semiring::BigRational;
use nka_syntax::{Expr, ExprId, ScratchScope, Symbol};
use nka_wfa::starfree::{self, PrefixOutcome};
use nka_wfa::zeroness::{is_zero_series, restrict_to_language};
use nka_wfa::{thompson, Wfa};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Busy time and sizes accumulated per layer over a traced run.
#[derive(Default, Debug, Clone)]
pub(crate) struct Layers {
    pub wire_decode: Duration,
    pub session_run: Duration,
    pub wire_encode: Duration,
    pub parse: Duration,
    pub encode: Duration,
    pub expr_nodes: u64,
    pub encodes: u64,
    pub prefix: Duration,
    pub multiset: Duration,
    pub starfree_eligible: u64,
    pub starfree_answered: u64,
    pub thompson: Duration,
    pub wfa_states: u64,
    pub compiles: u64,
    pub determinize: Duration,
    pub dfa_states: u64,
    pub determinizations: u64,
    pub equiv: Duration,
    pub generic_decides: u64,
    pub early_refutes: u64,
    pub difference: Duration,
    pub diff_states: u64,
    pub differences: u64,
    pub restrict: Duration,
    pub basis: Duration,
    pub product_states: u64,
    pub reachable_states: u64,
    pub nonzero_cells: u64,
    pub cells: u64,
    pub products: u64,
    pub syntactic: Duration,
    pub semantic_checks: Duration,
    pub candidates: Duration,
    /// Replayed verdicts compared with the session, and mismatches.
    pub parity_checked: u64,
    pub parity_mismatches: u64,
}

impl Layers {
    /// Time spent inside the replayed layers (everything but the API
    /// boundary spans).
    #[must_use]
    pub(crate) fn layer_time(&self) -> Duration {
        self.parse
            + self.encode
            + self.prefix
            + self.multiset
            + self.thompson
            + self.determinize
            + self.equiv
            + self.difference
            + self.restrict
            + self.basis
            + self.syntactic
            + self.semantic_checks
            + self.candidates
    }

    /// Time spent in the generic automaton pipeline.
    #[must_use]
    pub(crate) fn generic_time(&self) -> Duration {
        self.thompson + self.determinize + self.equiv + self.difference + self.restrict + self.basis
    }
}

fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed();
    out
}

/// Reachable states of `wfa` from its initial vector, and its non-zero
/// transition cells — measured outside every timed span.
fn product_shape(wfa: &Wfa<BigRational>) -> (u64, u64, u64) {
    let n = wfa.state_count();
    let symbols: Vec<Symbol> = wfa.symbols().collect();
    let mut nonzero = 0u64;
    let mut rows: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &sym in &symbols {
        let m = wfa.transition(sym).expect("listed symbol has a matrix");
        for (i, row) in rows.iter_mut().enumerate() {
            for j in 0..n {
                if !m[(i, j)].is_zero() {
                    nonzero += 1;
                    row.push(j);
                }
            }
        }
    }
    let mut seen = vec![false; n];
    let mut stack: Vec<usize> = (0..n).filter(|&i| !wfa.initial()[i].is_zero()).collect();
    for &i in &stack {
        seen[i] = true;
    }
    let mut reachable = stack.len() as u64;
    while let Some(i) = stack.pop() {
        for &j in &rows[i] {
            if !seen[j] {
                seen[j] = true;
                reachable += 1;
                stack.push(j);
            }
        }
    }
    let cells = (n as u64) * (n as u64) * symbols.len() as u64;
    (reachable, nonzero, cells)
}

/// Replays queries layer by layer under the session's decide options.
pub(crate) struct Replayer {
    pub layers: Layers,
    opts: DecideOptions,
    certs: HashMap<(String, String), bool>,
}

impl Replayer {
    #[must_use]
    pub(crate) fn new(opts: DecideOptions) -> Replayer {
        Replayer {
            layers: Layers::default(),
            opts,
            certs: HashMap::new(),
        }
    }

    fn parse(&mut self, src: &str) -> Option<SurfaceProgram> {
        timed(&mut self.layers.parse, || SurfaceProgram::parse(src)).ok()
    }

    fn encode(&mut self, setting: &mut EncoderSetting, p: &SurfaceProgram) -> Option<Expr> {
        let e = timed(&mut self.layers.encode, || setting.encode(p.program())).ok()?;
        self.layers.expr_nodes += e.size() as u64;
        self.layers.encodes += 1;
        Some(e)
    }

    /// `prog_eq(p, q)`: `Some(verdict)`, or `None` when a budget ran
    /// out (the session then answers `BudgetExhausted`).
    fn prog_eq(&mut self, p: &str, q: &str) -> Option<bool> {
        self.prog_eq_traced(p, q, true)
    }

    /// [`Replayer::prog_eq`], stopping after `Enc` when the session
    /// answered from its verdict cache (`decide` false).
    fn prog_eq_traced(&mut self, p: &str, q: &str, decide: bool) -> Option<bool> {
        let _scope = ScratchScope::enter();
        let p = self.parse(p)?;
        let q = self.parse(q)?;
        let mut setting = EncoderSetting::new(p.dim());
        let ep = self.encode(&mut setting, &p)?;
        let eq = self.encode(&mut setting, &q)?;
        if decide {
            self.decide(&ep, &eq)
        } else {
            None
        }
    }

    /// A certification decide through the replayer's own certificate
    /// cache, which persists across queries like the session's.
    fn cert_decide(&mut self, p: &str, q: &str) -> bool {
        let key = (p.to_owned(), q.to_owned());
        if let Some(&hit) = self.certs.get(&key) {
            return hit;
        }
        let holds = self.prog_eq(p, q).unwrap_or(false);
        self.certs.insert(key, holds);
        holds
    }

    /// The decider's tiers, in its order.
    fn decide(&mut self, e: &Expr, f: &Expr) -> Option<bool> {
        let max_words = self.opts.starfree_max_words;
        if max_words > 0 && e.star_height() == 0 && f.star_height() == 0 {
            self.layers.starfree_eligible += 1;
            let outcome = timed(&mut self.layers.prefix, || starfree::prefix_normalize(e, f));
            match outcome {
                PrefixOutcome::Decided(verdict) => {
                    self.layers.starfree_answered += 1;
                    return Some(verdict);
                }
                PrefixOutcome::Residual(re, rf) => {
                    let answer = timed(&mut self.layers.multiset, || {
                        let mut memo = HashMap::new();
                        let mut inserts = 0;
                        let left = starfree::eval_product(&re, &mut memo, max_words, &mut inserts)?;
                        let right =
                            starfree::eval_product(&rf, &mut memo, max_words, &mut inserts)?;
                        Some(left == right)
                    });
                    if answer.is_some() {
                        self.layers.starfree_answered += 1;
                        return answer;
                    }
                }
            }
        }
        self.generic(e, f)
    }

    fn generic(&mut self, e: &Expr, f: &Expr) -> Option<bool> {
        let l = &mut self.layers;
        l.generic_decides += 1;
        let mut atoms = e.atoms();
        atoms.extend(f.atoms());
        let alphabet: Vec<Symbol> = atoms.into_iter().collect();
        let (we, wf) = timed(&mut l.thompson, || {
            (
                thompson(e).eliminate_epsilon(),
                thompson(f).eliminate_epsilon(),
            )
        });
        l.compiles += 2;
        l.wfa_states += (we.state_count() + wf.state_count()) as u64;
        let max = self.opts.max_dfa_states;
        let (de, df) = timed(&mut l.determinize, || {
            let de = we.infinity_support().determinize(&alphabet, max).ok()?;
            let df = wf.infinity_support().determinize(&alphabet, max).ok()?;
            Some((de, df))
        })?;
        l.determinizations += 2;
        l.dfa_states += (de.state_count() + df.state_count()) as u64;
        if !timed(&mut l.equiv, || de.equivalent(&df)) {
            l.early_refutes += 1;
            return Some(false);
        }
        let diff = timed(&mut l.difference, || {
            we.rational_part()
                .difference(&wf.rational_part(), |w| -w.clone())
        });
        l.differences += 1;
        l.diff_states += diff.state_count() as u64;
        let restricted = timed(&mut l.restrict, || {
            restrict_to_language(&diff, &de.complement())
        });
        let (reachable, nonzero, cells) = product_shape(&restricted);
        l.products += 1;
        l.product_states += restricted.state_count() as u64;
        l.reachable_states += reachable;
        l.nonzero_cells += nonzero;
        l.cells += cells;
        Some(timed(&mut l.basis, || is_zero_series(&restricted)))
    }

    /// The analyzer: Tier A walk, Tier B check generation, then every
    /// check's certification decide. Returns how many checks hold.
    fn analyze(&mut self, src: &str) -> Option<usize> {
        let prog = self.parse(src)?;
        timed(&mut self.layers.syntactic, || {
            analysis::syntactic_findings(&prog, &[])
        });
        let checks = timed(&mut self.layers.semantic_checks, || {
            analysis::semantic_checks(&prog, &[])
        });
        Some(
            checks
                .iter()
                .filter(|check| self.cert_decide(&check.p, &check.q))
                .count(),
        )
    }

    /// The optimizer's greedy loop (beam 1, default catalog and step
    /// budget): candidates, seen-set, one certification decide per
    /// candidate, then the final certificate. Returns the output source.
    fn optimize(&mut self, src: &str, max_steps: usize) -> Option<String> {
        let input = self.parse(src)?;
        let rules = RuleSet::from_names(&[]).ok()?;
        let scope = ScratchScope::enter();
        let mut setting = EncoderSetting::new(input.dim());
        let mut seen: HashSet<ExprId> = HashSet::new();
        seen.insert(self.encode(&mut setting, &input)?.id());
        let mut current = input.clone();
        for _ in 0..max_steps {
            let cands = timed(&mut self.layers.candidates, || {
                optimize::candidates(&current, &rules)
            });
            let mut next = None;
            for cand in cands {
                let Some(parsed) = self.parse(&cand.rewritten) else {
                    continue;
                };
                let Some(enc) = self.encode(&mut setting, &parsed) else {
                    continue;
                };
                if seen.contains(&enc.id()) {
                    continue;
                }
                if self.cert_decide(current.source(), &cand.rewritten) {
                    next = Some((parsed, enc.id()));
                    break;
                }
            }
            let Some((parsed, id)) = next else {
                break;
            };
            seen.insert(id);
            current = parsed;
        }
        drop(scope);
        let out = current.source().to_owned();
        if self.cert_decide(src, &out) {
            Some(out)
        } else {
            Some(src.to_owned())
        }
    }

    /// Records one answered request line: its API spans, then a replay
    /// of its work through the layers with a verdict-parity check.
    /// Lines the replay does not model (other ops, rule or pass
    /// filters, beams) contribute their API spans only.
    pub(crate) fn record(&mut self, line: &str, ans: &Answer) {
        self.layers.wire_decode += ans.decode;
        self.layers.session_run += ans.run;
        self.layers.wire_encode += ans.encode;
        let Some(resp) = &ans.response else {
            return;
        };
        let Ok(value) = Json::parse(line.trim()) else {
            return;
        };
        let field = |key: &str| {
            value
                .get(key)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned()
        };
        match &resp.verdict {
            Verdict::ProgEq { holds, .. } => {
                let decide = !answered_from_cache(&resp.stats_delta);
                let got = self.prog_eq_traced(&field("p"), &field("q"), decide);
                if decide {
                    self.parity(got == Some(*holds));
                }
            }
            // Certificates the session took from its cache are not
            // decided again: only the entry points are timed.
            Verdict::Analysis { .. } | Verdict::Optimized { .. } if ans.cert_decides == 0 => {
                let Some(prog) = self.parse(&field("prog")) else {
                    return;
                };
                if matches!(resp.verdict, Verdict::Analysis { .. }) {
                    timed(&mut self.layers.syntactic, || {
                        analysis::syntactic_findings(&prog, &[])
                    });
                    timed(&mut self.layers.semantic_checks, || {
                        analysis::semantic_checks(&prog, &[])
                    });
                } else if let Ok(rules) = RuleSet::from_names(&[]) {
                    timed(&mut self.layers.candidates, || {
                        optimize::candidates(&prog, &rules)
                    });
                }
            }
            Verdict::Analysis { findings } if value.get("passes").is_none() => {
                let certified = findings.iter().filter(|f| f.certificate.is_some()).count();
                let got = self.analyze(&field("prog"));
                self.parity(got == Some(certified));
            }
            Verdict::Optimized { optimized, .. }
                if value.get("rules").is_none() && value.get("beam").is_none() =>
            {
                let max_steps = value
                    .get("max_steps")
                    .and_then(Json::as_i64)
                    .and_then(|n| usize::try_from(n).ok())
                    .unwrap_or(DEFAULT_OPTIMIZE_MAX_STEPS);
                let got = self.optimize(&field("prog"), max_steps);
                self.parity(got.as_deref() == Some(optimized.as_str()));
            }
            _ => {}
        }
    }

    /// Records one verdict comparison against the session.
    fn parity(&mut self, agrees: bool) {
        self.layers.parity_checked += 1;
        if !agrees {
            self.layers.parity_mismatches += 1;
        }
    }
}

/// Whether the session answered a query straight from a verdict or
/// certificate cache (so the engine's order ends at the cache probe).
#[must_use]
fn answered_from_cache(delta: &DeciderStats) -> bool {
    delta.nka_queries > 0
        && delta.answer_hits == delta.nka_queries
        && delta.starfree_hits == 0
        && delta.prefix_hits == 0
}
