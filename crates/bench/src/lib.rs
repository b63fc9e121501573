//! Shared helpers for the benchmark harness.
//!
//! Each bench target regenerates one experiment of `EXPERIMENTS.md`
//! (which in turn indexes every figure of the paper — the paper is a
//! theory paper, so its "figures" are axiom sets, derivable formulae,
//! program pairs, and proof systems rather than measurement plots; the
//! benches measure the cost of *checking* each of them plus the scaling
//! claims of Section 1).

use nka_syntax::{random_expr, Expr, ExprGenConfig, Symbol};
use nka_wfa::thompson;
use nka_wfa::zeroness::{is_zero_series_f64, restrict_to_language};

/// Deterministic pseudo-random expressions over `{a, b}` of roughly
/// `size` nodes.
pub fn random_exprs(count: usize, size: usize, seed: u64) -> Vec<Expr> {
    let alphabet = vec![Symbol::intern("a"), Symbol::intern("b")];
    let config = ExprGenConfig::new(alphabet).with_target_size(size);
    let mut state = seed;
    (0..count)
        .map(|_| random_expr(&config, &mut state))
        .collect()
}

/// `⊢NKA e = f` by the generic pipeline's public layers — Thompson +
/// ε-elimination, ∞-support determinization and equivalence, the
/// rational difference restricted to the complement of the ∞-support —
/// but with the **unsound** `f64` zeroness check
/// ([`is_zero_series_f64`], tolerance `1e-9`) as the last step. This is
/// the float ablation of the `decide_scaling` bench; the engine itself
/// only ever decides exactly. `None` if a subset construction exceeds
/// `max_dfa_states`.
#[must_use]
pub fn decide_f64_ablation(e: &Expr, f: &Expr, max_dfa_states: usize) -> Option<bool> {
    let mut atoms = e.atoms();
    atoms.extend(f.atoms());
    let alphabet: Vec<Symbol> = atoms.into_iter().collect();
    let we = thompson(e).eliminate_epsilon();
    let wf = thompson(f).eliminate_epsilon();
    let de = we
        .infinity_support()
        .determinize(&alphabet, max_dfa_states)
        .ok()?;
    let df = wf
        .infinity_support()
        .determinize(&alphabet, max_dfa_states)
        .ok()?;
    if !de.equivalent(&df) {
        return Some(false);
    }
    let diff = we
        .rational_part()
        .difference(&wf.rational_part(), |w| -w.clone());
    let restricted = restrict_to_language(&diff, &de.complement());
    Some(is_zero_series_f64(&restricted, 1e-9))
}

/// The equations of Figure 2a/2b as parse-ready strings.
pub fn figure2_equations() -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        ("fixed-point-right", "1 + p p*", "p*"),
        ("fixed-point-left", "1 + p* p", "p*"),
        ("product-star", "1 + p (q p)* q", "(p q)*"),
        ("sliding", "(p q)* p", "p (q p)*"),
        ("denesting-left", "(p + q)*", "(p* q)* p*"),
        ("denesting-right", "(p + q)*", "p* (q p*)*"),
        ("unrolling", "(p p)* (1 + p)", "p*"),
    ]
}

/// The shared Criterion configuration for every bench target: small
/// sample count and short windows so the full `cargo bench --workspace`
/// run finishes in minutes on a laptop-class machine. Shapes (who wins,
/// growth rates, crossovers) are unaffected; absolute noise floors rise.
#[must_use]
pub fn criterion_config() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200))
        .configure_from_args()
}
