//! The generated inputs depend on the seed alone.

use nkabench::gen::{Expect, Mix, QueryStream};

fn lines(mix: Mix, seed: u64, n: usize) -> Vec<String> {
    QueryStream::new(mix, seed, 1)
        .take(n)
        .map(|q| q.line)
        .collect()
}

#[test]
fn same_seed_gives_byte_identical_inputs() {
    for mix in [Mix::LoopFree, Mix::Looped] {
        assert_eq!(lines(mix, 7, 100), lines(mix, 7, 100), "{mix:?}");
    }
}

#[test]
fn different_seeds_give_different_inputs() {
    for mix in [Mix::LoopFree, Mix::Looped] {
        let a = lines(mix, 7, 100);
        let b = lines(mix, 8, 100);
        assert!(
            a.iter().zip(&b).filter(|(x, y)| x != y).count() > 90,
            "{mix:?}"
        );
    }
}

#[test]
fn streams_hold_distinct_queries_in_the_stated_mix() {
    let loopfree: Vec<_> = QueryStream::new(Mix::LoopFree, 3, 1).take(80).collect();
    assert!(loopfree.iter().all(|q| q.loops == 0));
    let prog_eq = loopfree.iter().filter(|q| q.op() == "prog_eq").count();
    assert_eq!(prog_eq, 56);
    let refuted = loopfree
        .iter()
        .filter(|q| q.expect == Expect::Refuted)
        .count();
    assert_eq!(refuted, 28);

    let looped: Vec<_> = QueryStream::new(Mix::Looped, 3, 1).take(48).collect();
    assert!(looped.iter().all(|q| q.loops > 0));
    assert_eq!(looped.iter().filter(|q| q.op() == "optimize").count(), 12);
    let mut distinct: Vec<&str> = looped.iter().map(|q| q.line.as_str()).collect();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), looped.len());
}

#[test]
fn long_streams_never_run_out_of_distinct_queries() {
    // Twenty blocks: far more than one run measures.
    assert_eq!(
        QueryStream::new(Mix::Looped, 22, 1).take(48 * 20).count(),
        960
    );
    assert_eq!(
        QueryStream::new(Mix::LoopFree, 22, 1).take(80 * 20).count(),
        1600
    );
}
