//! Seeded query generators whose answers are known by construction.
//!
//! Programs are drawn as recipe ASTs ([`Prog`]/[`Stmt`]) and rendered to
//! the surface language; the engine only ever sees the rendered wire
//! lines. Every `prog_eq` pair is built so its verdict is known without
//! asking the engine:
//!
//! * **Equal pairs** apply NKA-preserving rewrites to a base program:
//!   `skip` insertion (`1·e = e`), distributing the statements after an
//!   `if` into both branches (`(m₀B + m₁A)·C = m₀BC + m₁AC`), unrolling
//!   a `while` once (`e* = 1 + e·e*`), and padding behind an `abort`
//!   (`0·e = 0`).
//! * **Refuted pairs** insert a `skip` and one extra gate at a top-level
//!   position of one side. Writing `minlen(S)` for the
//!   length of the shortest word in the support of a non-zero series
//!   `S` over `N̄` (no zero divisors, no cancellation), `minlen` is
//!   additive over products, so `S_X·g·S_Y` and `S_X·S_Y` differ as soon
//!   as `Enc(p) ≠ 0`. [`Prog::is_zero`] decides that syntactically
//!   (only `abort` encodes to `0`; a star never does), and zero
//!   programs are redrawn.
//!
//! Loops use the terminating shape of the test-suite generator: the
//! body never touches its guard qubit except for a final `h`
//! mixer, so the superoperator semantics used by the correctness gate
//! converge quickly.

/// One-qubit gates the generator draws from.
pub const GATES1: [&str; 6] = ["h", "x", "y", "z", "s", "t"];
/// Two-qubit gates the generator draws from.
pub const GATES2: [&str; 3] = ["cnot", "cz", "swap"];

/// A small deterministic generator (SplitMix64): the benchmark's inputs
/// depend on the seed alone, never on the platform or the run.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` in the named `stream`, so that workloads
    /// sharing one seed draw independent sequences.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `percent`/100.
    pub fn percent(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// A recipe statement; renders 1:1 to the surface language.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stmt {
    Skip,
    Abort,
    Init(usize),
    Gate1(&'static str, usize),
    Gate2(&'static str, usize, usize),
    If(usize, Vec<Stmt>, Vec<Stmt>),
    While(usize, Vec<Stmt>),
}

/// A recipe program: qubit count plus top-level statements.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Prog {
    pub qubits: usize,
    pub body: Vec<Stmt>,
}

fn render_seq(stmts: &[Stmt], out: &mut String) {
    if stmts.is_empty() {
        out.push_str("skip");
    }
    for (i, s) in stmts.iter().enumerate() {
        if i > 0 {
            out.push_str("; ");
        }
        match s {
            Stmt::Skip => out.push_str("skip"),
            Stmt::Abort => out.push_str("abort"),
            Stmt::Init(q) => out.push_str(&format!("init q{q}")),
            Stmt::Gate1(g, q) => out.push_str(&format!("{g} q{q}")),
            Stmt::Gate2(g, a, b) => out.push_str(&format!("{g} q{a} q{b}")),
            Stmt::If(q, then_b, else_b) => {
                out.push_str(&format!("if q{q} {{ "));
                render_seq(then_b, out);
                out.push_str(" } else { ");
                render_seq(else_b, out);
                out.push_str(" }");
            }
            Stmt::While(q, body) => {
                out.push_str(&format!("while q{q} {{ "));
                render_seq(body, out);
                out.push_str(" }");
            }
        }
    }
}

fn seq_is_zero(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Abort => true,
        Stmt::If(_, t, e) => seq_is_zero(t) && seq_is_zero(e),
        _ => false,
    })
}

fn count(stmts: &[Stmt], f: &impl Fn(&Stmt) -> usize) -> usize {
    stmts
        .iter()
        .map(|s| {
            f(s) + match s {
                Stmt::If(_, t, e) => count(t, f) + count(e, f),
                Stmt::While(_, b) => count(b, f),
                _ => 0,
            }
        })
        .sum()
}

impl Prog {
    /// The surface-language source.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("qubits {}; ", self.qubits);
        render_seq(&self.body, &mut out);
        out
    }

    /// Whether `Enc(self)` is the zero series: a sequence is zero iff a
    /// statement in it is, an `if` iff both branches are, and only
    /// `abort` is zero on its own (a `while` always contains `m₀`).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        seq_is_zero(&self.body)
    }

    /// Number of `while` loops.
    #[must_use]
    pub fn loops(&self) -> usize {
        count(&self.body, &|s| usize::from(matches!(s, Stmt::While(..))))
    }

    /// Number of statements, nested ones included.
    #[must_use]
    pub fn size(&self) -> usize {
        count(&self.body, &|_| 1)
    }

    /// Number of gate statements.
    #[must_use]
    pub fn gates(&self) -> usize {
        count(&self.body, &|s| {
            usize::from(matches!(s, Stmt::Gate1(..) | Stmt::Gate2(..)))
        })
    }
}

/// What the generator knows about a query's answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// `prog_eq` that holds by construction.
    Holds,
    /// `prog_eq` refuted by construction.
    Refuted,
    /// `analyze`: every finding certificate must replay semantically.
    Analysis,
    /// `optimize`: the output must denote the input's superoperator.
    Optimized,
}

/// One generated request line plus its construction-known facts.
#[derive(Clone, Debug)]
pub struct GenQuery {
    /// The wire request line the program receives.
    pub line: String,
    pub expect: Expect,
    pub qubits: usize,
    pub loops: usize,
}

impl GenQuery {
    /// The wire `op` of the line.
    #[must_use]
    pub fn op(&self) -> &'static str {
        match self.expect {
            Expect::Holds | Expect::Refuted => "prog_eq",
            Expect::Analysis => "analyze",
            Expect::Optimized => "optimize",
        }
    }
}

fn free_qubit(rng: &mut Rng, qubits: usize, forbidden: &[usize]) -> Option<usize> {
    let allowed: Vec<usize> = (0..qubits).filter(|q| !forbidden.contains(q)).collect();
    (!allowed.is_empty()).then(|| allowed[rng.below(allowed.len())])
}

fn gate1(rng: &mut Rng, q: usize) -> Stmt {
    Stmt::Gate1(GATES1[rng.below(GATES1.len())], q)
}

/// One straight-line statement (no control flow) avoiding `forbidden`.
fn simple_stmt(rng: &mut Rng, qubits: usize, forbidden: &[usize]) -> Stmt {
    let Some(a) = free_qubit(rng, qubits, forbidden) else {
        return Stmt::Skip;
    };
    match rng.below(100) {
        0..=2 => Stmt::Skip,
        3..=5 => Stmt::Init(a),
        6..=27 => match free_qubit(rng, qubits, &[forbidden, &[a]].concat()) {
            Some(b) => Stmt::Gate2(GATES2[rng.below(GATES2.len())], a, b),
            None => gate1(rng, a),
        },
        _ => gate1(rng, a),
    }
}

/// A loop-free program over `qubits` qubits: `gates` gate statements
/// (plus the occasional `skip`/`init`) with `ifs` two-armed branches
/// at seeded positions; an `else` arm aborts now and then.
#[must_use]
pub fn loopfree_prog(rng: &mut Rng, qubits: usize, gates: usize, ifs: usize) -> Prog {
    let mut prog = Prog {
        qubits,
        body: Vec::new(),
    };
    while prog.gates() < gates {
        prog.body.push(simple_stmt(rng, qubits, &[]));
    }
    for _ in 0..ifs {
        let q = rng.below(qubits);
        let then_b = vec![simple_stmt(rng, qubits, &[]), simple_stmt(rng, qubits, &[])];
        let mut else_b = vec![simple_stmt(rng, qubits, &[])];
        if rng.percent(8) {
            else_b.push(Stmt::Abort);
        }
        let at = rng.below(prog.body.len() + 1);
        prog.body.insert(at, Stmt::If(q, then_b, else_b));
    }
    prog
}

/// A one-qubit gate on a random qubit other than `avoid`, or `None`
/// with a single qubit.
fn gate1_avoiding(rng: &mut Rng, qubits: usize, avoid: usize) -> Option<Stmt> {
    free_qubit(rng, qubits, &[avoid]).map(|q| plain_gate(rng, q))
}

/// A one-qubit gate other than the loop mixer `h`, so that how many
/// symbols a looped shape uses does not depend on the seed.
fn plain_gate(rng: &mut Rng, q: usize) -> Stmt {
    Stmt::Gate1(GATES1[1 + rng.below(GATES1.len() - 1)], q)
}

/// A terminating loop on `guard`: `extra` one-qubit gates on other
/// qubits, then the mixer `h` on the guard.
fn simple_loop(rng: &mut Rng, qubits: usize, guard: usize, extra: usize) -> Stmt {
    let mut body: Vec<Stmt> = (0..extra)
        .filter_map(|_| gate1_avoiding(rng, qubits, guard))
        .collect();
    body.push(Stmt::Gate1("h", guard));
    Stmt::While(guard, body)
}

/// A star-containing program over `qubits` qubits with exactly `loops`
/// `while` loops. Its structure depends only on the arguments, its
/// gates and qubits on the seed: two leading gates on a single qubit;
/// when `abort_arm`, a two-armed branch whose `then` arm ends in
/// `abort`; then the loops, the first two nested when `nest` and there
/// are two qubits to guard them. Loop bodies avoid their guard qubit and
/// end with the mixer `h` on it (terminating shape); a lone loop also
/// gets one more gate. Guards take consecutive qubits from a seeded
/// start, so a shape class always measures as many distinct qubits.
#[must_use]
pub fn looped_prog(
    rng: &mut Rng,
    qubits: usize,
    loops: usize,
    nest: bool,
    abort_arm: bool,
) -> Prog {
    // On one qubit little else varies: two leading gates keep the
    // class's queries distinct over many blocks.
    let mut body: Vec<Stmt> = (0..if qubits == 1 { 2 } else { 0 })
        .map(|_| plain_gate(rng, 0))
        .collect();
    if abort_arm {
        let q = rng.below(qubits);
        let then_b = vec![plain_gate(rng, q), Stmt::Abort];
        let other = rng.below(qubits);
        body.push(Stmt::If(q, then_b, vec![plain_gate(rng, other)]));
    }
    let start = rng.below(qubits);
    let mut guards = (0..loops).map(|i| (start + i) % qubits);
    let extra = usize::from(loops == 1);
    let mut left = loops;
    if nest && qubits >= 2 && loops >= 2 {
        let outer = guards.next().expect("two loops");
        let inner_guard = guards.next().expect("two loops");
        let inner = simple_loop(rng, qubits, inner_guard, 0);
        body.push(Stmt::While(outer, vec![inner, Stmt::Gate1("h", outer)]));
        left -= 2;
    }
    for guard in guards.take(left) {
        body.push(simple_loop(rng, qubits, guard, extra));
    }
    Prog { qubits, body }
}

/// Inserts `skip` at a random position of a random block (`1·e = e`).
fn insert_skip(rng: &mut Rng, body: &mut Vec<Stmt>) {
    let mut path = Vec::new();
    choose_block(rng, body, &mut path);
    let block = block_at(body, &path);
    let at = rng.below(block.len() + 1);
    block.insert(at, Stmt::Skip);
}

/// Picks a random block as a path of (statement index, arm) steps.
fn choose_block(rng: &mut Rng, stmts: &[Stmt], path: &mut Vec<(usize, usize)>) {
    let nested: Vec<(usize, usize)> = stmts
        .iter()
        .enumerate()
        .flat_map(|(i, s)| match s {
            Stmt::If(..) => vec![(i, 0), (i, 1)],
            Stmt::While(..) => vec![(i, 0)],
            _ => vec![],
        })
        .collect();
    if nested.is_empty() || rng.percent(50) {
        return;
    }
    let (i, arm) = nested[rng.below(nested.len())];
    path.push((i, arm));
    choose_block(rng, arm_of(&stmts[i], arm), path);
}

fn arm_of(s: &Stmt, arm: usize) -> &Vec<Stmt> {
    match s {
        Stmt::If(_, t, _) if arm == 0 => t,
        Stmt::If(_, _, e) => e,
        Stmt::While(_, body) => body,
        _ => unreachable!("only blocks are recorded"),
    }
}

fn block_at<'a>(stmts: &'a mut Vec<Stmt>, path: &[(usize, usize)]) -> &'a mut Vec<Stmt> {
    let Some(&(i, arm)) = path.first() else {
        return stmts;
    };
    let inner = match &mut stmts[i] {
        Stmt::If(_, t, _) if arm == 0 => t,
        Stmt::If(_, _, e) => e,
        Stmt::While(_, body) => body,
        _ => unreachable!("only blocks are recorded"),
    };
    block_at(inner, &path[1..])
}

/// Paths of every block that directly holds an `abort`.
fn abort_blocks(
    stmts: &[Stmt],
    path: &mut Vec<(usize, usize)>,
    out: &mut Vec<Vec<(usize, usize)>>,
) {
    if stmts.iter().any(|s| matches!(s, Stmt::Abort)) {
        out.push(path.clone());
    }
    for (i, s) in stmts.iter().enumerate() {
        let arms = match s {
            Stmt::If(..) => 2,
            Stmt::While(..) => 1,
            _ => continue,
        };
        for arm in 0..arms {
            path.push((i, arm));
            abort_blocks(arm_of(s, arm), path, out);
            path.pop();
        }
    }
}

/// The NKA-preserving rewrites a pair is built with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rewrite {
    /// `1·e = e`: insert `skip` somewhere.
    Skip,
    /// `(m₀B + m₁A)·C = m₀BC + m₁AC`: move the statement after a
    /// top-level `if` into both arms.
    Distribute,
    /// `e* = 1 + e·e*`: unroll a top-level `while` once.
    Unroll,
    /// `0·e = 0`: pad behind an `abort`.
    AbortPad,
}

/// Applies `rw` to `prog`; a rewrite whose site is missing falls back
/// to [`Rewrite::Skip`].
pub fn rewrite(rng: &mut Rng, prog: &mut Prog, rw: Rewrite) {
    let qubits = prog.qubits;
    let body = &mut prog.body;
    match rw {
        Rewrite::Skip => insert_skip(rng, body),
        Rewrite::Distribute => {
            let ifs: Vec<usize> = (0..body.len())
                .filter(|&i| matches!(body[i], Stmt::If(..)) && i + 1 < body.len())
                .collect();
            if ifs.is_empty() {
                return insert_skip(rng, body);
            }
            let i = ifs[rng.below(ifs.len())];
            let moved = body.remove(i + 1);
            if let Stmt::If(_, t, e) = &mut body[i] {
                t.push(moved.clone());
                e.push(moved);
            }
        }
        Rewrite::Unroll => {
            let loops: Vec<usize> = (0..body.len())
                .filter(|&i| matches!(body[i], Stmt::While(..)))
                .collect();
            if loops.is_empty() {
                return insert_skip(rng, body);
            }
            let i = loops[rng.below(loops.len())];
            let Stmt::While(q, inner) = body[i].clone() else {
                unreachable!("filtered to loops")
            };
            let mut then_b = inner.clone();
            then_b.push(Stmt::While(q, inner));
            body[i] = Stmt::If(q, then_b, Vec::new());
        }
        Rewrite::AbortPad => {
            let mut found = Vec::new();
            abort_blocks(body, &mut Vec::new(), &mut found);
            if found.is_empty() {
                return insert_skip(rng, body);
            }
            let path = found.swap_remove(rng.below(found.len()));
            let target = rng.below(qubits);
            let junk = gate1(rng, target);
            let block = block_at(body, &path);
            let i = block
                .iter()
                .position(|s| matches!(s, Stmt::Abort))
                .expect("the block holds an abort");
            block.insert(i + 1, junk);
        }
    }
}

/// A `prog_eq` pair built from `base`: equal by `rw` plus a `skip`, or
/// (when `refute`) a `skip` plus one gate inserted at a top-level
/// position. `base` must not encode to the zero series when refuting.
#[must_use]
pub fn prog_eq_pair(rng: &mut Rng, base: &Prog, rw: Rewrite, refute: bool) -> (Prog, Prog) {
    let mut q = base.clone();
    insert_skip(rng, &mut q.body);
    if refute {
        assert!(!base.is_zero(), "refutation needs a non-zero series");
        let at = rng.below(q.body.len() + 1);
        let target = rng.below(q.qubits);
        let g = gate1(rng, target);
        q.body.insert(at, g);
    } else {
        rewrite(rng, &mut q, rw);
    }
    if rng.percent(50) {
        (base.clone(), q)
    } else {
        (q, base.clone())
    }
}

/// Plants one shape the analyzer and optimizer look for: a
/// self-inverse pair, a statement behind `abort`, an aborting branch, a
/// double reset, a half-aborting branch, or (kind 5) a dead loop.
pub fn plant_finding(rng: &mut Rng, prog: &mut Prog, kind: usize) {
    let q = rng.below(prog.qubits);
    let at = rng.below(prog.body.len() + 1);
    let planted: Vec<Stmt> = match kind % 6 {
        0 => {
            let g = GATES1[rng.below(3)];
            vec![Stmt::Gate1(g, q), Stmt::Gate1(g, q)]
        }
        1 => vec![Stmt::Abort, gate1(rng, q)],
        2 => vec![Stmt::If(
            q,
            vec![gate1(rng, q), Stmt::Abort],
            vec![Stmt::Abort],
        )],
        3 => vec![Stmt::Init(q), Stmt::Init(q)],
        4 => vec![Stmt::If(q, vec![Stmt::Abort], vec![gate1(rng, q)])],
        _ => vec![Stmt::While(q, vec![Stmt::Abort])],
    };
    prog.body.splice(at..at, planted);
}

fn prog_eq_line(p: &Prog, q: &Prog) -> String {
    format!(
        "{{\"op\":\"prog_eq\",\"p\":\"{}\",\"q\":\"{}\"}}",
        p.render(),
        q.render()
    )
}

fn prog_line(op: &str, p: &Prog) -> String {
    format!("{{\"op\":\"{op}\",\"prog\":\"{}\"}}", p.render())
}

/// The workloads with generated inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Loop-free: 70 % `prog_eq` over 1–4 qubits with 10–60 gates, 15 %
    /// `analyze` and 15 % `optimize` over 1–3 qubits with 6–24 gates
    /// and a planted finding.
    LoopFree,
    /// Star-containing: 75 % `prog_eq`, 25 % `optimize` over 1–3 qubits
    /// (equally often) with one loop (half), two or three (a quarter
    /// each).
    Looped,
}

/// One slot of a block: the query's kind and the structural knobs that
/// drive its cost. The seed picks everything else.
#[derive(Clone, Copy, Debug)]
enum Spec {
    LoopFreeEq {
        qubits: usize,
        gates: usize,
        ifs: usize,
        refute: bool,
    },
    LoopedEq {
        qubits: usize,
        loops: usize,
        variant: usize,
    },
    Analyze {
        qubits: usize,
        gates: usize,
        kind: usize,
    },
    Optimize {
        qubits: usize,
        loops: usize,
        gates: usize,
        kind: usize,
    },
}

/// One block of slots, in a seeded order. A block fixes the mix and the
/// spread of program sizes, so runs under different seeds differ in
/// their programs but not in how much work each shape class brings —
/// the variance a seed change would otherwise add to every metric.
fn block(mix: Mix, rng: &mut Rng) -> Vec<Spec> {
    let mut out = Vec::new();
    match mix {
        Mix::LoopFree => {
            // 56 prog_eq (14 per qubit count, 10…60 gates, half refuted),
            // 12 analyze and 12 optimize (4 per qubit count, 6…24 gates).
            for qubits in 1..=4 {
                for i in 0..14 {
                    out.push(Spec::LoopFreeEq {
                        qubits,
                        gates: 10 + (50 * i + 6) / 13,
                        ifs: 1 + i % 3,
                        refute: i % 2 == 1,
                    });
                }
            }
            for qubits in 1..=3 {
                for k in 0..4 {
                    out.push(Spec::Analyze {
                        qubits,
                        gates: 6 + 6 * k,
                        kind: qubits + k,
                    });
                    out.push(Spec::Optimize {
                        qubits,
                        loops: 0,
                        gates: 6 + 6 * k,
                        kind: qubits + 2 * k,
                    });
                }
            }
        }
        Mix::Looped => {
            // Per qubit count: two one-loop, one two-loop and one
            // three-loop shape, each as three prog_eq variants and one
            // optimize — 36 prog_eq and 12 optimize per block.
            for qubits in 1..=3 {
                for loops in [1, 1, 2, 3] {
                    for variant in 0..3 {
                        out.push(Spec::LoopedEq {
                            qubits,
                            loops,
                            variant,
                        });
                    }
                    // Optimize runs one generic decide per candidate, so
                    // its programs keep to two loops (a one-loop shape
                    // gets a dead loop planted) and skip the self-inverse
                    // pair, whose refuted gate-fusion advisory is one more
                    // decide. Otherwise these would be the block's
                    // heaviest queries, and its heavy tail would sit
                    // right at the 90th percentile.
                    out.push(Spec::Optimize {
                        qubits,
                        loops: loops.min(2),
                        gates: 0,
                        kind: if loops == 1 {
                            5
                        } else {
                            1 + (qubits + loops) % 4
                        },
                    });
                }
            }
        }
    }
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i + 1));
    }
    out
}

/// Draws per slot before the stream gives up on finding a query it has
/// not produced yet; far above what any shape class needs in a run.
const MAX_REDRAWS: usize = 10_000;

/// An endless stream of distinct generated queries for one seed.
pub struct QueryStream {
    rng: Rng,
    mix: Mix,
    pending: Vec<Spec>,
    seen: std::collections::HashSet<String>,
}

impl QueryStream {
    /// The stream of `mix` for `seed`; `stream` separates independent
    /// draws under one seed.
    #[must_use]
    pub fn new(mix: Mix, seed: u64, stream: u64) -> QueryStream {
        QueryStream {
            rng: Rng::new(seed, stream),
            mix,
            pending: Vec::new(),
            seen: std::collections::HashSet::new(),
        }
    }

    /// One query for `spec` (redrawn while a refutation would need a
    /// non-zero series it lacks).
    fn draw(&mut self, spec: Spec) -> GenQuery {
        let rng = &mut self.rng;
        let (line, expect, base) = match spec {
            Spec::LoopFreeEq {
                qubits,
                gates,
                ifs,
                refute,
            } => {
                let base = loop {
                    let p = loopfree_prog(rng, qubits, gates, ifs);
                    if !(refute && p.is_zero()) {
                        break p;
                    }
                };
                let rw = if rng.percent(50) {
                    Rewrite::Distribute
                } else {
                    Rewrite::AbortPad
                };
                let (p, q) = prog_eq_pair(rng, &base, rw, refute);
                let expect = if refute {
                    Expect::Refuted
                } else {
                    Expect::Holds
                };
                (prog_eq_line(&p, &q), expect, base)
            }
            Spec::LoopedEq {
                qubits,
                loops,
                variant,
            } => {
                // Variant 0: equal by unrolling; 1: refuted, nested
                // loops; 2: equal behind an aborting arm — except for
                // three loops on fewer than three qubits, where the arm
                // is left out and a `skip` makes the pair. The one
                // three-qubit, three-loop pair behind an arm per block is
                // the heaviest query (about 1.45 GiB at the seed); more
                // of that size would put the block's heavy tail right at
                // its 90th percentile.
                let arm = variant == 2 && (loops < 3 || qubits == 3);
                let base = looped_prog(rng, qubits, loops, variant == 1, arm);
                let (rw, refute) = match variant {
                    0 => (Rewrite::Unroll, false),
                    1 => (Rewrite::Skip, true),
                    _ if arm => (Rewrite::AbortPad, false),
                    _ => (Rewrite::Skip, false),
                };
                let (p, q) = prog_eq_pair(rng, &base, rw, refute);
                let expect = if refute {
                    Expect::Refuted
                } else {
                    Expect::Holds
                };
                (prog_eq_line(&p, &q), expect, base)
            }
            Spec::Analyze {
                qubits,
                gates,
                kind,
            } => {
                let mut p = loopfree_prog(rng, qubits, gates, 1);
                plant_finding(rng, &mut p, kind % 5);
                (prog_line("analyze", &p), Expect::Analysis, p)
            }
            Spec::Optimize {
                qubits,
                loops,
                gates,
                kind,
            } => {
                let mut p = if loops == 0 {
                    loopfree_prog(rng, qubits, gates, 1)
                } else {
                    // A leading gate keeps the few programs of the small
                    // looped classes distinct over many blocks.
                    let mut p = looped_prog(rng, qubits, loops, false, false);
                    let q = rng.below(qubits);
                    p.body.insert(0, plain_gate(rng, q));
                    p
                };
                plant_finding(rng, &mut p, if loops == 0 { kind % 5 } else { kind % 6 });
                (prog_line("optimize", &p), Expect::Optimized, p)
            }
        };
        GenQuery {
            line,
            expect,
            qubits: base.qubits,
            loops: base.loops(),
        }
    }
}

impl QueryStream {
    /// Whether the next query starts a new block: runs that stop only
    /// here are made of whole blocks, so every run has the same mix.
    #[must_use]
    pub fn at_block_boundary(&self) -> bool {
        self.pending.is_empty()
    }
}

impl Iterator for QueryStream {
    type Item = GenQuery;

    fn next(&mut self) -> Option<GenQuery> {
        if self.pending.is_empty() {
            self.pending = block(self.mix, &mut self.rng);
        }
        let spec = self.pending.pop().expect("blocks are never empty");
        for _ in 0..MAX_REDRAWS {
            let q = self.draw(spec);
            if self.seen.insert(q.line.clone()) {
                return Some(q);
            }
        }
        panic!("no distinct query left for {spec:?} after {MAX_REDRAWS} draws");
    }
}
