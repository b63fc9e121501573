//! The correctness gate: construction-known `prog_eq` answers,
//! superoperator equality of optimizer outputs and analyzer
//! certificates, and the golden `expect*` annotations of the corpora.

use crate::gen::Expect;
use nka_core::api::json::Json;
use nka_core::snapshot::fnv1a64;
use nka_core::Verdict;
use nka_qprog::{Severity, SurfaceProgram};
use std::collections::HashSet;

/// How one response was classified.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// Answered, and consistent with what is known up front.
    Ok,
    /// `BudgetExhausted`, an error, a refusal, or no answer: counts in
    /// `failed_share`, never as a wrong answer.
    Failed,
    /// A verdict contradicting the construction: fails the run.
    Wrong,
}

/// Program pairs whose denotations must agree, checked after the timed
/// region (each distinct pair once).
#[derive(Default)]
pub(crate) struct SemanticBacklog {
    pairs: Vec<(String, String)>,
    seen: HashSet<(String, String)>,
}

impl SemanticBacklog {
    pub fn push(&mut self, p: &str, q: &str) {
        if p != q && self.seen.insert((p.to_owned(), q.to_owned())) {
            self.pairs.push((p.to_owned(), q.to_owned()));
        }
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Checks every pair with `Program::denotation()`; returns the pairs
    /// whose superoperators differ.
    #[must_use]
    pub fn mismatches(&self) -> Vec<(String, String)> {
        self.pairs
            .iter()
            .filter(|(p, q)| !denotations_agree(p, q))
            .cloned()
            .collect()
    }
}

/// `⟦p⟧ = ⟦q⟧` as Liouville matrices, within a numerical tolerance.
#[must_use]
pub(crate) fn denotations_agree(p: &str, q: &str) -> bool {
    match (SurfaceProgram::parse(p), SurfaceProgram::parse(q)) {
        (Ok(p), Ok(q)) => {
            p.dim() == q.dim()
                && p.program()
                    .denotation()
                    .approx_eq(&q.program().denotation(), 1e-7)
        }
        _ => false,
    }
}

/// Classifies a generated query's verdict, queueing the semantic checks
/// it owes.
pub(crate) fn classify(
    expect: Expect,
    input: &str,
    verdict: &Verdict,
    backlog: &mut SemanticBacklog,
) -> Outcome {
    match (expect, verdict) {
        (_, Verdict::BudgetExhausted { .. }) => Outcome::Failed,
        (Expect::Holds, Verdict::ProgEq { holds: true, .. })
        | (Expect::Refuted, Verdict::ProgEq { holds: false, .. }) => Outcome::Ok,
        (Expect::Analysis, Verdict::Analysis { findings }) => {
            for cert in findings.iter().filter_map(|f| f.certificate.as_ref()) {
                backlog.push(&cert.p, &cert.q);
            }
            Outcome::Ok
        }
        (Expect::Optimized, Verdict::Optimized { optimized, .. }) => {
            backlog.push(input, optimized);
            Outcome::Ok
        }
        _ => Outcome::Wrong,
    }
}

/// The program source of a generated `analyze`/`optimize` line.
#[must_use]
pub(crate) fn prog_of(line: &str) -> String {
    Json::parse(line)
        .ok()
        .and_then(|v| v.get("prog").and_then(Json::as_str).map(str::to_owned))
        .unwrap_or_default()
}

/// Checks an in-process answer to a corpus line against the line's
/// golden `expect*` annotations (if any). Returns a description of the
/// first disagreement.
#[must_use]
pub(crate) fn golden_disagreement(line: &str, verdict: &Verdict) -> Option<String> {
    let value = Json::parse(line.trim()).ok()?;
    let expect = value.get("expect").and_then(Json::as_str)?;
    if verdict.name() != expect {
        return Some(format!("verdict {} ≠ expected {expect}", verdict.name()));
    }
    if let Some(steps) = value.get("expect_steps").and_then(Json::as_i64) {
        let Verdict::Optimized {
            optimized,
            steps: got,
            ..
        } = verdict
        else {
            return Some("expected an optimize verdict".to_owned());
        };
        if got.len() as i64 != steps {
            return Some(format!("{} steps ≠ expected {steps}", got.len()));
        }
        let hash = format!("{:016x}", fnv1a64(optimized.as_bytes()));
        if value.get("expect_final_hash").and_then(Json::as_str) != Some(hash.as_str()) {
            return Some(format!("final hash {hash} differs"));
        }
    }
    if let Some(passes) = value.get("expect_passes").and_then(Json::as_array) {
        let Verdict::Analysis { findings } = verdict else {
            return Some("expected an analysis verdict".to_owned());
        };
        let want: Vec<&str> = passes.iter().filter_map(Json::as_str).collect();
        let got: Vec<&str> = findings.iter().map(|f| f.pass).collect();
        if want != got {
            return Some(format!("passes {got:?} ≠ expected {want:?}"));
        }
        let warnings = findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
            .count() as i64;
        if value.get("expect_warnings").and_then(Json::as_i64) != Some(warnings) {
            return Some(format!("{warnings} warnings differ from expected"));
        }
    }
    None
}
