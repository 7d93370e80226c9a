//! The untraced end-to-end job — what `diva anonymize` does, through
//! the library's public functions — and the checks every published
//! table must pass.

use std::hint::black_box;
use std::time::Instant;

use diva_constraints::{spec, Constraint, ConstraintSet};
use diva_core::{Diva, DivaConfig, DivaResult, Outcome};
use diva_relation::csv::{read_relation, write_relation};
use diva_relation::suppress::is_refinement;
use diva_relation::{is_k_anonymous, qi_groups, Relation, RowId};

use crate::stats::{peak_rss_mib, reset_peak_rss, trim_heap};
use crate::workload::Inputs;

/// The end-to-end figures of one job.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    pub total_s: f64,
    pub setup_s: f64,
    pub solve_s: f64,
    pub peak_rss_mib: f64,
    pub accuracy: f64,
    pub disc_ratio: f64,
}

/// A finished job: its figures and everything needed to check it.
pub struct Job {
    pub measured: Measured,
    pub input: Relation,
    pub sigma: Vec<Constraint>,
    pub result: DivaResult,
    pub text: String,
}

/// Runs one job: CSV text in, CSV text out. Ingest plus Σ parse and
/// bind is the set-up; `Diva::run` is the solve; the write closes the
/// total. The job starts from a trimmed heap. Memory is the job's peak
/// growth of the resident set, which leaves out what the harness holds
/// (every instance's input text).
pub fn run(inp: &Inputs, config: &DivaConfig) -> Result<Job, String> {
    trim_heap();
    let rss_before = reset_peak_rss();
    let t0 = Instant::now();
    let input = read_relation(&inp.csv, &inp.roles).map_err(|e| format!("ingest: {e}"))?;
    let sigma = spec::parse(&inp.sigma).map_err(|e| format!("parse Σ: {e}"))?;
    black_box(ConstraintSet::bind(&sigma, &input)).map_err(|e| format!("bind Σ: {e}"))?;
    let t1 = Instant::now();
    let result =
        Diva::new(config.clone()).run(&input, &sigma).map_err(|e| format!("solve: {e}"))?;
    let t2 = Instant::now();
    let text = black_box(write_relation(&result.relation));
    let t3 = Instant::now();
    let peak_rss_mib = peak_rss_mib() - rss_before;
    let k = config.k;
    let measured = Measured {
        total_s: (t3 - t0).as_secs_f64(),
        setup_s: (t1 - t0).as_secs_f64(),
        solve_s: (t2 - t1).as_secs_f64(),
        peak_rss_mib,
        accuracy: diva_metrics::star_accuracy(&result.relation),
        disc_ratio: diva_metrics::disc_accuracy_ratio(&result.relation, k),
    };
    Ok(Job { measured, input, sigma, result, text })
}

impl Job {
    /// Checks the published table: an exact outcome, and [`verify`].
    pub fn check(&self, k: usize) -> Result<(), String> {
        if let Outcome::Degraded { reason } = &self.result.outcome {
            return Err(format!("degraded outcome: {reason}"));
        }
        verify(&self.input, &self.sigma, k, &self.result.relation, &self.result.source_rows)
    }
}

/// The correctness checks on a published table `out` of `input`:
/// k-anonymity, Σ re-bound on `out` and satisfied, and `input ⊑ out`
/// through `source_rows`, which must publish every input row once.
pub fn verify(
    input: &Relation,
    sigma: &[Constraint],
    k: usize,
    out: &Relation,
    source_rows: &[RowId],
) -> Result<(), String> {
    if !is_k_anonymous(out, k) {
        return Err(format!("not {k}-anonymous"));
    }
    let set = ConstraintSet::bind(sigma, out).map_err(|e| format!("Σ does not bind: {e}"))?;
    let violated = set.violations(out);
    if !violated.is_empty() {
        let labels: Vec<String> = violated.iter().map(|&i| set.constraints()[i].label()).collect();
        return Err(format!("violates Σ: {}", labels.join(", ")));
    }
    if !is_refinement(input, out, source_rows) {
        return Err("not a refinement of the input".into());
    }
    let mut seen = vec![false; input.n_rows()];
    for &r in source_rows {
        if r >= seen.len() || std::mem::replace(&mut seen[r], true) {
            return Err(format!("input row {r} published twice or out of range"));
        }
    }
    if seen.iter().any(|s| !s) {
        return Err("an input row is missing from the output".into());
    }
    Ok(())
}

/// Checks that the written CSV text decodes, cell for cell, to the
/// published relation (so the verified relation is what was written).
pub fn check_text(job: &Job, inp: &Inputs) -> Result<(), String> {
    let back =
        read_relation(&job.text, &inp.roles).map_err(|e| format!("output CSV unreadable: {e}"))?;
    let out = &job.result.relation;
    if back.n_rows() != out.n_rows() {
        return Err(format!("output CSV has {} rows, expected {}", back.n_rows(), out.n_rows()));
    }
    for col in 0..out.schema().arity() {
        for row in 0..out.n_rows() {
            if back.value(row, col).as_str() != out.value(row, col).as_str() {
                return Err(format!("output CSV differs at row {row}, column {col}"));
            }
        }
    }
    Ok(())
}

/// The verifier's self-test on a verified job: a table with one QI
/// cell un-suppressed must fail k-anonymity, and a table with one Σ
/// lower bound broken must fail Σ.
pub fn self_test(job: &Job, k: usize) -> Result<(), String> {
    let out = &job.result.relation;
    let rows = &job.result.source_rows;
    let expect_failure = |tampered: &Relation, needle: &str, what: &str| match verify(
        &job.input, &job.sigma, k, tampered, rows,
    ) {
        Err(e) if e.contains(needle) => Ok(()),
        Err(e) => Err(format!("self-test: {what} failed for the wrong reason: {e}")),
        Ok(()) => Err(format!("self-test: {what} passed verification")),
    };
    let unsuppressed = unsuppress_one_cell(out, &job.input, rows, k)
        .ok_or("self-test: no starred group of size k to tamper with")?;
    expect_failure(&unsuppressed, "anonymous", "a table with one un-suppressed QI cell")?;
    let broken = break_lower_bound(out, &job.sigma)
        .ok_or("self-test: no Σ constraint with a lower bound to break")?;
    expect_failure(&broken, "violates Σ", "a table with one Σ lower bound broken")
}

/// Restores the original value of one starred QI cell in a QI-group
/// of exactly `k` rows: that row leaves its group, which drops to k−1.
fn unsuppress_one_cell(
    out: &Relation,
    input: &Relation,
    source_rows: &[RowId],
    k: usize,
) -> Option<Relation> {
    let qi = out.schema().qi_cols();
    let groups = qi_groups(out);
    let (row, col) = groups
        .groups()
        .iter()
        .filter(|g| g.len() == k)
        .find_map(|g| qi.iter().find(|&&c| out.is_suppressed(g[0], c)).map(|&c| (g[0], c)))?;
    let mut cols: Vec<Vec<u32>> =
        (0..out.schema().arity()).map(|c| out.column(c).to_vec()).collect();
    cols[col][row] = input.code(source_rows[row], col);
    Some(Relation::from_parts(out.schema().clone(), out.dicts().to_vec(), cols))
}

/// Stars the target cells of every published row that counts towards
/// the first QI-only constraint with a positive lower bound. Whole QI-groups
/// are starred together, so k-anonymity and refinement still hold and
/// only that lower bound breaks.
fn break_lower_bound(out: &Relation, sigma: &[Constraint]) -> Option<Relation> {
    let set = ConstraintSet::bind(sigma, out).ok()?;
    let qi = out.schema().qi_cols();
    let c =
        set.constraints().iter().find(|c| c.lower > 0 && c.cols.iter().all(|x| qi.contains(x)))?;
    let mut tampered = out.clone();
    for &row in &c.target_rows {
        for &col in &c.cols {
            tampered.suppress_cell(row, col);
        }
    }
    Some(tampered)
}
