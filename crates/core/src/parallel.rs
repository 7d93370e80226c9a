//! Parallel portfolio search — the paper's future-work item "a
//! distributed version of the coloring algorithm to improve
//! scalability by satisfying constraints in parallel", realized as a
//! portfolio: several complete DIVA searches with different strategies
//! and seeds race, and the first success wins.
//!
//! A portfolio parallelizes the *search* (the exponential component)
//! rather than a single run's bookkeeping, which is the standard way
//! to parallelize backtracking with restarts; it preserves exactness
//! (a member only reports failure on a complete proof) and gives
//! speedups whenever strategies disagree about which instance is easy
//! — which Fig. 4a shows they strongly do.
//!
//! Execution model: a fixed pool of detached worker threads (capped at
//! [`std::thread::available_parallelism`], overridable via
//! [`DivaConfig::threads`]) pulls members off a shared work queue, so
//! a large portfolio never oversubscribes the machine. The first
//! success sets a shared [`AtomicBool`] cancellation token — which the
//! colouring search polls — and `run_portfolio` returns immediately
//! with the winner's wall-clock; losing members observe the token and
//! abandon their searches in the background instead of running to
//! completion.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use diva_constraints::Constraint;
use diva_relation::Relation;

use crate::budget::{Controls, DegradeReason};
use crate::config::{DivaConfig, Strategy};
use crate::diva::{Diva, DivaResult};
use crate::error::DivaError;

/// Runs a portfolio of DIVA searches in parallel and returns the first
/// successful result.
///
/// The portfolio contains one member per strategy (MinChoice,
/// MaxFanOut, Basic) times `seeds_per_strategy` seeds derived from
/// `config.seed`. Returns [`DivaError::EmptyPortfolio`] when
/// `seeds_per_strategy` is zero. If every member fails, the error of
/// the member with the strongest verdict is returned (a
/// `NoDiverseClustering` proof beats a budget exhaustion).
///
/// A configured [`DivaConfig::budget`] is armed **once** and shared by
/// every member, so the deadline and node/repair caps are global to
/// the portfolio — a member dequeued late does not get a fresh clock.
/// The first member to report (exact winner *or* budget-degraded
/// fallback) decides the portfolio's outcome and cancels the rest.
/// Worker panics are contained: a panicking member is recorded as
/// [`DivaError::WorkerPanicked`], and if *every* member is lost to
/// panics (with no unsatisfiability proof), the portfolio returns the
/// fully-suppressed degraded fallback instead of an error.
pub fn run_portfolio(
    rel: &Relation,
    sigma: &[Constraint],
    config: &DivaConfig,
    seeds_per_strategy: usize,
) -> Result<DivaResult, DivaError> {
    run_portfolio_with(rel, sigma, config, seeds_per_strategy, |member, rel, sigma, controls| {
        Diva::new(member.clone()).run_with(rel, sigma, controls)
    })
}

/// [`run_portfolio`] with an injectable member runner — the test seam
/// that lets the early-return, panic-containment, and budget behaviour
/// be exercised with synthetic members. Production code uses
/// [`run_portfolio`].
pub fn run_portfolio_with<F>(
    rel: &Relation,
    sigma: &[Constraint],
    config: &DivaConfig,
    seeds_per_strategy: usize,
    member_runner: F,
) -> Result<DivaResult, DivaError>
where
    F: Fn(&DivaConfig, &Relation, &[Constraint], &Controls) -> Result<DivaResult, DivaError>
        + Send
        + Sync
        + 'static,
{
    config.validate()?;
    if seeds_per_strategy == 0 {
        return Err(DivaError::EmptyPortfolio);
    }
    let mut members = Vec::new();
    for strategy in Strategy::all() {
        for s in 0..seeds_per_strategy as u64 {
            let mut c = config.clone();
            c.strategy = strategy;
            c.seed = config.seed.wrapping_add(s.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            // `clone` shares the recorder Arc; concurrent members would
            // interleave records, so each gets a private recorder and
            // the winner's log is adopted into the caller's handle.
            if config.provenance.is_enabled() {
                c.provenance = diva_obs::Provenance::enabled();
            }
            members.push(c);
        }
    }

    let obs = config.obs.clone();
    let mut root_span = obs
        .span("portfolio.run")
        .attr("members", members.len())
        .attr("seeds_per_strategy", seeds_per_strategy);
    let root_id = root_span.id();

    // Workers are detached: they borrow nothing from this stack frame,
    // so the function can return the moment a winner reports, while
    // losers notice the cancellation token and wind down on their own.
    let members = Arc::new(members);
    let rel = Arc::new(rel.clone());
    let sigma = Arc::new(sigma.to_vec());
    let runner = Arc::new(member_runner);
    // One budget for the whole portfolio: armed here (clock starts
    // now) and shared through the controls every member receives.
    let controls = Controls::new(config.budget.arm());
    let next = Arc::new(AtomicUsize::new(0));
    let (tx, rx) = mpsc::channel::<(usize, Result<DivaResult, DivaError>)>();

    // `validate()` above rejected `Some(0)`, so the cap is positive.
    let n_workers = members.len().min(config.worker_cap());
    root_span.set_attr("workers", n_workers);
    for _ in 0..n_workers {
        let members = Arc::clone(&members);
        let rel = Arc::clone(&rel);
        let sigma = Arc::clone(&sigma);
        let runner = Arc::clone(&runner);
        let controls = controls.clone();
        let next = Arc::clone(&next);
        let obs = obs.clone();
        let tx = tx.clone();
        std::thread::spawn(move || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= members.len() || controls.is_cancelled() {
                break;
            }
            // Each member runs under its own span, explicitly parented
            // to the portfolio root (worker threads have no implicit
            // span stack): the span's start/duration gives the member's
            // start and finish/cancel latency, and the attrs identify
            // the strategy and derived seed.
            let mut member_span = obs
                .span("portfolio.member")
                .attr("member", i)
                .attr("strategy", members[i].strategy.name())
                .attr("seed", members[i].seed);
            if let Some(id) = root_id {
                member_span = member_span.with_parent(id);
            }
            // Panic containment: a panicking member (fault injection,
            // or a real bug) becomes a WorkerPanicked verdict rather
            // than a silently dropped sender, so the portfolio can
            // still account for every member.
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                #[cfg(feature = "fault-inject")]
                members[i].faults.worker_panic_point(i);
                runner(&members[i], &rel, &sigma, &controls)
            }))
            .unwrap_or_else(|payload| {
                Err(DivaError::WorkerPanicked { detail: panic_message(payload.as_ref()) })
            });
            let outcome = match &out {
                Ok(res) if res.outcome.is_exact() => "success",
                Ok(_) => "degraded",
                Err(DivaError::Cancelled) => "cancelled",
                Err(DivaError::WorkerPanicked { .. }) => "panicked",
                Err(_) => "failure",
            };
            member_span.set_attr("outcome", outcome);
            member_span.end();
            obs.counter(&format!("portfolio.{outcome}")).incr();
            // A dropped receiver just means someone else already won.
            if tx.send((i, out)).is_err() {
                break;
            }
        });
    }
    drop(tx);

    let mut best_err: Option<DivaError> = None;
    // The lowest-indexed panicked member's detail, so the reported
    // panic does not depend on which member finished last.
    let mut panic_detail: Option<(usize, String)> = None;
    while let Ok((winner, outcome)) = rx.recv() {
        match outcome {
            // Exact winner or budget-degraded member: either way the
            // portfolio is decided (the budget is shared, so one
            // member's exhaustion is everyone's) — cancel the rest and
            // return.
            Ok(res) => {
                controls.request_cancel();
                // Surface the winner's decision log through the
                // caller's handle (no-op when provenance is off).
                config.provenance.adopt(&members[winner].provenance);
                root_span.set_attr(
                    "outcome",
                    if res.outcome.is_exact() { "success" } else { "degraded" },
                );
                root_span.end();
                return Ok(res);
            }
            // A member that observed the token mid-run carries no
            // verdict; it never reaches this loop before a win anyway.
            Err(DivaError::Cancelled) => {}
            Err(DivaError::WorkerPanicked { detail }) => {
                if panic_detail.as_ref().is_none_or(|&(m, _)| winner < m) {
                    panic_detail = Some((winner, detail));
                }
            }
            Err(e) => {
                let stronger =
                    matches!(e, DivaError::NoDiverseClustering { .. }) || best_err.is_none();
                if stronger {
                    best_err = Some(e);
                }
            }
        }
    }
    // A complete unsatisfiability proof from any member is the true
    // verdict, panics elsewhere notwithstanding.
    if matches!(best_err, Some(DivaError::NoDiverseClustering { .. })) {
        root_span.set_attr("outcome", "failure");
        root_span.end();
        return Err(best_err.unwrap_or(DivaError::EmptyPortfolio));
    }
    // Members were lost to panics and nobody proved anything: degrade
    // to the fully-suppressed fallback rather than failing the caller.
    if let Some((_, detail)) = panic_detail {
        root_span.set_attr("outcome", "degraded");
        root_span.end();
        return Diva::new(config.clone()).degraded_fallback(
            &rel,
            &sigma,
            DegradeReason::WorkerPanic { detail },
        );
    }
    // Every sender is dropped only after all members completed; a
    // missing verdict can only mean the portfolio was empty.
    root_span.set_attr("outcome", "failure");
    root_span.end();
    Err(best_err.unwrap_or(DivaError::EmptyPortfolio))
}

/// Best-effort stringification of a caught panic payload. Shared with
/// the component worker pool ([`crate::pool`]), which contains panics
/// the same way.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    use diva_constraints::ConstraintSet;
    use diva_relation::fixtures::paper_table1;
    use diva_relation::is_k_anonymous;

    use crate::diva::RunStats;

    fn example_sigma() -> Vec<Constraint> {
        vec![
            Constraint::single("ETH", "Asian", 2, 5),
            Constraint::single("ETH", "African", 1, 3),
            Constraint::single("CTY", "Vancouver", 2, 4),
        ]
    }

    #[test]
    fn portfolio_solves_paper_example() {
        let r = paper_table1();
        let out = run_portfolio(&r, &example_sigma(), &DivaConfig::with_k(2), 2).unwrap();
        assert!(is_k_anonymous(&out.relation, 2));
        let set = ConstraintSet::bind(&example_sigma(), &out.relation).unwrap();
        assert!(set.satisfied_by(&out.relation));
    }

    #[test]
    fn portfolio_adopts_the_winner_provenance() {
        let r = paper_table1();
        let prov = diva_obs::Provenance::enabled();
        let config = DivaConfig::with_k(2).provenance(prov.clone());
        let out = run_portfolio(&r, &example_sigma(), &config, 2).unwrap();
        let attr = out.stats.attribution.clone().expect("winner carries attribution");
        assert_eq!(attr.total(), out.relation.star_count() as u64);
        // The winner's log was adopted into the caller's handle and
        // matches the published result.
        let log = prov.snapshot().expect("caller handle holds the winner log");
        diva_obs::provenance::validate_log(&log).unwrap();
        assert_eq!(log.cells.len() as u64, attr.total());
        assert_eq!(log.n_rows, r.n_rows() as u64);
    }

    #[test]
    fn portfolio_propagates_unsatisfiability() {
        let r = paper_table1();
        let sigma = vec![Constraint::single("ETH", "Asian", 6, 10)];
        let err = run_portfolio(&r, &sigma, &DivaConfig::with_k(2), 1).unwrap_err();
        assert!(matches!(err, DivaError::NoDiverseClustering { .. }));
    }

    #[test]
    fn portfolio_on_larger_instance() {
        let r = diva_datagen::medical(1_000, 5);
        // Moderate retention demands: lower bounds around 30% of each
        // value's frequency. (Aggressive bounds make the instance
        // genuinely unsatisfiable: each constraint's own clustering
        // must meet its lower bound with clusters disjoint from other
        // constraints', so lower bounds compete for rows.)
        let sigma = diva_constraints::generators::proportional(&r, 5, 0.7, 20);
        let out = run_portfolio(&r, &sigma, &DivaConfig::with_k(5), 1).unwrap();
        assert!(is_k_anonymous(&out.relation, 5));
        let set = ConstraintSet::bind(&sigma, &out.relation).unwrap();
        assert!(set.satisfied_by(&out.relation));
    }

    #[test]
    fn portfolio_emits_member_spans() {
        let r = paper_table1();
        let obs = crate::obs::Obs::enabled();
        let config = DivaConfig::with_k(2).obs(obs.clone());
        run_portfolio(&r, &example_sigma(), &config, 2).unwrap();
        // Detached losers may still be winding down; only the root and
        // the winner are guaranteed recorded at return. Wait briefly
        // for the rest (members = 3 strategies × 2 seeds).
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let snap = obs.snapshot();
            let members: Vec<_> =
                snap.spans.iter().filter(|s| s.name == "portfolio.member").collect();
            let root = snap.spans.iter().find(|s| s.name == "portfolio.run");
            let done = snap.counter("portfolio.success").unwrap_or(0)
                + snap.counter("portfolio.failure").unwrap_or(0)
                + snap.counter("portfolio.cancelled").unwrap_or(0);
            if root.is_some() && !members.is_empty() && done == members.len() as u64 {
                let root_id = root.map(|s| s.id);
                for m in &members {
                    assert_eq!(m.parent, root_id, "member spans parent to portfolio.run");
                    assert!(
                        m.attrs.iter().any(|(k, _)| k == "seed"),
                        "member span carries its seed"
                    );
                    assert!(m.attrs.iter().any(|(k, _)| k == "outcome"));
                }
                assert!(snap.counter("portfolio.success").unwrap_or(0) >= 1);
                break;
            }
            assert!(Instant::now() < deadline, "portfolio spans never completed");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn zero_seeds_is_an_error() {
        let r = paper_table1();
        let err = run_portfolio(&r, &[], &DivaConfig::with_k(2), 0).unwrap_err();
        assert_eq!(err, DivaError::EmptyPortfolio);
    }

    #[test]
    fn thread_cap_of_one_still_completes() {
        let r = paper_table1();
        let mut config = DivaConfig::with_k(2);
        config.threads = Some(1);
        let out = run_portfolio(&r, &example_sigma(), &config, 2).unwrap();
        assert!(is_k_anonymous(&out.relation, 2));
    }

    fn dummy_result() -> DivaResult {
        DivaResult {
            relation: paper_table1(),
            groups: Vec::new(),
            source_rows: Vec::new(),
            stats: RunStats::default(),
            outcome: crate::Outcome::Exact,
        }
    }

    #[test]
    fn winner_returns_without_waiting_for_slow_losers() {
        // One fast winner (the first member: MinChoice at the base
        // seed), every other member "searches" until cancelled (capped
        // at 10 s so a regression fails rather than hangs). The
        // portfolio must return in roughly the winner's wall-clock.
        let r = paper_table1();
        let config = DivaConfig::with_k(2);
        let base_seed = config.seed;
        let t0 = Instant::now();
        let out = run_portfolio_with(&r, &[], &config, 2, move |member, _rel, _sigma, controls| {
            if member.strategy == Strategy::MinChoice && member.seed == base_seed {
                std::thread::sleep(Duration::from_millis(20));
                return Ok(dummy_result());
            }
            let start = Instant::now();
            while start.elapsed() < Duration::from_secs(10) {
                if controls.is_cancelled() {
                    return Err(DivaError::Cancelled);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(DivaError::SearchBudgetExhausted { backtracks: 0 })
        })
        .unwrap();
        let elapsed = t0.elapsed();
        assert!(out.groups.is_empty(), "got the synthetic winner");
        assert!(elapsed < Duration::from_secs(5), "portfolio waited for losers: {elapsed:?}");
    }

    #[test]
    fn all_failures_return_strongest_verdict() {
        let r = paper_table1();
        let out = run_portfolio_with(
            &r,
            &[],
            &DivaConfig::with_k(2),
            1,
            |member, _rel, _sigma, _controls| {
                if member.strategy == Strategy::Basic {
                    Err(DivaError::NoDiverseClustering { constraint: "X[x]".into() })
                } else {
                    Err(DivaError::SearchBudgetExhausted { backtracks: 1 })
                }
            },
        );
        assert!(matches!(out.unwrap_err(), DivaError::NoDiverseClustering { .. }));
    }

    #[test]
    fn panicking_member_does_not_sink_the_portfolio() {
        // Two of three strategies panic mid-search; the survivor's
        // result must still come back, not an EmptyPortfolio from
        // dropped senders.
        let r = paper_table1();
        let out = run_portfolio_with(
            &r,
            &[],
            &DivaConfig::with_k(2),
            1,
            |member, _rel, _sigma, _controls| {
                if member.strategy == Strategy::MinChoice {
                    return Ok(dummy_result());
                }
                panic!("synthetic worker bug");
            },
        )
        .unwrap();
        assert!(out.outcome.is_exact());
    }

    #[test]
    fn all_members_panicking_degrades_instead_of_erroring() {
        let r = paper_table1();
        let sigma = vec![Constraint::single("ETH", "Asian", 2, 5)];
        let out = run_portfolio_with(
            &r,
            &sigma,
            &DivaConfig::with_k(2),
            1,
            |_member, _rel, _sigma, _controls| -> Result<DivaResult, DivaError> {
                panic!("synthetic worker bug");
            },
        )
        .unwrap();
        match &out.outcome {
            crate::Outcome::Degraded { reason: crate::DegradeReason::WorkerPanic { detail } } => {
                assert!(detail.contains("synthetic worker bug"));
            }
            other => panic!("expected WorkerPanic degradation, got {other:?}"),
        }
        // The fallback publishes every row, fully QI-suppressed.
        assert_eq!(out.relation.n_rows(), r.n_rows());
        assert!(is_k_anonymous(&out.relation, 2));
        assert_eq!(out.groups.len(), 1);
    }

    #[test]
    fn unsat_proof_beats_worker_panics() {
        let r = paper_table1();
        let out = run_portfolio_with(
            &r,
            &[],
            &DivaConfig::with_k(2),
            1,
            |member, _rel, _sigma, _controls| {
                if member.strategy == Strategy::MaxFanOut {
                    return Err(DivaError::NoDiverseClustering { constraint: "X[x]".into() });
                }
                panic!("synthetic worker bug");
            },
        );
        assert!(matches!(out.unwrap_err(), DivaError::NoDiverseClustering { .. }));
    }

    #[test]
    fn zero_deadline_portfolio_degrades_on_the_real_pipeline() {
        let r = paper_table1();
        let config = DivaConfig::with_k(2).budget(crate::BudgetSpec::with_deadline(Duration::ZERO));
        let out = run_portfolio(&r, &example_sigma(), &config, 2).unwrap();
        assert!(!out.outcome.is_exact(), "zero deadline must degrade");
        assert!(is_k_anonymous(&out.relation, 2));
        assert_eq!(out.relation.n_rows(), r.n_rows());
        assert!(out.stats.budget.is_some(), "budget usage recorded");
    }

    #[test]
    fn generous_budget_portfolio_still_exact() {
        let r = paper_table1();
        let config = DivaConfig::with_k(2)
            .budget(crate::BudgetSpec::with_deadline(Duration::from_secs(600)));
        let out = run_portfolio(&r, &example_sigma(), &config, 1).unwrap();
        assert!(out.outcome.is_exact());
        let set = ConstraintSet::bind(&example_sigma(), &out.relation).unwrap();
        assert!(set.satisfied_by(&out.relation));
    }
}
