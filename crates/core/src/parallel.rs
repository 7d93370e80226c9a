//! Parallel portfolio search — the paper's future-work item "a
//! distributed version of the coloring algorithm to improve
//! scalability by satisfying constraints in parallel", realized as a
//! portfolio: several complete DIVA searches with different strategies
//! and seeds race, and the first decisive verdict ends the race.
//!
//! A portfolio parallelizes the *search* (the exponential component)
//! rather than a single run's bookkeeping, which is the standard way
//! to parallelize backtracking with restarts; it preserves exactness
//! (a member only reports failure on a complete proof) and gives
//! speedups whenever strategies disagree about which instance is easy
//! — which Fig. 4a shows they strongly do.
//!
//! Execution model: the members are tasks of the scoped worker pool
//! ([`crate::pool::run_tasks`]), capped at
//! [`std::thread::available_parallelism`] or [`DivaConfig::threads`],
//! so a large portfolio never oversubscribes the machine and members
//! borrow the caller's relation and Σ. The first decisive member
//! requests cancellation on the shared [`Controls`]; in-flight losers
//! stop at their next poll, members not yet started never start, and
//! `run_portfolio` returns once the pool has joined them all.

use diva_constraints::Constraint;
use diva_relation::Relation;

use crate::budget::{Controls, DegradeReason};
use crate::config::{DivaConfig, Strategy};
use crate::diva::{Diva, DivaResult};
use crate::error::DivaError;
use crate::pool;

/// Runs a portfolio of DIVA searches in parallel and returns the best
/// verdict.
///
/// The portfolio contains one member per strategy (MinChoice,
/// MaxFanOut, Basic) times `seeds_per_strategy` seeds derived from
/// `config.seed`. Returns [`DivaError::EmptyPortfolio`] when
/// `seeds_per_strategy` is zero.
///
/// A member's verdict is decisive when it is a result (exact or
/// budget-degraded) or a `NoDiverseClustering` proof: it cancels the
/// other members, which stop at their next poll. The call returns once
/// every member has stopped, and picks its answer by rule, not by
/// arrival: an exact result beats a degraded one, then the
/// lowest-indexed member wins; with no result, the lowest-indexed
/// `NoDiverseClustering` proof, then the lowest-indexed other error.
///
/// A configured [`DivaConfig::budget`] is armed **once** and shared by
/// every member, so the deadline and node/repair caps are global to
/// the portfolio — a member dequeued late does not get a fresh clock.
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
/// that lets the cancellation, panic-containment, and budget behaviour
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
    F: Fn(&DivaConfig, &Relation, &[Constraint], &Controls) -> Result<DivaResult, DivaError> + Sync,
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

    let obs = &config.obs;
    let mut root_span = obs
        .span("portfolio.run")
        .attr("members", members.len())
        .attr("seeds_per_strategy", seeds_per_strategy);
    let root_id = root_span.id();
    // One budget for the whole portfolio: armed here (clock starts
    // now) and shared through the controls every member receives.
    let controls = Controls::new(config.budget.arm());
    // `validate()` above rejected `Some(0)`, so the cap is positive.
    let n_workers = members.len().min(config.worker_cap());
    root_span.set_attr("workers", n_workers);

    // The task body never returns `Err`, so the pool's fail-fast never
    // stops the queue: every member runs unless the portfolio is
    // already decided when it is dequeued.
    let verdicts = pool::run_tasks(&members, n_workers, |i, member| {
        if controls.is_cancelled() {
            return Ok(Err(DivaError::Cancelled));
        }
        // Each member runs under its own span, explicitly parented to
        // the portfolio root (pool threads have no implicit span
        // stack): the span's start/duration gives the member's start
        // and finish/cancel latency, and the attrs identify the
        // strategy and derived seed.
        let mut member_span = obs
            .span("portfolio.member")
            .attr("member", i)
            .attr("strategy", member.strategy.name())
            .attr("seed", member.seed);
        if let Some(id) = root_id {
            member_span = member_span.with_parent(id);
        }
        // Panic containment inside the task, so a panicking member
        // still closes its span and counts as `panicked`.
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            #[cfg(feature = "fault-inject")]
            member.faults.worker_panic_point(i);
            member_runner(member, rel, sigma, &controls)
        }))
        .unwrap_or_else(|payload| {
            Err(DivaError::WorkerPanicked { detail: panic_message(payload.as_ref()) })
        });
        // A result or an unsatisfiability proof decides the portfolio
        // (the budget is shared, so one member's exhaustion is
        // everyone's).
        if matches!(out, Ok(_) | Err(DivaError::NoDiverseClustering { .. })) {
            controls.request_cancel();
        }
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
        Ok(out)
    });
    // No task fails, so every member is dequeued (`None` cannot
    // occur); `Some(Err)` only if the pool caught a panic outside the
    // member's own containment.
    let mut verdicts: Vec<_> = verdicts
        .into_iter()
        .map(|v| v.map_or(Err(DivaError::Cancelled), |v| v.and_then(|out| out)))
        .collect();

    // Exact before degraded, then the lowest member index.
    let winner = verdicts
        .iter()
        .enumerate()
        .filter_map(|(i, v)| v.as_ref().ok().map(|res| (!res.outcome.is_exact(), i)))
        .min();
    if let Some((degraded, i)) = winner {
        // Surface the winner's decision log through the caller's
        // handle (no-op when provenance is off).
        config.provenance.adopt(&members[i].provenance);
        root_span.set_attr("outcome", if degraded { "degraded" } else { "success" });
        root_span.end();
        return verdicts.swap_remove(i);
    }
    // Scanned in member order, so each slot keeps its lowest index.
    let (mut proof, mut panic_detail, mut other) = (None, None, None);
    for e in verdicts.into_iter().filter_map(Result::err) {
        match e {
            // A member that observed the token carries no verdict.
            DivaError::Cancelled => {}
            DivaError::NoDiverseClustering { .. } => {
                proof.get_or_insert(e);
            }
            DivaError::WorkerPanicked { detail } => {
                panic_detail.get_or_insert(detail);
            }
            _ => {
                other.get_or_insert(e);
            }
        }
    }
    // A complete unsatisfiability proof from any member is the true
    // verdict, panics elsewhere notwithstanding.
    if let Some(proof) = proof {
        root_span.set_attr("outcome", "failure");
        root_span.end();
        return Err(proof);
    }
    // Members were lost to panics and nobody proved anything: degrade
    // to the fully-suppressed fallback rather than failing the caller.
    if let Some(detail) = panic_detail {
        root_span.set_attr("outcome", "degraded");
        root_span.end();
        return Diva::new(config.clone()).degraded_fallback(
            rel,
            sigma,
            DegradeReason::WorkerPanic { detail },
        );
    }
    root_span.set_attr("outcome", "failure");
    root_span.end();
    Err(other.unwrap_or(DivaError::EmptyPortfolio))
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
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
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
        // Every member has stopped by the time the call returns, so
        // the root and every started member's span are already
        // recorded (members not started after the decision open none).
        let snap = obs.snapshot();
        let members: Vec<_> = snap.spans.iter().filter(|s| s.name == "portfolio.member").collect();
        let root_id = snap.spans.iter().find(|s| s.name == "portfolio.run").map(|s| s.id);
        assert!(root_id.is_some(), "portfolio.run recorded");
        assert!(!members.is_empty());
        for m in &members {
            assert_eq!(m.parent, root_id, "member spans parent to portfolio.run");
            assert!(m.attrs.iter().any(|(k, _)| k == "seed"), "member span carries its seed");
            assert!(m.attrs.iter().any(|(k, _)| k == "outcome"));
        }
        let done: u64 = ["success", "degraded", "cancelled", "panicked", "failure"]
            .iter()
            .map(|o| snap.counter(&format!("portfolio.{o}")).unwrap_or(0))
            .sum();
        assert_eq!(done, members.len() as u64, "one outcome count per member span");
        assert!(snap.counter("portfolio.success").unwrap_or(0) >= 1);
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
        // at 10 s so a regression fails rather than hangs). Losers
        // stop at their next poll, so the portfolio returns in roughly
        // the winner's wall-clock.
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
    fn losers_have_stopped_when_the_portfolio_returns() {
        // Two workers: MinChoice and MaxFanOut start together (the
        // barrier), MinChoice wins at once, and the MaxFanOut loser
        // polls the token, then takes 50 ms to wind down. Basic is
        // dequeued after the decision. Every member that entered the
        // runner has left it by the time the call returns.
        let entries = AtomicUsize::new(0);
        let exits = AtomicUsize::new(0);
        let both_started = Barrier::new(2);
        let r = paper_table1();
        let mut config = DivaConfig::with_k(2);
        config.threads = Some(2);
        let out = run_portfolio_with(&r, &[], &config, 1, |member, _rel, _sigma, controls| {
            entries.fetch_add(1, Ordering::SeqCst);
            let out = match member.strategy {
                Strategy::MinChoice => {
                    both_started.wait();
                    Ok(dummy_result())
                }
                Strategy::MaxFanOut => {
                    both_started.wait();
                    let start = Instant::now();
                    while !controls.is_cancelled() && start.elapsed() < Duration::from_secs(10) {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    std::thread::sleep(Duration::from_millis(50));
                    Err(DivaError::Cancelled)
                }
                Strategy::Basic => Err(DivaError::Cancelled),
            };
            exits.fetch_add(1, Ordering::SeqCst);
            out
        });
        let (entered, exited) = (entries.load(Ordering::SeqCst), exits.load(Ordering::SeqCst));
        assert!(out.unwrap().outcome.is_exact());
        assert!(entered >= 2);
        assert_eq!(entered, exited, "a loser was still running after the portfolio returned");
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
