//! Workspace-level observability tests: trace completeness of a full
//! pipeline run, byte-identical output with obs on vs off, and a
//! disabled-mode overhead smoke (gated by `SKIP_BENCH=1` like the
//! bench stage of `scripts/check.sh`).

use diva_constraints::Constraint;
use diva_core::{Diva, DivaConfig, Strategy};
use diva_obs::{json, Obs, Stopwatch};
use diva_relation::Relation;

fn workload() -> (Relation, Vec<Constraint>) {
    let rel = diva_datagen::medical(400, 7);
    let sigma = diva_constraints::generators::proportional(&rel, 5, 0.7, 20);
    (rel, sigma)
}

fn run_with(obs: Obs) -> diva_core::DivaResult {
    let (rel, sigma) = workload();
    let config = DivaConfig { k: 5, strategy: Strategy::MaxFanOut, obs, ..DivaConfig::default() };
    Diva::new(config).run(&rel, &sigma).expect("workload solves")
}

/// Every phase of the pipeline must appear in the exported trace, the
/// trace must be valid JSON-lines, and the summary must aggregate the
/// same spans — the same contract `trace-check` enforces in check.sh.
#[test]
fn full_run_trace_is_complete_and_parses() {
    let obs = Obs::enabled();
    run_with(obs.clone());
    let snapshot = obs.snapshot();

    let trace = snapshot.trace_jsonl();
    let mut names = Vec::new();
    for line in trace.lines() {
        let v = json::parse(line).expect("trace line parses");
        assert_eq!(v.get("type").and_then(|t| t.as_str()), Some("span"));
        if let Some(name) = v.get("name").and_then(|n| n.as_str()) {
            names.push(name.to_string());
        }
    }
    for required in
        ["diva.run", "diva.clustering", "diva.suppress", "diva.anonymize", "diva.integrate"]
    {
        assert!(names.iter().any(|n| n == required), "trace lacks {required}");
    }

    let summary = json::parse(&snapshot.summary_json()).expect("summary parses");
    let spans = summary.get("spans").expect("spans section");
    assert!(spans.get("diva.run").is_some(), "summary lacks diva.run");
    let counters = summary.get("counters").expect("counters section");
    assert!(
        counters.get("coloring.MaxFanOut.node_selections").is_some(),
        "summary lacks per-strategy colouring counters"
    );
    let histograms = summary.get("histograms").expect("histograms section");
    assert!(histograms.get("cluster.size").is_some(), "summary lacks cluster.size");
}

/// Enabling tracing must not perturb the published relation: the obs
/// handle only observes, all decisions flow from `DivaConfig::seed`.
#[test]
fn enabled_and_disabled_obs_agree_byte_for_byte() {
    let obs = Obs::enabled();
    let plain = run_with(Obs::disabled());
    let traced = run_with(obs.clone());
    assert_eq!(format!("{:?}", plain.relation), format!("{:?}", traced.relation));
    assert_eq!(plain.groups, traced.groups);
    assert_eq!(plain.source_rows, traced.source_rows);
    assert_eq!(plain.stats.coloring, traced.stats.coloring);
    // Without an installed counting allocator (this test binary has
    // none), memory attribution stays off: no per-phase totals in the
    // stats and no alloc fields in the exports, so the trace and
    // summary stay byte-identical to the pre-profiling schema.
    assert!(plain.stats.alloc.is_none(), "disabled obs must not attribute memory");
    assert!(traced.stats.alloc.is_none(), "no allocator installed, alloc must be None");
    let snapshot = obs.snapshot();
    assert!(
        !snapshot.trace_jsonl().contains("alloc_bytes"),
        "trace must omit alloc fields without a counting allocator"
    );
    assert!(
        !snapshot.summary_json().contains("alloc_bytes"),
        "summary must omit alloc totals without a counting allocator"
    );
}

/// Live telemetry must be observational only: a run with an enabled
/// progress board (sampler attached, exactly what `--stats-addr` and
/// `--watch` wire up) publishes the same relation, groups, and search
/// stats as the plain run, and the board's final counters agree with
/// the search's own statistics.
#[test]
fn enabled_board_keeps_output_byte_identical() {
    let (rel, sigma) = workload();
    let run_with_board = |board: diva_obs::live::ProgressBoard| {
        let config =
            DivaConfig { k: 5, strategy: Strategy::MaxFanOut, board, ..DivaConfig::default() };
        Diva::new(config).run(&rel, &sigma).expect("workload solves")
    };
    let plain = run_with_board(diva_obs::live::ProgressBoard::disabled());
    let board = diva_obs::live::ProgressBoard::enabled();
    let sampler = diva_obs::live::Sampler::spawn(
        &board,
        &Obs::disabled(),
        diva_obs::live::SamplerConfig {
            interval: std::time::Duration::from_millis(1),
            ..diva_obs::live::SamplerConfig::default()
        },
        None,
    );
    let live = run_with_board(board.clone());
    sampler.stop();
    assert_eq!(format!("{:?}", plain.relation), format!("{:?}", live.relation));
    assert_eq!(plain.groups, live.groups);
    assert_eq!(plain.source_rows, live.source_rows);
    assert_eq!(plain.stats.coloring, live.stats.coloring);
    let snap = board.read().expect("enabled board snapshots");
    assert_eq!(snap.phase, diva_obs::live::Phase::Done);
    assert_eq!(snap.nodes, live.stats.coloring.assignments_tried, "board nodes == search nodes");
    assert_eq!(snap.satisfied, sigma.len() as u64, "exact run satisfies all of sigma");
    assert_eq!(snap.voided, 0);
    assert!(!snap.stalled, "a healthy run must not be flagged");
}

/// Disabled-mode overhead smoke: a run with the default (disabled)
/// handle must not be grossly slower than the enabled run is — the
/// precise < 2% budget is measured in release mode by the perf bench
/// (`obs_overhead` in `BENCH_diva.json`); this debug-mode smoke only
/// guards against a pathological regression (e.g. the disabled path
/// taking a lock per event). Set `SKIP_BENCH=1` to skip.
#[test]
fn disabled_mode_overhead_smoke() {
    if std::env::var("SKIP_BENCH").as_deref() == Ok("1") {
        return;
    }
    let time = |obs: Obs| {
        let t = Stopwatch::start();
        run_with(obs);
        t.elapsed().as_secs_f64()
    };
    // Best of 3 per mode, interleaved: the other tests in this binary
    // run concurrently, so timing one mode's reps before the other's
    // would charge their load to whichever mode ran first.
    let (mut disabled, mut enabled) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        disabled = disabled.min(time(Obs::disabled()));
        enabled = enabled.min(time(Obs::enabled()));
    }
    // Debug builds are noisy; 1.5x is far above any plausible real
    // overhead yet still catches accidental hot-path work.
    assert!(
        disabled <= enabled * 1.5,
        "disabled obs ({disabled:.4}s) much slower than enabled ({enabled:.4}s)"
    );
}
