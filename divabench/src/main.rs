//! DIVA benchmark runner: a single-process, closed-loop batch of one
//! seeded anonymization job at a time.
//!
//! ```text
//! cargo run --release --offline --manifest-path divabench/Cargo.toml -- \
//!     --workload medical-scale --seed 1 --seconds 40 --trace 0
//! ```
//!
//! The workload's instances (CSV and Σ text) are generated from
//! `--seed`; jobs then run back to back over them for `--seconds`, each
//! one verified. With `--trace 0` the run reports the end-to-end
//! metrics; with `--trace 1` it alternates untraced jobs with traced
//! recompositions and reports the per-layer metrics. The last line of
//! standard output is one JSON object: `correct`, `attempted`,
//! `failed`, `metrics`. `divabench/README.md` documents the workloads
//! and metrics.

mod job;
mod stats;
mod traced;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use diva_core::{DivaConfig, Strategy};

use crate::stats::{median, tail_percentile};
use crate::workload::{Inputs, Workload};

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else { return Err(format!("{} needs a value", pair[0])) };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| "--seconds must be an integer")?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Job accounting and everything that makes a run incorrect.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Tally {
    fn record<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        result
            .map_err(|e| {
                self.failed += 1;
                self.problems.push(format!("{what}: {e}"));
            })
            .ok()
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("divabench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One instance of the run, with its jobs.
struct Instance {
    inputs: Inputs,
    /// The first verified output; every later output, traced or not,
    /// must equal it byte for byte.
    reference: Option<String>,
    untraced: Vec<job::Measured>,
    traced: Vec<traced::TracedJob>,
}

/// The median of `f` over every job of every instance. Jobs rotate
/// over the instances, so each instance holds an equal share (±1) of
/// the samples; the median over all of them resists both one slow
/// instance and a stretch of slow jobs. For timings.
fn pooled<T>(instances: &[Instance], jobs: fn(&Instance) -> &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&instances.iter().flat_map(jobs).map(f).collect::<Vec<_>>())
}

/// The mean over instances of each instance's median of `f`. For
/// figures that are fixed per instance (the utility metrics), where
/// averaging the set beats picking its middle instance.
fn per_instance_mean(instances: &[Instance], f: fn(&job::Measured) -> f64) -> f64 {
    let medians: Vec<f64> = instances
        .iter()
        .filter(|i| !i.untraced.is_empty())
        .map(|i| median(&i.untraced.iter().map(f).collect::<Vec<_>>()))
        .collect();
    medians.iter().sum::<f64>() / medians.len() as f64
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let w = args.workload;
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let config = DivaConfig {
        k: w.k,
        strategy: Strategy::MaxFanOut,
        threads: Some(threads),
        ..DivaConfig::default()
    };
    let mut instances: Vec<Instance> = w
        .instances(args.seed)
        .into_iter()
        .map(|inputs| Instance {
            inputs,
            reference: None,
            untraced: Vec::new(),
            traced: Vec::new(),
        })
        .collect();
    for (i, inst) in instances.iter().enumerate() {
        let inp = &inst.inputs;
        println!(
            "workload {} seed {} instance {i}: {} rows, |Σ| = {}, k = {}, {}, threads {threads}, \
             {:.1} MiB of CSV",
            w.name,
            args.seed,
            inp.rows,
            inp.constraints,
            w.k,
            config.strategy,
            inp.csv.len() as f64 / (1024.0 * 1024.0)
        );
    }

    let mut tally = Tally::default();
    let mut self_tested = false;
    let mut tracer = traced::Tracer::new();
    let mut traced_id = 0;
    let start = Instant::now();
    // One job per instance in rotation until the time is up and every
    // instance has run at least once.
    for (n, i) in (0..instances.len()).cycle().enumerate() {
        let inst = &mut instances[i];
        let checked = job::run(&inst.inputs, &config).and_then(|j| {
            j.check(w.k)?;
            match &inst.reference {
                Some(r) if *r != j.text => {
                    return Err("output differs from the instance's first output".into())
                }
                Some(_) => {}
                None => {
                    // The first output is checked further: its text
                    // decodes to the verified table, and (once per
                    // run) the verifier must reject tampered copies.
                    job::check_text(&j, &inst.inputs)?;
                    if !self_tested {
                        job::self_test(&j, w.k)?;
                        self_tested = true;
                    }
                    inst.reference = Some(j.text.clone());
                }
            }
            Ok(j.measured)
        });
        if let Some(m) = tally.record("job", checked) {
            println!(
                "job {n} instance {i}: total_s {:.6} setup_s {:.6} solve_s {:.6} peak_rss_mib {:.3}",
                m.total_s, m.setup_s, m.solve_s, m.peak_rss_mib
            );
            inst.untraced.push(m);
        }
        if args.trace {
            traced_id += 1;
            let t = traced::run(&inst.inputs, &config, &mut tracer, traced_id).and_then(|t| {
                if inst.reference.as_ref() == Some(&t.text) {
                    Ok(t)
                } else {
                    Err("traced output differs from Diva::run's".into())
                }
            });
            if let Some(t) = tally.record("traced job", t) {
                inst.traced.push(t);
            }
        }
        if n + 1 >= instances.len() && start.elapsed() >= Duration::from_secs(args.seconds) {
            break;
        }
    }

    let metrics = if args.trace {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");
        let file = format!("{path}/{}-seed{}.jsonl", w.name, args.seed);
        std::fs::create_dir_all(path)
            .and_then(|()| std::fs::write(&file, tracer.to_jsonl()))
            .map_err(|e| format!("{file}: {e}"))?;
        let composed = instances.iter().flat_map(|i| &i.traced).all(|t| t.composed);
        println!(
            "traced run: spans in {file}; {}",
            if composed {
                "every layer composed from public calls, output equal to Diva::run's"
            } else {
                "colour, suppress, anonymize and integrate read from the program's spans \
                 (decomposed colouring has no public entry point)"
            }
        );
        layer_metrics(&instances)
    } else {
        end_to_end_metrics(&instances, &tally)
    };
    report(&metrics, &instances, &tally);
    Ok(())
}

fn end_to_end_metrics(instances: &[Instance], tally: &Tally) -> Vec<Metric> {
    let e2e = |f: fn(&job::Measured) -> f64| pooled(instances, |i| &i.untraced, f);
    vec![
        Metric { name: "total_s", unit: "s", value: e2e(|m| m.total_s) },
        Metric { name: "setup_s", unit: "s", value: e2e(|m| m.setup_s) },
        Metric { name: "solve_s", unit: "s", value: e2e(|m| m.solve_s) },
        Metric { name: "peak_rss_mib", unit: "MiB", value: e2e(|m| m.peak_rss_mib) },
        Metric {
            name: "accuracy",
            unit: "fraction",
            value: per_instance_mean(instances, |m| m.accuracy),
        },
        Metric {
            name: "disc_ratio",
            unit: "fraction",
            value: per_instance_mean(instances, |m| m.disc_ratio),
        },
        Metric {
            name: "success_frac",
            unit: "fraction",
            value: 1.0 - tally.failed as f64 / tally.attempted as f64,
        },
    ]
}

fn layer_metrics(instances: &[Instance]) -> Vec<Metric> {
    let mut out: Vec<Metric> = Vec::new();
    if let Some(first) = instances.iter().find_map(|i| i.traced.first()) {
        for (k, &(name, unit, _)) in first.metrics.iter().enumerate() {
            let value = pooled(instances, |i| &i.traced, |t| t.metrics[k].2);
            out.push(Metric { name, unit, value });
        }
    }
    // Each traced job against the untraced median of its own instance,
    // so the difference is not a difference of instance mixes.
    let overheads: Vec<f64> = instances
        .iter()
        .filter(|i| !i.untraced.is_empty())
        .flat_map(|i| {
            let untraced = median(&i.untraced.iter().map(|m| m.total_s).collect::<Vec<_>>());
            i.traced.iter().map(move |t| t.total_s - untraced)
        })
        .collect();
    let overhead = median(&overheads);
    out.push(Metric { name: "trace.overhead_s", unit: "s", value: overhead });
    out
}

/// Prints every metric by name with its unit, the failures, and as the
/// last line the JSON result.
fn report(metrics: &[Metric], instances: &[Instance], tally: &Tally) {
    for (i, inst) in instances.iter().enumerate() {
        let med =
            |f: fn(&job::Measured) -> f64| median(&inst.untraced.iter().map(f).collect::<Vec<_>>());
        println!(
            "instance {i}: {} jobs, total_s median {:.6} s, solve_s median {:.6} s, accuracy {:.6}",
            inst.untraced.len(),
            med(|m| m.total_s),
            med(|m| m.solve_s),
            med(|m| m.accuracy)
        );
    }
    let totals: Vec<f64> = instances.iter().flat_map(|i| &i.untraced).map(|m| m.total_s).collect();
    match tail_percentile(&totals) {
        Some((p, v)) => println!(
            "total_s: median {:.6} s, p{p} {v:.6} s over {} jobs",
            median(&totals),
            totals.len()
        ),
        None => println!(
            "total_s: median {:.6} s over {} jobs (too few for a percentile with 10 beyond it)",
            median(&totals),
            totals.len()
        ),
    }
    for m in metrics {
        println!("{:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<26} {:>16.6} fraction ({} failed of {} attempted)",
        "failed_frac",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    for p in &tally.problems {
        println!("FAILED {p}");
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = tally.failed == 0 && finite && !totals.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}
