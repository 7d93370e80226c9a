//! The traced run: the pipeline recomposed from each layer's public
//! entry point, in pipeline order, with one span per layer. Spans stay
//! in memory and are written out as JSON lines when the run ends.
//!
//! The decomposed colouring behind `Diva::run` (more than one
//! constraint-graph component) has no public entry point. On such
//! inputs the colour, suppress, anonymize and integrate layers are
//! read from the program's own `diva.components` / `diva.suppress` /
//! `diva.anonymize` / `diva.integrate` spans through
//! `DivaConfig::obs`, and `Diva::run`'s internal re-bind, graph build
//! and enumeration land in `unattributed.s`.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use diva_anonymize::{Anonymizer, KMember};
use diva_constraints::{spec, ConstraintSet};
use diva_core::integrate::integrate;
use diva_core::Outcome;
use diva_core::{components, CandidateSet, Coloring, ConstraintGraph, Diva, DivaConfig};
use diva_obs::{json::escape, Obs};
use diva_relation::csv::{read_relation, write_relation};
use diva_relation::suppress::suppress_clustering;

use crate::workload::Inputs;

/// One recorded span.
struct SpanRec {
    job: usize,
    name: String,
    parent: &'static str,
    start: Duration,
    dur: Duration,
    /// `bench` for spans the benchmark timed around a public call,
    /// `program` for spans read from the program's own trace.
    from: &'static str,
}

/// The in-memory span log of a traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    fn push(
        &mut self,
        job: usize,
        name: impl Into<String>,
        parent: &'static str,
        start: Instant,
        dur: Duration,
        from: &'static str,
    ) {
        let start = start - self.origin;
        self.spans.push(SpanRec { job, name: name.into(), parent, start, dur, from });
    }

    /// Runs `f` under a span and returns its result with its seconds.
    fn time<T>(
        &mut self,
        job: usize,
        name: impl Into<String>,
        parent: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        self.push(job, name, parent, start, dur, "bench");
        (out, dur.as_secs_f64())
    }

    /// The log as JSON lines, one span per line, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"job\":{},\"span\":\"{}\",\"parent\":\"{}\",\"start_s\":{},\"dur_s\":{},\"from\":\"{}\"}}",
                s.job,
                escape(&s.name),
                s.parent,
                s.start.as_secs_f64(),
                s.dur.as_secs_f64(),
                s.from
            );
        }
        out
    }
}

/// A finished traced job.
pub struct TracedJob {
    /// Per-layer metrics as `(name, unit, value)`, in the order of
    /// `BENCHMARK.json`'s `per_layer` list, without `trace.overhead_s`
    /// (a difference against the untraced jobs).
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Wall time of the traced job, ingest through write.
    pub total_s: f64,
    /// Whether every layer ran from its public entry point (otherwise
    /// colour through integrate came from the program's spans).
    pub composed: bool,
    /// The written output.
    pub text: String,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What the layers from colouring to integrate produced.
struct Solved {
    relation: diva_relation::Relation,
    color_s: f64,
    suppress_s: f64,
    anonymize_s: f64,
    integrate_s: f64,
    assignments: u64,
    backtracks: u64,
    residual_rows: usize,
    repairs: usize,
}

/// Runs one traced job as job number `job` of the run.
pub fn run(
    inp: &Inputs,
    config: &DivaConfig,
    tracer: &mut Tracer,
    job: usize,
) -> Result<TracedJob, String> {
    // From a trimmed heap, like the untraced job it is compared with.
    crate::stats::trim_heap();
    let t0 = Instant::now();
    let (input, ingest_s) =
        tracer.time(job, "ingest", "job", || read_relation(&inp.csv, &inp.roles));
    let input = input.map_err(|e| format!("ingest: {e}"))?;
    let (bound, bind_s) = tracer.time(job, "bind", "job", || {
        let sigma = spec::parse(&inp.sigma).map_err(|e| format!("parse Σ: {e}"))?;
        let set = ConstraintSet::bind(&sigma, &input).map_err(|e| format!("bind Σ: {e}"))?;
        Ok::<_, String>((sigma, set))
    });
    let (sigma, set) = bound?;
    let (graph, graph_s) = tracer.time(job, "graph", "job", || ConstraintGraph::build(&set));
    let (mut enumerate_s, mut enumerate_max_s) = (0.0, 0.0_f64);
    let mut candidates = Vec::with_capacity(set.len());
    let enumerate_start = Instant::now();
    for c in set.constraints() {
        let (cs, s) = tracer.time(job, format!("enumerate/{}", c.label()), "enumerate", || {
            CandidateSet::enumerate(&input, c, config.k, config.max_candidates, None)
        });
        enumerate_s += s;
        enumerate_max_s = enumerate_max_s.max(s);
        candidates.push(cs);
    }
    tracer.push(job, "enumerate", "job", enumerate_start, enumerate_start.elapsed(), "bench");
    let n_candidates: usize = candidates.iter().map(CandidateSet::len).sum();
    let (comps, decompose_s) = tracer.time(job, "decompose", "job", || components(&graph));

    let composed = comps.len() <= 1;
    let solved = if composed {
        let uppers: Vec<usize> = set.constraints().iter().map(|c| c.upper).collect();
        let labels: Vec<String> = set.constraints().iter().map(|c| c.label()).collect();
        let (coloring, color_s) = tracer.time(job, "color", "job", || {
            Coloring::new(&graph, &candidates, uppers, &labels, config).solve()
        });
        let coloring = coloring.map_err(|e| format!("color: {e}"))?;
        if let Some(reason) = coloring.degraded {
            return Err(format!("color degraded: {reason}"));
        }
        let s_sigma = coloring.clusters;
        let mut covered = vec![false; input.n_rows()];
        for &r in s_sigma.iter().flatten() {
            covered[r] = true;
        }
        let rest: Vec<usize> = (0..input.n_rows()).filter(|&r| !covered[r]).collect();
        if !rest.is_empty() && rest.len() < config.k {
            return Err(format!(
                "{} residual rows < k: the residual fold has no public entry point",
                rest.len()
            ));
        }
        let (r_sigma, suppress_s) =
            tracer.time(job, "suppress", "job", || suppress_clustering(&input, &s_sigma));
        let (r_k, anonymize_s) = tracer.time(job, "anonymize", "job", || {
            (!rest.is_empty()).then(|| {
                let kmember = KMember { seed: config.seed, ..KMember::default() };
                suppress_clustering(&input, &kmember.cluster(&input, &rest, config.k))
            })
        });
        let (out, integrate_s) =
            tracer.time(job, "integrate", "job", || integrate(&r_sigma, r_k.as_ref(), &set));
        let out = out.map_err(|e| format!("integrate: {e}"))?;
        Solved {
            relation: out.relation,
            color_s,
            suppress_s,
            anonymize_s,
            integrate_s,
            assignments: coloring.stats.assignments_tried,
            backtracks: coloring.stats.backtracks,
            residual_rows: rest.len(),
            repairs: out.repairs,
        }
    } else {
        solve_from_program_spans(&input, &sigma, config, tracer, job)?
    };
    let (text, write_s) = tracer.time(job, "write", "job", || write_relation(&solved.relation));
    let total = t0.elapsed();
    tracer.push(job, "job", "", t0, total, "bench");
    let total_s = total.as_secs_f64();

    let layers_s = ingest_s
        + bind_s
        + graph_s
        + enumerate_s
        + decompose_s
        + solved.color_s
        + solved.suppress_s
        + solved.anonymize_s
        + solved.integrate_s
        + write_s;
    let nodes = graph.n_nodes() as f64;
    let assignments = solved.assignments as f64;
    let residual = solved.residual_rows as f64;
    let metrics = vec![
        ("ingest.s", "s", ingest_s),
        ("ingest.mib_per_s", "MiB/s", ratio(inp.csv.len() as f64 / (1024.0 * 1024.0), ingest_s)),
        ("bind.s", "s", bind_s),
        ("graph.s", "s", graph_s),
        ("graph.edges", "count", graph.n_edges() as f64),
        ("enumerate.s", "s", enumerate_s),
        ("enumerate.max_s", "s", enumerate_max_s),
        ("enumerate.candidates", "count", n_candidates as f64),
        ("enumerate.used_ratio", "ratio", ratio(nodes, n_candidates as f64)),
        ("decompose.components", "count", comps.len() as f64),
        ("decompose.s", "s", decompose_s),
        ("color.s", "s", solved.color_s),
        ("color.assignments", "count", assignments),
        ("color.backtracks", "count", solved.backtracks as f64),
        ("color.useful_ratio", "ratio", ratio(nodes, assignments)),
        ("color.us_per_assignment", "us", ratio(solved.color_s * 1e6, assignments)),
        ("suppress.s", "s", solved.suppress_s),
        ("anonymize.s", "s", solved.anonymize_s),
        ("anonymize.residual_rows", "count", residual),
        ("anonymize.rows_per_s", "rows/s", ratio(residual, solved.anonymize_s)),
        ("integrate.s", "s", solved.integrate_s),
        ("integrate.repairs", "count", solved.repairs as f64),
        ("write.s", "s", write_s),
        ("unattributed.s", "s", total_s - layers_s),
    ];
    Ok(TracedJob { metrics, total_s, composed, text })
}

/// Colour through integrate for inputs the public calls cannot
/// compose: one `Diva::run` with the program's tracing on, its layer
/// spans copied into the benchmark's log.
fn solve_from_program_spans(
    input: &diva_relation::Relation,
    sigma: &[diva_constraints::Constraint],
    config: &DivaConfig,
    tracer: &mut Tracer,
    job: usize,
) -> Result<Solved, String> {
    let obs = Obs::enabled();
    let obs_origin = Instant::now();
    let traced = DivaConfig { obs: obs.clone(), ..config.clone() };
    let result = Diva::new(traced).run(input, sigma).map_err(|e| format!("solve: {e}"))?;
    if let Outcome::Degraded { reason } = &result.outcome {
        return Err(format!("degraded outcome: {reason}"));
    }
    let snap = obs.snapshot();
    let mut span_s = |name: &str, parent: &'static str| {
        let mut total = Duration::ZERO;
        for s in snap.spans.iter().filter(|s| s.name == name) {
            let dur = Duration::from_micros(s.dur_us);
            let start = obs_origin + Duration::from_micros(s.start_us);
            tracer.push(job, name, parent, start, dur, "program");
            total += dur;
        }
        total.as_secs_f64()
    };
    span_s("diva.run", "job");
    Ok(Solved {
        // The components' `coloring.solve` spans run on the worker
        // pool inside `diva.components`, whose wall time is the layer's.
        color_s: span_s("diva.components", "diva.run"),
        suppress_s: span_s("diva.suppress", "diva.run"),
        anonymize_s: span_s("diva.anonymize", "diva.run"),
        integrate_s: span_s("diva.integrate", "diva.run"),
        assignments: result.stats.coloring.assignments_tried,
        backtracks: result.stats.coloring.backtracks,
        residual_rows: input.n_rows() - result.stats.sigma_rows,
        repairs: result.stats.integrate_repairs,
        relation: result.relation,
    })
}
