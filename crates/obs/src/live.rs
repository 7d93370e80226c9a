//! Live, in-flight telemetry: a lock-free [`ProgressBoard`] of atomic
//! cells published from the pipeline's existing cancellation poll
//! points, a background [`Sampler`] thread that snapshots the board
//! into a ring buffer and derives rates, and a stall watchdog that
//! flags runs whose node counter stops advancing.
//!
//! ## Model
//!
//! * [`ProgressBoard`] mirrors the [`crate::Obs`] handle shape: an
//!   `Option<Arc<…>>` where the **disabled** default short-circuits
//!   every publish on one branch and allocates nothing, so a run with
//!   live telemetry off is byte-identical to one predating this
//!   module. Every cell is a plain atomic written with `Relaxed`
//!   stores — the hot path (the colouring search's poll in
//!   `core::coloring`, the pool workers, the anonymizer's stop
//!   probes) pays one predictable branch plus one relaxed RMW.
//! * [`Sampler::spawn`] starts a thread that sleeps on a configurable
//!   interval, snapshots the board, folds the live allocator stats in
//!   ([`crate::alloc::global_stats`]), derives nodes/sec and
//!   repairs/sec from consecutive snapshots plus an ETA against the
//!   armed budget, and appends the [`Sample`] to a bounded ring
//!   buffer ([`SampleLog`]) that the stats endpoint
//!   ([`crate::serve`]) and `diva --watch` read.
//! * The **watchdog** rides inside the sampler loop: when the node
//!   counter has not advanced for `stall_periods` consecutive samples
//!   while the board reports an active phase, it marks the board
//!   stalled, emits a `diva.stall` span event and an
//!   `obs.stall.detected` counter, and — when
//!   [`SamplerConfig::escalate`] is set — raises the board's
//!   degrade-request flag, which the coloring poll converts into
//!   budget-style graceful degradation (`DegradeReason::Stalled`)
//!   instead of a hard cancel.
//!
//! The board never *reads back* into the computation (the single
//! exception is the explicit degrade-request flag), so enabling it
//! cannot change the published anonymization.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::{Obs, Stopwatch};

/// Pipeline phase codes published on the board.
///
/// The numeric codes are part of the stats-endpoint contract
/// (`diva_phase` in the Prometheus exposition, `live.phase_code` in
/// the JSON document) — see DESIGN.md §14.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// No run in flight (board default).
    Idle,
    /// Graph build + diverse clustering search.
    Clustering,
    /// Suppression of clustered rows.
    Suppress,
    /// (k,Σ)-anonymization of the residual.
    Anonymize,
    /// Merging published blocks into the output relation.
    Integrate,
    /// Budget-exhausted degradation path.
    Degrade,
    /// Run finished (exact or degraded).
    Done,
}

impl Phase {
    /// Stable numeric code for the exposition formats.
    pub fn code(self) -> u64 {
        match self {
            Phase::Idle => 0,
            Phase::Clustering => 1,
            Phase::Suppress => 2,
            Phase::Anonymize => 3,
            Phase::Integrate => 4,
            Phase::Degrade => 5,
            Phase::Done => 6,
        }
    }

    /// Inverse of [`Phase::code`]; unknown codes collapse to `Idle`.
    pub fn from_code(code: u64) -> Phase {
        match code {
            1 => Phase::Clustering,
            2 => Phase::Suppress,
            3 => Phase::Anonymize,
            4 => Phase::Integrate,
            5 => Phase::Degrade,
            6 => Phase::Done,
            _ => Phase::Idle,
        }
    }

    /// Lower-case label used in `diva_phase{phase="…"}`.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Idle => "idle",
            Phase::Clustering => "clustering",
            Phase::Suppress => "suppress",
            Phase::Anonymize => "anonymize",
            Phase::Integrate => "integrate",
            Phase::Degrade => "degrade",
            Phase::Done => "done",
        }
    }

    /// Whether the watchdog should treat a static node counter in
    /// this phase as a stall. Only the search phase expands nodes;
    /// counting idle periods in any other phase would be a false
    /// positive by construction.
    pub fn watchdog_armed(self) -> bool {
        matches!(self, Phase::Clustering)
    }
}

/// The atomic cells behind an enabled board.
#[derive(Debug)]
struct Cells {
    origin: Stopwatch,
    phase: AtomicU64,
    nodes: AtomicU64,
    repairs: AtomicU64,
    satisfied: AtomicU64,
    voided: AtomicU64,
    constraints_total: AtomicU64,
    components_done: AtomicU64,
    components_total: AtomicU64,
    node_limit: AtomicU64,
    deadline_ms: AtomicU64,
    live_alloc_bytes: AtomicI64,
    stalled: AtomicBool,
    degrade_requested: AtomicBool,
    constraint_stars: Mutex<Vec<(String, u64)>>,
}

impl Cells {
    fn new() -> Self {
        Cells {
            origin: Stopwatch::start(),
            phase: AtomicU64::new(0),
            nodes: AtomicU64::new(0),
            repairs: AtomicU64::new(0),
            satisfied: AtomicU64::new(0),
            voided: AtomicU64::new(0),
            constraints_total: AtomicU64::new(0),
            components_done: AtomicU64::new(0),
            components_total: AtomicU64::new(0),
            node_limit: AtomicU64::new(0),
            deadline_ms: AtomicU64::new(0),
            live_alloc_bytes: AtomicI64::new(0),
            stalled: AtomicBool::new(false),
            degrade_requested: AtomicBool::new(false),
            constraint_stars: Mutex::new(Vec::new()),
        }
    }
}

/// A lock-free progress board: one cell per live quantity, published
/// with relaxed atomic stores from the pipeline's poll points and
/// read by the sampler/endpoint without coordination.
///
/// Cheap to clone (an `Option<Arc<…>>`); the disabled default is a
/// no-op on every method, preserving the byte-identical-output
/// contract of runs without live telemetry.
#[derive(Debug, Clone, Default)]
pub struct ProgressBoard {
    cells: Option<Arc<Cells>>,
}

impl ProgressBoard {
    /// A live board (allocates the cell block).
    pub fn enabled() -> Self {
        ProgressBoard { cells: Some(Arc::new(Cells::new())) }
    }

    /// The inert board: every publish is one branch, every read is
    /// `None`/zero. Identical to `ProgressBoard::default()`.
    pub fn disabled() -> Self {
        ProgressBoard { cells: None }
    }

    /// Whether this handle points at live cells.
    pub fn is_enabled(&self) -> bool {
        self.cells.is_some()
    }

    /// Publishes the current pipeline phase.
    pub fn set_phase(&self, phase: Phase) {
        if let Some(c) = &self.cells {
            c.phase.store(phase.code(), Ordering::Relaxed);
        }
    }

    /// Current phase (`Idle` when disabled).
    pub fn phase(&self) -> Phase {
        match &self.cells {
            Some(c) => Phase::from_code(c.phase.load(Ordering::Relaxed)),
            None => Phase::Idle,
        }
    }

    /// Adds to the nodes-expanded counter (called at each colouring
    /// poll and solve exit with the assignments tried since the last).
    #[inline]
    pub fn add_nodes(&self, n: u64) {
        if let Some(c) = &self.cells {
            c.nodes.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds to the repair-attempts counter.
    #[inline]
    pub fn add_repairs(&self, n: u64) {
        if let Some(c) = &self.cells {
            c.repairs.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds to the constraints-satisfied counter.
    pub fn add_satisfied(&self, n: u64) {
        if let Some(c) = &self.cells {
            c.satisfied.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds to the constraints-voided counter (degradation path).
    pub fn add_voided(&self, n: u64) {
        if let Some(c) = &self.cells {
            c.voided.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Publishes the size of the bound constraint set Σ.
    pub fn set_constraints_total(&self, n: u64) {
        if let Some(c) = &self.cells {
            c.constraints_total.store(n, Ordering::Relaxed);
        }
    }

    /// Publishes how many connected components the solve decomposed
    /// into (1 for the monolithic path).
    pub fn set_components_total(&self, n: u64) {
        if let Some(c) = &self.cells {
            c.components_total.store(n, Ordering::Relaxed);
        }
    }

    /// Marks one component solved (pool worker completion).
    pub fn component_finished(&self) {
        if let Some(c) = &self.cells {
            c.components_done.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Publishes the armed budget limits: the node budget (if any)
    /// and the deadline in milliseconds (if any). Zero cells mean
    /// "unlimited" in the exposition.
    pub fn set_budget_limits(&self, node_limit: Option<u64>, deadline: Option<Duration>) {
        if let Some(c) = &self.cells {
            c.node_limit.store(node_limit.unwrap_or(0), Ordering::Relaxed);
            let ms = deadline.map(|d| d.as_millis() as u64).unwrap_or(0);
            c.deadline_ms.store(ms, Ordering::Relaxed);
        }
    }

    /// Publishes the process-wide live allocation byte count (written
    /// by the sampler from [`crate::alloc::global_stats`], not by the
    /// hot path).
    pub fn set_live_alloc_bytes(&self, bytes: i64) {
        if let Some(c) = &self.cells {
            c.live_alloc_bytes.store(bytes, Ordering::Relaxed);
        }
    }

    /// Publishes the per-constraint star attribution `(label, stars)`
    /// computed by the provenance recorder at run completion. Unlike
    /// the atomic cells this is a labeled vector behind a mutex —
    /// written once per run, never from a hot path.
    pub fn set_constraint_stars(&self, pairs: Vec<(String, u64)>) {
        if let Some(c) = &self.cells {
            *c.constraint_stars.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = pairs;
        }
    }

    /// Sets or clears the watchdog's stall flag.
    pub fn set_stalled(&self, stalled: bool) {
        if let Some(c) = &self.cells {
            c.stalled.store(stalled, Ordering::Relaxed);
        }
    }

    /// Whether the watchdog currently considers the run stalled.
    pub fn stalled(&self) -> bool {
        match &self.cells {
            Some(c) => c.stalled.load(Ordering::Relaxed),
            None => false,
        }
    }

    /// Raises the degrade-request flag. The coloring poll converts
    /// this into `Stop::Degrade(DegradeReason::Stalled)` — the same
    /// graceful path a budget exhaustion takes — rather than a hard
    /// cancellation error.
    pub fn request_degrade(&self) {
        if let Some(c) = &self.cells {
            c.degrade_requested.store(true, Ordering::Relaxed);
        }
    }

    /// Whether a watchdog escalation is pending (polled from the
    /// coloring hot loop; one branch + one relaxed load).
    #[inline]
    pub fn degrade_requested(&self) -> bool {
        match &self.cells {
            Some(c) => c.degrade_requested.load(Ordering::Relaxed),
            None => false,
        }
    }

    /// Reads every cell into a consistent-enough view (individual
    /// relaxed loads; monotone counters may be mid-update, which the
    /// exposition tolerates). `None` when the board is disabled.
    pub fn read(&self) -> Option<BoardSnapshot> {
        let c = self.cells.as_ref()?;
        Some(BoardSnapshot {
            phase: Phase::from_code(c.phase.load(Ordering::Relaxed)),
            nodes: c.nodes.load(Ordering::Relaxed),
            repairs: c.repairs.load(Ordering::Relaxed),
            satisfied: c.satisfied.load(Ordering::Relaxed),
            voided: c.voided.load(Ordering::Relaxed),
            constraints_total: c.constraints_total.load(Ordering::Relaxed),
            components_done: c.components_done.load(Ordering::Relaxed),
            components_total: c.components_total.load(Ordering::Relaxed),
            node_limit: c.node_limit.load(Ordering::Relaxed),
            deadline_ms: c.deadline_ms.load(Ordering::Relaxed),
            live_alloc_bytes: c.live_alloc_bytes.load(Ordering::Relaxed),
            stalled: c.stalled.load(Ordering::Relaxed),
            elapsed_ms: c.origin.elapsed().as_millis() as u64,
            constraint_stars: c
                .constraint_stars
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .clone(),
        })
    }
}

/// A point-in-time view of every board cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoardSnapshot {
    /// Current pipeline phase.
    pub phase: Phase,
    /// Search nodes expanded so far (poll-stride granularity).
    pub nodes: u64,
    /// Repair attempts so far.
    pub repairs: u64,
    /// Constraints satisfied by formed clusters so far.
    pub satisfied: u64,
    /// Constraints voided on the degradation path so far.
    pub voided: u64,
    /// Size of the bound constraint set Σ.
    pub constraints_total: u64,
    /// Components solved so far.
    pub components_done: u64,
    /// Total components in the decomposition (0 before clustering).
    pub components_total: u64,
    /// Armed node budget (0 = unlimited).
    pub node_limit: u64,
    /// Armed deadline in ms (0 = none).
    pub deadline_ms: u64,
    /// Live allocation bytes (0 unless the counting allocator is
    /// installed and the sampler is running).
    pub live_alloc_bytes: i64,
    /// Watchdog stall flag.
    pub stalled: bool,
    /// Milliseconds since the board was created.
    pub elapsed_ms: u64,
    /// Per-constraint star attribution `(label, stars)` published at
    /// run completion (empty until then, or without provenance).
    pub constraint_stars: Vec<(String, u64)>,
}

/// Sampler tuning knobs.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Sleep between samples. Default 100ms.
    pub interval: Duration,
    /// Consecutive idle samples (node counter static while the board
    /// is mid-search) before the watchdog declares a stall. Default 5.
    pub stall_periods: u32,
    /// When set, a detected stall also raises the board's
    /// degrade-request flag so the run winds down gracefully.
    pub escalate: bool,
    /// Ring-buffer capacity for retained samples. Default 240.
    pub ring_capacity: usize,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            interval: Duration::from_millis(100),
            stall_periods: 5,
            escalate: false,
            ring_capacity: 240,
        }
    }
}

/// One sampler tick: the board view plus derived quantities.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The board at this tick.
    pub board: BoardSnapshot,
    /// Node-expansion rate over the last inter-sample window.
    pub nodes_per_sec: f64,
    /// Repair rate over the last inter-sample window.
    pub repairs_per_sec: f64,
    /// Projected ms until the node budget is exhausted at the current
    /// rate (`None` without a node budget or while the rate is zero).
    pub eta_ms: Option<u64>,
    /// Ms left before the armed deadline (`None` without one).
    pub deadline_remaining_ms: Option<u64>,
    /// Consecutive idle periods the watchdog has counted at this tick.
    pub idle_periods: u32,
}

impl Sample {
    /// The one-line rendering `diva --watch` prints per sample.
    pub fn watch_line(&self) -> String {
        let b = &self.board;
        let mut line = format!(
            "[live +{:>6}ms] phase={:<10} nodes={} ({:.0}/s) repairs={} ({:.0}/s)",
            b.elapsed_ms,
            b.phase.as_str(),
            b.nodes,
            self.nodes_per_sec,
            b.repairs,
            self.repairs_per_sec,
        );
        if b.components_total > 0 {
            line.push_str(&format!(" comps={}/{}", b.components_done, b.components_total));
        }
        if b.constraints_total > 0 {
            line.push_str(&format!(" sigma={}+{}/{}", b.satisfied, b.voided, b.constraints_total));
        }
        if b.live_alloc_bytes != 0 {
            line.push_str(&format!(" live_alloc={}B", b.live_alloc_bytes));
        }
        match (self.eta_ms, self.deadline_remaining_ms) {
            (Some(eta), Some(rem)) => line.push_str(&format!(" eta={eta}ms/deadline={rem}ms")),
            (Some(eta), None) => line.push_str(&format!(" eta={eta}ms")),
            (None, Some(rem)) => line.push_str(&format!(" deadline={rem}ms")),
            (None, None) => {}
        }
        if b.stalled {
            line.push_str(" STALLED");
        }
        line
    }
}

#[derive(Debug)]
struct LogInner {
    samples: VecDeque<Sample>,
    capacity: usize,
    total: u64,
    stalls_flagged: u64,
}

/// A bounded, shared ring buffer of [`Sample`]s — the hand-off point
/// between the sampler thread and its readers (the stats endpoint,
/// `--watch`, tests).
#[derive(Debug, Clone)]
pub struct SampleLog {
    inner: Arc<Mutex<LogInner>>,
}

impl SampleLog {
    /// An empty log retaining at most `capacity` samples — normally
    /// created by [`Sampler::spawn`]; standalone construction exists
    /// for serving a board that has no sampler attached.
    pub fn new(capacity: usize) -> Self {
        SampleLog {
            inner: Arc::new(Mutex::new(LogInner {
                samples: VecDeque::new(),
                capacity: capacity.max(1),
                total: 0,
                stalls_flagged: 0,
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LogInner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn push(&self, sample: Sample, stalled_now: bool) {
        let mut g = self.lock();
        if g.samples.len() == g.capacity {
            g.samples.pop_front();
        }
        g.samples.push_back(sample);
        g.total += 1;
        if stalled_now {
            g.stalls_flagged += 1;
        }
    }

    /// The most recent sample, if any tick has happened yet.
    pub fn latest(&self) -> Option<Sample> {
        self.lock().samples.back().cloned()
    }

    /// All retained samples, oldest first.
    pub fn samples(&self) -> Vec<Sample> {
        self.lock().samples.iter().cloned().collect()
    }

    /// Lifetime tick count (≥ retained length once the ring wraps).
    pub fn total_samples(&self) -> u64 {
        self.lock().total
    }

    /// How many distinct stall episodes the watchdog has flagged.
    pub fn stalls_flagged(&self) -> u64 {
        self.lock().stalls_flagged
    }
}

/// Per-sample callback used by `diva --watch` (runs on the sampler
/// thread; keep it cheap).
pub type OnSample = Box<dyn Fn(&Sample) + Send>;

/// The background sampling thread. Stops (and joins) on
/// [`Sampler::stop`] or drop.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    log: SampleLog,
}

impl std::fmt::Debug for Sampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sampler").field("running", &self.handle.is_some()).finish()
    }
}

impl Sampler {
    /// Starts the sampler thread over `board`, recording stall events
    /// against `obs` (pass a disabled handle to skip span/counter
    /// emission), invoking `on_sample` after every tick.
    pub fn spawn(
        board: &ProgressBoard,
        obs: &Obs,
        config: SamplerConfig,
        on_sample: Option<OnSample>,
    ) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let log = SampleLog::new(config.ring_capacity);
        let thread_stop = Arc::clone(&stop);
        let thread_board = board.clone();
        let thread_obs = obs.clone();
        let thread_log = log.clone();
        let handle = std::thread::spawn(move || {
            sampler_loop(&thread_board, &thread_obs, &config, &thread_log, on_sample, &thread_stop);
        });
        Sampler { stop, handle: Some(handle), log }
    }

    /// A cloneable reader over the sample ring buffer.
    pub fn log(&self) -> SampleLog {
        self.log.clone()
    }

    /// Signals the thread and joins it (also runs on drop).
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn sampler_loop(
    board: &ProgressBoard,
    obs: &Obs,
    config: &SamplerConfig,
    log: &SampleLog,
    on_sample: Option<OnSample>,
    stop: &AtomicBool,
) {
    let mut prev: Option<BoardSnapshot> = None;
    let mut idle_periods: u32 = 0;
    let mut stall_latched = false;
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(config.interval);
        board.set_live_alloc_bytes(crate::alloc::global_stats().live_bytes);
        let Some(snap) = board.read() else { return };
        let (nodes_per_sec, repairs_per_sec) = match &prev {
            Some(p) if snap.elapsed_ms > p.elapsed_ms => {
                let dt = (snap.elapsed_ms - p.elapsed_ms) as f64 / 1000.0;
                (
                    snap.nodes.saturating_sub(p.nodes) as f64 / dt,
                    snap.repairs.saturating_sub(p.repairs) as f64 / dt,
                )
            }
            _ => (0.0, 0.0),
        };
        // Watchdog: count consecutive samples where the search is
        // live but the node counter is frozen. `nodes > 0` gates the
        // count so candidate generation — which runs inside the
        // clustering phase before the first assignment — cannot trip
        // it; any search that began expanding has published ≥ 1 node.
        let advanced = prev.as_ref().map(|p| snap.nodes > p.nodes).unwrap_or(snap.nodes > 0);
        if snap.phase.watchdog_armed() && snap.nodes > 0 && !advanced {
            idle_periods += 1;
        } else {
            idle_periods = 0;
            if stall_latched {
                stall_latched = false;
                board.set_stalled(false);
            }
        }
        let mut flagged_now = false;
        if idle_periods >= config.stall_periods && !stall_latched {
            stall_latched = true;
            flagged_now = true;
            board.set_stalled(true);
            obs.counter("obs.stall.detected").incr();
            obs.span("diva.stall")
                .attr("nodes", snap.nodes)
                .attr("idle_periods", u64::from(idle_periods))
                .attr("phase", snap.phase.as_str())
                .end();
            if config.escalate {
                board.request_degrade();
            }
        }
        let snap = match board.read() {
            // Re-read so the sample reflects the stall flag we just set.
            Some(s) if flagged_now => s,
            _ => snap,
        };
        let eta_ms = if snap.node_limit > 0 && nodes_per_sec > 0.0 {
            let remaining = snap.node_limit.saturating_sub(snap.nodes) as f64;
            Some((remaining / nodes_per_sec * 1000.0) as u64)
        } else {
            None
        };
        let deadline_remaining_ms = if snap.deadline_ms > 0 {
            Some(snap.deadline_ms.saturating_sub(snap.elapsed_ms))
        } else {
            None
        };
        let sample = Sample {
            board: snap.clone(),
            nodes_per_sec,
            repairs_per_sec,
            eta_ms,
            deadline_remaining_ms,
            idle_periods,
        };
        if let Some(cb) = &on_sample {
            cb(&sample);
        }
        log.push(sample, flagged_now);
        prev = Some(snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_board_is_inert() {
        let board = ProgressBoard::disabled();
        assert!(!board.is_enabled());
        board.set_phase(Phase::Clustering);
        board.add_nodes(10);
        board.add_repairs(1);
        board.request_degrade();
        assert!(!board.degrade_requested());
        assert_eq!(board.phase(), Phase::Idle);
        assert!(board.read().is_none());
    }

    #[test]
    fn default_is_disabled() {
        assert!(!ProgressBoard::default().is_enabled());
    }

    #[test]
    fn phase_codes_round_trip() {
        for phase in [
            Phase::Idle,
            Phase::Clustering,
            Phase::Suppress,
            Phase::Anonymize,
            Phase::Integrate,
            Phase::Degrade,
            Phase::Done,
        ] {
            assert_eq!(Phase::from_code(phase.code()), phase);
            assert!(!phase.as_str().is_empty());
        }
        assert_eq!(Phase::from_code(99), Phase::Idle);
    }

    #[test]
    fn snapshot_is_consistent_under_eight_concurrent_publishers() {
        let board = ProgressBoard::enabled();
        board.set_phase(Phase::Clustering);
        board.set_components_total(8);
        const PER_THREAD: u64 = 20_000;
        std::thread::scope(|s| {
            for _ in 0..8 {
                let b = board.clone();
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        b.add_nodes(1);
                        if i % 64 == 0 {
                            b.add_repairs(1);
                        }
                        if i % 1000 == 0 {
                            b.add_satisfied(1);
                        }
                    }
                    b.component_finished();
                });
            }
            // Concurrent reader: totals must be monotone and bounded.
            let reader = board.clone();
            s.spawn(move || {
                let mut last_nodes = 0u64;
                for _ in 0..200 {
                    let snap = reader.read().expect("enabled board reads");
                    assert!(snap.nodes >= last_nodes, "nodes counter went backwards");
                    assert!(snap.nodes <= 8 * PER_THREAD);
                    assert!(snap.components_done <= 8);
                    last_nodes = snap.nodes;
                }
            });
        });
        let snap = board.read().expect("enabled board reads");
        assert_eq!(snap.nodes, 8 * PER_THREAD);
        assert_eq!(snap.repairs, 8 * PER_THREAD.div_ceil(64));
        assert_eq!(snap.satisfied, 8 * PER_THREAD.div_ceil(1000));
        assert_eq!(snap.components_done, 8);
        assert_eq!(snap.components_total, 8);
        assert_eq!(snap.phase, Phase::Clustering);
    }

    #[test]
    fn budget_limits_publish_and_clear() {
        let board = ProgressBoard::enabled();
        board.set_budget_limits(Some(1_000), Some(Duration::from_millis(250)));
        let snap = board.read().expect("read");
        assert_eq!(snap.node_limit, 1_000);
        assert_eq!(snap.deadline_ms, 250);
        board.set_budget_limits(None, None);
        let snap = board.read().expect("read");
        assert_eq!(snap.node_limit, 0);
        assert_eq!(snap.deadline_ms, 0);
    }

    #[test]
    fn constraint_stars_publish_and_read_back() {
        let board = ProgressBoard::enabled();
        assert!(board.read().expect("read").constraint_stars.is_empty());
        board.set_constraint_stars(vec![
            ("ETH[Asian]".to_string(), 4),
            ("JOB[Nurse]".to_string(), 0),
        ]);
        let snap = board.read().expect("read");
        assert_eq!(
            snap.constraint_stars,
            vec![("ETH[Asian]".to_string(), 4), ("JOB[Nurse]".to_string(), 0)]
        );
        // Disabled boards stay inert.
        let off = ProgressBoard::disabled();
        off.set_constraint_stars(vec![("X".to_string(), 1)]);
        assert!(off.read().is_none());
    }

    #[test]
    fn watchdog_trips_on_a_frozen_counter_and_escalates() {
        let board = ProgressBoard::enabled();
        board.set_phase(Phase::Clustering);
        board.add_nodes(100); // advanced once, then frozen
        let obs = Obs::enabled();
        let config = SamplerConfig {
            interval: Duration::from_millis(5),
            stall_periods: 3,
            escalate: true,
            ring_capacity: 64,
        };
        let sampler = Sampler::spawn(&board, &obs, config, None);
        let log = sampler.log();
        let deadline = Stopwatch::start();
        while log.stalls_flagged() == 0 && deadline.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        sampler.stop();
        assert!(log.stalls_flagged() >= 1, "watchdog never tripped");
        assert!(board.stalled());
        assert!(board.degrade_requested(), "escalation should raise the degrade flag");
        let snap = obs.snapshot();
        assert_eq!(snap.counter("obs.stall.detected"), Some(log.stalls_flagged()));
        assert!(
            snap.spans.iter().any(|s| s.name == "diva.stall"),
            "stall span event missing: {:?}",
            snap.spans.iter().map(|s| &s.name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn watchdog_ignores_a_slow_but_advancing_run() {
        // A publisher that adds one node every 2ms is "slow" but never
        // idle across a 20ms sampling window — the watchdog must not
        // fire even with a tight period threshold.
        let board = ProgressBoard::enabled();
        board.set_phase(Phase::Clustering);
        let obs = Obs::enabled();
        let config = SamplerConfig {
            interval: Duration::from_millis(20),
            stall_periods: 2,
            escalate: true,
            ring_capacity: 64,
        };
        let sampler = Sampler::spawn(&board, &obs, config, None);
        let publisher = board.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let publisher_stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !publisher_stop.load(Ordering::Relaxed) {
                publisher.add_nodes(1);
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        std::thread::sleep(Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
        let _ = handle.join();
        let log = sampler.log();
        sampler.stop();
        assert_eq!(log.stalls_flagged(), 0, "false positive on an advancing run");
        assert!(!board.stalled());
        assert!(!board.degrade_requested());
        assert_eq!(obs.snapshot().counter("obs.stall.detected"), None);
    }

    #[test]
    fn watchdog_is_disarmed_outside_the_search_phase() {
        // A frozen counter during integrate/suppress is normal; only
        // the clustering search arms the watchdog.
        let board = ProgressBoard::enabled();
        board.set_phase(Phase::Integrate);
        board.add_nodes(5);
        let obs = Obs::disabled();
        let config = SamplerConfig {
            interval: Duration::from_millis(5),
            stall_periods: 2,
            escalate: false,
            ring_capacity: 8,
        };
        let sampler = Sampler::spawn(&board, &obs, config, None);
        std::thread::sleep(Duration::from_millis(100));
        let log = sampler.log();
        sampler.stop();
        assert_eq!(log.stalls_flagged(), 0);
        assert!(!board.stalled());
    }

    #[test]
    fn watchdog_waits_for_the_first_expanded_node() {
        // Candidate generation runs inside the clustering phase with
        // the node counter still at zero — a long generation must not
        // read as a stall; the count only starts once nodes > 0.
        let board = ProgressBoard::enabled();
        board.set_phase(Phase::Clustering);
        let obs = Obs::disabled();
        let config = SamplerConfig {
            interval: Duration::from_millis(5),
            stall_periods: 2,
            escalate: true,
            ring_capacity: 8,
        };
        let sampler = Sampler::spawn(&board, &obs, config, None);
        std::thread::sleep(Duration::from_millis(100));
        let log = sampler.log();
        sampler.stop();
        assert_eq!(log.stalls_flagged(), 0, "tripped before the search expanded anything");
        assert!(!board.stalled());
        assert!(!board.degrade_requested());
    }

    #[test]
    fn sampler_derives_rates_and_eta() {
        let board = ProgressBoard::enabled();
        board.set_phase(Phase::Clustering);
        board.set_budget_limits(Some(1_000_000), Some(Duration::from_secs(3600)));
        let obs = Obs::disabled();
        let config = SamplerConfig {
            interval: Duration::from_millis(10),
            stall_periods: 1000,
            escalate: false,
            ring_capacity: 16,
        };
        let sampler = Sampler::spawn(&board, &obs, config, None);
        let publisher = board.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let publisher_stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !publisher_stop.load(Ordering::Relaxed) {
                publisher.add_nodes(50);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        std::thread::sleep(Duration::from_millis(200));
        stop.store(true, Ordering::Relaxed);
        let _ = handle.join();
        let log = sampler.log();
        sampler.stop();
        let rated = log.samples().into_iter().find(|s| s.nodes_per_sec > 0.0);
        let sample = rated.expect("at least one sample with a positive node rate");
        assert!(sample.eta_ms.is_some(), "node budget is armed, ETA expected");
        assert!(
            sample.deadline_remaining_ms.expect("deadline armed") <= 3_600_000,
            "remaining time cannot exceed the deadline"
        );
        assert!(log.total_samples() >= log.samples().len() as u64);
    }

    #[test]
    fn ring_buffer_wraps_at_capacity() {
        let log = SampleLog::new(3);
        for i in 0..10u64 {
            let snap = BoardSnapshot {
                phase: Phase::Clustering,
                nodes: i,
                repairs: 0,
                satisfied: 0,
                voided: 0,
                constraints_total: 0,
                components_done: 0,
                components_total: 0,
                node_limit: 0,
                deadline_ms: 0,
                live_alloc_bytes: 0,
                stalled: false,
                elapsed_ms: i,
                constraint_stars: Vec::new(),
            };
            log.push(
                Sample {
                    board: snap,
                    nodes_per_sec: 0.0,
                    repairs_per_sec: 0.0,
                    eta_ms: None,
                    deadline_remaining_ms: None,
                    idle_periods: 0,
                },
                false,
            );
        }
        let samples = log.samples();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples.iter().map(|s| s.board.nodes).collect::<Vec<_>>(), vec![7, 8, 9]);
        assert_eq!(log.total_samples(), 10);
        assert_eq!(log.latest().expect("latest").board.nodes, 9);
    }

    #[test]
    fn watch_line_renders_the_interesting_cells() {
        let sample = Sample {
            board: BoardSnapshot {
                phase: Phase::Anonymize,
                nodes: 1234,
                repairs: 7,
                satisfied: 40,
                voided: 2,
                constraints_total: 50,
                components_done: 3,
                components_total: 12,
                node_limit: 0,
                deadline_ms: 0,
                live_alloc_bytes: 4096,
                stalled: true,
                elapsed_ms: 250,
                constraint_stars: Vec::new(),
            },
            nodes_per_sec: 100.0,
            repairs_per_sec: 1.0,
            eta_ms: Some(500),
            deadline_remaining_ms: Some(750),
            idle_periods: 0,
        };
        let line = sample.watch_line();
        assert!(line.contains("phase=anonymize"), "{line}");
        assert!(line.contains("nodes=1234"), "{line}");
        assert!(line.contains("comps=3/12"), "{line}");
        assert!(line.contains("sigma=40+2/50"), "{line}");
        assert!(line.contains("eta=500ms/deadline=750ms"), "{line}");
        assert!(line.contains("STALLED"), "{line}");
    }

    #[test]
    fn on_sample_callback_fires_per_tick() {
        let board = ProgressBoard::enabled();
        board.set_phase(Phase::Clustering);
        let counted = Arc::new(AtomicU64::new(0));
        let cb_count = Arc::clone(&counted);
        let config = SamplerConfig {
            interval: Duration::from_millis(5),
            stall_periods: 1000,
            escalate: false,
            ring_capacity: 8,
        };
        let sampler = Sampler::spawn(
            &board,
            &Obs::disabled(),
            config,
            Some(Box::new(move |_s| {
                cb_count.fetch_add(1, Ordering::Relaxed);
            })),
        );
        let deadline = Stopwatch::start();
        while counted.load(Ordering::Relaxed) < 3 && deadline.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        let log = sampler.log();
        sampler.stop();
        assert!(counted.load(Ordering::Relaxed) >= 3);
        assert_eq!(log.total_samples(), counted.load(Ordering::Relaxed));
    }
}
