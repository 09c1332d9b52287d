//! Design-space exploration (§5.3 of the paper).
//!
//! The co-estimation tool exists to be called *iteratively*: Fig. 7
//! sweeps all meaningful assignments of bus/RTOS priorities and DMA
//! block sizes for the TCP/IP subsystem (6 × 8 = 48 points) and picks the
//! minimum-energy configuration, and §5.2 ranks HW/SW partitions. A
//! sweep is only as useful as its latency, and every point of a sweep is
//! an independent co-simulation, so every sweep kind here runs on one
//! engine: it enumerates the whole work list up front, hands indices to
//! `std::thread::scope` workers through an atomic cursor, collects
//! `(index, result)` pairs over an `mpsc` channel, and reassembles the
//! output in index order. [`ExploreOptions`] sets the worker count and
//! the observers; one worker evaluates the points in enumeration order.
//!
//! # Determinism contract
//!
//! The reassembled `Vec` is **bit-for-bit identical** at every worker
//! count, and each point equals a solo [`CoSimulator`] run of the same
//! configuration:
//!
//! * each index denotes exactly one `(configuration, simulation)`;
//! * each co-simulation is single-threaded and deterministic, so a point
//!   computes the same report regardless of which worker runs it or when;
//! * reassembly is by work-list index, so scheduling order never leaks
//!   into the output.
//!
//! Errors are deterministic too: workers record the lowest work-list
//! index that failed, stop claiming indices *above* it (indices below
//! still run, since one of them could fail earlier in enumeration
//! order), and the engine returns the lowest-indexed error — the error
//! of the first point in enumeration order that fails to build.

use crate::config::{CoSimConfig, SocDescription};
use crate::estimator::BuildEstimatorError;
use crate::faults::FaultPlan;
use crate::master::CoSimulator;
use crate::report::CoSimReport;
use cfsm::ProcId;
use detrand::Rng;
use soctrace::{
    ArcSharedSink, PowerTimelineSink, ProfileReport, ProfileSink, SharedSink, SpanKind,
    TimelineConfig,
};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Instant;

/// How a sweep should run.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Worker threads evaluating points. The engine clamps this to the
    /// number of points, so over-provisioning is harmless.
    pub workers: NonZeroUsize,
    /// When set, every point's master runs with this shared span
    /// profiler attached and each point is timed as a
    /// [`soctrace::SpanKind::SweepPoint`] span; workers aggregate into
    /// the one report through the `Arc<Mutex<_>>` sink. Wall-time
    /// observability only — results stay bit-identical.
    pub profile: Option<ArcSharedSink<ProfileReport>>,
    /// When `true`, the sweep statically verifies the base spec once
    /// before evaluating any point and fails fast with
    /// [`BuildEstimatorError::Unverifiable`] on error-severity
    /// findings. One check covers every point: liveness structure is
    /// invariant under the re-mappings and re-prioritisations a sweep
    /// explores. Off by default (sweeps of trusted specs pay nothing).
    pub verify_first: bool,
    /// When set, every point's master runs with a private
    /// [`soctrace::PowerTimelineSink`] of this window width (master
    /// clock cycles, clamped to ≥ 1 by the sink) attached, and the
    /// point's peak-window power lands in
    /// [`SweepStats::point_peak_power_w`], turning a sweep's scalar
    /// energy ranking into an energy *and* transient-peak ranking.
    /// Observability only — results stay bit-identical.
    pub timeline: Option<u64>,
}

impl ExploreOptions {
    /// A fixed worker count (clamped up to at least 1).
    pub fn with_workers(workers: usize) -> Self {
        ExploreOptions {
            workers: NonZeroUsize::new(workers).unwrap_or(NonZeroUsize::MIN),
            profile: None,
            verify_first: false,
            timeline: None,
        }
    }

    /// Returns a copy with the given shared span profiler attached to
    /// every point's master.
    pub fn profiled(mut self, sink: ArcSharedSink<ProfileReport>) -> Self {
        self.profile = Some(sink);
        self
    }

    /// Returns a copy that statically verifies the spec before the
    /// sweep starts (see [`ExploreOptions::verify_first`]).
    pub fn verified(mut self) -> Self {
        self.verify_first = true;
        self
    }

    /// Returns a copy that captures a per-point power timeline of
    /// `window_cycles`-wide windows and reports each point's
    /// peak-window power (see [`ExploreOptions::timeline`]).
    pub fn with_timeline(mut self, window_cycles: u64) -> Self {
        self.timeline = Some(window_cycles);
        self
    }
}

impl Default for ExploreOptions {
    /// All the parallelism the host offers (1 when it cannot tell).
    fn default() -> Self {
        Self::with_workers(thread::available_parallelism().map_or(1, NonZeroUsize::get))
    }
}

/// Aggregate metrics of one sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepStats {
    /// Points in the returned result (skipped/infeasible points excluded).
    pub points: usize,
    /// Wall-clock time of the whole sweep, milliseconds.
    pub wall_ms: f64,
    /// Sweep throughput, points per second.
    pub points_per_sec: f64,
    /// How many returned points carry a degraded (budget-tripped) report.
    pub degraded: usize,
    /// Worker threads actually used (after clamping to the point count).
    pub workers: usize,
    /// Per-point evaluation wall-clock, milliseconds, aligned with the
    /// returned points.
    pub point_wall_ms: Vec<f64>,
    /// Per-point peak-window power, watts, aligned with the returned
    /// points. Empty unless [`ExploreOptions::timeline`] is set.
    pub point_peak_power_w: Vec<f64>,
}

/// A sweep's result: the points (bit-identical at every worker count)
/// plus the throughput metrics.
#[derive(Debug, Clone)]
pub struct SweepReport<T> {
    /// The evaluated points, in work-list (enumeration) order.
    pub points: Vec<T>,
    /// Sweep metrics.
    pub stats: SweepStats,
}

/// Evaluates `total` independent work items on a scoped worker pool and
/// returns `(point, eval_ms)` pairs in index order. `eval` returning
/// `Ok(None)` marks an absent (skipped) point; an `Err` cancels indices
/// above it and the lowest-indexed error is propagated (see module docs).
fn run_indexed<T, F>(
    total: usize,
    workers: NonZeroUsize,
    eval: F,
) -> Result<(Vec<(T, f64)>, usize), BuildEstimatorError>
where
    T: Send,
    F: Fn(usize) -> Result<Option<T>, BuildEstimatorError> + Sync,
{
    type Slot<T> = Option<Result<Option<(T, f64)>, BuildEstimatorError>>;
    let workers = workers.get().min(total.max(1));
    let next = AtomicUsize::new(0);
    let min_err = AtomicUsize::new(usize::MAX);
    let (tx, rx) = mpsc::channel();
    thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (next, min_err, eval) = (&next, &min_err, &eval);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                // Indices are claimed in increasing order, so once one is
                // past the end or above a known failure, all later claims
                // would be too: stop this worker.
                if i >= total || i > min_err.load(Ordering::Acquire) {
                    break;
                }
                let t0 = Instant::now();
                let out = match eval(i) {
                    Ok(point) => Ok(point.map(|p| (p, t0.elapsed().as_secs_f64() * 1e3))),
                    Err(e) => {
                        min_err.fetch_min(i, Ordering::AcqRel);
                        Err(e)
                    }
                };
                if tx.send((i, out)).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);
    let mut slots: Vec<Slot<T>> = std::iter::repeat_with(|| None).take(total).collect();
    for (i, result) in rx {
        slots[i] = Some(result);
    }
    let mut items = Vec::with_capacity(total);
    for slot in slots {
        match slot {
            Some(Ok(Some(item))) => items.push(item),
            Some(Ok(None)) | None => {} // skipped, or cancelled past an error
            Some(Err(e)) => return Err(e),
        }
    }
    Ok((items, workers))
}

/// What the engine keeps of a point's run besides the point itself.
struct PointRun {
    /// Peak-window power, watts, when the sweep captures timelines.
    peak_w: Option<f64>,
    /// Whether a watchdog budget cut the run short.
    degraded: bool,
}

/// The engine every sweep kind runs on: the optional verify gate, then
/// `eval` over work items `0..total` on the worker pool, wrapped into a
/// [`SweepReport`]. `eval` returns a point with its [`PointRun`] (see
/// [`simulate`]), or `None` for an absent point.
fn sweep<T: Send>(
    soc: &SocDescription,
    total: usize,
    options: &ExploreOptions,
    eval: impl Fn(usize) -> Result<Option<(T, PointRun)>, BuildEstimatorError> + Sync,
) -> Result<SweepReport<T>, BuildEstimatorError> {
    if options.verify_first {
        crate::verify::gate(crate::verify::verify_soc(soc))?;
    }
    let t0 = Instant::now();
    let (items, workers) = run_indexed(total, options.workers, eval)?;
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut points = Vec::with_capacity(items.len());
    let mut point_wall_ms = Vec::with_capacity(items.len());
    let mut point_peak_power_w = Vec::new();
    let mut degraded = 0;
    for ((point, run), ms) in items {
        points.push(point);
        point_wall_ms.push(ms);
        point_peak_power_w.extend(run.peak_w);
        degraded += usize::from(run.degraded);
    }
    let points_per_sec = if wall_ms > 0.0 {
        points.len() as f64 / (wall_ms / 1e3)
    } else {
        0.0
    };
    Ok(SweepReport {
        stats: SweepStats {
            points: points.len(),
            wall_ms,
            points_per_sec,
            degraded,
            workers,
            point_wall_ms,
            point_peak_power_w,
        },
        points,
    })
}

/// Builds and runs one sweep point's co-simulation with the sweep's
/// observers: the shared profiler (timing the whole point as a
/// [`SpanKind::SweepPoint`] span) and a private power timeline whose
/// peak-window power rides back with the report. Observers never
/// perturb results, so the report is bit-identical with or without them.
fn simulate(
    soc: SocDescription,
    config: CoSimConfig,
    options: &ExploreOptions,
) -> Result<(CoSimReport, PointRun), BuildEstimatorError> {
    let clock_hz = config.clock_hz;
    let mut sim = CoSimulator::new(soc, config)?;
    let timeline = options.timeline.map(|window_cycles| {
        let sink = SharedSink::new(PowerTimelineSink::new(TimelineConfig::new(
            window_cycles,
            clock_hz,
        )));
        sim.attach_trace(Box::new(sink.clone()));
        sink
    });
    let report = if let Some(p) = &options.profile {
        sim.attach_profile(Box::new(p.clone()));
        let t0 = Instant::now();
        let report = sim.run();
        p.clone().span(SpanKind::SweepPoint, t0.elapsed());
        report
    } else {
        sim.run()
    };
    let peak_w = timeline.map(|sink| {
        let names = sim.component_names();
        sink.with(|s| s.report(&names, report.total_cycles).peak_power_w())
    });
    let degraded = report.outcome.is_degraded();
    Ok((report, PointRun { peak_w, degraded }))
}

/// One evaluated configuration.
#[derive(Debug, Clone)]
pub struct ExplorationPoint {
    /// DMA block size used.
    pub dma_block_size: u32,
    /// The priority assignment: `(process, priority)` pairs.
    pub priorities: Vec<(ProcId, u8)>,
    /// Human-readable label of the priority order.
    pub label: String,
    /// The full co-estimation report.
    pub report: CoSimReport,
}

impl ExplorationPoint {
    /// Total energy of this configuration, joules.
    pub fn energy_j(&self) -> f64 {
        self.report.total_energy_j()
    }
}

/// All permutations of the given items (Heap's algorithm, deterministic
/// order). The degenerate inputs have exactly one permutation each:
/// `permutations(&[])` is `[[]]` (0! = 1) and a single element yields
/// itself — handled explicitly rather than through the recursion's
/// fall-through.
pub fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    fn heap<T: Clone>(arr: &mut Vec<T>, k: usize, out: &mut Vec<Vec<T>>) {
        if k <= 1 {
            out.push(arr.clone());
            return;
        }
        for i in 0..k {
            heap(arr, k - 1, out);
            if k.is_multiple_of(2) {
                arr.swap(i, k - 1);
            } else {
                arr.swap(0, k - 1);
            }
        }
    }
    let mut arr = items.to_vec();
    let mut out = Vec::new();
    let k = arr.len();
    heap(&mut arr, k, &mut out);
    out
}

/// Sweeps the communication-architecture design space: every priority
/// permutation of `prioritized_procs` × every DMA size in `dma_sizes`,
/// in that (permutation-major) order.
///
/// Priorities are assigned in descending order along each permutation
/// (first process gets the highest priority).
///
/// # Errors
///
/// Returns the lowest-enumeration-order [`BuildEstimatorError`].
pub fn explore_bus_architecture_parallel(
    soc: &SocDescription,
    base: &CoSimConfig,
    prioritized_procs: &[ProcId],
    dma_sizes: &[u32],
    options: &ExploreOptions,
) -> Result<SweepReport<ExplorationPoint>, BuildEstimatorError> {
    let perms = permutations(prioritized_procs);
    let total = perms.len() * dma_sizes.len();
    sweep(soc, total, options, |i| {
        let perm = &perms[i / dma_sizes.len()];
        let dma = dma_sizes[i % dma_sizes.len()];
        let mut variant = soc.clone();
        let n = perm.len() as u8;
        let mut priorities = Vec::with_capacity(perm.len());
        let mut names = Vec::with_capacity(perm.len());
        for (rank, &p) in perm.iter().enumerate() {
            let pri = n - rank as u8; // descending
            variant.set_priority(p, pri);
            priorities.push((p, pri));
            names.push(soc.network.cfsm(p).name());
        }
        let label = names.join(" > ");
        let (report, run) = simulate(variant, base.with_dma_block_size(dma), options)?;
        Ok(Some((
            ExplorationPoint {
                dma_block_size: dma,
                priorities,
                label,
                report,
            },
            run,
        )))
    })
}

/// One evaluated HW/SW partition.
#[derive(Debug, Clone)]
pub struct PartitionPoint {
    /// The mapping of each process, in process-id order.
    pub mapping: Vec<cfsm::Implementation>,
    /// Human-readable label, e.g. `create_pack=SW checksum=HW`.
    pub label: String,
    /// The full co-estimation report.
    pub report: CoSimReport,
}

impl PartitionPoint {
    /// Total energy of this partition, joules.
    pub fn energy_j(&self) -> f64 {
        self.report.total_energy_j()
    }
}

/// Evaluates every 2^n HW/SW partition of the given processes (§5.2
/// mentions using the tool "to rank several different HW/SW
/// partitions"). Partition `bits` maps `movable[k]` to hardware when bit
/// `k` is set; processes not listed keep their original mapping.
///
/// Skips partitions whose hardware mapping fails to synthesize (e.g.
/// processes using division) — such points are simply absent from the
/// result, mirroring a real flow's infeasible designs.
///
/// # Errors
///
/// Rejects more than 16 movable processes with
/// [`BuildEstimatorError::InvalidParams`], and propagates the
/// lowest-enumeration-order build failure that is not a synthesis
/// infeasibility.
pub fn explore_partitions_parallel(
    soc: &SocDescription,
    base: &CoSimConfig,
    movable: &[ProcId],
    options: &ExploreOptions,
) -> Result<SweepReport<PartitionPoint>, BuildEstimatorError> {
    use cfsm::Implementation;
    if movable.len() > 16 {
        return Err(BuildEstimatorError::InvalidParams(format!(
            "{} movable processes is too many for an exhaustive 2^n partition sweep (max 16)",
            movable.len()
        )));
    }
    sweep(soc, 1 << movable.len(), options, |bits| {
        let mut variant = soc.clone();
        let mut label_parts = Vec::with_capacity(movable.len());
        for (k, &p) in movable.iter().enumerate() {
            let m = if bits >> k & 1 == 1 {
                Implementation::Hw
            } else {
                Implementation::Sw
            };
            variant.network.set_mapping(p, m);
            label_parts.push(format!("{}={}", soc.network.cfsm(p).name(), m));
        }
        let mapping = variant
            .network
            .process_ids()
            .map(|p| variant.network.mapping(p))
            .collect();
        match simulate(variant, base.clone(), options) {
            Ok((report, run)) => Ok(Some((
                PartitionPoint {
                    mapping,
                    label: label_parts.join(" "),
                    report,
                },
                run,
            ))),
            Err(BuildEstimatorError::Synth(_, _)) => Ok(None), // infeasible in HW
            Err(e) => Err(e),
        }
    })
}

/// One evaluated power-management policy.
#[derive(Debug, Clone)]
pub struct PowerPoint {
    /// The policy's name (its sweep label).
    pub policy_name: String,
    /// The full co-estimation report (its `power` section carries the
    /// state residency and per-technique savings).
    pub report: CoSimReport,
}

impl PowerPoint {
    /// Total energy of this policy, joules (dynamic + leakage + wake
    /// overhead — everything the ledger booked).
    pub fn energy_j(&self) -> f64 {
        self.report.total_energy_j()
    }

    /// Net energy this policy saved versus running the same schedule
    /// all-Active (per-technique savings minus wake overhead), joules.
    /// Zero for the noop policy.
    pub fn net_saved_j(&self) -> f64 {
        self.report
            .power
            .as_ref()
            .map(|p| p.savings.net_saved_j())
            .unwrap_or(0.0)
    }
}

/// Sweeps power-management policies (operating-point assignments ×
/// gating rules): one co-simulation per policy, in slice order. The
/// exploration knob that widens §5.3's architecture sweep to the power
/// axis. Leakage spans settle in simulation order inside each
/// single-threaded point, so worker scheduling cannot reorder any float
/// accumulation.
///
/// # Errors
///
/// Returns the lowest-enumeration-order [`BuildEstimatorError`] —
/// including policy-validation failures (unknown component names,
/// out-of-range operating points).
pub fn explore_power_policies_parallel(
    soc: &SocDescription,
    base: &CoSimConfig,
    policies: &[crate::powermgmt::PowerPolicy],
    options: &ExploreOptions,
) -> Result<SweepReport<PowerPoint>, BuildEstimatorError> {
    sweep(soc, policies.len(), options, |i| {
        let policy = &policies[i];
        let config = base.with_power_policy(policy.clone());
        let (report, run) = simulate(soc.clone(), config, options)?;
        let policy_name = policy.name.clone();
        Ok(Some((
            PowerPoint {
                policy_name,
                report,
            },
            run,
        )))
    })
}

/// One evaluated fault scenario of a fault-matrix sweep.
#[derive(Debug, Clone)]
pub struct FaultPoint {
    /// The scenario's label (its sweep name).
    pub label: String,
    /// The full co-estimation report of the faulted run — with the
    /// provenance partition intact ([`CoSimReport::verify_provenance`]
    /// holds on every point, faulted or not).
    pub report: CoSimReport,
}

impl FaultPoint {
    /// Total energy of this scenario, joules.
    pub fn energy_j(&self) -> f64 {
        self.report.total_energy_j()
    }
}

/// Sweeps a fault matrix: one co-simulation per `(label, plan)`
/// scenario, in slice order. Each point is an independent run of the
/// same system under a different declarative fault plan, so the sweep
/// ranks the design's energy behaviour across its failure modes (the
/// fault-injection counterpart of §5.3's architecture sweep).
///
/// # Errors
///
/// Returns the lowest-enumeration-order [`BuildEstimatorError`] —
/// including fault plans naming unknown events or processes.
pub fn explore_fault_matrix_parallel(
    soc: &SocDescription,
    base: &CoSimConfig,
    scenarios: &[(String, FaultPlan)],
    options: &ExploreOptions,
) -> Result<SweepReport<FaultPoint>, BuildEstimatorError> {
    sweep(soc, scenarios.len(), options, |i| {
        let (label, plan) = &scenarios[i];
        let (report, run) = simulate(soc.clone(), base.with_faults(plan.clone()), options)?;
        let label = label.clone();
        Ok(Some((FaultPoint { label, report }, run)))
    })
}

/// How a Monte-Carlo stimulus variant perturbs the base stimulus.
#[derive(Debug, Clone)]
pub struct StimulusJitter {
    /// Maximum absolute per-event time shift, simulation cycles (the
    /// drawn shift is uniform in `-time..=time`; shifted times saturate
    /// at zero and the schedule is re-sorted). Must be below
    /// `i64::MAX`.
    pub time: u64,
    /// Maximum absolute perturbation of valued events' payloads
    /// (uniform in `-value..=value`). Must lie in `0..i64::MAX`.
    pub value: i64,
}

impl Default for StimulusJitter {
    /// ±1000 cycles of arrival jitter, ±4 on event payloads.
    fn default() -> Self {
        StimulusJitter {
            time: 1_000,
            value: 4,
        }
    }
}

/// One evaluated Monte-Carlo stimulus variant.
#[derive(Debug, Clone)]
pub struct StimulusPoint {
    /// The variant's stimulus seed.
    pub seed: u64,
    /// The full co-estimation report of the perturbed run.
    pub report: CoSimReport,
}

impl StimulusPoint {
    /// Total energy of this stimulus variant, joules.
    pub fn energy_j(&self) -> f64 {
        self.report.total_energy_j()
    }
}

/// The deterministic stimulus variant of `seed`: every event's arrival
/// time and payload perturbed by a `detrand` stream. Pure in `(soc,
/// seed, jitter)`, so every worker (and any re-run) evaluates the
/// identical schedule for a given seed. `jitter` must be in range (see
/// [`StimulusJitter`]): each draw spans `-a..a + 1` in `i64`.
pub(crate) fn mc_stimulus_variant(
    soc: &SocDescription,
    seed: u64,
    jitter: &StimulusJitter,
) -> SocDescription {
    let mut rng = Rng::new(seed ^ 0x4D43_5354_494D_0001); // domain-separated
    let mut variant = soc.clone();
    for (time, occurrence) in &mut variant.stimulus {
        let dt = rng.i64_in(-(jitter.time as i64), jitter.time as i64 + 1);
        *time = time.saturating_add_signed(dt);
        if let Some(v) = &mut occurrence.value {
            *v = v.wrapping_add(rng.i64_in(-jitter.value, jitter.value + 1));
        }
    }
    // Stable sort: events shifted onto the same cycle keep their
    // original relative order.
    variant.stimulus.sort_by_key(|&(t, _)| t);
    variant
}

/// Monte-Carlo sweep over stimulus variants: one co-simulation per
/// seed, each driving a deterministically jittered copy of the base
/// stimulus. The spread of the per-point energies estimates how
/// sensitive the design's power is to arrival times and payloads — the
/// system-level sibling of the gate-level Monte-Carlo lanes in
/// [`crate::run_lane_sweep`].
///
/// # Errors
///
/// Rejects a `jitter` outside its documented range with
/// [`BuildEstimatorError::InvalidParams`] before any point runs, and
/// otherwise returns the lowest-enumeration-order
/// [`BuildEstimatorError`].
pub fn explore_stimulus_seeds_parallel(
    soc: &SocDescription,
    base: &CoSimConfig,
    seeds: &[u64],
    jitter: &StimulusJitter,
    options: &ExploreOptions,
) -> Result<SweepReport<StimulusPoint>, BuildEstimatorError> {
    if jitter.time >= i64::MAX as u64 || !(0..i64::MAX).contains(&jitter.value) {
        return Err(BuildEstimatorError::InvalidParams(format!(
            "stimulus jitter {jitter:?} out of range: time and value must lie in 0..{}",
            i64::MAX
        )));
    }
    sweep(soc, seeds.len(), options, |i| {
        let seed = seeds[i];
        let variant = mc_stimulus_variant(soc, seed, jitter);
        let (report, run) = simulate(variant, base.clone(), options)?;
        Ok(Some((StimulusPoint { seed, report }, run)))
    })
}

/// The minimum-energy point of an exploration.
pub fn minimum_energy(points: &[ExplorationPoint]) -> Option<&ExplorationPoint> {
    points
        .iter()
        .min_by(|a, b| a.energy_j().total_cmp(&b.energy_j()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfsm::{BinOp, Cfg, Cfsm, EventDef, EventOccurrence, Expr, Implementation, Network, Stmt};

    #[test]
    fn permutation_counts_match_factorials() {
        fn factorial(n: usize) -> usize {
            (1..=n).product()
        }
        for n in 0..=5usize {
            let items: Vec<usize> = (0..n).collect();
            let ps = permutations(&items);
            assert_eq!(ps.len(), factorial(n), "n = {n}");
            let mut sorted = ps.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), factorial(n), "n = {n} has duplicates");
            for p in &ps {
                let mut q = p.clone();
                q.sort_unstable();
                assert_eq!(q, items, "n = {n} permutation {p:?} is not a permutation");
            }
        }
    }

    #[test]
    fn permutations_of_empty_slice_is_single_empty() {
        let ps = permutations::<u32>(&[]);
        assert_eq!(ps, vec![Vec::<u32>::new()]);
    }

    #[test]
    fn permutations_of_single_element() {
        assert_eq!(permutations(&[7]), vec![vec![7]]);
    }

    #[test]
    fn permutations_deterministic() {
        for items in [
            vec![],
            vec!['a'],
            vec!['a', 'b', 'c'],
            vec!['a', 'b', 'c', 'd'],
        ] {
            assert_eq!(permutations(&items), permutations(&items));
        }
    }

    /// A two-process SOC whose `divider` process uses division — which
    /// has no hardware implementation — plus a synthesizable `adder`.
    fn divider_soc() -> SocDescription {
        let mut nb = Network::builder();
        let go = nb.event(EventDef::pure("GO"));
        let mut div = Cfsm::builder("divider");
        let s = div.state("s");
        let v = div.var("v", 100);
        div.transition(
            s,
            vec![go],
            None,
            Cfg::straight_line(vec![Stmt::Assign {
                var: v,
                expr: Expr::bin(BinOp::Div, Expr::Var(v), Expr::Const(2)),
            }]),
            s,
        );
        nb.process(div.finish().expect("valid machine"), Implementation::Sw);
        let mut add = Cfsm::builder("adder");
        let t = add.state("t");
        let w = add.var("w", 0);
        add.transition(
            t,
            vec![go],
            None,
            Cfg::straight_line(vec![Stmt::Assign {
                var: w,
                expr: Expr::add(Expr::Var(w), Expr::Const(1)),
            }]),
            t,
        );
        nb.process(add.finish().expect("valid machine"), Implementation::Sw);
        SocDescription {
            name: "divider".into(),
            network: nb.finish().expect("valid network"),
            stimulus: (0..3)
                .map(|i| (i * 5_000, EventOccurrence::pure(go)))
                .collect(),
            priorities: vec![1, 1],
        }
    }

    #[test]
    fn partition_sweep_skips_infeasible_hw_mappings() {
        let soc = divider_soc();
        let divider = soc.network.process_by_name("divider").expect("exists");
        let config = CoSimConfig::date2000_defaults();
        // Only the divider movable: HW mapping is infeasible, so exactly
        // 2^1 - 1 = 1 point survives — an absent point, not an error.
        let sweep = explore_partitions_parallel(
            &soc,
            &config,
            &[divider],
            &ExploreOptions::with_workers(1),
        )
        .expect("sweep succeeds");
        assert_eq!(sweep.points.len(), 1);
        assert_eq!(sweep.points[0].label, "divider=SW");
    }

    #[test]
    fn partition_sweep_point_count_is_power_of_two_minus_skipped() {
        let soc = divider_soc();
        let divider = soc.network.process_by_name("divider").expect("exists");
        let adder = soc.network.process_by_name("adder").expect("exists");
        let config = CoSimConfig::date2000_defaults();
        // Both movable: the 2 partitions mapping the divider to HW are
        // skipped, so 2^2 - 2 = 2 points remain.
        let sweep = explore_partitions_parallel(
            &soc,
            &config,
            &[divider, adder],
            &ExploreOptions::with_workers(2),
        )
        .expect("sweep succeeds");
        assert_eq!(sweep.points.len(), 2);
        assert!(sweep.points.iter().all(|p| p.label.contains("divider=SW")));
    }

    #[test]
    fn too_many_movable_processes_is_a_typed_error() {
        let soc = divider_soc();
        let p = soc.network.process_by_name("adder").expect("exists");
        let movable = vec![p; 17];
        let err = explore_partitions_parallel(
            &soc,
            &CoSimConfig::date2000_defaults(),
            &movable,
            &ExploreOptions::with_workers(1),
        );
        assert!(matches!(err, Err(BuildEstimatorError::InvalidParams(_))));
    }

    /// A three-process SOC with shared-memory traffic so priorities and
    /// DMA sizes have real energy consequences.
    fn sweep_soc() -> SocDescription {
        let mut nb = Network::builder();
        let go = nb.event(EventDef::pure("GO"));
        let ack = nb.event(EventDef::valued("ACK"));
        for (name, mapping) in [
            ("alpha", Implementation::Sw),
            ("beta", Implementation::Hw),
            ("gamma", Implementation::Hw),
        ] {
            let mut mb = Cfsm::builder(name);
            let s = mb.state("s");
            let v = mb.var("v", 0);
            mb.transition(
                s,
                vec![go],
                None,
                Cfg::straight_line(vec![
                    Stmt::Assign {
                        var: v,
                        expr: Expr::add(Expr::Var(v), Expr::Const(2)),
                    },
                    Stmt::MemWrite {
                        addr: Expr::Const(16),
                        value: Expr::Var(v),
                    },
                    Stmt::Emit {
                        event: ack,
                        value: Some(Expr::Var(v)),
                    },
                ]),
                s,
            );
            nb.process(mb.finish().expect("valid machine"), mapping);
        }
        SocDescription {
            name: "sweep".into(),
            network: nb.finish().expect("valid network"),
            stimulus: (0..4)
                .map(|i| (i * 8_000, EventOccurrence::pure(go)))
                .collect(),
            priorities: vec![1, 2, 3],
        }
    }

    /// A solo co-simulation: the per-point reference the engine is
    /// tested against, built without any sweep code.
    fn solo(soc: SocDescription, config: CoSimConfig) -> CoSimReport {
        CoSimulator::new(soc, config).expect("system builds").run()
    }

    /// The bus sweep's expected points, each from a solo run with the
    /// permutation's descending priorities set by hand.
    fn solo_bus_points(
        soc: &SocDescription,
        config: &CoSimConfig,
        procs: &[ProcId],
        dmas: &[u32],
    ) -> Vec<ExplorationPoint> {
        let mut points = Vec::new();
        for perm in permutations(procs) {
            for &dma in dmas {
                let mut variant = soc.clone();
                let mut priorities = Vec::new();
                for (rank, &p) in perm.iter().enumerate() {
                    let pri = (perm.len() - rank) as u8;
                    variant.set_priority(p, pri);
                    priorities.push((p, pri));
                }
                let names: Vec<&str> = perm.iter().map(|&p| soc.network.cfsm(p).name()).collect();
                points.push(ExplorationPoint {
                    dma_block_size: dma,
                    priorities,
                    label: names.join(" > "),
                    report: solo(variant, config.with_dma_block_size(dma)),
                });
            }
        }
        points
    }

    fn points_bitwise_equal(a: &[ExplorationPoint], b: &[ExplorationPoint]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.dma_block_size == y.dma_block_size
                    && x.priorities == y.priorities
                    && x.label == y.label
                    && x.report.golden_snapshot() == y.report.golden_snapshot()
            })
    }

    #[test]
    fn bus_sweep_matches_solo_runs_at_every_worker_count() {
        let soc = sweep_soc();
        let config = CoSimConfig::date2000_defaults();
        let procs: Vec<ProcId> = soc.network.process_ids().collect();
        let dmas = [2u32, 8, 32];
        let reference = solo_bus_points(&soc, &config, &procs, &dmas);
        for workers in [1usize, 2, 5] {
            let par = explore_bus_architecture_parallel(
                &soc,
                &config,
                &procs,
                &dmas,
                &ExploreOptions::with_workers(workers),
            )
            .expect("sweep");
            assert!(
                points_bitwise_equal(&reference, &par.points),
                "divergence at workers = {workers}"
            );
            assert_eq!(par.stats.points, reference.len());
            assert_eq!(par.stats.degraded, 0);
            assert_eq!(par.stats.point_wall_ms.len(), reference.len());
            assert!(par.stats.wall_ms > 0.0 && par.stats.points_per_sec > 0.0);
        }
    }

    #[test]
    fn partition_sweep_matches_solo_runs_at_every_worker_count() {
        let soc = sweep_soc();
        let config = CoSimConfig::date2000_defaults();
        let movable: Vec<ProcId> = soc.network.process_ids().take(2).collect();
        let mut reference = Vec::new();
        for bits in 0..4u32 {
            let mut variant = soc.clone();
            let mut labels = Vec::new();
            for (k, &p) in movable.iter().enumerate() {
                let m = if bits >> k & 1 == 1 {
                    Implementation::Hw
                } else {
                    Implementation::Sw
                };
                variant.network.set_mapping(p, m);
                labels.push(format!("{}={m}", soc.network.cfsm(p).name()));
            }
            let mapping: Vec<Implementation> = variant
                .network
                .process_ids()
                .map(|p| variant.network.mapping(p))
                .collect();
            reference.push((labels.join(" "), mapping, solo(variant, config.clone())));
        }
        for workers in [1usize, 4] {
            let par = explore_partitions_parallel(
                &soc,
                &config,
                &movable,
                &ExploreOptions::with_workers(workers),
            )
            .expect("sweep");
            assert_eq!(par.points.len(), reference.len());
            for ((label, mapping, report), p) in reference.iter().zip(&par.points) {
                assert_eq!(label, &p.label);
                assert_eq!(mapping, &p.mapping);
                assert_eq!(
                    report.golden_snapshot(),
                    p.report.golden_snapshot(),
                    "partition `{label}` diverged at workers = {workers}"
                );
            }
        }
    }

    #[test]
    fn power_sweep_matches_solo_runs_at_every_worker_count() {
        use crate::powermgmt::{GatingPolicy, LeakageModel, OperatingPoint, PowerPolicy};
        let soc = sweep_soc();
        let config = CoSimConfig::date2000_defaults();
        let policies = vec![
            PowerPolicy::none(),
            PowerPolicy::named("leaky").with_leakage(LeakageModel::with_default_rate(1.0e-3)),
            PowerPolicy::named("gated")
                .with_leakage(LeakageModel::with_default_rate(1.0e-3))
                .gate("alpha", GatingPolicy::clock(200))
                .gate("beta", GatingPolicy::power(400, 1.0e-6, 5)),
            PowerPolicy::named("dvfs")
                .with_operating_point(OperatingPoint::new("low", 0.8, 0.5))
                .dvfs("gamma", 0),
        ];
        let reference: Vec<CoSimReport> = policies
            .iter()
            .map(|p| solo(soc.clone(), config.with_power_policy(p.clone())))
            .collect();
        for workers in [1usize, 3] {
            let par = explore_power_policies_parallel(
                &soc,
                &config,
                &policies,
                &ExploreOptions::with_workers(workers),
            )
            .expect("sweep");
            assert_eq!(par.points.len(), reference.len());
            for ((policy, report), p) in policies.iter().zip(&reference).zip(&par.points) {
                assert_eq!(policy.name, p.policy_name);
                assert_eq!(
                    report.golden_snapshot(),
                    p.report.golden_snapshot(),
                    "policy `{}` diverged at workers = {workers}",
                    policy.name
                );
                assert_eq!(
                    report.total_energy_j().to_bits(),
                    p.energy_j().to_bits(),
                    "policy `{}` energy diverged at workers = {workers}",
                    policy.name
                );
            }
        }
    }

    #[test]
    fn fault_matrix_matches_solo_runs_at_every_worker_count() {
        let soc = sweep_soc();
        let config = CoSimConfig::date2000_defaults();
        let scenarios: Vec<(String, FaultPlan)> = vec![
            ("clean".into(), FaultPlan::new()),
            ("drop_go".into(), FaultPlan::new().drop_event(1, "GO")),
            (
                "dup_ack+stall".into(),
                FaultPlan::new()
                    .duplicate_event(8_500, "ACK")
                    .stall_bus(9_000, 1_500),
            ),
        ];
        let reference: Vec<CoSimReport> = scenarios
            .iter()
            .map(|(_, plan)| solo(soc.clone(), config.with_faults(plan.clone())))
            .collect();
        for workers in [1usize, 3] {
            let par = explore_fault_matrix_parallel(
                &soc,
                &config,
                &scenarios,
                &ExploreOptions::with_workers(workers),
            )
            .expect("sweep");
            assert_eq!(par.points.len(), scenarios.len());
            for (((label, _), report), p) in scenarios.iter().zip(&reference).zip(&par.points) {
                assert_eq!(label, &p.label);
                assert_eq!(
                    report.golden_snapshot(),
                    p.report.golden_snapshot(),
                    "scenario `{label}` diverged at workers = {workers}"
                );
                // The provenance partition stays exact even on faulted
                // trajectories.
                p.report.verify_provenance().expect("exact partition");
            }
        }
    }

    #[test]
    fn stimulus_sweep_matches_solo_runs_at_every_worker_count() {
        let soc = sweep_soc();
        let config = CoSimConfig::date2000_defaults();
        let jitter = StimulusJitter {
            time: 500,
            value: 3,
        };
        let seeds = [1u64, 2, 3, 4, 5];
        let reference: Vec<CoSimReport> = seeds
            .iter()
            .map(|&seed| solo(mc_stimulus_variant(&soc, seed, &jitter), config.clone()))
            .collect();
        // Jitter genuinely perturbs the runs: not all seeds land on the
        // identical report.
        let distinct: std::collections::BTreeSet<String> =
            reference.iter().map(CoSimReport::golden_snapshot).collect();
        assert!(distinct.len() > 1, "jitter changed nothing");
        for workers in [1usize, 4] {
            let par = explore_stimulus_seeds_parallel(
                &soc,
                &config,
                &seeds,
                &jitter,
                &ExploreOptions::with_workers(workers),
            )
            .expect("sweep");
            assert_eq!(par.points.len(), seeds.len());
            for ((&seed, report), p) in seeds.iter().zip(&reference).zip(&par.points) {
                assert_eq!(seed, p.seed);
                assert_eq!(
                    report.golden_snapshot(),
                    p.report.golden_snapshot(),
                    "seed {seed} diverged at workers = {workers}"
                );
                p.report.verify_provenance().expect("exact partition");
            }
        }
    }

    #[test]
    fn stimulus_variants_are_pure_in_the_seed() {
        let soc = sweep_soc();
        let jitter = StimulusJitter::default();
        for seed in [0u64, 9, 0xFFFF_FFFF_FFFF_FFFF] {
            let a = mc_stimulus_variant(&soc, seed, &jitter);
            let b = mc_stimulus_variant(&soc, seed, &jitter);
            assert_eq!(a.stimulus, b.stimulus, "seed {seed}");
            // Times stay sorted so the schedule is a valid stimulus.
            assert!(a.stimulus.windows(2).all(|w| w[0].0 <= w[1].0));
        }
    }

    #[test]
    fn out_of_range_stimulus_jitter_is_a_typed_error() {
        let soc = sweep_soc();
        let config = CoSimConfig::date2000_defaults();
        // Each of these overflowed the `-a..a + 1` draw: a debug-build
        // panic, a silently wrapped schedule in release.
        for jitter in [
            StimulusJitter { time: 0, value: -3 },
            StimulusJitter {
                time: u64::MAX,
                value: 0,
            },
            StimulusJitter {
                time: i64::MAX as u64,
                value: 0,
            },
            StimulusJitter {
                time: 0,
                value: i64::MAX,
            },
        ] {
            let err = explore_stimulus_seeds_parallel(
                &soc,
                &config,
                &[1, 2],
                &jitter,
                &ExploreOptions::with_workers(2),
            );
            assert!(
                matches!(err, Err(BuildEstimatorError::InvalidParams(_))),
                "{jitter:?} must be rejected"
            );
        }
        // The largest in-range amplitudes draw without overflow and are
        // accepted (on an empty stimulus: shifting events by up to
        // 2^63 cycles would size the waveforms to match).
        let edge = StimulusJitter {
            time: i64::MAX as u64 - 1,
            value: i64::MAX - 1,
        };
        let ack = soc.network.event_by_name("ACK").expect("exists");
        let mut valued = soc.clone();
        valued
            .stimulus
            .push((9_000, EventOccurrence::valued(ack, 7)));
        let variant = mc_stimulus_variant(&valued, 1, &edge);
        assert!(variant.stimulus.windows(2).all(|w| w[0].0 <= w[1].0));
        let quiet = SocDescription {
            stimulus: Vec::new(),
            ..soc
        };
        let sweep = explore_stimulus_seeds_parallel(
            &quiet,
            &config,
            &[1],
            &edge,
            &ExploreOptions::with_workers(1),
        )
        .expect("in-range jitter sweeps");
        assert_eq!(sweep.points.len(), 1);
    }

    #[test]
    fn watchdog_bounds_degraded_points_without_hanging() {
        let soc = sweep_soc();
        let config = CoSimConfig::date2000_defaults().with_watchdog(desim::WatchdogConfig {
            max_cycles: Some(10_000),
            ..desim::WatchdogConfig::unlimited()
        });
        let procs: Vec<ProcId> = soc.network.process_ids().collect();
        let par = explore_bus_architecture_parallel(
            &soc,
            &config,
            &procs,
            &[4],
            &ExploreOptions::with_workers(2),
        )
        .expect("sweep completes");
        assert_eq!(par.stats.points, par.points.len());
        assert_eq!(
            par.stats.degraded,
            par.points
                .iter()
                .filter(|p| p.report.outcome.is_degraded())
                .count()
        );
        // The stimulus runs to cycle 24_000, so a 10_000-cycle budget
        // must degrade every point rather than hang any of them.
        assert_eq!(par.stats.degraded, par.stats.points);
    }

    #[test]
    fn worker_errors_propagate_as_the_solo_error() {
        let soc = sweep_soc();
        // A fault plan naming an unknown event fails CoSimulator::new
        // with a typed error at every point of the sweep.
        let config = CoSimConfig::date2000_defaults()
            .with_faults(crate::faults::FaultPlan::new().drop_event(1, "NO_SUCH_EVENT"));
        let procs: Vec<ProcId> = soc.network.process_ids().collect();
        // The lowest-index point: the first permutation (the identity) at
        // the first DMA size.
        let mut first = soc.clone();
        for (rank, &p) in procs.iter().enumerate() {
            first.set_priority(p, (procs.len() - rank) as u8);
        }
        let Err(solo_err) = CoSimulator::new(first, config.with_dma_block_size(2)) else {
            panic!("the solo run must fail to build");
        };
        let par_err = explore_bus_architecture_parallel(
            &soc,
            &config,
            &procs,
            &[2, 8],
            &ExploreOptions::with_workers(3),
        )
        .expect_err("sweep fails");
        assert_eq!(format!("{solo_err}"), format!("{par_err}"));
    }

    #[test]
    fn empty_work_list_yields_empty_sweep() {
        let soc = sweep_soc();
        let config = CoSimConfig::date2000_defaults();
        let procs: Vec<ProcId> = soc.network.process_ids().collect();
        let par = explore_bus_architecture_parallel(
            &soc,
            &config,
            &procs,
            &[],
            &ExploreOptions::default(),
        )
        .expect("empty sweep");
        assert!(par.points.is_empty());
        assert_eq!(par.stats.points, 0);
    }

    #[test]
    fn timeline_option_adds_peak_column_without_perturbing_results() {
        let soc = sweep_soc();
        let config = CoSimConfig::date2000_defaults();
        let procs: Vec<ProcId> = soc.network.process_ids().collect();
        let dmas = [2u32, 16];
        let plain = explore_bus_architecture_parallel(
            &soc,
            &config,
            &procs,
            &dmas,
            &ExploreOptions::with_workers(1),
        )
        .expect("plain sweep");
        assert!(plain.stats.point_peak_power_w.is_empty());
        let mut peaks_by_workers: Vec<Vec<f64>> = Vec::new();
        for workers in [1usize, 3] {
            let opts = ExploreOptions::with_workers(workers).with_timeline(500);
            let timed = explore_bus_architecture_parallel(&soc, &config, &procs, &dmas, &opts)
                .expect("timeline sweep");
            // One peak per point, every peak physical, and the reports
            // bit-identical to the sink-free sweep.
            assert_eq!(timed.stats.point_peak_power_w.len(), timed.points.len());
            assert!(timed
                .stats
                .point_peak_power_w
                .iter()
                .all(|p| p.is_finite() && *p > 0.0));
            assert!(points_bitwise_equal(&plain.points, &timed.points));
            peaks_by_workers.push(timed.stats.point_peak_power_w.clone());
        }
        // The peak column itself is deterministic across worker counts.
        let bits = |v: &Vec<f64>| v.iter().map(|p| p.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&peaks_by_workers[0]), bits(&peaks_by_workers[1]));
    }

    #[test]
    fn options_constructors() {
        assert_eq!(ExploreOptions::with_workers(0).workers.get(), 1);
        assert_eq!(ExploreOptions::with_workers(6).workers.get(), 6);
        assert!(ExploreOptions::default().workers.get() >= 1);
        assert_eq!(
            ExploreOptions::with_workers(1).with_timeline(250).timeline,
            Some(250)
        );
    }
}
