//! Per-layer metrics of the traced run.
//!
//! Run-time layers come from the master's profile spans, turned into
//! self-times by subtraction so that they partition `MasterRun`:
//!
//! | layer | self time |
//! |---|---|
//! | `estimator.hw` | `GateSimKernel` |
//! | `estimator.sw` | `EstimatorFiring − GateSimKernel` |
//! | `accel.self` | `AccelDecision − EstimatorFiring` |
//! | `master.self` | `MasterRun − AccelDecision` |
//!
//! `GateSimKernel` re-books the wall of each hardware `EstimatorFiring`,
//! so it is subtracted, never added.

use co_estimation::{AnomalyKind, CoSimReport};
use soctrace::{MetricsSink, ProfileReport, SpanKind};

use crate::stats::{median, Metric};
use crate::workload::{Op, Pass, Sample, SetupProbe, Technique};

/// The run-time layer self-times of one traced pass, nanoseconds.
pub struct RunLayers {
    pub hw_ns: f64,
    pub sw_ns: f64,
    pub accel_ns: f64,
    pub master_ns: f64,
    pub master_run_ns: f64,
    /// `run()` wall timed from outside the master (the sweep engine's
    /// `SweepPoint` spans, or the benchmark's own timer).
    pub external_run_ns: f64,
}

impl RunLayers {
    /// Derives the self-times of one traced pass of `ops` operations,
    /// checking that the spans nest (so that the self-times partition
    /// `MasterRun`) and that `MasterRun` fits inside the externally timed
    /// `run()` wall.
    pub fn of(profile: &ProfileReport, pass: &Pass, ops: usize) -> Result<RunLayers, String> {
        let total = |k| profile.stats(k).total_ns;
        let (gk, ef, ad, mr) = (
            total(SpanKind::GateSimKernel),
            total(SpanKind::EstimatorFiring),
            total(SpanKind::AccelDecision),
            total(SpanKind::MasterRun),
        );
        let runs = profile.stats(SpanKind::MasterRun).count;
        if runs != ops as u64 {
            return Err(format!("{runs} MasterRun spans for {ops} operations"));
        }
        // Nesting makes every self-time non-negative; the four then sum
        // to `MasterRun` exactly.
        if !(gk <= ef && ef <= ad && ad <= mr) {
            return Err(format!(
                "nested spans out of order: gate {gk} ns, firing {ef} ns, accel {ad} ns, run {mr} ns"
            ));
        }
        let (hw, sw, accel, master) = (gk, ef - gk, ad - ef, mr - ad);
        let sweep_ns = total(SpanKind::SweepPoint);
        let external = if sweep_ns > 0 {
            sweep_ns as f64
        } else {
            pass.samples.iter().map(|s| s.run_ms).sum::<f64>() * 1e6
        };
        if external < mr as f64 {
            return Err(format!(
                "MasterRun ({mr} ns) exceeds the externally timed run() wall ({external:.0} ns)"
            ));
        }
        Ok(RunLayers {
            hw_ns: hw as f64,
            sw_ns: sw as f64,
            accel_ns: accel as f64,
            master_ns: master as f64,
            master_run_ns: mr as f64,
            external_run_ns: external,
        })
    }
}

/// Deterministic work counters of one pass: trace-sink aggregates and
/// the simulated statistics of the reports.
#[derive(Default)]
pub struct Counters {
    pub gate_evals: u64,
    pub gate_events: u64,
    pub detailed_calls: u64,
    pub accelerated_calls: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub sampled_served: u64,
    pub sampled_detailed: u64,
    pub firings: u64,
    pub bus_words: u64,
    pub bus_grants: u64,
    pub icache_fetches: u64,
    pub icache_hits: u64,
    pub buffer_overwrites: u64,
    /// Operations whose sink saw a different firing count than their
    /// report states.
    pub sink_mismatches: u64,
}

impl Counters {
    pub fn add(&mut self, r: &CoSimReport, m: &MetricsSink) {
        self.gate_evals += m.gate_evals;
        self.gate_events += m.gate_events;
        self.detailed_calls += m.detailed_calls;
        self.accelerated_calls += m.accelerated_calls();
        self.cache_hits += m.cache_hits;
        self.cache_misses += m.cache_misses;
        if let Some(s) = &r.effectiveness.sampling {
            self.sampled_served += s.served;
            self.sampled_detailed += s.samples;
        }
        self.firings += r.firings;
        self.bus_words += r.bus.words;
        self.bus_grants += r.bus.blocks;
        self.icache_fetches += r.cache.accesses;
        self.icache_hits += r.cache.hits;
        self.buffer_overwrites += r
            .anomalies
            .iter()
            .filter(|a| matches!(a.kind, AnomalyKind::BufferOverwrite { .. }))
            .count() as u64;
        if m.firings != r.firings {
            self.sink_mismatches += 1;
        }
    }
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Mean energy error of each accelerated technique against its row's
/// detailed run, over the rows where both delivered the same firings.
pub struct Accuracy {
    /// Caching, macro-modeling, sampling — in that order, percent.
    pub error_pct: [f64; 3],
    /// Accelerated rows left out because their per-process firing counts
    /// differed from the detailed row's (not like-with-like).
    pub flagged: Vec<String>,
}

impl Accuracy {
    pub fn of(ops: &[Op], samples: &[Sample]) -> Result<Accuracy, String> {
        let firings = |r: &CoSimReport| r.processes.iter().map(|p| p.firings).collect::<Vec<_>>();
        let mut sums = [(0.0, 0u32); 3];
        let mut flagged = Vec::new();
        for (op, sample) in ops.iter().zip(samples) {
            let slot = match op.technique {
                Technique::Detailed => continue,
                Technique::Caching => 0,
                Technique::MacroModel => 1,
                Technique::Sampling => 2,
            };
            let detailed = ops
                .iter()
                .zip(samples)
                .find(|(o, _)| o.row == op.row && o.technique == Technique::Detailed);
            // A failed run is counted by the fingerprint check instead.
            let (Some((_, d)), Some(fast)) = (detailed, sample.report.as_ref()) else {
                continue;
            };
            let Some(base) = d.report.as_ref() else {
                continue;
            };
            if firings(base) != firings(fast) {
                flagged.push(op.label.clone());
                continue;
            }
            let (e0, e1) = (base.total_energy_j(), fast.total_energy_j());
            sums[slot].0 += 100.0 * ((e1 - e0) / e0).abs();
            sums[slot].1 += 1;
        }
        let mut error_pct = [0.0; 3];
        for (i, (sum, n)) in sums.into_iter().enumerate() {
            if n == 0 {
                return Err(format!(
                    "no like-with-like row for {}",
                    Technique::ALL[i + 1].name()
                ));
            }
            error_pct[i] = sum / f64::from(n);
        }
        Ok(Accuracy { error_pct, flagged })
    }
}

/// Everything the traced run measured, reduced to the per-layer metrics.
pub struct TracedRun {
    pub ops: usize,
    pub probes: Vec<SetupProbe>,
    pub layers: Vec<RunLayers>,
    pub untraced_wall_s: Vec<f64>,
    pub traced_wall_s: Vec<f64>,
    pub busy_pct: Vec<f64>,
}

impl TracedRun {
    pub fn metrics(&self, c: &Counters, acc: &Accuracy) -> Vec<Metric> {
        let n = self.ops as f64;
        let probe = |f: fn(&SetupProbe) -> f64| median_of(&self.probes, f);
        let per_op_ms = |f: fn(&RunLayers) -> f64| median_of(&self.layers, |l| f(l) / n / 1e6);
        // Self time per unit of work; the work counts are per pass.
        let per_unit = |f: fn(&RunLayers) -> f64, units: u64, scale: f64| {
            if units == 0 {
                0.0
            } else {
                median_of(&self.layers, |l| f(l) / scale / units as f64)
            }
        };
        let compaction = if c.sampled_detailed == 0 {
            1.0
        } else {
            (c.sampled_served + c.sampled_detailed) as f64 / c.sampled_detailed as f64
        };
        let m = Metric::new;
        vec![
            m("systems.build_ms", probe(|p| p.systems_build_ms), "ms"),
            m("estimator.hw_build_ms", probe(|p| p.hw_build_ms), "ms"),
            m("estimator.sw_build_ms", probe(|p| p.sw_build_ms), "ms"),
            m(
                "macromodel.characterize_ms",
                probe(|p| p.characterize_ms),
                "ms",
            ),
            m("master.new_ms", probe(|p| p.new_ms), "ms"),
            m("estimator.hw_ms", per_op_ms(|l| l.hw_ns), "ms"),
            m("estimator.sw_ms", per_op_ms(|l| l.sw_ns), "ms"),
            m("accel.self_ms", per_op_ms(|l| l.accel_ns), "ms"),
            m("master.self_ms", per_op_ms(|l| l.master_ns), "ms"),
            m(
                "master.us_per_firing",
                per_unit(|l| l.master_ns, c.firings, 1e3),
                "us",
            ),
            m(
                "estimator.ns_per_gate_eval",
                per_unit(|l| l.hw_ns, c.gate_evals, 1.0),
                "ns",
            ),
            m(
                "explore.point_overhead_ms",
                per_op_ms(|l| l.external_run_ns - l.master_run_ns),
                "ms",
            ),
            m("explore.worker_busy_pct", median(&self.busy_pct), "%"),
            m(
                "trace.overhead_pct",
                100.0 * (median(&self.traced_wall_s) / median(&self.untraced_wall_s) - 1.0),
                "%",
            ),
            m("gatesim.gate_evals", c.gate_evals as f64, "count"),
            m("gatesim.gate_events", c.gate_events as f64, "count"),
            m("master.detailed_calls", c.detailed_calls as f64, "count"),
            m(
                "accel.accelerated_calls",
                c.accelerated_calls as f64,
                "count",
            ),
            m(
                "accel.cache_hit_rate",
                pct(c.cache_hits, c.cache_hits + c.cache_misses),
                "%",
            ),
            m("accel.sampling_compaction", compaction, "ratio"),
            m("master.firings", c.firings as f64, "count"),
            m("busmodel.bus_words", c.bus_words as f64, "count"),
            m("busmodel.bus_grants", c.bus_grants as f64, "count"),
            m("cachesim.icache_fetches", c.icache_fetches as f64, "count"),
            m(
                "cachesim.icache_hit_rate",
                pct(c.icache_hits, c.icache_fetches),
                "%",
            ),
            m(
                "master.buffer_overwrites",
                c.buffer_overwrites as f64,
                "count",
            ),
            m("caching_error_pct", acc.error_pct[0], "%"),
            m("macromodel_error_pct", acc.error_pct[1], "%"),
            m("sampling_error_pct", acc.error_pct[2], "%"),
            m("accel.flagged_rows", acc.flagged.len() as f64, "count"),
        ]
    }
}
