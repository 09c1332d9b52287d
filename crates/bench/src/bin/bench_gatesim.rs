//! Gate-simulation kernel benchmark: the event-driven levelized kernel
//! against the oblivious reference path, plus the lockstep lane engines
//! — the 64-stream [`LaneSim`], the width-erased [`SimdLaneSim`], and
//! the lane-scheduled Monte-Carlo sweep from `co-estimation` — on the
//! synthesized TCP/IP checksum netlist, written as `BENCH_gatesim.json`
//! so the perf trajectory tracks the hot inner loop across PRs.
//!
//! A timing entry only exists if the kernels agreed bit for bit
//! (per-cycle energy bit patterns and all output values) over the same
//! stimulus first, and every `LaneSim`/`SimdLaneSim` lane matched a
//! scalar run of its stream. The full run also times the end-to-end
//! Fig. 7 sweep under both kernels.
//!
//! Usage:
//!   cargo run --release -p soc-bench --bin bench_gatesim [out.json]
//!   cargo run --release -p soc-bench --bin bench_gatesim -- --smoke

// Regeneration binary for the evaluation harness: aborting loudly on a
// broken setup is correct here, matching the tests-and-benches carve-out
// from the workspace-wide panic-free policy.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use cfsm::TransitionId;
use co_estimation::{
    run_lane_sweep, run_lane_sweep_serial, CoSimConfig, ExploreOptions, LaneSweepConfig, LaneUnit,
};
use detrand::Rng;
use gatesim::{HwCfsm, LaneSim, NetId, Netlist, PowerConfig, SimKernel, SimdLaneSim, Simulator};
use soc_bench::{fig7, fig7_profile_overhead};
use std::sync::Arc;
use std::time::Instant;
use systems::tcpip::{self, TcpIpParams};

/// Per-input probability of changing value each cycle. Low, matching
/// the firing protocol's mostly-held ports (load/start pulses, stable
/// operand buses).
const P_TOGGLE: f64 = 0.1;

/// The 64-lane `LaneSim` lane throughput recorded in the committed
/// `BENCH_gatesim.json` before the simd backend landed — the
/// "existing word_parallel number" the simd acceptance bar is measured
/// against. (The same-run 64-lane number also moves with this PR's
/// charge-path optimizations, so it is reported separately.)
const BASELINE_WORD_LANE_CPS: f64 = 891_169.4;

/// Timed sections run several passes and keep the fastest wall time.
/// The bench host is a single shared core, and a co-tenant waking up
/// mid-measurement otherwise leaks into the throughput numbers; the
/// minimum over passes estimates kernel cost, not host load. Lockstep
/// passes are cheap (one wide run), scalar passes replay every stream.
const LOCKSTEP_PASSES: usize = 3;
const SCALAR_PASSES: usize = 2;

/// The synthesized checksum netlist of the TCP/IP system — the largest
/// transition, simulated on every detailed firing of the sweep's
/// hottest hardware process.
fn checksum_netlist() -> Arc<Netlist> {
    let soc = tcpip::build(&TcpIpParams::fig7_defaults()).expect("valid params");
    let config = CoSimConfig::date2000_defaults();
    let p = soc
        .network
        .process_by_name("checksum")
        .expect("tcpip has a checksum process");
    let hw = HwCfsm::synthesize(soc.network.cfsm(p), &config.synth, &config.hw_power)
        .expect("checksum synthesizes");
    let largest = (0..hw.transition_count())
        .max_by_key(|&k| hw.transition(TransitionId(k as u32)).gate_count())
        .expect("at least one transition");
    Arc::clone(hw.transition(TransitionId(largest as u32)).netlist())
}

/// Pre-rolled stimulus: the same input assignments drive every kernel.
fn stimulus(netlist: &Netlist, cycles: usize, seed: u64) -> Vec<Vec<(NetId, bool)>> {
    let primary = netlist.primary_inputs();
    let mut rng = Rng::new(seed);
    (0..cycles)
        .map(|_| {
            let mut changes = Vec::new();
            for &p in &primary {
                if rng.bool_with(P_TOGGLE) {
                    changes.push((p, rng.bool_with(0.5)));
                }
            }
            changes
        })
        .collect()
}

/// Drives one kernel over the stimulus, observing per-cycle energy bit
/// patterns and output values (the bitwise-equivalence evidence).
fn observe(
    netlist: &Arc<Netlist>,
    kernel: SimKernel,
    stim: &[Vec<(NetId, bool)>],
) -> (Vec<(u64, u64)>, u64, u64) {
    let mut sim = Simulator::with_kernel(
        Arc::clone(netlist),
        PowerConfig::date2000_defaults(),
        kernel,
    )
    .expect("valid netlist");
    let outputs: Vec<NetId> = netlist.outputs().iter().map(|(_, n)| *n).collect();
    let mut trace = Vec::with_capacity(stim.len());
    for inputs in stim {
        for &(net, v) in inputs {
            sim.set_input(net, v);
        }
        let e = sim.step();
        trace.push((e.to_bits(), sim.value_bus(&outputs)));
    }
    (trace, sim.gate_evals(), sim.gate_events())
}

/// Times one kernel over the stimulus with no per-cycle observation.
fn timed(netlist: &Arc<Netlist>, kernel: SimKernel, stim: &[Vec<(NetId, bool)>]) -> (f64, u64) {
    let mut sim = Simulator::with_kernel(
        Arc::clone(netlist),
        PowerConfig::date2000_defaults(),
        kernel,
    )
    .expect("valid netlist");
    let t0 = Instant::now();
    for inputs in stim {
        for &(net, v) in inputs {
            sim.set_input(net, v);
        }
        sim.step();
    }
    (t0.elapsed().as_secs_f64(), sim.gate_evals())
}

/// Independent per-lane stimulus streams for the lockstep runs.
fn lane_streams(
    netlist: &Netlist,
    lanes: usize,
    cycles: usize,
    seed: u64,
) -> Vec<Vec<Vec<(NetId, bool)>>> {
    (0..lanes)
        .map(|l| stimulus(netlist, cycles, seed ^ ((l as u64) << 16)))
        .collect()
}

/// Bitwise evidence for the lockstep simulator: every lane must match a
/// scalar event-driven run of its stream — per-cycle energy bit
/// patterns, all net values, and per-net toggle counts.
fn lanes_bitwise_identical(netlist: &Arc<Netlist>, lanes: usize, cycles: usize) -> bool {
    let streams = lane_streams(netlist, lanes, cycles, 0xC9EC);
    let mut ls = LaneSim::new(Arc::clone(netlist), PowerConfig::date2000_defaults(), lanes)
        .expect("valid netlist");
    for j in 0..cycles {
        for (l, stream) in streams.iter().enumerate() {
            for &(net, v) in &stream[j] {
                ls.set_input(l, net, v);
            }
        }
        ls.step();
    }
    streams.iter().enumerate().all(|(l, stream)| {
        let mut scalar = Simulator::with_kernel(
            Arc::clone(netlist),
            PowerConfig::date2000_defaults(),
            SimKernel::EventDriven,
        )
        .expect("valid netlist");
        for inputs in stream {
            for &(net, v) in inputs {
                scalar.set_input(net, v);
            }
            scalar.step();
        }
        let scalar_bits: Vec<u64> = scalar
            .report()
            .per_cycle_j
            .iter()
            .map(|e| e.to_bits())
            .collect();
        let lane_bits: Vec<u64> = ls
            .report(l)
            .per_cycle_j
            .iter()
            .map(|e| e.to_bits())
            .collect();
        scalar_bits == lane_bits
            && (0..netlist.gate_count()).all(|i| {
                let net = NetId(i as u32);
                ls.value(net, l) == scalar.value(net)
                    && ls.toggle_count(net, l) == scalar.toggle_count(net)
            })
    })
}

/// Lockstep lane throughput: `lanes` independent stimulus streams
/// simulated together by [`LaneSim`] versus one event-driven scalar run
/// per stream. Returns (lockstep wall, summed scalar wall) over the
/// same streams.
fn lane_throughput(netlist: &Arc<Netlist>, lanes: usize, cycles: usize) -> (f64, f64) {
    let streams = lane_streams(netlist, lanes, cycles, 0x1A9E);
    let mut lane_s = f64::INFINITY;
    for _ in 0..LOCKSTEP_PASSES {
        let mut ls = LaneSim::new(Arc::clone(netlist), PowerConfig::date2000_defaults(), lanes)
            .expect("valid netlist");
        let t0 = Instant::now();
        for j in 0..cycles {
            for (l, stream) in streams.iter().enumerate() {
                for &(net, v) in &stream[j] {
                    ls.set_input(l, net, v);
                }
            }
            ls.step();
        }
        lane_s = lane_s.min(t0.elapsed().as_secs_f64());
    }
    let mut scalar_s = 0.0;
    for stream in &streams {
        let s = (0..SCALAR_PASSES)
            .map(|_| timed(netlist, SimKernel::EventDriven, stream).0)
            .fold(f64::INFINITY, f64::min);
        scalar_s += s;
    }
    (lane_s, scalar_s)
}

/// Bitwise evidence for the width-erased simd lockstep engine: same
/// contract as [`lanes_bitwise_identical`], at lane counts past the
/// 64-lane `u64` word so the wide `[u64; N]` paths are exercised.
fn simd_lanes_bitwise_identical(netlist: &Arc<Netlist>, lanes: usize, cycles: usize) -> bool {
    let streams = lane_streams(netlist, lanes, cycles, 0x51D0);
    let mut ls = SimdLaneSim::new(Arc::clone(netlist), PowerConfig::date2000_defaults(), lanes)
        .expect("valid netlist");
    for j in 0..cycles {
        for (l, stream) in streams.iter().enumerate() {
            for &(net, v) in &stream[j] {
                ls.set_input(l, net, v);
            }
        }
        ls.step();
    }
    streams.iter().enumerate().all(|(l, stream)| {
        let mut scalar = Simulator::with_kernel(
            Arc::clone(netlist),
            PowerConfig::date2000_defaults(),
            SimKernel::EventDriven,
        )
        .expect("valid netlist");
        for inputs in stream {
            for &(net, v) in inputs {
                scalar.set_input(net, v);
            }
            scalar.step();
        }
        let scalar_bits: Vec<u64> = scalar
            .report()
            .per_cycle_j
            .iter()
            .map(|e| e.to_bits())
            .collect();
        let lane_bits: Vec<u64> = ls
            .report(l)
            .per_cycle_j
            .iter()
            .map(|e| e.to_bits())
            .collect();
        scalar_bits == lane_bits
            && (0..netlist.gate_count()).all(|i| {
                let net = NetId(i as u32);
                ls.value(net, l) == scalar.value(net)
                    && ls.toggle_count(net, l) == scalar.toggle_count(net)
            })
    })
}

/// Simd lane throughput: `lanes` independent streams in one wide
/// lockstep word versus one event-driven scalar run per stream.
/// Returns (lockstep wall, summed scalar wall) over the same streams.
fn simd_lane_throughput(netlist: &Arc<Netlist>, lanes: usize, cycles: usize) -> (f64, f64) {
    let streams = lane_streams(netlist, lanes, cycles, 0x51D1);
    let mut lane_s = f64::INFINITY;
    for _ in 0..LOCKSTEP_PASSES {
        let mut ls =
            SimdLaneSim::new(Arc::clone(netlist), PowerConfig::date2000_defaults(), lanes)
                .expect("valid netlist");
        let t0 = Instant::now();
        for j in 0..cycles {
            for (l, stream) in streams.iter().enumerate() {
                for &(net, v) in &stream[j] {
                    ls.set_input(l, net, v);
                }
            }
            ls.step();
        }
        lane_s = lane_s.min(t0.elapsed().as_secs_f64());
    }
    let mut scalar_s = 0.0;
    for stream in &streams {
        let s = (0..SCALAR_PASSES)
            .map(|_| timed(netlist, SimKernel::EventDriven, stream).0)
            .fold(f64::INFINITY, f64::min);
        scalar_s += s;
    }
    (lane_s, scalar_s)
}

/// Times the lane-scheduled Monte-Carlo sweep (units packed onto simd
/// lanes) against the serial scalar reference, asserting the demuxed
/// per-unit points are bitwise identical first. Returns (lane wall,
/// serial wall).
fn mc_sweep_throughput(netlist: &Arc<Netlist>, units: usize, cycles: usize) -> (f64, f64) {
    let units: Vec<LaneUnit> = (0..units)
        .map(|i| LaneUnit::MonteCarlo {
            seed: 0x5EED ^ ((i as u64) << 8),
        })
        .collect();
    let config = LaneSweepConfig {
        cycles,
        toggle_probability: P_TOGGLE,
        max_lanes: 256,
    };
    let power = PowerConfig::date2000_defaults();
    let mut lane_s = f64::INFINITY;
    let mut lanes = None;
    for _ in 0..LOCKSTEP_PASSES {
        let t0 = Instant::now();
        let r = run_lane_sweep(netlist, &power, &units, &config).expect("valid netlist");
        lane_s = lane_s.min(t0.elapsed().as_secs_f64());
        lanes.get_or_insert(r);
    }
    let lanes = lanes.expect("at least one lockstep pass");
    let mut serial_s = f64::INFINITY;
    let mut serial = None;
    for _ in 0..SCALAR_PASSES {
        let t0 = Instant::now();
        let r = run_lane_sweep_serial(netlist, &power, &units, &config).expect("valid netlist");
        serial_s = serial_s.min(t0.elapsed().as_secs_f64());
        serial.get_or_insert(r);
    }
    let serial = serial.expect("at least one serial pass");
    assert_eq!(
        lanes.points, serial.points,
        "lane-scheduled MC sweep diverged from serial scalar runs"
    );
    (lane_s, serial_s)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_gatesim.json".to_string());

    let netlist = checksum_netlist();
    let gates = netlist.gate_count();
    println!("== bench_gatesim: tcpip checksum netlist ({gates} gates) ==\n");

    // Bitwise cross-check first: no timing without equivalence.
    let check_cycles = if smoke { 2_000 } else { 5_000 };
    let check_stim = stimulus(&netlist, check_cycles, 0xBE9C);
    let (ev_trace, ev_evals, ev_events) = observe(&netlist, SimKernel::EventDriven, &check_stim);
    let (ob_trace, ob_evals, ob_events) = observe(&netlist, SimKernel::Oblivious, &check_stim);
    let bitwise_identical = ev_trace == ob_trace && ev_events == ob_events;
    assert!(bitwise_identical, "kernels diverged on the checksum netlist");
    assert!(
        ev_evals < ob_evals,
        "event-driven must evaluate strictly fewer gates ({ev_evals} vs {ob_evals})"
    );
    let ev_epc = ev_evals as f64 / check_cycles as f64;
    let ob_epc = ob_evals as f64 / check_cycles as f64;
    println!("bitwise identical over {check_cycles} cycles (event vs oblivious): {bitwise_identical}");
    println!(
        "gate evals/cycle: oblivious {ob_epc:.1}, event-driven {ev_epc:.1} \
         ({:.1}x reduction)\n",
        ob_epc / ev_epc.max(1e-12)
    );

    // Lockstep-lane evidence: every lane bit-identical to a scalar run.
    let (eq_lanes, eq_cycles) = if smoke { (8, 300) } else { (64, 300) };
    let lanes_identical = lanes_bitwise_identical(&netlist, eq_lanes, eq_cycles);
    assert!(lanes_identical, "LaneSim lanes diverged from scalar runs");
    println!("LaneSim: {eq_lanes} lanes bit-identical to scalar runs over {eq_cycles} cycles");

    // Lockstep-lane throughput: the word-level headline number. Word
    // evaluation pays across independent streams — 64 streams in
    // lockstep is where the 64x lane width pays off, regardless of how
    // often the checksum netlist's flops change state.
    let (tp_lanes, tp_cycles) = if smoke { (16, 1_500) } else { (64, 6_000) };
    let _ = lane_throughput(&netlist, tp_lanes, 200); // warm-up
    let (lane_s, lane_scalar_s) = lane_throughput(&netlist, tp_lanes, tp_cycles);
    let lane_speedup = lane_scalar_s / lane_s;
    let lane_cps = (tp_lanes * tp_cycles) as f64 / lane_s;
    println!(
        "LaneSim {tp_lanes} lanes x {tp_cycles} cycles: {lane_s:.3} s \
         ({lane_cps:.0} lane-cycles/s); event-driven scalar: {lane_scalar_s:.3} s \
         -> {lane_speedup:.2}x"
    );
    // Simd lockstep evidence at lane counts past the 64-lane u64 word,
    // so the wide `[u64; N]` words (and their inter-word carry paths)
    // are the thing being checked.
    let (sd_eq_lanes, sd_eq_cycles) = if smoke { (80, 200) } else { (256, 300) };
    let simd_lanes_identical = simd_lanes_bitwise_identical(&netlist, sd_eq_lanes, sd_eq_cycles);
    assert!(
        simd_lanes_identical,
        "SimdLaneSim lanes diverged from scalar runs"
    );
    println!(
        "SimdLaneSim: {sd_eq_lanes} lanes bit-identical to scalar runs over {sd_eq_cycles} cycles"
    );

    // Simd lane throughput: one wide word carries 4x the lanes of the
    // u64 engine per gate visit, amortizing the per-gate walk (index
    // loads, truth-table dispatch) that dominates the u64 inner loop.
    let (sd_lanes, sd_cycles) = if smoke { (128, 800) } else { (256, 3_000) };
    let _ = simd_lane_throughput(&netlist, sd_lanes, 100); // warm-up
    let (sd_s, sd_scalar_s) = simd_lane_throughput(&netlist, sd_lanes, sd_cycles);
    let sd_speedup = sd_scalar_s / sd_s;
    let sd_cps = (sd_lanes * sd_cycles) as f64 / sd_s;
    let sd_vs_word_lanes = sd_cps / lane_cps;
    println!(
        "SimdLaneSim {sd_lanes} lanes x {sd_cycles} cycles: {sd_s:.3} s \
         ({sd_cps:.0} lane-cycles/s); event-driven scalar: {sd_scalar_s:.3} s \
         -> {sd_speedup:.2}x vs event, {sd_vs_word_lanes:.2}x vs 64-lane word"
    );

    // Lane-scheduled Monte-Carlo sweep: independent seeded stimulus
    // units packed onto simd lanes versus one scalar event-driven run
    // per unit. Per-unit demux bitwise identity is asserted inside.
    let (mc_units, mc_cycles) = if smoke { (32, 200) } else { (256, 400) };
    let (mc_lane_s, mc_serial_s) = mc_sweep_throughput(&netlist, mc_units, mc_cycles);
    let mc_speedup = mc_serial_s / mc_lane_s;
    println!(
        "MC lane sweep: {mc_units} units x {mc_cycles} cycles: lanes {mc_lane_s:.3} s, \
         serial scalar {mc_serial_s:.3} s -> {mc_speedup:.2}x (points bitwise identical)"
    );

    if smoke {
        assert!(
            lane_speedup > 1.0,
            "lockstep lanes must beat scalar event-driven ({lane_speedup:.2}x)"
        );
        assert!(
            sd_speedup > 1.0,
            "simd lanes must beat scalar event-driven ({sd_speedup:.2}x)"
        );
        assert!(
            mc_speedup > 1.0,
            "lane-scheduled MC sweep must beat serial scalar ({mc_speedup:.2}x)"
        );
        println!(
            "\nsmoke mode: equivalence, eval-reduction, lane-speedup, and simd assertions passed"
        );
        return;
    }
    assert!(
        lane_speedup >= 4.0,
        "lockstep lanes must deliver >=4x over event-driven ({lane_speedup:.2}x)"
    );
    assert!(
        sd_speedup >= 10.0,
        "simd lanes must deliver >=10x over event-driven ({sd_speedup:.2}x)"
    );
    let sd_vs_baseline = sd_cps / BASELINE_WORD_LANE_CPS;
    assert!(
        sd_vs_baseline >= 1.5,
        "simd lane throughput must be >=1.5x the pre-simd 64-lane word number \
         ({sd_cps:.0} vs {BASELINE_WORD_LANE_CPS:.0} lane-cycles/s, {sd_vs_baseline:.2}x)"
    );
    assert!(
        mc_speedup > 1.0,
        "lane-scheduled MC sweep must beat serial scalar ({mc_speedup:.2}x)"
    );

    // Kernel timing: warm-up pass, then a measured pass each.
    let bench_cycles = 50_000;
    let bench_stim = stimulus(&netlist, bench_cycles, 0x51D3);
    let _ = timed(&netlist, SimKernel::EventDriven, &bench_stim);
    let (ob_s, _) = timed(&netlist, SimKernel::Oblivious, &bench_stim);
    let (ev_s, _) = timed(&netlist, SimKernel::EventDriven, &bench_stim);
    let ob_cps = bench_cycles as f64 / ob_s;
    let ev_cps = bench_cycles as f64 / ev_s;
    let speedup = ev_cps / ob_cps;
    println!("oblivious:    {ob_s:.3} s ({ob_cps:.0} cycles/s)");
    println!("event-driven: {ev_s:.3} s ({ev_cps:.0} cycles/s)");
    println!("kernel speedup: {speedup:.2}x\n");

    // End-to-end: the Fig. 7 sweep (48 points) under both kernels, via
    // the same escape hatch CI's differential runs use.
    let params = TcpIpParams::fig7_defaults();
    let one_worker = ExploreOptions::with_workers(1);
    let _ = fig7(&params, &one_worker); // warm-up (page faults, synth memo)
    std::env::set_var("GATESIM_KERNEL", "oblivious");
    let t0 = Instant::now();
    let oblivious_sweep = fig7(&params, &one_worker).points;
    let fig7_ob_s = t0.elapsed().as_secs_f64();
    std::env::remove_var("GATESIM_KERNEL");
    let t0 = Instant::now();
    let event_sweep = fig7(&params, &one_worker).points;
    let fig7_ev_s = t0.elapsed().as_secs_f64();
    let fig7_identical = oblivious_sweep.len() == event_sweep.len()
        && oblivious_sweep
            .iter()
            .zip(&event_sweep)
            .all(|(a, b)| a.report.golden_snapshot() == b.report.golden_snapshot());
    assert!(fig7_identical, "fig7 sweeps diverged between kernels");
    let fig7_speedup = fig7_ob_s / fig7_ev_s;
    println!(
        "fig7 sweep (48 points): oblivious {fig7_ob_s:.3} s, event-driven {fig7_ev_s:.3} s"
    );
    println!("end-to-end speedup: {fig7_speedup:.2}x (bitwise identical: {fig7_identical})");

    // Span-profiler cost on the same sweep (event-driven kernel): the
    // gate-sim spans must not perturb results (asserted inside the
    // helper) and the attached cost is recorded alongside the kernel
    // timings so both trajectories track together.
    let (detached_s, attached_s, _profile) = fig7_profile_overhead(&params);
    let profiler_overhead_pct = 100.0 * (attached_s - detached_s) / detached_s;
    println!(
        "profiler: detached {detached_s:.3} s, attached {attached_s:.3} s \
         ({profiler_overhead_pct:+.2}%)"
    );

    let json = format!(
        "{{\n  \"bench\": \"gatesim_kernels\",\n  \"netlist\": \"tcpip_checksum\",\n  \
         \"gates\": {gates},\n  \"bench_cycles\": {bench_cycles},\n  \
         \"input_toggle_probability\": {P_TOGGLE},\n  \
         \"oblivious\": {{\"wall_s\": {ob_s:.6}, \"cycles_per_sec\": {ob_cps:.1}, \
         \"gate_evals_per_cycle\": {ob_epc:.2}}},\n  \
         \"event_driven\": {{\"wall_s\": {ev_s:.6}, \"cycles_per_sec\": {ev_cps:.1}, \
         \"gate_evals_per_cycle\": {ev_epc:.2}}},\n  \
         \"speedup\": {speedup:.3},\n  \"eval_reduction\": {:.3},\n  \
         \"bitwise_identical\": {bitwise_identical},\n  \
         \"word_parallel\": {{\"lane_throughput\": {{\"lanes\": {tp_lanes}, \
         \"cycles_per_lane\": {tp_cycles}, \
         \"wall_s\": {lane_s:.6}, \"scalar_event_wall_s\": {lane_scalar_s:.6}, \
         \"lane_cycles_per_sec\": {lane_cps:.1}, \"speedup_vs_event\": {lane_speedup:.3}}}, \
         \"bitwise_identical\": {lanes_identical}}},\n  \
         \"simd\": {{\"lane_throughput\": {{\"lanes\": {sd_lanes}, \
         \"cycles_per_lane\": {sd_cycles}, \"wall_s\": {sd_s:.6}, \
         \"scalar_event_wall_s\": {sd_scalar_s:.6}, \
         \"lane_cycles_per_sec\": {sd_cps:.1}, \"speedup_vs_event\": {sd_speedup:.3}, \
         \"speedup_vs_word_lanes\": {sd_vs_word_lanes:.3}, \
         \"baseline_word_lane_cycles_per_sec\": {BASELINE_WORD_LANE_CPS:.1}, \
         \"speedup_vs_baseline_word_lanes\": {sd_vs_baseline:.3}}}, \
         \"monte_carlo_sweep\": {{\"units\": {mc_units}, \"cycles_per_unit\": {mc_cycles}, \
         \"lane_wall_s\": {mc_lane_s:.6}, \"serial_scalar_wall_s\": {mc_serial_s:.6}, \
         \"speedup\": {mc_speedup:.3}, \"bitwise_identical\": true}}, \
         \"bitwise_identical\": {simd_lanes_identical}}},\n  \
         \"fig7_sweep\": {{\"oblivious_wall_s\": {fig7_ob_s:.6}, \
         \"event_driven_wall_s\": {fig7_ev_s:.6}, \
         \"speedup\": {fig7_speedup:.3}, \
         \"bitwise_identical\": {fig7_identical}}},\n  \
         \"profiler_overhead\": {{\"detached_wall_s\": {detached_s:.6}, \
         \"attached_wall_s\": {attached_s:.6}, \
         \"attached_overhead_pct\": {profiler_overhead_pct:.3}, \
         \"bitwise_identical\": true}}\n}}\n",
        ob_epc / ev_epc.max(1e-12)
    );
    std::fs::write(&out_path, &json).expect("write benchmark json");
    println!("\nwrote {out_path}");
}
