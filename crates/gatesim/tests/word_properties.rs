//! Property tests for the lockstep multi-stream simulators: every lane
//! of a [`LaneSim`] or [`SimdLaneSim`] run is bit-identical (per-cycle
//! energy, values, toggles) to a scalar [`Simulator`] run of that
//! lane's stream.

#![allow(clippy::expect_used, clippy::unwrap_used)]

use detrand::Rng;
use gatesim::{
    GateKind, LaneSim, NetId, Netlist, PowerConfig, SimKernel, SimdLaneSim, Simulator,
};
use std::sync::Arc;

/// A small random netlist generator (compact sibling of the
/// differential-fuzz generator; integration tests link separately).
fn random_netlist(rng: &mut Rng) -> Netlist {
    let mut n = Netlist::new();
    let mut nets: Vec<NetId> = Vec::new();
    for _ in 0..rng.usize_in(2, 4) {
        nets.push(n.input());
    }
    if rng.bool_with(0.5) {
        nets.push(n.constant(true));
    }
    for _ in 0..rng.usize_in(8, 30) {
        let id = match rng.usize_in(0, 8) {
            0 => n.dff(*rng.choose(&nets), rng.bool_with(0.5)),
            1 => n.gate(GateKind::Not, vec![*rng.choose(&nets)]),
            2 => {
                let (s, a, b) = (*rng.choose(&nets), *rng.choose(&nets), *rng.choose(&nets));
                n.gate(GateKind::Mux, vec![s, a, b])
            }
            _ => {
                let kind = *rng.choose(&[GateKind::And, GateKind::Or, GateKind::Xor, GateKind::Nand]);
                let ins = (0..rng.usize_in(1, 3)).map(|_| *rng.choose(&nets)).collect();
                n.gate(kind, ins)
            }
        };
        nets.push(id);
    }
    n.mark_output("last", *nets.last().expect("nonempty"));
    n
}

#[test]
fn every_lane_matches_a_scalar_run() {
    for case in 0..25u64 {
        let mut rng = Rng::new(0x1A9E_0000_0000_0000 | case);
        let netlist = Arc::new(random_netlist(&mut rng));
        let primary = netlist.primary_inputs();
        let lanes = rng.usize_in(1, 8);
        let cycles = rng.usize_in(5, 30);
        // Independent per-lane stimulus streams.
        let streams: Vec<Vec<Vec<(NetId, bool)>>> = (0..lanes)
            .map(|_| {
                (0..cycles)
                    .map(|_| {
                        primary
                            .iter()
                            .filter_map(|&p| {
                                rng.bool_with(0.4).then(|| (p, rng.bool_with(0.5)))
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let mut lane_sim = LaneSim::new(
            Arc::clone(&netlist),
            PowerConfig::date2000_defaults(),
            lanes,
        )
        .expect("valid");
        for j in 0..cycles {
            for (l, stream) in streams.iter().enumerate() {
                for &(net, v) in &stream[j] {
                    lane_sim.set_input(l, net, v);
                }
            }
            lane_sim.step();
        }
        let mut scalar_events = 0u64;
        for (l, stream) in streams.iter().enumerate() {
            let mut scalar = Simulator::with_kernel(
                Arc::clone(&netlist),
                PowerConfig::date2000_defaults(),
                SimKernel::EventDriven,
            )
            .expect("valid");
            for cyc in stream {
                for &(net, v) in cyc {
                    scalar.set_input(net, v);
                }
                scalar.step();
            }
            scalar_events += scalar.gate_events();
            let scalar_bits: Vec<u64> =
                scalar.report().per_cycle_j.iter().map(|e| e.to_bits()).collect();
            let lane_bits: Vec<u64> =
                lane_sim.report(l).per_cycle_j.iter().map(|e| e.to_bits()).collect();
            assert_eq!(scalar_bits, lane_bits, "case {case} lane {l} energy");
            for i in 0..netlist.gate_count() {
                let net = NetId(i as u32);
                assert_eq!(
                    lane_sim.value(net, l),
                    scalar.value(net),
                    "case {case} lane {l} net {i}"
                );
                assert_eq!(
                    lane_sim.toggle_count(net, l),
                    scalar.toggle_count(net),
                    "case {case} lane {l} net {i} toggles"
                );
            }
        }
        // Lockstep activity is the sum of the scalar runs' activity.
        assert_eq!(lane_sim.gate_events(), scalar_events, "case {case}");
    }
}

#[test]
fn simd_lane_counts_match_scalar_runs_at_width_boundaries() {
    // Lane counts straddling every lane-word width — a single lane, one
    // short of / exactly / one past the u64 word, and the wider 128-
    // and 256-lane words. Every lane of the width-erased [`SimdLaneSim`]
    // must be bit-identical (per-cycle energy, values, toggles) to its
    // own scalar event-driven run; the random netlists include DFF
    // chains, so flop edges land inside and across word boundaries.
    for &lanes in &[1usize, 63, 64, 65, 128, 256] {
        let mut rng = Rng::new(0x51D0_0000_0000_0000 | lanes as u64);
        let netlist = Arc::new(random_netlist(&mut rng));
        let primary = netlist.primary_inputs();
        let cycles = 20usize;
        let streams: Vec<Vec<Vec<(NetId, bool)>>> = (0..lanes)
            .map(|_| {
                (0..cycles)
                    .map(|_| {
                        primary
                            .iter()
                            .filter_map(|&p| {
                                rng.bool_with(0.4).then(|| (p, rng.bool_with(0.5)))
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let mut sim = SimdLaneSim::new(
            Arc::clone(&netlist),
            PowerConfig::date2000_defaults(),
            lanes,
        )
        .expect("valid");
        assert_eq!(sim.lanes(), lanes);
        for j in 0..cycles {
            for (l, stream) in streams.iter().enumerate() {
                for &(net, v) in &stream[j] {
                    sim.set_input(l, net, v);
                }
            }
            sim.step();
        }
        let mut scalar_events = 0u64;
        for (l, stream) in streams.iter().enumerate() {
            let mut scalar = Simulator::with_kernel(
                Arc::clone(&netlist),
                PowerConfig::date2000_defaults(),
                SimKernel::EventDriven,
            )
            .expect("valid");
            for cyc in stream {
                for &(net, v) in cyc {
                    scalar.set_input(net, v);
                }
                scalar.step();
            }
            scalar_events += scalar.gate_events();
            let scalar_bits: Vec<u64> =
                scalar.report().per_cycle_j.iter().map(|e| e.to_bits()).collect();
            let lane_bits: Vec<u64> =
                sim.report(l).per_cycle_j.iter().map(|e| e.to_bits()).collect();
            assert_eq!(scalar_bits, lane_bits, "lanes {lanes} lane {l} energy");
            for i in 0..netlist.gate_count() {
                let net = NetId(i as u32);
                assert_eq!(
                    sim.value(net, l),
                    scalar.value(net),
                    "lanes {lanes} lane {l} net {i}"
                );
                assert_eq!(
                    sim.toggle_count(net, l),
                    scalar.toggle_count(net),
                    "lanes {lanes} lane {l} net {i} toggles"
                );
            }
        }
        assert_eq!(sim.gate_events(), scalar_events, "lanes {lanes}");
    }
}
