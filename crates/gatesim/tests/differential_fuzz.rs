//! Differential fuzzing of the event-driven kernel against the
//! oblivious reference.
//!
//! The event-driven kernel's contract with the oblivious reference path
//! is *bitwise* identity — same settled values every cycle, same toggle
//! counters, same per-cycle energy down to the last mantissa bit (the
//! float accumulation order is part of the contract). This suite builds
//! random netlists (including DFF-to-DFF chains, constants, forward
//! references into flop outputs, and reconvergent logic) and drives
//! both kernels with identical random input sequences.

#![allow(clippy::expect_used, clippy::unwrap_used)]

use detrand::Rng;
use gatesim::{GateKind, NetId, Netlist, PowerConfig, SimKernel, Simulator};
use std::sync::Arc;

/// Builds a random valid netlist: inputs and constants first, then a
/// mix of combinational gates (fan-ins drawn from already-built nets,
/// keeping the combinational part acyclic) and DFFs whose D input may
/// reference any earlier net — including other flop outputs directly,
/// the shift-register case that exercises simultaneous edge sampling.
fn random_netlist(rng: &mut Rng) -> Netlist {
    let mut n = Netlist::new();
    let mut nets: Vec<NetId> = Vec::new();
    for _ in 0..rng.usize_in(1, 5) {
        nets.push(n.input());
    }
    if rng.bool_with(0.7) {
        nets.push(n.constant(true));
    }
    if rng.bool_with(0.5) {
        nets.push(n.constant(false));
    }
    let n_gates = rng.usize_in(10, 60);
    for _ in 0..n_gates {
        let pick = rng.usize_in(0, 10);
        let id = match pick {
            0 => {
                let d = *rng.choose(&nets);
                n.dff(d, rng.bool_with(0.5))
            }
            1 => n.gate(GateKind::Buf, vec![*rng.choose(&nets)]),
            2 => n.gate(GateKind::Not, vec![*rng.choose(&nets)]),
            3 => {
                let sel = *rng.choose(&nets);
                let a = *rng.choose(&nets);
                let b = *rng.choose(&nets);
                n.gate(GateKind::Mux, vec![sel, a, b])
            }
            _ => {
                let kind = *rng.choose(&[
                    GateKind::And,
                    GateKind::Or,
                    GateKind::Nand,
                    GateKind::Nor,
                    GateKind::Xor,
                    GateKind::Xnor,
                ]);
                let arity = rng.usize_in(1, 4);
                let ins = (0..arity).map(|_| *rng.choose(&nets)).collect();
                n.gate(kind, ins)
            }
        };
        nets.push(id);
    }
    n.mark_output("last", *nets.last().expect("nonempty"));
    n
}

/// Random per-cycle input forcings over the primary inputs.
fn random_stimulus(
    netlist: &Netlist,
    cycles: usize,
    change_p: f64,
    rng: &mut Rng,
) -> Vec<Vec<(NetId, bool)>> {
    let primary = netlist.primary_inputs();
    (0..cycles)
        .map(|_| {
            primary
                .iter()
                .filter_map(|&p| rng.bool_with(change_p).then(|| (p, rng.bool_with(0.5))))
                .collect()
        })
        .collect()
}

/// One cycle-by-cycle observation: every net's value plus the energy bit
/// pattern, so any divergence pins the exact cycle and net.
type CycleObs = (u64, Vec<bool>);

fn drive(
    netlist: &Arc<Netlist>,
    kernel: SimKernel,
    stimulus: &[Vec<(NetId, bool)>],
) -> (Vec<CycleObs>, Vec<u64>, Vec<u64>) {
    let mut sim = Simulator::with_kernel(Arc::clone(netlist), PowerConfig::date2000_defaults(), kernel)
        .expect("random netlists are valid by construction");
    let mut per_cycle = Vec::new();
    for inputs in stimulus {
        for &(net, v) in inputs {
            sim.set_input(net, v);
        }
        let e = sim.step();
        let values = (0..netlist.gate_count())
            .map(|i| sim.value(NetId(i as u32)))
            .collect();
        per_cycle.push((e.to_bits(), values));
    }
    let toggles = (0..netlist.gate_count())
        .map(|i| sim.toggle_count(NetId(i as u32)))
        .collect();
    let report_bits = sim.report().per_cycle_j.iter().map(|e| e.to_bits()).collect();
    (per_cycle, toggles, report_bits)
}

#[test]
fn all_kernels_match_oblivious_over_120_random_cases() {
    for case in 0..120u64 {
        let mut rng = Rng::new(0x9E37_79B9_7F4A_7C15 ^ case);
        let netlist = Arc::new(random_netlist(&mut rng));
        let cycles = rng.usize_in(10, 40);
        let stimulus = random_stimulus(&netlist, cycles, 0.6, &mut rng);
        let reference = drive(&netlist, SimKernel::Oblivious, &stimulus);
        let got = drive(&netlist, SimKernel::EventDriven, &stimulus);
        assert_eq!(
            got, reference,
            "event-driven diverged in case {case} ({} gates, {} cycles)",
            netlist.gate_count(),
            cycles
        );
    }
}

#[test]
fn event_driven_never_evaluates_more_gates_than_oblivious() {
    for case in 0..20u64 {
        let mut rng = Rng::new(0xC0FF_EE00_0000_0000 | case);
        let netlist = Arc::new(random_netlist(&mut rng));
        let primary = netlist.primary_inputs();
        let power = PowerConfig::date2000_defaults();
        let mut ev = Simulator::with_kernel(Arc::clone(&netlist), power.clone(), SimKernel::EventDriven)
            .expect("valid");
        let mut ob =
            Simulator::with_kernel(Arc::clone(&netlist), power, SimKernel::Oblivious).expect("valid");
        for _ in 0..30 {
            for &p in &primary {
                let v = rng.bool_with(0.5);
                ev.set_input(p, v);
                ob.set_input(p, v);
            }
            assert_eq!(ev.step().to_bits(), ob.step().to_bits());
        }
        assert!(
            ev.gate_evals() <= ob.gate_evals(),
            "case {case}: event-driven did more work ({} vs {})",
            ev.gate_evals(),
            ob.gate_evals()
        );
        assert_eq!(ev.gate_events(), ob.gate_events());
    }
}

#[test]
fn env_kernel_hatch_selects_event_or_oblivious() {
    // Own-process integration test: safe to touch the environment (the
    // sibling tests in this binary pin kernels explicitly and never
    // read it).
    std::env::remove_var("GATESIM_KERNEL");
    assert_eq!(SimKernel::from_env(), Ok(SimKernel::EventDriven));
    // Empty means unset.
    std::env::set_var("GATESIM_KERNEL", "");
    assert_eq!(SimKernel::from_env(), Ok(SimKernel::EventDriven));
    std::env::set_var("GATESIM_KERNEL", "oblivious");
    assert_eq!(SimKernel::from_env(), Ok(SimKernel::Oblivious));
    std::env::set_var("GATESIM_KERNEL", "event");
    assert_eq!(SimKernel::from_env(), Ok(SimKernel::EventDriven));
    // Parsing is case-insensitive and whitespace-tolerant.
    std::env::set_var("GATESIM_KERNEL", " Oblivious ");
    assert_eq!(SimKernel::from_env(), Ok(SimKernel::Oblivious));
    // Any other value, `word` and `simd` included, fails loudly with a
    // typed error listing exactly the two kernels instead of silently
    // falling back.
    for bad in ["word", "SIMD", "turbo"] {
        std::env::set_var("GATESIM_KERNEL", bad);
        let err = SimKernel::from_env().expect_err("unknown kernel must error");
        assert_eq!(err.value(), bad);
        let msg = err.to_string();
        assert!(
            msg.contains("one of: event, oblivious —"),
            "{msg:?} must list exactly event and oblivious"
        );
        assert_eq!(bad.parse::<SimKernel>(), Err(err));
    }
    std::env::remove_var("GATESIM_KERNEL");
    assert_eq!(SimKernel::from_env(), Ok(SimKernel::EventDriven));
}
