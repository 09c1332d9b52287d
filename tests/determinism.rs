//! Differential determinism: the sweep engine against a serial
//! reference of solo co-simulations, bitwise, on the Fig. 7
//! exploration.
//!
//! The engine's whole contract is that fanning a sweep across a worker
//! pool changes *nothing* about its result — only its latency. These
//! tests build every point of the 48-point Fig. 7 bus-architecture sweep
//! as a solo `CoSimulator` run (priorities and DMA size set by hand, no
//! sweep code), run the sweep at several worker counts (1, 2, 8, plus an
//! optional count from the `EXPLORE_WORKERS` env var, which CI uses to
//! probe extra pool shapes) and require every point — label, priority
//! assignment, DMA size, and the full report down to float bit patterns
//! — to be identical. A second pass repeats the comparison under a
//! non-empty `FaultPlan`, so the fault-injection layer does not break
//! the contract either.

mod common;

use co_estimation::{
    explore_bus_architecture_parallel, explore_partitions_parallel, BuildEstimatorError,
    CoSimConfig, CoSimulator, ExplorationPoint, ExploreOptions, FaultPlan,
};
use common::solo_bus_points;
use systems::tcpip::{self, TcpIpParams};

/// Worker counts under test: the fixed set plus CI's optional extra.
fn worker_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 8];
    if let Ok(extra) = std::env::var("EXPLORE_WORKERS") {
        if let Ok(n) = extra.parse::<usize>() {
            if n > 0 && !counts.contains(&n) {
                counts.push(n);
            }
        }
    }
    counts
}

fn fig7_soc() -> co_estimation::SocDescription {
    tcpip::build(&TcpIpParams::fig7_defaults()).expect("valid params")
}

fn fig7_procs(soc: &co_estimation::SocDescription) -> Vec<cfsm::ProcId> {
    ["create_pack", "ip_check", "checksum"]
        .iter()
        .map(|n| soc.network.process_by_name(n).expect("process exists"))
        .collect()
}

const FIG7_DMA_SIZES: [u32; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

fn assert_points_bitwise_equal(
    serial: &[ExplorationPoint],
    parallel: &[ExplorationPoint],
    context: &str,
) {
    assert_eq!(serial.len(), parallel.len(), "{context}: point count");
    for (i, (s, p)) in serial.iter().zip(parallel).enumerate() {
        assert_eq!(s.dma_block_size, p.dma_block_size, "{context}: point {i} dma");
        assert_eq!(s.priorities, p.priorities, "{context}: point {i} priorities");
        assert_eq!(s.label, p.label, "{context}: point {i} label");
        assert_eq!(
            s.energy_j().to_bits(),
            p.energy_j().to_bits(),
            "{context}: point {i} ({}, dma {}) energy bits",
            s.label,
            s.dma_block_size
        );
        if let Some(diff) = co_estimation::snapshot_diff(
            &s.report.golden_snapshot(),
            &p.report.golden_snapshot(),
        ) {
            panic!(
                "{context}: point {i} ({}, dma {}) report drift:\n{diff}",
                s.label, s.dma_block_size
            );
        }
    }
}

#[test]
fn fig7_parallel_sweep_is_bitwise_identical_to_serial() {
    let soc = fig7_soc();
    let config = CoSimConfig::date2000_defaults();
    let procs = fig7_procs(&soc);
    let serial = solo_bus_points(&soc, &config, &procs, &FIG7_DMA_SIZES);
    assert_eq!(serial.len(), 48, "6 permutations x 8 DMA sizes");
    for workers in worker_counts() {
        let sweep = explore_bus_architecture_parallel(
            &soc,
            &config,
            &procs,
            &FIG7_DMA_SIZES,
            &ExploreOptions::with_workers(workers),
        )
        .expect("parallel sweep");
        assert_points_bitwise_equal(
            &serial,
            &sweep.points,
            &format!("workers = {workers}"),
        );
        assert_eq!(sweep.stats.points, 48);
        assert_eq!(sweep.stats.degraded, 0);
    }
}

#[test]
fn fig7_parallel_sweep_matches_serial_under_fault_injection() {
    let soc = fig7_soc();
    // A non-empty plan exercising the delivery-fault and timed-fault
    // interception paths in every one of the 48 co-simulations.
    let config = CoSimConfig::date2000_defaults().with_faults(
        FaultPlan::new()
            .drop_event(1, "CHK_GO")
            .delay_event(2_400, "CHK_SUM", 700),
    );
    let procs = fig7_procs(&soc);
    // Half the DMA grid keeps the faulted differential affordable; the
    // full grid is covered by the fault-free differential above.
    let dmas = [1u32, 8, 32, 128];
    let serial = solo_bus_points(&soc, &config, &procs, &dmas);
    for workers in [2usize, 8] {
        let sweep = explore_bus_architecture_parallel(
            &soc,
            &config,
            &procs,
            &dmas,
            &ExploreOptions::with_workers(workers),
        )
        .expect("parallel sweep");
        assert_points_bitwise_equal(
            &serial,
            &sweep.points,
            &format!("faulted, workers = {workers}"),
        );
        // The faults really fired in every point.
        assert!(sweep
            .points
            .iter()
            .all(|p| p.report.anomalies.faults_injected() > 0));
    }
}

#[test]
fn partition_sweep_parallel_matches_serial() {
    let soc = fig7_soc();
    let config = CoSimConfig::date2000_defaults();
    let movable: Vec<cfsm::ProcId> = ["create_pack", "checksum"]
        .iter()
        .map(|n| soc.network.process_by_name(n).expect("process exists"))
        .collect();
    // The reference: every 2^2 mapping as a solo run, with partitions
    // that fail to synthesize absent.
    let mut serial = Vec::new();
    for bits in 0..4u32 {
        let mut variant = soc.clone();
        let mut labels = Vec::new();
        for (k, &p) in movable.iter().enumerate() {
            let m = if bits >> k & 1 == 1 {
                cfsm::Implementation::Hw
            } else {
                cfsm::Implementation::Sw
            };
            variant.network.set_mapping(p, m);
            labels.push(format!("{}={m}", soc.network.cfsm(p).name()));
        }
        let mapping: Vec<cfsm::Implementation> = variant
            .network
            .process_ids()
            .map(|p| variant.network.mapping(p))
            .collect();
        match CoSimulator::new(variant, config.clone()) {
            Ok(mut sim) => serial.push((labels.join(" "), mapping, sim.run())),
            Err(BuildEstimatorError::Synth(_, _)) => {}
            Err(e) => panic!("partition {bits:#b}: {e}"),
        }
    }
    let sweep = explore_partitions_parallel(
        &soc,
        &config,
        &movable,
        &ExploreOptions::with_workers(4),
    )
    .expect("parallel sweep");
    assert_eq!(serial.len(), sweep.points.len());
    for ((label, mapping, report), p) in serial.iter().zip(&sweep.points) {
        assert_eq!(label, &p.label);
        assert_eq!(mapping, &p.mapping);
        assert_eq!(
            report.total_energy_j().to_bits(),
            p.energy_j().to_bits(),
            "{label}"
        );
    }
}
