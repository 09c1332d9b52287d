//! Shared reference for the sweep-engine tests: the points a sweep must
//! reproduce, each built from a solo co-simulation without any sweep
//! code.

use co_estimation::{permutations, CoSimConfig, CoSimulator, ExplorationPoint, SocDescription};

/// The bus-architecture sweep's expected points in enumeration order
/// (every permutation of `procs`, each × every DMA size), each from a
/// solo run with the permutation's descending priorities set by hand.
pub fn solo_bus_points(
    soc: &SocDescription,
    config: &CoSimConfig,
    procs: &[cfsm::ProcId],
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
            let report = CoSimulator::new(variant, config.with_dma_block_size(dma))
                .expect("system builds")
                .run();
            points.push(ExplorationPoint {
                dma_block_size: dma,
                priorities,
                label: names.join(" > "),
                report,
            });
        }
    }
    points
}
