//! Iterative design-space exploration of the TCP/IP NIC subsystem
//! (§5.3): sweep the bus DMA block size and master priorities, then
//! inspect where the energy goes in the best and worst configurations.
//!
//! ```sh
//! cargo run --release --example tcpip_exploration
//! ```

use co_estimation::{
    explore_bus_architecture_parallel, minimum_energy, CoSimConfig, ExploreOptions,
};
use systems::tcpip::{build, TcpIpParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let soc = build(&TcpIpParams::fig7_defaults())?;
    let procs: Vec<cfsm::ProcId> = ["create_pack", "ip_check", "checksum"]
        .iter()
        .map(|n| {
            soc.network
                .process_by_name(n)
                .ok_or_else(|| format!("process {n} not found"))
        })
        .collect::<Result<_, _>>()?;

    let sweep = explore_bus_architecture_parallel(
        &soc,
        &CoSimConfig::date2000_defaults(),
        &procs,
        &[1, 4, 16, 64],
        &ExploreOptions::default(),
    )?;
    let points = sweep.points;
    println!(
        "explored {} configurations on {} worker(s) in {:.1} ms\n",
        points.len(),
        sweep.stats.workers,
        sweep.stats.wall_ms
    );

    let min = minimum_energy(&points).ok_or("empty sweep")?;
    let max = points
        .iter()
        .max_by(|a, b| a.energy_j().total_cmp(&b.energy_j()))
        .ok_or("empty sweep")?;

    for (tag, point) in [("BEST", min), ("WORST", max)] {
        let r = &point.report;
        println!(
            "{tag}: DMA = {}, priorities {} -> {:.4e} J over {} cycles",
            point.dma_block_size,
            point.label,
            point.energy_j(),
            r.total_cycles
        );
        for p in &r.processes {
            println!(
                "    {:<14} [{}] {:>12.4e} J  ({} firings)",
                p.name, p.mapping, p.energy_j, p.firings
            );
        }
        println!(
            "    {:<14}      {:>12.4e} J  ({} blocks, {} bus-wait cycles)",
            "bus", r.bus_energy_j, r.bus.blocks, r.bus.wait_cycles
        );
        println!(
            "    {:<14}      {:>12.4e} J  ({})",
            "icache", r.cache_energy_j, r.cache
        );
        // Peak-power correlation (§5.3's closing observation).
        if let Some((bucket, e)) = r.account.system_waveform().peak() {
            println!(
                "    peak power bucket #{bucket} ({:.3e} J) — aligns with arbiter handshakes\n",
                e
            );
        }
    }
    println!(
        "savings best vs worst: {:.1}%",
        100.0 * (max.energy_j() - min.energy_j()) / max.energy_j()
    );
    Ok(())
}
