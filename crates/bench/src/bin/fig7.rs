//! Regenerates Fig. 7: exhaustive exploration of the TCP/IP
//! communication architecture — 6 priority assignments × 8 DMA sizes =
//! 48 design points, reporting the energy surface and the minimum.

// Regeneration binary for the evaluation harness: aborting loudly on a
// broken setup is correct here, matching the tests-and-benches carve-out
// from the workspace-wide panic-free policy.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use co_estimation::{minimum_energy, CoSimConfig, ExploreOptions};
use soc_bench::{fig7, render_sweep_stats, run_with_metrics, FIG7_DMA_SIZES};
use systems::tcpip::{self, TcpIpParams};

fn main() {
    println!("== Fig. 7: communication-architecture design-space exploration ==");
    println!("(paper: 48 points; minimum at DMA = 128 with priorities");
    println!(" Create_Pack > IP_Check > Checksum; whole sweep ≈ 180 min on an");
    println!(" Ultra Enterprise 450 — measure how long it takes here)\n");
    let options = ExploreOptions::default();
    println!("sweeping on {} worker thread(s)\n", options.workers);
    let sweep = fig7(&TcpIpParams::fig7_defaults(), &options);
    let points = sweep.points;

    // Group rows by priority label.
    let mut labels: Vec<&str> = points.iter().map(|p| p.label.as_str()).collect();
    labels.dedup();
    print!("{:<38}", "priorities \\ DMA");
    for dma in FIG7_DMA_SIZES {
        print!("{dma:>10}");
    }
    println!();
    for label in labels {
        print!("{label:<38}");
        for dma in FIG7_DMA_SIZES {
            let p = points
                .iter()
                .find(|p| p.label == label && p.dma_block_size == dma)
                .expect("grid point");
            print!("{:>10.3e}", p.energy_j());
        }
        println!();
    }
    let min = minimum_energy(&points).expect("nonempty sweep");
    println!(
        "\nminimum energy {:.4e} J at DMA = {} with priorities {}",
        min.energy_j(),
        min.dma_block_size,
        min.label
    );
    println!("sweep: {}", render_sweep_stats(&sweep.stats));

    // Observability cross-check at the minimum-energy configuration: a
    // single traced run whose MetricsSink aggregates must agree with the
    // report's own counters.
    let params = TcpIpParams::fig7_defaults();
    let soc = tcpip::build(&params).expect("valid params");
    let (report, metrics) = run_with_metrics(soc, CoSimConfig::date2000_defaults());
    assert_eq!(metrics.firings, report.firings, "trace/report firing drift");
    println!(
        "\ntrace metrics (default config): {} firings, {} detailed calls, \
         {} accelerated, {} bus grants ({} words), {} icache fetches",
        metrics.firings,
        metrics.detailed_calls,
        metrics.accelerated_calls(),
        metrics.bus_grants,
        metrics.bus_words,
        metrics.icache_fetches,
    );
}
