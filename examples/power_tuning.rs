//! Tuning power management on the TCP/IP subsystem: sweeping gating
//! idle-timeouts against DVFS operating points and printing the
//! energy/runtime Pareto frontier.
//!
//! Gating trades wake-up overhead against leakage saved while idle;
//! DVFS trades runtime (a slower clock stretches the schedule) against
//! dynamic energy (`voltage_scale²`). Neither axis dominates the other,
//! so the interesting designs form a Pareto frontier over
//! `(total energy, total cycles)`.
//!
//! ```sh
//! cargo run --release --example power_tuning
//! ```

use co_estimation::{
    explore_power_policies_parallel, CoSimConfig, ExploreOptions, GatingPolicy, LeakageModel,
    OperatingPoint, PowerPoint, PowerPolicy,
};
use systems::tcpip::{build, TcpIpParams};

/// `true` when `a` is no worse than `b` on both axes and better on one.
fn dominates(a: &PowerPoint, b: &PowerPoint) -> bool {
    let (ae, ac) = (a.energy_j(), a.report.total_cycles);
    let (be, bc) = (b.energy_j(), b.report.total_cycles);
    ae <= be && ac <= bc && (ae < be || ac < bc)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let soc = build(&TcpIpParams::fig7_defaults())?;
    let config = CoSimConfig::date2000_defaults().with_dma_block_size(4);
    // A plausible 0.25 µm-era static-power floor: 2 mW per process
    // component, with the default gating factors (clock gating keeps
    // 30% of nominal leakage, power gating 2%).
    let leakage = LeakageModel::with_default_rate(2.0e-3);

    // The sweep: gating idle-timeouts × DVFS points for the two
    // producer-side processes, which idle between packets.
    let timeouts: [Option<u64>; 4] = [None, Some(200), Some(1_000), Some(5_000)];
    let ops = [
        None,
        Some(OperatingPoint::new("0.9v_0.8f", 0.9, 0.8)),
        Some(OperatingPoint::new("0.8v_0.5f", 0.8, 0.5)),
    ];
    let mut policies = vec![PowerPolicy::none()];
    for timeout in timeouts {
        for op in &ops {
            if timeout.is_none() && op.is_none() {
                // All-Active at nominal with leakage only: the reference
                // the savings counters are measured against.
                policies.push(PowerPolicy::named("leak_only").with_leakage(leakage.clone()));
                continue;
            }
            let mut label = String::from("t=");
            label.push_str(&timeout.map_or("off".into(), |t| t.to_string()));
            label.push_str(" op=");
            label.push_str(op.as_ref().map_or("nominal", |o| o.name.as_str()));
            let mut p = PowerPolicy::named(label).with_leakage(leakage.clone());
            if let Some(t) = timeout {
                p = p
                    .gate("create_pack", GatingPolicy::clock(t))
                    .gate("packet_queue", GatingPolicy::power(t, 5.0e-8, 20));
            }
            if let Some(o) = op {
                p = p
                    .with_operating_point(o.clone())
                    .dvfs("create_pack", 0)
                    .dvfs("packet_queue", 0);
            }
            policies.push(p);
        }
    }

    let points =
        explore_power_policies_parallel(&soc, &config, &policies, &ExploreOptions::default())?
            .points;

    println!(
        "{:>22} | {:>11} {:>9} | {:>10} {:>10} {:>10} {:>10}",
        "policy", "energy J", "cycles", "leak J", "dvfs J", "gate J", "net J"
    );
    for pt in &points {
        let (leak, dvfs, gate, net) = pt.report.power.as_ref().map_or((0.0, 0.0, 0.0, 0.0), |p| {
            (
                p.leakage_j,
                p.savings.dvfs_dynamic_saved_j,
                p.savings.gating_leakage_saved_j,
                p.savings.net_saved_j(),
            )
        });
        let frontier = !points.iter().any(|other| dominates(other, pt));
        println!(
            "{:>22} | {:>11.4e} {:>9} | {:>10.3e} {:>10.3e} {:>10.3e} {:>10.3e} {}",
            pt.policy_name,
            pt.energy_j(),
            pt.report.total_cycles,
            leak,
            dvfs,
            gate,
            net,
            if frontier { "*" } else { "" }
        );
    }
    println!(
        "\n* = on the energy/runtime Pareto frontier. Gating shaves leakage\n\
         without touching the schedule; DVFS buys dynamic energy with cycles;\n\
         the frontier designs combine an aggressive gate with a mild\n\
         operating point."
    );
    Ok(())
}
