//! Power-management benchmark: per-technique savings (gating, DVFS,
//! combined) on the TCP/IP system versus the all-Active baseline,
//! written as `BENCH_power.json` so the savings trajectory tracks
//! across PRs.
//!
//! Nothing is reported until two contracts verify:
//!
//! * the disabled policy (`PowerPolicy::none()`) reproduces the plain
//!   run **bit-identically** — the power layer must cost nothing when
//!   off;
//! * the policy sweep on 1 worker and on 4 workers agrees **bitwise**
//!   at every point with a solo run of that policy, and every managed
//!   report passes `verify_provenance`.
//!
//! Usage:
//!   cargo run --release -p soc-bench --bin bench_power [out.json]
//!   cargo run --release -p soc-bench --bin bench_power -- --smoke

// Regeneration binary for the evaluation harness: aborting loudly on a
// broken setup is correct here, matching the tests-and-benches carve-out
// from the workspace-wide panic-free policy.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use co_estimation::{
    explore_power_policies_parallel, CoSimConfig, CoSimulator, ExploreOptions, GatingPolicy,
    LeakageModel, OperatingPoint, PowerPoint, PowerPolicy, Provenance,
};
use systems::tcpip::{build, TcpIpParams};

/// The benchmark's static-power floor: 2 mW per process component.
const LEAK_W: f64 = 2.0e-3;

fn params() -> TcpIpParams {
    TcpIpParams {
        num_packets: 8,
        len_range: (8, 24),
        pkt_period: 5_000,
        seed: 3,
    }
}

/// The policy menu: every technique alone, then combined. The savings
/// counters are online (tracked against the same schedule all-Active),
/// so one run per policy suffices — no baseline subtraction.
fn policies() -> Vec<PowerPolicy> {
    let leakage = LeakageModel::with_default_rate(LEAK_W);
    vec![
        PowerPolicy::named("leak_only").with_leakage(leakage.clone()),
        PowerPolicy::named("clock_gating")
            .with_leakage(leakage.clone())
            .gate("create_pack", GatingPolicy::clock(300))
            .gate("packet_queue", GatingPolicy::clock(300)),
        PowerPolicy::named("power_gating")
            .with_leakage(leakage.clone())
            .gate("create_pack", GatingPolicy::power(600, 5.0e-8, 20))
            .gate("packet_queue", GatingPolicy::power(600, 5.0e-8, 20)),
        PowerPolicy::named("dvfs")
            .with_leakage(leakage.clone())
            .with_operating_point(OperatingPoint::new("0.8v_0.5f", 0.8, 0.5))
            .dvfs("create_pack", 0)
            .dvfs("packet_queue", 0),
        PowerPolicy::named("combined")
            .with_leakage(leakage)
            .with_operating_point(OperatingPoint::new("0.8v_0.5f", 0.8, 0.5))
            .dvfs("create_pack", 0)
            .dvfs("packet_queue", 0)
            .gate("create_pack", GatingPolicy::clock(300))
            .gate("packet_queue", GatingPolicy::power(600, 5.0e-8, 20)),
    ]
}

/// One verified technique row as a JSON object.
fn technique_json(pt: &PowerPoint) -> String {
    let p = pt.report.power.as_ref().expect("managed run");
    format!(
        "    {{\"technique\": \"{}\", \"energy_j\": {:e}, \"total_cycles\": {}, \
         \"leakage_j\": {:e}, \"dvfs_saved_j\": {:e}, \"gating_saved_j\": {:e}, \
         \"wake_overhead_j\": {:e}, \"net_saved_j\": {:e}, \"transitions\": {}}}",
        pt.policy_name,
        pt.energy_j(),
        pt.report.total_cycles,
        p.leakage_j,
        p.savings.dvfs_dynamic_saved_j,
        p.savings.gating_leakage_saved_j,
        p.savings.wake_overhead_j,
        p.savings.net_saved_j(),
        p.components.iter().map(|c| c.transitions).sum::<u64>(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_power.json".to_string());

    let soc = build(&params()).expect("valid params");
    let config = CoSimConfig::date2000_defaults();

    // Contract 1: the disabled policy is bit-identical to the plain run.
    let plain = CoSimulator::new(soc.clone(), config.clone())
        .expect("valid soc")
        .run();
    let disabled = CoSimulator::new(
        soc.clone(),
        config.with_power_policy(PowerPolicy::none()),
    )
    .expect("valid soc")
    .run();
    assert_eq!(
        plain.golden_snapshot(),
        disabled.golden_snapshot(),
        "PowerPolicy::none() must reproduce the plain run bit-identically"
    );
    assert!(
        disabled.power.is_none(),
        "a noop policy must not build a power report"
    );
    println!("disabled-policy bit-identity: verified");

    // Contract 2: the sweep on 1 and on 4 workers agrees bitwise with
    // solo runs of each policy, and every managed report keeps
    // provenance an exact partition.
    let menu = policies();
    let sweep = |workers| {
        explore_power_policies_parallel(
            &soc,
            &config,
            &menu,
            &ExploreOptions::with_workers(workers),
        )
        .expect("policy sweep")
        .points
    };
    let (one, four) = (sweep(1), sweep(4));
    assert!(one.len() == menu.len() && four.len() == menu.len());
    for ((policy, a), b) in menu.iter().zip(&one).zip(&four) {
        let solo = CoSimulator::new(soc.clone(), config.with_power_policy(policy.clone()))
            .expect("valid soc")
            .run()
            .golden_snapshot();
        assert!(
            a.report.golden_snapshot() == solo && b.report.golden_snapshot() == solo,
            "policy `{}`: 1-worker, 4-worker and solo runs diverged",
            policy.name
        );
        a.report
            .verify_provenance()
            .unwrap_or_else(|e| panic!("policy `{}`: {e}", policy.name));
        assert!(
            a.report.provenance.records_for(Provenance::Leakage) > 0,
            "policy `{}` must book leakage spans",
            policy.name
        );
    }
    println!(
        "1-worker vs 4-worker vs solo: {} policies bitwise identical, provenance exact",
        one.len()
    );

    // At least two techniques must actually save energy.
    let saving: Vec<&PowerPoint> = one
        .iter()
        .filter(|pt| pt.net_saved_j() > 0.0)
        .collect();
    assert!(
        saving.len() >= 2,
        "expected >= 2 techniques with positive net savings, got {}",
        saving.len()
    );

    if smoke {
        println!("smoke mode: bit-identity + sweep + savings assertions passed");
        return;
    }

    println!("\n== bench_power: tcpip per-technique savings ==\n");
    println!(
        "{:>14} | {:>11} {:>9} | {:>10} {:>10} {:>10} {:>10}",
        "technique", "energy J", "cycles", "leak J", "dvfs J", "gate J", "net J"
    );
    for pt in &one {
        let p = pt.report.power.as_ref().expect("managed run");
        println!(
            "{:>14} | {:>11.4e} {:>9} | {:>10.3e} {:>10.3e} {:>10.3e} {:>10.3e}",
            pt.policy_name,
            pt.energy_j(),
            pt.report.total_cycles,
            p.leakage_j,
            p.savings.dvfs_dynamic_saved_j,
            p.savings.gating_leakage_saved_j,
            p.savings.net_saved_j(),
        );
    }

    let rows: Vec<String> = one.iter().map(technique_json).collect();
    let json = format!(
        "{{\n  \"bench\": \"power\",\n  \"system\": \"tcpip\",\n  \
         \"leak_w_per_component\": {LEAK_W:e},\n  \
         \"baseline_energy_j\": {:e},\n  \
         \"disabled_policy_bit_identical\": true,\n  \
         \"workers_and_solo_bitwise_identical\": true,\n  \
         \"techniques\": [\n{}\n  ]\n}}\n",
        plain.total_energy_j(),
        rows.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write benchmark json");
    println!("\nwrote {out_path}");
}
