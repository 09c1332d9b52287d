//! Observability benchmark: the paper-style accuracy-vs-speedup table
//! with full energy-provenance attribution, per-technique effectiveness
//! counters, and the span profiler's own overhead, written as
//! `BENCH_observe.json` (plus an NDJSON row stream) so the
//! attribution/overhead trajectory tracks across PRs.
//!
//! Every row is double-checked before it is reported: the observed run
//! (profiler + metrics sink + provenance attached) must be bit-identical
//! to the detached run, and the provenance breakdown must sum bit-exactly
//! to the report totals.
//!
//! Usage:
//!   cargo run --release -p soc-bench --bin bench_observe [out.json]
//!   cargo run --release -p soc-bench --bin bench_observe -- --smoke

// Regeneration binary for the evaluation harness: aborting loudly on a
// broken setup is correct here, matching the tests-and-benches carve-out
// from the workspace-wide panic-free policy.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use co_estimation::{AccelEffectiveness, CoSimConfig, Provenance, SocDescription};
use soc_bench::{
    fig7_profile_overhead, fig7_timeline_overhead, observe_modes, observe_rows,
    render_observe_table, run_observed, timed_run, timeline_run,
};
use soctrace::json::JsonValue;
use soctrace::{check_vcd, json, write_perfetto, write_vcd, TimelineReport};
use std::time::Instant;
use systems::automotive::{self, AutomotiveParams};
use systems::producer_consumer::{self, ProducerConsumerParams};
use systems::tcpip::{self, TcpIpParams};

/// The documented budget for the observability layer's cost when every
/// sink is detached: under 2% of the Fig. 7 sweep.
const DETACHED_BUDGET_PCT: f64 = 2.0;

/// The documented budget for the power-timeline sink's cost when
/// attached to every point of the Fig. 7 sweep.
const TIMELINE_BUDGET_PCT: f64 = 10.0;

/// Timeline window width used for the benchmark's binning, master
/// clock cycles (the ledger's default waveform bucket).
const TIMELINE_WINDOW_CYCLES: u64 = 1_000;

/// Best-of-N measurements may still come out slightly negative on a
/// noisy host; anything below this is a measurement bug (the old
/// single-pass version reported −6%).
const OVERHEAD_NOISE_FLOOR_PCT: f64 = -2.0;

/// Hand-rolled JSON for the effectiveness counters (the workspace is
/// dependency-free; all benchmark artifacts are formatted by hand).
fn effectiveness_json(e: &AccelEffectiveness) -> String {
    let layers: Vec<String> = e
        .answered_by_layer
        .iter()
        .map(|(name, n)| format!("\"{name}\": {n}"))
        .collect();
    let cache = match &e.cache {
        Some(c) => format!(
            "{{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}, \
             \"distinct_paths\": {}, \"eligible_paths\": {}, \
             \"max_eligible_cv\": {:.6}, \"cv_bound\": {}}}",
            c.hits,
            c.misses,
            c.hit_rate(),
            c.distinct_paths,
            c.eligible_paths,
            c.max_eligible_cv,
            c.cv_bound
        ),
        None => "null".to_string(),
    };
    let sampling = match &e.sampling {
        Some(s) => format!(
            "{{\"period\": {}, \"served\": {}, \"samples\": {}, \
             \"compaction_ratio\": {:.3}}}",
            s.period,
            s.served,
            s.samples,
            s.compaction_ratio()
        ),
        None => "null".to_string(),
    };
    format!(
        "{{\"iss_calls_avoided\": {}, \"answered_by_layer\": {{{}}}, \
         \"cache\": {cache}, \"sampling\": {sampling}}}",
        e.iss_calls_avoided(),
        layers.join(", ")
    )
}

/// Checks one system under one acceleration mode: the observed run
/// (provenance + profiler + metrics attached) must match the plain run
/// bit for bit, and the attribution must sum bit-exactly.
fn check_system(name: &str, soc: SocDescription, config: CoSimConfig, mode: &str) {
    let (plain, _) = timed_run(soc.clone(), config.clone());
    let (observed, profile, _metrics) = run_observed(soc, config);
    assert_eq!(
        plain.golden_snapshot(),
        observed.golden_snapshot(),
        "{name}/{mode}: observability perturbed the report"
    );
    observed
        .verify_provenance()
        .unwrap_or_else(|e| panic!("{name}/{mode}: provenance mismatch: {e}"));
    assert!(
        profile.total_spans() > 0,
        "{name}/{mode}: profiler attached but recorded nothing"
    );
}

/// One calibration-seed NDJSON row per timeline window: the window's
/// activity counters next to the per-component energies it produced —
/// the `(counters, energy)` pairs ROADMAP item 5a's counter-based
/// macro-model calibration will regress over.
fn calibration_rows(system: &str, technique: &str, tl: &TimelineReport) -> String {
    let mut out = String::new();
    for w in 0..tl.window_count() {
        let c = &tl.counters[w];
        let comps: Vec<String> = tl
            .components
            .iter()
            .map(|cw| format!("\"{}\": {:e}", cw.name, cw.window_energy_j[w]))
            .collect();
        let total: f64 = tl.components.iter().map(|cw| cw.window_energy_j[w]).sum();
        out.push_str(&format!(
            "{{\"bench\": \"calibration\", \"system\": \"{system}\", \
             \"technique\": \"{technique}\", \"window\": {w}, \"window_cycles\": {}, \
             \"start_cycle\": {}, \"firings\": {}, \"gate_evals\": {}, \"gate_events\": {}, \
             \"bus_words\": {}, \"icache_fetches\": {}, \"icache_misses\": {}, \
             \"energy_j\": {{{}}}, \"total_energy_j\": {total:e}}}\n",
            tl.window_cycles,
            w as u64 * tl.window_cycles,
            c.firings,
            c.gate_evals,
            c.gate_events,
            c.bus_words,
            c.icache_fetches,
            c.icache_misses,
            comps.join(", "),
        ));
    }
    out
}

/// The three reference systems at small parameter settings.
fn systems_under_test() -> Vec<(&'static str, SocDescription)> {
    vec![
        (
            "tcpip",
            tcpip::build(&TcpIpParams {
                num_packets: 8,
                len_range: (8, 24),
                pkt_period: 5_000,
                seed: 3,
            })
            .expect("valid params"),
        ),
        (
            "producer_consumer",
            producer_consumer::build(&ProducerConsumerParams::default()).expect("valid params"),
        ),
        (
            "automotive",
            automotive::build(&AutomotiveParams::default()).expect("valid params"),
        ),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_observe.json".to_string());

    // Bit-identity sweep first (both modes): every system × every
    // acceleration mode must verify before anything is reported.
    let config = CoSimConfig::date2000_defaults();
    for (name, soc) in systems_under_test() {
        for (mode, accel) in observe_modes() {
            check_system(name, soc.clone(), config.clone().with_accel(accel), mode);
        }
    }
    println!(
        "provenance bit-identity: {} systems x {} accel modes verified\n",
        systems_under_test().len(),
        observe_modes().len()
    );

    if smoke {
        // Satellite check on the measurement itself: best-of-N timing
        // must never report the attached sweep meaningfully faster than
        // the detached one (the single-pass version of this measurement
        // did, on busy hosts).
        let small = TcpIpParams {
            num_packets: 4,
            len_range: (8, 16),
            pkt_period: 5_000,
            seed: 3,
        };
        let (detached_s, attached_s, _) = fig7_profile_overhead(&small);
        let overhead_pct = 100.0 * (attached_s - detached_s) / detached_s;
        assert!(
            overhead_pct >= OVERHEAD_NOISE_FLOOR_PCT,
            "profiler overhead measured at {overhead_pct:.2}% — attached runs cannot be \
             this much faster than detached under best-of-N timing"
        );
        println!(
            "smoke mode: provenance + bit-identity assertions passed; \
             profiler overhead {overhead_pct:.2}% (noise floor {OVERHEAD_NOISE_FLOOR_PCT}%)"
        );
        return;
    }

    // The accuracy-vs-speedup table on the TCP/IP system.
    let params = TcpIpParams::fig7_defaults();
    let rows = observe_rows(&params);
    println!("== bench_observe: tcpip accuracy vs. speedup ==\n");
    print!("{}", render_observe_table(&rows));

    // Profiler overhead on the Fig. 7 sweep (48 points, serial engine so
    // the measurement is not scheduler noise).
    let (detached_s, attached_s, sweep_profile) = fig7_profile_overhead(&params);
    let overhead_pct = 100.0 * (attached_s - detached_s) / detached_s;
    println!("\nfig7 sweep: detached {detached_s:.3} s, attached {attached_s:.3} s");
    println!(
        "profiler overhead when attached: {overhead_pct:.2}% \
         (detached budget: <{DETACHED_BUDGET_PCT}% vs. PR 4's bench_gatesim fig7 wall)"
    );
    print!("\n{}", sweep_profile.render());

    // Timeline overhead on the same sweep: a per-point power timeline
    // attached to all 48 points must stay within its documented budget.
    let (tl_detached_s, tl_timed_s, point_peaks) = fig7_timeline_overhead(&params);
    let tl_overhead_pct = 100.0 * (tl_timed_s - tl_detached_s) / tl_detached_s;
    let sweep_peak_w = point_peaks.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "\nfig7 sweep with per-point timeline: detached {tl_detached_s:.3} s, \
         timed {tl_timed_s:.3} s ({tl_overhead_pct:.2}%, budget <{TIMELINE_BUDGET_PCT}%); \
         peak window power across all 48 points: {sweep_peak_w:.4} W"
    );
    assert!(
        tl_overhead_pct <= TIMELINE_BUDGET_PCT,
        "timeline sink overhead {tl_overhead_pct:.2}% exceeds the {TIMELINE_BUDGET_PCT}% budget"
    );
    assert!(
        tl_overhead_pct >= OVERHEAD_NOISE_FLOOR_PCT,
        "timeline overhead measured at {tl_overhead_pct:.2}% — attached runs cannot be \
         this much faster than detached under best-of-N timing"
    );

    // Windowed power statistics for every system × technique, the
    // per-component mirror totals checked bit-exactly against the
    // ledger on the way, plus the calibration-seed row stream.
    let mut tl_objs: Vec<String> = Vec::new();
    let mut calib = String::new();
    let mut export_source: Option<TimelineReport> = None;
    println!(
        "\n{:<17} | {:<10} | {:>10} | {:>10} | {:>6}",
        "System", "Technique", "Peak (W)", "Avg (W)", "Crest"
    );
    println!("{}", "-".repeat(64));
    for (sys_name, soc) in systems_under_test() {
        for (mode, accel) in observe_modes() {
            let cfg = config.clone().with_accel(accel);
            let (observed, tl) = timeline_run(soc.clone(), cfg, TIMELINE_WINDOW_CYCLES);
            for (i, c) in tl.components.iter().enumerate() {
                let ledger = observed
                    .account
                    .totals(co_estimation::ComponentId(i as u32))
                    .energy_j;
                assert_eq!(
                    c.total_j.to_bits(),
                    ledger.to_bits(),
                    "{sys_name}/{mode}: timeline mirror diverged from the ledger for `{}`",
                    c.name
                );
            }
            let peak = tl.peak().expect("nonempty run has a peak window");
            let avg = tl.average_power_w();
            let crest = if avg > 0.0 { peak.power_w / avg } else { 0.0 };
            println!(
                "{sys_name:<17} | {mode:<10} | {:>10.4} | {:>10.4} | {crest:>6.2}",
                peak.power_w, avg
            );
            tl_objs.push(format!(
                "    {{\"system\": \"{sys_name}\", \"technique\": \"{mode}\", \
                 \"windows\": {}, \"window_cycles\": {TIMELINE_WINDOW_CYCLES}, \
                 \"peak_w\": {:e}, \"peak_window_start_cycle\": {}, \"average_w\": {:e}, \
                 \"moving_avg3_max_w\": {:e}, \"crest_factor\": {crest:.4}}}",
                tl.window_count(),
                peak.power_w,
                peak.start_cycle,
                avg,
                tl.moving_average_max_w(3),
            ));
            calib.push_str(&calibration_rows(sys_name, mode, &tl));
            if sys_name == "tcpip" && mode == "baseline" {
                export_source = Some(tl);
            }
        }
    }

    // Exporter cost and validity on the tcpip/baseline timeline: the
    // VCD must pass the in-repo checker and the Perfetto JSON must
    // round-trip through the in-repo parser.
    let export_source = export_source.expect("tcpip/baseline ran");
    let t0 = Instant::now();
    let vcd = write_vcd(&export_source);
    let vcd_s = t0.elapsed().as_secs_f64();
    let vcd_summary = check_vcd(&vcd).expect("emitted VCD parses");
    let t0 = Instant::now();
    let perfetto = write_perfetto(&export_source, Some(&sweep_profile));
    let perfetto_s = t0.elapsed().as_secs_f64();
    let perfetto_events = json::parse(&perfetto)
        .expect("emitted Perfetto JSON parses")
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .map(<[JsonValue]>::len)
        .expect("traceEvents array");
    println!(
        "\nexporters (tcpip/baseline): VCD {} bytes, {} signals, {} changes in {:.1} ms; \
         Perfetto {} bytes, {perfetto_events} events in {:.1} ms",
        vcd.len(),
        vcd_summary.signals,
        vcd_summary.changes,
        vcd_s * 1e3,
        perfetto.len(),
        perfetto_s * 1e3
    );

    let mode_objs: Vec<String> = rows
        .iter()
        .map(|r| {
            format!
            (
                "    {{\"technique\": \"{}\", \"energy_j\": {:e}, \"error_pct\": {:.4}, \
                 \"speedup\": {:.3}, \"wall_s\": {:.6}, \"iss_reduction_pct\": {:.2},\n     \
                 \"provenance\": {},\n     \"effectiveness\": {}}}",
                r.technique,
                r.energy_j,
                r.error_pct,
                r.speedup,
                r.wall_s,
                r.iss_reduction_pct,
                r.report.provenance.to_json(),
                effectiveness_json(&r.report.effectiveness)
            )
        })
        .collect();
    let timeline_json = format!(
        "{{\n   \"window_cycles\": {TIMELINE_WINDOW_CYCLES},\n   \"systems\": [\n{}\n   ],\n   \
         \"fig7_timeline\": {{\"detached_wall_s\": {tl_detached_s:.6}, \
         \"timed_wall_s\": {tl_timed_s:.6}, \"overhead_pct\": {tl_overhead_pct:.3}, \
         \"budget_pct\": {TIMELINE_BUDGET_PCT}, \"sweep_peak_w\": {sweep_peak_w:e}, \
         \"points\": {}}},\n   \
         \"exporters\": {{\"vcd_bytes\": {}, \"vcd_signals\": {}, \"vcd_changes\": {}, \
         \"vcd_write_s\": {vcd_s:.6}, \"perfetto_bytes\": {}, \
         \"perfetto_events\": {perfetto_events}, \"perfetto_write_s\": {perfetto_s:.6}}}\n  }}",
        tl_objs.join(",\n"),
        point_peaks.len(),
        vcd.len(),
        vcd_summary.signals,
        vcd_summary.changes,
        perfetto.len(),
    );
    let json = format!(
        "{{\n  \"bench\": \"observe\",\n  \"system\": \"tcpip\",\n  \
         \"modes\": [\n{}\n  ],\n  \
         \"fig7_profiler\": {{\"detached_wall_s\": {detached_s:.6}, \
         \"attached_wall_s\": {attached_s:.6}, \"attached_overhead_pct\": {overhead_pct:.3}, \
         \"detached_budget_pct\": {DETACHED_BUDGET_PCT}, \"bitwise_identical\": true,\n    \
         \"profile\": {}}},\n  \
         \"timeline\": {timeline_json}\n}}\n",
        mode_objs.join(",\n"),
        sweep_profile.to_json()
    );
    std::fs::write(&out_path, &json).expect("write benchmark json");
    println!("\nwrote {out_path}");

    // NDJSON row stream: one self-contained line per technique, easy to
    // append across PRs and to load into external tooling.
    let nd_path = out_path.replace(".json", ".ndjson");
    let mut nd = String::new();
    for r in &rows {
        let measured = [Provenance::MeasuredIss, Provenance::GateLevel]
            .iter()
            .map(|&p| r.report.provenance.energy_for(p))
            .sum::<f64>();
        nd.push_str(&format!(
            "{{\"bench\": \"observe\", \"technique\": \"{}\", \"error_pct\": {:.4}, \
             \"speedup\": {:.3}, \"detailed_energy_j\": {:e}, \"total_energy_j\": {:e}}}\n",
            r.technique,
            r.error_pct,
            r.speedup,
            measured,
            r.report.total_energy_j()
        ));
    }
    std::fs::write(&nd_path, &nd).expect("write benchmark ndjson");
    println!("wrote {nd_path}");

    // Calibration seed: one NDJSON row per timeline window with the
    // window's activity counters and per-component energies. It fed the
    // retired counter-driven fitter; it is written here on demand and
    // kept out of version control.
    let calib_path = if out_path.contains("observe") {
        out_path.replace("observe", "calibration").replace(".json", ".ndjson")
    } else {
        out_path.replace(".json", "_calibration.ndjson")
    };
    for line in calib.lines() {
        json::parse(line).expect("calibration row parses");
    }
    std::fs::write(&calib_path, &calib).expect("write calibration ndjson");
    println!("wrote {calib_path} ({} rows)", calib.lines().count());
}
