//! End-to-end and per-layer benchmark of the co-estimation framework.
//!
//! ```text
//! powerbench --workload <fig7_sweep|tcpip_tables|reference_systems>
//!            [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! powerbench --workload <w> --seed <n> --reference
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics; the last stdout line is the JSON result. `--reference`
//! prints the seed's `references.txt` line. See `README.md` for the
//! workloads and the metric → layer → workload map.

mod fingerprint;
mod layers;
mod stats;
mod workload;

use std::process::{Command, ExitCode};
use std::time::Instant;

use layers::{Accuracy, Counters, RunLayers, TracedRun};
use soctrace::{ArcSharedSink, ProfileReport};
use stats::{median, p90, quantile, result_json, Metric};
use workload::{Kind, Workload, DEFAULT_SEED, SWEEP_WORKERS};

/// Cold set-ups per `--trace 0` run: this process's own plus fresh child
/// processes, so that every set-up starts with empty process-wide memos.
const SETUP_REPEATS: usize = 9;

/// Operations a run attempts at least, so that ten latencies can lie
/// above its p90.
const MIN_OPERATIONS: u64 = 120;

/// Traced/untraced pass pairs a `--trace 1` run makes at least.
const MIN_TRACED_PAIRS: usize = 3;

enum Mode {
    Bench { seconds: f64, trace: bool },
    SetupOnly,
    Reference,
}

struct Args {
    kind: Kind,
    seed: u64,
    mode: Mode,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut setup_only = false;
    let mut reference = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = parse_u64(&v).ok_or(format!("bad seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or(format!("bad --seconds {v}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--setup-only" => setup_only = true,
            "--reference" => reference = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    let mode = match (setup_only, reference) {
        (true, _) => Mode::SetupOnly,
        (false, true) => Mode::Reference,
        (false, false) => Mode::Bench { seconds, trace },
    };
    Ok(Args { kind, seed, mode })
}

/// Refuses measurements that would not describe the shipped program.
fn guard() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: build with --release".into());
    }
    for var in ["GATESIM_KERNEL", "GATESIM_OBLIVIOUS"] {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "refusing to run with {var} set: it overrides the gate kernel the program selects"
            ));
        }
    }
    Ok(())
}

/// Builds the workload and runs its set-up, returning the set-up wall.
fn set_up(kind: Kind, seed: u64) -> Result<(Workload, f64), String> {
    let t0 = Instant::now();
    let w = Workload::build(kind, seed)?;
    w.setup()?;
    Ok((w, t0.elapsed().as_secs_f64()))
}

/// One cold set-up in a fresh child process of this program.
fn child_setup(kind: Kind, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            kind.name(),
            "--seed",
            &seed.to_string(),
            "--setup-only",
        ])
        .output()
        .map_err(|e| format!("spawning set-up child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "set-up child failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.parse().ok())
        .ok_or(format!("set-up child printed no time: {stdout}"))
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM in /proc/self/status".into())
}

/// Prints every stored-reference and failure fact of a run.
fn report_check(checker: &fingerprint::Checker) {
    if checker.has_stored() {
        println!("reference: stored pass fingerprint for this seed (references.txt)");
    } else {
        println!(
            "reference: no stored fingerprint for this seed; passes are checked against the first"
        );
    }
    println!(
        "operations: {} attempted, {} failed",
        checker.attempted, checker.failed
    );
}

fn end_to_end(w: &Workload, seed: u64, seconds: f64, setup_s: f64) -> Result<(), String> {
    let mut setups = vec![setup_s];
    let mut checker = fingerprint::Checker::new(w.kind.name(), seed);
    let mut cycles = 0u64;
    let mut walls = Vec::new();
    let mut latencies = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds
        || checker.attempted < MIN_OPERATIONS
        || setups.len() < SETUP_REPEATS
    {
        let pass = w.run_pass(None);
        checker.check(&pass.fingerprints());
        cycles += pass.sim_cycles();
        walls.push(pass.wall_s);
        latencies.extend(
            pass.samples
                .iter()
                .filter(|s| s.fingerprint.is_some())
                .map(|s| s.ms),
        );
        // The child set-ups are spread over the run, between passes, so
        // that they sample the same host conditions as the passes do.
        let due = seconds * setups.len() as f64 / SETUP_REPEATS as f64;
        if setups.len() < SETUP_REPEATS && t0.elapsed().as_secs_f64() >= due {
            setups.push(child_setup(w.kind, seed)?);
        }
    }
    if latencies.is_empty() {
        return Err("every operation failed".into());
    }
    let p90 = p90(&latencies).ok_or("fewer than ten latency samples above the p90")?;
    println!(
        "passes: {}, pass wall quartiles {:.4} / {:.4} / {:.4} s; latency samples: {}",
        walls.len(),
        quantile(&walls, 0.25),
        median(&walls),
        quantile(&walls, 0.75),
        latencies.len()
    );
    println!(
        "set-up: {SETUP_REPEATS} cold set-ups, quartiles {:.4} / {:.4} / {:.4} s",
        quantile(&setups, 0.25),
        median(&setups),
        quantile(&setups, 0.75)
    );
    report_check(&checker);
    let metrics = [
        // Summed, not a median of per-pass rates: the host alternates
        // between two speeds, and a median of a two-mode mix jumps
        // between the modes where a sum moves with the mix.
        Metric::new(
            "sim_cycles_per_s",
            cycles as f64 / walls.iter().sum::<f64>(),
            "1/s",
        ),
        Metric::new("run_ms_p50", median(&latencies), "ms"),
        Metric::new("run_ms_p90", p90, "ms"),
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb()?, "MB"),
    ];
    emit(checker.failed == 0, &checker, &metrics);
    Ok(())
}

fn per_layer(w: &Workload, seed: u64, seconds: f64) -> Result<(), String> {
    let mut checker = fingerprint::Checker::new(w.kind.name(), seed);
    let mut run = TracedRun {
        ops: w.ops.len(),
        probes: Vec::new(),
        layers: Vec::new(),
        untraced_wall_s: Vec::new(),
        traced_wall_s: Vec::new(),
        busy_pct: Vec::new(),
    };
    let mut reconciled = true;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds || run.layers.len() < MIN_TRACED_PAIRS {
        let untraced = w.run_pass(None);
        checker.check(&untraced.fingerprints());
        run.untraced_wall_s.push(untraced.wall_s);
        run.busy_pct.push(untraced.busy_pct);

        run.probes.push(w.probe_setup(seed)?);

        let sink = ArcSharedSink::new(ProfileReport::new());
        let traced = w.run_pass(Some(&sink));
        checker.check(&traced.fingerprints());
        run.traced_wall_s.push(traced.wall_s);
        let profile = sink.with(|p| p.clone());
        match RunLayers::of(&profile, &traced, w.ops.len()) {
            Ok(layers) => run.layers.push(layers),
            Err(e) => {
                println!("layer reconciliation failed: {e}");
                reconciled = false;
                break;
            }
        }
    }

    let mut counters = Counters::default();
    let metered = w.metrics_pass();
    let mut fps = Vec::new();
    for (sample, sink) in &metered {
        fps.push(sample.fingerprint);
        if let Some(r) = &sample.report {
            counters.add(r, sink);
        }
    }
    checker.check(&fps);

    // The accuracy metrics describe the seed's Table 1/2 matrix on every
    // workload, so every run reports the same metric set.
    let samples: Vec<_> = metered.into_iter().map(|(s, _)| s).collect();
    let accuracy = if w.kind == Kind::TcpipTables {
        Accuracy::of(&w.ops, &samples)?
    } else {
        let tables = Workload::build(Kind::TcpipTables, seed)?;
        let pass = tables.run_pass(None);
        let mut table_checker = fingerprint::Checker::new(tables.kind.name(), seed);
        table_checker.check(&pass.fingerprints());
        checker.attempted += table_checker.attempted;
        checker.failed += table_checker.failed;
        Accuracy::of(&tables.ops, &pass.samples)?
    };

    println!(
        "traced pairs: {} in {:.1} s",
        run.traced_wall_s.len(),
        t0.elapsed().as_secs_f64()
    );
    if let Some(l) = run.layers.last() {
        println!(
            "reconciliation (last traced pass): hw {:.3} + sw {:.3} + accel {:.3} + master {:.3} = MasterRun {:.3} ms; external run() wall {:.3} ms (gap {:.2}%)",
            l.hw_ns / 1e6,
            l.sw_ns / 1e6,
            l.accel_ns / 1e6,
            l.master_ns / 1e6,
            l.master_run_ns / 1e6,
            l.external_run_ns / 1e6,
            100.0 * (l.external_run_ns - l.master_run_ns) / l.external_run_ns
        );
    }
    for row in &accuracy.flagged {
        println!("accuracy: row `{row}` fired differently from its detailed row; left out of the error means");
    }
    if counters.sink_mismatches > 0 {
        println!(
            "metrics sink disagreed with the report's firing count on {} operations",
            counters.sink_mismatches
        );
    }
    report_check(&checker);
    if run.layers.is_empty() {
        return Err("no traced pass reconciled".into());
    }
    let correct = checker.failed == 0 && reconciled && counters.sink_mismatches == 0;
    emit(correct, &checker, &run.metrics(&counters, &accuracy));
    Ok(())
}

fn emit(correct: bool, checker: &fingerprint::Checker, metrics: &[Metric]) {
    for m in metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_json(correct, checker.attempted, checker.failed, metrics)
    );
}

fn run(args: Args) -> Result<(), String> {
    match args.mode {
        Mode::SetupOnly => {
            let (_, setup_s) = set_up(args.kind, args.seed)?;
            println!("setup_s {setup_s}");
        }
        Mode::Reference => {
            let w = Workload::build(args.kind, args.seed)?;
            let pass = w.run_pass(None);
            let fps = pass.fingerprints();
            if let Some(i) = fps.iter().position(Option::is_none) {
                return Err(format!("operation {} failed", w.ops[i].label));
            }
            println!(
                "{} {:#x} {:#018x}",
                args.kind.name(),
                args.seed,
                fingerprint::of_pass(&fps)
            );
        }
        Mode::Bench { seconds, trace } => {
            let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
            println!(
                "environment: workload={} seed={:#x} host_cpus={host_cpus} sweep_workers={} build=release",
                args.kind.name(),
                args.seed,
                if args.kind == Kind::Fig7Sweep { SWEEP_WORKERS } else { 1 },
            );
            let (w, setup_s) = set_up(args.kind, args.seed)?;
            if trace {
                per_layer(&w, args.seed, seconds)?;
            } else {
                end_to_end(&w, args.seed, seconds, setup_s)?;
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match guard().and_then(|()| parse_args()).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("powerbench: {e}");
            ExitCode::FAILURE
        }
    }
}
