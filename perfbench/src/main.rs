//! The repository benchmark: mining, one-shot EIP and the serving engine,
//! driven through their public APIs and timed from outside.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload read_hot --seed 1 --seconds 48 --trace 0
//! ```
//!
//! Workloads: `read_hot` and `write_churn` (see [`workload`]). With
//! `--trace 0` the run reports the end-to-end metrics of `BENCHMARK.json`;
//! with `--trace 1` it also keeps per-request spans, runs the replay probes
//! and reports the per-layer metrics instead. Every run checks every answer
//! against one-shot EIP. The last line of standard output is a JSON object
//! with `correct`, `attempted`, `failed` and `metrics`, and a failed check
//! makes the exit code 1.

mod gen;
mod probes;
mod stats;
mod steal;
mod updates;
mod warm;
mod workload;

use stats::Metric;
use std::process::ExitCode;

/// Command-line options.
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads for the engine, DMine and EIP: the host's cores.
    pub workers: usize,
}

fn parse() -> Result<(&'static workload::Spec, Options), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let spec = workload::SPECS
        .iter()
        .find(|s| s.name == name)
        .ok_or(format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok((spec, Options { seed, seconds, trace, workers }))
}

/// Cores, source revision, compiler and profile of this report.
fn host_stamp(workers: usize) -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .current_dir(&root)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let commit = run("git", &["rev-parse", "HEAD"])
        .unwrap_or_else(|| format!("tree-{:016x}", source_hash(&root)));
    let rustc = run("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "{{\"cores\": {workers}, \"commit\": \"{commit}\", \"rustc\": \"{rustc}\", \"profile\": \"{profile}\"}}"
    )
}

/// FNV-1a over the library and benchmark sources, for checkouts without
/// git metadata.
fn source_hash(root: &std::path::Path) -> u64 {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for top in ["crates", "shims", "perfbench/src"] {
        walk(&root.join(top), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for byte in std::fs::read(&f).unwrap_or_default() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let (spec, opts) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <read_hot|write_churn> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!("host: {}", host_stamp(opts.workers));
    let warmers = warm::Warmers::start(opts.workers);
    let mut bench = workload::prepare(spec, &opts);
    let (mut end_to_end, ungated, mut traffic) = workload::run(&mut bench, &opts);
    let per_layer = if opts.trace {
        probes::layer_metrics(&mut bench, &mut traffic, &opts)
    } else {
        Vec::new()
    };
    let slow = if opts.trace { probes::slowest(&traffic.fixed, 5) } else { Vec::new() };
    let ok = bench.attempted.saturating_sub(bench.failed) as f64 / bench.attempted.max(1) as f64;
    end_to_end.push(Metric::new("ok_frac", "1", ok).with(format!(
        "{} of {} operations and checks succeeded",
        bench.attempted - bench.failed,
        bench.attempted
    )));
    drop(traffic);
    drop(warmers);

    for m in &end_to_end {
        println!("{}  {:<16} {:>14.4} {:<4} {}", spec.name, m.name, m.value, m.unit, m.detail);
    }
    for m in &ungated {
        println!("{}  {} {:.4} {} (not gated) {}", spec.name, m.name, m.value, m.unit, m.detail);
    }
    for line in &slow {
        println!("{}  {line}", spec.name);
    }
    let per_layer: Vec<Metric> =
        if opts.trace { per_layer.into_iter().chain(ungated).collect() } else { per_layer };
    if opts.trace {
        for (m, (_, _, moves)) in per_layer.iter().zip(probes::LAYER_METRICS) {
            println!(
                "{}  {:<34} {:>14.4} {:<5} moves: {moves}",
                spec.name, m.name, m.value, m.unit
            );
        }
    }
    let correct = bench.checks.iter().all(|(_, ok)| *ok) && bench.failed == 0;
    for (what, ok) in &bench.checks {
        println!("check {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    let reported = if opts.trace { &per_layer } else { &end_to_end };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        bench.attempted,
        bench.failed,
        json_metrics(reported)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
