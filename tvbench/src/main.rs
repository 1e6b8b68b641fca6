//! The repository benchmark: runs one named workload for a fixed time,
//! checks its outputs and prints its metrics as one JSON line.
//!
//! ```text
//! tvbench --workload <sweep|campaign|service> --seed <n> --seconds <s> --trace <0|1>
//! tvbench repeat --workload <w> --runs <k> [--seconds <s>] [--trace <0|1>]
//!                [--seed <n> | --first-seed <n>]
//! tvbench digest
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` the run records spans around every call into a layer
//! and the last line carries the per-layer metrics instead. `repeat`
//! runs a workload `k` times and prints each metric's median and
//! quartiles: at one seed, so the spread is the host's noise alone, or
//! with `--first-seed` at consecutive seeds, so input changes add theirs. `digest` rewrites
//! `reference_digests.txt` from the default seed. The campaign workload
//! re-executes this binary as its worker processes (`--worker`).

mod campaign;
mod ladder;
mod service;
mod sweep;
mod util;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

use tv_serve::json::Json;

use util::{median, peak_rss_mb, quartiles, Digest, Metrics, Tally, Tracer, WorkDir};

/// The seed a run uses when none is given, and the one the reference
/// digests are recorded for.
pub const DEFAULT_SEED: u64 = 1;

pub const WORKLOADS: [&str; 3] = ["sweep", "campaign", "service"];

/// What one workload run produced.
pub struct Outcome {
    pub tally: Tally,
    /// End-to-end metrics.
    pub metrics: Metrics,
    /// Per-layer metrics the workload's own operations measured; in a
    /// traced run they replace the probe's figure of the same name.
    pub layer: Metrics,
    /// Digest of the simulated statistics of the run's fixed prefix.
    pub digest: Digest,
    pub rounds: u64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (want 0 or 1)")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join("|")));
    }
    Ok(out)
}

/// Runs the workload's timed loop.
fn run_workload(args: &Args, tracer: Option<&Tracer>, work: &WorkDir) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "sweep" => sweep::run(args.seed, args.seconds, tracer),
        "campaign" => campaign::run(args.seed, args.seconds, tracer, work),
        _ => service::run(args.seed, args.seconds, tracer, work),
    }
}

fn reference_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("reference_digests.txt")
}

/// The recorded digest of `workload` at the default seed, if any.
fn reference_digest(workload: &str) -> Option<String> {
    let text = std::fs::read_to_string(reference_path()).ok()?;
    text.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        (f.next() == Some(workload) && f.next() == Some(&DEFAULT_SEED.to_string()))
            .then(|| f.next().map(str::to_string))
            .flatten()
    })
}

fn bench(args: &Args) -> Result<(), String> {
    let work = WorkDir::create(&args.workload).map_err(|e| format!("work dir: {e}"))?;
    let tracer = args.trace.then(Tracer::new);
    let mut outcome = run_workload(args, tracer.as_ref(), &work)?;

    let digest = outcome.digest.hex();
    eprintln!(
        "tvbench: {} seed {} rounds {} digest {digest}",
        args.workload, args.seed, outcome.rounds
    );
    if args.seed == DEFAULT_SEED {
        match reference_digest(&args.workload) {
            Some(r) if r == digest => eprintln!("tvbench: digest matches reference_digests.txt"),
            Some(r) => eprintln!(
                "tvbench: digest differs from reference_digests.txt ({r}); expected only after a model change"
            ),
            None => eprintln!("tvbench: no reference digest recorded for {}", args.workload),
        }
    }

    // Peak RSS is reported per layer: with several fleet threads, glibc's
    // per-thread arenas move it by up to a quarter between identical runs.
    eprintln!("tvbench: peak RSS {:.2} MiB", peak_rss_mb());
    let metrics = match &tracer {
        None => outcome.metrics,
        Some(t) => {
            let inputs = ladder::Inputs::for_workload(&args.workload, args.seed);
            let mut layer = ladder::run(&inputs, t, &work, &mut outcome.tally)?;
            for (name, value, unit) in outcome.layer.0 {
                layer.0.retain(|(n, ..)| *n != name);
                layer.put(name, value, unit);
            }
            layer.put("trace.spans", t.len() as f64, "count");
            layer.put("process.peak_rss_mb", peak_rss_mb(), "MiB");
            std::fs::create_dir_all(".bench_work").ok();
            let path = format!(".bench_work/spans-{}.jsonl", args.workload);
            t.write(std::path::Path::new(&path))
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("tvbench: spans written to {path}");
            layer
        }
    };
    for p in &outcome.tally.problems {
        eprintln!("tvbench: CHECK FAILED: {p}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.tally.problems.is_empty(),
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics.to_json()?
    );
    Ok(())
}

/// `digest`: records every workload's digest at the default seed.
fn write_digests() -> Result<(), String> {
    let mut text = String::from("# workload seed digest (regenerate: tvbench digest)\n");
    for w in WORKLOADS {
        let args = Args {
            workload: w.to_string(),
            seed: DEFAULT_SEED,
            seconds: 0.0,
            trace: false,
        };
        let work = WorkDir::create(w).map_err(|e| format!("work dir: {e}"))?;
        let outcome = run_workload(&args, None, &work)?;
        text.push_str(&format!("{w} {DEFAULT_SEED} {}\n", outcome.digest.hex()));
    }
    std::fs::write(reference_path(), &text)
        .map_err(|e| format!("writing reference digests: {e}"))?;
    print!("{text}");
    Ok(())
}

/// `repeat`: runs one workload `runs` times, every time at `--seed`
/// (default [`DEFAULT_SEED`]) or, given `--first-seed`, at seeds
/// `first-seed`, `first-seed + 1`, ..., and prints every metric's
/// median, quartiles and quartile spread as a share of the median.
fn repeat(args: &[String]) -> Result<(), String> {
    let mut opts: BTreeMap<&str, String> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        opts.insert(flag.as_str(), value.clone());
    }
    let get = |k: &str, d: &str| opts.get(k).cloned().unwrap_or_else(|| d.to_string());
    let workload = get("--workload", "");
    let runs: usize = get("--runs", "10").parse().map_err(|_| "bad --runs")?;
    let fixed: u64 = get("--seed", &DEFAULT_SEED.to_string())
        .parse()
        .map_err(|_| "bad --seed")?;
    let first: Option<u64> = match opts.get("--first-seed") {
        Some(v) => Some(v.parse().map_err(|_| "bad --first-seed")?),
        None => None,
    };
    let (seconds, trace) = (get("--seconds", "10"), get("--trace", "0"));
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;

    let mut values: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
    let mut shares = Vec::new();
    for i in 0..runs {
        let seed = first.map_or(fixed, |f| f + i as u64).to_string();
        let t0 = Instant::now();
        let out = Command::new(&exe)
            .args([
                "--workload",
                &workload,
                "--seed",
                &seed,
                "--seconds",
                &seconds,
                "--trace",
                &trace,
            ])
            .output()
            .map_err(|e| format!("run {i}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let doc = Json::parse(last)
            .map_err(|e| format!("run {i} (seed {seed}) printed no result: {e}"))?;
        let obj = doc.as_obj().ok_or("result is not an object")?;
        let num = |k: &str| obj.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let correct = obj.get("correct").and_then(Json::as_bool) == Some(true);
        shares.push(num("failed") / num("attempted"));
        eprintln!(
            "run {i} seed {seed}: correct {correct} attempted {} failed {} in {:.1}s",
            num("attempted"),
            num("failed"),
            t0.elapsed().as_secs_f64()
        );
        for (name, m) in obj
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("no metrics")?
        {
            let v = m
                .as_obj()
                .and_then(|o| o.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            let unit = m
                .as_obj()
                .and_then(|o| o.get("unit"))
                .and_then(Json::as_str)
                .unwrap_or("");
            let e = values
                .entry(name.clone())
                .or_insert_with(|| (Vec::new(), unit.to_string()));
            e.0.push(v);
        }
    }
    println!("{workload}: {runs} runs, failed share per run {shares:?}");
    println!(
        "{:<34} {:>14} {:>14} {:>14} {:>8}  unit",
        "metric", "median", "q1", "q3", "spread"
    );
    for (name, (v, unit)) in &values {
        let [q1, _, q3] = quartiles(v);
        let med = median(v);
        println!(
            "{name:<34} {med:>14.6} {q1:>14.6} {q3:>14.6} {:>7.2}%  {unit}",
            100.0 * (q3 - q1) / med.abs()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--worker") => return tv_core::campaign_worker(),
        Some("repeat") => repeat(&args[1..]),
        Some("digest") => write_digests(),
        _ => parse_args(&args).and_then(|a| bench(&a)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tvbench: {e}");
            ExitCode::FAILURE
        }
    }
}
