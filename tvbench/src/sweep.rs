//! `sweep`: the paper's figure/table path. Each round is one
//! `run_evaluations` call over every (benchmark, faulty voltage) pair
//! with the six schemes, one flat job bag on an `nproc`-worker `Fleet`,
//! as the figure and table binaries send it; nearly all host time is in
//! the cycle kernel.
//!
//! The fleet has `nproc` workers rather than one: on the shared
//! reference VM, one-thread sweeps swung between two host speeds 1.6x
//! apart from run to run (quartile spread 30% over ten runs), while
//! workloads that keep every vCPU busy held within 6%.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use tv_core::{run_evaluations, Experiment, Fleet, Job, RunConfig, Scheme};
use tv_timing::Voltage;
use tv_uarch::SimStats;
use tv_workloads::Benchmark;

use crate::ladder::{busy_frac, kernel_metrics, traced_job, KernelSample};
use crate::util::{
    another_round, median, min_rounds, mix, ms, nproc, round_tracer, Digest, Metrics, Overhead,
    PerOp, Tally, Tracer,
};
use crate::Outcome;

/// Measured commits per scheme run.
pub const COMMITS: u64 = 40_000;
/// Warm-up commits per scheme run (simulated, excluded from the stats).
pub const WARMUP: u64 = 10_000;

type Spec = (Experiment, Vec<Scheme>);

/// Every synthetic benchmark at both faulty voltages (Table 1's grid).
pub fn pairs() -> Vec<(Benchmark, Voltage)> {
    Benchmark::ALL
        .iter()
        .flat_map(|&b| [(b, Voltage::low_fault()), (b, Voltage::high_fault())])
        .collect()
}

/// The run configuration `--seed` selects.
pub fn config(seed: u64) -> RunConfig {
    RunConfig {
        commits: COMMITS,
        warmup: WARMUP,
        seed: mix(seed, 0x0073_7765_6570),
        ..RunConfig::quick()
    }
}

/// Set-up: the inputs, the engine, and one short pair run before timing
/// so code pages, the allocator and the fleet's thread start-up are warm.
fn set_up(seed: u64) -> (Fleet, Vec<Spec>) {
    let cfg = config(seed);
    let specs: Vec<Spec> = pairs()
        .into_iter()
        .map(|(b, v)| (Experiment::new(b, v, cfg), Scheme::ALL.to_vec()))
        .collect();
    let fleet = Fleet::new(nproc());
    let warm = RunConfig {
        commits: 4_000,
        warmup: 1_000,
        ..cfg
    };
    let first = &specs[0].0;
    let spec = [(
        Experiment::new(first.benchmark(), first.voltage(), warm),
        Scheme::ALL.to_vec(),
    )];
    black_box(run_evaluations(&fleet, &spec));
    (fleet, specs)
}

/// The jobs `run_evaluations` makes of `specs`, in its order (every spec
/// lists the fault-free baseline first, so none is added).
fn jobs(specs: &[Spec]) -> Vec<Job> {
    specs
        .iter()
        .flat_map(|(exp, schemes)| {
            schemes
                .iter()
                .map(|&s| Job::new(exp.benchmark(), exp.voltage(), s, exp.config()))
        })
        .collect()
}

/// When the bag's first evaluation (one pair's six scheme runs, one
/// figure row) is complete: its jobs' times scheduled as the fleet
/// schedules them, each job to the first worker free. The jobs' times
/// are their medians over the run's rounds; a single round's first
/// jobs, run right after the fleet's threads start, spread twice as
/// much from run to run.
fn first_row(job_ms: &[f64], workers: usize) -> f64 {
    let mut free = vec![0.0f64; workers.max(1)];
    let mut done = 0.0f64;
    for &wall in job_ms.iter().take(Scheme::ALL.len()) {
        let k = (0..free.len())
            .min_by(|&a, &b| free[a].total_cmp(&free[b]))
            .expect("at least one worker");
        free[k] += wall;
        done = done.max(free[k]);
    }
    done
}

/// Checks the paper's central result at one voltage: summed over the
/// benchmarks, cycles order as Razor > EP > each of ABS/FFS/CDS. A
/// single pair's 40 000-commit window can hold too few faults to order
/// the schemes (all six can tie), so the order is checked on the sums,
/// as the paper's averages report it.
fn check_order(volts: f64, cycles: &BTreeMap<Scheme, u64>, tally: &mut Tally) {
    let (razor, ep) = (cycles[&Scheme::Razor], cycles[&Scheme::ErrorPadding]);
    tally.check(razor > ep, || {
        format!("{volts:.3} V: Razor cycles {razor} <= EP cycles {ep}")
    });
    for s in Scheme::PROPOSED {
        let c = cycles[&s];
        tally.check(ep > c, || {
            format!("{volts:.3} V: EP cycles {ep} <= {} cycles {c}", s.name())
        });
    }
}

/// Checks one round's results (one per job, in job order), counts one
/// operation per scheme run, and returns the round's digest.
fn check_round(jobs: &[Job], stats: &[SimStats], tally: &mut Tally) -> Digest {
    let mut digest = Digest::default();
    let mut cycles: BTreeMap<(u64, Scheme), u64> = BTreeMap::new();
    for (pair, runs) in jobs
        .chunks(Scheme::ALL.len())
        .zip(stats.chunks(Scheme::ALL.len()))
    {
        let label = format!("{}@{:.3}", pair[0].bench.name(), pair[0].vdd.volts());
        let committed: Vec<u64> = runs.iter().map(|s| s.committed).collect();
        tally.check(committed.iter().all(|&c| c == committed[0]), || {
            format!("{label}: schemes committed different instruction counts {committed:?}")
        });
        for (job, st) in pair.iter().zip(runs) {
            tally.op(st.committed == COMMITS);
            digest.cell(
                &format!("{label}/{}", job.scheme.name()),
                st.committed,
                st.cycles,
                st.faults_total(),
                st.replays,
            );
            *cycles
                .entry((job.vdd.volts().to_bits(), job.scheme))
                .or_default() += st.cycles;
        }
    }
    for v in [Voltage::low_fault(), Voltage::high_fault()] {
        let at: BTreeMap<Scheme, u64> = cycles
            .iter()
            .filter(|((bits, _), _)| *bits == v.volts().to_bits())
            .map(|((_, s), &c)| (*s, c))
            .collect();
        check_order(v.volts(), &at, tally);
    }
    digest
}

/// What the untraced rounds measured.
#[derive(Default)]
struct Rounds {
    /// Wall time of each round's `run_evaluations` call.
    wall: Vec<f64>,
    /// Summed job walls of each round (`FleetStats::serial_equivalent`).
    busy: Vec<f64>,
    /// Each job's wall time, per job over the rounds.
    job_ms: PerOp,
    /// `fleet.busy_frac` per round.
    busy_frac: Vec<f64>,
}

pub fn run(seed: u64, seconds: f64, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut rounds = Rounds::default();
    let mut kernel: Vec<KernelSample> = Vec::new();
    let mut overhead = Overhead::default();
    let (mut insts, mut cells) = (0u64, 0usize);
    let mut first_digest: Option<Digest> = None;
    let started = Instant::now();
    let mut round = 0u64;
    while another_round(started, round, seconds, min_rounds(tracer)) {
        let t0 = Instant::now();
        let (fleet, specs) = set_up(seed);
        setups.push(t0.elapsed().as_secs_f64());
        let jobs = jobs(&specs);

        let traced = round_tracer(tracer, round);
        let t0 = Instant::now();
        let stats: Vec<SimStats> = match traced {
            None => {
                let (evals, fs) = run_evaluations(&fleet, &specs);
                rounds.wall.push(t0.elapsed().as_secs_f64());
                rounds.busy.push(fs.serial_equivalent.as_secs_f64());
                rounds.busy_frac.push(busy_frac(&fs));
                for t in &fs.timings {
                    rounds.job_ms.see(t.index, ms(t.wall));
                }
                evals
                    .iter()
                    .flat_map(|e| e.results().iter().map(|r| r.stats.clone()))
                    .collect()
            }
            Some(t) => {
                // The same bag, each job decomposed into spans.
                let indexed: Vec<(u64, Job)> = (0..).zip(jobs.iter().copied()).collect();
                let run = fleet.map(indexed, |(i, job)| traced_job(t, round << 32 | i, job));
                let stats = run.results.iter().map(|k| k.stats.clone()).collect();
                kernel.extend(run.results);
                stats
            }
        };
        overhead.see(traced.is_some(), t0.elapsed().as_secs_f64());
        tally.check(stats.len() == jobs.len(), || {
            format!(
                "round {round}: {} results for {} jobs",
                stats.len(),
                jobs.len()
            )
        });
        insts = stats.iter().map(|s| s.committed + WARMUP).sum();
        cells = stats.len();

        let digest = check_round(&jobs, &stats, &mut tally);
        match first_digest {
            None => first_digest = Some(digest),
            Some(d) => tally.check(d.hex() == digest.hex(), || {
                format!(
                    "round {round} digest {} differs from round 0 digest {}",
                    digest.hex(),
                    d.hex()
                )
            }),
        }
        round += 1;
    }

    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    m.put(
        "sim_insts_per_s",
        insts as f64 / median(&rounds.wall),
        "1/s",
    );
    // Scheme runs per second of worker time: the kernel's cost per cell,
    // without the bag's scheduling tail that the wall time above holds.
    m.put("cells_per_s", cells as f64 / median(&rounds.busy), "1/s");
    let job_ms = rounds.job_ms.medians();
    m.put("miss_p50_ms", median(&job_ms), "ms");
    m.put("miss_first_row_p50_ms", first_row(&job_ms, nproc()), "ms");

    let mut layer = Metrics::default();
    if tracer.is_some() {
        kernel_metrics(&kernel, &mut layer);
        layer.put("fleet.busy_frac", median(&rounds.busy_frac), "ratio");
        overhead.put(&mut layer);
    }
    Ok(Outcome {
        tally,
        metrics: m,
        layer,
        digest: first_digest.expect("at least one round"),
        rounds: round,
    })
}
