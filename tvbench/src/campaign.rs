//! `campaign`: oracle-checked fault-injection campaigns of short cells
//! (synthetic and RISC-V tuples, NoTolerance control included), each run
//! by `run_campaign_cluster` on `nproc` worker processes. Per-cell build
//! and calibration probe, the oracle, the journal and the process
//! transport carry a large share of the host time.

use std::cell::Cell;
use std::fs;
use std::time::Instant;

use tv_core::{run_campaign_cluster, CampaignConfig, CampaignReport, ClusterConfig, Scheme};

use crate::util::{
    another_round, median, min_rounds, mix, ms, nproc, round_tracer, Digest, Metrics, Overhead,
    PerOp, Tally, Tracer, WorkDir,
};
use crate::Outcome;

/// Campaigns per round; each has its own tuples.
pub const SPECS_PER_ROUND: usize = 6;

/// The `i`-th campaign of a round: two synthetic tuples and one RISC-V
/// tuple, each under all six schemes plus the control.
pub fn spec(seed: u64, i: usize) -> CampaignConfig {
    CampaignConfig {
        tuples: 2,
        riscv_tuples: 1,
        campaign_seed: mix(seed, 0x6361_6d70 ^ i as u64) >> 12,
        commits: 8_000,
        warmup: 2_000,
        ..CampaignConfig::smoke()
    }
}

/// Simulated instructions behind a campaign row: measured commits plus
/// the warm-up that synthetic cells run first (RISC-V cells run from
/// reset to halt without one).
pub fn row_insts(row: &str, warmup: u64) -> u64 {
    let f: Vec<&str> = row.split(',').collect();
    let commits = f.get(7).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    let riscv = f.get(2).is_some_and(|b| b.starts_with("riscv:"));
    commits + if riscv { 0 } else { warmup }
}

/// Checks a finished campaign's rows and counts one operation per row:
/// a real-scheme row not graded `clean`, or any watchdog or panic row,
/// is a failed operation. Returns the control cells the oracle caught.
pub fn grade(config: &CampaignConfig, report: &CampaignReport, tally: &mut Tally) -> usize {
    let tuples = config.generate_tuples();
    let schemes = config.schemes();
    let want = tuples.len() * schemes.len();
    tally.check(report.rows.len() == want, || {
        format!(
            "campaign {}: {} rows, want {want}",
            config.campaign_seed,
            report.rows.len()
        )
    });
    for (i, row) in report.rows.iter().enumerate() {
        let f: Vec<&str> = row.split(',').collect();
        let (tuple, scheme) = (
            &tuples[(i / schemes.len()).min(tuples.len() - 1)],
            schemes[i % schemes.len()],
        );
        tally.check(
            f.first() == Some(&tuple.id.to_string().as_str()) && f.get(4) == Some(&scheme.name()),
            || {
                format!(
                    "campaign {}: row {i} out of tuple-major order: {row}",
                    config.campaign_seed
                )
            },
        );
        let verdict = f.get(6).copied().unwrap_or("");
        let control = scheme == Scheme::NoTolerance;
        tally.op(verdict != "watchdog" && verdict != "panic" && (control || verdict == "clean"));
    }
    report.control_catches()
}

/// Set-up: the round's campaigns (tuple generation assembles their
/// RISC-V programs), then a one-tuple campaign before timing, so worker
/// processes start, parse their context and answer.
fn set_up(
    seed: u64,
    cluster: &ClusterConfig,
    work: &WorkDir,
) -> Result<Vec<CampaignConfig>, String> {
    let specs: Vec<CampaignConfig> = (0..SPECS_PER_ROUND).map(|i| spec(seed, i)).collect();
    for s in &specs {
        s.generate_tuples();
    }
    let warm = CampaignConfig {
        tuples: 1,
        riscv_tuples: 0,
        commits: 2_000,
        warmup: 500,
        include_control: false,
        campaign_seed: mix(seed, 0x7761_726d) >> 12,
        ..specs[0]
    };
    let journal = work.path("warm.journal");
    fs::remove_file(&journal).ok();
    let report = run_campaign_cluster(cluster, &warm, &journal, false, |_, _| {})?;
    if report.rows.len() != Scheme::ALL.len() {
        return Err(format!(
            "warm-up campaign returned {} rows",
            report.rows.len()
        ));
    }
    Ok(specs)
}

pub fn run(
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
    work: &WorkDir,
) -> Result<Outcome, String> {
    let cluster = ClusterConfig::new(nproc());
    let mut tally = Tally::default();
    let (mut setups, mut calls, mut first_rows) = (Vec::new(), PerOp::default(), PerOp::default());
    let mut busy = PerOp::default();
    let mut overhead = Overhead::default();
    let (mut insts, mut cells) = (0u64, 0usize);
    let mut first_digest: Option<Digest> = None;
    let started = Instant::now();
    let mut round = 0u64;
    while another_round(started, round, seconds, min_rounds(tracer)) {
        let t0 = Instant::now();
        let specs = set_up(seed, &cluster, work)?;
        setups.push(t0.elapsed().as_secs_f64());

        let traced = round_tracer(tracer, round);
        let mut digest = Digest::default();
        let mut caught = 0;
        let mut round_secs = 0.0;
        (insts, cells) = (0, 0);
        for (i, config) in specs.iter().enumerate() {
            let journal = work.path(&format!("c{i}.journal"));
            fs::remove_file(&journal).ok();
            let first_row: Cell<Option<Instant>> = Cell::new(None);
            let on_row = |_: usize, _: &str| {
                if first_row.get().is_none() {
                    first_row.set(Some(Instant::now()));
                }
            };
            let call = || run_campaign_cluster(&cluster, config, &journal, false, on_row);
            let t0 = Instant::now();
            let report = match traced {
                Some(t) => {
                    t.span(
                        "core::cluster::run_campaign_cluster",
                        round << 8 | i as u64,
                        call,
                    )
                    .0
                }
                None => call(),
            }
            .map_err(|e| format!("campaign {}: {e}", config.campaign_seed))?;
            let took = t0.elapsed();
            round_secs += took.as_secs_f64();
            if traced.is_none() {
                calls.see(i, took.as_secs_f64());
                busy.see(i, report.fleet.serial_equivalent.as_secs_f64());
                first_rows.see(i, ms(first_row.get().map_or(took, |t| t - t0)));
            }

            caught += grade(config, &report, &mut tally);
            for row in &report.rows {
                digest.row(row);
                insts += row_insts(row, config.warmup);
            }
            cells += report.rows.len();
        }
        // The control must be caught somewhere in the round, or the
        // oracle has no teeth: one operation per round.
        tally.op(caught > 0);
        overhead.see(traced.is_some(), round_secs);
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

    let call_ms: Vec<f64> = calls.medians().iter().map(|&s| s * 1e3).collect();
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    // Simulated instructions per second of worker-process time (the
    // coordinator's per-group walls, transport included), against
    // verdict rows per second of the whole calls, which also pay the
    // coordinator's start-up, barrier and journal.
    m.put("sim_insts_per_s", insts as f64 / busy.sum(), "1/s");
    m.put("cells_per_s", cells as f64 / calls.sum(), "1/s");
    m.put("miss_p50_ms", median(&call_ms), "ms");
    m.put("miss_first_row_p50_ms", median(&first_rows.medians()), "ms");
    let mut layer = Metrics::default();
    overhead.put(&mut layer);
    Ok(Outcome {
        tally,
        metrics: m,
        layer,
        digest: first_digest.expect("at least one round"),
        rounds: round,
    })
}
