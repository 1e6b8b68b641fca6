//! The traced run's per-layer probes. Each probe calls one layer's
//! public functions on inputs taken from the workload under test,
//! records a span around every call, and turns the spans into that
//! layer's metrics. Every workload's traced run runs every probe, so a
//! layer the workload bypasses is still measured, on that workload's
//! inputs.

use std::fs;
use std::hint::black_box;
use std::time::Duration;

use tv_core::campaign::run_cell;
use tv_core::{
    build_cosim, parse_journal, run_campaign_cluster, write_atomic, CampaignConfig, CampaignReport,
    CampaignTuple, ClusterConfig, Fleet, FleetStats, Job, RunConfig, Scheme, Workload,
};
use tv_serve::ResultStore;
use tv_timing::Voltage;
use tv_uarch::{CoreConfig, PipelineBuilder, SimStats};
use tv_workloads::riscv::DEFAULT_STEP_LIMIT;
use tv_workloads::{Benchmark, RiscvMachine, TraceGenerator};

use crate::util::{median, mix, ms, nproc, percentile, row_stats, Metrics, Tally, Tracer, WorkDir};
use crate::{campaign, service, sweep};

/// What the probes run on, taken from the workload's own inputs.
pub struct Inputs {
    /// The sweep's run configuration; `None` for the campaign and
    /// service workloads, whose kernel cases are the campaign's tuples.
    sweep: Option<RunConfig>,
    /// The campaign behind the campaign, cluster, persist, store and
    /// HTTP probes.
    campaign: CampaignConfig,
    /// `POST /campaign` body naming `campaign`.
    body: String,
}

/// Hits per HTTP probe: p99 then has ten samples beyond it.
const PROBE_HITS: usize = 1000;

/// Passes of the campaign's cells through the decomposed kernel probe.
const KERNEL_PASSES: u64 = 3;

impl Inputs {
    pub fn for_workload(workload: &str, seed: u64) -> Inputs {
        let (campaign, body) = match workload {
            "service" => {
                let body = service::spec_json(seed, 0);
                let config =
                    tv_serve::parse_spec(body.as_bytes()).expect("the service's specs parse");
                (config, body)
            }
            _ => {
                let config = campaign::spec(seed, 0);
                (config, spec_body(&config))
            }
        };
        Inputs {
            sweep: (workload == "sweep").then(|| sweep::config(seed)),
            campaign,
            body,
        }
    }

    /// The synthetic scheme runs the frontend, oracle and co-sim probes
    /// use: every sweep pair, or every synthetic tuple of the campaign.
    fn cases(&self, tuples: &[CampaignTuple]) -> Vec<Case> {
        match self.sweep {
            Some(cfg) => sweep::pairs()
                .into_iter()
                .map(|(b, v)| Case::Pair(b, v, cfg))
                .collect(),
            None => tuples
                .iter()
                .filter(|t| !t.workload.is_riscv())
                .map(|t| Case::Cell(t.clone(), self.campaign))
                .collect(),
        }
    }
}

/// A synthetic scheme run, configured as the workload configures it.
enum Case {
    /// A sweep pair, built as `Job::run` builds it.
    Pair(Benchmark, Voltage, RunConfig),
    /// A campaign tuple, built as `run_cell` builds it.
    Cell(CampaignTuple, CampaignConfig),
}

impl Case {
    fn workload(&self) -> Workload {
        match self {
            Case::Pair(b, ..) => Workload::Bench(*b),
            Case::Cell(t, _) => t.workload.clone(),
        }
    }

    fn seed_vdd(&self) -> (u64, Voltage) {
        match self {
            Case::Pair(_, v, cfg) => (cfg.seed, *v),
            Case::Cell(t, _) => (t.seed, t.vdd),
        }
    }

    /// Warm-up and measured commits.
    fn lengths(&self) -> (u64, u64) {
        match self {
            Case::Pair(_, _, cfg) => (cfg.warmup, cfg.commits),
            Case::Cell(_, c) => (c.warmup, c.commits),
        }
    }

    fn name(&self) -> String {
        let (_, v) = self.seed_vdd();
        format!("{}@{:.3}", self.workload().name(), v.volts())
    }

    /// The case's settings on top of a scheme's default builder (the
    /// oracle is left to the caller).
    fn configure(&self, b: PipelineBuilder) -> PipelineBuilder {
        match self {
            Case::Pair(_, _, cfg) => b.criticality_threshold(cfg.criticality_threshold),
            Case::Cell(t, c) => cell_settings(t, c, b),
        }
    }

    fn builder(&self, s: Scheme) -> PipelineBuilder {
        let (seed, v) = self.seed_vdd();
        self.configure(s.pipeline_builder_for(&self.workload(), seed, v))
    }
}

/// What `run_cell` sets on a tuple's builder besides the oracle: the
/// scenario's calibration and sensor, and the campaign's watchdog.
fn cell_settings(t: &CampaignTuple, c: &CampaignConfig, b: PipelineBuilder) -> PipelineBuilder {
    let (rate_097, rate_104) = t.workload.spec().fault_rates();
    b.calibration(t.scenario.calibration_from_rates(rate_097, rate_104))
        .sensor(t.scenario.sensor(t.seed))
        .config(CoreConfig {
            watchdog_cycles: c.watchdog_cycles,
            ..CoreConfig::core1()
        })
}

/// A `POST /campaign` body for `c` (the fields `parse_spec` reads).
fn spec_body(c: &CampaignConfig) -> String {
    format!(
        "{{\"base\": \"smoke\", \"tuples\": {}, \"riscv\": {}, \"seed\": {}, \"commits\": {}, \"warmup\": {}, \"control\": {}}}",
        c.tuples, c.riscv_tuples, c.campaign_seed, c.commits, c.warmup, c.include_control
    )
}

/// Runs every probe. The sweep's kernel metrics come from its own traced
/// rounds; the campaign and service workloads get them here, from their
/// campaign's cells.
pub fn run(
    inputs: &Inputs,
    t: &Tracer,
    work: &WorkDir,
    tally: &mut Tally,
) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let report = campaign_and_cluster(inputs, t, work, tally, &mut m)?;
    if inputs.sweep.is_none() {
        cell_kernel(inputs, &report, t, tally, &mut m);
    }
    let cases = inputs.cases(&inputs.campaign.generate_tuples());
    frontends(&cases, t, &mut m);
    oracle(&cases[0], t, tally, &mut m);
    cosim(&cases[0], t, tally, &mut m);
    persist_and_store(&report.csv(), t, work, tally, &mut m)?;
    http(inputs, t, work, tally, &mut m)?;
    Ok(m)
}

pub fn busy_frac(s: &FleetStats) -> f64 {
    s.serial_equivalent.as_secs_f64() / (s.elapsed.as_secs_f64() * s.workers as f64)
}

/// One decomposed scheme run: its statistics and the time of each phase
/// (no warm-up for a RISC-V cell, which runs from reset to halt).
pub struct KernelSample {
    pub scheme: Scheme,
    pub stats: SimStats,
    pub build: Duration,
    pub warm: Option<Duration>,
    pub run: Duration,
}

/// `Job::run` decomposed: `PipelineBuilder::build` → `warm_up` → `run`,
/// one span each, all sharing the job's trace id.
pub fn traced_job(t: &Tracer, id: u64, job: &Job) -> KernelSample {
    let cfg = job.config;
    let mut builder = job
        .scheme
        .pipeline_builder(job.bench, cfg.seed, job.vdd)
        .criticality_threshold(cfg.criticality_threshold);
    if cfg.fast_forward > 0 {
        builder = builder.fast_forward(cfg.fast_forward);
    }
    let (mut pipe, build) = t.span("uarch::PipelineBuilder::build", id, || builder.build());
    let ((), warm) = t.span("uarch::Pipeline::warm_up", id, || pipe.warm_up(cfg.warmup));
    let (mut stats, run) = t.span("uarch::Pipeline::run", id, || pipe.run(cfg.commits));
    stats.label = job.scheme.name().to_string();
    KernelSample {
        scheme: job.scheme,
        stats,
        build,
        warm: Some(warm),
        run,
    }
}

/// `run_cell` decomposed the same way: the cell's builder with the
/// oracle on, its warm-up, and its measured run (to halt for a RISC-V
/// tuple).
fn traced_cell(
    t: &Tracer,
    id: u64,
    tuple: &CampaignTuple,
    scheme: Scheme,
    config: &CampaignConfig,
) -> Result<KernelSample, String> {
    let builder = cell_settings(
        tuple,
        config,
        scheme.pipeline_builder_with_spec(tuple.workload.spec(), tuple.seed, tuple.vdd),
    )
    .oracle(true);
    let riscv = tuple.workload.is_riscv();
    let (mut pipe, build) = t.span("uarch::PipelineBuilder::build", id, || builder.build());
    let warm = if config.warmup > 0 && !riscv {
        let (r, d) = t.span("uarch::Pipeline::warm_up", id, || {
            let r = pipe.try_run(config.warmup).map_err(|e| e.to_string());
            pipe.reset_stats();
            r
        });
        r?;
        Some(d)
    } else {
        None
    };
    let (stats, run) = t.span("uarch::Pipeline::run", id, || {
        if riscv {
            pipe.try_run_to_halt(config.commits)
        } else {
            pipe.try_run(config.commits)
        }
        .map_err(|e| e.to_string())
    });
    Ok(KernelSample {
        scheme,
        stats: stats?,
        build,
        warm,
        run,
    })
}

/// The `uarch.*` metrics of decomposed scheme runs; the NoTolerance
/// control, if present, is left out.
pub fn kernel_metrics(samples: &[KernelSample], m: &mut Metrics) {
    let build: Vec<f64> = samples.iter().map(|k| ms(k.build)).collect();
    let warm: Vec<f64> = samples
        .iter()
        .filter_map(|k| k.warm.map(|d| d.as_secs_f64()))
        .collect();
    m.put("uarch.build_ms", median(&build), "ms");
    m.put("uarch.warmup_s", median(&warm), "s");
    for s in Scheme::ALL {
        let of: Vec<_> = samples.iter().filter(|k| k.scheme == s).collect();
        let cycles: u64 = of.iter().map(|k| k.stats.cycles).sum();
        let committed: u64 = of.iter().map(|k| k.stats.committed).sum();
        let replays: u64 = of.iter().map(|k| k.stats.replays).sum();
        let run_s: f64 = of.iter().map(|k| k.run.as_secs_f64()).sum();
        m.put(
            format!("uarch.run_cycles_per_s.{}", s.name()),
            cycles as f64 / run_s,
            "1/s",
        );
        m.put(
            format!("uarch.ipc.{}", s.name()),
            committed as f64 / cycles as f64,
            "inst/cycle",
        );
        m.put(
            format!("uarch.replays_per_kinst.{}", s.name()),
            1e3 * replays as f64 / committed as f64,
            "1/kinst",
        );
    }
}

/// The campaign's cells through the decomposed kernel on an
/// `nproc`-thread `Fleet`, each checked against the cluster's row for it.
fn cell_kernel(
    inputs: &Inputs,
    report: &CampaignReport,
    t: &Tracer,
    tally: &mut Tally,
    m: &mut Metrics,
) {
    let config = &inputs.campaign;
    let schemes = config.schemes();
    let tuples = config.generate_tuples();
    let cells: Vec<(u64, usize)> = (0..KERNEL_PASSES)
        .flat_map(|pass| (0..tuples.len() * schemes.len()).map(move |i| (pass << 32 | i as u64, i)))
        .collect();
    let fleet = Fleet::new(nproc());
    let run = fleet.map(cells.clone(), |&(id, i)| {
        let (tuple, scheme) = (&tuples[i / schemes.len()], schemes[i % schemes.len()]);
        traced_cell(t, id, tuple, scheme, config)
    });
    m.put("fleet.busy_frac", busy_frac(&run.stats), "ratio");
    let mut samples = Vec::new();
    for ((_, i), r) in cells.iter().zip(run.results) {
        match r {
            Ok(k) => {
                let st = &k.stats;
                let want = report.rows.get(*i).map(|row| row_stats(row));
                let got = [st.committed, st.cycles, st.faults_total(), st.replays];
                tally.check(want == Some(got), || {
                    format!("decomposed cell {i} differs from the cluster's row: {got:?} against {want:?}")
                });
                samples.push(k);
            }
            Err(e) => tally.check(false, || format!("decomposed cell {i}: watchdog: {e}")),
        }
    }
    kernel_metrics(&samples, m);
}

/// The two workload frontends: the synthetic trace generator and the
/// RISC-V executor, plus assembly of the built-in programs.
fn frontends(cases: &[Case], t: &Tracer, m: &mut Metrics) {
    const INSTS: u64 = 300_000;
    let mut gen_s = 0.0;
    for (i, case) in cases.iter().enumerate() {
        let (Workload::Bench(b), (seed, _)) = (case.workload(), case.seed_vdd()) else {
            continue;
        };
        let mut g = TraceGenerator::for_benchmark(b, seed);
        let ((), d) = t.span("workloads::TraceGenerator::next_inst", i as u64, || {
            for _ in 0..INSTS {
                black_box(g.next_inst());
            }
        });
        gen_s += d.as_secs_f64();
    }
    m.put(
        "workloads.trace_insts_per_s",
        (INSTS * cases.len() as u64) as f64 / gen_s,
        "1/s",
    );

    let names = Workload::builtin_names();
    let mut asm = Vec::new();
    let mut programs = Vec::new();
    for rep in 0..5 {
        let (ws, d) = t.span("core::Workload::builtin (assemble all)", rep, || {
            names
                .iter()
                .map(|n| Workload::builtin(n).expect("built-in name"))
                .collect::<Vec<_>>()
        });
        asm.push(ms(d));
        programs = ws;
    }
    m.put("workloads.asm_ms", median(&asm), "ms");

    let (mut steps, mut run_s) = (0u64, 0.0);
    for (i, w) in programs.iter().enumerate() {
        let Workload::Riscv { program, .. } = w else {
            continue;
        };
        for _ in 0..3 {
            let mut machine = RiscvMachine::new(program.clone());
            let (n, d) = t.span("workloads::RiscvMachine::run_to_halt", i as u64, || {
                machine.run_to_halt(DEFAULT_STEP_LIMIT)
            });
            steps += n;
            run_s += d.as_secs_f64();
        }
    }
    m.put("workloads.riscv_insts_per_s", steps as f64 / run_s, "1/s");
}

/// One ABS run of the case with the golden-model oracle on and off.
fn oracle(case: &Case, t: &Tracer, tally: &mut Tally, m: &mut Metrics) {
    let (warmup, commits) = case.lengths();
    let name = case.name();
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for rep in 0..3u64 {
        let mut stats = Vec::new();
        for enable in [true, false] {
            let span = if enable {
                "oracle cell (on)"
            } else {
                "oracle cell (off)"
            };
            let (s, d) = t.span(span, rep, || {
                let mut pipe = case.builder(Scheme::Abs).oracle(enable).build();
                pipe.warm_up(warmup);
                let s = pipe.run(commits);
                (s, pipe.oracle_report().map(|r| r.clean()))
            });
            if enable {
                on.push(ms(d));
                tally.check(s.1 == Some(true), || {
                    format!("{name}/ABS: oracle did not grade the run clean")
                });
            } else {
                off.push(ms(d));
            }
            stats.push(s.0);
        }
        tally.check(stats[0] == stats[1], || {
            format!("{name}/ABS: oracle changed the simulated statistics")
        });
    }
    let (on, off) = (median(&on), median(&off));
    m.put("oracle.cell_on_ms", on, "ms");
    m.put("oracle.cell_off_ms", off, "ms");
    m.put("oracle.cell_cost_ratio", on / off, "ratio");
}

/// The case's six scheme runs solo against one `build_cosim` bundle of
/// them, both configured as the workload configures its runs.
fn cosim(case: &Case, t: &Tracer, tally: &mut Tally, m: &mut Metrics) {
    let (warmup, commits) = case.lengths();
    let (seed, v) = case.seed_vdd();
    let workload = case.workload();
    let (mut solo, mut bundle) = (Vec::new(), Vec::new());
    for rep in 0..2u64 {
        let (solo_stats, d) = t.span("six solo cells", rep, || {
            Scheme::ALL
                .iter()
                .map(|&s| {
                    let mut pipe = case.builder(s).build();
                    pipe.warm_up(warmup);
                    pipe.run(commits)
                })
                .collect::<Vec<_>>()
        });
        solo.push(d.as_secs_f64());
        let (lane_stats, d) = t.span("core::cosim::build_cosim bundle", rep, || {
            let mut c = build_cosim(&workload, seed, v, &Scheme::ALL, |_, b| case.configure(b));
            c.warm_up(warmup);
            c.run(commits)
        });
        bundle.push(d.as_secs_f64());
        for (s, (a, l)) in Scheme::ALL.iter().zip(solo_stats.iter().zip(&lane_stats)) {
            tally.check(
                (a.committed, a.cycles, a.faults_total(), a.replays)
                    == (l.committed, l.cycles, l.faults_total(), l.replays),
                || {
                    format!(
                        "{}/{}: co-sim lane differs from the solo run",
                        case.name(),
                        s.name()
                    )
                },
            );
        }
    }
    m.put(
        "cosim.cell_speedup",
        median(&solo) / median(&bundle),
        "ratio",
    );
}

/// One campaign on the process fleet, its journal, and the same cells
/// re-run in-process through `run_cell`. Returns the campaign's report.
fn campaign_and_cluster(
    inputs: &Inputs,
    t: &Tracer,
    work: &WorkDir,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<CampaignReport, String> {
    let config = &inputs.campaign;
    let journal = work.path("ladder.journal");
    let cluster = ClusterConfig::new(nproc());
    let (report, _) = t.span("core::cluster::run_campaign_cluster", 0, || {
        run_campaign_cluster(&cluster, config, &journal, false, |_, _| {})
    });
    let report = report.map_err(|e| format!("probe campaign: {e}"))?;
    let caught = campaign::grade(config, &report, tally);
    tally.op(caught > 0 || !config.include_control);
    let walls: Vec<f64> = report.fleet.timings.iter().map(|j| ms(j.wall)).collect();
    m.put("cluster.job_ms_p50", median(&walls), "ms");
    m.put("cluster.busy_frac", busy_frac(&report.fleet), "ratio");

    let text =
        fs::read_to_string(&journal).map_err(|e| format!("reading the probe journal: {e}"))?;
    m.put("campaign.journal_bytes", text.len() as f64, "bytes");
    let meta = config.meta_line();
    let mut parse = Vec::new();
    for rep in 0..5 {
        let (parsed, d) = t.span("core::campaign::parse_journal", rep, || {
            parse_journal(&text, &meta)
        });
        let parsed = parsed.map_err(|e| format!("parsing the probe journal: {e}"))?;
        tally.check(
            parsed.completed.len() == report.rows.len() && parsed.quarantined.is_empty(),
            || {
                format!(
                    "journal parse found {} of {} rows",
                    parsed.completed.len(),
                    report.rows.len()
                )
            },
        );
        parse.push(ms(d));
    }
    m.put("campaign.journal_parse_ms", median(&parse), "ms");

    let schemes = config.schemes();
    let mut cells = Vec::new();
    for (ti, tuple) in config.generate_tuples().iter().enumerate() {
        for (si, &s) in schemes.iter().enumerate() {
            let i = ti * schemes.len() + si;
            let (row, d) = t.span("core::campaign::run_cell", i as u64, || {
                run_cell(tuple, s, config)
            });
            tally.check(report.rows.get(i) == Some(&row), || {
                format!("run_cell row {i} differs from the cluster's row")
            });
            cells.push(d.as_secs_f64());
        }
    }
    m.put("campaign.cell_ms_p50", 1e3 * median(&cells), "ms");
    m.put(
        "cluster.overhead_ratio",
        report.fleet.serial_equivalent.as_secs_f64() / cells.iter().sum::<f64>(),
        "ratio",
    );
    Ok(report)
}

/// Atomic file writes and the checksummed result store, on the probe
/// campaign's CSV.
fn persist_and_store(
    csv: &str,
    t: &Tracer,
    work: &WorkDir,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut writes = Vec::new();
    let path = work.path("persist.csv");
    for rep in 0..20 {
        let (r, d) = t.span("core::persist::write_atomic", rep, || {
            write_atomic(&path, csv.as_bytes())
        });
        r.map_err(|e| format!("write_atomic: {e}"))?;
        writes.push(ms(d));
    }
    m.put("persist.write_atomic_ms", median(&writes), "ms");

    let store =
        ResultStore::open(&work.path("ladder-store")).map_err(|e| format!("store open: {e}"))?;
    let keys: Vec<String> = (0..20u64)
        .map(|i| format!("{:016x}", mix(0x73746f, i)))
        .collect();
    let mut publish = Vec::new();
    for (i, k) in keys.iter().enumerate() {
        let (r, d) = t.span("serve::store::ResultStore::publish", i as u64, || {
            store.publish(k, csv)
        });
        r.map_err(|e| format!("store publish: {e}"))?;
        publish.push(ms(d));
    }
    m.put("store.publish_ms", median(&publish), "ms");
    let mut gets = Vec::new();
    for i in 0..200 {
        let k = &keys[i % keys.len()];
        let (got, d) = t.span("serve::store::ResultStore::get", i as u64, || store.get(k));
        tally.check(got.as_deref() == Some(csv), || {
            format!("store get {k} did not return the published CSV")
        });
        gets.push(d.as_secs_f64() * 1e6);
    }
    m.put("store.get_us_p50", median(&gets), "us");
    let mut fsck = Vec::new();
    for rep in 0..3 {
        let (r, d) = t.span("serve::store::ResultStore::fsck", rep, || store.fsck());
        tally.check(r.ok == keys.len() && r.evicted.is_empty(), || {
            format!("fsck verified {} of {}", r.ok, keys.len())
        });
        fsck.push(ms(d));
    }
    m.put("store.fsck_ms", median(&fsck), "ms");
    Ok(())
}

/// A fresh server: `GET /health` round trips, then one miss and
/// `PROBE_HITS` hits for the probe campaign, and the `/stats` deltas.
fn http(
    inputs: &Inputs,
    t: &Tracer,
    work: &WorkDir,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    let server = service::start_server(work, "ladder-serve")?;
    let addr = server.local_addr();
    let result = (|| {
        let mut health = Vec::new();
        for i in 0..200 {
            let (r, d) = t.span("serve::http GET /health", i, || {
                tv_serve::request(addr, "GET", "/health", b"", service::TIMEOUT)
            });
            let r = r.map_err(|e| format!("GET /health: {e}"))?;
            tally.check(r.status == 200, || {
                format!("GET /health answered {}", r.status)
            });
            health.push(d.as_secs_f64() * 1e6);
        }
        m.put("http.health_us_p50", median(&health), "us");

        let before = service::stats(addr)?;
        let (miss, _) = t.span("serve::POST /campaign (miss)", 0, || {
            service::post_streaming(addr, "/campaign", inputs.body.as_bytes())
        });
        let miss = miss.map_err(|e| format!("probe miss: {e}"))?;
        tally.op(miss.status == 200 && miss.cache == "miss");
        let mut hits = Vec::with_capacity(PROBE_HITS);
        for i in 0..PROBE_HITS {
            let (r, d) = t.span("serve::POST /campaign (hit)", i as u64 + 1, || {
                tv_serve::request(
                    addr,
                    "POST",
                    "/campaign",
                    inputs.body.as_bytes(),
                    service::TIMEOUT,
                )
            });
            let r = r.map_err(|e| format!("probe hit: {e}"))?;
            tally.op(r.status == 200 && r.header("x-cache") == Some("hit"));
            tally.check(r.body == miss.body, || {
                "probe hit differs from its miss".to_string()
            });
            hits.push(ms(d));
        }
        let after = service::stats(addr)?;
        server_counts(&before, &after, m);
        m.put("server.hit_p50_ms", median(&hits), "ms");
        m.put("server.hit_p99_ms", percentile(&hits, 0.99), "ms");
        Ok(())
    })();
    server.stop();
    result
}

/// The `/stats` counters a run of requests moved.
pub fn server_counts(
    before: &std::collections::BTreeMap<String, u64>,
    after: &std::collections::BTreeMap<String, u64>,
    m: &mut Metrics,
) {
    let d =
        |k: &str| (after.get(k).copied().unwrap_or(0) - before.get(k).copied().unwrap_or(0)) as f64;
    m.put("server.executions", d("executions"), "count");
    m.put("server.cache_hits", d("cache_hits"), "count");
    m.put("server.cells_executed", d("cells_executed"), "count");
    m.put(
        "server.hit_ratio",
        d("cache_hits") / d("campaign_requests"),
        "ratio",
    );
}
