//! Shared pieces: the metric list, statistics, the simulated-statistics
//! digest, peak RSS, the span recorder and the run's scratch directory.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tv_core::fnv1a;
use tv_core::persist::fnv1a_word;

/// Metrics of one run, in print order: `(name, value, unit)`.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The metrics as the JSON object `{"name": {"value": v, "unit": u}}`.
    ///
    /// # Errors
    ///
    /// A non-finite value cannot be printed as JSON and means a divisor
    /// was zero, which is a benchmark bug.
    pub fn to_json(&self) -> Result<String, String> {
        let mut parts = Vec::with_capacity(self.0.len());
        for (name, value, unit) in &self.0 {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// Operation accounting and correctness findings of one run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; any entry makes `correct` false.
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed when `ok` is false.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a check; a false `holds` is kept as a problem.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds && self.problems.len() < 20 {
            self.problems.push(what());
        }
    }
}

/// Median of `v` (the mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The `q`-th quantile (`0 < q < 1`) by linear interpolation between
/// closest ranks; used for p99 only where at least ten samples lie
/// beyond it.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return f64::NAN;
    }
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Quartiles as Python's `statistics.quantiles(v, n=4)` computes them
/// (the default "exclusive" method), so the spreads printed by the
/// repeat command are the ones a script over the same values finds.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(f64::NAN);
        return [x; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// FNV-1a digest over every simulated statistic of a run's fixed prefix
/// of cells. Cells are folded in the order the workload produces them,
/// which is deterministic for every workload.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(fnv1a(b"tvbench-digest-v1"))
    }
}

impl Digest {
    /// Folds one cell: its identity and its committed instructions,
    /// cycles, faults and replays.
    pub fn cell(&mut self, id: &str, committed: u64, cycles: u64, faults: u64, replays: u64) {
        self.0 = fnv1a_word(self.0, fnv1a(id.as_bytes()));
        for word in [committed, cycles, faults, replays] {
            self.0 = fnv1a_word(self.0, word);
        }
    }

    /// Folds one campaign verdict row.
    pub fn row(&mut self, row: &str) {
        let f: Vec<&str> = row.split(',').collect();
        let id = f.get(..6).map(|p| p.join(",")).unwrap_or_default();
        let [committed, cycles, faults, replays] = row_stats(row);
        self.cell(&id, committed, cycles, faults, replays);
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The committed instructions, cycles, faults and replays of a campaign
/// verdict row (`id,scenario,bench,vdd,scheme,seed,verdict,commits,
/// cycles,faults,...,replays,...`); `u64::MAX` for a missing field.
pub fn row_stats(row: &str) -> [u64; 4] {
    let f: Vec<&str> = row.split(',').collect();
    [7, 8, 9, 13].map(|i| {
        f.get(i)
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(u64::MAX)
    })
}

/// splitmix64 finalizer: derives independent input seeds from `--seed`.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Host CPUs this process may use; the workloads never run more
/// simulating threads or processes than this.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak RSS of this process in MiB (`VmHWM`). `getrusage` is not used:
/// under `cargo run` both its own and its children's figures carried the
/// launching cargo's high-water mark (289 MiB against 8 MiB measured
/// here), so the campaign's worker processes are not included.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One recorded span: a call into a layer's public function. Spans of
/// one operation (one cell, one request) share a trace id.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    trace: u64,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder, written out when the run ends. Threads of a
/// fleet record through the mutex; the recorder is only built for
/// traced runs.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn span<R>(&self, name: &str, trace: u64, f: impl FnOnce() -> R) -> (R, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .push(Span {
                name: name.to_string(),
                trace,
                start_ns: ns(start),
                end_ns: ns(end),
            });
        (out, end - start)
    }

    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .len()
    }

    /// Writes the spans as JSON lines (`name`, `trace`, and `start_ns`
    /// and `end_ns` since the recorder was made).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking thread");
        let mut text = String::with_capacity(spans.len() * 96);
        for s in spans.iter() {
            text.push_str(&format!(
                "{{\"name\":\"{}\",\"trace\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.name, s.trace, s.start_ns, s.end_ns
            ));
        }
        std::fs::write(path, text)
    }
}

/// The run's scratch directory under `.bench_work/` in the working
/// directory (stores, journals, span files); removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(tag: &str) -> std::io::Result<WorkDir> {
        let dir = PathBuf::from(".bench_work").join(format!("{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Whether a run starts another round: always the first `min_rounds`,
/// and a later one only if, at the mean round length so far, it ends
/// within `seconds`. Runs so end near `seconds`, after whole rounds.
pub fn another_round(started: Instant, rounds: u64, seconds: f64, min_rounds: u64) -> bool {
    let elapsed = started.elapsed().as_secs_f64();
    rounds < min_rounds.max(1) || elapsed + elapsed / rounds as f64 <= seconds
}

/// Rounds a run must make: a traced run alternates untraced and traced
/// rounds and needs one of each.
pub fn min_rounds(tracer: Option<&Tracer>) -> u64 {
    if tracer.is_some() {
        2
    } else {
        1
    }
}

/// The tracer a round runs under. A traced run traces odd rounds only,
/// so each traced round has an untraced neighbour of identical work to
/// set its cost against (see [`Overhead`]).
pub fn round_tracer(tracer: Option<&Tracer>, round: u64) -> Option<&Tracer> {
    tracer.filter(|_| round % 2 == 1)
}

/// Tracing overhead measured on the workload's own rounds: the timed
/// work of each traced round against that of the untraced round just
/// before it.
#[derive(Debug, Default)]
pub struct Overhead {
    plain: Vec<f64>,
    traced: Vec<f64>,
}

impl Overhead {
    /// Records one round's timed seconds.
    pub fn see(&mut self, traced: bool, secs: f64) {
        if traced {
            self.traced.push(secs);
        } else {
            self.plain.push(secs);
        }
    }

    /// Median over adjacent (untraced, traced) round pairs of the traced
    /// round's time over the untraced one's. Adjacent pairs keep a drift
    /// in host speed across the run out of the ratio.
    pub fn ratio(&self) -> f64 {
        let r: Vec<f64> = self
            .plain
            .iter()
            .zip(&self.traced)
            .map(|(p, t)| t / p)
            .collect();
        median(&r)
    }

    /// The metric, or nothing for an untraced run.
    pub fn put(&self, m: &mut Metrics) {
        if !self.traced.is_empty() {
            m.put("trace.overhead_ratio", self.ratio(), "ratio");
        }
    }
}

/// Per-operation times over a run's identical rounds.
///
/// On a shared host, neighbour load slows this process's CPU by up to
/// 1.8x in phases lasting from seconds to minutes. Each operation's
/// median over the rounds, summed or ranked across operations, follows
/// the run's typical speed and ignores the phases it spent in either
/// extreme.
#[derive(Debug, Default)]
pub struct PerOp(Vec<Vec<f64>>);

impl PerOp {
    /// Records operation `i`'s time in this round.
    pub fn see(&mut self, i: usize, v: f64) {
        if i >= self.0.len() {
            self.0.resize_with(i + 1, Vec::new);
        }
        self.0[i].push(v);
    }

    /// Each operation's median time, in operation order.
    pub fn medians(&self) -> Vec<f64> {
        self.0.iter().map(|v| median(v)).collect()
    }

    /// Sum of the operations' median times: a typical round's time.
    pub fn sum(&self) -> f64 {
        self.medians().iter().sum()
    }
}
