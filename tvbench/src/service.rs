//! `service`: one client in a closed loop against an in-process
//! `tv-serve` on a fresh store. Each round sends one new spec (a miss:
//! simulation, journal and checksummed store publish) and then repeats
//! earlier specs (hits that only read the store).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use tv_core::campaign::HEADER;
use tv_serve::json::Json;
use tv_serve::{ServeConfig, Server};

use crate::campaign::row_insts;
use crate::util::{
    another_round, median, min_rounds, mix, ms, nproc, percentile, round_tracer, Digest, Metrics,
    Overhead, PerOp, Tally, Tracer, WorkDir,
};
use crate::Outcome;

/// New specs (misses) per round.
pub const SPECS: u64 = 20;
/// Hits sent after each miss; a round has `SPECS * HITS_PER_MISS` of
/// them, so the hit p99 has ten samples beyond it from one round.
pub const HITS_PER_MISS: u64 = 50;
/// Warm-up commits of every spec (see [`spec_json`]).
pub const WARMUP: u64 = 2_000;
/// Rows of every spec's CSV: (one synthetic + one RISC-V tuple) x
/// (six schemes + the control).
pub const ROWS: usize = 14;

pub const TIMEOUT: Duration = Duration::from_secs(60);

/// The request body of the `r`-th new spec.
pub fn spec_json(seed: u64, r: u64) -> String {
    format!(
        "{{\"base\": \"smoke\", \"tuples\": 1, \"riscv\": 1, \"seed\": {}, \"commits\": 6000, \"warmup\": {WARMUP}, \"control\": true}}",
        mix(seed, 0x7365_7276 ^ r) >> 12
    )
}

/// A response read as it streams: status, `X-Cache`, the de-chunked
/// body, and when its first verdict row (the line after the CSV header)
/// and its last byte arrived.
pub struct Streamed {
    pub status: u16,
    pub cache: String,
    pub body: Vec<u8>,
    pub first_row: Option<Duration>,
    pub total: Duration,
}

/// POSTs `body` to `path` and reads the response incrementally.
pub fn post_streaming(addr: SocketAddr, path: &str, body: &[u8]) -> io::Result<Streamed> {
    let t0 = Instant::now();
    let stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    let mut w = stream.try_clone()?;
    write!(
        w,
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    w.write_all(body)?;
    w.flush()?;

    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let mut r = BufReader::new(stream);
    let mut line = String::new();
    r.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let (mut chunked, mut length, mut cache) = (false, None, String::new());
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(bad("eof in headers"));
        }
        let h = line.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            let (name, value) = (name.trim().to_ascii_lowercase(), value.trim());
            match name.as_str() {
                "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
                "content-length" => length = value.parse::<usize>().ok(),
                "x-cache" => cache = value.to_string(),
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    let mut first_row = None;
    if chunked {
        loop {
            line.clear();
            if r.read_line(&mut line)? == 0 {
                return Err(bad("eof in chunked body"));
            }
            let size = usize::from_str_radix(line.trim(), 16).map_err(|_| bad("bad chunk size"))?;
            if size == 0 {
                line.clear();
                r.read_line(&mut line)?;
                break;
            }
            let at = out.len();
            out.resize(at + size, 0);
            r.read_exact(&mut out[at..])?;
            let mut crlf = [0u8; 2];
            r.read_exact(&mut crlf)?;
            if first_row.is_none() && out.iter().filter(|&&b| b == b'\n').count() >= 2 {
                first_row = Some(t0.elapsed());
            }
        }
    } else if let Some(n) = length {
        out.resize(n, 0);
        r.read_exact(&mut out)?;
    } else {
        r.read_to_end(&mut out)?;
    }
    Ok(Streamed {
        status,
        cache,
        body: out,
        first_row,
        total: t0.elapsed(),
    })
}

/// `GET /stats` as a name → count map.
pub fn stats(addr: SocketAddr) -> Result<std::collections::BTreeMap<String, u64>, String> {
    let resp = tv_serve::request(addr, "GET", "/stats", b"", TIMEOUT)
        .map_err(|e| format!("GET /stats: {e}"))?;
    let doc = Json::parse(&resp.text()).map_err(|e| format!("/stats body: {e}"))?;
    let obj = doc.as_obj().ok_or("/stats is not an object")?;
    Ok(obj
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
        .collect())
}

/// Starts a server on a fresh store under `work` and waits until
/// `GET /health` answers 200.
pub fn start_server(work: &WorkDir, name: &str) -> Result<Server, String> {
    let config = ServeConfig {
        store_dir: work.path(name),
        fleet_workers: nproc(),
        http_workers: 2,
        ..ServeConfig::default()
    };
    let server = Server::start(&config).map_err(|e| format!("server start: {e}"))?;
    let health = tv_serve::request(server.local_addr(), "GET", "/health", b"", TIMEOUT)
        .map_err(|e| format!("GET /health: {e}"))?;
    if health.status != 200 {
        return Err(format!("GET /health answered {}", health.status));
    }
    Ok(server)
}

/// Checks one response body: the campaign CSV header, then `ROWS` rows.
fn well_formed(body: &[u8]) -> bool {
    let text = String::from_utf8_lossy(body);
    let mut lines = text.lines();
    lines.next() == Some(HEADER) && lines.count() == ROWS
}

/// Set-up: a server on a fresh store, then one throwaway spec before
/// timing, so the fleet, store and connection paths are warm.
fn set_up(seed: u64, work: &WorkDir, round: u64) -> Result<Server, String> {
    let server = start_server(work, &format!("store{round}"))?;
    let warm = post_streaming(
        server.local_addr(),
        "/campaign",
        spec_json(seed, u64::MAX).as_bytes(),
    )
    .map_err(|e| format!("warm-up request: {e}"));
    match warm {
        Ok(w) if w.status == 200 && well_formed(&w.body) => Ok(server),
        Ok(w) => {
            server.stop();
            Err(format!("warm-up request answered {}", w.status))
        }
        Err(e) => {
            server.stop();
            Err(e)
        }
    }
}

/// Per-operation times and raw hit times, accumulated over the
/// untraced rounds.
#[derive(Default)]
struct Times {
    misses: PerOp,
    first_rows: PerOp,
    hits: PerOp,
    hit_ms: Vec<f64>,
}

pub fn run(
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
    work: &WorkDir,
) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut times = Times::default();
    let mut setups = Vec::new();
    let mut overhead = Overhead::default();
    let (mut insts, mut hit_rows) = (0u64, 0u64);
    let mut layer = Metrics::default();
    let mut first_digest: Option<Digest> = None;
    let started = Instant::now();
    let mut round = 0u64;
    while another_round(started, round, seconds, min_rounds(tracer)) {
        let t0 = Instant::now();
        let server = set_up(seed, work, round)?;
        setups.push(t0.elapsed().as_secs_f64());
        let addr = server.local_addr();
        let traced = round_tracer(tracer, round);
        // A traced round's times go to a throwaway record, so the
        // end-to-end figures come from untraced rounds only.
        let mut traced_times = Times::default();
        let record = if traced.is_some() {
            &mut traced_times
        } else {
            &mut times
        };
        let t0 = Instant::now();
        let result = drive(seed, round, traced, addr, &mut tally, record);
        overhead.see(traced.is_some(), t0.elapsed().as_secs_f64());
        server.stop();
        std::fs::remove_dir_all(work.path(&format!("store{round}"))).ok();
        let (digest, round_insts, round_hit_rows, counts) = result?;
        (insts, hit_rows, layer) = (round_insts, round_hit_rows, counts);
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
    // Misses and hits are rated apart: simulated instructions per second
    // of miss requests, and rows served per second of hit requests (the
    // HTTP and checksummed-store read path alone).
    m.put(
        "sim_insts_per_s",
        insts as f64 / (times.misses.sum() / 1e3),
        "1/s",
    );
    m.put(
        "cells_per_s",
        hit_rows as f64 / (times.hits.sum() / 1e3),
        "1/s",
    );
    m.put("miss_p50_ms", median(&times.misses.medians()), "ms");
    m.put(
        "miss_first_row_p50_ms",
        median(&times.first_rows.medians()),
        "ms",
    );
    // Hit latency of the real mix replaces the probe's in a traced run.
    layer.put("server.hit_p50_ms", median(&times.hit_ms), "ms");
    layer.put("server.hit_p99_ms", percentile(&times.hit_ms, 0.99), "ms");
    overhead.put(&mut layer);
    Ok(Outcome {
        tally,
        metrics: m,
        layer,
        digest: first_digest.expect("at least one round"),
        rounds: round,
    })
}

/// One round against a fresh server: `SPECS` misses, each followed by
/// `HITS_PER_MISS` repeats of specs already sent this round. The
/// sequence is the same every round. Returns the digest of the misses'
/// rows, the misses' simulated instructions, the rows the hits served,
/// and the `/stats` counters the round moved.
fn drive(
    seed: u64,
    round: u64,
    tracer: Option<&Tracer>,
    addr: SocketAddr,
    tally: &mut Tally,
    times: &mut Times,
) -> Result<(Digest, u64, u64, Metrics), String> {
    let before = stats(addr)?;
    let mut bodies: Vec<Vec<u8>> = Vec::new();
    let (mut insts, mut hit_rows, mut hits) = (0u64, 0u64, 0u64);
    let mut digest = Digest::default();
    for s in 0..SPECS {
        let spec = spec_json(seed, s);
        let call = || post_streaming(addr, "/campaign", spec.as_bytes());
        let resp = match tracer {
            Some(t) => {
                t.span("serve::POST /campaign (miss)", round << 32 | s << 16, call)
                    .0
            }
            None => call(),
        }
        .map_err(|e| format!("miss request {s}: {e}"))?;
        let ok = resp.status == 200 && resp.cache == "miss" && well_formed(&resp.body);
        tally.op(ok);
        tally.check(resp.first_row.is_some(), || {
            format!("miss {s} streamed no verdict row")
        });
        times.misses.see(s as usize, ms(resp.total));
        times
            .first_rows
            .see(s as usize, ms(resp.first_row.unwrap_or(resp.total)));
        if ok {
            let text = String::from_utf8_lossy(&resp.body);
            for row in text.lines().skip(1) {
                insts += row_insts(row, WARMUP);
                digest.row(row);
            }
        }
        bodies.push(resp.body);

        for h in 0..HITS_PER_MISS {
            let j = (mix(seed, s << 16 | h) % (s + 1)) as usize;
            let body = spec_json(seed, j as u64);
            let call = || tv_serve::request(addr, "POST", "/campaign", body.as_bytes(), TIMEOUT);
            let t0 = Instant::now();
            let resp = match tracer {
                Some(t) => {
                    t.span(
                        "serve::POST /campaign (hit)",
                        round << 32 | s << 16 | (h + 1),
                        call,
                    )
                    .0
                }
                None => call(),
            }
            .map_err(|e| format!("hit request {s}/{h}: {e}"))?;
            let took = ms(t0.elapsed());
            times.hits.see((s * HITS_PER_MISS + h) as usize, took);
            times.hit_ms.push(took);
            let ok = resp.status == 200 && resp.header("x-cache") == Some("hit");
            tally.op(ok);
            tally.check(resp.body == bodies[j], || {
                format!("hit for spec {j} differs from its miss response")
            });
            if ok {
                hits += 1;
                hit_rows += ROWS as u64;
            }
        }
    }
    let after = stats(addr)?;
    let delta = |k: &str| after.get(k).copied().unwrap_or(0) - before.get(k).copied().unwrap_or(0);
    tally.check(delta("executions") == SPECS, || {
        format!(
            "/stats executions moved by {}, {SPECS} misses were sent",
            delta("executions")
        )
    });
    tally.check(delta("cache_hits") == hits, || {
        format!(
            "/stats cache_hits moved by {}, {hits} hits were sent",
            delta("cache_hits")
        )
    });
    tally.check(delta("errors") == 0, || {
        format!("/stats errors moved by {}", delta("errors"))
    });
    let mut counts = Metrics::default();
    crate::ladder::server_counts(&before, &after, &mut counts);
    Ok((digest, insts, hit_rows, counts))
}
