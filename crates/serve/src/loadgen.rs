//! A deterministic, fault-injecting load generator for `slif-serve`.
//!
//! One seeded plan drives everything: a mixed stream of clean
//! parse/estimate/explore/analyze requests interleaved with **injected
//! client faults** — slow writers, truncated bodies, bad API keys,
//! oversized declarations, and tenant floods against a quota-capped
//! key. It is the wire-level soak harness behind both the `loadgen`
//! binary's smoke run and `tests/wire_soak.rs`: for every clean request
//! it precomputes the expected response with the *same* pure functions
//! the server uses ([`wire::job_for`](crate::wire::job_for) +
//! `Job::run_inline` + [`wire::render_output`](crate::wire::render_output))
//! and asserts the body that came over the socket is **byte-identical**.
//!
//! A run records, per job kind, a latency histogram (p50/p90/p99) and
//! overall throughput; every response that is neither the expected one
//! nor an acceptable shed (429/503/504) is a recorded **violation** —
//! the soak test and the smoke run require zero.

use crate::http::{read_response, ClientResponse, RecvError};
use crate::wire::{
    job_for, render_output, response_for_error, Endpoint, WireParams, HDR_API_KEY, HDR_ITERATIONS,
    HDR_SEED,
};
use rand::rngs::StdRng;
use rand::Rng;
use slif_runtime::jitter::seeded_rng;
use slif_runtime::{LatencyHistogram, RunLimits};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A tiny always-valid spec (the runtime soak suite's fixture).
pub const GOOD_SPEC: &str = "system T;\nvar x : int<8>;\nvar y : int<8>;\nprocess Main { x = x + 1; y = y + x; }\n";
/// A malformed spec, for exercising the 422 path end to end.
pub const MALFORMED_SPEC: &str = "system ;\nprocess { x = ; }\nif not\n";

/// Tuning for one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// The server to hit.
    pub addr: SocketAddr,
    /// Total requests to send (clean + faulted).
    pub requests: usize,
    /// Concurrent client threads (default 8, floor 1).
    pub clients: usize,
    /// Fraction of requests that are injected faults (default 0.35).
    pub fault_rate: f64,
    /// Plan seed; equal seeds give identical plans.
    pub seed: u64,
    /// Valid API keys to rotate through for clean traffic (empty for an
    /// open server).
    pub keys: Vec<String>,
    /// A valid key for a *quota-capped* tenant; flood faults hammer it
    /// expecting 429s. `None` disables flood faults.
    pub flood_key: Option<String>,
    /// Must match the server's run limits for bit-identity.
    pub limits: RunLimits,
    /// Must match the server's exploration-iteration cap.
    pub explore_cap: u64,
    /// The server's read deadline; slow-writer faults stall just past it.
    pub server_read_timeout: Duration,
}

impl LoadgenConfig {
    /// A config against `addr` with the defaults above.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            requests: 1000,
            clients: 8,
            fault_rate: 0.35,
            seed: 0,
            keys: Vec::new(),
            flood_key: None,
            limits: RunLimits::default(),
            explore_cap: 64,
            server_read_timeout: Duration::from_millis(500),
        }
    }
}

/// One precomputed clean request and its oracle response.
#[derive(Debug)]
struct Combo {
    endpoint: Endpoint,
    source: &'static str,
    seed: u64,
    iterations: u64,
    expect_status: u16,
    expect_body: String,
}

/// One planned request.
#[derive(Debug, Clone, Copy)]
enum Planned {
    /// A clean request by combo index; the response must match the oracle.
    Clean(usize),
    /// A request with an unknown API key (expect 401).
    BadKey(usize),
    /// A huge declared `Content-Length` with no body (expect 413).
    Oversized,
    /// A declared body cut short mid-send (expect 400 or a dropped
    /// connection).
    Truncated(usize),
    /// A partial request head followed by a stall past the server's
    /// read deadline (expect 408 or a dropped connection).
    SlowWriter,
    /// A clean request on the quota-capped flood tenant (expect the
    /// oracle response or 429).
    Flood(usize),
}

impl Planned {
    fn kind(self) -> &'static str {
        match self {
            Planned::Clean(_) => "clean",
            Planned::BadKey(_) => "bad-key",
            Planned::Oversized => "oversized",
            Planned::Truncated(_) => "truncated",
            Planned::SlowWriter => "slow-writer",
            Planned::Flood(_) => "flood",
        }
    }

    fn is_fault(self) -> bool {
        !matches!(self, Planned::Clean(_))
    }
}

/// Per-kind latency and success accounting.
#[derive(Debug, Default, Clone)]
pub struct KindStats {
    /// Requests of this kind sent.
    pub count: u64,
    /// Requests whose response was the expected/acceptable one.
    pub ok: u64,
    /// Latency of responded requests.
    pub latency: LatencyHistogram,
}

/// The outcome of a run.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Responses by status code.
    pub statuses: BTreeMap<u16, u64>,
    /// Accounting by request kind (`clean` split by job kind, faults by
    /// fault name).
    pub kinds: BTreeMap<String, KindStats>,
    /// Requests that ended in a dropped/reset connection instead of a
    /// response (expected for some fault kinds).
    pub client_aborts: u64,
    /// Responses that violated the protocol contract. **Must be empty
    /// for a healthy server.**
    pub violations: Vec<String>,
    /// Requests sent.
    pub total: u64,
    /// Wall-clock for the whole run.
    pub wall: Duration,
}

impl LoadReport {
    /// Overall throughput in requests per second.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.total as f64 / secs
        } else {
            0.0
        }
    }

    /// Count of responses with `status`.
    pub fn status(&self, status: u16) -> u64 {
        self.statuses.get(&status).copied().unwrap_or(0)
    }
}

/// Builds the oracle table: every (endpoint × spec × tuning) combo with
/// its expected status and body, computed by the same pure functions the
/// server runs.
fn build_combos(config: &LoadgenConfig) -> Vec<Combo> {
    let specs: [&'static str; 4] = [
        GOOD_SPEC,
        slif_speclang::corpus::FUZZY,
        slif_speclang::corpus::VOL,
        MALFORMED_SPEC,
    ];
    let mut combos = Vec::new();
    for source in specs {
        for endpoint in Endpoint::ALL {
            let variants: &[(u64, u64)] = if endpoint == Endpoint::Explore {
                &[(1, 16), (7, 32)]
            } else {
                &[(0, 0)]
            };
            for &(seed, iterations) in variants {
                let params = WireParams { seed, iterations };
                let (expect_status, expect_body) =
                    match job_for(endpoint, source, &params, &config.limits, config.explore_cap) {
                        Err(diag) => (422, format!("specification rejected: {diag}\n")),
                        Ok(job) => match job.run_inline(&config.limits) {
                            Ok(out) => (200, render_output(&out)),
                            Err(e) => {
                                let r = response_for_error(&e);
                                (r.status, String::from_utf8_lossy(&r.body).into_owned())
                            }
                        },
                    };
                // Keep non-200 estimate combos out of the mix: repeated
                // strict-estimation failures would trip the service's
                // circuit breaker into the degraded path, whose output
                // legitimately differs from an inline run.
                if endpoint != Endpoint::Parse && expect_status != 200 {
                    continue;
                }
                combos.push(Combo {
                    endpoint,
                    source,
                    seed,
                    iterations,
                    expect_status,
                    expect_body,
                });
            }
        }
    }
    combos
}

/// Builds the request plan for the whole run, deterministically from the
/// seed.
fn build_plan(config: &LoadgenConfig, combos: &[Combo]) -> Vec<Planned> {
    let mut rng = seeded_rng(config.seed, 0);
    let mut plan = Vec::with_capacity(config.requests);
    let has_flood = config.flood_key.is_some();
    let has_keys = !config.keys.is_empty();
    for _ in 0..config.requests {
        if rng.gen_bool(config.fault_rate.clamp(0.0, 1.0)) {
            // Fault mix: truncated 30%, bad key 25%, oversized 25%,
            // flood 15%, slow writer 5% (slow writers serialize a whole
            // read-deadline each, so they stay rare).
            let roll = rng.gen_range(0..100u32);
            let fault = if roll < 30 {
                Planned::Truncated(rng.gen_range(0..combos.len()))
            } else if roll < 55 && has_keys {
                Planned::BadKey(rng.gen_range(0..combos.len()))
            } else if roll < 80 {
                Planned::Oversized
            } else if roll < 95 && has_flood {
                Planned::Flood(rng.gen_range(0..combos.len()))
            } else {
                Planned::SlowWriter
            };
            plan.push(fault);
        } else {
            plan.push(Planned::Clean(rng.gen_range(0..combos.len())));
        }
    }
    plan
}

struct ClientShard {
    statuses: BTreeMap<u16, u64>,
    kinds: BTreeMap<String, KindStats>,
    client_aborts: u64,
    violations: Vec<String>,
}

/// Runs the full plan against the server and returns the report.
///
/// # Panics
///
/// Never on server behaviour — contract breaches become violations in
/// the report. Panics only if client threads cannot be spawned.
pub fn run(config: &LoadgenConfig) -> LoadReport {
    let combos = Arc::new(build_combos(config));
    let plan = build_plan(config, &combos);
    let clients = config.clients.max(1);
    let start = Instant::now();
    let shards: Vec<ClientShard> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(clients);
        for client_idx in 0..clients {
            let combos = Arc::clone(&combos);
            let my_plan: Vec<Planned> = plan
                .iter()
                .skip(client_idx)
                .step_by(clients)
                .copied()
                .collect();
            let cfg = config.clone();
            handles.push(scope.spawn(move || client_loop(&cfg, client_idx, &my_plan, &combos)));
        }
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(shard) => shard,
                Err(_) => ClientShard {
                    statuses: BTreeMap::new(),
                    kinds: BTreeMap::new(),
                    client_aborts: 0,
                    violations: vec!["client thread panicked".to_owned()],
                },
            })
            .collect()
    });
    let mut report = LoadReport {
        total: plan.len() as u64,
        wall: start.elapsed(),
        ..LoadReport::default()
    };
    for shard in shards {
        for (status, count) in shard.statuses {
            *report.statuses.entry(status).or_insert(0) += count;
        }
        for (kind, stats) in shard.kinds {
            let entry = report.kinds.entry(kind).or_default();
            entry.count += stats.count;
            entry.ok += stats.ok;
            for (i, &n) in stats.latency.buckets().iter().enumerate() {
                for _ in 0..n {
                    // Merge histograms bucket-by-bucket by replaying
                    // representative samples (bucket upper bounds).
                    entry
                        .latency
                        .record(Duration::from_micros((1u64 << i.min(40)).saturating_sub(1)));
                }
            }
        }
        report.client_aborts += shard.client_aborts;
        report.violations.extend(shard.violations);
    }
    report
}

/// One keep-alive client working through its plan shard.
fn client_loop(
    config: &LoadgenConfig,
    client_idx: usize,
    plan: &[Planned],
    combos: &[Combo],
) -> ClientShard {
    let mut shard = ClientShard {
        statuses: BTreeMap::new(),
        kinds: BTreeMap::new(),
        client_aborts: 0,
        violations: Vec::new(),
    };
    let mut rng = seeded_rng(config.seed, 1 + client_idx as u64);
    let mut conn: Option<TcpStream> = None;
    for (i, planned) in plan.iter().enumerate() {
        let label = format!("client {client_idx} request {i} ({})", planned.kind());
        execute(config, &mut rng, *planned, combos, &mut conn, &label, &mut shard);
        if shard.violations.len() > 32 {
            shard
                .violations
                .push(format!("{label}: too many violations; aborting shard"));
            break;
        }
    }
    shard
}

fn connect(config: &LoadgenConfig) -> Option<TcpStream> {
    let stream = TcpStream::connect_timeout(&config.addr, Duration::from_secs(5)).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .ok()?;
    stream
        .set_write_timeout(Some(Duration::from_secs(5)))
        .ok()?;
    Some(stream)
}

fn combo_request(combo: &Combo, key: Option<&str>) -> Vec<u8> {
    let path = match combo.endpoint {
        Endpoint::Parse => "/v1/parse",
        Endpoint::Estimate => "/v1/estimate",
        Endpoint::Explore => "/v1/explore",
        Endpoint::Analyze => "/v1/analyze",
    };
    let mut head = format!("POST {path} HTTP/1.1\r\ncontent-length: {}\r\n", combo.source.len());
    if let Some(key) = key {
        head.push_str(&format!("{HDR_API_KEY}: {key}\r\n"));
    }
    if combo.endpoint == Endpoint::Explore {
        head.push_str(&format!("{HDR_SEED}: {}\r\n", combo.seed));
        head.push_str(&format!("{HDR_ITERATIONS}: {}\r\n", combo.iterations));
    }
    head.push_str("\r\n");
    let mut raw = head.into_bytes();
    raw.extend_from_slice(combo.source.as_bytes());
    raw
}

/// Sends `raw` and reads the response, reconnecting and resending once
/// if the keep-alive connection had gone stale. `Ok(None)` is a client
/// abort (connection dropped without a response).
fn send_recv(
    config: &LoadgenConfig,
    conn: &mut Option<TcpStream>,
    raw: &[u8],
) -> Option<ClientResponse> {
    for attempt in 0..2 {
        if conn.is_none() {
            *conn = connect(config);
        }
        let stream = conn.as_mut()?;
        if stream.write_all(raw).and_then(|()| stream.flush()).is_err() {
            *conn = None;
            continue;
        }
        match read_response(stream) {
            Ok(reply) => {
                if reply
                    .1
                    .iter()
                    .any(|(n, v)| n == "connection" && v == "close")
                {
                    *conn = None;
                }
                return Some(reply);
            }
            Err(RecvError::Closed) if attempt == 0 => {
                // Stale keep-alive connection; reconnect and resend.
                *conn = None;
            }
            Err(_) => {
                *conn = None;
                return None;
            }
        }
    }
    None
}

#[allow(clippy::too_many_lines)]
fn execute(
    config: &LoadgenConfig,
    rng: &mut StdRng,
    planned: Planned,
    combos: &[Combo],
    conn: &mut Option<TcpStream>,
    label: &str,
    shard: &mut ClientShard,
) {
    let started = Instant::now();
    let kind_label: String;
    let outcome: Result<Option<(u16, Vec<u8>)>, ()> = match planned {
        Planned::Clean(idx) | Planned::Flood(idx) => {
            let combo = &combos[idx];
            kind_label = if planned.is_fault() {
                "flood".to_owned()
            } else {
                combo.endpoint.kind().to_owned()
            };
            let key = if matches!(planned, Planned::Flood(_)) {
                config.flood_key.as_deref()
            } else if config.keys.is_empty() {
                None
            } else {
                Some(config.keys[rng.gen_range(0..config.keys.len())].as_str())
            };
            let raw = combo_request(combo, key);
            match send_recv(config, conn, &raw) {
                None => Ok(None),
                Some((status, _, body)) => {
                    let acceptable_shed = matches!(status, 503 | 504)
                        || (matches!(planned, Planned::Flood(_)) && status == 429);
                    if status == combo.expect_status {
                        if body == combo.expect_body.as_bytes() {
                            Ok(Some((status, body)))
                        } else {
                            shard.violations.push(format!(
                                "{label}: status {status} but body diverged from inline run \
                                 ({} vs {} bytes)",
                                body.len(),
                                combo.expect_body.len()
                            ));
                            Err(())
                        }
                    } else if acceptable_shed {
                        Ok(Some((status, body)))
                    } else {
                        shard.violations.push(format!(
                            "{label}: expected {} got {status}: {}",
                            combo.expect_status,
                            String::from_utf8_lossy(&body[..body.len().min(120)])
                        ));
                        Err(())
                    }
                }
            }
        }
        Planned::BadKey(idx) => {
            kind_label = "bad-key".to_owned();
            let raw = combo_request(&combos[idx], Some("not-a-real-key"));
            match send_recv(config, conn, &raw) {
                None => Ok(None),
                Some((401, _, body)) => Ok(Some((401, body))),
                Some((status, _, body)) => {
                    shard.violations.push(format!(
                        "{label}: expected 401 got {status}: {}",
                        String::from_utf8_lossy(&body[..body.len().min(120)])
                    ));
                    Err(())
                }
            }
        }
        Planned::Oversized => {
            kind_label = "oversized".to_owned();
            // Declare an absurd body and send none of it; the server
            // must refuse by declaration, without reading.
            let raw = b"POST /v1/parse HTTP/1.1\r\ncontent-length: 1073741824\r\n\r\n".to_vec();
            match send_recv(config, conn, &raw) {
                None => Ok(None),
                Some((413, _, body)) => Ok(Some((413, body))),
                Some((status, _, body)) => {
                    shard.violations.push(format!(
                        "{label}: expected 413 got {status}: {}",
                        String::from_utf8_lossy(&body[..body.len().min(120)])
                    ));
                    Err(())
                }
            }
        }
        Planned::Truncated(idx) => {
            kind_label = "truncated".to_owned();
            // A fresh connection, half a body, then a write shutdown:
            // the server sees EOF mid-body.
            *conn = None;
            let combo = &combos[idx];
            let full = combo_request(combo, config.keys.first().map(String::as_str));
            let cut = full.len() - combo.source.len() / 2 - 1;
            match connect(config) {
                None => Ok(None),
                Some(mut stream) => {
                    let sent = stream
                        .write_all(&full[..cut])
                        .and_then(|()| stream.flush())
                        .and_then(|()| stream.shutdown(std::net::Shutdown::Write));
                    if sent.is_err() {
                        Ok(None)
                    } else {
                        match read_response(&mut stream) {
                            Ok((400, _, body)) => Ok(Some((400, body))),
                            Ok((status, _, body)) => {
                                shard.violations.push(format!(
                                    "{label}: expected 400 got {status}: {}",
                                    String::from_utf8_lossy(&body[..body.len().min(120)])
                                ));
                                Err(())
                            }
                            Err(_) => Ok(None),
                        }
                    }
                }
            }
        }
        Planned::SlowWriter => {
            kind_label = "slow-writer".to_owned();
            *conn = None;
            match connect(config) {
                None => Ok(None),
                Some(mut stream) => {
                    let stall = config.server_read_timeout + Duration::from_millis(100);
                    let sent = stream
                        .write_all(b"POST /v1/par")
                        .and_then(|()| stream.flush());
                    std::thread::sleep(stall);
                    if sent.is_err() {
                        Ok(None)
                    } else {
                        match read_response(&mut stream) {
                            Ok((408, _, body)) => Ok(Some((408, body))),
                            Ok((status, _, body)) => {
                                shard.violations.push(format!(
                                    "{label}: expected 408 got {status}: {}",
                                    String::from_utf8_lossy(&body[..body.len().min(120)])
                                ));
                                Err(())
                            }
                            Err(_) => Ok(None),
                        }
                    }
                }
            }
        }
    };
    let elapsed = started.elapsed();
    let stats = shard.kinds.entry(kind_label).or_default();
    stats.count += 1;
    match outcome {
        Ok(Some((status, _body))) => {
            stats.ok += 1;
            stats.latency.record(elapsed);
            *shard.statuses.entry(status).or_insert(0) += 1;
        }
        Ok(None) => {
            shard.client_aborts += 1;
            if planned.is_fault() {
                // Aborts are an acceptable outcome for connection-level
                // faults; for clean traffic they are suspicious but can
                // happen when the server sheds the connection itself.
                stats.ok += 1;
            } else {
                shard
                    .violations
                    .push(format!("{label}: no response (connection dropped)"));
            }
        }
        Err(()) => {
            // Violation already recorded.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_fault_heavy() {
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap_or_else(|_| unreachable!());
        let mut config = LoadgenConfig::new(addr);
        config.requests = 400;
        config.keys = vec!["k".to_owned()];
        config.flood_key = Some("kf".to_owned());
        let combos = build_combos(&config);
        assert!(
            combos.iter().any(|c| c.endpoint == Endpoint::Estimate),
            "at least one estimate combo must be eligible"
        );
        assert!(
            combos
                .iter()
                .any(|c| c.endpoint == Endpoint::Parse && c.expect_status == 422),
            "the malformed spec must exercise the 422 path"
        );
        let plan_a = build_plan(&config, &combos);
        let plan_b = build_plan(&config, &combos);
        assert_eq!(plan_a.len(), plan_b.len());
        let faults = plan_a.iter().filter(|p| p.is_fault()).count();
        let kinds_match = plan_a
            .iter()
            .zip(&plan_b)
            .all(|(a, b)| a.kind() == b.kind());
        assert!(kinds_match, "same seed must give the same plan");
        assert!(
            faults as f64 >= 0.25 * plan_a.len() as f64,
            "fault share too low: {faults}/{}",
            plan_a.len()
        );
    }
}
