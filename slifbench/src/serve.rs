//! `serve_store`: service clients.
//!
//! An in-process `slif_serve` server with a durable store directory and
//! two connection and two job workers. One client thread drives it in a
//! closed loop over one keep-alive loopback connection. One op is one
//! cycle: a design from the read set fetched in binary and as text, a
//! fresh small design uploaded (a fsynced write), then estimate, analyze
//! and a budgeted explore on one spec held by the source cache. The
//! read-set designs are of one family and size, and so are the `/v1`
//! specs, so every cycle asks for the same work.
//!
//! The durable store keeps every job's state in memory, so the ops move
//! to a fresh server every `OPS_PER_SERVER` cycles, outside the timed
//! intervals: peak RSS then covers a fixed number of jobs, not however
//! many a run had time for.

use crate::gen::{generate, Family, Rng};
use crate::trace::Recorder;
use crate::{Counts, Workload};
use slif_core::Design;
use slif_formats::{read_bytes, write_bytes, Encoding, FormatLimits, Strictness};
use slif_frontend::build_design;
use slif_runtime::{RunLimits, ServiceConfig};
use slif_serve::server::{Server, ServerConfig};
use slif_serve::wire::{job_for, render_output, Endpoint, WireParams, HDR_ITERATIONS, HDR_SEED};
use slif_store::{encode_design, ContentKey};
use slif_techlib::TechnologyLibrary;
use std::collections::BTreeMap;
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

/// Read-set designs: process-heavy, 2000 design nodes each. Cycle `k`
/// reads design `k % READS` and runs the `/v1` jobs on spec `k % READS`.
const READS: usize = 4;
const READ_SCALE: usize = 2000;

/// The `/v1` specs: process-heavy, about the size of the corpus's
/// `ether`.
const V1_SCALE: usize = 120;

/// Cycles served by one server before the ops move to a fresh one.
const OPS_PER_SERVER: u64 = 128;

/// Each cycle's freshly uploaded design: process-heavy, sent as text.
const FRESH_SCALE: usize = 40;

/// Random-search iterations asked of `/v1/explore`.
const EXPLORE_ITERATIONS: u64 = 1000;

/// Cap on the server's job iterations (the server default).
const MAX_EXPLORE_ITERATIONS: u64 = 10_000;

/// The `/v1` requests of a cycle, with their span names.
const V1: [(&str, &str); 3] = [
    ("/v1/estimate", "serve.estimate"),
    ("/v1/analyze", "serve.analyze"),
    ("/v1/explore", "serve.explore"),
];

/// A design uploaded at set-up and read back by the ops.
struct ReadDesign {
    bytes: Vec<u8>,
    hash: String,
    nodes: usize,
    channels: usize,
}

/// A spec the `/v1` endpoints run on, with the bodies `Job::run_inline`
/// and `render_output` give for the same jobs.
struct V1Spec {
    source: String,
    expected: [Vec<u8>; 3],
}

/// A fresh design for one cycle's upload.
struct Fresh {
    bytes: Vec<u8>,
    hash: String,
}

/// The client side of one keep-alive connection. Requests go one at a
/// time, so each reply is read whole — its head, then `content-length`
/// bytes — before the next request is written, and the buffer never
/// holds a byte of the next reply.
struct Conn(BufReader<TcpStream>);

impl Conn {
    fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, String)],
        body: &[u8],
    ) -> Result<(u16, Vec<u8>), String> {
        let fail = |e: &dyn std::fmt::Display| format!("{method} {path}: {e}");
        let mut raw = format!(
            "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n",
            body.len()
        );
        for (name, value) in headers {
            raw.push_str(&format!("{name}: {value}\r\n"));
        }
        raw.push_str("\r\n");
        let mut raw = raw.into_bytes();
        raw.extend_from_slice(body);
        self.0.get_mut().write_all(&raw).map_err(|e| fail(&e))?;
        let (mut status, mut length) = (None, 0usize);
        let mut line = String::new();
        loop {
            line.clear();
            if self.0.read_line(&mut line).map_err(|e| fail(&e))? == 0 {
                return Err(fail(&"connection closed mid-reply"));
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if status.is_none() {
                let code = line.split(' ').nth(1).and_then(|c| c.parse::<u16>().ok());
                status = Some(code.ok_or_else(|| fail(&format!("bad status line {line:?}")))?);
            } else if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|e| fail(&e))?;
                }
            }
        }
        let mut reply = vec![0; length];
        self.0.read_exact(&mut reply).map_err(|e| fail(&e))?;
        Ok((status.ok_or_else(|| fail(&"empty reply head"))?, reply))
    }
}

/// One server with its store directory and client connection.
struct Live {
    server: Server,
    dir: PathBuf,
    conn: Conn,
}

impl Live {
    fn close(self) {
        drop(self.conn);
        self.server.shutdown();
        drop(std::fs::remove_dir_all(&self.dir));
    }
}

pub struct Serve {
    root: PathBuf,
    reads: Vec<ReadDesign>,
    specs: Vec<V1Spec>,
    params: WireParams,
    seed: u64,
    /// The server the ops use: the first set-up's, then every
    /// `OPS_PER_SERVER` cycles a fresh one.
    live: Option<Live>,
    /// Servers of later set-ups, shut down outside the timed intervals.
    retired: Vec<Live>,
    /// Servers bound so far, which names their store directories.
    servers: u32,
    fresh: Option<Fresh>,
    /// `/metrics` counters before the first op.
    metrics_before: BTreeMap<String, u64>,
}

/// A request: method, path, headers and body.
type Call<'a> = (&'a str, &'a str, &'a [(&'a str, String)], &'a [u8]);

/// Each request's status and body.
pub type Replies = Vec<Result<(u16, Vec<u8>), String>>;

fn design_of(text: &str) -> Result<Design, String> {
    let rs = slif_speclang::parse_and_resolve(text).map_err(|e| e.to_string())?;
    Ok(build_design(&rs, &TechnologyLibrary::proc_asic()))
}

fn hash_of(design: &Design) -> String {
    ContentKey::of(&encode_design(design)).to_hex()
}

/// The content hash a `POST /designs` reply names.
fn posted_hash(body: &[u8]) -> Option<&str> {
    std::str::from_utf8(body)
        .ok()?
        .strip_prefix("design ")?
        .get(..64)
}

fn metrics(conn: &mut Conn) -> Result<BTreeMap<String, u64>, String> {
    let (status, body) = conn.request("GET", "/metrics", &[], b"")?;
    if status != 200 {
        return Err(format!("GET /metrics: status {status}"));
    }
    Ok(String::from_utf8_lossy(&body)
        .lines()
        .filter_map(|l| {
            let (name, v) = l.split_once(' ')?;
            Some((name.to_owned(), v.parse().ok()?))
        })
        .collect())
}

impl Serve {
    fn live(&mut self) -> &mut Live {
        self.live
            .as_mut()
            .expect("the first set-up bound the server")
    }

    /// Binds a server over a new store directory, uploads the read set
    /// and warms the `/v1` source cache.
    fn start(&mut self) -> Result<Live, String> {
        let dir = self.root.join(format!("store-{}", self.servers));
        self.servers += 1;
        let config = ServerConfig::new()
            .with_store_dir(&dir)
            .with_conn_workers(2)
            .with_io_timeouts(Duration::from_secs(30), Duration::from_secs(30))
            .with_max_request_bytes(16 << 20)
            .with_runtime(ServiceConfig::new().with_workers(2));
        let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
        let conn = TcpStream::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        conn.set_nodelay(true).map_err(|e| e.to_string())?;
        conn.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let mut live = Live {
            server,
            dir,
            conn: Conn(BufReader::with_capacity(64 << 10, conn)),
        };
        for read in &self.reads {
            let (status, body) = live.conn.request("POST", "/designs", &[], &read.bytes)?;
            if status != 201 || posted_hash(&body) != Some(read.hash.as_str()) {
                return Err(format!("POST /designs of the read set: status {status}"));
            }
        }
        for spec in &self.specs {
            let (status, body) =
                live.conn
                    .request("POST", "/v1/estimate", &[], spec.source.as_bytes())?;
            if status != 200 || body != spec.expected[0] {
                return Err(format!("POST /v1/estimate at set-up: status {status}"));
            }
        }
        Ok(live)
    }
}

impl Workload for Serve {
    type Output = Replies;

    fn prepare(seed: u64) -> Result<Self, String> {
        let mut rng = Rng::new(seed);
        let mut reads = Vec::new();
        for i in 0..READS {
            let name = format!("Read{i}");
            let g = generate(
                Family::ProcessHeavy,
                READ_SCALE,
                &mut rng.fork(i as u64),
                &name,
            );
            let design = design_of(&g.text)?;
            reads.push(ReadDesign {
                bytes: write_bytes(&design, None, Encoding::Binary).map_err(|e| e.to_string())?,
                hash: hash_of(&design),
                nodes: g.nodes,
                channels: g.channels,
            });
        }
        let params = WireParams {
            seed: rng.next_u64() >> 1,
            iterations: EXPLORE_ITERATIONS,
        };
        let limits = RunLimits::default();
        let mut specs = Vec::new();
        for i in 0..READS {
            let name = format!("Spec{i}");
            let g = generate(
                Family::ProcessHeavy,
                V1_SCALE,
                &mut rng.fork(0x7631 + i as u64),
                &name,
            );
            let mut expected: [Vec<u8>; 3] = Default::default();
            for (slot, endpoint) in [Endpoint::Estimate, Endpoint::Analyze, Endpoint::Explore]
                .into_iter()
                .enumerate()
            {
                let job = job_for(endpoint, &g.text, &params, &limits, MAX_EXPLORE_ITERATIONS)?;
                let out = job
                    .run_inline(&limits)
                    .map_err(|e| format!("{name}: {e}"))?;
                expected[slot] = render_output(&out).into_bytes();
            }
            specs.push(V1Spec {
                source: g.text,
                expected,
            });
        }
        let root = PathBuf::from(".slifbench").join(format!("serve-{}", std::process::id()));
        Ok(Self {
            root,
            reads,
            specs,
            params,
            seed,
            live: None,
            retired: Vec::new(),
            servers: 0,
            fresh: None,
            metrics_before: BTreeMap::new(),
        })
    }

    /// Starts a server. The first serves the ops; later ones, checked
    /// as they start, are retired before the next op.
    fn setup(&mut self, _rec: &mut Recorder) -> Result<(), String> {
        let live = self.start()?;
        if self.live.is_none() {
            self.live = Some(live);
        } else {
            self.retired.push(live);
        }
        Ok(())
    }

    fn cycle(&self) -> u64 {
        self.reads.len() as u64
    }

    /// Retires spare servers, moves the ops to a fresh server every
    /// `OPS_PER_SERVER` cycles, makes this cycle's fresh design, and
    /// before the first op reads the `/metrics` baseline.
    fn before_op(&mut self, k: u64) -> Result<(), String> {
        for live in self.retired.drain(..) {
            live.close();
        }
        if k > 0 && k.is_multiple_of(OPS_PER_SERVER) {
            if let Some(old) = self.live.take() {
                old.close();
            }
            self.live = Some(self.start()?);
        }
        let mut rng = Rng::new(self.seed ^ k.wrapping_mul(0x9e37_79b9));
        let g = generate(
            Family::ProcessHeavy,
            FRESH_SCALE,
            &mut rng,
            &format!("Fresh{k}"),
        );
        let design = design_of(&g.text)?;
        self.fresh = Some(Fresh {
            bytes: write_bytes(&design, None, Encoding::Text).map_err(|e| e.to_string())?,
            hash: hash_of(&design),
        });
        if k == 0 {
            self.metrics_before = metrics(&mut self.live().conn)?;
        }
        Ok(())
    }

    fn op(&mut self, k: u64, rec: &mut Recorder) -> Replies {
        let i = (k % self.reads.len() as u64) as usize;
        let (read, spec) = (&self.reads[i], &self.specs[i]);
        let fresh = self.fresh.as_ref().expect("before_op made a fresh design");
        let path = format!("/designs/{}", read.hash);
        let explore = [
            (HDR_SEED, self.params.seed.to_string()),
            (HDR_ITERATIONS, self.params.iterations.to_string()),
        ];
        let bin = [("accept", String::from("application/octet-stream"))];
        let mut calls: Vec<(Call, &str)> = vec![
            (("GET", &path, &bin, b""), "serve.get_bin"),
            (("GET", &path, &[], b""), "serve.get_text"),
            (("POST", "/designs", &[], &fresh.bytes), "serve.post_design"),
        ];
        for (path, name) in V1 {
            let headers: &[(&str, String)] = if name == "serve.explore" {
                &explore
            } else {
                &[]
            };
            calls.push((("POST", path, headers, spec.source.as_bytes()), name));
        }
        let conn = &mut self
            .live
            .as_mut()
            .expect("the first set-up bound the server")
            .conn;
        calls
            .into_iter()
            .map(|((method, path, headers, body), name)| {
                rec.span(name, || conn.request(method, path, headers, body))
            })
            .collect()
    }

    fn check(&mut self, k: u64, out: Replies, counts: Option<&mut Counts>) -> Result<(), String> {
        let i = (k % self.reads.len() as u64) as usize;
        let (read, spec) = (&self.reads[i], &self.specs[i]);
        let fresh = self.fresh.as_ref().expect("before_op made a fresh design");
        let (mut bytes_out, mut non2xx) = (0u64, 0u64);
        let mut replies = out.into_iter();
        let mut next = |step: &str| -> Result<(u16, Vec<u8>), String> {
            let (status, body) = replies
                .next()
                .ok_or(format!("{step}: no reply"))?
                .map_err(|e| format!("{step}: {e}"))?;
            bytes_out += body.len() as u64;
            non2xx += u64::from(!(200..300).contains(&status));
            Ok((status, body))
        };
        for step in ["GET binary", "GET text"] {
            let (status, body) = next(step)?;
            if status != 200 {
                return Err(format!("{step}: status {status}"));
            }
            let got = read_bytes(&body, Strictness::Strict, &FormatLimits::default())
                .map_err(|e| format!("{step}: {e}"))?;
            let g = got.design.graph();
            if (g.node_count(), g.channel_count()) != (read.nodes, read.channels) {
                return Err(format!("{step}: decoded counts differ from the upload"));
            }
        }
        let (status, body) = next("POST /designs")?;
        if status != 201 || posted_hash(&body) != Some(fresh.hash.as_str()) {
            return Err(format!("POST /designs: status {status}, wrong or no hash"));
        }
        for (want, (path, _)) in spec.expected.iter().zip(V1) {
            let (status, body) = next(path)?;
            if status != 200 || &body != want {
                return Err(format!(
                    "{path}: status {status}, body differs from run_inline"
                ));
            }
        }
        if let Some(c) = counts {
            *c.entry("serve.bytes_out").or_default() += bytes_out;
            *c.entry("serve.non2xx").or_default() += non2xx;
            if k + 1 == self.cycle() {
                let after = metrics(&mut self.live().conn)?;
                let before = &self.metrics_before;
                for (name, series) in [
                    ("store.hits", "slif_store_cache_hits_total"),
                    ("store.misses", "slif_store_cache_misses_total"),
                    ("store.puts", "slif_store_cache_puts_total"),
                    ("store.quarantined", "slif_store_cache_quarantined_total"),
                    ("runtime.completed", "slif_jobs_completed_total"),
                    ("runtime.failed", "slif_jobs_failed_total"),
                    ("runtime.retried", "slif_jobs_retried_total"),
                    ("runtime.shed", "slif_jobs_shed_total"),
                ] {
                    let delta = after
                        .get(series)
                        .copied()
                        .unwrap_or(0)
                        .saturating_sub(before.get(series).copied().unwrap_or(0));
                    c.insert(name, delta);
                }
            }
        }
        Ok(())
    }

    fn covered(&self) -> bool {
        false
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        for live in self.retired.drain(..).chain(self.live.take()) {
            live.close();
        }
        drop(std::fs::remove_dir_all(&self.root));
    }
}
