//! The `loadgen` binary: hammer a `slif-serve` instance with a mixed,
//! fault-injected request stream and check every response against the
//! inline run.
//!
//! ```text
//! loadgen --self-serve [--requests N] [--clients N] [--fault-rate F]
//!         [--seed N]
//! loadgen --addr HOST:PORT [...]
//! ```
//!
//! `--self-serve` binds a server in-process on an ephemeral port with
//! three tenants (two healthy, one quota-capped flood target) and tears
//! it down after the run — the mode `verify.sh` uses, so no port
//! coordination is needed. Exits nonzero when any response violated the
//! wire contract (wrong status, or a clean body that was not
//! byte-identical to the inline run) or the server caught panics.

use slif_runtime::{RunLimits, ServiceConfig};
use slif_serve::loadgen::{run, LoadgenConfig};
use slif_serve::server::{Server, ServerConfig};
use slif_serve::tenant::TenantSpec;
use std::time::Duration;

struct Args {
    self_serve: bool,
    addr: Option<String>,
    requests: usize,
    clients: usize,
    fault_rate: f64,
    seed: u64,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        self_serve: false,
        addr: None,
        requests: 2000,
        clients: 8,
        fault_rate: 0.35,
        seed: 42,
    };
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--self-serve" => args.self_serve = true,
            "--addr" => args.addr = Some(value("--addr")?.clone()),
            "--requests" => {
                args.requests = value("--requests")?
                    .parse()
                    .map_err(|_| "bad --requests value".to_owned())?;
            }
            "--clients" => {
                args.clients = value("--clients")?
                    .parse()
                    .map_err(|_| "bad --clients value".to_owned())?;
            }
            "--fault-rate" => {
                args.fault_rate = value("--fault-rate")?
                    .parse()
                    .map_err(|_| "bad --fault-rate value".to_owned())?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "bad --seed value".to_owned())?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.self_serve == args.addr.is_some() {
        return Err("pass exactly one of --self-serve or --addr".to_owned());
    }
    Ok(args)
}

/// The tenant roster the self-serve mode configures: two healthy keys
/// for clean traffic plus one quota-capped key the flood faults hammer.
fn self_serve_tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("alpha", "key-alpha").with_weight(3),
        TenantSpec::new("beta", "key-beta").with_weight(1),
        TenantSpec::new("flood", "key-flood")
            .with_weight(1)
            .with_quota(2.0, 4.0),
    ]
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("loadgen: {msg}");
            std::process::exit(2);
        }
    };
    let read_timeout = Duration::from_millis(500);
    let limits = RunLimits::default();
    let explore_cap = 64;

    // Self-serve mode: an in-process server on an ephemeral port.
    let server = if args.self_serve {
        let config = ServerConfig::new()
            .with_conn_workers(6)
            .with_io_timeouts(read_timeout, Duration::from_secs(2))
            .with_max_explore_iterations(explore_cap)
            .with_runtime(
                ServiceConfig::new()
                    .with_workers(4)
                    .with_queue_capacity(256)
                    .with_limits(limits),
            );
        let config = self_serve_tenants()
            .into_iter()
            .fold(config, ServerConfig::with_tenant);
        match Server::bind(config) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("loadgen: self-serve bind failed: {e}");
                std::process::exit(1);
            }
        }
    } else {
        None
    };
    let addr = match (&server, &args.addr) {
        (Some(s), _) => s.addr(),
        (None, Some(a)) => match a.parse() {
            Ok(addr) => addr,
            Err(_) => {
                eprintln!("loadgen: unparsable --addr {a:?}");
                std::process::exit(2);
            }
        },
        (None, None) => unreachable!("parse_args enforces one mode"),
    };

    let mut config = LoadgenConfig::new(addr);
    config.requests = args.requests;
    config.clients = args.clients.max(1);
    config.fault_rate = args.fault_rate;
    config.seed = args.seed;
    config.limits = limits;
    config.explore_cap = explore_cap;
    config.server_read_timeout = read_timeout;
    if args.self_serve {
        config.keys = vec!["key-alpha".to_owned(), "key-beta".to_owned()];
        config.flood_key = Some("key-flood".to_owned());
    }

    eprintln!(
        "loadgen: {} requests, {} clients, fault rate {:.0}%, seed {} → {}",
        config.requests,
        config.clients,
        config.fault_rate * 100.0,
        config.seed,
        addr
    );
    let report = run(&config);
    eprintln!(
        "loadgen: {} requests in {:.2} s ({:.0} rps), {} aborts, {} violations",
        report.total,
        report.wall.as_secs_f64(),
        report.throughput_rps(),
        report.client_aborts,
        report.violations.len()
    );
    for v in report.violations.iter().take(10) {
        eprintln!("loadgen: VIOLATION: {v}");
    }

    let mut failed = !report.violations.is_empty();
    if let Some(server) = server {
        let health = server.health();
        if health.worker_panics > 0 {
            // Clean traffic only — any caught panic means a fault leaked
            // past the wire layer into a job.
            eprintln!(
                "loadgen: server caught {} worker panic(s) from wire traffic",
                health.worker_panics
            );
            failed = true;
        }
        eprintln!("loadgen: server health: {health}");
        server.shutdown();
    }
    std::process::exit(i32::from(failed));
}
