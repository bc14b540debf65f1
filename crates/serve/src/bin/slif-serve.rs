//! The `slif-serve` binary: bind the wire-facing SLIF server and run
//! until stdin closes (or reads `quit`), then drain gracefully.
//!
//! ```text
//! slif-serve [--addr HOST:PORT] [--workers N] [--conn-workers N]
//!            [--read-timeout-ms N] [--max-body BYTES] [--store-dir PATH]
//!            [--tenant NAME:KEY:WEIGHT:RATE:BURST]...
//! ```
//!
//! With no `--tenant` flags the server runs open (no API keys). Each
//! `--tenant` adds a key with a fair-share weight and a token-bucket
//! quota (requests/second steady state, burst ceiling). `--store-dir`
//! enables crash-safe persistence: every job is journalled before it
//! runs and its result fsynced before the acknowledgement, so
//! `GET /jobs/{id}` (the id is in every `x-slif-job-id` response
//! header) survives even a SIGKILL restart; repeat specs are served
//! from a content-addressed design cache.

use slif_runtime::ServiceConfig;
use slif_serve::server::{Server, ServerConfig};
use slif_serve::tenant::TenantSpec;
use std::time::Duration;

fn parse_tenant(arg: &str) -> Result<TenantSpec, String> {
    let parts: Vec<&str> = arg.split(':').collect();
    if parts.len() != 5 {
        return Err(format!(
            "--tenant wants NAME:KEY:WEIGHT:RATE:BURST, got {arg:?}"
        ));
    }
    let weight: u32 = parts[2]
        .parse()
        .map_err(|_| format!("bad tenant weight {:?}", parts[2]))?;
    let rate: f64 = parts[3]
        .parse()
        .map_err(|_| format!("bad tenant rate {:?}", parts[3]))?;
    let burst: f64 = parts[4]
        .parse()
        .map_err(|_| format!("bad tenant burst {:?}", parts[4]))?;
    Ok(TenantSpec::new(parts[0], parts[1])
        .with_weight(weight)
        .with_quota(rate, burst))
}

fn parse_args(args: &[String]) -> Result<ServerConfig, String> {
    let mut config = ServerConfig::new();
    let mut runtime = ServiceConfig::new().with_workers(4);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr")?.clone(),
            "--workers" => {
                runtime = runtime.with_workers(
                    value("--workers")?
                        .parse()
                        .map_err(|_| "bad --workers value".to_owned())?,
                );
            }
            "--conn-workers" => {
                config = config.with_conn_workers(
                    value("--conn-workers")?
                        .parse()
                        .map_err(|_| "bad --conn-workers value".to_owned())?,
                );
            }
            "--read-timeout-ms" => {
                let ms: u64 = value("--read-timeout-ms")?
                    .parse()
                    .map_err(|_| "bad --read-timeout-ms value".to_owned())?;
                let write = config.write_timeout;
                config = config.with_io_timeouts(Duration::from_millis(ms.max(1)), write);
            }
            "--max-body" => {
                config = config.with_max_request_bytes(
                    value("--max-body")?
                        .parse()
                        .map_err(|_| "bad --max-body value".to_owned())?,
                );
            }
            "--store-dir" => config = config.with_store_dir(value("--store-dir")?.clone()),
            "--tenant" => config = config.with_tenant(parse_tenant(value("--tenant")?)?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(config.with_runtime(runtime))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("slif-serve: {msg}");
            std::process::exit(2);
        }
    };
    let tenants = config.tenants.len();
    let server = match Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("slif-serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("slif-serve listening on {}", server.addr());
    if tenants == 0 {
        println!("open server (no API keys); POST specs to /v1/parse|estimate|explore|analyze");
    } else {
        println!("{tenants} tenant(s) configured; requests need x-api-key");
    }
    println!("GET /health and /metrics for observability; EOF or 'quit' on stdin drains");
    // Block on stdin: EOF or a `quit` line triggers the graceful drain.
    let mut line = String::new();
    loop {
        line.clear();
        match std::io::stdin().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.trim() == "quit" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    println!("slif-serve draining…");
    server.shutdown();
    println!("slif-serve stopped cleanly");
}
