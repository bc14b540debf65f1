//! The `restart_smoke` binary: a cross-process crash-restart check for
//! the durable store, used by `verify.sh`.
//!
//! ```text
//! restart_smoke [--store-dir PATH]
//! ```
//!
//! It spawns a real `slif-serve` process (found next to this binary)
//! with a durable store, submits a job over the wire and records the
//! acknowledged body plus its `x-slif-job-id`, then SIGKILLs the server
//! — no drain, no flush, the hard way down. A second server process
//! over the same store directory must serve `GET /jobs/{id}` with the
//! byte-identical body, and a repeat of the same spec must hit the
//! design cache. Exits nonzero on any violation.

use slif_serve::http::read_response;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SPEC: &str = "system T;\nvar x : int<8>;\nprocess Main { x = x + 1; }\n";

/// A spawned slif-serve with its stdin held open (EOF would drain it).
struct ServeProc {
    child: Child,
    stdin: std::process::ChildStdin,
    addr: String,
}

fn spawn_serve(store_dir: &str) -> Result<ServeProc, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let serve = exe
        .parent()
        .ok_or("current_exe has no parent directory")?
        .join("slif-serve");
    let mut child = Command::new(&serve)
        .args(["--addr", "127.0.0.1:0", "--store-dir", store_dir])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", serve.display()))?;
    let stdin = child.stdin.take().ok_or("child stdin not piped")?;
    let stdout = child.stdout.take().ok_or("child stdout not piped")?;
    let mut lines = BufReader::new(stdout).lines();
    // The first line announces the bound (ephemeral) address.
    for line in &mut lines {
        let line = line.map_err(|e| format!("reading child stdout: {e}"))?;
        if let Some(addr) = line.strip_prefix("slif-serve listening on ") {
            // Drain the rest of the banner in the background so the
            // child never blocks on a full stdout pipe.
            let addr = addr.trim().to_owned();
            std::thread::spawn(move || for _ in lines {});
            return Ok(ServeProc { child, stdin, addr });
        }
    }
    Err("server exited before announcing its address".to_owned())
}

/// Status, headers, body — what `read_response` yields.
type WireReply = (u16, Vec<(String, String)>, Vec<u8>);

fn request(addr: &str, raw: &[u8]) -> Result<WireReply, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    // The acceptor may not be up the instant the banner prints; retry
    // connection refusals briefly.
    loop {
        match TcpStream::connect(addr) {
            Ok(mut s) => {
                s.set_read_timeout(Some(Duration::from_secs(30)))
                    .map_err(|e| format!("set_read_timeout: {e}"))?;
                s.write_all(raw).map_err(|e| format!("write: {e}"))?;
                return read_response(&mut s).map_err(|e| format!("read_response: {e:?}"));
            }
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(format!("connect {addr}: {e}"));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\n\r\n").into_bytes()
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn run(store_dir: &str) -> Result<(), String> {
    // Phase 1: submit a job, record the acknowledged result.
    let mut server = spawn_serve(store_dir)?;
    let (status, headers, body) = request(&server.addr, &post("/v1/estimate", SPEC))?;
    if status != 200 {
        return Err(format!(
            "submit returned {status}: {}",
            String::from_utf8_lossy(&body)
        ));
    }
    let id: u64 = header(&headers, "x-slif-job-id")
        .ok_or("response lacks x-slif-job-id")?
        .parse()
        .map_err(|_| "unparsable x-slif-job-id")?;
    println!("restart_smoke: job {id} acknowledged ({} bytes)", body.len());

    // Phase 2: SIGKILL — the server gets no chance to flush anything it
    // did not already fsync before acknowledging.
    server.child.kill().map_err(|e| format!("kill: {e}"))?;
    drop(server.child.wait());
    drop(server.stdin);
    println!("restart_smoke: server killed without drain");

    // Phase 3: a fresh process over the same store must replay the
    // acknowledged result byte for byte.
    let mut server = spawn_serve(store_dir)?;
    let (status, _, replayed) = request(&server.addr, &get(&format!("/jobs/{id}")))?;
    if status != 200 {
        return Err(format!(
            "GET /jobs/{id} after restart returned {status}: {}",
            String::from_utf8_lossy(&replayed)
        ));
    }
    if replayed != body {
        return Err(format!(
            "replayed body diverged from the acknowledged one:\n-- acknowledged --\n{}\n-- replayed --\n{}",
            String::from_utf8_lossy(&body),
            String::from_utf8_lossy(&replayed)
        ));
    }
    println!("restart_smoke: journalled result survived the restart bit for bit");

    // Phase 4: the same spec again — served warm from the design cache,
    // still byte-identical.
    let (status, _, warm) = request(&server.addr, &post("/v1/estimate", SPEC))?;
    if status != 200 || warm != body {
        return Err(format!(
            "warm resubmit returned {status}, identical: {}",
            warm == body
        ));
    }
    let (_, _, metrics) = request(&server.addr, &get("/metrics"))?;
    let text = String::from_utf8_lossy(&metrics);
    let hits: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("slif_store_cache_hits_total "))
        .and_then(|v| v.parse().ok())
        .ok_or("metrics lack slif_store_cache_hits_total")?;
    if hits == 0 {
        return Err("cache reported no hits for a repeated spec".to_owned());
    }
    println!("restart_smoke: warm cache hit ({hits}) matched cold body");
    drop(server.stdin); // EOF: graceful drain
    drop(server.child.wait());
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut store_dir = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--store-dir" => store_dir = it.next().cloned(),
            other => {
                eprintln!("restart_smoke: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    let fallback = std::env::temp_dir()
        .join(format!("slif-restart-smoke-{}", std::process::id()))
        .display()
        .to_string();
    let store_dir = store_dir.unwrap_or(fallback);
    let _ = std::fs::remove_dir_all(&store_dir);
    match run(&store_dir) {
        Ok(()) => {
            let _ = std::fs::remove_dir_all(&store_dir);
            println!("restart_smoke: OK");
        }
        Err(msg) => {
            eprintln!("restart_smoke: FAILED: {msg}");
            std::process::exit(1);
        }
    }
}
