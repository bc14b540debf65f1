//! The accept/dispatch loop: a fixed acceptor + connection-worker pool
//! over `std::net::TcpListener`.
//!
//! Topology: one **acceptor** thread polls a non-blocking listener and
//! pushes accepted sockets onto a bounded connection queue; when that
//! queue is full the acceptor *sheds* the connection with a canned 503
//! instead of letting the backlog grow. A fixed pool of **connection
//! workers** pops sockets and runs keep-alive request loops. Each
//! request is read under an *absolute* deadline and each response
//! written under another ([`crate::http`]), so a stalled or hostile
//! connection — including one dripping a byte at a time — can pin a
//! worker for at most one read budget plus one write budget before it
//! is cut off.
//!
//! Shutdown is a graceful drain: [`Server::begin_drain`] flips a flag
//! that turns every job-submitting endpoint into a 410 while `/health`
//! and `/metrics` keep answering (so an orchestrator can watch the
//! drain); [`Server::shutdown`] then stops the acceptor, lets workers
//! finish their current connections, and drains the underlying
//! [`JobService`] — in-flight jobs finish, nothing is dropped.

use crate::durable::{DurableRequest, DurableStore, JobState};
use crate::http::{read_request, write_response, RecvError, Request, Response};
use crate::session::{render_update, SessionLimits, SessionRefusal, SessionRegistry};
use crate::tenant::{AdmitError, TenantRegistry, TenantSpec};
use crate::wire::{
    job_for_with_cache, render_output, response_for_error, response_for_rejection, Endpoint,
    WireParams, HDR_API_KEY, HDR_EDIT_END, HDR_EDIT_START,
};
use slif_runtime::{Job, JobOutcome, JobOutput, JobService, RunLimits, ServiceConfig};
use slif_session::EditDelta;
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (default `127.0.0.1:0` — an ephemeral port).
    pub addr: String,
    /// Connection-worker threads (default 4, floor 1).
    pub conn_workers: usize,
    /// Bounded accepted-connection queue; beyond it the acceptor sheds
    /// with a canned 503 (default 64, floor 1).
    pub pending_conns: usize,
    /// Absolute per-request read budget — the slow-loris bound: one
    /// whole request (head + body) must arrive within it (default 2 s).
    pub read_timeout: Duration,
    /// Absolute per-response write budget (default 2 s).
    pub write_timeout: Duration,
    /// Cap on a request's declared body size (default 256 KiB).
    pub max_request_bytes: usize,
    /// Deadline submitted with every job (default 10 s).
    pub request_deadline: Duration,
    /// Cap on requested exploration iterations (default 10 000).
    pub max_explore_iterations: u64,
    /// Tenants; empty = open server (no keys required).
    pub tenants: Vec<TenantSpec>,
    /// Durable-store directory (job journal + content-addressed design
    /// store).
    /// `None` (the default) serves statelessly, exactly as before.
    pub store_dir: Option<PathBuf>,
    /// Edit-session bounds: per-tenant cap and idle TTL.
    pub sessions: SessionLimits,
    /// Tuning for the underlying job service.
    pub runtime: ServiceConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            conn_workers: 4,
            pending_conns: 64,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            max_request_bytes: 256 * 1024,
            request_deadline: Duration::from_secs(10),
            max_explore_iterations: 10_000,
            tenants: Vec::new(),
            store_dir: None,
            sessions: SessionLimits::default(),
            runtime: ServiceConfig::new(),
        }
    }
}

impl ServerConfig {
    /// The default tuning.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the bind address.
    #[must_use]
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the connection-worker count (floor 1).
    #[must_use]
    pub fn with_conn_workers(mut self, n: usize) -> Self {
        self.conn_workers = n.max(1);
        self
    }

    /// Sets the read/write deadlines.
    #[must_use]
    pub fn with_io_timeouts(mut self, read: Duration, write: Duration) -> Self {
        self.read_timeout = read;
        self.write_timeout = write;
        self
    }

    /// Sets the request body cap.
    #[must_use]
    pub fn with_max_request_bytes(mut self, n: usize) -> Self {
        self.max_request_bytes = n;
        self
    }

    /// Sets the per-job deadline.
    #[must_use]
    pub fn with_request_deadline(mut self, d: Duration) -> Self {
        self.request_deadline = d;
        self
    }

    /// Sets the exploration-iteration cap (floor 1).
    #[must_use]
    pub fn with_max_explore_iterations(mut self, n: u64) -> Self {
        self.max_explore_iterations = n.max(1);
        self
    }

    /// Adds a tenant.
    #[must_use]
    pub fn with_tenant(mut self, spec: TenantSpec) -> Self {
        self.tenants.push(spec);
        self
    }

    /// Enables crash-safe persistence rooted at `dir`: jobs get durable
    /// ids, results survive restarts (`GET /jobs/{id}`), repeat specs
    /// hit the design cache, and `POST /designs` stores designs for
    /// `GET /designs/{hash}`.
    #[must_use]
    pub fn with_store_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store_dir = Some(dir.into());
        self
    }

    /// Sets the edit-session bounds.
    #[must_use]
    pub fn with_session_limits(mut self, sessions: SessionLimits) -> Self {
        self.sessions = sessions;
        self
    }

    /// Sets the job-service tuning.
    #[must_use]
    pub fn with_runtime(mut self, runtime: ServiceConfig) -> Self {
        self.runtime = runtime;
        self
    }
}

/// Wire-level counters, additional to the job service's own metrics.
#[derive(Debug, Default)]
pub(crate) struct WireStats {
    requests: AtomicU64,
    shed_conns: AtomicU64,
    statuses: Mutex<BTreeMap<u16, u64>>,
}

impl WireStats {
    fn note(&self, status: u16) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        *crate::lock(&self.statuses).entry(status).or_insert(0) += 1;
    }
}

/// The accepted-connection queue: bounded, closeable.
#[derive(Debug, Default)]
struct ConnQueue {
    state: Mutex<(VecDeque<TcpStream>, bool)>,
    ready: Condvar,
}

impl ConnQueue {
    /// Pushes unless full; `Err` returns the stream for shedding.
    fn push(&self, stream: TcpStream, cap: usize) -> Result<(), TcpStream> {
        let mut st = crate::lock(&self.state);
        if st.1 || st.0.len() >= cap {
            return Err(stream);
        }
        st.0.push_back(stream);
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// Pops a connection; `None` once closed and empty.
    fn pop(&self) -> Option<TcpStream> {
        let mut st = crate::lock(&self.state);
        loop {
            if let Some(s) = st.0.pop_front() {
                return Some(s);
            }
            if st.1 {
                return None;
            }
            st = self
                .ready
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn close(&self) {
        crate::lock(&self.state).1 = true;
        self.ready.notify_all();
    }
}

#[derive(Debug)]
struct Inner {
    service: JobService,
    registry: TenantRegistry,
    conns: ConnQueue,
    stats: WireStats,
    draining: AtomicBool,
    stop_accepting: AtomicBool,
    read_timeout: Duration,
    write_timeout: Duration,
    max_request_bytes: usize,
    request_deadline: Duration,
    max_explore_iterations: u64,
    limits: RunLimits,
    durable: Option<Arc<DurableStore>>,
    sessions: SessionRegistry,
}

/// A running server. Dropping it without [`shutdown`](Server::shutdown)
/// leaks the threads; call `shutdown` for a clean drain.
#[derive(Debug)]
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, starts the job service, the acceptor, and the worker pool.
    ///
    /// # Errors
    ///
    /// Any socket error from binding or configuring the listener.
    pub fn bind(config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let limits = config.runtime.limits;
        // Open (and recover) the durable store before anything can be
        // admitted, so replayed jobs re-enter the queue ahead of new
        // traffic.
        let (durable, recovered) = match &config.store_dir {
            Some(dir) => {
                let (store, recovered) = DurableStore::open(dir)
                    .map_err(|e| io::Error::other(e.to_string()))?;
                (Some(Arc::new(store)), recovered)
            }
            None => (None, Vec::new()),
        };
        let inner = Arc::new(Inner {
            durable: durable.clone(),
            service: JobService::start(config.runtime),
            registry: TenantRegistry::new(config.tenants),
            conns: ConnQueue::default(),
            stats: WireStats::default(),
            draining: AtomicBool::new(false),
            stop_accepting: AtomicBool::new(false),
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
            max_request_bytes: config.max_request_bytes,
            request_deadline: config.request_deadline,
            max_explore_iterations: config.max_explore_iterations,
            limits,
            sessions: SessionRegistry::new(config.sessions),
        });
        if let Some(store) = &durable {
            resubmit_recovered(&inner, store, recovered);
        }
        let pending = config.pending_conns.max(1);
        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("slif-serve-acceptor".into())
                .spawn(move || acceptor_loop(&inner, &listener, pending))?
        };
        let mut workers = Vec::with_capacity(config.conn_workers.max(1));
        for i in 0..config.conn_workers.max(1) {
            let inner = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("slif-serve-conn-{i}"))
                    .spawn(move || worker_loop(&inner))?,
            );
        }
        Ok(Self {
            inner,
            addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begins draining: job endpoints answer 410 from now on, while
    /// `/health` and `/metrics` keep serving. Idempotent.
    pub fn begin_drain(&self) {
        self.inner.draining.store(true, Ordering::SeqCst);
    }

    /// Graceful shutdown: drain, stop accepting, finish current
    /// connections, then drain the job service (in-flight jobs finish).
    pub fn shutdown(mut self) {
        self.begin_drain();
        self.inner.stop_accepting.store(true, Ordering::SeqCst);
        if let Some(a) = self.acceptor.take() {
            drop(a.join());
        }
        self.inner.conns.close();
        for w in self.workers.drain(..) {
            drop(w.join());
        }
        self.inner.service.shutdown();
    }

    /// A point-in-time health snapshot of the underlying job service.
    pub fn health(&self) -> slif_runtime::HealthSnapshot {
        self.inner.service.health()
    }
}

/// Resubmits jobs the journal accepted but never saw finish: each is
/// rebuilt from its journalled request (warm cache hits skip the
/// compile) and re-enters the queue with its original durable id and
/// tenant identity. A request that no longer builds is closed with a
/// journalled 422; one the fresh queue refuses is journalled cancelled —
/// either way `GET /jobs/{id}` has an answer, never a dangling id.
fn resubmit_recovered(
    inner: &Arc<Inner>,
    store: &Arc<DurableStore>,
    recovered: Vec<(u64, DurableRequest)>,
) {
    for (id, request) in recovered {
        let job = match job_for_with_cache(
            request.endpoint,
            &request.source,
            &request.params,
            &inner.limits,
            inner.max_explore_iterations,
            Some(store.cache()),
        ) {
            Ok(job) => job,
            Err(diag) => {
                store.finish(
                    id,
                    422,
                    format!("specification rejected on replay: {diag}\n").into_bytes(),
                );
                continue;
            }
        };
        let hook_store = Arc::clone(store);
        let submitted = inner.service.submit_observed(
            job,
            Some(inner.request_deadline),
            Some((request.tenant, request.weight.max(1))),
            move |outcome| hook_store.record_outcome(id, outcome),
        );
        if submitted.is_err() {
            store.cancel(id);
        }
    }
}

fn acceptor_loop(inner: &Inner, listener: &TcpListener, pending: usize) {
    while !inner.stop_accepting.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                if let Err(mut refused) = inner.conns.push(stream, pending) {
                    // Shed: a canned close-response, best-effort, under
                    // a tight budget so shedding itself cannot stall
                    // the acceptor.
                    inner.stats.shed_conns.fetch_add(1, Ordering::Relaxed);
                    let resp = Response::new(
                        503,
                        "Service Unavailable",
                        "connection backlog full; retry later\n",
                    )
                    .with_retry_after(1)
                    .closing();
                    drop(write_response(
                        &mut refused,
                        &resp,
                        Duration::from_millis(200),
                    ));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn worker_loop(inner: &Inner) {
    while let Some(stream) = inner.conns.pop() {
        serve_connection(inner, stream);
    }
}

/// Runs one keep-alive connection to completion. Never panics: every
/// refusal is a typed response, every socket error a drop.
fn serve_connection(inner: &Inner, mut stream: TcpStream) {
    if stream.set_nodelay(true).is_err() {
        return;
    }
    // Bytes over-read past one request (a pipelined next request) carry
    // into the next read_request call on this connection.
    let mut carry = Vec::new();
    loop {
        let response = match read_request(
            &mut stream,
            inner.max_request_bytes,
            inner.read_timeout,
            &mut carry,
        ) {
            Ok(request) => {
                let close = request.wants_close();
                let mut resp = handle_request(inner, &request);
                resp.close = resp.close || close;
                resp
            }
            // Clean end of the connection: peer closed or went idle.
            Err(RecvError::Closed) => return,
            // Slow loris: the deadline fired mid-request.
            Err(RecvError::Timeout) => {
                Response::new(408, "Request Timeout", "read deadline expired\n").closing()
            }
            Err(RecvError::TooLarge {
                what,
                limit,
                actual,
            }) => Response::new(
                413,
                "Payload Too Large",
                format!("too large: {what} {actual} exceeds limit {limit}\n"),
            )
            .closing(),
            Err(RecvError::Malformed(why)) => {
                Response::new(400, "Bad Request", format!("malformed request: {why}\n")).closing()
            }
            Err(RecvError::Io) => return,
        };
        inner.stats.note(response.status);
        if write_response(&mut stream, &response, inner.write_timeout).is_err() || response.close {
            return;
        }
    }
}

fn handle_request(inner: &Inner, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => Response::new(200, "OK", format!("{}\n", inner.service.health())),
        ("GET", "/metrics") => Response::new(200, "OK", render_metrics(inner)),
        (_, "/health" | "/metrics") => method_not_allowed("GET"),
        // Result retrieval is a read — it stays up during drain, like
        // the other observability endpoints.
        ("GET", path) if path.starts_with("/jobs/") => job_status(inner, path),
        (_, path) if path.starts_with("/jobs/") => method_not_allowed("GET"),
        ("POST", "/sessions") => open_session(inner, request),
        (_, "/sessions") => method_not_allowed("POST"),
        ("POST", "/designs") => post_design(inner, request),
        (_, "/designs") => method_not_allowed("POST"),
        ("GET", path) if path.starts_with("/designs/") => get_design(inner, path, request),
        (_, path) if path.starts_with("/designs/") => method_not_allowed("GET"),
        (method, path) if path.starts_with("/sessions/") => {
            session_request(inner, method, path, request)
        }
        (method, path) => match Endpoint::from_path(path) {
            None => Response::new(404, "Not Found", format!("no such endpoint: {path}\n")),
            Some(_) if method != "POST" => method_not_allowed("POST"),
            Some(endpoint) => run_job(inner, endpoint, request),
        },
    }
}

fn method_not_allowed(allowed: &str) -> Response {
    Response::new(
        405,
        "Method Not Allowed",
        format!("method not allowed; use {allowed}\n"),
    )
}

fn run_job(inner: &Inner, endpoint: Endpoint, request: &Request) -> Response {
    // Drain gate first: during drain nothing new is admitted, matching
    // the runtime's own ShuttingDown refusal.
    if inner.draining.load(Ordering::Relaxed) {
        return Response::new(410, "Gone", "server is draining; resubmit elsewhere\n").closing();
    }
    // Tenancy gate before any parsing: a quota flood costs one bucket
    // check, not a parse.
    let admission = match inner.registry.admit(request.header(HDR_API_KEY)) {
        Ok(a) => a,
        Err(AdmitError::UnknownKey) => {
            return Response::new(401, "Unauthorized", "missing or unknown API key\n");
        }
        Err(AdmitError::QuotaExhausted { retry_after_secs }) => {
            return Response::new(429, "Too Many Requests", "tenant quota exhausted\n")
                .with_retry_after(retry_after_secs);
        }
    };
    let Ok(source) = std::str::from_utf8(&request.body) else {
        return Response::new(400, "Bad Request", "body is not UTF-8\n");
    };
    let params = WireParams::from_headers(|name| request.header(name));
    let job = match job_for_with_cache(
        endpoint,
        source,
        &params,
        &inner.limits,
        inner.max_explore_iterations,
        inner.durable.as_deref().map(DurableStore::cache),
    ) {
        Ok(job) => job,
        Err(diag) => {
            return Response::new(
                422,
                "Unprocessable Entity",
                format!("specification rejected: {diag}\n"),
            );
        }
    };
    // Write-ahead: the acceptance is journalled (and fsynced) before the
    // job can enter the queue. If the journal cannot take the record,
    // the request is refused — no unjournalled work runs on a durable
    // server.
    let durable_id = match &inner.durable {
        None => None,
        Some(store) => {
            let journalled = store.accept(&DurableRequest {
                endpoint,
                params,
                tenant: admission.tenant,
                weight: admission.weight,
                source: source.to_owned(),
            });
            match journalled {
                Ok(id) => Some(id),
                Err(_) => {
                    return Response::new(
                        503,
                        "Service Unavailable",
                        "durability journal unavailable; retry later\n",
                    )
                    .with_retry_after(1);
                }
            }
        }
    };
    let submitted = match (&inner.durable, durable_id) {
        (Some(store), Some(id)) => {
            let hook_store = Arc::clone(store);
            inner.service.submit_observed(
                job,
                Some(inner.request_deadline),
                Some((admission.tenant, admission.weight)),
                move |outcome| hook_store.record_outcome(id, outcome),
            )
        }
        _ => inner.service.submit_for_tenant(
            job,
            Some(inner.request_deadline),
            admission.tenant,
            admission.weight,
        ),
    };
    let handle = match submitted {
        Ok(handle) => handle,
        Err(rejection) => {
            // Journalled but never queued: close the id out so a later
            // GET /jobs/{id} reports the cancellation, not a hang.
            if let (Some(store), Some(id)) = (&inner.durable, durable_id) {
                store.cancel(id);
            }
            return tag_job_id(response_for_rejection(&rejection), durable_id);
        }
    };
    // The job carries its own deadline; the extra grace covers queue
    // wait + scheduling so the service's typed TimedOut (not this
    // fallback) is the normal timeout path.
    let grace = inner.request_deadline + Duration::from_secs(5);
    let response = match handle.wait_timeout(grace) {
        Some(JobOutcome::Completed { output, .. }) => {
            Response::new(200, "OK", render_output(&output))
        }
        Some(JobOutcome::Failed { error, .. }) => response_for_error(&error),
        Some(JobOutcome::TimedOut) => Response::new(
            504,
            "Gateway Timeout",
            "job deadline expired before execution finished\n",
        ),
        Some(JobOutcome::Cancelled) => {
            Response::new(410, "Gone", "job cancelled by shutdown\n").closing()
        }
        // The wait itself gave up (or a future outcome variant). On a
        // durable server the job id stays valid: the client can poll
        // GET /jobs/{id} for the terminal state.
        _ => match durable_id {
            Some(id) => Response::new(
                202,
                "Accepted",
                format!("job {id} is still running; GET /jobs/{id} for the result\n"),
            ),
            None => Response::new(
                504,
                "Gateway Timeout",
                "gave up waiting for the job's terminal state\n",
            ),
        },
    };
    tag_job_id(response, durable_id)
}

/// `POST /designs`: imports `.slif` (text) or `.slifb` (binary)
/// interchange bytes — the encoding is sniffed from the body's leading
/// bytes. The body was already streamed in under the connection's read
/// budget and body cap (413 before a byte of an oversized body is
/// read); the strict parse runs as a [`Job::Import`] on the job service,
/// so format refusals are typed 422s and a parser bug cannot take down
/// the connection worker. On a durable server the decoded design is
/// filed as one content-addressed object under the key the strict read
/// computed, and the response carries that hash for
/// `GET /designs/{hash}`. No source ref is filed, so a POST never
/// answers a later `/v1` request whose body happens to be the same bytes.
fn post_design(inner: &Inner, request: &Request) -> Response {
    if inner.draining.load(Ordering::Relaxed) {
        return Response::new(410, "Gone", "server is draining; resubmit elsewhere\n").closing();
    }
    let admission = match inner.registry.admit(request.header(HDR_API_KEY)) {
        Ok(a) => a,
        Err(e) => return response_for_admit_error(e),
    };
    // The body is raw interchange bytes — no UTF-8 gate here; the
    // binary encoding is legitimately non-textual and the text parser
    // does its own validation.
    let job = Job::Import {
        bytes: request.body.clone(),
    };
    let submitted = inner.service.submit_for_tenant(
        job,
        Some(inner.request_deadline),
        admission.tenant,
        admission.weight,
    );
    let handle = match submitted {
        Ok(handle) => handle,
        Err(rejection) => return response_for_rejection(&rejection),
    };
    let grace = inner.request_deadline + Duration::from_secs(5);
    match handle.wait_timeout(grace) {
        Some(JobOutcome::Completed { output, .. }) => {
            let JobOutput::Imported { design, key, .. } = &output else {
                return Response::new(500, "Internal Server Error", "unexpected job output\n");
            };
            let mut body = format!("design {}\n{}", key.to_hex(), render_output(&output));
            let status = match &inner.durable {
                Some(store) => {
                    // A failed write is swallowed: the import already
                    // succeeded, and a later GET of the hash is a 404.
                    drop(store.cache().put_object(key, design));
                    201
                }
                None => {
                    body.push_str("(stateless server: design not persisted)\n");
                    200
                }
            };
            Response::new(status, if status == 201 { "Created" } else { "OK" }, body)
        }
        Some(JobOutcome::Failed { error, .. }) => response_for_error(&error),
        Some(JobOutcome::TimedOut) => Response::new(
            504,
            "Gateway Timeout",
            "import deadline expired before the parse finished\n",
        ),
        Some(JobOutcome::Cancelled) => {
            Response::new(410, "Gone", "job cancelled by shutdown\n").closing()
        }
        _ => Response::new(
            504,
            "Gateway Timeout",
            "gave up waiting for the import's terminal state\n",
        ),
    }
}

/// `GET /designs/{hash}`: exports a cached design as interchange bytes.
/// The `Accept` header negotiates the encoding: a value mentioning
/// `octet-stream` or `x-slifb` gets the binary framing
/// (`application/octet-stream`), anything else the text form. Like the
/// other content-addressed reads this needs no API key and stays up
/// during drain; a damaged cache object is a quarantined 404, never a
/// wrong answer (the cache checks every frame, the end key and the
/// SHA-256 against the hash, and strictly decodes on read). The stored
/// object is the design's `.slifb` file, so the binary reply is its
/// verified bytes as they are, and the text reply carries the hash as
/// its `check` key: neither encodes nor hashes the design again.
fn get_design(inner: &Inner, path: &str, request: &Request) -> Response {
    let Some(store) = &inner.durable else {
        return Response::new(
            404,
            "Not Found",
            "durable design store not enabled on this server\n",
        );
    };
    let Some(key) = path.strip_prefix("/designs/").and_then(parse_content_key) else {
        return Response::new(
            400,
            "Bad Request",
            "design hash must be 64 hex digits\n",
        );
    };
    let Some((design, object)) = store.cache().get_by_key(&key) else {
        return Response::new(404, "Not Found", format!("no such design: {}\n", key.to_hex()));
    };
    let binary = request
        .header("accept")
        .is_some_and(|v| v.contains("octet-stream") || v.contains("x-slifb"));
    if binary {
        return Response::new(200, "OK", object).with_content_type("application/octet-stream");
    }
    let mut text = Vec::new();
    match slif_formats::wirefmt::text::write_text(&design, None, &key, &mut text) {
        Ok(()) => Response::new(200, "OK", text),
        // A name the line grammar cannot carry; refuse without dying.
        Err(e) => Response::new(
            500,
            "Internal Server Error",
            format!("export failed: {e}\n"),
        ),
    }
}

/// Parses a 64-hex-digit content key from a path segment.
fn parse_content_key(s: &str) -> Option<slif_store::ContentKey> {
    if s.len() != 64 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let mut key = [0u8; 32];
    for (i, byte) in key.iter_mut().enumerate() {
        *byte = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).ok()?;
    }
    Some(slif_store::ContentKey(key))
}

/// `POST /sessions`: opens an incremental edit session over the body's
/// specification source. The opening compile goes through the job
/// service — admission, fair-share weighting, and the drain gate apply
/// exactly as for one-shot jobs — but the resulting session lives in
/// the server's registry, bounded by the per-tenant cap and idle TTL.
fn open_session(inner: &Inner, request: &Request) -> Response {
    if inner.draining.load(Ordering::Relaxed) {
        return Response::new(410, "Gone", "server is draining; resubmit elsewhere\n").closing();
    }
    let admission = match inner.registry.admit(request.header(HDR_API_KEY)) {
        Ok(a) => a,
        Err(e) => return response_for_admit_error(e),
    };
    // Cap gate before the compile: a session flood costs a map lookup.
    if let Err(SessionRefusal::CapExceeded { cap }) = inner.sessions.admit_new(admission.tenant) {
        return session_cap_response(cap);
    }
    let Ok(source) = std::str::from_utf8(&request.body) else {
        return Response::new(400, "Bad Request", "body is not UTF-8\n");
    };
    let job = Job::EditSession {
        source: source.to_owned(),
    };
    let submitted = inner.service.submit_for_tenant(
        job,
        Some(inner.request_deadline),
        admission.tenant,
        admission.weight,
    );
    let handle = match submitted {
        Ok(handle) => handle,
        Err(rejection) => return response_for_rejection(&rejection),
    };
    let grace = inner.request_deadline + Duration::from_secs(5);
    match handle.wait_timeout(grace) {
        Some(JobOutcome::Completed {
            output: JobOutput::Session { session, update },
            ..
        }) => match inner.sessions.insert(admission.tenant, session, &update) {
            Ok(id) => Response::new(201, "Created", render_update(id, &update)),
            Err(SessionRefusal::CapExceeded { cap }) => session_cap_response(cap),
            // insert only refuses on the cap; refuse conservatively on
            // a future variant rather than panic.
            Err(_) => Response::new(503, "Service Unavailable", "session refused\n"),
        },
        Some(JobOutcome::Failed { error, .. }) => response_for_error(&error),
        Some(JobOutcome::TimedOut) => Response::new(
            504,
            "Gateway Timeout",
            "session open deadline expired\n",
        ),
        Some(JobOutcome::Cancelled) => {
            Response::new(410, "Gone", "job cancelled by shutdown\n").closing()
        }
        _ => Response::new(
            504,
            "Gateway Timeout",
            "gave up waiting for the session to open\n",
        ),
    }
}

/// Routes `/sessions/{id}` (GET status) and `/sessions/{id}/edit`
/// (POST one edit).
fn session_request(inner: &Inner, method: &str, path: &str, request: &Request) -> Response {
    let rest = &path["/sessions/".len()..];
    let (id_part, action) = match rest.split_once('/') {
        None => (rest, None),
        Some((id, action)) => (id, Some(action)),
    };
    let Ok(id) = id_part.parse::<u64>() else {
        return Response::new(400, "Bad Request", "session id must be a decimal integer\n");
    };
    match (method, action) {
        ("GET", None) => session_status(inner, id, request),
        (_, None) => method_not_allowed("GET"),
        ("POST", Some("edit")) => session_edit(inner, id, request),
        (_, Some("edit")) => method_not_allowed("POST"),
        _ => Response::new(404, "Not Found", format!("no such endpoint: {path}\n")),
    }
}

/// `POST /sessions/{id}/edit`: applies one splice — replace bytes
/// `[x-slif-edit-start, x-slif-edit-end)` of the session's source with
/// the request body — and answers with what the recompute did. The edit
/// runs inline on the connection worker: the incremental path is
/// cheaper than a queue round-trip.
fn session_edit(inner: &Inner, id: u64, request: &Request) -> Response {
    if inner.draining.load(Ordering::Relaxed) {
        return Response::new(410, "Gone", "server is draining; resubmit elsewhere\n").closing();
    }
    let admission = match inner.registry.admit(request.header(HDR_API_KEY)) {
        Ok(a) => a,
        Err(e) => return response_for_admit_error(e),
    };
    let (Some(start), Some(end)) = (
        request.header(HDR_EDIT_START).and_then(|v| v.parse::<usize>().ok()),
        request.header(HDR_EDIT_END).and_then(|v| v.parse::<usize>().ok()),
    ) else {
        return Response::new(
            400,
            "Bad Request",
            format!("{HDR_EDIT_START} and {HDR_EDIT_END} must be byte offsets\n"),
        );
    };
    let Ok(replacement) = std::str::from_utf8(&request.body) else {
        return Response::new(400, "Bad Request", "body is not UTF-8\n");
    };
    let delta = EditDelta::new(start, end, replacement);
    match inner.sessions.edit(id, admission.tenant, &delta) {
        Ok(update) => Response::new(200, "OK", render_update(id, &update)),
        Err(refusal) => session_refusal_response(id, &refusal),
    }
}

/// `GET /sessions/{id}`: the session's current state — revision,
/// cleanliness, diagnostics, and the full estimate and lint reports
/// (stale-but-labelled while the text is broken). Polling refreshes the
/// idle clock. Stays up during drain, like the other reads.
fn session_status(inner: &Inner, id: u64, request: &Request) -> Response {
    let admission = match inner.registry.admit(request.header(HDR_API_KEY)) {
        Ok(a) => a,
        Err(e) => return response_for_admit_error(e),
    };
    let handle = match inner.sessions.get(id, admission.tenant) {
        Ok(handle) => handle,
        Err(refusal) => return session_refusal_response(id, &refusal),
    };
    let session = handle.lock();
    let mut body = format!(
        "session {id}: revision {}, {}, {} full rebuilds\n",
        session.revision(),
        if session.is_clean() { "clean" } else { "broken" },
        session.full_rebuilds(),
    );
    for d in session.diagnostics() {
        body.push_str(&format!("diagnostic: {d}\n"));
    }
    if let Some(report) = session.estimate() {
        if !session.is_clean() {
            body.push_str("(reports below are from the last clean revision)\n");
        }
        body.push_str(&format!("\n{report}"));
    }
    if let Some(report) = session.analysis() {
        body.push_str(&format!("\n{report}"));
    }
    Response::new(200, "OK", body)
}

fn response_for_admit_error(e: AdmitError) -> Response {
    match e {
        AdmitError::UnknownKey => {
            Response::new(401, "Unauthorized", "missing or unknown API key\n")
        }
        AdmitError::QuotaExhausted { retry_after_secs } => {
            Response::new(429, "Too Many Requests", "tenant quota exhausted\n")
                .with_retry_after(retry_after_secs)
        }
    }
}

fn session_cap_response(cap: usize) -> Response {
    Response::new(
        409,
        "Conflict",
        format!("session cap reached ({cap} per tenant); close or let idle sessions expire\n"),
    )
}

fn session_refusal_response(id: u64, refusal: &SessionRefusal) -> Response {
    match refusal {
        SessionRefusal::NotFound => {
            Response::new(404, "Not Found", format!("no such session: {id}\n"))
        }
        SessionRefusal::BadDelta(e) => Response::new(
            422,
            "Unprocessable Entity",
            format!("edit rejected: {e}\n"),
        ),
        SessionRefusal::CapExceeded { cap } => session_cap_response(*cap),
    }
}

fn tag_job_id(response: Response, id: Option<u64>) -> Response {
    match id {
        Some(id) => response.with_job_id(id),
        None => response,
    }
}

/// Serves `GET /jobs/{id}` from the durable store: a finished job
/// replays its journalled status and body (bit-identical across
/// restarts), a pending one answers 202, a cancelled one 410.
fn job_status(inner: &Inner, path: &str) -> Response {
    let Some(store) = &inner.durable else {
        return Response::new(
            404,
            "Not Found",
            "durable job store not enabled on this server\n",
        );
    };
    let Some(id) = path.strip_prefix("/jobs/").and_then(|s| s.parse::<u64>().ok()) else {
        return Response::new(400, "Bad Request", "job id must be a decimal integer\n");
    };
    match store.lookup(id) {
        None => Response::new(404, "Not Found", format!("no such job: {id}\n")),
        Some(JobState::Pending) => Response::new(
            202,
            "Accepted",
            format!("job {id} is still running; poll again\n"),
        )
        .with_job_id(id),
        Some(JobState::Cancelled) => {
            Response::new(410, "Gone", format!("job {id} was cancelled\n")).with_job_id(id)
        }
        Some(JobState::Done { status, body }) => {
            Response::new(status, reason_for(status), body).with_job_id(id)
        }
    }
}

/// The reason phrase for a journalled status (the stored record carries
/// only the code).
fn reason_for(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        410 => "Gone",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Done",
    }
}

fn render_metrics(inner: &Inner) -> String {
    use std::fmt::Write as _;
    let h = inner.service.health();
    let mut out = String::with_capacity(1024);
    let mut w = |name: &str, v: u64| {
        let _ = writeln!(out, "slif_{name} {v}");
    };
    w("requests_total", inner.stats.requests.load(Ordering::Relaxed));
    w(
        "connections_shed_total",
        inner.stats.shed_conns.load(Ordering::Relaxed),
    );
    w("queue_depth", h.queue_depth as u64);
    w("in_flight", h.in_flight);
    w("workers_alive", h.workers_alive as u64);
    w("jobs_submitted_total", h.submitted);
    w("jobs_completed_total", h.completed);
    w("jobs_failed_total", h.failed);
    w("jobs_shed_total", h.shed);
    w("jobs_retried_total", h.retried);
    w("jobs_timed_out_total", h.timed_out);
    w("jobs_cancelled_total", h.cancelled);
    w("worker_panics_total", h.worker_panics);
    w("degraded_runs_total", h.degraded_runs);
    let s = inner.sessions.stats();
    w("session_created_total", s.created);
    w("session_edits_total", s.edits);
    w("session_full_rebuilds_total", s.full_rebuilds);
    w("session_evicted_total", s.evicted);
    w("session_active", s.active);
    w("latency_p50_us", h.latency.p50_micros().unwrap_or(0));
    w("latency_p90_us", h.latency.p90_micros().unwrap_or(0));
    w("latency_p99_us", h.latency.p99_micros().unwrap_or(0));
    if let Some(store) = &inner.durable {
        let c = store.cache_stats();
        w("store_cache_hits_total", c.hits);
        w("store_cache_misses_total", c.misses);
        w("store_cache_quarantined_total", c.quarantined);
        w("store_cache_puts_total", c.puts);
        let sh = store.health();
        w("store_journal_records_replayed", sh.records_replayed);
        w("store_journal_pending_recovered", sh.pending_recovered);
        w("store_journal_truncated", u64::from(sh.truncated));
        w(
            "store_journal_header_quarantined",
            u64::from(sh.header_quarantined),
        );
        w("store_journal_quarantined_bytes", sh.quarantined_bytes);
        w("store_journal_append_failures_total", sh.append_failures);
    }
    for (status, count) in crate::lock(&inner.stats.statuses).iter() {
        let _ = writeln!(out, "slif_http_responses_total{{code=\"{status}\"}} {count}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::read_response;
    use std::io::Write as _;

    fn tiny_server(tenants: Vec<TenantSpec>) -> Server {
        Server::bind(
            ServerConfig::new()
                .with_conn_workers(2)
                .with_io_timeouts(Duration::from_millis(200), Duration::from_millis(500))
                .with_runtime(ServiceConfig::new().with_workers(2))
                .with_tenant_list(tenants),
        )
        .unwrap()
    }

    impl ServerConfig {
        fn with_tenant_list(mut self, tenants: Vec<TenantSpec>) -> Self {
            self.tenants = tenants;
            self
        }
    }

    fn roundtrip(addr: SocketAddr, raw: &[u8]) -> (u16, Vec<u8>) {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(raw).unwrap();
        let (status, _, body) = read_response(&mut s).unwrap();
        (status, body)
    }

    const GOOD_SPEC: &str = "system T;\nvar x : int<8>;\nprocess Main { x = x + 1; }\n";

    fn post(path: &str, body: &str) -> Vec<u8> {
        format!(
            "POST {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    #[test]
    fn serves_health_metrics_and_a_parse() {
        let server = tiny_server(Vec::new());
        let addr = server.addr();
        let (status, body) = roundtrip(addr, b"GET /health HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        assert!(String::from_utf8_lossy(&body).contains("workers"));
        let (status, body) = roundtrip(addr, &post("/v1/parse", GOOD_SPEC));
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        assert!(String::from_utf8_lossy(&body).contains("parsed: 1 behaviors"));
        let (status, body) = roundtrip(addr, b"GET /metrics HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        let text = String::from_utf8_lossy(&body).into_owned();
        assert!(text.contains("slif_requests_total"), "{text}");
        assert!(text.contains("slif_latency_p99_us"), "{text}");
        server.shutdown();
    }

    #[test]
    fn refuses_unknown_paths_and_methods() {
        let server = tiny_server(Vec::new());
        let addr = server.addr();
        assert_eq!(roundtrip(addr, &post("/v1/nope", "x")).0, 404);
        assert_eq!(
            roundtrip(addr, b"GET /v1/parse HTTP/1.1\r\n\r\n").0,
            405
        );
        assert_eq!(
            roundtrip(addr, b"DELETE /health HTTP/1.1\r\n\r\n").0,
            405
        );
        server.shutdown();
    }

    #[test]
    fn drain_gates_jobs_but_not_observability() {
        let server = tiny_server(Vec::new());
        let addr = server.addr();
        server.begin_drain();
        assert_eq!(roundtrip(addr, &post("/v1/parse", GOOD_SPEC)).0, 410);
        assert_eq!(roundtrip(addr, b"GET /health HTTP/1.1\r\n\r\n").0, 200);
        server.shutdown();
    }

    #[test]
    fn tenancy_rejects_bad_keys_and_quota_floods() {
        let server = tiny_server(vec![
            TenantSpec::new("solid", "ks").with_weight(2),
            TenantSpec::new("capped", "kc").with_quota(0.1, 1.0),
        ]);
        let addr = server.addr();
        // No key and wrong key → 401.
        assert_eq!(roundtrip(addr, &post("/v1/parse", GOOD_SPEC)).0, 401);
        let mut with_key = format!(
            "POST /v1/parse HTTP/1.1\r\nx-api-key: bogus\r\ncontent-length: {}\r\n\r\n{GOOD_SPEC}",
            GOOD_SPEC.len()
        )
        .into_bytes();
        assert_eq!(roundtrip(addr, &with_key).0, 401);
        // Good key → 200.
        with_key = format!(
            "POST /v1/parse HTTP/1.1\r\nx-api-key: ks\r\ncontent-length: {}\r\n\r\n{GOOD_SPEC}",
            GOOD_SPEC.len()
        )
        .into_bytes();
        assert_eq!(roundtrip(addr, &with_key).0, 200);
        // Capped tenant: first passes, second 429s with Retry-After.
        let capped = format!(
            "POST /v1/parse HTTP/1.1\r\nx-api-key: kc\r\ncontent-length: {}\r\n\r\n{GOOD_SPEC}",
            GOOD_SPEC.len()
        )
        .into_bytes();
        assert_eq!(roundtrip(addr, &capped).0, 200);
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(&capped).unwrap();
        let (status, headers, _) = read_response(&mut s).unwrap();
        assert_eq!(status, 429);
        assert!(
            headers.iter().any(|(n, _)| n == "retry-after"),
            "{headers:?}"
        );
        server.shutdown();
    }

    #[test]
    fn bad_spec_is_422_and_panic_is_isolated() {
        let server = tiny_server(Vec::new());
        let addr = server.addr();
        let (status, body) = roundtrip(addr, &post("/v1/estimate", "system ; process {"));
        assert_eq!(status, 422, "{}", String::from_utf8_lossy(&body));
        // The server survives to serve the next request.
        assert_eq!(roundtrip(addr, &post("/v1/parse", GOOD_SPEC)).0, 200);
        server.shutdown();
    }

    /// Two requests sent back-to-back in one burst (HTTP/1.1
    /// pipelining): the second must not be truncated by bytes the
    /// server over-read while framing the first.
    #[test]
    fn pipelined_requests_both_get_responses() {
        let server = tiny_server(Vec::new());
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut burst = post("/v1/parse", GOOD_SPEC);
        burst.extend_from_slice(&post("/v1/parse", GOOD_SPEC));
        s.write_all(&burst).unwrap();
        for _ in 0..2 {
            let (status, _, body) = read_response(&mut s).unwrap();
            assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        }
        server.shutdown();
    }

    fn durable_server(dir: &std::path::Path) -> Server {
        Server::bind(
            ServerConfig::new()
                .with_conn_workers(2)
                .with_io_timeouts(Duration::from_millis(200), Duration::from_millis(500))
                .with_runtime(ServiceConfig::new().with_workers(2))
                .with_store_dir(dir),
        )
        .unwrap()
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, Vec<(String, String)>, Vec<u8>) {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes())
            .unwrap();
        read_response(&mut s).unwrap()
    }

    fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    #[test]
    fn durable_jobs_survive_a_restart_with_identical_bodies() {
        let dir = std::env::temp_dir().join(format!("slif-serve-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = durable_server(&dir);
        let addr = server.addr();
        // Submit synchronously; the response carries the durable id.
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(&post("/v1/estimate", GOOD_SPEC)).unwrap();
        let (status, headers, body) = read_response(&mut s).unwrap();
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        let id: u64 = header(&headers, "x-slif-job-id").unwrap().parse().unwrap();
        // Retrieval before the restart...
        let (status, _, stored) = get(addr, &format!("/jobs/{id}"));
        assert_eq!(status, 200);
        assert_eq!(stored, body);
        // ...and after: a brand-new server over the same store replays
        // the journalled result bit for bit.
        server.shutdown();
        let server = durable_server(&dir);
        let (status, headers2, replayed) = get(server.addr(), &format!("/jobs/{id}"));
        assert_eq!(status, 200);
        assert_eq!(replayed, body, "restart changed the stored body");
        assert_eq!(header(&headers2, "x-slif-job-id"), Some(&*id.to_string()));
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn repeat_specs_hit_the_design_cache() {
        let dir = std::env::temp_dir().join(format!("slif-serve-cachehit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = durable_server(&dir);
        let addr = server.addr();
        let (first, first_body) = roundtrip(addr, &post("/v1/analyze", GOOD_SPEC));
        let (second, second_body) = roundtrip(addr, &post("/v1/analyze", GOOD_SPEC));
        assert_eq!((first, second), (200, 200));
        assert_eq!(first_body, second_body, "warm response diverged from cold");
        let (_, _, metrics) = get(addr, "/metrics");
        let text = String::from_utf8_lossy(&metrics).into_owned();
        assert!(text.contains("slif_store_cache_puts_total 1"), "{text}");
        let hits: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix("slif_store_cache_hits_total "))
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert!(hits >= 1, "{text}");
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn jobs_endpoint_refuses_bad_ids_and_unknown_jobs() {
        let dir = std::env::temp_dir().join(format!("slif-serve-jobs404-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = durable_server(&dir);
        let addr = server.addr();
        assert_eq!(get(addr, "/jobs/not-a-number").0, 400);
        assert_eq!(get(addr, "/jobs/999").0, 404);
        let (status, _, _) = {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            s.write_all(b"DELETE /jobs/1 HTTP/1.1\r\n\r\n").unwrap();
            read_response(&mut s).unwrap()
        };
        assert_eq!(status, 405);
        server.shutdown();
        // A stateless server has no /jobs surface at all.
        let server = tiny_server(Vec::new());
        assert_eq!(get(server.addr(), "/jobs/0").0, 404);
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    fn post_edit(id: u64, start: usize, end: usize, body: &str) -> Vec<u8> {
        format!(
            "POST /sessions/{id}/edit HTTP/1.1\r\nx-slif-edit-start: {start}\r\nx-slif-edit-end: {end}\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    #[test]
    fn edit_sessions_open_edit_and_report_over_the_wire() {
        let server = tiny_server(Vec::new());
        let addr = server.addr();
        // Open: 201 with the session id and a clean recompiled update.
        let (status, body) = roundtrip(addr, &post("/sessions", GOOD_SPEC));
        let text = String::from_utf8_lossy(&body).into_owned();
        assert_eq!(status, 201, "{text}");
        assert!(text.contains("\"session\":1"), "{text}");
        assert!(text.contains("\"clean\":true"), "{text}");
        assert!(text.contains("\"tier\":\"recompiled\""), "{text}");
        // A comment append is the cheap tier.
        let end = GOOD_SPEC.len();
        let (status, body) = roundtrip(addr, &post_edit(1, end, end, "// note\n"));
        let text = String::from_utf8_lossy(&body).into_owned();
        assert_eq!(status, 200, "{text}");
        assert!(text.contains("\"revision\":1"), "{text}");
        assert!(text.contains("\"tier\":\"patched\""), "{text}");
        // A breaking edit defers; the status page labels stale reports.
        let (status, body) = roundtrip(addr, &post_edit(1, 0, 0, "{"));
        let text = String::from_utf8_lossy(&body).into_owned();
        assert_eq!(status, 200, "{text}");
        assert!(text.contains("\"clean\":false"), "{text}");
        assert!(text.contains("\"tier\":\"deferred\""), "{text}");
        let (status, _, body) = get(addr, "/sessions/1");
        let text = String::from_utf8_lossy(&body).into_owned();
        assert_eq!(status, 200, "{text}");
        assert!(text.contains("revision 2, broken"), "{text}");
        assert!(text.contains("last clean revision"), "{text}");
        // Fix it back and the status page goes clean again.
        let (status, _) = roundtrip(addr, &post_edit(1, 0, 1, ""));
        assert_eq!(status, 200);
        let (_, _, body) = get(addr, "/sessions/1");
        let text = String::from_utf8_lossy(&body).into_owned();
        assert!(text.contains("revision 3, clean"), "{text}");
        // Metrics carry the session counters.
        let (_, _, metrics) = get(addr, "/metrics");
        let text = String::from_utf8_lossy(&metrics).into_owned();
        assert!(text.contains("slif_session_created_total 1"), "{text}");
        assert!(text.contains("slif_session_edits_total 3"), "{text}");
        assert!(text.contains("slif_session_active 1"), "{text}");
        server.shutdown();
    }

    #[test]
    fn session_refusals_are_distinct_statuses() {
        let server = Server::bind(
            ServerConfig::new()
                .with_conn_workers(2)
                .with_io_timeouts(Duration::from_millis(200), Duration::from_millis(500))
                .with_runtime(ServiceConfig::new().with_workers(2))
                .with_session_limits(SessionLimits {
                    max_per_tenant: 1,
                    idle_ttl: Duration::from_secs(300),
                }),
        )
        .unwrap();
        let addr = server.addr();
        assert_eq!(roundtrip(addr, &post("/sessions", GOOD_SPEC)).0, 201);
        // At the cap: 409, not a compile.
        assert_eq!(roundtrip(addr, &post("/sessions", GOOD_SPEC)).0, 409);
        // Unknown session: 404. Bad id: 400. Bad range header: 400.
        assert_eq!(roundtrip(addr, &post_edit(99, 0, 0, "x")).0, 404);
        assert_eq!(get(addr, "/sessions/not-a-number").0, 400);
        let raw = b"POST /sessions/1/edit HTTP/1.1\r\ncontent-length: 1\r\n\r\nx";
        assert_eq!(roundtrip(addr, raw).0, 400);
        // Out-of-bounds delta: 422, and the session survives it.
        assert_eq!(roundtrip(addr, &post_edit(1, 0, 1_000_000, "")).0, 422);
        assert_eq!(get(addr, "/sessions/1").0, 200);
        // Wrong method on both session paths.
        assert_eq!(
            roundtrip(addr, b"DELETE /sessions/1 HTTP/1.1\r\n\r\n").0,
            405
        );
        assert_eq!(roundtrip(addr, b"GET /sessions HTTP/1.1\r\n\r\n").0, 405);
        server.shutdown();
    }

    #[test]
    fn sessions_respect_tenancy_and_drain() {
        let server = tiny_server(vec![
            TenantSpec::new("alpha", "ka"),
            TenantSpec::new("beta", "kb"),
        ]);
        let addr = server.addr();
        let open_as = |key: &str| {
            format!(
                "POST /sessions HTTP/1.1\r\nx-api-key: {key}\r\ncontent-length: {}\r\n\r\n{GOOD_SPEC}",
                GOOD_SPEC.len()
            )
            .into_bytes()
        };
        assert_eq!(roundtrip(addr, &post("/sessions", GOOD_SPEC)).0, 401);
        assert_eq!(roundtrip(addr, &open_as("ka")).0, 201);
        // Tenant isolation: beta cannot see alpha's session 1.
        let status_as = |key: &str, id: u64| {
            format!("GET /sessions/{id} HTTP/1.1\r\nx-api-key: {key}\r\n\r\n").into_bytes()
        };
        assert_eq!(roundtrip(addr, &status_as("kb", 1)).0, 404);
        assert_eq!(roundtrip(addr, &status_as("ka", 1)).0, 200);
        // Drain: no new sessions, no edits — but status stays readable.
        server.begin_drain();
        assert_eq!(roundtrip(addr, &open_as("ka")).0, 410);
        let edit = b"POST /sessions/1/edit HTTP/1.1\r\nx-api-key: ka\r\nx-slif-edit-start: 0\r\nx-slif-edit-end: 0\r\ncontent-length: 0\r\n\r\n";
        assert_eq!(roundtrip(addr, edit).0, 410);
        assert_eq!(roundtrip(addr, &status_as("ka", 1)).0, 200);
        server.shutdown();
    }

    fn sample_wire_bytes(encoding: slif_formats::Encoding) -> (slif_core::Design, Vec<u8>) {
        use slif_core::{AccessKind, Design, NodeKind};
        let mut d = Design::new("wire-test");
        let main = d.graph_mut().add_node("Main", NodeKind::process());
        let v = d.graph_mut().add_node("v", NodeKind::scalar(8));
        d.graph_mut()
            .add_channel(main, v.into(), AccessKind::Write)
            .unwrap();
        let bytes = slif_formats::write_bytes(&d, None, encoding).unwrap();
        (d, bytes)
    }

    fn post_raw(path: &str, body: &[u8], extra: &str) -> Vec<u8> {
        let mut raw = format!(
            "POST {path} HTTP/1.1\r\n{extra}content-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        raw.extend_from_slice(body);
        raw
    }

    #[test]
    fn design_import_export_round_trips_over_the_wire() {
        let dir = std::env::temp_dir().join(format!("slif-serve-designs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = durable_server(&dir);
        let addr = server.addr();
        for encoding in [slif_formats::Encoding::Text, slif_formats::Encoding::Binary] {
            let (design, bytes) = sample_wire_bytes(encoding);
            let (status, body) = roundtrip(addr, &post_raw("/designs", &bytes, ""));
            let text = String::from_utf8_lossy(&body).into_owned();
            assert_eq!(status, 201, "{text}");
            assert!(text.contains("verified"), "{text}");
            let hash = text
                .lines()
                .find_map(|l| l.strip_prefix("design "))
                .unwrap()
                .to_owned();
            assert_eq!(hash.len(), 64, "{text}");
            // Text export (default Accept) round-trips structurally.
            let (status, _, exported) = get(addr, &format!("/designs/{hash}"));
            assert_eq!(status, 200);
            let out = slif_formats::read_bytes(
                &exported,
                slif_formats::Strictness::Strict,
                &slif_formats::FormatLimits::default(),
            )
            .unwrap();
            assert_eq!(out.design, design);
            assert!(out.verified);
            // Binary export via content negotiation.
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            s.write_all(
                format!(
                    "GET /designs/{hash} HTTP/1.1\r\naccept: application/octet-stream\r\n\r\n"
                )
                .as_bytes(),
            )
            .unwrap();
            let (status, headers, exported) = read_response(&mut s).unwrap();
            assert_eq!(status, 200);
            assert_eq!(
                header(&headers, "content-type"),
                Some("application/octet-stream")
            );
            assert_eq!(
                slif_formats::detect_encoding(&exported),
                Some(slif_formats::Encoding::Binary)
            );
            let out = slif_formats::read_bytes(
                &exported,
                slif_formats::Strictness::Strict,
                &slif_formats::FormatLimits::default(),
            )
            .unwrap();
            assert_eq!(out.design, design);
        }
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn stored_designs_are_slifb_files_and_gets_serve_them_as_they_are() {
        let dir =
            std::env::temp_dir().join(format!("slif-serve-designs-slifb-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::bind(
            ServerConfig::new()
                .with_conn_workers(2)
                .with_io_timeouts(Duration::from_secs(5), Duration::from_secs(5))
                .with_max_request_bytes(4 << 20)
                .with_runtime(ServiceConfig::new().with_workers(2))
                .with_store_dir(&dir),
        )
        .unwrap();
        let addr = server.addr();
        let get_binary = |path: &str| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            s.write_all(
                format!("GET {path} HTTP/1.1\r\naccept: application/octet-stream\r\n\r\n")
                    .as_bytes(),
            )
            .unwrap();
            read_response(&mut s).unwrap()
        };
        // The big design spans several node frames.
        let (big, _) = slif_core::gen::DesignGenerator::new(8)
            .behaviors(1200)
            .variables(400)
            .build();
        assert!(big.graph().node_count() > 1024);
        let (small, _) = sample_wire_bytes(slif_formats::Encoding::Text);
        for design in [small, big] {
            let stored =
                slif_formats::write_bytes(&design, None, slif_formats::Encoding::Binary).unwrap();
            let text =
                slif_formats::write_bytes(&design, None, slif_formats::Encoding::Text).unwrap();
            for body in [&text, &stored] {
                let (status, reply) = roundtrip(addr, &post_raw("/designs", body, ""));
                let reply = String::from_utf8_lossy(&reply).into_owned();
                assert_eq!(status, 201, "{reply}");
                let hash = reply
                    .lines()
                    .find_map(|l| l.strip_prefix("design "))
                    .unwrap();
                let object = std::fs::read(dir.join("cache").join("objects").join(hash)).unwrap();
                assert!(
                    object == stored,
                    "the object is not the design's .slifb file"
                );
                let out = slif_formats::read_bytes(
                    &object,
                    slif_formats::Strictness::Strict,
                    &slif_formats::FormatLimits::default(),
                )
                .unwrap();
                assert!(out.verified);
                assert_eq!(out.key.to_hex(), hash);
                let path = format!("/designs/{hash}");
                let (status, _, binary) = get_binary(&path);
                assert_eq!(status, 200);
                assert!(binary == object, "the binary GET is not the stored object");
                let (status, _, exported) = get(addr, &path);
                assert_eq!(status, 200);
                assert!(
                    exported == text,
                    "the text GET is not the design's .slif text"
                );
            }
        }
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The `.slif` text of the design the `/v1` pipeline compiles from
    /// `GOOD_SPEC`: allocated proc+ASIC, so a source-cache hit on these
    /// bytes would pass for a compiled spec.
    fn allocated_wire_text() -> Vec<u8> {
        let spec = slif_speclang::parse(GOOD_SPEC).unwrap();
        let rs = slif_speclang::resolve(spec).unwrap();
        let mut design = slif_frontend::build_design(
            &rs,
            &slif_techlib::TechnologyLibrary::proc_asic(),
        );
        slif_frontend::try_allocate_proc_asic(&mut design).unwrap();
        slif_formats::write_bytes(&design, None, slif_formats::Encoding::Text).unwrap()
    }

    #[test]
    fn posting_a_design_does_not_answer_v1_requests_for_its_bytes() {
        let dir = std::env::temp_dir().join(format!("slif-serve-designs-v1-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = durable_server(&dir);
        let addr = server.addr();
        let bytes = allocated_wire_text();
        let estimate = post_raw("/v1/estimate", &bytes, "");
        let (cold, cold_body) = roundtrip(addr, &estimate);
        assert_eq!(cold, 422, "{}", String::from_utf8_lossy(&cold_body));
        let (status, body) = roundtrip(addr, &post_raw("/designs", &bytes, ""));
        assert_eq!(status, 201, "{}", String::from_utf8_lossy(&body));
        let (warm, warm_body) = roundtrip(addr, &estimate);
        assert_eq!(
            (warm, String::from_utf8_lossy(&warm_body)),
            (cold, String::from_utf8_lossy(&cold_body)),
            "a stored design answered a /v1 request"
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn posting_a_design_files_one_object_and_nothing_else() {
        fn files_under(root: &std::path::Path, dir: &std::path::Path, out: &mut Vec<PathBuf>) {
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    files_under(root, &path, out);
                } else {
                    out.push(path.strip_prefix(root).unwrap().to_path_buf());
                }
            }
        }
        let dir = std::env::temp_dir().join(format!("slif-serve-designs-one-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = durable_server(&dir);
        let addr = server.addr();
        let (_, bytes) = sample_wire_bytes(slif_formats::Encoding::Binary);
        let (status, body) = roundtrip(addr, &post_raw("/designs", &bytes, ""));
        let text = String::from_utf8_lossy(&body).into_owned();
        assert_eq!(status, 201, "{text}");
        let hash = text.lines().find_map(|l| l.strip_prefix("design ")).unwrap();
        let (_, _, metrics) = get(addr, "/metrics");
        let metrics = String::from_utf8_lossy(&metrics).into_owned();
        assert!(metrics.contains("slif_store_cache_puts_total 1"), "{metrics}");
        server.shutdown();

        let cache = dir.join("cache");
        let mut files = Vec::new();
        files_under(&cache, &cache, &mut files);
        assert_eq!(files, vec![PathBuf::from("objects").join(hash)]);
        assert!(!cache.join("compiled").exists());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn design_routes_refuse_hostile_inputs_with_distinct_statuses() {
        let dir = std::env::temp_dir().join(format!("slif-serve-designs-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = durable_server(&dir);
        let addr = server.addr();
        // Garbage bytes: typed 422, not a panic or a hang.
        let (status, body) = roundtrip(addr, &post_raw("/designs", b"not slif at all", ""));
        assert_eq!(status, 422, "{}", String::from_utf8_lossy(&body));
        // A corrupted text body: strict import refuses.
        let (_, bytes) = sample_wire_bytes(slif_formats::Encoding::Text);
        let mut torn = bytes.clone();
        torn.truncate(bytes.len() / 2);
        let (status, _) = roundtrip(addr, &post_raw("/designs", &torn, ""));
        assert_eq!(status, 422);
        // A bit-flipped binary body: checksum catches it, 422.
        let (_, mut flipped) = sample_wire_bytes(slif_formats::Encoding::Binary);
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        let (status, _) = roundtrip(addr, &post_raw("/designs", &flipped, ""));
        assert_eq!(status, 422);
        // Bad hash shapes: 400. Unknown hash: 404. Wrong methods: 405.
        assert_eq!(get(addr, "/designs/xyz").0, 400);
        assert_eq!(get(addr, &format!("/designs/{}", "0".repeat(64))).0, 404);
        assert_eq!(roundtrip(addr, b"DELETE /designs HTTP/1.1\r\n\r\n").0, 405);
        assert_eq!(
            roundtrip(
                addr,
                format!("PUT /designs/{} HTTP/1.1\r\n\r\n", "0".repeat(64)).as_bytes()
            )
            .0,
            405
        );
        // Oversized body: refused by declaration (413), body never read.
        let huge = format!(
            "POST /designs HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            1 << 30
        );
        assert_eq!(roundtrip(addr, huge.as_bytes()).0, 413);
        server.shutdown();
        // Stateless server: import still parses (200), export has no store.
        let server = tiny_server(Vec::new());
        let addr = server.addr();
        let (_, bytes) = sample_wire_bytes(slif_formats::Encoding::Text);
        let (status, body) = roundtrip(addr, &post_raw("/designs", &bytes, ""));
        let text = String::from_utf8_lossy(&body).into_owned();
        assert_eq!(status, 200, "{text}");
        assert!(text.contains("not persisted"), "{text}");
        assert_eq!(get(addr, &format!("/designs/{}", "0".repeat(64))).0, 404);
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn design_import_respects_drain_and_tenancy() {
        let server = tiny_server(vec![TenantSpec::new("alpha", "ka")]);
        let addr = server.addr();
        let (_, bytes) = sample_wire_bytes(slif_formats::Encoding::Text);
        assert_eq!(roundtrip(addr, &post_raw("/designs", &bytes, "")).0, 401);
        assert_eq!(
            roundtrip(addr, &post_raw("/designs", &bytes, "x-api-key: ka\r\n")).0,
            200
        );
        server.begin_drain();
        assert_eq!(
            roundtrip(addr, &post_raw("/designs", &bytes, "x-api-key: ka\r\n")).0,
            410
        );
        server.shutdown();
    }

    #[test]
    fn keep_alive_carries_multiple_requests() {
        let server = tiny_server(Vec::new());
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        for _ in 0..3 {
            s.write_all(&post("/v1/parse", GOOD_SPEC)).unwrap();
            let (status, _, _) = read_response(&mut s).unwrap();
            assert_eq!(status, 200);
        }
        server.shutdown();
    }
}
