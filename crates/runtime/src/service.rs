//! The fault-isolated concurrent job service.
//!
//! [`JobService::start`] spawns a pool of worker threads around a
//! bounded queue and a watchdog. The failure-containment story, layer by
//! layer:
//!
//! * **Admission control** — oversized inputs and submissions to a full
//!   queue are shed synchronously with a typed [`Rejected`]; nothing
//!   unbounded ever enters the system.
//! * **Panic isolation** — each job runs under `catch_unwind`; a panic
//!   is converted into a retry (with exponential backoff and seeded
//!   jitter) and, once the attempt budget is spent, a typed
//!   [`JobError::Panicked`] outcome. A worker that has caught too many
//!   panics is quarantined (retired), and the watchdog respawns a fresh
//!   thread in its place — panics never abort the process and poisoned
//!   worker state never serves another job.
//! * **Deadlines** — a job's deadline is armed at admission. Expired
//!   before a worker picks it up: resolved [`JobOutcome::TimedOut`]
//!   without running. Running exploration jobs get the deadline pushed
//!   into their [`Supervisor`] (and a [`CancelToken`] the watchdog
//!   cancels if they overstay), so they stop early with best-so-far
//!   results rather than being killed.
//! * **Circuit breaker** — consecutive estimator failures trip the
//!   breaker; while open, estimation jobs run with
//!   [`EstimatorConfig::degraded`](slif_estimate::EstimatorConfig::degraded)
//!   (approximate, flagged results) until a cooled-down probe at full
//!   strictness succeeds.
//! * **Graceful drain** — [`JobService::shutdown`] stops admissions and
//!   lets workers drain the queue; [`JobService::shutdown_now`] discards
//!   queued jobs (resolving them [`JobOutcome::Cancelled`]) and cancels
//!   in-flight explorations.

use crate::breaker::{BreakerState, CircuitBreaker};
use crate::handle::{JobHandle, JobOutcome, TerminalHook};
use crate::health::{HealthSnapshot, Metrics};
use crate::job::{Job, JobError, RunLimits};
use crate::queue::{Rejected, Task, TaskQueue};
use crate::retry::RetryPolicy;
use crate::BreakerConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use slif_explore::{CancelToken, Supervisor};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for a [`JobService`].
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct ServiceConfig {
    /// Worker threads (default 2, floor 1).
    pub workers: usize,
    /// Queue capacity; submissions beyond it are shed (default 64).
    pub queue_capacity: usize,
    /// Deadline applied by [`JobService::submit`] when the caller does
    /// not pass one (default none).
    pub default_deadline: Option<Duration>,
    /// Retry policy for transient (panic) failures.
    pub retry: RetryPolicy,
    /// Circuit-breaker tuning for the estimation path.
    pub breaker: BreakerConfig,
    /// Resource caps under which every job runs.
    pub limits: RunLimits,
    /// Caught panics after which a worker is quarantined and replaced
    /// (default 3, floor 1).
    pub max_worker_panics: u32,
    /// Watchdog wake-up cadence (default 20 ms).
    pub watchdog_interval: Duration,
    /// Seed for retry jitter; equal seeds give reproducible backoff
    /// schedules (default 0).
    pub seed: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            default_deadline: None,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            limits: RunLimits::default(),
            max_worker_panics: 3,
            watchdog_interval: Duration::from_millis(20),
            seed: 0,
        }
    }
}

impl ServiceConfig {
    /// The default tuning.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker-thread count (floor 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the queue capacity (floor 1).
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Sets the default per-job deadline.
    #[must_use]
    pub fn with_default_deadline(mut self, deadline: Duration) -> Self {
        self.default_deadline = Some(deadline);
        self
    }

    /// Sets the retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the circuit-breaker tuning.
    #[must_use]
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = breaker;
        self
    }

    /// Sets the resource caps.
    #[must_use]
    pub fn with_limits(mut self, limits: RunLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Sets the worker quarantine threshold (floor 1).
    #[must_use]
    pub fn with_max_worker_panics(mut self, max_worker_panics: u32) -> Self {
        self.max_worker_panics = max_worker_panics.max(1);
        self
    }

    /// Sets the watchdog cadence (floor 1 ms).
    #[must_use]
    pub fn with_watchdog_interval(mut self, interval: Duration) -> Self {
        self.watchdog_interval = interval.max(Duration::from_millis(1));
        self
    }

    /// Sets the jitter seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn normalized(mut self) -> Self {
        self.workers = self.workers.max(1);
        self.queue_capacity = self.queue_capacity.max(1);
        self.max_worker_panics = self.max_worker_panics.max(1);
        self.watchdog_interval = self.watchdog_interval.max(Duration::from_millis(1));
        self
    }
}

/// An in-flight exploration the watchdog can cancel when overdue.
#[derive(Debug)]
struct InflightJob {
    id: u64,
    deadline: Option<Instant>,
    cancel: CancelToken,
}

#[derive(Debug)]
struct Shared {
    config: ServiceConfig,
    queue: TaskQueue,
    metrics: Metrics,
    breaker: CircuitBreaker,
    shutting_down: AtomicBool,
    watchdog_stop: AtomicBool,
    workers_alive: AtomicUsize,
    worker_seq: AtomicU64,
    worker_handles: Mutex<Vec<JoinHandle<()>>>,
    inflight: Mutex<Vec<InflightJob>>,
}

/// A multi-worker job service with backpressure, retries, a circuit
/// breaker, resource guards, and panic isolation.
///
/// # Examples
///
/// ```
/// use slif_runtime::{Job, JobService, ServiceConfig};
///
/// let svc = JobService::start(ServiceConfig::new().with_workers(1));
/// let handle = svc
///     .submit(Job::ParseSpec {
///         source: "system T;\nvar x : int<8>;\nprocess Main { x = x + 1; }\n".into(),
///     })
///     .map_err(|e| e.to_string())?;
/// assert!(handle.wait().is_completed());
/// svc.shutdown();
/// # Ok::<(), String>(())
/// ```
#[derive(Debug)]
pub struct JobService {
    shared: Arc<Shared>,
    watchdog: Mutex<Option<JoinHandle<()>>>,
    next_id: AtomicU64,
}

impl JobService {
    /// Starts the worker pool and the watchdog.
    pub fn start(config: ServiceConfig) -> Self {
        let config = config.normalized();
        let shared = Arc::new(Shared {
            queue: TaskQueue::new(config.queue_capacity),
            metrics: Metrics::default(),
            breaker: CircuitBreaker::new(config.breaker),
            shutting_down: AtomicBool::new(false),
            watchdog_stop: AtomicBool::new(false),
            workers_alive: AtomicUsize::new(0),
            worker_seq: AtomicU64::new(0),
            worker_handles: Mutex::new(Vec::new()),
            inflight: Mutex::new(Vec::new()),
            config,
        });
        for _ in 0..shared.config.workers {
            spawn_worker(&shared);
        }
        let watchdog = {
            let s = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("slif-watchdog".to_owned())
                .spawn(move || watchdog_loop(&s))
                .ok()
        };
        Self {
            shared,
            watchdog: Mutex::new(watchdog),
            next_id: AtomicU64::new(0),
        }
    }

    /// Submits a job under the configured default deadline.
    ///
    /// # Errors
    ///
    /// A typed [`Rejected`] when the job is shed at admission: the
    /// service is shutting down, the input exceeds a size guard, or the
    /// queue is full (backpressure — retry later).
    pub fn submit(&self, job: Job) -> Result<JobHandle, Rejected> {
        self.submit_with_deadline(job, self.shared.config.default_deadline)
    }

    /// Submits a job with an explicit deadline (`None` = unbounded).
    ///
    /// # Errors
    ///
    /// See [`submit`](Self::submit).
    pub fn submit_with_deadline(
        &self,
        job: Job,
        deadline: Option<Duration>,
    ) -> Result<JobHandle, Rejected> {
        self.submit_inner(job, deadline, None, None)
    }

    /// Submits a job billed to a fair-share tenant.
    ///
    /// Tasks of the same `tenant` id share one virtual-time clock in the
    /// queue; under contention, tenants are dequeued in proportion to
    /// `weight` (floor 1) instead of strict FIFO, so one tenant's flood
    /// cannot starve another's trickle. This is the admission hook the
    /// wire server (`slif-serve`) layers its API-key tenancy onto.
    ///
    /// # Errors
    ///
    /// See [`submit`](Self::submit).
    pub fn submit_for_tenant(
        &self,
        job: Job,
        deadline: Option<Duration>,
        tenant: u32,
        weight: u32,
    ) -> Result<JobHandle, Rejected> {
        self.submit_inner(job, deadline, Some((tenant, weight)), None)
    }

    /// Submits a job with a terminal observer: `hook` is invoked exactly
    /// once with the job's terminal outcome, on whichever path resolves
    /// it (completion, failure, timeout, or cancellation during
    /// shutdown), and strictly *before* any waiter on the returned
    /// handle can observe that outcome.
    ///
    /// This ordering is what makes a write-ahead journal correct: the
    /// hook can fsync the outcome to disk, so by the time a client is
    /// told "done" the result is already durable. A panicking hook is
    /// absorbed — the job still resolves.
    ///
    /// If admission rejects the job the hook is dropped unfired; the
    /// caller still holds the error and can record the rejection itself.
    ///
    /// # Errors
    ///
    /// See [`submit`](Self::submit).
    pub fn submit_observed(
        &self,
        job: Job,
        deadline: Option<Duration>,
        tenant: Option<(u32, u32)>,
        hook: impl FnOnce(&JobOutcome) + Send + 'static,
    ) -> Result<JobHandle, Rejected> {
        self.submit_inner(job, deadline, tenant, Some(Box::new(hook)))
    }

    fn submit_inner(
        &self,
        job: Job,
        deadline: Option<Duration>,
        tenant: Option<(u32, u32)>,
        hook: Option<TerminalHook>,
    ) -> Result<JobHandle, Rejected> {
        if self.shared.shutting_down.load(Ordering::Relaxed) {
            Metrics::bump(&self.shared.metrics.shed);
            return Err(Rejected::ShuttingDown);
        }
        if let Some(rejection) = admission_size_check(&job, &self.shared.config.limits) {
            Metrics::bump(&self.shared.metrics.shed);
            return Err(rejection);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (handle, state) = JobHandle::new(id);
        if let Some(hook) = hook {
            state.set_hook(hook);
        }
        let task = Task {
            id,
            job,
            attempts: 0,
            not_before: None,
            deadline: deadline.map(|d| Instant::now() + d),
            tenant: tenant.map(|(t, _)| t),
            weight: tenant.map_or(1, |(_, w)| w.max(1)),
            handle: state,
        };
        match self.shared.queue.try_push(task) {
            Ok(()) => {
                Metrics::bump(&self.shared.metrics.submitted);
                Ok(handle)
            }
            Err((_task, rejection)) => {
                Metrics::bump(&self.shared.metrics.shed);
                Err(rejection)
            }
        }
    }

    /// A point-in-time health snapshot.
    pub fn health(&self) -> HealthSnapshot {
        let m = &self.shared.metrics;
        HealthSnapshot {
            queue_depth: self.shared.queue.depth(),
            in_flight: Metrics::read(&m.in_flight),
            workers_alive: self.shared.workers_alive.load(Ordering::Relaxed),
            submitted: Metrics::read(&m.submitted),
            completed: Metrics::read(&m.completed),
            failed: Metrics::read(&m.failed),
            shed: Metrics::read(&m.shed),
            retried: Metrics::read(&m.retried),
            timed_out: Metrics::read(&m.timed_out),
            cancelled: Metrics::read(&m.cancelled),
            worker_panics: Metrics::read(&m.worker_panics),
            degraded_runs: Metrics::read(&m.degraded_runs),
            breaker: self.shared.breaker.state(),
            breaker_trips: self.shared.breaker.trips(),
            latency: crate::lock(&m.latency).clone(),
        }
    }

    /// Graceful shutdown: stops admissions, drains the queue (every
    /// admitted job still reaches a real terminal state), then joins the
    /// workers and the watchdog. Idempotent.
    pub fn shutdown(&self) {
        self.stop(false);
    }

    /// Immediate shutdown: stops admissions, resolves every queued job
    /// [`JobOutcome::Cancelled`], and cancels in-flight explorations so
    /// they stop at their next boundary with best-so-far results.
    pub fn shutdown_now(&self) {
        self.stop(true);
    }

    fn stop(&self, discard: bool) {
        // Close the respawn gate and the admission gate as one step: the
        // flag is flipped under the same lock the watchdog holds while
        // respawning, so once this store is visible no worker can be
        // (re)spawned for jobs admitted after drain began — the watchdog
        // is either finished respawning or has not yet re-checked the
        // flag it is about to see set.
        {
            let _respawn_gate = crate::lock(&self.shared.worker_handles);
            self.shared.shutting_down.store(true, Ordering::SeqCst);
        }
        let leftovers = self.shared.queue.close(discard);
        for task in leftovers {
            Metrics::bump(&self.shared.metrics.cancelled);
            task.handle.resolve(JobOutcome::Cancelled);
        }
        if discard {
            for entry in crate::lock(&self.shared.inflight).iter() {
                entry.cancel.cancel();
            }
        }
        // Stop the watchdog before joining workers so it cannot respawn
        // a worker mid-join.
        self.shared.watchdog_stop.store(true, Ordering::Relaxed);
        if let Some(handle) = crate::lock(&self.watchdog).take() {
            drop(handle.join());
        }
        loop {
            let handles: Vec<JoinHandle<()>> = {
                let mut guard = crate::lock(&self.shared.worker_handles);
                guard.drain(..).collect()
            };
            if handles.is_empty() {
                break;
            }
            for handle in handles {
                drop(handle.join());
            }
        }
        // Drain-race backstop: if every worker quarantined (and the
        // respawn gate rightly stayed shut) while late-admitted jobs were
        // still queued, those jobs have no worker left to run them. They
        // still get exactly one terminal state.
        for task in self.shared.queue.drain_remaining() {
            Metrics::bump(&self.shared.metrics.cancelled);
            task.handle.resolve(JobOutcome::Cancelled);
        }
    }
}

impl Drop for JobService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The admission size guard: refuse inputs whose mere size exceeds the
/// configured caps, before they occupy queue space.
fn admission_size_check(job: &Job, limits: &RunLimits) -> Option<Rejected> {
    match job {
        Job::ParseSpec { source } if source.len() > limits.parse.max_bytes => {
            Some(Rejected::TooLarge {
                what: "spec bytes",
                limit: limits.parse.max_bytes,
                actual: source.len(),
            })
        }
        Job::CompileDesign { design }
        | Job::Estimate { design, .. }
        | Job::Explore { design, .. }
        | Job::Analyze { design, .. } => {
            let graph = design.graph();
            if graph.node_count() > limits.graph.max_nodes {
                Some(Rejected::TooLarge {
                    what: "node",
                    limit: limits.graph.max_nodes,
                    actual: graph.node_count(),
                })
            } else if graph.channel_count() > limits.graph.max_channels {
                Some(Rejected::TooLarge {
                    what: "channel",
                    limit: limits.graph.max_channels,
                    actual: graph.channel_count(),
                })
            } else {
                None
            }
        }
        _ => None,
    }
}

fn spawn_worker(shared: &Arc<Shared>) {
    let mut handles = crate::lock(&shared.worker_handles);
    spawn_worker_locked(shared, &mut handles);
}

/// Spawns a worker while the caller already holds the `worker_handles`
/// lock — the same lock `stop` takes to flip the shutdown flag, which is
/// what makes "check the flag, then spawn" atomic against a drain.
fn spawn_worker_locked(shared: &Arc<Shared>, handles: &mut Vec<JoinHandle<()>>) {
    shared.workers_alive.fetch_add(1, Ordering::Relaxed);
    let s = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name("slif-worker".to_owned())
        .spawn(move || worker_loop(&s));
    match spawned {
        Ok(handle) => handles.push(handle),
        Err(_) => {
            shared.workers_alive.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    let seq = shared.worker_seq.fetch_add(1, Ordering::Relaxed);
    let mut rng = StdRng::seed_from_u64(
        shared
            .config
            .seed
            .wrapping_add(seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    );
    let mut panics_here = 0u32;
    while let Some(mut task) = shared.queue.pop() {
        if let Some(deadline) = task.deadline {
            if Instant::now() >= deadline {
                Metrics::bump(&shared.metrics.timed_out);
                task.handle.resolve(JobOutcome::TimedOut);
                continue;
            }
        }
        task.attempts += 1;
        let is_estimate = matches!(task.job, Job::Estimate { .. });
        let is_explore = matches!(task.job, Job::Explore { .. });
        let cancel = CancelToken::new();
        if is_explore {
            crate::lock(&shared.inflight).push(InflightJob {
                id: task.id,
                deadline: task.deadline,
                cancel: cancel.clone(),
            });
        }
        let degraded = is_estimate && shared.breaker.state() == BreakerState::Open;
        let estimate_override = match (&task.job, degraded) {
            (Job::Estimate { config, .. }, true) => Some(config.degraded()),
            _ => None,
        };
        Metrics::bump(&shared.metrics.in_flight);
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut supervisor = Supervisor::unlimited().with_cancel_token(cancel.clone());
            if let Some(deadline) = task.deadline {
                supervisor = supervisor.with_deadline_at(deadline);
            }
            task.job
                .run(&shared.config.limits, estimate_override, supervisor)
        }));
        shared.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
        if is_explore {
            crate::lock(&shared.inflight).retain(|e| e.id != task.id);
        }
        shared.metrics.record_latency(started.elapsed());
        match outcome {
            Ok(Ok(output)) => {
                if is_estimate && !degraded {
                    shared.breaker.on_success();
                }
                if degraded {
                    Metrics::bump(&shared.metrics.degraded_runs);
                }
                Metrics::bump(&shared.metrics.completed);
                task.handle.resolve(JobOutcome::Completed {
                    output,
                    attempts: task.attempts,
                    degraded,
                });
            }
            Ok(Err(error)) => {
                if is_estimate && !degraded {
                    shared.breaker.on_failure();
                }
                Metrics::bump(&shared.metrics.failed);
                task.handle.resolve(JobOutcome::Failed {
                    error,
                    attempts: task.attempts,
                });
            }
            Err(payload) => {
                panics_here += 1;
                Metrics::bump(&shared.metrics.worker_panics);
                let message = panic_message(payload.as_ref());
                if shared.config.retry.should_retry(task.attempts) {
                    let delay = shared.config.retry.backoff(task.attempts, &mut rng);
                    task.not_before = Some(Instant::now() + delay);
                    let handle = Arc::clone(&task.handle);
                    match shared.queue.requeue(task) {
                        Ok(()) => Metrics::bump(&shared.metrics.retried),
                        Err(_stranded) => {
                            // Discarding shutdown raced the retry: the
                            // job still gets a terminal state.
                            Metrics::bump(&shared.metrics.cancelled);
                            handle.resolve(JobOutcome::Cancelled);
                        }
                    }
                } else {
                    Metrics::bump(&shared.metrics.failed);
                    task.handle.resolve(JobOutcome::Failed {
                        error: JobError::Panicked { message },
                        attempts: task.attempts,
                    });
                }
                if panics_here >= shared.config.max_worker_panics {
                    // Quarantine: this thread has absorbed too many
                    // panics to trust its scratch state. Retire it; the
                    // watchdog spawns a clean replacement.
                    break;
                }
            }
        }
    }
    shared.workers_alive.fetch_sub(1, Ordering::Relaxed);
}

fn watchdog_loop(shared: &Arc<Shared>) {
    while !shared.watchdog_stop.load(Ordering::Relaxed) {
        // Cancel explorations that have overstayed their deadline; they
        // stop at the next supervisor boundary with best-so-far results.
        let now = Instant::now();
        for entry in crate::lock(&shared.inflight).iter() {
            if entry.deadline.is_some_and(|d| now >= d) {
                entry.cancel.cancel();
            }
        }
        // Replace quarantined workers to hold the pool at strength. The
        // shutdown re-check happens *under* the handles lock so it cannot
        // race a beginning drain: `stop` flips the flag under this same
        // lock, so either we respawn before drain begins (and the worker
        // is drained normally) or we observe the flag and stand down —
        // never a fresh worker spawned into a draining service.
        {
            let mut handles = crate::lock(&shared.worker_handles);
            if !shared.shutting_down.load(Ordering::SeqCst) {
                while shared.workers_alive.load(Ordering::Relaxed) < shared.config.workers {
                    spawn_worker_locked(shared, &mut handles);
                }
            }
        }
        std::thread::sleep(shared.config.watchdog_interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobOutput;
    use slif_core::{ClassKind, Design, NodeKind, Partition};
    use slif_estimate::EstimatorConfig;
    use slif_explore::{Algorithm, Objectives};

    const GOOD_SPEC: &str = "system T;\nvar x : int<8>;\nprocess Main { x = x + 1; }\n";

    fn fast_retry() -> RetryPolicy {
        RetryPolicy::new()
            .with_base_delay(Duration::from_millis(1))
            .with_max_delay(Duration::from_millis(2))
    }

    /// A design whose estimation fails at full strictness (no weights)
    /// but succeeds degraded (weights substituted).
    fn weightless_design() -> (Design, Partition) {
        let mut d = Design::new("weightless");
        let class = d.add_class("proc", ClassKind::StdProcessor);
        let n = d.graph_mut().add_node("Main", NodeKind::process());
        let cpu = d.add_processor("cpu0", class);
        let mut p = Partition::new(&d);
        p.assign_node(n, cpu.into());
        (d, p)
    }

    /// A design whose estimation succeeds at full strictness.
    fn healthy_design() -> (Design, Partition) {
        let (mut d, p) = weightless_design();
        let n = d.graph_mut().node_ids().next().unwrap();
        let class = d.class_ids().next().unwrap();
        d.graph_mut().node_mut(n).ict_mut().set(class, 10);
        d.graph_mut().node_mut(n).size_mut().set(class, 100);
        (d, p)
    }

    #[test]
    fn service_matches_inline_execution() {
        let svc = JobService::start(ServiceConfig::new().with_workers(2));
        let (design, partition) = healthy_design();
        let jobs = vec![
            Job::ParseSpec {
                source: GOOD_SPEC.to_owned(),
            },
            Job::CompileDesign {
                design: design.clone(),
            },
            Job::Estimate {
                design: design.clone(),
                partition: partition.clone(),
                config: EstimatorConfig::default(),
            },
            Job::Explore {
                design: design.clone(),
                start: partition.clone(),
                objectives: Objectives::default(),
                algorithm: Algorithm::RandomSearch {
                    iterations: 50,
                    seed: 7,
                },
            },
            Job::Analyze {
                design,
                partition: Some(partition),
                config: slif_analyze::AnalysisConfig::new(),
                source: None,
            },
        ];
        for job in jobs {
            let inline = job.run_inline(&RunLimits::default());
            let handle = svc.submit(job.clone()).unwrap();
            match (handle.wait(), inline) {
                (
                    JobOutcome::Completed {
                        output,
                        attempts,
                        degraded,
                    },
                    Ok(expected),
                ) => {
                    assert_eq!(output, expected, "{} diverged from inline", job.kind());
                    assert_eq!(attempts, 1);
                    assert!(!degraded);
                }
                (outcome, inline) => {
                    panic!("{}: outcome {outcome:?} vs inline {inline:?}", job.kind())
                }
            }
        }
        svc.shutdown();
    }

    #[test]
    fn analyze_jobs_on_injected_defects_complete_with_findings() {
        use slif_core::faults::FaultInjector;
        use slif_core::gen::DesignGenerator;

        let svc = JobService::start(ServiceConfig::new().with_workers(2));
        for seed in 0..4u64 {
            let (mut design, mut partition) = DesignGenerator::new(seed)
                .behaviors(8)
                .variables(5)
                .processors(2)
                .buses(2)
                .build();
            let planted = FaultInjector::new(seed).corrupt_analyzable(&mut design, &mut partition, 2);
            assert!(!planted.is_empty(), "seed {seed} planted nothing");
            let job = Job::Analyze {
                design,
                partition: Some(partition),
                config: slif_analyze::AnalysisConfig::new(),
                source: None,
            };
            let inline = job.run_inline(&RunLimits::default()).unwrap();
            let handle = svc.submit(job).unwrap();
            match handle.wait() {
                JobOutcome::Completed { output, .. } => {
                    // Analysis is total: a defective design is a report,
                    // not a failure, and the service reproduces inline
                    // semantics bit for bit.
                    assert_eq!(output, inline, "seed {seed} diverged from inline");
                }
                other => panic!("seed {seed}: unexpected outcome {other:?}"),
            }
        }
        svc.shutdown();
    }

    #[test]
    fn panics_are_isolated_retried_and_reported() {
        let svc = JobService::start(
            ServiceConfig::new()
                .with_workers(1)
                .with_retry(fast_retry().with_max_attempts(3)),
        );
        let handle = svc
            .submit(Job::InjectedPanic {
                message: "seeded fault".to_owned(),
            })
            .unwrap();
        match handle.wait() {
            JobOutcome::Failed { error, attempts } => {
                assert_eq!(attempts, 3, "all attempts spent");
                assert!(matches!(error, JobError::Panicked { ref message } if message == "seeded fault"));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        // The service still works after absorbing the panics.
        let ok = svc
            .submit(Job::ParseSpec {
                source: GOOD_SPEC.to_owned(),
            })
            .unwrap();
        assert!(ok.wait().is_completed());
        let health = svc.health();
        assert_eq!(health.worker_panics, 3);
        assert_eq!(health.retried, 2);
        svc.shutdown();
    }

    #[test]
    fn quarantined_workers_are_respawned() {
        let svc = JobService::start(
            ServiceConfig::new()
                .with_workers(1)
                .with_max_worker_panics(1)
                .with_retry(fast_retry().with_max_attempts(1))
                .with_watchdog_interval(Duration::from_millis(5)),
        );
        let handle = svc
            .submit(Job::InjectedPanic {
                message: "kill this worker".to_owned(),
            })
            .unwrap();
        assert!(matches!(handle.wait(), JobOutcome::Failed { .. }));
        // The watchdog replaces the retired worker and service continues.
        let ok = svc
            .submit(Job::ParseSpec {
                source: GOOD_SPEC.to_owned(),
            })
            .unwrap();
        assert!(ok.wait().is_completed());
        assert_eq!(svc.health().workers_alive, 1);
        svc.shutdown();
    }

    /// Regression for the drain-ordering race: with the pool quarantined
    /// and the watchdog mid-respawn-cycle, a drain racing a stream of
    /// admissions must neither let the watchdog respawn workers after the
    /// drain began nor strand a late-admitted job without a terminal
    /// state.
    #[test]
    fn drain_races_admission_without_respawn_or_stranding() {
        use std::sync::atomic::AtomicBool;
        for round in 0..10u64 {
            let svc = Arc::new(JobService::start(
                ServiceConfig::new()
                    .with_workers(1)
                    .with_max_worker_panics(1)
                    .with_retry(fast_retry().with_max_attempts(1))
                    .with_watchdog_interval(Duration::from_millis(1))
                    .with_seed(round),
            ));
            // Quarantine the only worker so respawning is in play.
            let boom = svc
                .submit(Job::InjectedPanic {
                    message: "quarantine".to_owned(),
                })
                .unwrap();
            assert!(matches!(boom.wait(), JobOutcome::Failed { .. }));
            let stop_flag = Arc::new(AtomicBool::new(false));
            let submitter = {
                let svc = Arc::clone(&svc);
                let stop_flag = Arc::clone(&stop_flag);
                std::thread::spawn(move || {
                    let mut admitted = Vec::new();
                    loop {
                        match svc.submit(Job::ParseSpec {
                            source: GOOD_SPEC.to_owned(),
                        }) {
                            Ok(handle) => admitted.push(handle),
                            Err(Rejected::ShuttingDown) => break,
                            Err(_) => {}
                        }
                        if stop_flag.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    admitted
                })
            };
            // Vary the interleaving across rounds so the race window
            // lands on different sides of the respawn check.
            std::thread::sleep(Duration::from_micros(100 * round));
            svc.shutdown();
            stop_flag.store(true, Ordering::Relaxed);
            let admitted = submitter.join().unwrap();
            for handle in admitted {
                let outcome = handle
                    .wait_timeout(Duration::from_secs(10))
                    .expect("admitted job stranded without a terminal state");
                assert!(
                    matches!(outcome, JobOutcome::Completed { .. } | JobOutcome::Cancelled),
                    "round {round}: unexpected terminal state {outcome:?}"
                );
            }
            assert_eq!(
                svc.health().workers_alive,
                0,
                "round {round}: a worker was respawned for a draining service"
            );
            assert_eq!(svc.health().queue_depth, 0, "round {round}: queue not swept");
        }
    }

    #[test]
    fn oversized_jobs_are_shed_at_admission() {
        let limits = RunLimits {
            parse: slif_speclang::ParseLimits::default().with_max_bytes(16),
            ..RunLimits::default()
        };
        let svc = JobService::start(ServiceConfig::new().with_workers(1).with_limits(limits));
        let err = svc
            .submit(Job::ParseSpec {
                source: GOOD_SPEC.to_owned(),
            })
            .unwrap_err();
        assert!(matches!(
            err,
            Rejected::TooLarge {
                what: "spec bytes",
                ..
            }
        ));
        assert_eq!(svc.health().shed, 1);
        svc.shutdown();
    }

    #[test]
    fn breaker_degrades_estimation_then_recovers() {
        let svc = JobService::start(
            ServiceConfig::new().with_workers(1).with_breaker(
                BreakerConfig::new()
                    .with_failure_threshold(2)
                    .with_cooldown(Duration::from_millis(10)),
            ),
        );
        let (bad, bad_p) = weightless_design();
        // Two strict failures trip the breaker...
        for _ in 0..2 {
            let h = svc
                .submit(Job::Estimate {
                    design: bad.clone(),
                    partition: bad_p.clone(),
                    config: EstimatorConfig::default(),
                })
                .unwrap();
            assert!(matches!(h.wait(), JobOutcome::Failed { .. }));
        }
        assert_eq!(svc.health().breaker, BreakerState::Open);
        // ...after which the same job is served degraded, with warnings.
        let h = svc
            .submit(Job::Estimate {
                design: bad.clone(),
                partition: bad_p.clone(),
                config: EstimatorConfig::default(),
            })
            .unwrap();
        match h.wait() {
            JobOutcome::Completed {
                output, degraded, ..
            } => {
                assert!(degraded);
                match output {
                    JobOutput::Estimated(report) => {
                        assert!(!report.warnings.is_empty(), "degraded runs warn")
                    }
                    other => panic!("unexpected output {other:?}"),
                }
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert!(svc.health().degraded_runs >= 1);
        // After the cooldown a healthy probe closes the breaker again.
        std::thread::sleep(Duration::from_millis(15));
        let (good, good_p) = healthy_design();
        let h = svc
            .submit(Job::Estimate {
                design: good,
                partition: good_p,
                config: EstimatorConfig::default(),
            })
            .unwrap();
        match h.wait() {
            JobOutcome::Completed { degraded, .. } => assert!(!degraded, "probe is strict"),
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(svc.health().breaker, BreakerState::Closed);
        svc.shutdown();
    }

    #[test]
    fn expired_deadline_resolves_timed_out() {
        let svc = JobService::start(ServiceConfig::new().with_workers(1));
        // Occupy the single worker so the deadline can expire in queue.
        let slow = svc
            .submit(Job::Explore {
                design: healthy_design().0,
                start: healthy_design().1,
                objectives: Objectives::default(),
                algorithm: Algorithm::RandomSearch {
                    iterations: 20_000,
                    seed: 1,
                },
            })
            .unwrap();
        let doomed = svc
            .submit_with_deadline(
                Job::ParseSpec {
                    source: GOOD_SPEC.to_owned(),
                },
                Some(Duration::ZERO),
            )
            .unwrap();
        assert_eq!(doomed.wait(), JobOutcome::TimedOut);
        assert!(slow.wait().is_completed());
        assert_eq!(svc.health().timed_out, 1);
        svc.shutdown();
    }

    #[test]
    fn graceful_shutdown_drains_the_queue() {
        let svc = JobService::start(ServiceConfig::new().with_workers(2));
        let handles: Vec<JobHandle> = (0..20)
            .map(|_| {
                svc.submit(Job::ParseSpec {
                    source: GOOD_SPEC.to_owned(),
                })
                .unwrap()
            })
            .collect();
        svc.shutdown();
        for h in handles {
            assert!(h.wait().is_completed(), "drained job lost");
        }
        assert!(svc.submit(Job::ParseSpec { source: String::new() }).is_err());
    }

    #[test]
    fn immediate_shutdown_cancels_queued_jobs() {
        let svc = JobService::start(ServiceConfig::new().with_workers(1));
        // A slow job keeps the worker busy while we stack the queue.
        let slow = svc
            .submit(Job::Explore {
                design: healthy_design().0,
                start: healthy_design().1,
                objectives: Objectives::default(),
                algorithm: Algorithm::RandomSearch {
                    iterations: 50_000,
                    seed: 2,
                },
            })
            .unwrap();
        let queued: Vec<JobHandle> = (0..10)
            .map(|_| {
                svc.submit(Job::ParseSpec {
                    source: GOOD_SPEC.to_owned(),
                })
                .unwrap()
            })
            .collect();
        svc.shutdown_now();
        let mut cancelled = 0;
        for h in queued {
            match h.wait() {
                JobOutcome::Cancelled => cancelled += 1,
                JobOutcome::Completed { .. } => {} // raced onto the worker
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert!(cancelled > 0, "nothing was cancelled");
        // The in-flight job still reached a terminal state.
        assert!(matches!(
            slow.wait(),
            JobOutcome::Completed { .. } | JobOutcome::Cancelled
        ));
    }

    #[test]
    fn observed_submissions_fire_the_hook_before_the_waiter_returns() {
        use std::sync::atomic::AtomicU64;
        let svc = JobService::start(ServiceConfig::new().with_workers(1));
        let observed = Arc::new(Mutex::new(None::<JobOutcome>));
        let seq = Arc::new(AtomicU64::new(0));
        let slot = Arc::clone(&observed);
        let hook_seq = Arc::clone(&seq);
        let handle = svc
            .submit_observed(
                Job::ParseSpec {
                    source: GOOD_SPEC.to_owned(),
                },
                None,
                Some((1, 1)),
                move |outcome| {
                    *crate::lock(&slot) = Some(outcome.clone());
                    hook_seq.store(1, Ordering::SeqCst);
                },
            )
            .unwrap();
        let outcome = handle.wait();
        // The hook ran (and finished) before wait() could return.
        assert_eq!(seq.load(Ordering::SeqCst), 1);
        assert_eq!(crate::lock(&observed).clone(), Some(outcome));
        svc.shutdown();
    }

    #[test]
    fn hook_fires_on_cancellation_paths_too() {
        let svc = JobService::start(ServiceConfig::new().with_workers(1));
        // Occupy the worker so observed jobs die in the queue.
        let slow = svc
            .submit(Job::Explore {
                design: healthy_design().0,
                start: healthy_design().1,
                objectives: Objectives::default(),
                algorithm: Algorithm::RandomSearch {
                    iterations: 100_000,
                    seed: 4,
                },
            })
            .unwrap();
        let observed = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<JobHandle> = (0..5)
            .map(|_| {
                let sink = Arc::clone(&observed);
                svc.submit_observed(
                    Job::ParseSpec {
                        source: GOOD_SPEC.to_owned(),
                    },
                    None,
                    None,
                    move |outcome| crate::lock(&sink).push(outcome.clone()),
                )
                .unwrap()
            })
            .collect();
        svc.shutdown_now();
        for h in handles {
            h.wait();
        }
        // Every observed job's terminal state reached its hook, even the
        // cancelled ones swept during the discarding shutdown.
        assert_eq!(crate::lock(&observed).len(), 5);
        drop(slow);
    }

    #[test]
    fn tenant_submissions_complete_like_anonymous_ones() {
        let svc = JobService::start(ServiceConfig::new().with_workers(1));
        let job = Job::ParseSpec {
            source: GOOD_SPEC.to_owned(),
        };
        let inline = job.run_inline(&RunLimits::default()).unwrap();
        let tenant = svc.submit_for_tenant(job.clone(), None, 3, 5).unwrap();
        let anon = svc.submit(job).unwrap();
        for handle in [tenant, anon] {
            match handle.wait() {
                JobOutcome::Completed { output, .. } => assert_eq!(output, inline),
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        svc.shutdown();
    }

    #[test]
    fn queue_full_sheds_with_backpressure() {
        let svc = JobService::start(
            ServiceConfig::new()
                .with_workers(1)
                .with_queue_capacity(1),
        );
        // Occupy the worker...
        let slow = svc
            .submit(Job::Explore {
                design: healthy_design().0,
                start: healthy_design().1,
                objectives: Objectives::default(),
                algorithm: Algorithm::RandomSearch {
                    iterations: 100_000,
                    seed: 3,
                },
            })
            .unwrap();
        // ...then saturate the 1-slot queue.
        let mut saw_full = false;
        for _ in 0..50 {
            match svc.submit(Job::ParseSpec {
                source: GOOD_SPEC.to_owned(),
            }) {
                Err(Rejected::QueueFull { capacity }) => {
                    assert_eq!(capacity, 1);
                    saw_full = true;
                    break;
                }
                _ => {}
            }
        }
        assert!(saw_full, "queue never filled");
        assert!(svc.health().shed >= 1);
        drop(slow);
        svc.shutdown();
    }
}
