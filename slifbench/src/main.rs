//! `slifbench`: the SLIF stack's benchmark.
//!
//! ```text
//! slifbench --workload <cold_report|edit_session|serve_store> --seed <n>
//!           --seconds <s> --trace <0|1>
//! slifbench --steadiness <runs> [--workloads a,b,c] [--seconds <s>] [--trace <0|1>]
//!           [--first-seed <n>]
//! ```
//!
//! One run sets its workload up, then runs ops in a closed loop on one
//! thread for `--seconds`, repeating the set-up at even intervals, and
//! checks every op's output. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics, or with `--trace 1` the per-layer ones. See
//! README.md for the workloads and metric definitions.

mod cold;
mod edit;
mod gen;
mod serve;
mod stats;
mod steady;
mod trace;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Recorder;

#[global_allocator]
static GLOBAL: trace::CountingAlloc = trace::CountingAlloc;

/// Set-ups per run: the first, plus repeats spread evenly over the run,
/// so that the fastest of them meets the host at its fastest.
const SETUPS: usize = 128;

/// Span names, in report order. Each gets `_ms` (the least per op of its
/// self time), `_pct` (its share of op time), `.allocs` and `.alloc_mb`.
const SPANS: [&str; 19] = [
    "speclang.parse",
    "speclang.lower",
    "speclang.resolve",
    "frontend.build",
    "core.compile",
    "estimate.report",
    "analyze.lint",
    "explore.sa",
    "session.open",
    "session.patched",
    "session.recompiled",
    "session.deferred",
    "session.recover",
    "serve.get_bin",
    "serve.get_text",
    "serve.post_design",
    "serve.estimate",
    "serve.analyze",
    "serve.explore",
];

/// Counts, each the total over the run's first cycle of ops.
const COUNTS: [&str; 20] = [
    "design.nodes",
    "design.channels",
    "flow.nodes",
    "analyze.findings",
    "explore.evals",
    "session.patched",
    "session.recompiled",
    "session.deferred",
    "session.dirty_nodes",
    "session.region_reparses",
    "serve.bytes_out",
    "serve.non2xx",
    "store.hits",
    "store.misses",
    "store.puts",
    "store.quarantined",
    "runtime.completed",
    "runtime.failed",
    "runtime.retried",
    "runtime.shed",
];

/// Op ids from here up label set-up spans.
const SETUP_OP_BASE: u32 = 1 << 30;

/// Counts gathered while checking ops of the first cycle.
pub type Counts = BTreeMap<&'static str, u64>;

/// A benchmark workload.
pub trait Workload: Sized {
    /// What an op hands to its check.
    type Output;
    /// Makes the inputs from the seed (not timed).
    fn prepare(seed: u64) -> Result<Self, String>;
    /// One set-up (timed). The first call's state serves the ops; each
    /// later call checks its result against the first and discards it.
    fn setup(&mut self, rec: &mut Recorder) -> Result<(), String>;
    /// Ops that cover every input of the workload once.
    fn cycle(&self) -> u64;
    /// Readies op `k`'s inputs (not timed).
    fn before_op(&mut self, _k: u64) -> Result<(), String> {
        Ok(())
    }
    /// Op `k`, the timed part only.
    fn op(&mut self, k: u64, rec: &mut Recorder) -> Self::Output;
    /// Checks op `k`'s output; on the first cycle, adds to `counts`.
    fn check(
        &mut self,
        k: u64,
        out: Self::Output,
        counts: Option<&mut Counts>,
    ) -> Result<(), String>;
    /// Whether layer spans must cover at least 95% of each traced op.
    fn covered(&self) -> bool;
}

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// What one run measured.
struct RunResult {
    attempted: u64,
    failed: u64,
    setup_s: Vec<f64>,
    /// Untraced op latencies (ms).
    op_ms: Vec<f64>,
    /// Traced op latencies (ms), by op id.
    traced_ms: BTreeMap<u32, f64>,
    /// Set-up durations by set-up op id (ms), traced run only.
    traced_setup_ms: BTreeMap<u32, f64>,
    counts: Counts,
    rec: Recorder,
    /// VmHWM right after the run, in MiB.
    peak_rss_mb: f64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(a)
}

/// Runs set-up, then the closed op loop, for `seconds`.
fn drive<W: Workload>(args: &Args) -> Result<RunResult, String> {
    let mut w = W::prepare(args.seed)?;
    let mut rec = Recorder::new(args.trace);
    let mut r = RunResult {
        attempted: 0,
        failed: 0,
        setup_s: Vec::new(),
        op_ms: Vec::new(),
        traced_ms: BTreeMap::new(),
        traced_setup_ms: BTreeMap::new(),
        counts: Counts::new(),
        rec: Recorder::new(false),
        peak_rss_mb: 0.0,
    };
    let setup = |w: &mut W, rec: &mut Recorder, r: &mut RunResult| -> Result<(), String> {
        let id = SETUP_OP_BASE + r.setup_s.len() as u32;
        rec.set_op(id);
        trace::set_counting(args.trace);
        let t = Instant::now();
        let done = catch_unwind(AssertUnwindSafe(|| w.setup(rec)));
        let dt = t.elapsed();
        trace::set_counting(false);
        match done {
            Ok(Ok(())) => {}
            Ok(Err(e)) => return Err(format!("set-up {}: {e}", r.setup_s.len())),
            Err(_) => return Err(format!("set-up {} panicked", r.setup_s.len())),
        }
        r.setup_s.push(dt.as_secs_f64());
        r.traced_setup_ms.insert(id, dt.as_secs_f64() * 1e3);
        Ok(())
    };
    setup(&mut w, &mut rec, &mut r)?;

    let budget = Duration::from_secs(args.seconds);
    let setup_every = budget / SETUPS as u32;
    let cycle = w.cycle();
    let start = Instant::now();
    let mut k: u64 = 0;
    while start.elapsed() < budget {
        let due = (start.elapsed().as_nanos() / setup_every.as_nanos().max(1)) as usize;
        if r.setup_s.len() <= due && r.setup_s.len() < SETUPS {
            setup(&mut w, &mut rec, &mut r)?;
            continue;
        }
        w.before_op(k)?;
        // In the traced run, odd ops are traced and even ops are not, so
        // the two see the same host conditions.
        let traced = args.trace && k % 2 == 1;
        rec.set_op(k as u32);
        let mut off = Recorder::new(false);
        let this_rec = if traced { &mut rec } else { &mut off };
        trace::set_counting(traced);
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| w.op(k, this_rec)));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        trace::set_counting(false);
        r.attempted += 1;
        let verdict = match out {
            Ok(out) => {
                let counts = (k < cycle).then_some(&mut r.counts);
                catch_unwind(AssertUnwindSafe(|| w.check(k, out, counts)))
                    .unwrap_or_else(|_| Err("check panicked".into()))
            }
            Err(_) => Err("op panicked".into()),
        };
        if let Err(e) = verdict {
            r.failed += 1;
            if r.failed <= 5 {
                eprintln!("op {k} failed: {e}");
            }
        }
        if traced {
            r.traced_ms.insert(k as u32, ms);
        } else {
            r.op_ms.push(ms);
        }
        k += 1;
    }
    if k < cycle {
        return Err(format!(
            "only {k} ops ran; a run needs a full cycle of {cycle}"
        ));
    }
    if args.trace && w.covered() {
        let totals = rec.self_totals();
        for (&op, &ms) in &r.traced_ms {
            let covered = totals.get(&op).map_or(0, |o| o.covered_ns) as f64 / 1e6;
            if covered < 0.95 * ms {
                r.failed += 1;
                eprintln!("op {op}: layer spans cover {covered:.3} of {ms:.3} ms");
            }
        }
    }
    drop(w);
    r.rec = rec;
    r.peak_rss_mb = peak_rss_mb();
    Ok(r)
}

/// Resets the peak resident set to the current one, so that VmHWM
/// covers the run and not the probe before it. Best effort: without
/// this, the peak also covers the probe.
fn reset_peak_rss() {
    drop(std::fs::write("/proc/self/clear_refs", "5"));
}

/// Peak resident set (VmHWM) in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Holds the process to one glibc malloc arena. By default each thread
/// may get an arena of its own (up to eight per core), and how much freed
/// memory the server threads' arenas keep depends on which thread ran
/// when: `serve_store`'s peak RSS swung between 46 and 57 MiB over runs
/// of the same code, and read 18.6–18.7 MiB with one arena. Op and
/// set-up times were the same either way. Called before any thread
/// starts.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn one_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    /// `M_ARENA_MAX` in glibc's `malloc.h`.
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: mallopt only sets an allocator parameter, and no other
    // thread is running yet.
    if unsafe { mallopt(M_ARENA_MAX, 1) } == 0 {
        eprintln!("slifbench: mallopt(M_ARENA_MAX, 1) failed; peak RSS will vary more");
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn one_malloc_arena() {}

/// The host-speed probe: a frozen, memory-heavy kernel (BTreeMap insert
/// and lookup with String values), in ms. Printed beside the metrics
/// for whoever reads the results; never used to scale a metric.
fn probe_ms() -> f64 {
    let t = Instant::now();
    let mut rng = gen::Rng::new(0x9e0b);
    let mut m = BTreeMap::new();
    for i in 0..60_000u64 {
        m.insert(rng.next_u64() % 200_000, format!("value-{i}"));
    }
    let mut hits = 0usize;
    for _ in 0..60_000 {
        hits += usize::from(m.contains_key(&(rng.next_u64() % 200_000)));
    }
    std::hint::black_box(hits);
    t.elapsed().as_secs_f64() * 1e3
}

fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    use std::fmt::Write as _;
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    let value = if value.is_finite() { value } else { 0.0 };
    let _ = write!(
        out,
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    );
}

/// End-to-end metrics of an untraced run.
fn end_to_end(r: &RunResult) -> String {
    let mut m = String::from("{");
    metric(&mut m, "setup_s", stats::min(&r.setup_s), "s");
    metric(&mut m, "op_min_ms", stats::min(&r.op_ms), "ms");
    metric(&mut m, "peak_rss_mb", r.peak_rss_mb, "MiB");
    m.push('}');
    m
}

/// Per-layer metrics of a traced run.
fn per_layer(r: &RunResult) -> String {
    let totals = r.rec.self_totals();
    let mut m = String::from("{");
    for name in SPANS {
        // Spans that occur in ops are reduced over ops; set-up-only
        // spans (session.open) over the run's set-ups.
        let in_ops = r
            .traced_ms
            .keys()
            .any(|op| totals.get(op).is_some_and(|o| o.by_name.contains_key(name)));
        let groups: &BTreeMap<u32, f64> = if in_ops {
            &r.traced_ms
        } else {
            &r.traced_setup_ms
        };
        let mut self_ms = Vec::new();
        let (mut allocs, mut mb) = (Vec::new(), Vec::new());
        let (mut sum_self, mut sum_total) = (0.0, 0.0);
        for (op, &total_ms) in groups {
            let (ns, a, b) = totals
                .get(op)
                .and_then(|o| o.by_name.get(name).copied())
                .unwrap_or_default();
            self_ms.push(ns as f64 / 1e6);
            allocs.push(a as f64);
            mb.push(b as f64 / f64::from(1 << 20));
            sum_self += ns as f64 / 1e6;
            sum_total += total_ms;
        }
        let any = sum_self > 0.0;
        let pick = |xs: &[f64], f: fn(&[f64]) -> f64| if any { f(xs) } else { 0.0 };
        metric(
            &mut m,
            &format!("{name}_ms"),
            pick(&self_ms, stats::min),
            "ms",
        );
        let share = if sum_total > 0.0 {
            100.0 * sum_self / sum_total
        } else {
            0.0
        };
        metric(&mut m, &format!("{name}_pct"), share, "%");
        metric(
            &mut m,
            &format!("{name}.allocs"),
            pick(&allocs, stats::median),
            "count",
        );
        metric(
            &mut m,
            &format!("{name}.alloc_mb"),
            pick(&mb, stats::median),
            "MiB",
        );
    }
    let mut glue = Vec::new();
    let (mut glue_sum, mut op_sum) = (0.0, 0.0);
    for (op, &ms) in &r.traced_ms {
        let covered = totals.get(op).map_or(0, |o| o.covered_ns) as f64 / 1e6;
        glue.push((ms - covered).max(0.0));
        glue_sum += (ms - covered).max(0.0);
        op_sum += ms;
    }
    metric(&mut m, "bench.glue_ms", stats::min(&glue), "ms");
    metric(
        &mut m,
        "bench.glue_pct",
        if op_sum > 0.0 {
            100.0 * glue_sum / op_sum
        } else {
            0.0
        },
        "%",
    );
    let traced: Vec<f64> = r.traced_ms.values().copied().collect();
    let overhead = stats::min(&traced) / stats::min(&r.op_ms) - 1.0;
    metric(&mut m, "trace.overhead_pct", 100.0 * overhead, "%");
    for name in COUNTS {
        metric(
            &mut m,
            name,
            r.counts.get(name).copied().unwrap_or(0) as f64,
            "count",
        );
    }
    m.push('}');
    m
}

fn run(args: &Args) -> Result<RunResult, String> {
    match args.workload.as_str() {
        "cold_report" => drive::<cold::Cold>(args),
        "edit_session" => drive::<edit::Edit>(args),
        "serve_store" => drive::<serve::Serve>(args),
        w => Err(format!(
            "unknown workload {w:?}; expected cold_report, edit_session or serve_store"
        )),
    }
}

fn main() -> ExitCode {
    one_malloc_arena();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "--steadiness") {
        return steady::main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("slifbench: {e}");
            return ExitCode::from(2);
        }
    };
    let probe_before = probe_ms();
    reset_peak_rss();
    let result = run(&args);
    let probe_after = probe_ms();
    let r = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("slifbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let dir = std::path::Path::new(".slifbench");
        let path = dir.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| r.rec.write_tsv(&path)) {
            eprintln!("slifbench: writing {}: {e}", path.display());
        }
    }
    let tail = stats::tail(&r.op_ms).map_or(String::from("null"), |(p, v)| {
        format!("{{\"p\": {p}, \"ms\": {v}}}")
    });
    println!(
        "# info {{\"workload\": \"{}\", \"seed\": {}, \"ops\": {}, \"untraced_ops\": {}, \
         \"op_p10_ms\": {}, \"op_p50_ms\": {}, \"op_tail\": {tail}, \"setups\": {}, \
         \"setup_p50_s\": {}, \"probe_before_ms\": {probe_before}, \
         \"probe_after_ms\": {probe_after}}}",
        args.workload,
        args.seed,
        r.attempted,
        r.op_ms.len(),
        stats::percentile(&r.op_ms, 10.0),
        stats::median(&r.op_ms),
        r.setup_s.len(),
        stats::median(&r.setup_s),
    );
    let metrics = if args.trace {
        per_layer(&r)
    } else {
        end_to_end(&r)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        r.failed == 0,
        r.attempted,
        r.failed
    );
    ExitCode::SUCCESS
}
