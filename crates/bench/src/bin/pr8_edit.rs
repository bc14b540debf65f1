//! PR 8 bench smoke: incremental edit sessions vs cold rebuild, as JSON.
//!
//! Opens an [`slif_session::EditSession`] over synthetic specifications
//! of ~120 and ~1200 design nodes, then measures:
//!
//! - `cold_open_ns` — the full cold pipeline (parse → resolve → build →
//!   allocate → estimate → lint), i.e. what every keystroke would cost
//!   without the session machinery;
//! - `edit_ns` — one `apply_edit` of a single-procedure body change
//!   (dirty-region reparse → cached build → annotation patch →
//!   memo-slice re-estimate → re-lint).
//!
//! Writes `BENCH_edit.json` (or the path given as the first argument).
//! Fails, without writing, unless the speedup at the ~1200-node size is
//! at least [`SPEEDUP_FLOOR`].

use slif_session::{EditDelta, EditSession, RecomputeTier, SessionConfig};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const COLD_ROUNDS: usize = 7;
const EDITS: usize = 60;
/// Minimum warm-edit speedup over a cold open at the ~1200-node size.
const SPEEDUP_FLOOR: f64 = 10.0;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    xs[xs.len() / 2]
}

/// A synthetic specification: `vars` shared variables and `processes`
/// processes, each reading one variable and writing the next, so the
/// access graph is connected and every node carries real annotations.
fn synth_spec(processes: usize, vars: usize) -> String {
    let mut s = String::from("system Big;\n");
    for v in 0..vars {
        let _ = writeln!(s, "var v{v} : int<16>;");
    }
    for p in 0..processes {
        let _ = writeln!(
            s,
            "process P{p} {{\n  v{} = v{} + 1;\n  wait {};\n}}",
            (p + 1) % vars,
            p % vars,
            1 + p % 7
        );
    }
    s
}

fn measure(processes: usize, vars: usize) -> (usize, f64, f64) {
    let source = synth_spec(processes, vars);
    let config = SessionConfig::default();

    // Cold: what a from-scratch rebuild of the whole pipeline costs.
    let cold = median(
        (0..COLD_ROUNDS)
            .map(|_| {
                let start = Instant::now();
                let (session, update) = EditSession::open(&source, config.clone());
                assert!(update.clean, "synthetic spec must be clean: {:?}", update.diagnostics);
                black_box(&session);
                start.elapsed().as_nanos() as f64
            })
            .collect(),
    );

    // Warm: one-procedure body edits, alternating `+ 1` <-> `+ 2` in
    // P0 so every edit really changes an annotation (dirty set >= 1)
    // while the topology — and therefore the patch tier — holds.
    let (mut session, _) = EditSession::open(&source, config.clone());
    let at = source.find("+ 1;").expect("edit site");
    let nodes = session
        .design()
        .map(|d| d.graph().node_count())
        .unwrap_or(0);
    let mut timings = Vec::with_capacity(EDITS);
    for k in 0..EDITS {
        let text = if k % 2 == 0 { "+ 2" } else { "+ 1" };
        let delta = EditDelta::new(at, at + 3, text);
        let start = Instant::now();
        let update = session.apply_edit(&delta).expect("in-bounds edit");
        timings.push(start.elapsed().as_nanos() as f64);
        assert!(update.clean, "{:?}", update.diagnostics);
        assert_eq!(update.tier, RecomputeTier::Patched, "body edit must patch");
        black_box(&update);
    }
    (nodes, cold, median(timings))
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_edit.json".to_string());

    let mut entries = String::new();
    // The speedup of the last (~1200-node) size.
    let mut floor_speedup = 0.0;
    for (i, &(processes, vars)) in [(60usize, 60usize), (600, 600)].iter().enumerate() {
        let (nodes, cold, edit) = measure(processes, vars);
        let speedup = cold / edit;
        floor_speedup = speedup;
        println!(
            "{nodes:>6} nodes: cold open {:>12.1} us, incremental edit {:>9.1} us \
             ({speedup:.1}x speedup)",
            cold / 1e3,
            edit / 1e3,
        );
        if i > 0 {
            entries.push(',');
        }
        write!(
            entries,
            "\n    {{\"nodes\": {nodes}, \"cold_open_ns\": {cold:.1}, \
             \"edit_ns\": {edit:.1}, \"speedup\": {speedup:.3}}}"
        )
        .expect("write to string");
    }

    let json = format!(
        "{{\n  \"bench\": \"pr8_edit_session\",\n  \"workload\": \
         \"one-procedure body edit through an EditSession vs a cold pipeline rebuild\",\n  \
         \"cold_rounds\": {COLD_ROUNDS},\n  \"edits\": {EDITS},\n  \"speedup_floor\": {SPEEDUP_FLOOR},\n  \
         \"sizes\": [{entries}\n  ]\n}}\n"
    );
    assert!(
        floor_speedup >= SPEEDUP_FLOOR,
        "warm edit speedup {floor_speedup:.2}x at ~1200 nodes fell below the \
         {SPEEDUP_FLOOR}x floor"
    );
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {out_path}");
}
