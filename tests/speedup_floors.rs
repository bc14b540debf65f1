//! Speedup floors for the two incremental paths the serving stack leans
//! on:
//!
//! * **Edit sessions** — a warm Patched body edit through an
//!   [`EditSession`] beats a cold [`EditSession::open`] of the same
//!   ~1200-node specification by at least [`EDIT_FLOOR`].
//! * **Memoized re-analysis** — on the largest corpus spec (`ether`), a
//!   one-behavior flow re-analysis through an [`AnalysisMemo`] beats a
//!   cold [`analyze_compiled_with_flow`] by at least [`ANALYZE_FLOOR`],
//!   lowers and solves exactly the edited behavior, and returns the cold
//!   report.
//!
//! Each round times one cold run and then a few warm ones, so a
//! slowdown of the host lands on both sides of the ratio; each floor
//! compares the medians of the cold and the warm timings. The floors
//! hold with margin in a debug build as well as in release: the warm
//! paths skip whole stages, not a constant factor.

use slif::analyze::{
    analyze_compiled_memoized_with_flow, analyze_compiled_with_flow, AnalysisConfig, AnalysisDirt,
    AnalysisMemo, FlowEdit, SourceMap,
};
use slif::core::CompiledDesign;
use slif::frontend::{all_software_partition, allocate_proc_asic, build_design};
use slif::session::{EditDelta, EditSession, RecomputeTier, SessionConfig};
use slif::speclang::{corpus, parse, resolve, FlowProgram, Spec};
use slif::techlib::TechnologyLibrary;
use std::fmt::Write as _;
use std::time::Instant;

/// Minimum warm-edit speedup over a cold open at ~1200 nodes.
const EDIT_FLOOR: f64 = 10.0;
/// Minimum memoized one-behavior re-analysis speedup over a cold
/// flow analysis of `ether`.
const ANALYZE_FLOOR: f64 = 5.0;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    xs[xs.len() / 2]
}

/// Runs `f` once, returning its wall time in ns and its result. The
/// result is dropped by the caller, outside the timed region.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_nanos() as f64, out)
}

/// `vars` shared variables and `processes` processes, each reading one
/// variable and writing the next, so the access graph is connected and
/// every node carries real annotations.
fn chain_spec(processes: usize, vars: usize) -> String {
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

#[test]
fn warm_body_edit_beats_a_cold_open_by_the_floor() {
    const ROUNDS: usize = 15;
    const EDITS_PER_ROUND: usize = 4;
    let source = chain_spec(600, 600);
    let config = SessionConfig::default();
    let (mut session, _) = EditSession::open(&source, config.clone());
    let nodes = session.design().map_or(0, |d| d.graph().node_count());
    assert!(nodes >= 1200, "fixture has {nodes} nodes");
    // Alternating `+ 1` <-> `+ 2` in P0 changes an annotation on every
    // edit while the topology, and so the patch tier, holds.
    let at = source.find("+ 1;").expect("edit site");

    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let (ns, (opened, update)) = timed(|| EditSession::open(&source, config.clone()));
        cold.push(ns);
        assert!(update.clean, "{:?}", update.diagnostics);
        drop(opened);

        for _ in 0..EDITS_PER_ROUND {
            let text = if warm.len() % 2 == 0 { "+ 2" } else { "+ 1" };
            let delta = EditDelta::new(at, at + 3, text);
            let (ns, update) = timed(|| session.apply_edit(&delta).expect("in-bounds edit"));
            warm.push(ns);
            assert!(update.clean, "{:?}", update.diagnostics);
            assert_eq!(update.tier, RecomputeTier::Patched, "body edit must patch");
        }
    }

    let (cold, warm) = (median(cold), median(warm));
    let speedup = cold / warm;
    println!(
        "edit at {nodes} nodes: cold open {cold:.0} ns, warm edit {warm:.0} ns, {speedup:.1}x"
    );
    assert!(
        speedup >= EDIT_FLOOR,
        "warm edit {speedup:.2}x faster than a cold open at {nodes} nodes, below the \
         {EDIT_FLOOR}x floor (cold {cold:.0} ns, warm {warm:.0} ns)"
    );
}

#[test]
fn memoized_reanalysis_beats_cold_analysis_by_the_floor() {
    const ROUNDS: usize = 15;
    const PASSES_PER_ROUND: usize = 2;
    // Two variants of `ether` that differ in one procedure body.
    let variants = [
        corpus::ETHER.to_owned(),
        corpus::ETHER.replace("ifg_timer = 96;", "ifg_timer = 97;"),
    ];
    assert_ne!(
        variants[0], variants[1],
        "edit site vanished from the corpus"
    );
    let site = variants[0].find("ifg_timer = 96;").expect("edit site");
    let rs = resolve(parse(&variants[0]).expect("ether parses")).expect("ether resolves");
    let sources = SourceMap::from_spec(rs.spec());
    let mut design = build_design(&rs, &TechnologyLibrary::proc_asic());
    let arch = allocate_proc_asic(&mut design);
    let partition = all_software_partition(&design, arch);
    let cd = CompiledDesign::compile(&design);
    let config = AnalysisConfig::new();
    let specs: Vec<Spec> = variants
        .iter()
        .map(|src| parse(src).expect("variant parses"))
        .collect();
    let flows: Vec<FlowProgram> = specs.iter().map(FlowProgram::from_spec).collect();
    // The edited behavior: the last one declared before the edit site.
    let edited = [specs[0]
        .behaviors
        .iter()
        .rposition(|b| b.span.start <= site)
        .expect("edit site inside a behavior")];

    let mut memo = AnalysisMemo::new();
    analyze_compiled_memoized_with_flow(
        &cd,
        Some(&partition),
        &config,
        &sources,
        Some(FlowEdit::full(&specs[0])),
        &mut memo,
        &AnalysisDirt::all(),
    );
    let mut flow_dirt = AnalysisDirt::none();
    flow_dirt.flow = true;
    let cold_analysis = |v: usize| {
        analyze_compiled_with_flow(&cd, Some(&partition), &config, &flows[v], Some(&sources))
    };
    // What every warm pass over each variant must return.
    let oracle = [cold_analysis(0), cold_analysis(1)];
    let rendered = oracle.each_ref().map(ToString::to_string);

    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for k in 0..ROUNDS {
        cold.push(timed(|| cold_analysis(k % 2)).0);
        for _ in 0..PASSES_PER_ROUND {
            // Every warm pass flips the edited body against the memo's last run.
            let v = (warm.len() + 1) % 2;
            let before = (memo.flow_behaviors_lowered(), memo.flow_behaviors_solved());
            let (ns, report) = timed(|| {
                analyze_compiled_memoized_with_flow(
                    &cd,
                    Some(&partition),
                    &config,
                    &sources,
                    Some(FlowEdit::dirty(&specs[v], &edited)),
                    &mut memo,
                    &flow_dirt,
                )
            });
            warm.push(ns);
            assert_eq!(
                (memo.flow_behaviors_lowered(), memo.flow_behaviors_solved()),
                (before.0 + 1, before.1 + 1),
                "a warm pass lowered or solved more than the edited behavior"
            );
            assert_eq!(report, oracle[v], "memoized re-analysis diverged from cold");
            assert_eq!(report.to_string(), rendered[v]);
        }
    }

    let (cold, warm) = (median(cold), median(warm));
    let speedup = cold / warm;
    println!("ether re-analysis: cold {cold:.0} ns, warm {warm:.0} ns, {speedup:.1}x");
    assert!(
        speedup >= ANALYZE_FLOOR,
        "memoized re-analysis {speedup:.2}x faster than cold, below the {ANALYZE_FLOOR}x \
         floor (cold {cold:.0} ns, warm {warm:.0} ns)"
    );
}
