//! PR 10 bench smoke: flow-sensitive analysis throughput + memoized
//! re-analysis, as JSON.
//!
//! Two workloads:
//!
//! - **Throughput ladder** — synthetic specifications of ~1k/10k/100k
//!   design nodes run through the full flow-sensitive analyzer
//!   (`analyze_compiled_with_flow`: graph passes A001–A005 plus the
//!   dataflow passes A006–A009 and the unproven-interleaving pass A010),
//!   reporting nodes analyzed per second. The 1k and 10k rungs run one
//!   untimed warm-up round, then record the minimum of 5 and 3 timed
//!   rounds; the 100k rung times a single round. Each rung records its
//!   timed round count.
//! - **Memoized re-analysis** — the largest corpus spec (`ether`) with
//!   one procedure's body edited: a warm
//!   [`analyze_compiled_memoized_with_flow`] pass (flow-only dirt and a
//!   one-behavior dirty set, so only the edited behavior is lowered and
//!   re-solved against the memo's flow state) must beat the cold full
//!   analysis by ≥5x *and* return a report bit-identical to it. Both
//!   facts are asserted here and recorded in the JSON.
//!
//! Writes `BENCH_analyze.json` (or the path given as the first argument).

use slif_analyze::{
    analyze_compiled_memoized_with_flow, analyze_compiled_with_flow, AnalysisConfig, AnalysisDirt,
    AnalysisMemo, FlowEdit, SourceMap,
};
use slif_core::CompiledDesign;
use slif_frontend::{all_software_partition, allocate_proc_asic, build_design};
use slif_speclang::{corpus, parse, parse_with_limits, resolve, FlowProgram, ParseLimits, Spec};
use slif_techlib::TechnologyLibrary;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const SPEEDUP_FLOOR: f64 = 5.0;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    xs[xs.len() / 2]
}

/// A synthetic specification whose behaviors exercise every flow pass:
/// locals, branches, counted loops, arithmetic on shared variables.
fn synth_spec(processes: usize, vars: usize) -> String {
    let mut s = String::from("system Big;\n");
    for v in 0..vars {
        let _ = writeln!(s, "var v{v} : int<16>;");
    }
    for p in 0..processes {
        let _ = writeln!(
            s,
            "process P{p} {{\n  var t : int<16>;\n  t = v{} + 1;\n  \
             if t > 3 {{ v{} = t; }} else {{ v{} = 0; }}\n  \
             for j{p} in 0 .. 4 {{ t = t + 1; }}\n  wait 2;\n}}",
            p % vars,
            (p + 1) % vars,
            (p + 1) % vars,
        );
    }
    s
}

/// Full flow-sensitive analysis over a synthetic spec of roughly
/// `processes + vars` design nodes. Returns (nodes, flow_nodes, ns),
/// where `ns` is the minimum over `rounds` timed rounds, preceded by one
/// untimed warm-up round when there is more than one.
fn throughput(processes: usize, vars: usize, rounds: usize) -> (usize, usize, f64) {
    let source = synth_spec(processes, vars);
    // The 100k-node rung is legitimately bigger than the serving-side
    // parse caps; the bench raises them rather than shrinking the rung.
    let limits = ParseLimits::new()
        .with_max_bytes(64 << 20)
        .with_max_tokens(1 << 24);
    let spec = parse_with_limits(&source, &limits).expect("synthetic spec parses");
    let flow = FlowProgram::from_spec(&spec);
    let flow_nodes: usize = flow.behaviors.iter().map(|b| b.nodes.len()).sum();
    let rs = resolve(spec).expect("synthetic spec resolves");
    let design = build_design(&rs, &TechnologyLibrary::proc_asic());
    let nodes = design.graph().node_count();
    let cd = CompiledDesign::compile(&design);
    let config = AnalysisConfig::new();
    let time = || {
        let start = Instant::now();
        let report = analyze_compiled_with_flow(&cd, None, &config, &flow, None);
        let ns = start.elapsed().as_nanos() as f64;
        black_box(report);
        ns
    };
    if rounds > 1 {
        time();
    }
    let ns = (0..rounds).map(|_| time()).fold(f64::INFINITY, f64::min);
    (nodes, flow_nodes, ns)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_analyze.json".to_string());
    let config = AnalysisConfig::new();

    // -- Throughput ladder --------------------------------------------
    let mut entries = String::new();
    for (i, &(processes, vars, rounds)) in
        [(500usize, 500usize, 5usize), (5_000, 5_000, 3), (50_000, 50_000, 1)]
            .iter()
            .enumerate()
    {
        let (nodes, flow_nodes, ns) = throughput(processes, vars, rounds);
        let nodes_per_sec = nodes as f64 / (ns / 1e9);
        println!(
            "{nodes:>7} nodes ({flow_nodes:>7} flow nodes): full analysis {:>10.1} us \
             ({:>9.0} nodes/s)",
            ns / 1e3,
            nodes_per_sec,
        );
        if i > 0 {
            entries.push(',');
        }
        write!(
            entries,
            "\n    {{\"nodes\": {nodes}, \"flow_nodes\": {flow_nodes}, \"rounds\": {rounds}, \
             \"analyze_ns\": {ns:.1}, \"nodes_per_sec\": {nodes_per_sec:.0}}}"
        )
        .expect("write to string");
    }

    // -- Memoized re-analysis on the largest corpus spec --------------
    // Two variants of `ether` differing in one procedure body; runs
    // alternate between them so every warm pass lowers and re-solves
    // exactly the edited behavior against the memo's flow state.
    let variant_a = corpus::ETHER.to_owned();
    let variant_b = variant_a.replace("ifg_timer = 96;", "ifg_timer = 97;");
    assert_ne!(variant_a, variant_b, "edit site vanished from the corpus");
    let site = variant_a.find("ifg_timer = 96;").expect("edit site");
    let rs = resolve(parse(&variant_a).expect("ether parses")).expect("ether resolves");
    let sources = SourceMap::from_spec(rs.spec());
    let mut design = build_design(&rs, &TechnologyLibrary::proc_asic());
    let arch = allocate_proc_asic(&mut design);
    let partition = all_software_partition(&design, arch);
    let cd = CompiledDesign::compile(&design);
    let specs: Vec<Spec> = [&variant_a, &variant_b]
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

    const ROUNDS: usize = 30;
    let cold_ns = median(
        (0..ROUNDS)
            .map(|k| {
                let flow = &flows[k % 2];
                let start = Instant::now();
                let report =
                    analyze_compiled_with_flow(&cd, Some(&partition), &config, flow, Some(&sources));
                let ns = start.elapsed().as_nanos() as f64;
                black_box(report);
                ns
            })
            .collect(),
    );

    let mut memo = AnalysisMemo::new();
    // Seed the memo once (cold), then time flow-only warm passes.
    let _ = analyze_compiled_memoized_with_flow(
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
    let seeded = (memo.flow_behaviors_lowered(), memo.flow_behaviors_solved());
    let warm_ns = median(
        (0..ROUNDS)
            .map(|k| {
                let spec = &specs[(k + 1) % 2];
                let start = Instant::now();
                let report = analyze_compiled_memoized_with_flow(
                    &cd,
                    Some(&partition),
                    &config,
                    &sources,
                    Some(FlowEdit::dirty(spec, &edited)),
                    &mut memo,
                    &flow_dirt,
                );
                let ns = start.elapsed().as_nanos() as f64;
                black_box(report);
                ns
            })
            .collect(),
    );

    // Each warm pass lowered and solved the edited behavior alone.
    assert_eq!(
        (memo.flow_behaviors_lowered(), memo.flow_behaviors_solved()),
        (seeded.0 + ROUNDS as u64, seeded.1 + ROUNDS as u64),
        "a warm pass lowered or solved more than the edited behavior"
    );

    // Bit-identity: the warm (memoized, cache-sliced) report must equal
    // the cold full analysis of the same edited program exactly.
    let warm_report = analyze_compiled_memoized_with_flow(
        &cd,
        Some(&partition),
        &config,
        &sources,
        Some(FlowEdit::dirty(&specs[1], &edited)),
        &mut memo,
        &flow_dirt,
    );
    let cold_report =
        analyze_compiled_with_flow(&cd, Some(&partition), &config, &flows[1], Some(&sources));
    assert_eq!(
        warm_report, cold_report,
        "memoized re-analysis diverged from the cold run"
    );
    assert_eq!(warm_report.to_string(), cold_report.to_string());

    let speedup = cold_ns / warm_ns;
    println!(
        "ether one-procedure edit: cold analysis {:>9.1} us, memoized re-analysis \
         {:>8.1} us ({speedup:.1}x speedup, bit-identical)",
        cold_ns / 1e3,
        warm_ns / 1e3,
    );
    assert!(
        speedup >= SPEEDUP_FLOOR,
        "memoized re-analysis speedup {speedup:.2}x fell below the {SPEEDUP_FLOOR}x floor \
         (cold {cold_ns:.0} ns, warm {warm_ns:.0} ns)"
    );

    let json = format!(
        "{{\n  \"bench\": \"pr10_analyze\",\n  \"workload\": \
         \"flow-sensitive analysis throughput; memoized one-procedure re-analysis on ether\",\n  \
         \"sizes\": [{entries}\n  ],\n  \"memoized\": {{\"corpus\": \"ether\", \
         \"rounds\": {ROUNDS}, \"cold_analyze_ns\": {cold_ns:.1}, \
         \"warm_reanalyze_ns\": {warm_ns:.1}, \"speedup\": {speedup:.3}, \
         \"speedup_floor\": {SPEEDUP_FLOOR}, \"bit_identical\": true}}\n}}\n"
    );
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {out_path}");
}
