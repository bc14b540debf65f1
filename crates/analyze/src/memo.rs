//! Sliced re-linting for edit sessions.
//!
//! The analyzer is pure: each pass is a function of the compiled view,
//! the partition, the specification's behaviors, and the configuration.
//! When an incremental edit patched annotations in place — topology and
//! partition untouched — most passes read nothing the edit changed:
//!
//! | pass               | reads                                       |
//! |--------------------|---------------------------------------------|
//! | `race` (A001)      | topology, channel tags *and frequencies*, partition |
//! | `reach` (A002)     | topology only                               |
//! | `cycle` (A003)     | topology only                               |
//! | `bitwidth` (A004)  | channel bits, bus widths, partition, config |
//! | `annotation` (A005)| weight tables, class kinds                  |
//! | flow (A006–A009)   | the spec's behavior bodies, per behavior    |
//! | `race` (A010)      | topology, channel tags and frequencies, partition |
//!
//! A frequency-only edit re-runs just the race pass, which fills both
//! the `A001` and the `A010` slot from one walk (the proven/unproven
//! split is a happens-before judgment over observed frequencies); a
//! weight tweak re-runs `annotation` alone; any text
//! edit re-runs the flow passes, which are sliced a second time, per
//! behavior.
//!
//! [`AnalysisMemo`] caches each pass's findings between runs;
//! [`analyze_compiled_memoized`] re-runs only the passes an
//! [`AnalysisDirt`] marks stale and splices the rest from the cache.
//! Design-node-anchored findings are cached span-less and spans
//! re-attached from the current [`SourceMap`] on every call, because an
//! edit moves spans even when it changes no finding.
//!
//! The flow passes read the specification through a [`FlowEdit`]: the
//! spec plus the behaviors an edit touched. The memo keeps the resident
//! flow state of every behavior (structural hash, callees, return
//! summary, raw findings with statement spans), so a flow re-run lowers
//! and re-solves only the dirty behaviors, plus a clean caller whose
//! callee's return range moved. A clean behavior keeps its cached
//! findings with spans rebased by its declaration's line shift. That
//! state is keyed by behavior structure, not design topology: it stays
//! valid across [`AnalysisDirt::all`] re-runs, so an edit that
//! recompiles the design keeps it too.

use crate::analyzer::{attach_spans, shape_checked, Ctx, Sink, SourceMap};
use crate::flowdrive::{self, FlowCache, FLOW_PASSES};
use crate::lint::AnalysisConfig;
use crate::report::{AnalysisReport, Finding};
use crate::{annotation, bitwidth, cycle, race, reach};
use slif_core::{AnnotationDelta, CompiledDesign, Partition};
use slif_speclang::{Spec, Suppressions};

/// Number of lint pass slots, in execution order: the five design-level
/// passes, the four flow passes, and the trailing `A010` slot the race
/// pass fills alongside `A001`.
const PASSES: usize = 10;

/// Index of the first flow pass (`A006`) in execution order.
const FLOW_BASE: usize = 5;

/// Which analyzer inputs changed since the memo was last valid.
///
/// The contract mirrors
/// [`patch_annotations_delta`](CompiledDesign::patch_annotations_delta):
/// the flags describe *annotation* changes on an otherwise identical
/// compiled view, plus a [`flow`](Self::flow) flag for specification
/// text edits (which behaviors changed is the [`FlowEdit`]'s business).
/// Any change the flags cannot express — topology, partition contents,
/// thresholds — must use [`AnalysisDirt::all`], which re-runs every pass
/// (and is what an empty memo does anyway).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct AnalysisDirt {
    /// Re-run every pass regardless of the other flags.
    pub everything: bool,
    /// Some channel's bit width or concurrency tag changed
    /// (`race`, for both `A001` and `A010`, and `bitwidth` re-run).
    pub chan_bits_or_tags: bool,
    /// Some channel's access frequency changed (`race` re-runs for
    /// both `A001` and `A010`: frequencies decide the proven/unproven
    /// split).
    pub chan_freqs: bool,
    /// Some node's weight row changed (`annotation` re-runs).
    pub weights: bool,
    /// The specification text changed since the last run — behavior
    /// bodies, suppressions, or just spans may differ. The `A006`–`A009`
    /// passes re-run, lowering and re-solving only the behaviors the
    /// [`FlowEdit`] marks dirty (plus clean callers whose callee's
    /// return range moved); every other behavior keeps its cached solve
    /// with its spans rebased.
    pub flow: bool,
}

impl AnalysisDirt {
    /// Nothing changed: every cached pass result is still valid.
    pub fn none() -> Self {
        Self::default()
    }

    /// Everything may have changed: re-run all passes.
    pub fn all() -> Self {
        Self {
            everything: true,
            ..Self::default()
        }
    }

    /// Whether pass `i` (execution order) must re-run.
    fn stale(&self, i: usize) -> bool {
        if self.everything {
            return true;
        }
        match i {
            1 | 2 => false,              // reach, cycle: topology only
            3 => self.chan_bits_or_tags, // bitwidth: channel bits
            4 => self.weights,           // annotation: weight tables
            5..=8 => self.flow,          // flow passes: flow program
            // race, A001 (0) and A010 (9): tags + freqs
            _ => self.chan_bits_or_tags || self.chan_freqs,
        }
    }
}

impl From<&AnnotationDelta> for AnalysisDirt {
    /// The dirt an in-place annotation patch implies. An annotation
    /// patch never touches behavior bodies, so `flow` stays clean.
    fn from(delta: &AnnotationDelta) -> Self {
        Self {
            everything: false,
            chan_bits_or_tags: delta.chan_bits_or_tags,
            chan_freqs: delta.chan_freqs,
            weights: delta.weights,
            flow: false,
        }
    }
}

/// One pass's cached result: its findings (span-less for node-anchored
/// ones) and how many it suppressed under `Allow` levels or `@allow`.
#[derive(Debug, Clone, Default)]
struct PassCache {
    findings: Vec<Finding>,
    suppressed: usize,
}

/// The specification side of a memoized flow analysis: the spec whose
/// behaviors the `A006`–`A009` passes lower, and which of them may have
/// changed since the memo's previous run.
#[derive(Debug, Clone, Copy)]
pub struct FlowEdit<'a> {
    spec: &'a Spec,
    dirty: Option<&'a [usize]>,
}

impl<'a> FlowEdit<'a> {
    /// Any behavior may have changed (a first run, a recovery from
    /// broken text, an edit to a global declaration): every behavior is
    /// lowered, and cached solves are reused where a behavior's
    /// structure and callee summaries are unchanged.
    pub fn full(spec: &'a Spec) -> Self {
        Self { spec, dirty: None }
    }

    /// Only the behaviors at these declaration indices of `spec` may
    /// differ from the memo's previous run. Every other behavior's text
    /// must be byte-identical to that run's, at most moved whole lines,
    /// and no port, constant or system variable may have changed: those
    /// behaviors are not lowered again, and their cached findings' spans
    /// are rebased by their declaration's shift.
    pub fn dirty(spec: &'a Spec, behaviors: &'a [usize]) -> Self {
        Self {
            spec,
            dirty: Some(behaviors),
        }
    }
}

/// Cached per-pass lint results for one (compiled view, partition,
/// config, specification) lineage. See [`analyze_compiled_memoized`].
#[derive(Debug, Default)]
pub struct AnalysisMemo {
    /// The configuration the cached results were produced under; a
    /// mismatch invalidates everything (levels decide suppression).
    config: Option<AnalysisConfig>,
    /// Fingerprint of the spec's `@allow` set the cached results were
    /// produced under (`None` = no flow program); a mismatch reseeds.
    sup_fp: Option<u64>,
    passes: Option<[PassCache; PASSES]>,
    /// The resident per-behavior flow state, keyed by structural hash.
    /// Survives pass-cache reseeds and `AnalysisDirt::all` re-runs:
    /// levels and suppressions are applied at materialization, never
    /// baked into the cached solves.
    flow_cache: FlowCache,
    /// Passes served from cache across all runs (operational metric).
    reused: u64,
    /// Passes actually executed across all runs.
    ran: u64,
}

impl AnalysisMemo {
    /// Creates an empty memo; the first run seeds every pass.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lint passes served from cache across all runs.
    pub fn passes_reused(&self) -> u64 {
        self.reused
    }

    /// Lint passes actually executed across all runs (including seeding).
    pub fn passes_run(&self) -> u64 {
        self.ran
    }

    /// Behaviors the flow passes lowered across all runs.
    pub fn flow_behaviors_lowered(&self) -> u64 {
        self.flow_cache.lowered
    }

    /// Behaviors the flow passes solved across all runs; the rest reused
    /// their cached solve.
    pub fn flow_behaviors_solved(&self) -> u64 {
        self.flow_cache.solved
    }
}

/// [`analyze_compiled_with_sources`](crate::analyze_compiled_with_sources)
/// with per-pass memoization: passes whose inputs `dirt` leaves clean are
/// spliced from `memo` instead of re-running. With a warm memo and any
/// `dirt`, the report is `==` (and renders byte-identical) to the
/// unmemoized analyzer — provided the caller upholds the [`AnalysisDirt`]
/// contract that topology and partition are unchanged since the memo was
/// seeded. When in doubt, pass [`AnalysisDirt::all`].
pub fn analyze_compiled_memoized(
    cd: &CompiledDesign,
    partition: Option<&Partition>,
    config: &AnalysisConfig,
    sources: &SourceMap,
    memo: &mut AnalysisMemo,
    dirt: &AnalysisDirt,
) -> AnalysisReport {
    analyze_compiled_memoized_with_flow(cd, partition, config, sources, None, memo, dirt)
}

/// [`analyze_compiled_with_flow`](crate::analyze_compiled_with_flow)
/// with per-pass memoization, over `FlowProgram::from_spec` of the
/// [`FlowEdit`]'s spec. Equal to the unmemoized flow analysis under the
/// [`AnalysisDirt`] and [`FlowEdit`] contracts; when `dirt` marks the
/// flow passes stale, only the edit's dirty behaviors are lowered, and
/// only behaviors whose structure (or callee summaries) changed
/// re-solve — the rest come from the memo's per-behavior flow state.
pub fn analyze_compiled_memoized_with_flow(
    cd: &CompiledDesign,
    partition: Option<&Partition>,
    config: &AnalysisConfig,
    sources: &SourceMap,
    flow: Option<FlowEdit<'_>>,
    memo: &mut AnalysisMemo,
    dirt: &AnalysisDirt,
) -> AnalysisReport {
    let partition = shape_checked(cd, partition);
    let ctx = Ctx {
        cd,
        partition,
        config,
    };
    let suppressions = flow.map(|f| Suppressions::from_spec(f.spec));
    let sup_fp = suppressions.as_ref().map(Suppressions::fingerprint);
    let seeded =
        memo.passes.is_some() && memo.config.as_ref() == Some(config) && memo.sup_fp == sup_fp;
    if !seeded {
        memo.passes = Some(Default::default());
        memo.config = Some(*config);
        memo.sup_fp = sup_fp;
    }
    // The borrow is re-taken after the reset above.
    let passes = match memo.passes.as_mut() {
        Some(p) => p,
        None => unreachable!("memo.passes seeded just above"),
    };
    let new_sink = || match &suppressions {
        Some(sup) => Sink::with_suppressions(config, sup, cd),
        None => Sink::new(config),
    };

    // A001 (first slot) and A010 (last slot) come from one race walk,
    // so they go stale, and re-run, together.
    if seeded && !dirt.stale(0) {
        memo.reused += 2;
    } else {
        let (mut a001, mut a010) = (new_sink(), new_sink());
        race::run(&ctx, &mut a001, &mut a010);
        for (slot, sink) in [(0, a001), (PASSES - 1, a010)] {
            let (findings, suppressed) = sink.finish();
            passes[slot] = PassCache {
                findings,
                suppressed,
            };
        }
        memo.ran += 2;
    }

    let runners: [fn(&Ctx<'_>, &mut Sink<'_>); FLOW_BASE - 1] =
        [reach::run, cycle::run, bitwidth::run, annotation::run];
    for (i, run) in (1..).zip(runners) {
        if seeded && !dirt.stale(i) {
            memo.reused += 1;
            continue;
        }
        let mut sink = new_sink();
        run(&ctx, &mut sink);
        let (findings, suppressed) = sink.finish();
        passes[i] = PassCache {
            findings,
            suppressed,
        };
        memo.ran += 1;
    }

    // The four flow passes share one solve, so they go stale (and
    // re-run) together.
    if seeded && !dirt.stale(FLOW_BASE) {
        memo.reused += FLOW_PASSES as u64;
    } else if let (Some(f), Some(sup)) = (flow, &suppressions) {
        let results = flowdrive::run_flow_edit(f.spec, f.dirty, sup, config, &mut memo.flow_cache);
        for (p, (findings, suppressed)) in results.passes.into_iter().enumerate() {
            passes[FLOW_BASE + p] = PassCache {
                findings,
                suppressed,
            };
            memo.ran += 1;
        }
    } else {
        for p in 0..FLOW_PASSES {
            passes[FLOW_BASE + p] = PassCache::default();
            memo.ran += 1;
        }
    }

    let mut findings: Vec<Finding> = passes
        .iter()
        .flat_map(|p| p.findings.iter().cloned())
        .collect();
    let suppressed = passes.iter().map(|p| p.suppressed).sum();
    attach_spans(cd, sources, &mut findings);
    AnalysisReport::new(findings, suppressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_compiled_with_sources;
    use crate::lint::{LintId, LintLevel};
    use slif_core::gen::DesignGenerator;

    fn fixture() -> (CompiledDesign, Partition) {
        let (design, partition) = DesignGenerator::new(41)
            .behaviors(10)
            .variables(8)
            .processors(2)
            .memories(1)
            .buses(1)
            .build();
        (CompiledDesign::compile(&design), partition)
    }

    fn dirt(bits: bool, freqs: bool, weights: bool, flow: bool) -> AnalysisDirt {
        AnalysisDirt {
            everything: false,
            chan_bits_or_tags: bits,
            chan_freqs: freqs,
            weights,
            flow,
        }
    }

    #[test]
    fn memoized_equals_unmemoized_for_every_dirt() {
        let (cd, part) = fixture();
        let config = AnalysisConfig::new();
        let sources = SourceMap::default();
        let plain = analyze_compiled_with_sources(&cd, Some(&part), &config, &sources);

        let mut memo = AnalysisMemo::new();
        let dirts = [
            AnalysisDirt::all(),
            AnalysisDirt::none(),
            dirt(true, false, false, false),
            dirt(false, true, false, false),
            dirt(false, false, true, false),
            dirt(false, false, false, true),
            AnalysisDirt::none(),
        ];
        for dirt in dirts {
            let memoized =
                analyze_compiled_memoized(&cd, Some(&part), &config, &sources, &mut memo, &dirt);
            assert_eq!(memoized, plain, "dirt {dirt:?}");
            assert_eq!(memoized.to_string(), plain.to_string(), "dirt {dirt:?}");
        }
        // Seeding ran 10 passes; later runs re-ran only stale ones:
        // none=0, bits=race+bitwidth+A010=3, freqs=race+A010=2,
        // weights=annotation=1, flow=A006..A009=4, none=0.
        assert_eq!(memo.passes_run(), 20);
        assert!(memo.passes_reused() > 0);
    }

    #[test]
    fn annotation_dirt_tracks_a_real_weight_change() {
        let (mut design, partition) = DesignGenerator::new(17)
            .behaviors(6)
            .variables(4)
            .processors(2)
            .buses(1)
            .build();
        let config = AnalysisConfig::new();
        let sources = SourceMap::default();
        let mut cd = CompiledDesign::compile(&design);
        let mut memo = AnalysisMemo::new();
        let first = analyze_compiled_memoized(
            &cd,
            Some(&partition),
            &config,
            &sources,
            &mut memo,
            &AnalysisDirt::all(),
        );
        assert_eq!(
            first,
            analyze_compiled_with_sources(&cd, Some(&partition), &config, &sources)
        );

        // Clearing a node's weights trips the annotation lint; the memo
        // must pick it up from a weights-only dirt.
        let victim = design.graph().behavior_ids().next().unwrap();
        design.graph_mut().node_mut(victim).ict_mut().clear();
        design.graph_mut().node_mut(victim).size_mut().clear();
        let delta = cd.patch_annotations_delta(&design).unwrap();
        assert!(delta.weights);
        let sliced = analyze_compiled_memoized(
            &cd,
            Some(&partition),
            &config,
            &sources,
            &mut memo,
            &AnalysisDirt::from(&delta),
        );
        assert_eq!(
            sliced,
            analyze_compiled_with_sources(&cd, Some(&partition), &config, &sources),
            "sliced re-lint missed the weight change"
        );
        assert_ne!(sliced, first, "weight wipe must surface new findings");
    }

    #[test]
    fn config_change_invalidates_the_memo() {
        let (cd, part) = fixture();
        let sources = SourceMap::default();
        let mut memo = AnalysisMemo::new();
        let loud = AnalysisConfig::new();
        let _ = analyze_compiled_memoized(
            &cd,
            Some(&part),
            &loud,
            &sources,
            &mut memo,
            &AnalysisDirt::all(),
        );
        // Silence every lint: with AnalysisDirt::none, a stale memo would
        // happily return the loud findings. The config check must reseed.
        let mut quiet = AnalysisConfig::new();
        for lint in LintId::ALL {
            quiet = quiet.with_level(lint, LintLevel::Allow);
        }
        let report = analyze_compiled_memoized(
            &cd,
            Some(&part),
            &quiet,
            &sources,
            &mut memo,
            &AnalysisDirt::none(),
        );
        assert_eq!(
            report,
            analyze_compiled_with_sources(&cd, Some(&part), &quiet, &sources)
        );
        assert!(report.findings().is_empty());
    }

    #[test]
    fn flow_memo_equals_unmemoized_flow_analysis() {
        use crate::analyze_compiled_with_flow;
        use slif_speclang::{parse, FlowProgram};

        let src = "system T;\nvar g : int<8>;\n\
                   process Main { g = g + 1; wait 1; }\n\
                   func F() -> int<8> { var x : int<8>; x = 1; return x; }\n";
        let spec = parse(src).expect("parse");
        let flow = FlowProgram::from_spec(&spec);
        let (cd, part) = fixture();
        let config = AnalysisConfig::new();
        let sources = SourceMap::default();
        let plain = analyze_compiled_with_flow(&cd, Some(&part), &config, &flow, Some(&sources));

        let mut memo = AnalysisMemo::new();
        for d in [
            AnalysisDirt::all(),
            AnalysisDirt::none(),
            dirt(false, false, false, true),
        ] {
            let memoized = analyze_compiled_memoized_with_flow(
                &cd,
                Some(&part),
                &config,
                &sources,
                Some(FlowEdit::full(&spec)),
                &mut memo,
                &d,
            );
            assert_eq!(memoized, plain, "dirt {d:?}");
            assert_eq!(memoized.to_string(), plain.to_string(), "dirt {d:?}");
        }
        // The flow-dirty rerun lowered both behaviors again but served
        // both solves from the flow state (structural hashes unchanged).
        assert!(memo.passes_reused() > 0);
        assert_eq!(memo.flow_behaviors_lowered(), 4);
        assert_eq!(memo.flow_behaviors_solved(), 2);
    }
}
