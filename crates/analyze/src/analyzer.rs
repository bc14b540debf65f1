//! The analyzer driver: compiles (or borrows) the design view, runs
//! every pass in lint order, and aggregates the findings.

use crate::dataflow::AnalysisError;
use crate::flowdrive;
use crate::lint::{AnalysisConfig, LintId, LintLevel};
use crate::report::{AnalysisReport, Finding};
use crate::{annotation, bitwidth, cycle, race, reach};
use slif_core::{ChannelId, CompiledDesign, Design, NodeId, Partition};
use slif_speclang::{FlowProgram, Suppressions};

// `SourceMap` moved to `slif-speclang` (spans originate there); this
// re-export keeps the historical `slif_analyze::SourceMap` path working.
pub use slif_speclang::SourceMap;

/// Everything a pass reads. The partition is pre-filtered: when its
/// slot shape does not match the compiled design (a stale or corrupted
/// pairing the validator reports separately), passes see `None` instead
/// of indexing it out of range.
pub(crate) struct Ctx<'a> {
    pub cd: &'a CompiledDesign,
    pub partition: Option<&'a Partition>,
    pub config: &'a AnalysisConfig,
}

/// Where passes put findings. Applies the configured level (`Allow`ed
/// findings are counted, not kept) and, when the caller supplied the
/// spec's `@allow` suppressions, drops findings whose anchor node's name
/// carries a matching suppression.
pub(crate) struct Sink<'a> {
    config: &'a AnalysisConfig,
    suppressions: Option<(&'a Suppressions, &'a CompiledDesign)>,
    findings: Vec<Finding>,
    suppressed: usize,
}

impl<'a> Sink<'a> {
    pub(crate) fn new(config: &'a AnalysisConfig) -> Self {
        Self {
            config,
            suppressions: None,
            findings: Vec::new(),
            suppressed: 0,
        }
    }

    pub(crate) fn with_suppressions(
        config: &'a AnalysisConfig,
        suppressions: &'a Suppressions,
        cd: &'a CompiledDesign,
    ) -> Self {
        let mut s = Self::new(config);
        if !suppressions.is_empty() {
            s.suppressions = Some((suppressions, cd));
        }
        s
    }

    pub(crate) fn finish(self) -> (Vec<Finding>, usize) {
        (self.findings, self.suppressed)
    }

    /// Whether an in-spec `@allow` covers this finding: the anchor node
    /// is a variable or behavior whose declaration allows the code.
    fn spec_allows(&self, lint: LintId, node: Option<NodeId>) -> bool {
        let (Some((sup, cd)), Some(n)) = (self.suppressions, node) else {
            return false;
        };
        if n.index() >= cd.node_count() {
            return false;
        }
        let name = cd.node_name(n);
        sup.var_allows(name, lint.code()) || sup.behavior_allows(name, lint.code())
    }

    pub(crate) fn emit(
        &mut self,
        lint: LintId,
        node: Option<NodeId>,
        channel: Option<ChannelId>,
        message: String,
    ) {
        if self.spec_allows(lint, node) {
            self.suppressed += 1;
            return;
        }
        match self.config.effective_level(lint) {
            LintLevel::Allow => self.suppressed += 1,
            level => self.findings.push(Finding {
                lint,
                level,
                message,
                node,
                channel,
                span: None,
            }),
        }
    }
}

/// Analyzes a design, compiling the query view first. Equivalent to
/// [`CompiledDesign::compile`] followed by [`analyze_compiled`]; callers
/// that already hold a compiled view should use the latter.
pub fn analyze(
    design: &Design,
    partition: Option<&Partition>,
    config: &AnalysisConfig,
) -> AnalysisReport {
    let cd = CompiledDesign::compile(design);
    analyze_compiled(&cd, partition, config)
}

/// Runs every lint pass over a compiled design view.
///
/// The analysis is *total* and *pure*: it never fails, never panics
/// (every index is range-checked, so fault-injected designs are fair
/// inputs), and the same inputs produce an `==` report with
/// byte-identical rendering.
pub fn analyze_compiled(
    cd: &CompiledDesign,
    partition: Option<&Partition>,
    config: &AnalysisConfig,
) -> AnalysisReport {
    analyze_inner(cd, partition, config, None, None)
}

/// [`analyze`] plus span attachment: findings anchored to a node whose
/// name the [`SourceMap`] knows get that source location.
pub fn analyze_with_sources(
    design: &Design,
    partition: Option<&Partition>,
    config: &AnalysisConfig,
    sources: &SourceMap,
) -> AnalysisReport {
    let cd = CompiledDesign::compile(design);
    analyze_inner(&cd, partition, config, Some(sources), None)
}

/// [`analyze_compiled`] plus span attachment, for callers that already
/// hold a compiled view (edit sessions patch theirs in place instead of
/// recompiling).
pub fn analyze_compiled_with_sources(
    cd: &CompiledDesign,
    partition: Option<&Partition>,
    config: &AnalysisConfig,
    sources: &SourceMap,
) -> AnalysisReport {
    analyze_inner(cd, partition, config, Some(sources), None)
}

/// The full flow-sensitive analysis: everything [`analyze_compiled`]
/// runs, plus the dataflow lints (`A006`–`A009`) solved over `flow` —
/// the behavior-level flow program lowered from the same specification
/// the design was compiled from — and with the spec's `@allow`
/// suppressions honored. Pass `sources` to attach spans to
/// design-node-anchored findings; flow findings carry their statement
/// spans regardless.
pub fn analyze_compiled_with_flow(
    cd: &CompiledDesign,
    partition: Option<&Partition>,
    config: &AnalysisConfig,
    flow: &FlowProgram,
    sources: Option<&SourceMap>,
) -> AnalysisReport {
    analyze_inner(cd, partition, config, sources, Some(flow))
}

/// Verifies every behavior's dataflow fixpoints converge within the
/// configured visit cap ([`AnalysisConfig::max_fixpoint_visits`]).
///
/// The analysis itself is total — a behavior that blows the cap simply
/// degrades to ⊤ and reports nothing — so this is the *typed* surface
/// for callers that want the refusal as an error instead:
/// [`AnalysisError::WideningCapExceeded`] names the behavior and cap.
pub fn check_flow_bounded(flow: &FlowProgram, config: &AnalysisConfig) -> Result<(), AnalysisError> {
    flowdrive::check_bounded(flow, config.max_fixpoint_visits)
}

/// Drops a partition whose slot shape does not match the compiled view
/// (a stale or corrupted pairing the validator reports separately), so
/// passes never index it out of range.
pub(crate) fn shape_checked<'a>(
    cd: &CompiledDesign,
    partition: Option<&'a Partition>,
) -> Option<&'a Partition> {
    partition
        .filter(|p| p.node_slots() == cd.node_count() && p.channel_slots() == cd.channel_count())
}

/// Attaches source spans to node-anchored findings. Spans are a
/// per-revision property of the *source text*, not of the analysis, so
/// memoized reruns re-attach them from the current map every time.
pub(crate) fn attach_spans(cd: &CompiledDesign, map: &SourceMap, findings: &mut [Finding]) {
    for f in findings {
        if let Some(n) = f.node {
            if n.index() < cd.node_count() {
                f.span = map.span_of(cd.node_name(n));
            }
        }
    }
}

fn analyze_inner(
    cd: &CompiledDesign,
    partition: Option<&Partition>,
    config: &AnalysisConfig,
    sources: Option<&SourceMap>,
    flow: Option<&FlowProgram>,
) -> AnalysisReport {
    let partition = shape_checked(cd, partition);
    let ctx = Ctx {
        cd,
        partition,
        config,
    };
    let new_sink = || match flow {
        Some(f) => Sink::with_suppressions(config, &f.suppressions, cd),
        None => Sink::new(config),
    };
    let mut sink = new_sink();
    // A010 findings go to a second sink that closes the pass sequence.
    let mut tail = new_sink();
    race::run(&ctx, &mut sink, &mut tail);
    reach::run(&ctx, &mut sink);
    cycle::run(&ctx, &mut sink);
    bitwidth::run(&ctx, &mut sink);
    annotation::run(&ctx, &mut sink);
    let (mut findings, mut suppressed) = sink.finish();

    if let Some(f) = flow {
        for (pass_findings, pass_suppressed) in flowdrive::run_flow_passes(f, config).passes {
            findings.extend(pass_findings);
            suppressed += pass_suppressed;
        }
    }

    // A010 closes the pass sequence so memoized and unmemoized runs
    // order findings identically. It reads only the CSR (frequencies),
    // so it is reported with or without a flow program.
    let (tail_findings, tail_suppressed) = tail.finish();
    findings.extend(tail_findings);
    suppressed += tail_suppressed;

    if let Some(map) = sources {
        attach_spans(cd, map, &mut findings);
    }
    AnalysisReport::new(findings, suppressed)
}

// The `SourceMap` unit tests moved with the type to
// `slif_speclang::sourcemap`.
