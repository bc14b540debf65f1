//! # slif-session — incremental edit sessions over the SLIF pipeline
//!
//! The paper's interactivity claim is that SLIF makes estimation fast
//! enough "for interactive system design". An interactive tool does not
//! re-run the whole pipeline per keystroke: it holds the pipeline state
//! — source text, AST, annotated design, compiled view, estimator memos,
//! lint report — and recomputes only the slice an edit invalidates.
//!
//! [`EditSession`] is that handle. [`EditSession::apply_edit`] takes a
//! byte-range [`EditDelta`] and routes it down the cheapest sound path:
//!
//! 1. **Parse** — dirty-region reparse
//!    ([`reparse_with_edit`](slif_speclang::reparse_with_edit)): only the
//!    top-level items the edit touches are re-lexed and re-parsed,
//!    downstream spans are rebased.
//! 2. **Build** — per-behavior construction cache
//!    ([`BuildCache`](slif_frontend::BuildCache)): only behaviors whose
//!    declarations changed are re-lowered, re-compiled, re-synthesized.
//! 3. **Estimate** — annotation patch
//!    ([`rebase_annotations`](IncrementalEstimator::rebase_annotations)):
//!    when the edit left the graph topology intact, the compiled view is
//!    patched in place and only memo entries depending on dirty nodes
//!    recompute; a topology change falls back to a cold compile.
//! 4. **Lint** — the analyzer re-runs over the patched compiled view
//!    with spans re-attached from the rebased [`SourceMap`]; the flow
//!    lints lower and re-solve only the behaviors the edit touched.
//!
//! Whatever the path, the state after `apply_edit` is **bit-identical**
//! to rebuilding cold from the final text — the property suite holds the
//! session to `==` on the design, the estimate report, and the analysis
//! report.
//!
//! Broken text is a first-class state, not an error: an edit that breaks
//! the parse (or resolution) keeps the last good reports available for
//! display, and the session recovers incrementally once an edit makes
//! the text clean again.
//!
//! # Examples
//!
//! ```
//! use slif_session::{EditDelta, EditSession, SessionConfig};
//!
//! let src = "system T;\nvar x : int<8>;\nprocess Main { x = x + 1; wait 10; }\n";
//! let (mut session, update) = EditSession::open(src, SessionConfig::default());
//! assert!(update.clean);
//!
//! // Edit the wait: only Main's slice recomputes.
//! let at = src.find("10").unwrap();
//! let update = session.apply_edit(&EditDelta::new(at, at + 2, "25"))?;
//! assert!(update.clean);
//! assert!(session.estimate().is_some());
//! # Ok::<(), slif_session::EditError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Sessions sit behind a server: every degenerate input must surface as
// data (diagnostics, stale state), never a panic.
#![warn(clippy::expect_used)]
#![warn(clippy::unwrap_used)]

use slif_analyze::{
    analyze_compiled_memoized_with_flow, AnalysisConfig, AnalysisDirt, AnalysisMemo,
    AnalysisReport, FlowEdit,
};
use slif_core::{CompiledDesign, Design, Partition};
use slif_estimate::{DesignReport, EstimatorConfig, IncrementalEstimator};
use slif_frontend::{
    all_software_partition, build_design_cached, try_allocate_proc_asic, try_patch_design,
    BuildCache, BuildOptions,
};
use slif_speclang::{
    parse_partial_with_limits, try_resolve, Diagnostic, ParseLimits, Reparse, ReparseScope,
    ResolvedSpec, SourceMap, Spec,
};
use slif_techlib::TechnologyLibrary;

pub use slif_speclang::{EditDelta, EditError};

/// Everything an [`EditSession`] pins for its lifetime: parser caps, the
/// technology library, and the estimator/analyzer configurations. All
/// recomputation happens under these exact settings, which is what makes
/// warm results comparable to cold ones.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Caps on specification source (bytes, tokens, nesting depth).
    pub parse_limits: ParseLimits,
    /// The technology library designs are built against.
    pub library: TechnologyLibrary,
    /// The estimator configuration.
    pub estimator: EstimatorConfig,
    /// Per-lint levels and thresholds.
    pub analysis: AnalysisConfig,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            parse_limits: ParseLimits::default(),
            library: TechnologyLibrary::proc_asic(),
            estimator: EstimatorConfig::default(),
            analysis: AnalysisConfig::new(),
        }
    }
}

/// Which recompute path an edit took, cheapest to most expensive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecomputeTier {
    /// The text is broken (parse or resolution diagnostics): pipeline
    /// state was left at the last good revision, nothing recomputed.
    Deferred,
    /// Topology unchanged: the compiled view was patched in place and
    /// only memo entries depending on dirty nodes recomputed.
    Patched,
    /// Topology changed (or there was no prior state): the design was
    /// recompiled and the estimator rebuilt cold. The build-level
    /// behavior cache still applies.
    Recompiled,
}

/// What one [`EditSession::apply_edit`] (or [`EditSession::open`]) did
/// and produced. Reports are clones of the session's current state:
/// stale-but-displayable when `clean` is false.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SessionUpdate {
    /// Monotonic revision of the session's text, starting at 0.
    pub revision: u64,
    /// Whether the current text parses and resolves cleanly.
    pub clean: bool,
    /// The recompute path taken.
    pub tier: RecomputeTier,
    /// How much of the document was re-lexed/re-parsed.
    pub scope: ReparseScope,
    /// Estimator nodes invalidated by the edit (0 for cold rebuilds and
    /// deferred updates).
    pub dirty_nodes: usize,
    /// Rendered parse/resolution diagnostics (empty when `clean`).
    pub diagnostics: Vec<String>,
    /// The estimate report for the last *clean* revision, if any.
    pub estimate: Option<DesignReport>,
    /// The lint report for the last *clean* revision, if any.
    pub analysis: Option<AnalysisReport>,
}

/// Pipeline state of the last clean revision.
#[derive(Debug)]
struct GoodState {
    design: Design,
    partition: Partition,
    estimator: IncrementalEstimator<'static>,
    estimate: DesignReport,
    analysis: AnalysisReport,
    /// Per-pass lint cache, sliced by the annotation delta on warm
    /// edits; it also holds the per-behavior flow state.
    memo: AnalysisMemo,
}

/// A long-lived handle over one evolving specification and every derived
/// pipeline product. See the crate docs for the recompute tiers.
#[derive(Debug)]
pub struct EditSession {
    config: SessionConfig,
    source: String,
    revision: u64,
    /// AST of the current text when its *parse* is clean (resolution may
    /// still have failed) — the precondition for dirty-region reparse.
    parsed: Option<Spec>,
    /// Current parse/resolution diagnostics (empty iff clean).
    diagnostics: Vec<Diagnostic>,
    good: Option<GoodState>,
    cache: BuildCache,
    /// Edits that took the cold path, for operational metrics.
    full_rebuilds: u64,
}

impl EditSession {
    /// Opens a session over `source`, running the full pipeline once.
    /// Broken text is accepted: the session opens with diagnostics and
    /// no reports, and recovers when an edit fixes the text.
    pub fn open(source: impl Into<String>, config: SessionConfig) -> (Self, SessionUpdate) {
        let source = source.into();
        let (spec, diags) = parse_partial_with_limits(&source, &config.parse_limits);
        let mut session = Self {
            config,
            source: String::new(),
            revision: 0,
            parsed: None,
            diagnostics: Vec::new(),
            good: None,
            cache: BuildCache::new(),
            full_rebuilds: 0,
        };
        let update = session.ingest(source, spec, diags, ReparseScope::Full);
        (session, update)
    }

    /// The current text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Monotonic revision counter: 0 at open, +1 per applied edit.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Whether the current text parses and resolves cleanly.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Current parse/resolution diagnostics (empty when clean).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// The estimate report for the last clean revision.
    pub fn estimate(&self) -> Option<&DesignReport> {
        self.good.as_ref().map(|g| &g.estimate)
    }

    /// The lint report for the last clean revision.
    pub fn analysis(&self) -> Option<&AnalysisReport> {
        self.good.as_ref().map(|g| &g.analysis)
    }

    /// The annotated design of the last clean revision.
    pub fn design(&self) -> Option<&Design> {
        self.good.as_ref().map(|g| &g.design)
    }

    /// The all-software partition of the last clean revision.
    pub fn partition(&self) -> Option<&Partition> {
        self.good.as_ref().map(|g| &g.partition)
    }

    /// Edits (including the open) that rebuilt the estimator cold.
    pub fn full_rebuilds(&self) -> u64 {
        self.full_rebuilds
    }

    /// Applies one text edit and recomputes the affected slice.
    ///
    /// # Errors
    ///
    /// [`EditError`] when the delta's byte range is out of bounds or
    /// splits a UTF-8 character. The session is unchanged by such an
    /// edit — the revision does not advance.
    pub fn apply_edit(&mut self, delta: &EditDelta) -> Result<SessionUpdate, EditError> {
        let reparse = match self.parsed.take() {
            Some(spec) => {
                // The owned reparse moves untouched declarations into
                // the new AST instead of cloning the document.
                let r = slif_speclang::reparse_with_edit_owned(
                    &self.source,
                    spec,
                    delta,
                    &self.config.parse_limits,
                );
                match r {
                    Ok(reparse) => reparse,
                    Err((spec, e)) => {
                        self.parsed = Some(spec);
                        return Err(e);
                    }
                }
            }
            // Broken document: no clean AST to reparse against, so
            // splice and parse from scratch.
            None => {
                let source = delta.apply(&self.source)?;
                let (spec, diags) = parse_partial_with_limits(&source, &self.config.parse_limits);
                Reparse {
                    source,
                    spec,
                    diags,
                    scope: ReparseScope::Full,
                }
            }
        };
        self.revision += 1;
        let Reparse {
            source,
            spec,
            diags,
            scope,
        } = reparse;
        Ok(self.ingest(source, spec, diags, scope))
    }

    /// Installs a reparsed revision: records text/AST/diagnostics, then
    /// pushes clean revisions down the pipeline.
    fn ingest(
        &mut self,
        source: String,
        spec: Spec,
        diags: Vec<Diagnostic>,
        scope: ReparseScope,
    ) -> SessionUpdate {
        // Whether the *previous* revision was clean and built: the
        // precondition for the in-place patch path, whose region-derived
        // dirty set only covers this one edit. After a broken revision
        // the accumulated changes are unknown, so the build-cache path
        // (which re-checks every behavior) takes over.
        let prev_good = self.diagnostics.is_empty() && self.good.is_some();
        self.source = source;
        if !diags.is_empty() {
            self.parsed = None;
            self.diagnostics = diags;
            return self.update(RecomputeTier::Deferred, scope, 0);
        }
        // `try_resolve` hands the AST back on failure, so the session
        // keeps its reparse seed without cloning a whole spec per edit
        // (the clone was the single largest warm-path cost at 1k nodes).
        let resolved = match try_resolve(spec) {
            Ok(rs) => rs,
            Err((spec, e)) => {
                self.parsed = Some(spec);
                self.diagnostics = e.diagnostics().to_vec();
                return self.update(RecomputeTier::Deferred, scope, 0);
            }
        };
        self.diagnostics.clear();
        let update = self.recompute(&resolved, scope, prev_good);
        self.parsed = Some(resolved.into_spec());
        update
    }

    /// The post-resolution half of [`ingest`](Self::ingest): fast-path
    /// dispatch, cold rebuild, pipeline routing.
    fn recompute(
        &mut self,
        resolved: &ResolvedSpec,
        scope: ReparseScope,
        prev_good: bool,
    ) -> SessionUpdate {
        // The behaviors a region-confined edit over a clean revision may
        // have touched; `None` when any behavior may have changed.
        let candidates = match scope {
            ReparseScope::Region { start, end } if prev_good => {
                region_candidates(resolved.spec(), start, end)
            }
            _ => None,
        };
        // Fast path: such an edit patches the existing design in place —
        // no rebuild, no re-allocation, no partition rebuild, per-pass
        // lint slicing.
        if let Some(candidates) = &candidates {
            match self.patch_slice(resolved, candidates) {
                Some(Ok(dirty_nodes)) => {
                    return self.update(RecomputeTier::Patched, scope, dirty_nodes);
                }
                Some(Err(e)) => {
                    self.good = None;
                    self.diagnostics = vec![Diagnostic::new(
                        slif_speclang::Span::dummy(),
                        format!("estimation failed: {e}"),
                    )];
                    return self.update(RecomputeTier::Deferred, scope, 0);
                }
                None => {} // not patchable: fall through to the rebuild
            }
        }

        let mut design = build_design_cached(
            resolved,
            &self.config.library,
            &BuildOptions::default(),
            &mut self.cache,
        );
        let arch = match try_allocate_proc_asic(&mut design) {
            Ok(arch) => arch,
            Err(e) => {
                // An incomplete library cannot estimate anything; treat
                // it like a diagnostic rather than poisoning the session.
                self.diagnostics = vec![Diagnostic::new(
                    slif_speclang::Span::dummy(),
                    e.to_string(),
                )];
                return self.update(RecomputeTier::Deferred, scope, 0);
            }
        };
        let partition = all_software_partition(&design, arch);
        let sources = SourceMap::from_spec(resolved.spec());
        let flow = match &candidates {
            Some(c) => FlowEdit::dirty(resolved.spec(), c),
            None => FlowEdit::full(resolved.spec()),
        };

        match self.pipeline(design, partition, &sources, flow) {
            Ok((tier, dirty_nodes)) => self.update(tier, scope, dirty_nodes),
            Err(e) => {
                // A design the estimator rejects outright (e.g. a weight
                // overflow the library cannot express) leaves the session
                // report-less but alive, like broken text does.
                self.good = None;
                self.diagnostics = vec![Diagnostic::new(
                    slif_speclang::Span::dummy(),
                    format!("estimation failed: {e}"),
                )];
                self.update(RecomputeTier::Deferred, scope, 0)
            }
        }
    }

    /// The in-place recompute slice for a region-confined edit over a
    /// clean revision that may have touched only the `candidates`
    /// behaviors. Returns `None` when the edit is not patchable (the
    /// caller rebuilds through the cache), `Some(Err)` when
    /// re-estimation itself failed, and `Some(Ok(dirty_nodes))` on
    /// success.
    fn patch_slice(
        &mut self,
        resolved: &ResolvedSpec,
        candidates: &[usize],
    ) -> Option<Result<usize, slif_core::CoreError>> {
        let g = self.good.as_mut()?;
        let spec = resolved.spec();
        try_patch_design(
            resolved,
            &self.config.library,
            &BuildOptions::default(),
            &mut self.cache,
            &mut g.design,
            candidates,
        )?;
        // The patch holds topology invariant by construction, so the
        // rebase cannot reject it; treat a rejection as "not patchable"
        // anyway — the rebuild path recomputes everything from scratch.
        let delta = g.estimator.rebase_annotations_delta(&g.design).ok()?;
        let lint_cfg = self.config.analysis;
        Some((|| {
            // An annotation-neutral edit (renamed constant, comment,
            // equal-weight operator swap) leaves every estimator memo
            // valid: the reports are already current.
            if !delta.is_empty() {
                g.estimate = DesignReport::compute_from_incremental(&g.design, &mut g.estimator)?;
            }
            // Any text edit may move spans, so the flow passes are
            // always marked stale. They lower and re-solve only the
            // candidate behaviors (and clean callers whose callee's
            // return range moved); every other behavior keeps its cached
            // findings, spans rebased by its declaration's line shift.
            let flow = FlowEdit::dirty(spec, candidates);
            let mut dirt = AnalysisDirt::from(&delta);
            dirt.flow = true;
            // The span map costs O(decls) to build but only findings
            // anchored to a node consume it, and most edits lint clean.
            // Assemble span-less first; rebuild with real spans (memo
            // warm, so only re-assembly) when something needs them.
            let empty = SourceMap::default();
            let analysis = analyze_compiled_memoized_with_flow(
                g.estimator.compiled(),
                Some(&g.partition),
                &lint_cfg,
                &empty,
                Some(flow),
                &mut g.memo,
                &dirt,
            );
            g.analysis = if analysis.findings().iter().any(|f| f.node.is_some()) {
                let sources = SourceMap::from_spec(spec);
                analyze_compiled_memoized_with_flow(
                    g.estimator.compiled(),
                    Some(&g.partition),
                    &lint_cfg,
                    &sources,
                    Some(flow),
                    &mut g.memo,
                    &AnalysisDirt::none(),
                )
            } else {
                analysis
            };
            Ok(delta.dirty_nodes.len())
        })())
    }

    /// Tier routing below the frontend: patch the warm estimator when
    /// the topology held, rebuild it cold when it did not (or there is
    /// no prior state), then refresh the estimate and lint reports.
    fn pipeline(
        &mut self,
        design: Design,
        partition: Partition,
        sources: &SourceMap,
        flow: FlowEdit<'_>,
    ) -> Result<(RecomputeTier, usize), slif_core::CoreError> {
        let (est_cfg, lint_cfg) = (self.config.estimator, self.config.analysis);
        if let Some(g) = self.good.as_mut() {
            if let Ok(delta) = g.estimator.rebase_annotations_delta(&design) {
                g.design = design;
                g.partition = partition;
                g.estimate = DesignReport::compute_from_incremental(&g.design, &mut g.estimator)?;
                // The rebase verified topology identity and the fresh
                // all-software partition assigns it identically, so the
                // lint memo slices by the annotation delta — plus the
                // flow flag, because the text changed (spans at least
                // may have moved); the flow passes lower only the
                // behaviors `flow` marks dirty.
                let mut dirt = AnalysisDirt::from(&delta);
                dirt.flow = true;
                g.analysis = analyze_compiled_memoized_with_flow(
                    g.estimator.compiled(),
                    Some(&g.partition),
                    &lint_cfg,
                    sources,
                    Some(flow),
                    &mut g.memo,
                    &dirt,
                );
                return Ok((RecomputeTier::Patched, delta.dirty_nodes.len()));
            }
        }
        let cd = CompiledDesign::compile(&design);
        let mut estimator =
            IncrementalEstimator::from_owned_compiled(cd, partition.clone(), est_cfg)?;
        let estimate = DesignReport::compute_from_incremental(&design, &mut estimator)?;
        // Every pass re-runs over the new topology, but the previous
        // memo's flow state is keyed by behavior structure, not by
        // topology, so it carries over: only the edit's dirty behaviors
        // are lowered and re-solved.
        let mut memo = self.good.take().map_or_else(AnalysisMemo::new, |g| g.memo);
        let analysis = analyze_compiled_memoized_with_flow(
            estimator.compiled(),
            Some(&partition),
            &lint_cfg,
            sources,
            Some(flow),
            &mut memo,
            &AnalysisDirt::all(),
        );
        self.full_rebuilds += 1;
        self.good = Some(GoodState {
            design,
            partition,
            estimator,
            estimate,
            analysis,
            memo,
        });
        Ok((RecomputeTier::Recompiled, 0))
    }

    fn update(&self, tier: RecomputeTier, scope: ReparseScope, dirty_nodes: usize) -> SessionUpdate {
        SessionUpdate {
            revision: self.revision,
            clean: self.diagnostics.is_empty(),
            tier,
            scope,
            dirty_nodes,
            diagnostics: self.diagnostics.iter().map(ToString::to_string).collect(),
            estimate: self.estimate().cloned(),
            analysis: self.analysis().cloned(),
        }
    }
}

/// The behaviors a region-confined reparse may have rewritten: those
/// whose span intersects `[start, end)` of the *new* source (the splice
/// guarantees text outside the region is byte-identical to the previous
/// revision). Returns `None` when a port, const, or var declaration
/// intersects the region — those feed signatures and channel widths
/// everywhere, so the edit is not behavior-local.
fn region_candidates(spec: &Spec, start: usize, end: usize) -> Option<Vec<usize>> {
    let hits = |s: slif_speclang::Span| s.start < end && s.end > start;
    if spec.ports.iter().any(|p| hits(p.span))
        || spec.consts.iter().any(|c| hits(c.span))
        || spec.vars.iter().any(|v| hits(v.span))
    {
        return None;
    }
    Some(
        spec.behaviors
            .iter()
            .enumerate()
            .filter(|(_, b)| hits(b.span))
            .map(|(i, _)| i)
            .collect(),
    )
}

/// A shared, lockable [`EditSession`] — the form a session takes when it
/// crosses a job queue or sits in a server-side registry.
///
/// Equality (needed so job outputs stay comparable) is *state* equality:
/// two handles are equal when they are the same session, or when their
/// sessions hold the same text at the same revision with the same
/// cleanliness — which is exactly what "the same job produced them"
/// means. Lock poisoning is absorbed: a panicked writer leaves the last
/// consistent state readable.
#[derive(Debug, Clone)]
pub struct SessionHandle(std::sync::Arc<std::sync::Mutex<EditSession>>);

impl SessionHandle {
    /// Wraps a session for sharing.
    pub fn new(session: EditSession) -> Self {
        Self(std::sync::Arc::new(std::sync::Mutex::new(session)))
    }

    /// Locks the session, recovering from poisoning.
    pub fn lock(&self) -> std::sync::MutexGuard<'_, EditSession> {
        match self.0.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl PartialEq for SessionHandle {
    fn eq(&self, other: &Self) -> bool {
        if std::sync::Arc::ptr_eq(&self.0, &other.0) {
            return true;
        }
        let (a, b) = (self.lock(), other.lock());
        a.revision() == b.revision() && a.is_clean() == b.is_clean() && a.source() == b.source()
    }
}

#[cfg(test)]
mod tests;
