//! The flow-pass driver: runs the dataflow lints (`A006`–`A009`)
//! bottom-up over a specification's behaviors, and keeps the resident
//! per-behavior flow state that lets an edit re-lower and re-solve only
//! the behaviors it touched.
//!
//! Behaviors are solved callee-first so each call site sees its callee's
//! return-range summary. Per behavior the driver computes one interval
//! fixpoint ([`solve_values`]) shared by `A006` and `A009`, plus the two
//! bitset fixpoints for `A007` and `A008`. Each raw finding keeps its
//! flow-node index and its statement span; lint levels and `@allow`
//! suppressions are applied at materialization, never baked in.
//!
//! There are two entry points over the same solve, ordering and
//! materialization code:
//!
//! - [`run_flow_passes`] (cold): every behavior of an already-lowered
//!   [`FlowProgram`] is solved; nothing is kept.
//! - [`run_flow_edit`] (memoized): the behaviors come from a [`Spec`]
//!   plus a dirty set, and a [`FlowCache`] holds, per behavior, its
//!   structural hash, callee names, solve-inputs key, return summary and
//!   raw findings. Only dirty behaviors are lowered. A clean behavior is
//!   lowered only when its key changed because a callee's summary moved.
//!   A behavior whose key is unchanged reuses its cached solve: when it
//!   was lowered this run its spans are refreshed from the new lowering;
//!   when it was not, its text is byte-identical to the previous run's,
//!   so its spans are rebased by its declaration's byte and line shift
//!   (columns stay: an edit region starts and ends at line starts).
//!
//! A behavior that exceeds the fixpoint visit cap is refused *typed*:
//! its summary degrades to ⊤ and it reports no flow findings. Callers
//! that want the refusal itself surface it through
//! [`check_flow_bounded`](crate::check_flow_bounded).

use crate::dataflow::AnalysisError;
use crate::domains::{solve_values, summarize_returns, Interval, Summaries};
use crate::lint::{AnalysisConfig, LintId, LintLevel};
use crate::report::Finding;
use crate::{constcond, deadstore, range, uninit};
use slif_speclang::ast::BehaviorDecl;
use slif_speclang::{FlowBehavior, FlowLowering, FlowProgram, Span, Spec, Suppressions};
use std::collections::BTreeMap;

/// How many flow passes the driver owns (`A006`, `A007`, `A008`, `A009`).
pub(crate) const FLOW_PASSES: usize = 4;

/// A finding before materialization: no level yet, a node index into
/// the behavior's flow graph rather than a design node, and that node's
/// statement span.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RawFinding {
    pub lint: LintId,
    pub node: u32,
    pub span: Span,
    pub message: String,
}

/// One behavior's raw findings, per flow pass.
type RawFindings = [Vec<RawFinding>; FLOW_PASSES];

/// Findings and suppressed counts per flow pass, in `A006`…`A009` order.
pub(crate) struct FlowResults {
    pub passes: [(Vec<Finding>, usize); FLOW_PASSES],
}

/// One behavior's resident flow state: enough to decide, without
/// lowering the behavior again, whether its last solve still holds.
#[derive(Debug, Clone)]
struct BehaviorState {
    name: String,
    /// Structural hash of the lowered behavior.
    hash: u64,
    /// Callee names, first-occurrence order.
    callees: Vec<String>,
    /// Fingerprint of the solve inputs: hash, visit cap, callee summaries.
    key: u64,
    /// The return-range summary callers consume.
    summary: Interval,
    raw: RawFindings,
    /// The declaration span `raw`'s spans are current for.
    decl: Span,
}

/// The resident flow state of one edit lineage, owned by
/// [`AnalysisMemo`](crate::AnalysisMemo). It is keyed by behavior
/// structure, not by design topology, so it stays valid across edits
/// that recompile the design.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlowCache {
    /// Per behavior, in the declaration order of the last run.
    states: Vec<BehaviorState>,
    /// Per behavior, the declaration index each callee resolves to
    /// (parallel to its `callees`).
    callee_idx: Vec<Vec<Option<u32>>>,
    /// The last run's bottom-up solve order.
    order: Vec<u32>,
    /// Behaviors lowered across all runs.
    pub(crate) lowered: u64,
    /// Behaviors solved across all runs.
    pub(crate) solved: u64,
}

impl BehaviorState {
    /// A stand-in for a behavior with no previous state; lowering fills
    /// it in before anything reads it.
    fn placeholder(decl: &BehaviorDecl) -> Self {
        BehaviorState {
            name: decl.name.clone(),
            hash: 0,
            callees: Vec::new(),
            key: 0,
            summary: Interval::TOP,
            raw: Default::default(),
            decl: decl.span,
        }
    }
}

/// 64-bit FNV-1a over the solve inputs of one behavior.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn interval(&mut self, v: Interval) {
        self.u64(v.lo as u64);
        self.u64((v.lo >> 64) as u64);
        self.u64(v.hi as u64);
        self.u64((v.hi >> 64) as u64);
    }
}

/// The summary a callee shows its caller: its own, when it was solved
/// earlier in the bottom-up order; ⊤ when it does not resolve or sits
/// on a call cycle's back edge.
fn seen(callee: Option<u32>, summary: &[Option<Interval>]) -> Interval {
    callee
        .and_then(|j| summary.get(j as usize).copied().flatten())
        .unwrap_or(Interval::TOP)
}

/// The callee summaries one behavior's solve reads.
fn view<'a>(
    callees: impl Iterator<Item = (&'a str, Option<u32>)>,
    summary: &[Option<Interval>],
) -> Summaries<'a> {
    let mut s = Summaries::new();
    for (name, j) in callees {
        s.insert(name, seen(j, summary));
    }
    s
}

/// Behavior indices in callee-first (bottom-up) order: every callee
/// precedes its callers; call cycles are broken at the back edge. A
/// depth-first post-order from each behavior in declaration order,
/// following callees in first-occurrence order, so it is deterministic
/// for a given program.
fn bottom_up<I>(n: usize, callees_of: impl Fn(usize) -> I) -> Vec<u32>
where
    I: Iterator<Item = Option<u32>>,
{
    let mut order = Vec::with_capacity(n);
    let mut state = vec![0u8; n]; // 0 new, 1 open, 2 done
    let mut stack: Vec<(usize, I)> = Vec::new();
    for root in 0..n {
        if state[root] != 0 {
            continue;
        }
        state[root] = 1;
        stack.push((root, callees_of(root)));
        while let Some((i, next)) = stack.last_mut() {
            let i = *i;
            match next.next() {
                Some(Some(j)) if state.get(j as usize) == Some(&0) => {
                    state[j as usize] = 1;
                    stack.push((j as usize, callees_of(j as usize)));
                }
                Some(_) => {}
                None => {
                    state[i] = 2;
                    order.push(i as u32);
                    stack.pop();
                }
            }
        }
    }
    order
}

/// Solves one behavior from scratch. A visit-cap refusal degrades to a
/// ⊤ summary and no findings: the analysis stays total.
fn solve(b: &FlowBehavior, summaries: &Summaries<'_>, cap: u32) -> (Interval, RawFindings) {
    match solve_values(b, summaries, cap) {
        Ok(states) => (
            summarize_returns(b, &states, summaries),
            [
                range::check(b, &states, summaries),
                uninit::check(b, cap).unwrap_or_default(),
                deadstore::check(b, cap).unwrap_or_default(),
                constcond::check(b, &states, summaries),
            ],
        ),
        Err(_) => (Interval::TOP, [const { Vec::new() }; FLOW_PASSES]),
    }
}

/// Materializes raw findings in a deterministic order: pass-major, then
/// behavior declaration order, then flow-node order. `@allow` and lint
/// levels are applied here.
fn materialize<'a>(
    behaviors: impl Iterator<Item = (&'a str, &'a RawFindings)> + Clone,
    suppressions: &Suppressions,
    config: &AnalysisConfig,
) -> FlowResults {
    let mut passes: [(Vec<Finding>, usize); FLOW_PASSES] = [const { (Vec::new(), 0) }; FLOW_PASSES];
    for (p, (findings, suppressed)) in passes.iter_mut().enumerate() {
        for (name, raw) in behaviors.clone() {
            for raw in &raw[p] {
                if suppressions.behavior_allows(name, raw.lint.code()) {
                    *suppressed += 1;
                    continue;
                }
                match config.effective_level(raw.lint) {
                    LintLevel::Allow => *suppressed += 1,
                    level => findings.push(Finding {
                        lint: raw.lint,
                        level,
                        message: raw.message.clone(),
                        node: None,
                        channel: None,
                        span: Some(raw.span),
                    }),
                }
            }
        }
    }
    FlowResults { passes }
}

/// Per behavior of a lowered program, its callees and the declaration
/// index each resolves to. `callees()` runs once per behavior.
fn program_callees(flow: &FlowProgram) -> Vec<Vec<(&str, Option<u32>)>> {
    flow.behaviors
        .iter()
        .map(|b| {
            b.callees()
                .into_iter()
                .map(|c| (c, flow.position(c).map(|j| j as u32)))
                .collect()
        })
        .collect()
}

/// Runs the four flow passes over every behavior of a lowered program,
/// keeping nothing: the cold analysis.
pub(crate) fn run_flow_passes(flow: &FlowProgram, config: &AnalysisConfig) -> FlowResults {
    let cap = config.max_fixpoint_visits;
    let n = flow.behaviors.len();
    let callees = program_callees(flow);
    let mut summary: Vec<Option<Interval>> = vec![None; n];
    let mut raw: Vec<RawFindings> = (0..n).map(|_| Default::default()).collect();
    for i in bottom_up(n, |i| callees[i].iter().map(|&(_, j)| j)) {
        let i = i as usize;
        let s = view(callees[i].iter().copied(), &summary);
        let (sum, findings) = solve(&flow.behaviors[i], &s, cap);
        summary[i] = Some(sum);
        raw[i] = findings;
    }
    materialize(
        flow.behaviors.iter().map(|b| b.name.as_str()).zip(&raw),
        &flow.suppressions,
        config,
    )
}

/// Runs the four flow passes over `spec`'s behaviors against the
/// resident `cache`, lowering only the behaviors in `dirty` (every
/// behavior when `None`) plus any clean one whose callee summaries
/// moved. The behaviors outside `dirty` must have the same text as in
/// the previous run over `cache`, at most moved, and no global or
/// constant they read may have changed. The result is `==` to
/// [`run_flow_passes`] over `FlowProgram::from_spec(spec)`.
pub(crate) fn run_flow_edit(
    spec: &Spec,
    dirty: Option<&[usize]>,
    suppressions: &Suppressions,
    config: &AnalysisConfig,
    cache: &mut FlowCache,
) -> FlowResults {
    let cap = config.max_fixpoint_visits;
    let decls = &spec.behaviors;
    let n = decls.len();
    let mut is_dirty = vec![dirty.is_none(); n];
    for &i in dirty.unwrap_or_default() {
        if let Some(d) = is_dirty.get_mut(i) {
            *d = true;
        }
    }

    // The previous run's state of each behavior. Positions only shift
    // when an edit inserts or deletes a behavior; then states are
    // matched by name, and a behavior with none is lowered.
    let mut states = std::mem::take(&mut cache.states);
    let aligned = states.len() == n && states.iter().zip(decls).all(|(s, d)| s.name == d.name);
    // Whether `states[i]` holds a solve of behavior `i`'s structure.
    let mut reusable = vec![true; n];
    if !aligned {
        let at: Vec<Option<usize>> = {
            let by_name: BTreeMap<&str, usize> = states
                .iter()
                .enumerate()
                .map(|(k, s)| (s.name.as_str(), k))
                .collect();
            decls
                .iter()
                .map(|d| by_name.get(d.name.as_str()).copied())
                .collect()
        };
        let mut old: Vec<Option<BehaviorState>> = states.into_iter().map(Some).collect();
        states = Vec::with_capacity(n);
        for (i, k) in at.into_iter().enumerate() {
            match k.and_then(|k| old[k].take()) {
                Some(state) => states.push(state),
                None => {
                    reusable[i] = false;
                    is_dirty[i] = true;
                    states.push(BehaviorState::placeholder(&decls[i]));
                }
            }
        }
    }

    // Lower the dirty behaviors. The call graph stays the cached one
    // unless some name or callee list moved.
    let mut cx: Option<FlowLowering<'_>> = None;
    let mut graph_same = aligned && cache.order.len() == n;
    let mut lowered: Vec<Option<Box<FlowBehavior>>> = (0..n).map(|_| None).collect();
    for i in (0..n).filter(|&i| is_dirty[i]) {
        let fb = cx
            .get_or_insert_with(|| FlowLowering::new(spec))
            .lower(&decls[i]);
        cache.lowered += 1;
        let state = &mut states[i];
        if !(reusable[i] && state.hash == fb.hash) {
            let callees = fb.callees();
            if !(reusable[i] && state.callees.iter().eq(callees.iter().copied())) {
                graph_same = false;
                state.callees = callees.into_iter().map(str::to_owned).collect();
            }
            state.name.clone_from(&decls[i].name);
            state.hash = fb.hash;
            reusable[i] = false;
        }
        lowered[i] = Some(Box::new(fb));
    }

    let (callee_idx, order) = if graph_same {
        (
            std::mem::take(&mut cache.callee_idx),
            std::mem::take(&mut cache.order),
        )
    } else {
        let position: BTreeMap<&str, u32> = decls
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name.as_str(), i as u32))
            .collect();
        let callee_idx: Vec<Vec<Option<u32>>> = states
            .iter()
            .map(|s| {
                s.callees
                    .iter()
                    .map(|c| position.get(c.as_str()).copied())
                    .collect()
            })
            .collect();
        let order = bottom_up(n, |i| callee_idx[i].iter().copied());
        (callee_idx, order)
    };

    let mut summary: Vec<Option<Interval>> = vec![None; n];
    for &i in &order {
        let i = i as usize;
        let state = &mut states[i];
        let mut h = Fnv::new();
        h.u64(state.hash);
        h.u64(u64::from(cap));
        for &j in &callee_idx[i] {
            h.interval(seen(j, &summary));
        }
        let key = h.0;
        let decl = decls[i].span;
        if reusable[i] && state.key == key {
            if let Some(fb) = &lowered[i] {
                for raw in state.raw.iter_mut().flatten() {
                    if let Some(node) = fb.nodes.get(raw.node as usize) {
                        raw.span = node.span;
                    }
                }
            } else if state.decl != decl {
                let bytes = decl.start as isize - state.decl.start as isize;
                let lines = i64::from(decl.line) - i64::from(state.decl.line);
                for raw in state.raw.iter_mut().flatten() {
                    raw.span = raw.span.rebased(bytes, lines);
                }
            }
        } else {
            let fb = match lowered[i].take() {
                Some(fb) => fb,
                None => {
                    cache.lowered += 1;
                    Box::new(
                        cx.get_or_insert_with(|| FlowLowering::new(spec))
                            .lower(&decls[i]),
                    )
                }
            };
            let s = view(
                state
                    .callees
                    .iter()
                    .map(String::as_str)
                    .zip(callee_idx[i].iter().copied()),
                &summary,
            );
            let (sum, raw) = solve(&fb, &s, cap);
            cache.solved += 1;
            state.key = key;
            state.summary = sum;
            state.raw = raw;
        }
        state.decl = decl;
        summary[i] = Some(state.summary);
    }

    cache.states = states;
    cache.callee_idx = callee_idx;
    cache.order = order;
    materialize(
        cache.states.iter().map(|s| (s.name.as_str(), &s.raw)),
        suppressions,
        config,
    )
}

/// Bottom-up boundedness sweep: `Err` on the first behavior whose
/// fixpoint exceeds the visit cap, naming the behavior and the cap.
/// This is the typed-refusal surface behind
/// [`check_flow_bounded`](crate::check_flow_bounded).
pub(crate) fn check_bounded(flow: &FlowProgram, cap: u32) -> Result<(), AnalysisError> {
    let n = flow.behaviors.len();
    let callees = program_callees(flow);
    let mut summary: Vec<Option<Interval>> = vec![None; n];
    for i in bottom_up(n, |i| callees[i].iter().map(|&(_, j)| j)) {
        let i = i as usize;
        let b = &flow.behaviors[i];
        let s = view(callees[i].iter().copied(), &summary);
        let states = solve_values(b, &s, cap)?;
        uninit::check(b, cap)?;
        deadstore::check(b, cap)?;
        summary[i] = Some(summarize_returns(b, &states, &s));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use slif_speclang::parse;

    const BASE: &str = concat!(
        "system T;\n",
        "var g : int<8>;\n",
        "func Src() -> int<16> {\n",
        "  return 300;\n",
        "}\n",
        "func Mid() -> int<16> {\n",
        "  return Src();\n",
        "}\n",
        "process Main {\n",
        "  g = Mid();\n",
        "  wait 1;\n",
        "}\n",
        "proc Other() {\n",
        "  var u : int<8>;\n",
        "  g = u;\n",
        "}\n",
    );

    type Passes = [(Vec<Finding>, usize); FLOW_PASSES];

    fn cold(spec: &Spec, config: &AnalysisConfig) -> Passes {
        run_flow_passes(&FlowProgram::from_spec(spec), config).passes
    }

    fn count(passes: &Passes, lint: LintId) -> usize {
        passes
            .iter()
            .flat_map(|(f, _)| f)
            .filter(|f| f.lint == lint)
            .count()
    }

    /// Runs `text` through `cache` with `dirty`, asserts the result is
    /// `==` to a cold run of the same text, and returns it.
    fn edit(cache: &mut FlowCache, text: &str, dirty: Option<&[usize]>) -> Passes {
        let config = AnalysisConfig::new();
        let spec = parse(text).expect("parse");
        let sup = Suppressions::from_spec(&spec);
        let warm = run_flow_edit(&spec, dirty, &sup, &config, cache).passes;
        assert_eq!(
            warm,
            cold(&spec, &config),
            "dirty {dirty:?} diverged on\n{text}"
        );
        warm
    }

    fn seeded() -> FlowCache {
        let mut cache = FlowCache::default();
        let first = edit(&mut cache, BASE, None);
        assert_eq!(count(&first, LintId::ValueRangeOverflow), 1, "{first:?}");
        assert_eq!(count(&first, LintId::UninitializedRead), 1, "{first:?}");
        assert_eq!((cache.lowered, cache.solved), (4, 4));
        cache
    }

    #[test]
    fn bottom_up_order_is_callee_first() {
        let p = FlowProgram::from_spec(&parse(BASE).expect("parse"));
        let callees = program_callees(&p);
        let order = bottom_up(p.behaviors.len(), |i| callees[i].iter().map(|&(_, j)| j));
        let pos = |name: &str| {
            let i = p.position(name).expect("behavior") as u32;
            order
                .iter()
                .position(|&k| k == i)
                .expect("behavior in order")
        };
        assert!(pos("Src") < pos("Mid"));
        assert!(pos("Mid") < pos("Main"));
        assert_eq!(order.len(), p.behaviors.len());
    }

    #[test]
    fn callee_range_change_moves_only_its_callers_findings() {
        let mut cache = seeded();
        // Src now returns a value Main's `g` can hold: A006 leaves Main,
        // two calls away. Mid and Main are clean but their keys moved,
        // so they are lowered and re-solved; Other is not touched.
        let text = BASE.replace("return 300;", "return 30;");
        let passes = edit(&mut cache, &text, Some(&[0]));
        assert_eq!(count(&passes, LintId::ValueRangeOverflow), 0);
        assert_eq!(count(&passes, LintId::UninitializedRead), 1);
        assert_eq!((cache.lowered, cache.solved), (4 + 3, 4 + 3));
        // Back again: the same three, and Other still untouched.
        let passes = edit(&mut cache, BASE, Some(&[0]));
        assert_eq!(count(&passes, LintId::ValueRangeOverflow), 1);
        assert_eq!((cache.lowered, cache.solved), (4 + 6, 4 + 6));
    }

    #[test]
    fn renamed_or_deleted_callee_leaves_a_clean_caller_unresolved() {
        let mut cache = seeded();
        // Mid still calls `Src`, which no longer resolves: its summary
        // falls back to its declared range and Main's A006 goes away.
        let renamed = BASE.replace("func Src()", "func Source()");
        let passes = edit(&mut cache, &renamed, Some(&[0]));
        assert_eq!(count(&passes, LintId::ValueRangeOverflow), 0);
        // Deleting the callee shifts every position: states are matched
        // by name, and the dirty set is empty.
        let start = renamed.find("func Source()").expect("callee");
        let end = renamed.find("func Mid()").expect("caller");
        let deleted = format!("{}{}", &renamed[..start], &renamed[end..]);
        let solved = cache.solved;
        let passes = edit(&mut cache, &deleted, Some(&[]));
        assert_eq!(count(&passes, LintId::ValueRangeOverflow), 0);
        assert_eq!(
            cache.solved, solved,
            "no input of any remaining solve moved"
        );
        // Restoring it resolves the call again.
        let passes = edit(&mut cache, BASE, Some(&[0]));
        assert_eq!(count(&passes, LintId::ValueRangeOverflow), 1);
    }

    #[test]
    fn span_only_edit_is_a_hash_hit_with_fresh_spans() {
        let mut cache = seeded();
        // Blank lines inside Main: Main is lowered again (dirty), its
        // hash is unchanged, so nothing re-solves; Main's A006 span is
        // refreshed from the new lowering and Other's A007 span is
        // rebased by the two-line shift of its declaration.
        let at = BASE.find("  g = Mid();").expect("statement");
        let text = format!("{}\n\n{}", &BASE[..at], &BASE[at..]);
        let before = edit(&mut cache, BASE, Some(&[]));
        let passes = edit(&mut cache, &text, Some(&[2]));
        assert_eq!((cache.lowered, cache.solved), (4 + 1, 4));
        for (a, b) in before
            .iter()
            .flat_map(|(f, _)| f)
            .zip(passes.iter().flat_map(|(f, _)| f))
        {
            let (a, b) = (a.span.expect("span"), b.span.expect("span"));
            assert_eq!((b.start, b.line), (a.start + 2, a.line + 2));
        }
    }

    #[test]
    fn added_allow_suppresses_without_a_re_solve() {
        let mut cache = seeded();
        let at = BASE.find("proc Other()").expect("behavior");
        let text = format!("{}@allow(A007)\n{}", &BASE[..at], &BASE[at..]);
        let passes = edit(&mut cache, &text, Some(&[3]));
        assert_eq!(count(&passes, LintId::UninitializedRead), 0);
        assert_eq!(passes[1].1, 1, "the suppressed finding is counted");
        assert_eq!(cache.solved, 4, "suppressions apply at materialization");
    }
}
