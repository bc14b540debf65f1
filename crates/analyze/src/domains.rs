//! Abstract domains for the flow-sensitive lints.
//!
//! The workhorse is [`Interval`]: a join-semilattice of `i128` ranges
//! with explicit infinities, saturating arithmetic and a widening
//! operator that jumps unstable bounds to ±∞. On top of it,
//! [`ValueProblem`] instantiates the generic solver as a forward
//! value-range analysis over one behavior: per-slot intervals, branch
//! refinement on comparisons, declared-range resets at user calls and
//! receives. Both `A006` (range/overflow) and `A009` (constant
//! condition) consume its fixpoint.

use crate::dataflow::{solve_forward, AnalysisError, EdgeFlow, Problem};
use slif_speclang::ast::{BinOp, UnOp};
use slif_speclang::{FlowBehavior, FlowExpr, FlowOp, SlotInfo, SlotKind};
use std::fmt;

/// Positive infinity sentinel. Half of `i128::MAX` leaves headroom so
/// saturating arithmetic can never overflow the machine type.
pub(crate) const INF: i128 = i128::MAX / 2;
/// Negative infinity sentinel.
pub(crate) const NEG_INF: i128 = -INF;

/// A non-empty integer range `[lo, hi]` with ±∞ sentinels.
///
/// Emptiness is represented *outside* the type (unreachable states are
/// `None` at the solver level; refinement returns `None` on an empty
/// meet), which keeps every stored interval well-formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interval {
    pub lo: i128,
    pub hi: i128,
}

/// Clamps a raw bound into the representable sentinel range.
fn sat(v: i128) -> i128 {
    v.clamp(NEG_INF, INF)
}

impl Interval {
    pub(crate) const TOP: Interval = Interval { lo: NEG_INF, hi: INF };

    pub(crate) fn new(lo: i128, hi: i128) -> Interval {
        Interval { lo: sat(lo), hi: sat(hi) }
    }

    pub(crate) fn constant(v: i128) -> Interval {
        Interval::new(v, v)
    }

    /// The least upper bound.
    pub(crate) fn join(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// The greatest lower bound; `None` when the ranges are disjoint.
    pub(crate) fn meet(self, other: Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// Standard interval widening: a bound that moved since `self` jumps
    /// to its infinity, so loops converge in one extra pass.
    pub(crate) fn widen(self, next: Interval) -> Interval {
        Interval {
            lo: if next.lo < self.lo { NEG_INF } else { self.lo },
            hi: if next.hi > self.hi { INF } else { self.hi },
        }
    }

    /// Whether the two ranges share no value.
    pub(crate) fn disjoint(self, other: Interval) -> bool {
        self.hi < other.lo || other.hi < self.lo
    }

    pub(crate) fn add(self, o: Interval) -> Interval {
        Interval::new(self.lo.saturating_add(o.lo), self.hi.saturating_add(o.hi))
    }

    pub(crate) fn sub(self, o: Interval) -> Interval {
        Interval::new(self.lo.saturating_sub(o.hi), self.hi.saturating_sub(o.lo))
    }

    pub(crate) fn neg(self) -> Interval {
        Interval::new(self.hi.saturating_neg(), self.lo.saturating_neg())
    }

    pub(crate) fn mul(self, o: Interval) -> Interval {
        let mut lo = INF;
        let mut hi = NEG_INF;
        for a in [self.lo, self.hi] {
            for b in [o.lo, o.hi] {
                // A saturated (infinite) operand poisons precision in its
                // sign direction; checked arithmetic catches the rest.
                let p = match a.checked_mul(b) {
                    Some(p) => sat(p),
                    None => {
                        if (a > 0) == (b > 0) {
                            INF
                        } else {
                            NEG_INF
                        }
                    }
                };
                lo = lo.min(p);
                hi = hi.max(p);
            }
        }
        Interval { lo, hi }
    }

    pub(crate) fn div(self, o: Interval) -> Interval {
        // A divisor range containing zero can trap or produce anything;
        // claim nothing.
        if o.lo <= 0 && o.hi >= 0 {
            return Interval::TOP;
        }
        let mut lo = INF;
        let mut hi = NEG_INF;
        for a in [self.lo, self.hi] {
            for b in [o.lo, o.hi] {
                let q = sat(a.checked_div(b).unwrap_or(0));
                lo = lo.min(q);
                hi = hi.max(q);
            }
        }
        Interval { lo, hi }
    }

    pub(crate) fn rem(self, o: Interval) -> Interval {
        if o.lo <= 0 && o.hi >= 0 {
            return Interval::TOP;
        }
        // |a % b| < |b|; sign follows the dividend.
        let m = o.lo.abs().max(o.hi.abs()).saturating_sub(1);
        let lo = if self.lo < 0 { -m } else { 0 };
        let hi = if self.hi > 0 { m } else { 0 };
        Interval::new(lo, hi)
    }

    pub(crate) fn abs(self) -> Interval {
        if self.lo >= 0 {
            self
        } else if self.hi <= 0 {
            self.neg()
        } else {
            Interval::new(0, self.hi.max(self.lo.saturating_neg()))
        }
    }

    pub(crate) fn min_of(self, o: Interval) -> Interval {
        Interval::new(self.lo.min(o.lo), self.hi.min(o.hi))
    }

    pub(crate) fn max_of(self, o: Interval) -> Interval {
        Interval::new(self.lo.max(o.lo), self.hi.max(o.hi))
    }

    /// The truth of the interval as a condition: `Some(false)` when it is
    /// exactly zero, `Some(true)` when zero lies outside it.
    pub(crate) fn truth(self) -> Option<bool> {
        if self.lo == 0 && self.hi == 0 {
            Some(false)
        } else if self.lo > 0 || self.hi < 0 {
            Some(true)
        } else {
            None
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.lo <= NEG_INF, self.hi >= INF) {
            (true, true) => write!(f, "[-inf, +inf]"),
            (true, false) => write!(f, "[-inf, {}]", self.hi),
            (false, true) => write!(f, "[{}, +inf]", self.lo),
            (false, false) => write!(f, "[{}, {}]", self.lo, self.hi),
        }
    }
}

/// The values an `int<N>` storage location can represent. The
/// specification language keeps widths storage-level, sign-agnostic:
/// `int<N>` holds `-(2^(N-1)) ..= 2^N - 1` (either interpretation fits).
pub(crate) fn int_range(w: u32) -> Interval {
    if w > 0 && w < 126 {
        Interval::new(-(1i128 << (w - 1)), (1i128 << w) - 1)
    } else {
        Interval::TOP
    }
}

/// The values a slot can represent, from its declaration.
pub(crate) fn declared_range(info: &SlotInfo) -> Interval {
    if info.is_bool {
        return Interval::new(0, 1);
    }
    match info.width {
        Some(w) => int_range(w),
        None => Interval::TOP,
    }
}

/// The comparison `lhs op rhs` over intervals, as a `{0,1}` interval.
fn compare(op: BinOp, l: Interval, r: Interval) -> Interval {
    let (t, f) = (Interval::constant(1), Interval::constant(0));
    let both = Interval::new(0, 1);
    match op {
        BinOp::Eq => {
            if l.disjoint(r) {
                f
            } else if l.lo == l.hi && r.lo == r.hi && l.lo == r.lo {
                t
            } else {
                both
            }
        }
        BinOp::Ne => {
            if l.disjoint(r) {
                t
            } else if l.lo == l.hi && r.lo == r.hi && l.lo == r.lo {
                f
            } else {
                both
            }
        }
        BinOp::Lt => {
            if l.hi < r.lo {
                t
            } else if l.lo >= r.hi {
                f
            } else {
                both
            }
        }
        BinOp::Le => {
            if l.hi <= r.lo {
                t
            } else if l.lo > r.hi {
                f
            } else {
                both
            }
        }
        BinOp::Gt => compare(BinOp::Lt, r, l),
        BinOp::Ge => compare(BinOp::Le, r, l),
        _ => both,
    }
}

/// Boolean connectives over `{0,1}` intervals.
fn logic(op: BinOp, l: Interval, r: Interval) -> Interval {
    let (lt, rt) = (l.truth(), r.truth());
    let known = |b: bool| Interval::constant(i128::from(b));
    match op {
        BinOp::And => match (lt, rt) {
            (Some(false), _) | (_, Some(false)) => known(false),
            (Some(true), Some(true)) => known(true),
            _ => Interval::new(0, 1),
        },
        BinOp::Or => match (lt, rt) {
            (Some(true), _) | (_, Some(true)) => known(true),
            (Some(false), Some(false)) => known(false),
            _ => Interval::new(0, 1),
        },
        _ => Interval::new(0, 1),
    }
}

/// The callee return-range summaries one behavior's solve reads, by
/// callee name: the callees summarized before it in bottom-up order.
/// Missing entries (unknown callees, call cycles broken at the back
/// edge) evaluate to [`Interval::TOP`]. Kept sorted, so a lookup is a
/// binary search over the behavior's own callees, not the whole program.
#[derive(Debug, Clone, Default)]
pub(crate) struct Summaries<'a> {
    by_name: Vec<(&'a str, Interval)>,
}

impl<'a> Summaries<'a> {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records `callee`'s summary (the last record for a name wins).
    pub(crate) fn insert(&mut self, callee: &'a str, summary: Interval) {
        match self.by_name.binary_search_by(|(n, _)| (*n).cmp(callee)) {
            Ok(i) => self.by_name[i].1 = summary,
            Err(i) => self.by_name.insert(i, (callee, summary)),
        }
    }

    /// The return range a call to `callee` may produce.
    pub(crate) fn get(&self, callee: &str) -> Interval {
        self.by_name
            .binary_search_by(|(n, _)| (*n).cmp(callee))
            .map_or(Interval::TOP, |i| self.by_name[i].1)
    }
}

/// Evaluates an expression to an interval in `state` (one interval per
/// slot of the behavior).
pub(crate) fn eval(
    e: &FlowExpr,
    state: &[Interval],
    slots: &[SlotInfo],
    summaries: &Summaries<'_>,
) -> Interval {
    match e {
        FlowExpr::Const(v) => Interval::constant(sat(*v)),
        FlowExpr::Slot(s) => state
            .get(*s as usize)
            .copied()
            .unwrap_or(Interval::TOP),
        // Array elements are not tracked element-wise; they hold their
        // declared range (element writes outside it are flagged at the
        // write by A006).
        FlowExpr::Index { slot, .. } => slots
            .get(*slot as usize)
            .map_or(Interval::TOP, declared_range),
        FlowExpr::Call { callee, args } => {
            let arg = |i: usize| {
                args.get(i)
                    .map_or(Interval::TOP, |a| eval(a, state, slots, summaries))
            };
            match callee.as_str() {
                "min" => arg(0).min_of(arg(1)),
                "max" => arg(0).max_of(arg(1)),
                "abs" => arg(0).abs(),
                _ => summaries.get(callee),
            }
        }
        FlowExpr::Binary { op, lhs, rhs } => {
            let l = eval(lhs, state, slots, summaries);
            let r = eval(rhs, state, slots, summaries);
            match op {
                BinOp::Add => l.add(r),
                BinOp::Sub => l.sub(r),
                BinOp::Mul => l.mul(r),
                BinOp::Div => l.div(r),
                BinOp::Rem => l.rem(r),
                BinOp::And | BinOp::Or => logic(*op, l, r),
                _ => compare(*op, l, r),
            }
        }
        FlowExpr::Unary { op, operand } => {
            let v = eval(operand, state, slots, summaries);
            match op {
                UnOp::Neg => v.neg(),
                UnOp::Not => match v.truth() {
                    Some(b) => Interval::constant(i128::from(!b)),
                    None => Interval::new(0, 1),
                },
            }
        }
        FlowExpr::Unknown => Interval::TOP,
    }
}

/// The forward value-range problem over one behavior.
pub(crate) struct ValueProblem<'a> {
    pub summaries: &'a Summaries<'a>,
}

/// Whether executing this node can run user-defined code (whose writes
/// to globals/ports the intra-procedural state cannot track).
fn calls_user(op: &FlowOp) -> bool {
    match op {
        FlowOp::Call { callee, args } => {
            !slif_speclang::flow::is_builtin(callee)
                || args.iter().any(FlowExpr::calls_user_code)
        }
        FlowOp::Assign { index, value, .. } => {
            value.calls_user_code()
                || index.as_ref().is_some_and(FlowExpr::calls_user_code)
        }
        FlowOp::Branch { cond, .. } => cond.calls_user_code(),
        FlowOp::Send { value, .. } => value.calls_user_code(),
        FlowOp::Return { value } => value.as_ref().is_some_and(FlowExpr::calls_user_code),
        _ => false,
    }
}

/// Resets every global/port slot to its declared range (the
/// intra-procedural summary of "someone else may have written it").
fn clamp_shared(state: &mut [Interval], slots: &[SlotInfo]) {
    for (i, info) in slots.iter().enumerate() {
        if matches!(info.kind, SlotKind::Global | SlotKind::Port(_)) {
            state[i] = declared_range(info);
        }
    }
}

impl Problem for ValueProblem<'_> {
    type State = Vec<Interval>;

    fn boundary(&self, b: &FlowBehavior) -> Vec<Interval> {
        // Inputs are assumed in their declared ranges (the caller's
        // violations are the caller's findings); loop variables are Top
        // until their init assigns them.
        b.slots.iter().map(declared_range).collect()
    }

    fn transfer(&self, b: &FlowBehavior, node: u32, input: &Vec<Interval>) -> Vec<Interval> {
        let n = &b.nodes[node as usize];
        let mut out = input.clone();
        match &n.op {
            FlowOp::Assign { dst, index, value } => {
                let v = eval(value, input, &b.slots, self.summaries);
                if calls_user(&n.op) {
                    clamp_shared(&mut out, &b.slots);
                }
                if let Some(slot) = out.get_mut(*dst as usize) {
                    if index.is_none() {
                        // Whole-slot write. Model the store as clamped to
                        // the declared range: the violation (if any) is
                        // A006's finding at this node; downstream facts
                        // assume the declared storage.
                        let info = &b.slots[*dst as usize];
                        let declared = declared_range(info);
                        *slot = v.meet(declared).unwrap_or(declared);
                    }
                    // Element writes leave the per-array summary at its
                    // declared range.
                }
            }
            FlowOp::Receive { dst, .. } => {
                if let Some(info) = b.slots.get(*dst as usize) {
                    out[*dst as usize] = declared_range(info);
                }
            }
            op if calls_user(op) => clamp_shared(&mut out, &b.slots),
            _ => {}
        }
        out
    }

    fn edge(
        &self,
        b: &FlowBehavior,
        node: u32,
        edge: usize,
        out: &Vec<Interval>,
    ) -> EdgeFlow<Vec<Interval>> {
        let FlowOp::Branch { cond, .. } = &b.nodes[node as usize].op else {
            return EdgeFlow::Out;
        };
        // succs[0] is the taken edge, succs[1] the fall-through.
        let truth = edge == 0;
        match refine(cond, out, b, self.summaries, truth) {
            Refinement::State(s) => EdgeFlow::Refined(s),
            Refinement::Dead => EdgeFlow::Dead,
            Refinement::Unchanged => EdgeFlow::Out,
        }
    }

    fn join(&self, into: &mut Vec<Interval>, from: &Vec<Interval>) -> bool {
        let mut changed = false;
        for (a, b) in into.iter_mut().zip(from) {
            let j = a.join(*b);
            if j != *a {
                *a = j;
                changed = true;
            }
        }
        changed
    }

    fn widen(&self, into: &mut Vec<Interval>, from: &Vec<Interval>) -> bool {
        let mut changed = false;
        for (a, b) in into.iter_mut().zip(from) {
            let w = a.widen(a.join(*b));
            if w != *a {
                *a = w;
                changed = true;
            }
        }
        changed
    }
}

enum Refinement {
    State(Vec<Interval>),
    Dead,
    Unchanged,
}

/// Refines `state` under the assumption that `cond` evaluates to
/// `truth`. Handles boolean slots, negation, conjunction/disjunction and
/// comparisons with a slot on either side.
fn refine(
    cond: &FlowExpr,
    state: &[Interval],
    b: &FlowBehavior,
    summaries: &Summaries<'_>,
    truth: bool,
) -> Refinement {
    match cond {
        FlowExpr::Slot(s) => {
            let Some(cur) = state.get(*s as usize) else {
                return Refinement::Unchanged;
            };
            let want = Interval::constant(i128::from(truth));
            match cur.meet(want) {
                Some(m) if m == *cur => Refinement::Unchanged,
                Some(m) => {
                    let mut next = state.to_vec();
                    next[*s as usize] = m;
                    Refinement::State(next)
                }
                None => Refinement::Dead,
            }
        }
        FlowExpr::Unary { op: UnOp::Not, operand } => {
            refine(operand, state, b, summaries, !truth)
        }
        FlowExpr::Binary { op, lhs, rhs } => {
            let chain = |first: &FlowExpr, second: &FlowExpr| {
                // Both conjuncts hold: refine under the first, then the
                // second on the result.
                match refine(first, state, b, summaries, truth) {
                    Refinement::Dead => Refinement::Dead,
                    Refinement::State(s) => match refine(second, &s, b, summaries, truth) {
                        Refinement::Unchanged => Refinement::State(s),
                        other => other,
                    },
                    Refinement::Unchanged => refine(second, state, b, summaries, truth),
                }
            };
            match (op, truth) {
                (BinOp::And, true) | (BinOp::Or, false) => chain(lhs, rhs),
                (BinOp::And, false) | (BinOp::Or, true) => Refinement::Unchanged,
                _ => refine_cmp(*op, lhs, rhs, state, b, summaries, truth),
            }
        }
        _ => Refinement::Unchanged,
    }
}

/// Flips a comparison for use when the operands swap sides.
fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// The negation of a comparison, for the fall-through edge.
fn negate(op: BinOp) -> Option<BinOp> {
    Some(match op {
        BinOp::Lt => BinOp::Ge,
        BinOp::Le => BinOp::Gt,
        BinOp::Gt => BinOp::Le,
        BinOp::Ge => BinOp::Lt,
        BinOp::Eq => BinOp::Ne,
        BinOp::Ne => BinOp::Eq,
        _ => return None,
    })
}

#[allow(clippy::too_many_arguments)]
fn refine_cmp(
    op: BinOp,
    lhs: &FlowExpr,
    rhs: &FlowExpr,
    state: &[Interval],
    b: &FlowBehavior,
    summaries: &Summaries<'_>,
    truth: bool,
) -> Refinement {
    let (slot, other, op) = match (lhs, rhs) {
        (FlowExpr::Slot(s), other) => (*s, other, op),
        (other, FlowExpr::Slot(s)) => (*s, other, flip(op)),
        _ => return Refinement::Unchanged,
    };
    let op = if truth {
        op
    } else {
        match negate(op) {
            Some(n) => n,
            None => return Refinement::Unchanged,
        }
    };
    let Some(&cur) = state.get(slot as usize) else {
        return Refinement::Unchanged;
    };
    let o = eval(other, state, &b.slots, summaries);
    let bound = match op {
        BinOp::Lt => Interval::new(NEG_INF, o.hi.saturating_sub(1)),
        BinOp::Le => Interval::new(NEG_INF, o.hi),
        BinOp::Gt => Interval::new(o.lo.saturating_add(1), INF),
        BinOp::Ge => Interval::new(o.lo, INF),
        BinOp::Eq => o,
        // `!=` only refines against a point.
        BinOp::Ne if o.lo == o.hi && cur.lo == o.lo && cur.lo < cur.hi => {
            Interval::new(cur.lo + 1, cur.hi)
        }
        BinOp::Ne if o.lo == o.hi && cur.hi == o.lo && cur.lo < cur.hi => {
            Interval::new(cur.lo, cur.hi - 1)
        }
        _ => return Refinement::Unchanged,
    };
    match cur.meet(bound) {
        Some(m) if m == cur => Refinement::Unchanged,
        Some(m) => {
            let mut next = state.to_vec();
            next[slot as usize] = m;
            Refinement::State(next)
        }
        None => Refinement::Dead,
    }
}

/// Solves the value-range problem for one behavior: per-node input
/// states (interval per slot), `None` for unreachable nodes.
pub(crate) fn solve_values(
    b: &FlowBehavior,
    summaries: &Summaries<'_>,
    cap: u32,
) -> Result<Vec<Option<Vec<Interval>>>, AnalysisError> {
    solve_forward(b, &ValueProblem { summaries }, cap)
}

/// The behavior's return-range summary given its solved states: the join
/// of every reachable `return` value, clamped into the declared return
/// range (callers trust the declaration; the violation is flagged at the
/// return site).
pub(crate) fn summarize_returns(
    b: &FlowBehavior,
    states: &[Option<Vec<Interval>>],
    summaries: &Summaries<'_>,
) -> Interval {
    let declared = b.ret_width.map_or(Interval::TOP, int_range);
    let mut acc: Option<Interval> = None;
    for (i, n) in b.nodes.iter().enumerate() {
        let FlowOp::Return { value: Some(v) } = &n.op else {
            continue;
        };
        let Some(Some(state)) = states.get(i) else {
            continue;
        };
        let r = eval(v, state, &b.slots, summaries);
        acc = Some(match acc {
            Some(a) => a.join(r),
            None => r,
        });
    }
    match acc {
        Some(a) => a.meet(declared).unwrap_or(declared),
        None => declared,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slif_speclang::{parse, FlowProgram};

    #[test]
    fn interval_lattice_ops() {
        let a = Interval::new(0, 10);
        let b = Interval::new(5, 20);
        assert_eq!(a.join(b), Interval::new(0, 20));
        assert_eq!(a.meet(b), Some(Interval::new(5, 10)));
        assert_eq!(a.meet(Interval::new(11, 12)), None);
        assert!(a.disjoint(Interval::new(11, 12)));
        assert_eq!(a.widen(Interval::new(0, 11)).hi, INF);
        assert_eq!(a.widen(Interval::new(-1, 10)).lo, NEG_INF);
        assert_eq!(a.widen(a), a);
        assert_eq!(Interval::constant(3).to_string(), "[3, 3]");
        assert_eq!(Interval::TOP.to_string(), "[-inf, +inf]");
    }

    #[test]
    fn interval_arithmetic_saturates() {
        let a = Interval::new(2, 3);
        let b = Interval::new(-1, 4);
        assert_eq!(a.add(b), Interval::new(1, 7));
        assert_eq!(a.sub(b), Interval::new(-2, 4));
        assert_eq!(a.mul(b), Interval::new(-3, 12));
        assert_eq!(a.neg(), Interval::new(-3, -2));
        assert_eq!(Interval::new(10, 20).div(Interval::new(2, 5)), Interval::new(2, 10));
        assert_eq!(Interval::new(1, 2).div(Interval::new(-1, 1)), Interval::TOP);
        assert_eq!(Interval::new(-7, 9).rem(Interval::new(4, 4)), Interval::new(-3, 3));
        assert_eq!(Interval::new(-5, 3).abs(), Interval::new(0, 5));
        assert_eq!(Interval::TOP.mul(Interval::TOP), Interval::TOP);
        assert_eq!(
            Interval::new(i128::MAX / 3, i128::MAX / 3).mul(Interval::constant(4)).hi,
            INF
        );
    }

    #[test]
    fn declared_ranges_follow_storage_widths() {
        let slot = |width, is_bool| SlotInfo {
            name: "s".into(),
            kind: SlotKind::Local,
            width,
            is_bool,
            is_array: false,
        };
        assert_eq!(declared_range(&slot(Some(8), false)), Interval::new(-128, 255));
        assert_eq!(declared_range(&slot(None, true)), Interval::new(0, 1));
        assert_eq!(declared_range(&slot(None, false)), Interval::TOP);
    }

    fn solved(src: &str, name: &str) -> (FlowBehavior, Vec<Option<Vec<Interval>>>) {
        let p = FlowProgram::from_spec(&parse(src).expect("parse"));
        let b = p.get(name).expect("behavior").clone();
        let states = solve_values(&b, &Summaries::new(), 64).expect("solve");
        (b, states)
    }

    #[test]
    fn loop_header_refines_the_induction_variable() {
        let (b, states) = solved(
            "system T;\nvar a : int<8>[10];\nproc P() { for i in 0 .. 9 { a[i] = i; } }\n",
            "P",
        );
        let i_slot = b
            .slots
            .iter()
            .position(|s| s.name == "i")
            .expect("loop var slot");
        // At the (reachable) element write inside the body, i ∈ [0, 9].
        let write = b
            .nodes
            .iter()
            .position(|n| matches!(&n.op, FlowOp::Assign { index: Some(_), .. }))
            .expect("element write");
        let state = states[write].as_ref().expect("reachable");
        assert_eq!(state[i_slot], Interval::new(0, 9));
    }

    #[test]
    fn branch_refinement_narrows_both_edges() {
        let (b, states) = solved(
            "system T;\nvar x : int<8>;\nvar y : int<8>;\n\
             proc P() { if x > 10 { y = 1; } else { y = 2; } }\n",
            "P",
        );
        let x = b.slots.iter().position(|s| s.name == "x").expect("x");
        let writes: Vec<usize> = b
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(&n.op, FlowOp::Assign { .. }))
            .map(|(i, _)| i)
            .collect();
        let then_state = states[writes[0]].as_ref().expect("then reachable");
        let else_state = states[writes[1]].as_ref().expect("else reachable");
        assert_eq!(then_state[x], Interval::new(11, 255));
        assert_eq!(else_state[x], Interval::new(-128, 10));
    }

    #[test]
    fn widening_settles_an_unbounded_accumulator() {
        let (b, states) = solved(
            "system T;\nvar x : int<32>;\nprocess Main { x = x + 1; wait 1; }\n",
            "Main",
        );
        // The fixpoint converged within the cap (no error) and the
        // accumulated range is the declared storage of x at the write.
        let assign = b
            .nodes
            .iter()
            .position(|n| matches!(&n.op, FlowOp::Assign { .. }))
            .expect("assign");
        assert!(states[assign].is_some());
    }
}
