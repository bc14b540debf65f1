//! `A008 dead-store`: stores no later read observes.
//!
//! Classic backward liveness over a slot bitset: a whole-slot store to a
//! local (or loop variable) whose target is dead in the store's *out*
//! state computes a value nothing ever reads. Globals and ports are live
//! at exit (another behavior or the environment may read them), array
//! element writes never kill (the rest of the array lives on), and
//! stores whose right-hand side calls user code are kept — the call's
//! side effects are the point, even if the stored value is not.

use crate::dataflow::{solve_backward, AnalysisError, Problem};
use crate::flowdrive::RawFinding;
use crate::lint::LintId;
use slif_speclang::{FlowBehavior, FlowExpr, FlowOp, SlotKind};

struct Live;

fn words_for(b: &FlowBehavior) -> usize {
    b.slots.len().div_ceil(64)
}

fn set(bits: &mut [u64], slot: u32) {
    if let Some(w) = bits.get_mut(slot as usize / 64) {
        *w |= 1 << (slot % 64);
    }
}

fn get(bits: &[u64], slot: u32) -> bool {
    bits.get(slot as usize / 64)
        .is_some_and(|w| w & (1 << (slot % 64)) != 0)
}

impl Problem for Live {
    type State = Vec<u64>;

    fn boundary(&self, b: &FlowBehavior) -> Vec<u64> {
        // Live at exit: everything with an observer outside the behavior.
        let mut bits = vec![0u64; words_for(b)];
        for (i, info) in b.slots.iter().enumerate() {
            if matches!(info.kind, SlotKind::Global | SlotKind::Port(_)) {
                set(&mut bits, i as u32);
            }
        }
        bits
    }

    /// `live-in = (live-out \ defs) ∪ uses`.
    fn transfer(&self, b: &FlowBehavior, node: u32, output: &Vec<u64>) -> Vec<u64> {
        let n = &b.nodes[node as usize];
        let mut bits = output.clone();
        if let Some((dst, indexed)) = n.def() {
            if !indexed {
                if let Some(w) = bits.get_mut(dst as usize / 64) {
                    *w &= !(1 << (dst % 64));
                }
            }
        }
        n.for_each_use(&mut |slot| set(&mut bits, slot));
        bits
    }

    fn join(&self, into: &mut Vec<u64>, from: &Vec<u64>) -> bool {
        let mut changed = false;
        for (a, b) in into.iter_mut().zip(from) {
            let u = *a | *b;
            if u != *a {
                *a = u;
                changed = true;
            }
        }
        changed
    }
}

/// Nodes reachable from the entry; dead code is `A002`/structure
/// territory, not a dead *store*.
fn forward_reachable(b: &FlowBehavior) -> Vec<bool> {
    let mut seen = vec![false; b.nodes.len()];
    let mut stack = vec![0u32];
    while let Some(n) = stack.pop() {
        let Some(s) = seen.get_mut(n as usize) else {
            continue;
        };
        if *s {
            continue;
        }
        *s = true;
        stack.extend(&b.nodes[n as usize].succs);
    }
    seen
}

pub(crate) fn check(b: &FlowBehavior, cap: u32) -> Result<Vec<RawFinding>, AnalysisError> {
    let live_out = solve_backward(b, &Live, cap)?;
    let reachable = forward_reachable(b);
    let mut out = Vec::new();
    for (i, n) in b.nodes.iter().enumerate() {
        if n.synthetic || !reachable.get(i).copied().unwrap_or(false) {
            continue;
        }
        let FlowOp::Assign {
            dst,
            index: None,
            value,
        } = &n.op
        else {
            continue;
        };
        let Some(info) = b.slots.get(*dst as usize) else {
            continue;
        };
        if !matches!(info.kind, SlotKind::Local | SlotKind::LoopVar) {
            continue;
        }
        if value.calls_user_code() || matches!(value, FlowExpr::Unknown) {
            continue;
        }
        let Some(Some(after)) = live_out.get(i) else {
            continue; // cannot reach exit: no liveness claim
        };
        if !get(after, *dst) {
            out.push(RawFinding {
                lint: LintId::DeadStore,
                node: i as u32,
                span: n.span,
                message: format!(
                    "value stored to local {} is never read afterwards",
                    info.name
                ),
            });
        }
    }
    Ok(out)
}
