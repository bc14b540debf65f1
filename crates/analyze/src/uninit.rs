//! `A007 uninitialized-read`: locals read before any path assigns them.
//!
//! A forward *may-assigned* analysis (union join over a bitset of
//! slots): a slot absent from the may-assigned set at a use site has a
//! definition on **no** path from entry — the read is definitely
//! uninitialized, not merely possibly so. The definite-violation
//! framing keeps the lint deny-worthy: control-flow merges only ever
//! add facts, so a finding survives every execution order.
//!
//! Scope: scalar locals and loop variables. Parameters are initialized
//! by the caller, globals and ports by the environment, and arrays are
//! initialized element-wise (which a whole-slot bit cannot track
//! honestly).

use crate::dataflow::{solve_forward, AnalysisError, Problem};
use crate::flowdrive::RawFinding;
use crate::lint::LintId;
use slif_speclang::{FlowBehavior, SlotKind};

struct MayAssign;

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

impl Problem for MayAssign {
    type State = Vec<u64>;

    fn boundary(&self, b: &FlowBehavior) -> Vec<u64> {
        let mut bits = vec![0u64; words_for(b)];
        for (i, info) in b.slots.iter().enumerate() {
            // Everything except behavior-introduced storage arrives
            // initialized.
            if !matches!(info.kind, SlotKind::Local | SlotKind::LoopVar) {
                set(&mut bits, i as u32);
            }
        }
        bits
    }

    fn transfer(&self, b: &FlowBehavior, node: u32, input: &Vec<u64>) -> Vec<u64> {
        let mut out = input.clone();
        if let Some((dst, _indexed)) = b.nodes[node as usize].def() {
            // Element writes count: they are how arrays initialize, and
            // over-approximating "assigned" only weakens the lint, never
            // falsifies it.
            set(&mut out, dst);
        }
        out
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

pub(crate) fn check(b: &FlowBehavior, cap: u32) -> Result<Vec<RawFinding>, AnalysisError> {
    let states = solve_forward(b, &MayAssign, cap)?;
    let mut out = Vec::new();
    for (i, n) in b.nodes.iter().enumerate() {
        let Some(Some(state)) = states.get(i) else {
            continue;
        };
        let mut flagged: Vec<u32> = Vec::new();
        n.for_each_use(&mut |slot| {
            let Some(info) = b.slots.get(slot as usize) else {
                return;
            };
            if !matches!(info.kind, SlotKind::Local | SlotKind::LoopVar) || info.is_array {
                return;
            }
            if !get(state, slot) && !flagged.contains(&slot) {
                flagged.push(slot);
            }
        });
        for slot in flagged {
            out.push(RawFinding {
                lint: LintId::UninitializedRead,
                node: i as u32,
                span: n.span,
                message: format!(
                    "local {} is read here, but no path from entry assigns it",
                    b.slots[slot as usize].name
                ),
            });
        }
    }
    Ok(out)
}
