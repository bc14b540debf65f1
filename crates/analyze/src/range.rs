//! `A006 value-range-overflow`: definite out-of-range stores.
//!
//! Consumes the per-behavior interval fixpoint ([`solve_values`]) and
//! flags a write (or `return`) whose computed value range is *entirely*
//! disjoint from the target's representable range. That makes `A006` a
//! true-positive upgrade over `A004`'s width heuristics: an `A006`
//! finding means every execution reaching the statement stores an
//! unrepresentable value — inputs permitting, there is no false-positive
//! mode short of dead code.
//!
//! [`solve_values`]: crate::domains::solve_values

use crate::domains::{declared_range, eval, int_range, Interval, Summaries};
use crate::flowdrive::RawFinding;
use crate::lint::LintId;
use slif_speclang::{FlowBehavior, FlowOp};

pub(crate) fn check(
    b: &FlowBehavior,
    states: &[Option<Vec<Interval>>],
    summaries: &Summaries<'_>,
) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for (i, n) in b.nodes.iter().enumerate() {
        let Some(Some(state)) = states.get(i) else {
            continue; // unreachable: claim nothing about dead code
        };
        match &n.op {
            FlowOp::Assign { dst, index, value } => {
                let Some(info) = b.slots.get(*dst as usize) else {
                    continue;
                };
                // Booleans are the type checker's business; loop
                // variables have no declared width.
                if info.is_bool || info.width.is_none() {
                    continue;
                }
                let declared = declared_range(info);
                let v = eval(value, state, &b.slots, summaries);
                if v.disjoint(declared) {
                    let what = if index.is_some() {
                        format!("an element of {}", info.name)
                    } else {
                        info.name.clone()
                    };
                    let w = info.width.unwrap_or(0);
                    out.push(RawFinding {
                        lint: LintId::ValueRangeOverflow,
                        node: i as u32,
                        span: n.span,
                        message: format!(
                            "assignment to {what} always overflows: the stored \
                             value is in {v}, but int<{w}> holds {declared}"
                        ),
                    });
                }
            }
            FlowOp::Return { value: Some(v) } => {
                let Some(w) = b.ret_width else {
                    continue;
                };
                let declared = int_range(w);
                let r = eval(v, state, &b.slots, summaries);
                if r.disjoint(declared) {
                    out.push(RawFinding {
                        lint: LintId::ValueRangeOverflow,
                        node: i as u32,
                        span: n.span,
                        message: format!(
                            "returned value always overflows: it is in {r}, but \
                             {} returns int<{w}> holding {declared}",
                            b.name
                        ),
                    });
                }
            }
            _ => {}
        }
    }
    out
}
