//! `A009 constant-condition`: branches decided before they run.
//!
//! Reuses the interval fixpoint: a user-written, non-loop-header branch
//! whose condition evaluates to a definite truth value has one arm that
//! no execution takes. Loop headers are exempt (`while true`-style
//! driver loops are an idiom, and `for` headers are synthetic anyway),
//! as is anything the solver marked unreachable — a constant condition
//! in dead code is noise on noise.

use crate::domains::{eval, Interval, Summaries};
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
        if n.synthetic {
            continue;
        }
        let FlowOp::Branch {
            cond,
            loop_header: false,
        } = &n.op
        else {
            continue;
        };
        let Some(Some(state)) = states.get(i) else {
            continue;
        };
        let v = eval(cond, state, &b.slots, summaries);
        let Some(truth) = v.truth() else {
            continue;
        };
        let (verdict, dead_arm) = if truth {
            ("true", "else")
        } else {
            ("false", "then")
        };
        out.push(RawFinding {
            lint: LintId::ConstantCondition,
            node: i as u32,
            span: n.span,
            message: format!(
                "branch condition is always {verdict}: the {dead_arm} arm is \
                 unreachable on every execution"
            ),
        });
    }
    out
}
