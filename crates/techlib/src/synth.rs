//! The pseudo-synthesizer: CDFG × ASIC model → ict, gates, and schedules.
//!
//! "The ict of a behavior on a custom hardware component ... can be
//! estimated by synthesizing the behavior to a structure using that
//! particular component's technology" (Section 2.4.1). The synthesis here
//! is the estimation-oriented core of that step: resource-constrained
//! list scheduling of every block gives the latency (→ ict) and the peak
//! functional-unit usage (→ datapath area); controller states and
//! steering logic give the control area. The datapath/control split is
//! recorded so the sharing-aware size estimator (the paper's reference
//! \[1\]) can discount shared functional units.

use crate::models::{AsicModel, BehaviorWeights};
use slif_cdfg::{BlockSchedule, Cdfg, FuClass, OpKind, Scheduler};
use std::collections::HashSet;

/// The full result of pre-synthesizing one behavior.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisResult {
    /// The ict/size weights for the SLIF node.
    pub weights: BehaviorWeights,
    /// Per-block schedules (block index order), for concurrency-tag
    /// derivation.
    pub schedules: Vec<BlockSchedule>,
}

/// Pre-synthesizes one behavior for one ASIC model.
///
/// # Examples
///
/// ```
/// use slif_cdfg::lower_behavior;
/// use slif_techlib::{synthesize_behavior, AsicModel};
///
/// let rs = slif_speclang::parse_and_resolve(
///     "system T;\nvar x : int<8>;\nproc P() { x = x * 3; }",
/// )?;
/// let g = lower_behavior(&rs, 0);
/// let result = synthesize_behavior(&g, &AsicModel::gate_array());
/// assert!(result.weights.size > 0);
/// assert!(result.weights.datapath.is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn synthesize_behavior(g: &Cdfg, model: &AsicModel) -> SynthesisResult {
    let delay = |k: &OpKind| model.cycles(k);
    let mut ict_cycles = 0.0;
    let mut peak = [0u32; FuClass::COUNT];
    let mut schedules = Vec::with_capacity(g.block_count());
    let mut scheduler = Scheduler::new();
    for block_id in g.block_ids() {
        let sched = scheduler.list_schedule(g, block_id, &delay, model.resources);
        ict_cycles += g.block(block_id).count.avg * sched.latency as f64;
        for (p, &n) in peak.iter_mut().zip(&sched.peak_usage) {
            *p = (*p).max(n);
        }
        schedules.push(sched);
    }

    // Datapath area: the functional units the schedule actually needed,
    // plus registers for the behavior's local storage.
    let fu_gates = FuClass::ALL
        .iter()
        .map(|&class| {
            u64::from(peak[class.index()])
                * match class {
                    FuClass::Alu => model.alu_gates,
                    FuClass::Mul => model.mul_gates,
                    FuClass::Div => model.div_gates,
                    FuClass::Mem => model.mem_port_gates,
                    FuClass::Other => 0,
                }
        })
        .sum::<u64>();
    let reg_gates = local_names(g).len() as u64 * 16 * model.gates_per_bit;
    let datapath = fu_gates + reg_gates;

    // Control area: one state per block (single-block behaviors still
    // need a controller) plus steering logic per operation.
    let control =
        g.block_count() as u64 * model.state_gates + g.node_count() as u64 * model.op_ctrl_gates;

    SynthesisResult {
        weights: BehaviorWeights {
            ict: (ict_cycles * model.cycle_ns as f64).round() as u64,
            size: datapath + control,
            datapath: Some(datapath),
        },
        schedules,
    }
}

/// Distinct behavior-local storage names (locals, params, loop vars) that
/// need registers.
fn local_names(g: &Cdfg) -> HashSet<&str> {
    let mut names = HashSet::new();
    for op in g.op_ids() {
        match &g.op(op).kind {
            OpKind::ReadLocal(n)
            | OpKind::WriteLocal(n)
            | OpKind::ReadLocalArray(n)
            | OpKind::WriteLocalArray(n) => {
                names.insert(n.as_str());
            }
            _ => {}
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use slif_cdfg::lower_behavior;
    use slif_speclang::parse_and_resolve;

    fn synth(src: &str, name: &str, model: &AsicModel) -> SynthesisResult {
        let rs = parse_and_resolve(src).expect("spec loads");
        let idx = rs
            .spec()
            .behaviors
            .iter()
            .position(|b| b.name == name)
            .expect("behavior exists");
        synthesize_behavior(&lower_behavior(&rs, idx), model)
    }

    const CONV: &str = "system T;\n\
        var a : int<8>[128];\nvar b : int<8>[128];\nvar c : int<8>[128];\n\
        proc Convolve() { for i in 0 .. 127 { c[i] = max(a[i], b[i]); } }";

    #[test]
    fn asic_beats_processor_on_loops() {
        // The paper's Figure 3: Convolve at 80 us on a processor, 10 us on
        // an ASIC — the shape to reproduce is a large ict ratio.
        let rs = parse_and_resolve(CONV).unwrap();
        let g = lower_behavior(&rs, 0);
        let asic = synthesize_behavior(&g, &AsicModel::gate_array());
        let sw = crate::compile::compile_behavior(&g, &crate::models::ProcessorModel::mcu8());
        assert!(
            sw.ict >= 4 * asic.weights.ict,
            "sw {} vs hw {}",
            sw.ict,
            asic.weights.ict
        );
    }

    #[test]
    fn datapath_and_control_split() {
        let r = synth(CONV, "Convolve", &AsicModel::gate_array());
        let dp = r.weights.datapath.unwrap();
        assert!(dp > 0);
        assert!(dp < r.weights.size, "control adds on top of datapath");
    }

    #[test]
    fn bigger_behavior_needs_more_gates() {
        let small = synth(
            "system T;\nvar x : int<8>;\nproc P() { x = x + 1; }",
            "P",
            &AsicModel::gate_array(),
        );
        let big = synth(CONV, "Convolve", &AsicModel::gate_array());
        assert!(big.weights.size > small.weights.size);
    }

    #[test]
    fn fpga_and_gate_array_differ() {
        let ga = synth(CONV, "Convolve", &AsicModel::gate_array());
        let fp = synth(CONV, "Convolve", &AsicModel::fpga());
        assert_ne!(ga.weights, fp.weights);
    }

    #[test]
    fn schedules_returned_per_block() {
        let r = synth(CONV, "Convolve", &AsicModel::gate_array());
        let rs = parse_and_resolve(CONV).unwrap();
        let g = lower_behavior(&rs, 0);
        assert_eq!(r.schedules.len(), g.block_count());
    }

    #[test]
    fn communication_excluded_from_asic_ict() {
        // Pure global reads/writes schedule with zero delay.
        let r = synth(
            "system T;\nvar x : int<8>;\nvar y : int<8>;\nproc P() { y = x; }",
            "P",
            &AsicModel::gate_array(),
        );
        // Only the Return costs a cycle.
        assert_eq!(r.weights.ict, AsicModel::gate_array().cycle_ns);
    }
}
