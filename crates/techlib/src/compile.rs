//! The pseudo-compiler: CDFG × processor model → ict and code size.
//!
//! "The ict on a standard processor can be estimated through compilation"
//! (Section 2.4.1). This compiler costs each operation from the
//! processor's cycle table — counting *internal* computation only, since
//! channel communication is estimated separately — and weights it by the
//! profiled execution count of its block. Code size counts every
//! operation statically (an instruction exists whether or not it runs).

use crate::models::{BehaviorWeights, ProcessorModel};
use slif_cdfg::{Cdfg, Scheduler};

/// Pre-compiles one behavior for one processor model.
///
/// # Examples
///
/// ```
/// use slif_cdfg::lower_behavior;
/// use slif_techlib::{compile_behavior, ProcessorModel};
///
/// let rs = slif_speclang::parse_and_resolve(
///     "system T;\nvar x : int<8>;\nproc P() { x = x * 3; }",
/// )?;
/// let g = lower_behavior(&rs, 0);
/// let w = compile_behavior(&g, &ProcessorModel::mcu8());
/// assert!(w.ict > 0);
/// assert!(w.size > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn compile_behavior(g: &Cdfg, model: &ProcessorModel) -> BehaviorWeights {
    let mut ict_cycles = 0.0;
    let mut bytes = model.behavior_overhead_bytes;
    let mut scheduler = Scheduler::new();
    for block_id in g.block_ids() {
        let block = g.block(block_id);
        let sum_cycles: u64 = block
            .ops
            .iter()
            .map(|&op| model.cycles(&g.op(op).kind))
            .sum();
        let block_cycles = if model.issue_width > 1 {
            // Pipelined issue: independent ops overlap up to the issue
            // width, but never below the block's dataflow critical path.
            let throughput_bound = (sum_cycles as f64 / f64::from(model.issue_width)).ceil() as u64;
            let critical_path = scheduler.asap(g, block_id, &|k| model.cycles(k)).latency;
            throughput_bound.max(critical_path)
        } else {
            sum_cycles
        };
        ict_cycles += block.count.avg * block_cycles as f64;
        bytes += block
            .ops
            .iter()
            .map(|&op| model.bytes(&g.op(op).kind))
            .sum::<u64>();
    }
    BehaviorWeights {
        ict: (ict_cycles * model.cycle_ns as f64).round() as u64,
        size: bytes,
        datapath: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slif_cdfg::lower_behavior;
    use slif_speclang::parse_and_resolve;

    fn weights(src: &str, name: &str, model: &ProcessorModel) -> BehaviorWeights {
        let rs = parse_and_resolve(src).expect("spec loads");
        let idx = rs
            .spec()
            .behaviors
            .iter()
            .position(|b| b.name == name)
            .expect("behavior exists");
        compile_behavior(&lower_behavior(&rs, idx), model)
    }

    #[test]
    fn straight_line_cost_is_exact() {
        // x = x * 3: ReadGlobal(0 cyc) Const(1) Mul(8) WriteGlobal(0) Return(2).
        let w = weights(
            "system T;\nvar x : int<8>;\nproc P() { x = x * 3; }",
            "P",
            &ProcessorModel::mcu8(),
        );
        assert_eq!(w.ict, (1 + 8 + 2) * 100);
        // 5 ops * 2 bytes + 8 overhead.
        assert_eq!(w.size, 18);
    }

    #[test]
    fn loops_multiply_time_not_size() {
        let body =
            "system T;\nvar a : int<8>[64];\nproc P() { for i in 0 .. 63 { a[i] = i + 1; } }";
        let once = "system T;\nvar a : int<8>[64];\nproc P() { a[0] = 0 + 1; }";
        let w_loop = weights(body, "P", &ProcessorModel::mcu8());
        let w_once = weights(once, "P", &ProcessorModel::mcu8());
        // The loop body runs 64 times: time scales far beyond a single pass.
        assert!(
            w_loop.ict > 32 * w_once.ict,
            "{} vs {}",
            w_loop.ict,
            w_once.ict
        );
        // Code size stays within a small constant factor.
        assert!(w_loop.size < 3 * w_once.size);
    }

    #[test]
    fn branch_probability_scales_time() {
        let hot = "system T;\nvar x : int<8>;\nproc P() { if x > 0 prob 0.9 { x = x * 3; } }";
        let cold = "system T;\nvar x : int<8>;\nproc P() { if x > 0 prob 0.1 { x = x * 3; } }";
        let w_hot = weights(hot, "P", &ProcessorModel::mcu8());
        let w_cold = weights(cold, "P", &ProcessorModel::mcu8());
        assert!(w_hot.ict > w_cold.ict);
        assert_eq!(w_hot.size, w_cold.size, "size is static");
    }

    #[test]
    fn faster_processor_gives_smaller_ict() {
        let src = "system T;\nvar x : int<8>;\nproc P() { x = x * 3 / 2; }";
        let slow = weights(src, "P", &ProcessorModel::mcu8());
        let fast = weights(src, "P", &ProcessorModel::cpu32());
        assert!(fast.ict < slow.ict);
    }

    #[test]
    fn pipelined_issue_overlaps_independent_ops() {
        // Four independent assignments: a 2-wide pipeline halves the
        // cycle count (modulo ceil), a dependency chain does not.
        let independent = "system T;\nvar a : int<8>;\nvar b : int<8>;\n\
            proc P() { var t : int<8>; var u : int<8>; t = 1 + 2; u = 3 + 4; t = t + 1; u = u + 1; }";
        let scalar = {
            let mut m = ProcessorModel::risc32_pipelined();
            m.issue_width = 1;
            m
        };
        let wide = ProcessorModel::risc32_pipelined();
        let w_scalar = weights(independent, "P", &scalar);
        let w_wide = weights(independent, "P", &wide);
        assert!(
            w_wide.ict < w_scalar.ict,
            "pipeline should help: {} vs {}",
            w_wide.ict,
            w_scalar.ict
        );
        assert!(
            w_wide.ict * 3 >= w_scalar.ict,
            "but never beyond ~2x: {} vs {}",
            w_wide.ict,
            w_scalar.ict
        );
        assert_eq!(w_wide.size, w_scalar.size, "code size is width-independent");
    }

    #[test]
    fn pipelined_ict_never_beats_the_critical_path() {
        // One expression whose multiplies chain in dataflow: issue width
        // cannot shrink the block below the chain's latency.
        let chain = "system T;\nvar x : int<8>;\nproc P() { x = 1 * 2 * 3 * 4 * 5; }";
        let scalar = {
            let mut m = ProcessorModel::risc32_pipelined();
            m.issue_width = 1;
            m
        };
        let wide = ProcessorModel::risc32_pipelined();
        let w_scalar = weights(chain, "P", &scalar);
        let w_wide = weights(chain, "P", &wide);
        // Scalar: 5 consts + 4 muls (3 cy) + return (2) = 19 cycles.
        assert_eq!(w_scalar.ict, 19 * 20);
        // Wide: throughput bound ceil(19/2) = 10 loses to the mul chain's
        // critical path 1 + 4 × 3 = 13 cycles.
        assert_eq!(w_wide.ict, 13 * 20);
    }

    #[test]
    fn communication_is_excluded_from_ict() {
        // A behavior that only reads/writes globals has ict from Return only.
        let w = weights(
            "system T;\nvar x : int<8>;\nvar y : int<8>;\nproc P() { y = x; }",
            "P",
            &ProcessorModel::mcu8(),
        );
        assert_eq!(w.ict, 200, "only the return costs internal time");
        // But the access instructions still take code space.
        assert!(w.size > ProcessorModel::mcu8().behavior_overhead_bytes);
    }

    #[test]
    fn datapath_split_absent_for_software() {
        let w = weights(
            "system T;\nvar x : int<8>;\nproc P() { x = 1; }",
            "P",
            &ProcessorModel::mcu8(),
        );
        assert_eq!(w.datapath, None);
    }
}
