//! # slif-cdfg — control/dataflow graphs and scheduling
//!
//! The operation-granularity internal format the SLIF paper compares
//! against (Section 5), plus the scheduling machinery that pre-computes
//! SLIF's annotations:
//!
//! * [`Cdfg`] — per-behavior CDFG: operation nodes with dataflow inputs,
//!   basic blocks with control edges and profiled execution counts,
//! * [`lower_behavior`] / [`lower_spec`] — AST → CDFG lowering,
//! * [`access_frequencies`] — per-object access counts, the raw material
//!   for SLIF channel `accfreq` annotations,
//! * [`schedule`] — ASAP / ALAP / resource-constrained list scheduling,
//!   used by `slif-techlib` to pre-synthesize behaviors for ict/size
//!   weights and concurrency tags.
//!
//! # Examples
//!
//! ```
//! use slif_cdfg::{lower_behavior, access_frequencies};
//!
//! let rs = slif_speclang::parse_and_resolve(
//!     "system T;\nvar x : int<8>;\nproc P() { x = x + 1; }",
//! )?;
//! let g = lower_behavior(&rs, 0);
//! assert!(g.node_count() > 0);
//! let accs = access_frequencies(&g);
//! assert_eq!(accs.len(), 1); // x
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dominators;
mod ir;
mod lower;
pub mod schedule;

pub use dominators::immediate_dominators;
pub use ir::{AluOp, BasicBlock, BlockId, Cdfg, ExecCount, OpId, OpKind, OpNode};
pub use lower::{
    access_frequencies, lower_behavior, lower_spec, Access, AccessSummary, DEFAULT_BRANCH_PROB,
    DEFAULT_WHILE_ITERS,
};
pub use schedule::{
    alap, asap, fu_class, list_schedule, BlockSchedule, FuClass, ResourceSet, Scheduler,
};
