//! # slif-techlib — technology models and weight preprocessing
//!
//! The paper's estimation speed comes from preprocessing: every behavior
//! is compiled (for each processor class) and synthesized (for each
//! custom-hardware class) **once**, before system design begins, so that
//! estimation during partitioning is pure lookup. This crate is that
//! preprocessing step:
//!
//! * [`ProcessorModel`] / [`AsicModel`] / [`MemoryModel`] — cost models
//!   for the component classes ([`TechnologyLibrary`] bundles them),
//! * [`compile_behavior`] — the pseudo-compiler: CDFG → ict (ns) + code
//!   bytes on a processor,
//! * [`synthesize_behavior`] — the pseudo-synthesizer: CDFG →
//!   list-schedule → ict + gate count (with a datapath/control split for
//!   sharing-aware size estimation), plus the block schedules from which
//!   concurrency tags are derived.
//!
//! # Examples
//!
//! ```
//! use slif_cdfg::lower_behavior;
//! use slif_techlib::{compile_behavior, synthesize_behavior, TechnologyLibrary};
//!
//! let rs = slif_speclang::parse_and_resolve(
//!     "system T;\nvar a : int<8>[64];\nproc P() { for i in 0 .. 63 { a[i] = i * 2; } }",
//! )?;
//! let g = lower_behavior(&rs, 0);
//! let lib = TechnologyLibrary::proc_asic();
//! let sw = compile_behavior(&g, &lib.processors[0]);
//! let hw = synthesize_behavior(&g, &lib.asics[0]);
//! assert!(hw.weights.ict < sw.ict); // hardware wins on the loop
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod compile;
mod library;
mod models;
#[cfg(test)]
mod schedule_oracle;
mod synth;

pub use compile::compile_behavior;
pub use library::TechnologyLibrary;
pub use models::{AsicModel, BehaviorWeights, MemoryModel, ProcessorModel, VariableWeights};
pub use synth::{synthesize_behavior, SynthesisResult};
