//! # slif-core — the Specification-Level Intermediate Format
//!
//! A Rust implementation of **SLIF**, the system-level internal format
//! introduced by Frank Vahid ("SLIF: A specification-level intermediate
//! format for system design", DATE 1995 / UCR TR CS-94-06) and used as the
//! core of the SpecSyn system-design environment.
//!
//! SLIF represents a functional specification at *system-level*
//! granularity — processes, procedures, variables, and the communication
//! channels (accesses) between them — together with the system components
//! (processors, memories, buses) the specification is to be mapped onto.
//! A design is the paper's sextuple:
//!
//! ```text
//! < BV_all, IO_all, C_all, P_all, M_all, I_all >
//! ```
//!
//! Because nodes carry *preprocessed* annotations (per-component-class
//! internal computation times and sizes) and channels carry access
//! frequencies and bit counts, design metrics — execution time, bitrate,
//! size, I/O — can be estimated from lookups and sums, in orders of
//! magnitude less time and memory than from operation-granularity formats
//! such as control-dataflow graphs. The estimators themselves live in the
//! `slif-estimate` crate; this crate owns the data model:
//!
//! * [`AccessGraph`] — the functional objects: behavior/variable [`Node`]s,
//!   external [`Port`]s, and [`Channel`] edges (accesses),
//! * [`Design`] — an access graph plus component classes and allocated
//!   [`Processor`]/[`Memory`]/[`Bus`] instances,
//! * [`Partition`] — the mapping of functional objects to components, with
//!   proper-partition validation,
//! * [`CompiledDesign`] — an immutable, query-optimized (CSR adjacency,
//!   dense weight tables) snapshot of a finished design for the
//!   estimation hot path,
//! * [`dot`] — Graphviz export reproducing the paper's Figures 2 and 3,
//! * [`gen`] — synthetic design generation for tests and benchmarks.
//!
//! # Examples
//!
//! Build a miniature version of the paper's fuzzy-logic controller AG and
//! partition it onto a processor–ASIC architecture:
//!
//! ```
//! use slif_core::{
//!     AccessFreq, AccessKind, Bus, ClassKind, Design, NodeKind, Partition,
//! };
//!
//! let mut d = Design::new("fuzzy-mini");
//! let proc_class = d.add_class("proc8", ClassKind::StdProcessor);
//! let asic_class = d.add_class("asic", ClassKind::CustomHw);
//!
//! let main = d.graph_mut().add_node("FuzzyMain", NodeKind::process());
//! let conv = d.graph_mut().add_node("Convolve", NodeKind::procedure());
//! let call = d.graph_mut().add_channel(main, conv.into(), AccessKind::Call)?;
//! *d.graph_mut().channel_mut(call).freq_mut() = AccessFreq::exact(1);
//!
//! // Convolve runs in 80 time units on the processor, 10 on the ASIC.
//! for (class, ict) in [(proc_class, 80), (asic_class, 10)] {
//!     d.graph_mut().node_mut(conv).ict_mut().set(class, ict);
//! }
//!
//! let cpu = d.add_processor("cpu0", proc_class);
//! let asic = d.add_processor("asic0", asic_class);
//! let bus = d.add_bus(Bus::new("mainbus", 16, 1, 4));
//!
//! let mut part = Partition::new(&d);
//! part.assign_node(main, cpu.into());
//! part.assign_node(conv, asic.into());
//! part.assign_channel(call, bus);
//! # let _ = asic;
//! # Ok::<(), slif_core::CoreError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod annotation;
mod channel;
mod compiled;
mod component;
mod design;
mod error;
mod graph;
mod ids;
mod limits;
mod node;
mod partition;
mod txn;

pub mod atomic_io;
pub mod codec;
pub mod dot;
pub mod faults;
pub mod gen;
pub mod validate;

pub use annotation::{AccessFreq, ConcurrencyTag, FreqMode, WeightEntry, WeightList};
pub use channel::{AccessKind, Channel};
pub use compiled::{AnnotationDelta, CompiledDesign};
pub use component::{Bus, ClassKind, ComponentClass, Memory, Processor};
pub use design::Design;
pub use error::CoreError;
pub use graph::AccessGraph;
pub use ids::{
    AccessTarget, BusId, ChannelId, ClassId, MemoryId, NodeId, PmRef, PortId, ProcessorId,
};
pub use limits::GraphLimits;
pub use node::{Node, NodeKind, Port, PortDirection};
pub use partition::Partition;
pub use txn::{PartitionTxn, Savepoint};
pub use validate::{IssueSeverity, ValidationIssue, ValidationReport};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Design>();
        assert_send_sync::<AccessGraph>();
        assert_send_sync::<CompiledDesign>();
        assert_send_sync::<Partition>();
        assert_send_sync::<Channel>();
        assert_send_sync::<Node>();
        assert_send_sync::<CoreError>();
    }
}
