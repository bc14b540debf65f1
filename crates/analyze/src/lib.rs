//! # slif-analyze — specification-level lint & dataflow engine
//!
//! The SLIF premise is that the access graph plus annotations makes
//! design questions answerable by cheap graph traversals. The estimators
//! exploit that for *numbers*; this crate exploits it for *checks*: a
//! lint framework, five graph-level analyses, and a flow-sensitive
//! dataflow engine (abstract interpretation over behavior bodies) that
//! catch broken specifications before they flow into estimation and
//! exploration — the analysis-before-estimation stage of the pipeline.
//!
//! | lint | default | what it catches |
//! |---|---|---|
//! | `A001 shared-variable-race` | deny | *proven* concurrent unserialized writes to a shared variable |
//! | `A002 dead-code` | warn | behaviors/variables unreachable from any process root |
//! | `A003 recursion-cycle` | deny | access-graph cycles that make Eq. 1 non-terminating |
//! | `A004 bitwidth-mismatch` | warn | channel bits vs. scalar width / mapped bus bitwidth |
//! | `A005 missing-annotation` | warn | ict/size gaps on classes the allocation instantiates |
//! | `A006 value-range-overflow` | deny | stores/returns whose value range never fits the declared width |
//! | `A007 uninitialized-read` | deny | locals read with a definition on no path from entry |
//! | `A008 dead-store` | warn | stores to locals no later read observes |
//! | `A009 constant-condition` | warn | branches decided the same way on every execution |
//! | `A010 unproven-interleaving` | warn | race-shaped access pairs no observed execution proves |
//!
//! `A001`–`A005` and `A010` read the compiled access graph;
//! `A006`–`A009` run a monotone worklist fixpoint (interval and bitset
//! domains, widening at loop heads) over the [`FlowProgram`] lowered
//! from the same specification — see
//! [`analyze_compiled_with_flow`]. In-spec `@allow(A00x)` suppressions
//! are honored and counted, never silently dropped.
//!
//! The engine is *total* (it never fails — corrupted designs produce
//! findings, not panics; a behavior whose fixpoint exceeds the visit cap
//! degrades to ⊤, with [`check_flow_bounded`] as the typed-refusal
//! surface) and *pure* (same inputs, `==` report with byte-identical
//! rendering). Findings carry node/channel locations and, through a
//! [`SourceMap`], specification source spans.
//!
//! [`FlowProgram`]: slif_speclang::FlowProgram
//!
//! # Examples
//!
//! ```
//! use slif_analyze::{analyze, AnalysisConfig, LintId};
//! use slif_core::{AccessKind, Design, NodeKind};
//!
//! let mut d = Design::new("demo");
//! let a = d.graph_mut().add_node("A", NodeKind::process());
//! let b = d.graph_mut().add_node("B", NodeKind::process());
//! let v = d.graph_mut().add_node("shared", NodeKind::scalar(8));
//! d.graph_mut().add_channel(a, v.into(), AccessKind::Write)?;
//! d.graph_mut().add_channel(b, v.into(), AccessKind::Write)?;
//!
//! let report = analyze(&d, None, &AnalysisConfig::new());
//! assert_eq!(report.of(LintId::SharedVariableRace).count(), 1);
//! assert!(report.has_denials());
//! # Ok::<(), slif_core::CoreError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::expect_used)]

mod analyzer;
mod annotation;
mod bitwidth;
mod constcond;
mod cycle;
mod dataflow;
mod deadstore;
mod domains;
mod flowdrive;
mod lint;
mod memo;
mod race;
mod range;
mod reach;
mod report;
mod uninit;

pub use analyzer::{
    analyze, analyze_compiled, analyze_compiled_with_flow, analyze_compiled_with_sources,
    analyze_with_sources, check_flow_bounded, SourceMap,
};
pub use dataflow::AnalysisError;
pub use lint::{AnalysisConfig, LintId, LintLevel, LINT_COUNT};
pub use memo::{
    analyze_compiled_memoized, analyze_compiled_memoized_with_flow, AnalysisDirt, AnalysisMemo,
    FlowEdit,
};
pub use report::{AnalysisReport, Finding};
