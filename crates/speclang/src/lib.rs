//! # slif-speclang — the behavioural specification language
//!
//! A small VHDL-flavoured specification language standing in for the VHDL
//! front end the SLIF paper builds on. System design per the paper starts
//! from "a simulatable functional specification" of processes, procedures,
//! variables and communication; this crate provides exactly that substrate:
//!
//! * [`parse`] — lexer + recursive-descent parser producing a [`Spec`] AST,
//! * [`resolve`] — name resolution, constant evaluation and semantic
//!   checking producing a [`ResolvedSpec`],
//! * [`pretty`] — canonical printing (round-trips through the parser),
//! * [`corpus`] — the paper's four benchmark systems (`ans`, `ether`,
//!   `fuzzy`, `vol`) written in this language.
//!
//! The language covers what SLIF construction needs: concurrent
//! `process`es, callable `proc`/`func` behaviors, scalar and array
//! variables, external ports, branch-probability (`prob`) and
//! iteration-count (`iters`) annotations for profiling, `fork`/`join`
//! concurrency, and `send`/`receive` message passing.
//!
//! # Examples
//!
//! ```
//! let spec = slif_speclang::parse(
//!     "system Controller;\n\
//!      port sensor : in int<8>;\n\
//!      var reading : int<8>;\n\
//!      process Main { reading = sensor; wait 10; }\n",
//! )?;
//! let resolved = slif_speclang::resolve(spec)?;
//! assert_eq!(resolved.spec().bv_count(), 2); // Main + reading
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ast;
pub mod corpus;
mod diag;
pub mod flow;
pub mod incremental;
mod lexer;
mod limits;
mod parser;
mod pretty;
mod resolver;
mod sourcemap;
mod span;
mod token;

pub use ast::{eq_modulo_spans, ForEachSpan, Spec};
pub use diag::{codes, Diagnostic, Severity, SpecError};
pub use flow::{
    FlowBehavior, FlowExpr, FlowLowering, FlowNode, FlowOp, FlowProgram, SlotInfo, SlotKind,
    Suppressions,
};
pub use incremental::{
    reparse_with_edit, reparse_with_edit_owned, EditDelta, EditError, Reparse, ReparseScope,
};
pub use lexer::{lex, lex_recovering};
pub use limits::ParseLimits;
pub use parser::{parse, parse_partial, parse_partial_with_limits, parse_with_limits};
pub use pretty::{expr_str, pretty};
pub use resolver::{resolve, try_resolve, GlobalSymbol, LocalSymbol, ResolvedSpec, Symbol, BUILTINS};
pub use sourcemap::SourceMap;
pub use span::Span;
pub use token::{Token, TokenKind};

/// Parses and resolves in one step.
///
/// # Errors
///
/// A [`SpecError`] carrying *all* parse diagnostics (the parser recovers
/// at statement/declaration boundaries) or all resolution diagnostics.
pub fn parse_and_resolve(source: &str) -> Result<ResolvedSpec, SpecError> {
    resolve(parse(source)?)
}
