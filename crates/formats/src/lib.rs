//! # slif-formats — baseline internal formats for the size comparison
//!
//! Section 5 of the SLIF paper compares the access graph's size against
//! two operation-granularity formats: an assignment-decision-diagram
//! (ADD/VT-style) format and a control-dataflow graph. The CDFG lives in
//! `slif-cdfg`; this crate provides:
//!
//! * [`AddGraph`] / [`build_add`] / [`build_spec_add`] — the ADD-style
//!   baseline,
//! * [`FormatComparison`] — the three-format node/edge/`n²` table the
//!   paper reports for the fuzzy example,
//! * [`wirefmt`] — the streaming `.slif` (text) and `.slifb` (binary)
//!   interchange encodings: hostile-byte-hardened pull parsers with
//!   bounded memory, typed refusals, and corruption resync.
//!
//! # Examples
//!
//! ```
//! use slif_formats::FormatComparison;
//!
//! let entry = slif_speclang::corpus::by_name("fuzzy").unwrap();
//! let rs = entry.load()?;
//! let cmp = FormatComparison::measure(&rs, entry.paper.channels as usize);
//! assert_eq!(cmp.slif().nodes, 35);
//! println!("{cmp}");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod add;
mod report;
pub mod wirefmt;

pub use add::{build_add, build_spec_add, AddGraph, AddNode};
pub use report::{FormatComparison, FormatRow};
pub use slif_store::ContentKey;
pub use wirefmt::{
    detect_encoding, read_bytes, write_bytes, Encoding, FormatError, FormatLimits, ReadOutcome,
    Strictness,
};
