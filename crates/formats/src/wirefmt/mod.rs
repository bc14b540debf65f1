//! Streaming SLIF interchange formats.
//!
//! Two encodings of the same logical payload — a
//! [`Design`](slif_core::Design) plus its annotations and an optional
//! [`Partition`](slif_core::Partition):
//!
//! * **text** (`.slif`) — a line-oriented, section-structured format
//!   ([`text`]): a `slif-wire 1` header line, then `[design]`,
//!   `[annotations]`, an optional `[partition]`, and a closing `[end]`
//!   section whose `check` directive carries the SHA-256 content key of
//!   the design's canonical bytes. Unknown sections are tolerated with
//!   a warning; in [`Strictness::Lenient`] mode a malformed record
//!   produces a deny-level diagnostic and the reader *resyncs* at the
//!   next section header instead of giving up.
//! * **binary** (`.slifb`) — a sequence of length-prefixed,
//!   checksum-framed segments ([`binary`]) reusing the
//!   [`slif_core::atomic_io`] frame layout; its design segments are the
//!   store's canonical segments ([`slif_store::canonical`]), framed one
//!   by one, so the design layout has one encoder and one decoder, and
//!   a `.slifb` file with no partition is exactly a stored design
//!   object. The reader verifies each
//!   frame's magic, version, declared length (against
//!   [`FormatLimits::max_segment_bytes`], *before* any allocation) and
//!   checksum; a damaged segment is a typed refusal in strict mode and
//!   a quarantined miss plus a magic-scan resync in lenient mode.
//!
//! Both readers are **pull parsers** ([`text::TextRecords`],
//! [`binary::Segments`]): they hold at most one line / one segment in
//! memory, so peak allocation is O(record), not O(file). Both folds
//! enforce [`FormatLimits`] throughout, and neither can return a wrong
//! answer: an outcome is only [`ReadOutcome::verified`] when the
//! decoded design's canonical bytes hash to the content key declared in
//! the trailer, and strict mode refuses anything less.

use std::fmt;

use slif_core::{CoreError, Design, GraphLimits, Partition};
use slif_speclang::Diagnostic;
use slif_store::{encode_design, ContentKey};

pub mod binary;
pub mod text;

pub use slif_store::canonical::{SEGMENT_MAGIC, SEGMENT_VERSION};

/// The text encoding's first-line header (followed by the version).
pub const TEXT_MAGIC: &str = "slif-wire";
/// The text encoding's format version.
pub const TEXT_VERSION: u32 = 1;

/// Resource caps a reader enforces while parsing untrusted bytes.
///
/// Modeled on [`GraphLimits`]: a plain struct of caps with `with_*`
/// builders, checked *before* the corresponding allocation or recursion
/// so a hostile input cannot make the parser balloon.
#[derive(Debug, Clone, PartialEq)]
pub struct FormatLimits {
    /// Longest accepted text line, in bytes (cap before buffering more).
    pub max_line_bytes: usize,
    /// Largest accepted binary segment payload, in bytes (checked
    /// against the *declared* length before reading the payload).
    pub max_segment_bytes: usize,
    /// Deepest accepted nesting: `{`-blocks inside unknown text
    /// sections, group segments inside group segments.
    pub max_nesting_depth: usize,
    /// Most sections (text) or segments (binary) accepted in one file.
    pub max_records: usize,
    /// How far a lenient binary reader scans for the next segment magic
    /// after a damaged frame before declaring the tail lost.
    pub max_resync_bytes: usize,
    /// Most diagnostics collected before the read aborts with
    /// [`FormatError::LimitExceeded`] (a corrupt file must not buy an
    /// unbounded diagnostics vector).
    pub max_diagnostics: usize,
    /// Caps on the graph being rebuilt, enforced per added object.
    pub graph: GraphLimits,
}

impl Default for FormatLimits {
    fn default() -> Self {
        Self {
            max_line_bytes: 1 << 16,
            max_segment_bytes: 1 << 24,
            max_nesting_depth: 16,
            max_records: 1 << 20,
            max_resync_bytes: 1 << 20,
            max_diagnostics: 256,
            graph: GraphLimits::default(),
        }
    }
}

impl FormatLimits {
    /// Replaces the line-length cap.
    #[must_use]
    pub fn with_max_line_bytes(mut self, v: usize) -> Self {
        self.max_line_bytes = v;
        self
    }
    /// Replaces the segment-payload cap.
    #[must_use]
    pub fn with_max_segment_bytes(mut self, v: usize) -> Self {
        self.max_segment_bytes = v;
        self
    }
    /// Replaces the nesting-depth cap.
    #[must_use]
    pub fn with_max_nesting_depth(mut self, v: usize) -> Self {
        self.max_nesting_depth = v;
        self
    }
    /// Replaces the record-count cap.
    #[must_use]
    pub fn with_max_records(mut self, v: usize) -> Self {
        self.max_records = v;
        self
    }
    /// Replaces the resync-scan cap.
    #[must_use]
    pub fn with_max_resync_bytes(mut self, v: usize) -> Self {
        self.max_resync_bytes = v;
        self
    }
    /// Replaces the diagnostics cap.
    #[must_use]
    pub fn with_max_diagnostics(mut self, v: usize) -> Self {
        self.max_diagnostics = v;
        self
    }
    /// Replaces the graph caps.
    #[must_use]
    pub fn with_graph(mut self, v: GraphLimits) -> Self {
        self.graph = v;
        self
    }
}

/// How a reader treats recoverable damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strictness {
    /// Any malformed record, damaged segment, missing trailer, or
    /// content-key mismatch is a typed [`FormatError`]. The mode for
    /// machine ingest (the wire): accepted implies verified.
    Strict,
    /// Malformed records become deny-level diagnostics and the reader
    /// resyncs (next section header / next segment magic); the outcome
    /// reports `verified: false` unless the trailer check still passes.
    /// The mode for human tooling that wants to salvage what it can.
    Lenient,
}

/// Which wire encoding a byte stream uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Encoding {
    /// Line-oriented `.slif` text.
    Text,
    /// Length-prefixed, checksum-framed `.slifb` segments.
    Binary,
}

impl fmt::Display for Encoding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Encoding::Text => "text",
            Encoding::Binary => "binary",
        })
    }
}

/// Sniffs the encoding from the first bytes of a stream.
///
/// Text files start with the `slif-wire` header line; binary files
/// start with a segment frame's magic. Anything else is unrecognized.
pub fn detect_encoding(prefix: &[u8]) -> Option<Encoding> {
    if prefix.starts_with(TEXT_MAGIC.as_bytes()) {
        Some(Encoding::Text)
    } else if prefix.starts_with(&SEGMENT_MAGIC) {
        Some(Encoding::Binary)
    } else {
        None
    }
}

/// Why a read or write was refused. Every variant is a *refusal*: the
/// reader never guesses past damage it cannot prove benign.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FormatError {
    /// The underlying reader or writer failed.
    Io {
        /// What was being read or written.
        context: &'static str,
        /// The I/O error's message.
        message: String,
    },
    /// A cap in [`FormatLimits`] would have been exceeded.
    LimitExceeded {
        /// Which cap.
        what: &'static str,
        /// The configured cap.
        limit: usize,
        /// The observed or declared value.
        actual: usize,
    },
    /// A record failed to parse (strict mode, or an unrecoverable spot).
    Malformed {
        /// 1-based line for text input, 0 for binary input.
        line: usize,
        /// Byte offset of the offending record.
        offset: usize,
        /// What was wrong.
        message: String,
    },
    /// The input ended before the closing section or segment.
    Truncated {
        /// What was still expected.
        context: &'static str,
    },
    /// Bytes at a segment boundary did not start with the segment magic.
    BadMagic {
        /// Byte offset of the bad header.
        offset: usize,
    },
    /// A header or frame declared a version this reader does not speak.
    UnsupportedVersion {
        /// The declared version.
        found: u32,
    },
    /// A segment's checksum did not match its payload.
    ChecksumMismatch {
        /// Byte offset of the damaged segment.
        offset: usize,
    },
    /// The decoded design's canonical bytes do not hash to the content
    /// key the trailer declared — the payload was altered in flight.
    ContentMismatch {
        /// The key the trailer declared (hex).
        declared: String,
        /// The key the decoded design actually hashes to (hex).
        actual: String,
    },
    /// A required section or segment never appeared.
    MissingSection {
        /// Which one.
        section: &'static str,
    },
    /// A section or segment kind appeared twice.
    DuplicateSection {
        /// Which one.
        section: &'static str,
        /// 1-based line for text input, 0 for binary input.
        line: usize,
    },
    /// Rebuilding the design hit a graph error or cap.
    Graph(CoreError),
    /// The writer cannot represent this design (a name the line grammar
    /// cannot carry, an object count past `u32`).
    Unencodable {
        /// What cannot be represented.
        message: String,
    },
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Io { context, message } => write!(f, "i/o failure ({context}): {message}"),
            FormatError::LimitExceeded {
                what,
                limit,
                actual,
            } => write!(f, "{what} limit exceeded: {actual} > {limit}"),
            FormatError::Malformed {
                line,
                offset,
                message,
            } => {
                if *line == 0 {
                    write!(f, "malformed record at byte {offset}: {message}")
                } else {
                    write!(f, "malformed record at line {line}: {message}")
                }
            }
            FormatError::Truncated { context } => {
                write!(f, "input truncated: {context} still expected")
            }
            FormatError::BadMagic { offset } => {
                write!(f, "bad segment magic at byte {offset}")
            }
            FormatError::UnsupportedVersion { found } => {
                write!(f, "unsupported format version {found}")
            }
            FormatError::ChecksumMismatch { offset } => {
                write!(f, "segment checksum mismatch at byte {offset}")
            }
            FormatError::ContentMismatch { declared, actual } => {
                write!(f, "content key mismatch: trailer declares {declared}, payload hashes to {actual}")
            }
            FormatError::MissingSection { section } => {
                write!(f, "missing required section `{section}`")
            }
            FormatError::DuplicateSection { section, line } => {
                if *line == 0 {
                    write!(f, "duplicate section `{section}`")
                } else {
                    write!(f, "duplicate section `{section}` at line {line}")
                }
            }
            FormatError::Graph(e) => write!(f, "graph rejected: {e}"),
            FormatError::Unencodable { message } => write!(f, "unencodable design: {message}"),
        }
    }
}

impl std::error::Error for FormatError {}

impl From<CoreError> for FormatError {
    fn from(e: CoreError) -> Self {
        FormatError::Graph(e)
    }
}

pub(crate) fn io_err(context: &'static str, e: &std::io::Error) -> FormatError {
    FormatError::Io {
        context,
        message: e.to_string(),
    }
}

/// What a successful read produced.
#[derive(Debug)]
#[non_exhaustive]
pub struct ReadOutcome {
    /// The decoded design, annotations applied.
    pub design: Design,
    /// The decoded partition, when the input carried one.
    pub partition: Option<Partition>,
    /// Warnings (unknown sections, skipped extensions) and — in lenient
    /// mode — deny-level records the reader resynced past.
    pub diagnostics: Vec<Diagnostic>,
    /// Whether the decoded design's canonical bytes hash to the content
    /// key the trailer declared. Strict reads only ever return
    /// `verified: true`; a lenient read that salvaged around damage
    /// reports `false`.
    pub verified: bool,
    /// The content key of the decoded design's canonical bytes (the
    /// key the trailer was checked against), so a caller that files the
    /// design by key need not encode and hash it again.
    pub key: ContentKey,
    /// High-water mark of the pull parser's internal buffer, in bytes —
    /// the evidence that parsing stayed O(record), not O(file).
    pub peak_alloc_bytes: usize,
}

impl ReadOutcome {
    /// Whether any diagnostic is deny-level (an error the lenient
    /// reader resynced past).
    pub fn has_denials(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity() == slif_speclang::Severity::Error)
    }
}

/// Reads a design from bytes in whichever encoding they carry.
///
/// # Errors
///
/// [`FormatError::BadMagic`] when the prefix matches neither encoding,
/// else whatever [`text::read_text`] / [`binary::read_binary`] return.
pub fn read_bytes(
    bytes: &[u8],
    strictness: Strictness,
    limits: &FormatLimits,
) -> Result<ReadOutcome, FormatError> {
    match detect_encoding(bytes) {
        Some(Encoding::Text) => text::read_text(bytes, strictness, limits),
        Some(Encoding::Binary) => binary::read_binary(bytes, strictness, limits),
        None => Err(FormatError::BadMagic { offset: 0 }),
    }
}

/// Writes a design (plus optional partition) in the chosen encoding.
///
/// # Errors
///
/// [`FormatError::Unencodable`] for designs the encoding cannot carry;
/// [`FormatError::Io`] is impossible when writing to a `Vec` but the
/// underlying writers are generic.
pub fn write_bytes(
    design: &Design,
    partition: Option<&Partition>,
    encoding: Encoding,
) -> Result<Vec<u8>, FormatError> {
    let mut out = Vec::new();
    match encoding {
        Encoding::Text => {
            let key = ContentKey::of(&encode_design(design));
            text::write_text(design, partition, &key, &mut out)?;
        }
        Encoding::Binary => binary::write_binary(design, partition, &mut out)?,
    }
    Ok(out)
}

#[cfg(test)]
pub(crate) mod testutil {
    use slif_core::{
        AccessFreq, AccessKind, AccessTarget, Bus, ClassKind, ConcurrencyTag, Design, Memory,
        NodeKind, Partition, PmRef, PortDirection, Processor, WeightEntry,
    };

    /// A design that exercises every wire construct: all class kinds,
    /// port directions, node kinds, access kinds, both target kinds,
    /// concurrency groups, datapath splits, and constrained components.
    pub fn sample_design() -> (Design, Partition) {
        let mut d = Design::new("wiresample");
        let proc8 = d.add_class("proc8", ClassKind::StdProcessor);
        let hw = d.add_class("hw", ClassKind::CustomHw);
        let mem1 = d.add_class("mem1", ClassKind::Memory);
        let g = d.graph_mut();
        let sensor = g.add_port("sensor", PortDirection::In, 8);
        let _led = g.add_port("led", PortDirection::Out, 1);
        let _dbg = g.add_port("dbg", PortDirection::InOut, 16);
        let main = g.add_node("main", NodeKind::process());
        let eval = g.add_node("eval", NodeKind::procedure());
        let table = g.add_node("table", NodeKind::array(256, 8));
        let c0 = g
            .add_channel(main, AccessTarget::Node(eval), AccessKind::Call)
            .unwrap();
        let c1 = g
            .add_channel(eval, AccessTarget::Node(table), AccessKind::Read)
            .unwrap();
        let c2 = g
            .add_channel(main, AccessTarget::Port(sensor), AccessKind::Read)
            .unwrap();
        {
            let ch = g.channel_mut(c0);
            *ch.freq_mut() = AccessFreq::new(2.5, 1, 4);
            ch.set_bits(8);
            ch.set_tag(ConcurrencyTag::group(3));
        }
        {
            let ch = g.channel_mut(c1);
            *ch.freq_mut() = AccessFreq::new(16.0, 16, 16);
            ch.set_bits(8);
        }
        {
            let ch = g.channel_mut(c2);
            *ch.freq_mut() = AccessFreq::new(1.0, 0, 1);
            ch.set_bits(8);
        }
        g.node_mut(main).ict_mut().set(proc8, 1200);
        g.node_mut(eval).ict_mut().set(proc8, 300);
        g.node_mut(eval).ict_mut().set(hw, 40);
        g.node_mut(main).size_mut().insert(WeightEntry::new(proc8, 4000));
        g.node_mut(eval)
            .size_mut()
            .insert(WeightEntry::with_datapath(hw, 900, 350));
        g.node_mut(table).size_mut().insert(WeightEntry::new(mem1, 2048));
        let cpu = d.add_processor_instance(
            Processor::new("cpu", proc8)
                .with_size_constraint(100_000)
                .with_pin_constraint(120),
        );
        let ram = d.add_memory_instance(Memory::new("ram", mem1).with_size_constraint(65_536));
        let b0 = d.add_bus(Bus::new("b0", 16, 2, 1).with_capacity(4000.0));
        let mut p = Partition::new(&d);
        p.assign_node(main, PmRef::Processor(cpu));
        p.assign_node(eval, PmRef::Processor(cpu));
        p.assign_node(table, PmRef::Memory(ram));
        p.assign_channel(c1, b0);
        (d, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_detection_sniffs_both_headers() {
        assert_eq!(detect_encoding(b"slif-wire 1\n"), Some(Encoding::Text));
        assert_eq!(detect_encoding(b"SLIFWSEG\x01\x00"), Some(Encoding::Binary));
        assert_eq!(detect_encoding(b"BLIF 1.0"), None);
        assert_eq!(detect_encoding(b""), None);
    }

    #[test]
    fn limits_builders_replace_one_cap_each() {
        let l = FormatLimits::default()
            .with_max_line_bytes(7)
            .with_max_segment_bytes(8)
            .with_max_nesting_depth(9)
            .with_max_records(10)
            .with_max_resync_bytes(11)
            .with_max_diagnostics(12);
        assert_eq!(
            (l.max_line_bytes, l.max_segment_bytes, l.max_nesting_depth),
            (7, 8, 9)
        );
        assert_eq!(
            (l.max_records, l.max_resync_bytes, l.max_diagnostics),
            (10, 11, 12)
        );
    }

    #[test]
    fn errors_render_with_location() {
        let e = FormatError::Malformed {
            line: 3,
            offset: 40,
            message: "nope".into(),
        };
        assert_eq!(e.to_string(), "malformed record at line 3: nope");
        let e = FormatError::Malformed {
            line: 0,
            offset: 40,
            message: "nope".into(),
        };
        assert_eq!(e.to_string(), "malformed record at byte 40: nope");
    }
}
