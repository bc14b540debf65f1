//! The line-oriented `.slif` text encoding.
//!
//! ```text
//! slif-wire 1
//! [design]
//! design fuzzy
//! class proc8 std-processor
//! port sensor in 8
//! node main process
//! node membership variable 256 8
//! channel main membership read freq 2.0 1 4 bits 8 tag seq
//! processor cpu proc8 size 100000 pins 120
//! memory ram mem1 size 65536
//! bus b1 16 2 1 cap 4000.0
//! [annotations]
//! ict main proc8 1200
//! size main proc8 4000 dp 1500
//! [partition]
//! map main cpu
//! chan 0 b1
//! [end]
//! check <64 hex chars: SHA-256 of the design's canonical bytes>
//! ```
//!
//! Blank lines and `#` comments are skipped everywhere. Sections must
//! appear in the order above; `[annotations]` and `[partition]` may be
//! empty, `[partition]` may be absent. Unknown sections are skipped
//! with a warning; their bodies may nest `{`-blocks (a line ending in
//! `{` opens one, a `}` line closes one) up to
//! [`FormatLimits::max_nesting_depth`].
//!
//! The reader is a pull parser: [`TextRecords`] buffers at most one
//! line (capped at [`FormatLimits::max_line_bytes`]), so peak memory is
//! O(line), not O(file). In [`Strictness::Lenient`] mode a malformed
//! record becomes a deny-level diagnostic and the reader resyncs at the
//! next `[section]` header; in [`Strictness::Strict`] mode it is a
//! typed [`FormatError`].

use std::io::{Read, Write};
use std::ops::Range;

use slif_core::{
    AccessFreq, AccessKind, AccessTarget, Bus, ClassKind, ConcurrencyTag, Design, Memory,
    NodeKind, Partition, PmRef, PortDirection, Processor, WeightEntry,
};
use slif_speclang::{codes, Diagnostic, Span};
use slif_store::ContentKey;

use super::{
    io_err, FormatError, FormatLimits, ReadOutcome, Strictness, TEXT_MAGIC, TEXT_VERSION,
};

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn check_name(what: &'static str, name: &str) -> Result<(), FormatError> {
    let bad = name.is_empty()
        || name.starts_with('[')
        || name.starts_with('#')
        || name.chars().any(|c| c.is_whitespace() || c.is_control());
    if bad {
        return Err(FormatError::Unencodable {
            message: format!("{what} name {name:?} cannot be carried by the line grammar"),
        });
    }
    Ok(())
}

fn class_kind_str(k: ClassKind) -> &'static str {
    match k {
        ClassKind::StdProcessor => "std-processor",
        ClassKind::CustomHw => "custom-hw",
        ClassKind::Memory => "memory",
    }
}

fn direction_str(d: PortDirection) -> &'static str {
    match d {
        PortDirection::In => "in",
        PortDirection::Out => "out",
        PortDirection::InOut => "inout",
    }
}

fn access_kind_str(k: AccessKind) -> &'static str {
    match k {
        AccessKind::Call => "call",
        AccessKind::Read => "read",
        AccessKind::Write => "write",
        AccessKind::Message => "message",
    }
}

/// Writes `design` (and `partition`, when given) as `.slif` text.
///
/// `key` is the design's content key, which the `check` line carries:
/// `ContentKey::of(&encode_design(design))`, as
/// [`write_bytes`](super::write_bytes) computes it, or the name a
/// verified store read returned the design under. The output is
/// deterministic — equal inputs produce identical bytes — and lines are
/// emitted one at a time, so the writer never buffers the whole file.
///
/// # Errors
///
/// [`FormatError::Unencodable`] when an object name cannot be carried
/// by the line grammar (whitespace, control characters, a leading `[`
/// or `#`); [`FormatError::Io`] when the sink fails.
pub fn write_text<W: Write>(
    design: &Design,
    partition: Option<&Partition>,
    key: &ContentKey,
    w: &mut W,
) -> Result<(), FormatError> {
    let wr = |e: &std::io::Error| io_err("text write", e);
    let g = design.graph();

    check_name("design", design.name())?;
    writeln!(w, "{TEXT_MAGIC} {TEXT_VERSION}").map_err(|e| wr(&e))?;
    writeln!(w, "[design]").map_err(|e| wr(&e))?;
    writeln!(w, "design {}", design.name()).map_err(|e| wr(&e))?;

    for k in design.class_ids() {
        let c = design.class(k);
        check_name("class", c.name())?;
        writeln!(w, "class {} {}", c.name(), class_kind_str(c.kind())).map_err(|e| wr(&e))?;
    }
    for p in g.port_ids() {
        let port = g.port(p);
        check_name("port", port.name())?;
        writeln!(
            w,
            "port {} {} {}",
            port.name(),
            direction_str(port.direction()),
            port.bits()
        )
        .map_err(|e| wr(&e))?;
    }
    for n in g.node_ids() {
        let node = g.node(n);
        check_name("node", node.name())?;
        match node.kind() {
            NodeKind::Behavior { process: true } => {
                writeln!(w, "node {} process", node.name()).map_err(|e| wr(&e))?;
            }
            NodeKind::Behavior { process: false } => {
                writeln!(w, "node {} procedure", node.name()).map_err(|e| wr(&e))?;
            }
            NodeKind::Variable { words, word_bits } => {
                writeln!(w, "node {} variable {} {}", node.name(), words, word_bits)
                    .map_err(|e| wr(&e))?;
            }
        }
    }
    for c in g.channel_ids() {
        let ch = g.channel(c);
        let dst = match ch.dst() {
            AccessTarget::Node(n) => g.node(n).name(),
            AccessTarget::Port(p) => g.port(p).name(),
        };
        let f = ch.freq();
        write!(
            w,
            "channel {} {} {} freq {:?} {} {} bits {} tag ",
            g.node(ch.src()).name(),
            dst,
            access_kind_str(ch.kind()),
            f.avg,
            f.min,
            f.max,
            ch.bits()
        )
        .map_err(|e| wr(&e))?;
        match ch.tag().id() {
            None => writeln!(w, "seq").map_err(|e| wr(&e))?,
            Some(grp) => writeln!(w, "grp {grp}").map_err(|e| wr(&e))?,
        }
    }
    for p in design.processor_ids() {
        let proc = design.processor(p);
        check_name("processor", proc.name())?;
        write!(
            w,
            "processor {} {}",
            proc.name(),
            design.class(proc.class()).name()
        )
        .map_err(|e| wr(&e))?;
        if let Some(s) = proc.size_constraint() {
            write!(w, " size {s}").map_err(|e| wr(&e))?;
        }
        if let Some(pins) = proc.pin_constraint() {
            write!(w, " pins {pins}").map_err(|e| wr(&e))?;
        }
        writeln!(w).map_err(|e| wr(&e))?;
    }
    for m in design.memory_ids() {
        let mem = design.memory(m);
        check_name("memory", mem.name())?;
        write!(
            w,
            "memory {} {}",
            mem.name(),
            design.class(mem.class()).name()
        )
        .map_err(|e| wr(&e))?;
        if let Some(s) = mem.size_constraint() {
            write!(w, " size {s}").map_err(|e| wr(&e))?;
        }
        writeln!(w).map_err(|e| wr(&e))?;
    }
    for b in design.bus_ids() {
        let bus = design.bus(b);
        check_name("bus", bus.name())?;
        write!(
            w,
            "bus {} {} {} {}",
            bus.name(),
            bus.bitwidth(),
            bus.ts(),
            bus.td()
        )
        .map_err(|e| wr(&e))?;
        if let Some(cap) = bus.capacity() {
            write!(w, " cap {cap:?}").map_err(|e| wr(&e))?;
        }
        writeln!(w).map_err(|e| wr(&e))?;
    }

    writeln!(w, "[annotations]").map_err(|e| wr(&e))?;
    for n in g.node_ids() {
        let node = g.node(n);
        for e in node.ict().iter() {
            writeln!(
                w,
                "ict {} {} {}",
                node.name(),
                design.class(e.class).name(),
                e.val
            )
            .map_err(|e| wr(&e))?;
        }
        for e in node.size().iter() {
            write!(
                w,
                "size {} {} {}",
                node.name(),
                design.class(e.class).name(),
                e.val
            )
            .map_err(|e| wr(&e))?;
            if let Some(dp) = e.datapath {
                write!(w, " dp {dp}").map_err(|e| wr(&e))?;
            }
            writeln!(w).map_err(|e| wr(&e))?;
        }
    }

    if let Some(part) = partition {
        writeln!(w, "[partition]").map_err(|e| wr(&e))?;
        for n in g.node_ids() {
            if let Some(comp) = part.node_component(n) {
                let comp_name = match comp {
                    PmRef::Processor(p) => design.processor(p).name(),
                    PmRef::Memory(m) => design.memory(m).name(),
                };
                writeln!(w, "map {} {}", g.node(n).name(), comp_name).map_err(|e| wr(&e))?;
            }
        }
        for c in g.channel_ids() {
            if let Some(bus) = part.channel_bus(c) {
                writeln!(w, "chan {} {}", c.index(), design.bus(bus).name())
                    .map_err(|e| wr(&e))?;
            }
        }
    }

    writeln!(w, "[end]").map_err(|e| wr(&e))?;
    writeln!(w, "check {}", key.to_hex()).map_err(|e| wr(&e))?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Pull parser
// ---------------------------------------------------------------------------

/// One event pulled from a `.slif` byte stream.
#[derive(Debug)]
pub enum TextEvent<'a> {
    /// A `[section]` header line (raw bytes include the brackets).
    Section {
        /// The trimmed header line.
        raw: &'a [u8],
        /// 1-based line number.
        line: usize,
        /// Byte offset of the line start.
        offset: usize,
    },
    /// Any other non-blank, non-comment line.
    Record {
        /// The trimmed line.
        raw: &'a [u8],
        /// 1-based line number.
        line: usize,
        /// Byte offset of the line start.
        offset: usize,
    },
}

/// A bounded, incremental line stream over `.slif` bytes.
///
/// Holds at most one (cap-checked) line plus one read chunk in memory;
/// [`peak_alloc_bytes`](Self::peak_alloc_bytes) reports the high-water
/// mark as evidence.
#[derive(Debug)]
pub struct TextRecords<R> {
    src: R,
    buf: Vec<u8>,
    pending_consume: usize,
    eof: bool,
    line_no: usize,
    offset: usize,
    peak: usize,
    sections: usize,
    max_line: usize,
    max_depth: usize,
    max_records: usize,
}

const READ_CHUNK: usize = 8 << 10;

impl<R: Read> TextRecords<R> {
    /// Starts pulling lines from `src` under `limits`.
    pub fn new(src: R, limits: &FormatLimits) -> Self {
        Self {
            src,
            buf: Vec::new(),
            pending_consume: 0,
            eof: false,
            line_no: 0,
            offset: 0,
            peak: 0,
            sections: 0,
            max_line: limits.max_line_bytes,
            max_depth: limits.max_nesting_depth,
            max_records: limits.max_records,
        }
    }

    /// High-water mark of the internal buffer, in bytes.
    pub fn peak_alloc_bytes(&self) -> usize {
        self.peak
    }

    /// Pulls the next line as a range into the internal buffer, plus
    /// its line number and byte offset. Trims an optional trailing
    /// `\r`. The range stays valid until the next call.
    fn next_line(&mut self) -> Result<Option<(Range<usize>, usize, usize)>, FormatError> {
        if self.pending_consume > 0 {
            self.buf.drain(..self.pending_consume);
            self.pending_consume = 0;
        }
        let mut searched = 0;
        loop {
            if let Some(i) = self.buf[searched..].iter().position(|&b| b == b'\n') {
                let nl = searched + i;
                if nl > self.max_line {
                    return Err(FormatError::LimitExceeded {
                        what: "line bytes",
                        limit: self.max_line,
                        actual: nl,
                    });
                }
                self.line_no += 1;
                let offset = self.offset;
                self.offset += nl + 1;
                self.pending_consume = nl + 1;
                let mut end = nl;
                if end > 0 && self.buf[end - 1] == b'\r' {
                    end -= 1;
                }
                return Ok(Some((0..end, self.line_no, offset)));
            }
            searched = self.buf.len();
            if searched > self.max_line {
                return Err(FormatError::LimitExceeded {
                    what: "line bytes",
                    limit: self.max_line,
                    actual: searched,
                });
            }
            if self.eof {
                if self.buf.is_empty() {
                    return Ok(None);
                }
                self.line_no += 1;
                let offset = self.offset;
                self.offset += self.buf.len();
                self.pending_consume = self.buf.len();
                return Ok(Some((0..self.buf.len(), self.line_no, offset)));
            }
            let old = self.buf.len();
            self.buf.resize(old + READ_CHUNK, 0);
            let n = self
                .src
                .read(&mut self.buf[old..])
                .map_err(|e| io_err("text read", &e))?;
            self.buf.truncate(old + n);
            if n == 0 {
                self.eof = true;
            }
            self.peak = self.peak.max(self.buf.capacity());
        }
    }

    /// Pulls the next event, skipping blank lines and `#` comments.
    ///
    /// # Errors
    ///
    /// [`FormatError::LimitExceeded`] at the line or section caps,
    /// [`FormatError::Io`] when the source fails.
    pub fn next_event(&mut self) -> Result<Option<TextEvent<'_>>, FormatError> {
        let (range, line, offset, is_section);
        loop {
            match self.next_line()? {
                None => return Ok(None),
                Some((r, l, o)) => {
                    let t = trim_range(&self.buf, r);
                    if t.is_empty() || self.buf[t.start] == b'#' {
                        continue;
                    }
                    let sec = self.buf[t.start] == b'[';
                    if sec {
                        self.sections += 1;
                        if self.sections > self.max_records {
                            return Err(FormatError::LimitExceeded {
                                what: "section count",
                                limit: self.max_records,
                                actual: self.sections,
                            });
                        }
                    }
                    (range, line, offset, is_section) = (t, l, o, sec);
                    break;
                }
            }
        }
        let raw = &self.buf[range];
        Ok(Some(if is_section {
            TextEvent::Section { raw, line, offset }
        } else {
            TextEvent::Record { raw, line, offset }
        }))
    }

    /// Consumes lines up to (not including) the next `[section]` header
    /// at nesting depth zero — the lenient reader's resync, and how
    /// unknown sections are skipped. With `allow_nesting`, a line
    /// ending in `{` opens a block and a `}` line closes one; section
    /// headers inside a block are content. Depth is capped.
    ///
    /// # Errors
    ///
    /// [`FormatError::LimitExceeded`] at the nesting-depth or line
    /// caps, [`FormatError::Io`] when the source fails.
    pub fn skip_to_next_section(&mut self, allow_nesting: bool) -> Result<(), FormatError> {
        let mut depth: usize = 0;
        loop {
            let saved_line = self.line_no;
            let saved_offset = self.offset;
            let Some((r, _, _)) = self.next_line()? else {
                return Ok(());
            };
            let t = trim_range(&self.buf, r);
            if t.is_empty() || self.buf[t.start] == b'#' {
                continue;
            }
            if depth == 0 && self.buf[t.start] == b'[' {
                // Un-read the header: it stays buffered for next_event.
                self.pending_consume = 0;
                self.line_no = saved_line;
                self.offset = saved_offset;
                return Ok(());
            }
            if allow_nesting {
                let body = &self.buf[t.clone()];
                if body == b"}" {
                    depth = depth.saturating_sub(1);
                } else if body.ends_with(b"{") {
                    depth += 1;
                    if depth > self.max_depth {
                        return Err(FormatError::LimitExceeded {
                            what: "nesting depth",
                            limit: self.max_depth,
                            actual: depth,
                        });
                    }
                }
            }
        }
    }
}

fn trim_range(buf: &[u8], mut r: Range<usize>) -> Range<usize> {
    while r.start < r.end && buf[r.start].is_ascii_whitespace() {
        r.start += 1;
    }
    while r.end > r.start && buf[r.end - 1].is_ascii_whitespace() {
        r.end -= 1;
    }
    r
}

// ---------------------------------------------------------------------------
// Fold: stream of events -> ReadOutcome
// ---------------------------------------------------------------------------

/// Reads a `.slif` text document from a byte slice.
///
/// # Errors
///
/// See [`read_text_from`].
pub fn read_text(
    bytes: &[u8],
    strictness: Strictness,
    limits: &FormatLimits,
) -> Result<ReadOutcome, FormatError> {
    read_text_from(bytes, strictness, limits)
}

/// Reads a `.slif` text document from any [`Read`] source without ever
/// buffering more than one line.
///
/// # Errors
///
/// In [`Strictness::Strict`] mode, any malformed record, out-of-order
/// or duplicate section, missing `[end]`, or `check`-key mismatch is a
/// typed [`FormatError`]. In [`Strictness::Lenient`] mode those become
/// deny-level diagnostics (with resync at the next section); only
/// resource-cap violations, I/O failures, and graph-limit refusals stay
/// hard errors.
pub fn read_text_from<R: Read>(
    src: R,
    strictness: Strictness,
    limits: &FormatLimits,
) -> Result<ReadOutcome, FormatError> {
    let mut stream = TextRecords::new(src, limits);
    let mut fold = Fold::new(strictness, limits);

    loop {
        enum Next {
            Done,
            Resync { nesting: bool },
            Continue,
        }
        let next = {
            match stream.next_event()? {
                None => Next::Done,
                Some(TextEvent::Section { raw, line, offset }) => {
                    match fold.section(raw, line, offset)? {
                        SectionAction::Enter => Next::Continue,
                        SectionAction::Skip { nesting } => Next::Resync { nesting },
                    }
                }
                Some(TextEvent::Record { raw, line, offset }) => {
                    match fold.record(raw, line, offset) {
                        Ok(()) => Next::Continue,
                        Err(e) if fold.resyncable(&e) => {
                            fold.deny(&e, line, offset, raw.len())?;
                            Next::Resync { nesting: false }
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        };
        match next {
            Next::Done => break,
            Next::Continue => {}
            Next::Resync { nesting } => stream.skip_to_next_section(nesting)?,
        }
    }

    fold.finish(stream.peak_alloc_bytes())
}

/// A record-parser failure: a grammar problem (resyncable) or a graph
/// refusal (typed, so resource caps stay hard errors).
enum RecErr {
    Msg(String),
    Core(slif_core::CoreError),
}

impl From<String> for RecErr {
    fn from(m: String) -> Self {
        RecErr::Msg(m)
    }
}

impl From<&str> for RecErr {
    fn from(m: &str) -> Self {
        RecErr::Msg(m.to_owned())
    }
}

impl From<slif_core::CoreError> for RecErr {
    fn from(e: slif_core::CoreError) -> Self {
        RecErr::Core(e)
    }
}

const RANK_DESIGN: u8 = 1;
const RANK_ANNOTATIONS: u8 = 2;
const RANK_PARTITION: u8 = 3;
const RANK_END: u8 = 4;

enum SectionAction {
    Enter,
    Skip { nesting: bool },
}

struct Fold<'l> {
    strictness: Strictness,
    limits: &'l FormatLimits,
    design: Option<Design>,
    partition: Option<Partition>,
    diagnostics: Vec<Diagnostic>,
    rank: u8,
    seen: [bool; 5],
    saw_header: bool,
    declared_check: Option<String>,
}

impl<'l> Fold<'l> {
    fn new(strictness: Strictness, limits: &'l FormatLimits) -> Self {
        Self {
            strictness,
            limits,
            design: None,
            partition: None,
            diagnostics: Vec::new(),
            rank: 0,
            seen: [false; 5],
            saw_header: false,
            declared_check: None,
        }
    }

    fn lenient(&self) -> bool {
        self.strictness == Strictness::Lenient
    }

    /// Which errors the lenient reader may resync past. Resource caps,
    /// I/O failures, and graph-size refusals stay hard: damage can be
    /// salvaged around, resource exhaustion cannot.
    fn resyncable(&self, e: &FormatError) -> bool {
        if !self.lenient() {
            return false;
        }
        match e {
            FormatError::Malformed { .. } => true,
            FormatError::Graph(slif_core::CoreError::LimitExceeded { .. }) => false,
            FormatError::Graph(_) => true,
            _ => false,
        }
    }

    fn push_diag(&mut self, d: Diagnostic) -> Result<(), FormatError> {
        if self.diagnostics.len() >= self.limits.max_diagnostics {
            return Err(FormatError::LimitExceeded {
                what: "diagnostic count",
                limit: self.limits.max_diagnostics,
                actual: self.diagnostics.len() + 1,
            });
        }
        self.diagnostics.push(d);
        Ok(())
    }

    fn deny(
        &mut self,
        e: &FormatError,
        line: usize,
        offset: usize,
        len: usize,
    ) -> Result<(), FormatError> {
        let span = Span::new(offset, offset + len, line as u32, 1);
        self.push_diag(Diagnostic::error(span, codes::WIRE_MALFORMED, e.to_string()))
    }

    fn warn(
        &mut self,
        code: &'static str,
        message: String,
        line: usize,
        offset: usize,
        len: usize,
    ) -> Result<(), FormatError> {
        let span = Span::new(offset, offset + len, line as u32, 1);
        self.push_diag(Diagnostic::warning(span, code, message))
    }

    /// Strict: return the error. Lenient: record it as a deny-level
    /// diagnostic and tell the caller to skip the section.
    fn refuse_section(
        &mut self,
        e: FormatError,
        line: usize,
        offset: usize,
        len: usize,
        nesting: bool,
    ) -> Result<SectionAction, FormatError> {
        if self.lenient() {
            self.deny(&e, line, offset, len)?;
            Ok(SectionAction::Skip { nesting })
        } else {
            Err(e)
        }
    }

    fn section(
        &mut self,
        raw: &[u8],
        line: usize,
        offset: usize,
    ) -> Result<SectionAction, FormatError> {
        if !self.saw_header {
            let e = FormatError::Malformed {
                line,
                offset,
                message: "missing `slif-wire 1` header line".into(),
            };
            if !self.lenient() {
                return Err(e);
            }
            self.deny(&e, line, offset, raw.len())?;
            self.saw_header = true;
        }
        let name = match std::str::from_utf8(raw) {
            Ok(s) if s.ends_with(']') && s.len() >= 2 => &s[1..s.len() - 1],
            _ => {
                let e = FormatError::Malformed {
                    line,
                    offset,
                    message: "unterminated or non-utf-8 section header".into(),
                };
                return self.refuse_section(e, line, offset, raw.len(), true);
            }
        };
        let (rank, known): (u8, &'static str) = match name {
            "design" => (RANK_DESIGN, "design"),
            "annotations" => (RANK_ANNOTATIONS, "annotations"),
            "partition" => (RANK_PARTITION, "partition"),
            "end" => (RANK_END, "end"),
            _ => {
                self.warn(
                    codes::WIRE_UNKNOWN_SECTION,
                    format!("unknown section `[{name}]` skipped"),
                    line,
                    offset,
                    raw.len(),
                )?;
                return Ok(SectionAction::Skip { nesting: true });
            }
        };
        if self.seen[rank as usize] {
            let e = FormatError::DuplicateSection {
                section: known,
                line,
            };
            return self.refuse_section(e, line, offset, raw.len(), false);
        }
        if rank < self.rank {
            let e = FormatError::Malformed {
                line,
                offset,
                message: format!("section `[{known}]` out of order"),
            };
            return self.refuse_section(e, line, offset, raw.len(), false);
        }
        if rank > RANK_DESIGN && self.design.is_none() {
            let e = FormatError::Malformed {
                line,
                offset,
                message: format!("section `[{known}]` before any design was declared"),
            };
            return self.refuse_section(e, line, offset, raw.len(), false);
        }
        self.seen[rank as usize] = true;
        self.rank = rank;
        if rank == RANK_PARTITION {
            if let Some(d) = &self.design {
                self.partition = Some(Partition::new(d));
            }
        }
        Ok(SectionAction::Enter)
    }

    fn record(&mut self, raw: &[u8], line: usize, offset: usize) -> Result<(), FormatError> {
        let mal = |message: String| FormatError::Malformed {
            line,
            offset,
            message,
        };
        let text = std::str::from_utf8(raw).map_err(|_| mal("invalid utf-8".into()))?;
        let toks: Vec<&str> = text.split_whitespace().collect();

        if !self.saw_header {
            if toks.len() == 2 && toks[0] == TEXT_MAGIC {
                let v: u32 = toks[1]
                    .parse()
                    .map_err(|_| mal(format!("bad header version `{}`", toks[1])))?;
                if v != TEXT_VERSION {
                    return Err(FormatError::UnsupportedVersion { found: v });
                }
                self.saw_header = true;
                return Ok(());
            }
            return Err(mal("missing `slif-wire 1` header line".into()));
        }

        let conv = |e: RecErr| match e {
            RecErr::Msg(m) => mal(m),
            RecErr::Core(c) => FormatError::Graph(c),
        };
        match self.rank {
            RANK_DESIGN => self.design_record(&toks).map_err(conv),
            RANK_ANNOTATIONS => self.annotation_record(&toks).map_err(conv),
            RANK_PARTITION => self.partition_record(&toks).map_err(conv),
            RANK_END => self.end_record(&toks).map_err(conv),
            _ => Err(mal("record outside any section".into())),
        }
    }

    fn design_record(&mut self, t: &[&str]) -> Result<(), RecErr> {
        if t[0] == "design" {
            if t.len() != 2 {
                return Err("`design` takes exactly one name".into());
            }
            if self.design.is_some() {
                return Err("duplicate `design` directive".into());
            }
            self.design = Some(Design::new(t[1]));
            return Ok(());
        }
        let Some(design) = self.design.as_mut() else {
            return Err(RecErr::Msg(format!("`{}` before the `design` directive", t[0])));
        };
        let limits = &self.limits.graph;
        match t[0] {
            "class" => {
                let [_, name, kind] = t else {
                    return Err("`class` takes <name> <kind>".into());
                };
                let kind = match *kind {
                    "std-processor" => ClassKind::StdProcessor,
                    "custom-hw" => ClassKind::CustomHw,
                    "memory" => ClassKind::Memory,
                    other => return Err(RecErr::Msg(format!("unknown class kind `{other}`"))),
                };
                if design.class_by_name(name).is_some() {
                    return Err(RecErr::Msg(format!("duplicate class `{name}`")));
                }
                design.add_class(*name, kind);
                Ok(())
            }
            "port" => {
                let [_, name, dir, bits] = t else {
                    return Err("`port` takes <name> <direction> <bits>".into());
                };
                let dir = match *dir {
                    "in" => PortDirection::In,
                    "out" => PortDirection::Out,
                    "inout" => PortDirection::InOut,
                    other => return Err(RecErr::Msg(format!("unknown port direction `{other}`"))),
                };
                let bits = parse_num::<u32>("port bits", bits)?;
                design
                    .graph_mut()
                    .try_add_port_bounded(*name, dir, bits, limits)
?;
                Ok(())
            }
            "node" => {
                let kind = match t {
                    [_, _, k] if *k == "process" => NodeKind::process(),
                    [_, _, k] if *k == "procedure" => NodeKind::procedure(),
                    [_, _, k, words, bits] if *k == "variable" => NodeKind::array(
                        parse_num::<u64>("variable words", words)?,
                        parse_num::<u32>("variable word bits", bits)?,
                    ),
                    _ => {
                        return Err(
                            "`node` takes <name> process|procedure|variable <words> <bits>".into(),
                        )
                    }
                };
                design
                    .graph_mut()
                    .try_add_node_bounded(t[1], kind, limits)
?;
                Ok(())
            }
            "channel" => {
                let [_, src, dst, kind, kw_freq, avg, min, max, kw_bits, bits, kw_tag, tag @ ..] =
                    t
                else {
                    return Err(
                        "`channel` takes <src> <dst> <kind> freq <avg> <min> <max> bits <n> tag <seq|grp N>"
                            .into(),
                    );
                };
                if *kw_freq != "freq" || *kw_bits != "bits" || *kw_tag != "tag" {
                    return Err("`channel` keywords must be `freq`, `bits`, `tag`".into());
                }
                let kind = match *kind {
                    "call" => AccessKind::Call,
                    "read" => AccessKind::Read,
                    "write" => AccessKind::Write,
                    "message" => AccessKind::Message,
                    other => return Err(RecErr::Msg(format!("unknown access kind `{other}`"))),
                };
                let src = design
                    .graph()
                    .node_by_name(src)
                    .ok_or_else(|| format!("unknown source node `{src}`"))?;
                let target = if let Some(n) = design.graph().node_by_name(dst) {
                    AccessTarget::Node(n)
                } else if let Some(p) = design.graph().port_by_name(dst) {
                    AccessTarget::Port(p)
                } else {
                    return Err(RecErr::Msg(format!("unknown access target `{dst}`")));
                };
                let avg = parse_num::<f64>("freq avg", avg)?;
                let min = parse_num::<u64>("freq min", min)?;
                let max = parse_num::<u64>("freq max", max)?;
                let bits = parse_num::<u32>("channel bits", bits)?;
                let tag = match tag {
                    ["seq"] => ConcurrencyTag::default(),
                    ["grp", n] => ConcurrencyTag::group(parse_num::<u32>("tag group", n)?),
                    _ => return Err("channel tag must be `seq` or `grp <n>`".into()),
                };
                let id = design
                    .graph_mut()
                    .try_add_channel_bounded(src, target, kind, limits)
?;
                let ch = design.graph_mut().channel_mut(id);
                *ch.freq_mut() = AccessFreq::new(avg, min, max);
                ch.set_bits(bits);
                ch.set_tag(tag);
                Ok(())
            }
            "processor" => {
                if t.len() < 3 {
                    return Err("`processor` takes <name> <class> [size s] [pins p]".into());
                }
                let class = design
                    .class_by_name(t[2])
                    .ok_or_else(|| format!("unknown class `{}`", t[2]))?;
                if !design.class(class).kind().holds_behaviors() {
                    return Err(RecErr::Msg(format!("class `{}` cannot hold a processor", t[2])));
                }
                if design.processor_by_name(t[1]).is_some() {
                    return Err(RecErr::Msg(format!("duplicate processor `{}`", t[1])));
                }
                let mut proc = Processor::new(t[1], class);
                for pair in t[3..].chunks(2) {
                    match pair {
                        ["size", v] => {
                            proc = proc.with_size_constraint(parse_num("processor size", v)?);
                        }
                        ["pins", v] => {
                            proc = proc.with_pin_constraint(parse_num("processor pins", v)?);
                        }
                        _ => return Err("`processor` options are `size <n>` and `pins <n>`".into()),
                    }
                }
                design.add_processor_instance(proc);
                Ok(())
            }
            "memory" => {
                if t.len() < 3 {
                    return Err("`memory` takes <name> <class> [size s]".into());
                }
                let class = design
                    .class_by_name(t[2])
                    .ok_or_else(|| format!("unknown class `{}`", t[2]))?;
                if design.class(class).kind() != ClassKind::Memory {
                    return Err(RecErr::Msg(format!("class `{}` is not a memory class", t[2])));
                }
                if design.memory_by_name(t[1]).is_some() {
                    return Err(RecErr::Msg(format!("duplicate memory `{}`", t[1])));
                }
                let mut mem = Memory::new(t[1], class);
                match &t[3..] {
                    [] => {}
                    ["size", v] => mem = mem.with_size_constraint(parse_num("memory size", v)?),
                    _ => return Err("`memory` options are `size <n>`".into()),
                }
                design.add_memory_instance(mem);
                Ok(())
            }
            "bus" => {
                if t.len() < 5 {
                    return Err("`bus` takes <name> <width> <ts> <td> [cap f]".into());
                }
                let width = parse_num::<u32>("bus width", t[2])?;
                if width == 0 {
                    return Err("bus width must be at least one wire".into());
                }
                if design.bus_by_name(t[1]).is_some() {
                    return Err(RecErr::Msg(format!("duplicate bus `{}`", t[1])));
                }
                let mut bus = Bus::new(
                    t[1],
                    width,
                    parse_num::<u64>("bus ts", t[3])?,
                    parse_num::<u64>("bus td", t[4])?,
                );
                match &t[5..] {
                    [] => {}
                    ["cap", v] => bus = bus.with_capacity(parse_num("bus cap", v)?),
                    _ => return Err("`bus` options are `cap <f>`".into()),
                }
                design.add_bus(bus);
                Ok(())
            }
            other => Err(RecErr::Msg(format!("unknown design directive `{other}`"))),
        }
    }

    fn annotation_record(&mut self, t: &[&str]) -> Result<(), RecErr> {
        let Some(design) = self.design.as_mut() else {
            return Err("annotation before any design".into());
        };
        match t {
            ["ict", node, class, val] => {
                let n = design
                    .graph()
                    .node_by_name(node)
                    .ok_or_else(|| format!("unknown node `{node}`"))?;
                let k = design
                    .class_by_name(class)
                    .ok_or_else(|| format!("unknown class `{class}`"))?;
                let val = parse_num::<u64>("ict value", val)?;
                design.graph_mut().node_mut(n).ict_mut().set(k, val);
                Ok(())
            }
            ["size", node, class, val, rest @ ..] => {
                let n = design
                    .graph()
                    .node_by_name(node)
                    .ok_or_else(|| format!("unknown node `{node}`"))?;
                let k = design
                    .class_by_name(class)
                    .ok_or_else(|| format!("unknown class `{class}`"))?;
                let val = parse_num::<u64>("size value", val)?;
                let entry = match rest {
                    [] => WeightEntry::new(k, val),
                    ["dp", dp] => {
                        let dp = parse_num::<u64>("size datapath", dp)?;
                        if dp > val {
                            return Err(RecErr::Msg(format!("datapath {dp} exceeds total weight {val}")));
                        }
                        WeightEntry::with_datapath(k, val, dp)
                    }
                    _ => return Err("`size` options are `dp <n>`".into()),
                };
                design.graph_mut().node_mut(n).size_mut().insert(entry);
                Ok(())
            }
            _ => Err(RecErr::Msg(format!(
                "unknown annotation directive `{}`",
                t.first().unwrap_or(&"")
            ))),
        }
    }

    fn partition_record(&mut self, t: &[&str]) -> Result<(), RecErr> {
        let Some(design) = self.design.as_ref() else {
            return Err("partition before any design".into());
        };
        let Some(part) = self.partition.as_mut() else {
            return Err("partition record outside a `[partition]` section".into());
        };
        match t {
            ["map", node, comp] => {
                let n = design
                    .graph()
                    .node_by_name(node)
                    .ok_or_else(|| format!("unknown node `{node}`"))?;
                let pm = if let Some(p) = design.processor_by_name(comp) {
                    PmRef::Processor(p)
                } else if let Some(m) = design.memory_by_name(comp) {
                    PmRef::Memory(m)
                } else {
                    return Err(RecErr::Msg(format!("unknown component `{comp}`")));
                };
                part.assign_node(n, pm);
                Ok(())
            }
            ["chan", idx, bus] => {
                let idx = parse_num::<usize>("channel index", idx)?;
                if idx >= design.graph().channel_count() {
                    return Err(RecErr::Msg(format!("channel index {idx} out of range")));
                }
                let b = design
                    .bus_by_name(bus)
                    .ok_or_else(|| format!("unknown bus `{bus}`"))?;
                part.assign_channel(slif_core::ChannelId::from_raw(idx as u32), b);
                Ok(())
            }
            _ => Err(RecErr::Msg(format!(
                "unknown partition directive `{}`",
                t.first().unwrap_or(&"")
            ))),
        }
    }

    fn end_record(&mut self, t: &[&str]) -> Result<(), RecErr> {
        match t {
            ["check", hex] => {
                if self.declared_check.is_some() {
                    return Err("duplicate `check` directive".into());
                }
                if hex.len() != 64 || !hex.chars().all(|c| c.is_ascii_hexdigit()) {
                    return Err("`check` takes a 64-digit hex content key".into());
                }
                self.declared_check = Some(hex.to_ascii_lowercase());
                Ok(())
            }
            _ => Err(RecErr::Msg(format!(
                "unknown end directive `{}`",
                t.first().unwrap_or(&"")
            ))),
        }
    }

    fn finish(mut self, peak_alloc_bytes: usize) -> Result<ReadOutcome, FormatError> {
        let end_ok = self.seen[RANK_END as usize] && self.declared_check.is_some();
        if !end_ok {
            if !self.lenient() {
                return Err(FormatError::Truncated {
                    context: "`[end]` section with a `check` key",
                });
            }
            let span = Span::dummy();
            self.push_diag(Diagnostic::error(
                span,
                codes::WIRE_MALFORMED,
                "input ended without a complete `[end]` section",
            ))?;
        }
        let Some(design) = self.design.take() else {
            return Err(FormatError::MissingSection { section: "design" });
        };
        design.graph().check_limits(&self.limits.graph)?;

        let key = ContentKey::of(&slif_store::encode_design(&design));
        let actual = key.to_hex();
        let verified = match &self.declared_check {
            Some(declared) if *declared == actual => true,
            Some(declared) => {
                let e = FormatError::ContentMismatch {
                    declared: declared.clone(),
                    actual: actual.clone(),
                };
                if !self.lenient() {
                    return Err(e);
                }
                self.push_diag(Diagnostic::error(
                    Span::dummy(),
                    codes::WIRE_CONTENT_MISMATCH,
                    e.to_string(),
                ))?;
                false
            }
            None => false,
        };

        Ok(ReadOutcome {
            design,
            partition: self.partition,
            diagnostics: self.diagnostics,
            verified,
            key,
            peak_alloc_bytes,
        })
    }
}

fn parse_num<T: std::str::FromStr>(what: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad {what} `{v}`"))
}

#[cfg(test)]
mod tests {
    use super::super::testutil::sample_design;
    use super::*;

    fn key(d: &Design) -> ContentKey {
        ContentKey::of(&slif_store::encode_design(d))
    }

    fn write(d: &Design, p: Option<&Partition>) -> Vec<u8> {
        let mut out = Vec::new();
        write_text(d, p, &key(d), &mut out).expect("write");
        out
    }

    #[test]
    fn round_trip_is_identity_and_byte_stable() {
        let (d, p) = sample_design();
        let bytes = write(&d, Some(&p));
        let out = read_text(&bytes, Strictness::Strict, &FormatLimits::default()).expect("read");
        assert_eq!(out.design, d);
        assert_eq!(out.partition.as_ref(), Some(&p));
        assert!(out.verified);
        assert!(out.diagnostics.is_empty());
        let second = write(&out.design, out.partition.as_ref());
        assert_eq!(second, bytes, "second write must be byte-identical");
    }

    #[test]
    fn reader_buffers_lines_not_files() {
        let (d, p) = sample_design();
        let bytes = write(&d, Some(&p));
        let out = read_text(&bytes, Strictness::Strict, &FormatLimits::default()).expect("read");
        assert!(
            out.peak_alloc_bytes < 64 << 10,
            "peak {} should be O(line)",
            out.peak_alloc_bytes
        );
    }

    #[test]
    fn unknown_sections_are_skipped_with_a_warning_even_in_strict_mode() {
        let (d, _) = sample_design();
        let text = String::from_utf8(write(&d, None)).expect("utf8");
        let with_ext = text.replace(
            "[end]",
            "[x-vendor-meta]\nblob {\n  inner stuff\n}\nplain line\n[end]",
        );
        let out = read_text(
            with_ext.as_bytes(),
            Strictness::Strict,
            &FormatLimits::default(),
        )
        .expect("read");
        assert_eq!(out.design, d);
        assert!(out.verified);
        assert_eq!(out.diagnostics.len(), 1);
        assert_eq!(out.diagnostics[0].code(), codes::WIRE_UNKNOWN_SECTION);
    }

    #[test]
    fn lenient_mode_resyncs_past_a_torn_record() {
        let (d, _) = sample_design();
        let text = String::from_utf8(write(&d, None)).expect("utf8");
        // Tear one annotation line in half.
        let torn = text.replace("ict main proc8 1200", "ict main pr");
        let err = read_text(
            torn.as_bytes(),
            Strictness::Strict,
            &FormatLimits::default(),
        )
        .expect_err("strict must refuse");
        assert!(matches!(err, FormatError::Malformed { .. }), "{err:?}");
        let out = read_text(
            torn.as_bytes(),
            Strictness::Lenient,
            &FormatLimits::default(),
        )
        .expect("lenient salvage");
        // The whole [annotations] section after the tear is skipped, so
        // the design no longer matches its check key.
        assert!(!out.verified);
        assert!(out.has_denials());
        assert_eq!(out.design.name(), d.name());
    }

    #[test]
    fn strict_mode_refuses_a_tampered_check_key() {
        let (d, _) = sample_design();
        let text = String::from_utf8(write(&d, None)).expect("utf8");
        let pos = text.find("check ").expect("check line");
        let mut tampered = text.clone();
        // Flip one hex digit of the declared key.
        let digit = tampered.as_bytes()[pos + 6];
        let flip = if digit == b'0' { '1' } else { '0' };
        tampered.replace_range(pos + 6..pos + 7, &flip.to_string());
        let err = read_text(
            tampered.as_bytes(),
            Strictness::Strict,
            &FormatLimits::default(),
        )
        .expect_err("must refuse");
        assert!(matches!(err, FormatError::ContentMismatch { .. }), "{err:?}");
        let out = read_text(
            tampered.as_bytes(),
            Strictness::Lenient,
            &FormatLimits::default(),
        )
        .expect("lenient");
        assert!(!out.verified);
        assert!(out
            .diagnostics
            .iter()
            .any(|di| di.code() == codes::WIRE_CONTENT_MISMATCH));
    }

    #[test]
    fn missing_end_is_truncation() {
        let (d, _) = sample_design();
        let text = String::from_utf8(write(&d, None)).expect("utf8");
        let cut = &text[..text.find("[end]").expect("end")];
        let err = read_text(
            cut.as_bytes(),
            Strictness::Strict,
            &FormatLimits::default(),
        )
        .expect_err("must refuse");
        assert!(matches!(err, FormatError::Truncated { .. }), "{err:?}");
        let out = read_text(
            cut.as_bytes(),
            Strictness::Lenient,
            &FormatLimits::default(),
        )
        .expect("lenient");
        assert!(!out.verified);
    }

    #[test]
    fn hostile_line_length_is_refused_before_buffering_the_file() {
        let (d, _) = sample_design();
        let mut bytes = write(&d, None);
        let monster = vec![b'a'; 256 << 10];
        bytes.extend_from_slice(&monster);
        let limits = FormatLimits::default().with_max_line_bytes(64 << 10);
        for s in [Strictness::Strict, Strictness::Lenient] {
            let err = read_text(&bytes, s, &limits).expect_err("must refuse");
            assert!(
                matches!(err, FormatError::LimitExceeded { what: "line bytes", .. }),
                "{err:?}"
            );
        }
    }

    #[test]
    fn hostile_nesting_depth_is_refused() {
        let (d, _) = sample_design();
        let text = String::from_utf8(write(&d, None)).expect("utf8");
        let mut tower = String::from("[x-nest]\n");
        for _ in 0..64 {
            tower.push_str("block {\n");
        }
        let hostile = text.replace("[end]", &format!("{tower}[end]"));
        let err = read_text(
            hostile.as_bytes(),
            Strictness::Lenient,
            &FormatLimits::default(),
        )
        .expect_err("must refuse");
        assert!(
            matches!(err, FormatError::LimitExceeded { what: "nesting depth", .. }),
            "{err:?}"
        );
    }

    #[test]
    fn duplicate_and_out_of_order_sections_are_refused_in_strict_mode() {
        let (d, _) = sample_design();
        let text = String::from_utf8(write(&d, None)).expect("utf8");
        let dup = text.replace("[annotations]", "[annotations]\n[annotations]");
        // The second header is seen after resync-free parse of the first.
        let err = read_text(dup.as_bytes(), Strictness::Strict, &FormatLimits::default())
            .expect_err("must refuse");
        assert!(matches!(err, FormatError::DuplicateSection { .. }), "{err:?}");
        let out = read_text(dup.as_bytes(), Strictness::Lenient, &FormatLimits::default())
            .expect("lenient");
        assert!(out.has_denials());
    }

    #[test]
    fn unencodable_names_are_refused_by_the_writer() {
        let mut d = Design::new("has space");
        d.add_class("c", ClassKind::StdProcessor);
        let err = write_text(&d, None, &key(&d), &mut Vec::new()).expect_err("must refuse");
        assert!(matches!(err, FormatError::Unencodable { .. }), "{err:?}");
    }

    #[test]
    fn header_version_is_checked() {
        let bad = b"slif-wire 99\n[design]\ndesign d\n[end]\n";
        let err = read_text(bad, Strictness::Strict, &FormatLimits::default())
            .expect_err("must refuse");
        assert!(
            matches!(err, FormatError::UnsupportedVersion { found: 99 }),
            "{err:?}"
        );
    }

    #[test]
    fn graph_caps_bound_rebuilding() {
        let (d, _) = sample_design();
        let bytes = write(&d, None);
        let limits = FormatLimits::default()
            .with_graph(slif_core::GraphLimits::default().with_max_nodes(1));
        let err = read_text(&bytes, Strictness::Strict, &limits).expect_err("must refuse");
        assert!(
            matches!(
                err,
                FormatError::Graph(slif_core::CoreError::LimitExceeded { what: "node", .. })
            ),
            "{err:?}"
        );
        // Resource refusals stay hard even in lenient mode.
        let err = read_text(&bytes, Strictness::Lenient, &limits).expect_err("must refuse");
        assert!(matches!(err, FormatError::Graph(_)), "{err:?}");
    }
}
