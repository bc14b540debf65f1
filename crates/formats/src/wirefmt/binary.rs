//! The length-prefixed, checksum-framed `.slifb` binary encoding.
//!
//! A `.slifb` file is a flat sequence of segments, each wrapped in the
//! [`slif_core::atomic_io`] frame container (8-byte magic
//! [`SEGMENT_MAGIC`], `u32` version, `u64` payload length, `u64`
//! FNV-1a checksum, payload) — the exact framing the store already
//! trusts on disk, so the whole stack shares one checksum discipline.
//! The first payload byte is the segment kind; the rest is a
//! little-endian body in the shared [`slif_core::codec`] encoding:
//!
//! | kind | segment | body |
//! |-----:|---------|------|
//! | 1–6 | design | the canonical design segments ([`slif_store::canonical`]) |
//! | 7 | partition (chunked) | node→component and channel→bus assignments |
//! | 8 | group (extension) | nested frames, validated and skipped |
//! | 9 | end | 32-byte content key of the design's canonical bytes |
//!
//! The design frames carry the payloads of one
//! [`slif_store::encode_design`] call, one frame each,
//! and the end key is the SHA-256 of those same bytes; the reader
//! hands design segments to the store's [`SegmentDecoder`], so the
//! design record layout is written in one place.
//!
//! Unknown kinds are skipped with a warning. The reader checks each
//! frame's *declared* length against
//! [`FormatLimits::max_segment_bytes`] before reading the payload, so
//! a hostile length cannot force an allocation; the checksum is
//! verified before a single body byte is decoded, and each segment is
//! decoded to scratch before being applied, so a damaged segment is a
//! quarantined miss, never a half-applied mutation that could decode
//! to a wrong design. In [`Strictness::Lenient`] mode the reader
//! resyncs after damage by scanning (at most
//! [`FormatLimits::max_resync_bytes`]) for the next segment magic.

use std::io::{Read, Write};

use slif_core::atomic_io::{frame, le_u32, le_u64, unframe, FrameError, FRAME_HEADER_LEN};
use slif_core::codec::{Dec, Enc};
use slif_core::{BusId, ChannelId, Design, MemoryId, NodeId, Partition, PmRef, ProcessorId};
use slif_speclang::{codes, Diagnostic, Span};
use slif_store::canonical::{segment_payloads, SegmentDecoder, SegmentError};
pub use slif_store::canonical::{
    SEG_CHANNELS, SEG_CLASSES, SEG_COMPONENTS, SEG_HEADER, SEG_NODES, SEG_PORTS,
};
use slif_store::{encode_design, ContentKey};

use super::{
    io_err, FormatError, FormatLimits, ReadOutcome, Strictness, SEGMENT_MAGIC, SEGMENT_VERSION,
};

/// Segment kind: a chunk of partition assignments.
pub const SEG_PARTITION: u8 = 7;
/// Segment kind: extension container of nested frames (skipped).
pub const SEG_GROUP: u8 = 8;
/// Segment kind: trailer carrying the design's content key.
pub const SEG_END: u8 = 9;

const PARTITION_PER_SEGMENT: usize = 4096;

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn emit<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), FormatError> {
    w.write_all(&frame(&SEGMENT_MAGIC, SEGMENT_VERSION, payload))
        .map_err(|e| io_err("binary write", &e))
}

/// Writes `design` (and `partition`, when given) as `.slifb` segments.
///
/// The design segments are the payloads of the design's canonical
/// bytes, framed one by one; their chunking (1024 nodes / 4096 channels
/// per segment, 4096 assignments per partition segment) bounds every
/// segment, so a reader can impose a modest segment cap.
///
/// # Errors
///
/// [`FormatError::Io`] when the sink fails.
pub fn write_binary<W: Write>(
    design: &Design,
    partition: Option<&Partition>,
    w: &mut W,
) -> Result<(), FormatError> {
    let canonical = encode_design(design);
    for payload in segment_payloads(&canonical) {
        emit(w, payload)?;
    }

    if let Some(part) = partition {
        let g = design.graph();
        let maps: Vec<_> = g
            .node_ids()
            .filter_map(|n| part.node_component(n).map(|c| (n, c)))
            .collect();
        for chunk in maps.chunks(PARTITION_PER_SEGMENT) {
            let mut body = Enc::default();
            body.u8(SEG_PARTITION);
            body.u32(chunk.len() as u32);
            for (n, comp) in chunk {
                body.u32(n.index() as u32);
                match comp {
                    PmRef::Processor(p) => {
                        body.u8(0);
                        body.u32(p.index() as u32);
                    }
                    PmRef::Memory(m) => {
                        body.u8(1);
                        body.u32(m.index() as u32);
                    }
                }
            }
            body.u32(0);
            emit(w, &body.buf)?;
        }
        let chans: Vec<_> = g
            .channel_ids()
            .filter_map(|c| part.channel_bus(c).map(|b| (c, b)))
            .collect();
        for chunk in chans.chunks(PARTITION_PER_SEGMENT) {
            let mut body = Enc::default();
            body.u8(SEG_PARTITION);
            body.u32(0);
            body.u32(chunk.len() as u32);
            for (c, b) in chunk {
                body.u32(c.index() as u32);
                body.u32(b.index() as u32);
            }
            emit(w, &body.buf)?;
        }
        if maps.is_empty() && chans.is_empty() {
            let mut body = Enc::default();
            body.u8(SEG_PARTITION);
            body.u32(0);
            body.u32(0);
            emit(w, &body.buf)?;
        }
    }

    let mut end = vec![SEG_END];
    end.extend_from_slice(&ContentKey::of(&canonical).0);
    emit(w, &end)
}

// ---------------------------------------------------------------------------
// Pull parser
// ---------------------------------------------------------------------------

/// One verified segment pulled from a `.slifb` byte stream: magic,
/// version, declared length, and checksum have all been checked; the
/// body has not yet been decoded.
#[derive(Debug)]
pub struct Segment {
    /// The segment kind byte.
    pub kind: u8,
    /// The body (after the kind byte).
    pub payload: Vec<u8>,
    /// File offset of the segment's frame header.
    pub offset: usize,
}

/// A bounded, incremental segment stream over `.slifb` bytes.
///
/// Holds at most one frame in memory; the declared payload length is
/// checked against [`FormatLimits::max_segment_bytes`] *before* the
/// payload is buffered, so peak allocation is O(segment), not O(file).
#[derive(Debug)]
pub struct Segments<R> {
    src: R,
    buf: Vec<u8>,
    offset: usize,
    eof: bool,
    peak: usize,
    records: usize,
    max_segment: usize,
    max_records: usize,
    max_resync: usize,
}

const READ_CHUNK: usize = 8 << 10;

impl<R: Read> Segments<R> {
    /// Starts pulling segments from `src` under `limits`.
    pub fn new(src: R, limits: &FormatLimits) -> Self {
        Self {
            src,
            buf: Vec::new(),
            offset: 0,
            eof: false,
            peak: 0,
            records: 0,
            max_segment: limits.max_segment_bytes,
            max_records: limits.max_records,
            max_resync: limits.max_resync_bytes,
        }
    }

    /// High-water mark of the internal buffer, in bytes.
    pub fn peak_alloc_bytes(&self) -> usize {
        self.peak
    }

    fn fill(&mut self, want: usize) -> Result<(), FormatError> {
        while self.buf.len() < want && !self.eof {
            let old = self.buf.len();
            self.buf.resize(old + READ_CHUNK.max(want - old), 0);
            let n = self
                .src
                .read(&mut self.buf[old..])
                .map_err(|e| io_err("binary read", &e))?;
            self.buf.truncate(old + n);
            if n == 0 {
                self.eof = true;
            }
            self.peak = self.peak.max(self.buf.capacity());
        }
        Ok(())
    }

    fn advance(&mut self, n: usize) {
        let n = n.min(self.buf.len());
        self.buf.drain(..n);
        self.offset += n;
    }

    /// Pulls and verifies the next segment.
    ///
    /// On error the stream does *not* advance past the damage:
    /// [`resync`](Self::resync) can scan onward from it.
    ///
    /// # Errors
    ///
    /// [`FormatError::BadMagic`], [`FormatError::UnsupportedVersion`],
    /// [`FormatError::Truncated`], [`FormatError::ChecksumMismatch`]
    /// for frame damage; [`FormatError::LimitExceeded`] when the
    /// declared length or segment count passes its cap;
    /// [`FormatError::Io`] when the source fails.
    pub fn next_segment(&mut self) -> Result<Option<Segment>, FormatError> {
        self.fill(FRAME_HEADER_LEN)?;
        if self.buf.is_empty() {
            return Ok(None);
        }
        if self.buf.len() < FRAME_HEADER_LEN {
            return Err(FormatError::Truncated {
                context: "segment frame header",
            });
        }
        if self.buf[..8] != SEGMENT_MAGIC {
            return Err(FormatError::BadMagic {
                offset: self.offset,
            });
        }
        let version = le_u32(&self.buf[8..12]);
        if version != SEGMENT_VERSION {
            return Err(FormatError::UnsupportedVersion { found: version });
        }
        let declared = le_u64(&self.buf[12..20]);
        let declared = usize::try_from(declared)
            .ok()
            .filter(|&d| d <= self.max_segment)
            .ok_or(FormatError::LimitExceeded {
                what: "segment bytes",
                limit: self.max_segment,
                actual: usize::try_from(declared).unwrap_or(usize::MAX),
            })?;
        self.records += 1;
        if self.records > self.max_records {
            return Err(FormatError::LimitExceeded {
                what: "segment count",
                limit: self.max_records,
                actual: self.records,
            });
        }
        let total = FRAME_HEADER_LEN + declared;
        self.fill(total)?;
        if self.buf.len() < total {
            return Err(FormatError::Truncated {
                context: "segment payload",
            });
        }
        let payload = unframe(&SEGMENT_MAGIC, SEGMENT_VERSION, &self.buf[..total]).map_err(
            |e| match e {
                FrameError::BadMagic => FormatError::BadMagic {
                    offset: self.offset,
                },
                FrameError::UnsupportedVersion { found } => {
                    FormatError::UnsupportedVersion { found }
                }
                FrameError::Truncated => FormatError::Truncated {
                    context: "segment payload",
                },
                FrameError::ChecksumMismatch => FormatError::ChecksumMismatch {
                    offset: self.offset,
                },
                _ => FormatError::Malformed {
                    line: 0,
                    offset: self.offset,
                    message: format!("frame refused: {e}"),
                },
            },
        )?;
        let Some((&kind, body)) = payload.split_first() else {
            return Err(FormatError::Malformed {
                line: 0,
                offset: self.offset,
                message: "segment payload missing its kind byte".into(),
            });
        };
        let seg = Segment {
            kind,
            payload: body.to_vec(),
            offset: self.offset,
        };
        self.advance(total);
        Ok(Some(seg))
    }

    /// Scans forward (at most `max_resync_bytes`) for the next segment
    /// magic after damage. Returns whether a candidate frame start was
    /// found; `false` means the tail of the stream is lost.
    ///
    /// # Errors
    ///
    /// [`FormatError::Io`] when the source fails.
    pub fn resync(&mut self) -> Result<bool, FormatError> {
        self.advance(1);
        let mut scanned = 0usize;
        loop {
            self.fill(SEGMENT_MAGIC.len().max(READ_CHUNK.min(self.max_segment)))?;
            if self.buf.len() < SEGMENT_MAGIC.len() {
                return Ok(false);
            }
            if let Some(pos) = self
                .buf
                .windows(SEGMENT_MAGIC.len())
                .position(|w| w == SEGMENT_MAGIC)
            {
                if scanned + pos > self.max_resync {
                    return Ok(false);
                }
                self.advance(pos);
                return Ok(true);
            }
            let keep = SEGMENT_MAGIC.len() - 1;
            let drop = self.buf.len() - keep;
            scanned += drop;
            if scanned > self.max_resync {
                return Ok(false);
            }
            self.advance(drop);
            if self.eof {
                return Ok(false);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fold: stream of segments -> ReadOutcome
// ---------------------------------------------------------------------------

/// Reads a `.slifb` document from a byte slice.
///
/// # Errors
///
/// See [`read_binary_from`].
pub fn read_binary(
    bytes: &[u8],
    strictness: Strictness,
    limits: &FormatLimits,
) -> Result<ReadOutcome, FormatError> {
    read_binary_from(bytes, strictness, limits)
}

/// Reads a `.slifb` document from any [`Read`] source without ever
/// buffering more than one segment.
///
/// # Errors
///
/// In [`Strictness::Strict`] mode any frame damage, malformed body,
/// missing or mismatched end-key trailer is a typed [`FormatError`].
/// In [`Strictness::Lenient`] mode a damaged segment is quarantined (a
/// deny-level diagnostic, contents dropped whole) and the reader
/// resyncs at the next segment magic; only resource caps, I/O
/// failures, and graph-limit refusals stay hard errors.
pub fn read_binary_from<R: Read>(
    src: R,
    strictness: Strictness,
    limits: &FormatLimits,
) -> Result<ReadOutcome, FormatError> {
    let lenient = strictness == Strictness::Lenient;
    let mut stream = Segments::new(src, limits);
    let mut fold = BinFold::new(limits);

    loop {
        match stream.next_segment() {
            Ok(None) => break,
            Ok(Some(seg)) => {
                if fold.done {
                    let e = FormatError::Malformed {
                        line: 0,
                        offset: seg.offset,
                        message: "segment after the end trailer".into(),
                    };
                    if !lenient {
                        return Err(e);
                    }
                    fold.deny(seg.offset, &e)?;
                    break;
                }
                match fold.apply(&seg) {
                    Ok(()) => {}
                    Err(e) if lenient && body_resyncable(&e) => fold.deny(seg.offset, &e)?,
                    Err(e) => return Err(e),
                }
            }
            Err(e) if lenient && frame_resyncable(&e) => {
                fold.deny(stream.offset, &e)?;
                if !stream.resync()? {
                    break;
                }
            }
            Err(e) => return Err(e),
        }
    }

    fold.finish(strictness, stream.peak_alloc_bytes())
}

/// Body-level errors a lenient reader may quarantine: the frame was
/// intact (checksum passed) but the contents refuse to decode or apply.
fn body_resyncable(e: &FormatError) -> bool {
    match e {
        FormatError::Malformed { .. } | FormatError::DuplicateSection { .. } => true,
        FormatError::Graph(slif_core::CoreError::LimitExceeded { .. }) => false,
        FormatError::Graph(_) => true,
        _ => false,
    }
}

/// Frame-level errors a lenient reader may scan past: damaged or
/// hostile framing, where the payload never entered memory.
fn frame_resyncable(e: &FormatError) -> bool {
    matches!(
        e,
        FormatError::BadMagic { .. }
            | FormatError::ChecksumMismatch { .. }
            | FormatError::Truncated { .. }
            | FormatError::UnsupportedVersion { .. }
            | FormatError::Malformed { .. }
            | FormatError::LimitExceeded {
                what: "segment bytes",
                ..
            }
    )
}

struct BinFold<'l> {
    limits: &'l FormatLimits,
    decoder: SegmentDecoder,
    partition: Option<Partition>,
    diagnostics: Vec<Diagnostic>,
    declared_key: Option<[u8; 32]>,
    done: bool,
}

impl<'l> BinFold<'l> {
    fn new(limits: &'l FormatLimits) -> Self {
        Self {
            limits,
            decoder: SegmentDecoder::new(limits.graph),
            partition: None,
            diagnostics: Vec::new(),
            declared_key: None,
            done: false,
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

    fn deny(&mut self, offset: usize, e: &FormatError) -> Result<(), FormatError> {
        self.push_diag(Diagnostic::error(
            Span::new(offset, offset, 0, 0),
            codes::WIRE_MALFORMED,
            format!("segment quarantined: {e}"),
        ))
    }

    fn warn(&mut self, offset: usize, message: String) -> Result<(), FormatError> {
        self.push_diag(Diagnostic::warning(
            Span::new(offset, offset, 0, 0),
            codes::WIRE_UNKNOWN_SECTION,
            message,
        ))
    }

    fn apply(&mut self, seg: &Segment) -> Result<(), FormatError> {
        let offset = seg.offset;
        let refused = |e: SegmentError| match e {
            SegmentError::Malformed(message) => FormatError::Malformed {
                line: 0,
                offset,
                message,
            },
            SegmentError::Duplicate(section) => FormatError::DuplicateSection { section, line: 0 },
            SegmentError::Graph(e) => FormatError::Graph(e),
        };
        match seg.kind {
            SEG_HEADER | SEG_CLASSES | SEG_PORTS | SEG_NODES | SEG_CHANNELS | SEG_COMPONENTS => {
                self.decoder.apply(seg.kind, &seg.payload).map_err(refused)
            }
            SEG_PARTITION => self.apply_partition(&seg.payload).map_err(refused),
            SEG_END => {
                if self.declared_key.is_some() {
                    return Err(refused(SegmentError::Duplicate("end")));
                }
                let mut d = Dec::new(&seg.payload);
                let mut key = [0u8; 32];
                key.copy_from_slice(d.take(32, "end key").map_err(|e| refused(e.into()))?);
                d.finish().map_err(|e| refused(e.into()))?;
                self.declared_key = Some(key);
                self.done = true;
                Ok(())
            }
            SEG_GROUP => {
                validate_group(&seg.payload, 1, self.limits.max_nesting_depth)
                    .map_err(|m| refused(SegmentError::Malformed(m)))?;
                self.warn(offset, "extension group segment skipped".into())
            }
            other => self.warn(offset, format!("unknown segment kind {other} skipped")),
        }
    }

    /// Decodes one partition segment to scratch, then applies it.
    fn apply_partition(&mut self, body: &[u8]) -> Result<(), SegmentError> {
        let bad = |what: &str| Err(SegmentError::Malformed(what.into()));
        let Some(design) = self.decoder.design() else {
            return bad("content segment before the header segment");
        };
        let mut d = Dec::new(body);
        let mut maps = Vec::new();
        for _ in 0..d.u32("partition map count")? {
            let n = d.u32("partition node")?;
            if n as usize >= design.graph().node_count() {
                return bad("partition node ordinal");
            }
            let pm = match d.u8("partition component tag")? {
                0 => {
                    let o = d.u32("partition processor")?;
                    if o as usize >= design.processor_count() {
                        return bad("partition processor ordinal");
                    }
                    PmRef::Processor(ProcessorId::from_raw(o))
                }
                1 => {
                    let o = d.u32("partition memory")?;
                    if o as usize >= design.memory_count() {
                        return bad("partition memory ordinal");
                    }
                    PmRef::Memory(MemoryId::from_raw(o))
                }
                _ => return bad("partition component tag"),
            };
            maps.push((NodeId::from_raw(n), pm));
        }
        let mut chans = Vec::new();
        for _ in 0..d.u32("partition channel count")? {
            let c = d.u32("partition channel")?;
            let b = d.u32("partition bus")?;
            if c as usize >= design.graph().channel_count() || b as usize >= design.bus_count() {
                return bad("partition channel assignment");
            }
            chans.push((ChannelId::from_raw(c), BusId::from_raw(b)));
        }
        d.finish()?;
        let part = self.partition.get_or_insert_with(|| Partition::new(design));
        for (n, pm) in maps {
            part.assign_node(n, pm);
        }
        for (c, b) in chans {
            part.assign_channel(c, b);
        }
        Ok(())
    }

    fn finish(
        mut self,
        strictness: Strictness,
        peak_alloc_bytes: usize,
    ) -> Result<ReadOutcome, FormatError> {
        let lenient = strictness == Strictness::Lenient;
        if !self.done {
            if !lenient {
                return Err(FormatError::Truncated {
                    context: "end trailer segment",
                });
            }
            self.push_diag(Diagnostic::error(
                Span::dummy(),
                codes::WIRE_MALFORMED,
                "input ended without an end trailer segment",
            ))?;
        }
        let Some(design) = self.decoder.take_design() else {
            return Err(FormatError::MissingSection { section: "design" });
        };
        design.graph().check_limits(&self.limits.graph)?;

        let key = ContentKey::of(&encode_design(&design));
        let verified = match self.declared_key {
            Some(declared) if declared == key.0 => true,
            Some(declared) => {
                let e = FormatError::ContentMismatch {
                    declared: ContentKey(declared).to_hex(),
                    actual: key.to_hex(),
                };
                if !lenient {
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

/// Checks that a group segment's payload is a well-formed sequence of
/// nested frames, recursing into nested groups up to `max_depth`.
fn validate_group(payload: &[u8], depth: usize, max_depth: usize) -> Result<(), String> {
    if depth > max_depth {
        return Err(format!("group nesting deeper than {max_depth}"));
    }
    let mut pos = 0usize;
    while pos < payload.len() {
        let rest = &payload[pos..];
        if rest.len() < FRAME_HEADER_LEN {
            return Err("truncated nested frame header".into());
        }
        if rest[..8] != SEGMENT_MAGIC {
            return Err("nested frame magic".into());
        }
        let declared = le_u64(&rest[12..20]);
        let declared = usize::try_from(declared).map_err(|_| "nested frame length".to_string())?;
        let total = FRAME_HEADER_LEN
            .checked_add(declared)
            .ok_or_else(|| "nested frame length".to_string())?;
        if total > rest.len() {
            return Err("nested frame overruns its group".into());
        }
        let inner = &rest[FRAME_HEADER_LEN..total];
        if let Some((&kind, body)) = inner.split_first() {
            if kind == SEG_GROUP {
                validate_group(body, depth + 1, max_depth)?;
            }
        }
        pos += total;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::testutil::sample_design;
    use super::*;

    fn write(d: &Design, p: Option<&Partition>) -> Vec<u8> {
        let mut out = Vec::new();
        write_binary(d, p, &mut out).expect("write");
        out
    }

    /// Byte offsets of every frame in `bytes`.
    fn frames(bytes: &[u8]) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let mut pos = 0;
        while pos + FRAME_HEADER_LEN <= bytes.len() {
            let len = le_u64(&bytes[pos + 12..pos + 20]) as usize;
            let total = FRAME_HEADER_LEN + len;
            spans.push((pos, total));
            pos += total;
        }
        spans
    }

    #[test]
    fn round_trip_is_identity_and_byte_stable() {
        let (d, p) = sample_design();
        let bytes = write(&d, Some(&p));
        let out =
            read_binary(&bytes, Strictness::Strict, &FormatLimits::default()).expect("read");
        assert_eq!(out.design, d);
        assert_eq!(out.partition.as_ref(), Some(&p));
        assert!(out.verified);
        assert!(out.diagnostics.is_empty());
        let second = write(&out.design, out.partition.as_ref());
        assert_eq!(second, bytes, "second write must be byte-identical");
    }

    #[test]
    fn design_frames_are_the_canonical_segments_then_the_end_key() {
        let (big, _) = slif_core::gen::DesignGenerator::new(8)
            .behaviors(1200)
            .variables(400)
            .build();
        for d in [sample_design().0, big] {
            // Walk the canonical layout by hand: version byte, then
            // u32-length-prefixed payloads.
            let canonical = encode_design(&d);
            let mut expected = Vec::new();
            let mut rest = &canonical[1..];
            while !rest.is_empty() {
                let len = le_u32(&rest[..4]) as usize;
                expected.extend(frame(&SEGMENT_MAGIC, SEGMENT_VERSION, &rest[4..4 + len]));
                rest = &rest[4 + len..];
            }
            let mut end = vec![SEG_END];
            end.extend_from_slice(&ContentKey::of(&canonical).0);
            expected.extend(frame(&SEGMENT_MAGIC, SEGMENT_VERSION, &end));
            assert_eq!(write(&d, None), expected);
        }
    }

    #[test]
    fn bit_flips_are_caught_by_the_frame_checksum() {
        let (d, p) = sample_design();
        let clean = write(&d, Some(&p));
        // Flip one bit in every payload byte position of the 2nd frame.
        let (start, total) = frames(&clean)[1];
        let mut hit = 0;
        for i in start + FRAME_HEADER_LEN..start + total {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x10;
            let err = read_binary(&bytes, Strictness::Strict, &FormatLimits::default())
                .expect_err("strict must refuse");
            assert!(
                matches!(err, FormatError::ChecksumMismatch { .. }),
                "{err:?}"
            );
            hit += 1;
        }
        assert!(hit > 0);
    }

    #[test]
    fn lenient_mode_quarantines_a_damaged_segment_and_resyncs() {
        let (d, p) = sample_design();
        let mut bytes = write(&d, Some(&p));
        let (start, total) = frames(&bytes)[3]; // a nodes chunk
        bytes[start + total - 1] ^= 0x01;
        let out =
            read_binary(&bytes, Strictness::Lenient, &FormatLimits::default()).expect("salvage");
        assert!(!out.verified, "damaged input must not verify");
        assert!(out.has_denials());
        assert_eq!(out.design.name(), d.name());
    }

    #[test]
    fn truncation_is_refused() {
        let (d, _) = sample_design();
        let bytes = write(&d, None);
        for cut in [bytes.len() - 1, bytes.len() - 40, 40, 10] {
            let err = read_binary(&bytes[..cut], Strictness::Strict, &FormatLimits::default())
                .expect_err("must refuse");
            assert!(
                matches!(
                    err,
                    FormatError::Truncated { .. } | FormatError::ChecksumMismatch { .. }
                ),
                "cut={cut}: {err:?}"
            );
            // Lenient: salvages or reports, never panics or verifies.
            match read_binary(&bytes[..cut], Strictness::Lenient, &FormatLimits::default()) {
                Ok(out) => assert!(!out.verified),
                Err(e) => assert!(
                    matches!(e, FormatError::MissingSection { .. }),
                    "cut={cut}: {e:?}"
                ),
            }
        }
    }

    #[test]
    fn hostile_declared_length_is_refused_before_allocation() {
        let (d, _) = sample_design();
        let mut bytes = write(&d, None);
        let (start, _) = frames(&bytes)[2];
        bytes[start + 12..start + 20].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        let err = read_binary(&bytes, Strictness::Strict, &FormatLimits::default())
            .expect_err("must refuse");
        assert!(
            matches!(err, FormatError::LimitExceeded { what: "segment bytes", .. }),
            "{err:?}"
        );
        // Lenient resyncs past the hostile frame; the design loses that
        // segment so it cannot verify, but nothing allocates or panics.
        let out =
            read_binary(&bytes, Strictness::Lenient, &FormatLimits::default()).expect("salvage");
        assert!(!out.verified);
    }

    #[test]
    fn unknown_segment_kinds_are_skipped_with_a_warning() {
        let (d, _) = sample_design();
        let bytes = write(&d, None);
        let spans = frames(&bytes);
        let (end_start, _) = spans[spans.len() - 1];
        let mut with_ext = bytes[..end_start].to_vec();
        with_ext.extend_from_slice(&frame(&SEGMENT_MAGIC, SEGMENT_VERSION, &[200u8, 1, 2, 3]));
        with_ext.extend_from_slice(&bytes[end_start..]);
        let out =
            read_binary(&with_ext, Strictness::Strict, &FormatLimits::default()).expect("read");
        assert_eq!(out.design, d);
        assert!(out.verified);
        assert_eq!(out.diagnostics.len(), 1);
        assert_eq!(out.diagnostics[0].code(), codes::WIRE_UNKNOWN_SECTION);
    }

    #[test]
    fn group_segments_validate_nesting_depth() {
        let (d, _) = sample_design();
        let bytes = write(&d, None);
        let spans = frames(&bytes);
        let (end_start, _) = spans[spans.len() - 1];
        // A tower of nested group frames deeper than the cap.
        let mut inner = frame(&SEGMENT_MAGIC, SEGMENT_VERSION, &[SEG_GROUP]);
        for _ in 0..32 {
            let mut payload = vec![SEG_GROUP];
            payload.extend_from_slice(&inner);
            inner = frame(&SEGMENT_MAGIC, SEGMENT_VERSION, &payload);
        }
        let mut hostile = bytes[..end_start].to_vec();
        hostile.extend_from_slice(&inner);
        hostile.extend_from_slice(&bytes[end_start..]);
        let err = read_binary(&hostile, Strictness::Strict, &FormatLimits::default())
            .expect_err("must refuse");
        assert!(matches!(err, FormatError::Malformed { .. }), "{err:?}");
        // A shallow group is fine: validated, warned about, skipped.
        let shallow = frame(
            &SEGMENT_MAGIC,
            SEGMENT_VERSION,
            &{
                let mut p = vec![SEG_GROUP];
                p.extend_from_slice(&frame(&SEGMENT_MAGIC, SEGMENT_VERSION, &[200u8]));
                p
            },
        );
        let mut ok = bytes[..end_start].to_vec();
        ok.extend_from_slice(&shallow);
        ok.extend_from_slice(&bytes[end_start..]);
        let out = read_binary(&ok, Strictness::Strict, &FormatLimits::default()).expect("read");
        assert!(out.verified);
    }

    #[test]
    fn duplicated_segments_cannot_smuggle_a_wrong_answer() {
        let (d, _) = sample_design();
        let bytes = write(&d, None);
        // Duplicate each frame in turn; strict must refuse every time
        // (duplicate section, duplicate name, or content mismatch) and
        // lenient must never return a verified wrong design.
        for (i, &(start, total)) in frames(&bytes).iter().enumerate() {
            let mut dup = bytes[..start + total].to_vec();
            dup.extend_from_slice(&bytes[start..start + total]);
            dup.extend_from_slice(&bytes[start + total..]);
            let strict = read_binary(&dup, Strictness::Strict, &FormatLimits::default());
            assert!(strict.is_err(), "frame {i}: duplicate must not verify");
            if let Ok(out) = read_binary(&dup, Strictness::Lenient, &FormatLimits::default()) {
                if out.verified {
                    assert_eq!(out.design, d, "frame {i}: verified implies identical");
                }
            }
        }
    }

    #[test]
    fn reader_buffers_segments_not_files() {
        let (d, p) = sample_design();
        let bytes = write(&d, Some(&p));
        let out =
            read_binary(&bytes, Strictness::Strict, &FormatLimits::default()).expect("read");
        assert!(
            out.peak_alloc_bytes < 1 << 20,
            "peak {} should be O(segment)",
            out.peak_alloc_bytes
        );
    }

    #[test]
    fn garbage_prefix_is_bad_magic_then_resyncable() {
        let (d, _) = sample_design();
        let bytes = write(&d, None);
        let mut noisy = b"not a slif file".to_vec();
        noisy.extend_from_slice(&bytes);
        let err = read_binary(&noisy, Strictness::Strict, &FormatLimits::default())
            .expect_err("must refuse");
        assert!(matches!(err, FormatError::BadMagic { .. }), "{err:?}");
        let out =
            read_binary(&noisy, Strictness::Lenient, &FormatLimits::default()).expect("salvage");
        assert_eq!(out.design, d);
        assert!(out.verified, "resync recovers the whole intact stream");
    }
}
