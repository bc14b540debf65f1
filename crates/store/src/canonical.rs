//! Canonical bytes for [`Design`]: the one design codec.
//!
//! A design is written as a fixed sequence of *segments* — the same
//! segments a `.slifb` file frames, one frame each:
//!
//! | kind | segment | body |
//! |-----:|---------|------|
//! | 1 | header | design name |
//! | 2 | classes | count, then name + kind byte each |
//! | 3 | ports | count, then name + direction + bits each |
//! | 4 | nodes (chunks of 1024) | count, then name + kind + ict/size weights each |
//! | 5 | channels (chunks of 4096) | count, then src/dst ordinals + kind + freq + bits + tag each |
//! | 6 | components | processors, memories, buses |
//!
//! A segment's payload is its kind byte followed by its body. The
//! canonical bytes are the version byte [`CANONICAL_VERSION`] followed
//! by every payload, in the order above, each with a `u32` length
//! prefix. Their SHA-256 is the design's
//! [`ContentKey`](crate::ContentKey), so equal designs must encode to
//! equal bytes and decoding must reproduce the design *exactly* —
//! `decode_design(&encode_design(d)) == d`:
//!
//! * a fixed field order matching the iteration order of the design's
//!   own accessors;
//! * names inline; objects referenced by arena position, which is what
//!   every id already is;
//! * `f64` fields stored as raw IEEE-754 bits — no decimal round trip;
//! * little-endian fixed-width integers throughout.
//!
//! [`SegmentDecoder`] is the only design decoder: [`decode_design`] runs
//! it over canonical bytes and the `.slifb` reader runs it over framed
//! segments. It treats its input as untrusted: every count is
//! bounds-checked against the remaining buffer (no allocation from a
//! decoded length), every ordinal is range-checked, trailing bytes are
//! rejected, and each segment is decoded to scratch before it touches
//! the design — malformed input yields a typed error, never a panic.

use std::fmt;

use crate::error::StoreError;
use slif_core::codec::{Dec, DecodeError, Enc};
use slif_core::{
    AccessFreq, AccessKind, AccessTarget, Bus, ChannelId, ClassId, ClassKind, ConcurrencyTag,
    CoreError, Design, GraphLimits, Memory, NodeId, NodeKind, PortDirection, PortId, Processor,
    WeightEntry, WeightList,
};

/// The canonical encoding's own version byte (bumped on any layout
/// change; the cache's object frame carries a second, container-level
/// version).
pub const CANONICAL_VERSION: u8 = 2;

/// Segment kind: design name.
pub const SEG_HEADER: u8 = 1;
/// Segment kind: component classes.
pub const SEG_CLASSES: u8 = 2;
/// Segment kind: external ports.
pub const SEG_PORTS: u8 = 3;
/// Segment kind: a chunk of nodes with their weight annotations.
pub const SEG_NODES: u8 = 4;
/// Segment kind: a chunk of channels.
pub const SEG_CHANNELS: u8 = 5;
/// Segment kind: processor, memory, and bus instances — the last
/// design segment.
pub const SEG_COMPONENTS: u8 = 6;

const NODES_PER_SEGMENT: usize = 1024;
const CHANNELS_PER_SEGMENT: usize = 4096;

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

/// Encodes a design to its canonical bytes.
///
/// Large object families are split into bounded chunks (1024 nodes /
/// 4096 channels per segment), so a `.slifb` reader can impose a modest
/// segment cap.
pub fn encode_design(design: &Design) -> Vec<u8> {
    let g = design.graph();
    let mut out = Enc::default();
    out.u8(CANONICAL_VERSION);

    segment(&mut out, SEG_HEADER, |e| e.bytes(design.name().as_bytes()));

    segment(&mut out, SEG_CLASSES, |e| {
        e.u32(design.class_count() as u32);
        for k in design.class_ids() {
            let c = design.class(k);
            e.bytes(c.name().as_bytes());
            e.u8(match c.kind() {
                ClassKind::StdProcessor => 0,
                ClassKind::CustomHw => 1,
                ClassKind::Memory => 2,
            });
        }
    });

    segment(&mut out, SEG_PORTS, |e| {
        e.u32(g.port_count() as u32);
        for p in g.port_ids() {
            let port = g.port(p);
            e.bytes(port.name().as_bytes());
            e.u8(match port.direction() {
                PortDirection::In => 0,
                PortDirection::Out => 1,
                PortDirection::InOut => 2,
            });
            e.u32(port.bits());
        }
    });

    for start in (0..g.node_count()).step_by(NODES_PER_SEGMENT) {
        let end = (start + NODES_PER_SEGMENT).min(g.node_count());
        segment(&mut out, SEG_NODES, |e| {
            e.u32((end - start) as u32);
            for i in start..end {
                let node = g.node(NodeId::from_raw(i as u32));
                e.bytes(node.name().as_bytes());
                match node.kind() {
                    NodeKind::Behavior { process } => e.u8(u8::from(!process)),
                    NodeKind::Variable { words, word_bits } => {
                        e.u8(2);
                        e.u64(words);
                        e.u32(word_bits);
                    }
                }
                e.u32(node.ict().len() as u32);
                for w in node.ict() {
                    e.u32(w.class.index() as u32);
                    e.u64(w.val);
                }
                e.u32(node.size().len() as u32);
                for w in node.size() {
                    e.u32(w.class.index() as u32);
                    e.u64(w.val);
                    match w.datapath {
                        Some(dp) => {
                            e.u8(1);
                            e.u64(dp);
                        }
                        None => e.u8(0),
                    }
                }
            }
        });
    }

    for start in (0..g.channel_count()).step_by(CHANNELS_PER_SEGMENT) {
        let end = (start + CHANNELS_PER_SEGMENT).min(g.channel_count());
        segment(&mut out, SEG_CHANNELS, |e| {
            e.u32((end - start) as u32);
            for i in start..end {
                let ch = g.channel(ChannelId::from_raw(i as u32));
                e.u32(ch.src().index() as u32);
                match ch.dst() {
                    AccessTarget::Node(n) => {
                        e.u8(0);
                        e.u32(n.index() as u32);
                    }
                    AccessTarget::Port(p) => {
                        e.u8(1);
                        e.u32(p.index() as u32);
                    }
                }
                e.u8(match ch.kind() {
                    AccessKind::Call => 0,
                    AccessKind::Read => 1,
                    AccessKind::Write => 2,
                    AccessKind::Message => 3,
                });
                let f = ch.freq();
                e.f64(f.avg);
                e.u64(f.min);
                e.u64(f.max);
                e.u32(ch.bits());
                match ch.tag().id() {
                    None => e.u8(0),
                    Some(group) => {
                        e.u8(1);
                        e.u32(group);
                    }
                }
            }
        });
    }

    segment(&mut out, SEG_COMPONENTS, |e| {
        e.u32(design.processor_count() as u32);
        for p in design.processor_ids() {
            let proc = design.processor(p);
            e.bytes(proc.name().as_bytes());
            e.u32(proc.class().index() as u32);
            let flags = u8::from(proc.size_constraint().is_some())
                | (u8::from(proc.pin_constraint().is_some()) << 1);
            e.u8(flags);
            if let Some(s) = proc.size_constraint() {
                e.u64(s);
            }
            if let Some(pins) = proc.pin_constraint() {
                e.u32(pins);
            }
        }
        e.u32(design.memory_count() as u32);
        for m in design.memory_ids() {
            let mem = design.memory(m);
            e.bytes(mem.name().as_bytes());
            e.u32(mem.class().index() as u32);
            match mem.size_constraint() {
                Some(s) => {
                    e.u8(1);
                    e.u64(s);
                }
                None => e.u8(0),
            }
        }
        e.u32(design.bus_count() as u32);
        for b in design.bus_ids() {
            let bus = design.bus(b);
            e.bytes(bus.name().as_bytes());
            e.u32(bus.bitwidth());
            e.u64(bus.ts());
            e.u64(bus.td());
            match bus.capacity() {
                Some(cap) => {
                    e.u8(1);
                    e.f64(cap);
                }
                None => e.u8(0),
            }
        }
    });

    out.buf
}

/// Appends one length-prefixed segment payload: the kind byte, then
/// the body `body` writes.
fn segment(out: &mut Enc, kind: u8, body: impl FnOnce(&mut Enc)) {
    let at = out.buf.len();
    out.u32(0);
    out.u8(kind);
    body(out);
    let len = (out.buf.len() - at - 4) as u32;
    out.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// The segment payloads (kind byte + body) of canonical bytes, in
/// order — what a `.slifb` writer frames. Stops at the first length
/// prefix that overruns the input.
pub fn segment_payloads(canonical: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut d = Dec::new(canonical.get(1..).unwrap_or_default());
    std::iter::from_fn(move || {
        (d.remaining() > 0)
            .then(|| d.bytes("segment").ok())
            .flatten()
    })
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

/// Why a design segment was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum SegmentError {
    /// The body does not decode, or decodes to an object the design
    /// cannot hold; the message says which field or object.
    Malformed(String),
    /// A segment that appears once per design appeared again.
    Duplicate(&'static str),
    /// The graph refused an object: a cap, a duplicate node or port
    /// name, or invalid channel endpoints.
    Graph(CoreError),
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::Malformed(m) => f.write_str(m),
            SegmentError::Duplicate(s) => write!(f, "duplicate `{s}` segment"),
            SegmentError::Graph(e) => write!(f, "graph rejected: {e}"),
        }
    }
}

impl std::error::Error for SegmentError {}

impl From<DecodeError> for SegmentError {
    fn from(e: DecodeError) -> Self {
        SegmentError::Malformed(format!("segment body: {}", e.context()))
    }
}

impl From<CoreError> for SegmentError {
    fn from(e: CoreError) -> Self {
        SegmentError::Graph(e)
    }
}

fn malformed<T>(message: impl Into<String>) -> Result<T, SegmentError> {
    Err(SegmentError::Malformed(message.into()))
}

/// Rebuilds a design from its segments, one at a time.
///
/// The header segment comes first and creates the design; classes,
/// ports, and components may each appear once; node and channel chunks
/// append in order. Every other segment kind is refused — framing,
/// partitions, and trailers are the caller's business.
#[derive(Debug)]
pub struct SegmentDecoder {
    limits: GraphLimits,
    design: Option<Design>,
    seen_classes: bool,
    seen_ports: bool,
    seen_components: bool,
}

impl SegmentDecoder {
    /// A decoder that enforces `limits` on the graph it rebuilds.
    pub fn new(limits: GraphLimits) -> Self {
        Self {
            limits,
            design: None,
            seen_classes: false,
            seen_ports: false,
            seen_components: false,
        }
    }

    /// The design rebuilt so far (`None` before the header segment).
    pub fn design(&self) -> Option<&Design> {
        self.design.as_ref()
    }

    /// Takes the rebuilt design out of the decoder.
    pub fn take_design(&mut self) -> Option<Design> {
        self.design.take()
    }

    /// Decodes one segment body of the given kind and applies it. The
    /// body is decoded in full (trailing bytes included) before the
    /// design changes, so a malformed body leaves the design as it was;
    /// only a graph refusal while applying can stop a segment part way.
    ///
    /// # Errors
    ///
    /// [`SegmentError::Duplicate`] for a second header, classes, ports,
    /// or components segment; [`SegmentError::Graph`] when the graph
    /// refuses an object; [`SegmentError::Malformed`] for anything else.
    pub fn apply(&mut self, kind: u8, body: &[u8]) -> Result<(), SegmentError> {
        let d = Dec::new(body);
        if kind == SEG_HEADER {
            if self.design.is_some() {
                return Err(SegmentError::Duplicate("header"));
            }
            self.design = Some(header(d)?);
            return Ok(());
        }
        let Some(design) = self.design.as_mut() else {
            return malformed("content segment before the header segment");
        };
        match kind {
            SEG_CLASSES => once(&mut self.seen_classes, "classes", || classes(d, design)),
            SEG_PORTS => once(&mut self.seen_ports, "ports", || {
                ports(d, design, &self.limits)
            }),
            SEG_NODES => nodes(d, design, &self.limits),
            SEG_CHANNELS => channels(d, design, &self.limits),
            SEG_COMPONENTS => once(&mut self.seen_components, "components", || {
                components(d, design)
            }),
            other => malformed(format!("segment kind {other} is not a design segment")),
        }
    }
}

/// Applies a segment kind that may appear once per design.
fn once(
    seen: &mut bool,
    section: &'static str,
    apply: impl FnOnce() -> Result<(), SegmentError>,
) -> Result<(), SegmentError> {
    if *seen {
        return Err(SegmentError::Duplicate(section));
    }
    apply()?;
    *seen = true;
    Ok(())
}

fn utf8(raw: &[u8], what: &str) -> Result<String, SegmentError> {
    match std::str::from_utf8(raw) {
        Ok(s) => Ok(s.to_owned()),
        Err(_) => malformed(format!("{what} utf-8")),
    }
}

fn class_ord(design: &Design, ord: u32) -> Result<ClassId, SegmentError> {
    if (ord as usize) < design.class_count() {
        Ok(ClassId::from_raw(ord))
    } else {
        malformed("class ordinal out of range")
    }
}

fn header(mut d: Dec<'_>) -> Result<Design, SegmentError> {
    let name = utf8(d.bytes("design name")?, "design name")?;
    d.finish()?;
    Ok(Design::new(name))
}

fn classes(mut d: Dec<'_>, design: &mut Design) -> Result<(), SegmentError> {
    let mut scratch: Vec<(String, ClassKind)> = Vec::new();
    for _ in 0..d.u32("class count")? {
        let name = utf8(d.bytes("class name")?, "class name")?;
        let kind = match d.u8("class kind")? {
            0 => ClassKind::StdProcessor,
            1 => ClassKind::CustomHw,
            2 => ClassKind::Memory,
            _ => return malformed("class kind"),
        };
        if scratch.iter().any(|(n, _)| *n == name) {
            return malformed(format!("duplicate class `{name}`"));
        }
        scratch.push((name, kind));
    }
    d.finish()?;
    for (name, kind) in scratch {
        design.add_class(name, kind);
    }
    Ok(())
}

fn ports(mut d: Dec<'_>, design: &mut Design, limits: &GraphLimits) -> Result<(), SegmentError> {
    let mut scratch = Vec::new();
    for _ in 0..d.u32("port count")? {
        let name = utf8(d.bytes("port name")?, "port name")?;
        let dir = match d.u8("port direction")? {
            0 => PortDirection::In,
            1 => PortDirection::Out,
            2 => PortDirection::InOut,
            _ => return malformed("port direction"),
        };
        scratch.push((name, dir, d.u32("port bits")?));
    }
    d.finish()?;
    for (name, dir, bits) in scratch {
        design
            .graph_mut()
            .try_add_port_bounded(name, dir, bits, limits)?;
    }
    Ok(())
}

fn nodes(mut d: Dec<'_>, design: &mut Design, limits: &GraphLimits) -> Result<(), SegmentError> {
    let count = d.u32("node count")?;
    // A node record takes at least 13 bytes.
    let mut scratch = Vec::with_capacity((count as usize).min(d.remaining() / 13));
    for _ in 0..count {
        let name = utf8(d.bytes("node name")?, "node name")?;
        let kind = match d.u8("node kind")? {
            0 => NodeKind::process(),
            1 => NodeKind::procedure(),
            2 => {
                let words = d.u64("variable words")?;
                NodeKind::array(words, d.u32("variable word bits")?)
            }
            _ => return malformed("node kind"),
        };
        let mut ict = WeightList::new();
        for _ in 0..d.u32("ict count")? {
            let k = class_ord(design, d.u32("ict class")?)?;
            ict.set(k, d.u64("ict value")?);
        }
        let mut size = WeightList::new();
        for _ in 0..d.u32("size count")? {
            let k = class_ord(design, d.u32("size class")?)?;
            let val = d.u64("size value")?;
            size.insert(match d.u8("size datapath flag")? {
                0 => WeightEntry::new(k, val),
                1 => {
                    let dp = d.u64("size datapath")?;
                    if dp > val {
                        return malformed(format!("datapath {dp} exceeds total weight {val}"));
                    }
                    WeightEntry::with_datapath(k, val, dp)
                }
                _ => return malformed("size datapath flag"),
            });
        }
        scratch.push((name, kind, ict, size));
    }
    d.finish()?;
    for (name, kind, ict, size) in scratch {
        let id = design
            .graph_mut()
            .try_add_node_bounded(name, kind, limits)?;
        let node = design.graph_mut().node_mut(id);
        *node.ict_mut() = ict;
        *node.size_mut() = size;
    }
    Ok(())
}

fn channels(mut d: Dec<'_>, design: &mut Design, limits: &GraphLimits) -> Result<(), SegmentError> {
    let g = design.graph();
    let count = d.u32("channel count")?;
    // A channel record takes at least 39 bytes, which bounds the
    // reservation by the bytes actually present.
    let mut scratch = Vec::with_capacity((count as usize).min(d.remaining() / 39));
    for _ in 0..count {
        let src = d.u32("channel src")?;
        if src as usize >= g.node_count() {
            return malformed("channel src ordinal");
        }
        let dst = match d.u8("channel dst tag")? {
            0 => {
                let o = d.u32("channel dst node")?;
                if o as usize >= g.node_count() {
                    return malformed("channel dst node ordinal");
                }
                AccessTarget::Node(NodeId::from_raw(o))
            }
            1 => {
                let o = d.u32("channel dst port")?;
                if o as usize >= g.port_count() {
                    return malformed("channel dst port ordinal");
                }
                AccessTarget::Port(PortId::from_raw(o))
            }
            _ => return malformed("channel dst tag"),
        };
        let kind = match d.u8("channel kind")? {
            0 => AccessKind::Call,
            1 => AccessKind::Read,
            2 => AccessKind::Write,
            3 => AccessKind::Message,
            _ => return malformed("channel kind"),
        };
        let avg = d.f64("channel freq avg")?;
        let min = d.u64("channel freq min")?;
        let max = d.u64("channel freq max")?;
        let bits = d.u32("channel bits")?;
        let tag = match d.u8("channel tag flag")? {
            0 => ConcurrencyTag::SEQUENTIAL,
            1 => ConcurrencyTag::group(d.u32("channel tag group")?),
            _ => return malformed("channel tag flag"),
        };
        let freq = AccessFreq::new(avg, min, max);
        scratch.push((NodeId::from_raw(src), dst, kind, freq, bits, tag));
    }
    d.finish()?;
    for (src, dst, kind, freq, bits, tag) in scratch {
        let g = design.graph_mut();
        let id = g.try_add_channel_bounded(src, dst, kind, limits)?;
        let ch = g.channel_mut(id);
        *ch.freq_mut() = freq;
        ch.set_bits(bits);
        ch.set_tag(tag);
    }
    Ok(())
}

fn components(mut d: Dec<'_>, design: &mut Design) -> Result<(), SegmentError> {
    let mut procs: Vec<Processor> = Vec::new();
    for _ in 0..d.u32("processor count")? {
        let name = utf8(d.bytes("processor name")?, "processor name")?;
        let k = class_ord(design, d.u32("processor class")?)?;
        if !design.class(k).kind().holds_behaviors() {
            return malformed(format!("class of processor `{name}` is a memory class"));
        }
        if procs.iter().any(|p| p.name() == name) {
            return malformed(format!("duplicate processor `{name}`"));
        }
        let flags = d.u8("processor flags")?;
        if flags > 3 {
            return malformed("processor flags");
        }
        let mut proc = Processor::new(name, k);
        if flags & 1 != 0 {
            proc = proc.with_size_constraint(d.u64("processor size")?);
        }
        if flags & 2 != 0 {
            proc = proc.with_pin_constraint(d.u32("processor pins")?);
        }
        procs.push(proc);
    }
    let mut mems: Vec<Memory> = Vec::new();
    for _ in 0..d.u32("memory count")? {
        let name = utf8(d.bytes("memory name")?, "memory name")?;
        let k = class_ord(design, d.u32("memory class")?)?;
        if design.class(k).kind() != ClassKind::Memory {
            return malformed(format!("class of memory `{name}` is not a memory class"));
        }
        if mems.iter().any(|m| m.name() == name) {
            return malformed(format!("duplicate memory `{name}`"));
        }
        let mut mem = Memory::new(name, k);
        match d.u8("memory size flag")? {
            0 => {}
            1 => mem = mem.with_size_constraint(d.u64("memory size")?),
            _ => return malformed("memory size flag"),
        }
        mems.push(mem);
    }
    let mut buses: Vec<Bus> = Vec::new();
    for _ in 0..d.u32("bus count")? {
        let name = utf8(d.bytes("bus name")?, "bus name")?;
        let width = d.u32("bus width")?;
        if width == 0 {
            return malformed(format!("bus `{name}` has zero width"));
        }
        if buses.iter().any(|b| b.name() == name) {
            return malformed(format!("duplicate bus `{name}`"));
        }
        let ts = d.u64("bus ts")?;
        let td = d.u64("bus td")?;
        let mut bus = Bus::new(name, width, ts, td);
        match d.u8("bus capacity flag")? {
            0 => {}
            1 => bus = bus.with_capacity(d.f64("bus capacity")?),
            _ => return malformed("bus capacity flag"),
        }
        buses.push(bus);
    }
    d.finish()?;
    for p in procs {
        design.add_processor_instance(p);
    }
    for m in mems {
        design.add_memory_instance(m);
    }
    for b in buses {
        design.add_bus(b);
    }
    Ok(())
}

/// Decodes canonical bytes back into a design.
///
/// The bytes were capped when the design was first read or built, and
/// the store proves them unchanged by their hash, so the rebuilt graph
/// is not capped again.
///
/// # Errors
///
/// A typed [`StoreError::Corrupt`] on any malformed input: bad version,
/// truncation, a refused segment, or trailing bytes after the
/// components segment.
pub fn decode_design(bytes: &[u8]) -> Result<Design, StoreError> {
    let corrupt = |context: &'static str| StoreError::Corrupt { context };
    let mut d = Dec::new(bytes);
    if d.u8("canonical version")? != CANONICAL_VERSION {
        return Err(corrupt("canonical version"));
    }
    let uncapped = GraphLimits::new()
        .with_max_nodes(usize::MAX)
        .with_max_ports(usize::MAX)
        .with_max_channels(usize::MAX);
    let mut decoder = SegmentDecoder::new(uncapped);
    loop {
        let Some((&kind, body)) = d.bytes("segment")?.split_first() else {
            return Err(corrupt("segment kind"));
        };
        decoder
            .apply(kind, body)
            .map_err(|_| corrupt("design segment"))?;
        if kind == SEG_COMPONENTS {
            break;
        }
    }
    d.finish()?;
    decoder.take_design().ok_or(corrupt("design header"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use slif_core::gen::DesignGenerator;

    fn corpus() -> Vec<Design> {
        let mut designs = Vec::new();
        for seed in [0u64, 1, 2, 7, 42, 99] {
            let (d, _) = DesignGenerator::new(seed).build();
            designs.push(d);
        }
        let (big, _) = DesignGenerator::new(5)
            .behaviors(20)
            .variables(12)
            .processors(3)
            .memories(2)
            .buses(3)
            .build();
        designs.push(big);
        designs.push(Design::new("empty"));
        designs
    }

    #[test]
    fn decode_encode_is_identity() {
        for (i, d) in corpus().iter().enumerate() {
            let bytes = encode_design(d);
            let back = decode_design(&bytes).unwrap_or_else(|e| panic!("design {i}: {e}"));
            assert_eq!(&back, d, "design {i} did not round-trip");
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        for (seed, d) in [0u64, 1, 2, 7, 42, 99].into_iter().zip(corpus()) {
            assert_eq!(encode_design(&d), encode_design(&d));
            // An independently generated equal design encodes to the
            // same bytes: content addressing keys on value, not on
            // construction history.
            let (twin, _) = DesignGenerator::new(seed).build();
            assert_eq!(twin, d);
            assert_eq!(encode_design(&d), encode_design(&twin));
        }
    }

    #[test]
    fn segments_follow_the_fixed_order_in_bounded_chunks() {
        let (d, _) = DesignGenerator::new(3)
            .behaviors(1500)
            .variables(700)
            .build();
        let kinds: Vec<u8> = segment_payloads(&encode_design(&d)).map(|p| p[0]).collect();
        let node_chunks = d.graph().node_count().div_ceil(NODES_PER_SEGMENT);
        let channel_chunks = d.graph().channel_count().div_ceil(CHANNELS_PER_SEGMENT);
        assert!(node_chunks > 1, "fixture should span several node chunks");
        let mut expected = vec![SEG_HEADER, SEG_CLASSES, SEG_PORTS];
        expected.extend(std::iter::repeat_n(SEG_NODES, node_chunks));
        expected.extend(std::iter::repeat_n(SEG_CHANNELS, channel_chunks));
        expected.push(SEG_COMPONENTS);
        assert_eq!(kinds, expected);
        assert_eq!(decode_design(&encode_design(&d)).as_ref(), Ok(&d));
    }

    #[test]
    fn different_designs_encode_differently() {
        let designs = corpus();
        for (i, a) in designs.iter().enumerate() {
            for (j, b) in designs.iter().enumerate() {
                if i != j && a != b {
                    assert_ne!(encode_design(a), encode_design(b), "designs {i}/{j}");
                }
            }
        }
    }

    #[test]
    fn every_truncation_is_rejected_not_panicking() {
        let (d, _) = DesignGenerator::new(3).build();
        let bytes = encode_design(&d);
        for len in 0..bytes.len() {
            assert!(
                decode_design(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let (d, _) = DesignGenerator::new(3).build();
        let mut bytes = encode_design(&d);
        bytes.push(0x00);
        assert_eq!(
            decode_design(&bytes),
            Err(StoreError::Corrupt {
                context: "trailing bytes"
            })
        );
    }

    #[test]
    fn random_mutations_never_panic() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (d, _) = DesignGenerator::new(11).build();
        let good = encode_design(&d);
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..500 {
            let mut bad = good.clone();
            for _ in 0..rng.gen_range(1usize..8) {
                let pos = rng.gen_range(0usize..bad.len());
                bad[pos] = rng.gen_range(0u32..256) as u8;
            }
            // Either decodes to some design or errors — never panics.
            let _ = decode_design(&bad);
        }
    }

    #[test]
    fn bad_version_is_rejected() {
        let (d, _) = DesignGenerator::new(1).build();
        let mut bytes = encode_design(&d);
        bytes[0] = 9;
        assert!(decode_design(&bytes).is_err());
    }

    #[test]
    fn a_refused_segment_leaves_the_design_unchanged() {
        let (d, _) = DesignGenerator::new(2).build();
        let bytes = encode_design(&d);
        let mut decoder = SegmentDecoder::new(GraphLimits::default());
        for payload in segment_payloads(&bytes) {
            let (&kind, body) = payload.split_first().unwrap();
            if kind == SEG_NODES {
                // The chunk with one byte cut off its end is refused
                // whole; the intact chunk then applies cleanly.
                assert!(decoder.apply(kind, &body[..body.len() - 1]).is_err());
                assert_eq!(decoder.design().map(|d| d.graph().node_count()), Some(0));
            }
            decoder.apply(kind, body).unwrap();
        }
        assert_eq!(decoder.take_design().as_ref(), Some(&d));
        // A second header is a duplicate, not a fresh design.
        let mut decoder = SegmentDecoder::new(GraphLimits::default());
        let header = segment_payloads(&bytes).next().unwrap();
        decoder.apply(header[0], &header[1..]).unwrap();
        assert_eq!(
            decoder.apply(header[0], &header[1..]),
            Err(SegmentError::Duplicate("header"))
        );
    }
}
