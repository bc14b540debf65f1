//! Property tests for the `.slif`/`.slifb` interchange encodings: for
//! every design in the `specs/` corpus and across generated design
//! families, `write → read → write` is byte-stable in both encodings
//! and `read(write(d))` is structurally identical to `d` as judged by
//! the store's canonical codec — plus the bounded-memory guarantee:
//! a >50 MB streamed text design parses with O(section) parser
//! allocation.

use proptest::prelude::*;
use slif::core::gen::DesignGenerator;
use slif::core::{Design, Partition};
use slif::formats::wirefmt::{
    read_bytes, text::read_text_from, write_bytes, Encoding, FormatLimits, Strictness,
};
use slif::frontend::{allocate_proc_asic, all_software_partition, build_design};
use slif::speclang::corpus;
use slif::store::encode_design;
use slif::techlib::TechnologyLibrary;

/// One full round-trip audit for a (design, partition) pair in one
/// encoding: strict read accepts, the result is canonically identical,
/// the partition survives, and a second write is byte-identical.
fn audit_round_trip(design: &Design, partition: Option<&Partition>, encoding: Encoding) {
    let bytes = write_bytes(design, partition, encoding).unwrap();
    let out = read_bytes(&bytes, Strictness::Strict, &FormatLimits::default())
        .unwrap_or_else(|e| panic!("{encoding}: strict read refused its own writer: {e}"));
    assert!(out.verified, "{encoding}: round trip unverified");
    assert_eq!(
        encode_design(&out.design),
        encode_design(design),
        "{encoding}: canonical identity broken"
    );
    assert_eq!(&out.design, design, "{encoding}: structural identity broken");
    assert_eq!(out.partition.as_ref(), partition, "{encoding}: partition lost");
    let again = write_bytes(&out.design, out.partition.as_ref(), encoding).unwrap();
    assert_eq!(again, bytes, "{encoding}: second write not byte-stable");
}

/// Every corpus spec round-trips in both encodings, with and without
/// its allocated partition.
#[test]
fn corpus_designs_round_trip_byte_stably() {
    for entry in corpus::all() {
        let rs = entry.load().unwrap();
        let mut design = build_design(&rs, &TechnologyLibrary::proc_asic());
        let arch = allocate_proc_asic(&mut design);
        let partition = all_software_partition(&design, arch);
        for encoding in [Encoding::Text, Encoding::Binary] {
            audit_round_trip(&design, None, encoding);
            audit_round_trip(&design, Some(&partition), encoding);
        }
    }
}

/// A generated design with its partition, just past every chunk size
/// of the writers: more than 4096 nodes and 4096 channels, so the node
/// segments (1024 nodes each), the channel segments and both kinds of
/// partition segment (4096 entries each) all span several chunks.
#[test]
fn design_past_every_chunk_size_round_trips() {
    let (design, partition) = DesignGenerator::new(4200)
        .behaviors(2000)
        .variables(2200)
        .ports(6)
        .processors(3)
        .memories(2)
        .buses(2)
        .build();
    let (nodes, channels) = (design.graph().node_count(), design.graph().channel_count());
    assert!(
        nodes > 4096 && channels > 4096,
        "{nodes} nodes, {channels} channels"
    );
    for encoding in [Encoding::Text, Encoding::Binary] {
        audit_round_trip(&design, Some(&partition), encoding);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generated design families round-trip byte-stably in both
    /// encodings across varied shapes (fanout, components, ports).
    #[test]
    fn generated_designs_round_trip_byte_stably(seed in 0u64..5000) {
        let (design, partition) = DesignGenerator::new(seed).build();
        for encoding in [Encoding::Text, Encoding::Binary] {
            audit_round_trip(&design, Some(&partition), encoding);
        }
    }

    /// Wider generated shapes: more behaviors, variables, and buses.
    #[test]
    fn wide_generated_designs_round_trip(seed in 0u64..500) {
        let (design, partition) = DesignGenerator::new(seed)
            .behaviors(12 + (seed as usize % 9))
            .variables(6)
            .ports(5)
            .avg_fanout(2.5)
            .processors(3)
            .memories(2)
            .buses(2)
            .build();
        for encoding in [Encoding::Text, Encoding::Binary] {
            audit_round_trip(&design, Some(&partition), encoding);
        }
    }
}

/// A `Read` impl that streams a >50 MB `.slif` text design without ever
/// materializing it: a header, then `nodes` procedure records with
/// fat (but legal) names, generated on demand.
struct HugeTextDesign {
    next: usize,
    nodes: usize,
    pending: Vec<u8>,
    pos: usize,
    bytes_out: usize,
}

impl HugeTextDesign {
    fn new(nodes: usize) -> Self {
        Self {
            next: 0,
            nodes,
            pending: b"slif-wire 1\n[design]\ndesign huge\n".to_vec(),
            pos: 0,
            bytes_out: 0,
        }
    }
}

impl std::io::Read for HugeTextDesign {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.pending.len() {
            if self.next >= self.nodes {
                return Ok(0);
            }
            // ~1 KiB per record: a procedure with a long-but-legal name.
            self.pending = format!(
                "node n{:07}_{} procedure\n",
                self.next,
                "x".repeat(1000)
            )
            .into_bytes();
            self.pos = 0;
            self.next += 1;
        }
        let n = (self.pending.len() - self.pos).min(buf.len());
        buf[..n].copy_from_slice(&self.pending[self.pos..self.pos + n]);
        self.pos += n;
        self.bytes_out += n;
        Ok(n)
    }
}

/// The bounded-memory guarantee: a 55 MB streamed design parses while
/// the parser's peak buffer stays O(one line/section), four orders of
/// magnitude below the input size. (The stream has no `[end]` trailer —
/// a partner tool cannot know the content key mid-stream — so this runs
/// lenient, which notes the missing trailer as a diagnostic.)
#[test]
fn parser_memory_stays_bounded_on_a_50mb_stream() {
    const NODES: usize = 54_000; // ~55 MB at ~1 KiB per record
    let mut src = HugeTextDesign::new(NODES);
    let out = read_text_from(&mut src, Strictness::Lenient, &FormatLimits::default()).unwrap();
    assert!(
        src.bytes_out > 50 * 1024 * 1024,
        "stream too small: {} bytes",
        src.bytes_out
    );
    assert_eq!(out.design.graph().node_count(), NODES);
    assert!(!out.verified, "no trailer, must not claim verification");
    assert!(
        out.peak_alloc_bytes < 1 << 21,
        "parser peak {} bytes is not O(section) against a {} byte stream",
        out.peak_alloc_bytes,
        src.bytes_out
    );
}
