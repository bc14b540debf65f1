//! PR 9 bench smoke: interchange throughput, as JSON.
//!
//! How fast do the `.slif` text and `.slifb` binary encodings move? For
//! generated designs at ~1k, ~10k, and ~100k nodes this measures write
//! and strict-parse throughput in MB/s for both encodings — parse
//! includes the full verification chain (frame checksums, content
//! rehash, trailer key match).
//!
//! Writes `BENCH_wirefmt.json` (or the path given as the first
//! argument). Like `pr3_bench` and `pr7_store` this emits
//! machine-readable output; `scripts/verify.sh` runs it with a path
//! under `target/bench/`, so only a deliberate run rewrites the
//! committed record.

use slif_core::gen::DesignGenerator;
use slif_core::{Design, Partition};
use slif_formats::wirefmt::{read_bytes, write_bytes, Encoding, FormatLimits, Strictness};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const ROUNDS: usize = 9;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    xs[xs.len() / 2]
}

fn mb_per_s(bytes: usize, ns: f64) -> f64 {
    (bytes as f64 / (1024.0 * 1024.0)) / (ns / 1e9)
}

/// A generated design with roughly `target` nodes (4:1 behaviors to
/// variables) and a fanout that keeps the channel table realistic.
fn sized_design(target: usize) -> (Design, Partition) {
    DesignGenerator::new(target as u64)
        .behaviors(target * 4 / 5)
        .variables(target / 5)
        .ports(6)
        .avg_fanout(1.8)
        .processors(3)
        .memories(2)
        .buses(2)
        .build()
}

fn bench_write(design: &Design, partition: &Partition, encoding: Encoding) -> (f64, usize) {
    let bytes = write_bytes(design, Some(partition), encoding).expect("bench design writes");
    let ns = median(
        (0..ROUNDS)
            .map(|_| {
                let start = Instant::now();
                let out =
                    write_bytes(design, Some(partition), encoding).expect("bench design writes");
                let ns = start.elapsed().as_nanos() as f64;
                black_box(out);
                ns
            })
            .collect(),
    );
    (ns, bytes.len())
}

fn bench_parse(bytes: &[u8], limits: &FormatLimits) -> f64 {
    median(
        (0..ROUNDS)
            .map(|_| {
                let start = Instant::now();
                let out = read_bytes(bytes, Strictness::Strict, limits).expect("bench bytes parse");
                let ns = start.elapsed().as_nanos() as f64;
                assert!(black_box(out).verified, "bench parse must verify");
                ns
            })
            .collect(),
    )
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_wirefmt.json".to_string());
    let limits = FormatLimits::default();

    let mut entries = String::new();
    for (i, &target) in [1_000usize, 10_000, 100_000].iter().enumerate() {
        let (design, partition) = sized_design(target);
        let nodes = design.graph().node_count();
        if i > 0 {
            entries.push(',');
        }
        let _ = write!(entries, "\n    {{\"nodes\": {nodes}, \"encodings\": {{");
        for (j, encoding) in [Encoding::Text, Encoding::Binary].into_iter().enumerate() {
            let (write_ns, len) = bench_write(&design, &partition, encoding);
            let bytes = write_bytes(&design, Some(&partition), encoding).expect("writes");
            let parse_ns = bench_parse(&bytes, &limits);
            let write_mbs = mb_per_s(len, write_ns);
            let parse_mbs = mb_per_s(len, parse_ns);
            println!(
                "{nodes:>7} nodes {encoding:>6}: {len:>9} B  write {write_mbs:>7.1} MB/s  \
                 parse {parse_mbs:>7.1} MB/s"
            );
            if j > 0 {
                entries.push_str(", ");
            }
            let _ = write!(
                entries,
                "\"{encoding}\": {{\"bytes\": {len}, \"write_ns\": {write_ns:.0}, \
                 \"write_mb_s\": {write_mbs:.1}, \"parse_ns\": {parse_ns:.0}, \
                 \"parse_mb_s\": {parse_mbs:.1}}}"
            );
        }
        entries.push_str("}}");
    }

    let json = format!(
        "{{\n  \"bench\": \"pr9_wirefmt\",\n  \"workload\": \
         \"interchange write/strict-parse throughput both encodings\",\n  \
         \"rounds\": {ROUNDS},\n  \"sizes\": [{entries}\n  ]\n}}\n"
    );
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {out_path}");
}
