//! Inputs shaped to make the front end slow rather than to break it.
//!
//! A specification far under the parse limits must still build in time
//! close to linear in its size: the build runs inside `/v1/estimate`
//! jobs, which cannot be cancelled, so a super-linear stage there lets
//! one small request hold a job worker for minutes.

use slif::cdfg::lower_spec;
use slif::frontend::build_design;
use slif::speclang::{parse_and_resolve, parse_with_limits, ParseLimits};
use slif::techlib::TechnologyLibrary;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Wall bound for building the long block below. It holds with a wide
/// margin in a debug build; a scheduler quadratic or cubic in the block
/// length needs minutes.
const LONG_BLOCK_BOUND: Duration = Duration::from_secs(5);

/// One process of `n` statements `x = y + i;`: a single basic block of
/// about `4n` operations.
fn straight_line_spec(n: usize) -> String {
    let mut s = String::from("system Long;\nvar x : int<16>;\nvar y : int<16>;\nprocess P {\n");
    for i in 0..n {
        let _ = writeln!(s, "  x = y + {i};");
    }
    s.push_str("}\n");
    s
}

#[test]
fn a_long_straight_line_block_builds_in_near_linear_time() {
    let text = straight_line_spec(4000);
    assert!(text.len() > 60_000, "{} bytes", text.len());
    assert!(text.len() < ParseLimits::default().max_bytes / 16);
    parse_with_limits(&text, &ParseLimits::default()).expect("within the default parse limits");
    let rs = parse_and_resolve(&text).expect("the long spec loads");
    let longest = lower_spec(&rs)
        .iter()
        .flat_map(|g| g.block_ids().map(move |b| g.block(b).ops.len()))
        .max()
        .unwrap_or(0);
    assert!(longest >= 16_000, "longest block has {longest} ops");

    let lib = TechnologyLibrary::proc_asic();
    let start = Instant::now();
    let design = build_design(&rs, &lib);
    let took = start.elapsed();
    assert_eq!(design.graph().node_count(), 3);
    assert!(
        took < LONG_BLOCK_BOUND,
        "building a {}-byte spec took {took:?} (bound {LONG_BLOCK_BOUND:?})",
        text.len()
    );
}
