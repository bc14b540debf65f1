#!/usr/bin/env bash
# Tier-1 verification gate (see ROADMAP.md).
#
# 1. Release build + full test suite — the seed contract — over the
#    whole workspace: a bare `cargo test` at the root runs only the
#    facade package, so `--workspace` is what makes the crates' own
#    unit tests (store codec, wirefmt, analyze memo, session walks)
#    gate a change. It includes tests/speedup_floors.rs: a warm
#    Patched edit must beat a cold session open by ≥10x at ~1200
#    nodes, and a memoized one-behavior re-analysis of `ether` must
#    beat a cold flow analysis by ≥5x while lowering and solving
#    exactly the edited behavior and returning the cold report. Cold
#    and warm rounds alternate, so a host slowdown lands on both sides.
# 2. Fault-injection suite (tests/fault_injection.rs, run by step 1's
#    `--workspace`, which includes the root package's tests/):
#    checkpoint corruption (truncation/bit-flips/header smashing),
#    kill-and-resume exactness for all four partitioners, and the
#    incremental-estimator self-audit must hold on every run.
# 3. Checkpoint round-trip smoke: the resume_run example interrupts a
#    supervised annealing run on a budget, reloads the checkpoint file,
#    and asserts the resumed run is bit-identical to an uninterrupted
#    one. It exits nonzero on any mismatch.
# 4. Runtime soak (tests/runtime_soak.rs, run in step 1): 500 mixed
#    jobs (>30% injected faults — worker panics, malformed/corrupted/
#    oversized inputs) through a 4-worker JobService; asserts
#    exactly-one-terminal-state per job, bit-identity with inline
#    execution for clean jobs, and balanced health books. The
#    serve_batch example smoke-tests the same service end to end.
# 5. Spec-level lint gate: the analyze_spec example runs the
#    slif-analyze engine — the graph passes (races, dead code,
#    recursion cycles, bitwidth hazards, annotation gaps) plus the
#    flow-sensitive passes (value ranges, uninitialized reads, dead
#    stores, constant conditions) — over every corpus spec in
#    deny-warnings mode and exits nonzero on any finding; the shipped
#    corpus must lint clean. It runs twice: once for the human-readable
#    rendering and once in `--format json` (the stable machine schema).
#    The analyzer's own property suites (tests/analyze_props.rs and
#    tests/dataflow_props.rs: determinism, per-lint firing fixtures,
#    fixpoint determinism, incremental bit-identity) run in step 1.
# 6. Wire smoke: loadgen binds a slif-serve instance in-process on an
#    ephemeral port (--self-serve, so no port coordination) and drives
#    500 mixed requests with >30% injected client faults — slow
#    writers, truncated bodies, bad API keys, oversized declarations,
#    tenant floods. It exits nonzero on any contract violation (wrong
#    status, clean body not byte-identical to the inline run, a caught
#    worker panic). The full 10k-request soak runs as
#    tests/wire_soak.rs in step 1.
# 7. Durability soak: tests/store_soak.rs (run in step 1) drives 24
#    restart cycles of a durable slif-serve over one store directory,
#    corrupting the journal
#    and the design cache between cycles (>30% of cycles, all four
#    StoreFaultKind classes) — every acknowledged job must keep
#    replaying its exact status and body, and every served body (cold or
#    warm-cache) must stay byte-identical to the inline run. The
#    restart_smoke binary then proves the same contract cross-process:
#    it SIGKILLs a real slif-serve child mid-flight and requires the
#    journalled result and a warm cache hit from its successor.
# 8. Edit-session smoke: the edit_session example opens a session,
#    walks all three recompute tiers (patched / recompiled / deferred)
#    locally, then drives the same protocol across the wire (POST
#    /sessions, POST /sessions/{id}/edit, GET /sessions/{id}) against an
#    in-process server, asserting tier and cleanliness on each hop.
# 9. Interchange-format gate: the format fault soak (tests/format_soak.rs,
#    run in step 1) drives ≥500 corrupted/truncated/hostile-cap inputs
#    through the strict parser and POST /designs — zero panics, zero
#    wrong answers, every rejection typed. The slif_conv example then
#    proves every corpus spec survives text → binary → text with the
#    final text byte-identical to the first.
# 10. Benchmark smoke: the slifbench package's own tests (generator
#    determinism and counts, statistics, spans), then a 10-second
#    cold_report run, a 5-second edit_session run and a 30-second
#    serve_store run. Every cold_report op checks Figure 4's object and
#    channel counts (and the generator's for generated specs) and that
#    its round equals the warm-up round; every edit_session op checks
#    its edits' tiers and that each document's session ends `==` a cold
#    open (reports with flow findings and spans included); every
#    serve_store op strict-reads both GET encodings of a stored design
#    and checks the posted hash against `encode_design`. Each run fails
#    the step unless its result line reads `"correct": true`. slifbench
#    is the repo's one timing record; no step here writes a timing file.
# 11. Lint gate: clippy with warnings denied (the workspace sweep covers
#    crates/analyze like every other crate), plus `unwrap_used` on
#    non-test code (without --all-targets, #[cfg(test)] code is not
#    linted, which is exactly the carve-out we want: tests may unwrap,
#    library paths must return typed errors). slif-explore and
#    slif-estimate carry `#![warn(clippy::expect_used)]` at crate level
#    — `-D warnings` promotes it, so the checkpoint and self-audit paths
#    can never panic on bad input. slif-runtime warns on expect_used too:
#    serving code must degrade, not die.
set -euo pipefail
cd "$(dirname "$0")/.."

# --workspace: a bare root build covers only the facade package, which
# can leave member binaries (notably the slif-serve the restart_smoke
# step spawns from target/release/) stale.
cargo build --release --workspace
cargo test -q --workspace
cargo run --release --quiet --example resume_run
cargo run --release --quiet --example serve_batch
cargo run --release --quiet --example analyze_spec -- --deny-warnings
cargo run --release --quiet --example analyze_spec -- --deny-warnings --format json
cargo run --release --quiet -p slif-serve --bin loadgen -- --self-serve --requests 500
cargo run --release --quiet -p slif-serve --bin restart_smoke
cargo run --release --quiet --example edit_session
cargo run --release --quiet --example slif_conv
cargo test --release --offline --manifest-path slifbench/Cargo.toml
bench_smoke() {
    local out
    out=$(cargo run --release --offline --quiet --manifest-path slifbench/Cargo.toml -- \
        --workload "$1" --seed 1 --seconds "$2" --trace 0)
    echo "$out" | tail -n 1
    echo "$out" | tail -n 1 | grep -q '"correct": true'
}
# Each cold_report set-up runs a whole round (~35 ms) and a run spreads
# 127 repeat set-ups over its budget, so a 5-s run leaves little room
# for ops between them; a 10-s run fits ~60.
bench_smoke cold_report 10
bench_smoke edit_session 5
# serve_store re-binds its server and re-posts its read set 128 times per
# run (~0.15 s each), so it needs ~30 s to leave room for whole cycles.
bench_smoke serve_store 30
cargo clippy --workspace -- -D warnings -W clippy::unwrap_used
