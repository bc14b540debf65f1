//! Session-level bit-identity: whatever path an edit takes through the
//! tiers, the session's design, estimate, and lint reports (flow lints
//! and spans included) must be `==` to a cold rebuild of the current
//! text.

use crate::{EditDelta, EditError, EditSession, RecomputeTier, SessionConfig};
use proptest::prelude::*;
use slif_analyze::{analyze_compiled_with_flow, AnalysisReport, LintId};
use slif_core::{CompiledDesign, Design};
use slif_estimate::DesignReport;
use slif_frontend::{all_software_partition, build_design, try_allocate_proc_asic};
use slif_speclang::{parse_partial_with_limits, resolve, FlowProgram, SourceMap};

const BASE: &str = concat!(
    "system Demo;\n",
    "port in1 : in int<8>;\n",
    "const K = 4;\n",
    "var shared : int<8>;\n",
    "func Helper(x : int<8>) -> int<8> {\n",
    "  return x + K;\n",
    "}\n",
    "process Main {\n",
    "  var t : int<8>;\n",
    "  t = Helper(in1);\n",
    "  shared = t;\n",
    "  wait 5;\n",
    "}\n",
    "process Aux {\n",
    "  shared = 0;\n",
    "  wait 9;\n",
    "}\n",
);

/// The from-scratch pipeline the session must be indistinguishable
/// from: parse, resolve, build (uncached), allocate, estimate, and the
/// full lint run — graph passes plus the flow passes over a freshly
/// lowered program, with spans.
fn cold(
    source: &str,
    config: &SessionConfig,
) -> Option<(Design, DesignReport, AnalysisReport)> {
    let (spec, diags) = parse_partial_with_limits(source, &config.parse_limits);
    if !diags.is_empty() {
        return None;
    }
    let rs = resolve(spec).ok()?;
    let mut design = build_design(&rs, &config.library);
    let arch = try_allocate_proc_asic(&mut design).ok()?;
    let partition = all_software_partition(&design, arch);
    let estimate = DesignReport::compute_with(&design, &partition, config.estimator).ok()?;
    let analysis = analyze_compiled_with_flow(
        &CompiledDesign::compile(&design),
        Some(&partition),
        &config.analysis,
        &FlowProgram::from_spec(rs.spec()),
        Some(&SourceMap::from_spec(rs.spec())),
    );
    Some((design, estimate, analysis))
}

/// Asserts the session's state matches a cold rebuild of its text.
fn assert_matches_cold(session: &EditSession, config: &SessionConfig, what: &str) {
    match cold(session.source(), config) {
        Some((design, estimate, analysis)) => {
            assert!(
                session.is_clean(),
                "{what}: cold pipeline succeeded but session is broken: {:?}",
                session.diagnostics()
            );
            assert_eq!(session.design(), Some(&design), "{what}: design diverged");
            assert_eq!(
                session.estimate(),
                Some(&estimate),
                "{what}: estimate diverged"
            );
            assert_eq!(
                session.analysis(),
                Some(&analysis),
                "{what}: analysis diverged"
            );
        }
        None => assert!(
            !session.is_clean(),
            "{what}: cold pipeline failed but session claims clean"
        ),
    }
}

#[test]
fn open_runs_the_full_pipeline() {
    let config = SessionConfig::default();
    let (session, update) = EditSession::open(BASE, config.clone());
    assert!(update.clean);
    assert_eq!(update.revision, 0);
    assert_eq!(update.tier, RecomputeTier::Recompiled);
    assert!(update.estimate.is_some());
    assert!(update.analysis.is_some());
    assert_matches_cold(&session, &config, "open");
}

#[test]
fn body_edit_takes_the_patch_tier() {
    let config = SessionConfig::default();
    let (mut session, _) = EditSession::open(BASE, config.clone());
    // `x + K` -> `x * K`: same accesses, different ict weight (a
    // multiply costs more cycles), so the topology holds but Helper's
    // annotation row — and every memo depending on it — goes dirty.
    let at = BASE.find("x + K").unwrap() + 2;
    let update = session.apply_edit(&EditDelta::new(at, at + 1, "*")).unwrap();
    assert!(update.clean);
    assert_eq!(update.revision, 1);
    assert_eq!(update.tier, RecomputeTier::Patched, "operator edit keeps topology");
    assert!(update.dirty_nodes >= 1, "the edited behavior must be dirty");
    assert!(
        matches!(update.scope, slif_speclang::ReparseScope::Region { .. }),
        "a body edit reparses one item, got {:?}",
        update.scope
    );
    assert_eq!(session.full_rebuilds(), 1, "only the open was cold");
    assert_matches_cold(&session, &config, "body edit");
}

#[test]
fn structural_edit_recompiles_cold() {
    let config = SessionConfig::default();
    let (mut session, _) = EditSession::open(BASE, config.clone());
    let update = session
        .apply_edit(&EditDelta::new(
            BASE.len(),
            BASE.len(),
            "process Extra {\n  shared = 1;\n  wait 3;\n}\n",
        ))
        .unwrap();
    assert!(update.clean);
    assert_eq!(update.tier, RecomputeTier::Recompiled, "new node changes topology");
    assert_eq!(session.full_rebuilds(), 2);
    assert_matches_cold(&session, &config, "structural edit");
}

#[test]
fn breaking_edit_defers_and_keeps_stale_reports() {
    let config = SessionConfig::default();
    let (mut session, open_update) = EditSession::open(BASE, config.clone());
    let at = BASE.find("process Main").unwrap();
    let update = session.apply_edit(&EditDelta::new(at, at, "{")).unwrap();
    assert!(!update.clean);
    assert_eq!(update.tier, RecomputeTier::Deferred);
    assert!(!update.diagnostics.is_empty());
    // The last good reports stay visible while the text is broken.
    assert_eq!(update.estimate, open_update.estimate);
    assert_eq!(update.analysis, open_update.analysis);

    // Fixing the text recovers without a cold estimator rebuild: the
    // repaired text is annotation-identical to the last good revision.
    let update = session.apply_edit(&EditDelta::new(at, at + 1, "")).unwrap();
    assert!(update.clean, "{:?}", update.diagnostics);
    assert_eq!(update.tier, RecomputeTier::Patched);
    assert_matches_cold(&session, &config, "after fix");
}

#[test]
fn resolve_errors_are_deferred_but_reparse_stays_incremental() {
    let config = SessionConfig::default();
    let (mut session, _) = EditSession::open(BASE, config.clone());
    // `shared = undefined_name;` parses fine but fails resolution.
    let at = BASE.find("shared = 0;").unwrap();
    let update = session
        .apply_edit(&EditDelta::new(at, at + "shared = 0;".len(), "shared = nosuch;"))
        .unwrap();
    assert!(!update.clean);
    assert_eq!(update.tier, RecomputeTier::Deferred);
    assert!(
        update.diagnostics.iter().any(|d| d.contains("nosuch")),
        "{:?}",
        update.diagnostics
    );
    // The parse itself was clean, so the next edit may use the
    // dirty-region path rather than a from-scratch parse.
    let fix = session
        .apply_edit(&EditDelta::new(at, at + "shared = nosuch;".len(), "shared = 0;"))
        .unwrap();
    assert!(fix.clean);
    assert!(
        matches!(fix.scope, slif_speclang::ReparseScope::Region { .. }),
        "got {:?}",
        fix.scope
    );
    assert_matches_cold(&session, &config, "after resolve fix");
}

#[test]
fn invalid_deltas_leave_the_session_untouched() {
    let (mut session, _) = EditSession::open(BASE, SessionConfig::default());
    let before_rev = session.revision();
    let err = session
        .apply_edit(&EditDelta::new(5, BASE.len() + 10, "x"))
        .unwrap_err();
    assert!(matches!(err, EditError::OutOfBounds { .. }));
    assert_eq!(session.revision(), before_rev);
    assert_eq!(session.source(), BASE);
    assert!(session.is_clean());
}

#[test]
fn open_on_broken_text_recovers_on_first_fix() {
    let config = SessionConfig::default();
    let broken = "system T;\nprocess Main { wait 5;\n"; // missing brace
    let (mut session, update) = EditSession::open(broken, config.clone());
    assert!(!update.clean);
    assert!(update.estimate.is_none(), "no good revision yet");
    let update = session
        .apply_edit(&EditDelta::new(broken.len(), broken.len(), "}\n"))
        .unwrap();
    assert!(update.clean, "{:?}", update.diagnostics);
    assert_eq!(update.tier, RecomputeTier::Recompiled);
    assert_matches_cold(&session, &config, "first clean revision");
}

#[test]
fn corpus_specs_open_and_edit_cleanly() {
    let config = SessionConfig::default();
    for entry in slif_speclang::corpus::all() {
        let (mut session, update) = EditSession::open(entry.source, config.clone());
        assert!(update.clean, "{}: {:?}", entry.name, update.diagnostics);
        assert_matches_cold(&session, &config, entry.name);
        // Append a comment: a no-op for every derived product.
        let end = session.source().len();
        let update = session
            .apply_edit(&EditDelta::new(end, end, "// trailing note\n"))
            .unwrap();
        assert!(update.clean);
        assert_eq!(update.tier, RecomputeTier::Patched, "{}", entry.name);
        assert_eq!(update.dirty_nodes, 0, "{}: comment dirtied nodes", entry.name);
        assert_matches_cold(&session, &config, entry.name);
    }
}

/// A tiny deterministic RNG (xorshift64*), mirroring the speclang
/// incremental suite so edit sequences are reproducible from a seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn random_edit_sequences_match_cold_rebuild(seed in 0u64..10_000) {
        let config = SessionConfig::default();
        let (mut session, _) = EditSession::open(BASE, config.clone());
        let mut rng = Rng(seed ^ 0x5e55_1011);
        // Inserts skew toward valid fragments so a useful share of the
        // walk is clean; the braces guarantee broken interludes.
        const INSERTS: &[&str] = &[
            "z",
            "\n",
            " ",
            "{",
            "}",
            "wait 3;\n",
            "shared = 1;\n",
            "var extra : int<8>;\n",
            "process P9 {\n  shared = 2;\n  wait 2;\n}\n",
            "// note\n",
        ];
        for step in 0..60 {
            let len = session.source().len();
            let delta = if rng.below(3) == 0 && len > 2 {
                // Delete a short range (ASCII fixture: every offset is a
                // char boundary).
                let start = rng.below(len - 1);
                let span = 1 + rng.below(3.min(len - start - 1).max(1));
                EditDelta::new(start, (start + span).min(len), "")
            } else {
                let at = rng.below(len + 1);
                EditDelta::new(at, at, INSERTS[rng.below(INSERTS.len())])
            };
            let update = session.apply_edit(&delta).expect("in-bounds ASCII edit");
            assert_eq!(update.revision, session.revision());
            assert_matches_cold(&session, &config, &format!("seed {seed} step {step}"));
        }
    }
}

/// One finding per flow lint: `A006` where `Main` stores a value that
/// reaches it through the `Src → Mid → Main` return-summary chain, and
/// `A007`, `A008` and `A009` in separate behaviors.
const FLOW: &str = concat!(
    "system Flow;\n",
    "var level : int<8>;\n",
    "var sink : int<8>;\n",
    "func Src() -> int<16> {\n",
    "  return 300;\n",
    "}\n",
    "func Mid() -> int<16> {\n",
    "  var m : int<16>;\n",
    "  m = Src();\n",
    "  return m;\n",
    "}\n",
    "proc Uninit() {\n",
    "  var u : int<8>;\n",
    "  sink = u;\n",
    "}\n",
    "proc Dead() {\n",
    "  var d : int<8>;\n",
    "  d = 1;\n",
    "  d = 2;\n",
    "  sink = d;\n",
    "}\n",
    "proc Const() {\n",
    "  if 1 > 2 {\n",
    "    sink = 1;\n",
    "  } else {\n",
    "    sink = 2;\n",
    "  }\n",
    "}\n",
    "process Main {\n",
    "  level = Mid();\n",
    "  call Uninit();\n",
    "  call Dead();\n",
    "  call Const();\n",
    "  wait 5;\n",
    "}\n",
);

#[test]
fn flow_fixture_fires_every_flow_lint() {
    let config = SessionConfig::default();
    let (session, update) = EditSession::open(FLOW, config.clone());
    assert!(update.clean, "{:?}", update.diagnostics);
    let report = session.analysis().expect("clean fixture has a report");
    for lint in [
        LintId::ValueRangeOverflow,
        LintId::UninitializedRead,
        LintId::DeadStore,
        LintId::ConstantCondition,
    ] {
        assert_eq!(report.of(lint).count(), 1, "{lint}\n{report}");
    }
    assert_matches_cold(&session, &config, "open");
}

/// The byte range of the literal `Src` returns.
fn src_return(text: &str) -> Option<(usize, usize)> {
    let body = text.find("func Src()")?;
    let start = body + text[body..].find("return ")? + "return ".len();
    let len = text[start..].find(';')?;
    Some((start, start + len))
}

/// A walk over the flow fixture: newlines inserted at line starts (which
/// move every finding below them), retargets of `Src`'s return value
/// (which move `A006` two callers away), inserted processes (a
/// recompile), and short deletions, each undone at once when it breaks
/// the text. Every clean revision must equal a cold run, spans included.
/// Returns how many edits took the Patched and the Recompiled tier.
fn flow_walk(seed: u64, steps: usize) -> (usize, usize) {
    let mut tiers = (0, 0);
    let config = SessionConfig::default();
    let (mut session, _) = EditSession::open(FLOW, config.clone());
    let mut rng = Rng(seed ^ 0xf10e_5eed);
    for step in 0..steps {
        let text = session.source().to_owned();
        let what = format!("seed {seed} step {step}");
        let delta = match rng.below(4) {
            0 => {
                let starts: Vec<usize> = std::iter::once(0)
                    .chain(text.match_indices('\n').map(|(i, _)| i + 1))
                    .filter(|&i| i < text.len())
                    .collect();
                let at = starts[rng.below(starts.len())];
                EditDelta::new(at, at, "\n")
            }
            1 => {
                let Some((start, end)) = src_return(&text) else {
                    continue;
                };
                let value = ["300", "30", "255", "256", "70000", "-200"][rng.below(6)];
                EditDelta::new(start, end, value)
            }
            2 => {
                let at = text.find("process Main").unwrap_or(text.len());
                EditDelta::new(
                    at,
                    at,
                    format!("process Extra{step} {{\n  sink = {step};\n  wait 2;\n}}\n"),
                )
            }
            _ => {
                let start = rng.below(text.len() - 1);
                let end = (start + 1 + rng.below(3)).min(text.len());
                EditDelta::new(start, end, "")
            }
        };
        let update = session.apply_edit(&delta).expect("in-bounds ASCII edit");
        assert_matches_cold(&session, &config, &what);
        match update.tier {
            RecomputeTier::Patched => tiers.0 += 1,
            RecomputeTier::Recompiled => tiers.1 += 1,
            RecomputeTier::Deferred => {}
        }
        if !update.clean {
            let undo = EditDelta::new(
                delta.start,
                delta.start + delta.text.len(),
                &text[delta.start..delta.end],
            );
            let update = session.apply_edit(&undo).expect("undo applies");
            assert!(update.clean, "{what}: undo left {:?}", update.diagnostics);
            assert_eq!(session.source(), text, "{what}: undo did not restore the text");
            assert_matches_cold(&session, &config, &format!("{what} (undo)"));
        }
    }
    tiers
}

#[test]
fn flow_findings_and_spans_track_every_edit() {
    let (mut patched, mut recompiled) = (0, 0);
    for seed in 0..8 {
        let (p, r) = flow_walk(seed, 40);
        patched += p;
        recompiled += r;
    }
    assert!(patched > 100 && recompiled > 40, "{patched} patched, {recompiled} recompiled");
}
