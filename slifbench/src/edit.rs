//! `edit_session`: interactive designers.
//!
//! Set-up opens one `EditSession` per seeded document. One op is one
//! burst on every document in turn: a fixed seeded script of edits
//! weighted like typing. Most change a loop bound (annotations only, the
//! Patched tier), one swaps a variable read (a channel changes:
//! Recompiled), and one deletes a `;` (Deferred) and puts it back
//! (recovery: a full reparse, then Patched). Every edit is undone within
//! the burst, so each document returns to its starting text and the run
//! stays stationary.

use crate::gen::{generate, Family, Rng};
use crate::trace::Recorder;
use crate::{Counts, Workload};
use slif_analyze::AnalysisReport;
use slif_estimate::DesignReport;
use slif_session::{EditDelta, EditSession, RecomputeTier, SessionConfig};
use slif_speclang::ReparseScope;

/// The documents, about 800 design nodes each, so that a burst over all
/// three stays short enough for a run to hold over a hundred. (Message-
/// passing is left out: there a Recompiled edit costs ~20x more at 600
/// nodes.)
const DOCS: [(Family, usize); 3] = [
    (Family::ProcessHeavy, 800),
    (Family::CallChain, 803),
    (Family::WideFanOut, 798),
];

/// Loop-bound edits per document per burst, each followed by its undo.
/// Enough that these Patched edits carry most of a burst's time, ahead
/// of the one Recompiled pair and the one break-then-fix pair.
const BODY_EDITS: usize = 6;

struct Step {
    delta: EditDelta,
    expect: RecomputeTier,
    /// The span the edit is traced under.
    span: &'static str,
}

struct Doc {
    family: Family,
    text: String,
    nodes: usize,
    script: Vec<Step>,
    /// The session the bursts edit, opened by the first set-up.
    session: Option<EditSession>,
    /// The first set-up's reports: a cold open of the document's text.
    estimate: Option<DesignReport>,
    analysis: Option<AnalysisReport>,
}

/// One applied edit: the tier taken, estimator nodes invalidated, and
/// whether only a region was reparsed.
pub type EditOut = Result<(RecomputeTier, usize, bool), String>;

pub struct Edit {
    docs: Vec<Doc>,
    config: SessionConfig,
}

/// The count name of a tier, and the span name of an edit that takes it
/// (but for a recovery, traced as `session.recover`).
fn span(tier: RecomputeTier) -> &'static str {
    match tier {
        RecomputeTier::Patched => "session.patched",
        RecomputeTier::Recompiled => "session.recompiled",
        RecomputeTier::Deferred => "session.deferred",
    }
}

/// An edit of `text[start..end]` to `new`, then its undo.
fn pair(text: &str, start: usize, end: usize, new: &str, expect: [RecomputeTier; 2]) -> [Step; 2] {
    let old = &text[start..end];
    [
        Step {
            delta: EditDelta::new(start, end, new),
            expect: expect[0],
            span: span(expect[0]),
        },
        Step {
            delta: EditDelta::new(start, start + new.len(), old),
            expect: expect[1],
            span: span(expect[1]),
        },
    ]
}

fn script(text: &str, sites: &crate::gen::Sites, rng: &mut Rng) -> Vec<Step> {
    use RecomputeTier::{Deferred, Patched, Recompiled};
    let mut pairs: Vec<[Step; 2]> = Vec::new();
    let mut bounds = sites.loop_bounds.clone();
    for _ in 0..BODY_EDITS {
        let (s, e) = bounds.swap_remove(rng.below(bounds.len()));
        let bound: usize = text[s..e]
            .parse()
            .expect("generated loop bounds are digits");
        let new = (bound + rng.range(1, 3)).to_string();
        pairs.push(pair(text, s, e, &new, [Patched, Patched]));
    }
    let (s, e, spare) = &sites.var_reads[rng.below(sites.var_reads.len())];
    pairs.push(pair(text, *s, *e, spare, [Recompiled, Recompiled]));
    let semi = sites.wait_semis[rng.below(sites.wait_semis.len())];
    let mut broken = pair(text, semi, semi + 1, "", [Deferred, Patched]);
    broken[1].span = "session.recover";
    pairs.push(broken);
    // A seeded order of the pairs.
    for i in (1..pairs.len()).rev() {
        pairs.swap(i, rng.below(i + 1));
    }
    pairs.into_iter().flatten().collect()
}

impl Workload for Edit {
    /// Per document, each edit's outcome.
    type Output = Vec<Vec<EditOut>>;

    fn prepare(seed: u64) -> Result<Self, String> {
        let mut rng = Rng::new(seed);
        let mut docs = Vec::new();
        for (i, (family, scale)) in DOCS.into_iter().enumerate() {
            let g = generate(family, scale, &mut rng.fork(i as u64), family.name());
            docs.push(Doc {
                family,
                script: script(&g.text, &g.sites, &mut rng),
                text: g.text,
                nodes: g.nodes,
                session: None,
                estimate: None,
                analysis: None,
            });
        }
        Ok(Self {
            docs,
            config: SessionConfig::default(),
        })
    }

    /// Opens every document.
    fn setup(&mut self, rec: &mut Recorder) -> Result<(), String> {
        for doc in &mut self.docs {
            let (session, update) = rec.span("session.open", || {
                EditSession::open(doc.text.as_str(), self.config.clone())
            });
            let name = doc.family.name();
            if doc.session.is_some() {
                if update.estimate != doc.estimate || update.analysis != doc.analysis {
                    return Err(format!("{name}: a cold open differs from the first"));
                }
                continue;
            }
            if !update.clean || update.estimate.is_none() || update.analysis.is_none() {
                return Err(format!("{name}: document does not open clean"));
            }
            let nodes = session.design().map_or(0, |d| d.graph().node_count());
            if nodes != doc.nodes {
                return Err(format!("{name}: {nodes} nodes, expected {}", doc.nodes));
            }
            doc.session = Some(session);
            doc.estimate = update.estimate;
            doc.analysis = update.analysis;
        }
        Ok(())
    }

    fn cycle(&self) -> u64 {
        1
    }

    fn op(&mut self, _k: u64, rec: &mut Recorder) -> Self::Output {
        let mut out = Vec::with_capacity(self.docs.len());
        for doc in &mut self.docs {
            let session = doc.session.as_mut().expect("set-up opened every document");
            let mut edits = Vec::with_capacity(doc.script.len());
            for step in &doc.script {
                let open = rec.open();
                let r = session.apply_edit(&step.delta).map(|u| {
                    let region = matches!(u.scope, ReparseScope::Region { .. });
                    (u.tier, u.dirty_nodes, region)
                });
                rec.close(open, step.span);
                edits.push(r.map_err(|e| e.to_string()));
            }
            out.push(edits);
        }
        out
    }

    fn check(
        &mut self,
        _k: u64,
        out: Self::Output,
        counts: Option<&mut Counts>,
    ) -> Result<(), String> {
        let mut tally = Counts::new();
        for (doc, edits) in self.docs.iter().zip(out) {
            let name = doc.family.name();
            for (i, (step, r)) in doc.script.iter().zip(edits).enumerate() {
                let (tier, dirty, region) = r.map_err(|e| format!("{name} edit {i}: {e}"))?;
                if tier != step.expect {
                    return Err(format!(
                        "{name} edit {i}: tier {tier:?}, scripted {:?}",
                        step.expect
                    ));
                }
                *tally.entry(span(tier)).or_default() += 1;
                *tally.entry("session.dirty_nodes").or_default() += dirty as u64;
                *tally.entry("session.region_reparses").or_default() += u64::from(region);
            }
            let session = doc.session.as_ref().expect("set-up opened every document");
            if session.source() != doc.text {
                return Err(format!("{name}: burst did not return the text"));
            }
            if session.estimate() != doc.estimate.as_ref() {
                return Err(format!("{name}: estimate differs from a cold open"));
            }
            if session.analysis() != doc.analysis.as_ref() {
                return Err(format!("{name}: analysis differs from a cold open"));
            }
        }
        if let Some(c) = counts {
            c.extend(tally);
        }
        Ok(())
    }

    fn covered(&self) -> bool {
        true
    }
}
