//! `A001 shared-variable-race` and `A010 unproven-interleaving`:
//! concurrent unserialized accesses, split by provability.
//!
//! A variable is *raced* when two distinct processes can each reach a
//! channel accessing it, at least one of those channels writes, the
//! channels' concurrency tags allow the accesses to overlap in time, and
//! the partition does not serialize the two processes onto the same
//! component. The paper's estimation model (Section 3) sums access
//! contributions as if each is well-ordered; a race makes both the spec's
//! meaning and the estimate unreliable.
//!
//! The happens-before refinement splits that topological criterion by
//! observed execution: a race is *proven* (stays `A001`, deny) only when
//! both accesses sit on call/access paths whose every channel has a
//! positive observed access frequency — some execution actually drives
//! both sides. An interleaving that exists in the graph but crosses a
//! channel with zero observed frequency is real enough to mention but
//! not proven; it reports as `A010` (warn) instead. The two lints
//! partition the old `A001` finding set: refinement strictly reduces
//! deny-level findings without losing a single true positive.
//!
//! Reachability is computed as one bitset per behavior (which processes
//! can reach it through call/message edges), so each pass is
//! `O(P·E + C²)` per variable-incident channel pair, with `P` processes
//! and `E` behavior edges.

use crate::analyzer::{Ctx, Sink};
use crate::lint::LintId;
use slif_core::{AccessKind, AccessTarget, ConcurrencyTag, NodeId, Partition};

/// The race pass: proven races go to `a001`, unproven interleavings to
/// `a010`, from one walk over one pair of reachability matrices.
pub(crate) fn run(ctx: &Ctx<'_>, a001: &mut Sink<'_>, a010: &mut Sink<'_>) {
    let cd = ctx.cd;
    let procs = cd.process_nodes();
    if procs.len() < 2 {
        // A single process cannot race with itself: its accesses are
        // ordered by its own control flow.
        return;
    }
    let words = procs.len().div_ceil(64);
    let reach_any = process_reachability(cd, procs, words, false);
    let reach_live = process_reachability(cd, procs, words, true);

    for v in cd.node_ids() {
        if !cd.node_kind(v).is_variable() {
            continue;
        }
        let incoming = cd.accessors_of(v);
        // Keys are (process, process) index pairs; one finding per
        // (variable, pair). Proven keys are collected in full before
        // unproven candidates are emitted, so a pair proven through any
        // channel pair never double-reports as A010.
        let mut proven_keys: Vec<(usize, usize)> = Vec::new();
        let mut unproven: Vec<((usize, usize), slif_core::ChannelId, slif_core::ChannelId)> =
            Vec::new();
        for (i, &c1) in incoming.iter().enumerate() {
            for &c2 in &incoming[i..] {
                let k1 = cd.chan_kind(c1);
                let k2 = cd.chan_kind(c2);
                if k1 != AccessKind::Write && k2 != AccessKind::Write {
                    continue; // two readers never race
                }
                if c1 == c2 && k1 != AccessKind::Write {
                    continue; // a channel only races itself when it writes
                }
                if !tags_overlap(cd.chan_tag(c1), cd.chan_tag(c2)) {
                    continue;
                }
                let s1 = cd.chan_src(c1);
                let s2 = cd.chan_src(c2);
                if s1.index() >= cd.node_count() || s2.index() >= cd.node_count() {
                    continue; // dangling source: the validator's finding
                }
                let any1 = &reach_any[s1.index() * words..(s1.index() + 1) * words];
                let any2 = &reach_any[s2.index() * words..(s2.index() + 1) * words];
                let Some((pa, pb)) = racing_pair(any1, any2, procs, ctx.partition) else {
                    continue;
                };
                // Proven: the accesses themselves were observed executing
                // and both sides are reachable through observed channels.
                let live_access = cd.chan_freq(c1).max > 0 && cd.chan_freq(c2).max > 0;
                let proven_pair = if live_access {
                    let live1 = &reach_live[s1.index() * words..(s1.index() + 1) * words];
                    let live2 = &reach_live[s2.index() * words..(s2.index() + 1) * words];
                    racing_pair(live1, live2, procs, ctx.partition)
                } else {
                    None
                };
                match proven_pair {
                    Some((qa, qb)) => {
                        let key = (qa.min(qb), qa.max(qb));
                        if proven_keys.contains(&key) {
                            continue;
                        }
                        proven_keys.push(key);
                        a001.emit(
                            LintId::SharedVariableRace,
                            Some(v),
                            Some(c1),
                            format!(
                                "variable {v} ({}) can be accessed concurrently with a write: \
                                 processes {} ({}) and {} ({}) reach channels {c1} and {c2} \
                                 with overlapping concurrency, and the partition does not \
                                 serialize them",
                                cd.node_name(v),
                                procs[key.0],
                                cd.node_name(procs[key.0]),
                                procs[key.1],
                                cd.node_name(procs[key.1]),
                            ),
                        );
                    }
                    None => {
                        let key = (pa.min(pb), pa.max(pb));
                        if !unproven.iter().any(|(k, ..)| *k == key) {
                            unproven.push((key, c1, c2));
                        }
                    }
                }
            }
        }
        for (key, c1, c2) in unproven {
            if proven_keys.contains(&key) {
                continue; // already a deny-level A001 for this pair
            }
            a010.emit(
                LintId::UnprovenInterleaving,
                Some(v),
                Some(c1),
                format!(
                    "variable {v} ({}) may interleave with a write: processes \
                     {} ({}) and {} ({}) reach channels {c1} and {c2} with \
                     overlapping concurrency, but no observed execution proves \
                     the interleaving (a reaching channel has zero access \
                     frequency)",
                    cd.node_name(v),
                    procs[key.0],
                    cd.node_name(procs[key.0]),
                    procs[key.1],
                    cd.node_name(procs[key.1]),
                ),
            );
        }
    }
}

/// One bitset per node: which process indices can reach this behavior
/// through behavior→behavior edges (a process reaches itself). With
/// `live_only`, only channels with a positive observed access frequency
/// are followed — the happens-before half of the `A001`/`A010` split.
fn process_reachability(
    cd: &slif_core::CompiledDesign,
    procs: &[NodeId],
    words: usize,
    live_only: bool,
) -> Vec<u64> {
    let mut reach = vec![0u64; cd.node_count() * words];
    let mut stack: Vec<NodeId> = Vec::new();
    for (pi, &p) in procs.iter().enumerate() {
        if p.index() >= cd.node_count() {
            continue;
        }
        let (w, bit) = (pi / 64, 1u64 << (pi % 64));
        stack.push(p);
        while let Some(n) = stack.pop() {
            let slot = n.index() * words + w;
            if reach[slot] & bit != 0 {
                continue;
            }
            reach[slot] |= bit;
            for &c in cd.channels_of(n) {
                if live_only && cd.chan_freq(c).max == 0 {
                    continue;
                }
                if let AccessTarget::Node(d) = cd.chan_dst(c) {
                    if d.index() < cd.node_count() && cd.node_kind(d).is_behavior() {
                        stack.push(d);
                    }
                }
            }
        }
    }
    reach
}

/// Two accesses can overlap in time unless *both* carry concurrency tags
/// of different groups: a tagged pair in distinct groups is scheduled
/// apart by construction, everything else (untagged, or same group) may
/// interleave.
fn tags_overlap(a: ConcurrencyTag, b: ConcurrencyTag) -> bool {
    !a.is_concurrent() || !b.is_concurrent() || a == b
}

/// Finds a pair of *distinct* processes, one reaching each channel
/// source, that the partition does not serialize onto one component.
fn racing_pair(
    r1: &[u64],
    r2: &[u64],
    procs: &[NodeId],
    partition: Option<&Partition>,
) -> Option<(usize, usize)> {
    for pa in iter_bits(r1) {
        for pb in iter_bits(r2) {
            if pa == pb {
                continue;
            }
            if serialized(procs[pa], procs[pb], partition) {
                continue;
            }
            return Some((pa, pb));
        }
    }
    None
}

/// Two processes mapped onto the same component execute sequentially
/// there; that serializes their accesses. Unmapped processes (or no
/// partition at all) are conservatively treated as parallel.
fn serialized(a: NodeId, b: NodeId, partition: Option<&Partition>) -> bool {
    let Some(p) = partition else {
        return false;
    };
    match (p.node_component(a), p.node_component(b)) {
        (Some(x), Some(y)) => x == y,
        _ => false,
    }
}

fn iter_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        (0..64).filter(move |b| w & (1u64 << b) != 0).map(move |b| wi * 64 + b)
    })
}

#[cfg(test)]
mod tests {
    use crate::lint::{AnalysisConfig, LintId};
    use crate::{analyze, LintLevel};
    use slif_core::{
        AccessKind, Bus, ClassKind, ConcurrencyTag, Design, NodeKind, Partition,
    };

    /// Two processes both writing one shared variable, no tags, no
    /// serializing partition.
    fn racy_fixture() -> (Design, Partition) {
        let mut d = Design::new("racy");
        let pc = d.add_class("proc", ClassKind::StdProcessor);
        let a = d.graph_mut().add_node("A", NodeKind::process());
        let b = d.graph_mut().add_node("B", NodeKind::process());
        let v = d.graph_mut().add_node("v", NodeKind::scalar(8));
        d.graph_mut()
            .add_channel(a, v.into(), AccessKind::Write)
            .expect("fixture channel");
        d.graph_mut()
            .add_channel(b, v.into(), AccessKind::Write)
            .expect("fixture channel");
        for n in [a, b] {
            d.graph_mut().node_mut(n).ict_mut().set(pc, 10);
            d.graph_mut().node_mut(n).size_mut().set(pc, 100);
        }
        d.graph_mut().node_mut(v).ict_mut().set(pc, 1);
        d.graph_mut().node_mut(v).size_mut().set(pc, 1);
        let cpu0 = d.add_processor("cpu0", pc);
        let cpu1 = d.add_processor("cpu1", pc);
        let bus = d.add_bus(Bus::new("b", 8, 1, 2));
        let mut p = Partition::new(&d);
        p.assign_node(a, cpu0.into());
        p.assign_node(b, cpu1.into());
        p.assign_node(v, cpu0.into());
        for c in d.graph().channel_ids() {
            p.assign_channel(c, bus);
        }
        (d, p)
    }

    #[test]
    fn two_writers_on_distinct_cpus_race() {
        let (d, p) = racy_fixture();
        let report = analyze(&d, Some(&p), &AnalysisConfig::new());
        let races: Vec<_> = report.of(LintId::SharedVariableRace).collect();
        assert_eq!(races.len(), 1, "{report}");
        assert_eq!(races[0].level, LintLevel::Deny);
        assert!(races[0].message.contains("(v)"), "{}", races[0].message);
        assert!(report.has_denials());
    }

    #[test]
    fn write_read_pair_races_too() {
        let mut d = Design::new("wr");
        let pc = d.add_class("proc", ClassKind::StdProcessor);
        let a = d.graph_mut().add_node("A", NodeKind::process());
        let b = d.graph_mut().add_node("B", NodeKind::process());
        let v = d.graph_mut().add_node("v", NodeKind::scalar(8));
        d.graph_mut()
            .add_channel(a, v.into(), AccessKind::Write)
            .expect("fixture channel");
        d.graph_mut()
            .add_channel(b, v.into(), AccessKind::Read)
            .expect("fixture channel");
        let cpu0 = d.add_processor("cpu0", pc);
        let cpu1 = d.add_processor("cpu1", pc);
        let mut p = Partition::new(&d);
        p.assign_node(a, cpu0.into());
        p.assign_node(b, cpu1.into());
        p.assign_node(v, cpu0.into());
        let report = analyze(&d, Some(&p), &AnalysisConfig::new());
        assert_eq!(report.of(LintId::SharedVariableRace).count(), 1, "{report}");
    }

    #[test]
    fn same_component_serializes() {
        let (d, mut p) = racy_fixture();
        // Move both processes onto cpu0: time-sharing serializes them.
        let b = d.graph().node_by_name("B").expect("B exists");
        let cpu0 = d.processor_ids().next().expect("cpu0 exists").into();
        p.assign_node(b, cpu0);
        let report = analyze(&d, Some(&p), &AnalysisConfig::new());
        assert_eq!(report.of(LintId::SharedVariableRace).count(), 0, "{report}");
    }

    #[test]
    fn no_partition_is_conservatively_racy() {
        let (d, _) = racy_fixture();
        let report = analyze(&d, None, &AnalysisConfig::new());
        assert_eq!(report.of(LintId::SharedVariableRace).count(), 1, "{report}");
    }

    #[test]
    fn distinct_concurrency_groups_do_not_overlap() {
        let (mut d, p) = racy_fixture();
        let cs: Vec<_> = d.graph().channel_ids().collect();
        d.graph_mut()
            .channel_mut(cs[0])
            .set_tag(ConcurrencyTag::group(1));
        d.graph_mut()
            .channel_mut(cs[1])
            .set_tag(ConcurrencyTag::group(2));
        let report = analyze(&d, Some(&p), &AnalysisConfig::new());
        assert_eq!(report.of(LintId::SharedVariableRace).count(), 0, "{report}");
        // Same group overlaps again.
        d.graph_mut()
            .channel_mut(cs[1])
            .set_tag(ConcurrencyTag::group(1));
        let report = analyze(&d, Some(&p), &AnalysisConfig::new());
        assert_eq!(report.of(LintId::SharedVariableRace).count(), 1, "{report}");
    }

    #[test]
    fn two_readers_never_race() {
        let mut d = Design::new("rr");
        let pc = d.add_class("proc", ClassKind::StdProcessor);
        let a = d.graph_mut().add_node("A", NodeKind::process());
        let b = d.graph_mut().add_node("B", NodeKind::process());
        let v = d.graph_mut().add_node("v", NodeKind::scalar(8));
        d.graph_mut()
            .add_channel(a, v.into(), AccessKind::Read)
            .expect("fixture channel");
        d.graph_mut()
            .add_channel(b, v.into(), AccessKind::Read)
            .expect("fixture channel");
        let _ = pc;
        let report = analyze(&d, None, &AnalysisConfig::new());
        assert_eq!(report.of(LintId::SharedVariableRace).count(), 0, "{report}");
    }

    #[test]
    fn race_through_called_procedure_is_found() {
        // A -> helper -> write v; B -> write v. The write reached through
        // the call chain still races with B's direct write.
        let mut d = Design::new("indirect");
        let a = d.graph_mut().add_node("A", NodeKind::process());
        let b = d.graph_mut().add_node("B", NodeKind::process());
        let h = d.graph_mut().add_node("helper", NodeKind::procedure());
        let v = d.graph_mut().add_node("v", NodeKind::scalar(16));
        d.graph_mut()
            .add_channel(a, h.into(), AccessKind::Call)
            .expect("fixture channel");
        d.graph_mut()
            .add_channel(h, v.into(), AccessKind::Write)
            .expect("fixture channel");
        d.graph_mut()
            .add_channel(b, v.into(), AccessKind::Write)
            .expect("fixture channel");
        let report = analyze(&d, None, &AnalysisConfig::new());
        assert_eq!(report.of(LintId::SharedVariableRace).count(), 1, "{report}");
    }
}
