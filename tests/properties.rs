//! Property-based tests on the core invariants, across crates.

use proptest::prelude::*;
use slif::core::gen::DesignGenerator;
use slif::core::{AccessKind, AccessTarget, Design, FreqMode, NodeId, Partition, PmRef};
use slif::estimate::{
    io_pins, size, BitrateEstimator, EstimatorConfig, ExecTimeEstimator, IncrementalEstimator,
};
use slif::formats::{read_bytes, write_bytes, Encoding, FormatLimits, Strictness};

/// A deliberately naive, non-memoized transcription of the paper's
/// Equation 1, used as an oracle against the production estimator.
///
/// `Exectime(b) = GetBvIct(b, p) + Σ_c freq × (TransferTime(c, p) + Exectime(c.dst))`
/// with the default policies: message destinations contribute transfer
/// time only, variables contribute their access-time ict.
fn naive_exec_time(design: &Design, part: &Partition, n: NodeId) -> f64 {
    let comp = part.node_component(n).expect("complete partition");
    let class = design.component_class(comp);
    let ict = design.graph().node(n).ict().get(class).expect("weight") as f64;
    if design.graph().node(n).kind().is_variable() {
        return ict;
    }
    let mut comm = 0.0;
    for c in design.graph().channels_of(n) {
        let ch = design.graph().channel(c);
        let freq = ch.freq().avg;
        if freq == 0.0 {
            continue;
        }
        let bus = design.bus(part.channel_bus(c).expect("mapped"));
        let (same, dst_time) = match ch.dst() {
            AccessTarget::Port(_) => (false, 0.0),
            AccessTarget::Node(dst) => {
                let dst_comp = part.node_component(dst).expect("complete");
                let t = if ch.kind() == AccessKind::Message {
                    0.0
                } else {
                    naive_exec_time(design, part, dst)
                };
                (dst_comp == comp, t)
            }
        };
        comm += freq * (bus.access_time(ch.bits(), same) as f64 + dst_time);
    }
    ict + comm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generated designs always produce proper partitions and acyclic
    /// call structures.
    #[test]
    fn generated_designs_are_valid(seed in 0u64..5000) {
        let (design, part) = DesignGenerator::new(seed).build();
        prop_assert!(part.validate(&design).is_ok());
        prop_assert!(design.graph().find_recursion().is_none());
    }

    /// The `.slif` text format round-trips any generated design and
    /// partition exactly.
    #[test]
    fn text_roundtrip(seed in 0u64..5000) {
        let (design, part) = DesignGenerator::new(seed).build();
        let text = write_bytes(&design, Some(&part), Encoding::Text).unwrap();
        let read = read_bytes(&text, Strictness::Strict, &FormatLimits::default()).unwrap();
        prop_assert!(read.verified);
        prop_assert_eq!(&design, &read.design);
        prop_assert_eq!(Some(part), read.partition);
    }

    /// min ≤ avg ≤ max execution times for every node.
    #[test]
    fn exec_time_modes_are_ordered(seed in 0u64..5000) {
        let (design, part) = DesignGenerator::new(seed).build();
        for n in design.graph().node_ids() {
            let t = |mode: FreqMode| {
                ExecTimeEstimator::with_config(
                    &design,
                    &part,
                    EstimatorConfig::default().with_mode(mode),
                )
                .exec_time(n)
                .unwrap()
            };
            let (lo, avg, hi) = (t(FreqMode::Min), t(FreqMode::Average), t(FreqMode::Max));
            prop_assert!(lo <= avg + 1e-6, "node {n}: {lo} > {avg}");
            prop_assert!(avg <= hi + 1e-6, "node {n}: {avg} > {hi}");
        }
    }

    /// Concurrency-aware communication time never exceeds sequential.
    #[test]
    fn concurrency_extension_is_a_lower_bound(seed in 0u64..5000) {
        let (design, part) = DesignGenerator::new(seed).build();
        for n in design.graph().behavior_ids() {
            let seq = ExecTimeEstimator::new(&design, &part).exec_time(n).unwrap();
            let conc = ExecTimeEstimator::with_config(
                &design,
                &part,
                EstimatorConfig::default().with_concurrency_aware(true),
            )
            .exec_time(n)
            .unwrap();
            prop_assert!(conc <= seq + 1e-6);
        }
    }

    /// Equation 3 is exactly the sum of Equation 2 over the bus's channels.
    #[test]
    fn bus_bitrate_is_channel_sum(seed in 0u64..5000) {
        let (design, part) = DesignGenerator::new(seed).build();
        for bus in design.bus_ids() {
            let mut est = BitrateEstimator::new(&design, &part);
            let total = est.bus_bitrate(bus).unwrap();
            let mut sum = 0.0;
            for c in part.channels_on(bus) {
                sum += est.channel_bitrate(c).unwrap();
            }
            prop_assert!((total - sum).abs() <= 1e-9 * total.abs().max(1.0));
        }
    }

    /// Component sizes sum to the whole design's weight total: every node
    /// contributes its weight to exactly one component.
    #[test]
    fn sizes_partition_the_total(seed in 0u64..5000) {
        let (design, part) = DesignGenerator::new(seed).build();
        let total: u64 = design.pm_refs().map(|pm| size(&design, &part, pm).unwrap()).sum();
        let expected: u64 = design
            .graph()
            .node_ids()
            .map(|n| {
                let pm = part.node_component(n).unwrap();
                let class = design.component_class(pm);
                design.graph().node(n).size().get(class).unwrap()
            })
            .sum();
        prop_assert_eq!(total, expected);
    }

    /// Incremental estimation agrees with full recomputation after an
    /// arbitrary sequence of moves.
    #[test]
    fn incremental_matches_full(seed in 0u64..2000, moves in 1usize..12) {
        let (design, part) = DesignGenerator::new(seed).build();
        let mut inc = IncrementalEstimator::new(&design, part).unwrap();
        let procs: Vec<_> = design.processor_ids().collect();
        let n_nodes = design.graph().node_count();
        for k in 0..moves {
            let n = NodeId::from_raw(((seed as usize + k * 7) % n_nodes) as u32);
            let target: PmRef = procs[(k + seed as usize) % procs.len()].into();
            inc.move_node(n, target).unwrap();
        }
        let fresh_part = inc.partition().clone();
        let mut fresh = ExecTimeEstimator::new(&design, &fresh_part);
        for n in design.graph().node_ids() {
            let a = inc.exec_time(n).unwrap();
            let b = fresh.exec_time(n).unwrap();
            prop_assert!((a - b).abs() < 1e-9, "node {}: {} vs {}", n, a, b);
        }
        for pm in design.pm_refs() {
            prop_assert_eq!(inc.size(pm), size(&design, &fresh_part, pm).unwrap());
        }
        for p in design.processor_ids() {
            prop_assert_eq!(inc.pins(p).unwrap(), io_pins(&design, &fresh_part, p).unwrap());
        }
    }

    /// The memoized estimator computes exactly the paper's Equation 1:
    /// it agrees with a naive exponential-time transcription on every
    /// node of every generated design.
    #[test]
    fn estimator_matches_naive_equation1_oracle(seed in 0u64..2000) {
        let (design, part) = DesignGenerator::new(seed)
            .behaviors(8) // keep the exponential oracle tractable
            .variables(8)
            .build();
        let mut est = ExecTimeEstimator::new(&design, &part);
        for n in design.graph().node_ids() {
            let fast = est.exec_time(n).unwrap();
            let slow = naive_exec_time(&design, &part, n);
            prop_assert!(
                (fast - slow).abs() <= 1e-9 * slow.abs().max(1.0),
                "node {}: {} vs oracle {}",
                n, fast, slow
            );
        }
    }

    /// Raising a channel's frequency or width never decreases its source's
    /// execution time (estimator monotonicity).
    #[test]
    fn exec_time_is_monotone_in_traffic(seed in 0u64..2000) {
        let (mut design, part) = DesignGenerator::new(seed).build();
        let Some(c) = design.graph().channel_ids().next() else {
            return Ok(());
        };
        let src = design.graph().channel(c).src();
        let before = ExecTimeEstimator::new(&design, &part).exec_time(src).unwrap();
        {
            let ch = design.graph_mut().channel_mut(c);
            let f = ch.freq();
            *ch.freq_mut() = slif::core::AccessFreq::new(f.avg * 2.0 + 1.0, f.min, f.max * 2 + 1);
            ch.set_bits(ch.bits() * 2);
        }
        let after = ExecTimeEstimator::new(&design, &part).exec_time(src).unwrap();
        prop_assert!(after >= before);
    }

    /// Cut channels are symmetric: a channel crossing p's boundary appears
    /// in the cut of the component on its other end too (when that end is
    /// a processor).
    #[test]
    fn cut_channels_are_symmetric(seed in 0u64..2000) {
        let (design, part) = DesignGenerator::new(seed).processors(3).build();
        for p in design.processor_ids() {
            for c in part.cut_channels(&design, p) {
                let ch = design.graph().channel(c);
                let src_comp = part.node_component(ch.src()).unwrap();
                let dst_comp = match ch.dst() {
                    AccessTarget::Node(n) => part.node_component(n),
                    AccessTarget::Port(_) => None,
                };
                // The channel's endpoints are on different components (or a
                // port), one of which is p.
                let on_p = |pm: PmRef| pm == PmRef::Processor(p);
                prop_assert!(on_p(src_comp) || dst_comp.map(on_p).unwrap_or(false));
                if let Some(dc) = dst_comp {
                    prop_assert_ne!(src_comp, dc);
                    if let (PmRef::Processor(q), false) = (dc, on_p(dc)) {
                        let other_cut: Vec<_> = part.cut_channels(&design, q).collect();
                        prop_assert!(other_cut.contains(&c));
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Inlining any non-recursive procedure is sound: one node disappears,
    /// the result validates under a rebuilt mapping, and (on a single
    /// component) process execution times never increase — removing call
    /// transfers can only help.
    #[test]
    fn inlining_is_sound_on_random_designs(seed in 0u64..3000) {
        let (design, _) = DesignGenerator::new(seed)
            .behaviors(10)
            .variables(8)
            .processors(1)
            .memories(0)
            .buses(1)
            .build();
        let g = design.graph();
        // Pick the first procedure with at least one caller.
        let Some(proc_node) = g.node_ids().find(|&n| {
            let k = g.node(n).kind();
            k.is_behavior() && !k.is_process() && g.accessors_of(n).next().is_some()
        }) else {
            return Ok(()); // nothing inlinable in this design
        };

        let single_component_partition = |d: &slif::core::Design| {
            let cpu = d.processor_ids().next().unwrap();
            let bus = d.bus_ids().next().unwrap();
            let mut p = Partition::new(d);
            for n in d.graph().node_ids() {
                p.assign_node(n, PmRef::Processor(cpu));
            }
            for c in d.graph().channel_ids() {
                p.assign_channel(c, bus);
            }
            p
        };

        let before_part = single_component_partition(&design);
        let mut before_est = ExecTimeEstimator::new(&design, &before_part);
        let before_times: Vec<(String, f64)> = design
            .graph()
            .node_ids()
            .filter(|&n| design.graph().node(n).kind().is_process())
            .map(|n| {
                (
                    design.graph().node(n).name().to_owned(),
                    before_est.exec_time(n).unwrap(),
                )
            })
            .collect();

        let result = slif::explore::inline_procedure(&design, proc_node).unwrap();
        let out = &result.design;
        prop_assert_eq!(out.graph().node_count(), design.graph().node_count() - 1);
        let after_part = single_component_partition(out);
        after_part.validate(out).unwrap();
        let mut after_est = ExecTimeEstimator::new(out, &after_part);
        for (name, t_before) in before_times {
            let n = out.graph().node_by_name(&name).unwrap();
            let t_after = after_est.exec_time(n).unwrap();
            // Folded ict weights are rounded to whole nanoseconds and the
            // rounding amplifies through caller frequencies, so allow a
            // 1 % envelope — real soundness bugs (like folding message
            // traffic) blow past it by orders of magnitude.
            prop_assert!(
                t_after <= t_before * 1.01 + 1.0,
                "seed {}: {} got slower: {} -> {}",
                seed, name, t_before, t_after
            );
        }
    }
}
