//! The previous, map-based block scheduler, kept as a test oracle for
//! `slif_cdfg::Scheduler`: both must produce the same start cycle per op,
//! the same latency and the same peak usage on every block.
//!
//! The functions below are the old `slif_cdfg::schedule` code with two
//! adaptations: results use [`OracleSchedule`] (the old `BlockSchedule`
//! layout), and the unit limit lives in [`limit`] because
//! `ResourceSet::limit` is private to `slif-cdfg`.

use crate::{AsicModel, ProcessorModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slif_cdfg::{
    fu_class, lower_spec, AluOp, BlockId, BlockSchedule, Cdfg, ExecCount, FuClass, OpId, OpKind,
    ResourceSet, Scheduler,
};
use std::collections::HashMap;

/// The old `BlockSchedule`.
#[derive(Debug, Clone, PartialEq)]
struct OracleSchedule {
    start: HashMap<OpId, u64>,
    latency: u64,
    peak_usage: HashMap<FuClass, u32>,
}

impl OracleSchedule {
    fn concurrent_groups(&self) -> Vec<Vec<OpId>> {
        let mut by_start: HashMap<u64, Vec<OpId>> = HashMap::new();
        for (&op, &s) in &self.start {
            by_start.entry(s).or_default().push(op);
        }
        let mut groups: Vec<Vec<OpId>> = by_start.into_values().filter(|g| g.len() > 1).collect();
        for g in &mut groups {
            g.sort();
        }
        groups.sort();
        groups
    }
}

fn limit(resources: &ResourceSet, class: FuClass) -> u32 {
    match class {
        FuClass::Alu => resources.alus,
        FuClass::Mul => resources.muls,
        FuClass::Div => resources.divs,
        FuClass::Mem => resources.mem_ports,
        FuClass::Other => u32::MAX,
    }
}

fn asap(g: &Cdfg, block: BlockId, delay_of: &dyn Fn(&OpKind) -> u64) -> OracleSchedule {
    let ops = &g.block(block).ops;
    let mut start: HashMap<OpId, u64> = HashMap::with_capacity(ops.len());
    let mut finish: HashMap<OpId, u64> = HashMap::with_capacity(ops.len());
    let mut latency = 0;
    for &op in ops {
        let node = g.op(op);
        let ready = node
            .inputs
            .iter()
            .filter_map(|i| finish.get(i).copied())
            .max()
            .unwrap_or(0);
        let d = delay_of(&node.kind);
        start.insert(op, ready);
        finish.insert(op, ready + d);
        latency = latency.max(ready + d);
    }
    let peak_usage = peak_usage(g, &start, &finish);
    OracleSchedule {
        start,
        latency,
        peak_usage,
    }
}

fn alap(
    g: &Cdfg,
    block: BlockId,
    delay_of: &dyn Fn(&OpKind) -> u64,
    target_latency: u64,
) -> HashMap<OpId, u64> {
    let ops = &g.block(block).ops;
    // Build successor lists restricted to this block.
    let mut latest_finish: HashMap<OpId, u64> = HashMap::with_capacity(ops.len());
    for &op in ops.iter().rev() {
        let node = g.op(op);
        let d = delay_of(&node.kind);
        // An op must finish before the earliest latest-start of its users.
        let bound = ops
            .iter()
            .filter(|&&user| g.op(user).inputs.contains(&op))
            .filter_map(|&user| {
                latest_finish
                    .get(&user)
                    .map(|&f| f - delay_of(&g.op(user).kind))
            })
            .min()
            .unwrap_or(target_latency);
        latest_finish.insert(op, bound);
        let _ = d;
    }
    ops.iter()
        .map(|&op| {
            let d = delay_of(&g.op(op).kind);
            let f = latest_finish[&op];
            (op, f.saturating_sub(d))
        })
        .collect()
}

fn list_schedule(
    g: &Cdfg,
    block: BlockId,
    delay_of: &dyn Fn(&OpKind) -> u64,
    resources: ResourceSet,
) -> OracleSchedule {
    let ops = &g.block(block).ops;
    if ops.is_empty() {
        return OracleSchedule {
            start: HashMap::new(),
            latency: 0,
            peak_usage: HashMap::new(),
        };
    }
    let unconstrained = asap(g, block, delay_of);
    let alap_start = alap(g, block, delay_of, unconstrained.latency);

    let mut start: HashMap<OpId, u64> = HashMap::with_capacity(ops.len());
    let mut finish: HashMap<OpId, u64> = HashMap::with_capacity(ops.len());
    let mut remaining: Vec<OpId> = ops.clone();
    // Critical ops (small ALAP start) first.
    remaining.sort_by_key(|op| alap_start.get(op).copied().unwrap_or(0));

    let mut cycle: u64 = 0;
    // Busy units per class, as (class, free_at) pairs.
    let mut busy: Vec<(FuClass, u64)> = Vec::new();
    let mut guard = 0usize;
    while !remaining.is_empty() {
        busy.retain(|&(_, free_at)| free_at > cycle);
        let mut issued_any = false;
        let mut i = 0;
        while i < remaining.len() {
            let op = remaining[i];
            let node = g.op(op);
            // Ready: all in-block inputs finished by now.
            let ready = node
                .inputs
                .iter()
                .all(|inp| !ops.contains(inp) || finish.get(inp).is_some_and(|&f| f <= cycle));
            if ready {
                let class = fu_class(&node.kind);
                let in_use = busy.iter().filter(|(c, _)| *c == class).count() as u32;
                if in_use < limit(&resources, class) {
                    let d = delay_of(&node.kind);
                    start.insert(op, cycle);
                    // Zero-delay ops (e.g. channel accesses, whose time is
                    // estimated separately) finish instantly and occupy no
                    // unit; real ops hold their unit until completion.
                    finish.insert(op, cycle + d);
                    if d > 0 {
                        busy.push((class, cycle + d));
                    }
                    remaining.remove(i);
                    issued_any = true;
                    continue;
                }
            }
            i += 1;
        }
        if !issued_any {
            cycle += 1;
        }
        guard += 1;
        assert!(
            guard < 1_000_000,
            "list scheduling failed to converge (cyclic in-block dataflow?)"
        );
    }
    let latency = finish.values().copied().max().unwrap_or(0);
    let peak_usage = peak_usage(g, &start, &finish);
    OracleSchedule {
        start,
        latency,
        peak_usage,
    }
}

fn peak_usage(
    g: &Cdfg,
    start: &HashMap<OpId, u64>,
    finish: &HashMap<OpId, u64>,
) -> HashMap<FuClass, u32> {
    let mut peak: HashMap<FuClass, u32> = HashMap::new();
    // Sample usage at each distinct start cycle.
    for (&probe_op, &t) in start {
        let _ = probe_op;
        let mut usage: HashMap<FuClass, u32> = HashMap::new();
        for (&op, &s) in start {
            let f = finish[&op];
            if s <= t && t < f.max(s + 1) {
                *usage.entry(fu_class(&g.op(op).kind)).or_insert(0) += 1;
            }
        }
        for (class, n) in usage {
            let entry = peak.entry(class).or_insert(0);
            *entry = (*entry).max(n);
        }
    }
    peak
}

/// Asserts `new` and `old` agree on every op's start, the latency and
/// the peak usage of every class.
fn assert_same(g: &Cdfg, block: BlockId, new: &BlockSchedule, old: &OracleSchedule, what: &str) {
    let ops = &g.block(block).ops;
    let old_start: Vec<u64> = ops.iter().map(|op| old.start[op]).collect();
    assert_eq!(new.start, old_start, "{what}: start cycles differ");
    assert_eq!(new.latency, old.latency, "{what}: latency differs");
    let old_peak = FuClass::ALL.map(|c| old.peak_usage.get(&c).copied().unwrap_or(0));
    assert_eq!(new.peak_usage, old_peak, "{what}: peak usage differs");
}

/// Compares ASAP, ALAP (at the ASAP latency) and list scheduling of one
/// block; returns the number of ops it checked.
fn check_block(
    scheduler: &mut Scheduler,
    g: &Cdfg,
    block: BlockId,
    delay: &dyn Fn(&OpKind) -> u64,
    resources: ResourceSet,
    what: &str,
) -> usize {
    let ops = &g.block(block).ops;
    let new_asap = scheduler.asap(g, block, delay);
    let old_asap = asap(g, block, delay);
    assert_same(g, block, &new_asap, &old_asap, &format!("{what} asap"));

    let old_alap = alap(g, block, delay, old_asap.latency);
    let old_alap: Vec<u64> = ops.iter().map(|op| old_alap[op]).collect();
    let new_alap = scheduler.alap(g, block, delay, new_asap.latency);
    assert_eq!(new_alap, old_alap, "{what} alap");

    let new = scheduler.list_schedule(g, block, delay, resources);
    let old = list_schedule(g, block, delay, resources);
    assert_same(g, block, &new, &old, &format!("{what} list"));
    assert_eq!(
        new.concurrent_groups(ops),
        old.concurrent_groups(),
        "{what}: concurrent groups differ"
    );
    ops.len()
}

#[test]
fn corpus_blocks_schedule_identically() {
    let risc = ProcessorModel::risc32_pipelined();
    let mut scheduler = Scheduler::new();
    for entry in slif_speclang::corpus::all() {
        let rs = entry.load().expect("corpus spec loads");
        let mut blocks = 0;
        for g in lower_spec(&rs) {
            for block in g.block_ids() {
                for model in [AsicModel::gate_array(), AsicModel::fpga()] {
                    let what = format!("{} {} {block:?} {}", entry.name, g.name(), model.name);
                    check_block(
                        &mut scheduler,
                        &g,
                        block,
                        &|k| model.cycles(k),
                        model.resources,
                        &what,
                    );
                }
                // The critical path `compile_behavior` takes for a
                // pipelined processor.
                let delay = |k: &OpKind| risc.cycles(k);
                assert_eq!(
                    scheduler.asap(&g, block, &delay).latency,
                    asap(&g, block, &delay).latency,
                    "{} {} {block:?} risc32 asap latency",
                    entry.name,
                    g.name()
                );
                blocks += 1;
            }
        }
        assert!(blocks > 10, "{} lowered to {blocks} blocks", entry.name);
    }
}

/// Number of op kinds [`kind`] draws from.
const KINDS: usize = 9;

/// Op kinds spanning every functional-unit class.
fn kind(i: usize) -> OpKind {
    match i {
        0 => OpKind::Binary(AluOp::Add),
        1 => OpKind::Binary(AluOp::Sub),
        2 => OpKind::Unary(AluOp::Not),
        3 => OpKind::Binary(AluOp::Mul),
        4 => OpKind::Binary(AluOp::Div),
        5 => OpKind::ReadLocal("x".into()),
        6 => OpKind::WriteGlobal("g".into()),
        7 => OpKind::Call("f".into()),
        _ => OpKind::Branch,
    }
}

/// The inverse of [`kind`].
fn kind_index(k: &OpKind) -> usize {
    match k {
        OpKind::Binary(AluOp::Add) => 0,
        OpKind::Binary(AluOp::Sub) => 1,
        OpKind::Unary(_) => 2,
        OpKind::Binary(AluOp::Mul) => 3,
        OpKind::Binary(AluOp::Div) => 4,
        OpKind::ReadLocal(_) => 5,
        OpKind::WriteGlobal(_) => 6,
        OpKind::Call(_) => 7,
        _ => 8,
    }
}

/// One random block: 1–24 ops whose inputs come from earlier ops of the
/// block or from ops of the entry block, under random delays of 0–5 per
/// kind (zero often, so zero-delay chains form) and 1–3 units per class.
fn random_block(seed: u64) -> (Cdfg, BlockId, [u64; KINDS], ResourceSet) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Cdfg::new("random");
    let entry = g.entry();
    let outside: Vec<OpId> = (0..3)
        .map(|_| g.add_op(entry, OpKind::ReadLocal("o".into()), vec![]))
        .collect();
    let block = g.add_block(ExecCount::ONCE);
    let n = rng.gen_range(1..=24usize);
    let mut inside: Vec<OpId> = Vec::with_capacity(n);
    for _ in 0..n {
        let inputs = (0..rng.gen_range(0..=3u32))
            .map(|_| {
                if inside.is_empty() || rng.gen_bool(0.15) {
                    outside[rng.gen_range(0..outside.len())]
                } else if rng.gen_bool(0.7) {
                    // A recent op, so chains get long.
                    inside[inside.len() - rng.gen_range(1..=inside.len().min(4))]
                } else {
                    inside[rng.gen_range(0..inside.len())]
                }
            })
            .collect();
        let op_kind = kind(rng.gen_range(0..KINDS));
        inside.push(g.add_op(block, op_kind, inputs));
    }
    let delays = [(); KINDS].map(|()| {
        if rng.gen_bool(0.35) {
            0
        } else {
            rng.gen_range(1..=5u64)
        }
    });
    let resources = ResourceSet {
        alus: rng.gen_range(1..=3),
        muls: rng.gen_range(1..=3),
        divs: rng.gen_range(1..=3),
        mem_ports: rng.gen_range(1..=3),
    };
    (g, block, delays, resources)
}

#[test]
fn random_dag_blocks_schedule_identically() {
    let mut scheduler = Scheduler::new();
    let mut ops = 0;
    for seed in 0..10_000 {
        let (g, block, delays, resources) = random_block(seed);
        let delay = |k: &OpKind| delays[kind_index(k)];
        ops += check_block(
            &mut scheduler,
            &g,
            block,
            &delay,
            resources,
            &format!("seed {seed}"),
        );
    }
    assert!(ops > 100_000, "{ops} ops checked");
}
