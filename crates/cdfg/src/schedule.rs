//! Operation scheduling within basic blocks.
//!
//! The paper obtains a behavior's ASIC `ict` "by synthesizing the behavior
//! to a structure", a step whose core is scheduling; the channel
//! concurrency tags likewise "create the channel tags from that schedule".
//! This module provides the classic trio — ASAP, ALAP, and
//! resource-constrained list scheduling — over each block's dataflow
//! graph. `slif-techlib` drives it with per-operation delays from a
//! technology model and turns the resulting latencies into ict weights
//! and functional-unit usage into area estimates.
//!
//! A [`Scheduler`] first lays one block out densely: each op's position
//! in the block's program order, its delay and class, its count of
//! in-block inputs and the list of its in-block users. An input is
//! in-block dataflow when it sits earlier in the same block (which
//! [`Cdfg::add_op`] always produces); any other input is ready when the
//! block starts. ASAP is then one forward pass, ALAP one backward pass,
//! and list scheduling an event loop over per-class ready heaps, so a
//! block of `n` ops with `e` in-block edges schedules in
//! `O((n + e) log n)`. The scheduler keeps its buffers between blocks:
//! scheduling every block of a behavior through one allocates them once.

use crate::ir::{BlockId, Cdfg, OpId, OpKind};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Functional-unit classes used for resource constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuClass {
    /// Add/sub/compare/logic units.
    Alu,
    /// Multipliers.
    Mul,
    /// Dividers (div/rem).
    Div,
    /// Memory/register-file ports (loads and stores).
    Mem,
    /// Everything else (control, calls, I/O) — not resource-limited.
    Other,
}

impl FuClass {
    /// Number of classes.
    pub const COUNT: usize = 5;

    /// Every class, in [`FuClass::index`] order.
    pub const ALL: [FuClass; FuClass::COUNT] = [
        FuClass::Alu,
        FuClass::Mul,
        FuClass::Div,
        FuClass::Mem,
        FuClass::Other,
    ];

    /// The class's position in [`FuClass::ALL`], which indexes
    /// [`BlockSchedule::peak_usage`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Classifies an operation into a functional-unit class.
pub fn fu_class(kind: &OpKind) -> FuClass {
    use crate::ir::AluOp;
    match kind {
        OpKind::Binary(AluOp::Mul) => FuClass::Mul,
        OpKind::Binary(AluOp::Div) | OpKind::Binary(AluOp::Rem) => FuClass::Div,
        OpKind::Binary(_) | OpKind::Unary(_) => FuClass::Alu,
        OpKind::ReadLocal(_)
        | OpKind::WriteLocal(_)
        | OpKind::ReadLocalArray(_)
        | OpKind::WriteLocalArray(_)
        | OpKind::ReadGlobal(_)
        | OpKind::WriteGlobal(_)
        | OpKind::ReadGlobalArray(_)
        | OpKind::WriteGlobalArray(_) => FuClass::Mem,
        _ => FuClass::Other,
    }
}

/// How many units of each class the schedule may use per cycle.
///
/// A class given zero units is scheduled as if it had one, so every op
/// eventually issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceSet {
    /// Available ALUs.
    pub alus: u32,
    /// Available multipliers.
    pub muls: u32,
    /// Available dividers.
    pub divs: u32,
    /// Available memory ports.
    pub mem_ports: u32,
}

impl ResourceSet {
    /// A small datapath: 2 ALUs, 1 multiplier, 1 divider, 1 memory port.
    pub fn small() -> Self {
        Self {
            alus: 2,
            muls: 1,
            divs: 1,
            mem_ports: 1,
        }
    }

    /// A generous datapath: 4 ALUs, 2 multipliers, 1 divider, 2 ports.
    pub fn large() -> Self {
        Self {
            alus: 4,
            muls: 2,
            divs: 1,
            mem_ports: 2,
        }
    }

    /// Units of `class` per cycle, with a zero count raised to one.
    fn limit(&self, class: FuClass) -> u32 {
        let units = match class {
            FuClass::Alu => self.alus,
            FuClass::Mul => self.muls,
            FuClass::Div => self.divs,
            FuClass::Mem => self.mem_ports,
            FuClass::Other => u32::MAX,
        };
        units.max(1)
    }
}

impl Default for ResourceSet {
    fn default() -> Self {
        Self::small()
    }
}

/// The result of scheduling one basic block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSchedule {
    /// Start cycle (block-relative) of each op, by its position in the
    /// block's `ops`.
    pub start: Vec<u64>,
    /// Total block latency in cycles.
    pub latency: u64,
    /// Peak number of simultaneously busy units per class, indexed by
    /// [`FuClass::index`]. An op is busy over `[start, max(finish,
    /// start + 1))`, so a zero-delay op counts for one cycle.
    pub peak_usage: [u32; FuClass::COUNT],
}

impl BlockSchedule {
    /// Ops that start at the same cycle — used to derive concurrency tags.
    /// `ops` is the scheduled block's op list. Each group has at least two
    /// ops in ascending order, and the groups come in lexicographic order.
    pub fn concurrent_groups(&self, ops: &[OpId]) -> Vec<Vec<OpId>> {
        let mut by_start: Vec<(u64, OpId)> = self
            .start
            .iter()
            .copied()
            .zip(ops.iter().copied())
            .collect();
        by_start.sort_unstable();
        let mut groups: Vec<Vec<OpId>> = by_start
            .chunk_by(|a, b| a.0 == b.0)
            .filter(|g| g.len() > 1)
            .map(|g| g.iter().map(|&(_, op)| op).collect())
            .collect();
        groups.sort_unstable();
        groups
    }
}

/// ASAP schedule of `block`: every op starts as soon as its in-block
/// dataflow operands finish. Returns per-op start cycles and the critical
/// path latency. `delay_of` gives each op's latency in cycles (0-delay
/// ops are allowed and chain within a cycle).
pub fn asap(g: &Cdfg, block: BlockId, delay_of: &dyn Fn(&OpKind) -> u64) -> BlockSchedule {
    Scheduler::new().asap(g, block, delay_of)
}

/// ALAP start times for `block` against a target latency (usually the
/// ASAP latency). Returns each op's latest start cycle, by its position
/// in the block's `ops`.
pub fn alap(
    g: &Cdfg,
    block: BlockId,
    delay_of: &dyn Fn(&OpKind) -> u64,
    target_latency: u64,
) -> Vec<u64> {
    Scheduler::new().alap(g, block, delay_of, target_latency)
}

/// Resource-constrained list scheduling of `block`: see
/// [`Scheduler::list_schedule`].
pub fn list_schedule(
    g: &Cdfg,
    block: BlockId,
    delay_of: &dyn Fn(&OpKind) -> u64,
    resources: ResourceSet,
) -> BlockSchedule {
    Scheduler::new().list_schedule(g, block, delay_of, resources)
}

/// A ready op: ALAP start, then block position.
type Priority = (u64, u32);

/// Reusable scratch for scheduling blocks; see the module docs.
#[derive(Debug, Default)]
pub struct Scheduler {
    /// Op index → 1 + its position in the block being laid out. Zero
    /// everywhere between layouts.
    slot: Vec<u32>,
    delay: Vec<u64>,
    class: Vec<FuClass>,
    /// In-block inputs per position.
    inputs: Vec<u32>,
    /// `users[user_at[i]..user_at[i + 1]]` are position `i`'s in-block
    /// users, ascending.
    user_at: Vec<u32>,
    users: Vec<u32>,
    /// In-block `(input, user)` edges, ascending by user.
    edges: Vec<(u32, u32)>,
    finish: Vec<u64>,
    alap_start: Vec<u64>,
    /// List scheduling's count of unfinished in-block inputs.
    waiting: Vec<u32>,
    ready: [BinaryHeap<Reverse<Priority>>; FuClass::COUNT],
    /// Issued ops that hold a unit, keyed by finish cycle.
    running: BinaryHeap<Reverse<(u64, u32)>>,
    /// Busy-interval boundaries: `(cycle, starts, class index)`.
    events: Vec<(u64, bool, usize)>,
}

impl Scheduler {
    /// An empty scheduler; its buffers grow to the largest block seen.
    pub fn new() -> Self {
        Self::default()
    }

    /// ASAP schedule of `block`; see [`asap`].
    pub fn asap(
        &mut self,
        g: &Cdfg,
        block: BlockId,
        delay_of: &dyn Fn(&OpKind) -> u64,
    ) -> BlockSchedule {
        self.lay_out(g, block, delay_of);
        let mut start = vec![0; self.delay.len()];
        let latency = self.asap_pass(&mut start);
        let peak_usage = self.peak_usage(&start);
        BlockSchedule {
            start,
            latency,
            peak_usage,
        }
    }

    /// ALAP start times of `block`; see [`alap`].
    pub fn alap(
        &mut self,
        g: &Cdfg,
        block: BlockId,
        delay_of: &dyn Fn(&OpKind) -> u64,
        target_latency: u64,
    ) -> Vec<u64> {
        self.lay_out(g, block, delay_of);
        self.alap_pass(target_latency);
        self.alap_start.clone()
    }

    /// Resource-constrained list scheduling of `block`.
    ///
    /// Priority is ALAP start (critical ops first), ties in program order.
    /// Each cycle the scheduler issues the highest-priority ready op among
    /// the classes with a free unit, until none is left. A multi-cycle op
    /// holds its unit until it finishes. A zero-delay op needs a free unit
    /// to issue but holds none, and its users are ready in the same cycle.
    /// When nothing can issue, time jumps to the next unit release.
    pub fn list_schedule(
        &mut self,
        g: &Cdfg,
        block: BlockId,
        delay_of: &dyn Fn(&OpKind) -> u64,
        resources: ResourceSet,
    ) -> BlockSchedule {
        self.lay_out(g, block, delay_of);
        let n = self.delay.len();
        let mut start = vec![0; n];
        let target = self.asap_pass(&mut start);
        self.alap_pass(target);

        let limit = FuClass::ALL.map(|c| resources.limit(c));
        let mut in_use = [0u32; FuClass::COUNT];
        self.waiting.clone_from(&self.inputs);
        for heap in &mut self.ready {
            heap.clear();
        }
        self.running.clear();
        for i in 0..n {
            if self.waiting[i] == 0 {
                self.ready[self.class[i].index()].push(Reverse((self.alap_start[i], i as u32)));
            }
        }

        let mut cycle = 0u64;
        let mut issued = 0;
        while issued < n {
            while let Some(&Reverse((at, i))) = self.running.peek() {
                if at > cycle {
                    break;
                }
                self.running.pop();
                in_use[self.class[i as usize].index()] -= 1;
                self.release_users(i);
            }
            while let Some((c, (_, i))) = self.next_issue(&in_use, &limit) {
                self.ready[c].pop();
                let i = i as usize;
                start[i] = cycle;
                let d = self.delay[i];
                self.finish[i] = cycle.saturating_add(d);
                issued += 1;
                if d > 0 {
                    in_use[c] += 1;
                    self.running.push(Reverse((self.finish[i], i as u32)));
                } else {
                    self.release_users(i as u32);
                }
            }
            // With at least one unit per class and edges only pointing
            // forward in the block, an unissued op always waits on a
            // running op, so `running` is empty only once all issued.
            match self.running.peek() {
                Some(&Reverse((at, _))) => cycle = at,
                None => break,
            }
        }
        let latency = self.finish.iter().copied().max().unwrap_or(0);
        let peak_usage = self.peak_usage(&start);
        BlockSchedule {
            start,
            latency,
            peak_usage,
        }
    }

    /// Lays `block` out into the scratch buffers.
    fn lay_out(&mut self, g: &Cdfg, block: BlockId, delay_of: &dyn Fn(&OpKind) -> u64) {
        let ops = &g.block(block).ops;
        let n = ops.len();
        if self.slot.len() < g.node_count() {
            self.slot.resize(g.node_count(), 0);
        }
        self.delay.clear();
        self.class.clear();
        for (i, &op) in ops.iter().enumerate() {
            self.slot[op.index()] = i as u32 + 1;
            let kind = &g.op(op).kind;
            self.delay.push(delay_of(kind));
            self.class.push(fu_class(kind));
        }

        self.inputs.clear();
        self.inputs.resize(n, 0);
        self.user_at.clear();
        self.user_at.resize(n + 1, 0);
        self.edges.clear();
        for (i, &op) in ops.iter().enumerate() {
            for input in &g.op(op).inputs {
                match self.slot.get(input.index()) {
                    Some(&s) if s != 0 && (s as usize) <= i => {
                        let from = s - 1;
                        self.edges.push((from, i as u32));
                        self.user_at[from as usize] += 1;
                        self.inputs[i] += 1;
                    }
                    _ => {}
                }
            }
        }
        for &op in ops {
            self.slot[op.index()] = 0;
        }

        // Counts → end offsets, then fill each range from its end.
        for i in 1..n {
            self.user_at[i] += self.user_at[i - 1];
        }
        self.user_at[n] = self.edges.len() as u32;
        self.users.clear();
        self.users.resize(self.edges.len(), 0);
        for &(from, to) in self.edges.iter().rev() {
            let at = &mut self.user_at[from as usize];
            *at -= 1;
            self.users[*at as usize] = to;
        }

        self.finish.clear();
        self.finish.resize(n, 0);
        self.alap_start.clear();
        self.alap_start.resize(n, 0);
    }

    fn users_of(&self, i: usize) -> &[u32] {
        &self.users[self.user_at[i] as usize..self.user_at[i + 1] as usize]
    }

    /// Fills `start` and `finish` with the ASAP schedule and returns its
    /// latency.
    fn asap_pass(&mut self, start: &mut [u64]) -> u64 {
        let mut latency = 0;
        for i in 0..start.len() {
            let f = start[i].saturating_add(self.delay[i]);
            self.finish[i] = f;
            latency = latency.max(f);
            for &u in self.users_of(i) {
                let u = u as usize;
                start[u] = start[u].max(f);
            }
        }
        latency
    }

    /// Fills `alap_start`: an op must finish by its users' latest start,
    /// or by `target` if it has none.
    fn alap_pass(&mut self, target: u64) {
        for i in (0..self.alap_start.len()).rev() {
            let latest_finish = self
                .users_of(i)
                .iter()
                .map(|&u| self.alap_start[u as usize])
                .min()
                .unwrap_or(target);
            self.alap_start[i] = latest_finish.saturating_sub(self.delay[i]);
        }
    }

    /// The class and key of the highest-priority ready op among the
    /// classes with a free unit.
    fn next_issue(
        &self,
        in_use: &[u32; FuClass::COUNT],
        limit: &[u32; FuClass::COUNT],
    ) -> Option<(usize, Priority)> {
        let mut best: Option<(usize, Priority)> = None;
        for c in 0..FuClass::COUNT {
            if in_use[c] >= limit[c] {
                continue;
            }
            if let Some(&Reverse(key)) = self.ready[c].peek() {
                if best.is_none_or(|(_, b)| key < b) {
                    best = Some((c, key));
                }
            }
        }
        best
    }

    /// Marks op `i` finished for its users, readying those with no
    /// unfinished in-block input left.
    fn release_users(&mut self, i: u32) {
        let i = i as usize;
        for k in self.user_at[i] as usize..self.user_at[i + 1] as usize {
            let u = self.users[k] as usize;
            self.waiting[u] -= 1;
            if self.waiting[u] == 0 {
                self.ready[self.class[u].index()].push(Reverse((self.alap_start[u], u as u32)));
            }
        }
    }

    /// Peak per-class overlap of the busy intervals `[start, max(finish,
    /// start + 1))`, in one sweep over their sorted boundaries (ends sort
    /// before starts at the same cycle).
    fn peak_usage(&mut self, start: &[u64]) -> [u32; FuClass::COUNT] {
        self.events.clear();
        for (i, &s) in start.iter().enumerate() {
            let end = self.finish[i].max(s.saturating_add(1));
            if end > s {
                let c = self.class[i].index();
                self.events.push((s, true, c));
                self.events.push((end, false, c));
            }
        }
        self.events.sort_unstable();
        let mut busy = [0u32; FuClass::COUNT];
        let mut peak = [0u32; FuClass::COUNT];
        for &(_, starts, c) in &self.events {
            if starts {
                busy[c] += 1;
                peak[c] = peak[c].max(busy[c]);
            } else {
                busy[c] -= 1;
            }
        }
        peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::AluOp;

    /// Unit delay for every op.
    fn unit(_k: &OpKind) -> u64 {
        1
    }

    /// A block computing (a+b) * (c+d): two independent adds then a mul.
    fn adder_tree() -> (Cdfg, BlockId) {
        let mut g = Cdfg::new("t");
        let b = g.entry();
        let a = g.add_op(b, OpKind::ReadLocal("a".into()), vec![]);
        let bb = g.add_op(b, OpKind::ReadLocal("b".into()), vec![]);
        let c = g.add_op(b, OpKind::ReadLocal("c".into()), vec![]);
        let d = g.add_op(b, OpKind::ReadLocal("d".into()), vec![]);
        let s1 = g.add_op(b, OpKind::Binary(AluOp::Add), vec![a, bb]);
        let s2 = g.add_op(b, OpKind::Binary(AluOp::Add), vec![c, d]);
        let _m = g.add_op(b, OpKind::Binary(AluOp::Mul), vec![s1, s2]);
        (g, b)
    }

    #[test]
    fn asap_critical_path() {
        let (g, b) = adder_tree();
        let s = asap(&g, b, &unit);
        // reads at 0 (1 cycle), adds at 1, mul at 2 → latency 3.
        assert_eq!(s.latency, 3);
        assert_eq!(s.start[4], 1);
        assert_eq!(s.start[6], 2);
    }

    #[test]
    fn asap_peak_usage_sees_parallel_adds() {
        let (g, b) = adder_tree();
        let s = asap(&g, b, &unit);
        assert_eq!(s.peak_usage[FuClass::Alu.index()], 2);
        assert_eq!(s.peak_usage[FuClass::Mem.index()], 4);
    }

    #[test]
    fn alap_pushes_slack_late() {
        let (g, b) = adder_tree();
        let s = asap(&g, b, &unit);
        let alap_start = alap(&g, b, &unit, s.latency);
        // The multiplication is critical: ALAP start == ASAP start.
        assert_eq!(alap_start[6], s.start[6]);
        // Reads have slack: they may start later than 0.
        assert!(alap_start[0] >= s.start[0]);
    }

    #[test]
    fn list_schedule_respects_resources() {
        let (g, b) = adder_tree();
        // Only one memory port: the four reads serialize.
        let tight = ResourceSet {
            alus: 1,
            muls: 1,
            divs: 1,
            mem_ports: 1,
        };
        let s = list_schedule(&g, b, &unit, tight);
        assert!(s.latency >= 6, "latency {} with 1 port", s.latency);
        assert!(s.peak_usage[FuClass::Mem.index()] <= 1);
        assert!(s.peak_usage[FuClass::Alu.index()] <= 1);
        // With generous resources we approach the ASAP latency.
        let loose = list_schedule(&g, b, &unit, ResourceSet::large());
        assert!(loose.latency <= s.latency);
    }

    #[test]
    fn list_schedule_never_beats_asap() {
        let (g, b) = adder_tree();
        let unconstrained = asap(&g, b, &unit);
        let constrained = list_schedule(&g, b, &unit, ResourceSet::small());
        assert!(constrained.latency >= unconstrained.latency);
    }

    #[test]
    fn empty_block_schedules_trivially() {
        let g = Cdfg::new("t");
        let s = list_schedule(&g, g.entry(), &unit, ResourceSet::small());
        assert_eq!(s.latency, 0);
        assert!(s.start.is_empty());
    }

    #[test]
    fn multi_cycle_ops_hold_units() {
        let mut g = Cdfg::new("t");
        let b = g.entry();
        let x = g.add_op(b, OpKind::ReadLocal("x".into()), vec![]);
        let y = g.add_op(b, OpKind::ReadLocal("y".into()), vec![]);
        let _m1 = g.add_op(b, OpKind::Binary(AluOp::Mul), vec![x, y]);
        let _m2 = g.add_op(b, OpKind::Binary(AluOp::Mul), vec![y, x]);
        let delays = |k: &OpKind| match k {
            OpKind::Binary(AluOp::Mul) => 4,
            _ => 1,
        };
        // One multiplier: the second mul waits for the first to release it.
        let s = list_schedule(
            &g,
            b,
            &delays,
            ResourceSet {
                alus: 1,
                muls: 1,
                divs: 1,
                mem_ports: 2,
            },
        );
        assert!(s.latency >= 9, "latency {}", s.latency);
    }

    #[test]
    fn concurrent_groups_from_schedule() {
        let (g, b) = adder_tree();
        let s = asap(&g, b, &unit);
        let groups = s.concurrent_groups(&g.block(b).ops);
        // The four reads share cycle 0; the two adds share cycle 1.
        assert!(groups.iter().any(|grp| grp.len() == 4));
        assert!(groups.iter().any(|grp| grp.len() == 2));
    }

    #[test]
    fn a_class_without_units_schedules_on_one() {
        let (g, b) = adder_tree();
        let none = ResourceSet {
            alus: 0,
            ..ResourceSet::small()
        };
        let s = list_schedule(&g, b, &unit, none);
        let one = list_schedule(&g, b, &unit, ResourceSet { alus: 1, ..none });
        assert_eq!(s, one);
        assert_eq!(s.peak_usage[FuClass::Alu.index()], 1);
    }

    #[test]
    fn long_delays_jump_to_the_next_release() {
        let mut g = Cdfg::new("t");
        let b = g.entry();
        g.add_op(b, OpKind::Binary(AluOp::Add), vec![]);
        g.add_op(b, OpKind::Binary(AluOp::Sub), vec![]);
        let one_alu = ResourceSet {
            alus: 1,
            ..ResourceSet::small()
        };
        let s = list_schedule(&g, b, &|_| 1_000_000, one_alu);
        assert_eq!(s.start, vec![0, 1_000_000]);
        assert_eq!(s.latency, 2_000_000);
        assert_eq!(s.peak_usage[FuClass::Alu.index()], 1);
    }

    #[test]
    fn zero_delay_chains_issue_in_one_cycle() {
        let mut g = Cdfg::new("t");
        let b = g.entry();
        let mut prev = g.add_op(b, OpKind::ReadGlobal("x".into()), vec![]);
        for _ in 0..5 {
            prev = g.add_op(b, OpKind::WriteGlobal("y".into()), vec![prev]);
        }
        let s = list_schedule(&g, b, &|_| 0, ResourceSet::small());
        assert_eq!(s.start, vec![0; 6]);
        assert_eq!(s.latency, 0);
        // Each zero-delay op is busy for one cycle when peaks are counted.
        assert_eq!(s.peak_usage[FuClass::Mem.index()], 6);
    }

    #[test]
    fn inputs_outside_the_block_are_ready_at_entry() {
        let mut g = Cdfg::new("t");
        let entry = g.entry();
        let x = g.add_op(entry, OpKind::ReadLocal("x".into()), vec![]);
        let body = g.add_block(crate::ir::ExecCount::ONCE);
        let y = g.add_op(body, OpKind::Unary(AluOp::Not), vec![x]);
        g.add_op(body, OpKind::Unary(AluOp::Not), vec![y, x]);
        let s = list_schedule(&g, body, &unit, ResourceSet::small());
        assert_eq!(s.start, vec![0, 1]);
        assert_eq!(s.latency, 2);
    }

    #[test]
    fn one_scheduler_serves_many_blocks_and_graphs() {
        let (g, b) = adder_tree();
        let mut scheduler = Scheduler::new();
        let first = scheduler.list_schedule(&g, b, &unit, ResourceSet::small());
        let empty = Cdfg::new("e");
        assert_eq!(
            scheduler.list_schedule(&empty, empty.entry(), &unit, ResourceSet::small()),
            list_schedule(&empty, empty.entry(), &unit, ResourceSet::small())
        );
        assert_eq!(
            scheduler.list_schedule(&g, b, &unit, ResourceSet::small()),
            first
        );
        assert_eq!(scheduler.asap(&g, b, &unit), asap(&g, b, &unit));
    }
}
