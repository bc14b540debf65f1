//! The pre-refactor estimation path, preserved as a reference oracle.
//!
//! Before the compiled-view refactor, the estimators walked the mutable
//! [`Design`] directly: `WeightList` binary searches for every ict/size
//! lookup, `Vec`-collecting graph walks for adjacency, and a full
//! node-table scan inside the cost function. This module is a faithful
//! copy of that path (default configuration), so
//! `tests/compiled_parity.rs` can hold the compiled estimators to the
//! same floats, bit for bit. It is **not** public API beyond the bench
//! harness and is deliberately frozen — do not "optimize" it.

use slif_core::{
    AccessKind, AccessTarget, ChannelId, CoreError, Design, NodeId, Partition, PmRef, ProcessorId,
};
use slif_explore::Objectives;

/// Memoization state for one node's execution time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
enum MemoState {
    #[default]
    Unvisited,
    InProgress,
    Done(f64),
}

fn eval_exec_time(
    design: &Design,
    partition: &Partition,
    memo: &mut [MemoState],
    n: NodeId,
) -> Result<f64, CoreError> {
    if n.index() >= memo.len() || n.index() >= partition.node_slots() {
        return Err(CoreError::DanglingReference {
            what: "node",
            index: n.index(),
        });
    }
    match memo[n.index()] {
        MemoState::Done(t) => Ok(t),
        MemoState::InProgress => Err(CoreError::RecursiveAccess { node: n }),
        MemoState::Unvisited => {
            memo[n.index()] = MemoState::InProgress;
            let result = eval_compute(design, partition, memo, n);
            match result {
                Ok(t) => {
                    memo[n.index()] = MemoState::Done(t);
                    Ok(t)
                }
                Err(e) => {
                    memo[n.index()] = MemoState::Unvisited;
                    Err(e)
                }
            }
        }
    }
}

fn eval_compute(
    design: &Design,
    partition: &Partition,
    memo: &mut [MemoState],
    n: NodeId,
) -> Result<f64, CoreError> {
    let comp = partition
        .node_component(n)
        .ok_or(CoreError::UnmappedNode { node: n })?;
    let comp_exists = match comp {
        PmRef::Processor(p) => p.index() < design.processor_count(),
        PmRef::Memory(m) => m.index() < design.memory_count(),
    };
    if !comp_exists {
        return Err(CoreError::UnknownComponent { component: comp });
    }
    let class = design.component_class(comp);
    if class.index() >= design.class_count() {
        return Err(CoreError::DanglingReference {
            what: "class",
            index: class.index(),
        });
    }
    let ict = match design.graph().node(n).ict().get(class) {
        Some(v) => v as f64,
        None => {
            return Err(CoreError::MissingWeight {
                node: n,
                list: "ict",
                component: comp,
            })
        }
    };
    if design.graph().node(n).kind().is_variable() {
        return Ok(ict);
    }
    // Default configuration: sequential accesses, so plain summation.
    let channels: Vec<ChannelId> = design.graph().channels_of(n).collect();
    let mut comm = 0.0;
    for c in channels {
        comm += eval_channel_time(design, partition, memo, c, comp)?;
    }
    Ok(ict + comm)
}

fn eval_channel_time(
    design: &Design,
    partition: &Partition,
    memo: &mut [MemoState],
    c: ChannelId,
    src_comp: PmRef,
) -> Result<f64, CoreError> {
    let ch = design.graph().channel(c);
    let freq = ch.freq().avg;
    if freq == 0.0 {
        return Ok(0.0);
    }
    let bus_id = partition
        .channel_bus(c)
        .ok_or(CoreError::UnmappedChannel { channel: c })?;
    if bus_id.index() >= design.bus_count() {
        return Err(CoreError::UnknownBus { bus: bus_id });
    }
    let bus = design.bus(bus_id);
    if bus.bitwidth() == 0 {
        return Err(CoreError::ZeroBitwidthBus { bus: bus_id });
    }
    let (same, dst_time) = match ch.dst() {
        AccessTarget::Port(_) => (false, 0.0),
        AccessTarget::Node(dst) => {
            if dst.index() >= partition.node_slots() {
                return Err(CoreError::DanglingReference {
                    what: "node",
                    index: dst.index(),
                });
            }
            let dst_comp = partition
                .node_component(dst)
                .ok_or(CoreError::UnmappedNode { node: dst })?;
            // Default message policy: transfers only, no receiver time.
            let include_dst = match ch.kind() {
                AccessKind::Message => false,
                AccessKind::Call | AccessKind::Read | AccessKind::Write => true,
            };
            let dst_time = if include_dst {
                eval_exec_time(design, partition, memo, dst)?
            } else {
                0.0
            };
            (dst_comp == src_comp, dst_time)
        }
    };
    let transfer = bus.access_time(ch.bits(), same) as f64;
    Ok(freq * (transfer + dst_time))
}

fn node_size_on(design: &Design, n: NodeId, pm: PmRef) -> Result<u64, CoreError> {
    let class = design.component_class(pm);
    design
        .graph()
        .node(n)
        .size()
        .get(class)
        .ok_or(CoreError::MissingWeight {
            node: n,
            list: "size",
            component: pm,
        })
}

fn io_pins(design: &Design, partition: &Partition, p: ProcessorId) -> Result<u32, CoreError> {
    if p.index() >= design.processor_count() {
        return Err(CoreError::InvalidProcessor { processor: p });
    }
    let cut: Vec<_> = partition.cut_channels(design, p).collect();
    for &c in &cut {
        if partition.channel_bus(c).is_none() {
            return Err(CoreError::UnmappedChannel { channel: c });
        }
    }
    let mut pins = 0u32;
    for &b in partition.cut_buses(design, p).iter() {
        if b.index() >= design.bus_count() {
            return Err(CoreError::UnknownBus { bus: b });
        }
        pins = pins.saturating_add(design.bus(b).bitwidth());
    }
    Ok(pins)
}

fn pm_index(design: &Design, pm: PmRef) -> usize {
    match pm {
        PmRef::Processor(p) => p.index(),
        PmRef::Memory(m) => design.processor_count() + m.index(),
    }
}

/// The pre-refactor incremental estimator: same caches and invalidation
/// rules as today's `IncrementalEstimator`, but every lookup walks the
/// mutable design.
#[derive(Debug)]
pub struct BaselineIncremental<'a> {
    design: &'a Design,
    partition: Partition,
    comp_size: Vec<u64>,
    exec_memo: Vec<MemoState>,
    pins_cache: Vec<Option<u32>>,
}

impl<'a> BaselineIncremental<'a> {
    /// Creates the baseline estimator over a complete partition.
    ///
    /// # Errors
    ///
    /// As for `IncrementalEstimator::new`.
    pub fn new(design: &'a Design, partition: Partition) -> Result<Self, CoreError> {
        let slots = design.processor_count() + design.memory_count();
        let mut comp_size = vec![0u64; slots];
        for n in design.graph().node_ids() {
            let comp = partition
                .node_component(n)
                .ok_or(CoreError::UnmappedNode { node: n })?;
            comp_size[pm_index(design, comp)] += node_size_on(design, n, comp)?;
        }
        Ok(Self {
            design,
            partition,
            comp_size,
            exec_memo: vec![MemoState::default(); design.graph().node_count()],
            pins_cache: vec![None; design.processor_count()],
        })
    }

    /// Moves node `n` to `comp` with the pre-refactor update rules.
    ///
    /// # Errors
    ///
    /// As for `IncrementalEstimator::move_node`.
    pub fn move_node(&mut self, n: NodeId, comp: PmRef) -> Result<Option<PmRef>, CoreError> {
        let old = self.partition.node_component(n);
        if old == Some(comp) {
            return Ok(old);
        }
        if let PmRef::Memory(m) = comp {
            if self.design.graph().node(n).kind().is_behavior() {
                return Err(CoreError::BehaviorInMemory { node: n, memory: m });
            }
        }
        let new_w = node_size_on(self.design, n, comp)?;
        if let Some(old_comp) = old {
            let old_w = node_size_on(self.design, n, old_comp)?;
            self.comp_size[pm_index(self.design, old_comp)] -= old_w;
        }
        self.comp_size[pm_index(self.design, comp)] += new_w;
        self.partition.assign_node(n, comp);
        for dep in self.design.graph().dependents_of(n) {
            self.exec_memo[dep.index()] = MemoState::default();
        }
        self.invalidate_pins_of_comp(old);
        self.invalidate_pins_of_comp(Some(comp));
        let g = self.design.graph();
        let mut neighbours: Vec<Option<PmRef>> = Vec::new();
        for c in g.channels_of(n) {
            if let AccessTarget::Node(dst) = g.channel(c).dst() {
                neighbours.push(self.partition.node_component(dst));
            }
        }
        for c in g.accessors_of(n) {
            neighbours.push(self.partition.node_component(g.channel(c).src()));
        }
        for comp in neighbours {
            self.invalidate_pins_of_comp(comp);
        }
        Ok(old)
    }

    fn invalidate_pins_of_comp(&mut self, comp: Option<PmRef>) {
        if let Some(PmRef::Processor(p)) = comp {
            self.pins_cache[p.index()] = None;
        }
    }

    /// Equation 1 execution time, from the memo where valid.
    ///
    /// # Errors
    ///
    /// As for `IncrementalEstimator::exec_time`.
    pub fn exec_time(&mut self, n: NodeId) -> Result<f64, CoreError> {
        eval_exec_time(self.design, &self.partition, &mut self.exec_memo, n)
    }

    /// Equation 4/5 size, an O(1) cache read.
    pub fn size(&self, pm: PmRef) -> u64 {
        self.comp_size[pm_index(self.design, pm)]
    }

    /// Equation 6 pins, from cache where valid.
    ///
    /// # Errors
    ///
    /// As for `IncrementalEstimator::pins`.
    pub fn pins(&mut self, p: ProcessorId) -> Result<u32, CoreError> {
        if let Some(pins) = self.pins_cache[p.index()] {
            return Ok(pins);
        }
        let pins = io_pins(self.design, &self.partition, p)?;
        self.pins_cache[p.index()] = Some(pins);
        Ok(pins)
    }

    /// The current working partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }
}

/// The pre-refactor cost function: identical arithmetic to
/// `slif_explore::cost` under default objectives, but driven by design
/// walks (including the full node-table scan for the pressure term, with
/// its magic `1.0e9` divisor — which [`Objectives::DEFAULT_PERF_SCALE`]
/// has since replaced).
///
/// # Errors
///
/// As for `slif_explore::cost`.
pub fn baseline_cost(
    design: &Design,
    est: &mut BaselineIncremental<'_>,
    objectives: &Objectives,
) -> Result<f64, CoreError> {
    let mut total = 0.0;
    let mut perf_sum = 0.0;
    let mut perf_norm = 0.0;
    for &(process, deadline) in objectives.deadlines() {
        let t = est.exec_time(process)?;
        if t > deadline {
            total += objectives.wt_time * (t - deadline) / deadline;
        }
        perf_sum += t;
        perf_norm += deadline;
    }
    if perf_norm > 0.0 {
        total += objectives.wt_perf * perf_sum / perf_norm;
    } else {
        let mut sum = 0.0;
        for n in design.graph().node_ids() {
            if design.graph().node(n).kind().is_process() {
                sum += est.exec_time(n)?;
            }
        }
        total += objectives.wt_perf * sum / 1.0e9;
    }
    for pm in design.pm_refs() {
        let constraint = match pm {
            PmRef::Processor(p) => design.processor(p).size_constraint(),
            PmRef::Memory(m) => design.memory(m).size_constraint(),
        };
        if let Some(max) = constraint {
            let used = est.size(pm);
            if used > max {
                total += objectives.wt_size * (used - max) as f64 / max.max(1) as f64;
            }
        }
    }
    for p in design.processor_ids() {
        if let Some(max) = design.processor(p).pin_constraint() {
            let pins = est.pins(p)?;
            if pins > max {
                total += objectives.wt_pins * f64::from(pins - max) / f64::from(max.max(1));
            }
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slif_core::gen::DesignGenerator;
    use slif_estimate::IncrementalEstimator;
    use slif_explore::cost;

    /// The baseline must stay a faithful pre-refactor copy: identical
    /// costs to the compiled path through a deterministic move walk.
    #[test]
    fn baseline_agrees_with_compiled_path() {
        let (design, part) = DesignGenerator::new(33)
            .behaviors(20)
            .variables(15)
            .processors(3)
            .memories(2)
            .buses(2)
            .build();
        let objectives = Objectives::new();
        let mut base = BaselineIncremental::new(&design, part.clone()).unwrap();
        let mut inc = IncrementalEstimator::new(&design, part).unwrap();
        let procs: Vec<_> = design.processor_ids().collect();
        let nodes: Vec<_> = design.graph().node_ids().collect();
        for (k, &n) in nodes.iter().enumerate() {
            let target: PmRef = procs[k % procs.len()].into();
            assert_eq!(
                base.move_node(n, target).is_ok(),
                inc.move_node(n, target).is_ok()
            );
            let a = baseline_cost(&design, &mut base, &objectives).unwrap();
            let b = cost(&mut inc, &objectives).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "cost diverged after move {k}");
        }
    }
}
