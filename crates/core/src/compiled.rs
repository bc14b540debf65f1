//! A compiled, immutable query layer over a finished [`Design`].
//!
//! The paper's pitch is that SLIF annotations make estimation "a matter of
//! table lookups and sums" (Section 3). The mutable [`Design`] is built for
//! *construction* — growable vectors of vectors, name hash maps, per-class
//! weight lists searched binarily — none of which is the fastest shape for
//! the estimation-in-the-loop hot path. [`CompiledDesign`] is the same
//! information re-laid-out for *querying*:
//!
//! * CSR (compressed sparse row) out/in/port adjacency: one offset array
//!   plus one flat channel-id array per direction, preserving the graph's
//!   per-node insertion order exactly,
//! * per-channel slabs (`src`, `dst`, kind, bits, freq, tag) so a channel's
//!   annotations are a few contiguous loads instead of a struct walk,
//! * dense per-node × per-class `ict`/`size` weight tables replacing the
//!   [`WeightList`](crate::WeightList) binary search with one index,
//! * interned object names with a sorted index for by-name lookup,
//! * precomputed bottom-up behavior order and the ascending list of
//!   process nodes (the roots of Equation 1),
//! * component/bus slabs (classes, constraints, bitwidth/ts/td/capacity).
//!
//! A `CompiledDesign` is deliberately plain data: `Clone`, `Send + Sync`,
//! no interior mutability. Estimators share one compiled view and keep the
//! [`Partition`](crate::Partition) as the only mutable state, which is the
//! prerequisite for parallel multi-start exploration. There is no
//! general invalidation story by design — mutate the [`Design`], compile
//! again. The one bounded exception is
//! [`patch_annotations_from`](CompiledDesign::patch_annotations_from),
//! which refreshes the annotation slabs in place when the topology is
//! provably unchanged (the edit-session fast path).

use crate::annotation::{AccessFreq, ConcurrencyTag};
use crate::channel::AccessKind;
use crate::component::ClassKind;
use crate::design::Design;
use crate::error::CoreError;
use crate::ids::{AccessTarget, BusId, ChannelId, ClassId, MemoryId, NodeId, PmRef, PortId};
use crate::node::NodeKind;

/// An immutable, query-optimized snapshot of a [`Design`].
///
/// Built once with [`CompiledDesign::compile`] after the frontend finishes
/// (`build_design`), then shared by every estimator and partitioner. All
/// query methods mirror the corresponding [`AccessGraph`](crate::AccessGraph)
/// / [`Design`] queries element-for-element (including iteration order),
/// so estimates computed through the compiled view are bit-identical to
/// estimates computed by walking the design.
///
/// # Examples
///
/// ```
/// use slif_core::gen::DesignGenerator;
/// use slif_core::CompiledDesign;
///
/// let (design, _) = DesignGenerator::new(7).build();
/// let cd = CompiledDesign::compile(&design);
/// for n in design.graph().node_ids() {
///     let a: Vec<_> = design.graph().channels_of(n).collect();
///     assert_eq!(cd.channels_of(n), &a[..]);
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledDesign {
    node_count: usize,
    port_count: usize,
    channel_count: usize,
    class_count: usize,
    processor_count: usize,
    memory_count: usize,
    bus_count: usize,

    // CSR adjacency: `*_offsets` has one entry per row plus a trailing
    // total; row `i`'s ids are `*_adj[offsets[i]..offsets[i + 1]]` in the
    // graph's insertion order.
    out_offsets: Vec<u32>,
    out_adj: Vec<ChannelId>,
    in_offsets: Vec<u32>,
    in_adj: Vec<ChannelId>,
    port_offsets: Vec<u32>,
    port_adj: Vec<ChannelId>,

    // Channel slabs.
    chan_src: Vec<NodeId>,
    chan_dst: Vec<AccessTarget>,
    chan_kind: Vec<AccessKind>,
    chan_bits: Vec<u32>,
    chan_freq: Vec<AccessFreq>,
    chan_tag: Vec<ConcurrencyTag>,

    // Node slabs.
    node_kind: Vec<NodeKind>,

    // Interned names: node names first, then port names; `name_order`
    // holds indices into `names` sorted by the name they point at.
    names: Vec<String>,
    name_order: Vec<u32>,

    // Dense weight tables indexed `[node * class_count + class]`; `None`
    // marks a class the node has no recorded weight for.
    ict: Vec<Option<u64>>,
    size_val: Vec<Option<u64>>,
    size_datapath: Vec<Option<u64>>,

    // Component slabs in `pm_index` order (processors, then memories).
    class_kind: Vec<ClassKind>,
    pm_class: Vec<ClassId>,
    proc_size_constraint: Vec<Option<u64>>,
    proc_pin_constraint: Vec<Option<u32>>,
    mem_size_constraint: Vec<Option<u64>>,

    // Bus slabs.
    bus_bitwidth: Vec<u32>,
    bus_ts: Vec<u64>,
    bus_td: Vec<u64>,
    bus_capacity: Vec<Option<f64>>,

    // Precomputed traversals.
    bottom_up: Result<Vec<NodeId>, CoreError>,
    process_nodes: Vec<NodeId>,
}

/// What changed when a compiled view was re-annotated in place by
/// [`CompiledDesign::patch_annotations_delta`].
///
/// The booleans classify the change by *which annotation slab* it hit,
/// which is exactly the granularity downstream slicers need: the lint
/// passes partition into "reads channel bits/tags", "reads weights",
/// and "reads topology only", so a patch that only moved access
/// frequencies can skip every lint pass, while the estimator's memo
/// invalidation keys off the per-node dirty set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct AnnotationDelta {
    /// Nodes whose estimates may have changed: every node with a changed
    /// weight row, plus the source node of every changed channel.
    pub dirty_nodes: Vec<NodeId>,
    /// Some channel's bit width or concurrency tag changed.
    pub chan_bits_or_tags: bool,
    /// Some channel's access frequency changed.
    pub chan_freqs: bool,
    /// Some node's dense `ict`/`size` weight row changed.
    pub weights: bool,
}

impl AnnotationDelta {
    /// True when the patch found nothing to change — the compiled view
    /// is byte-identical to before and every downstream cache is valid.
    pub fn is_empty(&self) -> bool {
        self.dirty_nodes.is_empty()
            && !self.chan_bits_or_tags
            && !self.chan_freqs
            && !self.weights
    }
}

impl CompiledDesign {
    /// Compiles `design` into the immutable query layout.
    ///
    /// Tolerates the dangling references a fault injector (or buggy
    /// producer) can leave behind — out-of-range weight classes are
    /// dropped from the dense tables (they are unreachable through a
    /// valid [`ClassId`] anyway), and endpoint ids are copied verbatim
    /// for the estimators' own range checks to report.
    pub fn compile(design: &Design) -> Self {
        let g = design.graph();
        let node_count = g.node_count();
        let port_count = g.port_count();
        let channel_count = g.channel_count();
        let class_count = design.class_count();

        let mut out_offsets = Vec::with_capacity(node_count + 1);
        let mut out_adj = Vec::with_capacity(channel_count);
        let mut in_offsets = Vec::with_capacity(node_count + 1);
        let mut in_adj = Vec::with_capacity(channel_count);
        out_offsets.push(0);
        in_offsets.push(0);
        for n in g.node_ids() {
            out_adj.extend(g.channels_of(n));
            out_offsets.push(out_adj.len() as u32);
            in_adj.extend(g.accessors_of(n));
            in_offsets.push(in_adj.len() as u32);
        }
        let mut port_offsets = Vec::with_capacity(port_count + 1);
        let mut port_adj = Vec::new();
        port_offsets.push(0);
        for p in g.port_ids() {
            port_adj.extend(g.port_accessors(p));
            port_offsets.push(port_adj.len() as u32);
        }

        let mut chan_src = Vec::with_capacity(channel_count);
        let mut chan_dst = Vec::with_capacity(channel_count);
        let mut chan_kind = Vec::with_capacity(channel_count);
        let mut chan_bits = Vec::with_capacity(channel_count);
        let mut chan_freq = Vec::with_capacity(channel_count);
        let mut chan_tag = Vec::with_capacity(channel_count);
        for c in g.channel_ids() {
            let ch = g.channel(c);
            chan_src.push(ch.src());
            chan_dst.push(ch.dst());
            chan_kind.push(ch.kind());
            chan_bits.push(ch.bits());
            chan_freq.push(ch.freq());
            chan_tag.push(ch.tag());
        }

        let mut node_kind = Vec::with_capacity(node_count);
        let mut names = Vec::with_capacity(node_count + port_count);
        let mut ict = vec![None; node_count * class_count];
        let mut size_val = vec![None; node_count * class_count];
        let mut size_datapath = vec![None; node_count * class_count];
        for n in g.node_ids() {
            let node = g.node(n);
            node_kind.push(node.kind());
            names.push(node.name().to_owned());
            let row = n.index() * class_count;
            for e in node.ict().iter() {
                if e.class.index() < class_count {
                    ict[row + e.class.index()] = Some(e.val);
                }
            }
            for e in node.size().iter() {
                if e.class.index() < class_count {
                    size_val[row + e.class.index()] = Some(e.val);
                    size_datapath[row + e.class.index()] = e.datapath;
                }
            }
        }
        for p in g.port_ids() {
            names.push(g.port(p).name().to_owned());
        }
        let mut name_order: Vec<u32> = (0..names.len() as u32).collect();
        name_order.sort_by(|&a, &b| names[a as usize].cmp(&names[b as usize]));

        let class_kind = design.class_ids().map(|k| design.class(k).kind()).collect();
        let mut pm_class = Vec::with_capacity(design.processor_count() + design.memory_count());
        let mut proc_size_constraint = Vec::with_capacity(design.processor_count());
        let mut proc_pin_constraint = Vec::with_capacity(design.processor_count());
        for p in design.processor_ids() {
            let proc = design.processor(p);
            pm_class.push(proc.class());
            proc_size_constraint.push(proc.size_constraint());
            proc_pin_constraint.push(proc.pin_constraint());
        }
        let mut mem_size_constraint = Vec::with_capacity(design.memory_count());
        for m in design.memory_ids() {
            let mem = design.memory(m);
            pm_class.push(mem.class());
            mem_size_constraint.push(mem.size_constraint());
        }

        let mut bus_bitwidth = Vec::with_capacity(design.bus_count());
        let mut bus_ts = Vec::with_capacity(design.bus_count());
        let mut bus_td = Vec::with_capacity(design.bus_count());
        let mut bus_capacity = Vec::with_capacity(design.bus_count());
        for b in design.bus_ids() {
            let bus = design.bus(b);
            bus_bitwidth.push(bus.bitwidth());
            bus_ts.push(bus.ts());
            bus_td.push(bus.td());
            bus_capacity.push(bus.capacity());
        }

        let bottom_up = g.behaviors_bottom_up();
        let process_nodes = g
            .node_ids()
            .filter(|&n| g.node(n).kind().is_process())
            .collect();

        Self {
            node_count,
            port_count,
            channel_count,
            class_count,
            processor_count: design.processor_count(),
            memory_count: design.memory_count(),
            bus_count: design.bus_count(),
            out_offsets,
            out_adj,
            in_offsets,
            in_adj,
            port_offsets,
            port_adj,
            chan_src,
            chan_dst,
            chan_kind,
            chan_bits,
            chan_freq,
            chan_tag,
            node_kind,
            names,
            name_order,
            ict,
            size_val,
            size_datapath,
            class_kind,
            pm_class,
            proc_size_constraint,
            proc_pin_constraint,
            mem_size_constraint,
            bus_bitwidth,
            bus_ts,
            bus_td,
            bus_capacity,
            bottom_up,
            process_nodes,
        }
    }

    /// [`compile`](Self::compile) guarded by [`GraphLimits`]: the graph's
    /// node/port/channel counts are audited first, and the dense
    /// weight-table product (`nodes × classes`, the allocation a hostile
    /// class-heavy design can blow up) is checked against
    /// `limits.max_weight_cells` — so an over-limit design costs a typed
    /// error, not gigabytes.
    ///
    /// # Errors
    ///
    /// [`CoreError::LimitExceeded`] naming the violated cap.
    pub fn compile_bounded(
        design: &Design,
        limits: &crate::limits::GraphLimits,
    ) -> Result<Self, CoreError> {
        design.graph().check_limits(limits)?;
        let cells = design
            .graph()
            .node_count()
            .saturating_mul(design.class_count());
        if cells > limits.max_weight_cells {
            return Err(CoreError::LimitExceeded {
                what: "weight cell",
                limit: limits.max_weight_cells,
                actual: cells,
            });
        }
        Ok(Self::compile(design))
    }

    /// Re-copies every *annotation* — channel bits/frequencies/tags and
    /// the dense per-class `ict`/`size` weight tables — from `design`
    /// into this compiled view, leaving the topology (CSR adjacency,
    /// node kinds, names, precomputed orders) untouched. The fast path
    /// for edit sessions whose edit changed only weights and access
    /// frequencies.
    ///
    /// Returns the nodes whose estimates may have changed: every node
    /// with a changed weight row, plus the source node of every changed
    /// channel (a channel's frequency and bits feed its source's
    /// execution time and traffic).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidInput`] when `design` is not
    /// topology-identical to the design this view was compiled from
    /// (counts, node names/kinds, channel endpoints/kinds,
    /// component/bus structure). The view is unchanged on error;
    /// callers fall back to a full [`compile`](Self::compile).
    pub fn patch_annotations_from(&mut self, design: &Design) -> Result<Vec<NodeId>, CoreError> {
        self.patch_annotations_delta(design).map(|d| d.dirty_nodes)
    }

    /// [`patch_annotations_from`](Self::patch_annotations_from), but
    /// reporting *which kinds* of annotation changed alongside the dirty
    /// nodes — the classification downstream slicers (incremental lint,
    /// memoized estimation) key their invalidation on.
    ///
    /// # Errors
    ///
    /// As for [`patch_annotations_from`](Self::patch_annotations_from).
    pub fn patch_annotations_delta(
        &mut self,
        design: &Design,
    ) -> Result<AnnotationDelta, CoreError> {
        fn mismatch(what: &str) -> CoreError {
            CoreError::InvalidInput {
                message: format!("patch_annotations_from: {what} differs from the compiled view"),
            }
        }
        let g = design.graph();
        if g.node_count() != self.node_count
            || g.port_count() != self.port_count
            || g.channel_count() != self.channel_count
            || design.class_count() != self.class_count
            || design.processor_count() != self.processor_count
            || design.memory_count() != self.memory_count
            || design.bus_count() != self.bus_count
        {
            return Err(mismatch("an object count"));
        }
        for n in g.node_ids() {
            let node = g.node(n);
            if node.name() != self.names[n.index()] {
                return Err(mismatch("a node name"));
            }
            if node.kind() != self.node_kind[n.index()] {
                return Err(mismatch("a node kind"));
            }
        }
        for (i, p) in g.port_ids().enumerate() {
            if g.port(p).name() != self.names[self.node_count + i] {
                return Err(mismatch("a port name"));
            }
        }
        for c in g.channel_ids() {
            let ch = g.channel(c);
            let i = c.index();
            if ch.src() != self.chan_src[i]
                || ch.dst() != self.chan_dst[i]
                || ch.kind() != self.chan_kind[i]
            {
                return Err(mismatch("a channel endpoint or kind"));
            }
        }
        let classes_match = design
            .class_ids()
            .map(|k| design.class(k).kind())
            .eq(self.class_kind.iter().copied());
        if !classes_match {
            return Err(mismatch("a class kind"));
        }
        let pm: Vec<ClassId> = design
            .processor_ids()
            .map(|p| design.processor(p).class())
            .chain(design.memory_ids().map(|m| design.memory(m).class()))
            .collect();
        if pm != self.pm_class {
            return Err(mismatch("a component class"));
        }
        let alloc_matches = design
            .processor_ids()
            .map(|p| design.processor(p))
            .enumerate()
            .all(|(i, proc)| {
                proc.size_constraint() == self.proc_size_constraint[i]
                    && proc.pin_constraint() == self.proc_pin_constraint[i]
            })
            && design
                .memory_ids()
                .map(|m| design.memory(m))
                .enumerate()
                .all(|(i, mem)| mem.size_constraint() == self.mem_size_constraint[i])
            && design.bus_ids().map(|b| design.bus(b)).enumerate().all(|(i, bus)| {
                bus.bitwidth() == self.bus_bitwidth[i]
                    && bus.ts() == self.bus_ts[i]
                    && bus.td() == self.bus_td[i]
                    && bus.capacity() == self.bus_capacity[i]
            });
        if !alloc_matches {
            return Err(mismatch("a component or bus constraint"));
        }

        // Topology verified; copy the annotation slabs, tracking what
        // actually changed.
        let mut delta = AnnotationDelta::default();
        let mut dirty = vec![false; self.node_count];
        for c in g.channel_ids() {
            let ch = g.channel(c);
            let i = c.index();
            let bits_or_tag =
                self.chan_bits[i] != ch.bits() || self.chan_tag[i] != ch.tag();
            let freq = self.chan_freq[i] != ch.freq();
            if bits_or_tag || freq {
                self.chan_bits[i] = ch.bits();
                self.chan_freq[i] = ch.freq();
                self.chan_tag[i] = ch.tag();
                delta.chan_bits_or_tags |= bits_or_tag;
                delta.chan_freqs |= freq;
                if ch.src().index() < dirty.len() {
                    dirty[ch.src().index()] = true;
                }
            }
        }
        // Rebuild each node's dense rows with exactly `compile`'s fill
        // semantics (range-checked class, later entries win).
        let mut new_ict = vec![None; self.class_count];
        let mut new_size = vec![None; self.class_count];
        let mut new_datapath = vec![None; self.class_count];
        for n in g.node_ids() {
            let node = g.node(n);
            new_ict.fill(None);
            new_size.fill(None);
            new_datapath.fill(None);
            for e in node.ict().iter() {
                if e.class.index() < self.class_count {
                    new_ict[e.class.index()] = Some(e.val);
                }
            }
            for e in node.size().iter() {
                if e.class.index() < self.class_count {
                    new_size[e.class.index()] = Some(e.val);
                    new_datapath[e.class.index()] = e.datapath;
                }
            }
            let row = n.index() * self.class_count;
            let range = row..row + self.class_count;
            if self.ict[range.clone()] != new_ict[..]
                || self.size_val[range.clone()] != new_size[..]
                || self.size_datapath[range.clone()] != new_datapath[..]
            {
                self.ict[range.clone()].copy_from_slice(&new_ict);
                self.size_val[range.clone()].copy_from_slice(&new_size);
                self.size_datapath[range].copy_from_slice(&new_datapath);
                delta.weights = true;
                dirty[n.index()] = true;
            }
        }
        delta.dirty_nodes = g.node_ids().filter(|n| dirty[n.index()]).collect();
        Ok(delta)
    }

    // ---- counts -------------------------------------------------------

    /// Number of behavior + variable nodes (`|BV_all|`).
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of external ports.
    pub fn port_count(&self) -> usize {
        self.port_count
    }

    /// Number of channels (`|C_all|`).
    pub fn channel_count(&self) -> usize {
        self.channel_count
    }

    /// Number of registered component classes.
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// Number of allocated processors (`|P_all|`).
    pub fn processor_count(&self) -> usize {
        self.processor_count
    }

    /// Number of allocated memories (`|M_all|`).
    pub fn memory_count(&self) -> usize {
        self.memory_count
    }

    /// Number of allocated buses (`|I_all|`).
    pub fn bus_count(&self) -> usize {
        self.bus_count
    }

    // ---- id iterators -------------------------------------------------
    //
    // Ids are dense, so iteration is a counter; the returned iterators do
    // not borrow the compiled design, which lets callers interleave them
    // with mutable estimator state.

    /// Iterates over all node ids in ascending order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count as u32).map(NodeId::from_raw)
    }

    /// Iterates over all port ids in ascending order.
    pub fn port_ids(&self) -> impl Iterator<Item = PortId> {
        (0..self.port_count as u32).map(PortId::from_raw)
    }

    /// Iterates over all channel ids in ascending order.
    pub fn channel_ids(&self) -> impl Iterator<Item = ChannelId> {
        (0..self.channel_count as u32).map(ChannelId::from_raw)
    }

    /// Iterates over all processor ids in ascending order.
    pub fn processor_ids(&self) -> impl Iterator<Item = crate::ids::ProcessorId> {
        (0..self.processor_count as u32).map(crate::ids::ProcessorId::from_raw)
    }

    /// Iterates over all bus ids in ascending order.
    pub fn bus_ids(&self) -> impl Iterator<Item = BusId> {
        (0..self.bus_count as u32).map(BusId::from_raw)
    }

    // ---- adjacency ----------------------------------------------------

    /// The channels accessed by behavior `b` — the paper's
    /// `GetBehChans(b)` — in the graph's insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `b` did not come from the compiled design.
    pub fn channels_of(&self, b: NodeId) -> &[ChannelId] {
        let i = b.index();
        &self.out_adj[self.out_offsets[i] as usize..self.out_offsets[i + 1] as usize]
    }

    /// The channels that access node `n`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `n` did not come from the compiled design.
    pub fn accessors_of(&self, n: NodeId) -> &[ChannelId] {
        let i = n.index();
        &self.in_adj[self.in_offsets[i] as usize..self.in_offsets[i + 1] as usize]
    }

    /// The channels that access external port `p`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `p` did not come from the compiled design.
    pub fn port_accessors(&self, p: PortId) -> &[ChannelId] {
        let i = p.index();
        &self.port_adj[self.port_offsets[i] as usize..self.port_offsets[i + 1] as usize]
    }

    /// All nodes from which `target` is reachable over channels (including
    /// `target` itself), in the same order as
    /// [`AccessGraph::dependents_of`](crate::AccessGraph::dependents_of).
    ///
    /// # Panics
    ///
    /// Panics if `target` did not come from the compiled design.
    pub fn dependents_of(&self, target: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.node_count];
        let mut stack = vec![target];
        seen[target.index()] = true;
        let mut out = Vec::new();
        while let Some(n) = stack.pop() {
            out.push(n);
            for &c in self.accessors_of(n) {
                let src = self.chan_src[c.index()];
                if src.index() < seen.len() && !seen[src.index()] {
                    seen[src.index()] = true;
                    stack.push(src);
                }
            }
        }
        out
    }

    /// The precomputed bottom-up behavior order (every behavior after all
    /// behaviors it accesses), or the [`CoreError::RecursiveAccess`] the
    /// traversal hit at compile time.
    ///
    /// # Errors
    ///
    /// [`CoreError::RecursiveAccess`] if the call structure is cyclic.
    pub fn behaviors_bottom_up(&self) -> Result<&[NodeId], CoreError> {
        match &self.bottom_up {
            Ok(order) => Ok(order),
            Err(e) => Err(e.clone()),
        }
    }

    /// The process nodes (Equation 1's roots) in ascending id order.
    pub fn process_nodes(&self) -> &[NodeId] {
        &self.process_nodes
    }

    // ---- node / channel slabs -----------------------------------------

    /// What node `n` represents.
    ///
    /// # Panics
    ///
    /// Panics if `n` did not come from the compiled design.
    pub fn node_kind(&self, n: NodeId) -> NodeKind {
        self.node_kind[n.index()]
    }

    /// Node `n`'s interned name.
    ///
    /// # Panics
    ///
    /// Panics if `n` did not come from the compiled design.
    pub fn node_name(&self, n: NodeId) -> &str {
        &self.names[n.index()]
    }

    /// Port `p`'s interned name.
    ///
    /// # Panics
    ///
    /// Panics if `p` did not come from the compiled design.
    pub fn port_name(&self, p: PortId) -> &str {
        &self.names[self.node_count + p.index()]
    }

    /// Looks up a node by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        match self.name_entry(name)? {
            i if i < self.node_count => Some(NodeId::from_raw(i as u32)),
            _ => None,
        }
    }

    /// Looks up a port by name.
    pub fn port_by_name(&self, name: &str) -> Option<PortId> {
        match self.name_entry(name)? {
            i if i >= self.node_count => Some(PortId::from_raw((i - self.node_count) as u32)),
            _ => None,
        }
    }

    fn name_entry(&self, name: &str) -> Option<usize> {
        self.name_order
            .binary_search_by(|&i| self.names[i as usize].as_str().cmp(name))
            .ok()
            .map(|pos| self.name_order[pos] as usize)
    }

    /// The accessing (initiating) behavior of channel `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` did not come from the compiled design.
    pub fn chan_src(&self, c: ChannelId) -> NodeId {
        self.chan_src[c.index()]
    }

    /// The accessed behavior, variable, or port of channel `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` did not come from the compiled design.
    pub fn chan_dst(&self, c: ChannelId) -> AccessTarget {
        self.chan_dst[c.index()]
    }

    /// The flavour of access channel `c` performs.
    ///
    /// # Panics
    ///
    /// Panics if `c` did not come from the compiled design.
    pub fn chan_kind(&self, c: ChannelId) -> AccessKind {
        self.chan_kind[c.index()]
    }

    /// Bits transferred per access of channel `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` did not come from the compiled design.
    pub fn chan_bits(&self, c: ChannelId) -> u32 {
        self.chan_bits[c.index()]
    }

    /// The access-frequency annotation of channel `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` did not come from the compiled design.
    pub fn chan_freq(&self, c: ChannelId) -> AccessFreq {
        self.chan_freq[c.index()]
    }

    /// The concurrency tag of channel `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` did not come from the compiled design.
    pub fn chan_tag(&self, c: ChannelId) -> ConcurrencyTag {
        self.chan_tag[c.index()]
    }

    // ---- dense weight tables ------------------------------------------

    /// The `ict` weight of node `n` on `class` — the paper's
    /// `GetBvIct(bv, pm)` as a single table load.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `class` did not come from the compiled design.
    pub fn ict_weight(&self, n: NodeId, class: ClassId) -> Option<u64> {
        assert!(class.index() < self.class_count, "class out of range");
        self.ict[n.index() * self.class_count + class.index()]
    }

    /// The `size` weight of node `n` on `class` — the paper's
    /// `GetBvSize(bv, pm)` as a single table load.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `class` did not come from the compiled design.
    pub fn size_weight(&self, n: NodeId, class: ClassId) -> Option<u64> {
        assert!(class.index() < self.class_count, "class out of range");
        self.size_val[n.index() * self.class_count + class.index()]
    }

    /// The datapath portion of `n`'s size weight on `class`, when the
    /// frontend recorded a datapath/control split.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `class` did not come from the compiled design.
    pub fn size_datapath(&self, n: NodeId, class: ClassId) -> Option<u64> {
        assert!(class.index() < self.class_count, "class out of range");
        self.size_datapath[n.index() * self.class_count + class.index()]
    }

    // ---- components ---------------------------------------------------

    /// The technology kind of `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` did not come from the compiled design.
    pub fn class_kind(&self, class: ClassId) -> ClassKind {
        self.class_kind[class.index()]
    }

    /// Whether `pm` names a component that exists in the design.
    pub fn pm_exists(&self, pm: PmRef) -> bool {
        match pm {
            PmRef::Processor(p) => p.index() < self.processor_count,
            PmRef::Memory(m) => m.index() < self.memory_count,
        }
    }

    /// The class of a processor-or-memory component.
    ///
    /// # Panics
    ///
    /// Panics if `pm` did not come from the compiled design.
    pub fn component_class(&self, pm: PmRef) -> ClassId {
        self.pm_class[self.pm_index(pm)]
    }

    /// Dense index of a component: processors first, then memories.
    ///
    /// Matches the slot layout estimators use for per-component caches.
    pub fn pm_index(&self, pm: PmRef) -> usize {
        match pm {
            PmRef::Processor(p) => p.index(),
            PmRef::Memory(m) => self.processor_count + m.index(),
        }
    }

    /// The component at dense index `i` (inverse of
    /// [`pm_index`](Self::pm_index)).
    ///
    /// # Panics
    ///
    /// Panics if `i` is at least `processor_count + memory_count`.
    pub fn pm_of_index(&self, i: usize) -> PmRef {
        if i < self.processor_count {
            PmRef::Processor(crate::ids::ProcessorId::from_raw(i as u32))
        } else {
            assert!(i - self.processor_count < self.memory_count, "pm index out of range");
            PmRef::Memory(MemoryId::from_raw((i - self.processor_count) as u32))
        }
    }

    /// Number of processor-or-memory components.
    pub fn pm_count(&self) -> usize {
        self.processor_count + self.memory_count
    }

    /// Iterates over all processor-or-memory component references in the
    /// same order as [`Design::pm_refs`]: processors, then memories.
    pub fn pm_refs(&self) -> impl Iterator<Item = PmRef> + '_ {
        (0..self.processor_count as u32)
            .map(|p| PmRef::Processor(crate::ids::ProcessorId::from_raw(p)))
            .chain((0..self.memory_count as u32).map(|m| PmRef::Memory(MemoryId::from_raw(m))))
    }

    /// The size constraint of component `pm`, if constrained.
    ///
    /// # Panics
    ///
    /// Panics if `pm` did not come from the compiled design.
    pub fn size_constraint(&self, pm: PmRef) -> Option<u64> {
        match pm {
            PmRef::Processor(p) => self.proc_size_constraint[p.index()],
            PmRef::Memory(m) => self.mem_size_constraint[m.index()],
        }
    }

    /// The pin constraint of processor `p`, if constrained.
    ///
    /// # Panics
    ///
    /// Panics if `p` did not come from the compiled design.
    pub fn pin_constraint(&self, p: crate::ids::ProcessorId) -> Option<u32> {
        self.proc_pin_constraint[p.index()]
    }

    // ---- buses --------------------------------------------------------

    /// Number of physical wires of bus `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` did not come from the compiled design.
    pub fn bus_bitwidth(&self, b: BusId) -> u32 {
        self.bus_bitwidth[b.index()]
    }

    /// Maximum sustainable bitrate of bus `b`, if modelled.
    ///
    /// # Panics
    ///
    /// Panics if `b` did not come from the compiled design.
    pub fn bus_capacity(&self, b: BusId) -> Option<f64> {
        self.bus_capacity[b.index()]
    }

    /// Time for one access of `bits` bits over bus `b`, on the same
    /// component (`same == true`) or across components — identical to
    /// [`Bus::access_time`](crate::Bus::access_time).
    ///
    /// # Panics
    ///
    /// Panics if `b` did not come from the compiled design or the bus has
    /// zero bitwidth (callers check and report
    /// [`CoreError::ZeroBitwidthBus`] first).
    pub fn bus_access_time(&self, b: BusId, bits: u32, same: bool) -> u64 {
        let i = b.index();
        let transfers = u64::from(bits.div_ceil(self.bus_bitwidth[i])).max(1);
        transfers * if same { self.bus_ts[i] } else { self.bus_td[i] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::DesignGenerator;

    fn compiled(seed: u64) -> (Design, CompiledDesign) {
        let (design, _) = DesignGenerator::new(seed)
            .behaviors(12)
            .variables(9)
            .processors(2)
            .memories(1)
            .build();
        let cd = CompiledDesign::compile(&design);
        (design, cd)
    }

    #[test]
    fn counts_match_design() {
        let (d, cd) = compiled(1);
        assert_eq!(cd.node_count(), d.graph().node_count());
        assert_eq!(cd.port_count(), d.graph().port_count());
        assert_eq!(cd.channel_count(), d.graph().channel_count());
        assert_eq!(cd.class_count(), d.class_count());
        assert_eq!(cd.processor_count(), d.processor_count());
        assert_eq!(cd.memory_count(), d.memory_count());
        assert_eq!(cd.bus_count(), d.bus_count());
    }

    #[test]
    fn csr_adjacency_matches_graph_order() {
        let (d, cd) = compiled(2);
        for n in d.graph().node_ids() {
            let out: Vec<_> = d.graph().channels_of(n).collect();
            assert_eq!(cd.channels_of(n), &out[..]);
            let inc: Vec<_> = d.graph().accessors_of(n).collect();
            assert_eq!(cd.accessors_of(n), &inc[..]);
        }
        for p in d.graph().port_ids() {
            let acc: Vec<_> = d.graph().port_accessors(p).collect();
            assert_eq!(cd.port_accessors(p), &acc[..]);
        }
    }

    #[test]
    fn channel_slabs_match_channels() {
        let (d, cd) = compiled(3);
        for c in d.graph().channel_ids() {
            let ch = d.graph().channel(c);
            assert_eq!(cd.chan_src(c), ch.src());
            assert_eq!(cd.chan_dst(c), ch.dst());
            assert_eq!(cd.chan_kind(c), ch.kind());
            assert_eq!(cd.chan_bits(c), ch.bits());
            assert_eq!(cd.chan_freq(c), ch.freq());
            assert_eq!(cd.chan_tag(c), ch.tag());
        }
    }

    /// After any annotation-only mutation, the patched view must be
    /// `==` a fresh compile, and the returned dirty set must name
    /// exactly the affected nodes.
    #[test]
    fn patch_annotations_matches_fresh_compile() {
        for seed in [5u64, 6, 7, 8] {
            let (mut d, mut cd) = compiled(seed);
            // Mutate one channel's frequency+bits and one node's
            // weights.
            let c = d.graph().channel_ids().next().expect("has channels");
            let src = d.graph().channel(c).src();
            d.graph_mut().channel_mut(c).set_bits(77);
            d.graph_mut().channel_mut(c).freq_mut().avg += 3.0;
            let n = d
                .graph()
                .node_ids()
                .last()
                .expect("has nodes");
            let class = d.class_ids().next().expect("has classes");
            d.graph_mut().node_mut(n).ict_mut().set(class, 4242);
            let dirty = cd.patch_annotations_from(&d).expect("topology unchanged");
            assert_eq!(cd, CompiledDesign::compile(&d), "seed {seed}");
            assert!(dirty.contains(&src), "channel source dirty (seed {seed})");
            assert!(
                dirty.contains(&n) || n == src,
                "reweighted node dirty (seed {seed})"
            );
        }
    }

    #[test]
    fn patch_annotations_noop_reports_nothing_dirty() {
        let (d, mut cd) = compiled(9);
        let before = cd.clone();
        let dirty = cd.patch_annotations_from(&d).expect("identical design");
        assert!(dirty.is_empty());
        assert_eq!(cd, before);
    }

    #[test]
    fn patch_annotations_rejects_topology_changes() {
        let (mut d, mut cd) = compiled(10);
        let before = cd.clone();
        d.graph_mut().add_node("late_arrival", NodeKind::process());
        let err = cd.patch_annotations_from(&d).expect_err("extra node");
        assert!(matches!(err, CoreError::InvalidInput { .. }));
        assert_eq!(cd, before, "view untouched on error");
    }

    #[test]
    fn dense_tables_match_weight_lists() {
        let (d, cd) = compiled(4);
        for n in d.graph().node_ids() {
            let node = d.graph().node(n);
            for k in d.class_ids() {
                assert_eq!(cd.ict_weight(n, k), node.ict().get(k));
                assert_eq!(cd.size_weight(n, k), node.size().get(k));
                assert_eq!(
                    cd.size_datapath(n, k),
                    node.size().entry(k).and_then(|e| e.datapath)
                );
            }
        }
    }

    #[test]
    fn traversals_match_graph() {
        let (d, cd) = compiled(5);
        assert_eq!(
            cd.behaviors_bottom_up().unwrap(),
            &d.graph().behaviors_bottom_up().unwrap()[..]
        );
        for n in d.graph().node_ids() {
            assert_eq!(cd.dependents_of(n), d.graph().dependents_of(n));
        }
        let procs: Vec<_> = d
            .graph()
            .node_ids()
            .filter(|&n| d.graph().node(n).kind().is_process())
            .collect();
        assert_eq!(cd.process_nodes(), &procs[..]);
    }

    #[test]
    fn name_lookup_matches_graph() {
        let (d, cd) = compiled(6);
        for n in d.graph().node_ids() {
            let name = d.graph().node(n).name();
            assert_eq!(cd.node_name(n), name);
            assert_eq!(cd.node_by_name(name), Some(n));
            assert_eq!(cd.port_by_name(name), None);
        }
        for p in d.graph().port_ids() {
            let name = d.graph().port(p).name();
            assert_eq!(cd.port_name(p), name);
            assert_eq!(cd.port_by_name(name), Some(p));
            assert_eq!(cd.node_by_name(name), None);
        }
        assert_eq!(cd.node_by_name("no such object"), None);
    }

    #[test]
    fn component_and_bus_slabs_match_design() {
        let (d, cd) = compiled(7);
        for pm in d.pm_refs() {
            assert!(cd.pm_exists(pm));
            assert_eq!(cd.component_class(pm), d.component_class(pm));
            assert_eq!(cd.pm_of_index(cd.pm_index(pm)), pm);
            let want = match pm {
                PmRef::Processor(p) => d.processor(p).size_constraint(),
                PmRef::Memory(m) => d.memory(m).size_constraint(),
            };
            assert_eq!(cd.size_constraint(pm), want);
        }
        let pm_order: Vec<_> = cd.pm_refs().collect();
        assert_eq!(pm_order, d.pm_refs().collect::<Vec<_>>());
        for p in d.processor_ids() {
            assert_eq!(cd.pin_constraint(p), d.processor(p).pin_constraint());
        }
        for k in d.class_ids() {
            assert_eq!(cd.class_kind(k), d.class(k).kind());
        }
        for b in d.bus_ids() {
            assert_eq!(cd.bus_bitwidth(b), d.bus(b).bitwidth());
            assert_eq!(cd.bus_capacity(b), d.bus(b).capacity());
            for bits in [0, 1, 7, 16, 33] {
                assert_eq!(cd.bus_access_time(b, bits, true), d.bus(b).access_time(bits, true));
                assert_eq!(
                    cd.bus_access_time(b, bits, false),
                    d.bus(b).access_time(bits, false)
                );
            }
        }
    }

    #[test]
    fn recursive_designs_compile_with_stored_error() {
        use crate::{AccessKind, ClassKind, NodeKind};
        let mut d = Design::new("rec");
        d.add_class("p", ClassKind::StdProcessor);
        let a = d.graph_mut().add_node("A", NodeKind::process());
        let b = d.graph_mut().add_node("B", NodeKind::procedure());
        d.graph_mut().add_channel(a, b.into(), AccessKind::Call).unwrap();
        d.graph_mut().add_channel(b, a.into(), AccessKind::Call).unwrap();
        let cd = CompiledDesign::compile(&d);
        assert!(matches!(
            cd.behaviors_bottom_up(),
            Err(CoreError::RecursiveAccess { .. })
        ));
    }
}
