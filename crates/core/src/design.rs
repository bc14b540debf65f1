//! A complete SLIF design: the paper's sextuple
//! `< BV_all, IO_all, C_all, P_all, M_all, I_all >`.
//!
//! [`Design`] pairs the functional side (an [`AccessGraph`]) with the
//! structural side: a class table (technology types against which node
//! weights are recorded) and the allocated processor, memory, and bus
//! instances. The *mapping* of functional objects to components lives in
//! [`Partition`](crate::Partition) so that one design can be evaluated
//! under many candidate partitions.

use crate::compiled::CompiledDesign;
use crate::component::{Bus, ClassKind, ComponentClass, Memory, Processor};
use crate::graph::AccessGraph;
use crate::ids::{BusId, ClassId, MemoryId, PmRef, ProcessorId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A SLIF design: functional objects plus allocated system components.
///
/// # Examples
///
/// ```
/// use slif_core::{AccessKind, Bus, ClassKind, Design, NodeKind};
///
/// let mut d = Design::new("demo");
/// let proc_class = d.add_class("proc8", ClassKind::StdProcessor);
/// let asic_class = d.add_class("asic", ClassKind::CustomHw);
///
/// let main = d.graph_mut().add_node("Main", NodeKind::process());
/// let conv = d.graph_mut().add_node("Convolve", NodeKind::procedure());
/// d.graph_mut().add_channel(main, conv.into(), AccessKind::Call)?;
///
/// let cpu = d.add_processor("cpu0", proc_class);
/// let asic = d.add_processor("asic0", asic_class);
/// let bus = d.add_bus(Bus::new("mainbus", 16, 1, 4));
/// assert_eq!(d.processor_count(), 2);
/// # let _ = (cpu, asic, bus);
/// # Ok::<(), slif_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Design {
    name: String,
    classes: Vec<ComponentClass>,
    graph: AccessGraph,
    processors: Vec<Processor>,
    memories: Vec<Memory>,
    buses: Vec<Bus>,
    #[serde(skip)]
    compiled: CompiledCache,
}

/// [`Design::compiled`]'s cache. It is a function of the other fields, so
/// it compares equal, prints nothing, and clones by sharing.
#[derive(Clone, Default)]
struct CompiledCache(OnceLock<Arc<CompiledDesign>>);

impl PartialEq for CompiledCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl fmt::Debug for CompiledCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("CompiledCache")
    }
}

impl Design {
    /// Creates an empty design.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The functional-object side.
    pub fn graph(&self) -> &AccessGraph {
        &self.graph
    }

    /// The design's [`CompiledDesign`], compiled on first use and shared
    /// until the design changes: every `&mut self` method drops it. The
    /// estimators that take a `&Design` read it, so estimating many
    /// partitions of one design compiles it once.
    pub fn compiled(&self) -> &CompiledDesign {
        self.compiled
            .0
            .get_or_init(|| Arc::new(CompiledDesign::compile(self)))
    }

    /// Drops the cached compiled view; every `&mut self` method calls it.
    fn changed(&mut self) {
        self.compiled = CompiledCache::default();
    }

    /// Mutable access to the functional-object side.
    pub fn graph_mut(&mut self) -> &mut AccessGraph {
        self.changed();
        &mut self.graph
    }

    /// Registers a component class (technology type) and returns its id.
    pub fn add_class(&mut self, name: impl Into<String>, kind: ClassKind) -> ClassId {
        self.changed();
        let id = ClassId(self.classes.len() as u32);
        self.classes.push(ComponentClass::new(name, kind));
        id
    }

    /// The class with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this design.
    pub fn class(&self, id: ClassId) -> &ComponentClass {
        &self.classes[id.index()]
    }

    /// Looks up a class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.classes
            .iter()
            .position(|c| c.name() == name)
            .map(|i| ClassId(i as u32))
    }

    /// Iterates over all class ids.
    pub fn class_ids(&self) -> impl Iterator<Item = ClassId> + '_ {
        (0..self.classes.len() as u32).map(ClassId)
    }

    /// Number of registered classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Allocates a processor instance of the given class.
    ///
    /// # Panics
    ///
    /// Panics if `class` is a memory class or does not come from this
    /// design.
    pub fn add_processor(&mut self, name: impl Into<String>, class: ClassId) -> ProcessorId {
        assert!(
            self.class(class).kind().holds_behaviors(),
            "processor instances need a std-processor or custom-hw class"
        );
        self.add_processor_instance(Processor::new(name, class))
    }

    /// Allocates a fully configured processor instance.
    ///
    /// # Panics
    ///
    /// Panics if the processor's class is a memory class.
    pub fn add_processor_instance(&mut self, processor: Processor) -> ProcessorId {
        assert!(
            self.class(processor.class()).kind().holds_behaviors(),
            "processor instances need a std-processor or custom-hw class"
        );
        self.changed();
        let id = ProcessorId(self.processors.len() as u32);
        self.processors.push(processor);
        id
    }

    /// Allocates a memory instance of the given class.
    ///
    /// # Panics
    ///
    /// Panics if `class` is not a memory class.
    pub fn add_memory(&mut self, name: impl Into<String>, class: ClassId) -> MemoryId {
        self.add_memory_instance(Memory::new(name, class))
    }

    /// Allocates a fully configured memory instance.
    ///
    /// # Panics
    ///
    /// Panics if the memory's class is not a memory class.
    pub fn add_memory_instance(&mut self, memory: Memory) -> MemoryId {
        assert!(
            self.class(memory.class()).kind() == ClassKind::Memory,
            "memory instances need a memory class"
        );
        self.changed();
        let id = MemoryId(self.memories.len() as u32);
        self.memories.push(memory);
        id
    }

    /// Allocates a bus instance.
    pub fn add_bus(&mut self, bus: Bus) -> BusId {
        self.changed();
        let id = BusId(self.buses.len() as u32);
        self.buses.push(bus);
        id
    }

    /// The processor with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this design.
    pub fn processor(&self, id: ProcessorId) -> &Processor {
        &self.processors[id.index()]
    }

    /// The memory with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this design.
    pub fn memory(&self, id: MemoryId) -> &Memory {
        &self.memories[id.index()]
    }

    /// The bus with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this design.
    pub fn bus(&self, id: BusId) -> &Bus {
        &self.buses[id.index()]
    }

    /// Mutable access to a bus (fault injection only: the setter it exposes
    /// can break the bitwidth invariant on purpose).
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this design.
    pub(crate) fn bus_mut(&mut self, id: BusId) -> &mut Bus {
        self.changed();
        &mut self.buses[id.index()]
    }

    /// The class of a processor-or-memory component: the key into node
    /// weight lists for objects mapped to it.
    ///
    /// # Panics
    ///
    /// Panics if `pm` did not come from this design.
    pub fn component_class(&self, pm: PmRef) -> ClassId {
        match pm {
            PmRef::Processor(p) => self.processor(p).class(),
            PmRef::Memory(m) => self.memory(m).class(),
        }
    }

    /// Looks up a processor by name.
    pub fn processor_by_name(&self, name: &str) -> Option<ProcessorId> {
        self.processors
            .iter()
            .position(|p| p.name() == name)
            .map(|i| ProcessorId(i as u32))
    }

    /// Looks up a memory by name.
    pub fn memory_by_name(&self, name: &str) -> Option<MemoryId> {
        self.memories
            .iter()
            .position(|m| m.name() == name)
            .map(|i| MemoryId(i as u32))
    }

    /// Looks up a bus by name.
    pub fn bus_by_name(&self, name: &str) -> Option<BusId> {
        self.buses
            .iter()
            .position(|b| b.name() == name)
            .map(|i| BusId(i as u32))
    }

    /// Number of allocated processors (`|P_all|`).
    pub fn processor_count(&self) -> usize {
        self.processors.len()
    }

    /// Number of allocated memories (`|M_all|`).
    pub fn memory_count(&self) -> usize {
        self.memories.len()
    }

    /// Number of allocated buses (`|I_all|`).
    pub fn bus_count(&self) -> usize {
        self.buses.len()
    }

    /// Iterates over all processor ids.
    pub fn processor_ids(&self) -> impl Iterator<Item = ProcessorId> + '_ {
        (0..self.processors.len() as u32).map(ProcessorId)
    }

    /// Iterates over all memory ids.
    pub fn memory_ids(&self) -> impl Iterator<Item = MemoryId> + '_ {
        (0..self.memories.len() as u32).map(MemoryId)
    }

    /// Iterates over all bus ids.
    pub fn bus_ids(&self) -> impl Iterator<Item = BusId> + '_ {
        (0..self.buses.len() as u32).map(BusId)
    }

    /// Iterates over all processor-or-memory component references.
    pub fn pm_refs(&self) -> impl Iterator<Item = PmRef> + '_ {
        self.processor_ids()
            .map(PmRef::Processor)
            .chain(self.memory_ids().map(PmRef::Memory))
    }
}

impl fmt::Display for Design {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "design {}: {} nodes, {} channels, {} procs, {} mems, {} buses",
            self.name,
            self.graph.node_count(),
            self.graph.channel_count(),
            self.processors.len(),
            self.memories.len(),
            self.buses.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::AccessKind;
    use crate::node::NodeKind;

    fn design_with_classes() -> (Design, ClassId, ClassId, ClassId) {
        let mut d = Design::new("t");
        let pc = d.add_class("proc8", ClassKind::StdProcessor);
        let ac = d.add_class("asic", ClassKind::CustomHw);
        let mc = d.add_class("sram", ClassKind::Memory);
        (d, pc, ac, mc)
    }

    #[test]
    fn compiled_view_follows_every_change() {
        let (mut d, pc, ac, mc) = design_with_classes();
        let main = d.graph_mut().add_node("Main", NodeKind::process());
        assert_eq!(*d.compiled(), CompiledDesign::compile(&d));
        let snapshot = d.clone();
        assert!(std::ptr::eq(snapshot.compiled(), d.compiled()));

        let v = d.graph_mut().add_node("v", NodeKind::scalar(8));
        assert_eq!(*d.compiled(), CompiledDesign::compile(&d));
        d.graph_mut()
            .add_channel(main, v.into(), AccessKind::Read)
            .unwrap();
        assert_eq!(d.compiled().channel_count(), 1);
        d.add_class("fpga", ClassKind::CustomHw);
        assert_eq!(*d.compiled(), CompiledDesign::compile(&d));
        d.add_processor("cpu0", pc);
        d.add_processor("asic0", ac);
        assert_eq!(d.compiled().processor_count(), 2);
        d.add_memory("ram0", mc);
        assert_eq!(d.compiled().memory_count(), 1);
        let bus = d.add_bus(Bus::new("b", 8, 1, 2));
        assert_eq!(d.compiled().bus_bitwidth(bus), 8);
        d.bus_mut(bus).set_bitwidth_unchecked(16);
        assert_eq!(*d.compiled(), CompiledDesign::compile(&d));

        // The clone taken earlier kept its own, older view.
        assert_eq!(*snapshot.compiled(), CompiledDesign::compile(&snapshot));
        assert_eq!(snapshot.compiled().node_count(), 1);
    }

    #[test]
    fn the_compiled_view_does_not_affect_equality() {
        let (d, ..) = design_with_classes();
        let fresh = d.clone();
        d.compiled();
        assert_eq!(d, fresh);
        assert_eq!(format!("{d:?}"), format!("{fresh:?}"));
    }

    #[test]
    fn classes_register_and_lookup() {
        let (d, pc, ac, mc) = design_with_classes();
        assert_eq!(d.class_count(), 3);
        assert_eq!(d.class_by_name("asic"), Some(ac));
        assert_eq!(d.class_by_name("proc8"), Some(pc));
        assert_eq!(d.class_by_name("sram"), Some(mc));
        assert_eq!(d.class_by_name("nope"), None);
        assert_eq!(d.class(pc).kind(), ClassKind::StdProcessor);
    }

    #[test]
    fn components_allocate_and_lookup() {
        let (mut d, pc, ac, mc) = design_with_classes();
        let cpu = d.add_processor("cpu0", pc);
        let asic = d.add_processor("asic0", ac);
        let ram = d.add_memory("ram0", mc);
        let bus = d.add_bus(Bus::new("b0", 16, 1, 4));
        assert_eq!(d.processor_by_name("asic0"), Some(asic));
        assert_eq!(d.memory_by_name("ram0"), Some(ram));
        assert_eq!(d.bus_by_name("b0"), Some(bus));
        assert_eq!(d.component_class(cpu.into()), pc);
        assert_eq!(d.component_class(ram.into()), mc);
        assert_eq!(d.pm_refs().count(), 3);
    }

    #[test]
    #[should_panic(expected = "memory class")]
    fn memory_with_processor_class_rejected() {
        let (mut d, pc, _ac, _mc) = design_with_classes();
        d.add_memory("bad", pc);
    }

    #[test]
    #[should_panic(expected = "custom-hw class")]
    fn processor_with_memory_class_rejected() {
        let (mut d, _pc, _ac, mc) = design_with_classes();
        d.add_processor("bad", mc);
    }

    #[test]
    fn display_summarizes() {
        let (mut d, pc, _ac, _mc) = design_with_classes();
        let a = d.graph_mut().add_node("A", NodeKind::process());
        let b = d.graph_mut().add_node("B", NodeKind::procedure());
        d.graph_mut()
            .add_channel(a, b.into(), AccessKind::Call)
            .unwrap();
        d.add_processor("cpu", pc);
        let s = d.to_string();
        assert!(s.contains("2 nodes"));
        assert!(s.contains("1 channels"));
        assert!(s.contains("1 procs"));
    }
}
