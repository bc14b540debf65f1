//! SLIF construction: resolved specification → annotated design.
//!
//! This is the paper's "T-slif" step (Figure 4): performed once when the
//! system-design tool starts, it creates the access graph, computes every
//! channel's access frequency and bit count, and pre-compiles /
//! pre-synthesizes every behavior against every component class in the
//! technology library so that all later estimation is lookup-and-sum.

use crate::bits::{expr_bits, object_access_bits};
use slif_cdfg::{access_frequencies, lower_spec, Access, Cdfg, OpKind};
use slif_core::{
    AccessFreq, AccessKind, AccessTarget, Bus, BusId, ClassId, ClassKind, ConcurrencyTag, Design,
    MemoryId, NodeKind, Partition, PmRef, PortDirection, ProcessorId, WeightEntry,
};
use slif_speclang::ast::{BehaviorKind, Direction, Stmt};
use slif_speclang::{ResolvedSpec, SpecError};
use slif_techlib::{compile_behavior, synthesize_behavior, TechnologyLibrary};

/// Builds a fully annotated SLIF design from a resolved specification and
/// a technology library.
///
/// Each library model becomes a component class; every behavior node gets
/// an `ict`/`size` weight per processor and custom-hardware class, every
/// variable node per class including memories. Channels carry profiled
/// `accfreq` (average/min/max), bits per access, and fork-derived
/// concurrency tags.
///
/// # Examples
///
/// ```
/// use slif_frontend::build_design;
/// use slif_techlib::TechnologyLibrary;
///
/// let rs = slif_speclang::parse_and_resolve(
///     "system T;\nvar x : int<8>;\nprocess Main { x = x + 1; }",
/// )?;
/// let design = build_design(&rs, &TechnologyLibrary::proc_asic());
/// assert_eq!(design.graph().node_count(), 2);
/// assert_eq!(design.graph().channel_count(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn build_design(rs: &ResolvedSpec, lib: &TechnologyLibrary) -> Design {
    build_design_with(rs, lib, &BuildOptions::default())
}

/// Options for SLIF construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct BuildOptions {
    /// Derive concurrency tags from the ASIC schedule as well as from
    /// `fork` blocks: "such information can be estimated by scheduling the
    /// contents of the behavior ... we therefore create the channel tags
    /// from that schedule" (Section 2.4.1). Accesses to distinct objects
    /// that the list scheduler starts in the same cycle get a shared tag.
    pub schedule_tags: bool,
}

/// Builds a design with explicit [`BuildOptions`].
pub fn build_design_with(rs: &ResolvedSpec, lib: &TechnologyLibrary, options: &BuildOptions) -> Design {
    // Per-behavior CDFGs drive both profiling and weight preprocessing.
    let cdfgs = lower_spec(rs);
    let artifacts: Vec<BehaviorArtifacts> = cdfgs
        .iter()
        .map(|g| compute_artifacts(g, lib))
        .collect();
    build_design_core(rs, lib, options, &artifacts, Some(&cdfgs))
}

/// Everything SLIF construction derives from one behavior's CDFG: the
/// pre-compiled / pre-synthesized weights per library model, and the
/// profiled access summary. This is the expensive per-behavior slice of
/// the build — [`BuildCache`](crate::BuildCache) keeps it warm across
/// incremental rebuilds so an edit to one behavior recomputes one entry.
///
/// Weights are positional: `proc_weights[i]` pairs with
/// `lib.processors[i]`, `asic_weights[i]` with `lib.asics[i]`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BehaviorArtifacts {
    /// `(ict, size)` per processor model.
    pub proc_weights: Vec<(u64, u64)>,
    /// `(ict, size, datapath)` per ASIC model.
    pub asic_weights: Vec<(u64, u64, Option<u64>)>,
    /// Profiled system accesses, in [`access_frequencies`] order.
    pub accesses: Vec<slif_cdfg::AccessSummary>,
}

/// Runs the paper's per-behavior preprocessing: compile against every
/// processor model, synthesize against every ASIC model, profile access
/// frequencies.
pub(crate) fn compute_artifacts(g: &Cdfg, lib: &TechnologyLibrary) -> BehaviorArtifacts {
    BehaviorArtifacts {
        proc_weights: lib
            .processors
            .iter()
            .map(|m| {
                let w = compile_behavior(g, m);
                (w.ict, w.size)
            })
            .collect(),
        asic_weights: lib
            .asics
            .iter()
            .map(|m| {
                let r = synthesize_behavior(g, m);
                (r.weights.ict, r.weights.size, r.weights.datapath)
            })
            .collect(),
        accesses: access_frequencies(g),
    }
}

/// The shared tail of [`build_design_with`] and the cached rebuild path:
/// everything downstream of the per-behavior artifacts. `artifacts` is
/// positional with `rs.spec().behaviors`; `cdfgs` is only consulted when
/// `options.schedule_tags` asks for schedule-derived concurrency tags.
pub(crate) fn build_design_core(
    rs: &ResolvedSpec,
    lib: &TechnologyLibrary,
    options: &BuildOptions,
    artifacts: &[BehaviorArtifacts],
    cdfgs: Option<&[Cdfg]>,
) -> Design {
    let spec = rs.spec();
    let mut d = Design::new(spec.name.clone());

    // Component classes, processors → ASICs → memories.
    let proc_classes: Vec<ClassId> = lib
        .processors
        .iter()
        .map(|m| d.add_class(&m.name, ClassKind::StdProcessor))
        .collect();
    let asic_classes: Vec<ClassId> = lib
        .asics
        .iter()
        .map(|m| d.add_class(&m.name, ClassKind::CustomHw))
        .collect();
    let mem_classes: Vec<ClassId> = lib
        .memories
        .iter()
        .map(|m| d.add_class(&m.name, ClassKind::Memory))
        .collect();

    // Functional objects. Resolution guarantees unique names on
    // well-formed specs; after parser error recovery a duplicate can
    // survive, in which case the first object wins and the rest are
    // skipped — the same degrade-don't-abort policy build_channels
    // applies to unresolvable access targets.
    for p in &spec.ports {
        let dir = match p.direction {
            Direction::In => PortDirection::In,
            Direction::Out => PortDirection::Out,
            Direction::Inout => PortDirection::InOut,
        };
        let _ = d.graph_mut().try_add_port(&p.name, dir, p.ty.access_bits());
    }
    for b in &spec.behaviors {
        let kind = if b.kind == BehaviorKind::Process {
            NodeKind::process()
        } else {
            NodeKind::procedure()
        };
        let _ = d.graph_mut().try_add_node(&b.name, kind);
    }
    for v in &spec.vars {
        let (words, word_bits) = v.ty.storage();
        let _ = d
            .graph_mut()
            .try_add_node(&v.name, NodeKind::array(words, word_bits));
    }

    annotate_behavior_weights(&mut d, rs, artifacts, &proc_classes, &asic_classes);
    annotate_variable_weights(&mut d, rs, lib, &proc_classes, &asic_classes, &mem_classes);
    build_channels(&mut d, rs, artifacts);
    tag_fork_concurrency(&mut d, rs);
    if options.schedule_tags {
        if let Some(model) = lib.asics.first() {
            if let Some(cdfgs) = cdfgs {
                tag_schedule_concurrency(&mut d, cdfgs, model);
            }
        }
    }

    d
}

/// Tags channels whose accesses the ASIC list scheduler starts in the
/// same cycle: they "could be accessed concurrently". A channel keeps its
/// first tag (fork tags, assigned earlier, take precedence).
fn tag_schedule_concurrency(
    d: &mut Design,
    cdfgs: &[Cdfg],
    model: &slif_techlib::AsicModel,
) {
    // Continue numbering after the fork tags.
    let mut next_tag = d
        .graph()
        .channel_ids()
        .filter_map(|c| d.graph().channel(c).tag().id())
        .max()
        .map_or(0, |t| t + 1);
    for g in cdfgs {
        let Some(src) = d.graph().node_by_name(g.name()) else {
            continue;
        };
        let result = slif_techlib::synthesize_behavior(g, model);
        for (block, sched) in g.block_ids().zip(&result.schedules) {
            for group in sched.concurrent_groups(&g.block(block).ops) {
                // Distinct system-access targets started together.
                let mut targets: Vec<&str> = group
                    .iter()
                    .filter_map(|&op| match &g.op(op).kind {
                        OpKind::ReadGlobal(n)
                        | OpKind::WriteGlobal(n)
                        | OpKind::ReadGlobalArray(n)
                        | OpKind::WriteGlobalArray(n)
                        | OpKind::ReadPort(n)
                        | OpKind::WritePort(n)
                        | OpKind::Call(n)
                        | OpKind::SendMsg(n) => Some(n.as_str()),
                        _ => None,
                    })
                    .collect();
                targets.sort_unstable();
                targets.dedup();
                if targets.len() < 2 {
                    continue;
                }
                let tag = ConcurrencyTag::group(next_tag);
                next_tag += 1;
                for target in targets {
                    let dst: Option<AccessTarget> =
                        if let Some(n) = d.graph().node_by_name(target) {
                            Some(n.into())
                        } else {
                            d.graph().port_by_name(target).map(Into::into)
                        };
                    let Some(dst) = dst else { continue };
                    for kind in [
                        AccessKind::Read,
                        AccessKind::Write,
                        AccessKind::Call,
                        AccessKind::Message,
                    ] {
                        if let Some(c) = d.graph().find_channel(src, dst, kind) {
                            if !d.graph().channel(c).tag().is_concurrent() {
                                d.graph_mut().channel_mut(c).set_tag(tag);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Parses, resolves, and builds in one step.
///
/// # Errors
///
/// A [`SpecError`] with parse or resolution diagnostics.
pub fn build_from_source(source: &str, lib: &TechnologyLibrary) -> Result<Design, SpecError> {
    let rs = slif_speclang::parse_and_resolve(source)?;
    Ok(build_design(&rs, lib))
}

fn annotate_behavior_weights(
    d: &mut Design,
    rs: &ResolvedSpec,
    artifacts: &[BehaviorArtifacts],
    proc_classes: &[ClassId],
    asic_classes: &[ClassId],
) {
    for (b, art) in rs.spec().behaviors.iter().zip(artifacts) {
        // A behavior skipped as a duplicate (or shadowed by a port of the
        // same name) has no node of its own: skip its weights too.
        let Some(node) = d.graph().node_by_name(&b.name) else {
            continue;
        };
        for (&(ict, size), &class) in art.proc_weights.iter().zip(proc_classes) {
            d.graph_mut().node_mut(node).ict_mut().set(class, ict);
            d.graph_mut().node_mut(node).size_mut().set(class, size);
        }
        for (&(ict, size, datapath), &class) in art.asic_weights.iter().zip(asic_classes) {
            d.graph_mut().node_mut(node).ict_mut().set(class, ict);
            let entry = match datapath {
                Some(dp) => WeightEntry::with_datapath(class, size, dp),
                None => WeightEntry::new(class, size),
            };
            d.graph_mut().node_mut(node).size_mut().insert(entry);
        }
    }
}

fn annotate_variable_weights(
    d: &mut Design,
    rs: &ResolvedSpec,
    lib: &TechnologyLibrary,
    proc_classes: &[ClassId],
    asic_classes: &[ClassId],
    mem_classes: &[ClassId],
) {
    for v in &rs.spec().vars {
        let Some(node) = d.graph().node_by_name(&v.name) else {
            continue;
        };
        let (words, word_bits) = v.ty.storage();
        for (model, &class) in lib.processors.iter().zip(proc_classes) {
            let w = model.variable(words, word_bits);
            d.graph_mut()
                .node_mut(node)
                .ict_mut()
                .set(class, w.access_time);
            d.graph_mut().node_mut(node).size_mut().set(class, w.size);
        }
        for (model, &class) in lib.asics.iter().zip(asic_classes) {
            let w = model.variable(words, word_bits);
            d.graph_mut()
                .node_mut(node)
                .ict_mut()
                .set(class, w.access_time);
            d.graph_mut().node_mut(node).size_mut().set(class, w.size);
        }
        for (model, &class) in lib.memories.iter().zip(mem_classes) {
            let w = model.variable(words, word_bits);
            d.graph_mut()
                .node_mut(node)
                .ict_mut()
                .set(class, w.access_time);
            d.graph_mut().node_mut(node).size_mut().set(class, w.size);
        }
    }
}

fn build_channels(d: &mut Design, rs: &ResolvedSpec, artifacts: &[BehaviorArtifacts]) {
    for (bi, (b, art)) in rs.spec().behaviors.iter().zip(artifacts).enumerate() {
        let Some(src) = d.graph().node_by_name(&b.name) else {
            continue;
        };
        for summary in &art.accesses {
            let dst: AccessTarget = if let Some(n) = d.graph().node_by_name(&summary.target) {
                n.into()
            } else if let Some(p) = d.graph().port_by_name(&summary.target) {
                p.into()
            } else {
                // Resolution binds every accessed name on a well-formed
                // spec; a partial spec (error recovery) can leave gaps.
                // Skip the access rather than abort the whole build.
                continue;
            };
            let kind = match summary.access {
                Access::Read => AccessKind::Read,
                Access::Write => AccessKind::Write,
                Access::Call => AccessKind::Call,
                Access::Message => AccessKind::Message,
            };
            let bits = match summary.access {
                Access::Message => message_bits(rs, bi, &summary.target),
                _ => object_access_bits(rs, &summary.target).unwrap_or(1),
            };
            let Ok(c) = d.graph_mut().add_channel(src, dst, kind) else {
                // Kind/target mismatch on a degenerate spec: drop the access.
                continue;
            };
            let ch = d.graph_mut().channel_mut(c);
            *ch.freq_mut() = AccessFreq::new(summary.avg, summary.min, summary.max);
            ch.set_bits(bits);
        }
    }
}

/// The encoding width of messages `behavior` sends to `target`: the widest
/// payload expression among its `send target …;` statements.
pub(crate) fn message_bits(rs: &ResolvedSpec, behavior: usize, target: &str) -> u32 {
    fn walk(rs: &ResolvedSpec, behavior: usize, target: &str, stmts: &[Stmt], best: &mut u32) {
        for stmt in stmts {
            match stmt {
                Stmt::Send {
                    target: t, value, ..
                } if t == target => {
                    *best = (*best).max(expr_bits(rs, behavior, value));
                }
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    walk(rs, behavior, target, then_body, best);
                    walk(rs, behavior, target, else_body, best);
                }
                Stmt::For { body, .. } | Stmt::While { body, .. } | Stmt::Fork { body, .. } => {
                    walk(rs, behavior, target, body, best);
                }
                _ => {}
            }
        }
    }
    let mut best = 1;
    walk(
        rs,
        behavior,
        target,
        &rs.spec().behaviors[behavior].body,
        &mut best,
    );
    best
}

/// Tags channels created by `fork` blocks: calls forked together share a
/// concurrency tag (Section 2.3).
fn tag_fork_concurrency(d: &mut Design, rs: &ResolvedSpec) {
    let mut next_tag = 0u32;
    for b in &rs.spec().behaviors {
        let Some(src) = d.graph().node_by_name(&b.name) else {
            continue;
        };
        let mut stack: Vec<&Stmt> = b.body.iter().collect();
        while let Some(stmt) = stack.pop() {
            match stmt {
                Stmt::Fork { body, .. } => {
                    let tag = ConcurrencyTag::group(next_tag);
                    next_tag += 1;
                    for s in body {
                        if let Stmt::Call { callee, .. } = s {
                            if let Some(dst) = d.graph().node_by_name(callee) {
                                if let Some(c) =
                                    d.graph().find_channel(src, dst.into(), AccessKind::Call)
                                {
                                    d.graph_mut().channel_mut(c).set_tag(tag);
                                }
                            }
                        }
                    }
                }
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    stack.extend(then_body.iter());
                    stack.extend(else_body.iter());
                }
                Stmt::For { body, .. } | Stmt::While { body, .. } => {
                    stack.extend(body.iter());
                }
                _ => {}
            }
        }
    }
    let _ = rs;
}

/// The paper's running target architecture: one standard processor, one
/// ASIC, one memory, one system bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcAsicArchitecture {
    /// The standard processor.
    pub cpu: ProcessorId,
    /// The custom-hardware part.
    pub asic: ProcessorId,
    /// The memory.
    pub mem: MemoryId,
    /// The system bus.
    pub bus: BusId,
}

/// The technology library behind a design has no class of the needed kind,
/// so the processor–ASIC architecture cannot be allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissingClassError {
    /// The component-class kind no class provides.
    pub kind: ClassKind,
}

impl std::fmt::Display for MissingClassError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "technology library provides no {} class", self.kind)
    }
}

impl std::error::Error for MissingClassError {}

/// Allocates the processor–ASIC architecture onto a design built by
/// [`build_design`]: the first std-processor class, the first custom-hw
/// class, the first memory class, and a 16-bit system bus (20 ns
/// same-component transfers, 100 ns cross-component).
///
/// # Errors
///
/// [`MissingClassError`] (naming the kind) if the design lacks a
/// std-processor, custom-hw, or memory class. The design is not modified
/// on failure.
pub fn try_allocate_proc_asic(d: &mut Design) -> Result<ProcAsicArchitecture, MissingClassError> {
    let first = |kind: ClassKind, d: &Design| {
        d.class_ids()
            .find(|&k| d.class(k).kind() == kind)
            .ok_or(MissingClassError { kind })
    };
    let pc = first(ClassKind::StdProcessor, d)?;
    let ac = first(ClassKind::CustomHw, d)?;
    let mc = first(ClassKind::Memory, d)?;
    Ok(ProcAsicArchitecture {
        cpu: d.add_processor("cpu0", pc),
        asic: d.add_processor("asic0", ac),
        mem: d.add_memory("mem0", mc),
        bus: d.add_bus(Bus::new("sysbus", 16, 20, 100)),
    })
}

/// [`try_allocate_proc_asic`], panicking on an incomplete library.
///
/// # Panics
///
/// Panics if the design lacks a std-processor, custom-hw, or memory class;
/// use [`try_allocate_proc_asic`] to handle that case gracefully.
pub fn allocate_proc_asic(d: &mut Design) -> ProcAsicArchitecture {
    match try_allocate_proc_asic(d) {
        Ok(arch) => arch,
        Err(e) => panic!("{e}"),
    }
}

/// The all-software starting partition: every node on the processor,
/// every channel on the system bus.
pub fn all_software_partition(d: &Design, arch: ProcAsicArchitecture) -> Partition {
    let mut part = Partition::new(d);
    for n in d.graph().node_ids() {
        part.assign_node(n, PmRef::Processor(arch.cpu));
    }
    for c in d.graph().channel_ids() {
        part.assign_channel(c, arch.bus);
    }
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use slif_estimate::DesignReport;
    use slif_speclang::parse_and_resolve;

    const FIG1: &str = "system Fuzzy;\n\
        port in1 : in int<8>;\n\
        port in2 : in int<8>;\n\
        port out1 : out int<8>;\n\
        var in1val : int<8>;\n\
        var in2val : int<8>;\n\
        var mr1 : int<8>[128];\n\
        var tmr1 : int<8>[128];\n\
        proc EvaluateRule(num : int<8>) {\n\
          var trunc : int<8>;\n\
          if num == 1 prob 0.5 {\n\
            trunc = min(mr1[in1val], mr1[64 + in1val]);\n\
          }\n\
          for i in 0 .. 127 {\n\
            if num == 1 prob 0.5 { tmr1[i] = min(trunc, mr1[i]); }\n\
          }\n\
        }\n\
        process FuzzyMain {\n\
          in1val = in1;\n\
          in2val = in2;\n\
          call EvaluateRule(1);\n\
          call EvaluateRule(2);\n\
          out1 = tmr1[0];\n\
          wait 50;\n\
        }\n";

    fn build(src: &str) -> Design {
        let rs = parse_and_resolve(src).unwrap();
        build_design(&rs, &TechnologyLibrary::proc_asic())
    }

    #[test]
    fn figure2_access_graph_shape() {
        let d = build(FIG1);
        let g = d.graph();
        // 2 behaviors + 4 variables.
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.port_count(), 3);
        let main = g.node_by_name("FuzzyMain").unwrap();
        let eval = g.node_by_name("EvaluateRule").unwrap();
        assert!(g.node(main).kind().is_process());
        assert!(!g.node(eval).kind().is_process());
        // The two calls of EvaluateRule merge to a single edge.
        let call = g.find_channel(main, eval.into(), AccessKind::Call).unwrap();
        assert_eq!(g.channel(call).freq().avg, 2.0);
    }

    #[test]
    fn figure3_annotations() {
        let d = build(FIG1);
        let g = d.graph();
        let eval = g.node_by_name("EvaluateRule").unwrap();
        let mr1 = g.node_by_name("mr1").unwrap();
        let c = g.find_channel(eval, mr1.into(), AccessKind::Read).unwrap();
        // 2 * 0.5 + 128 * 0.5 = 65 accesses; 7 address + 8 data = 15 bits.
        assert!((g.channel(c).freq().avg - 65.0).abs() < 1e-9);
        assert_eq!(g.channel(c).bits(), 15);
        // in1val: 2 * 0.5 = 1 access of 8 bits.
        let in1val = g.node_by_name("in1val").unwrap();
        let c2 = g
            .find_channel(eval, in1val.into(), AccessKind::Read)
            .unwrap();
        assert!((g.channel(c2).freq().avg - 1.0).abs() < 1e-9);
        assert_eq!(g.channel(c2).bits(), 8);
    }

    #[test]
    fn behaviors_have_weights_for_every_behavior_class() {
        let d = build(FIG1);
        let g = d.graph();
        let eval = g.node_by_name("EvaluateRule").unwrap();
        for class in d.class_ids() {
            if d.class(class).kind().holds_behaviors() {
                assert!(g.node(eval).ict().supports(class));
                assert!(g.node(eval).size().supports(class));
            } else {
                assert!(!g.node(eval).ict().supports(class));
            }
        }
        // The ASIC weight carries a datapath split for sharing-aware size.
        let asic_class = d.class_by_name("asic_ga").unwrap();
        assert!(g
            .node(eval)
            .size()
            .entry(asic_class)
            .unwrap()
            .datapath
            .is_some());
    }

    #[test]
    fn variables_have_weights_for_all_classes() {
        let d = build(FIG1);
        let g = d.graph();
        let mr1 = g.node_by_name("mr1").unwrap();
        for class in d.class_ids() {
            assert!(
                g.node(mr1).ict().supports(class),
                "{}",
                d.class(class).name()
            );
            assert!(g.node(mr1).size().supports(class));
        }
        let sram = d.class_by_name("sram").unwrap();
        assert_eq!(g.node(mr1).size().get(sram), Some(128));
    }

    #[test]
    fn proc_asic_allocation_estimates_end_to_end() {
        let mut d = build(FIG1);
        let arch = allocate_proc_asic(&mut d);
        let part = all_software_partition(&d, arch);
        part.validate(&d).unwrap();
        let report = DesignReport::compute(&d, &part).unwrap();
        assert_eq!(report.processes.len(), 1);
        assert!(report.processes[0].exec_time > 0.0);
        // Everything on the cpu: the asic is empty, no pins.
        let asic_report = report
            .components
            .iter()
            .find(|c| c.name == "asic0")
            .unwrap();
        assert_eq!(asic_report.size, 0);
        assert_eq!(asic_report.pins, Some(0));
    }

    #[test]
    fn moving_convolve_style_work_to_asic_speeds_it_up() {
        let mut d = build(FIG1);
        let arch = allocate_proc_asic(&mut d);
        let sw = all_software_partition(&d, arch);
        let main = d.graph().node_by_name("FuzzyMain").unwrap();
        let t_sw = slif_estimate::ExecTimeEstimator::new(&d, &sw)
            .exec_time(main)
            .unwrap();
        // Move the loop-heavy procedure (and the arrays it hammers) to
        // the ASIC.
        let mut hw = sw.clone();
        for name in ["EvaluateRule", "mr1", "tmr1", "in1val", "in2val"] {
            let n = d.graph().node_by_name(name).unwrap();
            hw.assign_node(n, PmRef::Processor(arch.asic));
        }
        let t_hw = slif_estimate::ExecTimeEstimator::new(&d, &hw)
            .exec_time(main)
            .unwrap();
        assert!(t_hw < t_sw, "hardware mapping should win: {t_hw} vs {t_sw}");
    }

    #[test]
    fn fork_calls_share_a_tag() {
        let d = build(
            "system T;\nproc A() { }\nproc B() { }\nproc C() { }\n\
             process M { fork { call A(); call B(); } call C(); }",
        );
        let g = d.graph();
        let m = g.node_by_name("M").unwrap();
        let tag_of = |name: &str| {
            let n = g.node_by_name(name).unwrap();
            let c = g.find_channel(m, n.into(), AccessKind::Call).unwrap();
            g.channel(c).tag()
        };
        assert!(tag_of("A").is_concurrent());
        assert_eq!(tag_of("A"), tag_of("B"));
        assert_eq!(tag_of("C"), ConcurrencyTag::SEQUENTIAL);
    }

    #[test]
    fn message_channels_use_payload_width() {
        let d = build(
            "system T;\nvar wide : int<24>;\n\
             process A { send B wide; }\nprocess B { receive wide; }",
        );
        let g = d.graph();
        let a = g.node_by_name("A").unwrap();
        let b = g.node_by_name("B").unwrap();
        let c = g.find_channel(a, b.into(), AccessKind::Message).unwrap();
        assert_eq!(g.channel(c).bits(), 24);
    }

    #[test]
    fn build_from_source_reports_spec_errors() {
        assert!(build_from_source("system T; nonsense", &TechnologyLibrary::proc_asic()).is_err());
        assert!(build_from_source(
            "system T; proc P() { y = 1; }",
            &TechnologyLibrary::proc_asic()
        )
        .is_err());
    }

    #[test]
    fn try_allocate_reports_missing_classes_without_modifying_the_design() {
        let mut d = Design::new("bare");
        let e = try_allocate_proc_asic(&mut d).unwrap_err();
        assert_eq!(e.kind, ClassKind::StdProcessor);
        assert!(e.to_string().contains("std-processor"), "{e}");
        assert_eq!(d.processor_count() + d.memory_count() + d.bus_count(), 0);
        // With a processor class only, the next gap is named.
        d.add_class("proc", ClassKind::StdProcessor);
        let e = try_allocate_proc_asic(&mut d).unwrap_err();
        assert_eq!(e.kind, ClassKind::CustomHw);
        assert_eq!(d.processor_count() + d.memory_count() + d.bus_count(), 0);
    }
}

#[cfg(test)]
mod schedule_tag_tests {
    use super::*;
    use slif_estimate::{EstimatorConfig, ExecTimeEstimator};
    use slif_speclang::parse_and_resolve;

    /// Two independent array reads feed one max: the ASIC schedule starts
    /// them together, so their channels share a tag.
    const PARALLEL_READS: &str = "system T;\n\
        var a : int<8>[16];\nvar b : int<8>[16];\nvar x : int<8>;\n\
        proc P(i : int<8>) { x = max(a[i], b[i]); }\n\
        process Main { call P(1); }";

    #[test]
    fn schedule_derived_tags_mark_parallel_accesses() {
        let rs = parse_and_resolve(PARALLEL_READS).unwrap();
        let plain = build_design(&rs, &TechnologyLibrary::proc_asic());
        let tagged = build_design_with(
            &rs,
            &TechnologyLibrary::proc_asic(),
            &BuildOptions {
                schedule_tags: true,
            },
        );
        let find_tag = |d: &Design, target: &str| {
            let p = d.graph().node_by_name("P").unwrap();
            let t = d.graph().node_by_name(target).unwrap();
            let c = d
                .graph()
                .find_channel(p, t.into(), AccessKind::Read)
                .unwrap();
            d.graph().channel(c).tag()
        };
        assert!(!find_tag(&plain, "a").is_concurrent());
        // Note: the asic_ga model has one memory port, so the *resource-
        // constrained* schedule may serialize the reads; the scheduler
        // speaks, not the syntax. Whatever it decides must be symmetric.
        assert_eq!(
            find_tag(&tagged, "a").is_concurrent(),
            find_tag(&tagged, "b").is_concurrent()
        );
        if find_tag(&tagged, "a").is_concurrent() {
            assert_eq!(find_tag(&tagged, "a"), find_tag(&tagged, "b"));
        }
    }

    #[test]
    fn schedule_tags_never_raise_concurrency_aware_estimates() {
        // Tags only allow overlap: with the concurrency-aware estimator,
        // the tagged design is never slower than the untagged one.
        for name in ["fuzzy", "vol"] {
            let rs = slif_speclang::corpus::by_name(name).unwrap().load().unwrap();
            let lib = TechnologyLibrary::proc_asic();
            let mut plain = build_design(&rs, &lib);
            let arch = crate::allocate_proc_asic(&mut plain);
            let part = crate::all_software_partition(&plain, arch);

            let mut tagged = build_design_with(
                &rs,
                &lib,
                &BuildOptions {
                    schedule_tags: true,
                },
            );
            let arch2 = crate::allocate_proc_asic(&mut tagged);
            let part2 = crate::all_software_partition(&tagged, arch2);

            let cfg = EstimatorConfig::default().with_concurrency_aware(true);
            for n in plain.graph().node_ids() {
                if !plain.graph().node(n).kind().is_process() {
                    continue;
                }
                let t_plain = ExecTimeEstimator::with_config(&plain, &part, cfg)
                    .exec_time(n)
                    .unwrap();
                let node_name = plain.graph().node(n).name();
                let n2 = tagged.graph().node_by_name(node_name).unwrap();
                let t_tagged = ExecTimeEstimator::with_config(&tagged, &part2, cfg)
                    .exec_time(n2)
                    .unwrap();
                assert!(
                    t_tagged <= t_plain + 1e-6,
                    "{name}/{node_name}: {t_tagged} > {t_plain}"
                );
            }
        }
    }

    #[test]
    fn fork_tags_take_precedence_over_schedule_tags() {
        let rs = parse_and_resolve(
            "system T;\nproc A() { }\nproc B() { }\n\
             process M { fork { call A(); call B(); } }",
        )
        .unwrap();
        let d = build_design_with(
            &rs,
            &TechnologyLibrary::proc_asic(),
            &BuildOptions {
                schedule_tags: true,
            },
        );
        let m = d.graph().node_by_name("M").unwrap();
        let a = d.graph().node_by_name("A").unwrap();
        let b = d.graph().node_by_name("B").unwrap();
        let ta = d
            .graph()
            .channel(d.graph().find_channel(m, a.into(), AccessKind::Call).unwrap())
            .tag();
        let tb = d
            .graph()
            .channel(d.graph().find_channel(m, b.into(), AccessKind::Call).unwrap())
            .tag();
        assert!(ta.is_concurrent());
        assert_eq!(ta, tb, "the fork pair stays in one group");
    }
}
