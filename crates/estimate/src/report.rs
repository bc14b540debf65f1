//! The full estimate suite: "size, pin, bitrate and performance estimates
//! for a partition" — exactly what the paper's Figure 4 times in its
//! T-est column.

use crate::bitrate::BitrateEstimator;
use crate::config::EstimatorConfig;
use crate::exectime::ExecTimeEstimator;
use crate::incremental::IncrementalEstimator;
use crate::io::io_pins_compiled;
use crate::size::size_with_compiled;
use crate::warning::EstimateWarning;
use slif_core::{BusId, ChannelId, CoreError, Design, NodeId, Partition, PmRef};
use std::fmt;

/// Estimated metrics for one component.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentReport {
    /// The component.
    pub component: PmRef,
    /// The component's name.
    pub name: String,
    /// Equation 4/5 size (bytes, gates, or words depending on class).
    pub size: u64,
    /// The size constraint, if any.
    pub size_constraint: Option<u64>,
    /// Equation 6 pins (processors only).
    pub pins: Option<u32>,
    /// The pin constraint, if any.
    pub pin_constraint: Option<u32>,
}

impl ComponentReport {
    /// Whether the component meets its size and pin constraints.
    pub fn satisfies_constraints(&self) -> bool {
        let size_ok = self.size_constraint.is_none_or(|max| self.size <= max);
        let pins_ok = match (self.pins, self.pin_constraint) {
            (Some(p), Some(max)) => p <= max,
            _ => true,
        };
        size_ok && pins_ok
    }
}

/// Estimated metrics for one bus.
#[derive(Debug, Clone, PartialEq)]
pub struct BusReport {
    /// The bus.
    pub bus: BusId,
    /// The bus's name.
    pub name: String,
    /// Equation 3 demanded bitrate.
    pub bitrate: f64,
    /// Utilization against the capacity model, if one exists.
    pub utilization: Option<f64>,
}

/// Estimated execution time for one process.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessReport {
    /// The process node.
    pub node: NodeId,
    /// The process's name.
    pub name: String,
    /// Equation 1 execution time of one start-to-finish execution.
    pub exec_time: f64,
}

/// The complete estimate suite for a (design, partition) pair.
///
/// # Examples
///
/// ```
/// use slif_core::gen::DesignGenerator;
/// use slif_estimate::DesignReport;
///
/// let (design, partition) = DesignGenerator::new(3).build();
/// let report = DesignReport::compute(&design, &partition)?;
/// assert_eq!(report.components.len(), design.processor_count() + design.memory_count());
/// # Ok::<(), slif_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct DesignReport {
    /// Per-component size and pin estimates.
    pub components: Vec<ComponentReport>,
    /// Per-bus bitrate estimates.
    pub buses: Vec<BusReport>,
    /// Per-process execution-time estimates.
    pub processes: Vec<ProcessReport>,
    /// Graceful-degradation events: weights that were missing and replaced
    /// by configured defaults. Empty unless the configuration sets
    /// [`default_ict`](EstimatorConfig::default_ict) or
    /// [`default_size`](EstimatorConfig::default_size).
    pub warnings: Vec<EstimateWarning>,
}

impl DesignReport {
    /// Runs all estimators (Equations 1–6) with the default configuration.
    ///
    /// # Errors
    ///
    /// Propagates any estimation error: unmapped objects, missing weights,
    /// or recursion.
    pub fn compute(design: &Design, partition: &Partition) -> Result<Self, CoreError> {
        Self::compute_with(design, partition, EstimatorConfig::default())
    }

    /// Runs all estimators with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Propagates any estimation error.
    pub fn compute_with(
        design: &Design,
        partition: &Partition,
        config: EstimatorConfig,
    ) -> Result<Self, CoreError> {
        let cd = design.compiled();
        let mut warnings = Vec::new();
        let mut components = Vec::new();
        for pm in design.pm_refs() {
            let (name, size_constraint, pins, pin_constraint) = match pm {
                PmRef::Processor(p) => {
                    let proc = design.processor(p);
                    (
                        proc.name().to_owned(),
                        proc.size_constraint(),
                        Some(io_pins_compiled(cd, partition, p)?),
                        proc.pin_constraint(),
                    )
                }
                PmRef::Memory(m) => {
                    let mem = design.memory(m);
                    (mem.name().to_owned(), mem.size_constraint(), None, None)
                }
            };
            components.push(ComponentReport {
                component: pm,
                name,
                size: size_with_compiled(cd, partition, pm, &config, &mut warnings)?,
                size_constraint,
                pins,
                pin_constraint,
            });
        }

        let exec = ExecTimeEstimator::from_compiled_with_config(cd, partition, config);
        let mut bitrate = BitrateEstimator::with_estimator(partition, exec);
        let mut buses = Vec::new();
        for b in design.bus_ids() {
            buses.push(BusReport {
                bus: b,
                name: design.bus(b).name().to_owned(),
                bitrate: bitrate.bus_bitrate(b)?,
                utilization: bitrate.bus_utilization(b)?,
            });
        }
        let mut exec = bitrate.into_inner();
        let mut processes = Vec::new();
        for n in design.graph().node_ids() {
            if design.graph().node(n).kind().is_process() {
                processes.push(ProcessReport {
                    node: n,
                    name: design.graph().node(n).name().to_owned(),
                    exec_time: exec.exec_time(n)?,
                });
            }
        }
        warnings.extend(exec.take_warnings());
        Ok(Self {
            components,
            buses,
            processes,
            warnings,
        })
    }

    /// Whether every component satisfies its constraints.
    pub fn satisfies_constraints(&self) -> bool {
        self.components
            .iter()
            .all(ComponentReport::satisfies_constraints)
    }

    /// Builds the full report from a warm [`IncrementalEstimator`],
    /// mirroring [`compute_with`](Self::compute_with) loop-for-loop
    /// (same iteration orders, same floating-point summation order) so
    /// the result is bit-identical to a cold compute over the same
    /// design, partition, and configuration. Component sizes are O(1)
    /// cache reads and execution times come from the memo, so after a
    /// small edit only the invalidated slice is actually recomputed.
    ///
    /// `design` supplies what the compiled view does not intern —
    /// component/bus names and constraints — and must be the design the
    /// estimator's view was compiled (or patched) from.
    ///
    /// The report's `warnings` are always empty: warning collection is
    /// not replicated here because the estimator accumulates warnings
    /// across its whole lifetime, not per compute. Under a strict
    /// configuration (the default, which edit sessions pin) a cold
    /// report's warnings are empty too, so bit-identity holds.
    ///
    /// # Errors
    ///
    /// As for [`compute_with`](Self::compute_with).
    pub fn compute_from_incremental(
        design: &Design,
        inc: &mut IncrementalEstimator<'_>,
    ) -> Result<Self, CoreError> {
        let mut components = Vec::new();
        for pm in design.pm_refs() {
            let (name, size_constraint, pins, pin_constraint) = match pm {
                PmRef::Processor(p) => {
                    let proc = design.processor(p);
                    (
                        proc.name().to_owned(),
                        proc.size_constraint(),
                        Some(inc.pins(p)?),
                        proc.pin_constraint(),
                    )
                }
                PmRef::Memory(m) => {
                    let mem = design.memory(m);
                    (mem.name().to_owned(), mem.size_constraint(), None, None)
                }
            };
            components.push(ComponentReport {
                component: pm,
                name,
                size: inc.size(pm),
                size_constraint,
                pins,
                pin_constraint,
            });
        }
        let mut buses = Vec::new();
        for b in design.bus_ids() {
            let name = design.bus(b).name().to_owned();
            let bitrate = bus_bitrate_incremental(inc, b)?;
            let utilization = match inc.compiled().bus_capacity(b) {
                Some(cap) if cap > 0.0 => Some(bus_bitrate_incremental(inc, b)? / cap),
                _ => None,
            };
            buses.push(BusReport {
                bus: b,
                name,
                bitrate,
                utilization,
            });
        }
        let mut processes = Vec::new();
        for n in design.graph().node_ids() {
            if design.graph().node(n).kind().is_process() {
                processes.push(ProcessReport {
                    node: n,
                    name: design.graph().node(n).name().to_owned(),
                    exec_time: inc.exec_time(n)?,
                });
            }
        }
        Ok(Self {
            components,
            buses,
            processes,
            warnings: Vec::new(),
        })
    }
}

/// Equation 3 over the incremental estimator, replicating
/// [`BitrateEstimator::bus_bitrate`]'s arithmetic exactly: same channel
/// order ([`Partition::channels_on`]), same zero-traffic contribution,
/// same left-to-right `f64` summation.
fn bus_bitrate_incremental(
    inc: &mut IncrementalEstimator<'_>,
    bus: BusId,
) -> Result<f64, CoreError> {
    let channels: Vec<ChannelId> = inc.partition().channels_on(bus).collect();
    let mut total = 0.0;
    for c in channels {
        let (traffic, src) = {
            let cd = inc.compiled();
            (
                cd.chan_freq(c).avg * f64::from(cd.chan_bits(c)),
                cd.chan_src(c),
            )
        };
        let rate = if traffic == 0.0 {
            0.0
        } else {
            traffic / inc.exec_time(src)?
        };
        total += rate;
    }
    Ok(total)
}

impl fmt::Display for DesignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "components:")?;
        for c in &self.components {
            write!(f, "  {:<12} size {:>8}", c.name, c.size)?;
            if let Some(max) = c.size_constraint {
                write!(f, " / {max}")?;
            }
            if let Some(p) = c.pins {
                write!(f, "  pins {p:>4}")?;
                if let Some(max) = c.pin_constraint {
                    write!(f, " / {max}")?;
                }
            }
            if !c.satisfies_constraints() {
                write!(f, "  VIOLATED")?;
            }
            writeln!(f)?;
        }
        writeln!(f, "buses:")?;
        for b in &self.buses {
            write!(f, "  {:<12} bitrate {:>12.4}", b.name, b.bitrate)?;
            if let Some(u) = b.utilization {
                write!(f, "  util {:.2}", u)?;
            }
            writeln!(f)?;
        }
        writeln!(f, "processes:")?;
        for p in &self.processes {
            writeln!(f, "  {:<12} exec time {:>12.2}", p.name, p.exec_time)?;
        }
        if !self.warnings.is_empty() {
            writeln!(f, "warnings:")?;
            for w in &self.warnings {
                writeln!(f, "  {w}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slif_core::gen::DesignGenerator;
    use slif_core::{AccessKind, Bus, ClassKind, Design, NodeKind, Partition, Processor};

    #[test]
    fn report_covers_all_components_buses_processes() {
        let (d, part) = DesignGenerator::new(11)
            .processors(3)
            .memories(2)
            .buses(2)
            .build();
        let r = DesignReport::compute(&d, &part).unwrap();
        assert_eq!(r.components.len(), 5);
        assert_eq!(r.buses.len(), 2);
        let processes = d
            .graph()
            .node_ids()
            .filter(|&n| d.graph().node(n).kind().is_process())
            .count();
        assert_eq!(r.processes.len(), processes);
    }

    #[test]
    fn constraint_satisfaction_detected() {
        let mut d = Design::new("t");
        let pc = d.add_class("proc", ClassKind::StdProcessor);
        let a = d.graph_mut().add_node("A", NodeKind::process());
        d.graph_mut().node_mut(a).ict_mut().set(pc, 10);
        d.graph_mut().node_mut(a).size_mut().set(pc, 500);
        let tight = d.add_processor_instance(Processor::new("tight", pc).with_size_constraint(100));
        d.add_bus(Bus::new("b", 8, 1, 2));
        let mut part = Partition::new(&d);
        part.assign_node(a, tight.into());
        let r = DesignReport::compute(&d, &part).unwrap();
        assert!(!r.satisfies_constraints());
        assert!(!r.components[0].satisfies_constraints());
        assert!(r.to_string().contains("VIOLATED"));
    }

    #[test]
    fn display_is_nonempty_and_mentions_objects() {
        let (d, part) = DesignGenerator::new(2).build();
        let r = DesignReport::compute(&d, &part).unwrap();
        let s = r.to_string();
        assert!(s.contains("components:"));
        assert!(s.contains("buses:"));
        assert!(s.contains("processes:"));
        assert!(s.contains("proc0"));
    }

    #[test]
    fn degraded_report_carries_warnings() {
        let (mut d, part) = DesignGenerator::new(4).build();
        // Strip one behavior's ict list: strict compute fails, a default
        // rescues it and the report says what was assumed.
        let b = d.graph().behavior_ids().next().unwrap();
        d.graph_mut().node_mut(b).ict_mut().clear();
        assert!(DesignReport::compute(&d, &part).is_err());
        let cfg = EstimatorConfig::default().with_default_ict(10);
        let r = DesignReport::compute_with(&d, &part, cfg).unwrap();
        assert!(!r.warnings.is_empty());
        assert!(r
            .warnings
            .iter()
            .any(|w| w.node() == Some(b) && w.list() == Some("ict")));
        assert!(r.to_string().contains("warnings:"));
        assert!(r.to_string().contains("assumed default 10"));
        // A clean design yields no warnings even with defaults configured.
        let (d2, part2) = DesignGenerator::new(4).build();
        let r2 = DesignReport::compute_with(&d2, &part2, cfg).unwrap();
        assert!(r2.warnings.is_empty());
        assert!(!r2.to_string().contains("warnings:"));
    }

    #[test]
    fn errors_propagate() {
        let mut d = Design::new("t");
        let pc = d.add_class("proc", ClassKind::StdProcessor);
        let a = d.graph_mut().add_node("A", NodeKind::process());
        let b = d.graph_mut().add_node("B", NodeKind::procedure());
        let c = d
            .graph_mut()
            .add_channel(a, b.into(), AccessKind::Call)
            .unwrap();
        for n in [a, b] {
            d.graph_mut().node_mut(n).ict_mut().set(pc, 1);
            d.graph_mut().node_mut(n).size_mut().set(pc, 1);
        }
        let cpu = d.add_processor("cpu", pc);
        d.add_bus(Bus::new("bus", 8, 1, 2));
        let mut part = Partition::new(&d);
        part.assign_node(a, cpu.into());
        part.assign_node(b, cpu.into());
        // Channel left unmapped → the process exec-time estimate fails.
        let _ = c;
        assert!(DesignReport::compute(&d, &part).is_err());
    }
}
