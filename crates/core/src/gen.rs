//! Synthetic design generation for tests and scaling benchmarks.
//!
//! The paper's examples range from 30 to 123 functional objects. To study
//! how build, estimation, and partitioning scale beyond the four benchmark
//! specs, [`DesignGenerator`] produces random — but structurally valid and
//! fully annotated — designs: acyclic call structures (so execution time is
//! well defined), realistic fan-out, and complete weight lists for every
//! class, plus a random proper partition to start algorithms from.

use crate::annotation::AccessFreq;
use crate::channel::AccessKind;
use crate::component::{Bus, ClassKind};
use crate::design::Design;
use crate::ids::{ClassId, NodeId, PmRef};
use crate::node::NodeKind;
use crate::partition::Partition;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for synthetic design generation.
///
/// # Examples
///
/// ```
/// use slif_core::gen::DesignGenerator;
///
/// let (design, partition) = DesignGenerator::new(7)
///     .behaviors(20)
///     .variables(15)
///     .build();
/// assert_eq!(design.graph().node_count(), 35);
/// assert!(partition.validate(&design).is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct DesignGenerator {
    seed: u64,
    behaviors: usize,
    variables: usize,
    ports: usize,
    /// Average outgoing channels per behavior.
    avg_fanout: f64,
    processors: usize,
    memories: usize,
    buses: usize,
}

impl DesignGenerator {
    /// Creates a generator with the given seed and paper-scale defaults
    /// (roughly the size of the `fuzzy` example: 35 nodes).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            behaviors: 15,
            variables: 20,
            ports: 4,
            avg_fanout: 2.5,
            processors: 2,
            memories: 1,
            buses: 1,
        }
    }

    /// Sets the number of behavior nodes (minimum 1; the first behavior is
    /// the root process).
    pub fn behaviors(mut self, n: usize) -> Self {
        self.behaviors = n.max(1);
        self
    }

    /// Sets the number of variable nodes.
    pub fn variables(mut self, n: usize) -> Self {
        self.variables = n;
        self
    }

    /// Sets the number of external ports.
    pub fn ports(mut self, n: usize) -> Self {
        self.ports = n;
        self
    }

    /// Sets the average out-degree of behaviors.
    pub fn avg_fanout(mut self, f: f64) -> Self {
        self.avg_fanout = f.max(0.0);
        self
    }

    /// Sets the number of processor instances (minimum 1).
    pub fn processors(mut self, n: usize) -> Self {
        self.processors = n.max(1);
        self
    }

    /// Sets the number of memory instances.
    pub fn memories(mut self, n: usize) -> Self {
        self.memories = n;
        self
    }

    /// Sets the number of bus instances (minimum 1).
    pub fn buses(mut self, n: usize) -> Self {
        self.buses = n.max(1);
        self
    }

    /// Generates the design and a random proper partition of it.
    pub fn build(&self) -> (Design, Partition) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut d = Design::new(format!("synthetic-{}", self.seed));

        let proc_class = d.add_class("gen-proc", ClassKind::StdProcessor);
        let hw_class = d.add_class("gen-asic", ClassKind::CustomHw);
        let mem_class = d.add_class("gen-mem", ClassKind::Memory);
        let behavior_classes = [proc_class, hw_class];
        let all_classes = [proc_class, hw_class, mem_class];

        // Behaviors first (index order gives the acyclic call direction).
        let mut behaviors = Vec::with_capacity(self.behaviors);
        for i in 0..self.behaviors {
            let kind = if i == 0 || rng.gen_bool(0.15) {
                NodeKind::process()
            } else {
                NodeKind::procedure()
            };
            let id = d.graph_mut().add_node(format!("beh{i}"), kind);
            annotate(&mut d, id, &behavior_classes, &mut rng);
            behaviors.push(id);
        }
        let mut variables = Vec::with_capacity(self.variables);
        for i in 0..self.variables {
            let kind = if rng.gen_bool(0.4) {
                NodeKind::array(1u64 << rng.gen_range(4..10), 8 * rng.gen_range(1u32..=4))
            } else {
                NodeKind::scalar(8 * rng.gen_range(1u32..=4))
            };
            let id = d.graph_mut().add_node(format!("var{i}"), kind);
            annotate(&mut d, id, &all_classes, &mut rng);
            variables.push(id);
        }
        let mut ports = Vec::with_capacity(self.ports);
        for i in 0..self.ports {
            let dir = if rng.gen_bool(0.5) {
                crate::node::PortDirection::In
            } else {
                crate::node::PortDirection::Out
            };
            ports.push(d.graph_mut().add_port(format!("port{i}"), dir, 8));
        }

        // Channels: calls go strictly to higher-index behaviors (acyclic);
        // reads/writes go to any variable or port. Message passes only
        // target processes (as in the specification language), so index
        // them once with their behavior positions.
        let processes: Vec<(usize, NodeId)> = behaviors
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, b)| d.graph().node(b).kind().is_process())
            .collect();
        for (i, &src) in behaviors.iter().enumerate() {
            let edges = sample_count(self.avg_fanout, &mut rng);
            let later_processes = &processes[processes.partition_point(|&(j, _)| j <= i)..];
            for _ in 0..edges {
                let roll: f64 = rng.gen();
                let (dst, kind) = if roll < 0.35 && i + 1 < behaviors.len() {
                    let j = rng.gen_range(i + 1..behaviors.len());
                    (behaviors[j].into(), AccessKind::Call)
                } else if roll < 0.45 && !later_processes.is_empty() {
                    let j = rng.gen_range(0..later_processes.len());
                    (later_processes[j].1.into(), AccessKind::Message)
                } else if !variables.is_empty() && (roll < 0.9 || ports.is_empty()) {
                    let v = variables[rng.gen_range(0..variables.len())];
                    let kind = if rng.gen_bool(0.5) {
                        AccessKind::Read
                    } else {
                        AccessKind::Write
                    };
                    (v.into(), kind)
                } else if !ports.is_empty() {
                    let p = ports[rng.gen_range(0..ports.len())];
                    let kind = match d.graph().port(p).direction() {
                        crate::node::PortDirection::In => AccessKind::Read,
                        _ => AccessKind::Write,
                    };
                    (p.into(), kind)
                } else {
                    continue;
                };
                if let Ok(c) = d.graph_mut().add_or_merge_channel(src, dst, kind) {
                    let max = rng.gen_range(1..200u64);
                    let min = rng.gen_range(0..=max);
                    let avg = min as f64 + rng.gen::<f64>() * (max - min) as f64;
                    let bits = rng.gen_range(1..=64);
                    let ch = d.graph_mut().channel_mut(c);
                    *ch.freq_mut() = AccessFreq::new(avg, min, max);
                    ch.set_bits(bits);
                }
            }
        }

        // Components.
        let mut procs = Vec::new();
        for i in 0..self.processors {
            let class = behavior_classes[i % behavior_classes.len()];
            procs.push(d.add_processor(format!("proc{i}"), class));
        }
        let mut mems = Vec::new();
        for i in 0..self.memories {
            mems.push(d.add_memory(format!("mem{i}"), mem_class));
        }
        let mut buses = Vec::new();
        for i in 0..self.buses {
            let width = 8u32 << rng.gen_range(0..3);
            let ts = rng.gen_range(1u64..4);
            let td = ts + rng.gen_range(1u64..8);
            buses.push(d.add_bus(Bus::new(format!("bus{i}"), width, ts, td)));
        }

        // Random proper partition.
        let mut part = Partition::new(&d);
        for n in d.graph().node_ids() {
            let comp: PmRef = if d.graph().node(n).kind().is_behavior() || mems.is_empty() {
                procs[rng.gen_range(0..procs.len())].into()
            } else if rng.gen_bool(0.5) {
                mems[rng.gen_range(0..mems.len())].into()
            } else {
                procs[rng.gen_range(0..procs.len())].into()
            };
            part.assign_node(n, comp);
        }
        for c in d.graph().channel_ids() {
            part.assign_channel(c, buses[rng.gen_range(0..buses.len())]);
        }
        (d, part)
    }
}

/// Fills a node's ict/size weight lists for the given classes.
fn annotate(d: &mut Design, node: NodeId, classes: &[ClassId], rng: &mut StdRng) {
    for &class in classes {
        let ict = rng.gen_range(1..500);
        let size = rng.gen_range(1..5000);
        let node_ref = d.graph_mut().node_mut(node);
        node_ref.ict_mut().set(class, ict);
        if rng.gen_bool(0.5) {
            let dp = rng.gen_range(0..=size);
            node_ref
                .size_mut()
                .insert(crate::annotation::WeightEntry::with_datapath(
                    class, size, dp,
                ));
        } else {
            node_ref.size_mut().set(class, size);
        }
    }
}

/// Samples an edge count around the requested mean.
fn sample_count(mean: f64, rng: &mut StdRng) -> usize {
    let base = mean.floor() as usize;
    let frac = mean - mean.floor();
    base + usize::from(rng.gen_bool(frac.clamp(0.0, 1.0))) + rng.gen_range(0usize..=1)
    // small jitter
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_design_is_valid_and_acyclic() {
        for seed in 0..10 {
            let (d, part) = DesignGenerator::new(seed)
                .behaviors(12)
                .variables(10)
                .processors(3)
                .memories(2)
                .buses(2)
                .build();
            part.validate(&d).expect("generated partition is proper");
            assert_eq!(d.graph().find_recursion(), None, "calls must be acyclic");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let (d1, p1) = DesignGenerator::new(42).build();
        let (d2, p2) = DesignGenerator::new(42).build();
        assert_eq!(d1, d2);
        assert_eq!(p1, p2);
        let (d3, _) = DesignGenerator::new(43).build();
        assert_ne!(d1, d3);
    }

    #[test]
    fn node_counts_match_parameters() {
        let (d, _) = DesignGenerator::new(1)
            .behaviors(7)
            .variables(5)
            .ports(3)
            .build();
        assert_eq!(d.graph().behavior_ids().count(), 7);
        assert_eq!(d.graph().variable_ids().count(), 5);
        assert_eq!(d.graph().port_count(), 3);
    }

    #[test]
    fn all_freqs_consistent() {
        let (d, _) = DesignGenerator::new(9).behaviors(20).variables(20).build();
        for c in d.graph().channel_ids() {
            assert!(d.graph().channel(c).freq().is_consistent());
        }
    }
}
