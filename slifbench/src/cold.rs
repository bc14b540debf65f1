//! `cold_report`: the paper's Figure 4 row, for batch users.
//!
//! One op is one round over a fixed seeded spec set — the four corpus
//! specs plus one generated spec per family — each taken through the
//! whole flow with nothing kept between ops: parse, lower, resolve,
//! build and allocate, compile, estimate, lint, and a seeded
//! simulated-annealing run with a fixed evaluation budget.

use crate::gen::{generate, Family, Rng};
use crate::trace::Recorder;
use crate::{Counts, Workload};
use slif_analyze::{analyze_compiled_with_flow, AnalysisConfig};
use slif_core::CompiledDesign;
use slif_estimate::DesignReport;
use slif_explore::{explore, Algorithm, AnnealingConfig, Objectives, Supervisor};
use slif_frontend::{all_software_partition, allocate_proc_asic, build_design};
use slif_speclang::{parse_with_limits, resolve, FlowProgram, ParseLimits, SourceMap};
use slif_techlib::TechnologyLibrary;

/// Generated spec sizes (design nodes). The process-heavy spec is the
/// largest so that lint is a visible share of the round.
const SIZES: [(Family, usize); 5] = [
    (Family::ProcessHeavy, 800),
    (Family::CallChain, 220),
    (Family::WideFanOut, 210),
    (Family::MessagePassing, 60),
    (Family::ArrayHeavy, 90),
];

/// Simulated-annealing evaluations per spec.
const SA_BUDGET: u64 = 400;

struct Input {
    name: String,
    text: String,
    nodes: usize,
    channels: usize,
    sa_seed: u64,
}

/// What one spec's flow produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecOut {
    nodes: usize,
    channels: usize,
    flow_nodes: usize,
    findings: usize,
    evals: u64,
    processes: usize,
}

pub struct Cold {
    inputs: Vec<Input>,
    lib: TechnologyLibrary,
    limits: ParseLimits,
    config: AnalysisConfig,
    /// The warm-up round's outputs; every op must reproduce them.
    reference: Vec<SpecOut>,
}

impl Cold {
    /// Each value is moved into the span of its last user, so that
    /// dropping it is charged to that layer rather than to the bench.
    fn flow(&self, input: &Input, rec: &mut Recorder) -> Result<SpecOut, String> {
        let spec = rec
            .span("speclang.parse", || {
                parse_with_limits(&input.text, &self.limits)
            })
            .map_err(|e| format!("{}: parse: {e}", input.name))?;
        let (flow, sources) = rec.span("speclang.lower", || {
            (FlowProgram::from_spec(&spec), SourceMap::from_spec(&spec))
        });
        let rs = rec
            .span("speclang.resolve", || resolve(spec))
            .map_err(|e| format!("{}: resolve: {e}", input.name))?;
        let (design, part) = rec.span("frontend.build", move || {
            let mut design = build_design(&rs, &self.lib);
            let arch = allocate_proc_asic(&mut design);
            let part = all_software_partition(&design, arch);
            (design, part)
        });
        let cd = rec.span("core.compile", || CompiledDesign::compile(&design));
        let processes = rec
            .span("estimate.report", || {
                DesignReport::compute(&design, &part).map(|r| r.processes.len())
            })
            .map_err(|e| format!("{}: estimate: {e}", input.name))?;
        let flow_nodes = flow.behaviors.iter().map(|b| b.nodes.len()).sum();
        let part_ref = &part;
        let findings = rec.span("analyze.lint", move || {
            analyze_compiled_with_flow(&cd, Some(part_ref), &self.config, &flow, Some(&sources))
                .findings()
                .len()
        });
        let (nodes, channels) = (design.graph().node_count(), design.graph().channel_count());
        let algorithm = Algorithm::SimulatedAnnealing {
            config: AnnealingConfig::default(),
            seed: input.sa_seed,
        };
        let evals = rec
            .span("explore.sa", move || {
                let mut sup = Supervisor::unlimited().with_budget(SA_BUDGET);
                explore(&design, part, &Objectives::new(), &algorithm, &mut sup)
                    .map(|r| r.result.evaluations)
            })
            .map_err(|e| format!("{}: explore: {e}", input.name))?;
        Ok(SpecOut {
            nodes,
            channels,
            flow_nodes,
            findings,
            evals,
            processes,
        })
    }

    fn round(&self, rec: &mut Recorder) -> Result<Vec<SpecOut>, String> {
        self.inputs.iter().map(|i| self.flow(i, rec)).collect()
    }

    /// Corpus specs must reproduce Figure 4; generated ones the
    /// generator's counts.
    fn check_counts(&self, round: &[SpecOut]) -> Result<(), String> {
        for (input, out) in self.inputs.iter().zip(round) {
            if (out.nodes, out.channels) != (input.nodes, input.channels) {
                return Err(format!(
                    "{}: built {} objects / {} channels, expected {} / {}",
                    input.name, out.nodes, out.channels, input.nodes, input.channels
                ));
            }
            if out.processes == 0 || out.evals == 0 {
                return Err(format!("{}: empty estimate or exploration", input.name));
            }
        }
        Ok(())
    }
}

impl Workload for Cold {
    type Output = Result<Vec<SpecOut>, String>;

    fn prepare(seed: u64) -> Result<Self, String> {
        let mut rng = Rng::new(seed);
        let mut inputs: Vec<Input> = slif_speclang::corpus::all()
            .iter()
            .map(|e| Input {
                name: e.name.to_owned(),
                text: e.source.to_owned(),
                nodes: e.paper.bv as usize,
                channels: e.paper.channels as usize,
                sa_seed: rng.next_u64(),
            })
            .collect();
        for (family, scale) in SIZES {
            let g = generate(family, scale, &mut rng.fork(scale as u64), family.name());
            inputs.push(Input {
                name: family.name().to_owned(),
                text: g.text,
                nodes: g.nodes,
                channels: g.channels,
                sa_seed: rng.next_u64(),
            });
        }
        Ok(Self {
            inputs,
            lib: TechnologyLibrary::proc_asic(),
            limits: ParseLimits::default(),
            config: AnalysisConfig::new(),
            reference: Vec::new(),
        })
    }

    /// Library construction plus one warm-up round.
    fn setup(&mut self, rec: &mut Recorder) -> Result<(), String> {
        self.lib = TechnologyLibrary::proc_asic();
        let round = self.round(rec)?;
        self.check_counts(&round)?;
        if self.reference.is_empty() {
            self.reference = round;
        } else if round != self.reference {
            return Err("warm-up round differs from the first set-up's".into());
        }
        Ok(())
    }

    fn cycle(&self) -> u64 {
        1
    }

    fn op(&mut self, _k: u64, rec: &mut Recorder) -> Self::Output {
        self.round(rec)
    }

    fn check(
        &mut self,
        _k: u64,
        out: Self::Output,
        counts: Option<&mut Counts>,
    ) -> Result<(), String> {
        let round = out?;
        self.check_counts(&round)?;
        if round != self.reference {
            return Err("round differs from the warm-up round".into());
        }
        if let Some(c) = counts {
            for o in &round {
                *c.entry("design.nodes").or_default() += o.nodes as u64;
                *c.entry("design.channels").or_default() += o.channels as u64;
                *c.entry("flow.nodes").or_default() += o.flow_nodes as u64;
                *c.entry("analyze.findings").or_default() += o.findings as u64;
                *c.entry("explore.evals").or_default() += o.evals;
            }
        }
        Ok(())
    }

    fn covered(&self) -> bool {
        true
    }
}
