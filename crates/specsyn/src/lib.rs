//! # specsyn — a SpecSyn-style system-design environment over SLIF
//!
//! The paper's SLIF format "serves as the core of the SpecSyn system
//! design environment", which "permits rapid exploration of partitions of
//! functionality among processors, ASICs, memories and bus components,
//! providing rapid estimates of size, I/O, and performance metrics for
//! each option examined" (Section 6). This crate is that environment as a
//! command-line tool; the heavy lifting lives in the `slif-*` crates and
//! each subcommand is a thin, testable function returning its report as a
//! string.
//!
//! ```text
//! specsyn list                       # the benchmark corpus
//! specsyn build  <spec> [--dot]      # spec → SLIF (+ Graphviz)
//! specsyn build  <spec> --out f.slif # … saved as slif-wire text
//! specsyn estimate <spec|f.slif>     # size/pins/bitrate/performance
//! specsyn partition <spec> --algo sa # explore the partition space
//! specsyn compare <spec>             # SLIF vs ADD vs CDFG sizes
//! specsyn report                     # the paper's Figure 4 table
//! ```
//!
//! `<spec>` is a corpus name (`ans`, `ether`, `fuzzy`, `vol`) or a path
//! to a `.sl` file.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use slif_core::dot::{design_to_dot, DotStyle};
use slif_core::Design;
use slif_estimate::DesignReport;
use slif_explore::{
    cluster_partition, greedy_improve, group_migration, inline_procedure, merge_processes,
    pareto_sweep, random_search, simulated_annealing, AnnealingConfig, Objectives,
};
use slif_formats::{read_bytes, write_bytes, Encoding, FormatComparison, FormatLimits, Strictness};
use slif_frontend::{
    all_software_partition, allocate_proc_asic, build_design, build_design_at, Granularity, Profile,
};
use slif_sim::{simulate, PortStimulus, SimConfig, Stimulus};
use slif_speclang::{corpus, ResolvedSpec};
use slif_techlib::TechnologyLibrary;
use std::fmt::Write as _;
use std::time::Instant;

/// Error running a specsyn command.
#[derive(Debug)]
pub enum CliError {
    /// Bad command-line usage; the string is the usage text.
    Usage(String),
    /// The spec could not be found or read.
    Io(std::io::Error),
    /// The spec failed to parse or resolve.
    Spec(slif_speclang::SpecError),
    /// Estimation or exploration failed.
    Core(slif_core::CoreError),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(u) => write!(f, "{u}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Spec(e) => write!(f, "specification error:\n{e}"),
            CliError::Core(e) => write!(f, "estimation error: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(value: std::io::Error) -> Self {
        CliError::Io(value)
    }
}

impl From<slif_speclang::SpecError> for CliError {
    fn from(value: slif_speclang::SpecError) -> Self {
        CliError::Spec(value)
    }
}

impl From<slif_core::CoreError> for CliError {
    fn from(value: slif_core::CoreError) -> Self {
        CliError::Core(value)
    }
}

/// Top-level usage text.
pub const USAGE: &str = "usage: specsyn <command> [args]\n\
commands:\n\
  list                         list the benchmark corpus\n\
  build <spec> [--dot] [--annotated] [--profile FILE] [--out FILE.slif]\n\
                               build SLIF and print a summary (or Graphviz);\n\
                               --out also saves it as slif-wire text\n\
  estimate <spec|FILE.slif>    build (or load), allocate cpu+asic+mem+bus, estimate\n\
  partition <spec> [--algo greedy|random|sa|kl|cluster] [--seed N] [--blocks]\n\
            [--dot]            explore the partition space (--dot: clustered graph)\n\
  compare <spec>               SLIF vs ADD vs CDFG format sizes\n\
  simulate <spec> [--rounds N] functionally simulate and profile\n\
  pareto <spec> [--samples N]  multi-objective (time/gates/pins) sweep\n\
  inline <spec> <proc>         inline a procedure (annotation recompute)\n\
  merge <spec> <proc1> <proc2> merge two processes\n\
  report                       regenerate the paper's Figure 4 table\n\
<spec> is a corpus name (ans, ether, fuzzy, vol) or a .sl file path";

/// Loads a previously saved `.slif` (or `.slifb`) design file with the
/// strict interchange reader, so only a design whose content key
/// verifies is accepted.
///
/// # Errors
///
/// I/O errors for unreadable paths; usage errors for malformed files.
pub fn load_slif(path: &str) -> Result<Design, CliError> {
    let bytes = std::fs::read(path)?;
    read_bytes(&bytes, Strictness::Strict, &FormatLimits::default())
        .map(|outcome| outcome.design)
        .map_err(|e| CliError::Usage(format!("{path}: {e}")))
}

/// Loads a spec by corpus name or file path.
///
/// # Errors
///
/// I/O errors for unreadable paths; spec errors for invalid sources.
pub fn load_spec(name_or_path: &str) -> Result<ResolvedSpec, CliError> {
    if let Some(entry) = corpus::by_name(name_or_path) {
        return Ok(entry.load()?);
    }
    let source = std::fs::read_to_string(name_or_path)?;
    Ok(slif_speclang::parse_and_resolve(&source)?)
}

/// Runs a full command line (without the program name).
///
/// # Errors
///
/// A [`CliError`] describing what went wrong; `Usage` carries help text.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("list") => Ok(cmd_list()),
        Some("build") => cmd_build(&args[1..]),
        Some("estimate") => cmd_estimate(&args[1..]),
        Some("partition") => cmd_partition(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("pareto") => cmd_pareto(&args[1..]),
        Some("inline") => cmd_inline(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("report") => Ok(cmd_report()),
        _ => Err(CliError::Usage(USAGE.to_owned())),
    }
}

fn cmd_list() -> String {
    let mut out = String::from("benchmark corpus (the paper's Figure 4 systems):\n");
    for e in corpus::all() {
        let _ = writeln!(
            out,
            "  {:<6} {:<40} paper: {} lines, {} objects, {} channels",
            e.name, e.description, e.paper.lines, e.paper.bv, e.paper.channels
        );
    }
    out
}

fn cmd_build(args: &[String]) -> Result<String, CliError> {
    let mut spec_arg: Option<&str> = None;
    let mut dot = false;
    let mut annotated = false;
    let mut out_path: Option<&str> = None;
    let mut granularity = Granularity::Behavior;
    let mut profile: Option<Profile> = None;
    let mut it = args.iter().map(String::as_str);
    while let Some(a) = it.next() {
        match a {
            "--dot" => dot = true,
            "--annotated" => annotated = true,
            "--blocks" => granularity = Granularity::BasicBlock,
            "--out" => {
                out_path = Some(
                    it.next()
                        .ok_or_else(|| CliError::Usage("--out needs a file".to_owned()))?,
                );
            }
            "--profile" => {
                let path = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--profile needs a file".to_owned()))?;
                let text = std::fs::read_to_string(path)?;
                profile = Some(Profile::parse(&text).map_err(|e| CliError::Usage(e.to_string()))?);
            }
            other if spec_arg.is_none() => spec_arg = Some(other),
            other => return Err(CliError::Usage(format!("unexpected argument `{other}`"))),
        }
    }
    let spec_arg = spec_arg.ok_or_else(|| CliError::Usage(USAGE.to_owned()))?;

    let rs = load_with_profile(spec_arg, profile)?;
    let started = Instant::now();
    let design = build_design_at(&rs, &TechnologyLibrary::standard(), granularity);
    let elapsed = started.elapsed();
    if dot {
        let style = if annotated {
            DotStyle::Annotated
        } else {
            DotStyle::Basic
        };
        return Ok(design_to_dot(&design, style));
    }
    if let Some(path) = out_path {
        let text = write_bytes(&design, None, Encoding::Text)
            .map_err(|e| CliError::Usage(format!("{path}: {e}")))?;
        std::fs::write(path, text)?;
    }
    let mut out = String::new();
    let _ = writeln!(out, "built SLIF for `{}`:", design.name());
    let _ = writeln!(
        out,
        "  {} behavior/variable objects, {} channels, {} ports",
        design.graph().node_count(),
        design.graph().channel_count(),
        design.graph().port_count()
    );
    let _ = writeln!(
        out,
        "  {} component classes annotated (T-slif: {:.3} ms)",
        design.class_count(),
        elapsed.as_secs_f64() * 1e3
    );
    Ok(out)
}

fn load_with_profile(spec_arg: &str, profile: Option<Profile>) -> Result<ResolvedSpec, CliError> {
    match profile {
        None => load_spec(spec_arg),
        Some(p) => {
            // Re-parse so the overrides apply before resolution.
            let source = match corpus::by_name(spec_arg) {
                Some(e) => e.source.to_owned(),
                None => std::fs::read_to_string(spec_arg)?,
            };
            let mut spec = slif_speclang::parse(&source).map_err(CliError::Spec)?;
            p.apply(&mut spec);
            Ok(slif_speclang::resolve(spec)?)
        }
    }
}

/// Builds, allocates the paper's processor–ASIC architecture, and returns
/// (design, all-software partition).
fn build_proc_asic(rs: &ResolvedSpec) -> (Design, slif_core::Partition) {
    build_proc_asic_at(rs, Granularity::Behavior)
}

fn build_proc_asic_at(
    rs: &ResolvedSpec,
    granularity: Granularity,
) -> (Design, slif_core::Partition) {
    let mut design = build_design_at(rs, &TechnologyLibrary::proc_asic(), granularity);
    let arch = allocate_proc_asic(&mut design);
    let part = all_software_partition(&design, arch);
    (design, part)
}

fn cmd_estimate(args: &[String]) -> Result<String, CliError> {
    let spec_arg = args
        .first()
        .ok_or_else(|| CliError::Usage(USAGE.to_owned()))?;
    // A saved `.slif` design skips the build step entirely — the paper's
    // point that SLIF is built once and reused.
    let (design, part) = if spec_arg.ends_with(".slif") {
        let mut design = load_slif(spec_arg)?;
        let arch = allocate_proc_asic(&mut design);
        let part = all_software_partition(&design, arch);
        (design, part)
    } else {
        let rs = load_spec(spec_arg)?;
        build_proc_asic(&rs)
    };
    let started = Instant::now();
    let report = DesignReport::compute(&design, &part)?;
    let elapsed = started.elapsed();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "estimates for `{}` (all-software start, T-est: {:.3} ms):",
        design.name(),
        elapsed.as_secs_f64() * 1e3
    );
    let _ = write!(out, "{report}");
    Ok(out)
}

fn cmd_partition(args: &[String]) -> Result<String, CliError> {
    let mut spec_arg: Option<&str> = None;
    let mut algo = "greedy";
    let mut seed = 1u64;
    let mut granularity = Granularity::Behavior;
    let mut dot = false;
    let mut it = args.iter().map(String::as_str);
    while let Some(a) = it.next() {
        match a {
            "--blocks" => granularity = Granularity::BasicBlock,
            "--dot" => dot = true,
            "--algo" => {
                algo = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--algo needs a name".to_owned()))?;
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| CliError::Usage("--seed needs a number".to_owned()))?;
            }
            other if spec_arg.is_none() => spec_arg = Some(other),
            other => return Err(CliError::Usage(format!("unexpected argument `{other}`"))),
        }
    }
    let spec_arg = spec_arg.ok_or_else(|| CliError::Usage(USAGE.to_owned()))?;
    let rs = load_spec(spec_arg)?;
    let (design, start) = build_proc_asic_at(&rs, granularity);
    let objectives = Objectives::new();

    let mut est = slif_estimate::IncrementalEstimator::new(&design, start.clone())?;
    let start_cost = slif_explore::cost(&mut est, &objectives)?;

    let started = Instant::now();
    let result = match algo {
        "greedy" => greedy_improve(&design, start, &objectives, 50)?,
        "random" => random_search(&design, start, &objectives, 2000, seed)?,
        "sa" => simulated_annealing(
            &design,
            start,
            &objectives,
            AnnealingConfig::default(),
            seed,
        )?,
        "kl" => group_migration(&design, start, &objectives, 8)?,
        "cluster" => cluster_partition(&design, start, &objectives, design.processor_count() + 1)?,
        other => {
            return Err(CliError::Usage(format!(
                "unknown algorithm `{other}` (greedy|random|sa|kl|cluster)"
            )))
        }
    };
    let elapsed = started.elapsed();
    if dot {
        return Ok(slif_core::dot::partitioned_to_dot(
            &design,
            &result.partition,
        ));
    }

    let mut out = String::new();
    let _ = writeln!(out, "partitioning `{}` with {algo}:", design.name());
    let _ = writeln!(
        out,
        "  cost {:.4} -> {:.4} after {} evaluations in {:.1} ms ({:.0} partitions/s)",
        start_cost,
        result.cost,
        result.evaluations,
        elapsed.as_secs_f64() * 1e3,
        result.evaluations as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    let report = DesignReport::compute(&design, &result.partition)?;
    let _ = write!(out, "{report}");
    Ok(out)
}

fn cmd_compare(args: &[String]) -> Result<String, CliError> {
    let spec_arg = args
        .first()
        .ok_or_else(|| CliError::Usage(USAGE.to_owned()))?;
    let rs = load_spec(spec_arg)?;
    let design = build_design(&rs, &TechnologyLibrary::proc_asic());
    let cmp = FormatComparison::measure(&rs, design.graph().channel_count());
    Ok(cmp.to_string())
}

fn cmd_simulate(args: &[String]) -> Result<String, CliError> {
    let mut spec_arg: Option<&str> = None;
    let mut rounds = 16u64;
    let mut it = args.iter().map(String::as_str);
    while let Some(a) = it.next() {
        match a {
            "--rounds" => {
                rounds = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| CliError::Usage("--rounds needs a number".to_owned()))?;
            }
            other if spec_arg.is_none() => spec_arg = Some(other),
            other => return Err(CliError::Usage(format!("unexpected argument `{other}`"))),
        }
    }
    let spec_arg = spec_arg.ok_or_else(|| CliError::Usage(USAGE.to_owned()))?;
    let rs = load_spec(spec_arg)?;
    let mut stim = Stimulus::new();
    for p in &rs.spec().ports {
        stim = stim.with_port(&p.name, PortStimulus::Ramp { start: 1, step: 7 });
    }
    let result = simulate(
        &rs,
        &stim,
        SimConfig {
            rounds,
            ..SimConfig::default()
        },
    )
    .map_err(|e| CliError::Usage(e.to_string()))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "simulated `{}` for {rounds} rounds (sim time {}):",
        rs.spec().name,
        result.sim_time
    );
    let mut ports: Vec<_> = result.port_writes.iter().collect();
    ports.sort_by_key(|(name, _)| (*name).clone());
    for (port, values) in ports {
        let tail: Vec<String> = values
            .iter()
            .rev()
            .take(8)
            .rev()
            .map(i64::to_string)
            .collect();
        let _ = writeln!(
            out,
            "  port {:<12} {} writes, last: [{}]",
            port,
            values.len(),
            tail.join(", ")
        );
    }
    let _ = writeln!(out, "dynamic access rates (per source execution):");
    let mut rates: Vec<((String, String), f64)> = result
        .access_counts
        .keys()
        .filter_map(|k| {
            result
                .accesses_per_execution(&k.0, &k.1)
                .map(|r| (k.clone(), r))
        })
        .collect();
    rates.sort_by(|a, b| b.1.total_cmp(&a.1));
    for ((src, dst), rate) in rates.iter().take(12) {
        let _ = writeln!(out, "  {src:<16} -> {dst:<16} x{rate:.2}");
    }
    Ok(out)
}

fn cmd_pareto(args: &[String]) -> Result<String, CliError> {
    let mut spec_arg: Option<&str> = None;
    let mut samples = 3000u64;
    let mut it = args.iter().map(String::as_str);
    while let Some(a) = it.next() {
        match a {
            "--samples" => {
                samples = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| CliError::Usage("--samples needs a number".to_owned()))?;
            }
            other if spec_arg.is_none() => spec_arg = Some(other),
            other => return Err(CliError::Usage(format!("unexpected argument `{other}`"))),
        }
    }
    let spec_arg = spec_arg.ok_or_else(|| CliError::Usage(USAGE.to_owned()))?;
    let rs = load_spec(spec_arg)?;
    let (design, start) = build_proc_asic(&rs);
    let front = pareto_sweep(&design, start, samples, 1)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} non-dominated designs from {samples} sampled moves:",
        front.len()
    );
    let _ = writeln!(
        out,
        "  {:>14} {:>12} {:>6}",
        "period (ns)", "hw gates", "pins"
    );
    for p in &front {
        let _ = writeln!(
            out,
            "  {:>14.0} {:>12} {:>6}",
            p.exec_time, p.hw_gates, p.pins
        );
    }
    Ok(out)
}

fn cmd_inline(args: &[String]) -> Result<String, CliError> {
    let (spec_arg, name) = match args {
        [s, n] => (s.as_str(), n.as_str()),
        _ => {
            return Err(CliError::Usage(
                "usage: specsyn inline <spec> <proc>".to_owned(),
            ))
        }
    };
    let rs = load_spec(spec_arg)?;
    let design = build_design(&rs, &TechnologyLibrary::proc_asic());
    let node = design
        .graph()
        .node_by_name(name)
        .ok_or_else(|| CliError::Usage(format!("no behavior named `{name}`")))?;
    let result = inline_procedure(&design, node).map_err(|e| CliError::Usage(e.to_string()))?;
    Ok(format!(
        "inlined `{name}`: nodes {} -> {}, channels {} -> {}
",
        design.graph().node_count(),
        result.design.graph().node_count(),
        design.graph().channel_count(),
        result.design.graph().channel_count()
    ))
}

fn cmd_merge(args: &[String]) -> Result<String, CliError> {
    let (spec_arg, a_name, b_name) = match args {
        [s, a, b] => (s.as_str(), a.as_str(), b.as_str()),
        _ => {
            return Err(CliError::Usage(
                "usage: specsyn merge <spec> <proc1> <proc2>".to_owned(),
            ))
        }
    };
    let rs = load_spec(spec_arg)?;
    let design = build_design(&rs, &TechnologyLibrary::proc_asic());
    let lookup = |name: &str| {
        design
            .graph()
            .node_by_name(name)
            .ok_or_else(|| CliError::Usage(format!("no behavior named `{name}`")))
    };
    let (a, b) = (lookup(a_name)?, lookup(b_name)?);
    let result = merge_processes(&design, a, b).map_err(|e| CliError::Usage(e.to_string()))?;
    Ok(format!(
        "merged `{b_name}` into `{a_name}`: nodes {} -> {}, channels {} -> {}
",
        design.graph().node_count(),
        result.design.graph().node_count(),
        design.graph().channel_count(),
        result.design.graph().channel_count()
    ))
}

/// Regenerates the paper's Figure 4 table with measured timings alongside
/// the published ones.
pub fn cmd_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 4: results of building SLIF and obtaining estimations"
    );
    let _ = writeln!(
        out,
        "{:<7} {:>6} {:>5} {:>5} | {:>12} {:>12} | {:>12} {:>12}",
        "", "Lines", "BV", "C", "T-slif(meas)", "T-est(meas)", "T-slif(1994)", "T-est(1994)"
    );
    for entry in corpus::all() {
        let rs = entry.load().expect("corpus loads");
        let started = Instant::now();
        let mut design = build_design(&rs, &TechnologyLibrary::proc_asic());
        let t_slif = started.elapsed();
        let arch = allocate_proc_asic(&mut design);
        let part = all_software_partition(&design, arch);
        let started = Instant::now();
        let report = DesignReport::compute(&design, &part).expect("corpus estimates");
        let t_est = started.elapsed();
        let _ = writeln!(
            out,
            "{:<7} {:>6} {:>5} {:>5} | {:>9.3} ms {:>9.3} ms | {:>10.2} s {:>10.2} s",
            entry.name,
            entry.source.lines().count(),
            design.graph().node_count(),
            design.graph().channel_count(),
            t_slif.as_secs_f64() * 1e3,
            t_est.as_secs_f64() * 1e3,
            entry.paper.t_slif_s,
            entry.paper.t_est_s,
        );
        let _ = report;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_args(args: &[&str]) -> Result<String, CliError> {
        let v: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        run(&v)
    }

    #[test]
    fn list_names_all_examples() {
        let out = run_args(&["list"]).unwrap();
        for name in ["ans", "ether", "fuzzy", "vol"] {
            assert!(out.contains(name), "{out}");
        }
    }

    #[test]
    fn build_summary_matches_figure4_counts() {
        let out = run_args(&["build", "fuzzy"]).unwrap();
        assert!(out.contains("35 behavior/variable objects"), "{out}");
        assert!(out.contains("56 channels"), "{out}");
    }

    #[test]
    fn build_blocks_reports_finer_graph() {
        let coarse = run_args(&["build", "fuzzy"]).unwrap();
        let fine = run_args(&["build", "fuzzy", "--blocks"]).unwrap();
        assert!(coarse.contains("35 behavior/variable objects"), "{coarse}");
        assert!(!fine.contains("35 behavior/variable objects"), "{fine}");
    }

    #[test]
    fn build_dot_emits_graphviz() {
        let out = run_args(&["build", "fuzzy", "--dot"]).unwrap();
        assert!(out.starts_with("digraph slif"));
        assert!(out.contains("FuzzyMain"));
        let annotated = run_args(&["build", "fuzzy", "--dot", "--annotated"]).unwrap();
        assert!(annotated.contains("ict {"), "{annotated}");
    }

    #[test]
    fn estimate_prints_full_report() {
        let out = run_args(&["estimate", "vol"]).unwrap();
        assert!(out.contains("components:"));
        assert!(out.contains("processes:"));
        assert!(out.contains("VolMain"));
    }

    #[test]
    fn partition_improves_or_holds_cost() {
        for algo in ["greedy", "random", "sa", "kl", "cluster"] {
            let out = run_args(&["partition", "vol", "--algo", algo, "--seed", "3"]).unwrap();
            assert!(out.contains("evaluations"), "{algo}: {out}");
        }
    }

    #[test]
    fn partition_dot_emits_clusters() {
        let out = run_args(&["partition", "vol", "--algo", "greedy", "--dot"]).unwrap();
        assert!(out.starts_with("digraph slif_partition"), "{out}");
        assert!(out.contains("subgraph cluster_"), "{out}");
    }

    #[test]
    fn block_granularity_partitioning_runs() {
        let out = run_args(&["partition", "vol", "--algo", "greedy", "--blocks"]).unwrap();
        assert!(out.contains("VolumeMeter@bb"), "{out}");
    }

    #[test]
    fn compare_prints_three_formats() {
        let out = run_args(&["compare", "fuzzy"]).unwrap();
        assert!(out.contains("SLIF-AG"));
        assert!(out.contains("1225"));
    }

    #[test]
    fn report_covers_all_rows() {
        let out = cmd_report();
        for name in ["ans", "ether", "fuzzy", "vol"] {
            assert!(out.contains(name), "{out}");
        }
        assert!(out.contains("T-slif"));
    }

    #[test]
    fn simulate_prints_dynamic_rates() {
        let out = run_args(&["simulate", "fuzzy", "--rounds", "8"]).unwrap();
        assert!(out.contains("dynamic access rates"), "{out}");
        assert!(out.contains("EvaluateRule"), "{out}");
    }

    #[test]
    fn pareto_prints_a_front() {
        let out = run_args(&["pareto", "vol", "--samples", "200"]).unwrap();
        assert!(out.contains("non-dominated"), "{out}");
        assert!(out.contains("period"), "{out}");
    }

    #[test]
    fn inline_and_merge_report_shrinkage() {
        let out = run_args(&["inline", "fuzzy", "RuleStrength"]).unwrap();
        assert!(out.contains("nodes 35 -> 34"), "{out}");
        let out = run_args(&["merge", "vol", "VolMain", "DisplayMain"]).unwrap();
        assert!(out.contains("nodes 30 -> 29"), "{out}");
        assert!(matches!(
            run_args(&["inline", "fuzzy", "FuzzyMain"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn unknown_command_yields_usage() {
        assert!(matches!(run_args(&["bogus"]), Err(CliError::Usage(_))));
        assert!(matches!(run_args(&[]), Err(CliError::Usage(_))));
    }

    #[test]
    fn build_out_saves_a_reloadable_slif() {
        let dir = std::env::temp_dir().join("specsyn-test-out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fuzzy.slif");
        let path_str = path.to_str().unwrap().to_owned();
        run_args(&["build", "fuzzy", "--out", &path_str]).unwrap();
        // The file is `slif-wire` text that verifies under the strict
        // interchange reader.
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(b"slif-wire 1\n"));
        let outcome = read_bytes(&bytes, Strictness::Strict, &FormatLimits::default()).unwrap();
        assert!(outcome.verified);
        let loaded = load_slif(&path_str).unwrap();
        assert_eq!(loaded, outcome.design);
        assert_eq!(loaded.graph().node_count(), 35);
        // Estimating straight from the saved design works.
        let out = run_args(&["estimate", &path_str]).unwrap();
        assert!(out.contains("FuzzyMain"), "{out}");
    }

    #[test]
    fn unknown_spec_is_io_error() {
        assert!(matches!(
            run_args(&["build", "/nonexistent.sl"]),
            Err(CliError::Io(_))
        ));
    }

    #[test]
    fn shipped_profile_files_parse_and_apply() {
        let root = env!("CARGO_MANIFEST_DIR");
        for name in ["fuzzy", "ans"] {
            let path = format!("{root}/../../specs/{name}.prof");
            let text = std::fs::read_to_string(&path).unwrap();
            let profile = Profile::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
            assert!(!profile.is_empty());
            let rs = load_with_profile(name, Some(profile)).unwrap();
            let _ = build_design(&rs, &TechnologyLibrary::proc_asic());
        }
    }

    #[test]
    fn profile_override_changes_frequencies() {
        // Force EvaluateRule's branches to always-taken: the mr1 access
        // frequency rises from 65 to 130.
        let profile =
            Profile::parse("branch EvaluateRule 0 1.0\nbranch EvaluateRule 1 1.0\n").unwrap();
        let rs = load_with_profile("fuzzy", Some(profile)).unwrap();
        let design = build_design(&rs, &TechnologyLibrary::proc_asic());
        let g = design.graph();
        let eval = g.node_by_name("EvaluateRule").unwrap();
        let mr1 = g.node_by_name("mr1").unwrap();
        let c = g
            .find_channel(eval, mr1.into(), slif_core::AccessKind::Read)
            .unwrap();
        assert!(
            (g.channel(c).freq().avg - 130.0).abs() < 1e-9,
            "freq {}",
            g.channel(c).freq().avg
        );
    }
}
