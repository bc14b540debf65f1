//! The unit of work a [`JobService`](crate::JobService) executes.
//!
//! A [`Job`] is one self-contained request against the SLIF pipeline:
//! parse a specification, compile a design, run the full estimator
//! report, or run a supervised exploration. Jobs own their inputs (no
//! borrowed data crosses the queue) and produce a [`JobOutput`] or a
//! typed [`JobError`] — never a panic, except for the documented
//! [`Job::InjectedPanic`] fault-injection hook.
//!
//! [`Job::run_inline`] executes a job on the caller's thread with no
//! service, no retries, and no deadline. It is the reference semantics:
//! the soak suite asserts that a clean job processed by the service
//! yields a result identical to its inline execution.

use slif_analyze::{
    analyze_compiled, analyze_compiled_with_flow, AnalysisConfig, AnalysisReport,
};
use slif_core::{CompiledDesign, CoreError, Design, GraphLimits, Partition};
use slif_estimate::{DesignReport, EstimatorConfig};
use slif_formats::wirefmt::{
    read_bytes, Encoding, FormatError, FormatLimits, Strictness,
};
use slif_formats::ContentKey;
use slif_explore::{
    explore, Algorithm, ExploreError, Objectives, SupervisedResult, Supervisor,
};
use slif_session::{EditSession, SessionConfig, SessionHandle, SessionUpdate};
use slif_speclang::{parse_with_limits, pretty, resolve, ParseLimits};
use std::fmt;

/// Resource caps under which every job runs: parser limits for
/// specification inputs, graph limits for design inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct RunLimits {
    /// Caps on specification source (bytes, tokens, nesting depth).
    pub parse: ParseLimits,
    /// Caps on design size (nodes, ports, channels, weight cells).
    pub graph: GraphLimits,
}

impl RunLimits {
    /// Replaces the parser limits.
    #[must_use]
    pub fn with_parse(mut self, parse: ParseLimits) -> Self {
        self.parse = parse;
        self
    }

    /// Replaces the design-graph limits.
    #[must_use]
    pub fn with_graph(mut self, graph: GraphLimits) -> Self {
        self.graph = graph;
        self
    }
}

/// One request against the SLIF pipeline.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Job {
    /// Parse and resolve specification source, returning its canonical
    /// pretty-printed form.
    ParseSpec {
        /// The specification source text.
        source: String,
    },
    /// Compile a design into its query-optimized snapshot and report its
    /// size.
    CompileDesign {
        /// The design to compile.
        design: Design,
    },
    /// Run the full estimator report (Equations 1–6) for a partition.
    Estimate {
        /// The design to estimate.
        design: Design,
        /// The partition to estimate it under.
        partition: Partition,
        /// The estimator configuration. A service may substitute a
        /// degraded configuration while its circuit breaker is open.
        config: EstimatorConfig,
    },
    /// Run a supervised exploration from a starting partition.
    Explore {
        /// The design to explore.
        design: Design,
        /// The starting partition.
        start: Partition,
        /// The cost objectives.
        objectives: Objectives,
        /// The partitioning algorithm (seeds included, so runs are
        /// reproducible).
        algorithm: Algorithm,
    },
    /// Run the `slif-analyze` lint engine (races, dead code, recursion
    /// cycles, bitwidth hazards, annotation gaps) over a design.
    Analyze {
        /// The design to lint.
        design: Design,
        /// An optional partition; with one, the mapping-sensitive lints
        /// (race serialization, bus existence and transfer splitting)
        /// see the mapping too.
        partition: Option<Partition>,
        /// Per-lint levels and thresholds.
        config: AnalysisConfig,
        /// The specification source the design was built from, when the
        /// caller has it. With it, the flow-sensitive dataflow lints
        /// (`A006`–`A009`) run over the lowered behavior bodies, in-spec
        /// `@allow` suppressions are honored, and findings carry source
        /// spans. Source that fails to parse is a typed
        /// [`JobError::Spec`] failure, never a silently flow-less run.
        source: Option<String>,
    },
    /// Open an incremental edit session over specification source. The
    /// output carries a shared [`SessionHandle`]; subsequent edits go
    /// straight to the handle (cheap, slice-based) rather than through
    /// the job queue. Broken source still opens — the session reports
    /// its diagnostics and recovers on the first fixing edit — so this
    /// job only fails on infrastructure errors, never on content.
    EditSession {
        /// The initial specification source text.
        source: String,
    },
    /// Read a design (and optional partition) from `.slif` text or
    /// `.slifb` binary interchange bytes. The encoding is sniffed from
    /// the leading bytes; the read is strict — damage, caps, and
    /// content-key mismatches are typed [`JobError::Format`] failures,
    /// never a silently wrong design.
    Import {
        /// The raw interchange bytes, either encoding.
        bytes: Vec<u8>,
    },
    /// Panics on execution. The fault-injection hook for exercising the
    /// service's panic isolation: a well-behaved service converts it into
    /// a retried-then-failed outcome, never a process abort.
    InjectedPanic {
        /// The panic message.
        message: String,
    },
}

impl Job {
    /// A stable kebab-case name for the job's kind, for logs and metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            Job::ParseSpec { .. } => "parse-spec",
            Job::CompileDesign { .. } => "compile-design",
            Job::Estimate { .. } => "estimate",
            Job::Explore { .. } => "explore",
            Job::Analyze { .. } => "analyze",
            Job::EditSession { .. } => "edit-session",
            Job::Import { .. } => "import",
            Job::InjectedPanic { .. } => "injected-panic",
        }
    }

    /// Executes the job on the calling thread with no supervision: default
    /// estimator configuration handling, an unlimited supervisor, no
    /// retries, no deadline. This is the reference semantics the service
    /// must reproduce for clean jobs.
    ///
    /// # Errors
    ///
    /// Any typed failure of the underlying pipeline stage.
    ///
    /// # Panics
    ///
    /// Only for [`Job::InjectedPanic`], by design.
    pub fn run_inline(&self, limits: &RunLimits) -> Result<JobOutput, JobError> {
        self.run(limits, None, Supervisor::unlimited())
    }

    /// Executes the job under explicit control: an optional estimator
    /// configuration override (the degraded path while a breaker is open)
    /// and a caller-built supervisor (deadline and cancellation wiring)
    /// for exploration jobs.
    pub(crate) fn run(
        &self,
        limits: &RunLimits,
        estimate_override: Option<EstimatorConfig>,
        mut supervisor: Supervisor,
    ) -> Result<JobOutput, JobError> {
        match self {
            Job::ParseSpec { source } => {
                let spec = parse_with_limits(source, &limits.parse)
                    .map_err(|e| JobError::Spec(e.to_string()))?;
                let canonical = pretty(&spec);
                let behaviors = spec.behaviors.len();
                resolve(spec).map_err(|e| JobError::Spec(e.to_string()))?;
                Ok(JobOutput::Parsed {
                    canonical,
                    behaviors,
                })
            }
            Job::CompileDesign { design } => {
                let cd = CompiledDesign::compile_bounded(design, &limits.graph)?;
                Ok(JobOutput::Compiled {
                    nodes: cd.node_count(),
                    ports: cd.port_count(),
                    channels: cd.channel_count(),
                    classes: cd.class_count(),
                })
            }
            Job::Estimate {
                design,
                partition,
                config,
            } => {
                design.graph().check_limits(&limits.graph)?;
                let cfg = estimate_override.unwrap_or(*config);
                let report = DesignReport::compute_with(design, partition, cfg)?;
                Ok(JobOutput::Estimated(report))
            }
            Job::Explore {
                design,
                start,
                objectives,
                algorithm,
            } => {
                design.graph().check_limits(&limits.graph)?;
                let result =
                    explore(design, start.clone(), objectives, algorithm, &mut supervisor)?;
                Ok(JobOutput::Explored(result))
            }
            Job::Analyze {
                design,
                partition,
                config,
                source,
            } => {
                let cd = CompiledDesign::compile_bounded(design, &limits.graph)?;
                let report = match source {
                    Some(src) => {
                        let spec = parse_with_limits(src, &limits.parse)
                            .map_err(|e| JobError::Spec(e.to_string()))?;
                        let flow = slif_speclang::FlowProgram::from_spec(&spec);
                        let sources = slif_speclang::SourceMap::from_spec(&spec);
                        analyze_compiled_with_flow(
                            &cd,
                            partition.as_ref(),
                            config,
                            &flow,
                            Some(&sources),
                        )
                    }
                    None => analyze_compiled(&cd, partition.as_ref(), config),
                };
                Ok(JobOutput::Analyzed(report))
            }
            Job::EditSession { source } => {
                let config = SessionConfig {
                    parse_limits: limits.parse,
                    ..SessionConfig::default()
                };
                let (session, update) = EditSession::open(source, config);
                Ok(JobOutput::Session {
                    session: SessionHandle::new(session),
                    update,
                })
            }
            Job::Import { bytes } => {
                let fmt_limits = FormatLimits::default().with_graph(limits.graph);
                let encoding = slif_formats::detect_encoding(bytes)
                    .ok_or(FormatError::BadMagic { offset: 0 })?;
                let outcome = read_bytes(bytes, Strictness::Strict, &fmt_limits)?;
                Ok(JobOutput::Imported {
                    encoding,
                    design: Box::new(outcome.design),
                    partition: outcome.partition,
                    warnings: outcome.diagnostics.len(),
                    verified: outcome.verified,
                    key: outcome.key,
                })
            }
            Job::InjectedPanic { message } => panic!("{message}"),
        }
    }
}

/// The successful result of a job.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum JobOutput {
    /// A parsed and resolved specification.
    Parsed {
        /// The canonical pretty-printed form of the parsed spec.
        canonical: String,
        /// How many behaviors (processes and procedures) it declares.
        behaviors: usize,
    },
    /// A compiled design's size summary.
    Compiled {
        /// Node count of the compiled snapshot.
        nodes: usize,
        /// Port count.
        ports: usize,
        /// Channel count.
        channels: usize,
        /// Component-class count.
        classes: usize,
    },
    /// A full estimator report.
    Estimated(DesignReport),
    /// A supervised exploration outcome (best partition seen, stop
    /// reason, checkpoints written).
    Explored(SupervisedResult),
    /// A lint report. Findings are data, not failures: a report full of
    /// denials is still a *successful* analysis job.
    Analyzed(AnalysisReport),
    /// A design read from interchange bytes.
    Imported {
        /// Which encoding the bytes carried.
        encoding: Encoding,
        /// The decoded design. Boxed so the common outputs do not pay
        /// this variant's size in every `JobOutcome`.
        design: Box<Design>,
        /// The decoded partition, when the bytes carried one.
        partition: Option<Partition>,
        /// How many non-fatal diagnostics the reader noted (for example
        /// skipped unknown extension sections).
        warnings: usize,
        /// Whether the embedded content key matched the decoded design.
        verified: bool,
        /// The decoded design's content key, as the reader computed it.
        key: ContentKey,
    },
    /// An opened edit session: the shared handle plus the opening
    /// update (revision 0 state, diagnostics if the source was broken).
    Session {
        /// The live session, shared with whoever holds the output.
        session: SessionHandle,
        /// What opening computed: tier, cleanliness, initial reports.
        update: SessionUpdate,
    },
}

/// A typed job failure.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum JobError {
    /// The specification failed to parse or resolve; the message carries
    /// every rendered diagnostic.
    Spec(String),
    /// The core/estimation layer rejected the input.
    Core(CoreError),
    /// The exploration layer failed.
    Explore(ExploreError),
    /// Interchange bytes were refused: damage, a cap, or a content-key
    /// mismatch.
    Format(FormatError),
    /// The job panicked (possibly repeatedly, through every retry).
    Panicked {
        /// The final panic's message.
        message: String,
    },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Spec(msg) => write!(f, "specification rejected: {msg}"),
            JobError::Core(e) => write!(f, "{e}"),
            JobError::Explore(e) => write!(f, "{e}"),
            JobError::Format(e) => write!(f, "interchange bytes rejected: {e}"),
            JobError::Panicked { message } => write!(f, "job panicked: {message}"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<CoreError> for JobError {
    fn from(e: CoreError) -> Self {
        JobError::Core(e)
    }
}

impl From<ExploreError> for JobError {
    fn from(e: ExploreError) -> Self {
        JobError::Explore(e)
    }
}

impl From<FormatError> for JobError {
    fn from(e: FormatError) -> Self {
        JobError::Format(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD_SPEC: &str = "system T;\nvar x : int<8>;\nprocess Main { x = x + 1; }\n";

    #[test]
    fn parse_job_runs_inline() {
        let job = Job::ParseSpec {
            source: GOOD_SPEC.to_owned(),
        };
        let out = job.run_inline(&RunLimits::default()).unwrap();
        match out {
            JobOutput::Parsed { behaviors, .. } => assert_eq!(behaviors, 1),
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn malformed_spec_is_a_typed_error() {
        let job = Job::ParseSpec {
            source: "system ; process {".to_owned(),
        };
        let err = job.run_inline(&RunLimits::default()).unwrap_err();
        assert!(matches!(err, JobError::Spec(_)));
        assert!(err.to_string().starts_with("specification rejected"));
    }

    #[test]
    fn over_limit_spec_is_a_typed_error() {
        let limits = RunLimits {
            parse: ParseLimits::default().with_max_bytes(8),
            ..RunLimits::default()
        };
        let job = Job::ParseSpec {
            source: GOOD_SPEC.to_owned(),
        };
        let err = job.run_inline(&limits).unwrap_err();
        assert!(err.to_string().contains("P004"), "{err}");
    }

    #[test]
    fn analyze_job_reports_findings_inline() {
        use slif_analyze::LintId;
        use slif_core::{AccessKind, NodeKind};

        let mut d = Design::new("cyclic");
        let main = d.graph_mut().add_node("Main", NodeKind::process());
        let a = d.graph_mut().add_node("a", NodeKind::procedure());
        let b = d.graph_mut().add_node("b", NodeKind::procedure());
        d.graph_mut()
            .add_channel(main, a.into(), AccessKind::Call)
            .unwrap();
        d.graph_mut().add_channel(a, b.into(), AccessKind::Call).unwrap();
        d.graph_mut().add_channel(b, a.into(), AccessKind::Call).unwrap();

        let job = Job::Analyze {
            design: d,
            partition: None,
            config: AnalysisConfig::new(),
            source: None,
        };
        assert_eq!(job.kind(), "analyze");
        match job.run_inline(&RunLimits::default()).unwrap() {
            JobOutput::Analyzed(report) => {
                assert!(report.has_denials(), "{report}");
                assert_eq!(report.of(LintId::RecursionCycle).count(), 1, "{report}");
            }
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn analyze_job_on_clean_design_is_clean() {
        use slif_core::{AccessKind, NodeKind};

        let mut d = Design::new("clean");
        let main = d.graph_mut().add_node("Main", NodeKind::process());
        let v = d.graph_mut().add_node("v", NodeKind::scalar(8));
        d.graph_mut()
            .add_channel(main, v.into(), AccessKind::Write)
            .unwrap();
        let job = Job::Analyze {
            design: d,
            partition: None,
            config: AnalysisConfig::new(),
            source: None,
        };
        match job.run_inline(&RunLimits::default()).unwrap() {
            JobOutput::Analyzed(report) => assert!(report.is_clean(), "{report}"),
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn over_limit_analyze_job_is_a_typed_error() {
        use slif_core::NodeKind;

        let mut d = Design::new("big");
        d.graph_mut().add_node("Main", NodeKind::process());
        d.graph_mut().add_node("v", NodeKind::scalar(8));
        let limits = RunLimits {
            graph: GraphLimits::default().with_max_nodes(1),
            ..RunLimits::default()
        };
        let job = Job::Analyze {
            design: d,
            partition: None,
            config: AnalysisConfig::new(),
            source: None,
        };
        let err = job.run_inline(&limits).unwrap_err();
        assert!(matches!(err, JobError::Core(_)), "{err}");
    }

    #[test]
    fn analyze_job_with_source_runs_flow_passes() {
        use slif_analyze::LintId;
        use slif_core::NodeKind;

        // The dead store is only visible to the flow-sensitive passes,
        // which need the source; the design itself is clean.
        let spec = "system T;\nprocess Main { wait 1; }\nproc P() { var t : int<8>; t = 1; }\n";
        let mut d = Design::new("flow");
        d.graph_mut().add_node("Main", NodeKind::process());
        let job = Job::Analyze {
            design: d,
            partition: None,
            config: AnalysisConfig::new(),
            source: Some(spec.to_owned()),
        };
        match job.run_inline(&RunLimits::default()).unwrap() {
            JobOutput::Analyzed(report) => {
                assert_eq!(report.of(LintId::DeadStore).count(), 1, "{report}");
            }
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn analyze_job_with_unparseable_source_is_a_typed_error() {
        let job = Job::Analyze {
            design: Design::new("broken-source"),
            partition: None,
            config: AnalysisConfig::new(),
            source: Some("system ???".to_owned()),
        };
        let err = job.run_inline(&RunLimits::default()).unwrap_err();
        assert!(matches!(err, JobError::Spec(_)), "{err}");
    }

    #[test]
    fn edit_session_job_opens_and_accepts_edits() {
        let job = Job::EditSession {
            source: GOOD_SPEC.to_owned(),
        };
        assert_eq!(job.kind(), "edit-session");
        let (session, update) = match job.run_inline(&RunLimits::default()).unwrap() {
            JobOutput::Session { session, update } => (session, update),
            other => panic!("unexpected output {other:?}"),
        };
        assert!(update.clean, "{:?}", update.diagnostics);
        assert!(update.estimate.is_some());
        // Edits flow through the shared handle, not the job queue.
        let end = GOOD_SPEC.len();
        let edited = session
            .lock()
            .apply_edit(&slif_session::EditDelta::new(end, end, "// note\n"))
            .unwrap();
        assert!(edited.clean);
        assert_eq!(edited.revision, 1);
    }

    #[test]
    fn edit_session_job_on_broken_source_still_opens() {
        let job = Job::EditSession {
            source: "system ; process {".to_owned(),
        };
        match job.run_inline(&RunLimits::default()).unwrap() {
            JobOutput::Session { update, .. } => {
                assert!(!update.clean);
                assert!(!update.diagnostics.is_empty());
                assert!(update.estimate.is_none());
            }
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn session_outputs_compare_by_state() {
        let job = Job::EditSession {
            source: GOOD_SPEC.to_owned(),
        };
        let a = job.run_inline(&RunLimits::default()).unwrap();
        let b = job.run_inline(&RunLimits::default()).unwrap();
        // Distinct handles over identical state: equal, as the service
        // soak's inline-equivalence check requires.
        assert_eq!(a, b);
    }

    #[test]
    fn export_then_import_round_trips_both_encodings() {
        use slif_core::NodeKind;

        let mut d = Design::new("wire");
        let main = d.graph_mut().add_node("Main", NodeKind::process());
        let v = d.graph_mut().add_node("v", NodeKind::scalar(8));
        d.graph_mut()
            .add_channel(main, v.into(), slif_core::AccessKind::Write)
            .unwrap();

        for encoding in [Encoding::Text, Encoding::Binary] {
            let bytes = slif_formats::write_bytes(&d, None, encoding).unwrap();
            let job = Job::Import { bytes };
            assert_eq!(job.kind(), "import");
            match job.run_inline(&RunLimits::default()).unwrap() {
                JobOutput::Imported {
                    encoding: e,
                    design,
                    partition,
                    verified,
                    ..
                } => {
                    assert_eq!(e, encoding);
                    assert_eq!(*design, d);
                    assert_eq!(partition, None);
                    assert!(verified);
                }
                other => panic!("unexpected output {other:?}"),
            }
        }
    }

    #[test]
    fn garbage_import_is_a_typed_format_error() {
        let job = Job::Import {
            bytes: b"definitely not slif".to_vec(),
        };
        let err = job.run_inline(&RunLimits::default()).unwrap_err();
        assert!(matches!(err, JobError::Format(_)), "{err}");
        assert!(err.to_string().starts_with("interchange bytes rejected"));
    }

    #[test]
    fn over_limit_import_is_a_typed_format_error() {
        use slif_core::NodeKind;

        let mut d = Design::new("big");
        d.graph_mut().add_node("Main", NodeKind::process());
        d.graph_mut().add_node("v", NodeKind::scalar(8));
        let bytes = slif_formats::write_bytes(&d, None, Encoding::Text).unwrap();
        let limits = RunLimits {
            graph: GraphLimits::default().with_max_nodes(1),
            ..RunLimits::default()
        };
        let err = Job::Import { bytes }.run_inline(&limits).unwrap_err();
        assert!(matches!(err, JobError::Format(_)), "{err}");
    }

    #[test]
    fn job_kinds_are_kebab_case() {
        let job = Job::InjectedPanic {
            message: "boom".to_owned(),
        };
        assert_eq!(job.kind(), "injected-panic");
    }

    #[test]
    fn injected_panic_panics() {
        let job = Job::InjectedPanic {
            message: "seeded fault".to_owned(),
        };
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = job.run_inline(&RunLimits::default());
        }));
        assert!(res.is_err());
    }
}
