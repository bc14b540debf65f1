//! The SLIF wire protocol: endpoints, job construction, output
//! rendering, and the status-code taxonomy.
//!
//! Everything here is **pure** and shared by the server, the load
//! generator, and the soak test — that sharing is what makes the
//! bit-identity guarantee checkable: the test computes the expected body
//! with [`job_for`] + [`Job::run_inline`] + [`render_output`] and
//! compares it byte-for-byte against what came over the socket.
//!
//! ## Endpoints
//!
//! | Method/path        | Job                         |
//! |--------------------|-----------------------------|
//! | `POST /v1/parse`   | [`Job::ParseSpec`]          |
//! | `POST /v1/estimate`| [`Job::Estimate`]           |
//! | `POST /v1/explore` | [`Job::Explore`] (random search, seeded) |
//! | `POST /v1/analyze` | [`Job::Analyze`]            |
//! | `POST /sessions`   | [`Job::EditSession`] → a live edit session |
//! | `POST /sessions/{id}/edit` | inline incremental edit (see [`crate::session`]) |
//! | `GET /sessions/{id}` | session status + current reports |
//! | `POST /designs`    | [`Job::Import`] — `.slif`/`.slifb` interchange bytes in, content hash out |
//! | `GET /designs/{hash}` | export a stored design (`Accept` picks text or binary) |
//! | `GET /health`      | health snapshot             |
//! | `GET /metrics`     | counters + latency percentiles |
//!
//! The body is specification source; `x-slif-seed` and
//! `x-slif-iterations` tune exploration.
//!
//! ## Status taxonomy
//!
//! Every refusal is distinct, so a client (or the soak test) can tell
//! *which* guard fired from the status alone:
//!
//! | Status | Meaning |
//! |--------|---------|
//! | 400    | malformed framing or truncated body |
//! | 401    | missing/unknown API key |
//! | 404    | unknown path |
//! | 405    | wrong method for a known path |
//! | 408    | read deadline expired mid-request (slow loris) |
//! | 409    | tenant at its edit-session cap |
//! | 410    | draining — [`Rejected::ShuttingDown`] |
//! | 413    | oversized (HTTP body guard or [`Rejected::TooLarge`]); a `POST /designs` body past the read budget never enters memory |
//! | 422    | spec/core/explore/format error — the job ran and refused; interchange bytes that are damaged, over a format cap, or fail the content-key check land here |
//! | 429    | tenant quota exhausted (`Retry-After`) |
//! | 500    | job panicked (isolated; the server stays up) |
//! | 503    | [`Rejected::QueueFull`] (`Retry-After`) |
//! | 504    | job deadline expired in the service |
//!
//! 410 (not 503) for drain keeps every [`Rejected`] variant on its own
//! code: `QueueFull` is "retry this same server soon", `ShuttingDown`
//! is "this instance is gone, go elsewhere".

use crate::http::Response;
use slif_analyze::AnalysisConfig;
use slif_core::Design;
use slif_estimate::EstimatorConfig;
use slif_explore::{Algorithm, Objectives};
use slif_frontend::{
    all_software_partition, build_design, try_allocate_proc_asic, ProcAsicArchitecture,
};
use slif_runtime::{Job, JobError, JobOutput, Rejected, RunLimits};
use slif_speclang::{parse_with_limits, resolve};
use slif_store::DesignCache;
use slif_techlib::TechnologyLibrary;

/// Header carrying the API key.
pub const HDR_API_KEY: &str = "x-api-key";
/// Header carrying the exploration RNG seed (u64, default 0).
pub const HDR_SEED: &str = "x-slif-seed";
/// Header carrying the requested exploration iterations (u64).
pub const HDR_ITERATIONS: &str = "x-slif-iterations";
/// Header carrying an edit's start byte offset (`POST /sessions/{id}/edit`).
pub const HDR_EDIT_START: &str = "x-slif-edit-start";
/// Header carrying an edit's end byte offset (exclusive).
pub const HDR_EDIT_END: &str = "x-slif-edit-end";

/// A job-running endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/parse`
    Parse,
    /// `POST /v1/estimate`
    Estimate,
    /// `POST /v1/explore`
    Explore,
    /// `POST /v1/analyze`
    Analyze,
}

impl Endpoint {
    /// Maps a request path to its endpoint.
    pub fn from_path(path: &str) -> Option<Self> {
        match path {
            "/v1/parse" => Some(Self::Parse),
            "/v1/estimate" => Some(Self::Estimate),
            "/v1/explore" => Some(Self::Explore),
            "/v1/analyze" => Some(Self::Analyze),
            _ => None,
        }
    }

    /// The kebab-case kind name, matching [`Job::kind`] for the job this
    /// endpoint submits.
    pub fn kind(self) -> &'static str {
        match self {
            Self::Parse => "parse-spec",
            Self::Estimate => "estimate",
            Self::Explore => "explore",
            Self::Analyze => "analyze",
        }
    }

    /// All endpoints, for iteration in the load generator.
    pub const ALL: [Endpoint; 4] = [
        Endpoint::Parse,
        Endpoint::Estimate,
        Endpoint::Explore,
        Endpoint::Analyze,
    ];

    /// A stable one-byte code for journal payloads.
    pub fn code(self) -> u8 {
        match self {
            Self::Parse => 0,
            Self::Estimate => 1,
            Self::Explore => 2,
            Self::Analyze => 3,
        }
    }

    /// The endpoint for a journal code, `None` for an unknown byte.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Self::Parse),
            1 => Some(Self::Estimate),
            2 => Some(Self::Explore),
            3 => Some(Self::Analyze),
            _ => None,
        }
    }
}

/// Per-request tuning knobs, parsed from headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireParams {
    /// Exploration RNG seed.
    pub seed: u64,
    /// Requested exploration iterations (the server caps this).
    pub iterations: u64,
}

impl Default for WireParams {
    fn default() -> Self {
        Self {
            seed: 0,
            iterations: 64,
        }
    }
}

impl WireParams {
    /// Parses params from header lookups; absent or unparsable headers
    /// keep their defaults (hostile headers must not 500).
    pub fn from_headers<'a>(mut header: impl FnMut(&str) -> Option<&'a str>) -> Self {
        let mut p = Self::default();
        if let Some(v) = header(HDR_SEED).and_then(|v| v.parse().ok()) {
            p.seed = v;
        }
        if let Some(v) = header(HDR_ITERATIONS).and_then(|v| v.parse().ok()) {
            p.iterations = v;
        }
        p
    }
}

/// Builds the job an endpoint runs over specification `source`.
///
/// This is the *entire* request semantics: the server submits exactly
/// this job, and the soak test runs exactly this job inline. Estimate,
/// explore, and analyze all operate on the proc+ASIC design compiled
/// from the source, starting from the all-software partition.
///
/// # Errors
///
/// A rendered diagnostic when the source fails to parse, resolve, or
/// allocate — refused before queueing (wire 422).
pub fn job_for(
    endpoint: Endpoint,
    source: &str,
    params: &WireParams,
    limits: &RunLimits,
    max_iterations: u64,
) -> Result<Job, String> {
    job_for_with_cache(endpoint, source, params, limits, max_iterations, None)
}

/// [`job_for`] with an optional source cache: refs from spec source
/// bytes to the compiled, allocated design.
///
/// For the compiling endpoints (estimate/explore/analyze) a verified
/// cache hit skips the parse→resolve→build→allocate pipeline entirely:
/// the cached canonical design already contains the allocated proc+ASIC
/// architecture, which is reconstructed by component-name lookup (the
/// allocator is not idempotent, so it must not run again). Because the
/// canonical codec round-trips designs exactly, a warm job is equal to
/// the cold-compiled one and produces bit-identical output. Only this
/// function files source refs (`POST /designs` stores bare objects), so
/// every hit is a design this pipeline compiled from exactly these
/// bytes.
///
/// A miss falls back to the cold pipeline and populates the cache;
/// cache write failures are swallowed — caching is an optimization, not
/// a correctness dependency.
///
/// # Errors
///
/// Same as [`job_for`]: a rendered diagnostic for a source that fails
/// the cold pipeline. A damaged cache never produces an error here.
pub fn job_for_with_cache(
    endpoint: Endpoint,
    source: &str,
    params: &WireParams,
    limits: &RunLimits,
    max_iterations: u64,
    cache: Option<&DesignCache>,
) -> Result<Job, String> {
    if endpoint == Endpoint::Parse {
        return Ok(Job::ParseSpec {
            source: source.to_owned(),
        });
    }
    if let Some(cache) = cache {
        if let Some(design) = cache.get(source.as_bytes()) {
            // A cached design that somehow lacks the architecture
            // components is useless; treat it as a miss.
            if let Some(arch) = arch_from_design(&design) {
                return Ok(job_from_parts(
                    endpoint,
                    source,
                    design,
                    arch,
                    params,
                    max_iterations,
                ));
            }
        }
    }
    let (design, arch) = compile_allocated(source, limits)?;
    if let Some(cache) = cache {
        drop(cache.put(source.as_bytes(), &design));
    }
    Ok(job_from_parts(
        endpoint,
        source,
        design,
        arch,
        params,
        max_iterations,
    ))
}

/// The cold pipeline: parse → resolve → build → allocate the proc+ASIC
/// architecture.
fn compile_allocated(
    source: &str,
    limits: &RunLimits,
) -> Result<(Design, ProcAsicArchitecture), String> {
    let spec = parse_with_limits(source, &limits.parse).map_err(|e| e.to_string())?;
    let rs = resolve(spec).map_err(|e| e.to_string())?;
    let mut design = build_design(&rs, &TechnologyLibrary::proc_asic());
    let arch = try_allocate_proc_asic(&mut design).map_err(|e| e.to_string())?;
    Ok((design, arch))
}

/// Reconstructs the allocated architecture from the component names
/// [`try_allocate_proc_asic`] assigns. `None` if any component is
/// missing (the design did not come through that allocator).
fn arch_from_design(design: &Design) -> Option<ProcAsicArchitecture> {
    Some(ProcAsicArchitecture {
        cpu: design.processor_by_name("cpu0")?,
        asic: design.processor_by_name("asic0")?,
        mem: design.memory_by_name("mem0")?,
        bus: design.bus_by_name("sysbus")?,
    })
}

fn job_from_parts(
    endpoint: Endpoint,
    source: &str,
    design: Design,
    arch: ProcAsicArchitecture,
    params: &WireParams,
    max_iterations: u64,
) -> Job {
    let partition = all_software_partition(&design, arch);
    match endpoint {
        Endpoint::Parse => unreachable!("parse never compiles a design"),
        Endpoint::Estimate => Job::Estimate {
            design,
            partition,
            config: EstimatorConfig::new(),
        },
        Endpoint::Explore => Job::Explore {
            design,
            start: partition,
            objectives: Objectives::new(),
            algorithm: Algorithm::RandomSearch {
                iterations: params.iterations.min(max_iterations),
                seed: params.seed,
            },
        },
        Endpoint::Analyze => Job::Analyze {
            design,
            partition: Some(partition),
            config: AnalysisConfig::new(),
            // Carrying the source enables the flow-sensitive passes
            // (A006–A009) and in-spec `@allow` suppressions server-side.
            source: Some(source.to_owned()),
        },
    }
}

/// Renders a successful job output as the deterministic response body.
///
/// Determinism is load-bearing: the soak test compares these bytes
/// across the wire against an inline run. Never panics — an
/// unrecognized (future) output variant renders as a placeholder.
pub fn render_output(output: &JobOutput) -> String {
    match output {
        JobOutput::Parsed {
            canonical,
            behaviors,
        } => format!("parsed: {behaviors} behaviors\n\n{canonical}"),
        JobOutput::Compiled {
            nodes,
            ports,
            channels,
            classes,
        } => format!(
            "compiled: {nodes} nodes, {ports} ports, {channels} channels, {classes} classes\n"
        ),
        JobOutput::Estimated(report) => format!("{report}"),
        JobOutput::Explored(sr) => format!(
            "explored: stop {}, cost {}, evaluations {}, checkpoints {}\n",
            sr.stop, sr.result.cost, sr.result.evaluations, sr.checkpoints_written
        ),
        JobOutput::Analyzed(report) => format!("{report}"),
        JobOutput::Imported {
            encoding,
            design,
            partition,
            warnings,
            verified,
            ..
        } => format!(
            "imported: {encoding} design \"{}\" ({} nodes, {} channels{}), {warnings} warnings, {}\n",
            design.name(),
            design.graph().node_count(),
            design.graph().channel_count(),
            if partition.is_some() {
                ", with partition"
            } else {
                ""
            },
            if *verified { "verified" } else { "unverified" },
        ),
        _ => "ok (unrenderable output kind)\n".to_owned(),
    }
}

/// Maps a runtime admission refusal to its (distinct) wire response.
pub fn response_for_rejection(rejection: &Rejected) -> Response {
    match rejection {
        Rejected::QueueFull { capacity } => Response::new(
            503,
            "Service Unavailable",
            format!("queue full (capacity {capacity}); retry later\n"),
        )
        .with_retry_after(1),
        Rejected::TooLarge {
            what,
            limit,
            actual,
        } => Response::new(
            413,
            "Payload Too Large",
            format!("too large: {what} {actual} exceeds limit {limit}\n"),
        ),
        Rejected::ShuttingDown => Response::new(
            410,
            "Gone",
            "server is draining; resubmit elsewhere\n",
        ),
        // `Rejected` is non_exhaustive upstream-compatible: refuse
        // conservatively rather than panic on a future variant.
        #[allow(unreachable_patterns)]
        _ => Response::new(503, "Service Unavailable", "rejected\n"),
    }
}

/// Maps a typed job failure to its wire response: the job *ran* and
/// refused (422), or it panicked and was isolated (500).
pub fn response_for_error(error: &JobError) -> Response {
    match error {
        JobError::Spec(_) | JobError::Core(_) | JobError::Explore(_) | JobError::Format(_) => {
            Response::new(422, "Unprocessable Entity", format!("{error}\n"))
        }
        JobError::Panicked { .. } => Response::new(
            500,
            "Internal Server Error",
            format!("{error}\n"),
        ),
        #[allow(unreachable_patterns)]
        _ => Response::new(500, "Internal Server Error", format!("{error}\n")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD_SPEC: &str = "system T;\nvar x : int<8>;\nprocess Main { x = x + 1; }\n";

    #[test]
    fn endpoints_round_trip_paths() {
        for ep in Endpoint::ALL {
            let path = match ep {
                Endpoint::Parse => "/v1/parse",
                Endpoint::Estimate => "/v1/estimate",
                Endpoint::Explore => "/v1/explore",
                Endpoint::Analyze => "/v1/analyze",
            };
            assert_eq!(Endpoint::from_path(path), Some(ep));
        }
        assert_eq!(Endpoint::from_path("/v1/nope"), None);
    }

    #[test]
    fn params_parse_from_headers_with_hostile_fallbacks() {
        let headers = [(HDR_SEED, "17"), (HDR_ITERATIONS, "not-a-number")];
        let p = WireParams::from_headers(|name| {
            headers.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
        });
        assert_eq!(p.seed, 17);
        assert_eq!(p.iterations, WireParams::default().iterations);
    }

    #[test]
    fn every_endpoint_builds_a_runnable_job() {
        let limits = RunLimits::default();
        for ep in Endpoint::ALL {
            let job = job_for(ep, GOOD_SPEC, &WireParams::default(), &limits, 16)
                .unwrap_or_else(|e| panic!("{}: {e}", ep.kind()));
            assert_eq!(job.kind(), ep.kind());
            let out = job
                .run_inline(&limits)
                .unwrap_or_else(|e| panic!("{}: {e}", ep.kind()));
            let body = render_output(&out);
            assert!(!body.is_empty());
            // Rendering is deterministic for identical jobs.
            let out2 = job_for(ep, GOOD_SPEC, &WireParams::default(), &limits, 16)
                .and_then(|j| j.run_inline(&limits).map_err(|e| e.to_string()))
                .unwrap_or_else(|e| panic!("{}: {e}", ep.kind()));
            assert_eq!(body, render_output(&out2), "{}", ep.kind());
        }
    }

    #[test]
    fn endpoint_codes_round_trip() {
        for ep in Endpoint::ALL {
            assert_eq!(Endpoint::from_code(ep.code()), Some(ep));
        }
        assert_eq!(Endpoint::from_code(200), None);
    }

    /// The tentpole guarantee at the wire layer: a job built from a
    /// verified cache hit is *equal* to the cold-compiled job, so warm
    /// responses are bit-identical to cold ones.
    #[test]
    fn cache_hit_builds_a_job_identical_to_cold_compile() {
        let dir = std::env::temp_dir().join(format!("slif-wire-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DesignCache::open(&dir).unwrap();
        let limits = RunLimits::default();
        for ep in [Endpoint::Estimate, Endpoint::Explore, Endpoint::Analyze] {
            let cold = job_for(ep, GOOD_SPEC, &WireParams::default(), &limits, 16).unwrap();
            // First cached call: a miss that populates.
            let populate = job_for_with_cache(
                ep,
                GOOD_SPEC,
                &WireParams::default(),
                &limits,
                16,
                Some(&cache),
            )
            .unwrap();
            // Second: a verified hit that skips the pipeline.
            let warm = job_for_with_cache(
                ep,
                GOOD_SPEC,
                &WireParams::default(),
                &limits,
                16,
                Some(&cache),
            )
            .unwrap();
            let design_of = |job: &Job| -> Design {
                match job {
                    Job::Estimate { design, .. }
                    | Job::Explore { design, .. }
                    | Job::Analyze { design, .. } => design.clone(),
                    other => panic!("job without a design: {other:?}"),
                }
            };
            assert_eq!(design_of(&cold), design_of(&populate), "{}", ep.kind());
            assert_eq!(design_of(&cold), design_of(&warm), "{}", ep.kind());
            assert_eq!(
                slif_store::encode_design(&design_of(&cold)),
                slif_store::encode_design(&design_of(&warm)),
                "{}: warm design not canonically identical",
                ep.kind()
            );
            let cold_body = render_output(&cold.run_inline(&limits).unwrap());
            let warm_body = render_output(&warm.run_inline(&limits).unwrap());
            assert_eq!(cold_body, warm_body, "{}: warm output diverged", ep.kind());
        }
        assert!(cache.stats().hits >= 2, "{:?}", cache.stats());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn explore_iterations_are_capped() {
        let limits = RunLimits::default();
        let params = WireParams {
            seed: 1,
            iterations: 1_000_000,
        };
        match job_for(Endpoint::Explore, GOOD_SPEC, &params, &limits, 8) {
            Ok(Job::Explore {
                algorithm: Algorithm::RandomSearch { iterations, seed },
                ..
            }) => {
                assert_eq!(iterations, 8);
                assert_eq!(seed, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bad_spec_is_refused_before_queueing() {
        let err = job_for(
            Endpoint::Estimate,
            "system ; process {",
            &WireParams::default(),
            &RunLimits::default(),
            16,
        )
        .unwrap_err();
        assert!(!err.is_empty());
    }

    #[test]
    fn rejections_map_to_distinct_statuses() {
        let full = response_for_rejection(&Rejected::QueueFull { capacity: 4 });
        let large = response_for_rejection(&Rejected::TooLarge {
            what: "spec bytes",
            limit: 10,
            actual: 99,
        });
        let drain = response_for_rejection(&Rejected::ShuttingDown);
        assert_eq!(full.status, 503);
        assert_eq!(full.retry_after, Some(1));
        assert_eq!(large.status, 413);
        assert_eq!(drain.status, 410);
        let statuses = [full.status, large.status, drain.status];
        let mut unique = statuses.to_vec();
        unique.dedup();
        assert_eq!(unique.len(), statuses.len(), "statuses must be distinct");
    }

    #[test]
    fn errors_map_panics_to_500_and_refusals_to_422() {
        assert_eq!(
            response_for_error(&JobError::Spec("bad".into())).status,
            422
        );
        assert_eq!(
            response_for_error(&JobError::Panicked {
                message: "boom".into()
            })
            .status,
            500
        );
    }
}
