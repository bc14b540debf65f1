//! # slif-serve — the wire-facing front door for the SLIF job service
//!
//! [`slif_runtime`] already guarantees that every *admitted* job reaches
//! exactly one terminal state. This crate extends that guarantee across
//! a network boundary where the clients are assumed hostile: a
//! hand-rolled HTTP/1.1 server ([`server::Server`]) over
//! `std::net::TcpListener` with a fixed acceptor + connection-worker
//! pool, fronting a [`JobService`](slif_runtime::JobService).
//!
//! The invariant it serves: **every byte-complete request gets exactly
//! one well-formed response — a result or a typed refusal — and no
//! client behaviour can make the server panic, hang, or drop an
//! in-flight job.**
//!
//! Layers, outermost first:
//!
//! * [`http`] — request framing with read/write deadlines, a head-size
//!   cap, and a declared-body-size guard (slow loris → 408, oversized →
//!   413, truncation → 400, all without unbounded reads).
//! * [`tenant`] — API-key authentication with per-tenant token-bucket
//!   quotas (401 / 429 + `Retry-After`); tenant identity also flows into
//!   the runtime's weighted fair-share queue, so one tenant's flood
//!   cannot starve another's trickle.
//! * [`wire`] — the protocol proper: endpoint → [`Job`](slif_runtime::Job)
//!   construction and deterministic output rendering, shared by the
//!   server, the load generator, and the bit-identity soak test; plus
//!   the single mapping from every [`Rejected`](slif_runtime::Rejected)
//!   variant and [`JobError`](slif_runtime::JobError) to a distinct
//!   status code.
//! * [`durable`] — optional crash-safe persistence: a write-ahead job
//!   journal (accept-before-run, persist-before-acknowledge, replay on
//!   restart) and a content-addressed design store, both built on
//!   [`slif_store`]. Enables durable job ids (`x-slif-job-id`),
//!   `GET /jobs/{id}` result retrieval across restarts, the `/v1` source
//!   cache, and `POST /designs` / `GET /designs/{hash}`.
//! * [`session`] — long-lived incremental edit sessions
//!   (`POST /sessions`, `POST /sessions/{id}/edit`,
//!   `GET /sessions/{id}`): one [`slif_session::EditSession`] per id,
//!   per-tenant caps, lazy idle eviction, tenant-isolated lookups.
//! * [`server`] — the accept/dispatch loop, `/health` and `/metrics`,
//!   and graceful drain (in-flight jobs finish; new work gets 410).
//! * [`loadgen`] — a deterministic, fault-injecting load generator that
//!   doubles as the wire-level soak harness.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// The front door must refuse, not die: no `expect` on serving paths
// (promoted to an error by the verify gate's `-D warnings`).
#![warn(clippy::expect_used)]

pub mod durable;
pub mod http;
pub mod loadgen;
pub mod server;
pub mod session;
pub mod tenant;
pub mod wire;

use std::sync::{Mutex, MutexGuard};

/// Locks a mutex, recovering from poisoning — same rationale as the
/// runtime's helper: panicking code never runs under these locks, so
/// the guarded data is still the source of truth.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
