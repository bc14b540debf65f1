//! Crash-safe SLIF persistence.
//!
//! Everything the serving stack accumulates — accepted jobs, their
//! results, stored designs — used to live only in process memory, so a
//! crash lost all acknowledged work and forced every tenant back through
//! cold parse/compile. This crate is the durable layer underneath:
//!
//! * [`Journal`] — a write-ahead job journal: an append-only file of
//!   per-record CRC-checksummed `Accepted`/`Completed`/`Cancelled`
//!   transitions, fsynced before any acknowledgement leaves the process.
//!   Reopening after a crash replays the journal, hands back the jobs
//!   that never reached a terminal state, and truncates at the first
//!   torn or corrupt record — quarantining the damaged tail to a
//!   `.corrupt` sidecar instead of panicking or serving garbage.
//! * [`DesignCache`] — a content-addressed design store: one object per
//!   design, its `.slifb` file, named by the SHA-256 of its
//!   [`canonical`] byte encoding of [`Design`](slif_core::Design), plus
//!   source refs so repeat traffic for a known spec skips parse and
//!   build entirely. Every read hashes the canonical bytes it rebuilds
//!   from the object's frames against the name they were filed under,
//!   so a verified hit is *bit-identical* to the design that was stored
//!   and its bytes are the design's `.slifb` file; any mismatch is a
//!   miss plus a quarantine, never an error surfaced to a client.
//! * [`canonical`] — the one `Design` codec: a version byte, then the
//!   length-prefixed payloads of the `.slifb` design segments, in a
//!   fixed field order with exact round-trip (`decode(encode(d)) == d`),
//!   and the `.slifb` design framing around them. Its
//!   [`SegmentDecoder`](canonical::SegmentDecoder) rebuilds designs for
//!   the cache and for the `.slifb` reader alike.
//!
//! All file writes go through
//! [`slif_core::atomic_io`](slif_core::atomic_io) (temp file → fsync →
//! rename) or are appends followed by an fsync, so no crash can leave a
//! half-written blob under a live name. All reads verify magic, version,
//! and checksum before a single payload byte is decoded; corruption of
//! any kind surfaces as a typed [`StoreError`] or as a counted cache
//! miss.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::expect_used)]

pub mod cache;
pub mod canonical;
mod error;
pub mod journal;
pub mod sha256;

pub use cache::{CacheStats, DesignCache};
pub use canonical::{decode_design, encode_design};
pub use error::StoreError;
pub use journal::{Journal, JobRecord, PendingJob, RecoveryReport};
pub use sha256::ContentKey;
