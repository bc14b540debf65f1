//! The durability layer: a write-ahead job journal plus the
//! content-addressed design store, glued to the wire protocol.
//!
//! The contract, end to end:
//!
//! 1. **Accept before run** — [`DurableStore::accept`] appends (and
//!    fsyncs) an `Accepted` record *before* the job enters the runtime
//!    queue. If the append fails the request is refused; a job id is
//!    never handed out for work the journal does not know about.
//! 2. **Persist before acknowledge** — the runtime's terminal hook calls
//!    [`DurableStore::record_outcome`] strictly before any waiter can
//!    observe the outcome, so by the time the synchronous response (or a
//!    later `GET /jobs/{id}`) reports a terminal state, that state is on
//!    disk.
//! 3. **Replay on restart** — [`DurableStore::open`] recovers the
//!    journal (truncating torn tails, quarantining corrupt files — see
//!    `slif_store::journal`), restores every terminal result for
//!    `GET /jobs/{id}`, and returns the accepted-but-unfinished jobs so
//!    the server can resubmit them.
//!
//! The `Accepted` payload is the *re-runnable request* — endpoint,
//! params, tenant identity, and spec source — encoded little-endian
//! with length-prefixed bytes, so recovery can rebuild the exact job.

use crate::wire::{render_output, response_for_error, Endpoint, WireParams};
use slif_runtime::JobOutcome;
use slif_store::{CacheStats, DesignCache, JobRecord, Journal, RecoveryReport, StoreError};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A re-runnable request, as journalled in an `Accepted` record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableRequest {
    /// Which endpoint the request hit.
    pub endpoint: Endpoint,
    /// Seed and iteration knobs.
    pub params: WireParams,
    /// The admitted tenant id (0 on an open server).
    pub tenant: u32,
    /// The tenant's fair-share weight.
    pub weight: u32,
    /// The specification source body.
    pub source: String,
}

impl DurableRequest {
    fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(29 + self.source.len());
        b.push(self.endpoint.code());
        b.extend_from_slice(&self.params.seed.to_le_bytes());
        b.extend_from_slice(&self.params.iterations.to_le_bytes());
        b.extend_from_slice(&self.tenant.to_le_bytes());
        b.extend_from_slice(&self.weight.to_le_bytes());
        b.extend_from_slice(&(self.source.len() as u32).to_le_bytes());
        b.extend_from_slice(self.source.as_bytes());
        b
    }

    /// Decodes a journalled payload. The journal already CRC-verified
    /// the bytes, but a version skew could still present garbage, so
    /// every read is bounds-checked.
    fn decode(payload: &[u8]) -> Result<Self, &'static str> {
        let mut pos = 0usize;
        let mut take = |n: usize| -> Result<&[u8], &'static str> {
            let end = pos.checked_add(n).ok_or("payload offset overflow")?;
            if end > payload.len() {
                return Err("payload truncated");
            }
            let s = &payload[pos..end];
            pos = end;
            Ok(s)
        };
        let endpoint = Endpoint::from_code(take(1)?[0]).ok_or("unknown endpoint code")?;
        let mut u64le = |ctx: &'static str| -> Result<u64, &'static str> {
            let b = take(8).map_err(|_| ctx)?;
            let mut a = [0u8; 8];
            a.copy_from_slice(b);
            Ok(u64::from_le_bytes(a))
        };
        let seed = u64le("seed truncated")?;
        let iterations = u64le("iterations truncated")?;
        let mut u32le = |ctx: &'static str| -> Result<u32, &'static str> {
            let b = take(4).map_err(|_| ctx)?;
            Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        };
        let tenant = u32le("tenant truncated")?;
        let weight = u32le("weight truncated")?;
        let len = u32le("source length truncated")? as usize;
        let source = std::str::from_utf8(take(len)?)
            .map_err(|_| "source not UTF-8")?
            .to_owned();
        if pos != payload.len() {
            return Err("trailing bytes");
        }
        Ok(Self {
            endpoint,
            params: WireParams { seed, iterations },
            tenant,
            weight,
            source,
        })
    }
}

/// The durable state of a journalled job, as served by `GET /jobs/{id}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Accepted; no terminal record yet.
    Pending,
    /// Reached a terminal state with this wire status and body.
    Done {
        /// The status the job's outcome mapped to (200/422/500/504).
        status: u16,
        /// The rendered response body.
        body: Vec<u8>,
    },
    /// Cancelled (shutdown discarded it, or recovery could not resubmit).
    Cancelled,
}

/// Journal/recovery counters for `/metrics`. The replay fields are fixed
/// at open; the failure counter is live.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreHealth {
    /// Records replayed from the journal at the last open.
    pub records_replayed: u64,
    /// Accepted-but-unfinished jobs handed back for resubmission.
    pub pending_recovered: u64,
    /// Whether recovery truncated a torn/corrupt tail (0/1).
    pub truncated: bool,
    /// Bytes moved to `.corrupt` sidecars during recovery.
    pub quarantined_bytes: u64,
    /// Whether the whole journal was quarantined for a bad header.
    pub header_quarantined: bool,
    /// Journal appends that failed after the job was already accepted.
    pub append_failures: u64,
}

/// The open journal + cache + in-memory job index.
#[derive(Debug)]
pub struct DurableStore {
    journal: Mutex<Journal>,
    cache: DesignCache,
    states: Mutex<HashMap<u64, JobState>>,
    next_id: AtomicU64,
    append_failures: AtomicU64,
    recovery: RecoveryReport,
    pending_recovered: u64,
}

impl DurableStore {
    /// Opens (or creates) the store under `dir` and recovers the
    /// journal. Returns the store plus every accepted-but-unfinished job
    /// whose payload still decodes — the caller resubmits those.
    /// Pending records whose payload no longer decodes are closed with a
    /// journalled 500 rather than dropped silently.
    ///
    /// # Errors
    ///
    /// [`StoreError`] if the directory or journal cannot be
    /// opened/created. Corruption is not an error — it is recovered.
    pub fn open(dir: &Path) -> Result<(Self, Vec<(u64, DurableRequest)>), StoreError> {
        let (journal, recovery) = Journal::open(&dir.join("journal.wal"))?;
        let cache = DesignCache::open(&dir.join("cache"))?;
        let mut states = HashMap::new();
        for (id, status, body) in &recovery.done {
            states.insert(*id, JobState::Done {
                status: *status,
                body: body.clone(),
            });
        }
        for id in &recovery.cancelled {
            states.insert(*id, JobState::Cancelled);
        }
        let mut store = Self {
            journal: Mutex::new(journal),
            cache,
            states: Mutex::new(states),
            next_id: AtomicU64::new(recovery.next_id),
            append_failures: AtomicU64::new(0),
            pending_recovered: 0,
            recovery,
        };
        let mut resubmit = Vec::new();
        let pending = std::mem::take(&mut store.recovery.pending);
        for job in &pending {
            match DurableRequest::decode(&job.payload) {
                Ok(request) => {
                    crate::lock(&store.states).insert(job.id, JobState::Pending);
                    resubmit.push((job.id, request));
                }
                Err(why) => store.finish(
                    job.id,
                    500,
                    format!("journalled request is no longer decodable: {why}\n").into_bytes(),
                ),
            }
        }
        store.pending_recovered = resubmit.len() as u64;
        Ok((store, resubmit))
    }

    /// Journals an `Accepted` record (append + fsync) and returns the
    /// new durable job id. Called *before* runtime submission.
    ///
    /// # Errors
    ///
    /// [`StoreError`] if the record cannot be made durable — the caller
    /// must refuse the request rather than run unjournalled work.
    pub fn accept(&self, request: &DurableRequest) -> Result<u64, StoreError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        crate::lock(&self.journal).append(&JobRecord::Accepted {
            id,
            payload: request.encode(),
        })?;
        crate::lock(&self.states).insert(id, JobState::Pending);
        Ok(id)
    }

    /// Journals a terminal `Completed` record and updates the index.
    /// Best-effort on the disk side: an append failure is counted (the
    /// in-memory state still serves this process's lifetime) because the
    /// job has already run — there is no caller left to refuse.
    pub fn finish(&self, id: u64, status: u16, body: Vec<u8>) {
        let record = JobRecord::Completed {
            id,
            status,
            body: body.clone(),
        };
        if crate::lock(&self.journal).append(&record).is_err() {
            self.append_failures.fetch_add(1, Ordering::Relaxed);
        }
        crate::lock(&self.states).insert(id, JobState::Done { status, body });
    }

    /// Journals a `Cancelled` record and updates the index.
    pub fn cancel(&self, id: u64) {
        if crate::lock(&self.journal)
            .append(&JobRecord::Cancelled { id })
            .is_err()
        {
            self.append_failures.fetch_add(1, Ordering::Relaxed);
        }
        crate::lock(&self.states).insert(id, JobState::Cancelled);
    }

    /// Maps a runtime terminal outcome onto the journal. This is the
    /// body of the terminal hook: it runs before any waiter can observe
    /// `outcome`, so the ack a client sees is always backed by an
    /// fsynced record.
    pub fn record_outcome(&self, id: u64, outcome: &JobOutcome) {
        match outcome {
            JobOutcome::Completed { output, .. } => {
                self.finish(id, 200, render_output(output).into_bytes());
            }
            JobOutcome::Failed { error, .. } => {
                let resp = response_for_error(error);
                self.finish(id, resp.status, resp.body);
            }
            JobOutcome::TimedOut => self.finish(
                id,
                504,
                b"job deadline expired before execution finished\n".to_vec(),
            ),
            JobOutcome::Cancelled => self.cancel(id),
            // A future outcome variant still reaches a durable state.
            _ => self.finish(id, 500, b"unknown terminal state\n".to_vec()),
        }
    }

    /// The durable state of a job id, if the journal knows it.
    pub fn lookup(&self, id: u64) -> Option<JobState> {
        crate::lock(&self.states).get(&id).cloned()
    }

    /// The content-addressed design store: `/v1` source refs plus the
    /// design objects they and `POST /designs` file.
    pub fn cache(&self) -> &DesignCache {
        &self.cache
    }

    /// Cache counters for `/metrics`.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Journal/recovery counters for `/metrics`.
    pub fn health(&self) -> StoreHealth {
        StoreHealth {
            records_replayed: self.recovery.records_replayed,
            pending_recovered: self.pending_recovered,
            truncated: self.recovery.truncated_at.is_some(),
            quarantined_bytes: self.recovery.quarantined_bytes,
            header_quarantined: self.recovery.header_quarantined,
            append_failures: self.append_failures.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("slif-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn request(source: &str) -> DurableRequest {
        DurableRequest {
            endpoint: Endpoint::Estimate,
            params: WireParams {
                seed: 9,
                iterations: 32,
            },
            tenant: 2,
            weight: 3,
            source: source.to_owned(),
        }
    }

    #[test]
    fn request_payload_round_trips() {
        let req = request("system T;\nprocess Main { }\n");
        assert_eq!(DurableRequest::decode(&req.encode()).unwrap(), req);
        // Every truncation is a typed error, never a panic.
        let full = req.encode();
        for cut in 0..full.len() {
            assert!(DurableRequest::decode(&full[..cut]).is_err(), "cut {cut}");
        }
        let mut trailing = full.clone();
        trailing.push(0);
        assert!(DurableRequest::decode(&trailing).is_err());
    }

    #[test]
    fn lifecycle_survives_reopen() {
        let dir = temp_dir("lifecycle");
        let (store, recovered) = DurableStore::open(&dir).unwrap();
        assert!(recovered.is_empty());
        let done = store.accept(&request("a")).unwrap();
        store.finish(done, 200, b"result body".to_vec());
        let cancelled = store.accept(&request("b")).unwrap();
        store.cancel(cancelled);
        let pending = store.accept(&request("c")).unwrap();
        drop(store);

        let (store, recovered) = DurableStore::open(&dir).unwrap();
        assert_eq!(
            store.lookup(done),
            Some(JobState::Done {
                status: 200,
                body: b"result body".to_vec()
            })
        );
        assert_eq!(store.lookup(cancelled), Some(JobState::Cancelled));
        assert_eq!(store.lookup(pending), Some(JobState::Pending));
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].0, pending);
        assert_eq!(recovered[0].1, request("c"));
        // Ids never collide with journalled ones.
        let fresh = store.accept(&request("d")).unwrap();
        assert!(fresh > pending);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn outcomes_map_to_durable_states() {
        let dir = temp_dir("outcomes");
        let (store, _) = DurableStore::open(&dir).unwrap();
        let id = store.accept(&request("x")).unwrap();
        store.record_outcome(id, &JobOutcome::TimedOut);
        assert_eq!(
            store.lookup(id),
            Some(JobState::Done {
                status: 504,
                body: b"job deadline expired before execution finished\n".to_vec()
            })
        );
        let id = store.accept(&request("y")).unwrap();
        store.record_outcome(id, &JobOutcome::Cancelled);
        assert_eq!(store.lookup(id), Some(JobState::Cancelled));
        assert!(store.lookup(10_000).is_none());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn undecodable_pending_payload_is_closed_not_dropped() {
        let dir = temp_dir("undecodable");
        {
            let (journal, _) = Journal::open(&dir.join("journal.wal")).unwrap();
            let mut journal = journal;
            journal
                .append(&JobRecord::Accepted {
                    id: 0,
                    payload: vec![250, 1, 2],
                })
                .unwrap();
        }
        let (store, recovered) = DurableStore::open(&dir).unwrap();
        assert!(recovered.is_empty());
        match store.lookup(0) {
            Some(JobState::Done { status: 500, body }) => {
                assert!(String::from_utf8_lossy(&body).contains("no longer decodable"));
            }
            other => panic!("unexpected state {other:?}"),
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}
