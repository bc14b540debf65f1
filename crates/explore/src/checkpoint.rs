//! Crash-safe exploration checkpoints.
//!
//! A checkpoint is a versioned, checksummed binary snapshot of everything
//! a partitioner needs to continue a run bit-for-bit: the RNG state, the
//! loop counters, the best partition and cost, the current partition, and
//! any per-pass bookkeeping (locked sets and move trails). The file
//! layout is:
//!
//! ```text
//! magic    8 bytes   b"SLIFCKPT"
//! version  u32 LE    currently 1
//! length   u64 LE    payload byte count
//! checksum u64 LE    FNV-1a 64 over the payload
//! payload  ...       design fingerprint, run state, algorithm state
//! ```
//!
//! Writes are atomic: the bytes go to a sibling `*.tmp` file which is
//! fsynced and then renamed over the destination, so a crash mid-write
//! leaves either the previous checkpoint or a temp file — never a
//! half-written snapshot under the real name. Loads verify the magic,
//! version, length, and checksum before any field is decoded, and every
//! decoded index is range-checked against the design, so corruption of
//! any kind surfaces as a typed [`CheckpointError`], never a panic.

use crate::algorithms::AnnealingConfig;
use slif_core::atomic_io::{self, fnv1a, FrameError};
use slif_core::codec::{Dec, DecodeError, Enc};
use slif_core::{BusId, ChannelId, Design, MemoryId, NodeId, Partition, PmRef, ProcessorId};
use std::fmt;
use std::fs;
use std::path::Path;

/// The 8-byte file magic.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"SLIFCKPT";
/// The current (and only) format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Why a checkpoint could not be written, read, or decoded.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The file could not be created, written, renamed, or read.
    Io {
        /// The path involved.
        path: String,
        /// The operating-system error text.
        message: String,
    },
    /// The file does not start with [`CHECKPOINT_MAGIC`].
    BadMagic,
    /// The file's version is not one this build can decode.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The file ends before the announced data does.
    Truncated {
        /// What was being decoded when the bytes ran out.
        context: &'static str,
    },
    /// The payload checksum does not match the header.
    ChecksumMismatch,
    /// The checkpoint was taken against a different design.
    DesignMismatch {
        /// The fingerprint field that disagrees.
        field: &'static str,
    },
    /// A decoded value is out of range for the design.
    Corrupt {
        /// What was being decoded.
        context: &'static str,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { path, message } => write!(f, "i/o on {path}: {message}"),
            Self::BadMagic => write!(f, "not a slif checkpoint (bad magic)"),
            Self::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported checkpoint version {found} (this build reads {CHECKPOINT_VERSION})"
                )
            }
            Self::Truncated { context } => write!(f, "checkpoint truncated while reading {context}"),
            Self::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            Self::DesignMismatch { field } => {
                write!(f, "checkpoint was taken against a different design ({field} differs)")
            }
            Self::Corrupt { context } => write!(f, "checkpoint corrupt: invalid {context}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<DecodeError> for CheckpointError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated { context } => Self::Truncated { context },
            DecodeError::TrailingBytes => Self::Corrupt {
                context: "trailing bytes",
            },
        }
    }
}

/// A cheap structural identity for a design, embedded in every
/// checkpoint so a snapshot cannot be resumed against the wrong design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DesignFingerprint {
    nodes: u32,
    channels: u32,
    processors: u32,
    memories: u32,
    buses: u32,
    name_hash: u64,
}

impl DesignFingerprint {
    pub(crate) fn of(design: &Design) -> Self {
        Self {
            nodes: design.graph().node_count() as u32,
            channels: design.graph().channel_count() as u32,
            processors: design.processor_count() as u32,
            memories: design.memory_count() as u32,
            buses: design.bus_count() as u32,
            name_hash: fnv1a(design.name().as_bytes()),
        }
    }

    fn matches(&self, design: &Design) -> Result<(), CheckpointError> {
        let live = Self::of(design);
        let mismatch = |field| Err(CheckpointError::DesignMismatch { field });
        if self.nodes != live.nodes {
            return mismatch("node count");
        }
        if self.channels != live.channels {
            return mismatch("channel count");
        }
        if self.processors != live.processors {
            return mismatch("processor count");
        }
        if self.memories != live.memories {
            return mismatch("memory count");
        }
        if self.buses != live.buses {
            return mismatch("bus count");
        }
        if self.name_hash != live.name_hash {
            return mismatch("design name");
        }
        Ok(())
    }
}

/// Where a partitioner is inside its own loop structure.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AlgorithmState {
    /// [`random_search`](crate::random_search) between iterations.
    Random {
        iterations: u64,
        iter: u64,
        rng: [u64; 4],
    },
    /// [`greedy_improve`](crate::greedy_improve) at a pass boundary.
    Greedy {
        max_passes: u32,
        pass: u32,
        current_cost: f64,
    },
    /// [`simulated_annealing`](crate::simulated_annealing) between
    /// proposals.
    Annealing {
        config: AnnealingConfig,
        temp: f64,
        move_idx: u32,
        current_cost: f64,
        rng: [u64; 4],
    },
    /// [`group_migration`](crate::group_migration) between applied moves.
    GroupMigration {
        max_passes: u32,
        pass: u32,
        pass_start_cost: f64,
        locked: Vec<bool>,
        trail: Vec<(NodeId, PmRef, f64)>,
    },
}

/// A decoded (or to-be-written) exploration snapshot.
///
/// Produce one by running [`explore`](crate::explore) with a supervisor
/// configured via
/// [`Supervisor::with_checkpoints`](crate::Supervisor::with_checkpoints);
/// consume one with [`load`](Self::load) followed by
/// [`resume`](crate::resume).
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorationCheckpoint {
    pub(crate) fingerprint: DesignFingerprint,
    pub(crate) evaluations: u64,
    pub(crate) best_cost: f64,
    pub(crate) best: Partition,
    pub(crate) current: Partition,
    pub(crate) state: AlgorithmState,
}

impl ExplorationCheckpoint {
    /// Evaluations recorded at the snapshot boundary.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// The best cost recorded at the snapshot boundary.
    pub fn best_cost(&self) -> f64 {
        self.best_cost
    }

    /// The best partition recorded at the snapshot boundary.
    pub fn best_partition(&self) -> &Partition {
        &self.best
    }

    /// Serializes the checkpoint (header + payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        atomic_io::frame(&CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &self.encode_payload())
    }

    /// Decodes a checkpoint, verifying header, checksum, and every index
    /// against `design`.
    ///
    /// # Errors
    ///
    /// Any deviation from the format produces a typed [`CheckpointError`]:
    /// bad magic, unsupported version, truncation, checksum mismatch,
    /// design mismatch, or out-of-range fields.
    pub fn from_bytes(bytes: &[u8], design: &Design) -> Result<Self, CheckpointError> {
        let payload = atomic_io::unframe(&CHECKPOINT_MAGIC, CHECKPOINT_VERSION, bytes).map_err(
            |e| match e {
                FrameError::BadMagic => CheckpointError::BadMagic,
                FrameError::UnsupportedVersion { found } => {
                    CheckpointError::UnsupportedVersion { found }
                }
                FrameError::Truncated => CheckpointError::Truncated { context: "frame" },
                _ => CheckpointError::ChecksumMismatch,
            },
        )?;
        Self::decode_payload(payload, design)
    }

    /// Writes the checkpoint atomically: temp file, fsync, rename.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if any filesystem step fails; the
    /// destination is never left half-written.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        atomic_io::write_atomic(path, &self.to_bytes()).map_err(|e| CheckpointError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })
    }

    /// Reads and decodes a checkpoint file.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the file cannot be read, otherwise any
    /// decode error from [`from_bytes`](Self::from_bytes).
    pub fn load(path: &Path, design: &Design) -> Result<Self, CheckpointError> {
        let bytes = fs::read(path).map_err(|e| CheckpointError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Self::from_bytes(&bytes, design)
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut e = Enc::default();
        let fp = &self.fingerprint;
        e.u32(fp.nodes);
        e.u32(fp.channels);
        e.u32(fp.processors);
        e.u32(fp.memories);
        e.u32(fp.buses);
        e.u64(fp.name_hash);
        e.u64(self.evaluations);
        e.f64(self.best_cost);
        write_partition(&mut e, &self.best);
        write_partition(&mut e, &self.current);
        match &self.state {
            AlgorithmState::Random {
                iterations,
                iter,
                rng,
            } => {
                e.u8(0);
                e.u64(*iterations);
                e.u64(*iter);
                write_rng(&mut e, rng);
            }
            AlgorithmState::Greedy {
                max_passes,
                pass,
                current_cost,
            } => {
                e.u8(1);
                e.u32(*max_passes);
                e.u32(*pass);
                e.f64(*current_cost);
            }
            AlgorithmState::Annealing {
                config,
                temp,
                move_idx,
                current_cost,
                rng,
            } => {
                e.u8(2);
                e.f64(config.t0);
                e.f64(config.alpha);
                e.u32(config.moves_per_temp);
                e.f64(config.t_min);
                e.f64(*temp);
                e.u32(*move_idx);
                e.f64(*current_cost);
                write_rng(&mut e, rng);
            }
            AlgorithmState::GroupMigration {
                max_passes,
                pass,
                pass_start_cost,
                locked,
                trail,
            } => {
                e.u8(3);
                e.u32(*max_passes);
                e.u32(*pass);
                e.f64(*pass_start_cost);
                e.u32(locked.len() as u32);
                for &l in locked {
                    e.u8(u8::from(l));
                }
                e.u32(trail.len() as u32);
                for &(n, home, c) in trail {
                    e.u32(n.index() as u32);
                    write_pm_ref(&mut e, home);
                    e.f64(c);
                }
            }
        }
        e.buf
    }

    fn decode_payload(payload: &[u8], design: &Design) -> Result<Self, CheckpointError> {
        let mut d = Dec::new(payload);
        let fingerprint = DesignFingerprint {
            nodes: d.u32("fingerprint")?,
            channels: d.u32("fingerprint")?,
            processors: d.u32("fingerprint")?,
            memories: d.u32("fingerprint")?,
            buses: d.u32("fingerprint")?,
            name_hash: d.u64("fingerprint")?,
        };
        fingerprint.matches(design)?;
        let evaluations = d.u64("evaluation count")?;
        let best_cost = finite_f64(&mut d, "best cost")?;
        let best = partition(&mut d, design, "best partition")?;
        let current = partition(&mut d, design, "current partition")?;
        let state = match d.u8("algorithm tag")? {
            0 => AlgorithmState::Random {
                iterations: d.u64("iteration budget")?,
                iter: d.u64("iteration counter")?,
                rng: rng(&mut d)?,
            },
            1 => AlgorithmState::Greedy {
                max_passes: d.u32("pass budget")?,
                pass: d.u32("pass counter")?,
                current_cost: finite_f64(&mut d, "current cost")?,
            },
            2 => {
                let config = AnnealingConfig {
                    t0: finite_f64(&mut d, "annealing t0")?,
                    alpha: finite_f64(&mut d, "annealing alpha")?,
                    moves_per_temp: d.u32("annealing moves per temp")?,
                    t_min: finite_f64(&mut d, "annealing t_min")?,
                };
                AlgorithmState::Annealing {
                    config,
                    temp: finite_f64(&mut d, "annealing temperature")?,
                    move_idx: d.u32("annealing move index")?,
                    current_cost: finite_f64(&mut d, "current cost")?,
                    rng: rng(&mut d)?,
                }
            }
            3 => {
                let max_passes = d.u32("pass budget")?;
                let pass = d.u32("pass counter")?;
                let pass_start_cost = finite_f64(&mut d, "pass start cost")?;
                let locked_len = d.u32("locked set length")? as usize;
                if locked_len != design.graph().node_count() {
                    return Err(CheckpointError::Corrupt {
                        context: "locked set length",
                    });
                }
                let mut locked = Vec::with_capacity(locked_len);
                for _ in 0..locked_len {
                    locked.push(match d.u8("locked flag")? {
                        0 => false,
                        1 => true,
                        _ => {
                            return Err(CheckpointError::Corrupt {
                                context: "locked flag",
                            })
                        }
                    });
                }
                let trail_len = d.u32("trail length")? as usize;
                if trail_len > design.graph().node_count() {
                    return Err(CheckpointError::Corrupt {
                        context: "trail length",
                    });
                }
                let mut trail = Vec::with_capacity(trail_len);
                for _ in 0..trail_len {
                    let n = node(&mut d, design, "trail node")?;
                    let home = pm_ref(&mut d, design, "trail home")?;
                    let c = finite_f64(&mut d, "trail cost")?;
                    trail.push((n, home, c));
                }
                AlgorithmState::GroupMigration {
                    max_passes,
                    pass,
                    pass_start_cost,
                    locked,
                    trail,
                }
            }
            _ => {
                return Err(CheckpointError::Corrupt {
                    context: "algorithm tag",
                })
            }
        };
        d.finish()?;
        Ok(Self {
            fingerprint,
            evaluations,
            best_cost,
            best,
            current,
            state,
        })
    }
}

fn write_rng(e: &mut Enc, s: &[u64; 4]) {
    for &w in s {
        e.u64(w);
    }
}

fn write_pm_ref(e: &mut Enc, pm: PmRef) {
    match pm {
        PmRef::Processor(p) => {
            e.u8(1);
            e.u32(p.index() as u32);
        }
        PmRef::Memory(m) => {
            e.u8(2);
            e.u32(m.index() as u32);
        }
    }
}

fn write_partition(e: &mut Enc, p: &Partition) {
    e.u32(p.node_slots() as u32);
    for i in 0..p.node_slots() {
        match p.node_component(NodeId::from_raw(i as u32)) {
            None => e.u8(0),
            Some(pm) => write_pm_ref(e, pm),
        }
    }
    e.u32(p.channel_slots() as u32);
    for i in 0..p.channel_slots() {
        match p.channel_bus(ChannelId::from_raw(i as u32)) {
            None => e.u8(0),
            Some(b) => {
                e.u8(1);
                e.u32(b.index() as u32);
            }
        }
    }
}

fn finite_f64(d: &mut Dec<'_>, context: &'static str) -> Result<f64, CheckpointError> {
    let v = d.f64(context)?;
    if !v.is_finite() {
        return Err(CheckpointError::Corrupt { context });
    }
    Ok(v)
}

fn rng(d: &mut Dec<'_>) -> Result<[u64; 4], CheckpointError> {
    Ok([
        d.u64("rng state")?,
        d.u64("rng state")?,
        d.u64("rng state")?,
        d.u64("rng state")?,
    ])
}

fn node(
    d: &mut Dec<'_>,
    design: &Design,
    context: &'static str,
) -> Result<NodeId, CheckpointError> {
    let i = d.u32(context)?;
    if (i as usize) >= design.graph().node_count() {
        return Err(CheckpointError::Corrupt { context });
    }
    Ok(NodeId::from_raw(i))
}

fn pm_ref(
    d: &mut Dec<'_>,
    design: &Design,
    context: &'static str,
) -> Result<PmRef, CheckpointError> {
    match d.u8(context)? {
        1 => {
            let i = d.u32(context)?;
            if (i as usize) >= design.processor_count() {
                return Err(CheckpointError::Corrupt { context });
            }
            Ok(PmRef::Processor(ProcessorId::from_raw(i)))
        }
        2 => {
            let i = d.u32(context)?;
            if (i as usize) >= design.memory_count() {
                return Err(CheckpointError::Corrupt { context });
            }
            Ok(PmRef::Memory(MemoryId::from_raw(i)))
        }
        _ => Err(CheckpointError::Corrupt { context }),
    }
}

fn partition(
    d: &mut Dec<'_>,
    design: &Design,
    context: &'static str,
) -> Result<Partition, CheckpointError> {
    let nodes = d.u32(context)? as usize;
    if nodes != design.graph().node_count() {
        return Err(CheckpointError::Corrupt { context });
    }
    let mut p = Partition::new(design);
    for i in 0..nodes {
        match d.u8(context)? {
            0 => {}
            1 => {
                let c = d.u32(context)?;
                if (c as usize) >= design.processor_count() {
                    return Err(CheckpointError::Corrupt { context });
                }
                p.assign_node(NodeId::from_raw(i as u32), ProcessorId::from_raw(c).into());
            }
            2 => {
                let c = d.u32(context)?;
                if (c as usize) >= design.memory_count() {
                    return Err(CheckpointError::Corrupt { context });
                }
                p.assign_node(NodeId::from_raw(i as u32), MemoryId::from_raw(c).into());
            }
            _ => return Err(CheckpointError::Corrupt { context }),
        }
    }
    let channels = d.u32(context)? as usize;
    if channels != design.graph().channel_count() {
        return Err(CheckpointError::Corrupt { context });
    }
    for i in 0..channels {
        match d.u8(context)? {
            0 => {}
            1 => {
                let b = d.u32(context)?;
                if (b as usize) >= design.bus_count() {
                    return Err(CheckpointError::Corrupt { context });
                }
                p.assign_channel(ChannelId::from_raw(i as u32), BusId::from_raw(b));
            }
            _ => return Err(CheckpointError::Corrupt { context }),
        }
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slif_core::gen::DesignGenerator;

    fn sample(seed: u64) -> (Design, ExplorationCheckpoint) {
        let (design, partition) = DesignGenerator::new(seed)
            .behaviors(6)
            .variables(4)
            .processors(2)
            .memories(1)
            .buses(2)
            .build();
        let ckpt = ExplorationCheckpoint {
            fingerprint: DesignFingerprint::of(&design),
            evaluations: 42,
            best_cost: 7.25,
            best: partition.clone(),
            current: partition,
            state: AlgorithmState::Random {
                iterations: 100,
                iter: 17,
                rng: [1, 2, 3, 4],
            },
        };
        (design, ckpt)
    }

    #[test]
    fn round_trips_every_algorithm_state() {
        let (design, base) = sample(1);
        let node = design.graph().node_ids().next().unwrap();
        let home = base.best.node_component(node).unwrap();
        let states = [
            base.state.clone(),
            AlgorithmState::Greedy {
                max_passes: 9,
                pass: 2,
                current_cost: 1.5,
            },
            AlgorithmState::Annealing {
                config: AnnealingConfig::default(),
                temp: 12.5,
                move_idx: 3,
                current_cost: 2.0,
                rng: [9, 8, 7, 6],
            },
            AlgorithmState::GroupMigration {
                max_passes: 4,
                pass: 1,
                pass_start_cost: 3.0,
                locked: (0..design.graph().node_count()).map(|i| i % 2 == 0).collect(),
                trail: vec![(node, home, 2.75)],
            },
        ];
        for state in states {
            let ckpt = ExplorationCheckpoint {
                state,
                ..base.clone()
            };
            let bytes = ckpt.to_bytes();
            let back = ExplorationCheckpoint::from_bytes(&bytes, &design).unwrap();
            assert_eq!(back, ckpt);
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let (design, ckpt) = sample(2);
        let bytes = ckpt.to_bytes();
        for len in 0..bytes.len() {
            let err = ExplorationCheckpoint::from_bytes(&bytes[..len], &design).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated { .. } | CheckpointError::ChecksumMismatch
                ),
                "prefix of {len} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_version_and_checksum_are_typed() {
        let (design, ckpt) = sample(3);
        let good = ckpt.to_bytes();

        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert_eq!(
            ExplorationCheckpoint::from_bytes(&bad, &design),
            Err(CheckpointError::BadMagic)
        );

        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            ExplorationCheckpoint::from_bytes(&bad, &design),
            Err(CheckpointError::UnsupportedVersion { found: 99 })
        );

        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 0x01;
        assert_eq!(
            ExplorationCheckpoint::from_bytes(&bad, &design),
            Err(CheckpointError::ChecksumMismatch)
        );
    }

    #[test]
    fn design_mismatch_is_field_specific() {
        let (design, ckpt) = sample(4);
        let bytes = ckpt.to_bytes();
        let (other, _) = DesignGenerator::new(4)
            .behaviors(6)
            .variables(4)
            .processors(3)
            .memories(1)
            .buses(2)
            .build();
        let err = ExplorationCheckpoint::from_bytes(&bytes, &other).unwrap_err();
        assert!(
            matches!(err, CheckpointError::DesignMismatch { .. }),
            "got {err:?}"
        );
        let _ = design;
    }

    #[test]
    fn save_is_atomic_and_load_round_trips() {
        let (design, ckpt) = sample(5);
        let path = std::env::temp_dir().join("slif-ckpt-roundtrip-test.ckpt");
        ckpt.save(&path).unwrap();
        // No temp droppings (`<name>.<pid>-<n>.tmp`) left behind.
        let droppings = std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.starts_with("slif-ckpt-roundtrip-test.ckpt.") && n.ends_with(".tmp"))
            .count();
        assert_eq!(droppings, 0);
        let back = ExplorationCheckpoint::load(&path, &design).unwrap();
        assert_eq!(back, ckpt);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let (design, _) = sample(6);
        let err = ExplorationCheckpoint::load(
            Path::new("/nonexistent/slif-never-here.ckpt"),
            &design,
        )
        .unwrap_err();
        assert!(matches!(err, CheckpointError::Io { .. }));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let (design, ckpt) = sample(7);
        let mut payload = ckpt.encode_payload();
        payload.push(0xaa);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&CHECKPOINT_MAGIC);
        bytes.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert_eq!(
            ExplorationCheckpoint::from_bytes(&bytes, &design),
            Err(CheckpointError::Corrupt {
                context: "trailing bytes"
            })
        );
    }
}
