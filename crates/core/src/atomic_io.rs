//! Crash-safe file primitives shared by every on-disk format.
//!
//! Three disciplines every durable artifact in this workspace follows,
//! implemented once:
//!
//! * [`write_atomic`] — the write→fsync→rename dance: bytes go to a
//!   sibling `*.tmp` file of their own which is fsynced and then renamed
//!   over the destination (and the directory entry itself fsynced, best
//!   effort), so a crash mid-write leaves either the previous file or a
//!   temp file — never a half-written blob under the real name — and
//!   writers racing on one destination never share a temp file.
//! * [`frame`]/[`unframe`] — the versioned, checksummed container every
//!   blob is wrapped in before it touches a disk:
//!
//!   ```text
//!   magic    8 bytes   format-specific (b"SLIFCKPT", b"SLIFWSEG", b"SLIFCREF")
//!   version  u32 LE
//!   length   u64 LE    payload byte count
//!   checksum u64 LE    FNV-1a 64 over the payload
//!   payload  ...
//!   ```
//!
//!   [`unframe`] verifies magic, version, length, and checksum before
//!   handing back a single payload byte, so corruption of any kind
//!   surfaces as a typed [`FrameError`], never as garbage decoded
//!   downstream.
//! * [`fnv1a`] — the FNV-1a 64 checksum used both by the frame and by
//!   per-record journal CRCs.
//!
//! The exploration checkpoint writer (`slif-explore`) and the durable
//! store (`slif-store`) are both built on this module; corrupting any of
//! their files exercises exactly this code.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Byte length of the [`frame`] header (magic + version + length +
/// checksum).
pub const FRAME_HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// FNV-1a 64-bit hash — the workspace's cheap integrity checksum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Reads a little-endian `u32` from a 4-byte slice.
///
/// # Panics
///
/// Panics if `b` is shorter than 4 bytes; callers bounds-check first.
pub fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Reads a little-endian `u64` from an 8-byte slice.
///
/// # Panics
///
/// Panics if `b` is shorter than 8 bytes; callers bounds-check first.
pub fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Why a framed blob could not be opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameError {
    /// The blob does not start with the expected magic.
    BadMagic,
    /// The blob's version is not the one this build reads.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The blob ends before the announced payload does (or before the
    /// header itself is complete).
    Truncated,
    /// The payload checksum does not match the header.
    ChecksumMismatch,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic => write!(f, "bad magic"),
            Self::UnsupportedVersion { found } => write!(f, "unsupported version {found}"),
            Self::Truncated => write!(f, "truncated"),
            Self::ChecksumMismatch => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Wraps `payload` in the versioned, checksummed container.
pub fn frame(magic: &[u8; 8], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    frame_into(&mut out, magic, version, payload);
    out
}

/// Appends `payload`, wrapped as by [`frame`], to `out` — how a stream
/// of frames is built in one buffer.
pub fn frame_into(out: &mut Vec<u8>, magic: &[u8; 8], version: u32, payload: &[u8]) {
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Verifies a framed blob's magic, version, length, and checksum, and
/// returns the payload slice.
///
/// # Errors
///
/// A typed [`FrameError`] on any deviation; no payload byte is exposed
/// until every header check has passed.
pub fn unframe<'a>(
    magic: &[u8; 8],
    version: u32,
    bytes: &'a [u8],
) -> Result<&'a [u8], FrameError> {
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(FrameError::Truncated);
    }
    if bytes[..8] != magic[..] {
        return Err(FrameError::BadMagic);
    }
    let found = le_u32(&bytes[8..12]);
    if found != version {
        return Err(FrameError::UnsupportedVersion { found });
    }
    let length = le_u64(&bytes[12..20]);
    let checksum = le_u64(&bytes[20..28]);
    let payload = &bytes[FRAME_HEADER_LEN..];
    if (payload.len() as u64) != length {
        return Err(FrameError::Truncated);
    }
    if fnv1a(payload) != checksum {
        return Err(FrameError::ChecksumMismatch);
    }
    Ok(payload)
}

/// Writes `bytes` to `path` atomically: temp file, fsync, rename, then
/// a best-effort fsync of the parent directory so the rename itself is
/// durable.
///
/// Each call writes its own temp file (`<path>.<pid>-<n>.tmp`), so
/// concurrent writers of one path each rename a complete file: one
/// could otherwise truncate the temp file another had just renamed into
/// place, and a reader would see the half-written blob.
///
/// # Errors
///
/// Any filesystem error from the create/write/fsync/rename steps; the
/// destination is never left half-written.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static WRITES: AtomicU64 = AtomicU64::new(0);
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(format!(
        ".{}-{}.tmp",
        std::process::id(),
        WRITES.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = Path::new(&tmp_name);
    let renamed = (|| {
        let mut file = fs::File::create(tmp)?;
        file.write_all(bytes)?;
        // fsync before rename: the rename must never make visible a file
        // whose data is still in the page cache only.
        file.sync_all()?;
        drop(file);
        fs::rename(tmp, path)
    })();
    if renamed.is_err() {
        // No later write reuses this temp name, so clean it up now.
        let _ = fs::remove_file(tmp);
    }
    renamed?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 8] = *b"SLIFTEST";

    #[test]
    fn frame_round_trips() {
        for payload in [&b""[..], b"x", b"hello framed world"] {
            let framed = frame(&MAGIC, 3, payload);
            assert_eq!(unframe(&MAGIC, 3, &framed), Ok(payload));
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let framed = frame(&MAGIC, 1, b"payload bytes here");
        for len in 0..framed.len() {
            let err = unframe(&MAGIC, 1, &framed[..len]).unwrap_err();
            assert!(
                matches!(err, FrameError::Truncated | FrameError::ChecksumMismatch),
                "prefix of {len} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_version_and_checksum_are_typed() {
        let good = frame(&MAGIC, 1, b"payload");
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert_eq!(unframe(&MAGIC, 1, &bad), Err(FrameError::BadMagic));
        assert_eq!(
            unframe(&MAGIC, 2, &good),
            Err(FrameError::UnsupportedVersion { found: 1 })
        );
        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 0x01;
        assert_eq!(unframe(&MAGIC, 1, &bad), Err(FrameError::ChecksumMismatch));
        let mut bad = good;
        bad.push(0xaa);
        assert_eq!(unframe(&MAGIC, 1, &bad), Err(FrameError::Truncated));
    }

    /// The temp files `write_atomic` left beside `path`.
    fn temp_droppings(path: &Path) -> Vec<std::path::PathBuf> {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| Some(e.ok()?.path()))
            .filter(|p| {
                let n = p.file_name().unwrap().to_string_lossy();
                n.starts_with(&format!("{name}.")) && n.ends_with(".tmp")
            })
            .collect()
    }

    #[test]
    fn write_atomic_leaves_no_temp_droppings() {
        let path = std::env::temp_dir().join("slif-atomic-io-test.bin");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert_eq!(temp_droppings(&path), Vec::<std::path::PathBuf>::new());
        fs::remove_file(&path).unwrap();
    }

    /// Writers racing on one path must not share a temp file: one would
    /// truncate the file another renames into place, and the loser's
    /// rename would fail.
    #[test]
    fn racing_writers_of_one_path_each_rename_a_whole_file() {
        let path =
            std::env::temp_dir().join(format!("slif-atomic-io-race-{}.bin", std::process::id()));
        let payloads: Vec<Vec<u8>> = (1..=4u8).map(|i| vec![i; 64 * 1024]).collect();
        let start = std::sync::Barrier::new(payloads.len());
        std::thread::scope(|s| {
            for payload in &payloads {
                let (path, start) = (&path, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..8 {
                        write_atomic(path, payload).unwrap();
                    }
                });
            }
        });
        assert!(payloads.contains(&fs::read(&path).unwrap()));
        assert_eq!(temp_droppings(&path), Vec::<std::path::PathBuf>::new());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fnv1a_matches_known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
