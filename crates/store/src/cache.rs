//! The content-addressed design store.
//!
//! Layout under the cache directory:
//!
//! ```text
//! objects/<sha256-of-canonical-bytes>   framed canonical Design
//! refs/<sha256-of-spec-source>          framed 32-byte content key
//! ```
//!
//! A stored design is one object whose file name **is** the SHA-256 of
//! its payload, so re-hashing the payload on every read verifies, for
//! free, that a hit is bit-identical to what was stored. `POST
//! /designs` files objects alone ([`put_object`](DesignCache::put_object));
//! the `/v1` source cache adds a ref per spec source
//! ([`put`](DesignCache::put)), and a source lookup is the ref hop
//! followed by the same object read `GET /designs/{hash}` makes: ref
//! frame checksum → object frame checksum → content hash → strict
//! canonical decode.
//!
//! Failures never reach a client: any unreadable, misframed, or
//! hash-mismatched file is renamed to a `.corrupt` sidecar, counted in
//! [`CacheStats::quarantined`], and reported as a plain miss. The next
//! cold compile re-populates the slot through an atomic write.

use crate::canonical::{decode_design, encode_design};
use crate::error::StoreError;
use crate::sha256::ContentKey;
use slif_core::atomic_io;
use slif_core::Design;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The 8-byte magic of an object file (a framed canonical design).
pub const OBJECT_MAGIC: [u8; 8] = *b"SLIFCOBJ";
/// The 8-byte magic of a ref file (a framed content key).
pub const REF_MAGIC: [u8; 8] = *b"SLIFCREF";
/// The container version of object files.
pub const OBJECT_VERSION: u32 = 1;
/// The container version of ref files. Version 1 refs were also filed
/// under the interchange bytes of `POST /designs` bodies, which let a
/// POST answer later `/v1` requests for those bytes; they read as
/// quarantined misses, and the next cold compile re-files the ref.
pub const REF_VERSION: u32 = 2;

/// Counter snapshot for `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Verified hits served.
    pub hits: u64,
    /// Lookups that found nothing usable (including quarantines).
    pub misses: u64,
    /// Files renamed to `.corrupt` after failing verification.
    pub quarantined: u64,
    /// Designs written.
    pub puts: u64,
}

/// An open cache directory. Cheap to share behind an `Arc`; all methods
/// take `&self`.
#[derive(Debug)]
pub struct DesignCache {
    objects: PathBuf,
    refs: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    quarantined: AtomicU64,
    puts: AtomicU64,
}

impl DesignCache {
    /// Opens (creating if absent) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the subdirectories cannot be created.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        let objects = dir.join("objects");
        let refs = dir.join("refs");
        fs::create_dir_all(&objects).map_err(|e| StoreError::io(&objects, &e))?;
        fs::create_dir_all(&refs).map_err(|e| StoreError::io(&refs, &e))?;
        Ok(Self {
            objects,
            refs,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            puts: AtomicU64::new(0),
        })
    }

    /// Caches `design` under the given spec source: the design's object
    /// plus a ref from the source to it. Returns the design's content
    /// key.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if either file cannot be written atomically.
    pub fn put(&self, source: &[u8], design: &Design) -> Result<ContentKey, StoreError> {
        let canonical = encode_design(design);
        let key = ContentKey::of(&canonical);
        self.write_object(&key, &canonical)?;
        let reference = self.refs.join(ContentKey::of(source).to_hex());
        atomic_io::write_atomic(&reference, &atomic_io::frame(&REF_MAGIC, REF_VERSION, &key.0))
            .map_err(|e| StoreError::io(&reference, &e))?;
        self.puts.fetch_add(1, Ordering::Relaxed);
        Ok(key)
    }

    /// Stores `design` as one object under `key`, the content key a
    /// strict interchange read already computed for it — no ref and no
    /// second hash. A wrong `key` cannot poison later reads: every read
    /// re-hashes the object against its name and quarantines a
    /// mismatch.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the object cannot be written atomically.
    pub fn put_object(&self, key: &ContentKey, design: &Design) -> Result<(), StoreError> {
        self.write_object(key, &encode_design(design))?;
        self.puts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Writes an object file unless one is already filed under `key`.
    fn write_object(&self, key: &ContentKey, canonical: &[u8]) -> Result<(), StoreError> {
        let object = self.objects.join(key.to_hex());
        if !object.exists() {
            atomic_io::write_atomic(
                &object,
                &atomic_io::frame(&OBJECT_MAGIC, OBJECT_VERSION, canonical),
            )
            .map_err(|e| StoreError::io(&object, &e))?;
        }
        Ok(())
    }

    /// Looks up the design cached for a spec source: the ref, then
    /// [`get_by_key`](Self::get_by_key). Returns a design only after
    /// the full verification chain passes; everything else — absent
    /// files, frame damage, hash mismatch, decode failure — is a counted
    /// miss (with quarantine where there was a file to blame).
    pub fn get(&self, source: &[u8]) -> Option<Design> {
        let reference = self.refs.join(ContentKey::of(source).to_hex());
        let key = match self.read_framed(&reference, &REF_MAGIC, REF_VERSION) {
            Lookup::Absent => return self.miss(),
            Lookup::Damaged => return self.miss(),
            Lookup::Payload(p) => {
                if p.len() != 32 {
                    self.quarantine(&reference);
                    return self.miss();
                }
                let mut k = [0u8; 32];
                k.copy_from_slice(&p);
                ContentKey(k)
            }
        };
        self.get_by_key(&key)
    }

    /// Looks up a design directly by its content key — the
    /// `GET /designs/{hash}` path, and the second hop of
    /// [`get`](Self::get). Verification: frame checksum → content
    /// re-hash against the file name → strict decode; anything damaged
    /// is quarantined and reported as a counted miss.
    pub fn get_by_key(&self, key: &ContentKey) -> Option<Design> {
        let object = self.objects.join(key.to_hex());
        let canonical = match self.read_framed(&object, &OBJECT_MAGIC, OBJECT_VERSION) {
            Lookup::Absent | Lookup::Damaged => return self.miss(),
            Lookup::Payload(p) => p,
        };
        // The file name is the hash of the payload: re-hashing proves
        // the bytes are identical to what was stored.
        if ContentKey::of(&canonical) != *key {
            self.quarantine(&object);
            return self.miss();
        }
        match decode_design(&canonical) {
            Ok(design) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(design)
            }
            Err(_) => {
                self.quarantine(&object);
                self.miss()
            }
        }
    }

    /// Current counter values.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
        }
    }

    fn miss<T>(&self) -> Option<T> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Reads and unframes a cache file, quarantining it on any damage.
    fn read_framed(&self, path: &Path, magic: &[u8; 8], version: u32) -> Lookup {
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Lookup::Absent,
            Err(_) => {
                self.quarantine(path);
                return Lookup::Damaged;
            }
        };
        match atomic_io::unframe(magic, version, &bytes) {
            Ok(payload) => Lookup::Payload(payload.to_vec()),
            Err(_) => {
                self.quarantine(path);
                Lookup::Damaged
            }
        }
    }

    fn quarantine(&self, path: &Path) {
        let mut name = path.as_os_str().to_os_string();
        name.push(".corrupt");
        if fs::rename(path, &name).is_ok() {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
        }
    }
}

enum Lookup {
    Absent,
    Damaged,
    Payload(Vec<u8>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use slif_core::gen::DesignGenerator;

    fn temp_cache(tag: &str) -> (PathBuf, DesignCache) {
        let dir = std::env::temp_dir().join(format!("slif-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = DesignCache::open(&dir).unwrap();
        (dir, cache)
    }

    #[test]
    fn hit_is_bit_identical_to_what_was_put() {
        let (dir, cache) = temp_cache("roundtrip");
        let (design, _) = DesignGenerator::new(4).build();
        let source = b"spec source text";
        assert!(cache.get(source).is_none());
        cache.put(source, &design).unwrap();
        let back = cache.get(source).unwrap();
        assert_eq!(back, design);
        assert_eq!(encode_design(&back), encode_design(&design));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.puts), (1, 1, 1));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn cache_survives_reopen() {
        let (dir, cache) = temp_cache("reopen");
        let (design, _) = DesignGenerator::new(5).build();
        cache.put(b"src", &design).unwrap();
        drop(cache);
        let cache = DesignCache::open(&dir).unwrap();
        assert_eq!(cache.get(b"src").unwrap(), design);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_object_is_a_quarantined_miss_then_repopulates() {
        let (dir, cache) = temp_cache("corrupt-object");
        let (design, _) = DesignGenerator::new(6).build();
        let key = cache.put(b"src", &design).unwrap();
        let object = dir.join("objects").join(key.to_hex());
        let mut bytes = fs::read(&object).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&object, &bytes).unwrap();

        assert!(cache.get(b"src").is_none(), "corrupt object served");
        assert!(!object.exists(), "corrupt object not quarantined");
        assert!(dir
            .join("objects")
            .join(format!("{}.corrupt", key.to_hex()))
            .exists());
        assert_eq!(cache.stats().quarantined, 1);

        cache.put(b"src", &design).unwrap();
        assert_eq!(cache.get(b"src").unwrap(), design);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn hash_mismatch_with_valid_frame_is_caught() {
        // A frame that checksums fine but whose payload is not what the
        // file name promises — e.g. after a botched manual copy.
        let (dir, cache) = temp_cache("hash-mismatch");
        let (design, _) = DesignGenerator::new(7).build();
        let (other, _) = DesignGenerator::new(8).build();
        let key = cache.put(b"src", &design).unwrap();
        let object = dir.join("objects").join(key.to_hex());
        let forged = atomic_io::frame(&OBJECT_MAGIC, OBJECT_VERSION, &encode_design(&other));
        fs::write(&object, forged).unwrap();
        assert!(cache.get(b"src").is_none());
        assert_eq!(cache.stats().quarantined, 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_ref_is_a_quarantined_miss() {
        let (dir, cache) = temp_cache("corrupt-ref");
        let (design, _) = DesignGenerator::new(9).build();
        cache.put(b"src", &design).unwrap();
        let reference = dir.join("refs").join(ContentKey::of(b"src").to_hex());
        let mut bytes = fs::read(&reference).unwrap();
        bytes.truncate(bytes.len() / 2);
        fs::write(&reference, &bytes).unwrap();
        assert!(cache.get(b"src").is_none());
        assert!(!reference.exists());
        assert_eq!(cache.stats().quarantined, 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn stale_container_version_is_a_miss_not_an_error() {
        let (dir, cache) = temp_cache("stale-version");
        let (design, _) = DesignGenerator::new(10).build();
        let key = cache.put(b"src", &design).unwrap();
        let object = dir.join("objects").join(key.to_hex());
        let mut bytes = fs::read(&object).unwrap();
        bytes[8..12].copy_from_slice(&9u32.to_le_bytes());
        fs::write(&object, &bytes).unwrap();
        assert!(cache.get(b"src").is_none());
        assert_eq!(cache.stats().quarantined, 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn older_canonical_version_is_a_quarantined_miss() {
        // An object an older build filed: intact frame, payload hashing
        // to its file name, but canonical version 1.
        let (dir, cache) = temp_cache("old-canonical");
        let (design, _) = DesignGenerator::new(12).build();
        let mut old = encode_design(&design);
        old[0] = 1;
        let old_key = ContentKey::of(&old);
        let object = dir.join("objects").join(old_key.to_hex());
        let framed = atomic_io::frame(&OBJECT_MAGIC, OBJECT_VERSION, &old);
        fs::write(&object, framed).unwrap();
        let reference = dir.join("refs").join(ContentKey::of(b"src").to_hex());
        let framed = atomic_io::frame(&REF_MAGIC, REF_VERSION, &old_key.0);
        fs::write(&reference, framed).unwrap();

        assert!(cache.get(b"src").is_none());
        assert!(!object.exists(), "old object not quarantined");
        assert_eq!(cache.stats().quarantined, 1);
        // Re-filing the design replaces the ref with the current key.
        let key = cache.put(b"src", &design).unwrap();
        assert_ne!(key, old_key);
        assert_eq!(cache.get(b"src").unwrap(), design);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn version_1_ref_is_a_quarantined_miss_and_its_object_still_serves() {
        // A ref an older build filed: intact frame, container version 1.
        let (dir, cache) = temp_cache("ref-v1");
        let (design, _) = DesignGenerator::new(13).build();
        let key = cache.put(b"src", &design).unwrap();
        let reference = dir.join("refs").join(ContentKey::of(b"src").to_hex());
        fs::write(&reference, atomic_io::frame(&REF_MAGIC, 1, &key.0)).unwrap();

        assert!(cache.get(b"src").is_none(), "version-1 ref served");
        assert!(!reference.exists(), "version-1 ref not quarantined");
        assert_eq!(cache.stats().quarantined, 1);
        assert_eq!(cache.get_by_key(&key).unwrap(), design);
        // The next cold compile re-files the ref at the current version.
        cache.put(b"src", &design).unwrap();
        assert_eq!(cache.get(b"src").unwrap(), design);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn get_by_key_serves_and_verifies_the_object_directly() {
        let (dir, cache) = temp_cache("by-key");
        let (design, _) = DesignGenerator::new(18).build();
        let key = cache.put(b"src", &design).unwrap();
        assert_eq!(cache.get_by_key(&key).unwrap(), design);
        assert!(cache.get_by_key(&ContentKey::of(b"unknown")).is_none());

        let object = dir.join("objects").join(key.to_hex());
        let mut bytes = fs::read(&object).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&object, &bytes).unwrap();
        assert!(cache.get_by_key(&key).is_none(), "corrupt object served");
        assert!(!object.exists(), "corrupt object not quarantined");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn distinct_sources_share_one_object_for_equal_designs() {
        let (dir, cache) = temp_cache("dedup");
        let (design, _) = DesignGenerator::new(11).build();
        let k1 = cache.put(b"source one", &design).unwrap();
        let k2 = cache.put(b"source two", &design).unwrap();
        assert_eq!(k1, k2);
        assert_eq!(fs::read_dir(dir.join("objects")).unwrap().count(), 1);
        assert_eq!(fs::read_dir(dir.join("refs")).unwrap().count(), 2);
        assert_eq!(cache.get(b"source one").unwrap(), design);
        assert_eq!(cache.get(b"source two").unwrap(), design);
        let _ = fs::remove_dir_all(dir);
    }
}
