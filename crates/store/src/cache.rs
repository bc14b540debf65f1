//! The content-addressed compiled-design cache.
//!
//! Layout under the cache directory:
//!
//! ```text
//! objects/<sha256-of-canonical-bytes>   framed canonical Design
//! refs/<sha256-of-spec-source>          framed 32-byte content key
//! ```
//!
//! A spec's *source bytes* hash to a ref, the ref names the canonical
//! object, and the object's file name **is** the SHA-256 of its payload
//! — so re-hashing the payload on every read verifies, for free, that a
//! hit is bit-identical to what was cached. The chain a hit walks is
//! verified end to end: ref frame checksum → object frame checksum →
//! content hash → strict canonical decode.
//!
//! Failures never reach a client: any unreadable, misframed, or
//! hash-mismatched file is renamed to a `.corrupt` sidecar, counted in
//! [`CacheStats::quarantined`], and reported as a plain miss. The next
//! cold compile re-populates the slot through an atomic write.
//!
//! Alongside the canonical object, a design's [`CompiledDesign`] can be
//! cached too (`compiled/<same-key>`), so a warm hit skips the compile
//! pass as well as the parse. A compiled entry is an *accelerator*, not
//! a source of truth: it is only served after its frame checksum, its
//! embedded design key, a strict decode, and the full
//! [`CompiledDesign::try_from_parts`] invariant audit all pass, and any
//! failure quarantines the entry and falls back to recompiling from the
//! verified design.

use crate::canonical::{decode_design, encode_design};
use crate::compiled::{decode_compiled, encode_compiled};
use crate::error::StoreError;
use crate::sha256::ContentKey;
use slif_core::atomic_io;
use slif_core::{CompiledDesign, Design};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The 8-byte magic of an object file (a framed canonical design).
pub const OBJECT_MAGIC: [u8; 8] = *b"SLIFCOBJ";
/// The 8-byte magic of a ref file (a framed content key).
pub const REF_MAGIC: [u8; 8] = *b"SLIFCREF";
/// The 8-byte magic of a compiled-design file (a framed compiled
/// encoding).
pub const COMPILED_MAGIC: [u8; 8] = *b"SLIFCCMP";
/// The current (and only) cache container version.
pub const CACHE_VERSION: u32 = 1;

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
    /// Verified compiled-design hits (the compile pass was skipped).
    pub compiled_hits: u64,
    /// Design hits that had to recompile: no compiled entry, or one
    /// that failed verification.
    pub compiled_misses: u64,
}

/// An open cache directory. Cheap to share behind an `Arc`; all methods
/// take `&self`.
#[derive(Debug)]
pub struct DesignCache {
    objects: PathBuf,
    refs: PathBuf,
    compiled: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    quarantined: AtomicU64,
    puts: AtomicU64,
    compiled_hits: AtomicU64,
    compiled_misses: AtomicU64,
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
        let compiled = dir.join("compiled");
        fs::create_dir_all(&objects).map_err(|e| StoreError::io(&objects, &e))?;
        fs::create_dir_all(&refs).map_err(|e| StoreError::io(&refs, &e))?;
        fs::create_dir_all(&compiled).map_err(|e| StoreError::io(&compiled, &e))?;
        Ok(Self {
            objects,
            refs,
            compiled,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            compiled_hits: AtomicU64::new(0),
            compiled_misses: AtomicU64::new(0),
        })
    }

    /// Caches `design` under the given spec source, returning the
    /// design's content key.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if either file cannot be written atomically.
    pub fn put(&self, source: &[u8], design: &Design) -> Result<ContentKey, StoreError> {
        let canonical = encode_design(design);
        let key = ContentKey::of(&canonical);
        let object = self.objects.join(key.to_hex());
        if !object.exists() {
            atomic_io::write_atomic(&object, &atomic_io::frame(&OBJECT_MAGIC, CACHE_VERSION, &canonical))
                .map_err(|e| StoreError::io(&object, &e))?;
        }
        let reference = self.refs.join(ContentKey::of(source).to_hex());
        atomic_io::write_atomic(&reference, &atomic_io::frame(&REF_MAGIC, CACHE_VERSION, &key.0))
            .map_err(|e| StoreError::io(&reference, &e))?;
        self.puts.fetch_add(1, Ordering::Relaxed);
        Ok(key)
    }

    /// Looks up the design cached for a spec source. Returns a design
    /// only after the full verification chain passes; everything else —
    /// absent files, frame damage, hash mismatch, decode failure — is a
    /// counted miss (with quarantine where there was a file to blame).
    pub fn get(&self, source: &[u8]) -> Option<Design> {
        self.get_verified(source).map(|(_, design)| design)
    }

    /// The verification chain behind [`get`](Self::get), also handing
    /// back the design's content key so callers that need it (the
    /// compiled-view lookup) do not re-encode and re-hash a design the
    /// chain just proved matches that key.
    fn get_verified(&self, source: &[u8]) -> Option<(ContentKey, Design)> {
        let reference = self.refs.join(ContentKey::of(source).to_hex());
        let key = match self.read_framed(&reference, &REF_MAGIC) {
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
        let object = self.objects.join(key.to_hex());
        let canonical = match self.read_framed(&object, &OBJECT_MAGIC) {
            Lookup::Absent | Lookup::Damaged => return self.miss(),
            Lookup::Payload(p) => p,
        };
        // The file name is the hash of the payload: re-hashing proves
        // the bytes are identical to what was cached.
        if ContentKey::of(&canonical) != key {
            self.quarantine(&object);
            return self.miss();
        }
        match decode_design(&canonical) {
            Ok(design) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some((key, design))
            }
            Err(_) => {
                self.quarantine(&object);
                self.miss()
            }
        }
    }

    /// [`put`](Self::put), plus the design's compiled view, so a later
    /// [`get_with_compiled`](Self::get_with_compiled) can skip the
    /// compile pass entirely. The compiled entry is filed under the
    /// *design's* content key (not the source's), so equal designs
    /// reached through different sources share one compiled object.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if a file cannot be written atomically.
    pub fn put_with_compiled(
        &self,
        source: &[u8],
        design: &Design,
        compiled: &CompiledDesign,
    ) -> Result<ContentKey, StoreError> {
        let key = self.put(source, design)?;
        let path = self.compiled.join(key.to_hex());
        if !path.exists() {
            if let Some(payload) = encode_compiled(&key, compiled) {
                atomic_io::write_atomic(
                    &path,
                    &atomic_io::frame(&COMPILED_MAGIC, CACHE_VERSION, &payload),
                )
                .map_err(|e| StoreError::io(&path, &e))?;
            }
        }
        Ok(key)
    }

    /// Looks up the design cached for a spec source *and*, when a
    /// verified compiled entry exists for it, the compiled view. The
    /// second element is `None` when the compiled entry is absent or
    /// failed any verification step (frame checksum, embedded design
    /// key, strict decode, structural audit) — the caller recompiles
    /// from the returned design, which has itself passed the full
    /// design chain.
    pub fn get_with_compiled(&self, source: &[u8]) -> Option<(Design, Option<CompiledDesign>)> {
        let (key, design) = self.get_verified(source)?;
        let compiled = self.verified_compiled(&key, &design);
        if compiled.is_some() {
            self.compiled_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.compiled_misses.fetch_add(1, Ordering::Relaxed);
        }
        Some((design, compiled))
    }

    /// Looks up a design directly by its content key (the hash a
    /// [`put`](Self::put) returned), bypassing the source-ref layer —
    /// the `GET /designs/{hash}` path. Verification is the same as for
    /// [`get`](Self::get) minus the ref hop: frame checksum → content
    /// re-hash → strict decode; anything damaged is quarantined and
    /// reported as a counted miss.
    pub fn get_by_key(&self, key: &ContentKey) -> Option<Design> {
        let object = self.objects.join(key.to_hex());
        let canonical = match self.read_framed(&object, &OBJECT_MAGIC) {
            Lookup::Absent | Lookup::Damaged => return self.miss(),
            Lookup::Payload(p) => p,
        };
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

    /// Fetches only the compiled view for a design key — the hot path
    /// for a consumer that runs estimators off the immutable compiled
    /// layout and never touches the `Design` itself. Skipping the
    /// design object skips its decode *and* its content re-hash, so
    /// this is the cheapest warm read the store offers.
    ///
    /// Verification: frame checksum, then strict decode (which
    /// re-audits every structural invariant via `try_from_parts`), then
    /// the embedded design key must equal `key` — the entry was written
    /// under the SHA-256 of the design it accelerates, so a key match
    /// binds it to exactly that design. Anything damaged or misfiled is
    /// quarantined and reported as a compiled miss; the caller falls
    /// back to [`get_by_key`](Self::get_by_key) plus a fresh compile.
    pub fn get_compiled_by_key(&self, key: &ContentKey) -> Option<CompiledDesign> {
        let path = self.compiled.join(key.to_hex());
        let payload = match self.read_framed(&path, &COMPILED_MAGIC) {
            Lookup::Absent | Lookup::Damaged => {
                self.compiled_misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Lookup::Payload(p) => p,
        };
        match decode_compiled(&payload) {
            Ok((embedded, cd)) if embedded == *key => {
                self.compiled_hits.fetch_add(1, Ordering::Relaxed);
                Some(cd)
            }
            Ok(_) | Err(_) => {
                self.quarantine(&path);
                self.compiled_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Reads, verifies, and cross-checks the compiled entry for `key`.
    fn verified_compiled(&self, key: &ContentKey, design: &Design) -> Option<CompiledDesign> {
        let path = self.compiled.join(key.to_hex());
        let payload = match self.read_framed(&path, &COMPILED_MAGIC) {
            Lookup::Absent | Lookup::Damaged => return None,
            Lookup::Payload(p) => p,
        };
        let (embedded, cd) = match decode_compiled(&payload) {
            Ok(pair) => pair,
            Err(_) => {
                self.quarantine(&path);
                return None;
            }
        };
        // The entry must claim the design we verified, and its counts
        // must agree with that design — a cheap final cross-check that
        // a stale or misfiled accelerator cannot pass.
        let g = design.graph();
        let consistent = embedded == *key
            && cd.node_count() == g.node_count()
            && cd.port_count() == g.port_count()
            && cd.channel_count() == g.channel_count()
            && cd.class_count() == design.class_count()
            && cd.processor_count() == design.processor_count()
            && cd.memory_count() == design.memory_count()
            && cd.bus_count() == design.bus_count();
        if !consistent {
            self.quarantine(&path);
            return None;
        }
        Some(cd)
    }

    /// Current counter values.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            compiled_hits: self.compiled_hits.load(Ordering::Relaxed),
            compiled_misses: self.compiled_misses.load(Ordering::Relaxed),
        }
    }

    fn miss<T>(&self) -> Option<T> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Reads and unframes a cache file, quarantining it on any damage.
    fn read_framed(&self, path: &Path, magic: &[u8; 8]) -> Lookup {
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Lookup::Absent,
            Err(_) => {
                self.quarantine(path);
                return Lookup::Damaged;
            }
        };
        match atomic_io::unframe(magic, CACHE_VERSION, &bytes) {
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
        let forged = atomic_io::frame(&OBJECT_MAGIC, CACHE_VERSION, &encode_design(&other));
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
        let framed = atomic_io::frame(&OBJECT_MAGIC, CACHE_VERSION, &old);
        fs::write(&object, framed).unwrap();
        let reference = dir.join("refs").join(ContentKey::of(b"src").to_hex());
        let framed = atomic_io::frame(&REF_MAGIC, CACHE_VERSION, &old_key.0);
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
    fn compiled_warm_hit_matches_fresh_compile() {
        let (dir, cache) = temp_cache("compiled-hit");
        let (design, _) = DesignGenerator::new(14).build();
        let cd = CompiledDesign::compile(&design);
        let key = cache.put_with_compiled(b"src", &design, &cd).unwrap();
        assert!(dir.join("compiled").join(key.to_hex()).exists());
        let (back, warm) = cache.get_with_compiled(b"src").unwrap();
        assert_eq!(back, design);
        assert_eq!(warm.as_ref(), Some(&cd), "warm view differs from fresh compile");
        let stats = cache.stats();
        assert_eq!((stats.compiled_hits, stats.compiled_misses), (1, 0));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_compiled_entry_degrades_to_a_design_hit() {
        let (dir, cache) = temp_cache("compiled-corrupt");
        let (design, _) = DesignGenerator::new(15).build();
        let cd = CompiledDesign::compile(&design);
        let key = cache.put_with_compiled(b"src", &design, &cd).unwrap();
        let path = dir.join("compiled").join(key.to_hex());
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&path, &bytes).unwrap();

        let (back, warm) = cache.get_with_compiled(b"src").unwrap();
        assert_eq!(back, design, "design hit must survive compiled damage");
        assert!(warm.is_none(), "damaged compiled entry served");
        assert!(!path.exists(), "damaged compiled entry not quarantined");
        let stats = cache.stats();
        assert_eq!(stats.compiled_misses, 1);
        assert_eq!(stats.quarantined, 1);

        // Re-put repopulates the accelerator slot.
        cache.put_with_compiled(b"src", &design, &cd).unwrap();
        let (_, warm) = cache.get_with_compiled(b"src").unwrap();
        assert_eq!(warm, Some(cd));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn misfiled_compiled_entry_is_refused_by_the_key_cross_check() {
        // A frame that checksums and decodes fine, but was compiled
        // from a *different* design (a botched manual copy between
        // slots). The embedded-key cross-check must refuse it.
        let (dir, cache) = temp_cache("compiled-misfiled");
        let (design, _) = DesignGenerator::new(16).build();
        let (other, _) = DesignGenerator::new(17).build();
        let cd = CompiledDesign::compile(&design);
        let other_cd = CompiledDesign::compile(&other);
        let key = cache.put_with_compiled(b"src", &design, &cd).unwrap();
        let other_key = ContentKey::of(&encode_design(&other));
        let forged = encode_compiled(&other_key, &other_cd).unwrap();
        fs::write(
            dir.join("compiled").join(key.to_hex()),
            atomic_io::frame(&COMPILED_MAGIC, CACHE_VERSION, &forged),
        )
        .unwrap();
        let (_, warm) = cache.get_with_compiled(b"src").unwrap();
        assert!(warm.is_none(), "misfiled compiled entry served");
        assert_eq!(cache.stats().quarantined, 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn get_compiled_by_key_skips_the_design_object_entirely() {
        let (dir, cache) = temp_cache("compiled-by-key");
        let (design, _) = DesignGenerator::new(19).build();
        let cd = CompiledDesign::compile(&design);
        let key = cache.put_with_compiled(b"src", &design, &cd).unwrap();

        // The hit equals a fresh compile without touching the design
        // object — even after the design object is destroyed.
        fs::remove_file(dir.join("objects").join(key.to_hex())).unwrap();
        assert_eq!(cache.get_compiled_by_key(&key).unwrap(), cd);
        assert!(cache.get_compiled_by_key(&ContentKey::of(b"unknown")).is_none());

        // Damage is quarantined, not served.
        let path = dir.join("compiled").join(key.to_hex());
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        fs::write(&path, &bytes).unwrap();
        assert!(cache.get_compiled_by_key(&key).is_none());
        assert!(!path.exists(), "damaged compiled entry not quarantined");

        // A well-formed entry filed under the wrong key is refused by
        // the embedded-key binding.
        let (other, _) = DesignGenerator::new(20).build();
        let other_cd = CompiledDesign::compile(&other);
        let other_key = ContentKey::of(&encode_design(&other));
        let forged = encode_compiled(&other_key, &other_cd).unwrap();
        fs::write(&path, atomic_io::frame(&COMPILED_MAGIC, CACHE_VERSION, &forged)).unwrap();
        assert!(cache.get_compiled_by_key(&key).is_none());
        assert!(!path.exists(), "misfiled compiled entry not quarantined");
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
