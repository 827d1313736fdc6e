//! A content-addressed on-disk artifact store keyed by structural
//! [`Fingerprint`]s.
//!
//! The session's outcome memo holds pure functions of 128-bit structural
//! identity keys; this store extends it across *processes*: a resident
//! verification service (or a sequence of CLI runs pointed at the same
//! `--store` directory) re-reads whole verification outcomes instead of
//! recomputing them.  The one kind written is `outcome`.  Stores written by
//! earlier versions may also hold `traces/` and `candidates/` directories;
//! nothing reads them any more.
//!
//! The layout is deliberately boring:
//!
//! ```text
//! <root>/
//!   <kind>/<fingerprint-hex>.bin   # one write-once entry per key
//!   tmp/                           # staging area for atomic publication
//!   quarantine/                    # entries that failed validation
//! ```
//!
//! * **Write-once:** an entry is a pure function of its key, so the first
//!   writer wins and later writers skip the disk entirely.  Entries are
//!   staged in `tmp/` and published with an atomic `rename`, so readers
//!   never observe a torn file — a process killed mid-write (including by
//!   SIGTERM) leaves at worst an orphaned temp file, never a corrupt entry.
//! * **Versioned header + checksum:** every entry carries a magic tag, a
//!   format version, the payload length, and an FNV-1a checksum.
//! * **Quarantine, not crash:** an entry that fails any validation step
//!   (truncated header, wrong magic, future version, checksum mismatch) is
//!   moved aside into `quarantine/` and reported as a miss.  Disk rot
//!   degrades a warm start into a cold one; it never takes the verifier
//!   down or — worse — feeds it torn data.
//!
//! Key discipline is the caller's job, exactly as for
//! [`WarmStart`](crate::WarmStart): the fingerprint must cover every input
//! of the payload it names, so a hit is bit-identical to recomputation.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use nncps_expr::Fingerprint;

/// Magic bytes opening every store entry.
const MAGIC: &[u8; 8] = b"NNCPSSTR";

/// On-disk format version.  Bumped on any incompatible layout change;
/// entries from other versions quarantine as corrupt rather than parse.
pub const STORE_FORMAT_VERSION: u32 = 1;

/// magic + version + payload length + checksum.
const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Counters of one [`DiskStore`]'s activity (reporting only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStoreStats {
    /// Lookups that found a valid entry.
    pub hits: usize,
    /// Lookups that found nothing (or only a quarantined entry).
    pub misses: usize,
    /// Entries written (first writer for their key).
    pub writes: usize,
    /// Writes skipped because the entry already existed.
    pub write_skips: usize,
    /// Entries moved to `quarantine/` after failing validation **by this
    /// process** (in-memory counter, resets with the store handle).
    pub quarantined: usize,
    /// Files currently present in `quarantine/`, including those left by
    /// earlier processes on the same root — the number a diagnosis pass
    /// would find on disk.
    pub quarantine_dir_entries: usize,
}

/// A write-once, content-addressed artifact store rooted at one directory
/// (see the [module docs](self)).
///
/// The store is `Sync`: concurrent readers and writers coordinate through
/// the filesystem (atomic renames), not through locks.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    /// Distinguishes temp files of concurrent writers within one process.
    nonce: AtomicU64,
    hits: AtomicUsize,
    misses: AtomicUsize,
    writes: AtomicUsize,
    write_skips: AtomicUsize,
    quarantined: AtomicUsize,
}

impl DiskStore {
    /// Opens (creating if necessary) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory tree cannot be
    /// created.
    pub fn open(root: impl AsRef<Path>) -> std::io::Result<Self> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(root.join("tmp"))?;
        fs::create_dir_all(root.join("quarantine"))?;
        Ok(DiskStore {
            root,
            nonce: AtomicU64::new(0),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            writes: AtomicUsize::new(0),
            write_skips: AtomicUsize::new(0),
            quarantined: AtomicUsize::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Snapshot of the activity counters.  `quarantine_dir_entries` is read
    /// from disk, so it also covers entries quarantined by previous
    /// processes on the same root.
    pub fn stats(&self) -> DiskStoreStats {
        let quarantine_dir_entries = fs::read_dir(self.root.join("quarantine"))
            .map(|entries| entries.filter_map(Result::ok).count())
            .unwrap_or(0);
        DiskStoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_skips: self.write_skips.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            quarantine_dir_entries,
        }
    }

    fn entry_path(&self, kind: &str, key: Fingerprint) -> PathBuf {
        self.root
            .join(kind)
            .join(format!("{:016x}{:016x}.bin", key.0, key.1))
    }

    /// Loads the payload stored under `(kind, key)`, validating the header
    /// and checksum.  A missing entry is a plain miss; an invalid entry is
    /// quarantined and reported as a miss.
    pub fn load(&self, kind: &str, key: Fingerprint) -> Option<Vec<u8>> {
        let path = self.entry_path(kind, key);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match validate(&bytes) {
            Some(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload.to_vec())
            }
            None => {
                self.quarantine(kind, &path, &bytes);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `payload` under `(kind, key)` unless an entry already exists
    /// (write-once).  Returns `true` when this call published the entry.
    ///
    /// Publication is atomic (staged in `tmp/`, then renamed into place),
    /// and failures are absorbed: a full or read-only disk degrades the
    /// store to a no-op rather than failing verification.
    pub fn store(&self, kind: &str, key: Fingerprint, payload: &[u8]) -> bool {
        let path = self.entry_path(kind, key);
        if path.exists() {
            self.write_skips.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&STORE_FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&fnv64(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        let staged = self.root.join("tmp").join(format!(
            "{kind}-{:016x}{:016x}-{}-{}",
            key.0,
            key.1,
            std::process::id(),
            self.nonce.fetch_add(1, Ordering::Relaxed),
        ));
        let published = fs::create_dir_all(self.root.join(kind)).is_ok()
            && fs::write(&staged, &bytes).is_ok()
            && fs::rename(&staged, &path).is_ok();
        if published {
            self.writes.fetch_add(1, Ordering::Relaxed);
        } else {
            let _ = fs::remove_file(&staged);
        }
        published
    }

    /// Moves an invalid entry aside so it is diagnosable but never re-read.
    ///
    /// The destination name is suffixed with the FNV-1a hash of the corrupt
    /// **contents**, not a pid/nonce pair: pids recycle and the nonce resets
    /// every process, so two *different* corruptions of the same key across
    /// restarts would otherwise land on the same name and silently overwrite
    /// the earlier evidence.  The content hash is deterministic — distinct
    /// corruptions get distinct files, and re-quarantining bit-identical
    /// contents dedupes onto the existing file instead of clobbering it.
    fn quarantine(&self, kind: &str, path: &Path, bytes: &[u8]) {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "entry".to_string());
        let dest = self
            .root
            .join("quarantine")
            .join(format!("{kind}-{name}-{:016x}", fnv64(bytes)));
        if dest.exists() {
            // Same corrupt bits already preserved: drop the duplicate.
            let _ = fs::remove_file(path);
        } else if fs::rename(path, &dest).is_err() {
            // Last resort: make sure the bad entry cannot be read again.
            let _ = fs::remove_file(path);
        }
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }
}

/// Checks the header and checksum, returning the payload slice when valid.
fn validate(bytes: &[u8]) -> Option<&[u8]> {
    if bytes.len() < HEADER_LEN || &bytes[..8] != MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().ok()?);
    if version != STORE_FORMAT_VERSION {
        return None;
    }
    let payload_len = u64::from_le_bytes(bytes[12..20].try_into().ok()?) as usize;
    let checksum = u64::from_le_bytes(bytes[20..28].try_into().ok()?);
    let payload = &bytes[HEADER_LEN..];
    if payload.len() != payload_len || fnv64(payload) != checksum {
        return None;
    }
    Some(payload)
}

/// 64-bit FNV-1a (the workspace's standard non-cryptographic hash).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A little-endian binary payload writer for store entries.
///
/// The codec is intentionally minimal: fixed-width integers, bit-exact
/// `f64`s (via [`f64::to_bits`]), and length-prefixed strings/sequences.
/// Payload corruption below the header checksum is caught by the paired
/// [`PayloadReader`] returning `None`.
#[derive(Debug, Default)]
pub(crate) struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    pub(crate) fn new() -> Self {
        PayloadWriter::default()
    }

    pub(crate) fn put_u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    pub(crate) fn put_u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    pub(crate) fn put_usize(&mut self, value: usize) {
        self.put_u64(value as u64);
    }

    pub(crate) fn put_f64(&mut self, value: f64) {
        self.put_u64(value.to_bits());
    }

    pub(crate) fn put_str(&mut self, value: &str) {
        self.put_usize(value.len());
        self.buf.extend_from_slice(value.as_bytes());
    }

    pub(crate) fn put_f64_slice(&mut self, values: &[f64]) {
        self.put_usize(values.len());
        for &x in values {
            self.put_f64(x);
        }
    }

    pub(crate) fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// The paired reader; every accessor returns `None` past the end, so
/// malformed payloads decode to a miss instead of panicking.
#[derive(Debug)]
pub(crate) struct PayloadReader<'a> {
    bytes: &'a [u8],
}

impl<'a> PayloadReader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        PayloadReader { bytes }
    }

    pub(crate) fn take_u8(&mut self) -> Option<u8> {
        let (&first, rest) = self.bytes.split_first()?;
        self.bytes = rest;
        Some(first)
    }

    pub(crate) fn take_u64(&mut self) -> Option<u64> {
        let (head, rest) = self.bytes.split_at_checked(8)?;
        self.bytes = rest;
        Some(u64::from_le_bytes(head.try_into().ok()?))
    }

    pub(crate) fn take_usize(&mut self) -> Option<usize> {
        self.take_u64().map(|x| x as usize)
    }

    pub(crate) fn take_f64(&mut self) -> Option<f64> {
        self.take_u64().map(f64::from_bits)
    }

    pub(crate) fn take_str(&mut self) -> Option<String> {
        let len = self.take_usize()?;
        let (head, rest) = self.bytes.split_at_checked(len)?;
        self.bytes = rest;
        String::from_utf8(head.to_vec()).ok()
    }

    pub(crate) fn take_f64_vec(&mut self) -> Option<Vec<f64>> {
        let len = self.take_usize()?;
        // Bound by the remaining bytes so a corrupt length cannot trigger a
        // huge allocation.
        if len.checked_mul(8)? > self.bytes.len() {
            return None;
        }
        (0..len).map(|_| self.take_f64()).collect()
    }

    /// Bytes not yet consumed — decoders use this to bound sequence counts
    /// before allocating.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len()
    }

    /// Whether every byte was consumed (decoders check this for strictness).
    pub(crate) fn is_exhausted(&self) -> bool {
        self.bytes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_store(tag: &str) -> DiskStore {
        let root =
            std::env::temp_dir().join(format!("nncps-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        DiskStore::open(&root).expect("store opens")
    }

    #[test]
    fn round_trips_and_is_write_once() {
        let store = scratch_store("roundtrip");
        let key = Fingerprint(0xdead_beef, 0x1234_5678);
        assert_eq!(store.load("traces", key), None);
        assert!(store.store("traces", key, b"payload-one"));
        assert_eq!(
            store.load("traces", key).as_deref(),
            Some(&b"payload-one"[..])
        );
        // Second writer skips: first writer wins, contents stay put.
        assert!(!store.store("traces", key, b"payload-two"));
        assert_eq!(
            store.load("traces", key).as_deref(),
            Some(&b"payload-one"[..])
        );
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert_eq!((stats.writes, stats.write_skips), (1, 1));
        assert_eq!(stats.quarantined, 0);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn distinct_kinds_and_keys_do_not_collide() {
        let store = scratch_store("kinds");
        let key = Fingerprint(1, 2);
        assert!(store.store("a", key, b"alpha"));
        assert!(store.store("b", key, b"beta"));
        assert!(store.store("a", Fingerprint(1, 3), b"gamma"));
        assert_eq!(store.load("a", key).as_deref(), Some(&b"alpha"[..]));
        assert_eq!(store.load("b", key).as_deref(), Some(&b"beta"[..]));
        assert_eq!(
            store.load("a", Fingerprint(1, 3)).as_deref(),
            Some(&b"gamma"[..])
        );
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_entries_quarantine_instead_of_crashing() {
        let store = scratch_store("corrupt");
        let key = Fingerprint(7, 7);
        assert!(store.store("outcome", key, b"precious bits"));
        let path = store.entry_path("outcome", key);

        // Flip a payload byte: checksum mismatch.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.load("outcome", key), None);
        assert!(!path.exists(), "corrupt entry must be moved aside");
        assert_eq!(store.stats().quarantined, 1);
        // The quarantined file is preserved for diagnosis.
        assert_eq!(
            fs::read_dir(store.root().join("quarantine"))
                .unwrap()
                .count(),
            1
        );

        // The key is writable again after quarantine.
        assert!(store.store("outcome", key, b"precious bits"));
        assert_eq!(
            store.load("outcome", key).as_deref(),
            Some(&b"precious bits"[..])
        );
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn truncated_and_wrong_version_entries_are_rejected() {
        let store = scratch_store("versions");
        let key = Fingerprint(9, 9);

        // Truncated below the header.
        assert!(store.store("x", key, b"data"));
        let path = store.entry_path("x", key);
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..HEADER_LEN - 3]).unwrap();
        assert_eq!(store.load("x", key), None);

        // Wrong magic.
        assert!(store.store("x", key, b"data"));
        let mut bad_magic = full.clone();
        bad_magic[0] = b'X';
        fs::write(&path, &bad_magic).unwrap();
        assert_eq!(store.load("x", key), None);

        // Future format version.
        assert!(store.store("x", key, b"data"));
        let mut future = full.clone();
        future[8..12].copy_from_slice(&(STORE_FORMAT_VERSION + 1).to_le_bytes());
        fs::write(&path, &future).unwrap();
        assert_eq!(store.load("x", key), None);

        // Payload shorter than the declared length.
        assert!(store.store("x", key, b"data"));
        fs::write(&path, &full[..full.len() - 2]).unwrap();
        assert_eq!(store.load("x", key), None);

        assert_eq!(store.stats().quarantined, 4);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn quarantine_names_are_deterministic_across_restarts() {
        // Two corrupt entries for the same key, hitting *different* store
        // handles (fresh nonce, as after a restart), must both survive in
        // `quarantine/`: the content-hash suffix keeps distinct corruptions
        // on distinct names, while a bit-identical corruption dedupes onto
        // the existing file instead of overwriting it.
        let store = scratch_store("restart-quarantine");
        let key = Fingerprint(0xaa, 0xbb);
        assert!(store.store("outcome", key, b"evidence"));
        let path = store.entry_path("outcome", key);
        let good = fs::read(&path).unwrap();

        let mut corrupt_a = good.clone();
        *corrupt_a.last_mut().unwrap() ^= 0x01;
        fs::write(&path, &corrupt_a).unwrap();
        assert_eq!(store.load("outcome", key), None);

        // "Restart": a fresh handle on the same root resets pid/nonce-style
        // state; a *different* corruption of the same key must not clobber
        // the first quarantined file.
        let reopened = DiskStore::open(store.root()).expect("store reopens");
        assert!(reopened.store("outcome", key, b"evidence"));
        let mut corrupt_b = good.clone();
        *corrupt_b.last_mut().unwrap() ^= 0x02;
        fs::write(&path, &corrupt_b).unwrap();
        assert_eq!(reopened.load("outcome", key), None);
        let quarantine_files = || {
            fs::read_dir(store.root().join("quarantine"))
                .unwrap()
                .count()
        };
        assert_eq!(quarantine_files(), 2, "distinct corruptions both kept");

        // The identical corruption again: dedupes, never overwrites.
        assert!(reopened.store("outcome", key, b"evidence"));
        fs::write(&path, &corrupt_b).unwrap();
        assert_eq!(reopened.load("outcome", key), None);
        assert_eq!(quarantine_files(), 2, "identical corruption dedupes");

        // Per-process counter vs on-disk count: the reopened handle saw two
        // quarantines, the directory holds two files from three events.
        assert_eq!(store.stats().quarantined, 1);
        assert_eq!(reopened.stats().quarantined, 2);
        assert_eq!(reopened.stats().quarantine_dir_entries, 2);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn payload_codec_round_trips_and_rejects_truncation() {
        let mut writer = PayloadWriter::new();
        writer.put_u8(3);
        writer.put_u64(0xffee_ddcc_bbaa_0099);
        writer.put_usize(41);
        writer.put_f64(-0.0);
        writer.put_str("reason: π ≈ 3");
        writer.put_f64_slice(&[1.5, f64::INFINITY, f64::MIN_POSITIVE]);
        let bytes = writer.finish();

        let mut reader = PayloadReader::new(&bytes);
        assert_eq!(reader.take_u8(), Some(3));
        assert_eq!(reader.take_u64(), Some(0xffee_ddcc_bbaa_0099));
        assert_eq!(reader.take_usize(), Some(41));
        assert_eq!(
            reader.take_f64().map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
        assert_eq!(reader.take_str().as_deref(), Some("reason: π ≈ 3"));
        assert_eq!(
            reader.take_f64_vec(),
            Some(vec![1.5, f64::INFINITY, f64::MIN_POSITIVE])
        );
        assert!(reader.is_exhausted());

        // Truncation surfaces as `None`, never a panic.
        let mut truncated = PayloadReader::new(&bytes[..bytes.len() - 4]);
        truncated.take_u8();
        truncated.take_u64();
        truncated.take_usize();
        truncated.take_f64();
        truncated.take_str();
        assert_eq!(truncated.take_f64_vec(), None);

        // A corrupt sequence length cannot force a huge allocation.
        let mut writer = PayloadWriter::new();
        writer.put_usize(usize::MAX / 2);
        let bytes = writer.finish();
        assert_eq!(PayloadReader::new(&bytes).take_f64_vec(), None);
    }
}
