//! A versioned, compact, dependency-free binary snapshot format for the
//! decision cache — the persistence half of warm-start.
//!
//! The decision cache is the product's accumulated value: every entry is a
//! *theorem* about an isomorphism class ([`CanonKey`] → settled verdict)
//! and never goes stale. This module gives that value a life beyond the
//! process: [`encode`] serializes an exported entry list to a flat byte
//! image, [`decode`] reads one back, and [`write_atomic`] publishes it to
//! disk via the tmp-file + rename idiom so a concurrent reader never
//! observes a torn snapshot.
//!
//! # Format
//!
//! All integers little-endian, no padding, no external dependencies:
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"TDQSNAP\0"
//!      8     4  snapshot format version   (SNAPSHOT_FORMAT_VERSION)
//!     12     4  canon-scheme version      (td_core::canon::CANON_SCHEME_VERSION
//!                                          of the writer)
//!     16     8  entry count N
//!     24  N*50  fixed-width records (see below)
//!   24+N*50  8  checksum: FNV-1a 64 over every preceding byte
//! ```
//!
//! Each 50-byte record (format version 3; format 2 had 58-byte records
//! with two more spend fields — old snapshots are rejected by the
//! format-version gate, never reinterpreted):
//!
//! ```text
//! offset  size  field
//!      0    16  CanonKey::raw()
//!     16     1  verdict tag: 0 = Implied, 1 = Refuted
//!     17     8  derivation_steps (Implied) / model_rows (Refuted)
//!     25     8  proof_firings    (Implied) / 0          (Refuted)
//!     33     8  spend.derivation_states
//!     41     8  spend.model_nodes
//!     49     1  spend flags: bit 0 derivation_truncated,
//!               bit 1 model_truncated
//! ```
//!
//! `Unknown` verdicts are never cached, so they have no encoding.
//!
//! # Compatibility rules
//!
//! Two versions guard two different failure modes:
//!
//! * the **format version** says whether these bytes can be *parsed*. A
//!   mismatch (or a bad magic, length, or checksum) is a structural
//!   [`SnapshotError`] carrying the byte offset of the failure — the
//!   snapshot is rejected outright and nothing is partially loaded;
//! * the **canon-scheme version** says whether the parsed keys still
//!   *mean* what this build thinks they mean. [`decode`] surfaces the
//!   writer's version in [`Snapshot::canon_version`]; the engine's loader
//!   refuses to merge entries minted under a different scheme (they are
//!   counted as skipped, never reinterpreted — see
//!   [`crate::engine::Engine::load_snapshot`]).

use std::path::Path;

use td_core::canon::{CanonKey, CANON_SCHEME_VERSION};

use crate::cache::{CachedOutcome, CachedVerdict};
use crate::pipeline::SpendReport;

/// The 8-byte magic prefix of every snapshot file.
pub const MAGIC: [u8; 8] = *b"TDQSNAP\0";

/// Version of the byte layout described in the module docs. Bump on any
/// change to the header or record encoding.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 3;

/// Bytes per entry record.
const RECORD_BYTES: usize = 50;
/// Bytes before the first record.
const HEADER_BYTES: usize = 24;
/// Bytes of the trailing checksum.
const CHECKSUM_BYTES: usize = 8;

/// A structural snapshot defect: what went wrong and at which byte
/// offset. Any such error rejects the whole snapshot — the decoder never
/// returns a partial entry list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    /// 0-based byte offset of the defect in the snapshot image.
    pub offset: usize,
    /// Human-readable description.
    pub msg: String,
}

impl SnapshotError {
    fn new(offset: usize, msg: impl Into<String>) -> Self {
        Self {
            offset,
            msg: msg.into(),
        }
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for SnapshotError {}

/// A decoded snapshot: the writer's canon-scheme version and the entry
/// list, in the order the writer exported them (per-shard FIFO order, so
/// reloading preserves eviction seniority).
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// [`CANON_SCHEME_VERSION`] of the build that wrote the snapshot.
    pub canon_version: u32,
    /// The cached verdicts, keyed by raw canonical key.
    pub entries: Vec<(CanonKey, CachedOutcome)>,
}

/// FNV-1a 64 over a byte slice — the trailing integrity checksum. Not
/// cryptographic (snapshots are operator-trusted files); it exists to turn
/// truncation and bit rot into a clean rejection instead of corrupt keys.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Encodes an entry list under the current [`CANON_SCHEME_VERSION`].
pub fn encode(entries: &[(CanonKey, CachedOutcome)]) -> Vec<u8> {
    encode_with_canon_version(entries, CANON_SCHEME_VERSION)
}

/// [`encode`] with an explicit canon-scheme version stamp. Exists so
/// compatibility tests can fabricate snapshots "from the future" (or the
/// past); production writers always stamp the current version.
pub fn encode_with_canon_version(entries: &[(CanonKey, CachedOutcome)], canon: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + entries.len() * RECORD_BYTES + CHECKSUM_BYTES);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&SNAPSHOT_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&canon.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for (key, outcome) in entries {
        out.extend_from_slice(&key.raw().to_le_bytes());
        let (tag, a, b) = match outcome.verdict {
            CachedVerdict::Implied {
                derivation_steps,
                proof_firings,
            } => (0u8, derivation_steps as u64, proof_firings as u64),
            CachedVerdict::Refuted { model_rows } => (1u8, model_rows as u64, 0u64),
        };
        out.push(tag);
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
        out.extend_from_slice(&(outcome.spend.derivation_states as u64).to_le_bytes());
        out.extend_from_slice(&outcome.spend.model_nodes.to_le_bytes());
        let flags = u8::from(outcome.spend.derivation_truncated)
            | (u8::from(outcome.spend.model_truncated) << 1);
        out.push(flags);
    }
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Reads little-endian integers out of a snapshot image.
fn u32_at(bytes: &[u8], offset: usize) -> u32 {
    u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes"))
}

fn u64_at(bytes: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("8 bytes"))
}

fn u128_at(bytes: &[u8], offset: usize) -> u128 {
    u128::from_le_bytes(bytes[offset..offset + 16].try_into().expect("16 bytes"))
}

/// Decodes a snapshot image, validating magic, format version, length and
/// checksum before touching a single record. Every structural defect is a
/// positioned [`SnapshotError`]; on success the returned entries are
/// complete. The caller still owes the canon-scheme compatibility check
/// (see [`Snapshot::canon_version`] and the module docs).
pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    if bytes.len() < HEADER_BYTES + CHECKSUM_BYTES {
        return Err(SnapshotError::new(
            bytes.len(),
            format!(
                "truncated snapshot: {} bytes, need at least {} for an empty one",
                bytes.len(),
                HEADER_BYTES + CHECKSUM_BYTES
            ),
        ));
    }
    if bytes[..8] != MAGIC {
        return Err(SnapshotError::new(0, "bad magic: not a tdq cache snapshot"));
    }
    let format = u32_at(bytes, 8);
    if format != SNAPSHOT_FORMAT_VERSION {
        return Err(SnapshotError::new(
            8,
            format!(
                "unsupported snapshot format version {format} (this build reads \
                 {SNAPSHOT_FORMAT_VERSION})"
            ),
        ));
    }
    let canon_version = u32_at(bytes, 12);
    let count = u64_at(bytes, 16);
    let records = (count as usize)
        .checked_mul(RECORD_BYTES)
        .and_then(|r| r.checked_add(HEADER_BYTES + CHECKSUM_BYTES))
        .ok_or_else(|| SnapshotError::new(16, format!("absurd entry count {count}")))?;
    if bytes.len() != records {
        return Err(SnapshotError::new(
            bytes.len().min(records),
            format!(
                "length mismatch: {} entries need {} bytes, got {}",
                count,
                records,
                bytes.len()
            ),
        ));
    }
    let body = bytes.len() - CHECKSUM_BYTES;
    let stored = u64_at(bytes, body);
    let computed = fnv1a64(&bytes[..body]);
    if stored != computed {
        return Err(SnapshotError::new(
            body,
            format!("checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"),
        ));
    }
    let mut entries = Vec::with_capacity(count as usize);
    for i in 0..count as usize {
        let at = HEADER_BYTES + i * RECORD_BYTES;
        let key = CanonKey::from_raw(u128_at(bytes, at));
        let tag = bytes[at + 16];
        let a = u64_at(bytes, at + 17);
        let b = u64_at(bytes, at + 25);
        let verdict = match tag {
            0 => CachedVerdict::Implied {
                derivation_steps: a as usize,
                proof_firings: b as usize,
            },
            1 => CachedVerdict::Refuted {
                model_rows: a as usize,
            },
            other => {
                return Err(SnapshotError::new(
                    at + 16,
                    format!("record {i}: unknown verdict tag {other}"),
                ));
            }
        };
        let flags = bytes[at + 49];
        if flags & !0b11 != 0 {
            return Err(SnapshotError::new(
                at + 49,
                format!("record {i}: unknown spend flags {flags:#04x}"),
            ));
        }
        let spend = SpendReport {
            derivation_states: u64_at(bytes, at + 33) as usize,
            derivation_truncated: flags & 0b01 != 0,
            model_nodes: u64_at(bytes, at + 41),
            model_truncated: flags & 0b10 != 0,
        };
        entries.push((key, CachedOutcome { verdict, spend }));
    }
    Ok(Snapshot {
        canon_version,
        entries,
    })
}

/// Publishes a snapshot image at `path` atomically: the bytes are written
/// to a sibling tmp file and `rename`d into place, so a reader (another
/// replica warming up, a concurrent `--cache-load`) observes either the
/// old complete snapshot or the new complete snapshot, never a torn
/// prefix. The tmp name embeds the process id, so concurrent writers on
/// one host cannot trample each other's staging file.
///
/// # Errors
///
/// Fails with the underlying I/O error when the tmp file cannot be
/// created, written, or renamed into place.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = {
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(format!(".tmp.{}", std::process::id()));
        path.with_file_name(name)
    };
    let result = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp); // best-effort cleanup
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(n: u64) -> (CanonKey, CachedOutcome) {
        let verdict = if n % 2 == 0 {
            CachedVerdict::Implied {
                derivation_steps: n as usize,
                proof_firings: (n * 3) as usize,
            }
        } else {
            CachedVerdict::Refuted {
                model_rows: n as usize + 2,
            }
        };
        (
            CanonKey::from_raw((n as u128) << 64 | 0xdead_beef),
            CachedOutcome {
                verdict,
                spend: SpendReport {
                    derivation_states: n as usize * 7,
                    derivation_truncated: n % 3 == 0,
                    model_nodes: n * 11,
                    model_truncated: n % 5 == 0,
                },
            },
        )
    }

    #[test]
    fn roundtrip_preserves_entries_and_order() {
        let entries: Vec<_> = (0..17).map(entry).collect();
        let bytes = encode(&entries);
        assert_eq!(
            bytes.len(),
            HEADER_BYTES + 17 * RECORD_BYTES + CHECKSUM_BYTES
        );
        let snap = decode(&bytes).unwrap();
        assert_eq!(snap.canon_version, CANON_SCHEME_VERSION);
        assert_eq!(snap.entries, entries);

        let empty = decode(&encode(&[])).unwrap();
        assert!(empty.entries.is_empty());
    }

    #[test]
    fn truncation_is_rejected_with_position() {
        let bytes = encode(&(0..4).map(entry).collect::<Vec<_>>());
        for cut in [0, 7, HEADER_BYTES, bytes.len() - 9, bytes.len() - 1] {
            let err = decode(&bytes[..cut]).expect_err("truncated must fail");
            assert!(err.offset <= cut, "offset {} past cut {cut}", err.offset);
        }
        // Trailing garbage is equally structural.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode(&long).unwrap_err().msg.contains("length mismatch"));
    }

    #[test]
    fn corruption_is_rejected_by_the_checksum() {
        let clean = encode(&(0..4).map(entry).collect::<Vec<_>>());
        // Flip one bit anywhere in the record region: checksum catches it.
        for at in [HEADER_BYTES, HEADER_BYTES + 20, clean.len() - 10] {
            let mut bad = clean.clone();
            bad[at] ^= 0x40;
            let err = decode(&bad).expect_err("corrupt must fail");
            assert!(
                err.msg.contains("checksum mismatch"),
                "{at}: wrong error {err}"
            );
            assert_eq!(err.offset, clean.len() - CHECKSUM_BYTES);
        }
    }

    #[test]
    fn wrong_magic_and_format_version_are_rejected() {
        let mut bad = encode(&[entry(1)]);
        bad[0] = b'X';
        let err = decode(&bad).unwrap_err();
        assert_eq!(err.offset, 0);
        assert!(err.msg.contains("magic"));

        let mut entries = vec![entry(1)];
        let mut future = encode(&entries);
        future[8..12].copy_from_slice(&(SNAPSHOT_FORMAT_VERSION + 1).to_le_bytes());
        // Re-stamp the checksum so the *version* check is what fires.
        let body = future.len() - CHECKSUM_BYTES;
        let sum = fnv1a64(&future[..body]);
        future[body..].copy_from_slice(&sum.to_le_bytes());
        let err = decode(&future).unwrap_err();
        assert_eq!(err.offset, 8);
        assert!(err.msg.contains("unsupported snapshot format version"));

        // A foreign canon-scheme stamp decodes fine — meaning, not shape —
        // and is surfaced for the loader's compatibility gate.
        entries.push(entry(2));
        let foreign = encode_with_canon_version(&entries, CANON_SCHEME_VERSION + 9);
        let snap = decode(&foreign).unwrap();
        assert_eq!(snap.canon_version, CANON_SCHEME_VERSION + 9);
        assert_eq!(snap.entries.len(), 2);

        // A one-record image in the format-2 layout: 58-byte records with
        // spend fields at offsets 49..58 that format 3 dropped. It is
        // rejected at the version word and loads nothing.
        let mut old = MAGIC.to_vec();
        old.extend_from_slice(&2u32.to_le_bytes());
        old.extend_from_slice(&CANON_SCHEME_VERSION.to_le_bytes());
        old.extend_from_slice(&1u64.to_le_bytes());
        old.extend_from_slice(&0xdead_beef_u128.to_le_bytes());
        old.push(1); // Refuted
        for field in [3u64, 0, 5, 0, 9] {
            old.extend_from_slice(&field.to_le_bytes());
        }
        old.push(0b100);
        assert_eq!(old.len(), HEADER_BYTES + 58);
        old.extend_from_slice(&fnv1a64(&old).to_le_bytes());
        let err = decode(&old).unwrap_err();
        assert_eq!(err.offset, 8);
        assert!(err.msg.contains("unsupported snapshot format version 2"));
        let engine = crate::engine::Engine::new();
        assert!(matches!(
            engine.load_snapshot(&old),
            Err(crate::error::RedError::Snapshot(ref e)) if e.offset == 8
        ));
        assert!(engine.cache().is_empty());
    }

    #[test]
    fn unknown_tags_and_flags_are_rejected() {
        let clean = encode(&[entry(2)]);
        for (at, what) in [(HEADER_BYTES + 16, "verdict tag"), (HEADER_BYTES + 49, "")] {
            let mut bad = clean.clone();
            bad[at] = 0x9;
            let body = bad.len() - CHECKSUM_BYTES;
            let sum = fnv1a64(&bad[..body]);
            bad[body..].copy_from_slice(&sum.to_le_bytes());
            let err = decode(&bad).expect_err("bad record must fail");
            assert_eq!(err.offset, at);
            assert!(err.msg.contains("record 0"), "{err}");
            assert!(err.msg.contains(what), "{err}");
        }
    }

    #[test]
    fn write_atomic_replaces_without_tearing() {
        let dir = std::env::temp_dir().join(format!("td_snapshot_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.tdsnap");
        let first = encode(&[entry(1)]);
        write_atomic(&path, &first).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), first);
        let second = encode(&(0..9).map(entry).collect::<Vec<_>>());
        write_atomic(&path, &second).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), second);
        // No staging litter left behind.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
