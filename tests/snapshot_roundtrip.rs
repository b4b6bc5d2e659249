//! Property tests for the decision-cache snapshot layer
//! (`td_reduction::snapshot` + `DecisionCache::export` +
//! `Engine::{save,load}_snapshot`): save→load over randomly generated
//! cached corpora must reproduce identical `get` results and `len`, and
//! every mutated, truncated, or wrong-version image must be rejected with
//! a positioned error that leaves the target cache untouched.

use proptest::prelude::*;
use template_deps::td_core::canon::{CanonKey, CANON_SCHEME_VERSION};
use template_deps::td_reduction::cache::{CachedOutcome, CachedVerdict, DecisionCache};
use template_deps::td_reduction::engine::{Engine, EngineConfig, LoadStats};
use template_deps::td_reduction::error::RedError;
use template_deps::td_reduction::pipeline::SpendReport;
use template_deps::td_reduction::snapshot;

/// Strategy: one arbitrary cached entry. Keys are fabricated raw digests
/// (`CanonKey::from_raw`) — the snapshot layer is agnostic to how a key
/// was minted, and real canonicalizations are too slow for proptest
/// corpora.
fn arb_entry() -> impl Strategy<Value = (CanonKey, CachedOutcome)> {
    (
        proptest::collection::vec(0..u64::MAX, 2),
        0..2u32,
        0..u64::MAX,
        0..u64::MAX,
        0..4u32,
    )
        .prop_map(|(raw, tag, a, b, flags)| {
            let key = CanonKey::from_raw((u128::from(raw[0]) << 64) | u128::from(raw[1]));
            let verdict = if tag == 0 {
                CachedVerdict::Implied {
                    derivation_steps: (a % (usize::MAX as u64)) as usize,
                    proof_firings: (b % (usize::MAX as u64)) as usize,
                }
            } else {
                CachedVerdict::Refuted {
                    model_rows: (a % (usize::MAX as u64)) as usize,
                }
            };
            let spend = SpendReport {
                derivation_states: (b % (usize::MAX as u64)) as usize,
                derivation_truncated: flags & 1 != 0,
                model_nodes: a ^ b,
                model_truncated: flags & 2 != 0,
            };
            (key, CachedOutcome { verdict, spend })
        })
}

/// Strategy: a corpus of up to 24 entries with distinct keys (last write
/// wins in the cache, so duplicate keys would make `len` comparisons
/// ambiguous rather than interesting).
fn arb_corpus() -> impl Strategy<Value = Vec<(CanonKey, CachedOutcome)>> {
    proptest::collection::vec(arb_entry(), 0..24).prop_map(|mut entries| {
        let mut seen = std::collections::HashSet::new();
        entries.retain(|&(k, _)| seen.insert(k.raw()));
        entries
    })
}

fn populate(entries: &[(CanonKey, CachedOutcome)]) -> DecisionCache {
    let cache = DecisionCache::new(4);
    for &(k, o) in entries {
        cache.insert(k, o);
    }
    cache
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Save→load is the identity on cache contents: same `len`, same
    /// `get` on every key (and still `None` off-corpus).
    #[test]
    fn save_load_reproduces_gets_and_len(entries in arb_corpus(), probe in arb_entry()) {
        let source = populate(&entries);
        let image = snapshot::encode(&source.export());

        let restored = DecisionCache::new(7); // shard count need not match
        let snap = snapshot::decode(&image).unwrap();
        prop_assert_eq!(snap.canon_version, CANON_SCHEME_VERSION);
        for (k, o) in snap.entries {
            restored.insert(k, o);
        }
        prop_assert_eq!(restored.len(), source.len());
        for &(k, o) in &entries {
            prop_assert_eq!(restored.get(k), Some(o));
        }
        let (probe_key, _) = probe;
        prop_assert_eq!(restored.get(probe_key), source.get(probe_key));
    }

    /// Flipping any single byte of the image makes `decode` fail with a
    /// positioned error — and an engine-level load leaves the target
    /// cache untouched. (Flipping a count/record byte is caught by the
    /// checksum; flipping a checksum byte is caught by the re-computation;
    /// header bytes by magic/version checks.)
    #[test]
    fn any_single_byte_mutation_is_rejected(
        entries in arb_corpus(),
        pos_pick in 0..u32::MAX,
        bit in 0..8u32,
    ) {
        let image = snapshot::encode(&populate(&entries).export());
        let pos = (pos_pick as usize) % image.len();
        let mut bad = image.clone();
        bad[pos] ^= 1u8 << bit;

        let err = snapshot::decode(&bad).expect_err("mutated image must be rejected");
        prop_assert!(err.offset <= bad.len(), "offset {} out of image", err.offset);

        let engine = Engine::new();
        let result = engine.load_snapshot(&bad);
        prop_assert!(matches!(result, Err(RedError::Snapshot(_))));
        prop_assert_eq!(engine.cache().len(), 0, "never partially loaded");
    }

    /// Truncating the image anywhere makes `decode` fail with an error
    /// positioned at or before the cut.
    #[test]
    fn any_truncation_is_rejected(entries in arb_corpus(), cut_pick in 0..u32::MAX) {
        let image = snapshot::encode(&populate(&entries).export());
        let cut = (cut_pick as usize) % image.len(); // strictly shorter
        let err = snapshot::decode(&image[..cut]).expect_err("truncation must be rejected");
        prop_assert!(err.offset <= image.len());

        let engine = Engine::new();
        prop_assert!(engine.load_snapshot(&image[..cut]).is_err());
        prop_assert_eq!(engine.cache().len(), 0);
    }

    /// A snapshot stamped with any foreign canon-scheme version loads
    /// zero keys (all skipped), leaving the target cache untouched.
    #[test]
    fn any_foreign_canon_version_loads_nothing(
        entries in arb_corpus(),
        bump in 1..u32::MAX,
    ) {
        let foreign_version = CANON_SCHEME_VERSION.wrapping_add(bump);
        let exported = populate(&entries).export();
        let image = snapshot::encode_with_canon_version(&exported, foreign_version);

        let engine = Engine::with_config(EngineConfig::default());
        let stats = engine.load_snapshot(&image).unwrap();
        prop_assert_eq!(stats, LoadStats {
            keys_loaded: 0,
            keys_skipped_version: exported.len(),
        });
        prop_assert_eq!(engine.cache().len(), 0, "foreign keys never merged");
    }
}
