//! Batch decision types: many implication questions, each answered once
//! per distinct presentation by [`crate::engine::Engine::solve_batch`].
//!
//! Corpora of word-problem instances are full of disguised repeats —
//! machine-generated queries that differ by symbol names, equation order,
//! the side order of an equation or repeated equations while asking the
//! same question. A batch exploits this in three layers:
//!
//! 1. **Keying** — every instance is keyed by
//!    [`crate::engine::Engine::canonical_key`], an exact key of the parsed
//!    presentation that ignores exactly those differences (symbol indices
//!    stay significant) and needs no normalization or reduction.
//! 2. **Deduplication + caching** — only the first instance of each key is
//!    normalized, reduced and solved; settled verdicts are also recorded
//!    in the engine's shared [`crate::cache::DecisionCache`], so a
//!    pre-warmed cache skips even the first copy. `Unknown` verdicts are shared *within* the batch call
//!    (budgets are fixed for the call) but never written to the cache.
//! 3. **A fixed worker pool** — the distinct instances are solved on the
//!    engine's `jobs` scoped threads, each running the racing solver;
//!    results are fanned back out to the input order.
//!
//! The outcome of a batch is deterministic: which instances get solved,
//! every verdict, and the [`BatchStats`] are independent of thread
//! scheduling (only wall-clock time varies).

// Every batch request's verdicts pass through this module on a serve
// worker. The td-lint panic-path pass enforces panic-freedom lexically;
// the clippy pair keeps `cargo clippy` aligned.
#![warn(clippy::unwrap_used, clippy::expect_used)]

use td_core::canon::CanonKey;

use crate::cache::{CachedOutcome, CachedVerdict};
use crate::pipeline::{PipelineOutcome, PipelineRun};

/// One instance's verdict, compressed to the numbers a batch report needs.
/// Full certificates are only materialized by the run that solved the
/// instance; repeats of it share the verdict without replaying it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchVerdict {
    /// `D ⊨ D₀` — derivable, with proof sizes.
    Implied {
        /// Steps of the word-problem derivation.
        derivation_steps: usize,
        /// Firings of the compiled part (A) chase proof.
        proof_firings: usize,
    },
    /// `D ⊭ D₀` over finite databases — a countermodel exists.
    Refuted {
        /// Rows of the part (B) countermodel.
        model_rows: usize,
    },
    /// Neither side settled within this batch's budgets.
    Unknown {
        /// Words visited by the derivation search.
        derivation_states: usize,
        /// Nodes visited by the model search.
        model_nodes: u64,
    },
}

/// Work accounting for one [`crate::engine::Engine::solve_batch`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Instances in the batch.
    pub total: usize,
    /// Distinct keys ([`crate::engine::Engine::canonical_key`]) among them.
    pub unique: usize,
    /// Instances answered without running the solver — repeats within
    /// the batch plus pre-warmed cache entries. Always
    /// `total - solved`.
    pub cache_hits: usize,
    /// Racing-solver runs actually executed.
    pub solved: usize,
    /// Among `solved`, the runs the axiom-driven fast path settled before
    /// either search started (see [`crate::fastpath`]). These still count
    /// as solver runs — the prescreen is stage 0 of the solve — so
    /// `cache_hits + solved == total` stays an invariant.
    pub fastpath: usize,
    /// Cache evictions observed on the shared [`DecisionCache`] during
    /// this call (zero unless the cache's residency bound was hit; on an
    /// engine cache shared with concurrent callers this counts *all*
    /// evictions in the window, not only this batch's). Deliberately not
    /// part of the `--cache-stats` CLI line, whose shape is pinned by the
    /// golden tests; the engine/serve stats surface it.
    pub evictions: u64,
}

/// Everything a batch call returns: per-instance verdicts and keys in
/// input order, plus the work accounting.
#[derive(Debug, Clone)]
pub struct BatchRun {
    /// One verdict per input instance, in input order.
    pub verdicts: Vec<BatchVerdict>,
    /// The key of each input instance, in input order (equal keys mark
    /// the repeats that were deduplicated).
    pub keys: Vec<CanonKey>,
    /// Work accounting.
    pub stats: BatchStats,
}

/// Compresses a full pipeline run to its [`BatchVerdict`]. A
/// fastpath-settled run compresses like the certificate it stands for:
/// implied with zero derivation work, or refuted by the probe instance's
/// row count — so cached replays and batch output stay verdict-identical
/// with the full solver.
pub(crate) fn compress(run: &PipelineRun) -> BatchVerdict {
    match &run.outcome {
        PipelineOutcome::Implied { derivation, proof } => BatchVerdict::Implied {
            derivation_steps: derivation.len(),
            proof_firings: proof.proof.len(),
        },
        PipelineOutcome::Refuted { model, .. } => BatchVerdict::Refuted {
            model_rows: model.len(),
        },
        PipelineOutcome::FastSettled { verdict } => match verdict.model_rows() {
            None => BatchVerdict::Implied {
                derivation_steps: 0,
                proof_firings: 0,
            },
            Some(rows) => BatchVerdict::Refuted { model_rows: rows },
        },
        PipelineOutcome::Unknown {
            derivation_states,
            model_nodes,
        } => BatchVerdict::Unknown {
            derivation_states: *derivation_states,
            model_nodes: *model_nodes,
        },
    }
}

pub(crate) fn from_cached(outcome: &CachedOutcome) -> BatchVerdict {
    match outcome.verdict {
        CachedVerdict::Implied {
            derivation_steps,
            proof_firings,
        } => BatchVerdict::Implied {
            derivation_steps,
            proof_firings,
        },
        CachedVerdict::Refuted { model_rows } => BatchVerdict::Refuted { model_rows },
    }
}

/// The number of worker threads a fan-out phase should actually spawn:
/// never more than `jobs` (clamped to at least 1 so a zero config cannot
/// wedge a pool), never more than the `distinct` work items available,
/// and **zero** when there is no work at all. With `--jobs` defaulting to
/// the machine's core count, `jobs` routinely dwarfs the distinct-key
/// count of a small batch; spawning the surplus threads is pure overhead
/// (and an idle thread on an empty phase is worse — a spawn with nothing
/// to pull).
pub(crate) fn solver_pool_width(jobs: usize, distinct: usize) -> usize {
    jobs.max(1).min(distinct)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::pipeline::Budgets;
    use td_semigroup::alphabet::Alphabet;
    use td_semigroup::equation::Equation;
    use td_semigroup::presentation::Presentation;

    /// An engine with its own cache, solving under `budgets` on a pool of
    /// `jobs` workers.
    fn engine(budgets: Budgets, jobs: usize) -> Engine {
        Engine::with_config(EngineConfig {
            budgets,
            jobs,
            ..EngineConfig::default()
        })
    }

    fn derivable() -> Presentation {
        let alphabet = Alphabet::standard(2);
        let eqs = vec![
            Equation::parse("A1 A1 = A0", &alphabet).unwrap(),
            Equation::parse("A1 A1 = 0", &alphabet).unwrap(),
        ];
        Presentation::new(alphabet, eqs).unwrap()
    }

    /// The same instance under renamed symbols and reordered equations:
    /// the same question, so it must share the key.
    fn derivable_renamed() -> Presentation {
        let alphabet = Alphabet::new(["start", "gen", "zip"], "start", "zip").unwrap();
        let eqs = vec![
            Equation::parse("gen gen = zip", &alphabet).unwrap(),
            Equation::parse("gen gen = start", &alphabet).unwrap(),
        ];
        Presentation::new(alphabet, eqs).unwrap()
    }

    fn refutable() -> Presentation {
        Presentation::new(Alphabet::standard(1), vec![]).unwrap()
    }

    #[test]
    fn batch_dedups_and_matches_single_solves() {
        let items = vec![
            derivable(),
            refutable(),
            derivable_renamed(),
            derivable(),
            refutable(),
        ];
        let engine = engine(Budgets::default(), 2);
        let run = engine.solve_batch(&items).unwrap();
        assert_eq!(run.verdicts.len(), 5);
        assert_eq!(run.keys[0], run.keys[2], "renamed copy shares the key");
        assert_eq!(run.keys[0], run.keys[3]);
        assert_eq!(run.keys[1], run.keys[4]);
        assert_ne!(run.keys[0], run.keys[1]);
        assert_eq!(run.stats.total, 5);
        assert_eq!(run.stats.unique, 2);
        assert_eq!(run.stats.solved, 2);
        assert_eq!(run.stats.cache_hits, 3);
        assert_eq!(engine.cache().len(), 2, "both settled verdicts were cached");

        // The fanned-out verdicts agree with one-at-a-time solving.
        for (item, verdict) in items.iter().zip(&run.verdicts) {
            let single = Engine::new().run_full(item).unwrap();
            assert_eq!(*verdict, compress(&single));
        }
        assert!(matches!(run.verdicts[0], BatchVerdict::Implied { .. }));
        assert!(matches!(run.verdicts[1], BatchVerdict::Refuted { .. }));
        assert_eq!(run.verdicts[0], run.verdicts[2]);
    }

    #[test]
    fn prewarmed_cache_skips_all_solving() {
        let items = vec![derivable(), derivable_renamed()];
        let engine = engine(Budgets::default(), 1);
        let first = engine.solve_batch(&items).unwrap();
        assert_eq!(first.stats.solved, 1);
        let second = engine.solve_batch(&items).unwrap();
        assert_eq!(second.stats.solved, 0);
        assert_eq!(second.stats.cache_hits, 2);
        assert_eq!(first.verdicts, second.verdicts);
    }

    #[test]
    fn unknown_is_shared_in_batch_but_not_cached() {
        // The spend-report fixture: defeats the null shortcut, derivation
        // cannot reach `0`, tiny budgets exhaust both sides.
        let alphabet = Alphabet::standard(2);
        let grow = Equation::parse("A0 A1 = A0", &alphabet).unwrap();
        let p = Presentation::new(alphabet, vec![grow]).unwrap();
        let tight = Budgets {
            derivation: td_semigroup::derivation::SearchBudget {
                max_word_len: 6,
                max_states: 50,
            },
            model: td_semigroup::model_search::ModelSearchOptions {
                min_size: 3,
                max_size: 3,
                max_nodes: 5,
            },
            chase: td_core::chase::ChaseBudget::default(),
        };
        let items = vec![p.clone(), p];
        let engine = engine(tight, 2);
        let run = engine.solve_batch(&items).unwrap();
        assert!(matches!(run.verdicts[0], BatchVerdict::Unknown { .. }));
        assert_eq!(run.verdicts[0], run.verdicts[1], "shared within the call");
        assert_eq!(run.stats.solved, 1, "deduplicated within the call");
        assert!(
            engine.cache().is_empty(),
            "Unknown must not be cached across calls"
        );
    }

    #[test]
    fn empty_batch() {
        let run = engine(Budgets::default(), 4).solve_batch(&[]).unwrap();
        assert!(run.verdicts.is_empty());
        assert_eq!(run.stats, BatchStats::default());
    }

    #[test]
    fn many_jobs_few_items() {
        let items = vec![derivable(), refutable()];
        let run = engine(Budgets::default(), 64).solve_batch(&items).unwrap();
        assert_eq!(run.stats.solved, 2);
    }

    /// The clamp itself: the pool width never exceeds the distinct work
    /// count, never exceeds `jobs`, survives a zero-jobs config, and is
    /// zero — no idle thread — when there is nothing to solve.
    #[test]
    fn solver_pool_width_never_overshoots_distinct_keys() {
        assert_eq!(solver_pool_width(64, 2), 2, "jobs ≫ unique keys");
        assert_eq!(solver_pool_width(4, 4), 4);
        assert_eq!(solver_pool_width(2, 7), 2);
        assert_eq!(solver_pool_width(0, 7), 1, "zero jobs still makes progress");
        assert_eq!(solver_pool_width(64, 0), 0, "no work, no pool");
        assert_eq!(solver_pool_width(0, 0), 0);
    }

    /// Regression for jobs ≫ unique keys end to end: a wide pool over a
    /// batch with two distinct keys (and over a fully prewarmed batch,
    /// where the solver pool must be empty) stays correct and keeps the
    /// dedup accounting intact.
    #[test]
    fn wide_pool_over_few_distinct_keys_is_exact() {
        let items = vec![
            derivable(),
            refutable(),
            derivable_renamed(),
            derivable(),
            refutable(),
        ];
        let engine = engine(Budgets::default(), 1024);
        let run = engine.solve_batch(&items).unwrap();
        assert_eq!(run.stats.unique, 2);
        assert_eq!(run.stats.solved, 2, "one solve per distinct key");
        assert_eq!(run.stats.cache_hits, 3);

        // Second pass: everything prewarmed, the solver pool spawns no
        // threads at all, and the verdicts replay exactly.
        let warm = engine.solve_batch(&items).unwrap();
        assert_eq!(warm.stats.solved, 0);
        assert_eq!(warm.stats.cache_hits, 5);
        assert_eq!(warm.verdicts, run.verdicts);
    }
}
