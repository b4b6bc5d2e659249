//! Experiment T5 — the axiom-driven fast path: what the microsecond
//! prescreen tier saves on an easy-heavy request mix, through the same
//! `decide` path `tdq serve` uses.
//!
//! Shape claim: on [`easy_heavy_corpus`] (48 instances, 32 of them
//! fast-path eligible by construction) a cold engine with the fast path on
//! settles every eligible instance before either search thread spawns —
//! zero chase/model-search spend, `stats.fastpath_hits` counting each one
//! — while the `FastPath::Off` baseline pays the full racing solve for all
//! 48. The per-query floor is pinned by `engine/fastpath_single`: one
//! fast-settled decide, end to end (parse-free: canonicalize → prescreen),
//! must stay in the microsecond regime. Recorded numbers live in
//! `BENCH_batch.json` under `engine/fastpath_*`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use td_bench::{easy_heavy_corpus, EASY_HEAVY_ELIGIBLE};
use td_reduction::deps::build_system;
use td_reduction::engine::{Engine, EngineConfig};
use td_reduction::fastpath::{prescreen, FastBudget};
use td_reduction::prelude::*;
use td_semigroup::normalize::normalize;

/// A cold engine with the fast path forced to `mode`.
fn engine_with(mode: FastPath) -> Engine {
    Engine::with_config(EngineConfig {
        opts: SolveOptions {
            fastpath: mode,
            ..SolveOptions::default()
        },
        ..EngineConfig::default()
    })
}

/// Fast path on (the default tier order): every eligible instance must be
/// a fast-path hit with zero search spend; the hard tail still solves.
fn bench_fastpath_cold(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/fastpath_cold_decide");
    group.sample_size(10);
    let corpus = easy_heavy_corpus();
    group.bench_with_input(
        BenchmarkId::from_parameter("easy_heavy_48"),
        &corpus,
        |b, corpus| {
            b.iter(|| {
                let engine = engine_with(FastPath::Auto);
                for (i, p) in corpus.iter().enumerate() {
                    let d = engine.decide(p).expect("engine decides");
                    if i < EASY_HEAVY_ELIGIBLE {
                        assert!(
                            d.spend.fastpath_checks > 0
                                && d.spend.derivation_states == 0
                                && d.spend.model_nodes == 0,
                            "instance {i} is eligible: the prescreen must settle it \
                             with zero search spend, got {:?}",
                            d.spend
                        );
                    }
                }
                let stats = engine.stats();
                assert_eq!(stats.solved, corpus.len() as u64, "distinct keys");
                assert!(
                    stats.fastpath_hits >= EASY_HEAVY_ELIGIBLE as u64,
                    "every eligible instance is a fast-path hit, got {}",
                    stats.fastpath_hits
                );
                black_box(stats.fastpath_hits)
            });
        },
    );
    group.finish();
}

/// Baseline: the same corpus with the fast path off — every instance pays
/// the full search race (the cost the prescreen tier removes).
fn bench_cold_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/cold_decide");
    group.sample_size(10);
    let corpus = easy_heavy_corpus();
    group.bench_with_input(
        BenchmarkId::from_parameter("easy_heavy_48"),
        &corpus,
        |b, corpus| {
            b.iter(|| {
                let engine = engine_with(FastPath::Off);
                for p in corpus {
                    black_box(engine.decide(p).expect("engine decides"));
                }
                let stats = engine.stats();
                assert_eq!(stats.solved, corpus.len() as u64, "distinct keys");
                assert_eq!(stats.fastpath_hits, 0, "the baseline never prescreens");
                black_box(stats.solved)
            });
        },
    );
    group.finish();
}

/// The microsecond-tier claim (`< 100 µs` per settled query, recorded in
/// BENCH_batch.json): one [`prescreen`] call on a prebuilt reduced system.
/// Both settling stages are pinned — the subsumption settle (`A₀ = 0`
/// alias) and the refutation-probe settle (zero-only presentation). This
/// is the tier's own cost, the price every stage-0 `decide` pays before
/// the cache answer or the search race; the end-to-end singles below
/// add canonicalization on top.
fn bench_prescreen_settle(c: &mut Criterion) {
    let mut group = c.benchmark_group("fastpath/prescreen_settle");
    let corpus = easy_heavy_corpus();
    for (label, idx, implied) in [
        ("probe_refuted", 0usize, false),
        ("subsumed_implied", 24, true),
    ] {
        let normalized = normalize(&corpus[idx].zero_saturated()).expect("normalizes");
        let system = build_system(&normalized.presentation).expect("builds");
        group.bench_with_input(BenchmarkId::from_parameter(label), &system, |b, system| {
            b.iter(|| {
                let pre = prescreen(system, &FastBudget::default()).expect("prescreens");
                let verdict = pre.verdict.expect("must fast-settle");
                assert_eq!(verdict.is_implied(), implied);
                black_box(verdict)
            });
        });
    }
    group.finish();
}

/// One fast-settled query on a fresh engine, end to end (parse-free:
/// canonicalize → reduce → prescreen). Context for the prescreen-tier
/// numbers above: on easy singles the canonicalization pass, not the
/// prescreen, dominates this figure.
fn bench_fastpath_single(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/fastpath_single");
    let corpus = easy_heavy_corpus();
    for (label, idx) in [("probe_refuted", 0usize), ("subsumed_implied", 24)] {
        let p = corpus[idx].clone();
        group.bench_with_input(BenchmarkId::from_parameter(label), &p, |b, p| {
            b.iter(|| {
                let engine = engine_with(FastPath::Auto);
                let d = engine.decide(p).expect("engine decides");
                assert!(
                    d.spend.fastpath_checks > 0 && d.spend.model_nodes == 0,
                    "must fast-settle: {:?}",
                    d.spend
                );
                black_box(d.verdict)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fastpath_cold,
    bench_cold_baseline,
    bench_prescreen_settle,
    bench_fastpath_single
);
criterion_main!(benches);
