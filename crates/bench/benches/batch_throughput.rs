//! Experiment T3 — batch decision throughput: canonical-key deduplication
//! plus the worker pool versus one-at-a-time solving.
//!
//! Shape claim: on a duplicate-heavy corpus (every instance repeated under
//! renamed symbols and rotated equations), `Engine::solve_batch` answers each
//! isomorphism class once, so its cost is ~`unique / total` of the naive
//! loop's before parallelism even starts. The acceptance bar for the
//! recorded baseline (`BENCH_batch.json`) is ≥5× on the 48-instance
//! corpus.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use td_bench::duplicate_heavy_corpus;
use td_reduction::prelude::*;

/// One-at-a-time baseline: the racing solver on every instance, no
/// deduplication, no cache (`run_full` never consults it).
fn bench_one_at_a_time(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch/one_at_a_time");
    group.sample_size(10);
    let engine = Engine::new();
    for copies in [4usize, 12] {
        let corpus = duplicate_heavy_corpus(copies);
        group.bench_with_input(
            BenchmarkId::from_parameter(corpus.len()),
            &corpus,
            |b, corpus| {
                b.iter(|| {
                    let mut implied = 0usize;
                    for p in corpus {
                        let run = engine.run_full(p).expect("pipeline runs");
                        implied += usize::from(run.outcome.is_implied());
                    }
                    black_box(implied)
                });
            },
        );
    }
    group.finish();
}

/// The batch pipeline on a fresh engine — so a fresh cache — per
/// iteration (the measured win is dedup + the worker pool, not
/// cross-iteration caching).
fn bench_solve_batch(c: &mut Criterion) {
    for jobs in [1usize, 4] {
        let mut group = c.benchmark_group(format!("batch/solve_batch_j{jobs}"));
        group.sample_size(10);
        for copies in [4usize, 12] {
            let corpus = duplicate_heavy_corpus(copies);
            group.bench_with_input(
                BenchmarkId::from_parameter(corpus.len()),
                &corpus,
                |b, corpus| {
                    b.iter(|| {
                        let engine = Engine::with_config(EngineConfig {
                            jobs,
                            ..EngineConfig::default()
                        });
                        let run = engine.solve_batch(corpus).expect("batch runs");
                        assert_eq!(run.stats.unique, 4, "dedup must collapse the corpus");
                        black_box(run.stats)
                    });
                },
            );
        }
        group.finish();
    }
}

/// A pre-warmed cache: the steady-state cost of a duplicate-heavy stream,
/// i.e. canonicalization alone.
fn bench_warm_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch/warm_cache_j4");
    group.sample_size(10);
    for copies in [4usize, 12] {
        let corpus = duplicate_heavy_corpus(copies);
        let engine = Engine::with_config(EngineConfig {
            jobs: 4,
            ..EngineConfig::default()
        });
        engine.solve_batch(&corpus).expect("warm-up");
        group.bench_with_input(
            BenchmarkId::from_parameter(corpus.len()),
            &(corpus, engine),
            |b, (corpus, engine)| {
                b.iter(|| {
                    let run = engine.solve_batch(corpus).expect("batch runs");
                    assert_eq!(run.stats.solved, 0, "everything must hit the cache");
                    black_box(run.stats)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_one_at_a_time,
    bench_solve_batch,
    bench_warm_cache
);
criterion_main!(benches);
