//! Experiment T4 — the service layer's warm-cache payoff: a long-lived
//! [`Engine`] answering a duplicate-heavy request stream, cold versus
//! warm, through the same `decide` path `tdq serve` uses.
//!
//! Shape claim: a cold engine pays one racing solve per isomorphism class
//! (like `Engine::solve_batch` on a fresh engine); a warm engine pays only
//! canonicalization + a sharded cache read per request — the steady state
//! of a server that has seen the classes before. The recorded numbers
//! live in `BENCH_batch.json` under `engine/*`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use td_bench::duplicate_heavy_corpus;
use td_reduction::engine::Engine;
use td_reduction::prelude::*;

/// Cold engine: constructed per iteration, so every distinct class is
/// solved once and every repeat is a within-lifetime cache hit.
fn bench_cold_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/cold_decide");
    group.sample_size(10);
    for copies in [4usize, 12] {
        let corpus = duplicate_heavy_corpus(copies);
        group.bench_with_input(
            BenchmarkId::from_parameter(corpus.len()),
            &corpus,
            |b, corpus| {
                b.iter(|| {
                    let engine = Engine::new();
                    let mut implied = 0usize;
                    for p in corpus {
                        let d = engine.decide(p).expect("engine decides");
                        implied += usize::from(matches!(d.verdict, BatchVerdict::Implied { .. }));
                    }
                    assert_eq!(engine.stats().solved, 4, "one solve per class");
                    black_box(implied)
                });
            },
        );
    }
    group.finish();
}

/// Warm engine: pre-warmed once, then measured in steady state — every
/// request is canonicalization plus a cache hit, no solving at all.
fn bench_warm_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/warm_decide");
    group.sample_size(10);
    for copies in [4usize, 12] {
        let corpus = duplicate_heavy_corpus(copies);
        let engine = Engine::new();
        for p in &corpus {
            engine.decide(p).expect("warm-up");
        }
        group.bench_with_input(
            BenchmarkId::from_parameter(corpus.len()),
            &(corpus, engine),
            |b, (corpus, engine)| {
                b.iter(|| {
                    let solved_before = engine.stats().solved;
                    let mut cached = 0usize;
                    for p in corpus {
                        cached += usize::from(engine.decide(p).expect("warm decide").cached);
                    }
                    assert_eq!(cached, corpus.len(), "everything must hit");
                    assert_eq!(engine.stats().solved, solved_before);
                    black_box(cached)
                });
            },
        );
    }
    group.finish();
}

/// Restart warm-start: one engine solves the corpus and saves a
/// snapshot; each iteration then simulates a process restart — a *fresh*
/// engine loads the snapshot and replays the corpus, which must be
/// all-hits (`solved == 0`). Compare with `engine/cold_decide` (what a
/// restart costs without persistence) and `engine/warm_decide` (the
/// never-restarted upper bound: warm-start adds one snapshot decode +
/// cache rebuild on top of it).
fn bench_snapshot_warm_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/snapshot_warm_decide");
    group.sample_size(10);
    for copies in [4usize, 12] {
        let corpus = duplicate_heavy_corpus(copies);
        let warm = Engine::new();
        for p in &corpus {
            warm.decide(p).expect("warm-up");
        }
        let image = warm.save_snapshot();
        group.bench_with_input(
            BenchmarkId::from_parameter(corpus.len()),
            &(corpus, image),
            |b, (corpus, image)| {
                b.iter(|| {
                    let engine = Engine::new();
                    let stats = engine.load_snapshot(image).expect("snapshot loads");
                    assert_eq!(stats.keys_skipped_version, 0);
                    let mut cached = 0usize;
                    for p in corpus {
                        cached += usize::from(engine.decide(p).expect("warm decide").cached);
                    }
                    assert_eq!(cached, corpus.len(), "restart replay is all-hits");
                    assert_eq!(engine.stats().solved, 0, "no solver run after load");
                    black_box(cached)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cold_engine,
    bench_warm_engine,
    bench_snapshot_warm_engine
);
criterion_main!(benches);
