//! Experiment T5 — the word-problem substrate: BFS derivation search,
//! bounded congruence closure, and the finite-model finder.
//!
//! Shape claims: BFS cost grows with the word-length window and equation
//! count; the bounded quotient is geometric in its length bound; the model
//! finder is exponential in the semigroup order (the reason analytic
//! families matter). The `served` group times the search exactly as the
//! engine runs it: on normalized presentations under the default budget.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use td_bench::{product_chain, refutable_with_symbols, relabel_chain};
use td_core::budget::Cancellation;
use td_reduction::pipeline::Budgets;
use td_semigroup::alphabet::Alphabet;
use td_semigroup::derivation::{
    search_goal_derivation, search_goal_derivation_tracked, SearchBudget,
};
use td_semigroup::equation::Equation;
use td_semigroup::model_search::{find_counter_model, ModelSearchOptions, ModelSearchResult};
use td_semigroup::normalize::normalize;
use td_semigroup::presentation::Presentation;
use td_semigroup::quotient::BoundedQuotient;

fn bench_derivation_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("semigroup/bfs/relabel_chain");
    for k in [4usize, 16, 64] {
        let p = relabel_chain(k);
        group.bench_with_input(BenchmarkId::from_parameter(k), &p, |b, p| {
            b.iter(|| {
                let r = search_goal_derivation(p, &SearchBudget::default());
                black_box(r.derivation().is_some())
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("semigroup/bfs/product_chain");
    group.sample_size(10);
    for k in [2usize, 4, 6] {
        let p = product_chain(k);
        let budget = SearchBudget {
            max_word_len: k + 2,
            max_states: 1_000_000,
        };
        group.bench_with_input(BenchmarkId::from_parameter(k), &p, |b, p| {
            b.iter(|| {
                let r = search_goal_derivation(p, &budget);
                black_box(r.derivation().is_some())
            });
        });
    }
    group.finish();
}

/// The running example `A1·A1 = A0, A1·A1 = 0`, zero-saturated.
fn running_example() -> Presentation {
    let alphabet = Alphabet::standard(2);
    let eqs = ["A1 A1 = A0", "A1 A1 = 0"]
        .iter()
        .map(|e| Equation::parse(e, &alphabet).expect("valid equation"))
        .collect();
    let mut p = Presentation::new(alphabet, eqs).expect("symbols in range");
    p.saturate_with_zero_equations();
    p
}

/// The derivation search as the engine serves it: the normalized
/// `product_chain(6)` (the benchmark's heaviest prewarm search) and the
/// running example, under the engine's default budget.
fn bench_served_search(c: &mut Criterion) {
    let budget = Budgets::default().derivation;
    let never = Cancellation::new();
    let mut group = c.benchmark_group("semigroup/bfs/served");
    group.sample_size(10);
    for (name, p) in [
        ("product_chain_6", product_chain(6)),
        ("running_example", running_example()),
    ] {
        let np = normalize(&p.zero_saturated())
            .expect("normalizable")
            .presentation;
        group.bench_with_input(BenchmarkId::from_parameter(name), &np, |b, np| {
            b.iter(|| black_box(search_goal_derivation_tracked(np, &budget, &never).states));
        });
    }
    group.finish();
}

fn bench_quotient(c: &mut Criterion) {
    let mut group = c.benchmark_group("semigroup/quotient");
    let p = relabel_chain(3);
    for len in [2usize, 3, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(len), &p, |b, p| {
            b.iter(|| {
                let mut q = BoundedQuotient::build(p, len);
                black_box(q.goal_identified(p))
            });
        });
    }
    group.finish();
}

fn bench_model_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("semigroup/model_search");
    group.sample_size(10);
    for max_size in [2usize, 3, 4] {
        let p = refutable_with_symbols(1);
        let opts = ModelSearchOptions {
            // Force the search to work through the whole size, skipping the
            // analytic shortcut: demand a model of exactly this order.
            min_size: max_size,
            max_size,
            max_nodes: 50_000_000,
        };
        group.bench_with_input(BenchmarkId::from_parameter(max_size), &(), |b, _| {
            b.iter(|| {
                let r = find_counter_model(&p, &opts).unwrap();
                black_box(matches!(r, ModelSearchResult::Found(..)))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_derivation_search,
    bench_served_search,
    bench_quotient,
    bench_model_search
);
criterion_main!(benches);
