//! Experiment T2 — the decidable fragment: `implies_full` (terminating
//! chase decision for full TDs) versus the general semi-decision procedure.
//!
//! Shape claim: full-TD inference always terminates; its cost grows with
//! the frozen tableau's active domain but stays total, while embedded
//! inference needs budgets.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use td_bench::{fig1_td, full_td_family, join_on_supplier, two_star_tableau_goal};
use td_core::chase::ChaseBudget;
use td_core::homomorphism::MatchStrategy;
use td_core::inference::{implies, implies_full, implies_with_strategy};

const STRATEGIES: [(&str, MatchStrategy); 2] = [
    ("naive", MatchStrategy::Naive),
    ("indexed", MatchStrategy::Indexed),
];

/// `implies_full`'s terminating chase on an in-family goal (settles fast —
/// the chase reaches the goal within a round), naive versus indexed.
fn bench_full_decision(c: &mut Criterion) {
    for (name, strategy) in STRATEGIES {
        let mut group = c.benchmark_group(format!("full_td/implies_full/{name}"));
        group.sample_size(10);
        for arity in [2usize, 3, 4, 5] {
            let (schema, family) = full_td_family(arity);
            // Goal: the last family member (implied: it is in the set).
            let goal = family.last().unwrap().clone();
            group.bench_with_input(
                BenchmarkId::from_parameter(arity),
                &(schema, family, goal),
                |b, (_, family, goal)| {
                    b.iter(|| {
                        black_box(
                            implies_with_strategy(family, goal, ChaseBudget::unlimited(), strategy)
                                .unwrap(),
                        )
                    });
                },
            );
        }
        group.finish();
    }
}

/// The expensive direction: a *negative* full-TD decision, which must
/// materialize the frozen tableau's complete product closure before
/// answering. `k = 24` (a 48-row tableau closing to ~1.2k rows) is the
/// "large fixture" whose recorded speedup lives in `BENCH_chase.json`.
fn bench_two_star_decision(c: &mut Criterion) {
    for (name, strategy) in STRATEGIES {
        let mut group = c.benchmark_group(format!("full_td/decide_two_star/{name}"));
        group.sample_size(10);
        for k in [8usize, 16, 24] {
            let (schema, family) = full_td_family(3);
            let goal = two_star_tableau_goal(&schema, k);
            group.bench_with_input(
                BenchmarkId::from_parameter(k),
                &(family, goal),
                |b, (family, goal)| {
                    b.iter(|| {
                        let v =
                            implies_with_strategy(family, goal, ChaseBudget::unlimited(), strategy)
                                .unwrap();
                        assert!(v.is_not_implied());
                        black_box(v)
                    });
                },
            );
        }
        group.finish();
    }
}

fn bench_embedded_vs_full(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_td/vs_embedded");
    let join = vec![join_on_supplier()];
    let fig1 = fig1_td();
    group.bench_function("full_premises_decide_fig1", |b| {
        b.iter(|| black_box(implies_full(&join, &fig1).unwrap()));
    });
    group.bench_function("general_procedure_same_query", |b| {
        b.iter(|| black_box(implies(&join, &fig1, ChaseBudget::default()).unwrap()));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_full_decision,
    bench_two_star_decision,
    bench_embedded_vs_full
);
criterion_main!(benches);
