//! Differential property tests for the indexed chase fast path.
//!
//! The indexed homomorphism planner ([`MatchStrategy::Indexed`]) and the
//! semi-naive chase engine are performance machinery; the naive matcher and
//! the sequential pipeline are kept precisely so these tests can pit the
//! optimized paths against the simple oracles on random inputs:
//!
//! * indexed and naive matching enumerate **identical trigger sets**;
//! * restricted-chase implication verdicts **never conflict** between the
//!   two strategies (`Implied` under one and `NotImplied` under the other
//!   would be a soundness bug, not a budget artifact);
//! * the sequential and raced pipelines return the **same verdict** (and
//!   the same spent budgets when both sides exhaust, since a cancellation
//!   can only happen after a certificate was found).

mod common;

use common::run_mode;
use proptest::prelude::*;
use template_deps::prelude::*;
use template_deps::td_core::homomorphism::{match_all_with, MatchStrategy};
use template_deps::td_core::ids::{AttrId, Var};
use template_deps::td_core::inference::{implies_with_strategy, InferenceVerdict};
use template_deps::td_core::td::TdRow;
use template_deps::td_semigroup::alphabet::Alphabet;
use template_deps::td_semigroup::derivation::SearchBudget;
use template_deps::td_semigroup::equation::Equation;
use template_deps::td_semigroup::model_search::ModelSearchOptions;
use template_deps::td_semigroup::presentation::Presentation;

fn schema(arity: usize) -> Schema {
    Schema::new("R", (0..arity).map(|i| format!("C{i}"))).unwrap()
}

/// Strategy: a random typed TD over `arity` columns (1–3 antecedent rows,
/// small per-column variable pools, existentials with probability 1/4).
fn arb_td(arity: usize) -> impl Strategy<Value = Td> {
    let rows = 1..=3usize;
    let vars = 1..=3u32;
    (
        rows,
        vars,
        proptest::collection::vec(0..100u32, arity * 4 + arity),
    )
        .prop_map(move |(n_rows, n_vars, picks)| {
            let schema = schema(arity);
            let mut it = picks.into_iter();
            let antecedents: Vec<TdRow> = (0..n_rows)
                .map(|_| TdRow::new((0..arity).map(|_| Var::new(it.next().unwrap() % n_vars))))
                .collect();
            let conclusion = TdRow::new((0..arity).map(|c| {
                let pick = it.next().unwrap();
                if pick % 4 == 0 {
                    Var::new(n_vars + 7) // fresh: existential
                } else {
                    antecedents[(pick as usize) % n_rows].get(AttrId::from(c))
                }
            }));
            Td::new(schema, antecedents, conclusion, "random").unwrap()
        })
}

/// Strategy: a random instance over `arity` columns (0–8 rows, values 0–3).
fn arb_instance(arity: usize) -> impl Strategy<Value = Instance> {
    proptest::collection::vec(proptest::collection::vec(0..4u32, arity), 0..=8).prop_map(
        move |rows| {
            let mut inst = Instance::new(schema(arity));
            for row in rows {
                inst.insert_values(row).unwrap();
            }
            inst
        },
    )
}

/// Strategy: a random zero-saturated presentation over `A0`, `A1`, `0`:
/// up to three equations whose sides are words of length 1–2.
fn arb_presentation() -> impl Strategy<Value = Presentation> {
    proptest::collection::vec((0..7u32, 0..3u32), 0..=3).prop_map(|eqs| {
        let alphabet = Alphabet::standard(2);
        const WORDS: [&str; 7] = ["A0", "A1", "0", "A1 A1", "A0 A1", "A1 A0", "A1 0"];
        const SIDES: [&str; 3] = ["A0", "A1", "0"];
        let equations: Vec<Equation> = eqs
            .into_iter()
            .map(|(l, r)| {
                let text = format!("{} = {}", WORDS[l as usize], SIDES[r as usize]);
                Equation::parse(&text, &alphabet).unwrap()
            })
            .collect();
        let mut p = Presentation::new(alphabet, equations).unwrap();
        p.saturate_with_zero_equations();
        p
    })
}

/// Sorted, deduplicated dump of a match set for set comparison.
fn dump(ms: &[template_deps::td_core::homomorphism::Binding]) -> Vec<Vec<(AttrId, Var, Value)>> {
    let mut v: Vec<_> = ms.iter().map(|b| b.to_sorted_vec()).collect();
    v.sort();
    v
}

/// Small budgets keep the random pipelines fast while still letting most
/// cases settle.
fn small_budgets() -> Budgets {
    Budgets {
        derivation: SearchBudget {
            max_word_len: 8,
            max_states: 20_000,
        },
        model: ModelSearchOptions {
            min_size: 2,
            max_size: 3,
            max_nodes: 200_000,
        },
        chase: ChaseBudget::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole's safety net: on random (TD, instance) pairs, the
    /// indexed planner and the naive scan enumerate exactly the same
    /// multiset of antecedent matches (the chase's trigger set).
    #[test]
    fn trigger_sets_identical_across_strategies(
        td in arb_td(3),
        inst in arb_instance(3),
    ) {
        let seed = template_deps::td_core::homomorphism::Binding::new(td.arity());
        let naive =
            match_all_with(MatchStrategy::Naive, td.antecedents(), &inst, &seed, usize::MAX);
        let indexed =
            match_all_with(MatchStrategy::Indexed, td.antecedents(), &inst, &seed, usize::MAX);
        prop_assert_eq!(naive.len(), indexed.len());
        prop_assert_eq!(dump(&naive), dump(&indexed));
    }

    /// Conclusion-witness checks also ride on the matcher: satisfaction of
    /// a random TD must not depend on the strategy (checked through the
    /// public API, which uses the indexed default, against a hand-rolled
    /// naive violation scan).
    #[test]
    fn satisfaction_agrees_with_naive_violation_scan(
        td in arb_td(2),
        inst in arb_instance(2),
    ) {
        use std::ops::ControlFlow;
        use template_deps::td_core::homomorphism::{for_each_match_with, match_first, Binding};
        let mut naive_violation = false;
        for_each_match_with(
            MatchStrategy::Naive,
            td.antecedents(),
            &inst,
            &Binding::new(td.arity()),
            |b| {
                let witnessed =
                    match_first(std::slice::from_ref(td.conclusion()), &inst, b).is_some();
                if witnessed {
                    ControlFlow::Continue(())
                } else {
                    naive_violation = true;
                    ControlFlow::Break(())
                }
            },
        );
        prop_assert_eq!(satisfies(&inst, &td), !naive_violation);
    }

    /// Restricted-chase implication verdicts never conflict between the
    /// strategies. Budget-bounded runs may disagree on *Unknown* at the
    /// margin (firing order differs), but a certified `Implied` on one side
    /// and a certified `NotImplied` on the other is impossible if both
    /// matchers are sound and complete.
    #[test]
    fn implication_verdicts_agree_across_strategies(
        premises in proptest::collection::vec(arb_td(2), 1..=2),
        goal in arb_td(2),
    ) {
        let naive =
            implies_with_strategy(&premises, &goal, ChaseBudget::small(), MatchStrategy::Naive)
                .unwrap();
        let indexed =
            implies_with_strategy(&premises, &goal, ChaseBudget::small(), MatchStrategy::Indexed)
                .unwrap();
        let conflict = matches!(
            (&naive, &indexed),
            (InferenceVerdict::Implied(_), InferenceVerdict::NotImplied(_))
                | (InferenceVerdict::NotImplied(_), InferenceVerdict::Implied(_))
        );
        prop_assert!(
            !conflict,
            "strategies certify opposite verdicts: naive {:?} vs indexed {:?}",
            naive,
            indexed
        );
        // When both settle, the verdict kind must be identical.
        if !naive.is_unknown() && !indexed.is_unknown() {
            prop_assert_eq!(naive.is_implied(), indexed.is_implied());
        }
    }

    /// The raced pipeline returns the same verdict as the sequential one on
    /// random word-problem instances — and identical spent budgets when
    /// both sides exhaust (no certificate means no cancellation).
    #[test]
    fn sequential_and_raced_pipelines_agree(p in arb_presentation()) {
        let budgets = small_budgets();
        let seq = run_mode(&p, budgets, SolveMode::Sequential);
        let raced = run_mode(&p, budgets, SolveMode::Racing);
        match (&seq.outcome, &raced.outcome) {
            // The raced side may fast-settle (`FastSettled`) where the
            // sequential oracle produced a full certificate — same verdict,
            // cheaper evidence. `is_implied`/`is_refuted` cover both.
            (s, r) if s.is_implied() && r.is_implied() => {}
            (s, r) if s.is_refuted() && r.is_refuted() => {}
            (
                PipelineOutcome::Unknown {
                    derivation_states: ds,
                    model_nodes: mn,
                },
                PipelineOutcome::Unknown {
                    derivation_states: dr,
                    model_nodes: mr,
                },
            ) => {
                prop_assert_eq!(ds, dr);
                prop_assert_eq!(mn, mr);
            }
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "modes disagree: sequential {a:?} vs raced {b:?}"
                )));
            }
        }
    }
}
