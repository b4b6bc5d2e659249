//! End-to-end integration: the Main Theorem's two sides, exercised across
//! all three crates, with every certificate independently verified.

mod common;

use common::run_with;
use template_deps::prelude::*;
use template_deps::td_core::inference;
use template_deps::td_reduction::verify::structural_report;
use template_deps::td_semigroup::parser::parse as parse_presentation;

/// Instances known to be derivable (goal `A₀ = 0` follows) with the routes
/// their names describe.
fn derivable_instances() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "two-step",
            "alphabet A0 A1 0\neq A1 A1 = A0\neq A1 A1 = 0\nzerosat\n",
        ),
        ("direct-identify", "alphabet A0 0\neq A0 = 0\nzerosat\n"),
        (
            "relabel-then-product",
            "alphabet A0 B 0\neq A0 = B\neq B B = B\neq B B = 0\nzerosat\n",
        ),
        (
            "through-zero-absorption",
            // A0 => B C; C => 0 …then B 0 => 0.
            "alphabet A0 B C 0\neq B C = A0\neq C = 0\nzerosat\n",
        ),
    ]
}

/// Instances known to be refutable by a finite cancellation semigroup.
fn refutable_instances() -> Vec<(&'static str, &'static str)> {
    vec![
        ("zero-only-1", "alphabet A0 0\nzerosat\n"),
        ("zero-only-2", "alphabet A0 A1 0\nzerosat\n"),
        (
            "square-to-other",
            "alphabet A0 A1 0\neq A0 A0 = A1\nzerosat\n",
        ),
        ("nilpotent-ish", "alphabet A0 A1 0\neq A1 A1 = 0\nzerosat\n"),
    ]
}

/// Solves with the fast path disabled, so the battery always exercises the
/// full certificate machinery regardless of which instances the prescreen
/// could settle.
fn solve_full(p: &Presentation) -> PipelineRun {
    let opts = SolveOptions {
        fastpath: FastPath::Off,
        ..SolveOptions::default()
    };
    run_with(p, Budgets::default(), opts)
}

#[test]
fn derivable_battery() {
    for (name, text) in derivable_instances() {
        let p = parse_presentation(text).unwrap();
        // The default tier must settle the right side; when the fast path
        // takes it, the reason must replay.
        let fast = Engine::new().run_full(&p).unwrap();
        assert!(fast.outcome.is_implied(), "{name}: {:?}", fast.outcome);
        if let PipelineOutcome::FastSettled { verdict } = &fast.outcome {
            assert!(replay(&fast.system, verdict).unwrap(), "{name}");
        }
        // Full certificates, with the fast path out of the way.
        let run = solve_full(&p);
        match &run.outcome {
            PipelineOutcome::Implied { derivation, proof } => {
                // The derivation replays in the normalized presentation.
                let g = run.normalized.presentation.goal();
                derivation
                    .verify(&run.normalized.presentation, &g.lhs, &g.rhs)
                    .unwrap();
                // The chase proof replays against the dependency set.
                proof.verify(&run.system).unwrap();
            }
            other => panic!("{name}: expected Implied, got {other:?}"),
        }
        // Structural claims hold on every instance.
        assert!(structural_report(&run.system).ok(), "{name}");
    }
}

#[test]
fn refutable_battery() {
    for (name, text) in refutable_instances() {
        let p = parse_presentation(text).unwrap();
        // Default tier: correct side, replayable reason when fast-settled.
        let fast = Engine::new().run_full(&p).unwrap();
        assert!(fast.outcome.is_refuted(), "{name}: {:?}", fast.outcome);
        if let PipelineOutcome::FastSettled { verdict } = &fast.outcome {
            assert!(replay(&fast.system, verdict).unwrap(), "{name}");
        }
        // Full part (B) certificate, with the fast path out of the way.
        let run = solve_full(&p);
        match &run.outcome {
            PipelineOutcome::Refuted { model, report } => {
                assert!(report.ok(), "{name}: {report:?}");
                // Re-verify from scratch with the core-layer checkers only.
                assert!(
                    td_core::satisfaction::satisfies_all(&model.instance, &run.system.deps),
                    "{name}: some dependency fails"
                );
                assert!(
                    !td_core::satisfaction::satisfies(&model.instance, &run.system.d0),
                    "{name}: D0 unexpectedly holds"
                );
            }
            other => panic!("{name}: expected Refuted, got {other:?}"),
        }
    }
}

/// The Main Theorem's statement, verbatim, through the generic inference
/// API: on derivable instances the (unguided, fair) chase proves `D ⊨ D₀`.
#[test]
fn unguided_inference_agrees_on_derivable_instances() {
    for (name, text) in derivable_instances() {
        let p = parse_presentation(text).unwrap();
        let run = Engine::new().run_full(&p).unwrap();
        let budget = ChaseBudget {
            max_steps: 20_000,
            max_rows: 20_000,
            max_rounds: 200,
        };
        let verdict = inference::implies(&run.system.deps, &run.system.d0, budget).unwrap();
        match verdict {
            InferenceVerdict::Implied(proof) => {
                let (frozen, _, goal) = inference::freeze(&run.system.d0).unwrap();
                proof
                    .verify(&frozen, &run.system.deps, Some(&goal))
                    .unwrap();
            }
            other => panic!("{name}: unguided chase should prove D0, got {other:?}"),
        }
    }
}

/// On refutable instances the unguided chase must never claim `Implied`
/// (soundness); on the zero-only instances it even terminates, yielding a
/// finite countermodel on its own.
#[test]
fn unguided_inference_sound_on_refutable_instances() {
    for (name, text) in refutable_instances() {
        let p = parse_presentation(text).unwrap();
        let run = Engine::new().run_full(&p).unwrap();
        let budget = ChaseBudget {
            max_steps: 2_000,
            max_rows: 2_000,
            max_rounds: 50,
        };
        let verdict = inference::implies(&run.system.deps, &run.system.d0, budget).unwrap();
        assert!(!verdict.is_implied(), "{name}: soundness violated");
        if let InferenceVerdict::NotImplied(model) = verdict {
            assert!(td_core::satisfaction::satisfies_all(
                &model,
                &run.system.deps
            ));
            assert!(!td_core::satisfaction::satisfies(&model, &run.system.d0));
        }
    }
}

/// Dropping any single D1 dependency of an equation used by the derivation
/// must not be *unsound* — the remaining set still implies whatever it
/// implies — but the full set is needed for the guided proof to replay.
#[test]
fn proofs_fail_against_wrong_dependency_sets() {
    let p = parse_presentation("alphabet A0 A1 0\neq A1 A1 = A0\neq A1 A1 = 0\nzerosat\n").unwrap();
    let run = Engine::new().run_full(&p).unwrap();
    let PipelineOutcome::Implied { proof, .. } = &run.outcome else {
        panic!("derivable");
    };
    // Replaying against a *truncated* dependency list puts the proof's
    // dependency indices out of range: the verifier must reject rather than
    // misattribute steps.
    let truncated = &run.system.deps[..1];
    assert!(proof
        .proof
        .verify(&proof.frozen, truncated, Some(&proof.goal))
        .is_err());
    // Replaying against a *different* reduction system (same indices,
    // different dependencies) must also be rejected.
    let other = Engine::new()
        .run_full(&parse_presentation("alphabet A0 A1 0\nzerosat\n").unwrap())
        .unwrap();
    assert!(proof
        .proof
        .verify(&proof.frozen, &other.system.deps, Some(&proof.goal))
        .is_err());
}

/// The two halves never overlap: no instance in the battery is both
/// implied and refuted. (Consistency of the harness itself.)
#[test]
fn verdicts_are_exclusive() {
    for (_, text) in derivable_instances()
        .into_iter()
        .chain(refutable_instances())
    {
        let p = parse_presentation(text).unwrap();
        let run = Engine::new().run_full(&p).unwrap();
        let implied = run.outcome.is_implied();
        let refuted = run.outcome.is_refuted();
        assert!(implied ^ refuted, "every battery instance must resolve");
    }
}

/// Scaling families from the bench crate resolve correctly and their
/// guided proofs have the predicted sizes.
#[test]
fn scaling_families_resolve() {
    for k in 1..=5 {
        let p = td_bench::relabel_chain(k);
        let run = Engine::new().run_full(&p).unwrap();
        let PipelineOutcome::Implied { derivation, proof } = &run.outcome else {
            panic!("relabel_chain({k}) must be implied");
        };
        assert_eq!(derivation.len(), k + 1);
        // Each relabeling step fires exactly one dependency.
        assert_eq!(proof.proof.len(), k + 1);
    }
    for k in 1..=4 {
        let p = td_bench::product_chain(k);
        let mut budgets = Budgets::default();
        budgets.derivation.max_word_len = k + 2;
        let run = run_with(&p, budgets, SolveOptions::default());
        let PipelineOutcome::Implied { derivation, proof } = &run.outcome else {
            panic!("product_chain({k}) must be implied");
        };
        assert_eq!(derivation.len(), 2 * k);
        // k expansions cost 3 firings each; k contractions cost 1 each.
        assert_eq!(proof.proof.len(), 3 * k + k);
    }
}

/// Tightness of the construction: dropping the one dependency family that
/// can create the *first* 0-triangle (D1 of the equation `A1 A1 = 0`)
/// makes `D₀` underivable — every other producer of 0-triangles needs an
/// existing one in its antecedents.
#[test]
fn reduction_is_tight_without_the_contraction_rule() {
    let p = parse_presentation("alphabet A0 A1 0\neq A1 A1 = A0\neq A1 A1 = 0\nzerosat\n").unwrap();
    let run = Engine::new().run_full(&p).unwrap();
    assert!(run.outcome.is_implied(), "sanity: the full set implies D0");
    // Remove D1(A1 A1 = 0) — rule index 1, dependency k=1.
    let cut = run.system.dep_index(1, 1);
    let weakened: Vec<Td> = run
        .system
        .deps
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != cut)
        .map(|(_, t)| t.clone())
        .collect();
    let budget = ChaseBudget {
        max_steps: 5_000,
        max_rows: 5_000,
        max_rounds: 60,
    };
    let verdict = inference::implies(&weakened, &run.system.d0, budget).unwrap();
    assert!(
        !verdict.is_implied(),
        "without the contraction dependency the goal must be unreachable"
    );
}

/// Minimizing the unguided chase proof brings it down to (or near) the
/// guided proof's size — the exploratory firings were inessential.
#[test]
fn unguided_proofs_minimize_toward_guided() {
    use template_deps::td_reduction::part_a::{prove_part_a, prove_unguided};
    use template_deps::td_semigroup::derivation::{search_goal_derivation, SearchBudget};
    for k in [2usize, 3] {
        let p = td_bench::product_chain(k);
        let system = build_system(&p).unwrap();
        let derivation = search_goal_derivation(
            &p,
            &SearchBudget {
                max_word_len: k + 2,
                max_states: 500_000,
            },
        )
        .derivation()
        .unwrap()
        .clone();
        let guided = prove_part_a(&system, &p, &derivation).unwrap();
        let budget = ChaseBudget {
            max_steps: 100_000,
            max_rows: 100_000,
            max_rounds: 1_000,
        };
        let (_, _, _, unguided) = prove_unguided(&system, budget).unwrap();
        let unguided = unguided.expect("derivable instance");
        let minimized = unguided
            .proof
            .minimized(&unguided.frozen, &system.deps, Some(&unguided.goal))
            .unwrap();
        assert!(minimized.len() <= unguided.proof.len());
        // 1-minimality gets at least into the same ballpark as the guided
        // proof (which fires 4k = derivation-proportional steps).
        assert!(
            minimized.len() <= guided.proof.len() + 2,
            "k={k}: minimized {} vs guided {}",
            minimized.len(),
            guided.proof.len()
        );
    }
}

/// Attribute growth: the reduction's schema really grows as 2n+2 while the
/// antecedent bound stays at five (the complementarity the paper points
/// out versus Vardi's construction).
#[test]
fn attribute_growth_with_bounded_antecedents() {
    for n_regular in 1..=6 {
        let p = td_bench::refutable_with_symbols(n_regular);
        let system = build_system(&p).unwrap();
        let r = structural_report(&system);
        assert_eq!(r.n_attributes, 2 * (n_regular + 1) + 2);
        assert_eq!(r.max_antecedents, 5);
        assert!(r.ok());
    }
}
