//! Differential property tests for the axiom-driven fast path.
//!
//! The prescreen ([`prescreen`]) is performance machinery: it may settle a
//! query in microseconds, but it must never *disagree* with the sequential
//! pipeline — the pure oracle that never consults the fast path. These
//! tests pit the two against each other on random word-problem instances:
//!
//! * a fast-settled verdict is on the **same side** as the oracle's
//!   certificate whenever the oracle settles;
//! * every fast-settled reason **replays** against the reduction system;
//! * fast-settled runs spend **exactly zero** chase/model-search budget
//!   (the searches never started), and the prescreen's own spend is
//!   deterministic across repeated calls.

mod common;

use common::run_mode;
use proptest::prelude::*;
use template_deps::prelude::*;
use template_deps::td_semigroup::alphabet::Alphabet;
use template_deps::td_semigroup::equation::Equation;
use template_deps::td_semigroup::presentation::Presentation;

/// Strategy: a random zero-saturated presentation over `A0`, `A1`, `0`:
/// up to three equations whose sides are words of length 1–2. The family
/// mixes derivable instances (e.g. `A0 = 0` aliases), refutable ones
/// (`x·y = 0` shapes), and everything between.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The prescreen, run directly on the reduction system, never settles
    /// on the opposite side of the sequential oracle, and every settled
    /// reason replays. Repeated calls spend identically (determinism).
    #[test]
    fn prescreen_agrees_with_the_sequential_oracle(p in arb_presentation()) {
        // Same front end as the pipeline: saturate, normalize, reduce.
        let normalized = normalize(&p.zero_saturated()).unwrap();
        let system = build_system(&normalized.presentation).unwrap();
        let budget = FastBudget::default();
        let pre = prescreen(&system, &budget).unwrap();
        let again = prescreen(&system, &budget).unwrap();
        prop_assert_eq!(pre, again, "prescreen must be deterministic");
        let Some(verdict) = pre.verdict else { return Ok(()) };
        prop_assert!(replay(&system, &verdict).unwrap(), "{verdict:?}");
        let seq = run_mode(&p, Budgets::default(), SolveMode::Sequential);
        match &seq.outcome {
            PipelineOutcome::Implied { .. } => prop_assert!(
                verdict.is_implied(),
                "oracle implies, fast path refutes: {verdict:?}"
            ),
            PipelineOutcome::Refuted { .. } => prop_assert!(
                !verdict.is_implied(),
                "oracle refutes, fast path implies: {verdict:?}"
            ),
            PipelineOutcome::FastSettled { .. } => prop_assert!(
                false,
                "the sequential oracle never consults the fast path"
            ),
            PipelineOutcome::Unknown { .. } => {
                // The fast verdict is *certain*, so an exhausted oracle is a
                // budget artifact, not a disagreement — and it cannot happen
                // on this family (tiny derivations, size-≤3 countermodels).
                prop_assert!(false, "oracle exhausted on a fast-settleable instance");
            }
        }
    }

    /// Through the pipeline: a raced solve that fast-settles reports zero
    /// chase/model-search spend, exact fast-path spend, and the same side
    /// as the sequential oracle.
    #[test]
    fn fast_settled_runs_spend_nothing_on_the_searches(p in arb_presentation()) {
        let seq = run_mode(&p, Budgets::default(), SolveMode::Sequential);
        let raced = run_mode(&p, Budgets::default(), SolveMode::Racing);
        prop_assert_eq!(
            seq.outcome.is_implied(),
            raced.outcome.is_implied(),
            "modes disagree: {:?} vs {:?}",
            seq.outcome,
            raced.outcome
        );
        prop_assert_eq!(seq.spend.fastpath_checks, 0, "the oracle never prescreens");
        if let PipelineOutcome::FastSettled { verdict } = &raced.outcome {
            prop_assert!(replay(&raced.system, verdict).unwrap());
            prop_assert_eq!(raced.spend.derivation_states, 0, "chase search ran");
            prop_assert_eq!(raced.spend.model_nodes, 0, "model search ran");
            prop_assert!(raced.spend.fastpath_checks > 0);
            prop_assert!(!raced.spend.fastpath_truncated, "settled ⇒ exact spend");
            // Both searches report truncated: they never started.
            prop_assert!(raced.spend.derivation_truncated);
            prop_assert!(raced.spend.model_truncated);
        }
    }
}
