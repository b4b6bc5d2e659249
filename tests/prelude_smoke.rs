//! Smoke test for the `template_deps::prelude` facade: the re-exports of all
//! three crates must be reachable through the single glob import and work
//! together end-to-end on a tiny word-problem instance.

use template_deps::prelude::*;

/// Chase, reduction-pipeline, and semigroup entry points are all reachable
/// from the prelude and compose on one presentation.
#[test]
fn prelude_spans_all_three_crates() {
    // td_semigroup: build a presentation by hand (not via the parser).
    let alphabet = Alphabet::new(["A0", "A1", "0"], "A0", "0").unwrap();
    let eq1 = Equation::new(
        Word::parse("A1 A1", &alphabet).unwrap(),
        Word::parse("A0", &alphabet).unwrap(),
    );
    let eq2 = Equation::new(
        Word::parse("A1 A1", &alphabet).unwrap(),
        Word::parse("0", &alphabet).unwrap(),
    );
    let p = Presentation::new(alphabet, vec![eq1, eq2])
        .unwrap()
        .zero_saturated();

    // td_semigroup: the word problem side resolves on its own.
    let search = search_derivation(
        &p,
        &Word::parse("A0", p.alphabet()).unwrap(),
        &Word::parse("0", p.alphabet()).unwrap(),
        &SearchBudget::default(),
    );
    let derivation: &Derivation = search.derivation().expect("A0 => A1 A1 => 0");
    assert_eq!(derivation.len(), 2);

    // td_reduction: the full pipeline agrees and certifies.
    let run = Engine::new().run_full(&p).unwrap();
    let PipelineOutcome::Implied { proof, .. } = &run.outcome else {
        panic!("expected Implied, got {:?}", run.outcome);
    };
    proof.verify(&run.system).unwrap();

    // td_reduction: the generated system exposes the reduction objects.
    let system: &ReductionSystem = &run.system;
    assert!(!system.deps.is_empty());

    // td_core: run the chase over the generated dependencies directly.
    let d0: &Td = &system.d0;
    assert!(d0.is_embedded());
    let verdict = implies(
        &system.deps,
        d0,
        ChaseBudget {
            max_steps: 20_000,
            max_rows: 20_000,
            max_rounds: 200,
        },
    )
    .unwrap();
    assert!(
        verdict.is_implied(),
        "unguided chase agrees with the pipeline"
    );

    // td_core: satisfaction and instances from the prelude.
    let schema = Schema::new("R", ["A", "B"]).unwrap();
    let mut inst = Instance::new(schema.clone());
    inst.insert_values([0, 1]).unwrap();
    let trivial = TdBuilder::new(schema)
        .antecedent(["x", "y"])
        .unwrap()
        .conclusion(["x", "y"])
        .unwrap()
        .build("trivial")
        .unwrap();
    assert!(satisfies(&inst, &trivial));
}

/// The refuted side of the dichotomy is also reachable end-to-end from the
/// prelude: countermodel search, family constructors, and the verifier.
#[test]
fn prelude_covers_the_refuted_side() {
    let alphabet = Alphabet::standard(1); // one regular symbol A0, plus the zero
    let mut p = Presentation::new(alphabet, vec![]).unwrap();
    p.saturate_with_zero_equations();

    // td_semigroup: an analytic countermodel family applies.
    let g = null_semigroup(2);
    assert!(g.zero().is_some());
    assert!(has_cancellation_property(&g));

    // td_reduction: the default tier settles this on the refuted side via
    // the fast path (also a prelude export), with a replayable reason.
    let fast = Engine::new().run_full(&p).unwrap();
    assert!(fast.outcome.is_refuted(), "{:?}", fast.outcome);
    if let PipelineOutcome::FastSettled { verdict } = &fast.outcome {
        assert!(replay(&fast.system, verdict).unwrap());
    }

    // td_reduction: with the fast path off, the pipeline refutes with a
    // certified finite model.
    let opts = SolveOptions {
        fastpath: FastPath::Off,
        ..SolveOptions::default()
    };
    let run = Engine::with_config(EngineConfig {
        opts,
        ..EngineConfig::default()
    })
    .run_full(&p)
    .unwrap();
    let PipelineOutcome::Refuted { model, report } = &run.outcome else {
        panic!("zero-only instance must be refuted, got {:?}", run.outcome);
    };
    assert!(report.ok(), "{report:?}");
    assert!(verify_counter_model(&run.system, model).ok());

    // td_core: the countermodel separates D from D0 under the core checkers.
    assert!(find_violation(&model.instance, &run.system.d0).is_some());
}
