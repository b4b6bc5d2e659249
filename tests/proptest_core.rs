//! Property-based tests for the database layer: diagrams, normalization,
//! satisfaction across views, chase soundness, inference coherence.

use proptest::prelude::*;
use template_deps::prelude::*;
use template_deps::td_core::countermodel::{search_countermodel, SearchOptions, SearchOutcome};
use template_deps::td_core::eq_instance::EqInstance;
use template_deps::td_core::ids::{AttrId, Var};
use template_deps::td_core::inference;
use template_deps::td_core::satisfaction;
use template_deps::td_core::td::TdRow;
use template_deps::td_core::union_find::UnionFind;

/// Strategy: a schema of `arity` columns named C0, C1, ….
fn schema(arity: usize) -> Schema {
    Schema::new("R", (0..arity).map(|i| format!("C{i}"))).unwrap()
}

/// Strategy: a random typed TD over `arity` columns.
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
            // Conclusion: per column, either an antecedent's var or fresh.
            let conclusion = TdRow::new((0..arity).map(|c| {
                let pick = it.next().unwrap();
                if pick % 4 == 0 {
                    Var::new(n_vars + 7) // fresh => existential
                } else {
                    antecedents[(pick as usize) % n_rows].get(AttrId::from(c))
                }
            }));
            Td::new(schema, antecedents, conclusion, "random").unwrap()
        })
}

/// Strategy: a random instance over `arity` columns.
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

/// Strategy: a random diagram — 1–5 columns, 2–7 nodes, any conclusion
/// node, and up to 24 random edges (self-loops dropped).
fn arb_diagram() -> impl Strategy<Value = Diagram> {
    (1..=5usize, 2..=7usize).prop_flat_map(|(arity, nodes)| {
        (
            0..nodes,
            proptest::collection::vec((0..nodes, 0..nodes, 0..arity), 0..=24),
        )
            .prop_map(move |(conclusion, edges)| {
                let mut d = Diagram::new(schema(arity), nodes, conclusion).unwrap();
                for (a, b, c) in edges {
                    if a != b {
                        d.add_edge(a, b, AttrId::from(c)).unwrap();
                    }
                }
                d
            })
    })
}

/// The oracle for [`Diagram::to_td`]: the partition-based labelling — one
/// union–find per column over every node, then first-appearance labels
/// per column, antecedents in node order and the conclusion last.
fn partition_to_td(d: &Diagram, name: &str) -> Td {
    let arity = d.schema().arity();
    let mut parts: Vec<UnionFind> = (0..arity).map(|_| UnionFind::new(d.node_count())).collect();
    for (a, b, attr) in d.edges() {
        parts[attr.index()].union(a, b);
    }
    let labels: Vec<Vec<u32>> = parts.iter().map(UnionFind::dense_labels).collect();
    let row = |node: usize| TdRow::new((0..arity).map(|c| Var::new(labels[c][node])));
    let antecedents = (0..d.node_count())
        .filter(|&n| n != d.conclusion_node())
        .map(row)
        .collect();
    Td::new(
        d.schema().clone(),
        antecedents,
        row(d.conclusion_node()),
        name,
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The one-pass `to_td` builds exactly the partition oracle's TD:
    /// same rows, same variable numbers, same schema and name.
    #[test]
    fn diagram_to_td_matches_partition_oracle(d in arb_diagram()) {
        prop_assert_eq!(d.to_td("d").unwrap(), partition_to_td(&d, "d"));
        let closed = d.closure();
        prop_assert_eq!(closed.to_td("c").unwrap(), partition_to_td(&closed, "c"));
    }

    /// Diagram round-trip: a TD survives `from_td → to_td` up to renaming.
    #[test]
    fn diagram_roundtrip(td in arb_td(3)) {
        let back = Diagram::from_td(&td).to_td("back").unwrap();
        prop_assert!(td.eq_up_to_renaming(&back));
        prop_assert_eq!(td.is_full(), back.is_full());
        prop_assert_eq!(td.is_trivial(), back.is_trivial());
        prop_assert_eq!(td.existential_columns(), back.existential_columns());
    }

    /// Transitive closure of a diagram does not change its dependency.
    #[test]
    fn diagram_closure_stable(td in arb_td(3)) {
        let d = Diagram::from_td(&td);
        let closed = d.closure();
        let a = d.to_td("a").unwrap();
        let b = closed.to_td("b").unwrap();
        prop_assert!(a.eq_up_to_renaming(&b));
        // Closure is idempotent.
        prop_assert_eq!(closed.closure(), closed);
    }

    /// Variable normalization is idempotent and preserves shape.
    #[test]
    fn normalization_idempotent(td in arb_td(4)) {
        let n1 = td.normalized();
        let n2 = n1.normalized();
        prop_assert_eq!(&n1, &n2);
        prop_assert!(td.eq_up_to_renaming(&n1));
    }

    /// Satisfaction agrees between the tuple view and the partition view.
    #[test]
    fn satisfaction_agrees_across_views(td in arb_td(3), inst in arb_instance(3)) {
        let eq = EqInstance::from_instance(&inst);
        prop_assert_eq!(
            satisfaction::satisfies(&inst, &td),
            satisfaction::eq_satisfies(&eq, &td)
        );
    }

    /// Trivial TDs hold in every instance.
    #[test]
    fn trivial_tds_always_hold(td in arb_td(3), inst in arb_instance(3)) {
        if td.is_trivial() {
            prop_assert!(satisfaction::satisfies(&inst, &td));
        }
    }

    /// The partition view round-trips losslessly through the tuple view.
    #[test]
    fn eq_instance_roundtrip(inst in arb_instance(3)) {
        let eq = EqInstance::from_instance(&inst);
        let back = eq.to_instance();
        let eq2 = EqInstance::from_instance(&back);
        prop_assert_eq!(eq.len(), eq2.len());
        for c in (0..3usize).map(AttrId::from) {
            for i in 0..eq.len() {
                for j in 0..eq.len() {
                    let (ri, rj) = (i.into(), j.into());
                    prop_assert_eq!(eq.same(c, ri, rj), eq2.same(c, ri, rj));
                }
            }
        }
    }

    /// A terminated restricted chase yields a model of its dependencies,
    /// and its proof replays.
    #[test]
    fn chase_soundness(tds in proptest::collection::vec(arb_td(3), 1..3),
                       inst in arb_instance(3)) {
        let budget = ChaseBudget { max_steps: 200, max_rows: 300, max_rounds: 20 };
        let mut engine =
            ChaseEngine::new(&tds, inst.clone(), ChasePolicy::Restricted, budget).unwrap();
        let outcome = engine.run(None);
        let (state, proof) = engine.into_parts();
        if outcome == ChaseOutcome::Terminated {
            for td in &tds {
                prop_assert!(satisfaction::satisfies(&state, td), "model property");
            }
        }
        // Whatever happened, the proof log replays exactly.
        let replayed = proof.verify(&inst, &tds, None).unwrap();
        prop_assert_eq!(replayed, state);
    }

    /// Every dependency implies itself, with a verifiable proof.
    #[test]
    fn self_implication(td in arb_td(3)) {
        match inference::implies(std::slice::from_ref(&td), &td, ChaseBudget::default()).unwrap() {
            InferenceVerdict::Implied(proof) => {
                let (frozen, _, goal) = inference::freeze(&td).unwrap();
                proof.verify(&frozen, std::slice::from_ref(&td), Some(&goal)).unwrap();
            }
            other => prop_assert!(false, "expected Implied, got {other:?}"),
        }
    }

    /// Inference coherence: `NotImplied` countermodels really are
    /// countermodels; `Implied` proofs really replay.
    #[test]
    fn inference_verdicts_are_certified(
        premise in arb_td(3),
        goal in arb_td(3),
    ) {
        let budget = ChaseBudget { max_steps: 300, max_rows: 400, max_rounds: 12 };
        let d = vec![premise];
        match inference::implies(&d, &goal, budget).unwrap() {
            InferenceVerdict::Implied(proof) => {
                let (frozen, _, g) = inference::freeze(&goal).unwrap();
                proof.verify(&frozen, &d, Some(&g)).unwrap();
            }
            InferenceVerdict::NotImplied(model) => {
                prop_assert!(satisfaction::satisfies_all(&model, &d));
                prop_assert!(!satisfaction::satisfies(&model, &goal));
            }
            InferenceVerdict::Unknown(_) => {}
        }
    }

    /// Full dependencies always resolve (never Unknown), and the decision
    /// agrees with the general procedure.
    #[test]
    fn full_td_decision_total(arity in 2..4usize, seed in 0..500u64) {
        let (schema, family) = td_bench::full_td_family(arity);
        let goal = td_bench::random_td(&schema, 2, 2, 20, seed, "goal");
        let decided = inference::implies_full(&family, &goal).unwrap();
        match inference::implies(&family, &goal, ChaseBudget::unlimited()).unwrap() {
            InferenceVerdict::Implied(_) => prop_assert!(decided),
            InferenceVerdict::NotImplied(_) => prop_assert!(!decided),
            InferenceVerdict::Unknown(_) => prop_assert!(false, "full TDs terminate"),
        }
    }

    /// The bounded countermodel search never returns bogus models.
    #[test]
    fn countermodel_search_certified(premise in arb_td(2), goal in arb_td(2)) {
        let opts = SearchOptions { max_rows: 3, max_values_per_column: 3, max_candidates: 50_000 };
        let d = vec![premise];
        if let SearchOutcome::Found(model) = search_countermodel(&d, &goal, &opts) {
            prop_assert!(satisfaction::satisfies_all(&model, &d));
            prop_assert!(!satisfaction::satisfies(&model, &goal));
        }
    }

    /// TDs are preserved under direct products: if both components model
    /// the dependency, so does the product (the Horn-preservation theorem,
    /// exercised on random data).
    #[test]
    fn tds_preserved_under_products(
        td in arb_td(3),
        m in arb_instance(3),
        n in arb_instance(3),
    ) {
        use template_deps::td_core::product::direct_product;
        if m.is_empty() || n.is_empty() {
            return Ok(());
        }
        if satisfaction::satisfies(&m, &td) && satisfaction::satisfies(&n, &td) {
            let (p, _) = direct_product(&m, &n).unwrap();
            prop_assert!(
                satisfaction::satisfies(&p, &td),
                "product must remain a model"
            );
        }
    }

    /// Every canonical weakening of a random dependency is implied by it
    /// (soundness of the axioms module, cross-validated by the chase).
    #[test]
    fn weakenings_sound_on_random_tds(td in arb_td(3)) {
        use template_deps::td_core::axioms::{apply, canonical_weakenings};
        for w in canonical_weakenings(&td) {
            let weaker = apply(&td, &w).unwrap();
            let verdict = inference::implies(
                std::slice::from_ref(&td),
                &weaker,
                ChaseBudget::default(),
            )
            .unwrap();
            prop_assert!(verdict.is_implied(), "weakening {w:?} not implied");
        }
    }

    /// Subsumption is sound w.r.t. the chase on random pairs.
    #[test]
    fn subsumption_sound_on_random_pairs(a in arb_td(3), b in arb_td(3)) {
        use template_deps::td_core::axioms::subsumes;
        if subsumes(&a, &b).unwrap() {
            let verdict = inference::implies(
                std::slice::from_ref(&a),
                &b,
                ChaseBudget::default(),
            )
            .unwrap();
            prop_assert!(verdict.is_implied());
        }
    }

    /// Weak acyclicity guarantees termination: whenever the checker says
    /// yes, the restricted chase terminates within a generous budget.
    #[test]
    fn weak_acyclicity_guarantees_termination(
        tds in proptest::collection::vec(arb_td(3), 1..3),
        inst in arb_instance(3),
    ) {
        if td_core::chase::weakly_acyclic(&tds) && inst.len() <= 4 {
            let budget = ChaseBudget { max_steps: 100_000, max_rows: 100_000, max_rounds: 10_000 };
            let mut engine =
                ChaseEngine::new(&tds, inst, ChasePolicy::Restricted, budget).unwrap();
            prop_assert_eq!(engine.run(None), ChaseOutcome::Terminated);
        }
    }
}
