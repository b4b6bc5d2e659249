//! Property-based tests for the reduction: structural invariants of the
//! generated dependencies, bridge algebra, certified pipeline verdicts on
//! randomized instances, and replay determinism of the solver race.

mod common;

use common::{run_mode, run_with};
use proptest::prelude::*;
use template_deps::jsonl::Json;
use template_deps::prelude::*;
use template_deps::serve::parse_instance;
use template_deps::td_core::canon::system_key;
use template_deps::td_core::eq_instance::EqInstance;
use template_deps::td_core::satisfaction;
use template_deps::td_reduction::deps::{
    build_d0, build_d1, build_d2, build_d3, build_d4, build_d_identify,
};
use template_deps::td_reduction::verify::structural_report;
use template_deps::td_semigroup::derivation::SearchBudget;
use template_deps::td_semigroup::model_search::ModelSearchOptions;
use template_deps::td_semigroup::normalize::normalize;
use template_deps::td_semigroup::symbol::Sym;

/// Strategy: an alphabet with `2..=4` regular symbols plus the zero.
fn arb_alphabet() -> impl Strategy<Value = Alphabet> {
    (2..=4usize).prop_map(Alphabet::standard)
}

/// Strategy: `(alphabet, rule)` with random symbols.
fn arb_rule() -> impl Strategy<Value = (Alphabet, Rule2)> {
    arb_alphabet().prop_flat_map(|alphabet| {
        let n = alphabet.len() as u16;
        (Just(alphabet), 0..n, 0..n, 0..n).prop_map(|(alphabet, a, b, c)| {
            (
                alphabet,
                Rule2 {
                    a: Sym::new(a),
                    b: Sym::new(b),
                    c: Sym::new(c),
                },
            )
        })
    })
}

/// Strategy: a refutable presentation — random equations of the shape
/// `x y = 0` (always satisfied by null semigroups with `A0 ↦ a`).
fn arb_refutable() -> impl Strategy<Value = Presentation> {
    arb_alphabet().prop_flat_map(|alphabet| {
        let n = alphabet.len() as u16;
        let zero = alphabet.zero();
        proptest::collection::vec((0..n, 0..n), 0..4).prop_map(move |pairs| {
            let eqs = pairs
                .into_iter()
                .map(|(a, b)| {
                    Equation::new(
                        Word::new([Sym::new(a), Sym::new(b)]).unwrap(),
                        Word::single(zero),
                    )
                })
                .collect();
            let mut p = Presentation::new(alphabet.clone(), eqs).unwrap();
            p.saturate_with_zero_equations();
            p
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every generated dependency family has the paper's shape, for every
    /// rule over every alphabet.
    #[test]
    fn dependency_shapes((alphabet, r) in arb_rule()) {
        let attrs = ReductionAttrs::new(&alphabet).unwrap();
        let d1 = build_d1(&attrs, r).unwrap();
        let d2 = build_d2(&attrs, r).unwrap();
        let d3 = build_d3(&attrs, r).unwrap();
        let d4 = build_d4(&attrs, r).unwrap();
        let d0 = build_d0(&attrs).unwrap();
        prop_assert_eq!(d1.antecedent_count(), 5);
        prop_assert_eq!(d2.antecedent_count(), 3);
        prop_assert_eq!(d3.antecedent_count(), 3);
        prop_assert_eq!(d4.antecedent_count(), 5);
        prop_assert_eq!(d0.antecedent_count(), 3);
        for td in [&d1, &d2, &d3, &d4, &d0] {
            prop_assert_eq!(td.arity(), 2 * alphabet.len() + 2);
            prop_assert!(td.is_embedded());
            // Diagram round-trip stability.
            let back = Diagram::from_td(td).to_td("back").unwrap();
            prop_assert!(td.eq_up_to_renaming(&back));
        }
        // D1 and D4 are never trivial regardless of symbol coincidences.
        prop_assert!(!d1.is_trivial());
        prop_assert!(!d4.is_trivial());
        // D2/D3 triviality is exactly characterized.
        prop_assert_eq!(d2.is_trivial(), r.a == r.c);
        prop_assert_eq!(d3.is_trivial(), r.b == r.c);
    }

    /// Identify dependencies relabel triangles; trivial iff `a == b`.
    #[test]
    fn identify_shapes(alphabet in arb_alphabet(), a in 0..3u16, b in 0..3u16) {
        let attrs = ReductionAttrs::new(&alphabet).unwrap();
        let (a, b) = (Sym::new(a), Sym::new(b));
        let d = build_d_identify(&attrs, a, b, "D5").unwrap();
        prop_assert_eq!(d.antecedent_count(), 3);
        prop_assert_eq!(d.is_trivial(), a == b);
    }

    /// Bridges validate for arbitrary words and are robust to neighbours.
    #[test]
    fn bridges_validate(alphabet in arb_alphabet(), raw in proptest::collection::vec(0..3u16, 1..7)) {
        let attrs = ReductionAttrs::new(&alphabet).unwrap();
        let word = Word::from_raw(raw).unwrap();
        let mut eq = EqInstance::new(attrs.schema().clone(), 0);
        let b1 = Bridge::build(&mut eq, &attrs, &word).unwrap();
        let b2 = Bridge::build(&mut eq, &attrs, &word).unwrap();
        b1.validate(&eq, &attrs).unwrap();
        b2.validate(&eq, &attrs).unwrap();
        prop_assert_eq!(eq.len(), 2 * (2 * word.len() + 1));
        // The two bridges do not interfere.
        prop_assert!(!eq.same(attrs.e(), b1.base()[0], b2.base()[0]));
    }

    /// Pipeline verdicts on randomized refutable instances are certified:
    /// the countermodel satisfies all of D, violates D0, and passes the
    /// Facts.
    #[test]
    fn refutable_instances_certified(p in arb_refutable()) {
        let run = Engine::new().run_full(&p).unwrap();
        match &run.outcome {
            PipelineOutcome::Refuted { model, report } => {
                prop_assert!(report.ok(), "{:?}", report);
                prop_assert!(satisfaction::satisfies_all(&model.instance, &run.system.deps));
                prop_assert!(!satisfaction::satisfies(&model.instance, &run.system.d0));
            }
            PipelineOutcome::Implied { .. } => {
                // Possible: e.g. the random equation `A0 X = 0` combined
                // with others could make the goal derivable? x·y = 0 alone
                // never rewrites the single-letter word A0, so Implied
                // would indicate a bug.
                prop_assert!(false, "x·y = 0 equations cannot derive A0 = 0");
            }
            PipelineOutcome::Unknown { .. } => {
                // Tolerated (budget), though it should not happen for the
                // null-model family.
                prop_assert!(false, "the null counter-model should always apply");
            }
        }
    }

    /// Part (A) proofs scale exactly with the derivation on the relabel
    /// chain, and every certificate verifies.
    #[test]
    fn relabel_chain_certified(k in 1..6usize) {
        let p = td_bench::relabel_chain(k);
        let run = Engine::new().run_full(&p).unwrap();
        let PipelineOutcome::Implied { derivation, proof } = &run.outcome else {
            return Err(TestCaseError::fail("must be implied"));
        };
        prop_assert_eq!(derivation.len(), k + 1);
        prop_assert_eq!(proof.proof.len(), k + 1);
        proof.verify(&run.system).unwrap();
        prop_assert!(structural_report(&run.system).ok());
    }

    /// Same for the product chain (expansions cost 3 firings each).
    #[test]
    fn product_chain_certified(k in 1..5usize) {
        let p = td_bench::product_chain(k);
        let mut budgets = Budgets::default();
        budgets.derivation.max_word_len = k + 2;
        let run = run_with(&p, budgets, SolveOptions::default());
        let PipelineOutcome::Implied { derivation, proof } = &run.outcome else {
            return Err(TestCaseError::fail("must be implied"));
        };
        prop_assert_eq!(derivation.len(), 2 * k);
        prop_assert_eq!(proof.proof.len(), 4 * k);
        proof.verify(&run.system).unwrap();
    }

    /// Derivability is monotone in the equation set: adding arbitrary extra
    /// `(2,1)` equations to a derivable instance keeps it derivable, and
    /// the pipeline still produces verified certificates.
    #[test]
    fn derivable_plus_junk_stays_certified(
        k in 1..4usize,
        junk in proptest::collection::vec((0..4u16, 0..4u16, 0..4u16), 0..3),
    ) {
        let mut p = td_bench::product_chain(k);
        // Alphabet: A0, X, Y1..Yk, 0 — junk equations over its symbols.
        let n = p.alphabet().len() as u16;
        for (a, b, c) in junk {
            let eq = Equation::new(
                Word::new([Sym::new(a % n), Sym::new(b % n)]).unwrap(),
                Word::single(Sym::new(c % n)),
            );
            p.push_equation(eq).unwrap();
        }
        let mut budgets = Budgets::default();
        budgets.derivation.max_word_len = k + 2;
        let run = run_with(&p, budgets, SolveOptions::default());
        let PipelineOutcome::Implied { derivation, proof } = &run.outcome else {
            return Err(TestCaseError::fail("monotonicity: must stay implied"));
        };
        // The found derivation may differ from the canonical one (junk can
        // create shortcuts) but must replay, and the proof must verify.
        let g = run.normalized.presentation.goal();
        derivation.verify(&run.normalized.presentation, &g.lhs, &g.rhs).unwrap();
        proof.verify(&run.system).unwrap();
    }

    /// Part (B) countermodels built from nilpotent semigroups of any order
    /// verify, and their P/Q split matches the labels.
    #[test]
    fn nilpotent_counter_models_certified(n in 2..7usize, n_regular in 1..3usize) {
        let p = td_bench::refutable_with_symbols(n_regular);
        let system = build_system(&p).unwrap();
        let g = cyclic_nilpotent(n);
        // A0 -> a, all other regular symbols -> a as well, 0 -> 0.
        let interp = Interpretation::from_raw(
            (0..p.alphabet().len()).map(|i| {
                if Sym::from(i) == p.alphabet().zero() { 0 } else { 1 }
            }),
        );
        let model = build_counter_model(&system, &p, &g, &interp).unwrap();
        let report = verify_counter_model(&system, &model);
        prop_assert!(report.ok(), "n={n}: {:?}", report);
        // |Q| rows each belong to exactly one nontrivial A'-class.
        prop_assert!(model.p_rows().count() >= 2);
    }
}

/// Strategy: a random zero-saturated presentation over `A0`, `A1`, `0`:
/// up to three equations whose sides are words of length 1–2 — derivable,
/// refutable, and budget-bound instances alike.
fn arb_race_presentation() -> impl Strategy<Value = Presentation> {
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

/// Budgets small enough that some instances exhaust both sides.
fn race_budgets() -> Budgets {
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

    /// Race determinism: replaying the race on the same instance settles
    /// the same way every time — same certificate shape, same derivation
    /// length / model size, and identical spend whenever no cancellation
    /// fired (the double-exhaustion case, where both sides run to their
    /// budgets deterministically).
    #[test]
    fn portfolio_replays_settle_identically(p in arb_race_presentation()) {
        let budgets = race_budgets();
        let first = run_mode(&p, budgets, SolveMode::Racing);
        for _ in 0..2 {
            let again = run_mode(&p, budgets, SolveMode::Racing);
            match (&first.outcome, &again.outcome) {
                (
                    PipelineOutcome::Implied { derivation: d1, proof: p1 },
                    PipelineOutcome::Implied { derivation: d2, proof: p2 },
                ) => {
                    prop_assert_eq!(d1.len(), d2.len());
                    prop_assert_eq!(p1.proof.len(), p2.proof.len());
                }
                (
                    PipelineOutcome::Refuted { model: m1, .. },
                    PipelineOutcome::Refuted { model: m2, .. },
                ) => prop_assert_eq!(m1.len(), m2.len()),
                (
                    PipelineOutcome::Unknown { derivation_states: ds1, model_nodes: mn1 },
                    PipelineOutcome::Unknown { derivation_states: ds2, model_nodes: mn2 },
                ) => {
                    prop_assert_eq!(ds1, ds2);
                    prop_assert_eq!(mn1, mn2);
                    prop_assert_eq!(first.spend, again.spend);
                }
                (a, b) => {
                    return Err(TestCaseError::fail(format!(
                        "race replay diverged: {a:?} vs {b:?}"
                    )));
                }
            }
        }
    }
}

/// Strategy: a presentation over `A0 … A{n-1}, 0` (`n` = 2–3) with 1–4
/// equations, pairwise distinct as unordered pairs of sides, whose sides
/// are words of length 1–3; plus a seed for the disguises applied to it.
fn arb_keyed_presentation() -> impl Strategy<Value = (Presentation, u64)> {
    (2..=3usize).prop_flat_map(|n| {
        let len = n as u16 + 1;
        let word = proptest::collection::vec(0..len, 1..=3);
        (
            proptest::collection::vec((word.clone(), word), 1..=4),
            0..1_000_000u64,
        )
            .prop_map(move |(sides, seed)| {
                let mut eqs: Vec<Equation> = Vec::new();
                for (l, r) in sides {
                    let eq = Equation::new(Word::from_raw(l).unwrap(), Word::from_raw(r).unwrap());
                    if !eqs.iter().any(|e| *e == eq || e.flipped() == eq) {
                        eqs.push(eq);
                    }
                }
                (Presentation::new(Alphabet::standard(n), eqs).unwrap(), seed)
            })
    })
}

/// `p` with its equations replaced (same alphabet).
fn with_eqs(p: &Presentation, eqs: Vec<Equation>) -> Presentation {
    Presentation::new(p.alphabet().clone(), eqs).unwrap()
}

/// `p` over a fresh alphabet: names from `names`, `A₀` and `0` at the
/// given indices, the equations' symbol indices untouched.
fn relabelled(p: &Presentation, names: Vec<String>, a0: usize, zero: usize) -> Presentation {
    let alphabet = Alphabet::new(names.clone(), &names[a0], &names[zero]).unwrap();
    Presentation::new(alphabet, p.equations().to_vec()).unwrap()
}

/// `true` when `eq` counts in the presentation key: it is not reflexive,
/// and not an equation whose two sides both contain `0`.
fn in_key(eq: &Equation, zero: Sym) -> bool {
    !(eq.is_reflexive() || (eq.lhs.contains(zero) && eq.rhs.contains(zero)))
}

/// `p` in a disguise chosen by `seed` that keeps its presentation key:
/// renamed symbols, rotated equations, one equation's sides swapped, and,
/// depending on the seed, its zero-absorption equations or a reflexive
/// equation appended.
fn disguised(p: &Presentation, seed: u64) -> Presentation {
    let len = p.alphabet().len();
    let names: Vec<String> = (0..len).map(|i| format!("d{seed}_{i}")).collect();
    let (a0, zero) = (p.alphabet().a0().index(), p.alphabet().zero().index());
    let mut eqs = p.equations().to_vec();
    let n = eqs.len();
    eqs[seed as usize % n] = eqs[seed as usize % n].flipped();
    eqs.rotate_left(seed as usize / 2 % n);
    if seed % 3 != 0 {
        eqs.extend(Presentation::zero_equations(p.alphabet()));
    }
    if seed % 5 == 0 {
        let s = Word::from_raw([(seed / 7 % len as u64) as u16]).unwrap();
        eqs.push(Equation::new(s.clone(), s));
    }
    relabelled(&with_eqs(p, eqs), names, a0, zero)
}

/// The answer a fresh engine gives `p`: the verdict's kind, or an error.
fn fresh_answer(p: &Presentation) -> Result<&'static str, String> {
    match Engine::new().decide(p).map_err(|e| e.to_string())?.verdict {
        BatchVerdict::Implied { .. } => Ok("implied"),
        BatchVerdict::Refuted { .. } => Ok("refuted"),
        BatchVerdict::Unknown { .. } => Ok("unknown"),
    }
}

/// Two presentations that share a key get the same answer from two fresh
/// engines: the same verdict, or both an error. A cache answers one with
/// the other's verdict, so a reply must not depend on which came first.
fn assert_same_answer(p: &Presentation, twin: &Presentation) -> Result<(), TestCaseError> {
    prop_assert_eq!(Engine::canonical_key(p), Engine::canonical_key(twin));
    match (fresh_answer(p), fresh_answer(twin)) {
        (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
        (Err(_), Err(_)) => {}
        (a, b) => prop_assert!(false, "one key, two answers: {:?} vs {:?}", a, b),
    }
    Ok(())
}

/// The fixed twins: symbols `A0` and `A0'` against the renamed alphabet
/// (`A0''` is both `A0`'s double prime and `A0'`'s single prime), and the
/// running example with its zero-absorption equations listed, plus a
/// longer equation whose sides both contain `0`.
#[test]
fn cold_and_warm_answers_agree_on_fixed_twins() {
    let parse = |names: [&str; 3], eqs: &[&str]| {
        let alphabet = Alphabet::new(names, "A0", "0").unwrap();
        let eqs = eqs
            .iter()
            .map(|e| Equation::parse(e, &alphabet).unwrap())
            .collect();
        Presentation::new(alphabet, eqs).unwrap()
    };
    let primed = parse(["A0", "A0'", "0"], &["A0' A0' = A0"]);
    let renamed = parse(["A0", "A1", "0"], &["A1 A1 = A0"]);
    assert_same_answer(&primed, &renamed).unwrap();
    assert_eq!(fresh_answer(&primed), Ok("refuted"));

    let running = parse(["A0", "A1", "0"], &["A1 A1 = A0", "A1 A1 = 0"]);
    let mut absorbing = running.zero_saturated();
    absorbing = with_eqs(
        &absorbing,
        [
            absorbing.equations().to_vec(),
            vec![Equation::parse("A1 0 A1 = 0 A0", absorbing.alphabet()).unwrap()],
        ]
        .concat(),
    );
    assert_same_answer(&running, &absorbing).unwrap();
    assert_eq!(fresh_answer(&running), Ok("implied"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random presentations and their key-preserving disguises (see
    /// [`disguised`]) get the same answer from two fresh engines.
    #[test]
    fn cold_and_warm_answers_agree((p, seed) in arb_keyed_presentation()) {
        assert_same_answer(&p, &disguised(&p, seed))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The presentation key's equivalence: renaming symbols, shuffling the
    /// equations, swapping an equation's sides, repeating an equation and
    /// appending the zero-absorption equations keep the key; changing a
    /// symbol of one equation the key counts ([`in_key`]), the index of
    /// `A₀` or of `0`, or the alphabet length changes it.
    #[test]
    fn presentation_key_equivalence((p, seed) in arb_keyed_presentation()) {
        let key = Engine::canonical_key(&p);
        let eqs = p.equations().to_vec();
        let len = p.alphabet().len();
        let pick = seed as usize % eqs.len();
        let (a0, zero) = (p.alphabet().a0().index(), p.alphabet().zero().index());
        let names: Vec<String> = (0..len).map(|i| format!("s{seed}_{i}")).collect();

        // Kept.
        prop_assert_eq!(Engine::canonical_key(&relabelled(&p, names.clone(), a0, zero)), key);
        let mut shuffled = eqs.clone();
        shuffled.sort_by_key(|e| {
            let h = format!("{e}{seed}").bytes().fold(seed, |h, b| h.wrapping_mul(31).wrapping_add(u64::from(b)));
            h.rotate_left(17)
        });
        prop_assert_eq!(Engine::canonical_key(&with_eqs(&p, shuffled)), key);
        let mut swapped = eqs.clone();
        swapped[pick] = swapped[pick].flipped();
        prop_assert_eq!(Engine::canonical_key(&with_eqs(&p, swapped)), key);
        let mut repeated = eqs.clone();
        repeated.push(eqs[pick].flipped());
        repeated.push(eqs[pick].clone());
        prop_assert_eq!(Engine::canonical_key(&with_eqs(&p, repeated)), key);
        prop_assert_eq!(Engine::canonical_key(&p.zero_saturated()), key);

        // Changed.
        let counted: Vec<usize> = (0..eqs.len())
            .filter(|&i| in_key(&eqs[i], p.alphabet().zero()))
            .collect();
        if !counted.is_empty() {
            let mut changed = eqs.clone();
            let eq = &mut changed[counted[seed as usize % counted.len()]];
            let side = if seed % 2 == 0 { &mut eq.lhs } else { &mut eq.rhs };
            let mut syms: Vec<u16> = side.syms().iter().map(|s| s.raw()).collect();
            let at = (seed as usize / 2) % syms.len();
            syms[at] = (syms[at] + 1) % len as u16;
            *side = Word::from_raw(syms).unwrap();
            prop_assert!(Engine::canonical_key(&with_eqs(&p, changed)) != key);
        }
        prop_assert!(Engine::canonical_key(&relabelled(&p, names.clone(), 1, zero)) != key);
        prop_assert!(Engine::canonical_key(&relabelled(&p, names.clone(), a0, 1)) != key);
        let mut longer = names;
        longer.push("extra".to_owned());
        prop_assert!(Engine::canonical_key(&relabelled(&p, longer, a0, zero)) != key);
    }
}

/// The `system_key` of `p`'s reduced system (zero-saturated, normalized,
/// reduced), as the engine keyed `wp` questions before it keyed the
/// presentation.
fn reduced_system_key(p: &Presentation) -> CanonKey {
    let normalized = normalize(&p.zero_saturated()).unwrap();
    let system = build_system(&normalized.presentation).unwrap();
    system_key(&system.deps, &system.d0)
}

/// On the repository's corpora the presentation key partitions the
/// instances exactly as the reduced system's `system_key` does — it is no
/// coarser, and no finer, there — and swapping two ordinary symbols moves
/// both keys.
#[test]
fn presentation_key_partitions_corpora_like_system_key() {
    let batch_small: Vec<Presentation> = include_str!("golden/batch_small.jsonl")
        .lines()
        .map(|line| {
            parse_instance(&Json::parse(line).unwrap(), "item")
                .unwrap()
                .1
        })
        .collect();
    let corpora = [
        (
            "duplicate_heavy_corpus",
            td_bench::duplicate_heavy_corpus(3),
        ),
        ("easy_heavy_corpus", td_bench::easy_heavy_corpus()),
        ("batch_small.jsonl", batch_small),
    ];
    for (name, corpus) in corpora {
        let keys: Vec<(CanonKey, CanonKey)> = corpus
            .iter()
            .map(|p| (Engine::canonical_key(p), reduced_system_key(p)))
            .collect();
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys[..i].iter().enumerate() {
                assert_eq!(a.0 == b.0, a.1 == b.1, "{name}: items {j} and {i}");
            }
        }
    }

    // Swap the indices of `Y1` and `Y2` in every equation of a product
    // chain: the same question up to a symbol permutation, which neither
    // key is invariant under.
    let p = td_bench::product_chain(3);
    let swap = |w: &Word| {
        Word::from_raw(w.syms().iter().map(|s| match s.raw() {
            2 => 3,
            3 => 2,
            r => r,
        }))
        .unwrap()
    };
    let eqs = p
        .equations()
        .iter()
        .map(|eq| Equation::new(swap(&eq.lhs), swap(&eq.rhs)))
        .collect();
    let swapped = with_eqs(&p, eqs);
    assert_ne!(Engine::canonical_key(&swapped), Engine::canonical_key(&p));
    assert_ne!(reduced_system_key(&swapped), reduced_system_key(&p));
}
