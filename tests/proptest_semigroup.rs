//! Property-based tests for the semigroup layer: word algebra, derivation
//! certificates, quotient/BFS agreement, families, adjunction, evaluation,
//! and the arena BFS against its `HashMap` reference implementation.

use std::collections::{HashMap, VecDeque};

use proptest::prelude::*;
use td_bench::product_chain;
use template_deps::prelude::*;
use template_deps::td_semigroup::derivation::{
    search_derivation_tracked, search_goal_derivation, search_goal_derivation_tracked, DerivStep,
    TrackedSearch,
};
use template_deps::td_semigroup::model_search::ModelSearchResult;
use template_deps::td_semigroup::properties;
use template_deps::td_semigroup::quotient::BoundedQuotient;
use template_deps::td_semigroup::rewrite::RewriteSystem;
use template_deps::td_semigroup::symbol::Sym;

/// Strategy: a word over `n_syms` symbols, length `1..=max_len`.
fn arb_word(n_syms: u16, max_len: usize) -> impl Strategy<Value = Word> {
    proptest::collection::vec(0..n_syms, 1..=max_len).prop_map(|syms| Word::from_raw(syms).unwrap())
}

/// Strategy: a presentation over `A0, A1, 0` with random short equations,
/// zero-saturated. (3 symbols keep the bounded universes small.)
fn arb_presentation() -> impl Strategy<Value = Presentation> {
    let eq = (arb_word(3, 2), arb_word(3, 2)).prop_map(|(l, r)| Equation::new(l, r));
    proptest::collection::vec(eq, 0..4).prop_map(|eqs| {
        let alphabet = Alphabet::standard(2); // A0 A1 0
        let mut p = Presentation::new(alphabet, eqs).unwrap();
        p.saturate_with_zero_equations();
        p
    })
}

/// `p` with every equation listed twice, the second copy of every other
/// one reversed, so most rewrites can be made by several (equation,
/// direction) candidates and the arena's step recovery must pick the one
/// the search registered the word with.
fn with_duplicates(p: &Presentation) -> Presentation {
    let mut eqs = p.equations().to_vec();
    for (i, eq) in p.equations().iter().enumerate() {
        eqs.push(if i % 2 == 0 {
            eq.clone()
        } else {
            Equation::new(eq.rhs.clone(), eq.lhs.clone())
        });
    }
    Presentation::new(p.alphabet().clone(), eqs).unwrap()
}

/// Strategy: a presentation over `n` symbols (`A0, …, A{n-2}, 0`) with
/// random (2,1) and (1,1) equations, zero-saturated or not.
fn arb_two_one_presentation(n: u16) -> impl Strategy<Value = Presentation> {
    let eq = (0..n, 0..n, 0..n, 0..2u32);
    (proptest::collection::vec(eq, 0..6), 0..2u32).prop_map(move |(eqs, zerosat)| {
        let eqs = eqs
            .into_iter()
            .map(|(a, b, c, one_one)| {
                let lhs = if one_one == 1 { vec![a] } else { vec![a, b] };
                Equation::new(Word::from_raw(lhs).unwrap(), Word::from_raw([c]).unwrap())
            })
            .collect();
        let mut p = Presentation::new(Alphabet::standard(usize::from(n) - 1), eqs).unwrap();
        if zerosat == 1 {
            p.saturate_with_zero_equations();
        }
        p
    })
}

/// `start` after the rewrites that `picks` choose, one per pick, each
/// among every (equation, direction, position) that applies at that
/// point: a target the search can reach.
fn rewritten(p: &Presentation, start: &Word, picks: &[usize]) -> Word {
    let mut w = start.clone();
    for &pick in picks {
        let mut moves = Vec::new();
        for eq in p.equations() {
            for (from, to) in [(&eq.lhs, &eq.rhs), (&eq.rhs, &eq.lhs)] {
                for pos in w.occurrences(from) {
                    moves.push(w.replace_range(pos, from.len(), to).unwrap());
                }
            }
        }
        if !moves.is_empty() {
            w = moves.swap_remove(pick % moves.len());
        }
    }
    w
}

/// The reference derivation search: the original `HashMap`-of-parents
/// BFS, kept verbatim as the differential oracle for
/// [`search_derivation_tracked`]. Both must agree on the whole
/// [`TrackedSearch`] — result, steps, state count and cancellation flag.
fn reference_search(
    p: &Presentation,
    start: &Word,
    target: &Word,
    budget: &SearchBudget,
    cancel: &Cancellation,
) -> TrackedSearch {
    if start == target {
        return TrackedSearch {
            result: SearchResult::Found(Derivation::trivial(start.clone())),
            states: 1,
            cancelled: false,
        };
    }
    // One ticker unit per *registered* word (the start word included), so
    // `spent` is exactly the distinct-state count the reports need; mask 0
    // additionally observes the cancellation token at every registration.
    let mut ticker = Ticker::new(cancel, budget.max_states as u64, 0);
    // parent[word] = (previous word, step taken).
    let mut parent: HashMap<Word, (Word, DerivStep)> = HashMap::new();
    let mut queue: VecDeque<Word> = VecDeque::new();
    queue.push_back(start.clone());
    parent.insert(
        start.clone(),
        (
            start.clone(),
            DerivStep {
                eq_index: 0,
                pos: 0,
                forward: true,
            },
        ),
    );

    if ticker.tick() {
        'bfs: while let Some(word) = queue.pop_front() {
            if !ticker.poll() {
                break 'bfs;
            }
            for (eq_index, eq) in p.equations().iter().enumerate() {
                for (from, to, forward) in [(&eq.lhs, &eq.rhs, true), (&eq.rhs, &eq.lhs, false)] {
                    if from == to {
                        continue;
                    }
                    for pos in word.occurrences(from) {
                        let next = word
                            .replace_range(pos, from.len(), to)
                            .expect("occurrence positions are in range");
                        if next.len() > budget.max_word_len {
                            continue;
                        }
                        if parent.contains_key(&next) {
                            continue;
                        }
                        if !ticker.tick() {
                            break 'bfs;
                        }
                        let step = DerivStep {
                            eq_index,
                            pos,
                            forward,
                        };
                        parent.insert(next.clone(), (word.clone(), step));
                        if &next == target {
                            break 'bfs;
                        }
                        queue.push_back(next);
                    }
                }
            }
        }
    }
    let visited = ticker.spent() as usize;

    if !parent.contains_key(target) {
        let result = if ticker.stopped() {
            SearchResult::BudgetExhausted { states: visited }
        } else {
            SearchResult::ExhaustedWithinBound { states: visited }
        };
        return TrackedSearch {
            result,
            states: visited,
            cancelled: ticker.cancelled(),
        };
    }

    // Reconstruct the step sequence backwards from target.
    let mut steps_rev = Vec::new();
    let mut cur = target.clone();
    while cur != *start {
        let (prev, step) = parent
            .get(&cur)
            .expect("every reached word has a parent")
            .clone();
        steps_rev.push(step);
        cur = prev;
    }
    steps_rev.reverse();
    TrackedSearch {
        result: SearchResult::Found(Derivation {
            start: start.clone(),
            steps: steps_rev,
        }),
        states: visited,
        cancelled: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The arena BFS and the reference BFS visit the same words in the
    /// same order: every tracked outcome matches, under tiny state
    /// budgets, tight length windows and pre-cancelled tokens, for the goal
    /// and for arbitrary endpoints.
    #[test]
    fn arena_bfs_matches_reference(
        p in arb_presentation(),
        start in arb_word(3, 4),
        target in arb_word(3, 3),
        max_word_len in 1..7usize,
        max_states in 0..400usize,
        cancelled in 0..4u32,
    ) {
        let budget = SearchBudget { max_word_len, max_states };
        let cancel = Cancellation::new();
        if cancelled == 0 {
            cancel.cancel();
        }
        let goal = p.goal();
        for (s, t) in [(&goal.lhs, &goal.rhs), (&start, &target)] {
            let arena = search_derivation_tracked(&p, s, t, &budget, &cancel);
            let reference = reference_search(&p, s, t, &budget, &cancel);
            prop_assert_eq!(arena, reference);
        }
    }

    /// With duplicated and reversed equations, the steps the arena
    /// recovers from its parent chain are the ones the reference BFS
    /// stored when it registered each word.
    #[test]
    fn arena_steps_match_reference_on_ambiguous_rewrites(
        p in arb_presentation(),
        start in arb_word(3, 4),
        target in arb_word(3, 3),
        max_word_len in 1..7usize,
    ) {
        let p = with_duplicates(&p);
        let budget = SearchBudget { max_word_len, max_states: 2_000 };
        let never = Cancellation::new();
        let goal = p.goal();
        for (s, t) in [(&goal.lhs, &goal.rhs), (&start, &target)] {
            let arena = search_derivation_tracked(&p, s, t, &budget, &never);
            let reference = reference_search(&p, s, t, &budget, &never);
            prop_assert_eq!(arena, reference);
        }
    }

    /// Every key width: alphabets of 2–40 symbols and windows of up to
    /// 30 symbols put the search on `u64`, `u128` and limb-vector keys,
    /// with start words up to 30 symbols long. Each run matches the
    /// reference in full, for the goal, for a random target and for a
    /// target a few rewrites away from the start.
    #[test]
    fn packed_bfs_matches_reference_at_every_key_width(
        (p, start, target, picks) in (2..=40u16).prop_flat_map(|n| (
            arb_two_one_presentation(n),
            arb_word(n, 30),
            arb_word(n, 30),
            proptest::collection::vec(0..64usize, 0..4),
        )),
        max_word_len in 1..=30usize,
        max_states in 0..600usize,
    ) {
        let budget = SearchBudget { max_word_len, max_states };
        let never = Cancellation::new();
        let goal = p.goal();
        let near = rewritten(&p, &start, &picks);
        for (s, t) in [(&goal.lhs, &goal.rhs), (&start, &target), (&start, &near)] {
            let packed = search_derivation_tracked(&p, s, t, &budget, &never);
            let reference = reference_search(&p, s, t, &budget, &never);
            prop_assert_eq!(packed, reference);
        }
    }

    /// `occurrences` and `replace_range` agree.
    #[test]
    fn occurrences_replace_consistent(w in arb_word(3, 8), sub in arb_word(3, 3)) {
        for pos in w.occurrences(&sub) {
            prop_assert!(w.occurs_at(&sub, pos));
            let replaced = w.replace_range(pos, sub.len(), &sub).unwrap();
            prop_assert_eq!(&replaced, &w, "replacing a factor by itself is identity");
        }
        // Positions not reported are not occurrences.
        let hits = w.occurrences(&sub);
        for pos in 0..w.len() {
            prop_assert_eq!(hits.contains(&pos), w.occurs_at(&sub, pos));
        }
    }

    /// Concatenation length and content.
    #[test]
    fn concat_laws(a in arb_word(3, 5), b in arb_word(3, 5)) {
        let ab = a.concat(&b);
        prop_assert_eq!(ab.len(), a.len() + b.len());
        prop_assert!(ab.occurs_at(&a, 0));
        prop_assert!(ab.occurs_at(&b, a.len()));
    }

    /// Found derivations always replay and connect the goal's endpoints.
    #[test]
    fn derivations_replay(p in arb_presentation()) {
        let budget = SearchBudget { max_word_len: 5, max_states: 30_000 };
        if let SearchResult::Found(d) = search_goal_derivation(&p, &budget) {
            let g = p.goal();
            d.verify(&p, &g.lhs, &g.rhs).unwrap();
            // Each replayed word respects the length bound except possibly
            // the endpoints (which are length 1 anyway).
            for w in d.replay(&p).unwrap() {
                prop_assert!(w.len() <= budget.max_word_len);
            }
        }
    }

    /// The bounded congruence closure and the BFS agree on goal
    /// reachability when given the same word-length window (they explore
    /// the same graph).
    #[test]
    fn quotient_and_bfs_agree(p in arb_presentation()) {
        let len_bound = 3;
        let mut q = BoundedQuotient::build(&p, len_bound);
        let bfs = search_goal_derivation(
            &p,
            &SearchBudget { max_word_len: len_bound, max_states: 1_000_000 },
        );
        let bfs_found = matches!(bfs, SearchResult::Found(_));
        prop_assert_eq!(q.goal_identified(&p), Some(bfs_found));
    }

    /// Rewriting produces genuine derivations and never grows words.
    #[test]
    fn rewriting_certificates(p in arb_presentation(), w in arb_word(3, 6)) {
        let rs = RewriteSystem::from_presentation(&p);
        let (nf, d) = rs.normal_form(&w);
        prop_assert!(nf.len() <= w.len());
        let words = d.replay(&p).unwrap();
        prop_assert_eq!(words.first().unwrap(), &w);
        prop_assert_eq!(words.last().unwrap(), &nf);
        // Lengths decrease strictly along the reduction.
        for pair in words.windows(2) {
            prop_assert!(pair[1].len() < pair[0].len());
        }
    }

    /// Evaluation is a homomorphism: `eval(uv) = eval(u) · eval(v)`.
    #[test]
    fn eval_is_homomorphism(
        u in arb_word(2, 5),
        v in arb_word(2, 5),
        n in 2..7usize,
    ) {
        let g = cyclic_nilpotent(n);
        let interp = Interpretation::from_raw([1, 0]); // A0 -> a, 0 -> zero
        let eu = g.eval(&interp, &u).unwrap();
        let ev = g.eval(&interp, &v).unwrap();
        let euv = g.eval(&interp, &u.concat(&v)).unwrap();
        prop_assert_eq!(euv, g.mul(eu, ev));
    }

    /// Families satisfy the Main Lemma's side conditions at every order.
    #[test]
    fn families_are_cancellation_semigroups(n in 2..9usize) {
        for g in [null_semigroup(n), cyclic_nilpotent(n)] {
            prop_assert!(g.check_associative().is_ok());
            prop_assert_eq!(g.zero().map(|z| z.index()), Some(0));
            prop_assert!(g.identity().is_none());
            prop_assert!(has_cancellation_property(&g));
        }
    }

    /// Adjoining an identity: associativity, identity, zero, and — for the
    /// cancellation families — the paper's preservation claim.
    #[test]
    fn adjoin_identity_properties(n in 2..7usize) {
        for g in [null_semigroup(n), cyclic_nilpotent(n)] {
            let (g2, id) = adjoin_identity(&g).unwrap();
            prop_assert!(g2.check_associative().is_ok());
            prop_assert_eq!(g2.identity(), Some(id));
            prop_assert_eq!(
                g2.zero().map(|z| z.index()),
                g.zero().map(|z| z.index())
            );
            prop_assert!(has_cancellation_property(&g2));
        }
    }

    /// Direct products: componentwise structure, zero pairing, and
    /// equation preservation under paired interpretations.
    #[test]
    fn direct_products_behave(n in 2..5usize, m in 2..5usize) {
        let g = null_semigroup(n);
        let h = cyclic_nilpotent(m);
        let p = g.direct_product(&h);
        prop_assert_eq!(p.len(), n * m);
        prop_assert!(p.check_associative().is_ok());
        let zg = g.zero().unwrap();
        let zh = h.zero().unwrap();
        prop_assert_eq!(p.zero(), Some(g.pair_elem(&h, zg, zh)));
        prop_assert!(p.identity().is_none());
        // Componentwise multiplication at a sample of points.
        for a in g.elements() {
            for b in h.elements() {
                let x = g.pair_elem(&h, a, b);
                let xx = p.mul(x, x);
                prop_assert_eq!(
                    xx,
                    g.pair_elem(&h, g.mul(a, a), h.mul(b, b))
                );
            }
        }
        // Equation preservation under the paired interpretation.
        let pres = {
            let alphabet = Alphabet::standard(1);
            let mut pr = Presentation::new(alphabet, vec![]).unwrap();
            pr.saturate_with_zero_equations();
            pr
        };
        let ig = Interpretation::from_raw([1, 0]);
        let ih = Interpretation::from_raw([1, 0]);
        let ip = Interpretation::new(
            ig.elems()
                .iter()
                .zip(ih.elems())
                .map(|(&a, &b)| g.pair_elem(&h, a, b))
                .collect(),
        );
        prop_assert!(properties::satisfies_presentation(&g, &ig, &pres));
        prop_assert!(properties::satisfies_presentation(&h, &ih, &pres));
        prop_assert!(properties::satisfies_presentation(&p, &ip, &pres));
    }

    /// Normalization is stable: a second pass adds nothing.
    #[test]
    fn normalize_stable(p in arb_presentation()) {
        let n1 = normalize(&p).unwrap();
        let n2 = normalize(&n1.presentation).unwrap();
        prop_assert!(n2.definitions.is_empty());
        prop_assert_eq!(
            n1.presentation.equations().len(),
            n2.presentation.equations().len()
        );
        prop_assert!(n1.presentation.is_reduction_ready());
    }

    /// The model searcher only returns certified countermodels, and on
    /// derivable instances it returns nothing (soundness of both sides).
    #[test]
    fn model_search_certified(p in arb_presentation()) {
        let opts = ModelSearchOptions { min_size: 2, max_size: 3, max_nodes: 500_000 };
        let found = find_counter_model(&p, &opts).unwrap();
        if let ModelSearchResult::Found(g, interp) = &found {
            prop_assert!(properties::is_countermodel(g, interp, &p));
            // A countermodel and a derivation cannot coexist.
            let bfs = search_goal_derivation(
                &p,
                &SearchBudget { max_word_len: 6, max_states: 50_000 },
            );
            prop_assert!(
                bfs.derivation().is_none(),
                "derivable instance cannot have a countermodel"
            );
        }
    }

    /// Zero saturation is idempotent and the zero equations all hold in the
    /// families under any interpretation sending the zero symbol to zero.
    #[test]
    fn zero_saturation_semantics(n in 2..6usize, a0_to in 1..4usize) {
        let g = null_semigroup(n.max(a0_to + 1));
        let p = {
            let alphabet = Alphabet::standard(1);
            let mut p = Presentation::new(alphabet, vec![]).unwrap();
            p.saturate_with_zero_equations();
            p
        };
        let interp = Interpretation::from_raw([a0_to, 0]);
        for eq in p.equations() {
            prop_assert!(properties::satisfies_equation(&g, &interp, eq));
        }
    }
}

/// Deterministic spot-check that `Sym` indices round-trip through the
/// quotient's class listing (regression guard for dense-label bookkeeping).
#[test]
fn quotient_classes_contain_their_queries() {
    let p = {
        let alphabet = Alphabet::standard(2);
        let e = Equation::parse("A1 A1 = A0", &alphabet).unwrap();
        let mut p = Presentation::new(alphabet, vec![e]).unwrap();
        p.saturate_with_zero_equations();
        p
    };
    let mut q = BoundedQuotient::build(&p, 3);
    let a0 = Word::single(Sym::new(0));
    let class = q.class_of(&a0).unwrap();
    assert!(class.contains(&a0));
    for w in &class {
        assert_eq!(q.equal(&a0, w), Some(true));
    }
}

/// Rewrites that several candidates make: a duplicated equation, the same
/// equation reversed, and overlapping occurrences (`A0 A0` twice in
/// `A0 A0 A0`, thrice in `A0 A0 A0 A0`). Each hop's step is the first
/// candidate in the visit order, exactly as the reference BFS records it.
#[test]
fn ambiguous_steps_are_the_registering_ones() {
    let step = |eq_index, pos, forward| DerivStep {
        eq_index,
        pos,
        forward,
    };
    let alphabet = Alphabet::standard(2); // A0 A1 0
    let eqs = ["A0 A0 = A1", "A0 A0 = A1", "A1 = A0 A0", "A0 A0 = A0"]
        .map(|e| Equation::parse(e, &alphabet).unwrap())
        .to_vec();
    let p = Presentation::new(alphabet, eqs).unwrap();
    let word = |w: &str| Word::parse(w, p.alphabet()).unwrap();
    let budget = SearchBudget::default();
    let never = Cancellation::new();
    for (start, target, steps) in [
        ("A0 A0 A0", "A1 A0", vec![step(0, 0, true)]),
        ("A0 A0 A0", "A0 A1", vec![step(0, 1, true)]),
        ("A1 A0", "A0 A1", vec![step(0, 0, false), step(0, 1, true)]),
        ("A0 A0 A0 A0", "A0 A0 A0", vec![step(3, 0, true)]),
        (
            "A0 A0 A0 A0",
            "A0",
            vec![step(3, 0, true), step(3, 0, true), step(3, 0, true)],
        ),
    ] {
        let (start, target) = (word(start), word(target));
        let arena = search_derivation_tracked(&p, &start, &target, &budget, &never);
        let reference = reference_search(&p, &start, &target, &budget, &never);
        assert_eq!(arena, reference);
        let d = arena.result.derivation().expect("reachable");
        assert_eq!(d.steps, steps);
        d.verify(&p, &start, &target).unwrap();
    }
}

/// Searches whose words fill their keys: for each window just below and
/// just above the 64- and 128-bit limits (15 symbols of 4 bits: 16 and 17
/// symbols around `u64`, 32 and 33 around `u128`), and for the engine's
/// window of 12 over 1,024 symbols of 11 bits, the target puts the
/// highest code in the top field of the longest word the window admits.
/// The search must reach it, fail to reach the same word one symbol
/// longer, and match the reference on both.
#[test]
fn words_at_the_key_width_limits_match_reference() {
    let never = Cancellation::new();
    for (regular, max_word_len) in [(14, 16), (14, 17), (14, 32), (14, 33), (1023, 12)] {
        let alphabet = Alphabet::standard(regular);
        let a = format!("A{}", regular - 1);
        let grow = Equation::parse(&format!("{a} {a} = {a}"), &alphabet).unwrap();
        let p = Presentation::new(alphabet, vec![grow]).unwrap();
        let word = |n: usize| {
            let mut text = vec![a.as_str(); n];
            text.push("0");
            Word::parse(&text.join(" "), p.alphabet()).unwrap()
        };
        let start = word(1);
        let budget = SearchBudget {
            max_word_len,
            max_states: 1_000,
        };
        for (n, reachable) in [(max_word_len - 1, true), (max_word_len, false)] {
            let target = word(n);
            let packed = search_derivation_tracked(&p, &start, &target, &budget, &never);
            let reference = reference_search(&p, &start, &target, &budget, &never);
            assert_eq!(
                packed, reference,
                "{regular} symbols, window {max_word_len}"
            );
            assert_eq!(packed.result.derivation().is_some(), reachable);
            if let Some(d) = packed.result.derivation() {
                assert_eq!(d.len(), max_word_len - 2);
                d.verify(&p, &start, &target).unwrap();
            }
        }
    }
}

/// The `product_chain` bases of the `dup_warm` benchmark, normalized as the
/// engine normalizes them, visit exactly the state counts the reference
/// BFS visits under the engine's default budget (pinned from it), and the
/// smaller one matches the reference outcome in full.
#[test]
fn product_chain_state_counts_are_pinned() {
    let budget = Budgets::default().derivation;
    let never = Cancellation::new();
    for (k, states) in [(6, 99_487), (5, 6_538)] {
        let np = normalize(&product_chain(k).zero_saturated())
            .unwrap()
            .presentation;
        let t = search_goal_derivation_tracked(&np, &budget, &never);
        assert_eq!(t.states, states, "product_chain({k})");
        assert!(!t.cancelled);
        if k == 5 {
            let goal = np.goal();
            let reference = reference_search(&np, &goal.lhs, &goal.rhs, &budget, &never);
            assert_eq!(t, reference);
        }
    }
}
