//! Workload generators for the benchmark harness and the experiment tables.
//!
//! Scaling families (used by the Criterion benches and the `tables` binary):
//!
//! * [`relabel_chain`] — `A₀ = X₁, X₁ = X₂, …, X_k = 0`: a derivable
//!   instance whose shortest derivation has exactly `k+1` relabeling steps
//!   (exercises the `D5`/`D6` dependencies one-for-one);
//! * [`product_chain`] — `X·Yᵢ₊₁ = Yᵢ` (with `Y₀ = A₀`) and `X·Y_k = 0`:
//!   a derivable instance whose shortest derivation expands `k` times, then
//!   contracts through the zero — `2k` steps with intermediate words of
//!   length up to `k+1` (exercises `D1…D4`);
//! * [`refutable_with_symbols`] — zero equations only over an `n`-symbol
//!   alphabet: refutable with the 2-element null semigroup, scaling the
//!   attribute count `2n+2`;
//! * random instances and full-TD families for the chase microbenchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use td_core::prelude::*;
use td_semigroup::prelude::*;

/// The garment schema of the paper's introduction.
pub fn garment_schema() -> Schema {
    Schema::new("R", ["SUPPLIER", "STYLE", "SIZE"]).expect("static schema")
}

/// Fig. 1: `R(a,b,c) & R(a,b′,c′) ⇒ ∃a* R(a*,b,c′)`.
pub fn fig1_td() -> Td {
    TdBuilder::new(garment_schema())
        .antecedent(["a", "b", "c"])
        .expect("arity 3")
        .antecedent(["a", "b'", "c'"])
        .expect("arity 3")
        .conclusion(["*", "b", "c'"])
        .expect("arity 3")
        .build("fig1")
        .expect("well-formed")
}

/// The full join-on-supplier dependency that implies Fig. 1.
pub fn join_on_supplier() -> Td {
    TdBuilder::new(garment_schema())
        .antecedent(["a", "b", "c"])
        .expect("arity 3")
        .antecedent(["a", "b'", "c'"])
        .expect("arity 3")
        .conclusion(["a", "b", "c'"])
        .expect("arity 3")
        .build("join-supplier")
        .expect("well-formed")
}

/// A random instance over `schema`: `rows` tuples, each column drawing from
/// `values_per_column` values. Deterministic in `seed`.
pub fn random_instance(
    schema: &Schema,
    rows: usize,
    values_per_column: u32,
    seed: u64,
) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inst = Instance::new(schema.clone());
    for _ in 0..rows {
        let tuple: Vec<u32> = (0..schema.arity())
            .map(|_| rng.gen_range(0..values_per_column))
            .collect();
        inst.insert_values(tuple).expect("arity matches");
    }
    inst
}

/// The relabel chain: `A₀ = X₁, X₁ = X₂, …, X_k = 0` (zero-saturated).
/// Derivable in exactly `k+1` replacement steps.
pub fn relabel_chain(k: usize) -> Presentation {
    let mut names: Vec<String> = vec!["A0".into()];
    names.extend((1..=k).map(|i| format!("X{i}")));
    names.push("0".into());
    let alphabet = Alphabet::new(names, "A0", "0").expect("distinct names");
    let mut eqs = Vec::with_capacity(k + 1);
    let word = |name: &str| Word::parse(name, &alphabet).expect("known symbol");
    let mut prev = "A0".to_owned();
    for i in 1..=k {
        let cur = format!("X{i}");
        eqs.push(Equation::new(word(&prev), word(&cur)));
        prev = cur;
    }
    eqs.push(Equation::new(word(&prev), word("0")));
    let mut p = Presentation::new(alphabet, eqs).expect("symbols in range");
    p.saturate_with_zero_equations();
    p
}

/// The product chain: `X·Yᵢ₊₁ = Yᵢ` for `i = 0..k-1` (writing `Y₀` for
/// `A₀`), plus `X·Y_k = 0` (zero-saturated). The shortest derivation does
/// `k` expansions, one contraction to a word containing `0`, then `k−1`
/// zero-absorption contractions: `2k` steps total.
///
/// # Panics
/// Panics if `k == 0`.
pub fn product_chain(k: usize) -> Presentation {
    assert!(k >= 1);
    let mut names: Vec<String> = vec!["A0".into(), "X".into()];
    names.extend((1..=k).map(|i| format!("Y{i}")));
    names.push("0".into());
    let alphabet = Alphabet::new(names, "A0", "0").expect("distinct names");
    let w = |text: &str| Word::parse(text, &alphabet).expect("known symbols");
    let mut eqs = Vec::with_capacity(k + 1);
    // X Y1 = A0; X Y_{i+1} = Y_i; X Y_k = 0.
    eqs.push(Equation::new(w("X Y1"), w("A0")));
    for i in 1..k {
        eqs.push(Equation::new(
            w(&format!("X Y{}", i + 1)),
            w(&format!("Y{i}")),
        ));
    }
    eqs.push(Equation::new(w(&format!("X Y{k}")), w("0")));
    let mut p = Presentation::new(alphabet, eqs).expect("symbols in range");
    p.saturate_with_zero_equations();
    p
}

/// A refutable instance over `n_regular + 1` symbols: zero equations only.
/// The 2-element null semigroup refutes it; the attribute count of the
/// reduction is `2(n_regular + 1) + 2`.
pub fn refutable_with_symbols(n_regular: usize) -> Presentation {
    let alphabet = Alphabet::standard(n_regular);
    let mut p = Presentation::new(alphabet, vec![]).expect("no equations");
    p.saturate_with_zero_equations();
    p
}

/// A part (B) workload whose countermodel grows linearly: the zero-only
/// presentation over `{A0, A1, 0}` refuted by the cyclic nilpotent
/// semigroup of order `n` with `A0 ↦ a^{n-1}` (the deepest element) and
/// `A1 ↦ a`. Then `P = {I, a, …, a^{n-1}}` has `n+…` elements and `Q` one
/// triple per `A1`-step, so the countermodel has `Θ(n)` rows.
///
/// Returns `(presentation, semigroup, interpretation)`.
pub fn nilpotent_countermodel_workload(
    n: usize,
) -> (Presentation, FiniteSemigroup, Interpretation) {
    assert!(n >= 3, "need at least a and a^2");
    let p = refutable_with_symbols(2); // A0 A1 0
    let g = cyclic_nilpotent(n);
    let interp = Interpretation::from_raw([n - 1, 1, 0]);
    (p, g, interp)
}

/// A duplicate-heavy batch corpus: `copies` disguised copies of each of
/// four base word-problem instances (two derivable instances whose BFS
/// derivation searches do real work, a refutable zero-only instance, and
/// the running two-generator example). Copy `j` of an instance rotates
/// its equation list by `j` and renames every symbol, keeping each
/// symbol's index — changes the engine's presentation key ignores, so
/// deduplication must collapse the corpus back to the four originals.
/// This is the `batch_throughput` bench workload.
pub fn duplicate_heavy_corpus(copies: usize) -> Vec<Presentation> {
    let bases: Vec<Presentation> = vec![
        product_chain(6),
        product_chain(5),
        refutable_with_symbols(2),
        {
            let alphabet = Alphabet::standard(2);
            let eqs = vec![
                Equation::parse("A1 A1 = A0", &alphabet).expect("well-formed"),
                Equation::parse("A1 A1 = 0", &alphabet).expect("well-formed"),
            ];
            let mut p = Presentation::new(alphabet, eqs).expect("symbols in range");
            p.saturate_with_zero_equations();
            p
        },
    ];
    let mut corpus = Vec::with_capacity(bases.len() * copies);
    for (b, base) in bases.iter().enumerate() {
        for j in 0..copies {
            // Renamed symbols and rotated equations. Symbol order is
            // preserved: the presentation key ignores names, not indices.
            let alphabet = base.alphabet();
            let names: Vec<String> = (0..alphabet.len())
                .map(|s| format!("S{b}_{j}_{s}"))
                .collect();
            let a0 = names[alphabet.a0().index()].clone();
            let zero = names[alphabet.zero().index()].clone();
            let renamed = Alphabet::new(names, &a0, &zero).expect("distinct names");
            let mut eqs: Vec<Equation> = base
                .equations()
                .iter()
                .map(|eq| {
                    let side =
                        |w: &Word| Word::new(w.syms().iter().copied()).expect("same symbol ids");
                    Equation::new(side(&eq.lhs), side(&eq.rhs))
                })
                .collect();
            let rot = j % eqs.len().max(1);
            eqs.rotate_left(rot);
            corpus.push(Presentation::new(renamed, eqs).expect("same symbol ids"));
        }
    }
    corpus
}

/// An easy-heavy corpus: 48 word-problem instances, each with a distinct
/// canonical key, easy instances first.
///
/// * indices `0..24` — refutable presentations whose frozen goal tableau
///   is already a fixpoint of every dependency: zero-only empties, nil
///   powers, products annihilating to zero, and word-word equations
///   (including `A₀`-free "junk" that grows the dependency set without
///   touching the goal tableau);
/// * indices `24..32` — `A₀ = 0` aliases over small alphabets, with and
///   without extra nil equations: derivable in one step;
/// * indices `32..48` — instances that need a real derivation or
///   countermodel search: short relabel chains, the one-step product
///   chain, the running two-generator example, idempotents, absorptions,
///   and other goal-relevant equations. Each is chosen to keep the full
///   solve in the sub-millisecond range.
///
/// Every presentation keeps its alphabet small (≤ 4 regular symbols): the
/// point of the corpus is the *mix*, not per-instance bulk.
pub fn easy_heavy_corpus() -> Vec<Presentation> {
    let parse = |n: usize, eqs: &[&str]| {
        let alphabet = Alphabet::standard(n);
        let eqs = eqs
            .iter()
            .map(|e| Equation::parse(e, &alphabet).expect("well-formed"))
            .collect();
        let mut p = Presentation::new(alphabet, eqs).expect("symbols in range");
        p.saturate_with_zero_equations();
        p
    };
    let mut corpus = Vec::with_capacity(48);
    // Refutable: zero-only empties.
    corpus.extend((1..=3).map(refutable_with_symbols));
    // Refutable: nil powers and products annihilating to zero.
    corpus.push(parse(1, &["A0 A0 = 0"]));
    corpus.push(parse(1, &["A0 A0 A0 = 0"]));
    corpus.push(parse(2, &["A0 A1 = 0"]));
    corpus.push(parse(2, &["A1 A0 = 0"]));
    corpus.push(parse(2, &["A0 A1 = 0", "A1 A0 = 0"]));
    // Refutable: word-word equations (dependencies live on fresh product
    // symbols, so the goal tableau stays a fixpoint).
    corpus.push(parse(2, &["A0 A0 = A1"]));
    corpus.push(parse(2, &["A0 A0 = A1", "A1 A1 = A1"]));
    corpus.push(parse(1, &["A0 A0 = A0 A0 A0"]));
    corpus.push(parse(2, &["A0 A1 = A1 A1"]));
    corpus.push(parse(2, &["A0 A0 = A1 A1"]));
    corpus.push(parse(2, &["A0 A0 = A1 A0"]));
    // Refutable: `A₀`-free junk equations — the dependency set grows
    // while the goal tableau stays untouched.
    corpus.push(parse(2, &["A1 A1 = A1"]));
    corpus.push(parse(3, &["A1 A1 = A1", "A2 A2 = A2"]));
    corpus.push(parse(3, &["A1 A2 = A2 A1"]));
    corpus.push(parse(2, &["A1 A1 = 0"]));
    corpus.push(parse(3, &["A1 A1 = 0", "A2 A2 = 0"]));
    corpus.push(parse(3, &["A1 A2 = 0"]));
    corpus.push(parse(3, &["A1 A1 = A2"]));
    corpus.push(parse(3, &["A1 A1 = A2", "A2 A2 = 0"]));
    corpus.push(parse(2, &["A1 A1 = A1 A1 A1"]));
    corpus.push(parse(3, &["A1 A2 = A2 A2"]));
    // Derivable aliases, with and without junk.
    corpus.extend((1..=4).map(|n| parse(n, &["A0 = 0"])));
    corpus.push(parse(2, &["A0 = 0", "A1 A1 = 0"]));
    corpus.push(parse(3, &["A0 = 0", "A1 A1 = 0"]));
    corpus.push(parse(4, &["A0 = 0", "A1 A1 = 0"]));
    corpus.push(parse(3, &["A0 = 0", "A1 A2 = 0"]));
    // Hard tail: the search race does the work.
    corpus.extend((1..=3).map(relabel_chain));
    corpus.push(product_chain(1));
    corpus.push(parse(2, &["A1 A1 = A0", "A1 A1 = 0"]));
    corpus.push(parse(1, &["A0 A0 = A0"]));
    corpus.push(parse(2, &["A0 A0 = A0"]));
    corpus.push(parse(3, &["A0 A0 = A0"]));
    corpus.push(parse(2, &["A0 A1 = A0"]));
    corpus.push(parse(2, &["A1 A0 = A0"]));
    corpus.push(parse(2, &["A0 A1 = A0", "A1 A0 = A0"]));
    corpus.push(parse(2, &["A1 A1 = A0"]));
    corpus.push(parse(3, &["A1 A1 = A0"]));
    corpus.push(parse(3, &["A1 A2 = A0"]));
    corpus.push(parse(2, &["A0 = A1"]));
    corpus.push(parse(2, &["A0 A1 = A1 A0", "A1 A1 = A0"]));
    debug_assert_eq!(corpus.len(), 48);
    corpus
}

/// A family of full TDs over an `arity`-column schema: for each adjacent
/// column pair `(i, i+1)`, the "join" dependency that shares column `i`
/// between two rows and re-combines them. All are full, so
/// [`td_core::inference::implies_full`] decides them exactly.
pub fn full_td_family(arity: usize) -> (Schema, Vec<Td>) {
    let names: Vec<String> = (0..arity).map(|i| format!("C{i}")).collect();
    let schema = Schema::new("R", names).expect("distinct names");
    let mut tds = Vec::new();
    for join_col in 0..arity {
        let mut b = TdBuilder::new(schema.clone());
        let row1: Vec<String> = (0..arity).map(|c| format!("x{c}")).collect();
        let row2: Vec<String> = (0..arity)
            .map(|c| {
                if c == join_col {
                    format!("x{c}")
                } else {
                    format!("y{c}")
                }
            })
            .collect();
        // Conclusion: row1's values left of the join column, row2's right.
        let concl: Vec<String> = (0..arity)
            .map(|c| {
                if c <= join_col {
                    format!("x{c}")
                } else {
                    format!("y{c}")
                }
            })
            .collect();
        b = b
            .antecedent(row1.iter().map(String::as_str))
            .expect("arity");
        b = b
            .antecedent(row2.iter().map(String::as_str))
            .expect("arity");
        b = b
            .conclusion(concl.iter().map(String::as_str))
            .expect("arity");
        tds.push(b.build(format!("join-{join_col}")).expect("well-formed"));
    }
    (schema, tds)
}

/// A full-TD decision workload whose chase must materialize two complete
/// products before concluding: `d0` has two groups of `k` antecedent rows,
/// each group sharing its column-0 "hub" variable, and a conclusion that
/// mixes group 0's hub with group 1's attributes. Chasing the frozen
/// tableau with [`full_td_family`]'s join dependencies closes each group
/// into its `k^(arity-1)`-row product, the groups never interact, and the
/// mixed conclusion is never produced — so deciding the (negative)
/// implication costs the full closure. This is the `full_td_decision`
/// bench's large fixture.
pub fn two_star_tableau_goal(schema: &Schema, k: usize) -> Td {
    let arity = schema.arity();
    let mut b = TdBuilder::new(schema.clone());
    let mut rows: Vec<Vec<String>> = Vec::new();
    for g in 0..2usize {
        for r in 0..k {
            let row: Vec<String> = (0..arity)
                .map(|c| {
                    if c == 0 {
                        format!("a{g}")
                    } else {
                        format!("v{g}_{r}_{c}")
                    }
                })
                .collect();
            rows.push(row);
        }
    }
    for r in &rows {
        b = b.antecedent(r.iter().map(String::as_str)).expect("arity");
    }
    let concl: Vec<String> = (0..arity)
        .map(|c| {
            if c == 0 {
                "a0".to_string()
            } else {
                rows[k][c].clone()
            }
        })
        .collect();
    b.conclusion(concl.iter().map(String::as_str))
        .expect("arity")
        .build("two-star")
        .expect("well-formed")
}

/// Random embedded TDs over `schema`: `n_antecedents` rows with variables
/// drawn from a small pool per column, plus a conclusion mixing antecedent
/// variables (per column, probability `existential_pct`% of being
/// existential). Deterministic in `seed`.
pub fn random_td(
    schema: &Schema,
    n_antecedents: usize,
    vars_per_column: u32,
    existential_pct: u32,
    seed: u64,
    name: &str,
) -> Td {
    use td_core::ids::Var;
    use td_core::td::TdRow;
    let mut rng = StdRng::seed_from_u64(seed);
    let arity = schema.arity();
    let antecedents: Vec<TdRow> = (0..n_antecedents)
        .map(|_| TdRow::new((0..arity).map(|_| Var::new(rng.gen_range(0..vars_per_column)))))
        .collect();
    let conclusion = TdRow::new((0..arity).map(|c| {
        if rng.gen_range(0..100u32) < existential_pct {
            Var::new(vars_per_column + 1) // fresh: never used in antecedents
        } else {
            // Reuse a variable seen in this column.
            let row = rng.gen_range(0..n_antecedents);
            antecedents[row].get(td_core::ids::AttrId::from(c))
        }
    }));
    Td::new(schema.clone(), antecedents, conclusion, name).expect("arities match")
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_semigroup::derivation::{search_goal_derivation, SearchBudget};

    #[test]
    fn relabel_chain_derivation_length() {
        for k in 1..=4 {
            let p = relabel_chain(k);
            let r = search_goal_derivation(&p, &SearchBudget::default());
            let d = r.derivation().expect("derivable by construction");
            assert_eq!(d.len(), k + 1, "k={k}");
        }
    }

    #[test]
    fn product_chain_derivation_length() {
        for k in 1..=4 {
            let p = product_chain(k);
            let r = search_goal_derivation(
                &p,
                &SearchBudget {
                    max_word_len: k + 2,
                    max_states: 500_000,
                },
            );
            let d = r.derivation().expect("derivable by construction");
            assert_eq!(d.len(), 2 * k, "k={k}");
        }
    }

    #[test]
    fn nilpotent_workload_scales_linearly() {
        use td_reduction::prelude::*;
        for n in [3usize, 5, 9] {
            let (p, g, interp) = nilpotent_countermodel_workload(n);
            let system = build_system(&p).unwrap();
            let model = build_counter_model(&system, &p, &g, &interp).unwrap();
            assert!(model.len() >= 2 * n - 1, "n={n}: {} rows", model.len());
            assert!(verify_counter_model(&system, &model).ok(), "n={n}");
        }
    }

    #[test]
    fn refutable_family_is_refutable() {
        for n in 1..=3 {
            let p = refutable_with_symbols(n);
            assert!(td_semigroup::families::null_counter_model(&p).is_some());
        }
    }

    #[test]
    fn full_td_family_is_full() {
        let (_, tds) = full_td_family(4);
        assert_eq!(tds.len(), 4);
        assert!(tds.iter().all(Td::is_full));
    }

    #[test]
    fn random_generators_are_deterministic() {
        let s = garment_schema();
        let a = random_instance(&s, 10, 4, 42);
        let b = random_instance(&s, 10, 4, 42);
        assert_eq!(a, b);
        let t1 = random_td(&s, 3, 2, 30, 7, "t");
        let t2 = random_td(&s, 3, 2, 30, 7, "t");
        assert!(t1.eq_up_to_renaming(&t2));
    }

    #[test]
    fn fig1_and_join_relate() {
        use td_core::chase::ChaseBudget;
        use td_core::inference::implies;
        let v = implies(
            std::slice::from_ref(&join_on_supplier()),
            &fig1_td(),
            ChaseBudget::default(),
        )
        .unwrap();
        assert!(v.is_implied());
    }
}
