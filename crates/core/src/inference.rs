//! The inference problem: `D ⊨ D₀`?
//!
//! "A significant question about any class of dependencies is its inference
//! problem: Given a finite set D of dependencies and a single dependency D₀,
//! to determine whether D₀ is true in every database in which each member of
//! D is true."
//!
//! The paper's Main Theorem: for typed template dependencies this problem is
//! **undecidable**, both over arbitrary and over finite databases (the two
//! relevant sets of pairs are even effectively inseparable). Accordingly,
//! [`implies`] is a *semi*-decision procedure with three honest verdicts:
//!
//! * [`InferenceVerdict::Implied`] — with a replayable [`ChaseProof`];
//! * [`InferenceVerdict::NotImplied`] — with a finite countermodel, found
//!   when the chase terminates (its terminal state is a universal model of
//!   `D` containing `D₀`'s frozen antecedents but no conclusion witness);
//! * [`InferenceVerdict::Unknown`] — budget exhausted.
//!
//! For **full** dependencies the chase never invents values, so it always
//! terminates: [`implies_full`] decides implication outright (the decidable
//! fragment the paper contrasts against).

use crate::chase::{
    weakly_acyclic, ChaseBudget, ChaseEngine, ChaseOutcome, ChasePolicy, ChaseProof, Goal,
};
use crate::error::{CoreError, Result};
use crate::homomorphism::{Binding, MatchStrategy};
use crate::ids::Value;
use crate::instance::Instance;
use crate::td::Td;
use crate::tuple::Tuple;

/// Outcome of an implication query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferenceVerdict {
    /// `D ⊨ D₀`, certified by a chase proof over the frozen tableau.
    Implied(ChaseProof),
    /// `D ⊭ D₀`, certified by a finite database satisfying every member of
    /// `D` whose frozen `D₀`-antecedents have no conclusion witness.
    NotImplied(Instance),
    /// The chase budget ran out first. (Unavoidable in general: the problem
    /// is undecidable.)
    Unknown(UnknownReport),
}

impl InferenceVerdict {
    /// `true` for [`InferenceVerdict::Implied`].
    pub fn is_implied(&self) -> bool {
        matches!(self, InferenceVerdict::Implied(_))
    }

    /// `true` for [`InferenceVerdict::NotImplied`].
    pub fn is_not_implied(&self) -> bool {
        matches!(self, InferenceVerdict::NotImplied(_))
    }

    /// `true` for [`InferenceVerdict::Unknown`].
    pub fn is_unknown(&self) -> bool {
        matches!(self, InferenceVerdict::Unknown(_))
    }
}

/// Statistics reported when a query exhausts its budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownReport {
    /// Triggers fired before giving up.
    pub steps_fired: usize,
    /// Rounds completed before giving up.
    pub rounds_run: usize,
    /// Rows in the chase state when the budget ran out.
    pub state_rows: usize,
}

/// Freezes the antecedent tableau of `d0`: each distinct variable becomes a
/// distinct constant (per column — domains are disjoint). Returns the frozen
/// instance, the freezing binding, and the goal pattern for `d0`'s
/// conclusion (frozen constants on universally quantified columns, wildcards
/// on existentially quantified ones).
///
/// # Errors
///
/// Fails only if a frozen row is rejected by the instance (arity
/// mismatch — impossible for a validated [`Td`]).
pub fn freeze(d0: &Td) -> Result<(Instance, Binding, Goal)> {
    let mut instance = Instance::new(d0.schema().clone());
    let mut binding = Binding::new(d0.arity());
    for row in d0.antecedents() {
        let mut vals = Vec::with_capacity(d0.arity());
        for (c, v) in row.components() {
            let val = match binding.get(c, v) {
                Some(val) => val,
                None => {
                    // Variable ids are reused as value ids: frozen constants.
                    let val = Value::new(v.raw());
                    binding.bind(c, v, val);
                    val
                }
            };
            vals.push(val);
        }
        instance.insert(Tuple::new(vals))?;
    }
    let goal = Goal::new(
        d0.conclusion()
            .components()
            .map(|(c, v)| binding.get(c, v))
            .collect(),
    );
    Ok((instance, binding, goal))
}

/// Semi-decides `d ⊨ d0` by chasing `d0`'s frozen tableau with `d`, using
/// the default [`MatchStrategy::Indexed`] matcher.
///
/// # Errors
///
/// Fails when the dependencies disagree on schema (see
/// [`implies_with_strategy`]).
pub fn implies(d: &[Td], d0: &Td, budget: ChaseBudget) -> Result<InferenceVerdict> {
    implies_with_strategy(d, d0, budget, MatchStrategy::default())
}

/// [`implies`] under an explicit homomorphism [`MatchStrategy`]. The
/// verdict must not depend on the strategy (the differential property
/// tests enforce this); the naive strategy exists as the audit oracle.
///
/// # Errors
///
/// Fails when any member of `d` disagrees with `d0` on schema, or when
/// freezing `d0` or constructing the chase engine fails.
pub fn implies_with_strategy(
    d: &[Td],
    d0: &Td,
    budget: ChaseBudget,
    strategy: MatchStrategy,
) -> Result<InferenceVerdict> {
    for td in d {
        d0.schema().expect_same(td.schema())?;
    }
    let (frozen, _, goal) = freeze(d0)?;
    let mut engine =
        ChaseEngine::new(d, frozen, ChasePolicy::Restricted, budget)?.with_strategy(strategy);
    match engine.run(Some(&goal)) {
        ChaseOutcome::GoalReached => {
            let (_, proof) = engine.into_parts();
            Ok(InferenceVerdict::Implied(proof))
        }
        ChaseOutcome::Terminated => {
            let (state, _) = engine.into_parts();
            Ok(InferenceVerdict::NotImplied(state))
        }
        ChaseOutcome::BudgetExhausted => Ok(InferenceVerdict::Unknown(UnknownReport {
            steps_fired: engine.steps_fired(),
            rounds_run: engine.rounds_run(),
            state_rows: engine.state().len(),
        })),
    }
}

/// Decides `d ⊨ d0` for a set of **full** dependencies `d` (the conclusion
/// of every member of `d` uses only antecedent variables). The chase then
/// never invents values, so the state stays inside the frozen tableau's
/// active domain and the run must terminate.
///
/// `d0` itself may be full or embedded. Returns an error if some member of
/// `d` is embedded.
pub fn implies_full(d: &[Td], d0: &Td) -> Result<bool> {
    for td in d {
        if !td.is_full() {
            return Err(CoreError::ProofReplay(format!(
                "implies_full requires full dependencies, but `{}` is embedded",
                td.name()
            )));
        }
    }
    debug_assert!(weakly_acyclic(d), "full TDs are trivially weakly acyclic");
    match implies(d, d0, ChaseBudget::unlimited())? {
        InferenceVerdict::Implied(_) => Ok(true),
        InferenceVerdict::NotImplied(_) => Ok(false),
        InferenceVerdict::Unknown(_) => {
            unreachable!("the chase with full TDs always terminates")
        }
    }
}

/// Tests whether two dependency sets imply each other (up to the budget).
/// Returns one verdict per member of `d2` for `d1 ⊨ d2[i]`, and vice versa.
///
/// # Errors
///
/// Fails on the first [`implies`] call that errors (schema mismatch
/// between the sets).
pub fn equivalent(
    d1: &[Td],
    d2: &[Td],
    budget: ChaseBudget,
) -> Result<(Vec<InferenceVerdict>, Vec<InferenceVerdict>)> {
    let forward = d2
        .iter()
        .map(|t| implies(d1, t, budget))
        .collect::<Result<Vec<_>>>()?;
    let backward = d1
        .iter()
        .map(|t| implies(d2, t, budget))
        .collect::<Result<Vec<_>>>()?;
    Ok((forward, backward))
}

/// Is `d[index]` redundant, i.e. implied by the rest of the set? (One of the
/// applications the paper lists: "the ability to determine … whether a set
/// of dependencies is redundant".)
///
/// # Errors
///
/// Fails when the set members disagree on schema.
pub fn redundant(d: &[Td], index: usize, budget: ChaseBudget) -> Result<InferenceVerdict> {
    redundant_with(d, index, budget, MatchStrategy::default())
}

/// [`redundant`] under an explicit homomorphism [`MatchStrategy`] (the
/// CLI's `tdq deps --strategy` differential path).
///
/// # Errors
///
/// Fails when the set members disagree on schema.
pub fn redundant_with(
    d: &[Td],
    index: usize,
    budget: ChaseBudget,
    strategy: MatchStrategy,
) -> Result<InferenceVerdict> {
    let rest: Vec<Td> = d
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != index)
        .map(|(_, t)| t.clone())
        .collect();
    implies_with_strategy(&rest, &d[index], budget, strategy)
}

/// **Finite implication**, dovetailed: runs the chase (a proof of
/// unrestricted — hence also finite — implication) *and* a bounded
/// exhaustive search for small finite countermodels, returning whichever
/// side succeeds first.
///
/// The paper proves finite implication undecidable too (and Fagin et al.
/// 1981 showed it genuinely differs from unrestricted implication for TDs),
/// so this remains a partial procedure — but unlike [`implies`] it can
/// refute implications whose chase diverges, as long as a countermodel
/// exists within `search`'s bounds.
///
/// # Errors
///
/// Fails when the dependencies disagree on schema (see [`implies`]).
pub fn implies_finite(
    d: &[Td],
    d0: &Td,
    budget: ChaseBudget,
    search: &crate::countermodel::SearchOptions,
) -> Result<InferenceVerdict> {
    match implies(d, d0, budget)? {
        InferenceVerdict::Unknown(report) => {
            // The chase could not settle it; try small models.
            match crate::countermodel::search_countermodel(d, d0, search) {
                crate::countermodel::SearchOutcome::Found(model) => {
                    Ok(InferenceVerdict::NotImplied(model))
                }
                _ => Ok(InferenceVerdict::Unknown(report)),
            }
        }
        settled => Ok(settled),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::satisfaction::{satisfies, satisfies_all};
    use crate::schema::Schema;
    use crate::td::TdBuilder;

    fn schema() -> Schema {
        Schema::new("R", ["A", "B", "C"]).unwrap()
    }

    fn fig1() -> Td {
        TdBuilder::new(schema())
            .antecedent(["a", "b", "c"])
            .unwrap()
            .antecedent(["a", "b'", "c'"])
            .unwrap()
            .conclusion(["*", "b", "c'"])
            .unwrap()
            .build("fig1")
            .unwrap()
    }

    #[test]
    fn freeze_builds_goal_correctly() {
        let (frozen, _, goal) = freeze(&fig1()).unwrap();
        assert_eq!(frozen.len(), 2);
        // Goal: A wildcard (existential), B and C frozen constants.
        assert_eq!(goal.pattern()[0], None);
        assert!(goal.pattern()[1].is_some());
        assert!(goal.pattern()[2].is_some());
    }

    #[test]
    fn every_td_implies_itself() {
        let td = fig1();
        let verdict = implies(std::slice::from_ref(&td), &td, ChaseBudget::default()).unwrap();
        match verdict {
            InferenceVerdict::Implied(proof) => {
                let (frozen, _, goal) = freeze(&td).unwrap();
                proof
                    .verify(&frozen, std::slice::from_ref(&td), Some(&goal))
                    .unwrap();
            }
            other => panic!("expected Implied, got {other:?}"),
        }
    }

    #[test]
    fn trivial_td_implied_by_empty_set() {
        let td = TdBuilder::new(schema())
            .antecedent(["a", "b", "c"])
            .unwrap()
            .conclusion(["a", "b", "*"])
            .unwrap()
            .build("triv")
            .unwrap();
        assert!(td.is_trivial());
        let verdict = implies(&[], &td, ChaseBudget::default()).unwrap();
        assert!(verdict.is_implied(), "{verdict:?}");
    }

    #[test]
    fn nontrivial_td_not_implied_by_empty_set() {
        let verdict = implies(&[], &fig1(), ChaseBudget::default()).unwrap();
        match verdict {
            InferenceVerdict::NotImplied(model) => {
                // The countermodel is just the frozen tableau.
                assert_eq!(model.len(), 2);
                assert!(!satisfies(&model, &fig1()));
            }
            other => panic!("expected NotImplied, got {other:?}"),
        }
    }

    #[test]
    fn transitivity_style_inference() {
        // d1: R(a,b,c) & R(a,b',c') => R(a, b, c')   (full: join on A)
        let d1 = TdBuilder::new(schema())
            .antecedent(["a", "b", "c"])
            .unwrap()
            .antecedent(["a", "b'", "c'"])
            .unwrap()
            .conclusion(["a", "b", "c'"])
            .unwrap()
            .build("d1")
            .unwrap();
        // d0: the weaker fig1 (existential supplier). d1 ⊨ d0.
        let verdict = implies(std::slice::from_ref(&d1), &fig1(), ChaseBudget::default()).unwrap();
        assert!(verdict.is_implied(), "{verdict:?}");
        // And not conversely: fig1 ⊭ d1.
        let verdict = implies(std::slice::from_ref(&fig1()), &d1, ChaseBudget::default()).unwrap();
        match verdict {
            InferenceVerdict::NotImplied(model) => {
                assert!(satisfies(&model, &fig1()));
                assert!(!satisfies(&model, &d1));
            }
            InferenceVerdict::Unknown(_) => {
                // Acceptable only if budget ran out; it should not here.
                panic!("budget should suffice");
            }
            InferenceVerdict::Implied(_) => panic!("fig1 must not imply d1"),
        }
    }

    #[test]
    fn full_decision_procedure() {
        let d1 = TdBuilder::new(schema())
            .antecedent(["a", "b", "c"])
            .unwrap()
            .antecedent(["a", "b'", "c'"])
            .unwrap()
            .conclusion(["a", "b", "c'"])
            .unwrap()
            .build("d1")
            .unwrap();
        assert!(implies_full(std::slice::from_ref(&d1), &fig1()).unwrap());
        assert!(!implies_full(std::slice::from_ref(&d1), &{
            // R(a,b,c) => R(a',b,c) for a *different* a' — not implied.
            TdBuilder::new(schema())
                .antecedent(["a", "b", "c"])
                .unwrap()
                .antecedent(["a'", "b'", "c'"])
                .unwrap()
                .conclusion(["a'", "b", "c"])
                .unwrap()
                .build("cross")
                .unwrap()
        })
        .unwrap());
        // Rejects embedded premises.
        assert!(implies_full(std::slice::from_ref(&fig1()), &d1).is_err());
    }

    #[test]
    fn unknown_on_divergent_instance() {
        // Two embedded dependencies that feed each other's existential
        // columns with conclusions mixing rows (so the restricted chase
        // really fires): t1 invents C-values for new (A,B) combinations,
        // t2 invents B-values for new (A,C) combinations — the special-edge
        // graph has the cycle B -> C -> B and the chase diverges.
        let t1 = TdBuilder::new(schema())
            .antecedent(["a", "b", "c"])
            .unwrap()
            .antecedent(["a'", "b'", "c'"])
            .unwrap()
            .conclusion(["a'", "b", "*"])
            .unwrap()
            .build("t1")
            .unwrap();
        let t2 = TdBuilder::new(schema())
            .antecedent(["a", "b", "c"])
            .unwrap()
            .antecedent(["a'", "b'", "c'"])
            .unwrap()
            .conclusion(["a", "*", "c'"])
            .unwrap()
            .build("t2")
            .unwrap();
        assert!(!crate::chase::weakly_acyclic(&[t1.clone(), t2.clone()]));
        // Goal that the chase can never reach: a full conclusion whose C
        // component must equal a frozen constant, while the chase only ever
        // invents fresh B/C values.
        let d0 = TdBuilder::new(schema())
            .antecedent(["a", "b", "c"])
            .unwrap()
            .antecedent(["a'", "b'", "c'"])
            .unwrap()
            .conclusion(["a", "b'", "c"])
            .unwrap()
            .build("d0")
            .unwrap();
        let budget = ChaseBudget {
            max_steps: 50,
            max_rows: 100,
            max_rounds: 5,
        };
        let verdict = implies(&[t1, t2], &d0, budget).unwrap();
        match verdict {
            InferenceVerdict::Unknown(report) => {
                assert!(report.steps_fired > 0, "the chase must actually fire");
            }
            other => panic!("expected Unknown on a divergent instance, got {other:?}"),
        }
    }

    #[test]
    fn finite_implication_refutes_where_chase_diverges() {
        // The divergent pair from `unknown_on_divergent_instance`, but with
        // the dovetailed procedure: a 2-row countermodel exists.
        let t1 = TdBuilder::new(schema())
            .antecedent(["a", "b", "c"])
            .unwrap()
            .antecedent(["a'", "b'", "c'"])
            .unwrap()
            .conclusion(["a'", "b", "*"])
            .unwrap()
            .build("t1")
            .unwrap();
        let t2 = TdBuilder::new(schema())
            .antecedent(["a", "b", "c"])
            .unwrap()
            .antecedent(["a'", "b'", "c'"])
            .unwrap()
            .conclusion(["a", "*", "c'"])
            .unwrap()
            .build("t2")
            .unwrap();
        let d0 = TdBuilder::new(schema())
            .antecedent(["a", "b", "c"])
            .unwrap()
            .antecedent(["a'", "b'", "c'"])
            .unwrap()
            .conclusion(["a", "b'", "c"])
            .unwrap()
            .build("d0")
            .unwrap();
        let budget = ChaseBudget {
            max_steps: 50,
            max_rows: 100,
            max_rounds: 5,
        };
        // Plain chase: unknown.
        assert!(implies(&[t1.clone(), t2.clone()], &d0, budget)
            .unwrap()
            .is_unknown());
        // Dovetailed: refuted by a small finite model.
        let search = crate::countermodel::SearchOptions {
            max_rows: 3,
            max_values_per_column: 3,
            max_candidates: 500_000,
        };
        match implies_finite(&[t1.clone(), t2.clone()], &d0, budget, &search).unwrap() {
            InferenceVerdict::NotImplied(model) => {
                assert!(satisfies_all(&model, &[t1, t2]));
                assert!(!satisfies(&model, &d0));
            }
            other => panic!("expected NotImplied, got {other:?}"),
        }
    }

    #[test]
    fn finite_implication_agrees_when_chase_settles() {
        let d1 = TdBuilder::new(schema())
            .antecedent(["a", "b", "c"])
            .unwrap()
            .antecedent(["a", "b'", "c'"])
            .unwrap()
            .conclusion(["a", "b", "c'"])
            .unwrap()
            .build("d1")
            .unwrap();
        let search = crate::countermodel::SearchOptions::default();
        let v = implies_finite(
            std::slice::from_ref(&d1),
            &fig1(),
            ChaseBudget::default(),
            &search,
        )
        .unwrap();
        assert!(v.is_implied());
    }

    #[test]
    fn redundancy_detection() {
        let d1 = TdBuilder::new(schema())
            .antecedent(["a", "b", "c"])
            .unwrap()
            .antecedent(["a", "b'", "c'"])
            .unwrap()
            .conclusion(["a", "b", "c'"])
            .unwrap()
            .build("strong")
            .unwrap();
        let set = vec![d1, fig1()];
        // fig1 is implied by `strong`, hence redundant in the set.
        let verdict = redundant(&set, 1, ChaseBudget::default()).unwrap();
        assert!(verdict.is_implied());
        // `strong` is not implied by fig1.
        let verdict = redundant(&set, 0, ChaseBudget::default()).unwrap();
        assert!(verdict.is_not_implied());
    }

    #[test]
    fn equivalence_of_renamed_sets() {
        let a = vec![fig1()];
        let b = vec![fig1().renamed("other-name")];
        let (fwd, bwd) = equivalent(&a, &b, ChaseBudget::default()).unwrap();
        assert!(fwd.iter().all(InferenceVerdict::is_implied));
        assert!(bwd.iter().all(InferenceVerdict::is_implied));
    }

    #[test]
    fn countermodels_satisfy_premises() {
        // Whenever NotImplied is returned, the model must satisfy D and
        // violate D0 — check on a couple of instances.
        let d1 = TdBuilder::new(schema())
            .antecedent(["a", "b", "c"])
            .unwrap()
            .antecedent(["a", "b'", "c'"])
            .unwrap()
            .conclusion(["a", "b'", "c"])
            .unwrap()
            .build("swap")
            .unwrap();
        let d0 = TdBuilder::new(schema())
            .antecedent(["a", "b", "c"])
            .unwrap()
            .antecedent(["a'", "b", "c'"])
            .unwrap()
            .conclusion(["a'", "b", "c"])
            .unwrap()
            .build("join-b")
            .unwrap();
        if let InferenceVerdict::NotImplied(model) =
            implies(std::slice::from_ref(&d1), &d0, ChaseBudget::default()).unwrap()
        {
            assert!(satisfies_all(&model, std::slice::from_ref(&d1)));
            assert!(!satisfies(&model, &d0));
        } else {
            panic!("expected NotImplied");
        }
    }
}
