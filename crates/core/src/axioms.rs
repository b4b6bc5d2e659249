//! A sound weakening calculus for template dependencies.
//!
//! The paper builds on Sadri & Ullman's axiomatization of TDs ("Template
//! dependencies: A large class of dependencies in relational databases and
//! its complete axiomatization"). This module implements the *syntactic*
//! side of that theory: transformations that produce logically weaker
//! dependencies, plus the subsumption test underlying the axiomatization's
//! soundness arguments.
//!
//! * [`Weakening::AddAntecedent`] — extra antecedent rows only make the
//!   premise harder to match;
//! * [`Weakening::ExistentializeColumn`] — replacing the conclusion's
//!   component in one column with a fresh variable asks for less;
//! * [`Weakening::MergeAntecedentVars`] — identifying two variables in a
//!   column strengthens the premise pattern, hence weakens the dependency;
//! * [`subsumes`] — the homomorphism test: `general` implies `specific` in
//!   "zero or one chase steps". Complete for single-step consequences;
//!   the full implication problem is of course undecidable (the paper), so
//!   [`crate::inference::implies`] remains the general tool.
//!
//! Every rule's soundness is cross-validated against the chase in tests.

use std::collections::HashMap;

use crate::budget::{Cancellation, Ticker};
use crate::error::{CoreError, Result};
use crate::homomorphism::{match_first, Binding};
use crate::ids::{AttrId, Var};
use crate::inference::freeze;
use crate::instance::Instance;
use crate::td::{Td, TdRow};

/// A weakening transformation: applied to `td`, yields a dependency that
/// `td` logically implies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Weakening {
    /// Append an extra antecedent row (given as raw per-column variables;
    /// variables may be shared with existing rows).
    AddAntecedent(TdRow),
    /// Replace the conclusion variable in this column by a fresh one
    /// (making that component existentially quantified).
    ExistentializeColumn(AttrId),
    /// In `column`, replace every occurrence of `from` by `into`
    /// (identifying the two variables throughout the dependency).
    MergeAntecedentVars {
        /// The column whose variables are merged.
        column: AttrId,
        /// The variable being replaced.
        from: Var,
        /// The replacement variable.
        into: Var,
    },
}

/// Applies a weakening. The result carries a derived name.
///
/// # Errors
///
/// Fails on an arity mismatch between the added antecedent row and the
/// dependency, on a column index outside the schema, or when the
/// weakened dependency no longer validates under [`Td::new`].
pub fn apply(td: &Td, w: &Weakening) -> Result<Td> {
    match w {
        Weakening::AddAntecedent(row) => {
            if row.arity() != td.arity() {
                return Err(CoreError::ArityMismatch {
                    expected: td.arity(),
                    got: row.arity(),
                });
            }
            let mut antecedents = td.antecedents().to_vec();
            antecedents.push(row.clone());
            Td::new(
                td.schema().clone(),
                antecedents,
                td.conclusion().clone(),
                format!("{}+ante", td.name()),
            )
        }
        Weakening::ExistentializeColumn(col) => {
            if col.index() >= td.arity() {
                return Err(CoreError::UnknownAttribute(format!("{col}")));
            }
            let maxes = td.max_var_per_column();
            let fresh = Var::new(maxes[col.index()].map(|v| v.raw() + 1).unwrap_or(0));
            let mut conclusion = td.conclusion().clone();
            let cells: Vec<Var> = conclusion
                .components()
                .map(|(c, v)| if c == *col { fresh } else { v })
                .collect();
            conclusion = TdRow::new(cells);
            Td::new(
                td.schema().clone(),
                td.antecedents().to_vec(),
                conclusion,
                format!("{}∃{}", td.name(), td.schema().attr_name(*col)),
            )
        }
        Weakening::MergeAntecedentVars { column, from, into } => {
            if column.index() >= td.arity() {
                return Err(CoreError::UnknownAttribute(format!("{column}")));
            }
            let map_row =
                |row: &TdRow| {
                    TdRow::new(row.components().map(|(c, v)| {
                        if c == *column && v == *from {
                            *into
                        } else {
                            v
                        }
                    }))
                };
            let antecedents = td.antecedents().iter().map(map_row).collect();
            let conclusion = map_row(td.conclusion());
            Td::new(
                td.schema().clone(),
                antecedents,
                conclusion,
                format!("{}·merge", td.name()),
            )
        }
    }
}

/// Applies a sequence of weakenings.
///
/// # Errors
///
/// Fails on the first weakening [`apply`] rejects.
pub fn apply_all(td: &Td, ws: &[Weakening]) -> Result<Td> {
    let mut cur = td.clone();
    for w in ws {
        cur = apply(&cur, w)?;
    }
    Ok(cur)
}

/// The subsumption (one-step implication) test: `true` iff `specific`'s
/// frozen antecedent tableau, chased with `general` for **at most one
/// step**, witnesses `specific`'s conclusion. Sound for implication;
/// complete only for single-step consequences.
///
/// # Errors
///
/// Fails when the two dependencies disagree on schema, or when freezing
/// `specific`'s antecedent tableau fails.
pub fn subsumes(general: &Td, specific: &Td) -> Result<bool> {
    general.schema().expect_same(specific.schema())?;
    let (frozen, _, goal) = freeze(specific)?;
    Ok(subsumes_frozen(general, &frozen, &goal))
}

/// The matching half of [`subsumes`], against an already-frozen target
/// tableau and goal pattern. A caller scanning many candidate premises
/// against one target freezes it once, instead of paying one [`freeze`]
/// allocation per candidate.
pub fn subsumes_frozen(general: &Td, frozen: &Instance, goal: &crate::chase::Goal) -> bool {
    // Zero steps: the goal may already be witnessed.
    if goal.find_in(frozen).is_some() {
        return true;
    }
    // One step: some trigger of `general` lands a goal-matching row.
    let mut found = false;
    crate::homomorphism::for_each_match(
        general.antecedents(),
        frozen,
        &Binding::new(general.arity()),
        |binding| {
            // Build the conclusion under this trigger; unbound (existential)
            // columns match any goal constraint only if the goal is a
            // wildcard there.
            let ok = general
                .conclusion()
                .components()
                .zip(goal.pattern())
                .all(|((c, v), want)| match (binding.get(c, v), want) {
                    (_, None) => true,
                    (Some(val), Some(w)) => val == *w,
                    (None, Some(_)) => false,
                });
            if ok {
                found = true;
                std::ops::ControlFlow::Break(())
            } else {
                std::ops::ControlFlow::Continue(())
            }
        },
    );
    found
}

/// Enumerates the "obvious" weakenings of `td` (used by tests and by
/// minimization heuristics): one `ExistentializeColumn` per universal
/// conclusion column, one `MergeAntecedentVars` per mergeable variable pair
/// per column, and one duplicated antecedent row.
pub fn canonical_weakenings(td: &Td) -> Vec<Weakening> {
    let mut out = Vec::new();
    for c in td.schema().attr_ids() {
        if td.is_universal_at(c) {
            out.push(Weakening::ExistentializeColumn(c));
        }
    }
    for c in td.schema().attr_ids() {
        let mut seen: Vec<Var> = Vec::new();
        for row in td.antecedents() {
            let v = row.get(c);
            if !seen.contains(&v) {
                seen.push(v);
            }
        }
        for i in 0..seen.len() {
            for j in i + 1..seen.len() {
                out.push(Weakening::MergeAntecedentVars {
                    column: c,
                    from: seen[j],
                    into: seen[i],
                });
            }
        }
    }
    if let Some(first) = td.antecedents().first() {
        out.push(Weakening::AddAntecedent(first.clone()));
    }
    out
}

/// Checks `instance ⊨ general ⇒ instance ⊨ specific` *on this instance* —
/// a cheap falsification helper used when hunting for unsound rules.
pub fn implication_holds_on(instance: &Instance, general: &Td, specific: &Td) -> bool {
    !crate::satisfaction::satisfies(instance, general)
        || crate::satisfaction::satisfies(instance, specific)
}

/// Renames all variables per column by an arbitrary injective map — a
/// semantics-preserving transformation (used to test invariance).
pub fn rename_vars(td: &Td, offset: u32) -> Td {
    let arity = td.arity();
    let mut maps: Vec<HashMap<Var, Var>> = vec![HashMap::new(); arity];
    let map_row = |row: &TdRow, maps: &mut Vec<HashMap<Var, Var>>| {
        TdRow::new(row.components().map(|(c, v)| {
            *maps[c.index()]
                .entry(v)
                .or_insert_with(|| Var::new(v.raw() + offset))
        }))
    };
    let antecedents = td
        .antecedents()
        .iter()
        .map(|r| map_row(r, &mut maps))
        .collect();
    let conclusion = map_row(td.conclusion(), &mut maps);
    Td::new(td.schema().clone(), antecedents, conclusion, td.name()).expect("arities unchanged")
}

/// `true` if `specific` is syntactically reachable from `general` by the
/// canonical weakenings within `depth` steps (a tiny proof search; sound by
/// construction, nowhere near complete — see module docs).
pub fn derivable_by_weakening(general: &Td, specific: &Td, depth: usize) -> bool {
    // An effectively unbounded ticker: the historical entry point explores
    // the whole depth-bounded tree, exactly as before the budgeted variant
    // existed.
    let never = Cancellation::new();
    let mut ticker = Ticker::new(&never, u64::MAX, u64::MAX);
    derivable_by_weakening_within(general, specific, depth, &mut ticker)
}

/// [`derivable_by_weakening`] under an explicit spend budget: every node
/// of the proof search (every weakened dependency compared against the
/// target) costs one [`Ticker`] unit, so a caller gets a hard,
/// deterministic bound on the exponential tree instead of trusting
/// `depth` alone.
///
/// Returns `false` once the ticker stops; that read is *not derivable
/// within budget*, which is sound either way (a `true` is always backed by
/// a real weakening chain). The ticker's spend is shared across calls, so
/// a caller can budget one pool over many premises.
pub fn derivable_by_weakening_within(
    general: &Td,
    specific: &Td,
    depth: usize,
    ticker: &mut Ticker<'_>,
) -> bool {
    if !ticker.tick() {
        return false;
    }
    if general.eq_up_to_renaming(specific) {
        return true;
    }
    if depth == 0 {
        return false;
    }
    for w in canonical_weakenings(general) {
        // Once the ticker stops, every descendant's entry tick fails; bail
        // out instead of cloning and applying the remaining weakenings at
        // every level of the tree. Spend is unchanged (those ticks never
        // succeed), so replay determinism is preserved.
        if ticker.stopped() {
            return false;
        }
        if let Ok(next) = apply(general, &w) {
            if derivable_by_weakening_within(&next, specific, depth - 1, ticker) {
                return true;
            }
        }
    }
    false
}

/// One-step conclusion-witness check reused by [`subsumes`] callers that
/// already have a frozen tableau (exposed for the test suite).
pub fn witnessed_in(instance: &Instance, td: &Td, binding: &Binding) -> bool {
    match_first(std::slice::from_ref(td.conclusion()), instance, binding).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::ChaseBudget;
    use crate::inference::{implies, InferenceVerdict};
    use crate::schema::Schema;
    use crate::td::TdBuilder;

    fn schema() -> Schema {
        Schema::new("R", ["A", "B", "C"]).unwrap()
    }

    fn base() -> Td {
        TdBuilder::new(schema())
            .antecedent(["a", "b", "c"])
            .unwrap()
            .antecedent(["a", "b'", "c'"])
            .unwrap()
            .conclusion(["a", "b", "c'"])
            .unwrap()
            .build("join-a")
            .unwrap()
    }

    /// Every canonical weakening is sound: td ⊨ apply(td, w), verified by
    /// the chase.
    #[test]
    fn canonical_weakenings_are_sound() {
        let td = base();
        for w in canonical_weakenings(&td) {
            let weaker = apply(&td, &w).unwrap();
            let verdict =
                implies(std::slice::from_ref(&td), &weaker, ChaseBudget::default()).unwrap();
            assert!(
                verdict.is_implied(),
                "weakening {w:?} produced a non-implied {weaker}"
            );
        }
    }

    /// Existentialization is strictly weakening (not equivalent) when the
    /// column was meaningfully constrained.
    #[test]
    fn existentialization_is_strict() {
        let td = base();
        let weaker = apply(&td, &Weakening::ExistentializeColumn(AttrId::new(0))).unwrap();
        assert!(weaker.is_embedded());
        let verdict = implies(std::slice::from_ref(&weaker), &td, ChaseBudget::default()).unwrap();
        assert!(matches!(verdict, InferenceVerdict::NotImplied(_)));
    }

    #[test]
    fn merge_vars_is_sound_and_changes_pattern() {
        let td = base();
        // Merge b and b' (column B).
        let b = td.antecedents()[0].get(AttrId::new(1));
        let b2 = td.antecedents()[1].get(AttrId::new(1));
        let merged = apply(
            &td,
            &Weakening::MergeAntecedentVars {
                column: AttrId::new(1),
                from: b2,
                into: b,
            },
        )
        .unwrap();
        // Merged: R(a,b,c) & R(a,b,c') => R(a,b,c') — trivial, actually.
        assert!(merged.is_trivial());
        assert!(
            implies(std::slice::from_ref(&td), &merged, ChaseBudget::default())
                .unwrap()
                .is_implied()
        );
    }

    #[test]
    fn add_antecedent_duplicates_are_equivalent() {
        let td = base();
        let dup = apply(&td, &Weakening::AddAntecedent(td.antecedents()[0].clone())).unwrap();
        assert_eq!(dup.antecedent_count(), 3);
        // Both directions hold: duplicating a row changes nothing.
        assert!(
            implies(std::slice::from_ref(&td), &dup, ChaseBudget::default())
                .unwrap()
                .is_implied()
        );
        assert!(
            implies(std::slice::from_ref(&dup), &td, ChaseBudget::default())
                .unwrap()
                .is_implied()
        );
    }

    #[test]
    fn subsumption_matches_single_step_chase() {
        let td = base();
        // fig1-like weakening is subsumed in one step.
        let fig1 = TdBuilder::new(schema())
            .antecedent(["a", "b", "c"])
            .unwrap()
            .antecedent(["a", "b'", "c'"])
            .unwrap()
            .conclusion(["*", "b", "c'"])
            .unwrap()
            .build("fig1")
            .unwrap();
        assert!(subsumes(&td, &fig1).unwrap());
        // Trivial goals are subsumed in zero steps.
        let trivial = TdBuilder::new(schema())
            .antecedent(["a", "b", "c"])
            .unwrap()
            .conclusion(["a", "b", "*"])
            .unwrap()
            .build("triv")
            .unwrap();
        assert!(subsumes(&td, &trivial).unwrap());
        // The reverse direction fails.
        assert!(!subsumes(&fig1, &td).unwrap());
    }

    #[test]
    fn subsumption_sound_wrt_chase() {
        let td = base();
        for w in canonical_weakenings(&td) {
            let weaker = apply(&td, &w).unwrap();
            if subsumes(&td, &weaker).unwrap() {
                assert!(
                    implies(std::slice::from_ref(&td), &weaker, ChaseBudget::default())
                        .unwrap()
                        .is_implied()
                );
            }
        }
    }

    #[test]
    fn weakening_search_finds_short_derivations() {
        let td = base();
        let fig1 = TdBuilder::new(schema())
            .antecedent(["a", "b", "c"])
            .unwrap()
            .antecedent(["a", "b'", "c'"])
            .unwrap()
            .conclusion(["*", "b", "c'"])
            .unwrap()
            .build("fig1")
            .unwrap();
        assert!(derivable_by_weakening(&td, &fig1, 1));
        assert!(!derivable_by_weakening(&fig1, &td, 2));
        // Depth 0 only matches syntactic equality (mod renaming).
        assert!(derivable_by_weakening(&td, &rename_vars(&td, 40), 0));
    }

    /// The budgeted variant agrees with the unbudgeted search when the
    /// budget suffices, refuses (soundly) when starved, and reports an
    /// exact, deterministic spend on exhaustion.
    #[test]
    fn budgeted_weakening_search_is_sound_and_deterministic() {
        let td = base();
        let fig1 = TdBuilder::new(schema())
            .antecedent(["a", "b", "c"])
            .unwrap()
            .antecedent(["a", "b'", "c'"])
            .unwrap()
            .conclusion(["*", "b", "c'"])
            .unwrap()
            .build("fig1")
            .unwrap();
        let never = Cancellation::new();

        // Ample budget: agrees with the unbudgeted search.
        let mut ample = Ticker::new(&never, 10_000, u64::MAX);
        assert!(derivable_by_weakening_within(&td, &fig1, 1, &mut ample));
        let found_at = ample.spent();
        assert!(found_at >= 1);

        // Starved budget: refuses without finding, spend exactly the cap.
        let mut starved = Ticker::new(&never, 1, u64::MAX);
        assert!(!derivable_by_weakening_within(&td, &fig1, 1, &mut starved));
        assert!(starved.exhausted());
        assert_eq!(starved.spent(), 1);

        // Replaying the ample search spends identically: the tree walk is
        // deterministic.
        let mut replay = Ticker::new(&never, 10_000, u64::MAX);
        assert!(derivable_by_weakening_within(&td, &fig1, 1, &mut replay));
        assert_eq!(replay.spent(), found_at);

        // One shared ticker across premises: spend accumulates.
        let mut shared = Ticker::new(&never, 10_000, u64::MAX);
        assert!(derivable_by_weakening_within(&td, &fig1, 1, &mut shared));
        assert!(derivable_by_weakening_within(&td, &fig1, 1, &mut shared));
        assert_eq!(shared.spent(), 2 * found_at);
    }

    #[test]
    fn renaming_preserves_semantics() {
        let td = base();
        let renamed = rename_vars(&td, 10);
        assert!(td.eq_up_to_renaming(&renamed));
        assert!(subsumes(&td, &renamed).unwrap());
        assert!(subsumes(&renamed, &td).unwrap());
    }

    #[test]
    fn implication_spot_check_helper() {
        let td = base();
        let weaker = apply(&td, &Weakening::ExistentializeColumn(AttrId::new(0))).unwrap();
        let mut inst = Instance::new(schema());
        inst.insert_values([0, 0, 0]).unwrap();
        inst.insert_values([0, 1, 1]).unwrap();
        inst.insert_values([0, 0, 1]).unwrap();
        inst.insert_values([0, 1, 0]).unwrap();
        assert!(implication_holds_on(&inst, &td, &weaker));
    }

    #[test]
    fn error_paths() {
        let td = base();
        assert!(apply(&td, &Weakening::AddAntecedent(TdRow::from_raw([0]))).is_err());
        assert!(apply(&td, &Weakening::ExistentializeColumn(AttrId::new(9))).is_err());
        assert!(apply(
            &td,
            &Weakening::MergeAntecedentVars {
                column: AttrId::new(9),
                from: Var::new(0),
                into: Var::new(0)
            }
        )
        .is_err());
    }
}
