//! The chase: a fair, budgeted, certificate-producing procedure for
//! reasoning with template dependencies.
//!
//! The chase repeatedly finds a *trigger* — a homomorphism of some
//! dependency's antecedents into the current tableau whose conclusion is not
//! yet witnessed — and *fires* it, adding the conclusion row with fresh
//! labelled nulls in the existentially quantified columns.
//!
//! For template dependencies the chase is the canonical semi-decision
//! procedure for implication: `D ⊨ D₀` iff chasing the frozen antecedent
//! tableau of `D₀` with `D` eventually produces a tuple matching `D₀`'s
//! conclusion. Gurevich & Lewis prove there is **no** terminating decision
//! procedure, so the engine takes explicit budgets and reports honestly when
//! they are exhausted.
//!
//! * [`ChaseEngine`] — round-based (fair) restricted or oblivious chase.
//! * [`ChaseProof`] — a replayable certificate for positive answers.
//! * [`Goal`] — the frozen-conclusion pattern checked after every step.
//! * [`weakly_acyclic`] — a standard sufficient condition for termination.

mod engine;
mod proof;

pub use engine::{ChaseBudget, ChaseEngine, ChaseOutcome, ChasePolicy, ChaseState};
pub use proof::{ChaseProof, ChaseStep};

use crate::ids::{RowId, Value};
use crate::instance::Instance;
use crate::td::Td;
use crate::tuple::Tuple;

/// A goal pattern: one optional value per column. `None` is a wildcard
/// (used for existentially quantified conclusion components).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Goal {
    pattern: Vec<Option<Value>>,
}

impl Goal {
    /// Creates a goal from per-column constraints.
    pub fn new(pattern: Vec<Option<Value>>) -> Self {
        Self { pattern }
    }

    /// The per-column constraints.
    pub fn pattern(&self) -> &[Option<Value>] {
        &self.pattern
    }

    /// `true` if the row slice matches the goal.
    pub fn met_by_slice(&self, values: &[Value]) -> bool {
        values.len() == self.pattern.len()
            && self
                .pattern
                .iter()
                .zip(values)
                .all(|(want, &got)| want.is_none_or(|w| w == got))
    }

    /// `true` if `tuple` matches the goal.
    pub fn met_by(&self, tuple: &Tuple) -> bool {
        self.met_by_slice(tuple.values())
    }

    /// The first row of `instance` matching the goal, if any — a linear
    /// scan over the arena.
    pub fn find_in(&self, instance: &Instance) -> Option<RowId> {
        instance
            .rows()
            .find(|(_, t)| self.met_by_slice(t))
            .map(|(r, _)| r)
    }
}

/// A standard sufficient condition for chase termination (weak acyclicity,
/// Fagin–Kolaitis–Miller–Popa), specialized to typed TDs over one relation.
///
/// Because variables are typed, a variable occurs in exactly one column, so
/// the only *regular* edges of the position-dependency graph are harmless
/// self-loops. The chase is therefore guaranteed to terminate iff the
/// *special-edge* digraph — an edge `c → c′` whenever some dependency has a
/// universally quantified conclusion column `c` and an existentially
/// quantified conclusion column `c′` — is acyclic.
///
/// Full TDs produce no special edges at all, which is the structural reason
/// the full-TD inference problem is decidable ([`crate::inference::implies_full`]).
pub fn weakly_acyclic(tds: &[Td]) -> bool {
    let Some(first) = tds.first() else {
        return true;
    };
    let n = first.arity();
    // adj[c] = columns c' with a special edge c -> c'.
    let mut adj = vec![vec![false; n]; n];
    // td-lint: allow(budget-poll) one-shot preprocessing bounded by |Σ| × arity², runs before
    // any chase starts; there is no budget to poll yet.
    for td in tds {
        let existential = td.existential_columns();
        if existential.is_empty() {
            continue;
        }
        // td-lint: allow(budget-poll) bounded by the schema arity (see the enclosing allow).
        for c in td.schema().attr_ids() {
            if td.is_universal_at(c) {
                for &e in &existential {
                    adj[c.index()][e.index()] = true;
                }
            }
        }
    }
    // Cycle detection by DFS (colors: 0 white, 1 gray, 2 black).
    // td-lint: allow(budget-poll) each attribute turns gray once, so the recursion is
    // at most `n` (the schema arity) deep and visits each attribute once.
    fn dfs(u: usize, adj: &[Vec<bool>], color: &mut [u8]) -> bool {
        color[u] = 1;
        for (v, &edge) in adj[u].iter().enumerate() {
            if edge {
                if color[v] == 1 {
                    return false;
                }
                if color[v] == 0 && !dfs(v, adj, color) {
                    return false;
                }
            }
        }
        color[u] = 2;
        true
    }
    let mut color = vec![0u8; n];
    (0..n).all(|u| color[u] != 0 || dfs(u, &adj, &mut color))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::td::TdBuilder;

    #[test]
    fn goal_matching() {
        let g = Goal::new(vec![Some(Value::new(1)), None, Some(Value::new(3))]);
        assert!(g.met_by(&Tuple::from_raw([1, 99, 3])));
        assert!(!g.met_by(&Tuple::from_raw([1, 99, 4])));
        assert!(!g.met_by(&Tuple::from_raw([1, 99])));
        let schema = Schema::new("R", ["A", "B", "C"]).unwrap();
        let mut inst = Instance::new(schema);
        inst.insert_values([0, 0, 0]).unwrap();
        assert_eq!(g.find_in(&inst), None);
        inst.insert_values([1, 5, 3]).unwrap();
        assert_eq!(g.find_in(&inst), Some(RowId::new(1)));
    }

    #[test]
    fn full_tds_are_weakly_acyclic() {
        let schema = Schema::new("R", ["A", "B"]).unwrap();
        let td = TdBuilder::new(schema)
            .antecedent(["a", "b"])
            .unwrap()
            .antecedent(["a'", "b"])
            .unwrap()
            .conclusion(["a", "b"])
            .unwrap()
            .build("full")
            .unwrap();
        assert!(weakly_acyclic(&[td]));
        assert!(weakly_acyclic(&[]));
    }

    #[test]
    fn mutual_existential_feeding_is_cyclic() {
        let schema = Schema::new("R", ["A", "B"]).unwrap();
        // Universal in A, existential in B.
        let t1 = TdBuilder::new(schema.clone())
            .antecedent(["a", "b"])
            .unwrap()
            .conclusion(["a", "*"])
            .unwrap()
            .build("t1")
            .unwrap();
        // Universal in B, existential in A.
        let t2 = TdBuilder::new(schema)
            .antecedent(["a", "b"])
            .unwrap()
            .conclusion(["*", "b"])
            .unwrap()
            .build("t2")
            .unwrap();
        assert!(!weakly_acyclic(&[t1.clone(), t2]));
        // A single one-directional dependency is fine.
        assert!(weakly_acyclic(&[t1]));
    }

    #[test]
    fn self_feeding_is_cyclic() {
        let schema = Schema::new("R", ["A", "B"]).unwrap();
        // Universal in A... and existential in B, but B's null feeds a new
        // universal-A row only through another td. A td that is universal in
        // B and existential in B cannot exist (one conclusion cell per col),
        // so build the 2-cycle through one td with both directions: that is
        // impossible; instead universal col == existential col across tds.
        let t = TdBuilder::new(schema)
            .antecedent(["a", "b"])
            .unwrap()
            .antecedent(["a", "b'"])
            .unwrap()
            .conclusion(["a", "*"])
            .unwrap()
            .build("t")
            .unwrap();
        // Special edges: A -> B only. Acyclic.
        assert!(weakly_acyclic(&[t]));
    }
}
