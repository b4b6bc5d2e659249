//! Backtracking search for finite cancellation countermodels.
//!
//! Given a zero-saturated presentation `p`, [`find_counter_model`] looks for
//! a finite S-generated semigroup `G` *without identity*, with zero, with
//! the cancellation property, satisfying every equation of `p`, in which
//! `A₀ ≠ 0` — i.e. a witness that φ belongs to the Main Lemma's second set.
//!
//! The search fixes element `0` as the zero (harmless up to isomorphism),
//! enumerates interpretations of the alphabet (the zero symbol is pinned to
//! `0`, `A₀` to a nonzero element), pre-fills table cells forced by the
//! `(2,1)` equations, and then backtracks over the remaining cells with
//! eager pruning:
//!
//! * **cancellation (i)**: a duplicate nonzero value in a row or column is
//!   rejected immediately;
//! * **cancellation (ii)**: `x·y = x` (or `y·x = x`) with `x ≠ 0` is
//!   rejected immediately (we search for identity-free semigroups, where
//!   (ii) is required);
//! * **associativity**: every triple all of whose needed cells are decided
//!   is checked as soon as its last cell is assigned;
//! * remaining global conditions (no identity, S-generation, non-`(2,1)`
//!   equations) are checked at the leaves.
//!
//! Undecidability lives here too: failure to find a model up to
//! `max_size` proves nothing (Gurevich 1966 — the finite-semigroup word
//! problem is itself undecidable), so the result type is three-valued.

use td_core::budget::{Cancellation, Ticker};

use crate::cayley::{FiniteSemigroup, Interpretation};
use crate::error::Result;
use crate::presentation::Presentation;
use crate::properties;

/// Options for [`find_counter_model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelSearchOptions {
    /// Smallest semigroup order to try (≥ 2: zero plus one nonzero element).
    pub min_size: usize,
    /// Largest semigroup order to try.
    pub max_size: usize,
    /// Give up after this many search nodes: interpretations tried plus
    /// cell assignments.
    pub max_nodes: u64,
}

impl Default for ModelSearchOptions {
    fn default() -> Self {
        Self {
            min_size: 2,
            max_size: 4,
            max_nodes: 50_000_000,
        }
    }
}

/// Result of a model search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelSearchResult {
    /// A countermodel was found (and re-verified with
    /// [`properties::is_countermodel`] before being returned).
    Found(FiniteSemigroup, Interpretation),
    /// No countermodel of order `≤ max_size` exists. (Larger ones may.)
    ExhaustedSizes {
        /// Search nodes visited.
        nodes: u64,
    },
    /// The node budget ran out.
    BudgetExhausted {
        /// Search nodes visited.
        nodes: u64,
    },
}

impl ModelSearchResult {
    /// The model, if found.
    pub fn model(&self) -> Option<(&FiniteSemigroup, &Interpretation)> {
        match self {
            ModelSearchResult::Found(g, i) => Some((g, i)),
            _ => None,
        }
    }
}

const UNSET: u16 = u16::MAX;

/// The cancellation token is polled every `CANCEL_POLL_MASK + 1` search
/// nodes — rarely enough that the atomic load stays off the hot path.
const CANCEL_POLL_MASK: u64 = 0x3FF;

struct Search<'a, 't> {
    n: usize,
    p: &'a Presentation,
    /// Flattened n×n table; UNSET marks undecided cells.
    table: Vec<u16>,
    /// The whole search's node budget + cancellation polling, via the
    /// shared [`td_core::budget`] substrate: one tick per cell assignment
    /// (and one per interpretation, charged by the enumeration), the
    /// cancellation token observed every [`CANCEL_POLL_MASK`]+1 nodes.
    ticker: &'t mut Ticker<'a>,
}

impl Search<'_, '_> {
    #[inline]
    fn get(&self, a: usize, b: usize) -> u16 {
        self.table[a * self.n + b]
    }

    #[inline]
    fn set(&mut self, a: usize, b: usize, v: u16) {
        self.table[a * self.n + b] = v;
    }

    /// Checks cancellation conditions for a freshly decided `(a, b) = v`.
    fn cancellation_ok(&self, a: usize, b: usize, v: u16) -> bool {
        // (ii): x·y = x (or y·x = x) with x != 0.
        if v as usize == a && a != 0 {
            return false;
        }
        if v as usize == b && b != 0 {
            return false;
        }
        if v != 0 {
            // (i) left: same row, same nonzero value, different column.
            for b2 in 0..self.n {
                if b2 != b && self.get(a, b2) == v {
                    return false;
                }
            }
            // (i) right: same column, same nonzero value, different row.
            for a2 in 0..self.n {
                if a2 != a && self.get(a2, b) == v {
                    return false;
                }
            }
        }
        true
    }

    /// Checks every associativity triple that involves the cell `(a, b)`
    /// and is now fully decided.
    fn assoc_ok(&self, a: usize, b: usize) -> bool {
        let n = self.n;
        // Triples (x, y, z) use cells (x,y), (xy,z), (y,z), (x,yz).
        // Case 1: (x,y) = (a,b); z free.
        let ab = self.get(a, b);
        for z in 0..n {
            let bz = self.get(b, z);
            if bz == UNSET {
                continue;
            }
            let left = self.get(ab as usize, z);
            let right = self.get(a, bz as usize);
            if left != UNSET && right != UNSET && left != right {
                return false;
            }
        }
        // Case 2: (y,z) = (a,b); x free.
        for x in 0..n {
            let xa = self.get(x, a);
            if xa == UNSET {
                continue;
            }
            let left = self.get(xa as usize, b);
            let right = self.get(x, ab as usize);
            if left != UNSET && right != UNSET && left != right {
                return false;
            }
        }
        // Case 3: (a,b) plays the role of an *outer* cell: (xy, z) = (a, b)
        // or (x, yz) = (a, b). These are covered when the corresponding
        // inner cells were assigned (cases 1 and 2 above ran then), except
        // when the outer cell is assigned *after* both inner cells. Scan
        // for pairs (x, y) with x·y = a:
        // td-lint: allow(budget-poll) bounded n² sweep of the multiplication table (n is the
        // candidate model order, capped by the search's size bound); the enclosing DFS polls
        // the ticker at every node.
        for x in 0..n {
            for y in 0..n {
                if self.get(x, y) != a as u16 {
                    continue;
                }
                // (x, y, b): left = (xy)·b = a·b; right = x·(y·b).
                let yb = self.get(y, b);
                if yb != UNSET {
                    let right = self.get(x, yb as usize);
                    if right != UNSET && right != ab {
                        return false;
                    }
                }
            }
        }
        // (x, a, …) with inner (a, b): x·(a·b) vs (x·a)·b.
        for x in 0..n {
            let xa = self.get(x, a);
            if xa == UNSET {
                continue;
            }
            let left = self.get(xa as usize, b);
            let right = self.get(x, ab as usize);
            if left != UNSET && right != UNSET && left != right {
                return false;
            }
        }
        true
    }

    fn next_unset(&self) -> Option<(usize, usize)> {
        // td-lint: allow(budget-poll) bounded n² scan for the first unset table cell; the
        // enclosing DFS polls the ticker at every node.
        for a in 1..self.n {
            for b in 1..self.n {
                if self.get(a, b) == UNSET {
                    return Some((a, b));
                }
            }
        }
        None
    }

    fn dfs(&mut self, interp: &Interpretation) -> Option<FiniteSemigroup> {
        if self.ticker.stopped() {
            return None;
        }
        let Some((a, b)) = self.next_unset() else {
            return self.try_leaf(interp);
        };
        for v in 0..self.n as u16 {
            if !self.ticker.tick() {
                return None;
            }
            if !self.cancellation_ok(a, b, v) {
                continue;
            }
            self.set(a, b, v);
            if self.assoc_ok(a, b) {
                if let Some(found) = self.dfs(interp) {
                    return Some(found);
                }
                if self.ticker.stopped() {
                    self.set(a, b, UNSET);
                    return None;
                }
            }
            self.set(a, b, UNSET);
        }
        None
    }

    fn try_leaf(&mut self, interp: &Interpretation) -> Option<FiniteSemigroup> {
        let rows: Vec<Vec<usize>> = (0..self.n)
            .map(|a| (0..self.n).map(|b| self.get(a, b) as usize).collect())
            .collect();
        let g = FiniteSemigroup::new_unchecked_associativity(rows).ok()?;
        // Full verification: the incremental checks make failures rare, but
        // the final word goes to the independent checkers.
        if g.check_associative().is_err() {
            return None;
        }
        properties::is_countermodel(&g, interp, self.p).then_some(g)
    }
}

/// Enumerates interpretations: zero symbol ↦ 0, `A₀` ↦ nonzero, the rest
/// free. Each interpretation costs one `ticker` unit, and its cancellation
/// token is observed before each one. `f` returns `true` to stop; the
/// enumeration also stops at the first refused unit.
fn for_each_interpretation<'c>(
    p: &Presentation,
    n: usize,
    ticker: &mut Ticker<'c>,
    f: &mut impl FnMut(&Interpretation, &mut Ticker<'c>) -> bool,
) -> bool {
    let k = p.alphabet().len();
    let zero_ix = p.alphabet().zero().index();
    let a0_ix = p.alphabet().a0().index();
    let mut map = vec![0usize; k];

    fn rec<'c>(
        map: &mut Vec<usize>,
        sym: usize,
        n: usize,
        zero_ix: usize,
        a0_ix: usize,
        ticker: &mut Ticker<'c>,
        f: &mut impl FnMut(&Interpretation, &mut Ticker<'c>) -> bool,
    ) -> bool {
        if sym == map.len() {
            // A cancelled run stops before the next interpretation, too:
            // the in-search poll only fires every few hundred nodes, and
            // small tables burn most of their time across interpretations.
            if !ticker.poll() || !ticker.tick() {
                return true;
            }
            let interp = Interpretation::from_raw(map.iter().copied());
            return f(&interp, ticker);
        }
        if sym == zero_ix {
            map[sym] = 0;
            return rec(map, sym + 1, n, zero_ix, a0_ix, ticker, f);
        }
        let start = usize::from(sym == a0_ix);
        for v in start..n {
            map[sym] = v;
            if rec(map, sym + 1, n, zero_ix, a0_ix, ticker, f) {
                return true;
            }
        }
        false
    }
    rec(&mut map, 0, n, zero_ix, a0_ix, ticker, f)
}

/// Searches for a finite cancellation countermodel of the zero-saturated
/// presentation `p`.
///
/// # Errors
///
/// Fails when a found table cannot be assembled into a
/// [`FiniteSemigroup`] (propagated from the Cayley constructors; does not
/// happen for tables the search itself completes).
pub fn find_counter_model(
    p: &Presentation,
    opts: &ModelSearchOptions,
) -> Result<ModelSearchResult> {
    let never = Cancellation::new();
    Ok(find_counter_model_tracked(p, opts, &never)?.result)
}

/// A model-search outcome together with exact spend accounting, for the
/// racing pipeline's deterministic budget reports
/// ([`find_counter_model_tracked`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackedModelSearch {
    /// The classical three-valued result.
    pub result: ModelSearchResult,
    /// Search nodes visited — exact even for
    /// [`ModelSearchResult::Found`], which does not carry a count of its
    /// own.
    pub nodes: u64,
    /// `true` when the run stopped because the cancellation token was
    /// observed (at a per-interpretation check or a per-1024-DFS-nodes
    /// poll point of the shared [`td_core::budget::Ticker`]) rather than
    /// by finding a model or exhausting its own size/node budgets. A
    /// cancelled run's `nodes` is a lower bound of what the same search
    /// would visit uncancelled.
    pub cancelled: bool,
}

/// [`find_counter_model`] with a cooperative [`Cancellation`] token and
/// exact spend accounting, for racing against the derivation search: the
/// token is polled before every interpretation and every 1024 search
/// nodes, and the returned [`TrackedModelSearch`] carries the nodes
/// visited (even on success) and whether the run was cut short by the
/// cancellation flag rather than by its own budgets. Every interpretation
/// tried costs one node, whether or not its table search runs, so
/// `max_nodes` bounds all of the search's work.
///
/// # Errors
///
/// Same as [`find_counter_model`].
pub fn find_counter_model_tracked(
    p: &Presentation,
    opts: &ModelSearchOptions,
    cancel: &Cancellation,
) -> Result<TrackedModelSearch> {
    // One ticker for the whole search: one unit per interpretation tried
    // (charged by the enumeration) and one per cell assignment, so
    // `max_nodes` bounds the enumeration as well as the table searches.
    let mut ticker = Ticker::new(cancel, opts.max_nodes, CANCEL_POLL_MASK);
    for n in opts.min_size.max(2)..=opts.max_size {
        let mut found: Option<(FiniteSemigroup, Interpretation)> = None;
        for_each_interpretation(p, n, &mut ticker, &mut |interp, ticker| {
            // Fresh table per interpretation: zero row and column pinned.
            let mut search = Search {
                n,
                p,
                table: vec![UNSET; n * n],
                ticker,
            };
            for x in 0..n {
                search.set(0, x, 0);
                search.set(x, 0, 0);
            }
            // Pre-fill cells forced by (2,1) equations.
            let mut consistent = true;
            for eq in p.equations() {
                if !eq.is_two_one() {
                    continue;
                }
                let a = interp.of(eq.lhs.get(0)).index();
                let b = interp.of(eq.lhs.get(1)).index();
                let c = interp.of(eq.rhs.get(0)).index() as u16;
                let existing = search.get(a, b);
                if existing != UNSET && existing != c {
                    consistent = false;
                    break;
                }
                search.set(a, b, c);
            }
            // Validate prefilled cells against pruning rules.
            if consistent {
                // td-lint: allow(budget-poll) bounded n² validation of the prefilled table,
                // run once per candidate order before the (ticker-polled) DFS starts.
                for a in 1..n {
                    for b in 1..n {
                        let v = search.get(a, b);
                        if v != UNSET {
                            // Temporarily unset to reuse the checker.
                            search.set(a, b, UNSET);
                            let ok = search.cancellation_ok(a, b, v);
                            search.set(a, b, v);
                            if !ok || !search.assoc_ok(a, b) {
                                consistent = false;
                            }
                        }
                        if !consistent {
                            break;
                        }
                    }
                    if !consistent {
                        break;
                    }
                }
            }
            if consistent {
                if let Some(g) = search.dfs(interp) {
                    found = Some((g, interp.clone()));
                    return true;
                }
            }
            search.ticker.stopped()
        });
        let nodes = ticker.spent();
        if let Some((g, interp)) = found {
            debug_assert!(properties::is_countermodel(&g, &interp, p));
            return Ok(TrackedModelSearch {
                result: ModelSearchResult::Found(g, interp),
                nodes,
                cancelled: false,
            });
        }
        if ticker.stopped() {
            return Ok(TrackedModelSearch {
                result: ModelSearchResult::BudgetExhausted { nodes },
                nodes,
                cancelled: ticker.cancelled(),
            });
        }
    }
    let nodes = ticker.spent();
    Ok(TrackedModelSearch {
        result: ModelSearchResult::ExhaustedSizes { nodes },
        nodes,
        cancelled: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::equation::Equation;
    use crate::presentation::{example_derivable, example_refutable};
    use crate::properties::is_countermodel;

    #[test]
    fn finds_null2_for_zero_only_presentation() {
        let p = example_refutable();
        let r = find_counter_model(&p, &ModelSearchOptions::default()).unwrap();
        let (g, interp) = r.model().expect("null(2) exists at size 2");
        assert_eq!(g.len(), 2);
        assert!(is_countermodel(g, interp, &p));
    }

    #[test]
    fn derivable_presentation_has_no_countermodel() {
        // A0 => A1 A1 => 0 is derivable, so *no* semigroup at any size can
        // satisfy the equations yet refute A0 = 0; the search must exhaust.
        let p = example_derivable();
        let r = find_counter_model(
            &p,
            &ModelSearchOptions {
                min_size: 2,
                max_size: 3,
                max_nodes: 10_000_000,
            },
        )
        .unwrap();
        assert!(
            matches!(r, ModelSearchResult::ExhaustedSizes { .. }),
            "{r:?}"
        );
    }

    #[test]
    fn respects_nontrivial_equations() {
        // A0 A0 = A1 (so A1 is a genuine square) with zero saturation; the
        // cyclic nilpotent of order ≥ 4 models it with A0 -> a, A1 -> a².
        // The search should find *some* model of order ≤ 4; verify it.
        let alphabet = Alphabet::standard(2);
        let sq = Equation::parse("A0 A0 = A1", &alphabet).unwrap();
        let mut p = Presentation::new(alphabet, vec![sq]).unwrap();
        p.saturate_with_zero_equations();
        let r = find_counter_model(&p, &ModelSearchOptions::default()).unwrap();
        let (g, interp) = r.model().expect("nilpotent-style model exists");
        assert!(is_countermodel(g, interp, &p));
        // A1 must be interpreted as the square of A0's interpretation.
        let a0 = interp.of(p.alphabet().sym("A0").unwrap());
        let a1 = interp.of(p.alphabet().sym("A1").unwrap());
        assert_eq!(g.mul(a0, a0), a1);
    }

    #[test]
    fn budget_exhaustion_reported() {
        // At order 3 the searcher must decide 4 free cells; one node cannot
        // finish them.
        let p = example_refutable();
        let r = find_counter_model(
            &p,
            &ModelSearchOptions {
                min_size: 3,
                max_size: 4,
                max_nodes: 1,
            },
        )
        .unwrap();
        assert!(
            matches!(r, ModelSearchResult::BudgetExhausted { .. }),
            "{r:?}"
        );
    }

    #[test]
    fn tracked_search_distinguishes_cancellation_from_exhaustion() {
        let p = example_refutable();
        let never = Cancellation::new();
        let t = find_counter_model_tracked(&p, &ModelSearchOptions::default(), &never).unwrap();
        assert!(matches!(t.result, ModelSearchResult::Found(..)));
        assert!(!t.cancelled);

        // Pre-cancelled token: stops at the first per-interpretation check.
        let always = Cancellation::new();
        always.cancel();
        let t = find_counter_model_tracked(&p, &ModelSearchOptions::default(), &always).unwrap();
        assert!(matches!(
            t.result,
            ModelSearchResult::BudgetExhausted { .. }
        ));
        assert!(t.cancelled);

        // Genuine node exhaustion is not cancellation.
        let t = find_counter_model_tracked(
            &p,
            &ModelSearchOptions {
                min_size: 3,
                max_size: 4,
                max_nodes: 1,
            },
            &never,
        )
        .unwrap();
        assert!(matches!(
            t.result,
            ModelSearchResult::BudgetExhausted { nodes } if nodes == t.nodes
        ));
        assert!(!t.cancelled);
    }

    #[test]
    fn found_models_never_have_identity() {
        // Search over a presentation satisfiable by a monoid; the finder
        // must still return an identity-free semigroup (condition of the
        // Main Lemma) or nothing.
        let alphabet = Alphabet::standard(1);
        let mut p = Presentation::new(alphabet, vec![]).unwrap();
        p.saturate_with_zero_equations();
        if let ModelSearchResult::Found(g, _) =
            find_counter_model(&p, &ModelSearchOptions::default()).unwrap()
        {
            assert!(g.identity().is_none());
        } else {
            panic!("a countermodel exists (null(2))");
        }
    }
}
