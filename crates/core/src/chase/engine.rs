//! The chase engine.
//!
//! Trigger discovery is **semi-naive**: the first round matches every
//! dependency against the whole initial tableau, and each later round only
//! looks for triggers that use at least one row derived since the previous
//! discovery pass (the *delta*). This is sound for the restricted chase
//! because both firing and witnessing are monotone — a trigger whose rows
//! all predate the delta was already discovered, and if it was inactive
//! (conclusion witnessed) then it stays inactive forever, since rows are
//! never removed. Matching itself goes through the
//! [`MatchStrategy`](crate::homomorphism::MatchStrategy) planner, indexed
//! by default.

use std::collections::HashSet;
use std::ops::ControlFlow;

use crate::budget::Cancellation;
use crate::error::{CoreError, Result};
use crate::homomorphism::{for_each_match_capped, for_each_match_with, Binding, MatchStrategy};
use crate::ids::{AttrId, RowId, Value, Var};
use crate::instance::Instance;
use crate::satisfaction::conclusion_witnessed_with;
use crate::td::{Td, TdRow};
use crate::tuple::Tuple;

use super::proof::{ChaseProof, ChaseStep};
use super::Goal;

/// The dedup key of a discovered trigger: its binding in canonical
/// (column, variable, value) order — what [`Binding::to_sorted_vec`]
/// produces. Delta discovery deduplicates on `(td_index, TriggerKey)`.
type TriggerKey = Vec<(AttrId, Var, Value)>;

/// Which triggers fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChasePolicy {
    /// Fire a trigger only if its conclusion is not already witnessed
    /// (the *standard* / restricted chase). This is the variant whose
    /// success is equivalent to implication.
    #[default]
    Restricted,
    /// Fire every trigger once, witnessed or not (the oblivious chase).
    /// Simpler theory, but diverges more often; kept for experiments on
    /// termination behaviour.
    Oblivious,
}

/// Resource limits for a chase run. The inference problem is undecidable
/// (the paper's main theorem), so budgets are load-bearing, not cosmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaseBudget {
    /// Maximum number of fired triggers.
    pub max_steps: usize,
    /// Maximum number of rows in the chase state.
    pub max_rows: usize,
    /// Maximum number of fair rounds.
    pub max_rounds: usize,
}

impl Default for ChaseBudget {
    fn default() -> Self {
        Self {
            max_steps: 10_000,
            max_rows: 10_000,
            max_rounds: 1_000,
        }
    }
}

impl ChaseBudget {
    /// A tiny budget, handy in tests.
    pub fn small() -> Self {
        Self {
            max_steps: 100,
            max_rows: 200,
            max_rounds: 50,
        }
    }

    /// An effectively unlimited budget (use only when termination is
    /// guaranteed, e.g. for full TDs).
    pub fn unlimited() -> Self {
        Self {
            max_steps: usize::MAX,
            max_rows: usize::MAX,
            max_rounds: usize::MAX,
        }
    }
}

/// Why a chase run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaseOutcome {
    /// The goal pattern appeared in the state.
    GoalReached,
    /// No active trigger remains: the state is a *universal model* of the
    /// dependencies (and, when chasing a frozen tableau, a finite
    /// countermodel of the goal dependency).
    Terminated,
    /// A budget limit was hit before either of the above.
    BudgetExhausted,
}

/// The ownable, snapshottable state of a chase: the arena [`Instance`]
/// fixpoint plus the semi-naive bookkeeping ([`ChaseState`] is what a
/// suspended [`ChaseEngine`] leaves behind and what a resumed one picks
/// up).
///
/// A `ChaseState` is a plain value: [`Clone`] is a deep copy of the arena
/// and its indexes (one `memcpy`-style pass, no pointer chasing), so a
/// service can snapshot a fixpoint, hand the clone to one request, and
/// keep the original for the next. Resuming is what makes the value
/// interesting — when the dependency set *grows*, a suspended fixpoint
/// does not have to be re-chased from scratch:
///
/// * `frontier` remembers how many rows have been through trigger
///   discovery, so a resumed run only matches the delta;
/// * `integrated` remembers how many leading dependencies the discovery
///   passes have seen, so dependencies appended after suspension get
///   exactly one full pass over the pre-frontier rows and then join the
///   regular delta scheme.
///
/// The resume contract: [`ChaseEngine::resume`] must be given a slice
/// whose first `integrated` dependencies are the ones this state was
/// chased with (appending is fine, reordering or editing the prefix is
/// not). Removing a dependency invalidates the state — re-chase from
/// scratch; the chase is monotone, rows are never retracted.
///
/// Exactness: for the **restricted** policy a suspend/resume sequence
/// reaches the same fixpoint as one monolithic run (re-discovered
/// triggers are skipped because their fired conclusion already witnesses
/// them). Under the **oblivious** policy a trigger interrupted mid-round
/// may fire again on resume, drawing fresh nulls — sound for the
/// termination experiments that policy exists for, but not row-for-row
/// identical.
#[derive(Debug, Clone)]
pub struct ChaseState {
    /// The chase state proper (the arena instance).
    state: Instance,
    /// Semi-naive frontier: rows below this index have already been
    /// through trigger discovery; rows at or above it form the next
    /// round's delta.
    frontier: usize,
    /// Number of leading dependencies that have seen every row below
    /// `frontier`. Dependencies at or past this index were appended after
    /// the last completed discovery pass and still owe a full pass.
    integrated: usize,
    /// Triggers fired so far (cumulative across resumes).
    steps_fired: usize,
    /// Rounds completed so far (cumulative across resumes).
    rounds_run: usize,
    /// The proof log (cumulative across resumes).
    proof: ChaseProof,
}

impl ChaseState {
    /// A fresh state over `initial`: nothing discovered, nothing fired.
    pub fn new(initial: Instance) -> Self {
        Self {
            state: initial,
            frontier: 0,
            integrated: 0,
            steps_fired: 0,
            rounds_run: 0,
            proof: ChaseProof::default(),
        }
    }

    /// The current instance.
    pub fn instance(&self) -> &Instance {
        &self.state
    }

    /// Number of rows in the state.
    pub fn rows(&self) -> usize {
        self.state.len()
    }

    /// Triggers fired so far, cumulative across suspends and resumes.
    pub fn steps_fired(&self) -> usize {
        self.steps_fired
    }

    /// Rounds completed so far, cumulative across suspends and resumes.
    pub fn rounds_run(&self) -> usize {
        self.rounds_run
    }

    /// Number of leading dependencies integrated into the fixpoint so
    /// far (see the type docs for the resume contract).
    pub fn integrated(&self) -> usize {
        self.integrated
    }

    /// `true` when every stored row has been through trigger discovery —
    /// i.e. the state was suspended at a clean round boundary, not by a
    /// truncated discovery pass.
    pub fn is_saturated(&self) -> bool {
        self.frontier == self.state.len()
    }

    /// The accumulated proof log.
    pub fn proof(&self) -> &ChaseProof {
        &self.proof
    }

    /// Consumes the state, returning the instance and the proof log.
    pub fn into_parts(self) -> (Instance, ChaseProof) {
        (self.state, self.proof)
    }

    /// Releases spare arena capacity. Useful before parking a suspended
    /// state in a long-lived cache: the chase grows the arena and its
    /// indexes geometrically, and a parked snapshot should not pin the
    /// growth slack.
    pub fn shrink_to_fit(&mut self) {
        self.state.shrink_to_fit();
    }
}

/// A round-based (fair) chase engine.
///
/// Each *round* snapshots the active triggers against the current state and
/// fires them in deterministic order (re-checking activeness just before
/// firing, since earlier firings in the round may have witnessed a later
/// trigger's conclusion). Round-based scheduling is fair: every trigger that
/// stays active is eventually fired, which is what makes the engine a
/// *complete* semi-decision procedure for implication.
///
/// The engine is a borrowing *view* over an owned [`ChaseState`]: start
/// fresh with [`ChaseEngine::new`], or pick a suspended state back up with
/// [`ChaseEngine::resume`] after the dependency set has grown, and take
/// the state out again with [`ChaseEngine::suspend`].
#[derive(Debug)]
pub struct ChaseEngine<'a> {
    tds: &'a [Td],
    st: ChaseState,
    policy: ChasePolicy,
    budget: ChaseBudget,
    strategy: MatchStrategy,
    /// Optional cooperative-cancellation token (the shared
    /// [`crate::budget`] substrate), polled between rounds and before each
    /// firing. Cancellation surfaces as [`ChaseOutcome::BudgetExhausted`]
    /// with [`ChaseEngine::was_cancelled`] set — the same
    /// cancelled-vs-exhausted split the tracked searches report.
    cancel: Option<&'a Cancellation>,
    cancelled: bool,
}

impl<'a> ChaseEngine<'a> {
    /// Creates an engine over `tds` starting from `initial`, matching with
    /// the default [`MatchStrategy::Indexed`].
    ///
    /// # Errors
    ///
    /// Fails when any dependency disagrees with `initial` on schema.
    pub fn new(
        tds: &'a [Td],
        initial: Instance,
        policy: ChasePolicy,
        budget: ChaseBudget,
    ) -> Result<Self> {
        Self::resume(tds, ChaseState::new(initial), policy, budget)
    }

    /// Picks a suspended [`ChaseState`] back up over a (possibly extended)
    /// dependency slice. The first `state.integrated()` entries of `tds`
    /// must be the dependencies the state was chased with, in the same
    /// order (see the [`ChaseState`] docs); dependencies appended past
    /// that prefix get a full discovery pass on the next
    /// [`ChaseEngine::run`], so only the *delta* work is redone.
    ///
    /// # Errors
    ///
    /// Fails when a dependency disagrees with the state on schema, or
    /// when `tds` is shorter than the state's integrated prefix (a
    /// removal, which requires a from-scratch re-chase).
    pub fn resume(
        tds: &'a [Td],
        state: ChaseState,
        policy: ChasePolicy,
        budget: ChaseBudget,
    ) -> Result<Self> {
        for td in tds {
            state.state.schema().expect_same(td.schema())?;
        }
        if state.integrated > tds.len() {
            return Err(CoreError::ProofReplay(format!(
                "resumed chase state integrated {} dependencies but only {} were supplied \
                 (removal requires a from-scratch re-chase)",
                state.integrated,
                tds.len()
            )));
        }
        Ok(Self {
            tds,
            st: state,
            policy,
            budget,
            strategy: MatchStrategy::default(),
            cancel: None,
            cancelled: false,
        })
    }

    /// Suspends the engine, returning the owned [`ChaseState`] so it can be
    /// parked, cloned, and later handed back to [`ChaseEngine::resume`].
    pub fn suspend(self) -> ChaseState {
        self.st
    }

    /// Selects the homomorphism-matching strategy (builder style). The
    /// naive strategy is the differential-testing oracle; verdicts must not
    /// depend on this choice.
    pub fn with_strategy(mut self, strategy: MatchStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The matching strategy in use.
    pub fn strategy(&self) -> MatchStrategy {
        self.strategy
    }

    /// Attaches a cooperative-cancellation token (builder style). The
    /// engine polls it at every round boundary and before every firing; a
    /// cancelled run stops with [`ChaseOutcome::BudgetExhausted`] and
    /// reports the distinction through [`ChaseEngine::was_cancelled`].
    pub fn with_cancellation(mut self, cancel: &'a Cancellation) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// `true` when the last [`ChaseEngine::run`] stopped because the
    /// attached [`Cancellation`] token fired (as opposed to exhausting its
    /// own [`ChaseBudget`]). The spent counters are then lower bounds.
    pub fn was_cancelled(&self) -> bool {
        self.cancelled
    }

    /// Polls the attached cancellation token, recording an observation.
    fn poll_cancelled(&mut self) -> bool {
        if self.cancel.is_some_and(Cancellation::is_cancelled) {
            self.cancelled = true;
        }
        self.cancelled
    }

    /// The current chase state.
    pub fn state(&self) -> &Instance {
        &self.st.state
    }

    /// Number of triggers fired so far (cumulative across resumes).
    pub fn steps_fired(&self) -> usize {
        self.st.steps_fired
    }

    /// Number of completed rounds (cumulative across resumes).
    pub fn rounds_run(&self) -> usize {
        self.st.rounds_run
    }

    /// Consumes the engine, returning the final state and the proof log.
    pub fn into_parts(self) -> (Instance, ChaseProof) {
        self.st.into_parts()
    }

    /// Fires one trigger: `binding` must map the antecedents of
    /// `tds[td_index]` into the current state (this is *checked*). Fresh
    /// nulls are drawn for unbound existential conclusion variables. Returns
    /// the conclusion tuple and whether it was newly added (`false` means
    /// it was already present — possible for full TDs).
    ///
    /// This is the manual interface used by guided chases (e.g. the
    /// reduction's part (A) replay); [`ChaseEngine::run`] uses it too.
    ///
    /// # Errors
    ///
    /// Fails with [`CoreError::ProofReplay`] when `td_index` is out of
    /// range, the binding leaves an antecedent variable unbound, or an
    /// antecedent row is absent from the current state — i.e. when the
    /// claimed trigger is not real.
    pub fn fire(&mut self, td_index: usize, binding: &Binding) -> Result<(Tuple, bool)> {
        let td = self.tds.get(td_index).ok_or_else(|| {
            CoreError::ProofReplay(format!("dependency index {td_index} out of range"))
        })?;
        // Check the trigger is real.
        // td-lint: allow(budget-poll) bounded by the TD's antecedent count × arity (both fixed
        // per dependency), not by the instance; one firing is a budget *step*, polled by run().
        for (r, row) in td.antecedents().iter().enumerate() {
            let mut vals = Vec::with_capacity(td.arity());
            for (c, v) in row.components() {
                let val = binding.get(c, v).ok_or_else(|| {
                    CoreError::ProofReplay(format!(
                        "antecedent {r} of `{}` has unbound variable {v} in column {c}",
                        td.name()
                    ))
                })?;
                vals.push(val);
            }
            if !self.st.state.contains_slice(&vals) {
                return Err(CoreError::ProofReplay(format!(
                    "antecedent {r} of `{}` not matched: {} absent",
                    td.name(),
                    Tuple::new(vals)
                )));
            }
        }
        // Build the conclusion, drawing nulls for unbound existentials.
        let mut full_binding = binding.clone();
        let mut vals = Vec::with_capacity(td.arity());
        for (c, v) in td.conclusion().components() {
            let val = match full_binding.get(c, v) {
                Some(val) => val,
                None => {
                    let fresh = self.st.state.fresh_value(c);
                    full_binding.bind(c, v, fresh);
                    fresh
                }
            };
            vals.push(val);
        }
        let (_, added) = self.st.state.insert_slice(&vals)?;
        let tuple = Tuple::new(vals);
        if !added {
            return Ok((tuple, false));
        }
        self.st.steps_fired += 1;
        self.st.proof.steps.push(ChaseStep {
            td_index,
            td_name: td.name().to_owned(),
            binding: full_binding.to_sorted_vec(),
            new_row: tuple.clone(),
        });
        Ok((tuple, true))
    }

    /// Records the goal row in the proof (used after a goal check succeeds).
    fn record_goal(&mut self, goal: &Goal) {
        if let Some(row) = goal.find_in(&self.st.state) {
            self.st.proof.goal_row = self.st.state.get(row).ok().map(Tuple::from_slice);
        }
    }

    /// Whether a discovered trigger should fire under the engine's policy:
    /// restricted triggers are active only while their conclusion is not
    /// yet witnessed in the current state; oblivious triggers always are.
    fn is_active(&self, td: &Td, binding: &Binding) -> bool {
        match self.policy {
            ChasePolicy::Restricted => {
                !conclusion_witnessed_with(self.strategy, &self.st.state, td, binding)
            }
            ChasePolicy::Oblivious => true,
        }
    }

    /// Collects the active triggers of `tds[from_td..]` whose antecedents
    /// all lie in the current state (full pass — used for the first
    /// discovery round, and for dependencies appended after a resume, which
    /// owe one full pass before joining the delta scheme). Returns `true`
    /// if collection was cut short by the step budget.
    fn discover_full(
        &self,
        from_td: usize,
        cap: usize,
        pending: &mut Vec<(usize, Binding)>,
    ) -> bool {
        let mut truncated = false;
        for (i, td) in self.tds.iter().enumerate().skip(from_td) {
            let seed = Binding::new(td.arity());
            for_each_match_with(
                self.strategy,
                td.antecedents(),
                &self.st.state,
                &seed,
                |b| {
                    if self.is_active(td, b) {
                        pending.push((i, b.clone()));
                    }
                    if pending.len() >= cap {
                        truncated = true;
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
            if truncated {
                break;
            }
        }
        truncated
    }

    /// Semi-naive discovery over `tds[..upto_td]`: collects the active
    /// triggers that use at least one row of the delta
    /// `delta_start..delta_end`. The decomposition is the standard
    /// duplicate-free one — for pivot position `j`, row `j` maps to a delta
    /// tuple, rows before `j` are capped to the pre-delta prefix, and rows
    /// after `j` are unrestricted — so every qualifying row assignment is
    /// enumerated exactly once. (Distinct assignments can still collapse to
    /// the same *binding*; those are deduplicated.) Dependencies at or past
    /// `upto_td` are excluded because they get a concurrent full pass via
    /// [`ChaseEngine::discover_full`] — the index sets are disjoint, so no
    /// trigger is enumerated twice. Returns `true` if collection was cut
    /// short by the step budget.
    fn discover_delta(
        &self,
        upto_td: usize,
        delta_start: usize,
        delta_end: usize,
        cap: usize,
        pending: &mut Vec<(usize, Binding)>,
    ) -> bool {
        let mut truncated = false;
        let mut seen: HashSet<(usize, TriggerKey)> = HashSet::new();
        'tds: for (i, td) in self.tds.iter().enumerate().take(upto_td) {
            for j in 0..td.antecedent_count() {
                let pivot = &td.antecedents()[j];
                let rest: Vec<(&TdRow, usize)> = td
                    .antecedents()
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| k != j)
                    .map(|(k, r)| (r, if k < j { delta_start } else { usize::MAX }))
                    .collect();
                for rid in delta_start..delta_end {
                    // Delta passes scale with |Σ| × antecedents × delta
                    // rows; poll cancellation here so a shutdown is
                    // observed mid-discovery, not only at round
                    // boundaries. Truncating keeps the frontier where it
                    // is, so a resume rediscovers exactly the skipped
                    // work.
                    if self.cancel.is_some_and(Cancellation::is_cancelled) {
                        truncated = true;
                        break 'tds;
                    }
                    let tuple = self.st.state.row(RowId::from(rid));
                    let mut seed = Binding::new(td.arity());
                    if !seed.bind_row(pivot, tuple) {
                        continue; // pivot row self-conflicts on this tuple
                    }
                    for_each_match_capped(self.strategy, &rest, &self.st.state, &seed, |b| {
                        if self.is_active(td, b) && seen.insert((i, b.to_sorted_vec())) {
                            pending.push((i, b.clone()));
                        }
                        if pending.len() >= cap {
                            truncated = true;
                            ControlFlow::Break(())
                        } else {
                            ControlFlow::Continue(())
                        }
                    });
                    if truncated {
                        break 'tds;
                    }
                }
            }
        }
        truncated
    }

    /// Runs the chase to completion, goal, or budget exhaustion.
    ///
    /// Discovery is semi-naive (see the module docs): round 1 matches
    /// against the whole state, later rounds only against triggers touching
    /// the rows derived since the previous discovery pass.
    pub fn run(&mut self, goal: Option<&Goal>) -> ChaseOutcome {
        if let Some(g) = goal {
            if g.find_in(&self.st.state).is_some() {
                self.record_goal(g);
                return ChaseOutcome::GoalReached;
            }
        }
        loop {
            if self.poll_cancelled() || self.st.rounds_run >= self.budget.max_rounds {
                return ChaseOutcome::BudgetExhausted;
            }
            self.st.rounds_run += 1;

            let round_start = self.st.state.len();
            let delta_start = self.st.frontier;
            // Dependencies past this index were appended after the last
            // completed discovery pass (a resume with a grown Σ); they owe
            // one full pass over the whole current state.
            let integrated_before = self.st.integrated.min(self.tds.len());
            // Collect at most one trigger beyond the step budget so an
            // exhausted budget is still noticed by the firing loop below.
            let cap = self
                .budget
                .max_steps
                .saturating_sub(self.st.steps_fired)
                .max(1);

            let mut pending: Vec<(usize, Binding)> = Vec::new();
            let mut truncated = if delta_start == 0 {
                self.discover_full(0, cap, &mut pending)
            } else {
                self.discover_full(integrated_before, cap, &mut pending)
            };
            if delta_start > 0 && !truncated {
                // delta_start == round_start means no new rows since the
                // last pass: nothing to discover for the integrated prefix.
                truncated = self.discover_delta(
                    integrated_before,
                    delta_start,
                    round_start,
                    cap,
                    &mut pending,
                );
            }
            if !truncated {
                // A truncated pass may have skipped triggers in rows below
                // `round_start`; keep the frontier so they are rediscovered.
                self.st.frontier = round_start;
                self.st.integrated = self.tds.len();
            }

            if self.poll_cancelled() {
                // A cancelled discovery pass may have stopped early with
                // nothing pending; claiming `Terminated` here would be
                // unsound. Roll the frontier back to this round's delta so
                // a resumed run rediscovers whatever was skipped (exact
                // under the restricted policy, same as the firing rollback
                // below).
                self.st.frontier = delta_start;
                self.st.integrated = integrated_before;
                return ChaseOutcome::BudgetExhausted;
            }

            if pending.is_empty() {
                return ChaseOutcome::Terminated;
            }

            let mut fired_this_round = false;
            for (td_index, binding) in pending {
                if self.poll_cancelled()
                    || self.st.steps_fired >= self.budget.max_steps
                    || self.st.state.len() >= self.budget.max_rows
                {
                    // Pending triggers remain unfired: roll the frontier
                    // back to this round's delta so a resumed run
                    // rediscovers them (exact under the restricted policy —
                    // already-fired triggers are inactive on rediscovery).
                    self.st.frontier = delta_start;
                    self.st.integrated = integrated_before;
                    return ChaseOutcome::BudgetExhausted;
                }
                // Re-check activeness against the *current* state: an
                // earlier firing in this round may have witnessed it.
                if self.policy == ChasePolicy::Restricted
                    && !self.is_active(&self.tds[td_index], &binding)
                {
                    continue;
                }
                let (_, added) = self
                    .fire(td_index, &binding)
                    .expect("discovered triggers remain valid: the chase only adds rows");
                if added {
                    fired_this_round = true;
                    if let Some(g) = goal {
                        if g.find_in(&self.st.state).is_some() {
                            self.record_goal(g);
                            // Same rollback as above: the remaining pending
                            // triggers were not fired, and a session may
                            // resume this state for a later goal.
                            self.st.frontier = delta_start;
                            self.st.integrated = integrated_before;
                            return ChaseOutcome::GoalReached;
                        }
                    }
                }
            }

            if !fired_this_round {
                if truncated {
                    // The discovery pass was cut short by the step budget,
                    // so active triggers may remain undiscovered: claiming
                    // a fixpoint would be unsound. Retry from the kept
                    // frontier; the round cap bounds this loop, so a stuck
                    // run ends in BudgetExhausted, never a false Terminated.
                    continue;
                }
                return ChaseOutcome::Terminated;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Value;
    use crate::satisfaction::satisfies_all;
    use crate::schema::Schema;
    use crate::td::TdBuilder;

    fn schema2() -> Schema {
        Schema::new("R", ["A", "B"]).unwrap()
    }

    #[test]
    fn terminating_chase_yields_model() {
        // R(a,b) & R(a',b) => R(a, b') existential in B? Use a full TD:
        // R(a,b) & R(a',b') => R(a,b'): closes A x B.
        let td = TdBuilder::new(schema2())
            .antecedent(["a", "b"])
            .unwrap()
            .antecedent(["a'", "b'"])
            .unwrap()
            .conclusion(["a", "b'"])
            .unwrap()
            .build("prod")
            .unwrap();
        let tds = vec![td];
        let mut initial = Instance::new(schema2());
        initial.insert_values([0, 0]).unwrap();
        initial.insert_values([1, 1]).unwrap();
        let mut engine = ChaseEngine::new(
            &tds,
            initial,
            ChasePolicy::Restricted,
            ChaseBudget::default(),
        )
        .unwrap();
        assert_eq!(engine.run(None), ChaseOutcome::Terminated);
        // Final state: the 2x2 product, a model of the td.
        assert_eq!(engine.state().len(), 4);
        assert!(satisfies_all(engine.state(), &tds));
    }

    #[test]
    fn goal_reached_and_proof_records_goal() {
        let td = TdBuilder::new(schema2())
            .antecedent(["a", "b"])
            .unwrap()
            .antecedent(["a'", "b'"])
            .unwrap()
            .conclusion(["a", "b'"])
            .unwrap()
            .build("prod")
            .unwrap();
        let tds = vec![td];
        let mut initial = Instance::new(schema2());
        initial.insert_values([0, 0]).unwrap();
        initial.insert_values([1, 1]).unwrap();
        let goal = Goal::new(vec![Some(Value::new(0)), Some(Value::new(1))]);
        let mut engine = ChaseEngine::new(
            &tds,
            initial.clone(),
            ChasePolicy::Restricted,
            ChaseBudget::default(),
        )
        .unwrap();
        assert_eq!(engine.run(Some(&goal)), ChaseOutcome::GoalReached);
        let (_, proof) = engine.into_parts();
        assert!(proof.goal_row.is_some());
        proof.verify(&initial, &tds, Some(&goal)).unwrap();
    }

    #[test]
    fn divergent_chase_hits_budget() {
        // R(a,b) => exists b*: R(a,b*) — restricted chase satisfies it
        // immediately (the row itself witnesses? No: conclusion b* is
        // existential, witnessed by the row itself. So pick a genuinely
        // divergent set: R(a,b) => exists a*: R(a*,b) with B fresh each…
        // that too is witnessed. Use two tds that feed each other on
        // *distinct* values:
        // t1: R(a,b) & R(a,b') => exists a*: R(a*, b)  -- witnessed by (a,b).
        // Simplest divergence: oblivious chase of a self-witnessing td.
        let td = TdBuilder::new(schema2())
            .antecedent(["a", "b"])
            .unwrap()
            .conclusion(["a", "*"])
            .unwrap()
            .build("grow")
            .unwrap();
        let tds = vec![td];
        let mut initial = Instance::new(schema2());
        initial.insert_values([0, 0]).unwrap();
        let mut engine =
            ChaseEngine::new(&tds, initial, ChasePolicy::Oblivious, ChaseBudget::small()).unwrap();
        assert_eq!(engine.run(None), ChaseOutcome::BudgetExhausted);
        assert!(engine.steps_fired() > 0);
    }

    #[test]
    fn restricted_chase_of_witnessed_td_terminates_instantly() {
        let td = TdBuilder::new(schema2())
            .antecedent(["a", "b"])
            .unwrap()
            .conclusion(["a", "*"])
            .unwrap()
            .build("self-witnessed")
            .unwrap();
        let tds = vec![td];
        let mut initial = Instance::new(schema2());
        initial.insert_values([0, 0]).unwrap();
        let mut engine = ChaseEngine::new(
            &tds,
            initial,
            ChasePolicy::Restricted,
            ChaseBudget::default(),
        )
        .unwrap();
        assert_eq!(engine.run(None), ChaseOutcome::Terminated);
        assert_eq!(engine.steps_fired(), 0);
        assert_eq!(engine.state().len(), 1);
    }

    /// Regression: a discovery pass truncated by the step budget must not
    /// let the round conclude `Terminated`. With `max_steps = 1` the pass
    /// collects only the first trigger — here one whose conclusion is
    /// already present, so nothing fires — while triggers that would add
    /// rows remain undiscovered. The honest outcome is budget exhaustion.
    #[test]
    fn truncated_oblivious_round_is_not_a_fixpoint() {
        let td = TdBuilder::new(schema2())
            .antecedent(["a", "b"])
            .unwrap()
            .antecedent(["a'", "b'"])
            .unwrap()
            .conclusion(["a", "b'"])
            .unwrap()
            .build("prod")
            .unwrap();
        let tds = vec![td];
        let mut initial = Instance::new(schema2());
        initial.insert_values([0, 0]).unwrap();
        initial.insert_values([1, 1]).unwrap();
        let budget = ChaseBudget {
            max_steps: 1,
            max_rows: 100,
            max_rounds: 5,
        };
        let mut engine = ChaseEngine::new(&tds, initial, ChasePolicy::Oblivious, budget).unwrap();
        // The first enumerated trigger maps both antecedents onto row 0 and
        // concludes (0,0), which is already present; the product rows (0,1)
        // and (1,0) are still missing, so this is NOT a fixpoint.
        assert_eq!(engine.run(None), ChaseOutcome::BudgetExhausted);
        assert_eq!(engine.state().len(), 2, "nothing may fire under cap 1");
    }

    #[test]
    fn fire_rejects_bogus_triggers() {
        let td = TdBuilder::new(schema2())
            .antecedent(["a", "b"])
            .unwrap()
            .conclusion(["a", "*"])
            .unwrap()
            .build("t")
            .unwrap();
        let tds = vec![td.clone()];
        let initial = Instance::new(schema2());
        let mut engine = ChaseEngine::new(
            &tds,
            initial,
            ChasePolicy::Restricted,
            ChaseBudget::default(),
        )
        .unwrap();
        // Unbound variables.
        let err = engine.fire(0, &Binding::new(2)).unwrap_err();
        assert!(matches!(err, CoreError::ProofReplay(_)));
        // Bound but absent tuple.
        let mut b = Binding::new(2);
        use crate::ids::{AttrId, Var};
        b.bind(
            AttrId::new(0),
            td.antecedents()[0].get(AttrId::new(0)),
            Value::new(3),
        );
        b.bind(
            AttrId::new(1),
            td.antecedents()[0].get(AttrId::new(1)),
            Value::new(3),
        );
        let err = engine.fire(0, &b).unwrap_err();
        assert!(matches!(err, CoreError::ProofReplay(_)));
        let _ = Var::new(0); // silence unused import in cfg(test)
    }

    #[test]
    fn cancellation_token_stops_the_run_and_is_distinguished() {
        // The divergent oblivious fixture from `divergent_chase_hits_budget`.
        let td = TdBuilder::new(schema2())
            .antecedent(["a", "b"])
            .unwrap()
            .conclusion(["a", "*"])
            .unwrap()
            .build("grow")
            .unwrap();
        let tds = vec![td];
        let mut initial = Instance::new(schema2());
        initial.insert_values([0, 0]).unwrap();

        // A pre-cancelled token stops the run before anything fires.
        let cancel = Cancellation::new();
        cancel.cancel();
        let mut engine = ChaseEngine::new(
            &tds,
            initial.clone(),
            ChasePolicy::Oblivious,
            ChaseBudget::small(),
        )
        .unwrap()
        .with_cancellation(&cancel);
        assert_eq!(engine.run(None), ChaseOutcome::BudgetExhausted);
        assert!(engine.was_cancelled());
        assert_eq!(engine.steps_fired(), 0);

        // The same run with an idle token exhausts its own budget instead,
        // and the engine reports the difference.
        let idle = Cancellation::new();
        let mut engine =
            ChaseEngine::new(&tds, initial, ChasePolicy::Oblivious, ChaseBudget::small())
                .unwrap()
                .with_cancellation(&idle);
        assert_eq!(engine.run(None), ChaseOutcome::BudgetExhausted);
        assert!(!engine.was_cancelled());
        assert!(engine.steps_fired() > 0);
    }

    /// Shared fixtures for the resume tests — all *full* typed TDs
    /// (terminating, no nulls, unique closure): the product TD
    /// `R(a,b) & R(a',b') -> R(a,b')` closes A×B; the pseudo-transitivity
    /// TD `R(a,b) & R(a',b) & R(a',b') -> R(a,b')` only closes each
    /// connected component of the row graph, so it genuinely differs.
    fn prod_td() -> Td {
        TdBuilder::new(schema2())
            .antecedent(["a", "b"])
            .unwrap()
            .antecedent(["a'", "b'"])
            .unwrap()
            .conclusion(["a", "b'"])
            .unwrap()
            .build("prod")
            .unwrap()
    }

    fn pt_td() -> Td {
        TdBuilder::new(schema2())
            .antecedent(["a", "b"])
            .unwrap()
            .antecedent(["a'", "b"])
            .unwrap()
            .antecedent(["a'", "b'"])
            .unwrap()
            .conclusion(["a", "b'"])
            .unwrap()
            .build("pt")
            .unwrap()
    }

    /// Initial tableau with two connected components: `{0,1}×{1,2}` is
    /// linked through `(1,1)`, while `(3,4)` sits alone — so `pt` closes
    /// only the first component and `prod` is needed for the full product.
    fn two_component_initial() -> Instance {
        let mut initial = Instance::new(schema2());
        for row in [[0u32, 1], [1, 1], [1, 2], [3, 4]] {
            initial.insert_values(row).unwrap();
        }
        initial
    }

    /// Monolithic oracle: chase `tds` from `initial` to fixpoint, returning
    /// the final state and the number of fired steps.
    fn monolithic(tds: &[Td], initial: &Instance) -> (Instance, usize) {
        let mut engine = ChaseEngine::new(
            tds,
            initial.clone(),
            ChasePolicy::Restricted,
            ChaseBudget::default(),
        )
        .unwrap();
        assert_eq!(engine.run(None), ChaseOutcome::Terminated);
        let steps = engine.steps_fired();
        (engine.into_parts().0, steps)
    }

    /// The tentpole contract: suspend at fixpoint, append a dependency,
    /// resume — the resumed fixpoint is set-equal (`Instance` equality is
    /// set semantics) to a monolithic chase of the extended Σ, because for
    /// full TDs the restricted chase has a unique closure.
    #[test]
    fn suspend_extend_resume_equals_monolithic_chase() {
        let initial = two_component_initial();

        // Phase 1: chase Σ₁ = [pt] to fixpoint (closes the linked
        // component, one firing) and suspend.
        let sigma1 = vec![pt_td()];
        let mut engine = ChaseEngine::new(
            &sigma1,
            initial.clone(),
            ChasePolicy::Restricted,
            ChaseBudget::default(),
        )
        .unwrap();
        assert_eq!(engine.run(None), ChaseOutcome::Terminated);
        assert!(engine.steps_fired() > 0, "phase 1 does real work");
        let suspended = engine.suspend();
        assert!(suspended.is_saturated());
        assert_eq!(suspended.integrated(), 1);

        // Phase 2: Σ₂ = Σ₁ + [prod]; resume and finish (the appended TD
        // bridges the components and closes the full product).
        let sigma2 = vec![pt_td(), prod_td()];
        let mut engine = ChaseEngine::resume(
            &sigma2,
            suspended,
            ChasePolicy::Restricted,
            ChaseBudget::default(),
        )
        .unwrap();
        assert_eq!(engine.run(None), ChaseOutcome::Terminated);
        let resumed_steps = engine.steps_fired();
        let (resumed, _) = engine.into_parts();

        let (mono, mono_steps) = monolithic(&sigma2, &initial);
        assert_eq!(resumed, mono, "resumed fixpoint diverged from monolithic");
        assert!(satisfies_all(&resumed, &sigma2));
        // Full TDs: every fired step adds exactly one row, so the
        // cumulative counter matches the monolithic run as well.
        assert_eq!(resumed_steps, mono_steps);
    }

    /// Resuming with an unchanged Σ is a cheap no-op round: the delta is
    /// empty, nothing fires, the state is untouched.
    #[test]
    fn resume_without_new_deps_is_a_noop() {
        let mut initial = Instance::new(schema2());
        initial.insert_values([0, 0]).unwrap();
        initial.insert_values([1, 1]).unwrap();
        let tds = vec![prod_td()];
        let mut engine = ChaseEngine::new(
            &tds,
            initial,
            ChasePolicy::Restricted,
            ChaseBudget::default(),
        )
        .unwrap();
        assert_eq!(engine.run(None), ChaseOutcome::Terminated);
        let steps = engine.steps_fired();
        let suspended = engine.suspend();
        let before = suspended.instance().clone();

        let mut engine = ChaseEngine::resume(
            &tds,
            suspended,
            ChasePolicy::Restricted,
            ChaseBudget::default(),
        )
        .unwrap();
        assert_eq!(engine.run(None), ChaseOutcome::Terminated);
        assert_eq!(engine.steps_fired(), steps, "no re-firing on resume");
        assert_eq!(engine.state(), &before);
    }

    /// Budget-exhaustion path: a run stopped mid-round by `max_steps`
    /// rolls its frontier back, so a resumed run with a fresh budget
    /// rediscovers the unfired triggers and still reaches the exact
    /// monolithic fixpoint.
    #[test]
    fn resume_after_step_budget_exhaustion_completes_the_chase() {
        let mut initial = Instance::new(schema2());
        for v in 0..3u32 {
            initial.insert_values([v, v]).unwrap();
        }
        let tds = vec![prod_td()];
        let tight = ChaseBudget {
            max_steps: 2,
            max_rows: 100,
            max_rounds: 50,
        };
        let mut engine =
            ChaseEngine::new(&tds, initial.clone(), ChasePolicy::Restricted, tight).unwrap();
        assert_eq!(engine.run(None), ChaseOutcome::BudgetExhausted);
        assert_eq!(engine.steps_fired(), 2);
        let suspended = engine.suspend();
        assert!(!suspended.is_saturated(), "rolled-back frontier is visible");

        let mut engine = ChaseEngine::resume(
            &tds,
            suspended,
            ChasePolicy::Restricted,
            ChaseBudget::default(),
        )
        .unwrap();
        assert_eq!(engine.run(None), ChaseOutcome::Terminated);
        let total_steps = engine.steps_fired();
        let (resumed, _) = engine.into_parts();

        let (mono, mono_steps) = monolithic(&tds, &initial);
        assert_eq!(resumed, mono);
        assert_eq!(total_steps, mono_steps, "no step is double-counted");
    }

    /// Cancellation path: a cancelled run is suspendable like any other,
    /// and the stop *reason* stays observable — the cancelled engine
    /// reports `was_cancelled`, the resumed engine (idle token) finishes
    /// and reports a clean run.
    #[test]
    fn resume_after_cancellation_completes_and_reports_cleanly() {
        let mut initial = Instance::new(schema2());
        for v in 0..3u32 {
            initial.insert_values([v, v]).unwrap();
        }
        let tds = vec![prod_td()];
        let cancel = Cancellation::new();
        cancel.cancel();
        let mut engine = ChaseEngine::new(
            &tds,
            initial.clone(),
            ChasePolicy::Restricted,
            ChaseBudget::default(),
        )
        .unwrap()
        .with_cancellation(&cancel);
        assert_eq!(engine.run(None), ChaseOutcome::BudgetExhausted);
        assert!(engine.was_cancelled(), "stop reason: cancelled, not spent");
        let suspended = engine.suspend();

        let idle = Cancellation::new();
        let mut engine = ChaseEngine::resume(
            &tds,
            suspended,
            ChasePolicy::Restricted,
            ChaseBudget::default(),
        )
        .unwrap()
        .with_cancellation(&idle);
        assert_eq!(engine.run(None), ChaseOutcome::Terminated);
        assert!(!engine.was_cancelled(), "stop reason: clean termination");
        let (resumed, _) = engine.into_parts();
        assert_eq!(resumed, monolithic(&tds, &initial).0);
    }

    /// A goal-reached stop leaves unfired triggers behind; the rollback
    /// makes the suspended state resumable to the true fixpoint — the
    /// session pattern of asking one goal and later another.
    #[test]
    fn goal_reached_state_resumes_to_the_full_fixpoint() {
        let mut initial = Instance::new(schema2());
        for v in 0..3u32 {
            initial.insert_values([v, v]).unwrap();
        }
        let tds = vec![prod_td()];
        let goal = Goal::new(vec![Some(Value::new(0)), Some(Value::new(1))]);
        let mut engine = ChaseEngine::new(
            &tds,
            initial.clone(),
            ChasePolicy::Restricted,
            ChaseBudget::default(),
        )
        .unwrap();
        assert_eq!(engine.run(Some(&goal)), ChaseOutcome::GoalReached);
        assert!(engine.steps_fired() < 6, "goal stops before the closure");
        let suspended = engine.suspend();

        let mut engine = ChaseEngine::resume(
            &tds,
            suspended,
            ChasePolicy::Restricted,
            ChaseBudget::default(),
        )
        .unwrap();
        assert_eq!(engine.run(None), ChaseOutcome::Terminated);
        let (resumed, _) = engine.into_parts();
        let (mono, _) = monolithic(&tds, &initial);
        assert_eq!(resumed, mono, "post-goal resume reaches the closure");
    }

    /// Incremental growth across several resumes stays exact: add one
    /// dependency at a time, resuming each time, and land on the same
    /// fixpoint as chasing the final Σ monolithically.
    #[test]
    fn repeated_extend_resume_cycles_stay_exact() {
        // The exchange TD is satisfied by any product set, so the third
        // cycle is a no-op resume — also worth pinning.
        let exchange = TdBuilder::new(schema2())
            .antecedent(["a", "b"])
            .unwrap()
            .antecedent(["a", "b'"])
            .unwrap()
            .antecedent(["a'", "b'"])
            .unwrap()
            .conclusion(["a'", "b"])
            .unwrap()
            .build("exchange")
            .unwrap();
        let initial = two_component_initial();

        let full = [pt_td(), prod_td(), exchange];
        let mut st = ChaseState::new(initial.clone());
        for k in 1..=full.len() {
            let sigma = &full[..k];
            let mut engine =
                ChaseEngine::resume(sigma, st, ChasePolicy::Restricted, ChaseBudget::default())
                    .unwrap();
            assert_eq!(engine.run(None), ChaseOutcome::Terminated);
            st = engine.suspend();
            assert_eq!(st.integrated(), k);

            let (mono, mono_steps) = monolithic(sigma, &initial);
            assert_eq!(st.instance(), &mono, "diverged at prefix length {k}");
            assert_eq!(st.steps_fired(), mono_steps);
        }
    }

    /// Resuming with *fewer* dependencies than the state integrated is a
    /// contract violation and must be rejected (removal means re-chase).
    #[test]
    fn resume_with_shrunk_sigma_is_rejected() {
        let tds = vec![prod_td()];
        let mut initial = Instance::new(schema2());
        initial.insert_values([0, 1]).unwrap();
        let mut engine = ChaseEngine::new(
            &tds,
            initial,
            ChasePolicy::Restricted,
            ChaseBudget::default(),
        )
        .unwrap();
        assert_eq!(engine.run(None), ChaseOutcome::Terminated);
        let suspended = engine.suspend();
        let err = ChaseEngine::resume(
            &[],
            suspended,
            ChasePolicy::Restricted,
            ChaseBudget::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::ProofReplay(_)));
    }

    #[test]
    fn schema_mismatch_rejected() {
        let other = Schema::new("S", ["X"]).unwrap();
        let td = TdBuilder::new(schema2())
            .antecedent(["a", "b"])
            .unwrap()
            .conclusion(["a", "b"])
            .unwrap()
            .build("t")
            .unwrap();
        let tds = vec![td];
        let initial = Instance::new(other);
        assert!(matches!(
            ChaseEngine::new(
                &tds,
                initial,
                ChasePolicy::Restricted,
                ChaseBudget::default()
            ),
            Err(CoreError::SchemaMismatch { .. })
        ));
    }
}
