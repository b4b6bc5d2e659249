//! The axiom-driven fast path: a staged prescreen that settles easy
//! implication questions in microseconds — or bails, certainly and
//! cheaply, to the full solver.
//!
//! The full pipeline pays the chase/semigroup race on every cold solve
//! (tens of milliseconds); caching and snapshots only amortize that cost.
//! This module attacks it: most machine-generated corpora are dominated by
//! *easy* questions — tautological goals, goals one axiom application away
//! from a premise, or instances whose own frozen goal tableau is already a
//! countermodel — and each of those is decidable by the Sadri–Ullman
//! weakening calculus ([`td_core::axioms`]) without ever warming up a
//! search.
//!
//! [`prescreen`] runs four stages over the reduced system `(D, D₀)`, in
//! fail-fast cost order, and returns a **certain** verdict or bails:
//!
//! 1. **Tautology** — `D₀`'s conclusion row is witnessed by one of its own
//!    antecedent rows ([`td_core::td::Td::is_trivial`]): implied by the
//!    empty set, verdict `Implied`.
//! 2. **Refutation probe** — a small template instance (the frozen `D₀`
//!    antecedent tableau, [`td_core::inference::freeze`]) satisfies every
//!    premise yet violates `D₀`: a finite countermodel in hand, verdict
//!    `Refuted`. One dependency sweep with an early break — refutable
//!    instances settle in a single pass, implied ones leave at the first
//!    firing premise. The per-dependency checks ride the existing
//!    allocation-free matchers ([`td_core::homomorphism::row_match_exists`]
//!    behind [`td_core::satisfaction::conclusion_witnessed_with`]).
//! 3. **Subsumption** — some premise implies `D₀` in at most one chase
//!    step ([`td_core::axioms::subsumes`]): verdict `Implied`.
//! 4. **Bounded weakening** — `D₀` is syntactically reachable from a
//!    premise by a short chain of canonical weakenings
//!    ([`td_core::axioms::derivable_by_weakening_within`]): verdict
//!    `Implied`. This is the one stage with an exponential tree, so it
//!    runs last on its own small sub-allowance
//!    ([`FastBudget::weaken_checks`]), drawn from whatever the shared
//!    [`FastBudget::max_checks`] cap has left.
//!
//! Stages 1/3/4 settle `Implied`, stage 2 settles `Refuted`; the two are
//! mutually exclusive (a sound implication proof and a countermodel cannot
//! coexist), so stage order affects only cost, never the verdict.
//!
//! Every settled verdict carries a replayable [`FastReason`] — which rule
//! fired, or which template instance refutes — and [`replay`] re-verifies
//! it from scratch; the solve paths `debug_assert!` the replay. The
//! prescreen never consults a shared cancellation token: its spend is
//! bounded by its own deterministic [`FastBudget`] ticker, so the verdict,
//! the check count, and the truncation label are all replay-exact — the
//! property the spend reports and the spend goldens rely on.

use td_core::axioms::{derivable_by_weakening_within, subsumes, subsumes_frozen};
use td_core::budget::{Cancellation, Ticker};
use td_core::homomorphism::{Binding, MatchStrategy};
use td_core::inference::freeze;
use td_core::instance::Instance;
use td_core::satisfaction::{conclusion_witnessed_with, satisfies_with};

use crate::deps::ReductionSystem;
use crate::error::{RedError, Result};

/// Hard, deterministic spend caps for one [`prescreen`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastBudget {
    /// Maximum canonical-weakening proof-search depth per premise
    /// (stage 4). Depth 1 already covers every single-weakening
    /// consequence that subsumption missed; the exponential tree above
    /// depth 2 is not worth prescreen time.
    pub weaken_depth: usize,
    /// Hard cap on total prescreen spend, in *checks*: one unit per
    /// subsumption test, per probe dependency check, and per weakening
    /// search node. Exhausting the cap bails (it never fakes a verdict)
    /// and labels the spend truncated.
    pub max_checks: u64,
    /// Sub-cap on stage 4 alone (weakening search nodes), drawn from
    /// whatever `max_checks` has left. The weakening tree is the one
    /// exponential stage, and on hard instances it would otherwise burn
    /// the whole budget in milliseconds; a small dedicated allowance keeps
    /// the worst-case bail in the microsecond regime.
    pub weaken_checks: u64,
}

impl Default for FastBudget {
    fn default() -> Self {
        Self {
            weaken_depth: 2,
            max_checks: 256,
            weaken_checks: 8,
        }
    }
}

/// The replayable reason a fast-path verdict was settled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastReason {
    /// `D₀` is a tautology: an antecedent row witnesses its conclusion, so
    /// every database satisfies it.
    TrivialGoal,
    /// `deps[premise]` implies `D₀` in at most one chase step.
    Subsumed {
        /// Index of the subsuming premise in [`ReductionSystem::deps`].
        premise: usize,
    },
    /// `D₀` is reachable from `deps[premise]` by at most `depth` canonical
    /// weakenings.
    Weakened {
        /// Index of the premise the weakening chain starts from.
        premise: usize,
        /// The depth bound the chain was found within.
        depth: usize,
    },
    /// Probe template `template` — a `rows`-row instance — satisfies every
    /// premise and violates `D₀`: a finite countermodel.
    Probe {
        /// Index into the [`probe_templates`] family.
        template: usize,
        /// Rows of the refuting instance.
        rows: usize,
    },
}

/// A certain verdict the prescreen settled, with its replayable reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastVerdict {
    /// `D ⊨ D₀` — settled by a syntactic implication rule.
    Implied(FastReason),
    /// `D ⊭ D₀` over finite databases — a probe instance refutes it.
    Refuted(FastReason),
}

impl FastVerdict {
    /// `true` for [`FastVerdict::Implied`].
    pub fn is_implied(&self) -> bool {
        matches!(self, FastVerdict::Implied(_))
    }

    /// The reason the verdict was settled.
    pub fn reason(&self) -> &FastReason {
        match self {
            FastVerdict::Implied(r) | FastVerdict::Refuted(r) => r,
        }
    }

    /// Rows of the refuting probe instance, for refuted verdicts.
    pub fn model_rows(&self) -> Option<usize> {
        match self {
            FastVerdict::Refuted(FastReason::Probe { rows, .. }) => Some(*rows),
            _ => None,
        }
    }

    /// Renders the reason for diagnostics (`tdq wp`), naming the premise
    /// that fired.
    pub fn describe(&self, system: &ReductionSystem) -> String {
        let premise_name = |i: usize| {
            system
                .deps
                .get(i)
                .map(|td| td.name().to_string())
                .unwrap_or_else(|| format!("#{i}"))
        };
        match self.reason() {
            FastReason::TrivialGoal => "D0 is a tautology (conclusion witnessed by an antecedent row)".to_string(),
            FastReason::Subsumed { premise } => format!(
                "premise {} subsumes D0 (at most one chase step)",
                premise_name(*premise)
            ),
            FastReason::Weakened { premise, depth } => format!(
                "D0 is a weakening of premise {} (within {} canonical steps)",
                premise_name(*premise),
                depth
            ),
            FastReason::Probe { template, rows } => format!(
                "probe template {template} ({rows} rows, the frozen D0 tableau) satisfies D and violates D0"
            ),
        }
    }
}

/// What one [`prescreen`] call produced: a settled verdict or a bail, plus
/// deterministic spend accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prescreen {
    /// The certain verdict, if any stage settled.
    pub verdict: Option<FastVerdict>,
    /// Checks spent (subsumption tests + probe dependency checks +
    /// weakening nodes). Exact unless `truncated`.
    pub checks: u64,
    /// `true` when the prescreen bailed because [`FastBudget::max_checks`]
    /// ran out before every stage finished: `checks` is then the cap, and
    /// a richer budget might still have settled.
    pub truncated: bool,
}

/// The probe template family for `system`: small candidate countermodels,
/// cheapest first. Template 0 is the frozen `D₀` antecedent tableau — the
/// canonical candidate, since it violates `D₀` whenever the goal is
/// non-trivial, so it refutes exactly when it also satisfies every
/// premise. The family is indexed (see [`FastReason::Probe`]) so richer
/// templates can join without disturbing replay.
///
/// # Errors
///
/// Fails when freezing `D₀`'s antecedent tableau fails (arity defects —
/// impossible for a system built by [`crate::deps::build_system`]).
pub fn probe_templates(system: &ReductionSystem) -> Result<Vec<(Instance, Binding)>> {
    let (frozen, binding, _goal) = freeze(&system.d0)?;
    Ok(vec![(frozen, binding)])
}

/// Runs the staged prescreen over a reduced system. Returns a *certain*
/// verdict or bails; never errs on the side of a guess. See the module
/// docs for the stages and their order.
///
/// # Errors
///
/// Fails when a subsumption test or template construction fails
/// structurally (schema mismatch between a premise and `D₀` — impossible
/// for systems built by [`crate::deps::build_system`]).
pub fn prescreen(system: &ReductionSystem, budget: &FastBudget) -> Result<Prescreen> {
    // The prescreen's determinism contract forbids observing any shared
    // cancellation token (see module docs): the ticker binds a private,
    // never-cancelled token and stops on its own spend cap only.
    let never = Cancellation::new();
    let mut ticker = Ticker::new(&never, budget.max_checks, u64::MAX);

    // Stage 1: tautological goal — free (no ticker spend).
    if system.d0.is_trivial() {
        return Ok(Prescreen {
            verdict: Some(FastVerdict::Implied(FastReason::TrivialGoal)),
            checks: ticker.spent(),
            truncated: false,
        });
    }

    // D₀'s antecedent tableau, frozen once: stage 2 probes it as template 0
    // of [`probe_templates`] and stage 3 matches premises into it.
    let (frozen, binding, goal) = freeze(&system.d0)?;
    let goal_rows = system.d0.antecedent_count();

    // Stage 2: refutation probe over the template family — here template 0,
    // the frozen tableau already in hand. A template that satisfies every
    // premise and violates D₀ *is* a finite countermodel. This runs before
    // the subsumption scan because it is one dependency sweep with an early
    // break: refutable instances settle after a single pass, and implied
    // ones leave at the first firing premise — whereas the old
    // subsumption-first order made every refutation pay both full sweeps.
    {
        let (t, instance) = (0usize, &frozen);
        let mut satisfies_all = true;
        for dep in &system.deps {
            if !ticker.tick() {
                return Ok(bail(&ticker));
            }
            if !satisfies_with(MatchStrategy::Indexed, instance, dep) {
                satisfies_all = false;
                break;
            }
        }
        if satisfies_all {
            if !ticker.tick() {
                return Ok(bail(&ticker));
            }
            // The identity match of D₀'s antecedents is unwitnessed ⇒ the
            // template violates D₀ (checked allocation-free against the
            // frozen goal pattern).
            if !conclusion_witnessed_with(MatchStrategy::Indexed, instance, &system.d0, &binding) {
                return Ok(Prescreen {
                    verdict: Some(FastVerdict::Refuted(FastReason::Probe {
                        template: t,
                        rows: instance.len(),
                    })),
                    checks: ticker.spent(),
                    truncated: false,
                });
            }
        }
    }

    // Stage 3: single-step subsumption by any premise. Premises with more
    // antecedent rows than D₀'s tableau has rows are skipped without
    // spending a check: such a premise can only subsume by collapsing rows,
    // a corner the full solver covers — the skip is deterministic and only
    // narrows coverage, never flips a verdict.
    for (i, premise) in system.deps.iter().enumerate() {
        if premise.antecedent_count() > goal_rows {
            continue;
        }
        if !ticker.tick() {
            return Ok(bail(&ticker));
        }
        if subsumes_frozen(premise, &frozen, &goal) {
            return Ok(Prescreen {
                verdict: Some(FastVerdict::Implied(FastReason::Subsumed { premise: i })),
                checks: ticker.spent(),
                truncated: false,
            });
        }
    }

    // Stage 4: bounded-depth weakening derivability — the one exponential
    // stage, last, on its own sub-allowance (never more than what the main
    // budget has left). Canonical weakenings never drop an antecedent row,
    // so premises already wider than D₀ can never reach it: skipping them
    // here is complete, not just sound.
    let weaken_cap = budget
        .weaken_checks
        .min(budget.max_checks.saturating_sub(ticker.spent()));
    let mut weaken_ticker = Ticker::new(&never, weaken_cap, u64::MAX);
    for (i, premise) in system.deps.iter().enumerate() {
        if premise.antecedent_count() > goal_rows {
            continue;
        }
        if derivable_by_weakening_within(
            premise,
            &system.d0,
            budget.weaken_depth,
            &mut weaken_ticker,
        ) {
            return Ok(Prescreen {
                verdict: Some(FastVerdict::Implied(FastReason::Weakened {
                    premise: i,
                    depth: budget.weaken_depth,
                })),
                checks: ticker.spent() + weaken_ticker.spent(),
                truncated: false,
            });
        }
        if weaken_ticker.stopped() {
            return Ok(Prescreen {
                verdict: None,
                checks: ticker.spent() + weaken_ticker.spent(),
                truncated: true,
            });
        }
    }

    Ok(Prescreen {
        verdict: None,
        checks: ticker.spent() + weaken_ticker.spent(),
        truncated: false,
    })
}

/// A budget-exhausted bail: no verdict, spend labelled truncated.
fn bail(ticker: &Ticker<'_>) -> Prescreen {
    Prescreen {
        verdict: None,
        checks: ticker.spent(),
        truncated: true,
    }
}

/// Re-verifies a settled fast-path verdict from scratch: re-runs exactly
/// the rule its [`FastReason`] names. `Ok(true)` means the reason replays;
/// `Ok(false)` means it does not certify the verdict against this system
/// (wrong system, or a corrupted reason).
///
/// # Errors
///
/// Fails when the reason refers to a premise index outside
/// [`ReductionSystem::deps`], or when the named rule itself fails
/// structurally (schema mismatch).
pub fn replay(system: &ReductionSystem, verdict: &FastVerdict) -> Result<bool> {
    let premise = |i: usize| {
        system.deps.get(i).ok_or_else(|| {
            RedError::Precondition(format!(
                "fast-path reason names premise {i}, but the system has {} dependencies",
                system.deps.len()
            ))
        })
    };
    match verdict.reason() {
        FastReason::TrivialGoal => Ok(verdict.is_implied() && system.d0.is_trivial()),
        FastReason::Subsumed { premise: i } => {
            Ok(verdict.is_implied() && subsumes(premise(*i)?, &system.d0)?)
        }
        FastReason::Weakened { premise: i, depth } => Ok(verdict.is_implied()
            && td_core::axioms::derivable_by_weakening(premise(*i)?, &system.d0, *depth)),
        FastReason::Probe { template, rows } => {
            if verdict.is_implied() {
                return Ok(false);
            }
            let templates = probe_templates(system)?;
            let Some((instance, binding)) = templates.get(*template) else {
                return Ok(false);
            };
            Ok(instance.len() == *rows
                && system
                    .deps
                    .iter()
                    .all(|dep| satisfies_with(MatchStrategy::Indexed, instance, dep))
                && !conclusion_witnessed_with(
                    MatchStrategy::Indexed,
                    instance,
                    &system.d0,
                    binding,
                ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::build_system;
    use td_semigroup::alphabet::Alphabet;
    use td_semigroup::equation::Equation;
    use td_semigroup::normalize::normalize;
    use td_semigroup::presentation::Presentation;

    fn system_of(p: &Presentation) -> ReductionSystem {
        let normalized = normalize(&p.zero_saturated()).unwrap();
        build_system(&normalized.presentation).unwrap()
    }

    fn empty(n: usize) -> Presentation {
        Presentation::new(Alphabet::standard(n), vec![]).unwrap()
    }

    fn parse(n: usize, eqs: &[&str]) -> Presentation {
        let alphabet = Alphabet::standard(n);
        let eqs = eqs
            .iter()
            .map(|e| Equation::parse(e, &alphabet).unwrap())
            .collect();
        Presentation::new(alphabet, eqs).unwrap()
    }

    /// The empty presentation — the `wp_refuted` golden instance — settles
    /// `Refuted` via the probe: its frozen goal tableau is a fixpoint of
    /// the zero-saturation dependencies.
    #[test]
    fn probe_refutes_empty_presentations() {
        for n in 1..=4 {
            let system = system_of(&empty(n));
            let pre = prescreen(&system, &FastBudget::default()).unwrap();
            let verdict = pre.verdict.unwrap_or_else(|| panic!("bailed for n={n}"));
            assert!(
                matches!(
                    verdict,
                    FastVerdict::Refuted(FastReason::Probe { template: 0, rows })
                        if rows == system.d0.antecedent_count()
                ),
                "n={n}: {verdict:?}"
            );
            assert!(!pre.truncated);
            assert!(pre.checks > 0);
            assert!(replay(&system, &verdict).unwrap());
        }
    }

    /// Aliasing `A0 = 0` makes the goal settle on the implied side.
    #[test]
    fn aliased_goal_settles_implied() {
        let system = system_of(&parse(1, &["A0 = 0"]));
        let pre = prescreen(&system, &FastBudget::default()).unwrap();
        let verdict = pre.verdict.expect("A0 = 0 must settle");
        assert!(verdict.is_implied(), "{verdict:?}");
        assert!(replay(&system, &verdict).unwrap());
    }

    /// The two-generator running example needs a genuine two-step
    /// derivation: no single rule settles it, so the prescreen must bail —
    /// and bail exactly, without exhausting the default budget.
    #[test]
    fn multi_step_instances_bail() {
        let system = system_of(&parse(2, &["A1 A1 = A0", "A1 A1 = 0"]));
        let pre = prescreen(&system, &FastBudget::default()).unwrap();
        assert_eq!(pre.verdict, None);
        // Replaying bails identically: spend is deterministic.
        let again = prescreen(&system, &FastBudget::default()).unwrap();
        assert_eq!(pre, again);
    }

    /// The relabel chain `A0 = X1, X1 = 0` is implied but only via two
    /// identification steps: the prescreen must not claim it.
    #[test]
    fn relabel_chain_bails() {
        let alphabet = Alphabet::new(["A0", "X1", "0"], "A0", "0").unwrap();
        let eqs = vec![
            Equation::parse("A0 = X1", &alphabet).unwrap(),
            Equation::parse("X1 = 0", &alphabet).unwrap(),
        ];
        let p = Presentation::new(alphabet, eqs).unwrap();
        let system = system_of(&p);
        let pre = prescreen(&system, &FastBudget::default()).unwrap();
        assert_eq!(pre.verdict, None, "two-step relabeling is not one rule");
    }

    /// A starved budget bails with `truncated` and spends exactly the cap;
    /// the verdict never flips to a guess.
    #[test]
    fn starved_budget_bails_truncated() {
        let system = system_of(&empty(2));
        let pre = prescreen(
            &system,
            &FastBudget {
                weaken_depth: 2,
                max_checks: 1,
                weaken_checks: 1,
            },
        )
        .unwrap();
        assert_eq!(pre.verdict, None);
        assert!(pre.truncated);
        assert_eq!(pre.checks, 1);
    }

    /// Replay rejects reasons transplanted onto the wrong system and
    /// out-of-range premise indices.
    #[test]
    fn replay_rejects_foreign_reasons() {
        let refutable = system_of(&empty(1));
        let hard = system_of(&parse(2, &["A1 A1 = A0", "A1 A1 = 0"]));
        let verdict = prescreen(&refutable, &FastBudget::default())
            .unwrap()
            .verdict
            .unwrap();
        // The empty presentation's probe reason does not certify the hard
        // system (its tableau fires rules there or the goal is witnessed).
        assert!(!replay(&hard, &verdict).unwrap());
        // Premise indices outside the system are structural errors.
        let bogus = FastVerdict::Implied(FastReason::Subsumed { premise: 9999 });
        assert!(replay(&refutable, &bogus).is_err());
        // A probe reason with the wrong row count does not replay.
        let wrong_rows = FastVerdict::Refuted(FastReason::Probe {
            template: 0,
            rows: 7,
        });
        assert!(!replay(&refutable, &wrong_rows).unwrap());
        // An implied verdict with a probe reason is incoherent.
        let incoherent = FastVerdict::Implied(FastReason::Probe {
            template: 0,
            rows: 3,
        });
        assert!(!replay(&refutable, &incoherent).unwrap());
    }

    /// Differential guard at the unit level: on a small fixed corpus the
    /// prescreen, whenever it settles, agrees with the sequential oracle.
    #[test]
    fn settled_verdicts_agree_with_oracle() {
        let corpus = vec![
            empty(1),
            empty(2),
            empty(3),
            parse(1, &["A0 = 0"]),
            parse(2, &["A0 A1 = 0"]),
            parse(2, &["A1 A1 = A0", "A1 A1 = 0"]),
            parse(2, &["A0 A0 = 0"]),
            parse(3, &["A1 A2 = 0", "A2 A1 = A0"]),
        ];
        for p in corpus {
            let system = system_of(&p);
            let pre = prescreen(&system, &FastBudget::default()).unwrap();
            let Some(verdict) = pre.verdict else { continue };
            assert!(replay(&system, &verdict).unwrap());
            let oracle = crate::engine::Engine::with_config(crate::engine::EngineConfig {
                opts: crate::pipeline::SolveOptions {
                    mode: crate::pipeline::SolveMode::Sequential,
                    ..Default::default()
                },
                ..Default::default()
            })
            .run_full(&p)
            .unwrap();
            match verdict {
                FastVerdict::Implied(_) => assert!(
                    oracle.outcome.is_implied(),
                    "fastpath Implied, oracle {:?}",
                    oracle.outcome
                ),
                FastVerdict::Refuted(_) => assert!(
                    oracle.outcome.is_refuted(),
                    "fastpath Refuted, oracle {:?}",
                    oracle.outcome
                ),
            }
        }
    }
}
