//! The end-to-end pipeline: word problem → reduction → verdict.
//!
//! Every solve, one-shot or served, runs through
//! [`crate::engine::Engine`] ([`crate::engine::Engine::run_full`] for the
//! certificates, [`crate::engine::Engine::decide`] and
//! [`crate::engine::Engine::solve_batch`] through the decision cache),
//! and every one of them ends in this module's single executor:
//!
//! 1. zero-saturate and [`td_semigroup::normalize::normalize`] the input
//!    presentation;
//! 2. [`build_system`] — the dependencies `D` and goal `D₀`;
//! 3. run the two certificate searches:
//!    * the **derivable** side — search for a derivation `A₀ ⇒* 0`; on
//!      success, compile it into a guided chase proof (part (A)) —
//!      `D ⊨ D₀`, certified;
//!    * the **refutable** side — look for a finite cancellation
//!      countermodel (analytic families first, then backtracking search);
//!      on success, build the part (B) database — `D ⊭ D₀` (finitely),
//!      certified;
//! 4. otherwise report `Unknown` with the spent budgets — the honest third
//!    verdict mandated by undecidability.
//!
//! # Racing the two sides
//!
//! The two searches certify mutually exclusive answers (a derivation makes
//! `A₀ = 0` hold in *every* model, so no countermodel can exist), so
//! nothing is learned by running the loser to completion. Under
//! [`SolveMode::Racing`] — the default — the model side runs on a scoped
//! thread and the derivation side on the calling thread, sharing the
//! request's cancellation token: whichever finds its certificate first
//! flips the token and the other side backs out at its next poll.
//! [`SolveMode::Sequential`] preserves the historical
//! derivation-then-model order on the calling thread; the differential
//! property tests assert both modes return the same verdict.
//!
//! Every run also records wall-clock [`PhaseTimings`], which the `tdq`
//! binary surfaces under `--timings`.

// Every solve runs through this executor on a serve worker: a panic here
// takes a request down with it. The td-lint panic-path pass enforces
// panic-freedom lexically; the clippy pair keeps `cargo clippy` aligned.
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::time::{Duration, Instant};

use td_core::budget::Cancellation;
use td_core::chase::ChaseBudget;
use td_core::homomorphism::MatchStrategy;
use td_semigroup::cayley::{FiniteSemigroup, Interpretation};
use td_semigroup::derivation::{
    search_goal_derivation_tracked, Derivation, SearchBudget, SearchResult,
};
use td_semigroup::model_search::{
    find_counter_model_tracked, ModelSearchOptions, ModelSearchResult,
};
use td_semigroup::normalize::{normalize, Normalized};
use td_semigroup::presentation::Presentation;

use crate::deps::{build_system, ReductionSystem};
use crate::error::{RedError, Result};
use crate::part_a::{prove_part_a_with, PartAProof};
use crate::part_b::{build_counter_model, CounterModel};
use crate::verify::{verify_counter_model_with, PartBReport};

/// Budgets for the three searches involved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budgets {
    /// Derivation search budget.
    pub derivation: SearchBudget,
    /// Finite-model search options.
    pub model: ModelSearchOptions,
    /// Chase budget (used only by unguided cross-checks; part (A) itself is
    /// guided and needs no budget).
    pub chase: ChaseBudget,
}

/// Scheduling and matching choices for every solve an
/// [`crate::engine::Engine`] runs. The default races the two sides and
/// matches with the indexed planner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveOptions {
    /// How the two certificate searches are scheduled.
    pub mode: SolveMode,
    /// The homomorphism matcher used by the database-layer checks
    /// (certificate verification); `Naive` is the differential oracle
    /// surfaced on the CLI as `--strategy naive`.
    pub strategy: MatchStrategy,
}

/// How a solve schedules the two certificate searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveMode {
    /// Derivation search first, model search only if it fails — on the
    /// calling thread. Kept as the deterministic oracle for the
    /// differential tests.
    Sequential,
    /// The model search on a scoped thread, the derivation search on the
    /// calling thread, with a shared early-exit flag: whichever
    /// certificate is found first wins and cancels the loser.
    #[default]
    Racing,
}

/// Wall-clock durations of the pipeline phases, for `tdq --timings` and
/// performance triage. Under [`SolveMode::Racing`] the derivation and
/// model times overlap, so they can sum to more than `total`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Zero-saturation plus normalization to `(2,1)`/`(1,1)` equations.
    pub normalize: Duration,
    /// Building the reduction system (attributes, `D`, `D₀`).
    pub reduce: Duration,
    /// Derivation search (side 1), including any cancelled prefix.
    pub derivation: Duration,
    /// Finite-model search (side 2), including any cancelled prefix.
    pub model: Duration,
    /// Compiling and verifying the winning certificate (part (A) proof or
    /// part (B) countermodel); zero for `Unknown`.
    pub certificate: Duration,
    /// End-to-end wall-clock time of the request.
    pub total: Duration,
}

/// How much of each search budget a solve actually spent —
/// the deterministic companion to [`PhaseTimings`].
///
/// The two sides certify mutually exclusive answers, so exactly one of
/// them can win; its spend is **exact** (identical under
/// [`SolveMode::Sequential`] and [`SolveMode::Racing`], since the winning
/// side is never cancelled). The losing side's spend depends on *when* the
/// race was decided — under racing it stops at its next cancellation poll
/// (per BFS pop for the derivation search, per interpretation and per 1024
/// DFS nodes for the model search) — so it is always labelled
/// `truncated`: a lower bound, not a reproducible count. The label is
/// deliberately *not* derived from the tracked searches' `cancelled`
/// flags: whether the loser happened to finish naturally before observing
/// the flag is a scheduling accident, and keying the label on it would
/// make the report nondeterministic — the exact defect this type exists
/// to fix. On an `Unknown`
/// outcome neither side was cancelled, both spends are exact, and the
/// report coincides across solve modes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpendReport {
    /// Distinct words the derivation search visited.
    pub derivation_states: usize,
    /// `true` when the derivation search did not run to its own natural
    /// end (it lost the race and was cancelled): `derivation_states` is
    /// then only a lower bound.
    pub derivation_truncated: bool,
    /// Nodes the finite-model search visited.
    pub model_nodes: u64,
    /// `true` when the model search did not run to its own natural end
    /// (it lost the race, or was skipped after a sequential win):
    /// `model_nodes` is then only a lower bound.
    pub model_truncated: bool,
}

/// The pipeline's verdict.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // Implied carries the full certificates by design
pub enum PipelineOutcome {
    /// `A₀ = 0` is derivable, hence `D ⊨ D₀` — with both certificates.
    Implied {
        /// The word-problem derivation found.
        derivation: Derivation,
        /// The part (A) chase proof compiled from it.
        proof: PartAProof,
    },
    /// A finite cancellation countermodel exists, hence `D ⊭ D₀` over
    /// finite databases — with the certificate database and its report.
    Refuted {
        /// The part (B) countermodel.
        model: Box<CounterModel>,
        /// The independent verification report (always `ok()`).
        report: PartBReport,
    },
    /// Neither side succeeded within the budgets (or the model side's
    /// countermodel failed verification: see
    /// [`PipelineRun::model_rejected`]).
    Unknown {
        /// Words visited by the derivation search.
        derivation_states: usize,
        /// Nodes visited by the model search.
        model_nodes: u64,
    },
}

impl PipelineOutcome {
    /// `true` for [`PipelineOutcome::Implied`]: `D ⊨ D₀`.
    pub fn is_implied(&self) -> bool {
        matches!(self, PipelineOutcome::Implied { .. })
    }

    /// `true` for [`PipelineOutcome::Refuted`]: `D ⊭ D₀` over finite
    /// databases.
    pub fn is_refuted(&self) -> bool {
        matches!(self, PipelineOutcome::Refuted { .. })
    }
}

/// Everything the pipeline produced: the normalization, the reduction
/// system, the verdict, and the per-phase timings.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// The normalized presentation and its bookkeeping.
    pub normalized: Normalized,
    /// The reduction system built from it.
    pub system: ReductionSystem,
    /// The verdict.
    pub outcome: PipelineOutcome,
    /// Wall-clock phase timings of this run.
    pub timings: PhaseTimings,
    /// Deterministic spent-budget accounting for the two searches.
    pub spend: SpendReport,
    /// `true` when the model side found a countermodel whose part (B)
    /// verification report failed. The run then fails closed: its outcome
    /// is [`PipelineOutcome::Unknown`], never a refutation. By the paper's
    /// theorem this never happens; it would take a defect in the search or
    /// the construction.
    pub model_rejected: bool,
}

/// What one side of the race produced, before certificate compilation.
enum SideResult {
    Derivation(Derivation),
    Model(FiniteSemigroup, Interpretation),
    Neither {
        derivation_states: usize,
        model_nodes: u64,
    },
}

/// What the model side produced: the model (if any) and the nodes visited
/// (exact when the side ran to its natural end, a lower bound when it was
/// cancelled mid-search).
struct ModelSide {
    found: Option<(FiniteSemigroup, Interpretation)>,
    nodes: u64,
}

/// Runs the model side: analytic null-semigroup shortcut first, then the
/// cancellable backtracking search.
fn model_side(
    np: &Presentation,
    opts: &ModelSearchOptions,
    cancel: &Cancellation,
) -> Result<ModelSide> {
    if let Some((g, interp)) = td_semigroup::families::null_counter_model(np) {
        return Ok(ModelSide {
            found: Some((g, interp)),
            nodes: 0,
        });
    }
    let tracked = find_counter_model_tracked(np, opts, cancel)?;
    let found = match tracked.result {
        ModelSearchResult::Found(g, interp) => Some((g, interp)),
        ModelSearchResult::ExhaustedSizes { .. } | ModelSearchResult::BudgetExhausted { .. } => {
            None
        }
    };
    Ok(ModelSide {
        found,
        nodes: tracked.nodes,
    })
}

/// Runs the two certificate searches sequentially (derivation first).
/// `cancel` is an *external* stop request (engine shutdown); it is never
/// flipped from inside this function.
fn search_sequential(
    np: &Presentation,
    budgets: &Budgets,
    timings: &mut PhaseTimings,
    spend: &mut SpendReport,
    cancel: &Cancellation,
) -> Result<SideResult> {
    let t = Instant::now();
    let deriv = search_goal_derivation_tracked(np, &budgets.derivation, cancel);
    timings.derivation = t.elapsed();
    spend.derivation_states = deriv.states;
    if let SearchResult::Found(derivation) = deriv.result {
        // The model search never ran: its zero spend is a trivial
        // truncation, mirroring the racing report's labelling.
        spend.model_truncated = true;
        return Ok(SideResult::Derivation(derivation));
    }

    let t = Instant::now();
    let side = model_side(np, &budgets.model, cancel)?;
    timings.model = t.elapsed();
    spend.model_nodes = side.nodes;
    Ok(match side.found {
        Some((g, interp)) => SideResult::Model(g, interp),
        None => SideResult::Neither {
            derivation_states: deriv.states,
            model_nodes: side.nodes,
        },
    })
}

/// Races the two certificate searches: the model side on one scoped
/// thread, the derivation side on the calling thread, both polling
/// `cancel`. A side that finds its certificate flips the token, and the
/// other backs out at its next poll.
///
/// The winner rule does not depend on which thread finished first: the
/// derivation wins whenever it found a certificate, otherwise the model
/// side's countermodel does. A double win is impossible mathematically
/// (a derivation makes `A₀ = 0` hold in every model), and the order
/// matches the sequential oracle. The winner's spend is exact; the
/// loser's is labelled truncated in the [`SpendReport`], since its value
/// depends on when its cancellation poll fired. If both sides exhaust,
/// neither was cancelled and both spends equal the sequential ones.
///
/// `cancel` is the request's token. Normally it starts fresh and is
/// flipped by the winner; an external holder (the engine's shutdown
/// path) may also flip it, and then both sides back out with no winner.
///
/// # Errors
///
/// Fails when the model search fails, and with [`RedError::Poisoned`]
/// when its thread panicked.
fn search_racing(
    np: &Presentation,
    budgets: &Budgets,
    timings: &mut PhaseTimings,
    spend: &mut SpendReport,
    cancel: &Cancellation,
) -> Result<SideResult> {
    let (deriv, deriv_elapsed, model) = std::thread::scope(|s| {
        let model = s.spawn(|| -> Result<(ModelSide, Duration)> {
            let t = Instant::now();
            let side = model_side(np, &budgets.model, cancel)?;
            if side.found.is_some() {
                cancel.cancel();
            }
            Ok((side, t.elapsed()))
        });
        let t = Instant::now();
        let deriv = search_goal_derivation_tracked(np, &budgets.derivation, cancel);
        let elapsed = t.elapsed();
        if matches!(deriv.result, SearchResult::Found(_)) {
            cancel.cancel();
        }
        (deriv, elapsed, model.join())
    });
    let (side, model_elapsed) = model.map_err(|_| RedError::Poisoned("model search thread"))??;
    timings.derivation = deriv_elapsed;
    timings.model = model_elapsed;
    spend.derivation_states = deriv.states;
    spend.model_nodes = side.nodes;
    Ok(match (deriv.result, side.found) {
        (SearchResult::Found(derivation), _) => {
            spend.model_truncated = true;
            SideResult::Derivation(derivation)
        }
        (_, Some((g, interp))) => {
            spend.derivation_truncated = true;
            SideResult::Model(g, interp)
        }
        (_, None) => SideResult::Neither {
            derivation_states: deriv.states,
            model_nodes: side.nodes,
        },
    })
}

/// A normalized and reduced instance, ready for [`solve_prepared`]: what
/// the engine builds for a full run and, on the cached paths, only for a
/// cache miss, inside its single-flight solve.
#[derive(Debug)]
pub(crate) struct Prepared {
    pub(crate) normalized: Normalized,
    pub(crate) system: ReductionSystem,
    /// The `normalize` and `reduce` phases; every other phase is zero.
    pub(crate) timings: PhaseTimings,
    /// When the request started: the origin of `timings.total`.
    pub(crate) started: Instant,
}

/// Zero-saturates, normalizes and reduces `p`, timing both phases.
///
/// # Errors
///
/// Fails when normalization or reduction rejects `p`.
pub(crate) fn prepare(p: &Presentation) -> Result<Prepared> {
    let started = Instant::now();
    let mut timings = PhaseTimings::default();
    let normalized = normalize(&p.zero_saturated())?;
    timings.normalize = started.elapsed();
    let t = Instant::now();
    let system = build_system(&normalized.presentation)?;
    timings.reduce = t.elapsed();
    Ok(Prepared {
        normalized,
        system,
        timings,
        started,
    })
}

/// The one executor every solve runs through: search (under the given
/// scheduling mode, observing `cancel`) → compile and verify the
/// certificate, over an already normalized and reduced instance.
///
/// `cancel` is the request's cooperative-cancellation ticket: under
/// [`SolveMode::Racing`] the winning side flips it to stop the loser, and
/// the engine's shutdown path may flip it at any time to wind the request
/// down — the run then reports [`PipelineOutcome::Unknown`] with the spend
/// accumulated so far.
///
/// # Errors
///
/// Fails when certificate compilation or verification fails, or when the
/// model search thread panicked; an inconclusive search is **not** an
/// error (it is reported as [`PipelineOutcome::Unknown`]).
pub(crate) fn solve_prepared(
    prepared: Prepared,
    budgets: &Budgets,
    opts: SolveOptions,
    cancel: &Cancellation,
) -> Result<PipelineRun> {
    let Prepared {
        normalized,
        system,
        mut timings,
        started,
    } = prepared;
    let np = &normalized.presentation;
    let mut spend = SpendReport::default();
    let side = match opts.mode {
        SolveMode::Sequential => search_sequential(np, budgets, &mut timings, &mut spend, cancel)?,
        SolveMode::Racing => search_racing(np, budgets, &mut timings, &mut spend, cancel)?,
    };

    let t = Instant::now();
    let mut model_rejected = false;
    let outcome = match side {
        SideResult::Derivation(derivation) => {
            let proof = prove_part_a_with(&system, np, &derivation, opts.strategy)?;
            PipelineOutcome::Implied { derivation, proof }
        }
        SideResult::Model(g, interp) => {
            match certify_refutation(&system, np, &g, &interp, opts.strategy)? {
                Some(refuted) => refuted,
                None => {
                    model_rejected = true;
                    PipelineOutcome::Unknown {
                        derivation_states: spend.derivation_states,
                        model_nodes: spend.model_nodes,
                    }
                }
            }
        }
        SideResult::Neither {
            derivation_states,
            model_nodes,
        } => PipelineOutcome::Unknown {
            derivation_states,
            model_nodes,
        },
    };
    if !matches!(outcome, PipelineOutcome::Unknown { .. }) {
        timings.certificate = t.elapsed();
    }
    timings.total = started.elapsed();

    Ok(PipelineRun {
        normalized,
        system,
        outcome,
        timings,
        spend,
        model_rejected,
    })
}

/// Part (B)'s certificate step: builds the countermodel database from
/// `(g, interp)` and verifies it independently. Fails closed: when the
/// verification report fails, the result is `None`, never
/// [`PipelineOutcome::Refuted`].
///
/// # Errors
///
/// Fails when `(g, interp)` violates a precondition of the construction
/// (see [`build_counter_model`]).
fn certify_refutation(
    system: &ReductionSystem,
    np: &Presentation,
    g: &FiniteSemigroup,
    interp: &Interpretation,
    strategy: MatchStrategy,
) -> Result<Option<PipelineOutcome>> {
    let model = build_counter_model(system, np, g, interp)?;
    let report = verify_counter_model_with(strategy, system, &model);
    Ok(report.ok().then(|| PipelineOutcome::Refuted {
        model: Box::new(model),
        report,
    }))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use td_semigroup::alphabet::Alphabet;
    use td_semigroup::equation::Equation;

    fn derivable() -> Presentation {
        let alphabet = Alphabet::standard(2);
        let eqs = vec![
            Equation::parse("A1 A1 = A0", &alphabet).unwrap(),
            Equation::parse("A1 A1 = 0", &alphabet).unwrap(),
        ];
        Presentation::new(alphabet, eqs).unwrap()
    }

    fn refutable() -> Presentation {
        Presentation::new(Alphabet::standard(1), vec![]).unwrap()
    }

    /// A full run through a one-request engine under explicit budgets and
    /// options.
    fn run_with(p: &Presentation, budgets: Budgets, opts: SolveOptions) -> PipelineRun {
        Engine::with_config(EngineConfig {
            budgets,
            opts,
            ..EngineConfig::default()
        })
        .run_full(p)
        .unwrap()
    }

    fn run(p: &Presentation) -> PipelineRun {
        run_with(p, Budgets::default(), SolveOptions::default())
    }

    #[test]
    fn countermodel_failing_verification_is_never_refuted() {
        // The system encodes `A1 A1 = A0`. The null semigroup with A0 and
        // A1 both sent to its nonzero element breaks that equation, but it
        // is a model of the zero equations alone, so against the zero-only
        // presentation it passes every construction precondition: the
        // certificate step gets a countermodel whose report fails.
        let np = normalize(&derivable().zero_saturated())
            .unwrap()
            .presentation;
        let system = build_system(&np).unwrap();
        let mut zero_only = Presentation::new(Alphabet::standard(2), vec![]).unwrap();
        zero_only.saturate_with_zero_equations();
        let g = td_semigroup::families::null_semigroup(2);
        let interp = Interpretation::from_raw([1, 1, 0]);

        let model = build_counter_model(&system, &zero_only, &g, &interp).unwrap();
        let report = verify_counter_model_with(MatchStrategy::default(), &system, &model);
        assert!(!report.ok(), "{report:?}");
        for strategy in [MatchStrategy::Indexed, MatchStrategy::Naive] {
            let certified = certify_refutation(&system, &zero_only, &g, &interp, strategy).unwrap();
            assert!(certified.is_none(), "{certified:?}");
        }

        // The honest instance still certifies.
        let np = normalize(&refutable().zero_saturated())
            .unwrap()
            .presentation;
        let system = build_system(&np).unwrap();
        let interp = Interpretation::from_raw([1, 0]);
        let certified = certify_refutation(&system, &np, &g, &interp, MatchStrategy::default());
        assert!(matches!(
            certified.unwrap(),
            Some(PipelineOutcome::Refuted { .. })
        ));
    }

    fn mode(mode: SolveMode) -> SolveOptions {
        SolveOptions {
            mode,
            ..SolveOptions::default()
        }
    }

    #[test]
    fn derivable_instances_come_out_implied() {
        let run = run(&derivable());
        match &run.outcome {
            PipelineOutcome::Implied { derivation, proof } => {
                assert!(!derivation.is_empty());
                proof.verify(&run.system).unwrap();
            }
            other => panic!("expected Implied, got {other:?}"),
        }
        assert!(run.outcome.is_implied());
    }

    #[test]
    fn refutable_instances_come_out_refuted() {
        let run = run(&refutable());
        match &run.outcome {
            PipelineOutcome::Refuted { model, report } => {
                assert!(report.ok());
                assert!(model.len() >= 3);
            }
            other => panic!("expected Refuted, got {other:?}"),
        }
        assert!(run.outcome.is_refuted());
    }

    #[test]
    fn unnormalized_input_is_normalized_in_pipeline() {
        // A long equation: the pipeline normalizes before reducing.
        let alphabet = Alphabet::new(["A0", "B", "C", "0"], "A0", "0").unwrap();
        let eq = Equation::parse("B C B = A0", &alphabet).unwrap();
        let p = Presentation::new(alphabet, vec![eq]).unwrap();
        let run = run(&p);
        // Fresh symbols mean more attributes: n grows beyond 4.
        assert!(run.system.attrs.alphabet().len() > 4);
        assert!(run.system.attrs.arity() == 2 * run.system.attrs.alphabet().len() + 2);
        // This instance is refutable (nothing forces A0 = 0: interpret all
        // long products as 0 but A0 nonzero? B C B = A0 forces A0 to be a
        // product — in a null semigroup that is 0, so the null shortcut
        // fails; the model search may or may not find a model. Accept any
        // verdict except Implied.
        assert!(!run.outcome.is_implied());
    }

    /// Regression for the spent-budget reports: the winner's spend must be
    /// exact (identical across solve modes), the loser's labelled
    /// truncated, and `Unknown` reports must coincide across modes.
    #[test]
    fn spend_reports_are_deterministic_across_modes() {
        // Won race, derivation side: winner's states exact in both modes.
        let p = derivable();
        let seq = run_with(&p, Budgets::default(), mode(SolveMode::Sequential));
        let raced = run_with(&p, Budgets::default(), mode(SolveMode::Racing));
        assert!(seq.outcome.is_implied() && raced.outcome.is_implied());
        assert!(!seq.spend.derivation_truncated);
        assert!(!raced.spend.derivation_truncated);
        assert_eq!(
            seq.spend.derivation_states, raced.spend.derivation_states,
            "the winning side is never cancelled, so its spend is exact"
        );
        assert!(seq.spend.model_truncated, "sequential loser never ran");
        assert_eq!(seq.spend.model_nodes, 0);
        assert!(
            raced.spend.model_truncated,
            "the racing loser's spend is only a lower bound"
        );

        // Refuted side: the model side wins via the analytic shortcut
        // (0 nodes, exact in both modes). Sequentially the derivation side
        // ran to exhaustion first; racing, it lost and is truncated.
        let p = refutable();
        let seq = run_with(&p, Budgets::default(), mode(SolveMode::Sequential));
        let raced = run_with(&p, Budgets::default(), mode(SolveMode::Racing));
        assert!(seq.outcome.is_refuted() && raced.outcome.is_refuted());
        assert!(!seq.spend.model_truncated && !raced.spend.model_truncated);
        assert_eq!(seq.spend.model_nodes, raced.spend.model_nodes);
        assert!(
            !seq.spend.derivation_truncated,
            "sequentially the derivation side ran to exhaustion first"
        );
        assert!(raced.spend.derivation_truncated);

        // Unknown: no side is cancelled, both spends exact and identical
        // across modes.
        // `A0 A1 = A0` defeats the null-semigroup shortcut (a product
        // equals a nonzero symbol), words can only grow (never reaching
        // `0`), and the tiny node budget stops the model search mid-table.
        let alphabet = Alphabet::standard(2);
        let grow = Equation::parse("A0 A1 = A0", &alphabet).unwrap();
        let p = Presentation::new(alphabet, vec![grow]).unwrap();
        let tight = Budgets {
            derivation: td_semigroup::derivation::SearchBudget {
                max_word_len: 6,
                max_states: 50,
            },
            model: ModelSearchOptions {
                min_size: 3,
                max_size: 3,
                max_nodes: 5,
            },
            chase: ChaseBudget::default(),
        };
        let seq = run_with(&p, tight, mode(SolveMode::Sequential));
        let raced = run_with(&p, tight, mode(SolveMode::Racing));
        let unknown = |run: &PipelineRun| match run.outcome {
            PipelineOutcome::Unknown {
                derivation_states,
                model_nodes,
            } => (derivation_states, model_nodes),
            ref other => panic!("expected Unknown, got {other:?}"),
        };
        let (ds, mn) = unknown(&seq);
        assert_eq!(unknown(&raced), (ds, mn));
        for run in [&seq, &raced] {
            assert_eq!(run.spend.derivation_states, ds);
            assert_eq!(run.spend.model_nodes, mn);
            assert!(!run.spend.derivation_truncated);
            assert!(!run.spend.model_truncated);
        }
    }

    /// Race determinism regression: replaying the same race must yield
    /// the same winner and the same spend, run after run — the winner
    /// rule never depends on wall-clock finish order.
    #[test]
    fn portfolio_replays_deterministically() {
        for p in [derivable(), refutable()] {
            let reference = run(&p);
            for _ in 0..5 {
                let replay = run(&p);
                assert_eq!(
                    std::mem::discriminant(&replay.outcome),
                    std::mem::discriminant(&reference.outcome),
                    "winner changed on replay"
                );
                // Every truncation label is deterministic, and every
                // spend not labelled truncated is exact.
                let (a, b) = (reference.spend, replay.spend);
                assert_eq!(a.derivation_truncated, b.derivation_truncated);
                assert_eq!(a.model_truncated, b.model_truncated);
                if !a.derivation_truncated {
                    assert_eq!(a.derivation_states, b.derivation_states);
                }
                if !a.model_truncated {
                    assert_eq!(a.model_nodes, b.model_nodes);
                }
            }
        }
    }

    /// Engine shutdown flips an in-flight request's ticket: both sides of
    /// the race back out, no side wins, and the solve honestly reports
    /// `Unknown`. New requests are refused outright.
    #[test]
    fn pre_cancelled_portfolio_has_no_winner() {
        let engine = Engine::new();
        let ticket = engine.mint(None).unwrap();
        engine.shutdown();
        assert!(ticket.cancellation().is_cancelled());
        let run = solve_prepared(
            prepare(&derivable()).unwrap(),
            &ticket.budgets,
            engine.opts(),
            ticket.cancellation(),
        )
        .unwrap();
        assert!(
            matches!(run.outcome, PipelineOutcome::Unknown { .. }),
            "{:?}",
            run.outcome
        );
        assert!(matches!(
            engine.run_full(&derivable()),
            Err(RedError::ShutDown)
        ));
    }

    #[test]
    fn goal_already_zero_is_implied_trivially() {
        // Presentation containing A0 = 0 directly: aliasing makes the goal
        // hold with a zero-step derivation... after aliasing A0 *is* 0, so
        // the goal derivation is trivial.
        let alphabet = Alphabet::standard(1);
        let eq = Equation::parse("A0 = 0", &alphabet).unwrap();
        let p = Presentation::new(alphabet, vec![eq]).unwrap();
        let run = run(&p);
        assert!(run.outcome.is_implied(), "{:?}", run.outcome);
    }
}
