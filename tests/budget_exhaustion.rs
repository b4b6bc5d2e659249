//! Budget-exhaustion coverage: every `Unknown` path gets a dedicated test.
//!
//! Undecidability makes the `Unknown` verdict a load-bearing part of the
//! API, so each resource cap — the derivation-search state budget, the
//! model-search node cap, and the chase's step/row/round caps — is driven
//! to exhaustion here, asserting that the spent-budget report comes back
//! populated (not zeroed, not defaulted).

mod common;

use common::run_mode;
use td_bench::relabel_chain;
use template_deps::prelude::*;
use template_deps::td_core::inference::{implies, InferenceVerdict};
use template_deps::td_semigroup::derivation::SearchBudget;
use template_deps::td_semigroup::model_search::ModelSearchOptions;

/// A divergent premise pair plus an unreachable goal: t1 invents C values,
/// t2 invents B values (special-edge cycle B → C → B), while the goal needs
/// a frozen constant the chase can never produce. The restricted chase runs
/// forever, so every chase cap is reachable.
fn divergent_inference() -> (Vec<Td>, Td) {
    let schema = Schema::new("R", ["A", "B", "C"]).unwrap();
    let t1 = TdBuilder::new(schema.clone())
        .antecedent(["a", "b", "c"])
        .unwrap()
        .antecedent(["a'", "b'", "c'"])
        .unwrap()
        .conclusion(["a'", "b", "*"])
        .unwrap()
        .build("t1")
        .unwrap();
    let t2 = TdBuilder::new(schema.clone())
        .antecedent(["a", "b", "c"])
        .unwrap()
        .antecedent(["a'", "b'", "c'"])
        .unwrap()
        .conclusion(["a", "*", "c'"])
        .unwrap()
        .build("t2")
        .unwrap();
    let d0 = TdBuilder::new(schema)
        .antecedent(["a", "b", "c"])
        .unwrap()
        .antecedent(["a'", "b'", "c'"])
        .unwrap()
        .conclusion(["a", "b'", "c"])
        .unwrap()
        .build("d0")
        .unwrap();
    (vec![t1, t2], d0)
}

fn unknown_report(premises: &[Td], goal: &Td, budget: ChaseBudget) -> UnknownReport {
    match implies(premises, goal, budget).unwrap() {
        InferenceVerdict::Unknown(report) => report,
        other => panic!("expected Unknown, got {other:?}"),
    }
}

use template_deps::td_core::inference::UnknownReport;

#[test]
fn chase_step_cap_reports_spent_budget() {
    let (premises, goal) = divergent_inference();
    let report = unknown_report(
        &premises,
        &goal,
        ChaseBudget {
            max_steps: 3,
            max_rows: usize::MAX,
            max_rounds: usize::MAX,
        },
    );
    assert_eq!(report.steps_fired, 3, "the step cap is exact");
    assert!(report.rounds_run >= 1);
    // Frozen tableau (2 rows) plus one row per fired step.
    assert_eq!(report.state_rows, 2 + 3);
}

#[test]
fn chase_row_cap_reports_spent_budget() {
    let (premises, goal) = divergent_inference();
    let report = unknown_report(
        &premises,
        &goal,
        ChaseBudget {
            max_steps: usize::MAX,
            max_rows: 5,
            max_rounds: usize::MAX,
        },
    );
    assert!(
        report.state_rows >= 5,
        "row cap must have been reached: {report:?}"
    );
    assert!(report.steps_fired > 0);
    assert!(report.rounds_run >= 1);
}

#[test]
fn chase_round_cap_reports_spent_budget() {
    let (premises, goal) = divergent_inference();
    let report = unknown_report(
        &premises,
        &goal,
        ChaseBudget {
            max_steps: usize::MAX,
            max_rows: usize::MAX,
            max_rounds: 2,
        },
    );
    assert_eq!(report.rounds_run, 2, "the round cap is exact");
    assert!(report.steps_fired > 0, "the chase must actually fire");
    assert!(report.state_rows > 2, "rows beyond the frozen tableau");
}

/// A derivable instance whose shortest derivation needs more BFS states
/// than the budget allows, and which the null-semigroup shortcut cannot
/// refute (it is derivable, so no countermodel exists at any size): both
/// sides exhaust honestly.
fn hard_for_tiny_budgets() -> template_deps::td_semigroup::presentation::Presentation {
    relabel_chain(8)
}

#[test]
fn derivation_state_budget_reports_spent_states() {
    let budgets = Budgets {
        derivation: SearchBudget {
            max_word_len: 12,
            max_states: 3,
        },
        model: ModelSearchOptions {
            min_size: 2,
            max_size: 2,
            max_nodes: 10_000,
        },
        chase: ChaseBudget::default(),
    };
    let run = run_mode(&hard_for_tiny_budgets(), budgets, SolveMode::Sequential);
    match run.outcome {
        PipelineOutcome::Unknown {
            derivation_states,
            model_nodes,
        } => {
            assert!(
                derivation_states > 0 && derivation_states <= 3,
                "state budget of 3 must cap the search: {derivation_states}"
            );
            // The model side ran too (size 2 exhausts quickly but visits
            // at least the null-table node).
            assert!(model_nodes > 0, "model side must report nodes");
        }
        other => panic!("expected Unknown, got {other:?}"),
    }
}

#[test]
fn model_search_node_cap_reports_spent_nodes() {
    let budgets = Budgets {
        derivation: SearchBudget {
            max_word_len: 4,
            max_states: 3,
        },
        model: ModelSearchOptions {
            min_size: 2,
            max_size: 6,
            max_nodes: 1,
        },
        chase: ChaseBudget::default(),
    };
    let run = run_mode(&hard_for_tiny_budgets(), budgets, SolveMode::Sequential);
    match run.outcome {
        PipelineOutcome::Unknown {
            derivation_states,
            model_nodes,
        } => {
            assert!(model_nodes >= 1, "node cap of 1 must be spent exactly");
            assert!(derivation_states > 0);
        }
        other => panic!("expected Unknown, got {other:?}"),
    }
}

/// The raced pipeline reports the same spent budgets as the sequential one
/// when both sides exhaust (nothing found, so nothing is cancelled).
#[test]
fn raced_unknown_reports_identical_spent_budgets() {
    let budgets = Budgets {
        derivation: SearchBudget {
            max_word_len: 12,
            max_states: 3,
        },
        model: ModelSearchOptions {
            min_size: 2,
            max_size: 2,
            max_nodes: 10_000,
        },
        chase: ChaseBudget::default(),
    };
    let p = hard_for_tiny_budgets();
    let seq = run_mode(&p, budgets, SolveMode::Sequential);
    let raced = run_mode(&p, budgets, SolveMode::Racing);
    match (&seq.outcome, &raced.outcome) {
        (
            PipelineOutcome::Unknown {
                derivation_states: a,
                model_nodes: b,
            },
            PipelineOutcome::Unknown {
                derivation_states: c,
                model_nodes: d,
            },
        ) => {
            assert_eq!(a, c);
            assert_eq!(b, d);
        }
        other => panic!("expected two Unknowns, got {other:?}"),
    }
}

/// Enlarging the budgets flips the same instance from `Unknown` to a
/// certified verdict — the caps, not the procedure, were the limit.
#[test]
fn unknown_is_a_budget_artifact_here() {
    let p = hard_for_tiny_budgets();
    let run = run_mode(&p, Budgets::default(), SolveMode::Racing);
    assert!(
        run.outcome.is_implied(),
        "relabel_chain(8) is derivable by construction: {:?}",
        run.outcome
    );
}
