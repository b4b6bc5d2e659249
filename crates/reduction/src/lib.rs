//! # td-reduction — the Gurevich–Lewis reduction
//!
//! This crate turns the paper's Reduction Theorem into executable objects.
//! Given a word-problem instance φ (a zero-saturated presentation with
//! normalized `(2,1)` equations over an alphabet `S ∋ {A₀, 0}`), it builds:
//!
//! * a typed relational **schema with `2n+2` attributes** — for each symbol
//!   `A ∈ S` the equivalence relations `A′` and `A″`, plus `E` (base row)
//!   and `E′` (apex row) — see [`attrs`];
//! * the dependency set **D**: four template dependencies `D1(r)…D4(r)` per
//!   equation `r: AB = C` (Fig. 3), each with at most **five antecedents**,
//!   plus the goal dependency **D₀** ("an A₀-triangle implies a 0-triangle
//!   over the same base") — see [`deps`];
//! * **bridges** (Fig. 2): the row structures representing words, with
//!   invariant checking — see [`bridge`];
//! * **part (A)**: a replacement derivation `A₀ ⇒* 0` compiled into a
//!   guided chase producing a verified [`td_core::chase::ChaseProof`] that
//!   `D ⊨ D₀` — see [`part_a`];
//! * **part (B)**: from a finite cancellation semigroup without identity
//!   refuting `A₀ = 0`, the finite database `P ∪ Q` with relations (1)–(4)
//!   that satisfies all of `D` but violates `D₀` — see [`part_b`];
//! * an end-to-end [`pipeline`] — one executor that races the derivation
//!   search against the countermodel search — and independent [`verify`]
//!   checkers (including the proof's Facts 1 and 2);
//! * a **service layer**: the long-lived, thread-safe [`engine::Engine`]
//!   is the one way to solve. It owns the sharded, capacity-bounded
//!   [`cache::DecisionCache`], a [`engine::BudgetPolicy`] minting
//!   per-request tickets, and cumulative [`engine::EngineStats`]; its
//!   entry points are [`engine::Engine::run_full`] (full certificates),
//!   [`engine::Engine::decide`] (through the cache) and
//!   [`engine::Engine::solve_batch`], which dedups a corpus of instances
//!   by presentation key ([`engine::Engine::canonical_key`]) and answers
//!   the distinct remainder on a worker pool ([`batch`]). The `tdq` CLI
//!   and `tdq serve` route through it.
//!
//! The two halves are the *content* of the undecidability theorem: any
//! decision procedure for TD inference would decide the (undecidable,
//! indeed effectively inseparable) word problem of the Main Lemma.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod attrs;
pub mod batch;
pub mod bridge;
pub mod cache;
pub mod deps;
pub mod engine;
pub mod error;
pub mod fastpath;
pub mod part_a;
pub mod part_b;
pub mod pipeline;
pub mod snapshot;
pub mod verify;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::attrs::ReductionAttrs;
    pub use crate::batch::{BatchRun, BatchStats, BatchVerdict};
    pub use crate::bridge::Bridge;
    pub use crate::cache::{CachedOutcome, CachedVerdict, DecisionCache, DEFAULT_SHARD_CAPACITY};
    pub use crate::deps::{build_system, ReductionSystem, Rule, Rule2};
    pub use crate::engine::{
        BudgetPolicy, Decision, Engine, EngineConfig, EngineStats, LoadStats, RequestBudget,
        Session, SessionStats, SessionVerdict, Ticket,
    };
    pub use crate::error::RedError;
    pub use crate::fastpath::{prescreen, replay, FastBudget, FastReason, FastVerdict, Prescreen};
    pub use crate::part_a::{prove_part_a, prove_part_a_with, prove_unguided};
    pub use crate::part_b::{build_counter_model, CounterModel, RowLabel};
    pub use crate::pipeline::{
        Budgets, FastPath, PhaseTimings, PipelineOutcome, PipelineRun, SolveMode, SolveOptions,
        SpendReport,
    };
    pub use crate::snapshot::{Snapshot, SnapshotError, SNAPSHOT_FORMAT_VERSION};
    pub use crate::verify::{verify_counter_model, verify_counter_model_with, PartBReport};
}

pub use prelude::*;
