//! # td-core — typed template dependencies and the chase
//!
//! This crate implements the database-theoretic core of Gurevich & Lewis,
//! *The Inference Problem for Template Dependencies* (Information and
//! Control 55, 1982; preliminary version in PODS 1982):
//!
//! * **Typed relational instances** over a single relation `R` whose
//!   attribute domains are pairwise disjoint (the paper's *typing
//!   restriction*). Two interchangeable views are provided:
//!   [`instance::Instance`] (explicit value tuples) and
//!   [`eq_instance::EqInstance`] (rows plus one equivalence
//!   relation per attribute — the view used throughout the paper's proofs).
//! * **Template dependencies** ([`td::Td`]): statements of the form
//!   `R(t₁) & … & R(t_k) ⇒ R(t*)`, where the `tᵢ` are rows of typed
//!   variables and the conclusion may contain existentially quantified
//!   components (*embedded* TDs) or not (*full* TDs).
//! * **Diagrams** ([`diagram::Diagram`]): the graphical notation of
//!   Fagin, Maier, Ullman & Yannakakis used by the paper (Fig. 1) — nodes are
//!   tuples, edge labels are attributes on which tuples agree.
//! * **The chase** ([`chase`]): a fair, budgeted, certificate-producing
//!   semi-decision procedure for TD inference, plus a terminating *decision*
//!   procedure for full TDs, and an oblivious variant.
//! * **Inference** ([`inference`]): `D ⊨ D₀` with three honest verdicts —
//!   `Implied` (with a replayable [`chase::ChaseProof`]),
//!   `NotImplied` (with a finite countermodel), or `Unknown` (budget
//!   exhausted — unavoidable, since the paper proves the problem
//!   undecidable).
//! * **EIDs** ([`eid`]): embedded implicational dependencies (Chandra, Lewis
//!   & Makowsky), the more general class the paper strengthens; TDs embed
//!   into EIDs.
//! * **The budget substrate** ([`budget`]): the workspace-wide
//!   [`budget::Cancellation`] / [`budget::Ticker`] pair — cooperative
//!   cancellation, capped spend counters with cadenced polling, and the
//!   cancelled-vs-exhausted distinction shared by the chase, the semigroup
//!   searches and the racing pipeline.
//! * **Canonical forms** ([`canon`]): isomorphism-invariant 128-bit keys
//!   for TDs (equal iff the dependencies coincide up to variable renaming
//!   and row permutation), via color refinement with smallest-orbit
//!   individualization — the foundation of the batch decision cache.
//! * A small **text format** ([`parser`]) and **renderers** ([`render`]) for
//!   dependencies, diagrams and instances.
//!
//! ## Quick start
//!
//! ```
//! use td_core::prelude::*;
//!
//! // The garment database of the paper's introduction.
//! let schema = Schema::new("R", ["SUPPLIER", "STYLE", "SIZE"]).unwrap();
//!
//! // Fig. 1: R(a,b,c) & R(a,b',c') ⇒ ∃a* R(a*,b,c').
//! let fig1 = TdBuilder::new(schema.clone())
//!     .antecedent(["a", "b", "c"]).unwrap()
//!     .antecedent(["a", "b'", "c'"]).unwrap()
//!     .conclusion(["*", "b", "c'"]).unwrap()
//!     .build("fig1")
//!     .unwrap();
//! assert!(fig1.is_embedded());
//!
//! // A database: St. Laurent supplies dresses in size 10 and briefs in 36.
//! let mut db = Instance::new(schema);
//! let [sl, dress, brief, s10, s36] = [0, 0, 1, 0, 1];
//! db.insert_values([sl, dress, s10]).unwrap();
//! db.insert_values([sl, brief, s36]).unwrap();
//!
//! // fig1 demands (for every matching pair, in both orders) a supplier of
//! // dresses in 36 and a supplier of briefs in 10 — neither is present yet.
//! assert!(!satisfies(&db, &fig1));
//! db.insert_values([7, dress, s36]).unwrap();
//! db.insert_values([8, brief, s10]).unwrap();
//! assert!(satisfies(&db, &fig1));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod axioms;
pub mod budget;
pub mod canon;
pub mod chase;
pub mod countermodel;
pub mod diagram;
pub mod eid;
pub mod eq_instance;
pub mod error;
pub mod homomorphism;
pub mod ids;
pub mod inference;
pub mod instance;
pub mod parser;
pub mod product;
pub mod render;
pub mod satisfaction;
pub mod schema;
pub mod td;
pub mod tuple;
pub mod union_find;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::budget::{Cancellation, Meter, StopReason, Ticker};
    pub use crate::canon::{canon_key, system_key, CanonKey};
    pub use crate::chase::{
        ChaseBudget, ChaseEngine, ChaseOutcome, ChasePolicy, ChaseProof, ChaseState, Goal,
    };
    pub use crate::diagram::Diagram;
    pub use crate::eid::Eid;
    pub use crate::eq_instance::EqInstance;
    pub use crate::error::CoreError;
    pub use crate::homomorphism::{match_all, match_first, Binding, MatchStrategy};
    pub use crate::ids::{AttrId, RowId, Value, Var};
    pub use crate::inference::{implies, implies_full, implies_with_strategy, InferenceVerdict};
    pub use crate::instance::Instance;
    pub use crate::satisfaction::{find_violation, satisfies};
    pub use crate::schema::Schema;
    pub use crate::td::{Td, TdBuilder, TdRow};
    pub use crate::tuple::Tuple;
}

pub use prelude::*;
