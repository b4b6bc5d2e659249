//! # template-deps
//!
//! A comprehensive Rust reproduction of
//!
//! > Yuri Gurevich and Harry R. Lewis, *The Inference Problem for Template
//! > Dependencies*, Information and Control 55, 69–79 (1982); preliminary
//! > version in PODS 1982.
//!
//! The paper proves that the inference problem for typed template
//! dependencies — given a finite set `D` of dependencies and a single
//! dependency `D₀`, does `D₀` hold in every database satisfying `D`? — is
//! **undecidable**, over finite databases and over unrestricted ones, via a
//! reduction from the word problem for cancellation semigroups with zero.
//!
//! This facade re-exports the three library crates:
//!
//! * [`td_core`] — typed template dependencies, relational instances (tuple
//!   and equivalence-partition views), Fagin-style diagrams, satisfaction,
//!   the chase (restricted/oblivious, budgeted, certificate-producing),
//!   semi-decision of implication plus an exact decision procedure for full
//!   TDs, EIDs as the baseline class, a naive finite countermodel search,
//!   and a small text format.
//! * [`td_semigroup`] — the substrate: words, zero-saturated presentations,
//!   normalization to `(2,1)` equations, BFS derivation search with
//!   replayable certificates, rewriting, bounded congruence closure, finite
//!   semigroups as Cayley tables with the paper's cancellation conditions
//!   (i)/(ii), identity adjunction, analytic countermodel families, and a
//!   backtracking finite-model finder.
//! * [`td_reduction`] — the paper's contribution as an executable object:
//!   the `2n+2`-attribute scheme, the dependencies `D1…D4` per equation and
//!   the goal `D₀` (Fig. 3), bridges (Fig. 2), part (A) — derivation ⇒
//!   verified chase proof of `D ⊨ D₀` — and part (B) — finite cancellation
//!   semigroup ⇒ finite database satisfying `D` but violating `D₀` — plus
//!   an end-to-end pipeline and independent verifiers.
//!
//! ## Where to start
//!
//! ```
//! use template_deps::prelude::*;
//!
//! // A word-problem instance: A1·A1 = A0 and A1·A1 = 0  (so A0 ⇒* 0).
//! let p = td_semigroup::parser::parse(
//!     "alphabet A0 A1 0\neq A1 A1 = A0\neq A1 A1 = 0\nzerosat\n",
//! ).unwrap();
//!
//! // Run the full reduction pipeline through the solving engine.
//! let run = Engine::new().run_full(&p).unwrap();
//! assert!(run.outcome.is_implied()); // D ⊨ D0, with a replayable proof
//! ```
//!
//! See `examples/` for richer scenarios and `DESIGN.md` / `EXPERIMENTS.md`
//! for the experiment index.

#![forbid(unsafe_code)]

pub use td_core;
pub use td_reduction;
pub use td_semigroup;

pub mod jsonl;
pub mod serve;

/// One-stop re-exports spanning all three crates.
pub mod prelude {
    pub use td_core::prelude::*;
    pub use td_reduction::prelude::*;
    pub use td_semigroup::prelude::*;
}
