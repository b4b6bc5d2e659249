//! # td-analysis — workspace-native static analysis for template-deps
//!
//! A dependency-free lexical analyser and pass framework enforcing the
//! hand-maintained disciplines the engine's concurrency story rests on.
//! The `td-lint` binary (in the facade crate) drives four passes over the
//! whole workspace:
//!
//! * **lock-discipline** — no `RwLock`/`Mutex` guard live across a call
//!   into the solver or blocking I/O; shard locks acquired in ascending
//!   index order.
//! * **budget-poll** — every loop body and every recursive fn in the
//!   search/chase hot paths reaches a `Ticker::tick`/`Cancellation` poll
//!   (a recursive fn may instead take the `Ticker`/`Cancellation`).
//! * **panic-path** — no `unwrap()`/`expect()`/`panic!`/indexing in the
//!   request-path files (`src/serve.rs`, `crates/reduction/src/engine.rs`,
//!   `src/jsonl.rs`).
//! * **doc-error-hygiene** — every `pub fn` returning `Result` documents
//!   its error conditions.
//!
//! Violations are governed by in-source `// td-lint: allow(<pass>) <reason>`
//! annotations; an allow that suppresses nothing is itself an error, so
//! exemptions cannot rot. The tool is deliberately *lexical* — it lexes
//! (comments, strings, and nesting handled honestly) but does not parse or
//! type-check; `docs/ANALYSIS.md` spells out the soundness caveats that
//! follow from that choice.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod driver;
pub mod lexer;
pub mod passes;
pub mod shape;
pub mod source;

pub use driver::{lint_file, pass_applies, run_fixtures, run_workspace};
pub use passes::{all_passes, run_passes, Pass};
pub use source::{Allow, Diagnostic, SourceFile};
