//! A compatibility shim. The axiom-driven prescreen is gone: every miss
//! runs the race and then the part (A) or part (B) certificate. These
//! names stay only because the benchmark's trace (`perfbench/src/trace.rs`)
//! imports them; the first change allowed to edit `perfbench/src` deletes
//! this module.

/// The former prescreen's spend caps; nothing reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastBudget;

/// A verdict the prescreen settled: uninhabited, it settles nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastVerdict {}

/// What [`prescreen`] produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Prescreen {
    /// Always `None`.
    pub verdict: Option<FastVerdict>,
    /// Always 0.
    pub checks: u64,
}

/// Settles nothing and spends nothing; never fails.
pub fn prescreen(
    _system: &crate::deps::ReductionSystem,
    _budget: &FastBudget,
) -> crate::error::Result<Prescreen> {
    Ok(Prescreen::default())
}
