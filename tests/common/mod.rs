//! Helpers shared by the integration tests.

// Each test crate uses its own subset of these helpers.
#![allow(dead_code)]

use template_deps::prelude::*;

/// One full solve — certificates and all — through a fresh engine under
/// explicit budgets and solve options.
pub fn run_with(p: &Presentation, budgets: Budgets, opts: SolveOptions) -> PipelineRun {
    Engine::with_config(EngineConfig {
        budgets,
        opts,
        ..EngineConfig::default()
    })
    .run_full(p)
    .unwrap()
}

/// [`run_with`] under the default options but an explicit scheduling
/// mode: `SolveMode::Sequential` is the differential oracle.
pub fn run_mode(p: &Presentation, budgets: Budgets, mode: SolveMode) -> PipelineRun {
    run_with(
        p,
        budgets,
        SolveOptions {
            mode,
            ..SolveOptions::default()
        },
    )
}
