//! The undecidability reduction, end to end — both directions of the
//! Reduction Theorem on concrete word-problem instances.
//!
//! ```text
//! cargo run --example undecidability_pipeline
//! ```

use template_deps::prelude::*;
use template_deps::td_reduction::part_b::RowLabel;
use template_deps::td_reduction::verify::structural_report;

fn banner(title: &str) {
    println!("\n=== {title} ===");
}

fn main() {
    // ---------------------------------------------------------------
    // Side 1: a derivable instance — A1·A1 = A0 and A1·A1 = 0, so
    //         A0 ⇒ A1 A1 ⇒ 0. Part (A) compiles the derivation into a
    //         chase proof that D ⊨ D0.
    // ---------------------------------------------------------------
    banner("derivable instance: A1 A1 = A0, A1 A1 = 0");
    let derivable =
        td_semigroup::parser::parse("alphabet A0 A1 0\neq A1 A1 = A0\neq A1 A1 = 0\nzerosat\n")
            .unwrap();
    print!("{derivable}");

    // Every solve runs through an `Engine`; `run_full` returns the
    // certificates themselves rather than a cached verdict.
    let engine = Engine::new();
    let run = engine.run_full(&derivable).unwrap();
    let report = structural_report(&run.system);
    println!(
        "reduction: {} symbols -> {} attributes (2n+2), {} rules -> {} dependencies, \
         max antecedents = {}",
        report.n_symbols,
        report.n_attributes,
        report.n_rules,
        report.n_deps,
        report.max_antecedents
    );
    match &run.outcome {
        PipelineOutcome::Implied { derivation, proof } => {
            println!(
                "verdict: D ⊨ D0  (derivation of {} steps, chase proof of {} firings)",
                derivation.len(),
                proof.proof.len()
            );
            let words = derivation.replay(&run.normalized.presentation).unwrap();
            let alphabet = run.normalized.presentation.alphabet();
            let route: Vec<String> = words.iter().map(|w| w.render(alphabet)).collect();
            println!("word route: {}", route.join("  =>  "));
            println!("{}", proof.proof);
            proof.verify(&run.system).unwrap();
            println!("chase proof independently re-verified ✓");
        }
        other => println!("unexpected verdict: {other:?}"),
    }

    // ---------------------------------------------------------------
    // Side 2: a refutable instance — only the zero equations. The
    //         2-element null semigroup {0, a} (a·a = 0) is a finite
    //         cancellation semigroup without identity in which A0 ≠ 0;
    //         part (B) turns it into a finite database where all of D
    //         hold but D0 fails.
    // ---------------------------------------------------------------
    banner("refutable instance: zero equations only over {A0, 0}");
    let refutable = td_semigroup::parser::parse("alphabet A0 0\nzerosat\n").unwrap();
    print!("{refutable}");

    // The default engine's fast path would settle this instance with a
    // probe reason before any search; switch it off to get the part (B)
    // countermodel itself.
    let full = Engine::with_config(EngineConfig {
        opts: SolveOptions {
            fastpath: FastPath::Off,
            ..SolveOptions::default()
        },
        ..EngineConfig::default()
    });
    let run = full.run_full(&refutable).unwrap();
    match &run.outcome {
        PipelineOutcome::Refuted { model, report } => {
            println!(
                "verdict: D ⊭ D0 over finite databases — countermodel with {} rows",
                model.len()
            );
            println!("G' multiplication table (identity adjoined):");
            print!("{}", model.g_prime.render_table());
            println!("rows (paper's P ∪ Q):");
            let alphabet = run.system.attrs.alphabet();
            for (i, label) in model.labels.iter().enumerate() {
                match label {
                    RowLabel::P(e) => println!("  row {i}: P element {e}"),
                    RowLabel::Q(a, s, b) => {
                        println!("  row {i}: Q triple <{a}, {}, {b}>", alphabet.name(*s))
                    }
                }
            }
            println!("{}", model.eq_instance);
            println!(
                "verification: all D hold: {}, D0 fails: {}, Fact 1: {}, Fact 2: {}",
                report.violated_deps.is_empty(),
                report.d0_fails,
                report.fact1,
                report.fact2
            );
        }
        other => println!("unexpected verdict: {other:?}"),
    }

    // ---------------------------------------------------------------
    // The paper's (NOT D0) witness, replayed: t1 = I, t2 = A0,
    // t3 = <I, A0, A0> — no 0-triangle can complete it.
    // ---------------------------------------------------------------
    banner("why D0 fails: the paper's witness");
    println!(
        "In the countermodel, ≈_0' and ≈_0'' are trivial (the paper: \"≈_0 is\n\
         empty\"), so the conclusion of D0 would need a row equal to both t1\n\
         and t2 at once — impossible since t1 = I ≠ A0 = t2."
    );

    // ---------------------------------------------------------------
    // Scaling: the construction is uniform in the instance.
    // ---------------------------------------------------------------
    banner("structural scaling (Table T1)");
    println!(
        "{:>4} {:>8} {:>8} {:>8} {:>16}",
        "n", "eqs", "deps", "attrs", "max antecedents"
    );
    for n_regular in 1..=5 {
        let p = {
            let alphabet = Alphabet::standard(n_regular);
            let mut p = Presentation::new(alphabet, vec![]).unwrap();
            p.saturate_with_zero_equations();
            p
        };
        let system = build_system(&p).unwrap();
        let r = structural_report(&system);
        println!(
            "{:>4} {:>8} {:>8} {:>8} {:>16}",
            r.n_symbols, r.n_rules, r.n_deps, r.n_attributes, r.max_antecedents
        );
    }
    println!(
        "\n(antecedents stay ≤ 5 while attributes grow as 2n+2 — the paper's\n\
              complementarity with Vardi's reduction, which bounds attributes\n\
              and lets antecedents grow.)"
    );
}
