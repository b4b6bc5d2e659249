//! The generator self-test: a small seeded sample, decided in-process by
//! the sequential oracle (`SolveMode::Sequential`), must never contradict
//! a construction label. The oracle is a sanity check of the generator
//! here, not the reference: labels come from construction.

use td_core::inference::InferenceVerdict;
use td_reduction::batch::BatchVerdict;
use td_reduction::engine::{Engine, EngineConfig, SessionVerdict};
use td_reduction::pipeline::{SolveMode, SolveOptions};
use template_deps::jsonl::Json;
use template_deps::serve::parse_instance;

use crate::gen::{self, Family, Inst, Label, Rng};

/// Checks performed and the disagreements found.
#[derive(Debug, Default)]
pub struct SelfTest {
    pub checked: u64,
    pub unknown: u64,
    pub disagreements: Vec<String>,
}

impl SelfTest {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.disagreements.push(what());
        }
    }
}

fn presentation(
    inst: &Inst,
    rng: &mut Rng,
) -> Result<td_semigroup::presentation::Presentation, String> {
    let line = format!("{{{}}}", inst.render(rng));
    let j = Json::parse(&line).map_err(|e| e.to_string())?;
    parse_instance(&j, "selftest").map(|(_, p)| p)
}

fn td(text: &str) -> Result<Vec<td_core::td::Td>, String> {
    // The generator writes JSON-escaped newlines.
    let text = text.replace("\\n", "\n");
    td_core::parser::parse(&text)
        .map(|f| f.tds)
        .map_err(|e| e.to_string())
}

/// Runs the self-test for `seed`.
pub fn run(seed: u64) -> SelfTest {
    let mut out = SelfTest::default();
    if let Err(e) = run_inner(seed, &mut out) {
        out.disagreements
            .push(format!("self-test could not run: {e}"));
    }
    out
}

fn run_inner(seed: u64, out: &mut SelfTest) -> Result<(), String> {
    let oracle = Engine::with_config(EngineConfig {
        opts: SolveOptions {
            mode: SolveMode::Sequential,
            ..SolveOptions::default()
        },
        ..EngineConfig::default()
    });
    let mut rng = Rng::new(seed, 0x5E1F);
    let families = [
        Family::Relabel,
        Family::Product,
        Family::Alias,
        Family::Probe,
        Family::Nil,
    ];
    let mut sample: Vec<Inst> = Vec::new();
    for f in families {
        for _ in 0..4 {
            sample.push(gen::cold_instance(f, &mut rng));
        }
    }
    // The cheap duplicate-heavy bases (the product chains are checked by
    // every dup_warm warm phase).
    sample.push(gen::dup_base(2));
    sample.push(gen::dup_base(3));
    for inst in &sample {
        let p = presentation(inst, &mut rng)?;
        let d = oracle.decide(&p).map_err(|e| e.to_string())?;
        let got = match d.verdict {
            BatchVerdict::Implied { .. } => Some(Label::Implied),
            BatchVerdict::Refuted { .. } => Some(Label::Refuted),
            BatchVerdict::Unknown { .. } => None,
        };
        if got.is_none() {
            out.unknown += 1;
        }
        out.expect(got.is_none_or(|g| g == inst.label), || {
            format!(
                "{:?} instance labelled {:?}, oracle says {got:?}: {:?}",
                inst.family, inst.label, inst.eqs
            )
        });
    }

    // Session closed forms: the guarded zig-zag goal refutes with
    // (k+1)^2 + 1 rows, the unguarded one is implied.
    let schema = gen::SESSION_SCHEMA;
    for k in 3..=6 {
        let sid = format!("selftest{k}");
        oracle.session_open(&sid).map_err(|e| e.to_string())?;
        let pt = td(&format!("{schema}{}", gen::pt_text("p", 1)))?;
        oracle
            .session_add_deps(&sid, &pt)
            .map_err(|e| e.to_string())?;
        for guarded in [true, false] {
            let goal = td(&format!(
                "{schema}{}",
                gen::chain_goal_text("g", k, guarded, 2)
            ))?;
            let goal = goal.first().ok_or("no goal")?;
            let (v, _) = oracle.session_ask(&sid, goal).map_err(|e| e.to_string())?;
            let ok = match (guarded, v) {
                (true, SessionVerdict::NotImplied { model_rows }) => {
                    model_rows == gen::chain_goal_rows(k)
                }
                (false, SessionVerdict::Implied { .. }) => true,
                _ => false,
            };
            out.expect(ok, || {
                format!("zig-zag goal k={k} guarded={guarded}: {v:?}")
            });
        }
        oracle.session_close(&sid).map_err(|e| e.to_string())?;
    }

    // The join family's redundancy words.
    for n in 3..=5 {
        let (text, words) = gen::join_family_text(n, &mut rng);
        let tds = td(&text)?;
        let verdicts = oracle.redundancy(&tds).map_err(|e| e.to_string())?;
        for (v, want) in verdicts.iter().zip(&words) {
            let got = match v {
                InferenceVerdict::Implied(_) => "redundant",
                InferenceVerdict::NotImplied(_) => "essential",
                InferenceVerdict::Unknown(_) => "unknown",
            };
            out.expect(got == *want, || {
                format!("join family n={n}: {got} where {want} expected")
            });
        }
    }
    Ok(())
}
