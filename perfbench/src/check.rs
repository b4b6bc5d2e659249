//! The reply checker: a reply is correct when it carries the request's id
//! (so replies arrive in order on their connection), is not an error
//! envelope, and agrees with the expected answer. `unknown` never
//! contradicts a label; it only lowers the decided ratio.

use template_deps::jsonl::Json;

use crate::gen::Label;
use crate::workload::{Expect, Req};

fn field<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn num(j: &Json, key: &str) -> Result<u64, String> {
    field(j, key)?
        .as_u64()
        .ok_or_else(|| format!("field `{key}` is not a count"))
}

/// Checks one verdict object against its label; `Ok(true)` when settled.
fn verdict(j: &Json, label: Label) -> Result<bool, String> {
    let v = field(j, "verdict")?
        .as_str()
        .ok_or("verdict is not a string")?;
    let got = match v {
        "implied" => Label::Implied,
        "refuted" => Label::Refuted,
        "unknown" => return Ok(false),
        other => return Err(format!("unexpected verdict `{other}`")),
    };
    if got == label {
        Ok(true)
    } else {
        Err(format!("verdict {v} contradicts the known answer"))
    }
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, expected {want:?}"))
    }
}

/// Checks `reply` (one line, no newline) against `req`; returns the
/// questions it settled (`implied`/`refuted`, `redundant`/`essential`).
pub fn check(req: &Req, reply: &str) -> Result<u64, String> {
    let j = Json::parse(reply).map_err(|e| format!("reply is not JSON: {e}"))?;
    let id = j.get("id").and_then(Json::as_str).unwrap_or("<none>");
    expect_eq("reply id (order)", id, req.id.as_str())?;
    if j.get("ok").and_then(Json::as_bool) != Some(true) {
        let msg = j
            .get("error")
            .and_then(|e| e.get("msg"))
            .and_then(Json::as_str)
            .unwrap_or("?");
        return Err(format!("error envelope: {msg}"));
    }
    let mut settled = 0u64;
    match &req.expect {
        Expect::Wp { label, cached } => {
            if verdict(&j, *label)? {
                settled = 1;
            }
            if let Some(c) = cached {
                let got = field(&j, "cached")?.as_bool();
                expect_eq("cached", got, Some(*c))?;
            }
        }
        Expect::Batch {
            labels,
            unique,
            solved,
        } => {
            let results = field(&j, "results")?.as_array().ok_or("results")?;
            expect_eq("batch results", results.len(), labels.len())?;
            for (r, label) in results.iter().zip(labels) {
                if verdict(r, *label)? {
                    settled += 1;
                }
            }
            let stats = field(&j, "stats")?;
            expect_eq("batch unique", num(stats, "unique")?, *unique as u64)?;
            let got = num(stats, "solved")?;
            if got < *solved as u64 || got > *unique as u64 {
                return Err(format!(
                    "batch solved: got {got}, expected {solved} to {unique}"
                ));
            }
        }
        Expect::Deps { words } => {
            let tds = field(&j, "tds")?.as_array().ok_or("tds")?;
            expect_eq("deps tds", tds.len(), words.len())?;
            for (td, want) in tds.iter().zip(words) {
                let got = field(td, "redundancy")?.as_str().ok_or("redundancy")?;
                if got != "unknown" {
                    expect_eq("redundancy", got, *want)?;
                    settled += 1;
                }
            }
        }
        Expect::Open | Expect::Close => {}
        Expect::Resize { deps } => {
            expect_eq("session deps", num(&j, "deps")?, *deps as u64)?;
        }
        Expect::Ask {
            label,
            rows,
            cached,
        } => {
            if verdict(&j, *label)? {
                settled = 1;
                if let (Label::Refuted, Some(rows)) = (label, rows) {
                    expect_eq("model_rows", num(&j, "model_rows")?, *rows as u64)?;
                }
                expect_eq("cached", field(&j, "cached")?.as_bool(), Some(*cached))?;
            }
        }
    }
    Ok(settled)
}

/// Tallies of a checked request stream.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub questions: u64,
    pub settled: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl Tally {
    /// Records `req`'s reply (or its absence, `None`).
    pub fn record(&mut self, req: &Req, reply: Option<&str>) {
        let outcome = match reply {
            Some(r) => check(req, r),
            None => Err("no reply (disconnect or timeout)".to_owned()),
        };
        self.record_outcome(req, outcome);
    }

    /// Records one request with its checked outcome (the questions it
    /// settled, or why it failed): at most one failure per request.
    pub fn record_outcome(&mut self, req: &Req, outcome: Result<u64, String>) {
        self.attempted += 1;
        self.questions += req.questions;
        match outcome {
            Ok(settled) => self.settled += settled,
            Err(e) => {
                self.failed += 1;
                if self.failures.len() < 8 {
                    let base: Vec<String> = req
                        .insts
                        .iter()
                        .map(|i| format!("{:?}", i.family))
                        .collect();
                    self.failures.push(format!(
                        "{} [{}]: {e}; request {}",
                        req.id,
                        base.join(","),
                        req.line
                    ));
                }
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.questions += other.questions;
        self.settled += other.settled;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }
}
