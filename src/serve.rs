//! `tdq serve` — the long-lived NDJSON session mode.
//!
//! One [`Engine`] per server; requests flow through it so every client
//! shares the warm decision cache, the budget policy, and the cumulative
//! stats. The protocol is line-delimited JSON on both directions — one
//! request object per line in, one reply object per line out, in request
//! order — speaking the same instance format as `tdq batch` and the same
//! reply schema as `tdq wp|deps --format json`. `docs/PROTOCOL.md` is the
//! normative specification; the summary:
//!
//! ```text
//! {"id":"r1","op":"wp","alphabet":["A0","A1","0"],"eqs":["A1 A1 = A0","A1 A1 = 0"]}
//! {"id":"r2","op":"deps","text":"schema R(A, B)\ntd t: (a, b) -> (a, b)\n"}
//! {"id":"r3","op":"batch","items":[{"alphabet":["A0","0"],"eqs":[]}]}
//! {"id":"r4","op":"stats"}
//! {"id":"r5","op":"cache_save","path":"warm.tdsnap"}
//! {"id":"r6","op":"cache_load","path":"warm.tdsnap"}
//! {"id":"r7","op":"shutdown"}
//! ```
//!
//! Replies echo `"id"` and carry `"ok":true` with the op's payload, or
//! `"ok":false` with an error envelope `{"msg":…}` that reuses the
//! structured [`JsonError`] shape (`"byte"` is present for JSON parse
//! errors). Malformed lines get an error reply rather than killing the
//! session.
//!
//! Two transports, both `std::net`/`std::io` + scoped threads (no async
//! runtime, consistent with the offline-shim constraint):
//!
//! * [`serve_stdio`] — a single client on stdin/stdout, processed
//!   strictly in order (which makes scripted sessions byte-deterministic;
//!   the golden transcript test and the `serve-smoke` CI job pin one);
//! * [`serve_listen`] — a TCP listener multiplexed over a **fixed worker
//!   pool** (default width: the engine's `--jobs` setting), all
//!   connections sharing the engine. The accept thread runs a nonblocking
//!   readiness loop that splits sockets into request lines; pool workers
//!   claim a connection with queued lines and answer them strictly in
//!   arrival order (a per-connection single-flight latch), so every
//!   client still observes PROTOCOL.md's per-connection reply ordering
//!   while the pool bounds thread count under thousands of idle
//!   connections. A `shutdown` request from any client stops the
//!   listener, cancels in-flight searches through the engine's ticket
//!   registry, unblocks every connection, and joins the pool before
//!   returning — a cancellation-clean exit. The previous
//!   thread-per-connection transport survives as
//!   [`serve_listen_threaded`], the comparison baseline for the
//!   `serve_saturation` benchmark.

// Request handling must degrade to error envelopes, never a panic: a
// panicking handler kills its client thread mid-session. The td-lint
// panic-path pass enforces this lexically; the clippy pair keeps
// `cargo clippy` aligned with it.
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use td_core::inference::InferenceVerdict;
use td_semigroup::alphabet::Alphabet;
use td_semigroup::equation::Equation;
use td_semigroup::presentation::Presentation;

use td_core::td::Td;
use td_reduction::batch::{BatchRun, BatchVerdict};
use td_reduction::engine::{
    Decision, Engine, EngineStats, RequestBudget, SessionStats, SessionVerdict,
};
use td_reduction::pipeline::{PhaseTimings, SpendReport};

use crate::jsonl::{Json, JsonError};

/// How a handled request leaves the session: the rendered reply line,
/// plus whether it asked the server to stop.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReply {
    /// The reply object, rendered as one compact JSON line (no newline).
    pub text: String,
    /// `true` for a successful `shutdown` request.
    pub shutdown: bool,
}

/// Parses one instance object (the `tdq batch` line format): `"alphabet"`
/// (array of symbol names), `"eqs"` (array of equation strings), optional
/// `"a0"`/`"zero"` naming the distinguished symbols (defaults `"A0"` /
/// `"0"`), optional `"id"` (defaults to `default_id`).
///
/// # Errors
///
/// Fails with a rendered message when a required field is missing or has
/// the wrong shape, or when the alphabet/equations fail validation.
pub fn parse_instance(j: &Json, default_id: &str) -> Result<(String, Presentation), String> {
    let id = j
        .get("id")
        .and_then(Json::as_str)
        .map(str::to_owned)
        .unwrap_or_else(|| default_id.to_owned());
    let names: Vec<String> = j
        .get("alphabet")
        .and_then(Json::as_array)
        .ok_or("missing \"alphabet\" array")?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_owned)
                .ok_or_else(|| "alphabet entries must be strings".to_owned())
        })
        .collect::<Result<_, _>>()?;
    let a0 = j.get("a0").and_then(Json::as_str).unwrap_or("A0");
    let zero = j.get("zero").and_then(Json::as_str).unwrap_or("0");
    let alphabet = Alphabet::new(names, a0, zero).map_err(|e| e.to_string())?;
    let mut eqs = Vec::new();
    for e in j
        .get("eqs")
        .and_then(Json::as_array)
        .ok_or("missing \"eqs\" array")?
    {
        let text = e.as_str().ok_or("eqs entries must be strings")?;
        eqs.push(Equation::parse(text, &alphabet).map_err(|e| e.to_string())?);
    }
    let p = Presentation::new(alphabet, eqs).map_err(|e| e.to_string())?;
    Ok((id, p))
}

/// The error envelope: `{"id":…,"ok":false,"error":{"msg":…}}`, reusing
/// the structured [`JsonError`] shape (a parse error contributes its
/// 0-based `"byte"` offset).
pub fn error_reply(id: &Json, msg: &str, byte: Option<usize>) -> String {
    let mut error = vec![("msg".to_owned(), Json::from(msg))];
    if let Some(byte) = byte {
        error.push(("byte".to_owned(), Json::from(byte)));
    }
    Json::Obj(vec![
        ("id".to_owned(), id.clone()),
        ("ok".to_owned(), Json::from(false)),
        ("error".to_owned(), Json::Obj(error)),
    ])
    .render()
}

/// The verdict fields shared by `tdq batch` output lines, batch results
/// inside a `serve` reply, and `wp` replies — field order is part of the
/// wire format (the batch golden pins it).
pub fn verdict_fields(verdict: &BatchVerdict) -> Vec<(String, Json)> {
    match *verdict {
        BatchVerdict::Implied {
            derivation_steps,
            proof_firings,
        } => vec![
            ("verdict".to_owned(), Json::from("implied")),
            ("derivation_steps".to_owned(), Json::from(derivation_steps)),
            ("proof_firings".to_owned(), Json::from(proof_firings)),
        ],
        BatchVerdict::Refuted { model_rows } => vec![
            ("verdict".to_owned(), Json::from("refuted")),
            ("model_rows".to_owned(), Json::from(model_rows)),
        ],
        BatchVerdict::Unknown {
            derivation_states,
            model_nodes,
        } => vec![
            ("verdict".to_owned(), Json::from("unknown")),
            (
                "derivation_states".to_owned(),
                Json::from(derivation_states),
            ),
            ("model_nodes".to_owned(), Json::from(model_nodes)),
        ],
    }
}

/// One `tdq batch` output line: the instance id followed by its verdict
/// fields (the shape the batch golden file pins byte-for-byte).
pub fn batch_line(id: &str, verdict: &BatchVerdict) -> String {
    let mut fields = vec![("id".to_owned(), Json::from(id))];
    fields.extend(verdict_fields(verdict));
    Json::Obj(fields).render()
}

/// The `"spend"` object of a reply.
pub fn spend_fields(spend: &SpendReport) -> Json {
    Json::Obj(vec![
        (
            "derivation_states".to_owned(),
            Json::from(spend.derivation_states),
        ),
        (
            "derivation_truncated".to_owned(),
            Json::from(spend.derivation_truncated),
        ),
        ("model_nodes".to_owned(), Json::from(spend.model_nodes)),
        (
            "model_truncated".to_owned(),
            Json::from(spend.model_truncated),
        ),
    ])
}

/// The `"timings"` object of a reply (integer microseconds).
pub fn timing_fields(t: &PhaseTimings) -> Json {
    let us = |d: Duration| Json::from(d.as_micros().min(u64::MAX as u128) as u64);
    Json::Obj(vec![
        ("normalize_us".to_owned(), us(t.normalize)),
        ("reduce_us".to_owned(), us(t.reduce)),
        ("derivation_us".to_owned(), us(t.derivation)),
        ("model_us".to_owned(), us(t.model)),
        ("certificate_us".to_owned(), us(t.certificate)),
        ("total_us".to_owned(), us(t.total)),
    ])
}

/// A `wp` reply: verdict + cache provenance, with spend and timings
/// opt-in (they are nondeterministic under racing — the loser's spend is
/// only a lower bound — so scripted golden sessions leave them off).
pub fn wp_reply(id: &Json, decision: &Decision, spend: bool, timings: bool) -> String {
    let mut fields = vec![
        ("id".to_owned(), id.clone()),
        ("ok".to_owned(), Json::from(true)),
        ("op".to_owned(), Json::from("wp")),
    ];
    fields.extend(verdict_fields(&decision.verdict));
    fields.push(("cached".to_owned(), Json::from(decision.cached)));
    if spend {
        fields.push(("spend".to_owned(), spend_fields(&decision.spend)));
    }
    if timings {
        fields.push(("timings".to_owned(), timing_fields(&decision.timings)));
    }
    Json::Obj(fields).render()
}

/// Renders one [`InferenceVerdict`] the way the CLI words it.
fn redundancy_word(v: &InferenceVerdict) -> &'static str {
    match v {
        InferenceVerdict::Implied(_) => "redundant",
        InferenceVerdict::NotImplied(_) => "essential",
        InferenceVerdict::Unknown(_) => "unknown",
    }
}

/// A `deps` reply: per-TD structural analysis plus (for sets of at least
/// two) the engine's redundancy verdicts, and the EID summary — the JSON
/// twin of the human `tdq deps` report.
///
/// # Errors
///
/// Fails with a rendered message when `text` does not parse as a TD file
/// or the engine rejects the analysis (e.g. shut down).
pub fn deps_reply(engine: &Engine, id: &Json, text: &str) -> Result<String, String> {
    let file = td_core::parser::parse(text).map_err(|e| e.to_string())?;
    Ok(deps_file_reply(engine, id, &file)?.render())
}

/// [`deps_reply`] on an already-parsed file, returning the reply as a
/// [`Json`] value so callers (the CLI's `--format json`) can append
/// fields such as timings before rendering.
///
/// # Errors
///
/// Fails with a rendered message when the engine rejects the analysis
/// (e.g. shut down mid-request).
pub fn deps_file_reply(
    engine: &Engine,
    id: &Json,
    file: &td_core::parser::ParsedFile,
) -> Result<Json, String> {
    let redundancy = if file.tds.len() > 1 {
        Some(engine.redundancy(&file.tds).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let strategy = engine.opts().strategy;
    let tds: Vec<Json> = file
        .tds
        .iter()
        .enumerate()
        .map(|(i, td)| {
            let mut fields = vec![
                ("name".to_owned(), Json::from(td.name())),
                ("full".to_owned(), Json::from(td.is_full())),
                ("trivial".to_owned(), Json::from(td.is_trivial())),
                ("antecedents".to_owned(), Json::from(td.antecedent_count())),
                (
                    "weakly_acyclic_alone".to_owned(),
                    Json::from(td_core::chase::weakly_acyclic(std::slice::from_ref(td))),
                ),
            ];
            if !file.instance.is_empty() {
                fields.push((
                    "holds_in_instance".to_owned(),
                    Json::from(td_core::satisfaction::satisfies_with(
                        strategy,
                        &file.instance,
                        td,
                    )),
                ));
            }
            if let Some(verdict) = redundancy.as_ref().and_then(|verdicts| verdicts.get(i)) {
                fields.push((
                    "redundancy".to_owned(),
                    Json::from(redundancy_word(verdict)),
                ));
            }
            Json::Obj(fields)
        })
        .collect();
    let eids: Vec<Json> = file
        .eids
        .iter()
        .map(|eid| {
            let mut fields = vec![
                ("name".to_owned(), Json::from(eid.name())),
                (
                    "antecedents".to_owned(),
                    Json::from(eid.antecedents().len()),
                ),
                (
                    "conclusions".to_owned(),
                    Json::from(eid.conclusions().len()),
                ),
            ];
            if !file.instance.is_empty() {
                fields.push((
                    "holds_in_instance".to_owned(),
                    Json::from(td_core::eid::eid_satisfies(&file.instance, eid)),
                ));
            }
            Json::Obj(fields)
        })
        .collect();
    Ok(Json::Obj(vec![
        ("id".to_owned(), id.clone()),
        ("ok".to_owned(), Json::from(true)),
        ("op".to_owned(), Json::from("deps")),
        ("schema".to_owned(), Json::from(file.schema.to_string())),
        ("tds".to_owned(), Json::Arr(tds)),
        ("eids".to_owned(), Json::Arr(eids)),
    ]))
}

/// A `batch` reply: per-item results in input order plus the batch stats
/// (including evictions — unlike the pinned `--cache-stats` CLI line, the
/// protocol surface carries the full accounting).
pub fn batch_reply(id: &Json, ids: &[String], run: &BatchRun) -> String {
    let results: Vec<Json> = ids
        .iter()
        .zip(&run.verdicts)
        .map(|(item_id, verdict)| {
            let mut fields = vec![("id".to_owned(), Json::from(item_id.as_str()))];
            fields.extend(verdict_fields(verdict));
            Json::Obj(fields)
        })
        .collect();
    let s = run.stats;
    Json::Obj(vec![
        ("id".to_owned(), id.clone()),
        ("ok".to_owned(), Json::from(true)),
        ("op".to_owned(), Json::from("batch")),
        ("results".to_owned(), Json::Arr(results)),
        (
            "stats".to_owned(),
            Json::Obj(vec![
                ("total".to_owned(), Json::from(s.total)),
                ("unique".to_owned(), Json::from(s.unique)),
                ("cache_hits".to_owned(), Json::from(s.cache_hits)),
                ("solved".to_owned(), Json::from(s.solved)),
                ("evictions".to_owned(), Json::from(s.evictions)),
            ]),
        ),
    ])
    .render()
}

/// A `stats` reply: the engine's cumulative accounting. Spend totals are
/// opt-in (`"spend":true`) for the same determinism reason as in
/// [`wp_reply`]; session-registry counters are opt-in (`"sessions":true`)
/// and the effective worker-pool width is opt-in (`"jobs":true`) so the
/// pre-existing reply shape stays byte-stable.
pub fn stats_reply(
    id: &Json,
    stats: &EngineStats,
    spend: bool,
    sessions: Option<&SessionStats>,
    jobs: Option<usize>,
) -> String {
    let mut fields = vec![
        ("id".to_owned(), id.clone()),
        ("ok".to_owned(), Json::from(true)),
        ("op".to_owned(), Json::from("stats")),
        ("requests".to_owned(), Json::from(stats.requests)),
        ("cache_hits".to_owned(), Json::from(stats.cache_hits)),
        ("solved".to_owned(), Json::from(stats.solved)),
        ("keys_cached".to_owned(), Json::from(stats.keys_cached)),
        ("evictions".to_owned(), Json::from(stats.evictions)),
    ];
    if spend {
        fields.push((
            "derivation_states".to_owned(),
            Json::from(stats.derivation_states),
        ));
        fields.push(("model_nodes".to_owned(), Json::from(stats.model_nodes)));
    }
    if let Some(s) = sessions {
        fields.push(("sessions_open".to_owned(), Json::from(s.open)));
        fields.push(("sessions_opened".to_owned(), Json::from(s.opened)));
        fields.push(("session_evictions".to_owned(), Json::from(s.evictions)));
    }
    if let Some(n) = jobs {
        fields.push(("jobs".to_owned(), Json::from(n)));
    }
    Json::Obj(fields).render()
}

/// The verdict fields of a `session_ask` reply: the session chase's
/// incremental certificate counters, using the protocol's standard
/// `implied`/`refuted`/`unknown` vocabulary.
pub fn session_verdict_fields(verdict: &SessionVerdict) -> Vec<(String, Json)> {
    match *verdict {
        SessionVerdict::Implied { chase_steps } => vec![
            ("verdict".to_owned(), Json::from("implied")),
            ("chase_steps".to_owned(), Json::from(chase_steps)),
        ],
        SessionVerdict::NotImplied { model_rows } => vec![
            ("verdict".to_owned(), Json::from("refuted")),
            ("model_rows".to_owned(), Json::from(model_rows)),
        ],
        SessionVerdict::Unknown {
            chase_steps,
            state_rows,
        } => vec![
            ("verdict".to_owned(), Json::from("unknown")),
            ("chase_steps".to_owned(), Json::from(chase_steps)),
            ("state_rows".to_owned(), Json::from(state_rows)),
        ],
    }
}

/// Parses the `"text"` of a session op as a pure TD set: the `tdq deps`
/// text format, restricted — equality-generating dependencies and
/// instance rows have no meaning inside a session's Σ and are rejected.
fn parse_session_tds(text: &str) -> Result<Vec<Td>, String> {
    let file = td_core::parser::parse(text).map_err(|e| e.to_string())?;
    if !file.eids.is_empty() {
        return Err("session operations accept only TDs; found an EID".to_owned());
    }
    if !file.instance.is_empty() {
        return Err("session operations accept only TDs; found instance rows".to_owned());
    }
    if file.tds.is_empty() {
        return Err("no TDs in \"text\"".to_owned());
    }
    Ok(file.tds)
}

/// Parses the optional per-request `"budgets"` override object.
fn parse_budgets(j: &Json) -> Result<Option<RequestBudget>, String> {
    let Some(b) = j.get("budgets") else {
        return Ok(None);
    };
    let field = |name: &str| -> Result<Option<u64>, String> {
        match b.get(name) {
            None => Ok(None),
            Some(v) => v.as_u64().map(Some).ok_or_else(|| {
                format!("budgets.{name} must be a non-negative integer that fits in u64")
            }),
        }
    };
    Ok(Some(RequestBudget {
        derivation_states: field("derivation_states")?.map(|n| n as usize),
        model_nodes: field("model_nodes")?,
    }))
}

/// Handles one request line against the shared engine, producing one
/// reply line. Never panics on malformed input — every failure becomes an
/// error envelope.
pub fn handle_line(engine: &Engine, line: &str) -> ServeReply {
    let reply = |text: String| ServeReply {
        text,
        shutdown: false,
    };
    let j = match Json::parse(line) {
        Ok(j) => j,
        Err(JsonError { byte, msg }) => {
            return reply(error_reply(&Json::Null, &msg, Some(byte)));
        }
    };
    let id = j.get("id").cloned().unwrap_or(Json::Null);
    let Some(op) = j.get("op").and_then(Json::as_str) else {
        return reply(error_reply(&id, "missing \"op\" field", None));
    };
    match op {
        "wp" => {
            let (_, p) = match parse_instance(&j, "wp") {
                Ok(x) => x,
                Err(msg) => return reply(error_reply(&id, &msg, None)),
            };
            let budgets = match parse_budgets(&j) {
                Ok(b) => b,
                Err(msg) => return reply(error_reply(&id, &msg, None)),
            };
            let spend = j.get("spend").and_then(Json::as_bool).unwrap_or(false);
            let timings = j.get("timings").and_then(Json::as_bool).unwrap_or(false);
            match engine.decide_with(&p, budgets) {
                Ok(decision) => reply(wp_reply(&id, &decision, spend, timings)),
                Err(e) => reply(error_reply(&id, &e.to_string(), None)),
            }
        }
        "deps" => {
            let Some(text) = j.get("text").and_then(Json::as_str) else {
                return reply(error_reply(&id, "missing \"text\" field", None));
            };
            match deps_reply(engine, &id, text) {
                Ok(text) => reply(text),
                Err(msg) => reply(error_reply(&id, &msg, None)),
            }
        }
        "batch" => {
            let Some(items) = j.get("items").and_then(Json::as_array) else {
                return reply(error_reply(&id, "missing \"items\" array", None));
            };
            let mut ids = Vec::with_capacity(items.len());
            let mut presentations = Vec::with_capacity(items.len());
            for (ix, item) in items.iter().enumerate() {
                match parse_instance(item, &format!("item{}", ix + 1)) {
                    Ok((item_id, p)) => {
                        ids.push(item_id);
                        presentations.push(p);
                    }
                    Err(msg) => {
                        return reply(error_reply(&id, &format!("items[{ix}]: {msg}"), None));
                    }
                }
            }
            match engine.solve_batch(&presentations) {
                Ok(run) => reply(batch_reply(&id, &ids, &run)),
                Err(e) => reply(error_reply(&id, &e.to_string(), None)),
            }
        }
        "stats" => {
            let spend = j.get("spend").and_then(Json::as_bool).unwrap_or(false);
            let sessions = j
                .get("sessions")
                .and_then(Json::as_bool)
                .unwrap_or(false)
                .then(|| engine.session_stats());
            let jobs = j
                .get("jobs")
                .and_then(Json::as_bool)
                .unwrap_or(false)
                .then(|| engine.jobs());
            reply(stats_reply(
                &id,
                &engine.stats(),
                spend,
                sessions.as_ref(),
                jobs,
            ))
        }
        "session_open" | "session_close" => {
            let Some(sid) = j.get("session").and_then(Json::as_str) else {
                return reply(error_reply(&id, "missing \"session\" field", None));
            };
            let result = if op == "session_open" {
                engine.session_open(sid)
            } else {
                engine.session_close(sid)
            };
            match result {
                Ok(()) => reply(
                    Json::Obj(vec![
                        ("id".to_owned(), id),
                        ("ok".to_owned(), Json::from(true)),
                        ("op".to_owned(), Json::from(op)),
                        ("session".to_owned(), Json::from(sid)),
                    ])
                    .render(),
                ),
                Err(e) => reply(error_reply(&id, &e.to_string(), None)),
            }
        }
        "session_add_dep" => {
            let Some(sid) = j.get("session").and_then(Json::as_str) else {
                return reply(error_reply(&id, "missing \"session\" field", None));
            };
            let Some(text) = j.get("text").and_then(Json::as_str) else {
                return reply(error_reply(&id, "missing \"text\" field", None));
            };
            let tds = match parse_session_tds(text) {
                Ok(tds) => tds,
                Err(msg) => return reply(error_reply(&id, &msg, None)),
            };
            match engine.session_add_deps(sid, &tds) {
                Ok(total) => {
                    let added: Vec<Json> = tds.iter().map(|td| Json::from(td.name())).collect();
                    reply(
                        Json::Obj(vec![
                            ("id".to_owned(), id),
                            ("ok".to_owned(), Json::from(true)),
                            ("op".to_owned(), Json::from(op)),
                            ("session".to_owned(), Json::from(sid)),
                            ("added".to_owned(), Json::Arr(added)),
                            ("deps".to_owned(), Json::from(total)),
                        ])
                        .render(),
                    )
                }
                Err(e) => reply(error_reply(&id, &e.to_string(), None)),
            }
        }
        "session_remove_dep" => {
            let Some(sid) = j.get("session").and_then(Json::as_str) else {
                return reply(error_reply(&id, "missing \"session\" field", None));
            };
            let Some(name) = j.get("name").and_then(Json::as_str) else {
                return reply(error_reply(&id, "missing \"name\" field", None));
            };
            match engine.session_remove_dep(sid, name) {
                Ok(total) => reply(
                    Json::Obj(vec![
                        ("id".to_owned(), id),
                        ("ok".to_owned(), Json::from(true)),
                        ("op".to_owned(), Json::from(op)),
                        ("session".to_owned(), Json::from(sid)),
                        ("removed".to_owned(), Json::from(name)),
                        ("deps".to_owned(), Json::from(total)),
                    ])
                    .render(),
                ),
                Err(e) => reply(error_reply(&id, &e.to_string(), None)),
            }
        }
        "session_ask" => {
            let Some(sid) = j.get("session").and_then(Json::as_str) else {
                return reply(error_reply(&id, "missing \"session\" field", None));
            };
            let Some(text) = j.get("text").and_then(Json::as_str) else {
                return reply(error_reply(&id, "missing \"text\" field", None));
            };
            let tds = match parse_session_tds(text) {
                Ok(tds) => tds,
                Err(msg) => return reply(error_reply(&id, &msg, None)),
            };
            let [goal] = tds.as_slice() else {
                return reply(error_reply(
                    &id,
                    "session_ask takes exactly one TD as the goal",
                    None,
                ));
            };
            match engine.session_ask(sid, goal) {
                Ok((verdict, cached)) => {
                    let mut fields = vec![
                        ("id".to_owned(), id),
                        ("ok".to_owned(), Json::from(true)),
                        ("op".to_owned(), Json::from(op)),
                        ("session".to_owned(), Json::from(sid)),
                        ("goal".to_owned(), Json::from(goal.name())),
                    ];
                    fields.extend(session_verdict_fields(&verdict));
                    fields.push(("cached".to_owned(), Json::from(cached)));
                    reply(Json::Obj(fields).render())
                }
                Err(e) => reply(error_reply(&id, &e.to_string(), None)),
            }
        }
        "cache_save" | "cache_load" => {
            // Operator-level persistence ops: the path names a file on the
            // *server's* filesystem (trusted clients only — same trust
            // level as `shutdown`). See docs/PROTOCOL.md for the snapshot
            // compatibility rules.
            let Some(path) = j.get("path").and_then(Json::as_str) else {
                return reply(error_reply(&id, "missing \"path\" field", None));
            };
            if op == "cache_save" {
                let image = engine.save_snapshot();
                let keys = engine.cache().len();
                match td_reduction::snapshot::write_atomic(std::path::Path::new(path), &image) {
                    Ok(()) => reply(
                        Json::Obj(vec![
                            ("id".to_owned(), id),
                            ("ok".to_owned(), Json::from(true)),
                            ("op".to_owned(), Json::from(op)),
                            ("path".to_owned(), Json::from(path)),
                            ("keys".to_owned(), Json::from(keys)),
                            ("bytes".to_owned(), Json::from(image.len())),
                        ])
                        .render(),
                    ),
                    Err(e) => reply(error_reply(&id, &format!("cannot write {path}: {e}"), None)),
                }
            } else {
                let capacity = engine.cache().capacity();
                let bytes = match td_reduction::snapshot::read_bounded(
                    std::path::Path::new(path),
                    capacity,
                ) {
                    Ok(b) => b,
                    Err(e) => {
                        return reply(error_reply(&id, &format!("cannot read {path}: {e}"), None));
                    }
                };
                match engine.load_snapshot(&bytes) {
                    Ok(stats) => reply(
                        Json::Obj(vec![
                            ("id".to_owned(), id),
                            ("ok".to_owned(), Json::from(true)),
                            ("op".to_owned(), Json::from(op)),
                            ("path".to_owned(), Json::from(path)),
                            ("keys_loaded".to_owned(), Json::from(stats.keys_loaded)),
                            (
                                "keys_skipped_version".to_owned(),
                                Json::from(stats.keys_skipped_version),
                            ),
                        ])
                        .render(),
                    ),
                    Err(e) => reply(error_reply(&id, &e.to_string(), None)),
                }
            }
        }
        "shutdown" => {
            engine.shutdown();
            ServeReply {
                text: Json::Obj(vec![
                    ("id".to_owned(), id),
                    ("ok".to_owned(), Json::from(true)),
                    ("op".to_owned(), Json::from("shutdown")),
                ])
                .render(),
                shutdown: true,
            }
        }
        other => reply(error_reply(&id, &format!("unknown op `{other}`"), None)),
    }
}

/// Serves a single NDJSON client on `input`/`output`, strictly in request
/// order, until EOF or a `shutdown` request. Blank lines are skipped.
/// Replies are flushed per line so a pipelining client never deadlocks on
/// buffering.
///
/// # Errors
///
/// Fails with the underlying I/O error when reading a request line or
/// writing/flushing a reply fails. Request-level problems (bad JSON,
/// unknown ops) are reported as error replies, not as `Err`.
pub fn serve_stdio(
    engine: &Engine,
    input: impl BufRead,
    mut output: impl Write,
) -> std::io::Result<()> {
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let reply = handle_line(engine, &line);
        writeln!(output, "{}", reply.text)?;
        output.flush()?;
        if reply.shutdown || engine.is_shut_down() {
            break;
        }
    }
    Ok(())
}

/// Serves concurrent NDJSON clients on a TCP listener through a fixed
/// worker pool sized by the engine's `--jobs` setting, all sharing
/// `engine` (and therefore its decision cache: a verdict solved for one
/// client is a cache hit for every other). Runs until a client sends
/// `shutdown` (or the engine is shut down externally): the listener stops
/// accepting, in-flight searches are cancelled through the engine's
/// ticket registry, every open connection is unblocked and drained, and
/// the pool is joined before this returns. Equivalent to
/// [`serve_listen_pooled`] with `engine.jobs()` workers.
///
/// # Errors
///
/// Fails with the underlying I/O error when configuring or polling the
/// listener fails. Per-connection I/O errors tear down that connection
/// only.
pub fn serve_listen(engine: &Engine, listener: TcpListener) -> std::io::Result<()> {
    serve_listen_pooled(engine, listener, engine.jobs())
}

/// The previous `serve_listen` transport: one scoped thread per
/// connection, blocking reads, no pool. Kept as the comparison baseline
/// for the `serve_saturation` benchmark and as a behavioral oracle for
/// the pooled loop — both must satisfy the same PROTOCOL.md contract.
///
/// # Errors
///
/// Fails with the underlying I/O error when configuring or polling the
/// listener fails. Per-connection I/O errors tear down that connection
/// only.
pub fn serve_listen_threaded(engine: &Engine, listener: TcpListener) -> std::io::Result<()> {
    // Non-blocking accept so the loop can observe shutdown promptly; the
    // accepted sockets are switched back to blocking mode.
    listener.set_nonblocking(true)?;
    // Weak handles only: a connection thread owns the one strong Arc, so
    // a closed connection drops its socket immediately and its registry
    // entry goes dead (pruned on the next accept) — the registry never
    // pins file descriptors past their connection's lifetime.
    let clients: Mutex<Vec<std::sync::Weak<TcpStream>>> = Mutex::new(Vec::new());
    std::thread::scope(|s| -> std::io::Result<()> {
        // Accept until shutdown; a fatal accept error falls through to
        // the same drain path below (returning early would leave the
        // scope joining connection threads that are still blocked in
        // reads — a wedged server instead of an error).
        let accept_result = loop {
            if engine.is_shut_down() {
                break Ok(());
            }
            match listener.accept() {
                Ok((stream, _addr)) => {
                    let stream = std::sync::Arc::new(stream);
                    {
                        // Recover from poisoning: the registry is a
                        // `Vec<Weak>` mutated one complete push/retain at
                        // a time, and the accept loop must keep serving
                        // even after some connection thread panicked.
                        let mut clients = clients
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        clients.retain(|w| w.strong_count() > 0);
                        clients.push(std::sync::Arc::downgrade(&stream));
                    }
                    s.spawn(move || serve_connection(engine, &stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                // Transient per-connection failures must not kill the
                // server.
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionAborted | std::io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => break Err(e),
            }
        };
        // Drain: stop in-flight searches (idempotent after a client
        // shutdown op), unblock every connection reader so its thread can
        // exit, and let the scope join them all.
        engine.shutdown();
        // The drain must unblock every connection reader even if a panic
        // poisoned the registry — a skipped socket shutdown would wedge
        // the scope join below — so recover rather than propagate.
        for client in clients
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
        {
            if let Some(client) = client.upgrade() {
                let _ = client.shutdown(Shutdown::Both);
            }
        }
        accept_result
    })
}

/// One connection's request loop: sequential within the connection,
/// concurrent across connections. The thread's `Arc` keeps the socket
/// alive; dropping it on exit closes the connection and retires its
/// registry entry.
fn serve_connection(engine: &Engine, stream: &TcpStream) {
    // Accepted sockets may inherit the listener's non-blocking mode on
    // some platforms; insist on blocking reads.
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let reader = BufReader::new(stream);
    let mut writer = BufWriter::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let reply = handle_line(engine, &line);
        if writeln!(writer, "{}", reply.text).is_err() || writer.flush().is_err() {
            break;
        }
        if reply.shutdown || engine.is_shut_down() {
            break;
        }
    }
}

/// Per-connection input state shared between the poll loop and the worker
/// pool. The poller appends complete request lines under the lock; the
/// worker that owns the connection drains them. `busy` is the
/// single-flight latch that keeps each connection's replies strictly in
/// request order (PROTOCOL.md's per-connection ordering guarantee) even
/// though the pool has many workers.
#[derive(Debug, Default)]
struct ConnState {
    /// Bytes received after the last newline — a request line in flight.
    partial: Vec<u8>,
    /// Complete request lines not yet handled, in arrival order.
    pending: VecDeque<String>,
    /// Whether a pool worker currently owns this connection.
    busy: bool,
    /// Whether the socket reached EOF, failed, or served a `shutdown`.
    closed: bool,
}

/// One pooled connection: the nonblocking socket plus its input state.
/// The poller holds one `Arc` per live connection; a worker holds a
/// second while it owns the connection. Dropping the last `Arc` closes
/// the socket.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    state: Mutex<ConnState>,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            state: Mutex::new(ConnState::default()),
        }
    }

    /// Locks the state, recovering from poisoning: every critical section
    /// mutates the state one complete push/pop at a time, so the state is
    /// coherent even if a worker panicked mid-request, and the poll loop
    /// must keep serving the other connections regardless.
    fn lock_state(&self) -> MutexGuard<'_, ConnState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Drains every currently-readable byte into complete request lines.
    /// Returns `true` when any byte (or EOF) was observed, so the poll
    /// loop only sleeps on a fully idle tick.
    fn poll_read(&self) -> bool {
        let mut progressed = false;
        let mut buf = [0u8; 4096];
        loop {
            match (&self.stream).read(&mut buf) {
                Ok(0) => {
                    let mut st = self.lock_state();
                    // EOF after an unterminated final line: `BufRead::lines`
                    // yields it, so the pool does too.
                    if !st.partial.is_empty() {
                        let line = std::mem::take(&mut st.partial);
                        st.pending
                            .push_back(String::from_utf8_lossy(&line).into_owned());
                    }
                    st.closed = true;
                    return true;
                }
                Ok(n) => {
                    progressed = true;
                    let mut st = self.lock_state();
                    // td-lint: allow(panic-path) `read` returns n <= buf.len()
                    // (the Read contract), so the slice is in bounds
                    for &b in &buf[..n] {
                        if b == b'\n' {
                            let mut line = std::mem::take(&mut st.partial);
                            // `BufRead::lines` strips one trailing CR.
                            if line.last() == Some(&b'\r') {
                                line.pop();
                            }
                            st.pending
                                .push_back(String::from_utf8_lossy(&line).into_owned());
                        } else {
                            st.partial.push(b);
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return progressed,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.lock_state().closed = true;
                    return true;
                }
            }
        }
    }
}

/// Writes one reply line to a nonblocking socket, sleeping briefly on
/// `WouldBlock` so a slow reader stalls only the worker that owns its
/// connection, never the poll loop or the rest of the pool.
fn write_line_nonblocking(stream: &TcpStream, text: &str) -> std::io::Result<()> {
    let mut line = Vec::with_capacity(text.len() + 1);
    line.extend_from_slice(text.as_bytes());
    line.push(b'\n');
    let mut written = 0;
    let mut writer = stream;
    while written < line.len() {
        // td-lint: allow(panic-path) the loop guard `written < line.len()`
        // keeps the range start in bounds
        match writer.write(&line[written..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Answers one connection's queued request lines in arrival order, then
/// releases the single-flight latch. The state lock is never held across
/// `handle_line` or a socket write — the poll loop keeps buffering input
/// for every connection (including this one) while a request is solving.
fn drain_connection(engine: &Engine, conn: &Conn) {
    loop {
        let line = {
            let mut st = conn.lock_state();
            match st.pending.pop_front() {
                Some(line) => line,
                None => {
                    st.busy = false;
                    return;
                }
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let reply = handle_line(engine, &line);
        let failed = write_line_nonblocking(&conn.stream, &reply.text).is_err();
        if failed || reply.shutdown || engine.is_shut_down() {
            // Mirror the per-thread loop: an I/O failure or a shutdown
            // ends this connection; unanswered pipelined lines are
            // dropped, exactly as the blocking reader never reads them.
            let mut st = conn.lock_state();
            st.pending.clear();
            st.closed = true;
            st.busy = false;
            return;
        }
    }
}

/// One pool worker: block on the ready queue, take ownership of a
/// connection with queued lines, answer them, repeat until the drain flag
/// is raised and the queue is empty.
fn pool_worker(
    engine: &Engine,
    queue: &Mutex<VecDeque<Arc<Conn>>>,
    ready: &Condvar,
    done: &AtomicBool,
) {
    loop {
        let conn = {
            let mut q = queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(conn) = q.pop_front() {
                    break Some(conn);
                }
                if done.load(Ordering::Acquire) {
                    break None;
                }
                q = ready.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(conn) = conn else { return };
        drain_connection(engine, &conn);
    }
}

/// Serves concurrent NDJSON clients on a TCP listener with a fixed pool
/// of `workers` threads (clamped to at least 1) instead of a thread per
/// connection. The accept thread runs a nonblocking readiness loop:
/// accept new sockets, drain readable bytes into per-connection line
/// queues, and hand each connection with queued lines to exactly one pool
/// worker at a time. Per-connection replies therefore stay strictly in
/// request order while total thread count is bounded by the pool width.
///
/// Shutdown drains in four steps: cancel in-flight searches through the
/// engine, give busy workers a bounded grace window to flush replies
/// already earned (most importantly the `shutdown` reply itself), unblock
/// every socket, then stop the pool and join it.
///
/// # Errors
///
/// Fails with the underlying I/O error when configuring or polling the
/// listener fails. Per-connection I/O errors tear down that connection
/// only.
pub fn serve_listen_pooled(
    engine: &Engine,
    listener: TcpListener,
    workers: usize,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let workers = workers.max(1);
    let queue: Mutex<VecDeque<Arc<Conn>>> = Mutex::new(VecDeque::new());
    let ready = Condvar::new();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| -> std::io::Result<()> {
        for _ in 0..workers {
            s.spawn(|| pool_worker(engine, &queue, &ready, &done));
        }
        let mut conns: Vec<Arc<Conn>> = Vec::new();
        // As in the threaded transport, a fatal accept error falls
        // through to the drain below rather than returning early past
        // blocked pool workers.
        let accept_result = 'serve: loop {
            if engine.is_shut_down() {
                break Ok(());
            }
            let mut progressed = false;
            loop {
                match listener.accept() {
                    Ok((stream, _addr)) => {
                        // The poll loop multiplexes with nonblocking
                        // reads; a socket that cannot switch modes cannot
                        // join it.
                        if stream.set_nonblocking(true).is_ok() {
                            conns.push(Arc::new(Conn::new(stream)));
                            progressed = true;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    // Transient per-connection failures must not kill the
                    // server.
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::ConnectionAborted | std::io::ErrorKind::Interrupted
                        ) => {}
                    Err(e) => break 'serve Err(e),
                }
            }
            let mut i = 0;
            while i < conns.len() {
                // td-lint: allow(panic-path) the loop guard `i < conns.len()`
                // holds: swap_remove shrinks len without advancing i
                let conn = &conns[i];
                let already_closed = conn.lock_state().closed;
                if !already_closed && conn.poll_read() {
                    progressed = true;
                }
                let (enqueue, retire) = {
                    let mut st = conn.lock_state();
                    let enqueue = !st.busy && !st.pending.is_empty();
                    if enqueue {
                        st.busy = true;
                    }
                    (enqueue, st.closed && !st.busy && st.pending.is_empty())
                };
                if enqueue {
                    queue
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push_back(Arc::clone(conn));
                    ready.notify_one();
                }
                if retire {
                    // Dropping the poller's Arc closes the socket (no
                    // worker owns a retired connection).
                    conns.swap_remove(i);
                } else {
                    i += 1;
                }
            }
            if !progressed {
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        // Drain step 1: stop in-flight searches (idempotent after a
        // client shutdown op).
        engine.shutdown();
        // Step 2: bounded grace window so busy workers can flush replies
        // already earned — without it the `shutdown` reply itself could
        // be cut off by the socket shutdown below.
        let deadline = Instant::now() + Duration::from_secs(2);
        while conns.iter().any(|c| c.lock_state().busy) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Step 3: unblock every client still connected.
        for conn in &conns {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        // Step 4: stop the pool; the scope joins the workers.
        done.store(true, Ordering::Release);
        ready.notify_all();
        accept_result
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use td_reduction::engine::EngineConfig;

    fn wp_line(id: &str, renamed: bool) -> String {
        if renamed {
            format!(
                "{{\"id\":\"{id}\",\"op\":\"wp\",\"alphabet\":[\"s\",\"g\",\"z\"],\
                 \"a0\":\"s\",\"zero\":\"z\",\"eqs\":[\"g g = s\",\"g g = z\"]}}"
            )
        } else {
            format!(
                "{{\"id\":\"{id}\",\"op\":\"wp\",\"alphabet\":[\"A0\",\"A1\",\"0\"],\
                 \"eqs\":[\"A1 A1 = A0\",\"A1 A1 = 0\"]}}"
            )
        }
    }

    #[test]
    fn deeply_nested_lines_get_one_error_reply() {
        // Recursing once per `[` would overflow a 2 MiB stack here; the
        // depth cap fails the line at its 65th bracket, well within 256 KiB.
        let engine = Engine::new();
        let line = "[".repeat(30_000);
        let reply = std::thread::scope(|s| {
            std::thread::Builder::new()
                .stack_size(256 * 1024)
                .spawn_scoped(s, || handle_line(&engine, &line))
                .unwrap()
                .join()
                .unwrap()
        });
        assert!(
            reply
                .text
                .starts_with("{\"id\":null,\"ok\":false,\"error\":{\"msg\":"),
            "{reply:?}"
        );
        assert!(reply.text.contains("\"byte\":64"), "{reply:?}");
        assert!(!reply.text.contains('\n'), "one reply line: {reply:?}");
        assert!(!reply.shutdown);
    }

    #[test]
    fn wp_requests_share_the_cache() {
        let engine = Engine::new();
        let first = handle_line(&engine, &wp_line("a", false));
        assert!(first.text.contains("\"verdict\":\"implied\""), "{first:?}");
        assert!(first.text.contains("\"cached\":false"));
        assert!(!first.shutdown);
        let second = handle_line(&engine, &wp_line("b", true));
        assert!(second.text.contains("\"cached\":true"), "{second:?}");
        assert!(second.text.starts_with("{\"id\":\"b\",\"ok\":true"));
    }

    #[test]
    fn malformed_lines_get_structured_errors() {
        let engine = Engine::new();
        let r = handle_line(&engine, "not json");
        assert!(r
            .text
            .starts_with("{\"id\":null,\"ok\":false,\"error\":{\"msg\":"));
        assert!(r.text.contains("\"byte\":"), "{}", r.text);

        let r = handle_line(&engine, "{\"id\":7}");
        assert_eq!(
            r.text,
            "{\"id\":7,\"ok\":false,\"error\":{\"msg\":\"missing \\\"op\\\" field\"}}"
        );

        let r = handle_line(&engine, "{\"id\":\"x\",\"op\":\"frobnicate\"}");
        assert!(r.text.contains("unknown op `frobnicate`"));

        let r = handle_line(&engine, "{\"op\":\"wp\",\"alphabet\":[\"A0\",\"0\"]}");
        assert!(r.text.contains("missing \\\"eqs\\\" array"), "{}", r.text);
        assert_eq!(
            engine.stats().requests,
            0,
            "rejected lines are not requests"
        );
    }

    #[test]
    fn stats_and_shutdown_round_trip() {
        let engine = Engine::new();
        handle_line(&engine, &wp_line("a", false));
        let stats = handle_line(&engine, "{\"id\":\"s\",\"op\":\"stats\"}");
        assert_eq!(
            stats.text,
            "{\"id\":\"s\",\"ok\":true,\"op\":\"stats\",\"requests\":1,\"cache_hits\":0,\
             \"solved\":1,\"keys_cached\":1,\"evictions\":0}"
        );
        let with_spend = handle_line(&engine, "{\"id\":\"s2\",\"op\":\"stats\",\"spend\":true}");
        assert!(with_spend.text.contains("\"derivation_states\":"));

        let bye = handle_line(&engine, "{\"id\":\"q\",\"op\":\"shutdown\"}");
        assert!(bye.shutdown);
        assert_eq!(bye.text, "{\"id\":\"q\",\"ok\":true,\"op\":\"shutdown\"}");
        assert!(engine.is_shut_down());
        // Uncached work after shutdown is refused with the envelope.
        let refused = handle_line(&engine, &wp_line("late", true));
        assert!(refused.text.contains("\"cached\":true"), "warm keys drain");
        let refused = handle_line(
            &engine,
            "{\"id\":\"new\",\"op\":\"wp\",\"alphabet\":[\"A0\",\"0\"],\"eqs\":[]}",
        );
        assert!(
            refused.text.contains("engine is shut down"),
            "{}",
            refused.text
        );
    }

    #[test]
    fn cache_ops_round_trip_through_a_fresh_engine() {
        let dir = std::env::temp_dir().join(format!("tdq_serve_cache_ops_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ops.tdsnap");
        let path_json = path.to_str().unwrap().replace('\\', "/");

        let engine = Engine::new();
        let r = handle_line(
            &engine,
            "{\"id\":\"w\",\"op\":\"wp\",\"alphabet\":[\"A0\",\"0\"],\"eqs\":[]}",
        );
        assert!(r.text.contains("\"cached\":false"), "{}", r.text);
        let r = handle_line(
            &engine,
            &format!("{{\"id\":\"s\",\"op\":\"cache_save\",\"path\":\"{path_json}\"}}"),
        );
        assert!(r.text.contains("\"ok\":true"), "{}", r.text);
        assert!(r.text.contains("\"keys\":1"), "{}", r.text);

        // A *fresh* engine — the restart — answers from the loaded image.
        let warm = Engine::new();
        let r = handle_line(
            &warm,
            &format!("{{\"id\":\"l\",\"op\":\"cache_load\",\"path\":\"{path_json}\"}}"),
        );
        assert!(r.text.contains("\"keys_loaded\":1"), "{}", r.text);
        assert!(r.text.contains("\"keys_skipped_version\":0"), "{}", r.text);
        let r = handle_line(
            &warm,
            "{\"id\":\"w2\",\"op\":\"wp\",\"alphabet\":[\"A0\",\"0\"],\"eqs\":[]}",
        );
        assert!(r.text.contains("\"cached\":true"), "{}", r.text);
        assert_eq!(warm.stats().solved, 0, "warm replay never ran the solver");

        // Failure envelopes: missing path field, unreadable file, corrupt
        // image — all structured errors, none fatal to the session.
        let r = handle_line(&warm, "{\"id\":\"e1\",\"op\":\"cache_load\"}");
        assert!(r.text.contains("missing \\\"path\\\" field"), "{}", r.text);
        let r = handle_line(
            &warm,
            "{\"id\":\"e2\",\"op\":\"cache_load\",\"path\":\"/nonexistent/x.tdsnap\"}",
        );
        assert!(r.text.contains("cannot read"), "{}", r.text);
        // A device is refused before a byte of it is read.
        let r = handle_line(
            &warm,
            "{\"id\":\"e4\",\"op\":\"cache_load\",\"path\":\"/dev/zero\"}",
        );
        assert!(r.text.contains("\"ok\":false"), "{}", r.text);
        assert!(r.text.contains("not a regular file"), "{}", r.text);
        let mut image = std::fs::read(&path).unwrap();
        let mid = image.len() / 2;
        image[mid] ^= 0x20;
        std::fs::write(&path, &image).unwrap();
        let r = handle_line(
            &warm,
            &format!("{{\"id\":\"e3\",\"op\":\"cache_load\",\"path\":\"{path_json}\"}}"),
        );
        assert!(r.text.contains("\"ok\":false"), "{}", r.text);
        assert!(r.text.contains("snapshot byte"), "{}", r.text);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn budget_overrides_are_validated_and_clamped() {
        let engine = Engine::new();
        let r = handle_line(
            &engine,
            "{\"id\":\"b\",\"op\":\"wp\",\"alphabet\":[\"A0\",\"0\"],\"eqs\":[],\
             \"budgets\":{\"model_nodes\":-3}}",
        );
        assert!(
            r.text.contains("must be a non-negative integer"),
            "{}",
            r.text
        );
        // Out-of-range: 2^64 is integral and non-negative but exceeds
        // u64, so it must surface as the structured error envelope, not
        // saturate to u64::MAX and silently mean "unbounded-ish".
        let r = handle_line(
            &engine,
            "{\"id\":\"b3\",\"op\":\"wp\",\"alphabet\":[\"A0\",\"0\"],\"eqs\":[],\
             \"budgets\":{\"derivation_states\":18446744073709551616}}",
        );
        assert!(r.text.contains("\"ok\":false"), "{}", r.text);
        assert!(
            r.text
                .contains("budgets.derivation_states must be a non-negative integer"),
            "{}",
            r.text
        );
        // A tiny valid override still answers (the analytic shortcut needs
        // zero search nodes for this instance).
        let r = handle_line(
            &engine,
            "{\"id\":\"b2\",\"op\":\"wp\",\"alphabet\":[\"A0\",\"0\"],\"eqs\":[],\
             \"budgets\":{\"derivation_states\":1,\"model_nodes\":1},\"spend\":true}",
        );
        assert!(r.text.contains("\"verdict\":\"refuted\""), "{}", r.text);
        assert!(r.text.contains("\"spend\":{"), "{}", r.text);
    }

    /// `A1^14 = A0` normalizes to 15 symbols, so order 4 alone has
    /// 4^13 · 3 interpretations. Every interpretation costs a model node,
    /// so `model_nodes: 1` stops the model search after its first one and
    /// the question answers `unknown` at once, with its spend reported
    /// exactly. The guard is generous: unmetered, this probe ran for
    /// seconds even in a release build.
    #[test]
    fn model_node_budget_bounds_the_interpretation_enumeration() {
        let engine = Engine::new();
        let word = vec!["A1"; 14].join(" ");
        let line = format!(
            "{{\"id\":\"m\",\"op\":\"wp\",\"alphabet\":[\"A0\",\"A1\",\"0\"],\
             \"eqs\":[\"{word} = A0\"],\
             \"budgets\":{{\"derivation_states\":10,\"model_nodes\":1}},\"spend\":true}}"
        );
        let began = std::time::Instant::now();
        let r = handle_line(&engine, &line);
        assert!(
            began.elapsed() < std::time::Duration::from_secs(5),
            "took {:?}",
            began.elapsed()
        );
        assert!(r.text.contains("\"verdict\":\"unknown\""), "{}", r.text);
        assert!(r.text.contains("\"model_nodes\":1,"), "{}", r.text);
        assert!(r.text.contains("\"model_truncated\":false"), "{}", r.text);
    }

    const PROD_TEXT: &str = "schema R(A, B)\\ntd prod: (a, b) (a2, b2) -> (a, b2)\\n";
    const PT_TEXT: &str = "schema R(A, B)\\ntd pt: (a, b) (a2, b) (a2, b2) -> (a, b2)\\n";

    fn session_line(id: &str, op: &str, sid: &str, extra: &str) -> String {
        format!("{{\"id\":\"{id}\",\"op\":\"{op}\",\"session\":\"{sid}\"{extra}}}")
    }

    #[test]
    fn session_ops_round_trip() {
        let engine = Engine::new();
        let r = handle_line(&engine, &session_line("1", "session_open", "s1", ""));
        assert_eq!(
            r.text,
            "{\"id\":\"1\",\"ok\":true,\"op\":\"session_open\",\"session\":\"s1\"}"
        );

        // Empty Σ refutes any non-trivial goal: the frozen goal instance is
        // already a fixpoint and the conclusion is absent.
        let ask_pt = format!(",\"text\":\"{PT_TEXT}\"");
        let r = handle_line(&engine, &session_line("2", "session_ask", "s1", &ask_pt));
        assert!(r.text.contains("\"verdict\":\"refuted\""), "{}", r.text);
        assert!(r.text.contains("\"goal\":\"pt\""), "{}", r.text);
        assert!(r.text.contains("\"cached\":false"), "{}", r.text);

        // Adding the product TD flips the verdict: prod implies every full
        // TD over the schema, so the NotImplied verdict must be dropped and
        // the parked chase resumed.
        let add = format!(",\"text\":\"{PROD_TEXT}\"");
        let r = handle_line(&engine, &session_line("3", "session_add_dep", "s1", &add));
        assert_eq!(
            r.text,
            "{\"id\":\"3\",\"ok\":true,\"op\":\"session_add_dep\",\"session\":\"s1\",\
             \"added\":[\"prod\"],\"deps\":1}"
        );
        let r = handle_line(&engine, &session_line("4", "session_ask", "s1", &ask_pt));
        assert!(r.text.contains("\"verdict\":\"implied\""), "{}", r.text);
        assert!(r.text.contains("\"cached\":false"), "{}", r.text);
        let r = handle_line(&engine, &session_line("5", "session_ask", "s1", &ask_pt));
        assert!(r.text.contains("\"cached\":true"), "{}", r.text);

        // Removal reverts to the empty-Σ refutation (recomputed, not cached).
        let r = handle_line(
            &engine,
            &session_line("6", "session_remove_dep", "s1", ",\"name\":\"prod\""),
        );
        assert_eq!(
            r.text,
            "{\"id\":\"6\",\"ok\":true,\"op\":\"session_remove_dep\",\"session\":\"s1\",\
             \"removed\":\"prod\",\"deps\":0}"
        );
        let r = handle_line(&engine, &session_line("7", "session_ask", "s1", &ask_pt));
        assert!(r.text.contains("\"verdict\":\"refuted\""), "{}", r.text);
        assert!(r.text.contains("\"cached\":false"), "{}", r.text);

        let r = handle_line(&engine, &session_line("8", "session_close", "s1", ""));
        assert_eq!(
            r.text,
            "{\"id\":\"8\",\"ok\":true,\"op\":\"session_close\",\"session\":\"s1\"}"
        );
        let r = handle_line(&engine, &session_line("9", "session_ask", "s1", &ask_pt));
        assert!(r.text.contains("unknown session `s1`"), "{}", r.text);
    }

    #[test]
    fn session_error_envelopes() {
        let engine = Engine::new();
        let r = handle_line(&engine, "{\"id\":\"a\",\"op\":\"session_open\"}");
        assert!(
            r.text.contains("missing \\\"session\\\" field"),
            "{}",
            r.text
        );

        let r = handle_line(&engine, &session_line("b", "session_close", "ghost", ""));
        assert!(r.text.contains("unknown session `ghost`"), "{}", r.text);

        handle_line(&engine, &session_line("c", "session_open", "s", ""));
        let r = handle_line(&engine, &session_line("c2", "session_open", "s", ""));
        assert!(r.text.contains("already open"), "{}", r.text);

        let r = handle_line(&engine, &session_line("d", "session_add_dep", "s", ""));
        assert!(r.text.contains("missing \\\"text\\\" field"), "{}", r.text);

        let eid = ",\"text\":\"schema R(A, B)\\neid e: (a, b) (a, b2) -> (x, b) (x, b2)\\n\"";
        let r = handle_line(&engine, &session_line("e", "session_add_dep", "s", eid));
        assert!(r.text.contains("found an EID"), "{}", r.text);

        // A two-TD text is a fine dependency payload but not a goal.
        let both = ",\"text\":\"schema R(A, B)\\ntd prod: (a, b) (a2, b2) -> (a, b2)\\n\
                    td pt: (a, b) (a2, b) (a2, b2) -> (a, b2)\\n\"";
        let r = handle_line(&engine, &session_line("f", "session_ask", "s", both));
        assert!(r.text.contains("exactly one TD"), "{}", r.text);

        let r = handle_line(
            &engine,
            &session_line("g", "session_remove_dep", "s", ",\"name\":\"nope\""),
        );
        assert!(r.text.contains("no dependency named"), "{}", r.text);
    }

    #[test]
    fn stats_session_counters_are_opt_in() {
        let engine = Engine::new();
        handle_line(&engine, &session_line("1", "session_open", "s1", ""));
        let plain = handle_line(&engine, "{\"id\":\"s\",\"op\":\"stats\"}");
        assert!(
            !plain.text.contains("sessions_open"),
            "default stats reply must stay byte-stable: {}",
            plain.text
        );
        let with = handle_line(
            &engine,
            "{\"id\":\"s2\",\"op\":\"stats\",\"sessions\":true}",
        );
        assert!(with.text.contains("\"sessions_open\":1"), "{}", with.text);
        assert!(with.text.contains("\"sessions_opened\":1"), "{}", with.text);
        assert!(
            with.text.contains("\"session_evictions\":0"),
            "{}",
            with.text
        );
        // Session traffic does not perturb the decision-request counters.
        assert_eq!(engine.stats().requests, 0);
    }

    #[test]
    fn stats_jobs_width_is_opt_in() {
        let engine = Engine::with_config(EngineConfig {
            jobs: 3,
            ..EngineConfig::default()
        });
        let plain = handle_line(&engine, "{\"id\":\"s\",\"op\":\"stats\"}");
        assert!(
            !plain.text.contains("\"jobs\""),
            "default stats reply must stay byte-stable: {}",
            plain.text
        );
        let with = handle_line(&engine, "{\"id\":\"s2\",\"op\":\"stats\",\"jobs\":true}");
        assert!(with.text.ends_with(",\"jobs\":3}"), "{}", with.text);
    }

    /// Drives one pooled listener end to end: three clients each pipeline
    /// two requests up front (exercising the per-connection pending
    /// queue), then a control connection reads stats and shuts the server
    /// down. Per-connection reply order must hold at any pool width.
    fn run_pooled_session(workers: usize) {
        let engine = Engine::with_config(EngineConfig {
            jobs: workers,
            ..EngineConfig::default()
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|s| {
            let engine = &engine;
            let server = s.spawn(move || serve_listen_pooled(engine, listener, workers));
            let handles: Vec<_> = (0..3)
                .map(|c| {
                    s.spawn(move || {
                        let stream = TcpStream::connect(addr).unwrap();
                        let mut reader = BufReader::new(stream.try_clone().unwrap());
                        let mut writer = &stream;
                        write!(
                            writer,
                            "{}\n\n{}\n",
                            wp_line(&format!("c{c}-0"), false),
                            wp_line(&format!("c{c}-1"), true),
                        )
                        .unwrap();
                        let mut lines = Vec::new();
                        for _ in 0..2 {
                            let mut line = String::new();
                            reader.read_line(&mut line).unwrap();
                            lines.push(line.trim().to_owned());
                        }
                        lines
                    })
                })
                .collect();
            let replies: Vec<Vec<String>> =
                handles.into_iter().map(|h| h.join().unwrap()).collect();
            for (c, lines) in replies.iter().enumerate() {
                assert!(
                    lines[0].starts_with(&format!("{{\"id\":\"c{c}-0\"")),
                    "client {c} replies out of order: {lines:?}"
                );
                assert!(
                    lines[1].starts_with(&format!("{{\"id\":\"c{c}-1\"")),
                    "client {c} replies out of order: {lines:?}"
                );
                assert!(
                    lines[1].contains("\"cached\":true"),
                    "second ask of the same class hits the cache: {lines:?}"
                );
            }

            let stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = &stream;
            writeln!(writer, "{{\"id\":\"st\",\"op\":\"stats\",\"jobs\":true}}").unwrap();
            let mut stats = String::new();
            reader.read_line(&mut stats).unwrap();
            assert!(stats.contains("\"requests\":6"), "{stats}");
            assert!(stats.contains("\"solved\":1"), "{stats}");
            assert!(stats.contains("\"cache_hits\":5"), "{stats}");
            assert!(
                stats.contains(&format!("\"jobs\":{workers}")),
                "effective pool width surfaces in stats: {stats}"
            );
            writeln!(writer, "{{\"id\":\"q\",\"op\":\"shutdown\"}}").unwrap();
            let mut bye = String::new();
            reader.read_line(&mut bye).unwrap();
            assert_eq!(bye.trim(), "{\"id\":\"q\",\"ok\":true,\"op\":\"shutdown\"}");
            server.join().unwrap().unwrap();
        });
    }

    #[test]
    fn pooled_listener_orders_pipelined_replies_per_connection() {
        run_pooled_session(2);
    }

    #[test]
    fn single_worker_pool_still_serves_every_connection() {
        run_pooled_session(1);
    }

    #[test]
    fn threaded_listener_baseline_still_serves() {
        let engine = Engine::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|s| {
            let engine = &engine;
            let server = s.spawn(move || serve_listen_threaded(engine, listener));
            let stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = &stream;
            writeln!(writer, "{}", wp_line("a", false)).unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("{\"id\":\"a\""), "{line}");
            writeln!(writer, "{{\"id\":\"q\",\"op\":\"shutdown\"}}").unwrap();
            let mut bye = String::new();
            reader.read_line(&mut bye).unwrap();
            assert_eq!(bye.trim(), "{\"id\":\"q\",\"ok\":true,\"op\":\"shutdown\"}");
            server.join().unwrap().unwrap();
        });
    }

    #[test]
    fn stdio_session_is_ordered_and_stops_at_shutdown() {
        let engine = Engine::with_config(EngineConfig::default());
        let session = format!(
            "{}\n\n{}\n{}\n{}\n",
            wp_line("1", false),
            wp_line("2", true),
            "{\"id\":\"3\",\"op\":\"shutdown\"}",
            wp_line("never", false),
        );
        let mut out = Vec::new();
        serve_stdio(&engine, session.as_bytes(), &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines.len(),
            3,
            "the post-shutdown line is never read:\n{out}"
        );
        assert!(lines[0].starts_with("{\"id\":\"1\""));
        assert!(lines[1].starts_with("{\"id\":\"2\""));
        assert!(lines[1].contains("\"cached\":true"));
        assert_eq!(lines[2], "{\"id\":\"3\",\"ok\":true,\"op\":\"shutdown\"}");
    }

    /// A hostile line of one of four shapes, sized by `n` (1..=100,000):
    /// nesting `n` levels deep, a number of up to 10,000 digits, a string
    /// of up to 1 MB, or an unknown op. Each shape comes in four variants
    /// (`variant`), placing the payload where a handler might choke.
    fn hostile_line(kind: u32, n: usize, variant: u32) -> String {
        match kind {
            0 => match variant {
                0 => "[".repeat(n),
                1 => "{\"a\":".repeat(n),
                2 => format!("{}{}", "[".repeat(n), "]".repeat(n)),
                _ => format!(
                    "{{\"id\":\"d\",\"op\":\"wp\",\"x\":{}",
                    "[{\"a\":".repeat(n / 2)
                ),
            },
            1 => {
                let digits = "9".repeat(n % 10_000 + 1);
                match variant {
                    0 => digits,
                    1 => format!("{{\"id\":{digits},\"op\":\"stats\"}}"),
                    2 => format!(
                        "{{\"id\":\"b\",\"op\":\"wp\",\"alphabet\":[\"A0\",\"0\"],\"eqs\":[],\
                         \"budgets\":{{\"model_nodes\":{digits}}}}}"
                    ),
                    _ => format!(
                        "{{\"id\":\"e\",\"op\":\"stats\",\"x\":-{digits}.{digits}e{digits}}}"
                    ),
                }
            }
            2 => {
                let text = "x".repeat((n * 11).min(1 << 20));
                match variant {
                    0 => format!("{{\"id\":\"{text}\",\"op\":\"stats\"}}"),
                    1 => format!("{{\"id\":\"s\",\"op\":\"{text}\"}}"),
                    2 => format!(
                        "{{\"id\":\"s\",\"op\":\"stats\",\"x\":\"{}\"}}",
                        "\\u00e9".repeat(n)
                    ),
                    _ => format!("{{\"id\":\"s\",\"op\":\"stats\",\"x\":\"{text}"),
                }
            }
            _ => match variant {
                0 => format!("{{\"id\":\"u\",\"op\":\"op{n}\"}}"),
                1 => "{\"id\":\"u\",\"op\":\"\"}".to_owned(),
                2 => format!("{{\"id\":\"u\",\"op\":{n}}}"),
                _ => "{\"id\":\"u\"}".to_owned(),
            },
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(40))]

        /// Whatever one line holds, `handle_line` answers it with exactly
        /// one reply line, a JSON object with an `ok` field, without
        /// panicking or overflowing a 256 KiB stack.
        #[test]
        fn hostile_lines_get_exactly_one_reply(
            kind in 0..4u32,
            n in 1..=100_000usize,
            variant in 0..4u32,
        ) {
            let engine = Engine::new();
            let line = hostile_line(kind, n, variant);
            let reply = std::thread::scope(|s| {
                std::thread::Builder::new()
                    .stack_size(256 * 1024)
                    .spawn_scoped(s, || handle_line(&engine, &line))
                    .unwrap()
                    .join()
            });
            let Ok(reply) = reply else {
                return Err(proptest::test_runner::TestCaseError::fail(format!(
                    "handle_line panicked on shape ({kind}, {n}, {variant})"
                )));
            };
            proptest::prop_assert!(!reply.text.contains('\n'), "one reply line");
            proptest::prop_assert!(!reply.shutdown);
            let parsed = Json::parse(&reply.text);
            proptest::prop_assert!(
                parsed.is_ok(),
                "reply is JSON: {}",
                reply.text.chars().take(200).collect::<String>()
            );
            let parsed = parsed.unwrap();
            proptest::prop_assert!(parsed.get("ok").is_some(), "reply has `ok`");
        }
    }
}
