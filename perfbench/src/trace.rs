//! The traced run: an in-process replay of a workload's seeded requests.
//!
//! Each request gets a root span. Under it the replay calls, in turn, the
//! public entry point of every layer the request passes through, each
//! inside a child span:
//!
//! * `serve.handle` — `serve::handle_line` on the main engine, the whole
//!   request as the server runs it (its reply is checked);
//! * `jsonl.parse` — `Json::parse` plus `serve::parse_instance` (or the TD
//!   text parser for `deps`/session payloads);
//! * for each instance: `normalize`, `deps.build`, `canon.system_key`
//!   (memo-free), and — only when the key is new, as on a cache miss —
//!   `fastpath.prescreen`, then the winning search (`derivation` on
//!   implied, `model_search` on refuted instances) and its certificate
//!   (`part_a` / `part_b`);
//! * the engine entry point on a shadow engine that sees the same request
//!   sequence: `engine.decide_hit`/`engine.decide_miss`, `batch.solve`,
//!   `session.*`, `inference.redundancy`.
//!
//! Spans live in memory and are written out as JSON lines at the end. A
//! layer's self time is its span's duration minus its children's.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use td_core::budget::Cancellation;
use td_core::canon::{system_key, CanonKey};
use td_core::td::Td;
use td_reduction::deps::build_system;
use td_reduction::engine::{Engine, EngineConfig, EngineStats, SessionVerdict};
use td_reduction::fastpath::{prescreen, FastBudget};
use td_reduction::part_a::prove_part_a_with;
use td_reduction::part_b::build_counter_model;
use td_reduction::verify::verify_counter_model_with;
use td_semigroup::derivation::{search_goal_derivation_tracked, SearchResult};
use td_semigroup::families::null_counter_model;
use td_semigroup::model_search::{find_counter_model_tracked, ModelSearchResult};
use td_semigroup::normalize::normalize;
use td_semigroup::presentation::Presentation;
use template_deps::jsonl::Json;
use template_deps::serve::{handle_line, parse_instance};

use crate::check::{check, Tally};
use crate::gen::Label;
use crate::stats::quantile;
use crate::workload::{Expect, Req, Stream, Workload};

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder; `on == false` runs the same calls unrecorded.
struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.now();
        }
    }

    /// Runs `f` inside a child span of `parent`, named after the result.
    fn child<T>(
        &mut self,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
        name: impl FnOnce(&T) -> &'static str,
    ) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name: name(&out),
            parent,
            start_ns,
            end_ns,
        });
        out
    }
}

/// Work counts recorded at the layer boundaries.
#[derive(Default)]
struct Counts {
    questions: u64,
    eqs_out: u64,
    deps_tds: u64,
    keyed: u64,
    distinct: HashSet<CanonKey>,
    expected_hits: u64,
    fast_calls: u64,
    fast_settled: u64,
    fast_checks: u64,
    derivation_states: u64,
    model_nodes: u64,
    part_a_firings: u64,
    part_b_rows: u64,
    batch_total: u64,
    batch_unique: u64,
    batch_solved: u64,
    asks: u64,
    ask_hits: u64,
    chase_steps: u64,
    chase_rows: u64,
}

struct Replay {
    main: Engine,
    shadow: Engine,
    tracer: Tracer,
    /// Canonical keys seen so far: a new one is a cache miss.
    keys: HashSet<CanonKey>,
    /// Generator classes seen so far: a repeat is an expected cache hit.
    classes: HashSet<Vec<u8>>,
    counts: Counts,
    tally: Tally,
}

/// Engines as `tdq serve --jobs N` builds them.
fn engine(jobs: usize) -> Engine {
    Engine::with_config(EngineConfig {
        jobs,
        ..EngineConfig::default()
    })
}

impl Replay {
    fn new(jobs: usize, traced: bool) -> Self {
        Self {
            main: engine(jobs),
            shadow: engine(jobs),
            tracer: Tracer {
                on: traced,
                origin: Instant::now(),
                spans: Vec::new(),
            },
            keys: HashSet::new(),
            classes: HashSet::new(),
            counts: Counts::default(),
            tally: Tally::default(),
        }
    }

    /// Drops the spans and counts of the warm phase; its replies stay
    /// checked in the tally.
    fn reset(&mut self) {
        self.tracer.spans.clear();
        self.counts = Counts::default();
    }

    fn process(&mut self, req: &Req) {
        let root = self.tracer.open("request");
        let main = &self.main;
        let reply = self
            .tracer
            .child(root, || handle_line(main, &req.line), |_| "serve.handle");
        self.counts.questions += req.questions;
        let layers = self
            .layers(req, root)
            .map_err(|e| format!("layer replay: {e}"));
        self.tracer.close(root);
        let outcome = check(req, &reply.text).and_then(|settled| layers.map(|()| settled));
        self.tally.record_outcome(req, outcome);
    }

    fn layers(&mut self, req: &Req, root: Option<usize>) -> Result<(), String> {
        let parsed = self.tracer.child(root, || parse(req), |_| "jsonl.parse")?;
        match (&req.expect, parsed) {
            (Expect::Wp { label, .. }, Parsed::Insts(ps)) => {
                let p = ps.first().ok_or("no instance")?;
                self.instance(root, p, *label, &req.insts[0].canon())?;
                let shadow = &self.shadow;
                let d = self.tracer.child(
                    root,
                    || shadow.decide(p),
                    |d| match d {
                        Ok(d) if d.cached => "engine.decide_hit",
                        _ => "engine.decide_miss",
                    },
                );
                d.map_err(|e| e.to_string())?;
            }
            (Expect::Batch { labels, .. }, Parsed::Insts(ps)) => {
                for ((p, label), inst) in ps.iter().zip(labels).zip(&req.insts) {
                    self.instance(root, p, *label, &inst.canon())?;
                }
                let shadow = &self.shadow;
                let run = self
                    .tracer
                    .child(root, || shadow.solve_batch(&ps), |_| "batch.solve")
                    .map_err(|e| e.to_string())?;
                self.counts.batch_total += run.stats.total as u64;
                self.counts.batch_unique += run.stats.unique as u64;
                self.counts.batch_solved += run.stats.solved as u64;
            }
            (Expect::Deps { .. }, Parsed::Tds { tds, .. }) => {
                let shadow = &self.shadow;
                self.tracer
                    .child(root, || shadow.redundancy(&tds), |_| "inference.redundancy")
                    .map_err(|e| e.to_string())?;
            }
            (expect, Parsed::Tds { session, tds, name }) => {
                let shadow = &self.shadow;
                let sid = session.as_str();
                match expect {
                    Expect::Open => self
                        .tracer
                        .child(root, || shadow.session_open(sid), |_| "session.open")
                        .map_err(|e| e.to_string())?,
                    Expect::Close => self
                        .tracer
                        .child(root, || shadow.session_close(sid), |_| "session.close")
                        .map_err(|e| e.to_string())?,
                    Expect::Resize { .. } if tds.is_empty() => {
                        self.tracer
                            .child(
                                root,
                                || shadow.session_remove_dep(sid, &name),
                                |_| "session.remove",
                            )
                            .map_err(|e| e.to_string())?;
                    }
                    Expect::Resize { .. } => {
                        self.tracer
                            .child(
                                root,
                                || shadow.session_add_deps(sid, &tds),
                                |_| "session.add",
                            )
                            .map_err(|e| e.to_string())?;
                    }
                    _ => {
                        let goal = tds.first().ok_or("no goal")?;
                        let (verdict, cached) = self
                            .tracer
                            .child(root, || shadow.session_ask(sid, goal), |_| "session.ask")
                            .map_err(|e| e.to_string())?;
                        self.counts.asks += 1;
                        if cached {
                            self.counts.ask_hits += 1;
                        } else {
                            match verdict {
                                SessionVerdict::Implied { chase_steps } => {
                                    self.counts.chase_steps += chase_steps as u64;
                                }
                                SessionVerdict::NotImplied { model_rows } => {
                                    self.counts.chase_rows += model_rows as u64;
                                }
                                SessionVerdict::Unknown { .. } => {}
                            }
                        }
                    }
                }
            }
            _ => return Err("request and payload disagree".to_owned()),
        }
        Ok(())
    }

    /// The per-instance layers: the key prefix always, the solver tiers
    /// only when the key is new (a cache miss).
    fn instance(
        &mut self,
        root: Option<usize>,
        p: &Presentation,
        label: Label,
        class: &[u8],
    ) -> Result<(), String> {
        let c = &mut self.counts;
        if !self.classes.insert(class.to_vec()) {
            c.expected_hits += 1;
        }
        let t = &mut self.tracer;
        let norm = t
            .child(root, || normalize(&p.zero_saturated()), |_| "normalize")
            .map_err(|e| e.to_string())?;
        c.eqs_out += norm.presentation.equations().len() as u64;
        let np = &norm.presentation;
        let sys = t
            .child(root, || build_system(np), |_| "deps.build")
            .map_err(|e| e.to_string())?;
        c.deps_tds += sys.deps.len() as u64;
        let key = t.child(
            root,
            || system_key(&sys.deps, &sys.d0),
            |_| "canon.system_key",
        );
        c.keyed += 1;
        c.distinct.insert(key);
        if !self.keys.insert(key) {
            return Ok(());
        }
        let pre = t
            .child(
                root,
                || prescreen(&sys, &FastBudget::default()),
                |_| "fastpath.prescreen",
            )
            .map_err(|e| e.to_string())?;
        c.fast_calls += 1;
        c.fast_checks += pre.checks;
        if pre.verdict.is_some() {
            c.fast_settled += 1;
            return Ok(());
        }
        let budgets = *self.main.policy().base();
        let strategy = self.main.opts().strategy;
        let cancel = Cancellation::new();
        match label {
            Label::Implied => {
                let d = t.child(
                    root,
                    || search_goal_derivation_tracked(np, &budgets.derivation, &cancel),
                    |_| "derivation",
                );
                c.derivation_states += d.states as u64;
                if let SearchResult::Found(der) = d.result {
                    let proof = t
                        .child(
                            root,
                            || prove_part_a_with(&sys, np, &der, strategy),
                            |_| "part_a",
                        )
                        .map_err(|e| e.to_string())?;
                    c.part_a_firings += proof.proof.len() as u64;
                }
            }
            Label::Refuted => {
                // The model side as the pipeline runs it: the analytic
                // null semigroup first, then the backtracking search.
                let (found, nodes) = t
                    .child(
                        root,
                        || match null_counter_model(np) {
                            Some(m) => Ok((Some(m), 0)),
                            None => {
                                find_counter_model_tracked(np, &budgets.model, &cancel).map(|m| {
                                    match m.result {
                                        ModelSearchResult::Found(g, i) => (Some((g, i)), m.nodes),
                                        _ => (None, m.nodes),
                                    }
                                })
                            }
                        },
                        |_| "model_search",
                    )
                    .map_err(|e| e.to_string())?;
                c.model_nodes += nodes;
                if let Some((g, interp)) = found {
                    let rows = t
                        .child(
                            root,
                            || {
                                let model = build_counter_model(&sys, np, &g, &interp)?;
                                let report = verify_counter_model_with(strategy, &sys, &model);
                                Ok::<_, td_reduction::error::RedError>((model.len(), report.ok()))
                            },
                            |_| "part_b",
                        )
                        .map_err(|e| e.to_string())?;
                    if !rows.1 {
                        return Err("countermodel failed verification".to_owned());
                    }
                    c.part_b_rows += rows.0 as u64;
                }
            }
        }
        Ok(())
    }
}

enum Parsed {
    Insts(Vec<Presentation>),
    Tds {
        session: String,
        tds: Vec<Td>,
        name: String,
    },
}

/// The request-parsing layer: the JSON line, then its instance(s) or TD
/// payload.
fn parse(req: &Req) -> Result<Parsed, String> {
    let j = Json::parse(&req.line).map_err(|e| e.to_string())?;
    let inst = |j: &Json| parse_instance(j, "item").map(|(_, p)| p);
    match &req.expect {
        Expect::Wp { .. } => Ok(Parsed::Insts(vec![inst(&j)?])),
        Expect::Batch { .. } => {
            let items = j.get("items").and_then(Json::as_array).ok_or("items")?;
            Ok(Parsed::Insts(
                items.iter().map(inst).collect::<Result<_, _>>()?,
            ))
        }
        _ => {
            let text = j.get("text").and_then(Json::as_str).unwrap_or("");
            let tds = if text.is_empty() {
                Vec::new()
            } else {
                td_core::parser::parse(text).map_err(|e| e.to_string())?.tds
            };
            let get = |k: &str| j.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
            Ok(Parsed::Tds {
                session: get("session"),
                tds,
                name: get("name"),
            })
        }
    }
}

/// Requests replayed per second of `--seconds`, per workload: sized so
/// one pass takes about a quarter of the run.
fn replay_len(workload: Workload, seconds: f64) -> usize {
    let per_s = match workload {
        Workload::DupWarm => 100.0,
        Workload::ColdWp => 80.0,
        Workload::BatchCold => 6.0,
        Workload::SessionChurn => 800.0,
    };
    (per_s * seconds).ceil().max(20.0) as usize
}

/// One replay pass over the first `n` requests after the warm phase:
/// the replay, the wall time of the measured requests, and the main
/// engine's stats before and after them.
fn pass(
    workload: Workload,
    seed: u64,
    n: usize,
    jobs: usize,
    traced: bool,
) -> (Replay, f64, EngineStats, EngineStats) {
    let mut replay = Replay::new(jobs, traced);
    let mut stream = Stream::new(workload, seed);
    for req in stream.prewarm() {
        replay.process(&req);
    }
    replay.reset();
    let base = replay.main.stats();
    let start = Instant::now();
    for _ in 0..n {
        let req = stream.next_req();
        replay.process(&req);
    }
    let wall = start.elapsed().as_secs_f64();
    let end = replay.main.stats();
    (replay, wall, base, end)
}

/// Span name → (median metric, call-count metric); the p99 metric is the
/// median metric's name plus `_p99`. A call count is a metric only where
/// the program decides it (hit or miss, settled early or not); the others
/// follow from the replayed requests and are printed as sample counts.
const TIMINGS: [(&str, &str, Option<&str>); 18] = [
    ("serve.handle", "serve.handle_us", None),
    ("jsonl.parse", "jsonl.parse_us", None),
    ("normalize", "normalize.us", None),
    ("deps.build", "deps.build_us", None),
    ("canon.system_key", "canon.system_key_us", None),
    (
        "engine.decide_hit",
        "engine.decide_hit_us",
        Some("engine.decide_hit_calls"),
    ),
    (
        "engine.decide_miss",
        "engine.decide_miss_us",
        Some("engine.decide_miss_calls"),
    ),
    (
        "fastpath.prescreen",
        "fastpath.prescreen_us",
        Some("fastpath.calls"),
    ),
    ("derivation", "derivation.us", Some("derivation.calls")),
    (
        "model_search",
        "model_search.us",
        Some("model_search.calls"),
    ),
    ("part_a", "part_a.prove_us", Some("part_a.calls")),
    ("part_b", "part_b.build_verify_us", Some("part_b.calls")),
    ("batch.solve", "batch.solve_us", None),
    ("session.ask", "session.ask_us", None),
    ("session.add", "session.add_us", None),
    ("session.remove", "session.remove_us", None),
    ("inference.redundancy", "inference.redundancy_us", None),
    ("request", "trace.request_self_us", None),
];

/// What the traced run reports.
pub struct TraceOut {
    /// `(name, value, unit)` for every per-layer metric.
    pub metrics: Vec<(String, f64, &'static str)>,
    pub tally: Tally,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Self time per span name, in µs.
fn self_times(spans: &[Span]) -> HashMap<&'static str, Vec<f64>> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(child);
        out.entry(s.name).or_default().push(own as f64 / 1e3);
    }
    out
}

fn write_spans(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            w,
            "{{\"span\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns - s.start_ns
        )?;
    }
    w.flush()
}

/// The traced run: a short end-to-end phase (for the transport share, the
/// p99 latency and the server CPU per question), an
/// untraced replay pass and a traced one over the same requests.
pub fn run(
    tdq: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
    jobs: usize,
    out_dir: &Path,
) -> Result<TraceOut, String> {
    let mut timed = crate::load::run(tdq, workload, seed, seconds * 0.4, jobs, false)?;
    let e2e_p50_us = quantile(&mut timed.latencies_us, 0.5);
    let e2e_p99_ms = quantile(&mut timed.latencies_us, 0.99) / 1e3;
    eprintln!(
        "end-to-end phase: p50 and p99 over {} replies",
        timed.latencies_us.len()
    );
    let n = replay_len(workload, seconds);
    let (plain, plain_wall, _, _) = pass(workload, seed, n, jobs, false);
    let (traced, traced_wall, base, end) = pass(workload, seed, n, jobs, true);

    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push((name.to_owned(), value, unit));
    };
    let mut times = self_times(&traced.tracer.spans);
    let mut handle_p50 = 0.0;
    for (span, med, calls) in TIMINGS {
        let samples = times.entry(span).or_default();
        let m = quantile(samples, 0.5);
        if span == "serve.handle" {
            handle_p50 = m;
        }
        put(med, m, "us");
        put(&format!("{med}_p99"), quantile(samples, 0.99), "us");
        eprintln!("  {med}: median and p99 over {} calls", samples.len());
        if let Some(calls) = calls {
            put(calls, samples.len() as f64, "count");
        }
    }
    let c = &traced.counts;
    put("serve.transport_us", e2e_p50_us - handle_p50, "us");
    put("latency_p99_ms", e2e_p99_ms, "ms");
    put(
        "server_cpu_ms_per_question",
        timed.server_cpu_ms_per_question,
        "ms",
    );
    put("normalize.eqs_out", c.eqs_out as f64, "count");
    put("deps.tds", c.deps_tds as f64, "count");
    put(
        "canon.distinct_key_ratio",
        ratio(c.distinct.len() as u64, c.keyed),
        "ratio",
    );
    put(
        "cache.hit_ratio",
        ratio(
            end.cache_hits - base.cache_hits,
            end.requests - base.requests,
        ),
        "ratio",
    );
    eprintln!(
        "  cache.hit_ratio: the generator repeats {} of {} keyed questions ({:.4})",
        c.expected_hits,
        c.keyed,
        ratio(c.expected_hits, c.keyed)
    );
    put("cache.keys", end.keys_cached as f64, "count");
    put(
        "cache.evictions",
        (end.evictions - base.evictions) as f64,
        "count",
    );
    put(
        "fastpath.settle_ratio",
        ratio(c.fast_settled, c.fast_calls),
        "ratio",
    );
    put("fastpath.checks", c.fast_checks as f64, "count");
    put("derivation.states", c.derivation_states as f64, "count");
    put("model_search.nodes", c.model_nodes as f64, "count");
    put("part_a.firings", c.part_a_firings as f64, "count");
    put("part_b.model_rows", c.part_b_rows as f64, "count");
    put(
        "batch.unique_ratio",
        ratio(c.batch_unique, c.batch_total),
        "ratio",
    );
    put("batch.solved", c.batch_solved as f64, "count");
    put(
        "session.verdict_hit_ratio",
        ratio(c.ask_hits, c.asks),
        "ratio",
    );
    put("chase.steps", c.chase_steps as f64, "count");
    put("chase.rows", c.chase_rows as f64, "count");
    eprintln!("  replay: {n} requests, {} questions", c.questions);
    put(
        "trace.overhead_pct",
        (traced_wall - plain_wall) / plain_wall * 100.0,
        "%",
    );

    let path = out_dir.join(format!("trace-{}-{seed}.jsonl", workload.name()));
    write_spans(&traced.tracer.spans, &path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    let mut tally = Tally::default();
    tally.merge(timed.warm);
    tally.merge(timed.tally);
    tally.merge(plain.tally);
    tally.merge(traced.tally);
    Ok(TraceOut { metrics, tally })
}
