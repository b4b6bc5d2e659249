//! `tdq` — template-dependency query tool.
//!
//! ```text
//! tdq deps FILE         analyse a dependency file (td-core text format)
//! tdq wp FILE           solve a word-problem instance (td-semigroup format)
//! tdq normalize FILE    normalize a presentation to (2,1)/(1,1) equations
//! tdq reduce FILE       print the Gurevich–Lewis reduction of an instance
//! tdq help              this text
//! ```

use std::path::Path;
use std::process::ExitCode;

use template_deps::prelude::*;
use template_deps::serve;
use template_deps::td_core::render::{diagram_to_ascii, diagram_to_dot};
use template_deps::td_reduction::engine::EngineConfig;
use template_deps::td_reduction::part_b::RowLabel;
use template_deps::td_reduction::snapshot;
use template_deps::td_reduction::verify::structural_report;

const USAGE: &str = "\
tdq — template-dependency query tool

USAGE:
    tdq deps [--timings] [--strategy S] [--format F] FILE
                                    analyse a dependency file (schema/td/eid/row lines)
    tdq wp [--timings] [--strategy S] [--format F] FILE
                                    solve a word-problem instance (alphabet/eq lines)
    tdq batch [--jobs N] [--cache-stats] [--strategy S]
              [--cache-cap N] [--cache-load PATH] [--cache-save PATH] FILE
                                    decide a JSONL corpus of word-problem instances,
                                    deduplicated by canonical key (one JSON line out
                                    per line in, input order preserved)
    tdq serve --stdio [OPTS]        long-lived NDJSON session on stdin/stdout
    tdq serve --listen ADDR [OPTS]  concurrent NDJSON sessions over TCP; all
                                    clients share one engine (warm decision
                                    cache, cumulative stats). Both modes also
                                    speak the incremental Σ-session ops
                                    (session_open/_add_dep/_remove_dep/_ask/
                                    _close) and the cache persistence ops
                                    (cache_save/cache_load). See docs/PROTOCOL.md
    tdq normalize FILE              normalize a presentation to (2,1)/(1,1) equations
    tdq reduce FILE                 print the reduction (attributes, D, D0) of an instance
    tdq help                        print this text

OPTIONS:
    --timings       print per-phase wall-clock timings after the result
                    (parse/analysis for `deps`; normalize/reduce/derivation/
                    model/certificate plus spent-budget accounting for `wp`)
    --strategy S    homomorphism matcher: `indexed` (default; dense-index
                    join planner) or `naive` (full-scan differential
                    oracle). Verdicts never depend on this — it exists for
                    debugging and differential runs
    --format F      `human` (default) or `json`: one reply object on stdout
                    using the same schema as `tdq serve` (verdict, spend,
                    timings); validation errors also emit the JSON error
                    envelope. For `wp` and `deps` only
    --jobs N        worker threads for the batch solver pool and the serve
                    connection pool (default: available parallelism)
    --cache-stats   append a JSON stats line ({\"total\",\"unique\",\"cache_hits\",
                    \"solved\",\"jobs\"}) after the batch verdicts
    --cache-cap N   decision-cache capacity per shard for batch/serve
                    (default 65536; 16 shards)
    --max-sessions N
                    bound on concurrently open Σ-sessions for serve
                    (default 64; oldest-opened is evicted at the cap)
    --cache-load PATH
                    warm-start batch/serve from a decision-cache snapshot;
                    a snapshot from a different canon-scheme version loads
                    zero keys (cold start + warning), a corrupt one is a
                    hard error
    --cache-save PATH
                    write the decision cache to PATH as a versioned
                    snapshot (atomic tmp-file + rename). batch: after the
                    corpus; serve: on clean shutdown (EOF or shutdown op)
    --cache-flush-every SECS
                    serve only, requires --cache-save: additionally flush
                    the snapshot every SECS seconds in the background

BATCH INPUT (one JSON object per line):
    {\"id\": \"q1\", \"alphabet\": [\"A0\", \"A1\", \"0\"],
     \"eqs\": [\"A1 A1 = A0\", \"A1 A1 = 0\"]}
    Optional keys: \"a0\" and \"zero\" designate the distinguished symbols
    (defaults \"A0\" and \"0\"); \"id\" defaults to the line number.
";

/// Parses a `--strategy` value.
fn parse_strategy(v: &str) -> Result<MatchStrategy, String> {
    match v {
        "naive" => Ok(MatchStrategy::Naive),
        "indexed" => Ok(MatchStrategy::Indexed),
        other => Err(format!(
            "--strategy: expected `naive` or `indexed`, got `{other}`"
        )),
    }
}

/// Output format of `tdq wp|deps`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Format {
    /// The human-readable report (the golden-pinned default).
    #[default]
    Human,
    /// One serve-schema JSON reply object on stdout.
    Json,
}

/// Parses a `--format` value.
fn parse_format(v: &str) -> Result<Format, String> {
    match v {
        "human" => Ok(Format::Human),
        "json" => Ok(Format::Json),
        other => Err(format!(
            "--format: expected `human` or `json`, got `{other}`"
        )),
    }
}

/// One engine per `tdq` invocation: every solving subcommand routes
/// through it, so the one-shot CLI and the persistent `serve` mode are
/// the same code path.
fn build_engine(strategy: MatchStrategy, jobs: Option<usize>, cache_cap: Option<usize>) -> Engine {
    build_engine_with(strategy, jobs, cache_cap, None)
}

/// `build_engine` plus the serve-only session-registry bound.
fn build_engine_with(
    strategy: MatchStrategy,
    jobs: Option<usize>,
    cache_cap: Option<usize>,
    max_sessions: Option<usize>,
) -> Engine {
    let mut config = EngineConfig {
        opts: SolveOptions {
            strategy,
            ..SolveOptions::default()
        },
        ..EngineConfig::default()
    };
    if let Some(jobs) = jobs {
        config.jobs = jobs;
    }
    if let Some(cap) = cache_cap {
        config.cache_cap = cap;
    }
    if let Some(max) = max_sessions {
        config.max_sessions = max;
    }
    Engine::with_config(config)
}

/// Loads a decision-cache snapshot into the engine, reporting the import
/// on stderr (the machine stream on stdout stays reply-only). A
/// structurally invalid snapshot is a hard error; a canon-scheme mismatch
/// degrades to a cold start with a warning.
fn cache_load(engine: &Engine, path: &str) -> Result<(), String> {
    let bytes = snapshot::read_bounded(Path::new(path), engine.cache().capacity())
        .map_err(|e| format!("--cache-load: cannot read {path}: {e}"))?;
    let stats = engine
        .load_snapshot(&bytes)
        .map_err(|e| format!("--cache-load {path}: {e}"))?;
    if stats.keys_skipped_version > 0 {
        eprintln!(
            "tdq: --cache-load {path}: skipped {} key(s) written under a different \
             canon-scheme version; starting cold",
            stats.keys_skipped_version
        );
    } else {
        eprintln!(
            "tdq: --cache-load {path}: {} cached verdict(s) loaded",
            stats.keys_loaded
        );
    }
    Ok(())
}

/// Writes the engine's decision cache to `path` as an atomic snapshot
/// (tmp file + rename — a concurrent reader never sees a torn image).
fn cache_save(engine: &Engine, path: &str) -> Result<(), String> {
    let image = engine.save_snapshot();
    snapshot::write_atomic(Path::new(path), &image)
        .map_err(|e| format!("--cache-save: cannot write {path}: {e}"))?;
    eprintln!(
        "tdq: --cache-save {path}: {} cached verdict(s), {} bytes",
        engine.cache().len(),
        image.len()
    );
    Ok(())
}

/// Removes a `--flag VALUE` pair from `args`, returning the value.
fn take_value_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(ix) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if ix + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let value = args.remove(ix + 1);
    args.remove(ix);
    Ok(Some(value))
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("batch") => {
            return match cmd_batch(&args[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("tdq: {msg}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("serve") => {
            return match cmd_serve(&args[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("tdq: {msg}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => {}
    }
    let timings = {
        let before = args.len();
        args.retain(|a| a != "--timings");
        args.len() != before
    };
    let strategy = match take_value_flag(&mut args, "--strategy")
        .and_then(|v| v.as_deref().map(parse_strategy).transpose())
    {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("tdq: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let format = match take_value_flag(&mut args, "--format")
        .and_then(|v| v.as_deref().map(parse_format).transpose())
    {
        Ok(f) => f,
        Err(msg) => {
            eprintln!("tdq: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (cmd, path) = match args.as_slice() {
        [cmd, path] => (cmd.as_str(), path.as_str()),
        [cmd] if cmd == "help" || cmd == "--help" || cmd == "-h" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if timings && !matches!(cmd, "deps" | "wp") {
        eprintln!("tdq: --timings is not supported for `{cmd}`\n{USAGE}");
        return ExitCode::from(2);
    }
    if strategy.is_some() && !matches!(cmd, "deps" | "wp") {
        eprintln!("tdq: --strategy is not supported for `{cmd}`\n{USAGE}");
        return ExitCode::from(2);
    }
    if format.is_some() && !matches!(cmd, "deps" | "wp") {
        eprintln!("tdq: --format is not supported for `{cmd}`\n{USAGE}");
        return ExitCode::from(2);
    }
    let strategy = strategy.unwrap_or_default();
    let format = format.unwrap_or_default();
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tdq: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd {
        "deps" => cmd_deps(&text, timings, strategy, format),
        "wp" => cmd_wp(&text, timings, strategy, format),
        "normalize" => cmd_normalize(&text),
        "reduce" => cmd_reduce(&text),
        other => {
            eprintln!("tdq: unknown command `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("tdq: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Prints a serve-schema JSON error envelope on stdout (the machine
/// stream) before the human diagnostic goes to stderr via the returned
/// `Err`.
fn json_error(msg: &str) -> String {
    println!(
        "{}",
        serve::error_reply(&template_deps::jsonl::Json::Null, msg, None)
    );
    msg.to_owned()
}

fn cmd_deps(
    text: &str,
    timings: bool,
    strategy: MatchStrategy,
    format: Format,
) -> Result<(), String> {
    let engine = build_engine(strategy, None, None);
    if format == Format::Json {
        use template_deps::jsonl::Json;
        let t_parse = std::time::Instant::now();
        let file = td_core::parser::parse(text).map_err(|e| json_error(&e.to_string()))?;
        let t_parse = t_parse.elapsed();
        let t_analysis = std::time::Instant::now();
        let mut reply =
            serve::deps_file_reply(&engine, &Json::Null, &file).map_err(|e| json_error(&e))?;
        let us = |d: std::time::Duration| Json::Num(d.as_micros() as f64);
        if let Json::Obj(fields) = &mut reply {
            fields.push((
                "timings".to_owned(),
                Json::Obj(vec![
                    ("parse_us".to_owned(), us(t_parse)),
                    ("analysis_us".to_owned(), us(t_analysis.elapsed())),
                ]),
            ));
        }
        println!("{}", reply.render());
        return Ok(());
    }
    let t_parse = std::time::Instant::now();
    let file = td_core::parser::parse(text).map_err(|e| e.to_string())?;
    let t_parse = t_parse.elapsed();
    let t_analysis = std::time::Instant::now();
    println!("schema: {}", file.schema);
    for td in &file.tds {
        println!("\n{td}");
        println!(
            "  {} | {} antecedents | trivial: {} | weakly-acyclic alone: {}",
            if td.is_full() { "full" } else { "embedded" },
            td.antecedent_count(),
            td.is_trivial(),
            td_core::chase::weakly_acyclic(std::slice::from_ref(td)),
        );
        println!("{}", diagram_to_ascii(&Diagram::from_td(td)));
        if !file.instance.is_empty() {
            println!(
                "  holds in instance: {}",
                td_core::satisfaction::satisfies_with(strategy, &file.instance, td)
            );
        }
    }
    if file.tds.len() > 1 {
        println!("redundancy:");
        let verdicts = engine.redundancy(&file.tds).map_err(|e| e.to_string())?;
        for (td, v) in file.tds.iter().zip(&verdicts) {
            println!(
                "  {}: {}",
                td.name(),
                match v {
                    InferenceVerdict::Implied(_) => "redundant",
                    InferenceVerdict::NotImplied(_) => "essential",
                    InferenceVerdict::Unknown(_) => "unknown",
                }
            );
        }
    }
    for eid in &file.eids {
        println!(
            "\neid {}: {} antecedents, {} conclusion atoms{}",
            eid.name(),
            eid.antecedents().len(),
            eid.conclusions().len(),
            if file.instance.is_empty() {
                String::new()
            } else {
                format!(
                    ", holds in instance: {}",
                    td_core::eid::eid_satisfies(&file.instance, eid)
                )
            }
        );
    }
    if timings {
        println!(
            "\ntimings: parse {t_parse:.2?}, analysis {:.2?}",
            t_analysis.elapsed()
        );
    }
    Ok(())
}

fn cmd_wp(
    text: &str,
    timings: bool,
    strategy: MatchStrategy,
    format: Format,
) -> Result<(), String> {
    let engine = build_engine(strategy, None, None);
    if format == Format::Json {
        use template_deps::jsonl::Json;
        let p = td_semigroup::parser::parse(text).map_err(|e| json_error(&e.to_string()))?;
        let decision = engine.decide(&p).map_err(|e| json_error(&e.to_string()))?;
        println!("{}", serve::wp_reply(&Json::Null, &decision, true, true));
        return Ok(());
    }
    let p = td_semigroup::parser::parse(text).map_err(|e| e.to_string())?;
    print!("{p}");
    let run = engine.run_full(&p).map_err(|e| e.to_string())?;
    let report = structural_report(&run.system);
    println!(
        "reduction: {} attributes, {} dependencies (max {} antecedents)",
        report.n_attributes, report.n_deps, report.max_antecedents
    );
    match &run.outcome {
        PipelineOutcome::Implied { derivation, proof } => {
            println!("verdict: IMPLIED — A0 = 0 is derivable, hence D ⊨ D0");
            let words = derivation
                .replay(&run.normalized.presentation)
                .map_err(|e| e.to_string())?;
            let alphabet = run.normalized.presentation.alphabet();
            println!(
                "derivation ({} steps): {}",
                derivation.len(),
                words
                    .iter()
                    .map(|w| w.render(alphabet))
                    .collect::<Vec<_>>()
                    .join(" => ")
            );
            println!("chase proof: {} firings (verified)", proof.proof.len());
        }
        PipelineOutcome::Refuted { model, report } => {
            println!(
                "verdict: REFUTED — finite countermodel with {} rows (finite D ⊭ D0)",
                model.len()
            );
            let alphabet = run.system.attrs.alphabet();
            for (i, l) in model.labels.iter().enumerate() {
                match l {
                    RowLabel::P(e) => println!("  row {i}: P {e}"),
                    RowLabel::Q(a, s, b) => {
                        println!("  row {i}: Q <{a},{},{b}>", alphabet.name(*s))
                    }
                }
            }
            println!(
                "checks: D holds {}, D0 fails {}, Facts 1/2: {}/{}",
                report.violated_deps.is_empty(),
                report.d0_fails,
                report.fact1,
                report.fact2
            );
        }
        PipelineOutcome::Unknown {
            derivation_states,
            model_nodes,
        } => {
            println!(
                "verdict: UNKNOWN (searched {derivation_states} words, {model_nodes} model nodes) \
                 — enlarge the budgets; undecidability guarantees this case cannot be eliminated"
            );
        }
    }
    if timings {
        let t = &run.timings;
        println!(
            "timings: normalize {:.2?}, reduce {:.2?}, derivation {:.2?}, model {:.2?}, \
             certificate {:.2?}, total {:.2?} (derivation and model race on threads)",
            t.normalize, t.reduce, t.derivation, t.model, t.certificate, t.total
        );
        let label = |truncated: bool| if truncated { "truncated" } else { "exact" };
        let s = &run.spend;
        println!(
            "spend: derivation {} words ({}), model {} nodes ({})",
            s.derivation_states,
            label(s.derivation_truncated),
            s.model_nodes,
            label(s.model_truncated)
        );
    }
    Ok(())
}

/// Parses one JSONL corpus line into an id and a presentation (the shared
/// serve-protocol instance format; the id defaults to the line number).
fn parse_batch_line(line: &str, line_no: usize) -> Result<(String, Presentation), String> {
    use template_deps::jsonl::Json;
    let j = Json::parse(line).map_err(|e| e.to_string())?;
    serve::parse_instance(&j, &format!("line{line_no}"))
}

fn cmd_batch(args: &[String]) -> Result<(), String> {
    let mut jobs: Option<usize> = None;
    let mut cache_cap: Option<usize> = None;
    let mut cache_stats = false;
    let mut strategy = MatchStrategy::default();
    let mut load_path: Option<String> = None;
    let mut save_path: Option<String> = None;
    let mut path: Option<&str> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a number")?;
                jobs = Some(
                    v.parse()
                        .map_err(|_| format!("--jobs: invalid worker count `{v}`"))?,
                );
            }
            "--cache-cap" => {
                let v = it.next().ok_or("--cache-cap needs a number")?;
                cache_cap = Some(
                    v.parse()
                        .map_err(|_| format!("--cache-cap: invalid capacity `{v}`"))?,
                );
            }
            "--strategy" => {
                let v = it.next().ok_or("--strategy needs a value")?;
                strategy = parse_strategy(v)?;
            }
            "--cache-load" => {
                let v = it.next().ok_or("--cache-load needs a snapshot path")?;
                load_path = Some(v.clone());
            }
            "--cache-save" => {
                let v = it.next().ok_or("--cache-save needs a snapshot path")?;
                save_path = Some(v.clone());
            }
            "--cache-stats" => cache_stats = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown batch option `{other}`\n{USAGE}"));
            }
            other => {
                if path.is_some() {
                    return Err(format!("batch takes exactly one input file\n{USAGE}"));
                }
                path = Some(other);
            }
        }
    }
    let path = path.ok_or_else(|| format!("batch needs an input file\n{USAGE}"))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;

    // Parse every line before solving anything, carrying 1-based line
    // numbers into the diagnostics; all invalid lines are reported in one
    // pass rather than one-per-rerun.
    let mut ids = Vec::new();
    let mut items = Vec::new();
    let mut bad_lines: Vec<String> = Vec::new();
    for (ix, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let line_no = ix + 1;
        match parse_batch_line(line, line_no) {
            Ok((id, p)) => {
                ids.push(id);
                items.push(p);
            }
            Err(e) => bad_lines.push(format!("line {line_no}: {e}")),
        }
    }
    if !bad_lines.is_empty() {
        return Err(format!(
            "{} invalid corpus line(s):\n  {}",
            bad_lines.len(),
            bad_lines.join("\n  ")
        ));
    }

    let engine = build_engine(strategy, jobs, cache_cap);
    if let Some(p) = &load_path {
        cache_load(&engine, p)?;
    }
    let run = engine.solve_batch(&items).map_err(|e| e.to_string())?;
    if let Some(p) = &save_path {
        cache_save(&engine, p)?;
    }
    for (id, verdict) in ids.iter().zip(&run.verdicts) {
        println!("{}", serve::batch_line(id, verdict));
    }
    if cache_stats {
        // The 5-field shape of this line is pinned by the batch golden
        // (`jobs` is the effective solver-pool width, so operators can
        // confirm what a run actually fanned out to); the full accounting
        // (evictions, spend) lives on the serve/json surfaces.
        let s = run.stats;
        println!(
            "{{\"total\":{},\"unique\":{},\"cache_hits\":{},\"solved\":{},\"jobs\":{}}}",
            s.total,
            s.unique,
            s.cache_hits,
            s.solved,
            engine.jobs()
        );
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut jobs: Option<usize> = None;
    let mut cache_cap: Option<usize> = None;
    let mut max_sessions: Option<usize> = None;
    let mut strategy = MatchStrategy::default();
    let mut stdio = false;
    let mut listen: Option<String> = None;
    let mut load_path: Option<String> = None;
    let mut save_path: Option<String> = None;
    let mut flush_every: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stdio" => stdio = true,
            "--cache-load" => {
                let v = it.next().ok_or("--cache-load needs a snapshot path")?;
                load_path = Some(v.clone());
            }
            "--cache-save" => {
                let v = it.next().ok_or("--cache-save needs a snapshot path")?;
                save_path = Some(v.clone());
            }
            "--cache-flush-every" => {
                let v = it.next().ok_or("--cache-flush-every needs seconds")?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("--cache-flush-every: invalid seconds `{v}`"))?;
                if n == 0 {
                    return Err("--cache-flush-every: must be at least 1 second".to_owned());
                }
                flush_every = Some(n);
            }
            "--listen" => {
                let v = it.next().ok_or("--listen needs an address (host:port)")?;
                listen = Some(v.clone());
            }
            "--max-sessions" => {
                let v = it.next().ok_or("--max-sessions needs a number")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--max-sessions: invalid session count `{v}`"))?;
                if n == 0 {
                    return Err("--max-sessions: must be at least 1".to_owned());
                }
                max_sessions = Some(n);
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a number")?;
                jobs = Some(
                    v.parse()
                        .map_err(|_| format!("--jobs: invalid worker count `{v}`"))?,
                );
            }
            "--cache-cap" => {
                let v = it.next().ok_or("--cache-cap needs a number")?;
                cache_cap = Some(
                    v.parse()
                        .map_err(|_| format!("--cache-cap: invalid capacity `{v}`"))?,
                );
            }
            "--strategy" => {
                let v = it.next().ok_or("--strategy needs a value")?;
                strategy = parse_strategy(v)?;
            }
            other => {
                return Err(format!("unknown serve option `{other}`\n{USAGE}"));
            }
        }
    }
    if stdio == listen.is_some() {
        return Err(format!(
            "serve needs exactly one of --stdio or --listen ADDR\n{USAGE}"
        ));
    }
    if flush_every.is_some() && save_path.is_none() {
        return Err("--cache-flush-every needs --cache-save PATH".to_owned());
    }
    let engine = build_engine_with(strategy, jobs, cache_cap, max_sessions);
    if let Some(p) = &load_path {
        cache_load(&engine, p)?;
    }

    // The periodic flusher and the serve loop share one scope, so the
    // flusher is always joined before the final save below — no torn or
    // out-of-order snapshot writes on the way out.
    let done = std::sync::atomic::AtomicBool::new(false);
    let served = std::thread::scope(|s| {
        if let (Some(path), Some(secs)) = (save_path.clone(), flush_every) {
            let engine = &engine;
            let done = &done;
            s.spawn(move || {
                let tick = std::time::Duration::from_millis(100);
                let mut since_flush = std::time::Duration::ZERO;
                // Poll-wait so shutdown is observed within a tick rather
                // than a full flush period.
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    std::thread::sleep(tick);
                    since_flush += tick;
                    if since_flush.as_secs() >= secs {
                        since_flush = std::time::Duration::ZERO;
                        if let Err(e) = cache_save(engine, &path) {
                            eprintln!("tdq: periodic cache flush failed: {e}");
                        }
                    }
                }
            });
        }
        // Run the transport in a closure so *every* exit path — error or
        // clean — flips `done` and joins the flusher.
        let result = (|| {
            if stdio {
                let stdin = std::io::stdin();
                let stdout = std::io::stdout();
                serve::serve_stdio(&engine, stdin.lock(), stdout.lock())
                    .map_err(|e| format!("serve --stdio: {e}"))
            } else {
                let addr = listen.as_deref().expect("checked above");
                let listener = std::net::TcpListener::bind(addr)
                    .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
                let local = listener
                    .local_addr()
                    .map_err(|e| format!("cannot resolve listen address: {e}"))?;
                // The ready line: machine-readable, so tests and scripts
                // can bind port 0 and discover the actual endpoint.
                println!("{{\"serving\":\"{local}\"}}");
                use std::io::Write;
                std::io::stdout()
                    .flush()
                    .map_err(|e| format!("cannot flush ready line: {e}"))?;
                serve::serve_listen(&engine, listener).map_err(|e| format!("serve --listen: {e}"))
            }
        })();
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        result
    });
    served?;
    // Save on the clean-shutdown path only: both transports return `Ok`
    // after the cancellation drain (EOF or a `shutdown` op), so the
    // snapshot reflects a quiesced cache.
    if let Some(p) = &save_path {
        cache_save(&engine, p)?;
    }
    Ok(())
}

fn cmd_normalize(text: &str) -> Result<(), String> {
    let p = td_semigroup::parser::parse(text).map_err(|e| e.to_string())?;
    let n = normalize(&p.zero_saturated()).map_err(|e| e.to_string())?;
    print!("{}", n.presentation);
    if !n.definitions.is_empty() {
        println!("fresh symbols:");
        let alphabet = n.presentation.alphabet();
        for &(s, a, b) in &n.definitions {
            println!(
                "  {} := {} · {}",
                alphabet.name(s),
                alphabet.name(a),
                alphabet.name(b)
            );
        }
    }
    Ok(())
}

fn cmd_reduce(text: &str) -> Result<(), String> {
    let p = td_semigroup::parser::parse(text).map_err(|e| e.to_string())?;
    let n = normalize(&p.zero_saturated()).map_err(|e| e.to_string())?;
    let system = build_system(&n.presentation).map_err(|e| e.to_string())?;
    println!("schema: {}", system.attrs.schema());
    for td in &system.deps {
        println!("{td}");
    }
    println!("{}", system.d0);
    println!(
        "\n# DOT for D0 (pipe into `dot -Tsvg`):\n{}",
        diagram_to_dot(&Diagram::from_td(&system.d0), "D0")
    );
    Ok(())
}
