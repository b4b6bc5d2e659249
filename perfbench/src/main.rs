//! The repository benchmark: `tdq serve` end to end on four known-answer
//! workloads, plus a traced per-layer run.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --tdq PATH --out-dir DIR
//! ```
//!
//! `--trace 0` starts the release `tdq serve --listen 127.0.0.1:0 --jobs
//! $(nproc)` several times (the median start-up plus warm phase is
//! `setup_s`), then drives the last server closed loop over one loopback
//! connection, a second untimed and then for `--seconds`, checking every
//! reply against its known answer, and prints the end-to-end metrics. `--trace 1` replays the same seeded requests
//! in-process with spans around each layer call and prints the per-layer
//! metrics (see `trace.rs`). Both first run the generator self-test.
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (`{name: {value, unit}}`). A readable report,
//! including every failure, goes to stderr.

mod check;
mod gen;
mod load;
mod selftest;
mod server;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use stats::quantile;
use workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tdq: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut tdq = None;
    let mut out_dir = PathBuf::from(".");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
            }
            "--trace" => trace = value()? == "1",
            "--tdq" => tdq = Some(PathBuf::from(value()?)),
            "--out-dir" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        tdq: tdq.ok_or("--tdq is required")?,
        out_dir,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let jobs = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let w = args.workload;
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} nproc {jobs}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let st = selftest::run(args.seed);
    eprintln!(
        "self-test: {} checks, {} sequential-oracle unknowns, {} disagreements",
        st.checked,
        st.unknown,
        st.disagreements.len()
    );
    for d in &st.disagreements {
        eprintln!("  SELF-TEST FAIL {d}");
    }

    let (metrics, tally) = if args.trace {
        let out = trace::run(&args.tdq, w, args.seed, args.seconds, jobs, &args.out_dir)?;
        (out.metrics, out.tally)
    } else {
        let mut t = load::run(&args.tdq, w, args.seed, args.seconds, jobs, true)?;
        let q = t.tally.questions.max(1) as f64;
        let replies = t.latencies_us.len();
        eprintln!(
            "setup_s: median of {} set-ups; server_peak_rss_mb: after {} questions",
            t.setups, t.rss_questions
        );
        eprintln!(
            "timed phase: {:.2} s, {replies} replies, {} questions, {} settled ({:.4} decided), {} generator repeats",
            t.elapsed_s,
            t.tally.questions,
            t.tally.settled,
            t.tally.settled as f64 / q,
            t.repeats
        );
        // The p99 swings with stalls of the shared machine far beyond any
        // allowed regression bound, so it is reported here and as a
        // per-layer metric of the traced run, not as a bounded metric.
        eprintln!(
            "latency: p50 and p99 {:.4} ms over {replies} replies",
            quantile(&mut t.latencies_us, 0.99) / 1e3
        );
        // Server CPU time per question follows the shared machine's speed,
        // which drifts up to 2x over minutes, with none of the poll-tick
        // waiting that damps the wall-clock metrics; the traced run reports
        // it as an unbounded per-layer metric.
        eprintln!(
            "server_cpu_ms_per_question: {:.4} ms",
            t.server_cpu_ms_per_question
        );
        let metrics = vec![
            ("setup_s".to_owned(), t.setup_s, "s"),
            ("questions_per_s".to_owned(), t.questions_per_s, "1/s"),
            (
                "latency_p50_ms".to_owned(),
                quantile(&mut t.latencies_us, 0.5) / 1e3,
                "ms",
            ),
            (
                "decided_ratio".to_owned(),
                t.tally.settled as f64 / q,
                "ratio",
            ),
            ("server_peak_rss_mb".to_owned(), t.server_peak_rss_mb, "MB"),
        ];
        let mut tally = t.warm;
        tally.merge(t.tally);
        (metrics, tally)
    };

    let attempted = tally.attempted + st.checked;
    let failed = tally.failed + st.disagreements.len() as u64;
    eprintln!(
        "failed_ratio: {failed}/{attempted} = {:.6}",
        failed as f64 / attempted.max(1) as f64
    );
    for f in &tally.failures {
        eprintln!("  FAIL {f}");
    }
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<32} {value:>14.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0 && attempted > 0,
        attempted.max(1),
        body.join(",")
    );
    Ok(())
}
