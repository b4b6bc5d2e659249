//! Golden-file tests for the `tdq` command-line tool.
//!
//! Each fixture under `tests/golden/` is run through a `tdq` subcommand and
//! the full stdout is compared byte-for-byte against the checked-in
//! `.golden` file, so any output drift shows up as a reviewable diff.
//!
//! To refresh the expectations after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test cli_golden
//! ```
//!
//! then commit the regenerated `.golden` files. Timings are deliberately
//! excluded from golden runs (`--timings` is off), keeping the output
//! deterministic.

use std::path::PathBuf;
use std::process::Command;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Runs `tdq <cmd> <fixture>` and compares stdout against `<name>.golden`.
fn check_golden(cmd: &str, fixture: &str) {
    check_golden_args(&[cmd], fixture);
}

/// Runs `tdq <args…> <fixture>` (for subcommands that take flags, like
/// `batch --cache-stats`) and compares stdout against `<name>.golden`.
fn check_golden_args(args: &[&str], fixture: &str) {
    let name = fixture
        .strip_suffix(".txt")
        .or_else(|| fixture.strip_suffix(".jsonl"))
        .unwrap_or(fixture);
    check_golden_named(args, fixture, name);
}

/// Runs `tdq <args…> <fixture>` against an explicitly named golden file —
/// used to pin *several* invocations (e.g. `--strategy naive` vs the
/// default) to one golden, which is itself the differential claim that the
/// flag cannot change the output.
fn check_golden_named(args: &[&str], fixture: &str, name: &str) {
    let dir = golden_dir();
    let input = dir.join(fixture);
    let golden = dir.join(format!("{name}.golden"));

    let out = Command::new(env!("CARGO_BIN_EXE_tdq"))
        .args(args)
        .arg(&input)
        .output()
        .expect("tdq runs");
    let cmd = args.join(" ");
    let stdout = String::from_utf8(out.stdout).expect("tdq output is UTF-8");
    assert!(
        out.status.success(),
        "tdq {cmd} {fixture} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden, &stdout).expect("write golden file");
        return;
    }

    let expected = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\n(run `UPDATE_GOLDEN=1 cargo test --test cli_golden` \
             to record it)",
            golden.display()
        )
    });
    assert_eq!(
        stdout,
        expected,
        "tdq {cmd} {fixture} drifted from {}\n\
         (if the change is intentional, refresh with \
         `UPDATE_GOLDEN=1 cargo test --test cli_golden` and review the diff)",
        golden.display()
    );
}

/// Runs `tdq <args…>` with `fixture` piped into stdin (the serve
/// transport) and compares stdout against `<name>.golden`.
fn check_golden_stdin(args: &[&str], fixture: &str, name: &str) {
    use std::io::Write;
    let dir = golden_dir();
    let input = std::fs::read(dir.join(fixture)).expect("read session fixture");
    let golden = dir.join(format!("{name}.golden"));

    let mut child = Command::new(env!("CARGO_BIN_EXE_tdq"))
        .args(args)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("tdq spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(&input)
        .expect("write session");
    let out = child.wait_with_output().expect("tdq runs");
    let cmd = args.join(" ");
    let stdout = String::from_utf8(out.stdout).expect("tdq output is UTF-8");
    assert!(
        out.status.success(),
        "tdq {cmd} < {fixture} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden, &stdout).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\n(run `UPDATE_GOLDEN=1 cargo test --test cli_golden` \
             to record it)",
            golden.display()
        )
    });
    assert_eq!(
        stdout,
        expected,
        "tdq {cmd} < {fixture} drifted from {}\n\
         (if the change is intentional, refresh with \
         `UPDATE_GOLDEN=1 cargo test --test cli_golden` and review the diff)",
        golden.display()
    );
}

#[test]
fn deps_garment_golden() {
    check_golden("deps", "deps_garment.txt");
}

#[test]
fn wp_implied_golden() {
    check_golden("wp", "wp_implied.txt");
}

#[test]
fn wp_refuted_golden() {
    check_golden("wp", "wp_refuted.txt");
}

#[test]
fn normalize_long_golden() {
    check_golden("normalize", "normalize_long.txt");
}

#[test]
fn reduce_tiny_golden() {
    check_golden("reduce", "reduce_tiny.txt");
}

/// The batch pipeline end to end: JSONL verdicts in input order plus the
/// dedup stats line. `--jobs 2` exercises the worker pool; the output is
/// deterministic regardless (verdicts and stats do not depend on
/// scheduling — only wall-clock does).
#[test]
fn batch_small_golden() {
    check_golden_args(
        &["batch", "--jobs", "2", "--cache-stats"],
        "batch_small.jsonl",
    );
}

/// A scripted `serve --stdio` session end to end: wp (cold, then a warm
/// isomorphic hit), batch sharing the same engine cache, deps, the error
/// envelopes for malformed lines, cumulative stats, and shutdown (replies
/// stop exactly there — the post-shutdown request gets none). Sequential
/// stdio processing plus opt-in spend/timings keep the transcript
/// byte-deterministic. The `serve-smoke` CI job pipes the same fixture
/// through a release `tdq` and diffs against the same golden.
#[test]
fn serve_session_golden() {
    check_golden_stdin(
        &["serve", "--stdio"],
        "serve_session.jsonl",
        "serve_session",
    );
}

/// The Σ-session lifecycle end to end over `serve --stdio`: open, an ask
/// under empty Σ (refuted), add_dep flipping the verdict via a resumed
/// chase, a session-cache hit on an isomorphic goal, remove_dep falling
/// back to a from-scratch re-chase, the error envelopes (unknown session
/// id, duplicate dependency name, double close), opt-in session stats,
/// close, and shutdown. Single-session ops are serialized, so the
/// transcript is byte-deterministic; `serve-smoke` CI diffs the same
/// fixture through a release `tdq`.
#[test]
fn session_lifecycle_golden() {
    check_golden_stdin(
        &["serve", "--stdio"],
        "session_lifecycle.jsonl",
        "session_lifecycle",
    );
}

/// A scripted `serve --stdio` session exercising the worker-pool surfaces:
/// a wp solve, the Σ-session chase, the opt-in `"jobs":true` stats field
/// pinning the effective worker-pool width, and shutdown. Pinned at
/// `--jobs 2`; `serve-smoke` CI diffs the same fixture through a release
/// `tdq`.
#[test]
fn serve_parallel_golden() {
    check_golden_stdin(
        &["serve", "--stdio", "--jobs", "2"],
        "serve_parallel.jsonl",
        "serve_parallel",
    );
}

/// `--strategy` must never change an answer: the naive full-scan oracle
/// replays the `wp` and `batch` fixtures against the *same* goldens as the
/// default indexed planner.
#[test]
fn strategy_naive_matches_default_goldens() {
    check_golden_named(
        &["wp", "--strategy", "naive"],
        "wp_implied.txt",
        "wp_implied",
    );
    check_golden_named(
        &["wp", "--strategy", "naive"],
        "wp_refuted.txt",
        "wp_refuted",
    );
    check_golden_named(
        &[
            "batch",
            "--jobs",
            "2",
            "--cache-stats",
            "--strategy",
            "naive",
        ],
        "batch_small.jsonl",
        "batch_small",
    );
}
