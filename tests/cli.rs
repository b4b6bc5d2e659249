//! Integration tests for the `tdq` command-line tool.

use std::io::Write;
use std::process::Command;

fn tdq() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tdq"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("tdq-test-{name}-{}", std::process::id()));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

#[test]
fn help_and_usage() {
    let out = tdq().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));

    let out = tdq().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));

    let out = tdq().args(["bogus", "x"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn wp_implied() {
    let path = write_temp(
        "wp-implied",
        "alphabet A0 A1 0\neq A1 A1 = A0\neq A1 A1 = 0\nzerosat\n",
    );
    let out = tdq().arg("wp").arg(&path).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("IMPLIED"), "{stdout}");
    assert!(stdout.contains("chase proof"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn wp_refuted() {
    // The empty presentation is refuted with a part (B) certificate whose
    // checks all pass.
    let path = write_temp("wp-refuted", "alphabet A0 0\nzerosat\n");
    let out = tdq().arg("wp").arg(&path).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    assert!(stdout.contains("REFUTED"), "{stdout}");
    assert!(
        stdout.contains("checks: D holds true, D0 fails true"),
        "{stdout}"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn deps_analysis() {
    let path = write_temp(
        "deps",
        "schema R(A, B, C)\n\
         td join: (a, b, c) (a, b2, c2) -> (a, b, c2)\n\
         td weak: (a, b, c) (a, b2, c2) -> (*, b, c2)\n\
         row (x, y, z)\n",
    );
    let out = tdq().arg("deps").arg(&path).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("redundancy:"), "{stdout}");
    assert!(stdout.contains("weak: redundant"), "{stdout}");
    assert!(stdout.contains("join: essential"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn normalize_prints_fresh_symbols() {
    let path = write_temp("norm", "alphabet A0 B C D 0\neq B C D = A0\n");
    let out = tdq().arg("normalize").arg(&path).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    assert!(stdout.contains("[BC]"), "{stdout}");
    assert!(stdout.contains("fresh symbols:"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn reduce_prints_dependencies_and_dot() {
    let path = write_temp("reduce", "alphabet A0 0\nzerosat\n");
    let out = tdq().arg("reduce").arg(&path).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    assert!(stdout.contains("D1("), "{stdout}");
    assert!(stdout.contains("D0:"), "{stdout}");
    assert!(stdout.contains("graph \"D0\""), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn timings_flag_prints_phase_breakdown() {
    let path = write_temp("wp-timings", "alphabet A0 0\nzerosat\n");
    let out = tdq().args(["wp", "--timings"]).arg(&path).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("timings: normalize "), "{stdout}");
    assert!(stdout.contains("derivation "), "{stdout}");
    assert!(stdout.contains("model "), "{stdout}");
    // Without the flag, no timings line (golden files depend on this).
    let out = tdq().arg("wp").arg(&path).output().unwrap();
    assert!(!String::from_utf8_lossy(&out.stdout).contains("timings:"));

    let deps = write_temp("deps-timings", "schema R(A, B)\ntd t: (a, b) -> (a, b)\n");
    let out = tdq()
        .args(["deps", "--timings"])
        .arg(&deps)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("timings: parse "), "{stdout}");

    // Commands without a timings phase reject the flag instead of
    // silently ignoring it.
    let out = tdq()
        .args(["normalize", "--timings"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--timings is not supported"));
    std::fs::remove_file(path).ok();
    std::fs::remove_file(deps).ok();
}

#[test]
fn strategy_flag_is_accepted_and_validated() {
    let path = write_temp(
        "wp-strategy",
        "alphabet A0 A1 0\neq A1 A1 = A0\neq A1 A1 = 0\nzerosat\n",
    );
    // Both strategies answer identically (the differential claim, end to
    // end through the CLI).
    let indexed = tdq()
        .args(["wp", "--strategy", "indexed"])
        .arg(&path)
        .output()
        .unwrap();
    let naive = tdq()
        .args(["wp", "--strategy", "naive"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(indexed.status.success());
    assert!(naive.status.success());
    assert_eq!(indexed.stdout, naive.stdout);
    // Bogus values and unsupported subcommands are rejected.
    let out = tdq()
        .args(["wp", "--strategy", "bogus"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--strategy"));
    let out = tdq()
        .args(["normalize", "--strategy", "naive"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(!out.status.success());
    std::fs::remove_file(path).ok();
}

#[test]
fn batch_reports_every_bad_line_with_line_numbers() {
    let path = write_temp(
        "batch-bad",
        concat!(
            "{\"id\":\"ok\",\"alphabet\":[\"A0\",\"0\"],\"eqs\":[]}\n",
            "\n",
            "{\"id\":\"trailing\",\"alphabet\":[\"A0\",\"0\"],\"eqs\":[]} garbage\n",
            "not json at all\n",
        ),
    );
    let out = tdq().arg("batch").arg(&path).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("2 invalid corpus line(s)"), "{stderr}");
    // 1-based line numbers (the blank line counts), byte positions kept.
    assert!(stderr.contains("line 3:"), "{stderr}");
    assert!(stderr.contains("trailing garbage"), "{stderr}");
    assert!(stderr.contains("line 4:"), "{stderr}");
    std::fs::remove_file(path).ok();
}

#[test]
fn format_json_emits_serve_schema_replies() {
    let path = write_temp(
        "wp-json",
        "alphabet A0 A1 0\neq A1 A1 = A0\neq A1 A1 = 0\nzerosat\n",
    );
    let out = tdq()
        .args(["wp", "--format", "json"])
        .arg(&path)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(
        stdout.starts_with("{\"id\":null,\"ok\":true,\"op\":\"wp\",\"verdict\":\"implied\""),
        "{stdout}"
    );
    assert!(
        stdout.contains("\"spend\":{\"derivation_states\":"),
        "{stdout}"
    );
    assert!(
        stdout.contains("\"timings\":{\"normalize_us\":"),
        "{stdout}"
    );

    let deps = write_temp(
        "deps-json",
        "schema R(A, B, C)\n\
         td join: (a, b, c) (a, b2, c2) -> (a, b, c2)\n\
         td weak: (a, b, c) (a, b2, c2) -> (*, b, c2)\n",
    );
    let out = tdq()
        .args(["deps", "--format", "json"])
        .arg(&deps)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("\"op\":\"deps\""), "{stdout}");
    assert!(stdout.contains("\"redundancy\":\"redundant\""), "{stdout}");
    assert!(stdout.contains("\"timings\":{\"parse_us\":"), "{stdout}");
    std::fs::remove_file(path).ok();
    std::fs::remove_file(deps).ok();
}

#[test]
fn format_json_validation_errors_use_the_envelope() {
    // A parse failure still exits nonzero, but stdout carries the
    // machine-readable error envelope (scripts never scrape stderr).
    let path = write_temp("wp-json-bad", "alphabet A0 0\neq A0 = NOPE\n");
    let out = tdq()
        .args(["wp", "--format", "json"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("{\"id\":null,\"ok\":false,\"error\":{\"msg\":"),
        "{stdout}"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn format_flag_is_validated() {
    let path = write_temp("wp-format", "alphabet A0 0\nzerosat\n");
    let out = tdq()
        .args(["wp", "--format", "yaml"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--format"),
        "bad value rejected"
    );
    let out = tdq()
        .args(["normalize", "--format", "json"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--format is not supported"));
    std::fs::remove_file(path).ok();
}

#[test]
fn batch_and_serve_validate_cache_cap() {
    let out = tdq()
        .args(["batch", "--cache-cap", "lots", "whatever.jsonl"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--cache-cap"));
    let out = tdq().args(["serve", "--cache-cap", "8"]).output().unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--stdio or --listen"),
        "serve needs a transport"
    );
    let out = tdq()
        .args(["serve", "--stdio", "--listen", "127.0.0.1:0"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "transports are mutually exclusive");
}

#[test]
fn missing_file_fails_cleanly() {
    let out = tdq()
        .args(["wp", "/nonexistent/really-not-here.txt"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn parse_errors_are_reported() {
    let path = write_temp("bad", "alphabet A0 0\neq A0 = NOPE\n");
    let out = tdq().arg("wp").arg(&path).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 2"));
    std::fs::remove_file(path).ok();
}
