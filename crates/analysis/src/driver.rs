//! The workspace driver: which files are scanned, which passes apply to
//! which files, and the fixture self-test.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::passes::{all_passes, run_passes, Pass};
use crate::source::{Diagnostic, SourceFile};

/// Source roots scanned relative to the workspace root. The shims are
/// vendored stand-ins for external crates and are out of policy scope;
/// `tests/`, `examples/`, and bench `bin/` fixtures are exercised code,
/// not request paths, and test-style unwraps are idiomatic there.
const SCAN_ROOTS: [&str; 7] = [
    "src",
    "crates/core/src",
    "crates/semigroup/src",
    "crates/reduction/src",
    "crates/bench/src",
    "crates/analysis/src",
    "crates/bench/src/bin",
];

/// Decides whether `pass` runs on the workspace-relative path `rel`.
///
/// * `panic-path` is scoped to the request-path files named in the
///   policy: the serve loop, the wire format, the engine, and the solve
///   and batch paths every `decide` and `batch` request runs through.
/// * `budget-poll` is scoped to the search/chase hot paths.
/// * `lock-discipline` and `doc-error-hygiene` run everywhere.
pub fn pass_applies(pass: &str, rel: &str) -> bool {
    match pass {
        "panic-path" => matches!(
            rel,
            "src/serve.rs"
                | "src/jsonl.rs"
                | "crates/reduction/src/engine.rs"
                | "crates/reduction/src/pipeline.rs"
                | "crates/reduction/src/batch.rs"
        ),
        "budget-poll" => {
            rel == "crates/semigroup/src/derivation.rs"
                || rel == "crates/semigroup/src/model_search.rs"
                || rel.starts_with("crates/core/src/chase")
        }
        _ => true,
    }
}

/// Lints the file contents `text` (at workspace-relative path `rel`) with
/// every pass that applies to it, returning the surviving diagnostics.
pub fn lint_file(rel: &str, text: &str) -> Vec<Diagnostic> {
    let sf = SourceFile::parse(rel, text);
    let passes: Vec<Box<dyn Pass>> = all_passes()
        .into_iter()
        .filter(|p| pass_applies(p.name(), rel))
        .collect();
    run_passes(&sf, &passes)
}

/// Lints the whole workspace rooted at `root`, returning diagnostics
/// sorted by path and position.
///
/// # Errors
///
/// Propagates I/O errors from walking the source roots or reading a
/// source file (an unreadable tree must fail the lint run loudly, not
/// pass it quietly).
pub fn run_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for sub in SCAN_ROOTS {
        let dir = root.join(sub);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    files.dedup();
    let mut out = Vec::new();
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(&f)?;
        out.extend(lint_file(&rel, &text));
    }
    out.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    Ok(out)
}

/// Recursively collects `.rs` files under `dir`, skipping fixture trees.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "fixtures" || name == "target" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// One fixture expectation failure.
#[derive(Debug)]
pub struct FixtureFailure {
    /// The fixture file.
    pub file: String,
    /// What went wrong.
    pub msg: String,
}

/// Self-tests the passes against the checked-in fixture suite at
/// `fixtures_dir`: every `ok/*.rs` must lint clean under **all** passes,
/// and every `bad/<pass>__<case>.rs` must produce at least one finding
/// from exactly the pass its name claims.
///
/// # Errors
///
/// Propagates I/O errors from reading the fixture tree.
pub fn run_fixtures(fixtures_dir: &Path) -> io::Result<Vec<FixtureFailure>> {
    let mut failures = Vec::new();
    let all = all_passes();
    for entry in fs::read_dir(fixtures_dir.join("ok"))? {
        let path = entry?.path();
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let text = fs::read_to_string(&path)?;
        let sf = SourceFile::parse(&path.to_string_lossy(), &text);
        let diags = run_passes(&sf, &all);
        if !diags.is_empty() {
            failures.push(FixtureFailure {
                file: path.to_string_lossy().into_owned(),
                msg: format!(
                    "expected clean, got {} finding(s): {}",
                    diags.len(),
                    diags[0]
                ),
            });
        }
    }
    for entry in fs::read_dir(fixtures_dir.join("bad"))? {
        let path = entry?.path();
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let Some((want_pass, _)) = stem.split_once("__") else {
            failures.push(FixtureFailure {
                file: path.to_string_lossy().into_owned(),
                msg: "bad fixture name: expected `<pass>__<case>.rs`".to_string(),
            });
            continue;
        };
        let text = fs::read_to_string(&path)?;
        let sf = SourceFile::parse(&path.to_string_lossy(), &text);
        let diags = run_passes(&sf, &all);
        if !diags.iter().any(|d| d.pass == want_pass) {
            failures.push(FixtureFailure {
                file: path.to_string_lossy().into_owned(),
                msg: format!(
                    "expected a `{want_pass}` finding, got {:?}",
                    diags.iter().map(|d| &d.pass).collect::<Vec<_>>()
                ),
            });
        }
    }
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoping_table() {
        assert!(pass_applies("panic-path", "src/serve.rs"));
        assert!(pass_applies(
            "panic-path",
            "crates/reduction/src/pipeline.rs"
        ));
        assert!(pass_applies("panic-path", "crates/reduction/src/batch.rs"));
        assert!(!pass_applies("panic-path", "crates/reduction/src/cache.rs"));
        assert!(pass_applies(
            "budget-poll",
            "crates/core/src/chase/engine.rs"
        ));
        assert!(!pass_applies("budget-poll", "src/serve.rs"));
        assert!(pass_applies(
            "lock-discipline",
            "crates/reduction/src/cache.rs"
        ));
        assert!(pass_applies("doc-error-hygiene", "crates/core/src/td.rs"));
    }

    #[test]
    fn lint_file_respects_scope() {
        // An unwrap outside the panic-path scope is not a finding…
        let d = lint_file("crates/core/src/td.rs", "fn f() { x.unwrap(); }");
        assert!(d.is_empty(), "{d:?}");
        // …but inside it, it is.
        let d = lint_file("src/serve.rs", "fn f() { x.unwrap(); }");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].pass, "panic-path");
    }
}
