//! **budget-poll**: every loop body in the search/chase hot paths must
//! reach a budget or cancellation poll. The inference problem is
//! undecidable, so *every* potentially long-running loop has to stay
//! interruptible — a loop that neither ticks a [`Ticker`] nor polls a
//! [`Cancellation`] can wedge a serve worker forever.
//!
//! `loop` and `while` bodies are checked unconditionally (they are the
//! potentially unbounded shapes). `for` bodies are checked only when they
//! contain another loop: flat `for` loops over rows/columns are bounded by
//! data already in memory, and flagging them all would drown the signal —
//! the calibration is documented in `docs/ANALYSIS.md`.
//!
//! A body "reaches a poll" if it lexically contains a poll token
//! (`tick`, `poll`, `poll_cancelled`, `is_cancelled`) or a call to a
//! function in the same file that (transitively) does — a small
//! same-file fixpoint, because the chase routes its polls through a
//! `poll_cancelled` helper.
//!
//! Recursion is a loop too. A function that can call itself through
//! same-file calls must take a `Ticker` or `Cancellation` (named in its
//! signature) or reach a poll in its body; otherwise it needs an allow
//! that states what bounds it.
//!
//! [`Ticker`]: https://docs.rs/td-core
//! [`Cancellation`]: https://docs.rs/td-core

use std::collections::HashSet;

use super::Pass;
use crate::lexer::TokKind;
use crate::shape::{functions, loops, Func, LoopKind};
use crate::source::{Diagnostic, SourceFile};

/// See the module docs.
#[derive(Debug)]
pub struct BudgetPoll;

/// Types whose presence in a signature means the function is budgeted.
const BUDGET_TYPES: [&str; 2] = ["Ticker", "Cancellation"];

/// Identifiers that constitute a poll observation.
const POLL_TOKENS: [&str; 4] = ["tick", "poll", "poll_cancelled", "is_cancelled"];

impl Pass for BudgetPoll {
    fn name(&self) -> &'static str {
        "budget-poll"
    }

    fn check(&self, sf: &SourceFile, out: &mut Vec<Diagnostic>) {
        let polling = polling_functions(sf);
        for l in loops(sf) {
            let kw = &sf.tokens[l.kw_idx];
            if sf.in_test_region(kw.line) {
                continue;
            }
            if l.kind == LoopKind::For && !l.nested {
                continue;
            }
            if body_polls(sf, l.body, &polling) {
                continue;
            }
            out.push(Diagnostic {
                pass: "budget-poll".to_string(),
                file: sf.path.clone(),
                line: kw.line,
                col: kw.col,
                msg: format!(
                    "`{}` body never reaches a Ticker/Cancellation poll; add a \
                     `ticker.tick()`/`is_cancelled()` check (or justify with \
                     `// td-lint: allow(budget-poll) <why>`)",
                    l.kind.keyword()
                ),
            });
        }
        let fns = functions(sf);
        for (i, f) in fns.iter().enumerate() {
            let Some(body) = f.body else { continue };
            let kw = &sf.tokens[f.kw_idx];
            if sf.in_test_region(kw.line)
                || !recursive(sf, &fns, i)
                || takes_budget(sf, f, body.0)
                || body_polls(sf, body, &polling)
            {
                continue;
            }
            out.push(Diagnostic {
                pass: "budget-poll".to_string(),
                file: sf.path.clone(),
                line: kw.line,
                col: kw.col,
                msg: format!(
                    "recursive fn `{}` neither takes a Ticker/Cancellation nor reaches a \
                     poll; pass the budget down (or state its bound with \
                     `// td-lint: allow(budget-poll) <why>`)",
                    f.name
                ),
            });
        }
    }
}

/// `true` if the signature of `f` (its tokens before the body brace at
/// `open`) names a budget type.
fn takes_budget(sf: &SourceFile, f: &Func, open: usize) -> bool {
    sf.tokens[f.name_idx..open]
        .iter()
        .any(|t| t.kind == TokKind::Ident && BUDGET_TYPES.contains(&t.text.as_str()))
}

/// The names `body` calls as same-file functions: bare calls `name(…)`,
/// and methods called as `self.name(…)` or `Self::name(…)`. A method
/// called on any other receiver or path is some other type's.
fn callees(sf: &SourceFile, body: (usize, usize)) -> HashSet<&str> {
    let tok = |i: usize, k: usize| i.checked_sub(k).map(|j| &sf.tokens[j]);
    (body.0..body.1)
        .filter(|&i| {
            if sf.tokens[i].kind != TokKind::Ident || !sf.tokens[i + 1].is_punct('(') {
                return false;
            }
            match tok(i, 1) {
                Some(t) if t.is_punct('.') => tok(i, 2).is_some_and(|t| t.is_ident("self")),
                Some(t) if t.is_punct(':') => tok(i, 3).is_some_and(|t| t.is_ident("Self")),
                Some(t) => !t.is_ident("fn"),
                None => true,
            }
        })
        .map(|i| sf.tokens[i].text.as_str())
        .collect()
}

/// `true` if `fns[start]` can reach a call to its own name through the
/// calls of same-file functions (matched by name, so two methods that
/// share a name are one node).
fn recursive(sf: &SourceFile, fns: &[Func], start: usize) -> bool {
    let target = fns[start].name.as_str();
    let mut seen: HashSet<&str> = HashSet::new();
    let mut stack = vec![start];
    while let Some(i) = stack.pop() {
        let Some(body) = fns[i].body else { continue };
        for name in callees(sf, body) {
            if name == target {
                return true;
            }
            if seen.insert(name) {
                stack.extend((0..fns.len()).filter(|&j| fns[j].name == name));
            }
        }
    }
    false
}

/// `true` if the token range `body` contains a poll token or a call to a
/// known polling function.
fn body_polls(sf: &SourceFile, body: (usize, usize), polling: &HashSet<String>) -> bool {
    sf.tokens[body.0..=body.1].iter().any(|t| {
        t.kind == TokKind::Ident
            && (POLL_TOKENS.contains(&t.text.as_str()) || polling.contains(&t.text))
    })
}

/// Same-file fixpoint: the set of function names whose bodies contain a
/// poll token, or a mention of a function already in the set.
fn polling_functions(sf: &SourceFile) -> HashSet<String> {
    let fns = functions(sf);
    let mut polling: HashSet<String> = HashSet::new();
    loop {
        let mut changed = false;
        for f in &fns {
            if polling.contains(&f.name) {
                continue;
            }
            let Some(body) = f.body else { continue };
            if body_polls(sf, body, &polling) {
                polling.insert(f.name.clone());
                changed = true;
            }
        }
        if !changed {
            return polling;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::run_passes;

    fn findings(src: &str) -> Vec<Diagnostic> {
        let sf = SourceFile::parse("t.rs", src);
        let passes: Vec<Box<dyn Pass>> = vec![Box::new(BudgetPoll)];
        run_passes(&sf, &passes)
    }

    #[test]
    fn unpolled_while_is_flagged() {
        let d = findings("fn f() { while work() { step(); } }");
        assert_eq!(d.len(), 1);
        assert!(d[0].msg.contains("while"));
    }

    #[test]
    fn ticked_loop_is_clean() {
        let d =
            findings("fn f(t: &mut Ticker) { loop { if t.tick().is_err() { break; } step(); } }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn flat_for_is_exempt_nested_for_is_not() {
        assert!(findings("fn f() { for x in xs { g(x); } }").is_empty());
        let d = findings("fn f() { for x in xs { for y in ys { g(x, y); } } }");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].msg.contains("for"));
    }

    #[test]
    fn poll_through_same_file_helper_counts() {
        let src = "\
fn check(c: &Cancellation) -> bool { c.is_cancelled() }
fn f(c: &Cancellation) { while busy() { if check(c) { break; } step(); } }
";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn two_level_helper_fixpoint() {
        let src = "\
fn inner(c: &C) -> bool { c.is_cancelled() }
fn outer(c: &C) -> bool { inner(c) }
fn f(c: &C) { loop { if outer(c) { break; } } }
";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn unbudgeted_recursion_is_flagged() {
        let d = findings("fn walk(n: u32) -> u32 { if n == 0 { 0 } else { walk(n - 1) } }");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].msg.contains("recursive fn `walk`"));
        // Mutual recursion through same-file calls counts too.
        let d = findings("fn even(n: u32) -> bool { n == 0 || odd(n - 1) }\nfn odd(n: u32) -> bool { n != 0 && even(n - 1) }");
        assert_eq!(d.len(), 2, "{d:?}");
    }

    #[test]
    fn recursion_taking_or_polling_a_budget_is_clean() {
        let takes = "fn walk(n: u32, t: &mut Ticker) -> bool { n == 0 || walk(n - 1, t) }";
        assert!(findings(takes).is_empty());
        let polls =
            "fn dfs(&mut self) -> bool { if !self.ticker.tick() { return false; } self.dfs() }";
        assert!(findings(polls).is_empty());
        // A call to a different function is not recursion, and neither
        // is a same-named method of another receiver or type.
        assert!(findings("fn f() { g(); } fn g() {}").is_empty());
        assert!(findings("fn len(&self) -> usize { self.items.len() }").is_empty());
        assert!(findings("fn zeros(&self) -> u32 { <u64>::zeros(self.0) }").is_empty());
        let d = findings("fn len(&self) -> usize { Self::len(self) }");
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn allow_suppresses() {
        let src = "\
fn f() {
    // td-lint: allow(budget-poll) bounded by the 8-entry table
    while i < table.len() { i += 1; }
}
";
        assert!(findings(src).is_empty());
    }
}
