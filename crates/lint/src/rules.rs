//! The rule engine: file scoping, test-span masking, and the one rule no
//! clippy or rustc lint covers.
//!
//! * **validate-before-alloc** — a corruption proptest once caught an
//!   unvalidated `n·n` snapshot length aborting on allocation. The rule
//!   flags `Vec::with_capacity` / `reserve` / `vec![…; n]` in `src/` code
//!   whose size comes from a `Dec` read (`get_usize` / `get_u64` /
//!   `get_u32`) with no upper-bound check between the read and the
//!   allocation; `get_len` validates against the remaining input and is
//!   exempt.
//!
//! The analysis is deliberately lightweight — token patterns within one
//! function body, not full type inference. It has no suppression syntax:
//! the fix for a finding is a range check or a `get_len` read.

use crate::lexer::{lex, Comment, Tok};

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (stable, kebab-case).
    pub rule: &'static str,
    /// Path the finding was reported against (workspace-relative).
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable diagnosis with a suggested fix.
    pub message: String,
}

/// Whether a workspace-relative path (forward slashes) is library/binary
/// source: under `src/` of `crates/<name>/`, `crates/shims/<name>/`, or the
/// root package. Tests, examples and fixtures are out of the rule's scope.
pub fn is_src(rel: &str) -> bool {
    let parts: Vec<&str> = rel.split('/').collect();
    matches!(
        parts.as_slice(),
        ["crates", "shims", _, "src", ..] | ["crates", _, "src", ..] | ["src", ..]
    )
}

/// Fixture directive: a first-line `// lint-fixture-as: <path>` makes the
/// engine scope the file as if it lived at `<path>`. This is how the
/// known-bad fixtures under `crates/lint/fixtures/` reach the `src/`-only
/// rule without living inside a crate.
pub const FIXTURE_AS: &str = "lint-fixture-as:";

/// Lints one source file. `path` is the reporting path (shown in
/// findings); scoping uses the fixture directive when present.
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    let lexed = lex(src);
    let effective = fixture_path(&lexed.comments).unwrap_or_else(|| path.to_string());
    let mut findings = Vec::new();
    if is_src(&effective) {
        let mask = test_mask(&lexed.toks);
        validate_before_alloc(path, &lexed.toks, &mask, &mut findings);
    }
    findings.sort_by_key(|f| f.line);
    findings.dedup();
    findings
}

fn fixture_path(comments: &[Comment]) -> Option<String> {
    let first = comments.first()?;
    if first.line != 1 {
        return None;
    }
    let idx = first.text.find(FIXTURE_AS)?;
    let rest = first.text[idx + FIXTURE_AS.len()..].trim();
    if rest.is_empty() {
        None
    } else {
        Some(rest.to_string())
    }
}

/// Marks the token span of every `#[test]` / `#[cfg(test)]`-gated item so
/// rules can skip test-only code. `#[cfg(not(test))]` is NOT a test gate.
fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let close = matching(toks, i + 1, '[', ']');
            let gated = attr_is_test(&toks[i + 2..close.min(toks.len())]);
            if gated {
                // Find the item body: the first `{` at bracket depth 0
                // before a `;` (a `;` means a braceless item like
                // `#[cfg(test)] use x;`).
                let mut j = close + 1;
                let mut depth = 0i32;
                while j < toks.len() {
                    let t = &toks[j];
                    if t.is_punct('(') || t.is_punct('[') {
                        depth += 1;
                    } else if t.is_punct(')') || t.is_punct(']') {
                        depth -= 1;
                    } else if depth == 0 && t.is_punct(';') {
                        break;
                    } else if depth == 0 && t.is_punct('{') {
                        let end = matching(toks, j, '{', '}');
                        for m in &mut mask[i..=end.min(toks.len() - 1)] {
                            *m = true;
                        }
                        break;
                    }
                    j += 1;
                }
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Does an attribute token body (`cfg(test)`, `test`, `cfg(not(test))`, …)
/// gate on test builds?
fn attr_is_test(attr: &[Tok]) -> bool {
    for (k, t) in attr.iter().enumerate() {
        if t.is_ident("test") {
            let negated = k >= 2 && attr[k - 1].is_punct('(') && attr[k - 2].is_ident("not");
            if !negated {
                return true;
            }
        }
    }
    false
}

/// Index of the matching close bracket for the open bracket at `open`.
/// Returns the last token index if unbalanced (never panics).
fn matching(toks: &[Tok], open: usize, o: char, c: char) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

// ---------------------------------------------------------------------------
// Rule: validate-before-alloc
// ---------------------------------------------------------------------------

/// Decoder reads that taint their binding with an attacker-controlled
/// magnitude. `get_len` is absent by design: it validates the announced
/// length against the remaining input before returning.
const TAINT_READS: &[&str] = &["get_usize", "get_u64", "get_u32"];

fn validate_before_alloc(path: &str, toks: &[Tok], mask: &[bool], out: &mut Vec<Finding>) {
    // Walk functions: `fn name … { body }`.
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("fn") || mask[i] {
            i += 1;
            continue;
        }
        // Find the body open brace (depth over () and [] only; `;` at
        // depth 0 means a bodyless trait method).
        let mut j = i + 1;
        let mut depth = 0i32;
        let mut body = None;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if depth == 0 && t.is_punct(';') {
                break;
            } else if depth == 0 && t.is_punct('{') {
                body = Some((j, matching(toks, j, '{', '}')));
                break;
            }
            j += 1;
        }
        let Some((open, close)) = body else {
            i = j + 1;
            continue;
        };
        check_fn_body(path, &toks[open..=close.min(toks.len() - 1)], out);
        i = close + 1;
    }
}

/// Analyzes one function body for Dec-tainted allocation sizes.
fn check_fn_body(path: &str, body: &[Tok], out: &mut Vec<Finding>) {
    // 1. Taint: names bound (let or assignment) from a `.get_usize()`-class
    //    read, with the token position of the read.
    let mut taints: Vec<(String, usize)> = Vec::new();
    for i in 0..body.len() {
        let is_read = body[i].is_punct('.')
            && body
                .get(i + 1)
                .and_then(|t| t.ident())
                .is_some_and(|m| TAINT_READS.contains(&m))
            && body.get(i + 2).is_some_and(|t| t.is_punct('('));
        if !is_read {
            continue;
        }
        // Statement start: walk back to `;`, `{`, or `}` at depth 0.
        let mut s = i;
        let mut depth = 0i32;
        while s > 0 {
            let t = &body[s - 1];
            if t.is_punct(')') || t.is_punct(']') {
                depth += 1;
            } else if t.is_punct('(') || t.is_punct('[') {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            } else if depth == 0 && (t.is_punct(';') || t.is_punct('{') || t.is_punct('}')) {
                break;
            }
            s -= 1;
        }
        let stmt = &body[s..i];
        if let Some(let_pos) = stmt.iter().position(|t| t.is_ident("let")) {
            // `let [mut] a = …` / `let (a, b) = …` / `let a: T = …`.
            let mut k = let_pos + 1;
            while k < stmt.len() {
                let t = &stmt[k];
                if t.is_punct(':') || t.is_punct('=') {
                    break;
                }
                if let Some(name) = t.ident() {
                    if name != "mut" {
                        taints.push((name.to_string(), i));
                    }
                }
                k += 1;
            }
        } else if let Some(eq) = stmt.iter().position(|t| t.is_punct('=')) {
            // `lvalue = …`: taint the last identifier of the lvalue.
            if let Some(name) = stmt[..eq].iter().rev().find_map(|t| t.ident()) {
                taints.push((name.to_string(), i));
            }
        }
    }
    if taints.is_empty() {
        return;
    }

    // 2. Allocation sites; a tainted name is cleared by upper-bound
    //    evidence between its read and the allocation.
    for i in 0..body.len() {
        let alloc_args: Option<(usize, usize, &str)> = if body[i].is_ident("with_capacity")
            && body.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            Some((i + 1, matching(body, i + 1, '(', ')'), "with_capacity"))
        } else if body[i].is_ident("reserve") && body.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            Some((i + 1, matching(body, i + 1, '(', ')'), "reserve"))
        } else if body[i].is_ident("vec")
            && body.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && body.get(i + 2).is_some_and(|t| t.is_punct('['))
        {
            // `vec![elem; len]`: only the length part matters.
            let close = matching(body, i + 2, '[', ']');
            let mut semi = None;
            let mut depth = 0i32;
            for (k, t) in body.iter().enumerate().take(close).skip(i + 3) {
                if t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                } else if depth == 0 && t.is_punct(';') {
                    semi = Some(k);
                    break;
                }
            }
            semi.map(|s| (s, close, "vec![…; n]"))
        } else {
            None
        };
        let Some((args_open, args_close, what)) = alloc_args else {
            continue;
        };
        for k in args_open + 1..args_close.min(body.len()) {
            let Some(id) = body[k].ident() else { continue };
            let Some(&(_, read_pos)) = taints.iter().find(|(n, p)| n == id && *p < i) else {
                continue;
            };
            if !cleared_between(body, id, read_pos, i) {
                out.push(Finding {
                    rule: "validate-before-alloc",
                    path: path.to_string(),
                    line: body[k].line,
                    message: format!(
                        "`{what}` sized by `{id}`, which comes from a Dec read with no \
                         upper-bound check in between: a corrupt snapshot can request an \
                         absurd allocation and abort (the frame-store n·n class); range-check \
                         `{id}` first or read it via `get_len`"
                    ),
                });
            }
        }
    }
}

/// Upper-bound evidence for `name` in `body[from..to]`: `name >`, `name >=`,
/// `name ==`/`!=` (pinning), `< name` / `<= name`, `name <= …`, `name.min(`,
/// `name.clamp(`, or `name` inside an `assert…!(…)` group.
fn cleared_between(body: &[Tok], name: &str, from: usize, to: usize) -> bool {
    for k in from..to.min(body.len()) {
        if !body[k].is_ident(name) {
            // assert!-style macro groups containing the name.
            if body[k]
                .ident()
                .is_some_and(|id| id.starts_with("assert") || id.starts_with("debug_assert"))
                && body.get(k + 1).is_some_and(|t| t.is_punct('!'))
                && body.get(k + 2).is_some_and(|t| t.is_punct('('))
            {
                let close = matching(body, k + 2, '(', ')');
                if body[k + 2..close.min(body.len())]
                    .iter()
                    .any(|t| t.is_ident(name))
                {
                    return true;
                }
            }
            continue;
        }
        let next = body.get(k + 1);
        let next2 = body.get(k + 2);
        let prev = k.checked_sub(1).and_then(|p| body.get(p));
        let prev2 = k.checked_sub(2).and_then(|p| body.get(p));
        // name > …  |  name >= …
        if next.is_some_and(|t| t.is_punct('>')) {
            return true;
        }
        // name <= …
        if next.is_some_and(|t| t.is_punct('<')) && next2.is_some_and(|t| t.is_punct('=')) {
            return true;
        }
        // name == … | name != …
        if next.is_some_and(|t| t.is_punct('=')) && next2.is_some_and(|t| t.is_punct('=')) {
            return true;
        }
        if next.is_some_and(|t| t.is_punct('!')) && next2.is_some_and(|t| t.is_punct('=')) {
            return true;
        }
        // … < name | … <= name | … == name | … != name
        if prev.is_some_and(|t| t.is_punct('<')) {
            return true;
        }
        if prev.is_some_and(|t| t.is_punct('=')) && prev2.is_some_and(|t| t.is_punct('=')) {
            return true;
        }
        if prev.is_some_and(|t| t.is_punct('=')) && prev2.is_some_and(|t| t.is_punct('!')) {
            return true;
        }
        // name.min( | name.clamp(
        if next.is_some_and(|t| t.is_punct('.'))
            && next2.is_some_and(|t| t.is_ident("min") || t.is_ident("clamp"))
        {
            return true;
        }
        // (lo..=hi).contains(&name) — the idiomatic range check clippy
        // rewrites `n < lo || n > hi` into.
        let prev3 = k.checked_sub(3).and_then(|p| body.get(p));
        if prev.is_some_and(|t| t.is_punct('&'))
            && prev2.is_some_and(|t| t.is_punct('('))
            && prev3.is_some_and(|t| t.is_ident("contains"))
        {
            return true;
        }
    }
    false
}
