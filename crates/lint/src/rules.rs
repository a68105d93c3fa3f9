//! The rule engine: file scoping, test-span masking, inline suppressions,
//! and the five determinism/concurrency rules.
//!
//! Every rule here is derived from a real past bug or a live hazard in
//! this workspace:
//!
//! * **no-hashmap-iteration** — PR 4 shipped a latent nondeterminism where
//!   the LDC query path built a routing instance by iterating a `HashMap`,
//!   so round counts varied across processes for identical seeds.
//! * **no-wallclock-nondeterminism** — all honest nodes must compute
//!   identical schedules from identical inputs; wall-clock reads and
//!   OS-entropy RNGs break that silently.
//! * **validate-before-alloc** — PR 9's corruption proptest caught an
//!   unvalidated `n·n` snapshot length aborting on allocation.
//! * **unsafe-needs-safety-comment** — `unsafe` is denied outside
//!   `crates/shims`, and inside them requires an adjacent `// SAFETY:`.
//! * **no-raw-spawn** — a background thread outside the rayon shim's
//!   scoped fan-out can outlive the round that started it, so a snapshot
//!   taken between two steps would no longer describe the whole run.
//!
//! The analysis is deliberately lightweight — token patterns plus
//! file-local type taint, not full type inference. False positives are
//! expected to be rare and are handled by inline suppressions that must
//! carry a reason: `// bdclique-lint: allow(rule-name) — reason`.

use crate::lexer::{lex, Comment, Tok, TokKind};

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

/// The rule catalog: `(name, summary)`. Suppressions may only name rules
/// listed here.
pub const RULES: &[(&str, &str)] = &[
    (
        "no-hashmap-iteration",
        "forbid iteration over HashMap/HashSet in non-test code of core, netsim, codes, \
         adversary — iteration order is process-random and breaks cross-process determinism \
         (the PR 4 LDC bug class); use BTreeMap/BTreeSet, or sort first and suppress with a reason",
    ),
    (
        "no-wallclock-nondeterminism",
        "forbid SystemTime / Instant::now / thread_rng / from_entropy outside bench timing \
         and the shims — schedules must derive from seeds and the round counter only",
    ),
    (
        "validate-before-alloc",
        "flag Vec::with_capacity / vec![…; n] where n comes from a Dec read without an \
         upper-bound check in the same function (the PR 9 FrameStore n·n abort class)",
    ),
    (
        "unsafe-needs-safety-comment",
        "unsafe is denied outside crates/shims; inside them every unsafe needs an adjacent \
         // SAFETY: comment",
    ),
    (
        "no-raw-spawn",
        "std::thread::spawn only inside the rayon shim, so no work outlives the step that \
         started it and a snapshot between two steps describes the whole run",
    ),
];

/// Meta-rules the engine itself emits; not suppressible.
pub const META_RULES: &[(&str, &str)] = &[
    (
        "malformed-suppression",
        "a bdclique-lint allow() comment must name a known rule and carry a non-empty reason",
    ),
    (
        "unused-suppression",
        "a bdclique-lint allow() comment that suppresses nothing must be removed",
    ),
];

/// Crates whose non-test `src/` falls under `no-hashmap-iteration`.
const HASH_ITER_CRATES: &[&str] = &["core", "netsim", "codes", "adversary"];

/// Iteration-order-sensitive methods on hash containers.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "into_iter",
    "drain",
    "retain",
];

/// Where a file sits in the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Library/binary source under `src/`.
    Src,
    /// Integration tests under `tests/`.
    Tests,
    /// Examples under `examples/`.
    Examples,
    /// Anything else (build scripts, stray files).
    Other,
}

/// Scoping facts derived from a workspace-relative path.
#[derive(Debug, Clone)]
pub struct FileScope {
    /// Crate name: `core`, `netsim`, `shims/rayon`, `bdclique` (the root
    /// facade), … `None` for paths outside any crate layout.
    pub crate_name: Option<String>,
    /// File kind by directory.
    pub kind: Kind,
    /// Whether the file lives under `crates/shims/`.
    pub in_shims: bool,
}

/// Classifies a workspace-relative path (forward slashes).
pub fn classify(rel: &str) -> FileScope {
    let parts: Vec<&str> = rel.split('/').collect();
    let kind_of = |dir: &str| match dir {
        "src" => Kind::Src,
        "tests" => Kind::Tests,
        "examples" => Kind::Examples,
        _ => Kind::Other,
    };
    if parts.first() == Some(&"crates") {
        if parts.get(1) == Some(&"shims") {
            let name = parts.get(2).map(|s| format!("shims/{s}"));
            let kind = parts.get(3).map_or(Kind::Other, |d| kind_of(d));
            return FileScope {
                crate_name: name,
                kind,
                in_shims: true,
            };
        }
        let name = parts.get(1).map(|s| (*s).to_string());
        let kind = parts.get(2).map_or(Kind::Other, |d| kind_of(d));
        return FileScope {
            crate_name: name,
            kind,
            in_shims: false,
        };
    }
    // Root package layout: src/, tests/, examples/ at the workspace root.
    let kind = parts.first().map_or(Kind::Other, |d| kind_of(d));
    FileScope {
        crate_name: Some("bdclique".to_string()),
        kind,
        in_shims: false,
    }
}

/// Fixture directive: a first-line `// lint-fixture-as: <path>` makes the
/// engine scope the file as if it lived at `<path>`. This is how the
/// known-bad fixtures under `crates/lint/fixtures/` exercise crate-scoped
/// rules without living inside those crates.
pub const FIXTURE_AS: &str = "lint-fixture-as:";

/// Lints one source file. `path` is the reporting path (shown in
/// findings); scoping uses the fixture directive when present.
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    let lexed = lex(src);
    let effective = fixture_path(&lexed.comments).unwrap_or_else(|| path.to_string());
    let scope = classify(&effective);
    let mask = test_mask(&lexed.toks);
    let (suppressions, mut findings) = parse_suppressions(path, &lexed.comments);

    let ctx = Ctx {
        path,
        scope: &scope,
        toks: &lexed.toks,
        comments: &lexed.comments,
        mask: &mask,
    };
    let mut raw = Vec::new();
    no_hashmap_iteration(&ctx, &mut raw);
    no_wallclock(&ctx, &mut raw);
    validate_before_alloc(&ctx, &mut raw);
    unsafe_needs_safety_comment(&ctx, &mut raw);
    no_raw_spawn(&ctx, &mut raw);

    // Apply suppressions: a well-formed allow() covers matching findings
    // on its own line span and the line right after it.
    let mut used = vec![false; suppressions.len()];
    for f in raw {
        let mut suppressed = false;
        for (si, s) in suppressions.iter().enumerate() {
            if s.rules.iter().any(|r| r == f.rule) && f.line >= s.line && f.line <= s.end_line + 1 {
                used[si] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            findings.push(f);
        }
    }
    for (si, s) in suppressions.iter().enumerate() {
        if !used[si] {
            findings.push(Finding {
                rule: "unused-suppression",
                path: path.to_string(),
                line: s.line,
                message: format!(
                    "suppression for `{}` does not match any finding; remove it",
                    s.rules.join(", ")
                ),
            });
        }
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
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

struct Ctx<'a> {
    path: &'a str,
    scope: &'a FileScope,
    toks: &'a [Tok],
    comments: &'a [Comment],
    mask: &'a [bool],
}

impl Ctx<'_> {
    fn finding(&self, rule: &'static str, line: u32, message: String) -> Finding {
        Finding {
            rule,
            path: self.path.to_string(),
            line,
            message,
        }
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
// Suppressions
// ---------------------------------------------------------------------------

struct Suppression {
    rules: Vec<String>,
    line: u32,
    end_line: u32,
}

/// Parses `// bdclique-lint: allow(rule) — reason` comments. Returns the
/// well-formed suppressions plus findings for malformed ones (missing
/// reason, unknown rule, bad syntax) — the suppressions are themselves
/// linted.
fn parse_suppressions(path: &str, comments: &[Comment]) -> (Vec<Suppression>, Vec<Finding>) {
    const MARKER: &str = "bdclique-lint:";
    let mut sups = Vec::new();
    let mut bad = Vec::new();
    let mut malformed = |line: u32, msg: String| {
        bad.push(Finding {
            rule: "malformed-suppression",
            path: path.to_string(),
            line,
            message: msg,
        });
    };
    for (ci, c) in comments.iter().enumerate() {
        // The marker must open the comment body (after `//`/`/*`/doc
        // markers) — prose that merely *mentions* the syntax, like this
        // sentence, is not a suppression.
        let body = c.text.trim_start_matches(['/', '*', '!']).trim_start();
        if !body.starts_with(MARKER) {
            continue;
        }
        // A reason wrapped over following comment lines extends the
        // suppression's span, so the covered code line moves with it.
        let mut end_line = c.end_line;
        for follow in &comments[ci + 1..] {
            let fb = follow.text.trim_start_matches(['/', '*', '!']).trim_start();
            if follow.line == end_line + 1 && !fb.starts_with(MARKER) {
                end_line = follow.end_line;
            } else {
                break;
            }
        }
        let rest = body[MARKER.len()..].trim_start();
        let Some(after_allow) = rest.strip_prefix("allow") else {
            malformed(
                c.line,
                "expected `allow(rule-name)` after `bdclique-lint:`".to_string(),
            );
            continue;
        };
        let after_allow = after_allow.trim_start();
        let Some(open) = after_allow.strip_prefix('(') else {
            malformed(
                c.line,
                "expected `allow(rule-name)` after `bdclique-lint:`".to_string(),
            );
            continue;
        };
        let Some(close_idx) = open.find(')') else {
            malformed(c.line, "unclosed `allow(` in suppression".to_string());
            continue;
        };
        let names: Vec<String> = open[..close_idx]
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        if names.is_empty() {
            malformed(c.line, "empty `allow()` in suppression".to_string());
            continue;
        }
        let mut ok = true;
        for n in &names {
            if !RULES.iter().any(|(r, _)| r == n) {
                malformed(
                    c.line,
                    format!("suppression names unknown rule `{n}` (see the rule catalog)"),
                );
                ok = false;
            }
        }
        // The reason: whatever follows the `)`, minus separator dashes.
        let reason = open[close_idx + 1..]
            .trim_start_matches([' ', '\t', '—', '–', '-', ':'])
            .trim();
        if reason.is_empty() {
            malformed(
                c.line,
                "suppression must carry a reason: `// bdclique-lint: allow(rule) — why`"
                    .to_string(),
            );
            ok = false;
        }
        if ok {
            sups.push(Suppression {
                rules: names,
                line: c.line,
                end_line,
            });
        }
    }
    (sups, bad)
}

// ---------------------------------------------------------------------------
// Rule: no-hashmap-iteration
// ---------------------------------------------------------------------------

fn no_hashmap_iteration(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    let in_scope = ctx.scope.kind == Kind::Src
        && !ctx.scope.in_shims
        && ctx
            .scope
            .crate_name
            .as_deref()
            .is_some_and(|c| HASH_ITER_CRATES.contains(&c));
    if !in_scope {
        return;
    }
    let toks = ctx.toks;

    // Phase 0: hash-typed names — HashMap/HashSet plus file-local aliases
    // (`type QueryAnswers = HashMap<…>;`).
    let mut hash_types: Vec<String> = vec!["HashMap".into(), "HashSet".into()];
    for i in 0..toks.len() {
        if toks[i].is_ident("type") {
            if let (Some(name), Some(eq)) = (toks.get(i + 1), toks.get(i + 2)) {
                if name.kind == TokKind::Ident && eq.is_punct('=') {
                    let mut j = i + 3;
                    while j < toks.len() && !toks[j].is_punct(';') {
                        if toks[j].is_ident("HashMap") || toks[j].is_ident("HashSet") {
                            hash_types.push(name.text.clone());
                            break;
                        }
                        j += 1;
                    }
                }
            }
        }
    }

    // Phase 1: taint variable/field names declared with a hash type.
    let mut tainted: Vec<String> = Vec::new();
    let mut taint = |name: &str| {
        if !tainted.iter().any(|t| t == name) {
            tainted.push(name.to_string());
        }
    };
    for i in 0..toks.len() {
        let Some(id) = toks[i].ident() else { continue };
        if !hash_types.iter().any(|h| h == id) {
            continue;
        }
        // (a) `let`-binding within the same statement.
        let mut j = i;
        let mut found_let = None;
        for _ in 0..48 {
            if j == 0 {
                break;
            }
            j -= 1;
            let t = &toks[j];
            if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                break;
            }
            if t.is_ident("let") {
                found_let = Some(j);
                break;
            }
        }
        if let Some(l) = found_let {
            let mut k = l + 1;
            while k < i {
                let t = &toks[k];
                if t.is_punct(':') || t.is_punct('=') {
                    break;
                }
                if let Some(name) = t.ident() {
                    if name != "mut" {
                        taint(name);
                    }
                }
                k += 1;
            }
            continue;
        }
        // (b) field / parameter declaration: `name : … HashMap … `.
        // Walk back across type tokens to the single `:` boundary.
        let mut j = i;
        let mut steps = 0;
        loop {
            if j == 0 || steps > 32 {
                break;
            }
            j -= 1;
            steps += 1;
            let t = &toks[j];
            if t.is_punct(':') {
                // `::` is two colons; skip path separators.
                if j > 0 && toks[j - 1].is_punct(':') {
                    j -= 1;
                    continue;
                }
                if j > 0 {
                    if let Some(name) = toks[j - 1].ident() {
                        taint(name);
                    }
                }
                break;
            }
            let type_ctx = t.kind == TokKind::Ident
                || t.kind == TokKind::Lifetime
                || t.is_punct('<')
                || t.is_punct('>')
                || t.is_punct(',')
                || t.is_punct('&')
                || t.is_punct('(')
                || t.is_punct(')')
                || t.is_punct('[')
                || t.is_punct(']');
            if !type_ctx {
                break;
            }
        }
        // (c) plain assignment / initializer: `name = HashMap::new()`.
        let mut j = i;
        let mut steps = 0;
        loop {
            if j == 0 || steps > 16 {
                break;
            }
            j -= 1;
            steps += 1;
            let t = &toks[j];
            if t.is_punct('=') {
                if j > 0 {
                    if let Some(name) = toks[j - 1].ident() {
                        if name != "type" {
                            taint(name);
                        }
                    }
                }
                break;
            }
            if !(t.kind == TokKind::Ident || t.is_punct(':') || t.is_punct('<') || t.is_punct('>'))
            {
                break;
            }
        }
    }
    if tainted.is_empty() {
        return;
    }

    // Phase 2: violations.
    for i in 0..toks.len() {
        if ctx.mask[i] {
            continue;
        }
        // `recv.iter()` — receiver chain contains a tainted name.
        if toks[i].is_punct('.') {
            let is_call = toks
                .get(i + 1)
                .and_then(|t| t.ident())
                .is_some_and(|m| ITER_METHODS.contains(&m))
                && toks.get(i + 2).is_some_and(|t| t.is_punct('('));
            if is_call {
                let chain = chain_idents(toks, i);
                if let Some(name) = chain.iter().find(|n| tainted.contains(n)) {
                    let method = &toks[i + 1].text;
                    out.push(ctx.finding(
                        "no-hashmap-iteration",
                        toks[i + 1].line,
                        format!(
                            "`.{method}()` on hash container `{name}`: iteration order is \
                             process-random and breaks cross-process determinism; use \
                             BTreeMap/BTreeSet or sort first (then suppress with a reason)"
                        ),
                    ));
                }
            }
        }
        // `for pat in <chain> {` over a tainted name.
        if toks[i].is_ident("for") {
            if let Some((expr_start, brace)) = for_in_expr(toks, i) {
                if let Some(name) = pure_chain_taint(&toks[expr_start..brace], &tainted) {
                    out.push(ctx.finding(
                        "no-hashmap-iteration",
                        toks[i].line,
                        format!(
                            "`for … in` over hash container `{name}`: iteration order is \
                             process-random and breaks cross-process determinism; use \
                             BTreeMap/BTreeSet or sort first (then suppress with a reason)"
                        ),
                    ));
                }
            }
        }
    }
}

/// Receiver-chain identifiers to the left of the `.` at `dot`, skipping
/// `self`, call-argument groups, and index groups. `a.b(x)[i].c` → `[c, b, a]`.
fn chain_idents(toks: &[Tok], dot: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut j = dot;
    loop {
        if j == 0 {
            break;
        }
        j -= 1;
        let t = &toks[j];
        if let Some(id) = t.ident() {
            if id != "self" {
                out.push(id.to_string());
            }
            // Continue the chain through `.` or `::`.
            if j >= 1 && toks[j - 1].is_punct('.') {
                j -= 1;
                continue;
            }
            if j >= 2 && toks[j - 1].is_punct(':') && toks[j - 2].is_punct(':') {
                j -= 2;
                continue;
            }
            break;
        }
        if t.is_punct(')') {
            j = open_of(toks, j, '(', ')');
            continue;
        }
        if t.is_punct(']') {
            j = open_of(toks, j, '[', ']');
            continue;
        }
        break;
    }
    out
}

/// Index of the open bracket matching the close bracket at `close`,
/// scanning backwards. Returns 0 if unbalanced.
fn open_of(toks: &[Tok], close: usize, o: char, c: char) -> usize {
    let mut depth = 0i32;
    let mut j = close;
    loop {
        let t = &toks[j];
        if t.is_punct(c) {
            depth += 1;
        } else if t.is_punct(o) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        if j == 0 {
            return 0;
        }
        j -= 1;
    }
}

/// For a `for` keyword at `i`, locates the iterated expression: returns
/// `(expr_start, brace_index)` for `for pat in expr {`. `None` when there
/// is no `in` before the body brace (`impl Trait for Type {`).
fn for_in_expr(toks: &[Tok], i: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut in_idx = None;
    let mut j = i + 1;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 && t.is_punct(';') {
            return None;
        } else if depth == 0 && t.is_ident("in") && in_idx.is_none() {
            in_idx = Some(j);
        } else if depth == 0 && t.is_punct('{') {
            let start = in_idx? + 1;
            return Some((start, j));
        }
        j += 1;
    }
    None
}

/// If `expr` is a pure reference chain (`&`/`mut`/idents/`self` joined by
/// `.`/`::` with optional index or call groups) ending the expression,
/// returns the first tainted identifier in it. Range expressions, arithmetic,
/// and other compound shapes return `None` — those are handled (when hash
/// iteration is actually involved) by the method-call pattern.
fn pure_chain_taint(expr: &[Tok], tainted: &[String]) -> Option<String> {
    let mut idents = Vec::new();
    let mut j = 0usize;
    // Leading borrows.
    while j < expr.len() && (expr[j].is_punct('&') || expr[j].is_ident("mut")) {
        j += 1;
    }
    while j < expr.len() {
        let t = &expr[j];
        if let Some(id) = t.ident() {
            if id != "self" {
                idents.push(id.to_string());
            }
            j += 1;
            continue;
        }
        if t.is_punct('.') || t.is_punct(':') {
            j += 1;
            continue;
        }
        if t.is_punct('(') {
            j = matching(expr, j, '(', ')') + 1;
            continue;
        }
        if t.is_punct('[') {
            j = matching(expr, j, '[', ']') + 1;
            continue;
        }
        // Anything else (operators, literals) makes this a compound
        // expression; bail out.
        return None;
    }
    idents.into_iter().find(|n| tainted.iter().any(|t| t == n))
}

// ---------------------------------------------------------------------------
// Rule: no-wallclock-nondeterminism
// ---------------------------------------------------------------------------

fn no_wallclock(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    let in_scope = ctx.scope.kind == Kind::Src
        && !ctx.scope.in_shims
        && ctx.scope.crate_name.as_deref() != Some("bench");
    if !in_scope {
        return;
    }
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.mask[i] {
            continue;
        }
        let Some(id) = toks[i].ident() else { continue };
        let hit = match id {
            "SystemTime" => Some("`SystemTime` reads the wall clock"),
            "thread_rng" => Some("`thread_rng` seeds from OS entropy"),
            "from_entropy" => Some("`from_entropy` seeds from OS entropy"),
            "Instant" => {
                let now = toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|t| t.is_ident("now"));
                if now {
                    Some("`Instant::now` reads the wall clock")
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some(what) = hit {
            out.push(ctx.finding(
                "no-wallclock-nondeterminism",
                toks[i].line,
                format!(
                    "{what}: identical inputs must produce identical schedules on every \
                     process; derive randomness from SeedStream and time from \
                     Network::rounds (timing belongs in crates/bench)"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: validate-before-alloc
// ---------------------------------------------------------------------------

/// Decoder reads that taint their binding with an attacker-controlled
/// magnitude. `get_len` is absent by design: it validates the announced
/// length against the remaining input before returning.
const TAINT_READS: &[&str] = &["get_usize", "get_u64", "get_u32"];

fn validate_before_alloc(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    if ctx.scope.kind != Kind::Src {
        return;
    }
    let toks = ctx.toks;
    // Walk functions: `fn name … { body }`.
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("fn") || ctx.mask[i] {
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
        check_fn_body(ctx, &toks[open..=close.min(toks.len() - 1)], out);
        i = close + 1;
    }
}

/// Analyzes one function body for Dec-tainted allocation sizes.
fn check_fn_body(ctx: &Ctx<'_>, body: &[Tok], out: &mut Vec<Finding>) {
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
                out.push(ctx.finding(
                    "validate-before-alloc",
                    body[k].line,
                    format!(
                        "`{what}` sized by `{id}`, which comes from a Dec read with no \
                         upper-bound check in between: a corrupt snapshot can request an \
                         absurd allocation and abort (the PR 9 n·n class); range-check \
                         `{id}` first or read it via `get_len`"
                    ),
                ));
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

// ---------------------------------------------------------------------------
// Rule: unsafe-needs-safety-comment
// ---------------------------------------------------------------------------

fn unsafe_needs_safety_comment(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    for t in ctx.toks {
        if !t.is_ident("unsafe") {
            continue;
        }
        if !ctx.scope.in_shims {
            out.push(
                ctx.finding(
                    "unsafe-needs-safety-comment",
                    t.line,
                    "`unsafe` is denied outside crates/shims: the simulator's determinism \
                 oracles assume a memory-safe core"
                        .to_string(),
                ),
            );
            continue;
        }
        let has_safety = ctx
            .comments
            .iter()
            .any(|c| c.text.contains("SAFETY:") && (c.end_line + 3 >= t.line && c.line <= t.line));
        if !has_safety {
            out.push(
                ctx.finding(
                    "unsafe-needs-safety-comment",
                    t.line,
                    "`unsafe` without an adjacent `// SAFETY:` comment (within the 3 lines \
                 above): state the invariant that makes this sound"
                        .to_string(),
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: no-raw-spawn
// ---------------------------------------------------------------------------

fn no_raw_spawn(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    let allowed = ctx.scope.in_shims && ctx.scope.crate_name.as_deref() == Some("shims/rayon");
    if allowed {
        return;
    }
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.mask[i] {
            continue;
        }
        if !toks[i].is_ident("spawn") {
            continue;
        }
        // `thread::spawn` (std or aliased).
        let via_path = i >= 3
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks[i - 3].is_ident("thread");
        // `thread::Builder::new()…spawn(…)` — the builder chain
        // (`.name(…)` etc.) can put a couple dozen tokens between the
        // `Builder` and the `spawn`.
        let via_builder = i >= 1
            && toks[i - 1].is_punct('.')
            && toks[i.saturating_sub(24)..i]
                .iter()
                .any(|t| t.is_ident("Builder") || t.is_ident("thread"));
        if !(via_path || via_builder) {
            continue;
        }
        out.push(
            ctx.finding(
                "no-raw-spawn",
                toks[i].line,
                "raw `thread::spawn` outside the rayon shim: work must not outlive the step \
             that started it — fan out through rayon (`into_par_iter`) instead"
                    .to_string(),
            ),
        );
    }
}
