//! `bdclique-lint`: dependency-free determinism & concurrency lints for
//! the bdclique workspace.
//!
//! The bit-identity guarantees this reproduction makes (parallel vs serial
//! execution, checkpoint/resume identity, coordinate-derived seed streams)
//! rest on invariants the compiler cannot see: no process-random hash
//! iteration in schedule-computing code, no wall-clock or OS-entropy
//! inputs, no attacker-sized allocations in snapshot decoding, no stray
//! threads. This crate enforces them with a lightweight Rust lexer and a
//! token-pattern rule engine — see [`rules::RULES`] for the catalog.
//!
//! Run it with `cargo run -p bdclique-lint`; the [`rules`] module docs give
//! the suppression syntax. Run it **before** trusting the identity oracles
//! (`stage_parallel`, `session_regression`, the cross-run goldens): those
//! compare two executions *within one process*, so a per-process-random
//! iteration order can agree with itself all the way through CI and still
//! diverge across processes in a sharded run — the lint is the
//! cross-process half of the argument. Prefer restructuring (`BTreeMap`,
//! sort-before-iterate, `get_len`) over suppressing; a suppression's reason
//! should say why the order (or size) cannot matter.

pub mod lexer;
pub mod report;
pub mod rules;

pub use rules::{lint_source, Finding, META_RULES, RULES};

use std::path::{Path, PathBuf};

/// Directories never descended into during a workspace walk.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "node_modules"];

/// Path prefixes (workspace-relative, forward slashes) excluded from the
/// workspace walk. The fixtures are known-bad on purpose; the lint's own
/// sources mention forbidden identifiers in string literals and rule
/// tables, which the lexer sees as plain idents once they appear in tests.
const SKIP_PREFIXES: &[&str] = &["crates/lint/fixtures/"];

/// Recursively collects every `.rs` file under `root`, returned as
/// workspace-relative forward-slash paths, sorted for deterministic
/// reports.
pub fn collect_workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path.strip_prefix(root).unwrap_or(&path);
                let rel_str = rel.to_string_lossy().replace('\\', "/");
                if SKIP_PREFIXES.iter().any(|p| rel_str.starts_with(p)) {
                    continue;
                }
                out.push(rel.to_path_buf());
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints every workspace source file under `root`. Findings are sorted by
/// (path, line, rule).
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let files = collect_workspace_files(root)?;
    let mut findings = Vec::new();
    for rel in files {
        let abs = root.join(&rel);
        let src = std::fs::read_to_string(&abs)?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        findings.extend(lint_source(&rel_str, &src));
    }
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    Ok(findings)
}

/// Locates the workspace root: walks up from `start` until a directory
/// containing both `Cargo.toml` and `crates/` is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start);
    while let Some(dir) = cur {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir.to_path_buf());
        }
        cur = dir.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_scopes_crates_and_shims() {
        let s = rules::classify("crates/core/src/routing/mod.rs");
        assert_eq!(s.crate_name.as_deref(), Some("core"));
        assert!(!s.in_shims);
        let s = rules::classify("crates/shims/rayon/src/lib.rs");
        assert_eq!(s.crate_name.as_deref(), Some("shims/rayon"));
        assert!(s.in_shims);
        let s = rules::classify("crates/netsim/tests/goldens.rs");
        assert_eq!(s.kind, rules::Kind::Tests);
        let s = rules::classify("src/lib.rs");
        assert_eq!(s.crate_name.as_deref(), Some("bdclique"));
    }

    #[test]
    fn walker_skips_fixture_tree() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("root");
        let files = collect_workspace_files(&root).expect("walk");
        assert!(!files.is_empty());
        for f in &files {
            let s = f.to_string_lossy().replace('\\', "/");
            assert!(
                !s.starts_with("crates/lint/fixtures/"),
                "fixture leaked into walk: {s}"
            );
            assert!(!s.starts_with("target/"), "target leaked into walk: {s}");
        }
    }
}
