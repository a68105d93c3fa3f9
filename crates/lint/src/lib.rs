//! `bdclique-lint`: the one workspace invariant no clippy or rustc lint
//! covers — `validate-before-alloc`.
//!
//! Snapshot decoding must never size an allocation from an unchecked
//! `Dec` read: a corrupt checkpoint could request an absurd allocation and
//! abort the process before any bounds error is reported (the `n·n`
//! frame-store class a corruption proptest once caught). This crate finds
//! that shape with a lightweight Rust lexer and a token-pattern rule — see
//! the [`rules`] module docs.
//!
//! The other determinism and concurrency invariants are configuration: the
//! root `clippy.toml` bans `HashMap` / `HashSet` (process-random iteration
//! order), wall-clock reads and raw thread spawns, and the root
//! `[workspace.lints]` forbids `unsafe` and requires every suppression to
//! be an `#[expect(…, reason = "…")]` that still suppresses something.
//! `cargo clippy --all-targets -- -D warnings` enforces both.
//!
//! Run this lint with `cargo run -p bdclique-lint`. The fix for a finding
//! is a range check on the decoded size or a `get_len` read; there is no
//! suppression syntax.

pub mod lexer;
pub mod report;
pub mod rules;

pub use rules::{lint_source, Finding};

use std::path::{Path, PathBuf};

/// Directories never descended into during a workspace walk.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "node_modules"];

/// Path prefixes (workspace-relative, forward slashes) excluded from the
/// workspace walk: the fixtures are known-bad on purpose.
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
    findings.sort_by(|a, b| (a.path.as_str(), a.line).cmp(&(b.path.as_str(), b.line)));
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
        use rules::is_src;
        assert!(is_src("crates/core/src/routing/mod.rs"));
        assert!(is_src("crates/shims/rayon/src/lib.rs"));
        assert!(is_src("src/lib.rs"));
        assert!(!is_src("crates/netsim/tests/goldens.rs"));
        assert!(!is_src("crates/shims/proptest/tests/x.rs"));
        assert!(!is_src("examples/quickstart.rs"));
        assert!(!is_src("crates/lint/fixtures/history/x.rs"));
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
