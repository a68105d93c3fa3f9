//! The `lint` binary: `cargo run -p bdclique-lint [-- paths…]`.
//!
//! With no paths, lints the whole workspace (found by walking up from the
//! current directory). With paths, lints exactly those files — paths are
//! taken workspace-relative for rule scoping when possible.
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/IO error.

use std::path::Path;
use std::process::ExitCode;

use bdclique_lint::{find_workspace_root, lint_source, lint_workspace, report};

fn main() -> ExitCode {
    let mut paths: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--help" | "-h" => {
                println!(
                    "bdclique-lint: the validate-before-alloc lint for the bdclique workspace\n\
                     \n\
                     usage: cargo run -p bdclique-lint [-- FILES…]\n\
                     \n\
                     With no FILES, lints every .rs file in the workspace."
                );
                return ExitCode::SUCCESS;
            }
            a if a.starts_with('-') => {
                eprintln!("bdclique-lint: unknown option `{a}` (try --help)");
                return ExitCode::from(2);
            }
            a => paths.push(a.to_string()),
        }
    }

    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bdclique-lint: cannot read current directory: {e}");
            return ExitCode::from(2);
        }
    };
    let root = find_workspace_root(&cwd);

    let findings = if paths.is_empty() {
        let Some(root) = root else {
            eprintln!(
                "bdclique-lint: no workspace root found above {}",
                cwd.display()
            );
            return ExitCode::from(2);
        };
        match lint_workspace(&root) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("bdclique-lint: workspace walk failed: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        let mut findings = Vec::new();
        for p in &paths {
            let src = match std::fs::read_to_string(p) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("bdclique-lint: cannot read {p}: {e}");
                    return ExitCode::from(2);
                }
            };
            // Report under the workspace-relative path when the file sits
            // inside the workspace, so the `src/` scoping applies.
            let rel = root
                .as_deref()
                .and_then(|r| {
                    let abs = Path::new(p).canonicalize().ok()?;
                    let rootc = r.canonicalize().ok()?;
                    abs.strip_prefix(&rootc)
                        .ok()
                        .map(|s| s.to_string_lossy().replace('\\', "/"))
                })
                .unwrap_or_else(|| p.clone());
            findings.extend(lint_source(&rel, &src));
        }
        findings
    };

    print!("{}", report::to_text(&findings));
    if findings.is_empty() {
        eprintln!("bdclique-lint: clean");
    } else {
        eprintln!("bdclique-lint: {} finding(s)", findings.len());
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
