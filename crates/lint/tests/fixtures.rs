//! Fixture self-tests: `validate-before-alloc` fires on its known-bad
//! snippet and stays quiet on the fixed version — including a replica of
//! the unchecked-allocation bug that motivated it — and the lint is
//! clean over the live workspace.
//!
//! The other determinism rules are clippy / rustc configuration. A clean
//! tree never exercises a ban, so each one is proven here on its fixtures:
//! `clippy-driver` compiles the known-bad snippet as a standalone library
//! under the root `clippy.toml` and the levels in `[workspace.lints]`, and
//! it must fail on the named lint while the fixed snippet passes. The last
//! two tests pin the configuration itself.

use std::path::{Path, PathBuf};
use std::process::Command;

use bdclique_lint::{find_workspace_root, lint_source, lint_workspace, Finding};

fn fixture(rel: &str) -> (String, String) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(rel);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    // Findings report under the real fixture path; scoping comes from the
    // file's own `lint-fixture-as:` directive.
    (format!("crates/lint/fixtures/{rel}"), src)
}

fn lint_fixture(rel: &str) -> Vec<Finding> {
    let (path, src) = fixture(rel);
    lint_source(&path, &src)
}

fn workspace_root() -> PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{} unreadable: {e}", path.display()))
}

#[test]
fn validate_before_alloc_fires_on_bad_quiet_on_good() {
    let bad = lint_fixture("validate_before_alloc/bad.rs");
    assert!(
        bad.iter()
            .filter(|f| f.rule == "validate-before-alloc")
            .count()
            >= 2,
        "with_capacity and vec![…; n] must both fire: {bad:?}"
    );
    let good = lint_fixture("validate_before_alloc/good.rs");
    assert!(good.is_empty(), "good fixture must be clean: {good:?}");
}

#[test]
fn pr9_unchecked_alloc_replica_fires() {
    let bad = lint_fixture("history/pr9_unchecked_alloc.rs");
    assert!(
        bad.iter().any(|f| f.rule == "validate-before-alloc"),
        "the PR 9 unchecked-allocation shape must fire — note the lower-bound \
         check and checked_mul in the fixture must NOT count as validation: {bad:?}"
    );
}

/// `clippy-driver` from the toolchain running the tests (beside its
/// `cargo`), else from `PATH`.
fn clippy_driver() -> PathBuf {
    std::env::var_os("CARGO")
        .map(PathBuf::from)
        .and_then(|cargo| cargo.parent().map(|bin| bin.join("clippy-driver")))
        .filter(|driver| driver.exists())
        .unwrap_or_else(|| PathBuf::from("clippy-driver"))
}

/// The command-line form of every level in `[workspace.lints.rust]` and
/// `[workspace.lints.clippy]`, read from the root manifest so the check
/// follows the configuration rather than a copy of it.
fn workspace_lint_flags(manifest: &str) -> Vec<String> {
    let mut flags = Vec::new();
    let mut prefix = None;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            prefix = match line {
                "[workspace.lints.rust]" => Some(""),
                "[workspace.lints.clippy]" => Some("clippy::"),
                _ => None,
            };
            continue;
        }
        let (Some(prefix), Some((name, level))) = (prefix, line.split_once('=')) else {
            continue;
        };
        let flag = match level.trim().trim_matches('"') {
            "allow" => "-A",
            "warn" => "-W",
            "deny" => "-D",
            "forbid" => "-F",
            other => panic!("unknown lint level `{other}` in [workspace.lints]"),
        };
        flags.push(flag.to_string());
        flags.push(format!("{prefix}{}", name.trim()));
    }
    flags
}

/// Lints one fixture as a standalone library crate with the gate CI puts
/// on every member (`cargo clippy -- -D warnings` under the root
/// `clippy.toml` and `[workspace.lints]`). Returns whether it passed, and
/// the diagnostics.
fn clippy_fixture(rel: &str) -> (bool, String) {
    let root = workspace_root();
    let manifest = read(&root.join("Cargo.toml"));
    let edition = manifest
        .lines()
        .find_map(|l| l.trim().strip_prefix("edition = "))
        .expect("[workspace.package] edition")
        .trim_matches('"');
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("clippy-fixtures")
        .join(rel.replace(['/', '.'], "_"));
    std::fs::create_dir_all(&out_dir).expect("fixture output dir");
    let output = Command::new(clippy_driver())
        .env("CLIPPY_CONF_DIR", &root)
        .args([
            "--edition",
            edition,
            "--crate-type",
            "lib",
            "--emit=metadata",
        ])
        .arg("--out-dir")
        .arg(&out_dir)
        .args(["-D", "warnings"])
        .args(workspace_lint_flags(&manifest))
        .arg(
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("fixtures")
                .join(rel),
        )
        .output()
        .unwrap_or_else(|e| panic!("clippy-driver did not start: {e}"));
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// The fixture must fail clippy, and on `lint` — a build error or an
/// unrelated warning must not count as the ban firing.
fn assert_clippy_rejects(rel: &str, lint: &str, names: &[&str]) {
    let (ok, stderr) = clippy_fixture(rel);
    assert!(!ok, "{rel} must fail clippy on {lint}, but passed");
    assert!(
        stderr.contains(lint),
        "{rel} must fail on {lint}:\n{stderr}"
    );
    for name in names {
        assert!(
            stderr.contains(name),
            "{rel}: `{name}` must be reported:\n{stderr}"
        );
    }
}

fn assert_clippy_clean(rel: &str) {
    let (ok, stderr) = clippy_fixture(rel);
    assert!(
        ok && stderr.is_empty(),
        "{rel} must pass clippy cleanly:\n{stderr}"
    );
}

#[test]
fn hashmap_iteration_fires_on_bad_quiet_on_good() {
    assert_clippy_rejects(
        "no_hashmap_iteration/bad.rs",
        "clippy::disallowed-types",
        &["std::collections::HashMap", "std::collections::HashSet"],
    );
    assert_clippy_clean("no_hashmap_iteration/good.rs");
}

#[test]
fn pr4_hashmap_iteration_replica_fires() {
    assert_clippy_rejects(
        "history/pr4_hashmap_iteration.rs",
        "clippy::disallowed-types",
        &["std::collections::HashMap"],
    );
}

#[test]
fn wallclock_fires_on_bad_quiet_on_good() {
    assert_clippy_rejects(
        "no_wallclock/bad.rs",
        "clippy::disallowed-methods",
        &["std::time::Instant::now", "std::time::SystemTime::now"],
    );
    assert_clippy_clean("no_wallclock/good.rs");
}

/// The rayon shim's scoped fan-out is the one sanctioned thread site; it
/// opts out with a reasoned `expect`, which must leave it clean.
#[test]
fn raw_spawn_fires_on_bad_quiet_in_exec() {
    assert_clippy_rejects(
        "no_raw_spawn/bad.rs",
        "clippy::disallowed-methods",
        &["std::thread::spawn", "std::thread::Builder::spawn"],
    );
    assert_clippy_clean("no_raw_spawn/good.rs");
}

#[test]
fn unsafe_rule_fires_on_both_bad_shapes_quiet_on_good() {
    for bad in [
        "unsafe_safety/bad_no_comment.rs",
        "unsafe_safety/bad_outside_shims.rs",
    ] {
        assert_clippy_rejects(bad, "unsafe-code", &["usage of an `unsafe` block"]);
    }
    assert_clippy_clean("unsafe_safety/good.rs");
}

/// A reasoned `expect` silences the lint it names, and because that lint
/// does fire underneath, it is not reported as unfulfilled.
#[test]
fn suppression_with_reason_silences_and_is_not_unused() {
    assert_clippy_clean("suppression/good.rs");
}

#[test]
fn suppression_without_reason_does_not_suppress() {
    assert_clippy_rejects(
        "suppression/bad_no_reason.rs",
        "clippy::allow-attributes-without-reason",
        &[],
    );
}

#[test]
fn unused_suppression_is_flagged() {
    assert_clippy_rejects(
        "suppression/bad_unused.rs",
        "unfulfilled-lint-expectations",
        &[],
    );
}

/// Dogfood: the live workspace must be clean. This is the same check CI
/// runs as a blocking step; having it in tier-1 means a violation fails
/// `cargo test` before it ever reaches CI.
#[test]
fn workspace_is_clean() {
    let findings = lint_workspace(&workspace_root()).expect("workspace walk");
    assert!(
        findings.is_empty(),
        "workspace has lint findings:\n{}",
        bdclique_lint::report::to_text(&findings)
    );
}

/// Every ban that replaced a hand-rolled rule is still configured:
/// deleting one would loosen the gate without any test noticing.
#[test]
fn lint_config_keeps_every_ban() {
    let root = workspace_root();
    let clippy = read(&root.join("clippy.toml"));
    for path in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::thread::spawn",
        "std::thread::Builder::spawn",
        "std::thread::scope",
    ] {
        assert!(
            clippy.contains(&format!("path = \"{path}\"")),
            "clippy.toml no longer bans `{path}`"
        );
    }
    let manifest = read(&root.join("Cargo.toml"));
    for level in [
        "unsafe_code = \"forbid\"",
        "unfulfilled_lint_expectations = \"deny\"",
        "allow_attributes = \"deny\"",
        "allow_attributes_without_reason = \"deny\"",
    ] {
        assert!(manifest.contains(level), "[workspace.lints] lost `{level}`");
    }
}

/// `[workspace.lints]` binds only members that opt in: a crate added
/// without `[lints] workspace = true` would escape every ban above.
#[test]
fn every_member_inherits_workspace_lints() {
    let root = workspace_root();
    let manifest = read(&root.join("Cargo.toml"));
    let members = manifest
        .split_once("\nmembers = [")
        .and_then(|(_, rest)| rest.split_once(']'))
        .expect("[workspace] members list")
        .0;
    let dirs: Vec<&str> = members
        .split('"')
        .skip(1)
        .step_by(2)
        .chain(std::iter::once("."))
        .collect();
    assert!(dirs.len() > 10, "members list parsed: {dirs:?}");
    for dir in dirs {
        let member = read(&root.join(dir).join("Cargo.toml"));
        assert!(
            member.contains("\n[lints]\nworkspace = true\n"),
            "{dir}/Cargo.toml must opt in with `[lints] workspace = true`"
        );
    }
}
