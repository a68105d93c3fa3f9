//! Fixture self-tests: every rule fires on its known-bad snippet and stays
//! quiet on the fixed version — including replicas of the two historical
//! bugs (PR 4 HashMap-iteration, PR 9 unchecked allocation) that motivated
//! this lint. The final test dogfoods the lint over the live workspace.

use std::path::{Path, PathBuf};

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

fn rules_of(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn hashmap_iteration_fires_on_bad_quiet_on_good() {
    let bad = lint_fixture("no_hashmap_iteration/bad.rs");
    assert!(
        bad.iter()
            .filter(|f| f.rule == "no-hashmap-iteration")
            .count()
            >= 3,
        "expected .iter(), .iter() on a set, and for-in to fire: {bad:?}"
    );
    let good = lint_fixture("no_hashmap_iteration/good.rs");
    assert!(good.is_empty(), "good fixture must be clean: {good:?}");
}

#[test]
fn wallclock_fires_on_bad_quiet_on_good() {
    let bad = lint_fixture("no_wallclock/bad.rs");
    let rules = rules_of(&bad);
    assert!(
        rules
            .iter()
            .filter(|r| **r == "no-wallclock-nondeterminism")
            .count()
            >= 3,
        "Instant::now, SystemTime, and thread_rng must all fire: {bad:?}"
    );
    let good = lint_fixture("no_wallclock/good.rs");
    assert!(good.is_empty(), "good fixture must be clean: {good:?}");
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
fn unsafe_rule_fires_on_both_bad_shapes_quiet_on_good() {
    let outside = lint_fixture("unsafe_safety/bad_outside_shims.rs");
    assert!(
        outside
            .iter()
            .any(|f| f.rule == "unsafe-needs-safety-comment"),
        "unsafe outside shims must fire even with a SAFETY comment: {outside:?}"
    );
    let no_comment = lint_fixture("unsafe_safety/bad_no_comment.rs");
    assert!(
        no_comment
            .iter()
            .any(|f| f.rule == "unsafe-needs-safety-comment"),
        "unsafe in shims without SAFETY must fire: {no_comment:?}"
    );
    let good = lint_fixture("unsafe_safety/good.rs");
    assert!(good.is_empty(), "good fixture must be clean: {good:?}");
}

#[test]
fn raw_spawn_fires_on_bad_quiet_in_exec() {
    let bad = lint_fixture("no_raw_spawn/bad.rs");
    assert!(
        bad.iter().filter(|f| f.rule == "no-raw-spawn").count() >= 2,
        "thread::spawn and Builder::spawn must both fire: {bad:?}"
    );
    let good = lint_fixture("no_raw_spawn/good.rs");
    assert!(good.is_empty(), "the rayon shim may spawn: {good:?}");
}

#[test]
fn suppression_with_reason_silences_and_is_not_unused() {
    let good = lint_fixture("suppression/good.rs");
    assert!(
        good.is_empty(),
        "a reasoned suppression must silence the finding without tripping \
         unused-suppression: {good:?}"
    );
}

#[test]
fn suppression_without_reason_does_not_suppress() {
    let bad = lint_fixture("suppression/bad_no_reason.rs");
    let rules = rules_of(&bad);
    assert!(
        rules.contains(&"malformed-suppression"),
        "missing reason must be a finding: {bad:?}"
    );
    assert!(
        rules.contains(&"no-hashmap-iteration"),
        "a malformed suppression must not silence the violation: {bad:?}"
    );
}

#[test]
fn unused_suppression_is_flagged() {
    let bad = lint_fixture("suppression/bad_unused.rs");
    assert!(
        bad.iter().any(|f| f.rule == "unused-suppression"),
        "a suppression that suppresses nothing must be flagged: {bad:?}"
    );
}

#[test]
fn pr4_hashmap_iteration_replica_fires() {
    let bad = lint_fixture("history/pr4_hashmap_iteration.rs");
    assert!(
        bad.iter().any(|f| f.rule == "no-hashmap-iteration"),
        "the PR 4 LDC bug shape must fire: {bad:?}"
    );
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

/// Dogfood: the live workspace must be clean. This is the same check CI
/// runs as a blocking step; having it in tier-1 means a violation fails
/// `cargo test` before it ever reaches CI.
#[test]
fn workspace_is_clean() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint");
    let findings = lint_workspace(&root).expect("workspace walk");
    assert!(
        findings.is_empty(),
        "workspace has lint findings:\n{}",
        bdclique_lint::report::to_text(&findings)
    );
}
