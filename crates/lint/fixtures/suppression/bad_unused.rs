//! Known-bad: an expectation that suppresses nothing must be removed. The
//! workspace denies `unfulfilled_lint_expectations`.

#[expect(clippy::needless_range_loop, reason = "stale after a refactor")]
pub fn plain() -> u64 {
    7
}
