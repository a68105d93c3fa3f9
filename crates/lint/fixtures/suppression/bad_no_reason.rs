//! Known-bad: a suppression with no reason. The workspace denies
//! `clippy::allow_attributes_without_reason` (and `allow` altogether:
//! suppressions are `#[expect(…, reason = "…")]`).

#[allow(clippy::needless_range_loop)]
pub fn sum_by_index(xs: &[u64]) -> u64 {
    let mut acc = 0;
    for i in 0..xs.len() {
        acc += xs[i];
    }
    acc
}
