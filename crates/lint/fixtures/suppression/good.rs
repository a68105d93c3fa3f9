//! A well-formed suppression: an `expect` that names the lint it silences,
//! says why, and is fulfilled (the loop below does trip the lint).

#[expect(
    clippy::needless_range_loop,
    reason = "the index is the point: this mirrors a row-major kernel"
)]
pub fn sum_by_index(xs: &[u64]) -> u64 {
    let mut acc = 0;
    for i in 0..xs.len() {
        acc += xs[i];
    }
    acc
}
