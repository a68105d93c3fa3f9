//! The sanctioned shape, as in the rayon shim: a scoped fan-out whose
//! workers are joined before it returns, opted out of the ban at the one
//! site with a reason.

pub fn doubled(chunks: Vec<Vec<u64>>) -> Vec<u64> {
    #[expect(
        clippy::disallowed_methods,
        reason = "the sanctioned fan-out: scoped workers cannot outlive this collect"
    )]
    let out: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| scope.spawn(move || chunk.into_iter().map(|x| 2 * x).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    out
}
