//! Shared by the store tests: telling the two frame stores apart and
//! reaching the dense one, both by observation. Where the switch sits is
//! `store.rs`'s to define; nothing here restates it.

use bdclique_bits::BitVec;
use bdclique_netsim::Traffic;

/// The dense store holds at least `n²` slots; the sparse rows of a round
/// below the switch hold a small fraction of that.
pub fn is_dense(t: &Traffic) -> bool {
    t.store_bytes() >= t.n() * t.n() * std::mem::size_of::<Option<BitVec>>()
}

/// Loads the empty `t` one frame at a time until it densifies, then clears
/// it again (a densified round never goes back). Returns how many frames
/// the switch took.
pub fn densify(t: &mut Traffic) -> usize {
    assert_eq!(t.frame_count(), 0, "densify starts from an empty round");
    let n = t.n();
    let mut slots = (0..n).flat_map(|u| (0..n).filter(move |&v| v != u).map(move |v| (u, v)));
    let mut loaded = Vec::new();
    while !is_dense(t) {
        let (u, v) = slots.next().expect("a full round is dense");
        t.send(u, v, BitVec::zeros(1));
        loaded.push((u, v));
    }
    for &(u, v) in &loaded {
        t.clear(u, v);
    }
    assert!(is_dense(t) && t.frame_count() == 0);
    loaded.len()
}
