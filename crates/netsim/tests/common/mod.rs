//! Shared by the store tests: reaching the dense store by load alone.
//! Where the switch sits is `store.rs`'s to define; nothing here restates
//! it.

use bdclique_bits::BitVec;
use bdclique_netsim::Traffic;

/// Loads the empty `t` one frame at a time until it densifies, then clears
/// it again (a densified round never goes back). Returns how many frames
/// the switch took.
pub fn densify(t: &mut Traffic) -> usize {
    assert_eq!(t.frame_count(), 0, "densify starts from an empty round");
    let n = t.n();
    let mut slots = (0..n).flat_map(|u| (0..n).filter(move |&v| v != u).map(move |v| (u, v)));
    let mut loaded = Vec::new();
    while !t.is_dense() {
        let (u, v) = slots.next().expect("a full round is dense");
        t.send(u, v, BitVec::zeros(1));
        loaded.push((u, v));
    }
    for &(u, v) in &loaded {
        t.clear(u, v);
    }
    assert!(t.is_dense() && t.frame_count() == 0);
    loaded.len()
}
