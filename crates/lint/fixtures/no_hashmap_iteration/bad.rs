//! Known-bad: hash containers in schedule-computing code. Their iteration
//! order is process-random, so the root `clippy.toml` bans the types
//! themselves (`clippy::disallowed_types`), not only iterating over them.

use std::collections::{HashMap, HashSet};

pub fn order_leaks(map: &HashMap<u32, u32>) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for (k, v) in map.iter() {
        out.push((*k, *v));
    }
    out
}

pub fn keys_leak(seen: &HashSet<u32>) -> Vec<u32> {
    seen.iter().copied().collect()
}

pub fn for_in_leaks(seen: &HashSet<u32>) -> u32 {
    let mut acc = 0;
    for v in seen {
        acc ^= v;
    }
    acc
}
