//! The fixed shape: ordered containers, whose iteration order is a function
//! of the keys alone, so every process builds the same schedule.

use std::collections::{BTreeMap, BTreeSet};

pub fn order_is_key_order(map: &BTreeMap<u32, u32>) -> Vec<(u32, u32)> {
    map.iter().map(|(k, v)| (*k, *v)).collect()
}

pub fn keys_in_order(seen: &BTreeSet<u32>) -> Vec<u32> {
    seen.iter().copied().collect()
}
