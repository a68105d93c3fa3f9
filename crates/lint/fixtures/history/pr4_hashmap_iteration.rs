//! Replica of the PR 4 LDC-fetch bug: the pre-session code built a routing
//! instance by iterating a `HashMap`, whose per-process random order leaked
//! into the unit engine's greedy stage coloring — round counts varied
//! *across processes* for identical seeds. This exact shape must fail
//! `clippy::disallowed_types`.

use std::collections::HashMap;

pub struct FetchMessage {
    pub src: usize,
    pub slot: usize,
    pub targets: Vec<usize>,
}

pub fn fetch_instance(wanted: &[Vec<(usize, usize)>]) -> Vec<FetchMessage> {
    let mut targets_of: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
    for (v, pairs) in wanted.iter().enumerate() {
        for &(c, r) in pairs {
            targets_of.entry((r, c)).or_default().push(v);
        }
    }
    let mut messages = Vec::new();
    // The bug: iteration order decides message order, which decides the
    // greedy coloring, which decides the round count.
    for ((r, c), targets) in targets_of.iter() {
        messages.push(FetchMessage {
            src: *r,
            slot: *c,
            targets: targets.clone(),
        });
    }
    messages
}
