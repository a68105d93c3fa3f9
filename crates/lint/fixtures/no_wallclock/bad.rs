//! Known-bad: wall-clock inputs in schedule-computing code. Identical
//! inputs must produce identical schedules on every process, so the root
//! `clippy.toml` bans the clock reads (`clippy::disallowed_methods`).

use std::time::{Instant, SystemTime};

pub fn clock_leaks() -> u64 {
    let t = Instant::now();
    let _ = SystemTime::now();
    t.elapsed().as_nanos() as u64
}
