//! The fixed shape: time is the simulator's round counter, an input like
//! any other, so identical inputs give identical schedules.

pub fn stage_of(round: u64, stage_len: u64) -> u64 {
    round / stage_len.max(1)
}
