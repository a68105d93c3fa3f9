//! Known-bad: `unsafe` inside a shim. The shims inherit the workspace's
//! `unsafe_code = "forbid"` like every other member.

pub fn transmute_len(bytes: &[u8]) -> u32 {
    unsafe { *(bytes.as_ptr() as *const u32) }
}
