//! Known-bad: `unsafe` in a simulator crate. `[workspace.lints.rust]`
//! forbids `unsafe_code` in every member; a SAFETY comment does not help.

pub fn sneaky(bytes: &[u8]) -> u32 {
    // SAFETY: a comment does not help — unsafe is forbidden here entirely.
    unsafe { *(bytes.as_ptr() as *const u32) }
}
