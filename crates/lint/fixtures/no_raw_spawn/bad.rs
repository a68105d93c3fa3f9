//! Known-bad: raw threads outside the rayon shim's scoped fan-out. A
//! thread can outlive the step that started it, so a snapshot taken
//! between two steps would no longer describe the whole run; the root
//! `clippy.toml` bans both spawn paths (`clippy::disallowed_methods`).

use std::thread;

pub fn fire_and_forget(data: Vec<u8>) {
    thread::spawn(move || {
        let _ = data.len();
    });
}

pub fn named_thread() {
    let _ = thread::Builder::new().name("rogue".into()).spawn(|| {});
}
