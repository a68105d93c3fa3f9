// lint-fixture-as: crates/codes/src/fixture.rs
//! Known-bad: a raw thread outside the rayon shim.

use std::thread;

fn fire_and_forget(data: Vec<u8>) {
    thread::spawn(move || {
        let _ = data.len();
    });
}

fn named_thread() {
    let _ = thread::Builder::new().name("rogue".into()).spawn(|| {});
}
