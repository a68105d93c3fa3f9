// lint-fixture-as: crates/shims/rayon/src/lib.rs
//! The sanctioned home: the rayon shim owns the fan-out threads.

use std::thread;

fn pool_worker() {
    let handle = thread::spawn(|| {});
    handle.join().ok();
}
