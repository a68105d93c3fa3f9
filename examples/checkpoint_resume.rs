//! Checkpoint/resume demo: run a protocol halfway, capture its full
//! execution state to a file, throw everything away, restore from the file
//! in a "new process", and finish — then verify the resumed run is
//! bit-identical to an uninterrupted one.
//!
//! ```sh
//! cargo run --release --example checkpoint_resume
//! ```
//!
//! The capture ([`bdclique::core::snapshot_run`]) serializes the network
//! (topology, round clock, stats, published log, adversary RNG state) and
//! the protocol session's dynamic state into one versioned byte document;
//! [`bdclique::core::restore_run`] rebuilds both against freshly
//! constructed protocol/instance/adversary specs. The `tables` bench binary
//! drives the same machinery via `--checkpoint-dir`.

use bdclique::adversary::adaptive::GreedyLoad;
use bdclique::adversary::Payload;
use bdclique::core::protocols::{AllToAllProtocol, DetHypercube, Step};
use bdclique::core::{restore_run, snapshot_run, AllToAllInstance};
use bdclique::netsim::{Adversary, Network};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let (n, b, bandwidth, alpha) = (16, 2, 9, 0.07);
    let crash_round = 4u64;
    let proto = DetHypercube::default();
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let inst = AllToAllInstance::random(n, b, &mut rng);
    // The adversary spec is rebuilt from the same constructor at restore;
    // its RNG *state* travels inside the snapshot, so corruption continues
    // exactly where it left off.
    let adversary = || Adversary::adaptive(GreedyLoad::new(Payload::Flip, 7));

    println!("det-hypercube, n = {n}, B = {bandwidth}, alpha = {alpha}");

    // ---- Reference: one uninterrupted run. ----
    let mut net = Network::new(n, bandwidth, alpha, adversary());
    let reference = proto.run(&mut net, &inst).expect("reference run");
    let ref_rounds = net.rounds();
    println!(
        "uninterrupted: {} rounds, {} errors",
        ref_rounds,
        inst.count_errors(&reference)
    );

    // ---- Segment 1: run to the crash point and checkpoint. ----
    let path = std::env::temp_dir().join("bdclique-checkpoint-demo.bin");
    {
        let mut net = Network::new(n, bandwidth, alpha, adversary());
        let mut session = proto.session(&net, &inst).expect("session");
        while net.rounds() < crash_round {
            match session.step(&mut net).expect("step") {
                Step::Running => {}
                Step::Done(_) => unreachable!("finished before the crash point"),
            }
        }
        let bytes = snapshot_run(&net, session.as_ref()).expect("snapshot");
        // Snapshot format 5 pins this document's size; a change to any codec
        // it contains shows here before it shows in a resumed run.
        assert_eq!(bytes.len(), 2324, "the checkpoint encoding changed");
        std::fs::write(&path, &bytes).expect("write checkpoint");
        println!(
            "checkpointed at round {} ({} bytes) -> {}",
            net.rounds(),
            bytes.len(),
            path.display()
        );
        // Everything in-memory is dropped here — the simulated crash.
    }

    // ---- Segment 2: a "fresh process" restores and finishes. ----
    let bytes = std::fs::read(&path).expect("read checkpoint");
    let (mut net, mut session) = restore_run(&bytes, adversary(), &proto, &inst).expect("restore");
    println!("restored at round {}", net.rounds());
    assert_eq!(net.rounds(), crash_round);
    let resumed = loop {
        match session.step(&mut net).expect("step") {
            Step::Running => {}
            Step::Done(out) => break out,
        }
    };
    println!(
        "resumed run:   {} rounds, {} errors",
        net.rounds(),
        inst.count_errors(&resumed)
    );

    assert_eq!(net.rounds(), ref_rounds, "round counts must match");
    assert_eq!(resumed, reference, "outputs must be bit-identical");
    let _ = std::fs::remove_file(&path);
    println!("resumed output is bit-identical to the uninterrupted run");
}
