//! Quickstart: run every Table 1 protocol once against an adaptive
//! greedy adversary and print a verdict line per protocol.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use bdclique::adversary::adaptive::GreedyLoad;
use bdclique::adversary::Payload;
use bdclique::core::protocols::{
    AdaptiveAllToAll, AdaptiveTakeOne, AllToAllProtocol, DetHypercube, DetSqrt, NaiveExchange,
    NonAdaptiveAllToAll, RelayReplication,
};
use bdclique::core::AllToAllInstance;
use bdclique::netsim::{Adversary, Network};
use bdclique_bench::Trial;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let n = 16;
    let b = 1;
    let alpha = 0.07; // one corrupted edge per node per round at n = 16
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let inst = AllToAllInstance::random(n, b, &mut rng);

    let protocols: Vec<Box<dyn AllToAllProtocol>> = vec![
        Box::new(NaiveExchange),
        Box::new(RelayReplication { copies: 3 }),
        Box::new(NonAdaptiveAllToAll::default()),
        Box::new(DetSqrt::default()),
        Box::new(DetHypercube::default()),
        Box::new(AdaptiveTakeOne {
            line_capacity: 1,
            ..Default::default()
        }),
        Box::new(AdaptiveAllToAll {
            line_capacity: 1,
            ..Default::default()
        }),
    ];

    println!("n = {n}, B = 9 bits, alpha = {alpha} (budget = 1 edge/node/round)");
    println!("adversary: adaptive greedy bit-flipper\n");
    println!(
        "{:<30} {:>8} {:>8} {:>12} {:>10}",
        "protocol", "errors", "rounds", "bits sent", "corrupted"
    );
    for proto in &protocols {
        let adversary = Adversary::adaptive(GreedyLoad::new(Payload::Flip, 7));
        let mut net = Network::new(n, 9, alpha, adversary);
        match proto.run(&mut net, &inst) {
            Ok(out) => {
                let trial = Trial::score(&inst, &net, &out);
                println!(
                    "{:<30} {:>8} {:>8} {:>12} {:>10}",
                    proto.name(),
                    trial.errors,
                    trial.rounds,
                    trial.bits_sent,
                    trial.edges_corrupted
                );
            }
            Err(e) => println!("{:<30} error: {e}", proto.name()),
        }
    }
    println!(
        "\nThe unprotected baselines lose messages; every compiler of the\n\
         paper (rows 3-7) delivers all {} messages despite the adversary.",
        n * n
    );
}
