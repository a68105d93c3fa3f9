//! Direct use of the resilient super-message routing API (Theorem 4.1):
//! build an instance, route it under attack with both engines, and compare
//! the reports.
//!
//! ```sh
//! cargo run --release --example routing_demo
//! ```

use bdclique::adversary::adaptive::GreedyLoad;
use bdclique::adversary::Payload;
use bdclique::bits::BitVec;
use bdclique::core::routing::{route, RouterConfig, RoutingInstance, RoutingMode, SuperMessage};
use bdclique::netsim::{Adversary, Network};

fn main() {
    let n = 256usize;
    let k = 2usize;
    let payload_bits = 64usize;

    // Every node sends k super-messages; message (u, j) goes to two targets.
    let instance = RoutingInstance {
        n,
        payload_bits,
        messages: (0..n)
            .flat_map(|u| {
                (0..k).map(move |j| SuperMessage {
                    src: u,
                    slot: j,
                    payload: BitVec::from_fn(payload_bits, |i| (i * 31 + u * 7 + j) % 5 < 2),
                    targets: vec![(u + 3 * j + 1) % n],
                })
            })
            .collect(),
    };

    println!(
        "routing {} super-messages of {payload_bits} bits over n = {n} (budget 1/node/round)\n",
        instance.messages.len()
    );
    for (mode, name) in [
        (RoutingMode::CoverFree, "cover-free (§4.2)"),
        (RoutingMode::Unit, "scheduled-unit"),
    ] {
        let cfg = RouterConfig { mode };
        let adversary = Adversary::adaptive(GreedyLoad::new(Payload::Flip, 3));
        let mut net = Network::new(n, 18, 1.2 / n as f64, adversary);
        match route(&mut net, &instance, &cfg) {
            Ok(out) => {
                let mut wrong = 0usize;
                for msg in &instance.messages {
                    for &t in &msg.targets {
                        if out.delivered[t].get(&(msg.src, msg.slot)) != Some(&msg.payload) {
                            wrong += 1;
                        }
                    }
                }
                println!(
                    "{name:<20} rounds={:<3} stages={:<3} chunks={} decode-failures={} wrong={}",
                    out.report.rounds,
                    out.report.stages,
                    out.report.chunks,
                    out.report.decode_failures,
                    wrong
                );
            }
            Err(e) => println!("{name:<20} infeasible: {e}"),
        }
    }
    println!(
        "\nBoth engines deliver every payload; the cover-free engine routes\n\
         all k messages per node in one 2-round wave per chunk (Theorem 4.1's\n\
         O(1)-round regime), while the unit engine schedules stages."
    );
}
