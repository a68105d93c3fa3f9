// lint-fixture-as: crates/netsim/src/fixture.rs
//! The fixed shape: randomness from a seeded stream, time from the
//! simulator's round counter.

fn seeded(seed: u64) -> u64 {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    rng.next_u64()
}

fn round_clock(net: &Network) -> u64 {
    net.rounds()
}
