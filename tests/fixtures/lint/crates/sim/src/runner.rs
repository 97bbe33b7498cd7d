//! `sim::runner` is in the `shard_parallel` registry: per-interval
//! arrival windows are generated concurrently, so every draw must be a
//! pure function of (seed, stream, counter). A seeded `ChaCha8Rng`
//! here is *stateful sequential* — its draws depend on draw order —
//! and `seeded-rng-only` must flag it at the token, while the same
//! type in the `#[cfg(test)]` module below stays clean.

pub fn generate_arrivals(seed: u64, count: usize) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(rng.gen::<f64>());
    }
    out
}

#[cfg(test)]
mod tests {
    // A reference generator in test code is fine — tests run serially.
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn reference_draws() {
        let _ = ChaCha8Rng::seed_from_u64(7);
    }
}
