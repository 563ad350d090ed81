//! Simulation configuration.

use tobsvd_types::Delta;

/// Static parameters of a simulation run.
///
/// ```
/// use tobsvd_sim::SimConfig;
/// let cfg = SimConfig::new(16).with_seed(42);
/// assert_eq!(cfg.n, 16);
/// ```
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of validators `n`.
    pub n: usize,
    /// The network delay bound Δ, in ticks.
    pub delta: Delta,
    /// RNG seed; every run with the same seed and inputs is bit-identical.
    pub seed: u64,
}

impl SimConfig {
    /// Configuration for `n` validators with default Δ and seed 0.
    pub fn new(n: usize) -> Self {
        SimConfig { n, delta: Delta::default(), seed: 0 }
    }

    /// Sets Δ.
    pub fn with_delta(mut self, delta: Delta) -> Self {
        self.delta = delta;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let cfg = SimConfig::new(8).with_delta(Delta::new(4)).with_seed(9);
        assert_eq!(cfg.n, 8);
        assert_eq!(cfg.delta.ticks(), 4);
        assert_eq!(cfg.seed, 9);
    }
}
