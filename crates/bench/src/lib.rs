//! # pepc-bench — the paper's evaluation, figure by figure.
//!
//! The `figures` binary (this crate's `src/bin/figures.rs`) regenerates
//! every figure of the paper's evaluation from the experiment bodies in
//! [`experiments`], driving the systems through `pepc_workload::harness`.
//! The benches under `benches/` measure what the figures do not (lock
//! strategies, burst sizes, slice scaling, capacity, storms, failover)
//! and feed the `scripts/bench_*.py` gates.

pub mod experiments;

pub use experiments::*;

/// Experiment scale: `quick` shrinks populations ~10× so the whole
/// figure suite completes in minutes; `full` is paper scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Full,
}

impl Scale {
    /// Scale a paper-sized population down for quick runs.
    pub fn users(&self, paper: u64) -> u64 {
        match self {
            Scale::Quick => (paper / 10).max(1),
            Scale::Full => paper,
        }
    }

    /// Measurement window per data point.
    pub fn duration(&self) -> std::time::Duration {
        match self {
            Scale::Quick => std::time::Duration::from_millis(300),
            Scale::Full => std::time::Duration::from_millis(1000),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_shrinks() {
        assert_eq!(Scale::Quick.users(1_000_000), 100_000);
        assert_eq!(Scale::Full.users(1_000_000), 1_000_000);
        assert_eq!(Scale::Quick.users(5), 1);
        // Event rates are wall-clock quantities: figures keep them at
        // paper values regardless of scale (only populations shrink).
        assert!(Scale::Quick.duration() < Scale::Full.duration());
    }
}
