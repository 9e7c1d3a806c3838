//! Runtime configuration for the Pregel engine.
//!
//! Where a job runs, and on how many workers, is not configuration: it is the
//! [`ExecCtx`](crate::ExecCtx) the caller passes to
//! [`run_dense_on`](crate::run_dense_on). A `PregelConfig` only bounds and
//! instruments the job.

/// Configuration for a Pregel job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PregelConfig {
    /// Safety cap on the number of supersteps: a job that reaches it stops
    /// there and reports `converged: false` in its metrics (all algorithms in
    /// this workspace are PPAs and terminate in `O(log n)` supersteps, so
    /// hitting the cap indicates a bug or, for list ranking, a cycle).
    pub max_supersteps: usize,
    /// Whether to record a per-superstep metrics breakdown in addition to the
    /// job totals.
    pub track_supersteps: bool,
}

impl PregelConfig {
    /// Sets the superstep cap.
    pub fn max_supersteps(mut self, cap: usize) -> PregelConfig {
        self.max_supersteps = cap;
        self
    }

    /// Enables or disables the per-superstep metrics breakdown.
    pub fn track_supersteps(mut self, track: bool) -> PregelConfig {
        self.track_supersteps = track;
        self
    }
}

impl Default for PregelConfig {
    fn default() -> PregelConfig {
        PregelConfig {
            max_supersteps: 10_000,
            track_supersteps: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods() {
        let c = PregelConfig::default()
            .max_supersteps(99)
            .track_supersteps(false);
        assert_eq!(c.max_supersteps, 99);
        assert!(!c.track_supersteps);
    }
}
