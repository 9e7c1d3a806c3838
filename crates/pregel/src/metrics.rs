//! Execution metrics of a Pregel job.
//!
//! Tables II and III of the paper report, per contig-labeling algorithm and
//! dataset, the number of supersteps, the number of messages and the running
//! time. [`Metrics`] captures exactly those quantities (plus a per-superstep
//! breakdown when enabled), and `ppa reproduce` prints those tables from it.

use std::time::Duration;

/// Metrics of a single superstep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SuperstepMetrics {
    /// Superstep number (0-based).
    pub superstep: usize,
    /// Number of vertices for which `compute` was invoked.
    pub active_vertices: usize,
    /// Messages sent during this superstep.
    pub messages_sent: u64,
    /// Messages that could not be delivered because the destination vertex
    /// does not exist.
    pub messages_dropped: u64,
    /// Wall-clock time of the superstep (compute + message shuffle).
    pub elapsed: Duration,
    /// Wall-clock time of the compute phase alone.
    pub compute_elapsed: Duration,
    /// Wall-clock time of the shuffle phase alone.
    pub shuffle_elapsed: Duration,
    /// Fraction of the worker pool's capacity spent executing jobs during
    /// this superstep: worker busy time summed over the pool, divided by
    /// `workers × (compute + shuffle wall-clock)`. Values near 1.0 mean the
    /// phases kept every thread busy; low values on short supersteps expose
    /// dispatch overhead and load imbalance.
    pub pool_utilization: f64,
    /// Fraction of the job's vertices whose `compute` ran this superstep
    /// (active / total). 1.0 means a dense frontier where the columnar
    /// store's linear scans dominate; values near 0 mean a sparse frontier
    /// where the bitset walk skips nearly everything.
    pub frontier_density: f64,
    /// Estimated heap bytes held by the vertex store's columns (IDs, values,
    /// halt bits, stamps) at the end of this superstep. Heap owned by the
    /// vertex values themselves is not included.
    pub store_resident_bytes: u64,
    /// Always 1.0: both planes store vertex IDs uncompressed (the sorted
    /// plane as a plain ID column, the dense plane as none at all). Kept for
    /// the readers of this field — the benchmark reports it and the
    /// checkpoint format carries it.
    pub id_column_compression: f64,
    /// Cooperative job-control polls performed at this superstep's boundary:
    /// 1 when a [`JobControl`](crate::control::JobControl) was installed on
    /// the context, 0 otherwise.
    pub cancellation_checks: u64,
    /// Bytes written to disk by the spill layer during this superstep: 0 by
    /// construction, since both superstep runners are resident under any
    /// [`SpillPolicy`](crate::SpillPolicy). Kept, with the two fields below,
    /// for their readers — the benchmark reports them and the checkpoint
    /// format carries them.
    pub spilled_bytes: u64,
    /// Bytes read back from spill files during this superstep (0, see
    /// [`spilled_bytes`](SuperstepMetrics::spilled_bytes)).
    pub spill_read_bytes: u64,
    /// Spill artefacts written this superstep (0, see
    /// [`spilled_bytes`](SuperstepMetrics::spilled_bytes)).
    pub spilled_runs: u64,
}

/// Metrics of a whole Pregel job.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Number of supersteps executed.
    pub supersteps: usize,
    /// Total messages sent across all supersteps.
    pub total_messages: u64,
    /// Total messages dropped (sent to non-existent vertices).
    pub total_dropped: u64,
    /// Sum over supersteps of the number of `compute` invocations.
    pub total_compute_calls: u64,
    /// Wall-clock time of the whole job.
    pub elapsed: Duration,
    /// Whether the job terminated by convergence (vs. hitting the superstep cap).
    pub converged: bool,
    /// Mean over all supersteps of
    /// [`frontier_density`](SuperstepMetrics::frontier_density). Recorded
    /// even when per-superstep tracking is disabled. (The *peak* is always
    /// 1.0 — every job starts with all vertices active — so the mean is the
    /// figure that distinguishes sparse-frontier jobs from dense ones.)
    pub avg_frontier_density: f64,
    /// Peak over all supersteps of
    /// [`store_resident_bytes`](SuperstepMetrics::store_resident_bytes).
    /// Recorded even when per-superstep tracking is disabled.
    pub peak_store_resident_bytes: u64,
    /// Total cooperative job-control polls across all superstep boundaries
    /// (see [`cancellation_checks`](SuperstepMetrics::cancellation_checks)).
    /// Recorded even when per-superstep tracking is disabled; 0 when no
    /// control handle was installed.
    pub total_cancellation_checks: u64,
    /// Total spill bytes written across the job (see
    /// [`spilled_bytes`](SuperstepMetrics::spilled_bytes): 0 for a Pregel
    /// job). Recorded even when per-superstep tracking is disabled.
    pub spilled_bytes: u64,
    /// Total spill bytes read back across the job (see
    /// [`spill_read_bytes`](SuperstepMetrics::spill_read_bytes)).
    pub spill_read_bytes: u64,
    /// Total spill artefacts written across the job (see
    /// [`spilled_runs`](SuperstepMetrics::spilled_runs)).
    pub spilled_runs: u64,
    /// Per-superstep breakdown (empty unless tracking is enabled).
    pub per_superstep: Vec<SuperstepMetrics>,
}

impl Metrics {
    /// Folds one finished superstep into the job totals, keeping its row when
    /// `keep` (per-superstep tracking) is on.
    pub(crate) fn record(&mut self, step: SuperstepMetrics, keep: bool) {
        // Running mean: superstep 0 is always dense (every vertex starts
        // active), so the peak carries no information — the mean is what
        // separates sparse-frontier jobs from dense ones.
        self.avg_frontier_density +=
            (step.frontier_density - self.avg_frontier_density) / (self.supersteps + 1) as f64;
        self.peak_store_resident_bytes = self
            .peak_store_resident_bytes
            .max(step.store_resident_bytes);
        self.total_cancellation_checks += step.cancellation_checks;
        self.supersteps += 1;
        self.total_messages += step.messages_sent;
        self.total_dropped += step.messages_dropped;
        self.total_compute_calls += step.active_vertices as u64;
        self.spilled_bytes += step.spilled_bytes;
        self.spill_read_bytes += step.spill_read_bytes;
        self.spilled_runs += step.spilled_runs;
        if keep {
            self.per_superstep.push(step);
        }
    }

    /// Merges another job's metrics into this one (used when an operation runs
    /// several Pregel jobs back to back, e.g. list ranking plus its S-V cycle
    /// fallback, and we want the combined cost).
    pub fn absorb(&mut self, other: &Metrics) {
        self.supersteps += other.supersteps;
        self.total_messages += other.total_messages;
        self.total_dropped += other.total_dropped;
        self.total_compute_calls += other.total_compute_calls;
        self.elapsed += other.elapsed;
        self.converged &= other.converged;
        // Supersteps-weighted mean (self.supersteps was already summed
        // above), so absorbing a long sparse job and a short dense one lands
        // where it should.
        if self.supersteps > 0 {
            let own = (self.supersteps - other.supersteps) as f64;
            self.avg_frontier_density = (self.avg_frontier_density * own
                + other.avg_frontier_density * other.supersteps as f64)
                / self.supersteps as f64;
        }
        self.peak_store_resident_bytes = self
            .peak_store_resident_bytes
            .max(other.peak_store_resident_bytes);
        self.total_cancellation_checks += other.total_cancellation_checks;
        self.spilled_bytes += other.spilled_bytes;
        self.spill_read_bytes += other.spill_read_bytes;
        self.spilled_runs += other.spilled_runs;
        self.per_superstep
            .extend(other.per_superstep.iter().cloned());
    }
}

impl std::fmt::Display for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "supersteps={} messages={} runtime={:.3}s converged={}",
            self.supersteps,
            self.total_messages,
            self.elapsed.as_secs_f64(),
            self.converged
        )
    }
}

/// Metrics of one keyed pass ([`fold_buckets_on`](crate::keycount::fold_buckets_on)
/// and the passes built on it), in the shape of the paper's mini MapReduce:
/// input records are mapped to keyed pairs, the pairs are shuffled, and each
/// key's group is reduced to outputs. Each caller documents what its records,
/// pairs and groups are.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MapReduceMetrics {
    /// Number of input records fed to the pass.
    pub input_records: u64,
    /// Number of keyed pairs the pass shuffled. For a
    /// [`fold_buckets_on`](crate::keycount::fold_buckets_on) pass: the keys
    /// the scattered records stand for — one per (k+1)-mer window in DBG
    /// construction's count, though an 8-byte record, a reference into the
    /// read slab, stands for about ten of them.
    pub pairs_shuffled: u64,
    /// Number of distinct keys (groups) reduced.
    pub groups: u64,
    /// Number of output records produced.
    pub output_records: u64,
    /// Wall-clock time of the whole pass.
    pub elapsed: Duration,
    /// The first lap of `elapsed` for a
    /// [`fold_buckets_on`](crate::keycount::fold_buckets_on) pass: planning
    /// the buckets, then every scan task and its pushes, spill flushes
    /// included. 0 for any other pass.
    pub scatter_elapsed: Duration,
    /// The second lap: the barrier, every worker's fold of its bucket range
    /// (spilled segments read back included), and freeing the buffers.
    pub fold_elapsed: Duration,
    /// The third lap, for a
    /// [`count_keys_on`](crate::keycount::count_keys_on) pass only: sorting
    /// and merging the survivors. The laps sum to `elapsed`.
    pub sort_elapsed: Duration,
    /// Bytes written to disk: for a
    /// [`fold_buckets_on`](crate::keycount::fold_buckets_on) pass, the bytes
    /// of the record segments its scatter workers flushed under a
    /// [`SpillPolicy`](crate::SpillPolicy) cap. 0 when nothing spilled.
    pub spilled_bytes: u64,
    /// Bytes read back from spill files.
    pub spill_read_bytes: u64,
    /// Times a scatter worker flushed its buckets' records as segments.
    pub spilled_runs: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_adds_up() {
        let mut a = Metrics {
            supersteps: 3,
            total_messages: 10,
            total_dropped: 1,
            total_compute_calls: 30,
            elapsed: Duration::from_millis(5),
            converged: true,
            avg_frontier_density: 0.5,
            peak_store_resident_bytes: 100,
            total_cancellation_checks: 3,
            spilled_bytes: 100,
            spill_read_bytes: 50,
            spilled_runs: 2,
            per_superstep: vec![],
        };
        let b = Metrics {
            supersteps: 2,
            total_messages: 7,
            total_dropped: 0,
            total_compute_calls: 20,
            elapsed: Duration::from_millis(3),
            converged: true,
            avg_frontier_density: 0.75,
            peak_store_resident_bytes: 64,
            total_cancellation_checks: 2,
            spilled_bytes: 10,
            spill_read_bytes: 5,
            spilled_runs: 1,
            per_superstep: vec![SuperstepMetrics {
                superstep: 0,
                active_vertices: 4,
                messages_sent: 7,
                messages_dropped: 0,
                elapsed: Duration::from_millis(3),
                compute_elapsed: Duration::from_millis(2),
                shuffle_elapsed: Duration::from_millis(1),
                pool_utilization: 0.5,
                frontier_density: 0.75,
                store_resident_bytes: 64,
                id_column_compression: 1.0,
                cancellation_checks: 1,
                spilled_bytes: 10,
                spill_read_bytes: 5,
                spilled_runs: 1,
            }],
        };
        a.absorb(&b);
        assert_eq!(a.supersteps, 5);
        assert_eq!(a.total_messages, 17);
        assert_eq!(a.total_compute_calls, 50);
        assert_eq!(a.per_superstep.len(), 1);
        assert_eq!(a.total_cancellation_checks, 5);
        assert!(a.converged);
        // Density is a supersteps-weighted mean (3 steps at 0.5, 2 at 0.75);
        // the footprint peak takes the max across absorbed jobs.
        assert!((a.avg_frontier_density - 0.6).abs() < 1e-12);
        assert_eq!(a.peak_store_resident_bytes, 100);
        assert_eq!(a.spilled_bytes, 110);
        assert_eq!(a.spill_read_bytes, 55);
        assert_eq!(a.spilled_runs, 3);
    }

    #[test]
    fn absorb_propagates_non_convergence() {
        let mut a = Metrics {
            converged: true,
            ..Default::default()
        };
        let b = Metrics {
            converged: false,
            ..Default::default()
        };
        a.absorb(&b);
        assert!(!a.converged);
    }

    #[test]
    fn display_contains_key_numbers() {
        let m = Metrics {
            supersteps: 4,
            total_messages: 10,
            converged: true,
            ..Default::default()
        };
        let s = m.to_string();
        assert!(s.contains("supersteps=4") && s.contains("messages=10"));
    }
}
