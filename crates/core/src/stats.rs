//! Workflow statistics: everything the paper's evaluation section reports.
//!
//! The bench harnesses regenerate the paper's tables directly from
//! [`WorkflowStats`]: per-operation wall-clock times (Figure 12), the
//! superstep/message/runtime metrics of the two contig-labeling rounds
//! (Tables II and III), the vertex-count reduction across rounds and the N50
//! before/after the second merging round (claims in Section V).

use ppa_pregel::MapReduceMetrics;
use ppa_pregel::Metrics;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// The N50 of a set of contig lengths — re-exported from [`ppa_quality`],
/// the workspace's single Nx implementation (see [`ppa_quality::nx`]).
pub use ppa_quality::n50;

/// Wall-clock timing of one pipeline stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
// ppa_lint: allow(test-only-pub) the element type of the public `WorkflowStats::timings`
pub struct StageTiming {
    /// Stage name (e.g. `"① DBG construction"`).
    pub stage: String,
    /// Elapsed wall-clock time.
    pub elapsed: Duration,
}

/// Statistics of one contig-labeling run, as reported in Tables II/III.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LabelStats {
    /// Number of supersteps.
    pub supersteps: usize,
    /// Number of messages.
    pub messages: u64,
    /// Wall-clock runtime.
    pub elapsed: Duration,
    /// Whether the cycle fallback (S-V over remaining vertices) ran.
    pub used_cycle_fallback: bool,
    /// Number of vertices that received a label.
    pub labeled_vertices: usize,
    /// Number of ambiguous vertices.
    pub ambiguous_vertices: usize,
    /// Mean fraction of vertices computing per superstep (active / total);
    /// near 1.0 is a dense frontier throughout, values near 0 mean the
    /// engine's bitset walk skipped nearly the whole column on most
    /// supersteps.
    pub avg_frontier_density: f64,
    /// Peak estimated heap footprint of the Pregel vertex store's columns
    /// during the labeling job: the dense store's value and halted columns
    /// (`DenseSet::resident_bytes`).
    pub peak_store_resident_bytes: u64,
    /// Cooperative job-control polls performed at the labeling job's
    /// superstep boundaries (0 when no control handle was installed).
    pub cancellation_checks: u64,
    /// Bytes the labeling job spilled to disk: 0 by construction, since
    /// labeling runs resident under any `SpillPolicy`. Kept, with the two
    /// fields below, because the benchmark sums every stage's spill counters
    /// and the checkpoint format carries them.
    pub spilled_bytes: u64,
    /// Bytes the labeling job read back from spill files (0, see
    /// [`spilled_bytes`](LabelStats::spilled_bytes)).
    pub spill_read_bytes: u64,
    /// Spill artefacts the labeling job wrote (0, see
    /// [`spilled_bytes`](LabelStats::spilled_bytes)).
    pub spilled_runs: u64,
}

impl LabelStats {
    /// Builds label stats from a labeling outcome's metrics.
    pub fn from_metrics(
        metrics: &Metrics,
        labeled: usize,
        ambiguous: usize,
        fallback: bool,
    ) -> Self {
        LabelStats {
            supersteps: metrics.supersteps,
            messages: metrics.total_messages,
            elapsed: metrics.elapsed,
            used_cycle_fallback: fallback,
            labeled_vertices: labeled,
            ambiguous_vertices: ambiguous,
            avg_frontier_density: metrics.avg_frontier_density,
            peak_store_resident_bytes: metrics.peak_store_resident_bytes,
            cancellation_checks: metrics.total_cancellation_checks,
            spilled_bytes: metrics.spilled_bytes,
            spill_read_bytes: metrics.spill_read_bytes,
            spilled_runs: metrics.spilled_runs,
        }
    }
}

/// Statistics of one merging round.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MergeStats {
    /// Label groups processed.
    pub groups: usize,
    /// Contigs emitted.
    pub contigs: usize,
    /// Short dangling groups dropped as tips.
    pub dropped_tips: usize,
    /// The merging pass in mini-MapReduce terms
    /// ([`MergeOutcome::mapreduce`](crate::ops::MergeOutcome::mapreduce)).
    pub mapreduce: MapReduceMetrics,
}

/// Statistics of error correction (operations ④ and ⑤).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CorrectionStats {
    /// Contigs pruned by bubble filtering.
    pub bubbles_pruned: usize,
    /// Bubble candidate groups examined.
    pub bubble_groups: usize,
    /// k-mer vertices deleted by tip removing.
    pub tip_kmers_deleted: usize,
    /// Contigs deleted by tip removing.
    pub tip_contigs_deleted: usize,
    /// Pregel metrics of the tip-removal job. Its spill counters read 0 by
    /// construction — the job runs resident on the dense plane under any
    /// `SpillPolicy` — and are kept because the benchmark sums them and the
    /// checkpoint format carries them.
    pub tip_metrics: Metrics,
}

/// Graph sizes across the pipeline — the vertex-count reduction the paper
/// highlights (46.97 M → 1.00 M → 68,264 for HC-2).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
// ppa_lint: allow(test-only-pub) the type of the public `WorkflowStats::node_counts`
pub struct NodeCounts {
    /// k-mer vertices right after DBG construction.
    pub kmer_vertices: usize,
    /// Nodes (ambiguous k-mers + contigs) after the first merging round.
    pub after_first_merge: usize,
    /// Nodes after the final merging round.
    pub after_final_merge: usize,
}

/// Every statistic collected while running the standard workflow.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkflowStats {
    /// DBG-construction statistics.
    pub construct: crate::ops::construct::ConstructStats,
    /// Labeling statistics of the first round (unambiguous k-mers → Table II).
    pub label_round1: LabelStats,
    /// Merging statistics of the first round.
    pub merge_round1: MergeStats,
    /// Error-correction statistics (one entry per correction round).
    pub corrections: Vec<CorrectionStats>,
    /// Labeling statistics of the later rounds (contigs → Table III).
    pub label_round2: Vec<LabelStats>,
    /// Merging statistics of the later rounds.
    pub merge_round2: Vec<MergeStats>,
    /// Vertex counts across the pipeline.
    pub node_counts: NodeCounts,
    /// N50 of the contigs produced by the first merging round.
    pub n50_after_round1: usize,
    /// N50 of the final contigs.
    pub n50_final: usize,
    /// Per-stage wall-clock timings, in execution order.
    pub timings: Vec<StageTiming>,
    /// End-to-end wall-clock time.
    pub total_elapsed: Duration,
    /// Why and where the run was cut short by its job control, e.g.
    /// `"deadline exceeded (at stage label)"` — `None` for a run that
    /// completed (or was never given a control handle). Set by the
    /// pipeline-observer `on_cancelled` hook.
    pub cancelled: Option<String>,
}

impl WorkflowStats {
    /// Records a stage timing.
    pub fn record_stage(&mut self, stage: impl Into<String>, elapsed: Duration) {
        self.timings.push(StageTiming {
            stage: stage.into(),
            elapsed,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n50_matches_hand_computed_examples() {
        // Standard example: lengths 2,2,2,3,3,4,8,8 → total 32, half 16;
        // sorted desc 8,8,4,3,3,2,2,2 → cumulative 8,16 → N50 = 8.
        assert_eq!(n50(&[2, 2, 2, 3, 3, 4, 8, 8]), 8);
        // Single contig.
        assert_eq!(n50(&[100]), 100);
        // Even split between two contigs: the first already covers half.
        assert_eq!(n50(&[50, 50]), 50);
        // Heavier tail.
        assert_eq!(n50(&[1, 1, 1, 1, 10]), 10);
        assert_eq!(n50(&[]), 0);
    }

    #[test]
    fn n50_is_invariant_to_order() {
        let a = n50(&[5, 9, 1, 3, 7]);
        let b = n50(&[9, 7, 5, 3, 1]);
        assert_eq!(a, b);
    }

    #[test]
    fn stage_timings_accumulate() {
        let mut stats = WorkflowStats::default();
        stats.record_stage("construct", Duration::from_millis(5));
        stats.record_stage("label", Duration::from_millis(3));
        assert_eq!(stats.timings.len(), 2);
        assert_eq!(stats.timings[1].elapsed, Duration::from_millis(3));
        assert_eq!(stats.timings[0].stage, "construct");
    }

    #[test]
    fn label_stats_from_metrics() {
        let metrics = Metrics {
            supersteps: 12,
            total_messages: 345,
            elapsed: Duration::from_millis(7),
            converged: true,
            avg_frontier_density: 0.8,
            peak_store_resident_bytes: 4096,
            ..Default::default()
        };
        let ls = LabelStats::from_metrics(&metrics, 100, 7, true);
        assert_eq!(ls.supersteps, 12);
        assert_eq!(ls.messages, 345);
        assert_eq!(ls.labeled_vertices, 100);
        assert_eq!(ls.ambiguous_vertices, 7);
        assert!(ls.used_cycle_fallback);
        assert_eq!(ls.avg_frontier_density, 0.8);
        assert_eq!(ls.peak_store_resident_bytes, 4096);
    }
}
