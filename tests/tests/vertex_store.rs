//! Equivalence pins for the jobs that left the sorted, hash-partitioned
//! vertex store for the dense rank plane, at two levels.
//!
//! * **operation level** — `remove_tips_on` over one fixed post-merge graph
//!   deletes, sends and drops exactly what it did on the sorted store before
//!   it moved to the dense plane (literal counts), and is byte-identical for
//!   every worker count: the dense plane's range partition must not leak
//!   into the REQUEST/DELETE protocol, exercising the removal-heavy path;
//! * **workflow level** — a full error-heavy assembly (bubbles + tips over
//!   two correction rounds) yields the same contig content for every worker
//!   count.
//!
//! (The superstep runner itself is pinned against a sequential BSP loop in
//! `tests/dense_plane.rs`, and the store's bulk build against a hash map
//! inside `ppa_pregel::vertex_set`.)

use ppa_assembler::ops::construct::ConstructConfig;
use ppa_assembler::ops::merge::MergeConfig;
use ppa_assembler::ops::tip::{remove_tips_on, TipConfig};
use ppa_assembler::pipeline::{Construct, Label, Merge};
use ppa_assembler::{assemble, AssemblyConfig, GraphState, Pipeline};
use ppa_pregel::ExecCtx;
use ppa_readsim::{GenomeConfig, ReadSimConfig};
use ppa_seq::ReadSet;
use ppa_tests::fingerprint;

// ---------------------------------------------------------------------------
// Operation level: tip removal over one fixed graph, across worker counts
// ---------------------------------------------------------------------------

/// Error-heavy reads: dense coverage of a reference plus diverging reads that
/// plant tips and bubbles for the correction operations to chew on.
fn error_heavy_reads(seed: u64) -> ReadSet {
    let reference = GenomeConfig {
        length: 4_000,
        repeat_families: 2,
        repeat_copies: 2,
        repeat_length: 80,
        seed,
        ..Default::default()
    }
    .generate();
    ReadSimConfig {
        read_length: 90,
        coverage: 30.0,
        substitution_rate: 0.01, // high error rate → plenty of tips/bubbles
        indel_rate: 0.0,
        n_rate: 0.0,
        both_strands: true,
        seed: seed + 1,
    }
    .simulate(&reference)
}

#[test]
fn remove_tips_is_identical_across_worker_counts() {
    let reads = error_heavy_reads(29);
    // Build ONE post-merge graph (fixed IDs), keeping even short dangling
    // contigs (threshold 0) so plenty of tips survive into the operation.
    let mut state = GraphState::new(&reads);
    Pipeline::new()
        .then(Construct::new(ConstructConfig {
            k: 21,
            min_coverage: 0,
            batch_size: 1024,
        }))
        .then(Label::list_ranking())
        .then(Merge::new(MergeConfig {
            k: 21,
            tip_length_threshold: 0,
        }))
        .run(&mut state, &ExecCtx::new(2));
    assert!(
        !state.ambiguous_kmers.is_empty(),
        "error-heavy reads must create branches"
    );

    let config = TipConfig {
        k: 21,
        tip_length_threshold: 80,
    };
    let fingerprint = |workers: usize| {
        let out = remove_tips_on(
            &ExecCtx::new(workers),
            &state.ambiguous_kmers,
            &state.contigs,
            &config,
        );
        let metrics = &out.metrics;
        let costs = (
            out.deleted_kmers,
            out.deleted_contigs,
            metrics.supersteps,
            metrics.total_messages,
            metrics.total_dropped,
        );
        let mut kmers: Vec<u64> = out.kmers.iter().map(|n| n.id).collect();
        let mut contigs: Vec<(u64, usize)> = out.contigs.iter().map(|c| (c.id, c.len())).collect();
        kmers.sort_unstable();
        contigs.sort_unstable();
        (costs, kmers, contigs)
    };

    let reference = fingerprint(1);
    // Deleted k-mers and contigs, supersteps, messages and drops, as the job
    // read on the sorted, hash-partitioned store at every worker count
    // before it ran on ranks: the removal-heavy workload deletes 497
    // vertices.
    assert_eq!(reference.0, (3, 494, 7, 7_603, 3_139));
    for workers in [2usize, 3, 4, 7] {
        assert_eq!(fingerprint(workers), reference, "workers = {workers}");
    }
}

// ---------------------------------------------------------------------------
// Workflow level: error-heavy assembly across worker counts
// ---------------------------------------------------------------------------

#[test]
fn removal_heavy_assembly_is_worker_count_independent() {
    let reads = error_heavy_reads(41);
    let assembly_for = |workers: usize| {
        assemble(
            &reads,
            &AssemblyConfig {
                k: 21,
                min_kmer_coverage: 1,
                workers,
                error_correction_rounds: 2,
                min_contig_length: 0,
                ..Default::default()
            },
        )
    };

    let reference = assembly_for(1);
    assert!(!reference.contigs.is_empty());
    // The correction rounds must have exercised the removal path.
    let deleted: usize = reference
        .stats
        .corrections
        .iter()
        .map(|c| c.tip_kmers_deleted + c.tip_contigs_deleted + c.bubbles_pruned)
        .sum();
    assert!(
        deleted > 0,
        "expected tips/bubbles in an error-heavy dataset"
    );
    // Frontier/footprint metrics must flow through the observer path. The
    // density is a per-superstep mean, so list-ranking's long sparse tail
    // (finished vertices halt and stop computing) must pull it below 1.0.
    let density = reference.stats.label_round1.avg_frontier_density;
    assert!(density > 0.0 && density < 1.0, "density = {density}");
    assert!(reference.stats.label_round1.peak_store_resident_bytes > 0);

    let expected = fingerprint(&reference.contigs);
    for workers in [2usize, 4] {
        let assembly = assembly_for(workers);
        assert_eq!(
            fingerprint(&assembly.contigs),
            expected,
            "workers = {workers}"
        );
    }
}
