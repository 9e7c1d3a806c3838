//! Shuffle-semantics regression tests for the sort-based message plane.
//!
//! The runner and mini-MapReduce deliver messages from flat sorted buffers;
//! these tests pin down the user-visible contract: for a fixed configuration
//! the full pipeline is byte-for-byte deterministic, and the assembled
//! *content* does not depend on the worker count (only IDs/orientations may).

use ppa_assembler::{assemble, AssemblyConfig, LabelingAlgorithm};
use ppa_readsim::{GenomeConfig, ReadSimConfig};
use ppa_seq::ReadSet;
use ppa_tests::{canonical_multiset, fingerprint};

fn simulated_reads(seed: u64) -> ReadSet {
    let reference = GenomeConfig {
        length: 6_000,
        repeat_families: 3,
        repeat_copies: 2,
        repeat_length: 100,
        seed,
        ..Default::default()
    }
    .generate();
    ReadSimConfig {
        read_length: 100,
        coverage: 25.0,
        substitution_rate: 0.004,
        indel_rate: 0.0,
        n_rate: 0.001,
        both_strands: true,
        seed: seed + 1,
    }
    .simulate(&reference)
}

fn config(workers: usize, labeling: LabelingAlgorithm) -> AssemblyConfig {
    AssemblyConfig {
        k: 21,
        min_kmer_coverage: 1,
        tip_length_threshold: 80,
        bubble_edit_distance: 5,
        workers,
        labeling,
        error_correction_rounds: 1,
        min_contig_length: 0,
        spill: ppa_pregel::SpillPolicy::Off,
        exec: None,
    }
}

#[test]
fn pipeline_is_byte_identical_across_runs() {
    let reads = simulated_reads(71);
    for labeling in [
        LabelingAlgorithm::ListRanking,
        LabelingAlgorithm::SimplifiedSV,
    ] {
        let first = assemble(&reads, &config(4, labeling));
        assert!(!first.contigs.is_empty());
        for _ in 0..2 {
            let again = assemble(&reads, &config(4, labeling));
            assert_eq!(
                fingerprint(&first.contigs),
                fingerprint(&again.contigs),
                "repeated runs must produce byte-identical contigs ({labeling:?})"
            );
        }
    }
}

#[test]
fn pipeline_content_is_worker_count_independent() {
    let reads = simulated_reads(83);
    let reference = assemble(&reads, &config(1, LabelingAlgorithm::ListRanking));
    for workers in [2usize, 3, 7] {
        let other = assemble(&reads, &config(workers, LabelingAlgorithm::ListRanking));
        assert_eq!(
            canonical_multiset(&reference.contigs),
            canonical_multiset(&other.contigs),
            "worker count {workers} changed the assembled sequences"
        );
    }
}

#[test]
fn reduce_groups_arrive_ascending_by_key_within_each_worker() {
    // The ordering contract contig-ordinal minting relies on: the sort-merge
    // grouping hands every reduce worker its groups in strictly ascending key
    // order, regardless of how many map sources fed the shuffle. (The merge
    // path with several pre-sorted source buffers is exactly what a multi-map,
    // multi-reduce pass exercises.)
    let inputs: Vec<u64> = (0..10_000).rev().collect();
    let (per_worker, _) = ppa_pregel::mapreduce::map_reduce_on(
        &ppa_pregel::ExecCtx::new(5),
        inputs,
        |x: u64, out: &mut ppa_pregel::mapreduce::Emitter<'_, u64, u64>| out.emit(x % 701, x),
        |_w: usize, k: &u64, _vs: &mut [u64], out: &mut Vec<u64>| out.push(*k),
    );
    assert_eq!(per_worker.len(), 5);
    for keys in &per_worker {
        assert!(!keys.is_empty(), "every worker should own some keys");
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "group keys not strictly ascending within a worker: {keys:?}"
        );
    }
}
