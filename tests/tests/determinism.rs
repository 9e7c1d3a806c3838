//! Shuffle-semantics regression tests for the sort-based message plane.
//!
//! The runner delivers messages from flat sorted buffers and the keyed
//! passes fold flat buckets; these tests pin down the user-visible contract:
//! for a fixed configuration the full pipeline is byte-for-byte
//! deterministic, and the assembled *content* does not depend on the worker
//! count (only IDs/orientations may).

use ppa_assembler::ops::bubble::BubbleConfig;
use ppa_assembler::ops::construct::ConstructConfig;
use ppa_assembler::ops::merge::MergeConfig;
use ppa_assembler::ops::tip::TipConfig;
use ppa_assembler::pipeline::{Construct, FilterBubbles, FilterLength, Label, Merge, RemoveTips};
use ppa_assembler::{assemble, AsmNode, Assembly, AssemblyConfig, GraphState};
use ppa_assembler::{LabelingAlgorithm, NodeSet, Pipeline};
use ppa_pregel::ExecCtx;
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

/// The FASTA bytes of `config`'s paper workflow over `reads`, with
/// construct's k-mer graph expanded into `AsmNode`s, put through `permute`
/// and handed to labeling as an expanded node set.
fn fasta_with_permuted_vertices(
    reads: &ReadSet,
    config: &AssemblyConfig,
    permute: fn(&mut Vec<AsmNode>),
) -> Vec<u8> {
    let ctx = ExecCtx::new(config.workers);
    let mut state = GraphState::new(reads);
    Pipeline::new()
        .then(Construct::new(ConstructConfig {
            k: config.k,
            min_coverage: config.min_kmer_coverage,
            batch_size: 1024,
        }))
        .run(&mut state, &ctx);
    let NodeSet::Packed(graph) = &state.nodes else {
        panic!("construct leaves the k-mer graph");
    };
    let mut nodes = graph.to_nodes();
    permute(&mut nodes);
    state.nodes = NodeSet::Expanded(nodes);
    let merge = MergeConfig {
        k: config.k,
        tip_length_threshold: config.tip_length_threshold,
    };
    Pipeline::new()
        .then(Label::new(config.labeling))
        .then(Merge::new(merge.clone()))
        .repeat(
            config.error_correction_rounds,
            vec![
                Box::new(FilterBubbles::new(BubbleConfig {
                    max_edit_distance: config.bubble_edit_distance,
                })),
                Box::new(RemoveTips::new(TipConfig {
                    k: config.k,
                    tip_length_threshold: config.tip_length_threshold,
                })),
                Box::new(Label::new(config.labeling)),
                Box::new(Merge::new(merge)),
            ],
        )
        .then(FilterLength::new(config.min_contig_length))
        .run(&mut state, &ctx);
    let assembly = Assembly {
        contigs: state.output,
        stats: Default::default(),
    };
    let mut fasta = Vec::new();
    assembly
        .to_fasta()
        .write_fasta(&mut fasta)
        .expect("write to memory");
    fasta
}

#[test]
fn contigs_do_not_depend_on_the_order_of_constructs_vertices() {
    // Construct leaves its vertices as columns sorted by k-mer, which
    // round 1 ranks by position and which cannot be permuted. Labeling and
    // merging must not rely on that order: the graph's expanded copy, as it
    // is, reversed or rotated, is ranked by sorting and assembles to the
    // same FASTA bytes as the graph, contig IDs included.
    let reads = simulated_reads(97);
    let permutations: [fn(&mut Vec<AsmNode>); 3] = [
        |_| {},
        |vertices| vertices.reverse(),
        |vertices| {
            let third = vertices.len() / 3;
            vertices.rotate_left(third);
        },
    ];
    for labeling in [
        LabelingAlgorithm::ListRanking,
        LabelingAlgorithm::SimplifiedSV,
    ] {
        for workers in 1..=4 {
            let config = config(workers, labeling);
            let mut direct = Vec::new();
            assemble(&reads, &config)
                .to_fasta()
                .write_fasta(&mut direct)
                .expect("write to memory");
            assert!(direct.len() > 1_000, "{} FASTA bytes", direct.len());
            for (i, permute) in permutations.iter().enumerate() {
                let fasta = fasta_with_permuted_vertices(&reads, &config, *permute);
                assert!(
                    fasta == direct,
                    "permutation {i} changed the contigs ({labeling:?}, {workers} workers)"
                );
            }
        }
    }
}
