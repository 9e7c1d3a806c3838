//! Shuffle-semantics regression tests for the sort-based message plane.
//!
//! The runner delivers messages from flat sorted buffers and the keyed
//! passes fold flat buckets; these tests pin down the user-visible contract:
//! for a fixed configuration the full pipeline is byte-for-byte
//! deterministic, and its FASTA — contig names, order, orientation and
//! sequences — does not depend on the worker count.

use ppa_assembler::ops::bubble::BubbleConfig;
use ppa_assembler::ops::construct::ConstructConfig;
use ppa_assembler::ops::merge::MergeConfig;
use ppa_assembler::ops::tip::TipConfig;
use ppa_assembler::pipeline::{Construct, FilterBubbles, FilterLength, Label, Merge, RemoveTips};
use ppa_assembler::{assemble, AsmNode, Assembly, AssemblyConfig, GraphState};
use ppa_assembler::{LabelingAlgorithm, Pipeline, PipelineError};
use ppa_pregel::ExecCtx;
use ppa_readsim::{GenomeConfig, ReadSimConfig};
use ppa_seq::ReadSet;
use ppa_tests::fingerprint;

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

/// The assembly's FASTA bytes.
fn fasta(assembly: &Assembly) -> Vec<u8> {
    let mut fasta = Vec::new();
    assembly
        .to_fasta()
        .write_fasta(&mut fasta)
        .expect("write to memory");
    fasta
}

#[test]
fn pipeline_content_is_worker_count_independent() {
    let reads = simulated_reads(83);
    for labeling in [
        LabelingAlgorithm::ListRanking,
        LabelingAlgorithm::SimplifiedSV,
    ] {
        let reference = fasta(&assemble(&reads, &config(1, labeling)));
        assert!(reference.len() > 1_000, "{} FASTA bytes", reference.len());
        for workers in [2usize, 3, 4, 7] {
            let other = fasta(&assemble(&reads, &config(workers, labeling)));
            assert!(
                other == reference,
                "{workers} workers changed the FASTA bytes ({labeling:?})"
            );
        }
    }
}

/// A reordering of construct's expanded vertices.
type Permutation = fn(&mut Vec<AsmNode>);

/// The FASTA bytes of `config`'s paper workflow over `reads`, with
/// construct's k-mer graph expanded into `AsmNode`s, put through `permute`
/// and handed to labeling where a correction round's rewired graph lies, as
/// its ambiguous k-mers; or the error of the stage that refused them.
fn fasta_with_permuted_vertices(
    reads: &ReadSet,
    config: &AssemblyConfig,
    permute: Permutation,
) -> Result<Vec<u8>, PipelineError> {
    let ctx = ExecCtx::new(config.workers);
    let mut state = GraphState::new(reads);
    Pipeline::new()
        .then(Construct::new(ConstructConfig {
            k: config.k,
            min_coverage: config.min_kmer_coverage,
            batch_size: 1024,
        }))
        .try_run(&mut state, &ctx)
        .unwrap();
    let mut nodes = std::mem::take(&mut state.nodes).to_nodes();
    permute(&mut nodes);
    state.ambiguous_kmers = nodes;
    state.rewired = true;
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
        .try_run(&mut state, &ctx)?;
    Ok(fasta(&Assembly {
        contigs: state.output,
        stats: Default::default(),
    }))
}

#[test]
fn a_node_set_out_of_id_order_is_refused() {
    // A node set lists its nodes in strictly ascending ID order, and
    // labeling ranks them by position. Construct's graph, expanded and
    // labelled where a correction round's graph lies, assembles to the same
    // FASTA bytes as the graph, contig IDs included; reversed or rotated, it
    // is refused at the first position out of order.
    let reads = simulated_reads(97);
    let reverse: Permutation = |vertices| vertices.reverse();
    let rotate: Permutation = |vertices| {
        let third = vertices.len() / 3;
        vertices.rotate_left(third);
    };
    for labeling in [
        LabelingAlgorithm::ListRanking,
        LabelingAlgorithm::SimplifiedSV,
    ] {
        for workers in 1..=4 {
            let config = config(workers, labeling);
            let assembly = assemble(&reads, &config);
            let direct = fasta(&assembly);
            assert!(direct.len() > 1_000, "{} FASTA bytes", direct.len());
            let in_order = fasta_with_permuted_vertices(&reads, &config, |_| {});
            assert!(
                in_order.as_ref() == Ok(&direct),
                "the expanded graph changed the contigs ({labeling:?}, {workers} workers)"
            );
            // Each with the first position out of order among n vertices.
            let n = assembly.stats.construct.vertices as usize;
            for (i, (permute, position)) in [(reverse, 1), (rotate, n - n / 3)].iter().enumerate() {
                let want = format!("not strictly ascending at position {position}:");
                match fasta_with_permuted_vertices(&reads, &config, *permute) {
                    Err(PipelineError::Stage { stage, message, .. })
                        if stage == "label" && message.contains(&want) => {}
                    other => panic!(
                        "permutation {i} ({labeling:?}, {workers} workers): {:?}",
                        other.map(|fasta| fasta.len())
                    ),
                }
            }
        }
    }
}
