//! End-to-end integration tests: simulate → assemble → assess, across crates.

use ppa_assembler::ops::bubble::BubbleConfig;
use ppa_assembler::ops::construct::ConstructConfig;
use ppa_assembler::ops::merge::MergeConfig;
use ppa_assembler::ops::tip::TipConfig;
use ppa_assembler::pipeline::{Construct, FilterBubbles, FilterLength, Label, Merge, RemoveTips};
use ppa_assembler::{assemble, AssemblyConfig, LabelingAlgorithm};
use ppa_assembler::{AsmNode, GraphState, Stage, StageDetails};
use ppa_pregel::ExecCtx;
use ppa_quality::{AlignmentConfig, QuastReport};
use ppa_readsim::{preset_by_name, GenomeConfig, ReadSimConfig};
use ppa_tests::fingerprint;
use std::collections::HashSet;

fn assembly_config(k: usize, workers: usize) -> AssemblyConfig {
    AssemblyConfig {
        k,
        min_kmer_coverage: 1,
        workers,
        ..Default::default()
    }
}

#[test]
fn error_free_repeat_free_genome_reconstructs_almost_completely() {
    let reference = GenomeConfig {
        length: 20_000,
        repeat_families: 0,
        seed: 100,
        ..Default::default()
    }
    .generate();
    let reads = ReadSimConfig::error_free(100, 30.0).simulate(&reference);
    let assembly = assemble(&reads, &assembly_config(31, 4));
    let contigs: Vec<_> = assembly
        .contigs
        .iter()
        .map(|c| c.sequence.clone())
        .collect();
    let report = QuastReport::evaluate("PPA", &contigs, Some(&reference.sequence), 0);
    let reference_metrics = report.reference.expect("reference supplied");
    assert!(
        reference_metrics.genome_fraction_percent > 98.0,
        "genome fraction {}",
        reference_metrics.genome_fraction_percent
    );
    assert_eq!(reference_metrics.misassemblies, 0);
    assert_eq!(reference_metrics.total_mismatches, 0);
    assert!(assembly.largest_contig() > 19_000);
}

#[test]
fn noisy_genome_with_repeats_assembles_with_good_quality() {
    let dataset = preset_by_name("sim-hc2").unwrap().scaled(0.1).generate();
    let assembly = assemble(&dataset.reads, &assembly_config(25, 4));
    let contigs: Vec<_> = assembly
        .contigs
        .iter()
        .map(|c| c.sequence.clone())
        .collect();
    let report = QuastReport::evaluate("PPA", &contigs, Some(&dataset.reference.sequence), 200);
    let basic = &report.basic;
    let reference_metrics = report.reference.as_ref().expect("reference supplied");
    assert!(basic.num_contigs > 0);
    assert!(
        reference_metrics.genome_fraction_percent > 70.0,
        "genome fraction {}",
        reference_metrics.genome_fraction_percent
    );
    assert!(
        reference_metrics.mismatches_per_100kbp < 200.0,
        "mismatch rate {}",
        reference_metrics.mismatches_per_100kbp
    );
    // The error-corrected second round must not lose assembled sequence.
    assert!(assembly.stats.n50_final >= assembly.stats.n50_after_round1);
}

#[test]
fn lr_and_sv_workflows_agree_end_to_end() {
    let dataset = preset_by_name("sim-hcx").unwrap().scaled(0.03).generate();
    let lr = assemble(
        &dataset.reads,
        &AssemblyConfig {
            labeling: LabelingAlgorithm::ListRanking,
            ..assembly_config(25, 4)
        },
    );
    let sv = assemble(
        &dataset.reads,
        &AssemblyConfig {
            labeling: LabelingAlgorithm::SimplifiedSV,
            ..assembly_config(25, 4)
        },
    );
    let mut lr_lengths: Vec<usize> = lr.contigs.iter().map(|c| c.len()).collect();
    let mut sv_lengths: Vec<usize> = sv.contigs.iter().map(|c| c.len()).collect();
    lr_lengths.sort_unstable();
    sv_lengths.sort_unstable();
    assert_eq!(
        lr_lengths, sv_lengths,
        "the two labeling algorithms must yield the same contigs"
    );
    // And the list-ranking variant must be cheaper in messages (Table II).
    assert!(
        lr.stats.label_round1.messages < sv.stats.label_round1.messages,
        "LR messages {} vs S-V messages {}",
        lr.stats.label_round1.messages,
        sv.stats.label_round1.messages
    );
}

#[test]
fn worker_count_does_not_change_the_assembly() {
    let reference = GenomeConfig {
        length: 10_000,
        repeat_families: 2,
        seed: 7,
        ..Default::default()
    }
    .generate();
    let reads = ReadSimConfig {
        coverage: 20.0,
        substitution_rate: 0.002,
        ..Default::default()
    }
    .simulate(&reference);
    let single = assemble(&reads, &assembly_config(25, 1));
    let many = assemble(&reads, &assembly_config(25, 8));
    assert_eq!(
        fingerprint(&single.contigs),
        fingerprint(&many.contigs),
        "assembly must be deterministic w.r.t. the worker count"
    );
}

#[test]
fn circular_genome_assembles_via_cycle_fallback() {
    // A plasmid-like circular genome: reads wrap around the origin.
    let linear = GenomeConfig {
        length: 5_000,
        repeat_families: 0,
        seed: 77,
        ..Default::default()
    }
    .generate();
    let mut doubled = linear.sequence.clone();
    doubled.extend_from(&linear.sequence);
    let circular_reads =
        ReadSimConfig::error_free(100, 20.0).simulate(&ppa_readsim::ReferenceGenome {
            sequence: doubled.substring(0, linear.sequence.len() + 100),
            config: linear.config.clone(),
            repeat_positions: vec![],
        });
    let assembly = assemble(&circular_reads, &assembly_config(31, 4));
    assert!(!assembly.contigs.is_empty());
    assert!(assembly.largest_contig() >= 4_500);
}

#[test]
fn quality_tool_flags_a_deliberately_bad_assembly() {
    // Sanity-check the QUAST-like metrics themselves: a chimeric "assembly"
    // must score worse than the true contigs.
    let reference = GenomeConfig {
        length: 8_000,
        repeat_families: 0,
        seed: 5,
        ..Default::default()
    }
    .generate();
    let good = vec![
        reference.sequence.substring(0, 4_000),
        reference.sequence.substring(4_000, 4_000),
    ];
    let mut chimera = reference.sequence.substring(0, 2_000);
    chimera.extend_from(&reference.sequence.substring(6_000, 2_000));
    let bad = vec![chimera];
    let cfg = AlignmentConfig::default();
    let good_metrics = ppa_quality::align_contigs(&good, &reference.sequence, &cfg);
    let bad_metrics = ppa_quality::align_contigs(&bad, &reference.sequence, &cfg);
    assert_eq!(good_metrics.misassemblies, 0);
    assert!(bad_metrics.misassemblies >= 1);
    assert!(bad_metrics.genome_fraction_percent < good_metrics.genome_fraction_percent);
}

/// Superstep 0 of tip removal: every ambiguous k-mer tells each of its
/// neighbours that it survived, and every contig tells its end k-mers about
/// itself. The announcements to IDs that are no longer in the node set —
/// k-mers merging folded into contigs — are the job's only drops.
fn tip_announcements_to_absent_ids(kmers: &[AsmNode], contigs: &[AsmNode]) -> u64 {
    let present: HashSet<u64> = kmers.iter().chain(contigs).map(|n| n.id).collect();
    let targets = kmers.iter().chain(contigs).flat_map(|n| n.real_edges());
    targets.filter(|e| !present.contains(&e.neighbor)).count() as u64
}

#[test]
fn the_paper_workflow_drops_only_tip_announcements() {
    // Every message a labeling sends names a vertex of the node set it runs
    // over: construct's adjacency is symmetric and tip removal rewires what
    // merging and deleting took away. Tip removal itself learns which
    // neighbours survived by announcing itself to all of them, so it drops
    // exactly the announcements to vanished IDs, and its REQUEST/DELETE
    // protocol drops nothing. Every stage leaves the ambiguous k-mers and
    // the contigs each strictly ascending by ID. The stages below are
    // `Pipeline::paper_workflow`'s with two correction rounds, run one at a
    // time to read each job's metrics; the FASTA check at the end keeps them
    // that. No contig ID is reused across rounds and none depends on the
    // worker count, so neither do the drops.
    let dataset = preset_by_name("sim-hc2").unwrap().scaled(0.05).generate();
    let reads = &dataset.reads;
    for labeling in [
        LabelingAlgorithm::ListRanking,
        LabelingAlgorithm::SimplifiedSV,
    ] {
        let mut first_drops = None;
        for workers in 1..=4 {
            let at = format!("{labeling:?}, {workers} workers");
            let config = AssemblyConfig {
                labeling,
                error_correction_rounds: 2,
                ..assembly_config(25, workers)
            };
            let merge = MergeConfig {
                k: config.k,
                tip_length_threshold: config.tip_length_threshold,
            };
            let mut stages: Vec<Box<dyn Stage>> = vec![
                Box::new(Construct::new(ConstructConfig {
                    k: config.k,
                    min_coverage: config.min_kmer_coverage,
                    batch_size: 1024,
                })),
                Box::new(Label::new(labeling)),
                Box::new(Merge::new(merge.clone())),
            ];
            for _ in 0..config.error_correction_rounds {
                stages.push(Box::new(FilterBubbles::new(BubbleConfig {
                    max_edit_distance: config.bubble_edit_distance,
                })));
                stages.push(Box::new(RemoveTips::new(TipConfig {
                    k: config.k,
                    tip_length_threshold: config.tip_length_threshold,
                })));
                stages.push(Box::new(Label::new(labeling)));
                stages.push(Box::new(Merge::new(merge.clone())));
            }
            stages.push(Box::new(FilterLength::new(config.min_contig_length)));

            let ctx = ExecCtx::new(workers);
            let mut state = GraphState::new(reads);
            let (mut label_rounds, mut tip_jobs) = (0, 0);
            let mut drops = Vec::new();
            for stage in &stages {
                let absent =
                    tip_announcements_to_absent_ids(&state.ambiguous_kmers, &state.contigs);
                let report = stage.run(&mut state, &ctx);
                // Round 2 labels and merges the ambiguous k-mers followed by
                // the contigs where they lie, ranked by position.
                for (what, nodes) in [
                    ("ambiguous k-mers", &state.ambiguous_kmers),
                    ("contigs", &state.contigs),
                ] {
                    assert!(
                        nodes.windows(2).all(|pair| pair[0].id < pair[1].id),
                        "{what} out of ID order after {}: {at}",
                        report.stage
                    );
                }
                match &report.details {
                    StageDetails::Label(_) => {
                        label_rounds += 1;
                        let metrics = &state.labels.as_ref().expect("labels").metrics;
                        if label_rounds == 1 {
                            assert!(metrics.total_messages > 10_000, "{at}");
                        }
                        assert_eq!(metrics.total_dropped, 0, "label round {label_rounds}: {at}");
                    }
                    StageDetails::Tips { metrics, .. } => {
                        tip_jobs += 1;
                        assert!(tip_jobs > 1 || absent > 0, "nothing vanished: {at}");
                        assert_eq!(metrics.total_dropped, absent, "tip job {tip_jobs}: {at}");
                        drops.push(absent);
                        // A superstep's drops are reported with the next one.
                        let late: u64 = metrics.per_superstep[2..]
                            .iter()
                            .map(|s| s.messages_dropped)
                            .sum();
                        assert_eq!(late, 0, "REQUEST/DELETE drops, tip job {tip_jobs}: {at}");
                    }
                    _ => {}
                }
            }
            assert_eq!((label_rounds, tip_jobs), (3, 2), "{at}");
            assert_eq!(
                first_drops.get_or_insert_with(|| drops.clone()),
                &drops,
                "{at}"
            );
            assert_eq!(
                fingerprint(&state.output),
                fingerprint(&assemble(reads, &config).contigs),
                "the stages are the paper workflow: {at}"
            );
        }
    }
}
