//! Cross-crate integration tests for the persistent execution engine: one
//! shared worker pool reused across all five assembly operations must produce
//! byte-identical results to per-operation fresh pools, and a shared
//! `ExecCtx` must be reusable across whole assemblies.

use ppa_assembler::ops::bubble::{filter_bubbles_on, remove_pruned, BubbleConfig};
use ppa_assembler::ops::construct::{build_dbg_on, ConstructConfig};
use ppa_assembler::ops::label::{label_contigs_lr_on, AMBIGUOUS};
use ppa_assembler::ops::merge::{merge_contigs_on, MergeConfig};
use ppa_assembler::ops::tip::{remove_tips_on, TipConfig};
use ppa_assembler::{assemble, AsmNode, AssemblyConfig};
use ppa_pregel::ExecCtx;
use ppa_readsim::{GenomeConfig, ReadSimConfig};
use ppa_seq::ReadSet;
use ppa_tests::fingerprint;

const K: usize = 21;
const WORKERS: usize = 3;

fn simulated_reads() -> ReadSet {
    let reference = GenomeConfig {
        length: 4_000,
        repeat_families: 2,
        repeat_copies: 2,
        repeat_length: 100,
        seed: 77,
        ..Default::default()
    }
    .generate();
    ReadSimConfig {
        read_length: 100,
        coverage: 25.0,
        substitution_rate: 0.004,
        indel_rate: 0.0,
        n_rate: 0.0,
        both_strands: true,
        seed: 78,
    }
    .simulate(&reference)
}

/// Byte-level fingerprint of a node set: IDs, coverages and sequences.
fn node_fingerprint(nodes: &[AsmNode]) -> Vec<(u64, u32, String)> {
    let mut out: Vec<(u64, u32, String)> = nodes
        .iter()
        .map(|n| (n.id, n.coverage, n.seq.to_dna().to_ascii()))
        .collect();
    out.sort();
    out
}

/// Drives all five operations — ① construction, ② labeling, ③ merging,
/// ④ bubble filtering, ⑤ tip removing — either on one shared context or with
/// a fresh per-operation pool, and fingerprints the surviving graph.
fn five_ops(reads: &ReadSet, shared: Option<&ExecCtx>) -> Vec<(u64, u32, String)> {
    let construct_cfg = ConstructConfig {
        k: K,
        min_coverage: 1,
        batch_size: 64,
    };
    let merge_cfg = MergeConfig {
        k: K,
        tip_length_threshold: 80,
    };
    let bubble_cfg = BubbleConfig {
        max_edit_distance: 5,
    };
    let tip_cfg = TipConfig {
        k: K,
        tip_length_threshold: 80,
    };
    // The shared context, or a fresh pool for every operation.
    let ctx_of = || shared.cloned().unwrap_or_else(|| ExecCtx::new(WORKERS));

    // ① DBG construction.
    let outcome = build_dbg_on(&ctx_of(), reads, &construct_cfg);
    let nodes: Vec<AsmNode> = outcome.into_nodes();

    // ② contig labeling.
    let label = label_contigs_lr_on(&ctx_of(), &nodes);

    // ③ contig merging.
    let merged = merge_contigs_on(&ctx_of(), &nodes, &label.labels, &merge_cfg);
    let mut contigs = merged.contigs;

    // ④ bubble filtering.
    let bubbles = filter_bubbles_on(&ctx_of(), &contigs, &bubble_cfg);
    remove_pruned(&mut contigs, &bubbles.pruned);

    // ⑤ tip removing.
    let ambiguous_kmers: Vec<AsmNode> = nodes
        .into_iter()
        .zip(&label.labels)
        .filter(|(_, &label)| label == AMBIGUOUS)
        .map(|(n, _)| n)
        .collect();
    let tips = remove_tips_on(&ctx_of(), &ambiguous_kmers, &contigs, &tip_cfg);

    let survivors: Vec<AsmNode> = tips
        .kmers
        .iter()
        .chain(tips.contigs.iter())
        .cloned()
        .collect();
    node_fingerprint(&survivors)
}

#[test]
fn shared_pool_across_all_five_ops_matches_per_op_fresh_pools() {
    let reads = simulated_reads();
    let ctx = ExecCtx::new(WORKERS);
    let shared = five_ops(&reads, Some(&ctx));
    let fresh = five_ops(&reads, None);
    assert!(!shared.is_empty(), "the pipeline must produce nodes");
    assert_eq!(
        shared, fresh,
        "one pool reused across the five operations must be byte-identical \
         to per-operation fresh pools"
    );
    assert!(
        ctx.pool().busy_nanos() > 0,
        "the shared pool must actually have executed the phases"
    );
}

#[test]
fn shared_ctx_assembly_is_byte_identical_to_private_ctx_assembly() {
    let reads = simulated_reads();
    let base = AssemblyConfig {
        k: K,
        min_kmer_coverage: 1,
        workers: WORKERS,
        ..Default::default()
    };
    let private = assemble(&reads, &base);
    let ctx = ExecCtx::new(WORKERS);
    let with_shared = assemble(
        &reads,
        &AssemblyConfig {
            exec: Some(ctx.clone()),
            ..base.clone()
        },
    );
    assert!(!private.contigs.is_empty());
    assert_eq!(
        fingerprint(&private.contigs),
        fingerprint(&with_shared.contigs)
    );

    // The same context is reusable for a second, identical assembly — parked
    // shuffle planes must not leak state between runs.
    let again = assemble(
        &reads,
        &AssemblyConfig {
            exec: Some(ctx),
            ..base
        },
    );
    assert_eq!(
        fingerprint(&with_shared.contigs),
        fingerprint(&again.contigs)
    );
}

#[test]
fn zero_workers_still_assembles_on_a_one_thread_pool() {
    // `workers: 0` has always been clamped to one worker; the engine's
    // ctx-vs-config validation must preserve that instead of panicking.
    let reads = simulated_reads();
    let assembly = assemble(
        &reads,
        &AssemblyConfig {
            k: K,
            min_kmer_coverage: 1,
            workers: 0,
            ..Default::default()
        },
    );
    assert!(!assembly.contigs.is_empty());
}

#[test]
fn per_superstep_metrics_report_phase_times_and_utilization() {
    let reads = simulated_reads();
    let ctx = ExecCtx::new(WORKERS);
    let outcome = build_dbg_on(
        &ctx,
        &reads,
        &ConstructConfig {
            k: K,
            min_coverage: 1,
            batch_size: 64,
        },
    );
    let nodes = outcome.into_nodes();
    let label = label_contigs_lr_on(&ctx, &nodes);
    let per_step = &label.metrics.per_superstep;
    assert!(!per_step.is_empty(), "labeling must track supersteps");
    for step in per_step {
        assert!(
            step.compute_elapsed + step.shuffle_elapsed <= step.elapsed,
            "phase times must not exceed the superstep wall-clock"
        );
        assert!(
            (0.0..=1.0).contains(&step.pool_utilization),
            "pool utilization must be a fraction, got {}",
            step.pool_utilization
        );
    }
    assert!(
        per_step.iter().any(|s| s.pool_utilization > 0.0),
        "at least one superstep must report non-zero pool utilization"
    );
}
