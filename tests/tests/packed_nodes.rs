//! Labeling and merging read construct's columnar k-mer graph directly
//! (`NodeSource` over `KmerGraph`, which lends its k-mer column as the rank
//! dictionary); the expanded `AsmNode` graph, whose ID column is collected,
//! is the reference. On random read sets, at 1–4 workers, every operation on
//! `outcome.vertices` must give exactly what it gives on
//! `outcome.to_nodes()`: the label column, supersteps, messages and drops
//! of both labelings, and the merged contigs with their IDs.

use ppa_assembler::ops::construct::{build_dbg_on, ConstructConfig, ConstructOutcome};
use ppa_assembler::ops::label::{label_contigs_lr_on, LabelOutcome};
use ppa_assembler::ops::label_sv::label_contigs_sv_on;
use ppa_assembler::ops::merge::{merge_contigs_on, MergeConfig, MergeOutcome};
use ppa_pregel::ExecCtx;
use ppa_seq::ReadSet;
use ppa_tests::adversarial_reads;
use proptest::prelude::*;

fn assert_same_labels(packed: &LabelOutcome, expanded: &LabelOutcome, at: &str) {
    assert_eq!(packed.labels, expanded.labels, "labels: {at}");
    assert_eq!(
        packed.used_cycle_fallback, expanded.used_cycle_fallback,
        "{at}"
    );
    let (p, e) = (&packed.metrics, &expanded.metrics);
    assert_eq!(p.converged, e.converged, "{at}");
    assert_eq!(p.supersteps, e.supersteps, "supersteps: {at}");
    assert_eq!(p.total_messages, e.total_messages, "messages: {at}");
    assert_eq!(p.total_dropped, 0, "dropped messages: {at}");
    assert_eq!(e.total_dropped, 0, "dropped messages: {at}");
}

fn assert_same_merge(packed: &MergeOutcome, expanded: &MergeOutcome, at: &str) {
    assert_eq!(packed.contigs, expanded.contigs, "contigs: {at}");
    assert_eq!(packed.groups, expanded.groups, "groups: {at}");
    assert_eq!(packed.dropped_tips, expanded.dropped_tips, "tips: {at}");
    let (p, e) = (&packed.mapreduce, &expanded.mapreduce);
    assert_eq!(p.input_records, e.input_records, "{at}");
    assert_eq!(p.pairs_shuffled, e.pairs_shuffled, "{at}");
    assert_eq!(p.groups, e.groups, "{at}");
    assert_eq!(p.output_records, e.output_records, "{at}");
}

/// Both labelings and the merge of each, packed against expanded, at 1–4
/// workers.
fn assert_packed_matches_expanded(dbg: &ConstructOutcome, what: &str) {
    let nodes = dbg.to_nodes();
    let merge = MergeConfig {
        k: dbg.k,
        tip_length_threshold: 2 * dbg.k,
    };
    for workers in 1..=4 {
        let ctx = ExecCtx::new(workers);
        let labelings = [
            (
                "LR",
                label_contigs_lr_on(&ctx, &dbg.vertices),
                label_contigs_lr_on(&ctx, &nodes),
            ),
            (
                "S-V",
                label_contigs_sv_on(&ctx, &dbg.vertices),
                label_contigs_sv_on(&ctx, &nodes),
            ),
        ];
        for (name, packed, expanded) in labelings {
            let at = format!("{name}, {what}, {workers} workers");
            assert_same_labels(&packed, &expanded, &at);
            assert_same_merge(
                &merge_contigs_on(&ctx, &dbg.vertices, &packed.labels, &merge),
                &merge_contigs_on(&ctx, &nodes, &expanded.labels, &merge),
                &at,
            );
        }
    }
}

#[test]
fn a_path_with_a_fork_and_a_cycle() {
    // "CTGCCGTACA" is Figure 9's path; the second read forks off it; the
    // third is a cycle of 5-mers (its 4-mers repeat with period 6).
    let reads: ReadSet = [
        ("path", "CTGCCGTACA"),
        ("fork", "CCGTACGGA"),
        ("cycle", "ATCGGAATCGGAATCG"),
    ]
    .into_iter()
    .collect();
    let config = ConstructConfig {
        k: 4,
        min_coverage: 0,
        batch_size: 1,
    };
    let dbg = build_dbg_on(&ExecCtx::new(2), &reads, &config);
    assert!(dbg.vertices.len() > 10);
    assert_packed_matches_expanded(&dbg, "hand-made");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn prop_packed_vertices_label_and_merge_as_expanded_nodes(
        seed in 1u64..u64::MAX,
        k_pick in 0usize..4,
        theta in 0u32..2,
    ) {
        let k = [5, 7, 11, 21][k_pick];
        let reads = adversarial_reads(seed);
        let config = ConstructConfig { k, min_coverage: theta, batch_size: 8 };
        let dbg = build_dbg_on(&ExecCtx::new(2), &reads, &config);
        assert_packed_matches_expanded(&dbg, &format!("seed {seed}, k = {k}, θ = {theta}"));
    }
}
