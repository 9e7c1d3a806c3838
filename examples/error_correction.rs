//! Error correction in action: assemble an error-prone read set with and
//! without the bubble-filtering / tip-removing operations and compare — both
//! variants expressed through the pipeline API. The uncorrected variant is
//! the paper workflow with zero correction rounds; the corrected one is the
//! standard ①②③④⑤⑥②③ preset. `WorkflowStats` is attached as an observer, so
//! all statistics below come from the observer hook.
//!
//! Run with: `cargo run -p ppa-examples --release --bin error_correction`

use ppa_assembler::pipeline::{GraphState, Pipeline};
use ppa_assembler::stats::WorkflowStats;
use ppa_assembler::AssemblyConfig;
use ppa_pregel::ExecCtx;
use ppa_quality::QuastReport;
use ppa_readsim::{GenomeConfig, ReadSimConfig};

fn main() {
    let reference = GenomeConfig {
        length: 30_000,
        repeat_families: 3,
        ..Default::default()
    }
    .generate();
    let reads = ReadSimConfig {
        coverage: 25.0,
        substitution_rate: 0.008, // deliberately noisy
        n_rate: 0.001,
        ..Default::default()
    }
    .simulate(&reference);
    println!(
        "simulated {} noisy reads ({}% per-base error) from a {} bp reference\n",
        reads.len(),
        0.8,
        reference.len()
    );

    let workers = 4;
    let ctx = ExecCtx::new(workers);

    // Without error correction: stop after the first merging round and keep
    // every (k+1)-mer regardless of coverage.
    let uncorrected_cfg = AssemblyConfig {
        k: 31,
        min_kmer_coverage: 0,
        error_correction_rounds: 0,
        workers,
        ..Default::default()
    };
    // With the standard workflow: θ filtering, bubble filtering, tip
    // removing, then a second labeling + merging round.
    let corrected_cfg = AssemblyConfig {
        k: 31,
        min_kmer_coverage: 1,
        workers,
        ..Default::default()
    };

    let mut results = Vec::new();
    for (name, config) in [
        ("uncorrected", &uncorrected_cfg),
        ("corrected", &corrected_cfg),
    ] {
        let mut stats = WorkflowStats::default();
        let mut state = GraphState::new(&reads);
        Pipeline::paper_workflow(config)
            .observe(&mut stats)
            .try_run(&mut state, &ctx)
            .expect("the simulated reads assemble");
        results.push((name, state.output, stats));
    }

    for (name, output, _) in &results {
        let contigs: Vec<_> = output.iter().map(|c| c.sequence.clone()).collect();
        let report = QuastReport::evaluate(*name, &contigs, Some(&reference.sequence), 200);
        let r = report.reference.as_ref().expect("reference supplied");
        println!(
            "{name:<12} contigs≥200: {:<5} N50: {:<6} largest: {:<6} genome fraction: {:>6.2}%  mismatches/100kbp: {:>8.2}",
            report.basic.num_contigs,
            report.basic.n50,
            report.basic.largest_contig,
            r.genome_fraction_percent,
            r.mismatches_per_100kbp,
        );
    }

    let corrected_stats = &results[1].2;
    let correction = corrected_stats
        .corrections
        .first()
        .expect("one correction round");
    println!(
        "\ncorrection round removed {} bubble contigs, {} tip k-mers, {} tip contigs",
        correction.bubbles_pruned, correction.tip_kmers_deleted, correction.tip_contigs_deleted
    );
    println!(
        "N50 grew from {} (round 1) to {} (round 2) thanks to re-merging after correction",
        corrected_stats.n50_after_round1, corrected_stats.n50_final
    );
}
