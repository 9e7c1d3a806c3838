//! Regenerates **Table II** (labeling unambiguous k-mers) and **Table III**
//! (labeling contigs): supersteps, messages and runtime of bidirectional list
//! ranking (LR) versus the simplified S-V algorithm, per dataset.
//!
//! Usage:
//! `cargo run -p ppa-bench --release --bin table23_lr_vs_sv -- [--scale 0.1] [--workers 4]`

use ppa_assembler::pipeline::{GraphState, Pipeline, StageLogger};
use ppa_assembler::stats::WorkflowStats;
use ppa_assembler::{AssemblyConfig, LabelingAlgorithm};
use ppa_bench::{print_table, secs, HarnessArgs};
use ppa_pregel::ExecCtx;
use ppa_readsim::all_presets;

fn main() {
    let args = HarnessArgs::parse();
    let workers = args.workers.last().copied().unwrap_or(4);
    let mut kmer_rows = Vec::new();
    let mut contig_rows = Vec::new();

    for preset in all_presets() {
        let preset = preset.scaled(args.scale);
        let dataset = preset.generate();
        eprintln!("running {} ({} reads)...", preset.name, dataset.reads.len());
        let mut per_algo = Vec::new();
        for (name, algo) in [
            ("LR", LabelingAlgorithm::ListRanking),
            ("S-V", LabelingAlgorithm::SimplifiedSV),
        ] {
            let config = AssemblyConfig {
                k: args.k,
                min_kmer_coverage: 1,
                workers,
                labeling: algo,
                ..Default::default()
            };
            // Drive the paper-workflow pipeline directly so the run shows
            // per-stage progress: WorkflowStats for the table rows, a
            // StageLogger for live stage-by-stage output.
            let mut stats = WorkflowStats::default();
            let mut progress = StageLogger::with_prefix(format!("{} {name}", preset.name));
            let mut state = GraphState::new(&dataset.reads);
            Pipeline::paper_workflow(&config)
                .observe(&mut stats)
                .observe(&mut progress)
                .run(&mut state, &ExecCtx::new(workers));
            per_algo.push((name, stats));
        }
        let (lr, sv) = (&per_algo[0].1, &per_algo[1].1);
        kmer_rows.push(vec![
            preset.name.clone(),
            lr.label_round1.supersteps.to_string(),
            sv.label_round1.supersteps.to_string(),
            lr.label_round1.messages.to_string(),
            sv.label_round1.messages.to_string(),
            secs(lr.label_round1.elapsed),
            secs(sv.label_round1.elapsed),
        ]);
        let lr2 = lr.label_round2.first().cloned().unwrap_or_default();
        let sv2 = sv.label_round2.first().cloned().unwrap_or_default();
        contig_rows.push(vec![
            preset.name.clone(),
            lr2.supersteps.to_string(),
            sv2.supersteps.to_string(),
            lr2.messages.to_string(),
            sv2.messages.to_string(),
            secs(lr2.elapsed),
            secs(sv2.elapsed),
        ]);
    }

    let header = [
        "dataset",
        "supersteps LR",
        "supersteps S-V",
        "messages LR",
        "messages S-V",
        "runtime LR (s)",
        "runtime S-V (s)",
    ];
    print_table(
        &format!(
            "Table II analogue — LR vs S-V for labeling unambiguous k-mers (scale {})",
            args.scale
        ),
        &header,
        &kmer_rows,
    );
    print_table(
        &format!(
            "Table III analogue — LR vs S-V for labeling contigs (scale {})",
            args.scale
        ),
        &header,
        &contig_rows,
    );
    println!(
        "\nExpected shape (paper): LR uses fewer supersteps, fewer messages and is faster than S-V\n\
         in both rounds; the contig round is orders of magnitude cheaper than the k-mer round\n\
         because merging shrank the graph. Counts are physical: both jobs run over the\n\
         representatives of minimizer-block fragments, about a tenth of the unambiguous k-mers\n\
         at k = 31, and send about a twelfth of the vertex-level jobs' messages; LR's lead over\n\
         S-V is 1.5-1.9x in messages where the vertex-level jobs show 1.3-1.5x."
    );
}
