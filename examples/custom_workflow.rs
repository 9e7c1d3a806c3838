//! Composing the toolkit's operations exactly as the paper's Figure 10
//! allows — now through the first-class pipeline API: this custom pipeline
//! uses the simplified S-V algorithm for labeling, skips bubble filtering
//! entirely, and runs two rounds of tip removal instead of one. A custom
//! [`PipelineObserver`] prints every stage as it completes.
//!
//! Run with: `cargo run -p ppa-examples --release --bin custom_workflow`

use ppa_assembler::ops::{ConstructConfig, MergeConfig, TipConfig};
use ppa_assembler::pipeline::{
    Construct, FilterLength, GraphState, Label, Merge, Pipeline, PipelineObserver, RemoveTips,
    Stage, StageReport,
};
use ppa_pregel::ExecCtx;
use ppa_readsim::{GenomeConfig, ReadSimConfig};

/// A console observer: one line per finished stage.
struct Console;

impl PipelineObserver for Console {
    fn on_stage_end(&mut self, report: &StageReport) {
        println!(
            "{:<14} round {}  {:>8.3}s  {}",
            report.stage,
            report.round,
            report.elapsed.as_secs_f64(),
            report.details.summary()
        );
    }
}

fn main() {
    let reference = GenomeConfig {
        length: 20_000,
        repeat_families: 3,
        ..Default::default()
    }
    .generate();
    let reads = ReadSimConfig {
        coverage: 20.0,
        substitution_rate: 0.004,
        ..Default::default()
    }
    .simulate(&reference);
    let (k, workers) = (31, 4);

    // The "S-V labeling, no bubbles, two tip rounds" strategy as a pipeline:
    // ① construct, ② label (S-V), ③ merge, ⑤⑤ two tip rounds, then grow
    // longer contigs once more (⑥②③) and emit the final output.
    let merge = MergeConfig {
        k,
        tip_length_threshold: 80,
    };
    let mut console = Console;
    let mut pipeline = Pipeline::new()
        .then(Construct::new(ConstructConfig {
            k,
            min_coverage: 1,
            batch_size: 1024,
        }))
        .then(Label::simplified_sv())
        .then(Merge::new(merge.clone()))
        .repeat(
            2,
            vec![Box::new(RemoveTips::new(TipConfig {
                k,
                tip_length_threshold: 80,
            })) as Box<dyn Stage>],
        )
        .then(Label::simplified_sv())
        .then(Merge::new(merge))
        .then(FilterLength::new(0))
        .observe(&mut console);

    let mut state = GraphState::new(&reads);
    pipeline
        .try_run(&mut state, &ExecCtx::new(workers))
        .expect("the simulated reads assemble");

    let lengths: Vec<usize> = state.output.iter().map(|c| c.len()).collect();
    println!(
        "\nfinal: {} contigs, largest {} bp, N50 {} bp",
        lengths.len(),
        lengths.first().copied().unwrap_or(0),
        ppa_assembler::stats::n50(&lengths)
    );
}
