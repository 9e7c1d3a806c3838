//! Crash and resume: run the paper workflow with stage-boundary
//! checkpointing, kill it with a deterministic injected fault, then resume
//! from the snapshot on disk and verify the recovered assembly is identical
//! to an uninterrupted run. `try_run` then `resume` is the one way to retry
//! a failed pipeline, the recovery of Pregel: reload the last checkpoint and
//! run the rest again.
//!
//! Run with: `cargo run -p ppa-examples --release --bin checkpoint_resume`

use ppa_assembler::pipeline::{CheckpointPolicy, GraphState, Pipeline};
use ppa_assembler::{assemble, AssemblyConfig};
use ppa_pregel::{ExecCtx, Fault, FaultPlan};
use ppa_readsim::{GenomeConfig, ReadSimConfig};

fn main() {
    // 1. Simulate a small dataset and pick a checkpoint directory.
    let reference = GenomeConfig {
        length: 20_000,
        repeat_families: 3,
        repeat_copies: 2,
        repeat_length: 120,
        ..Default::default()
    }
    .generate();
    let reads = ReadSimConfig {
        coverage: 25.0,
        substitution_rate: 0.003,
        ..Default::default()
    }
    .simulate(&reference);
    let dir = std::env::temp_dir().join(format!("ppa-ckpt-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let workers = 4;
    let ctx = ExecCtx::new(workers);
    let config = AssemblyConfig {
        k: 31,
        workers,
        exec: Some(ctx.clone()),
        ..Default::default()
    };

    // 2. The uninterrupted reference run.
    let baseline = assemble(&reads, &config);
    println!(
        "baseline: {} contigs, N50 {} bp",
        baseline.contigs.len(),
        baseline.n50()
    );

    // 3. Run again with checkpointing on — and a deterministic crash injected
    //    at the entry of flattened stage 5 (the second labeling), standing in
    //    for a process kill. `try_run` returns it as a typed
    //    `PipelineError::Stage`, as it does any stage or worker panic, and
    //    the snapshots written so far stay on disk.
    ctx.inject_faults(FaultPlan::single(Fault::StageEntry { stage: 5 }));
    let mut state = GraphState::new(&reads);
    let err = Pipeline::paper_workflow(&config)
        .checkpoint_to(&dir, CheckpointPolicy::EveryStage)
        .try_run(&mut state, &ctx)
        .expect_err("the injected crash fires");
    ctx.clear_faults();
    println!("crashed run: {err}");

    // 4. A fresh pipeline — think "new process after the crash" — resumes
    //    from the latest snapshot. The manifest pins the pipeline fingerprint,
    //    worker count and read set, so only the genuine continuation is
    //    accepted; the five completed stages are skipped, not re-run.
    let (resumed, reports) = Pipeline::paper_workflow(&config)
        .resume(&dir, &reads, &ctx)
        .expect("resume from the snapshot");
    println!(
        "resumed: replayed {} of 8 stages ({})",
        reports.len(),
        reports
            .iter()
            .map(|r| r.stage.as_str())
            .collect::<Vec<_>>()
            .join(" → ")
    );

    // 5. The recovered assembly is byte-identical to the uninterrupted one.
    assert_eq!(resumed.output, baseline.contigs);
    println!(
        "recovered assembly matches the baseline: {} contigs, N50 {} bp",
        resumed.output.len(),
        baseline.n50()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
