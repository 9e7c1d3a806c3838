//! Job control: cancel a long-running assembly cooperatively, then resume it
//! from the emergency snapshot and finish with an identical result.
//!
//! A [`JobControl`] is a cloneable handle shared between the party running an
//! assembly and the party supervising it; the engine polls it at every BSP
//! barrier, so a cancel, deadline, or memory-budget trip unwinds as a typed
//! error at the next consistent boundary — never a panic, and the worker
//! pool stays reusable.
//!
//! Run with: `cargo run -p ppa-examples --release --bin cancellation`

use ppa_assembler::pipeline::{
    CheckpointPolicy, GraphState, Pipeline, PipelineError, PipelineObserver, StageReport,
};
use ppa_assembler::stats::WorkflowStats;
use ppa_assembler::{try_assemble, AssemblyConfig, JobControl};
use ppa_pregel::{EngineError, ExecCtx};
use ppa_readsim::{GenomeConfig, ReadSimConfig};
use std::num::NonZeroUsize;

/// A supervisor stand-in: cancels the shared handle once `after` stages of
/// the workflow have completed.
struct CancelAfter {
    control: JobControl,
    after: usize,
    seen: usize,
}

impl PipelineObserver for CancelAfter {
    fn on_stage_end(&mut self, _report: &StageReport) {
        self.seen += 1;
        if self.seen == self.after {
            self.control.cancel();
        }
    }
}

fn main() {
    // Mid-superstep trips unwind via `panic_any(EngineError::Cancelled)`
    // before the pipeline retypes them; silence the default hook's backtrace
    // for exactly that payload so the demo's output stays readable.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<EngineError>().is_none() {
            default_hook(info);
        }
    }));

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
    let dir = std::env::temp_dir().join(format!("ppa-cancel-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let workers = 4;
    let ctx = ExecCtx::new(workers);
    let config = AssemblyConfig {
        k: 31,
        workers,
        exec: Some(ctx.clone()),
        ..Default::default()
    };

    // 2. The uninterrupted reference run under a handle installed on the
    //    run's context: a live handle costs one poll per barrier and never
    //    trips.
    let control = JobControl::new();
    ctx.set_control(control.clone());
    let baseline = try_assemble(&reads, &config).expect("no trip armed");
    ctx.clear_control();
    println!(
        "baseline: {} contigs, N50 {} bp ({} cooperative polls, cancelled: {:?})",
        baseline.contigs.len(),
        baseline.n50(),
        control.checks(),
        baseline.stats.cancelled,
    );

    // 3. Run again with checkpointing armed, and an operator cancel fired
    //    after three completed stages. The trip lands on a stage boundary,
    //    so the pipeline writes one *emergency* snapshot pinning exactly the
    //    completed prefix before returning the typed error — even though
    //    `EveryN(4)` would not have saved after stage 3.
    let control = JobControl::new();
    let mut supervisor = CancelAfter {
        control: control.clone(),
        after: 3,
        seen: 0,
    };
    let mut stats = WorkflowStats::default();
    ctx.set_control(control.clone());
    let mut state = GraphState::new(&reads);
    let err = Pipeline::paper_workflow(&config)
        .checkpoint_to(
            &dir,
            CheckpointPolicy::EveryN(NonZeroUsize::new(4).expect("4 is not zero")),
        )
        .observe(&mut supervisor)
        .observe(&mut stats)
        .try_run(&mut state, &ctx)
        .expect_err("the supervisor cancels mid-assembly");
    ctx.clear_control();
    println!("cancelled run: {err}");
    println!("workflow stats record it as: {:?}", stats.cancelled);

    // 4. Recovery is a resume: a fresh pipeline — think "new process after
    //    the operator's cancel" — loads the emergency snapshot and replays
    //    only the five remaining stages.
    let (resumed, reports) = Pipeline::paper_workflow(&config)
        .resume(&dir, &reads, &ctx)
        .expect("resume from the emergency snapshot");
    println!(
        "resumed: replayed {} of 8 stages ({})",
        reports.len(),
        reports
            .iter()
            .map(|r| r.stage.as_str())
            .collect::<Vec<_>>()
            .join(" → ")
    );
    assert_eq!(resumed.output, baseline.contigs);
    println!(
        "recovered assembly matches the baseline: {} contigs",
        resumed.output.len()
    );

    // 5. The other two trip kinds ride the same path: a deadline (here one
    //    the run has already missed) or a resident-bytes budget fires at the
    //    next barrier, mid-superstep, with the reason latched on the handle.
    ctx.set_control(JobControl::new().with_memory_budget(1));
    let outcome = try_assemble(&reads, &config);
    ctx.clear_control();
    match outcome {
        Err(PipelineError::Cancelled {
            reason,
            stage,
            superstep,
        }) => {
            println!("1-byte budget: tripped at stage {stage}, superstep {superstep:?} ({reason})")
        }
        other => panic!("expected a budget trip, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
