//! Cancellation-matrix integration tests for the job control plane: a
//! [`JobControl`] trip — operator cancel, deadline, or memory budget — must
//! unwind the paper's ①②③(④⑤②③)×r workflow as a typed
//! `PipelineError::Cancelled` (never a panic), leave the worker pool
//! reusable, and, when checkpointing is armed and the trip lands on a stage
//! boundary, write one emergency snapshot so `Pipeline::resume` completes
//! the assembly byte-identically to an uninterrupted run.

use ppa_assembler::pipeline::{
    CheckpointPolicy, GraphState, Pipeline, PipelineError, PipelineObserver, StageReport,
};
use ppa_assembler::{checkpoint, AssemblyConfig};
use ppa_pregel::{CancelReason, ExecCtx, Fault, FaultPlan, JobControl, SpillPolicy};
use ppa_readsim::{GenomeConfig, ReadSimConfig};
use ppa_seq::ReadSet;
use ppa_tests::{our_spill_dirs, TmpDir};
use std::num::NonZeroUsize;
use std::time::Duration;

const WORKERS: usize = 2;

/// r=2 correction rounds: ①②③ (④⑤②③)×2 + length filter = 12 flattened
/// stages, the full boundary matrix of the paper workflow.
const STAGES: usize = 12;

fn config() -> AssemblyConfig {
    AssemblyConfig {
        k: 21,
        min_kmer_coverage: 1,
        workers: WORKERS,
        error_correction_rounds: 2,
        ..Default::default()
    }
}

fn simulated_reads() -> ReadSet {
    let reference = GenomeConfig {
        length: 3_000,
        repeat_families: 2,
        repeat_copies: 2,
        repeat_length: 100,
        seed: 1312,
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
        seed: 1313,
    }
    .simulate(&reference)
}

/// The uninterrupted reference run every cancelled-then-resumed scenario
/// must reproduce.
fn baseline<'r>(reads: &'r ReadSet, ctx: &ExecCtx) -> GraphState<'r> {
    let mut state = GraphState::new(reads);
    Pipeline::paper_workflow(&config())
        .try_run(&mut state, ctx)
        .unwrap();
    assert!(!state.output.is_empty(), "the baseline must assemble");
    state
}

/// Cancels its handle once `after` stages have completed, and records what
/// the `on_cancelled` observer hook reported.
struct CancelAfter {
    control: JobControl,
    after: usize,
    seen: usize,
    reported: Option<(CancelReason, String)>,
}

impl PipelineObserver for CancelAfter {
    fn on_stage_end(&mut self, _report: &StageReport) {
        self.seen += 1;
        if self.seen == self.after {
            self.control.cancel();
        }
    }

    fn on_cancelled(&mut self, reason: CancelReason, stage: &str) {
        self.reported = Some((reason, stage.to_string()));
    }
}

#[test]
fn cancel_at_every_stage_boundary_snapshots_and_resumes_byte_identically() {
    let reads = simulated_reads();
    let ctx = ExecCtx::new(WORKERS);
    let expected = baseline(&reads, &ctx);
    assert_eq!(
        Pipeline::<'static>::paper_workflow(&config()).stage_count(),
        STAGES
    );

    for stage in 0..STAGES {
        let tmp = TmpDir::new(&format!("cancel-boundary-{stage}"));
        let control = JobControl::new();
        // Boundary 0 precedes every stage end, so the cancel arrives before
        // the run instead of from the observer.
        if stage == 0 {
            control.cancel();
        }
        let mut obs = CancelAfter {
            control: control.clone(),
            after: stage,
            seen: 0,
            reported: None,
        };
        ctx.set_control(control.clone());
        let mut state = GraphState::new(&reads);
        // EveryN(5) only saves after stages 5 and 10: at the other ten
        // boundaries the snapshot that makes the resume possible is the
        // emergency one written by the trip itself.
        let err = Pipeline::paper_workflow(&config())
            .checkpoint_to(
                &tmp.0,
                CheckpointPolicy::EveryN(NonZeroUsize::new(5).unwrap()),
            )
            .observe(&mut obs)
            .try_run(&mut state, &ctx)
            .expect_err("the cancel must stop the run");
        ctx.clear_control();
        assert!(
            matches!(
                &err,
                PipelineError::Cancelled {
                    reason: CancelReason::Requested,
                    superstep: None,
                    ..
                }
            ),
            "stage {stage}: got {err:?}"
        );
        let cut_stage = match &err {
            PipelineError::Cancelled { stage, .. } => stage.clone(),
            other => panic!("stage {stage}: got {other:?}"),
        };
        assert_eq!(
            obs.reported,
            Some((CancelReason::Requested, cut_stage)),
            "stage {stage}: the on_cancelled hook must fire with the trip"
        );

        // The emergency snapshot pins exactly `stage` completed stages.
        let ckpt = checkpoint::latest(&tmp.0)
            .unwrap()
            .expect("an emergency snapshot");
        assert!(
            ckpt.ends_with(format!("stage-{stage:04}")),
            "stage {stage}: got {ckpt:?}"
        );

        // A new pipeline (a new "process") resumes from the cut point and
        // must match the baseline byte for byte.
        let (resumed, reports) = Pipeline::paper_workflow(&config())
            .resume(&tmp.0, &reads, &ctx)
            .expect("the resume succeeds");
        assert_eq!(
            reports.len(),
            STAGES - stage,
            "stage {stage}: resume replays exactly the remaining stages"
        );
        assert_eq!(
            resumed, expected,
            "stage {stage}: resumed state diverged from the uninterrupted run"
        );
    }
}

#[test]
fn a_deadline_trips_mid_superstep_and_resume_completes_the_assembly() {
    let reads = simulated_reads();
    let ctx = ExecCtx::new(WORKERS);
    let expected = baseline(&reads, &ctx);

    // The 2s stall parks the coordinator at the first superstep-1 barrier —
    // inside the label stage, the workflow's first Pregel job — until the
    // 1.5s deadline has expired, making the trip point deterministic
    // regardless of machine speed.
    let tmp = TmpDir::new("cancel-deadline");
    let armed = ctx.inject_faults(FaultPlan::single(Fault::Stall {
        superstep: 1,
        millis: 2_000,
    }));
    let control = JobControl::new().with_deadline_in(Duration::from_millis(1_500));
    ctx.set_control(control.clone());
    let mut state = GraphState::new(&reads);
    let err = Pipeline::paper_workflow(&config())
        .checkpoint_to(&tmp.0, CheckpointPolicy::EveryStage)
        .try_run(&mut state, &ctx)
        .expect_err("the deadline must trip");
    ctx.clear_control();
    ctx.clear_faults();
    assert!(armed.all_fired(), "the stall must fire before the trip");
    assert!(
        matches!(&err, PipelineError::Cancelled {
            reason: CancelReason::Deadline,
            stage,
            superstep: Some(1),
        } if stage == "label"),
        "got {err:?}"
    );
    assert_eq!(control.reason(), Some(CancelReason::Deadline));

    // A mid-stage trip writes no emergency snapshot (the state may be
    // mid-superstep-inconsistent); resume continues from the last policy
    // snapshot — here the one after construct — and must match the baseline.
    let ckpt = checkpoint::latest(&tmp.0)
        .unwrap()
        .expect("the construct boundary snapshot");
    assert!(ckpt.ends_with("stage-0001"), "got {ckpt:?}");
    let (resumed, reports) = Pipeline::paper_workflow(&config())
        .resume(&tmp.0, &reads, &ctx)
        .expect("the resume succeeds");
    assert_eq!(reports.len(), STAGES - 1);
    assert_eq!(resumed, expected);
}

#[test]
fn a_memory_budget_trips_on_the_first_bookkept_superstep_and_resumes() {
    let reads = simulated_reads();
    let ctx = ExecCtx::new(WORKERS);
    let expected = baseline(&reads, &ctx);

    // A 1-byte budget trips at the first barrier that books a non-empty
    // vertex store: superstep 0 of the label stage's first Pregel job.
    let tmp = TmpDir::new("cancel-budget");
    let control = JobControl::new().with_memory_budget(1);
    ctx.set_control(control.clone());
    let mut state = GraphState::new(&reads);
    let err = Pipeline::paper_workflow(&config())
        .checkpoint_to(&tmp.0, CheckpointPolicy::EveryStage)
        .try_run(&mut state, &ctx)
        .expect_err("the budget must trip");
    ctx.clear_control();
    assert!(
        matches!(&err, PipelineError::Cancelled {
            reason: CancelReason::MemoryBudget,
            stage,
            superstep: Some(0),
        } if stage == "label"),
        "got {err:?}"
    );
    assert_eq!(control.reason(), Some(CancelReason::MemoryBudget));

    let (resumed, reports) = Pipeline::paper_workflow(&config())
        .resume(&tmp.0, &reads, &ctx)
        .expect("the resume succeeds");
    assert_eq!(reports.len(), STAGES - 1);
    assert_eq!(resumed, expected);
}

#[test]
fn an_async_cancel_unwinds_cleanly_and_the_pool_stays_reusable() {
    let reads = simulated_reads();
    let ctx = ExecCtx::new(WORKERS);
    let expected = baseline(&reads, &ctx);

    // Fire the cancel from outside the run, the way an operator would: a
    // watcher thread waits for the job's first cooperative poll (proof the
    // run is underway) and then flips the shared latch.
    let control = JobControl::new();
    ctx.set_control(control.clone());
    let watcher = {
        let control = control.clone();
        std::thread::spawn(move || {
            while control.checks() == 0 {
                std::thread::yield_now();
            }
            control.cancel();
        })
    };
    let mut state = GraphState::new(&reads);
    let err = Pipeline::paper_workflow(&config())
        .try_run(&mut state, &ctx)
        .expect_err("the async cancel must stop the run");
    watcher.join().unwrap();
    ctx.clear_control();
    assert!(
        matches!(
            &err,
            PipelineError::Cancelled {
                reason: CancelReason::Requested,
                ..
            }
        ),
        "got {err:?}"
    );
    assert!(control.checks() > 0, "the run must have polled the handle");

    // Job 2 on the *same* context must be byte-identical to the reference:
    // no poisoned slots, stale messages or half-dispatched phases survive.
    let mut reused = GraphState::new(&reads);
    Pipeline::paper_workflow(&config())
        .try_run(&mut reused, &ctx)
        .unwrap();
    assert_eq!(
        reused, expected,
        "job 2 on the surviving pool diverged from the reference run"
    );
}

/// Cancels its handle when the named stage starts — after the pipeline's
/// own poll at that stage's boundary, before the stage's first barrier.
struct CancelWhenStageStarts {
    control: JobControl,
    stage: &'static str,
}

impl PipelineObserver for CancelWhenStageStarts {
    fn on_stage_start(&mut self, stage: &str) {
        if stage == self.stage {
            self.control.cancel();
        }
    }
}

/// The only spilling test of this binary, so its `our_spill_dirs` scan
/// cannot race a sibling's live job directory.
#[test]
fn a_cancel_during_kmer_counting_trips_at_the_scatter_count_barrier() {
    let reads = simulated_reads();
    let ctx = ExecCtx::new(WORKERS);
    let expected = baseline(&reads, &ctx);

    // Under a spill cap, so the counting pass owns a temp directory when
    // the trip unwinds it.
    ctx.set_spill(SpillPolicy::At(16 * 1024));
    let control = JobControl::new();
    ctx.set_control(control.clone());
    let mut obs = CancelWhenStageStarts {
        control: control.clone(),
        stage: "construct",
    };
    let mut state = GraphState::new(&reads);
    let err = Pipeline::paper_workflow(&config())
        .observe(&mut obs)
        .try_run(&mut state, &ctx)
        .expect_err("the cancel must stop construction");
    ctx.clear_control();
    ctx.clear_spill();
    assert!(
        matches!(&err, PipelineError::Cancelled {
            reason: CancelReason::Requested,
            stage,
            superstep: Some(0),
        } if stage == "construct"),
        "got {err:?}"
    );
    // Two polls: the pipeline's at the construct boundary (still live), the
    // counter's between its scatter and count phases (tripped) — phase (ii)'s
    // map→reduce barrier was never reached.
    assert_eq!(control.checks(), 2);
    assert!(
        our_spill_dirs().is_empty(),
        "the unwind must remove the counting pass's temp dir, found {:?}",
        our_spill_dirs()
    );

    // The trip was raised on the coordinator: the same pool runs the whole
    // workflow again, byte-identically.
    let mut reused = GraphState::new(&reads);
    Pipeline::paper_workflow(&config())
        .try_run(&mut reused, &ctx)
        .unwrap();
    assert_eq!(reused, expected);
}
