//! Crash-matrix integration tests for the fault-tolerance layer: at every
//! stage boundary of the paper's ①②③(④⑤②③)×r workflow — mid-stage, at
//! superstep barriers inside the Pregel jobs, and at a failed checkpoint
//! write — an injected crash is a typed error from `Pipeline::try_run`, and
//! `Pipeline::resume` from the last checkpoint must then produce a state
//! byte-identical to an uninterrupted run's. Corrupted, truncated or foreign
//! snapshots must surface as typed errors, never panics, and a worker pool
//! that propagated a panic must stay reusable.

use ppa_assembler::pipeline::{
    CheckpointPolicy, GraphState, Pipeline, PipelineError, Stage, StageDetails, StageReport,
};
use ppa_assembler::{checkpoint, AssemblyConfig, CheckpointError};
use ppa_pregel::{ExecCtx, Fault, FaultPlan};
use ppa_readsim::{GenomeConfig, ReadSimConfig};
use ppa_seq::ReadSet;
use ppa_tests::TmpDir;

const WORKERS: usize = 2;

/// r=2 correction rounds: ①②③ (④⑤②③)×2 + length filter = 12 flattened
/// stages, the full crash matrix of the paper workflow.
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

/// The uninterrupted reference run every crash scenario must reproduce.
fn baseline<'r>(reads: &'r ReadSet, ctx: &ExecCtx) -> GraphState<'r> {
    let mut state = GraphState::new(reads);
    Pipeline::paper_workflow(&config())
        .try_run(&mut state, ctx)
        .unwrap();
    assert!(!state.output.is_empty(), "the baseline must assemble");
    state
}

#[test]
fn crash_at_every_stage_boundary_resumes_byte_identically() {
    let reads = simulated_reads();
    let ctx = ExecCtx::new(WORKERS);
    let expected = baseline(&reads, &ctx);
    assert_eq!(
        Pipeline::<'static>::paper_workflow(&config()).stage_count(),
        STAGES
    );

    for stage in 0..STAGES {
        let tmp = TmpDir::new(&format!("ft-boundary-{stage}"));

        // Crash exactly at the boundary: entry to flattened stage `stage`.
        let armed = ctx.inject_faults(FaultPlan::single(Fault::StageEntry { stage }));
        let mut state = GraphState::new(&reads);
        let err = Pipeline::paper_workflow(&config())
            .checkpoint_to(&tmp.0, CheckpointPolicy::EveryStage)
            .try_run(&mut state, &ctx)
            .expect_err("the injected crash must surface");
        assert!(
            matches!(&err, PipelineError::Stage { message, .. }
                if message.contains("injected fault")),
            "stage {stage}: got {err:?}"
        );
        assert!(armed.all_fired(), "stage {stage}: the fault must fire");

        // The snapshot on disk is exactly the work completed before the crash.
        let latest = checkpoint::latest(&tmp.0).unwrap();
        if stage == 0 {
            assert!(latest.is_none(), "no stage completed before the crash");
        } else {
            let ckpt = latest.expect("a snapshot of the completed prefix");
            assert!(ckpt.ends_with(format!("stage-{stage:04}")));
        }

        // A new pipeline (a new "process") resumes — or restarts when the
        // crash predated the first snapshot — and must match the baseline
        // byte for byte, including metrics-bearing label state and output.
        ctx.clear_faults();
        let resumed = if stage == 0 {
            let mut fresh = GraphState::new(&reads);
            Pipeline::paper_workflow(&config())
                .try_run(&mut fresh, &ctx)
                .expect("the restart succeeds");
            fresh
        } else {
            let (resumed, reports) = Pipeline::paper_workflow(&config())
                .resume(&tmp.0, &reads, &ctx)
                .expect("the resume succeeds");
            assert_eq!(
                reports.len(),
                STAGES - stage,
                "stage {stage}: resume replays exactly the remaining stages"
            );
            resumed
        };
        assert_eq!(
            resumed, expected,
            "stage {stage}: resumed state diverged from the uninterrupted run"
        );
    }
}

#[test]
fn mid_stage_worker_crashes_recover_from_the_last_checkpoint() {
    let reads = simulated_reads();
    let ctx = ExecCtx::new(WORKERS);
    let expected = baseline(&reads, &ctx);

    // Flattened positions of the Pregel-driven stages in the r=2 workflow:
    // label at 1/5/9, tip removal at 4/8. Superstep 0 always exists; the
    // first labeling of the full k-mer graph also runs deep enough for a
    // later-superstep, second-worker crash.
    let mid_stage_faults = [
        Fault::Superstep {
            stage: 1,
            superstep: 2,
            worker: 1,
        },
        Fault::Superstep {
            stage: 4,
            superstep: 0,
            worker: 0,
        },
        Fault::Superstep {
            stage: 5,
            superstep: 0,
            worker: 1,
        },
        Fault::Superstep {
            stage: 8,
            superstep: 0,
            worker: 0,
        },
        Fault::Superstep {
            stage: 9,
            superstep: 0,
            worker: 0,
        },
    ];
    for (i, fault) in mid_stage_faults.into_iter().enumerate() {
        let Fault::Superstep { stage, worker, .. } = fault else {
            unreachable!("every fault above is a superstep fault")
        };
        let tmp = TmpDir::new(&format!("ft-mid-{i}"));
        let armed = ctx.inject_faults(FaultPlan::single(fault));
        let mut state = GraphState::new(&reads);
        let err = Pipeline::paper_workflow(&config())
            .checkpoint_to(&tmp.0, CheckpointPolicy::EveryStage)
            .try_run(&mut state, &ctx)
            .expect_err("the injected worker crash must surface");
        ctx.clear_faults();
        assert!(armed.all_fired(), "{fault:?} must fire");
        assert!(
            matches!(&err, PipelineError::Stage { message, .. }
                if message.contains(&format!("worker {worker} panicked"))
                    && message.contains("injected fault")),
            "{fault:?}: got {err:?}"
        );

        // The retry is a resume from the last checkpoint: the snapshot of
        // the stages completed before the crashed one.
        let (resumed, reports) = Pipeline::paper_workflow(&config())
            .checkpoint_to(&tmp.0, CheckpointPolicy::EveryStage)
            .resume(&tmp.0, &reads, &ctx)
            .expect("the resume from the last checkpoint succeeds");
        assert_eq!(reports.len(), STAGES - stage, "{fault:?}");
        assert_eq!(
            resumed, expected,
            "{fault:?}: resumed state diverged from the uninterrupted run"
        );
    }
}

#[test]
fn checkpoint_write_failure_is_typed_and_resume_recovers() {
    let reads = simulated_reads();
    let ctx = ExecCtx::new(WORKERS);
    let expected = baseline(&reads, &ctx);

    // The failure is a typed checkpoint error, not a panic.
    let tmp = TmpDir::new("ft-ckpt-write");
    let armed = ctx.inject_faults(FaultPlan::single(Fault::CheckpointWrite { nth: 2 }));
    let mut state = GraphState::new(&reads);
    let err = Pipeline::paper_workflow(&config())
        .checkpoint_to(&tmp.0, CheckpointPolicy::EveryStage)
        .try_run(&mut state, &ctx)
        .expect_err("the injected write failure must surface");
    ctx.clear_faults();
    assert!(armed.all_fired());
    assert!(
        matches!(&err, PipelineError::Checkpoint(CheckpointError::Io(msg))
            if msg.contains("injected fault")),
        "got {err:?}"
    );

    // The surviving snapshot is save #1; resuming from it re-runs every
    // later stage, writes save #2 this time, and completes.
    let ckpt = checkpoint::latest(&tmp.0).unwrap().expect("save #1");
    assert!(ckpt.ends_with("stage-0001"), "got {ckpt:?}");
    let (resumed, reports) = Pipeline::paper_workflow(&config())
        .checkpoint_to(&tmp.0, CheckpointPolicy::EveryStage)
        .resume(&tmp.0, &reads, &ctx)
        .expect("the resume past the failed write succeeds");
    assert_eq!(reports.len(), STAGES - 1);
    assert_eq!(resumed, expected);
}

/// A custom stage whose pool phase panics on worker 1.
struct PanicsOnWorkerOne;

impl Stage for PanicsOnWorkerOne {
    fn name(&self) -> &str {
        "panics_on_worker_one"
    }

    fn run(&self, _state: &mut GraphState<'_>, ctx: &ExecCtx) -> StageReport {
        ctx.pool().run_per_worker(vec![(); ctx.workers()], |w, ()| {
            if w == 1 {
                panic!("the custom stage gives up");
            }
        });
        StageReport::new(self.name(), StageDetails::Custom)
    }
}

#[test]
fn a_worker_panic_in_a_custom_stage_is_a_typed_stage_error() {
    let reads = simulated_reads();
    let ctx = ExecCtx::new(WORKERS);
    let mut state = GraphState::new(&reads);
    let err = Pipeline::new()
        .then(PanicsOnWorkerOne)
        .try_run(&mut state, &ctx)
        .expect_err("the worker panic must surface");
    match &err {
        PipelineError::Stage {
            stage,
            round,
            message,
        } => {
            assert_eq!((stage.as_str(), *round), ("panics_on_worker_one", 1));
            // The pool names the worker; the panic text follows.
            assert_eq!(message, "worker 1 panicked: the custom stage gives up");
        }
        other => panic!("expected a Stage error, got {other:?}"),
    }

    // The pool drained before the panic crossed it: the paper workflow on
    // the same context assembles the undisturbed contigs.
    let mut reused = GraphState::new(&reads);
    Pipeline::paper_workflow(&config())
        .try_run(&mut reused, &ctx)
        .unwrap();
    let fresh = baseline(&reads, &ExecCtx::new(WORKERS));
    assert_eq!(reused.output, fresh.output);
}

#[test]
fn damaged_or_foreign_snapshots_error_without_panicking() {
    let reads = simulated_reads();
    let ctx = ExecCtx::new(WORKERS);
    let tmp = TmpDir::new("ft-damage");
    let mut state = GraphState::new(&reads);
    Pipeline::paper_workflow(&config())
        .checkpoint_to(&tmp.0, CheckpointPolicy::EveryStage)
        .try_run(&mut state, &ctx)
        .unwrap();
    let ckpt = checkpoint::latest(&tmp.0).unwrap().expect("a snapshot");
    let section = ckpt.join("nodes.col");
    let pristine = std::fs::read(&section).unwrap();

    // Truncated section file → typed Truncated/Corrupt, never a panic.
    std::fs::write(&section, &pristine[..pristine.len() / 2]).unwrap();
    let err = Pipeline::paper_workflow(&config())
        .resume(&tmp.0, &reads, &ctx)
        .expect_err("a truncated section must be rejected");
    assert!(
        matches!(
            &err,
            PipelineError::Checkpoint(
                CheckpointError::Truncated { .. } | CheckpointError::Corrupt { .. }
            )
        ),
        "got {err:?}"
    );

    // Flipped byte (same length) → checksum catches it as Corrupt.
    let mut flipped = pristine.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0xff;
    std::fs::write(&section, &flipped).unwrap();
    let err = Pipeline::paper_workflow(&config())
        .resume(&tmp.0, &reads, &ctx)
        .expect_err("a corrupt section must be rejected");
    assert!(
        matches!(
            &err,
            PipelineError::Checkpoint(CheckpointError::Corrupt { .. })
        ),
        "got {err:?}"
    );

    // Missing section file → Corrupt (incomplete snapshot).
    std::fs::remove_file(&section).unwrap();
    let err = Pipeline::paper_workflow(&config())
        .resume(&tmp.0, &reads, &ctx)
        .expect_err("a missing section must be rejected");
    assert!(
        matches!(
            &err,
            PipelineError::Checkpoint(CheckpointError::Corrupt { .. })
        ),
        "got {err:?}"
    );
    std::fs::write(&section, &pristine).unwrap();

    // A different read set → Mismatch: the snapshot belongs to another run.
    let other_reads = {
        let reference = GenomeConfig {
            length: 2_000,
            repeat_families: 0,
            seed: 999,
            ..Default::default()
        }
        .generate();
        ReadSimConfig::error_free(100, 15.0).simulate(&reference)
    };
    let err = Pipeline::paper_workflow(&config())
        .resume(&tmp.0, &other_reads, &ctx)
        .expect_err("foreign reads must be rejected");
    assert!(
        matches!(&err, PipelineError::Checkpoint(CheckpointError::Mismatch { what, .. })
            if what == "input reads"),
        "got {err:?}"
    );

    // The same reads with one name byte changed, or with the same bases and
    // names but the first read boundary moved one base → Mismatch as well.
    let seqs = ppa_tests::sequences(&reads);
    let bases: Vec<u8> = seqs.concat();
    let mut ends: Vec<usize> = reads
        .records
        .base_ends()
        .iter()
        .map(|&e| e as usize)
        .collect();
    ends[0] += 1;
    let moved: ReadSet = reads
        .records
        .iter()
        .zip(&ends)
        .scan(0, |start, (read, &end)| {
            let seq = &bases[*start..end];
            *start = end;
            Some((read.name, seq))
        })
        .collect();
    let renamed: ReadSet = reads
        .records
        .iter()
        .zip(&seqs)
        .enumerate()
        .map(|(i, (read, seq))| {
            let mut name = read.name.to_vec();
            if i == 1 {
                name[0] ^= 1;
            }
            (name, seq)
        })
        .collect();
    for (case, foreign) in [("moved boundary", &moved), ("renamed read", &renamed)] {
        assert_eq!(foreign.total_bases(), bases.len(), "{case}");
        let err = Pipeline::paper_workflow(&config())
            .resume(&tmp.0, foreign, &ctx)
            .expect_err(case);
        assert!(
            matches!(&err, PipelineError::Checkpoint(CheckpointError::Mismatch { what, .. })
                if what == "input reads"),
            "{case}: got {err:?}"
        );
    }

    // A pipeline with different parameters → fingerprint Mismatch.
    let other_config = AssemblyConfig {
        tip_length_threshold: 40,
        ..config()
    };
    let err = Pipeline::paper_workflow(&other_config)
        .resume(&tmp.0, &reads, &ctx)
        .expect_err("a reconfigured pipeline must be rejected");
    assert!(
        matches!(&err, PipelineError::Checkpoint(CheckpointError::Mismatch { what, .. })
            if what == "pipeline fingerprint"),
        "got {err:?}"
    );

    // No snapshot at all → NotFound.
    let empty = TmpDir::new("ft-empty");
    let err = Pipeline::paper_workflow(&config())
        .resume(&empty.0, &reads, &ctx)
        .expect_err("an empty directory cannot be resumed");
    assert!(
        matches!(
            &err,
            PipelineError::Checkpoint(CheckpointError::NotFound(_))
        ),
        "got {err:?}"
    );
}

#[test]
fn a_pool_that_propagated_a_panic_stays_reusable_and_deterministic() {
    let reads = simulated_reads();

    // Job 1 on a shared context dies mid-superstep; job 2 on the *same*
    // context must be byte-identical to the same job on a fresh pool — no
    // poisoned slots, stale messages or half-dispatched phases may survive.
    let ctx = ExecCtx::new(WORKERS);
    ctx.inject_faults(FaultPlan::single(Fault::Superstep {
        stage: 1,
        superstep: 1,
        worker: 0,
    }));
    let mut crashed = GraphState::new(&reads);
    let err = Pipeline::paper_workflow(&config())
        .try_run(&mut crashed, &ctx)
        .expect_err("job 1 must die on the injected worker panic");
    ctx.clear_faults();
    assert!(
        matches!(&err, PipelineError::Stage { stage, message, .. }
            if stage == "label" && message.contains("injected fault")),
        "got {err:?}"
    );

    let mut reused = GraphState::new(&reads);
    Pipeline::paper_workflow(&config())
        .try_run(&mut reused, &ctx)
        .unwrap();
    let fresh = baseline(&reads, &ExecCtx::new(WORKERS));
    assert_eq!(
        reused, fresh,
        "job 2 on the surviving pool diverged from a fresh-pool run"
    );
}
