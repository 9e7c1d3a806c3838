//! Cancellation hygiene for the out-of-core data plane: a [`JobControl`]
//! trip while spill files are live must unwind without leaving any spill
//! artefact behind, and the worker pool must stay reusable.
//!
//! This test lives in its own binary (one process) so scanning the system
//! temp directory for this process's `ppa-spill-<pid>-*` job directories
//! cannot race other spilling tests.

use ppa_assembler::{assemble, try_assemble, AssemblyConfig, PipelineError};
use ppa_pregel::{CancelReason, ExecCtx, JobControl, SpillPolicy};
use ppa_readsim::{GenomeConfig, ReadSimConfig};
use ppa_seq::ReadSet;
use ppa_tests::our_spill_dirs;

fn simulated_reads() -> ReadSet {
    let reference = GenomeConfig {
        length: 6_000,
        repeat_families: 3,
        repeat_copies: 2,
        repeat_length: 100,
        seed: 404,
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
        seed: 405,
    }
    .simulate(&reference)
}

#[test]
fn a_cancelled_spilling_run_removes_its_temp_files() {
    let reads = simulated_reads();
    let workers = 2;
    let ctx = ExecCtx::new(workers);
    let config = AssemblyConfig {
        k: 21,
        min_kmer_coverage: 1,
        workers,
        error_correction_rounds: 1,
        spill: SpillPolicy::At(16 * 1024),
        exec: Some(ctx.clone()),
        ..Default::default()
    };

    // A 1-byte memory budget trips at the first bookkept superstep of the
    // label stage — after the capped job has created its spill directory and
    // sealed the over-cap vertex store to disk.
    ctx.set_control(JobControl::new().with_memory_budget(1));
    let err = try_assemble(&reads, &config).expect_err("the 1-byte budget must trip");
    ctx.clear_control();
    assert!(
        matches!(
            &err,
            PipelineError::Cancelled {
                reason: CancelReason::MemoryBudget,
                ..
            }
        ),
        "got {err:?}"
    );
    assert!(
        our_spill_dirs().is_empty(),
        "cancellation must remove every spill artefact, found {:?}",
        our_spill_dirs()
    );

    // The surviving pool completes an uncontrolled spilling run — and leaves
    // the temp dir clean again afterwards.
    let done = assemble(&reads, &config);
    assert!(!done.contigs.is_empty());
    assert!(
        done.stats.construct.phase1.spilled_bytes + done.stats.label_round1.spilled_bytes > 0,
        "the 16 KiB cap must force spilling"
    );
    assert!(
        our_spill_dirs().is_empty(),
        "a completed run must remove every spill artefact, found {:?}",
        our_spill_dirs()
    );
}
