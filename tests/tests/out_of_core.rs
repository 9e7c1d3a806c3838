//! Integration tests for the out-of-core data plane: a memory-bounded
//! assembly ([`SpillPolicy::At`]) must produce contigs byte-identical to the
//! fully resident run across spill caps and worker counts, with the cap
//! binding construction's keyed passes and every labeling job running
//! resident, and the fault-tolerance layer must compose with it — a crash
//! inside a capped run's labeling resumes from the last checkpoint byte for
//! byte and leaves no spill directory behind.
//!
//! Every test takes [`serial`] first: the crash test scans the temp
//! directory for this process's spill directories, which a concurrently
//! running capped assembly would otherwise hold open.

use ppa_assembler::ops::construct::{build_dbg_on, ConstructConfig};
use ppa_assembler::ops::label::label_contigs_lr_on;
use ppa_assembler::ops::label_sv::label_contigs_sv_on;
use ppa_assembler::pipeline::{CheckpointPolicy, GraphState, Pipeline, PipelineError};
use ppa_assembler::{assemble, Assembly, AssemblyConfig, LabelingAlgorithm};
use ppa_pregel::{ExecCtx, Fault, FaultPlan, SpillPolicy};
use ppa_readsim::{GenomeConfig, ReadSimConfig};
use ppa_seq::ReadSet;
use ppa_tests::{fingerprint, our_spill_dirs, TmpDir};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Runs this binary's tests one at a time (see the module docs).
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn config(workers: usize, spill: SpillPolicy) -> AssemblyConfig {
    AssemblyConfig {
        k: 21,
        min_kmer_coverage: 1,
        workers,
        error_correction_rounds: 1,
        spill,
        ..Default::default()
    }
}

fn simulated_reads() -> ReadSet {
    let reference = GenomeConfig {
        length: 6_000,
        repeat_families: 3,
        repeat_copies: 2,
        repeat_length: 100,
        seed: 2024,
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
        seed: 2025,
    }
    .simulate(&reference)
}

/// Bytes construction's two keyed passes spilled.
fn construct_spilled(assembly: &Assembly) -> u64 {
    let construct = &assembly.stats.construct;
    construct.phase1.spilled_bytes + construct.phase2.spilled_bytes
}

/// Spill traffic, both ways, of every Pregel job of a run: the labeling
/// rounds and each round's tip removal.
fn pregel_spill_traffic(assembly: &Assembly) -> u64 {
    let stats = &assembly.stats;
    let labels = std::iter::once(&stats.label_round1).chain(&stats.label_round2);
    let tips = stats.corrections.iter().map(|c| &c.tip_metrics);
    labels
        .map(|l| l.spilled_bytes + l.spill_read_bytes + l.spilled_runs)
        .chain(tips.map(|m| m.spilled_bytes + m.spill_read_bytes + m.spilled_runs))
        .sum()
}

/// Total bytes spilled across every stage of a run.
fn spilled_bytes(assembly: &Assembly) -> u64 {
    construct_spilled(assembly) + pregel_spill_traffic(assembly)
}

#[test]
fn spilled_contigs_are_byte_identical_across_caps_and_worker_counts() {
    let _serial = serial();
    let reads = simulated_reads();
    for workers in [2, 4] {
        let resident = assemble(&reads, &config(workers, SpillPolicy::Off));
        assert!(!resident.contigs.is_empty());
        assert_eq!(
            spilled_bytes(&resident),
            0,
            "SpillPolicy::Off must not touch disk"
        );
        let reference = fingerprint(&resident.contigs);

        // Sweep the cap across an order of magnitude; the smaller caps are
        // far below the working set, so they must exercise the disk path of
        // construction's keyed passes. A scatter worker never writes out its
        // last scan task, and at four workers on this 6 kb genome every
        // worker has only one task with records to spare, so the check is
        // made at two.
        for (cap, must_spill) in [(256 * 1024, false), (64 * 1024, true), (16 * 1024, true)] {
            let spilled = assemble(&reads, &config(workers, SpillPolicy::At(cap)));
            assert_eq!(
                fingerprint(&spilled.contigs),
                reference,
                "workers={workers} cap={cap}: spilled contigs diverged"
            );
            assert_eq!(
                pregel_spill_traffic(&spilled),
                0,
                "workers={workers} cap={cap}: labeling and tip removal run resident"
            );
            if must_spill && workers == 2 {
                assert!(
                    construct_spilled(&spilled) > 0,
                    "workers={workers} cap={cap}: expected the cap to force spilling"
                );
            }
        }
    }
}

/// Reads around three circular genomes: every k-mer of a genome has one
/// neighbour per side, so each genome is one unambiguous cycle of ≈ 3 000
/// vertices.
fn circular_reads() -> ReadSet {
    let mut reads: Vec<(String, String)> = Vec::new();
    for seed in 1..=3 {
        let genome = GenomeConfig {
            length: 3_000,
            repeat_families: 0,
            seed,
            ..Default::default()
        }
        .generate()
        .sequence
        .to_ascii();
        let ring = format!("{genome}{}", &genome[..99]);
        for start in (0..genome.len()).step_by(10) {
            reads.push((format!("g{seed}r{start}"), ring[start..start + 100].into()));
        }
    }
    reads.into_iter().collect()
}

#[test]
fn capped_labeling_jobs_run_resident_and_label_as_the_resident_job() {
    // The labeling jobs alone, under the caps the sweep above uses: list
    // ranking on both node sets — the second is all unambiguous cycles,
    // which list ranking hands to its S-V fallback — and S-V on both. A cap
    // changes nothing: the same labels, ambiguous IDs, fallback flag,
    // supersteps and messages as the uncapped job, and nothing spilled.
    let _serial = serial();
    let ctx = ExecCtx::new(2);
    let construct = ConstructConfig {
        k: 21,
        min_coverage: 1,
        ..Default::default()
    };
    for (reads, cycles) in [(simulated_reads(), false), (circular_reads(), true)] {
        let nodes = build_dbg_on(&ctx, &reads, &construct).into_nodes();
        let lr_resident = label_contigs_lr_on(&ctx, &nodes);
        let sv_resident = label_contigs_sv_on(&ctx, &nodes);
        assert_eq!(lr_resident.used_cycle_fallback, cycles);

        for cap in [64 * 1024, 16 * 1024] {
            ctx.set_spill(SpillPolicy::At(cap));
            let lr = label_contigs_lr_on(&ctx, &nodes);
            let sv = label_contigs_sv_on(&ctx, &nodes);
            ctx.clear_spill();
            for (capped, resident) in [(&lr, &lr_resident), (&sv, &sv_resident)] {
                assert_eq!(capped.labels, resident.labels, "cap={cap}");
                assert_eq!(capped.ambiguous, resident.ambiguous, "cap={cap}");
                assert_eq!(capped.used_cycle_fallback, resident.used_cycle_fallback);
                assert_eq!(capped.metrics.supersteps, resident.metrics.supersteps);
                assert_eq!(
                    capped.metrics.total_messages,
                    resident.metrics.total_messages
                );
                assert_eq!(capped.metrics.total_dropped, 0);
                assert_eq!(
                    (
                        capped.metrics.spilled_bytes,
                        capped.metrics.spill_read_bytes,
                        capped.metrics.spilled_runs
                    ),
                    (0, 0, 0),
                    "cap={cap}: the labeling job runs resident"
                );
            }
        }
    }
}

#[test]
fn a_capped_sv_workflow_spills_only_in_construct_and_assembles_the_same_contigs() {
    // The cap binds construction under the other labeling choice too, and
    // the S-V job runs resident beside it.
    let _serial = serial();
    let reads = simulated_reads();
    for workers in 1..=4 {
        let sv = |spill| AssemblyConfig {
            labeling: LabelingAlgorithm::SimplifiedSV,
            ..config(workers, spill)
        };
        let resident = assemble(&reads, &sv(SpillPolicy::Off));
        assert!(!resident.contigs.is_empty());
        assert_eq!(spilled_bytes(&resident), 0);

        let capped = assemble(&reads, &sv(SpillPolicy::At(16 * 1024)));
        assert_eq!(
            fingerprint(&capped.contigs),
            fingerprint(&resident.contigs),
            "workers={workers}: capped S-V contigs diverged"
        );
        // As in the sweep above: at three and four workers no scatter worker
        // of this 6 kb genome has a scan task before its last to spill after.
        if workers <= 2 {
            assert!(
                construct_spilled(&capped) > 0,
                "workers={workers}: construction must spill under a 16 KiB cap"
            );
        }
        assert_eq!(
            pregel_spill_traffic(&capped),
            0,
            "workers={workers}: the S-V job and tip removal run resident"
        );
        let label = &capped.stats.label_round1;
        assert_eq!(label.supersteps, resident.stats.label_round1.supersteps);
        assert_eq!(label.messages, resident.stats.label_round1.messages);
    }
}

#[test]
fn a_shared_context_does_not_leak_the_previous_runs_spill_policy() {
    let _serial = serial();
    let reads = simulated_reads();
    let ctx = ExecCtx::new(2);
    let shared = |spill| AssemblyConfig {
        exec: Some(ctx.clone()),
        ..config(2, spill)
    };

    // A tightly capped run on the shared context, then a resident run on the
    // same context: the second config's `Off` must win (and vice versa).
    let spilled = assemble(&reads, &shared(SpillPolicy::At(16 * 1024)));
    assert!(spilled_bytes(&spilled) > 0);
    let resident = assemble(&reads, &shared(SpillPolicy::Off));
    assert_eq!(spilled_bytes(&resident), 0);
    assert_eq!(
        fingerprint(&spilled.contigs),
        fingerprint(&resident.contigs)
    );
}

#[test]
fn a_crash_with_active_spill_files_resumes_byte_identically() {
    let _serial = serial();
    let reads = simulated_reads();
    let workers = 2;
    let ctx = ExecCtx::new(workers);
    // The pipeline API takes the context directly, so the spill policy is
    // installed by hand — `workflow::assemble` does the same internally.
    ctx.set_spill(SpillPolicy::At(16 * 1024));
    let cfg = config(workers, SpillPolicy::At(16 * 1024));

    // Uninterrupted spilling reference.
    let mut expected = GraphState::new(&reads);
    Pipeline::paper_workflow(&cfg).run(&mut expected, &ctx);
    assert!(!expected.output.is_empty());

    // Crash a worker at a superstep barrier *inside* the first labeling job
    // of the capped run — after construction's keyed passes have spilled —
    // and the unwind must leave no spill directory behind, while the resume
    // must reproduce the uninterrupted run byte for byte.
    let tmp = TmpDir::new("ooc-crash");
    let armed = ctx.inject_faults(FaultPlan::single(Fault::Superstep {
        stage: 1,
        superstep: 1,
        worker: 1,
    }));
    let mut state = GraphState::new(&reads);
    let err = Pipeline::paper_workflow(&cfg)
        .checkpoint_to(&tmp.0, CheckpointPolicy::EveryStage)
        .try_run(&mut state, &ctx)
        .expect_err("the injected crash must surface");
    ctx.clear_faults();
    assert!(armed.all_fired(), "the mid-label fault must fire");
    assert!(
        matches!(&err, PipelineError::Stage { message, .. }
            if message.contains("injected fault")),
        "got {err:?}"
    );
    assert!(
        our_spill_dirs().is_empty(),
        "the unwind must remove every spill artefact, found {:?}",
        our_spill_dirs()
    );

    let (resumed, _reports) = Pipeline::paper_workflow(&cfg)
        .resume(&tmp.0, &reads, &ctx)
        .expect("the resume succeeds");
    assert_eq!(
        resumed, expected,
        "resume with spilling enabled diverged from the uninterrupted run"
    );
}
