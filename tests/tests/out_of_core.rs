//! Integration tests for the out-of-core data plane: a memory-bounded
//! assembly ([`SpillPolicy::At`]) must produce contigs byte-identical to the
//! fully resident run across spill caps and worker counts, and the
//! fault-tolerance layer must compose with it — a crash while spill files are
//! active resumes from the last checkpoint byte for byte.

use ppa_assembler::ops::construct::{build_dbg_on, ConstructConfig};
use ppa_assembler::ops::label::label_contigs_lr_on;
use ppa_assembler::pipeline::{CheckpointPolicy, GraphState, Pipeline, PipelineError};
use ppa_assembler::{assemble, Assembly, AssemblyConfig, LabelingAlgorithm};
use ppa_pregel::{ExecCtx, Fault, FaultPlan, SpillPolicy};
use ppa_readsim::{GenomeConfig, ReadSimConfig};
use ppa_seq::ReadSet;
use ppa_tests::{fingerprint, TmpDir};

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

/// Total bytes spilled across every stage of a run.
fn spilled_bytes(assembly: &Assembly) -> u64 {
    let stats = &assembly.stats;
    stats.construct.phase1.spilled_bytes
        + stats.construct.phase2.spilled_bytes
        + stats.label_round1.spilled_bytes
        + stats
            .label_round2
            .iter()
            .map(|l| l.spilled_bytes)
            .sum::<u64>()
}

#[test]
fn spilled_contigs_are_byte_identical_across_caps_and_worker_counts() {
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

        // Sweep the cap across an order of magnitude; the smallest cap is far
        // below the working set, so it must actually exercise the disk path.
        for (cap, must_spill) in [(256 * 1024, false), (64 * 1024, true), (16 * 1024, true)] {
            let spilled = assemble(&reads, &config(workers, SpillPolicy::At(cap)));
            assert_eq!(
                fingerprint(&spilled.contigs),
                reference,
                "workers={workers} cap={cap}: spilled contigs diverged"
            );
            if must_spill {
                assert!(
                    spilled_bytes(&spilled) > 0,
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
fn a_capped_list_ranking_job_spills_its_rank_space_plane() {
    // The labeling job alone: its `u32` state and 16-byte message records
    // must still outgrow the caps the sweep above uses, go through their
    // spill codecs both ways and label exactly as the resident job does.
    // The second node set is all unambiguous cycles, which list ranking hands
    // to its S-V fallback: that job honours the cap too.
    let ctx = ExecCtx::new(2);
    let construct = ConstructConfig {
        k: 21,
        min_coverage: 1,
        ..Default::default()
    };
    for (reads, cycles) in [(simulated_reads(), false), (circular_reads(), true)] {
        let nodes = build_dbg_on(&ctx, &reads, &construct).into_nodes();
        let resident = label_contigs_lr_on(&ctx, &nodes);
        assert_eq!(resident.metrics.spilled_bytes, 0);
        if cycles {
            assert!(resident.used_cycle_fallback, "the rings take the fallback");
        }

        for cap in [64 * 1024, 16 * 1024] {
            ctx.set_spill(SpillPolicy::At(cap));
            let capped = label_contigs_lr_on(&ctx, &nodes);
            ctx.clear_spill();
            assert!(
                capped.metrics.spilled_bytes > 0 && capped.metrics.spill_read_bytes > 0,
                "cap={cap}: the list-ranking job must write and read back spill files, got {} / {}",
                capped.metrics.spilled_bytes,
                capped.metrics.spill_read_bytes
            );
            assert_eq!(capped.labels, resident.labels, "cap={cap}");
            assert_eq!(capped.ambiguous, resident.ambiguous, "cap={cap}");
            assert_eq!(capped.used_cycle_fallback, resident.used_cycle_fallback);
            assert_eq!(capped.metrics.supersteps, resident.metrics.supersteps);
            assert_eq!(
                capped.metrics.total_messages,
                resident.metrics.total_messages
            );
            assert_eq!(capped.metrics.total_dropped, 0);
        }
    }
}

#[test]
fn a_capped_sv_workflow_spills_its_labeling_and_assembles_the_same_contigs() {
    // The cap bounds the other labeling choice too: with fixed-size states
    // and bare-rank messages the S-V job has spill codecs.
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
        let label = &capped.stats.label_round1;
        assert!(
            label.spilled_bytes > 0,
            "workers={workers}: the S-V job must spill under a 16 KiB cap"
        );
        assert_eq!(label.supersteps, resident.stats.label_round1.supersteps);
        assert_eq!(label.messages, resident.stats.label_round1.messages);
    }
}

#[test]
fn a_shared_context_does_not_leak_the_previous_runs_spill_policy() {
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

    // Crash a worker at a superstep barrier *inside* the first labeling job,
    // while its spill directory (sealed columns + shuffle runs) is live on
    // disk; the unwind must clean it up and the resume must reproduce the
    // uninterrupted run byte for byte.
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

    let (resumed, _reports) = Pipeline::paper_workflow(&cfg)
        .resume(&tmp.0, &reads, &ctx)
        .expect("the resume succeeds");
    assert_eq!(
        resumed, expected,
        "resume with spilling enabled diverged from the uninterrupted run"
    );
}
