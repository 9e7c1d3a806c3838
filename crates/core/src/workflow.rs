//! The assembly workflow: the paper's evaluation pipeline (Figure 10,
//! workflow ①②③④⑤⑥②③) behind one function.
//!
//! [`try_assemble`] runs: DBG construction → contig labeling → contig merging →
//! (bubble filtering → tip removing → labeling → merging)×`error_correction_rounds`,
//! with every intermediate hand-off performed in memory: each stage reads
//! and writes the columns of one [`GraphState`], and the operations that
//! regroup vertices (construction, merging, bubble filtering) do so on the
//! run's worker pool: construction with the keyed pass of
//! `ppa_pregel::keycount`, merging and bubble filtering with a sort of their
//! own. It is a thin wrapper over
//! [`Pipeline::paper_workflow`](crate::pipeline::Pipeline::paper_workflow)
//! with [`WorkflowStats`] attached as the
//! observer, so `ppa reproduce` can regenerate the paper's tables and
//! figures from [`Assembly::stats`]; [`assemble`] is the same run for a
//! caller that would rather panic on a failure. Users who want a different
//! strategy — or checkpointing and resuming — compose their own
//! [`crate::pipeline::Pipeline`] (or call the operations in [`crate::ops`]
//! directly); a [`JobControl`](ppa_pregel::JobControl) installed on
//! [`AssemblyConfig::exec`] with [`ExecCtx::set_control`] makes either entry
//! point cancellable.

use crate::pipeline::{GraphState, Pipeline, PipelineError};
use crate::stats::{n50, WorkflowStats};
use ppa_pregel::{ExecCtx, SpillPolicy};
use ppa_seq::{DnaString, ReadSet, SeqError};
use std::io::BufRead;
use std::path::Path;

/// Which algorithm performs contig labeling (operation ②).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelingAlgorithm {
    /// Bidirectional list ranking (the BPPA; the paper's recommended choice).
    ListRanking,
    /// The simplified Shiloach–Vishkin connected-components algorithm.
    SimplifiedSV,
}

/// End-to-end assembly configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AssemblyConfig {
    /// k-mer size (the paper uses 31).
    pub k: usize,
    /// Coverage threshold θ of DBG construction: (k+1)-mers observed at most
    /// this many times are discarded as sequencing errors.
    pub min_kmer_coverage: u32,
    /// Tip-length threshold (paper: 80).
    pub tip_length_threshold: usize,
    /// Bubble-filtering edit-distance threshold (paper: 5).
    pub bubble_edit_distance: usize,
    /// Number of workers for every operation.
    pub workers: usize,
    /// Contig-labeling algorithm.
    pub labeling: LabelingAlgorithm,
    /// How many error-correction + re-merging rounds to run after the first
    /// merge (the paper's evaluation workflow uses 1).
    pub error_correction_rounds: usize,
    /// Contigs shorter than this are dropped from the final output.
    pub min_contig_length: usize,
    /// Out-of-core policy: with [`SpillPolicy::At`], both of construction's
    /// keyed passes — the phase (i) key count and the phase (ii) vertex fold
    /// — may spill their scattered records to disk as key segments once a
    /// worker's buffers exceed its share of the cap, bounding the passes'
    /// peak memory at the cost of extra I/O. Everything after construction
    /// runs resident whatever the cap: the labeling jobs (list ranking and
    /// its S-V cycle fallback, or S-V) and tip removing on the dense plane,
    /// merging and bubble filtering on their own passes. The default
    /// [`SpillPolicy::Off`] keeps the run byte-identical to the purely
    /// resident engine, and so does any cap.
    pub spill: SpillPolicy,
    /// Persistent execution context to run every operation on. When `None`
    /// (the default), [`try_assemble`] builds one context for the run — either
    /// way, all five operations of all rounds execute on a single long-lived
    /// worker pool. Supply a context to share the pool across several
    /// assemblies (e.g. a parameter sweep). Its pool size must match
    /// `workers`.
    pub exec: Option<ExecCtx>,
}

impl Default for AssemblyConfig {
    fn default() -> Self {
        AssemblyConfig {
            k: 31,
            min_kmer_coverage: 1,
            tip_length_threshold: 80,
            bubble_edit_distance: 5,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            labeling: LabelingAlgorithm::ListRanking,
            error_correction_rounds: 1,
            min_contig_length: 0,
            spill: SpillPolicy::Off,
            exec: None,
        }
    }
}

/// One assembled contig.
#[derive(Debug, Clone, PartialEq)]
pub struct Contig {
    /// Contig vertex ID (Figure 7c).
    pub id: u64,
    /// The contig sequence.
    pub sequence: DnaString,
    /// Contig coverage (minimum merged edge coverage).
    pub coverage: u32,
}

impl Contig {
    /// Contig length in base pairs.
    pub fn len(&self) -> usize {
        self.sequence.len()
    }

    /// Whether the contig is empty (never produced by the pipeline).
    pub fn is_empty(&self) -> bool {
        self.sequence.is_empty()
    }
}

/// The result of an assembly run.
#[derive(Debug, Clone)]
pub struct Assembly {
    /// The assembled contigs, longest first.
    pub contigs: Vec<Contig>,
    /// Per-stage statistics.
    pub stats: WorkflowStats,
}

impl Assembly {
    /// Total assembled bases.
    pub fn total_length(&self) -> usize {
        self.contigs.iter().map(Contig::len).sum()
    }

    /// N50 of the assembly.
    pub fn n50(&self) -> usize {
        n50(&self.contigs.iter().map(Contig::len).collect::<Vec<_>>())
    }

    /// Length of the largest contig (0 if empty).
    pub fn largest_contig(&self) -> usize {
        self.contigs.first().map(Contig::len).unwrap_or(0)
    }

    /// GC fraction over all contigs.
    pub fn gc_fraction(&self) -> f64 {
        let (gc, total) = self
            .contigs
            .iter()
            .fold((0usize, 0usize), |(gc, total), c| {
                let counts = c.sequence.base_counts();
                (gc + counts[1] + counts[2], total + c.len())
            });
        if total == 0 {
            0.0
        } else {
            gc as f64 / total as f64
        }
    }

    /// Converts the contigs to FASTA records (e.g. for QUAST-style assessment
    /// or writing to disk).
    pub fn to_fasta(&self) -> ReadSet {
        let mut fasta = ReadSet::with_base_capacity(self.total_length());
        for c in &self.contigs {
            fasta.push(
                format!("contig_{:#x}_cov_{}", c.id, c.coverage).as_bytes(),
                c.sequence.to_ascii().as_bytes(),
            );
        }
        fasta
    }
}

/// [`try_assemble`], panicking with the [`PipelineError`]'s message on a
/// failure.
pub fn assemble(reads: &ReadSet, config: &AssemblyConfig) -> Assembly {
    try_assemble(reads, config).unwrap_or_else(|e| panic!("{e}"))
}

/// The execution context an assembly entry point runs on: the configured one
/// when supplied, or a private pool sized to `config.workers`. The config's
/// [`SpillPolicy`] is installed on the context either way, so a shared
/// context always reflects the policy of the assembly it is running.
fn exec_ctx(config: &AssemblyConfig) -> ExecCtx {
    let ctx = config
        .exec
        .clone()
        .unwrap_or_else(|| ExecCtx::new(config.workers));
    ctx.assert_matches(config.workers, "AssemblyConfig.workers");
    ctx.set_spill(config.spill);
    ctx
}

/// Parses FASTA or FASTQ input, auto-detecting the format from the first
/// byte, into a [`ReadSet`] whose bases column is reserved for an input of
/// `input_len` bytes first, so the slab never reallocates: the bases take at
/// most the whole input in FASTA and at most half of it in FASTQ, whose
/// quality lines are as long as the sequence lines.
fn parse_input<R: BufRead>(mut reader: R, input_len: usize) -> Result<ReadSet, PipelineError> {
    let first = {
        let buf = reader.fill_buf().map_err(SeqError::from)?;
        buf.first().copied()
    };
    match first {
        None => Ok(ReadSet::new()),
        Some(b'>') => ReadSet::with_base_capacity(input_len)
            .parse_fasta(reader)
            .map_err(PipelineError::Input),
        Some(b'@') => ReadSet::with_base_capacity(input_len / 2)
            .parse_fastq(reader)
            .map_err(PipelineError::Input),
        Some(c) => Err(PipelineError::Input(SeqError::Parse {
            line: 1,
            msg: format!(
                "unrecognized input format: expected '>' (FASTA) or '@' (FASTQ), found {:?}",
                c as char
            ),
        })),
    }
}

/// Reads a FASTA or FASTQ file, auto-detecting the format from the first
/// byte, with the bases column reserved once from the file length. Malformed
/// records surface as a recoverable [`PipelineError::Input`] (carrying the
/// 1-based line number of the offending record) instead of a panic, and so
/// do open errors. Empty input yields an empty [`ReadSet`].
pub fn read_input_path(path: impl AsRef<Path>) -> Result<ReadSet, PipelineError> {
    let file = std::fs::File::open(path).map_err(SeqError::from)?;
    let len = file.metadata().map_or(0, |m| m.len());
    parse_input(
        std::io::BufReader::with_capacity(1 << 16, file),
        usize::try_from(len).unwrap_or(0),
    )
}

/// Runs the standard PPA-assembler workflow over a read set.
///
/// Thin wrapper over the composable pipeline API: builds
/// [`Pipeline::paper_workflow`] for `config`, attaches the run's
/// [`WorkflowStats`] as the observer, and executes it with
/// [`Pipeline::try_run`]. Every operation of every round — DBG construction,
/// labeling, merging, bubble filtering, tip removing — executes on one
/// persistent worker pool ([`AssemblyConfig::exec`], or a pool built here
/// when unset): threads are spawned once per run, not once per
/// superstep/phase. A stage panic, a worker's included, is returned as a
/// typed [`PipelineError`], leaving the worker pool reusable.
pub fn try_assemble(reads: &ReadSet, config: &AssemblyConfig) -> Result<Assembly, PipelineError> {
    let ctx = exec_ctx(config);
    let mut stats = WorkflowStats::default();
    let mut state = GraphState::new(reads);
    Pipeline::paper_workflow(config)
        .observe(&mut stats)
        .try_run(&mut state, &ctx)?;
    Ok(Assembly {
        contigs: state.output,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_readsim::{GenomeConfig, ReadSimConfig};

    fn small_config(k: usize) -> AssemblyConfig {
        AssemblyConfig {
            k,
            min_kmer_coverage: 0,
            tip_length_threshold: 80,
            bubble_edit_distance: 5,
            workers: 3,
            labeling: LabelingAlgorithm::ListRanking,
            error_correction_rounds: 1,
            min_contig_length: 0,
            spill: SpillPolicy::Off,
            exec: None,
        }
    }

    fn simulate(
        length: usize,
        coverage: f64,
        error: f64,
        seed: u64,
    ) -> (ppa_readsim::ReferenceGenome, ReadSet) {
        let reference = GenomeConfig {
            length,
            repeat_families: 0,
            seed,
            ..Default::default()
        }
        .generate();
        let reads = ReadSimConfig {
            read_length: 100.min(length / 2),
            coverage,
            substitution_rate: error,
            indel_rate: 0.0,
            n_rate: 0.0,
            both_strands: true,
            seed: seed + 1,
        }
        .simulate(&reference);
        (reference, reads)
    }

    #[test]
    fn error_free_genome_is_reconstructed_as_one_contig() {
        let (reference, reads) = simulate(3_000, 25.0, 0.0, 11);
        let assembly = assemble(&reads, &small_config(21));
        assert!(!assembly.contigs.is_empty());
        // The largest contig must cover almost the whole reference (ends may be
        // truncated where read coverage runs out).
        let largest = assembly.largest_contig();
        assert!(
            largest >= reference.len() - 200,
            "largest contig {largest} vs reference {}",
            reference.len()
        );
        // And its sequence must be a substring match of the reference in one
        // orientation or the other.
        let ref_seq = reference.sequence.to_ascii();
        let contig = assembly.contigs[0].sequence.to_ascii();
        let contig_rc = assembly.contigs[0].sequence.reverse_complement().to_ascii();
        assert!(
            ref_seq.contains(&contig) || ref_seq.contains(&contig_rc),
            "largest contig is not a substring of the reference"
        );
        assert_eq!(assembly.n50(), largest);
        assert!(assembly.stats.total_elapsed.as_nanos() > 0);
        assert_eq!(
            assembly.stats.node_counts.kmer_vertices,
            assembly.stats.construct.vertices as usize
        );
    }

    #[test]
    fn noisy_reads_still_assemble_and_errors_are_corrected() {
        let (reference, reads) = simulate(4_000, 30.0, 0.005, 23);
        let mut config = small_config(21);
        config.min_kmer_coverage = 1; // θ filter kicks in for error k-mers
        let assembly = assemble(&reads, &config);
        assert!(!assembly.contigs.is_empty());
        let total = assembly.total_length();
        assert!(
            total >= reference.len() / 2,
            "assembled {total} bases of a {} bp reference",
            reference.len()
        );
        // Error correction should have removed at least one bubble or tip, or
        // the θ filter already cleaned everything (also acceptable).
        let stats = &assembly.stats;
        assert_eq!(stats.corrections.len(), 1);
    }

    #[test]
    fn second_round_improves_or_preserves_n50() {
        // With repeats, round 2 should merge across corrected regions; at the
        // very least it must not make the assembly worse.
        let reference = GenomeConfig {
            length: 6_000,
            repeat_families: 4,
            repeat_copies: 2,
            repeat_length: 120,
            seed: 5,
            ..Default::default()
        }
        .generate();
        let reads = ReadSimConfig {
            read_length: 100,
            coverage: 25.0,
            substitution_rate: 0.004,
            indel_rate: 0.0,
            n_rate: 0.0,
            both_strands: true,
            seed: 6,
        }
        .simulate(&reference);
        let assembly = assemble(
            &reads,
            &AssemblyConfig {
                min_kmer_coverage: 1,
                ..small_config(21)
            },
        );
        assert!(
            assembly.stats.n50_final >= assembly.stats.n50_after_round1,
            "round 2 must not reduce N50 ({} -> {})",
            assembly.stats.n50_after_round1,
            assembly.stats.n50_final
        );
        // Vertex counts must shrink across the pipeline (the paper's
        // 46.97 M → 1.00 M → 68,264 observation, at our scale).
        let counts = &assembly.stats.node_counts;
        assert!(counts.after_first_merge < counts.kmer_vertices);
        assert!(counts.after_final_merge <= counts.after_first_merge);
    }

    #[test]
    fn both_labeling_algorithms_produce_equivalent_assemblies() {
        let (_, reads) = simulate(2_500, 20.0, 0.002, 31);
        let lr = assemble(
            &reads,
            &AssemblyConfig {
                labeling: LabelingAlgorithm::ListRanking,
                min_kmer_coverage: 1,
                ..small_config(21)
            },
        );
        let sv = assemble(
            &reads,
            &AssemblyConfig {
                labeling: LabelingAlgorithm::SimplifiedSV,
                min_kmer_coverage: 1,
                ..small_config(21)
            },
        );
        // Same contig length multiset (IDs and order may differ).
        let mut a: Vec<usize> = lr.contigs.iter().map(Contig::len).collect();
        let mut b: Vec<usize> = sv.contigs.iter().map(Contig::len).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(lr.n50(), sv.n50());
    }

    #[test]
    fn zero_correction_rounds_stop_after_first_merge() {
        let (_, reads) = simulate(2_000, 20.0, 0.0, 41);
        let assembly = assemble(
            &reads,
            &AssemblyConfig {
                error_correction_rounds: 0,
                ..small_config(21)
            },
        );
        assert!(!assembly.contigs.is_empty());
        assert!(assembly.stats.label_round2.is_empty());
        assert!(assembly.stats.corrections.is_empty());
        assert_eq!(assembly.stats.n50_after_round1, assembly.stats.n50_final);
    }

    #[test]
    fn min_contig_length_filters_output() {
        let (_, reads) = simulate(2_000, 15.0, 0.005, 53);
        let all = assemble(
            &reads,
            &AssemblyConfig {
                min_kmer_coverage: 0,
                min_contig_length: 0,
                ..small_config(21)
            },
        );
        let filtered = assemble(
            &reads,
            &AssemblyConfig {
                min_kmer_coverage: 0,
                min_contig_length: 500,
                ..small_config(21)
            },
        );
        assert!(filtered.contigs.len() <= all.contigs.len());
        assert!(filtered.contigs.iter().all(|c| c.len() >= 500));
    }

    #[test]
    fn empty_reads_produce_empty_assembly() {
        let assembly = assemble(&ReadSet::new(), &small_config(21));
        assert!(assembly.contigs.is_empty());
        assert_eq!(assembly.total_length(), 0);
        assert_eq!(assembly.n50(), 0);
        assert_eq!(assembly.largest_contig(), 0);
    }

    #[test]
    fn fasta_output_roundtrips() {
        let (_, reads) = simulate(2_000, 20.0, 0.0, 61);
        let assembly = assemble(&reads, &small_config(21));
        let fasta = assembly.to_fasta();
        assert_eq!(fasta.len(), assembly.contigs.len());
        let mut buf = Vec::new();
        fasta.write_fasta(&mut buf).unwrap();
        let reparsed = ReadSet::new()
            .parse_fasta(std::io::Cursor::new(buf))
            .unwrap();
        assert_eq!(reparsed.len(), assembly.contigs.len());
        assert_eq!(
            reparsed.records.get(0).unwrap().len(),
            assembly.contigs[0].len(),
            "sequences survive the FASTA round-trip"
        );
    }

    #[test]
    fn read_input_detects_format_and_surfaces_parse_errors() {
        let read_input = |bytes: &[u8]| parse_input(bytes, 0);
        let fasta = read_input(b">r1\nACGT\n").unwrap();
        assert_eq!(fasta.len(), 1);
        let fastq = read_input(b"@r1\nACGT\n+\nIIII\n").unwrap();
        assert_eq!(fastq.len(), 1);
        assert_eq!(read_input(b"").unwrap().len(), 0);

        // A malformed record comes back as a typed, recoverable input error
        // carrying the offending line, not a panic.
        let err = read_input(b"@r1\nACGT\n+\nII\n").unwrap_err();
        match err {
            crate::pipeline::PipelineError::Input(ppa_seq::SeqError::Parse { line, .. }) => {
                assert_eq!(line, 4)
            }
            other => panic!("expected a parse error with line context, got {other:?}"),
        }
        let err = read_input(b"#junk\n").unwrap_err();
        assert!(err.to_string().contains("unrecognized input format"));
    }

    #[test]
    fn try_assemble_matches_assemble() {
        let (_, reads) = simulate(2_000, 20.0, 0.0, 67);
        let config = small_config(21);
        let baseline = assemble(&reads, &config);
        let assembly = try_assemble(&reads, &config).expect("fault-free run succeeds");
        assert_eq!(assembly.contigs, baseline.contigs);
    }

    #[test]
    fn checkpointed_assembly_survives_an_injected_crash() {
        use crate::pipeline::CheckpointPolicy;
        let (_, reads) = simulate(2_000, 20.0, 0.0, 71);
        let mut config = small_config(21);
        let ctx = ExecCtx::new(config.workers);
        config.exec = Some(ctx.clone());
        let baseline = assemble(&reads, &config);

        let dir = std::env::temp_dir().join(format!("ppa-workflow-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let armed = ctx.inject_faults(ppa_pregel::FaultPlan::single(
            ppa_pregel::Fault::StageEntry { stage: 6 },
        ));
        let mut state = GraphState::new(&reads);
        let err = Pipeline::paper_workflow(&config)
            .checkpoint_to(&dir, CheckpointPolicy::EveryStage)
            .try_run(&mut state, &ctx)
            .expect_err("the injected crash surfaces");
        ctx.clear_faults();
        assert!(armed.all_fired());
        assert!(
            matches!(&err, PipelineError::Stage { stage, .. } if stage == "merge"),
            "got {err:?}"
        );

        // Resuming from the last snapshot recovers the assembly, and the
        // completed run leaves a resumable snapshot behind.
        let mut stats = WorkflowStats::default();
        let (recovered, reports) = Pipeline::paper_workflow(&config)
            .checkpoint_to(&dir, CheckpointPolicy::EveryStage)
            .observe(&mut stats)
            .resume(&dir, &reads, &ctx)
            .expect("the resume recovers the assembly");
        assert_eq!(reports.len(), 2, "merge and the length filter are left");
        assert_eq!(recovered.output, baseline.contigs);
        assert_eq!(stats.n50_final, baseline.stats.n50_final);
        let (resumed, _) = Pipeline::paper_workflow(&config)
            .resume(&dir, &reads, &ctx)
            .expect("resume from the final snapshot");
        assert_eq!(resumed.output, baseline.contigs);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn assemble_with_control_matches_plain_and_honours_a_cancel() {
        let (_, reads) = simulate(2_000, 20.0, 0.0, 77);
        let mut config = small_config(21);
        let ctx = ExecCtx::new(config.workers);
        config.exec = Some(ctx.clone());
        let baseline = assemble(&reads, &config);

        // A live handle that never trips: identical output, no cancel marker.
        ctx.set_control(ppa_pregel::JobControl::new());
        let assembly = try_assemble(&reads, &config).expect("no trip");
        ctx.clear_control();
        assert_eq!(assembly.contigs, baseline.contigs);
        assert!(assembly.stats.cancelled.is_none());

        // A pre-cancelled handle stops at the very first stage boundary —
        // and once it is cleared from the shared context, the next plain run
        // on the same pool is unaffected.
        let control = ppa_pregel::JobControl::new();
        control.cancel();
        ctx.set_control(control);
        let err = try_assemble(&reads, &config).unwrap_err();
        ctx.clear_control();
        match &err {
            crate::pipeline::PipelineError::Cancelled {
                stage, superstep, ..
            } => {
                assert_eq!(stage, "construct");
                assert_eq!(*superstep, None);
            }
            other => panic!("expected a Cancelled error, got {other:?}"),
        }
        let again = assemble(&reads, &config);
        assert_eq!(again.contigs, baseline.contigs);
    }

    #[test]
    fn spilled_assembly_is_byte_identical_to_resident() {
        let (_, reads) = simulate(4_000, 25.0, 0.0, 83);
        // A generous cap never trips; a tiny cap forces the keyed passes of
        // construction out of core, while labeling stays resident. Either
        // way the contigs must be byte-identical to the resident run. A
        // scatter worker never writes out its last scan task, and on this
        // 4 kb genome only a lone worker has a task before its last, so the
        // tiny cap spills at one worker and not at three.
        for workers in [1, 3] {
            let config = |spill| AssemblyConfig {
                workers,
                spill,
                ..small_config(21)
            };
            let baseline = assemble(&reads, &config(SpillPolicy::Off));
            assert!(!baseline.contigs.is_empty());
            for cap in [1u64 << 30, 24 * 1024] {
                let spilled = assemble(&reads, &config(SpillPolicy::At(cap)));
                assert_eq!(
                    spilled.contigs, baseline.contigs,
                    "workers {workers}, cap {cap}: spilled assembly must match the resident one"
                );
                let construct_spill = spilled.stats.construct.phase1.spilled_bytes
                    + spilled.stats.construct.phase2.spilled_bytes;
                let label_spill = spilled.stats.label_round1.spilled_bytes;
                assert_eq!(label_spill, 0, "cap {cap}: labeling runs resident");
                if cap == 1 << 30 {
                    assert_eq!(construct_spill, 0, "large cap must not trip");
                } else if workers == 1 {
                    assert!(construct_spill > 0, "tiny cap must spill construction");
                }
            }
        }
    }

    #[test]
    fn contig_accessors() {
        let c = Contig {
            id: crate::ids::contig_id(1),
            sequence: DnaString::from_ascii("ACGTACGT").unwrap(),
            coverage: 9,
        };
        assert_eq!(c.len(), 8);
        assert!(!c.is_empty());
    }
}
