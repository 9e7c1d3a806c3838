//! The composable pipeline API: first-class stages over a unified
//! [`GraphState`].
//!
//! The paper's central claim (Figure 10) is that assembly is a *composition*
//! of reusable Pregel operations — "users may combine the provided operations
//! to implement various sequencing strategies". This module makes that
//! composition a first-class object:
//!
//! * [`Stage`] — one pipeline step. Every paper operation ships as an
//!   implementor ([`Construct`], [`Label`] in its LR and S-V flavours,
//!   [`Merge`], [`FilterBubbles`], [`RemoveTips`]) plus the terminal
//!   [`FilterLength`]; custom stages are ordinary trait impls.
//! * [`GraphState`] — the unified working state the stages transform: the
//!   input reads, the current node set, the most recent labeling, the contig
//!   vertices, the ambiguous k-mers awaiting re-wiring, and the final output.
//! * [`Pipeline`] — the builder: [`then`](Pipeline::then) appends a stage,
//!   [`repeat`](Pipeline::repeat) loops a block of stages (the paper's
//!   ④⑤⑥②③ error-correction rounds), [`observe`](Pipeline::observe) attaches
//!   a [`PipelineObserver`], [`try_run`](Pipeline::try_run) executes the
//!   stages on an [`ExecCtx`] worker pool, and [`resume`](Pipeline::resume)
//!   continues a run from its last [`checkpoint_to`](Pipeline::checkpoint_to)
//!   snapshot.
//! * [`PipelineObserver`] — timing/stats instrumentation as a hook instead of
//!   inline code: the runner measures every stage and delivers a
//!   [`StageReport`]; [`WorkflowStats`] *is* the built-in observer (it
//!   rebuilds all the paper-table statistics from the reports), and
//!   [`StageLogger`] prints per-stage progress for `ppa assemble`.
//!
//! [`Pipeline::paper_workflow`] is the preset for the paper's evaluation
//! workflow ①②③(④⑤②③)×r; [`crate::workflow::try_assemble`] is a thin
//! wrapper over it.
//!
//! # Failures
//!
//! A run is fallible and a failure is a typed value. Each stage runs inside
//! the stage boundary's `catch_unwind`, the one place the pipeline catches a
//! panic: a stage's own panic, or a worker's — which the engine raises as
//! [`EngineError::WorkerPanic`] — comes back as [`PipelineError::Stage`],
//! and the pool stays reusable. Recovery is what Pregel does: reload the last
//! checkpoint and run the rest again, i.e. `try_run` → [`Pipeline::resume`].
//!
//! # Build your own workflow
//!
//! The "S-V labeling, no bubble filtering, two tip-removal rounds" strategy
//! of `examples/custom_workflow.rs` is a handful of builder calls:
//!
//! ```
//! use ppa_assembler::ops::{ConstructConfig, MergeConfig, TipConfig};
//! use ppa_assembler::pipeline::{
//!     FilterLength, GraphState, Label, Merge, Pipeline, RemoveTips, Stage,
//! };
//! use ppa_assembler::stats::WorkflowStats;
//! use ppa_pregel::ExecCtx;
//! use ppa_readsim::{GenomeConfig, ReadSimConfig};
//!
//! let reference = GenomeConfig { length: 2_000, repeat_families: 0, ..Default::default() }
//!     .generate();
//! let reads = ReadSimConfig::error_free(100, 20.0).simulate(&reference);
//!
//! let (k, workers) = (21, 2);
//! let merge = MergeConfig { k, tip_length_threshold: 80 };
//! let mut stats = WorkflowStats::default();
//! let mut pipeline = Pipeline::new()
//!     .then(ppa_assembler::pipeline::Construct::new(ConstructConfig {
//!         k,
//!         min_coverage: 0,
//!         batch_size: 1024,
//!     }))
//!     .then(Label::simplified_sv())
//!     .then(Merge::new(merge.clone()))
//!     .repeat(
//!         2,
//!         vec![Box::new(RemoveTips::new(TipConfig { k, tip_length_threshold: 80 }))
//!             as Box<dyn Stage>],
//!     )
//!     .then(Label::simplified_sv())
//!     .then(Merge::new(merge))
//!     .then(FilterLength::new(0))
//!     .observe(&mut stats);
//!
//! let mut state = GraphState::new(&reads);
//! let reports = pipeline
//!     .try_run(&mut state, &ExecCtx::new(workers))
//!     .expect("error-free reads assemble");
//! assert!(!state.output.is_empty());
//! assert_eq!(reports.len(), 8); // construct, label, merge, 2 × tips, label, merge, filter
//! assert!(stats.total_elapsed.as_nanos() > 0);
//! ```

use crate::checkpoint::{self, CheckpointError, CheckpointMeta, Fnv64};
use crate::node::{AsmNode, KmerGraph, MixedNodes, NodeSource};
use crate::ops::bubble::{filter_bubbles_on, remove_pruned, BubbleConfig};
use crate::ops::construct::{build_dbg_on, ConstructConfig, ConstructStats};
use crate::ops::label::{label_contigs_lr_on, LabelOutcome, AMBIGUOUS};
use crate::ops::label_sv::label_contigs_sv_on;
use crate::ops::merge::{merge_contigs_on, MergeConfig};
use crate::ops::tip::{remove_tips_on, TipConfig};
use crate::stats::{
    n50, CorrectionStats, LabelStats, MergeStats, Phase, PhaseTimes, WorkflowStats,
};
use crate::workflow::{AssemblyConfig, Contig, LabelingAlgorithm};
use ppa_pregel::engine::panic_message;
use ppa_pregel::fxhash::FxHashMap;
use ppa_pregel::{CancelReason, EngineError, ExecCtx, Metrics};
use ppa_seq::{ReadSet, SeqError};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Graph state
// ---------------------------------------------------------------------------

/// The unified working state a [`Pipeline`] threads through its stages: what
/// `assemble()` used to shuttle between operations as local variables.
///
/// All fields are public so custom [`Stage`]s can transform the state freely;
/// the invariants the built-in stages maintain are documented per field.
/// After a failed stage the state may be partially mutated: discard it, and
/// get a consistent one back from [`Pipeline::resume`] (or start over with
/// [`GraphState::new`]).
#[derive(Debug, Clone, PartialEq)]
pub struct GraphState<'r> {
    /// The input read set ([`Construct`] consumes it).
    pub reads: &'r ReadSet,
    /// Construct's k-mer vertices: Figure 8's canonical k-mer, adjacency
    /// bitmap and per-slot coverages as columns sorted by ID, about 24 bytes
    /// per vertex. Round 1's [`Label`] and [`Merge`] read it; [`Merge`]
    /// drains it (into `ambiguous_kmers`, the only k-mers it expands, and
    /// `contigs`), and it stays empty from then on: later rounds label and
    /// merge `ambiguous_kmers` followed by `contigs`, where they lie.
    pub nodes: KmerGraph,
    /// The most recent labeling outcome ([`Label`] sets it, [`Merge`] takes
    /// it).
    pub labels: Option<LabelOutcome>,
    /// The current contig vertices ([`Merge`] produces them,
    /// [`FilterBubbles`]/[`RemoveTips`] correct them), in strictly ascending
    /// ID order.
    pub contigs: Vec<AsmNode>,
    /// Ambiguous (⟨m-n⟩) k-mer vertices awaiting re-wiring by [`RemoveTips`],
    /// in strictly ascending ID order.
    pub ambiguous_kmers: Vec<AsmNode>,
    /// Whether `ambiguous_kmers`/`contigs` have had their adjacency rebuilt
    /// by [`RemoveTips`] since the last [`Merge`]. Re-labeling them requires
    /// this: straight after a merge, the k-mer adjacencies still reference
    /// vertices that were folded into contigs, so [`Label`] refuses to label
    /// an un-rewired graph.
    pub rewired: bool,
    /// The final assembly output ([`FilterLength`] moves `contigs` here).
    pub output: Vec<Contig>,
}

impl<'r> GraphState<'r> {
    /// A fresh state over a read set, ready for a [`Construct`] stage.
    pub fn new(reads: &'r ReadSet) -> GraphState<'r> {
        GraphState {
            reads,
            nodes: KmerGraph::default(),
            labels: None,
            contigs: Vec::new(),
            ambiguous_kmers: Vec::new(),
            rewired: false,
            output: Vec::new(),
        }
    }

    /// The corrected graph as one node set, where it lies: the ambiguous
    /// k-mers, then the contigs, ascending by ID as a whole.
    fn mixed_nodes(&self) -> MixedNodes<'_> {
        MixedNodes {
            kmers: &self.ambiguous_kmers,
            contigs: &self.contigs,
        }
    }
}

// ---------------------------------------------------------------------------
// Pipeline errors and the checkpoint policy
// ---------------------------------------------------------------------------

/// A pipeline failure, as returned by [`Pipeline::try_run`] and
/// [`Pipeline::resume`], the two ways to run a pipeline.
///
/// The stage boundary catches every stage panic (a worker's reaches it as
/// [`EngineError::WorkerPanic`], after the pool has drained and is reusable)
/// and types it here, together with the engine's own typed stops, checkpoint
/// I/O failures and malformed input. A caller that wants to try again
/// resumes from the last snapshot: `try_run` → `resume`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The input reads could not be parsed (malformed FASTA/FASTQ).
    Input(SeqError),
    /// A stage panicked: a worker panic (its message names the worker), an
    /// injected fault, or a stage-invariant violation. The state may be
    /// partially mutated; [`Pipeline::resume`] reloads it from the last
    /// checkpoint.
    Stage {
        /// Name of the failing stage.
        stage: String,
        /// 1-based per-stage-name round the failing execution would have been.
        round: usize,
        /// The panic message.
        message: String,
    },
    /// Saving or loading a checkpoint failed.
    Checkpoint(CheckpointError),
    /// A stage's Pregel job used up its superstep budget before it
    /// converged (S-V labeling raises it; see
    /// [`EngineError::NotConverged`]). The job is deterministic, so a retry
    /// would stop at the same superstep.
    NotConverged {
        /// Name of the failing stage.
        stage: String,
        /// 1-based per-stage-name round of the failing execution.
        round: usize,
        /// The supersteps the job ran.
        supersteps: usize,
    },
    /// The job's [`JobControl`](ppa_pregel::JobControl) tripped at a
    /// cooperative poll: an explicit cancel request, an expired deadline, or
    /// a memory budget overrun. When the trip happened at a stage boundary
    /// with checkpointing armed, an emergency snapshot was written first, so
    /// [`Pipeline::resume`] continues exactly from the cut point.
    Cancelled {
        /// Why the control plane stopped the run.
        reason: CancelReason,
        /// The stage that was running (or about to run) when the poll fired.
        stage: String,
        /// The superstep boundary of a mid-stage trip; `None` when the trip
        /// fired at the pipeline's own stage boundary.
        superstep: Option<usize>,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Input(e) => write!(f, "input error: {e}"),
            PipelineError::Stage {
                stage,
                round,
                message,
            } => write!(f, "stage {stage} (round {round}) failed: {message}"),
            PipelineError::Checkpoint(e) => write!(f, "{e}"),
            PipelineError::NotConverged {
                stage,
                round,
                supersteps,
            } => write!(
                f,
                "stage {stage} (round {round}) did not converge within {supersteps} supersteps"
            ),
            PipelineError::Cancelled {
                reason,
                stage,
                superstep,
            } => match superstep {
                Some(s) => write!(
                    f,
                    "cancelled during stage {stage} at superstep {s}: {reason}"
                ),
                None => write!(
                    f,
                    "cancelled at the boundary before stage {stage}: {reason}"
                ),
            },
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Input(e) => Some(e),
            PipelineError::Stage { .. }
            | PipelineError::Cancelled { .. }
            | PipelineError::NotConverged { .. } => None,
            PipelineError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<SeqError> for PipelineError {
    fn from(e: SeqError) -> Self {
        PipelineError::Input(e)
    }
}

impl From<CheckpointError> for PipelineError {
    fn from(e: CheckpointError) -> Self {
        PipelineError::Checkpoint(e)
    }
}

/// When a [`Pipeline`] configured with [`Pipeline::checkpoint_to`] snapshots
/// its [`GraphState`]. A pipeline that should write nothing does not call
/// `checkpoint_to`.
///
/// Stages are counted in *flattened* execution order ([`Pipeline::repeat`]
/// blocks unrolled), matching [`Pipeline::stage_count`]. Under either policy
/// a [`JobControl`](ppa_pregel::JobControl) trip at a stage boundary also
/// writes one emergency snapshot, so [`Pipeline::resume`] continues from the
/// cut point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointPolicy {
    /// Snapshot after every completed stage.
    EveryStage,
    /// Snapshot after every Nth completed stage.
    EveryN(NonZeroUsize),
}

impl CheckpointPolicy {
    /// Whether a snapshot should be written once `completed` flattened stages
    /// have finished.
    fn should_save(&self, completed: usize) -> bool {
        match self {
            CheckpointPolicy::EveryStage => true,
            CheckpointPolicy::EveryN(n) => completed.is_multiple_of(n.get()),
        }
    }
}

// ---------------------------------------------------------------------------
// Stage reports & the observer protocol
// ---------------------------------------------------------------------------

/// Stage-specific result payload carried by a [`StageReport`].
#[derive(Debug, Clone)]
pub enum StageDetails {
    /// ① DBG construction finished with these statistics.
    Construct(ConstructStats),
    /// ② contig labeling finished (either algorithm).
    Label(LabelStats),
    /// ③ contig merging finished.
    Merge {
        /// Grouping/stitching statistics.
        stats: MergeStats,
        /// Surviving graph size after the merge (ambiguous k-mers + contigs).
        nodes_after: usize,
        /// N50 of the freshly merged contigs.
        n50: usize,
    },
    /// ④ bubble filtering finished.
    Bubbles {
        /// Contigs pruned as low-coverage bubble branches.
        pruned: usize,
        /// End-pair groups with more than one contig.
        candidate_groups: usize,
    },
    /// ⑤ tip removing finished.
    Tips {
        /// k-mer vertices deleted.
        deleted_kmers: usize,
        /// Contig vertices deleted.
        deleted_contigs: usize,
        /// Pregel metrics of the REQUEST/DELETE job.
        metrics: Metrics,
    },
    /// Final length filtering finished.
    FilterLength {
        /// Contigs kept in the output.
        kept: usize,
        /// Contigs dropped as too short.
        dropped: usize,
        /// N50 of the output.
        n50: usize,
    },
    /// A user-defined stage with no structured payload.
    Custom,
}

/// Formats a byte count as a compact human-readable figure.
fn fmt_bytes(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{:.1} MiB", bytes as f64 / (1 << 20) as f64)
    } else {
        format!("{:.1} KiB", bytes as f64 / (1 << 10) as f64)
    }
}

/// The phases a stage passed, with their milliseconds.
fn fmt_phases(phases: &PhaseTimes) -> String {
    let passed = Phase::ALL.into_iter().filter(|&p| !phases.get(p).is_zero());
    let laps: Vec<String> = passed
        .map(|p| format!("{} {:.1} ms", p.name(), phases.get(p).as_secs_f64() * 1e3))
        .collect();
    laps.join(", ")
}

impl StageDetails {
    /// One-line human-readable summary (used by [`StageLogger`]).
    pub fn summary(&self) -> String {
        match self {
            StageDetails::Construct(s) => format!(
                "{} k-mer vertices from {} kept (k+1)-mers ({})",
                s.vertices,
                s.kept_kplus1_mers,
                fmt_phases(&s.phases)
            ),
            StageDetails::Label(s) => {
                let polls = if s.cancellation_checks > 0 {
                    format!(", {} cancel polls", s.cancellation_checks)
                } else {
                    String::new()
                };
                format!(
                    "{} labeled / {} ambiguous in {} supersteps, {} msgs \
                     (avg frontier {:.0}%, store {}{polls}; {})",
                    s.labeled_vertices,
                    s.ambiguous_vertices,
                    s.supersteps,
                    s.messages,
                    s.avg_frontier_density * 100.0,
                    fmt_bytes(s.peak_store_resident_bytes),
                    fmt_phases(&s.phases)
                )
            }
            StageDetails::Merge {
                stats, nodes_after, ..
            } => format!(
                "{} contigs from {} groups ({} tips dropped), {} nodes remain ({})",
                stats.contigs,
                stats.groups,
                stats.dropped_tips,
                nodes_after,
                fmt_phases(&stats.phases)
            ),
            StageDetails::Bubbles {
                pruned,
                candidate_groups,
            } => format!("{pruned} contigs pruned in {candidate_groups} candidate groups"),
            StageDetails::Tips {
                deleted_kmers,
                deleted_contigs,
                metrics,
            } => format!(
                "{deleted_kmers} k-mers and {deleted_contigs} contigs deleted in {} supersteps \
                 (avg frontier {:.0}%, store {})",
                metrics.supersteps,
                metrics.avg_frontier_density * 100.0,
                fmt_bytes(metrics.peak_store_resident_bytes)
            ),
            StageDetails::FilterLength { kept, dropped, n50 } => {
                format!("{kept} contigs kept ({dropped} too short), N50 {n50}")
            }
            StageDetails::Custom => String::new(),
        }
    }
}

/// What one stage execution produced: identity, timing, and a typed payload.
///
/// A stage constructs the report with [`StageReport::new`]; the pipeline
/// runner then fills in `round` (the 1-based occurrence of this stage name
/// within the run) and `elapsed` (measured around the stage) before
/// delivering it to the observers and returning it from
/// [`Pipeline::try_run`].
#[derive(Debug, Clone)]
pub struct StageReport {
    /// The stage's [`name`](Stage::name).
    pub stage: String,
    /// 1-based occurrence of this stage name within the pipeline run (e.g.
    /// the second `Label` execution has `round == 2`). Set by the runner.
    pub round: usize,
    /// Wall-clock time of the stage. Measured by the runner.
    pub elapsed: Duration,
    /// Stage-specific payload.
    pub details: StageDetails,
}

impl StageReport {
    /// Builds a report for a finished stage; the pipeline fills in timing and
    /// round.
    pub fn new(stage: impl Into<String>, details: StageDetails) -> StageReport {
        StageReport {
            stage: stage.into(),
            round: 0,
            elapsed: Duration::ZERO,
            details,
        }
    }
}

/// Instrumentation hook: the pipeline announces every stage boundary.
///
/// All methods default to no-ops, so an observer implements only what it
/// cares about. [`WorkflowStats`] implements this trait to rebuild the
/// paper-table statistics; [`StageLogger`] implements it for progress output.
pub trait PipelineObserver {
    /// The pipeline is about to run its first stage.
    fn on_pipeline_start(&mut self) {}
    /// `stage` is about to run.
    fn on_stage_start(&mut self, stage: &str) {
        let _ = stage;
    }
    /// A stage finished; `report` carries its name, round, timing, payload.
    fn on_stage_end(&mut self, report: &StageReport) {
        let _ = report;
    }
    /// The run is stopping because its [`JobControl`](ppa_pregel::JobControl)
    /// tripped; `stage` is the stage that was running (or about to run).
    /// Fired before the run's final `on_pipeline_end`.
    fn on_cancelled(&mut self, reason: CancelReason, stage: &str) {
        let _ = (reason, stage);
    }
    /// The pipeline finished all stages after `total` wall-clock time.
    fn on_pipeline_end(&mut self, total: Duration) {
        let _ = total;
    }
}

/// Returns the correction-stats slot for a 1-based correction round,
/// growing the vector as needed (bubble and tip reports of the same round
/// land in the same slot).
fn correction_at(stats: &mut WorkflowStats, round: usize) -> &mut CorrectionStats {
    let round = round.max(1);
    while stats.corrections.len() < round {
        stats.corrections.push(CorrectionStats::default());
    }
    &mut stats.corrections[round - 1]
}

impl PipelineObserver for WorkflowStats {
    fn on_stage_end(&mut self, report: &StageReport) {
        let round = report.round.max(1);
        match &report.details {
            StageDetails::Construct(stats) => {
                self.node_counts.kmer_vertices = stats.vertices as usize;
                self.construct = stats.clone();
                self.record_stage("1 DBG construction", report.elapsed);
            }
            StageDetails::Label(stats) => {
                if round == 1 {
                    self.label_round1 = stats.clone();
                    self.record_stage("2 contig labeling (k-mers)", report.elapsed);
                } else {
                    self.label_round2.push(stats.clone());
                    self.record_stage(
                        format!("2 contig labeling (contigs, round {round})"),
                        report.elapsed,
                    );
                }
            }
            StageDetails::Merge {
                stats,
                nodes_after,
                n50,
            } => {
                if round == 1 {
                    self.merge_round1 = stats.clone();
                    self.node_counts.after_first_merge = *nodes_after;
                    self.n50_after_round1 = *n50;
                } else {
                    self.merge_round2.push(stats.clone());
                }
                self.node_counts.after_final_merge = *nodes_after;
                self.record_stage(format!("3 contig merging (round {round})"), report.elapsed);
            }
            StageDetails::Bubbles {
                pruned,
                candidate_groups,
            } => {
                let entry = correction_at(self, round);
                entry.bubbles_pruned = *pruned;
                entry.bubble_groups = *candidate_groups;
                self.record_stage(
                    format!("4 bubble filtering (round {round})"),
                    report.elapsed,
                );
            }
            StageDetails::Tips {
                deleted_kmers,
                deleted_contigs,
                metrics,
            } => {
                let entry = correction_at(self, round);
                entry.tip_kmers_deleted = *deleted_kmers;
                entry.tip_contigs_deleted = *deleted_contigs;
                entry.tip_metrics = metrics.clone();
                self.record_stage(format!("5 tip removing (round {round})"), report.elapsed);
            }
            StageDetails::FilterLength { n50, .. } => {
                self.n50_final = *n50;
                self.record_stage("6 length filtering", report.elapsed);
            }
            StageDetails::Custom => {
                self.record_stage(report.stage.clone(), report.elapsed);
            }
        }
    }

    fn on_cancelled(&mut self, reason: CancelReason, stage: &str) {
        self.cancelled = Some(format!("{reason} (at stage {stage})"));
    }

    fn on_pipeline_end(&mut self, total: Duration) {
        self.total_elapsed = total;
    }
}

/// A [`PipelineObserver`] that prints one progress line per stage to stderr —
/// `ppa assemble`'s progress output.
#[derive(Debug, Default)]
pub struct StageLogger;

impl PipelineObserver for StageLogger {
    fn on_stage_end(&mut self, report: &StageReport) {
        eprintln!(
            "{} (round {}): {:.3}s — {}",
            report.stage,
            report.round,
            report.elapsed.as_secs_f64(),
            report.details.summary()
        );
    }
}

// ---------------------------------------------------------------------------
// The Stage trait and the built-in stages
// ---------------------------------------------------------------------------

/// One step of a [`Pipeline`]: transforms the [`GraphState`] on the given
/// execution context and reports what it did.
///
/// Implementors should be stateless configuration holders — `run` takes
/// `&self` so a stage can execute repeatedly inside
/// [`Pipeline::repeat`].
pub trait Stage {
    /// Stable identifier of the stage kind (used for round counting and
    /// observer output).
    fn name(&self) -> &str;
    /// Executes the stage. Timing and round numbering are handled by the
    /// pipeline runner; the returned report only needs name + details.
    fn run(&self, state: &mut GraphState<'_>, ctx: &ExecCtx) -> StageReport;
    /// A stable hash of the stage's configuration, folded (together with
    /// [`name`](Stage::name)) into [`Pipeline::fingerprint`] so
    /// [`Pipeline::resume`] rejects a snapshot written under different
    /// parameters. The built-in stages hash their configs; the default (`0`)
    /// means only the stage's name and position are checked.
    fn config_fingerprint(&self) -> u64 {
        0
    }
}

/// Operation ① — DBG construction: `state.reads` → `state.nodes`, as
/// columns sorted by ID.
#[derive(Debug, Clone)]
pub struct Construct {
    /// The construction parameters (k, θ, batch size).
    pub config: ConstructConfig,
}

impl Construct {
    /// A construction stage with the given parameters.
    pub fn new(config: ConstructConfig) -> Construct {
        Construct { config }
    }
}

impl Stage for Construct {
    fn name(&self) -> &str {
        "construct"
    }

    fn run(&self, state: &mut GraphState<'_>, ctx: &ExecCtx) -> StageReport {
        let outcome = build_dbg_on(ctx, state.reads, &self.config);
        let stats = outcome.stats.clone();
        state.nodes = outcome.vertices;
        state.labels = None;
        state.contigs.clear();
        state.ambiguous_kmers.clear();
        state.rewired = false;
        state.output.clear();
        StageReport::new(self.name(), StageDetails::Construct(stats))
    }

    fn config_fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.config.k as u64);
        h.write_u64(self.config.min_coverage as u64);
        h.write_u64(self.config.batch_size as u64);
        h.finish()
    }
}

/// Operation ② — contig labeling, with either algorithm: over `state.nodes`
/// in round 1, and once [`Merge`] has drained it over the rewired
/// `state.ambiguous_kmers` followed by `state.contigs`, read in place (both
/// ascending by ID, and every contig ID above every k-mer ID, so the two are
/// one ascending node set).
#[derive(Debug, Clone)]
pub struct Label {
    /// Which labeling algorithm to run.
    pub algorithm: LabelingAlgorithm,
}

impl Label {
    /// A labeling stage running the given algorithm.
    pub fn new(algorithm: LabelingAlgorithm) -> Label {
        Label { algorithm }
    }

    /// Bidirectional list ranking (the BPPA the paper recommends).
    pub fn list_ranking() -> Label {
        Label::new(LabelingAlgorithm::ListRanking)
    }

    /// The simplified Shiloach–Vishkin connected-components algorithm.
    pub fn simplified_sv() -> Label {
        Label::new(LabelingAlgorithm::SimplifiedSV)
    }

    fn label<S: NodeSource + ?Sized>(&self, ctx: &ExecCtx, nodes: &S) -> LabelOutcome {
        match self.algorithm {
            LabelingAlgorithm::ListRanking => label_contigs_lr_on(ctx, nodes),
            LabelingAlgorithm::SimplifiedSV => label_contigs_sv_on(ctx, nodes),
        }
    }
}

impl Stage for Label {
    fn name(&self) -> &str {
        "label"
    }

    fn run(&self, state: &mut GraphState<'_>, ctx: &ExecCtx) -> StageReport {
        let mut outcome = if state.nodes.is_empty() {
            // A preceding Merge drained `nodes`: label the corrected graph —
            // but only once RemoveTips has rewired the adjacency, otherwise
            // labeling would run over stale k-mer edges.
            let mixed = state.mixed_nodes();
            assert!(
                state.rewired || mixed.is_empty(),
                "the Label stage found a drained node set whose adjacency was not rebuilt: \
                 after Merge, run RemoveTips before re-labeling"
            );
            self.label(ctx, &mixed)
        } else {
            self.label(ctx, &state.nodes)
        };
        let ambiguous = outcome.ambiguous().count();
        let stats = LabelStats {
            // The stats keep the clocks; the pending labels read as a
            // restored checkpoint's would.
            phases: std::mem::take(&mut outcome.phases),
            ..LabelStats::from_metrics(
                &outcome.metrics,
                outcome.labels.len() - ambiguous,
                ambiguous,
                outcome.used_cycle_fallback,
            )
        };
        state.labels = Some(outcome);
        StageReport::new(self.name(), StageDetails::Label(stats))
    }

    fn config_fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(match self.algorithm {
            LabelingAlgorithm::ListRanking => 0,
            LabelingAlgorithm::SimplifiedSV => 1,
        });
        h.finish()
    }
}

/// Operation ③ — contig merging: turns the node set [`Label`] labelled and
/// the pending labels into fresh `state.contigs`. In round 1 it drains
/// `state.nodes`, expanding the ambiguous k-mers into
/// `state.ambiguous_kmers`; later it `retain`s the ambiguous ones of
/// `state.ambiguous_kmers` in place.
#[derive(Debug, Clone)]
pub struct Merge {
    /// The merging parameters (k, tip-length threshold).
    pub config: MergeConfig,
}

impl Merge {
    /// A merging stage with the given parameters.
    pub fn new(config: MergeConfig) -> Merge {
        Merge { config }
    }
}

impl Stage for Merge {
    fn name(&self) -> &str {
        "merge"
    }

    fn run(&self, state: &mut GraphState<'_>, ctx: &ExecCtx) -> StageReport {
        let labels = state
            .labels
            .take()
            .expect("the Merge stage requires a preceding Label stage");
        let merged = if state.nodes.is_empty() {
            merge_contigs_on(ctx, &state.mixed_nodes(), &labels.labels, &self.config)
        } else {
            merge_contigs_on(ctx, &state.nodes, &labels.labels, &self.config)
        };
        let stats = MergeStats {
            groups: merged.groups,
            contigs: merged.contigs.len(),
            dropped_tips: merged.dropped_tips,
            mapreduce: merged.mapreduce.clone(),
            phases: merged.phases,
        };
        // The ambiguous k-mers are the only ones that outlive the merge, and
        // the only ones expanded; the label column marks them by position. A
        // contig is never ambiguous: it keeps at most one neighbour per side
        // (Figure 9), so the k-mers, which come first, are all there is to
        // keep.
        let mut column = labels.labels.iter();
        if state.nodes.is_empty() {
            state
                .ambiguous_kmers
                .retain(|_| column.next() == Some(&AMBIGUOUS));
        } else {
            let nodes = std::mem::take(&mut state.nodes);
            state.ambiguous_kmers = (0..nodes.len())
                .zip(column)
                .filter(|(_, &label)| label == AMBIGUOUS)
                .map(|(at, _)| nodes.node(at).to_asm_node())
                .collect();
        }
        state.contigs = merged.contigs;
        state.rewired = false;
        let nodes_after = state.ambiguous_kmers.len() + state.contigs.len();
        let n50_merged = n50(&state.contigs.iter().map(|c| c.len()).collect::<Vec<_>>());
        StageReport::new(
            self.name(),
            StageDetails::Merge {
                stats,
                nodes_after,
                n50: n50_merged,
            },
        )
    }

    fn config_fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.config.k as u64);
        h.write_u64(self.config.tip_length_threshold as u64);
        h.finish()
    }
}

/// Operation ④ — bubble filtering: prunes low-coverage parallel contigs from
/// `state.contigs` in place.
#[derive(Debug, Clone)]
// ppa_lint: allow(test-only-pub) the Stage of paper operation ④, for custom pipelines
pub struct FilterBubbles {
    /// The bubble-filtering parameters (edit-distance threshold).
    pub config: BubbleConfig,
}

impl FilterBubbles {
    /// A bubble-filtering stage with the given parameters.
    pub fn new(config: BubbleConfig) -> FilterBubbles {
        FilterBubbles { config }
    }
}

impl Stage for FilterBubbles {
    fn name(&self) -> &str {
        "filter_bubbles"
    }

    fn run(&self, state: &mut GraphState<'_>, ctx: &ExecCtx) -> StageReport {
        let outcome = filter_bubbles_on(ctx, &state.contigs, &self.config);
        remove_pruned(&mut state.contigs, &outcome.pruned);
        StageReport::new(
            self.name(),
            StageDetails::Bubbles {
                pruned: outcome.pruned.len(),
                candidate_groups: outcome.candidate_groups,
            },
        )
    }

    fn config_fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.config.max_edit_distance as u64);
        h.finish()
    }
}

/// Operation ⑤ — tip removing: rewires `state.ambiguous_kmers` +
/// `state.contigs`, leaves each sorted by ID ([`TipOutcome`]) and marks the
/// state rewired, so the next [`Label`] stage labels them where they lie.
///
/// [`TipOutcome`]: crate::ops::tip::TipOutcome
#[derive(Debug, Clone)]
pub struct RemoveTips {
    /// The tip-removal parameters (k, tip-length threshold).
    pub config: TipConfig,
}

impl RemoveTips {
    /// A tip-removal stage with the given parameters.
    pub fn new(config: TipConfig) -> RemoveTips {
        RemoveTips { config }
    }
}

impl Stage for RemoveTips {
    fn name(&self) -> &str {
        "remove_tips"
    }

    fn run(&self, state: &mut GraphState<'_>, ctx: &ExecCtx) -> StageReport {
        let tips = remove_tips_on(ctx, &state.ambiguous_kmers, &state.contigs, &self.config);
        // The next Label stage reads the rewired graph where it lies.
        state.nodes = KmerGraph::default();
        state.ambiguous_kmers = tips.kmers;
        state.contigs = tips.contigs;
        state.rewired = true;
        StageReport::new(
            self.name(),
            StageDetails::Tips {
                deleted_kmers: tips.deleted_kmers,
                deleted_contigs: tips.deleted_contigs,
                metrics: tips.metrics,
            },
        )
    }

    fn config_fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.config.k as u64);
        h.write_u64(self.config.tip_length_threshold as u64);
        h.finish()
    }
}

/// Terminal stage: moves `state.contigs` into `state.output`, dropping
/// contigs shorter than the configured minimum and sorting longest-first.
#[derive(Debug, Clone)]
pub struct FilterLength {
    /// Contigs shorter than this are dropped from the output.
    pub min_length: usize,
}

impl FilterLength {
    /// A length-filter stage with the given minimum contig length.
    pub fn new(min_length: usize) -> FilterLength {
        FilterLength { min_length }
    }
}

impl Stage for FilterLength {
    fn name(&self) -> &str {
        "filter_length"
    }

    fn run(&self, state: &mut GraphState<'_>, _ctx: &ExecCtx) -> StageReport {
        let contigs = std::mem::take(&mut state.contigs);
        let before = contigs.len();
        let mut out: Vec<Contig> = contigs
            .into_iter()
            .filter(|c| c.len() >= self.min_length)
            .map(|c| Contig {
                id: c.id,
                sequence: c.seq.to_dna(),
                coverage: c.coverage,
            })
            .collect();
        out.sort_by(|a, b| b.len().cmp(&a.len()).then(a.id.cmp(&b.id)));
        let n50_out = n50(&out.iter().map(Contig::len).collect::<Vec<_>>());
        let kept = out.len();
        state.output = out;
        StageReport::new(
            self.name(),
            StageDetails::FilterLength {
                kept,
                dropped: before - kept,
                n50: n50_out,
            },
        )
    }

    fn config_fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.min_length as u64);
        h.finish()
    }
}

// ---------------------------------------------------------------------------
// The pipeline builder
// ---------------------------------------------------------------------------

enum PipelineItem {
    Stage(Box<dyn Stage>),
    Repeat {
        times: usize,
        stages: Vec<Box<dyn Stage>>,
    },
}

/// Flattens the item list into execution order (repeat blocks unrolled).
fn flattened(items: &[PipelineItem]) -> Vec<&dyn Stage> {
    let mut flat: Vec<&dyn Stage> = Vec::new();
    for item in items {
        match item {
            PipelineItem::Stage(stage) => flat.push(stage.as_ref()),
            PipelineItem::Repeat { times, stages } => {
                for _ in 0..*times {
                    for stage in stages {
                        flat.push(stage.as_ref());
                    }
                }
            }
        }
    }
    flat
}

/// A composed sequence of [`Stage`]s with attached [`PipelineObserver`]s.
///
/// Built with [`then`](Pipeline::then) / [`repeat`](Pipeline::repeat) /
/// [`observe`](Pipeline::observe); executed with
/// [`try_run`](Pipeline::try_run) or, from a snapshot,
/// [`resume`](Pipeline::resume). The lifetime parameter is the borrow of the
/// attached observers.
///
/// # Fault tolerance
///
/// The recovery of Pregel and Pregel+: reload the last checkpoint and run the
/// rest again. [`checkpoint_to`](Pipeline::checkpoint_to) makes the pipeline
/// snapshot its [`GraphState`] at stage boundaries (see
/// [`crate::checkpoint`]); `try_run` returns every stage panic, worker
/// panics included, and every checkpoint failure as a typed
/// [`PipelineError`] and leaves the worker pool reusable; and `resume` loads
/// the latest snapshot and runs the stages it had not completed. A caller
/// that retries after a failure calls `resume` on the same directory, in the
/// same process or a new one.
pub struct Pipeline<'o> {
    items: Vec<PipelineItem>,
    observers: Vec<&'o mut dyn PipelineObserver>,
    checkpoint: Option<(PathBuf, CheckpointPolicy)>,
}

impl Default for Pipeline<'_> {
    fn default() -> Self {
        Pipeline::new()
    }
}

impl<'o> Pipeline<'o> {
    /// An empty pipeline.
    pub fn new() -> Pipeline<'o> {
        Pipeline {
            items: Vec::new(),
            observers: Vec::new(),
            checkpoint: None,
        }
    }

    /// Appends one stage.
    pub fn then(mut self, stage: impl Stage + 'static) -> Pipeline<'o> {
        self.items.push(PipelineItem::Stage(Box::new(stage)));
        self
    }

    /// Appends a block of stages executed `times` times in sequence — the
    /// paper's error-correction loop is `repeat(r, [④, ⑤, ②, ③])`.
    pub fn repeat(mut self, times: usize, stages: Vec<Box<dyn Stage>>) -> Pipeline<'o> {
        self.items.push(PipelineItem::Repeat { times, stages });
        self
    }

    /// Attaches an observer; every attached observer sees every stage
    /// boundary of [`try_run`](Pipeline::try_run) and
    /// [`resume`](Pipeline::resume).
    pub fn observe(mut self, observer: &'o mut dyn PipelineObserver) -> Pipeline<'o> {
        self.observers.push(observer);
        self
    }

    /// Enables stage-boundary checkpointing: snapshots of the [`GraphState`]
    /// are written under `dir` according to `policy` (see
    /// [`crate::checkpoint`] for the on-disk format). Only the most recent
    /// snapshot is kept.
    pub fn checkpoint_to(
        mut self,
        dir: impl Into<PathBuf>,
        policy: CheckpointPolicy,
    ) -> Pipeline<'o> {
        self.checkpoint = Some((dir.into(), policy));
        self
    }

    /// The number of stage executions one `try_run` performs.
    // ppa_lint: allow(test-only-pub) the seam `tests/{cancellation,fault_tolerance}.rs` walk every stage boundary with
    pub fn stage_count(&self) -> usize {
        self.items
            .iter()
            .map(|item| match item {
                PipelineItem::Stage(_) => 1,
                PipelineItem::Repeat { times, stages } => times * stages.len(),
            })
            .sum()
    }

    /// The paper's evaluation workflow ①②③(④⑤②③)×r plus the final length
    /// filter, parameterised by an [`AssemblyConfig`].
    ///
    /// [`crate::workflow::try_assemble`] runs exactly this pipeline; build it
    /// yourself to attach extra observers, to checkpoint, or to splice in
    /// custom stages.
    pub fn paper_workflow(config: &AssemblyConfig) -> Pipeline<'o> {
        let merge_cfg = MergeConfig {
            k: config.k,
            tip_length_threshold: config.tip_length_threshold,
        };
        Pipeline::new()
            .then(Construct::new(ConstructConfig {
                k: config.k,
                min_coverage: config.min_kmer_coverage,
                batch_size: 1024,
            }))
            .then(Label::new(config.labeling))
            .then(Merge::new(merge_cfg.clone()))
            .repeat(
                config.error_correction_rounds,
                vec![
                    Box::new(FilterBubbles::new(BubbleConfig {
                        max_edit_distance: config.bubble_edit_distance,
                    })),
                    Box::new(RemoveTips::new(TipConfig {
                        k: config.k,
                        tip_length_threshold: config.tip_length_threshold,
                    })),
                    Box::new(Label::new(config.labeling)),
                    Box::new(Merge::new(merge_cfg)),
                ],
            )
            .then(FilterLength::new(config.min_contig_length))
    }

    /// A stable fingerprint of the pipeline's structure: the flattened
    /// sequence of stage names and per-stage
    /// [`config_fingerprint`](Stage::config_fingerprint)s. Recorded in every
    /// checkpoint manifest; [`resume`](Pipeline::resume) refuses a snapshot
    /// whose fingerprint disagrees, so a pipeline rebuilt with a different
    /// `k`, threshold, repeat count or stage order cannot silently continue
    /// from incompatible data.
    pub fn fingerprint(&self) -> u64 {
        let flat = flattened(&self.items);
        let mut h = Fnv64::new();
        h.write_u64(flat.len() as u64);
        for stage in &flat {
            h.write_str(stage.name());
            h.write_u64(stage.config_fingerprint());
        }
        h.finish()
    }

    /// Runs the flattened stages from `start_at`, threading the
    /// per-stage-name round counters and appending one report per completed
    /// stage. Each stage runs inside the stage boundary's `catch_unwind`, and
    /// its panic is returned typed: [`PipelineError::Cancelled`] or
    /// [`PipelineError::NotConverged`] for the engine's typed stops,
    /// [`PipelineError::Stage`] for everything else. Checkpoints are written
    /// per the configured policy; injected checkpoint-write faults
    /// ([`ppa_pregel::FaultPlan`]) surface as [`CheckpointError::Io`].
    fn execute(
        &mut self,
        state: &mut GraphState<'_>,
        ctx: &ExecCtx,
        start_at: usize,
        rounds: &mut FxHashMap<String, usize>,
        reports: &mut Vec<StageReport>,
    ) -> Result<(), PipelineError> {
        let fingerprint = self.fingerprint();
        let Pipeline {
            items,
            observers,
            checkpoint,
        } = self;
        let flat = flattened(items);
        // Grab the armed fault plan and the control handle once per run:
        // un-instrumented executions pay one Option check per stage.
        let faults = ctx.faults();
        let control = ctx.control();
        // Reads are immutable for the whole execution: fingerprint them once
        // for all snapshots instead of re-hashing megabytes per stage.
        let reads_fp = checkpoint
            .as_ref()
            .map(|_| checkpoint::reads_fingerprint(state.reads));
        // The one way a snapshot is written: after `completed` flattened
        // stages, with the round counters in name order.
        let save = |dir: &Path,
                    state: &GraphState<'_>,
                    completed: usize,
                    rounds: &FxHashMap<String, usize>| {
            let mut round_list: Vec<(String, usize)> =
                rounds.iter().map(|(n, r)| (n.clone(), *r)).collect();
            round_list.sort();
            let meta = CheckpointMeta {
                completed_stages: completed,
                rounds: round_list,
                pipeline_fingerprint: fingerprint,
                workers: ctx.workers(),
            };
            let reads_fp = reads_fp.expect("fingerprinted when checkpointing is on");
            checkpoint::save_with_reads_fingerprint(dir, state, &meta, reads_fp)
        };
        for (idx, stage) in flat.iter().enumerate().skip(start_at) {
            let stage: &dyn Stage = *stage;
            let name = stage.name().to_string();
            let round = rounds.get(&name).copied().unwrap_or(0) + 1;
            // ---- cooperative control poll (stage boundary) ----------------
            // The GraphState is consistent here (stage `idx` has not started),
            // so with checkpointing armed a trip writes one emergency
            // snapshot pinning exactly `idx` completed stages before
            // unwinding — `resume` then continues from the cut point.
            if let Some(control) = &control {
                if let Some(reason) = control.poll(0) {
                    for obs in observers.iter_mut() {
                        obs.on_cancelled(reason, &name);
                    }
                    if let Some((dir, _)) = checkpoint {
                        save(dir, state, idx, rounds)?;
                    }
                    return Err(PipelineError::Cancelled {
                        reason,
                        stage: name,
                        superstep: None,
                    });
                }
            }
            for obs in observers.iter_mut() {
                obs.on_stage_start(&name);
            }
            let start = Instant::now();
            if let Some(f) = &faults {
                f.enter_stage(idx);
            }
            // The state is only conditionally unwind-safe: a caught panic may
            // leave it partially mutated, which `PipelineError` documents;
            // `resume` reloads a consistent one.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if let Some(f) = &faults {
                    f.probe_stage_entry();
                }
                stage.run(state, ctx)
            }));
            let mut report = match outcome {
                Ok(report) => report,
                Err(payload) => {
                    // A mid-stage control trip unwinds as a typed payload
                    // raised at a superstep/shuffle barrier (see
                    // `ppa_pregel::control`); everything else, the pool's
                    // `EngineError::WorkerPanic` included, is a stage panic.
                    // The state is mid-stage and possibly inconsistent either
                    // way, so no emergency snapshot here: resume continues
                    // from the last policy snapshot.
                    match payload.downcast_ref::<EngineError>() {
                        Some(&EngineError::Cancelled { reason, superstep }) => {
                            for obs in observers.iter_mut() {
                                obs.on_cancelled(reason, &name);
                            }
                            return Err(PipelineError::Cancelled {
                                reason,
                                stage: name,
                                superstep: Some(superstep),
                            });
                        }
                        Some(&EngineError::NotConverged { supersteps }) => {
                            return Err(PipelineError::NotConverged {
                                stage: name,
                                round,
                                supersteps,
                            });
                        }
                        _ => {}
                    }
                    return Err(PipelineError::Stage {
                        stage: name,
                        round,
                        message: panic_message(payload.as_ref()),
                    });
                }
            };
            report.elapsed = start.elapsed();
            report.round = round;
            rounds.insert(name, round);
            for obs in observers.iter_mut() {
                obs.on_stage_end(&report);
            }
            reports.push(report);

            if let Some((dir, policy)) = checkpoint {
                let completed = idx + 1;
                if policy.should_save(completed) {
                    if faults.as_ref().is_some_and(|f| f.probe_checkpoint_write()) {
                        return Err(PipelineError::Checkpoint(CheckpointError::Io(format!(
                            "injected fault: checkpoint write after stage {completed}"
                        ))));
                    }
                    save(dir, state, completed, rounds)?;
                }
            }
        }
        Ok(())
    }

    /// Executes every stage in order on the given state and execution
    /// context, returning the per-stage reports (also delivered to the
    /// attached observers).
    ///
    /// A stage panic (a worker's included), a checkpoint failure or a
    /// control-plane trip is returned as a [`PipelineError`], leaving the
    /// [`ExecCtx`] worker pool reusable. The state may then be partially
    /// mutated; with [`checkpoint_to`](Pipeline::checkpoint_to) set,
    /// [`resume`](Pipeline::resume) continues from the last snapshot.
    pub fn try_run(
        &mut self,
        state: &mut GraphState<'_>,
        ctx: &ExecCtx,
    ) -> Result<Vec<StageReport>, PipelineError> {
        self.drive(state, ctx, 0, FxHashMap::default())
    }

    /// Resumes from the latest snapshot under `dir`: validates that the
    /// snapshot was written by a pipeline with the same
    /// [`fingerprint`](Pipeline::fingerprint), the same worker count and the
    /// same read set, restores the [`GraphState`], fast-forwards to the
    /// recorded position (seeding the round counters so stage numbering
    /// continues seamlessly) and runs the remaining stages as
    /// [`try_run`](Pipeline::try_run) does.
    ///
    /// Returns the restored-and-completed state plus the reports of the
    /// *replayed* stages only. Checkpointing stays active during the replay
    /// when configured via [`checkpoint_to`](Pipeline::checkpoint_to), so a
    /// failed resume can itself be resumed.
    pub fn resume<'r>(
        &mut self,
        dir: impl AsRef<Path>,
        reads: &'r ReadSet,
        ctx: &ExecCtx,
    ) -> Result<(GraphState<'r>, Vec<StageReport>), PipelineError> {
        let (mut state, manifest) = checkpoint::load_latest(dir.as_ref(), reads)?;
        self.validate_manifest(&manifest, ctx)?;
        let rounds = manifest.rounds.into_iter().collect();
        let reports = self.drive(&mut state, ctx, manifest.completed_stages, rounds)?;
        Ok((state, reports))
    }

    /// The one driver behind [`try_run`](Pipeline::try_run) and
    /// [`resume`](Pipeline::resume): observer start, the stages from
    /// flattened position `start_at` with the round counters seeded from
    /// `rounds`, then observer end, after a failure too.
    fn drive(
        &mut self,
        state: &mut GraphState<'_>,
        ctx: &ExecCtx,
        start_at: usize,
        mut rounds: FxHashMap<String, usize>,
    ) -> Result<Vec<StageReport>, PipelineError> {
        let total = Instant::now();
        for obs in self.observers.iter_mut() {
            obs.on_pipeline_start();
        }
        let mut reports = Vec::new();
        let result = self.execute(state, ctx, start_at, &mut rounds, &mut reports);
        let total = total.elapsed();
        for obs in self.observers.iter_mut() {
            obs.on_pipeline_end(total);
        }
        result.map(|()| reports)
    }

    /// Rejects a snapshot manifest that disagrees with this pipeline or the
    /// execution context it is about to run on.
    fn validate_manifest(
        &self,
        manifest: &checkpoint::Manifest,
        ctx: &ExecCtx,
    ) -> Result<(), PipelineError> {
        let fingerprint = self.fingerprint();
        if manifest.pipeline_fingerprint != fingerprint {
            return Err(PipelineError::Checkpoint(CheckpointError::Mismatch {
                what: "pipeline fingerprint".into(),
                expected: format!("{:#018x}", manifest.pipeline_fingerprint),
                actual: format!("{fingerprint:#018x}"),
            }));
        }
        if manifest.workers != ctx.workers() {
            return Err(PipelineError::Checkpoint(CheckpointError::Mismatch {
                what: "worker count".into(),
                expected: manifest.workers.to_string(),
                actual: ctx.workers().to_string(),
            }));
        }
        if manifest.completed_stages > self.stage_count() {
            return Err(PipelineError::Checkpoint(CheckpointError::Mismatch {
                what: "completed stage count".into(),
                expected: format!("at most {}", self.stage_count()),
                actual: manifest.completed_stages.to_string(),
            }));
        }
        Ok(())
    }
}

impl std::fmt::Debug for Pipeline<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stages: Vec<String> = self
            .items
            .iter()
            .map(|item| match item {
                PipelineItem::Stage(s) => s.name().to_string(),
                PipelineItem::Repeat { times, stages } => format!(
                    "repeat×{times}[{}]",
                    stages
                        .iter()
                        .map(|s| s.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            })
            .collect();
        f.debug_struct("Pipeline")
            .field("stages", &stages)
            .field("observers", &self.observers.len())
            .field("checkpoint", &self.checkpoint)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_readsim::{GenomeConfig, ReadSimConfig};

    fn reads(length: usize, error: f64, seed: u64) -> ReadSet {
        let reference = GenomeConfig {
            length,
            repeat_families: 0,
            seed,
            ..Default::default()
        }
        .generate();
        ReadSimConfig {
            read_length: 100.min(length / 2),
            coverage: 20.0,
            substitution_rate: error,
            indel_rate: 0.0,
            n_rate: 0.0,
            both_strands: true,
            seed: seed + 1,
        }
        .simulate(&reference)
    }

    fn small_config() -> AssemblyConfig {
        AssemblyConfig {
            k: 21,
            min_kmer_coverage: 0,
            workers: 2,
            ..Default::default()
        }
    }

    #[test]
    fn paper_workflow_produces_contigs_and_reports() {
        let reads = reads(2_000, 0.0, 7);
        let config = small_config();
        let mut state = GraphState::new(&reads);
        let reports = Pipeline::paper_workflow(&config)
            .try_run(&mut state, &ExecCtx::new(2))
            .unwrap();
        assert!(!state.output.is_empty());
        // ① ② ③ + (④ ⑤ ② ③) + filter = 8 stage executions for 1 round.
        assert_eq!(reports.len(), 8);
        assert_eq!(reports[0].stage, "construct");
        assert_eq!(reports[7].stage, "filter_length");
        // Round numbering: the second label/merge executions are round 2.
        assert_eq!(reports[1].round, 1);
        assert_eq!(reports[5].stage, "label");
        assert_eq!(reports[5].round, 2);
        assert_eq!(reports[6].stage, "merge");
        assert_eq!(reports[6].round, 2);
    }

    #[test]
    fn label_and_merge_phases_are_laps_of_their_own_stage() {
        let reads = reads(2_000, 0.004, 19);
        for labeling in [
            LabelingAlgorithm::ListRanking,
            LabelingAlgorithm::SimplifiedSV,
        ] {
            let config = AssemblyConfig {
                min_kmer_coverage: 1,
                labeling,
                ..small_config()
            };
            let mut state = GraphState::new(&reads);
            let reports = Pipeline::paper_workflow(&config)
                .try_run(&mut state, &ExecCtx::new(2))
                .unwrap();
            let mut timed = 0;
            for report in &reports {
                let (phases, passed) = match &report.details {
                    StageDetails::Label(stats) => (
                        stats.phases,
                        &[Phase::Keys, Phase::Contract, Phase::Job, Phase::Spread][..],
                    ),
                    StageDetails::Merge { stats, .. } => {
                        (stats.phases, &[Phase::Group, Phase::Stitch][..])
                    }
                    _ => continue,
                };
                timed += 1;
                let what = format!("{labeling:?} {} round {}", report.stage, report.round);
                for phase in Phase::ALL {
                    assert_eq!(
                        passed.contains(&phase),
                        !phases.get(phase).is_zero(),
                        "{what}: {}",
                        phase.name()
                    );
                }
                // One clock's laps: they never overlap, so they fit in the
                // time measured around the stage.
                let laps: Duration = Phase::ALL.iter().map(|&p| phases.get(p)).sum();
                assert!(
                    laps <= report.elapsed,
                    "{what}: {laps:?} in {:?}",
                    report.elapsed
                );
            }
            assert_eq!(timed, 4, "{labeling:?}");
        }
    }

    #[test]
    fn construct_phases_are_laps_of_its_own_stage_and_cover_it() {
        // The heap ratchet's input: 30x 1 %-error reads of a 40 kb genome
        // with a few `N`s, 1.2 M bases.
        let genome = GenomeConfig {
            length: 40_000,
            seed: 5,
            ..Default::default()
        }
        .generate();
        let reads = ReadSimConfig {
            read_length: 100,
            coverage: 30.0,
            substitution_rate: 0.01,
            indel_rate: 0.0,
            n_rate: 0.0005,
            both_strands: true,
            seed: 6,
        }
        .simulate(&genome);
        assert!(reads.total_bases() >= 1_200_000);
        let config = AssemblyConfig {
            workers: 2,
            error_correction_rounds: 1,
            ..AssemblyConfig::default()
        };
        let mut state = GraphState::new(&reads);
        let reports = Pipeline::paper_workflow(&config)
            .try_run(&mut state, &ExecCtx::new(2))
            .unwrap();
        let StageDetails::Construct(stats) = &reports[0].details else {
            panic!("the first stage is construct");
        };
        let own = [
            Phase::CountScatter,
            Phase::CountFold,
            Phase::CountSort,
            Phase::BuildScatter,
            Phase::BuildFold,
        ];
        for phase in Phase::ALL {
            assert_eq!(
                own.contains(&phase),
                !stats.phases.get(phase).is_zero(),
                "{}",
                phase.name()
            );
        }
        // The keyed passes' own laps sum to their clocks.
        for pass in [&stats.phase1, &stats.phase2] {
            assert_eq!(
                pass.scatter_elapsed + pass.fold_elapsed + pass.sort_elapsed,
                pass.elapsed
            );
        }
        assert!(stats.phase2.sort_elapsed.is_zero());
        // One clock's laps, covering all but the stage's bookkeeping.
        let laps: Duration = own.iter().map(|&p| stats.phases.get(p)).sum();
        assert!(laps <= stats.elapsed, "{laps:?} in {:?}", stats.elapsed);
        assert!(
            laps.as_secs_f64() >= 0.98 * stats.elapsed.as_secs_f64(),
            "{laps:?} of {:?}",
            stats.elapsed
        );
        // Every other stage's phases are its own.
        for report in &reports[1..] {
            let phases = match &report.details {
                StageDetails::Label(stats) => stats.phases,
                StageDetails::Merge { stats, .. } => stats.phases,
                _ => continue,
            };
            assert!(
                own.iter().all(|&p| phases.get(p).is_zero()),
                "{}",
                report.stage
            );
        }
        assert!(reports[0].details.summary().contains("count fold"));
    }

    #[test]
    fn workflow_stats_observer_matches_inline_shape() {
        let reads = reads(2_000, 0.004, 19);
        let config = AssemblyConfig {
            min_kmer_coverage: 1,
            ..small_config()
        };
        let mut stats = WorkflowStats::default();
        let mut state = GraphState::new(&reads);
        Pipeline::paper_workflow(&config)
            .observe(&mut stats)
            .try_run(&mut state, &ExecCtx::new(2))
            .unwrap();
        assert_eq!(stats.corrections.len(), 1);
        assert_eq!(stats.label_round2.len(), 1);
        assert_eq!(stats.merge_round2.len(), 1);
        assert_eq!(
            stats.node_counts.kmer_vertices,
            stats.construct.vertices as usize
        );
        assert!(stats.total_elapsed.as_nanos() > 0);
        assert!(stats
            .timings
            .iter()
            .any(|t| t.stage == "1 DBG construction"));
        assert!(stats
            .timings
            .iter()
            .any(|t| t.stage == "2 contig labeling (contigs, round 2)"));
    }

    #[test]
    fn stage_count_accounts_for_repeats() {
        let config = AssemblyConfig {
            error_correction_rounds: 3,
            ..small_config()
        };
        let pipeline = Pipeline::<'static>::paper_workflow(&config);
        assert_eq!(pipeline.stage_count(), 3 + 3 * 4 + 1);
    }

    #[test]
    fn repeat_zero_times_skips_the_block() {
        let reads = reads(1_500, 0.0, 29);
        let config = AssemblyConfig {
            error_correction_rounds: 0,
            ..small_config()
        };
        let mut stats = WorkflowStats::default();
        let mut state = GraphState::new(&reads);
        let reports = Pipeline::paper_workflow(&config)
            .observe(&mut stats)
            .try_run(&mut state, &ExecCtx::new(2))
            .unwrap();
        assert_eq!(reports.len(), 4); // construct, label, merge, filter
        assert!(stats.corrections.is_empty());
        assert_eq!(stats.n50_after_round1, stats.n50_final);
    }

    #[test]
    fn relabeling_an_unrewired_graph_is_a_typed_stage_error() {
        // Label after Merge without an intervening RemoveTips used to label
        // an empty node set and silently discard the assembly; now the stage
        // panics with guidance, and the run returns it typed.
        let reads = reads(2_000, 0.0, 43);
        let config = small_config();
        let mut state = GraphState::new(&reads);
        let err = Pipeline::new()
            .then(Construct::new(ConstructConfig {
                k: config.k,
                min_coverage: 0,
                batch_size: 1024,
            }))
            .then(Label::list_ranking())
            .then(Merge::new(MergeConfig {
                k: config.k,
                tip_length_threshold: config.tip_length_threshold,
            }))
            .then(Label::list_ranking())
            .try_run(&mut state, &ExecCtx::new(2))
            .unwrap_err();
        match &err {
            PipelineError::Stage {
                stage,
                round,
                message,
            } => {
                assert_eq!((stage.as_str(), *round), ("label", 2));
                assert!(message.contains("run RemoveTips before re-labeling"));
            }
            other => panic!("expected a Stage error, got {other:?}"),
        }
    }

    #[test]
    fn custom_stage_and_custom_details_flow_through() {
        struct Halve;
        impl Stage for Halve {
            fn name(&self) -> &str {
                "halve"
            }
            fn run(&self, state: &mut GraphState<'_>, _ctx: &ExecCtx) -> StageReport {
                let keep = state.contigs.len() / 2;
                state.contigs.truncate(keep);
                StageReport::new(self.name(), StageDetails::Custom)
            }
        }
        let reads = reads(2_000, 0.0, 37);
        let config = small_config();
        let mut stats = WorkflowStats::default();
        let mut state = GraphState::new(&reads);
        let mut pipeline = Pipeline::new()
            .then(Construct::new(ConstructConfig {
                k: config.k,
                min_coverage: 0,
                batch_size: 1024,
            }))
            .then(Label::list_ranking())
            .then(Merge::new(MergeConfig {
                k: config.k,
                tip_length_threshold: config.tip_length_threshold,
            }))
            .then(Halve)
            .then(FilterLength::new(0))
            .observe(&mut stats);
        let reports = pipeline.try_run(&mut state, &ExecCtx::new(2)).unwrap();
        assert_eq!(reports[3].stage, "halve");
        assert!(matches!(reports[3].details, StageDetails::Custom));
        assert!(stats.timings.iter().any(|t| t.stage == "halve"));
    }

    /// A unique, cleaned-on-drop temp directory for checkpoint tests.
    struct TmpDir(PathBuf);

    impl TmpDir {
        fn new(tag: &str) -> TmpDir {
            let dir =
                std::env::temp_dir().join(format!("ppa-pipeline-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TmpDir(dir)
        }
    }

    impl Drop for TmpDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn try_run_matches_run() {
        // The driver adds nothing to the state: `try_run` equals calling
        // each flattened stage's own `Stage::run` in order.
        let reads = reads(2_000, 0.0, 71);
        let config = small_config();
        let ctx = ExecCtx::new(2);
        let by_hand_pipeline = Pipeline::paper_workflow(&config);
        let stages = flattened(&by_hand_pipeline.items);
        let mut by_hand = GraphState::new(&reads);
        for stage in &stages {
            stage.run(&mut by_hand, &ctx);
        }
        let mut state = GraphState::new(&reads);
        let reports = Pipeline::paper_workflow(&config)
            .try_run(&mut state, &ctx)
            .expect("fault-free try_run succeeds");
        assert_eq!(state, by_hand);
        let names: Vec<&str> = reports.iter().map(|r| r.stage.as_str()).collect();
        assert_eq!(names, stages.iter().map(|s| s.name()).collect::<Vec<_>>());
    }

    #[test]
    fn fingerprint_tracks_structure_and_config() {
        let config = small_config();
        let base = Pipeline::<'static>::paper_workflow(&config).fingerprint();
        assert_eq!(
            base,
            Pipeline::<'static>::paper_workflow(&config).fingerprint(),
            "fingerprint is deterministic"
        );
        let different_k = AssemblyConfig {
            k: 19,
            ..small_config()
        };
        assert_ne!(
            base,
            Pipeline::<'static>::paper_workflow(&different_k).fingerprint()
        );
        let more_rounds = AssemblyConfig {
            error_correction_rounds: 2,
            ..small_config()
        };
        assert_ne!(
            base,
            Pipeline::<'static>::paper_workflow(&more_rounds).fingerprint()
        );
    }

    #[test]
    fn try_run_surfaces_stage_panics_and_leaves_the_pool_reusable() {
        let empty = ReadSet::new();
        let ctx = ExecCtx::new(2);
        let mut state = GraphState::new(&empty);
        let err = Pipeline::new()
            .then(Merge::new(MergeConfig::default()))
            .try_run(&mut state, &ctx)
            .unwrap_err();
        match &err {
            PipelineError::Stage {
                stage,
                round,
                message,
            } => {
                assert_eq!(stage, "merge");
                assert_eq!(*round, 1);
                assert!(message.contains("requires a preceding Label stage"));
            }
            other => panic!("expected a Stage error, got {other:?}"),
        }
        // The same context still drives a full workflow afterwards.
        let reads = reads(1_500, 0.0, 79);
        let mut state = GraphState::new(&reads);
        Pipeline::paper_workflow(&small_config())
            .try_run(&mut state, &ctx)
            .unwrap();
        assert!(!state.output.is_empty());
    }

    #[test]
    fn a_job_that_does_not_converge_is_a_typed_error_that_is_not_retried() {
        // What S-V labeling raises when its superstep budget runs out.
        struct Unconverged;
        impl Stage for Unconverged {
            fn name(&self) -> &str {
                "label"
            }
            fn run(&self, _state: &mut GraphState<'_>, _ctx: &ExecCtx) -> StageReport {
                std::panic::panic_any(EngineError::NotConverged { supersteps: 4_000 })
            }
        }
        let reads = ReadSet::new();
        let ctx = ExecCtx::new(2);
        let mut state = GraphState::new(&reads);
        let err = Pipeline::new()
            .then(Unconverged)
            .try_run(&mut state, &ctx)
            .unwrap_err();
        assert_eq!(
            err,
            PipelineError::NotConverged {
                stage: "label".into(),
                round: 1,
                supersteps: 4_000,
            }
        );
        assert_eq!(
            err.to_string(),
            "stage label (round 1) did not converge within 4000 supersteps"
        );
    }

    #[test]
    fn completed_checkpoint_resumes_to_identical_state() {
        let reads = reads(2_000, 0.0, 83);
        let config = small_config();
        let ctx = ExecCtx::new(2);
        let tmp = TmpDir::new("resume-complete");
        let mut baseline = GraphState::new(&reads);
        Pipeline::paper_workflow(&config)
            .checkpoint_to(&tmp.0, CheckpointPolicy::EveryStage)
            .try_run(&mut baseline, &ctx)
            .unwrap();
        let (resumed, reports) = Pipeline::paper_workflow(&config)
            .resume(&tmp.0, &reads, &ctx)
            .expect("resume from a completed run");
        assert!(reports.is_empty(), "nothing left to replay");
        assert_eq!(resumed, baseline);
    }

    #[test]
    fn resume_rejects_a_mismatched_pipeline_or_context() {
        let reads = reads(1_500, 0.0, 89);
        let config = small_config();
        let ctx = ExecCtx::new(2);
        let tmp = TmpDir::new("resume-mismatch");
        let mut state = GraphState::new(&reads);
        Pipeline::paper_workflow(&config)
            .checkpoint_to(&tmp.0, CheckpointPolicy::EveryStage)
            .try_run(&mut state, &ctx)
            .unwrap();
        let other_config = AssemblyConfig {
            k: 19,
            ..small_config()
        };
        let err = Pipeline::paper_workflow(&other_config)
            .resume(&tmp.0, &reads, &ctx)
            .unwrap_err();
        assert!(
            matches!(
                &err,
                PipelineError::Checkpoint(CheckpointError::Mismatch { what, .. })
                    if what == "pipeline fingerprint"
            ),
            "got {err:?}"
        );
        let err = Pipeline::paper_workflow(&config)
            .resume(&tmp.0, &reads, &ExecCtx::new(3))
            .unwrap_err();
        assert!(
            matches!(
                &err,
                PipelineError::Checkpoint(CheckpointError::Mismatch { what, .. })
                    if what == "worker count"
            ),
            "got {err:?}"
        );
    }
}
