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
//!   a [`PipelineObserver`], and [`run`](Pipeline::run) executes the stages
//!   on an [`ExecCtx`] worker pool.
//! * [`PipelineObserver`] — timing/stats instrumentation as a hook instead of
//!   inline code: the runner measures every stage and delivers a
//!   [`StageReport`]; [`WorkflowStats`] *is* the built-in observer (it
//!   rebuilds all the paper-table statistics from the reports), and
//!   [`StageLogger`] prints per-stage progress for the bench harnesses.
//!
//! [`Pipeline::paper_workflow`] is the preset for the paper's evaluation
//! workflow ①②③(④⑤②③)×r; [`crate::workflow::assemble`] is now a thin wrapper
//! over it.
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
//! let reports = pipeline.run(&mut state, &ExecCtx::new(workers));
//! assert!(!state.output.is_empty());
//! assert_eq!(reports.len(), 8); // construct, label, merge, 2 × tips, label, merge, filter
//! assert!(stats.total_elapsed.as_nanos() > 0);
//! ```

use crate::checkpoint::{self, CheckpointError, CheckpointMeta, Fnv64};
use crate::node::{AsmNode, KmerGraph, MixedNodes, NodeSource};
use crate::ops::bubble::{filter_bubbles_on, remove_pruned, BubbleConfig};
use crate::ops::construct::{build_dbg_on, ConstructConfig, ConstructStats};
use crate::ops::label::{label_contigs_lr_on, LabelOutcome};
use crate::ops::label_sv::label_contigs_sv_on;
use crate::ops::merge::{merge_contigs_on, MergeConfig};
use crate::ops::tip::{remove_tips_on, TipConfig};
use crate::stats::{n50, CorrectionStats, LabelStats, MergeStats, WorkflowStats};
use crate::workflow::{AssemblyConfig, Contig, LabelingAlgorithm};
use ppa_pregel::engine::panic_message;
use ppa_pregel::fxhash::{FxHashMap, FxHashSet};
use ppa_pregel::{CancelReason, EngineError, ExecCtx, Metrics};
use ppa_seq::{ReadSet, SeqError};
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

/// A recoverable pipeline failure, as returned by [`Pipeline::try_run`],
/// [`Pipeline::resume`] and [`Pipeline::try_run_with_retries`].
///
/// [`Pipeline::run`] keeps the historical panicking contract; the `try_*`
/// entry points catch stage panics at the stage boundary (worker panics
/// already unwind cleanly to the dispatching thread, leaving the pool
/// reusable) and convert them — together with checkpoint I/O failures and
/// malformed input — into this type so a driver can retry from the last
/// snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The input reads could not be parsed (malformed FASTA/FASTQ).
    Input(SeqError),
    /// A stage panicked: a worker panic surfaced at the superstep barrier, an
    /// injected fault, or a stage-invariant violation. The state may be
    /// partially mutated; reload it from a checkpoint (or rebuild it fresh)
    /// before retrying.
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
    /// a memory budget overrun. Never retried by
    /// [`Pipeline::try_run_with_retries`] — the stop is deliberate. When the
    /// trip happened at a stage boundary with checkpointing armed, an
    /// emergency snapshot was written first, so
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

impl PipelineError {
    /// Whether a retry can plausibly cure this failure. Stage panics and
    /// checkpoint I/O errors are transient (a crash can be re-run, a full
    /// disk can recover); malformed input, cancellations and a job that did
    /// not converge are not — [`Pipeline::try_run_with_retries`] fails fast
    /// on them.
    // ppa_lint: allow(test-only-pub) the retry policy's verdict, public so a caller retrying on its own can ask it
    pub fn is_transient(&self) -> bool {
        match self {
            PipelineError::Stage { .. } | PipelineError::Checkpoint(_) => true,
            PipelineError::Input(_)
            | PipelineError::Cancelled { .. }
            | PipelineError::NotConverged { .. } => false,
        }
    }
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
/// its [`GraphState`].
///
/// Stages are counted in *flattened* execution order ([`Pipeline::repeat`]
/// blocks unrolled), matching [`Pipeline::stage_count`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointPolicy {
    /// Never checkpoint (the default; `run` stays byte-identical to a
    /// pipeline without a checkpoint directory).
    #[default]
    Off,
    /// Snapshot after every completed stage.
    EveryStage,
    /// Snapshot after every Nth completed stage (`EveryN(0)` never saves).
    EveryN(usize),
}

impl CheckpointPolicy {
    /// Whether a snapshot should be written once `completed` flattened stages
    /// have finished.
    fn should_save(&self, completed: usize) -> bool {
        match self {
            CheckpointPolicy::Off => false,
            CheckpointPolicy::EveryStage => true,
            CheckpointPolicy::EveryN(n) => *n > 0 && completed.is_multiple_of(*n),
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

impl StageDetails {
    /// One-line human-readable summary (used by [`StageLogger`]).
    pub fn summary(&self) -> String {
        match self {
            StageDetails::Construct(s) => format!(
                "{} k-mer vertices from {} kept (k+1)-mers",
                s.vertices, s.kept_kplus1_mers
            ),
            StageDetails::Label(s) => {
                let polls = if s.cancellation_checks > 0 {
                    format!(", {} cancel polls", s.cancellation_checks)
                } else {
                    String::new()
                };
                format!(
                    "{} labeled / {} ambiguous in {} supersteps, {} msgs \
                     (avg frontier {:.0}%, store {}{polls})",
                    s.labeled_vertices,
                    s.ambiguous_vertices,
                    s.supersteps,
                    s.messages,
                    s.avg_frontier_density * 100.0,
                    fmt_bytes(s.peak_store_resident_bytes)
                )
            }
            StageDetails::Merge {
                stats, nodes_after, ..
            } => format!(
                "{} contigs from {} groups ({} tips dropped), {} nodes remain",
                stats.contigs, stats.groups, stats.dropped_tips, nodes_after
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
/// [`Pipeline::run`].
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
/// the per-stage output of the bench harnesses.
#[derive(Debug, Default)]
pub struct StageLogger {
    /// Prefix prepended to every line (e.g. the dataset or algorithm name).
    pub prefix: String,
}

impl StageLogger {
    /// A logger whose lines are prefixed with `prefix`.
    pub fn with_prefix(prefix: impl Into<String>) -> StageLogger {
        StageLogger {
            prefix: prefix.into(),
        }
    }
}

impl PipelineObserver for StageLogger {
    fn on_stage_end(&mut self, report: &StageReport) {
        let prefix = if self.prefix.is_empty() {
            String::new()
        } else {
            format!("[{}] ", self.prefix)
        };
        eprintln!(
            "{prefix}{} (round {}): {:.3}s — {}",
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
        let outcome = if state.nodes.is_empty() {
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
        let stats = LabelStats::from_metrics(
            &outcome.metrics,
            outcome.labels.len(),
            outcome.ambiguous.len(),
            outcome.used_cycle_fallback,
        );
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
        };
        // The ambiguous k-mers are the only ones that outlive the merge, and
        // the only ones expanded. A contig is never ambiguous: it keeps at
        // most one neighbour per side (Figure 9).
        let ambiguous: FxHashSet<u64> = labels.ambiguous.iter().copied().collect();
        if state.nodes.is_empty() {
            state.ambiguous_kmers.retain(|n| ambiguous.contains(&n.id));
        } else {
            state.ambiguous_kmers = std::mem::take(&mut state.nodes)
                .iter()
                .filter(|v| ambiguous.contains(&v.id()))
                .map(|v| v.to_asm_node())
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
/// [`observe`](Pipeline::observe); executed with [`run`](Pipeline::run). The
/// lifetime parameter is the borrow of the attached observers.
///
/// # Fault tolerance
///
/// [`checkpoint_to`](Pipeline::checkpoint_to) makes the pipeline snapshot its
/// [`GraphState`] at stage boundaries (see [`crate::checkpoint`]);
/// [`try_run`](Pipeline::try_run) converts stage panics and checkpoint
/// failures into typed [`PipelineError`]s instead of unwinding;
/// [`resume`](Pipeline::resume) fast-forwards past the stages a snapshot
/// already completed; and
/// [`try_run_with_retries`](Pipeline::try_run_with_retries) is the
/// self-healing driver loop combining all three.
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
    /// boundary of [`run`](Pipeline::run).
    pub fn observe(mut self, observer: &'o mut dyn PipelineObserver) -> Pipeline<'o> {
        self.observers.push(observer);
        self
    }

    /// Enables stage-boundary checkpointing: snapshots of the [`GraphState`]
    /// are written under `dir` according to `policy` (see
    /// [`crate::checkpoint`] for the on-disk format). Only the most recent
    /// snapshot is kept. With [`CheckpointPolicy::Off`] nothing is written
    /// and execution is byte-identical to an unconfigured pipeline.
    pub fn checkpoint_to(
        mut self,
        dir: impl Into<PathBuf>,
        policy: CheckpointPolicy,
    ) -> Pipeline<'o> {
        self.checkpoint = Some((dir.into(), policy));
        self
    }

    /// The number of stage executions one `run` performs.
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
    /// [`crate::workflow::assemble`] runs exactly this pipeline; build it
    /// yourself to attach extra observers or to splice in custom stages.
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

    /// The shared execution core: runs the flattened stages from `start_at`,
    /// threading the per-stage-name round counters and appending one report
    /// per completed stage. With `catch` set, a stage panic is caught at the
    /// stage boundary and returned as [`PipelineError::Stage`]; without it,
    /// panics propagate unchanged (the historical [`run`](Pipeline::run)
    /// contract). Checkpoints are written per the configured policy; injected
    /// checkpoint-write faults ([`ppa_pregel::FaultPlan`]) surface as
    /// [`CheckpointError::Io`].
    fn execute(
        &mut self,
        state: &mut GraphState<'_>,
        ctx: &ExecCtx,
        start_at: usize,
        rounds: &mut FxHashMap<String, usize>,
        catch: bool,
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
                    if let Some((dir, policy)) = checkpoint {
                        if !matches!(policy, CheckpointPolicy::Off) {
                            let mut round_list: Vec<(String, usize)> =
                                rounds.iter().map(|(n, r)| (n.clone(), *r)).collect();
                            round_list.sort();
                            let meta = CheckpointMeta {
                                completed_stages: idx,
                                rounds: round_list,
                                pipeline_fingerprint: fingerprint,
                                workers: ctx.workers(),
                            };
                            let reads_fp =
                                reads_fp.expect("fingerprinted when checkpointing is on");
                            checkpoint::save_with_reads_fingerprint(dir, state, &meta, reads_fp)?;
                        }
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
            // leave it partially mutated. All `catch` callers either discard
            // it or reload it from a checkpoint before retrying.
            let outcome = if catch {
                catch_unwind(AssertUnwindSafe(|| {
                    if let Some(f) = &faults {
                        f.probe_stage_entry();
                    }
                    stage.run(state, ctx)
                }))
            } else {
                if let Some(f) = &faults {
                    f.probe_stage_entry();
                }
                Ok(stage.run(state, ctx))
            };
            let mut report = match outcome {
                Ok(report) => report,
                Err(payload) => {
                    // A mid-stage control trip unwinds as a typed payload
                    // raised at a superstep/shuffle barrier (see
                    // `ppa_pregel::control`); everything else is a genuine
                    // stage panic. The state is mid-stage and possibly
                    // inconsistent either way, so no emergency snapshot here:
                    // resume continues from the last policy snapshot.
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
                    checkpoint::save_with_reads_fingerprint(dir, state, &meta, reads_fp)?;
                }
            }
        }
        Ok(())
    }

    /// Executes every stage in order on the given state and execution
    /// context, returning the per-stage reports (also delivered to the
    /// attached observers).
    ///
    /// Keeps the historical contract: stage panics propagate unchanged, and a
    /// checkpoint failure (only possible with
    /// [`checkpoint_to`](Pipeline::checkpoint_to) enabled) panics too. Use
    /// [`try_run`](Pipeline::try_run) for typed errors.
    pub fn run(&mut self, state: &mut GraphState<'_>, ctx: &ExecCtx) -> Vec<StageReport> {
        let total = Instant::now();
        for obs in self.observers.iter_mut() {
            obs.on_pipeline_start();
        }
        let mut rounds: FxHashMap<String, usize> = FxHashMap::default();
        let mut reports: Vec<StageReport> = Vec::new();
        if let Err(e) = self.execute(state, ctx, 0, &mut rounds, false, &mut reports) {
            panic!("{e}");
        }
        let total = total.elapsed();
        for obs in self.observers.iter_mut() {
            obs.on_pipeline_end(total);
        }
        reports
    }

    /// Like [`run`](Pipeline::run), but recoverable: a stage panic (including
    /// a worker panic propagated through the superstep barrier and injected
    /// faults) or a checkpoint failure is returned as a [`PipelineError`]
    /// instead of unwinding, leaving the [`ExecCtx`] worker pool reusable.
    ///
    /// On a [`PipelineError::Stage`], the state may be partially mutated —
    /// reload it from the last checkpoint ([`resume`](Pipeline::resume)) or
    /// rebuild it with [`GraphState::new`] before retrying;
    /// [`try_run_with_retries`](Pipeline::try_run_with_retries) automates
    /// exactly that loop.
    pub fn try_run(
        &mut self,
        state: &mut GraphState<'_>,
        ctx: &ExecCtx,
    ) -> Result<Vec<StageReport>, PipelineError> {
        let total = Instant::now();
        for obs in self.observers.iter_mut() {
            obs.on_pipeline_start();
        }
        let mut rounds: FxHashMap<String, usize> = FxHashMap::default();
        let mut reports: Vec<StageReport> = Vec::new();
        let result = self.execute(state, ctx, 0, &mut rounds, true, &mut reports);
        let total = total.elapsed();
        for obs in self.observers.iter_mut() {
            obs.on_pipeline_end(total);
        }
        result.map(|()| reports)
    }

    /// Resumes from the latest snapshot under `dir`: validates that the
    /// snapshot was written by a pipeline with the same
    /// [`fingerprint`](Pipeline::fingerprint), the same worker count and the
    /// same read set, restores the [`GraphState`], fast-forwards to the
    /// recorded position (seeding the round counters so stage numbering
    /// continues seamlessly) and replays the remaining stages with
    /// [`try_run`](Pipeline::try_run) semantics.
    ///
    /// Returns the restored-and-completed state plus the reports of the
    /// *replayed* stages only. Checkpointing stays active during the replay
    /// when configured via [`checkpoint_to`](Pipeline::checkpoint_to).
    pub fn resume<'r>(
        &mut self,
        dir: impl AsRef<Path>,
        reads: &'r ReadSet,
        ctx: &ExecCtx,
    ) -> Result<(GraphState<'r>, Vec<StageReport>), PipelineError> {
        let (mut state, manifest) = checkpoint::load_latest(dir.as_ref(), reads)?;
        self.validate_manifest(&manifest, ctx)?;

        let total = Instant::now();
        for obs in self.observers.iter_mut() {
            obs.on_pipeline_start();
        }
        let mut rounds: FxHashMap<String, usize> = manifest.rounds.iter().cloned().collect();
        let mut reports: Vec<StageReport> = Vec::new();
        let result = self.execute(
            &mut state,
            ctx,
            manifest.completed_stages,
            &mut rounds,
            true,
            &mut reports,
        );
        let total = total.elapsed();
        for obs in self.observers.iter_mut() {
            obs.on_pipeline_end(total);
        }
        result.map(|()| (state, reports))
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

    /// The self-healing driver loop: runs the pipeline, and on a failed
    /// attempt rewinds to the latest checkpoint (or to a fresh
    /// [`GraphState`] when none was saved) and retries the failed stage,
    /// up to `max_attempts` total attempts. The error of the final attempt is
    /// returned when every attempt fails.
    ///
    /// Only transient failures are retried (see
    /// [`PipelineError::is_transient`]): stage panics and checkpoint I/O
    /// errors re-run after a short deterministic backoff, while malformed
    /// input and control-plane cancellations return immediately.
    ///
    /// On success the returned reports cover every flattened stage exactly
    /// once — reports from work a failed attempt lost are replaced by the
    /// retry's. Observers, however, see each boundary as it executes,
    /// including re-executions.
    // ppa_lint: allow(test-only-pub) the checkpointed, retrying way to run a pipeline
    pub fn try_run_with_retries<'r>(
        &mut self,
        state: &mut GraphState<'r>,
        ctx: &ExecCtx,
        max_attempts: usize,
    ) -> Result<Vec<StageReport>, PipelineError> {
        assert!(max_attempts >= 1, "max_attempts must be at least 1");
        let reads = state.reads;
        let total = Instant::now();
        for obs in self.observers.iter_mut() {
            obs.on_pipeline_start();
        }
        let mut rounds: FxHashMap<String, usize> = FxHashMap::default();
        let mut reports: Vec<StageReport> = Vec::new();
        let mut start_at = 0;
        let mut result = Ok(());
        for attempt in 1..=max_attempts {
            if attempt > 1 {
                // Deterministic bounded backoff before retrying a transient
                // failure: 5 ms doubling per attempt, capped at 80 ms. No
                // randomness, so retry schedules replay identically.
                std::thread::sleep(Duration::from_millis(5u64 << (attempt - 2).min(4)));
                // Rewind: the failed attempt may have left the state partially
                // mutated. Reports are truncated to the snapshot position so a
                // successful run still yields exactly one report per stage. A
                // failure while reloading (corrupt snapshot, foreign manifest)
                // aborts the retry loop — retrying cannot cure it.
                let rewind =
                    || -> Result<Option<(GraphState<'r>, checkpoint::Manifest)>, PipelineError> {
                        match &self.checkpoint {
                            Some((dir, _)) => match checkpoint::latest(dir)? {
                                Some(ckpt) => Ok(Some(checkpoint::load(&ckpt, reads)?)),
                                None => Ok(None),
                            },
                            None => Ok(None),
                        }
                    };
                let resumed = match rewind() {
                    Ok(resumed) => resumed,
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                };
                match resumed {
                    Some((loaded, manifest)) => {
                        if let Err(e) = self.validate_manifest(&manifest, ctx) {
                            result = Err(e);
                            break;
                        }
                        *state = loaded;
                        start_at = manifest.completed_stages;
                        rounds = manifest.rounds.into_iter().collect();
                        reports.truncate(manifest.completed_stages);
                    }
                    None => {
                        *state = GraphState::new(reads);
                        start_at = 0;
                        rounds.clear();
                        reports.clear();
                    }
                }
            }
            result = self.execute(state, ctx, start_at, &mut rounds, true, &mut reports);
            match &result {
                Ok(()) => break,
                // Fail fast on non-transient failures: malformed input and a
                // job that did not converge cannot be cured by re-running
                // them, and a cancellation is a deliberate stop that a retry
                // loop must honour.
                Err(e) if !e.is_transient() => break,
                Err(_) => {}
            }
        }
        let total = total.elapsed();
        for obs in self.observers.iter_mut() {
            obs.on_pipeline_end(total);
        }
        result.map(|()| reports)
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
        let reports = Pipeline::paper_workflow(&config).run(&mut state, &ExecCtx::new(2));
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
            .run(&mut state, &ExecCtx::new(2));
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
            .run(&mut state, &ExecCtx::new(2));
        assert_eq!(reports.len(), 4); // construct, label, merge, filter
        assert!(stats.corrections.is_empty());
        assert_eq!(stats.n50_after_round1, stats.n50_final);
    }

    #[test]
    #[should_panic(expected = "run RemoveTips before re-labeling")]
    fn relabeling_an_unrewired_graph_panics() {
        // Label after Merge without an intervening RemoveTips used to label
        // an empty node set and silently discard the assembly; now it panics
        // with guidance.
        let reads = reads(2_000, 0.0, 43);
        let config = small_config();
        let mut state = GraphState::new(&reads);
        Pipeline::new()
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
            .run(&mut state, &ExecCtx::new(2));
    }

    #[test]
    #[should_panic(expected = "requires a preceding Label stage")]
    fn merge_without_label_panics() {
        let reads = ReadSet::new();
        let mut state = GraphState::new(&reads);
        Pipeline::new()
            .then(Merge::new(MergeConfig::default()))
            .run(&mut state, &ExecCtx::new(1));
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
        let reports = pipeline.run(&mut state, &ExecCtx::new(2));
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
        let reads = reads(2_000, 0.0, 71);
        let config = small_config();
        let ctx = ExecCtx::new(2);
        let mut baseline = GraphState::new(&reads);
        let baseline_reports = Pipeline::paper_workflow(&config).run(&mut baseline, &ctx);
        let mut state = GraphState::new(&reads);
        let reports = Pipeline::paper_workflow(&config)
            .try_run(&mut state, &ctx)
            .expect("fault-free try_run succeeds");
        assert_eq!(state, baseline);
        assert_eq!(reports.len(), baseline_reports.len());
        for (a, b) in reports.iter().zip(&baseline_reports) {
            assert_eq!((a.stage.as_str(), a.round), (b.stage.as_str(), b.round));
        }
    }

    #[test]
    fn checkpoint_policy_off_writes_nothing() {
        let reads = reads(1_500, 0.0, 73);
        let config = small_config();
        let tmp = TmpDir::new("policy-off");
        let mut state = GraphState::new(&reads);
        Pipeline::paper_workflow(&config)
            .checkpoint_to(&tmp.0, CheckpointPolicy::Off)
            .run(&mut state, &ExecCtx::new(2));
        assert!(!state.output.is_empty());
        assert!(!tmp.0.exists(), "Off policy must not touch the directory");
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
        Pipeline::paper_workflow(&small_config()).run(&mut state, &ctx);
        assert!(!state.output.is_empty());
    }

    #[test]
    fn a_job_that_does_not_converge_is_a_typed_error_that_is_not_retried() {
        // What S-V labeling raises when its superstep budget runs out.
        struct Unconverged;
        #[derive(Default)]
        struct StageCounter(usize);
        impl PipelineObserver for StageCounter {
            fn on_stage_start(&mut self, _stage: &str) {
                self.0 += 1;
            }
        }
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
        let want = PipelineError::NotConverged {
            stage: "label".into(),
            round: 1,
            supersteps: 4_000,
        };
        let err = Pipeline::new()
            .then(Unconverged)
            .try_run(&mut state, &ctx)
            .unwrap_err();
        assert_eq!(err, want);
        assert!(!err.is_transient());
        assert_eq!(
            err.to_string(),
            "stage label (round 1) did not converge within 4000 supersteps"
        );
        let mut starts = StageCounter::default();
        let err = Pipeline::new()
            .then(Unconverged)
            .observe(&mut starts)
            .try_run_with_retries(&mut state, &ctx, 3)
            .unwrap_err();
        assert_eq!(err, want);
        assert_eq!(starts.0, 1, "a job that did not converge is not retried");
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
            .run(&mut baseline, &ctx);
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
            .run(&mut state, &ctx);
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

    #[test]
    fn retries_recover_from_an_injected_stage_fault() {
        let reads = reads(2_000, 0.0, 97);
        let config = small_config();
        let ctx = ExecCtx::new(2);
        let mut baseline = GraphState::new(&reads);
        Pipeline::paper_workflow(&config).run(&mut baseline, &ctx);

        let tmp = TmpDir::new("retry-stage-fault");
        let armed = ctx.inject_faults(ppa_pregel::FaultPlan::single(
            ppa_pregel::Fault::StageEntry { stage: 5 },
        ));
        let mut state = GraphState::new(&reads);
        let reports = Pipeline::paper_workflow(&config)
            .checkpoint_to(&tmp.0, CheckpointPolicy::EveryStage)
            .try_run_with_retries(&mut state, &ctx, 2)
            .expect("the retry after the injected crash succeeds");
        ctx.clear_faults();
        assert!(armed.all_fired(), "the injected fault fired");
        assert_eq!(reports.len(), 8, "one report per flattened stage");
        assert_eq!(state.output, baseline.output, "resumed output is identical");
    }

    #[test]
    fn retries_without_checkpoints_restart_from_scratch() {
        let reads = reads(1_500, 0.0, 101);
        let config = small_config();
        let ctx = ExecCtx::new(2);
        let mut baseline = GraphState::new(&reads);
        Pipeline::paper_workflow(&config).run(&mut baseline, &ctx);

        let armed = ctx.inject_faults(ppa_pregel::FaultPlan::single(
            ppa_pregel::Fault::StageEntry { stage: 3 },
        ));
        let mut state = GraphState::new(&reads);
        let reports = Pipeline::paper_workflow(&config)
            .try_run_with_retries(&mut state, &ctx, 2)
            .expect("the full restart succeeds");
        ctx.clear_faults();
        assert!(armed.all_fired());
        assert_eq!(reports.len(), 8);
        assert_eq!(state.output, baseline.output);
    }

    #[test]
    fn bounded_retries_return_the_last_error() {
        let reads = reads(1_500, 0.0, 103);
        let config = small_config();
        let ctx = ExecCtx::new(2);
        // Two faults, one attempt: the first fault is fatal.
        let _armed = ctx.inject_faults(
            ppa_pregel::FaultPlan::new()
                .with(ppa_pregel::Fault::StageEntry { stage: 2 })
                .with(ppa_pregel::Fault::StageEntry { stage: 2 }),
        );
        let mut state = GraphState::new(&reads);
        let err = Pipeline::paper_workflow(&config)
            .try_run_with_retries(&mut state, &ctx, 1)
            .unwrap_err();
        ctx.clear_faults();
        assert!(
            matches!(&err, PipelineError::Stage { stage, .. } if stage == "merge"),
            "got {err:?}"
        );
    }
}
