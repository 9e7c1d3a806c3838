//! Cross-crate tests for the composable pipeline API (PR 3).
//!
//! * **Golden equivalence** — `workflow::assemble` (now a thin wrapper) must
//!   produce byte-identical contigs to a hand-built
//!   `Pipeline::paper_workflow` run on the seed scenarios, with the same
//!   observer-collected statistics.
//! * **Observer protocol** — stage names, start/end pairing, round
//!   numbering, and non-zero, monotone stage timings.

use ppa_assembler::ops::{BubbleConfig, ConstructConfig, MergeConfig, TipConfig};
use ppa_assembler::pipeline::{
    Construct, FilterBubbles, FilterLength, GraphState, Label, Merge, Pipeline, PipelineObserver,
    RemoveTips, StageReport,
};
use ppa_assembler::stats::WorkflowStats;
use ppa_assembler::{assemble, AssemblyConfig, LabelingAlgorithm};
use ppa_pregel::ExecCtx;
use ppa_readsim::{GenomeConfig, ReadSimConfig};
use ppa_seq::ReadSet;
use ppa_tests::fingerprint;
use std::time::Duration;

fn simulate(length: usize, coverage: f64, error: f64, seed: u64) -> ReadSet {
    let reference = GenomeConfig {
        length,
        repeat_families: 2,
        repeat_copies: 2,
        repeat_length: 100,
        seed,
        ..Default::default()
    }
    .generate();
    ReadSimConfig {
        read_length: 100,
        coverage,
        substitution_rate: error,
        indel_rate: 0.0,
        n_rate: 0.0,
        both_strands: true,
        seed: seed + 1,
    }
    .simulate(&reference)
}

/// The seed scenarios the workflow tests exercise: error-free, noisy with θ
/// filtering, and zero correction rounds.
fn seed_scenarios() -> Vec<(ReadSet, AssemblyConfig)> {
    let base = AssemblyConfig {
        k: 21,
        min_kmer_coverage: 0,
        tip_length_threshold: 80,
        bubble_edit_distance: 5,
        workers: 3,
        labeling: LabelingAlgorithm::ListRanking,
        error_correction_rounds: 1,
        min_contig_length: 0,
        spill: ppa_pregel::SpillPolicy::Off,
        exec: None,
    };
    vec![
        (simulate(3_000, 25.0, 0.0, 11), base.clone()),
        (
            simulate(4_000, 30.0, 0.005, 23),
            AssemblyConfig {
                min_kmer_coverage: 1,
                ..base.clone()
            },
        ),
        (
            simulate(2_500, 20.0, 0.002, 31),
            AssemblyConfig {
                min_kmer_coverage: 1,
                labeling: LabelingAlgorithm::SimplifiedSV,
                ..base.clone()
            },
        ),
        (
            simulate(2_000, 20.0, 0.0, 41),
            AssemblyConfig {
                error_correction_rounds: 0,
                ..base
            },
        ),
    ]
}

#[test]
fn assemble_is_byte_identical_to_hand_built_paper_workflow() {
    for (i, (reads, config)) in seed_scenarios().into_iter().enumerate() {
        let via_assemble = assemble(&reads, &config);

        let mut stats = WorkflowStats::default();
        let mut state = GraphState::new(&reads);
        Pipeline::paper_workflow(&config)
            .observe(&mut stats)
            .try_run(&mut state, &ExecCtx::new(config.workers))
            .unwrap();

        assert!(
            !via_assemble.contigs.is_empty(),
            "scenario {i} must assemble"
        );
        assert_eq!(
            fingerprint(&via_assemble.contigs),
            fingerprint(&state.output),
            "scenario {i}: assemble() and the hand-built paper workflow must \
             produce byte-identical contigs"
        );

        // The observer-collected statistics must agree on every
        // non-wall-clock quantity.
        let a = &via_assemble.stats;
        assert_eq!(a.construct.vertices, stats.construct.vertices);
        assert_eq!(a.node_counts, stats.node_counts);
        assert_eq!(a.n50_after_round1, stats.n50_after_round1);
        assert_eq!(a.n50_final, stats.n50_final);
        assert_eq!(a.label_round1.supersteps, stats.label_round1.supersteps);
        assert_eq!(a.label_round1.messages, stats.label_round1.messages);
        assert_eq!(a.merge_round1.groups, stats.merge_round1.groups);
        assert_eq!(a.merge_round1.contigs, stats.merge_round1.contigs);
        assert_eq!(a.corrections.len(), stats.corrections.len());
        for (x, y) in a.corrections.iter().zip(&stats.corrections) {
            assert_eq!(x.bubbles_pruned, y.bubbles_pruned);
            assert_eq!(x.bubble_groups, y.bubble_groups);
            assert_eq!(x.tip_kmers_deleted, y.tip_kmers_deleted);
            assert_eq!(x.tip_contigs_deleted, y.tip_contigs_deleted);
        }
        assert_eq!(a.label_round2.len(), stats.label_round2.len());
        assert_eq!(a.merge_round2.len(), stats.merge_round2.len());
        assert_eq!(
            a.timings
                .iter()
                .map(|t| t.stage.clone())
                .collect::<Vec<_>>(),
            stats
                .timings
                .iter()
                .map(|t| t.stage.clone())
                .collect::<Vec<_>>(),
            "scenario {i}: the observer must record the same stage sequence"
        );
    }
}

#[test]
fn explicit_stage_list_matches_the_preset() {
    // Spelling the paper workflow out stage by stage must equal the preset.
    let reads = simulate(3_000, 25.0, 0.004, 53);
    let config = AssemblyConfig {
        k: 21,
        min_kmer_coverage: 1,
        workers: 2,
        ..Default::default()
    };
    let merge = MergeConfig {
        k: config.k,
        tip_length_threshold: config.tip_length_threshold,
    };
    let mut by_hand = Pipeline::new()
        .then(Construct::new(ConstructConfig {
            k: config.k,
            min_coverage: config.min_kmer_coverage,
            batch_size: 1024,
        }))
        .then(Label::list_ranking())
        .then(Merge::new(merge.clone()))
        .then(FilterBubbles::new(BubbleConfig {
            max_edit_distance: config.bubble_edit_distance,
        }))
        .then(RemoveTips::new(TipConfig {
            k: config.k,
            tip_length_threshold: config.tip_length_threshold,
        }))
        .then(Label::list_ranking())
        .then(Merge::new(merge))
        .then(FilterLength::new(0));
    let mut state_hand = GraphState::new(&reads);
    by_hand
        .try_run(&mut state_hand, &ExecCtx::new(config.workers))
        .unwrap();

    let mut preset = Pipeline::paper_workflow(&config);
    let mut state_preset = GraphState::new(&reads);
    preset
        .try_run(&mut state_preset, &ExecCtx::new(config.workers))
        .unwrap();

    assert!(!state_preset.output.is_empty());
    assert_eq!(
        fingerprint(&state_hand.output),
        fingerprint(&state_preset.output)
    );
}

/// Records the raw observer event stream.
#[derive(Default)]
struct Recorder {
    events: Vec<String>,
    reports: Vec<StageReport>,
    pipeline_started: usize,
    pipeline_total: Option<Duration>,
}

impl PipelineObserver for Recorder {
    fn on_pipeline_start(&mut self) {
        self.pipeline_started += 1;
        self.events.push("pipeline_start".into());
    }
    fn on_stage_start(&mut self, stage: &str) {
        self.events.push(format!("start:{stage}"));
    }
    fn on_stage_end(&mut self, report: &StageReport) {
        self.events.push(format!("end:{}", report.stage));
        self.reports.push(report.clone());
    }
    fn on_pipeline_end(&mut self, total: Duration) {
        self.pipeline_total = Some(total);
        self.events.push("pipeline_end".into());
    }
}

#[test]
fn observer_protocol_pairs_stages_and_times_them() {
    let reads = simulate(3_000, 25.0, 0.004, 61);
    let config = AssemblyConfig {
        k: 21,
        min_kmer_coverage: 1,
        workers: 2,
        ..Default::default()
    };
    let mut recorder = Recorder::default();
    let mut pipeline = Pipeline::paper_workflow(&config).observe(&mut recorder);
    let mut state = GraphState::new(&reads);
    let reports = pipeline
        .try_run(&mut state, &ExecCtx::new(config.workers))
        .unwrap();

    // Stage names of the paper workflow, in order.
    let expected = [
        "construct",
        "label",
        "merge",
        "filter_bubbles",
        "remove_tips",
        "label",
        "merge",
        "filter_length",
    ];
    let names: Vec<&str> = reports.iter().map(|r| r.stage.as_str()).collect();
    assert_eq!(names, expected);

    // Event stream: pipeline_start, then strictly alternating start/end
    // pairs in stage order, then pipeline_end.
    assert_eq!(recorder.pipeline_started, 1);
    assert_eq!(
        recorder.events.first().map(String::as_str),
        Some("pipeline_start")
    );
    assert_eq!(
        recorder.events.last().map(String::as_str),
        Some("pipeline_end")
    );
    let inner = &recorder.events[1..recorder.events.len() - 1];
    assert_eq!(inner.len(), 2 * expected.len());
    for (i, stage) in expected.iter().enumerate() {
        assert_eq!(inner[2 * i], format!("start:{stage}"), "event {i}");
        assert_eq!(inner[2 * i + 1], format!("end:{stage}"), "event {i}");
    }

    // Round numbering: occurrences of the same stage name count up.
    let rounds: Vec<usize> = reports.iter().map(|r| r.round).collect();
    assert_eq!(rounds, [1, 1, 1, 1, 1, 2, 2, 1]);

    // Timings: every stage non-zero, and their sum does not exceed the
    // pipeline total (monotone accumulation).
    let mut acc = Duration::ZERO;
    for report in &recorder.reports {
        assert!(
            report.elapsed > Duration::ZERO,
            "stage {} must report a non-zero timing",
            report.stage
        );
        acc += report.elapsed;
    }
    let total = recorder.pipeline_total.expect("pipeline_end delivered");
    assert!(
        acc <= total,
        "stage timings ({acc:?}) must accumulate within the total ({total:?})"
    );
    assert!(!state.output.is_empty());
}
