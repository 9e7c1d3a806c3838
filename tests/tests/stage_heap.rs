//! The whole-workflow heap ratchet: the paper workflow, run under a counting
//! allocator, stays under a per-stage bound on its live heap.
//!
//! A fixed simulated read set is written as FASTQ and read back through
//! `read_input_path`, as a run from a file is. The paper workflow then runs
//! on it with one correction round, for both labelings and on 1 and 2
//! workers. An observer restarts the allocator's high-water mark at every
//! stage start and reads it at the stage end, so each stage's reading is the
//! most heap that was live at once while it ran, counted from before the
//! reads were parsed: the reads are part of every reading, as they are of
//! the process's. Each stage is divided by the unit its memory grows with:
//!
//! * ① by the input bases and by the kept (k+1)-mers;
//! * ② and ③ of round 1 by the k-mer vertices;
//! * ④, ⑤, round 2's ② and ③ and the length filter by the nodes round 1
//!   leaves (contigs and ambiguous k-mers);
//! * the whole run, the parse included, by the input bases.
//!
//! [`BOUNDS`] holds about 10 % over the readings of the change that set
//! them. It is a ratchet: a change that lowers a stage tightens its bound in
//! the same diff, and one that raises a stage restates it with the reason.
//!
//! The read slab's `heap_bytes` is pinned here too: it is exact (what
//! dropping the slab frees), and the packed bases column costs at most
//! 0.26 bytes per base. So is what phase (i)'s count stacks on its scatter's
//! buffers, at 1 and 2 workers: its survivors (twice, as their vector
//! doubles) and a fixed term per worker, because the count table grows with
//! a bucket's distinct keys and the survivors are sorted only once the
//! buffers are freed.
//!
//! This file must stay a single-test binary: the counting allocator is
//! process-global, and a concurrently running test would pollute the count.

use ppa_assembler::ops::construct::{count_kplus1_mers_on, ConstructConfig};
use ppa_assembler::pipeline::{GraphState, Pipeline, PipelineObserver, StageDetails, StageReport};
use ppa_assembler::workflow::{read_input_path, AssemblyConfig, LabelingAlgorithm};
use ppa_pregel::{fold_buckets_on, ExecCtx, KeySink};
use ppa_readsim::{GenomeConfig, ReadSimConfig};
use ppa_seq::kmer::SuperKmerScanner;
use ppa_seq::ReadSet;
use ppa_tests::heap::{self, CountingAlloc};
use ppa_tests::TmpDir;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What a stage's heap reading is divided by.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Unit {
    /// Bases of the input reads.
    InputBase,
    /// (k+1)-mers construction kept.
    KeptKplus1Mer,
    /// k-mer vertices construction built.
    Vertex,
    /// Contigs and ambiguous k-mers round 1's merge left.
    Round1Node,
}

/// `(stage, round, unit, bound)`: the most live heap, in bytes per unit,
/// any of the four runs may reach during that stage. Round 0 is the whole
/// run.
const BOUNDS: [(&str, usize, Unit, f64); 10] = [
    ("construct", 1, Unit::InputBase, 8.4),
    ("construct", 1, Unit::KeptKplus1Mer, 230.0),
    ("label", 1, Unit::Vertex, 74.0),
    ("merge", 1, Unit::Vertex, 61.0),
    ("filter_bubbles", 1, Unit::Round1Node, 1545.0),
    ("remove_tips", 1, Unit::Round1Node, 1880.0),
    ("label", 2, Unit::Round1Node, 1680.0),
    ("merge", 2, Unit::Round1Node, 1585.0),
    ("filter_length", 1, Unit::Round1Node, 1435.0),
    ("run", 0, Unit::InputBase, 8.4),
];

/// One stage's high-water, in bytes over the run's starting point.
struct Reading {
    stage: String,
    round: usize,
    peak: u64,
}

/// Reads the high-water mark at every stage boundary.
struct StageHeap {
    /// Live bytes before the reads were parsed.
    base: u64,
    readings: Vec<Reading>,
    kept_kplus1_mers: u64,
    vertices: u64,
    round1_nodes: u64,
}

impl PipelineObserver for StageHeap {
    fn on_stage_start(&mut self, _stage: &str) {
        heap::reset_peak();
    }

    fn on_stage_end(&mut self, report: &StageReport) {
        let peak = heap::peak_bytes() - self.base;
        match &report.details {
            StageDetails::Construct(stats) => {
                self.kept_kplus1_mers = stats.kept_kplus1_mers;
                self.vertices = stats.vertices;
            }
            StageDetails::Merge { nodes_after, .. } if report.round == 1 => {
                self.round1_nodes = *nodes_after as u64;
            }
            _ => {}
        }
        self.readings.push(Reading {
            stage: report.stage.clone(),
            round: report.round,
            peak,
        });
    }
}

/// 30x 1 %-error reads of a simulated 40 kb genome, with a few `N`s.
fn simulated_reads() -> ReadSet {
    let genome = GenomeConfig {
        length: 40_000,
        seed: 5,
        ..Default::default()
    }
    .generate();
    ReadSimConfig {
        read_length: 100,
        coverage: 30.0,
        substitution_rate: 0.01,
        indel_rate: 0.0,
        n_rate: 0.0005,
        both_strands: true,
        seed: 6,
    }
    .simulate(&genome)
}

/// The paper workflow on the reads in `fastq`: every stage's reading and
/// the whole run's, in bytes per unit.
fn run(
    fastq: &std::path::Path,
    labeling: LabelingAlgorithm,
    workers: usize,
) -> Vec<(String, usize, Unit, f64)> {
    let ctx = ExecCtx::new(workers);
    let config = AssemblyConfig {
        workers,
        labeling,
        error_correction_rounds: 1,
        ..AssemblyConfig::default()
    };
    let base = heap::live_bytes();
    heap::reset_peak();
    let reads = read_input_path(fastq).unwrap();
    let parse_peak = heap::peak_bytes() - base;
    let input_bases = reads.total_bases() as f64;
    let mut observer = StageHeap {
        base,
        readings: Vec::new(),
        kept_kplus1_mers: 0,
        vertices: 0,
        round1_nodes: 0,
    };
    let mut state = GraphState::new(&reads);
    Pipeline::paper_workflow(&config)
        .observe(&mut observer)
        .try_run(&mut state, &ctx)
        .unwrap();
    assert!(!state.output.is_empty());
    let per = |unit: Unit| match unit {
        Unit::InputBase => input_bases,
        Unit::KeptKplus1Mer => observer.kept_kplus1_mers as f64,
        Unit::Vertex => observer.vertices as f64,
        Unit::Round1Node => observer.round1_nodes as f64,
    };
    let whole = observer
        .readings
        .iter()
        .map(|r| r.peak)
        .fold(parse_peak, u64::max);
    let mut out: Vec<(String, usize, Unit, f64)> = BOUNDS
        .iter()
        .filter(|&&(_, round, _, _)| round > 0)
        .map(|&(stage, round, unit, _)| {
            let reading = observer
                .readings
                .iter()
                .find(|r| r.stage == stage && r.round == round)
                .unwrap_or_else(|| panic!("no reading for {stage} round {round}"));
            (
                stage.to_string(),
                round,
                unit,
                reading.peak as f64 / per(unit),
            )
        })
        .collect();
    out.push((
        "run".into(),
        0,
        Unit::InputBase,
        whole as f64 / per(Unit::InputBase),
    ));
    out
}

/// What phase (i)'s count may stack on its scatter, per fold worker: the
/// count table and the fold's scratch.
const COUNT_OVER_SCATTER_PER_WORKER: u64 = 256 << 10;

/// Phase (i) on `workers` workers over the reads in `fastq`: the live-heap
/// high-water, over what was live at its start, of a keyed pass with phase
/// (i)'s scan and a fold that does nothing — what the scatter holds — and of
/// the count itself, and the bytes of the survivors the count returns.
fn phase1_heap(fastq: &std::path::Path, workers: usize) -> (u64, u64, u64) {
    let reads = read_input_path(fastq).unwrap();
    let ctx = ExecCtx::new(workers);
    let config = ConstructConfig::default();
    let k = config.k;
    let scanner = SuperKmerScanner::new(k + 1).unwrap();
    let batches: Vec<_> = reads.records.chunk_ranges(config.batch_size).collect();
    let base = heap::live_bytes();
    heap::reset_peak();
    fold_buckets_on(
        &ctx,
        &batches,
        |batch| {
            let batch = reads.records.range(batch.clone());
            batch.map(|r| r.len().saturating_sub(k)).sum()
        },
        |batch, sink: &mut KeySink<1>| {
            for read in reads.records.range(batch.clone()) {
                let start = read.start();
                scanner.scan_codes(read.codes(), |sk| {
                    sink.push(sk.minimizer_hash(), [sk.reference(start)]);
                });
            }
        },
        scanner.max_windows() as u32,
        |_| (),
    );
    let scatter = heap::peak_bytes() - base;
    let base = heap::live_bytes();
    heap::reset_peak();
    let (kept, _) = count_kplus1_mers_on(&ctx, &reads, &config);
    let count = heap::peak_bytes() - base;
    (scatter, count, std::mem::size_of_val(&kept[..]) as u64)
}

#[test]
fn every_stage_of_the_paper_workflow_stays_under_its_heap_bound() {
    let tmp = TmpDir::new("stage-heap");
    std::fs::create_dir_all(&tmp.0).unwrap();
    let fastq = tmp.0.join("reads.fastq");
    let reads = simulated_reads();
    let mut file = std::io::BufWriter::new(std::fs::File::create(&fastq).unwrap());
    reads.write_fastq(&mut file).unwrap();
    drop(file);

    // The slab: `heap_bytes` is what dropping it frees, and the packed
    // bases take a quarter byte per base.
    let bases = reads.total_bases() as f64;
    let (reported, words) = (
        reads.records.heap_bytes() as u64,
        reads.records.words().len(),
    );
    let held = heap::live_bytes();
    drop(reads);
    assert_eq!(held - heap::live_bytes(), reported, "heap_bytes is exact");
    let per_base = (8 * words) as f64 / bases;
    assert!(
        per_base <= 0.26,
        "the bases column holds {per_base:.3} bytes per base"
    );

    let mut failures = Vec::new();
    for labeling in [
        LabelingAlgorithm::ListRanking,
        LabelingAlgorithm::SimplifiedSV,
    ] {
        for workers in [1, 2] {
            let readings = run(&fastq, labeling, workers);
            for ((stage, round, unit, reading), &(_, _, _, bound)) in readings.iter().zip(&BOUNDS) {
                eprintln!(
                    "{labeling:?} {workers}w: {stage} round {round}: {reading:.2} B per {unit:?} (bound {bound})"
                );
                if *reading > bound {
                    failures.push(format!(
                        "{labeling:?} on {workers} workers: {stage} round {round} peaked at \
                         {reading:.2} bytes per {unit:?}, over its bound {bound}"
                    ));
                }
            }
        }
    }

    // Phase (i)'s count stacks only its survivors — twice, as the vector
    // doubles — and a fixed term per worker on its scatter's buffers: the
    // table grows with a bucket's distinct keys, and the survivors are sorted
    // once the buffers are freed.
    for workers in [1, 2] {
        let (scatter, count, survivors) = phase1_heap(&fastq, workers);
        let over = count.saturating_sub(scatter + 2 * survivors);
        eprintln!(
            "phase (i) {workers}w: scatter {scatter} B, count {count} B, survivors {survivors} B: \
             {over} B over"
        );
        if over > COUNT_OVER_SCATTER_PER_WORKER * workers as u64 {
            failures.push(format!(
                "phase (i) on {workers} workers peaked {over} bytes over its scatter and twice \
                 its survivors, over the {} allowed per worker",
                COUNT_OVER_SCATTER_PER_WORKER
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
