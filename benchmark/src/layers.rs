//! Per-layer attribution, measured from outside the program.
//!
//! A **traced run** is a run in which the harness opens a span around every
//! call into a layer (read, each pipeline stage through a
//! [`PipelineObserver`], write) and takes counts at the same boundaries
//! (`StageReport.details`, `WorkerPool::busy_nanos` deltas). Traced and
//! untraced runs alternate, so the tracing overhead is the difference of two
//! medians taken under the same machine state. **Probes** then time single
//! layers on the workload's real data through their public entry points.
//! End-to-end metrics never come from here.

use crate::child::{peak_store_bytes, spill_totals, write_contigs, Bench, ChildArgs, Gate, Run};
use crate::stats::median;
use crate::trace::Tracer;
use ppa_assembler::ops::construct::{build_dbg_on, ConstructConfig};
use ppa_assembler::ops::label::label_contigs_lr_on;
use ppa_assembler::ops::label_sv::label_contigs_sv_on;
use ppa_assembler::stats::WorkflowStats;
use ppa_assembler::{
    read_input_path, Assembly, GraphState, LabelingAlgorithm, Pipeline, PipelineObserver,
    StageDetails, StageReport,
};
use ppa_pregel::{radix, VertexSet, WorkerPool};
use ppa_seq::kmer::CanonicalScanner;
use ppa_seq::{Base, ReadSet};
use std::hint::black_box;
use std::time::Instant;

/// Keys the radix probe sorts at most: enough to leave every cache, small
/// enough that the probe stays a fraction of a run.
const RADIX_PROBE_KEYS: usize = 1 << 22;

type Metrics = Vec<(&'static str, f64)>;

/// Opens a span per pipeline stage and records the pool's busy time across
/// it.
struct StageSpans<'a> {
    tracer: &'a mut Tracer,
    pool: &'a WorkerPool,
    busy_at_start: u64,
    /// `(span index, pool busy nanoseconds during the stage)`, one per
    /// completed stage, in the order of the pipeline's reports.
    stages: Vec<(usize, u64)>,
}

impl PipelineObserver for StageSpans<'_> {
    fn on_stage_start(&mut self, stage: &str) {
        self.busy_at_start = self.pool.busy_nanos();
        self.tracer.begin(stage);
    }

    fn on_stage_end(&mut self, _report: &StageReport) {
        let span = self.tracer.end();
        self.stages
            .push((span, self.pool.busy_nanos() - self.busy_at_start));
    }
}

/// One traced run: the same reads file → contigs file path as
/// [`Bench::run`], with `workflow::assemble`'s pipeline built here so the
/// span observer can ride along.
fn traced_run(bench: &Bench, tracer: &mut Tracer) -> Result<(Run, Metrics), String> {
    let pool = bench.ctx.pool();
    let workers = pool.workers() as f64;
    let busy_before = pool.busy_nanos();
    let root = tracer.begin("run");

    let reads = tracer
        .span("seq.read", || read_input_path(&bench.dataset.fastq))
        .map_err(|e| e.to_string())?;
    bench.ctx.set_spill(bench.config.spill);
    let mut stats = WorkflowStats::default();
    let mut state = GraphState::new(&reads);
    let mut observer = StageSpans {
        tracer: &mut *tracer,
        pool,
        busy_at_start: 0,
        stages: Vec::new(),
    };
    let reports = Pipeline::paper_workflow(&bench.config)
        .observe(&mut stats)
        .observe(&mut observer)
        .try_run(&mut state, &bench.ctx)
        .map_err(|e| e.to_string())?;
    let stages = observer.stages;
    // Stages of the correction rounds get a `#round` suffix, so round 1's
    // `label` and `merge` stay addressable by their plain names.
    for (report, (span, _)) in reports.iter().zip(&stages) {
        if report.round > 1 {
            tracer.spans[*span].name = format!("{}#{}", report.stage, report.round);
        }
    }
    let assembly = Assembly {
        contigs: state.output,
        stats,
    };
    tracer.span("seq.write", || {
        write_contigs(&assembly, &bench.contigs_path)
    })?;
    tracer.end();
    let busy_s = (pool.busy_nanos() - busy_before) as f64 / 1e9;

    // ---- counts and times at the stage boundaries -------------------------
    let run_s = tracer.spans[root].seconds();
    let self_s = tracer.self_seconds(root);
    let read_s = tracer.seconds_of("seq.read");
    let stage_s = |name: &str| tracer.seconds_of(name);
    let utilization = |name: &str| {
        let (seconds, busy) = stages
            .iter()
            .filter(|(span, _)| tracer.spans[*span].name == name)
            .fold((0.0, 0.0), |(s, b), (span, busy)| {
                (s + tracer.spans[*span].seconds(), b + *busy as f64 / 1e9)
            });
        busy / (workers * seconds)
    };
    let mbases = bench.dataset.bases as f64 / 1e6;
    let stats = &assembly.stats;
    let construct = &stats.construct;
    let label = &stats.label_round1;
    let merge = &stats.merge_round1;
    let (construct_s, label_s, merge_s) =
        (stage_s("construct"), stage_s("label"), stage_s("merge"));
    // Everything after the first merge except the final length filter:
    // ④ ⑤ and the round-2 relabel and remerge.
    let correct_s: f64 = reports
        .iter()
        .zip(&stages)
        .filter(|(report, _)| {
            report.round > 1 || matches!(report.stage.as_str(), "filter_bubbles" | "remove_tips")
        })
        .map(|(_, (span, _))| tracer.spans[*span].seconds())
        .sum();
    let (mut bubbles_pruned, mut tips_deleted) = (0usize, 0usize);
    for report in &reports {
        match &report.details {
            StageDetails::Bubbles { pruned, .. } => bubbles_pruned += pruned,
            StageDetails::Tips {
                deleted_kmers,
                deleted_contigs,
                ..
            } => tips_deleted += deleted_kmers + deleted_contigs,
            _ => {}
        }
    }
    let spilled = spill_totals(stats);
    let store_peak = peak_store_bytes(stats) as f64;

    let metrics = vec![
        ("pipeline.run_s", run_s),
        ("pipeline.self_s", self_s),
        ("pipeline.attributed_share", 1.0 - self_s / run_s),
        ("seq.read_s", read_s),
        ("seq.read_mbases_per_s", mbases / read_s),
        ("seq.write_s", tracer.seconds_of("seq.write")),
        ("construct.s", construct_s),
        ("construct.share", construct_s / run_s),
        ("construct.count_s", construct.phase1.elapsed.as_secs_f64()),
        ("construct.build_s", construct.phase2.elapsed.as_secs_f64()),
        (
            "construct.pairs_shuffled",
            (construct.phase1.pairs_shuffled + construct.phase2.pairs_shuffled) as f64,
        ),
        (
            "construct.distinct_kmers",
            construct.distinct_kplus1_mers as f64,
        ),
        (
            "construct.kept_share",
            construct.kept_kplus1_mers as f64 / construct.distinct_kplus1_mers as f64,
        ),
        ("construct.mbases_per_s", mbases / construct_s),
        ("label.s", label_s),
        ("label.share", label_s / run_s),
        ("label.supersteps", label.supersteps as f64),
        ("label.messages", label.messages as f64),
        ("label.mmsgs_per_s", label.messages as f64 / 1e6 / label_s),
        ("label.frontier_density", label.avg_frontier_density),
        ("engine.busy_s", busy_s),
        ("engine.utilization", busy_s / (workers * run_s)),
        ("engine.construct_utilization", utilization("construct")),
        ("engine.label_utilization", utilization("label")),
        ("engine.merge_utilization", utilization("merge")),
        ("merge.s", merge_s),
        ("merge.share", merge_s / run_s),
        ("merge.mapreduce_s", merge.mapreduce.elapsed.as_secs_f64()),
        ("merge.groups", merge.groups as f64),
        ("merge.contigs", merge.contigs as f64),
        ("correct.s", correct_s),
        ("correct.bubbles_pruned", bubbles_pruned as f64),
        ("correct.tips_deleted", tips_deleted as f64),
        ("vertex_set.peak_store_mb", store_peak / 1e6),
        (
            "vertex_set.store_bytes_per_vertex",
            label.peak_store_resident_bytes as f64 / construct.vertices as f64,
        ),
        ("spill.written_mb", spilled.written as f64 / 1e6),
        ("spill.read_mb", spilled.read as f64 / 1e6),
        ("spill.runs", spilled.runs as f64),
    ];
    let run = Run {
        seconds: run_s,
        fingerprint: crate::child::fingerprint_file(&bench.contigs_path)?,
        assembly,
    };
    Ok((run, metrics))
}

/// The canonical (k+1)-mer scan the counting phase cannot go below: every
/// ACGT segment of every read through the rolling scanner, on one thread.
/// Returns the number of windows and the first [`RADIX_PROBE_KEYS`] packed
/// keys.
fn scan_reads(reads: &ReadSet, k: usize) -> (u64, Vec<u64>) {
    let mut scanner = CanonicalScanner::new(k + 1).expect("k + 1 = 32 is a valid window");
    let mut keys = Vec::with_capacity(RADIX_PROBE_KEYS);
    let (mut windows, mut checksum) = (0u64, 0u64);
    for read in &reads.records {
        for segment in read.acgt_segments() {
            scanner.reset();
            for &c in segment {
                let base = Base::from_ascii_checked(c).expect("segment is ACGT-only");
                if let Some(canonical) = scanner.push(base) {
                    let packed = canonical.kmer.packed();
                    windows += 1;
                    checksum ^= packed;
                    if keys.len() < RADIX_PROBE_KEYS {
                        keys.push(packed);
                    }
                }
            }
        }
    }
    black_box(checksum);
    (windows, keys)
}

/// Times single layers on the workload's data, each call in a span.
fn probes(bench: &Bench, tracer: &mut Tracer) -> Result<Metrics, String> {
    tracer.begin("probes");
    let reads = read_input_path(&bench.dataset.fastq).map_err(|e| e.to_string())?;
    let k = bench.config.k;

    // ppa_seq: the scan floor under construct's counting phase.
    let ((windows, keys), scan_s) = tracer.timed("probe.seq.scan", || scan_reads(&reads, k));

    // pregel::radix on real packed (k+1)-mers, as the shuffle presort sees
    // them: (key, count) records.
    let mut records: Vec<(u64, u32)> = keys.into_iter().map(|key| (key, 1)).collect();
    let sorted_keys = records.len() as f64;
    let mut scratch = Vec::new();
    let ((), sort_s) = tracer.timed("probe.radix.sort_pairs", || {
        radix::sort_pairs(&mut records, &mut scratch)
    });
    if !records.windows(2).all(|w| w[0].0 <= w[1].0) {
        return Err("radix probe: output is not sorted".to_string());
    }
    drop((records, scratch));

    // The DBG the runner and store probes work on.
    let dbg = tracer.span("probe.construct.build_dbg", || {
        build_dbg_on(
            &bench.ctx,
            &reads,
            &ConstructConfig {
                k,
                min_coverage: bench.config.min_kmer_coverage,
                batch_size: 1024,
            },
        )
    });
    drop(reads);

    // pregel::vertex_set: bulk-building the store over the DBG's vertex IDs.
    let ids: Vec<u64> = dbg.vertices.iter().map(|v| v.id()).collect();
    let (set, build_s) = tracer.timed("probe.vertex_set.from_pairs", || {
        VertexSet::from_pairs(bench.ctx.workers(), ids.into_iter().map(|id| (id, 0u64)))
    });
    drop(black_box(set));

    // pregel::runner through the labeling job on those vertices.
    let nodes = dbg.into_nodes();
    let (labeled, job_s) = tracer.timed("probe.runner.label", || match bench.config.labeling {
        LabelingAlgorithm::ListRanking => label_contigs_lr_on(&bench.ctx, &nodes),
        LabelingAlgorithm::SimplifiedSV => label_contigs_sv_on(&bench.ctx, &nodes),
    });
    tracer.end();

    let steps = &labeled.metrics.per_superstep;
    let phase_s = |f: fn(&ppa_pregel::SuperstepMetrics) -> std::time::Duration| -> f64 {
        steps.iter().map(|s| f(s).as_secs_f64()).sum()
    };
    let compute_s = phase_s(|s| s.compute_elapsed);
    let shuffle_s = phase_s(|s| s.shuffle_elapsed);
    let weighted_utilization: f64 = steps
        .iter()
        .map(|s| s.pool_utilization * (s.compute_elapsed + s.shuffle_elapsed).as_secs_f64())
        .sum();
    let step_ms: Vec<f64> = steps
        .iter()
        .map(|s| s.elapsed.as_secs_f64() * 1e3)
        .collect();
    let mean_compression =
        steps.iter().map(|s| s.id_column_compression).sum::<f64>() / steps.len().max(1) as f64;

    Ok(vec![
        ("seq.scan_s", scan_s),
        ("seq.scan_mkmers_per_s", windows as f64 / 1e6 / scan_s),
        ("radix.sort_s", sort_s),
        ("radix.mkeys_per_s", sorted_keys / 1e6 / sort_s),
        ("vertex_set.build_s", build_s),
        ("vertex_set.id_compression", mean_compression),
        ("label.dropped_msgs", labeled.metrics.total_dropped as f64),
        ("runner.compute_s", compute_s),
        ("runner.shuffle_s", shuffle_s),
        ("runner.other_s", job_s - compute_s - shuffle_s),
        (
            "runner.pool_utilization",
            weighted_utilization / (compute_s + shuffle_s),
        ),
        ("runner.superstep_p50_ms", median(&step_ms).unwrap_or(0.0)),
        (
            "runner.superstep_max_ms",
            step_ms.iter().copied().fold(0.0, f64::max),
        ),
    ])
}

/// The traced mode of one invocation: alternating untraced / traced runs for
/// the measuring period, then the probes; writes the last traced run and the
/// probes as a Chrome trace. Returns every per-layer metric but the gate's.
pub fn measure(
    args: &ChildArgs,
    bench: &Bench,
    gate: &mut Gate,
    twin: Option<&Run>,
) -> Result<Metrics, String> {
    let trace_id = format!("{}#{}", bench.workload.name, args.seed);
    let mut tracer = Tracer::new(&trace_id);
    let mut untraced_s = Vec::new();
    let mut overhead_pct = Vec::new();
    let mut samples: Vec<Metrics> = Vec::new();
    let start = Instant::now();
    let mut pairs = 0;
    while pairs < args.reps || start.elapsed().as_secs_f64() < args.seconds {
        // Alternate which of the pair goes first, so that neither kind
        // always runs in the other's wake.
        let order = if pairs % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        let (mut plain_s, mut traced_s) = (None, None);
        for traced in order {
            if traced {
                tracer = Tracer::new(&trace_id);
                let (run, metrics) = match traced_run(bench, &mut tracer) {
                    Ok((run, metrics)) => (Ok(run), metrics),
                    Err(e) => (Err(e), Vec::new()),
                };
                if let Some(run) = gate.admit(bench, run) {
                    traced_s = Some(run.seconds);
                    samples.push(metrics);
                }
            } else if let Some(run) = gate.admit(bench, bench.run()) {
                plain_s = Some(run.seconds);
                untraced_s.push(run.seconds);
            }
        }
        if let (Some(plain), Some(traced)) = (plain_s, traced_s) {
            overhead_pct.push((traced - plain) / plain * 100.0);
        }
        pairs += 1;
    }

    // Median per metric over the traced runs (counts repeat exactly, so
    // their median is their value).
    let first = samples
        .first()
        .ok_or("no traced run completed, nothing to attribute")?;
    let mut metrics: Metrics = first
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            let values: Vec<f64> = samples.iter().map(|sample| sample[i].1).collect();
            (*name, median(&values).expect("at least one sample"))
        })
        .collect();
    let value = |metrics: &Metrics, name: &str| {
        metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .expect("metric was just computed")
    };

    // Tracing overhead: the median over pairs of a traced run against the
    // untraced run next to it, so slow drifts of the machine cancel.
    let assemble_s = median(&untraced_s).ok_or("no untraced run completed")?;
    metrics.push((
        "trace.overhead_pct",
        median(&overhead_pct).ok_or("no complete pair of runs")?,
    ));

    // pregel::spill, against the resident twin of the same reads. All zero
    // on a resident workload (the gate has already checked its counters).
    let (write_amp, cap_share, slowdown) = match (bench.workload.spill_cap(bench.scale), twin) {
        (Some(cap), Some(resident)) => (
            value(&metrics, "spill.written_mb") * 1e6
                / peak_store_bytes(&resident.assembly.stats) as f64,
            value(&metrics, "vertex_set.peak_store_mb") * 1e6 / cap as f64,
            assemble_s / resident.seconds,
        ),
        _ => (0.0, 0.0, 0.0),
    };
    metrics.push(("spill.write_amp", write_amp));
    metrics.push(("spill.store_cap_share", cap_share));
    metrics.push(("spill.slowdown", slowdown));

    let probed = probes(bench, &mut tracer)?;
    let dropped = value(&probed, "label.dropped_msgs");
    gate.settle(
        (dropped != 0.0)
            .then(|| format!("labeling dropped {dropped} messages"))
            .into_iter()
            .collect(),
    );
    metrics.extend(probed);

    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let path = args
        .out_dir
        .join(format!("trace-{}.json", bench.workload.name));
    std::fs::write(&path, tracer.to_chrome_trace().to_line())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(metrics)
}
