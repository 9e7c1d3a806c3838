//! One workload in one process: set-up, timed runs, the correctness gate and
//! verification. (`layers.rs` adds the traced runs and the probes.)
//!
//! A **run** is what a user of an assembler pays for: reads file in, contigs
//! file out — `read_input_path` → `try_assemble` → `to_fasta().write_fasta`.

use crate::json::Json;
use crate::layers;
use crate::spec;
use crate::stats::median;
use crate::workload::{generate, Dataset, Twin, Workload};
use ppa_assembler::checkpoint::{fnv1a, Fnv64};
use ppa_assembler::stats::WorkflowStats;
use ppa_assembler::{read_input_path, try_assemble, Assembly, AssemblyConfig};
use ppa_pregel::ExecCtx;
use ppa_quality::QuastReport;
use ppa_seq::DnaString;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per untraced invocation; `setup_s` is their median.
const SETUPS: usize = 3;

/// Contigs shorter than this are left out of the quality evaluation.
const MIN_EVALUATED_CONTIG: usize = 200;

pub struct ChildArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Keep measuring until this many seconds have passed …
    pub seconds: f64,
    /// … and at least this many samples were taken.
    pub reps: usize,
    pub trace: bool,
    pub scale: f64,
    /// Scratch directory inside the checkout (FASTQ, contigs, spill files).
    pub work_dir: PathBuf,
    /// Where the traced run's Chrome trace goes.
    pub out_dir: PathBuf,
}

/// What one invocation reports: the contract's result line plus a detail
/// line the parent process folds into its table.
pub struct ChildResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub detail: Json,
}

impl ChildResult {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics` —
    /// the metrics being every one `spec.rs` lists for this mode, in its
    /// order.
    pub fn result_line(&self, trace: bool) -> Json {
        let listed: Vec<&spec::Metric> = if trace {
            spec::PER_LAYER.iter().collect()
        } else {
            spec::END_TO_END.iter().map(|(metric, _)| metric).collect()
        };
        assert_eq!(listed.len(), self.metrics.len(), "a metric is unlisted");
        let metrics = listed.into_iter().map(|spec| {
            let (_, value) = self
                .metrics
                .iter()
                .find(|(name, _)| *name == spec.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", spec.name));
            let value = Json::obj([("value", Json::Num(*value)), ("unit", Json::str(spec.unit))]);
            (spec.name, value)
        });
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Identity of a contigs file: FNV-1a over its bytes, and its length. The
/// FASTA carries each contig's ID, coverage and sequence, so equal files are
/// equal assemblies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub hash: u64,
    pub len: u64,
}

pub fn fingerprint_file(path: &Path) -> Result<Fingerprint, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Fingerprint {
        hash: fnv1a(&bytes),
        len: bytes.len() as u64,
    })
}

/// Identity of an assembly's content whatever the worker count: the sorted
/// multiset of (canonical sequence, coverage). Contig IDs encode the minting
/// worker and orientation follows traversal order, so across pool sizes only
/// this is comparable (the repository's own determinism tests pin the same).
fn content_hash(assembly: &Assembly) -> u64 {
    let mut contigs: Vec<(String, u32)> = assembly
        .contigs
        .iter()
        .map(|c| (c.sequence.canonical().to_ascii(), c.coverage))
        .collect();
    contigs.sort_unstable();
    let mut hash = Fnv64::new();
    for (sequence, coverage) in &contigs {
        hash.write_str(sequence);
        hash.write_u64(u64::from(*coverage));
    }
    hash.finish()
}

/// A completed run.
pub struct Run {
    /// Wall-clock from opening the reads file to the flushed contigs file.
    pub seconds: f64,
    pub assembly: Assembly,
    pub fingerprint: Fingerprint,
}

/// Spill traffic summed over every stage of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillTotals {
    pub written: u64,
    pub read: u64,
    pub runs: u64,
}

pub fn spill_totals(stats: &WorkflowStats) -> SpillTotals {
    let construct = [&stats.construct.phase1, &stats.construct.phase2];
    let merges = std::iter::once(&stats.merge_round1)
        .chain(&stats.merge_round2)
        .map(|m| &m.mapreduce);
    let mapreduce = construct
        .into_iter()
        .chain(merges)
        .map(|m| (m.spilled_bytes, m.spill_read_bytes, m.spilled_runs));
    let labels = std::iter::once(&stats.label_round1)
        .chain(&stats.label_round2)
        .map(|l| (l.spilled_bytes, l.spill_read_bytes, l.spilled_runs));
    let tips = stats.corrections.iter().map(|c| {
        let t = &c.tip_metrics;
        (t.spilled_bytes, t.spill_read_bytes, t.spilled_runs)
    });
    mapreduce
        .chain(labels)
        .chain(tips)
        .fold(SpillTotals::default(), |acc, (w, r, n)| SpillTotals {
            written: acc.written + w,
            read: acc.read + r,
            runs: acc.runs + n,
        })
}

/// Peak vertex-store footprint over every Pregel job of a run, in bytes.
pub fn peak_store_bytes(stats: &WorkflowStats) -> u64 {
    std::iter::once(&stats.label_round1)
        .chain(&stats.label_round2)
        .map(|l| l.peak_store_resident_bytes)
        .chain(
            stats
                .corrections
                .iter()
                .map(|c| c.tip_metrics.peak_store_resident_bytes),
        )
        .max()
        .unwrap_or(0)
}

/// Everything a run needs, built by one set-up.
pub struct Bench {
    pub workload: &'static Workload,
    pub scale: f64,
    pub dataset: Dataset,
    pub ctx: ExecCtx,
    pub config: AssemblyConfig,
    /// The contigs file every run overwrites.
    pub contigs_path: PathBuf,
}

impl Bench {
    fn set_up(args: &ChildArgs) -> Result<Bench, String> {
        let dataset = generate(args.workload, args.scale, args.seed, &args.work_dir)?;
        let ctx = ExecCtx::new(args.workload.pool_size());
        let config = args.workload.config(&ctx, args.scale);
        Ok(Bench {
            workload: args.workload,
            scale: args.scale,
            dataset,
            ctx,
            config,
            contigs_path: args.work_dir.join("contigs.fa"),
        })
    }

    /// One run under `config`: reads file → contigs file.
    fn run_with(&self, config: &AssemblyConfig) -> Result<Run, String> {
        let start = Instant::now();
        let reads = read_input_path(&self.dataset.fastq).map_err(|e| e.to_string())?;
        let assembly = try_assemble(&reads, config).map_err(|e| e.to_string())?;
        write_contigs(&assembly, &self.contigs_path)?;
        let seconds = start.elapsed().as_secs_f64();
        Ok(Run {
            seconds,
            assembly,
            fingerprint: fingerprint_file(&self.contigs_path)?,
        })
    }

    pub fn run(&self) -> Result<Run, String> {
        self.run_with(&self.config)
    }

    /// One run of the workload's twin configuration on a pool of its own.
    fn run_twin(&self, twin: Twin) -> Result<Run, String> {
        let workers = match twin {
            Twin::Workers(n) => n.min(crate::workload::nproc()),
            Twin::Resident => self.ctx.workers(),
        };
        let ctx = ExecCtx::new(workers);
        let mut config = self.workload.config(&ctx, self.scale);
        if twin == Twin::Resident {
            config.spill = ppa_pregel::SpillPolicy::Off;
        }
        self.run_with(&config)
    }
}

/// Writes the contigs as FASTA and flushes them to the file.
pub fn write_contigs(assembly: &Assembly, path: &Path) -> Result<(), String> {
    let context = |e: &dyn std::fmt::Display| format!("writing {}: {e}", path.display());
    let file = std::fs::File::create(path).map_err(|e| context(&e))?;
    let mut writer = BufWriter::new(file);
    assembly
        .to_fasta()
        .write_fasta(&mut writer)
        .map_err(|e| context(&e))?;
    writer.flush().map_err(|e| context(&e))
}

/// The correctness gate: counts runs, and records why any of them failed.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// The workload's first run (contigs file, content); every later run
    /// must reproduce the file, the twin at least the content.
    first: Option<(Fingerprint, u64)>,
}

impl Gate {
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Counts one attempted operation — a run, or a check that is not a
    /// run — and fails it if `problems` is not empty.
    pub fn settle(&mut self, problems: Vec<String>) -> bool {
        self.attempted += 1;
        if problems.is_empty() {
            return true;
        }
        let why = problems.join("; ");
        eprintln!("gate: {why}");
        self.failures.push(why);
        false
    }

    /// Counts one run of the workload's own configuration and checks it:
    /// it completed, reproduced the first run byte for byte, and its spill
    /// counters fit the workload (none on a resident workload; some, and a
    /// store under the cap, on a capped one).
    pub fn admit(&mut self, bench: &Bench, run: Result<Run, String>) -> Option<Run> {
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                self.settle(vec![format!("run failed: {e}")]);
                return None;
            }
        };
        let mut problems = Vec::new();
        let (first, _) = *self
            .first
            .get_or_insert_with(|| (run.fingerprint, content_hash(&run.assembly)));
        if run.fingerprint != first {
            problems.push(format!(
                "contigs differ from the first run ({:?} vs {first:?})",
                run.fingerprint
            ));
        }
        if run.assembly.contigs.is_empty() {
            problems.push("no contigs".to_string());
        }
        let spilled = spill_totals(&run.assembly.stats);
        let store_peak = peak_store_bytes(&run.assembly.stats);
        match bench.workload.spill_cap(bench.scale) {
            None if spilled != SpillTotals::default() => {
                problems.push(format!("resident workload spilled: {spilled:?}"));
            }
            Some(_) if spilled.written == 0 => {
                problems.push("capped workload did not spill".to_string());
            }
            Some(cap) if store_peak > cap => {
                problems.push(format!("store peak {store_peak} B exceeds the {cap} B cap"));
            }
            _ => {}
        }
        self.settle(problems).then_some(run)
    }

    /// Counts the twin run: it must complete and equal the first run — byte
    /// for byte when only the spill policy differs, in content when the
    /// worker count does.
    fn admit_twin(&mut self, twin: Twin, run: Result<Run, String>) -> Option<Run> {
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                self.settle(vec![format!("twin {twin:?} failed: {e}")]);
                return None;
            }
        };
        let same = self.first.is_some_and(|(file, content)| match twin {
            Twin::Resident => run.fingerprint == file,
            Twin::Workers(_) => content_hash(&run.assembly) == content,
        });
        let problems = if same {
            Vec::new()
        } else {
            vec![format!("contigs differ from the twin's ({twin:?})")]
        };
        self.settle(problems).then_some(run)
    }
}

/// Assembly quality against the simulated reference.
pub struct Quality {
    pub n50_bp: f64,
    pub genome_fraction_pct: f64,
    pub misassemblies: usize,
}

fn evaluate(run: &Run, reference: &DnaString) -> Quality {
    let contigs: Vec<DnaString> = run
        .assembly
        .contigs
        .iter()
        .filter(|c| c.len() >= MIN_EVALUATED_CONTIG)
        .map(|c| c.sequence.clone())
        .collect();
    let report = QuastReport::evaluate("ppa", &contigs, Some(reference), MIN_EVALUATED_CONTIG);
    let aligned = report.reference.expect("a reference was supplied");
    Quality {
        n50_bp: run.assembly.n50() as f64,
        genome_fraction_pct: aligned.genome_fraction_percent,
        misassemblies: aligned.misassemblies,
    }
}

/// `VmHWM` of this process in MB (10⁶ bytes), from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Runs one workload: set-up, measurement, verification. `Err` is a harness
/// failure (I/O on its own files), not a failed run — those are counted in
/// the result.
pub fn run_child(args: &ChildArgs) -> Result<ChildResult, String> {
    let mut gate = Gate::default();

    // Set-up: dataset generation + FASTQ write + pool start + the cold first
    // run, so work moved into lazy first-run initialisation shows in
    // `setup_s`. Repeated for a median; the process's peak RSS is sampled
    // once, right after the first cold run, before in-process drift.
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_seconds = Vec::new();
    let mut rss_mb = 0.0;
    let mut state: Option<(Bench, Option<Run>)> = None;
    for i in 0..setups {
        drop(state.take());
        let start = Instant::now();
        let bench = Bench::set_up(args)?;
        let cold = gate.admit(&bench, bench.run());
        setup_seconds.push(start.elapsed().as_secs_f64());
        if i == 0 {
            rss_mb = peak_rss_mb()?;
        }
        state = Some((bench, cold));
    }
    let (bench, mut last) = state.expect("at least one set-up");

    let mut detail = vec![
        ("workload", Json::str(args.workload.name)),
        ("seed", Json::Num(args.seed as f64)),
        ("scale", Json::Num(args.scale)),
        ("workers", Json::Num(bench.ctx.workers() as f64)),
        ("reads", Json::Num(bench.dataset.reads as f64)),
        ("bases", Json::Num(bench.dataset.bases as f64)),
    ];

    // The twin configuration must reproduce the workload's contigs; the
    // traced mode also reads its timing and counters (`spill.*`).
    let run_twin = |gate: &mut Gate| {
        let twin = args.workload.twin?;
        gate.admit_twin(twin, bench.run_twin(twin))
    };
    let mut metrics;
    if args.trace {
        let twin = run_twin(&mut gate);
        metrics = layers::measure(args, &bench, &mut gate, twin.as_ref())?;
    } else {
        // Timed runs, tracing off.
        let mut samples = Vec::new();
        let start = Instant::now();
        while (samples.len() as u64 + gate.failed()) < args.reps as u64
            || start.elapsed().as_secs_f64() < args.seconds
        {
            if let Some(run) = gate.admit(&bench, bench.run()) {
                samples.push(run.seconds);
                last = Some(run);
            }
        }
        metrics = vec![
            ("assemble_s", median(&samples).unwrap_or(f64::NAN)),
            (
                "setup_s",
                median(&setup_seconds).expect("at least one set-up"),
            ),
            ("peak_rss_mb", rss_mb),
        ];
        detail.push((
            "assemble_samples_s",
            Json::Arr(samples.iter().map(|s| Json::Num(*s)).collect()),
        ));
        run_twin(&mut gate);
    }

    // Verification, untimed: quality of the last good run against the
    // reference, held to the workload's floors.
    let quality = last
        .as_ref()
        .map(|run| evaluate(run, &bench.dataset.reference));
    let floors = args.workload;
    gate.settle(match &quality {
        None => vec!["no run completed, nothing to verify".to_string()],
        Some(q) => [
            (q.genome_fraction_pct < floors.min_genome_fraction_pct).then(|| {
                format!(
                    "genome fraction {:.3} % below the floor {} %",
                    q.genome_fraction_pct, floors.min_genome_fraction_pct
                )
            }),
            (q.n50_bp < floors.min_n50_bp).then(|| {
                format!(
                    "N50 {} bp below the floor {} bp",
                    q.n50_bp, floors.min_n50_bp
                )
            }),
            (q.misassemblies > floors.max_misassemblies)
                .then(|| format!("{} misassemblies", q.misassemblies)),
        ]
        .into_iter()
        .flatten()
        .collect(),
    });
    let of = |pick: fn(&Quality) -> f64| quality.as_ref().map_or(f64::NAN, pick);
    let failed_share = gate.failed() as f64 / gate.attempted.max(1) as f64;
    if args.trace {
        metrics.push(("gate.failed_share", failed_share));
        metrics.push(("quality.misassemblies", of(|q| q.misassemblies as f64)));
        metrics.push(("quality.n50_bp", of(|q| q.n50_bp)));
    } else {
        metrics.push(("genome_fraction_pct", of(|q| q.genome_fraction_pct)));
        detail.push(("failed_share", Json::Num(failed_share)));
        detail.push(("misassemblies", Json::Num(of(|q| q.misassemblies as f64))));
        detail.push(("n50_bp", Json::Num(of(|q| q.n50_bp))));
        detail.push((
            "setup_samples_s",
            Json::Arr(setup_seconds.iter().map(|s| Json::Num(*s)).collect()),
        ));
    }
    detail.push((
        "failures",
        Json::Arr(gate.failures.iter().map(Json::str).collect()),
    ));

    Ok(ChildResult {
        attempted: gate.attempted,
        failed: gate.failed(),
        metrics,
        detail: Json::obj(detail),
    })
}
