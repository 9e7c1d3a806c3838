//! The whole-set mode: every workload in turn, each measurement in a fresh
//! child process (a re-exec of this binary, never two at once), then one
//! table, one results file and — with `--aa` — the A/A comparison.

use crate::json::Json;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};
use crate::workload::{nproc, Workload, WORKLOADS};
use crate::Args;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// Timed runs per workload unless `--reps` says otherwise.
pub const DEFAULT_REPS: usize = 5;

/// Untraced/traced pairs in a traced child of the whole-set mode.
const TRACED_PAIRS: usize = 2;

/// End-to-end quantities outside `END_TO_END` (see there for why), read
/// from the untraced child's detail line: `(name, unit)`.
const GATED: &[(&str, &str)] = &[
    ("n50_bp", "bp"),
    ("failed_share", "share"),
    ("misassemblies", "count"),
];

/// One child's two stdout lines, parsed.
struct ChildOutput {
    attempted: f64,
    failed: f64,
    /// `(name, value, unit)`.
    metrics: Vec<(String, f64, String)>,
    detail: Json,
}

/// Everything measured on one workload.
struct WorkloadResult {
    workload: &'static Workload,
    end_to_end: ChildOutput,
    per_layer: ChildOutput,
}

impl WorkloadResult {
    fn failed(&self) -> bool {
        self.end_to_end.failed + self.per_layer.failed > 0.0
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .metrics
            .iter()
            .chain(&self.per_layer.metrics)
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// A [`GATED`] quantity.
    fn gated(&self, name: &str) -> f64 {
        let value = self.end_to_end.detail.get(name).and_then(Json::as_f64);
        value.unwrap_or(f64::NAN)
    }

    fn assemble_samples(&self) -> Vec<f64> {
        match self.end_to_end.detail.get("assemble_samples_s") {
            Some(Json::Arr(samples)) => samples.iter().filter_map(Json::as_f64).collect(),
            _ => Vec::new(),
        }
    }
}

/// Runs one child to completion and parses its last two stdout lines. The
/// child's stderr (gate messages) passes through.
fn run_child(args: &Args, workload: &Workload, trace: bool) -> Result<ChildOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let reps = match (trace, args.reps) {
        (true, None) => TRACED_PAIRS,
        (true, Some(reps)) => reps.min(TRACED_PAIRS),
        (false, reps) => reps.unwrap_or(DEFAULT_REPS),
    };
    let output = Command::new(exe)
        .args(["--workload", workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--reps", &reps.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--scale", &args.scale.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .and_then(|child| child.wait_with_output())
        .map_err(|e| format!("running the {} child: {e}", workload.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let parse = |line: Option<&str>| {
        line.ok_or_else(|| {
            format!(
                "the {} child printed no result ({})",
                workload.name, output.status
            )
        })
        .and_then(|l| Json::parse(l).map_err(|e| format!("{} child output: {e}", workload.name)))
    };
    let result = parse(lines.next())?;
    let detail = parse(lines.next())?;
    let number = |key: &str| {
        result
            .get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("{} child result lacks {key}", workload.name))
    };
    let metrics = match result.get("metrics") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(name, m)| {
                // A non-finite value was written as null: keep it visible.
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = match m.get("unit") {
                    Some(Json::Str(unit)) => unit.clone(),
                    _ => String::new(),
                };
                (name.clone(), value, unit)
            })
            .collect(),
        _ => return Err(format!("{} child result lacks metrics", workload.name)),
    };
    Ok(ChildOutput {
        attempted: number("attempted")?,
        failed: number("failed")?,
        metrics,
        detail: detail.get("detail").cloned().unwrap_or(Json::Null),
    })
}

/// One pass over the selected workloads, strictly one process at a time.
fn run_set(args: &Args) -> Result<Vec<WorkloadResult>, String> {
    let mut results = Vec::new();
    for workload in WORKLOADS {
        if args.workload.is_some_and(|only| only.name != workload.name) {
            continue;
        }
        eprintln!("[{}] timed runs ...", workload.name);
        let end_to_end = run_child(args, workload, false)?;
        eprintln!("[{}] traced runs + probes ...", workload.name);
        let per_layer = run_child(args, workload, true)?;
        results.push(WorkloadResult {
            workload,
            end_to_end,
            per_layer,
        });
    }
    Ok(results)
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how the numbers were taken.
fn environment(args: &Args) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::str(cpu)),
        ("rustc", Json::str(first_line_of("rustc", &["-V"]))),
        (
            "git_commit",
            Json::str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(args.seed as f64)),
        ("reps", Json::Num(args.reps.unwrap_or(DEFAULT_REPS) as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("scale", Json::Num(args.scale)),
        ("profile", Json::str("release")),
    ])
}

fn format_value(value: f64) -> String {
    if !value.is_finite() {
        "-".to_string()
    } else if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.0}")
    } else if value.abs() >= 100.0 {
        format!("{value:.1}")
    } else {
        format!("{value:.4}")
    }
}

/// Every metric by name with its unit, one column per workload.
fn print_table(results: &[WorkloadResult]) {
    let row = |name: &str, unit: &str, values: Vec<String>| {
        print!("{name:<34} {unit:<9}");
        for v in values {
            print!(" {v:>12}");
        }
        println!();
    };
    row(
        "metric",
        "unit",
        results
            .iter()
            .map(|r| r.workload.name.to_string())
            .collect(),
    );
    println!("-- end to end (assemble_s: median of the timed runs; [q1 q3 n] below)");
    for (spec, _) in END_TO_END {
        let values = results.iter().map(|r| r.metric(spec.name));
        row(
            spec.name,
            spec.unit,
            values
                .map(|v| format_value(v.unwrap_or(f64::NAN)))
                .collect(),
        );
        if spec.name == "assemble_s" {
            let samples: Vec<Vec<f64>> = results.iter().map(|r| r.assemble_samples()).collect();
            let quartile = |pick: fn((f64, f64)) -> f64| {
                samples
                    .iter()
                    .map(|s| format_value(quartiles(s).map_or(f64::NAN, pick)))
                    .collect()
            };
            row("  assemble_s.q1", "s", quartile(|q| q.0));
            row("  assemble_s.q3", "s", quartile(|q| q.1));
            row(
                "  assemble_s.n",
                "count",
                samples.iter().map(|s| s.len().to_string()).collect(),
            );
        }
    }
    for (name, unit) in GATED {
        let values = results.iter().map(|r| format_value(r.gated(name)));
        row(name, unit, values.collect());
    }
    println!("-- per layer (traced runs and probes)");
    for spec in PER_LAYER {
        let values = results.iter().map(|r| r.metric(spec.name));
        row(
            spec.name,
            spec.unit,
            values
                .map(|v| format_value(v.unwrap_or(f64::NAN)))
                .collect(),
        );
    }
}

fn child_json(out: &ChildOutput) -> Json {
    Json::obj([
        ("attempted", Json::Num(out.attempted)),
        ("failed", Json::Num(out.failed)),
        (
            "metrics",
            Json::obj(out.metrics.iter().map(|(name, value, unit)| {
                (
                    name.as_str(),
                    Json::obj([("value", Json::Num(*value)), ("unit", Json::str(unit))]),
                )
            })),
        ),
        ("detail", out.detail.clone()),
    ])
}

fn set_json(results: &[WorkloadResult]) -> Json {
    Json::Arr(
        results
            .iter()
            .map(|r| {
                let samples = r.assemble_samples();
                let (q1, q3) = quartiles(&samples).unwrap_or((f64::NAN, f64::NAN));
                Json::obj([
                    ("name", Json::str(r.workload.name)),
                    ("why", Json::str(r.workload.why)),
                    (
                        "assemble_s",
                        Json::obj([
                            ("median", Json::Num(median(&samples).unwrap_or(f64::NAN))),
                            ("q1", Json::Num(q1)),
                            ("q3", Json::Num(q3)),
                            ("n", Json::Num(samples.len() as f64)),
                        ]),
                    ),
                    ("end_to_end", child_json(&r.end_to_end)),
                    ("per_layer", child_json(&r.per_layer)),
                ])
            })
            .collect(),
    )
}

/// Compares two sets of the same build: every end-to-end metric × workload
/// must agree within its bound (exactly, for the deterministic ones).
/// Returns the comparison and whether it passed.
fn compare_sets(a: &[WorkloadResult], b: &[WorkloadResult]) -> (Json, bool) {
    let mut rows = Vec::new();
    let mut all_ok = true;
    println!("-- A/A: second set against the first");
    for (first, second) in a.iter().zip(b) {
        let name = first.workload.name;
        let mut check = |metric: &str, x: f64, y: f64, bound: f64| {
            let diff = if x == y { 0.0 } else { (y - x).abs() / x.abs() };
            let ok = diff <= bound;
            all_ok &= ok;
            println!(
                "{name:<10} {metric:<22} {:>12} {:>12} {:>8.2} % (bound {:.1} %) {}",
                format_value(x),
                format_value(y),
                diff * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "DISAGREE" }
            );
            rows.push(Json::obj([
                ("workload", Json::str(name)),
                ("metric", Json::str(metric)),
                ("first", Json::Num(x)),
                ("second", Json::Num(y)),
                ("relative_difference", Json::Num(diff)),
                ("bound", Json::Num(bound)),
                ("ok", Json::Bool(ok)),
            ]));
        };
        // Quality repeats exactly on the same reads: it must agree to the
        // last digit, not merely within a bound.
        for (spec, bound) in END_TO_END {
            let bound = if spec.name == "genome_fraction_pct" {
                0.0
            } else {
                *bound
            };
            let value = |r: &WorkloadResult| r.metric(spec.name).unwrap_or(f64::NAN);
            check(spec.name, value(first), value(second), bound);
        }
        for (gated, _) in GATED {
            check(gated, first.gated(gated), second.gated(gated), 0.0);
        }
    }
    (Json::Arr(rows), all_ok)
}

/// The whole-set mode. Exit code 0 only if every run of every workload
/// passed the gate (and, with `--aa`, the two sets agree).
pub fn run_sets(args: &Args, out_dir: &Path) -> Result<ExitCode, String> {
    let first = run_set(args)?;
    print_table(&first);
    let mut ok = !first.iter().any(WorkloadResult::failed);
    let mut doc = vec![
        ("benchmark", Json::str("ppa_benchmark")),
        ("environment", environment(args)),
        ("workloads", set_json(&first)),
    ];
    if args.aa {
        let second = run_set(args)?;
        print_table(&second);
        ok &= !second.iter().any(WorkloadResult::failed);
        let (comparison, agree) = compare_sets(&first, &second);
        ok &= agree;
        doc.push(("second_set", set_json(&second)));
        doc.push(("aa_comparison", comparison));
    }
    doc.push((
        "summary",
        Json::obj([
            ("passed", Json::Bool(ok)),
            // This benchmark defines the baseline; it claims no gain.
            ("claim", Json::Null),
        ]),
    ));

    let path = match &args.out {
        Some(path) => path.clone(),
        None => out_dir.join("results.json"),
    };
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, Json::obj(doc).to_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results -> {}", path.display());
    println!(
        "{}",
        if ok {
            "PASS: every run passed the gate"
        } else {
            "FAIL: see the gate messages above"
        }
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
