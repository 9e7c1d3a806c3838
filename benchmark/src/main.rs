//! The end-to-end assembly benchmark: reads file → contigs file on five
//! workloads, with per-layer attribution measured from outside the program.
//! See `benchmark/README.md` for the workloads, the metrics and a reading of
//! the first breakdown.
//!
//! Two ways in, one binary:
//!
//! * **One workload, one result line** — `--workload NAME --seed N --seconds S
//!   --trace 0|1`: runs that workload in this process and prints, as the last
//!   line of standard output, `{"correct", "attempted", "failed", "metrics"}`
//!   with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//!   (`--trace 1`).
//! * **The whole set** — without `--trace`: runs every workload (or the one
//!   named) sequentially, each measurement in a fresh child process of the
//!   first kind, prints every metric by name with its unit and writes the
//!   same as JSON. `--aa` runs the set twice and fails unless the two agree
//!   within the bounds; `--smoke` is a seconds-long pass over every code path.

mod child;
mod json;
mod layers;
mod report;
mod spec;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: ppa_benchmark [--workload NAME] [--seed N] [--reps N] [--seconds S]
                     [--trace 0|1] [--smoke] [--aa] [--out PATH] [--manifest]

  --workload NAME  one of xl-lr, xl-sv, xl-1w, deep-cov, xl-spill (default: all)
  --seed N         workload seed: picks the reads drawn from the genome (default 1)
  --reps N         samples per workload at least (default 5; 1 with --seconds)
  --seconds S      keep sampling for at least S seconds (default 0)
  --trace 0|1      run one workload in this process and end with its result
                   line: 0 = end-to-end metrics, 1 = per-layer metrics
  --smoke          inputs x0.04, 1 rep: exercises every workload and the gate
  --aa             run the set twice; fail unless every end-to-end metric
                   agrees within its bound
  --out PATH       results file of the whole-set mode
                   (default benchmark/out/results.json)
  --manifest       print BENCHMARK.json and exit";

/// Parsed command line.
pub struct Args {
    pub workload: Option<&'static workload::Workload>,
    pub seed: u64,
    pub reps: Option<usize>,
    pub seconds: f64,
    pub trace: Option<bool>,
    pub scale: f64,
    pub smoke: bool,
    pub aa: bool,
    pub out: Option<PathBuf>,
    pub manifest: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        reps: None,
        seconds: 0.0,
        trace: None,
        scale: workload::SCALE,
        smoke: false,
        aa: false,
        out: None,
        manifest: false,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: bad number {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(
                    workload::workload_by_name(&name).ok_or(format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                parsed.seed = v.parse().map_err(|_| format!("--seed: bad number {v}"))?;
            }
            "--reps" => {
                let v = value()?;
                parsed.reps = Some(v.parse().map_err(|_| format!("--reps: bad number {v}"))?);
            }
            "--seconds" => parsed.seconds = number(value()?)?,
            // Not in the usage text: the whole-set mode hands `--smoke`'s
            // scale to its children through it.
            "--scale" => parsed.scale = number(value()?)?,
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                })
            }
            "--smoke" => parsed.smoke = true,
            "--aa" => parsed.aa = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--manifest" => parsed.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(parsed.seconds >= 0.0 && parsed.seconds <= 600.0) {
        return Err("--seconds must be within 0..=600".to_string());
    }
    if !(parsed.scale > 0.0 && parsed.scale <= 4.0) {
        return Err("--scale must be within (0, 4]".to_string());
    }
    if parsed.smoke {
        parsed.scale = workload::SMOKE_SCALE;
        parsed.reps = Some(1);
    }
    if parsed.trace.is_some() && parsed.workload.is_none() {
        return Err("--trace needs --workload".to_string());
    }
    Ok(parsed)
}

/// The benchmark's own directory in the checkout it was built in: all its
/// scratch files and outputs stay under `<it>/out`.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Removes the per-process scratch directory on every exit path.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload in this process and prints its detail and result lines.
fn run_one(args: &Args, trace: bool) -> Result<ExitCode, String> {
    let work_dir = WorkDir(out_dir().join(format!("tmp-{}", std::process::id())));
    std::fs::create_dir_all(&work_dir.0).map_err(|e| format!("{}: {e}", work_dir.0.display()))?;
    // The engine's spill files go to `std::env::temp_dir()`: point it into
    // the scratch directory so nothing is written outside the checkout.
    // (Set before any other thread exists.)
    std::env::set_var("TMPDIR", &work_dir.0);
    let result = child::run_child(&child::ChildArgs {
        workload: args.workload.expect("checked by parse_args"),
        seed: args.seed,
        seconds: args.seconds,
        // With a measuring period the clock decides; without one, the count.
        reps: args.reps.unwrap_or(if args.seconds > 0.0 {
            1
        } else {
            report::DEFAULT_REPS
        }),
        trace,
        scale: args.scale,
        work_dir: work_dir.0.clone(),
        out_dir: out_dir(),
    })?;
    println!(
        "{}",
        json::Json::obj([("detail", result.detail.clone())]).to_line()
    );
    println!("{}", result.result_line(trace).to_line());
    Ok(if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("ppa_benchmark: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", spec::manifest().to_pretty());
        return ExitCode::SUCCESS;
    }
    if cfg!(debug_assertions) {
        eprintln!("ppa_benchmark: this is a debug build; numbers from it mean nothing. Run with --release.");
        return ExitCode::from(2);
    }
    let outcome = match args.trace {
        Some(trace) => run_one(&args, trace),
        None => report::run_sets(&args, &out_dir()),
    };
    outcome.unwrap_or_else(|msg| {
        eprintln!("ppa_benchmark: {msg}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn driver_style_arguments_parse() {
        let args = parse("--workload xl-sv --seed 17 --seconds 10 --trace 1").expect("parses");
        assert_eq!(args.workload.map(|w| w.name), Some("xl-sv"));
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (17, 10.0, Some(true))
        );
        assert_eq!(args.scale, workload::SCALE);
    }

    #[test]
    fn smoke_shrinks_inputs_and_reps() {
        let args = parse("--smoke").expect("parses");
        assert_eq!((args.scale, args.reps), (workload::SMOKE_SCALE, Some(1)));
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "--workload nope",
            "--trace 1",
            "--trace 2 --workload xl-lr",
            "--seed",
            "--seed x",
            "--seconds -1",
            "--scale 0",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be refused");
        }
    }
}
