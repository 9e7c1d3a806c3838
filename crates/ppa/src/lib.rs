//! The `ppa` command line: one binary, two modes, each a thin front end to
//! the library.
//!
//! * `ppa assemble READS -o CONTIGS` reads a FASTA or FASTQ file
//!   ([`read_input_path`]), runs [`Pipeline::paper_workflow`] with a
//!   [`StageLogger`] printing progress on stderr, and writes the contigs as
//!   FASTA ([`Assembly::to_fasta`]) — the same bytes `workflow::assemble`
//!   gives for the same reads and configuration.
//! * `ppa reproduce` prints the paper's Section V tables, figure and
//!   ablations over the simulated presets ([`reproduce`]).
//!
//! [`parse`] turns the arguments into a [`Command`] and [`run`] executes it;
//! every way either can stop is a [`Failure`] carrying one line for stderr
//! and the exit status [`USAGE`] documents.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod reproduce;

use ppa_assembler::pipeline::{GraphState, Pipeline, PipelineError, StageLogger};
use ppa_assembler::stats::WorkflowStats;
use ppa_assembler::{read_input_path, Assembly, AssemblyConfig, LabelingAlgorithm};
use ppa_pregel::ExecCtx;
use std::io::Write;
use std::path::{Path, PathBuf};

/// The one-line synopsis a command-line error is reported with.
pub const SYNOPSIS: &str =
    "ppa assemble READS -o CONTIGS [-j N] [--labeling lr|sv] | ppa reproduce [--scale X] | ppa --help";

/// The full usage text `ppa --help` prints.
pub const USAGE: &str = "\
usage: ppa assemble READS -o CONTIGS [-j N] [--labeling lr|sv]
       ppa reproduce [--scale X]
       ppa --help

assemble   Assembles a FASTA or FASTQ file with the paper's workflow (k = 31:
           construct, label, merge, then one round of bubble filtering, tip
           removing, labeling and merging) and writes the contigs as FASTA.
           Progress goes to stderr, one line per stage.
  -o CONTIGS        the FASTA file to write (required)
  -j N              worker threads (default: the cores available)
  --labeling lr|sv  contig labeling by list ranking (default) or S-V

reproduce  Prints the paper's Tables I-V, Fig. 12 and its two ablations over
           the simulated presets (k = 25, as many workers as cores; Fig. 12
           sweeps 1, 2, 4, ... workers up to the cores).
  --scale X         genome-length factor of every preset (default 0.1)

exit status: 0 done; 1 a stage failed; 2 a bad command line; 3 the input or
             output could not be read, parsed or written; 4 a labeling job
             did not converge within its superstep budget";

/// Exit status of a bad command line.
pub const USAGE_ERROR: u8 = 2;

/// What the command line asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print [`USAGE`] on stdout.
    Help,
    /// Assemble `reads` into `out`.
    Assemble {
        /// The FASTA or FASTQ input.
        reads: PathBuf,
        /// The FASTA output.
        out: PathBuf,
        /// Worker threads.
        workers: usize,
        /// The contig-labeling algorithm.
        labeling: LabelingAlgorithm,
    },
    /// Print the paper's tables at `scale`.
    Reproduce {
        /// Genome-length factor of every preset.
        scale: f64,
    },
}

/// Why `ppa` stopped early: one line for stderr and the exit status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// The exit status, as [`USAGE`] documents.
    pub code: u8,
    /// What went wrong, on one line.
    pub message: String,
}

impl Failure {
    /// A bad command line: the problem, then the synopsis.
    fn usage(problem: impl std::fmt::Display) -> Failure {
        Failure {
            code: USAGE_ERROR,
            message: format!("{problem} (usage: {SYNOPSIS})"),
        }
    }

    /// An output file that could not be written.
    fn output(path: &Path, e: impl std::fmt::Display) -> Failure {
        Failure {
            code: 3,
            message: format!("{}: output error: {e}", path.display()),
        }
    }
}

impl From<PipelineError> for Failure {
    fn from(e: PipelineError) -> Failure {
        let code = match e {
            PipelineError::Input(_) | PipelineError::Checkpoint(_) => 3,
            PipelineError::NotConverged { .. } => 4,
            PipelineError::Stage { .. } | PipelineError::Cancelled { .. } => 1,
        };
        Failure {
            code,
            message: e.to_string(),
        }
    }
}

/// The cores available to this process, the default worker count.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Parses the arguments after the program name.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Command, Failure> {
    let mut args = args.into_iter();
    let mut command = match args.next().as_deref() {
        Some("-h" | "--help") => return Ok(Command::Help),
        Some("assemble") => Command::Assemble {
            reads: PathBuf::new(),
            out: PathBuf::new(),
            workers: cores(),
            labeling: LabelingAlgorithm::ListRanking,
        },
        Some("reproduce") => Command::Reproduce { scale: 0.1 },
        Some(other) => return Err(Failure::usage(format!("unknown mode {other}"))),
        None => return Err(Failure::usage("no mode given")),
    };
    while let Some(arg) = args.next() {
        match (&mut command, arg.as_str()) {
            (Command::Assemble { out, .. }, "-o") => {
                *out = value(&mut args, "-o", |v| Some(PathBuf::from(v)))?
            }
            (Command::Assemble { workers, .. }, "-j") => {
                *workers = value(&mut args, "-j", |v| v.parse().ok().filter(|n| *n > 0))?
            }
            (Command::Assemble { labeling, .. }, "--labeling") => {
                *labeling = value(&mut args, "--labeling", |v| match v {
                    "lr" => Some(LabelingAlgorithm::ListRanking),
                    "sv" => Some(LabelingAlgorithm::SimplifiedSV),
                    _ => None,
                })?
            }
            (Command::Reproduce { scale }, "--scale") => {
                *scale = value(&mut args, "--scale", |v| {
                    v.parse().ok().filter(|x: &f64| x.is_finite() && *x > 0.0)
                })?
            }
            (_, flag) if flag.starts_with('-') => {
                return Err(Failure::usage(format!("unknown flag {flag}")))
            }
            (Command::Assemble { reads, .. }, _) if reads.as_os_str().is_empty() => {
                *reads = PathBuf::from(arg)
            }
            _ => return Err(Failure::usage(format!("unexpected argument {arg}"))),
        }
    }
    match &command {
        Command::Assemble { reads, .. } if reads.as_os_str().is_empty() => {
            Err(Failure::usage("assemble needs a READS file"))
        }
        Command::Assemble { out, .. } if out.as_os_str().is_empty() => {
            Err(Failure::usage("assemble needs -o CONTIGS"))
        }
        _ => Ok(command),
    }
}

/// The value after `flag`, converted by `convert`; a missing or unparsable
/// value is a usage error.
fn value<T>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    convert: impl FnOnce(&str) -> Option<T>,
) -> Result<T, Failure> {
    let raw = args
        .next()
        .ok_or_else(|| Failure::usage(format!("{flag} needs a value")))?;
    convert(&raw).ok_or_else(|| Failure::usage(format!("{flag}: cannot use {raw:?}")))
}

/// Executes a parsed command.
pub fn run(command: Command) -> Result<(), Failure> {
    match command {
        Command::Help => {
            // A closed pipe (`ppa --help | head`) is no failure of ppa's.
            let _ = writeln!(std::io::stdout(), "{USAGE}");
        }
        Command::Assemble {
            reads,
            out,
            workers,
            labeling,
        } => {
            let config = AssemblyConfig {
                workers,
                labeling,
                ..AssemblyConfig::default()
            };
            let assembly = assemble(&reads, &out, &config)?;
            eprintln!(
                "wrote {} contigs ({} bp, N50 {}) to {}",
                assembly.contigs.len(),
                assembly.total_length(),
                assembly.n50(),
                out.display()
            );
        }
        Command::Reproduce { scale } => reproduce::run(scale, cores())?,
    }
    Ok(())
}

/// Reads `reads`, runs the paper workflow under `config` with per-stage
/// progress on stderr, and writes the contigs to `out` as FASTA.
pub fn assemble(reads: &Path, out: &Path, config: &AssemblyConfig) -> Result<Assembly, Failure> {
    let input = read_input_path(reads).map_err(|e| Failure {
        message: format!("{}: {e}", reads.display()),
        ..Failure::from(e)
    })?;
    let mut stats = WorkflowStats::default();
    let mut progress = StageLogger;
    let mut state = GraphState::new(&input);
    Pipeline::paper_workflow(config)
        .observe(&mut stats)
        .observe(&mut progress)
        .try_run(&mut state, &ExecCtx::new(config.workers))?;
    let assembly = Assembly {
        contigs: state.output,
        stats,
    };
    let file = std::fs::File::create(out).map_err(|e| Failure::output(out, e))?;
    let mut writer = std::io::BufWriter::new(file);
    assembly
        .to_fasta()
        .write_fasta(&mut writer)
        .map_err(|e| Failure::output(out, e))?;
    writer.flush().map_err(|e| Failure::output(out, e))?;
    Ok(assembly)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Command, Failure> {
        parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn assemble_takes_its_four_flags_in_any_order() {
        assert_eq!(
            parse_str("assemble -j 3 r.fq --labeling sv -o c.fa"),
            Ok(Command::Assemble {
                reads: "r.fq".into(),
                out: "c.fa".into(),
                workers: 3,
                labeling: LabelingAlgorithm::SimplifiedSV,
            })
        );
        assert_eq!(
            parse_str("assemble r.fa -o c.fa"),
            Ok(Command::Assemble {
                reads: "r.fa".into(),
                out: "c.fa".into(),
                workers: cores(),
                labeling: LabelingAlgorithm::ListRanking,
            })
        );
        assert_eq!(
            parse_str("reproduce"),
            Ok(Command::Reproduce { scale: 0.1 })
        );
        assert_eq!(
            parse_str("reproduce --scale 0.02"),
            Ok(Command::Reproduce { scale: 0.02 })
        );
        assert_eq!(parse_str("--help"), Ok(Command::Help));
    }

    #[test]
    fn every_bad_command_line_is_a_usage_error() {
        for line in [
            "",
            "assembel r.fq -o c.fa",
            "assemble r.fq -o c.fa --sacle 0.02",
            "assemble r.fq -o",
            "assemble r.fq -o c.fa -j",
            "assemble r.fq -o c.fa -j x",
            "assemble r.fq -o c.fa -j 0",
            "assemble r.fq -o c.fa --labeling bfs",
            "assemble r.fq -o c.fa extra.fq",
            "assemble -o c.fa",
            "assemble r.fq",
            "reproduce --sacle 0.02",
            "reproduce --scale",
            "reproduce --scale abc",
            "reproduce --scale 0",
            "reproduce --scale -1",
            "reproduce --scale NaN",
            "reproduce 0.02",
        ] {
            let failure = parse_str(line).expect_err(line);
            assert_eq!(failure.code, USAGE_ERROR, "{line}");
            assert!(failure.message.ends_with(&format!("(usage: {SYNOPSIS})")));
            assert!(!failure.message.contains('\n'), "{line}");
        }
    }

    #[test]
    fn pipeline_errors_map_to_their_documented_codes() {
        let code = |e: PipelineError| Failure::from(e).code;
        let missing = ppa_assembler::CheckpointError::NotFound("snapshots".into());
        assert_eq!(code(PipelineError::Checkpoint(missing)), 3);
        let not_converged = PipelineError::NotConverged {
            stage: "label".into(),
            round: 1,
            supersteps: 4000,
        };
        assert_eq!(code(not_converged), 4);
        let stage = PipelineError::Stage {
            stage: "merge".into(),
            round: 1,
            message: "boom".into(),
        };
        assert_eq!(code(stage), 1);
    }
}
