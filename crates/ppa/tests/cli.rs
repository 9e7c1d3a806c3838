//! `ppa assemble` end to end through the built binary: its FASTA against the
//! library's, and the exit status and stderr of each way it can fail.

use ppa_assembler::{assemble, read_input_path, AssemblyConfig, LabelingAlgorithm};
use ppa_readsim::preset_by_name;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh directory for one test's files, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("ppa-cli-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `ppa` with `args`: the exit code and the stderr lines.
fn ppa(args: &[&str]) -> (Option<i32>, Vec<String>) {
    let out = Command::new(env!("CARGO_BIN_EXE_ppa"))
        .args(args)
        .output()
        .expect("run ppa");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    (
        out.status.code(),
        stderr.lines().map(String::from).collect(),
    )
}

fn arg(path: &Path) -> &str {
    path.to_str().expect("utf-8 path")
}

#[test]
fn assemble_writes_the_librarys_fasta_at_every_worker_count_and_labeling() {
    let scratch = Scratch::new("identity");
    let (reads_path, contigs) = (scratch.path("reads.fq"), scratch.path("contigs.fa"));
    let dataset = preset_by_name("sim-hc2")
        .expect("preset")
        .scaled(0.05)
        .generate();
    let file = std::fs::File::create(&reads_path).expect("create reads");
    dataset.reads.write_fastq(file).expect("write reads");
    let reads = read_input_path(&reads_path).expect("read reads back");

    for (flag, labeling) in [
        ("lr", LabelingAlgorithm::ListRanking),
        ("sv", LabelingAlgorithm::SimplifiedSV),
    ] {
        for workers in 1..=4 {
            let config = AssemblyConfig {
                workers,
                labeling,
                ..AssemblyConfig::default()
            };
            let mut expected = Vec::new();
            let library = assemble(&reads, &config);
            library
                .to_fasta()
                .write_fasta(&mut expected)
                .expect("fasta");
            assert!(library.contigs.len() > 1, "a trivial assembly pins nothing");

            let j = workers.to_string();
            let args = ["assemble", arg(&reads_path), "-o", arg(&contigs)];
            let (code, stderr) = ppa(&[&args[..], &["-j", &j, "--labeling", flag]].concat());
            assert_eq!(code, Some(0), "{flag} at {workers} workers: {stderr:?}");
            assert!(stderr.last().is_some_and(|l| l.starts_with("wrote ")));
            let written = std::fs::read(&contigs).expect("read contigs");
            assert!(written == expected, "{flag} at {workers} workers");
        }
    }
}

/// Asserts that `args` exit with `code` and one `ppa: ` line on stderr
/// containing `says`.
fn fails(args: &[&str], code: i32, says: &str) {
    let (got, stderr) = ppa(args);
    assert_eq!(got, Some(code), "{args:?}: {stderr:?}");
    assert_eq!(stderr.len(), 1, "{args:?}: {stderr:?}");
    assert!(stderr[0].starts_with("ppa: "), "{stderr:?}");
    assert!(stderr[0].contains(says), "{stderr:?} should say {says:?}");
}

#[test]
fn malformed_input_and_a_missing_file_exit_3() {
    let scratch = Scratch::new("input");
    let bad = scratch.path("bad.fq");
    std::fs::write(&bad, "@r1\nACGTACGT\n+\nIIII\n").expect("write bad fastq");
    let out = scratch.path("out.fa");
    fails(
        &["assemble", arg(&bad), "-o", arg(&out)],
        3,
        "quality length",
    );
    assert!(!out.exists(), "no output for bad input");
    let missing = scratch.path("missing.fq");
    fails(
        &["assemble", arg(&missing), "-o", arg(&out)],
        3,
        "missing.fq",
    );
}

#[test]
fn a_bad_command_line_exits_2_with_the_synopsis() {
    let synopsis = format!("(usage: {})", ppa::SYNOPSIS);
    fails(&["reproduce", "--sacle", "0.02"], 2, "unknown flag --sacle");
    fails(&["reproduce", "--scale", "0.02x"], 2, &synopsis);
    fails(
        &["assemble", "r.fq", "-o", "c.fa", "-j"],
        2,
        "-j needs a value",
    );
    fails(&[], 2, &synopsis);
    let (code, stderr) = ppa(&["--help"]);
    assert_eq!((code, stderr.len()), (Some(0), 0));
}
