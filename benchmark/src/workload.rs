//! The five workloads: which reads each assembles, under which
//! configuration, and what its output must satisfy.
//!
//! All five are closed loops of one client: the next run starts when the
//! previous one has written its contigs. Assembly parameters are the
//! paper's (k = 31, tip threshold 80, bubble edit distance 5, one
//! error-correction round).

use ppa_assembler::{AssemblyConfig, LabelingAlgorithm};
use ppa_pregel::{ExecCtx, SpillPolicy};
use ppa_readsim::presets::{sim_xl, DatasetPreset};
use ppa_seq::DnaString;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// One shared factor applied to every input, relative to the sizes the
/// workloads were designed at (`xl` = `sim-xl` ×0.5, `deep-cov` and
/// `xl-spill` = `sim-xl` ×0.2). Chosen so a driver invocation — three
/// set-ups, ten seconds of timed runs, verification — stays under half a
/// minute on two cores.
pub const SCALE: f64 = 0.25;

/// `--smoke`: every workload, the gate and the writers in a few seconds.
pub const SMOKE_SCALE: f64 = 0.04;

/// The `xl-spill` cap at scale 1: about a fifth of that workload's resident
/// store peak (38.5 MB when the workload was designed). A constant, scaled
/// only by the input scale — never re-derived from a measured peak, so a
/// change that shrinks the store cannot move the cap with it.
const SPILL_CAP_BYTES_AT_SCALE_1: f64 = 8.0 * 1024.0 * 1024.0;

/// The read set a workload assembles (all derived from `sim-xl`'s recipe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recipe {
    /// `sim-xl` ×0.5: 25× coverage, 120 bp reads, 0.3 % substitutions.
    Xl,
    /// `sim-xl` ×0.2 genome at 150× with 150 bp reads and 1 % substitutions:
    /// 2.4× the bases of `Xl` over a genome 0.4× the size.
    DeepCov,
    /// `sim-xl` ×0.2 with the preset's own read recipe.
    XlSmall,
}

/// A configuration whose contigs a workload's must equal byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Twin {
    /// The same assembly on this many workers.
    Workers(usize),
    /// The same assembly with spilling off.
    Resident,
}

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: the layer this workload stresses and
    /// the one it bypasses.
    pub why: &'static str,
    pub recipe: Recipe,
    pub labeling: LabelingAlgorithm,
    /// Pool size asked for; clamped to the machine's cores at run time.
    pub workers: usize,
    /// Coverage threshold θ of DBG construction.
    pub theta: u32,
    pub spills: bool,
    pub twin: Option<Twin>,
    /// Quality floors, fixed from seeds 1, 2 and 3 at [`SCALE`] (`xl`: 97.7 %,
    /// N50 9005–9825; `deep-cov`: 95.5–96.7 %, N50 1378–1995; `xl-spill`:
    /// 97.8 %, N50 7900; no misassembly anywhere) with margin for the sixty
    /// other seeds tried (`deep-cov` went as low as 94.8 %); a run below them fails the gate.
    pub min_genome_fraction_pct: f64,
    pub min_n50_bp: f64,
    pub max_misassemblies: usize,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "xl-lr",
        why: "Paper workflow, list-ranking labeling, 2 workers: the Pregel runner (radix presort, k-merge, merge-join into the vertex store) does most of the work; sparse frontier; no spilling.",
        recipe: Recipe::Xl,
        labeling: LabelingAlgorithm::ListRanking,
        workers: 2,
        theta: 1,
        spills: false,
        twin: None,
        min_genome_fraction_pct: 97.0,
        min_n50_bp: 7000.0,
        max_misassemblies: 0,
    },
    Workload {
        name: "xl-sv",
        why: "Same reads, S-V labeling: twice the supersteps, more messages, an always-dense frontier, a smaller store. A sparse-frontier change moves xl-lr and not this; a dense-delivery change the reverse.",
        recipe: Recipe::Xl,
        labeling: LabelingAlgorithm::SimplifiedSV,
        workers: 2,
        theta: 1,
        spills: false,
        twin: None,
        min_genome_fraction_pct: 97.0,
        min_n50_bp: 7000.0,
        max_misassemblies: 0,
    },
    Workload {
        name: "xl-1w",
        why: "xl-lr on 1 worker, the single-threaded baseline: pool, barrier and exchange work moves xl-lr and not this; single-thread kernel work moves both. Contigs must equal the 2-worker run's.",
        recipe: Recipe::Xl,
        labeling: LabelingAlgorithm::ListRanking,
        workers: 1,
        theta: 1,
        spills: false,
        twin: Some(Twin::Workers(2)),
        min_genome_fraction_pct: 97.0,
        min_n50_bp: 7000.0,
        max_misassemblies: 0,
    },
    Workload {
        name: "deep-cov",
        why: "Small genome at 150x with 1% errors: read scanning, the counting MapReduce and radix sort + RLE do most of the work and the runner little - the mirror image of xl-lr.",
        recipe: Recipe::DeepCov,
        labeling: LabelingAlgorithm::ListRanking,
        workers: 2,
        theta: 2,
        spills: false,
        twin: None,
        min_genome_fraction_pct: 93.0,
        min_n50_bp: 1000.0,
        max_misassemblies: 0,
    },
    Workload {
        name: "xl-spill",
        why: "xl-lr's recipe on a smaller genome under a fixed spill cap about a fifth of the resident store: spill.rs and disk I/O do most of the work; every other workload bypasses them.",
        recipe: Recipe::XlSmall,
        labeling: LabelingAlgorithm::ListRanking,
        workers: 2,
        theta: 1,
        spills: true,
        twin: Some(Twin::Resident),
        min_genome_fraction_pct: 97.0,
        min_n50_bp: 6000.0,
        max_misassemblies: 0,
    },
];

pub fn workload_by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The machine's core count (1 if it cannot be told).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Workload {
    /// Pool size of this workload here: never more workers than cores.
    pub fn pool_size(&self) -> usize {
        self.workers.min(nproc())
    }

    /// The spill cap in bytes at `scale`, for a spilling workload.
    pub fn spill_cap(&self, scale: f64) -> Option<u64> {
        self.spills
            .then(|| (SPILL_CAP_BYTES_AT_SCALE_1 * scale).max(1.0) as u64)
    }

    /// The assembly configuration, running on `ctx`.
    pub fn config(&self, ctx: &ExecCtx, scale: f64) -> AssemblyConfig {
        AssemblyConfig {
            k: 31,
            min_kmer_coverage: self.theta,
            tip_length_threshold: 80,
            bubble_edit_distance: 5,
            workers: ctx.workers(),
            labeling: self.labeling,
            error_correction_rounds: 1,
            min_contig_length: 0,
            spill: self
                .spill_cap(scale)
                .map_or(SpillPolicy::Off, SpillPolicy::At),
            exec: Some(ctx.clone()),
        }
    }

    /// The dataset recipe at `scale`. The workload seed picks the reads
    /// (workloads sharing a recipe share them); the genome is the recipe's
    /// own, the same for every seed, so that quality is comparable across
    /// seeds: between random genomes of this size N50 alone moves by 12 %.
    pub fn preset(&self, scale: f64, seed: u64) -> DatasetPreset {
        let base = sim_xl();
        let mut preset = match self.recipe {
            Recipe::Xl => base.scaled(0.5 * scale),
            Recipe::XlSmall => base.scaled(0.2 * scale),
            Recipe::DeepCov => {
                let mut deep = base.scaled(0.2 * scale);
                deep.reads.coverage = 150.0;
                deep.reads.read_length = 150;
                deep.reads.substitution_rate = 0.01;
                deep
            }
        };
        preset.reads.seed = derive_seed(seed, 1);
        preset
    }
}

/// An independent 64-bit seed for `stream` of workload seed `seed`
/// (SplitMix64 finaliser over the pair).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A generated input: the reads as a FASTQ file on disk — the program under
/// test receives nothing else — and the reference they were drawn from, kept
/// for the quality evaluation.
pub struct Dataset {
    pub fastq: PathBuf,
    pub reference: DnaString,
    pub reads: usize,
    pub bases: usize,
}

/// Generates the workload's dataset and writes its reads to
/// `dir/reads.fq`; the generator's in-memory read set is dropped on return.
pub fn generate(workload: &Workload, scale: f64, seed: u64, dir: &Path) -> Result<Dataset, String> {
    let dataset = workload.preset(scale, seed).generate();
    let fastq = dir.join("reads.fq");
    let file = std::fs::File::create(&fastq).map_err(|e| format!("{}: {e}", fastq.display()))?;
    let mut writer = BufWriter::new(file);
    dataset
        .reads
        .write_fastq(&mut writer)
        .map_err(|e| format!("writing {}: {e}", fastq.display()))?;
    writer
        .flush()
        .map_err(|e| format!("writing {}: {e}", fastq.display()))?;
    Ok(Dataset {
        fastq,
        reference: dataset.reference.sequence,
        reads: dataset.reads.len(),
        bases: dataset.reads.total_bases(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_derive_deterministically_and_independently() {
        assert_eq!(derive_seed(7, 1), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 1), derive_seed(7, 2));
        assert_ne!(derive_seed(7, 1), derive_seed(8, 1));
        // Neighbouring seeds must not yield neighbouring streams.
        assert!(derive_seed(1, 1).abs_diff(derive_seed(2, 1)) > 1 << 32);
    }

    #[test]
    fn same_seed_gives_identical_reads_and_another_seed_different_ones() {
        let w = workload_by_name("xl-lr").expect("xl-lr exists");
        let reads = |seed| w.preset(0.01, seed).generate().reads;
        let a = reads(42);
        assert!(a.len() > 100);
        assert_eq!(a, reads(42));
        assert_ne!(a, reads(43));
    }

    #[test]
    fn workloads_on_one_recipe_share_reads_and_the_others_differ() {
        let preset = |name: &str| workload_by_name(name).expect(name).preset(0.1, 5);
        assert_eq!(preset("xl-lr"), preset("xl-sv"));
        assert_eq!(preset("xl-lr"), preset("xl-1w"));
        assert!(preset("deep-cov").reads.coverage > 5.0 * preset("xl-lr").reads.coverage);
        assert!(preset("xl-spill").genome.length < preset("xl-lr").genome.length);
    }

    #[test]
    fn only_the_spill_workload_is_capped_and_the_cap_follows_the_scale() {
        for w in WORKLOADS {
            assert_eq!(w.spill_cap(1.0).is_some(), w.name == "xl-spill");
        }
        let w = workload_by_name("xl-spill").expect("xl-spill exists");
        assert_eq!(w.spill_cap(1.0), Some(8 << 20));
        assert_eq!(w.spill_cap(0.5), Some(4 << 20));
    }
}
