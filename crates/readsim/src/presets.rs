//! Scaled-down analogues of the paper's four evaluation datasets (Table I).
//!
//! | Paper dataset | Reads | Read length | Reference length |
//! |---|---|---|---|
//! | Homo sapiens chromosome 2 (HC-2)  | 4.81 M  | 100 bp | 48,170,570 bp |
//! | Homo sapiens chromosome X (HC-X)  | 9.26 M  | 100 bp | 96,301,240 bp |
//! | Human chromosome 14 (HC-14, GAGE) | 18.25 M | 101 bp | — |
//! | Bombus impatiens (BI, GAGE)       | 151.55 M| 155 bp | — |
//!
//! The presets below keep the *relative* ordering of data volumes, the read
//! lengths and the approximate coverage of the originals while shrinking the
//! reference to a laptop-friendly size. Every preset can be rescaled with
//! [`DatasetPreset::scaled`] for larger runs.

use crate::genome::{GenomeConfig, ReferenceGenome};
use crate::reads::ReadSimConfig;
use ppa_seq::ReadSet;

/// A named dataset recipe: a reference-genome configuration plus a read
/// simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetPreset {
    /// Dataset name (`sim-hc2`, `sim-hcx`, `sim-hc14`, `sim-bi`).
    pub name: String,
    /// Name of the paper dataset this preset stands in for.
    pub paper_dataset: String,
    /// Reference generator parameters.
    pub genome: GenomeConfig,
    /// Read simulator parameters.
    pub reads: ReadSimConfig,
    /// Whether the corresponding paper experiment had a reference sequence
    /// available (drives which quality metrics are reported).
    pub has_reference: bool,
}

impl DatasetPreset {
    /// Returns a copy with the reference length multiplied by `factor`
    /// (rounded), keeping coverage and read length unchanged. `factor > 1`
    /// makes the experiment proportionally bigger.
    pub fn scaled(&self, factor: f64) -> DatasetPreset {
        let mut scaled = self.clone();
        scaled.genome.length = ((self.genome.length as f64) * factor).round().max(1.0) as usize;
        // Scale repeat families with the genome so ambiguity density stays similar.
        scaled.genome.repeat_families = ((self.genome.repeat_families as f64) * factor)
            .round()
            .max(1.0) as usize;
        scaled
    }

    /// Generates the reference and the reads.
    pub fn generate(&self) -> SimulatedDataset {
        let reference = self.genome.generate();
        let reads = self.reads.simulate(&reference);
        SimulatedDataset {
            preset: self.clone(),
            reference,
            reads,
        }
    }

    /// Expected number of reads for this preset.
    pub fn expected_reads(&self) -> usize {
        self.reads.read_count(self.genome.length)
    }
}

/// A fully generated dataset: preset, reference and reads.
#[derive(Debug, Clone)]
pub struct SimulatedDataset {
    /// The recipe that produced this dataset.
    pub preset: DatasetPreset,
    /// The reference genome (always available for simulated data; whether the
    /// *paper* had one is recorded in `preset.has_reference`).
    pub reference: ReferenceGenome,
    /// The simulated reads.
    pub reads: ReadSet,
}

impl SimulatedDataset {
    /// Coverage actually realised by the generated reads.
    pub fn realized_coverage(&self) -> f64 {
        self.reads.total_bases() as f64 / self.reference.len() as f64
    }
}

/// The analogue of HC-2: the smaller of the two reference-backed read sets.
pub fn sim_hc2() -> DatasetPreset {
    DatasetPreset {
        name: "sim-hc2".into(),
        paper_dataset: "Homo sapiens chromosome 2".into(),
        genome: GenomeConfig {
            length: 200_000,
            gc_content: 0.41,
            repeat_families: 12,
            repeat_copies: 3,
            repeat_length: 150,
            seed: 0x4843_0002,
        },
        reads: ReadSimConfig {
            read_length: 100,
            coverage: 10.0,
            substitution_rate: 0.003,
            indel_rate: 0.0,
            n_rate: 0.0005,
            both_strands: true,
            seed: 0x5243_0002,
        },
        has_reference: true,
    }
}

/// The analogue of HC-X: twice the reference length of HC-2, same protocol.
pub fn sim_hcx() -> DatasetPreset {
    DatasetPreset {
        name: "sim-hcx".into(),
        paper_dataset: "Homo sapiens chromosome X".into(),
        genome: GenomeConfig {
            length: 400_000,
            gc_content: 0.40,
            repeat_families: 24,
            repeat_copies: 3,
            repeat_length: 150,
            seed: 0x4843_0058,
        },
        reads: ReadSimConfig {
            read_length: 100,
            coverage: 9.6,
            substitution_rate: 0.003,
            indel_rate: 0.0,
            n_rate: 0.0005,
            both_strands: true,
            seed: 0x5243_0058,
        },
        has_reference: true,
    }
}

/// The analogue of HC-14 (GAGE): deeper coverage, 101 bp reads.
pub fn sim_hc14() -> DatasetPreset {
    DatasetPreset {
        name: "sim-hc14".into(),
        paper_dataset: "Human chromosome 14 (GAGE)".into(),
        genome: GenomeConfig {
            length: 500_000,
            gc_content: 0.42,
            repeat_families: 30,
            repeat_copies: 3,
            repeat_length: 160,
            seed: 0x4843_000E,
        },
        reads: ReadSimConfig {
            read_length: 101,
            coverage: 21.0,
            substitution_rate: 0.004,
            indel_rate: 0.0,
            n_rate: 0.001,
            both_strands: true,
            seed: 0x5243_000E,
        },
        has_reference: false,
    }
}

/// The analogue of Bombus impatiens (GAGE): the largest dataset, 155 bp reads.
pub fn sim_bi() -> DatasetPreset {
    DatasetPreset {
        name: "sim-bi".into(),
        paper_dataset: "Bombus impatiens (GAGE)".into(),
        genome: GenomeConfig {
            length: 1_000_000,
            gc_content: 0.38,
            repeat_families: 60,
            repeat_copies: 3,
            repeat_length: 200,
            seed: 0x4249_0001,
        },
        reads: ReadSimConfig {
            read_length: 155,
            coverage: 30.0,
            substitution_rate: 0.004,
            indel_rate: 0.0,
            n_rate: 0.001,
            both_strands: true,
            seed: 0x5242_0001,
        },
        has_reference: false,
    }
}

/// An out-of-core stress preset: one to two orders of magnitude more data
/// volume than `sim-hc2`, sized so the assembler's resident working set
/// comfortably exceeds the spill caps exercised by the `out_of_core` bench.
/// Fully deterministic (fixed genome and read seeds) so spilled and resident
/// runs can be compared byte for byte.
pub fn sim_xl() -> DatasetPreset {
    DatasetPreset {
        name: "sim-xl".into(),
        paper_dataset: "Out-of-core stress (synthetic)".into(),
        genome: GenomeConfig {
            length: 2_000_000,
            gc_content: 0.41,
            repeat_families: 120,
            repeat_copies: 3,
            repeat_length: 180,
            seed: 0x584C_0001,
        },
        reads: ReadSimConfig {
            read_length: 120,
            coverage: 25.0,
            substitution_rate: 0.003,
            indel_rate: 0.0,
            n_rate: 0.0005,
            both_strands: true,
            seed: 0x584C_0002,
        },
        has_reference: true,
    }
}

/// All five presets: the four Table I analogues in increasing data volume,
/// followed by the synthetic out-of-core stress preset `sim-xl`.
pub fn all_presets() -> Vec<DatasetPreset> {
    vec![sim_hc2(), sim_hcx(), sim_hc14(), sim_bi(), sim_xl()]
}

/// Looks up a preset by name (`sim-hc2`, `sim-hcx`, `sim-hc14`, `sim-bi`,
/// `sim-xl`).
pub fn preset_by_name(name: &str) -> Option<DatasetPreset> {
    all_presets().into_iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_in_increasing_volume() {
        let presets = all_presets();
        assert_eq!(presets.len(), 5);
        let volumes: Vec<usize> = presets
            .iter()
            .map(|p| p.expected_reads() * p.reads.read_length)
            .collect();
        for w in volumes.windows(2) {
            assert!(
                w[0] < w[1],
                "presets must be ordered by increasing data volume: {volumes:?}"
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(preset_by_name("sim-hc2").unwrap().name, "sim-hc2");
        assert_eq!(
            preset_by_name("sim-bi").unwrap().paper_dataset,
            "Bombus impatiens (GAGE)"
        );
        assert!(preset_by_name("nope").is_none());
    }

    #[test]
    fn reference_availability_matches_paper() {
        assert!(preset_by_name("sim-hc2").unwrap().has_reference);
        assert!(preset_by_name("sim-hcx").unwrap().has_reference);
        assert!(!preset_by_name("sim-hc14").unwrap().has_reference);
        assert!(!preset_by_name("sim-bi").unwrap().has_reference);
        assert!(preset_by_name("sim-xl").unwrap().has_reference);
    }

    /// Full `sim-xl` generation is deliberately heavyweight; run with
    /// `cargo test -p ppa_readsim -- --ignored sim_xl_stress` when stress
    /// testing the out-of-core path.
    #[test]
    #[ignore = "generates the full 2 Mbp out-of-core stress dataset"]
    fn sim_xl_stress_generates_deterministically() {
        let a = sim_xl().generate();
        let b = sim_xl().generate();
        assert_eq!(a.reference.len(), 2_000_000);
        assert_eq!(a.reads.len(), a.preset.expected_reads());
        assert_eq!(b.reads.len(), a.reads.len());
        for (ra, rb) in a.reads.records.iter().zip(b.reads.records.iter()) {
            assert_eq!(ra, rb, "sim-xl must be deterministic");
        }
        let cov = a.realized_coverage();
        assert!((cov - 25.0).abs() < 2.0, "coverage {cov}");
    }

    #[test]
    fn scaled_changes_reference_length_only() {
        let p = sim_hc2();
        let bigger = p.scaled(2.0);
        assert_eq!(bigger.genome.length, 400_000);
        assert_eq!(bigger.reads.read_length, p.reads.read_length);
        assert_eq!(bigger.reads.coverage, p.reads.coverage);
        let smaller = p.scaled(0.1);
        assert_eq!(smaller.genome.length, 20_000);
    }

    #[test]
    fn generate_small_scaled_dataset() {
        let dataset = sim_hc2().scaled(0.05).generate();
        assert_eq!(dataset.reference.len(), 10_000);
        assert_eq!(dataset.reads.len(), dataset.preset.expected_reads());
        let cov = dataset.realized_coverage();
        assert!((cov - 10.0).abs() < 1.0, "coverage {cov}");
    }
}
