//! ART-like short-read simulation.
//!
//! Models the aspects of Illumina sequencing that matter to a de-Bruijn-graph
//! assembler (Section III of the paper):
//!
//! * reads are sampled from **both strands** — a read from strand 2 is the
//!   reverse complement of the corresponding strand-1 window, which is what
//!   forces the assembler to work with canonical k-mers and edge polarity;
//! * reads carry **substitution errors** that create the tips and bubbles the
//!   error-correction operations remove, plus optional indels and `N` calls;
//! * the number of reads is chosen to hit a target **coverage** (the paper's
//!   datasets are 10–40×).
//!
//! Reads go straight into the [`ReadSet`]'s base slab; they carry names but
//! no qualities (nothing downstream reads them, and
//! [`ReadSet::write_fastq`] writes `I` filler), so an erroneous base is not
//! marked in the output.

use crate::genome::ReferenceGenome;
use ppa_seq::{Base, ReadSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

/// Parameters of the read simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadSimConfig {
    /// Read length in base pairs (the paper's datasets use 100–155 bp).
    pub read_length: usize,
    /// Target coverage: expected number of reads covering each reference
    /// position.
    pub coverage: f64,
    /// Per-base substitution error probability.
    pub substitution_rate: f64,
    /// Per-base insertion/deletion probability (applied rarely; Illumina indel
    /// rates are far below substitution rates).
    pub indel_rate: f64,
    /// Per-base probability of an ambiguous `N` call.
    pub n_rate: f64,
    /// Whether to sample reads from both strands (true for real protocols).
    pub both_strands: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ReadSimConfig {
    fn default() -> Self {
        ReadSimConfig {
            read_length: 100,
            coverage: 30.0,
            substitution_rate: 0.002,
            indel_rate: 0.0,
            n_rate: 0.0005,
            both_strands: true,
            seed: 7,
        }
    }
}

impl ReadSimConfig {
    /// Convenience constructor for error-free reads (useful in tests where the
    /// assembly should reconstruct the reference exactly).
    pub fn error_free(read_length: usize, coverage: f64) -> ReadSimConfig {
        ReadSimConfig {
            read_length,
            coverage,
            substitution_rate: 0.0,
            indel_rate: 0.0,
            n_rate: 0.0,
            both_strands: true,
            seed: 7,
        }
    }

    /// Number of reads needed to reach the target coverage for a reference of
    /// `reference_len` base pairs.
    pub fn read_count(&self, reference_len: usize) -> usize {
        if self.read_length == 0 {
            return 0;
        }
        ((self.coverage * reference_len as f64) / self.read_length as f64).ceil() as usize
    }

    /// Simulates a read set from the reference.
    pub fn simulate(&self, reference: &ReferenceGenome) -> ReadSet {
        let ref_len = reference.len();
        assert!(
            self.read_length > 0 && self.read_length <= ref_len,
            "read length {} must be in 1..={}",
            self.read_length,
            ref_len
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n_reads = self.read_count(ref_len);
        let mut reads = ReadSet::with_base_capacity(n_reads * self.read_length);
        let ref_bases = reference.sequence.to_bases();
        // Reused per-read buffers: the slab copies out of them.
        let (mut template, mut seq, mut name) = (Vec::new(), Vec::new(), String::new());

        for read_idx in 0..n_reads {
            let start = rng.gen_range(0..=ref_len - self.read_length);
            let window = &ref_bases[start..start + self.read_length];
            let reverse = self.both_strands && rng.gen_bool(0.5);
            template.clear();
            if reverse {
                template.extend(window.iter().rev().map(|b| b.complement()));
            } else {
                template.extend_from_slice(window);
            }

            seq.clear();
            for &base in &template {
                // Indels first (rare): deletion skips the base, insertion adds a
                // random base before it.
                if self.indel_rate > 0.0 && rng.gen_bool(self.indel_rate) {
                    if rng.gen_bool(0.5) {
                        // deletion
                        continue;
                    } else {
                        // insertion
                        seq.push(random_base(&mut rng).to_ascii());
                    }
                }
                if self.n_rate > 0.0 && rng.gen_bool(self.n_rate) {
                    seq.push(b'N');
                    continue;
                }
                let emitted =
                    if self.substitution_rate > 0.0 && rng.gen_bool(self.substitution_rate) {
                        substitute(&mut rng, base)
                    } else {
                        base
                    };
                seq.push(emitted.to_ascii());
            }

            let strand = if reverse { '-' } else { '+' };
            name.clear();
            write!(name, "sim_{read_idx}:{start}:{strand}").expect("writing to a String");
            reads.push(name.as_bytes(), &seq);
        }
        reads
    }
}

fn random_base(rng: &mut StdRng) -> Base {
    Base::from_code(rng.gen_range(0..4u8))
}

/// Picks a base different from `original`, uniformly.
fn substitute(rng: &mut StdRng, original: Base) -> Base {
    loop {
        let b = random_base(rng);
        if b != original {
            return b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::GenomeConfig;

    /// Field `i` of a `sim_<index>:<start>:<strand>` read name.
    fn name_field(name: &[u8], i: usize) -> &str {
        std::str::from_utf8(name)
            .unwrap()
            .split(':')
            .nth(i)
            .unwrap()
    }

    /// A read's bases as uppercase ASCII.
    fn decoded(read: ppa_seq::Read<'_>) -> Vec<u8> {
        let mut seq = Vec::new();
        read.decode_into(&mut seq);
        seq
    }

    fn small_reference() -> ReferenceGenome {
        GenomeConfig {
            length: 5_000,
            repeat_families: 0,
            seed: 11,
            ..Default::default()
        }
        .generate()
    }

    #[test]
    fn coverage_determines_read_count() {
        let reference = small_reference();
        let cfg = ReadSimConfig {
            read_length: 100,
            coverage: 20.0,
            ..Default::default()
        };
        let reads = cfg.simulate(&reference);
        assert_eq!(reads.len(), cfg.read_count(reference.len()));
        assert_eq!(reads.len(), 1000); // 20 × 5000 / 100
        assert!((reads.mean_read_length() - 100.0).abs() < 1.0);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let reference = small_reference();
        let cfg = ReadSimConfig::default();
        assert_eq!(cfg.simulate(&reference), cfg.simulate(&reference));
        let other = ReadSimConfig { seed: 99, ..cfg }.simulate(&reference);
        assert_ne!(other, ReadSimConfig::default().simulate(&reference));
    }

    #[test]
    fn error_free_reads_match_reference_windows() {
        let reference = small_reference();
        let cfg = ReadSimConfig {
            both_strands: false,
            ..ReadSimConfig::error_free(50, 5.0)
        };
        let reads = cfg.simulate(&reference);
        let ref_ascii = reference.sequence.to_ascii();
        for r in &reads.records {
            // Read id encodes the start position; the sequence must be an exact
            // substring of the reference.
            let start: usize = name_field(r.name, 1).parse().unwrap();
            let window = &ref_ascii[start..start + 50];
            assert_eq!(std::str::from_utf8(&decoded(r)).unwrap(), window);
        }
    }

    #[test]
    fn both_strands_produces_reverse_complements() {
        let reference = small_reference();
        let cfg = ReadSimConfig::error_free(60, 10.0);
        let reads = cfg.simulate(&reference);
        let mut forward = 0usize;
        let mut reverse = 0usize;
        let ref_ascii = reference.sequence.to_ascii();
        for r in &reads.records {
            let start: usize = name_field(r.name, 1).parse().unwrap();
            let window = &ref_ascii[start..start + 60];
            let seq = String::from_utf8(decoded(r)).unwrap();
            if name_field(r.name, 2) == "+" {
                assert_eq!(seq, window);
                forward += 1;
            } else {
                let rc = ppa_seq::DnaString::from_ascii(window)
                    .unwrap()
                    .reverse_complement();
                assert_eq!(seq, rc.to_ascii());
                reverse += 1;
            }
        }
        assert!(forward > 0 && reverse > 0, "both strands should be sampled");
    }

    #[test]
    fn substitution_rate_produces_roughly_expected_errors() {
        let reference = small_reference();
        let cfg = ReadSimConfig {
            read_length: 100,
            coverage: 20.0,
            substitution_rate: 0.01,
            indel_rate: 0.0,
            n_rate: 0.0,
            both_strands: false,
            seed: 3,
        };
        let reads = cfg.simulate(&reference);
        let ref_ascii = reference.sequence.to_ascii();
        let mut mismatches = 0usize;
        let mut total = 0usize;
        for r in &reads.records {
            let start: usize = name_field(r.name, 1).parse().unwrap();
            let window = &ref_ascii.as_bytes()[start..start + 100];
            for (a, b) in decoded(r).iter().zip(window) {
                total += 1;
                if a != b {
                    mismatches += 1;
                }
            }
        }
        let rate = mismatches as f64 / total as f64;
        assert!(rate > 0.005 && rate < 0.02, "observed error rate {rate}");
    }

    #[test]
    fn n_rate_and_indels_are_applied() {
        let reference = small_reference();
        let cfg = ReadSimConfig {
            n_rate: 0.01,
            indel_rate: 0.005,
            coverage: 10.0,
            ..Default::default()
        };
        let reads = cfg.simulate(&reference);
        let has_n = reads
            .records
            .iter()
            .any(|r| r.codes().any(|c| c == ppa_seq::fastx::BREAK));
        let has_len_change = reads.records.iter().any(|r| r.len() != cfg.read_length);
        assert!(has_n, "expected at least one N call");
        assert!(
            has_len_change,
            "expected indels to change some read lengths"
        );
    }

    #[test]
    #[should_panic(expected = "read length")]
    fn read_longer_than_reference_rejected() {
        let reference = GenomeConfig {
            length: 40,
            repeat_families: 0,
            ..Default::default()
        }
        .generate();
        ReadSimConfig {
            read_length: 100,
            ..Default::default()
        }
        .simulate(&reference);
    }
}
