//! Reference genome generation.
//!
//! A purely random DNA sequence produces a de Bruijn graph that is almost
//! entirely one long unambiguous path (for k = 31, random 31-mers essentially
//! never collide), which would make the assembly problem trivially easy and
//! the error-correction operations pointless. Real genomes contain repeated
//! segments; a k-mer inside a repeat appears at several positions and becomes
//! an *ambiguous* vertex (Section III of the paper). [`GenomeConfig`]
//! therefore plants a configurable number of repeat copies into the generated
//! sequence so that the simulated DBG has the branching structure the
//! assembler is designed to handle.

use ppa_seq::{Base, DnaString};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the reference generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GenomeConfig {
    /// Total length of the reference in base pairs.
    pub length: usize,
    /// Target GC fraction in `[0, 1]` (human chromosomes are ≈ 0.41).
    pub gc_content: f64,
    /// Number of repeat *families* to plant.
    pub repeat_families: usize,
    /// Number of copies of each repeat family (including the original).
    pub repeat_copies: usize,
    /// Length of each repeat, in base pairs. Must be ≥ the assembly k for the
    /// repeat to actually create ambiguous vertices.
    pub repeat_length: usize,
    /// RNG seed; the same seed always produces the same reference.
    pub seed: u64,
}

impl Default for GenomeConfig {
    fn default() -> Self {
        GenomeConfig {
            length: 100_000,
            gc_content: 0.41,
            repeat_families: 8,
            repeat_copies: 3,
            repeat_length: 120,
            seed: 42,
        }
    }
}

impl GenomeConfig {
    /// Convenience constructor for a genome of `length` bp with default
    /// repeat structure.
    pub fn with_length(length: usize) -> GenomeConfig {
        GenomeConfig {
            length,
            ..Default::default()
        }
    }

    /// Generates the reference genome.
    pub fn generate(&self) -> ReferenceGenome {
        assert!(self.length > 0, "reference length must be positive");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let gc = self.gc_content.clamp(0.0, 1.0);
        let mut bases: Vec<Base> = (0..self.length)
            .map(|_| {
                let is_gc = rng.gen_bool(gc);
                match (is_gc, rng.gen_bool(0.5)) {
                    (true, true) => Base::G,
                    (true, false) => Base::C,
                    (false, true) => Base::A,
                    (false, false) => Base::T,
                }
            })
            .collect();

        // Plant repeats: pick a source window and copy it to `repeat_copies - 1`
        // other positions (possibly reverse-complemented, as real repeats occur
        // on either strand).
        let mut repeat_positions = Vec::new();
        if self.repeat_length > 0 && self.repeat_length < self.length {
            for _ in 0..self.repeat_families {
                let src = rng.gen_range(0..=self.length - self.repeat_length);
                let template: Vec<Base> = bases[src..src + self.repeat_length].to_vec();
                repeat_positions.push(src);
                for _ in 1..self.repeat_copies.max(1) {
                    let dst = rng.gen_range(0..=self.length - self.repeat_length);
                    let reverse = rng.gen_bool(0.5);
                    let copy: Vec<Base> = if reverse {
                        ppa_seq::base::reverse_complement(&template)
                    } else {
                        template.clone()
                    };
                    bases[dst..dst + self.repeat_length].copy_from_slice(&copy);
                    repeat_positions.push(dst);
                }
            }
        }

        ReferenceGenome {
            sequence: DnaString::from_bases(&bases),
            config: self.clone(),
            repeat_positions,
        }
    }
}

/// A generated reference sequence plus provenance information.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceGenome {
    /// The reference sequence.
    pub sequence: DnaString,
    /// The configuration that produced it.
    pub config: GenomeConfig,
    /// Start positions of the planted repeat copies (useful in tests).
    pub repeat_positions: Vec<usize>,
}

impl ReferenceGenome {
    /// Length of the reference in base pairs.
    pub fn len(&self) -> usize {
        self.sequence.len()
    }

    /// Whether the reference is empty (never true for generated genomes).
    pub fn is_empty(&self) -> bool {
        self.sequence.is_empty()
    }

    /// GC fraction of the generated sequence.
    pub fn gc_fraction(&self) -> f64 {
        self.sequence.gc_fraction()
    }

    /// Number of distinct canonical k-mers versus total k-mer positions; a
    /// ratio below 1.0 indicates repeated k-mers (ambiguity in the DBG).
    pub fn kmer_uniqueness(&self, k: usize) -> f64 {
        use std::collections::HashSet;
        if self.sequence.len() < k {
            return 1.0;
        }
        let mut set = HashSet::new();
        let mut total = 0usize;
        for kmer in self.sequence.kmers(k) {
            set.insert(kmer.canonical().kmer.packed());
            total += 1;
        }
        set.len() as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = GenomeConfig {
            length: 5_000,
            ..Default::default()
        };
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a.sequence, b.sequence);
        let c = GenomeConfig { seed: 43, ..cfg }.generate();
        assert_ne!(a.sequence, c.sequence);
    }

    #[test]
    fn length_and_gc_are_respected() {
        let cfg = GenomeConfig {
            length: 20_000,
            gc_content: 0.41,
            repeat_families: 0,
            ..Default::default()
        };
        let g = cfg.generate();
        assert_eq!(g.len(), 20_000);
        assert!(
            (g.gc_fraction() - 0.41).abs() < 0.03,
            "gc = {}",
            g.gc_fraction()
        );
        let at_rich = GenomeConfig {
            gc_content: 0.1,
            ..cfg
        }
        .generate();
        assert!(at_rich.gc_fraction() < 0.15);
    }

    #[test]
    fn repeats_reduce_kmer_uniqueness() {
        let no_repeats = GenomeConfig {
            length: 30_000,
            repeat_families: 0,
            seed: 7,
            ..Default::default()
        }
        .generate();
        let with_repeats = GenomeConfig {
            length: 30_000,
            repeat_families: 20,
            repeat_copies: 4,
            repeat_length: 200,
            seed: 7,
            ..Default::default()
        }
        .generate();
        let u_no = no_repeats.kmer_uniqueness(31);
        let u_yes = with_repeats.kmer_uniqueness(31);
        assert!(
            u_no > 0.999,
            "random genome should be almost repeat-free: {u_no}"
        );
        assert!(
            u_yes < u_no,
            "planted repeats must introduce duplicate k-mers"
        );
        assert!(!with_repeats.repeat_positions.is_empty());
    }

    #[test]
    #[should_panic(expected = "length must be positive")]
    fn zero_length_rejected() {
        GenomeConfig {
            length: 0,
            ..Default::default()
        }
        .generate();
    }

    #[test]
    fn small_genome_with_oversized_repeat_is_safe() {
        // repeat_length >= length: planting is skipped rather than panicking.
        let g = GenomeConfig {
            length: 50,
            repeat_length: 100,
            ..Default::default()
        }
        .generate();
        assert_eq!(g.len(), 50);
        assert!(g.repeat_positions.is_empty());
    }
}
