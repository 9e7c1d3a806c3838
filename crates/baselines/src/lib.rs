//! Baseline assembler strategies used as comparison points for PPA-assembler.
//!
//! The paper compares PPA-assembler against ABySS, Ray and SWAP-Assembler
//! (Figure 12 and Tables IV/V) and discusses Spaler's strategy. Those systems
//! are large C++/MPI code bases that are not available in this environment, so
//! this crate re-implements the *algorithmic strategies* the paper attributes
//! to them, on top of the same sequence/Pregel substrate, so that the
//! comparison exercises exactly the design differences the paper discusses:
//!
//! * [`AbyssLike`] — builds DBG edges by letting every k-mer probe all eight
//!   hypothetical neighbours (which creates false edges, as the paper points
//!   out in Section V), and grows unitigs with a label-propagation process
//!   that needs a number of supersteps proportional to the contig length
//!   instead of logarithmic.
//! * [`RayLike`] — greedy seed-and-extend on a central coordinator: only the
//!   k-mer counting is parallel, the extension walk is sequential, making it
//!   the slowest strategy (as in Figure 12).
//! * [`SwapLike`] — a correct (k+1)-mer DBG like PPA-assembler, but contigs
//!   are formed by lock-based pairwise contraction of adjacent unambiguous
//!   vertices, round after round, without the list-ranking shortcut and
//!   without error correction.
//! * [`SpalerLike`] — Spaler's sampling heuristic: unambiguous paths are
//!   repeatedly broken at sampled vertices and the segments merged, with no
//!   guarantee of maximality, so contigs come out shorter.
//! * [`PpaAssembler`] — the toolkit of this repository behind the same trait,
//!   so harnesses can sweep all assemblers uniformly.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod abyss_like;
pub mod common;
pub mod ppa;
pub mod ray_like;
pub mod spaler_like;
pub mod swap_like;

use ppa_seq::{DnaString, ReadSet};
use std::time::Duration;

pub use abyss_like::AbyssLike;
pub use ppa::PpaAssembler;
pub use ray_like::RayLike;
pub use spaler_like::SpalerLike;
pub use swap_like::SwapLike;

/// Parameters shared by every assembler in a comparison run.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineParams {
    /// k-mer size.
    pub k: usize,
    /// Coverage threshold for k-mer / (k+1)-mer filtering.
    pub min_kmer_coverage: u32,
    /// Number of workers (threads / logical machines).
    pub workers: usize,
    /// Tip-length threshold (used by strategies that drop short dangling paths).
    pub tip_length_threshold: usize,
    /// Bubble edit-distance threshold (used by strategies with bubble removal).
    pub bubble_edit_distance: usize,
}

impl Default for BaselineParams {
    fn default() -> Self {
        BaselineParams {
            k: 31,
            min_kmer_coverage: 1,
            workers: 4,
            tip_length_threshold: 80,
            bubble_edit_distance: 5,
        }
    }
}

/// The output of one assembler run.
#[derive(Debug, Clone)]
pub struct BaselineAssembly {
    /// Assembled contig sequences.
    pub contigs: Vec<DnaString>,
    /// End-to-end wall-clock time of the run.
    pub elapsed: Duration,
    /// Free-form description of what the strategy did (superstep counts etc.).
    pub notes: String,
}

impl BaselineAssembly {
    /// Total assembled bases.
    pub fn total_length(&self) -> usize {
        self.contigs.iter().map(|c| c.len()).sum()
    }

    /// Largest contig length.
    pub fn largest_contig(&self) -> usize {
        self.contigs.iter().map(|c| c.len()).max().unwrap_or(0)
    }
}

/// A de novo assembler that can be driven by the comparison harnesses.
pub trait Assembler: Sync {
    /// Short display name (used as the column header in the tables).
    fn name(&self) -> &'static str;
    /// Runs the assembler over the reads.
    fn assemble(&self, reads: &ReadSet, params: &BaselineParams) -> BaselineAssembly;
}

/// All assemblers compared in the paper's evaluation, PPA-assembler first.
pub fn all_assemblers() -> Vec<Box<dyn Assembler>> {
    vec![
        Box::new(PpaAssembler::default()),
        Box::new(AbyssLike),
        Box::new(RayLike),
        Box::new(SwapLike),
    ]
}

/// Looks an assembler up by (case-insensitive) name.
pub fn assembler_by_name(name: &str) -> Option<Box<dyn Assembler>> {
    let lower = name.to_ascii_lowercase();
    match lower.as_str() {
        "ppa" | "ppa-assembler" => Some(Box::new(PpaAssembler::default())),
        "abyss" | "abysslike" | "abyss-like" => Some(Box::new(AbyssLike)),
        "ray" | "raylike" | "ray-like" => Some(Box::new(RayLike)),
        "swap" | "swaplike" | "swap-like" | "swap-assembler" => Some(Box::new(SwapLike)),
        "spaler" | "spalerlike" | "spaler-like" => Some(Box::new(SpalerLike::default())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_contains_the_figure12_assemblers() {
        let names: Vec<&str> = all_assemblers().iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            vec!["PPA-assembler", "ABySS-like", "Ray-like", "SWAP-like"]
        );
    }

    #[test]
    fn lookup_by_name() {
        for name in ["ppa", "abyss", "ray", "swap", "spaler"] {
            assert!(assembler_by_name(name).is_some(), "{name} should resolve");
        }
        assert!(assembler_by_name("velvet").is_none());
    }

    #[test]
    fn baseline_assembly_accessors() {
        let a = BaselineAssembly {
            contigs: vec![
                DnaString::from_ascii("ACGTACGT").unwrap(),
                DnaString::from_ascii("ACG").unwrap(),
            ],
            elapsed: Duration::from_millis(1),
            notes: String::new(),
        };
        assert_eq!(a.total_length(), 11);
        assert_eq!(a.largest_contig(), 8);
    }

    #[test]
    fn every_assembler_writes_the_same_contigs_every_run_at_any_worker_count() {
        // Table IV's reads at `ppa reproduce --scale 0.02` and its k: each
        // assembler's contigs, base for base, from two runs at one worker
        // and one run at each of 2, 3 and 4 workers.
        let reads = ppa_readsim::presets::sim_hc2()
            .scaled(0.02)
            .generate()
            .reads;
        for name in ["ppa", "abyss", "ray", "swap", "spaler"] {
            let assembler = assembler_by_name(name).unwrap();
            let contigs = |workers: usize| {
                let params = BaselineParams {
                    k: 25,
                    workers,
                    ..BaselineParams::default()
                };
                assembler.assemble(&reads, &params).contigs
            };
            let first = contigs(1);
            assert!(!first.is_empty(), "{name}: no contigs");
            for workers in [1, 2, 3, 4] {
                assert!(contigs(workers) == first, "{name}: {workers} workers");
            }
        }
    }
}
