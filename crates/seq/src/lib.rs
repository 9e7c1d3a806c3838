//! DNA sequence primitives for the PPA-assembler workspace.
//!
//! This crate provides the low-level building blocks that every other crate in
//! the workspace relies on:
//!
//! * [`Base`] — the four-letter DNA alphabet with the paper's 2-bit encoding
//!   (`A=00`, `C=01`, `G=10`, `T=11`) and complementation.
//! * [`Kmer`] — a k-mer (k ≤ 31) packed into a single `u64`, supporting
//!   extension, reverse complement and canonicalisation exactly as required by
//!   the de Bruijn graph construction of the paper (Section III / Figure 7a).
//! * [`DnaString`] — an arbitrary-length 2-bit packed DNA sequence used for
//!   contigs and reference genomes (Figure 9's contig bitmap); ordering,
//!   reverse complement and splicing run word-parallel, 32 bases per `u64`
//!   step, on every target.
//! * FASTA/FASTQ parsing and writing ([`fastx`]).
//! * Banded and full [edit distance](edit) used by bubble filtering.
//!
//! The types here are deliberately free of any Pregel or assembly logic so that
//! the read simulator, the quality assessor and the baselines can share them.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod base;
pub mod dna_string;
pub mod edit;
pub mod error;
pub mod fastx;
pub mod kmer;

pub use base::Base;
pub use dna_string::DnaString;
pub use edit::banded_edit_distance;
pub use error::SeqError;
pub use fastx::{Read, ReadSet, ReadSlab};
pub use kmer::{CanonicalKmer, Kmer, Orientation};
