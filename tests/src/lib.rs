//! Integration test support crate; tests live in `../tests`.
//!
//! What the test binaries share: a naive reference of operations ①②③
//! ([`oracle`]), a sequential BSP loop the superstep runner is compared
//! against ([`bsp`]), the adversarial read generator the property tests feed
//! the oracle and the engine ([`adversarial_reads`]), and small helpers —
//! temp directories, contig fingerprints, spill-directory scans.

pub mod bsp;
pub mod heap;
pub mod oracle;

use ppa_assembler::ops::label::AMBIGUOUS;
use ppa_assembler::workflow::Contig;
use ppa_seq::ReadSet;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// The `ppa-spill-<pid>-*` job directories of *this* process still present
/// under the system temp directory. A finished, failed or cancelled spilling
/// job must leave none; a test that asserts so must be the only spilling
/// test of its binary, or the scan races its siblings' live directories.
pub fn our_spill_dirs() -> Vec<PathBuf> {
    let prefix = format!("ppa-spill-{}-", std::process::id());
    let Ok(entries) = std::fs::read_dir(std::env::temp_dir()) else {
        return Vec::new();
    };
    entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&prefix))
        })
        .collect()
}

/// A unique, cleaned-on-drop temp directory (for checkpoint snapshots):
/// `ppa-<tag>-<pid>` under the system temp directory, emptied on creation.
pub struct TmpDir(pub PathBuf);

impl TmpDir {
    /// The directory for `tag`; a test binary prefixes its tags with its
    /// own name, so binaries running side by side never share one.
    pub fn new(tag: &str) -> TmpDir {
        let dir = std::env::temp_dir().join(format!("ppa-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TmpDir(dir)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Byte-level fingerprint of contigs: IDs, coverages and sequences, in order.
pub fn fingerprint(contigs: &[Contig]) -> Vec<(u64, u32, String)> {
    contigs
        .iter()
        .map(|c| (c.id, c.coverage, c.sequence.to_ascii()))
        .collect()
}

/// Every read's sequence as uppercase ASCII, with `N` at its breaks: what
/// the slab keeps of the bytes it was given.
pub fn sequences(reads: &ReadSet) -> Vec<Vec<u8>> {
    reads
        .records
        .iter()
        .map(|read| {
            let mut seq = Vec::new();
            read.decode_into(&mut seq);
            seq
        })
        .collect()
}

/// A labeling's column ([`LabelOutcome::labels`]) read through the IDs of
/// the node set it labelled, in the oracle's form ([`oracle::Labels`]): the
/// label ID of every labelled vertex by vertex ID, and the ambiguous IDs.
///
/// [`LabelOutcome::labels`]: ppa_assembler::ops::label::LabelOutcome::labels
pub fn labels_by_id(ids: &[u64], labels: &[u32]) -> (BTreeMap<u64, u64>, BTreeSet<u64>) {
    assert_eq!(ids.len(), labels.len(), "one label per node");
    let mut by_id = BTreeMap::new();
    let mut ambiguous = BTreeSet::new();
    for (&id, &label) in ids.iter().zip(labels) {
        if label == AMBIGUOUS {
            ambiguous.insert(id);
        } else {
            by_id.insert(id, ids[label as usize]);
        }
    }
    (by_id, ambiguous)
}

/// Deterministic xorshift stream for read generators.
pub struct Rng(pub u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `n` random bases.
    pub fn bases(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| b"ACGT"[self.below(4)]).collect()
    }
}

/// The reverse complement of an ASCII sequence; bytes other than `ACGT`
/// (`N`, lower case) are kept as they are.
pub fn reverse_complement(seq: &[u8]) -> Vec<u8> {
    seq.iter()
        .rev()
        .map(|&c| match c {
            b'A' => b'T',
            b'C' => b'G',
            b'G' => b'C',
            b'T' => b'A',
            other => other,
        })
        .collect()
}

/// Reads over a small genome with every shape the operations must get
/// right:
/// - a three-fold repeat (forks);
/// - a reverse palindrome of 32 bases, so of every even length up to 32
///   around its centre ((k+1)-mers that are their own reverse complement),
///   in one error-free read at least;
/// - substitution errors (singletons for θ to discard, tips and bubbles),
///   `N`s and lower case;
/// - reverse-complement duplicates of earlier reads (both strands must land
///   on one canonical key);
/// - reads of 1 to 70 bases, so some shorter than k+1;
/// - one error-free read of a short unit repeated (a cycle of k-mers, which
///   stays unambiguous as long as no other read shares them).
///
/// These are the bytes as generated; [`adversarial_reads`] holds them
/// packed, case folded.
pub fn adversarial_sequences(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Rng(seed | 1);
    let repeat = rng.bases(14);
    let half = rng.bases(16);
    let mut genome = Vec::new();
    for _ in 0..3 {
        let len = 40 + rng.below(40);
        genome.extend(rng.bases(len));
        genome.extend(&repeat);
    }
    let palindrome = genome.len();
    genome.extend(&half);
    genome.extend(reverse_complement(&half));
    genome.extend(rng.bases(30));

    let mut reads: Vec<Vec<u8>> = Vec::new();
    for _ in 0..30 + rng.below(50) {
        if !reads.is_empty() && rng.below(5) == 0 {
            let earlier = reads[rng.below(reads.len())].clone();
            reads.push(reverse_complement(&earlier));
            continue;
        }
        let len = 1 + rng.below(70);
        let start = rng.below(genome.len() - len);
        let mut read = genome[start..start + len].to_vec();
        for c in read.iter_mut() {
            match rng.below(50) {
                0 => *c = b"ACGT"[rng.below(4)],
                1 => *c = b'N',
                2 => *c = c.to_ascii_lowercase(),
                _ => {}
            }
        }
        reads.push(read);
    }
    let at = rng.below(reads.len());
    reads.insert(at, genome[palindrome - 4..palindrome + 36].to_vec());
    let period = 3 + rng.below(10);
    let unit = rng.bases(period);
    let len = 40 + rng.below(31);
    let at = rng.below(reads.len());
    reads.insert(at, unit.iter().copied().cycle().take(len).collect());
    reads
}

/// [`adversarial_sequences`] as a read set, the `i`-th named `r<i>`.
pub fn adversarial_reads(seed: u64) -> ReadSet {
    adversarial_sequences(seed)
        .into_iter()
        .enumerate()
        .map(|(i, seq)| (format!("r{i}"), seq))
        .collect()
}
