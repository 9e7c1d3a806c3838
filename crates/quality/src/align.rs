//! Reference-based assembly assessment.
//!
//! When a reference sequence is available (the HC-2 / HC-X experiments of the
//! paper), QUAST aligns every contig against it and derives genome fraction,
//! misassembly counts and per-100-kbp mismatch/indel rates. This module
//! reimplements that pipeline with an anchor-and-verify strategy:
//!
//! 1. the reference is indexed by its forward k-mers;
//! 2. every contig is probed in both orientations with anchor k-mers sampled
//!    along its length; each anchor hit votes for a (orientation, offset)
//!    placement;
//! 3. the winning placement is verified base-by-base with a banded alignment
//!    that counts substitutions and indels exactly;
//! 4. contigs whose anchors vote for inconsistent placements are counted as
//!    misassembled, contigs with no anchor hits as unaligned.

use ppa_seq::{Base, DnaString};
use std::collections::HashMap;

/// Configuration of the reference alignment.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignmentConfig {
    /// Anchor k-mer size.
    pub anchor_k: usize,
    /// Distance between successive anchors sampled from a contig.
    pub anchor_stride: usize,
    /// Fraction of hitting anchors that must agree on one placement for the
    /// contig to count as correctly assembled (below this → misassembly).
    pub min_consistent_fraction: f64,
    /// Band half-width used by the verifying alignment.
    pub band: usize,
}

impl Default for AlignmentConfig {
    fn default() -> Self {
        AlignmentConfig {
            anchor_k: 21,
            anchor_stride: 32,
            min_consistent_fraction: 0.9,
            band: 24,
        }
    }
}

/// Reference-based metrics (the remaining rows of Table IV).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReferenceMetrics {
    /// Percentage of reference positions covered by at least one aligned block.
    pub genome_fraction_percent: f64,
    /// Number of misassembled contigs.
    pub misassemblies: usize,
    /// Total length of misassembled contigs.
    pub misassembled_length: usize,
    /// Total length of contigs that could not be aligned at all.
    pub unaligned_length: usize,
    /// Substitution mismatches per 100 kbp of aligned bases.
    pub mismatches_per_100kbp: f64,
    /// Indels per 100 kbp of aligned bases.
    pub indels_per_100kbp: f64,
    /// Length of the largest single aligned block.
    pub largest_alignment: usize,
    /// Total aligned bases (contig side).
    pub aligned_length: usize,
    /// Absolute number of substitution mismatches.
    pub total_mismatches: usize,
    /// Absolute number of indel positions.
    pub total_indels: usize,
}

/// Counts of alignment differences.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct DiffCounts {
    substitutions: usize,
    indels: usize,
}

/// Global banded alignment that counts substitutions and indels exactly
/// (Needleman–Wunsch with unit costs restricted to a diagonal band).
fn banded_diff_counts(a: &[Base], b: &[Base], band: usize) -> DiffCounts {
    let (n, m) = (a.len(), b.len());
    if n == 0 {
        return DiffCounts {
            substitutions: 0,
            indels: m,
        };
    }
    if m == 0 {
        return DiffCounts {
            substitutions: 0,
            indels: n,
        };
    }
    let band = band.max(n.abs_diff(m) + 1);
    const INF: u32 = u32::MAX / 4;
    let width = 2 * band + 1;
    // dp[i][j - (i - band)] over the band; store cost only, then recompute the
    // operation split by retracing greedily — to keep memory small we instead
    // track (cost, subs) pairs, deriving indels as cost − subs.
    let idx = |i: usize, j: usize| -> Option<usize> {
        let lo = i.saturating_sub(band);
        if j < lo || j > i + band || j > m {
            None
        } else {
            Some(j - lo)
        }
    };
    let mut prev = vec![(INF, 0u32); width + 1];
    let mut curr = vec![(INF, 0u32); width + 1];
    // Row 0.
    for (j, cell) in prev.iter_mut().enumerate().take(band.min(m) + 1) {
        *cell = (j as u32, 0);
    }
    for i in 1..=n {
        curr.iter_mut().for_each(|c| *c = (INF, 0));
        let lo = i.saturating_sub(band);
        let hi = (i + band).min(m);
        for j in lo..=hi {
            let pos = idx(i, j).expect("within band");
            let mut best = (INF, 0u32);
            // Deletion from `a` (gap in b).
            if let Some(p) = idx(i - 1, j) {
                let (c, s) = prev[p];
                if c + 1 < best.0 {
                    best = (c + 1, s);
                }
            }
            // Insertion (gap in a).
            if j > 0 {
                if let Some(p) = idx(i, j - 1) {
                    let (c, s) = curr[p];
                    if c + 1 < best.0 {
                        best = (c + 1, s);
                    }
                }
            }
            // Match / substitution.
            if j > 0 {
                if let Some(p) = idx(i - 1, j - 1) {
                    let (c, s) = prev[p];
                    let is_sub = a[i - 1] != b[j - 1];
                    let cost = c + u32::from(is_sub);
                    if cost < best.0 {
                        best = (cost, s + u32::from(is_sub));
                    }
                }
            }
            curr[pos] = best;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    let final_pos = idx(n, m).expect("final cell in band");
    let (cost, subs) = prev[final_pos];
    if cost >= INF {
        // Band too narrow (should not happen with the widened band): fall back
        // to calling everything a substitution.
        return DiffCounts {
            substitutions: n.max(m),
            indels: 0,
        };
    }
    DiffCounts {
        substitutions: subs as usize,
        indels: (cost - subs) as usize,
    }
}

/// Builds the forward k-mer index of the reference.
fn index_reference(reference: &DnaString, k: usize) -> HashMap<u64, Vec<usize>> {
    let mut index: HashMap<u64, Vec<usize>> = HashMap::new();
    for (pos, kmer) in reference.kmers(k).enumerate() {
        index.entry(kmer.packed()).or_default().push(pos);
    }
    index
}

/// The best placement found for one oriented contig.
struct Placement {
    votes: usize,
    hits: usize,
    offset: i64,
    reverse: bool,
}

fn best_placement(
    oriented: &DnaString,
    reverse: bool,
    index: &HashMap<u64, Vec<usize>>,
    config: &AlignmentConfig,
) -> Option<Placement> {
    let k = config.anchor_k;
    if oriented.len() < k {
        return None;
    }
    let mut offsets: HashMap<i64, usize> = HashMap::new();
    let mut hits = 0usize;
    let mut pos = 0usize;
    while pos + k <= oriented.len() {
        let anchor = oriented.kmer_at(pos, k).expect("anchor in range");
        if let Some(ref_positions) = index.get(&anchor.packed()) {
            hits += 1;
            for &rp in ref_positions.iter().take(8) {
                *offsets.entry(rp as i64 - pos as i64).or_insert(0) += 1;
            }
        }
        if pos + k == oriented.len() {
            break;
        }
        pos = (pos + config.anchor_stride).min(oriented.len() - k);
    }
    // Cluster offsets within the alignment band: a handful of small indels
    // shifts later anchors by a few positions but does not make the placement
    // inconsistent (only genuinely chimeric contigs should count as
    // misassembled).
    let tolerance = config.band as i64;
    let (offset, votes) = offsets
        .keys()
        .map(|&candidate| {
            let clustered: usize = offsets
                .iter()
                .filter(|(&o, _)| (o - candidate).abs() <= tolerance)
                .map(|(_, &v)| v)
                .sum();
            (candidate, clustered)
        })
        .max_by_key(|&(_, v)| v)?;
    Some(Placement {
        votes,
        hits,
        offset,
        reverse,
    })
}

/// Aligns every contig against the reference and accumulates the
/// reference-based metrics.
pub fn align_contigs(
    contigs: &[DnaString],
    reference: &DnaString,
    config: &AlignmentConfig,
) -> ReferenceMetrics {
    let index = index_reference(reference, config.anchor_k);
    let ref_bases = reference.to_bases();
    let mut covered = vec![false; reference.len()];
    let mut metrics = ReferenceMetrics::default();

    for contig in contigs {
        if contig.len() < config.anchor_k {
            metrics.unaligned_length += contig.len();
            continue;
        }
        let forward = best_placement(contig, false, &index, config);
        let rc = contig.reverse_complement();
        let backward = best_placement(&rc, true, &index, config);
        let placement = match (forward, backward) {
            (Some(f), Some(b)) => Some(if f.votes >= b.votes { f } else { b }),
            (Some(f), None) => Some(f),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        };
        let Some(placement) = placement else {
            metrics.unaligned_length += contig.len();
            continue;
        };
        if placement.hits == 0 || placement.votes == 0 {
            metrics.unaligned_length += contig.len();
            continue;
        }
        let consistent = placement.votes as f64 / placement.hits as f64;
        if consistent < config.min_consistent_fraction {
            metrics.misassemblies += 1;
            metrics.misassembled_length += contig.len();
        }

        let oriented = if placement.reverse {
            rc.clone()
        } else {
            contig.clone()
        };
        let oriented_bases = oriented.to_bases();
        // Clip the contig to the reference window implied by the offset.
        let (contig_start, ref_start) = if placement.offset >= 0 {
            (0usize, placement.offset as usize)
        } else {
            ((-placement.offset) as usize, 0usize)
        };
        if ref_start >= reference.len() || contig_start >= oriented.len() {
            metrics.unaligned_length += contig.len();
            continue;
        }
        let span = (oriented.len() - contig_start).min(reference.len() - ref_start);
        let contig_part = &oriented_bases[contig_start..contig_start + span];
        let ref_part = &ref_bases[ref_start..ref_start + span];
        let diffs = banded_diff_counts(contig_part, ref_part, config.band);

        metrics.total_mismatches += diffs.substitutions;
        metrics.total_indels += diffs.indels;
        metrics.aligned_length += span;
        metrics.largest_alignment = metrics.largest_alignment.max(span);
        let clipped = contig.len() - span;
        metrics.unaligned_length += clipped;
        for flag in covered.iter_mut().skip(ref_start).take(span) {
            *flag = true;
        }
    }

    let covered_count = covered.iter().filter(|&&c| c).count();
    metrics.genome_fraction_percent = if reference.is_empty() {
        0.0
    } else {
        100.0 * covered_count as f64 / reference.len() as f64
    };
    if metrics.aligned_length > 0 {
        metrics.mismatches_per_100kbp =
            metrics.total_mismatches as f64 * 100_000.0 / metrics.aligned_length as f64;
        metrics.indels_per_100kbp =
            metrics.total_indels as f64 * 100_000.0 / metrics.aligned_length as f64;
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_readsim::GenomeConfig;

    fn reference(len: usize, seed: u64) -> DnaString {
        GenomeConfig {
            length: len,
            repeat_families: 0,
            seed,
            ..Default::default()
        }
        .generate()
        .sequence
    }

    fn cfg() -> AlignmentConfig {
        AlignmentConfig {
            anchor_k: 15,
            anchor_stride: 16,
            ..Default::default()
        }
    }

    #[test]
    fn perfect_contigs_cover_the_reference() {
        let reference = reference(5_000, 3);
        // Three contigs tiling the reference with a gap.
        let contigs = vec![
            reference.substring(0, 2_000),
            reference.substring(2_100, 1_900),
            reference.substring(4_100, 900),
        ];
        let m = align_contigs(&contigs, &reference, &cfg());
        assert_eq!(m.misassemblies, 0);
        assert_eq!(m.total_mismatches, 0);
        assert_eq!(m.total_indels, 0);
        assert_eq!(m.unaligned_length, 0);
        assert_eq!(m.largest_alignment, 2_000);
        assert_eq!(m.aligned_length, 4_800);
        // 4800 of 5000 covered → 96%.
        assert!((m.genome_fraction_percent - 96.0).abs() < 0.1);
    }

    #[test]
    fn reverse_complement_contigs_align() {
        let reference = reference(3_000, 7);
        let contigs = vec![reference.substring(500, 1_500).reverse_complement()];
        let m = align_contigs(&contigs, &reference, &cfg());
        assert_eq!(m.misassemblies, 0);
        assert_eq!(m.total_mismatches, 0);
        assert_eq!(m.aligned_length, 1_500);
        assert!((m.genome_fraction_percent - 50.0).abs() < 0.1);
    }

    #[test]
    fn substitutions_are_counted() {
        let reference = reference(2_000, 11);
        let mut bases = reference.substring(200, 1_000).to_bases();
        // Introduce 5 substitutions.
        for i in [100usize, 300, 500, 700, 900] {
            bases[i] = bases[i].complement();
        }
        let contig = DnaString::from_bases(&bases);
        let m = align_contigs(&[contig], &reference, &cfg());
        assert_eq!(m.misassemblies, 0);
        assert_eq!(m.total_mismatches, 5);
        assert_eq!(m.total_indels, 0);
        assert!((m.mismatches_per_100kbp - 500.0).abs() < 1.0);
    }

    #[test]
    fn indels_are_counted() {
        let reference = reference(2_000, 13);
        let mut bases = reference.substring(300, 800).to_bases();
        // Delete two bases and insert one elsewhere.
        bases.remove(100);
        bases.remove(400);
        bases.insert(600, Base::A);
        let contig = DnaString::from_bases(&bases);
        let m = align_contigs(&[contig], &reference, &cfg());
        assert!(
            m.total_indels >= 3,
            "expected ≥3 indels, got {}",
            m.total_indels
        );
        assert!(m.total_mismatches <= 2);
    }

    #[test]
    fn chimeric_contig_is_a_misassembly() {
        let reference = reference(6_000, 17);
        // Join two distant regions into one contig.
        let mut chimera = reference.substring(100, 800);
        chimera.extend_from(&reference.substring(4_500, 800));
        let m = align_contigs(&[chimera], &reference, &cfg());
        assert_eq!(m.misassemblies, 1);
        assert_eq!(m.misassembled_length, 1_600);
    }

    #[test]
    fn random_contig_is_unaligned() {
        let reference = reference(2_000, 19);
        let noise = reference.substring(0, 600).reverse_complement();
        // A sequence from a *different* genome does not anchor anywhere.
        let other = GenomeConfig {
            length: 600,
            repeat_families: 0,
            seed: 999,
            ..Default::default()
        }
        .generate()
        .sequence;
        let m = align_contigs(&[other], &reference, &cfg());
        assert_eq!(m.aligned_length, 0);
        assert_eq!(m.unaligned_length, 600);
        assert_eq!(m.genome_fraction_percent, 0.0);
        // Sanity: the rc control does align.
        let m2 = align_contigs(&[noise], &reference, &cfg());
        assert_eq!(m2.unaligned_length, 0);
    }

    #[test]
    fn short_contigs_below_anchor_size_are_unaligned() {
        let reference = reference(1_000, 23);
        let tiny = reference.substring(10, 10);
        let m = align_contigs(&[tiny], &reference, &cfg());
        assert_eq!(m.unaligned_length, 10);
    }

    #[test]
    fn banded_diff_counts_examples() {
        let a = DnaString::from_ascii("ACGTACGTAC").unwrap().to_bases();
        let b = DnaString::from_ascii("ACGTTCGTAC").unwrap().to_bases();
        let d = banded_diff_counts(&a, &b, 8);
        assert_eq!(
            d,
            DiffCounts {
                substitutions: 1,
                indels: 0
            }
        );
        let c = DnaString::from_ascii("ACGTCGTAC").unwrap().to_bases(); // one deletion
        let d = banded_diff_counts(&a, &c, 8);
        assert_eq!(
            d,
            DiffCounts {
                substitutions: 0,
                indels: 1
            }
        );
        let d = banded_diff_counts(&a, &[], 8);
        assert_eq!(
            d,
            DiffCounts {
                substitutions: 0,
                indels: 10
            }
        );
        let d = banded_diff_counts(&[], &[], 8);
        assert_eq!(
            d,
            DiffCounts {
                substitutions: 0,
                indels: 0
            }
        );
    }
}
