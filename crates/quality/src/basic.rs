//! Reference-free assembly statistics.

use ppa_seq::DnaString;

/// Reference-free assembly statistics (the metrics of Table V).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BasicStats {
    /// Number of contigs at least `min_contig_length` long.
    pub num_contigs: usize,
    /// Total length of those contigs, in base pairs.
    pub total_length: usize,
    /// N50 of those contigs.
    pub n50: usize,
    /// N90 of those contigs.
    pub n90: usize,
    /// Length of the largest contig.
    pub largest_contig: usize,
    /// GC percentage (0–100) over those contigs.
    pub gc_percent: f64,
    /// The length cutoff that was applied.
    pub min_contig_length: usize,
}

/// The length `L` such that contigs of length ≥ `L` cover at least `fraction`
/// of the total assembled bases (the Nx family: N50 is `fraction = 0.5`, N90
/// is `0.9`). Returns 0 for an empty input.
///
/// This is the single Nx implementation of the workspace;
/// `ppa_assembler::stats` re-exports [`n50`] for the workflow statistics.
pub fn nx(lengths: &[usize], fraction: f64) -> usize {
    if lengths.is_empty() {
        return 0;
    }
    let mut sorted = lengths.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let total: usize = sorted.iter().sum();
    let target = (total as f64 * fraction).ceil() as usize;
    let mut acc = 0usize;
    for len in sorted {
        acc += len;
        if acc >= target {
            return len;
        }
    }
    0
}

/// The N50 of a set of contig lengths: [`nx`] at `fraction = 0.5`.
pub fn n50(lengths: &[usize]) -> usize {
    nx(lengths, 0.5)
}

/// Computes reference-free statistics over contigs of length ≥
/// `min_contig_length` (QUAST's default cutoff is 500 bp; the paper reports
/// "the number of contigs whose length is larger than 500 bp").
pub fn basic_stats(contigs: &[DnaString], min_contig_length: usize) -> BasicStats {
    let kept: Vec<&DnaString> = contigs
        .iter()
        .filter(|c| c.len() >= min_contig_length)
        .collect();
    let lengths: Vec<usize> = kept.iter().map(|c| c.len()).collect();
    let total_length: usize = lengths.iter().sum();
    let gc_bases: usize = kept
        .iter()
        .map(|c| {
            let counts = c.base_counts();
            counts[1] + counts[2]
        })
        .sum();
    BasicStats {
        num_contigs: kept.len(),
        total_length,
        n50: nx(&lengths, 0.5),
        n90: nx(&lengths, 0.9),
        largest_contig: lengths.iter().copied().max().unwrap_or(0),
        gc_percent: if total_length == 0 {
            0.0
        } else {
            100.0 * gc_bases as f64 / total_length as f64
        },
        min_contig_length,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contigs(lengths: &[usize]) -> Vec<DnaString> {
        lengths
            .iter()
            .map(|&l| DnaString::from_ascii(&"ACGT".repeat(l.div_ceil(4))[..l]).unwrap())
            .collect()
    }

    #[test]
    fn counts_and_lengths() {
        let c = contigs(&[1000, 600, 400, 80]);
        let stats = basic_stats(&c, 500);
        assert_eq!(stats.num_contigs, 2);
        assert_eq!(stats.total_length, 1600);
        assert_eq!(stats.largest_contig, 1000);
        assert_eq!(stats.n50, 1000);
        assert_eq!(stats.min_contig_length, 500);
        let all = basic_stats(&c, 0);
        assert_eq!(all.num_contigs, 4);
        assert_eq!(all.total_length, 2080);
    }

    #[test]
    fn n50_and_n90() {
        // Lengths 8,8,4,3,3,2,2,2 → total 32; N50 = 8; N90: need ≥ 28.8 → 8+8+4+3+3+2+2=30 → 2.
        let c = contigs(&[2, 2, 2, 3, 3, 4, 8, 8]);
        let stats = basic_stats(&c, 0);
        assert_eq!(stats.n50, 8);
        assert_eq!(stats.n90, 2);
    }

    #[test]
    fn gc_percent() {
        let c = vec![
            DnaString::from_ascii("GGGGCCCC").unwrap(),
            DnaString::from_ascii("AAAATTTT").unwrap(),
        ];
        let stats = basic_stats(&c, 0);
        assert!((stats.gc_percent - 50.0).abs() < 1e-9);
    }

    #[test]
    fn empty_input() {
        let stats = basic_stats(&[], 500);
        assert_eq!(stats.num_contigs, 0);
        assert_eq!(stats.total_length, 0);
        assert_eq!(stats.n50, 0);
        assert_eq!(stats.gc_percent, 0.0);
    }
}
