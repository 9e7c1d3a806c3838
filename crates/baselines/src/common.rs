//! Shared helpers for the baseline strategies.

use ppa_pregel::fxhash::FxHashMap;
use ppa_pregel::mapreduce::{map_reduce_on, Emitter};
use ppa_pregel::ExecCtx;
use ppa_seq::kmer::CanonicalScanner;
use ppa_seq::{Base, Kmer, ReadSet};
use std::collections::HashMap;
use std::ops::Range;

/// Counts canonical k-mers of the given size across all reads (splitting at
/// `N`s), in parallel, and drops those whose count does not exceed
/// `min_coverage`. (Private worker pool; prefer
/// [`count_canonical_kmers_on`] when the caller already has a context.)
pub fn count_canonical_kmers(
    reads: &ReadSet,
    k: usize,
    min_coverage: u32,
    workers: usize,
) -> HashMap<u64, u32> {
    count_canonical_kmers_on(&ExecCtx::new(workers), reads, k, min_coverage)
}

/// [`count_canonical_kmers`] on a caller-provided execution context.
pub fn count_canonical_kmers_on(
    ctx: &ExecCtx,
    reads: &ReadSet,
    k: usize,
    min_coverage: u32,
) -> HashMap<u64, u32> {
    if k == 0 || k > ppa_seq::kmer::MAX_K {
        // Out-of-range k yields no k-mers (the pre-scanner sliding-window
        // path behaved the same way) instead of panicking inside a worker.
        return HashMap::new();
    }
    let batches: Vec<Range<usize>> = reads.records.chunk_ranges(512).collect();
    let (counted, _) = map_reduce_on(
        ctx,
        batches,
        |batch: Range<usize>, out: &mut Emitter<'_, u64, u32>| {
            let mut local: FxHashMap<u64, u32> = FxHashMap::default();
            let mut scanner = CanonicalScanner::new(k).expect("baseline k in range");
            for read in reads.records.range(batch) {
                for segment in read.acgt_segments() {
                    if segment.len() < k {
                        continue;
                    }
                    scanner.reset();
                    for &c in segment {
                        let base = Base::from_ascii_checked(c).expect("ACGT segment");
                        if let Some(canonical) = scanner.push(base) {
                            *local.entry(canonical.kmer.packed()).or_insert(0) += 1;
                        }
                    }
                }
            }
            for (key, count) in local {
                out.emit(key, count);
            }
        },
        |_w: usize, key: &u64, counts: &mut [u32], out: &mut Vec<(u64, u32)>| {
            let total: u32 = counts.iter().sum();
            if total > min_coverage {
                out.push((*key, total));
            }
        },
    );
    counted.into_iter().flatten().collect()
}

/// Renders a packed k-mer back into a [`Kmer`].
pub fn kmer_of(packed: u64, k: usize) -> Kmer {
    Kmer::from_packed(packed, k).expect("valid packed k-mer")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reads(seqs: &[&str]) -> ReadSet {
        seqs.iter()
            .enumerate()
            .map(|(i, s)| (format!("r{i}"), s))
            .collect()
    }

    #[test]
    fn counts_merge_across_strands_and_reads() {
        let rs = reads(&["CTGCCGTACA", "TGTACGGCAG"]); // second is the reverse complement
        let counts = count_canonical_kmers(&rs, 4, 0, 2);
        assert!(!counts.is_empty());
        for (&packed, &count) in &counts {
            let kmer = kmer_of(packed, 4);
            assert!(kmer.is_canonical());
            assert_eq!(count, 2, "k-mer {kmer} should be seen once per strand");
        }
    }

    #[test]
    fn out_of_range_k_yields_no_kmers() {
        let rs = reads(&["ACGTACGTAC"]);
        assert!(count_canonical_kmers(&rs, 0, 0, 2).is_empty());
        assert!(count_canonical_kmers(&rs, 33, 0, 2).is_empty());
    }

    #[test]
    fn coverage_filter_applies() {
        let rs = reads(&["ACGTACGTAC", "ACGTACGTAC", "TTTTGGGGCC"]);
        let strict = count_canonical_kmers(&rs, 5, 1, 2);
        let lenient = count_canonical_kmers(&rs, 5, 0, 2);
        assert!(strict.len() < lenient.len());
    }
}
