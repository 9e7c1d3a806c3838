//! Shared helpers for the baseline strategies.

use ppa_pregel::fxhash::hash_one;
use ppa_pregel::keycount::{count_keys_on, KeySink, Record, Records, KEYS_SHIFT};
use ppa_pregel::ExecCtx;
use ppa_seq::fastx::BREAK;
use ppa_seq::kmer::CanonicalScanner;
use ppa_seq::{Base, Kmer, ReadSet};
use std::ops::Range;

/// Counts canonical k-mers of the given size across all reads (splitting at
/// `N`s) on `ctx`'s pool and returns, in ascending key order, those whose
/// count exceeds `min_coverage`, with their counts. Every k-mer is scattered
/// as a record of its own.
pub fn count_canonical_kmers_on(
    ctx: &ExecCtx,
    reads: &ReadSet,
    k: usize,
    min_coverage: u32,
) -> Vec<(u64, u32)> {
    if k == 0 || k > ppa_seq::kmer::MAX_K {
        // Out-of-range k yields no k-mers (the pre-scanner sliding-window
        // path behaved the same way) instead of panicking inside a worker.
        return Vec::new();
    }
    let batches: Vec<Range<usize>> = reads.records.chunk_ranges(512).collect();
    let (counted, _) = count_keys_on(
        ctx,
        &batches,
        |batch| {
            let batch = reads.records.range(batch.clone());
            batch.map(|r| r.len().saturating_sub(k - 1)).sum()
        },
        |batch, sink: &mut KeySink| {
            let mut scanner = CanonicalScanner::new(k).expect("baseline k in range");
            for read in reads.records.range(batch.clone()) {
                scanner.reset();
                for code in read.codes() {
                    if code == BREAK {
                        scanner.reset();
                    } else if let Some(canonical) = scanner.push(Base::from_code(code)) {
                        let key = canonical.kmer.packed();
                        sink.push(hash_one(&key), [key, 1 << KEYS_SHIFT]);
                    }
                }
            }
        },
        Records {
            max_keys: 1,
            slab: None,
            expand: |records: &[Record], keys: &mut Vec<u64>| {
                keys.extend(records.iter().map(|record| record[0]));
            },
        },
        min_coverage,
    );
    counted
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
        let counts = count_canonical_kmers_on(&ExecCtx::new(2), &rs, 4, 0);
        assert!(!counts.is_empty());
        for &(packed, count) in &counts {
            let kmer = kmer_of(packed, 4);
            assert!(kmer.is_canonical());
            assert_eq!(count, 2, "k-mer {kmer} should be seen once per strand");
        }
    }

    #[test]
    fn out_of_range_k_yields_no_kmers() {
        let rs = reads(&["ACGTACGTAC"]);
        let ctx = ExecCtx::new(2);
        assert!(count_canonical_kmers_on(&ctx, &rs, 0, 0).is_empty());
        assert!(count_canonical_kmers_on(&ctx, &rs, 33, 0).is_empty());
    }

    #[test]
    fn coverage_filter_applies() {
        let rs = reads(&["ACGTACGTAC", "ACGTACGTAC", "TTTTGGGGCC"]);
        let ctx = ExecCtx::new(2);
        let strict = count_canonical_kmers_on(&ctx, &rs, 5, 1);
        let lenient = count_canonical_kmers_on(&ctx, &rs, 5, 0);
        assert!(strict.len() < lenient.len());
    }
}
