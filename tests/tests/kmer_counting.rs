//! Construction phase (i) — the bucketed (k+1)-mer counter — against three
//! independent yardsticks: a plain `HashMap` count over naively canonicalised
//! windows, the mini-MapReduce formulation it replaced (rebuilt here, on the
//! public `map_reduce_on`, as a reference), and itself under a
//! spill cap.

use ppa_assembler::ops::construct::{build_dbg_on, count_kplus1_mers_on, ConstructConfig};
use ppa_assembler::{edge_contributions, EdgeSlot, KmerVertex, PackedAdj};
use ppa_pregel::mapreduce::{map_reduce_on, Emitter};
use ppa_pregel::{ExecCtx, SpillPolicy};
use ppa_readsim::{GenomeConfig, ReadSimConfig};
use ppa_seq::kmer::{CanonicalScanner, SuperKmerScanner};
use ppa_seq::{Base, Kmer, ReadSet};
use ppa_tests::our_spill_dirs;
use proptest::prelude::*;
use std::collections::HashMap;
use std::ops::Range;

// ---------------------------------------------------------------------------
// (a) differential against a HashMap
// ---------------------------------------------------------------------------

/// Deterministic xorshift stream for the read generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn reverse_complement(seq: &[u8]) -> Vec<u8> {
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

/// Reads over a small genome with every shape the counter must get right:
/// substitution errors (singleton (k+1)-mers for θ to discard), `N`s and
/// lower case, reverse-complement duplicates of earlier reads (both strands
/// must land on one canonical key), an embedded reverse-palindrome of every
/// even length up to 32 (a (k+1)-mer that is its own reverse complement),
/// and reads shorter than k+1.
fn generated_reads(seed: u64) -> ReadSet {
    let mut rng = Rng(seed | 1);
    let half: Vec<u8> = (0..16).map(|_| b"ACGT"[rng.below(4)]).collect();
    let mut genome: Vec<u8> = (0..120).map(|_| b"ACGT"[rng.below(4)]).collect();
    genome.extend(&half);
    genome.extend(reverse_complement(&half));
    genome.extend((0..60).map(|_| b"ACGT"[rng.below(4)]));

    let mut reads: Vec<Vec<u8>> = Vec::new();
    for _ in 0..40 + rng.below(40) {
        if !reads.is_empty() && rng.below(5) == 0 {
            let earlier = reads[rng.below(reads.len())].clone();
            reads.push(reverse_complement(&earlier));
            continue;
        }
        let len = 1 + rng.below(70);
        let start = rng.below(genome.len() - len);
        let mut read = genome[start..start + len].to_vec();
        for c in read.iter_mut() {
            match rng.below(40) {
                0 => *c = b"ACGT"[rng.below(4)],
                1 => *c = b'N',
                2 => *c = c.to_ascii_lowercase(),
                _ => {}
            }
        }
        reads.push(read);
    }
    reads
        .into_iter()
        .enumerate()
        .map(|(i, seq)| (format!("r{i}"), seq))
        .collect()
}

/// The plain count: every ACGT-only window of k+1 bases, canonicalised by
/// the non-rolling `Kmer::canonical`, in a std `HashMap`.
fn hash_map_count(reads: &ReadSet, k: usize) -> HashMap<u64, u64> {
    let mut counts = HashMap::new();
    for read in &reads.records {
        for window in read.seq.windows(k + 1) {
            let Ok(text) = std::str::from_utf8(window) else {
                continue;
            };
            if let Ok(kmer) = Kmer::from_str_exact(&text.to_ascii_uppercase()) {
                *counts.entry(kmer.canonical().kmer.packed()).or_insert(0) += 1;
            }
        }
    }
    counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]
    #[test]
    fn prop_the_counter_matches_a_hash_map_count(
        seed in 1u64..u64::MAX,
        k_pick in 0usize..8,
        theta in 0u32..3,
        workers in 1usize..5,
        batch_size in 1usize..40,
    ) {
        // Odd k: the planted palindromes are (k+1)-mers. k = 31: 64-bit keys.
        let k = [1, 2, 3, 4, 7, 15, 21, 31][k_pick];
        let reads = generated_reads(seed);
        let config = ConstructConfig { k, min_coverage: theta, batch_size };
        let (counted, metrics) = count_kplus1_mers_on(&ExecCtx::new(workers), &reads, &config);

        let expected = hash_map_count(&reads, k);
        let mut kept: Vec<(u64, u32)> = expected
            .iter()
            .filter(|&(_, &n)| n > u64::from(theta))
            .map(|(&key, &n)| (key, n as u32))
            .collect();
        kept.sort_unstable();
        let mut got = counted;
        got.sort_unstable();
        prop_assert_eq!(got, kept);
        prop_assert_eq!(metrics.groups, expected.len() as u64);
        prop_assert_eq!(metrics.pairs_shuffled, expected.values().sum::<u64>());
        prop_assert_eq!(metrics.input_records, reads.len().div_ceil(batch_size) as u64);
    }
}

#[test]
fn the_generator_plants_what_it_promises() {
    // Guards the differential above against a generator that quietly stops
    // producing the hard cases.
    let reads = generated_reads(7);
    let has = |f: &dyn Fn(&[u8]) -> bool| reads.records.iter().any(|r| f(r.seq));
    assert!(has(&|s| s.contains(&b'N')));
    assert!(has(&|s| s.iter().any(u8::is_ascii_lowercase)));
    assert!(has(&|s| s.len() < 4));
    let palindromes = hash_map_count(&reads, 3)
        .keys()
        .filter(|&&key| {
            let kmer = Kmer::from_packed(key, 4).unwrap();
            kmer == kmer.reverse_complement()
        })
        .count();
    assert!(palindromes > 0, "no palindromic 4-mer in the reads");
    let set: std::collections::HashSet<Vec<u8>> =
        reads.records.iter().map(|r| r.seq.to_vec()).collect();
    assert!(
        reads
            .records
            .iter()
            .any(|r| r.seq.len() > 8 && set.contains(&reverse_complement(r.seq))),
        "no reverse-complement duplicate read"
    );
}

// ---------------------------------------------------------------------------
// (b) byte identity with the mini-MapReduce formulation this replaced
// ---------------------------------------------------------------------------

/// Construction as it was before the bucketed counter: phase (i) sorts each
/// batch's (k+1)-mers, emits `(key, count)` pairs through the
/// hash-partitioned shuffle and sums them per key. Returns the intermediate
/// `counted` vector, the distinct (k+1)-mers and the vertices.
fn mapreduce_construct(
    ctx: &ExecCtx,
    reads: &ReadSet,
    config: &ConstructConfig,
) -> (Vec<(u64, u32)>, u64, Vec<KmerVertex>) {
    let (k, theta) = (config.k, config.min_coverage);
    let batches: Vec<Range<usize>> = reads.records.chunk_ranges(config.batch_size).collect();
    let (counted, phase1) = map_reduce_on(
        ctx,
        batches,
        |batch: Range<usize>, out: &mut Emitter<'_, u64, u32>| {
            let mut scanner = CanonicalScanner::new(k + 1).unwrap();
            let mut kmers = Vec::new();
            for segment in reads
                .records
                .range(batch)
                .flat_map(|read| read.acgt_segments())
            {
                scanner.reset();
                for &c in segment {
                    let base = Base::from_ascii_checked(c).unwrap();
                    kmers.extend(scanner.push(base).map(|c| c.kmer.packed()));
                }
            }
            kmers.sort_unstable();
            for run in kmers.chunk_by(|a, b| a == b) {
                out.emit(run[0], run.len() as u32);
            }
        },
        |_w, key: &u64, counts: &mut [u32], out: &mut Vec<(u64, u32)>| {
            let total = counts.iter().map(|&c| u64::from(c)).sum::<u64>();
            let total = total.min(u64::from(u32::MAX)) as u32;
            if total > theta {
                out.push((*key, total));
            }
        },
    );
    let counted: Vec<(u64, u32)> = counted.into_iter().flatten().collect();
    let (vertices, _) = map_reduce_on(
        ctx,
        counted.clone(),
        |(packed, count): (u64, u32), out: &mut Emitter<'_, u64, (u8, u32)>| {
            let kplus1 = Kmer::from_packed(packed, k + 1).unwrap();
            let ((src, s_slot), (tgt, t_slot)) = edge_contributions(&kplus1);
            out.emit(src.packed(), (s_slot.bit() as u8, count));
            out.emit(tgt.packed(), (t_slot.bit() as u8, count));
        },
        |_w, key: &u64, slots: &mut [(u8, u32)], out: &mut Vec<KmerVertex>| {
            let mut adj = PackedAdj::new();
            for &(bit, coverage) in slots.iter() {
                adj.add(EdgeSlot::from_bit(u32::from(bit)), coverage);
            }
            out.push(KmerVertex {
                kmer: Kmer::from_packed(*key, k).unwrap(),
                adj,
            });
        },
    );
    (
        counted,
        phase1.groups,
        vertices.into_iter().flatten().collect(),
    )
}

fn simulated_reads(genome: usize, coverage: f64, n_rate: f64, seed: u64) -> ReadSet {
    let reference = GenomeConfig {
        length: genome,
        repeat_families: 2,
        repeat_copies: 2,
        repeat_length: 100,
        seed,
        ..Default::default()
    }
    .generate();
    ReadSimConfig {
        read_length: 100,
        coverage,
        substitution_rate: 0.01,
        indel_rate: 0.0,
        n_rate,
        both_strands: true,
        seed: seed + 1,
    }
    .simulate(&reference)
}

#[test]
fn counted_order_and_vertices_equal_the_mapreduce_formulation_byte_for_byte() {
    let reads = simulated_reads(5_000, 30.0, 0.002, 77);
    for (k, theta, batch_size) in [(31, 1, 256), (21, 2, 1024), (4, 0, 64)] {
        let config = ConstructConfig {
            k,
            min_coverage: theta,
            batch_size,
        };
        for workers in [1, 2, 3, 4] {
            let ctx = ExecCtx::new(workers);
            let (ref_counted, ref_distinct, ref_vertices) =
                mapreduce_construct(&ctx, &reads, &config);
            assert!(ref_counted.len() > 100, "k={k}: the pin must pin something");

            let (counted, phase1) = count_kplus1_mers_on(&ctx, &reads, &config);
            assert_eq!(
                counted, ref_counted,
                "k={k} workers={workers}: `counted` differs in content or order"
            );
            assert_eq!(phase1.groups, ref_distinct);
            assert_eq!(phase1.output_records, ref_counted.len() as u64);

            let dbg = build_dbg_on(&ctx, &reads, &config);
            assert_eq!(
                dbg.vertices, ref_vertices,
                "k={k} workers={workers}: vertices differ in content or order"
            );
            assert_eq!(dbg.stats.distinct_kplus1_mers, ref_distinct);
            assert_eq!(dbg.stats.kept_kplus1_mers, ref_counted.len() as u64);
            assert_eq!(dbg.stats.phase1.groups, phase1.groups);
            assert_eq!(
                dbg.stats.phase1.pairs_shuffled, phase1.pairs_shuffled,
                "one window, one scattered key"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// (c) capped = resident, every key over the disk at most once, nothing left
// ---------------------------------------------------------------------------

/// The bytes construct phase (i) scatters for `reads`: one 16-byte record
/// per super-k-mer of k+1 bases.
fn record_bytes(reads: &ReadSet, k: usize) -> u64 {
    let scanner = SuperKmerScanner::new(k + 1).unwrap();
    let mut records = 0u64;
    for read in &reads.records {
        scanner.scan(read.seq, |_| records += 1);
    }
    16 * records
}

/// The only spilling test of this binary, so its `our_spill_dirs` scans
/// cannot race a sibling's live job directory.
#[test]
fn a_capped_construction_equals_the_resident_one_and_cleans_up() {
    let reads = simulated_reads(8_000, 30.0, 0.0, 91);
    // 2 400 reads in batches of 100: 12 scan tasks per worker.
    let config = ConstructConfig {
        k: 21,
        min_coverage: 1,
        batch_size: 100,
    };
    let workers = 2;
    let ctx = ExecCtx::new(workers);
    let (resident_counted, resident_phase1) = count_kplus1_mers_on(&ctx, &reads, &config);
    let resident = build_dbg_on(&ctx, &reads, &config);
    assert_eq!(resident.stats.phase1.spilled_bytes, 0);
    assert_eq!(resident.stats.phase1.spilled_runs, 0);
    let windows: u64 = reads.records.iter().map(|r| r.seq.len() as u64 - 21).sum();
    assert_eq!(resident_phase1.pairs_shuffled, windows, "one per window");
    let records = record_bytes(&reads, config.k);
    assert!(
        records < 4 * windows,
        "{records} record bytes for {windows} windows"
    );

    // A scan task is 100 reads x 79 windows, cut into ~1.2 k super-k-mers of
    // 16 bytes: ~20 kB. Under the 512 KiB cap (64 KiB budget per worker) a
    // worker flushes every few tasks, in segments of tens of records
    // (framing under 5 %); under the 16 KiB cap (2 KiB budget) it flushes
    // after every task but its last, into 4096 buckets of a record or two
    // each (framing up to 8 bytes per 16-byte record).
    let mut flushes = Vec::new();
    for (cap, most_bytes) in [
        (512 << 10, records + records / 20),
        (16 << 10, records + records / 2 + 40),
    ] {
        ctx.set_spill(SpillPolicy::At(cap));
        let (counted, phase1) = count_kplus1_mers_on(&ctx, &reads, &config);
        let capped = build_dbg_on(&ctx, &reads, &config);
        ctx.clear_spill();
        assert_eq!(counted, resident_counted, "cap={cap}: `counted` diverged");
        assert_eq!(capped.vertices, resident.vertices, "cap={cap}");
        assert_eq!(phase1.pairs_shuffled, resident_phase1.pairs_shuffled);
        assert_eq!(phase1.groups, resident_phase1.groups);

        // Every record crosses the disk at most once, 16 bytes plus its
        // share of an 8-byte segment frame, and comes back exactly once.
        let p1 = &capped.stats.phase1;
        assert!(p1.spilled_bytes > 0, "cap={cap} must spill");
        assert_eq!(p1.spill_read_bytes, p1.spilled_bytes, "cap={cap}");
        assert!(
            p1.spilled_bytes <= most_bytes,
            "cap={cap}: {} bytes written for {records} bytes of records",
            p1.spilled_bytes
        );
        flushes.push(p1.spilled_runs);
        assert!(
            our_spill_dirs().is_empty(),
            "cap={cap}: leftovers {:?}",
            our_spill_dirs()
        );
    }
    assert!(
        flushes[0] >= 2 * workers as u64 && flushes[0] < flushes[1],
        "the roomy cap must flush several times per worker, the tight one more: {flushes:?}"
    );
    assert_eq!(
        flushes[1],
        24 - workers as u64,
        "the tight cap flushes after every task but each worker's last"
    );
}
