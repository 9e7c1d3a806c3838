//! Operation ① — the bucketed (k+1)-mer counter and the vertices built
//! from its survivors — against the naive oracle (`ppa_tests::oracle`): a
//! std `HashMap` count over upper-cased, naively canonicalised windows, and
//! each kept (k+1)-mer joining its two k-mers. Checked for content on
//! generated and simulated reads, for the key order both phases leave their
//! output in, and against itself under a spill cap.

use ppa_assembler::ops::construct::{build_dbg_on, count_kplus1_mers_on, ConstructConfig};
use ppa_pregel::{ExecCtx, SpillPolicy};
use ppa_readsim::{GenomeConfig, ReadSimConfig};
use ppa_seq::kmer::SuperKmerScanner;
use ppa_seq::ReadSet;
use ppa_tests::oracle::{self, Node};
use ppa_tests::{adversarial_reads, adversarial_sequences, our_spill_dirs, reverse_complement};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};

// ---------------------------------------------------------------------------
// (a) content, on generated reads
// ---------------------------------------------------------------------------

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
        let reads = adversarial_reads(seed);
        let config = ConstructConfig { k, min_coverage: theta, batch_size };
        let (counted, metrics) = count_kplus1_mers_on(&ExecCtx::new(workers), &reads, &config);

        let seqs = adversarial_sequences(seed);
        let expected = oracle::construct(seqs.iter().map(Vec::as_slice), k, theta);
        prop_assert_eq!(counted, expected.kept(theta), "in key order");
        prop_assert_eq!(metrics.groups, expected.counts.len() as u64);
        prop_assert_eq!(metrics.pairs_shuffled, expected.counts.values().sum::<u64>());
        prop_assert_eq!(metrics.input_records, reads.len().div_ceil(batch_size) as u64);
    }
}

#[test]
fn the_generator_plants_what_it_promises() {
    // Guards the differentials against a generator that quietly stops
    // producing the hard cases.
    let seqs = adversarial_sequences(7);
    let has = |f: &dyn Fn(&[u8]) -> bool| seqs.iter().any(|s| f(s));
    assert!(has(&|s| s.contains(&b'N')));
    assert!(has(&|s| s.iter().any(u8::is_ascii_lowercase)));
    assert!(has(&|s| s.len() < 4), "a read shorter than k+1");
    assert!(seqs.iter().all(|s| (1..=70).contains(&s.len())));
    assert!(has(&|s| s.len() > 60));
    let set: HashSet<&[u8]> = seqs.iter().map(Vec::as_slice).collect();
    assert!(
        has(&|s| s.len() > 8 && set.contains(&reverse_complement(s)[..])),
        "no reverse-complement duplicate read"
    );

    // Windows as the counter reads them: upper-cased, ACGT only.
    let windows = |len: usize| -> Vec<Vec<u8>> {
        let mut all = Vec::new();
        for s in &seqs {
            let s = s.to_ascii_uppercase();
            let clean = s
                .windows(len)
                .filter(|w| w.iter().all(|b| b"ACGT".contains(b)));
            all.extend(clean.map(<[u8]>::to_vec));
        }
        all
    };
    for len in (2..=32).step_by(2) {
        assert!(
            windows(len).iter().any(|w| *w == reverse_complement(w)),
            "no reverse palindrome of {len} bases"
        );
    }
    // The three-fold repeat: a 14-mer read with three different 5-base
    // flanks on each side (a substitution changes one flank, not both).
    type Flanks = (HashSet<Vec<u8>>, HashSet<Vec<u8>>);
    let mut flanks: BTreeMap<Vec<u8>, Flanks> = BTreeMap::new();
    for w in windows(24) {
        let (left, right) = flanks.entry(w[5..19].to_vec()).or_default();
        left.insert(w[..5].to_vec());
        right.insert(w[19..].to_vec());
    }
    assert!(
        flanks.values().any(|(l, r)| l.len() >= 3 && r.len() >= 3),
        "no 14-mer in three contexts"
    );
    // Substitutions: a 20-mer and a variant one base apart, both seen.
    let twenty: HashSet<Vec<u8>> = windows(20).into_iter().collect();
    let substituted = twenty.iter().any(|w| {
        (0..w.len()).any(|i| {
            b"ACGT".iter().any(|&b| {
                let mut v = w.clone();
                v[i] = b;
                b != w[i] && twenty.contains(&v)
            })
        })
    });
    assert!(substituted, "no substitution error");
    // The tandem repeat: a read that is one short unit over and over.
    assert!(
        has(&|s| s.len() >= 40 && (3..=12).any(|p| s[p..] == s[..s.len() - p])),
        "no tandem-repeat read"
    );
}

// ---------------------------------------------------------------------------
// (b) content and order on simulated reads
// ---------------------------------------------------------------------------

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
fn counted_and_vertices_match_the_oracle_in_key_order() {
    let reads = simulated_reads(5_000, 30.0, 0.002, 77);
    for (k, theta, batch_size) in [(31, 1, 256), (21, 2, 1024), (4, 0, 64)] {
        let config = ConstructConfig {
            k,
            min_coverage: theta,
            batch_size,
        };
        let seqs = ppa_tests::sequences(&reads);
        let want = oracle::construct(seqs.iter().map(Vec::as_slice), k, theta);
        let kept: BTreeMap<u64, u32> = want.kept(theta).into_iter().collect();
        assert!(kept.len() > 100, "k={k}: the pin must pin something");
        for workers in [1, 2, 3, 4] {
            let at = format!("k={k} workers={workers}");
            let ctx = ExecCtx::new(workers);
            let (counted, phase1) = count_kplus1_mers_on(&ctx, &reads, &config);
            let kept_in_order: Vec<(u64, u32)> = kept.iter().map(|(&key, &n)| (key, n)).collect();
            assert_eq!(counted, kept_in_order, "{at}");
            assert_eq!(phase1.groups, want.counts.len() as u64);
            assert_eq!(phase1.output_records, kept.len() as u64);

            let dbg = build_dbg_on(&ctx, &reads, &config);
            let ids: Vec<u64> = dbg.vertices.iter().map(|v| v.id()).collect();
            let want_ids: Vec<u64> = want.nodes.iter().map(|n| n.id).collect();
            assert_eq!(ids, want_ids, "vertex order: {at}");
            for (vertex, node) in dbg.vertices.iter().zip(&want.nodes) {
                let got = Node::from_asm(&vertex.to_asm_node());
                assert_eq!(got.link_multiset(), node.link_multiset(), "{at}");
                assert_eq!(got.coverage, node.coverage, "{at}");
            }
            assert_eq!(dbg.stats.distinct_kplus1_mers, want.counts.len() as u64);
            assert_eq!(dbg.stats.kept_kplus1_mers, kept.len() as u64);
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

/// The bytes construct phase (i) scatters for `reads`: one 8-byte record
/// (a one-word reference into the read slab) per super-k-mer of k+1 bases.
fn record_bytes(reads: &ReadSet, k: usize) -> u64 {
    let scanner = SuperKmerScanner::new(k + 1).unwrap();
    let mut records = 0u64;
    for read in &reads.records {
        scanner.scan_codes(read.codes(), |_| records += 1);
    }
    8 * records
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
    let resident_p2 = &resident.stats.phase2;
    assert_eq!(resident_p2.input_records, resident.stats.kept_kplus1_mers);
    assert_eq!(
        resident_p2.pairs_shuffled,
        2 * resident.stats.kept_kplus1_mers
    );
    assert_eq!(resident_p2.groups, resident.stats.vertices);
    assert_eq!(resident_p2.output_records, resident.stats.vertices);
    assert_eq!(
        (resident_p2.spilled_bytes, resident_p2.spilled_runs),
        (0, 0)
    );
    let windows: u64 = reads.records.iter().map(|r| r.len() as u64 - 21).sum();
    assert_eq!(resident_phase1.pairs_shuffled, windows, "one per window");
    let records = record_bytes(&reads, config.k);
    assert!(
        records < 2 * windows,
        "{records} record bytes for {windows} windows: fewer than one super-k-mer per 4"
    );

    // What a capped phase (i) writes, in the version-2 key-segment layout:
    // each worker's file opens with a 24-byte header (magic, version, record
    // width, segment count); each segment is a frame of a `u32` length, a
    // `u32` bucket and its 8-byte records, so it costs 8 bytes of framing,
    // and a flush writes one segment per non-empty bucket. Every record is
    // written at most once. A scan task is 100 reads x 79 windows, cut into
    // ~1.3 k records: ~10 kB.
    // - 512 KiB cap: a worker's budget is 64 KiB, planned as 256 buckets of
    //   16-record (128-byte) chunks. It flushes once its chunks pass 512, of
    //   which at most 256 (one per bucket) are partly filled, so a flush
    //   holds at least 256 x 16 records in at most 256 segments: at most 8
    //   bytes of framing per 16 records.
    // - 16 KiB cap: a 2 KiB budget, 4096 buckets, a flush after every task
    //   but its last, segments of a record or two: at most 8 bytes of
    //   framing per record.
    let headers = 24 * workers as u64;
    let mut flushes = Vec::new();
    for (cap, most_bytes) in [
        (512 << 10, records + records / 16 + headers),
        (16 << 10, 2 * records + headers),
    ] {
        ctx.set_spill(SpillPolicy::At(cap));
        let (counted, phase1) = count_kplus1_mers_on(&ctx, &reads, &config);
        let capped = build_dbg_on(&ctx, &reads, &config);
        ctx.clear_spill();
        assert_eq!(counted, resident_counted, "cap={cap}: `counted` diverged");
        assert_eq!(capped.vertices, resident.vertices, "cap={cap}");
        assert_eq!(phase1.pairs_shuffled, resident_phase1.pairs_shuffled);
        assert_eq!(phase1.groups, resident_phase1.groups);

        // Every record crosses the disk at most once, 8 bytes plus its share
        // of an 8-byte segment frame, and comes back exactly once.
        let p1 = &capped.stats.phase1;
        assert!(p1.spilled_bytes > 0, "cap={cap} must spill");
        assert_eq!(p1.spill_read_bytes, p1.spilled_bytes, "cap={cap}");
        assert!(
            p1.spilled_bytes <= most_bytes,
            "cap={cap}: {} bytes written for {records} bytes of records",
            p1.spilled_bytes
        );
        flushes.push(p1.spilled_runs);
        // Phase (ii) spills its edge records the same way, two per kept
        // (k+1)-mer, and keeps the resident pass's counts.
        let (p2, resident_p2) = (&capped.stats.phase2, &resident.stats.phase2);
        assert!(p2.spilled_bytes > 0, "cap={cap}: phase (ii) must spill");
        assert!(p2.spilled_runs > 0, "cap={cap}");
        assert_eq!(p2.spill_read_bytes, p2.spilled_bytes, "cap={cap}");
        assert_eq!(
            (
                p2.input_records,
                p2.pairs_shuffled,
                p2.groups,
                p2.output_records
            ),
            (
                resident_p2.input_records,
                resident_p2.pairs_shuffled,
                resident_p2.groups,
                resident_p2.output_records
            ),
            "cap={cap}"
        );
        assert!(
            p2.spilled_bytes <= 16 * p2.pairs_shuffled + 8 * p2.pairs_shuffled / 2,
            "cap={cap}: {} bytes written for {} edge records",
            p2.spilled_bytes,
            p2.pairs_shuffled
        );
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
