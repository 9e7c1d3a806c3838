//! Pins the `ppa_pregel::radix` zero-allocation contract: once the record
//! buffer and the ping-pong scratch are warm, sorting performs **no** heap
//! allocation — the property that makes the runner's steady-state presort
//! (scratch held for the whole job in the per-worker planes) free of
//! per-superstep allocation. The dense plane makes the same promise for its
//! job-local outboxes, CSR offsets and inbox: past the first supersteps of a
//! job, a superstep costs the pool's two phase hand-offs and nothing that
//! grows with the job. The FASTA/FASTQ parser promises no per-read
//! allocation: its columns grow geometrically and its line buffers are
//! reused, so 10 000 reads cost a few reallocations more than 100; the
//! FASTQ writer decodes every record into one reused buffer.
//! Construction hands its k-mer vertices on as Figure 8's columns: the node
//! set `Construct` leaves in a `GraphState` holds at most 28 heap bytes per
//! vertex — a k-mer, a bitmap, an offset and about two coverage counters —
//! and `KmerGraph::heap_bytes` reports them. Construction allocates nothing
//! per vertex: 100 times the vertices cost a few reallocations more.
//! Contig merging (③) groups the labelled vertices through one sorted ID
//! index and a `u32` CSR column: its heap high-water over what was live at
//! its entry stays under 48 bytes per labelled vertex, where the
//! MapReduce-based grouping (an all-node hash map, a copy of the labels and
//! the shuffle buffers) took 60 on the same reads.
//!
//! This file must stay a single-test binary: the counting allocator
//! (`ppa_tests::heap`) is process-global, and a concurrently running test
//! would pollute the count.

use ppa_assembler::ops::construct::{build_dbg_on, ConstructConfig};
use ppa_assembler::ops::label::label_contigs_lr_on;
use ppa_assembler::ops::merge::{merge_contigs_on, MergeConfig};
use ppa_assembler::pipeline::{Construct, GraphState, Stage};
use ppa_assembler::KmerGraph;
use ppa_pregel::aggregate::NoAggregate;
use ppa_pregel::{run_dense_on, Context, DenseSet, ExecCtx, PregelConfig, VertexProgram};
use ppa_readsim::{GenomeConfig, ReadSimConfig};
use ppa_seq::ReadSet;
use ppa_tests::heap::{self, CountingAlloc};
use std::io::Cursor;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Deterministic xorshift refill: same capacity, different permutation each
/// round, never growing the buffer.
fn refill(records: &mut Vec<(u64, u64)>, n: u64, seed: u64) {
    records.clear();
    let mut state = seed | 1;
    for i in 0..n {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        records.push((state, i));
    }
}

/// Every vertex of a ring hands one message to its successor in each of the
/// first `laps` supersteps: the same traffic, worker pair by worker pair,
/// superstep after superstep.
struct Laps(usize);

impl VertexProgram for Laps {
    type Value = u64;
    type Message = u64;
    type Aggregate = NoAggregate;

    fn compute(&self, ctx: &mut Context<'_, Self>, id: u32, value: &mut u64, inbox: &mut [u64]) {
        *value += inbox.iter().sum::<u64>();
        if ctx.superstep() < self.0 {
            ctx.send_message((id + 1) % ctx.num_vertices() as u32, id as u64);
        }
        ctx.vote_to_halt();
    }
}

/// Heap allocations of one dense job of `laps + 1` supersteps over `ranks`
/// vertices (store construction not counted).
fn dense_job_allocations(ctx: &ExecCtx, ranks: u32, laps: usize) -> u64 {
    let (mut set, _) = DenseSet::from_fn_on(ctx, ranks, |_, _: &mut ()| Some(0u64));
    let config = PregelConfig::default().track_supersteps(false);
    let before = heap::allocations();
    let metrics = run_dense_on(ctx, &Laps(laps), &config, &mut set);
    let allocations = heap::allocations() - before;
    assert_eq!(metrics.supersteps, laps + 1);
    assert_eq!(metrics.total_messages, ranks as u64 * laps as u64);
    allocations
}

/// `reads` FASTQ and FASTA records of 150 bases under multi-field headers,
/// the FASTA wrapped at 60 columns.
fn reads_files(reads: usize) -> (String, String) {
    let (mut fastq, mut fasta) = (String::new(), String::new());
    for i in 0..reads {
        let seq: String = (0..150)
            .map(|j| ['A', 'C', 'G', 'T'][(i * 7 + j * j) % 4])
            .collect();
        fastq += &format!("@read_{i} lane=1\n{seq}\n+\n{}\n", "I".repeat(150));
        fasta += &format!(
            ">read_{i} lane=1\n{}\n{}\n{}\n",
            &seq[..60],
            &seq[60..120],
            &seq[120..]
        );
    }
    (fastq, fasta)
}

/// Heap allocations of parsing `reads` records, FASTQ and FASTA, and of
/// writing them back as FASTQ (input construction not counted).
fn parse_allocations(reads: usize) -> (u64, u64, u64) {
    let (fastq, fasta) = reads_files(reads);
    let before = heap::allocations();
    let parsed = ReadSet::new()
        .parse_fastq(Cursor::new(fastq.as_bytes()))
        .unwrap();
    let fastq_allocations = heap::allocations() - before;
    assert_eq!(parsed.len(), reads);
    let before = heap::allocations();
    parsed.write_fastq(std::io::sink()).unwrap();
    let write_allocations = heap::allocations() - before;
    let before = heap::allocations();
    let parsed = ReadSet::new()
        .parse_fasta(Cursor::new(fasta.as_bytes()))
        .unwrap();
    let fasta_allocations = heap::allocations() - before;
    assert_eq!(parsed.total_bases(), 150 * reads);
    (fastq_allocations, fasta_allocations, write_allocations)
}

/// 1 %-error reads of a simulated 20 kb genome.
fn simulated_reads() -> ReadSet {
    reads_of_a_genome(20_000)
}

/// 30x 1 %-error reads of a simulated genome of `length` bases.
fn reads_of_a_genome(length: usize) -> ReadSet {
    let genome = GenomeConfig {
        length,
        seed: 5,
        ..Default::default()
    }
    .generate();
    ReadSimConfig {
        read_length: 100,
        coverage: 30.0,
        substitution_rate: 0.01,
        indel_rate: 0.0,
        n_rate: 0.0,
        both_strands: true,
        seed: 6,
    }
    .simulate(&genome)
}

/// The node set `Construct` leaves in a `GraphState`, on
/// [`simulated_reads`] at k = 31: the live bytes that emptying it frees,
/// what `KmerGraph::heap_bytes` said it held, and its vertex count.
fn construct_heap(ctx: &ExecCtx, reads: &ReadSet) -> (u64, u64, usize) {
    let mut state = GraphState::new(reads);
    Construct::new(ConstructConfig::default()).run(&mut state, ctx);
    let graph = &state.nodes;
    let (reported, vertices) = (graph.heap_bytes() as u64, graph.len());
    assert!(vertices > 15_000, "{vertices} vertices");
    let held = heap::live_bytes();
    state.nodes = KmerGraph::default();
    let freed = held - heap::live_bytes();
    (freed, reported, vertices)
}

/// Heap allocations of `build_dbg_on` over `reads` (the reads not counted),
/// and the vertices it built.
fn construct_allocations(ctx: &ExecCtx, reads: &ReadSet) -> (u64, usize) {
    let before = heap::allocations();
    let graph = build_dbg_on(ctx, reads, &ConstructConfig::default()).vertices;
    (heap::allocations() - before, graph.len())
}

/// Contig merging's heap high-water, over the bytes live at its entry, per
/// labelled vertex: operation ③ on the packed node set of
/// [`simulated_reads`] after list-ranking labeling (the contigs it returns
/// count too).
fn merge_peak_bytes_per_labelled_vertex(ctx: &ExecCtx, reads: &ReadSet) -> f64 {
    let mut state = GraphState::new(reads);
    Construct::new(ConstructConfig::default()).run(&mut state, ctx);
    let nodes = &state.nodes;
    let labels = label_contigs_lr_on(ctx, nodes).labels;
    assert!(labels.len() > 15_000, "{} labelled vertices", labels.len());
    let config = MergeConfig {
        k: 31,
        tip_length_threshold: 80,
    };
    let entry = heap::live_bytes();
    heap::reset_peak();
    let merged = merge_contigs_on(ctx, nodes, &labels, &config);
    let high_water = heap::peak_bytes() - entry;
    assert!(!merged.contigs.is_empty());
    high_water as f64 / labels.len() as f64
}

#[test]
fn steady_state_radix_sort_is_allocation_free() {
    const N: u64 = 100_000;
    let mut records: Vec<(u64, u64)> = Vec::new();
    let mut scratch: Vec<(u64, u64)> = Vec::new();

    // Warm-up: first sort grows the scratch to the record count.
    refill(&mut records, N, 0x9E37_79B9);
    ppa_pregel::radix::sort_pairs(&mut records, &mut scratch);

    let before = heap::allocations();
    for round in 1..=10u64 {
        refill(&mut records, N, round.wrapping_mul(0x2545_F491_4F6C_DD1D));
        ppa_pregel::radix::sort_pairs(&mut records, &mut scratch);
        assert!(
            records.windows(2).all(|w| w[0].0 <= w[1].0),
            "output sorted (round {round})"
        );
    }
    let allocations = heap::allocations() - before;
    assert_eq!(
        allocations, 0,
        "steady-state radix sorting must not touch the heap"
    );

    // The dense plane: twelve more supersteps of a 100 000-vertex job cost
    // exactly what they cost an 8-vertex job — the two pool hand-offs per
    // superstep (boxed jobs, input and result vectors) — so no outbox, offset
    // array or inbox is allocated or regrown after the first supersteps.
    let ctx = ExecCtx::new(2);
    let per_step = |ranks: u32| {
        let extra = dense_job_allocations(&ctx, ranks, 24) - dense_job_allocations(&ctx, ranks, 12);
        assert_eq!(extra % 12, 0, "every steady-state superstep costs the same");
        extra / 12
    };
    let (large, small) = (per_step(100_000), per_step(8));
    assert_eq!(
        large, small,
        "a steady-state dense superstep must not allocate per vertex or message"
    );
    assert!(small <= 24, "two phase hand-offs, got {small} allocations");

    // The read slab: five columns doubling from empty reallocate about
    // log2(100) = 7 times more each for 100x the reads; one allocation per
    // read would be ~10 000 more. Writing decodes every record into one
    // reused buffer, which grows once.
    let (fastq_small, fasta_small, write_small) = parse_allocations(100);
    let (fastq_large, fasta_large, write_large) = parse_allocations(10_000);
    for (format, small, large) in [
        ("FASTQ", fastq_small, fastq_large),
        ("FASTA", fasta_small, fasta_large),
        ("writing FASTQ", write_small, write_large),
    ] {
        assert!(
            large <= small + 40,
            "{format}: 10 000 reads cost {large} allocations, 100 reads {small}"
        );
    }

    // The k-mer graph: four columns of exactly their length, and
    // `heap_bytes` tells what they hold.
    let reads = simulated_reads();
    let (freed, reported, vertices) = construct_heap(&ctx, &reads);
    let per_vertex = freed as f64 / vertices as f64;
    assert!(
        per_vertex <= 28.0,
        "Construct left {per_vertex:.1} heap bytes per k-mer vertex"
    );
    assert!(
        freed.abs_diff(reported) * 20 <= freed,
        "heap_bytes says {reported}, the allocator freed {freed}"
    );

    // No allocation per vertex: every column is reserved from a count,
    // never grown one vertex at a time. What 100 times the vertices add is
    // the doubling of per-worker survivor and scratch vectors, about 30
    // reallocations, and each phase (i) fold worker's count table, whose
    // three arrays double up to the most distinct keys one of its buckets
    // holds: a logarithm of the bucket size, within 16 per worker here.
    let (small, small_vertices) = construct_allocations(&ctx, &reads_of_a_genome(1_000));
    let (large, large_vertices) = construct_allocations(&ctx, &reads_of_a_genome(100_000));
    assert!(
        large_vertices >= 90 * small_vertices,
        "{large_vertices} vs {small_vertices} vertices"
    );
    assert!(
        large <= small + 48 + 16 * ctx.workers() as u64,
        "construct: {large_vertices} vertices cost {large} allocations, \
         {small_vertices} vertices {small}"
    );

    // Contig merging: the sorted ID index, two `u32` columns and the
    // contigs, nothing keyed by 64-bit IDs over the whole node set.
    let per_labelled = merge_peak_bytes_per_labelled_vertex(&ctx, &reads);
    assert!(
        per_labelled < 48.0,
        "merging peaked {per_labelled:.1} heap bytes per labelled vertex above its entry"
    );
}
