//! Operation ① — de Bruijn graph construction (Section IV-B).
//!
//! Two passes turn raw reads into k-mer vertices with packed adjacency
//! bitmaps. Both are one keyed pass of [`ppa_pregel::keycount`]: a scatter
//! of fixed-width records into buckets (the shuffle) and a fold of each
//! worker's contiguous range of buckets (the reduce).
//!
//! * **Phase (i)** ([`count_kplus1_mers_on`]): every read is cut into
//!   (k+1)-mers with a sliding window (Figure 4) that restarts at every `N`,
//!   and the canonical (k+1)-mers seen more than θ times are kept — the rest
//!   are discarded as likely sequencing errors. One scan of each read's
//!   2-bit codes, straight from the read slab's packed words
//!   ([`SuperKmerScanner::scan_codes`]), cuts it into super-k-mers — runs of
//!   consecutive windows that share their minimizer, up to `k + 2 − m` of
//!   them — and scatters them into buckets addressed by the minimizer's
//!   hash. A super-k-mer crosses the scatter as one word that points back
//!   into the slab: the slab position of its first base and its window
//!   count. Its bases are already there, two bits each, so it costs about
//!   0.75 bytes per window where a bare packed key took 8. The fold reads
//!   every bucket's super-k-mers back from the slab as canonical
//!   (k+1)-mers and counts them in a hash table sized by the bucket's
//!   distinct keys; only the survivors are sorted, once, after the
//!   scatter's buffers are freed, and they come out in key order.
//! * **Phase (ii)**: every surviving (k+1)-mer contributes one out-edge slot
//!   to its prefix k-mer vertex and one in-edge slot to its suffix k-mer
//!   vertex (with the appropriate polarity, Figure 6/8). Each contribution
//!   is scattered as a one-key record, `[k-mer, slot << 32 | coverage]`,
//!   to the bucket the k-mer's own top bits address, so the buckets are key
//!   ranges. The fold sorts each bucket's records by k-mer and appends every
//!   run as one vertex to the worker's [`KmerGraph`] columns — k-mer,
//!   bitmap, offset, and the run's slot coverages in bit order — reserved
//!   once from the range's key count (a record occupies one slot at most),
//!   with no allocation per vertex; the order of a run does not matter,
//!   because a vertex's slot counters sum what the run adds. The workers'
//!   columns are joined by growing the first worker's in place. The
//!   vertices come out **sorted by k-mer** — by vertex ID — with no further
//!   sort, which makes the k-mer column labeling's rank dictionary as it is.
//!
//! Under a [`SpillPolicy`](ppa_pregel::SpillPolicy) cap both passes spill
//! over-budget buckets as segments and read each back once.
//!
//! **Deviation from the paper:** Yan et al. state construction as
//! MapReduce-style rounds on their mini-MapReduce API extension, and chain
//! the jobs that follow with their `convert` extension. The rounds are kept
//! here (scatter = shuffle, fold = reduce), but there is no general
//! MapReduce and no `convert` job chaining: both phases run on the one
//! keyed pass, whose records are one or two words wide, and the vertices are
//! handed to labeling as the graph's columns.

use crate::adj::{edge_contributions, EdgeSlot};
use crate::node::KmerGraph;
use crate::stats::{Phase, PhaseClock, PhaseTimes};
use ppa_pregel::keycount::{
    count_keys_on, fold_buckets_on, Buckets, KeySink, Record, Records, SlabExtent, KEYS_SHIFT,
};
use ppa_pregel::{ExecCtx, MapReduceMetrics};
use ppa_seq::kmer::{SuperKmer, SuperKmerScanner};
use ppa_seq::{Kmer, ReadSet};
use std::ops::Range;
use std::time::{Duration, Instant};

// A super-k-mer's window count is where the counter reads a record's keys.
const _: () = assert!(SuperKmer::WINDOWS_SHIFT == KEYS_SHIFT);

/// Configuration of DBG construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstructConfig {
    /// k-mer size (the paper uses k = 31); (k+1)-mers are extracted from reads.
    pub k: usize,
    /// Coverage threshold θ: a (k+1)-mer is kept only if its count is strictly
    /// greater than θ. `0` keeps everything (useful for error-free input).
    pub min_coverage: u32,
    /// The scan task granule of phase (i): reads are handed to the workers in
    /// runs of this many, and under a spill cap a worker checks its buffered
    /// super-k-mers against the budget after each run.
    pub batch_size: usize,
}

impl Default for ConstructConfig {
    fn default() -> Self {
        ConstructConfig {
            k: 31,
            min_coverage: 1,
            batch_size: 1024,
        }
    }
}

/// Statistics of one DBG construction run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConstructStats {
    /// Distinct canonical (k+1)-mers observed before filtering.
    pub distinct_kplus1_mers: u64,
    /// (k+1)-mers surviving the coverage filter θ.
    pub kept_kplus1_mers: u64,
    /// Number of k-mer vertices in the resulting DBG.
    pub vertices: u64,
    /// Total number of directed adjacency slots across all vertices (edge
    /// records; each physical edge contributes two).
    pub adjacency_slots: u64,
    /// Metrics of the counting phase, in the mini-MapReduce shape:
    /// `input_records` = read batches, `pairs_shuffled` = (k+1)-mer
    /// occurrences scattered — one per window, though they cross the scatter
    /// as 8-byte super-k-mer references of about ten windows each, where the
    /// shuffle this replaced moved 16-byte `(key, count)` pairs
    /// pre-aggregated per batch — `groups` = distinct (k+1)-mers,
    /// `output_records` = (k+1)-mers kept, `spilled_runs` = times a worker's
    /// scatter buffers were flushed to disk under a spill cap.
    pub phase1: MapReduceMetrics,
    /// Metrics of the vertex-building phase: `input_records` = (k+1)-mers
    /// kept, `pairs_shuffled` = the edge records they scattered, two each,
    /// `groups` = `output_records` = vertices, and the spill counters of the
    /// segments, as for `phase1`.
    pub phase2: MapReduceMetrics,
    /// Wall-clock time of the whole operation.
    pub elapsed: Duration,
    /// The operation's [`Phase`]s: each phase's scatter and fold, and the
    /// sort of phase (i)'s survivors.
    pub phases: PhaseTimes,
}

/// Output of DBG construction: the k-mer vertices in their compact form.
#[derive(Debug, Clone)]
// ppa_lint: allow(test-only-pub) the return type of `build_dbg_on`
pub struct ConstructOutcome {
    /// The k-mer vertices as columns, sorted by ID.
    pub vertices: KmerGraph,
    /// The k used.
    pub k: usize,
    /// Run statistics.
    pub stats: ConstructStats,
}

impl ConstructOutcome {
    /// Expands every vertex into the unified [`crate::AsmNode`] representation,
    /// consuming the outcome. The pipeline does not take this step: labeling
    /// and merging read the graph's columns through
    /// [`NodeSource`](crate::node::NodeSource), and only the ambiguous k-mers
    /// that merging parks are expanded. It serves callers that want the
    /// expanded graph whole (the baselines, reference comparisons). Use
    /// [`to_nodes`](ConstructOutcome::to_nodes) when the compact vertices are
    /// still needed afterwards.
    pub fn into_nodes(self) -> Vec<crate::AsmNode> {
        self.vertices.to_nodes()
    }

    /// Like [`into_nodes`](ConstructOutcome::into_nodes), but borrows the
    /// outcome so `vertices`/`stats` remain available.
    pub fn to_nodes(&self) -> Vec<crate::AsmNode> {
        self.vertices.to_nodes()
    }
}

/// Phase (i) on its own: counts the canonical (k+1)-mers of `reads` on the
/// context's pool and returns those seen more than `config.min_coverage`
/// times with their counts (saturating at `u32::MAX`), in ascending key
/// order — the order in which [`build_dbg_on`] feeds them to phase (ii).
// ppa_lint: allow(test-only-pub) phase (i) alone, the seam `tests/kmer_counting.rs` diffs against a reference count
pub fn count_kplus1_mers_on(
    ctx: &ExecCtx,
    reads: &ReadSet,
    config: &ConstructConfig,
) -> (Vec<(u64, u32)>, MapReduceMetrics) {
    assert!(
        config.k >= 1 && config.k <= 31,
        "k must be in 1..=31 so that k-mer vertex IDs leave the top two bits free"
    );
    let k = config.k;
    let scanner = SuperKmerScanner::new(k + 1).expect("k validated above");
    // Tasks are runs of read indices; each scans its reads' codes in the
    // one packed bases column, and its records point back into it.
    let batches: Vec<Range<usize>> = reads.records.chunk_ranges(config.batch_size).collect();
    let words = reads.records.words();
    count_keys_on(
        ctx,
        &batches,
        // A read of `len` bases has at most `len − k` windows of k+1.
        |batch| {
            let batch = reads.records.range(batch.clone());
            batch.map(|r| r.len().saturating_sub(k)).sum()
        },
        |batch, sink: &mut KeySink<1>| {
            for read in reads.records.range(batch.clone()) {
                let start = read.start();
                scanner.scan_codes(read.codes(), |sk| {
                    sink.push(sk.minimizer_hash(), [sk.reference(start)]);
                });
            }
        },
        Records {
            max_keys: scanner.max_windows() as u32,
            slab: Some(SlabExtent {
                bases: reads.total_bases() as u64,
                window: (k + 1) as u32,
            }),
            expand: |records: &[Record<1>], keys: &mut Vec<u64>| {
                scanner.decode_into(words, records.as_flattened(), keys);
            },
        },
        config.min_coverage,
    )
}

/// Survivors per phase (ii) scan task: 4 096 edge records, 64 KiB. Under a
/// spill cap a worker checks its buffered records after every task.
const VERTEX_TASK: usize = 1 << 11;

/// Phase (ii)'s fold: sorts each bucket's edge records by k-mer and appends
/// every run as one vertex, so a worker's vertices leave sorted.
fn fold_vertices(buckets: &mut Buckets<'_>, k: usize) -> KmerGraph {
    // A record stands for one key and occupies one slot at most, and a
    // vertex occupies one slot at least: the range's keys bound both.
    let keys = buckets.keys();
    let mut graph = KmerGraph::with_capacity(k, keys, keys);
    let mut edges: Vec<Record> = Vec::new();
    buckets.each(|keys, records| {
        edges.clear();
        edges.reserve(keys);
        for fragment in records {
            edges.extend_from_slice(fragment);
        }
        edges.sort_unstable_by_key(|edge| edge[0]);
        for run in edges.chunk_by(|a, b| a[0] == b[0]) {
            graph.push_vertex(run[0][0]);
            for edge in run {
                let slot = EdgeSlot::from_bit((edge[1] >> 32) as u32 & 0xFF);
                graph.add_slot(slot, edge[1] as u32);
            }
        }
    });
    graph
}

/// Runs DBG construction on a caller-provided execution context: both
/// phases dispatch onto its persistent worker pool, and the worker count is
/// the pool size.
pub fn build_dbg_on(ctx: &ExecCtx, reads: &ReadSet, config: &ConstructConfig) -> ConstructOutcome {
    let start = Instant::now();
    let mut clock = PhaseClock::start();
    let k = config.k;

    // ---- phase (i): count canonical (k+1)-mers ------------------------------
    let (counted, phase1) = count_kplus1_mers_on(ctx, reads, config);
    clock.lap_split(
        Phase::CountScatter,
        &[
            (Phase::CountFold, phase1.fold_elapsed),
            (Phase::CountSort, phase1.sort_elapsed),
        ],
    );
    // `groups` counts every distinct (k+1)-mer, kept or not.
    let distinct_kplus1 = phase1.groups;
    let kept_kplus1 = counted.len() as u64;

    // ---- phase (ii): build k-mer vertices with packed adjacency -------------
    // Every survivor scatters its two edge contributions to the buckets of
    // their k-mers' key ranges: a k-mer's 2k bits moved to the top of the
    // word, so its bucket is its leading bits. The survivors are freed at
    // the scatter→fold barrier with the scan that owns them.
    let tasks: Vec<Range<usize>> = (0..counted.len())
        .step_by(VERTEX_TASK)
        .map(|start| start..counted.len().min(start + VERTEX_TASK))
        .collect();
    let to_top = 64 - 2 * k as u32;
    let (parts, mut phase2) = fold_buckets_on(
        ctx,
        &tasks,
        |task| 2 * task.len(),
        move |task, sink: &mut KeySink| {
            for &(packed, count) in &counted[task.clone()] {
                let kplus1 = Kmer::from_packed(packed, k + 1).expect("valid (k+1)-mer key");
                let ((src, s_slot), (tgt, t_slot)) = edge_contributions(&kplus1);
                for (kmer, slot) in [(src, s_slot), (tgt, t_slot)] {
                    let edge = 1 << KEYS_SHIFT | u64::from(slot.bit()) << 32 | u64::from(count);
                    sink.push(kmer.packed() << to_top, [kmer.packed(), edge]);
                }
            }
        },
        1,
        |buckets: &mut Buckets<'_>| fold_vertices(buckets, k),
    );
    clock.lap_split(
        Phase::BuildScatter,
        &[(Phase::BuildFold, phase2.fold_elapsed)],
    );
    // The buckets are key ranges and the workers' ranges follow each other:
    // the vertices leave sorted by k-mer.
    let vertices = KmerGraph::concat(k, parts);
    vertices.debug_validate();
    clock.lap(Phase::BuildFold);
    phase2.input_records = kept_kplus1;
    phase2.groups = vertices.len() as u64;
    phase2.output_records = vertices.len() as u64;

    let stats = ConstructStats {
        distinct_kplus1_mers: distinct_kplus1,
        kept_kplus1_mers: kept_kplus1,
        vertices: vertices.len() as u64,
        adjacency_slots: vertices.adjacency_slots() as u64,
        phase1,
        phase2,
        elapsed: start.elapsed(),
        phases: clock.times(),
    };
    ConstructOutcome { vertices, k, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{KmerRef, VertexType};
    use std::collections::HashMap;

    fn reads_from(seqs: &[&str]) -> ReadSet {
        seqs.iter()
            .enumerate()
            .map(|(i, s)| (format!("r{i}"), s))
            .collect()
    }

    fn config(k: usize, theta: u32) -> ConstructConfig {
        ConstructConfig {
            k,
            min_coverage: theta,
            batch_size: 2,
        }
    }

    fn dbg(reads: &ReadSet, config: &ConstructConfig) -> ConstructOutcome {
        build_dbg_on(&ExecCtx::new(3), reads, config)
    }

    /// A vertex's canonical k-mer, from its ID.
    fn kmer_of(v: &KmerRef<'_>, k: usize) -> Kmer {
        Kmer::from_packed(v.id(), k).unwrap()
    }

    #[test]
    fn figure9_example_builds_a_simple_path() {
        // The strand "CTGCCGTACA" of Figure 9, covered by two overlapping
        // reads, yields (for k = 4) the seven canonical vertices CTGC, GGCA,
        // CGGC, ACGG, CGTA, GTAC, TACA forming a simple path.
        let reads = reads_from(&["CTGCCGT", "CCGTACA"]);
        let out = dbg(&reads, &config(4, 0));
        assert_eq!(out.k, 4);
        let nodes = out.to_nodes();
        assert_eq!(nodes.len(), 7);
        let mut names: Vec<String> = out
            .vertices
            .iter()
            .map(|v| kmer_of(&v, 4).to_string())
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec!["ACGG", "CGGC", "CGTA", "CTGC", "GGCA", "GTAC", "TACA"]
        );
        let by_type: HashMap<VertexType, usize> = nodes.iter().fold(HashMap::new(), |mut m, n| {
            *m.entry(n.vertex_type()).or_insert(0) += 1;
            m
        });
        // A simple path has exactly two ⟨1⟩ ends, five ⟨1-1⟩ interior vertices
        // and no branching vertices.
        assert_eq!(by_type.get(&VertexType::Branch).copied().unwrap_or(0), 0);
        assert_eq!(by_type.get(&VertexType::One).copied().unwrap_or(0), 2);
        assert_eq!(by_type.get(&VertexType::OneOne).copied().unwrap_or(0), 5);
        assert_eq!(out.stats.vertices as usize, nodes.len());
        assert!(out.stats.kept_kplus1_mers <= out.stats.distinct_kplus1_mers);
    }

    #[test]
    fn reverse_complement_reads_map_to_the_same_vertices() {
        // The same DNA segment read from either strand must produce the same
        // canonical k-mer vertices and edges (Section III, Figure 6).
        let forward = reads_from(&["CTGCCGTACA"]);
        let reverse = reads_from(&["TGTACGGCAG"]);
        let a = dbg(&forward, &config(3, 0));
        let b = dbg(&reverse, &config(3, 0));
        let ids_a: Vec<u64> = {
            let mut v: Vec<u64> = a.vertices.iter().map(|x| x.id()).collect();
            v.sort_unstable();
            v
        };
        let ids_b: Vec<u64> = {
            let mut v: Vec<u64> = b.vertices.iter().map(|x| x.id()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(ids_a, ids_b);
        // Edge coverage must merge across strands too.
        let both = dbg(&reads_from(&["CTGCCGTACA", "TGTACGGCAG"]), &config(3, 0));
        for v in both.vertices.iter() {
            for &cov in v.coverages() {
                assert_eq!(cov, 2, "each edge is supported by both strands");
            }
        }
    }

    #[test]
    fn coverage_threshold_filters_rare_kplus1_mers() {
        // "ACGTACGGA" appears three times, an erroneous variant once.
        let reads = reads_from(&["ACGTACGGA", "ACGTACGGA", "ACGTACGGA", "ACGTTCGGA"]);
        let strict = dbg(&reads, &config(3, 1));
        let lenient = dbg(&reads, &config(3, 0));
        assert!(strict.stats.kept_kplus1_mers < lenient.stats.kept_kplus1_mers);
        assert!(strict.stats.vertices < lenient.stats.vertices);
        // The filtered graph contains no low-coverage adjacency slot.
        for v in strict.vertices.iter() {
            for &cov in v.coverages() {
                assert!(cov >= 2);
            }
        }
    }

    #[test]
    fn n_characters_split_reads() {
        // The N breaks the read into "ACGTA" and "CGGAT": no (k+1)-mer may span it.
        let with_n = reads_from(&["ACGTANCGGAT"]);
        let out = dbg(&with_n, &config(3, 0));
        let without_break = dbg(&reads_from(&["ACGTACGGAT"]), &config(3, 0));
        assert!(out.stats.distinct_kplus1_mers < without_break.stats.distinct_kplus1_mers);
        // Reads shorter than k+1 (after splitting) are ignored entirely.
        let tiny = dbg(&reads_from(&["ACN", "GT"]), &config(3, 0));
        assert_eq!(tiny.stats.vertices, 0);
        assert!(tiny.vertices.is_empty());
    }

    #[test]
    fn branching_reads_create_ambiguous_vertices() {
        // Two reads share the prefix "ACGTACG" then diverge, creating a fork.
        let reads = reads_from(&["ACGTACGA", "ACGTACGC"]);
        let out = dbg(&reads, &config(3, 0));
        let nodes = out.into_nodes();
        let branch_count = nodes
            .iter()
            .filter(|n| n.vertex_type() == VertexType::Branch)
            .count();
        assert!(
            branch_count >= 1,
            "the fork point must be an ambiguous vertex"
        );
    }

    #[test]
    fn empty_and_too_short_input() {
        let out = dbg(&ReadSet::new(), &ConstructConfig::default());
        assert!(out.vertices.is_empty());
        let out = dbg(&reads_from(&["ACGT"]), &ConstructConfig::default());
        assert!(
            out.vertices.is_empty(),
            "reads shorter than k+1 contribute nothing"
        );
    }

    #[test]
    fn the_scatter_holds_under_one_and_a_quarter_bytes_per_window() {
        // Simulated 1 %-error reads from both strands at k = 31, the shape of
        // the paper's input; a bare packed key took 8 bytes per window, a
        // two-word super-k-mer about 1.5.
        let genome = ppa_readsim::GenomeConfig {
            length: 20_000,
            seed: 3,
            ..Default::default()
        }
        .generate();
        let reads = ppa_readsim::ReadSimConfig {
            read_length: 150,
            coverage: 40.0,
            substitution_rate: 0.01,
            indel_rate: 0.0,
            n_rate: 0.0,
            both_strands: true,
            seed: 4,
        }
        .simulate(&genome);
        // Four batches, two per worker, and a 64 KiB budget per worker that
        // one batch's records overrun: each worker flushes what its sink
        // holds after its first batch and keeps its second in RAM.
        let config = ConstructConfig {
            k: 31,
            min_coverage: 1,
            batch_size: reads.len().div_ceil(4),
        };
        let ctx = ExecCtx::new(2);
        ctx.set_spill(ppa_pregel::SpillPolicy::At(512 << 10));
        let (_, phase1) = count_kplus1_mers_on(&ctx, &reads, &config);
        ctx.clear_spill();
        assert_eq!(phase1.spilled_runs, 2);
        let windows: usize = reads
            .records
            .chunk_ranges(config.batch_size)
            .step_by(2)
            .flat_map(|batch| reads.records.range(batch))
            .map(|read| read.len() - config.k)
            .sum();
        let per_window = phase1.spilled_bytes as f64 / windows as f64;
        assert!(windows > 200_000, "{windows} windows");
        assert!(
            per_window <= 1.25,
            "{per_window:.2} bytes per window left the sinks"
        );
    }

    #[test]
    fn survivors_and_vertices_are_allocated_to_their_exact_length() {
        // Enough (k+1)-mers that a doubling vector would overshoot.
        let genome = ppa_readsim::GenomeConfig {
            length: 5_000,
            seed: 8,
            ..Default::default()
        }
        .generate();
        let reads = ppa_readsim::ReadSimConfig::error_free(100, 10.0).simulate(&genome);
        let config = config(21, 0);
        for workers in [1, 3] {
            let ctx = ExecCtx::new(workers);
            let (counted, _) = count_kplus1_mers_on(&ctx, &reads, &config);
            assert!(counted.len() > 2_000);
            assert_eq!(counted.capacity(), counted.len(), "{workers} workers");
            let out = build_dbg_on(&ctx, &reads, &config);
            let (n, slots) = (out.vertices.len(), out.vertices.adjacency_slots());
            assert_eq!(
                out.vertices.heap_bytes(),
                8 * n + 4 * (2 * n + 1) + 4 * slots
            );
        }
    }

    #[test]
    #[should_panic(expected = "k must be in")]
    fn oversized_k_rejected() {
        build_dbg_on(
            &ExecCtx::new(2),
            &ReadSet::new(),
            &ConstructConfig {
                k: 32,
                ..Default::default()
            },
        );
    }

    #[test]
    fn adjacency_is_symmetric() {
        // For every edge slot of every vertex, the neighbour vertex exists and
        // has a slot pointing back.
        let reads = reads_from(&["ATTGCAAGTC", "TGCAAGTCCA", "GACTTGCAAT"]);
        let out = dbg(&reads, &config(4, 0));
        let by_id: HashMap<u64, KmerRef<'_>> = out.vertices.iter().map(|v| (v.id(), v)).collect();
        for v in out.vertices.iter() {
            let kmer = kmer_of(&v, 4);
            for (slot, _) in v.slots() {
                let neighbor = slot.neighbor_of(&kmer);
                let n = by_id
                    .get(&neighbor.packed())
                    .unwrap_or_else(|| panic!("neighbour {} missing", neighbor));
                let points_back = n
                    .slots()
                    .any(|(s, _)| s.neighbor_of(&kmer_of(n, 4)) == kmer);
                assert!(points_back, "edge {kmer} -> {neighbor} has no reverse slot");
            }
        }
    }
}
