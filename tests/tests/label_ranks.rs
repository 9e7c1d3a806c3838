//! Operation ② — both labelings — against the naive oracle
//! (`ppa_tests::oracle`), which walks the chains by hand.
//!
//! `label_contigs_lr_on` (the BPPA and its S-V cycle fallback) and
//! `label_contigs_sv_on` (simplified S-V) run in rank space on the engine.
//! On every hand-made graph, at 1–4 workers, they must give:
//! - the oracle's labels and ambiguous IDs, read from the label column
//!   through the node set's IDs, and the same column at every worker count;
//! - literal superstep, message and dropped-message counts and fallback
//!   flag, the same at every worker count.
//!
//! These graphs use k ≤ 8, so every k-mer is a minimizer block of its own
//! and the jobs are the vertex-level ones. The k = 31 cases contract chain
//! fragments of up to 21 k-mers (forks, cycles inside and across blocks,
//! missing neighbours, round two's mixed view) and are checked against the
//! oracle the same way, without literal costs.
//!
//! On generated reads (`ppa_tests::adversarial_reads`) the property test
//! checks ①②③ against the oracle, and ②③ again on the node set the paper
//! workflow's first bubble filtering and tip removal leave for round two.
//! It pins no literal costs; it checks that they do not depend on the worker
//! count, that no message is dropped, and that list ranking without its
//! fallback stays within its O(log ℓ_max) superstep bound.

use ppa_assembler::ids::{contig_id, kmer_id};
use ppa_assembler::ops::bubble::BubbleConfig;
use ppa_assembler::ops::construct::{build_dbg_on, ConstructConfig};
use ppa_assembler::ops::label::{label_contigs_lr_on, LabelOutcome};
use ppa_assembler::ops::label_sv::label_contigs_sv_on;
use ppa_assembler::ops::merge::{merge_contigs_on, MergeConfig};
use ppa_assembler::ops::tip::TipConfig;
use ppa_assembler::pipeline::{Construct, FilterBubbles, Label, Merge, RemoveTips};
use ppa_assembler::{AsmNode, Direction, Edge, GraphState, NodeSource, Pipeline, Polarity};
use ppa_pregel::ExecCtx;
use ppa_readsim::{GenomeConfig, ReadSimConfig};
use ppa_seq::{DnaString, Kmer, ReadSet};
use ppa_tests::oracle::{self, ChainKind, Labels, Node};
use ppa_tests::{adversarial_reads, adversarial_sequences, labels_by_id};
use proptest::prelude::*;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Node sets
// ---------------------------------------------------------------------------

fn nodes_from_reads(seqs: &[&str], k: usize) -> Vec<AsmNode> {
    let reads = seqs
        .iter()
        .enumerate()
        .map(|(i, s)| (format!("r{i}"), s))
        .collect::<ReadSet>();
    let config = ConstructConfig {
        k,
        min_coverage: 0,
        batch_size: 4,
    };
    build_dbg_on(&ExecCtx::new(2), &reads, &config).into_nodes()
}

/// `count` distinct canonical 8-mers, as unconnected k-mer nodes.
fn kmer_nodes(count: usize, stride: u64) -> Vec<AsmNode> {
    let mut nodes: Vec<AsmNode> = Vec::new();
    let mut packed = 0u64;
    while nodes.len() < count {
        packed += stride;
        if let Ok(kmer) = Kmer::from_packed(packed, 8) {
            if kmer.is_canonical() && nodes.iter().all(|n| n.id != kmer_id(&kmer)) {
                nodes.push(AsmNode::new_kmer(kmer));
            }
        }
    }
    nodes
}

/// Joins `nodes[from]`'s right side to `nodes[to]`'s left side.
fn link(nodes: &mut [AsmNode], from: usize, to: usize) {
    let (from_id, to_id) = (nodes[from].id, nodes[to].id);
    nodes[from].push_edge(Edge {
        neighbor: to_id,
        direction: Direction::Out,
        polarity: Polarity::LL,
        coverage: 3,
    });
    nodes[to].push_edge(Edge {
        neighbor: from_id,
        direction: Direction::In,
        polarity: Polarity::LL,
        coverage: 3,
    });
}

/// Closes `members` into a ring of unambiguous vertices: the shape that
/// defeats list ranking.
fn close_ring(nodes: &mut [AsmNode], members: &[usize]) {
    for (i, &from) in members.iter().enumerate() {
        link(nodes, from, members[(i + 1) % members.len()]);
    }
}

fn synthetic_cycle(n: usize) -> Vec<AsmNode> {
    let mut nodes = kmer_nodes(n, 37);
    close_ring(&mut nodes, &(0..n).collect::<Vec<_>>());
    nodes
}

/// What a second labeling round sees: contigs (`CONTIG_MARK | ordinal` IDs,
/// above every k-mer ID) chained through the k-mers that used to be
/// ambiguous, and one k-mer that still is.
fn round_two_nodes() -> Vec<AsmNode> {
    let contig = |ordinal| {
        let seq = DnaString::from_ascii("ACGTACGTACGTAC").expect("valid bases");
        AsmNode::new_contig(contig_id(ordinal), seq, 9)
    };
    let mut nodes = kmer_nodes(3, 101);
    nodes.extend((1..=6).map(contig));
    // contig 1 → k-mer 0 → contig 3 → k-mer 1 → contig 2 → k-mer 2, which
    // forks into contigs 4 and 5; contig 6 stands alone.
    for (from, to) in [(3, 0), (0, 5), (5, 1), (1, 4), (4, 2), (2, 6), (2, 7)] {
        link(&mut nodes, from, to);
    }
    nodes
}

// ---------------------------------------------------------------------------
// The checks
// ---------------------------------------------------------------------------

/// A labeling's supersteps, messages, dropped messages and fallback flag.
type Costs = (usize, u64, u64, bool);

fn costs_of(outcome: &LabelOutcome) -> Costs {
    let m = &outcome.metrics;
    (
        m.supersteps,
        m.total_messages,
        m.total_dropped,
        outcome.used_cycle_fallback,
    )
}

/// Both labelings of `nodes` at 1–4 workers against the oracle's `want`:
/// labels and ambiguous IDs. Returns the costs of list ranking and S-V,
/// after checking that they and the label columns do not depend on the
/// worker count.
fn check_labels<S: NodeSource + ?Sized>(nodes: &S, want: &Labels, what: &str) -> (Costs, Costs) {
    let ids = nodes.ids();
    let mut first = None;
    for workers in 1..=4 {
        let ctx = ExecCtx::new(workers);
        let at = format!("{what}, {workers} workers");
        let lr = label_contigs_lr_on(&ctx, nodes);
        let sv = label_contigs_sv_on(&ctx, nodes);

        let (labels, ambiguous) = labels_by_id(&ids, &lr.labels);
        assert_eq!(labels, want.lr, "LR labels: {at}");
        assert_eq!(ambiguous, want.ambiguous, "LR ambiguous: {at}");
        let (labels, ambiguous) = labels_by_id(&ids, &sv.labels);
        assert_eq!(labels, want.sv, "S-V labels: {at}");
        assert_eq!(ambiguous, want.ambiguous, "S-V ambiguous: {at}");
        assert_eq!(lr.used_cycle_fallback, want.used_cycle_fallback(), "{at}");
        assert!(lr.metrics.converged && sv.metrics.converged, "{at}");
        assert!(!sv.used_cycle_fallback, "{at}");

        let these = (costs_of(&lr), costs_of(&sv), lr.labels, sv.labels);
        assert_eq!(first.get_or_insert_with(|| these.clone()), &these, "{at}");
    }
    let (lr, sv, _, _) = first.expect("the sweep runs");
    (lr, sv)
}

/// [`check_labels`] against the oracle's reading of `nodes`.
fn check_against_oracle(nodes: &[AsmNode], what: &str) -> (Costs, Costs) {
    let want = oracle::label(&nodes.iter().map(Node::from_asm).collect::<Vec<_>>());
    check_labels(nodes, &want, what)
}

#[test]
fn the_figure_11_path() {
    let nodes = nodes_from_reads(&["CTGCCGT", "CCGTACA"], 4);
    assert_eq!(nodes.len(), 7);
    let costs = check_against_oracle(&nodes, "seven-vertex path");
    assert_eq!(costs, ((8, 56, 0, false), (16, 101, 0, false)));
}

#[test]
fn a_fork() {
    let nodes = nodes_from_reads(&["TTACTTGATCCG", "TTACTTGAACGG"], 5);
    let costs = check_against_oracle(&nodes, "fork");
    assert_eq!(costs, ((6, 55, 0, false), (16, 135, 0, false)));
}

#[test]
fn a_two_vertex_path() {
    let nodes = nodes_from_reads(&["ACGGTC"], 5);
    assert_eq!(nodes.len(), 2);
    let costs = check_against_oracle(&nodes, "two-vertex path");
    assert_eq!(costs, ((4, 4, 0, false), (8, 9, 0, false)));
}

#[test]
fn isolated_vertices_and_the_empty_set() {
    let costs = check_against_oracle(&kmer_nodes(9, 53), "isolated vertices");
    assert_eq!(costs, ((2, 0, 0, false), (4, 0, 0, false)));
    let costs = check_against_oracle(&[], "empty node set");
    assert_eq!(costs, ((1, 0, 0, false), (1, 0, 0, false)));
}

#[test]
fn cycles_take_the_fallback() {
    for (n, lr, sv) in [
        (2, (11, 17, 0, true), (8, 13, 0, false)),
        (3, (24, 64, 0, true), (8, 22, 0, false)),
        (12, (44, 567, 0, true), (24, 303, 0, false)),
        (37, (56, 3019, 0, true), (32, 1317, 0, false)),
    ] {
        let costs = check_against_oracle(&synthetic_cycle(n), &format!("{n}-cycle"));
        assert_eq!(costs, (lr, sv), "{n}-cycle");
    }
}

#[test]
fn a_path_and_two_cycles() {
    let mut nodes = nodes_from_reads(&["CTGCCGT", "CCGTACA"], 4);
    // Two rings whose IDs interleave, over 8-mers the path's 4-mers leave free.
    let mut rings = kmer_nodes(60, 37);
    rings.retain(|ring| nodes.iter().all(|path| path.id != ring.id));
    let members = |offset| (offset..rings.len()).step_by(2).collect::<Vec<_>>();
    let (evens, odds) = (members(0), members(1));
    close_ring(&mut rings, &evens);
    close_ring(&mut rings, &odds);
    nodes.extend(rings);
    nodes.sort_unstable_by_key(|node| node.id);
    let costs = check_against_oracle(&nodes, "path + two cycles");
    assert_eq!(costs, ((54, 4930, 0, true), (28, 2047, 0, false)));
}

#[test]
fn a_self_loop_and_a_doubled_neighbour() {
    // Both sides of a vertex lead to the same vertex: to itself (0), or to
    // one neighbour twice (1 ⇄ 2); 3 → 4 is an ordinary path beside them.
    let mut nodes = kmer_nodes(5, 71);
    for (from, to) in [(0, 0), (1, 2), (2, 1), (3, 4)] {
        link(&mut nodes, from, to);
    }
    let costs = check_against_oracle(&nodes, "self-loop + doubled neighbour");
    assert_eq!(costs, ((12, 27, 0, true), (8, 26, 0, false)));
}

#[test]
fn a_round_two_node_set_of_kmers_and_contigs() {
    let nodes = round_two_nodes();
    let costs = check_against_oracle(&nodes, "k-mers + contigs");
    assert_eq!(costs, ((8, 35, 0, false), (16, 66, 0, false)));
}

#[test]
fn a_neighbour_missing_from_the_node_set() {
    // Drop a mid-path vertex: both of its neighbours keep an edge to an ID
    // that is no vertex, and whatever they send there is dropped.
    let mut nodes = nodes_from_reads(&["CTGCCGT", "CCGTACA"], 4);
    let mid = nodes
        .iter()
        .position(|n| n.edges.len() == 2)
        .expect("a seven-vertex path has inner vertices");
    nodes.remove(mid);
    let costs = check_against_oracle(&nodes, "missing neighbour");
    assert_eq!(costs, ((19, 84, 10, true), (12, 56, 6, false)));

    // Two missing neighbours of one vertex share the absent rank.
    let mut nodes = nodes_from_reads(&["CTGCCGT", "CCGTACA"], 4);
    nodes.retain(|n| n.edges.len() == 2);
    let costs = check_against_oracle(&nodes, "missing path ends");
    assert_eq!(costs, ((21, 102, 18, true), (12, 58, 6, false)));
}

// ---------------------------------------------------------------------------
// Minimizer blocks at k = 31: fragments of up to 21 vertices contracted
// ---------------------------------------------------------------------------

/// `len` pseudo-random bases.
fn random_bases(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            b"ACGT"[(state >> 32) as usize % 4]
        })
        .collect()
}

/// The k = 31 graph of `seqs`, every (k+1)-mer kept.
fn graph_31(seqs: &[Vec<u8>]) -> Vec<AsmNode> {
    let reads: ReadSet = seqs
        .iter()
        .enumerate()
        .map(|(i, seq)| (format!("r{i}"), seq))
        .collect();
    let config = ConstructConfig {
        k: 31,
        min_coverage: 0,
        batch_size: 8,
    };
    build_dbg_on(&ExecCtx::new(2), &reads, &config).into_nodes()
}

/// Simulated reads (150 bp, 20×, 0.5 % substitutions, both strands) of a
/// 6 kb genome with two 80 bp repeat families: forks from the repeats and
/// the errors, paths between them.
fn simulated_31() -> ReadSet {
    let genome = GenomeConfig {
        length: 6_000,
        repeat_families: 2,
        repeat_copies: 2,
        repeat_length: 80,
        seed: 31,
        ..GenomeConfig::default()
    }
    .generate();
    ReadSimConfig {
        read_length: 150,
        coverage: 20.0,
        substitution_rate: 0.005,
        n_rate: 0.0,
        seed: 31,
        ..ReadSimConfig::default()
    }
    .simulate(&genome)
}

#[test]
fn simulated_reads_with_forks_label_as_the_oracle_at_k_31() {
    let reads = simulated_31();
    let config = ConstructConfig {
        k: 31,
        min_coverage: 0,
        batch_size: 8,
    };
    let nodes = build_dbg_on(&ExecCtx::new(2), &reads, &config).into_nodes();
    let want = oracle::label(&nodes.iter().map(Node::from_asm).collect::<Vec<_>>());
    assert!(want.ambiguous.len() > 10, "forks: {}", want.ambiguous.len());
    let (lr, _) = check_labels(&nodes, &want, "simulated reads, k = 31");
    // The BPPA sends about 39 messages per vertex here without blocks.
    assert!(lr.1 < want.lr.len() as u64, "LR messages {lr:?}");

    // A neighbour missing from the set: drop one mid-path vertex and one
    // whole path end.
    let ends: Vec<usize> = (0..nodes.len())
        .filter(|&i| nodes[i].edges.len() == 1)
        .collect();
    let mid = (nodes.len() / 2..nodes.len())
        .find(|&i| nodes[i].edges.len() == 2 && !want.ambiguous.contains(&nodes[i].id))
        .expect("a mid-path vertex");
    let mut holed = nodes.clone();
    for at in [mid, ends[ends.len() / 2]]
        .into_iter()
        .rev()
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .rev()
    {
        holed.remove(at);
    }
    let (lr, sv) = check_against_oracle(&holed, "missing neighbours, k = 31");
    assert!(lr.3 && lr.2 > 0 && sv.2 > 0, "{lr:?} {sv:?}");
}

#[test]
fn cycles_inside_and_across_blocks_take_the_fallback_at_k_31() {
    // A 20-base unit read round and round: its 20 rotations are the 31-mers,
    // each holding every m-mer of the circle, so the ring is one block.
    let unit = random_bases(20, 5);
    let inside: Vec<u8> = unit.iter().cycle().take(90).copied().collect();
    let nodes = graph_31(&[inside]);
    assert_eq!(nodes.len(), 20);
    let (lr, _) = check_against_oracle(&nodes, "ring inside one block");
    assert!(lr.3, "the ring takes the fallback");

    // A 400-base circle spans many blocks; beside it a path, which the
    // fallback leaves alone.
    let circle = random_bases(400, 6);
    let wrapped: Vec<u8> = circle.iter().cycle().take(400 + 31).copied().collect();
    let reads: Vec<Vec<u8>> = (0..wrapped.len() - 100)
        .step_by(25)
        .map(|at| wrapped[at..at + 100].to_vec())
        .chain([
            wrapped[wrapped.len() - 100..].to_vec(),
            random_bases(300, 7),
        ])
        .collect();
    let nodes = graph_31(&reads);
    assert_eq!(nodes.len(), 400 + 300 - 30);
    let (lr, _) = check_against_oracle(&nodes, "ring across blocks + a path");
    assert!(lr.3, "the ring takes the fallback");
}

#[test]
fn a_fragment_between_two_ambiguous_vertices_at_k_31() {
    // A 38-base repeat twice: the few 31-mers inside it lie between the two
    // forks it makes, one minimizer run or two.
    let (a, r, b, c) = (
        random_bases(200, 11),
        random_bases(38, 12),
        random_bases(200, 13),
        random_bases(200, 14),
    );
    let genome = [a, r.clone(), b, r, c].concat();
    let reads: Vec<Vec<u8>> = (0..genome.len() - 90)
        .step_by(9)
        .map(|at| genome[at..at + 90].to_vec())
        .chain([genome[genome.len() - 90..].to_vec()])
        .collect();
    let nodes = graph_31(&reads);
    let want = oracle::label(&nodes.iter().map(Node::from_asm).collect::<Vec<_>>());
    assert_eq!(want.ambiguous.len(), 2, "the repeat's two forks");
    let between = want.chains.iter().filter(|c| c.members.len() < 10).count();
    assert_eq!(between, 1, "the repeat's inner path");
    check_labels(&nodes, &want, "a path between two forks, k = 31");
}

#[test]
fn round_two_labels_the_mixed_view_as_the_oracle_at_k_31() {
    // Round two's ② reads the ambiguous k-mers and the contigs where they
    // lie; both labelings must give the oracle's reading of that node set.
    let reads = simulated_31();
    let (k, tip) = (31, 80);
    for workers in 1..=4 {
        for lr in [true, false] {
            let label = || {
                if lr {
                    Label::list_ranking()
                } else {
                    Label::simplified_sv()
                }
            };
            let mut state = GraphState::new(&reads);
            Pipeline::new()
                .then(Construct::new(ConstructConfig {
                    k,
                    min_coverage: 0,
                    batch_size: 8,
                }))
                .then(label())
                .then(Merge::new(MergeConfig {
                    k,
                    tip_length_threshold: tip,
                }))
                .then(FilterBubbles::new(BubbleConfig::default()))
                .then(RemoveTips::new(TipConfig {
                    k,
                    tip_length_threshold: tip,
                }))
                .then(label())
                .try_run(&mut state, &ExecCtx::new(workers))
                .unwrap();
            let nodes: Vec<Node> = state
                .ambiguous_kmers
                .iter()
                .chain(&state.contigs)
                .map(Node::from_asm)
                .collect();
            let want = oracle::label(&nodes);
            let got = state.labels.expect("round two labelled");
            let at = format!("round two, {workers} workers, LR = {lr}");
            assert!(
                !state.ambiguous_kmers.is_empty() && !want.lr.is_empty(),
                "{at}"
            );
            let ids: Vec<u64> = nodes.iter().map(|node| node.id).collect();
            let (labels, ambiguous) = labels_by_id(&ids, &got.labels);
            assert_eq!(labels, if lr { want.lr } else { want.sv }, "{at}");
            assert_eq!(ambiguous, want.ambiguous, "{at}");
        }
    }
}

// ---------------------------------------------------------------------------
// Generated reads: ①②③, then ②③ on a round-two node set
// ---------------------------------------------------------------------------

/// What one generated case exercised.
#[derive(Debug, Default)]
struct Exercised {
    fork: bool,
    cycle_fallback: bool,
    tip_dropped: bool,
    round_two: bool,
}

/// ⌈log₂ n⌉ for n ≥ 1.
fn ceil_log2(n: usize) -> usize {
    n.next_power_of_two().trailing_zeros() as usize
}

/// ② then ③ of `nodes` at 1–4 workers against the oracle's reading `want`
/// of the same graph. Returns the oracle's labels and merge.
fn check_label_and_merge<S: NodeSource + ?Sized>(
    nodes: &S,
    want: &[Node],
    merge: &MergeConfig,
    what: &str,
) -> (Labels, oracle::Merged) {
    let labels = oracle::label(want);
    let (lr, sv) = check_labels(nodes, &labels, what);
    assert_eq!((lr.2, sv.2), (0, 0), "dropped messages: {what}");
    // List ranking's schedule (module doc): superstep 0 broadcasts, 1 sets
    // the pointers and sends the first requests, and each further round — a
    // response superstep, then a request superstep — doubles every pointer's
    // reach. After superstep 2t+1 a pointer has reached its end iff the
    // chain is at most 2^t long, and that superstep sends nothing: the job
    // ends after 2⌈log₂ ℓ_max⌉ + 2 supersteps.
    if !lr.3 {
        let bound = 2 * ceil_log2(labels.longest_path().max(1)) + 2;
        assert!(lr.0 <= bound, "{} supersteps > {bound}: {what}", lr.0);
    }

    let (k, tip) = (merge.k, merge.tip_length_threshold);
    let merged = oracle::merge(want, &labels.lr, k, tip);
    let expected = oracle::contig_multiset(merged.contigs.iter().cloned(), k);
    let mut first = None;
    for workers in 1..=4 {
        let ctx = ExecCtx::new(workers);
        let at = format!("{what}, {workers} workers");
        let labelled = label_contigs_lr_on(&ctx, nodes);
        let got = merge_contigs_on(&ctx, nodes, &labelled.labels, merge);
        let contigs = got.contigs.iter().map(|c| {
            let node = Node::from_asm(c);
            (node.seq, node.coverage)
        });
        assert_eq!(oracle::contig_multiset(contigs, k), expected, "{at}");
        assert_eq!(got.dropped_tips, merged.dropped_tips, "tips: {at}");
        assert_eq!(got.groups, merged.groups, "groups: {at}");
        // IDs, orientation and order as well: the same at every count.
        let first = first.get_or_insert_with(|| got.contigs.clone());
        assert_eq!(&got.contigs, first, "contigs: {at}");
    }
    (labels, merged)
}

/// One generated case: ① by vertex content at 1–4 workers, ②③ on its
/// graph, and ②③ on the node set round two labels after ④⑤.
fn oracle_case(seed: u64, k: usize) -> Exercised {
    let what = format!("seed {seed}, k = {k}");
    let reads = adversarial_reads(seed);
    let construct = ConstructConfig {
        k,
        min_coverage: 0,
        batch_size: 8,
    };
    let merge = MergeConfig {
        k,
        tip_length_threshold: 2 * k,
    };
    let seqs = adversarial_sequences(seed);
    let want = oracle::construct(seqs.iter().map(Vec::as_slice), k, 0);
    for workers in 1..=4 {
        let dbg = build_dbg_on(&ExecCtx::new(workers), &reads, &construct);
        let got: BTreeMap<u64, Node> = dbg
            .to_nodes()
            .iter()
            .map(|n| (n.id, Node::from_asm(n)))
            .collect();
        assert_eq!(got.len(), want.nodes.len(), "vertices: {what}");
        for node in &want.nodes {
            let mine = &got[&node.id];
            assert_eq!(mine.link_multiset(), node.link_multiset(), "{what}");
        }
    }
    let dbg = build_dbg_on(&ExecCtx::new(2), &reads, &construct);
    let (labels, merged) = check_label_and_merge(&dbg.vertices, &want.nodes, &merge, &what);

    // The node set the paper workflow's second labeling round sees.
    let mut state = GraphState::new(&reads);
    Pipeline::new()
        .then(Construct::new(construct))
        .then(Label::list_ranking())
        .then(Merge::new(merge.clone()))
        .then(FilterBubbles::new(BubbleConfig::default()))
        .then(RemoveTips::new(TipConfig {
            k,
            tip_length_threshold: 2 * k,
        }))
        .try_run(&mut state, &ExecCtx::new(2))
        .unwrap();
    let round_two: Vec<AsmNode> = state
        .ambiguous_kmers
        .iter()
        .chain(&state.contigs)
        .cloned()
        .collect();
    let want_two: Vec<Node> = round_two.iter().map(Node::from_asm).collect();
    let (labels_two, _) =
        check_label_and_merge(&round_two, &want_two, &merge, &format!("{what}, round two"));

    Exercised {
        fork: !labels.ambiguous.is_empty(),
        cycle_fallback: labels.chains.iter().any(|c| c.kind == ChainKind::Cycle),
        tip_dropped: merged.dropped_tips > 0,
        round_two: !state.contigs.is_empty()
            && !state.ambiguous_kmers.is_empty()
            && !labels_two.lr.is_empty(),
    }
}

const KS: [usize; 4] = [5, 7, 11, 21];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn prop_random_read_sets_label_as_the_references_do(
        seed in 1u64..u64::MAX,
        k_pick in 0usize..4,
    ) {
        oracle_case(seed, KS[k_pick]);
    }
}

#[test]
fn the_oracle_cases_are_not_vacuous() {
    // The property test's own cases: the proptest shim draws them from a
    // seed derived from the test's path and the case index.
    let name = concat!(
        module_path!(),
        "::",
        "prop_random_read_sets_label_as_the_references_do"
    );
    let base = proptest::seed_for(name);
    let mut seen = Exercised::default();
    for case in 0..24u64 {
        let mut rng = proptest::rng_from_seed(base ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let seed = (1u64..u64::MAX).generate(&mut rng);
        let k_pick = (0usize..4).generate(&mut rng);
        let case = oracle_case(seed, KS[k_pick]);
        seen.fork |= case.fork;
        seen.cycle_fallback |= case.cycle_fallback;
        seen.tip_dropped |= case.tip_dropped;
        seen.round_two |= case.round_two;
    }
    assert!(seen.fork, "no case has a fork: {seen:?}");
    assert!(seen.cycle_fallback, "no case has an unambiguous cycle");
    assert!(seen.tip_dropped, "no case drops a tip in ③");
    assert!(seen.round_two, "no case labels a round-two node set");
}
