//! Rank-space contig labeling against the programs it replaced.
//!
//! `label_contigs_lr_on` (the BPPA and its S-V cycle fallback) and
//! `label_contigs_sv_on` (simplified S-V) run on dense `u32` ranks of the
//! node set's vertex IDs. The references below are the two labelings as they
//! ran before: list ranking on the 64-bit IDs themselves (flip bit at bit
//! 62), and S-V with tagged messages and a neighbour `Vec` per vertex, also
//! on the IDs — kept here, on the public Pregel API only, so that every
//! outcome the rest of the workflow depends on can be pinned: `labels` and
//! `ambiguous` with their order (contig IDs are minted from it), the
//! superstep and message counts, and the dropped-message count.

use ppa_assembler::ids::{contig_id, kmer_id};
use ppa_assembler::ops::construct::{build_dbg_on, ConstructConfig};
use ppa_assembler::ops::label::{label_contigs_lr_on, LabelOutcome};
use ppa_assembler::ops::label_sv::label_contigs_sv_on;
use ppa_assembler::{AsmNode, Direction, Edge, GraphNode, Polarity, Side, VertexType};
use ppa_pregel::aggregate::{BoolOr, Count};
use ppa_pregel::algorithms::connected_components;
use ppa_pregel::{run_on, Context, ExecCtx, PregelConfig, VertexProgram, VertexSet};
use ppa_seq::{DnaString, Kmer, ReadSet};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};

// ---------------------------------------------------------------------------
// The reference: list ranking on 64-bit vertex IDs
// ---------------------------------------------------------------------------

const FLIP_BIT: u64 = 1 << 62;

fn flip(id: u64) -> u64 {
    id | FLIP_BIT
}

fn unflip(id: u64) -> u64 {
    id & !FLIP_BIT
}

fn is_flipped(id: u64) -> bool {
    id & FLIP_BIT != 0
}

const LEFT: usize = 0;
const RIGHT: usize = 1;

#[derive(Debug, Clone)]
struct RefState {
    vtype: VertexType,
    neighbor: [Option<u64>; 2],
    broadcast: Vec<u64>,
    ptr: [u64; 2],
    done: [bool; 2],
}

impl RefState {
    fn fully_done(&self) -> bool {
        self.done[0] && self.done[1]
    }
}

#[derive(Debug, Clone)]
enum RefMsg {
    Ambiguous(u64),
    Request(u64),
    Response { responder: u64, other: u64 },
}

struct RefProgram {
    superstep_budget: usize,
    stalled: AtomicBool,
}

impl VertexProgram for RefProgram {
    type Id = u64;
    type Value = RefState;
    type Message = RefMsg;
    type Aggregate = Count;

    fn compute(
        &self,
        ctx: &mut Context<'_, Self>,
        id: u64,
        value: &mut RefState,
        messages: &mut [RefMsg],
    ) {
        let superstep = ctx.superstep();
        if superstep == 0 {
            if value.vtype == VertexType::Branch {
                for &n in &value.broadcast {
                    ctx.send_message(n, RefMsg::Ambiguous(id));
                }
                ctx.vote_to_halt();
            }
            return;
        }
        if value.vtype == VertexType::Branch {
            ctx.vote_to_halt();
            return;
        }

        if superstep == 1 {
            let ambiguous_neighbors: Vec<u64> = messages
                .iter()
                .filter_map(|m| match m {
                    RefMsg::Ambiguous(a) => Some(*a),
                    _ => None,
                })
                .collect();
            for side in [LEFT, RIGHT] {
                match value.neighbor[side] {
                    Some(n) if !ambiguous_neighbors.contains(&n) => {
                        value.ptr[side] = n;
                        value.done[side] = false;
                    }
                    _ => {
                        value.ptr[side] = flip(id);
                        value.done[side] = true;
                    }
                }
            }
        } else {
            for msg in messages.iter() {
                if let RefMsg::Response { responder, other } = msg {
                    for side in [LEFT, RIGHT] {
                        if !value.done[side] && value.ptr[side] == *responder {
                            value.ptr[side] = *other;
                            if is_flipped(*other) {
                                value.done[side] = true;
                            }
                        }
                    }
                }
            }
        }

        for msg in messages.iter() {
            let RefMsg::Request(from) = msg else {
                continue;
            };
            let from = *from;
            let left_matches = unflip(value.ptr[LEFT]) == from;
            let right_matches = unflip(value.ptr[RIGHT]) == from;
            let reply = match (left_matches, right_matches) {
                (true, false) => Some(value.ptr[RIGHT]),
                (false, true) => Some(value.ptr[LEFT]),
                (true, true) => None,
                (false, false) => Some(if is_flipped(value.ptr[LEFT]) {
                    value.ptr[LEFT]
                } else {
                    value.ptr[RIGHT]
                }),
            };
            if let Some(other) = reply {
                ctx.send_message(
                    from,
                    RefMsg::Response {
                        responder: id,
                        other,
                    },
                );
            }
        }

        if superstep % 2 == 1 && !value.fully_done() {
            ctx.aggregate(Count(1));
            for side in [LEFT, RIGHT] {
                if !value.done[side] {
                    ctx.send_message(value.ptr[side], RefMsg::Request(id));
                }
            }
        }
        ctx.vote_to_halt();
    }

    fn should_terminate(&self, aggregate: &Count, superstep: usize) -> bool {
        if superstep.is_multiple_of(2) {
            return false;
        }
        if superstep >= self.superstep_budget && aggregate.0 > 0 {
            self.stalled.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }
}

fn reference_label(ctx: &ExecCtx, nodes: &[AsmNode]) -> LabelOutcome {
    let config = PregelConfig::default().max_supersteps(4_000);
    let log = (usize::BITS - nodes.len().next_power_of_two().leading_zeros()) as usize;
    let program = RefProgram {
        superstep_budget: 2 * (log + 2) + 4,
        stalled: AtomicBool::new(false),
    };
    let states = nodes.iter().map(|node| {
        let vtype = node.vertex_type();
        let broadcast = if vtype == VertexType::Branch {
            node.neighbor_ids()
        } else {
            vec![]
        };
        let state = RefState {
            vtype,
            neighbor: [Side::Left, Side::Right]
                .map(|side| node.sole_edge_on(side).map(|e| e.neighbor)),
            broadcast,
            ptr: [flip(node.id), flip(node.id)],
            done: [true, true],
        };
        (node.id, state)
    });
    let mut set: VertexSet<u64, RefState> = VertexSet::from_pairs(ctx.workers(), states);

    let mut metrics = ppa_pregel::run_on(ctx, &program, &config, &mut set);
    let stalled = program.stalled.load(Ordering::Relaxed);

    let mut labels: Vec<(u64, u64)> = Vec::new();
    let mut ambiguous: Vec<u64> = Vec::new();
    let mut unresolved: Vec<(u64, RefState)> = Vec::new();
    for (id, state) in set.into_pairs() {
        match state.vtype {
            VertexType::Branch => ambiguous.push(id),
            _ if state.fully_done() => {
                labels.push((id, unflip(state.ptr[LEFT]).min(unflip(state.ptr[RIGHT]))));
            }
            _ => unresolved.push((id, state)),
        }
    }

    let used_cycle_fallback = stalled || !unresolved.is_empty();
    if !unresolved.is_empty() {
        let members: HashSet<u64> = unresolved.iter().map(|(id, _)| *id).collect();
        let adjacency: Vec<(u64, Vec<u64>)> = unresolved
            .iter()
            .map(|(id, state)| {
                let nbrs = state
                    .neighbor
                    .iter()
                    .flatten()
                    .copied()
                    .filter(|n| members.contains(n))
                    .collect();
                (*id, nbrs)
            })
            .collect();
        let (cc, sv_metrics) = connected_components(ctx, adjacency, &config);
        metrics.absorb(&sv_metrics);
        labels.extend(cc);
    }

    LabelOutcome {
        labels,
        ambiguous,
        metrics,
        used_cycle_fallback,
    }
}

// ---------------------------------------------------------------------------
// The reference: simplified S-V on 64-bit vertex IDs, tagged messages
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct RefSvState {
    neighbors: Vec<u64>,
    parent: u64,
    changed_this_round: bool,
}

#[derive(Debug, Clone)]
enum RefSvMsg {
    /// A neighbour's current parent (phase 0 → 1).
    NeighborParent(u64),
    /// Request to hook the receiving root under the carried vertex (phase 1 → 2).
    Hook(u64),
    /// "Tell me your parent" — carries the requester (phase 2 → 3).
    GetParent(u64),
    /// The parent's parent (phase 3 → 0).
    ParentIs(u64),
}

struct RefSvProgram;

impl VertexProgram for RefSvProgram {
    type Id = u64;
    type Value = RefSvState;
    type Message = RefSvMsg;
    type Aggregate = BoolOr;

    fn compute(
        &self,
        ctx: &mut Context<'_, Self>,
        id: u64,
        value: &mut RefSvState,
        messages: &mut [RefSvMsg],
    ) {
        match ctx.superstep() % 4 {
            0 => {
                for msg in messages.iter() {
                    if let RefSvMsg::ParentIs(p) = msg {
                        if *p < value.parent {
                            value.parent = *p;
                            value.changed_this_round = true;
                        }
                    }
                }
                for &n in &value.neighbors {
                    ctx.send_message(n, RefSvMsg::NeighborParent(value.parent));
                }
            }
            1 => {
                let best = messages
                    .iter()
                    .filter_map(|msg| match msg {
                        RefSvMsg::NeighborParent(p) => Some(*p),
                        _ => None,
                    })
                    .min();
                if let Some(x) = best {
                    if x < value.parent {
                        ctx.send_message(value.parent, RefSvMsg::Hook(x));
                    }
                }
            }
            2 => {
                let best = messages
                    .iter()
                    .filter_map(|msg| match msg {
                        RefSvMsg::Hook(x) => Some(*x),
                        _ => None,
                    })
                    .min();
                if let Some(x) = best {
                    if value.parent == id && x < value.parent {
                        value.parent = x;
                        value.changed_this_round = true;
                    }
                }
                if value.parent != id {
                    ctx.send_message(value.parent, RefSvMsg::GetParent(id));
                }
            }
            _ => {
                for msg in messages.iter() {
                    if let RefSvMsg::GetParent(from) = msg {
                        ctx.send_message(*from, RefSvMsg::ParentIs(value.parent));
                    }
                }
                ctx.aggregate(BoolOr(value.changed_this_round));
                value.changed_this_round = false;
            }
        }
    }

    fn should_terminate(&self, aggregate: &BoolOr, superstep: usize) -> bool {
        superstep % 4 == 3 && !aggregate.0
    }
}

fn reference_label_sv(ctx: &ExecCtx, nodes: &[AsmNode]) -> LabelOutcome {
    let config = PregelConfig::default().max_supersteps(4_000);
    let ambiguous: Vec<u64> = nodes
        .iter()
        .filter(|n| n.vertex_type() == VertexType::Branch)
        .map(|n| n.id)
        .collect();
    let ambiguous_set: HashSet<u64> = ambiguous.iter().copied().collect();
    let states = nodes
        .iter()
        .filter(|n| !ambiguous_set.contains(&n.id))
        .map(|n| {
            let state = RefSvState {
                neighbors: n
                    .real_edges()
                    .map(|e| e.neighbor)
                    .filter(|id| !ambiguous_set.contains(id))
                    .collect(),
                parent: n.id,
                changed_this_round: false,
            };
            (n.id, state)
        });
    let mut set = VertexSet::from_pairs(ctx.workers(), states);
    let metrics = run_on(ctx, &RefSvProgram, &config, &mut set);
    LabelOutcome {
        labels: set
            .into_pairs()
            .into_iter()
            .map(|(id, state)| (id, state.parent))
            .collect(),
        ambiguous,
        metrics,
        used_cycle_fallback: false,
    }
}

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

/// What a second labeling round sees: contigs (`CONTIG_MARK | worker ‖
/// ordinal` IDs, above every k-mer ID) chained through the k-mers that used
/// to be ambiguous, and one k-mer that still is.
fn round_two_nodes() -> Vec<AsmNode> {
    let contig = |worker, ordinal| {
        let seq = DnaString::from_ascii("ACGTACGTACGTAC").expect("valid bases");
        AsmNode::new_contig(contig_id(worker, ordinal), seq, 9)
    };
    let mut nodes = kmer_nodes(3, 101);
    nodes.extend([
        contig(0, 1),
        contig(1, 1),
        contig(0, 2),
        contig(1, 2),
        contig(2, 1),
        contig(2, 7),
    ]);
    // contig 0/1 → k-mer 0 → contig 1/1 → k-mer 1 → contig 0/2 → k-mer 2,
    // which forks into contigs 1/2 and 2/1; contig 2/7 stands alone.
    for (from, to) in [(3, 0), (0, 4), (4, 1), (1, 5), (5, 2), (2, 6), (2, 7)] {
        link(&mut nodes, from, to);
    }
    nodes
}

// ---------------------------------------------------------------------------
// The pin
// ---------------------------------------------------------------------------

type Labeling = fn(&ExecCtx, &[AsmNode]) -> LabelOutcome;

/// Runs a labeling and its reference on 1–4 workers and returns the
/// labeling's 2-worker outcome.
fn assert_same_outcome(
    nodes: &[AsmNode],
    what: &str,
    labeling: Labeling,
    reference: Labeling,
) -> LabelOutcome {
    let mut two_workers = None;
    for workers in 1..=4 {
        let ctx = ExecCtx::new(workers);
        let got = labeling(&ctx, nodes);
        let want = reference(&ctx, nodes);
        let at = format!("{what}, {workers} workers");
        assert_eq!(got.labels, want.labels, "labels: {at}");
        assert_eq!(got.ambiguous, want.ambiguous, "ambiguous: {at}");
        assert_eq!(got.used_cycle_fallback, want.used_cycle_fallback, "{at}");
        assert_eq!(got.metrics.converged, want.metrics.converged, "{at}");
        assert_eq!(
            got.metrics.supersteps, want.metrics.supersteps,
            "supersteps: {at}"
        );
        assert_eq!(
            got.metrics.total_messages, want.metrics.total_messages,
            "messages: {at}"
        );
        assert_eq!(
            got.metrics.total_dropped, want.metrics.total_dropped,
            "dropped messages: {at}"
        );
        assert_eq!(
            got.labels.len() + got.ambiguous.len(),
            nodes.len(),
            "every vertex is labelled or ambiguous: {at}"
        );
        if workers == 2 {
            two_workers = Some(got);
        }
    }
    two_workers.expect("the sweep covers 2 workers")
}

/// List ranking against its reference.
fn assert_matches_reference(nodes: &[AsmNode], what: &str) -> LabelOutcome {
    assert_same_outcome(
        nodes,
        &format!("LR, {what}"),
        label_contigs_lr_on,
        reference_label,
    )
}

/// Simplified S-V against its reference; it never takes a fallback.
fn assert_sv_matches_reference(nodes: &[AsmNode], what: &str) -> LabelOutcome {
    let outcome = assert_same_outcome(
        nodes,
        &format!("S-V, {what}"),
        label_contigs_sv_on,
        reference_label_sv,
    );
    assert!(outcome.metrics.converged && !outcome.used_cycle_fallback);
    outcome
}

#[test]
fn the_figure_11_path() {
    let nodes = nodes_from_reads(&["CTGCCGT", "CCGTACA"], 4);
    assert_eq!(nodes.len(), 7);
    let outcome = assert_matches_reference(&nodes, "seven-vertex path");
    assert_eq!(outcome.metrics.total_dropped, 0);
    assert!(!outcome.used_cycle_fallback);
    let label = outcome.labels[0].1;
    assert!(outcome.labels.iter().all(|(_, l)| *l == label));

    let outcome = assert_sv_matches_reference(&nodes, "seven-vertex path");
    assert_eq!(outcome.metrics.total_dropped, 0);
    let least = nodes.iter().map(|n| n.id).min().expect("non-empty");
    assert!(outcome.labels.iter().all(|(_, l)| *l == least));
}

#[test]
fn a_fork() {
    let nodes = nodes_from_reads(&["TTACTTGATCCG", "TTACTTGAACGG"], 5);
    for pin in [assert_matches_reference, assert_sv_matches_reference] {
        let outcome = pin(&nodes, "fork");
        assert_eq!(outcome.metrics.total_dropped, 0);
        assert!(!outcome.ambiguous.is_empty());
    }
}

#[test]
fn a_two_vertex_path() {
    let nodes = nodes_from_reads(&["ACGGTC"], 5);
    assert_eq!(nodes.len(), 2);
    for pin in [assert_matches_reference, assert_sv_matches_reference] {
        let outcome = pin(&nodes, "two-vertex path");
        assert_eq!(outcome.metrics.total_dropped, 0);
    }
}

#[test]
fn isolated_vertices_and_the_empty_set() {
    for pin in [assert_matches_reference, assert_sv_matches_reference] {
        let outcome = pin(&kmer_nodes(9, 53), "isolated vertices");
        assert_eq!(outcome.metrics.total_dropped, 0);
        assert!(outcome.labels.iter().all(|(id, label)| id == label));
        pin(&[], "empty node set");
    }
}

#[test]
fn cycles_take_the_fallback() {
    for n in [2, 3, 12, 37] {
        let nodes = synthetic_cycle(n);
        let outcome = assert_matches_reference(&nodes, &format!("{n}-cycle"));
        assert!(outcome.used_cycle_fallback);
        let least = nodes.iter().map(|n| n.id).min().expect("non-empty");
        assert!(outcome.labels.iter().all(|(_, l)| *l == least));

        // S-V labels a cycle like any other component.
        let outcome = assert_sv_matches_reference(&nodes, &format!("{n}-cycle"));
        assert!(outcome.labels.iter().all(|(_, l)| *l == least));
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
    let outcome = assert_matches_reference(&nodes, "path + two cycles");
    assert!(outcome.used_cycle_fallback);
    assert_eq!(outcome.metrics.total_dropped, 0);
    let labels: HashSet<u64> = outcome.labels.iter().map(|(_, l)| *l).collect();
    assert_eq!(labels.len(), 3, "one path, two cycles");

    let outcome = assert_sv_matches_reference(&nodes, "path + two cycles");
    assert_eq!(outcome.metrics.total_dropped, 0);
    let sv_labels: HashSet<u64> = outcome.labels.iter().map(|(_, l)| *l).collect();
    assert_eq!(sv_labels.len(), 3);
}

#[test]
fn a_self_loop_and_a_doubled_neighbour() {
    // Both sides of a vertex lead to the same vertex: to itself (0), or to
    // one neighbour twice (1 ⇄ 2); 3 → 4 is an ordinary path beside them.
    let mut nodes = kmer_nodes(5, 71);
    for (from, to) in [(0, 0), (1, 2), (2, 1), (3, 4)] {
        link(&mut nodes, from, to);
    }
    assert!(nodes.iter().all(|n| n.vertex_type() != VertexType::Branch));
    let outcome = assert_sv_matches_reference(&nodes, "self-loop + doubled neighbour");
    assert_eq!(outcome.metrics.total_dropped, 0);
    let labels: HashSet<u64> = outcome.labels.iter().map(|(_, l)| *l).collect();
    assert_eq!(labels.len(), 3);
    assert_matches_reference(&nodes, "self-loop + doubled neighbour");
}

#[test]
fn a_round_two_node_set_of_kmers_and_contigs() {
    let nodes = round_two_nodes();
    let outcome = assert_matches_reference(&nodes, "k-mers + contigs");
    assert_eq!(outcome.metrics.total_dropped, 0);
    assert_eq!(outcome.ambiguous, vec![nodes[2].id]);
    // The chain is labelled by its smaller end: a k-mer-free end is a contig.
    let chain_label = nodes[3].id.min(nodes[5].id);
    for at in [3, 0, 4, 1, 5] {
        assert!(outcome.labels.contains(&(nodes[at].id, chain_label)));
    }

    // S-V labels the chain by its smallest ID: a k-mer.
    let outcome = assert_sv_matches_reference(&nodes, "k-mers + contigs");
    assert_eq!(outcome.metrics.total_dropped, 0);
    assert_eq!(outcome.ambiguous, vec![nodes[2].id]);
    let least = nodes[0].id.min(nodes[1].id);
    for at in [3, 0, 4, 1, 5] {
        assert!(outcome.labels.contains(&(nodes[at].id, least)));
    }
}

#[test]
fn a_neighbour_missing_from_the_node_set() {
    // Drop a mid-path vertex: both of its neighbours keep an edge to an ID
    // that is no vertex, and whatever they send there is dropped.
    let mut nodes = nodes_from_reads(&["CTGCCGT", "CCGTACA"], 4);
    let mid = nodes
        .iter()
        .position(|n| n.vertex_type() == VertexType::OneOne)
        .expect("a seven-vertex path has inner vertices");
    nodes.remove(mid);
    for pin in [assert_matches_reference, assert_sv_matches_reference] {
        let outcome = pin(&nodes, "missing neighbour");
        assert!(outcome.metrics.total_dropped > 0);
    }

    // Two missing neighbours of one vertex share the absent rank.
    let mut nodes = nodes_from_reads(&["CTGCCGT", "CCGTACA"], 4);
    nodes.retain(|n| n.vertex_type() == VertexType::OneOne);
    for pin in [assert_matches_reference, assert_sv_matches_reference] {
        let outcome = pin(&nodes, "missing path ends");
        assert!(outcome.metrics.total_dropped > 0);
    }
}

// ---------------------------------------------------------------------------
// Random read sets
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
            _ => b'A',
        })
        .collect()
}

/// Reads over a small genome with a planted repeat (forks), substitution
/// errors (tips and bubbles) and reverse-complement duplicates of earlier
/// reads.
fn generated_reads(seed: u64) -> Vec<String> {
    let mut rng = Rng(seed | 1);
    let repeat: Vec<u8> = (0..12).map(|_| b"ACGT"[rng.below(4)]).collect();
    let mut genome: Vec<u8> = Vec::new();
    for _ in 0..3 {
        genome.extend((0..40 + rng.below(40)).map(|_| b"ACGT"[rng.below(4)]));
        genome.extend(&repeat);
    }
    let mut reads: Vec<Vec<u8>> = Vec::new();
    for _ in 0..20 + rng.below(40) {
        if !reads.is_empty() && rng.below(5) == 0 {
            let earlier = reads[rng.below(reads.len())].clone();
            reads.push(reverse_complement(&earlier));
            continue;
        }
        let len = 12 + rng.below(50);
        let start = rng.below(genome.len() - len);
        let mut read = genome[start..start + len].to_vec();
        for c in read.iter_mut() {
            if rng.below(50) == 0 {
                *c = b"ACGT"[rng.below(4)];
            }
        }
        reads.push(read);
    }
    reads
        .into_iter()
        .map(|r| String::from_utf8(r).expect("ASCII bases"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn prop_random_read_sets_label_as_the_references_do(
        seed in 1u64..u64::MAX,
        k_pick in 0usize..4,
    ) {
        let k = [5, 7, 11, 21][k_pick];
        let reads = generated_reads(seed);
        let refs: Vec<&str> = reads.iter().map(|r| r.as_str()).collect();
        let nodes = nodes_from_reads(&refs, k);
        prop_assert!(!nodes.is_empty());
        for pin in [assert_matches_reference, assert_sv_matches_reference] {
            let outcome = pin(&nodes, &format!("seed {seed}, k = {k}"));
            prop_assert_eq!(outcome.metrics.total_dropped, 0);
        }
    }
}
