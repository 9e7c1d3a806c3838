//! Operation ② — contig labeling via **bidirectional list ranking** (the BPPA
//! of Section IV-B, Figure 11).
//!
//! The goal is to mark every vertex of each *maximal unambiguous path* with a
//! unique label so that the contig-merging operation can group them. The
//! algorithm:
//!
//! 1. **Superstep 0** — every ambiguous (⟨m-n⟩) vertex broadcasts its ID to its
//!    neighbours and votes to halt for good.
//! 2. **Superstep 1** — every unambiguous vertex initialises its *ID pair*: one
//!    pointer per side, holding the neighbour on that side, or its own ID with
//!    the *flip* bit set when that side has no unambiguous neighbour (i.e. the
//!    vertex is a contig end on that side). It then sends a request along every
//!    unfinished pointer.
//! 3. **Doubling rounds** — requests (odd supersteps) and responses (even
//!    supersteps) alternate; each response carries the responder's *other*
//!    pointer, so the distance covered by every pointer doubles per round. A
//!    pointer is finished once it holds a flipped contig-end ID.
//!    `O(log ℓ_max)` rounds suffice.
//! 4. **Cycle fallback** — an unambiguous cycle never reaches a contig end.
//!    Every path vertex finishes within the BPPA's `O(log n)` superstep budget,
//!    so if unfinished vertices remain once that budget is exhausted they must
//!    lie on cycles; the job stops and the remaining vertices are labelled by
//!    the simplified S-V algorithm (the smallest vertex ID in the cycle),
//!    exactly as the paper prescribes.
//!
//! The final label of a vertex is the smaller of its two contig-end IDs.
//!
//! # Rank space
//!
//! The jobs do not run on the 64-bit vertex IDs. The node set is translated
//! once into a rank dictionary (`ranks.rs`) — its ID column, ascending by
//! contract, which for construct's k-mer graph is the graph's own k-mer
//! column — and both the BPPA and its S-V fallback address vertices by their
//! dense `u32` **rank**, their position in the node set: a message record is
//! 16 bytes, the flip bit is bit 31 of a rank and the per-vertex state is
//! two pointers. Ranks order as IDs do, so
//! "the smaller end" and "the smallest ID of the cycle" are decided on ranks;
//! a neighbour ID outside the node set becomes the one-past-the-end rank, and
//! what is sent there is dropped as it would be for the missing ID. The
//! outcome is translated back, in the order a job over the IDs themselves
//! would have left it (see [`LabelOutcome::labels`]). The way in and out —
//! dictionary, per-worker state build, running the job, read-back — is
//! `ranks.rs`'s and shared with S-V labeling ([`super::label_sv`]), whose
//! job the fallback is: it runs over the unresolved ranks only, every other
//! rank taking no part. `ranks.rs` also decides which of the engine's planes
//! both jobs run on (the dense one, unless a spill cap has to be honoured).
//! Nothing here depends on that: a pointer update compares ranks, never
//! arrival order.
//!
//! # Blocks
//!
//! Deviation from Figure 11: the BPPA runs over minimizer-block fragments
//! (`blocks.rs`, after Blogel's block-centric model: Yan, Cheng, Lu and Ng,
//! *PVLDB* 2014), not over every vertex. Each run of a chain whose k-mers
//! share their minimizer is contracted into one fragment without messages,
//! and the job addresses fragments by **slot** (ascending smallest rank).
//! A fragment's pointers start at the slots beyond its ends, so a flip
//! marks the end *fragment* reached; the label is the smaller of the end
//! fragments' terminal vertices, copied to every member. Labels, order,
//! ambiguous IDs and the fallback flag are the vertex-level job's; the
//! metrics count the physical job, a twelfth to a seventeenth of the
//! messages at k = 31. At k ≤ 11 (m is clamped to k) every k-mer is its own
//! block and the job is the vertex-level one, message for message.

use super::blocks::Blocks;
use super::label_sv::{converged, sv_states};
use crate::node::{GraphNode, NodeSource};
use crate::ranks::{run_on, RankDict, AMBIGUOUS, RANK_FLIP, UNRESOLVED};
use ppa_pregel::aggregate::Count;
use ppa_pregel::algorithms::{Spillable, SvProgram, SvState};
use ppa_pregel::{Context, ExecCtx, Metrics, PregelConfig, SpillCodec, SpillCodecs, VertexProgram};
use std::sync::atomic::{AtomicBool, Ordering};

/// Result of a contig-labeling run (either algorithm).
#[derive(Debug, Clone, PartialEq)]
pub struct LabelOutcome {
    /// `(vertex id, label)` for every unambiguous vertex. Vertices sharing a
    /// label belong to the same maximal unambiguous path (or cycle). Ordered
    /// by owning worker (`hash_one(&id) % workers`), then by ID — contig IDs
    /// are minted from this order.
    pub labels: Vec<(u64, u64)>,
    /// IDs of ambiguous (⟨m-n⟩) vertices, which receive no label.
    pub ambiguous: Vec<u64>,
    /// Combined Pregel metrics of the labeling (including the S-V cycle
    /// fallback if it ran).
    pub metrics: Metrics,
    /// Whether the S-V fallback was needed (unambiguous cycles present).
    pub used_cycle_fallback: bool,
}

const LEFT: usize = 0;
const RIGHT: usize = 1;

/// Marks a pointer as having reached a contig end (idempotent).
#[inline]
fn flip(rank: u32) -> u32 {
    rank | RANK_FLIP
}

#[inline]
fn unflip(ptr: u32) -> u32 {
    ptr & !RANK_FLIP
}

#[inline]
fn is_flipped(ptr: u32) -> bool {
    ptr & RANK_FLIP != 0
}

/// Whether both pointers of a vertex have reached their contig end.
#[inline]
fn finished(ptr: &[u32; 2]) -> bool {
    is_flipped(ptr[LEFT]) && is_flipped(ptr[RIGHT])
}

/// Per-vertex state of the list-ranking program.
#[derive(Debug, Clone, PartialEq)]
enum LrState {
    /// An ambiguous vertex. Its superstep-0 broadcast list (an ⟨m-n⟩ vertex
    /// can have more than one neighbour per side) is
    /// `broadcast[worker][start..end]` of the [`LrProgram`].
    Branch { start: u32, end: u32 },
    /// An unambiguous vertex: the pointer per side (`[left, right]`) — the
    /// rank of a vertex further along that side, or, flipped, of the contig
    /// end the side has reached.
    Path { ptr: [u32; 2] },
}

#[derive(Debug, Clone, PartialEq)]
enum LrMsg {
    /// Superstep 0: "I am ambiguous" broadcast (carries the sender's rank).
    Ambiguous(u32),
    /// "Send me your other pointer" (carries the requester's rank).
    Request(u32),
    /// Reply to a request: the responder's rank and its other pointer.
    Response { responder: u32, other: u32 },
}

// The sizes the rank-space plane exists for: a shuffle record of a `u32`
// destination and its message, and a value-column slot.
const _: () = assert!(std::mem::size_of::<(u32, LrMsg)>() == 16);
const _: () = assert!(std::mem::size_of::<LrState>() <= 32);

// Spill codecs for the labeling job's state and messages, so list ranking can
// opt into the engine's out-of-core execution (partition sealing and shuffle
// run spilling) when a `SpillPolicy` cap is installed. Per the panic-free
// codec contract, `decode` rejects malformed input with `None`.

impl SpillCodec for LrState {
    fn encode(&self, buf: &mut Vec<u8>) {
        let (tag, a, b) = match *self {
            LrState::Branch { start, end } => (0u8, start, end),
            LrState::Path { ptr } => (1u8, ptr[LEFT], ptr[RIGHT]),
        };
        (tag, a, b).encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match <(u8, u32, u32)>::decode(buf)? {
            (0, start, end) => Some(LrState::Branch { start, end }),
            (1, left, right) => Some(LrState::Path { ptr: [left, right] }),
            _ => None,
        }
    }
}

impl SpillCodec for LrMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match *self {
            LrMsg::Ambiguous(rank) => (0u8, rank).encode(buf),
            LrMsg::Request(rank) => (1u8, rank).encode(buf),
            LrMsg::Response { responder, other } => (2u8, responder, other).encode(buf),
        }
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::decode(buf)? {
            0 => Some(LrMsg::Ambiguous(u32::decode(buf)?)),
            1 => Some(LrMsg::Request(u32::decode(buf)?)),
            2 => Some(LrMsg::Response {
                responder: u32::decode(buf)?,
                other: u32::decode(buf)?,
            }),
            _ => None,
        }
    }
}

struct LrProgram {
    /// Superstep budget: `2⌈log₂(n+1)⌉ + slack`. Any vertex on a path finishes
    /// within this many supersteps; unfinished vertices past the budget are on
    /// cycles.
    superstep_budget: usize,
    stalled: AtomicBool,
    /// Per worker — the worker whose store holds the vertex, which is the one
    /// `Context::worker` names when it computes — the neighbour ranks of its
    /// ambiguous vertices, one list after the other ([`LrState::Branch`]
    /// holds the bounds).
    broadcast: Vec<Vec<u32>>,
}

impl LrProgram {
    fn new(num_vertices: usize, broadcast: Vec<Vec<u32>>) -> LrProgram {
        let log = (usize::BITS - num_vertices.next_power_of_two().leading_zeros()) as usize;
        LrProgram {
            superstep_budget: 2 * (log + 2) + 4,
            stalled: AtomicBool::new(false),
            broadcast,
        }
    }
}

impl VertexProgram for LrProgram {
    type Id = u32;
    type Value = LrState;
    type Message = LrMsg;
    type Aggregate = Count;

    fn spill_codecs() -> Option<SpillCodecs<Self>> {
        Some(SpillCodecs::new())
    }

    fn compute(
        &self,
        ctx: &mut Context<'_, Self>,
        rank: u32,
        value: &mut LrState,
        messages: &mut [LrMsg],
    ) {
        let superstep = ctx.superstep();
        let ptr = match value {
            LrState::Branch { start, end } => {
                if superstep == 0 {
                    for &n in &self.broadcast[ctx.worker()][*start as usize..*end as usize] {
                        ctx.send_message(n, LrMsg::Ambiguous(rank));
                    }
                }
                // Ambiguous vertices take no further part.
                ctx.vote_to_halt();
                return;
            }
            // Unambiguous vertices stay active so that superstep 1 sees the
            // broadcasts.
            LrState::Path { .. } if superstep == 0 => return,
            LrState::Path { ptr } => ptr,
        };

        // Pointers first: a side whose neighbour turned out ambiguous
        // (superstep 1) ends here, and a response advances the pointer it
        // answers. Requests are then answered from the post-update snapshot
        // (requests and responses arrive in different supersteps, so the
        // order only matters for robustness, not semantics).
        for msg in messages.iter() {
            let (from, to) = match *msg {
                LrMsg::Ambiguous(neighbor) => (neighbor, flip(rank)),
                LrMsg::Response { responder, other } => (responder, other),
                LrMsg::Request(_) => continue,
            };
            for p in ptr.iter_mut() {
                if *p == from {
                    *p = to;
                }
            }
        }

        // Answer requests: hand out the pointer that does not lead back to the
        // requester. Because every pointer advances in lockstep (one doubling
        // per round), exactly one of the two pointers leads back to the
        // requester — see the module documentation.
        for msg in messages.iter() {
            let LrMsg::Request(from) = *msg else {
                continue;
            };
            let left_matches = unflip(ptr[LEFT]) == from;
            let right_matches = unflip(ptr[RIGHT]) == from;
            let reply = match (left_matches, right_matches) {
                (true, false) => Some(ptr[RIGHT]),
                (false, true) => Some(ptr[LEFT]),
                (true, true) => None, // 2-cycle: no direction leads away.
                (false, false) => {
                    // Defensive: should not happen for well-formed paths;
                    // prefer a finished pointer so the requester terminates.
                    Some(if is_flipped(ptr[LEFT]) {
                        ptr[LEFT]
                    } else {
                        ptr[RIGHT]
                    })
                }
            };
            if let Some(other) = reply {
                ctx.send_message(
                    from,
                    LrMsg::Response {
                        responder: rank,
                        other,
                    },
                );
            }
        }

        // Request phase on odd supersteps.
        if superstep % 2 == 1 && !finished(ptr) {
            ctx.aggregate(Count(1));
            for p in *ptr {
                if !is_flipped(p) {
                    ctx.send_message(p, LrMsg::Request(rank));
                }
            }
        }
        ctx.vote_to_halt();
    }

    fn should_terminate(&self, aggregate: &Count, superstep: usize) -> bool {
        // Only request phases (odd supersteps) carry the unfinished count.
        if superstep.is_multiple_of(2) {
            return false;
        }
        if superstep >= self.superstep_budget && aggregate.0 > 0 {
            // Path vertices are guaranteed to finish within the budget, so the
            // remaining unfinished vertices lie on unambiguous cycles.
            self.stalled.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }
}

/// Labels every maximal unambiguous path using bidirectional list ranking,
/// falling back to the simplified S-V algorithm for unambiguous cycles. The
/// translation into rank space, the list-ranking job (`ranks::run_on`), its
/// S-V cycle fallback and the translation back all run on `ctx`'s persistent
/// pool (worker count = pool size). The nodes may be in any form
/// ([`NodeSource`]); the outcome does not depend on which.
///
/// # Panics
///
/// Panics if the nodes are not listed in strictly ascending ID order.
///
/// # Errors
///
/// A cycle fallback its superstep budget cut off raises
/// [`EngineError::NotConverged`](ppa_pregel::EngineError::NotConverged) as
/// a typed panic payload, as S-V labeling does.
pub fn label_contigs_lr_on<S: NodeSource + ?Sized>(ctx: &ExecCtx, nodes: &S) -> LabelOutcome {
    let config = PregelConfig::default().max_supersteps(4_000);
    let dict = RankDict::new(nodes.ids());
    let blocks = Blocks::build_on(ctx, nodes, &dict);

    // The states of the slots each worker will hold; an ambiguous vertex
    // parks its broadcast list, its neighbours' slots, on the slab.
    let state_of = |slot: u32, slab: &mut Vec<u32>| {
        if blocks.is_ambiguous(slot) {
            let start = slab.len() as u32;
            let node = nodes.node(blocks.rank(slot) as usize);
            slab.extend(
                node.real_edges()
                    .map(|e| blocks.slot(dict.rank(e.neighbor))),
            );
            return Some(LrState::Branch {
                start,
                end: slab.len() as u32,
            });
        }
        // A side without a neighbour is a contig end from the start.
        let sides = blocks.sides(slot)?;
        Some(LrState::Path {
            ptr: sides.map(|n| n.unwrap_or(flip(slot))),
        })
    };
    // Per slot: the rank of its label — the smaller terminal vertex of the
    // end fragments its pointers reached — or a mark.
    let outcome_of = |state: &LrState| match state {
        LrState::Branch { .. } => AMBIGUOUS,
        LrState::Path { ptr } if finished(ptr) => blocks
            .terminal(unflip(ptr[LEFT]))
            .min(blocks.terminal(unflip(ptr[RIGHT]))),
        LrState::Path { .. } => UNRESOLVED,
    };
    let program_of = |broadcast| LrProgram::new(nodes.len(), broadcast);
    let (program, mut metrics, outcome) =
        run_on(ctx, &config, blocks.len(), state_of, program_of, outcome_of);
    let stalled = program.stalled.load(Ordering::Relaxed);

    // S-V fallback for unambiguous cycles (and any vertex the stall left
    // unresolved): label each with the smallest vertex of its component.
    let unresolved = |slot: u32| outcome.get(slot as usize) == Some(&UNRESOLVED);
    let cycles_left = (0..blocks.len()).any(unresolved);
    let used_cycle_fallback = stalled || cycles_left;
    let mut cycles = None;
    if cycles_left {
        let (_, sv_metrics, outcome) = run_on(
            ctx,
            &config,
            blocks.len(),
            sv_states(|slot| blocks.sides(slot), unresolved),
            SvProgram::<u32, Spillable>::new,
            |state: &SvState<u32>| blocks.rank(state.parent()),
        );
        if let Err(e) = converged(&sv_metrics) {
            std::panic::panic_any(e);
        }
        metrics.absorb(&sv_metrics);
        cycles = Some(blocks.spread_on(ctx, &outcome));
    }
    // Per rank from here on: the blocks go before the IDs come back.
    let outcome = blocks.spread_on(ctx, &outcome);
    drop(blocks);
    let (mut labels, ambiguous) = dict.read_back_on(ctx, &outcome);
    if let Some(cycles) = cycles {
        // The cycles after the paths, as a job over the IDs left them.
        labels.extend(dict.read_back_on(ctx, &cycles).0);
    }

    LabelOutcome {
        labels,
        ambiguous,
        metrics,
        used_cycle_fallback,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ids::kmer_id;
    use crate::node::{AsmNode, Edge, VertexType};
    use crate::ops::construct::{build_dbg_on, ConstructConfig};
    use crate::polarity::{Direction, Polarity};
    use ppa_seq::{Kmer, ReadSet};
    use std::collections::{HashMap, HashSet};

    pub(crate) fn nodes_from_reads(seqs: &[&str], k: usize) -> Vec<AsmNode> {
        let reads = seqs
            .iter()
            .enumerate()
            .map(|(i, s)| (format!("r{i}"), s))
            .collect::<ReadSet>();
        build_dbg_on(
            &ExecCtx::new(2),
            &reads,
            &ConstructConfig {
                k,
                min_coverage: 0,
                batch_size: 4,
            },
        )
        .into_nodes()
    }

    /// Groups labels into sets of vertex IDs.
    pub(crate) fn groups_of(outcome: &LabelOutcome) -> Vec<HashSet<u64>> {
        let mut by_label: HashMap<u64, HashSet<u64>> = HashMap::new();
        for (id, label) in &outcome.labels {
            by_label.entry(*label).or_default().insert(*id);
        }
        by_label.into_values().collect()
    }

    /// Union-find oracle over unambiguous vertices only.
    pub(crate) fn unambiguous_component_oracle(nodes: &[AsmNode]) -> Vec<Vec<u64>> {
        let unambiguous: HashSet<u64> = nodes
            .iter()
            .filter(|n| n.vertex_type() != VertexType::Branch)
            .map(|n| n.id)
            .collect();
        let mut parent: HashMap<u64, u64> = unambiguous.iter().map(|&v| (v, v)).collect();
        fn find(parent: &mut HashMap<u64, u64>, x: u64) -> u64 {
            let p = parent[&x];
            if p == x {
                x
            } else {
                let r = find(parent, p);
                parent.insert(x, r);
                r
            }
        }
        for n in nodes {
            if !unambiguous.contains(&n.id) {
                continue;
            }
            for e in n.real_edges() {
                if unambiguous.contains(&e.neighbor) {
                    let (a, b) = (find(&mut parent, n.id), find(&mut parent, e.neighbor));
                    if a != b {
                        parent.insert(a.max(b), a.min(b));
                    }
                }
            }
        }
        let mut groups: HashMap<u64, Vec<u64>> = HashMap::new();
        for &v in &unambiguous {
            groups.entry(find(&mut parent, v)).or_default().push(v);
        }
        let mut out: Vec<Vec<u64>> = groups
            .into_values()
            .map(|mut g| {
                g.sort_unstable();
                g
            })
            .collect();
        out.sort();
        out
    }

    pub(crate) fn groups_sorted(outcome: &LabelOutcome) -> Vec<Vec<u64>> {
        let mut got: Vec<Vec<u64>> = groups_of(outcome)
            .iter()
            .map(|g| {
                let mut v: Vec<u64> = g.iter().copied().collect();
                v.sort_unstable();
                v
            })
            .collect();
        got.sort();
        got
    }

    #[test]
    fn single_path_gets_one_label() {
        // Figure 9 / 11: the seven-vertex path has no ambiguous vertex, so all
        // seven vertices share one label.
        let nodes = nodes_from_reads(&["CTGCCGT", "CCGTACA"], 4);
        assert_eq!(nodes.len(), 7);
        let outcome = label_contigs_lr_on(&ExecCtx::new(3), &nodes);
        assert!(outcome.ambiguous.is_empty());
        assert_eq!(outcome.labels.len(), 7);
        let groups = groups_of(&outcome);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 7);
        assert!(!outcome.used_cycle_fallback);
        assert!(outcome.metrics.converged);
        // Doubling: 7 vertices need ~3 rounds of 2 supersteps plus setup.
        assert!(
            outcome.metrics.supersteps <= 14,
            "supersteps = {}",
            outcome.metrics.supersteps
        );
        // The label is the smaller of the two end IDs (paper: "the smaller
        // contig-end vertex's ID").
        let end_ids: Vec<u64> = nodes
            .iter()
            .filter(|n| n.vertex_type() == VertexType::One)
            .map(|n| n.id)
            .collect();
        let expected_label = *end_ids.iter().min().unwrap();
        assert!(outcome.labels.iter().all(|(_, l)| *l == expected_label));
    }

    #[test]
    fn fork_splits_labels_at_ambiguous_vertex() {
        // Two reads diverge after a shared prefix; the fork vertex is ⟨m-n⟩ and
        // must not be labelled, and the branches get distinct labels.
        let nodes = nodes_from_reads(&["TTACTTGATCCG", "TTACTTGAACGG"], 5);
        let outcome = label_contigs_lr_on(&ExecCtx::new(2), &nodes);
        assert!(
            !outcome.ambiguous.is_empty(),
            "the fork must create ambiguous vertices"
        );
        let groups = groups_of(&outcome);
        assert!(
            groups.len() >= 2,
            "expected at least two labelled paths, got {}",
            groups.len()
        );
        // Labels plus ambiguous vertices cover every vertex exactly once.
        let labelled: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(labelled + outcome.ambiguous.len(), nodes.len());
        // Groups must match the connected components of the unambiguous subgraph.
        assert_eq!(
            groups_sorted(&outcome),
            unambiguous_component_oracle(&nodes)
        );
    }

    #[test]
    fn labels_agree_with_the_unambiguous_component_oracle() {
        let nodes = nodes_from_reads(
            &[
                "ACCTGACCGTTAGCAT",
                "TTAGCATCCGGATACC",
                "GGATACCACCTGACC",
                "TGCTAAGGTATCCGGA",
            ],
            5,
        );
        let outcome = label_contigs_lr_on(&ExecCtx::new(3), &nodes);
        assert_eq!(
            groups_sorted(&outcome),
            unambiguous_component_oracle(&nodes)
        );
    }

    /// Builds a synthetic ring of `n` unambiguous vertices (each with one edge
    /// per side), which is exactly the case that defeats list ranking.
    pub(crate) fn synthetic_cycle(n: usize) -> Vec<AsmNode> {
        // Generate n distinct canonical 6-mers deterministically.
        let mut kmers: Vec<Kmer> = Vec::new();
        let mut packed = 0u64;
        while kmers.len() < n {
            packed += 37;
            if let Ok(k) = Kmer::from_packed(packed, 6) {
                if k.is_canonical() && !kmers.contains(&k) {
                    kmers.push(k);
                }
            }
        }
        let ids: Vec<u64> = kmers.iter().map(kmer_id).collect();
        kmers
            .iter()
            .enumerate()
            .map(|(i, k)| {
                let mut node = AsmNode::new_kmer(*k);
                let next = ids[(i + 1) % n];
                let prev = ids[(i + n - 1) % n];
                // Next on the right, previous on the left.
                node.push_edge(Edge {
                    neighbor: next,
                    direction: Direction::Out,
                    polarity: Polarity::LL,
                    coverage: 3,
                });
                node.push_edge(Edge {
                    neighbor: prev,
                    direction: Direction::In,
                    polarity: Polarity::LL,
                    coverage: 3,
                });
                node
            })
            .collect()
    }

    #[test]
    fn cycle_falls_back_to_sv() {
        let nodes = synthetic_cycle(12);
        assert!(nodes.iter().all(|n| n.vertex_type() == VertexType::OneOne));
        let outcome = label_contigs_lr_on(&ExecCtx::new(2), &nodes);
        assert!(
            outcome.used_cycle_fallback,
            "cycles require the S-V fallback"
        );
        let groups = groups_of(&outcome);
        assert_eq!(groups.len(), 1, "the whole cycle is one contig");
        assert_eq!(groups[0].len(), nodes.len());
        // The cycle label is the smallest vertex ID in the cycle.
        let min_id = nodes.iter().map(|n| n.id).min().unwrap();
        assert!(outcome.labels.iter().all(|(_, l)| *l == min_id));
    }

    #[test]
    fn mixed_path_and_cycle() {
        // A path (from reads) plus a synthetic disjoint cycle: the path must be
        // labelled by list ranking, the cycle by the fallback, and the groups
        // must still match the component oracle.
        let mut nodes = nodes_from_reads(&["CTGCCGT", "CCGTACA"], 4);
        nodes.extend(synthetic_cycle(8));
        nodes.sort_unstable_by_key(|node| node.id);
        let outcome = label_contigs_lr_on(&ExecCtx::new(3), &nodes);
        assert!(outcome.used_cycle_fallback);
        assert_eq!(
            groups_sorted(&outcome),
            unambiguous_component_oracle(&nodes)
        );
    }

    #[test]
    fn empty_input() {
        let outcome = label_contigs_lr_on::<[AsmNode]>(&ExecCtx::new(2), &[]);
        assert!(outcome.labels.is_empty());
        assert!(outcome.ambiguous.is_empty());
        assert!(outcome.metrics.converged);
    }

    #[test]
    fn two_vertex_path() {
        let nodes = nodes_from_reads(&["ACGGTC"], 5);
        assert_eq!(nodes.len(), 2);
        let outcome = label_contigs_lr_on(&ExecCtx::new(1), &nodes);
        assert_eq!(groups_of(&outcome).len(), 1);
        assert_eq!(outcome.labels.len(), 2);
    }

    #[test]
    fn spill_codecs_round_trip_and_reject_truncated_input() {
        fn check<T: SpillCodec + PartialEq + std::fmt::Debug>(value: T) {
            let mut buf = Vec::new();
            value.encode(&mut buf);
            let mut rest = buf.as_slice();
            assert_eq!(T::decode(&mut rest), Some(value));
            assert!(rest.is_empty());
            for cut in 0..buf.len() {
                assert_eq!(T::decode(&mut &buf[..cut]), None, "cut at {cut}");
            }
            buf[0] = 9; // no such variant
            assert_eq!(T::decode(&mut buf.as_slice()), None);
        }
        check(LrState::Branch {
            start: 3,
            end: 70_000,
        });
        check(LrState::Path {
            ptr: [flip(5), u32::MAX >> 1],
        });
        check(LrMsg::Ambiguous(7));
        check(LrMsg::Request(RANK_FLIP - 1));
        check(LrMsg::Response {
            responder: 1,
            other: flip(2),
        });
    }
}
