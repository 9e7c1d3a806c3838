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
//! what is sent there is dropped as it would be for the missing ID. The way
//! in — dictionary, per-worker state build, running the job — is
//! `ranks.rs`'s and shared with S-V labeling ([`super::label_sv`]), whose
//! job the fallback is: it runs over the unresolved ranks only, every other
//! rank taking no part. Both jobs run on the engine's dense plane, resident
//! under any `SpillPolicy` (the cap binds construct's keyed pass), and a
//! pointer update compares ranks, never arrival order.
//!
//! The outcome stays in rank space: one `u32` per rank, the rank of the
//! vertex's label or [`AMBIGUOUS`] ([`LabelOutcome::labels`]). The fallback's
//! labels fill in the slots list ranking left unresolved, and the slots'
//! outcome is copied to their fragments' ranks once. Contig merging groups
//! that column as it is; no ID is looked up or hashed on the way out, so
//! the outcome is the same at every worker count.
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
//! fragments' terminal vertices, copied to every member. Labels and the
//! fallback flag are the vertex-level job's; the
//! metrics count the physical job, a twelfth to a seventeenth of the
//! messages at k = 31. At k ≤ 11 (m is clamped to k) every k-mer is its own
//! block and the job is the vertex-level one, message for message.

use super::blocks::Blocks;
use super::label_sv::{converged, sv_states};
use crate::node::{GraphNode, NodeSource};
use crate::ranks::{run_on, RankDict, RANK_FLIP, UNRESOLVED};
use crate::stats::{Phase, PhaseClock, PhaseTimes};
use ppa_pregel::aggregate::Count;
use ppa_pregel::algorithms::{SvProgram, SvState};
use ppa_pregel::{Context, ExecCtx, Metrics, PregelConfig, VertexProgram};
use std::sync::atomic::{AtomicBool, Ordering};

pub use crate::ranks::AMBIGUOUS;

/// Result of a contig-labeling run (either algorithm).
#[derive(Debug, Clone, PartialEq)]
pub struct LabelOutcome {
    /// One entry per vertex of the labelled node set, at its position (its
    /// rank): the rank of the vertex's label, or [`AMBIGUOUS`] for an
    /// ambiguous (⟨m-n⟩) vertex, which receives none. Vertices sharing a
    /// label belong to the same maximal unambiguous path (or cycle); the
    /// label names one of them.
    pub labels: Vec<u32>,
    /// Combined Pregel metrics of the labeling (including the S-V cycle
    /// fallback if it ran).
    pub metrics: Metrics,
    /// Whether the S-V fallback was needed (unambiguous cycles present).
    pub used_cycle_fallback: bool,
    /// Where the labeling's time went: keys, contraction, job and spread.
    /// Not part of a checkpoint: a restored outcome reads 0 throughout.
    pub phases: PhaseTimes,
}

impl LabelOutcome {
    /// The positions of the ambiguous vertices, ascending.
    pub fn ambiguous(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.labels.len()).filter(|&at| self.labels[at] == AMBIGUOUS)
    }
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
    type Value = LrState;
    type Message = LrMsg;
    type Aggregate = Count;

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
/// S-V cycle fallback and the copy of the fragments' labels to their ranks
/// all run on `ctx`'s persistent pool (worker count = pool size). The nodes
/// may be in any form ([`NodeSource`]); the outcome depends neither on which
/// nor on the worker count.
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
    let mut clock = PhaseClock::start();
    let config = PregelConfig::default().max_supersteps(4_000);
    let dict = RankDict::new(nodes.ids());
    let blocks = Blocks::build_on(ctx, nodes, &dict, &mut clock);

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
    let (program, mut metrics, mut outcome) =
        run_on(ctx, &config, blocks.len(), state_of, program_of, outcome_of);
    let stalled = program.stalled.load(Ordering::Relaxed);

    // S-V fallback for unambiguous cycles (and any vertex the stall left
    // unresolved): label each with the smallest vertex of its component.
    let unresolved = |slot: u32| outcome.get(slot as usize) == Some(&UNRESOLVED);
    let cycles_left = (0..blocks.len()).any(unresolved);
    let used_cycle_fallback = stalled || cycles_left;
    if cycles_left {
        let (_, sv_metrics, cycles) = run_on(
            ctx,
            &config,
            blocks.len(),
            sv_states(|slot| blocks.sides(slot), unresolved),
            SvProgram::new,
            |state: &SvState| blocks.rank(state.parent()),
        );
        if let Err(e) = converged(&sv_metrics) {
            std::panic::panic_any(e);
        }
        metrics.absorb(&sv_metrics);
        for (label, cycle) in outcome.iter_mut().zip(cycles) {
            if *label == UNRESOLVED {
                *label = cycle;
            }
        }
    }

    clock.lap(Phase::Job);
    let labels = blocks.spread_on(ctx, &outcome);
    clock.lap(Phase::Spread);
    LabelOutcome {
        labels,
        metrics,
        used_cycle_fallback,
        phases: clock.times(),
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

    /// `(vertex ID, label ID)` of every labelled vertex of `nodes`.
    pub(crate) fn labelled(nodes: &[AsmNode], outcome: &LabelOutcome) -> Vec<(u64, u64)> {
        assert_eq!(outcome.labels.len(), nodes.len());
        nodes
            .iter()
            .zip(&outcome.labels)
            .filter(|(_, &label)| label != AMBIGUOUS)
            .map(|(node, &label)| (node.id, nodes[label as usize].id))
            .collect()
    }

    /// Groups labels into sets of vertex IDs.
    pub(crate) fn groups_of(nodes: &[AsmNode], outcome: &LabelOutcome) -> Vec<HashSet<u64>> {
        let mut by_label: HashMap<u64, HashSet<u64>> = HashMap::new();
        for (id, label) in labelled(nodes, outcome) {
            by_label.entry(label).or_default().insert(id);
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

    pub(crate) fn groups_sorted(nodes: &[AsmNode], outcome: &LabelOutcome) -> Vec<Vec<u64>> {
        let mut got: Vec<Vec<u64>> = groups_of(nodes, outcome)
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
        assert_eq!(outcome.ambiguous().count(), 0);
        assert_eq!(labelled(&nodes, &outcome).len(), 7);
        let groups = groups_of(&nodes, &outcome);
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
        assert!(labelled(&nodes, &outcome)
            .iter()
            .all(|(_, l)| *l == expected_label));
    }

    #[test]
    fn fork_splits_labels_at_ambiguous_vertex() {
        // Two reads diverge after a shared prefix; the fork vertex is ⟨m-n⟩ and
        // must not be labelled, and the branches get distinct labels.
        let nodes = nodes_from_reads(&["TTACTTGATCCG", "TTACTTGAACGG"], 5);
        let outcome = label_contigs_lr_on(&ExecCtx::new(2), &nodes);
        let ambiguous = outcome.ambiguous().count();
        assert!(ambiguous > 0, "the fork must create ambiguous vertices");
        let groups = groups_of(&nodes, &outcome);
        assert!(
            groups.len() >= 2,
            "expected at least two labelled paths, got {}",
            groups.len()
        );
        // Labels plus ambiguous vertices cover every vertex exactly once.
        let labelled: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(labelled + ambiguous, nodes.len());
        // Groups must match the connected components of the unambiguous subgraph.
        assert_eq!(
            groups_sorted(&nodes, &outcome),
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
            groups_sorted(&nodes, &outcome),
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
        let groups = groups_of(&nodes, &outcome);
        assert_eq!(groups.len(), 1, "the whole cycle is one contig");
        assert_eq!(groups[0].len(), nodes.len());
        // The cycle label is the smallest vertex ID in the cycle.
        let min_id = nodes.iter().map(|n| n.id).min().unwrap();
        assert!(labelled(&nodes, &outcome).iter().all(|(_, l)| *l == min_id));
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
            groups_sorted(&nodes, &outcome),
            unambiguous_component_oracle(&nodes)
        );
    }

    #[test]
    fn empty_input() {
        let outcome = label_contigs_lr_on::<[AsmNode]>(&ExecCtx::new(2), &[]);
        assert!(outcome.labels.is_empty());
        assert!(outcome.metrics.converged);
    }

    #[test]
    fn two_vertex_path() {
        let nodes = nodes_from_reads(&["ACGGTC"], 5);
        assert_eq!(nodes.len(), 2);
        let outcome = label_contigs_lr_on(&ExecCtx::new(1), &nodes);
        assert_eq!(groups_of(&nodes, &outcome).len(), 1);
        assert_eq!(labelled(&nodes, &outcome).len(), 2);
    }
}
