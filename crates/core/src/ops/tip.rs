//! Operation ⑤ — tip removing (Section IV-B).
//!
//! A *tip* is a short dangling path (Figure 5) usually caused by read errors
//! near the end of a read. After contig merging the graph consists of
//! ambiguous k-mer vertices and contig vertices; this operation
//!
//! 1. lets every contig announce itself to its two end k-mer vertices, and
//!    every ambiguous k-mer announce its continued existence to its
//!    neighbours, so that each k-mer can rebuild its adjacency in terms of
//!    surviving k-mers and contig-labelled edges (the paper's supersteps that
//!    "set the adjacency lists of the k-mer vertices");
//! 2. runs the REQUEST/DELETE protocol: every ⟨1⟩-typed k-mer sends a REQUEST
//!    carrying the cumulative sequence length of the dangling path; ⟨1-1⟩
//!    vertices relay it (adding one base plus any contig length minus the k−1
//!    overlap); the ⟨m-n⟩ or ⟨1⟩ vertex at which the request terminates decides
//!    whether the path is short enough to be a tip, and if so sends a DELETE
//!    back along the path, deleting the traversed vertices and contigs;
//! 3. a vertex whose type drops to ⟨1⟩ because of a deletion initiates a new
//!    REQUEST, which implements the paper's multi-phase iteration inside a
//!    single converging Pregel job.
//!
//! # Rank space
//!
//! The job runs on the dense ranks of the node set — the ambiguous k-mers,
//! then the contigs, strictly ascending by ID, so a vertex's rank is its
//! position (`ranks.rs`) — on the engine's dense plane. Messages carry
//! ranks; the program reads each vertex's node where it lies, by position,
//! and keeps only the protocol's bookkeeping per vertex. An edge to an ID
//! outside the node set (a k-mer folded into a contig) leads to the
//! one-past-the-end rank, and what is sent there is dropped and counted. The
//! survivors are read back in rank order, which is ID order.

use crate::ids::NULL_ID;
use crate::node::{AsmNode, Edge, MixedNodes, NodeSource, VertexType};
use crate::polarity::Side;
use crate::ranks::RankDict;
use ppa_pregel::aggregate::NoAggregate;
use ppa_pregel::{run_dense_on, Context, DenseSet, ExecCtx, Metrics, PregelConfig, VertexProgram};
use serde::{Deserialize, Serialize};

/// Configuration of tip removing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TipConfig {
    /// k-mer size (a k-mer vertex contributes k bases when it starts a path
    /// and 1 base when it extends one).
    pub k: usize,
    /// Maximum total length (in bases) of a dangling path that is considered a
    /// tip and removed (the paper uses 80).
    pub tip_length_threshold: usize,
}

impl Default for TipConfig {
    fn default() -> Self {
        TipConfig {
            k: 31,
            tip_length_threshold: 80,
        }
    }
}

/// Output of tip removing. Both node lists are in strictly ascending ID
/// order, the order a node set keeps
/// ([`NodeSource`]), so that the next labeling
/// round reads the k-mers followed by the contigs as they are.
#[derive(Debug, Clone)]
// ppa_lint: allow(test-only-pub) the return type of `remove_tips_on`
pub struct TipOutcome {
    /// Surviving ambiguous k-mer vertices, with adjacency rebuilt in terms of
    /// surviving k-mers and contigs (ready for the next labeling round).
    pub kmers: Vec<AsmNode>,
    /// Surviving contig vertices.
    pub contigs: Vec<AsmNode>,
    /// Number of k-mer vertices deleted.
    pub deleted_kmers: usize,
    /// Number of contig vertices deleted.
    pub deleted_contigs: usize,
    /// Pregel metrics of the tip-removal job.
    pub metrics: Metrics,
}

/// One rebuilt adjacency entry of a k-mer vertex during tip removal.
#[derive(Debug, Clone)]
struct TipAdj {
    /// The rank of the k-mer vertex at the other end of this edge (`None` if
    /// the edge runs through a contig whose far end dangles).
    other: Option<u32>,
    /// The edge record from this k-mer's perspective (its `neighbor` is the
    /// contig ID for contig-labelled edges, or the other k-mer's for direct
    /// edges).
    edge: Edge,
    /// The rank of the contig sitting on this edge, if any.
    via_contig: Option<u32>,
    /// Extra sequence length contributed by the contig on this edge
    /// (`contig length − (k−1)`), 0 for direct edges.
    extra_len: usize,
    /// Whether this entry has been deleted by the protocol.
    deleted: bool,
}

/// A relayed request remembered so that the DELETE can retrace the path.
#[derive(Debug, Clone)]
struct Pending {
    origin: u32,
    from: u32,
    to: u32,
    via_in: Option<u32>,
    via_out: Option<u32>,
}

/// What the job keeps per vertex; its node stays where it lies. A contig
/// uses only `deleted`.
#[derive(Debug, Default)]
struct TipState {
    /// A k-mer's adjacency, rebuilt from the announcements of superstep 0.
    adj: Vec<TipAdj>,
    deleted: bool,
    /// Whether the k-mer has sent its own REQUEST.
    initiated: bool,
    pending: Vec<Pending>,
}

#[derive(Debug, Clone)]
enum TipMsg {
    /// "I am a surviving ambiguous k-mer" (superstep 0 → 1).
    KmerPresent { from: u32 },
    /// A contig announcing itself to one of its end k-mers (superstep 0 → 1).
    ContigInfo {
        contig: u32,
        extra_len: usize,
        other_end: Option<u32>,
        edge: Edge,
    },
    /// The tip probe.
    Request {
        origin: u32,
        from: u32,
        cum_len: usize,
    },
    /// The deletion wave retracing the probe.
    Delete { origin: u32, from: u32 },
    /// Tells a contig that its edge belongs to a removed tip.
    DeleteContig,
}

struct TipProgram<'a> {
    k: usize,
    threshold: usize,
    /// The node set the ranks index: the ambiguous k-mers, then the contigs.
    nodes: MixedNodes<'a>,
    dict: &'a RankDict<'a>,
}

/// Classifies a k-mer vertex from its live adjacency entries.
fn live_type(adj: &[TipAdj]) -> VertexType {
    let mut left = 0usize;
    let mut right = 0usize;
    for a in adj.iter().filter(|a| !a.deleted) {
        match a.edge.side() {
            Side::Left => left += 1,
            Side::Right => right += 1,
        }
    }
    match (left, right) {
        (0, 0) => VertexType::Isolated,
        (1, 0) | (0, 1) => VertexType::One,
        (1, 1) => VertexType::OneOne,
        _ => VertexType::Branch,
    }
}

impl TipProgram<'_> {
    /// Sends the initial REQUEST of a (newly) ⟨1⟩-typed k-mer vertex.
    fn try_initiate(&self, ctx: &mut Context<'_, Self>, rank: u32, state: &mut TipState) {
        if state.initiated || live_type(&state.adj) != VertexType::One {
            return;
        }
        let entry = state
            .adj
            .iter()
            .find(|a| !a.deleted)
            .expect("type One has one live entry");
        let Some(to) = entry.other.filter(|&other| other != rank) else {
            return;
        };
        state.initiated = true;
        state.pending.push(Pending {
            origin: rank,
            from: rank,
            to,
            via_in: None,
            via_out: entry.via_contig,
        });
        ctx.send_message(
            to,
            TipMsg::Request {
                origin: rank,
                from: rank,
                cum_len: self.k + entry.extra_len,
            },
        );
    }

    /// A contig announces itself, then waits to be deleted.
    fn contig(&self, ctx: &mut Context<'_, Self>, rank: u32, deleted: &mut bool, msgs: &[TipMsg]) {
        if ctx.superstep() > 0 {
            *deleted |= msgs.iter().any(|m| matches!(m, TipMsg::DeleteContig));
            return;
        }
        // Announce the contig to both end k-mers (Figure 9: a contig has
        // exactly two neighbour slots, possibly NULL).
        let node = self.nodes.node(rank as usize);
        let extra_len = node.len().saturating_sub(self.k.saturating_sub(1));
        let real: Vec<&Edge> = node.real_edges().collect();
        for (idx, e) in real.iter().enumerate() {
            let other_end = (real.len() == 2).then(|| self.dict.rank(real[1 - idx].neighbor));
            // The edge as seen from the neighbouring k-mer: same polarity,
            // opposite direction, pointing at the contig.
            let edge = Edge {
                neighbor: node.id,
                direction: e.direction.reversed(),
                polarity: e.polarity,
                coverage: e.coverage,
            };
            ctx.send_message(
                self.dict.rank(e.neighbor),
                TipMsg::ContigInfo {
                    contig: rank,
                    extra_len,
                    other_end,
                    edge,
                },
            );
        }
    }

    /// A k-mer rebuilds its adjacency, then runs the REQUEST/DELETE protocol.
    fn kmer(
        &self,
        ctx: &mut Context<'_, Self>,
        rank: u32,
        state: &mut TipState,
        msgs: &mut [TipMsg],
    ) {
        let superstep = ctx.superstep();
        let node = self.nodes.node(rank as usize);
        if superstep == 0 {
            for e in node.real_edges() {
                ctx.send_message(
                    self.dict.rank(e.neighbor),
                    TipMsg::KmerPresent { from: rank },
                );
            }
            return;
        }
        if superstep == 1 {
            // Rebuild the adjacency from the announcements.
            for msg in msgs {
                match *msg {
                    TipMsg::KmerPresent { from } => {
                        let from_id = self.dict.id(from);
                        for e in node.edges.iter().filter(|e| e.neighbor == from_id) {
                            state.adj.push(TipAdj {
                                other: Some(from),
                                edge: *e,
                                via_contig: None,
                                extra_len: 0,
                                deleted: false,
                            });
                        }
                    }
                    TipMsg::ContigInfo {
                        contig,
                        extra_len,
                        other_end,
                        edge,
                    } => {
                        state.adj.push(TipAdj {
                            other: other_end,
                            edge,
                            via_contig: Some(contig),
                            extra_len,
                            deleted: false,
                        });
                    }
                    _ => {}
                }
            }
            // Local check: a dangling contig hanging off this vertex (its far
            // end is NULL) is itself a tip candidate — the one-hop case of
            // the REQUEST protocol.
            for a in state
                .adj
                .iter_mut()
                .filter(|a| !a.deleted && a.other.is_none())
            {
                if let Some(contig) = a.via_contig {
                    let contig_len = a.extra_len + self.k.saturating_sub(1);
                    if contig_len <= self.threshold {
                        a.deleted = true;
                        ctx.send_message(contig, TipMsg::DeleteContig);
                    }
                }
            }
            self.try_initiate(ctx, rank, state);
            return;
        }

        // Judge a superstep's requests shortest tip first, whatever order
        // they arrived in: deleting one tip can turn this vertex ⟨1-1⟩, and
        // it relays every request after that instead of judging it.
        let request = |msg: &TipMsg| match *msg {
            TipMsg::Request {
                origin,
                from,
                cum_len,
            } => Some((cum_len, origin, from)),
            _ => None,
        };
        if msgs
            .iter()
            .filter(|m| request(m).is_some())
            .nth(1)
            .is_some()
        {
            let mut requests: Vec<TipMsg> = msgs
                .iter()
                .filter(|m| request(m).is_some())
                .cloned()
                .collect();
            requests.sort_by_key(request);
            let slots = msgs.iter_mut().filter(|m| request(m).is_some());
            for (slot, msg) in slots.zip(requests) {
                *slot = msg;
            }
        }

        for msg in msgs.iter() {
            match *msg {
                TipMsg::Request {
                    origin,
                    from,
                    cum_len,
                } => {
                    if state.deleted {
                        continue;
                    }
                    let adj = &mut state.adj;
                    match live_type(adj) {
                        VertexType::OneOne => {
                            // Relay towards the other neighbour.
                            let incoming_idx =
                                adj.iter().position(|a| !a.deleted && a.other == Some(from));
                            let Some(i_in) = incoming_idx else {
                                continue;
                            };
                            let outgoing_idx = adj
                                .iter()
                                .enumerate()
                                .position(|(i, a)| !a.deleted && i != i_in);
                            let Some(i_out) = outgoing_idx else {
                                continue;
                            };
                            let out = &adj[i_out];
                            let Some(to) = out.other.filter(|&other| other != rank) else {
                                continue;
                            };
                            let new_len = cum_len + 1 + out.extra_len;
                            state.pending.push(Pending {
                                origin,
                                from,
                                to,
                                via_in: adj[i_in].via_contig,
                                via_out: out.via_contig,
                            });
                            ctx.send_message(
                                to,
                                TipMsg::Request {
                                    origin,
                                    from: rank,
                                    cum_len: new_len,
                                },
                            );
                        }
                        _ => {
                            // Terminal vertex: decide whether the path is a tip.
                            if cum_len <= self.threshold {
                                ctx.send_message(from, TipMsg::Delete { origin, from: rank });
                                // Delete the edge towards the tip (and the
                                // contig on it, if any).
                                for a in adj
                                    .iter_mut()
                                    .filter(|a| !a.deleted && a.other == Some(from))
                                {
                                    a.deleted = true;
                                    if let Some(c) = a.via_contig {
                                        ctx.send_message(c, TipMsg::DeleteContig);
                                    }
                                }
                                // Removing the edge may turn this vertex into a
                                // new ⟨1⟩ dead end: start the next phase.
                                self.try_initiate(ctx, rank, state);
                            }
                        }
                    }
                }
                TipMsg::Delete { origin, from } => {
                    // Retrace the recorded relay for this origin.
                    if let Some(p) = state
                        .pending
                        .iter()
                        .find(|p| p.origin == origin && p.to == from)
                        .cloned()
                    {
                        state.deleted = true;
                        for c in [p.via_in, p.via_out].into_iter().flatten() {
                            ctx.send_message(c, TipMsg::DeleteContig);
                        }
                        if p.from != rank {
                            ctx.send_message(p.from, TipMsg::Delete { origin, from: rank });
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

impl VertexProgram for TipProgram<'_> {
    type Value = TipState;
    type Message = TipMsg;
    type Aggregate = NoAggregate;

    fn compute(
        &self,
        ctx: &mut Context<'_, Self>,
        rank: u32,
        state: &mut TipState,
        messages: &mut [TipMsg],
    ) {
        if (rank as usize) < self.nodes.kmers.len() {
            self.kmer(ctx, rank, state, messages);
        } else {
            self.contig(ctx, rank, &mut state.deleted, messages);
        }
        ctx.vote_to_halt();
    }
}

/// Runs tip removing over the ambiguous k-mer vertices and the contig vertices
/// produced by merging (after bubble filtering). The Pregel job executes on
/// `ctx`'s persistent pool (worker count = pool size).
///
/// # Panics
///
/// Panics if the ambiguous k-mers followed by the contigs are not listed in
/// strictly ascending ID order, the order of a node set.
pub fn remove_tips_on(
    ctx: &ExecCtx,
    ambiguous_kmers: &[AsmNode],
    contigs: &[AsmNode],
    config: &TipConfig,
) -> TipOutcome {
    let nodes = MixedNodes {
        kmers: ambiguous_kmers,
        contigs,
    };
    let dict = RankDict::new(nodes.ids());
    let program = TipProgram {
        k: config.k,
        threshold: config.tip_length_threshold,
        nodes,
        dict: &dict,
    };
    let (mut set, _) =
        DenseSet::from_fn_on(ctx, dict.len(), |_, _: &mut ()| Some(TipState::default()));
    let pregel_config = PregelConfig::default().max_supersteps(10_000);
    let metrics = run_dense_on(ctx, &program, &pregel_config, &mut set);

    // The survivors in rank order, which is ID order. A k-mer keeps its live
    // edges to survivors (`edge.neighbor` is the contig on the edge, or the
    // other k-mer); a contig's edge to a vanished neighbour becomes NULL.
    let mut alive = vec![false; nodes.len()];
    set.read_on(ctx, &mut alive, |state| !state.deleted);
    let survives = |rank: u32| alive.get(rank as usize) == Some(&true);
    let (mut kmers, mut contig_nodes) = (Vec::new(), Vec::new());
    for (rank, state) in set.iter().filter(|(_, state)| !state.deleted) {
        let mut node = nodes.node(rank as usize).clone();
        if (rank as usize) < ambiguous_kmers.len() {
            let live = state.adj.iter().filter(|a| !a.deleted);
            let kept = live.filter(|a| a.via_contig.or(a.other).is_some_and(survives));
            node.edges = kept.map(|a| a.edge).collect();
            kmers.push(node);
        } else {
            let vanished = |e: &&mut Edge| !e.is_null() && !survives(dict.rank(e.neighbor));
            for e in node.edges.iter_mut().filter(vanished) {
                e.neighbor = NULL_ID;
                e.coverage = 0;
            }
            contig_nodes.push(node);
        }
    }
    TipOutcome {
        deleted_kmers: ambiguous_kmers.len() - kmers.len(),
        deleted_contigs: contigs.len() - contig_nodes.len(),
        kmers,
        contigs: contig_nodes,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::contig_id;
    use crate::ops::bubble::remove_pruned;
    use crate::ops::label::label_contigs_lr_on;
    use crate::ops::label::tests::nodes_from_reads;
    use crate::ops::merge::{merge_contigs_on, MergeConfig};
    use crate::polarity::{Direction, Polarity};
    use ppa_seq::{DnaString, Kmer};
    use std::collections::HashSet;

    /// Builds the post-merging graph (ambiguous k-mers + contigs) for a read set.
    fn merged_graph(reads: &[&str], k: usize, merge_tip: usize) -> (Vec<AsmNode>, Vec<AsmNode>) {
        let nodes = nodes_from_reads(reads, k);
        let labels = label_contigs_lr_on(&ExecCtx::new(2), &nodes);
        let merged = merge_contigs_on(
            &ExecCtx::new(2),
            &nodes,
            &labels.labels,
            &MergeConfig {
                k,
                tip_length_threshold: merge_tip,
            },
        );
        let ambiguous: Vec<AsmNode> = nodes
            .iter()
            .zip(&labels.labels)
            .filter(|(_, &label)| label == crate::ops::label::AMBIGUOUS)
            .map(|(n, _)| n.clone())
            .collect();
        (ambiguous, merged.contigs)
    }

    fn tip_cfg(k: usize, threshold: usize) -> TipConfig {
        TipConfig {
            k,
            tip_length_threshold: threshold,
        }
    }

    /// A genome with a short erroneous dangling branch: the main sequence is
    /// covered densely, plus one read that diverges near its end (simulating a
    /// read error that creates a tip, as read ① does in Figure 3/5).
    fn tippy_reads() -> Vec<String> {
        let genome = "ATCGGCTAAGGTCAGCTTAGCCGATACCGGTTAACGGCATGGCTAGCTTAACGGATCGTC";
        let mut reads: Vec<String> = Vec::new();
        for start in (0..genome.len() - 20).step_by(3) {
            reads.push(genome[start..start + 20].to_string());
        }
        reads.push(genome[genome.len() - 20..].to_string());
        // An erroneous read: matches positions 10..24 then diverges.
        let erroneous = format!("{}TTTT", &genome[10..24]);
        reads.push(erroneous);
        reads
    }

    #[test]
    fn short_tip_is_removed() {
        let reads = tippy_reads();
        let refs: Vec<&str> = reads.iter().map(|s| s.as_str()).collect();
        // Keep even short dangling contigs at merge time (threshold 0) so that
        // the tip survives until this operation, then remove it here.
        let (ambiguous, contigs) = merged_graph(&refs, 9, 0);
        assert!(
            !ambiguous.is_empty(),
            "the erroneous read must create a branch"
        );
        assert!(contigs.len() >= 2, "main path plus tip expected");
        let before = contigs.len();
        let out = remove_tips_on(&ExecCtx::new(2), &ambiguous, &contigs, &tip_cfg(9, 30));
        assert!(
            out.deleted_contigs >= 1 || out.deleted_kmers >= 1,
            "the short dangling branch must be removed"
        );
        assert!(out.contigs.len() < before || out.deleted_kmers > 0);
        assert!(out.metrics.converged);
        // The longest contig (the true genome path) must survive.
        let longest_before = contigs.iter().map(|c| c.len()).max().unwrap();
        let longest_after = out.contigs.iter().map(|c| c.len()).max().unwrap();
        assert_eq!(longest_before, longest_after);
    }

    #[test]
    fn long_dangling_paths_are_kept() {
        let reads = tippy_reads();
        let refs: Vec<&str> = reads.iter().map(|s| s.as_str()).collect();
        let (ambiguous, contigs) = merged_graph(&refs, 9, 0);
        // With a tiny threshold nothing qualifies as a tip.
        let out = remove_tips_on(&ExecCtx::new(2), &ambiguous, &contigs, &tip_cfg(9, 1));
        assert_eq!(out.deleted_contigs, 0);
        assert_eq!(out.deleted_kmers, 0);
        assert_eq!(out.contigs.len(), contigs.len());
        assert_eq!(out.kmers.len(), ambiguous.len());
    }

    #[test]
    fn clean_graph_is_untouched() {
        // An error-free single path has no ambiguous vertices at all.
        let (ambiguous, contigs) = merged_graph(&["CTGCCGTACA", "GCCGTACAGG"], 4, 0);
        assert!(ambiguous.is_empty());
        let out = remove_tips_on(&ExecCtx::new(2), &ambiguous, &contigs, &tip_cfg(4, 80));
        assert_eq!(out.deleted_contigs, 0);
        assert_eq!(out.contigs.len(), contigs.len());
    }

    #[test]
    fn kmer_adjacency_is_rebuilt_with_contig_edges() {
        let reads = tippy_reads();
        let refs: Vec<&str> = reads.iter().map(|s| s.as_str()).collect();
        let (ambiguous, contigs) = merged_graph(&refs, 9, 0);
        let out = remove_tips_on(&ExecCtx::new(2), &ambiguous, &contigs, &tip_cfg(9, 0));
        // No deletions with threshold 0, but adjacency must now reference
        // contigs instead of merged-away unambiguous k-mers.
        let contig_ids: HashSet<u64> = out.contigs.iter().map(|c| c.id).collect();
        let kmer_ids: HashSet<u64> = out.kmers.iter().map(|k| k.id).collect();
        let mut contig_edges = 0usize;
        for kmer in &out.kmers {
            for e in kmer.real_edges() {
                assert!(
                    contig_ids.contains(&e.neighbor) || kmer_ids.contains(&e.neighbor),
                    "edge points to a vertex that no longer exists"
                );
                if contig_ids.contains(&e.neighbor) {
                    contig_edges += 1;
                }
            }
        }
        assert!(
            contig_edges > 0,
            "ambiguous k-mers must link to their contigs"
        );
    }

    #[test]
    fn works_after_bubble_filtering() {
        // Combined error-correction pipeline: bubbles first, then tips.
        let reads = tippy_reads();
        let refs: Vec<&str> = reads.iter().map(|s| s.as_str()).collect();
        let (ambiguous, mut contigs) = merged_graph(&refs, 9, 0);
        let bubbles = crate::ops::bubble::filter_bubbles_on(
            &ExecCtx::new(2),
            &contigs,
            &crate::ops::bubble::BubbleConfig {
                max_edit_distance: 5,
            },
        );
        remove_pruned(&mut contigs, &bubbles.pruned);
        let out = remove_tips_on(&ExecCtx::new(2), &ambiguous, &contigs, &tip_cfg(9, 30));
        assert!(out.metrics.converged);
    }

    #[test]
    fn two_requests_at_one_vertex_are_judged_shortest_first() {
        // H's left side is a long dangling contig; its right side holds two
        // tips: the k-mer T2 directly, the k-mer T1 through a short contig.
        // Both requests reach H in superstep 2, which deletes the shorter
        // (T2), turns ⟨1-1⟩ and so keeps T1 whichever arrived first. The
        // inbox is in sender order, so swapping the two tips' IDs delivers
        // the requests in the other order.
        let (k, threshold) = (9, 30);
        let kmer = |s: &str| AsmNode::new_kmer(Kmer::from_str_exact(s).unwrap().canonical().kmer);
        let mut ids: Vec<AsmNode> = ["AAAAACCCC", "AAAAAGGGG", "AAAAATTTT"]
            .into_iter()
            .map(kmer)
            .collect();
        ids.sort_unstable_by_key(|n| n.id);
        let edge = |neighbor: u64, direction| Edge {
            neighbor,
            direction,
            polarity: Polarity::LL,
            coverage: 3,
        };
        let contig = |ordinal, bases: usize| {
            let seq = DnaString::from_ascii(&"ACGT".repeat(bases)[..bases]).unwrap();
            AsmNode::new_contig(contig_id(ordinal), seq, 3)
        };
        let survivors = |t1: usize, t2: usize| {
            let (mut h, mut t1, mut t2) = (ids[2].clone(), ids[t1].clone(), ids[t2].clone());
            let (mut c0, mut c1) = (contig(1, 40), contig(2, 12));
            c0.push_edge(edge(h.id, Direction::Out));
            c1.push_edge(edge(h.id, Direction::In));
            c1.push_edge(edge(t1.id, Direction::Out));
            h.push_edge(edge(c0.id, Direction::In));
            h.push_edge(edge(t2.id, Direction::Out));
            h.push_edge(edge(c1.id, Direction::Out));
            t2.push_edge(edge(h.id, Direction::In));
            t1.push_edge(edge(c1.id, Direction::In));
            let roles = [(h.id, "H"), (t1.id, "T1"), (t2.id, "T2")];
            let mut kmers = vec![h, t1, t2];
            kmers.sort_unstable_by_key(|n| n.id);
            (1..=3)
                .map(|workers| {
                    let ctx = ExecCtx::new(workers);
                    let out = remove_tips_on(
                        &ctx,
                        &kmers,
                        &[c0.clone(), c1.clone()],
                        &tip_cfg(k, threshold),
                    );
                    let role = |id| roles.iter().find(|r| r.0 == id).map(|r| r.1);
                    let mut kept: Vec<_> = out.kmers.iter().filter_map(|n| role(n.id)).collect();
                    kept.sort_unstable();
                    (kept, out.contigs.len())
                })
                .collect::<Vec<_>>()
        };
        let t1_first = survivors(0, 1);
        let t2_first = survivors(1, 0);
        assert_eq!(t1_first, t2_first);
        assert_eq!(t1_first[0], (vec!["H", "T1"], 2));
    }

    #[test]
    fn empty_input() {
        let out = remove_tips_on(&ExecCtx::new(2), &[], &[], &TipConfig::default());
        assert!(out.kmers.is_empty());
        assert!(out.contigs.is_empty());
        assert_eq!(out.deleted_kmers + out.deleted_contigs, 0);
    }
}
