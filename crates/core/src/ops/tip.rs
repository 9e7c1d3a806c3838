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

use crate::ids::{is_null, NULL_ID};
use crate::node::{AsmNode, Edge, VertexType};
use crate::polarity::Side;
use ppa_pregel::aggregate::Count;
use ppa_pregel::fxhash::FxHashSet;
use ppa_pregel::{Context, ExecCtx, Metrics, PregelConfig, VertexProgram, VertexSet};
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
/// ([`NodeSource`](crate::node::NodeSource)), so that the next labeling
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
    /// The k-mer vertex at the other end of this edge (NULL if the edge runs
    /// through a contig whose far end dangles).
    other: u64,
    /// The edge record from this k-mer's perspective (its `neighbor` is the
    /// contig ID for contig-labelled edges, or `other` for direct edges).
    edge: Edge,
    /// The contig sitting on this edge, if any.
    via_contig: Option<u64>,
    /// Extra sequence length contributed by the contig on this edge
    /// (`contig length − (k−1)`), 0 for direct edges.
    extra_len: usize,
    /// Whether this entry has been deleted by the protocol.
    deleted: bool,
}

/// A relayed request remembered so that the DELETE can retrace the path.
#[derive(Debug, Clone)]
struct Pending {
    origin: u64,
    from: u64,
    to: u64,
    via_in: Option<u64>,
    via_out: Option<u64>,
}

#[derive(Debug, Clone)]
enum TipState {
    Kmer {
        node: AsmNode,
        adj: Vec<TipAdj>,
        deleted: bool,
        initiated: bool,
        pending: Vec<Pending>,
    },
    Contig {
        node: AsmNode,
        deleted: bool,
    },
}

#[derive(Debug, Clone)]
enum TipMsg {
    /// "I am a surviving ambiguous k-mer" (superstep 0 → 1).
    KmerPresent { from: u64 },
    /// A contig announcing itself to one of its end k-mers (superstep 0 → 1).
    ContigInfo {
        contig: u64,
        extra_len: usize,
        other_end: u64,
        edge: Edge,
    },
    /// The tip probe.
    Request {
        origin: u64,
        from: u64,
        cum_len: usize,
    },
    /// The deletion wave retracing the probe.
    Delete { origin: u64, from: u64 },
    /// Tells a contig that its edge belongs to a removed tip.
    DeleteContig,
}

struct TipProgram {
    k: usize,
    threshold: usize,
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

impl TipProgram {
    /// Sends the initial REQUEST of a (newly) ⟨1⟩-typed k-mer vertex.
    fn try_initiate(
        &self,
        ctx: &mut Context<'_, Self>,
        id: u64,
        adj: &[TipAdj],
        initiated: &mut bool,
        pending: &mut Vec<Pending>,
    ) {
        if *initiated || live_type(adj) != VertexType::One {
            return;
        }
        let entry = adj
            .iter()
            .find(|a| !a.deleted)
            .expect("type One has one live entry");
        if is_null(entry.other) || entry.other == id {
            return;
        }
        *initiated = true;
        pending.push(Pending {
            origin: id,
            from: id,
            to: entry.other,
            via_in: None,
            via_out: entry.via_contig,
        });
        ctx.send_message(
            entry.other,
            TipMsg::Request {
                origin: id,
                from: id,
                cum_len: self.k + entry.extra_len,
            },
        );
    }
}

impl VertexProgram for TipProgram {
    type Id = u64;
    type Value = TipState;
    type Message = TipMsg;
    type Aggregate = Count;

    fn compute(
        &self,
        ctx: &mut Context<'_, Self>,
        id: u64,
        value: &mut TipState,
        messages: &mut [TipMsg],
    ) {
        let superstep = ctx.superstep();
        match value {
            TipState::Contig { node, deleted } => {
                if superstep == 0 {
                    // Announce the contig to both end k-mers (Figure 9: a
                    // contig has exactly two neighbour slots, possibly NULL).
                    let extra_len = node.len().saturating_sub(self.k.saturating_sub(1));
                    let real: Vec<&Edge> = node.real_edges().collect();
                    for (idx, e) in real.iter().enumerate() {
                        let other_end = if real.len() == 2 {
                            real[1 - idx].neighbor
                        } else {
                            NULL_ID
                        };
                        // The edge as seen from the neighbouring k-mer: same
                        // polarity, opposite direction, pointing at the contig.
                        let edge = Edge {
                            neighbor: node.id,
                            direction: e.direction.reversed(),
                            polarity: e.polarity,
                            coverage: e.coverage,
                        };
                        ctx.send_message(
                            e.neighbor,
                            TipMsg::ContigInfo {
                                contig: node.id,
                                extra_len,
                                other_end,
                                edge,
                            },
                        );
                    }
                } else {
                    for msg in messages.iter() {
                        if let TipMsg::DeleteContig = msg {
                            if !*deleted {
                                *deleted = true;
                                ctx.aggregate(Count(1));
                            }
                        }
                    }
                }
                ctx.vote_to_halt();
            }
            TipState::Kmer {
                node,
                adj,
                deleted,
                initiated,
                pending,
            } => {
                if superstep == 0 {
                    for e in node.real_edges() {
                        ctx.send_message(e.neighbor, TipMsg::KmerPresent { from: id });
                    }
                    ctx.vote_to_halt();
                    return;
                }
                if superstep == 1 {
                    // Rebuild the adjacency from the announcements.
                    for msg in messages.iter() {
                        match msg {
                            TipMsg::KmerPresent { from } => {
                                for e in node.edges.iter().filter(|e| e.neighbor == *from) {
                                    adj.push(TipAdj {
                                        other: *from,
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
                                adj.push(TipAdj {
                                    other: *other_end,
                                    edge: *edge,
                                    via_contig: Some(*contig),
                                    extra_len: *extra_len,
                                    deleted: false,
                                });
                            }
                            _ => {}
                        }
                    }
                    // Local check: a dangling contig hanging off this vertex
                    // (its far end is NULL) is itself a tip candidate — the
                    // one-hop case of the REQUEST protocol.
                    for a in adj.iter_mut().filter(|a| !a.deleted) {
                        if let Some(contig) = a.via_contig {
                            if is_null(a.other) {
                                let contig_len = a.extra_len + self.k.saturating_sub(1);
                                if contig_len <= self.threshold {
                                    a.deleted = true;
                                    ctx.send_message(contig, TipMsg::DeleteContig);
                                }
                            }
                        }
                    }
                    self.try_initiate(ctx, id, adj, initiated, pending);
                    ctx.vote_to_halt();
                    return;
                }

                for msg in messages.iter() {
                    match *msg {
                        TipMsg::Request {
                            origin,
                            from,
                            cum_len,
                        } => {
                            if *deleted {
                                continue;
                            }
                            match live_type(adj) {
                                VertexType::OneOne => {
                                    // Relay towards the other neighbour.
                                    let incoming_idx =
                                        adj.iter().position(|a| !a.deleted && a.other == from);
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
                                    if is_null(out.other) || out.other == id {
                                        continue;
                                    }
                                    let new_len = cum_len + 1 + out.extra_len;
                                    pending.push(Pending {
                                        origin,
                                        from,
                                        to: out.other,
                                        via_in: adj[i_in].via_contig,
                                        via_out: out.via_contig,
                                    });
                                    ctx.send_message(
                                        out.other,
                                        TipMsg::Request {
                                            origin,
                                            from: id,
                                            cum_len: new_len,
                                        },
                                    );
                                }
                                _ => {
                                    // Terminal vertex: decide whether the path is a tip.
                                    if cum_len <= self.threshold {
                                        ctx.send_message(from, TipMsg::Delete { origin, from: id });
                                        // Delete the edge towards the tip (and the
                                        // contig on it, if any).
                                        for a in
                                            adj.iter_mut().filter(|a| !a.deleted && a.other == from)
                                        {
                                            a.deleted = true;
                                            if let Some(c) = a.via_contig {
                                                ctx.send_message(c, TipMsg::DeleteContig);
                                            }
                                        }
                                        // Removing the edge may turn this vertex into a
                                        // new ⟨1⟩ dead end: start the next phase.
                                        self.try_initiate(ctx, id, adj, initiated, pending);
                                    }
                                }
                            }
                        }
                        TipMsg::Delete { origin, from } => {
                            // Retrace the recorded relay for this origin.
                            if let Some(p) = pending
                                .iter()
                                .find(|p| p.origin == origin && p.to == from)
                                .cloned()
                            {
                                if !*deleted {
                                    *deleted = true;
                                    ctx.aggregate(Count(1));
                                }
                                for c in [p.via_in, p.via_out].into_iter().flatten() {
                                    ctx.send_message(c, TipMsg::DeleteContig);
                                }
                                if p.from != id {
                                    ctx.send_message(p.from, TipMsg::Delete { origin, from: id });
                                }
                            }
                        }
                        _ => {}
                    }
                }
                ctx.vote_to_halt();
            }
        }
    }
}

/// Runs tip removing over the ambiguous k-mer vertices and the contig vertices
/// produced by merging (after bubble filtering). The Pregel job executes on
/// `ctx`'s persistent pool (worker count = pool size).
pub fn remove_tips_on(
    ctx: &ExecCtx,
    ambiguous_kmers: &[AsmNode],
    contigs: &[AsmNode],
    config: &TipConfig,
) -> TipOutcome {
    let pregel_config = PregelConfig::default().max_supersteps(10_000);
    let program = TipProgram {
        k: config.k,
        threshold: config.tip_length_threshold,
    };

    let pairs = ambiguous_kmers
        .iter()
        .map(|n| {
            (
                n.id,
                TipState::Kmer {
                    node: n.clone(),
                    adj: Vec::new(),
                    deleted: false,
                    initiated: false,
                    pending: Vec::new(),
                },
            )
        })
        .chain(contigs.iter().map(|n| {
            (
                n.id,
                TipState::Contig {
                    node: n.clone(),
                    deleted: false,
                },
            )
        }));
    let mut set: VertexSet<u64, TipState> = VertexSet::from_pairs(ctx.workers(), pairs);
    let metrics = ppa_pregel::run_on(ctx, &program, &pregel_config, &mut set);

    // Collect survivors and rebuild their edges against the surviving set.
    let mut surviving_ids: FxHashSet<u64> = FxHashSet::default();
    for (id, state) in set.iter() {
        let alive = match state {
            TipState::Kmer { deleted, .. } => !*deleted,
            TipState::Contig { deleted, .. } => !*deleted,
        };
        if alive {
            surviving_ids.insert(id);
        }
    }

    let mut kmers = Vec::new();
    let mut contig_nodes = Vec::new();
    let mut deleted_kmers = 0usize;
    let mut deleted_contigs = 0usize;
    for (_, state) in set.into_pairs() {
        match state {
            TipState::Kmer {
                node, adj, deleted, ..
            } => {
                if deleted {
                    deleted_kmers += 1;
                    continue;
                }
                let mut rebuilt = AsmNode {
                    id: node.id,
                    seq: node.seq.clone(),
                    coverage: node.coverage,
                    edges: Vec::new(),
                };
                for a in adj.iter().filter(|a| !a.deleted) {
                    if surviving_ids.contains(&a.edge.neighbor) {
                        rebuilt.push_edge(a.edge);
                    }
                }
                kmers.push(rebuilt);
            }
            TipState::Contig { mut node, deleted } => {
                if deleted {
                    deleted_contigs += 1;
                    continue;
                }
                // Neighbours that vanished become NULL dead ends.
                for e in node.edges.iter_mut() {
                    if !e.is_null() && !surviving_ids.contains(&e.neighbor) {
                        e.neighbor = NULL_ID;
                        e.coverage = 0;
                    }
                }
                contig_nodes.push(node);
            }
        }
    }

    // The store lists its vertices partition by partition.
    kmers.sort_unstable_by_key(|node| node.id);
    contig_nodes.sort_unstable_by_key(|node| node.id);
    TipOutcome {
        kmers,
        contigs: contig_nodes,
        deleted_kmers,
        deleted_contigs,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::bubble::remove_pruned;
    use crate::ops::label::label_contigs_lr_on;
    use crate::ops::label::tests::nodes_from_reads;
    use crate::ops::merge::{merge_contigs_on, MergeConfig};
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
            .filter(|n| labels.ambiguous.contains(&n.id))
            .cloned()
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
    fn empty_input() {
        let out = remove_tips_on(&ExecCtx::new(2), &[], &[], &TipConfig::default());
        assert!(out.kmers.is_empty());
        assert!(out.contigs.is_empty());
        assert_eq!(out.deleted_kmers + out.deleted_contigs, 0);
    }
}
