//! Operation ③ — contig merging (Section IV-B).
//!
//! Takes the labelled unambiguous vertices and, for every label group, orders
//! the member vertices along their path and stitches their sequences into a
//! contig, taking edge polarity into account: a member observed in reverse
//! orientation contributes its reverse complement, and consecutive members
//! overlap by k−1 bases. The resulting contig vertex records its coverage (the
//! minimum edge coverage merged into it), and its two end neighbours with the
//! contig-side polarity normalised to `L` (Figure 9).
//!
//! The grouping is a mini-MapReduce keyed by contig label; the reduce step is
//! executed per worker, and contig IDs are minted as `worker ‖ ordinal`
//! (Figure 7c). Following the paper, a group that dangles (at least one end has
//! no ambiguous neighbour) and whose total length does not exceed the
//! tip-length threshold is discarded immediately instead of being emitted.

use crate::ids::contig_id;
use crate::node::{AsmNode, Edge, GraphNode};
use crate::polarity::{Direction, Polarity, Side};
use ppa_pregel::fxhash::{FxHashMap, FxHashSet};
use ppa_pregel::mapreduce::{map_reduce_on, Emitter, MapReduceMetrics};
use ppa_pregel::ExecCtx;
use ppa_seq::{DnaString, Orientation};
use serde::{Deserialize, Serialize};

/// Configuration of contig merging.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MergeConfig {
    /// k-mer size used to build the DBG (consecutive members overlap by k−1).
    pub k: usize,
    /// Tip-length threshold: dangling groups no longer than this are dropped.
    pub tip_length_threshold: usize,
}

impl Default for MergeConfig {
    fn default() -> Self {
        MergeConfig {
            k: 31,
            tip_length_threshold: 80,
        }
    }
}

/// Output of contig merging.
#[derive(Debug, Clone)]
// ppa_lint: allow(test-only-pub) the return type of `merge_contigs_on`
pub struct MergeOutcome {
    /// The newly created contig vertices.
    pub contigs: Vec<AsmNode>,
    /// Number of label groups discarded as short dangling tips.
    pub dropped_tips: usize,
    /// Number of label groups processed.
    pub groups: usize,
    /// Mini-MapReduce metrics of the grouping pass.
    pub mapreduce: MapReduceMetrics,
}

/// A stitched contig before an ID has been assigned.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ContigDraft {
    pub seq: DnaString,
    pub coverage: u32,
    /// `(neighbour id, neighbour-side label, edge coverage)` of the ambiguous
    /// vertex preceding the contig, if any.
    pub in_neighbor: Option<(u64, Orientation, u32)>,
    /// Same for the ambiguous vertex following the contig.
    pub out_neighbor: Option<(u64, Orientation, u32)>,
    /// Number of member vertices merged.
    pub members: usize,
    /// Whether the group was a cycle (no contig ends).
    pub is_cycle: bool,
}

impl ContigDraft {
    /// Converts the draft into a contig [`AsmNode`] with the given ID.
    pub(crate) fn into_node(self, id: u64) -> AsmNode {
        let mut node = AsmNode::new_contig(id, self.seq, self.coverage);
        if let Some((nbr, label, cov)) = self.in_neighbor {
            node.push_edge(Edge {
                neighbor: nbr,
                direction: Direction::In,
                polarity: Polarity::from_labels(label, Orientation::Forward),
                coverage: cov,
            });
        } else {
            node.push_edge(Edge {
                neighbor: crate::ids::NULL_ID,
                direction: Direction::In,
                polarity: Polarity::LL,
                coverage: 0,
            });
        }
        if let Some((nbr, label, cov)) = self.out_neighbor {
            node.push_edge(Edge {
                neighbor: nbr,
                direction: Direction::Out,
                polarity: Polarity::from_labels(Orientation::Forward, label),
                coverage: cov,
            });
        } else {
            node.push_edge(Edge {
                neighbor: crate::ids::NULL_ID,
                direction: Direction::Out,
                polarity: Polarity::LL,
                coverage: 0,
            });
        }
        node
    }
}

/// Orientation of the next member reached through `edge` during the walk.
fn next_orientation(edge: &Edge) -> Orientation {
    match edge.direction {
        Direction::Out => edge.polarity.target_label(),
        Direction::In => edge.polarity.source_label().flip(),
    }
}

/// Label of an outside neighbour, normalised to the reading in which the
/// member appears with `member_orientation` (i.e. the contig reads forward).
fn outside_neighbor_label(edge: &Edge, member_orientation: Orientation) -> Orientation {
    if edge.own_label() == member_orientation {
        edge.neighbor_label()
    } else {
        edge.neighbor_label().flip()
    }
}

/// Stitches one label group into a contig draft.
///
/// Returns `None` if the group is a short dangling tip (paper: "exit reduce if
/// the aggregated contig length is not above the tip-length threshold").
pub(crate) fn stitch_group<N: GraphNode>(
    members: &[&N],
    k: usize,
    tip_length_threshold: usize,
) -> Option<ContigDraft> {
    assert!(!members.is_empty());
    let by_id: FxHashMap<u64, &N> = members.iter().map(|n| (n.id(), *n)).collect();

    // Locate a contig end: a member with a side that has no edge leading back
    // into the group.
    let outer_side_of = |node: &N, side: Side| -> bool {
        match node.sole_edge_on(side) {
            None => true,
            Some(e) => !by_id.contains_key(&e.neighbor),
        }
    };
    let mut start: Option<(&N, Side)> = None;
    for node in members {
        if outer_side_of(node, Side::Left) {
            start = Some((node, Side::Left));
            break;
        }
        if outer_side_of(node, Side::Right) {
            start = Some((node, Side::Right));
            break;
        }
    }
    let is_cycle = start.is_none();
    let (start_node, entry_side) = start.unwrap_or_else(|| {
        // Cycle: start from the smallest member ID for determinism.
        let node = members.iter().min_by_key(|n| n.id()).expect("non-empty");
        (node, Side::Left)
    });

    let start_orientation = if entry_side == Side::Left {
        Orientation::Forward
    } else {
        Orientation::ReverseComplement
    };

    // In-neighbour: the outside edge on the entry side, if any.
    let in_neighbor = start_node.sole_edge_on(entry_side).and_then(|e| {
        if by_id.contains_key(&e.neighbor) {
            None
        } else {
            Some((
                e.neighbor,
                outside_neighbor_label(&e, start_orientation),
                e.coverage,
            ))
        }
    });

    // Walk the path, stitching sequences.
    let mut sequence = start_node.oriented(start_orientation);
    let mut coverage: u32 = if start_node.is_contig() {
        start_node.coverage()
    } else {
        u32::MAX
    };
    let mut visited: FxHashSet<u64> = FxHashSet::default();
    visited.insert(start_node.id());
    let mut current: &N = start_node;
    let mut current_orientation = start_orientation;
    let mut out_neighbor: Option<(u64, Orientation, u32)> = None;
    let mut closed_cycle = false;

    loop {
        let exit_side = match current_orientation {
            Orientation::Forward => Side::Right,
            Orientation::ReverseComplement => Side::Left,
        };
        let Some(edge) = current.sole_edge_on(exit_side) else {
            break; // dangling end
        };
        if !by_id.contains_key(&edge.neighbor) {
            out_neighbor = Some((
                edge.neighbor,
                outside_neighbor_label(&edge, current_orientation),
                edge.coverage,
            ));
            break;
        }
        if visited.contains(&edge.neighbor) {
            closed_cycle = true;
            break;
        }
        let next = by_id[&edge.neighbor];
        let next_or = next_orientation(&edge);
        coverage = coverage.min(edge.coverage);
        if next.is_contig() {
            coverage = coverage.min(next.coverage());
        }
        let oriented = next.oriented(next_or);
        debug_assert!(oriented.len() >= k.saturating_sub(1));
        // Consecutive members overlap by k-1 bases.
        let overlap = (k - 1).min(oriented.len());
        for i in overlap..oriented.len() {
            sequence.push(oriented.get(i));
        }
        visited.insert(next.id());
        current = next;
        current_orientation = next_or;
    }

    debug_assert_eq!(
        visited.len(),
        members.len(),
        "label group does not form a single path/cycle"
    );

    if coverage == u32::MAX {
        // Single k-mer member with no internal edge: fall back to its own coverage.
        coverage = start_node.coverage();
    }

    let dangling = !closed_cycle && (in_neighbor.is_none() || out_neighbor.is_none());
    if dangling && sequence.len() <= tip_length_threshold {
        return None;
    }

    Some(ContigDraft {
        seq: sequence,
        coverage,
        in_neighbor,
        out_neighbor,
        members: visited.len(),
        is_cycle: closed_cycle || is_cycle,
    })
}

/// Runs contig merging on `ctx`'s workers: groups the labelled vertices by
/// label with a mini-MapReduce pass and stitches every group into a contig
/// vertex. The nodes may be in either form ([`GraphNode`]); the outcome does
/// not depend on which.
pub fn merge_contigs_on<N: GraphNode + Sync>(
    ctx: &ExecCtx,
    nodes: &[N],
    labels: &[(u64, u64)],
    config: &MergeConfig,
) -> MergeOutcome {
    let by_id: FxHashMap<u64, &N> = nodes.iter().map(|n| (n.id(), n)).collect();
    let inputs: Vec<(u64, u64)> = labels.to_vec();
    let k = config.k;
    let tip = config.tip_length_threshold;

    let (per_worker, mapreduce) = map_reduce_on(
        ctx,
        inputs,
        |(node_id, label): (u64, u64), out: &mut Emitter<'_, u64, &N>| {
            if let Some(node) = by_id.get(&node_id) {
                out.emit(label, *node);
            }
        },
        |_worker: usize, _label: &u64, members: &mut [&N], out: &mut Vec<Option<ContigDraft>>| {
            out.push(stitch_group(members, k, tip));
        },
    );

    let mut contigs = Vec::new();
    let mut dropped_tips = 0usize;
    let mut groups = 0usize;
    for (worker, drafts) in per_worker.into_iter().enumerate() {
        let mut ordinal = 0u32;
        for draft in drafts {
            groups += 1;
            match draft {
                Some(d) => {
                    ordinal += 1;
                    contigs.push(d.into_node(contig_id(worker as u32, ordinal)));
                }
                None => dropped_tips += 1,
            }
        }
    }

    MergeOutcome {
        contigs,
        dropped_tips,
        groups,
        mapreduce,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::is_contig_id;
    use crate::node::{NodeSeq, VertexType};
    use crate::ops::label::label_contigs_lr_on;
    use crate::ops::label::tests::nodes_from_reads;
    use std::collections::HashSet;

    fn merge_cfg(k: usize, tip: usize) -> MergeConfig {
        MergeConfig {
            k,
            tip_length_threshold: tip,
        }
    }

    fn assemble_single_contig(reads: &[&str], k: usize) -> AsmNode {
        let nodes = nodes_from_reads(reads, k);
        let labels = label_contigs_lr_on(&ExecCtx::new(2), &nodes);
        let out = merge_contigs_on(&ExecCtx::new(3), &nodes, &labels.labels, &merge_cfg(k, 0));
        assert_eq!(out.contigs.len(), 1, "expected exactly one contig");
        out.contigs.into_iter().next().unwrap()
    }

    #[test]
    fn figure9_contig_is_reconstructed() {
        // The strand "CTGCCGTACA" (Figure 9) covered by two overlapping reads
        // forms a single unambiguous path whose stitched sequence must spell
        // the original strand (or its reverse complement).
        let contig = assemble_single_contig(&["CTGCCGT", "CCGTACA"], 4);
        let seq = match &contig.seq {
            NodeSeq::Contig(s) => s.to_ascii(),
            _ => panic!("expected a contig node"),
        };
        let expected = "CTGCCGTACA";
        let rc = DnaString::from_ascii(expected)
            .unwrap()
            .reverse_complement()
            .to_ascii();
        assert!(
            seq == expected || seq == rc,
            "stitched sequence {seq} is neither {expected} nor its reverse complement"
        );
        assert!(is_contig_id(contig.id));
        // Both ends dangle (no ambiguous neighbours), so both edges are NULL.
        assert_eq!(contig.vertex_type(), VertexType::Isolated);
    }

    #[test]
    fn reverse_complement_reads_give_same_contig() {
        let a = assemble_single_contig(&["CTGCCGT", "CCGTACA"], 4);
        let b = assemble_single_contig(&["TGTACGGCAG"], 4); // rc of the strand
        let seq_a = a.seq.to_dna().canonical().to_ascii();
        let seq_b = b.seq.to_dna().canonical().to_ascii();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn longer_sequence_roundtrip() {
        // A 60 bp sequence whose canonical 8/9/10-mers are all distinct (no
        // ambiguity): cover it with overlapping 20-mers and check that merging
        // reproduces it exactly.
        let genome = "ACTGTATAGTCCCACCTGGTGATCCTATGCTTGTGAGTACCCAGAAAATAGCGACGGACC";
        let mut reads = Vec::new();
        for start in (0..genome.len() - 20).step_by(4) {
            reads.push(&genome[start..start + 20]);
        }
        reads.push(&genome[genome.len() - 20..]);
        let contig = assemble_single_contig(&reads, 9);
        let seq = contig.seq.to_dna();
        let fwd = seq.to_ascii();
        let rc = seq.reverse_complement().to_ascii();
        assert!(fwd == genome || rc == genome, "got {fwd}");
        assert!(contig.coverage >= 1);
    }

    #[test]
    fn coverage_is_minimum_edge_coverage() {
        // Middle of the path covered twice, ends once → contig coverage 1.
        let contig = assemble_single_contig(&["CTGCCGTA", "GCCGTACA"], 4);
        assert_eq!(contig.coverage, 1);
        let deep = assemble_single_contig(&["CTGCCGTACA", "CTGCCGTACA", "CTGCCGTACA"], 4);
        assert_eq!(deep.coverage, 3);
    }

    #[test]
    fn fork_produces_contigs_with_ambiguous_neighbors() {
        // Fork: shared prefix then two branches. The branch contigs must point
        // at the ambiguous fork vertex.
        let nodes = nodes_from_reads(&["TTACTTGATCCGTT", "TTACTTGAACGGTT"], 5);
        let labels = label_contigs_lr_on(&ExecCtx::new(2), &nodes);
        let out = merge_contigs_on(&ExecCtx::new(3), &nodes, &labels.labels, &merge_cfg(5, 0));
        assert!(out.contigs.len() >= 2);
        let ambiguous: HashSet<u64> = labels.ambiguous.iter().copied().collect();
        // At least one contig must have a real (ambiguous) neighbour, and all
        // real neighbours of contigs must be ambiguous vertices.
        let mut real_neighbor_seen = false;
        for contig in &out.contigs {
            for e in contig.real_edges() {
                real_neighbor_seen = true;
                assert!(
                    ambiguous.contains(&e.neighbor),
                    "contig neighbour {} should be an ambiguous vertex",
                    e.neighbor
                );
                // Contig-side polarity is always L (Figure 9).
                assert_eq!(e.own_label(), Orientation::Forward);
            }
        }
        assert!(real_neighbor_seen);
    }

    #[test]
    fn short_dangling_groups_are_dropped_as_tips() {
        let nodes = nodes_from_reads(&["CTGCCGT", "CCGTACA"], 4);
        let labels = label_contigs_lr_on(&ExecCtx::new(2), &nodes);
        // The single 10 bp contig dangles on both sides; with a threshold of 80
        // it is discarded.
        let out = merge_contigs_on(&ExecCtx::new(3), &nodes, &labels.labels, &merge_cfg(4, 80));
        assert_eq!(out.contigs.len(), 0);
        assert_eq!(out.dropped_tips, 1);
        assert_eq!(out.groups, 1);
        // With threshold 0 it is kept.
        let kept = merge_contigs_on(&ExecCtx::new(3), &nodes, &labels.labels, &merge_cfg(4, 0));
        assert_eq!(kept.contigs.len(), 1);
        assert_eq!(kept.dropped_tips, 0);
    }

    #[test]
    fn cycle_group_is_stitched_and_kept() {
        // Build a cyclic unambiguous group synthetically via the labeling
        // fallback, then merge it: the contig must contain every member and
        // have NULL ends.
        let nodes = crate::ops::label::tests::synthetic_cycle(12);
        let labels = label_contigs_lr_on(&ExecCtx::new(2), &nodes);
        let out = merge_contigs_on(&ExecCtx::new(3), &nodes, &labels.labels, &merge_cfg(6, 0));
        assert_eq!(out.contigs.len(), 1);
        let contig = &out.contigs[0];
        assert_eq!(contig.vertex_type(), VertexType::Isolated);
        // Cycle of m 6-mers stitched with k-1 overlap: length m + 5... the
        // first member contributes 6 bases, each subsequent member 1.
        assert_eq!(contig.len(), nodes.len() + 5);
    }

    #[test]
    fn empty_labels_produce_no_contigs() {
        let nodes = nodes_from_reads(&["CTGCCGT"], 4);
        let out = merge_contigs_on(&ExecCtx::new(3), &nodes, &[], &merge_cfg(4, 0));
        assert!(out.contigs.is_empty());
        assert_eq!(out.groups, 0);
    }

    #[test]
    fn contig_ids_are_unique_and_contig_typed() {
        let nodes = nodes_from_reads(&["TTACTTGATCCGTT", "TTACTTGAACGGTT", "GGCATTACTTGA"], 5);
        let labels = label_contigs_lr_on(&ExecCtx::new(2), &nodes);
        let out = merge_contigs_on(&ExecCtx::new(3), &nodes, &labels.labels, &merge_cfg(5, 0));
        let ids: HashSet<u64> = out.contigs.iter().map(|c| c.id).collect();
        assert_eq!(ids.len(), out.contigs.len(), "contig IDs must be unique");
        assert!(ids.iter().all(|id| is_contig_id(*id)));
    }
}
