//! Operation ③ — contig merging (Section IV-B).
//!
//! Takes the labelled unambiguous vertices and, for every label group, orders
//! the member vertices along their path and stitches their sequences into a
//! contig, taking edge polarity into account: a member observed in reverse
//! orientation contributes its reverse complement, and consecutive members
//! overlap by k−1 bases. The resulting contig vertex records its coverage (the
//! minimum edge coverage merged into it), and its two end neighbours with the
//! contig-side polarity normalised to `L` (Figure 9). Following the paper, a
//! group that dangles (at least one end has no ambiguous neighbour) and whose
//! total length does not exceed the tip-length threshold is discarded
//! immediately instead of being emitted.
//!
//! # Grouping
//!
//! Labeling leaves one `u32` per vertex of the node set, at its position:
//! the rank of its label — a label names one member of its group (list
//! ranking's smaller end, S-V's smallest vertex) — or `AMBIGUOUS`. One
//! stable counting pass over that column lays the members out group by
//! group in a single CSR column, groups in ascending label rank and each
//! group's members in ascending rank; no ID is looked up. The groups are
//! then stitched on the pool, largest first, each on the least-loaded
//! worker (longest processing time first), each worker reusing its scratch
//! for all of its groups.
//!
//! Stitching gathers, then walks: it reads the group's members in
//! ascending rank (their views, then their sole edges decoded from them),
//! finds where each edge leads among the group's IDs, and walks that copy,
//! so no step waits on a read of the node set. A k-mer member's tail is
//! written from its packed word, so no sequence is built per member.
//!
//! Contig IDs are minted afterwards (Figure 7c, without the worker field;
//! see [`crate::ids`]): the kept groups are numbered 1, 2, … in ascending
//! label rank, skipping dropped tips, above the largest contig ordinal of
//! the node set — its last vertex's, which is a contig if the set holds
//! any — so a correction round never reuses an ID. The contigs come out in
//! ID order. Which pool worker stitched a group, and how many there are,
//! changes nothing: names, order, orientation and sequence are the same at
//! every worker count.
//!
//! **Deviation from the paper:** Yan et al. group the labelled vertices with
//! a mini MapReduce keyed by label and mint `worker ‖ ordinal` IDs in its
//! reduce workers. Here there is no MapReduce: labels are ranks in the node
//! set, so a counting sort groups them without a shuffle, and dealing groups
//! by size balances the stitching by work where hashing labels to reduce
//! workers balanced it by group count. The round structure (group by label,
//! stitch every group, mint the IDs) is the paper's; the IDs no longer
//! depend on how labels were hashed to workers.

use crate::ids::{contig_id, contig_ordinal, is_contig_id};
use crate::node::{AsmNode, Edge, GraphNode, NodeSource};
use crate::polarity::{Direction, Polarity};
use crate::ranks::AMBIGUOUS;
use crate::stats::{Phase, PhaseClock, PhaseTimes};
use ppa_pregel::ExecCtx;
use ppa_pregel::MapReduceMetrics;
use ppa_seq::{DnaString, Orientation};
use std::time::Instant;

/// Configuration of contig merging.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// The pass in the mini-MapReduce's terms, as the paper's formulation
    /// would have counted it: `input_records` = `pairs_shuffled` = labelled
    /// vertices, `groups` = `output_records` = label groups. `elapsed` is the
    /// whole pass, grouping through minting. The spill fields are always 0:
    /// grouping never spilled.
    pub mapreduce: MapReduceMetrics,
    /// Where the merge's time went: grouping and stitching.
    pub phases: PhaseTimes,
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

/// Per-worker scratch of the stitching phase, reused across its groups:
/// per member of the group, in ascending rank and so ascending ID, its
/// view, its ID, its sole real edge per side (`[left, right]`) and whether
/// the walk has reached it.
struct Stitcher<N> {
    views: Vec<N>,
    ids: Vec<u64>,
    sides: Vec<[Option<Edge>; 2]>,
    visited: Vec<bool>,
}

impl<N: GraphNode + Copy> Stitcher<N> {
    /// Stitches one label group — `nodes` are its members in ascending
    /// rank, every one unambiguous — into a contig draft (see "Grouping").
    ///
    /// Returns `None` if the group is a short dangling tip (paper: "exit
    /// reduce if the aggregated contig length is not above the tip-length
    /// threshold").
    fn stitch(
        &mut self,
        nodes: impl Iterator<Item = N>,
        k: usize,
        tip_length_threshold: usize,
    ) -> Option<ContigDraft> {
        let Stitcher {
            views,
            ids,
            sides,
            visited,
        } = self;
        views.clear();
        views.extend(nodes);
        assert!(!views.is_empty());
        ids.clear();
        ids.extend(views.iter().map(|node| node.id()));
        sides.clear();
        sides.extend(
            views
                .iter()
                .map(|node| node.sole_edges().unwrap_or_default()),
        );
        // The member the sole edge on `side` of member `at` leads to, if the
        // group holds it.
        let next = |at: usize, side: usize| ids.binary_search(&sides[at][side]?.neighbor).ok();
        visited.clear();
        visited.resize(views.len(), false);

        // Locate a contig end: the first member with a side (left first)
        // whose edge does not lead back into the group.
        let start = (0..views.len()).find_map(|at| {
            let side = (0..2).find(|&side| next(at, side).is_none())?;
            Some((at, side))
        });
        // Cycle: start from the first member, the smallest ID.
        let (start_at, entry_side) = start.unwrap_or((0, 0));
        let start_node = views[start_at];
        let start_orientation = if entry_side == 0 {
            Orientation::Forward
        } else {
            Orientation::ReverseComplement
        };

        // In-neighbour: the outside edge on the entry side, if any (a
        // cycle's leads back into the group).
        let outside = sides[start_at][entry_side].filter(|_| next(start_at, entry_side).is_none());
        let in_neighbor = outside.map(|e| {
            (
                e.neighbor,
                outside_neighbor_label(&e, start_orientation),
                e.coverage,
            )
        });

        // Walk the path, stitching sequences (exact capacity for k-mers).
        let mut sequence = DnaString::with_capacity(k + views.len() - 1);
        start_node.append_oriented(start_orientation, 0, &mut sequence);
        let mut coverage: u32 = if start_node.is_contig() {
            start_node.coverage()
        } else {
            u32::MAX
        };
        visited[start_at] = true;
        let mut merged = 1usize;
        let mut current = start_at;
        let mut current_orientation = start_orientation;
        let mut out_neighbor: Option<(u64, Orientation, u32)> = None;
        let mut closed_cycle = false;

        loop {
            let exit_side = match current_orientation {
                Orientation::Forward => 1,
                Orientation::ReverseComplement => 0,
            };
            let Some(edge) = sides[current][exit_side] else {
                break; // dangling end
            };
            let Some(next_at) = next(current, exit_side) else {
                out_neighbor = Some((
                    edge.neighbor,
                    outside_neighbor_label(&edge, current_orientation),
                    edge.coverage,
                ));
                break;
            };
            if visited[next_at] {
                closed_cycle = true;
                break;
            }
            let next = &views[next_at];
            let next_or = next_orientation(&edge);
            coverage = coverage.min(edge.coverage);
            if next.is_contig() {
                coverage = coverage.min(next.coverage());
            }
            // Consecutive members overlap by k-1 bases.
            next.append_oriented(next_or, k - 1, &mut sequence);
            visited[next_at] = true;
            merged += 1;
            current = next_at;
            current_orientation = next_or;
        }

        debug_assert_eq!(
            merged,
            views.len(),
            "label group does not form a single path/cycle"
        );

        if coverage == u32::MAX {
            // Single k-mer member with no internal edge: fall back to its own
            // coverage.
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
        })
    }
}

/// One label group: its members' span of the CSR column.
struct Group {
    begin: u32,
    end: u32,
}

impl Group {
    fn len(&self) -> u32 {
        self.end - self.begin
    }
}

/// The label groups of the column `labels` in ascending label rank, with
/// their members — positions in the node set, ascending in each group — in
/// one CSR column.
///
/// # Panics
///
/// Panics if a label is neither [`AMBIGUOUS`] nor a position in `labels`.
fn group(labels: &[u32]) -> (Vec<Group>, Vec<u32>) {
    // Stable counting sort by label rank: `starts[g]` is where group `g`
    // begins, then its placement cursor.
    let n = labels.len();
    let mut starts = vec![0u32; n + 1];
    for (at, &label) in labels.iter().enumerate() {
        if label != AMBIGUOUS {
            assert!(
                (label as usize) < n,
                "label {label} of vertex {at} names no vertex of the {n} in the node set"
            );
            starts[label as usize + 1] += 1;
        }
    }
    for g in 1..starts.len() {
        starts[g] += starts[g - 1];
    }
    let groups: Vec<Group> = (0..n)
        .filter(|&g| starts[g + 1] > starts[g])
        .map(|g| Group {
            begin: starts[g],
            end: starts[g + 1],
        })
        .collect();
    let mut members = vec![0u32; starts[n] as usize];
    for (at, &label) in (0..).zip(labels) {
        if label != AMBIGUOUS {
            let cursor = &mut starts[label as usize];
            members[*cursor as usize] = at;
            *cursor += 1;
        }
    }
    (groups, members)
}

/// Longest processing time first: the groups by member count, largest first
/// (ties in group order), each dealt to the worker with the fewest members
/// so far (ties to the lowest worker).
fn lpt_plan(groups: &[Group], workers: usize) -> Vec<Vec<u32>> {
    let mut order: Vec<u32> = (0..groups.len() as u32).collect();
    order.sort_by_key(|&g| std::cmp::Reverse(groups[g as usize].len()));
    let mut load = vec![0u64; workers];
    let mut plan: Vec<Vec<u32>> = vec![Vec::new(); workers];
    for g in order {
        let w = (0..workers).min_by_key(|&w| load[w]).expect("a worker");
        load[w] += groups[g as usize].len() as u64;
        plan[w].push(g);
    }
    plan
}

/// Stitches the groups on the pool, worker `w` taking `plan[w]`, and mints
/// the contig IDs, in group order above the node set's largest contig
/// ordinal. The outcome is the same for every plan that deals each group
/// once.
fn stitch_on<S: NodeSource + ?Sized>(
    ctx: &ExecCtx,
    nodes: &S,
    groups: &[Group],
    members: &[u32],
    plan: Vec<Vec<u32>>,
    config: &MergeConfig,
) -> (Vec<AsmNode>, usize) {
    let (k, tip) = (config.k, config.tip_length_threshold);
    let mut at = vec![(0u32, 0u32); groups.len()];
    for (w, share) in plan.iter().enumerate() {
        for (i, &g) in share.iter().enumerate() {
            at[g as usize] = (w as u32, i as u32);
        }
    }
    let mut drafts: Vec<Vec<Option<ContigDraft>>> = ctx.pool().run_per_worker(plan, |_, share| {
        let mut stitcher = Stitcher {
            views: Vec::new(),
            ids: Vec::new(),
            sides: Vec::new(),
            visited: Vec::new(),
        };
        share
            .into_iter()
            .map(|g| {
                let group = &groups[g as usize];
                let members = &members[group.begin as usize..group.end as usize];
                let members = members.iter().map(|&at| nodes.node(at as usize));
                stitcher.stitch(members, k, tip)
            })
            .collect()
    });

    let kept = drafts.iter().flatten().filter(|d| d.is_some()).count();
    let mut contigs = Vec::with_capacity(kept);
    let last = nodes.len().checked_sub(1).map(|at| nodes.node(at).id());
    let mut ordinal = last
        .filter(|&id| is_contig_id(id))
        .map_or(0, contig_ordinal);
    for &(w, i) in &at {
        if let Some(draft) = drafts[w as usize][i as usize].take() {
            ordinal += 1;
            contigs.push(draft.into_node(contig_id(ordinal)));
        }
    }
    (contigs, groups.len() - kept)
}

/// Runs contig merging on `ctx`'s workers: groups the labelled vertices by
/// label and stitches every group into a contig vertex (see the module
/// docs). `labels` is a labeling's column over `nodes`
/// ([`LabelOutcome::labels`](super::label::LabelOutcome::labels)): per
/// position, the position of its label, or `AMBIGUOUS`. The nodes may be in
/// any form ([`NodeSource`]); the outcome does not depend on which, nor on
/// the worker count.
///
/// # Panics
///
/// Panics if `labels` does not have one entry per node, or if a label names
/// no position of `nodes`: both labelings name a group by one of its members.
pub fn merge_contigs_on<S: NodeSource + ?Sized>(
    ctx: &ExecCtx,
    nodes: &S,
    labels: &[u32],
    config: &MergeConfig,
) -> MergeOutcome {
    let start = Instant::now();
    assert_eq!(
        labels.len(),
        nodes.len(),
        "a label column of {} entries for {} nodes",
        labels.len(),
        nodes.len()
    );
    let mut clock = PhaseClock::start();
    let (groups, members) = group(labels);
    // The pass's one barrier, where the paper's map → reduce hand-off sits.
    ctx.poll_barrier();
    let plan = lpt_plan(&groups, ctx.workers());
    clock.lap(Phase::Group);
    let (contigs, dropped_tips) = stitch_on(ctx, nodes, &groups, &members, plan, config);
    clock.lap(Phase::Stitch);
    MergeOutcome {
        contigs,
        dropped_tips,
        groups: groups.len(),
        phases: clock.times(),
        mapreduce: MapReduceMetrics {
            input_records: members.len() as u64,
            pairs_shuffled: members.len() as u64,
            groups: groups.len() as u64,
            output_records: groups.len() as u64,
            elapsed: start.elapsed(),
            ..MapReduceMetrics::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::is_contig_id;
    use crate::node::{NodeSeq, VertexType};
    use crate::ops::label::label_contigs_lr_on;
    use crate::ops::label::tests::nodes_from_reads;
    use crate::polarity::Side;
    use ppa_pregel::fxhash::FxHashMap;
    use ppa_pregel::{CancelReason, EngineError, JobControl};
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};

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

    /// The single real edge on a side, if there is exactly one.
    fn sole_edge_on(node: &impl GraphNode, side: Side) -> Option<Edge> {
        let mut on_side = node.real_edges().filter(|e| e.side() == side);
        let first = on_side.next()?;
        on_side.next().is_none().then_some(first)
    }

    /// The reference stitcher, the straightforward walk: a member map by
    /// ID, and every step of the walk decodes the current member's edges.
    #[derive(Default)]
    struct ReferenceStitcher {
        /// Member ID → position in the group's member list.
        index: FxHashMap<u64, u32>,
        /// Whether the walk has reached the member at that position.
        visited: Vec<bool>,
    }

    impl ReferenceStitcher {
        /// Stitches one label group — `members` are positions in `nodes`,
        /// ascending — into a contig draft.
        ///
        /// Returns `None` if the group is a short dangling tip (paper: "exit
        /// reduce if the aggregated contig length is not above the tip-length
        /// threshold").
        fn stitch<S: NodeSource + ?Sized>(
            &mut self,
            nodes: &S,
            members: &[u32],
            k: usize,
            tip_length_threshold: usize,
        ) -> Option<ContigDraft> {
            assert!(!members.is_empty());
            let node = |at: u32| nodes.node(members[at as usize] as usize);
            let ReferenceStitcher { index, visited } = self;
            index.clear();
            index.extend((0..members.len() as u32).map(|at| (node(at).id(), at)));
            visited.clear();
            visited.resize(members.len(), false);

            // Locate a contig end: a member with a side that has no edge leading
            // back into the group.
            let outer_side_of = |node: S::Node<'_>, side: Side| -> bool {
                match sole_edge_on(&node, side) {
                    None => true,
                    Some(e) => !index.contains_key(&e.neighbor),
                }
            };
            let start = (0..members.len() as u32).find_map(|at| {
                [Side::Left, Side::Right]
                    .into_iter()
                    .find(|side| outer_side_of(node(at), *side))
                    .map(|side| (at, side))
            });
            // Cycle: start from the first member, the smallest ID.
            let (start_at, entry_side) = start.unwrap_or((0, Side::Left));
            let start_node = node(start_at);

            let start_orientation = if entry_side == Side::Left {
                Orientation::Forward
            } else {
                Orientation::ReverseComplement
            };

            // In-neighbour: the outside edge on the entry side, if any.
            let in_neighbor = sole_edge_on(&start_node, entry_side).and_then(|e| {
                if index.contains_key(&e.neighbor) {
                    None
                } else {
                    Some((
                        e.neighbor,
                        outside_neighbor_label(&e, start_orientation),
                        e.coverage,
                    ))
                }
            });

            // Walk the path, stitching sequences (exact capacity for k-mers).
            let mut sequence = DnaString::with_capacity(k + members.len() - 1);
            start_node.append_oriented(start_orientation, 0, &mut sequence);
            let mut coverage: u32 = if start_node.is_contig() {
                start_node.coverage()
            } else {
                u32::MAX
            };
            visited[start_at as usize] = true;
            let mut merged = 1usize;
            let mut current = start_node;
            let mut current_orientation = start_orientation;
            let mut out_neighbor: Option<(u64, Orientation, u32)> = None;
            let mut closed_cycle = false;

            loop {
                let exit_side = match current_orientation {
                    Orientation::Forward => Side::Right,
                    Orientation::ReverseComplement => Side::Left,
                };
                let Some(edge) = sole_edge_on(&current, exit_side) else {
                    break; // dangling end
                };
                let Some(&next_at) = index.get(&edge.neighbor) else {
                    out_neighbor = Some((
                        edge.neighbor,
                        outside_neighbor_label(&edge, current_orientation),
                        edge.coverage,
                    ));
                    break;
                };
                if visited[next_at as usize] {
                    closed_cycle = true;
                    break;
                }
                let next = node(next_at);
                let next_or = next_orientation(&edge);
                coverage = coverage.min(edge.coverage);
                if next.is_contig() {
                    coverage = coverage.min(next.coverage());
                }
                // Consecutive members overlap by k-1 bases.
                next.append_oriented(next_or, k - 1, &mut sequence);
                visited[next_at as usize] = true;
                merged += 1;
                current = next;
                current_orientation = next_or;
            }

            debug_assert_eq!(
                merged,
                members.len(),
                "label group does not form a single path/cycle"
            );

            if coverage == u32::MAX {
                // Single k-mer member with no internal edge: fall back to its own
                // coverage.
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
            })
        }
    }

    /// Merging through the reference stitcher, one group after the other
    /// in label order, minting as [`stitch_on`] does.
    fn reference_merge<S: NodeSource + ?Sized>(
        nodes: &S,
        labels: &[u32],
        config: &MergeConfig,
    ) -> Vec<AsmNode> {
        let (groups, members) = group(labels);
        let mut stitcher = ReferenceStitcher::default();
        let last = nodes.len().checked_sub(1).map(|at| nodes.node(at).id());
        let first = last
            .filter(|&id| is_contig_id(id))
            .map_or(0, contig_ordinal)
            + 1;
        groups
            .iter()
            .filter_map(|g| {
                let members = &members[g.begin as usize..g.end as usize];
                stitcher.stitch(nodes, members, config.k, config.tip_length_threshold)
            })
            .zip(first..)
            .map(|(draft, ordinal)| draft.into_node(contig_id(ordinal)))
            .collect()
    }

    /// Pins `merge_contigs_on` to the reference merge of `nodes` labelled
    /// by list ranking, at 1–4 workers, keeping and dropping short tips.
    fn pinned<S: NodeSource + ?Sized>(nodes: &S, what: &str) -> Vec<u32> {
        let labels = label_contigs_lr_on(&ExecCtx::new(2), nodes).labels;
        for tip in [0, 80] {
            let config = merge_cfg(31, tip);
            let reference = reference_merge(nodes, &labels, &config);
            for workers in 1..=4 {
                let out = merge_contigs_on(&ExecCtx::new(workers), nodes, &labels, &config);
                assert_eq!(
                    out.contigs, reference,
                    "{what}, tip {tip}: {workers} workers"
                );
            }
        }
        labels
    }

    #[test]
    fn gathered_stitching_equals_the_reference_stitcher_at_every_worker_count() {
        use crate::node::MixedNodes;
        use crate::ops::blocks::tests::{kmer_cases, round_two};
        for (what, graph) in kmer_cases() {
            let labels = pinned(&graph, what);
            if what == "a 20 kb genome" {
                // Most groups start the walk past their smallest member,
                // which lies inside the path.
                let (groups, members) = group(&labels);
                let interior = groups
                    .iter()
                    .filter(|g| {
                        let first = members[g.begin as usize];
                        let sides = graph.node(first as usize).sole_edges().unwrap();
                        let ids = graph.ids();
                        sides.iter().all(|edge| {
                            edge.is_some_and(|e| {
                                let at = ids.binary_search(&e.neighbor);
                                at.is_ok_and(|at| labels[at] == labels[first as usize])
                            })
                        })
                    })
                    .count();
                assert!(
                    interior > 0,
                    "{what}: no group with an interior smallest member"
                );
            }
        }
        let (kmers, contigs) = round_two();
        pinned(
            &MixedNodes {
                kmers: &kmers,
                contigs: &contigs,
            },
            "round two",
        );
        pinned(
            &MixedNodes {
                kmers: &kmers[1..],
                contigs: &contigs,
            },
            "round two with an absent neighbour",
        );
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
        let ambiguous: HashSet<u64> = labels.ambiguous().map(|at| nodes[at].id).collect();
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
        // Every vertex ambiguous: no vertex is labelled.
        let nodes = nodes_from_reads(&["CTGCCGT"], 4);
        let labels = vec![AMBIGUOUS; nodes.len()];
        let out = merge_contigs_on(&ExecCtx::new(3), &nodes, &labels, &merge_cfg(4, 0));
        assert!(out.contigs.is_empty());
        assert_eq!(out.groups, 0);
    }

    /// Six reads with no 7-mer in common (nor with a reverse complement),
    /// each its own unambiguous path: five long enough to keep and one of
    /// 12 bases, a dangling tip under a threshold of 15.
    const SIX_PATHS: [&str; 6] = [
        "CCGTCGTTGAGTGTATGGCAAGGCAGAGCG",
        "GAGGTTCAAGAACAAGAATGGCCT",
        "TTGTGTAATTTGACATGCTTAAGTGTTGTTTATG",
        "ACCTACACTGCT",
        "AACTAGAACCCAAATGACTAACTAACCA",
        "GGATGAAATGGGCGAGTTTGC",
    ];

    /// The label of the path a read spells: that of its first k-mer.
    fn label_of(nodes: &[AsmNode], labels: &[u32], read: &str, k: usize) -> u32 {
        let id = ppa_seq::Kmer::from_str_exact(&read[..k])
            .unwrap()
            .canonical()
            .kmer
            .packed();
        labels[nodes.iter().position(|n| n.id == id).expect("a vertex")]
    }

    #[test]
    fn contig_ids_number_the_kept_groups_in_label_order() {
        let (k, tip) = (7, 15);
        let nodes = nodes_from_reads(&SIX_PATHS, k);
        let labels = label_contigs_lr_on(&ExecCtx::new(2), &nodes).labels;
        let mut paths: Vec<(u32, &str)> = SIX_PATHS
            .iter()
            .map(|read| (label_of(&nodes, &labels, read, k), *read))
            .collect();
        paths.sort();
        paths.dedup_by_key(|(label, _)| *label);
        assert_eq!(paths.len(), 6, "one group per read");
        // The dropped group is not the last one, so ordinals must skip it.
        let dropped_at = paths.iter().position(|(_, r)| r.len() <= tip).unwrap();
        assert!(dropped_at + 1 < paths.len(), "{paths:?}");
        let expected: Vec<(u64, String)> = paths
            .iter()
            .filter(|(_, read)| read.len() > tip)
            .zip(1..)
            .map(|((_, read), ordinal)| {
                let seq = DnaString::from_ascii(read).unwrap().canonical();
                (contig_id(ordinal), seq.to_ascii())
            })
            .collect();

        let mut first: Option<Vec<AsmNode>> = None;
        for workers in 1..=4 {
            let ctx = ExecCtx::new(workers);
            let out = merge_contigs_on(&ctx, &nodes, &labels, &merge_cfg(k, tip));
            let got: Vec<(u64, String)> = out
                .contigs
                .iter()
                .map(|c| (c.id, c.seq.to_dna().canonical().to_ascii()))
                .collect();
            assert_eq!(got, expected, "{workers} workers");
            // Orientation and edges too: the same contigs at every count.
            let first = first.get_or_insert_with(|| out.contigs.clone());
            assert_eq!(&out.contigs, first, "{workers} workers");
            assert_eq!((out.groups, out.dropped_tips), (6, 1));
            let mr = &out.mapreduce;
            assert_eq!(mr.input_records, labels.len() as u64);
            assert_eq!(mr.pairs_shuffled, labels.len() as u64);
            assert_eq!((mr.groups, mr.output_records), (6, 6));
            assert_eq!(
                (mr.spilled_bytes, mr.spill_read_bytes, mr.spilled_runs),
                (0, 0, 0)
            );

            // Which worker stitches which group changes nothing: every group
            // on the last worker in descending label order, or dealt round
            // robin, mints what the size-balanced plan mints.
            let (groups, members) = group(&labels);
            let config = merge_cfg(k, tip);
            let stitch = |plan| stitch_on(&ctx, &nodes, &groups, &members, plan, &config);
            let balanced = stitch(lpt_plan(&groups, workers));
            assert_eq!(balanced.0, out.contigs);
            let mut last: Vec<Vec<u32>> = vec![Vec::new(); workers];
            last[workers - 1] = (0..groups.len() as u32).rev().collect();
            let mut dealt: Vec<Vec<u32>> = vec![Vec::new(); workers];
            for g in 0..groups.len() as u32 {
                dealt[g as usize % workers].push(g);
            }
            for plan in [last, dealt] {
                assert_eq!(stitch(plan), balanced, "{workers} workers");
            }
        }
    }

    #[test]
    fn a_later_round_numbers_above_the_largest_contig_ordinal() {
        let (k, tip) = (7, 15);
        let ctx = ExecCtx::new(2);
        let nodes = nodes_from_reads(&SIX_PATHS, k);
        let labels = label_contigs_lr_on(&ctx, &nodes).labels;
        let first = merge_contigs_on(&ctx, &nodes, &labels, &merge_cfg(k, tip)).contigs;
        assert_eq!(first.last().map(|c| c.id), Some(contig_id(5)));
        // The five contigs as a node set: each is a group of its own.
        let labels = label_contigs_lr_on(&ctx, &first).labels;
        let again = merge_contigs_on(&ctx, &first, &labels, &merge_cfg(k, 0)).contigs;
        let ids: Vec<u64> = again.iter().map(|c| c.id).collect();
        assert_eq!(ids, (6..=10).map(contig_id).collect::<Vec<_>>());
        for (before, after) in first.iter().zip(&again) {
            assert_eq!(before.seq, after.seq);
        }
    }

    #[test]
    fn a_label_column_that_does_not_fit_the_node_set_is_refused() {
        let nodes = nodes_from_reads(&SIX_PATHS, 7);
        let mut labels = label_contigs_lr_on(&ExecCtx::new(2), &nodes).labels;
        let ctx = ExecCtx::new(2);
        let short = catch_unwind(AssertUnwindSafe(|| {
            merge_contigs_on(&ctx, &nodes[1..], &labels, &merge_cfg(7, 15))
        }));
        assert!(short.is_err(), "one label too many");
        labels[3] = nodes.len() as u32;
        let beyond = catch_unwind(AssertUnwindSafe(|| {
            merge_contigs_on(&ctx, &nodes, &labels, &merge_cfg(7, 15))
        }));
        let message = ppa_pregel::engine::panic_message(&*beyond.expect_err("refused"));
        assert!(message.contains("label"), "{message}");
    }

    #[test]
    fn lpt_deals_the_largest_groups_first_to_the_least_loaded_worker() {
        let sizes = [3u32, 9, 4, 4, 1, 8];
        let mut groups = Vec::new();
        let mut begin = 0;
        for size in sizes {
            groups.push(Group {
                begin,
                end: begin + size,
            });
            begin += size;
        }
        // 9 → w0, 8 → w1, 4 (group 2) → w1 (8 < 9), 4 (group 3) → w0
        // (9 < 12), 3 → w1 (12 < 13), 1 → w0 (13 < 15).
        assert_eq!(lpt_plan(&groups, 2), vec![vec![1, 3, 4], vec![5, 2, 0]]);
        assert_eq!(lpt_plan(&groups, 1), vec![vec![1, 5, 2, 3, 0, 4]]);
    }

    #[test]
    fn a_tripped_control_cancels_the_merge_and_the_pool_runs_the_next() {
        let nodes = nodes_from_reads(&SIX_PATHS, 7);
        let labels = label_contigs_lr_on(&ExecCtx::new(2), &nodes).labels;
        let ctx = ExecCtx::new(2);
        let control = JobControl::new();
        control.cancel();
        ctx.set_control(control.clone());
        let payload = catch_unwind(AssertUnwindSafe(|| {
            merge_contigs_on(&ctx, &nodes, &labels, &merge_cfg(7, 15))
        }))
        .expect_err("a latched cancel must stop the merge");
        ctx.clear_control();
        assert_eq!(
            payload.downcast_ref::<EngineError>(),
            Some(&EngineError::Cancelled {
                reason: CancelReason::Requested,
                superstep: 0,
            })
        );
        assert_eq!(control.checks(), 1);
        let after = merge_contigs_on(&ctx, &nodes, &labels, &merge_cfg(7, 15));
        let fresh = merge_contigs_on(&ExecCtx::new(2), &nodes, &labels, &merge_cfg(7, 15));
        assert_eq!(after.contigs, fresh.contigs);
        assert_eq!(after.contigs.len(), 5);
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
