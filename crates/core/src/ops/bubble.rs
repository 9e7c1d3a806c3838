//! Operation ④ — bubble filtering (Section IV-B).
//!
//! A *bubble* is a pair (or group) of contigs that connect the same two
//! ambiguous vertices (Figure 5): one path is the true sequence, the others
//! are usually caused by read errors and have much lower coverage. This
//! operation groups contigs by their unordered pair of ambiguous end
//! neighbours, and inside every group prunes a contig when another contig of
//! the same group is within a user-defined edit distance and has higher
//! coverage.
//!
//! The paper groups with a mini-MapReduce keyed by the end pair. The
//! candidates are few — one per contig with two distinct ambiguous ends, a
//! few thousand, in a few dozen to a few hundred groups on the benchmark's
//! workloads — so here they are sorted by (end pair, contig ID) and the
//! groups are the runs of that order. The comparisons, the pass's work, run
//! on the pool, each worker a contiguous share of the groups; the job
//! control is polled between grouping and comparing.

use crate::node::AsmNode;
use crate::polarity::Direction;
use ppa_pregel::fxhash::FxHashSet;
use ppa_pregel::ExecCtx;
use ppa_seq::{banded_edit_distance, DnaString};

/// Configuration of bubble filtering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BubbleConfig {
    /// A contig may be pruned only if its edit distance to a higher-coverage
    /// sibling is strictly smaller than this threshold (the paper uses 5).
    pub max_edit_distance: usize,
}

impl Default for BubbleConfig {
    fn default() -> Self {
        BubbleConfig {
            max_edit_distance: 5,
        }
    }
}

/// Output of bubble filtering.
#[derive(Debug, Clone)]
// ppa_lint: allow(test-only-pub) the return type of `filter_bubbles_on`
pub struct BubbleOutcome {
    /// IDs of the contigs that were pruned.
    pub pruned: Vec<u64>,
    /// Number of end-pair groups containing more than one contig (bubble
    /// candidates).
    pub candidate_groups: usize,
}

/// A contig whose two ends attach to distinct ambiguous vertices.
struct Candidate<'a> {
    /// The end neighbours' IDs, smaller first.
    ends: (u64, u64),
    contig: &'a AsmNode,
    /// Whether the contig reads from the larger end to the smaller one.
    reversed: bool,
}

impl Candidate<'_> {
    /// Only contigs whose both ends attach to (distinct) ambiguous vertices
    /// can form a bubble.
    fn of(contig: &AsmNode) -> Option<Candidate<'_>> {
        let in_edge = contig.edges.iter().find(|e| e.direction == Direction::In)?;
        let out_edge = contig
            .edges
            .iter()
            .find(|e| e.direction == Direction::Out)?;
        let (a, b) = (in_edge.neighbor, out_edge.neighbor);
        (!in_edge.is_null() && !out_edge.is_null() && a != b).then(|| Candidate {
            ends: (a.min(b), a.max(b)),
            contig,
            reversed: a > b,
        })
    }

    /// The sequence read from the smaller end to the larger one, making the
    /// sequences of one group directly comparable: the stored sequence reads
    /// in-neighbour → out-neighbour, so a contig whose in-neighbour is the
    /// larger end is compared as its reverse complement.
    fn oriented_seq(&self) -> DnaString {
        let seq = self.contig.seq.to_dna();
        if self.reversed {
            seq.reverse_complement()
        } else {
            seq
        }
    }
}

/// Compares the contigs of one group, in ascending ID order, and returns the
/// IDs of those pruned: a contig goes when a sibling not yet pruned is within
/// `max_dist` edits and has higher coverage (on a tie, the later one goes).
fn prune_group(group: &[Candidate<'_>], max_dist: usize) -> Vec<u64> {
    let seqs: Vec<DnaString> = group.iter().map(Candidate::oriented_seq).collect();
    let coverage = |i: usize| group[i].contig.coverage;
    let mut pruned = vec![false; group.len()];
    for i in 0..group.len() {
        if pruned[i] {
            continue;
        }
        for j in i + 1..group.len() {
            if pruned[j] {
                continue;
            }
            let close =
                max_dist > 0 && banded_edit_distance(&seqs[i], &seqs[j], max_dist - 1).is_some();
            if close {
                if coverage(i) < coverage(j) {
                    pruned[i] = true;
                    break; // i is gone; stop comparing it further.
                } else {
                    pruned[j] = true;
                }
            }
        }
    }
    let ids = group.iter().zip(&pruned).filter(|(_, p)| **p);
    ids.map(|(c, _)| c.contig.id).collect()
}

/// Runs bubble filtering over the given contig vertices on `ctx`'s workers
/// and returns the list of pruned contig IDs. The caller removes them from
/// its node set.
///
/// # Panics
///
/// Raises [`EngineError::Cancelled`](ppa_pregel::EngineError::Cancelled) by
/// panic if the context's job control trips between grouping and comparing.
pub fn filter_bubbles_on(
    ctx: &ExecCtx,
    contigs: &[AsmNode],
    config: &BubbleConfig,
) -> BubbleOutcome {
    let mut candidates: Vec<Candidate<'_>> = contigs.iter().filter_map(Candidate::of).collect();
    candidates.sort_unstable_by_key(|c| (c.ends, c.contig.id));
    let groups: Vec<&[Candidate<'_>]> = candidates
        .chunk_by(|a, b| a.ends == b.ends)
        .filter(|group| group.len() > 1)
        .collect();
    // The pass's one barrier, where the paper's map → reduce hand-off sits.
    ctx.poll_barrier();
    let workers = ctx.workers();
    let pruned = ctx.pool().run_per_worker(vec![(); workers], |w, ()| {
        let share = &groups[groups.len() * w / workers..groups.len() * (w + 1) / workers];
        let pruned = share
            .iter()
            .flat_map(|group| prune_group(group, config.max_edit_distance));
        pruned.collect::<Vec<u64>>()
    });
    BubbleOutcome {
        pruned: pruned.concat(),
        candidate_groups: groups.len(),
    }
}

/// Convenience helper: removes the pruned contigs from a node list in place.
pub fn remove_pruned(contigs: &mut Vec<AsmNode>, pruned: &[u64]) {
    let set: FxHashSet<u64> = pruned.iter().copied().collect();
    contigs.retain(|c| !set.contains(&c.id));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::contig_id;
    use crate::node::Edge;
    use crate::polarity::Polarity;
    use ppa_pregel::{CancelReason, EngineError, JobControl};
    use ppa_seq::Orientation;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Builds a contig node between two ambiguous endpoints.
    fn contig_between(
        id_ordinal: u64,
        seq: &str,
        coverage: u32,
        in_nbr: u64,
        out_nbr: u64,
    ) -> AsmNode {
        let mut node = AsmNode::new_contig(
            contig_id(id_ordinal),
            DnaString::from_ascii(seq).unwrap(),
            coverage,
        );
        node.push_edge(Edge {
            neighbor: in_nbr,
            direction: Direction::In,
            polarity: Polarity::from_labels(Orientation::Forward, Orientation::Forward),
            coverage,
        });
        node.push_edge(Edge {
            neighbor: out_nbr,
            direction: Direction::Out,
            polarity: Polarity::from_labels(Orientation::Forward, Orientation::Forward),
            coverage,
        });
        node
    }

    const END_A: u64 = 100;
    const END_B: u64 = 200;

    fn config() -> BubbleConfig {
        BubbleConfig {
            max_edit_distance: 5,
        }
    }

    #[test]
    fn low_coverage_branch_of_a_bubble_is_pruned() {
        // Figure 5: the main path has high coverage, the erroneous branch
        // differs by one substitution and has low coverage.
        let main = contig_between(1, "GGCACAATTAGG", 40, END_A, END_B);
        let error = contig_between(2, "GGCACTATTAGG", 2, END_A, END_B);
        let out = filter_bubbles_on(&ExecCtx::new(2), &[main.clone(), error.clone()], &config());
        assert_eq!(out.pruned, vec![error.id]);
        assert_eq!(out.candidate_groups, 1);
        let mut contigs = vec![main, error];
        remove_pruned(&mut contigs, &out.pruned);
        assert_eq!(contigs.len(), 1);
        assert_eq!(contigs[0].coverage, 40);
    }

    #[test]
    fn distant_sequences_are_not_bubbles() {
        // Two genuinely different paths between the same ambiguous vertices
        // (e.g. a real biological variant) must both survive.
        let a = contig_between(1, "GGCACAATTAGGCCAATT", 40, END_A, END_B);
        let b = contig_between(2, "GGCATTTTGGGGTTTAAC", 3, END_A, END_B);
        let out = filter_bubbles_on(&ExecCtx::new(2), &[a, b], &config());
        assert!(out.pruned.is_empty());
        assert_eq!(out.candidate_groups, 1);
    }

    #[test]
    fn contigs_with_different_end_pairs_are_not_compared() {
        let a = contig_between(1, "GGCACAATTAGG", 40, END_A, END_B);
        let b = contig_between(2, "GGCACTATTAGG", 2, END_A, 300);
        let out = filter_bubbles_on(&ExecCtx::new(2), &[a, b], &config());
        assert!(out.pruned.is_empty());
        assert_eq!(out.candidate_groups, 0);
    }

    #[test]
    fn reversed_orientation_bubble_is_detected() {
        // The erroneous contig is stored in the opposite direction (its
        // in-neighbour is the larger endpoint), so its sequence must be
        // reverse-complemented before comparison.
        let main = contig_between(1, "GGCACAATTAGG", 40, END_A, END_B);
        let rc_seq = DnaString::from_ascii("GGCACTATTAGG")
            .unwrap()
            .reverse_complement();
        let error = contig_between(2, &rc_seq.to_ascii(), 2, END_B, END_A);
        let out = filter_bubbles_on(&ExecCtx::new(2), &[main, error], &config());
        assert_eq!(out.pruned.len(), 1);
    }

    #[test]
    fn dangling_contigs_are_ignored() {
        let mut dangling = contig_between(1, "GGCACAATTAGG", 5, END_A, END_B);
        dangling.edges[1].neighbor = crate::ids::NULL_ID;
        let other = contig_between(2, "GGCACTATTAGG", 40, END_A, END_B);
        let out = filter_bubbles_on(&ExecCtx::new(2), &[dangling, other], &config());
        assert!(out.pruned.is_empty());
        assert_eq!(out.candidate_groups, 0);
    }

    #[test]
    fn three_way_bubble_keeps_only_the_best() {
        let best = contig_between(1, "GGCACAATTAGG", 50, END_A, END_B);
        let worse = contig_between(2, "GGCACTATTAGG", 5, END_A, END_B);
        let worst = contig_between(3, "GGCACTATTCGG", 2, END_A, END_B);
        let out = filter_bubbles_on(&ExecCtx::new(2), &[best.clone(), worse, worst], &config());
        assert_eq!(out.pruned.len(), 2);
        assert!(!out.pruned.contains(&best.id));
    }

    #[test]
    fn equal_coverage_prunes_exactly_one() {
        let a = contig_between(1, "GGCACAATTAGG", 10, END_A, END_B);
        let b = contig_between(2, "GGCACTATTAGG", 10, END_A, END_B);
        let out = filter_bubbles_on(&ExecCtx::new(2), &[a, b], &config());
        assert_eq!(out.pruned.len(), 1);
    }

    #[test]
    fn self_loop_contig_is_ignored() {
        // Both ends attach to the same ambiguous vertex: not a bubble candidate
        // (the paper requires two distinct neighbours nb1 < nb2).
        let a = contig_between(1, "GGCACAATTAGG", 10, END_A, END_A);
        let out = filter_bubbles_on(&ExecCtx::new(2), &[a], &config());
        assert!(out.pruned.is_empty());
        assert_eq!(out.candidate_groups, 0);
    }

    #[test]
    fn empty_input() {
        let out = filter_bubbles_on(&ExecCtx::new(2), &[], &config());
        assert!(out.pruned.is_empty());
        assert_eq!(out.candidate_groups, 0);
    }

    #[test]
    fn groups_are_compared_in_id_order_whatever_the_input_order() {
        // Two bubbles and a contig with its own end pair, shuffled: the
        // outcome does not depend on the order the contigs come in or on the
        // worker count.
        let contigs = vec![
            contig_between(4, "GGCACTATTAGG", 3, 300, 400),
            contig_between(1, "GGCACAATTAGG", 40, END_A, END_B),
            contig_between(5, "GGCACAATTAGG", 30, 300, 400),
            contig_between(2, "GGCACTATTAGG", 2, END_A, END_B),
            contig_between(6, "GGCACTATTAGG", 9, END_A, 400),
            contig_between(3, "GGCACTATTCGG", 2, END_A, END_B),
        ];
        let ids =
            |ordinals: &[u64]| -> Vec<u64> { ordinals.iter().map(|&o| contig_id(o)).collect() };
        for workers in [1, 2, 3] {
            let mut input = contigs.clone();
            for _ in 0..contigs.len() {
                let out = filter_bubbles_on(&ExecCtx::new(workers), &input, &config());
                assert_eq!(out.pruned, ids(&[2, 3, 4]), "workers={workers}");
                assert_eq!(out.candidate_groups, 2);
                input.rotate_left(1);
            }
        }
    }

    #[test]
    fn a_tripped_control_cancels_the_filter_and_the_pool_runs_the_next() {
        let contigs = vec![
            contig_between(1, "GGCACAATTAGG", 40, END_A, END_B),
            contig_between(2, "GGCACTATTAGG", 2, END_A, END_B),
        ];
        let ctx = ExecCtx::new(2);
        let control = JobControl::new();
        control.cancel();
        ctx.set_control(control.clone());
        let payload = catch_unwind(AssertUnwindSafe(|| {
            filter_bubbles_on(&ctx, &contigs, &config())
        }))
        .expect_err("a latched cancel must stop bubble filtering");
        ctx.clear_control();
        assert_eq!(
            payload.downcast_ref::<EngineError>(),
            Some(&EngineError::Cancelled {
                reason: CancelReason::Requested,
                superstep: 0,
            })
        );
        assert_eq!(control.checks(), 1);
        let after = filter_bubbles_on(&ctx, &contigs, &config());
        assert_eq!(after.pruned, vec![contigs[1].id]);
        assert_eq!(after.candidate_groups, 1);
    }
}
