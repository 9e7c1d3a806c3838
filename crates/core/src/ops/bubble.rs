//! Operation ④ — bubble filtering (Section IV-B).
//!
//! A *bubble* is a pair (or group) of contigs that connect the same two
//! ambiguous vertices (Figure 5): one path is the true sequence, the others
//! are usually caused by read errors and have much lower coverage. This
//! operation groups contigs by their unordered pair of ambiguous end
//! neighbours with a mini-MapReduce pass, and inside every group prunes a
//! contig when another contig of the same group is within a user-defined edit
//! distance and has higher coverage.

use crate::node::AsmNode;
use crate::polarity::Direction;
use ppa_pregel::fxhash::FxHashSet;
use ppa_pregel::mapreduce::{map_reduce_on, Emitter, MapReduceMetrics};
use ppa_pregel::ExecCtx;
use ppa_seq::{banded_edit_distance, DnaString};
use serde::{Deserialize, Serialize};

/// Configuration of bubble filtering.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
    /// Mini-MapReduce metrics of the grouping pass.
    pub mapreduce: MapReduceMetrics,
}

/// The value shuffled for every bubble-candidate contig.
#[derive(Debug, Clone)]
struct Candidate {
    id: u64,
    /// Sequence oriented so that it reads from the smaller ambiguous end to
    /// the larger one, making sequences of the same group directly comparable.
    seq: DnaString,
    coverage: u32,
}

/// Runs bubble filtering over the given contig vertices on `ctx`'s workers
/// and returns the list of pruned contig IDs. The caller removes them from
/// its node set.
pub fn filter_bubbles_on(
    ctx: &ExecCtx,
    contigs: &[AsmNode],
    config: &BubbleConfig,
) -> BubbleOutcome {
    let max_dist = config.max_edit_distance;
    let inputs: Vec<&AsmNode> = contigs.iter().collect();
    let (results, mapreduce) = map_reduce_on(
        ctx,
        inputs,
        |contig: &AsmNode, out: &mut Emitter<'_, (u64, u64), Candidate>| {
            // Only contigs whose both ends attach to (distinct) ambiguous
            // vertices can form a bubble.
            let in_edge = contig.edges.iter().find(|e| e.direction == Direction::In);
            let out_edge = contig.edges.iter().find(|e| e.direction == Direction::Out);
            match (in_edge, out_edge) {
                (Some(a), Some(b)) if !a.is_null() && !b.is_null() && a.neighbor != b.neighbor => {
                    let (lo, hi) = (a.neighbor.min(b.neighbor), a.neighbor.max(b.neighbor));
                    // Orient the sequence lo → hi: the stored sequence reads
                    // in-neighbour → out-neighbour, so if the in-neighbour is
                    // the larger endpoint we compare reverse complements.
                    let seq = if a.neighbor <= b.neighbor {
                        contig.seq.to_dna()
                    } else {
                        contig.seq.to_dna().reverse_complement()
                    };
                    out.emit(
                        (lo, hi),
                        Candidate {
                            id: contig.id,
                            seq,
                            coverage: contig.coverage,
                        },
                    );
                }
                _ => {}
            }
        },
        |_w: usize, _key: &(u64, u64), group: &mut [Candidate], out: &mut Vec<(bool, Vec<u64>)>| {
            if group.len() < 2 {
                out.push((false, Vec::new()));
                return;
            }
            // Deterministic processing order regardless of shuffle order.
            group.sort_by_key(|c| c.id);
            let mut pruned = vec![false; group.len()];
            for i in 0..group.len() {
                if pruned[i] {
                    continue;
                }
                for j in i + 1..group.len() {
                    if pruned[j] {
                        continue;
                    }
                    let close = max_dist > 0
                        && banded_edit_distance(&group[i].seq, &group[j].seq, max_dist - 1)
                            .is_some();
                    if close {
                        if group[i].coverage < group[j].coverage {
                            pruned[i] = true;
                            break; // i is gone; stop comparing it further.
                        } else {
                            pruned[j] = true;
                        }
                    }
                }
            }
            let ids: Vec<u64> = group
                .iter()
                .zip(&pruned)
                .filter(|(_, p)| **p)
                .map(|(c, _)| c.id)
                .collect();
            out.push((true, ids));
        },
    );

    let mut pruned = Vec::new();
    let mut candidate_groups = 0usize;
    for (is_candidate, ids) in results.into_iter().flatten() {
        if is_candidate {
            candidate_groups += 1;
        }
        pruned.extend(ids);
    }
    BubbleOutcome {
        pruned,
        candidate_groups,
        mapreduce,
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
    use ppa_seq::Orientation;

    /// Builds a contig node between two ambiguous endpoints.
    fn contig_between(
        id_ordinal: u32,
        seq: &str,
        coverage: u32,
        in_nbr: u64,
        out_nbr: u64,
    ) -> AsmNode {
        let mut node = AsmNode::new_contig(
            contig_id(0, id_ordinal),
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
}
