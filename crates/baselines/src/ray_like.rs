//! The Ray-like strategy: greedy seed-and-extend on a single coordinator.
//!
//! Ray performs "simultaneous assembly of reads from a mix of technologies"
//! with a greedy extension heuristic driven by a master rank; in the paper's
//! evaluation it is the slowest assembler by an order of magnitude and its
//! runtime barely benefits from more workers. This baseline captures that
//! profile: every phase — (k+1)-mer counting, graph building and the greedy
//! walk — runs on a single thread regardless of the configured worker count,
//! and extension stops at any ambiguous branching whose coverage signal is not
//! decisive.

use crate::{Assembler, BaselineAssembly, BaselineParams};
use ppa_assembler::{edge_contributions, AsmNode, Edge, VertexType};
use ppa_seq::fastx::BREAK;
use ppa_seq::kmer::CanonicalScanner;
use ppa_seq::{Base, DnaString, Kmer, Orientation, ReadSet};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// The Ray-like baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct RayLike;

/// Builds the k-mer graph single-threadedly from (k+1)-mer counts.
fn build_graph(reads: &ReadSet, k: usize, min_coverage: u32) -> HashMap<u64, AsmNode> {
    // Count canonical (k+1)-mers sequentially (the coordinator does the work).
    let mut counts: HashMap<u64, u32> = HashMap::new();
    let mut scanner = CanonicalScanner::new(k + 1).expect("baseline k in range");
    for read in &reads.records {
        scanner.reset();
        for code in read.codes() {
            if code == BREAK {
                scanner.reset();
            } else if let Some(window) = scanner.push(Base::from_code(code)) {
                *counts.entry(window.kmer.packed()).or_insert(0) += 1;
            }
        }
    }
    let mut nodes: HashMap<u64, AsmNode> = HashMap::new();
    for (packed, count) in counts {
        if count <= min_coverage {
            continue;
        }
        let kplus1 = Kmer::from_packed(packed, k + 1).expect("valid (k+1)-mer");
        let ((src, s_slot), (tgt, t_slot)) = edge_contributions(&kplus1);
        for (kmer, slot) in [(src, s_slot), (tgt, t_slot)] {
            let node = nodes
                .entry(kmer.packed())
                .or_insert_with(|| AsmNode::new_kmer(kmer));
            node.push_edge(Edge {
                neighbor: slot.neighbor_of(&kmer).packed(),
                direction: slot.direction,
                polarity: slot.polarity,
                coverage: count,
            });
        }
    }
    nodes
}

/// Chooses the extension edge Ray would follow from an oriented k-mer, or
/// `None` if the choice is ambiguous / absent.
fn choose_extension(node: &AsmNode, orientation: Orientation) -> Option<&Edge> {
    let exit = match orientation {
        Orientation::Forward => ppa_assembler::Side::Right,
        Orientation::ReverseComplement => ppa_assembler::Side::Left,
    };
    let mut candidates: Vec<&Edge> = node.edges_on(exit).collect();
    if candidates.is_empty() {
        return None;
    }
    candidates.sort_by_key(|e| std::cmp::Reverse(e.coverage));
    if candidates.len() >= 2 && candidates[1].coverage * 2 >= candidates[0].coverage {
        // No decisive winner: Ray's heuristic stops the extension.
        return None;
    }
    Some(candidates[0])
}

/// The orientation of the neighbour reached through `edge`, in walk direction.
fn next_orientation(edge: &Edge) -> Orientation {
    match edge.direction {
        ppa_assembler::Direction::Out => edge.polarity.target_label(),
        ppa_assembler::Direction::In => edge.polarity.source_label().flip(),
    }
}

impl Assembler for RayLike {
    fn name(&self) -> &'static str {
        "Ray-like"
    }

    fn assemble(&self, reads: &ReadSet, params: &BaselineParams) -> BaselineAssembly {
        let start = Instant::now();
        let k = params.k;
        let nodes = build_graph(reads, k, params.min_kmer_coverage);

        // Seeds ordered by decreasing coverage (Ray extends from reliable seeds
        // first), then by ID for determinism.
        let mut seeds: Vec<u64> = nodes.keys().copied().collect();
        seeds.sort_by_key(|id| {
            let n = &nodes[id];
            (std::cmp::Reverse(n.coverage), *id)
        });

        let mut visited: HashSet<u64> = HashSet::new();
        let mut contigs: Vec<DnaString> = Vec::new();
        let mut walk_steps = 0usize;

        for seed in seeds {
            if visited.contains(&seed) {
                continue;
            }
            let seed_node = &nodes[&seed];
            if seed_node.vertex_type() == VertexType::Branch {
                // Ray does not seed inside repeats.
                continue;
            }
            visited.insert(seed);
            // Extend to the right of the forward-oriented seed, then to the
            // left, building the contig sequence.
            let mut right_part: Vec<Base> = Vec::new();
            let mut left_part: Vec<Base> = Vec::new();
            for direction in [Orientation::Forward, Orientation::ReverseComplement] {
                let mut current = seed_node;
                let mut orientation = direction;
                while let Some(edge) = choose_extension(current, orientation) {
                    let Some(next) = nodes.get(&edge.neighbor) else {
                        break;
                    };
                    if visited.contains(&next.id) || next.vertex_type() == VertexType::Branch {
                        break;
                    }
                    walk_steps += 1;
                    visited.insert(next.id);
                    let next_or = next_orientation(edge);
                    let oriented = next.seq.oriented(next_or);
                    // Each extension adds exactly one new base.
                    let added = oriented.get(oriented.len() - 1);
                    if direction == Orientation::Forward {
                        right_part.push(added);
                    } else {
                        // Walking left in the seed's frame: the new base is the
                        // complement end; collect and reverse at the end.
                        left_part.push(oriented.get(oriented.len() - 1));
                    }
                    current = next;
                    orientation = next_or;
                }
            }
            // Assemble: reverse-complement of the left extension, the seed, the
            // right extension.
            let mut contig = DnaString::new();
            for b in left_part.iter().rev() {
                contig.push(b.complement());
            }
            contig.extend_from(&seed_node.seq.to_dna());
            contig.extend_from_bases(&right_part);
            if contig.len() > k {
                contigs.push(contig);
            }
        }

        let notes = format!(
            "single-threaded greedy extension: {} vertices, {} walk steps",
            nodes.len(),
            walk_steps
        );
        BaselineAssembly {
            contigs,
            elapsed: start.elapsed(),
            notes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_readsim::{GenomeConfig, ReadSimConfig};

    #[test]
    fn reconstructs_an_error_free_genome_reasonably() {
        let reference = GenomeConfig {
            length: 1_200,
            repeat_families: 0,
            seed: 8,
            ..Default::default()
        }
        .generate();
        let reads = ReadSimConfig::error_free(80, 20.0).simulate(&reference);
        let params = BaselineParams {
            k: 21,
            min_kmer_coverage: 0,
            workers: 4,
            ..Default::default()
        };
        let out = RayLike.assemble(&reads, &params);
        assert!(!out.contigs.is_empty());
        // Greedy extension along an unambiguous genome should recover most of it.
        assert!(
            out.largest_contig() >= reference.len() / 2,
            "largest contig {} of {}",
            out.largest_contig(),
            reference.len()
        );
        assert!(out.notes.contains("single-threaded"));
    }

    #[test]
    fn greedy_extension_produces_valid_substrings() {
        let reference = GenomeConfig {
            length: 900,
            repeat_families: 0,
            seed: 12,
            ..Default::default()
        }
        .generate();
        let reads = ReadSimConfig::error_free(70, 15.0).simulate(&reference);
        let params = BaselineParams {
            k: 19,
            min_kmer_coverage: 0,
            workers: 1,
            ..Default::default()
        };
        let out = RayLike.assemble(&reads, &params);
        let fwd = reference.sequence.to_ascii();
        let rc = reference.sequence.reverse_complement().to_ascii();
        for contig in &out.contigs {
            let s = contig.to_ascii();
            assert!(
                fwd.contains(&s) || rc.contains(&s),
                "contig of length {} is not a reference substring",
                s.len()
            );
        }
    }

    #[test]
    fn worker_count_does_not_change_the_result() {
        let reference = GenomeConfig {
            length: 800,
            repeat_families: 2,
            seed: 21,
            ..Default::default()
        }
        .generate();
        let reads = ReadSimConfig::error_free(60, 12.0).simulate(&reference);
        let one = RayLike.assemble(
            &reads,
            &BaselineParams {
                k: 17,
                min_kmer_coverage: 0,
                workers: 1,
                ..Default::default()
            },
        );
        let eight = RayLike.assemble(
            &reads,
            &BaselineParams {
                k: 17,
                min_kmer_coverage: 0,
                workers: 8,
                ..Default::default()
            },
        );
        let mut a: Vec<usize> = one.contigs.iter().map(|c| c.len()).collect();
        let mut b: Vec<usize> = eight.contigs.iter().map(|c| c.len()).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "Ray-like ignores the worker count");
    }

    #[test]
    fn empty_input() {
        let out = RayLike.assemble(&ReadSet::new(), &BaselineParams::default());
        assert!(out.contigs.is_empty());
    }
}
