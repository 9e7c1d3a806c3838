//! The ABySS-like strategy.
//!
//! Two properties of ABySS that the paper calls out are reproduced here:
//!
//! * **Existence-based edges** — ABySS "builds the DBG by letting each k-mer
//!   send messages to its 8 possible neighbours (with A/T/G/C
//!   prepended/appended) to establish edges", which creates an edge whenever
//!   both k-mers exist even if the connecting (k+1)-mer never occurred in a
//!   read (Section V). The probe phase below does exactly that, and the false
//!   edges both increase ambiguity (shorter contigs) and can join unrelated
//!   loci (misassemblies).
//! * **Step-by-step unitig growth** — contigs are grown by propagating a label
//!   one hop per superstep along unambiguous chains, so the number of
//!   supersteps is proportional to the longest contig instead of logarithmic
//!   (the paper's complexity argument for why PPA-assembler is faster).
//!
//! Error correction (ABySS's erosion/bubble popping) is not modelled; the
//! comparison focuses on the construction and unitig-growth differences the
//! paper discusses.
//!
//! Both jobs run on the dense ranks of the counted k-mers: the counts come
//! out in ascending k-mer order, so a k-mer's rank is its position in them,
//! found by binary search. A probe to a k-mer that was not counted goes to
//! the one-past-the-end rank, which is no vertex, and is dropped there.

use crate::common::{count_canonical_kmers_on, kmer_of};
use crate::{Assembler, BaselineAssembly, BaselineParams};
use ppa_assembler::ops::label::AMBIGUOUS;
use ppa_assembler::ops::merge::{merge_contigs_on, MergeConfig};
use ppa_assembler::{edge_contributions, AsmNode, Edge, EdgeSlot, NodeSeq, VertexType};
use ppa_pregel::aggregate::NoAggregate;
use ppa_pregel::{run_dense_on, Context, DenseSet, ExecCtx, PregelConfig, VertexProgram};
use ppa_seq::{Base, ReadSet};
use std::collections::HashSet;
use std::time::Instant;

/// The ABySS-like baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct AbyssLike;

/// The rank of k-mer `id` among the counted k-mers (ascending by k-mer), or
/// the one-past-the-end rank if it was not counted.
fn rank_of(counts: &[(u64, u32)], id: u64) -> u32 {
    let at = counts.binary_search_by_key(&id, |&(kmer, _)| kmer);
    at.unwrap_or(counts.len()) as u32
}

// ---------------------------------------------------------------------------
// Phase 1: existence-based edge probing.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Probe {
    /// Adjacency slot bit from the *receiver's* perspective.
    slot_bit: u8,
    sender_count: u32,
}

/// Every vertex is a counted k-mer, its state the node it grows edges on.
struct ProbeProgram<'a> {
    counts: &'a [(u64, u32)],
}

impl VertexProgram for ProbeProgram<'_> {
    type Value = AsmNode;
    type Message = Probe;
    type Aggregate = NoAggregate;

    fn compute(
        &self,
        ctx: &mut Context<'_, Self>,
        rank: u32,
        node: &mut AsmNode,
        messages: &mut [Probe],
    ) {
        let own = match &node.seq {
            NodeSeq::Kmer(k) => *k,
            NodeSeq::Contig(_) => unreachable!("probe vertices are k-mers"),
        };
        let (id, count) = self.counts[rank as usize];
        if ctx.superstep() == 0 {
            // Probe all eight hypothetical neighbours.
            for base_code in 0..4u8 {
                let base = Base::from_code(base_code);
                // Right extension: (k+1)-mer = own ++ base; left: base ++ own.
                let right = own.append(base);
                let left = own.extend_left(base).append(own.last());
                for kplus1 in [right, left] {
                    let canon = kplus1.canonical().kmer;
                    let ((src, s_slot), (tgt, t_slot)) = edge_contributions(&canon);
                    let (other, other_slot) = if src.packed() == id {
                        (tgt.packed(), t_slot)
                    } else {
                        (src.packed(), s_slot)
                    };
                    if other == id {
                        continue; // self-loop probes are meaningless
                    }
                    ctx.send_message(
                        rank_of(self.counts, other),
                        Probe {
                            slot_bit: other_slot.bit() as u8,
                            sender_count: count,
                        },
                    );
                }
            }
        } else {
            let mut seen: HashSet<u8> = HashSet::new();
            for probe in messages.iter() {
                if !seen.insert(probe.slot_bit) {
                    continue;
                }
                let slot = EdgeSlot::from_bit(probe.slot_bit as u32);
                let neighbor = slot.neighbor_of(&own);
                node.push_edge(Edge {
                    neighbor: neighbor.packed(),
                    direction: slot.direction,
                    polarity: slot.polarity,
                    coverage: count.min(probe.sender_count),
                });
            }
        }
        ctx.vote_to_halt();
    }
}

// ---------------------------------------------------------------------------
// Phase 2: one-hop-per-superstep label propagation along unambiguous chains.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct PropState {
    unambiguous: bool,
    /// Neighbour ranks.
    neighbors: Vec<u32>,
    /// The smallest rank seen, so the smallest k-mer.
    label: u32,
}

struct PropProgram;

impl VertexProgram for PropProgram {
    type Value = PropState;
    type Message = u32;
    type Aggregate = NoAggregate;

    fn compute(
        &self,
        ctx: &mut Context<'_, Self>,
        _rank: u32,
        value: &mut PropState,
        messages: &mut [u32],
    ) {
        if !value.unambiguous {
            // Ambiguous vertices never adopt or forward labels, so labels only
            // spread along unambiguous chains.
            ctx.vote_to_halt();
            return;
        }
        let before = value.label;
        for &label in messages.iter() {
            value.label = value.label.min(label);
        }
        if ctx.superstep() == 0 || value.label < before {
            for i in 0..value.neighbors.len() {
                let n = value.neighbors[i];
                ctx.send_message(n, value.label);
            }
        }
        ctx.vote_to_halt();
    }
}

impl Assembler for AbyssLike {
    fn name(&self) -> &'static str {
        "ABySS-like"
    }

    fn assemble(&self, reads: &ReadSet, params: &BaselineParams) -> BaselineAssembly {
        let start = Instant::now();
        let k = params.k;
        // One persistent pool drives k-mer counting, both Pregel jobs and the
        // final merge.
        let ctx = ExecCtx::new(params.workers);
        let counts = count_canonical_kmers_on(&ctx, reads, k, params.min_kmer_coverage);
        let ranks = counts.len() as u32;

        // Probe phase: existence-based edges.
        let config = PregelConfig::default().max_supersteps(2_000_000);
        let (mut probe_set, _) = DenseSet::from_fn_on(&ctx, ranks, |rank, _: &mut ()| {
            Some(AsmNode::new_kmer(kmer_of(counts[rank as usize].0, k)))
        });
        let probe = ProbeProgram { counts: &counts };
        let probe_metrics = run_dense_on(&ctx, &probe, &config, &mut probe_set);
        // In rank order, which is ID order, as merging takes them.
        let nodes: Vec<AsmNode> = probe_set.iter().map(|(_, node)| node.clone()).collect();
        drop(probe_set);

        // Unitig formation: one-hop-per-superstep label propagation.
        let (mut prop_set, _) = DenseSet::from_fn_on(&ctx, ranks, |rank, _: &mut ()| {
            let node = &nodes[rank as usize];
            Some(PropState {
                unambiguous: node.vertex_type() != VertexType::Branch,
                neighbors: node
                    .real_edges()
                    .map(|e| rank_of(&counts, e.neighbor))
                    .collect(),
                label: rank,
            })
        });
        let prop_metrics = run_dense_on(&ctx, &PropProgram, &config, &mut prop_set);

        // Per rank, the rank of its label; a branch vertex takes none.
        let labels: Vec<u32> = prop_set
            .iter()
            .map(|(_, s)| if s.unambiguous { s.label } else { AMBIGUOUS })
            .collect();

        // Stitch groups into contigs (shared substrate).
        let merged = merge_contigs_on(
            &ctx,
            &nodes,
            &labels,
            &MergeConfig {
                k,
                tip_length_threshold: params.tip_length_threshold,
            },
        );

        let notes = format!(
            "probe: {} supersteps / {} msgs; unitig growth: {} supersteps / {} msgs",
            probe_metrics.supersteps,
            probe_metrics.total_messages,
            prop_metrics.supersteps,
            prop_metrics.total_messages
        );
        BaselineAssembly {
            contigs: merged.contigs.into_iter().map(|c| c.seq.to_dna()).collect(),
            elapsed: start.elapsed(),
            notes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ppa::PpaAssembler;
    use ppa_readsim::{GenomeConfig, ReadSimConfig};

    #[test]
    fn assembles_an_error_free_genome() {
        let reference = GenomeConfig {
            length: 1_500,
            repeat_families: 0,
            seed: 2,
            ..Default::default()
        }
        .generate();
        let reads = ReadSimConfig::error_free(80, 20.0).simulate(&reference);
        let params = BaselineParams {
            k: 21,
            min_kmer_coverage: 0,
            workers: 2,
            ..Default::default()
        };
        let out = AbyssLike.assemble(&reads, &params);
        assert!(!out.contigs.is_empty());
        assert!(out.largest_contig() > 500);
        // The costs and contig count the jobs had on the sorted,
        // hash-partitioned store, before they ran on ranks.
        assert_eq!(
            out.notes,
            "probe: 2 supersteps / 11784 msgs; unitig growth: 1279 supersteps / 23767 msgs"
        );
        assert_eq!(out.contigs.len(), 1);
    }

    #[test]
    fn existence_edges_create_false_adjacency() {
        // The paper's Section-V example, scaled to k = 5: read "TTACGTG"
        // contains the 5-mer ACGTG and read "CGTGATT" contains CGTGA. They
        // overlap by k−1 = 4 bases, but the joining 6-mer "ACGTGA" occurs in
        // neither read, so PPA-assembler keeps the two loci separate while the
        // existence-based probing of ABySS links them into one contig.
        let reads: ReadSet = [("a", "TTACGTG"), ("b", "CGTGATT")].into_iter().collect();
        let params = BaselineParams {
            k: 5,
            min_kmer_coverage: 0,
            workers: 1,
            tip_length_threshold: 0,
            ..Default::default()
        };
        let abyss = AbyssLike.assemble(&reads, &params);
        let ppa = PpaAssembler::default().assemble(&reads, &params);
        assert!(
            ppa.largest_contig() <= 7,
            "PPA must not create the unsupported junction (largest = {})",
            ppa.largest_contig()
        );
        assert!(
            abyss.largest_contig() > ppa.largest_contig(),
            "ABySS-like should join the loci through the false edge ({} vs {})",
            abyss.largest_contig(),
            ppa.largest_contig()
        );
        assert_eq!(
            abyss.notes,
            "probe: 2 supersteps / 46 msgs; unitig growth: 7 supersteps / 24 msgs"
        );
        assert_eq!(abyss.contigs.len(), 1);
    }

    #[test]
    fn unitig_growth_needs_linear_supersteps() {
        let reference = GenomeConfig {
            length: 800,
            repeat_families: 0,
            seed: 4,
            ..Default::default()
        }
        .generate();
        let reads = ReadSimConfig::error_free(60, 15.0).simulate(&reference);
        let params = BaselineParams {
            k: 17,
            min_kmer_coverage: 0,
            workers: 2,
            ..Default::default()
        };
        let out = AbyssLike.assemble(&reads, &params);
        // The notes record the superstep count of the growth phase; for a
        // ~780-vertex unambiguous chain it must be far beyond the logarithmic
        // budget PPA-assembler needs (≈ 2·log₂ n ≈ 20).
        let growth_supersteps: usize = out
            .notes
            .split("unitig growth: ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        assert!(
            growth_supersteps > 40,
            "expected linear superstep count, got {growth_supersteps}"
        );
        assert_eq!(
            out.notes,
            "probe: 2 supersteps / 6224 msgs; unitig growth: 450 supersteps / 11102 msgs"
        );
        assert_eq!(out.contigs.len(), 1);
    }
}
