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

use crate::common::{count_canonical_kmers_on, kmer_of};
use crate::{Assembler, BaselineAssembly, BaselineParams};
use ppa_assembler::ops::merge::{merge_contigs_on, MergeConfig};
use ppa_assembler::{edge_contributions, AsmNode, Edge, EdgeSlot, NodeSeq, VertexType};
use ppa_pregel::aggregate::NoAggregate;
use ppa_pregel::{Context, ExecCtx, PregelConfig, VertexProgram, VertexSet};
use ppa_seq::{Base, ReadSet};
use std::collections::HashSet;
use std::time::Instant;

/// The ABySS-like baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct AbyssLike;

// ---------------------------------------------------------------------------
// Phase 1: existence-based edge probing.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct ProbeState {
    node: AsmNode,
    count: u32,
}

#[derive(Debug, Clone)]
struct Probe {
    /// Adjacency slot bit from the *receiver's* perspective.
    slot_bit: u8,
    sender_count: u32,
}

struct ProbeProgram;

impl VertexProgram for ProbeProgram {
    type Id = u64;
    type Value = ProbeState;
    type Message = Probe;
    type Aggregate = NoAggregate;

    fn compute(
        &self,
        ctx: &mut Context<'_, Self>,
        id: u64,
        value: &mut ProbeState,
        messages: &mut [Probe],
    ) {
        let own = match &value.node.seq {
            NodeSeq::Kmer(k) => *k,
            NodeSeq::Contig(_) => unreachable!("probe vertices are k-mers"),
        };
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
                        other,
                        Probe {
                            slot_bit: other_slot.bit() as u8,
                            sender_count: value.count,
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
                value.node.push_edge(Edge {
                    neighbor: neighbor.packed(),
                    direction: slot.direction,
                    polarity: slot.polarity,
                    coverage: value.count.min(probe.sender_count),
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
    neighbors: Vec<u64>,
    label: u64,
}

struct PropProgram;

impl VertexProgram for PropProgram {
    type Id = u64;
    type Value = PropState;
    type Message = u64;
    type Aggregate = NoAggregate;

    fn compute(
        &self,
        ctx: &mut Context<'_, Self>,
        _id: u64,
        value: &mut PropState,
        messages: &mut [u64],
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

        // Probe phase: existence-based edges.
        let config = PregelConfig::default().max_supersteps(2_000_000);
        let probe_pairs = counts.iter().map(|&(packed, count)| {
            (
                packed,
                ProbeState {
                    node: AsmNode::new_kmer(kmer_of(packed, k)),
                    count,
                },
            )
        });
        let mut probe_set: VertexSet<u64, ProbeState> =
            VertexSet::from_pairs(ctx.workers(), probe_pairs);
        let probe_metrics = ppa_pregel::run_on(&ctx, &ProbeProgram, &config, &mut probe_set);

        let mut nodes: Vec<AsmNode> = probe_set
            .into_pairs()
            .into_iter()
            .map(|(_, s)| s.node)
            .collect();
        // Merging takes its nodes in ID order; the store lists them by partition.
        nodes.sort_unstable_by_key(|node| node.id);

        // Unitig formation: one-hop-per-superstep label propagation.
        let prop_pairs = nodes.iter().map(|n| {
            (
                n.id,
                PropState {
                    unambiguous: n.vertex_type() != VertexType::Branch,
                    neighbors: n.neighbor_ids(),
                    label: n.id,
                },
            )
        });
        let mut prop_set: VertexSet<u64, PropState> =
            VertexSet::from_pairs(ctx.workers(), prop_pairs);
        let prop_metrics = ppa_pregel::run_on(&ctx, &PropProgram, &config, &mut prop_set);

        let labels: Vec<(u64, u64)> = prop_set
            .into_pairs()
            .into_iter()
            .filter(|(_, s)| s.unambiguous)
            .map(|(id, s)| (id, s.label))
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
        assert!(out.notes.contains("unitig growth"));
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
    }
}
