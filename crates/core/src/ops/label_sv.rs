//! Operation ② (alternative) — contig labeling via the **simplified S-V**
//! connected-components algorithm.
//!
//! The paper offers two interchangeable ways to label maximal unambiguous
//! paths: bidirectional list ranking (see [`super::label`]) and running the
//! simplified Shiloach–Vishkin algorithm over the subgraph induced by the
//! unambiguous vertices, so that every vertex is labelled with the smallest
//! vertex ID of its path (Section IV-B). Both produce the same grouping; the
//! paper's Tables II and III compare their superstep/message/runtime costs,
//! which is why this variant exists as a separately measurable operation.
//!
//! The implementation reuses the generic [`connected_components`] PPA from the
//! framework crate: after the same superstep-0-style identification of
//! ambiguous vertices, the unambiguous subgraph is handed to S-V and the
//! resulting component representative becomes the contig label.

use super::label::LabelOutcome;
use crate::node::{AsmNode, VertexType};
use ppa_pregel::algorithms::connected_components;
use ppa_pregel::fxhash::FxHashSet;
use ppa_pregel::{ExecCtx, PregelConfig};

/// Labels every maximal unambiguous path with the smallest vertex ID of the
/// path, using the simplified S-V algorithm. (Private worker pool; inside a
/// workflow, prefer [`label_contigs_sv_on`].)
pub fn label_contigs_sv(nodes: &[AsmNode], workers: usize) -> LabelOutcome {
    label_contigs_sv_on(&ExecCtx::new(workers), nodes)
}

/// [`label_contigs_sv`] on a caller-provided execution context: the S-V job
/// runs on the context's persistent pool (worker count = pool size).
pub fn label_contigs_sv_on(ctx: &ExecCtx, nodes: &[AsmNode]) -> LabelOutcome {
    let config = PregelConfig::with_workers(ctx.workers())
        .max_supersteps(4_000)
        .exec_ctx(ctx.clone());

    let ambiguous: Vec<u64> = nodes
        .iter()
        .filter(|n| n.vertex_type() == VertexType::Branch)
        .map(|n| n.id)
        .collect();
    let ambiguous_set: FxHashSet<u64> = ambiguous.iter().copied().collect();

    let adjacency: Vec<(u64, Vec<u64>)> = nodes
        .iter()
        .filter(|n| !ambiguous_set.contains(&n.id))
        .map(|n| {
            let nbrs: Vec<u64> = n
                .real_edges()
                .map(|e| e.neighbor)
                .filter(|id| !ambiguous_set.contains(id))
                .collect();
            (n.id, nbrs)
        })
        .collect();

    let (labels, metrics) = connected_components(adjacency, &config);
    LabelOutcome {
        labels,
        ambiguous,
        metrics,
        used_cycle_fallback: false,
    }
}

#[cfg(test)]
mod tests {
    use super::super::label::label_contigs_lr;
    use super::super::label::tests::{
        groups_sorted, nodes_from_reads, unambiguous_component_oracle,
    };
    use super::*;

    #[test]
    fn sv_matches_oracle_on_simple_path() {
        let nodes = nodes_from_reads(&["CTGCCGT", "CCGTACA"], 4);
        let outcome = label_contigs_sv(&nodes, 2);
        assert_eq!(
            groups_sorted(&outcome),
            unambiguous_component_oracle(&nodes)
        );
        assert!(outcome.metrics.converged);
        // S-V labels with the smallest vertex ID of the component.
        let min_id = nodes.iter().map(|n| n.id).min().unwrap();
        assert!(outcome.labels.iter().all(|(_, l)| *l == min_id));
    }

    #[test]
    fn sv_and_lr_produce_identical_groupings() {
        let inputs: Vec<Vec<&str>> = vec![
            vec!["CTGCCGT", "CCGTACA"],
            vec!["TTACTTGATCCG", "TTACTTGAACGG"],
            vec!["ACCTGACCGTTAGCAT", "TTAGCATCCGGATACC", "GGATACCACCTGACC"],
        ];
        for seqs in inputs {
            let nodes = nodes_from_reads(&seqs, 5);
            let lr = label_contigs_lr(&nodes, 2);
            let sv = label_contigs_sv(&nodes, 2);
            assert_eq!(
                groups_sorted(&lr),
                groups_sorted(&sv),
                "LR and S-V must group vertices identically for {seqs:?}"
            );
            let mut lr_amb = lr.ambiguous.clone();
            let mut sv_amb = sv.ambiguous.clone();
            lr_amb.sort_unstable();
            sv_amb.sort_unstable();
            assert_eq!(lr_amb, sv_amb);
        }
    }

    #[test]
    fn sv_handles_cycles_without_fallback() {
        // S-V needs no special casing for cycles, unlike list ranking.
        let nodes = nodes_from_reads(&["CTGCCGT", "CCGTACA"], 4);
        let outcome = label_contigs_sv(&nodes, 2);
        assert!(!outcome.used_cycle_fallback);
    }

    #[test]
    fn sv_costs_more_supersteps_than_lr_on_long_paths() {
        // The motivation for preferring list ranking (Tables II/III): a round
        // of S-V needs more supersteps than a round of list ranking, and it
        // sends messages along every edge every round. Use a repeat-free
        // 300 bp sequence so the whole graph is one long unambiguous path.
        let genome = "CTTGCTAGTCATTATTAGTACGAAGGGTTGTGCTCCGATAGTTGAAAATGTGGTGTTATGCTCACGGCGTGGTGTGTCTTTAACCCCAAGCTATCAATACTGAATAGGCTACATATGTTATACTCCGTGTCGTAAGGATGACGGCTCCGCTACTGGTGGTCTGTCGCCTCAGCCGTTGACCGCAACACCGTGAAGCACGGGTAAGGCAGCAGAAAGGCGAGAACTGCAGGAGAGCGTATTTGCGCAACCCTGAGGGTCTAGAGAGTCCACCTGGGCCTTTACGGAACTATATTGGTTTAA";
        let mut seqs: Vec<String> = Vec::new();
        let window = 20;
        for start in (0..genome.len() - window).step_by(5) {
            seqs.push(genome[start..start + window].to_string());
        }
        seqs.push(genome[genome.len() - window..].to_string());
        let refs: Vec<&str> = seqs.iter().map(|s| s.as_str()).collect();
        let nodes = nodes_from_reads(&refs, 9);
        assert!(
            nodes
                .iter()
                .all(|n| n.vertex_type() != crate::node::VertexType::Branch),
            "the repeat-free genome must not create ambiguous vertices"
        );
        let lr = label_contigs_lr(&nodes, 2);
        let sv = label_contigs_sv(&nodes, 2);
        assert!(!lr.used_cycle_fallback);
        assert_eq!(groups_sorted(&lr), groups_sorted(&sv));
        assert!(
            sv.metrics.supersteps > lr.metrics.supersteps,
            "S-V ({}) should need more supersteps than LR ({})",
            sv.metrics.supersteps,
            lr.metrics.supersteps
        );
        assert!(
            sv.metrics.total_messages > lr.metrics.total_messages,
            "S-V ({}) should send more messages than LR ({})",
            sv.metrics.total_messages,
            lr.metrics.total_messages
        );
    }

    #[test]
    fn sv_empty_input() {
        let outcome = label_contigs_sv(&[], 2);
        assert!(outcome.labels.is_empty());
        assert!(outcome.ambiguous.is_empty());
    }
}
