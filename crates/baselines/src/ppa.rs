//! PPA-assembler behind the common [`Assembler`] trait.

use crate::{Assembler, BaselineAssembly, BaselineParams};
use ppa_assembler::pipeline::{GraphState, Pipeline};
use ppa_assembler::stats::WorkflowStats;
use ppa_assembler::{AssemblyConfig, LabelingAlgorithm};
use ppa_seq::ReadSet;
use std::time::Instant;

/// The toolkit of this repository, run with its standard evaluation workflow
/// (①②③④⑤⑥②③ — one error-correction round followed by contig re-growth).
#[derive(Debug, Clone, Default)]
pub struct PpaAssembler {
    /// Use the simplified S-V algorithm for contig labeling instead of
    /// bidirectional list ranking.
    pub use_sv_labeling: bool,
}

impl Assembler for PpaAssembler {
    fn name(&self) -> &'static str {
        "PPA-assembler"
    }

    fn assemble(&self, reads: &ReadSet, params: &BaselineParams) -> BaselineAssembly {
        let start = Instant::now();
        let config = AssemblyConfig {
            k: params.k,
            min_kmer_coverage: params.min_kmer_coverage,
            tip_length_threshold: params.tip_length_threshold,
            bubble_edit_distance: params.bubble_edit_distance,
            workers: params.workers,
            labeling: if self.use_sv_labeling {
                LabelingAlgorithm::SimplifiedSV
            } else {
                LabelingAlgorithm::ListRanking
            },
            error_correction_rounds: 1,
            min_contig_length: 0,
            spill: ppa_pregel::SpillPolicy::Off,
            exec: None,
        };
        // The paper-workflow pipeline driven directly, with the stats
        // observer attached — the same stages `workflow::assemble` runs, on
        // one persistent pool per run so the comparison harnesses measure the
        // same engine configuration.
        let ctx = ppa_pregel::ExecCtx::new(params.workers);
        let mut stats = WorkflowStats::default();
        let mut state = GraphState::new(reads);
        Pipeline::paper_workflow(&config)
            .observe(&mut stats)
            .try_run(&mut state, &ctx)
            .unwrap_or_else(|e| panic!("{e}"));
        let notes = format!(
            "label r1: {} supersteps / {} msgs; label r2: {} supersteps / {} msgs; N50 {} -> {}",
            stats.label_round1.supersteps,
            stats.label_round1.messages,
            stats
                .label_round2
                .first()
                .map(|l| l.supersteps)
                .unwrap_or(0),
            stats.label_round2.first().map(|l| l.messages).unwrap_or(0),
            stats.n50_after_round1,
            stats.n50_final,
        );
        BaselineAssembly {
            contigs: state.output.into_iter().map(|c| c.sequence).collect(),
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
    fn ppa_wrapper_assembles_a_small_genome() {
        let reference = GenomeConfig {
            length: 2_000,
            repeat_families: 0,
            seed: 9,
            ..Default::default()
        }
        .generate();
        let reads = ReadSimConfig::error_free(100, 20.0).simulate(&reference);
        let params = BaselineParams {
            k: 21,
            min_kmer_coverage: 0,
            workers: 2,
            ..Default::default()
        };
        let out = PpaAssembler::default().assemble(&reads, &params);
        assert!(!out.contigs.is_empty());
        assert!(out.largest_contig() >= reference.len() - 200);
        assert!(out.notes.contains("supersteps"));
    }
}
