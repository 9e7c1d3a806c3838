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
//! The job is the generic simplified S-V PPA of the framework crate
//! ([`ppa_pregel::algorithms::sv`]), run in **rank space** like list ranking:
//! the node set is translated through the same rank dictionary (`ranks.rs`),
//! the unambiguous subgraph becomes a store of dense `u32` ranks — an
//! ambiguous vertex is left out and filtered from its neighbours' lists, a
//! neighbour ID outside the node set becomes the one-past-the-end rank, where
//! messages are dropped as they would be for the missing ID — and the
//! component representative, the smallest rank and so the smallest ID, is
//! the contig label, kept as a rank ([`LabelOutcome::labels`]). A shuffle
//! record is 8 bytes.
//! `ranks::run_on` builds the store and runs the job on the engine's dense
//! plane, resident under any `SpillPolicy` (the cap binds construct's keyed
//! pass); every phase of S-V takes a minimum over its inbox or answers each
//! message on its own, so the order messages arrive in does not matter.
//! List ranking's cycle fallback runs the same job (`sv_states`) over the
//! ranks it left unresolved.
//!
//! Like list ranking's, the job runs on the slots of minimizer-block
//! fragments (`blocks.rs`, after Blogel: Yan, Cheng, Lu and Ng, *PVLDB*
//! 2014): a component's smallest slot names its smallest vertex, and the
//! metrics count that physical job. An ambiguous vertex's slot, which takes
//! no part, is marked [`AMBIGUOUS`] before the slots' outcome is copied to
//! their fragments' ranks.

use super::blocks::Blocks;
use super::label::LabelOutcome;
use crate::node::NodeSource;
use crate::ranks::{run_on, RankDict, AMBIGUOUS};
use crate::stats::{Phase, PhaseClock};
use ppa_pregel::algorithms::{SvProgram, SvState};
use ppa_pregel::{EngineError, ExecCtx, Metrics, PregelConfig};

/// Parents that are still being hooked are not contig labels: a job its
/// superstep budget cut off is an error, not an outcome.
pub(crate) fn converged(metrics: &Metrics) -> Result<(), EngineError> {
    if metrics.converged {
        Ok(())
    } else {
        Err(EngineError::NotConverged {
            supersteps: metrics.supersteps,
        })
    }
}

/// The states of an S-V job over the ranks `takes_part` accepts, for
/// [`run_on`]: each starts as its own parent, with those of its
/// sole neighbours' ranks (`sole`; `None` for a vertex that takes no part)
/// that take part. S-V labeling and list ranking's cycle fallback both build
/// their job here.
pub(crate) fn sv_states(
    sole: impl Fn(u32) -> Option<[Option<u32>; 2]> + Sync,
    takes_part: impl Fn(u32) -> bool + Sync,
) -> impl Fn(u32, &mut Vec<u32>) -> Option<SvState> + Sync {
    move |rank, slab| {
        if !takes_part(rank) {
            return None;
        }
        let edges = sole(rank)?.into_iter().flatten().filter(|&n| takes_part(n));
        Some(SvState::push(slab, rank, edges))
    }
}

/// Labels every maximal unambiguous path with the smallest vertex ID of the
/// path, using the simplified S-V algorithm. The translation into rank space,
/// the S-V job and the copy of the fragments' labels to their ranks all run
/// on `ctx`'s persistent pool (worker count = pool size). The nodes may be in
/// any form ([`NodeSource`]); the outcome depends neither on which nor on the
/// worker count.
///
/// # Panics
///
/// Panics if the nodes are not listed in strictly ascending ID order.
///
/// # Errors
///
/// A job that has not converged within its superstep budget raises
/// [`EngineError::NotConverged`] as a typed panic payload on the calling
/// thread, as a cancelled job raises [`EngineError::Cancelled`]; a
/// [`Pipeline`](crate::pipeline::Pipeline) reports it as
/// [`PipelineError::NotConverged`](crate::pipeline::PipelineError::NotConverged).
pub fn label_contigs_sv_on<S: NodeSource + ?Sized>(ctx: &ExecCtx, nodes: &S) -> LabelOutcome {
    let mut clock = PhaseClock::start();
    let config = PregelConfig::default().max_supersteps(4_000);
    let dict = RankDict::new(nodes.ids());
    let blocks = Blocks::build_on(ctx, nodes, &dict, &mut clock);

    // The fragments' slots: ambiguous vertices take no part and are filtered
    // from the neighbour lists; an ID outside the node set stays, as the
    // absent slot.
    let state_of = sv_states(|slot| blocks.sides(slot), |slot| !blocks.is_ambiguous(slot));
    let (_, metrics, mut outcome) = run_on(
        ctx,
        &config,
        blocks.len(),
        state_of,
        SvProgram::new,
        |state: &SvState| blocks.rank(state.parent()),
    );
    if let Err(e) = converged(&metrics) {
        std::panic::panic_any(e);
    }

    for (slot, label) in (0..).zip(outcome.iter_mut()) {
        if blocks.is_ambiguous(slot) {
            *label = AMBIGUOUS;
        }
    }
    clock.lap(Phase::Job);
    let labels = blocks.spread_on(ctx, &outcome);
    clock.lap(Phase::Spread);
    LabelOutcome {
        labels,
        metrics,
        used_cycle_fallback: false,
        phases: clock.times(),
    }
}

#[cfg(test)]
mod tests {
    use super::super::label::label_contigs_lr_on;
    use super::super::label::tests::{
        groups_sorted, labelled, nodes_from_reads, unambiguous_component_oracle,
    };
    use super::*;
    use crate::node::AsmNode;
    use std::borrow::Cow;

    #[test]
    fn sv_matches_oracle_on_simple_path() {
        let nodes = nodes_from_reads(&["CTGCCGT", "CCGTACA"], 4);
        let outcome = label_contigs_sv_on(&ExecCtx::new(2), &nodes);
        assert_eq!(
            groups_sorted(&nodes, &outcome),
            unambiguous_component_oracle(&nodes)
        );
        assert!(outcome.metrics.converged);
        // S-V labels with the smallest vertex ID of the component.
        let min_id = nodes.iter().map(|n| n.id).min().unwrap();
        assert!(labelled(&nodes, &outcome).iter().all(|(_, l)| *l == min_id));
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
            let lr = label_contigs_lr_on(&ExecCtx::new(2), &nodes);
            let sv = label_contigs_sv_on(&ExecCtx::new(2), &nodes);
            assert_eq!(
                groups_sorted(&nodes, &lr),
                groups_sorted(&nodes, &sv),
                "LR and S-V must group vertices identically for {seqs:?}"
            );
            assert!(lr.ambiguous().eq(sv.ambiguous()));
        }
    }

    #[test]
    fn sv_handles_cycles_without_fallback() {
        // S-V needs no special casing for cycles, unlike list ranking.
        let nodes = nodes_from_reads(&["CTGCCGT", "CCGTACA"], 4);
        let outcome = label_contigs_sv_on(&ExecCtx::new(2), &nodes);
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
        let lr = label_contigs_lr_on(&ExecCtx::new(2), &nodes);
        let sv = label_contigs_sv_on(&ExecCtx::new(2), &nodes);
        assert!(!lr.used_cycle_fallback);
        assert_eq!(groups_sorted(&nodes, &lr), groups_sorted(&nodes, &sv));
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
    fn a_job_cut_off_by_its_superstep_budget_is_loud() {
        // Seven vertices in a row need more than one round of hooking; six
        // supersteps stop the program in the middle of its second round.
        let ids: Vec<u64> = (0..7).collect();
        let dict = RankDict::new(Cow::Borrowed(&ids));
        let run = |n: u32, supersteps| {
            let path =
                move |rank: u32| Some([rank.checked_sub(1), (rank + 1 < n).then_some(rank + 1)]);
            let config = PregelConfig::default().max_supersteps(supersteps);
            let (_, metrics, _) = run_on(
                &ExecCtx::new(2),
                &config,
                dict.len(),
                sv_states(path, |rank| rank < n),
                SvProgram::new,
                SvState::parent,
            );
            metrics
        };
        assert!(matches!(
            converged(&run(7, 6)),
            Err(EngineError::NotConverged { supersteps: 6 })
        ));
        assert_eq!(converged(&run(1, 6)), Ok(()));
    }

    #[test]
    fn sv_empty_input() {
        let outcome = label_contigs_sv_on::<[AsmNode]>(&ExecCtx::new(2), &[]);
        assert!(outcome.labels.is_empty());
    }
}
