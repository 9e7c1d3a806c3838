//! The BPPA for list ranking (Section II, Figure 1 of the paper).
//!
//! Given a collection of linked lists where each element `v` stores a value
//! `val(v)` and a predecessor pointer `pred(v)` (`None` at the head), list
//! ranking computes `sum(v)`: the sum of the values from `v` back to the head
//! of its list. The algorithm doubles the distance covered by each
//! predecessor pointer every round, so it finishes in `O(log ℓ)` rounds where
//! `ℓ` is the longest list; each round costs two supersteps (a request and a
//! response), which is why the paper prefers list ranking over S-V for contig
//! labeling.
//!
//! The input **must not contain cycles**; lists with cycles never reach a
//! head. (The assembler's bidirectional variant detects this situation with an
//! aggregator and falls back to S-V; the generic function here simply stops at
//! the superstep cap and reports non-convergence.)
//!
//! Elements are named by rank, their position in the input, and the job runs
//! over a [`DenseSet`] of those ranks.

use crate::aggregate::NoAggregate;
use crate::config::PregelConfig;
use crate::dense::{run_dense_on, DenseSet};
use crate::engine::ExecCtx;
use crate::metrics::Metrics;
use crate::vertex::{Context, VertexProgram};

/// One element of a linked list to be ranked. The element's rank is its
/// position in the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListItem {
    /// The rank of the predecessor element, or `None` if this element is
    /// the list head.
    pub pred: Option<u32>,
    /// The element's own value.
    pub value: u64,
}

#[derive(Debug, Clone)]
struct RankState {
    pred: Option<u32>,
    sum: u64,
}

#[derive(Debug, Clone)]
enum RankMsg {
    /// "Send me your sum and predecessor" — carries the requester's rank.
    Request(u32),
    /// The predecessor's reply: its sum and its own predecessor.
    Response { sum: u64, pred: Option<u32> },
}

struct ListRankingProgram;

impl VertexProgram for ListRankingProgram {
    type Value = RankState;
    type Message = RankMsg;
    type Aggregate = NoAggregate;

    fn compute(
        &self,
        ctx: &mut Context<'_, Self>,
        rank: u32,
        value: &mut RankState,
        messages: &mut [RankMsg],
    ) {
        // Responses are produced in odd supersteps and consumed in even ones;
        // requests are produced in even supersteps and consumed in odd ones.
        // Updates therefore always read a consistent snapshot of the previous
        // round, which is what makes simultaneous pointer jumping correct.
        // Apply the (at most one) response first so that requesters are
        // answered from the updated snapshot.
        for msg in messages.iter() {
            if let RankMsg::Response { sum, pred } = msg {
                value.sum += *sum;
                value.pred = *pred;
            }
        }
        for msg in messages.iter() {
            if let RankMsg::Request(from) = msg {
                ctx.send_message(
                    *from,
                    RankMsg::Response {
                        sum: value.sum,
                        pred: value.pred,
                    },
                );
            }
        }
        if ctx.superstep().is_multiple_of(2) {
            match value.pred {
                Some(p) => ctx.send_message(p, RankMsg::Request(rank)),
                None => ctx.vote_to_halt(),
            }
        } else {
            ctx.vote_to_halt();
        }
    }
}

/// Runs list ranking over `items` on `ctx`'s workers and returns every
/// element's sum, indexed by rank, together with the job metrics.
///
/// # Panics
///
/// Panics if there are more than `u32::MAX` items.
pub fn list_ranking(
    ctx: &ExecCtx,
    items: &[ListItem],
    config: &PregelConfig,
) -> (Vec<u64>, Metrics) {
    let ranks = u32::try_from(items.len()).expect("list ranking ranks fit u32");
    let (mut set, _) = DenseSet::from_fn_on(ctx, ranks, |rank, _: &mut ()| {
        let item = &items[rank as usize];
        Some(RankState {
            pred: item.pred,
            sum: item.value,
        })
    });
    let metrics = run_dense_on(ctx, &ListRankingProgram, config, &mut set);
    let mut sums = vec![0; items.len()];
    set.read_on(ctx, &mut sums, |state| state.sum);
    (sums, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> PregelConfig {
        PregelConfig::default().max_supersteps(200)
    }

    /// Brute-force oracle: follow predecessor pointers to the head.
    fn oracle(items: &[ListItem]) -> Vec<u64> {
        items
            .iter()
            .map(|item| {
                let mut sum = item.value;
                let mut cur = item.pred;
                while let Some(p) = cur {
                    sum += items[p as usize].value;
                    cur = items[p as usize].pred;
                }
                sum
            })
            .collect()
    }

    /// A chain over `ranks`, head first, every element worth `value`.
    fn chain(ranks: std::ops::Range<u32>, value: u64) -> impl Iterator<Item = ListItem> {
        let head = ranks.start;
        ranks.map(move |r| ListItem {
            pred: (r > head).then(|| r - 1),
            value,
        })
    }

    #[test]
    fn paper_figure1_example() {
        // Five vertices v1..v5 in a chain, all values 1 → sums 1..5.
        let items: Vec<ListItem> = chain(0..5, 1).collect();
        let (sums, metrics) = list_ranking(&ExecCtx::new(4), &items, &config());
        assert_eq!(sums, [1, 2, 3, 4, 5]);
        assert!(metrics.converged);
        // log2(5) ≈ 2.3 → 3 doubling rounds of 2 supersteps, plus slack.
        assert!(
            metrics.supersteps <= 10,
            "supersteps = {}",
            metrics.supersteps
        );
    }

    #[test]
    fn long_chain_uses_logarithmic_supersteps() {
        let n = 4096u32;
        let items: Vec<ListItem> = chain(0..n, 1).collect();
        let (sums, metrics) = list_ranking(&ExecCtx::new(4), &items, &config());
        assert_eq!(sums[n as usize - 1], n as u64);
        assert_eq!(sums[0], 1);
        assert!(metrics.converged);
        // 2 supersteps per doubling round, log2(4096) = 12 rounds, plus slack.
        assert!(
            metrics.supersteps <= 2 * 12 + 6,
            "expected O(log n) supersteps, got {}",
            metrics.supersteps
        );
    }

    #[test]
    fn multiple_lists_and_singletons() {
        // Two separate chains and an isolated head.
        let mut items: Vec<ListItem> = chain(0..10, 2).collect();
        items.push(ListItem {
            pred: None,
            value: 7,
        });
        items.extend((11..16).map(|r| ListItem {
            pred: (r > 11).then(|| r - 1),
            value: r as u64 + 189,
        }));
        let (sums, metrics) = list_ranking(&ExecCtx::new(4), &items, &config());
        assert_eq!(sums, oracle(&items));
        assert!(metrics.converged);
    }

    #[test]
    fn random_values_match_oracle() {
        // The i-th element of one list sits at rank i · 13 + 5 (mod 257), so
        // predecessors point across the rank space and across workers.
        let n = 257u32;
        let at = |i: u32| (i * 13 + 5) % n;
        let mut items = vec![
            ListItem {
                pred: None,
                value: 0
            };
            n as usize
        ];
        for i in 0..n {
            items[at(i) as usize] = ListItem {
                pred: (i > 0).then(|| at(i - 1)),
                value: (i as u64 * 7919) % 101,
            };
        }
        let (sums, _metrics) = list_ranking(&ExecCtx::new(4), &items, &config());
        assert_eq!(sums, oracle(&items));
    }

    #[test]
    fn cycle_is_detected_as_non_convergence() {
        // A 4-cycle has no head; the job must stop at the cap and say so.
        let items: Vec<ListItem> = (0..4)
            .map(|r| ListItem {
                pred: Some((r + 3) % 4),
                value: 1,
            })
            .collect();
        let cfg = PregelConfig::default().max_supersteps(40);
        let (_, metrics) = list_ranking(&ExecCtx::new(2), &items, &cfg);
        assert!(!metrics.converged);
    }

    #[test]
    fn empty_input() {
        let (out, metrics) = list_ranking(&ExecCtx::new(4), &[], &config());
        assert!(out.is_empty());
        assert!(metrics.converged);
    }
}
