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

use crate::aggregate::NoAggregate;
use crate::config::PregelConfig;
use crate::engine::ExecCtx;
use crate::metrics::Metrics;
use crate::radix::SortKey;
use crate::runner::run_on;
use crate::vertex::{Context, VertexKey, VertexProgram};
use crate::vertex_set::VertexSet;

/// One element of a linked list to be ranked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListItem<I> {
    /// Element identifier.
    pub id: I,
    /// The predecessor element, or `None` if this element is the list head.
    pub pred: Option<I>,
    /// The element's own value.
    pub value: u64,
}

#[derive(Debug, Clone)]
struct RankState<I> {
    pred: Option<I>,
    sum: u64,
}

#[derive(Debug, Clone)]
enum RankMsg<I> {
    /// "Send me your sum and predecessor" — carries the requester's ID.
    Request(I),
    /// The predecessor's reply: its sum and its own predecessor.
    Response { sum: u64, pred: Option<I> },
}

struct ListRankingProgram<I>(std::marker::PhantomData<I>);

impl<I: VertexKey + SortKey> VertexProgram for ListRankingProgram<I> {
    type Id = I;
    type Value = RankState<I>;
    type Message = RankMsg<I>;
    type Aggregate = NoAggregate;

    fn compute(
        &self,
        ctx: &mut Context<'_, Self>,
        id: I,
        value: &mut RankState<I>,
        messages: &mut [RankMsg<I>],
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
                Some(p) => ctx.send_message(p, RankMsg::Request(id)),
                None => ctx.vote_to_halt(),
            }
        } else {
            ctx.vote_to_halt();
        }
    }
}

/// Runs list ranking over the given elements on `ctx`'s workers and returns
/// `(id, sum)` pairs (in unspecified order) together with the job metrics.
pub fn list_ranking<I: VertexKey + SortKey>(
    ctx: &ExecCtx,
    items: Vec<ListItem<I>>,
    config: &PregelConfig,
) -> (Vec<(I, u64)>, Metrics) {
    let program = ListRankingProgram::<I>(std::marker::PhantomData);
    let pairs = items.into_iter().map(|item| {
        (
            item.id,
            RankState {
                pred: item.pred,
                sum: item.value,
            },
        )
    });
    let mut set = VertexSet::from_pairs(ctx.workers(), pairs);
    let metrics = run_on(ctx, &program, config, &mut set);
    let out = set
        .into_pairs()
        .into_iter()
        .map(|(id, st)| (id, st.sum))
        .collect();
    (out, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn config() -> PregelConfig {
        PregelConfig::default().max_supersteps(200)
    }

    /// Brute-force oracle: follow predecessor pointers to the head.
    fn oracle<I: VertexKey + SortKey>(items: &[ListItem<I>]) -> HashMap<I, u64> {
        let by_id: HashMap<I, &ListItem<I>> = items.iter().map(|i| (i.id, i)).collect();
        items
            .iter()
            .map(|item| {
                let mut sum = item.value;
                let mut cur = item.pred;
                while let Some(p) = cur {
                    let pi = by_id[&p];
                    sum += pi.value;
                    cur = pi.pred;
                }
                (item.id, sum)
            })
            .collect()
    }

    #[test]
    fn paper_figure1_example() {
        // Five vertices v1..v5 in a chain, all values 1 → sums 1..5.
        let items: Vec<ListItem<u64>> = (1..=5)
            .map(|i| ListItem {
                id: i,
                pred: if i == 1 { None } else { Some(i - 1) },
                value: 1,
            })
            .collect();
        let (result, metrics) = list_ranking(&ExecCtx::new(4), items, &config());
        let result: HashMap<u64, u64> = result.into_iter().collect();
        for i in 1..=5u64 {
            assert_eq!(result[&i], i);
        }
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
        let n = 4096u64;
        let items: Vec<ListItem<u64>> = (0..n)
            .map(|i| ListItem {
                id: i,
                pred: if i == 0 { None } else { Some(i - 1) },
                value: 1,
            })
            .collect();
        let (result, metrics) = list_ranking(&ExecCtx::new(4), items, &config());
        let result: HashMap<u64, u64> = result.into_iter().collect();
        assert_eq!(result[&(n - 1)], n);
        assert_eq!(result[&0], 1);
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
        let mut items = vec![ListItem {
            id: 100u64,
            pred: None,
            value: 7,
        }];
        items.extend((0..10).map(|i| ListItem {
            id: i,
            pred: if i == 0 { None } else { Some(i - 1) },
            value: 2,
        }));
        items.extend((200..205).map(|i| ListItem {
            id: i,
            pred: if i == 200 { None } else { Some(i - 1) },
            value: i,
        }));
        let expected = oracle(&items);
        let (result, metrics) = list_ranking(&ExecCtx::new(4), items, &config());
        for (id, sum) in result {
            assert_eq!(sum, expected[&id], "vertex {id}");
        }
        assert!(metrics.converged);
    }

    #[test]
    fn random_values_match_oracle() {
        let n = 257u64;
        let items: Vec<ListItem<u64>> = (0..n)
            .map(|i| ListItem {
                id: i * 13 + 5, // non-contiguous IDs
                pred: if i == 0 { None } else { Some((i - 1) * 13 + 5) },
                value: (i * 7919) % 101,
            })
            .collect();
        let expected = oracle(&items);
        let (result, _metrics) = list_ranking(&ExecCtx::new(4), items, &config());
        for (id, sum) in result {
            assert_eq!(sum, expected[&id]);
        }
    }

    #[test]
    fn cycle_is_detected_as_non_convergence() {
        // A 4-cycle has no head; the job must stop at the cap and say so.
        let items: Vec<ListItem<u64>> = (0..4)
            .map(|i| ListItem {
                id: i,
                pred: Some((i + 3) % 4),
                value: 1,
            })
            .collect();
        let cfg = PregelConfig::default().max_supersteps(40);
        let (_, metrics) = list_ranking(&ExecCtx::new(2), items, &cfg);
        assert!(!metrics.converged);
    }

    #[test]
    fn empty_input() {
        let (out, metrics) = list_ranking(&ExecCtx::new(4), Vec::<ListItem<u64>>::new(), &config());
        assert!(out.is_empty());
        assert!(metrics.converged);
    }
}
