//! Using the Pregel substrate on its own: the framework that powers
//! PPA-assembler is a general vertex-centric engine, demonstrated here with a
//! hand-written single-source shortest-path program plus the two bundled PPAs
//! (list ranking and simplified S-V connected components). All three jobs
//! share one persistent [`ExecCtx`] worker pool — threads are spawned once,
//! every superstep of every job is dispatched to the same parked workers, and
//! the shuffle planes stay warm between jobs.
//!
//! Run with: `cargo run -p ppa-examples --release --bin pregel_toolkit`

use ppa_pregel::aggregate::NoAggregate;
use ppa_pregel::algorithms::{connected_components, list_ranking, ListItem};
use ppa_pregel::{run_on, Context, ExecCtx, PregelConfig, VertexProgram, VertexSet};

/// Classic Pregel example: single-source shortest paths on an unweighted graph.
struct ShortestPaths {
    source: u64,
}

#[derive(Clone, Debug)]
struct SpState {
    neighbors: Vec<u64>,
    distance: u64,
}

impl VertexProgram for ShortestPaths {
    type Id = u64;
    type Value = SpState;
    type Message = u64;
    type Aggregate = NoAggregate;
    const USE_COMBINER: bool = true;

    fn compute(
        &self,
        ctx: &mut Context<'_, Self>,
        id: u64,
        value: &mut SpState,
        messages: &mut [u64],
    ) {
        let incoming = messages.iter().min().copied().unwrap_or(u64::MAX);
        let candidate = if ctx.superstep() == 0 && id == self.source {
            0
        } else {
            incoming
        };
        if candidate < value.distance {
            value.distance = candidate;
            for i in 0..value.neighbors.len() {
                let n = value.neighbors[i];
                ctx.send_message(n, candidate + 1);
            }
        }
        ctx.vote_to_halt();
    }

    fn combine(&self, acc: &mut u64, incoming: u64) {
        *acc = (*acc).min(incoming);
    }
}

fn main() {
    // One long-lived pool for every job in this program: each job is handed
    // the same context, so all three share its threads.
    let ctx = ExecCtx::new(4);
    let config = PregelConfig::default();

    // A 6×6 grid graph.
    let side = 6u64;
    let vertex = |r: u64, c: u64| r * side + c;
    let pairs = (0..side).flat_map(|r| {
        (0..side).map(move |c| {
            let mut neighbors = Vec::new();
            if r > 0 {
                neighbors.push(vertex(r - 1, c));
            }
            if r + 1 < side {
                neighbors.push(vertex(r + 1, c));
            }
            if c > 0 {
                neighbors.push(vertex(r, c - 1));
            }
            if c + 1 < side {
                neighbors.push(vertex(r, c + 1));
            }
            (
                vertex(r, c),
                SpState {
                    neighbors,
                    distance: u64::MAX,
                },
            )
        })
    });
    let mut result = VertexSet::from_pairs(ctx.workers(), pairs);
    let metrics = run_on(&ctx, &ShortestPaths { source: 0 }, &config, &mut result);
    let corner = result.get(&vertex(side - 1, side - 1)).unwrap().distance;
    println!(
        "shortest paths on a {side}×{side} grid: distance to the far corner = {corner} \
         ({} supersteps, {} messages)",
        metrics.supersteps, metrics.total_messages
    );

    // The BPPA for list ranking (Section II of the paper).
    let items: Vec<ListItem<u64>> = (0..1_000)
        .map(|i| ListItem {
            id: i,
            pred: if i == 0 { None } else { Some(i - 1) },
            value: 1,
        })
        .collect();
    let (ranks, metrics) = list_ranking(&ctx, items, &config);
    let max_rank = ranks.iter().map(|(_, r)| *r).max().unwrap();
    println!(
        "list ranking of a 1000-element list: max prefix sum = {max_rank} \
         ({} supersteps — logarithmic, not linear)",
        metrics.supersteps
    );

    // The simplified S-V connected components (Section II of the paper).
    let mut adjacency: Vec<(u64, Vec<u64>)> = Vec::new();
    for comp in 0..4u64 {
        let base = comp * 100;
        for i in 0..50u64 {
            let id = base + i;
            let mut nbrs = Vec::new();
            if i > 0 {
                nbrs.push(id - 1);
            }
            if i + 1 < 50 {
                nbrs.push(id + 1);
            }
            adjacency.push((id, nbrs));
        }
    }
    let (components, metrics) = connected_components(&ctx, adjacency, &config);
    let distinct: std::collections::HashSet<u64> = components.iter().map(|(_, c)| *c).collect();
    println!(
        "simplified S-V over 4 disjoint chains: {} components found ({} supersteps, {} messages)",
        distinct.len(),
        metrics.supersteps,
        metrics.total_messages
    );
    println!(
        "all three jobs ran on one {}-thread pool ({:.1} ms of worker busy time)",
        ctx.workers(),
        ctx.pool().busy_nanos() as f64 / 1e6
    );
}
