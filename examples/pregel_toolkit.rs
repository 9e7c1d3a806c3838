//! Using the Pregel substrate on its own: the framework that powers
//! PPA-assembler is a general vertex-centric engine, demonstrated here with a
//! hand-written single-source shortest-path program plus the two bundled PPAs
//! (list ranking and simplified S-V connected components). All three jobs
//! run over dense ranks and share one persistent [`ExecCtx`] worker pool —
//! threads are spawned once, and every superstep of every job is dispatched
//! to the same parked workers.
//!
//! Run with: `cargo run -p ppa-examples --release --bin pregel_toolkit`

use ppa_pregel::aggregate::NoAggregate;
use ppa_pregel::algorithms::{connected_components, list_ranking, ListItem};
use ppa_pregel::{run_dense_on, Context, DenseSet, ExecCtx, PregelConfig, VertexProgram};

/// Classic Pregel example: single-source shortest paths on an unweighted graph.
struct ShortestPaths {
    source: u32,
}

#[derive(Clone, Debug)]
struct SpState {
    neighbors: Vec<u32>,
    distance: u64,
}

impl VertexProgram for ShortestPaths {
    type Value = SpState;
    type Message = u64;
    type Aggregate = NoAggregate;

    fn compute(
        &self,
        ctx: &mut Context<'_, Self>,
        rank: u32,
        value: &mut SpState,
        messages: &mut [u64],
    ) {
        let incoming = messages.iter().min().copied().unwrap_or(u64::MAX);
        let candidate = if ctx.superstep() == 0 && rank == self.source {
            0
        } else {
            incoming
        };
        if candidate < value.distance {
            value.distance = candidate;
            for &n in &value.neighbors {
                ctx.send_message(n, candidate + 1);
            }
        }
        ctx.vote_to_halt();
    }
}

fn main() {
    // One long-lived pool for every job in this program: each job is handed
    // the same context, so all three share its threads.
    let ctx = ExecCtx::new(4);
    let config = PregelConfig::default();

    // A 6×6 grid graph, vertex `r · side + c` at row `r`, column `c`.
    let side = 6u32;
    let (mut grid, _) = DenseSet::from_fn_on(&ctx, side * side, |rank, _: &mut ()| {
        let (r, c) = (rank / side, rank % side);
        let mut neighbors = Vec::new();
        if r > 0 {
            neighbors.push(rank - side);
        }
        if r + 1 < side {
            neighbors.push(rank + side);
        }
        if c > 0 {
            neighbors.push(rank - 1);
        }
        if c + 1 < side {
            neighbors.push(rank + 1);
        }
        Some(SpState {
            neighbors,
            distance: u64::MAX,
        })
    });
    let metrics = run_dense_on(&ctx, &ShortestPaths { source: 0 }, &config, &mut grid);
    let mut distances = vec![u64::MAX; (side * side) as usize];
    grid.read_on(&ctx, &mut distances, |state| state.distance);
    let corner = distances[(side * side - 1) as usize];
    println!(
        "shortest paths on a {side}×{side} grid: distance to the far corner = {corner} \
         ({} supersteps, {} messages)",
        metrics.supersteps, metrics.total_messages
    );

    // The BPPA for list ranking (Section II of the paper).
    let items: Vec<ListItem> = (0..1_000u32)
        .map(|rank| ListItem {
            pred: rank.checked_sub(1),
            value: 1,
        })
        .collect();
    let (sums, metrics) = list_ranking(&ctx, &items, &config);
    let max_rank = sums.iter().max().unwrap();
    println!(
        "list ranking of a 1000-element list: max prefix sum = {max_rank} \
         ({} supersteps — logarithmic, not linear)",
        metrics.supersteps
    );

    // The simplified S-V connected components (Section II of the paper):
    // four chains of 50 vertices each.
    let adjacency: Vec<Vec<u32>> = (0..200u32)
        .map(|rank| {
            let i = rank % 50;
            let mut neighbors = Vec::new();
            if i > 0 {
                neighbors.push(rank - 1);
            }
            if i + 1 < 50 {
                neighbors.push(rank + 1);
            }
            neighbors
        })
        .collect();
    let (components, metrics) = connected_components(&ctx, &adjacency, &config);
    let distinct: std::collections::HashSet<u32> = components.into_iter().collect();
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
