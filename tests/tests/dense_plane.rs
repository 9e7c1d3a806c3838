//! The dense-rank delivery plane against the sorted plane, on the public
//! engine API.
//!
//! `run_dense_on` over a `DenseSet` promises the superstep contract of
//! `run_on` over a `VertexSet` with a different message plane underneath
//! (range ownership, counting scatter). At one worker the two must agree
//! message for message: same inbox contents in the same arrival order, same
//! drops in the same supersteps. At several workers ownership differs, so
//! only the order within an inbox may, and programs that do not read it must
//! see no difference at all. The control plane (cancel, memory budget, worker
//! faults) has to behave as it does on the sorted plane.

use ppa_pregel::aggregate::NoAggregate;
use ppa_pregel::{
    run_dense_on, run_on, CancelReason, Context, DenseSet, EngineError, ExecCtx, Fault, FaultPlan,
    JobControl, Metrics, PregelConfig, VertexProgram, VertexSet,
};
use proptest::prelude::*;

/// A directed graph over the ranks `0..states.len()`: the out-list of every
/// rank that takes part, `None` for one that does not. Targets may name absent
/// ranks and ranks at or beyond the end.
type Graph = Vec<Option<Vec<u32>>>;

/// The final `(rank, state)` pairs of a job, ascending, and its metrics.
type Outcome<V> = (Vec<(u32, V)>, Metrics);

/// Runs `program` over `graph` on both planes — the sorted one first — from
/// the states `init` makes of the out-lists.
fn on_both_planes<P>(
    workers: usize,
    program: &P,
    graph: &Graph,
    init: impl Fn(u32, &[u32]) -> P::Value + Sync,
) -> [Outcome<P::Value>; 2]
where
    P: VertexProgram<Id = u32>,
    P::Value: Clone,
{
    let ctx = ExecCtx::new(workers);
    let config = PregelConfig::default().max_supersteps(200);
    let state_of = |rank: u32| graph[rank as usize].as_deref().map(|out| init(rank, out));

    let ranks = 0..graph.len() as u32;
    let mut sorted = VertexSet::from_pairs(workers, ranks.filter_map(|r| Some((r, state_of(r)?))));
    let sorted_metrics = run_on(&ctx, program, &config, &mut sorted);
    let mut sorted = sorted.into_pairs();
    sorted.sort_unstable_by_key(|(rank, _)| *rank);

    let (mut dense, _) =
        DenseSet::from_fn_on(&ctx, graph.len() as u32, |r, _: &mut ()| state_of(r));
    assert_eq!(dense.len(), sorted.len());
    let dense_metrics = run_dense_on(&ctx, program, &config, &mut dense);
    let dense = dense.iter().map(|(r, v)| (r, v.clone())).collect();
    [(sorted, sorted_metrics), (dense, dense_metrics)]
}

/// What no plane may change: the job-level counts.
fn assert_same_counts(sorted: &Metrics, dense: &Metrics, at: &str) {
    assert!(sorted.converged && dense.converged, "{at}");
    assert_eq!(sorted.supersteps, dense.supersteps, "supersteps: {at}");
    assert_eq!(
        sorted.total_messages, dense.total_messages,
        "messages: {at}"
    );
    assert_eq!(sorted.total_dropped, dense.total_dropped, "drops: {at}");
    assert_eq!(
        sorted.total_compute_calls, dense.total_compute_calls,
        "compute calls: {at}"
    );
    assert_eq!(
        sorted.avg_frontier_density, dense.avg_frontier_density,
        "frontier density: {at}"
    );
}

// ---------------------------------------------------------------------------
// (a) One worker: identical traces
// ---------------------------------------------------------------------------

/// Every vertex logs what each call saw, in arrival order, and follows a
/// fixed script: on some supersteps it sends along its out-list, on some it
/// votes to halt (and is woken again by whatever arrives), on the others it
/// stays active and is computed without messages.
struct Recorder {
    rounds: usize,
}

#[derive(Debug, Clone, PartialEq)]
struct Trace {
    out: Vec<u32>,
    calls: Vec<(usize, Vec<u32>)>,
}

impl VertexProgram for Recorder {
    type Id = u32;
    type Value = Trace;
    type Message = u32;
    type Aggregate = NoAggregate;

    fn compute(&self, ctx: &mut Context<'_, Self>, id: u32, value: &mut Trace, inbox: &mut [u32]) {
        let step = ctx.superstep();
        value.calls.push((step, inbox.to_vec()));
        let turn = id as usize + step;
        if step < self.rounds && !turn.is_multiple_of(3) {
            for (nth, &to) in value.out.iter().enumerate() {
                ctx.send_message(to, id * 1000 + (step * 10 + nth) as u32);
            }
        }
        if step >= self.rounds || turn.is_multiple_of(2) {
            ctx.vote_to_halt();
        }
    }
}

fn assert_same_traces(graph: &Graph, what: &str) -> Metrics {
    let program = Recorder { rounds: 6 };
    let [(sorted, sorted_metrics), (dense, dense_metrics)] =
        on_both_planes(1, &program, graph, |_, out| Trace {
            out: out.to_vec(),
            calls: Vec::new(),
        });
    assert_eq!(sorted, dense, "traces: {what}");
    assert_same_counts(&sorted_metrics, &dense_metrics, what);
    // Drops land in the same supersteps, whether the receiver counted them
    // (an absent rank) or the sender did (a rank nobody owns).
    let per_step = |m: &Metrics| -> Vec<(usize, u64, u64)> {
        m.per_superstep
            .iter()
            .map(|s| (s.active_vertices, s.messages_sent, s.messages_dropped))
            .collect()
    };
    assert_eq!(
        per_step(&sorted_metrics),
        per_step(&dense_metrics),
        "{what}"
    );
    dense_metrics
}

/// A ring with chords, holes inside the range, and edges leaving it.
fn fixture() -> Graph {
    let n = 23u32;
    (0..n)
        .map(|rank| {
            if rank % 7 == 3 {
                return None; // takes no part; its neighbours still write to it
            }
            let mut out = vec![(rank + 1) % n, (rank * 5 + 2) % n, (rank + 1) % n];
            match rank % 4 {
                0 => out.push(n),        // one past the end
                1 => out.push(n + 40),   // far beyond
                2 => out.push(u32::MAX), // the last u32
                _ => out.push(rank),     // itself
            }
            Some(out)
        })
        .collect()
}

#[test]
fn one_worker_traces_are_identical() {
    let metrics = assert_same_traces(&fixture(), "ring with chords, holes and strays");
    assert!(
        metrics.total_dropped > 0,
        "the fixture's strays are dropped"
    );
    assert_same_traces(&vec![None; 5], "no rank takes part");
    assert_same_traces(&Vec::new(), "no ranks");
    assert_same_traces(
        &vec![Some(vec![0, 0, 1])],
        "one rank writing to itself and beyond",
    );
}

// ---------------------------------------------------------------------------
// (b) Several workers: order-insensitive programs
// ---------------------------------------------------------------------------

/// Floods the smallest rank seen along the out-lists; halts between changes.
struct MinFlood;

impl VertexProgram for MinFlood {
    type Id = u32;
    type Value = (u32, Vec<u32>);
    type Message = u32;
    type Aggregate = NoAggregate;

    fn compute(
        &self,
        ctx: &mut Context<'_, Self>,
        _id: u32,
        (least, out): &mut (u32, Vec<u32>),
        inbox: &mut [u32],
    ) {
        let seen = inbox.iter().copied().min().unwrap_or(u32::MAX);
        if ctx.superstep() == 0 || seen < *least {
            *least = (*least).min(seen);
            for &to in out.iter() {
                ctx.send_message(to, *least);
            }
        }
        ctx.vote_to_halt();
    }
}

/// Sums whatever arrives over a fixed number of rounds; odd ranks never halt
/// before the end, even ranks halt every round and are woken by messages.
struct Summer {
    rounds: usize,
}

impl VertexProgram for Summer {
    type Id = u32;
    type Value = (u64, Vec<u32>);
    type Message = u64;
    type Aggregate = NoAggregate;

    fn compute(
        &self,
        ctx: &mut Context<'_, Self>,
        id: u32,
        (sum, out): &mut (u64, Vec<u32>),
        inbox: &mut [u64],
    ) {
        *sum = inbox.iter().fold(*sum, |acc, m| acc.wrapping_add(*m));
        let step = ctx.superstep();
        if step < self.rounds {
            for &to in out.iter() {
                ctx.send_message(
                    to,
                    (*sum)
                        .wrapping_mul(31)
                        .wrapping_add(id as u64 + step as u64),
                );
            }
        }
        if step >= self.rounds || id.is_multiple_of(2) {
            ctx.vote_to_halt();
        }
    }
}

fn assert_same_results(workers: usize, graph: &Graph, what: &str) {
    let at = format!("{what}, {workers} workers");
    let [(sorted, sorted_metrics), (dense, dense_metrics)] =
        on_both_planes(workers, &MinFlood, graph, |rank, out| (rank, out.to_vec()));
    assert_eq!(sorted, dense, "min-flood values: {at}");
    assert_same_counts(&sorted_metrics, &dense_metrics, &at);

    let program = Summer { rounds: 5 };
    let [(sorted, sorted_metrics), (dense, dense_metrics)] =
        on_both_planes(workers, &program, graph, |_, out| (0, out.to_vec()));
    assert_eq!(sorted, dense, "message sums: {at}");
    assert_same_counts(&sorted_metrics, &dense_metrics, &at);
}

#[test]
fn order_insensitive_programs_agree_at_two_to_four_workers() {
    for workers in 2..=4 {
        assert_same_results(workers, &fixture(), "fixture");
        assert_same_results(
            workers,
            &vec![Some(vec![1]), Some(vec![0])],
            "fewer ranks than workers",
        );
        assert_same_results(workers, &Vec::new(), "no ranks");
    }
}

// ---------------------------------------------------------------------------
// (c) Random sparse digraphs
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn prop_random_sparse_digraphs_agree(
        n in 1usize..70,
        edges in proptest::collection::vec((0usize..70, 0u32..90), 0..200),
        absent in proptest::collection::vec(0usize..70, 0..12),
        workers in 2usize..5,
    ) {
        let mut graph: Graph = vec![Some(Vec::new()); n];
        for at in absent {
            graph[at % n] = None;
        }
        for (from, to) in edges {
            // Targets reach past `n`: both planes must drop those.
            if let Some(out) = graph[from % n].as_mut() {
                out.push(to);
            }
        }
        assert_same_traces(&graph, "random digraph");
        assert_same_results(workers, &graph, "random digraph");
    }
}

// ---------------------------------------------------------------------------
// (d) The control plane
// ---------------------------------------------------------------------------

/// The typed error a job unwound with, as `try_run_on` recovers it.
fn typed<T>(job: impl FnOnce() -> T) -> Result<T, EngineError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).map_err(|payload| {
        *payload
            .downcast::<EngineError>()
            .expect("an engine job unwinds with a typed error")
    })
}

/// A ring that passes a token around for `laps` supersteps; rank 0 may pull
/// the job's own cancel handle at a chosen superstep.
struct Ring {
    laps: usize,
    cancel_at: Option<(usize, JobControl)>,
}

impl VertexProgram for Ring {
    type Id = u32;
    type Value = u64;
    type Message = u64;
    type Aggregate = NoAggregate;

    fn compute(&self, ctx: &mut Context<'_, Self>, id: u32, value: &mut u64, inbox: &mut [u64]) {
        *value += inbox.iter().sum::<u64>();
        if let Some((step, control)) = &self.cancel_at {
            if id == 0 && ctx.superstep() == *step {
                control.cancel();
            }
        }
        if ctx.superstep() < self.laps {
            ctx.send_message((id + 1) % ctx.num_vertices() as u32, id as u64 + 1);
        }
        ctx.vote_to_halt();
    }
}

fn ring_on(ctx: &ExecCtx, program: &Ring) -> (Vec<u64>, Metrics) {
    let (mut set, _) = DenseSet::from_fn_on(ctx, 64, |_, _: &mut ()| Some(0u64));
    let config = PregelConfig::default();
    let metrics = run_dense_on(ctx, program, &config, &mut set);
    (set.iter().map(|(_, v)| *v).collect(), metrics)
}

/// The ring left alone: nine laps, nobody cancels.
fn quiet() -> Ring {
    Ring {
        laps: 9,
        cancel_at: None,
    }
}

#[test]
fn a_requested_cancel_stops_the_job_and_leaves_the_pool_reusable() {
    let ctx = ExecCtx::new(3);
    let undisturbed = ring_on(&ExecCtx::new(3), &quiet()).0;

    let control = JobControl::new();
    ctx.set_control(control.clone());
    let program = Ring {
        laps: 9,
        cancel_at: Some((4, control.clone())),
    };
    let err = typed(|| ring_on(&ctx, &program)).expect_err("the job cancels itself");
    ctx.clear_control();
    assert_eq!(
        err,
        EngineError::Cancelled {
            reason: CancelReason::Requested,
            superstep: 4
        }
    );
    assert_eq!(control.checks(), 5, "one poll per boundary, 0 through 4");

    let (values, metrics) = ring_on(&ctx, &quiet());
    assert_eq!(values, undisturbed, "the pool carries nothing over");
    assert_eq!(metrics.total_cancellation_checks, 0);
}

#[test]
fn the_memory_budget_reads_the_dense_store() {
    let ctx = ExecCtx::new(2);
    let (set, _) = DenseSet::from_fn_on(&ctx, 64, |_, _: &mut ()| Some(0u64));
    let held = set.resident_bytes() as u64;
    assert!(held >= 64 * 8, "64 states and their halted bits: {held}");

    ctx.set_control(JobControl::new().with_memory_budget(held - 1));
    let err = typed(|| ring_on(&ctx, &quiet())).expect_err("one byte over budget");
    assert_eq!(
        err,
        EngineError::Cancelled {
            reason: CancelReason::MemoryBudget,
            superstep: 0
        }
    );

    ctx.set_control(JobControl::new().with_memory_budget(held));
    let (_, metrics) = ring_on(&ctx, &quiet());
    ctx.clear_control();
    assert_eq!(metrics.peak_store_resident_bytes, held);
    assert_eq!(metrics.total_cancellation_checks, metrics.supersteps as u64);
}

#[test]
fn an_injected_worker_fault_is_a_typed_worker_panic() {
    let ctx = ExecCtx::new(3);
    let armed = ctx.inject_faults(FaultPlan::single(Fault::Superstep {
        stage: usize::MAX, // no pipeline stage was entered
        superstep: 2,
        worker: 1,
    }));
    let err = typed(|| ring_on(&ctx, &quiet())).expect_err("worker 1 dies in superstep 2");
    ctx.clear_faults();
    assert!(armed.all_fired());
    match err {
        EngineError::WorkerPanic { worker: 1, message } => {
            assert!(message.contains("injected fault"), "{message}")
        }
        other => panic!("expected worker 1's panic, got {other:?}"),
    }
    let (values, _) = ring_on(&ctx, &quiet());
    assert_eq!(values, ring_on(&ExecCtx::new(3), &quiet()).0);
}
