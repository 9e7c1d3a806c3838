//! The engine's superstep runner against a sequential BSP loop, on the
//! public engine API.
//!
//! `run_dense_on` over a `DenseSet` promises the Pregel model's superstep
//! contract, which `ppa_tests::bsp::run` spells out on one thread with plain
//! vectors. Every compared program is written once, as a `bsp::Step`, and
//! runs on both. At one worker they must agree message for message: same
//! inbox contents in the same arrival order, same drops in the same
//! supersteps. At several workers an inbox arrives in (source worker, send
//! order), so only the order within an inbox may differ, and programs that do
//! not read it must see no difference at all. The control plane (cancel,
//! memory budget, worker faults) is pinned on the engine alone.

use ppa_pregel::aggregate::NoAggregate;
use ppa_pregel::{
    run_dense_on, CancelReason, Context, DenseSet, EngineError, ExecCtx, Fault, FaultPlan,
    JobControl, Metrics, PregelConfig, VertexProgram,
};
use ppa_tests::bsp::{self, Row, Step};
use proptest::prelude::*;

/// A directed graph over the ranks `0..states.len()`: the out-list of every
/// rank that takes part, `None` for one that does not. Targets may name absent
/// ranks and ranks at or beyond the end.
type Graph = Vec<Option<Vec<u32>>>;

/// The superstep cap of every compared job.
const MAX_SUPERSTEPS: usize = 200;

/// A step function run as a vertex program on the engine.
struct OnEngine<'a, S>(&'a S);

impl<S: Step> VertexProgram for OnEngine<'_, S> {
    type Value = S::Value;
    type Message = S::Message;
    type Aggregate = NoAggregate;

    fn compute(
        &self,
        ctx: &mut Context<'_, Self>,
        rank: u32,
        value: &mut S::Value,
        inbox: &mut [S::Message],
    ) {
        let superstep = ctx.superstep();
        let halt = self.0.step(superstep, rank, value, inbox, &mut |to, m| {
            ctx.send_message(to, m)
        });
        if halt {
            ctx.vote_to_halt();
        }
    }
}

/// The final states of a compared job, the engine's then the reference's,
/// and the engine's metrics.
type Outcome<V> = (Vec<Option<V>>, Vec<Option<V>>, Metrics);

/// Runs `program` from `states` on the engine at `workers` workers and on
/// the reference, and checks that their counts agree (`assert_same_counts`).
fn against_reference<S: Step>(
    workers: usize,
    program: &S,
    states: Vec<Option<S::Value>>,
    at: &str,
) -> Outcome<S::Value>
where
    S::Value: Clone + Sync,
{
    let ctx = ExecCtx::new(workers);
    let config = PregelConfig::default().max_supersteps(MAX_SUPERSTEPS);
    let (mut set, _) = DenseSet::from_fn_on(&ctx, states.len() as u32, |r, _: &mut ()| {
        states[r as usize].clone()
    });
    let metrics = run_dense_on(&ctx, &OnEngine(program), &config, &mut set);
    let mut engine = vec![None; states.len()];
    for (rank, value) in set.iter() {
        engine[rank as usize] = Some(value.clone());
    }
    let reference = bsp::run(program, states, MAX_SUPERSTEPS);
    assert_same_counts(&reference, &metrics, at);
    (engine, reference.states, metrics)
}

/// The states `init` makes of `graph`'s out-lists.
fn states_of<V>(graph: &Graph, init: impl Fn(u32, &[u32]) -> V) -> Vec<Option<V>> {
    (0..graph.len() as u32)
        .map(|rank| graph[rank as usize].as_deref().map(|out| init(rank, out)))
        .collect()
}

/// What the message plane may not change: per superstep, the vertices
/// computed, the messages sent and dropped, and the frontier density; over
/// the job, supersteps, messages, drops, compute calls and convergence.
/// Drops land in the same supersteps whether the receiver counted them (an
/// absent rank) or the sender did (a rank nobody owns).
fn assert_same_counts<V>(reference: &bsp::Run<V>, metrics: &Metrics, at: &str) {
    assert!(reference.converged && metrics.converged, "{at}");
    let rows: Vec<Row> = metrics
        .per_superstep
        .iter()
        .map(|s| Row {
            computed: s.active_vertices,
            sent: s.messages_sent,
            dropped: s.messages_dropped,
        })
        .collect();
    assert_eq!(rows, reference.rows, "per superstep: {at}");
    assert_eq!(metrics.supersteps, rows.len(), "supersteps: {at}");
    let total = |f: fn(&Row) -> u64| rows.iter().map(f).sum::<u64>();
    assert_eq!(metrics.total_messages, total(|r| r.sent), "messages: {at}");
    assert_eq!(metrics.total_dropped, total(|r| r.dropped), "drops: {at}");
    let calls = total(|r| r.computed as u64);
    assert_eq!(metrics.total_compute_calls, calls, "compute calls: {at}");
    let present = reference.states.iter().flatten().count();
    for (step, row) in metrics.per_superstep.iter().zip(&rows) {
        let density = match present {
            0 => 0.0,
            _ => row.computed as f64 / present as f64,
        };
        assert_eq!(step.frontier_density, density, "frontier density: {at}");
    }
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

impl Step for Recorder {
    type Value = Trace;
    type Message = u32;

    fn step(
        &self,
        superstep: usize,
        rank: u32,
        value: &mut Trace,
        inbox: &[u32],
        send: &mut dyn FnMut(u32, u32),
    ) -> bool {
        value.calls.push((superstep, inbox.to_vec()));
        let turn = rank as usize + superstep;
        if superstep < self.rounds && !turn.is_multiple_of(3) {
            for (nth, &to) in value.out.iter().enumerate() {
                send(to, rank * 1000 + (superstep * 10 + nth) as u32);
            }
        }
        superstep >= self.rounds || turn.is_multiple_of(2)
    }
}

fn assert_same_traces(graph: &Graph, what: &str) -> Metrics {
    let states = states_of(graph, |_, out| Trace {
        out: out.to_vec(),
        calls: Vec::new(),
    });
    let (engine, reference, metrics) = against_reference(1, &Recorder { rounds: 6 }, states, what);
    assert_eq!(engine, reference, "traces: {what}");
    metrics
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

impl Step for MinFlood {
    type Value = (u32, Vec<u32>);
    type Message = u32;

    fn step(
        &self,
        superstep: usize,
        _rank: u32,
        (least, out): &mut (u32, Vec<u32>),
        inbox: &[u32],
        send: &mut dyn FnMut(u32, u32),
    ) -> bool {
        let seen = inbox.iter().copied().min().unwrap_or(u32::MAX);
        if superstep == 0 || seen < *least {
            *least = (*least).min(seen);
            for &to in out.iter() {
                send(to, *least);
            }
        }
        true
    }
}

/// Sums whatever arrives over a fixed number of rounds; odd ranks never halt
/// before the end, even ranks halt every round and are woken by messages.
struct Summer {
    rounds: usize,
}

impl Step for Summer {
    type Value = (u64, Vec<u32>);
    type Message = u64;

    fn step(
        &self,
        superstep: usize,
        rank: u32,
        (sum, out): &mut (u64, Vec<u32>),
        inbox: &[u64],
        send: &mut dyn FnMut(u32, u64),
    ) -> bool {
        *sum = inbox.iter().fold(*sum, |acc, m| acc.wrapping_add(*m));
        if superstep < self.rounds {
            for &to in out.iter() {
                let payload = sum
                    .wrapping_mul(31)
                    .wrapping_add(rank as u64 + superstep as u64);
                send(to, payload);
            }
        }
        superstep >= self.rounds || rank.is_multiple_of(2)
    }
}

fn assert_same_results(workers: usize, graph: &Graph, what: &str) {
    let at = format!("{what}, {workers} workers");
    let states = states_of(graph, |rank, out| (rank, out.to_vec()));
    let (engine, reference, _) = against_reference(workers, &MinFlood, states, &at);
    assert_eq!(engine, reference, "min-flood values: {at}");

    let states = states_of(graph, |_, out| (0, out.to_vec()));
    let (engine, reference, _) = against_reference(workers, &Summer { rounds: 5 }, states, &at);
    assert_eq!(engine, reference, "message sums: {at}");
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
            // Targets reach past `n`: both sides must drop those.
            if let Some(out) = graph[from % n].as_mut() {
                out.push(to);
            }
        }
        assert_same_traces(&graph, "random digraph");
        assert_same_results(workers, &graph, "random digraph");
    }
}

// ---------------------------------------------------------------------------
// (d) A multi-round relay over many ranks, at one to four workers
// ---------------------------------------------------------------------------

/// A multi-round scatter-and-fold program: for `rounds` supersteps every
/// vertex folds what it received and sends `rank + 1` to a
/// superstep-dependent target; it always votes to halt, so after superstep 0
/// only a message wakes it.
struct Relay {
    n: u32,
    rounds: usize,
}

impl Step for Relay {
    type Value = u64;
    type Message = u64;

    fn step(
        &self,
        superstep: usize,
        rank: u32,
        value: &mut u64,
        inbox: &[u64],
        send: &mut dyn FnMut(u32, u64),
    ) -> bool {
        *value = value.wrapping_add(inbox.iter().sum::<u64>());
        if superstep < self.rounds {
            let to = (rank as u64 * 31 + superstep as u64 * 7 + 1) % self.n as u64;
            send(to as u32, rank as u64 + 1);
        }
        true
    }
}

#[test]
fn relay_matches_the_reference() {
    let relay = Relay { n: 999, rounds: 6 };
    for workers in 1..=4 {
        let states = (0..relay.n).map(|rank| Some(rank as u64)).collect();
        let at = format!("relay, {workers} workers");
        let (engine, reference, _) = against_reference(workers, &relay, states, &at);
        assert_eq!(engine, reference, "{at}");
    }
}

// ---------------------------------------------------------------------------
// (e) The control plane
// ---------------------------------------------------------------------------

/// The typed error a job unwound with.
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
