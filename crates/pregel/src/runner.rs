//! The superstep execution engine with a sort-based, buffer-reusing message
//! plane.
//!
//! [`run_on`] drives a [`VertexProgram`] over a [`VertexSet`] until no vertex is
//! active and no message is in flight (or the program's
//! [`should_terminate`](VertexProgram::should_terminate) fires), collecting
//! [`Metrics`] along the way. Each superstep has two parallel phases:
//!
//! 1. **compute** — every worker **merge-joins** the sorted runs of its
//!    inbound buffer against its partition's sorted ID column (one contiguous
//!    `&mut [Message]` slice per receiving vertex — delivery allocates
//!    nothing and probes no hash table; a galloping cursor walks both sorted
//!    sequences once), then sweeps the partition's halted **bitset** for
//!    active vertices that received no messages, skipping 64 halted vertices
//!    per word compare. Outgoing messages are appended to one flat
//!    buffer per destination worker; before the hand-off each buffer is
//!    **sorted by destination vertex on the sender side** (a stable LSD radix
//!    sort over the packed IDs — see [`crate::radix`] — so the sort work is
//!    spread over all compute threads) and, when the program enables a
//!    combiner, adjacent duplicates are **combined on the sender side**,
//!    shrinking shuffle volume exactly like Pregel's sender-side combining
//!    does over the network.
//! 2. **shuffle** — each worker takes the pre-sorted buffers addressed to it
//!    and k-way-merges them (linear, ties broken by source worker — fully
//!    deterministic) into parallel `ids`/`messages` arrays for next
//!    superstep's run-walk delivery, applying the combiner across senders
//!    during the merge.
//!
//! All buffers — per-destination outboxes, the sorted `ids`/`messages` arrays
//! and the combine scratch — live in per-worker `WorkerPlane`s that belong to
//! the job: they reach their high-water capacity in the first supersteps,
//! are reused by every later one, and are dropped when the job returns, so a
//! steady-state superstep performs no per-vertex or per-superstep container
//! allocation. This replaces the earlier hash-map grouping (one heap `Vec`
//! per receiving vertex per superstep), which dominated the shuffle cost, and
//! the earlier hash-partitioned vertex store (one hash probe per delivered
//! run, a bucket-array walk per straggler scan).
//!
//! Both phases are dispatched onto the persistent worker pool of the
//! caller's [`ExecCtx`] (shared across a whole workflow); no per-superstep
//! thread scope is created anywhere. See the `engine` module docs for the
//! scoped-spawn comparison.
//!
//! This mirrors the bulk-synchronous structure of Pregel+ with the network
//! replaced by in-memory buffer handoff. Like Pregel+, the runner is
//! resident: a [`SpillPolicy`](crate::SpillPolicy) on the context does not
//! reach it.
//!
//! # Two planes
//!
//! This module is the **sorted plane**: it serves every vertex ID type, at
//! the price of finding each message's vertex by sorting — a presort per
//! outbox, a k-way merge per inbox, a merge-join against the ID column — and
//! it is the one plane that combines. [`crate::dense`] is the **dense plane**
//! for jobs whose IDs are the consecutive ranks `0..n`: range ownership,
//! states in a plain array, one counting scatter per inbox and nothing to
//! sort, but without a combiner. The caller picks by constructing a
//! [`VertexSet`] or a [`DenseSet`](crate::DenseSet) — every contig labeling
//! job takes the dense one — and both runners share the superstep contract:
//! fault probes, the control poll at every boundary (`poll_boundary`),
//! termination, and [`Metrics`]. The sorted plane stays the general one
//! ([`crate::algorithms`], the examples) and the dense plane's reference.

use crate::aggregate::Aggregate;
use crate::config::PregelConfig;
use crate::control::JobControl;
use crate::engine::{EngineError, ExecCtx};
use crate::fault::ArmedFaults;
use crate::metrics::{Metrics, SuperstepMetrics};
use crate::vertex::{Context, Route, VertexProgram};
use crate::vertex_set::{lower_bound_from, next_word_with_zero, set_bit, RunColumns, VertexSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One `(destination vertex, message)` buffer per destination worker.
type OutboxColumn<P> = Vec<Vec<(<P as VertexProgram>::Id, <P as VertexProgram>::Message)>>;

/// Reusable per-worker message-plane buffers, allocated once per job and
/// reused across its supersteps.
struct WorkerPlane<I, M> {
    /// Sorted vertex IDs of the inbound messages, parallel to `in_msgs`.
    in_ids: Vec<I>,
    /// Inbound messages; `in_msgs[i]` is addressed to `in_ids[i]`, and the
    /// messages of one vertex form a contiguous run.
    in_msgs: Vec<M>,
    /// Scratch buffer shared by the radix presort (ping-pong plane) and
    /// sender-side combining; both leave it empty, capacity kept.
    scratch: Vec<(I, M)>,
    /// One outbound buffer per destination worker.
    outbox: Vec<Vec<(I, M)>>,
}

impl<I, M> WorkerPlane<I, M> {
    fn new(workers: usize) -> WorkerPlane<I, M> {
        WorkerPlane {
            in_ids: Vec::new(),
            in_msgs: Vec::new(),
            scratch: Vec::new(),
            outbox: (0..workers).map(|_| Vec::new()).collect(),
        }
    }
}

/// Per-worker counters produced by one compute phase.
struct ComputeCounts<A> {
    local_aggregate: A,
    messages_sent: u64,
    messages_dropped: u64,
    active: usize,
    all_halted: bool,
}

/// Per-worker compute-phase state shared by both delivery passes.
///
/// [`compute_slot`](WorkerEnv::compute_slot) is the single place where a
/// vertex's halt/stamp bookkeeping happens — the merge-join pass (vertices
/// with messages) and the bitset sweep (active vertices without) both call
/// it, so the two passes cannot drift apart.
struct WorkerEnv<'a, P: VertexProgram> {
    program: &'a P,
    superstep: usize,
    /// `superstep + 1` (stamp 0 = never computed); marks slots computed in
    /// this superstep so the bitset sweep skips them.
    stamp: u32,
    worker: usize,
    num_workers: usize,
    total_vertices: usize,
    prev_aggregate: &'a P::Aggregate,
    local_aggregate: P::Aggregate,
    messages_sent: u64,
    active: usize,
}

impl<P: VertexProgram> WorkerEnv<'_, P> {
    /// Runs `compute` for the vertex in `slot`: stamps the slot, builds the
    /// per-vertex context, invokes the program with the delivered slice, and
    /// writes the vertex's new halt bit back into the column.
    fn compute_slot(
        &mut self,
        cols: &mut RunColumns<'_, P::Id, P::Value>,
        slot: usize,
        id: P::Id,
        outbox: &mut [Vec<(P::Id, P::Message)>],
        messages: &mut [P::Message],
    ) {
        cols.stamps[slot] = self.stamp;
        let mut vctx: Context<'_, P> = Context {
            superstep: self.superstep,
            worker: self.worker,
            num_workers: self.num_workers,
            total_vertices: self.total_vertices,
            prev_aggregate: self.prev_aggregate,
            local_aggregate: &mut self.local_aggregate,
            outbox,
            route: Route::Hash,
            messages_sent: &mut self.messages_sent,
            halt: false,
        };
        self.program
            .compute(&mut vctx, id, &mut cols.values[slot], messages);
        set_bit(cols.halted, slot, vctx.halt);
        self.active += 1;
    }

    /// Pass 1: merge-joins the sorted inbound runs against the sorted ID
    /// column. Both sequences ascend, so one monotone galloping cursor visits
    /// each side at most once — no hash probe per run, one contiguous slice
    /// per vertex, nothing allocated. Returns the messages addressed to a
    /// vertex this worker does not host, which are dropped.
    fn deliver(
        &mut self,
        cols: &mut RunColumns<'_, P::Id, P::Value>,
        in_ids: &[P::Id],
        in_msgs: &mut [P::Message],
        outbox: &mut [Vec<(P::Id, P::Message)>],
    ) -> u64 {
        // Copy the shared column slice out of `cols` so reading IDs does not
        // borrow the `&mut cols` that `compute_slot` takes.
        let ids = cols.ids;
        let mut dropped = 0u64;
        let mut cursor = 0usize;
        let mut i = 0usize;
        while i < in_ids.len() {
            let id = in_ids[i];
            let mut j = i + 1;
            while j < in_ids.len() && in_ids[j] == id {
                j += 1;
            }
            cursor = lower_bound_from(ids, cursor, &id);
            if cursor < ids.len() && ids[cursor] == id {
                self.compute_slot(cols, cursor, id, outbox, &mut in_msgs[i..j]);
            } else {
                dropped += (j - i) as u64;
            }
            i = j;
        }
        dropped
    }

    /// Pass 2: active vertices that received nothing — a word scan for
    /// halted words with a zero bit (64 halted vertices skipped per compare),
    /// with the stamp column filtering out slots already computed in pass 1.
    /// `compute_slot` only ever touches the current word's bits, so the
    /// forward scan never misses a regained zero.
    fn sweep(
        &mut self,
        cols: &mut RunColumns<'_, P::Id, P::Value>,
        outbox: &mut [Vec<(P::Id, P::Message)>],
    ) {
        let ids = cols.ids;
        let slots = ids.len();
        let mut wi = 0usize;
        while let Some(w) = next_word_with_zero(cols.halted, wi) {
            let base = w << 6;
            let mut cand = !cols.halted[w];
            if slots - base < 64 {
                cand &= (1u64 << (slots - base)) - 1;
            }
            while cand != 0 {
                let slot = base + cand.trailing_zeros() as usize;
                cand &= cand - 1;
                if cols.stamps[slot] == self.stamp {
                    continue;
                }
                self.compute_slot(cols, slot, ids[slot], outbox, &mut []);
            }
            wi = w + 1;
        }
    }
}

/// Runs `program` over `vertices` on `ctx`'s persistent worker pool until
/// convergence and returns the metrics. Inside a workflow all jobs share one
/// context, so they share its pool.
///
/// The vertex set keeps the final vertex values; a typical operation runs a
/// job and then reads the set back.
///
/// # Panics
///
/// Panics if `ctx`'s pool size differs from the partitioning of `vertices`
/// (construct the set with `ctx.workers()`), or if the superstep cap is
/// exceeded with `debug_assertions` enabled.
pub fn run_on<P: VertexProgram>(
    ctx: &ExecCtx,
    program: &P,
    config: &PregelConfig,
    vertices: &mut VertexSet<P::Id, P::Value>,
) -> Metrics {
    ctx.assert_matches(vertices.workers(), "VertexSet partitioning");
    let workers = vertices.workers();
    let total_vertices = vertices.len();
    let job_start = Instant::now();

    vertices.activate_all();
    // Fault-injection probe (testing hook): grabbed once per job so the
    // superstep loop pays one Option check per worker when no plan is armed.
    let faults = ctx.faults();
    // Job-control handle, likewise grabbed once: the superstep loop pays one
    // Option check per boundary when no control plane is installed.
    let control = ctx.control();
    let mut planes: Vec<WorkerPlane<P::Id, P::Message>> =
        (0..workers).map(|_| WorkerPlane::new(workers)).collect();
    let mut prev_aggregate = P::Aggregate::identity();
    let mut metrics = Metrics {
        converged: false,
        ..Metrics::default()
    };
    let mut superstep = 0usize;

    loop {
        if superstep >= config.max_supersteps {
            metrics.converged = false;
            break;
        }
        let step_start = Instant::now();
        let busy_before = ctx.pool().busy_nanos();

        // ---- compute phase (dispatched onto the persistent pool) ------------
        let counts: Vec<ComputeCounts<P::Aggregate>> = {
            let prev_agg = &prev_aggregate;
            let worker_inputs: Vec<_> = vertices.parts.iter_mut().zip(planes.iter_mut()).collect();
            ctx.pool()
                .run_per_worker(worker_inputs, |w, (part, plane)| {
                    if let Some(f) = &faults {
                        f.probe_superstep(superstep, w);
                    }
                    let mut env: WorkerEnv<'_, P> = WorkerEnv {
                        program,
                        superstep,
                        // Stamp 0 = never computed, hence the +1 (a u32
                        // column; activate_all re-zeroes it per job, so
                        // wrap-around would need 2^32 supersteps in one job).
                        stamp: (superstep + 1) as u32,
                        worker: w,
                        num_workers: workers,
                        total_vertices,
                        prev_aggregate: prev_agg,
                        local_aggregate: P::Aggregate::identity(),
                        messages_sent: 0,
                        active: 0,
                    };
                    // Both passes over the columns, then a popcount over the
                    // halted words (bits beyond the slot count stay zero)
                    // decides quiescence.
                    let mut cols = part.run_columns();
                    let messages_dropped = env.deliver(
                        &mut cols,
                        &plane.in_ids,
                        &mut plane.in_msgs,
                        &mut plane.outbox,
                    );
                    env.sweep(&mut cols, &mut plane.outbox);
                    let halted: usize = cols.halted.iter().map(|w| w.count_ones() as usize).sum();
                    let all_halted = halted == cols.ids.len();

                    // Presort every destination buffer (spreading the
                    // shuffle's sort work over the compute threads)
                    // and fold duplicates if the program combines. The
                    // radix scratch is the plane's combine scratch: both
                    // uses leave it empty, so steady-state sorting
                    // allocates nothing.
                    for buf in plane.outbox.iter_mut() {
                        crate::radix::sort_pairs(buf, &mut plane.scratch);
                    }
                    if P::USE_COMBINER {
                        combine_outbox(program, plane);
                    }
                    ComputeCounts::<P::Aggregate> {
                        local_aggregate: env.local_aggregate,
                        messages_sent: env.messages_sent,
                        messages_dropped,
                        active: env.active,
                        all_halted,
                    }
                })
        };
        let compute_elapsed = step_start.elapsed();

        // ---- aggregate & bookkeeping ---------------------------------------
        let mut aggregate = P::Aggregate::identity();
        let mut messages_this_step = 0u64;
        let mut dropped_this_step = 0u64;
        let mut active_this_step = 0usize;
        let mut all_halted = true;
        for c in &counts {
            aggregate.combine(&c.local_aggregate);
            messages_this_step += c.messages_sent;
            dropped_this_step += c.messages_dropped;
            active_this_step += c.active;
            all_halted &= c.all_halted;
        }
        let frontier_density = if total_vertices == 0 {
            0.0
        } else {
            active_this_step as f64 / total_vertices as f64
        };
        let store_resident_bytes = vertices.resident_bytes() as u64;
        // ---- cooperative control poll (superstep boundary) ------------------
        let cancellation_checks = poll_boundary(&faults, &control, superstep, store_resident_bytes);

        // ---- shuffle phase (dispatched onto the persistent pool) ------------
        let shuffle_start = Instant::now();
        // Transpose outbox buffer ownership: worker `src` hands its buffer
        // for destination `dst` to `dst`'s shuffle job. Only `Vec` headers
        // move; the allocations travel to the shuffle and come back
        // afterwards so their capacity is reused next superstep.
        let mut columns: Vec<OutboxColumn<P>> =
            (0..workers).map(|_| Vec::with_capacity(workers)).collect();
        for plane in planes.iter_mut() {
            for (dst, buf) in plane.outbox.iter_mut().enumerate() {
                columns[dst].push(std::mem::take(buf));
            }
        }
        let shuffle_inputs: Vec<_> = planes.iter_mut().zip(columns).collect();
        let returned: Vec<OutboxColumn<P>> =
            ctx.pool()
                .run_per_worker(shuffle_inputs, |_w, (plane, mut bufs)| {
                    // K-way merge of the pre-sorted source buffers into the
                    // parallel id/message arrays (ties prefer the lower
                    // source worker, so the merged order is a pure function
                    // of the deterministic per-sender buffers).
                    plane.in_ids.clear();
                    plane.in_msgs.clear();
                    let total: usize = bufs.iter().map(|b| b.len()).sum();
                    plane.in_ids.reserve(total);
                    plane.in_msgs.reserve(total);
                    let (in_ids, in_msgs) = (&mut plane.in_ids, &mut plane.in_msgs);
                    crate::kmerge::merge_sorted_buffers(&mut bufs, |id, msg| {
                        if P::USE_COMBINER {
                            if let Some(last) = in_ids.last() {
                                if *last == id {
                                    let acc = in_msgs.last_mut().expect("parallel arrays");
                                    program.combine(acc, msg);
                                    return;
                                }
                            }
                        }
                        in_ids.push(id);
                        in_msgs.push(msg);
                    });
                    bufs
                });
        // Give every (src, dst) buffer back to its owning worker.
        for (dst, bufs) in returned.into_iter().enumerate() {
            for (src, buf) in bufs.into_iter().enumerate() {
                planes[src].outbox[dst] = buf;
            }
        }
        let shuffle_elapsed = shuffle_start.elapsed();

        // ---- metrics & termination ------------------------------------------
        metrics.record(
            SuperstepMetrics {
                superstep,
                active_vertices: active_this_step,
                messages_sent: messages_this_step,
                messages_dropped: dropped_this_step,
                elapsed: step_start.elapsed(),
                compute_elapsed,
                shuffle_elapsed,
                pool_utilization: pool_utilization(
                    ctx,
                    busy_before,
                    compute_elapsed + shuffle_elapsed,
                ),
                frontier_density,
                store_resident_bytes,
                id_column_compression: 1.0,
                cancellation_checks,
                spilled_bytes: 0,
                spill_read_bytes: 0,
                spilled_runs: 0,
            },
            config.track_supersteps,
        );

        if program.should_terminate(&aggregate, superstep) {
            metrics.converged = true;
            break;
        }
        if messages_this_step == 0 && all_halted {
            metrics.converged = true;
            break;
        }
        prev_aggregate = aggregate;
        superstep += 1;
    }

    metrics.elapsed = job_start.elapsed();
    metrics
}

/// The coordinator's stop at a superstep boundary, shared by both planes: the
/// store is barrier-consistent and `store_resident_bytes` fresh, so this is
/// where the memory budget is checked. A `Stall` fault (testing hook) sleeps
/// first, making deadline trips deterministic without real wall-clock races.
/// A trip is raised here, between phases — the pool never sees the panic and
/// stays reusable; the caller (`try_run_on` or the pipeline's `catch_unwind`)
/// downcasts the payload back into the typed error. Returns the polls made.
pub(crate) fn poll_boundary(
    faults: &Option<Arc<ArmedFaults>>,
    control: &Option<JobControl>,
    superstep: usize,
    store_resident_bytes: u64,
) -> u64 {
    if let Some(millis) = faults.as_ref().and_then(|f| f.probe_stall(superstep)) {
        std::thread::sleep(Duration::from_millis(millis));
    }
    let Some(control) = control else { return 0 };
    if let Some(reason) = control.poll(store_resident_bytes) {
        std::panic::panic_any(EngineError::Cancelled { reason, superstep });
    }
    1
}

/// The share of the pool's capacity over `phase_wall` that its workers spent
/// running jobs since `busy_before` was read.
pub(crate) fn pool_utilization(ctx: &ExecCtx, busy_before: u64, phase_wall: Duration) -> f64 {
    let busy = ctx.pool().busy_nanos().saturating_sub(busy_before);
    let capacity = phase_wall.as_nanos() as u64 * ctx.workers() as u64;
    if capacity == 0 {
        0.0
    } else {
        (busy as f64 / capacity as f64).min(1.0)
    }
}

/// Sender-side combining: folds adjacent messages for the same vertex in the
/// (already sorted) destination buffers, so that at most one message per
/// (sender worker, receiving vertex) crosses the shuffle.
fn combine_outbox<P: VertexProgram>(program: &P, plane: &mut WorkerPlane<P::Id, P::Message>) {
    let scratch = &mut plane.scratch;
    for buf in plane.outbox.iter_mut() {
        if buf.len() < 2 {
            continue;
        }
        scratch.clear();
        for (id, msg) in buf.drain(..) {
            match scratch.last_mut() {
                Some(last) if last.0 == id => program.combine(&mut last.1, msg),
                _ => scratch.push((id, msg)),
            }
        }
        std::mem::swap(buf, scratch);
    }
}

/// Like [`run_on`], but catches a cooperative job-control trip and returns it
/// as a typed [`EngineError`] instead of unwinding.
///
/// On `Err(EngineError::Cancelled { .. })` the pool is clean and immediately
/// reusable: the trip is raised on the coordinator thread at a superstep
/// boundary, never inside a pool worker. The vertex set is left in its
/// mid-job (barrier-consistent) state and should normally be discarded. Any
/// other panic — a program bug, an injected worker fault — is re-raised
/// unchanged.
// ppa_lint: allow(test-only-pub) the job entry that returns a control trip as a value, for callers outside a pipeline
pub fn try_run_on<P: VertexProgram>(
    ctx: &ExecCtx,
    program: &P,
    config: &PregelConfig,
    vertices: &mut VertexSet<P::Id, P::Value>,
) -> Result<Metrics, EngineError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_on(ctx, program, config, vertices)
    })) {
        Ok(metrics) => Ok(metrics),
        Err(payload) => match payload.downcast::<EngineError>() {
            Ok(err) => Err(*err),
            Err(payload) => std::panic::resume_unwind(payload),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{BoolOr, Count, NoAggregate};
    use proptest::prelude::*;

    /// Partitions `pairs` over `workers` workers and runs `program` on a
    /// fresh context of that size.
    fn run_pairs<P: VertexProgram>(
        program: &P,
        workers: usize,
        config: &PregelConfig,
        pairs: impl IntoIterator<Item = (P::Id, P::Value)>,
    ) -> (VertexSet<P::Id, P::Value>, Metrics) {
        let mut set = VertexSet::from_pairs(workers, pairs);
        let metrics = run_on(&ExecCtx::new(workers), program, config, &mut set);
        (set, metrics)
    }

    /// Each vertex starts with a number and floods the maximum over a ring;
    /// classic Pregel smoke test exercising reactivation and halting.
    struct MaxFlood {
        ring: usize,
    }

    #[derive(Debug, Clone)]
    struct MaxState {
        value: u64,
        next: u64,
    }

    impl VertexProgram for MaxFlood {
        type Id = u64;
        type Value = MaxState;
        type Message = u64;
        type Aggregate = NoAggregate;

        fn compute(
            &self,
            ctx: &mut Context<'_, Self>,
            _id: u64,
            value: &mut MaxState,
            messages: &mut [u64],
        ) {
            let before = value.value;
            for m in messages.iter() {
                value.value = value.value.max(*m);
            }
            if ctx.superstep() == 0 || value.value > before {
                ctx.send_message(value.next, value.value);
            }
            ctx.vote_to_halt();
        }
    }

    #[test]
    fn max_flood_on_ring_converges() {
        let n = 64u64;
        let program = MaxFlood { ring: n as usize };
        let config = PregelConfig::default();
        let pairs = (0..n).map(|i| {
            (
                i,
                MaxState {
                    value: i * 7 % 97,
                    next: (i + 1) % n,
                },
            )
        });
        let (set, metrics) = run_pairs(&program, 4, &config, pairs);
        let expected = (0..n).map(|i| i * 7 % 97).max().unwrap();
        for (_, v) in set.iter() {
            assert_eq!(v.value, expected);
        }
        assert!(metrics.converged);
        assert!(
            metrics.supersteps >= program.ring,
            "needs at least n supersteps on a ring"
        );
        assert!(metrics.total_messages > 0);
        assert_eq!(metrics.total_dropped, 0);
        assert_eq!(metrics.per_superstep.len(), metrics.supersteps);
    }

    /// Counts vertices via the aggregator and terminates via should_terminate.
    struct CountAndStop;

    impl VertexProgram for CountAndStop {
        type Id = u64;
        type Value = ();
        type Message = ();
        type Aggregate = Count;

        fn compute(&self, ctx: &mut Context<'_, Self>, _id: u64, _v: &mut (), _m: &mut [()]) {
            ctx.aggregate(Count(1));
            // Never vote to halt: termination must come from should_terminate.
        }

        fn should_terminate(&self, agg: &Count, _superstep: usize) -> bool {
            agg.0 > 0
        }
    }

    #[test]
    fn aggregator_and_forced_termination() {
        let config = PregelConfig::default();
        let (_, metrics) = run_pairs(&CountAndStop, 3, &config, (0..10).map(|i| (i, ())));
        assert!(metrics.converged);
        assert_eq!(metrics.supersteps, 1);
        assert_eq!(metrics.total_compute_calls, 10);
    }

    /// Sums incoming messages with a combiner; each of 100 vertices sends 1 to
    /// vertex 0 in superstep 0, and vertex 0 should observe a total of 100
    /// regardless of how many physical messages were merged.
    struct SumToRoot;

    impl VertexProgram for SumToRoot {
        type Id = u64;
        type Value = u64;
        type Message = u64;
        type Aggregate = NoAggregate;
        const USE_COMBINER: bool = true;

        fn compute(
            &self,
            ctx: &mut Context<'_, Self>,
            _id: u64,
            value: &mut u64,
            msgs: &mut [u64],
        ) {
            if ctx.superstep() == 0 {
                ctx.send_message(0, 1);
            } else {
                *value += msgs.iter().sum::<u64>();
            }
            ctx.vote_to_halt();
        }

        fn combine(&self, acc: &mut u64, incoming: u64) {
            *acc += incoming;
        }
    }

    #[test]
    fn combiner_merges_messages() {
        let config = PregelConfig::default();
        let (set, metrics) = run_pairs(&SumToRoot, 4, &config, (0..100).map(|i| (i, 0u64)));
        assert_eq!(*set.get(&0).unwrap(), 100);
        // 100 logical messages were sent even though the combiner merged them.
        assert_eq!(metrics.total_messages, 100);
        assert!(metrics.converged);
    }

    #[test]
    fn combiner_delivers_exactly_one_message_per_vertex() {
        /// Asserts that sender-side + shuffle combining leave exactly one
        /// physical message for the receiving vertex.
        struct CountSlice;
        impl VertexProgram for CountSlice {
            type Id = u64;
            type Value = u64;
            type Message = u64;
            type Aggregate = NoAggregate;
            const USE_COMBINER: bool = true;
            fn compute(
                &self,
                ctx: &mut Context<'_, Self>,
                _id: u64,
                value: &mut u64,
                msgs: &mut [u64],
            ) {
                if ctx.superstep() == 0 {
                    ctx.send_message(3, 5);
                } else if !msgs.is_empty() {
                    assert_eq!(msgs.len(), 1, "combiner must merge to a single message");
                    *value = msgs[0];
                }
                ctx.vote_to_halt();
            }
            fn combine(&self, acc: &mut u64, incoming: u64) {
                *acc += incoming;
            }
        }
        let config = PregelConfig::default();
        let (set, _) = run_pairs(&CountSlice, 2, &config, (0..40).map(|i| (i, 0u64)));
        assert_eq!(*set.get(&3).unwrap(), 40 * 5);
    }

    /// Messages to unknown vertices are dropped and counted, not fatal.
    struct SendToNowhere;
    impl VertexProgram for SendToNowhere {
        type Id = u64;
        type Value = ();
        type Message = ();
        type Aggregate = BoolOr;
        fn compute(&self, ctx: &mut Context<'_, Self>, _id: u64, _v: &mut (), _m: &mut [()]) {
            if ctx.superstep() == 0 {
                ctx.send_message(9999, ());
            }
            ctx.vote_to_halt();
        }
    }

    #[test]
    fn messages_to_missing_vertices_are_dropped() {
        let config = PregelConfig::default();
        let (_, metrics) = run_pairs(&SendToNowhere, 2, &config, (0..5).map(|i| (i, ())));
        assert_eq!(metrics.total_dropped, 5);
        assert!(metrics.converged);
    }

    /// A program that never halts hits the superstep cap and reports
    /// non-convergence instead of looping forever.
    struct NeverHalts;
    impl VertexProgram for NeverHalts {
        type Id = u64;
        type Value = ();
        type Message = ();
        type Aggregate = NoAggregate;
        fn compute(&self, _ctx: &mut Context<'_, Self>, _id: u64, _v: &mut (), _m: &mut [()]) {}
    }

    #[test]
    fn superstep_cap_stops_runaway_jobs() {
        let config = PregelConfig::default().max_supersteps(5);
        let (_, metrics) = run_pairs(&NeverHalts, 2, &config, (0..3).map(|i| (i, ())));
        assert!(!metrics.converged);
        assert_eq!(metrics.supersteps, 5);
    }

    /// A sparse-frontier program: everything halts at superstep 0 except one
    /// token walking a short chain, so the mean frontier density must land
    /// far below the dense superstep 0's 1.0.
    struct SparseWalk {
        steps: u64,
    }
    impl VertexProgram for SparseWalk {
        type Id = u64;
        type Value = u64;
        type Message = u64;
        type Aggregate = NoAggregate;
        fn compute(&self, ctx: &mut Context<'_, Self>, id: u64, value: &mut u64, msgs: &mut [u64]) {
            if ctx.superstep() == 0 {
                if id == 0 {
                    ctx.send_message(1, 1);
                }
            } else if let Some(&hop) = msgs.first() {
                *value = hop;
                if hop < self.steps {
                    ctx.send_message(id + 1, hop + 1);
                }
            }
            ctx.vote_to_halt();
        }
    }

    #[test]
    fn frontier_density_reflects_sparse_frontiers() {
        let config = PregelConfig::default();
        let (_, metrics) = run_pairs(
            &SparseWalk { steps: 10 },
            2,
            &config,
            (0..1000).map(|i| (i, 0u64)),
        );
        assert!(metrics.converged);
        // Superstep 0 computes all 1000 vertices, every later superstep
        // computes exactly one: the mean must sit near 1000/n_steps ÷ 1000,
        // well below a dense job's 1.0.
        assert!(
            metrics.avg_frontier_density < 0.2,
            "sparse walk reported density {}",
            metrics.avg_frontier_density
        );
        assert!(metrics.avg_frontier_density > 0.0);
        assert!(metrics.peak_store_resident_bytes > 0);
        // A dense program over the same set reports a dense mean.
        let (_, dense) = run_pairs(
            &NeverHalts,
            2,
            &config.clone().max_supersteps(3),
            (0..10).map(|i| (i, ())),
        );
        assert!(dense.avg_frontier_density > 0.99);
    }

    #[test]
    fn empty_vertex_set_converges_immediately() {
        let config = PregelConfig::default();
        let (set, metrics) = run_pairs(&NeverHalts, 2, &config, std::iter::empty::<(u64, ())>());
        assert!(set.is_empty());
        assert!(metrics.converged);
        assert_eq!(metrics.supersteps, 1);
    }

    #[test]
    fn control_polls_are_counted_per_superstep_boundary() {
        let ctx = ExecCtx::new(2);
        let control = crate::control::JobControl::new();
        ctx.set_control(control.clone());
        let config = PregelConfig::default()
            .max_supersteps(4)
            .track_supersteps(true);
        let mut set: VertexSet<u64, ()> = VertexSet::from_pairs(2, (0..6).map(|i| (i, ())));
        let metrics = run_on(&ctx, &NeverHalts, &config, &mut set);
        ctx.clear_control();
        assert_eq!(metrics.supersteps, 4);
        assert_eq!(metrics.total_cancellation_checks, 4);
        assert!(metrics
            .per_superstep
            .iter()
            .all(|s| s.cancellation_checks == 1));
        assert_eq!(control.checks(), 4);
        // Without a control handle the counters stay zero.
        let mut set: VertexSet<u64, ()> = VertexSet::from_pairs(2, (0..6).map(|i| (i, ())));
        let metrics = run_on(&ctx, &NeverHalts, &config, &mut set);
        assert_eq!(metrics.total_cancellation_checks, 0);
        assert!(metrics
            .per_superstep
            .iter()
            .all(|s| s.cancellation_checks == 0));
    }

    #[test]
    fn requested_cancel_mid_job_is_typed_and_leaves_the_pool_reusable() {
        use crate::control::{CancelReason, JobControl};
        let ctx = ExecCtx::new(2);
        let control = JobControl::new();
        ctx.set_control(control.clone());

        // Cancel strictly *inside* the job, deterministically: a watcher
        // thread waits until the boundary poll of superstep 2 has run (the
        // third check), then cancels, so the trip surfaces at the superstep 3
        // boundary — no wall-clock coupling. (Plain `thread::spawn` is fine
        // here: this is a test, not a steady-state parallel path.)
        let watcher = {
            let control = control.clone();
            std::thread::spawn(move || {
                while control.checks() < 3 {
                    std::thread::yield_now();
                }
                control.cancel();
            })
        };
        let config = PregelConfig::default().max_supersteps(1000);
        let mut set: VertexSet<u64, ()> = VertexSet::from_pairs(2, (0..8).map(|i| (i, ())));
        let err = try_run_on(&ctx, &NeverHalts, &config, &mut set).unwrap_err();
        watcher.join().expect("watcher thread");
        ctx.clear_control();
        match err {
            EngineError::Cancelled { reason, superstep } => {
                assert_eq!(reason, CancelReason::Requested);
                // The cancel lands strictly after the third poll, so the trip
                // can only surface at a later boundary — mid-job, never at
                // job start.
                assert!(superstep >= 3, "tripped too early, at {superstep}");
            }
            other => panic!("expected a cancellation, got {other:?}"),
        }
        assert!(err.to_string().contains("cancelled"));

        // The pool is immediately reusable and deterministic.
        let (set, metrics) = run_pairs(
            &SumToRoot,
            2,
            &PregelConfig::default(),
            (0..100).map(|i| (i, 0u64)),
        );
        assert_eq!(*set.get(&0).unwrap(), 100);
        assert!(metrics.converged);
    }

    #[test]
    fn memory_budget_trip_fires_at_the_first_boundary_over_the_cap() {
        use crate::control::{CancelReason, JobControl};
        let ctx = ExecCtx::new(2);
        // 1 byte: any non-empty store exceeds it at the first boundary.
        ctx.set_control(JobControl::new().with_memory_budget(1));
        let config = PregelConfig::default().max_supersteps(10);
        let mut set: VertexSet<u64, ()> = VertexSet::from_pairs(2, (0..8).map(|i| (i, ())));
        let err = try_run_on(&ctx, &NeverHalts, &config, &mut set).unwrap_err();
        ctx.clear_control();
        assert_eq!(
            err,
            EngineError::Cancelled {
                reason: CancelReason::MemoryBudget,
                superstep: 0,
            }
        );
    }

    #[test]
    fn stall_fault_makes_deadline_trips_deterministic() {
        use crate::control::{CancelReason, JobControl};
        use crate::fault::{Fault, FaultPlan};
        use std::time::Duration;
        let ctx = ExecCtx::new(2);
        // The stall dwarfs the deadline while the deadline dwarfs a real
        // superstep on 8 trivial vertices: boundary 0 polls well inside the
        // 150ms budget, then the injected 600ms stall guarantees boundary 1
        // polls past it — the trip lands at superstep 1 with no wall-clock
        // race in either direction.
        let armed = ctx.inject_faults(FaultPlan::single(Fault::Stall {
            superstep: 1,
            millis: 600,
        }));
        ctx.set_control(JobControl::new().with_deadline_in(Duration::from_millis(150)));
        let config = PregelConfig::default().max_supersteps(10);
        let mut set: VertexSet<u64, ()> = VertexSet::from_pairs(2, (0..8).map(|i| (i, ())));
        let err = try_run_on(&ctx, &NeverHalts, &config, &mut set).unwrap_err();
        ctx.clear_control();
        ctx.clear_faults();
        assert!(armed.all_fired(), "the stall must fire");
        assert_eq!(
            err,
            EngineError::Cancelled {
                reason: CancelReason::Deadline,
                superstep: 1,
            }
        );
    }

    #[test]
    fn try_run_on_reraises_non_cancellation_panics() {
        use crate::fault::{Fault, FaultPlan};
        let ctx = ExecCtx::new(2);
        let armed = ctx.inject_faults(FaultPlan::single(Fault::Superstep {
            stage: usize::MAX, // matches NO_STAGE: no pipeline entered a stage
            superstep: 0,
            worker: 0,
        }));
        let config = PregelConfig::default().max_supersteps(5);
        let mut set: VertexSet<u64, ()> = VertexSet::from_pairs(2, (0..4).map(|i| (i, ())));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            try_run_on(&ctx, &NeverHalts, &config, &mut set)
        }));
        ctx.clear_faults();
        assert!(armed.all_fired());
        assert!(
            outcome.is_err(),
            "a worker fault is not a cancellation and must re-raise"
        );
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_worker_count_panics() {
        let mut set: VertexSet<u64, ()> = VertexSet::from_pairs(3, (0..3).map(|i| (i, ())));
        let _ = run_on(
            &ExecCtx::new(2),
            &NeverHalts,
            &PregelConfig::default(),
            &mut set,
        );
    }

    // ---- spill policy ----------------------------------------------------------

    #[test]
    fn programs_without_codecs_ignore_the_spill_policy() {
        // A cap far below the store changes nothing: the runner is resident,
        // so values, supersteps and messages equal the uncapped job's.
        let n = 2000u64;
        let program = MaxFlood { ring: n as usize };
        let pairs = || {
            (0..n).map(move |i| {
                (
                    i,
                    MaxState {
                        value: i.wrapping_mul(2654435761) % 997,
                        next: (i + 1) % n,
                    },
                )
            })
        };
        let config = PregelConfig::default().max_supersteps(3 * n as usize);
        let (resident, base) = run_pairs(&program, 2, &config, pairs());
        let ctx = ExecCtx::new(2);
        ctx.set_spill(crate::spill::SpillPolicy::At(1));
        let mut capped = VertexSet::from_pairs(2, pairs());
        let metrics = run_on(&ctx, &program, &config, &mut capped);
        ctx.clear_spill();
        let values = |set: VertexSet<u64, MaxState>| -> Vec<(u64, u64)> {
            set.iter().map(|(id, v)| (id, v.value)).collect()
        };
        assert_eq!(values(capped), values(resident));
        assert_eq!(metrics.supersteps, base.supersteps);
        assert_eq!(metrics.total_messages, base.total_messages);
        assert_eq!(metrics.spilled_bytes, 0);
        assert_eq!(metrics.spill_read_bytes, 0);
        assert_eq!(metrics.spilled_runs, 0);
    }

    // ---- property tests: sorted slice delivery vs. hash-map grouping --------

    /// A scatter program driven by an explicit send plan: in superstep 0 every
    /// vertex sends its planned `(target, payload)` messages; in superstep 1
    /// every vertex folds what it received into its value.
    struct PlannedScatter {
        /// `plan[v]` lists the messages vertex `v` sends in superstep 0.
        plan: Vec<Vec<(u64, u64)>>,
        combine: bool,
    }

    impl VertexProgram for PlannedScatter {
        type Id = u64;
        type Value = u64;
        type Message = u64;
        type Aggregate = NoAggregate;
        // The combiner decision is made per-instance for the test; the engine
        // only checks the associated const, so model "combiner on" with a
        // second wrapper below.
        fn compute(&self, ctx: &mut Context<'_, Self>, id: u64, value: &mut u64, msgs: &mut [u64]) {
            assert!(!self.combine);
            scatter_step(&self.plan, ctx, id, value, msgs);
        }
    }

    /// Same program with `USE_COMBINER = true` (sum combiner).
    struct PlannedScatterCombined {
        plan: Vec<Vec<(u64, u64)>>,
    }

    impl VertexProgram for PlannedScatterCombined {
        type Id = u64;
        type Value = u64;
        type Message = u64;
        type Aggregate = NoAggregate;
        const USE_COMBINER: bool = true;
        fn compute(&self, ctx: &mut Context<'_, Self>, id: u64, value: &mut u64, msgs: &mut [u64]) {
            scatter_step(&self.plan, ctx, id, value, msgs);
        }
        fn combine(&self, acc: &mut u64, incoming: u64) {
            *acc += incoming;
        }
    }

    /// Hash-grouping oracle: the delivered sum per vertex is independent of
    /// how the shuffle groups messages. (FxHashMap like the engine's own
    /// partitions — no reason for the test oracle to pay SipHash.)
    fn oracle_sums(n: u64, plan: &[Vec<(u64, u64)>]) -> Vec<u64> {
        let mut sums = vec![0u64; n as usize];
        let mut grouped: crate::fxhash::FxHashMap<u64, Vec<u64>> =
            crate::fxhash::FxHashMap::default();
        for sends in plan {
            for &(target, payload) in sends {
                grouped.entry(target).or_default().push(payload);
            }
        }
        for (target, payloads) in grouped {
            if target < n {
                sums[target as usize] = payloads.into_iter().sum();
            }
        }
        sums
    }

    fn scatter_step(
        plan: &[Vec<(u64, u64)>],
        ctx: &mut Context<'_, impl VertexProgram<Id = u64, Value = u64, Message = u64>>,
        id: u64,
        value: &mut u64,
        msgs: &mut [u64],
    ) {
        if ctx.superstep() == 0 {
            for &(target, payload) in &plan[id as usize] {
                ctx.send_message(target, payload);
            }
        } else {
            *value += msgs.iter().sum::<u64>();
        }
        ctx.vote_to_halt();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_sorted_delivery_matches_hash_grouping(
            n in 1u64..40,
            raw in proptest::collection::vec((0u64..40, 0u64..40, 1u64..100), 0..200),
            workers in 1usize..6,
        ) {
            let mut plan: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n as usize];
            let mut dropped_expected = 0u64;
            for &(sender, target, payload) in &raw {
                let sender = sender % n;
                if target >= n {
                    dropped_expected += 1;
                }
                plan[sender as usize].push((target, payload));
            }
            let expected = oracle_sums(n, &plan);
            let config = PregelConfig::default();

            // Without a combiner.
            let program = PlannedScatter { plan: plan.clone(), combine: false };
            let (set, metrics) =
                run_pairs(&program, workers, &config, (0..n).map(|i| (i, 0u64)));
            for (id, v) in set.iter() {
                prop_assert_eq!(*v, expected[id as usize]);
            }
            prop_assert_eq!(metrics.total_dropped, dropped_expected);
            prop_assert_eq!(metrics.total_messages, raw.len() as u64);

            // With a sum combiner: same delivered totals, same logical count.
            let program = PlannedScatterCombined { plan };
            let (set, metrics) =
                run_pairs(&program, workers, &config, (0..n).map(|i| (i, 0u64)));
            for (id, v) in set.iter() {
                prop_assert_eq!(*v, expected[id as usize]);
            }
            prop_assert_eq!(metrics.total_messages, raw.len() as u64);
        }
    }

    // ---- property test: columnar engine vs. sequential BSP oracle -----------

    /// A program with data-dependent halting: every vertex folds its inbound
    /// sum, conditionally relays, and votes to halt only when its value is
    /// not divisible by 3 — so the final halt flags (not just the values)
    /// depend on the whole message history.
    struct HaltPattern {
        n: u64,
        rounds: usize,
    }

    impl HaltPattern {
        /// The shared per-vertex step, used by both the engine run and the
        /// sequential oracle: returns (messages to send, new halt flag).
        fn step(
            &self,
            superstep: usize,
            id: u64,
            value: &mut u64,
            inbound_sum: u64,
        ) -> (Vec<(u64, u64)>, bool) {
            *value = value.wrapping_add(inbound_sum);
            let mut sends = Vec::new();
            if superstep == 0 {
                for f in 0..id % 3 {
                    sends.push(((id * 7 + f * 13) % self.n, id + f));
                }
            } else if !(*value).is_multiple_of(5) {
                sends.push(((id + 1) % self.n, *value % 11));
            }
            (sends, !(*value).is_multiple_of(3))
        }
    }

    impl VertexProgram for HaltPattern {
        type Id = u64;
        type Value = u64;
        type Message = u64;
        type Aggregate = NoAggregate;

        fn compute(&self, ctx: &mut Context<'_, Self>, id: u64, value: &mut u64, msgs: &mut [u64]) {
            let (sends, halt) = self.step(ctx.superstep(), id, value, msgs.iter().sum());
            for (to, payload) in sends {
                ctx.send_message(to, payload);
            }
            if halt {
                ctx.vote_to_halt();
            }
        }

        fn should_terminate(&self, _agg: &NoAggregate, superstep: usize) -> bool {
            superstep + 1 >= self.rounds
        }
    }

    /// Sequential reference implementation of the BSP semantics over a plain
    /// hash map (the pre-columnar entry layout), mirroring the runner's
    /// activation, termination and halt rules step for step.
    fn oracle_run(program: &HaltPattern) -> (Vec<(u64, u64, bool)>, usize) {
        struct Entry {
            value: u64,
            halted: bool,
        }
        let mut state: crate::fxhash::FxHashMap<u64, Entry> = (0..program.n)
            .map(|i| {
                (
                    i,
                    Entry {
                        value: i,
                        halted: false,
                    },
                )
            })
            .collect();
        let mut inbox: crate::fxhash::FxHashMap<u64, u64> = crate::fxhash::FxHashMap::default();
        let mut supersteps = 0usize;
        let mut superstep = 0usize;
        loop {
            let mut outbox: crate::fxhash::FxHashMap<u64, u64> =
                crate::fxhash::FxHashMap::default();
            let mut messages = 0u64;
            let mut all_halted = true;
            for id in 0..program.n {
                let entry = state.get_mut(&id).expect("exists");
                let inbound = inbox.remove(&id);
                if entry.halted && inbound.is_none() {
                    continue;
                }
                let (sends, halt) =
                    program.step(superstep, id, &mut entry.value, inbound.unwrap_or(0));
                for (to, payload) in sends {
                    if to < program.n {
                        *outbox.entry(to).or_insert(0) += payload;
                    }
                    messages += 1;
                }
                entry.halted = halt;
            }
            for entry in state.values() {
                all_halted &= entry.halted;
            }
            supersteps += 1;
            if program.should_terminate(&NoAggregate, superstep) {
                break;
            }
            if messages == 0 && all_halted {
                break;
            }
            inbox = outbox;
            superstep += 1;
        }
        let mut out: Vec<(u64, u64, bool)> = state
            .into_iter()
            .map(|(id, e)| (id, e.value, e.halted))
            .collect();
        out.sort_unstable();
        (out, supersteps)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_values_and_halt_flags_match_sequential_oracle(
            n in 1u64..120,
            rounds in 1usize..12,
            workers in 1usize..6,
        ) {
            let program = HaltPattern { n, rounds };
            let (expected, oracle_steps) = oracle_run(&program);
            let config = PregelConfig::default();
            let (set, metrics) = run_pairs(&program, workers, &config, (0..n).map(|i| (i, i)));
            prop_assert_eq!(metrics.supersteps, oracle_steps);
            for (id, value, halted) in expected {
                prop_assert_eq!(set.get(&id), Some(&value), "value of {}", id);
                prop_assert_eq!(set.halted_of(&id), Some(halted), "halt flag of {}", id);
            }
        }
    }
}
