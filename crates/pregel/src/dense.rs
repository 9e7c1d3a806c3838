//! The superstep engine: a vertex store and runner for programs whose
//! vertices are the consecutive `u32` ranks `0..n`.
//!
//! When every vertex is one of `n` consecutive integers, finding a vertex
//! needs no search. A [`DenseSet`] partitions the ranks by **range** — worker
//! `w` owns one contiguous run of them — and keeps each partition's states in
//! a plain `Vec` indexed by `rank − base`, next to a packed halted bitset (one
//! bit per slot, so the scan for active vertices skips 64 halted ones per word
//! compare). There is no ID column; a rank that takes no part in the job is a
//! `None` slot whose halted bit stays set.
//!
//! [`run_dense_on`] drives a [`VertexProgram`] over such a store until no
//! vertex is active and no message is in flight (or the program's
//! [`should_terminate`](VertexProgram::should_terminate) fires), collecting
//! [`Metrics`] along the way. Each superstep has two parallel phases on the
//! [`ExecCtx`]'s persistent pool:
//!
//! * **compute** — every worker runs two passes over its range: ascending
//!   vertices with messages, then ascending active vertices without.
//!   [`Context::send_message`] finds the destination worker with a
//!   multiply–shift on a per-job constant (`RankRanges`; no hash, no modulo)
//!   and appends the record to that worker's outbox, unsorted. A rank at or
//!   beyond `n` has no owner: it is dropped at the sender and reported with
//!   the next superstep's drops, the superstep in which a message to a rank
//!   that takes no part is dropped at its receiver.
//! * **exchange** — each worker takes the outboxes addressed to it, senders
//!   in worker order, and runs one stable counting scatter over them
//!   ([`radix::scatter_to_slots`](crate::radix)): count per slot, prefix-sum,
//!   place. The result is a CSR inbox — slot `s` holds
//!   `inbox[offsets[s]..offsets[s + 1]]` in (source worker, send order) —
//!   with nothing to sort and nothing to join. At one worker an inbox is
//!   therefore in send order, and a job sends, delivers and drops exactly
//!   what a sequential BSP loop with the same compute order does.
//!
//! Outboxes, offsets and inboxes belong to the job: they reach their
//! high-water capacity in the first supersteps, are reused by every later
//! one, and are dropped when the job returns. Like Pregel+, the runner
//! keeps every vertex and message in memory: a
//! [`SpillPolicy`](crate::SpillPolicy) cap on the [`ExecCtx`] binds the keyed
//! pass, not the superstep runner.

use crate::aggregate::Aggregate;
use crate::config::PregelConfig;
use crate::control::JobControl;
use crate::engine::{EngineError, ExecCtx};
use crate::fault::ArmedFaults;
use crate::metrics::{Metrics, SuperstepMetrics};
use crate::vertex::{Context, VertexProgram};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sets or clears bit `slot` in a packed bitset.
#[inline]
fn set_bit(words: &mut [u64], slot: usize, on: bool) {
    let (w, m) = (slot >> 6, 1u64 << (slot & 63));
    if on {
        words[w] |= m;
    } else {
        words[w] &= !m;
    }
}

/// Index of the first word at or after `from` that is not all-ones, i.e.
/// still has an unhalted slot: the scan for active vertices skips whole
/// halted words with it.
#[inline]
fn next_word_with_zero(words: &[u64], from: usize) -> Option<usize> {
    words
        .get(from..)?
        .iter()
        .position(|&w| w != u64::MAX)
        .map(|i| from + i)
}

/// Range ownership of the ranks `0..ranks` over a job's workers: the owner of
/// `rank` is `(rank · scale) >> 48`, which is monotone in `rank`, so every
/// worker owns one contiguous run of ranks, all within a few ranks of equal.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RankRanges {
    ranks: u64,
    /// `⌊workers · 2⁴⁸ / ranks⌋`: rounding down keeps the last rank's owner
    /// below `workers`, and 48 fraction bits keep the rounding's effect on
    /// the range bounds below `ranks² / 2⁴⁸` ranks.
    scale: u64,
}

impl RankRanges {
    const SHIFT: u32 = 48;

    pub(crate) fn new(ranks: u32, workers: usize) -> RankRanges {
        // `rank · scale` stays below `workers << SHIFT`, which has to fit.
        assert!(
            workers < 1 << 16,
            "{workers} workers: rank ranges hold 2^16"
        );
        let ranks = ranks as u64;
        RankRanges {
            ranks,
            scale: ((workers as u64) << Self::SHIFT)
                .checked_div(ranks)
                .unwrap_or(0),
        }
    }

    /// The worker owning `rank`; `None` at or beyond the last rank.
    #[inline]
    pub(crate) fn owner(&self, rank: u64) -> Option<usize> {
        (rank < self.ranks).then(|| ((rank * self.scale) >> Self::SHIFT) as usize)
    }

    /// The first rank of `worker`: the smallest rank whose owner is not below
    /// it (the number of ranks for a worker past the last).
    fn base(&self, worker: usize) -> u32 {
        if self.scale == 0 {
            return 0; // no ranks at all
        }
        ((worker as u64) << Self::SHIFT)
            .div_ceil(self.scale)
            .min(self.ranks) as u32
    }
}

/// One worker's contiguous run of ranks.
struct DensePart<V> {
    /// The rank of slot 0.
    base: u32,
    /// `values[rank − base]`; `None` for a rank that takes no part.
    values: Vec<Option<V>>,
    /// One halted bit per slot. Absent slots and the padding of the last
    /// word stay set, so a partition is quiescent when every word is ones.
    halted: Vec<u64>,
}

/// A vertex store over the dense ranks `0..n`, range-partitioned over the
/// workers of an [`ExecCtx`]; see the [module docs](self).
pub struct DenseSet<V> {
    ranges: RankRanges,
    parts: Vec<DensePart<V>>,
}

impl<V: Send> DenseSet<V> {
    /// Builds the store on the context's pool. Every worker walks its own
    /// range in ascending order: `state_of(rank, side)` gives the vertex's
    /// state, or `None` for a rank that takes no part, and may record what
    /// does not fit a fixed-size state in `side`, the worker's own (handed
    /// back per worker — [`Context::worker`] names the same worker when the
    /// vertex computes).
    pub fn from_fn_on<S: Default + Send>(
        ctx: &ExecCtx,
        ranks: u32,
        state_of: impl Fn(u32, &mut S) -> Option<V> + Sync,
    ) -> (DenseSet<V>, Vec<S>) {
        let workers = ctx.workers();
        let ranges = RankRanges::new(ranks, workers);
        let (parts, sides) = ctx
            .pool()
            .run_per_worker(vec![(); workers], |w, ()| {
                let base = ranges.base(w);
                let mut side = S::default();
                let values: Vec<Option<V>> = (base..ranges.base(w + 1))
                    .map(|rank| state_of(rank, &mut side))
                    .collect();
                let halted = vec![u64::MAX; values.len().div_ceil(64)];
                let part = DensePart {
                    base,
                    values,
                    halted,
                };
                (part, side)
            })
            .into_iter()
            .unzip();
        (DenseSet { ranges, parts }, sides)
    }

    /// The number of ranks `n` the store spans, present or not.
    pub fn ranks(&self) -> u32 {
        self.ranges.ranks as u32
    }

    /// The number of workers the ranks are partitioned over.
    pub fn workers(&self) -> usize {
        self.parts.len()
    }

    /// The number of vertices: ranks that take part.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether no rank takes part.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// Every vertex with its rank, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &V)> {
        self.parts.iter().flat_map(|part| {
            (part.base..)
                .zip(&part.values)
                .filter_map(|(rank, value)| Some((rank, value.as_ref()?)))
        })
    }

    /// Writes `f(state)` to `out[rank]` for every vertex, each pool worker
    /// filling the slice of its own range; absent ranks are left as they are.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not have one entry per rank.
    pub fn read_on<T: Send>(&self, ctx: &ExecCtx, out: &mut [T], f: impl Fn(&V) -> T + Sync)
    where
        V: Sync,
    {
        assert_eq!(out.len(), self.ranks() as usize, "one entry per rank");
        ctx.assert_matches(self.workers(), "DenseSet partitioning");
        let mut rest = out;
        let mut inputs = Vec::with_capacity(self.parts.len());
        for part in &self.parts {
            let (own, tail) = rest.split_at_mut(part.values.len());
            inputs.push((part, own));
            rest = tail;
        }
        ctx.pool().run_per_worker(inputs, |_w, (part, own)| {
            for (slot, value) in own.iter_mut().zip(&part.values) {
                if let Some(value) = value {
                    *slot = f(value);
                }
            }
        });
    }

    /// Heap bytes held by the store: the value and halted columns.
    pub fn resident_bytes(&self) -> usize {
        let held = |p: &DensePart<V>| {
            p.values.capacity() * std::mem::size_of::<Option<V>>() + p.halted.capacity() * 8
        };
        self.parts.iter().map(held).sum()
    }
}

/// One worker's job-local message buffers.
struct DensePlane<M> {
    /// What this worker sent this superstep, per destination worker.
    outbox: Vec<Vec<(u32, M)>>,
    /// What was sent to this worker, per source worker: the other workers'
    /// outboxes for it, lent for the exchange phase and handed back drained.
    column: Vec<Vec<(u32, M)>>,
    /// CSR bounds of `inbox` per slot (`slots + 2` entries, the last one the
    /// scatter's working room).
    offsets: Vec<u32>,
    inbox: Vec<M>,
}

/// What one worker's compute phase reports to the coordinator.
struct StepCounts<A> {
    aggregate: A,
    sent: u64,
    dropped: u64,
    unrouted: u64,
    active: usize,
    quiescent: bool,
}

/// The results of a pool phase; a worker's panic, which the pool hands back as
/// a value once the phase has drained, is re-raised typed on this — the
/// coordinator — thread.
fn on_pool<T>(phase: Result<T, EngineError>) -> T {
    phase.unwrap_or_else(|err| std::panic::panic_any(err))
}

/// The coordinator's stop at a superstep boundary: the store is
/// barrier-consistent and `store_resident_bytes` fresh, so this is where the
/// memory budget is checked. A `Stall` fault (testing hook) sleeps first,
/// making deadline trips deterministic without real wall-clock races. A trip
/// is raised here, between phases — the pool never sees the panic and stays
/// reusable; the caller (the pipeline's `catch_unwind`) downcasts the payload
/// back into the typed error. Returns the polls made.
fn poll_boundary(
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
fn pool_utilization(ctx: &ExecCtx, busy_before: u64, phase_wall: Duration) -> f64 {
    let busy = ctx.pool().busy_nanos().saturating_sub(busy_before);
    let capacity = phase_wall.as_nanos() as u64 * ctx.workers() as u64;
    if capacity == 0 {
        0.0
    } else {
        (busy as f64 / capacity as f64).min(1.0)
    }
}

/// Runs `program` over the dense store on `ctx`'s persistent worker pool
/// until convergence and returns the metrics; the store keeps the final
/// states. Inside a workflow all jobs share one context, so they share its
/// pool.
///
/// Every superstep probes the context's armed faults per worker and polls
/// its [`JobControl`] at the boundary (the memory budget reads
/// [`DenseSet::resident_bytes`]); a trip unwinds with a typed
/// [`EngineError::Cancelled`]. The job stops when the program's
/// [`should_terminate`](VertexProgram::should_terminate) fires, when a
/// superstep sends nothing and leaves every vertex halted (converged), or at
/// the config's `max_supersteps` cap (not converged). In the [`Metrics`],
/// `compute_elapsed` covers delivery, compute and send, `shuffle_elapsed` the
/// counting scatter, and `id_column_compression` is 1.0 — there is no ID
/// column. A worker panic is raised on the calling thread as
/// [`EngineError::WorkerPanic`], after the phase has drained, so the pool
/// stays reusable.
///
/// # Panics
///
/// Panics if `ctx`'s pool size differs from the partitioning of `vertices`.
pub fn run_dense_on<P: VertexProgram>(
    ctx: &ExecCtx,
    program: &P,
    config: &PregelConfig,
    vertices: &mut DenseSet<P::Value>,
) -> Metrics {
    let workers = vertices.workers();
    ctx.assert_matches(workers, "DenseSet partitioning");
    let job_start = Instant::now();

    // Every vertex starts active; the planes start empty.
    let mut planes: Vec<DensePlane<P::Message>> = vertices
        .parts
        .iter_mut()
        .map(|part| {
            part.halted.fill(u64::MAX);
            for (slot, value) in part.values.iter().enumerate() {
                if value.is_some() {
                    set_bit(&mut part.halted, slot, false);
                }
            }
            DensePlane {
                outbox: (0..workers).map(|_| Vec::new()).collect(),
                column: (0..workers).map(|_| Vec::new()).collect(),
                offsets: vec![0; part.values.len() + 2],
                inbox: Vec::new(),
            }
        })
        .collect();
    let total_vertices = vertices.len();
    let store_resident_bytes = vertices.resident_bytes() as u64;
    let ranges = vertices.ranges;
    let faults = ctx.faults();
    let control = ctx.control();
    let mut prev_aggregate = P::Aggregate::identity();
    let mut metrics = Metrics::default();
    // Sent to no rank in the previous superstep; counted with this one's drops.
    let mut unrouted = 0u64;

    for superstep in 0..config.max_supersteps {
        let step_start = Instant::now();
        let busy_before = ctx.pool().busy_nanos();

        // ---- compute phase ---------------------------------------------------
        let inputs: Vec<_> = vertices.parts.iter_mut().zip(planes.iter_mut()).collect();
        let counts = on_pool(ctx.pool().try_run_per_worker(inputs, |w, (part, plane)| {
            if let Some(f) = &faults {
                f.probe_superstep(superstep, w);
            }
            let mut counts = StepCounts {
                aggregate: P::Aggregate::identity(),
                sent: 0,
                dropped: 0,
                unrouted: 0,
                active: 0,
                quiescent: false,
            };
            let (base, halted) = (part.base, &mut part.halted);
            let mut compute = |halted: &mut [u64],
                               slot: usize,
                               value: &mut P::Value,
                               messages: &mut [P::Message]| {
                let mut vctx: Context<'_, P> = Context {
                    superstep,
                    worker: w,
                    num_workers: workers,
                    total_vertices,
                    prev_aggregate: &prev_aggregate,
                    local_aggregate: &mut counts.aggregate,
                    outbox: &mut plane.outbox,
                    ranges,
                    unrouted: &mut counts.unrouted,
                    messages_sent: &mut counts.sent,
                    halt: false,
                };
                program.compute(&mut vctx, base + slot as u32, value, messages);
                set_bit(halted, slot, vctx.halt);
                counts.active += 1;
            };
            // Pass 1: vertices with messages, ascending.
            let (offsets, inbox) = (&plane.offsets, &mut plane.inbox);
            for (slot, value) in part.values.iter_mut().enumerate() {
                let (lo, hi) = (offsets[slot] as usize, offsets[slot + 1] as usize);
                match value {
                    Some(value) if lo < hi => compute(halted, slot, value, &mut inbox[lo..hi]),
                    _ => counts.dropped += (hi - lo) as u64,
                }
            }
            // Pass 2: active vertices that received nothing, ascending. A
            // zero bit is a present, unhalted slot; one with messages was
            // computed above. `compute` only touches the current word.
            let mut from = 0;
            while let Some(word) = next_word_with_zero(halted, from) {
                let mut active = !halted[word];
                while active != 0 {
                    let slot = (word << 6) + active.trailing_zeros() as usize;
                    active &= active - 1;
                    if offsets[slot] == offsets[slot + 1] {
                        let value = part.values[slot]
                            .as_mut()
                            .expect("an active slot is present");
                        compute(halted, slot, value, &mut []);
                    }
                }
                from = word + 1;
            }
            counts.quiescent = next_word_with_zero(halted, 0).is_none();
            counts
        }));
        let compute_elapsed = step_start.elapsed();

        // ---- aggregate & control poll (superstep boundary) --------------------
        let mut aggregate = P::Aggregate::identity();
        let mut step = SuperstepMetrics {
            superstep,
            messages_dropped: unrouted,
            compute_elapsed,
            store_resident_bytes,
            id_column_compression: 1.0,
            ..SuperstepMetrics::default()
        };
        unrouted = 0;
        let mut quiescent = true;
        for c in &counts {
            aggregate.combine(&c.aggregate);
            step.messages_sent += c.sent;
            step.messages_dropped += c.dropped;
            step.active_vertices += c.active;
            unrouted += c.unrouted;
            quiescent &= c.quiescent;
        }
        if total_vertices > 0 {
            step.frontier_density = step.active_vertices as f64 / total_vertices as f64;
        }
        step.cancellation_checks =
            poll_boundary(&faults, &control, superstep, store_resident_bytes);

        // ---- exchange phase: one counting scatter per destination worker ------
        let shuffle_start = Instant::now();
        for src in 0..workers {
            for dst in 0..workers {
                planes[dst].column[src] = std::mem::take(&mut planes[src].outbox[dst]);
            }
        }
        let bases = vertices.parts.iter().map(|part| part.base);
        let inputs: Vec<_> = bases.zip(planes.iter_mut()).collect();
        on_pool(ctx.pool().try_run_per_worker(inputs, |_w, (base, plane)| {
            let (offsets, inbox) = (&mut plane.offsets, &mut plane.inbox);
            crate::radix::scatter_to_slots(&mut plane.column, base, offsets, inbox);
        }));
        // The drained buffers go back to their senders, capacity kept.
        for src in 0..workers {
            for dst in 0..workers {
                planes[src].outbox[dst] = std::mem::take(&mut planes[dst].column[src]);
            }
        }
        step.shuffle_elapsed = shuffle_start.elapsed();

        // ---- metrics & termination ---------------------------------------------
        let messages_sent = step.messages_sent;
        step.elapsed = step_start.elapsed();
        step.pool_utilization =
            pool_utilization(ctx, busy_before, compute_elapsed + step.shuffle_elapsed);
        metrics.record(step, config.track_supersteps);
        if program.should_terminate(&aggregate, superstep) || (messages_sent == 0 && quiescent) {
            metrics.converged = true;
            break;
        }
        prev_aggregate = aggregate;
    }
    metrics.elapsed = job_start.elapsed();
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_are_contiguous_balanced_and_agree_with_owner() {
        for workers in 1..=7usize {
            for ranks in [0u32, 1, 2, 5, 64, 1000, 250_001, 3 << 30, u32::MAX] {
                let ranges = RankRanges::new(ranks, workers);
                assert_eq!(ranges.base(0), 0);
                assert_eq!(ranges.base(workers), ranks);
                assert_eq!(ranges.owner(ranks as u64), None);
                assert_eq!(ranges.owner(u64::MAX >> 1), None);
                for w in 0..workers {
                    let (base, end) = (ranges.base(w), ranges.base(w + 1));
                    assert!(base <= end);
                    let share = ranks as usize / workers;
                    let len = (end - base) as usize;
                    // Within a rank or two of equal, plus the rounding of
                    // `scale` where `ranks²` nears 2⁴⁸.
                    let slack = 2 + ((ranks as u64 * ranks as u64) >> RankRanges::SHIFT) as usize;
                    assert!(
                        len.abs_diff(share) <= slack,
                        "{len} of {ranks} over {workers}"
                    );
                    for rank in [base, end.wrapping_sub(1)] {
                        if base < end {
                            assert_eq!(ranges.owner(rank as u64), Some(w), "{rank} of {ranks}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_store_reads_back_what_it_was_built_from() {
        let ctx = ExecCtx::new(3);
        let (set, sides) = DenseSet::from_fn_on(&ctx, 10, |rank, seen: &mut Vec<u32>| {
            seen.push(rank);
            (rank % 4 != 1).then_some(rank * 10)
        });
        assert_eq!(sides.concat(), (0..10).collect::<Vec<u32>>());
        assert_eq!((set.ranks(), set.workers(), set.len()), (10, 3, 7));
        let pairs: Vec<(u32, u32)> = set.iter().map(|(r, v)| (r, *v)).collect();
        assert_eq!(
            pairs,
            [(0, 0), (2, 20), (3, 30), (4, 40), (6, 60), (7, 70), (8, 80)]
        );
        let mut out = vec![u32::MAX; 10];
        set.read_on(&ctx, &mut out, |v| v + 1);
        assert_eq!(
            out,
            [1, u32::MAX, 21, 31, 41, u32::MAX, 61, 71, 81, u32::MAX]
        );
        let (empty, _) = DenseSet::<u8>::from_fn_on(&ctx, 0, |_, _: &mut ()| None);
        assert!(empty.is_empty() && empty.ranks() == 0);
    }

    /// Halts at once: the job does nothing but check its partitioning.
    struct Halt;

    impl VertexProgram for Halt {
        type Value = ();
        type Message = ();
        type Aggregate = crate::aggregate::NoAggregate;

        fn compute(&self, ctx: &mut Context<'_, Self>, _id: u32, _v: &mut (), _m: &mut [()]) {
            ctx.vote_to_halt();
        }
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_worker_count_panics() {
        let (mut set, _) = DenseSet::from_fn_on(&ExecCtx::new(3), 3, |_, _: &mut ()| Some(()));
        let _ = run_dense_on(&ExecCtx::new(2), &Halt, &PregelConfig::default(), &mut set);
    }

    /// Builds a store of `ranks` vertices with `state_of` and runs `program`
    /// over it on `ctx`.
    fn run_ranks<P: VertexProgram>(
        ctx: &ExecCtx,
        program: &P,
        config: &PregelConfig,
        ranks: u32,
        state_of: impl Fn(u32) -> P::Value + Sync,
    ) -> (DenseSet<P::Value>, Metrics) {
        let (mut set, _) =
            DenseSet::from_fn_on(ctx, ranks, |rank, _: &mut ()| Some(state_of(rank)));
        let metrics = run_dense_on(ctx, program, config, &mut set);
        (set, metrics)
    }

    /// The typed error a job unwound with.
    fn typed<T>(job: impl FnOnce() -> T) -> Result<T, EngineError> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).map_err(|payload| {
            *payload
                .downcast::<EngineError>()
                .expect("an engine job unwinds with a typed error")
        })
    }

    /// Each vertex starts with a number and floods the maximum around a ring:
    /// the classic Pregel smoke test of reactivation and halting.
    struct MaxFlood;

    impl VertexProgram for MaxFlood {
        type Value = u64;
        type Message = u64;
        type Aggregate = crate::aggregate::NoAggregate;

        fn compute(&self, ctx: &mut Context<'_, Self>, rank: u32, value: &mut u64, m: &mut [u64]) {
            let before = *value;
            *value = m.iter().fold(*value, |max, &x| max.max(x));
            if ctx.superstep() == 0 || *value > before {
                ctx.send_message((rank + 1) % ctx.num_vertices() as u32, *value);
            }
            ctx.vote_to_halt();
        }
    }

    #[test]
    fn max_flood_on_ring_converges() {
        let start = |rank: u32| rank as u64 * 7 % 97;
        let (set, metrics) = run_ranks(
            &ExecCtx::new(4),
            &MaxFlood,
            &PregelConfig::default(),
            64,
            start,
        );
        let max = (0..64).map(start).max().unwrap();
        assert!(set.iter().all(|(_, v)| *v == max));
        assert!(metrics.converged);
        assert!(metrics.supersteps >= 64, "a ring needs n supersteps");
        assert!(metrics.total_messages > 0);
        assert_eq!(metrics.total_dropped, 0);
        assert_eq!(metrics.per_superstep.len(), metrics.supersteps);
    }

    #[test]
    fn a_spill_cap_leaves_a_ring_flood_unchanged() {
        // A cap far below the store changes nothing: the runner is resident,
        // so values, supersteps and messages equal the uncapped job's.
        let start = |rank: u32| (rank as u64).wrapping_mul(2654435761) % 997;
        let config = PregelConfig::default().max_supersteps(6000);
        let ctx = ExecCtx::new(2);
        let (resident, base) = run_ranks(&ctx, &MaxFlood, &config, 2000, start);
        ctx.set_spill(crate::spill::SpillPolicy::At(1));
        let (capped, metrics) = run_ranks(&ctx, &MaxFlood, &config, 2000, start);
        ctx.clear_spill();
        let values = |set: &DenseSet<u64>| set.iter().map(|(r, v)| (r, *v)).collect::<Vec<_>>();
        assert_eq!(values(&capped), values(&resident));
        assert_eq!(metrics.supersteps, base.supersteps);
        assert_eq!(metrics.total_messages, base.total_messages);
        assert_eq!(metrics.spilled_bytes, 0);
        assert_eq!(metrics.spill_read_bytes, 0);
        assert_eq!(metrics.spilled_runs, 0);
    }

    /// Counts vertices through the aggregator and stops through
    /// `should_terminate`.
    struct CountAndStop;

    impl VertexProgram for CountAndStop {
        type Value = ();
        type Message = ();
        type Aggregate = crate::aggregate::Count;

        fn compute(&self, ctx: &mut Context<'_, Self>, _rank: u32, _v: &mut (), _m: &mut [()]) {
            ctx.aggregate(crate::aggregate::Count(1));
            // Never votes to halt: the stop must come from should_terminate.
        }

        fn should_terminate(&self, agg: &crate::aggregate::Count, _superstep: usize) -> bool {
            agg.0 > 0
        }
    }

    #[test]
    fn aggregator_and_forced_termination() {
        let config = PregelConfig::default();
        let (_, metrics) = run_ranks(&ExecCtx::new(3), &CountAndStop, &config, 10, |_| ());
        assert!(metrics.converged);
        assert_eq!(metrics.supersteps, 1);
        assert_eq!(metrics.total_compute_calls, 10);
    }

    /// Never halts and never sends: only the superstep cap or a control trip
    /// ends it.
    struct NeverHalts;

    impl VertexProgram for NeverHalts {
        type Value = ();
        type Message = ();
        type Aggregate = crate::aggregate::NoAggregate;

        fn compute(&self, _ctx: &mut Context<'_, Self>, _rank: u32, _v: &mut (), _m: &mut [()]) {}
    }

    #[test]
    fn superstep_cap_stops_runaway_jobs() {
        let config = PregelConfig::default().max_supersteps(5);
        let (_, metrics) = run_ranks(&ExecCtx::new(2), &NeverHalts, &config, 3, |_| ());
        assert!(!metrics.converged);
        assert_eq!(metrics.supersteps, 5);
    }

    #[test]
    fn empty_set_converges_immediately() {
        let config = PregelConfig::default();
        let (set, metrics) = run_ranks(&ExecCtx::new(2), &NeverHalts, &config, 0, |_| ());
        assert!(set.is_empty());
        assert!(metrics.converged);
        assert_eq!(metrics.supersteps, 1);
    }

    /// Everything halts in superstep 0 except one token walking a chain, so
    /// the mean frontier density lands far below superstep 0's 1.0.
    struct SparseWalk {
        steps: u64,
    }

    impl VertexProgram for SparseWalk {
        type Value = u64;
        type Message = u64;
        type Aggregate = crate::aggregate::NoAggregate;

        fn compute(&self, ctx: &mut Context<'_, Self>, rank: u32, value: &mut u64, m: &mut [u64]) {
            if ctx.superstep() == 0 {
                if rank == 0 {
                    ctx.send_message(1, 1);
                }
            } else if let Some(&hop) = m.first() {
                *value = hop;
                if hop < self.steps {
                    ctx.send_message(rank + 1, hop + 1);
                }
            }
            ctx.vote_to_halt();
        }
    }

    #[test]
    fn frontier_density_reflects_sparse_frontiers() {
        let (ctx, config) = (ExecCtx::new(2), PregelConfig::default());
        let (_, metrics) = run_ranks(&ctx, &SparseWalk { steps: 10 }, &config, 1000, |_| 0);
        assert!(metrics.converged);
        // Superstep 0 computes all 1000 vertices, every later one exactly
        // one: the mean sits near 1/supersteps, far below a dense job's 1.0.
        assert!(
            metrics.avg_frontier_density < 0.2,
            "sparse walk reported density {}",
            metrics.avg_frontier_density
        );
        assert!(metrics.avg_frontier_density > 0.0);
        assert!(metrics.peak_store_resident_bytes > 0);
        // A program that never halts reports a dense mean.
        let config = config.max_supersteps(3);
        let (_, dense) = run_ranks(&ctx, &NeverHalts, &config, 10, |_| ());
        assert!(dense.avg_frontier_density > 0.99);
    }

    #[test]
    fn control_polls_are_counted_per_superstep_boundary() {
        let ctx = ExecCtx::new(2);
        let control = JobControl::new();
        ctx.set_control(control.clone());
        let config = PregelConfig::default().max_supersteps(4);
        let (_, metrics) = run_ranks(&ctx, &NeverHalts, &config, 6, |_| ());
        ctx.clear_control();
        assert_eq!(metrics.supersteps, 4);
        assert_eq!(metrics.total_cancellation_checks, 4);
        assert!(metrics
            .per_superstep
            .iter()
            .all(|s| s.cancellation_checks == 1));
        assert_eq!(control.checks(), 4);
        // Without a control handle the counters stay zero.
        let (_, metrics) = run_ranks(&ctx, &NeverHalts, &config, 6, |_| ());
        assert_eq!(metrics.total_cancellation_checks, 0);
        assert!(metrics
            .per_superstep
            .iter()
            .all(|s| s.cancellation_checks == 0));
    }

    #[test]
    fn stall_fault_makes_deadline_trips_deterministic() {
        use crate::control::CancelReason;
        use crate::fault::{Fault, FaultPlan};
        let ctx = ExecCtx::new(2);
        // The stall dwarfs the deadline while the deadline dwarfs a real
        // superstep on 8 trivial vertices: boundary 0 polls well inside the
        // 150 ms budget, then the injected 600 ms stall makes boundary 1 poll
        // past it — the trip lands at superstep 1 with no wall-clock race in
        // either direction.
        let armed = ctx.inject_faults(FaultPlan::single(Fault::Stall {
            superstep: 1,
            millis: 600,
        }));
        ctx.set_control(JobControl::new().with_deadline_in(Duration::from_millis(150)));
        let config = PregelConfig::default().max_supersteps(10);
        let err = typed(|| run_ranks(&ctx, &NeverHalts, &config, 8, |_| ()).1)
            .expect_err("the deadline trips");
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
    fn memory_budget_trip_fires_at_the_first_boundary_over_the_cap() {
        use crate::control::CancelReason;
        let ctx = ExecCtx::new(2);
        // 1 byte: any non-empty store exceeds it at the first boundary.
        ctx.set_control(JobControl::new().with_memory_budget(1));
        let config = PregelConfig::default().max_supersteps(10);
        let err = typed(|| run_ranks(&ctx, &NeverHalts, &config, 8, |_| ()).1)
            .expect_err("the budget trips");
        ctx.clear_control();
        assert_eq!(
            err,
            EngineError::Cancelled {
                reason: CancelReason::MemoryBudget,
                superstep: 0,
            }
        );
    }

    /// Each vertex sends 1 to rank 0, which sums what it receives.
    struct SumToRoot;

    impl VertexProgram for SumToRoot {
        type Value = u64;
        type Message = u64;
        type Aggregate = crate::aggregate::NoAggregate;

        fn compute(&self, ctx: &mut Context<'_, Self>, _rank: u32, value: &mut u64, m: &mut [u64]) {
            if ctx.superstep() == 0 {
                ctx.send_message(0, 1);
            } else {
                *value += m.iter().sum::<u64>();
            }
            ctx.vote_to_halt();
        }
    }

    #[test]
    fn requested_cancel_mid_job_is_typed_and_leaves_the_pool_reusable() {
        use crate::control::CancelReason;
        let ctx = ExecCtx::new(2);
        let control = JobControl::new();
        ctx.set_control(control.clone());
        // Cancel strictly inside the job, with no wall-clock coupling: a
        // watcher thread waits until the boundary poll of superstep 2 has run
        // (the third check), then cancels, so the trip surfaces at a later
        // boundary.
        let watcher = {
            let control = control.clone();
            std::thread::spawn(move || {
                while control.checks() < 3 {
                    std::thread::yield_now();
                }
                control.cancel();
            })
        };
        let config = PregelConfig::default().max_supersteps(1_000_000);
        let err = typed(|| run_ranks(&ctx, &NeverHalts, &config, 8, |_| ()).1)
            .expect_err("the cancel trips");
        watcher.join().expect("watcher thread");
        ctx.clear_control();
        match err {
            EngineError::Cancelled { reason, superstep } => {
                assert_eq!(reason, CancelReason::Requested);
                assert!(superstep >= 3, "tripped too early, at {superstep}");
            }
            ref other => panic!("expected a cancellation, got {other:?}"),
        }
        assert!(err.to_string().contains("cancelled"));

        // The pool is immediately reusable.
        let config = PregelConfig::default();
        let (set, metrics) = run_ranks(&ctx, &SumToRoot, &config, 100, |_| 0);
        assert_eq!(set.iter().next(), Some((0, &100)));
        assert!(metrics.converged);
    }

    /// In superstep 0 every vertex sends to a rank beyond the last and to
    /// rank 5, which takes no part.
    struct SendToNowhere;

    impl VertexProgram for SendToNowhere {
        type Value = ();
        type Message = ();
        type Aggregate = crate::aggregate::NoAggregate;

        fn compute(&self, ctx: &mut Context<'_, Self>, _rank: u32, _v: &mut (), _m: &mut [()]) {
            if ctx.superstep() == 0 {
                ctx.send_message(9999, ());
                ctx.send_message(5, ());
            }
            ctx.vote_to_halt();
        }
    }

    #[test]
    fn messages_to_missing_vertices_are_dropped() {
        let ctx = ExecCtx::new(2);
        let (mut set, _) =
            DenseSet::from_fn_on(&ctx, 6, |rank, _: &mut ()| (rank != 5).then_some(()));
        let metrics = run_dense_on(&ctx, &SendToNowhere, &PregelConfig::default(), &mut set);
        assert!(metrics.converged);
        assert_eq!(metrics.total_messages, 10);
        assert_eq!(metrics.total_dropped, 10);
        // A send to no rank is reported with the next superstep's drops, the
        // superstep whose delivery drops the sends to the absent rank.
        let dropped: Vec<u64> = metrics
            .per_superstep
            .iter()
            .map(|s| s.messages_dropped)
            .collect();
        assert_eq!(dropped, [0, 10]);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn a_set_built_for_fewer_workers_than_the_pool_panics() {
        let (mut set, _) = DenseSet::from_fn_on(&ExecCtx::new(2), 3, |_, _: &mut ()| Some(()));
        let _ = run_dense_on(&ExecCtx::new(3), &Halt, &PregelConfig::default(), &mut set);
    }

    #[test]
    fn bitset_helpers_round_trip() {
        let bit = |words: &[u64], slot: usize| words[slot >> 6] & (1 << (slot & 63)) != 0;
        let mut words = vec![0u64; 3];
        for slot in [0, 63, 64, 130] {
            set_bit(&mut words, slot, true);
        }
        assert!(bit(&words, 0) && bit(&words, 63));
        assert!(bit(&words, 64) && bit(&words, 130));
        assert!(!bit(&words, 1) && !bit(&words, 129));
        set_bit(&mut words, 63, false);
        assert!(!bit(&words, 63));
        assert!(bit(&words, 0), "clearing one bit leaves the others");
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_next_word_with_zero_matches_oracle(
            data in proptest::collection::vec(0u8..2, 0..64),
            from in 0usize..70,
        ) {
            // bools → words: true = all-ones, false = one clear bit. `from`
            // reaches past the end.
            let words: Vec<u64> = data
                .into_iter()
                .enumerate()
                .map(|(i, full)| if full != 0 { u64::MAX } else { u64::MAX ^ (1 << (i % 64)) })
                .collect();
            let oracle = words
                .iter()
                .enumerate()
                .skip(from.min(words.len()))
                .find(|(_, &w)| w != u64::MAX)
                .map(|(i, _)| i);
            prop_assert_eq!(next_word_with_zero(&words, from), oracle);
        }
    }

    /// Superstep 0 sends a fixed plan of messages per vertex; superstep 1
    /// sums what arrived.
    struct PlannedScatter {
        plan: Vec<Vec<(u32, u64)>>,
    }

    impl VertexProgram for PlannedScatter {
        type Value = u64;
        type Message = u64;
        type Aggregate = crate::aggregate::NoAggregate;

        fn compute(&self, ctx: &mut Context<'_, Self>, rank: u32, value: &mut u64, m: &mut [u64]) {
            if ctx.superstep() == 0 {
                for &(to, payload) in &self.plan[rank as usize] {
                    ctx.send_message(to, payload);
                }
            } else {
                *value += m.iter().sum::<u64>();
            }
            ctx.vote_to_halt();
        }
    }

    /// The delivered sum per rank, grouped through a hash map: independent of
    /// how the exchange orders the messages.
    fn oracle_sums(n: u32, plan: &[Vec<(u32, u64)>]) -> Vec<u64> {
        let mut grouped: crate::fxhash::FxHashMap<u32, Vec<u64>> = Default::default();
        for sends in plan {
            for &(to, payload) in sends {
                grouped.entry(to).or_default().push(payload);
            }
        }
        let mut sums = vec![0u64; n as usize];
        for (to, payloads) in grouped {
            if to < n {
                sums[to as usize] = payloads.into_iter().sum();
            }
        }
        sums
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_delivery_matches_hash_grouping(
            n in 1u32..40,
            raw in proptest::collection::vec((0u32..40, 0u32..40, 1u64..100), 0..200),
            workers in 1usize..6,
        ) {
            let mut plan: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n as usize];
            let mut dropped_expected = 0u64;
            for &(sender, to, payload) in &raw {
                if to >= n {
                    dropped_expected += 1;
                }
                plan[(sender % n) as usize].push((to, payload));
            }
            let expected = oracle_sums(n, &plan);
            let ctx = ExecCtx::new(workers);
            let program = PlannedScatter { plan };
            let (set, metrics) = run_ranks(&ctx, &program, &PregelConfig::default(), n, |_| 0);
            for (rank, v) in set.iter() {
                prop_assert_eq!(*v, expected[rank as usize]);
            }
            prop_assert_eq!(metrics.total_dropped, dropped_expected);
            prop_assert_eq!(metrics.total_messages, raw.len() as u64);
        }
    }

    /// A program with data-dependent halting: every vertex folds its inbound
    /// sum, conditionally relays, and votes to halt only when its value is
    /// not divisible by 3 — so the final halt flags, not just the values,
    /// depend on the whole message history.
    struct HaltPattern {
        n: u32,
        rounds: usize,
    }

    impl HaltPattern {
        /// The per-vertex step shared by the job and the sequential oracle:
        /// returns the messages to send and the new halt flag.
        fn step(
            &self,
            superstep: usize,
            rank: u32,
            value: &mut u64,
            inbound: u64,
        ) -> (Vec<(u32, u64)>, bool) {
            *value = value.wrapping_add(inbound);
            let mut sends = Vec::new();
            if superstep == 0 {
                for f in 0..rank % 3 {
                    sends.push(((rank * 7 + f * 13) % self.n, (rank + f) as u64));
                }
            } else if !(*value).is_multiple_of(5) {
                sends.push(((rank + 1) % self.n, *value % 11));
            }
            (sends, !(*value).is_multiple_of(3))
        }
    }

    impl VertexProgram for HaltPattern {
        type Value = u64;
        type Message = u64;
        type Aggregate = crate::aggregate::NoAggregate;

        fn compute(&self, ctx: &mut Context<'_, Self>, rank: u32, value: &mut u64, m: &mut [u64]) {
            let (sends, halt) = self.step(ctx.superstep(), rank, value, m.iter().sum());
            for (to, payload) in sends {
                ctx.send_message(to, payload);
            }
            if halt {
                ctx.vote_to_halt();
            }
        }

        fn should_terminate(&self, _agg: &crate::aggregate::NoAggregate, superstep: usize) -> bool {
            superstep + 1 >= self.rounds
        }
    }

    /// Sequential BSP over plain vectors, with the runner's activation,
    /// termination and halt rules: the final `(value, halted)` per rank and
    /// the supersteps run.
    fn oracle_run(program: &HaltPattern) -> (Vec<(u64, bool)>, usize) {
        let n = program.n as usize;
        let mut state: Vec<(u64, bool)> = (0..n as u64).map(|rank| (rank, false)).collect();
        let mut inbox: Vec<Option<u64>> = vec![None; n];
        let mut superstep = 0;
        loop {
            let mut outbox: Vec<Option<u64>> = vec![None; n];
            let mut messages = 0u64;
            for (rank, (value, halted)) in state.iter_mut().enumerate() {
                let inbound = inbox[rank];
                if *halted && inbound.is_none() {
                    continue;
                }
                let (sends, halt) =
                    program.step(superstep, rank as u32, value, inbound.unwrap_or(0));
                for (to, payload) in sends {
                    *outbox[to as usize].get_or_insert(0) += payload;
                    messages += 1;
                }
                *halted = halt;
            }
            let all_halted = state.iter().all(|&(_, halted)| halted);
            if program.should_terminate(&crate::aggregate::NoAggregate, superstep)
                || (messages == 0 && all_halted)
            {
                return (state, superstep + 1);
            }
            inbox = outbox;
            superstep += 1;
        }
    }

    /// The halted bit the job left for `rank`.
    fn halted_of<V>(set: &DenseSet<V>, rank: u32) -> bool {
        let part = &set.parts[set.ranges.owner(rank as u64).expect("a rank of the store")];
        let slot = (rank - part.base) as usize;
        part.halted[slot >> 6] & (1 << (slot & 63)) != 0
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_values_and_halt_flags_match_sequential_oracle(
            n in 1u32..120,
            rounds in 1usize..12,
            workers in 1usize..6,
        ) {
            let program = HaltPattern { n, rounds };
            let (expected, oracle_steps) = oracle_run(&program);
            let ctx = ExecCtx::new(workers);
            let (set, metrics) =
                run_ranks(&ctx, &program, &PregelConfig::default(), n, |rank| rank as u64);
            prop_assert_eq!(metrics.supersteps, oracle_steps);
            let values: Vec<u64> = set.iter().map(|(_, v)| *v).collect();
            let expected_values: Vec<u64> = expected.iter().map(|&(v, _)| v).collect();
            prop_assert_eq!(values, expected_values);
            for (rank, &(_, halted)) in expected.iter().enumerate() {
                prop_assert_eq!(halted_of(&set, rank as u32), halted, "halt flag of {}", rank);
            }
        }
    }
}
