//! The dense-rank delivery plane: a vertex store and superstep runner for
//! programs whose vertex IDs are the consecutive `u32` ranks `0..n`.
//!
//! When every ID is one of `n` consecutive integers, finding a vertex needs
//! no search. A [`DenseSet`] partitions the ranks by **range** — worker `w`
//! owns one contiguous run of them — and keeps each partition's states in a
//! plain `Vec` indexed by `rank − base`, next to the halted bitset the
//! sorted store also has. There is no ID column and no stamp column; a rank
//! that takes no part in the job is a `None` slot whose halted bit stays set.
//!
//! [`run_dense_on`] drives a [`VertexProgram`] over such a store with the
//! superstep structure, metrics and control contracts of
//! [`run_on`](crate::runner::run_on), but a different message plane:
//!
//! * **send** — [`Context::send_message`] finds the destination worker with a
//!   multiply–shift on a per-job constant (`RankRanges`; no hash, no modulo)
//!   and appends the record to that worker's outbox, unsorted. A rank at or
//!   beyond `n` has no owner: it is dropped at the sender and reported with
//!   the next superstep's drops, which is when the sorted plane's receiver
//!   would have counted it.
//! * **exchange** — each worker takes the outboxes addressed to it, senders
//!   in worker order, and runs one stable counting scatter over them
//!   ([`radix::scatter_to_slots`](crate::radix)): count per slot, prefix-sum,
//!   place. The result is a CSR inbox — slot `s` holds
//!   `inbox[offsets[s]..offsets[s + 1]]` in (source worker, send order) —
//!   with no presort, no k-way merge and no join against an ID column.
//! * **compute** — the sorted plane's two passes: ascending vertices with
//!   messages, then ascending active vertices without. At one worker a dense
//!   job therefore sends, delivers and drops message for message what the
//!   sorted plane does; at several, each inbox is still in (source worker,
//!   send order), but ranges, not hashes, decide which worker a source is.
//!
//! Outboxes, offsets and inboxes belong to the job: they reach their
//! high-water capacity in the first supersteps, are reused by every later
//! one, and are dropped when the job returns, as the sorted plane's are. The
//! plane does not combine (a `USE_COMBINER` program does not compile against
//! it) and, like the sorted plane, runs resident: a
//! [`SpillPolicy`](crate::SpillPolicy) cap on the [`ExecCtx`] binds the keyed
//! pass, not a superstep runner.

use crate::aggregate::Aggregate;
use crate::config::PregelConfig;
use crate::engine::{EngineError, ExecCtx};
use crate::metrics::{Metrics, SuperstepMetrics};
use crate::runner::{poll_boundary, pool_utilization};
use crate::vertex::{Context, Route, VertexProgram};
use crate::vertex_set::{next_word_with_zero, set_bit};
use std::time::Instant;

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

    fn new(ranks: u32, workers: usize) -> RankRanges {
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

/// Runs `program` over the dense store until convergence and returns the
/// metrics; the store keeps the final states. [`run_on`](crate::runner::run_on)
/// with the dense plane of the [module docs](self) underneath: the same
/// fault probes, the same [`JobControl`](crate::JobControl) poll at every
/// superstep boundary (the memory budget reads
/// [`DenseSet::resident_bytes`]), the same termination rules and [`Metrics`]
/// (`compute_elapsed` covers delivery, compute and send; `shuffle_elapsed`
/// the counting scatter; `id_column_compression` is 1.0 — there is no ID
/// column). A worker panic is raised on the calling thread as
/// [`EngineError::WorkerPanic`](crate::EngineError), after the phase has
/// drained, so the pool stays reusable.
///
/// # Panics
///
/// Panics if `ctx`'s pool size differs from the partitioning of `vertices`.
pub fn run_dense_on<P: VertexProgram<Id = u32>>(
    ctx: &ExecCtx,
    program: &P,
    config: &PregelConfig,
    vertices: &mut DenseSet<P::Value>,
) -> Metrics {
    const {
        assert!(
            !P::USE_COMBINER,
            "the dense plane does not combine: run a USE_COMBINER program with run_on"
        )
    };
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
                    route: Route::Range(ranges, &mut counts.unrouted),
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
        type Id = u32;
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
}
