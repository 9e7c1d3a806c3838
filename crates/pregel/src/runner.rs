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
//! and the combine scratch — live in per-worker `WorkerPlane`s reused
//! across supersteps, so a steady-state superstep performs no per-vertex or
//! per-superstep container allocation. This replaces the earlier hash-map
//! grouping (one heap `Vec` per receiving vertex per superstep), which
//! dominated the shuffle cost, and the earlier hash-partitioned vertex store
//! (one hash probe per delivered run, a bucket-array walk per straggler
//! scan).
//!
//! Both phases are dispatched onto the persistent worker pool of the
//! caller's [`ExecCtx`] (shared across a whole workflow, with the planes
//! parked in the context between jobs); no per-superstep thread scope is
//! created anywhere. See the `engine` module docs for the scoped-spawn
//! comparison.
//!
//! # Out-of-core execution
//!
//! When the [`ExecCtx`] carries a [`SpillPolicy`](crate::SpillPolicy) byte
//! cap and the program opts in via [`VertexProgram::spill_codecs`], both
//! sides of the message plane become spillable (see [`crate::spill`]):
//! outbox fragments that outgrow a per-worker budget are presorted and
//! written out as sorted **run files**, which the shuffle phase k-way-merges
//! with the in-RAM remainders (same key order, same source-index tie-breaks
//! — spilled delivery is byte-identical to resident delivery), and a vertex
//! store whose resident footprint exceeds the cap at job start is **sealed**
//! into on-disk extents that the compute phase faults back one window at a
//! time, in two ascending sweeps that reproduce the resident visit order
//! exactly.
//!
//! This mirrors the bulk-synchronous structure of Pregel+ with the network
//! replaced by in-memory buffer handoff.
//!
//! # Two planes
//!
//! This module is the **sorted plane**: it serves every vertex ID type, at
//! the price of finding each message's vertex by sorting — a presort per
//! outbox, a k-way merge per inbox, a merge-join against the ID column — and
//! it is the one plane that combines and that runs out of core, because
//! sorted runs are what spill files hold and key-ordered extents what a
//! sealed store faults in. [`crate::dense`] is the **dense plane** for jobs
//! whose IDs are the consecutive ranks `0..n`: range ownership, states in a
//! plain array, one counting scatter per inbox and nothing to sort, but
//! resident only and without a combiner. The caller picks by constructing a
//! [`VertexSet`] or a [`DenseSet`](crate::DenseSet) — contig labeling does so
//! in one place, from whether the context carries a spill cap — and both
//! runners share the superstep contract: fault probes, the control poll at
//! every boundary (`poll_boundary`), termination, and [`Metrics`].

use crate::aggregate::Aggregate;
use crate::config::PregelConfig;
use crate::control::JobControl;
use crate::engine::{EngineError, ExecCtx};
use crate::fault::ArmedFaults;
use crate::metrics::{Metrics, SuperstepMetrics};
use crate::spill::{
    merge_run_sources, write_run, DiskRun, MergeSource, PartSeal, RunReader, SpillCodecs, SpillDir,
    SpillError,
};
use crate::vertex::{Context, Route, VertexKey, VertexProgram};
use crate::vertex_set::{lower_bound_from, next_word_with_zero, set_bit, RunColumns, VertexSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One `(destination vertex, message)` buffer per destination worker.
type OutboxColumn<P> = Vec<Vec<(<P as VertexProgram>::Id, <P as VertexProgram>::Message)>>;

/// Reusable per-worker message-plane buffers. Allocated once, reused across
/// supersteps, and parked in the [`ExecCtx`] scratch cache between jobs so
/// consecutive jobs with the same id/message types also reuse them.
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

    /// Empties every buffer (keeping capacity) so the plane can be parked in
    /// the scratch cache without holding user data.
    fn clear(&mut self) {
        self.in_ids.clear();
        self.in_msgs.clear();
        self.scratch.clear();
        for buf in &mut self.outbox {
            buf.clear();
        }
    }
}

/// Takes the parked planes for `(I, M)` out of the context, or builds fresh
/// ones when none fit the current worker count.
fn planes_from_ctx<I: VertexKey, M: Send + 'static>(
    ctx: &ExecCtx,
    workers: usize,
) -> Vec<WorkerPlane<I, M>> {
    if let Some(mut planes) = ctx.take_scratch::<Vec<WorkerPlane<I, M>>>() {
        if planes.len() == workers && planes.iter().all(|p| p.outbox.len() == workers) {
            for plane in &mut planes {
                plane.clear();
            }
            return planes;
        }
    }
    (0..workers).map(|_| WorkerPlane::new(workers)).collect()
}

/// Per-worker counters produced by one compute phase.
struct ComputeCounts<A> {
    local_aggregate: A,
    messages_sent: u64,
    messages_dropped: u64,
    active: usize,
    all_halted: bool,
    /// Spill bytes written by this worker (outbox runs + extent writebacks).
    spilled_bytes: u64,
    /// Spill bytes read back by this worker (extent fault-ins, compaction).
    spill_read_bytes: u64,
    /// Spill artefacts written by this worker (run files + extent images).
    spilled_runs: u64,
}

/// One destination's view of one source worker during a spilled shuffle:
/// that source's sorted on-disk runs (in spill order) plus its sorted in-RAM
/// outbox remainder.
type SpillShuffleSources<P> = Vec<(
    Vec<DiskRun>,
    Vec<(<P as VertexProgram>::Id, <P as VertexProgram>::Message)>,
)>;

/// Per-worker outbox spill state, armed only while a
/// [`SpillPolicy`](crate::SpillPolicy) byte cap is active and the program
/// opted in via [`VertexProgram::spill_codecs`].
///
/// [`maybe_spill`](OutboxSpill::maybe_spill) is consulted after every
/// `compute` invocation with the worker's running message count; the
/// under-budget path is a subtraction and a compare. When the estimated RAM
/// held by the outbox fragments crosses `budget`, every non-empty
/// per-destination buffer is presorted (and pre-folded when the program
/// combines — relying on the combiner associativity the resident plane
/// already assumes for its sender-side fold + merge fold), written out as
/// one sorted run file, and cleared. The shuffle phase later k-way-merges
/// each destination's runs (in spill order) ahead of the RAM remainder, so
/// the merged inbound stream is identical to the resident path's.
struct OutboxSpill<P: VertexProgram> {
    dir: Arc<SpillDir>,
    codecs: SpillCodecs<P>,
    /// RAM bytes of buffered outbox records this worker may hold.
    budget: usize,
    worker: usize,
    /// Run files written this superstep, per destination worker.
    runs: Vec<Vec<DiskRun>>,
    /// Messages already spilled this superstep (excluded from the estimate).
    spilled_messages: u64,
    /// Run-file name sequence, unique per worker within the job.
    seq: u64,
    spilled_bytes: u64,
    spilled_runs: u64,
}

impl<P: VertexProgram> OutboxSpill<P> {
    fn new(
        dir: Arc<SpillDir>,
        codecs: SpillCodecs<P>,
        budget: usize,
        worker: usize,
        workers: usize,
    ) -> OutboxSpill<P> {
        OutboxSpill {
            dir,
            codecs,
            budget,
            worker,
            runs: (0..workers).map(|_| Vec::new()).collect(),
            spilled_messages: 0,
            seq: 0,
            spilled_bytes: 0,
            spilled_runs: 0,
        }
    }

    /// Resets the per-superstep RAM estimate (the runner's message counter
    /// restarts at zero each superstep).
    fn begin_superstep(&mut self) {
        self.spilled_messages = 0;
    }

    /// Spills every non-empty outbox buffer once the RAM estimate crosses
    /// the budget; O(1) while under it.
    fn maybe_spill(
        &mut self,
        messages_sent: u64,
        program: &P,
        outbox: &mut [Vec<(P::Id, P::Message)>],
        scratch: &mut Vec<(P::Id, P::Message)>,
    ) -> Result<(), SpillError> {
        let buffered = messages_sent.saturating_sub(self.spilled_messages) as usize;
        if buffered * std::mem::size_of::<(P::Id, P::Message)>() <= self.budget {
            return Ok(());
        }
        for (dst, buf) in outbox.iter_mut().enumerate() {
            if buf.is_empty() {
                continue;
            }
            // Stable presort so the run file is in key order; duplicates are
            // folded now — per-run prefix folds continued by the merge sink
            // equal the resident path's single sender-side fold.
            crate::radix::sort_pairs(buf, scratch);
            if P::USE_COMBINER {
                combine_buf(program, buf, scratch);
            }
            let name = format!("w{}-d{dst}-s{}.run", self.worker, self.seq);
            self.seq += 1;
            let run = write_run(&self.dir, &name, buf, &self.codecs.id, &self.codecs.message)?;
            self.spilled_bytes += run.bytes;
            self.spilled_runs += 1;
            if let Some(slot) = self.runs.get_mut(dst) {
                slot.push(run);
            }
            buf.clear();
        }
        self.spilled_messages = messages_sent;
        Ok(())
    }

    /// Drains this superstep's run files, grouped by destination worker.
    fn take_runs(&mut self) -> Vec<Vec<DiskRun>> {
        let workers = self.runs.len();
        std::mem::replace(&mut self.runs, (0..workers).map(|_| Vec::new()).collect())
    }

    /// Drains the write counters: `(bytes written, runs written)`.
    fn take_counters(&mut self) -> (u64, u64) {
        let out = (self.spilled_bytes, self.spilled_runs);
        self.spilled_bytes = 0;
        self.spilled_runs = 0;
        out
    }
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
        let value = cols.values[slot].as_mut().expect("live vertex slot");
        self.program.compute(&mut vctx, id, value, messages);
        set_bit(cols.halted, slot, vctx.halt);
        self.active += 1;
    }
}

/// The two delivery passes shared by the resident and sealed compute paths:
/// the merge-join over the sorted inbound runs (pass 1) and the halted-bitset
/// sweep (pass 2), plus the post-`compute` outbox spill check.
///
/// The struct borrows the plane's buffers as disjoint fields so `compute_slot`
/// (which needs the outbox and a message slice) and `maybe_spill` (which needs
/// the outbox and the scratch) can be called without re-borrowing the whole
/// plane. `next_msg` is a monotone read cursor into the inbound arrays: the
/// sealed path delivers extent window by extent window without ever rescanning
/// the message stream.
struct Delivery<'a, P: VertexProgram> {
    in_ids: &'a [P::Id],
    in_msgs: &'a mut [P::Message],
    outbox: &'a mut Vec<Vec<(P::Id, P::Message)>>,
    scratch: &'a mut Vec<(P::Id, P::Message)>,
    ospill: &'a mut Option<OutboxSpill<P>>,
    next_msg: usize,
    dropped: u64,
}

impl<P: VertexProgram> Delivery<'_, P> {
    /// The next undelivered inbound vertex ID, if any.
    fn peek(&self) -> Option<P::Id> {
        self.in_ids.get(self.next_msg).copied()
    }

    /// Counts inbound messages addressed below `first` as dropped (sealed
    /// delivery: extent key ranges ascend, so IDs in the gap before an extent
    /// belong to no vertex of this partition).
    fn drop_below(&mut self, first: &P::Id) {
        while self.in_ids.get(self.next_msg).is_some_and(|id| id < first) {
            self.next_msg += 1;
            self.dropped += 1;
        }
    }

    /// Counts every remaining inbound message as dropped (sealed delivery:
    /// IDs beyond the last extent belong to no vertex of this partition).
    fn drop_remaining(&mut self) {
        self.dropped += (self.in_ids.len() - self.next_msg) as u64;
        self.next_msg = self.in_ids.len();
    }

    /// Outbox spill check after one `compute` invocation.
    fn check_spill(&mut self, env: &WorkerEnv<'_, P>) -> Result<(), SpillError> {
        if let Some(os) = self.ospill.as_mut() {
            os.maybe_spill(env.messages_sent, env.program, self.outbox, self.scratch)?;
        }
        Ok(())
    }

    /// Pass 1: merge-joins the sorted inbound runs from the read cursor up to
    /// `last` (inclusive; `None` = everything) against the sorted ID column.
    /// Both sequences ascend, so one monotone galloping cursor visits each
    /// side at most once — no hash probe per run, one contiguous slice per
    /// vertex, nothing allocated.
    fn deliver(
        &mut self,
        env: &mut WorkerEnv<'_, P>,
        cols: &mut RunColumns<'_, P::Id, P::Value>,
        last: Option<P::Id>,
    ) -> Result<(), SpillError> {
        // Copy the shared column slice out of `cols` so reading IDs does not
        // borrow the `&mut cols` that `compute_slot` takes.
        let ids = cols.ids;
        let slots = ids.len();
        let mut cursor = 0usize;
        let n_in = self.in_ids.len();
        while self.next_msg < n_in {
            let id = self.in_ids[self.next_msg];
            if last.is_some_and(|l| id > l) {
                break;
            }
            let i = self.next_msg;
            let mut j = i + 1;
            while j < n_in && self.in_ids[j] == id {
                j += 1;
            }
            self.next_msg = j;
            cursor = lower_bound_from(ids, cursor, &id);
            if cursor < slots && ids[cursor] == id {
                env.compute_slot(cols, cursor, id, self.outbox, &mut self.in_msgs[i..j]);
                self.check_spill(env)?;
            } else {
                // Addressed to a vertex this worker does not host.
                self.dropped += (j - i) as u64;
            }
        }
        Ok(())
    }

    /// Pass 2: active vertices that received nothing — a word scan for
    /// halted words with a zero bit (64 halted vertices skipped per compare),
    /// with the stamp column filtering out slots already computed in pass 1.
    /// `compute_slot` only ever touches the current word's bits, so the
    /// forward scan never misses a regained zero.
    fn sweep(
        &mut self,
        env: &mut WorkerEnv<'_, P>,
        cols: &mut RunColumns<'_, P::Id, P::Value>,
    ) -> Result<(), SpillError> {
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
                if cols.stamps[slot] == env.stamp {
                    continue;
                }
                env.compute_slot(cols, slot, ids[slot], self.outbox, &mut []);
                self.check_spill(env)?;
            }
            wi = w + 1;
        }
        Ok(())
    }
}

/// The sealed compute path: two ascending sweeps over the partition's on-disk
/// extents. Pass 1 faults in only extents with inbound messages in their key
/// range, runs the ordinary merge-join over each loaded window, and writes it
/// back; pass 2 faults in only extents with unhalted slots for the straggler
/// sweep. Because both the extent directory and the message stream ascend,
/// the vertex visit order — and therefore the outbox emission order — is
/// identical to the resident path's single pass 1 + pass 2 over the whole
/// column. Returns partition quiescence.
fn compute_sealed<P: VertexProgram>(
    env: &mut WorkerEnv<'_, P>,
    del: &mut Delivery<'_, P>,
    seal: &mut PartSeal<P::Id, P::Value>,
) -> Result<bool, SpillError> {
    for e in 0..seal.extents.len() {
        let (first, last) = match seal.extents.get(e) {
            Some(m) => (m.first, m.last),
            None => break,
        };
        del.drop_below(&first);
        match del.peek() {
            None => break,
            Some(id) if id > last => continue,
            _ => {}
        }
        seal.load_extent(e)?;
        {
            let mut cols = seal.window_columns();
            del.deliver(env, &mut cols, Some(last))?;
        }
        seal.store_extent(e)?;
    }
    del.drop_remaining();
    // Straggler sweep: extents touched by pass 1 wrote their halt bits back,
    // so the directory's halted counts are current, and the stamp column
    // filters out slots pass 1 already computed this superstep.
    for e in 0..seal.extents.len() {
        let quiescent = seal
            .extents
            .get(e)
            .is_none_or(|m| m.halted == m.slots as u64);
        if quiescent {
            continue;
        }
        seal.load_extent(e)?;
        {
            let mut cols = seal.window_columns();
            del.sweep(env, &mut cols)?;
        }
        seal.store_extent(e)?;
    }
    seal.maybe_compact()?;
    Ok(seal.total_halted() == seal.total_slots() as u64)
}

/// Runs `program` over `vertices` on `ctx`'s persistent worker pool until
/// convergence and returns the metrics. Inside a workflow all jobs share one
/// context, so they share its pool and reuse the shuffle planes it parks
/// between jobs.
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
    let mut planes: Vec<WorkerPlane<P::Id, P::Message>> = planes_from_ctx(ctx, workers);
    let mut prev_aggregate = P::Aggregate::identity();
    let mut metrics = Metrics {
        converged: false,
        ..Metrics::default()
    };
    let mut superstep = 0usize;

    // ---- out-of-core arming (job start) -------------------------------------
    // A spill cap engages only for programs that opted in via
    // `VertexProgram::spill_codecs`. Outbox spilling is always armed under a
    // cap; the vertex store is additionally sealed to on-disk extents when its
    // resident footprint already exceeds the cap. Everything spilled lives in
    // one job-scoped temp directory whose `Drop` (and the per-file `Drop`s of
    // runs and seals) removes it — a cancellation unwind through `run_on`
    // cleans up exactly like normal completion does.
    let spill_cfg: Option<(u64, SpillCodecs<P>)> =
        match (ctx.spill().and_then(|p| p.cap()), P::spill_codecs()) {
            (Some(cap), Some(codecs)) => Some((cap, codecs)),
            _ => None,
        };
    let mut seals: Vec<Option<PartSeal<P::Id, P::Value>>> = (0..workers).map(|_| None).collect();
    let mut ospills: Vec<Option<OutboxSpill<P>>> = (0..workers).map(|_| None).collect();
    if let Some((cap, codecs)) = &spill_cfg {
        let dir = SpillDir::create("job")
            .unwrap_or_else(|e| std::panic::panic_any(EngineError::Spill(e)));
        // Each worker may buffer a quarter of its even share of the cap in
        // outbox records before writing a run.
        let budget = ((*cap as usize) / (4 * workers)).max(1);
        for (w, slot) in ospills.iter_mut().enumerate() {
            *slot = Some(OutboxSpill::new(
                Arc::clone(&dir),
                *codecs,
                budget,
                w,
                workers,
            ));
        }
        if vertices.resident_bytes() as u64 > *cap {
            let (id_codec, value_codec) = (codecs.id, codecs.value);
            let inputs: Vec<_> = vertices.parts.iter_mut().enumerate().collect();
            let sealed = ctx.pool().run_per_worker(inputs, |_w, (i, part)| {
                part.seal_to(&dir, i, id_codec, value_codec)
            });
            for (slot, seal) in seals.iter_mut().zip(sealed) {
                let mut seal =
                    seal.unwrap_or_else(|e| std::panic::panic_any(EngineError::Spill(e)));
                // The initial seal happens outside any superstep: its I/O
                // lands in the job totals only.
                let (written, read, images) = seal.take_counters();
                metrics.spilled_bytes += written;
                metrics.spill_read_bytes += read;
                metrics.spilled_runs += images;
                *slot = Some(seal);
            }
        }
    }

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
            let worker_inputs: Vec<_> = vertices
                .parts
                .iter_mut()
                .zip(planes.iter_mut())
                .zip(seals.iter_mut())
                .zip(ospills.iter_mut())
                .collect();
            let results: Vec<Result<ComputeCounts<P::Aggregate>, SpillError>> = ctx
                .pool()
                .run_per_worker(worker_inputs, |w, (((part, plane), seal), ospill)| {
                    if let Some(f) = &faults {
                        f.probe_superstep(superstep, w);
                    }
                    if let Some(os) = ospill.as_mut() {
                        os.begin_superstep();
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
                    let mut del: Delivery<'_, P> = Delivery {
                        in_ids: &plane.in_ids,
                        in_msgs: &mut plane.in_msgs,
                        outbox: &mut plane.outbox,
                        scratch: &mut plane.scratch,
                        ospill: &mut *ospill,
                        next_msg: 0,
                        dropped: 0,
                    };
                    let all_halted = match seal.as_mut() {
                        None => {
                            // Resident path: both passes over the in-RAM
                            // columns, then a popcount over the halted words
                            // (bits beyond the slot count stay zero)
                            // decides quiescence.
                            let mut cols = part.run_columns();
                            del.deliver(&mut env, &mut cols, None)?;
                            del.sweep(&mut env, &mut cols)?;
                            let halted: usize =
                                cols.halted.iter().map(|w| w.count_ones() as usize).sum();
                            halted == cols.ids.len()
                        }
                        Some(seal) => compute_sealed(&mut env, &mut del, seal)?,
                    };
                    let messages_dropped = del.dropped;

                    // Presort every destination buffer (spreading the
                    // shuffle's sort work over the compute threads)
                    // and fold duplicates if the program combines. The
                    // radix scratch is the plane's combine scratch: both
                    // uses leave it empty, and the plane is parked in the
                    // ExecCtx between jobs, so steady-state sorting
                    // allocates nothing.
                    for buf in plane.outbox.iter_mut() {
                        crate::radix::sort_pairs(buf, &mut plane.scratch);
                    }
                    if P::USE_COMBINER {
                        combine_outbox(program, plane);
                    }
                    let (mut spilled_bytes, mut spill_read_bytes, mut spilled_runs) =
                        (0u64, 0u64, 0u64);
                    if let Some(os) = ospill.as_mut() {
                        let (written, files) = os.take_counters();
                        spilled_bytes += written;
                        spilled_runs += files;
                    }
                    if let Some(seal) = seal.as_mut() {
                        let (written, read, images) = seal.take_counters();
                        spilled_bytes += written;
                        spill_read_bytes += read;
                        spilled_runs += images;
                    }
                    Ok(ComputeCounts::<P::Aggregate> {
                        local_aggregate: env.local_aggregate,
                        messages_sent: env.messages_sent,
                        messages_dropped,
                        active: env.active,
                        all_halted,
                        spilled_bytes,
                        spill_read_bytes,
                        spilled_runs,
                    })
                });
            results
                .into_iter()
                .collect::<Result<Vec<_>, SpillError>>()
                .unwrap_or_else(|e| std::panic::panic_any(EngineError::Spill(e)))
        };
        let compute_elapsed = step_start.elapsed();

        // ---- aggregate & bookkeeping ---------------------------------------
        let mut aggregate = P::Aggregate::identity();
        let mut messages_this_step = 0u64;
        let mut dropped_this_step = 0u64;
        let mut active_this_step = 0usize;
        let mut all_halted = true;
        let mut spilled_bytes_step = 0u64;
        let mut spill_read_step = 0u64;
        let mut spilled_runs_step = 0u64;
        for c in &counts {
            aggregate.combine(&c.local_aggregate);
            messages_this_step += c.messages_sent;
            dropped_this_step += c.messages_dropped;
            active_this_step += c.active;
            all_halted &= c.all_halted;
            spilled_bytes_step += c.spilled_bytes;
            spill_read_step += c.spill_read_bytes;
            spilled_runs_step += c.spilled_runs;
        }
        let frontier_density = if total_vertices == 0 {
            0.0
        } else {
            active_this_step as f64 / total_vertices as f64
        };
        // Sealed partitions keep only their extent windows and directory in
        // RAM; that residue is what the memory budget must see.
        let store_resident_bytes = (vertices.resident_bytes()
            + seals
                .iter()
                .flatten()
                .map(PartSeal::resident_bytes)
                .sum::<usize>()) as u64;
        // ---- cooperative control poll (superstep boundary) ------------------
        let cancellation_checks = poll_boundary(&faults, &control, superstep, store_resident_bytes);

        // ---- shuffle phase (dispatched onto the persistent pool) ------------
        let shuffle_start = Instant::now();
        // Runs spilled during this superstep's compute, per (source, dest).
        let step_runs: Vec<Vec<Vec<DiskRun>>> = ospills
            .iter_mut()
            .map(|o| o.as_mut().map(OutboxSpill::take_runs).unwrap_or_default())
            .collect();
        let spill_shuffle = step_runs
            .iter()
            .any(|per| per.iter().any(|r| !r.is_empty()));
        let mut spill_read_shuffle = 0u64;
        if spill_shuffle {
            // Spilled shuffle: each destination merges, per source worker,
            // that source's disk runs (in spill order) followed by its RAM
            // remainder. `merge_run_sources` breaks key ties by ascending
            // source index, and a source's runs partition its emission
            // sequence in time order, so the merged inbound stream is
            // byte-identical to the resident k-way merge below.
            let codecs = match &spill_cfg {
                Some((_, codecs)) => *codecs,
                None => unreachable!("spilled runs exist only when spilling is armed"),
            };
            let mut per_dst: Vec<SpillShuffleSources<P>> =
                (0..workers).map(|_| Vec::with_capacity(workers)).collect();
            for (mut runs_by_dst, plane) in step_runs.into_iter().zip(planes.iter_mut()) {
                runs_by_dst.resize_with(workers, Vec::new);
                for (dst, runs) in runs_by_dst.into_iter().enumerate() {
                    per_dst[dst].push((runs, std::mem::take(&mut plane.outbox[dst])));
                }
            }
            let shuffle_inputs: Vec<_> = planes.iter_mut().zip(per_dst).collect();
            let merged: Vec<Result<u64, SpillError>> =
                ctx.pool()
                    .run_per_worker(shuffle_inputs, |_w, (plane, srcs)| {
                        plane.in_ids.clear();
                        plane.in_msgs.clear();
                        let mut sources: Vec<MergeSource<P::Id, P::Message>> = Vec::new();
                        // Keeps the consumed run files alive (and on disk) until
                        // the merge finishes; dropping them afterwards deletes
                        // the files.
                        let mut consumed: Vec<DiskRun> = Vec::new();
                        for (runs, ram) in srcs {
                            for run in runs {
                                sources.push(MergeSource::Disk(RunReader::open(
                                    run.path(),
                                    codecs.id,
                                    codecs.message,
                                )?));
                                consumed.push(run);
                            }
                            sources.push(MergeSource::Ram(ram.into_iter()));
                        }
                        let (in_ids, in_msgs) = (&mut plane.in_ids, &mut plane.in_msgs);
                        merge_run_sources(sources, |id, msg| {
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
                        })
                    });
            for r in merged {
                spill_read_shuffle +=
                    r.unwrap_or_else(|e| std::panic::panic_any(EngineError::Spill(e)));
            }
            // The spilled path consumed the RAM remainders instead of
            // borrowing them, so the (src, dst) buffer capacity is rebuilt
            // next superstep — an accepted cost of spilling supersteps.
        } else {
            // Resident shuffle. Transpose outbox buffer ownership: worker
            // `src` hands its buffer for destination `dst` to `dst`'s shuffle
            // job. Only `Vec` headers move; the allocations travel to the
            // shuffle and come back afterwards so their capacity is reused
            // next superstep.
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
                        // K-way merge of the pre-sorted source buffers into
                        // the parallel id/message arrays (ties prefer the
                        // lower source worker, so the merged order is a pure
                        // function of the deterministic per-sender buffers).
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
        }
        spill_read_step += spill_read_shuffle;
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
                spilled_bytes: spilled_bytes_step,
                spill_read_bytes: spill_read_step,
                spilled_runs: spilled_runs_step,
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

    // ---- out-of-core teardown (normal completion) ---------------------------
    // Unseal every sealed partition back into its resident columns; the run
    // directory (and anything left in it) is removed when the last `Arc`
    // drops. A cancellation unwind skips this block — the seals' and runs'
    // `Drop` impls delete their files instead, and the mid-job vertex set is
    // discarded like any cancelled job's.
    if seals.iter().any(Option::is_some) {
        let inputs: Vec<_> = vertices.parts.iter_mut().zip(seals.iter_mut()).collect();
        let unsealed: Vec<Result<(u64, u64, u64), SpillError>> =
            ctx.pool()
                .run_per_worker(inputs, |_w, (part, seal)| match seal.as_mut() {
                    Some(seal) => {
                        part.unseal_from(seal)?;
                        Ok(seal.take_counters())
                    }
                    None => Ok((0, 0, 0)),
                });
        for r in unsealed {
            let (written, read, images) =
                r.unwrap_or_else(|e| std::panic::panic_any(EngineError::Spill(e)));
            metrics.spilled_bytes += written;
            metrics.spill_read_bytes += read;
            metrics.spilled_runs += images;
        }
        seals.clear();
    }

    // Park the (cleared) planes in the context so the next job with the same
    // id/message types starts with warm buffers.
    for plane in &mut planes {
        plane.clear();
    }
    ctx.store_scratch(planes);

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
    for buf in plane.outbox.iter_mut() {
        combine_buf(program, buf, &mut plane.scratch);
    }
}

/// Folds adjacent same-destination messages in one sorted buffer (the unit of
/// work [`combine_outbox`] applies per destination and the outbox spill
/// applies to each buffer before writing it out as a run).
fn combine_buf<P: VertexProgram>(
    program: &P,
    buf: &mut Vec<(P::Id, P::Message)>,
    scratch: &mut Vec<(P::Id, P::Message)>,
) {
    if buf.len() < 2 {
        return;
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

/// Like [`run_on`], but catches a cooperative job-control trip and returns it
/// as a typed [`EngineError`] instead of unwinding.
///
/// On `Err(EngineError::Cancelled { .. })` the pool is clean and immediately
/// reusable: the trip is raised on the coordinator thread at a superstep
/// boundary, never inside a pool worker. The vertex set is left in its
/// mid-job (barrier-consistent) state and should normally be discarded. The
/// same applies to `Err(EngineError::Spill(..))` — spill I/O failures from
/// the workers are collected at the phase barrier and re-raised on the
/// coordinator, and every temporary spill file is removed by the unwind. Any
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

    // ---- out-of-core spilling ------------------------------------------------

    /// A bounded flood on a ring: each vertex seeds a distinct value that
    /// travels `hops` steps, every visited vertex folding the max. The final
    /// values differ per vertex (each sees only its predecessor window), so
    /// any delivery reordering or loss under spilling changes the answer.
    struct HopFlood {
        n: u64,
        hops: u64,
    }

    impl VertexProgram for HopFlood {
        type Id = u64;
        type Value = u64;
        type Message = (u64, u64);
        type Aggregate = NoAggregate;

        fn compute(
            &self,
            ctx: &mut Context<'_, Self>,
            id: u64,
            value: &mut u64,
            msgs: &mut [(u64, u64)],
        ) {
            if ctx.superstep() == 0 {
                ctx.send_message((id + 1) % self.n, (*value, self.hops - 1));
            }
            for &mut (v, ttl) in msgs {
                *value = (*value).max(v);
                if ttl > 0 {
                    ctx.send_message((id + 1) % self.n, (v, ttl - 1));
                }
            }
            ctx.vote_to_halt();
        }

        fn spill_codecs() -> Option<crate::spill::SpillCodecs<Self>> {
            Some(crate::spill::SpillCodecs::new())
        }
    }

    /// Like [`SumToRoot`] but opted into spilling: every message targets
    /// vertex 0, so spilled runs and the RAM remainder must fold together
    /// across sources through the combiner during the merge.
    struct SpillSum;

    impl VertexProgram for SpillSum {
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

        fn spill_codecs() -> Option<crate::spill::SpillCodecs<Self>> {
            Some(crate::spill::SpillCodecs::new())
        }
    }

    /// Serializes the tests that scan the temp directory for the runner's
    /// job-scoped spill dirs, so one test's live dir never trips another's
    /// leak assertion.
    static SPILL_TMP_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Counts this process's live runner spill directories.
    fn job_spill_dirs() -> usize {
        let prefix = format!("ppa-spill-{}-job-", std::process::id());
        std::fs::read_dir(std::env::temp_dir())
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
                    .count()
            })
            .unwrap_or(0)
    }

    fn hop_flood_snapshot(workers: usize, cap: Option<u64>) -> (Vec<(u64, u64)>, Metrics) {
        // Large enough that every partition spans several 1024-slot extents,
        // so sealing actually trades resident columns for faulted windows.
        let program = HopFlood { n: 20_000, hops: 3 };
        let ctx = ExecCtx::new(workers);
        if let Some(cap) = cap {
            ctx.set_spill(crate::spill::SpillPolicy::At(cap));
        }
        let config = PregelConfig::default();
        let mut set: VertexSet<u64, u64> = VertexSet::from_pairs(
            workers,
            (0u64..20_000).map(|i| (i, i.wrapping_mul(2654435761) % 997)),
        );
        let metrics = run_on(&ctx, &program, &config, &mut set);
        ctx.clear_spill();
        let mut pairs: Vec<(u64, u64)> = set.iter().map(|(id, v)| (id, *v)).collect();
        pairs.sort_unstable();
        (pairs, metrics)
    }

    #[test]
    fn spilled_execution_is_identical_across_caps_and_worker_counts() {
        let _guard = SPILL_TMP_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let (baseline, base_metrics) = hop_flood_snapshot(4, None);
        assert_eq!(base_metrics.spilled_bytes, 0);
        assert!(base_metrics.peak_store_resident_bytes > 2048);
        for workers in [1usize, 2, 4] {
            // A cap far above the store: armed but never exercised. A cap far
            // below: sealed store + spilled outbox runs.
            for cap in [1u64 << 24, 65536] {
                let (pairs, metrics) = hop_flood_snapshot(workers, Some(cap));
                assert_eq!(
                    pairs, baseline,
                    "workers={workers} cap={cap} diverged from the resident run"
                );
                assert_eq!(metrics.supersteps, base_metrics.supersteps);
                assert_eq!(metrics.total_messages, base_metrics.total_messages);
                if cap == 65536 {
                    assert!(metrics.spilled_bytes > 0, "small cap must spill");
                    assert!(metrics.spilled_runs > 0);
                    assert!(metrics.spill_read_bytes > 0);
                    // The sealed store keeps only its window + directory in
                    // RAM, so the observed peak must undercut the resident
                    // peak.
                    assert!(
                        metrics.peak_store_resident_bytes < base_metrics.peak_store_resident_bytes,
                        "sealing must shrink the resident peak"
                    );
                } else {
                    assert_eq!(metrics.spilled_bytes, 0, "huge cap must not spill");
                }
            }
        }
        assert_eq!(
            job_spill_dirs(),
            0,
            "completed jobs must leave no spill dirs"
        );
    }

    #[test]
    fn spilled_combiner_folds_across_runs_like_resident_delivery() {
        let _guard = SPILL_TMP_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let n = 2000u64;
        for cap in [None, Some(256u64)] {
            let ctx = ExecCtx::new(4);
            if let Some(cap) = cap {
                ctx.set_spill(crate::spill::SpillPolicy::At(cap));
            }
            let config = PregelConfig::default();
            let mut set: VertexSet<u64, u64> = VertexSet::from_pairs(4, (0..n).map(|i| (i, 0u64)));
            let metrics = run_on(&ctx, &SpillSum, &config, &mut set);
            ctx.clear_spill();
            assert_eq!(*set.get(&0).unwrap(), n);
            assert!(metrics.converged);
            if cap.is_some() {
                assert!(metrics.spilled_runs > 0, "tiny cap must spill runs");
            }
        }
        assert_eq!(job_spill_dirs(), 0);
    }

    #[test]
    fn programs_without_codecs_ignore_the_spill_policy() {
        let ctx = ExecCtx::new(2);
        ctx.set_spill(crate::spill::SpillPolicy::At(1));
        let config = PregelConfig::default().max_supersteps(3);
        let mut set: VertexSet<u64, ()> = VertexSet::from_pairs(2, (0..16).map(|i| (i, ())));
        let metrics = run_on(&ctx, &NeverHalts, &config, &mut set);
        ctx.clear_spill();
        assert_eq!(metrics.spilled_bytes, 0);
        assert_eq!(metrics.spilled_runs, 0);
    }

    #[test]
    fn cancellation_mid_spill_removes_all_temp_files() {
        use crate::control::{CancelReason, JobControl};
        let _guard = SPILL_TMP_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let ctx = ExecCtx::new(2);
        // A cap small enough to seal the store and spill runs, plus a memory
        // budget that trips at the first superstep boundary — the unwind runs
        // while spill files are live on disk.
        ctx.set_spill(crate::spill::SpillPolicy::At(2048));
        ctx.set_control(JobControl::new().with_memory_budget(1));
        let program = HopFlood { n: 512, hops: 6 };
        let config = PregelConfig::default();
        let mut set: VertexSet<u64, u64> = VertexSet::from_pairs(2, (0..512).map(|i| (i, i % 97)));
        let err = try_run_on(&ctx, &program, &config, &mut set).unwrap_err();
        ctx.clear_control();
        ctx.clear_spill();
        assert_eq!(
            err,
            EngineError::Cancelled {
                reason: CancelReason::MemoryBudget,
                superstep: 0,
            }
        );
        assert_eq!(
            job_spill_dirs(),
            0,
            "a cancellation unwind must delete every spill dir and file"
        );
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
