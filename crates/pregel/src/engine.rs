//! The persistent execution engine: a long-lived [`WorkerPool`] plus the
//! [`ExecCtx`] handle that carries it through every parallel entry point of
//! the workspace.
//!
//! The paper's assembler chains many *short* supersteps across five
//! Pregel/MapReduce operations, so per-superstep overhead sits on the
//! critical path. Before this module existed, every superstep's compute and
//! shuffle phase — and every map and reduce phase — created a fresh
//! `std::thread::scope` worker team: two thread spawns + joins per worker per
//! superstep. [`WorkerPool`] spawns its threads **once**; afterwards a phase
//! is dispatched by handing each parked worker a job through a
//! condvar-protected slot and waiting on a completion latch. On a
//! short-superstep chain workload the hand-off is an order of magnitude
//! cheaper than a scope spawn.
//!
//! [`ExecCtx`] is the handle the rest of the workspace passes around:
//!
//! * it owns the pool (shared via `Arc`, so cloning an `ExecCtx` shares the
//!   same threads) and is the one way every job, pass and operation is told
//!   where, and on how many workers, it runs;
//! * it carries the run-wide settings every job reads at its start: the
//!   fault-injection plan (a testing hook), the [`JobControl`] handle and the
//!   [`SpillPolicy`] of the keyed pass. It holds no buffers: both superstep
//!   runners' message planes belong to their job and are dropped when it
//!   returns.
//!
//! `workflow::assemble` in `ppa_assembler` builds one `ExecCtx` per run (or
//! accepts one via `AssemblyConfig::exec`) and hands it down to all five
//! operations, so an entire assembly executes on a single worker team.
//!
//! # Dispatch contract
//!
//! Jobs run one-per-worker and the dispatching call blocks until every job
//! has finished (even when one panics — the first panic payload is re-raised
//! on the caller after the phase completes, mirroring what a scoped join
//! would do). Dispatches are serialised: two threads may share an `ExecCtx`,
//! but their phases run back to back, not interleaved. A job must **not**
//! dispatch onto its own pool (the workers are busy running it — the nested
//! dispatch would deadlock); every parallel entry point in this workspace
//! dispatches from the job-driving thread only.

use crate::control::{CancelReason, JobControl};
use crate::fault::{ArmedFaults, FaultPlan};
use crate::spill::SpillPolicy;
use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// A type-erased job: runs once on a pool worker.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A typed engine failure, produced by [`WorkerPool::try_run_per_worker`]
/// instead of re-raising a worker panic. The phase still completed — every
/// job ran to its end or panicked, the completion latch drained — so the pool
/// is clean and immediately reusable for the next job. This is the
/// cancellation seam a job server needs: a failed stage unwinds as a value,
/// not a process abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A worker job panicked during the phase.
    WorkerPanic {
        /// Index of the first worker whose job panicked.
        worker: usize,
        /// The panic message, if the payload was a string (panics almost
        /// always are); a placeholder otherwise.
        message: String,
    },
    /// The job's [`JobControl`] tripped at a cooperative poll. Raised on the
    /// **coordinator** thread at a BSP barrier (never inside a pool worker),
    /// so the store is barrier-consistent and the pool stays reusable.
    Cancelled {
        /// Why the control plane stopped the job.
        reason: CancelReason,
        /// The superstep boundary at which the poll fired; 0 for barrier
        /// polls outside a superstep loop (the keyed pass's scatter→fold
        /// hand-off, contig merging and bubble filtering).
        superstep: usize,
    },
    /// A keyed pass's out-of-core spill operation failed (I/O error, or a
    /// truncated or corrupt key-segment file). Raised on the **coordinator**
    /// thread after the phase's barrier, like [`EngineError::Cancelled`], so
    /// the pool stays reusable; the pass's temp spill files are cleaned up by
    /// RAII during the unwind.
    Spill(crate::spill::SpillError),
    /// A job whose result is only meaningful at convergence used up its
    /// superstep budget first. Raised on the **coordinator** thread after
    /// the job has returned, so the pool stays reusable. Rerunning the same
    /// job would stop at the same superstep.
    NotConverged {
        /// The supersteps the job ran.
        supersteps: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::WorkerPanic { worker, message } => {
                write!(f, "worker {worker} panicked: {message}")
            }
            EngineError::Cancelled { reason, superstep } => {
                write!(f, "job cancelled at superstep {superstep}: {reason}")
            }
            EngineError::Spill(err) => write!(f, "spill failure: {err}"),
            EngineError::NotConverged { supersteps } => {
                write!(f, "job has not converged after {supersteps} supersteps")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Renders a panic payload as a message (payloads are `&str` or `String` in
/// practice, or an [`EngineError`] raised on a coordinator thread).
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(err) = payload.downcast_ref::<EngineError>() {
        err.to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// State shared between the dispatcher and the worker threads.
struct PoolState {
    /// One hand-off slot per worker; `Some` while a job is waiting to start.
    slots: Vec<Option<Job>>,
    /// Jobs dispatched but not yet finished in the current phase.
    remaining: usize,
    /// First panic observed in the current phase: (worker index, payload).
    panic: Option<(usize, Box<dyn Any + Send>)>,
    /// Set once, on drop: workers exit instead of parking.
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here waiting for their slot to fill.
    work_ready: Condvar,
    /// The dispatcher parks here waiting for `remaining` to hit zero.
    work_done: Condvar,
    /// Total nanoseconds workers have spent executing jobs (across the pool's
    /// lifetime). The runner diffs this around a phase to compute pool
    /// utilization.
    busy_nanos: AtomicU64,
}

/// Mutex locking that shrugs off poisoning: a panicking job is already
/// captured in `PoolState::panic` and re-raised at the dispatch site, so the
/// state itself is never left half-updated.
fn lock(m: &Mutex<PoolState>) -> MutexGuard<'_, PoolState> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A fixed team of long-lived worker threads with barrier-style job hand-off.
///
/// Construction spawns the threads; every subsequent phase reuses them. The
/// pool is the **only** place in the workspace that spawns threads for the
/// steady-state parallel paths (runner, keyed pass, the ops' own phases).
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    /// Serialises dispatches so concurrent callers cannot interleave phases.
    dispatch_lock: Mutex<()>,
}

impl WorkerPool {
    /// Spawns a pool of `workers` persistent threads (clamped to at least 1).
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                slots: (0..workers).map(|_| None).collect(),
                remaining: 0,
                panic: None,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
            busy_nanos: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ppa-worker-{w}"))
                    .spawn(move || worker_main(&shared, w))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            dispatch_lock: Mutex::new(()),
        }
    }

    /// The number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Cumulative nanoseconds spent executing jobs since the pool was built,
    /// summed over all workers. Diff around a phase for utilization metrics.
    pub fn busy_nanos(&self) -> u64 {
        self.shared.busy_nanos.load(Ordering::Relaxed)
    }

    /// Runs `f(worker_index, input)` for each input on its worker thread and
    /// returns the results in worker order. Blocks until every job finished;
    /// if a job panicked, the first panic is re-raised here (after all other
    /// jobs of the phase completed, so borrowed data is no longer in use).
    ///
    /// `inputs.len()` must not exceed [`workers`](WorkerPool::workers); phases
    /// dispatch exactly one job per worker.
    pub fn run_per_worker<T, R, F>(&self, inputs: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        match self.run_per_worker_inner(inputs, f) {
            Ok(results) => results,
            Err((_, payload)) => resume_unwind(payload),
        }
    }

    /// Like [`run_per_worker`](WorkerPool::run_per_worker), but converts a
    /// worker panic into a typed [`EngineError`] instead of re-raising it.
    /// The phase completes either way (see the dispatch contract), so after
    /// an `Err` the pool is clean and the next job runs as if on a fresh
    /// pool. Callers that need crash-safe stage execution (the pipeline's
    /// `try_run`) use this entry point.
    pub fn try_run_per_worker<T, R, F>(&self, inputs: Vec<T>, f: F) -> Result<Vec<R>, EngineError>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.run_per_worker_inner(inputs, f)
            .map_err(|(worker, payload)| EngineError::WorkerPanic {
                worker,
                message: panic_message(payload.as_ref()),
            })
    }

    /// Shared core of the two `run_per_worker` entry points: `Err` carries
    /// the first panicking worker's index and payload.
    fn run_per_worker_inner<T, R, F>(
        &self,
        inputs: Vec<T>,
        f: F,
    ) -> Result<Vec<R>, (usize, Box<dyn Any + Send>)>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = inputs.len();
        assert!(
            n <= self.workers(),
            "dispatched {n} jobs onto a pool of {} workers",
            self.workers()
        );
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let panic = {
            let f = &f;
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = inputs
                .into_iter()
                .zip(results.iter_mut())
                .enumerate()
                .map(|(w, (input, slot))| {
                    Box::new(move || {
                        *slot = Some(f(w, input));
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            self.dispatch(jobs)
        };
        if let Some(panic) = panic {
            return Err(panic);
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("pool job completed without a result"))
            .collect())
    }

    /// Hands one job to each of the first `jobs.len()` workers and blocks
    /// until all of them finished, returning the first panic (worker index +
    /// payload) if any job panicked. The pool's state is fully reset before
    /// returning — `remaining` is zero and the panic slot drained — so the
    /// caller decides whether to re-raise or to convert the panic into a
    /// typed error, and the next dispatch starts clean either way.
    ///
    /// # Safety of the lifetime erasure
    ///
    /// The boxed jobs may borrow from the caller's stack. This is sound for
    /// the same reason `std::thread::scope` is: this function does not return
    /// (not even by unwinding) until every job has run to completion or
    /// panicked — the completion latch counts panicked jobs too — so no
    /// borrow outlives its referent.
    fn dispatch(
        &self,
        jobs: Vec<Box<dyn FnOnce() + Send + '_>>,
    ) -> Option<(usize, Box<dyn Any + Send>)> {
        if jobs.is_empty() {
            return None;
        }
        let jobs: Vec<Job> = jobs
            .into_iter()
            // SAFETY: erases the borrow lifetime only. Sound for the reason
            // `std::thread::scope` is (see "Safety of the lifetime erasure"
            // above): dispatch does not return until every job has run or
            // panicked, so no borrow outlives its referent.
            .map(|job| unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) })
            .collect();
        let guard = self
            .dispatch_lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let n = jobs.len();
        {
            let mut st = lock(&self.shared.state);
            debug_assert_eq!(st.remaining, 0, "previous phase still in flight");
            for (slot, job) in st.slots.iter_mut().zip(jobs) {
                *slot = Some(job);
            }
            st.remaining = n;
        }
        self.shared.work_ready.notify_all();
        let mut st = lock(&self.shared.state);
        while st.remaining > 0 {
            st = self
                .shared
                .work_done
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        let panic = st.panic.take();
        drop(st);
        drop(guard);
        panic
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .finish()
    }
}

/// The park-run loop of one worker thread.
fn worker_main(shared: &PoolShared, w: usize) {
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(job) = st.slots[w].take() {
                    break job;
                }
                st = shared
                    .work_ready
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(job));
        shared
            .busy_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let mut st = lock(&shared.state);
        if let Err(payload) = outcome {
            if st.panic.is_none() {
                st.panic = Some((w, payload));
            }
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.work_done.notify_all();
        }
    }
}

/// The execution context passed to every parallel entry point: one shared
/// [`WorkerPool`] plus the run-wide settings its jobs read.
///
/// Cloning is cheap and shares the pool (and the settings), so a workflow
/// constructs one `ExecCtx` and hands it to each operation. Equality is identity: two `ExecCtx`s are equal iff they
/// share the same pool.
#[derive(Clone)]
pub struct ExecCtx {
    inner: Arc<CtxInner>,
}

struct CtxInner {
    pool: WorkerPool,
    /// Armed fault-injection plan, if any (testing hook; `None` in
    /// production). Probed by the runner and pipeline at their crash points.
    faults: Mutex<Option<Arc<ArmedFaults>>>,
    /// Installed job-control handle, if any. Polled cooperatively by the
    /// runner, the keyed pass, contig merging and bubble filtering at their
    /// BSP barriers, and by the pipeline at stage boundaries.
    control: Mutex<Option<JobControl>>,
    /// Installed spill policy, if any. Read once per pass by the keyed pass,
    /// which then runs in bounded-memory mode against the policy's byte cap;
    /// the superstep runners do not read it.
    spill: Mutex<Option<SpillPolicy>>,
}

impl ExecCtx {
    /// Builds a context with its own pool of `workers` persistent threads.
    pub fn new(workers: usize) -> ExecCtx {
        ExecCtx {
            inner: Arc::new(CtxInner {
                pool: WorkerPool::new(workers),
                faults: Mutex::new(None),
                control: Mutex::new(None),
                spill: Mutex::new(None),
            }),
        }
    }

    /// Arms a [`FaultPlan`] on this context (testing hook). The runner, the
    /// pipeline, and checkpoint writes probe the armed plan and fail
    /// deterministically at the planned points; each fault fires once.
    /// Replaces any previously armed plan. Shared across clones, like the
    /// pool.
    pub fn inject_faults(&self, plan: FaultPlan) -> Arc<ArmedFaults> {
        let armed = Arc::new(ArmedFaults::new(plan));
        *self
            .inner
            .faults
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(Arc::clone(&armed));
        armed
    }

    /// Disarms any armed fault plan.
    pub fn clear_faults(&self) {
        *self
            .inner
            .faults
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
    }

    /// The armed fault plan, if any. Callers grab this once per job/stage and
    /// probe the `Arc` directly, keeping the hot loops free of locking.
    pub fn faults(&self) -> Option<Arc<ArmedFaults>> {
        self.inner
            .faults
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Installs a [`JobControl`] handle on this context: every job run on the
    /// context polls it cooperatively at its BSP barriers until
    /// [`clear_control`](ExecCtx::clear_control) removes it. Replaces any
    /// previously installed handle. Shared across clones, like the pool.
    pub fn set_control(&self, control: JobControl) {
        *self
            .inner
            .control
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(control);
    }

    /// Removes any installed [`JobControl`] handle.
    pub fn clear_control(&self) {
        *self
            .inner
            .control
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
    }

    /// The installed job-control handle, if any. Like [`faults`](ExecCtx::faults),
    /// callers grab this once per job/stage and poll the clone directly,
    /// keeping the hot loops free of locking.
    pub fn control(&self) -> Option<JobControl> {
        self.inner
            .control
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// One cooperative control poll at a barrier that sits outside a
    /// superstep loop (the keyed pass between scatter and fold, contig
    /// merging between grouping and stitching, bubble filtering between
    /// grouping and comparing): a trip is raised as
    /// [`EngineError::Cancelled`] on the calling — coordinator — thread, so
    /// the pool never sees the unwind. There is no superstep counter or
    /// bookkept store at these barriers: 0 for both.
    pub fn poll_barrier(&self) {
        if let Some(reason) = self.control().and_then(|control| control.poll(0)) {
            std::panic::panic_any(EngineError::Cancelled {
                reason,
                superstep: 0,
            });
        }
    }

    /// Installs a [`SpillPolicy`] on this context: keyed passes run on the
    /// context may spill key segments to disk once the policy's byte cap is
    /// exceeded (Pregel jobs stay resident), until
    /// [`clear_spill`](ExecCtx::clear_spill) removes it. Replaces any
    /// previously installed policy. Shared across clones, like the pool.
    pub fn set_spill(&self, policy: SpillPolicy) {
        *self
            .inner
            .spill
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(policy);
    }

    /// Removes any installed [`SpillPolicy`].
    // ppa_lint: allow(test-only-pub) `set_spill`'s inverse, for a caller handing a shared context on uncapped
    pub fn clear_spill(&self) {
        *self
            .inner
            .spill
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
    }

    /// The installed spill policy, if any. Jobs read this once at start, so
    /// the hot loops stay free of locking.
    pub fn spill(&self) -> Option<SpillPolicy> {
        *self
            .inner
            .spill
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The number of pool workers.
    pub fn workers(&self) -> usize {
        self.inner.pool.workers()
    }

    /// The underlying worker pool.
    pub fn pool(&self) -> &WorkerPool {
        &self.inner.pool
    }

    /// Asserts that this context's pool size matches a configured worker
    /// count, naming `what` in the panic message. `workers` is clamped to 1
    /// first, mirroring how every pool and config constructor clamps, so a
    /// configured 0 pairs fine with the 1-thread pool it produces.
    pub fn assert_matches(&self, workers: usize, what: &str) {
        assert_eq!(
            self.workers(),
            workers.max(1),
            "ExecCtx pool size ({}) must match {what} ({workers})",
            self.workers(),
        );
    }
}

impl std::fmt::Debug for ExecCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecCtx")
            .field("workers", &self.workers())
            .finish()
    }
}

impl PartialEq for ExecCtx {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Eq for ExecCtx {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_one_job_per_worker_with_results_in_order() {
        let pool = WorkerPool::new(4);
        let out = pool.run_per_worker((0..4).collect(), |w, x: usize| {
            assert_eq!(w, x);
            w * 10 + x
        });
        assert_eq!(out, vec![0, 11, 22, 33]);
    }

    #[test]
    fn jobs_may_borrow_and_mutate_caller_state() {
        let pool = WorkerPool::new(3);
        let mut buffers: Vec<Vec<u64>> = vec![Vec::new(); 3];
        let base = 100u64;
        let inputs: Vec<&mut Vec<u64>> = buffers.iter_mut().collect();
        pool.run_per_worker(inputs, |w, buf| {
            buf.push(base + w as u64);
        });
        assert_eq!(buffers, vec![vec![100], vec![101], vec![102]]);
    }

    #[test]
    fn pool_is_reused_across_many_dispatches() {
        // The short-superstep shape: many tiny phases through one pool.
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        for _ in 0..500 {
            pool.run_per_worker(vec![(), ()], |_, ()| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert!(pool.busy_nanos() > 0);
    }

    #[test]
    fn fewer_jobs_than_workers_is_allowed() {
        let pool = WorkerPool::new(4);
        let out = pool.run_per_worker(vec![1u64, 2], |_, x| x * 2);
        assert_eq!(out, vec![2, 4]);
    }

    #[test]
    #[should_panic(expected = "onto a pool of")]
    fn more_jobs_than_workers_panics() {
        let pool = WorkerPool::new(2);
        let _ = pool.run_per_worker(vec![1, 2, 3], |_, x: i32| x);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(3);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_per_worker(vec![0, 1, 2], |_, x: u32| {
                if x == 1 {
                    panic!("boom in worker");
                }
                x
            })
        }));
        assert!(result.is_err(), "panic must cross the dispatch");
        // The phase latch still drained; the pool keeps working.
        let out = pool.run_per_worker(vec![5u32, 6, 7], |_, x| x + 1);
        assert_eq!(out, vec![6, 7, 8]);
    }

    #[test]
    fn try_run_per_worker_returns_typed_error_and_pool_stays_clean() {
        let pool = WorkerPool::new(3);
        let err = pool
            .try_run_per_worker(vec![0u32, 1, 2], |_, x| {
                if x == 2 {
                    panic!("boom on {x}");
                }
                x * 10
            })
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::WorkerPanic {
                worker: 2,
                message: "boom on 2".into(),
            }
        );
        assert!(err.to_string().contains("worker 2"));
        // The pool is immediately reusable, both entry points.
        assert_eq!(
            pool.try_run_per_worker(vec![1u32, 2, 3], |_, x| x + 1),
            Ok(vec![2, 3, 4])
        );
        assert_eq!(pool.run_per_worker(vec![7u32], |_, x| x), vec![7]);
    }

    #[test]
    fn worker_panic_reports_first_panicking_worker() {
        let pool = WorkerPool::new(2);
        let err = pool
            .try_run_per_worker(vec![(), ()], |w, ()| {
                panic!("worker {w} dies");
            })
            .unwrap_err();
        match err {
            EngineError::WorkerPanic { worker, message } => {
                assert!(worker < 2);
                assert!(message.contains(&format!("worker {worker} dies")));
            }
            other => panic!("expected a WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn panic_message_handles_common_payloads() {
        let s: Box<dyn Any + Send> = Box::new("static str");
        assert_eq!(panic_message(s.as_ref()), "static str");
        let s: Box<dyn Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(s.as_ref()), "owned");
        let s: Box<dyn Any + Send> = Box::new(42u8);
        assert_eq!(panic_message(s.as_ref()), "non-string panic payload");
    }

    #[test]
    fn fault_plan_armed_and_cleared_on_ctx() {
        let ctx = ExecCtx::new(1);
        assert!(ctx.faults().is_none());
        let armed = ctx.inject_faults(FaultPlan::single(crate::fault::Fault::StageEntry {
            stage: 0,
        }));
        let probe = ctx.faults().expect("armed");
        assert!(Arc::ptr_eq(&armed, &probe));
        // Clones share the armed plan, like the pool.
        assert!(ctx.clone().faults().is_some());
        ctx.clear_faults();
        assert!(ctx.faults().is_none());
    }

    #[test]
    fn job_control_installed_and_cleared_on_ctx() {
        let ctx = ExecCtx::new(1);
        assert!(ctx.control().is_none());
        let control = JobControl::new();
        ctx.set_control(control.clone());
        // Clones share the installed handle, like the pool: cancelling the
        // caller's handle is visible through the context's clone.
        control.cancel();
        assert!(ctx.clone().control().expect("installed").reason().is_some());
        ctx.clear_control();
        assert!(ctx.control().is_none());
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
    }

    #[test]
    fn assert_matches_clamps_like_the_constructors() {
        // A configured 0 produces a 1-thread pool, so the pair must validate.
        ExecCtx::new(0).assert_matches(0, "Config.workers");
        ExecCtx::new(3).assert_matches(3, "Config.workers");
    }

    #[test]
    #[should_panic(expected = "must match Config.workers (2)")]
    fn assert_matches_rejects_a_real_mismatch() {
        ExecCtx::new(3).assert_matches(2, "Config.workers");
    }

    #[test]
    fn exec_ctx_shares_pool_across_clones() {
        let ctx = ExecCtx::new(2);
        let clone = ctx.clone();
        assert_eq!(ctx, clone);
        assert_ne!(ctx, ExecCtx::new(2));
        assert!(std::ptr::eq(ctx.pool(), clone.pool()));
    }

    #[test]
    fn busy_nanos_accumulates() {
        let pool = WorkerPool::new(2);
        let before = pool.busy_nanos();
        pool.run_per_worker(vec![(), ()], |_, ()| {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        assert!(pool.busy_nanos() >= before + 2_000_000);
    }
}
