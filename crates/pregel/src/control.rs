//! Cooperative job control: cancellation, deadlines, and memory budgets.
//!
//! A [`JobControl`] is a cloneable handle shared between the party running an
//! assembly and the party supervising it. The supervisor side may
//! [`cancel`](JobControl::cancel) the job, arm a wall-clock deadline, or cap
//! the vertex store's resident bytes; the engine side polls the handle
//! **cooperatively at BSP barriers only** — every superstep boundary of the
//! [`runner`](crate::runner), the scatter→fold hand-off of the
//! [keyed pass](crate::keycount), and the barriers contig merging and bubble
//! filtering poll themselves through
//! [`ExecCtx::poll_barrier`](crate::engine::ExecCtx::poll_barrier) — the
//! same superstep-boundary consistency discipline the BSP model already
//! enforces for fault tolerance.
//!
//! A trip is **latched**: the first reason to fire wins and every later poll
//! reports it. The engine surfaces a trip as
//! [`EngineError::Cancelled`](crate::engine::EngineError::Cancelled) raised on
//! the *coordinator* thread (never inside a pool worker), so the persistent
//! [`WorkerPool`](crate::engine::WorkerPool) stays reusable exactly like the
//! fault-injection panic path. Higher layers (the assembler's `Pipeline`)
//! additionally poll at stage boundaries and translate the trip into their
//! own typed error.
//!
//! The handle is installed on an [`ExecCtx`](crate::engine::ExecCtx) via
//! [`set_control`](crate::engine::ExecCtx::set_control) and removed with
//! [`clear_control`](crate::engine::ExecCtx::clear_control); with no handle
//! installed the engine pays one `Option` check per barrier.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a job was cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CancelReason {
    /// [`JobControl::cancel`] was called (an operator or supervisor request).
    Requested,
    /// The wall-clock deadline armed with
    /// [`with_deadline_in`](JobControl::with_deadline_in) passed.
    Deadline,
    /// The vertex store's resident bytes exceeded the budget armed with
    /// [`with_memory_budget`](JobControl::with_memory_budget).
    MemoryBudget,
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelReason::Requested => write!(f, "cancellation requested"),
            CancelReason::Deadline => write!(f, "deadline exceeded"),
            CancelReason::MemoryBudget => write!(f, "memory budget exceeded"),
        }
    }
}

/// `cancelled` encoding: 0 = live, otherwise `reason_code(reason)`.
const LIVE: u8 = 0;

fn reason_code(reason: CancelReason) -> u8 {
    match reason {
        CancelReason::Requested => 1,
        CancelReason::Deadline => 2,
        CancelReason::MemoryBudget => 3,
    }
}

fn code_reason(code: u8) -> Option<CancelReason> {
    match code {
        1 => Some(CancelReason::Requested),
        2 => Some(CancelReason::Deadline),
        3 => Some(CancelReason::MemoryBudget),
        _ => None,
    }
}

/// Shared state behind every clone of one [`JobControl`].
struct ControlInner {
    /// `LIVE` until the first trip latches its reason code.
    cancelled: AtomicU8,
    /// Deadline as nanoseconds after `epoch`; 0 = no deadline armed.
    deadline_nanos: AtomicU64,
    /// Reference instant for the deadline encoding (atomics cannot hold an
    /// `Instant` directly).
    epoch: Instant,
    /// Resident-bytes cap; 0 = no budget armed.
    memory_budget: AtomicU64,
    /// Total number of cooperative polls across all barriers.
    checks: AtomicU64,
}

/// A shared cancel token with an optional deadline and memory budget.
///
/// See the [module docs](crate::control) for the polling contract. Clones
/// share one latch: cancelling any clone cancels the job.
#[derive(Clone)]
pub struct JobControl {
    inner: Arc<ControlInner>,
}

impl Default for JobControl {
    fn default() -> Self {
        JobControl::new()
    }
}

impl std::fmt::Debug for JobControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobControl")
            .field("cancelled", &self.reason())
            .field("checks", &self.checks())
            .finish()
    }
}

impl JobControl {
    /// A live handle with no deadline and no memory budget.
    pub fn new() -> JobControl {
        JobControl {
            inner: Arc::new(ControlInner {
                cancelled: AtomicU8::new(LIVE),
                deadline_nanos: AtomicU64::new(0),
                epoch: Instant::now(),
                memory_budget: AtomicU64::new(0),
                checks: AtomicU64::new(0),
            }),
        }
    }

    /// Requests cancellation: the next cooperative poll trips with
    /// [`CancelReason::Requested`]. Idempotent; an already-latched reason
    /// (e.g. an earlier deadline trip) is kept.
    pub fn cancel(&self) {
        self.latch(CancelReason::Requested);
    }

    /// Arms (or re-arms, for every clone) a deadline `timeout` from now.
    /// Polls after the deadline trip with [`CancelReason::Deadline`].
    #[must_use]
    // ppa_lint: allow(test-only-pub) the control plane's deadline knob, for callers that bound a job's wall-clock
    pub fn with_deadline_in(self, timeout: Duration) -> JobControl {
        let nanos = (self.inner.epoch.elapsed() + timeout).as_nanos();
        // Saturate: a u64 of nanoseconds is ~584 years of runway.
        self.inner.deadline_nanos.store(
            u64::try_from(nanos).unwrap_or(u64::MAX).max(1),
            Ordering::SeqCst,
        );
        self
    }

    /// Arms (or re-arms, for every clone) a resident-bytes budget for the
    /// vertex store: a superstep boundary observing more than `bytes`
    /// resident trips with [`CancelReason::MemoryBudget`]. A budget of 0
    /// disarms the guard.
    #[must_use]
    pub fn with_memory_budget(self, bytes: u64) -> JobControl {
        self.inner.memory_budget.store(bytes, Ordering::SeqCst);
        self
    }

    /// One cooperative poll from a BSP barrier: records the check, evaluates
    /// the deadline and the budget against `resident_bytes`, and returns the
    /// (latched) reason if the job must stop. Called by the engine on the
    /// coordinator thread; callers raise
    /// [`EngineError::Cancelled`](crate::engine::EngineError::Cancelled) on
    /// `Some`.
    pub fn poll(&self, resident_bytes: u64) -> Option<CancelReason> {
        self.inner.checks.fetch_add(1, Ordering::Relaxed);
        if let Some(reason) = self.reason() {
            return Some(reason);
        }
        let deadline = self.inner.deadline_nanos.load(Ordering::SeqCst);
        if deadline != 0 && self.inner.epoch.elapsed().as_nanos() as u64 >= deadline {
            return Some(self.latch(CancelReason::Deadline));
        }
        let budget = self.inner.memory_budget.load(Ordering::SeqCst);
        if budget != 0 && resident_bytes > budget {
            return Some(self.latch(CancelReason::MemoryBudget));
        }
        None
    }

    /// The latched reason, if any.
    pub fn reason(&self) -> Option<CancelReason> {
        code_reason(self.inner.cancelled.load(Ordering::SeqCst))
    }

    /// Total cooperative polls so far, across every barrier and every clone —
    /// the control plane's own cost/liveness meter.
    pub fn checks(&self) -> u64 {
        self.inner.checks.load(Ordering::Relaxed)
    }

    /// Latches `reason` if no reason is latched yet; returns the winner.
    fn latch(&self, reason: CancelReason) -> CancelReason {
        match self.inner.cancelled.compare_exchange(
            LIVE,
            reason_code(reason),
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => reason,
            Err(prev) => code_reason(prev).unwrap_or(reason),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_handle_is_live_and_counts_checks() {
        let control = JobControl::new();
        assert!(control.reason().is_none());
        assert_eq!(control.poll(u64::MAX), None);
        assert_eq!(control.poll(0), None);
        assert_eq!(control.checks(), 2);
    }

    #[test]
    fn cancel_latches_requested_across_clones() {
        let control = JobControl::new();
        let clone = control.clone();
        clone.cancel();
        assert_eq!(control.poll(0), Some(CancelReason::Requested));
        assert_eq!(control.reason(), Some(CancelReason::Requested));
        // The first reason wins; a later deadline cannot overwrite it.
        let _ = control.clone().with_deadline_in(Duration::ZERO);
        assert_eq!(control.poll(0), Some(CancelReason::Requested));
    }

    #[test]
    fn expired_deadline_trips_on_poll() {
        let control = JobControl::new().with_deadline_in(Duration::ZERO);
        assert!(
            control.reason().is_none(),
            "deadlines fire on poll, not arm"
        );
        assert_eq!(control.poll(0), Some(CancelReason::Deadline));
        assert!(control.reason().is_some());
    }

    #[test]
    fn distant_deadline_does_not_trip() {
        let control = JobControl::new().with_deadline_in(Duration::from_secs(3600));
        assert_eq!(control.poll(0), None);
    }

    #[test]
    fn memory_budget_trips_only_above_the_cap() {
        let control = JobControl::new().with_memory_budget(1024);
        assert_eq!(control.poll(1024), None, "at the cap is within budget");
        assert_eq!(control.poll(1025), Some(CancelReason::MemoryBudget));
        // Latched: even a small follow-up poll reports the trip.
        assert_eq!(control.poll(0), Some(CancelReason::MemoryBudget));
    }

    #[test]
    fn zero_budget_means_unlimited() {
        let control = JobControl::new();
        assert_eq!(control.poll(u64::MAX), None);
    }

    #[test]
    fn reasons_render_for_operators() {
        assert_eq!(
            CancelReason::Requested.to_string(),
            "cancellation requested"
        );
        assert_eq!(CancelReason::Deadline.to_string(), "deadline exceeded");
        assert_eq!(
            CancelReason::MemoryBudget.to_string(),
            "memory budget exceeded"
        );
    }
}
