//! Deterministic fault injection for crash-recovery testing.
//!
//! Real fault tolerance cannot be validated with real crashes: a test needs a
//! *deterministic* failure at a chosen point in the ①②③(④⑤②③)×r workflow so
//! that resume-after-crash output can be compared byte-for-byte against an
//! uninterrupted run. A [`FaultPlan`] describes such failures — "panic on
//! worker `w` at superstep `k` of stage `s`", "fail the `n`-th checkpoint
//! write" — and is armed on an [`ExecCtx`](crate::ExecCtx) via
//! [`ExecCtx::inject_faults`](crate::ExecCtx::inject_faults). The engine,
//! superstep runner, and (in `ppa_assembler`) pipeline/checkpoint layers probe
//! the armed plan at their natural crash points and fail *once* per fault,
//! exactly as an external crash would, after which a retry proceeds cleanly.
//!
//! This is a testing hook: production runs never arm a plan, and the probes
//! reduce to a cheap `Option` check that is hoisted out of the hot loops.
//!
//! Stages are identified by their **flattened 0-based position** in the
//! pipeline (repeat blocks unrolled), matching the stage numbering used by
//! checkpoint manifests.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Marker for "no stage entered yet".
const NO_STAGE: usize = usize::MAX;

/// One deterministic failure point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic on entry to flattened stage `stage`, before any work runs —
    /// a crash exactly at a stage boundary.
    StageEntry {
        /// Flattened 0-based stage position.
        stage: usize,
    },
    /// Panic on worker `worker` during the compute phase of superstep
    /// `superstep` (0-based) of flattened stage `stage` — a crash at a
    /// mid-stage superstep barrier.
    Superstep {
        /// Flattened 0-based stage position.
        stage: usize,
        /// 0-based superstep index within the stage's Pregel job.
        superstep: usize,
        /// Worker index to fail on.
        worker: usize,
    },
    /// Fail the `nth` checkpoint write (1-based) with an I/O error instead of
    /// a panic, exercising the typed checkpoint-error path.
    CheckpointWrite {
        /// 1-based index of the checkpoint save to fail.
        nth: usize,
    },
    /// Sleep `millis` on the coordinator at the boundary of superstep
    /// `superstep` — the first Pregel job to reach that boundary stalls,
    /// regardless of stage. Not a crash: the job continues afterwards. This
    /// makes deadline trips of the job-control plane testable without
    /// wall-clock flakiness (the stall guarantees the deadline has passed by
    /// the time the boundary poll runs).
    Stall {
        /// 0-based superstep boundary to stall at.
        superstep: usize,
        /// How long to sleep, in milliseconds.
        millis: u64,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::StageEntry { stage } => write!(f, "entry to stage {stage}"),
            Fault::Superstep {
                stage,
                superstep,
                worker,
            } => write!(
                f,
                "worker {worker} at superstep {superstep} of stage {stage}"
            ),
            Fault::CheckpointWrite { nth } => write!(f, "checkpoint write #{nth}"),
            Fault::Stall { superstep, millis } => {
                write!(f, "{millis}ms stall at superstep {superstep}")
            }
        }
    }
}

/// A set of faults to inject into one run. Build with [`FaultPlan::new`] and
/// arm via [`ExecCtx::inject_faults`](crate::ExecCtx::inject_faults).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a fault (builder style).
    // ppa_lint: allow(test-only-pub) fault-injection seam: tests arm plans of several faults
    pub fn with(mut self, fault: Fault) -> FaultPlan {
        self.faults.push(fault);
        self
    }

    /// A plan with a single fault.
    pub fn single(fault: Fault) -> FaultPlan {
        FaultPlan::new().with(fault)
    }

    /// The faults in the plan.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }
}

/// An armed [`FaultPlan`]: the plan plus the mutable bookkeeping (current
/// stage, per-fault fired flags, checkpoint-write counter) shared across the
/// layers that probe it. Each fault fires at most once.
#[derive(Debug)]
pub struct ArmedFaults {
    faults: Vec<Fault>,
    fired: Vec<AtomicBool>,
    current_stage: AtomicUsize,
    checkpoint_writes: AtomicUsize,
}

impl ArmedFaults {
    /// Arms a plan.
    pub fn new(plan: FaultPlan) -> ArmedFaults {
        let fired = plan.faults.iter().map(|_| AtomicBool::new(false)).collect();
        ArmedFaults {
            faults: plan.faults,
            fired,
            current_stage: AtomicUsize::new(NO_STAGE),
            checkpoint_writes: AtomicUsize::new(0),
        }
    }

    /// Records that flattened stage `stage` is about to run. Called by the
    /// pipeline before each stage so superstep probes know their stage.
    pub fn enter_stage(&self, stage: usize) {
        self.current_stage.store(stage, Ordering::SeqCst);
    }

    /// Atomically claims fault `i`: true exactly once.
    fn claim(&self, i: usize) -> bool {
        !self.fired[i].swap(true, Ordering::SeqCst)
    }

    /// Panics if an unfired [`Fault::StageEntry`] matches the current stage.
    /// Probed by the pipeline right after [`enter_stage`](Self::enter_stage),
    /// inside the region whose panics become typed stage errors.
    pub fn probe_stage_entry(&self) {
        let stage = self.current_stage.load(Ordering::SeqCst);
        for (i, f) in self.faults.iter().enumerate() {
            if let Fault::StageEntry { stage: s } = *f {
                if s == stage && self.claim(i) {
                    panic!("injected fault: {f}");
                }
            }
        }
    }

    /// Panics if an unfired [`Fault::Superstep`] matches (current stage,
    /// `superstep`, `worker`). Probed by the superstep runner at the start of
    /// each worker's compute job.
    pub fn probe_superstep(&self, superstep: usize, worker: usize) {
        let stage = self.current_stage.load(Ordering::SeqCst);
        for (i, f) in self.faults.iter().enumerate() {
            if let Fault::Superstep {
                stage: s,
                superstep: k,
                worker: w,
            } = *f
            {
                if s == stage && k == superstep && w == worker && self.claim(i) {
                    panic!("injected fault: {f}");
                }
            }
        }
    }

    /// Reports the sleep duration of an unfired [`Fault::Stall`] matching
    /// `superstep`, claiming it. Probed by the superstep runner on the
    /// **coordinator** thread at each superstep boundary, right before the
    /// job-control poll; the caller performs the sleep.
    pub fn probe_stall(&self, superstep: usize) -> Option<u64> {
        for (i, f) in self.faults.iter().enumerate() {
            if let Fault::Stall {
                superstep: k,
                millis,
            } = *f
            {
                if k == superstep && self.claim(i) {
                    return Some(millis);
                }
            }
        }
        None
    }

    /// Counts a checkpoint write and reports whether an unfired
    /// [`Fault::CheckpointWrite`] claims it. The caller (checkpoint save)
    /// turns `true` into a typed I/O error rather than a panic.
    pub fn probe_checkpoint_write(&self) -> bool {
        let nth = self.checkpoint_writes.fetch_add(1, Ordering::SeqCst) + 1;
        for (i, f) in self.faults.iter().enumerate() {
            if let Fault::CheckpointWrite { nth: n } = *f {
                if n == nth && self.claim(i) {
                    return true;
                }
            }
        }
        false
    }

    /// Whether every fault in the plan has fired.
    // ppa_lint: allow(test-only-pub) fault-injection seam: tests check their faults were reached
    pub fn all_fired(&self) -> bool {
        self.fired.iter().all(|f| f.load(Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn stage_entry_fires_once_on_matching_stage() {
        let armed = ArmedFaults::new(FaultPlan::single(Fault::StageEntry { stage: 2 }));
        armed.enter_stage(0);
        armed.probe_stage_entry(); // no match, no panic
        armed.enter_stage(2);
        let r = catch_unwind(AssertUnwindSafe(|| armed.probe_stage_entry()));
        assert!(r.is_err(), "must fire on stage 2");
        assert!(armed.all_fired());
        armed.probe_stage_entry(); // fired already: clean
    }

    #[test]
    fn superstep_fault_matches_all_three_coordinates() {
        let armed = ArmedFaults::new(FaultPlan::single(Fault::Superstep {
            stage: 1,
            superstep: 3,
            worker: 0,
        }));
        armed.enter_stage(1);
        armed.probe_superstep(3, 1); // wrong worker
        armed.probe_superstep(2, 0); // wrong superstep
        armed.enter_stage(0);
        armed.probe_superstep(3, 0); // wrong stage
        armed.enter_stage(1);
        let r = catch_unwind(AssertUnwindSafe(|| armed.probe_superstep(3, 0)));
        assert!(r.is_err());
        armed.probe_superstep(3, 0); // fired already: clean
    }

    #[test]
    fn checkpoint_write_fault_claims_the_nth_save() {
        let armed = ArmedFaults::new(FaultPlan::single(Fault::CheckpointWrite { nth: 2 }));
        assert!(!armed.probe_checkpoint_write()); // save #1
        assert!(armed.probe_checkpoint_write()); // save #2 fails
        assert!(!armed.probe_checkpoint_write()); // save #3 clean
        assert!(armed.all_fired());
    }

    #[test]
    fn stall_fires_once_on_its_superstep_boundary() {
        let armed = ArmedFaults::new(FaultPlan::single(Fault::Stall {
            superstep: 2,
            millis: 7,
        }));
        assert_eq!(armed.probe_stall(0), None);
        assert_eq!(armed.probe_stall(2), Some(7), "must claim its boundary");
        assert_eq!(armed.probe_stall(2), None, "claim-once semantics");
        assert!(armed.all_fired());
        assert!(Fault::Stall {
            superstep: 2,
            millis: 7,
        }
        .to_string()
        .contains("7ms stall"));
    }

    #[test]
    fn plan_builder_and_display() {
        let plan = FaultPlan::new()
            .with(Fault::StageEntry { stage: 1 })
            .with(Fault::CheckpointWrite { nth: 3 });
        assert_eq!(plan.faults().len(), 2);
        assert!(plan.faults()[0].to_string().contains("stage 1"));
        assert!(plan.faults()[1].to_string().contains("#3"));
        let f = Fault::Superstep {
            stage: 4,
            superstep: 2,
            worker: 1,
        };
        let s = f.to_string();
        assert!(s.contains('4') && s.contains('2') && s.contains('1'));
    }
}
