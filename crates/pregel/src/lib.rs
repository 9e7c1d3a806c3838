//! An in-process Pregel-like vertex-centric BSP framework.
//!
//! This crate is the substrate of the PPA-assembler reproduction. The paper
//! builds its assembler on *Pregel+*, a distributed implementation of Google's
//! Pregel model; here the same programming model is provided as a
//! multi-threaded, single-process engine:
//!
//! * vertices are the consecutive `u32` ranks `0..n`, range-partitioned over
//!   a configurable number of **workers** (the stand-in for cluster
//!   machines), each driven by its own thread; within a partition their
//!   states live in one plain array indexed by rank (see [`dense`]), built in
//!   bulk and read back whole;
//! * computation proceeds in **supersteps**; in each superstep every active
//!   vertex (or every vertex with incoming messages) executes a user-defined
//!   [`VertexProgram::compute`] which may mutate its value, send messages to
//!   other vertices and vote to halt;
//! * messages are delivered at the start of the next superstep;
//! * a global **aggregator** value is combined across all vertices each
//!   superstep and made available to every vertex in the next superstep;
//! * the engine records [`Metrics`] (supersteps, messages, wall time, per-
//!   superstep breakdown), which is exactly the data reported in Tables II and
//!   III of the paper.
//!
//! The paper adds two API extensions for the steps that are not
//! vertex-centric (Section II): a *mini MapReduce* that builds vertices from
//! input that is not one-line-per-vertex, and `convert`, in-memory job
//! chaining. Here one keyed pass stands in for the first: [`keycount`]
//! scatters fixed-width records into hash buckets (the shuffle) and folds
//! each worker's contiguous range of buckets (the reduce) —
//! [`fold_buckets_on`], with [`count_keys_on`] the fold that counts keys and
//! keeps the frequent ones. DBG construction runs both of its phases on it.
//! Contig merging and bubble filtering group their few keys with a sort of
//! their own, and the jobs hand their outputs to each other as plain vectors,
//! so there is no general MapReduce and no `convert` (the `ablation_chaining`
//! bench prices the storage round-trip the paper's `convert` avoids with the
//! [`spill`] file format).
//!
//! Finally, [`algorithms`] contains generic *Practical Pregel Algorithms*
//! (list ranking and the simplified Shiloach–Vishkin connected components)
//! reviewed in Section II, reusable outside of genome assembly.
//!
//! # Message-plane architecture
//!
//! There is one message plane, and it never sorts to find a vertex. Because a
//! vertex is a rank and every worker owns one contiguous range of ranks:
//!
//! * **send** — [`Context::send_message`] finds the destination worker with a
//!   multiply–shift on a per-job constant and appends `(rank, payload)` to
//!   one flat outbox per destination worker, unsorted. A rank no worker owns
//!   is dropped at the sender and counted.
//! * **exchange** — every worker takes the outboxes addressed to it, in
//!   source-worker order, and runs one stable counting scatter over them (see
//!   [`radix`]) into a CSR inbox: one contiguous run per receiving vertex, in
//!   (source worker, send order). [`VertexProgram::compute`] receives that
//!   run as `&mut [Message]` — no owned `Vec` per vertex.
//! * **compute** — each worker walks its range twice: ascending vertices with
//!   messages, then ascending active vertices without, the second pass
//!   skipping 64 halted vertices per word of a packed halted bitset.
//! * **buffer reuse** — outboxes, offsets and inboxes live in per-worker
//!   planes allocated once per job; past the first supersteps a superstep
//!   performs no per-vertex or per-superstep container allocation.
//!
//! Programs over arbitrary IDs (the assembler's 62-bit k-mers and contig
//! IDs) translate them to ranks first; the assembler does so with a sorted
//! rank dictionary.
//!
//! # Execution engine
//!
//! All of the parallel entry points — the superstep runner's compute and
//! exchange phases and the keyed pass's scatter and fold phases — execute on
//! the persistent worker pool of
//! [`engine`] (per-superstep aggregate folding is a cheap O(workers) pass
//! that stays on the dispatching thread): threads are spawned once per
//! [`ExecCtx`] and phases are handed
//! to the parked workers, instead of creating a fresh `std::thread::scope`
//! team per superstep/phase. Every entry point — [`run_dense_on`],
//! [`fold_buckets_on`], [`count_keys_on`] — takes the
//! `ExecCtx` as its first argument, and it is
//! the only place a worker count lives (one level up, `AssemblyConfig::exec`
//! in `ppa_assembler` carries it), so a whole multi-job workflow runs on one
//! worker team.
//!
//! # Out-of-core execution
//!
//! Pregel+ keeps every vertex and message in memory, and so does the
//! superstep runner here. A [`SpillPolicy`] byte cap on the [`ExecCtx`]
//! binds the keyed pass alone: its scatter workers write the records they
//! outgrow the cap with to key-segment files ([`spill`]), which the fold
//! reads back. DBG construction runs both of its phases on the keyed pass,
//! so that is where a capped assembly spills; contig labeling, tip removal
//! and every other Pregel job run resident under any policy.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregate;
pub mod algorithms;
pub mod config;
pub mod control;
pub mod dense;
pub mod engine;
pub mod fault;
pub mod fxhash;
pub mod keycount;
pub mod metrics;
pub mod radix;
pub mod spill;
pub mod vertex;
pub mod vertex_set;

pub use aggregate::{Aggregate, BoolOr, Count, NoAggregate};
pub use config::PregelConfig;
pub use control::{CancelReason, JobControl};
pub use dense::{run_dense_on, DenseSet};
pub use engine::{EngineError, ExecCtx, WorkerPool};
pub use fault::{ArmedFaults, Fault, FaultPlan};
pub use keycount::{count_keys_on, fold_buckets_on, KeySink, Record, Records};
pub use metrics::{MapReduceMetrics, Metrics, SuperstepMetrics};
pub use radix::SortKey;
pub use spill::{SpillCodec, SpillError, SpillPolicy};
pub use vertex::{Context, VertexProgram};
pub use vertex_set::VertexSet;
