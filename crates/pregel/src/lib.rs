//! An in-process Pregel-like vertex-centric BSP framework.
//!
//! This crate is the substrate of the PPA-assembler reproduction. The paper
//! builds its assembler on *Pregel+*, a distributed implementation of Google's
//! Pregel model; here the same programming model is provided as a
//! multi-threaded, single-process engine:
//!
//! * vertices are hash-partitioned over a configurable number of **workers**
//!   (the stand-in for cluster machines), each driven by its own thread;
//!   within a partition they live in struct-of-arrays **columns** sorted by
//!   one plain ID column (see [`vertex_set`]), not a hash map, built in bulk
//!   and handed from job to job whole;
//! * computation proceeds in **supersteps**; in each superstep every active
//!   vertex (or every vertex with incoming messages) executes a user-defined
//!   [`VertexProgram::compute`] which may mutate its value, send messages to
//!   other vertices and vote to halt;
//! * messages are delivered at the start of the next superstep, optionally
//!   merged through a **combiner**;
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
//! The superstep engine moves data through a **sort-based, buffer-reusing
//! shuffle** instead of hash-grouping into per-key containers:
//!
//! * **sorted delivery** — senders append `(destination, payload)` records to
//!   one flat buffer per destination worker and sort each buffer before the
//!   hand-off; receivers k-way-merge the pre-sorted buffers (linear, ties
//!   broken by source worker) and hand every destination its records as a
//!   contiguous **slice** of a flat array. Every presort runs through
//!   [`radix`]: a stable LSD radix sort over the packed integer keys
//!   ([`SortKey`]), ping-ponging through reusable scratch buffers, with a
//!   stable comparison fallback for keys without a monotone `u64` image.
//!   [`VertexProgram::compute`] receives
//!   `&mut [Message]` — no owned `Vec` per vertex.
//! * **merge-join delivery into sorted columns** — each partition of a
//!   [`VertexSet`] stores its vertices as ID-sorted struct-of-arrays
//!   columns, so the sorted message runs meet the vertex store in a single
//!   linear merge-join (a galloping cursor, no hash probe per run), and the
//!   straggler scan walks a packed halted bitset instead of iterating a
//!   hash map.
//! * **dense ranks skip all of the above** — a job whose vertex IDs are the
//!   consecutive `u32` ranks `0..n` (contig labeling, after its rank
//!   dictionary) runs on the [`dense`] plane instead: a [`DenseSet`] owns
//!   ranks by range and keeps states in a plain array, `send_message` routes
//!   with a multiply–shift, and delivery is one stable counting scatter into
//!   a CSR inbox — no hash, no presort, no k-way merge, no merge-join. The
//!   sorted plane stays the general one (any ID type, combiners, spilling).
//! * **sender-side combining** — when a program sets
//!   [`USE_COMBINER`](VertexProgram::USE_COMBINER), duplicate destinations are
//!   folded in the sorted outbound buffers before the hand-off (and again
//!   across senders during the merge), so at most one physical message per
//!   (sender, vertex) crosses the shuffle.
//! * **buffer reuse** — outboxes, the merged id/message arrays and the
//!   combine scratch live in per-worker planes allocated once per job; a
//!   steady-state superstep performs no per-vertex or per-superstep container
//!   allocation.
//!
//! # Execution engine
//!
//! All of the parallel entry points — the superstep runner's compute and
//! shuffle phases and the keyed pass's scatter and fold phases — execute on
//! the persistent worker pool of
//! [`engine`] (per-superstep aggregate folding is a cheap O(workers) pass
//! that stays on the dispatching thread): threads are spawned once per
//! [`ExecCtx`] and phases are handed
//! to the parked workers, instead of creating a fresh `std::thread::scope`
//! team per superstep/phase. Every entry point — [`run_on`], [`try_run_on`],
//! [`run_dense_on`], [`fold_buckets_on`], [`count_keys_on`] — takes the
//! `ExecCtx` as its first argument, and it is
//! the only place a worker count lives (one level up, `AssemblyConfig::exec`
//! in `ppa_assembler` carries it), so a whole multi-job workflow runs on one
//! worker team. The `ExecCtx` also owns the runner's shuffle planes between
//! jobs, extending buffer reuse across whole job chains.

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
mod kmerge;
pub mod metrics;
pub mod radix;
pub mod runner;
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
pub use runner::{run_on, try_run_on};
pub use spill::{SpillCodec, SpillCodecs, SpillError, SpillPolicy};
pub use vertex::{Context, VertexKey, VertexProgram};
pub use vertex_set::VertexSet;
