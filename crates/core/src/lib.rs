//! # PPA-assembler
//!
//! A Rust reproduction of **"Scalable De Novo Genome Assembly Using Pregel"**
//! (Yan et al., ICDE 2018): a toolkit of de-Bruijn-graph based genome-assembly
//! operations, each implemented as a *Practical Pregel Algorithm* on top of the
//! [`ppa_pregel`] vertex-centric framework.
//!
//! The toolkit follows the operation diagram of Figure 10 in the paper:
//!
//! 1. **DBG construction** ([`ops::construct`]) — reads → k-mer vertices with
//!    packed adjacency bitmaps: a bucketed (k+1)-mer count with coverage
//!    filtering, then a bucketed fold of the survivors' edges into vertices,
//!    both on `ppa_pregel`'s one keyed pass.
//! 2. **Contig labeling** ([`ops::label`], [`ops::label_sv`]) — marks every
//!    maximal unambiguous path with a unique label, using either bidirectional
//!    list ranking (the BPPA the paper recommends) or the simplified S-V
//!    connected-components algorithm.
//! 3. **Contig merging** ([`ops::merge`]) — groups labelled vertices and
//!    stitches their sequences into contig vertices, respecting edge polarity.
//! 4. **Bubble filtering** ([`ops::bubble`]) — removes low-coverage contigs
//!    that parallel a higher-coverage contig between the same two ambiguous
//!    vertices within a small edit distance.
//! 5. **Tip removing** ([`ops::tip`]) — removes short dangling paths via the
//!    REQUEST/DELETE message protocol.
//!
//! [`workflow::assemble`] wires the operations into the paper's evaluation
//! workflow (①②③④⑤⑥②③ — grow contigs once more after error correction), and
//! every operation can also be called individually to build custom pipelines.
//!
//! ## Build your own workflow
//!
//! The operations are also available as first-class [`pipeline::Stage`]s
//! composed through the [`pipeline::Pipeline`] builder: `.then(stage)` chains
//! stages over a shared [`pipeline::GraphState`], `.repeat(n, stages)`
//! expresses correction loops, and `.observe(observer)` attaches
//! [`pipeline::PipelineObserver`] hooks for timing/stats — the
//! [`stats::WorkflowStats`] every `assemble()` run returns is itself such an
//! observer. See the [`pipeline`] module docs for a worked example;
//! [`pipeline::Pipeline::paper_workflow`] is the preset `assemble()` uses.
//!
//! ## Quick start
//!
//! ```
//! use ppa_assembler::workflow::{assemble, AssemblyConfig};
//! use ppa_readsim::{GenomeConfig, ReadSimConfig};
//!
//! // Simulate a small error-free read set...
//! let reference = GenomeConfig { length: 2_000, repeat_families: 0, ..Default::default() }
//!     .generate();
//! let reads = ReadSimConfig::error_free(100, 20.0).simulate(&reference);
//!
//! // ...and assemble it.
//! let config = AssemblyConfig { k: 21, workers: 2, ..Default::default() };
//! let assembly = assemble(&reads, &config);
//! assert!(!assembly.contigs.is_empty());
//! assert!(assembly.stats.total_elapsed.as_nanos() > 0);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adj;
pub mod checkpoint;
pub mod ids;
pub mod node;
pub mod ops;
pub mod pipeline;
pub mod polarity;
mod ranks;
pub mod stats;
pub mod workflow;

pub use adj::{edge_contributions, CompactNeighbor, EdgeSlot};
pub use checkpoint::{CheckpointError, CheckpointMeta, Manifest};
pub use ids::NULL_ID;
pub use node::{AsmNode, Edge, GraphNode, KmerGraph, KmerRef, NodeSeq, NodeSource, VertexType};
pub use pipeline::{
    CheckpointPolicy, GraphState, Pipeline, PipelineError, PipelineObserver, Stage, StageDetails,
    StageReport,
};
pub use polarity::{Direction, Polarity, Side};
pub use ppa_pregel::{CancelReason, JobControl};
pub use workflow::{
    assemble, read_input_path, try_assemble, Assembly, AssemblyConfig, Contig, LabelingAlgorithm,
};
