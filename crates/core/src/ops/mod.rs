//! The five assembly operations of Figure 10.
//!
//! Each operation is a standalone function that consumes and produces plain
//! collections of graph nodes, so that users can compose them into custom
//! workflows exactly as the paper advertises ("users may combine the provided
//! operations to implement various sequencing strategies"). Each is also
//! wrapped as a first-class [`crate::pipeline::Stage`] for composition
//! through the [`crate::pipeline::Pipeline`] builder; the standard pipeline
//! is assembled in [`crate::workflow`].

pub(crate) mod blocks;
pub mod bubble;
pub mod construct;
pub mod label;
pub mod label_sv;
pub mod merge;
pub mod tip;

pub use bubble::{filter_bubbles_on, BubbleConfig, BubbleOutcome};
pub use construct::{build_dbg_on, ConstructConfig, ConstructOutcome};
pub use label::{label_contigs_lr_on, LabelOutcome};
pub use label_sv::label_contigs_sv_on;
pub use merge::{merge_contigs_on, MergeConfig, MergeOutcome};
pub use tip::{remove_tips_on, TipConfig, TipOutcome};
