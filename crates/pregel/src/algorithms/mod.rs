//! Generic *Practical Pregel Algorithms* (PPAs) from Section II of the paper.
//!
//! These are the two building blocks that the contig-labeling operation of the
//! assembler specialises:
//!
//! * [`list_ranking()`](fn@list_ranking) — the BPPA for list ranking (pointer jumping / doubling),
//!   `O(log n)` rounds of two supersteps each;
//! * [`connected_components`] — the *simplified* Shiloach–Vishkin algorithm
//!   (tree hooking + shortcutting, without star hooking), `O(log n)` rounds of
//!   four supersteps each.
//!
//! They are exposed here as reusable library functions so that they can be
//! used outside of genome assembly (see the `pregel_toolkit` example).

pub mod list_ranking;
pub mod sv;

pub use list_ranking::{list_ranking, ListItem};
pub use sv::{connected_components, SvProgram, SvState};
