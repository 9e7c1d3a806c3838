//! `ppa_lint` — a from-scratch, zero-dependency static-analysis pass that
//! enforces the workspace's architectural invariants.
//!
//! The ROADMAP writes the project's safety story down in prose: `unsafe`
//! lives only in the worker pool and the radix scatter, the checkpoint
//! codecs never panic on malformed bytes, only the engine spawns threads,
//! and hot paths avoid SipHash. This crate turns that prose into
//! typed diagnostics with `file:line` spans, so CI can reject violations
//! before a reviewer has to remember them. See `crates/lint/README.md` for
//! the rule catalogue and suppression syntax.
//!
//! Design constraints:
//! - **Zero dependencies** (no `syn`, no `proc-macro2`): the container is
//!   offline, and the linter must not depend on anything it lints. The
//!   lexer in [`lexer`] is hand-rolled and token-exact for the properties
//!   the rules need (comments, strings, raw strings, char literals,
//!   `cfg(test)` regions).
//! - **Typed rules**: each rule is an enum variant ([`report::Rule`]) with a
//!   stable kebab-case name used in reports and in per-site
//!   `// ppa_lint: allow(<rule>)` suppressions.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod lexer;
pub mod report;
pub mod rules;
pub mod walk;

pub use report::{render_json, render_text, Diagnostic, Rule, ALL_RULES};
pub use rules::{analyze_sources, SourceSpec};

/// Convenience entry point: lints in-memory `(path, text)` pairs. Used by
/// the fixture tests and any embedder that already has sources loaded.
pub fn analyze_pairs(files: &[(&str, &str)]) -> Vec<Diagnostic> {
    let specs: Vec<SourceSpec<'_>> = files
        .iter()
        .map(|(path, text)| SourceSpec { path, text })
        .collect();
    analyze_sources(&specs)
}
