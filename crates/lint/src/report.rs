//! Diagnostic types and text/JSON rendering.

use std::fmt;

/// The architectural rules: four launch rules, the job-control cancellation
/// rule and the public-surface rule. Future invariants (spill-file codecs)
/// get added here and in `rules.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// `unsafe` only in allowlisted modules, always with a `// SAFETY:`
    /// comment adjacent to the block or fn.
    UnsafeAudit,
    /// No `unwrap`/`expect`/`panic!`/slice-indexing in the non-test code of
    /// the checkpoint and binary-codec files.
    PanicFreeCodecs,
    /// `thread::spawn` / `thread::scope` only inside the engine's worker
    /// pool.
    EngineOnlyThreading,
    /// No `std::collections::{HashMap, HashSet}` in `pregel`/`core` non-test
    /// code, however imported.
    NoSiphashHotPath,
    /// Every public `*_on` op entry point must route through a
    /// control-polling runner path, so an installed `JobControl` can stop
    /// any long-running operation at a barrier.
    CancellationPoints,
    /// A `pub` item of `ppa_pregel`, `ppa_assembler` or `ppa_seq` must be
    /// named by some non-test code outside its own file; surface that only
    /// tests reach is deleted, narrowed, or kept with a reasoned allow.
    TestOnlyPub,
}

/// All rules, in reporting order.
pub const ALL_RULES: &[Rule] = &[
    Rule::UnsafeAudit,
    Rule::PanicFreeCodecs,
    Rule::EngineOnlyThreading,
    Rule::NoSiphashHotPath,
    Rule::CancellationPoints,
    Rule::TestOnlyPub,
];

impl Rule {
    /// The kebab-case name used in reports and `ppa_lint: allow(..)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnsafeAudit => "unsafe-audit",
            Rule::PanicFreeCodecs => "panic-free-codecs",
            Rule::EngineOnlyThreading => "engine-only-threading",
            Rule::NoSiphashHotPath => "no-siphash-hot-path",
            Rule::CancellationPoints => "cancellation-points",
            Rule::TestOnlyPub => "test-only-pub",
        }
    }

    /// Parses a rule name as written in a suppression or `--rule` flag.
    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }

    /// One-line description for `--list-rules`.
    pub fn description(self) -> &'static str {
        match self {
            Rule::UnsafeAudit => {
                "`unsafe` needs an adjacent `// SAFETY:` comment and is only \
                 permitted in pregel/{engine,radix}.rs"
            }
            Rule::PanicFreeCodecs => {
                "no unwrap/expect/panic!/slice-index in non-test code of \
                 core/src/checkpoint.rs and shims/serde's bin codecs"
            }
            Rule::EngineOnlyThreading => "thread::spawn/thread::scope only in pregel/src/engine.rs",
            Rule::NoSiphashHotPath => {
                "std::collections::{HashMap, HashSet} banned in pregel/core \
                 non-test code; use FxHashMap/FxHashSet"
            }
            Rule::CancellationPoints => {
                "every `pub fn *_on` in core/src/ops must call a \
                 control-polling runner entry point (run_on/run_dense_on/\
                 count_keys_on/fold_buckets_on/connected_components/poll_barrier)"
            }
            Rule::TestOnlyPub => {
                "a `pub` item of pregel/core/seq must be named by non-test code \
                 outside its own file (suppressions need a reason)"
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding, anchored to a file:line:col span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Human-readable explanation of this specific finding.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Renders diagnostics as plain text, one per line, plus a summary line.
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    if diags.is_empty() {
        out.push_str("ppa_lint: clean\n");
    } else {
        out.push_str(&format!("ppa_lint: {} finding(s)\n", diags.len()));
    }
    out
}

/// Renders diagnostics as a JSON document:
/// `{"findings": [{rule, file, line, col, message}, ..], "count": N}`.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!("\"rule\": \"{}\", ", json_escape(d.rule.name())));
        out.push_str(&format!("\"file\": \"{}\", ", json_escape(&d.file)));
        out.push_str(&format!("\"line\": {}, ", d.line));
        out.push_str(&format!("\"col\": {}, ", d.col));
        out.push_str(&format!("\"message\": \"{}\"", json_escape(&d.message)));
        out.push('}');
    }
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!("],\n  \"count\": {}\n}}\n", diags.len()));
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
