//! The rule implementations.
//!
//! Every rule operates on the token stream from [`crate::lexer`], so string
//! and comment content can never trigger a finding, and anything inside a
//! `#[cfg(test)]` / `mod tests` region (or an integration-test/bench file)
//! is exempt unless noted otherwise.

use crate::lexer::{lex, Lexed, Tok, Token};
use crate::report::{Diagnostic, Rule};
use std::collections::HashMap;

/// Files where `unsafe` is architecturally permitted (the worker pool's
/// lifetime erasure, the radix scatter).
const UNSAFE_ALLOWLIST: &[&str] = &["crates/pregel/src/engine.rs", "crates/pregel/src/radix.rs"];

/// The codec files that must never panic on malformed bytes.
const CODEC_FILES: &[&str] = &[
    "crates/core/src/checkpoint.rs",
    "crates/pregel/src/spill.rs",
    "crates/seq/src/fastx.rs",
    "shims/serde/src/lib.rs",
];

/// Files allowed to spawn OS threads: the persistent worker pool only.
const THREAD_ALLOWLIST: &[&str] = &["crates/pregel/src/engine.rs"];

/// Path prefixes where the SipHash `HashMap`/`HashSet` are banned in favor of
/// `FxHashMap`/`FxHashSet`.
const SIPHASH_SCOPES: &[&str] = &["crates/pregel/", "crates/core/"];

/// Directory whose public `*_on` entry points must be cancellable.
const OPS_DIR: &str = "crates/core/src/ops/";

/// The library crates whose `pub` items must each have a non-test caller
/// outside their own file.
const SURFACE_SCOPES: &[&str] = &["crates/pregel/src/", "crates/core/src/", "crates/seq/src/"];

/// Runner entry points whose barriers poll the installed `JobControl`, plus
/// `ExecCtx::poll_barrier` itself, which an op with a barrier of its own
/// (contig merging between grouping and stitching, bubble filtering between
/// grouping and comparing) calls directly. An op
/// routed through any of these is stoppable mid-flight. An explicit allowlist
/// rather than a `*_on` suffix heuristic: method calls like
/// `node.sole_edge_on(side)` must not satisfy the rule by accident.
const POLLING_CALLEES: &[&str] = &[
    // Core's `ranks::run_on`: the labeling jobs' way onto `run_dense_on`.
    "run_on",
    "run_dense_on",
    "count_keys_on",
    "fold_buckets_on",
    "connected_components",
    "poll_barrier",
];

/// Identifiers that legitimately precede a `[` without being an indexable
/// expression (`let [a, b] = ..`, `for x in [..]`, `return [..]`, ...).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "if", "else", "match", "return", "mut", "ref", "as", "box", "move", "while",
    "for", "loop", "break", "continue", "where", "unsafe", "dyn", "impl", "pub", "fn", "use",
    "const", "static", "enum", "struct", "trait", "type", "mod", "crate", "super", "await",
    "async", "yield",
];

/// One file handed to the analyzer: a workspace-relative path (forward
/// slashes) and its source text.
#[derive(Debug, Clone, Copy)]
pub struct SourceSpec<'a> {
    /// Workspace-relative path, e.g. `crates/pregel/src/engine.rs`.
    pub path: &'a str,
    /// The file's full source text.
    pub text: &'a str,
}

struct AnalyzedFile {
    path: String,
    lexed: Lexed,
    /// Integration-test or bench file: every rule skips it entirely.
    is_test_file: bool,
    /// line -> rule names allowed by a `ppa_lint: allow(..)` comment
    /// overlapping that line.
    allows: HashMap<usize, Vec<String>>,
}

/// Runs every rule over `files` and returns the unsuppressed findings,
/// sorted by (file, line, col).
pub fn analyze_sources(files: &[SourceSpec<'_>]) -> Vec<Diagnostic> {
    let analyzed: Vec<AnalyzedFile> = files
        .iter()
        .map(|spec| {
            let lexed = lex(spec.text);
            let allows = collect_allows(&lexed);
            AnalyzedFile {
                path: spec.path.to_string(),
                lexed,
                is_test_file: is_test_path(spec.path),
                allows,
            }
        })
        .collect();

    let mentions = collect_mentions(&analyzed);

    let mut diags = Vec::new();
    for file in &analyzed {
        if file.is_test_file {
            continue;
        }
        check_unsafe_audit(file, &mut diags);
        check_panic_free_codecs(file, &mut diags);
        check_engine_only_threading(file, &mut diags);
        check_no_siphash(file, &mut diags);
        check_cancellation_points(file, &mut diags);
        check_test_only_pub(file, &mentions, &mut diags);
    }

    diags.retain(|d| {
        let file = analyzed.iter().find(|f| f.path == d.file);
        match file {
            Some(f) => !is_suppressed(f, d),
            None => true,
        }
    });
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    diags
}

/// Integration-test crates (`tests/`), per-crate `tests/` dirs, and bench
/// harnesses are test code by construction.
fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/") || path.contains("/benches/")
}

/// Extracts `ppa_lint: allow(rule-a, rule-b)` directives from comments. An
/// allow of `test-only-pub` counts only with a reason after the `)`.
fn collect_allows(lexed: &Lexed) -> HashMap<usize, Vec<String>> {
    let mut allows: HashMap<usize, Vec<String>> = HashMap::new();
    for (idx, info) in lexed.lines.iter().enumerate() {
        for comment in &info.comments {
            let Some(at) = comment.find("ppa_lint:") else {
                continue;
            };
            let rest = &comment[at + "ppa_lint:".len()..];
            let Some(open) = rest.find("allow(") else {
                continue;
            };
            let args = &rest[open + "allow(".len()..];
            let Some(close) = args.find(')') else {
                continue;
            };
            let reasoned = !args[close + 1..].trim().is_empty();
            let names = args[..close]
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .filter(|s| reasoned || s != Rule::TestOnlyPub.name());
            allows.entry(idx + 1).or_default().extend(names);
        }
    }
    allows
}

/// A finding is suppressed by an allow directive on its own line or on the
/// line directly above it.
fn is_suppressed(file: &AnalyzedFile, d: &Diagnostic) -> bool {
    [d.line, d.line.saturating_sub(1)]
        .iter()
        .any(|l| match file.allows.get(l) {
            Some(names) => names.iter().any(|n| n == d.rule.name()),
            None => false,
        })
}

// ---------------------------------------------------------------------------
// unsafe-audit
// ---------------------------------------------------------------------------

fn check_unsafe_audit(file: &AnalyzedFile, diags: &mut Vec<Diagnostic>) {
    let allowlisted = UNSAFE_ALLOWLIST.contains(&file.path.as_str());
    for tok in &file.lexed.tokens {
        if tok.in_test || !tok.is_ident("unsafe") {
            continue;
        }
        if !allowlisted {
            diags.push(Diagnostic {
                rule: Rule::UnsafeAudit,
                file: file.path.clone(),
                line: tok.line,
                col: tok.col,
                message: format!(
                    "`unsafe` outside the allowlisted modules ({})",
                    UNSAFE_ALLOWLIST.join(", ")
                ),
            });
        } else if !has_adjacent_safety_comment(&file.lexed, tok.line) {
            diags.push(Diagnostic {
                rule: Rule::UnsafeAudit,
                file: file.path.clone(),
                line: tok.line,
                col: tok.col,
                message: "`unsafe` without an adjacent `// SAFETY:` comment".to_string(),
            });
        }
    }
}

/// Looks for a comment containing `SAFETY:` on the `unsafe` token's own
/// line, or on the contiguous run of comment-only / attribute lines
/// directly above it. A blank line or a code line ends the search.
fn has_adjacent_safety_comment(lexed: &Lexed, line: usize) -> bool {
    let mentions_safety =
        |info: &crate::lexer::LineInfo| info.comments.iter().any(|c| c.contains("SAFETY:"));
    if lexed.line(line).is_some_and(mentions_safety) {
        return true;
    }
    let mut l = line.saturating_sub(1);
    while l >= 1 {
        let Some(info) = lexed.line(l) else { break };
        let comment_only = !info.has_code && !info.comments.is_empty();
        let attr_line = info.has_code && info.starts_with_hash;
        if !(comment_only || attr_line) {
            break;
        }
        if mentions_safety(info) {
            return true;
        }
        l -= 1;
    }
    false
}

// ---------------------------------------------------------------------------
// panic-free-codecs
// ---------------------------------------------------------------------------

fn check_panic_free_codecs(file: &AnalyzedFile, diags: &mut Vec<Diagnostic>) {
    if !CODEC_FILES.contains(&file.path.as_str()) {
        return;
    }
    let toks = &file.lexed.tokens;
    let mut push = |tok: &Token, message: String| {
        diags.push(Diagnostic {
            rule: Rule::PanicFreeCodecs,
            file: file.path.clone(),
            line: tok.line,
            col: tok.col,
            message,
        });
    };
    for (i, tok) in toks.iter().enumerate() {
        if tok.in_test {
            continue;
        }
        let prev = i.checked_sub(1).and_then(|p| toks.get(p));
        let next = toks.get(i + 1);
        match &tok.tok {
            Tok::Ident(s) if (s == "unwrap" || s == "expect") => {
                let is_method_call =
                    prev.is_some_and(|p| p.is_punct('.')) && next.is_some_and(|n| n.is_punct('('));
                if is_method_call {
                    push(
                        tok,
                        format!("`.{s}()` in codec code; return a typed error instead"),
                    );
                }
            }
            Tok::Ident(s) if s == "panic" && next.is_some_and(|n| n.is_punct('!')) => {
                push(
                    tok,
                    "`panic!` in codec code; return a typed error instead".into(),
                );
            }
            Tok::Punct('[') => {
                let indexable = prev.is_some_and(|p| match &p.tok {
                    Tok::Ident(s) => !NON_INDEX_KEYWORDS.contains(&s.as_str()),
                    Tok::RawIdent(_) => true,
                    Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('?') => true,
                    _ => false,
                });
                if indexable {
                    push(
                        tok,
                        "slice/array indexing in codec code can panic; use `get`/iterators".into(),
                    );
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// engine-only-threading
// ---------------------------------------------------------------------------

fn check_engine_only_threading(file: &AnalyzedFile, diags: &mut Vec<Diagnostic>) {
    if THREAD_ALLOWLIST.contains(&file.path.as_str()) {
        return;
    }
    for (i, tok) in file.lexed.tokens.iter().enumerate() {
        if tok.in_test || !tok.is_ident("thread") {
            continue;
        }
        let toks = &file.lexed.tokens;
        let path_sep = toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'));
        let target = toks
            .get(i + 3)
            .and_then(|t| t.ident())
            .filter(|n| *n == "spawn" || *n == "scope");
        if let (true, Some(name)) = (path_sep, target) {
            diags.push(Diagnostic {
                rule: Rule::EngineOnlyThreading,
                file: file.path.clone(),
                line: tok.line,
                col: tok.col,
                message: format!(
                    "`thread::{name}` outside the engine worker pool ({})",
                    THREAD_ALLOWLIST.join(", ")
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// no-siphash-hot-path
// ---------------------------------------------------------------------------

/// The std hash containers, SipHash-keyed unless told otherwise.
const SIPHASH_CONTAINERS: &[&str] = &["HashMap", "HashSet"];

fn check_no_siphash(file: &AnalyzedFile, diags: &mut Vec<Diagnostic>) {
    if !SIPHASH_SCOPES.iter().any(|p| file.path.starts_with(p)) {
        return;
    }
    let toks = &file.lexed.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if tok.in_test || !tok.is_ident("collections") {
            continue;
        }
        let path_sep = toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'));
        if !path_sep {
            continue;
        }
        // `collections::HashMap`, or every container named in a brace import
        // `collections::{HashMap, HashSet}` (up to the matching brace).
        let first = i + 3;
        let end = if toks.get(first).is_some_and(|t| t.is_punct('{')) {
            let mut depth = 0usize;
            toks[first..]
                .iter()
                .position(|t| {
                    depth += usize::from(t.is_punct('{'));
                    depth -= usize::from(t.is_punct('}'));
                    depth == 0
                })
                .map_or(toks.len(), |close| first + close)
        } else {
            toks.len().min(first + 1)
        };
        let named = toks.get(first..end).unwrap_or(&[]);
        for t in named {
            let Some(container) = SIPHASH_CONTAINERS.iter().find(|c| t.is_ident(c)) else {
                continue;
            };
            diags.push(Diagnostic {
                rule: Rule::NoSiphashHotPath,
                file: file.path.clone(),
                line: t.line,
                col: t.col,
                message: format!(
                    "SipHash `{container}` on a hot path; use `crate::fxhash::Fx{container}`"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// cancellation-points
// ---------------------------------------------------------------------------

/// Whether the token at `i` is a call to a control-polling runner entry
/// point: an allowlisted identifier followed by `(`.
fn is_polling_call(toks: &[Token], i: usize) -> bool {
    toks[i]
        .ident()
        .is_some_and(|name| POLLING_CALLEES.contains(&name))
        && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
}

/// Every `pub fn *_on` in `crates/core/src/ops/` must route through a
/// runner path that polls the job control at its barriers; an op entry point
/// that loops privately would be unstoppable once started.
fn check_cancellation_points(file: &AnalyzedFile, diags: &mut Vec<Diagnostic>) {
    if !file.path.starts_with(OPS_DIR) {
        return;
    }
    let toks = &file.lexed.tokens;
    let mut i = 0;
    while i < toks.len() {
        let is_entry = !toks[i].in_test
            && toks[i].is_ident("fn")
            && i.checked_sub(1)
                .and_then(|p| toks.get(p))
                .is_some_and(|p| p.is_ident("pub"));
        let name_tok = if is_entry { toks.get(i + 1) } else { None };
        let Some((name_tok, name)) = name_tok.and_then(|t| t.ident().map(|n| (t, n))) else {
            i += 1;
            continue;
        };
        if !name.ends_with("_on") {
            i += 1;
            continue;
        }
        // The body is the first brace after the signature (generic bounds and
        // where clauses contain no `{`); scan it to its matching close.
        let mut j = i + 2;
        while j < toks.len() && !toks[j].is_punct('{') {
            j += 1;
        }
        let body_start = j;
        let mut depth = 0usize;
        let mut polls = false;
        while j < toks.len() {
            if toks[j].is_punct('{') {
                depth += 1;
            } else if toks[j].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if is_polling_call(toks, j) {
                polls = true;
            }
            j += 1;
        }
        if !polls && body_start < toks.len() {
            diags.push(Diagnostic {
                rule: Rule::CancellationPoints,
                file: file.path.clone(),
                line: name_tok.line,
                col: name_tok.col,
                message: format!(
                    "op entry point `{name}` never reaches a control-polling runner path \
                     ({}); a JobControl could not stop it",
                    POLLING_CALLEES.join("/")
                ),
            });
        }
        i = j.max(i + 1);
    }
}

// ---------------------------------------------------------------------------
// test-only-pub
// ---------------------------------------------------------------------------

/// Item keywords whose name `test-only-pub` checks. Modules, re-exports and
/// fields are not items it weighs.
const PUB_ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "union", "trait", "type", "const", "static",
];

/// Maps every identifier named in non-test code to the files naming it.
/// `use` declarations do not count — a re-export is not a caller — and
/// neither do comments, literals or test regions, which the lexer already
/// keeps out of the code tokens or marks.
fn collect_mentions(files: &[AnalyzedFile]) -> HashMap<&str, Vec<&str>> {
    let mut mentions: HashMap<&str, Vec<&str>> = HashMap::new();
    for file in files.iter().filter(|f| !f.is_test_file) {
        let mut in_use = false;
        for tok in &file.lexed.tokens {
            if tok.is_ident("use") {
                in_use = true;
            } else if in_use && tok.is_punct(';') {
                in_use = false;
            }
            let Some(name) = tok.ident().filter(|_| !tok.in_test && !in_use) else {
                continue;
            };
            let named_by = mentions.entry(name).or_default();
            if named_by.last() != Some(&file.path.as_str()) {
                named_by.push(&file.path);
            }
        }
    }
    mentions
}

/// Qualifiers that may stand between `pub` and an item keyword.
const FN_QUALIFIERS: &[&str] = &["unsafe", "async", "extern"];

/// The name token of the item a `pub` at `i` introduces, if it is an
/// unrestricted `pub` on one of [`PUB_ITEM_KEYWORDS`].
fn pub_item_name(toks: &[Token], i: usize) -> Option<&Token> {
    if !toks[i].is_ident("pub") || toks.get(i + 1)?.is_punct('(') {
        return None;
    }
    // Skip the qualifiers of `pub const unsafe extern "C" fn` and kin; a
    // `const` is one only when more of the fn header follows it.
    let mut j = i + 1;
    while let Some(t) = toks.get(j) {
        let header_follows = toks
            .get(j + 1)
            .and_then(Token::ident)
            .is_some_and(|n| n == "fn" || FN_QUALIFIERS.contains(&n));
        let qualifier = t.tok == Tok::Literal
            || t.ident().is_some_and(|n| FN_QUALIFIERS.contains(&n))
            || (t.is_ident("const") && header_follows);
        if !qualifier {
            break;
        }
        j += 1;
    }
    let keyword = toks.get(j)?.ident()?;
    let name = toks.get(j + 1)?;
    (PUB_ITEM_KEYWORDS.contains(&keyword) && name.ident().is_some()).then_some(name)
}

/// Every `pub` item of the surface crates must be named by non-test code in
/// some other file; one that only its own file (or tests) names is surface
/// nothing uses.
fn check_test_only_pub(
    file: &AnalyzedFile,
    mentions: &HashMap<&str, Vec<&str>>,
    diags: &mut Vec<Diagnostic>,
) {
    if !SURFACE_SCOPES.iter().any(|p| file.path.starts_with(p)) {
        return;
    }
    let toks = &file.lexed.tokens;
    for i in 0..toks.len() {
        if toks[i].in_test {
            continue;
        }
        let Some(name_tok) = pub_item_name(toks, i) else {
            continue;
        };
        let name = name_tok.ident().unwrap_or_default();
        let named_elsewhere = mentions
            .get(name)
            .is_some_and(|files| files.iter().any(|f| *f != file.path));
        if !named_elsewhere {
            diags.push(Diagnostic {
                rule: Rule::TestOnlyPub,
                file: file.path.clone(),
                line: toks[i].line,
                col: toks[i].col,
                message: format!(
                    "`pub` item `{name}` is named by no non-test code outside this file; \
                     delete it, narrow it to `pub(crate)` or private, or keep it with \
                     `// ppa_lint: allow(test-only-pub) <reason>`"
                ),
            });
        }
    }
}
