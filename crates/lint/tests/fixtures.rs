//! Fixture tests: embedded source snippets → expected diagnostics.
//!
//! Each rule gets at least one fixture proving it fires on a violating
//! snippet and stays quiet on a suppressed or allowlisted one,
//! plus lexer-robustness fixtures (strings containing keywords, nested
//! block comments, raw strings, `cfg(test)` nesting).

use ppa_lint::{analyze_pairs, Diagnostic, Rule};

/// Lints snippets for every rule but `test-only-pub`. A snippet's `pub`
/// items have no caller in the few files a fixture lints, so that rule would
/// fire on every one of them; it is checked by its own fixtures below.
fn lint(files: &[(&str, &str)]) -> Vec<Diagnostic> {
    let mut diags = analyze_pairs(files);
    diags.retain(|d| d.rule != Rule::TestOnlyPub);
    diags
}

fn diags_for(path: &str, src: &str) -> Vec<Diagnostic> {
    lint(&[(path, src)])
}

fn rules_of(diags: &[Diagnostic]) -> Vec<Rule> {
    diags.iter().map(|d| d.rule).collect()
}

// ---------------------------------------------------------------------------
// unsafe-audit
// ---------------------------------------------------------------------------

#[test]
fn unsafe_outside_allowlist_fires() {
    let src = r#"
pub fn f(p: *const u8) -> u8 {
    unsafe { *p }
}
"#;
    let diags = diags_for("crates/core/src/adj.rs", src);
    assert_eq!(rules_of(&diags), vec![Rule::UnsafeAudit]);
    assert_eq!(diags[0].line, 3);
    assert!(diags[0].message.contains("allowlisted"));
}

#[test]
fn unsafe_in_allowlisted_file_without_safety_comment_fires() {
    let src = r#"
pub fn f(p: *const u8) -> u8 {
    unsafe { *p }
}
"#;
    let diags = diags_for("crates/pregel/src/radix.rs", src);
    assert_eq!(rules_of(&diags), vec![Rule::UnsafeAudit]);
    assert!(diags[0].message.contains("SAFETY"));
}

#[test]
fn unsafe_with_adjacent_safety_comment_is_quiet() {
    let src = r#"
pub fn f(p: *const u8) -> u8 {
    // SAFETY: caller guarantees `p` is valid.
    unsafe { *p }
}

pub fn trailing(p: *const u8) -> u8 {
    unsafe { *p } // SAFETY: caller guarantees `p` is valid.
}

/* SAFETY: a block comment
   spanning lines also counts. */
pub unsafe fn g() {}
"#;
    assert!(diags_for("crates/pregel/src/radix.rs", src).is_empty());
}

#[test]
fn safety_comment_above_attributes_is_adjacent() {
    let src = r#"
// SAFETY: caller must ensure `p` is valid.
#[cfg(target_arch = "x86_64")]
#[inline]
pub unsafe fn g() {}
"#;
    assert!(diags_for("crates/pregel/src/radix.rs", src).is_empty());
}

#[test]
fn safety_comment_separated_by_blank_line_is_not_adjacent() {
    let src = r#"
// SAFETY: too far away.

pub unsafe fn g() {}
"#;
    let diags = diags_for("crates/pregel/src/radix.rs", src);
    assert_eq!(rules_of(&diags), vec![Rule::UnsafeAudit]);
}

#[test]
fn unsafe_suppressed_with_allow_is_quiet() {
    let src = r#"
pub fn f(p: *const u8) -> u8 {
    // ppa_lint: allow(unsafe-audit)
    unsafe { *p }
}
"#;
    assert!(diags_for("crates/core/src/adj.rs", src).is_empty());
}

#[test]
fn unsafe_in_test_module_is_exempt() {
    let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn probe() {
        let x = 1u8;
        let got = unsafe { *(&x as *const u8) };
        assert_eq!(got, 1);
    }
}
"#;
    assert!(diags_for("crates/core/src/adj.rs", src).is_empty());
}

#[test]
fn unsafe_in_integration_test_or_bench_file_is_exempt() {
    let src = "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    assert!(diags_for("tests/tests/radix_alloc.rs", src).is_empty());
    assert!(diags_for("crates/bench/benches/kernels.rs", src).is_empty());
}

// ---------------------------------------------------------------------------
// panic-free-codecs
// ---------------------------------------------------------------------------

#[test]
fn unwrap_expect_panic_and_indexing_fire_in_codec_files() {
    let src = r#"
pub fn decode(bytes: &[u8]) -> u8 {
    let first = bytes.first().unwrap();
    let second = bytes.get(1).expect("second byte");
    if *first == 0 {
        panic!("zero");
    }
    bytes[2] + second
}
"#;
    let diags = diags_for("crates/core/src/checkpoint.rs", src);
    assert_eq!(
        rules_of(&diags),
        vec![
            Rule::PanicFreeCodecs,
            Rule::PanicFreeCodecs,
            Rule::PanicFreeCodecs,
            Rule::PanicFreeCodecs
        ]
    );
    // One each: unwrap, expect, panic!, slice-index.
    assert!(diags[0].message.contains("unwrap"));
    assert!(diags[1].message.contains("expect"));
    assert!(diags[2].message.contains("panic!"));
    assert!(diags[3].message.contains("indexing"));
}

#[test]
fn question_mark_indexing_fires() {
    let src = "fn f(b: &[u8]) -> Option<u8> { Some(b.first()?[0]) }\n";
    let diags = diags_for("shims/serde/src/lib.rs", src);
    assert_eq!(rules_of(&diags), vec![Rule::PanicFreeCodecs]);
}

#[test]
fn the_fastx_decoder_is_a_codec_file() {
    // Reads files a user hands in: a malformed header must be a typed parse
    // error, not a slice-index panic.
    let src = r#"
pub fn name(header: &str) -> &str {
    header[1..].split_whitespace().next().unwrap_or("")
}
pub fn name_checked(header: &[u8]) -> &[u8] {
    header.get(1..).unwrap_or_default()
}
"#;
    let diags = diags_for("crates/seq/src/fastx.rs", src);
    assert_eq!(rules_of(&diags), vec![Rule::PanicFreeCodecs]);
    assert_eq!(diags[0].line, 3);
}

#[test]
fn non_indexing_brackets_are_quiet() {
    let src = r#"
#[derive(Debug)]
pub struct S {
    words: [u64; 4],
}
pub fn f() -> Vec<u8> {
    let [a, b] = [1u8, 2u8];
    let v = vec![a, b];
    let _: &[u8] = &v;
    v
}
"#;
    assert!(diags_for("crates/core/src/checkpoint.rs", src).is_empty());
}

#[test]
fn codec_rule_only_applies_to_codec_files() {
    let src = "pub fn f(b: &[u8]) -> u8 { b[0] }\n";
    assert!(diags_for("crates/core/src/ops/construct.rs", src).is_empty());
    assert!(diags_for("crates/quality/src/lib.rs", src).is_empty());
}

#[test]
fn codec_violations_in_test_module_are_exempt() {
    let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn roundtrip() {
        let v = vec![1u8];
        assert_eq!(v.first().unwrap(), &v[0]);
    }
}
"#;
    assert!(diags_for("crates/core/src/checkpoint.rs", src).is_empty());
}

#[test]
fn codec_violation_suppressed_with_allow_is_quiet() {
    let src = r#"
pub fn f(b: &[u8]) -> u8 {
    b[0] // ppa_lint: allow(panic-free-codecs)
}
"#;
    assert!(diags_for("crates/core/src/checkpoint.rs", src).is_empty());
}

// ---------------------------------------------------------------------------
// engine-only-threading
// ---------------------------------------------------------------------------

#[test]
fn thread_spawn_outside_engine_fires() {
    let src = r#"
pub fn run() {
    let h = std::thread::spawn(|| 1 + 1);
    h.join().ok();
}
"#;
    let diags = diags_for("crates/pregel/src/dense.rs", src);
    assert_eq!(rules_of(&diags), vec![Rule::EngineOnlyThreading]);
    assert!(diags[0].message.contains("thread::spawn"));
}

#[test]
fn thread_scope_outside_engine_fires() {
    let src = "pub fn run() { std::thread::scope(|_| ()); }\n";
    let diags = diags_for("crates/core/src/ops/construct.rs", src);
    assert_eq!(rules_of(&diags), vec![Rule::EngineOnlyThreading]);
}

#[test]
fn thread_spawn_in_allowlisted_files_is_quiet() {
    let src = "pub fn run() { std::thread::spawn(|| ()).join().ok(); }\n";
    assert!(diags_for("crates/pregel/src/engine.rs", src).is_empty());
}

#[test]
fn thread_spawn_in_comment_or_string_is_quiet() {
    let src = r##"
//! The engine owns all threads; never call thread::spawn elsewhere.
pub fn doc() -> &'static str {
    "thread::spawn is banned here"
}
pub fn raw() -> &'static str {
    r#"thread::scope too"#
}
"##;
    assert!(diags_for("crates/pregel/src/dense.rs", src).is_empty());
}

// ---------------------------------------------------------------------------
// no-siphash-hot-path
// ---------------------------------------------------------------------------

#[test]
fn std_hashmap_in_pregel_and_core_fires() {
    let src = "use std::collections::HashMap;\npub type M = HashMap<u64, u64>;\n";
    let diags = diags_for("crates/pregel/src/keycount.rs", src);
    assert_eq!(rules_of(&diags), vec![Rule::NoSiphashHotPath]);
    let diags = diags_for("crates/core/src/adj.rs", src);
    assert_eq!(rules_of(&diags), vec![Rule::NoSiphashHotPath]);
}

#[test]
fn brace_imported_std_hash_containers_fire_once_each() {
    let src =
        "use std::collections::{BTreeMap, HashMap, HashSet};\npub type M = HashMap<u64, u64>;\n";
    let diags = diags_for("crates/core/src/ops/merge.rs", src);
    assert_eq!(
        rules_of(&diags),
        vec![Rule::NoSiphashHotPath, Rule::NoSiphashHotPath]
    );
    assert!(diags[0].message.contains("FxHashMap"));
    assert!(diags[1].message.contains("FxHashSet"));
    assert_eq!((diags[0].line, diags[1].line), (1, 1));
    // A brace import without either container is fine, nested or not.
    let src = "use std::collections::{btree_map::{Entry, Keys}, BTreeSet, VecDeque};\n";
    assert!(diags_for("crates/core/src/ops/merge.rs", src).is_empty());
}

#[test]
fn std_hashset_fires_by_path_and_by_import() {
    let src = "pub fn f(v: &[u64]) -> usize {\n    let s: std::collections::HashSet<u64> = v.iter().copied().collect();\n    s.len()\n}\n";
    let diags = diags_for("crates/core/src/ops/bubble.rs", src);
    assert_eq!(rules_of(&diags), vec![Rule::NoSiphashHotPath]);
    assert_eq!(diags[0].line, 2);
    let src = "use std::collections::HashSet;\npub type S = HashSet<u64>;\n";
    let diags = diags_for("crates/pregel/src/dense.rs", src);
    assert_eq!(rules_of(&diags), vec![Rule::NoSiphashHotPath]);
}

#[test]
fn std_hashmap_outside_hot_crates_is_quiet() {
    let src = "use std::collections::HashMap;\npub type M = HashMap<u64, u64>;\n";
    assert!(diags_for("crates/quality/src/lib.rs", src).is_empty());
    assert!(diags_for("crates/bench/src/lib.rs", src).is_empty());
}

#[test]
fn fxhashmap_alias_definition_suppression_is_quiet() {
    let src = r#"
/// The replacement the rule points at.
// ppa_lint: allow(no-siphash-hot-path)
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, ()>;
"#;
    assert!(diags_for("crates/pregel/src/fxhash.rs", src).is_empty());
}

#[test]
fn std_hashmap_in_test_module_is_quiet() {
    let src = r#"
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn probe() {
        let m: HashMap<u64, u64> = HashMap::new();
        assert!(m.is_empty());
    }
}
"#;
    assert!(diags_for("crates/pregel/src/keycount.rs", src).is_empty());
}

// ---------------------------------------------------------------------------
// cancellation-points
// ---------------------------------------------------------------------------

#[test]
fn op_entry_point_without_a_polling_callee_fires() {
    let src = r#"
pub fn grind_on(ctx: &ExecCtx, nodes: &[u64]) -> u64 {
    let mut acc = 0;
    for n in nodes.iter() {
        acc += *n;
    }
    acc
}
"#;
    let diags = diags_for("crates/core/src/ops/grind.rs", src);
    assert_eq!(rules_of(&diags), vec![Rule::CancellationPoints]);
    assert!(diags[0].message.contains("grind_on"));
    assert!(diags[0].message.contains("JobControl"));
}

#[test]
fn op_routed_through_polling_runners_is_quiet() {
    let srcs = [
        // Core's `ranks::run_on`, which every labeling job goes through.
        "pub fn a_on(ctx: &ExecCtx) -> u64 { let (_, m, _) = ranks::run_on(ctx, &c, n, s, p, o); m }\n",
        "pub fn b_on(ctx: &ExecCtx) -> u64 { fold_buckets_on(ctx, &t, hint, scan, 1, fold).1.groups }\n",
        "pub fn c_on(ctx: &ExecCtx) -> u64 { let (cc, sv) = connected_components(ctx, &adj, &c); sv }\n",
        "pub fn f_on(ctx: &ExecCtx) -> u64 { count_keys_on(ctx, &t, hint, scan, records, 1).1.groups }\n",
        // The dense plane's runner polls at every superstep boundary too.
        "pub fn g_on(ctx: &ExecCtx) -> u64 { run_dense_on(ctx, &p, &c, &mut ranks).supersteps as u64 }\n",
    ];
    for src in srcs {
        assert!(
            diags_for("crates/core/src/ops/probe.rs", src).is_empty(),
            "false positive on: {src}"
        );
    }
}

#[test]
fn lookalike_on_calls_do_not_satisfy_the_rule() {
    // `node.sole_edge_on(side)` ends in `_on` but polls nothing, and `run`
    // is no runner entry point (a path call to it names none either).
    let src = r#"
pub fn walk_on(nodes: &[Node]) -> u64 {
    let e = nodes.first().map(|n| n.sole_edge_on(0));
    run(e) + ppa_pregel::run(e)
}
fn run(e: Option<u64>) -> u64 {
    e.unwrap_or(0)
}
"#;
    let diags = diags_for("crates/core/src/ops/walk.rs", src);
    assert_eq!(rules_of(&diags), vec![Rule::CancellationPoints]);
    assert_eq!(diags[0].line, 2);
}

#[test]
fn a_counting_op_is_stoppable_only_through_the_polling_counter() {
    // `count_keys_on` polls the job control between its scatter and count
    // phases; an entry point that counts keys in a private loop polls nothing.
    let private_loop = r#"
pub fn count_kmers_on(ctx: &ExecCtx, reads: &[Read]) -> u64 {
    let mut sink = Vec::new();
    for read in reads.iter() {
        scan(read, &mut sink);
    }
    sink.sort_unstable();
    sink.len() as u64
}
"#;
    let diags = diags_for("crates/core/src/ops/construct.rs", private_loop);
    assert_eq!(rules_of(&diags), vec![Rule::CancellationPoints]);
    assert!(diags[0].message.contains("count_kmers_on"));
    assert!(diags[0].message.contains("count_keys_on"));

    let through_the_counter = r#"
pub fn count_kmers_on(ctx: &ExecCtx, reads: &[Read]) -> u64 {
    let (kept, _metrics) = count_keys_on(ctx, reads, bound, scan, records, 1);
    kept.len() as u64
}
"#;
    assert!(diags_for("crates/core/src/ops/construct.rs", through_the_counter).is_empty());
}

#[test]
fn an_op_with_its_own_barrier_is_stoppable_only_if_it_polls_there() {
    // Grouping and stitching on the pool through `run_per_worker` polls
    // nothing; one `poll_barrier` between the two phases makes the op
    // stoppable.
    let unpolled = r#"
pub fn merge_groups_on(ctx: &ExecCtx, labels: &[(u64, u64)]) -> usize {
    let groups = ctx.pool().run_per_worker(shares, |w, share| group(share));
    ctx.pool().run_per_worker(plan, |w, part| stitch(&groups, part)).len()
}
"#;
    let diags = diags_for("crates/core/src/ops/merge.rs", unpolled);
    assert_eq!(rules_of(&diags), vec![Rule::CancellationPoints]);
    assert!(diags[0].message.contains("merge_groups_on"));
    assert!(diags[0].message.contains("poll_barrier"));

    let polled = r#"
pub fn merge_groups_on(ctx: &ExecCtx, labels: &[(u64, u64)]) -> usize {
    let groups = ctx.pool().run_per_worker(shares, |w, share| group(share));
    ctx.poll_barrier();
    ctx.pool().run_per_worker(plan, |w, part| stitch(&groups, part)).len()
}
"#;
    assert!(diags_for("crates/core/src/ops/merge.rs", polled).is_empty());
}

#[test]
fn private_and_non_on_fns_are_exempt_from_cancellation_points() {
    let src = r#"
fn helper_on(x: u64) -> u64 { x }
pub fn leader(x: u64) -> u64 { helper_on(x) }
"#;
    assert!(diags_for("crates/core/src/ops/helper.rs", src).is_empty());
}

#[test]
fn cancellation_points_is_scoped_to_ops_and_suppressible() {
    // The same un-polling entry point outside `ops/` is fine...
    let src = "pub fn fused_on(x: u64) -> u64 { x }\n";
    assert!(diags_for("crates/core/src/node.rs", src).is_empty());
    // ...and inside `ops/` an explicit suppression silences it.
    let suppressed = r#"
// ppa_lint: allow(cancellation-points)
pub fn fused_on(x: u64) -> u64 { x }
"#;
    assert!(diags_for("crates/core/src/ops/fused.rs", suppressed).is_empty());
}

// ---------------------------------------------------------------------------
// test-only-pub
// ---------------------------------------------------------------------------

const SURFACE: &str = r#"
pub fn used_elsewhere() -> u64 { 1 }
pub fn only_tested() -> u64 { 2 }
pub(crate) fn crate_only() -> u64 { 3 }
pub struct Outcome { pub field: u64 }
"#;

#[test]
fn pub_item_named_only_by_tests_fires() {
    let caller = r#"
use ppa_pregel::surface::only_tested;
pub fn run() -> u64 { ppa_pregel::surface::used_elsewhere() + Outcome { field: 0 }.field }
#[cfg(test)]
mod tests {
    #[test]
    fn probe() { assert_eq!(super::only_tested(), 2); }
}
"#;
    let diags = analyze_pairs(&[
        ("crates/pregel/src/surface.rs", SURFACE),
        ("crates/bench/src/lib.rs", caller),
        ("tests/tests/probe.rs", "fn t() { only_tested(); }\n"),
    ]);
    // A `use` is no caller, nor are test regions and test files; a
    // `pub(crate)` item and a field are not surface the rule weighs.
    assert_eq!(rules_of(&diags), vec![Rule::TestOnlyPub]);
    assert_eq!(diags[0].file, "crates/pregel/src/surface.rs");
    assert_eq!(diags[0].line, 3);
    assert!(diags[0].message.contains("only_tested"));
}

#[test]
fn test_only_pub_needs_a_reasoned_suppression_and_stays_in_its_crates() {
    let reasoned = "// ppa_lint: allow(test-only-pub) the seam the kmer tests diff against\npub fn seam() {}\n";
    assert!(analyze_pairs(&[("crates/seq/src/seam.rs", reasoned)]).is_empty());
    let bare = "// ppa_lint: allow(test-only-pub)\npub fn seam() {}\n";
    let diags = analyze_pairs(&[("crates/seq/src/seam.rs", bare)]);
    assert_eq!(rules_of(&diags), vec![Rule::TestOnlyPub]);
    // Outside pregel/core/seq the rule has nothing to say.
    assert!(analyze_pairs(&[("crates/quality/src/lib.rs", "pub fn lone() {}\n")]).is_empty());
}

// ---------------------------------------------------------------------------
// Lexer robustness
// ---------------------------------------------------------------------------

#[test]
fn keywords_inside_strings_do_not_fire() {
    let src = r####"
pub fn docs() -> Vec<&'static str> {
    vec![
        "unsafe { *p }",
        "thread::spawn(|| ())",
        "std::collections::HashMap",
        r#"raw: unsafe fn g() { thread::scope }"#,
        r##"nested raw # unsafe"##,
        "escaped \" unsafe \" quote",
    ]
}
"####;
    assert!(diags_for("crates/pregel/src/dense.rs", src).is_empty());
}

#[test]
fn nested_block_comments_are_skipped() {
    let src = r#"
/* outer /* nested: unsafe { thread::spawn } */ still comment:
   std::collections::HashMap */
pub fn f() -> u8 {
    0
}
"#;
    assert!(diags_for("crates/pregel/src/dense.rs", src).is_empty());
}

#[test]
fn char_literals_and_lifetimes_do_not_confuse_the_lexer() {
    // A naive scanner treats `'a` as an unterminated char literal and
    // swallows the `unsafe` that follows the next quote.
    let src = r#"
pub fn f<'a>(x: &'a [u8]) -> u8 {
    let q = '"';
    let esc = '\'';
    let _ = (q, esc);
    unsafe { *x.as_ptr() }
}
"#;
    let diags = diags_for("crates/core/src/adj.rs", src);
    assert_eq!(rules_of(&diags), vec![Rule::UnsafeAudit]);
    assert_eq!(diags[0].line, 6);
}

#[test]
fn cfg_test_nesting_tracks_region_ends() {
    // Code after the nested test regions close is linted again.
    let src = r#"
#[cfg(test)]
mod tests {
    mod inner {
        pub fn helper(p: *const u8) -> u8 {
            unsafe { *p }
        }
    }
}

pub fn after(p: *const u8) -> u8 {
    unsafe { *p }
}
"#;
    let diags = diags_for("crates/core/src/adj.rs", src);
    assert_eq!(rules_of(&diags), vec![Rule::UnsafeAudit]);
    assert_eq!(diags[0].line, 12, "only the post-region unsafe fires");
}

#[test]
fn cfg_not_test_is_still_linted() {
    let src = r#"
#[cfg(not(test))]
pub fn prod(p: *const u8) -> u8 {
    unsafe { *p }
}
"#;
    let diags = diags_for("crates/core/src/adj.rs", src);
    assert_eq!(rules_of(&diags), vec![Rule::UnsafeAudit]);
}

#[test]
fn cfg_test_gated_single_item_is_exempt_but_next_item_is_not() {
    let src = r#"
#[cfg(test)]
pub fn probe(p: *const u8) -> u8 {
    unsafe { *p }
}

pub fn prod(p: *const u8) -> u8 {
    unsafe { *p }
}
"#;
    let diags = diags_for("crates/core/src/adj.rs", src);
    assert_eq!(rules_of(&diags), vec![Rule::UnsafeAudit]);
    assert_eq!(diags[0].line, 8);
}

#[test]
fn suppression_line_above_and_multi_rule_lists_work() {
    let src = r#"
pub fn f(b: &[u8]) -> u8 {
    // ppa_lint: allow(panic-free-codecs, unsafe-audit)
    b[0]
}
"#;
    assert!(diags_for("crates/core/src/checkpoint.rs", src).is_empty());
    // The same directive does not silence an unrelated rule.
    let src2 = r#"
pub fn run() {
    // ppa_lint: allow(panic-free-codecs)
    std::thread::spawn(|| ()).join().ok();
}
"#;
    let diags = diags_for("crates/pregel/src/dense.rs", src2);
    assert_eq!(rules_of(&diags), vec![Rule::EngineOnlyThreading]);
}
