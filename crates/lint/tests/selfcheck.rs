//! Self-check: the linter, run over the real workspace, reports zero
//! findings — the architectural invariants it encodes actually hold on the
//! tree that ships it. Also validates the JSON report shape with a tiny
//! hand-rolled parser (no serde_json in the offline container).

use std::fs;
use std::path::Path;

use ppa_lint::{
    analyze_sources, render_json, render_text, walk, Diagnostic, Rule, SourceSpec, ALL_RULES,
};

#[test]
fn real_workspace_is_clean() {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = walk::find_workspace_root(manifest_dir).expect("workspace root above crates/lint");
    let files = walk::collect_rust_files(&root).expect("walk workspace");
    assert!(
        files.len() > 20,
        "workspace walk found suspiciously few files: {}",
        files.len()
    );
    // The rules' allowlists name real files; if one is renamed the rule
    // silently stops covering it, so pin their existence here.
    for pinned in [
        "crates/pregel/src/engine.rs",
        "crates/pregel/src/radix.rs",
        "crates/core/src/checkpoint.rs",
        "crates/pregel/src/spill.rs",
        "crates/seq/src/fastx.rs",
        "crates/core/src/ops/label.rs",
        "crates/core/src/pipeline.rs",
    ] {
        assert!(
            files.iter().any(|(_, rel)| rel == pinned),
            "allowlisted file {pinned} no longer exists; update the rule tables"
        );
    }

    let sources: Vec<(String, String)> = files
        .iter()
        .map(|(abs, rel)| (rel.clone(), fs::read_to_string(abs).expect("read source")))
        .collect();
    let specs: Vec<SourceSpec<'_>> = sources
        .iter()
        .map(|(path, text)| SourceSpec { path, text })
        .collect();
    let diags = analyze_sources(&specs);
    assert!(
        diags.is_empty(),
        "workspace has lint findings:\n{}",
        render_text(&diags)
    );
}

// ---------------------------------------------------------------------------
// JSON output shape
// ---------------------------------------------------------------------------

/// Minimal JSON value for validating the report — recursive descent over
/// exactly the subset `render_json` emits.
#[derive(Debug, PartialEq)]
enum Json {
    Num(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(pairs) => pairs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key:?} in {self:?}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn as_str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn as_num(&self) -> u64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn as_arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) {
        self.skip_ws();
        assert_eq!(
            self.bytes.get(self.pos),
            Some(&b),
            "expected {:?} at byte {}",
            b as char,
            self.pos
        );
        self.pos += 1;
    }

    fn peek(&mut self) -> u8 {
        self.skip_ws();
        *self.bytes.get(self.pos).expect("unexpected end of JSON")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Json::Str(self.string()),
            b'0'..=b'9' => self.number(),
            other => panic!("unexpected byte {:?} at {}", other as char, self.pos),
        }
    }

    fn object(&mut self) -> Json {
        self.expect(b'{');
        let mut pairs = Vec::new();
        if self.peek() != b'}' {
            loop {
                let key = self.string();
                self.expect(b':');
                pairs.push((key, self.value()));
                if self.peek() == b',' {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        self.expect(b'}');
        Json::Obj(pairs)
    }

    fn array(&mut self) -> Json {
        self.expect(b'[');
        let mut items = Vec::new();
        if self.peek() != b']' {
            loop {
                items.push(self.value());
                if self.peek() == b',' {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        self.expect(b']');
        Json::Arr(items)
    }

    fn string(&mut self) -> String {
        self.expect(b'"');
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied().expect("unterminated str") {
                b'"' => {
                    self.pos += 1;
                    return out;
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.bytes.get(self.pos).copied().expect("dangling escape");
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .expect("utf8 hex");
                            let code = u32::from_str_radix(hex, 16).expect("hex escape");
                            out.push(char::from_u32(code).expect("scalar value"));
                            self.pos += 4;
                        }
                        other => panic!("unknown escape \\{}", other as char),
                    }
                }
                _ => {
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).expect("utf8");
                    let c = rest.chars().next().expect("char");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Json {
        self.skip_ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("utf8 digits");
        Json::Num(text.parse().expect("u64 literal"))
    }
}

fn parse_json(text: &str) -> Json {
    let mut p = Parser::new(text);
    let v = p.value();
    p.skip_ws();
    assert_eq!(p.pos, p.bytes.len(), "trailing bytes after JSON document");
    v
}

#[test]
fn json_report_round_trips_through_a_parser() {
    let diags = vec![
        Diagnostic {
            rule: Rule::UnsafeAudit,
            file: "crates/core/src/adj.rs".into(),
            line: 7,
            col: 5,
            message: "`unsafe` with \"quotes\"\tand\nnewlines \\ backslash".into(),
        },
        Diagnostic {
            rule: Rule::NoSiphashHotPath,
            file: "crates/pregel/src/keycount.rs".into(),
            line: 42,
            col: 1,
            message: "std::collections::HashMap in hot path".into(),
        },
    ];
    let doc = parse_json(&render_json(&diags));
    assert_eq!(doc.get("count").as_num(), 2);
    let findings = doc.get("findings").as_arr();
    assert_eq!(findings.len(), 2);
    assert_eq!(findings[0].get("rule").as_str(), "unsafe-audit");
    assert_eq!(findings[0].get("file").as_str(), "crates/core/src/adj.rs");
    assert_eq!(findings[0].get("line").as_num(), 7);
    assert_eq!(findings[0].get("col").as_num(), 5);
    assert_eq!(
        findings[0].get("message").as_str(),
        "`unsafe` with \"quotes\"\tand\nnewlines \\ backslash"
    );
    assert_eq!(findings[1].get("rule").as_str(), "no-siphash-hot-path");
}

#[test]
fn empty_json_report_parses_with_zero_count() {
    let doc = parse_json(&render_json(&[]));
    assert_eq!(doc.get("count").as_num(), 0);
    assert!(doc.get("findings").as_arr().is_empty());
}

#[test]
fn rule_names_round_trip_and_have_descriptions() {
    for &rule in ALL_RULES {
        assert_eq!(Rule::from_name(rule.name()), Some(rule));
        assert!(!rule.description().is_empty());
        assert_eq!(rule.to_string(), rule.name());
    }
    assert_eq!(Rule::from_name("no-such-rule"), None);
}
