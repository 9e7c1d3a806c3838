//! The FASTA/FASTQ decoder against hostile and arbitrary input.
//!
//! * **Fuzz:** a small valid FASTQ and a multi-line FASTA, cut at every byte
//!   offset and with every bit of their first 200 bytes flipped. Every
//!   outcome must be `Ok` or a [`SeqError::Parse`] whose line number lies
//!   inside the input — never a panic and never another error kind.
//! * **Differential:** on generated inputs (CRLF, blank lines, lower case,
//!   `N`, multi-line FASTA, header fields after whitespace, malformed
//!   records) the slab parser returns exactly what a naive line-by-line
//!   parser over `BufRead::lines` returns: the same reads, or the same error
//!   message at the same line. The slab keeps bases packed, so a read comes
//!   back normalised — uppercase, with `N` for `n` — and the reference's
//!   sequences are normalised the same way before they are compared.

use ppa_seq::{ReadSet, SeqError};
use proptest::prelude::*;
use std::io::{BufRead, Cursor};

const FASTQ: &str = "@r1 sample=1\nACGTNacgtn\n+\nIIIIIIIIII\n\n@r2\r\nGGGCCCAAAT\r\n+r2\r\n#########!\r\n@r3\tlane:4\nTTTT\n+\nJJJJ\n@r4\n\n+\n\n";
const FASTA: &str = ">c1 first contig\nACGTACGTAC\nGTACGTacgt\nNNNN\n\n>c2\r\nTTTTGGGG\r\nCCCC  \r\n>c3\n>c4 x y\nacgtnACGTN\nA\n";

type Parsed = Result<Vec<(Vec<u8>, Vec<u8>)>, SeqError>;

fn parse_fastq(input: &[u8]) -> Parsed {
    ReadSet::new().parse_fastq(Cursor::new(input)).map(pairs)
}

fn parse_fasta(input: &[u8]) -> Parsed {
    ReadSet::new().parse_fasta(Cursor::new(input)).map(pairs)
}

fn pairs(reads: ReadSet) -> Vec<(Vec<u8>, Vec<u8>)> {
    reads
        .records
        .iter()
        .map(|r| {
            let mut seq = Vec::new();
            r.decode_into(&mut seq);
            (r.name.to_vec(), seq)
        })
        .collect()
}

/// Lines of `input` as `BufRead::lines` would count them.
fn line_count(input: &[u8]) -> usize {
    input.split(|&c| c == b'\n').count() - usize::from(input.ends_with(b"\n"))
}

/// The decoder contract on arbitrary bytes.
fn assert_typed(outcome: Parsed, input: &[u8], what: &str) {
    match outcome {
        Ok(reads) => {
            let bases: usize = reads.iter().map(|(_, seq)| seq.len()).sum();
            assert!(bases <= input.len(), "{what}: more bases than input");
        }
        Err(SeqError::Parse { line, .. }) => {
            assert!(
                (1..=line_count(input)).contains(&line),
                "{what}: line {line} outside the input's {} lines",
                line_count(input)
            );
        }
        Err(other) => panic!("{what}: untyped error {other:?}"),
    }
}

#[test]
fn the_fixtures_parse() {
    let fastq = parse_fastq(FASTQ.as_bytes()).unwrap();
    assert_eq!(fastq.len(), 4);
    assert_eq!(fastq[1], (b"r2".to_vec(), b"GGGCCCAAAT".to_vec()));
    assert_eq!(fastq[3], (b"r4".to_vec(), Vec::new()));
    let fasta = parse_fasta(FASTA.as_bytes()).unwrap();
    let names: Vec<&[u8]> = fasta.iter().map(|(n, _)| n.as_slice()).collect();
    assert_eq!(names, [&b"c1"[..], b"c2", b"c3", b"c4"]);
    assert_eq!(fasta[0].1, b"ACGTACGTACGTACGTACGTNNNN");
    assert_eq!(fasta[1].1, b"TTTTGGGGCCCC");
    assert!(fasta[2].1.is_empty());
}

#[test]
fn truncation_at_every_offset_is_ok_or_a_parse_error() {
    for (input, parse) in [
        (FASTQ.as_bytes(), parse_fastq as fn(&[u8]) -> Parsed),
        (FASTA.as_bytes(), parse_fasta),
    ] {
        for cut in 0..=input.len() {
            let prefix = &input[..cut];
            assert_typed(parse(prefix), prefix, &format!("cut at {cut}"));
        }
    }
    // A FASTQ cut inside a quality line is a length mismatch on that line.
    let cut = FASTQ.find("JJJJ").unwrap() + 2;
    assert_eq!(
        parse_fastq(&FASTQ.as_bytes()[..cut]),
        Err(SeqError::Parse {
            line: 13,
            msg: "quality length 2 != sequence length 4 for \"@r3\\tlane:4\"".into()
        })
    );
}

#[test]
fn every_bit_flip_in_the_first_200_bytes_is_ok_or_a_parse_error() {
    for (input, parse) in [
        (FASTQ.as_bytes(), parse_fastq as fn(&[u8]) -> Parsed),
        (FASTA.as_bytes(), parse_fasta),
    ] {
        let mut bytes = input.to_vec();
        for i in 0..bytes.len().min(200) {
            for bit in 0..8 {
                bytes[i] ^= 1 << bit;
                assert_typed(parse(&bytes), &bytes, &format!("byte {i} bit {bit}"));
                bytes[i] ^= 1 << bit;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The naive reference: one `String` per line, as the decoder was first
// written. Whitespace is ASCII here, which is all the generator produces.
// ---------------------------------------------------------------------------

fn parse_error(line: usize, msg: String) -> SeqError {
    SeqError::Parse { line, msg }
}

fn first_word(text: &str) -> Vec<u8> {
    text.split_whitespace()
        .next()
        .unwrap_or("")
        .as_bytes()
        .to_vec()
}

fn check_sequence(seq: &str, line: usize) -> Result<(), SeqError> {
    match seq.chars().find(|c| !"ACGTNacgtn".contains(*c)) {
        None => Ok(()),
        Some(c) => Err(parse_error(
            line,
            format!("invalid sequence character {c:?}"),
        )),
    }
}

fn reference_fastq(input: &[u8]) -> Parsed {
    let mut lines = Cursor::new(input).lines().map(Result::unwrap);
    let mut line_no = 0;
    let mut reads = Vec::new();
    let mut next = |line_no: &mut usize, what: &str| match lines.next() {
        Some(line) => {
            *line_no += 1;
            Ok(line)
        }
        None => Err(parse_error(
            *line_no,
            format!("truncated record: missing {what}"),
        )),
    };
    loop {
        let Ok(header) = next(&mut line_no, "") else {
            return Ok(reads);
        };
        if header.trim().is_empty() {
            continue;
        }
        if !header.starts_with('@') {
            return Err(parse_error(
                line_no,
                format!("expected '@' header, got {header:?}"),
            ));
        }
        let seq = next(&mut line_no, "sequence line")?;
        check_sequence(&seq, line_no)?;
        let plus = next(&mut line_no, "'+' separator line")?;
        if !plus.starts_with('+') {
            return Err(parse_error(
                line_no,
                format!("expected '+' separator, got {plus:?}"),
            ));
        }
        let qual = next(&mut line_no, "quality line")?;
        if qual.len() != seq.len() {
            return Err(parse_error(
                line_no,
                format!(
                    "quality length {} != sequence length {} for {header:?}",
                    qual.len(),
                    seq.len()
                ),
            ));
        }
        reads.push((
            first_word(&header[1..]),
            seq.to_ascii_uppercase().into_bytes(),
        ));
    }
}

fn reference_fasta(input: &[u8]) -> Parsed {
    let mut reads: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for (i, line) in Cursor::new(input).lines().enumerate() {
        let line = line.unwrap();
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(name) = trimmed.strip_prefix('>') {
            reads.push((first_word(name), Vec::new()));
        } else {
            let Some(read) = reads.last_mut() else {
                return Err(parse_error(
                    i + 1,
                    "sequence data before first '>' header".into(),
                ));
            };
            check_sequence(trimmed, i + 1)?;
            read.1
                .extend_from_slice(trimmed.to_ascii_uppercase().as_bytes());
        }
    }
    Ok(reads)
}

// ---------------------------------------------------------------------------
// Generated inputs
// ---------------------------------------------------------------------------

/// One generated record: a name seed, sequence codes, a layout word and a
/// corruption pick (most picks corrupt nothing).
type Spec = (u32, Vec<u8>, u8, u8);

fn record_specs() -> impl Strategy<Value = Vec<Spec>> {
    collection::vec(
        (
            0u32..10_000,
            collection::vec(0u8..=255, 0..24),
            0u8..=255,
            0u8..40,
        ),
        0..7,
    )
}

/// Sequence bytes: the ten legal characters, and rarely an illegal one.
fn sequence(codes: &[u8]) -> Vec<u8> {
    codes
        .iter()
        .map(|&c| match c {
            0..=251 => b"ACGTNacgtn"[usize::from(c) % 10],
            252 => b'-',
            253 => b'X',
            254 => b' ',
            _ => b'*',
        })
        .collect()
}

fn eol(layout: u8) -> &'static str {
    if layout & 1 == 1 {
        "\r\n"
    } else {
        "\n"
    }
}

fn header_fields(layout: u8) -> &'static str {
    match (layout >> 2) & 3 {
        0 => "",
        1 => " desc",
        2 => "\tlane=3 x",
        _ => "  ",
    }
}

/// A header's name part: usually `read_<seed>`, sometimes after leading
/// whitespace or missing.
fn record_name(seed: u32, pick: u8) -> String {
    match pick {
        4 => format!(" \tread_{seed}"),
        5 => String::new(),
        _ => format!("read_{seed}"),
    }
}

fn render_fastq(specs: &[Spec], final_newline: bool) -> Vec<u8> {
    let mut out = String::new();
    for &(name, ref codes, layout, corrupt) in specs {
        let nl = eol(layout);
        let seq = String::from_utf8(sequence(codes)).unwrap();
        if layout & 2 != 0 {
            out += if layout & 16 != 0 { "  " } else { "" };
            out += nl;
        }
        let at = if corrupt == 0 { ">" } else { "@" };
        let name = record_name(name, corrupt);
        out += &format!("{at}{name}{}{nl}{seq}{nl}", header_fields(layout));
        if corrupt == 1 {
            break; // truncated after the sequence line
        }
        if corrupt != 2 {
            out += if layout & 32 != 0 { "+again" } else { "+" };
            out += nl;
        }
        let qual_len = if corrupt == 3 {
            seq.len() + 1
        } else {
            seq.len()
        };
        out += &"I".repeat(qual_len);
        out += nl;
    }
    finish(out, final_newline)
}

fn render_fasta(specs: &[Spec], final_newline: bool) -> Vec<u8> {
    let mut out = String::new();
    for (i, &(name, ref codes, layout, corrupt)) in specs.iter().enumerate() {
        let nl = eol(layout);
        if !(i == 0 && corrupt == 0) {
            let name = record_name(name, corrupt);
            out += &format!(">{name}{}{nl}", header_fields(layout));
        }
        let seq = String::from_utf8(sequence(codes)).unwrap();
        let width = 1 + usize::from(layout >> 5);
        for (j, chunk) in seq.as_bytes().chunks(width).enumerate() {
            out += std::str::from_utf8(chunk).unwrap();
            if layout & 2 != 0 && j % 2 == 0 {
                out += " \t"; // trailing whitespace
            }
            out += nl;
            if layout & 16 != 0 && j == 0 {
                out += nl; // a blank line inside the record
            }
        }
    }
    finish(out, final_newline)
}

fn finish(mut out: String, final_newline: bool) -> Vec<u8> {
    if !final_newline {
        while out.ends_with('\n') || out.ends_with('\r') {
            out.pop();
        }
    }
    out.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn slab_fastq_parser_equals_the_line_by_line_reference(
        specs in record_specs(),
        final_newline in 0u8..2,
    ) {
        let input = render_fastq(&specs, final_newline == 1);
        prop_assert_eq!(parse_fastq(&input), reference_fastq(&input));
    }

    #[test]
    fn slab_fasta_parser_equals_the_line_by_line_reference(
        specs in record_specs(),
        final_newline in 0u8..2,
    ) {
        let input = render_fasta(&specs, final_newline == 1);
        prop_assert_eq!(parse_fasta(&input), reference_fasta(&input));
    }
}

#[test]
fn the_generators_reach_every_outcome() {
    // Guards the differentials above against generators that quietly stop
    // producing the interesting cases.
    let mut rng_cases = Vec::new();
    let strategy = record_specs();
    let mut rng = proptest::rng_from_seed(7);
    for _ in 0..400 {
        rng_cases.push(strategy.generate(&mut rng));
    }
    let fastq: Vec<Parsed> = rng_cases
        .iter()
        .map(|s| parse_fastq(&render_fastq(s, true)))
        .collect();
    let fasta: Vec<Parsed> = rng_cases
        .iter()
        .map(|s| parse_fasta(&render_fasta(s, true)))
        .collect();
    for (format, outcomes) in [("fastq", &fastq), ("fasta", &fasta)] {
        let ok = outcomes
            .iter()
            .filter(|o| matches!(o, Ok(r) if r.len() > 1))
            .count();
        let err = outcomes.iter().filter(|o| o.is_err()).count();
        assert!(
            ok > 40 && err > 40,
            "{format}: {ok} multi-read Ok, {err} Err"
        );
    }
    let messages: Vec<String> = fastq
        .iter()
        .filter_map(|o| o.as_ref().err().map(|e| e.to_string()))
        .collect();
    for needle in [
        "expected '@' header",
        "missing '+' separator line",
        "expected '+' separator",
        "quality length",
        "invalid sequence character",
    ] {
        assert!(
            messages.iter().any(|m| m.contains(needle)),
            "no FASTQ case hits {needle:?}"
        );
    }
}
