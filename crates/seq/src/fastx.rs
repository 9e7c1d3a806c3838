//! FASTA/FASTQ reading and writing into one columnar read slab.
//!
//! The datasets of the paper (Table I) are FASTQ read sets; the assemblers
//! output contigs as FASTA. Reads may contain `N` characters, which the DBG
//! construction treats as break points (Section IV-B ①), so read sequences
//! are stored as raw ASCII bytes rather than [`DnaString`](crate::DnaString)s.
//!
//! # Layout
//!
//! A [`ReadSet`] holds its reads in a [`ReadSlab`] of four columns, not one
//! heap object per read:
//!
//! * `bases` — every read's sequence bytes back to back, exactly as read
//!   (case and `N`s preserved);
//! * `base_ends` — one `u64` per read: where its bases end in `bases` (the
//!   read starts where the previous one ends);
//! * `names` and `name_ends` — the same pair for the record names (the
//!   header's first word).
//!
//! Iterating `&reads.records` yields borrowed [`Read`] views. Parsing fills
//! the columns straight from the reader through reused line buffers: no
//! per-read allocation and no UTF-8 validation. FASTQ quality lines are
//! checked (present, and as long as the sequence) and then dropped — nothing
//! in the workspace reads qualities, and [`ReadSet::write_fastq`] writes `I`
//! filler. Every decoding path here is panic-free: malformed input is a
//! [`SeqError::Parse`] with the 1-based line number.

use crate::{Base, SeqError};
use std::fmt;
use std::io::{BufRead, Write};
use std::ops::Range;

/// One read of a [`ReadSlab`], borrowed from its columns.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Read<'a> {
    /// Record name: the header's first word, without the leading `>` / `@`.
    pub name: &'a [u8],
    /// Sequence bytes (`A`, `C`, `G`, `T`, `N`, case preserved).
    pub seq: &'a [u8],
}

impl<'a> Read<'a> {
    /// Length of the sequence in bases.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Splits the sequence on `N`s (and any other non-ACGT character) into
    /// maximal ACGT-only segments, as required before k-mer extraction.
    /// Allocates the segment list; a hot loop that only needs the canonical
    /// k-mers should use
    /// [`SuperKmerScanner::scan`](crate::kmer::SuperKmerScanner::scan),
    /// which applies the same breaks in one pass over the bytes.
    pub fn acgt_segments(&self) -> Vec<&'a [u8]> {
        self.seq
            .split(|&c| Base::from_ascii_checked(c).is_none())
            .filter(|segment| !segment.is_empty())
            .collect()
    }
}

impl fmt::Debug for Read<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Read")
            .field("name", &String::from_utf8_lossy(self.name))
            .field("seq", &String::from_utf8_lossy(self.seq))
            .finish()
    }
}

/// The columns of a read set (see the [module docs](self) for the layout).
#[derive(Clone, Default, PartialEq, Eq)]
// ppa_lint: allow(test-only-pub) the type of the public `ReadSet::records`
pub struct ReadSlab {
    bases: Vec<u8>,
    base_ends: Vec<u64>,
    names: Vec<u8>,
    name_ends: Vec<u64>,
}

impl ReadSlab {
    /// Number of reads.
    pub fn len(&self) -> usize {
        self.base_ends.len()
    }

    /// Whether there are no reads.
    pub fn is_empty(&self) -> bool {
        self.base_ends.is_empty()
    }

    /// Read `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<Read<'_>> {
        Some(Read {
            name: span(&self.names, &self.name_ends, i)?,
            seq: span(&self.bases, &self.base_ends, i)?,
        })
    }

    /// Iterates over all reads in order.
    pub fn iter(&self) -> Reads<'_> {
        self.range(0..self.len())
    }

    /// Iterates over the reads with indices in `range` (clamped to the set).
    pub fn range(&self, range: Range<usize>) -> Reads<'_> {
        Reads {
            slab: self,
            next: range.start,
            end: range.end.min(self.len()),
        }
    }

    /// Splits the read indices into consecutive ranges of `size` reads (the
    /// last may be shorter): the task granule of a parallel scan.
    pub fn chunk_ranges(&self, size: usize) -> impl Iterator<Item = Range<usize>> {
        let (len, size) = (self.len(), size.max(1));
        (0..len)
            .step_by(size)
            .map(move |start| start..len.min(start + size))
    }

    /// Every read's bases, back to back.
    pub fn bases(&self) -> &[u8] {
        &self.bases
    }

    /// Where each read's bases end in [`bases`](ReadSlab::bases).
    pub fn base_ends(&self) -> &[u64] {
        &self.base_ends
    }

    /// Every read's name, back to back.
    pub fn names(&self) -> &[u8] {
        &self.names
    }

    /// Where each read's name ends in [`names`](ReadSlab::names).
    pub fn name_ends(&self) -> &[u64] {
        &self.name_ends
    }

    /// Closes the read whose bases were appended to `bases` since the last
    /// read ended, naming it `name`.
    fn end_read(&mut self, name: &[u8]) {
        self.names.extend_from_slice(name);
        self.name_ends.push(self.names.len() as u64);
        self.base_ends.push(self.bases.len() as u64);
    }
}

impl fmt::Debug for ReadSlab {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Entry `i` of a column delimited by an end-offset column.
fn span<'a>(column: &'a [u8], ends: &[u64], i: usize) -> Option<&'a [u8]> {
    let start = match i.checked_sub(1) {
        Some(prev) => *ends.get(prev)?,
        None => 0,
    };
    let end = *ends.get(i)?;
    column.get(usize::try_from(start).ok()?..usize::try_from(end).ok()?)
}

/// Iterator over the reads of a [`ReadSlab`] (see [`ReadSlab::iter`]).
#[derive(Debug, Clone)]
// ppa_lint: allow(test-only-pub) the return type of the public `ReadSlab::iter`
pub struct Reads<'a> {
    slab: &'a ReadSlab,
    next: usize,
    end: usize,
}

impl<'a> Iterator for Reads<'a> {
    type Item = Read<'a>;

    fn next(&mut self) -> Option<Read<'a>> {
        if self.next >= self.end {
            return None;
        }
        self.next += 1;
        self.slab.get(self.next - 1)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.end.saturating_sub(self.next);
        (left, Some(left))
    }
}

impl ExactSizeIterator for Reads<'_> {}

impl<'a> IntoIterator for &'a ReadSlab {
    type Item = Read<'a>;
    type IntoIter = Reads<'a>;

    fn into_iter(self) -> Reads<'a> {
        self.iter()
    }
}

/// An in-memory collection of reads, the unit of input for the assemblers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadSet {
    /// The reads, as columns; `for read in &reads.records` yields [`Read`]s.
    pub records: ReadSlab,
}

impl ReadSet {
    /// Creates an empty read set.
    pub fn new() -> ReadSet {
        ReadSet::default()
    }

    /// Creates an empty read set whose bases column holds `bases` bytes
    /// before it reallocates.
    pub fn with_base_capacity(bases: usize) -> ReadSet {
        let mut reads = ReadSet::new();
        reads.records.bases.reserve_exact(bases);
        reads
    }

    /// Appends one read.
    pub fn push(&mut self, name: &[u8], seq: &[u8]) {
        self.records.bases.extend_from_slice(seq);
        self.records.end_read(name);
    }

    /// Number of reads.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether there are no reads.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total number of bases across all reads.
    pub fn total_bases(&self) -> usize {
        self.records.bases.len()
    }

    /// Mean read length in bases (0 if empty).
    pub fn mean_read_length(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.total_bases() as f64 / self.len() as f64
        }
    }

    /// Parses FASTQ from a buffered reader.
    ///
    /// Malformed input — a truncated record, a `+` separator or quality line
    /// that does not match, or a sequence character outside `ACGTN`
    /// (case-insensitive) — is reported as [`SeqError::Parse`] with the
    /// 1-based line number at which the problem was detected, never a panic.
    /// Lines may end in `\n` or `\r\n`; blank lines between records are
    /// skipped. Qualities are checked and dropped.
    ///
    /// The reads are appended to this set (reserve with
    /// [`with_base_capacity`](ReadSet::with_base_capacity) when the input
    /// size is known). Line numbers count from the reader's start.
    pub fn parse_fastq<R: BufRead>(mut self, mut reader: R) -> Result<ReadSet, SeqError> {
        let (mut header, mut line) = (Vec::new(), Vec::new());
        let mut line_no = 0;
        loop {
            header.clear();
            if !read_line(&mut reader, &mut header, &mut line_no)? {
                return Ok(self);
            }
            if header.iter().all(|&c| is_space(c)) {
                continue;
            }
            if header.first() != Some(&b'@') {
                return Err(parse_error(
                    line_no,
                    format!("expected '@' header, got {:?}", lossy(&header)),
                ));
            }
            // The sequence line goes straight into the slab.
            let bases = &mut self.records.bases;
            let start = bases.len();
            if !read_line(&mut reader, bases, &mut line_no)? {
                return Err(truncated(line_no, "sequence line"));
            }
            validate_sequence_line(bases.get(start..).unwrap_or_default(), line_no)?;
            let seq_len = bases.len() - start;
            line.clear();
            if !read_line(&mut reader, &mut line, &mut line_no)? {
                return Err(truncated(line_no, "'+' separator line"));
            }
            if line.first() != Some(&b'+') {
                return Err(parse_error(
                    line_no,
                    format!("expected '+' separator, got {:?}", lossy(&line)),
                ));
            }
            line.clear();
            if !read_line(&mut reader, &mut line, &mut line_no)? {
                return Err(truncated(line_no, "quality line"));
            }
            if line.len() != seq_len {
                return Err(parse_error(
                    line_no,
                    format!(
                        "quality length {} != sequence length {seq_len} for {:?}",
                        line.len(),
                        lossy(&header)
                    ),
                ));
            }
            self.records
                .end_read(first_word(header.get(1..).unwrap_or_default()));
        }
    }

    /// Parses FASTA from a buffered reader (multi-line sequences supported).
    ///
    /// Malformed input — sequence data before the first header, or a sequence
    /// character outside `ACGTN` (case-insensitive) — is reported as
    /// [`SeqError::Parse`] with the 1-based line number, never a panic.
    /// Trailing whitespace (`\r` included) and blank lines are ignored. The
    /// reads are appended to this set, as in
    /// [`parse_fastq`](ReadSet::parse_fastq).
    pub fn parse_fasta<R: BufRead>(mut self, mut reader: R) -> Result<ReadSet, SeqError> {
        let slab = &mut self.records;
        let mut line_no = 0;
        // Whether a record is open: its name is in `names`, its bases are
        // the tail of `bases`, and its end is pushed at the next header.
        let mut open = false;
        loop {
            // Every line is read into the slab; a header or blank line is
            // cut off again, so sequence lines are never copied.
            let start = slab.bases.len();
            if !read_line(&mut reader, &mut slab.bases, &mut line_no)? {
                break;
            }
            let line = slab.bases.get(start..).unwrap_or_default();
            let trailing = line.iter().rev().take_while(|&&c| is_space(c)).count();
            let line = line.get(..line.len() - trailing).unwrap_or_default();
            match line.split_first() {
                None => {}
                Some((b'>', header)) => {
                    if open {
                        slab.base_ends.push(start as u64);
                    }
                    slab.names.extend_from_slice(first_word(header));
                    slab.name_ends.push(slab.names.len() as u64);
                    open = true;
                }
                Some(_) if !open => {
                    return Err(parse_error(
                        line_no,
                        "sequence data before first '>' header".into(),
                    ))
                }
                Some(_) => {
                    validate_sequence_line(line, line_no)?;
                    let end = start + line.len();
                    slab.bases.truncate(end);
                    continue;
                }
            }
            slab.bases.truncate(start);
        }
        if open {
            slab.base_ends.push(slab.bases.len() as u64);
        }
        Ok(self)
    }

    /// Writes the reads as FASTQ, with `I` for every quality character.
    pub fn write_fastq<W: Write>(&self, mut writer: W) -> Result<(), SeqError> {
        let mut filler = Vec::new();
        for r in &self.records {
            if filler.len() < r.len() {
                filler.resize(r.len(), b'I');
            }
            writer.write_all(b"@")?;
            writer.write_all(r.name)?;
            writer.write_all(b"\n")?;
            writer.write_all(r.seq)?;
            writer.write_all(b"\n+\n")?;
            writer.write_all(filler.get(..r.len()).unwrap_or_default())?;
            writer.write_all(b"\n")?;
        }
        Ok(())
    }

    /// Writes the reads as FASTA with 70-column wrapping.
    pub fn write_fasta<W: Write>(&self, mut writer: W) -> Result<(), SeqError> {
        for r in &self.records {
            writer.write_all(b">")?;
            writer.write_all(r.name)?;
            writer.write_all(b"\n")?;
            for chunk in r.seq.chunks(70) {
                writer.write_all(chunk)?;
                writer.write_all(b"\n")?;
            }
        }
        Ok(())
    }
}

impl<N: AsRef<[u8]>, S: AsRef<[u8]>> FromIterator<(N, S)> for ReadSet {
    /// Collects `(name, sequence)` pairs into a read set.
    fn from_iter<I: IntoIterator<Item = (N, S)>>(reads: I) -> ReadSet {
        let mut set = ReadSet::new();
        for (name, seq) in reads {
            set.push(name.as_ref(), seq.as_ref());
        }
        set
    }
}

/// Appends the next line of `reader` to `buf` without its `\n` or `\r\n`
/// ending (as [`BufRead::lines`] strips them) and counts it; `false` at the
/// end of the input.
fn read_line<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    line_no: &mut usize,
) -> Result<bool, SeqError> {
    let read = reader.read_until(b'\n', buf)?;
    if read == 0 {
        return Ok(false);
    }
    *line_no += 1;
    let ending = match buf.get(buf.len().saturating_sub(2)..) {
        Some(b"\r\n") if read >= 2 => 2,
        Some([.., b'\n']) => 1,
        _ => 0,
    };
    buf.truncate(buf.len() - ending);
    Ok(true)
}

/// ASCII whitespace as `char::is_whitespace` has it (vertical tab included).
fn is_space(c: u8) -> bool {
    matches!(c, b' ' | b'\t' | b'\n' | 0x0B | 0x0C | b'\r')
}

/// The first whitespace-delimited word of a header (empty if none).
fn first_word(header: &[u8]) -> &[u8] {
    header
        .split(|&c| is_space(c))
        .find(|word| !word.is_empty())
        .unwrap_or_default()
}

fn lossy(line: &[u8]) -> std::borrow::Cow<'_, str> {
    String::from_utf8_lossy(line)
}

fn parse_error(line: usize, msg: String) -> SeqError {
    SeqError::Parse { line, msg }
}

fn truncated(line: usize, what: &str) -> SeqError {
    parse_error(line, format!("truncated record: missing {what}"))
}

/// Which bytes a sequence line may hold: `ACGTN`, either case.
const SEQUENCE_BYTES: [bool; 256] = {
    let mut table = [false; 256];
    let mut c = 0;
    while c < 256 {
        // Evaluated at compile time: an out-of-range index cannot reach a
        // running decoder. ppa_lint: allow(panic-free-codecs)
        table[c] = matches!(
            c as u8,
            b'A' | b'C' | b'G' | b'T' | b'N' | b'a' | b'c' | b'g' | b't' | b'n'
        );
        c += 1;
    }
    table
};

/// Rejects sequence characters outside `ACGTN` (case-insensitive). `N`s are
/// legal input — the DBG construction treats them as break points — but
/// anything else (e.g. a stray `-`, digit, or shifted-column garbage from a
/// corrupt file) is a parse error, reported with the offending character and
/// its 1-based line number.
fn validate_sequence_line(seq: &[u8], line_no: usize) -> Result<(), SeqError> {
    match seq
        .iter()
        .find(|&&c| SEQUENCE_BYTES.get(usize::from(c)) != Some(&true))
    {
        None => Ok(()),
        Some(&c) => Err(parse_error(
            line_no,
            format!("invalid sequence character {:?}", c as char),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn read(rs: &ReadSet, i: usize) -> Read<'_> {
        rs.records.get(i).unwrap()
    }

    #[test]
    fn fastq_roundtrip() {
        let input = "@read1 extra info\nACGTN\n+\nIIIII\n@read2\nTTTT\n+anything\nJJJJ\n";
        let rs = ReadSet::new().parse_fastq(Cursor::new(input)).unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(read(&rs, 0).name, b"read1");
        assert_eq!(read(&rs, 0).seq, b"ACGTN");
        assert_eq!(read(&rs, 1).name, b"read2");
        let mut out = Vec::new();
        rs.write_fastq(&mut out).unwrap();
        assert_eq!(out, b"@read1\nACGTN\n+\nIIIII\n@read2\nTTTT\n+\nIIII\n");
        let reparsed = ReadSet::new().parse_fastq(Cursor::new(out)).unwrap();
        assert_eq!(reparsed, rs);
    }

    #[test]
    fn fastq_malformed_inputs() {
        assert!(ReadSet::new().parse_fastq(Cursor::new("ACGT\n")).is_err());
        assert!(ReadSet::new()
            .parse_fastq(Cursor::new("@r\nACGT\n"))
            .is_err());
        assert!(ReadSet::new()
            .parse_fastq(Cursor::new("@r\nACGT\nX\nIIII\n"))
            .is_err());
        assert!(ReadSet::new()
            .parse_fastq(Cursor::new("@r\nACGT\n+\nII\n"))
            .is_err());
        assert!(ReadSet::new()
            .parse_fastq(Cursor::new(""))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn fastq_errors_carry_line_context() {
        // Truncated record: the header on line 5 has no sequence line.
        let e = ReadSet::new()
            .parse_fastq(Cursor::new("@r1\nACGT\n+\nIIII\n@r2\n"))
            .unwrap_err();
        assert!(
            matches!(e, SeqError::Parse { line: 5, ref msg } if msg.contains("sequence line")),
            "{e}"
        );
        // Quality line on line 4 shorter than the sequence.
        let e = ReadSet::new()
            .parse_fastq(Cursor::new("@r\nACGT\n+\nII\n"))
            .unwrap_err();
        assert_eq!(
            e,
            parse_error(4, "quality length 2 != sequence length 4 for \"@r\"".into())
        );
        // Non-ACGTN character on the sequence line (line 2).
        let e = ReadSet::new()
            .parse_fastq(Cursor::new("@r\nAC-T\n+\nIIII\n"))
            .unwrap_err();
        assert_eq!(e, parse_error(2, "invalid sequence character '-'".into()));
        // Missing '+' separator on line 3.
        let e = ReadSet::new()
            .parse_fastq(Cursor::new("@r\nACGT\nIIII\n"))
            .unwrap_err();
        assert_eq!(
            e,
            parse_error(3, "expected '+' separator, got \"IIII\"".into())
        );
    }

    #[test]
    fn fastq_accepts_n_and_lowercase() {
        let rs = ReadSet::new()
            .parse_fastq(Cursor::new("@r\nacgtN\n+\nIIIII\n"))
            .unwrap();
        assert_eq!(read(&rs, 0).seq, b"acgtN");
    }

    #[test]
    fn fastq_accepts_crlf_and_blank_lines() {
        let crlf = "\r\n@a x\r\nACGT\r\n+\r\nIIII\r\n \r\n@b\r\nGG\r\n+\r\nII";
        let rs = ReadSet::new().parse_fastq(Cursor::new(crlf)).unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(
            (read(&rs, 0).name, read(&rs, 0).seq),
            (&b"a"[..], &b"ACGT"[..])
        );
        assert_eq!(
            (read(&rs, 1).name, read(&rs, 1).seq),
            (&b"b"[..], &b"GG"[..])
        );
    }

    #[test]
    fn fasta_errors_carry_line_context() {
        let e = ReadSet::new()
            .parse_fasta(Cursor::new("ACGT\n"))
            .unwrap_err();
        assert_eq!(
            e,
            parse_error(1, "sequence data before first '>' header".into())
        );
        // Second sequence line of the record (line 3) has a bad character.
        let e = ReadSet::new()
            .parse_fasta(Cursor::new(">c\nACGT\nAC!T\n"))
            .unwrap_err();
        assert_eq!(e, parse_error(3, "invalid sequence character '!'".into()));
    }

    #[test]
    fn fasta_roundtrip_with_wrapping() {
        let seq = "ACGT".repeat(40); // 160 bases, wraps over 3 lines
        let rs: ReadSet = [("contig_1", seq.as_str()), ("contig_2", "TTTT")]
            .into_iter()
            .collect();
        let mut out = Vec::new();
        rs.write_fasta(&mut out).unwrap();
        let reparsed = ReadSet::new().parse_fasta(Cursor::new(out)).unwrap();
        assert_eq!(reparsed, rs);
        assert_eq!(read(&reparsed, 0).seq, seq.as_bytes());
        assert_eq!(read(&reparsed, 1).name, b"contig_2");
    }

    #[test]
    fn fasta_keeps_empty_records_and_trims_line_ends() {
        let input = ">a desc\r\nAC \r\n\r\ngt\n>b\n>c\nNN\t";
        let rs = ReadSet::new().parse_fasta(Cursor::new(input)).unwrap();
        let reads: Vec<(&[u8], &[u8])> = rs.records.iter().map(|r| (r.name, r.seq)).collect();
        assert_eq!(
            reads,
            vec![
                (&b"a"[..], &b"ACgt"[..]),
                (&b"b"[..], &b""[..]),
                (&b"c"[..], &b"NN"[..])
            ]
        );
        assert_eq!(rs.total_bases(), 6);
    }

    #[test]
    fn fasta_rejects_headerless_data() {
        assert!(ReadSet::new().parse_fasta(Cursor::new("ACGT\n")).is_err());
    }

    #[test]
    fn acgt_segments_split_on_n() {
        let rs: ReadSet = [("r", "ACGNNTTGCaNxGG"), ("r", "ACGT"), ("r", "NNNN")]
            .into_iter()
            .collect();
        let segs: Vec<&str> = read(&rs, 0)
            .acgt_segments()
            .iter()
            .map(|s| std::str::from_utf8(s).unwrap())
            .collect();
        assert_eq!(segs, vec!["ACG", "TTGCa", "GG"]);
        assert_eq!(read(&rs, 1).acgt_segments().len(), 1);
        assert!(read(&rs, 2).acgt_segments().is_empty());
    }

    #[test]
    fn read_set_statistics() {
        let rs: ReadSet = [("a", "ACGT"), ("b", "ACGTACGT")].into_iter().collect();
        assert_eq!(rs.total_bases(), 12);
        assert!((rs.mean_read_length() - 6.0).abs() < 1e-12);
        assert_eq!(ReadSet::new().mean_read_length(), 0.0);
        assert!(!read(&rs, 0).is_empty());
        assert_eq!(read(&rs, 1).len(), 8);
    }

    #[test]
    fn columns_ranges_and_empty_reads() {
        let rs: ReadSet = [("a", "ACGT"), ("b", "ACGTACGT"), ("c", "")]
            .into_iter()
            .collect();
        assert!(read(&rs, 2).is_empty());
        assert!(rs.records.get(3).is_none());
        assert_eq!(rs.records.base_ends(), &[4, 12, 12]);
        assert_eq!(rs.records.name_ends(), &[1, 2, 3]);
        let ranges: Vec<Range<usize>> = rs.records.chunk_ranges(2).collect();
        assert_eq!(ranges, vec![0..2, 2..3]);
        let names: Vec<&[u8]> = rs.records.range(1..9).map(|r| r.name).collect();
        assert_eq!(names, vec![&b"b"[..], &b"c"[..]]);
        assert_eq!(rs.records.range(1..3).len(), 2);
    }
}
