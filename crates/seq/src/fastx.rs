//! Minimal FASTA/FASTQ reading and writing.
//!
//! The datasets of the paper (Table I) are FASTQ read sets; the assemblers
//! output contigs as FASTA. Reads may contain `N` characters, which the DBG
//! construction treats as break points (Section IV-B ①), so read sequences
//! are stored as raw ASCII bytes rather than [`DnaString`](crate::DnaString)s.

use crate::SeqError;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, Write};

/// One sequencing read (or reference record).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FastxRecord {
    /// Record name (without the leading `>` / `@`).
    pub id: String,
    /// Sequence bytes (`A`, `C`, `G`, `T`, `N`, case preserved).
    pub seq: Vec<u8>,
    /// Per-base quality bytes for FASTQ records; empty for FASTA records.
    pub qual: Vec<u8>,
}

impl FastxRecord {
    /// Creates a FASTA-style record without qualities.
    pub fn new_fasta(id: impl Into<String>, seq: impl Into<Vec<u8>>) -> FastxRecord {
        FastxRecord {
            id: id.into(),
            seq: seq.into(),
            qual: Vec::new(),
        }
    }

    /// Creates a FASTQ-style record with qualities.
    pub fn new_fastq(
        id: impl Into<String>,
        seq: impl Into<Vec<u8>>,
        qual: impl Into<Vec<u8>>,
    ) -> FastxRecord {
        FastxRecord {
            id: id.into(),
            seq: seq.into(),
            qual: qual.into(),
        }
    }

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
    pub fn acgt_segments(&self) -> Vec<&[u8]> {
        let mut segments = Vec::new();
        let mut start = None;
        for (i, &c) in self.seq.iter().enumerate() {
            if crate::Base::from_ascii_checked(c).is_some() {
                if start.is_none() {
                    start = Some(i);
                }
            } else if let Some(s) = start.take() {
                segments.push(&self.seq[s..i]);
            }
        }
        if let Some(s) = start {
            segments.push(&self.seq[s..]);
        }
        segments
    }
}

/// An in-memory collection of reads, the unit of input for the assemblers.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReadSet {
    /// The reads.
    pub records: Vec<FastxRecord>,
}

impl ReadSet {
    /// Creates an empty read set.
    pub fn new() -> ReadSet {
        ReadSet::default()
    }

    /// Wraps a vector of records.
    pub fn from_records(records: Vec<FastxRecord>) -> ReadSet {
        ReadSet { records }
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
        self.records.iter().map(|r| r.len()).sum()
    }

    /// Mean read length in bases (0 if empty).
    pub fn mean_read_length(&self) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.total_bases() as f64 / self.records.len() as f64
        }
    }

    /// Parses FASTQ from a buffered reader.
    ///
    /// Malformed input — a truncated record, a `+` separator or quality line
    /// that does not match, or a sequence character outside `ACGTN`
    /// (case-insensitive) — is reported as [`SeqError::Parse`] with the
    /// 1-based line number at which the problem was detected, never a panic.
    pub fn read_fastq<R: BufRead>(reader: R) -> Result<ReadSet, SeqError> {
        let mut records = Vec::new();
        let mut lines = reader.lines();
        let mut line_no: usize = 0;
        let next_line = |lines: &mut std::io::Lines<R>,
                         line_no: &mut usize,
                         what: &str|
         -> Result<String, SeqError> {
            match lines.next() {
                Some(line) => {
                    *line_no += 1;
                    Ok(line?)
                }
                None => Err(SeqError::Parse {
                    line: *line_no,
                    msg: format!("truncated record: missing {what}"),
                }),
            }
        };
        while let Some(line) = lines.next() {
            line_no += 1;
            let header = line?;
            if header.trim().is_empty() {
                continue;
            }
            if !header.starts_with('@') {
                return Err(SeqError::Parse {
                    line: line_no,
                    msg: format!("expected '@' header, got {header:?}"),
                });
            }
            let seq = next_line(&mut lines, &mut line_no, "sequence line")?;
            validate_sequence_line(seq.as_bytes(), line_no)?;
            let plus = next_line(&mut lines, &mut line_no, "'+' separator line")?;
            if !plus.starts_with('+') {
                return Err(SeqError::Parse {
                    line: line_no,
                    msg: format!("expected '+' separator, got {plus:?}"),
                });
            }
            let qual = next_line(&mut lines, &mut line_no, "quality line")?;
            if qual.len() != seq.len() {
                return Err(SeqError::Parse {
                    line: line_no,
                    msg: format!(
                        "quality length {} != sequence length {} for {header:?}",
                        qual.len(),
                        seq.len()
                    ),
                });
            }
            records.push(FastxRecord::new_fastq(
                header[1..]
                    .split_whitespace()
                    .next()
                    .unwrap_or("")
                    .to_string(),
                seq.into_bytes(),
                qual.into_bytes(),
            ));
        }
        Ok(ReadSet { records })
    }

    /// Parses FASTA from a buffered reader (multi-line sequences supported).
    ///
    /// Malformed input — sequence data before the first header, or a sequence
    /// character outside `ACGTN` (case-insensitive) — is reported as
    /// [`SeqError::Parse`] with the 1-based line number, never a panic.
    pub fn read_fasta<R: BufRead>(reader: R) -> Result<ReadSet, SeqError> {
        let mut records: Vec<FastxRecord> = Vec::new();
        for (i, line) in reader.lines().enumerate() {
            let line_no = i + 1;
            let line = line?;
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                continue;
            }
            if let Some(name) = trimmed.strip_prefix('>') {
                records.push(FastxRecord::new_fasta(
                    name.split_whitespace().next().unwrap_or("").to_string(),
                    Vec::new(),
                ));
            } else {
                let rec = records.last_mut().ok_or_else(|| SeqError::Parse {
                    line: line_no,
                    msg: "sequence data before first '>' header".into(),
                })?;
                validate_sequence_line(trimmed.as_bytes(), line_no)?;
                rec.seq.extend_from_slice(trimmed.as_bytes());
            }
        }
        Ok(ReadSet { records })
    }

    /// Writes the records as FASTQ. Records without qualities get `I` quality
    /// characters.
    pub fn write_fastq<W: Write>(&self, mut writer: W) -> Result<(), SeqError> {
        for r in &self.records {
            writer.write_all(b"@")?;
            writer.write_all(r.id.as_bytes())?;
            writer.write_all(b"\n")?;
            writer.write_all(&r.seq)?;
            writer.write_all(b"\n+\n")?;
            if r.qual.len() == r.seq.len() {
                writer.write_all(&r.qual)?;
            } else {
                writer.write_all(&vec![b'I'; r.seq.len()])?;
            }
            writer.write_all(b"\n")?;
        }
        Ok(())
    }

    /// Writes the records as FASTA with 70-column wrapping.
    pub fn write_fasta<W: Write>(&self, mut writer: W) -> Result<(), SeqError> {
        for r in &self.records {
            writer.write_all(b">")?;
            writer.write_all(r.id.as_bytes())?;
            writer.write_all(b"\n")?;
            for chunk in r.seq.chunks(70) {
                writer.write_all(chunk)?;
                writer.write_all(b"\n")?;
            }
        }
        Ok(())
    }
}

/// Rejects sequence characters outside `ACGTN` (case-insensitive). `N`s are
/// legal input — the DBG construction treats them as break points — but
/// anything else (e.g. a stray `-`, digit, or shifted-column garbage from a
/// corrupt file) is a parse error, reported with the offending character and
/// its 1-based line number.
fn validate_sequence_line(seq: &[u8], line_no: usize) -> Result<(), SeqError> {
    for &c in seq {
        let ok = crate::Base::from_ascii_checked(c).is_some() || c == b'N' || c == b'n';
        if !ok {
            return Err(SeqError::Parse {
                line: line_no,
                msg: format!("invalid sequence character {:?}", c as char),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn fastq_roundtrip() {
        let input = "@read1 extra info\nACGTN\n+\nIIIII\n@read2\nTTTT\n+anything\nJJJJ\n";
        let rs = ReadSet::read_fastq(Cursor::new(input)).unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.records[0].id, "read1");
        assert_eq!(rs.records[0].seq, b"ACGTN");
        assert_eq!(rs.records[0].qual, b"IIIII");
        assert_eq!(rs.records[1].id, "read2");
        let mut out = Vec::new();
        rs.write_fastq(&mut out).unwrap();
        let reparsed = ReadSet::read_fastq(Cursor::new(out)).unwrap();
        assert_eq!(reparsed, rs);
    }

    #[test]
    fn fastq_malformed_inputs() {
        assert!(ReadSet::read_fastq(Cursor::new("ACGT\n")).is_err());
        assert!(ReadSet::read_fastq(Cursor::new("@r\nACGT\n")).is_err());
        assert!(ReadSet::read_fastq(Cursor::new("@r\nACGT\nX\nIIII\n")).is_err());
        assert!(ReadSet::read_fastq(Cursor::new("@r\nACGT\n+\nII\n")).is_err());
        assert!(ReadSet::read_fastq(Cursor::new("")).unwrap().is_empty());
    }

    #[test]
    fn fastq_errors_carry_line_context() {
        // Truncated record: the header on line 5 has no sequence line.
        let e = ReadSet::read_fastq(Cursor::new("@r1\nACGT\n+\nIIII\n@r2\n")).unwrap_err();
        assert!(
            matches!(e, SeqError::Parse { line: 5, ref msg } if msg.contains("sequence line")),
            "{e}"
        );
        // Quality line on line 4 shorter than the sequence.
        let e = ReadSet::read_fastq(Cursor::new("@r\nACGT\n+\nII\n")).unwrap_err();
        assert!(matches!(e, SeqError::Parse { line: 4, .. }), "{e}");
        // Non-ACGTN character on the sequence line (line 2).
        let e = ReadSet::read_fastq(Cursor::new("@r\nAC-T\n+\nIIII\n")).unwrap_err();
        assert!(
            matches!(e, SeqError::Parse { line: 2, ref msg } if msg.contains('-')),
            "{e}"
        );
        // Missing '+' separator on line 3.
        let e = ReadSet::read_fastq(Cursor::new("@r\nACGT\nIIII\n")).unwrap_err();
        assert!(matches!(e, SeqError::Parse { line: 3, .. }), "{e}");
    }

    #[test]
    fn fastq_accepts_n_and_lowercase() {
        let rs = ReadSet::read_fastq(Cursor::new("@r\nacgtN\n+\nIIIII\n")).unwrap();
        assert_eq!(rs.records[0].seq, b"acgtN");
    }

    #[test]
    fn fasta_errors_carry_line_context() {
        let e = ReadSet::read_fasta(Cursor::new("ACGT\n")).unwrap_err();
        assert!(matches!(e, SeqError::Parse { line: 1, .. }), "{e}");
        // Second sequence line of the record (line 3) has a bad character.
        let e = ReadSet::read_fasta(Cursor::new(">c\nACGT\nAC!T\n")).unwrap_err();
        assert!(
            matches!(e, SeqError::Parse { line: 3, ref msg } if msg.contains('!')),
            "{e}"
        );
    }

    #[test]
    fn fasta_roundtrip_with_wrapping() {
        let seq = "ACGT".repeat(40); // 160 bases, wraps over 3 lines
        let rs = ReadSet::from_records(vec![
            FastxRecord::new_fasta("contig_1", seq.clone().into_bytes()),
            FastxRecord::new_fasta("contig_2", b"TTTT".to_vec()),
        ]);
        let mut out = Vec::new();
        rs.write_fasta(&mut out).unwrap();
        let reparsed = ReadSet::read_fasta(Cursor::new(out)).unwrap();
        assert_eq!(reparsed.records[0].seq, seq.into_bytes());
        assert_eq!(reparsed.records[1].id, "contig_2");
    }

    #[test]
    fn fasta_rejects_headerless_data() {
        assert!(ReadSet::read_fasta(Cursor::new("ACGT\n")).is_err());
    }

    #[test]
    fn acgt_segments_split_on_n() {
        let r = FastxRecord::new_fasta("r", b"ACGNNTTGCaNxGG".to_vec());
        let segs = r.acgt_segments();
        let segs: Vec<&str> = segs
            .iter()
            .map(|s| std::str::from_utf8(s).unwrap())
            .collect();
        assert_eq!(segs, vec!["ACG", "TTGCa", "GG"]);
        let clean = FastxRecord::new_fasta("r", b"ACGT".to_vec());
        assert_eq!(clean.acgt_segments().len(), 1);
        let all_n = FastxRecord::new_fasta("r", b"NNNN".to_vec());
        assert!(all_n.acgt_segments().is_empty());
    }

    #[test]
    fn read_set_statistics() {
        let rs = ReadSet::from_records(vec![
            FastxRecord::new_fasta("a", b"ACGT".to_vec()),
            FastxRecord::new_fasta("b", b"ACGTACGT".to_vec()),
        ]);
        assert_eq!(rs.total_bases(), 12);
        assert!((rs.mean_read_length() - 6.0).abs() < 1e-12);
        assert_eq!(ReadSet::new().mean_read_length(), 0.0);
        assert!(!rs.records[0].is_empty());
        assert_eq!(rs.records[1].len(), 8);
    }
}
