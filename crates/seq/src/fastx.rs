//! FASTA/FASTQ reading and writing into one columnar read slab.
//!
//! The datasets of the paper (Table I) are FASTQ read sets; the assemblers
//! output contigs as FASTA. Reads may contain `N` characters, which the DBG
//! construction treats as break points (Section IV-B ①).
//!
//! # Layout
//!
//! A [`ReadSet`] holds its reads in a [`ReadSlab`] of five columns, not one
//! heap object per read. The bases are stored as Figure 8 stores k-mers:
//!
//! * `words` — every read's bases back to back as 2-bit codes (`A=00`,
//!   `C=01`, `G=10`, `T=11`), 32 to a `u64`, base `i` of the slab at bits
//!   `2(i mod 32)..` of word `i / 32`. An `N` is stored as code 0, and the
//!   unused bits of the last word are zero, so two slabs holding the same
//!   normalised reads are equal;
//! * `breaks` — the slab positions of the `N`s, ascending;
//! * `base_ends` — one `u64` per read: where its bases end (the read starts
//!   where the previous one ends);
//! * `names` and `name_ends` — the record names (the header's first word),
//!   back to back, and where each ends.
//!
//! Case is folded and every `N` reads back as `N`: a [`Read`] yields its
//! bases as [`codes`](Read::codes) (a [`BREAK`] at an `N`) or as uppercase
//! ASCII ([`decode_into`](Read::decode_into)), not as the bytes it was read
//! from. Iterating `&reads.records` yields borrowed [`Read`] views.
//!
//! Parsing validates and packs each sequence line in one pass through one
//! byte table, reading through reused line buffers: no per-read allocation
//! and no UTF-8 validation. Writing decodes four bases per table lookup into
//! one reused record buffer. FASTQ quality lines are checked (present, and
//! as long as the sequence) and then dropped — nothing in the workspace
//! reads qualities, and [`ReadSet::write_fastq`] writes `I` filler. Every
//! decoding path here is panic-free: malformed input is a
//! [`SeqError::Parse`] with the 1-based line number.

use crate::{Base, SeqError};
use std::fmt;
use std::io::{BufRead, Write};
use std::ops::Range;

/// What [`Read::codes`] yields at an `N`; codes 0–3 are
/// [`Base`] codes.
pub const BREAK: u8 = 4;

/// What a byte that is neither a base nor `N` packs to: a break, which a
/// parser reports as an error.
const INVALID: u8 = 5;

/// The code of every byte: 0–3 for `ACGT` (either case), [`BREAK`] for
/// `N`/`n` and [`INVALID`] for anything else.
const BYTE_CODE: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut c = 0;
    while c < 256 {
        // Evaluated at compile time: an out-of-range index cannot reach a
        // running decoder. ppa_lint: allow(panic-free-codecs)
        table[c] = match Base::from_ascii_checked(c as u8) {
            Some(base) => base as u8,
            None if c == b'N' as usize || c == b'n' as usize => BREAK,
            None => INVALID,
        };
        c += 1;
    }
    table
};

/// The four bases packed in a byte, lowest bits first, as uppercase ASCII
/// bytes in little-endian order.
const ASCII4: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut j = 0;
        while j < 4 {
            // Evaluated at compile time. ppa_lint: allow(panic-free-codecs)
            table[byte] |= (b"ACGT"[(byte >> (2 * j)) & 3] as u32) << (8 * j);
            j += 1;
        }
        byte += 1;
    }
    table
};

/// The eight bases in the low 16 bits of `codes`, lowest first, as
/// uppercase ASCII.
#[inline]
fn ascii8(codes: u64) -> [u8; 8] {
    let quad = |byte: u64| u64::from(ASCII4.get((byte & 0xFF) as usize).copied().unwrap_or(0));
    (quad(codes) | quad(codes >> 8) << 32).to_le_bytes()
}

/// One read of a [`ReadSlab`], borrowed from its columns.
#[derive(Clone, Copy)]
// ppa_lint: allow(test-only-pub) the read `ReadSlab::get` and the slab's iterators return
pub struct Read<'a> {
    /// Record name: the header's first word, without the leading `>` / `@`.
    pub name: &'a [u8],
    /// The slab's whole bases column.
    words: &'a [u64],
    /// The slab positions of this read's `N`s.
    breaks: &'a [u64],
    /// Where the read's bases start and end in the slab.
    start: u64,
    end: u64,
}

impl<'a> Read<'a> {
    /// Length of the sequence in bases.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The slab position of the read's first base: where its bases start in
    /// [`ReadSlab::words`].
    pub fn start(&self) -> u64 {
        self.start
    }

    /// The bases as 2-bit [`Base`] codes, left to right, with [`BREAK`] at
    /// every `N`. Reads the packed words directly: one word load per 32
    /// bases.
    #[inline]
    pub fn codes(&self) -> Codes<'a> {
        Codes::new(self.words, self.start, self.end, self.breaks)
    }

    /// Appends the sequence to `out` as uppercase ASCII, with `N` at every
    /// break: eight bases per two table lookups, read from the
    /// words as one bit stream.
    pub fn decode_into(&self, out: &mut Vec<u8>) {
        let from = out.len();
        out.resize(from + self.len(), b'N');
        let dst = out.get_mut(from..).unwrap_or_default();
        // The 16 bits of the eight bases from slab position `at` on.
        let codes16 = |at: u64| {
            let (i, offset) = ((at / 32) as usize, 2 * (at % 32));
            let word = |i: usize| self.words.get(i).copied().unwrap_or(0);
            let low = word(i) >> offset;
            if offset > 48 {
                low | word(i + 1) << (64 - offset)
            } else {
                low
            }
        };
        let mut at = self.start;
        let mut eights = dst.chunks_exact_mut(8);
        for eight in &mut eights {
            eight.copy_from_slice(&ascii8(codes16(at)));
            at += 8;
        }
        let tail = eights.into_remainder();
        let ascii = ascii8(codes16(at));
        tail.copy_from_slice(ascii.get(..tail.len()).unwrap_or_default());
        for &b in self.breaks {
            if let Some(c) = out.get_mut(from + (b - self.start) as usize) {
                *c = b'N';
            }
        }
    }

    /// Splits the sequence at its `N`s into maximal ACGT-only segments, as
    /// required before k-mer extraction. Allocates the segment list; a hot
    /// loop should read [`codes`](Read::codes) and restart at every
    /// [`BREAK`], as
    /// [`SuperKmerScanner::scan_codes`](crate::kmer::SuperKmerScanner::scan_codes)
    /// does.
    pub fn acgt_segments(&self) -> Vec<Segment<'a>> {
        let mut segments = Vec::new();
        let mut from = self.start;
        for &b in self.breaks.iter().chain(Some(&self.end)) {
            if b > from {
                segments.push(Segment {
                    words: self.words,
                    start: from,
                    end: b,
                });
            }
            from = b + 1;
        }
        segments
    }
}

impl PartialEq for Read<'_> {
    /// Reads are equal when their names and normalised sequences are.
    fn eq(&self, other: &Read<'_>) -> bool {
        self.name == other.name && self.len() == other.len() && self.codes().eq(other.codes())
    }
}

impl Eq for Read<'_> {}

impl fmt::Debug for Read<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut seq = Vec::new();
        self.decode_into(&mut seq);
        f.debug_struct("Read")
            .field("name", &String::from_utf8_lossy(self.name))
            .field("seq", &String::from_utf8_lossy(&seq))
            .finish()
    }
}

/// The codes of a read (see [`Read::codes`]).
#[derive(Debug, Clone)]
// ppa_lint: allow(test-only-pub) the return type of the public `Read::codes`
pub struct Codes<'a> {
    words: &'a [u64],
    /// The next base's slab position, and where the read ends.
    at: u64,
    end: u64,
    /// The word holding base `at`, shifted so that base is in its low bits.
    word: u64,
    /// The next break's position (`u64::MAX` for none) and the ones after.
    next_break: u64,
    breaks: &'a [u64],
}

impl<'a> Codes<'a> {
    fn new(words: &'a [u64], start: u64, end: u64, breaks: &'a [u64]) -> Codes<'a> {
        let word = words.get((start / 32) as usize).copied().unwrap_or(0) >> (2 * (start % 32));
        let (next_break, breaks) = next_break(breaks);
        Codes {
            words,
            at: start,
            end,
            word,
            next_break,
            breaks,
        }
    }
}

/// The first of `breaks` (`u64::MAX` for none) and the ones after it.
#[inline]
fn next_break(breaks: &[u64]) -> (u64, &[u64]) {
    match breaks.split_first() {
        Some((&next, rest)) => (next, rest),
        None => (u64::MAX, breaks),
    }
}

impl Iterator for Codes<'_> {
    type Item = u8;

    #[inline]
    fn next(&mut self) -> Option<u8> {
        if self.at >= self.end {
            return None;
        }
        if self.at.is_multiple_of(32) {
            self.word = self
                .words
                .get((self.at / 32) as usize)
                .copied()
                .unwrap_or(0);
        }
        let mut code = (self.word & 3) as u8;
        self.word >>= 2;
        if self.at == self.next_break {
            code = BREAK;
            (self.next_break, self.breaks) = next_break(self.breaks);
        }
        self.at += 1;
        Some(code)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.end - self.at) as usize;
        (left, Some(left))
    }

    /// The whole-read path (`for_each` folds too): between breaks, the
    /// codes of each word in a tight loop, with no per-base check for a
    /// word boundary or a break.
    #[inline]
    fn fold<B, F: FnMut(B, u8) -> B>(mut self, init: B, mut f: F) -> B {
        let mut acc = init;
        loop {
            let run_end = self.next_break.min(self.end);
            while self.at < run_end {
                let offset = self.at % 32;
                let n = (32 - offset).min(run_end - self.at);
                let mut word = self
                    .words
                    .get((self.at / 32) as usize)
                    .copied()
                    .unwrap_or(0)
                    >> (2 * offset);
                for _ in 0..n {
                    acc = f(acc, (word & 3) as u8);
                    word >>= 2;
                }
                self.at += n;
            }
            if self.at >= self.end {
                return acc;
            }
            acc = f(acc, BREAK);
            self.at += 1;
            (self.next_break, self.breaks) = next_break(self.breaks);
        }
    }
}

impl ExactSizeIterator for Codes<'_> {}

/// An ACGT-only run of a read (see [`Read::acgt_segments`]). Iterating it
/// yields each base's uppercase ASCII byte.
#[derive(Debug, Clone, Copy)]
// ppa_lint: allow(test-only-pub) the item type of the public `Read::acgt_segments`
pub struct Segment<'a> {
    words: &'a [u64],
    start: u64,
    end: u64,
}

impl<'a> IntoIterator for Segment<'a> {
    type Item = &'static u8;
    type IntoIter = std::iter::Map<Codes<'a>, fn(u8) -> &'static u8>;

    fn into_iter(self) -> Self::IntoIter {
        let ascii: fn(u8) -> &'static u8 = |code| b"ACGT".get(usize::from(code)).unwrap_or(&b'N');
        Codes::new(self.words, self.start, self.end, &[]).map(ascii)
    }
}

/// The columns of a read set (see the [module docs](self) for the layout).
#[derive(Clone, Default, PartialEq, Eq)]
// ppa_lint: allow(test-only-pub) the type of the public `ReadSet::records`
pub struct ReadSlab {
    words: Vec<u64>,
    breaks: Vec<u64>,
    /// Bases packed into `words`, the open read's included.
    packed: u64,
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
        let breaks = self.breaks.get(self.breaks_from(i)..)?;
        Some(self.read_with(i, breaks)?.0)
    }

    /// Where the breaks of read `i` (or of the reads after it) start in
    /// the break column.
    fn breaks_from(&self, i: usize) -> usize {
        let start = match i.checked_sub(1) {
            Some(prev) => self.base_ends.get(prev).copied().unwrap_or(u64::MAX),
            None => 0,
        };
        self.breaks.partition_point(|&b| b < start)
    }

    /// Read `i`, given the breaks from its first on: it takes those below
    /// its end, and the rest are returned for the reads after it.
    fn read_with<'a>(&'a self, i: usize, breaks: &'a [u64]) -> Option<(Read<'a>, &'a [u64])> {
        let start = match i.checked_sub(1) {
            Some(prev) => *self.base_ends.get(prev)?,
            None => 0,
        };
        let end = *self.base_ends.get(i)?;
        let own = breaks.iter().take_while(|&&b| b < end).count();
        let (breaks, rest) = breaks.split_at(own);
        let read = Read {
            name: span(&self.names, &self.name_ends, i)?,
            words: &self.words,
            breaks,
            start,
            end,
        };
        Some((read, rest))
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
            breaks: self
                .breaks
                .get(self.breaks_from(range.start)..)
                .unwrap_or_default(),
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

    /// Every read's bases, back to back, as 2-bit codes 32 to a word.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The positions of the `N`s in [`words`](ReadSlab::words), ascending.
    pub fn breaks(&self) -> &[u64] {
        &self.breaks
    }

    /// Where each read's bases end in [`words`](ReadSlab::words), in bases.
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

    /// The heap bytes the columns hold: their capacities, exactly what
    /// dropping the slab frees.
    pub fn heap_bytes(&self) -> usize {
        (self.words.capacity()
            + self.breaks.capacity()
            + self.base_ends.capacity()
            + self.name_ends.capacity())
            * 8
            + self.names.capacity()
    }

    /// Packs `seq` onto the end of the bases column in one pass: `ACGT` in
    /// either case as their codes, anything else as a break. Returns the
    /// first byte that is neither a base nor `N`/`n`, which a parser
    /// reports.
    #[inline]
    fn pack(&mut self, seq: &[u8]) -> Option<u8> {
        let mut invalid = None;
        let mut at = self.packed;
        self.words.reserve(seq.len().div_ceil(32) + 1);
        // The last word is partly filled unless the column ends on a word
        // boundary: its free bases are filled first, then whole words.
        let offset = (at % 32) as usize;
        let free = if offset == 0 { 0 } else { 32 - offset };
        let (head, rest) = seq.split_at(free.min(seq.len()));
        if !head.is_empty() {
            let word = self.pack_word(head, at, &mut invalid) << (2 * offset);
            if let Some(last) = self.words.last_mut() {
                *last |= word;
            }
            at += head.len() as u64;
        }
        for chunk in rest.chunks(32) {
            let word = self.pack_word(chunk, at, &mut invalid);
            self.words.push(word);
            at += chunk.len() as u64;
        }
        self.packed = at;
        invalid
    }

    /// The codes of up to 32 bases, from bit 0 up, the first at slab
    /// position `at`: breaks are recorded, and the first invalid byte is
    /// kept in `invalid`. The bytes are checked through [`BYTE_CODE`] and
    /// packed eight at a time: `((c >> 1) ^ (c >> 2)) & 3` is the code of
    /// `ACGT` in either case (and 0 for `N`), so a word of bytes packs with
    /// shifts and masks, no lookup per base.
    #[inline]
    fn pack_word(&mut self, chunk: &[u8], at: u64, invalid: &mut Option<u8>) -> u64 {
        let seen = chunk.iter().fold(0u8, |seen, &c| {
            seen | BYTE_CODE.get(usize::from(c)).copied().unwrap_or(INVALID)
        });
        let codes16 = |v: u64| {
            let mut x = ((v >> 1) ^ (v >> 2)) & 0x0303_0303_0303_0303;
            x = (x | (x >> 6)) & 0x000F_000F_000F_000F;
            x = (x | (x >> 12)) & 0x0000_00FF_0000_00FF;
            (x | (x >> 24)) & 0xFFFF
        };
        let mut word = 0u64;
        let mut eights = chunk.chunks_exact(8);
        let mut shift = 0;
        for eight in &mut eights {
            let v = u64::from_le_bytes(eight.try_into().unwrap_or_default());
            word |= codes16(v) << shift;
            shift += 16;
        }
        let tail = eights.remainder();
        if !tail.is_empty() {
            // Padding bytes are 0, whose code is 0.
            let mut bytes = [0u8; 8];
            if let Some(prefix) = bytes.get_mut(..tail.len()) {
                prefix.copy_from_slice(tail);
            }
            word |= codes16(u64::from_le_bytes(bytes)) << shift;
        }
        if seen > 3 {
            for (i, &c) in chunk.iter().enumerate() {
                let code = BYTE_CODE.get(usize::from(c)).copied().unwrap_or(INVALID);
                if code > 3 {
                    word &= !(3 << (2 * i));
                    self.breaks.push(at + i as u64);
                    if code == INVALID && invalid.is_none() {
                        *invalid = Some(c);
                    }
                }
            }
        }
        word
    }

    /// Closes the read whose bases were packed since the last read ended,
    /// naming it `name`.
    fn end_read(&mut self, name: &[u8]) {
        self.open_read(name);
        self.close_read();
    }

    /// Appends a read's name; its bases follow until [`close_read`].
    fn open_read(&mut self, name: &[u8]) {
        self.names.extend_from_slice(name);
        self.name_ends.push(self.names.len() as u64);
    }

    /// Ends the open read where the packed bases end.
    fn close_read(&mut self) {
        self.base_ends.push(self.packed);
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
    /// The breaks from the next read's on: a cursor, not a search per read.
    breaks: &'a [u64],
}

impl<'a> Iterator for Reads<'a> {
    type Item = Read<'a>;

    fn next(&mut self) -> Option<Read<'a>> {
        if self.next >= self.end {
            return None;
        }
        let (read, rest) = self.slab.read_with(self.next, self.breaks)?;
        self.next += 1;
        self.breaks = rest;
        Some(read)
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

    /// Creates an empty read set whose bases column holds `bases` bases
    /// before it reallocates.
    pub fn with_base_capacity(bases: usize) -> ReadSet {
        let mut reads = ReadSet::new();
        reads.records.words.reserve_exact(bases.div_ceil(32));
        reads
    }

    /// Appends one read. `ACGT` in either case are kept as bases, and any
    /// other byte becomes an `N`.
    pub fn push(&mut self, name: &[u8], seq: &[u8]) {
        self.records.pack(seq);
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
        self.records.packed as usize
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
            line.clear();
            if !read_line(&mut reader, &mut line, &mut line_no)? {
                return Err(truncated(line_no, "sequence line"));
            }
            if let Some(c) = self.records.pack(&line) {
                return Err(invalid_character(line_no, c));
            }
            let seq_len = line.len();
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
        let mut line = Vec::new();
        let mut line_no = 0;
        // Whether a record is open: its name is in `names`, its bases are
        // the tail of `words`, and its end is pushed at the next header.
        let mut open = false;
        loop {
            line.clear();
            if !read_line(&mut reader, &mut line, &mut line_no)? {
                break;
            }
            let trailing = line.iter().rev().take_while(|&&c| is_space(c)).count();
            let trimmed = line.get(..line.len() - trailing).unwrap_or_default();
            match trimmed.split_first() {
                None => {}
                Some((b'>', header)) => {
                    if open {
                        slab.close_read();
                    }
                    slab.open_read(first_word(header));
                    open = true;
                }
                Some(_) if !open => {
                    return Err(parse_error(
                        line_no,
                        "sequence data before first '>' header".into(),
                    ))
                }
                Some(_) => {
                    if let Some(c) = slab.pack(trimmed) {
                        return Err(invalid_character(line_no, c));
                    }
                }
            }
        }
        if open {
            slab.close_read();
        }
        Ok(self)
    }

    /// Writes the reads as FASTQ, with `I` for every quality character.
    /// Each record is decoded into one reused buffer: no allocation per
    /// read.
    pub fn write_fastq<W: Write>(&self, mut writer: W) -> Result<(), SeqError> {
        let mut record = Vec::new();
        for r in &self.records {
            record.clear();
            record.push(b'@');
            record.extend_from_slice(r.name);
            record.push(b'\n');
            r.decode_into(&mut record);
            record.extend_from_slice(b"\n+\n");
            record.resize(record.len() + r.len(), b'I');
            record.push(b'\n');
            writer.write_all(&record)?;
        }
        Ok(())
    }

    /// Writes the reads as FASTA with 70-column wrapping.
    pub fn write_fasta<W: Write>(&self, mut writer: W) -> Result<(), SeqError> {
        let mut seq = Vec::new();
        for r in &self.records {
            seq.clear();
            r.decode_into(&mut seq);
            writer.write_all(b">")?;
            writer.write_all(r.name)?;
            writer.write_all(b"\n")?;
            for chunk in seq.chunks(70) {
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

/// A sequence character outside `ACGTN` (case-insensitive) — a stray `-`,
/// digit, or shifted-column garbage from a corrupt file — reported with the
/// character and its 1-based line number. `N`s are legal input: the DBG
/// construction treats them as break points.
fn invalid_character(line: usize, c: u8) -> SeqError {
    parse_error(line, format!("invalid sequence character {:?}", c as char))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    fn read(rs: &ReadSet, i: usize) -> Read<'_> {
        rs.records.get(i).unwrap()
    }

    /// Read `i`'s sequence, decoded.
    fn seq(rs: &ReadSet, i: usize) -> Vec<u8> {
        let mut out = Vec::new();
        read(rs, i).decode_into(&mut out);
        out
    }

    #[test]
    fn fastq_roundtrip() {
        let input = "@read1 extra info\nACGTN\n+\nIIIII\n@read2\nTTTT\n+anything\nJJJJ\n";
        let rs = ReadSet::new().parse_fastq(Cursor::new(input)).unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(read(&rs, 0).name, b"read1");
        assert_eq!(seq(&rs, 0), b"ACGTN");
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
            .parse_fastq(Cursor::new("@r\nacgtNn\n+\nIIIIII\n"))
            .unwrap();
        assert_eq!(seq(&rs, 0), b"ACGTNN");
        let codes: Vec<u8> = read(&rs, 0).codes().collect();
        assert_eq!(codes, [0, 1, 2, 3, BREAK, BREAK]);
        assert_eq!(rs.records.breaks(), &[4, 5]);
    }

    #[test]
    fn fastq_accepts_crlf_and_blank_lines() {
        let crlf = "\r\n@a x\r\nACGT\r\n+\r\nIIII\r\n \r\n@b\r\nGG\r\n+\r\nII";
        let rs = ReadSet::new().parse_fastq(Cursor::new(crlf)).unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(
            (read(&rs, 0).name, &seq(&rs, 0)[..]),
            (&b"a"[..], &b"ACGT"[..])
        );
        assert_eq!(
            (read(&rs, 1).name, &seq(&rs, 1)[..]),
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
        let text = "ACGT".repeat(40); // 160 bases, wraps over 3 lines
        let rs: ReadSet = [("contig_1", text.as_str()), ("contig_2", "TTTT")]
            .into_iter()
            .collect();
        let mut out = Vec::new();
        rs.write_fasta(&mut out).unwrap();
        let reparsed = ReadSet::new().parse_fasta(Cursor::new(out)).unwrap();
        assert_eq!(reparsed, rs);
        assert_eq!(seq(&reparsed, 0), text.as_bytes());
        assert_eq!(read(&reparsed, 1).name, b"contig_2");
    }

    #[test]
    fn fasta_keeps_empty_records_and_trims_line_ends() {
        let input = ">a desc\r\nAC \r\n\r\ngt\n>b\n>c\nNN\t";
        let rs = ReadSet::new().parse_fasta(Cursor::new(input)).unwrap();
        let reads: Vec<(&[u8], Vec<u8>)> = (0..rs.len())
            .map(|i| (read(&rs, i).name, seq(&rs, i)))
            .collect();
        assert_eq!(
            reads,
            vec![
                (&b"a"[..], b"ACGT".to_vec()),
                (&b"b"[..], Vec::new()),
                (&b"c"[..], b"NN".to_vec())
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
        let segs: Vec<Vec<u8>> = read(&rs, 0)
            .acgt_segments()
            .into_iter()
            .map(|s| s.into_iter().copied().collect())
            .collect();
        assert_eq!(
            segs,
            vec![b"ACG".to_vec(), b"TTGCA".to_vec(), b"GG".to_vec()]
        );
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

    /// What the slab keeps of `bytes`: `ACGT` upper-cased, anything else `N`.
    fn normalised(bytes: &[u8]) -> Vec<u8> {
        bytes
            .iter()
            .map(|&c| match c.to_ascii_uppercase() {
                c @ (b'A' | b'C' | b'G' | b'T') => c,
                _ => b'N',
            })
            .collect()
    }

    /// Every read of `reads` pushed into one slab decodes, codes and splits
    /// back to its normalised bytes; the columns hold exactly the packed
    /// bases; and a FASTQ round trip gives the same slab.
    fn check_pack_and_decode(reads: &[Vec<u8>]) {
        let rs: ReadSet = reads
            .iter()
            .enumerate()
            .map(|(i, seq)| (format!("r{i}"), seq))
            .collect();
        let total: usize = reads.iter().map(Vec::len).sum();
        assert_eq!(rs.total_bases(), total);
        assert_eq!(rs.records.words().len(), total.div_ceil(32));
        if !total.is_multiple_of(32) {
            let last = rs.records.words().last().unwrap();
            assert_eq!(last >> (2 * (total % 32)), 0, "unused bits are zero");
        }
        let mut out = Vec::new();
        for (i, bytes) in reads.iter().enumerate() {
            let want = normalised(bytes);
            let r = read(&rs, i);
            assert_eq!(r.len(), bytes.len());
            out.clear();
            out.extend_from_slice(b"prefix");
            r.decode_into(&mut out);
            assert_eq!(&out[6..], &want[..], "read {i}");
            let codes: Vec<u8> = r.codes().collect();
            let want_codes: Vec<u8> = want
                .iter()
                .map(|&c| Base::from_ascii_checked(c).map_or(BREAK, |b| b.code()))
                .collect();
            assert_eq!(codes, want_codes, "read {i}");
            let segments: Vec<Vec<u8>> = r
                .acgt_segments()
                .into_iter()
                .map(|s| s.into_iter().copied().collect())
                .collect();
            let want_segments: Vec<Vec<u8>> = want
                .split(|&c| c == b'N')
                .filter(|s| !s.is_empty())
                .map(<[u8]>::to_vec)
                .collect();
            assert_eq!(segments, want_segments, "read {i}");
        }
        let mut fastq = Vec::new();
        rs.write_fastq(&mut fastq).unwrap();
        let reparsed = ReadSet::new().parse_fastq(Cursor::new(&fastq)).unwrap();
        assert_eq!(reparsed, rs);
        let mut fasta = Vec::new();
        rs.write_fasta(&mut fasta).unwrap();
        let reparsed = ReadSet::new().parse_fasta(Cursor::new(&fasta)).unwrap();
        assert_eq!(reparsed, rs);
    }

    #[test]
    fn packed_reads_decode_across_word_boundaries_and_breaks() {
        let acgt = |n: usize| -> Vec<u8> { (0..n).map(|i| b"ACGTTGCA"[i % 8]).collect() };
        // Reads that start and end off word boundaries, one ending exactly
        // on one, empty reads between them.
        check_pack_and_decode(&[acgt(31), acgt(1), Vec::new(), acgt(32), acgt(33), acgt(70)]);
        // Breaks in the last (bits 62–63) and first (bits 0–1) base of a
        // word, at a read's first and last base, and in runs.
        let mut a = acgt(40);
        a[31] = b'N';
        a[32] = b'n';
        a[0] = b'N';
        a[39] = b'N';
        let mut b = acgt(64);
        b[30] = b'x';
        b[31] = b'N';
        check_pack_and_decode(&[a, b, b"NNNN".to_vec(), b"acgtn".to_vec()]);
        // Any byte at all: what is not ACGT is an N.
        check_pack_and_decode(&[(0..=255u8).collect(), (0..=255u8).rev().collect()]);
    }

    #[test]
    fn parse_and_push_agree_and_write_decodes_four_bases_a_byte() {
        // A read whose every byte of packed codes is a distinct value, so
        // each decode table entry is read at least once.
        let all: Vec<u8> = (0..=255u8)
            .flat_map(|byte| (0..4).map(move |j| b"ACGT"[usize::from(byte >> (2 * j)) & 3]))
            .collect();
        let text = format!(
            "@all\n{}\n+\n{}\n",
            String::from_utf8_lossy(&all),
            "I".repeat(1024)
        );
        let parsed = ReadSet::new().parse_fastq(Cursor::new(&text)).unwrap();
        let pushed: ReadSet = [("all", &all)].into_iter().collect();
        assert_eq!(parsed, pushed);
        let mut out = Vec::new();
        parsed.write_fastq(&mut out).unwrap();
        assert_eq!(out, text.as_bytes());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_packed_reads_decode_to_their_normalised_bytes(
            reads in proptest::collection::vec(
                proptest::collection::vec(0u16..300, 0..90),
                0..10,
            ),
        ) {
            // Mostly the legal letters, some N, some arbitrary bytes.
            let reads: Vec<Vec<u8>> = reads
                .iter()
                .map(|codes| {
                    codes
                        .iter()
                        .map(|&c| match c {
                            0..=239 => b"ACGTacgtNn"[usize::from(c) % 10],
                            _ => (c - 240) as u8 * 4,
                        })
                        .collect()
                })
                .collect();
            check_pack_and_decode(&reads);
        }
    }
}
