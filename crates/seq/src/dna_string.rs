//! Arbitrary-length 2-bit packed DNA sequences.
//!
//! Contigs (Figure 9) and reference genomes can be far longer than 31 bases,
//! so they cannot live in a single `u64` like a [`Kmer`]. A
//! [`DnaString`] stores the sequence as a vector of 64-bit words, 32 bases per
//! word, using the same 2-bit code (`A=00`, `C=01`, `G=10`, `T=11`). This is
//! the "variable-length bitmap" that a contig vertex keeps as its sequence in
//! the paper.

use crate::base::Base;
use crate::kmer::{Kmer, MAX_K};
use crate::SeqError;
use std::cmp::Ordering;
use std::fmt;

const BASES_PER_WORD: usize = 32;

/// Reverses the 32 two-bit base slots of a word and complements each base
/// (complement is bitwise NOT under the 2-bit code) — the whole-word building
/// block of the word-parallel [`DnaString::reverse_complement`].
#[inline]
fn rc_word(w: u64) -> u64 {
    let mut x = !w;
    x = ((x & 0x3333_3333_3333_3333) << 2) | ((x >> 2) & 0x3333_3333_3333_3333);
    x = ((x & 0x0F0F_0F0F_0F0F_0F0F) << 4) | ((x >> 4) & 0x0F0F_0F0F_0F0F_0F0F);
    x.swap_bytes()
}

/// A 2-bit packed DNA sequence of arbitrary length.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct DnaString {
    words: Vec<u64>,
    len: usize,
}

impl DnaString {
    /// Creates an empty sequence.
    pub fn new() -> DnaString {
        DnaString::default()
    }

    /// Creates an empty sequence with capacity for `n` bases.
    pub fn with_capacity(n: usize) -> DnaString {
        DnaString {
            words: Vec::with_capacity(n.div_ceil(BASES_PER_WORD)),
            len: 0,
        }
    }

    /// Builds a sequence from a slice of bases.
    pub fn from_bases(bases: &[Base]) -> DnaString {
        Self::from_bases_iter(bases.iter().copied())
    }

    /// Builds a sequence from an iterator of bases.
    fn from_bases_iter<I: IntoIterator<Item = Base>>(iter: I) -> DnaString {
        let iter = iter.into_iter();
        let mut s = DnaString::with_capacity(iter.size_hint().0);
        for b in iter {
            s.push(b);
        }
        s
    }

    /// Parses an ASCII `ACGT` string (case-insensitive); rejects `N`.
    pub fn from_ascii(s: &str) -> Result<DnaString, SeqError> {
        let mut out = DnaString::with_capacity(s.len());
        for c in s.bytes() {
            out.push(Base::from_ascii(c)?);
        }
        Ok(out)
    }

    /// Number of bases.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sequence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a base.
    #[inline]
    pub fn push(&mut self, b: Base) {
        let (word, offset) = (self.len / BASES_PER_WORD, self.len % BASES_PER_WORD);
        if offset == 0 {
            self.words.push(0);
        }
        // Store bases left-to-right within a word, two bits each, from the
        // high end so that word-level comparison follows sequence order.
        let shift = 62 - 2 * offset;
        self.words[word] |= (b.code() as u64) << shift;
        self.len += 1;
    }

    /// The base at position `i` (0-based). Panics if out of range.
    #[inline]
    pub fn get(&self, i: usize) -> Base {
        assert!(i < self.len, "index {i} out of range (len {})", self.len);
        let (word, offset) = (i / BASES_PER_WORD, i % BASES_PER_WORD);
        let shift = 62 - 2 * offset;
        Base::from_code((self.words[word] >> shift) as u8)
    }

    /// Iterates over bases from left to right.
    pub fn iter(&self) -> impl Iterator<Item = Base> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Appends every base of `other`.
    ///
    /// Word-parallel: the incoming packed words are spliced onto the partial
    /// last word with two shifts each (32 bases per step) instead of a
    /// base-by-base push loop — contig concatenation is a hot path of the
    /// merging phase.
    pub fn extend_from(&mut self, other: &DnaString) {
        if other.len == 0 {
            return;
        }
        let m2 = (self.len % BASES_PER_WORD) * 2;
        if m2 == 0 {
            // Word-aligned append: a straight copy.
            self.words.extend_from_slice(&other.words);
        } else {
            for &w in &other.words {
                let last = self.words.last_mut().expect("partial last word");
                *last |= w >> m2;
                self.words.push(w << (64 - m2));
            }
        }
        self.len += other.len;
        // The splice pushes one word per incoming word, which can overshoot
        // the needed count by one; the dropped word only ever holds spill
        // from the incoming zero tail, so truncation keeps the trailing-
        // bits-zero invariant.
        self.words.truncate(self.len.div_ceil(BASES_PER_WORD));
        debug_assert!(self.tail_bits_zero());
    }

    /// Appends the `n` right-most bases of `packed`, a right-aligned 2-bit
    /// word in [`Kmer::packed`]'s layout (`n` ≤ 32; higher bits are ignored).
    ///
    /// Word-level: the bases are left-aligned with one shift and spliced onto
    /// the partial last word, at most two word writes and no per-base
    /// decode — how contig merging appends a k-mer member's tail.
    pub fn extend_from_packed(&mut self, packed: u64, n: usize) {
        assert!(n <= BASES_PER_WORD, "{n} bases do not fit one word");
        if n == 0 {
            return;
        }
        let word = packed << (64 - 2 * n);
        let m2 = (self.len % BASES_PER_WORD) * 2;
        if m2 == 0 {
            self.words.push(word);
        } else {
            *self.words.last_mut().expect("partial last word") |= word >> m2;
            if m2 + 2 * n > 64 {
                self.words.push(word << (64 - m2));
            }
        }
        self.len += n;
        debug_assert!(self.tail_bits_zero());
    }

    /// Whether every bit past the last base is zero (the structural-`Eq`
    /// invariant; debug checks only).
    fn tail_bits_zero(&self) -> bool {
        let tail = self.len % BASES_PER_WORD;
        tail == 0 || self.words[self.words.len() - 1] & (u64::MAX >> (2 * tail)) == 0
    }

    /// Appends bases from a slice.
    pub fn extend_from_bases(&mut self, bases: &[Base]) {
        for &b in bases {
            self.push(b);
        }
    }

    /// Returns the sub-sequence `[start, start+len)` as a new `DnaString`.
    // ppa_lint: allow(test-only-pub) sequence slicing, which the end-to-end tests cut reference segments with
    pub fn substring(&self, start: usize, len: usize) -> DnaString {
        assert!(start + len <= self.len, "substring out of range");
        DnaString::from_bases_iter((start..start + len).map(|i| self.get(i)))
    }

    /// The reverse complement of the whole sequence.
    ///
    /// Word-parallel: each word reverses and complements all 32 of its base
    /// slots at once (`rc_word`, the same SWAR network as
    /// [`Kmer::reverse_complement`]); the mapped words stream in reverse
    /// order and one whole-stream shift drops the pad that the partial last
    /// word contributes at the front.
    pub fn reverse_complement(&self) -> DnaString {
        let mut words: Vec<u64> = self.words.iter().rev().map(|&w| rc_word(w)).collect();
        // A partial last word's zero pad is complemented and reversed to the
        // front of the new stream; shift the whole stream left to drop it
        // (zeros fill from the right, preserving the tail invariant).
        let pad = (BASES_PER_WORD - self.len % BASES_PER_WORD) % BASES_PER_WORD * 2;
        if pad > 0 {
            let m = words.len();
            for i in 0..m - 1 {
                words[i] = (words[i] << pad) | (words[i + 1] >> (64 - pad));
            }
            words[m - 1] <<= pad;
        }
        let out = DnaString {
            words,
            len: self.len,
        };
        debug_assert!(out.tail_bits_zero());
        out
    }

    /// The lexicographically smaller of this sequence and its reverse
    /// complement (one word-parallel [`Ord`] comparison, no decoding).
    pub fn canonical(&self) -> DnaString {
        let rc = self.reverse_complement();
        if *self <= rc {
            self.clone()
        } else {
            rc
        }
    }

    /// Returns all bases as a vector.
    pub fn to_bases(&self) -> Vec<Base> {
        self.iter().collect()
    }

    /// Renders the sequence as an ASCII string.
    pub fn to_ascii(&self) -> String {
        self.iter().map(|b| b.to_char()).collect()
    }

    /// The k-mer starting at position `i`. Requires `k ≤ 31`.
    pub fn kmer_at(&self, i: usize, k: usize) -> Result<Kmer, SeqError> {
        if k == 0 || k > MAX_K {
            return Err(SeqError::InvalidK(k));
        }
        if i + k > self.len {
            return Err(SeqError::SequenceTooShort {
                required: i + k,
                actual: self.len,
            });
        }
        Kmer::from_bases(&(i..i + k).map(|j| self.get(j)).collect::<Vec<_>>())
    }

    /// Iterates over all k-mers of the sequence, left to right.
    pub fn kmers(&self, k: usize) -> impl Iterator<Item = Kmer> + '_ {
        let valid = (1..=MAX_K).contains(&k) && self.len >= k;
        let mut current = if valid { self.kmer_at(0, k).ok() } else { None };
        let mut next = k;
        std::iter::from_fn(move || {
            let out = current?;
            current = if next < self.len {
                let n = out.extend_right(self.get(next));
                next += 1;
                Some(n)
            } else {
                None
            };
            Some(out)
        })
    }

    /// Fraction of bases that are G or C, in `[0, 1]`. Returns 0 for an empty
    /// sequence.
    pub fn gc_fraction(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let gc = self.iter().filter(|b| b.is_gc()).count();
        gc as f64 / self.len as f64
    }

    /// Counts occurrences of each base, returned in `[A, C, G, T]` order.
    pub fn base_counts(&self) -> [usize; 4] {
        let mut counts = [0usize; 4];
        for b in self.iter() {
            counts[b.code() as usize] += 1;
        }
        counts
    }

    /// The packed 2-bit words backing the sequence, 32 bases per word from the
    /// high end. Exposed for serialization (checkpointing).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a sequence from packed words and a base count, validating the
    /// invariants [`DnaString::words`] guarantees: exactly
    /// `len.div_ceil(32)` words, and every bit past the last base zero (so
    /// that `Eq`/`Hash` remain structural). Malformed input — e.g. a
    /// truncated or corrupted checkpoint — is rejected with
    /// [`SeqError::MalformedRecord`], never a panic.
    pub fn from_raw_parts(words: Vec<u64>, len: usize) -> Result<DnaString, SeqError> {
        if words.len() != len.div_ceil(BASES_PER_WORD) {
            return Err(SeqError::MalformedRecord(format!(
                "DnaString of {len} bases needs {} words, got {}",
                len.div_ceil(BASES_PER_WORD),
                words.len()
            )));
        }
        let tail = len % BASES_PER_WORD;
        if tail != 0 {
            let mask = u64::MAX >> (2 * tail);
            if words[words.len() - 1] & mask != 0 {
                return Err(SeqError::MalformedRecord(
                    "DnaString trailing bits past the last base are not zero".into(),
                ));
            }
        }
        Ok(DnaString { words, len })
    }
}

impl Ord for DnaString {
    /// Lexicographic base order, compared **word-parallel**: bases pack from
    /// the high end of each word with every bit past the last base zero, so
    /// lexicographic comparison of the word vectors *is* lexicographic
    /// comparison of the sequences — 32 bases per compare. Two sequences
    /// with equal word vectors can still differ in length (the shorter one's
    /// missing bases read as the zero pad, i.e. `A`s), in which case the
    /// shorter — a strict prefix — sorts first.
    fn cmp(&self, other: &DnaString) -> Ordering {
        self.words.cmp(&other.words).then(self.len.cmp(&other.len))
    }
}

impl PartialOrd for DnaString {
    fn partial_cmp(&self, other: &DnaString) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for DnaString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for DnaString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len <= 64 {
            write!(f, "DnaString({}, len={})", self, self.len)
        } else {
            write!(
                f,
                "DnaString({}...{}, len={})",
                self.substring(0, 24),
                self.substring(self.len - 24, 24),
                self.len
            )
        }
    }
}

impl FromIterator<Base> for DnaString {
    fn from_iter<T: IntoIterator<Item = Base>>(iter: T) -> Self {
        DnaString::from_bases_iter(iter)
    }
}

impl From<Kmer> for DnaString {
    fn from(k: Kmer) -> Self {
        k.to_dna_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn push_get_roundtrip() {
        let mut s = DnaString::new();
        assert!(s.is_empty());
        for (i, c) in "ACGTTGCAACGT".chars().enumerate() {
            s.push(Base::from_ascii(c as u8).unwrap());
            assert_eq!(s.len(), i + 1);
        }
        assert_eq!(s.to_ascii(), "ACGTTGCAACGT");
        assert_eq!(s.get(0), Base::A);
        assert_eq!(s.get(11), Base::T);
    }

    #[test]
    fn crosses_word_boundary() {
        let src: String = "ACGT".repeat(20); // 80 bases, > 2 words
        let s = DnaString::from_ascii(&src).unwrap();
        assert_eq!(s.len(), 80);
        assert_eq!(s.to_ascii(), src);
        assert_eq!(s.get(33), Base::C);
        assert_eq!(s.get(64), Base::A);
    }

    #[test]
    fn from_ascii_rejects_n() {
        assert!(DnaString::from_ascii("ACGNT").is_err());
    }

    #[test]
    fn substring_and_extend() {
        let s = DnaString::from_ascii("ATTGCAAGTC").unwrap();
        assert_eq!(s.substring(2, 4).to_ascii(), "TGCA");
        let mut t = s.substring(0, 3);
        t.extend_from(&s.substring(3, 7));
        assert_eq!(t.to_ascii(), s.to_ascii());
        let mut u = DnaString::new();
        u.extend_from_bases(&s.to_bases());
        assert_eq!(u, s);
    }

    #[test]
    #[should_panic(expected = "substring out of range")]
    fn substring_out_of_range_panics() {
        let s = DnaString::from_ascii("ACGT").unwrap();
        let _ = s.substring(2, 10);
    }

    #[test]
    fn reverse_complement_matches_paper() {
        // Strand 1 "ATTGCAAGTC" → strand 2 read 5'→3' is "GACTTGCAAT".
        let s = DnaString::from_ascii("ATTGCAAGTC").unwrap();
        assert_eq!(s.reverse_complement().to_ascii(), "GACTTGCAAT");
    }

    #[test]
    fn canonical_of_string() {
        let s = DnaString::from_ascii("GT").unwrap();
        assert_eq!(s.canonical().to_ascii(), "AC");
        let t = DnaString::from_ascii("AC").unwrap();
        assert_eq!(t.canonical().to_ascii(), "AC");
    }

    #[test]
    fn kmers_iteration() {
        let s = DnaString::from_ascii("ATTGCAAGT").unwrap();
        let kmers: Vec<String> = s.kmers(3).map(|k| k.to_string()).collect();
        assert_eq!(kmers, vec!["ATT", "TTG", "TGC", "GCA", "CAA", "AAG", "AGT"]);
        assert_eq!(s.kmers(20).count(), 0);
        assert!(s.kmer_at(0, 0).is_err());
        assert!(s.kmer_at(8, 3).is_err());
        assert_eq!(s.kmer_at(6, 3).unwrap().to_string(), "AGT");
    }

    #[test]
    fn gc_fraction_and_counts() {
        let s = DnaString::from_ascii("GGCCAATT").unwrap();
        assert!((s.gc_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(s.base_counts(), [2, 2, 2, 2]);
        assert_eq!(DnaString::new().gc_fraction(), 0.0);
    }

    #[test]
    fn display_and_debug() {
        let s = DnaString::from_ascii("ACGT").unwrap();
        assert_eq!(format!("{s}"), "ACGT");
        assert!(format!("{s:?}").contains("len=4"));
        let long = DnaString::from_ascii(&"ACGT".repeat(50)).unwrap();
        assert!(format!("{long:?}").contains("len=200"));
    }

    #[test]
    fn raw_parts_roundtrip_and_validation() {
        for src in ["", "A", "ACGTTGCA", &"ACGT".repeat(20)] {
            let s = DnaString::from_ascii(src).unwrap();
            let rebuilt = DnaString::from_raw_parts(s.words().to_vec(), s.len()).unwrap();
            assert_eq!(rebuilt, s);
        }
        // Word-count mismatch.
        assert!(DnaString::from_raw_parts(vec![0], 0).is_err());
        assert!(DnaString::from_raw_parts(vec![], 1).is_err());
        // Non-zero bits past the last base would break structural Eq.
        assert!(DnaString::from_raw_parts(vec![1], 1).is_err());
        assert!(DnaString::from_raw_parts(vec![0b11 << 62], 1).is_ok());
    }

    #[test]
    fn from_kmer_conversion() {
        let k = Kmer::from_str_exact("TGCCG").unwrap();
        let s: DnaString = k.into();
        assert_eq!(s.to_ascii(), "TGCCG");
    }

    /// The reverse complement of an ASCII sequence, base by base.
    fn ascii_rc(s: &str) -> String {
        s.chars()
            .rev()
            .map(|c| match c {
                'A' => 'T',
                'C' => 'G',
                'G' => 'C',
                'T' => 'A',
                _ => unreachable!("non-ACGT base {c}"),
            })
            .collect()
    }

    /// Checks the word-parallel ops of `s` and `t` against plain string
    /// references built from their `to_ascii()` renderings: reverse
    /// complement, concatenation, string order and the smaller strand. The
    /// expected sequences are parsed back base by base, so structural `Eq`
    /// also pins the word count and the zero tail.
    fn check_against_ascii(s: &DnaString, t: &DnaString) {
        let parse = |x: &str| DnaString::from_ascii(x).unwrap();
        let (a, b) = (s.to_ascii(), t.to_ascii());
        let rc = ascii_rc(&a);
        assert_eq!(s.reverse_complement(), parse(&rc), "rc of {a}");
        assert_eq!(s.canonical(), parse(&a.clone().min(rc)), "canonical of {a}");
        assert_eq!(s.cmp(t), a.cmp(&b), "{a} vs {b}");
        let mut e = s.clone();
        e.extend_from(t);
        assert_eq!(e, parse(&(a + &b)), "extend by {b}");
    }

    #[test]
    fn word_kernels_match_scalar_at_boundaries() {
        // Lengths straddling every word-boundary shape: empty, sub-word,
        // exact words, one base over/under.
        for n in [0usize, 1, 31, 32, 33, 63, 64, 65, 96] {
            let s = DnaString::from_bases_iter((0..n).map(|i| Base::from_code((i % 4) as u8)));
            let t = DnaString::from_bases_iter((0..n).map(|i| Base::from_code((i % 3) as u8)));
            check_against_ascii(&s, &t);
        }
    }

    #[test]
    fn extend_from_packed_appends_the_low_bases_at_every_offset() {
        // A full 32-base word: taking n < 32 of its bases must ignore the
        // bits above them, wherever the string's last word is cut.
        let word: u64 = 0x1B6C_F0A5_9E27_D3C4;
        let ascii = |w: u64, n: usize| -> String {
            (0..n)
                .map(|i| Base::from_code((w >> (2 * (n - 1 - i))) as u8 & 3).to_char())
                .collect()
        };
        for offset in [0usize, 1, 17, 31, 32, 33, 63] {
            let prefix =
                DnaString::from_bases_iter((0..offset).map(|i| Base::from_code((i % 4) as u8)));
            for n in 0..=32 {
                let mut s = prefix.clone();
                s.extend_from_packed(word, n);
                let expected = prefix.to_ascii() + &ascii(word, n);
                assert_eq!(
                    s,
                    DnaString::from_ascii(&expected).unwrap(),
                    "offset {offset}, n {n}"
                );
            }
        }
    }

    #[test]
    fn ord_is_lexicographic_over_bases() {
        // Prefix, mid-word difference, cross-word difference, zero-pad-as-A
        // tie broken by length.
        let pairs = [
            ("A", "AA"),
            ("AC", "C"),
            ("CA", "CAA"),
            ("CAAC", "CAT"),
            (&"ACGT".repeat(16)[..], &("ACGT".repeat(16) + "A")[..]),
        ];
        for (a, b) in pairs {
            let s = DnaString::from_ascii(a).unwrap();
            let t = DnaString::from_ascii(b).unwrap();
            assert_eq!(s.cmp(&t), a.cmp(b), "{a} vs {b}");
            assert_eq!(t.cmp(&s), b.cmp(a), "{b} vs {a}");
        }
    }

    proptest! {
        #[test]
        fn prop_word_kernels_match_scalar(
            a in proptest::collection::vec(0u8..4, 0..220),
            b in proptest::collection::vec(0u8..4, 0..220),
        ) {
            let s = DnaString::from_bases_iter(a.iter().map(|c| Base::from_code(*c)));
            let t = DnaString::from_bases_iter(b.iter().map(|c| Base::from_code(*c)));
            check_against_ascii(&s, &t);
        }

        #[test]
        fn prop_ascii_roundtrip(v in proptest::collection::vec(0u8..4, 0..300)) {
            let bases: Vec<Base> = v.iter().map(|c| Base::from_code(*c)).collect();
            let s = DnaString::from_bases(&bases);
            prop_assert_eq!(s.len(), bases.len());
            prop_assert_eq!(s.to_bases(), bases.clone());
            let parsed = DnaString::from_ascii(&s.to_ascii()).unwrap();
            prop_assert_eq!(parsed, s);
        }

        #[test]
        fn prop_rc_involution(v in proptest::collection::vec(0u8..4, 0..300)) {
            let s = DnaString::from_bases_iter(v.iter().map(|c| Base::from_code(*c)));
            prop_assert_eq!(s.reverse_complement().reverse_complement(), s);
        }

        #[test]
        fn prop_kmers_match_naive(v in proptest::collection::vec(0u8..4, 0..120), k in 1usize..32) {
            let bases: Vec<Base> = v.iter().map(|c| Base::from_code(*c)).collect();
            let s = DnaString::from_bases(&bases);
            let from_string: Vec<Kmer> = s.kmers(k).collect();
            let naive: Vec<Kmer> = crate::kmer::kmers_of(&bases, k).collect();
            prop_assert_eq!(from_string, naive);
        }

        #[test]
        fn prop_substring_concat(v in proptest::collection::vec(0u8..4, 1..200), cut in 0usize..200) {
            let bases: Vec<Base> = v.iter().map(|c| Base::from_code(*c)).collect();
            let s = DnaString::from_bases(&bases);
            let cut = cut.min(s.len());
            let mut joined = s.substring(0, cut);
            joined.extend_from(&s.substring(cut, s.len() - cut));
            prop_assert_eq!(joined, s);
        }
    }
}
