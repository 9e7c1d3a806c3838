//! Packed k-mers (k ≤ 31) and canonicalisation.
//!
//! The paper encodes the sequence of a k-mer directly into a 64-bit integer
//! vertex ID (Figure 7a): each nucleotide takes two bits (`A=00`, `C=01`,
//! `G=10`, `T=11`), the packed sequence is aligned to the *right* of the word
//! (the last nucleotide occupies the two least-significant bits) and the
//! remaining high bits are zero. With k ≤ 31 at most 62 bits are used, leaving
//! the two most significant bits free for the NULL/contig markers and the
//! contig-end "flip" bit handled by the assembler crate.
//!
//! [`Kmer`] implements exactly this packing, plus the operations the assembler
//! needs: sliding-window extension, reverse complement, canonical form
//! (lexicographically smaller of the k-mer and its reverse complement,
//! Section III "Directionality") and prefix/suffix extraction of a (k+1)-mer.

use crate::base::{Base, ALL_BASES};
use crate::{DnaString, SeqError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Maximum supported k (the sequence must fit in a `u64`).
///
/// K-mer *vertices* of the assembler are limited to k ≤ 31 so that the top two
/// bits of the 64-bit vertex ID stay free (Figure 7 of the paper); the value 32
/// is allowed here so that the (k+1)-mers extracted during DBG construction
/// with k = 31 can still be represented as packed words.
pub const MAX_K: usize = 32;

/// Orientation of a k-mer occurrence relative to its canonical representative.
///
/// The paper calls the canonical orientation label `L` and the
/// reverse-complemented orientation label `H` (Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Orientation {
    /// The k-mer as observed equals the canonical (lexicographically smaller) form.
    Forward,
    /// The k-mer as observed is the reverse complement of the canonical form.
    ReverseComplement,
}

impl Orientation {
    /// The complementary label (`L̄ = H`, `H̄ = L` in the paper's notation).
    #[inline]
    pub fn flip(self) -> Orientation {
        match self {
            Orientation::Forward => Orientation::ReverseComplement,
            Orientation::ReverseComplement => Orientation::Forward,
        }
    }

    /// Single-character debug label matching the paper (`L` / `H`).
    #[inline]
    pub fn label(self) -> char {
        match self {
            Orientation::Forward => 'L',
            Orientation::ReverseComplement => 'H',
        }
    }
}

/// A k-mer (1 ≤ k ≤ 31) packed into a `u64` using the paper's 2-bit encoding.
///
/// The packing is right-aligned: the most recently pushed (right-most) base
/// occupies bits 1..0, and the left-most base occupies bits `2k-1..2k-2`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Kmer {
    packed: u64,
    k: u8,
}

impl Kmer {
    /// Creates the empty 0-mer used as a builder seed. Not a valid DBG vertex.
    #[inline]
    pub fn empty(k: usize) -> Result<Kmer, SeqError> {
        if k == 0 || k > MAX_K {
            return Err(SeqError::InvalidK(k));
        }
        Ok(Kmer {
            packed: 0,
            k: k as u8,
        })
    }

    /// Builds a k-mer from a slice of bases; `bases.len()` defines k.
    pub fn from_bases(bases: &[Base]) -> Result<Kmer, SeqError> {
        if bases.is_empty() || bases.len() > MAX_K {
            return Err(SeqError::InvalidK(bases.len()));
        }
        let mut packed = 0u64;
        for b in bases {
            packed = (packed << 2) | b.code() as u64;
        }
        Ok(Kmer {
            packed,
            k: bases.len() as u8,
        })
    }

    /// Parses a k-mer from an ASCII string of `A`/`C`/`G`/`T`.
    pub fn from_str_exact(s: &str) -> Result<Kmer, SeqError> {
        let bases = crate::base::parse_bases(s)?;
        Kmer::from_bases(&bases)
    }

    /// Reconstructs a k-mer from its packed 2-bit representation.
    ///
    /// Returns an error if `k` is out of range or if `packed` has bits set
    /// above position `2k`.
    pub fn from_packed(packed: u64, k: usize) -> Result<Kmer, SeqError> {
        if k == 0 || k > MAX_K {
            return Err(SeqError::InvalidK(k));
        }
        let mask = Kmer::mask(k as u8);
        if k < 32 && packed & !mask != 0 {
            return Err(SeqError::MalformedRecord(format!(
                "packed k-mer value {packed:#x} has bits above 2k={}",
                2 * k
            )));
        }
        Ok(Kmer { packed, k: k as u8 })
    }

    #[inline]
    fn mask(k: u8) -> u64 {
        if k as usize >= 32 {
            u64::MAX
        } else {
            (1u64 << (2 * k as u32)) - 1
        }
    }

    /// The k of this k-mer.
    #[inline]
    pub fn k(&self) -> usize {
        self.k as usize
    }

    /// The packed 2-bit representation (right-aligned, high bits zero).
    ///
    /// This is exactly the integer vertex ID of Figure 7(a) for k-mer vertices.
    #[inline]
    pub fn packed(&self) -> u64 {
        self.packed
    }

    /// The base at position `i` (0 = left-most).
    #[inline]
    pub fn get(&self, i: usize) -> Base {
        debug_assert!(i < self.k());
        let shift = 2 * (self.k() - 1 - i);
        Base::from_code((self.packed >> shift) as u8)
    }

    /// The left-most (first) base.
    #[inline]
    pub fn first(&self) -> Base {
        self.get(0)
    }

    /// The right-most (last) base.
    #[inline]
    pub fn last(&self) -> Base {
        Base::from_code(self.packed as u8)
    }

    /// Iterates over the bases from left to right.
    pub fn iter(&self) -> impl Iterator<Item = Base> + '_ {
        (0..self.k()).map(move |i| self.get(i))
    }

    /// Returns the bases as a vector (left to right).
    pub fn to_bases(&self) -> Vec<Base> {
        self.iter().collect()
    }

    /// Converts to a [`DnaString`].
    ///
    /// Word-level: the right-aligned packed representation left-aligns into
    /// the string's single word with one shift — no per-base decode.
    pub fn to_dna_string(&self) -> DnaString {
        let k = self.k();
        let word = if k == MAX_K {
            self.packed
        } else {
            self.packed << (64 - 2 * k)
        };
        DnaString::from_raw_parts(vec![word], k)
            .expect("a left-aligned packed k-mer is a valid one-word DnaString")
    }

    /// Slides the window one base to the right: drops the left-most base and
    /// appends `b` on the right. Used when cutting reads into consecutive
    /// k-mers (Figure 4).
    #[inline]
    pub fn extend_right(&self, b: Base) -> Kmer {
        let packed = ((self.packed << 2) | b.code() as u64) & Kmer::mask(self.k);
        Kmer { packed, k: self.k }
    }

    /// Slides the window one base to the left: drops the right-most base and
    /// prepends `b` on the left.
    #[inline]
    pub fn extend_left(&self, b: Base) -> Kmer {
        let packed = (self.packed >> 2) | ((b.code() as u64) << (2 * (self.k() - 1)));
        Kmer { packed, k: self.k }
    }

    /// Appends a base producing a (k+1)-mer. Panics in debug builds if the
    /// result would exceed [`MAX_K`].
    #[inline]
    pub fn append(&self, b: Base) -> Kmer {
        debug_assert!(self.k() < MAX_K);
        Kmer {
            packed: (self.packed << 2) | b.code() as u64,
            k: self.k + 1,
        }
    }

    /// The prefix of this k-mer with the last base removed (a (k−1)-mer).
    ///
    /// For a (k+1)-mer edge this yields the source vertex of the DBG edge.
    #[inline]
    pub fn prefix(&self) -> Kmer {
        debug_assert!(self.k() > 1);
        Kmer {
            packed: self.packed >> 2,
            k: self.k - 1,
        }
    }

    /// The suffix of this k-mer with the first base removed (a (k−1)-mer).
    ///
    /// For a (k+1)-mer edge this yields the target vertex of the DBG edge.
    #[inline]
    pub fn suffix(&self) -> Kmer {
        let k = self.k - 1;
        Kmer {
            packed: self.packed & Kmer::mask(k),
            k,
        }
    }

    /// The reverse complement of this k-mer.
    pub fn reverse_complement(&self) -> Kmer {
        // Complement all bases (bitwise NOT under the 2-bit code), then reverse
        // the order of the 2-bit groups.
        let mut x = !self.packed;
        // Reverse 2-bit groups within the 64-bit word.
        x = ((x & 0x3333_3333_3333_3333) << 2) | ((x >> 2) & 0x3333_3333_3333_3333);
        x = ((x & 0x0F0F_0F0F_0F0F_0F0F) << 4) | ((x >> 4) & 0x0F0F_0F0F_0F0F_0F0F);
        x = x.swap_bytes();
        // The reversed groups are now left-aligned; shift right so that the
        // sequence is right-aligned again.
        let packed = (x >> (64 - 2 * self.k() as u32)) & Kmer::mask(self.k);
        Kmer { packed, k: self.k }
    }

    /// The canonical representative: the lexicographically smaller of this
    /// k-mer and its reverse complement (Section III, "Directionality").
    ///
    /// With the 2-bit encoding, lexicographic comparison of the sequences is
    /// identical to integer comparison of the packed values.
    pub fn canonical(&self) -> CanonicalKmer {
        let rc = self.reverse_complement();
        if self.packed <= rc.packed {
            CanonicalKmer {
                kmer: *self,
                orientation: Orientation::Forward,
            }
        } else {
            CanonicalKmer {
                kmer: rc,
                orientation: Orientation::ReverseComplement,
            }
        }
    }

    /// Whether this k-mer is already canonical.
    pub fn is_canonical(&self) -> bool {
        self.packed <= self.reverse_complement().packed
    }

    /// Whether this k-mer equals its own reverse complement (a palindrome);
    /// only possible for even k.
    pub fn is_palindrome(&self) -> bool {
        *self == self.reverse_complement()
    }

    /// All four k-mers obtainable by appending a base on the right and
    /// dropping the left-most base (the possible out-neighbours in a simple
    /// directed DBG, ignoring which ones actually occur in the reads).
    pub fn successors(&self) -> [Kmer; 4] {
        let mut out = [*self; 4];
        for (i, b) in ALL_BASES.iter().enumerate() {
            out[i] = self.extend_right(*b);
        }
        out
    }

    /// All four k-mers obtainable by prepending a base on the left.
    pub fn predecessors(&self) -> [Kmer; 4] {
        let mut out = [*self; 4];
        for (i, b) in ALL_BASES.iter().enumerate() {
            out[i] = self.extend_left(*b);
        }
        out
    }
}

impl fmt::Display for Kmer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Kmer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Kmer({}, k={})", self, self.k())
    }
}

/// A k-mer paired with the orientation that produced it.
///
/// `kmer` is always the canonical (lexicographically smaller) form;
/// `orientation` records whether the originally observed k-mer was already
/// canonical (`Forward`, label `L`) or had to be reverse-complemented
/// (`ReverseComplement`, label `H`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CanonicalKmer {
    /// The canonical k-mer.
    pub kmer: Kmer,
    /// Orientation of the observed k-mer relative to `kmer`.
    pub orientation: Orientation,
}

/// Incremental canonical k-mer scanner: maintains the packed forward word
/// *and* the packed reverse-complement word as bases stream in, so each
/// window's canonical form costs two shifts and a comparison instead of the
/// full [`Kmer::reverse_complement`] bit-reversal per window.
///
/// This is the hot inner loop of DBG construction (every base of every read
/// passes through it), which is why it works on raw 2-bit codes and never
/// materialises a `Kmer` until a window is complete:
///
/// ```
/// use ppa_seq::kmer::CanonicalScanner;
/// use ppa_seq::Base;
///
/// let mut scanner = CanonicalScanner::new(2).unwrap();
/// assert!(scanner.push(Base::G).is_none()); // window not yet full
/// let canon = scanner.push(Base::T).unwrap(); // window "GT" → canonical "AC"
/// assert_eq!(canon.kmer.to_string(), "AC");
/// ```
#[derive(Debug, Clone)]
pub struct CanonicalScanner {
    k: u8,
    mask: u64,
    /// Shift that places a complemented base at the high end of the rc word.
    rc_shift: u32,
    fwd: u64,
    rc: u64,
    filled: usize,
}

impl CanonicalScanner {
    /// Creates a scanner for windows of `k` bases (1 ≤ k ≤ [`MAX_K`]).
    pub fn new(k: usize) -> Result<CanonicalScanner, SeqError> {
        if k == 0 || k > MAX_K {
            return Err(SeqError::InvalidK(k));
        }
        Ok(CanonicalScanner {
            k: k as u8,
            mask: Kmer::mask(k as u8),
            rc_shift: 2 * (k as u32 - 1),
            fwd: 0,
            rc: 0,
            filled: 0,
        })
    }

    /// Forgets the current window (call between read segments; the scanner
    /// must never slide across an `N` break).
    #[inline]
    pub fn reset(&mut self) {
        self.fwd = 0;
        self.rc = 0;
        self.filled = 0;
    }

    /// Slides the window one base to the right. Returns the canonical form of
    /// the window once (and as long as) `k` bases have been consumed since the
    /// last [`reset`](CanonicalScanner::reset).
    #[inline]
    pub fn push(&mut self, base: Base) -> Option<CanonicalKmer> {
        let code = base.code() as u64;
        self.fwd = ((self.fwd << 2) | code) & self.mask;
        // The complement of the incoming base enters the rc word at the high
        // end — the rc word always equals reverse_complement(fwd window).
        self.rc = (self.rc >> 2) | ((3 ^ code) << self.rc_shift);
        if self.filled + 1 < self.k as usize {
            self.filled += 1;
            return None;
        }
        self.filled = self.k as usize;
        let (packed, orientation) = if self.fwd <= self.rc {
            (self.fwd, Orientation::Forward)
        } else {
            (self.rc, Orientation::ReverseComplement)
        };
        Some(CanonicalKmer {
            kmer: Kmer { packed, k: self.k },
            orientation,
        })
    }

    /// Bulk entry: walks a read's raw ASCII bytes **once** and hands the
    /// packed canonical form of every complete window to `sink`, left to
    /// right. Any byte that is not `A`/`C`/`G`/`T` (either case) — `N`, an
    /// IUPAC code, anything else — restarts the window, so no k-mer spans it
    /// and stretches shorter than `k` contribute nothing. This is the scan
    /// DBG construction feeds its (k+1)-mer counter from: one table lookup
    /// per base, no per-read segment list and no [`Base`] round-trip.
    ///
    /// The walk keeps its own window, so it neither reads nor disturbs the
    /// state [`push`](CanonicalScanner::push) is rolling.
    ///
    /// ```
    /// use ppa_seq::kmer::CanonicalScanner;
    /// use ppa_seq::Kmer;
    ///
    /// let scan = |k: usize, read: &str| -> Vec<String> {
    ///     let mut out = Vec::new();
    ///     CanonicalScanner::new(k).unwrap().scan_ascii(read.as_bytes(), |key| {
    ///         out.push(Kmer::from_packed(key, k).unwrap().to_string())
    ///     });
    ///     out
    /// };
    ///
    /// // Windows "ACG", "CGT", "GTA" in canonical form (rc(GTA) = TAC).
    /// assert_eq!(scan(3, "ACGTA"), ["ACG", "ACG", "GTA"]);
    /// // An N breaks the read: no window spans it, and the two-base stretch
    /// // after it is too short to yield one.
    /// assert_eq!(scan(3, "ACGNTA"), ["ACG"]);
    /// // Lower-case bases are bases.
    /// assert_eq!(scan(3, "acGta"), scan(3, "ACGTA"));
    /// // A read shorter than k yields nothing.
    /// assert!(scan(3, "AC").is_empty());
    /// // Tiny k: every base is its own window (T canonicalises to A).
    /// assert_eq!(scan(1, "TNG"), ["A", "C"]);
    ///
    /// // k = 32 fills all 64 bits of the key: 33 T's are two windows whose
    /// // canonical form is 32 A's — packed, zero.
    /// let mut keys = Vec::new();
    /// CanonicalScanner::new(32).unwrap().scan_ascii(&[b'T'; 33], |key| keys.push(key));
    /// assert_eq!(keys, [0, 0]);
    /// let mut keys = Vec::new();
    /// CanonicalScanner::new(32).unwrap().scan_ascii(&[b'C'; 32], |key| keys.push(key));
    /// assert_eq!(keys, [0x5555_5555_5555_5555]);
    /// ```
    #[inline]
    pub fn scan_ascii(&self, seq: &[u8], mut sink: impl FnMut(u64)) {
        let k = self.k as usize;
        let (mut fwd, mut rc, mut filled) = (0u64, 0u64, 0usize);
        for &c in seq {
            let code = ASCII_CODE[c as usize] as u64;
            if code > 3 {
                // Stale bits need no clearing: k fresh bases shift every one
                // of them out of both words before the next window completes.
                filled = 0;
                continue;
            }
            fwd = ((fwd << 2) | code) & self.mask;
            rc = (rc >> 2) | ((3 ^ code) << self.rc_shift);
            filled += 1;
            if filled >= k {
                sink(fwd.min(rc));
            }
        }
    }
}

/// 2-bit code of every ASCII byte, 4 for bytes that are not a base.
const ASCII_CODE: [u8; 256] = {
    let mut table = [4u8; 256];
    let mut c = 0usize;
    while c < 256 {
        if let Some(base) = Base::from_ascii_checked(c as u8) {
            table[c] = base as u8;
        }
        c += 1;
    }
    table
};

/// Iterates over the canonical form of every k-mer window of a base slice,
/// left to right, using the rolling [`CanonicalScanner`].
///
/// Returns an empty iterator if the sequence is shorter than `k` (or `k` is
/// out of range).
pub fn canonical_kmers_of(bases: &[Base], k: usize) -> impl Iterator<Item = CanonicalKmer> + '_ {
    let mut scanner = CanonicalScanner::new(k).ok();
    bases.iter().filter_map(move |&b| scanner.as_mut()?.push(b))
}

/// Iterates over all k-mers of a base slice, left to right.
///
/// Returns an empty iterator if the sequence is shorter than `k`.
pub fn kmers_of(bases: &[Base], k: usize) -> impl Iterator<Item = Kmer> + '_ {
    let valid = (1..=MAX_K).contains(&k) && bases.len() >= k;
    let mut current = if valid {
        Kmer::from_bases(&bases[..k]).ok()
    } else {
        None
    };
    let mut next_idx = k;
    std::iter::from_fn(move || {
        let out = current?;
        current = if next_idx < bases.len() {
            let n = out.extend_right(bases[next_idx]);
            next_idx += 1;
            Some(n)
        } else {
            None
        };
        Some(out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::parse_bases;
    use proptest::prelude::*;

    fn km(s: &str) -> Kmer {
        Kmer::from_str_exact(s).unwrap()
    }

    #[test]
    fn packing_matches_paper_figure7() {
        // Figure 7(a): 5-mer "ATTGC" = 00 11 11 10 01 right-aligned.
        let k = km("ATTGC");
        assert_eq!(k.packed(), 0b00_11_11_10_01);
        assert_eq!(k.k(), 5);
        assert_eq!(k.to_string(), "ATTGC");
    }

    #[test]
    fn from_packed_roundtrip_and_validation() {
        let k = km("ACGGT");
        let back = Kmer::from_packed(k.packed(), 5).unwrap();
        assert_eq!(k, back);
        assert!(Kmer::from_packed(1 << 63, 5).is_err());
        assert!(Kmer::from_packed(0, 0).is_err());
        assert!(Kmer::from_packed(0, 33).is_err());
        assert!(Kmer::from_packed(u64::MAX, 32).is_ok());
    }

    #[test]
    fn invalid_k_rejected() {
        assert!(Kmer::from_bases(&[]).is_err());
        let too_long = vec![Base::A; 33];
        assert!(Kmer::from_bases(&too_long).is_err());
        let max = vec![Base::T; 32];
        assert!(Kmer::from_bases(&max).is_ok());
        assert_eq!(
            Kmer::from_bases(&max)
                .unwrap()
                .reverse_complement()
                .to_string(),
            "A".repeat(32)
        );
    }

    #[test]
    fn get_first_last() {
        let k = km("ACGT");
        assert_eq!(k.get(0), Base::A);
        assert_eq!(k.get(1), Base::C);
        assert_eq!(k.get(2), Base::G);
        assert_eq!(k.get(3), Base::T);
        assert_eq!(k.first(), Base::A);
        assert_eq!(k.last(), Base::T);
    }

    #[test]
    fn extend_right_slides_window() {
        // Figure 4: read "ATTG" cut into 3-mers "ATT", "TTG".
        let first = km("ATT");
        let second = first.extend_right(Base::G);
        assert_eq!(second.to_string(), "TTG");
    }

    #[test]
    fn extend_left_slides_window() {
        let k = km("TTG");
        assert_eq!(k.extend_left(Base::A).to_string(), "ATT");
    }

    #[test]
    fn prefix_suffix_of_k_plus_1_mer() {
        // Figure 4: the 3-mer "ATT" defines an edge from "AT" to "TT".
        let e = km("ATT");
        assert_eq!(e.prefix().to_string(), "AT");
        assert_eq!(e.suffix().to_string(), "TT");
    }

    #[test]
    fn append_creates_k_plus_1_mer() {
        let k = km("AT");
        assert_eq!(k.append(Base::T).to_string(), "ATT");
    }

    #[test]
    fn reverse_complement_examples() {
        // Figure 6: "GT" and "AC" are reverse complements; "AAG" ↔ "CTT".
        assert_eq!(km("GT").reverse_complement().to_string(), "AC");
        assert_eq!(km("AC").reverse_complement().to_string(), "GT");
        assert_eq!(km("AAG").reverse_complement().to_string(), "CTT");
        assert_eq!(km("ACGGT").reverse_complement().to_string(), "ACCGT");
    }

    #[test]
    fn canonical_picks_smaller() {
        // "GT" vs rc "AC": canonical is "AC" (paper, Figure 6).
        let c = km("GT").canonical();
        assert_eq!(c.kmer.to_string(), "AC");
        assert_eq!(c.orientation, Orientation::ReverseComplement);
        let c2 = km("AC").canonical();
        assert_eq!(c2.kmer.to_string(), "AC");
        assert_eq!(c2.orientation, Orientation::Forward);
    }

    #[test]
    fn palindrome_detection() {
        assert!(km("ACGT").is_palindrome()); // rc(ACGT) = ACGT
        assert!(!km("AAA").is_palindrome());
    }

    #[test]
    fn successors_predecessors() {
        let k = km("CCG");
        let succ: Vec<String> = k.successors().iter().map(|s| s.to_string()).collect();
        assert_eq!(succ, vec!["CGA", "CGC", "CGG", "CGT"]);
        // Paper example (Section IV-A): 4-mer "CCGT" has possible in-neighbours
        // ACCG, CCCG, GCCG, TCCG.
        let k = km("CCGT");
        let mut preds: Vec<String> = k.predecessors().iter().map(|s| s.to_string()).collect();
        preds.sort();
        assert_eq!(preds, vec!["ACCG", "CCCG", "GCCG", "TCCG"]);
    }

    #[test]
    fn kmers_of_sequence() {
        let bases = parse_bases("ATTGCAAGT").unwrap();
        let kmers: Vec<String> = kmers_of(&bases, 3).map(|k| k.to_string()).collect();
        assert_eq!(kmers, vec!["ATT", "TTG", "TGC", "GCA", "CAA", "AAG", "AGT"]);
        assert_eq!(kmers_of(&bases, 10).count(), 0);
        assert_eq!(kmers_of(&bases, 9).count(), 1);
    }

    #[test]
    fn orientation_flip() {
        assert_eq!(Orientation::Forward.flip(), Orientation::ReverseComplement);
        assert_eq!(Orientation::ReverseComplement.flip(), Orientation::Forward);
        assert_eq!(Orientation::Forward.label(), 'L');
        assert_eq!(Orientation::ReverseComplement.label(), 'H');
    }

    #[test]
    fn scanner_matches_per_window_canonicalisation() {
        let bases = parse_bases("ATTGCAAGTCCGTAGGATC").unwrap();
        for k in [1usize, 2, 3, 5, 8] {
            let rolled: Vec<(u64, Orientation)> = canonical_kmers_of(&bases, k)
                .map(|c| (c.kmer.packed(), c.orientation))
                .collect();
            let naive: Vec<(u64, Orientation)> = kmers_of(&bases, k)
                .map(|w| {
                    let c = w.canonical();
                    (c.kmer.packed(), c.orientation)
                })
                .collect();
            assert_eq!(rolled, naive, "k = {k}");
        }
    }

    #[test]
    fn scanner_reset_restarts_the_window() {
        let mut scanner = CanonicalScanner::new(3).unwrap();
        assert!(scanner.push(Base::A).is_none());
        assert!(scanner.push(Base::C).is_none());
        scanner.reset();
        assert!(scanner.push(Base::G).is_none());
        assert!(scanner.push(Base::T).is_none());
        let c = scanner.push(Base::A).unwrap();
        assert_eq!(c.kmer, km("GTA").canonical().kmer);
    }

    #[test]
    fn scanner_rejects_invalid_k() {
        assert!(CanonicalScanner::new(0).is_err());
        assert!(CanonicalScanner::new(MAX_K + 1).is_err());
        assert!(CanonicalScanner::new(MAX_K).is_ok());
    }

    #[test]
    fn scanner_handles_max_k() {
        // 33 bases → two 32-mer windows; both must match the naive path.
        let bases = parse_bases(&"ACGTACGTACGTACGTACGTACGTACGTACGTA"[..33]).unwrap();
        let rolled: Vec<u64> = canonical_kmers_of(&bases, 32)
            .map(|c| c.kmer.packed())
            .collect();
        let naive: Vec<u64> = kmers_of(&bases, 32)
            .map(|w| w.canonical().kmer.packed())
            .collect();
        assert_eq!(rolled, naive);
        assert_eq!(rolled.len(), 2);
    }

    /// The per-segment formulation `scan_ascii` replaces in DBG construction:
    /// split on non-ACGT bytes, then roll every base of every segment.
    fn segment_then_push(seq: &[u8], k: usize) -> Vec<u64> {
        let record = crate::FastxRecord::new_fasta("r", seq.to_vec());
        let mut scanner = CanonicalScanner::new(k).unwrap();
        let mut keys = Vec::new();
        for segment in record.acgt_segments() {
            scanner.reset();
            for &c in segment {
                let base = Base::from_ascii_checked(c).unwrap();
                keys.extend(scanner.push(base).map(|c| c.kmer.packed()));
            }
        }
        keys
    }

    #[test]
    fn scan_ascii_leaves_the_rolling_window_alone() {
        let mut scanner = CanonicalScanner::new(3).unwrap();
        assert!(scanner.push(Base::G).is_none());
        assert!(scanner.push(Base::T).is_none());
        scanner.scan_ascii(b"ACGTACGT", |_| {});
        let c = scanner.push(Base::A).unwrap();
        assert_eq!(c.kmer, km("GTA").canonical().kmer);
    }

    proptest! {
        #[test]
        fn prop_scan_ascii_matches_segment_then_push(
            s in proptest::collection::vec(0usize..12, 0..120),
            k in 1usize..=32,
        ) {
            // N, a non-IUPAC byte and lower case mixed in at ~1 in 3.
            let seq: Vec<u8> = s.iter().map(|&i| b"ACGTACGTacNx"[i]).collect();
            let mut keys = Vec::new();
            CanonicalScanner::new(k).unwrap().scan_ascii(&seq, |key| keys.push(key));
            prop_assert_eq!(keys, segment_then_push(&seq, k));
        }

        #[test]
        fn prop_scanner_matches_naive_canonical(
            s in proptest::collection::vec(0u8..4, 1..60),
            k in 1usize..32,
        ) {
            let bases: Vec<Base> = s.iter().map(|c| Base::from_code(*c)).collect();
            let rolled: Vec<(u64, Orientation)> = canonical_kmers_of(&bases, k)
                .map(|c| (c.kmer.packed(), c.orientation))
                .collect();
            let naive: Vec<(u64, Orientation)> = kmers_of(&bases, k)
                .map(|w| {
                    let c = w.canonical();
                    (c.kmer.packed(), c.orientation)
                })
                .collect();
            prop_assert_eq!(rolled, naive);
        }

        #[test]
        fn prop_rc_is_involution(s in proptest::collection::vec(0u8..4, 1..=31)) {
            let bases: Vec<Base> = s.iter().map(|c| Base::from_code(*c)).collect();
            let k = Kmer::from_bases(&bases).unwrap();
            prop_assert_eq!(k.reverse_complement().reverse_complement(), k);
        }

        #[test]
        fn prop_rc_matches_naive(s in proptest::collection::vec(0u8..4, 1..=31)) {
            let bases: Vec<Base> = s.iter().map(|c| Base::from_code(*c)).collect();
            let k = Kmer::from_bases(&bases).unwrap();
            let naive = crate::base::reverse_complement(&bases);
            prop_assert_eq!(k.reverse_complement().to_bases(), naive);
        }

        #[test]
        fn prop_canonical_is_idempotent(s in proptest::collection::vec(0u8..4, 1..=31)) {
            let bases: Vec<Base> = s.iter().map(|c| Base::from_code(*c)).collect();
            let k = Kmer::from_bases(&bases).unwrap();
            let c = k.canonical();
            prop_assert!(c.kmer.is_canonical());
            prop_assert_eq!(c.kmer.canonical().kmer, c.kmer);
            // Canonical of the rc is the same vertex.
            prop_assert_eq!(k.reverse_complement().canonical().kmer, c.kmer);
        }

        #[test]
        fn prop_display_roundtrip(s in proptest::collection::vec(0u8..4, 1..=31)) {
            let bases: Vec<Base> = s.iter().map(|c| Base::from_code(*c)).collect();
            let k = Kmer::from_bases(&bases).unwrap();
            prop_assert_eq!(Kmer::from_str_exact(&k.to_string()).unwrap(), k);
        }

        #[test]
        fn prop_extend_right_then_prefix(s in proptest::collection::vec(0u8..4, 2..=30), b in 0u8..4) {
            let bases: Vec<Base> = s.iter().map(|c| Base::from_code(*c)).collect();
            let k = Kmer::from_bases(&bases).unwrap();
            let appended = k.append(Base::from_code(b));
            prop_assert_eq!(appended.prefix(), k);
            prop_assert_eq!(appended.suffix(), k.extend_right(Base::from_code(b)));
        }
    }
}
