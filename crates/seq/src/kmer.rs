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
//!
//! The scanners take a read in the same 2-bit code, as the read slab stores
//! it: [`SuperKmerScanner::scan_codes`] consumes
//! [`Read::codes`](crate::Read::codes), where any code above 3 — a
//! [`BREAK`], an `N` of the read — restarts the
//! window, and [`CanonicalScanner`] is pushed one [`Base`] at a time and
//! reset at a break by its caller. Neither reads ASCII.

use crate::base::Base;
use crate::fastx::BREAK;
use crate::{DnaString, SeqError};
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
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
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Kmer {
    packed: u64,
    k: u8,
}

impl Kmer {
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
    // ppa_lint: allow(test-only-pub) the k-mer literal the tests across crates build fixtures from
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
        let mut s = DnaString::with_capacity(self.k());
        s.extend_from_packed(self.packed, self.k());
        s
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
        Kmer {
            packed: reverse_complement_packed(self.packed, self.k()),
            k: self.k,
        }
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
// ppa_lint: allow(test-only-pub) the return type of the public `Kmer::canonical` and `CanonicalScanner::push`
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
/// It works on raw 2-bit codes and never materialises a `Kmer` until a
/// window is complete (DBG construction's counting pass scans whole reads
/// with [`SuperKmerScanner`] instead):
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
}

/// Complements the `k` bases (1 ≤ k ≤ 32) packed right-aligned in `packed`
/// and reverses their order; bits above `2k` are ignored.
#[inline]
fn reverse_complement_packed(packed: u64, k: usize) -> u64 {
    // Complement all bases (bitwise NOT under the 2-bit code), then reverse
    // the order of the 2-bit groups within the word.
    let mut x = !packed;
    x = ((x & 0x3333_3333_3333_3333) << 2) | ((x >> 2) & 0x3333_3333_3333_3333);
    x = ((x & 0x0F0F_0F0F_0F0F_0F0F) << 4) | ((x >> 4) & 0x0F0F_0F0F_0F0F_0F0F);
    // The reversed groups are now left-aligned: the k bases are the top 2k
    // bits, and shifting them down drops what stood above 2k.
    x.swap_bytes() >> (64 - 2 * k as u32)
}

/// Bases of the m-mers whose order picks a window's minimizer. A scanner
/// clamps it to its window length, so windows of at most this many bases are
/// their own minimizer.
// ppa_lint: allow(test-only-pub) the documented m the `SuperKmerScanner` example checks its window bound against
pub const MINIMIZER_LEN: usize = 11;

/// The m-mer order: `rank(x) = (x ^ ORDER_SALT) · ORDER_MUL` over the packed
/// canonical m-mer `x`. Multiplying by an odd number is a bijection of
/// `u64`, so distinct m-mers never tie; the salt keeps poly-A (packed 0) from
/// being the minimizer of every window that holds it.
const ORDER_SALT: u64 = 0x5851_F42D_4C95_7F2D;
const ORDER_MUL: u64 = 0x2545_F491_4F6C_DD1D;

#[inline(always)]
fn rank(mmer: u64) -> u64 {
    (mmer ^ ORDER_SALT).wrapping_mul(ORDER_MUL)
}

/// The minimizer of one window, given as its packed k-mer on either
/// strand: the rank, in [`SuperKmerScanner`]'s m-mer order, of the smallest
/// of its canonical m-mers (m = [`MINIMIZER_LEN`], clamped to k). Every
/// window of a [`SuperKmer`] has its record's minimizer, so consecutive
/// k-mers of a chain share it in runs, and k-mers of at most m bases are
/// each their own. Word-parallel: one reverse complement of the window, then
/// each m-mer of either strand is a shift and a mask.
///
/// ```
/// use ppa_seq::kmer::minimizer_rank;
/// use ppa_seq::Kmer;
///
/// let kmer = Kmer::from_str_exact("ACGTTGCAAGGCTTAACGGATCCATGACGTA").unwrap();
/// let rc = kmer.reverse_complement();
/// assert_eq!(minimizer_rank(kmer.packed(), 31), minimizer_rank(rc.packed(), 31));
/// ```
// ppa_lint: allow(test-only-pub) the one-window definition `minimizer_ranks` and the block keys' reference contraction are pinned to
pub fn minimizer_rank(kmer: u64, k: usize) -> u64 {
    debug_assert!((1..=MAX_K).contains(&k), "k = {k}");
    let m = MINIMIZER_LEN.min(k);
    let mmer_mask = Kmer::mask(m as u8);
    let fwd = kmer & Kmer::mask(k as u8);
    let rc = reverse_complement_packed(fwd, k);
    // The m-mer ending i bases before the window's end, and its reverse
    // complement, which starts i bases into the rc word.
    (0..=k - m)
        .map(|i| {
            let forward = (fwd >> (2 * i)) & mmer_mask;
            let reverse = (rc >> (2 * (k - m - i))) & mmer_mask;
            rank(forward.min(reverse))
        })
        .min()
        .unwrap_or(u64::MAX)
}

/// [`minimizer_rank`] of eight packed k-mers of one k at once, the same
/// values lane by lane. The lanes rank their m-mers in lockstep, so eight
/// independent multiply-and-minimum chains overlap where one window's
/// chain would wait on itself.
///
/// ```
/// use ppa_seq::kmer::{minimizer_rank, minimizer_ranks};
///
/// let kmers = [1, 2, 3, 5, 8, 13, 21, 34].map(|x: u64| x.wrapping_mul(0x9E37_79B9) >> 2);
/// let batched = minimizer_ranks(kmers, 31);
/// for (kmer, rank) in kmers.iter().zip(batched) {
///     assert_eq!(minimizer_rank(*kmer, 31), rank);
/// }
/// ```
pub fn minimizer_ranks(kmers: [u64; 8], k: usize) -> [u64; 8] {
    debug_assert!((1..=MAX_K).contains(&k), "k = {k}");
    let m = MINIMIZER_LEN.min(k);
    let mmer_mask = Kmer::mask(m as u8);
    let fwd = kmers.map(|kmer| kmer & Kmer::mask(k as u8));
    let rc = fwd.map(|kmer| reverse_complement_packed(kmer, k));
    let mut best = [u64::MAX; 8];
    for i in 0..=k - m {
        for lane in 0..8 {
            let forward = (fwd[lane] >> (2 * i)) & mmer_mask;
            let reverse = (rc[lane] >> (2 * (k - m - i))) & mmer_mask;
            best[lane] = best[lane].min(rank(forward.min(reverse)));
        }
    }
    best
}

/// Ring of the latest m-mer ranks: a power of two above any window's m-mer
/// count (at most `MAX_K − MINIMIZER_LEN + 1 = 22`).
const RANK_RING: usize = 32;

/// References whose bases [`SuperKmerScanner::decode_into`] loads before it
/// decodes them.
const GATHER: usize = 64;

/// The most bases a slab may hold before [`SuperKmer::reference`] no longer
/// fits a record's first base: 48 bits of offset.
const MAX_OFFSET: u64 = 1 << 48;

/// A super-k-mer: a run of consecutive windows of one read that share their
/// minimizer, given by where it starts in the read and how many windows it
/// holds. It covers k + windows − 1 bases and never an `N` or a read end,
/// because the scanner restarts there.
///
/// Its bases stay where the read slab keeps them, two bits each:
/// [`reference`](SuperKmer::reference) packs the record into one `u64`, the
/// slab position of its first base in the low 48 bits and the window count
/// from [`SuperKmer::WINDOWS_SHIFT`] up, and
/// [`SuperKmerScanner::decode_into`] reads the bases back from the slab's
/// words. A record holds at most [`SuperKmerScanner::max_windows`] windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperKmer {
    /// Where the first window starts in the read: its index in the codes
    /// the scanner walked.
    start: usize,
    /// Windows in the record, at least one.
    windows: usize,
    /// The minimizer's rank in the m-mer order (one rank, one m-mer).
    rank: u64,
}

impl SuperKmer {
    /// Where the window count starts in a [`reference`](SuperKmer::reference).
    pub const WINDOWS_SHIFT: u32 = 56;

    /// Windows in the record, at least one.
    #[inline]
    pub fn windows(&self) -> usize {
        self.windows
    }

    /// The record as one word, for a read whose first base sits at slab
    /// position `read_start` ([`Read::start`](crate::Read::start)): the slab
    /// position of the record's first base, then the window count from
    /// [`WINDOWS_SHIFT`](SuperKmer::WINDOWS_SHIFT) up.
    ///
    /// # Panics
    ///
    /// In debug builds, if the position does not fit 48 bits.
    #[inline]
    pub fn reference(&self, read_start: u64) -> u64 {
        let offset = read_start + self.start as u64;
        debug_assert!(offset < MAX_OFFSET, "slab position {offset} past 48 bits");
        offset | (self.windows as u64) << Self::WINDOWS_SHIFT
    }

    /// A hash of the minimizer whose top bits are evenly spread. The rank
    /// itself will not do: it is the smallest of its window's, so its top
    /// bits crowd towards zero. MurmurHash3's 64-bit finalizer mixes every
    /// bit of it into every bit of the hash.
    #[inline]
    pub fn minimizer_hash(&self) -> u64 {
        let mut h = self.rank;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }
}

/// Cuts reads into [`SuperKmer`]s and expands them back into canonical
/// k-mers: the scan DBG construction feeds its (k+1)-mer counter from
/// (KMC 2, Deorowicz et al., *Bioinformatics* 2015; minimizers: Roberts et
/// al., *Bioinformatics* 2004).
///
/// A window's **minimizer** is the smallest, in a fixed pseudo-random order,
/// of the canonical m-mers it contains (m = [`MINIMIZER_LEN`], clamped to k).
/// A window and its reverse complement contain the same canonical m-mers, so
/// both strands of a k-mer have one minimizer. A super-k-mer is a run of
/// consecutive windows with the same minimizer. It ends where the minimizer
/// changes, at a [`BREAK`] (an `N` of the read), or after
/// [`max_windows`](SuperKmerScanner::max_windows) windows. The cap matters:
/// a poly-A read keeps one minimizer for its whole length. Runs of a read
/// shorter than k contribute nothing.
///
/// [`decode_into`](SuperKmerScanner::decode_into) reads a record's bases
/// back from the read slab's packed words and rolls the forward and
/// reverse-complement words through them, yielding the canonical form of
/// each of its windows. Decoding the references of what
/// [`scan_codes`](SuperKmerScanner::scan_codes) emits gives, in order, the
/// canonical k-mer of every window of the reads.
///
/// ```
/// use ppa_seq::kmer::{SuperKmerScanner, MINIMIZER_LEN};
/// use ppa_seq::{Kmer, ReadSet};
///
/// let scanner = SuperKmerScanner::new(15).unwrap();
/// assert_eq!(scanner.max_windows(), 15 - MINIMIZER_LEN + 1);
/// // Every record of every read, as a reference into the slab.
/// let cut = |reads: &ReadSet| {
///     let mut records = Vec::new();
///     for read in &reads.records {
///         scanner.scan_codes(read.codes(), |sk| records.push((sk.windows(), sk.reference(read.start()))));
///     }
///     records
/// };
///
/// // An N splits the second read into runs of 30 and 18 bases, 16 and 4
/// // windows: no window spans it, nor the end of the first read.
/// let read = b"ACGTTGCAAGGCTTAACGGATCCATGACGTNACGTTGCAAGGCTTAACG";
/// let reads: ReadSet = [("first", &b"GATTACA"[..]), ("second", &read[..])].into_iter().collect();
/// let records = cut(&reads);
/// let references: Vec<u64> = records.iter().map(|&(_, reference)| reference).collect();
/// let mut keys = Vec::new();
/// scanner.decode_into(reads.records.words(), &references, &mut keys);
/// let naive: Vec<u64> = read
///     .split(|&c| c == b'N')
///     .flat_map(|run| run.windows(15))
///     .map(|w| Kmer::from_str_exact(std::str::from_utf8(w).unwrap()).unwrap())
///     .map(|w| w.canonical().kmer.packed())
///     .collect();
/// assert_eq!(keys, naive);
/// assert_eq!(records.iter().map(|&(windows, _)| windows).sum::<usize>(), 16 + 4);
/// // The second read starts at slab position 7.
/// assert_eq!(references[0] & 0xFFFF, 7);
///
/// // 40 A's: 26 windows with one minimizer, cut at 5 windows a record.
/// let poly_a: ReadSet = [("a", &[b'A'; 40][..])].into_iter().collect();
/// let windows: Vec<usize> = cut(&poly_a).iter().map(|&(windows, _)| windows).collect();
/// assert_eq!(windows, [5, 5, 5, 5, 5, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct SuperKmerScanner {
    k: usize,
    m: usize,
    mask: u64,
    /// Shift that places a complemented base at the high end of the rc word.
    rc_shift: u32,
    mmer_mask: u64,
    /// Shift from the window's rc word down to the rc of its last m bases.
    mmer_rc_shift: u32,
    /// m-mers per window, `k − m + 1`: also the most windows a record holds.
    span: usize,
}

impl SuperKmerScanner {
    /// Creates a scanner for windows of `k` bases (1 ≤ k ≤ [`MAX_K`]).
    pub fn new(k: usize) -> Result<SuperKmerScanner, SeqError> {
        if k == 0 || k > MAX_K {
            return Err(SeqError::InvalidK(k));
        }
        let m = MINIMIZER_LEN.min(k);
        Ok(SuperKmerScanner {
            k,
            m,
            mask: Kmer::mask(k as u8),
            rc_shift: 2 * (k as u32 - 1),
            mmer_mask: Kmer::mask(m as u8),
            mmer_rc_shift: 2 * (k - m) as u32,
            span: k - m + 1,
        })
    }

    /// The most windows a record holds, `k − m + 1` — as many as one m-mer
    /// occurrence can be part of.
    pub fn max_windows(&self) -> usize {
        self.span
    }

    /// Walks a read's codes once — [`Read::codes`](crate::Read::codes):
    /// 2-bit [`Base`] codes, and any code above 3 (a [`BREAK`]) where the
    /// read has an `N` — and hands every super-k-mer to `emit`, left to
    /// right: one record per run of windows instead of one key per window.
    #[inline]
    pub fn scan_codes(&self, codes: impl IntoIterator<Item = u8>, mut emit: impl FnMut(SuperKmer)) {
        let (k, m, span) = (self.k, self.m, self.span);
        let (mut fwd, mut rc, mut filled) = (0u64, 0u64, 0usize);
        // Codes consumed so far, breaks included.
        let mut read_at = 0usize;
        // The ranks of the latest m-mers, by the `filled` count at their end.
        let mut ranks = [0u64; RANK_RING];
        // The current window's smallest rank and where it ended (the latest
        // of equal ranks, so that it expires last).
        let (mut min_rank, mut min_at) = (u64::MAX, 0usize);
        // The open record: where its first window starts, its windows (0 =
        // none open) and its minimizer rank.
        let (mut start, mut windows, mut open_rank) = (0usize, 0usize, 0u64);
        let pack = |start: usize, windows: usize, rank: u64| SuperKmer {
            start,
            windows,
            rank,
        };
        // `for_each`, not `for`: a read's codes fold word by word.
        codes.into_iter().for_each(|code| {
            read_at += 1;
            if code >= BREAK {
                if windows > 0 {
                    emit(pack(start, windows, open_rank));
                    windows = 0;
                }
                // Stale bits need no clearing: k fresh bases shift every one
                // of them out of both words before the next window completes.
                filled = 0;
                min_rank = u64::MAX;
                return;
            }
            let code = u64::from(code);
            fwd = ((fwd << 2) | code) & self.mask;
            rc = (rc >> 2) | ((3 ^ code) << self.rc_shift);
            filled += 1;
            if filled < m {
                return;
            }
            let r = rank((fwd & self.mmer_mask).min(rc >> self.mmer_rc_shift));
            ranks[filled % RANK_RING] = r;
            if r <= min_rank {
                (min_rank, min_at) = (r, filled);
            } else if filled - min_at >= span {
                // The minimum slid out of the window: rescan the m-mers still
                // in it. Before the first window is full nothing expires.
                min_rank = u64::MAX;
                for at in filled + 1 - span..=filled {
                    let r = ranks[at % RANK_RING];
                    if r <= min_rank {
                        (min_rank, min_at) = (r, at);
                    }
                }
            }
            if filled < k {
                return;
            }
            if windows > 0 && windows < span && min_rank == open_rank {
                windows += 1;
            } else {
                if windows > 0 {
                    emit(pack(start, windows, open_rank));
                }
                (start, windows, open_rank) = (read_at - k, 1, min_rank);
            }
        });
        if windows > 0 {
            emit(pack(start, windows, open_rank));
        }
    }

    /// Appends the packed canonical form of every window of the records
    /// `references` name, in order, to `keys`, reading their bases from
    /// `words`: the read slab's packed bases
    /// ([`ReadSlab::words`](crate::ReadSlab::words)), base `i` at bits
    /// `2(i mod 32)..` of word `i / 32`. A reference is a
    /// [`SuperKmer::reference`]: the bits below
    /// [`WINDOWS_SHIFT`](SuperKmer::WINDOWS_SHIFT) are the slab position of
    /// its first base, those above its window count, which must be within
    /// `1..=`[`max_windows`](SuperKmerScanner::max_windows), with its bases
    /// inside `words`, as [`scan_codes`](SuperKmerScanner::scan_codes) makes
    /// them; a record read back from storage must be checked first. (One
    /// that points past `words` decodes as if they went on in `A`s: wrong
    /// keys, never a panic.)
    ///
    /// A record costs three word loads, which the decode issues a block of
    /// references at a time, ahead of decoding them: in a bucket's order the
    /// records point all over the slab.
    #[inline]
    pub fn decode_into(&self, words: &[u64], references: &[u64], keys: &mut Vec<u64>) {
        // `(b << 1) << (63 − s)` is `b << (64 − s)`, and 0 for s = 0.
        let funnel = |a: u64, b: u64, s: u32| a >> s | (b << 1) << (63 - s);
        let mut loaded = [[0u64; 3]; GATHER];
        for block in references.chunks(GATHER) {
            // A record covers at most k + (k − m) bases, so from base
            // `first` of its first word on they lie in three words. A
            // block's loads come first: they do not depend on each other,
            // so their cache misses overlap instead of each waiting for the
            // decode before it.
            for (words_of, &reference) in loaded.iter_mut().zip(block) {
                let i = ((reference & ((1 << SuperKmer::WINDOWS_SHIFT) - 1)) / 32) as usize;
                *words_of = match words.get(i..i + 3) {
                    Some(&[a, b, c]) => [a, b, c],
                    _ => std::array::from_fn(|j| words.get(i + j).copied().unwrap_or(0)),
                };
            }
            for (&[w0, w1, w2], &reference) in loaded.iter().zip(block) {
                // The slab position's low bits: 2^56 is a multiple of 32.
                let first = (reference % 32) as u32;
                // The first window's bases, the first lowest: complemented,
                // they are its reverse complement as `Kmer` packs it.
                let mut rc = !funnel(w0, w1, 2 * first) & self.mask;
                let mut fwd = reverse_complement_packed(rc, self.k);
                keys.push(fwd.min(rc));
                // At most k − m further bases, the i-th at bits 2i..2i + 2.
                let next = first + self.k as u32;
                let (lo, hi) = if next < 32 { (w0, w1) } else { (w1, w2) };
                let mut bases = funnel(lo, hi, 2 * (next % 32));
                // A range's length is known up front: `extend` reserves once
                // instead of checking the capacity per key.
                keys.extend((1..reference >> SuperKmer::WINDOWS_SHIFT).map(|_| {
                    let code = bases & 3;
                    bases >>= 2;
                    fwd = ((fwd << 2) | code) & self.mask;
                    rc = (rc >> 2) | ((3 ^ code) << self.rc_shift);
                    fwd.min(rc)
                }));
            }
        }
    }
}

/// Iterates over all k-mers of a base slice, left to right, one
/// [`Kmer::extend_right`] at a time: the naive reference the scanners are
/// tested against.
///
/// Returns an empty iterator if the sequence is shorter than `k`.
#[cfg(test)]
pub(crate) fn kmers_of(bases: &[Base], k: usize) -> impl Iterator<Item = Kmer> + '_ {
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
    use crate::ReadSet;
    use proptest::prelude::*;

    fn km(s: &str) -> Kmer {
        Kmer::from_str_exact(s).unwrap()
    }

    /// The canonical form of every k-mer window of `bases`, left to right,
    /// through the rolling [`CanonicalScanner`]; empty if the sequence is
    /// shorter than `k` (or `k` is out of range).
    fn canonical_kmers_of(bases: &[Base], k: usize) -> impl Iterator<Item = CanonicalKmer> + '_ {
        let mut scanner = CanonicalScanner::new(k).ok();
        bases.iter().filter_map(move |&b| scanner.as_mut()?.push(b))
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

    fn reverse_complement_ascii(read: &[u8]) -> Vec<u8> {
        read.iter()
            .rev()
            .map(|&c| match c {
                b'A' => b'T',
                b'C' => b'G',
                b'G' => b'C',
                b'T' => b'A',
                b'a' => b't',
                b'c' => b'g',
                b'g' => b'c',
                b't' => b'a',
                other => other,
            })
            .collect()
    }

    /// A read built from `(kind, len, seed)` pieces with every shape the
    /// super-k-mer scanner must get right: random ACGT in either case, `N`s,
    /// IUPAC codes, reverse palindromes, reverse-complement copies of what
    /// came before, poly-A and (AC)ₙ runs.
    fn pieced_read(pieces: &[(u8, usize, u64)]) -> Vec<u8> {
        let mut read = Vec::new();
        for &(kind, len, seed) in pieces {
            let mut state = seed | 1;
            let mut base = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                b"ACGT"[(state % 4) as usize]
            };
            match kind {
                0 | 1 => read.extend((0..len).map(|_| base())),
                2 => read.extend((0..len).map(|_| base().to_ascii_lowercase())),
                3 => read.extend(std::iter::repeat_n(b'N', len % 3 + 1)),
                4 => read.push(b"RYKMSWBDHV"[len % 10]),
                5 => {
                    let half: Vec<u8> = (0..len).map(|_| base()).collect();
                    read.extend(&half);
                    read.extend(reverse_complement_ascii(&half));
                }
                6 => {
                    let copy = reverse_complement_ascii(&read[read.len().saturating_sub(len)..]);
                    read.extend(copy);
                }
                7 => read.extend(std::iter::repeat_n(b'A', len)),
                _ => (0..len).for_each(|_| read.extend(b"AC")),
            }
        }
        read
    }

    /// `(run, canonical window)` for every window of `k` bases of `read`,
    /// `run` numbering the ACGT stretches between other bytes: each window
    /// canonicalised on its own by `Kmer::canonical`.
    fn naive_windows(read: &[u8], k: usize) -> Vec<(usize, Kmer)> {
        read.split(|&c| Base::from_ascii_checked(c).is_none())
            .enumerate()
            .flat_map(|(run, bases)| {
                bases.windows(k).map(move |w| {
                    let text = String::from_utf8(w.to_ascii_uppercase()).unwrap();
                    (run, Kmer::from_str_exact(&text).unwrap().canonical().kmer)
                })
            })
            .collect()
    }

    /// A window's minimizer the slow way: canonicalise each of its m-mers and
    /// take the one of smallest rank.
    fn naive_minimizer(window: Kmer, m: usize) -> u64 {
        window
            .to_bases()
            .windows(m)
            .map(|mmer| Kmer::from_bases(mmer).unwrap().canonical().kmer.packed())
            .min_by_key(|&mmer| rank(mmer))
            .unwrap()
    }

    #[test]
    fn super_kmer_scanner_rejects_invalid_k_and_clamps_m() {
        assert!(SuperKmerScanner::new(0).is_err());
        assert!(SuperKmerScanner::new(MAX_K + 1).is_err());
        let short = SuperKmerScanner::new(MINIMIZER_LEN - 1).unwrap();
        assert_eq!((short.m, short.max_windows()), (MINIMIZER_LEN - 1, 1));
        let full = SuperKmerScanner::new(MAX_K).unwrap();
        assert_eq!((full.m, full.max_windows()), (MINIMIZER_LEN, 22));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_super_kmers_decode_to_every_canonical_window_in_order(
            reads in proptest::collection::vec(
                proptest::collection::vec((0u8..9, 1usize..40, 0u64..u64::MAX), 0..6),
                1..5,
            ),
        ) {
            // Several reads in one slab: references carry the later reads'
            // starts, and a record's words may hold the bases of the reads
            // on either side of it.
            let reads: Vec<Vec<u8>> = reads.iter().map(|pieces| pieced_read(pieces)).collect();
            let slab: ReadSet = reads
                .iter()
                .enumerate()
                .map(|(i, read)| (format!("r{i}"), read))
                .collect();
            for k in 1..=MAX_K {
                let scanner = SuperKmerScanner::new(k).unwrap();
                let mut records = Vec::new();
                for (i, read) in slab.records.iter().enumerate() {
                    scanner.scan_codes(read.codes(), |sk| {
                        records.push((i, sk, sk.reference(read.start())));
                    });
                }
                // Each window with its read and its run between breaks.
                let naive: Vec<((usize, usize), Kmer)> = reads
                    .iter()
                    .enumerate()
                    .flat_map(|(i, read)| {
                        naive_windows(read, k).into_iter().map(move |(run, w)| ((i, run), w))
                    })
                    .collect();
                let references: Vec<u64> = records.iter().map(|&(_, _, r)| r).collect();
                let mut keys = Vec::new();
                scanner.decode_into(slab.records.words(), &references, &mut keys);
                let expected: Vec<u64> = naive.iter().map(|(_, w)| w.packed()).collect();
                prop_assert_eq!(keys, expected, "k = {}", k);

                // Record by record: within the cap, one run and one
                // minimizer, and ended only where it had to end.
                let mut at = 0;
                let mut previous: Option<((usize, usize), SuperKmer)> = None;
                for (i, sk, reference) in records {
                    let windows = sk.windows();
                    prop_assert!((1..=scanner.max_windows()).contains(&windows), "k = {}", k);
                    prop_assert_eq!(reference >> SuperKmer::WINDOWS_SHIFT, windows as u64);
                    let start = slab.records.get(i).unwrap().start();
                    prop_assert_eq!(reference & 0xFFFF_FFFF, start + sk.start as u64);
                    let run = naive[at].0;
                    prop_assert_eq!(run.0, i, "k = {}: a record left its read", k);
                    for &(r, window) in &naive[at..at + windows] {
                        prop_assert_eq!(r, run, "k = {}: a record spans a break", k);
                        prop_assert_eq!(
                            rank(naive_minimizer(window, scanner.m)),
                            sk.rank,
                            "k = {}", k
                        );
                        // Each window on its own, on either strand, has the
                        // record's minimizer.
                        let rc = window.reverse_complement().packed();
                        prop_assert_eq!(minimizer_rank(window.packed(), k), sk.rank, "k = {}", k);
                        prop_assert_eq!(minimizer_rank(rc, k), sk.rank, "k = {}", k);
                    }
                    if let Some((previous_run, previous)) = previous {
                        prop_assert!(
                            previous_run != run
                                || previous.rank != sk.rank
                                || previous.windows() == scanner.max_windows(),
                            "k = {}: a record ended early", k
                        );
                    }
                    previous = Some((run, sk));
                    at += windows;
                }
            }
        }

        #[test]
        fn prop_batched_minimizers_equal_minimizer_rank_lane_by_lane(
            words in proptest::collection::vec(0u64..u64::MAX, 8..=8),
        ) {
            // Every k, those at or below m included; the bits above 2k are
            // ignored by both.
            for k in 1..=MAX_K {
                let lanes: [u64; 8] = std::array::from_fn(|lane| words[lane]);
                let batched = minimizer_ranks(lanes, k);
                for (lane, &word) in lanes.iter().enumerate() {
                    prop_assert_eq!(batched[lane], minimizer_rank(word, k), "k = {}, lane {}", k, lane);
                }
            }
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
