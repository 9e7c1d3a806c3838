//! The four-letter DNA alphabet with the paper's 2-bit encoding.
//!
//! The paper (Section IV-A, Figure 7a) encodes each nucleotide with two bits:
//! `A = 00`, `C = 01`, `G = 10`, `T = 11`. This module provides that encoding,
//! complementation (`A↔T`, `C↔G`) and conversions to and from ASCII.

use crate::SeqError;

/// A single DNA nucleotide.
///
/// The discriminant values are exactly the 2-bit codes used throughout the
/// assembler's packed representations, so `base as u8` / [`Base::from_code`]
/// are the canonical conversions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Base {
    /// Adenine (code `00`).
    A = 0b00,
    /// Cytosine (code `01`).
    C = 0b01,
    /// Guanine (code `10`).
    G = 0b10,
    /// Thymine (code `11`).
    T = 0b11,
}

impl Base {
    /// Decodes a 2-bit code (only the two low bits are observed).
    #[inline]
    pub fn from_code(code: u8) -> Base {
        match code & 0b11 {
            0b00 => Base::A,
            0b01 => Base::C,
            0b10 => Base::G,
            _ => Base::T,
        }
    }

    /// The 2-bit code of this base.
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// The Watson–Crick complement (`A↔T`, `C↔G`).
    ///
    /// With the chosen encoding the complement is simply the bitwise negation
    /// of the 2-bit code, which is what makes reverse-complementing packed
    /// k-mers cheap.
    #[inline]
    pub fn complement(self) -> Base {
        Base::from_code(!self.code())
    }

    /// Parses an ASCII nucleotide. Lower-case is accepted. `N` (or any other
    /// IUPAC ambiguity code) is *not* a valid [`Base`]; callers that need to
    /// handle `N` should use [`Base::from_ascii_checked`] and treat `None` as a
    /// break point, as DBG construction does.
    #[inline]
    pub fn from_ascii(c: u8) -> Result<Base, SeqError> {
        Base::from_ascii_checked(c).ok_or(SeqError::InvalidBase(c as char))
    }

    /// Like [`Base::from_ascii`] but returns `None` instead of an error, which
    /// is convenient when splitting reads on `N` characters.
    #[inline]
    pub const fn from_ascii_checked(c: u8) -> Option<Base> {
        match c {
            b'A' | b'a' => Some(Base::A),
            b'C' | b'c' => Some(Base::C),
            b'G' | b'g' => Some(Base::G),
            b'T' | b't' => Some(Base::T),
            _ => None,
        }
    }

    /// The upper-case ASCII character for this base.
    #[inline]
    pub fn to_ascii(self) -> u8 {
        match self {
            Base::A => b'A',
            Base::C => b'C',
            Base::G => b'G',
            Base::T => b'T',
        }
    }

    /// The upper-case `char` for this base.
    #[inline]
    pub fn to_char(self) -> char {
        self.to_ascii() as char
    }

    /// Whether this base is G or C (used for GC-content statistics).
    #[inline]
    pub fn is_gc(self) -> bool {
        matches!(self, Base::G | Base::C)
    }
}

impl std::fmt::Display for Base {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

/// Parses an ASCII DNA string into bases, rejecting any non-ACGT character.
pub fn parse_bases(s: &str) -> Result<Vec<Base>, SeqError> {
    s.bytes().map(Base::from_ascii).collect()
}

/// Reverse-complements a slice of bases into a new vector.
pub fn reverse_complement(bases: &[Base]) -> Vec<Base> {
    bases.iter().rev().map(|b| b.complement()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All four bases in code order.
    const ALL_BASES: [Base; 4] = [Base::A, Base::C, Base::G, Base::T];

    #[test]
    fn codes_match_paper() {
        assert_eq!(Base::A.code(), 0b00);
        assert_eq!(Base::C.code(), 0b01);
        assert_eq!(Base::G.code(), 0b10);
        assert_eq!(Base::T.code(), 0b11);
    }

    #[test]
    fn from_code_roundtrip() {
        for code in 0u8..4 {
            assert_eq!(Base::from_code(code).code(), code);
        }
        // Only the low two bits matter.
        assert_eq!(Base::from_code(0b0100), Base::A);
        assert_eq!(Base::from_code(0b111), Base::T);
    }

    #[test]
    fn complement_pairs() {
        assert_eq!(Base::A.complement(), Base::T);
        assert_eq!(Base::T.complement(), Base::A);
        assert_eq!(Base::C.complement(), Base::G);
        assert_eq!(Base::G.complement(), Base::C);
        for b in ALL_BASES {
            assert_eq!(b.complement().complement(), b);
        }
    }

    #[test]
    fn ascii_roundtrip() {
        for b in ALL_BASES {
            assert_eq!(Base::from_ascii(b.to_ascii()).unwrap(), b);
            assert_eq!(
                Base::from_ascii(b.to_ascii().to_ascii_lowercase()).unwrap(),
                b
            );
        }
        assert!(Base::from_ascii(b'N').is_err());
        assert!(Base::from_ascii_checked(b'N').is_none());
        assert!(Base::from_ascii(b'-').is_err());
    }

    #[test]
    fn parse_and_render() {
        let bases = parse_bases("ATTGCAAGT").unwrap();
        assert_eq!(bases.len(), 9);
        assert_eq!(
            bases.iter().map(|b| b.to_char()).collect::<String>(),
            "ATTGCAAGT"
        );
        assert!(parse_bases("ATTNGC").is_err());
    }

    #[test]
    fn reverse_complement_of_strand1_is_strand2() {
        // Figure 3 of the paper: strand 1 = ATTGCAAGTC, strand 2 (5'→3') = GACTTGCAAT.
        let strand1 = parse_bases("ATTGCAAGTC").unwrap();
        let rc = reverse_complement(&strand1);
        assert_eq!(
            rc.iter().map(|b| b.to_char()).collect::<String>(),
            "GACTTGCAAT"
        );
    }

    #[test]
    fn gc_detection() {
        assert!(Base::G.is_gc());
        assert!(Base::C.is_gc());
        assert!(!Base::A.is_gc());
        assert!(!Base::T.is_gc());
    }

    #[test]
    fn display_formats_as_letter() {
        assert_eq!(
            format!("{}{}{}{}", Base::A, Base::C, Base::G, Base::T),
            "ACGT"
        );
    }
}
