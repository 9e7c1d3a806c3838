//! Edge polarity ⟨X:Y⟩ and the left/right *side* abstraction.
//!
//! Because reads come from both strands, the de Bruijn graph uses canonical
//! k-mers as vertices and every edge carries a **polarity** ⟨X:Y⟩ recording
//! whether the source (X) and target (Y) k-mers were observed in canonical
//! orientation (`L`) or reverse-complemented (`H`) — Section III,
//! "Directionality". Property 1 of the paper states that the edge `(u,v)` with
//! polarity ⟨X:Y⟩ is the same physical adjacency as `(v,u)` with
//! polarity ⟨Ȳ:X̄⟩; [`Polarity::reversed`] implements exactly that.
//!
//! For reasoning about vertex types and contig stitching it is convenient to
//! translate (direction, polarity) into which **side** of the canonical k-mer
//! the edge attaches to: an edge that extends the canonical sequence to the
//! right attaches on the [`Side::Right`], one that extends it to the left on
//! the [`Side::Left`]. A vertex is unambiguous (type ⟨1-1⟩) exactly when it has
//! one edge on each side.

use ppa_seq::Orientation;

/// Whether, in a given edge record, the owning vertex is the edge's source or
/// target (i.e. the edge is an out-edge or in-edge of that vertex).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// The owning vertex is the source of the edge.
    Out,
    /// The owning vertex is the target of the edge.
    In,
}

impl Direction {
    /// The opposite direction.
    #[inline]
    pub fn reversed(self) -> Direction {
        match self {
            Direction::Out => Direction::In,
            Direction::In => Direction::Out,
        }
    }
}

/// The side of a canonical k-mer (or contig) sequence that an edge attaches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The edge extends the canonical sequence to the left (before its first base).
    Left,
    /// The edge extends the canonical sequence to the right (after its last base).
    Right,
}

/// Edge polarity ⟨source label : target label⟩ (Figure 6 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// ⟨L:L⟩ — both end k-mers observed in canonical orientation.
    LL,
    /// ⟨L:H⟩ — source canonical, target reverse-complemented.
    LH,
    /// ⟨H:L⟩ — source reverse-complemented, target canonical.
    HL,
    /// ⟨H:H⟩ — both reverse-complemented.
    HH,
}

impl Polarity {
    /// Builds a polarity from the two observed orientations.
    #[inline]
    pub fn from_labels(source: Orientation, target: Orientation) -> Polarity {
        use Orientation::{Forward as L, ReverseComplement as H};
        match (source, target) {
            (L, L) => Polarity::LL,
            (L, H) => Polarity::LH,
            (H, L) => Polarity::HL,
            (H, H) => Polarity::HH,
        }
    }

    /// The label on the source side.
    #[inline]
    pub fn source_label(self) -> Orientation {
        match self {
            Polarity::LL | Polarity::LH => Orientation::Forward,
            Polarity::HL | Polarity::HH => Orientation::ReverseComplement,
        }
    }

    /// The label on the target side.
    #[inline]
    pub fn target_label(self) -> Orientation {
        match self {
            Polarity::LL | Polarity::HL => Orientation::Forward,
            Polarity::LH | Polarity::HH => Orientation::ReverseComplement,
        }
    }

    /// Property 1: the polarity of the same edge read in the opposite
    /// direction — the labels swap positions and are complemented.
    #[inline]
    pub fn reversed(self) -> Polarity {
        Polarity::from_labels(self.target_label().flip(), self.source_label().flip())
    }

    /// Index in `0..4`, used by the packed 32-bit adjacency bitmap.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Polarity::LL => 0,
            Polarity::LH => 1,
            Polarity::HL => 2,
            Polarity::HH => 3,
        }
    }

    /// Inverse of [`Polarity::index`].
    #[inline]
    pub fn from_index(idx: usize) -> Polarity {
        match idx & 0b11 {
            0 => Polarity::LL,
            1 => Polarity::LH,
            2 => Polarity::HL,
            _ => Polarity::HH,
        }
    }

    /// Display form matching the paper, e.g. `⟨L:H⟩`.
    fn notation(self) -> &'static str {
        match self {
            Polarity::LL => "<L:L>",
            Polarity::LH => "<L:H>",
            Polarity::HL => "<H:L>",
            Polarity::HH => "<H:H>",
        }
    }
}

impl std::fmt::Display for Polarity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.notation())
    }
}

/// The label the *owning* vertex has on an edge stored with the given
/// direction and polarity.
#[inline]
pub fn own_label(direction: Direction, polarity: Polarity) -> Orientation {
    match direction {
        Direction::Out => polarity.source_label(),
        Direction::In => polarity.target_label(),
    }
}

/// The label the *neighbour* vertex has on an edge stored with the given
/// direction and polarity.
#[inline]
pub fn neighbor_label(direction: Direction, polarity: Polarity) -> Orientation {
    match direction {
        Direction::Out => polarity.target_label(),
        Direction::In => polarity.source_label(),
    }
}

/// The side of the owning vertex's canonical sequence that the edge attaches
/// to.
///
/// An out-edge where the vertex is observed canonically (`L`) extends the
/// sequence on the right; reverse-complementing the observation (`H`) flips
/// the side, as does looking at an in-edge instead of an out-edge.
#[inline]
pub fn side_of(direction: Direction, polarity: Polarity) -> Side {
    use Orientation::{Forward, ReverseComplement};
    match (direction, own_label(direction, polarity)) {
        (Direction::Out, Forward) | (Direction::In, ReverseComplement) => Side::Right,
        (Direction::Out, ReverseComplement) | (Direction::In, Forward) => Side::Left,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_seq::Orientation::{Forward as L, ReverseComplement as H};
    use proptest::prelude::*;

    const ALL: [Polarity; 4] = [Polarity::LL, Polarity::LH, Polarity::HL, Polarity::HH];

    #[test]
    fn labels_roundtrip() {
        for p in ALL {
            assert_eq!(Polarity::from_labels(p.source_label(), p.target_label()), p);
            assert_eq!(Polarity::from_index(p.index()), p);
        }
        assert_eq!(Polarity::from_labels(L, H), Polarity::LH);
        assert_eq!(Polarity::from_labels(H, L), Polarity::HL);
    }

    #[test]
    fn property_1_examples_from_paper() {
        // "Edge (u,v) with polarity ⟨X:Y⟩ is equivalent to edge (v,u) with
        // polarity ⟨Ȳ:X̄⟩." The paper's example: "AC" --<L:H>--> "AG" is
        // equivalent to "AG" --<L:H>--> "AC".
        assert_eq!(Polarity::LH.reversed(), Polarity::LH);
        assert_eq!(Polarity::HL.reversed(), Polarity::HL);
        assert_eq!(Polarity::LL.reversed(), Polarity::HH);
        assert_eq!(Polarity::HH.reversed(), Polarity::LL);
    }

    #[test]
    fn reversal_is_involution() {
        for p in ALL {
            assert_eq!(p.reversed().reversed(), p);
        }
    }

    #[test]
    fn own_and_neighbor_labels() {
        assert_eq!(own_label(Direction::Out, Polarity::LH), L);
        assert_eq!(neighbor_label(Direction::Out, Polarity::LH), H);
        assert_eq!(own_label(Direction::In, Polarity::LH), H);
        assert_eq!(neighbor_label(Direction::In, Polarity::LH), L);
    }

    #[test]
    fn sides_follow_orientation() {
        // Out-edge, vertex canonical → extends to the right.
        assert_eq!(side_of(Direction::Out, Polarity::LL), Side::Right);
        assert_eq!(side_of(Direction::Out, Polarity::LH), Side::Right);
        // Out-edge, vertex reverse-complemented → the extension is on the left
        // of the canonical sequence.
        assert_eq!(side_of(Direction::Out, Polarity::HL), Side::Left);
        assert_eq!(side_of(Direction::Out, Polarity::HH), Side::Left);
        // In-edges mirror out-edges.
        assert_eq!(side_of(Direction::In, Polarity::LL), Side::Left);
        assert_eq!(side_of(Direction::In, Polarity::HL), Side::Left);
        assert_eq!(side_of(Direction::In, Polarity::LH), Side::Right);
        assert_eq!(side_of(Direction::In, Polarity::HH), Side::Right);
    }

    #[test]
    fn side_is_invariant_under_property_1() {
        // Re-expressing an edge in the opposite direction must not change which
        // side of the vertex it attaches to — otherwise vertex typing would
        // depend on the arbitrary storage direction.
        for p in ALL {
            for d in [Direction::Out, Direction::In] {
                let side = side_of(d, p);
                let side_rev = side_of(d.reversed(), p.reversed());
                assert_eq!(side, side_rev, "direction {d:?}, polarity {p}");
            }
        }
    }

    #[test]
    fn display_notation() {
        assert_eq!(Polarity::LH.to_string(), "<L:H>");
        assert_eq!(Polarity::HH.to_string(), "<H:H>");
        assert_eq!(Direction::Out.reversed(), Direction::In);
    }

    proptest! {
        #[test]
        fn prop_reversed_swaps_and_flips(idx in 0usize..4) {
            let p = Polarity::from_index(idx);
            let r = p.reversed();
            prop_assert_eq!(r.source_label(), p.target_label().flip());
            prop_assert_eq!(r.target_label(), p.source_label().flip());
        }
    }
}
