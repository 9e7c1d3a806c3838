//! Compact adjacency of k-mer vertices (Figure 8).
//!
//! Right after DBG construction the graph consists solely of k-mer vertices,
//! and the overlapping k-mers make this the most memory-hungry stage of the
//! whole pipeline. The paper therefore stores a k-mer vertex's neighbourhood
//! as a **32-bit bitmap**: one bit for every combination of edge polarity
//! (⟨L:L⟩, ⟨L:H⟩, ⟨H:L⟩, ⟨H:H⟩), edge direction (in/out) and appended/prepended
//! nucleotide (A/C/G/T) — 4 × 2 × 4 = 32 possibilities — plus one coverage
//! counter per set bit. The neighbour's ID is not stored at all: it can be
//! recomputed from the owning k-mer and the bit's meaning
//! ([`EdgeSlot::neighbor_of`]).
//!
//! The graph keeps Figure 8(a) as columns
//! ([`KmerGraph`](crate::node::KmerGraph)): a bitmap column beside the k-mer
//! column, and every vertex's counters, in bit order, in one flat coverage
//! column, so no vertex owns an allocation. This module holds what a bit
//! means ([`EdgeSlot`]) and which slots an observed (k+1)-mer occupies
//! ([`edge_contributions`]).
//!
//! The per-neighbour **8-bit item** of Figure 8(b) ([`CompactNeighbor`]) is the
//! uncompressed equivalent used once vertices start tracking heterogeneous
//! neighbours; it encodes the same three coordinates in a single byte.

use crate::polarity::{Direction, Polarity};
use ppa_seq::{Base, Kmer};

/// One of the 32 possible adjacency "slots" of a k-mer vertex: an edge with a
/// given polarity and direction whose neighbour differs from the owning k-mer
/// by one appended (out) or prepended (in) base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeSlot {
    /// Edge polarity ⟨source:target⟩ in the edge's stored direction.
    pub polarity: Polarity,
    /// Whether the owning vertex is the source (`Out`) or target (`In`).
    pub direction: Direction,
    /// The base appended to the suffix (out-edges) or prepended to the prefix
    /// (in-edges) of the observed k-mer to obtain the observed neighbour.
    pub base: Base,
}

/// The bitmap bits whose slots attach to the right side of the owning
/// k-mer ([`Side::Right`](crate::polarity::Side)): an out-edge of ⟨L:L⟩ or
/// ⟨L:H⟩ or an in-edge of ⟨L:H⟩ or ⟨H:H⟩. The other bits attach left.
pub(crate) const RIGHT_SLOTS: u32 = 0x0F00_FFF0;

/// [`EdgeSlot::neighbor_of`] for the slot at `bit`, given the owning
/// k-mer `own` and its reverse complement `rc`: the slot's coordinates are
/// read off the bit, so the slots of one vertex share one reverse
/// complement and a decode takes no branch on them, nor on which strand of
/// the neighbour is canonical (the smaller, as [`Kmer::canonical`]). The
/// owning k-mer reads reverse-complemented when its label on the edge is
/// H: the source's label (polarity bit 1) on an out-edge, the target's
/// (polarity bit 0) on an in-edge.
#[inline]
pub(crate) fn neighbor_at(bit: u32, own: Kmer, rc: Kmer) -> Kmer {
    let (polarity, out, base) = (bit / 8, bit & 4 != 0, Base::from_code((bit & 3) as u8));
    let reversed = (if out { polarity >> 1 } else { polarity }) & 1 == 1;
    let observed = if reversed { rc } else { own };
    let slid = if out {
        observed.extend_right(base)
    } else {
        observed.extend_left(base)
    };
    slid.min(slid.reverse_complement())
}

impl EdgeSlot {
    /// Bit index of this slot inside the 32-bit bitmap.
    #[inline]
    pub fn bit(&self) -> u32 {
        (self.polarity.index() as u32) * 8
            + if self.direction == Direction::Out {
                4
            } else {
                0
            }
            + self.base.code() as u32
    }

    /// Inverse of [`EdgeSlot::bit`].
    #[inline]
    pub fn from_bit(bit: u32) -> EdgeSlot {
        debug_assert!(bit < 32);
        EdgeSlot {
            polarity: Polarity::from_index((bit / 8) as usize),
            direction: if bit % 8 >= 4 {
                Direction::Out
            } else {
                Direction::In
            },
            base: Base::from_code((bit % 4) as u8),
        }
    }

    /// Reconstructs the *canonical* neighbour k-mer this slot refers to, given
    /// the owning (canonical) k-mer.
    ///
    /// This is the derivation the paper walks through for its Figure 8(b)
    /// example: orient the owning k-mer according to its own polarity label,
    /// slide the window by one base in the edge's direction, then canonicalise
    /// the result.
    pub fn neighbor_of(&self, own: &Kmer) -> Kmer {
        debug_assert!(own.is_canonical());
        neighbor_at(self.bit(), *own, own.reverse_complement())
    }

    /// Encodes the slot as the 8-bit adjacency item of Figure 8(b):
    /// `0 0 0 X X Y Z Z` with `XX` = base, `Y` = in/out, `ZZ` = polarity.
    #[inline]
    // ppa_lint: allow(test-only-pub) Figure 8(b)'s encoding, which the tests pin to the paper's examples
    pub fn to_compact(&self) -> CompactNeighbor {
        CompactNeighbor(
            (self.base.code() << 3)
                | (u8::from(self.direction == Direction::In) << 2)
                | self.polarity.index() as u8,
        )
    }
}

/// The 8-bit per-neighbour adjacency item of Figure 8(b).
///
/// The value `0b1000_0000` is the NULL marker indicating a dead end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
// ppa_lint: allow(test-only-pub) Figure 8(b)'s 8-bit adjacency item, the paper's documented per-neighbour format
pub struct CompactNeighbor(pub u8);

impl CompactNeighbor {
    /// The NULL (dead-end) marker.
    // ppa_lint: allow(test-only-pub) Figure 8(b)'s dead-end item
    pub const NULL: CompactNeighbor = CompactNeighbor(0b1000_0000);

    /// Whether this item is the NULL marker.
    #[inline]
    pub fn is_null(&self) -> bool {
        self.0 & 0b1000_0000 != 0
    }

    /// Decodes the item into an [`EdgeSlot`]; `None` for the NULL marker.
    #[inline]
    pub fn decode(&self) -> Option<EdgeSlot> {
        if self.is_null() {
            return None;
        }
        Some(EdgeSlot {
            base: Base::from_code((self.0 >> 3) & 0b11),
            direction: if self.0 & 0b100 != 0 {
                Direction::In
            } else {
                Direction::Out
            },
            polarity: Polarity::from_index((self.0 & 0b11) as usize),
        })
    }
}

/// Computes, for an observed (k+1)-mer with the given coverage, the two
/// partial adjacency contributions it induces: one slot on its prefix vertex
/// (an out-edge) and one slot on its suffix vertex (an in-edge).
///
/// Returns `((source_vertex, source_slot), (target_vertex, target_slot))`.
/// The (k+1)-mer should be passed in its canonical orientation (the counting
/// key of construction phase (i)); passing the other orientation yields the
/// equivalent edge expressed in the opposite direction (Property 1).
pub fn edge_contributions(kplus1: &Kmer) -> ((Kmer, EdgeSlot), (Kmer, EdgeSlot)) {
    let prefix = kplus1.prefix();
    let suffix = kplus1.suffix();
    let src = prefix.canonical();
    let tgt = suffix.canonical();
    let polarity = Polarity::from_labels(src.orientation, tgt.orientation);
    let source_slot = EdgeSlot {
        polarity,
        direction: Direction::Out,
        base: kplus1.last(),
    };
    let target_slot = EdgeSlot {
        polarity,
        direction: Direction::In,
        base: kplus1.first(),
    };
    ((src.kmer, source_slot), (tgt.kmer, target_slot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn km(s: &str) -> Kmer {
        Kmer::from_str_exact(s).unwrap()
    }

    #[test]
    fn right_slots_are_the_bits_whose_edges_attach_right() {
        for bit in 0..32 {
            let slot = EdgeSlot::from_bit(bit);
            let right = crate::polarity::side_of(slot.direction, slot.polarity)
                == crate::polarity::Side::Right;
            assert_eq!(RIGHT_SLOTS & (1 << bit) != 0, right, "bit {bit}");
        }
    }

    #[test]
    fn the_slot_arithmetic_equals_the_papers_derivation() {
        // Figure 8(b)'s derivation spelled out on the slot's enums.
        let derived = |slot: EdgeSlot, own: Kmer| {
            let label = match slot.direction {
                Direction::Out => slot.polarity.source_label(),
                Direction::In => slot.polarity.target_label(),
            };
            let observed = match label {
                ppa_seq::Orientation::Forward => own,
                ppa_seq::Orientation::ReverseComplement => own.reverse_complement(),
            };
            let slid = match slot.direction {
                Direction::Out => observed.extend_right(slot.base),
                Direction::In => observed.extend_left(slot.base),
            };
            slid.canonical().kmer
        };
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for k in [1usize, 2, 5, 11, 31, 32] {
            for _ in 0..20 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let own = Kmer::from_packed(state >> (64 - 2 * k), k)
                    .unwrap()
                    .canonical()
                    .kmer;
                for bit in 0..32 {
                    let slot = EdgeSlot::from_bit(bit);
                    assert_eq!(
                        slot.neighbor_of(&own),
                        derived(slot, own),
                        "k = {k}, bit {bit}"
                    );
                }
            }
        }
    }

    #[test]
    fn slot_bit_roundtrip() {
        for bit in 0..32 {
            let slot = EdgeSlot::from_bit(bit);
            assert_eq!(slot.bit(), bit);
        }
    }

    #[test]
    fn compact_item_matches_paper_example_1() {
        // Figure 8(b), item ①: bitmap 00010111 = in-neighbour of "ACGG",
        // polarity ⟨H:H⟩, prepend G; neighbour works out to "CGGC".
        let item = CompactNeighbor(0b0001_0111);
        let slot = item.decode().unwrap();
        assert_eq!(slot.base, Base::G);
        assert_eq!(slot.direction, Direction::In);
        assert_eq!(slot.polarity, Polarity::HH);
        assert_eq!(slot.neighbor_of(&km("ACGG")).to_string(), "CGGC");
        assert_eq!(slot.to_compact(), item);
    }

    #[test]
    fn compact_item_matches_paper_example_2() {
        // Figure 8(b), item ②: bitmap 00000010 = out-neighbour of "ACGG",
        // polarity ⟨H:L⟩, append A; neighbour works out to "CGTA".
        let item = CompactNeighbor(0b0000_0010);
        let slot = item.decode().unwrap();
        assert_eq!(slot.base, Base::A);
        assert_eq!(slot.direction, Direction::Out);
        assert_eq!(slot.polarity, Polarity::HL);
        assert_eq!(slot.neighbor_of(&km("ACGG")).to_string(), "CGTA");
        assert_eq!(slot.to_compact(), item);
    }

    #[test]
    fn null_compact_item() {
        assert!(CompactNeighbor::NULL.is_null());
        assert_eq!(CompactNeighbor::NULL.0, 0b1000_0000);
        assert!(CompactNeighbor::NULL.decode().is_none());
        assert!(!CompactNeighbor(0).is_null());
    }

    #[test]
    fn edge_contributions_simple_forward_edge() {
        // 3-mer "ATT" (canonical: ATT vs rc AAT → AAT is smaller! Let's check:
        // AAT < ATT, so canonical form of this (k+1)-mer is AAT.) Use "ACG"
        // instead: rc(ACG) = CGT, canonical = ACG. Prefix "AC" (canonical,
        // rc=GT → AC), suffix "CG" (palindrome).
        let e = km("ACG");
        let ((src, s_slot), (tgt, t_slot)) = edge_contributions(&e);
        assert_eq!(src.to_string(), "AC");
        assert_eq!(tgt.to_string(), "CG");
        assert_eq!(s_slot.direction, Direction::Out);
        assert_eq!(t_slot.direction, Direction::In);
        assert_eq!(s_slot.polarity, Polarity::LL);
        assert_eq!(t_slot.polarity, Polarity::LL);
        assert_eq!(s_slot.base, Base::G);
        assert_eq!(t_slot.base, Base::A);
        // The slots must point back at each other.
        assert_eq!(s_slot.neighbor_of(&src), tgt);
        assert_eq!(t_slot.neighbor_of(&tgt), src);
    }

    #[test]
    fn edge_contributions_with_reverse_complement_vertex() {
        // Figure 6 example: (k+1)-mer "AGT" (k=2). rc(AGT)=ACT < AGT, so the
        // canonical counting key is ACT; but the edge it represents is
        // AG→GT ⇔ AC→AG reversed... Verify via the paper's stitching example:
        // edge "AG"→"GT" where "GT" is stored as canonical "AC" with label H.
        let e = km("AGT");
        let canon = e.canonical().kmer; // ACT
        let ((src, s_slot), (tgt, t_slot)) = edge_contributions(&canon);
        // ACT: prefix AC (canonical), suffix CT → canonical AG with label H.
        assert_eq!(src.to_string(), "AC");
        assert_eq!(tgt.to_string(), "AG");
        assert_eq!(s_slot.polarity, Polarity::LH);
        // Neighbour derivation must be mutually consistent.
        assert_eq!(s_slot.neighbor_of(&src), tgt);
        assert_eq!(t_slot.neighbor_of(&tgt), src);
    }

    proptest! {
        #[test]
        fn prop_edge_contributions_are_mutually_consistent(
            codes in proptest::collection::vec(0u8..4, 2..=31)
        ) {
            let bases: Vec<Base> = codes.iter().map(|c| Base::from_code(*c)).collect();
            let kp1 = Kmer::from_bases(&bases).unwrap().canonical().kmer;
            let ((src, s_slot), (tgt, t_slot)) = edge_contributions(&kp1);
            prop_assert!(src.is_canonical());
            prop_assert!(tgt.is_canonical());
            // Each side's slot reconstructs the other side.
            prop_assert_eq!(s_slot.neighbor_of(&src), tgt);
            prop_assert_eq!(t_slot.neighbor_of(&tgt), src);
            // Compact encoding round-trips.
            prop_assert_eq!(s_slot.to_compact().decode().unwrap(), s_slot);
            prop_assert_eq!(t_slot.to_compact().decode().unwrap(), t_slot);
        }
    }
}
