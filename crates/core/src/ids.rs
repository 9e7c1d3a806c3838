//! 64-bit vertex identifiers (Figure 7 of the paper).
//!
//! PPA-assembler encodes everything it needs to know about a vertex's identity
//! into a single 64-bit integer so that message routing works on plain words:
//!
//! * **k-mer vertices** (Figure 7a): the 2-bit packed canonical k-mer sequence,
//!   right-aligned; for k ≤ 31 at most 62 bits are used and the top two bits
//!   are zero.
//! * **NULL** (Figure 7b): the dummy neighbour that marks a dead end; only the
//!   most significant bit is set.
//! * **contig vertices** (Figure 7c): the most significant bit is set and the
//!   remaining bits hold an ordinal, because a contig's sequence can be
//!   arbitrarily long and cannot be embedded in the ID.
//!
//! The paper has a fourth kind, *flipped* IDs: during contig labeling a
//! contig end replaces its edge to an ambiguous vertex by a self-loop whose
//! target carries a flipped bit, marking "this pointer has reached a contig
//! end". Here labeling runs on dense `u32` ranks of the node set's IDs (see
//! `ranks.rs` and [`crate::ops::label`]) and the flip bit is bit 31 of a
//! rank; no 64-bit ID ever carries it.
//!
//! Deviation from the paper: a contig ID has no worker field. In the paper
//! it is `worker ‖ ordinal`, minted by the reduce worker that stitched the
//! contig, so the IDs depend on how labels were hashed to workers. Here the
//! ordinal alone names the contig: contig merging ([`crate::ops::merge`])
//! numbers the groups it keeps 1, 2, … in ascending label order — the order
//! of the labels' ranks in the node set, which no worker count changes — and
//! continues above the largest contig ordinal of the node set it merges, so a
//! correction round never reuses an earlier round's ID. Ordinals start at 1
//! so that no contig ID equals NULL.

use ppa_seq::Kmer;

/// The dummy neighbour ID marking a dead end (Figure 7b).
pub const NULL_ID: u64 = 1 << 63;

/// Bit marking contig (and NULL) IDs.
const CONTIG_MARK: u64 = 1 << 63;

/// Builds the vertex ID of a canonical k-mer.
///
/// The caller is responsible for passing the *canonical* form; in debug builds
/// this is asserted.
#[inline]
pub fn kmer_id(kmer: &Kmer) -> u64 {
    debug_assert!(
        kmer.is_canonical(),
        "k-mer vertex IDs must encode the canonical form"
    );
    kmer.packed()
}

/// Builds the vertex ID of the contig numbered `ordinal` (1-based).
///
/// # Panics
///
/// Panics if `ordinal` is 0 (reserved so that no contig ID collides with
/// [`NULL_ID`]) or does not fit below the contig mark.
#[inline]
pub fn contig_id(ordinal: u64) -> u64 {
    assert!(
        ordinal > 0,
        "contig ordinals are 1-based to avoid colliding with NULL"
    );
    assert!(
        ordinal & CONTIG_MARK == 0,
        "contig ordinal {ordinal:#x} does not fit below the contig mark"
    );
    CONTIG_MARK | ordinal
}

/// The ordinal of contig ID `id` ([`contig_id`]'s argument).
#[inline]
pub(crate) fn contig_ordinal(id: u64) -> u64 {
    debug_assert!(is_contig_id(id), "{id:#x} is no contig ID");
    id & !CONTIG_MARK
}

/// Whether `id` is the NULL dummy neighbour.
#[inline]
pub fn is_null(id: u64) -> bool {
    id == NULL_ID
}

/// Whether `id` identifies a contig vertex.
#[inline]
pub fn is_contig_id(id: u64) -> bool {
    id & CONTIG_MARK != 0 && !is_null(id)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `id` identifies a k-mer vertex.
    fn is_kmer_id(id: u64) -> bool {
        id & CONTIG_MARK == 0
    }

    #[test]
    fn kmer_id_matches_packed_encoding() {
        // Figure 7(a): "ATTGC" → 00 11 11 10 01.
        let k = Kmer::from_str_exact("ATTGC").unwrap();
        assert!(k.is_canonical());
        let id = kmer_id(&k);
        assert_eq!(id, 0b00_11_11_10_01);
        assert!(is_kmer_id(id));
        assert!(!is_contig_id(id));
        assert!(!is_null(id));
        assert_eq!(Kmer::from_packed(id, 5).unwrap(), k);
    }

    #[test]
    fn null_id_is_msb_only() {
        assert_eq!(NULL_ID, 0x8000_0000_0000_0000);
        assert!(is_null(NULL_ID));
        assert!(!is_kmer_id(NULL_ID));
        assert!(!is_contig_id(NULL_ID));
    }

    #[test]
    fn contig_ids_carry_their_ordinal() {
        let id = contig_id(17);
        assert!(is_contig_id(id));
        assert!(!is_kmer_id(id));
        assert!(!is_null(id));
        assert_eq!(contig_ordinal(id), 17);
        // Distinct ordinals give distinct IDs, ordered as the ordinals.
        assert!(contig_id(18) > id);
        let largest = contig_id(!CONTIG_MARK);
        assert_eq!((largest, contig_ordinal(largest)), (u64::MAX, !CONTIG_MARK));
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn contig_ordinal_zero_rejected() {
        contig_id(0);
    }

    #[test]
    #[should_panic(expected = "below the contig mark")]
    fn an_ordinal_on_the_contig_mark_is_rejected() {
        contig_id(CONTIG_MARK);
    }

    #[test]
    fn id_spaces_are_disjoint() {
        let kmer = kmer_id(&Kmer::from_str_exact("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA").unwrap());
        let contig = contig_id(1);
        assert!(is_kmer_id(kmer) && !is_contig_id(kmer));
        assert!(is_contig_id(contig) && !is_kmer_id(contig));
        assert_ne!(contig, NULL_ID);
        assert_ne!(kmer, NULL_ID);
    }
}
