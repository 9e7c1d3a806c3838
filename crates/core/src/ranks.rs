//! Dense `u32` ranks for the 64-bit vertex IDs of one node set.
//!
//! A vertex ID ([`crate::ids`]) spends up to 64 bits addressing one of a few
//! hundred thousand vertices. A [`RankDict`] is the sorted ID column of a
//! node set; a vertex's **rank** is its position in it. Ranks order exactly
//! as IDs do, so a minimum taken over ranks names the vertex with the
//! smallest ID, and every ID outside the set shares the one-past-the-end rank
//! [`RankDict::len`], which is no vertex — a Pregel message sent there is
//! dropped like one sent to the missing ID.
//!
//! A node set lists its nodes in strictly ascending ID order (the
//! [`NodeSource`](crate::node::NodeSource) contract), so its ID column is
//! the dictionary as it is and a vertex's rank is its position:
//! [`RankDict::new`], the one constructor, only checks the order and builds
//! the prefix table. Nothing is sorted or merged. Round 1's column is
//! construct's k-mer column, borrowed; round 2's — the ambiguous k-mers,
//! then the contigs, read where they lie — is collected.
//!
//! Every Pregel job of the assembler runs in rank space. Both contig
//! labelings — list ranking ([`crate::ops::label`]), its S-V cycle fallback
//! included, and simplified S-V ([`crate::ops::label_sv`]) — share the way
//! in, [`RankDict::new`] and [`run_on`] (every pool worker builds the states
//! of the ranks it will own, variable-length lists in one slab per worker;
//! the job runs; one outcome per rank comes back), and never leave rank
//! space: their outcome is one `u32` per rank of the node set, the rank of
//! the vertex's label or [`AMBIGUOUS`]. Both run on the slots of
//! minimizer-block fragments (`ops/blocks.rs`), one per fragment in rank
//! order, and copy each slot's outcome to its ranks once at the end; `run_on`
//! is told how many ranks it runs over. The fallback is S-V's job over the
//! slots list ranking left unresolved, every other slot taking no part.
//! Contraction finds a fragment's members among its key group's IDs, so the
//! dictionary serves only the fragments' boundaries: the ranks beyond their
//! two ends, looked up in one batch per worker, and an ambiguous vertex's
//! neighbours. Tip removing ([`crate::ops::tip`]) ranks the node set round 2
//! labels — the ambiguous k-mers, then the contigs — with the same
//! constructor, and runs its own job on the dense plane: it reads back
//! whole states, not one outcome per rank.
//!
//! Contig merging ([`crate::ops::merge`]) groups the node set's positions by
//! that column as it is: a vertex's rank is its position, so it needs no
//! dictionary and looks nothing up.
//!
//! Ranks are consecutive integers, so every job `run_on` runs takes the
//! engine's dense plane ([`ppa_pregel::dense`]): range ownership, states in
//! a plain array, a counting scatter for delivery. Like every Pregel job of
//! the assembler it runs resident: a `SpillPolicy` cap binds construct's
//! keyed pass, and the labeling jobs' stores — a few bytes per k-mer vertex
//! after block contraction — run beside a k-mer graph no cap can spill.
//! Nothing of the outcome depends on which worker owned a rank.

use ppa_pregel::{DenseSet, ExecCtx, Metrics, PregelConfig, VertexProgram};
use std::borrow::Cow;

/// Bit 31 of a rank: list ranking's contig-end *flip* mark, which is why a
/// node set (and its one-past-the-end rank) has to stay below it.
pub(crate) const RANK_FLIP: u32 = 1 << 31;

/// Checks that `nodes` vertices and the absent rank fit below [`RANK_FLIP`].
pub(crate) fn fits_rank_space(nodes: usize) -> bool {
    nodes < RANK_FLIP as usize
}

/// The labeling outcome of an ambiguous (⟨m-n⟩) vertex, which takes no
/// label. Every other outcome is the rank of a label, below bit 31.
pub const AMBIGUOUS: u32 = u32::MAX;
/// What [`run_on`] leaves for a rank without a final state; no labeling
/// returns it.
pub(crate) const UNRESOLVED: u32 = u32::MAX - 1;

/// The sorted IDs of a node set, with a prefix index for ID → rank lookups.
pub(crate) struct RankDict<'a> {
    /// Strictly ascending vertex IDs; the rank of `ids[r]` is `r`, the
    /// vertex's position in its node set.
    ids: Cow<'a, [u64]>,
    /// IDs with `(id - ids[0]) >> shift == p` have the ranks
    /// `starts[p]..starts[p + 1]`: about one ID per prefix, so a lookup is a
    /// table read and a search over a handful of neighbouring IDs.
    shift: u32,
    starts: Vec<u32>,
}

impl<'a> RankDict<'a> {
    /// The dictionary of a node set's ID column
    /// ([`NodeSource::ids`](crate::node::NodeSource::ids)): builds the
    /// prefix table, the one pass over the IDs a borrowed column costs.
    ///
    /// # Panics
    ///
    /// Panics if the IDs are not strictly ascending, naming the first
    /// position out of order, or do not fit below [`RANK_FLIP`].
    pub(crate) fn new(ids: Cow<'a, [u64]>) -> RankDict<'a> {
        assert!(
            fits_rank_space(ids.len()),
            "{} vertices do not fit the 31-bit rank space of contig labeling",
            ids.len()
        );
        if let Some(at) = ids.windows(2).position(|pair| pair[0] >= pair[1]) {
            panic!(
                "node IDs not strictly ascending at position {}: {:#x} after {:#x}",
                at + 1,
                ids[at + 1],
                ids[at]
            );
        }
        let span = ids.last().map_or(0, |last| last - ids[0]);
        let prefix_bits = ids.len().next_power_of_two().trailing_zeros();
        let shift = (u64::BITS - span.leading_zeros()).saturating_sub(prefix_bits);
        let mut starts = vec![0u32; (span >> shift) as usize + 2];
        for id in ids.iter() {
            starts[((id - ids[0]) >> shift) as usize + 1] += 1;
        }
        for p in 1..starts.len() {
            starts[p] += starts[p - 1];
        }
        RankDict { ids, shift, starts }
    }

    /// Number of distinct IDs — also the rank of every ID outside the set.
    pub(crate) fn len(&self) -> u32 {
        self.ids.len() as u32
    }

    /// The ID of rank `rank`.
    pub(crate) fn id(&self, rank: u32) -> u64 {
        self.ids[rank as usize]
    }

    /// The rank of `id`, or [`len`](RankDict::len) if the set does not hold it.
    pub(crate) fn rank(&self, id: u64) -> u32 {
        let absent = self.len();
        let Some(offset) = self.ids.first().and_then(|first| id.checked_sub(*first)) else {
            return absent;
        };
        let p = (offset >> self.shift) as usize;
        if p + 1 >= self.starts.len() {
            return absent;
        }
        let (lo, hi) = (self.starts[p] as usize, self.starts[p + 1] as usize);
        match self.ids[lo..hi].binary_search(&id) {
            Ok(at) => (lo + at) as u32,
            Err(_) => absent,
        }
    }
}

/// Runs a labeling job over the ranks `0..ranks` on the context's pool and
/// returns the program, the job's metrics and `outcome_of(final state)` per
/// rank ([`UNRESOLVED`] for a rank without a state). The ranks are a
/// dictionary's or, for both labelings, the slots of its minimizer-block
/// fragments (`ops/blocks.rs`).
///
/// Every worker builds the states of the ranks its store will hold, in
/// ascending order: `state_of(rank, slab)` gives the vertex's state — it
/// may park a variable-length list on `slab`, its worker's, and keep the
/// bounds — or `None` for a rank that takes no part in the job.
/// `program_of` gets the slabs, one per worker, indexed as
/// `Context::worker` is when the vertex computes.
pub(crate) fn run_on<P>(
    ctx: &ExecCtx,
    config: &PregelConfig,
    ranks: u32,
    state_of: impl Fn(u32, &mut Vec<u32>) -> Option<P::Value> + Sync,
    program_of: impl FnOnce(Vec<Vec<u32>>) -> P,
    outcome_of: impl Fn(&P::Value) -> u32 + Sync,
) -> (P, Metrics, Vec<u32>)
where
    P: VertexProgram,
    P::Value: Sync,
{
    let (mut set, slabs) = DenseSet::from_fn_on(ctx, ranks, state_of);
    let program = program_of(slabs);
    let metrics = ppa_pregel::run_dense_on(ctx, &program, config, &mut set);
    let mut outcome = vec![UNRESOLVED; ranks as usize];
    set.read_on(ctx, &mut outcome, outcome_of);
    (program, metrics, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::contig_id;
    use crate::node::NodeSource;

    fn dict(ids: &[u64]) -> RankDict<'_> {
        RankDict::new(Cow::Borrowed(ids))
    }

    #[test]
    fn rank_space_ends_below_the_flip_bit() {
        assert!(fits_rank_space(0));
        assert!(fits_rank_space((1 << 31) - 1));
        // 2^31 vertices would put the absent rank on the flip bit itself.
        assert!(!fits_rank_space(1 << 31));
        assert!(!fits_rank_space(usize::MAX));
    }

    #[test]
    fn ranks_order_as_ids_and_absent_ids_share_one_rank() {
        // Round-2 shape: the ambiguous k-mers, then the contigs.
        let ids = [
            0,
            7,
            1 << 40,
            0x3fff_ffff_ffff_fff0,
            contig_id(1),
            contig_id(2),
            contig_id(3),
        ];
        let d = dict(&ids);
        assert_eq!(d.len() as usize, ids.len());
        for (at, id) in ids.iter().enumerate() {
            assert_eq!(d.rank(*id), at as u32);
            assert_eq!(d.id(at as u32), *id);
        }
        for absent in [
            1,
            8,
            (1 << 40) + 1,
            contig_id(4),
            contig_id(1 << 40),
            u64::MAX,
        ] {
            assert_eq!(d.rank(absent), d.len(), "{absent:#x}");
        }
    }

    #[test]
    fn every_id_of_a_large_set_is_found_and_its_gaps_are_not() {
        // Multiples of a large odd number: spread over the whole 62-bit range.
        let mut ids: Vec<u64> = (0..5_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 2)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let d = dict(&ids);
        assert_eq!(d.len(), 5_000);
        for (at, id) in ids.iter().enumerate() {
            assert_eq!(d.rank(*id), at as u32);
            if ids.binary_search(&(id + 1)).is_err() {
                assert_eq!(d.rank(id + 1), d.len());
            }
        }
    }

    #[test]
    fn a_descending_column_or_a_repeated_id_is_refused() {
        for (ids, want) in [
            (&[2u64, 9, 4][..], "at position 2: 0x4 after 0x9"),
            (&[2, 4, 4, 9][..], "at position 2: 0x4 after 0x4"),
        ] {
            let refused = std::panic::catch_unwind(|| dict(ids).len()).expect_err("refused");
            let message = ppa_pregel::engine::panic_message(&*refused);
            assert!(message.contains(want), "{ids:?}: {message}");
        }
    }

    #[test]
    fn a_kmer_graph_is_its_own_dictionary() {
        use crate::node::KmerGraph;
        let k = 11;
        let mut kmers: Vec<u64> = (1..3_000u64)
            .map(|i| {
                let kmer = ppa_seq::Kmer::from_packed(i.wrapping_mul(0x9E37_79B9) & 0x3f_ffff, k);
                kmer.unwrap().canonical().kmer.packed()
            })
            .collect();
        kmers.sort_unstable();
        kmers.dedup();
        let mut graph = KmerGraph::with_capacity(k, kmers.len(), 0);
        for &kmer in &kmers {
            graph.push_vertex(kmer);
        }
        let borrowed = RankDict::new(graph.ids());
        assert!(matches!(borrowed.ids, Cow::Borrowed(_)));
        assert_eq!(borrowed.len() as usize, kmers.len());
        for (at, &id) in kmers.iter().enumerate() {
            assert_eq!(borrowed.rank(id), at as u32);
            if kmers.binary_search(&(id + 1)).is_err() {
                assert_eq!(borrowed.rank(id + 1), borrowed.len(), "{id:#x} + 1");
            }
        }
        // Expanded nodes keep no ID column: theirs is collected, in order.
        let nodes = graph.to_nodes();
        let collected = RankDict::new(nodes.ids());
        assert!(matches!(collected.ids, Cow::Owned(_)));
        assert_eq!(collected.ids, borrowed.ids);
    }

    #[test]
    fn empty_and_single_sets() {
        let d = dict(&[]);
        assert_eq!(d.len(), 0);
        assert_eq!(d.rank(5), 0);
        let d = dict(&[5]);
        assert_eq!((d.rank(5), d.rank(4), d.rank(6)), (0, 1, 1));
    }
}
