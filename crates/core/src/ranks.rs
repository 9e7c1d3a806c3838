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
//! Round 1's dictionary is construct's k-mer column itself: a
//! [`KmerGraph`](crate::node::KmerGraph) keeps its k-mers — its vertex IDs —
//! strictly ascending, so [`RankDict::of_nodes_on`] borrows the column, a
//! vertex's rank is its position, and the only O(n) work is the prefix
//! table. Nothing is sorted or merged. Only round 2's mixed set of
//! ambiguous k-mers and contigs, which comes unsorted, is ranked by
//! [`RankDict::build_on`]: every worker radix-sorts a share of the IDs and
//! the shares are merged.
//!
//! Both contig labelings — list ranking ([`crate::ops::label`]) and simplified
//! S-V ([`crate::ops::label_sv`]) — run in rank space and share the way in and
//! out: [`RankDict::of_nodes_on`], [`RankDict::run_on`] (every pool worker builds
//! the states of the ranks it will own, variable-length lists in one slab per
//! worker; the job runs; one outcome per rank comes back) and
//! [`RankDict::read_back_on`] (the outcomes back to `(id, label)` pairs, in
//! the order a job over the IDs themselves would have left them).
//!
//! Contig merging ([`crate::ops::merge`]) takes the same dictionary to
//! join its labels to node positions, and groups by the labels' ranks.
//!
//! `run_on` is also the one place that knows which of the engine's two
//! planes a labeling job runs on. Ranks are consecutive integers, so a
//! resident job uses the dense plane ([`ppa_pregel::dense`]): range
//! ownership, states in a plain array, a counting scatter for delivery. A job
//! that has to honour a `SpillPolicy` cap keeps the sorted, spillable plane
//! (hash ownership over a [`VertexSet`]), the only one that can seal its
//! store and spill its shuffle. Neither the labelings nor their callers see
//! the difference: `read_back_on` orders the outcome by ID, not by owner.

use crate::node::{GraphNode, NodeSource};
use ppa_pregel::fxhash::hash_one;
use ppa_pregel::{DenseSet, ExecCtx, Metrics, PregelConfig, VertexProgram, VertexSet};
use std::borrow::Cow;

/// Bit 31 of a rank: list ranking's contig-end *flip* mark, which is why a
/// node set (and its one-past-the-end rank) has to stay below it.
pub(crate) const RANK_FLIP: u32 = 1 << 31;

/// Checks that `nodes` vertices and the absent rank fit below [`RANK_FLIP`].
pub(crate) fn fits_rank_space(nodes: usize) -> bool {
    nodes < RANK_FLIP as usize
}

/// Panics unless `nodes` vertices fit below [`RANK_FLIP`].
fn assert_fits(nodes: usize) {
    assert!(
        fits_rank_space(nodes),
        "{nodes} vertices do not fit the 31-bit rank space of contig labeling"
    );
}

/// Outcome marks of [`RankDict::read_back_on`]; every label is a rank, and
/// ranks stay below [`RANK_FLIP`].
pub(crate) const AMBIGUOUS: u32 = u32::MAX;
pub(crate) const UNRESOLVED: u32 = u32::MAX - 1;

/// The worker a vertex key hashes to, as `VertexSet` places it.
#[inline]
fn owner<K: std::hash::Hash>(key: &K, workers: usize) -> usize {
    (hash_one(key) % workers as u64) as usize
}

/// The sorted IDs of a node set, with a prefix index for ID → rank lookups.
pub(crate) struct RankDict<'a> {
    /// Strictly ascending vertex IDs; the rank of `ids[r]` is `r`. Borrowed
    /// when the node set keeps its IDs sorted.
    ids: Cow<'a, [u64]>,
    /// `source[r]`: position in the build input of the vertex of rank `r`;
    /// empty when the input was the sorted column itself, whose positions
    /// are the ranks.
    source: Vec<u32>,
    /// IDs with `(id - ids[0]) >> shift == p` have the ranks
    /// `starts[p]..starts[p + 1]`: about one ID per prefix, so a lookup is a
    /// table read and a search over a handful of neighbouring IDs.
    shift: u32,
    starts: Vec<u32>,
}

impl<'a> RankDict<'a> {
    /// The dictionary of a node set: its own ID column when it keeps one
    /// sorted ([`NodeSource::sorted_ids`]), so that only the prefix table is
    /// built and a rank is a position; otherwise [`build_on`] over its IDs.
    ///
    /// [`build_on`]: RankDict::build_on
    pub(crate) fn of_nodes_on<S: NodeSource + ?Sized>(ctx: &ExecCtx, nodes: &'a S) -> RankDict<'a> {
        match nodes.sorted_ids() {
            Some(ids) => {
                assert_fits(ids.len());
                debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "unsorted ID column");
                RankDict::indexed(Cow::Borrowed(ids), Vec::new())
            }
            None => RankDict::build_on(ctx, nodes.len(), |i| nodes.node(i).id()),
        }
    }

    /// Ranks the IDs `id_of(0..count)` on the context's pool: every worker
    /// radix-sorts one contiguous share, the shares are merged on the calling
    /// thread. An ID given twice keeps its last position, as
    /// `VertexSet::from_pairs` would.
    ///
    /// # Panics
    ///
    /// Panics if `count` does not fit below [`RANK_FLIP`].
    pub(crate) fn build_on(
        ctx: &ExecCtx,
        count: usize,
        id_of: impl Fn(usize) -> u64 + Sync,
    ) -> RankDict<'a> {
        assert_fits(count);
        let workers = ctx.workers();
        let sorted: Vec<Vec<(u64, u32)>> = ctx.pool().run_per_worker(vec![(); workers], |w, ()| {
            let mut share: Vec<(u64, u32)> = (count * w / workers..count * (w + 1) / workers)
                .map(|i| (id_of(i), i as u32))
                .collect();
            ppa_pregel::radix::sort_pairs(&mut share, &mut Vec::new());
            share
        });

        // Merge; on equal IDs the lower share goes first, so the entry that
        // survives a run of duplicates is the input's last.
        let mut ids: Vec<u64> = Vec::with_capacity(count);
        let mut source: Vec<u32> = Vec::with_capacity(count);
        let mut heads = vec![0usize; workers];
        loop {
            let mut next: Option<(u64, usize)> = None;
            for (w, share) in sorted.iter().enumerate() {
                if let Some(&(id, _)) = share.get(heads[w]) {
                    if next.is_none_or(|(least, _)| id < least) {
                        next = Some((id, w));
                    }
                }
            }
            let Some((id, w)) = next else { break };
            let at = sorted[w][heads[w]].1;
            heads[w] += 1;
            if ids.last() == Some(&id) {
                *source.last_mut().expect("parallel to ids") = at;
            } else {
                ids.push(id);
                source.push(at);
            }
        }
        drop(sorted);
        RankDict::indexed(Cow::Owned(ids), source)
    }

    /// The dictionary of a strictly ascending ID column: builds the prefix
    /// table, the one pass over the IDs a borrowed column costs.
    fn indexed(ids: Cow<'a, [u64]>, source: Vec<u32>) -> RankDict<'a> {
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
        RankDict {
            ids,
            source,
            shift,
            starts,
        }
    }

    /// Number of distinct IDs — also the rank of every ID outside the set.
    pub(crate) fn len(&self) -> u32 {
        self.ids.len() as u32
    }

    /// The ID of rank `rank`.
    pub(crate) fn id(&self, rank: u32) -> u64 {
        self.ids[rank as usize]
    }

    /// Position in the build input of the vertex of rank `rank`.
    pub(crate) fn source(&self, rank: u32) -> usize {
        match self.source.is_empty() {
            true => rank as usize,
            false => self.source[rank as usize] as usize,
        }
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

    /// Runs a labeling job over the ranks on the context's pool and returns
    /// the program, the job's metrics and `outcome_of(final state)` per rank
    /// ([`UNRESOLVED`] for a rank without a state).
    ///
    /// Every worker builds the states of the ranks its store will hold, in
    /// ascending order: `state_of(rank, slab)` gives the vertex's state — it
    /// may park a variable-length list on `slab`, its worker's, and keep the
    /// bounds — or `None` for a rank that takes no part in the job.
    /// `program_of` gets the slabs, one per worker, indexed as
    /// `Context::worker` is when the vertex computes.
    pub(crate) fn run_on<P>(
        &self,
        ctx: &ExecCtx,
        config: &PregelConfig,
        state_of: impl Fn(u32, &mut Vec<u32>) -> Option<P::Value> + Sync,
        program_of: impl FnOnce(Vec<Vec<u32>>) -> P,
        outcome_of: impl Fn(&P::Value) -> u32 + Sync,
    ) -> (P, Metrics, Vec<u32>)
    where
        P: VertexProgram<Id = u32>,
        P::Value: Sync,
    {
        let mut outcome = vec![UNRESOLVED; self.ids.len()];
        // The choice of plane (see the module docs), from what the job can
        // observe: a cap on the context that the program is able to honour.
        let capped = ctx.spill().is_some_and(|policy| policy.cap().is_some());
        if capped && P::spill_codecs().is_some() {
            let (mut set, slabs) = self.sorted_store_on(ctx, state_of);
            let program = program_of(slabs);
            let metrics = ppa_pregel::run_on(ctx, &program, config, &mut set);
            for (rank, state) in set.iter() {
                outcome[rank as usize] = outcome_of(state);
            }
            (program, metrics, outcome)
        } else {
            let (mut set, slabs) = DenseSet::from_fn_on(ctx, self.len(), state_of);
            let program = program_of(slabs);
            let metrics = ppa_pregel::run_dense_on(ctx, &program, config, &mut set);
            set.read_on(ctx, &mut outcome, outcome_of);
            (program, metrics, outcome)
        }
    }

    /// The hash-partitioned store of a capped job: worker `w` walks the ranks
    /// a `VertexSet` places on it (`hash_one(&rank) % workers == w`) in
    /// ascending order, so the store appends them straight onto its columns.
    fn sorted_store_on<S: Send>(
        &self,
        ctx: &ExecCtx,
        state_of: impl Fn(u32, &mut Vec<u32>) -> Option<S> + Sync,
    ) -> (VertexSet<u32, S>, Vec<Vec<u32>>) {
        let workers = ctx.workers();
        let (parts, slabs): (Vec<_>, Vec<_>) = ctx
            .pool()
            .run_per_worker(vec![(); workers], |w, ()| {
                let mut states: Vec<(u32, S)> = Vec::with_capacity(self.ids.len() / workers + 1);
                let mut slab: Vec<u32> = Vec::new();
                for rank in (0..self.len()).filter(|rank| owner(rank, workers) == w) {
                    if let Some(state) = state_of(rank, &mut slab) {
                        states.push((rank, state));
                    }
                }
                (states, slab)
            })
            .into_iter()
            .unzip();
        (VertexSet::from_sorted_parts_on(ctx, parts), slabs)
    }

    /// Back to IDs. `outcome[rank]` is the rank of the vertex's label,
    /// [`AMBIGUOUS`] or [`UNRESOLVED`] (no entry). Returns the `(id, label)`
    /// pairs and the ambiguous IDs in the order a job over the IDs would have
    /// left them — by the worker owning the ID, then by ID — each pool worker
    /// emitting the share *it* would have owned.
    pub(crate) fn read_back_on(
        &self,
        ctx: &ExecCtx,
        outcome: &[u32],
    ) -> (Vec<(u64, u64)>, Vec<u64>) {
        let workers = ctx.workers();
        let per_worker = ctx.pool().run_per_worker(vec![(); workers], |w, ()| {
            let mut labels: Vec<(u64, u64)> = Vec::new();
            let mut ambiguous: Vec<u64> = Vec::new();
            for (id, label) in self
                .ids
                .iter()
                .zip(outcome)
                .filter(|(id, _)| owner(*id, workers) == w)
            {
                match *label {
                    AMBIGUOUS => ambiguous.push(*id),
                    UNRESOLVED => {}
                    label => labels.push((*id, self.ids[label as usize])),
                }
            }
            (labels, ambiguous)
        });
        let (labels, ambiguous): (Vec<_>, Vec<_>) = per_worker.into_iter().unzip();
        (labels.concat(), ambiguous.concat())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::contig_id;

    fn dict(ids: &[u64]) -> RankDict<'static> {
        RankDict::build_on(&ExecCtx::new(3), ids.len(), |i| ids[i])
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
        // Round-2 shape: k-mer IDs mixed with contig IDs, given unsorted.
        let ids = [
            contig_id(1, 2),
            0x3fff_ffff_ffff_fff0,
            7,
            contig_id(0, 1),
            0,
            contig_id(1, 1),
            1 << 40,
        ];
        let d = dict(&ids);
        assert_eq!(d.len() as usize, ids.len());
        assert!(d.ids.windows(2).all(|w| w[0] < w[1]));
        for (at, id) in ids.iter().enumerate() {
            let rank = d.rank(*id);
            assert_eq!(d.ids[rank as usize], *id);
            assert_eq!(d.source(rank), at);
        }
        for absent in [
            1,
            8,
            (1 << 40) + 1,
            contig_id(0, 2),
            contig_id(2, 1),
            u64::MAX,
        ] {
            assert_eq!(d.rank(absent), d.len(), "{absent:#x}");
        }
    }

    #[test]
    fn every_id_of_a_large_set_is_found_and_its_gaps_are_not() {
        // Multiples of a large odd number: spread over the whole 62-bit range.
        let ids: Vec<u64> = (0..5_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 2)
            .collect();
        let d = dict(&ids);
        assert_eq!(d.len(), 5_000);
        for (at, id) in ids.iter().enumerate() {
            assert_eq!(d.source(d.rank(*id)), at);
            if d.ids.binary_search(&(id + 1)).is_err() {
                assert_eq!(d.rank(id + 1), d.len());
            }
        }
    }

    #[test]
    fn a_repeated_id_keeps_its_last_position() {
        let d = dict(&[9, 4, 9, 4, 4, 2]);
        assert_eq!(&d.ids[..], &[2, 4, 9]);
        assert_eq!(
            [d.source(0), d.source(1), d.source(2)],
            [5, 4, 2],
            "later duplicates replace earlier ones"
        );
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
        let ctx = ExecCtx::new(3);
        let borrowed = RankDict::of_nodes_on(&ctx, &graph);
        assert!(matches!(borrowed.ids, Cow::Borrowed(_)));
        assert!(borrowed.source.is_empty(), "no source column");
        let sorted = dict(&kmers);
        assert_eq!(borrowed.len(), sorted.len());
        for (at, &id) in kmers.iter().enumerate() {
            assert_eq!(borrowed.rank(id), at as u32);
            assert_eq!(borrowed.source(at as u32), at);
            assert_eq!(borrowed.rank(id + 1), sorted.rank(id + 1), "{id:#x} + 1");
        }
        // Expanded nodes have no sorted column: they are ranked by sorting.
        let nodes = graph.to_nodes();
        let built = RankDict::of_nodes_on(&ctx, &nodes[..]);
        assert!(matches!(built.ids, Cow::Owned(_)));
        assert_eq!(built.ids, borrowed.ids);
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
