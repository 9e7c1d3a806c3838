//! Columnar sorted vertex storage shared between consecutive Pregel jobs.
//!
//! Pregel+ distributes vertices to machines by hashing the vertex ID; a
//! [`VertexSet`] does the same over logical workers. *Within* a partition,
//! however, vertices are no longer a hash map: each partition is a
//! struct-of-arrays **columnar store sorted by vertex ID** —
//!
//! * `ids` — the sorted, strictly increasing ID column ("slot" order), one
//!   plain `I` per slot;
//! * `values` — the parallel value column (every slot holds `Some`; the
//!   `Option` is the presence flag the sealed-extent format of
//!   [`crate::spill`] encodes);
//! * `halted` — one bit per slot, packed 64 slots to a word;
//! * `stamps` — one `u32` compute stamp per slot.
//!
//! The layout is what makes the runner's message delivery a **merge-join**:
//! the shuffle hands every worker its inbound messages sorted by destination
//! ID (see `runner.rs`), and sorted messages meeting a sorted ID column is a
//! single linear pass — no per-run hash probe, no bucket-array walk. The
//! straggler scan (active vertices that received nothing) becomes a walk over
//! the `halted` bitset, skipping 64 halted vertices per word compare, and a
//! full-partition scan touches dense arrays instead of a hash table's
//! scattered buckets. The columns also drop the hash map's bucket/control
//! overhead; [`VertexSet::resident_bytes`] reports the footprint.
//!
//! # Lifecycle
//!
//! A set is **built in bulk and read back whole**: each Pregel job takes its
//! input set whole and hands its output set on whole, so nothing ever
//! inserts or removes one vertex. [`from_pairs`](VertexSet::from_pairs)
//! radix-sorts a narrow `(id, index)` key column per partition and gathers
//! each winning payload once (later duplicates win);
//! [`from_sorted_parts_on`](VertexSet::from_sorted_parts_on) appends
//! caller-ordered lists straight onto the columns. Between jobs the set is
//! read-only — a point read is a binary search over the ID column — and
//! during a job the runner rewrites only values, halt bits and stamps in
//! place; the crate-internal `activate_all` zeroes the last two at job start.
//!
//! The [`convert`](VertexSet::convert) method implements the paper's first
//! API extension (Section II, "Our Extensions to Pregel API"): the output
//! vertices of one job are transformed in place into the input vertices of
//! the next job and re-shuffled by the new vertex IDs, without a round-trip
//! through HDFS. Its sort-merge shuffle streams in ID order, so the merged
//! output *is* the new sorted column — no rebuild step.

use crate::engine::ExecCtx;
use crate::fxhash::hash_one;
use crate::radix::SortKey;
use crate::vertex::VertexKey;

/// Sets or clears bit `slot` in a packed bitset.
#[inline]
pub(crate) fn set_bit(words: &mut [u64], slot: usize, on: bool) {
    let (w, m) = (slot >> 6, 1u64 << (slot & 63));
    if on {
        words[w] |= m;
    } else {
        words[w] &= !m;
    }
}

/// Reads bit `slot` of a packed bitset (test-only counterpart of
/// [`set_bit`]: the engine reads halt state word-at-a-time instead).
#[cfg(test)]
#[inline]
pub(crate) fn get_bit(words: &[u64], slot: usize) -> bool {
    words[slot >> 6] & (1u64 << (slot & 63)) != 0
}

/// Number of `u64` words needed for `slots` bits.
#[inline]
fn words_for(slots: usize) -> usize {
    slots.div_ceil(64)
}

/// First index `>= lo` at which `ids[index] >= *target` (i.e. the lower
/// bound), assuming `ids` is sorted ascending and everything before `lo` is
/// `< *target`.
///
/// Tuned for a monotone cursor walking message runs against the ID column: a
/// short linear probe wins when the frontier is dense (the next run lands a
/// few slots ahead); past that it gallops (exponential steps, then a binary
/// search inside the final window), so sparse frontiers cost
/// `O(log distance)` per run instead of a full linear walk.
pub(crate) fn lower_bound_from<I: Ord>(ids: &[I], mut lo: usize, target: &I) -> usize {
    let n = ids.len();
    for _ in 0..8 {
        if lo >= n || ids[lo] >= *target {
            return lo;
        }
        lo += 1;
    }
    let mut step = 8usize;
    let mut hi = lo + step;
    while hi < n && ids[hi] < *target {
        lo = hi + 1;
        step <<= 1;
        hi = lo + step;
    }
    let hi = hi.min(n);
    lo + ids[lo..hi].partition_point(|x| x < target)
}

/// One partition of a [`VertexSet`]: parallel columns sorted by vertex ID.
///
/// Invariants: `ids` is strictly increasing; `values` and `stamps` have one
/// entry per slot and every value is `Some`; `halted` has one bit per slot,
/// with all bits beyond the slot count zero.
#[derive(Debug, Clone)]
pub(crate) struct Partition<I, V> {
    ids: Vec<I>,
    values: Vec<Option<V>>,
    halted: Vec<u64>,
    stamps: Vec<u32>,
}

/// Mutable view of a partition's columns, handed to the runner for the
/// duration of a compute phase. Field-level borrows let the delivery loop
/// hold a value `&mut` while flipping halt bits.
pub(crate) struct RunColumns<'a, I, V> {
    /// The sorted ID column.
    pub(crate) ids: &'a [I],
    /// The value column; every slot is `Some`.
    pub(crate) values: &'a mut [Option<V>],
    /// Halt bits, one per slot.
    pub(crate) halted: &'a mut [u64],
    /// Compute stamps, one per slot.
    pub(crate) stamps: &'a mut [u32],
}

impl<I: VertexKey + SortKey, V: Send> Partition<I, V> {
    /// An empty partition with room for `len` slots in the ID, value and
    /// stamp columns.
    fn with_capacity(len: usize) -> Partition<I, V> {
        Partition {
            ids: Vec::with_capacity(len),
            values: Vec::with_capacity(len),
            halted: Vec::new(),
            stamps: Vec::with_capacity(len),
        }
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    /// Appends a vertex with an ID greater than every stored one — the bulk
    /// build path (`from_unsorted`, `convert`'s merge output).
    fn push_sorted(&mut self, id: I, value: V) {
        debug_assert!(
            self.ids.last().is_none_or(|last| *last < id),
            "push_sorted requires strictly ascending IDs"
        );
        if self.ids.len().is_multiple_of(64) {
            self.halted.push(0);
        }
        self.ids.push(id);
        self.values.push(Some(value));
        self.stamps.push(0);
    }

    /// Builds a partition from pairs in strictly ascending ID order.
    fn from_sorted(pairs: Vec<(I, V)>) -> Partition<I, V> {
        let mut part = Partition::with_capacity(pairs.len());
        for (id, value) in pairs {
            part.push_sorted(id, value);
        }
        part.debug_validate();
        part
    }

    /// Builds a partition from arbitrarily ordered pairs; later duplicates
    /// replace earlier ones. Sorts a narrow `(id, index)` key column with the
    /// radix plane, then gathers each winning payload once.
    fn from_unsorted(pairs: Vec<(I, V)>) -> Partition<I, V> {
        assert!(
            pairs.len() <= u32::MAX as usize,
            "a partition is capped at u32::MAX staged pairs"
        );
        // Pairs staged in ascending ID order (e.g. sequential vertex IDs)
        // skip the sort and the duplicate merge outright.
        if pairs.windows(2).all(|w| w[0].0 < w[1].0) {
            return Partition::from_sorted(pairs);
        }
        let mut keys: Vec<(I, u32)> = pairs
            .iter()
            .enumerate()
            .map(|(i, (id, _))| (*id, i as u32))
            .collect();
        let mut scratch: Vec<(I, u32)> = Vec::new();
        crate::radix::sort_pairs(&mut keys, &mut scratch);
        let mut values: Vec<Option<V>> = pairs.into_iter().map(|(_, v)| Some(v)).collect();
        let mut part = Partition::with_capacity(keys.len());
        let mut it = keys.into_iter().peekable();
        while let Some((id, index)) = it.next() {
            // The sort is stable, so the last entry of an equal-ID run is the
            // latest pair — the one that wins.
            if it.peek().is_some_and(|(next, _)| *next == id) {
                values[index as usize] = None;
                continue;
            }
            let value = values[index as usize]
                .take()
                .expect("each index gathered once");
            part.push_sorted(id, value);
        }
        part.debug_validate();
        part
    }

    fn get(&self, id: &I) -> Option<&V> {
        let slot = self.ids.binary_search(id).ok()?;
        self.values[slot].as_ref()
    }

    /// `(id, value)` entries in ID order (IDs by value — [`VertexKey`] is
    /// `Copy`).
    fn iter(&self) -> impl Iterator<Item = (I, &V)> {
        self.ids
            .iter()
            .zip(&self.values)
            .filter_map(|(id, v)| v.as_ref().map(|v| (*id, v)))
    }

    /// Consumes the partition into its `(id, value)` pairs in ID order.
    fn into_entries(self) -> impl Iterator<Item = (I, V)> {
        self.ids
            .into_iter()
            .zip(self.values)
            .filter_map(|(id, v)| v.map(|v| (id, v)))
    }

    /// Zeroes the activity bookkeeping — the per-partition half of
    /// [`VertexSet::activate_all`].
    fn reset_activity(&mut self) {
        self.halted.fill(0);
        self.stamps.fill(0);
    }

    /// The columns, for the runner's compute phase.
    pub(crate) fn run_columns(&mut self) -> RunColumns<'_, I, V> {
        RunColumns {
            ids: &self.ids,
            values: &mut self.values,
            halted: &mut self.halted,
            stamps: &mut self.stamps,
        }
    }

    /// Drains the partition's columns into on-disk extents, leaving the
    /// columns empty; the runner computes against the returned seal one
    /// extent window at a time. On error the drained data is lost — the
    /// caller abandons the job with a spill error, and recovery goes through
    /// checkpoint/resume, not through the half-sealed store.
    pub(crate) fn seal_to(
        &mut self,
        dir: &std::sync::Arc<crate::spill::SpillDir>,
        part_index: usize,
        id_codec: crate::spill::Codec<I>,
        value_codec: crate::spill::Codec<V>,
    ) -> Result<crate::spill::PartSeal<I, V>, crate::spill::SpillError> {
        let mut seal = crate::spill::PartSeal::new(
            std::sync::Arc::clone(dir),
            part_index,
            id_codec,
            value_codec,
        );
        let ids = std::mem::take(&mut self.ids);
        let values = std::mem::take(&mut self.values);
        let words = std::mem::take(&mut self.halted);
        let stamps = std::mem::take(&mut self.stamps);
        seal.seal_slots(ids.into_iter().zip(values).zip(stamps).enumerate().map(
            |(slot, ((id, value), stamp))| {
                let halted = words
                    .get(slot >> 6)
                    .is_some_and(|w| (w >> (slot & 63)) & 1 == 1);
                (id, value, halted, stamp)
            },
        ))?;
        Ok(seal)
    }

    /// Rebuilds the partition's columns from a seal's extents (ascending ID
    /// order, so they append directly), restoring the halt bits and compute
    /// stamps each slot carried at its last writeback. The partition must be
    /// empty (it is — [`Partition::seal_to`] drained it).
    pub(crate) fn unseal_from(
        &mut self,
        seal: &mut crate::spill::PartSeal<I, V>,
    ) -> Result<(), crate::spill::SpillError> {
        debug_assert!(self.ids.is_empty(), "unsealing into a non-empty partition");
        let total = seal.total_slots();
        self.ids.reserve(total);
        self.values.reserve(total);
        self.stamps.reserve(total);
        self.halted.clear();
        self.halted.resize(words_for(total), 0);
        let ids = &mut self.ids;
        let values = &mut self.values;
        let stamps = &mut self.stamps;
        let words = &mut self.halted;
        let mut slot = 0usize;
        seal.drain_slots(|id, value, halted, stamp| {
            ids.push(id);
            values.push(value);
            stamps.push(stamp);
            set_bit(words, slot, halted);
            slot += 1;
        })?;
        self.debug_validate();
        Ok(())
    }

    /// Estimated heap bytes held by the columns themselves (excluding any
    /// heap owned by the values).
    fn resident_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<I>()
            + self.values.capacity() * std::mem::size_of::<Option<V>>()
            + self.halted.capacity() * std::mem::size_of::<u64>()
            + self.stamps.capacity() * std::mem::size_of::<u32>()
    }

    /// Checks the documented partition invariants (debug builds only) — see
    /// the struct docs.
    #[cfg(debug_assertions)]
    fn debug_validate(&self) {
        let len = self.ids.len();
        assert_eq!(self.values.len(), len, "values column length != id count");
        assert_eq!(self.stamps.len(), len, "stamps column length != id count");
        assert_eq!(
            self.halted.len(),
            words_for(len),
            "halted bitset sized for the slot count"
        );
        let used = len % 64;
        if used != 0 {
            if let Some(&last) = self.halted.last() {
                assert_eq!(
                    last & !((1u64 << used) - 1),
                    0,
                    "halt bits beyond the slot count must be zero"
                );
            }
        }
        assert!(
            self.ids.windows(2).all(|w| w[0] < w[1]),
            "ids must be strictly increasing"
        );
        assert!(
            self.values.iter().all(Option::is_some),
            "every slot must hold a value"
        );
    }

    /// Release builds: invariant checking compiles to nothing.
    #[cfg(not(debug_assertions))]
    #[inline(always)]
    fn debug_validate(&self) {}
}

/// A collection of vertices hash-partitioned over a fixed number of workers,
/// each partition a sorted columnar store (see the module docs).
#[derive(Debug, Clone)]
pub struct VertexSet<I, V> {
    pub(crate) parts: Vec<Partition<I, V>>,
}

impl<I: VertexKey + SortKey, V: Send> VertexSet<I, V> {
    /// Creates an empty vertex set partitioned over `workers` workers.
    pub fn new(workers: usize) -> VertexSet<I, V> {
        let workers = workers.max(1);
        VertexSet {
            parts: (0..workers).map(|_| Partition::with_capacity(0)).collect(),
        }
    }

    /// Builds a vertex set from `(id, value)` pairs. Later duplicates replace
    /// earlier ones.
    ///
    /// Pairs are staged per partition, the ID column is radix-sorted, and the
    /// columns are emitted directly.
    pub fn from_pairs(workers: usize, pairs: impl IntoIterator<Item = (I, V)>) -> VertexSet<I, V> {
        let workers = workers.max(1);
        let mut staged: Vec<Vec<(I, V)>> = (0..workers).map(|_| Vec::new()).collect();
        for (id, value) in pairs {
            let w = (hash_one(&id) % workers as u64) as usize;
            staged[w].push((id, value));
        }
        VertexSet {
            parts: staged.into_iter().map(Partition::from_unsorted).collect(),
        }
    }

    /// Builds a vertex set from pairs the caller has already placed and
    /// ordered: `parts[w]` holds exactly the vertices worker `w` owns
    /// (`hash_one(&id) % workers == w`), in strictly ascending ID order. Each
    /// pool worker appends its list straight onto its columns — no staging,
    /// no sort.
    ///
    /// # Panics
    ///
    /// Panics if a list is out of order or holds an ID another worker owns:
    /// message delivery relies on both.
    pub fn from_sorted_parts_on(ctx: &ExecCtx, parts: Vec<Vec<(I, V)>>) -> VertexSet<I, V> {
        let workers = parts.len();
        ctx.assert_matches(workers, "VertexSet partitioning");
        let parts = ctx.pool().run_per_worker(parts, |w, pairs| {
            assert!(
                pairs.windows(2).all(|p| p[0].0 < p[1].0),
                "from_sorted_parts_on: partition {w} is not in strictly ascending ID order"
            );
            if let Some((id, _)) = pairs
                .iter()
                .find(|(id, _)| hash_one(id) % workers as u64 != w as u64)
            {
                panic!("from_sorted_parts_on: partition {w} does not own {id:?}");
            }
            Partition::from_sorted(pairs)
        });
        VertexSet { parts }
    }

    /// The number of workers (partitions).
    pub fn workers(&self) -> usize {
        self.parts.len()
    }

    /// The worker that owns vertex `id`.
    #[inline]
    pub fn worker_of(&self, id: &I) -> usize {
        (hash_one(id) % self.parts.len() as u64) as usize
    }

    /// Total number of vertices.
    pub fn len(&self) -> usize {
        self.parts.iter().map(|p| p.len()).sum()
    }

    /// Whether there are no vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a vertex with this ID exists.
    pub fn contains(&self, id: &I) -> bool {
        self.get(id).is_some()
    }

    /// Shared access to a vertex value.
    #[inline]
    pub fn get(&self, id: &I) -> Option<&V> {
        self.parts[self.worker_of(id)].get(id)
    }

    /// Iterates over `(id, value)` pairs. Within a partition the columns
    /// stream in ID order; across partitions the order is unspecified. IDs
    /// are yielded by value ([`VertexKey`] is `Copy`).
    pub fn iter(&self) -> impl Iterator<Item = (I, &V)> {
        self.parts.iter().flat_map(|p| p.iter())
    }

    /// Consumes the set and returns all values (order as per
    /// [`iter`](VertexSet::iter)).
    pub fn into_values(self) -> Vec<V> {
        self.parts
            .into_iter()
            .flat_map(|p| p.into_entries().map(|(_, v)| v))
            .collect()
    }

    /// Consumes the set and returns all `(id, value)` pairs (order as per
    /// [`iter`](VertexSet::iter)).
    pub fn into_pairs(self) -> Vec<(I, V)> {
        self.parts
            .into_iter()
            .flat_map(|p| p.into_entries())
            .collect()
    }

    /// Estimated heap bytes held by the store's columns across all
    /// partitions: the ID, value, halted and stamp arrays, by capacity. Heap
    /// owned by the values themselves (e.g. adjacency `Vec`s) is not visible
    /// from here. The runner seals the store to disk when this exceeds a
    /// spill cap at job start, and reports it per superstep.
    pub fn resident_bytes(&self) -> usize {
        self.parts.iter().map(|p| p.resident_bytes()).sum()
    }

    /// Marks every vertex active and clears compute stamps (called at the
    /// start of a job).
    pub(crate) fn activate_all(&mut self) {
        for p in &mut self.parts {
            p.reset_activity();
        }
        self.debug_validate();
    }

    /// Checks the documented column invariants of every partition in debug
    /// builds — strictly increasing sorted IDs, one value and stamp per slot,
    /// a bitset sized for the slots with no bits beyond them — panicking on
    /// the first violation. Runs after every bulk build, after unsealing and
    /// at `activate_all` (job start); release builds compile it to nothing.
    #[inline]
    pub fn debug_validate(&self) {
        for p in &self.parts {
            p.debug_validate();
        }
    }

    /// The halt flag of a vertex, if it exists (testing hook: halt state is
    /// otherwise engine-internal).
    #[cfg(test)]
    pub(crate) fn halted_of(&self, id: &I) -> Option<bool> {
        let p = &self.parts[self.worker_of(id)];
        let slot = p.ids.binary_search(id).ok()?;
        Some(get_bit(&p.halted, slot))
    }

    /// In-memory job concatenation (the paper's `convert(v)` UDF).
    ///
    /// Every vertex of the finished job is transformed by `f` into zero or
    /// more `(id, value)` pairs for the next job; the generated pairs are then
    /// shuffled to their new owner workers. The transformation runs in
    /// parallel, one pool worker per partition, mirroring how "each machine
    /// generates a set of objects of type V<sub>j'</sub> by calling
    /// convert(.) on its assigned vertices".
    ///
    /// If several pairs share an ID, `merge` folds the later value into the
    /// earlier one (needed e.g. when two half-built adjacency lists of the
    /// same k-mer must be unioned). Merge order is deterministic: pairs of
    /// one source worker fold in emission order, sources fold in worker
    /// order.
    ///
    /// Runs on a private single-pass pool; inside a workflow, prefer
    /// [`convert_on`](VertexSet::convert_on) with the shared context.
    pub fn convert<I2, V2, F, M>(self, f: F, merge: M) -> VertexSet<I2, V2>
    where
        I2: VertexKey + SortKey,
        V2: Send,
        F: Fn(I, V) -> Vec<(I2, V2)> + Sync,
        M: Fn(&mut V2, V2) + Sync,
        V: Send,
        I: Send,
    {
        let ctx = ExecCtx::new(self.workers());
        self.convert_on(&ctx, f, merge)
    }

    /// [`convert`](VertexSet::convert) on a caller-provided execution
    /// context (which must match the set's worker count).
    ///
    /// Like the runner's and the mini MapReduce's shuffles, grouping is
    /// **sort-based**: every source worker presorts its per-destination
    /// buffers by the new vertex ID (stable, so same-ID pairs keep their
    /// emission order) and each destination k-way-merges the pre-sorted
    /// buffers, folding duplicate-ID runs with `merge` as they stream past.
    /// The merged stream arrives in ascending ID order, so it is appended
    /// **directly onto the new sorted columns** — the destination partition
    /// is built without any regrouping step.
    pub fn convert_on<I2, V2, F, M>(self, ctx: &ExecCtx, f: F, merge: M) -> VertexSet<I2, V2>
    where
        I2: VertexKey + SortKey,
        V2: Send,
        F: Fn(I, V) -> Vec<(I2, V2)> + Sync,
        M: Fn(&mut V2, V2) + Sync,
        V: Send,
        I: Send,
    {
        let workers = self.workers();
        ctx.assert_matches(workers, "VertexSet partitioning");
        // Phase 1: per-worker transformation into per-destination buffers,
        // each presorted by destination ID with the stable LSD radix sort of
        // `crate::radix` (stability keeps same-ID emission order, so the
        // merge fold order matches the sequential semantics). One scratch
        // serves all of a worker's destination buffers.
        let shuffled: Vec<Vec<Vec<(I2, V2)>>> =
            ctx.pool().run_per_worker(self.parts, |_w, part| {
                let mut out: Vec<Vec<(I2, V2)>> = (0..workers).map(|_| Vec::new()).collect();
                for (id, value) in part.into_entries() {
                    for (nid, nval) in f(id, value) {
                        let dst = (hash_one(&nid) % workers as u64) as usize;
                        out[dst].push((nid, nval));
                    }
                }
                let mut scratch: Vec<(I2, V2)> = Vec::new();
                for buf in out.iter_mut() {
                    crate::radix::sort_pairs(buf, &mut scratch);
                }
                out
            });
        // Phase 2: transpose, then k-way-merge per destination worker
        // straight into the new columns.
        let mut incoming: Vec<Vec<Vec<(I2, V2)>>> = (0..workers).map(|_| Vec::new()).collect();
        for src in shuffled {
            for (dst, buf) in src.into_iter().enumerate() {
                incoming[dst].push(buf);
            }
        }
        // Cooperative control poll at the convert shuffle barrier.
        ctx.poll_barrier();
        let parts: Vec<Partition<I2, V2>> = ctx.pool().run_per_worker(incoming, |_w, mut bufs| {
            // Duplicate IDs arrive as one contiguous run of the merged
            // stream (ties prefer the lower source worker), so folding
            // needs only the previous record, and each distinct ID is
            // appended to the sorted columns exactly once.
            let mut part: Partition<I2, V2> = Partition::with_capacity(0);
            let mut open: Option<(I2, V2)> = None;
            crate::kmerge::merge_sorted_buffers(&mut bufs, |id, val| match &mut open {
                Some((last, acc)) if *last == id => merge(acc, val),
                _ => {
                    if let Some((last, acc)) = open.take() {
                        part.push_sorted(last, acc);
                    }
                    open = Some((id, val));
                }
            });
            if let Some((last, acc)) = open {
                part.push_sorted(last, acc);
            }
            part
        });
        VertexSet { parts }
    }

    /// Repartitions the set over a different number of workers.
    pub fn repartition(self, workers: usize) -> VertexSet<I, V> {
        let workers = workers.max(1);
        VertexSet::from_pairs(workers, self.into_pairs())
    }
}

impl<I: VertexKey + SortKey, V: Send> Default for VertexSet<I, V> {
    fn default() -> Self {
        VertexSet::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fxhash::FxHashMap;

    #[test]
    fn partitioning_is_consistent() {
        let s: VertexSet<u64, ()> = VertexSet::from_pairs(8, (0..1000).map(|i| (i, ())));
        assert_eq!(s.len(), 1000);
        for (id, _) in s.iter() {
            let w = s.worker_of(&id);
            assert!(s.parts[w].get(&id).is_some());
        }
        // every partition got something
        assert!(s.parts.iter().all(|p| p.len() > 0));
    }

    #[test]
    fn sorted_parts_build_the_set_from_pairs_builds() {
        let ctx = ExecCtx::new(3);
        let mut parts: Vec<Vec<(u32, u32)>> = vec![Vec::new(); 3];
        for id in 0..1000u32 {
            parts[(hash_one(&id) % 3) as usize].push((id, id * 2));
        }
        let built = VertexSet::from_sorted_parts_on(&ctx, parts);
        let staged = VertexSet::from_pairs(3, (0..1000u32).map(|id| (id, id * 2)));
        assert_eq!(built.into_pairs(), staged.into_pairs());
    }

    #[test]
    #[should_panic(expected = "does not own")]
    fn sorted_parts_reject_a_misplaced_id() {
        let id = 7u32;
        let wrong = (hash_one(&id) as usize + 1) % 2;
        let mut parts: Vec<Vec<(u32, ())>> = vec![Vec::new(); 2];
        parts[wrong].push((id, ()));
        VertexSet::from_sorted_parts_on(&ExecCtx::new(2), parts);
    }

    #[test]
    #[should_panic(expected = "ascending ID order")]
    fn sorted_parts_reject_an_unsorted_list() {
        VertexSet::from_sorted_parts_on(&ExecCtx::new(1), vec![vec![(2u32, ()), (1, ())]]);
    }

    #[test]
    fn columns_stream_in_sorted_id_order() {
        let s: VertexSet<u64, u64> =
            VertexSet::from_pairs(3, (0..500).rev().map(|i| (i * 7 % 501, i)));
        for p in &s.parts {
            let ids: Vec<u64> = p.iter().map(|(id, _)| id).collect();
            assert!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "sorted, duplicate-free"
            );
        }
    }

    #[test]
    fn resident_bytes_tracks_the_columns() {
        let empty: VertexSet<u64, u64> = VertexSet::new(2);
        assert_eq!(empty.resident_bytes(), 0);
        let s: VertexSet<u64, u64> = VertexSet::from_pairs(2, (0..1000).map(|i| (i, i)));
        let bytes = s.resident_bytes();
        // At least an 8-byte ID, a 16-byte `Option<u64>` value and a 4-byte
        // stamp per vertex; far less than a hash map with per-entry overhead
        // would need.
        assert!(bytes >= 1000 * 28);
        assert!(bytes < 1000 * 64);
    }

    #[test]
    fn convert_reshuffles_and_merges() {
        // Each input vertex i emits two pairs keyed by i/2 with value 1; the
        // merge adds them up, so each output vertex has value 4 (two inputs ×
        // two emissions).
        let s: VertexSet<u64, u64> = VertexSet::from_pairs(4, (0..100).map(|i| (i, 0)));
        let out: VertexSet<u64, u64> =
            s.convert(|id, _v| vec![(id / 2, 1), (id / 2, 1)], |acc, v| *acc += v);
        assert_eq!(out.len(), 50);
        for (_, v) in out.iter() {
            assert_eq!(*v, 4);
        }
    }

    #[test]
    fn convert_can_change_types_and_drop() {
        let s: VertexSet<u64, u64> = VertexSet::from_pairs(2, (0..10).map(|i| (i, i)));
        // Keep only even vertices, as strings keyed by (i, 0) tuples.
        let out: VertexSet<(u64, u8), String> = s.convert(
            |id, v| {
                if id % 2 == 0 {
                    vec![((id, 0u8), format!("v{v}"))]
                } else {
                    vec![]
                }
            },
            |_, _| panic!("no duplicates expected"),
        );
        assert_eq!(out.len(), 5);
        assert_eq!(out.get(&(4, 0)).unwrap(), "v4");
    }

    #[test]
    fn repartition_preserves_contents() {
        let s: VertexSet<u64, u64> = VertexSet::from_pairs(2, (0..50).map(|i| (i, i + 1)));
        let r = s.clone().repartition(7);
        assert_eq!(r.workers(), 7);
        assert_eq!(r.len(), 50);
        let mut a = s.into_pairs();
        let mut b = r.into_pairs();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_workers_clamped_to_one() {
        let s: VertexSet<u64, ()> = VertexSet::new(0);
        assert_eq!(s.workers(), 1);
    }

    #[test]
    fn convert_on_shared_ctx_works_across_conversions() {
        let ctx = ExecCtx::new(3);
        let s: VertexSet<u64, u64> = VertexSet::from_pairs(3, (0..90).map(|i| (i, 1)));
        let once: VertexSet<u64, u64> =
            s.convert_on(&ctx, |id, v| vec![(id / 3, v)], |acc, v| *acc += v);
        assert_eq!(once.len(), 30);
        let twice: VertexSet<u64, u64> =
            once.convert_on(&ctx, |id, v| vec![(id / 3, v)], |acc, v| *acc += v);
        assert_eq!(twice.len(), 10);
        assert!(twice.iter().all(|(_, v)| *v == 9));
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn convert_on_rejects_mismatched_ctx() {
        let ctx = ExecCtx::new(2);
        let s: VertexSet<u64, u64> = VertexSet::from_pairs(3, (0..9).map(|i| (i, 1)));
        let _: VertexSet<u64, u64> = s.convert_on(&ctx, |id, v| vec![(id, v)], |acc, v| *acc += v);
    }

    #[test]
    fn lower_bound_from_galloping_matches_partition_point() {
        let ids: Vec<u64> = (0..10_000).map(|i| i * 3).collect();
        for lo in [0usize, 1, 100, 9_999, 10_000] {
            for target in [0u64, 1, 2, 3, 299, 300, 15_000, 29_997, 29_998, 50_000] {
                if lo <= ids.partition_point(|x| *x < target) {
                    assert_eq!(
                        lower_bound_from(&ids, lo, &target),
                        ids.partition_point(|x| *x < target),
                        "lo={lo} target={target}"
                    );
                }
            }
        }
        assert_eq!(lower_bound_from::<u64>(&[], 0, &5), 0);
    }

    #[test]
    fn bitset_helpers_round_trip() {
        let mut words = vec![0u64; 3];
        set_bit(&mut words, 0, true);
        set_bit(&mut words, 63, true);
        set_bit(&mut words, 64, true);
        set_bit(&mut words, 130, true);
        assert!(get_bit(&words, 0) && get_bit(&words, 63));
        assert!(get_bit(&words, 64) && get_bit(&words, 130));
        assert!(!get_bit(&words, 1) && !get_bit(&words, 129));
        set_bit(&mut words, 63, false);
        assert!(!get_bit(&words, 63));
        assert!(get_bit(&words, 0), "clearing one bit leaves the others");
    }

    // ---- property tests ------------------------------------------------------

    use proptest::prelude::*;

    // `from_pairs` must agree with a hash map filled in input order — the pin
    // of "later duplicates win" — and every read path must agree with that
    // map, at any worker count.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_store_matches_hash_oracle(
            pairs in proptest::collection::vec((0u64..300, 0u64..1_000), 0..300),
            probes in proptest::collection::vec(0u64..300, 0..60),
            workers in 1usize..6,
        ) {
            let store: VertexSet<u64, u64> = VertexSet::from_pairs(workers, pairs.clone());
            let mut oracle: FxHashMap<u64, u64> = FxHashMap::default();
            for (k, v) in pairs {
                oracle.insert(k, v);
            }
            prop_assert_eq!(store.len(), oracle.len());
            for k in probes {
                prop_assert_eq!(store.get(&k), oracle.get(&k));
                prop_assert_eq!(store.contains(&k), oracle.contains_key(&k));
            }
            let mut expected: Vec<(u64, u64)> = oracle.into_iter().collect();
            expected.sort_unstable();
            let mut expected_values: Vec<u64> = expected.iter().map(|&(_, v)| v).collect();
            expected_values.sort_unstable();
            let mut values = store.clone().into_values();
            values.sort_unstable();
            prop_assert_eq!(values, expected_values);
            let mut got = store.into_pairs();
            got.sort_unstable();
            prop_assert_eq!(got, expected);
        }
    }

    // ---- property tests: sort-merge convert vs. hash-grouping oracle --------

    /// The pre-migration hash-grouping semantics: fold every emitted pair, in
    /// (source worker, emission order), into a map via entry lookup.
    fn hash_grouping_oracle<F>(set: &VertexSet<u64, u64>, f: F) -> Vec<(u64, Vec<u64>)>
    where
        F: Fn(u64, u64) -> Vec<(u64, u64)>,
    {
        let mut grouped: FxHashMap<u64, Vec<u64>> = FxHashMap::default();
        for (id, value) in set.iter() {
            for (nid, nval) in f(id, *value) {
                grouped.entry(nid).or_default().push(nval);
            }
        }
        let mut out: Vec<(u64, Vec<u64>)> = grouped.into_iter().collect();
        out.sort_unstable();
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_convert_matches_hash_grouping(
            pairs in proptest::collection::vec((0u64..200, 1u64..1_000), 0..150),
            workers in 1usize..6,
            fan in 1u64..4,
        ) {
            let set: VertexSet<u64, u64> = VertexSet::from_pairs(workers, pairs.clone());
            // Fan each vertex out to `fan` destination IDs to force ID
            // collisions across (and within) source workers.
            let f = move |id: u64, v: u64| -> Vec<(u64, u64)> {
                (0..fan).map(|i| (id % (17 + i), v + i)).collect()
            };
            let expected = hash_grouping_oracle(&set, f);
            // Fold with an order-sensitive merge: append to a per-ID list.
            let got: VertexSet<u64, Vec<u64>> = set.convert(
                move |id, v| f(id, v).into_iter().map(|(nid, nval)| (nid, vec![nval])).collect(),
                |acc, mut v| acc.append(&mut v),
            );
            let mut got: Vec<(u64, Vec<u64>)> = got.into_pairs();
            got.sort_unstable();
            prop_assert_eq!(got.len(), expected.len());
            for ((gid, gvals), (eid, evals)) in got.into_iter().zip(expected) {
                prop_assert_eq!(gid, eid);
                // The multiset of folded values must agree; the fold order of
                // the sort-merge path is additionally checked for determinism
                // below.
                let mut gvals = gvals;
                let mut evals = evals;
                gvals.sort_unstable();
                evals.sort_unstable();
                prop_assert_eq!(gvals, evals);
            }
        }

        #[test]
        fn prop_convert_is_deterministic_with_order_sensitive_merge(
            pairs in proptest::collection::vec((0u64..100, 1u64..1_000), 0..120),
            workers in 1usize..5,
        ) {
            // `merge` keeps the concatenation order, so equality between two
            // runs proves the whole shuffle (presort + k-way merge + fold) is
            // a pure function of the input.
            let build = || -> Vec<(u64, Vec<u64>)> {
                let set: VertexSet<u64, u64> = VertexSet::from_pairs(workers, pairs.clone());
                let out: VertexSet<u64, Vec<u64>> = set.convert(
                    |id, v| vec![(id % 13, vec![v]), (id % 7, vec![v + 1])],
                    |acc, mut v| acc.append(&mut v),
                );
                let mut out = out.into_pairs();
                out.sort_unstable();
                out
            };
            let first = build();
            for _ in 0..2 {
                prop_assert_eq!(build(), first.clone());
            }
        }

        #[test]
        fn prop_convert_is_identical_across_worker_counts(
            pairs in proptest::collection::vec((0u64..100, 1u64..1_000), 0..120),
        ) {
            // With a commutative-associative merge, the radix-backed shuffle
            // must yield byte-identical contents for any worker count (the
            // partitioning changes which buffers exist, not what folds).
            let mut reference: Option<Vec<(u64, u64)>> = None;
            for workers in [1usize, 2, 5] {
                let set: VertexSet<u64, u64> = VertexSet::from_pairs(workers, pairs.clone());
                let out: VertexSet<u64, u64> = set.convert(
                    |id, v| vec![(id % 11, v), (id % 5, v + 1)],
                    |acc, v| *acc += v,
                );
                let mut out = out.into_pairs();
                out.sort_unstable();
                match &reference {
                    Some(r) => prop_assert_eq!(r, &out),
                    None => reference = Some(out),
                }
            }
        }
    }

    // ---- merge-join cursor vs. partition_point --------------------------------

    /// Sorted, deduplicated IDs from arbitrary seeds (spread across the full
    /// `u64` range so the cursor sees both adjacent and far-apart targets).
    fn spread_ids(seeds: &[(u64, u64)]) -> Vec<u64> {
        let mut ids: Vec<u64> = seeds.iter().map(|&(hi, lo)| (hi << 32) ^ lo).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_cursor_lower_bound_matches_plain_oracle(
            seeds in proptest::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX), 0..700),
            probes in proptest::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX), 1..40),
        ) {
            let ids = spread_ids(&seeds);
            // The merge-join walks the column as a monotone cursor: sort the
            // probes and start each search at the previous lower bound.
            let mut probes: Vec<u64> = probes.iter().map(|&(hi, lo)| (hi << 32) ^ lo).collect();
            probes.sort_unstable();
            let mut lo = 0usize;
            for probe in probes {
                lo = lower_bound_from(&ids, lo, &probe);
                prop_assert_eq!(lo, ids.partition_point(|&v| v < probe));
            }
        }
    }

    /// `debug_validate` accepts every way a partition comes to be: pre-sorted
    /// pairs (the no-sort path), unsorted pairs (the radix path), duplicate
    /// IDs, caller-placed lists, and the job-start reset after a run left
    /// halt bits and stamps behind.
    #[test]
    fn debug_validate_accepts_every_lifecycle_phase() {
        // Stride 3 keeps the IDs sparse.
        let sorted: VertexSet<u64, u64> =
            VertexSet::from_pairs(2, (0..2000u64).map(|i| (i * 3, i)));
        sorted.debug_validate();
        let unsorted: VertexSet<u64, u64> =
            VertexSet::from_pairs(2, (0..2000u64).rev().map(|i| (i * 3, i)));
        unsorted.debug_validate();
        assert_eq!(sorted.into_pairs(), unsorted.into_pairs());

        // Duplicate IDs collapse to one slot each; the latest pair wins.
        let dups: VertexSet<u64, u64> =
            VertexSet::from_pairs(3, (0..3000u64).map(|i| (i % 1000, i)));
        dups.debug_validate();
        assert_eq!(dups.len(), 1000);
        assert_eq!(dups.get(&7), Some(&2007));

        let mut parts: Vec<Vec<(u64, u64)>> = vec![Vec::new(); 2];
        for id in 0..500u64 {
            parts[(hash_one(&id) % 2) as usize].push((id, id));
        }
        let mut placed = VertexSet::from_sorted_parts_on(&ExecCtx::new(2), parts);
        placed.debug_validate();
        for p in &mut placed.parts {
            let cols = p.run_columns();
            for slot in 0..cols.ids.len() {
                set_bit(cols.halted, slot, true);
                cols.stamps[slot] = 9;
            }
        }
        placed.activate_all();
        assert!(placed
            .parts
            .iter()
            .all(|p| p.halted.iter().all(|&w| w == 0) && p.stamps.iter().all(|&s| s == 0)));
    }
}
