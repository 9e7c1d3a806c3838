//! Columnar sorted vertex storage shared between consecutive Pregel jobs.
//!
//! Pregel+ distributes vertices to machines by hashing the vertex ID; a
//! [`VertexSet`] does the same over logical workers. *Within* a partition,
//! however, vertices are no longer a hash map: each partition is a
//! struct-of-arrays **columnar store sorted by vertex ID** —
//!
//! * `ids` — the sorted, strictly increasing ID column ("slot" order), one
//!   plain `I` per slot;
//! * `values` — the parallel value column, one plain `V` per slot;
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
//! each winning payload once (later duplicates win), and pairs staged in
//! ascending ID order skip the sort. Between jobs the set is
//! read-only — a point read is a binary search over the ID column — and
//! during a job the runner rewrites only values, halt bits and stamps in
//! place; the crate-internal `activate_all` zeroes the last two at job start.

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

/// Index of the first word at or after `from` that is not all-ones, i.e.
/// still has an unhalted slot: both runners' pass-2 scans skip whole halted
/// words with it.
#[inline]
pub(crate) fn next_word_with_zero(words: &[u64], from: usize) -> Option<usize> {
    words
        .get(from..)?
        .iter()
        .position(|&w| w != u64::MAX)
        .map(|i| from + i)
}

/// Reads bit `slot` of a packed bitset (test-only counterpart of
/// [`set_bit`]: the engine reads halt state word-at-a-time instead).
#[cfg(test)]
#[inline]
pub(crate) fn get_bit(words: &[u64], slot: usize) -> bool {
    words[slot >> 6] & (1u64 << (slot & 63)) != 0
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
/// entry per slot; `halted` has one bit per slot, with all bits beyond the
/// slot count zero.
#[derive(Debug, Clone)]
pub(crate) struct Partition<I, V> {
    ids: Vec<I>,
    values: Vec<V>,
    halted: Vec<u64>,
    stamps: Vec<u32>,
}

/// Mutable view of a partition's columns, handed to the runner for the
/// duration of a compute phase. Field-level borrows let the delivery loop
/// hold a value `&mut` while flipping halt bits.
pub(crate) struct RunColumns<'a, I, V> {
    /// The sorted ID column.
    pub(crate) ids: &'a [I],
    /// The value column.
    pub(crate) values: &'a mut [V],
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
    /// build path of `from_sorted` and `from_unsorted`.
    fn push_sorted(&mut self, id: I, value: V) {
        debug_assert!(
            self.ids.last().is_none_or(|last| *last < id),
            "push_sorted requires strictly ascending IDs"
        );
        if self.ids.len().is_multiple_of(64) {
            self.halted.push(0);
        }
        self.ids.push(id);
        self.values.push(value);
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
        // The gather scratch: a payload is taken out once, by its winner.
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
        Some(&self.values[slot])
    }

    /// `(id, value)` entries in ID order (IDs by value — [`VertexKey`] is
    /// `Copy`).
    fn iter(&self) -> impl Iterator<Item = (I, &V)> {
        self.ids.iter().copied().zip(&self.values)
    }

    /// Consumes the partition into its `(id, value)` pairs in ID order.
    fn into_entries(self) -> impl Iterator<Item = (I, V)> {
        self.ids.into_iter().zip(self.values)
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

    /// Estimated heap bytes held by the columns themselves (excluding any
    /// heap owned by the values).
    fn resident_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<I>()
            + self.values.capacity() * std::mem::size_of::<V>()
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
            len.div_ceil(64),
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

    /// The number of workers (partitions).
    pub fn workers(&self) -> usize {
        self.parts.len()
    }

    /// The worker that owns vertex `id`.
    #[inline]
    fn worker_of(&self, id: &I) -> usize {
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
    /// from here. The runner reports it per superstep, and the memory budget
    /// of a [`JobControl`](crate::JobControl) is held against it.
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
    /// the first violation. Runs after every bulk build and at
    /// `activate_all` (job start); release builds compile it to nothing.
    #[inline]
    fn debug_validate(&self) {
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
        // An 8-byte ID, an 8-byte `u64` value and a 4-byte stamp per vertex,
        // plus one halt bit rounded up to whole words: far less than a hash
        // map with per-entry overhead would need.
        assert!(bytes >= 1000 * 20);
        assert!(bytes < 1000 * 21);
    }

    #[test]
    fn zero_workers_clamped_to_one() {
        let s: VertexSet<u64, ()> = VertexSet::new(0);
        assert_eq!(s.workers(), 1);
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
            let mut values: Vec<u64> = store.iter().map(|(_, v)| *v).collect();
            values.sort_unstable();
            prop_assert_eq!(values, expected_values);
            let mut got = store.into_pairs();
            got.sort_unstable();
            prop_assert_eq!(got, expected);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_next_word_with_zero_matches_oracle(
            data in proptest::collection::vec(0u8..2, 0..64),
            from in 0usize..70,
        ) {
            // bools → words: true = all-ones, false = one clear bit. `from`
            // reaches past the end.
            let words: Vec<u64> = data
                .into_iter()
                .enumerate()
                .map(|(i, full)| if full != 0 { u64::MAX } else { u64::MAX ^ (1 << (i % 64)) })
                .collect();
            let oracle = words
                .iter()
                .enumerate()
                .skip(from.min(words.len()))
                .find(|(_, &w)| w != u64::MAX)
                .map(|(i, _)| i);
            prop_assert_eq!(next_word_with_zero(&words, from), oracle);
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
    /// IDs, and the job-start reset after a run left halt bits and stamps
    /// behind.
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

        let mut placed: VertexSet<u64, u64> =
            VertexSet::from_pairs(2, (0..500u64).map(|id| (id, id)));
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
