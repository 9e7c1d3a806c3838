//! A bulk-built, hash-partitioned vertex store sorted by ID.
//!
//! [`VertexSet::from_pairs`] places every `(id, value)` pair, its ID a `u64`,
//! on worker `hash_one(&id) % workers`, the way Pregel+ distributes vertices
//! over machines, and stores each partition as two parallel columns sorted
//! by ID: the strictly increasing `ids` and their `values`. It radix-sorts a narrow
//! `(id, index)` key column per partition and gathers each winning payload
//! once (later duplicates win); pairs staged in ascending ID order skip the
//! sort.
//!
//! No superstep runner reads it: every job runs over ranks on a
//! [`DenseSet`](crate::DenseSet). The store stays only as the target of the
//! benchmark's `vertex_set.*` probe, which times this build on a k-mer graph's
//! IDs, and goes when that probe does.

use crate::fxhash::hash_one;

/// One partition of a [`VertexSet`]: parallel columns sorted by vertex ID.
#[derive(Debug)]
struct Partition<V> {
    /// Strictly increasing.
    ids: Vec<u64>,
    /// One value per ID.
    values: Vec<V>,
}

impl<V> Partition<V> {
    /// Builds a partition from arbitrarily ordered pairs; later duplicates
    /// replace earlier ones. Sorts a narrow `(id, index)` key column with the
    /// radix plane, then gathers each winning payload once.
    fn from_unsorted(pairs: Vec<(u64, V)>) -> Partition<V> {
        assert!(
            pairs.len() <= u32::MAX as usize,
            "a partition is capped at u32::MAX staged pairs"
        );
        // Pairs staged in ascending ID order (e.g. sequential vertex IDs)
        // skip the sort and the duplicate merge outright.
        if pairs.windows(2).all(|w| w[0].0 < w[1].0) {
            let (ids, values) = pairs.into_iter().unzip();
            return Partition { ids, values };
        }
        let mut keys: Vec<(u64, u32)> = pairs
            .iter()
            .enumerate()
            .map(|(i, (id, _))| (*id, i as u32))
            .collect();
        crate::radix::sort_pairs(&mut keys, &mut Vec::new());
        // The gather scratch: a payload is taken out once, by its winner.
        let mut staged: Vec<Option<V>> = pairs.into_iter().map(|(_, v)| Some(v)).collect();
        let mut part = Partition {
            ids: Vec::with_capacity(keys.len()),
            values: Vec::with_capacity(keys.len()),
        };
        let mut it = keys.into_iter().peekable();
        while let Some((id, index)) = it.next() {
            // The sort is stable, so the last entry of an equal-ID run is the
            // latest pair — the one that wins.
            if it.peek().is_some_and(|(next, _)| *next == id) {
                staged[index as usize] = None;
                continue;
            }
            let value = staged[index as usize]
                .take()
                .expect("each index gathered once");
            part.ids.push(id);
            part.values.push(value);
        }
        part
    }
}

/// A collection of vertices hash-partitioned over a fixed number of workers,
/// each partition a pair of ID-sorted columns (see the module docs).
#[derive(Debug)]
pub struct VertexSet<V> {
    // Built to be timed and dropped: only the tests read the columns back.
    #[allow(dead_code)]
    parts: Vec<Partition<V>>,
}

impl<V> VertexSet<V> {
    /// Builds a vertex set from `(id, value)` pairs over `workers` workers (at
    /// least one). Later duplicates replace earlier ones.
    pub fn from_pairs(workers: usize, pairs: impl IntoIterator<Item = (u64, V)>) -> VertexSet<V> {
        let workers = workers.max(1);
        let mut staged: Vec<Vec<(u64, V)>> = (0..workers).map(|_| Vec::new()).collect();
        for (id, value) in pairs {
            staged[(hash_one(&id) % workers as u64) as usize].push((id, value));
        }
        VertexSet {
            parts: staged.into_iter().map(Partition::from_unsorted).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fxhash::FxHashMap;

    /// Every `(worker, id, value)` of the set, partition by partition, each
    /// in column order.
    fn entries<V: Copy>(set: &VertexSet<V>) -> Vec<(usize, u64, V)> {
        let mut out = Vec::new();
        for (w, part) in set.parts.iter().enumerate() {
            assert_eq!(part.ids.len(), part.values.len(), "one value per ID");
            out.extend(
                part.ids
                    .iter()
                    .zip(&part.values)
                    .map(|(&id, &v)| (w, id, v)),
            );
        }
        out
    }

    #[test]
    fn partitioning_is_consistent() {
        let s: VertexSet<()> = VertexSet::from_pairs(8, (0..1000).map(|i| (i, ())));
        let placed = entries(&s);
        assert_eq!(placed.len(), 1000);
        for (w, id, ()) in placed {
            assert_eq!(w, (hash_one(&id) % 8) as usize, "vertex {id}");
        }
        // every partition got something
        assert!(s.parts.iter().all(|p| !p.ids.is_empty()));
    }

    #[test]
    fn columns_stream_in_sorted_id_order() {
        let s: VertexSet<u64> = VertexSet::from_pairs(3, (0..500).rev().map(|i| (i * 7 % 501, i)));
        for p in &s.parts {
            assert!(
                p.ids.windows(2).all(|w| w[0] < w[1]),
                "sorted, duplicate-free"
            );
        }
    }

    #[test]
    fn zero_workers_clamped_to_one() {
        let s: VertexSet<()> = VertexSet::from_pairs(0, std::iter::empty());
        assert_eq!(s.parts.len(), 1);
    }

    use proptest::prelude::*;

    // `from_pairs` must agree with a hash map filled in input order — the pin
    // of "later duplicates win" — at any worker count, with every vertex on
    // its hash's worker.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_store_matches_hash_oracle(
            pairs in proptest::collection::vec((0u64..300, 0u64..1_000), 0..300),
            workers in 1usize..6,
        ) {
            let store: VertexSet<u64> = VertexSet::from_pairs(workers, pairs.clone());
            let mut oracle: FxHashMap<u64, u64> = FxHashMap::default();
            for (k, v) in pairs {
                oracle.insert(k, v);
            }
            let mut expected: Vec<(u64, u64)> = oracle.into_iter().collect();
            expected.sort_unstable();
            let mut got = Vec::new();
            for (w, id, v) in entries(&store) {
                prop_assert_eq!(w as u64, hash_one(&id) % workers as u64);
                got.push((id, v));
            }
            got.sort_unstable();
            prop_assert_eq!(got, expected);
        }
    }
}
