//! Shared k-way merge over pre-sorted `(key, value)` buffers.
//!
//! The superstep runner's sorted plane consumes one pre-sorted buffer per
//! source worker and needs the merged stream in `(key, source)` order (ties
//! broken by the lower source worker, which keeps the merge a pure function
//! of the per-sender buffers and therefore deterministic). The merge drains the buffers in place, so
//! callers get their `Vec` capacity back for reuse.
//!
//! Sources are tracked in a hand-rolled binary min-heap keyed by each
//! source's next key (a `std::collections::BinaryHeap` cannot peek into the
//! drains from its `Ord` impl), so each of the N merged records costs
//! O(log k) comparisons for k sources rather than the O(k) of a linear scan
//! — the difference between the sorted plane winning and losing once the
//! worker count matches a large machine's core count.

use std::vec::Drain;

/// Whether source `a` must be emitted before source `b` (smaller next key,
/// ties to the lower source index).
#[inline]
fn before<K: Ord, V>(drains: &[Drain<'_, (K, V)>], a: usize, b: usize) -> bool {
    let ka = &drains[a].as_slice()[0].0;
    let kb = &drains[b].as_slice()[0].0;
    match ka.cmp(kb) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => a < b,
    }
}

fn sift_down<K: Ord, V>(heap: &mut [usize], drains: &[Drain<'_, (K, V)>], mut i: usize) {
    loop {
        let left = 2 * i + 1;
        let right = left + 1;
        let mut smallest = i;
        if left < heap.len() && before(drains, heap[left], heap[smallest]) {
            smallest = left;
        }
        if right < heap.len() && before(drains, heap[right], heap[smallest]) {
            smallest = right;
        }
        if smallest == i {
            return;
        }
        heap.swap(i, smallest);
        i = smallest;
    }
}

/// Merges the pre-sorted buffers into a single `(key, source)`-ordered stream,
/// invoking `emit` once per record. Buffers are drained (emptied, capacity
/// kept).
///
/// Every buffer must already be sorted by key; unsorted input produces an
/// unspecified (but memory-safe) emission order.
pub(crate) fn merge_sorted_buffers<K: Ord, V>(
    bufs: &mut [Vec<(K, V)>],
    mut emit: impl FnMut(K, V),
) {
    let mut drains: Vec<Drain<'_, (K, V)>> = bufs.iter_mut().map(|b| b.drain(..)).collect();
    let mut heap: Vec<usize> = (0..drains.len())
        .filter(|&s| !drains[s].as_slice().is_empty())
        .collect();
    for i in (0..heap.len() / 2).rev() {
        sift_down(&mut heap, &drains, i);
    }
    while let Some(&s) = heap.first() {
        let (k, v) = drains[s].next().expect("heap sources are non-empty");
        emit(k, v);
        if drains[s].as_slice().is_empty() {
            let last = heap.pop().expect("heap is non-empty");
            if !heap.is_empty() {
                heap[0] = last;
            }
        }
        sift_down(&mut heap, &drains, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Buffers = Vec<Vec<(u64, u64)>>;

    fn merge_collect(mut bufs: Buffers) -> (Vec<(u64, u64)>, Buffers) {
        let mut out = Vec::new();
        merge_sorted_buffers(&mut bufs, |k, v| out.push((k, v)));
        (out, bufs)
    }

    #[test]
    fn merges_in_key_then_source_order() {
        let bufs = vec![
            vec![(1, 10), (3, 30), (3, 31)],
            vec![(1, 11), (2, 20)],
            vec![],
            vec![(0, 1), (4, 40)],
        ];
        let (out, drained) = merge_collect(bufs);
        assert_eq!(
            out,
            vec![(0, 1), (1, 10), (1, 11), (2, 20), (3, 30), (3, 31), (4, 40)]
        );
        assert!(drained.iter().all(|b| b.is_empty()), "buffers are drained");
    }

    #[test]
    fn single_source_is_a_passthrough() {
        let (out, _) = merge_collect(vec![vec![(5, 1), (6, 2), (7, 3)]]);
        assert_eq!(out, vec![(5, 1), (6, 2), (7, 3)]);
    }

    #[test]
    fn empty_input() {
        let (out, _) = merge_collect(vec![]);
        assert!(out.is_empty());
        let (out, _) = merge_collect(vec![vec![], vec![]]);
        assert!(out.is_empty());
    }

    #[test]
    fn equal_keys_prefer_lower_source_across_many_sources() {
        // 8 sources all carrying the same key: values must come out in
        // source order, exercising heap tie-breaking beyond two sources.
        let bufs: Vec<Vec<(u64, u64)>> = (0..8).map(|s| vec![(7, s)]).collect();
        let (out, _) = merge_collect(bufs);
        assert_eq!(
            out.iter().map(|&(_, v)| v).collect::<Vec<_>>(),
            (0..8).collect::<Vec<_>>()
        );
    }

    #[test]
    fn matches_naive_concat_sort_on_random_runs() {
        // Deterministic pseudo-random runs across a spread of source counts.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for sources in [1usize, 2, 3, 5, 9, 16, 33] {
            let mut bufs: Vec<Vec<(u64, u64)>> = Vec::new();
            let mut naive: Vec<(u64, usize, u64)> = Vec::new();
            for s in 0..sources {
                let len = (next() % 50) as usize;
                let mut buf: Vec<(u64, u64)> = (0..len).map(|_| (next() % 20, next())).collect();
                buf.sort_unstable_by_key(|p| p.0);
                for &(k, v) in &buf {
                    naive.push((k, s, v));
                }
                bufs.push(buf);
            }
            naive.sort_by_key(|&(k, s, _)| (k, s));
            let mut out = Vec::new();
            merge_sorted_buffers(&mut bufs, |k, v| out.push((k, v)));
            assert_eq!(
                out,
                naive
                    .into_iter()
                    .map(|(k, _, v)| (k, v))
                    .collect::<Vec<_>>(),
                "sources = {sources}"
            );
        }
    }
}
