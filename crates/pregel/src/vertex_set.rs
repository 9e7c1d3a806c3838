//! Columnar sorted vertex storage shared between consecutive Pregel jobs.
//!
//! Pregel+ distributes vertices to machines by hashing the vertex ID; a
//! [`VertexSet`] does the same over logical workers. *Within* a partition,
//! however, vertices are no longer a hash map: each partition is a
//! struct-of-arrays **columnar store sorted by vertex ID** —
//!
//! * `ids` — the sorted, strictly increasing ID column ("slot" order). For
//!   radix-capable key types this is an `IdColumn` of **delta/bit-packed
//!   128-ID frames** over the keys' `u64` radix images, each frame carrying
//!   its minimum (a skip index for `lower_bound`) and a fixed delta width —
//!   typically 2–3 bytes per ID instead of 8 (see
//!   [`VertexSet::id_column_bytes`]);
//! * `values` — the parallel value column (`None` marks a tombstoned slot);
//! * `halted` — one bit per slot, packed 64 slots to a word;
//! * `stamps` — one `u32` compute stamp per slot.
//!
//! The layout is what makes the runner's message delivery a **merge-join**:
//! the shuffle hands every worker its inbound messages sorted by destination
//! ID (see `runner.rs`), and sorted messages meeting a sorted ID column is a
//! single linear pass — no per-run hash probe, no bucket-array walk. The
//! straggler scan (active vertices that received nothing) becomes a walk over
//! the `halted` bitset, skipping 64 halted vertices per word compare, and a
//! full-partition scan touches three dense arrays instead of a hash table's
//! scattered buckets. The columns also drop the hash map's bucket/control
//! overhead; [`VertexSet::resident_bytes`] reports the footprint.
//!
//! # Mutation model
//!
//! Point reads are a binary search. Point **inserts** go to a small sorted
//! `pending` side buffer (merged into the columns when it outgrows a
//! threshold) so they never shift the big columns; point **removes**
//! tombstone their slot (`values[slot] = None`) and the partition compacts
//! once tombstones dominate. [`retain`](VertexSet::retain) batch-tombstones
//! and compacts once. Compaction rebuilds the columns in one linear merge of
//! the live slots and the pending run; it resets the `halted`/`stamps`
//! bookkeeping, which is safe because every job begins by
//! re-activating (and compacting) the set via the crate-internal
//! `activate_all`.
//! Bulk construction ([`from_pairs`](VertexSet::from_pairs), the output side
//! of [`convert`](VertexSet::convert)) never goes through `pending`: pairs
//! are radix-sorted by ID (narrow key column only — payloads are moved once,
//! by a gather pass) and the columns are emitted directly.
//!
//! A sustained burst of point operations on a large partition — the
//! removal-churn shape where binary searches and pending memmoves used to
//! lose 0.56× to the old hash store — flips the partition into **sidecar
//! mode**: the columns drain wholesale into an `FxHashMap<I, V>` and every
//! point op, retain and scan runs on the map, so a churn-heavy phase pays
//! exactly what the old hash store paid (one probe, value inline). The
//! sidecar drains back at the next `compact`: its
//! pairs are radix-sorted and re-emitted as fresh columns (all-active, like
//! any compaction), so the steady-state delivery plane never sees it.
//!
//! The [`convert`](VertexSet::convert) method implements the paper's first
//! API extension (Section II, "Our Extensions to Pregel API"): the output
//! vertices of one job are transformed in place into the input vertices of
//! the next job and re-shuffled by the new vertex IDs, without a round-trip
//! through HDFS. Its sort-merge shuffle streams in ID order, so the merged
//! output *is* the new sorted column — no rebuild step.

use crate::engine::ExecCtx;
use crate::fxhash::{hash_one, FxHashMap};
use crate::kernels;
use crate::kernels::FRAME;
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

/// Delta/bit-packed sorted-ID storage: the strictly increasing `u64` radix
/// images are sealed into [`FRAME`]-ID frames, each stored as fixed-width
/// deltas from the frame's first ID (its *base*). `bases` doubles as a
/// block-min skip index for [`lower_bound`](PackedIds::lower_bound); the
/// trailing `< FRAME` images wait un-packed in `tail`.
#[derive(Debug, Clone, Default)]
pub(crate) struct PackedIds {
    /// Bit-packed delta stream; each sealed frame starts at a word boundary.
    words: Vec<u64>,
    /// First ID image of each sealed frame (ascending — the skip index).
    bases: Vec<u64>,
    /// Word offset of each sealed frame within `words`.
    offsets: Vec<u32>,
    /// Delta bit width of each sealed frame.
    widths: Vec<u8>,
    /// Unsealed trailing images, `< FRAME` of them.
    tail: Vec<u64>,
}

impl PackedIds {
    #[inline]
    fn sealed(&self) -> usize {
        self.bases.len()
    }

    #[inline]
    fn len(&self) -> usize {
        self.sealed() * FRAME + self.tail.len()
    }

    /// Appends an image strictly greater than every stored one.
    fn push(&mut self, image: u64) {
        debug_assert!(
            self.last().is_none_or(|l| l < image),
            "PackedIds requires strictly ascending images"
        );
        self.tail.push(image);
        if self.tail.len() == FRAME {
            let base = self.tail[0];
            let width = match self.tail[FRAME - 1] - base {
                0 => 0,
                d => 64 - d.leading_zeros(),
            };
            self.offsets.push(self.words.len() as u32);
            self.widths.push(width as u8);
            self.bases.push(base);
            kernels::pack_frame(&self.tail, base, width, &mut self.words);
            self.tail.clear();
        }
    }

    fn last(&self) -> Option<u64> {
        if let Some(&t) = self.tail.last() {
            return Some(t);
        }
        let f = self.sealed().checked_sub(1)?;
        Some(self.get_in_frame(f, FRAME - 1))
    }

    /// Image at `idx % FRAME` within sealed frame `f`.
    #[inline]
    fn get_in_frame(&self, f: usize, idx: usize) -> u64 {
        kernels::unpack_one(
            &self.words[self.offsets[f] as usize..],
            self.bases[f],
            self.widths[f] as u32,
            idx,
        )
    }

    /// Image at global position `i`.
    fn get(&self, i: usize) -> u64 {
        let f = i / FRAME;
        if f < self.sealed() {
            self.get_in_frame(f, i % FRAME)
        } else {
            self.tail[i - self.sealed() * FRAME]
        }
    }

    /// Decodes sealed frame `f` into `out`.
    fn decode_frame(&self, f: usize, out: &mut [u64; FRAME]) {
        let start = self.offsets[f] as usize;
        let width = self.widths[f] as u32;
        let end = start + kernels::frame_words(FRAME, width);
        kernels::unpack_frame(&self.words[start..end], self.bases[f], width, &mut out[..]);
    }

    /// First position whose image is `>= image` (the global lower bound):
    /// binary search over the frame bases, then within one frame.
    fn lower_bound(&self, image: u64) -> usize {
        let sealed = self.sealed();
        let f = self.bases.partition_point(|&b| b <= image);
        if f == 0 {
            // No sealed frame starts at or below `image`: either the very
            // first sealed ID already exceeds it, or only the tail exists.
            if sealed > 0 {
                return 0;
            }
            return self.tail.partition_point(|&v| v < image);
        }
        let tf = f - 1;
        let (mut lo, mut hi) = (0usize, FRAME);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.get_in_frame(tf, mid) < image {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo < FRAME {
            return tf * FRAME + lo;
        }
        if tf + 1 < sealed {
            // Frame `tf` is exhausted and frame `tf + 1` starts above
            // `image` (by choice of `tf`): its first slot is the bound.
            return (tf + 1) * FRAME;
        }
        sealed * FRAME + self.tail.partition_point(|&v| v < image)
    }

    /// Heap bytes of the packed representation.
    fn heap_bytes(&self) -> usize {
        self.words.capacity() * 8
            + self.bases.capacity() * 8
            + self.offsets.capacity() * 4
            + self.widths.capacity()
            + self.tail.capacity() * 8
    }

    /// Checks the sealed-frame invariants (debug builds only): equal-length
    /// frame tables, strictly increasing images within and across frames
    /// (which implies ascending bases), per-frame deltas that fit the
    /// recorded width, and an unsealed tail shorter than one frame.
    #[cfg(debug_assertions)]
    fn debug_validate(&self) {
        assert_eq!(
            self.bases.len(),
            self.offsets.len(),
            "frame table lengths diverge (bases vs offsets)"
        );
        assert_eq!(
            self.bases.len(),
            self.widths.len(),
            "frame table lengths diverge (bases vs widths)"
        );
        assert!(
            self.tail.len() < FRAME,
            "unsealed tail must stay below one frame"
        );
        let mut prev: Option<u64> = None;
        let mut frame = [0u64; FRAME];
        for f in 0..self.sealed() {
            self.decode_frame(f, &mut frame);
            assert_eq!(
                frame[0], self.bases[f],
                "frame {f} base must equal its first image"
            );
            let width = self.widths[f] as u32;
            for (k, &image) in frame.iter().enumerate() {
                assert!(
                    prev.is_none_or(|p| p < image),
                    "images must be strictly increasing (frame {f}, slot {k})"
                );
                let delta = image - self.bases[f];
                let fits = match width {
                    0 => delta == 0,
                    64 => true,
                    w => delta < (1u64 << w),
                };
                assert!(
                    fits,
                    "frame {f} slot {k}: delta {delta} exceeds width {width}"
                );
                prev = Some(image);
            }
        }
        for (k, &image) in self.tail.iter().enumerate() {
            assert!(
                prev.is_none_or(|p| p < image),
                "tail images must continue strictly increasing (slot {k})"
            );
            prev = Some(image);
        }
    }
}

/// The sorted ID column of one partition: plain element storage for key
/// types without a radix image (or when
/// [`kernels::force_plain_id_columns`] is engaged at construction time),
/// delta/bit-packed [`PackedIds`] frames otherwise.
#[derive(Debug, Clone)]
pub(crate) enum IdColumn<I> {
    /// One element per slot.
    Plain(Vec<I>),
    /// Packed radix-key images, decoded on access.
    Packed(PackedIds),
}

impl<I: VertexKey + SortKey> IdColumn<I> {
    fn new() -> IdColumn<I> {
        if I::RADIX && !kernels::plain_id_columns_forced() {
            IdColumn::Packed(PackedIds::default())
        } else {
            IdColumn::Plain(Vec::new())
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            IdColumn::Plain(v) => v.len(),
            IdColumn::Packed(p) => p.len(),
        }
    }

    fn reserve(&mut self, additional: usize) {
        match self {
            IdColumn::Plain(v) => v.reserve(additional),
            IdColumn::Packed(p) => {
                // Only the frame metadata is cheap to pre-size; the delta
                // stream's width is unknown until the IDs arrive.
                let frames = additional / FRAME;
                p.bases.reserve(frames);
                p.offsets.reserve(frames);
                p.widths.reserve(frames);
            }
        }
    }

    /// Appends an ID strictly greater than every stored one.
    fn push(&mut self, id: I) {
        match self {
            IdColumn::Plain(v) => v.push(id),
            IdColumn::Packed(p) => p.push(id.radix_key()),
        }
    }

    fn last(&self) -> Option<I> {
        match self {
            IdColumn::Plain(v) => v.last().copied(),
            IdColumn::Packed(p) => p.last().map(I::from_radix_key),
        }
    }

    /// `slice::binary_search` over the column.
    fn binary_search(&self, id: &I) -> Result<usize, usize> {
        match self {
            IdColumn::Plain(v) => v.binary_search(id),
            IdColumn::Packed(p) => {
                let image = id.radix_key();
                let lb = p.lower_bound(image);
                if lb < p.len() && p.get(lb) == image {
                    Ok(lb)
                } else {
                    Err(lb)
                }
            }
        }
    }

    /// Iterates the IDs in slot order, decoding packed frames once each.
    pub(crate) fn iter(&self) -> IdColumnIter<'_, I> {
        IdColumnIter {
            col: self,
            pos: 0,
            len: self.len(),
            frame: usize::MAX,
            buf: [0; FRAME],
        }
    }

    /// A decoding cursor for the runner's monotone merge-join walk.
    pub(crate) fn cursor(&self) -> IdCursor<'_, I> {
        IdCursor {
            col: self,
            frame: usize::MAX,
            buf: [0; FRAME],
        }
    }

    /// Consumes the column into a plain `Vec` (one transient decode for
    /// packed columns — the `into_entries` path).
    fn into_vec(self) -> Vec<I> {
        match self {
            IdColumn::Plain(v) => v,
            IdColumn::Packed(_) => {
                let mut out = Vec::with_capacity(self.len());
                out.extend(self.iter());
                out
            }
        }
    }

    /// `(actual heap bytes, plain-equivalent bytes)` — the compression
    /// numerator and denominator surfaced in `SuperstepMetrics`.
    fn footprint(&self) -> (usize, usize) {
        (self.heap_bytes(), self.len() * std::mem::size_of::<I>())
    }

    /// Checks the representation-specific invariants (debug builds only):
    /// packed columns validate their sealed-frame structure. The generic
    /// strict-ordering invariant is checked by the partition, which sees
    /// the decoded IDs for both representations.
    #[cfg(debug_assertions)]
    fn debug_validate(&self) {
        if let IdColumn::Packed(p) = self {
            p.debug_validate();
        }
    }
}

impl<I> IdColumn<I> {
    /// An empty column pinned to the `Plain` representation regardless of
    /// the key type — the spill layer's extent window, whose IDs are decoded
    /// exactly once at fault-in and then read positionally.
    pub(crate) fn plain() -> IdColumn<I> {
        IdColumn::Plain(Vec::new())
    }

    /// The backing vector of a `Plain` column. Callers construct the column
    /// via [`IdColumn::plain`]; a `Packed` column here is a programming
    /// error.
    pub(crate) fn as_plain_mut(&mut self) -> &mut Vec<I> {
        match self {
            IdColumn::Plain(v) => v,
            IdColumn::Packed(_) => unreachable!("spill window columns are always plain"),
        }
    }

    /// Heap bytes actually held by the column.
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            IdColumn::Plain(v) => v.capacity() * std::mem::size_of::<I>(),
            IdColumn::Packed(p) => p.heap_bytes(),
        }
    }
}

/// Iterator over an [`IdColumn`]'s IDs in slot order, caching one decoded
/// frame at a time.
pub(crate) struct IdColumnIter<'a, I> {
    col: &'a IdColumn<I>,
    pos: usize,
    len: usize,
    frame: usize,
    buf: [u64; FRAME],
}

impl<I: VertexKey + SortKey> Iterator for IdColumnIter<'_, I> {
    type Item = I;

    fn next(&mut self) -> Option<I> {
        if self.pos >= self.len {
            return None;
        }
        let i = self.pos;
        self.pos += 1;
        Some(match self.col {
            IdColumn::Plain(v) => v[i],
            IdColumn::Packed(p) => {
                let f = i / FRAME;
                if f < p.sealed() {
                    if self.frame != f {
                        p.decode_frame(f, &mut self.buf);
                        self.frame = f;
                    }
                    I::from_radix_key(self.buf[i % FRAME])
                } else {
                    I::from_radix_key(p.tail[i - p.sealed() * FRAME])
                }
            }
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.len - self.pos;
        (rem, Some(rem))
    }
}

impl<I: VertexKey + SortKey> ExactSizeIterator for IdColumnIter<'_, I> {}

/// A monotone read cursor over an [`IdColumn`]: the runner's merge-join and
/// straggler sweep walk slots in ascending order, so each packed frame is
/// decoded at most once per pass.
pub(crate) struct IdCursor<'a, I> {
    col: &'a IdColumn<I>,
    frame: usize,
    buf: [u64; FRAME],
}

impl<I: VertexKey + SortKey> IdCursor<'_, I> {
    /// [`lower_bound_from`] over the column.
    pub(crate) fn lower_bound_from(&mut self, lo: usize, target: &I) -> usize {
        match self.col {
            IdColumn::Plain(v) => lower_bound_from(v, lo, target),
            IdColumn::Packed(p) => {
                packed_lower_bound_from(p, &mut self.frame, &mut self.buf, lo, target.radix_key())
            }
        }
    }

    /// The ID at `slot`.
    pub(crate) fn get(&mut self, slot: usize) -> I {
        match self.col {
            IdColumn::Plain(v) => v[slot],
            IdColumn::Packed(p) => {
                let f = slot / FRAME;
                if f < p.sealed() {
                    if self.frame != f {
                        p.decode_frame(f, &mut self.buf);
                        self.frame = f;
                    }
                    I::from_radix_key(self.buf[slot % FRAME])
                } else {
                    I::from_radix_key(p.tail[slot - p.sealed() * FRAME])
                }
            }
        }
    }
}

/// [`lower_bound_from`] on a packed column, reusing the cursor's decoded
/// frame: probe the cached/current frame first (the merge-join common case),
/// then skip whole frames via the base index.
fn packed_lower_bound_from(
    p: &PackedIds,
    frame: &mut usize,
    buf: &mut [u64; FRAME],
    lo: usize,
    image: u64,
) -> usize {
    let n = p.len();
    if lo >= n {
        return n;
    }
    let sealed = p.sealed();
    let lf = lo / FRAME;
    if lf < sealed {
        // Last frame at or after `lf` whose base is `<= image`; by the
        // contract everything before `lo` is `< image`, so frames before
        // `lf` cannot hold the bound. A monotone cursor almost always finds
        // it in the current or next frame, so probe those two before binary
        // searching the rest of the skip index.
        let rel = if lf + 1 >= sealed || p.bases[lf + 1] > image {
            usize::from(p.bases[lf] <= image)
        } else if lf + 2 >= sealed || p.bases[lf + 2] > image {
            2
        } else {
            2 + p.bases[lf + 2..].partition_point(|&b| b <= image)
        };
        if rel == 0 {
            // Even frame `lf` starts above `image`: the bound is `lo`.
            return lo;
        }
        let tf = lf + rel - 1;
        if *frame != tf {
            p.decode_frame(tf, buf);
            *frame = tf;
        }
        let start = if tf == lf { lo - lf * FRAME } else { 0 };
        let pos = kernels::lower_bound_u64(&buf[..], start, image);
        if pos < FRAME {
            return tf * FRAME + pos;
        }
        if tf + 1 < sealed {
            // Frame `tf + 1` starts above `image` by choice of `tf`.
            return (tf + 1) * FRAME;
        }
        // Fall through to the tail.
    }
    let tail_off = sealed * FRAME;
    tail_off + kernels::lower_bound_u64(&p.tail, lo.saturating_sub(tail_off), image)
}

/// Either-style iterator over a partition's two storage modes.
enum ModeIter<C, S> {
    Columns(C),
    Sidecar(S),
}

impl<T, C: Iterator<Item = T>, S: Iterator<Item = T>> Iterator for ModeIter<C, S> {
    type Item = T;
    #[inline]
    fn next(&mut self) -> Option<T> {
        match self {
            ModeIter::Columns(c) => c.next(),
            ModeIter::Sidecar(s) => s.next(),
        }
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            ModeIter::Columns(c) => c.size_hint(),
            ModeIter::Sidecar(s) => s.size_hint(),
        }
    }
}

/// Point operations on the sorted path before a partition enters sidecar
/// mode.
const SIDECAR_AFTER_OPS: u32 = 64;

/// Minimum partition size for the sidecar: below this the binary searches
/// are cheap enough that the map would cost more than it saves.
const SIDECAR_MIN_LEN: usize = 4096;

/// One partition of a [`VertexSet`]: parallel columns sorted by vertex ID.
///
/// Invariants: `ids` is strictly increasing; `values[slot]` is `Some` unless
/// the slot is tombstoned (`dead` counts tombstones); `halted` has one bit
/// and `stamps` one entry per slot, with all bits beyond the slot count zero;
/// `pending` is sorted, duplicate-free, and ID-disjoint from `ids` (a
/// re-inserted tombstoned ID revives its slot instead).
#[derive(Debug, Clone)]
pub(crate) struct Partition<I, V> {
    ids: IdColumn<I>,
    values: Vec<Option<V>>,
    halted: Vec<u64>,
    stamps: Vec<u32>,
    dead: usize,
    pending: Vec<(I, V)>,
    /// Hash sidecar (`Some` only in sidecar mode — see the module docs).
    /// While present it holds *every* entry and the columns are empty.
    sidecar: Option<FxHashMap<I, V>>,
    /// Point operations on the sorted path since the last compaction; the
    /// sidecar trigger counter.
    point_ops: u32,
}

/// Mutable view of a compacted partition's columns, handed to the runner for
/// the duration of a compute phase. Field-level borrows let the delivery loop
/// hold a value `&mut` while flipping halt bits.
pub(crate) struct RunColumns<'a, I, V> {
    /// The sorted ID column (decode through [`IdColumn::cursor`]).
    pub(crate) ids: &'a IdColumn<I>,
    /// The value column; every slot is `Some` (no tombstones during a run).
    pub(crate) values: &'a mut [Option<V>],
    /// Halt bits, one per slot.
    pub(crate) halted: &'a mut [u64],
    /// Compute stamps, one per slot.
    pub(crate) stamps: &'a mut [u32],
}

impl<I: VertexKey + SortKey, V: Send> Partition<I, V> {
    fn empty() -> Partition<I, V> {
        Partition {
            ids: IdColumn::new(),
            values: Vec::new(),
            halted: Vec::new(),
            stamps: Vec::new(),
            dead: 0,
            pending: Vec::new(),
            sidecar: None,
            point_ops: 0,
        }
    }

    /// Live vertices stored in the columns (excluding `pending`).
    #[inline]
    fn live(&self) -> usize {
        self.ids.len() - self.dead
    }

    fn len(&self) -> usize {
        match &self.sidecar {
            Some(map) => map.len(),
            None => self.live() + self.pending.len(),
        }
    }

    /// Appends a vertex with an ID greater than every stored one — the bulk
    /// build path (`from_unsorted`, `convert`'s merge output).
    fn push_sorted(&mut self, id: I, value: V) {
        debug_assert!(
            self.pending.is_empty() && self.ids.last().is_none_or(|last| last < id),
            "push_sorted requires strictly ascending IDs into a pending-free partition"
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
        let mut part = Partition::empty();
        part.ids.reserve(pairs.len());
        part.values.reserve(pairs.len());
        part.stamps.reserve(pairs.len());
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
        // Point inserts into an ascending key space arrive pre-sorted (e.g.
        // sequential vertex IDs staged in input order); skip the sort and the
        // duplicate merge outright.
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
        let mut part = Partition::empty();
        part.ids.reserve(keys.len());
        part.values.reserve(keys.len());
        part.stamps.reserve(keys.len());
        let mut it = keys.into_iter().peekable();
        while let Some((id, index)) = it.next() {
            // The sort is stable, so the last entry of an equal-ID run is the
            // latest insertion — the one that wins.
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

    /// Merges `pending` into the columns and drops tombstones: one linear
    /// pass rebuilding the four parallel arrays. Resets `halted`/`stamps`
    /// (every job re-activates the set before running, so the bookkeeping
    /// carries no information across mutations).
    fn compact(&mut self) {
        self.drop_sidecar();
        if self.dead == 0 && self.pending.is_empty() {
            self.debug_validate();
            return;
        }
        let len = self.live() + self.pending.len();
        let mut ids: IdColumn<I> = IdColumn::new();
        ids.reserve(len);
        let mut values: Vec<Option<V>> = Vec::with_capacity(len);
        let old_ids = std::mem::replace(&mut self.ids, IdColumn::new());
        let old_values = std::mem::take(&mut self.values);
        let mut pending = std::mem::take(&mut self.pending).into_iter().peekable();
        for (id, value) in old_ids.iter().zip(old_values) {
            let Some(value) = value else { continue };
            while pending.peek().is_some_and(|(pid, _)| *pid < id) {
                let (pid, pv) = pending.next().expect("peeked");
                ids.push(pid);
                values.push(Some(pv));
            }
            ids.push(id);
            values.push(Some(value));
        }
        for (pid, pv) in pending {
            ids.push(pid);
            values.push(Some(pv));
        }
        debug_assert_eq!(ids.len(), len);
        self.ids = ids;
        self.values = values;
        self.dead = 0;
        self.halted.clear();
        self.halted.resize(words_for(len), 0);
        self.stamps.clear();
        self.stamps.resize(len, 0);
        self.debug_validate();
    }

    /// Flushes `pending` once it outgrows its threshold. `√live` balances the
    /// two point-insert costs — the sorted-insert memmove (∝ pending length,
    /// paid per insert) against the linear column merge (∝ live, paid per
    /// flush) — so a burst of n point inserts costs O(n^1.5) instead of the
    /// O(n²) either extreme would.
    fn maybe_flush_pending(&mut self) {
        if self.pending.len() >= 64.max(2 * self.live().isqrt()) {
            self.compact();
        }
    }

    /// Compacts once tombstones dominate the columns.
    fn maybe_drop_tombstones(&mut self) {
        if self.dead > 32 && self.dead * 2 > self.ids.len() {
            self.compact();
        }
    }

    /// Leaves sidecar mode: radix-sorts the map's pairs and re-emits them as
    /// fresh columns (all slots active, stamps zero — the same reset every
    /// compaction performs), then resets the trigger counter.
    fn drop_sidecar(&mut self) {
        if let Some(map) = self.sidecar.take() {
            debug_assert!(
                self.ids.len() == 0 && self.pending.is_empty() && self.dead == 0,
                "sidecar mode keeps the columns empty"
            );
            let mut pairs: Vec<(I, V)> = map.into_iter().collect();
            let mut scratch: Vec<(I, V)> = Vec::new();
            crate::radix::sort_pairs(&mut pairs, &mut scratch);
            self.ids.reserve(pairs.len());
            self.values.reserve(pairs.len());
            self.stamps.reserve(pairs.len());
            for (id, value) in pairs {
                self.push_sorted(id, value);
            }
        }
        self.point_ops = 0;
    }

    /// Counts a point operation on the sorted path and flips the partition
    /// into sidecar mode once a sustained burst meets the size floor: the
    /// columns (live slots + pending) drain wholesale into the map, so every
    /// subsequent op costs exactly one hash probe with the value inline —
    /// the old hash store's price.
    #[inline]
    fn maybe_enter_sidecar(&mut self) {
        if self.sidecar.is_some() {
            return;
        }
        self.point_ops += 1;
        if self.point_ops < SIDECAR_AFTER_OPS || self.len() < SIDECAR_MIN_LEN {
            return;
        }
        self.enter_sidecar();
    }

    /// The cold half of [`Self::maybe_enter_sidecar`]: drains the columns
    /// into the overlay map.
    fn enter_sidecar(&mut self) {
        let mut map: FxHashMap<I, V> = FxHashMap::default();
        map.reserve(self.len());
        let ids = std::mem::replace(&mut self.ids, IdColumn::new());
        let values = std::mem::take(&mut self.values);
        for (id, value) in ids.iter().zip(values) {
            if let Some(value) = value {
                map.insert(id, value);
            }
        }
        for (id, value) in std::mem::take(&mut self.pending) {
            map.insert(id, value);
        }
        self.halted.clear();
        self.stamps.clear();
        self.dead = 0;
        self.sidecar = Some(map);
    }

    // The point ops keep the one-probe sidecar path inline (matching what
    // the dense hash store's calls compiled to) and push the sorted-column
    // fallback into outlined `*_sorted` twins.

    #[inline]
    fn insert(&mut self, id: I, value: V) -> Option<V> {
        self.maybe_enter_sidecar();
        if let Some(map) = &mut self.sidecar {
            return map.insert(id, value);
        }
        self.insert_sorted(id, value)
    }

    fn insert_sorted(&mut self, id: I, value: V) -> Option<V> {
        match self.ids.binary_search(&id) {
            Ok(slot) => {
                let prev = self.values[slot].replace(value);
                if prev.is_none() {
                    self.dead -= 1; // revived a tombstoned slot
                }
                set_bit(&mut self.halted, slot, false);
                self.stamps[slot] = 0;
                prev
            }
            Err(_) => match self.pending.binary_search_by(|(pid, _)| pid.cmp(&id)) {
                Ok(p) => Some(std::mem::replace(&mut self.pending[p].1, value)),
                Err(p) => {
                    self.pending.insert(p, (id, value));
                    self.maybe_flush_pending();
                    None
                }
            },
        }
    }

    #[inline]
    fn remove(&mut self, id: &I) -> Option<V> {
        self.maybe_enter_sidecar();
        if let Some(map) = &mut self.sidecar {
            return map.remove(id);
        }
        self.remove_sorted(id)
    }

    fn remove_sorted(&mut self, id: &I) -> Option<V> {
        match self.ids.binary_search(id) {
            Ok(slot) => {
                let prev = self.values[slot].take()?;
                self.dead += 1;
                set_bit(&mut self.halted, slot, false);
                self.maybe_drop_tombstones();
                Some(prev)
            }
            Err(_) => match self.pending.binary_search_by(|(pid, _)| pid.cmp(id)) {
                Ok(p) => Some(self.pending.remove(p).1),
                Err(_) => None,
            },
        }
    }

    #[inline]
    fn get(&self, id: &I) -> Option<&V> {
        if let Some(map) = &self.sidecar {
            return map.get(id);
        }
        self.get_sorted(id)
    }

    fn get_sorted(&self, id: &I) -> Option<&V> {
        match self.ids.binary_search(id) {
            Ok(slot) => self.values[slot].as_ref(),
            Err(_) => self
                .pending
                .binary_search_by(|(pid, _)| pid.cmp(id))
                .ok()
                .map(|p| &self.pending[p].1),
        }
    }

    #[inline]
    fn get_mut(&mut self, id: &I) -> Option<&mut V> {
        self.maybe_enter_sidecar();
        if self.sidecar.is_some() {
            return self.sidecar.as_mut().and_then(|map| map.get_mut(id));
        }
        self.get_mut_sorted(id)
    }

    fn get_mut_sorted(&mut self, id: &I) -> Option<&mut V> {
        match self.ids.binary_search(id) {
            Ok(slot) => self.values[slot].as_mut(),
            Err(_) => match self.pending.binary_search_by(|(pid, _)| pid.cmp(id)) {
                Ok(p) => Some(&mut self.pending[p].1),
                Err(_) => None,
            },
        }
    }

    fn retain(&mut self, keep: &mut impl FnMut(&I, &V) -> bool) {
        // A churn-heavy phase mixes batch sweeps with point ops; keeping the
        // sidecar engaged across the sweep avoids rebuilding it per round.
        if let Some(map) = &mut self.sidecar {
            map.retain(|id, v| keep(id, v));
            return;
        }
        for (id, value) in self.ids.iter().zip(self.values.iter_mut()) {
            if value.as_ref().is_some_and(|v| !keep(&id, v)) {
                *value = None;
                self.dead += 1;
            }
        }
        self.pending.retain(|(id, v)| keep(id, v));
        self.maybe_drop_tombstones();
    }

    /// Live `(id, value)` entries: column slots in ID order, then pending
    /// (IDs decode by value — [`VertexKey`] is `Copy`). In sidecar mode the
    /// map streams in hash order instead.
    fn iter(&self) -> impl Iterator<Item = (I, &V)> {
        match &self.sidecar {
            Some(map) => ModeIter::Sidecar(map.iter().map(|(id, v)| (*id, v))),
            None => ModeIter::Columns(
                self.ids
                    .iter()
                    .zip(&self.values)
                    .filter_map(|(id, v)| v.as_ref().map(|v| (id, v)))
                    .chain(self.pending.iter().map(|(id, v)| (*id, v))),
            ),
        }
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = (I, &mut V)> {
        match &mut self.sidecar {
            Some(map) => ModeIter::Sidecar(map.iter_mut().map(|(id, v)| (*id, v))),
            None => ModeIter::Columns(
                self.ids
                    .iter()
                    .zip(&mut self.values)
                    .filter_map(|(id, v)| v.as_mut().map(|v| (id, v)))
                    .chain(self.pending.iter_mut().map(|(id, v)| (*id, v))),
            ),
        }
    }

    /// Consumes the partition into its live `(id, value)` pairs.
    fn into_entries(mut self) -> impl Iterator<Item = (I, V)> {
        self.drop_sidecar(); // fold the map back into sorted columns
        self.ids
            .into_vec()
            .into_iter()
            .zip(self.values)
            .filter_map(|(id, v)| v.map(|v| (id, v)))
            .chain(self.pending)
    }

    /// Compacts and zeroes the activity bookkeeping — the per-partition half
    /// of [`VertexSet::activate_all`].
    fn reset_activity(&mut self) {
        self.compact();
        self.halted.iter_mut().for_each(|w| *w = 0);
        self.stamps.iter_mut().for_each(|s| *s = 0);
    }

    /// The columns of a compacted partition, for the runner's compute phase.
    pub(crate) fn run_columns(&mut self) -> RunColumns<'_, I, V> {
        debug_assert!(
            self.dead == 0 && self.pending.is_empty() && self.sidecar.is_none(),
            "run_columns requires a compacted partition (activate_all compacts)"
        );
        RunColumns {
            ids: &self.ids,
            values: &mut self.values,
            halted: &mut self.halted,
            stamps: &mut self.stamps,
        }
    }

    /// Drains the partition's columns into on-disk extents, leaving the
    /// columns empty; the runner computes against the returned seal one
    /// extent window at a time. Requires a compacted partition (the job
    /// start's `activate_all` compacts). On error the drained data is lost —
    /// the caller abandons the job with a spill error, and recovery goes
    /// through checkpoint/resume, not through the half-sealed store.
    pub(crate) fn seal_to(
        &mut self,
        dir: &std::sync::Arc<crate::spill::SpillDir>,
        part_index: usize,
        id_codec: crate::spill::Codec<I>,
        value_codec: crate::spill::Codec<V>,
    ) -> Result<crate::spill::PartSeal<I, V>, crate::spill::SpillError> {
        debug_assert!(
            self.dead == 0 && self.pending.is_empty() && self.sidecar.is_none(),
            "sealing requires a compacted partition (activate_all compacts)"
        );
        let mut seal = crate::spill::PartSeal::new(
            std::sync::Arc::clone(dir),
            part_index,
            id_codec,
            value_codec,
        );
        let ids = std::mem::replace(&mut self.ids, IdColumn::new());
        let values = std::mem::take(&mut self.values);
        let words = std::mem::take(&mut self.halted);
        let stamps = std::mem::take(&mut self.stamps);
        seal.seal_slots(ids.iter().zip(values).zip(stamps).enumerate().map(
            |(slot, ((id, value), stamp))| {
                let halted = words
                    .get(slot >> 6)
                    .is_some_and(|w| (w >> (slot & 63)) & 1 == 1);
                (id, value, halted, stamp)
            },
        ))?;
        self.dead = 0;
        Ok(seal)
    }

    /// Rebuilds the partition's columns from a seal's extents (ascending ID
    /// order, so the column append path applies directly), restoring the
    /// halt bits and compute stamps each slot carried at its last writeback.
    /// The partition must be empty (it is — [`Partition::seal_to`] drained
    /// it).
    pub(crate) fn unseal_from(
        &mut self,
        seal: &mut crate::spill::PartSeal<I, V>,
    ) -> Result<(), crate::spill::SpillError> {
        debug_assert!(
            self.ids.len() == 0 && self.pending.is_empty() && self.sidecar.is_none(),
            "unsealing into a non-empty partition"
        );
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
        let mut dead = 0usize;
        let mut slot = 0usize;
        seal.drain_slots(|id, value, halted, stamp| {
            ids.push(id);
            if value.is_none() {
                dead += 1;
            }
            values.push(value);
            stamps.push(stamp);
            set_bit(words, slot, halted);
            slot += 1;
        })?;
        self.dead = dead;
        self.debug_validate();
        Ok(())
    }

    /// Estimated heap bytes held by the columns themselves (excluding any
    /// heap owned by the values).
    fn resident_bytes(&self) -> usize {
        self.ids.heap_bytes()
            + self.values.capacity() * std::mem::size_of::<Option<V>>()
            + self.halted.capacity() * std::mem::size_of::<u64>()
            + self.stamps.capacity() * std::mem::size_of::<u32>()
            + self.pending.capacity() * std::mem::size_of::<(I, V)>()
            + self.sidecar.as_ref().map_or(0, |map| {
                map.capacity() * (std::mem::size_of::<(I, V)>() + 1)
            })
    }

    /// `(actual, plain-equivalent)` heap bytes of the ID column — the
    /// compression ratio surfaced in `SuperstepMetrics`.
    fn id_column_footprint(&self) -> (usize, usize) {
        self.ids.footprint()
    }

    /// Checks the documented partition invariants (debug builds only) — see
    /// the struct docs. Called at the compaction boundaries so every job
    /// starts from a provably consistent store.
    #[cfg(debug_assertions)]
    fn debug_validate(&self) {
        if let Some(_map) = &self.sidecar {
            assert!(
                self.ids.len() == 0
                    && self.values.is_empty()
                    && self.pending.is_empty()
                    && self.dead == 0,
                "sidecar mode keeps the columns empty"
            );
            return;
        }
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
        let mut prev: Option<I> = None;
        for id in self.ids.iter() {
            assert!(
                prev.is_none_or(|p| p < id),
                "ids must be strictly increasing"
            );
            prev = Some(id);
        }
        self.ids.debug_validate();
        assert_eq!(
            self.dead,
            self.values.iter().filter(|v| v.is_none()).count(),
            "dead must count exactly the tombstoned slots"
        );
        let mut prev_pending: Option<I> = None;
        for (id, _) in &self.pending {
            assert!(
                prev_pending.is_none_or(|p| p < *id),
                "pending must be sorted and duplicate-free"
            );
            assert!(
                self.ids.binary_search(id).is_err(),
                "pending IDs must be disjoint from the columns"
            );
            prev_pending = Some(*id);
        }
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
            parts: (0..workers).map(|_| Partition::empty()).collect(),
        }
    }

    /// Builds a vertex set from `(id, value)` pairs. Later duplicates replace
    /// earlier ones.
    ///
    /// This is the bulk path: pairs are staged per partition, the ID column
    /// is radix-sorted, and the columns are emitted directly — cheaper than a
    /// loop of point [`insert`](VertexSet::insert)s.
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

    /// Inserts or replaces a vertex. Returns the previous value if present.
    #[inline]
    pub fn insert(&mut self, id: I, value: V) -> Option<V> {
        let w = self.worker_of(&id);
        self.parts[w].insert(id, value)
    }

    /// Removes a vertex, returning its value.
    #[inline]
    pub fn remove(&mut self, id: &I) -> Option<V> {
        let w = self.worker_of(id);
        self.parts[w].remove(id)
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

    /// Mutable access to a vertex value.
    #[inline]
    pub fn get_mut(&mut self, id: &I) -> Option<&mut V> {
        let w = self.worker_of(id);
        self.parts[w].get_mut(id)
    }

    /// Iterates over `(id, value)` pairs. Within a partition the stored
    /// columns stream in ID order (pending point inserts trail them); across
    /// partitions the order is unspecified. IDs are yielded by value —
    /// packed columns decode them on the fly ([`VertexKey`] is `Copy`).
    pub fn iter(&self) -> impl Iterator<Item = (I, &V)> {
        self.parts.iter().flat_map(|p| p.iter())
    }

    /// Iterates mutably over `(id, value)` pairs (same order as
    /// [`iter`](VertexSet::iter)).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (I, &mut V)> {
        self.parts.iter_mut().flat_map(|p| p.iter_mut())
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
    /// partitions. Counts the ID/value/halted/stamp arrays and the pending
    /// buffers; heap owned by the values themselves (e.g. adjacency `Vec`s)
    /// is not visible from here.
    pub fn resident_bytes(&self) -> usize {
        self.parts.iter().map(|p| p.resident_bytes()).sum()
    }

    /// `(actual, plain-equivalent)` heap bytes of the sorted ID columns
    /// across all partitions. With bit-packed columns the first number is
    /// the delta/bit-packed footprint; with plain columns the two are equal.
    pub fn id_column_bytes(&self) -> (usize, usize) {
        self.parts.iter().fold((0, 0), |(a, b), p| {
            let (pa, pb) = p.id_column_footprint();
            (a + pa, b + pb)
        })
    }

    /// Marks every vertex active and clears compute stamps (called at the
    /// start of a job). Also compacts every partition — merging pending
    /// inserts and dropping tombstones — so the runner sees pure columns.
    pub(crate) fn activate_all(&mut self) {
        for p in &mut self.parts {
            p.reset_activity();
        }
        self.debug_validate();
    }

    /// Checks the documented column invariants of every partition in debug
    /// builds — strictly increasing sorted IDs, bitset/stamps column
    /// lengths, tombstone accounting, and sealed-frame delta monotonicity
    /// in packed ID columns — panicking on the first violation. Runs at
    /// every compaction boundary (e.g. `activate_all` at job start);
    /// release builds compile it to nothing. Tests may call it directly
    /// after a mutation burst.
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
        if let Some(map) = &p.sidecar {
            // Sidecar mode follows a mutation burst, which (like compaction)
            // resets every vertex to active.
            return map.contains_key(id).then_some(false);
        }
        match p.ids.binary_search(id) {
            Ok(slot) if p.values[slot].is_some() => Some(get_bit(&p.halted, slot)),
            _ => p.pending.iter().any(|(pid, _)| pid == id).then_some(false),
        }
    }

    /// Removes every vertex for which the predicate returns `false`.
    pub fn retain(&mut self, mut keep: impl FnMut(&I, &V) -> bool) {
        for p in &mut self.parts {
            p.retain(&mut keep);
        }
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
            let mut part: Partition<I2, V2> = Partition::empty();
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
    fn insert_get_remove() {
        let mut s: VertexSet<u64, String> = VertexSet::new(4);
        assert!(s.is_empty());
        assert_eq!(s.insert(1, "a".into()), None);
        assert_eq!(s.insert(1, "b".into()), Some("a".into()));
        s.insert(2, "c".into());
        assert_eq!(s.len(), 2);
        assert!(s.contains(&1));
        assert_eq!(s.get(&1).unwrap(), "b");
        *s.get_mut(&2).unwrap() = "d".into();
        assert_eq!(s.get(&2).unwrap(), "d");
        assert_eq!(s.remove(&1), Some("b".into()));
        assert!(!s.contains(&1));
        assert_eq!(s.get(&99), None);
    }

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
    fn tombstoned_slot_revives_on_reinsert() {
        let mut s: VertexSet<u64, u64> = VertexSet::from_pairs(2, (0..10).map(|i| (i, i)));
        assert_eq!(s.remove(&4), Some(4));
        assert!(!s.contains(&4));
        assert_eq!(s.len(), 9);
        assert_eq!(s.insert(4, 44), None, "tombstoned slot looks absent");
        assert_eq!(s.get(&4), Some(&44));
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn pending_inserts_flush_into_the_columns() {
        let mut s: VertexSet<u64, u64> = VertexSet::new(1);
        // Enough point inserts to cross the pending threshold several times.
        for i in 0..1000u64 {
            s.insert(i * 17 % 1001, i);
        }
        assert_eq!(s.len(), 1000);
        // Every key readable regardless of which side (columns/pending) holds it.
        for i in 0..1000u64 {
            assert!(s.contains(&(i * 17 % 1001)), "missing {i}");
        }
    }

    #[test]
    fn removal_heavy_churn_stays_consistent() {
        let mut s: VertexSet<u64, u64> = VertexSet::from_pairs(2, (0..512).map(|i| (i, i)));
        // Remove enough to trigger tombstone compaction, then reinsert.
        for i in (0..512).step_by(2) {
            assert_eq!(s.remove(&i), Some(i));
        }
        assert_eq!(s.len(), 256);
        for i in (0..512).step_by(4) {
            assert_eq!(s.insert(i, i + 1000), None);
        }
        assert_eq!(s.len(), 256 + 128);
        assert_eq!(s.get(&4), Some(&1004));
        assert_eq!(s.get(&2), None);
        assert_eq!(s.get(&3), Some(&3));
    }

    #[test]
    fn retain_and_into_values() {
        let mut s: VertexSet<u64, u64> = VertexSet::from_pairs(3, (0..100).map(|i| (i, i * 2)));
        s.retain(|_, v| *v % 4 == 0);
        assert_eq!(s.len(), 50);
        let mut vals = s.into_values();
        vals.sort_unstable();
        assert_eq!(vals[0], 0);
        assert_eq!(vals.len(), 50);
        assert!(vals.iter().all(|v| v % 4 == 0));
    }

    #[test]
    fn resident_bytes_tracks_the_columns() {
        let empty: VertexSet<u64, u64> = VertexSet::new(2);
        assert_eq!(empty.resident_bytes(), 0);
        let _guard = COLUMN_MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let s: VertexSet<u64, u64> = VertexSet::from_pairs(2, (0..1000).map(|i| (i, i)));
        let bytes = s.resident_bytes();
        // At least the value column for 1000 vertices (the bit-packed ID
        // column shrinks well below 8 B/ID); far less than a hash map with
        // per-entry overhead would need.
        assert!(bytes >= 1000 * 16);
        assert!(bytes < 1000 * 64);
        let (packed, plain) = s.id_column_bytes();
        assert_eq!(plain, 1000 * 8);
        assert!(
            packed < plain,
            "dense u64 IDs must compress: {packed} vs {plain}"
        );
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

    // The columnar store must behave exactly like the hash store it replaced
    // under arbitrary interleavings of point inserts, removes, lookups and
    // batch retains — the legacy-equivalence pin for the mutation API (the
    // delivery path has its own pin in `runner.rs`). Ops are encoded as
    // `(kind, key, value)` tuples: 0–3 insert, 4–6 remove, 7–8 lookup,
    // 9 retain-even.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_store_matches_hash_oracle(
            seed in proptest::collection::vec((0u64..300, 0u64..1_000), 0..200),
            ops in proptest::collection::vec((0u8..10, 0u64..300, 0u64..1_000), 0..300),
            workers in 1usize..6,
        ) {
            let mut store: VertexSet<u64, u64> = VertexSet::from_pairs(workers, seed.clone());
            let mut oracle: FxHashMap<u64, u64> = FxHashMap::default();
            for (k, v) in seed {
                oracle.insert(k, v);
            }
            for (kind, k, v) in ops {
                match kind {
                    0..=3 => {
                        prop_assert_eq!(store.insert(k, v), oracle.insert(k, v));
                    }
                    4..=6 => {
                        prop_assert_eq!(store.remove(&k), oracle.remove(&k));
                    }
                    7..=8 => {
                        prop_assert_eq!(store.get(&k), oracle.get(&k));
                        prop_assert_eq!(store.contains(&k), oracle.contains_key(&k));
                    }
                    _ => {
                        store.retain(|_, v| *v % 2 == 0);
                        oracle.retain(|_, v| *v % 2 == 0);
                    }
                }
                prop_assert_eq!(store.len(), oracle.len());
            }
            let mut got = store.into_pairs();
            got.sort_unstable();
            let mut expected: Vec<(u64, u64)> = oracle.into_iter().collect();
            expected.sort_unstable();
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

    // ---- packed ID column vs. plain oracle ----------------------------------

    /// Builds a packed column and its plain oracle from a sorted,
    /// deduplicated list of IDs.
    fn packed_and_plain(ids: &[u64]) -> (PackedIds, Vec<u64>) {
        let mut packed = PackedIds::default();
        for &id in ids {
            packed.push(id);
        }
        (packed, ids.to_vec())
    }

    /// Sorted, deduplicated IDs from arbitrary seeds (spread across the full
    /// `u64` range so frames see both tiny and huge delta widths).
    fn spread_ids(seeds: &[(u64, u64)]) -> Vec<u64> {
        let mut ids: Vec<u64> = seeds.iter().map(|&(hi, lo)| (hi << 32) ^ lo).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    #[test]
    fn packed_ids_tiny_and_frame_boundaries() {
        for n in [0usize, 1, 2, FRAME - 1, FRAME, FRAME + 1, 3 * FRAME] {
            let ids: Vec<u64> = (0..n as u64).map(|i| i * 5).collect();
            let (packed, plain) = packed_and_plain(&ids);
            assert_eq!(packed.len(), plain.len());
            for (i, &id) in plain.iter().enumerate() {
                assert_eq!(packed.get(i), id, "n={n} i={i}");
            }
            assert_eq!(packed.last(), plain.last().copied());
            for probe in [0u64, 1, 4, 5, 6, (n as u64 * 5).saturating_sub(1), u64::MAX] {
                assert_eq!(
                    packed.lower_bound(probe),
                    plain.partition_point(|&v| v < probe),
                    "n={n} probe={probe}"
                );
            }
        }
    }

    /// Serializes tests that flip [`kernels::force_plain_id_columns`] against
    /// tests that assert on the packed representation.
    static COLUMN_MODE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn id_column_picks_packed_only_for_radix_keys() {
        let _guard = COLUMN_MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let col: IdColumn<u64> = IdColumn::new();
        assert!(matches!(col, IdColumn::Packed(_)));
        // Keys without a radix image must stay plain.
        let col: IdColumn<(u64, u64)> = IdColumn::new();
        assert!(matches!(col, IdColumn::Plain(_)));
        // The escape hatch forces plain storage even for radix keys.
        kernels::force_plain_id_columns(true);
        let col: IdColumn<u64> = IdColumn::new();
        kernels::force_plain_id_columns(false);
        assert!(matches!(col, IdColumn::Plain(_)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_packed_column_matches_plain_oracle(
            seeds in proptest::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX), 0..700),
            probes in proptest::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX), 0..40),
        ) {
            let ids = spread_ids(&seeds);
            let (packed, plain) = packed_and_plain(&ids);
            prop_assert_eq!(packed.len(), plain.len());
            // Random access and full iteration agree with the oracle.
            let mut col = IdColumn::Packed(packed.clone());
            let decoded: Vec<u64> = col.iter().collect();
            prop_assert_eq!(&decoded, &plain);
            for (i, &id) in plain.iter().enumerate() {
                prop_assert_eq!(packed.get(i), id);
            }
            // Stateless lower_bound and binary_search agree with the oracle.
            for &(hi, lo) in &probes {
                let probe = (hi << 32) ^ lo;
                prop_assert_eq!(
                    packed.lower_bound(probe),
                    plain.partition_point(|&v| v < probe)
                );
                prop_assert_eq!(col.binary_search(&probe), plain.binary_search(&probe));
            }
            // push after cloning keeps the two in sync (tail re-packing).
            if let Some(&last) = plain.last() {
                if last < u64::MAX {
                    col.push(last + 1);
                    prop_assert_eq!(col.len(), plain.len() + 1);
                    prop_assert_eq!(col.last(), Some(last + 1));
                }
            }
        }

        #[test]
        fn prop_cursor_lower_bound_matches_plain_oracle(
            seeds in proptest::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX), 0..700),
            probes in proptest::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX), 1..40),
        ) {
            let ids = spread_ids(&seeds);
            let (packed, plain) = packed_and_plain(&ids);
            let col = IdColumn::<u64>::Packed(packed);
            let mut cur = col.cursor();
            // The cursor contract is monotone: sort the probes and walk the
            // lower bounds forward, exactly as the merge-join does.
            let mut probes: Vec<u64> = probes.iter().map(|&(hi, lo)| (hi << 32) ^ lo).collect();
            probes.sort_unstable();
            let mut lo = 0usize;
            for probe in probes {
                let expect = plain.partition_point(|&v| v < probe);
                if lo > expect {
                    continue; // contract requires everything before lo < probe
                }
                lo = cur.lower_bound_from(lo, &probe);
                prop_assert_eq!(lo, expect);
                if lo < plain.len() {
                    prop_assert_eq!(cur.get(lo), plain[lo]);
                }
            }
        }
    }

    // ---- hash sidecar -------------------------------------------------------

    #[test]
    fn hash_sidecar_builds_and_drains() {
        // One partition, enough vertices to clear SIDECAR_MIN_LEN.
        let n = 6000u64;
        let mut s: VertexSet<u64, u64> = VertexSet::from_pairs(1, (0..n).map(|i| (i, i)));
        let mut oracle: FxHashMap<u64, u64> = (0..n).map(|i| (i, i)).collect();
        assert!(s.parts[0].sidecar.is_none());
        // A churn burst of point ops: removes, re-inserts (including
        // tombstoned twins), fresh inserts past the end, updates.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for step in 0..2000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % (n + 500);
            match step % 4 {
                0 => assert_eq!(s.remove(&k), oracle.remove(&k), "remove {k}"),
                1 => assert_eq!(s.insert(k, step), oracle.insert(k, step), "insert {k}"),
                2 => assert_eq!(s.get(&k), oracle.get(&k), "get {k}"),
                _ => assert_eq!(s.get_mut(&k), oracle.get_mut(&k), "get_mut {k}"),
            }
            assert_eq!(s.len(), oracle.len());
        }
        assert!(
            s.parts[0].sidecar.is_some(),
            "a sustained point-op burst on a large partition must enter sidecar mode"
        );
        // Compaction (job start) drains the sidecar back into sorted columns.
        s.activate_all();
        assert!(s.parts[0].sidecar.is_none());
        assert!(s.parts[0].pending.is_empty() && s.parts[0].dead == 0);
        let mut got = s.iter().map(|(id, v)| (id, *v)).collect::<Vec<_>>();
        got.sort_unstable();
        let mut expected: Vec<(u64, u64)> = oracle.into_iter().collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
        let ids: Vec<u64> = s.parts[0].ids.iter().collect();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "columns sorted after drain"
        );
    }

    #[test]
    fn sidecar_retain_and_iter_stay_consistent() {
        let n = 5000u64;
        let mut s: VertexSet<u64, u64> = VertexSet::from_pairs(1, (0..n).map(|i| (i, i)));
        for k in 0..200u64 {
            s.remove(&(k * 7 % n));
            s.insert(n + k, k);
        }
        assert!(s.parts[0].sidecar.is_some());
        // retain() runs on the map without leaving sidecar mode; the next
        // compaction (activate_all) folds everything back into columns.
        s.retain(|_, v| *v % 2 == 0);
        assert!(s.parts[0].sidecar.is_some());
        assert!(s.iter().all(|(_, v)| *v % 2 == 0));
        let survivors = s.len();
        s.activate_all();
        assert!(s.parts[0].sidecar.is_none());
        assert_eq!(s.len(), survivors);
        assert!(s.iter().all(|(_, v)| *v % 2 == 0));
        let ids: Vec<u64> = s.parts[0].ids.iter().collect();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "columns sorted after drain"
        );
    }

    /// `debug_validate` holds through every lifecycle phase a partition can
    /// reach: bulk build (sealed packed frames + tail), point inserts into
    /// `pending`, tombstones, sidecar mode, and the compaction that folds
    /// it all back into columns.
    #[test]
    fn debug_validate_accepts_every_lifecycle_phase() {
        // Bulk build large enough to seal several 128-ID frames, sparse
        // enough (stride 3) to exercise non-trivial delta widths.
        let mut s: VertexSet<u64, u64> = VertexSet::from_pairs(2, (0..2000u64).map(|i| (i * 3, i)));
        s.debug_validate();

        // Point mutations: pending inserts + tombstones on both partitions.
        for k in 0..40u64 {
            s.insert(k * 3 + 1, k);
            s.remove(&(k * 9));
        }
        s.debug_validate();

        // Compaction boundary merges pending and drops tombstones.
        s.activate_all();
        s.debug_validate();
        assert!(s
            .iter()
            .all(|(id, _)| id % 3 != 0 || id % 9 != 0 || id >= 40 * 9));

        // A sustained point-op burst flips a partition into sidecar mode;
        // the validator accepts it and the next boundary folds it back.
        let mut s: VertexSet<u64, u64> = VertexSet::from_pairs(1, (0..5000u64).map(|i| (i, i)));
        for k in 0..200u64 {
            s.insert(5000 + k, k);
        }
        assert!(s.parts[0].sidecar.is_some());
        s.debug_validate();
        s.activate_all();
        s.debug_validate();
        assert_eq!(s.len(), 5200);
    }
}
