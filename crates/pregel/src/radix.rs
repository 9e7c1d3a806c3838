//! Stable LSD radix sort for the message plane's fixed-width keys.
//!
//! Every sort in this workspace is by a packed integer key (vertex IDs,
//! shuffle keys, canonical k-mers are all `u64`). The bucketed key counter
//! ([`crate::keycount`], construct phase (i)'s (k+1)-mer counting) sorts the
//! `(key, count)`s its fold workers keep with [`sort_pairs`], and
//! [`VertexSet::from_pairs`](crate::VertexSet::from_pairs) its
//! `(id, index)` key columns. [`sort_pairs`] is a **stable
//! least-significant-digit radix sort**:
//!
//! * an **adaptive digit schedule**: a cheap envelope pass folds the bitwise
//!   OR and AND of every key, which proves exactly which bits differ, and
//!   `digit_plan` turns that into the digit schedule. Digits on
//!   which every key agrees are **skipped** —
//!   partition-clustered or small-range keys (the common case: contig
//!   labels and vertex IDs rarely span all 64 bits, and the keys of one
//!   counting bucket share their top bits) sort in fewer byte-digit passes;
//! * when six or more bytes are active (uniform full-width keys — the shape
//!   that used to lose 0.85× to pdqsort), large inputs switch to six
//!   **11-bit digits** with 2048-bucket stack histograms, two fewer scatter
//!   passes over the data;
//! * histograms for all scheduled digits are built in **one** read pass;
//! * inputs at or below `INSERTION_CUTOFF` (64) use an in-place insertion sort
//!   instead (the per-destination buffers of a fine-grained shuffle are often
//!   tiny);
//! * scatter passes **ping-pong** between the record buffer and one caller
//!   supplied scratch buffer of the same type, so sorting allocates nothing
//!   beyond that scratch — a caller that keeps the scratch sorts
//!   allocation-free in steady state.
//!
//! # When radix wins
//!
//! LSD radix is O(passes · n) with sequential reads and bucketed writes,
//! versus pdqsort's O(n log n) comparisons with data-dependent branches. On
//! the regime it was built for — tens of thousands to millions of 16-byte
//! `(u64, payload)` records per buffer, keys far narrower than 64 bits — the
//! 2–4 skip-reduced passes beat the ~16–20 comparison levels of a large
//! pdqsort. Comparison sorting remains the right tool for tiny buffers
//! (hence the insertion cutoff),
//! for keys without a cheap monotone integer image (hence the [`SortKey`]
//! fallback), and for nearly-sorted data where pdqsort's run detection is
//! hard to beat.
//!
//! Keys opt in through [`SortKey`]: types with a monotone, injective `u64`
//! image (`RADIX = true`) take the radix path; everything else (strings,
//! wide tuples) falls back to a stable comparison sort, so generic code
//! routes through this module unconditionally.
//!
//! The dense plane's exchange needs no sort at all: its keys are ranks, and
//! `scatter_to_slots` places them with one stable counting pass.

/// Inputs of at most this many records are sorted with an in-place insertion
/// sort instead of counting passes.
const INSERTION_CUTOFF: usize = 64;

/// Inputs below this size never take the wide (11-bit) digit schedule: its
/// 48 KiB of histograms and 16 KiB of scatter offsets would dominate the
/// sort itself.
const WIDE_CUTOFF: usize = 1 << 15;

/// Maximum number of digits a [`DigitPlan`] can schedule.
const MAX_DIGITS: usize = 8;

/// Number of buckets a wide (11-bit) digit needs; the narrow (8-bit)
/// schedule uses 256.
const WIDE_BUCKETS: usize = 1 << 11;

/// An adaptive LSD digit schedule derived from the exact key envelope.
///
/// Narrow mode is the classic byte-per-digit schedule restricted to the
/// bytes on which keys actually differ. When six or more bytes are active —
/// the uniform full-width shape that regressed 0.85× vs the comparison sort
/// on byte digits — the plan switches to six 11-bit digits,
/// trading larger (but still stack-resident) histograms for two fewer
/// scatter passes.
#[derive(Debug, Clone, Copy)]
struct DigitPlan {
    /// Bit shift of each active digit, ascending (LSD order).
    shifts: [u32; MAX_DIGITS],
    /// Bit width of each active digit (8, or 9–11 in wide mode). The sort
    /// masks with its bucket count instead; the tests check coverage by it.
    #[cfg_attr(not(test), allow(dead_code))]
    widths: [u32; MAX_DIGITS],
    /// Number of active digits.
    len: usize,
    /// Whether the wide (11-bit) schedule was selected.
    wide: bool,
}

/// Builds the digit schedule for keys with the given envelope.
///
/// `allow_wide` gates the 11-bit schedule; callers pass `false` for small
/// inputs where zeroing the 2048-counter histograms would dominate.
fn digit_plan(or_acc: u64, and_acc: u64, allow_wide: bool) -> DigitPlan {
    let diff = or_acc ^ and_acc;
    let mut plan = DigitPlan {
        shifts: [0; MAX_DIGITS],
        widths: [0; MAX_DIGITS],
        len: 0,
        wide: false,
    };
    let active_bytes = (0..8).filter(|d| (diff >> (8 * d)) & 0xFF != 0).count();
    if allow_wide && active_bytes >= 6 {
        plan.wide = true;
        let mut shift = 0u32;
        while shift < 64 {
            let width = 11.min(64 - shift);
            if (diff >> shift) & ((1u64 << width) - 1) != 0 {
                plan.shifts[plan.len] = shift;
                plan.widths[plan.len] = width;
                plan.len += 1;
            }
            shift += 11;
        }
    } else {
        for d in 0..8u32 {
            if (diff >> (8 * d)) & 0xFF != 0 {
                plan.shifts[plan.len] = 8 * d;
                plan.widths[plan.len] = 8;
                plan.len += 1;
            }
        }
    }
    plan
}

/// A sort key of [`sort_pairs`].
///
/// Implementors either expose a **monotone, injective** `u64` image
/// (`RADIX = true`: `a < b ⟺ a.radix_key() < b.radix_key()`, and equal
/// images imply equal keys) and get the LSD radix path, or keep the default
/// `RADIX = false` and get a stable comparison sort. The invariant matters:
/// the downstream merges and duplicate scans compare keys with `Ord`, so a
/// radix order that disagrees with `Ord` would silently corrupt grouping.
pub trait SortKey: Ord {
    /// Whether [`radix_key`](SortKey::radix_key) provides a monotone,
    /// injective `u64` image of this type.
    const RADIX: bool = false;

    /// The `u64` image used by the radix passes. Only called when
    /// [`RADIX`](SortKey::RADIX) is `true`.
    fn radix_key(&self) -> u64 {
        debug_assert!(!Self::RADIX, "RADIX keys must override radix_key()");
        0
    }
}

macro_rules! radix_unsigned {
    ($($t:ty),*) => {$(
        impl SortKey for $t {
            const RADIX: bool = true;
            #[inline(always)]
            fn radix_key(&self) -> u64 {
                *self as u64
            }
        }
    )*};
}

radix_unsigned!(u8, u16, u32, u64, usize);

macro_rules! radix_signed {
    ($($t:ty),*) => {$(
        impl SortKey for $t {
            const RADIX: bool = true;
            #[inline(always)]
            fn radix_key(&self) -> u64 {
                // Widen, then flip the sign bit: negative values map below
                // positive ones, preserving `Ord`.
                (*self as i64 as u64) ^ (1u64 << 63)
            }
        }
    )*};
}

radix_signed!(i8, i16, i32, i64, isize);

impl SortKey for bool {
    const RADIX: bool = true;
    #[inline(always)]
    fn radix_key(&self) -> u64 {
        *self as u64
    }
}

impl SortKey for char {
    const RADIX: bool = true;
    #[inline(always)]
    fn radix_key(&self) -> u64 {
        *self as u64
    }
}

// Comparison-sort fallbacks: no cheap monotone u64 image (or none that fits).
impl SortKey for String {}
impl SortKey for &'static str {}
impl<A: Ord, B: Ord> SortKey for (A, B) {}
impl<A: Ord, B: Ord, C: Ord> SortKey for (A, B, C) {}

/// Stably sorts `(key, payload)` records by key.
///
/// Radix keys take the LSD path using `scratch` as the ping-pong buffer;
/// other keys use a stable comparison sort. Either way the sort is **stable**
/// — records with equal keys keep their input order, which "later
/// duplicates win" in [`VertexSet::from_pairs`](crate::VertexSet::from_pairs)
/// relies on. On return `scratch` is empty (capacity
/// kept); reuse it across calls to keep steady-state sorting allocation-free.
pub fn sort_pairs<K: SortKey, V>(records: &mut Vec<(K, V)>, scratch: &mut Vec<(K, V)>) {
    if !K::RADIX {
        records.sort_by(|a, b| a.0.cmp(&b.0));
        return;
    }
    lsd_radix(records, scratch, |r: &(K, V)| r.0.radix_key());
}

/// Stable insertion sort by a `u64` image (used below the cutoff).
fn insertion_by_key<T>(v: &mut [T], key: &impl Fn(&T) -> u64) {
    for i in 1..v.len() {
        let mut j = i;
        while j > 0 && key(&v[j - 1]) > key(&v[j]) {
            v.swap(j - 1, j);
            j -= 1;
        }
    }
}

/// The LSD driver: an exact OR/AND key-envelope pass picks the digit
/// schedule ([`digit_plan`]), one histogram pass counts the
/// scheduled digits, then one stable scatter pass per digit ping-pongs
/// between `records` and `scratch`. Postcondition: `records` sorted,
/// `scratch` empty. Everything transient lives on the stack, preserving the
/// zero-allocation steady state pinned by `ppa_tests/radix_alloc`.
fn lsd_radix<T>(records: &mut Vec<T>, scratch: &mut Vec<T>, key: impl Fn(&T) -> u64) {
    let n = records.len();
    if n <= INSERTION_CUTOFF {
        insertion_by_key(records, &key);
        return;
    }
    assert!(
        n <= u32::MAX as usize,
        "radix buffers are capped at u32::MAX records"
    );
    let (mut or_acc, mut and_acc) = (0u64, u64::MAX);
    for r in records.iter() {
        let k = key(r);
        or_acc |= k;
        and_acc &= k;
    }
    if or_acc == and_acc {
        // Every key is identical; stability makes this a provable no-op.
        return;
    }
    let plan = digit_plan(or_acc, and_acc, n >= WIDE_CUTOFF);
    if plan.wide {
        wide_lsd(records, scratch, &key, &plan);
        return;
    }
    // Narrow schedule: byte digits, histograms indexed by plan position.
    let mut hist = [[0u32; 256]; MAX_DIGITS];
    for r in records.iter() {
        let k = key(r);
        for d in 0..plan.len {
            hist[d][((k >> plan.shifts[d]) & 0xFF) as usize] += 1;
        }
    }
    let mut in_records = true;
    for (h, &shift) in hist.iter().zip(&plan.shifts).take(plan.len) {
        if in_records {
            scatter(records, scratch, shift, h, &key);
        } else {
            scatter(scratch, records, shift, h, &key);
        }
        in_records = !in_records;
    }
    if !in_records {
        std::mem::swap(records, scratch);
    }
}

/// The wide-digit driver for uniform full-width keys: six 11-bit digits
/// instead of eight bytes, two fewer scatter passes. The 48 KiB histogram
/// block stays on the stack (zero-allocation contract); `inline(never)`
/// keeps that frame off the narrow path.
#[inline(never)]
fn wide_lsd<T>(
    records: &mut Vec<T>,
    scratch: &mut Vec<T>,
    key: &impl Fn(&T) -> u64,
    plan: &DigitPlan,
) {
    let mut hist = [[0u32; WIDE_BUCKETS]; 6];
    debug_assert!(plan.len <= 6, "11-bit digits cover u64 in six passes");
    for r in records.iter() {
        let k = key(r);
        for d in 0..plan.len {
            hist[d][((k >> plan.shifts[d]) as usize) & (WIDE_BUCKETS - 1)] += 1;
        }
    }
    let mut in_records = true;
    for (h, &shift) in hist.iter().zip(&plan.shifts).take(plan.len) {
        if in_records {
            scatter(records, scratch, shift, h, key);
        } else {
            scatter(scratch, records, shift, h, key);
        }
        in_records = !in_records;
    }
    if !in_records {
        std::mem::swap(records, scratch);
    }
}

/// One counting-sort pass: moves every record of `src` into `dst` at the
/// position dictated by its digit at `shift` (bucket count `B`, a power of
/// two), preserving input order within each bucket (what makes LSD stable).
/// `src` is left empty, capacity kept.
fn scatter<T, const B: usize>(
    src: &mut Vec<T>,
    dst: &mut Vec<T>,
    shift: u32,
    counts: &[u32; B],
    key: &impl Fn(&T) -> u64,
) {
    let n = src.len();
    let mut offsets = [0usize; B];
    let mut run = 0usize;
    for (slot, &c) in offsets.iter_mut().zip(counts.iter()) {
        *slot = run;
        run += c as usize;
    }
    debug_assert_eq!(run, n, "histogram must cover every record");
    dst.clear();
    dst.reserve(n);
    let dst_ptr = dst.as_mut_ptr();
    for item in src.drain(..) {
        let b = ((key(&item) >> shift) as usize) & (B - 1);
        // SAFETY: `offsets` partitions `0..n` by the per-byte counts of this
        // exact input, so every record writes to a distinct index < n within
        // `dst`'s reserved capacity. `dst` has length 0 throughout the loop,
        // so no initialised element is overwritten; `set_len` below only runs
        // after all `n` slots are written. If `key` panicked mid-loop the
        // written items would leak (len is still 0), which is safe.
        unsafe { std::ptr::write(dst_ptr.add(offsets[b]), item) };
        offsets[b] += 1;
    }
    // SAFETY: exactly `n` distinct slots in `0..n` were initialised above.
    unsafe { dst.set_len(n) };
}

/// The dense plane's exchange ([`crate::dense`]): one stable counting-sort
/// pass whose digit is a whole dense slot, `rank − base`. Moves the payload
/// of every `(rank, payload)` record of `sources` — taken in order, so a
/// slot's payloads end up in (source, position) order — into `inbox`, grouped
/// by slot, and leaves the CSR bounds in `offsets`: slot `s` owns
/// `inbox[offsets[s]..offsets[s + 1]]`. `offsets` has one entry per slot
/// plus two (the last is the placement cursors' lead). Sources are left
/// empty, capacity kept; nothing is allocated once `inbox` has grown.
///
/// # Panics
///
/// Panics if a rank lies outside `base..base + slots`, or if the sources
/// hold more than `u32::MAX` records.
pub(crate) fn scatter_to_slots<M>(
    sources: &mut [Vec<(u32, M)>],
    base: u32,
    offsets: &mut [u32],
    inbox: &mut Vec<M>,
) {
    // Count slot `s` at `s + 2`: after the prefix sum `offsets[s + 1]` is
    // where slot `s` starts, and once placement has advanced it by the
    // slot's count it is where slot `s + 1` starts — so `offsets[s]` is.
    offsets.fill(0);
    let mut total = 0usize;
    for source in sources.iter() {
        total += source.len();
        for (rank, _) in source {
            offsets[rank.wrapping_sub(base) as usize + 2] += 1;
        }
    }
    assert!(
        total <= u32::MAX as usize,
        "an inbox is capped at u32::MAX messages"
    );
    for s in 1..offsets.len() {
        offsets[s] += offsets[s - 1];
    }
    inbox.clear();
    inbox.reserve(total);
    let dst = inbox.as_mut_ptr();
    for source in sources.iter_mut() {
        for (rank, payload) in source.drain(..) {
            let cursor = &mut offsets[rank.wrapping_sub(base) as usize + 1];
            // SAFETY: the counting pass read these same records (`sources` is
            // borrowed exclusively throughout), so slot `s`'s cursor starts
            // at the number of records in lower slots and is advanced once
            // per record of `s`: every write lands on a distinct index below
            // `total`, inside the capacity reserved above. `inbox` has length
            // 0 until `set_len`, so nothing initialised is overwritten, and a
            // panic mid-loop (an out-of-range index above) only leaks.
            unsafe { std::ptr::write(dst.add(*cursor as usize), payload) };
            *cursor += 1;
        }
    }
    // SAFETY: exactly `total` distinct indices in `0..total` were written.
    unsafe { inbox.set_len(total) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn radix_sorted(mut records: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
        let mut scratch = Vec::new();
        sort_pairs(&mut records, &mut scratch);
        assert!(scratch.is_empty(), "scratch is drained on return");
        records
    }

    #[test]
    fn digit_plan_skips_constant_digits() {
        // Keys differ only in byte 2.
        let plan = digit_plan(0xAA_00_00, 0x05_00_00, true);
        assert_eq!(plan.len, 1);
        assert_eq!(plan.shifts[0], 16);
        assert_eq!(plan.widths[0], 8);
        assert!(!plan.wide);
    }

    #[test]
    fn digit_plan_goes_wide_on_full_width_keys() {
        let plan = digit_plan(u64::MAX, 0, true);
        assert!(plan.wide);
        assert_eq!(plan.len, 6);
        assert_eq!(plan.shifts[..6], [0, 11, 22, 33, 44, 55]);
        assert_eq!(plan.widths[5], 9);
        // The same envelope without permission stays narrow with all 8 bytes.
        let narrow = digit_plan(u64::MAX, 0, false);
        assert!(!narrow.wide);
        assert_eq!(narrow.len, 8);
    }

    #[test]
    fn digit_plan_covers_every_differing_bit() {
        for (or_acc, and_acc) in [
            (u64::MAX, 0),
            (0xFF00_FF00_FF00_FF00, 0x0F00_0F00_0000_0000),
            (1, 0),
            (u64::MAX, u64::MAX >> 1),
        ] {
            for allow_wide in [false, true] {
                let plan = digit_plan(or_acc, and_acc, allow_wide);
                let mut covered = 0u64;
                for d in 0..plan.len {
                    let mask = (1u64 << plan.widths[d]) - 1;
                    covered |= mask << plan.shifts[d];
                }
                assert_eq!(
                    (or_acc ^ and_acc) & !covered,
                    0,
                    "plan must cover all differing bits"
                );
            }
        }
    }

    #[test]
    fn empty_single_and_all_equal() {
        assert_eq!(radix_sorted(vec![]), vec![]);
        assert_eq!(radix_sorted(vec![(7, 1)]), vec![(7, 1)]);
        // All-equal keys: stability means payloads keep input order, both
        // below and above the insertion cutoff.
        for n in [5u64, 1000] {
            let records: Vec<(u64, u64)> = (0..n).map(|i| (42, i)).collect();
            assert_eq!(radix_sorted(records.clone()), records);
        }
    }

    #[test]
    fn keys_differing_only_in_the_top_byte() {
        // Bytes 0..7 are constant: every pass but the top-byte one is
        // skipped. 1000 records keeps us above the insertion cutoff.
        let records: Vec<(u64, u64)> = (0..1000u64)
            .rev()
            .map(|i| (((i % 256) << 56) | 0xABCD, i))
            .collect();
        let mut expected = records.clone();
        expected.sort_by_key(|r| r.0);
        assert_eq!(radix_sorted(records), expected);
    }

    #[test]
    fn large_uniform_matches_comparison_sort() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let records: Vec<(u64, u64)> = (0..10_000).map(|i| (next(), i)).collect();
        let mut expected = records.clone();
        expected.sort_by_key(|r| r.0);
        assert_eq!(radix_sorted(records), expected);
    }

    #[test]
    fn wide_schedule_sorts_uniform_full_width_keys() {
        // Above WIDE_CUTOFF with all 8 bytes active: takes the 11-bit digit
        // schedule. Stability is still required on the (rare) duplicates.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let records: Vec<(u64, u64)> = (0..(WIDE_CUTOFF as u64 + 1000))
            .map(|i| (next(), i))
            .collect();
        let mut expected = records.clone();
        expected.sort_by_key(|r| r.0);
        assert_eq!(radix_sorted(records), expected);
    }

    #[test]
    fn signed_keys_order_like_ord() {
        let mut records: Vec<(i64, u64)> = (0..1000u64)
            .map(|i| ((i as i64 % 7 - 3) * (1 << 40), i))
            .collect();
        let mut expected = records.clone();
        expected.sort_by_key(|r| r.0);
        let mut scratch = Vec::new();
        sort_pairs(&mut records, &mut scratch);
        assert_eq!(records, expected);
    }

    #[test]
    fn non_radix_keys_fall_back_to_stable_comparison() {
        let mut records: Vec<((u64, u64), u64)> =
            vec![((2, 1), 0), ((1, 9), 1), ((2, 1), 2), ((1, 0), 3)];
        let mut scratch = Vec::new();
        sort_pairs(&mut records, &mut scratch);
        assert_eq!(
            records,
            vec![((1, 0), 3), ((1, 9), 1), ((2, 1), 0), ((2, 1), 2)]
        );
    }

    #[test]
    fn scatter_to_slots_groups_by_slot_in_source_then_send_order() {
        // Slots 10..14 (base 10); payload = (source, position).
        let mut sources: Vec<Vec<(u32, (u8, u8))>> = vec![
            vec![(12, (0, 0)), (10, (0, 1)), (12, (0, 2))],
            vec![],
            vec![(13, (2, 0)), (12, (2, 1)), (10, (2, 2)), (10, (2, 3))],
        ];
        let mut offsets = vec![7u32; 4 + 2]; // stale contents are overwritten
        let mut inbox = vec![(9, 9)];
        scatter_to_slots(&mut sources, 10, &mut offsets, &mut inbox);
        assert_eq!(&offsets[..5], &[0, 3, 3, 6, 7]);
        assert_eq!(
            inbox,
            vec![(0, 1), (2, 2), (2, 3), (0, 0), (0, 2), (2, 1), (2, 0)]
        );
        assert!(sources.iter().all(|s| s.is_empty()));
        assert!(sources[2].capacity() >= 4, "drained, capacity kept");

        // Nothing to deliver: every slot is empty.
        scatter_to_slots(&mut sources, 10, &mut offsets, &mut inbox);
        assert_eq!(&offsets[..5], &[0; 5]);
        assert!(inbox.is_empty());
    }

    #[test]
    fn scatter_to_slots_rejects_a_rank_outside_its_slots() {
        for stray in [9u32, 14, u32::MAX] {
            let outcome = std::panic::catch_unwind(|| {
                let mut sources = vec![vec![(11u32, 1u64), (stray, 2)]];
                scatter_to_slots(&mut sources, 10, &mut [0; 4 + 2], &mut Vec::new());
            });
            assert!(outcome.is_err(), "rank {stray} is not in 10..14");
        }
    }

    #[test]
    fn scratch_capacity_is_reused_across_sorts() {
        let mut scratch: Vec<(u64, u64)> = Vec::new();
        let mut records: Vec<(u64, u64)> = (0..4096u64).rev().map(|i| (i, i)).collect();
        sort_pairs(&mut records, &mut scratch);
        let cap = scratch.capacity();
        assert!(cap >= 4096, "scratch warmed to input size");
        for round in 0..3u64 {
            records.clear();
            records.extend((0..4096u64).map(|i| ((i * 997 + round) % 4096, i)));
            sort_pairs(&mut records, &mut scratch);
            assert_eq!(scratch.capacity(), cap, "no regrowth at steady state");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_radix_matches_sort_unstable_by_key(
            pairs in proptest::collection::vec((0u64..1u64 << 48, 0u64..1000), 0..400),
        ) {
            // Key multisets agree with pdqsort's; sizes straddle the
            // insertion cutoff so both paths are exercised.
            let mut expected = pairs.clone();
            expected.sort_unstable_by_key(|p| p.0);
            let got = radix_sorted(pairs);
            prop_assert_eq!(
                got.iter().map(|p| p.0).collect::<Vec<_>>(),
                expected.iter().map(|p| p.0).collect::<Vec<_>>()
            );
        }

        #[test]
        fn prop_radix_is_stable(
            keys in proptest::collection::vec(0u64..32, 0..300),
        ) {
            // Payload = input position: within every equal-key run the
            // positions must stay ascending.
            let records: Vec<(u64, u64)> =
                keys.into_iter().enumerate().map(|(i, k)| (k, i as u64)).collect();
            let sorted = radix_sorted(records);
            for w in sorted.windows(2) {
                prop_assert!(w[0].0 <= w[1].0);
                if w[0].0 == w[1].0 {
                    prop_assert!(w[0].1 < w[1].1, "equal keys keep input order");
                }
            }
        }
    }
}
