//! Vectorized data-plane kernels with runtime dispatch and scalar twins.
//!
//! PRs 4–5 rebuilt the message plane and the vertex store around sorting, so
//! every steady-state hot loop is a branch-light linear pass over flat
//! arrays: radix histogramming, merge-join `lower_bound` probes, halted-bitset
//! scans, and the quiescence popcount. This module collects explicitly
//! vectorized versions of those passes plus the bit-packing codec behind the
//! compressed sorted-ID column ([`pack_frame`]/[`unpack_frame`]).
//!
//! # Dispatch strategy
//!
//! No new dependencies and no compile-time feature requirements: every kernel
//! is a safe public function that picks an implementation at runtime.
//!
//! 1. If the scalar override is on ([`force_scalar_kernels`] or the
//!    `PPA_SCALAR_KERNELS` environment variable), the portable scalar twin
//!    runs. This is the CI forced-fallback path.
//! 2. Otherwise, on `x86_64`, `is_x86_feature_detected!` probes AVX2 / POPCNT
//!    once (cached in an atomic) and the widest supported implementation
//!    runs. SSE2 is the `x86_64` baseline, so the "scalar" twins already
//!    autovectorize to SSE2 where profitable; the explicit paths target the
//!    instruction sets the default target *cannot* assume (AVX2, POPCNT).
//! 3. On every other architecture the scalar twin is the only path, so the
//!    crate builds and behaves identically on ARM, WASM, etc.
//!
//! # Safety argument
//!
//! All `unsafe` in this module is of exactly two shapes:
//!
//! * **`#[target_feature]` calls.** Functions compiled with
//!   `#[target_feature(enable = "avx2")]` (or `"popcnt"`) are only reachable
//!   through the dispatcher, which first checks the cached
//!   `is_x86_feature_detected!` result for that exact feature. Calling them
//!   is therefore never undefined behaviour on the running CPU.
//! * **Unaligned vector loads inside those functions.** Every
//!   `_mm256_loadu_si256` reads 32 bytes at `ptr.add(i)` where the
//!   surrounding loop guarantees `i + 4 <= slice.len()` for a `&[u64]`
//!   slice; `loadu` has no alignment requirement. No pointer is ever written
//!   through, and no reference outlives the call.
//!
//! Nothing here transmutes, extends lifetimes, or touches uninitialized
//! memory; every kernel is a pure function of its input slices.
//!
//! # Adding a kernel
//!
//! 1. Write the portable scalar implementation first and make it the body of
//!    the public function's fallback arm.
//! 2. Add the `#[cfg(target_arch = "x86_64")] #[target_feature(...)]`
//!    variant, reachable only via `use_avx2`/`use_popcnt`-style guards,
//!    with a `// SAFETY:` comment on each unsafe block per the argument
//!    above.
//! 3. Pin equivalence in the `tests` module with a proptest that sweeps
//!    lengths across lane boundaries (empty, sub-lane, exact multiple,
//!    ragged tail) and misaligned sub-slices (`&data[off..]`).

#[cfg(target_arch = "x86_64")]
use std::sync::atomic::AtomicU8;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Toggles and dispatch
// ---------------------------------------------------------------------------

/// When `true`, every kernel runs its portable scalar twin.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// When `true`, newly built vertex-store partitions keep their sorted ID
/// column as a plain `Vec` instead of the delta/bit-packed frames.
static FORCE_PLAIN_COLUMNS: AtomicBool = AtomicBool::new(false);

fn env_scalar() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| std::env::var_os("PPA_SCALAR_KERNELS").is_some_and(|v| v != "0"))
}

/// Forces (or releases) the portable scalar implementation of every kernel.
///
/// Process-global; tests and the CI fallback job use it to exercise the
/// scalar twins. The `PPA_SCALAR_KERNELS` environment variable (any value
/// but `"0"`) forces scalar independently of this switch.
pub fn force_scalar_kernels(on: bool) {
    FORCE_SCALAR.store(on, Ordering::Relaxed);
}

/// Whether the scalar twins are currently forced (switch or environment).
pub fn scalar_kernels_forced() -> bool {
    FORCE_SCALAR.load(Ordering::Relaxed) || env_scalar()
}

/// Forces (or releases) plain `Vec` sorted-ID columns in newly built
/// vertex-store partitions, disabling delta/bit-packing.
///
/// Construction-time: partitions built while the switch is on stay plain for
/// their lifetime. Used by tests to pin packed and plain columns identical.
pub fn force_plain_id_columns(on: bool) {
    FORCE_PLAIN_COLUMNS.store(on, Ordering::Relaxed);
}

/// Whether plain sorted-ID columns are currently forced.
pub fn plain_id_columns_forced() -> bool {
    FORCE_PLAIN_COLUMNS.load(Ordering::Relaxed)
}

/// Cached CPU feature probe: bit 0 = probed, bit 1 = AVX2, bit 2 = POPCNT.
#[cfg(target_arch = "x86_64")]
fn features() -> u8 {
    static CACHE: AtomicU8 = AtomicU8::new(0);
    let mut f = CACHE.load(Ordering::Relaxed);
    if f == 0 {
        f = 1;
        if std::arch::is_x86_feature_detected!("avx2") {
            f |= 2;
        }
        if std::arch::is_x86_feature_detected!("popcnt") {
            f |= 4;
        }
        CACHE.store(f, Ordering::Relaxed);
    }
    f
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn use_avx2() -> bool {
    !scalar_kernels_forced() && features() & 2 != 0
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn use_popcnt() -> bool {
    !scalar_kernels_forced() && features() & 4 != 0
}

// ---------------------------------------------------------------------------
// Key envelope + adaptive digit planning (radix sort)
// ---------------------------------------------------------------------------

/// Bitwise `(OR, AND)` envelope of a key column: the exact set of bit
/// positions on which the keys disagree is `or ^ and`.
///
/// The radix sorter derives its digit schedule from this: a digit whose span
/// has `or == and` is constant across all keys and permutes nothing, so it
/// is skipped *provably* (the pre-PR-7 sorter discovered the same fact from
/// a full 256-counter histogram). Empty input yields `(0, u64::MAX)`.
pub fn key_envelope(keys: &[u64]) -> (u64, u64) {
    #[cfg(target_arch = "x86_64")]
    if use_avx2() && keys.len() >= 8 {
        // SAFETY: AVX2 verified by the dispatcher.
        return unsafe { key_envelope_avx2(keys) };
    }
    key_envelope_scalar(keys)
}

fn key_envelope_scalar(keys: &[u64]) -> (u64, u64) {
    // Four independent accumulators so the loop is not one serial dep chain.
    let mut or4 = [0u64; 4];
    let mut and4 = [u64::MAX; 4];
    let chunks = keys.chunks_exact(4);
    let rem = chunks.remainder();
    for c in chunks {
        for i in 0..4 {
            or4[i] |= c[i];
            and4[i] &= c[i];
        }
    }
    let mut or_acc = or4[0] | or4[1] | or4[2] | or4[3];
    let mut and_acc = and4[0] & and4[1] & and4[2] & and4[3];
    for &k in rem {
        or_acc |= k;
        and_acc &= k;
    }
    (or_acc, and_acc)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: callers must ensure AVX2 is available; the dispatcher gates every
// call site behind `use_avx2()`.
unsafe fn key_envelope_avx2(keys: &[u64]) -> (u64, u64) {
    use core::arch::x86_64::*;
    let mut or_v = _mm256_setzero_si256();
    let mut and_v = _mm256_set1_epi64x(-1);
    let chunks = keys.chunks_exact(4);
    let rem = chunks.remainder();
    for c in chunks {
        // SAFETY: `c` is exactly 4 u64s (32 readable bytes); loadu is
        // alignment-free.
        let v = unsafe { _mm256_loadu_si256(c.as_ptr() as *const __m256i) };
        or_v = _mm256_or_si256(or_v, v);
        and_v = _mm256_and_si256(and_v, v);
    }
    let mut o = [0u64; 4];
    let mut a = [0u64; 4];
    // SAFETY: both arrays are 32 writable bytes; storeu is alignment-free.
    unsafe {
        _mm256_storeu_si256(o.as_mut_ptr() as *mut __m256i, or_v);
        _mm256_storeu_si256(a.as_mut_ptr() as *mut __m256i, and_v);
    }
    let mut or_acc = o[0] | o[1] | o[2] | o[3];
    let mut and_acc = a[0] & a[1] & a[2] & a[3];
    for &k in rem {
        or_acc |= k;
        and_acc &= k;
    }
    (or_acc, and_acc)
}

/// Maximum number of digits a [`DigitPlan`] can schedule.
pub const MAX_DIGITS: usize = 8;

/// Number of buckets a wide (11-bit) digit needs; the narrow (8-bit)
/// schedule uses 256.
pub const WIDE_BUCKETS: usize = 1 << 11;

/// An adaptive LSD digit schedule derived from the exact key envelope.
///
/// Narrow mode is the classic byte-per-digit schedule restricted to the
/// bytes on which keys actually differ. When six or more bytes are active —
/// the uniform full-width shape that regressed 0.85× vs the comparison sort
/// on byte digits — the plan switches to six 11-bit digits,
/// trading larger (but still stack-resident) histograms for two fewer
/// scatter passes.
#[derive(Debug, Clone, Copy)]
pub struct DigitPlan {
    /// Bit shift of each active digit, ascending (LSD order).
    pub shifts: [u32; MAX_DIGITS],
    /// Bit width of each active digit (8, or 9–11 in wide mode).
    pub widths: [u32; MAX_DIGITS],
    /// Number of active digits.
    pub len: usize,
    /// Whether the wide (11-bit) schedule was selected.
    pub wide: bool,
}

impl DigitPlan {
    /// Bucket count of digit `i`.
    #[inline]
    pub fn buckets(&self, i: usize) -> usize {
        1usize << self.widths[i]
    }
}

/// Builds the digit schedule for keys with the given envelope.
///
/// `allow_wide` gates the 11-bit schedule; callers pass `false` for small
/// inputs where zeroing the 2048-counter histograms would dominate.
pub fn digit_plan(or_acc: u64, and_acc: u64, allow_wide: bool) -> DigitPlan {
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
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            if (diff >> shift) & mask != 0 {
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

/// Scalar reference histogrammer: all eight byte-digit histograms in one
/// pass over a contiguous key column (the pre-adaptive shape the planned
/// histogrammer replaced).
pub fn histograms8(keys: &[u64], hist: &mut [[u32; 256]; 8]) {
    for &k in keys {
        for (d, h) in hist.iter_mut().enumerate() {
            h[((k >> (8 * d)) & 0xFF) as usize] += 1;
        }
    }
}

/// Envelope-planned histogrammer over a contiguous key column: one pass,
/// counting only the plan's active digits into `hist`, which must hold
/// `plan.len` stripes of [`WIDE_BUCKETS`] counters each.
pub fn histograms_planned(keys: &[u64], plan: &DigitPlan, hist: &mut [u32]) {
    assert!(hist.len() >= plan.len * WIDE_BUCKETS);
    for &k in keys {
        for d in 0..plan.len {
            let b = ((k >> plan.shifts[d]) & ((1u64 << plan.widths[d]) - 1)) as usize;
            hist[d * WIDE_BUCKETS + b] += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Sorted-ID lower bound (merge-join probe)
// ---------------------------------------------------------------------------

/// First index `>= lo` whose ID is `>= target`, assuming `ids` is sorted
/// ascending and everything before `lo` is `< target`.
///
/// The u64 twin of `vertex_set::lower_bound_from`, used on radix-key images
/// (decoded column frames, packed tails). The AVX2 path runs a branchless
/// 4-lane probe — compare, movemask, count — over a short window before
/// falling back to galloping, because merge-join targets usually land within
/// a few slots of the cursor.
pub fn lower_bound_u64(ids: &[u64], lo: usize, target: u64) -> usize {
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: AVX2 verified by the dispatcher.
        return unsafe { lower_bound_u64_avx2(ids, lo, target) };
    }
    lower_bound_u64_scalar(ids, lo, target)
}

fn lower_bound_u64_scalar(ids: &[u64], lo: usize, target: u64) -> usize {
    let n = ids.len();
    let mut i = lo;
    // Short linear probe: merge joins usually advance by a few slots.
    let probe_end = n.min(i + 8);
    while i < probe_end {
        if ids[i] >= target {
            return i;
        }
        i += 1;
    }
    if i == n {
        return n;
    }
    // Gallop, then binary search the final window.
    let mut step = 8usize;
    let mut hi = i + step;
    while hi < n && ids[hi] < target {
        i = hi + 1;
        step <<= 1;
        hi = i + step;
    }
    let hi = hi.min(n);
    i + ids[i..hi].partition_point(|&x| x < target)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: callers must ensure AVX2 is available; the dispatcher gates every
// call site behind `use_avx2()`.
unsafe fn lower_bound_u64_avx2(ids: &[u64], lo: usize, target: u64) -> usize {
    use core::arch::x86_64::*;
    let n = ids.len();
    let mut i = lo;
    // AVX2 has only a *signed* 64-bit compare; XOR with the sign bit maps
    // unsigned order onto signed order.
    let sign = _mm256_set1_epi64x(i64::MIN);
    let t = _mm256_xor_si256(_mm256_set1_epi64x(target as i64), sign);
    let mut probes = 0;
    while i + 4 <= n && probes < 8 {
        // SAFETY: `i + 4 <= n` guarantees 32 readable bytes at `ids[i..]`;
        // loadu is alignment-free.
        let v = unsafe { _mm256_loadu_si256(ids.as_ptr().add(i) as *const __m256i) };
        let lt = _mm256_cmpgt_epi64(t, _mm256_xor_si256(v, sign));
        let mask = _mm256_movemask_epi8(lt) as u32;
        if mask != u32::MAX {
            // Lanes are 8 mask bytes each; the first lane with any clear
            // byte is the first ID `>= target`.
            return i + (mask.trailing_ones() / 8) as usize;
        }
        i += 4;
        probes += 1;
    }
    if i + 4 > n {
        while i < n {
            if ids[i] >= target {
                return i;
            }
            i += 1;
        }
        return n;
    }
    // Probe exhausted: the target is far, gallop like the scalar path.
    let mut step = 4usize;
    let mut hi = i + step;
    while hi < n && ids[hi] < target {
        i = hi + 1;
        step <<= 1;
        hi = i + step;
    }
    let hi = hi.min(n);
    i + ids[i..hi].partition_point(|&x| x < target)
}

// ---------------------------------------------------------------------------
// Halted-bitset kernels (quiescence popcount + pass-2 word scan)
// ---------------------------------------------------------------------------

/// Total set bits across the words — the runner's quiescence count over the
/// halted bitset.
///
/// The default `x86_64` target lowers `count_ones` to a SWAR sequence
/// (POPCNT is post-SSE2); the dispatched path compiles the same loop with
/// the `popcnt` feature enabled, one instruction per word.
pub fn popcount(words: &[u64]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if use_popcnt() {
        // SAFETY: POPCNT verified by the dispatcher.
        return unsafe { popcount_hw(words) };
    }
    popcount_scalar(words)
}

fn popcount_scalar(words: &[u64]) -> u64 {
    words.iter().map(|w| w.count_ones() as u64).sum()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
// SAFETY: callers must ensure POPCNT is available; the dispatcher gates
// every call site behind `use_popcnt()`. The body itself has no unsafe
// operations — the attribute alone makes the fn unsafe to call.
unsafe fn popcount_hw(words: &[u64]) -> u64 {
    // Four accumulators so the popcnts pipeline instead of serializing on
    // one register.
    let mut c = [0u64; 4];
    let chunks = words.chunks_exact(4);
    let rem = chunks.remainder();
    for w in chunks {
        c[0] += w[0].count_ones() as u64;
        c[1] += w[1].count_ones() as u64;
        c[2] += w[2].count_ones() as u64;
        c[3] += w[3].count_ones() as u64;
    }
    c[0] + c[1] + c[2] + c[3] + rem.iter().map(|w| w.count_ones() as u64).sum::<u64>()
}

/// Index of the first word at or after `from` that is not all-ones, i.e.
/// still has an unhalted slot — the runner's pass-2 scan skips whole halted
/// words with one wide compare instead of loading them one by one.
pub fn next_word_with_zero(words: &[u64], from: usize) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    if use_avx2() && words.len().saturating_sub(from) >= 8 {
        // SAFETY: AVX2 verified by the dispatcher.
        return unsafe { next_word_with_zero_avx2(words, from) };
    }
    next_word_with_zero_scalar(words, from)
}

fn next_word_with_zero_scalar(words: &[u64], from: usize) -> Option<usize> {
    words
        .get(from..)?
        .iter()
        .position(|&w| w != u64::MAX)
        .map(|i| from + i)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: callers must ensure AVX2 is available; the dispatcher gates every
// call site behind `use_avx2()`.
unsafe fn next_word_with_zero_avx2(words: &[u64], from: usize) -> Option<usize> {
    use core::arch::x86_64::*;
    let n = words.len();
    let ones = _mm256_set1_epi64x(-1);
    let mut i = from;
    while i + 4 <= n {
        // SAFETY: `i + 4 <= n` guarantees 32 readable bytes; loadu is
        // alignment-free.
        let v = unsafe { _mm256_loadu_si256(words.as_ptr().add(i) as *const __m256i) };
        let eq = _mm256_cmpeq_epi64(v, ones);
        let mask = _mm256_movemask_epi8(eq) as u32;
        if mask != u32::MAX {
            // 8 mask bytes per lane: the first lane with a clear byte is
            // the first word that is not all-ones.
            return Some(i + (mask.trailing_ones() / 8) as usize);
        }
        i += 4;
    }
    words[i..n]
        .iter()
        .position(|&w| w != u64::MAX)
        .map(|p| i + p)
}

// ---------------------------------------------------------------------------
// Bit-packed ID frame codec (compressed sorted-ID column)
// ---------------------------------------------------------------------------

/// Number of IDs per sealed frame of a packed sorted-ID column.
pub const FRAME: usize = 128;

/// Number of `u64` words a frame of `count` values at `width` bits occupies.
#[inline]
pub fn frame_words(count: usize, width: u32) -> usize {
    (count * width as usize).div_ceil(64)
}

/// Appends `ids.len()` deltas (`id - base`, each `< 2^width`) to `out` as an
/// LSB-first bitstream of `width`-bit fields, padded up to a word boundary.
///
/// `width == 0` (every ID equals `base`) appends nothing.
pub fn pack_frame(ids: &[u64], base: u64, width: u32, out: &mut Vec<u64>) {
    debug_assert!(width <= 64);
    if width == 0 {
        return;
    }
    let start = out.len();
    out.resize(start + frame_words(ids.len(), width), 0);
    let words = &mut out[start..];
    let mut bit = 0usize;
    for &id in ids {
        let d = id - base;
        debug_assert!(
            width == 64 || d < (1u64 << width),
            "delta exceeds frame width"
        );
        let (wi, sh) = (bit >> 6, bit & 63);
        words[wi] |= d << sh;
        if sh + width as usize > 64 {
            // Spill implies sh > 0, so `64 - sh` is a valid shift.
            words[wi + 1] |= d >> (64 - sh);
        }
        bit += width as usize;
    }
}

/// Decodes `out.len()` consecutive `width`-bit deltas from the frame's words
/// and writes `base + delta` into `out`.
pub fn unpack_frame(words: &[u64], base: u64, width: u32, out: &mut [u64]) {
    if width == 0 {
        out.fill(base);
        return;
    }
    let mask = if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let mut bit = 0usize;
    for o in out.iter_mut() {
        let (wi, sh) = (bit >> 6, bit & 63);
        let mut v = words[wi] >> sh;
        if sh + width as usize > 64 {
            v |= words[wi + 1] << (64 - sh);
        }
        *o = base + (v & mask);
        bit += width as usize;
    }
}

/// Decodes the single `width`-bit delta at `idx` and returns `base + delta`.
pub fn unpack_one(words: &[u64], base: u64, width: u32, idx: usize) -> u64 {
    if width == 0 {
        return base;
    }
    let mask = if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let bit = idx * width as usize;
    let (wi, sh) = (bit >> 6, bit & 63);
    let mut v = words[wi] >> sh;
    if sh + width as usize > 64 {
        v |= words[wi + 1] << (64 - sh);
    }
    base + (v & mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Mutex;

    /// Kernel dispatch is process-global; tests that flip it serialize here.
    static SCALAR_LOCK: Mutex<()> = Mutex::new(());

    struct ForcedScalar(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);

    impl ForcedScalar {
        fn new() -> ForcedScalar {
            let guard = SCALAR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            force_scalar_kernels(true);
            ForcedScalar(guard)
        }
    }

    impl Drop for ForcedScalar {
        fn drop(&mut self) {
            force_scalar_kernels(false);
        }
    }

    fn oracle_envelope(keys: &[u64]) -> (u64, u64) {
        keys.iter().fold((0, u64::MAX), |(o, a), &k| (o | k, a & k))
    }

    #[test]
    fn envelope_of_empty_is_identity() {
        assert_eq!(key_envelope(&[]), (0, u64::MAX));
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
                    let mask = if plan.widths[d] == 64 {
                        u64::MAX
                    } else {
                        (1u64 << plan.widths[d]) - 1
                    };
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
    fn planned_histograms_match_reference() {
        let keys: Vec<u64> = (0..1000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let (or_acc, and_acc) = key_envelope(&keys);
        let plan = digit_plan(or_acc, and_acc, true);
        let mut hist = vec![0u32; plan.len * WIDE_BUCKETS];
        histograms_planned(&keys, &plan, &mut hist);
        for d in 0..plan.len {
            let total: u64 = hist[d * WIDE_BUCKETS..(d + 1) * WIDE_BUCKETS]
                .iter()
                .map(|&c| c as u64)
                .sum();
            assert_eq!(total, keys.len() as u64, "digit {d} counts every key");
        }
    }

    #[test]
    fn lower_bound_handles_empty_and_tiny() {
        assert_eq!(lower_bound_u64(&[], 0, 7), 0);
        assert_eq!(lower_bound_u64(&[3], 0, 3), 0);
        assert_eq!(lower_bound_u64(&[3], 0, 4), 1);
        assert_eq!(lower_bound_u64(&[3, 9], 1, 9), 1);
    }

    #[test]
    fn pack_frame_width_zero_and_64() {
        let mut out = Vec::new();
        pack_frame(&[5, 5, 5], 5, 0, &mut out);
        assert!(out.is_empty());
        let mut dec = [0u64; 3];
        unpack_frame(&out, 5, 0, &mut dec);
        assert_eq!(dec, [5, 5, 5]);

        let ids = [0u64, u64::MAX - 1, u64::MAX];
        let mut out = Vec::new();
        pack_frame(&ids, 0, 64, &mut out);
        assert_eq!(out.len(), 3);
        let mut dec = [0u64; 3];
        unpack_frame(&out, 0, 64, &mut dec);
        assert_eq!(dec, ids);
        assert_eq!(unpack_one(&out, 0, 64, 1), u64::MAX - 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_envelope_matches_oracle(
            data in proptest::collection::vec(0u64..=u64::MAX, 0..64),
            off in 0usize..8,
        ) {
            let s = &data[off.min(data.len())..];
            prop_assert_eq!(key_envelope(s), oracle_envelope(s));
            let _g = ForcedScalar::new();
            prop_assert_eq!(key_envelope(s), oracle_envelope(s));
        }

        #[test]
        fn prop_popcount_matches_oracle(
            data in proptest::collection::vec(0u64..=u64::MAX, 0..64),
            off in 0usize..8,
        ) {
            let s = &data[off.min(data.len())..];
            let oracle: u64 = s.iter().map(|w| w.count_ones() as u64).sum();
            prop_assert_eq!(popcount(s), oracle);
            let _g = ForcedScalar::new();
            prop_assert_eq!(popcount(s), oracle);
        }

        #[test]
        fn prop_next_word_with_zero_matches_oracle(
            data in proptest::collection::vec(0u8..2, 0..64),
            from in 0usize..70,
        ) {
            // bools → words: true = all-ones, false = one clear bit.
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
            let _g = ForcedScalar::new();
            prop_assert_eq!(next_word_with_zero(&words, from), oracle);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_lower_bound_matches_partition_point(
            ids in proptest::collection::vec(0u64..1000, 0..80),
            lo_frac in 0usize..80,
            target in 0u64..1100,
        ) {
            let mut ids = ids;
            ids.sort_unstable();
            ids.dedup();
            let full = ids.partition_point(|&x| x < target);
            // Contract: everything before `lo` must already be < target.
            let lo = lo_frac.min(full);
            prop_assert_eq!(lower_bound_u64(&ids, lo, target), full);
            let _g = ForcedScalar::new();
            prop_assert_eq!(lower_bound_u64(&ids, lo, target), full);
        }

        #[test]
        fn prop_lower_bound_wide_range(
            ids in proptest::collection::vec(0u64..=u64::MAX, 0..300),
            target in 0u64..=u64::MAX,
        ) {
            let mut ids = ids;
            ids.sort_unstable();
            let full = ids.partition_point(|&x| x < target);
            prop_assert_eq!(lower_bound_u64(&ids, 0, target), full);
        }

        #[test]
        fn prop_pack_roundtrip(
            deltas in proptest::collection::vec(0u64..=u64::MAX, 1..200),
            base in 0u64..1_000_000,
            width in 1u32..=64,
        ) {
            let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
            // Clamp so `base + delta` cannot overflow; re-derive the exact
            // width afterwards, sweeping 1..=64 via the generated mask.
            let ids: Vec<u64> = deltas
                .iter()
                .map(|d| base + (d & mask).min(u64::MAX - base))
                .collect();
            let width_needed = ids
                .iter()
                .map(|id| 64 - (id - base).leading_zeros())
                .max()
                .unwrap_or(0)
                .max(1);
            let mut words = Vec::new();
            pack_frame(&ids, base, width_needed, &mut words);
            prop_assert_eq!(words.len(), frame_words(ids.len(), width_needed));
            let mut out = vec![0u64; ids.len()];
            unpack_frame(&words, base, width_needed, &mut out);
            prop_assert_eq!(&out, &ids);
            for (i, &id) in ids.iter().enumerate() {
                prop_assert_eq!(unpack_one(&words, base, width_needed, i), id);
            }
        }
    }
}
