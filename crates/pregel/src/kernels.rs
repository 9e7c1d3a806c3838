//! Vectorized data-plane kernels with runtime dispatch and scalar twins.
//!
//! The message plane and the vertex store are built around sorting, so every
//! steady-state hot loop is a branch-light linear pass over flat arrays. This
//! module holds the radix sorter's digit planner ([`digit_plan`], scalar
//! only) and explicitly vectorized versions of the two halted-bitset passes
//! of the runner: the pass-2 word scan ([`next_word_with_zero`]) and the
//! quiescence popcount ([`popcount`]). The radix histograms and the
//! merge-join's lower bound are plain loops elsewhere (`radix.rs`,
//! `vertex_set.rs`).
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
// Adaptive digit planning (radix sort)
// ---------------------------------------------------------------------------

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

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
}
