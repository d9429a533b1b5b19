//! Kernel-selection switches and process-wide kernel counters.
//!
//! The packed-bipolar kernels and the SIMD GEMM tiles are drop-in
//! replacements for scalar math, so nothing in an experiment's *output*
//! reveals which kernel actually ran. This module makes the selection
//! observable: every counted kernel entry point bumps a monotone
//! process-wide counter, and callers
//! snapshot before and after a workload to attribute kernel activity:
//! the CLI's `train`/`serve` reports read the process-wide [`stats`], and
//! the execution backends read [`thread_stats`], so a `BackendLedger`
//! counts only the calls its own workload made, whatever other threads
//! run at the same time.
//!
//! The GEMM counters (`simd_gemm_calls`, `portable_gemm_calls`) count
//! `i8` products only, one per product whatever its packing: a product
//! over weights packed once counts like one that packs its own. The `f32` GEMM takes the same SIMD switch but
//! bumps no counter, so a `BackendLedger` and the CLI's report lines read
//! the same whichever `f32` tile ran.
//!
//! It also owns the SIMD escape hatch: [`set_simd_enabled`] (wired to the
//! CLI's `--no-simd` flag) and the `HD_NO_SIMD` environment variable both
//! force the portable fallback of the `i8` and `f32` GEMMs, of the
//! class-interleaved scoring ([`crate::interleaved`]) and of the int8
//! conversion kernel ([`crate::convert`], whose baseline loop is not
//! counted), which is how
//! the equivalence suite pins the non-SIMD path on machines where a SIMD
//! tile would otherwise be selected.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Monotone count of rows scored through the packed Hamming kernel.
static PACKED_SCORE_ROWS: AtomicU64 = AtomicU64::new(0);
/// Monotone count of `i8` GEMM calls taking a SIMD (VNNI or AVX2) tile.
static SIMD_GEMM_CALLS: AtomicU64 = AtomicU64::new(0);
/// Monotone count of `i8` GEMM calls taking the portable fallback kernel.
static PORTABLE_GEMM_CALLS: AtomicU64 = AtomicU64::new(0);
/// Monotone count of packed words pushed through the vertical-counter
/// bundler.
static BUNDLE_WORDS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The same counters, for kernel calls made on this thread only.
    static THREAD_STATS: Cell<KernelStats> = const {
        Cell::new(KernelStats {
            packed_score_rows: 0,
            simd_gemm_calls: 0,
            portable_gemm_calls: 0,
            bundle_words: 0,
        })
    };
}

/// Process-wide SIMD kill switch; `true` forces the portable kernels.
static SIMD_DISABLED: AtomicBool = AtomicBool::new(false);

/// Serializes tests that toggle the process-wide SIMD switch so they
/// cannot race each other inside one test binary.
#[cfg(test)]
pub(crate) static TEST_SIMD_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Snapshot of the process-wide kernel counters; subtract two snapshots
/// (see [`KernelStats::delta_since`]) to attribute activity to one
/// workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Rows scored through the packed XOR+popcount class scan.
    pub packed_score_rows: u64,
    /// `i8` GEMM calls that ran a SIMD tile, VNNI or AVX2 (`f32` calls
    /// are not counted).
    pub simd_gemm_calls: u64,
    /// `i8` GEMM calls that ran the portable scalar tile (`f32` calls are
    /// not counted).
    pub portable_gemm_calls: u64,
    /// Packed words accumulated by the vertical-counter bundler.
    pub bundle_words: u64,
}

impl KernelStats {
    /// Counter increments since `earlier` (saturating, so a stale
    /// snapshot can never underflow).
    #[must_use]
    pub fn delta_since(&self, earlier: &KernelStats) -> KernelStats {
        KernelStats {
            packed_score_rows: self
                .packed_score_rows
                .saturating_sub(earlier.packed_score_rows),
            simd_gemm_calls: self.simd_gemm_calls.saturating_sub(earlier.simd_gemm_calls),
            portable_gemm_calls: self
                .portable_gemm_calls
                .saturating_sub(earlier.portable_gemm_calls),
            bundle_words: self.bundle_words.saturating_sub(earlier.bundle_words),
        }
    }
}

/// Current process-wide kernel counters.
pub fn stats() -> KernelStats {
    KernelStats {
        packed_score_rows: PACKED_SCORE_ROWS.load(Ordering::Relaxed),
        simd_gemm_calls: SIMD_GEMM_CALLS.load(Ordering::Relaxed),
        portable_gemm_calls: PORTABLE_GEMM_CALLS.load(Ordering::Relaxed),
        bundle_words: BUNDLE_WORDS.load(Ordering::Relaxed),
    }
}

/// Kernel counters for calls made on the current thread only: bracketing
/// a workload that runs on this thread attributes its activity exactly,
/// with nothing from other threads. Every kernel notes its call on the
/// thread that entered it.
pub fn thread_stats() -> KernelStats {
    THREAD_STATS.with(Cell::get)
}

fn note_thread(update: impl FnOnce(&mut KernelStats)) {
    THREAD_STATS.with(|cell| {
        let mut stats = cell.get();
        update(&mut stats);
        cell.set(stats);
    });
}

pub(crate) fn note_packed_score(rows: usize) {
    PACKED_SCORE_ROWS.fetch_add(rows as u64, Ordering::Relaxed);
    note_thread(|s| s.packed_score_rows += rows as u64);
}

pub(crate) fn note_simd_gemm() {
    SIMD_GEMM_CALLS.fetch_add(1, Ordering::Relaxed);
    note_thread(|s| s.simd_gemm_calls += 1);
}

pub(crate) fn note_portable_gemm() {
    PORTABLE_GEMM_CALLS.fetch_add(1, Ordering::Relaxed);
    note_thread(|s| s.portable_gemm_calls += 1);
}

pub(crate) fn note_bundle_word(words: usize) {
    BUNDLE_WORDS.fetch_add(words as u64, Ordering::Relaxed);
    note_thread(|s| s.bundle_words += words as u64);
}

/// Enables or disables the SIMD kernels process-wide; `false` forces the
/// portable fallback of both GEMMs, of the class-interleaved scoring and
/// of the int8 conversion kernel (the CLI's `--no-simd` escape hatch).
pub fn set_simd_enabled(enabled: bool) {
    SIMD_DISABLED.store(!enabled, Ordering::Relaxed);
}

/// Whether SIMD kernels are permitted right now: not disabled via
/// [`set_simd_enabled`] and not vetoed by the `HD_NO_SIMD` environment
/// variable. Target-feature detection happens separately at the dispatch
/// site; this is only the policy half.
pub fn simd_permitted() -> bool {
    if SIMD_DISABLED.load(Ordering::Relaxed) {
        return false;
    }
    std::env::var_os("HD_NO_SIMD").is_none_or(|v| v.is_empty() || v == "0")
}

/// Name of the `i8` GEMM tile the dispatcher would select right now:
/// `"avxvnni"` (`vpdpbusd`, AVX-VNNI), `"avx2"` (`vpmaddwd`), or `"portable"` (the scalar tile, also what
/// [`set_simd_enabled`]`(false)` and `HD_NO_SIMD` select).
pub fn i8_gemm_kernel_name() -> &'static str {
    crate::gemm::selected_i8_kernel()
}

/// Runs `f` with the loops it inlines compiled for the widest vector
/// width the host has: AVX-512, AVX2, or the build's baseline (SSE2 on
/// x86-64), the widths and selection of the int8 conversion kernel
/// ([`crate::convert`]). [`set_simd_enabled`]`(false)`, `HD_NO_SIMD` and
/// Miri select the baseline. `f` runs once, on the calling thread.
///
/// This lets safe code outside this crate use instructions the baseline
/// lacks (`i32` multiply, min and max per lane) without `unsafe` code of
/// its own; the compiler vectorizes only what keeps the results, so they
/// are the same at every width. Mark the closure `#[inline(always)]`,
/// and the functions it calls: code the compiler leaves out of line
/// runs at the baseline's width.
pub fn at_widest_width<R>(f: impl FnOnce() -> R) -> R {
    crate::gemm::run_on(crate::convert::Width::selected(), f)
}

/// Name of the `f32` GEMM tile the dispatcher would select right now:
/// `"avx512"` (one `zmm` per output row, AVX-512F), `"avx2"`, or
/// `"portable"` (the scalar tile, also what [`set_simd_enabled`]`(false)`
/// and `HD_NO_SIMD` select). A slab of `b` holding NaN or an infinity
/// runs on the scalar tile whatever this names.
pub fn f32_gemm_kernel_name() -> &'static str {
    crate::gemm::selected_f32_kernel()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_is_saturating_and_monotone() {
        let before = stats();
        note_packed_score(3);
        note_bundle_word(5);
        let after = stats();
        let delta = after.delta_since(&before);
        assert!(delta.packed_score_rows >= 3);
        assert!(delta.bundle_words >= 5);
        // A stale (future) snapshot saturates to zero instead of wrapping.
        assert_eq!(before.delta_since(&after).packed_score_rows, 0);
    }

    #[test]
    fn thread_stats_ignore_other_threads() {
        let before = thread_stats();
        std::thread::spawn(|| note_packed_score(7)).join().unwrap();
        assert_eq!(thread_stats(), before);
        note_packed_score(2);
        assert_eq!(thread_stats().delta_since(&before).packed_score_rows, 2);
    }

    #[test]
    fn simd_switch_round_trips() {
        let _guard = TEST_SIMD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_simd_enabled(false);
        assert!(!simd_permitted());
        set_simd_enabled(true);
        // HD_NO_SIMD may veto in the environment; only assert the switch
        // itself no longer blocks.
        if std::env::var_os("HD_NO_SIMD").is_none() {
            assert!(simd_permitted());
        }
    }
}
