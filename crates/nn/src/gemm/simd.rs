//! Explicit-SIMD microkernels for the compute core, runtime-dispatched by
//! CPU capability (DESIGN.md §11, Contract 12).
//!
//! # Tiers and dispatch
//!
//! Kernels come in three tiers — [`SimdLevel::Scalar`] (the portable
//! kernels in the parent module), [`SimdLevel::Sse2`] (128-bit, part of
//! the x86-64 baseline ISA) and [`SimdLevel::Avx2`] (256-bit, requires
//! `avx2`+`fma`). The active tier is chosen **once per process**: the
//! hardware probe ([`detected_level`], `is_x86_feature_detected!` behind
//! a `OnceLock`) clamped by the `CV_SIMD=scalar|sse2|avx2` environment
//! variable (requests above the detected capability are clamped with a
//! warning on stderr — never silently honored). Benches and tests can
//! override in-process with [`set_simd_level`] or bypass the global state
//! entirely through the per-level [`gemm_nn_at`]-family entry points.
//!
//! Dispatch happens per *block call* (one branch on a relaxed atomic
//! load), never inside an inner loop, and shapes whose vectorized axis is
//! narrower than one SIMD tile fall straight to the scalar kernels.
//!
//! # Strict vs relaxed (Contract 12)
//!
//! * **Strict** (the default): every kernel preserves the reference
//!   accumulation chain of every output element — vector lanes only ever
//!   carry *independent* chains, multiplies and adds stay separate (no
//!   FMA contraction), and zero-skip differences are covered by the ±0.0
//!   lemma of the parent module. Strict kernels are **bit-identical** to
//!   the scalar kernels and to [`super::reference`] at every tier and
//!   every pool size.
//! * **Relaxed** ([`set_relaxed_kernels`], explicit opt-in): the GEMM
//!   kernels may fuse multiply-adds and split reduction chains across
//!   lanes/accumulators (the NT kernel becomes a wide FMA dot product).
//!   Results are tolerance-equivalent, not bit-identical; the equivalence
//!   suite lives in `cv-tests/compute_core.rs`. The conv kernels (the
//!   channel-blocked 3×3 bodies and the im2col lowering) stay strict even
//!   in relaxed mode, so Contract 9 for convolution holds
//!   unconditionally.
//!
//! # Safety argument
//!
//! All `unsafe` is confined to this module and takes exactly two shapes:
//!
//! 1. **ISA availability.** AVX2 kernel bodies live behind
//!    `#[target_feature(enable = "avx2,fma")]` functions (`avx2` alone
//!    for the conv entries) that are only reachable through a
//!    [`SimdLevel::Avx2`] dispatch, and that level is
//!    only ever produced by [`detected_level`] observing `avx2`+`fma` at
//!    runtime ([`set_simd_level`] and the `CV_SIMD` parser refuse
//!    unsupported requests). SSE2 needs no check: it is part of the
//!    x86-64 baseline, and every non-x86-64 build compiles to the scalar
//!    tier only.
//! 2. **In-bounds raw-pointer arithmetic.** Kernel bodies use unaligned
//!    vector loads/stores through raw pointers; every access is bounded
//!    by the slice lengths asserted (or guaranteed by the callers'
//!    dimension asserts) before the pointers are formed, and `&mut`
//!    borrow rules guarantee output/input slices never alias.

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::OnceLock;

/// One tier of the runtime-dispatched kernel family, ordered by
/// capability (`Scalar < Sse2 < Avx2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum SimdLevel {
    /// The portable kernels of the parent module (compiler-autovectorized
    /// on most targets). Always available.
    Scalar = 0,
    /// 128-bit `std::arch` kernels. Part of the x86-64 baseline ISA, so
    /// always available on x86-64; unavailable elsewhere.
    Sse2 = 1,
    /// 256-bit `std::arch` kernels. Requires runtime-detected `avx2` and
    /// `fma` (FMA instructions are emitted only in relaxed mode, but the
    /// tier requires both so the mode toggle never changes dispatch).
    Avx2 = 2,
}

impl SimdLevel {
    /// Every tier in ascending capability order.
    pub const ALL: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2];

    /// The lowercase name used by `CV_SIMD`, perf reports, and CI logs.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// Parses a `CV_SIMD` value (case-insensitive, surrounding
    /// whitespace ignored).
    pub fn parse(s: &str) -> Option<SimdLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(SimdLevel::Scalar),
            "sse2" => Some(SimdLevel::Sse2),
            "avx2" => Some(SimdLevel::Avx2),
            _ => None,
        }
    }

    /// Whether this tier can run on the current hardware.
    pub fn is_supported(self) -> bool {
        self <= detected_level()
    }

    fn from_u8(v: u8) -> SimdLevel {
        match v {
            0 => SimdLevel::Scalar,
            1 => SimdLevel::Sse2,
            2 => SimdLevel::Avx2,
            _ => unreachable!("invalid SimdLevel encoding {v}"),
        }
    }
}

/// Whether a kernel must preserve the reference accumulation chains or
/// may trade them for throughput (Contract 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Chain-preserving: bit-identical to the scalar kernels and to
    /// [`super::reference`] for finite inputs.
    Strict,
    /// May fuse multiply-adds and reassociate reduction chains; results
    /// are tolerance-equivalent only. At [`SimdLevel::Scalar`] relaxed is
    /// identical to strict (the scalar kernels have no relaxed variant).
    Relaxed,
}

static DETECTED: OnceLock<SimdLevel> = OnceLock::new();

/// The highest tier the hardware supports, probed once per process via
/// `is_x86_feature_detected!` and memoized (repeat calls are one
/// `OnceLock` load, never a CPUID re-probe).
pub fn detected_level() -> SimdLevel {
    *DETECTED.get_or_init(probe_level)
}

fn probe_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return SimdLevel::Avx2;
        }
        SimdLevel::Sse2
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdLevel::Scalar
    }
}

const LEVEL_UNSET: u8 = u8::MAX;
static ACTIVE: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

/// The tier the kernels are **actually using** — the detected capability
/// clamped by `CV_SIMD` (read once) or the last [`set_simd_level`]
/// override. This is what perf reports must record: the level used, not
/// the one requested.
pub fn simd_level() -> SimdLevel {
    match ACTIVE.load(Ordering::Relaxed) {
        LEVEL_UNSET => {
            let lvl = initial_level();
            // A racing initializer computes the same value (the env var
            // is read-only and the probe is deterministic), so a plain
            // store is fine.
            ACTIVE.store(lvl as u8, Ordering::Relaxed);
            lvl
        }
        v => SimdLevel::from_u8(v),
    }
}

fn initial_level() -> SimdLevel {
    let detected = detected_level();
    let Ok(req) = std::env::var("CV_SIMD") else {
        return detected;
    };
    match SimdLevel::parse(&req) {
        Some(want) if want <= detected => want,
        Some(want) => {
            eprintln!(
                "cv-nn: CV_SIMD={} exceeds the detected capability ({}); clamping",
                want.name(),
                detected.name()
            );
            detected
        }
        None => {
            eprintln!(
                "cv-nn: unrecognized CV_SIMD={req:?} (expected scalar|sse2|avx2); using {}",
                detected.name()
            );
            detected
        }
    }
}

/// Overrides the active tier in-process (A/B benchmarking). Returns
/// `false` — and changes nothing — if `level` exceeds the detected
/// hardware capability. In strict mode (the default) flipping the level
/// can only change speed, never bits; use from concurrent tests only
/// with that in mind.
pub fn set_simd_level(level: SimdLevel) -> bool {
    if !level.is_supported() {
        return false;
    }
    ACTIVE.store(level as u8, Ordering::Relaxed);
    true
}

static RELAXED: AtomicBool = AtomicBool::new(false);

/// Opts the GEMM kernels into relaxed mode ([`KernelMode::Relaxed`]).
/// **This changes result bits** (tolerance-equivalent, not
/// bit-identical), so it is never enabled implicitly — no environment
/// variable, no auto-detection. Conv stays strict regardless.
pub fn set_relaxed_kernels(on: bool) {
    RELAXED.store(on, Ordering::Relaxed);
}

/// Whether [`set_relaxed_kernels`] has opted into relaxed GEMM kernels.
pub fn relaxed_kernels() -> bool {
    RELAXED.load(Ordering::Relaxed)
}

/// The ISA features relevant to kernel dispatch that the CPU reports,
/// for perf-report honesty (`cpu_features` in `bench_perf.json`).
pub fn cpu_features() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        let mut f = vec!["sse2"];
        if std::arch::is_x86_feature_detected!("avx") {
            f.push("avx");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            f.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            f.push("fma");
        }
        f
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

/// Tiny-shape guard: clamps the tier so a kernel whose vectorized axis
/// holds less than one 128-bit tile (or one 256-bit tile for AVX2) runs
/// scalar (resp. SSE2) instead — one branch here, none in the inner
/// loops.
fn level_for_width(level: SimdLevel, width: usize) -> SimdLevel {
    if width >= 8 {
        level
    } else if width >= 4 {
        level.min(SimdLevel::Sse2)
    } else {
        SimdLevel::Scalar
    }
}

// ---------------------------------------------------------------------
// Dispatch wrappers (called from the parent module's block kernels)
// ---------------------------------------------------------------------

#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn nn_run(
    level: SimdLevel,
    relaxed: bool,
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
) {
    match level {
        SimdLevel::Scalar => super::nn_block_scalar(out, a, b, k, n),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => x86::nn_sse2(relaxed, out, a, b, k, n),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only produced by a dispatch that observed
        // avx2+fma via `detected_level()` (see module safety argument).
        SimdLevel::Avx2 => unsafe { x86::nn_avx2(relaxed, out, a, b, k, n) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("non-scalar SIMD level on a non-x86-64 build"),
    }
}

/// NN row block at the active tier and mode.
pub(super) fn dispatch_nn(out: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
    nn_run(
        level_for_width(simd_level(), n),
        relaxed_kernels(),
        out,
        a,
        b,
        k,
        n,
    );
}

/// NN row block at the active tier, strict mode regardless of the
/// relaxed toggle — the conv im2col lowering uses this so convolution
/// stays bit-exact (Contract 9) even when GEMM has opted into relaxed.
pub(super) fn dispatch_nn_strict(out: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
    nn_run(level_for_width(simd_level(), n), false, out, a, b, k, n);
}

#[allow(clippy::too_many_arguments)]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn tn_run(
    level: SimdLevel,
    relaxed: bool,
    out: &mut [f32],
    a: &[f32],
    g: &[f32],
    p_off: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    match level {
        SimdLevel::Scalar => super::tn_block_scalar(out, a, g, p_off, m, k, n),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => x86::tn_sse2(relaxed, out, a, g, p_off, m, n),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as for NN — Avx2 implies a successful runtime probe.
        SimdLevel::Avx2 => unsafe { x86::tn_avx2(relaxed, out, a, g, p_off, m, n) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("non-scalar SIMD level on a non-x86-64 build"),
    }
}

/// TN output-row block at the active tier and mode.
pub(super) fn dispatch_tn(
    out: &mut [f32],
    a: &[f32],
    g: &[f32],
    p_off: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    tn_run(
        level_for_width(simd_level(), n),
        relaxed_kernels(),
        out,
        a,
        g,
        p_off,
        m,
        k,
        n,
    );
}

#[cfg(target_arch = "x86_64")]
std::thread_local! {
    /// Per-worker Bᵀ pack buffer for the strict NT kernel, reused across
    /// calls so steady-state training stays allocation-free.
    static NT_PACK: core::cell::RefCell<Vec<f32>> = const { core::cell::RefCell::new(Vec::new()) };
}

/// NT row block at the active tier and mode.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(super) fn dispatch_nt(out: &mut [f32], g: &[f32], b: &[f32], n: usize, kk: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        if relaxed_kernels() {
            // Relaxed NT vectorizes the reduction axis, so clamp on n.
            match level_for_width(simd_level(), n) {
                SimdLevel::Scalar => {}
                SimdLevel::Sse2 => return x86::nt_dot_sse2(out, g, b, n, kk),
                // SAFETY: as for NN — Avx2 implies a successful probe.
                SimdLevel::Avx2 => return unsafe { x86::nt_dot_avx2(out, g, b, n, kk) },
            }
        } else {
            // Strict NT vectorizes the output axis (kk) via a packed
            // transpose; a single-row block cannot amortize the pack.
            // At 128 bits the pack costs as much as it saves (measured
            // ~0.96x vs the autovectorized scalar dot), so the packed
            // path is AVX2-only; SSE2-class hosts run the scalar tier.
            if level_for_width(simd_level(), kk) == SimdLevel::Avx2 && out.len() / kk >= 2 {
                return NT_PACK.with(|cell| {
                    let pack = &mut cell.borrow_mut();
                    // SAFETY: as for NN — Avx2 implies a successful probe.
                    unsafe { x86::nt_avx2(out, g, b, n, kk, pack) }
                });
            }
        }
    }
    super::nt_block_scalar(out, g, b, n, kk);
}

/// The 3×3 conv forward at the active tier: the portable body of the
/// parent module, plain (`L = 4`) on the scalar and sse2 tiers and
/// compiled for avx2 (`L = 8`) on the avx2 tier — the same per-element
/// operation sequence either way, so conv is strict at every tier.
pub(super) fn dispatch_conv3x3_forward(
    out: &mut [f32],
    x: &[f32],
    wgt: &[f32],
    s: &super::ConvShape,
    scratch: &mut crate::arena::ScratchArena,
) {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only produced by a dispatch that observed
        // avx2 via `detected_level()` (see module safety argument).
        SimdLevel::Avx2 => unsafe { x86::conv3x3_forward_avx2(out, x, wgt, s, scratch) },
        _ => super::conv3x3_forward_body::<4>(out, x, wgt, s, scratch),
    }
}

/// The 3×3 conv backward at the active tier (see
/// [`dispatch_conv3x3_forward`]).
pub(super) fn dispatch_conv3x3_backward(
    gx: &mut [f32],
    gw: &mut [f32],
    x: &[f32],
    wgt: &[f32],
    gout: &[f32],
    s: &super::ConvShape,
    scratch: &mut crate::arena::ScratchArena,
) {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as for the forward.
        SimdLevel::Avx2 => unsafe { x86::conv3x3_backward_avx2(gx, gw, x, wgt, gout, s, scratch) },
        _ => super::conv3x3_backward_body::<4>(gx, gw, x, wgt, gout, s, scratch),
    }
}

// ---------------------------------------------------------------------
// Per-level entry points (test/bench A/B surface)
// ---------------------------------------------------------------------

/// `out[m,n] += a[m,k] × b[k,n]` through the kernel of one specific tier
/// and mode, single-threaded, bypassing the global dispatch state — the
/// race-free A/B surface for equivalence tests.
///
/// # Panics
///
/// Panics if `level` is unsupported on this hardware
/// ([`SimdLevel::is_supported`]) or if slice lengths do not match.
#[allow(clippy::too_many_arguments)]
pub fn gemm_nn_at(
    level: SimdLevel,
    mode: KernelMode,
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert!(
        level.is_supported(),
        "SIMD level {:?} unsupported here",
        level
    );
    assert_eq!(a.len(), m * k, "gemm_nn a length");
    assert_eq!(b.len(), k * n, "gemm_nn b length");
    assert_eq!(out.len(), m * n, "gemm_nn out length");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    nn_run(level, mode == KernelMode::Relaxed, out, a, b, k, n);
}

/// `out[m,kk] = g[m,n] × b[kk,n]ᵀ` (fresh write) through one specific
/// tier and mode; see [`gemm_nn_at`].
///
/// # Panics
///
/// Panics if `level` is unsupported or slice lengths do not match.
#[allow(clippy::too_many_arguments)]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub fn gemm_nt_at(
    level: SimdLevel,
    mode: KernelMode,
    out: &mut [f32],
    g: &[f32],
    b: &[f32],
    m: usize,
    n: usize,
    kk: usize,
) {
    assert!(
        level.is_supported(),
        "SIMD level {:?} unsupported here",
        level
    );
    assert_eq!(g.len(), m * n, "gemm_nt g length");
    assert_eq!(b.len(), kk * n, "gemm_nt b length");
    assert_eq!(out.len(), m * kk, "gemm_nt out length");
    if m == 0 || kk == 0 {
        return;
    }
    if n == 0 {
        out.fill(0.0);
        return;
    }
    match level {
        SimdLevel::Scalar => super::nt_block_scalar(out, g, b, n, kk),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => {
            if mode == KernelMode::Relaxed {
                x86::nt_dot_sse2(out, g, b, n, kk);
            } else {
                x86::nt_sse2(out, g, b, n, kk, &mut Vec::new());
            }
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `is_supported` passed above, so avx2+fma were detected.
        SimdLevel::Avx2 => unsafe {
            if mode == KernelMode::Relaxed {
                x86::nt_dot_avx2(out, g, b, n, kk);
            } else {
                x86::nt_avx2(out, g, b, n, kk, &mut Vec::new());
            }
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("is_supported admitted a non-scalar level off x86-64"),
    }
}

/// `out[k,n] += a[m,k]ᵀ × g[m,n]` through one specific tier and mode;
/// see [`gemm_nn_at`].
///
/// # Panics
///
/// Panics if `level` is unsupported or slice lengths do not match.
#[allow(clippy::too_many_arguments)]
pub fn gemm_tn_at(
    level: SimdLevel,
    mode: KernelMode,
    out: &mut [f32],
    a: &[f32],
    g: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert!(
        level.is_supported(),
        "SIMD level {:?} unsupported here",
        level
    );
    assert_eq!(a.len(), m * k, "gemm_tn a length");
    assert_eq!(g.len(), m * n, "gemm_tn g length");
    assert_eq!(out.len(), k * n, "gemm_tn out length");
    if k == 0 || n == 0 || m == 0 {
        return;
    }
    tn_run(level, mode == KernelMode::Relaxed, out, a, g, 0, m, k, n);
}

// ---------------------------------------------------------------------
// x86-64 kernel bodies
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    /// Lane-width abstraction over the x86-64 f32 vector ISAs. The
    /// generic kernel bodies below are written once against this trait
    /// and monomorphized into per-ISA entry functions.
    ///
    /// All methods are `unsafe`: they lower to intrinsics of the
    /// implementor's ISA (callable only when that ISA is active — see
    /// the module safety argument) and take raw pointers the caller must
    /// keep in bounds for `LANES` consecutive `f32`s.
    trait VecF32: Copy {
        /// The register type (`__m128` / `__m256`).
        type V: Copy;
        /// f32 lanes per register.
        const LANES: usize;
        unsafe fn splat(x: f32) -> Self::V;
        unsafe fn zero() -> Self::V;
        unsafe fn loadu(p: *const f32) -> Self::V;
        unsafe fn storeu(p: *mut f32, v: Self::V);
        unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
        unsafe fn mul(a: Self::V, b: Self::V) -> Self::V;
        /// `a·b + acc`, fused where the ISA has FMA (relaxed mode only —
        /// fusion changes rounding; SSE2 falls back to `add(mul(..))`).
        unsafe fn mul_add(a: Self::V, b: Self::V, acc: Self::V) -> Self::V;
        /// Horizontal sum (relaxed mode only — reassociates).
        unsafe fn reduce_add(v: Self::V) -> f32;
    }

    /// 128-bit tier (x86-64 baseline).
    #[derive(Clone, Copy)]
    struct Sse2;

    impl VecF32 for Sse2 {
        type V = __m128;
        const LANES: usize = 4;
        #[inline(always)]
        unsafe fn splat(x: f32) -> __m128 {
            _mm_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn zero() -> __m128 {
            _mm_setzero_ps()
        }
        #[inline(always)]
        unsafe fn loadu(p: *const f32) -> __m128 {
            _mm_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn storeu(p: *mut f32, v: __m128) {
            _mm_storeu_ps(p, v)
        }
        #[inline(always)]
        unsafe fn add(a: __m128, b: __m128) -> __m128 {
            _mm_add_ps(a, b)
        }
        #[inline(always)]
        unsafe fn mul(a: __m128, b: __m128) -> __m128 {
            _mm_mul_ps(a, b)
        }
        #[inline(always)]
        unsafe fn mul_add(a: __m128, b: __m128, acc: __m128) -> __m128 {
            // No FMA in the SSE2 tier; unfused on purpose.
            _mm_add_ps(acc, _mm_mul_ps(a, b))
        }
        #[inline(always)]
        unsafe fn reduce_add(v: __m128) -> f32 {
            hsum128(v)
        }
    }

    /// `(v0+v1) + (v2+v3)` with SSE1/2 shuffles only.
    #[inline(always)]
    unsafe fn hsum128(v: __m128) -> f32 {
        let hi = _mm_movehl_ps(v, v); // [v2, v3, ..]
        let pair = _mm_add_ps(v, hi); // [v0+v2, v1+v3, ..]
        let odd = _mm_shuffle_ps(pair, pair, 0b01); // lane1 → lane0
        _mm_cvtss_f32(_mm_add_ss(pair, odd))
    }

    /// 256-bit tier (runtime-detected `avx2`+`fma`).
    #[derive(Clone, Copy)]
    struct Avx2;

    impl VecF32 for Avx2 {
        type V = __m256;
        const LANES: usize = 8;
        #[inline(always)]
        unsafe fn splat(x: f32) -> __m256 {
            _mm256_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn zero() -> __m256 {
            _mm256_setzero_ps()
        }
        #[inline(always)]
        unsafe fn loadu(p: *const f32) -> __m256 {
            _mm256_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn storeu(p: *mut f32, v: __m256) {
            _mm256_storeu_ps(p, v)
        }
        #[inline(always)]
        unsafe fn add(a: __m256, b: __m256) -> __m256 {
            _mm256_add_ps(a, b)
        }
        #[inline(always)]
        unsafe fn mul(a: __m256, b: __m256) -> __m256 {
            _mm256_mul_ps(a, b)
        }
        #[inline(always)]
        unsafe fn mul_add(a: __m256, b: __m256, acc: __m256) -> __m256 {
            _mm256_fmadd_ps(a, b, acc)
        }
        #[inline(always)]
        unsafe fn reduce_add(v: __m256) -> f32 {
            let lo = _mm256_castps256_ps128(v);
            let hi = _mm256_extractf128_ps(v, 1);
            hsum128(_mm_add_ps(lo, hi))
        }
    }

    // -----------------------------------------------------------------
    // Shared rank-update body (NN and TN)
    // -----------------------------------------------------------------

    /// One output row of the rank update, columns `js`:
    /// `out[j] (chain)+= Σ_t mult[t]·panel[t·n + j]`, chain ascending in
    /// `t` — exactly the reference chain of NN (`t = p`) and TN
    /// (`t = i`), with `±0.0` terms included (bit-safe, module lemma).
    ///
    /// Safety: `orow` must be valid for `js.end` writes, `mrow` for
    /// `red` reads at stride `mstride`, `panel` for `red·n` reads.
    #[inline(always)]
    unsafe fn row_update_v<V: VecF32, const FMA: bool>(
        orow: *mut f32,
        js: core::ops::Range<usize>,
        mrow: *const f32,
        mstride: usize,
        red: usize,
        panel: *const f32,
        n: usize,
    ) {
        let mut j = js.start;
        while j + V::LANES <= js.end {
            let mut acc = V::loadu(orow.add(j));
            for t in 0..red {
                let va = V::splat(*mrow.add(t * mstride));
                let vb = V::loadu(panel.add(t * n + j));
                acc = if FMA {
                    V::mul_add(va, vb, acc)
                } else {
                    V::add(acc, V::mul(va, vb))
                };
            }
            V::storeu(orow.add(j), acc);
            j += V::LANES;
        }
        while j < js.end {
            let mut o = *orow.add(j);
            for t in 0..red {
                let av = *mrow.add(t * mstride);
                o = if FMA {
                    av.mul_add(*panel.add(t * n + j), o)
                } else {
                    o + av * *panel.add(t * n + j)
                };
            }
            *orow.add(j) = o;
            j += 1;
        }
    }

    /// Register-blocked rank update `out[r,j] (chain)+= Σ_t mult[r,t] ·
    /// panel[t,j]` over 4-row × 2-register output tiles. Accumulators
    /// live in registers across the whole reduction, so each element's
    /// chain is one ascending-`t` sequence — the reference chain of both
    /// NN (`mult = a`, `t = p`) and TN (`mult = aᵀ`, `t = i`), with the
    /// scalar kernels' `±0.0` quad-skips simply not taken (bit-safe).
    /// The shared `panel` tile is loaded once per 4 rows, quartering the
    /// memory traffic that bounds the autovectorized scalar kernels.
    ///
    /// `mult[r,t]` is read at `mult + r·m_row + t·m_red`, so the same
    /// body serves NN (`m_row = k, m_red = 1`) and TN (`m_row = 1,
    /// m_red = k`).
    ///
    /// Safety: `out.len()` must be a multiple of `n`; `panel` valid for
    /// `red·n` reads; `mult` valid for reads at every
    /// `r·m_row + t·m_red`, `r < out.len()/n`, `t < red`.
    #[inline(always)]
    unsafe fn mm_block_v<V: VecF32, const FMA: bool>(
        out: &mut [f32],
        n: usize,
        red: usize,
        mult: *const f32,
        m_red: usize,
        m_row: usize,
        panel: *const f32,
    ) {
        let rows = out.len() / n;
        let tile = 2 * V::LANES;
        let mut r = 0;
        while r + 4 <= rows {
            let m0 = mult.add(r * m_row);
            let m1 = mult.add((r + 1) * m_row);
            let m2 = mult.add((r + 2) * m_row);
            let m3 = mult.add((r + 3) * m_row);
            let o0 = out.as_mut_ptr().add(r * n);
            let o1 = o0.add(n);
            let o2 = o1.add(n);
            let o3 = o2.add(n);
            let mut j = 0;
            while j + tile <= n {
                let mut a00 = V::loadu(o0.add(j));
                let mut a01 = V::loadu(o0.add(j + V::LANES));
                let mut a10 = V::loadu(o1.add(j));
                let mut a11 = V::loadu(o1.add(j + V::LANES));
                let mut a20 = V::loadu(o2.add(j));
                let mut a21 = V::loadu(o2.add(j + V::LANES));
                let mut a30 = V::loadu(o3.add(j));
                let mut a31 = V::loadu(o3.add(j + V::LANES));
                for t in 0..red {
                    let pb = panel.add(t * n + j);
                    let b0 = V::loadu(pb);
                    let b1 = V::loadu(pb.add(V::LANES));
                    let v0 = V::splat(*m0.add(t * m_red));
                    let v1 = V::splat(*m1.add(t * m_red));
                    let v2 = V::splat(*m2.add(t * m_red));
                    let v3 = V::splat(*m3.add(t * m_red));
                    if FMA {
                        a00 = V::mul_add(v0, b0, a00);
                        a01 = V::mul_add(v0, b1, a01);
                        a10 = V::mul_add(v1, b0, a10);
                        a11 = V::mul_add(v1, b1, a11);
                        a20 = V::mul_add(v2, b0, a20);
                        a21 = V::mul_add(v2, b1, a21);
                        a30 = V::mul_add(v3, b0, a30);
                        a31 = V::mul_add(v3, b1, a31);
                    } else {
                        a00 = V::add(a00, V::mul(v0, b0));
                        a01 = V::add(a01, V::mul(v0, b1));
                        a10 = V::add(a10, V::mul(v1, b0));
                        a11 = V::add(a11, V::mul(v1, b1));
                        a20 = V::add(a20, V::mul(v2, b0));
                        a21 = V::add(a21, V::mul(v2, b1));
                        a30 = V::add(a30, V::mul(v3, b0));
                        a31 = V::add(a31, V::mul(v3, b1));
                    }
                }
                V::storeu(o0.add(j), a00);
                V::storeu(o0.add(j + V::LANES), a01);
                V::storeu(o1.add(j), a10);
                V::storeu(o1.add(j + V::LANES), a11);
                V::storeu(o2.add(j), a20);
                V::storeu(o2.add(j + V::LANES), a21);
                V::storeu(o3.add(j), a30);
                V::storeu(o3.add(j + V::LANES), a31);
                j += tile;
            }
            if j < n {
                row_update_v::<V, FMA>(o0, j..n, m0, m_red, red, panel, n);
                row_update_v::<V, FMA>(o1, j..n, m1, m_red, red, panel, n);
                row_update_v::<V, FMA>(o2, j..n, m2, m_red, red, panel, n);
                row_update_v::<V, FMA>(o3, j..n, m3, m_red, red, panel, n);
            }
            r += 4;
        }
        while r < rows {
            row_update_v::<V, FMA>(
                out.as_mut_ptr().add(r * n),
                0..n,
                mult.add(r * m_row),
                m_red,
                red,
                panel,
                n,
            );
            r += 1;
        }
    }

    // -----------------------------------------------------------------
    // NT kernels
    // -----------------------------------------------------------------

    /// How many g-columns the strict NT kernel packs (transposes) at a
    /// time; 32 rows of Bᵀ keep the pack L2-resident for any `kk` the
    /// models use.
    const NT_JB: usize = 32;

    /// Strict NT: `out[i,p] = Σ_j g[i,j]·b[p,j]`, chains ascending in
    /// `j`. Vectorizing `j` would split the chain, so instead `b` is
    /// transposed in `NT_JB`-column blocks into `pack` and each `(i,j)`
    /// becomes a vector axpy over the contiguous output axis `p` —
    /// `j`-ascending per element, `gv == 0.0` skipped (bit-safe ±0.0
    /// skip, same as the scalar kernel; `g` is ReLU-sparse in backward).
    ///
    /// Safety: `out.len()` must be a multiple of `kk`; `g` valid for
    /// `rows·n` reads; `b` valid for `kk·n` reads.
    #[inline(always)]
    unsafe fn nt_packed_v<V: VecF32>(
        out: &mut [f32],
        g: &[f32],
        b: &[f32],
        n: usize,
        kk: usize,
        pack: &mut Vec<f32>,
    ) {
        let rows = out.len() / kk;
        out.fill(0.0);
        if pack.len() < NT_JB * kk {
            pack.resize(NT_JB * kk, 0.0);
        }
        let pk = pack.as_mut_ptr();
        let mut j0 = 0;
        while j0 < n {
            let jb = (n - j0).min(NT_JB);
            // pack[jj, p] = b[p, j0+jj]
            for p in 0..kk {
                let bp = b.as_ptr().add(p * n + j0);
                for jj in 0..jb {
                    *pk.add(jj * kk + p) = *bp.add(jj);
                }
            }
            for i in 0..rows {
                let grow = &g[i * n..(i + 1) * n];
                let orow = out.as_mut_ptr().add(i * kk);
                for jj in 0..jb {
                    let gv = grow[j0 + jj];
                    if gv == 0.0 {
                        continue;
                    }
                    let bt = pk.add(jj * kk) as *const f32;
                    let vg = V::splat(gv);
                    let mut p = 0;
                    while p + V::LANES <= kk {
                        let o = V::loadu(orow.add(p));
                        V::storeu(orow.add(p), V::add(o, V::mul(vg, V::loadu(bt.add(p)))));
                        p += V::LANES;
                    }
                    while p < kk {
                        *orow.add(p) += gv * *bt.add(p);
                        p += 1;
                    }
                }
            }
            j0 += jb;
        }
    }

    /// Relaxed NT: plain wide dot products — 4 vector accumulators per
    /// output element, FMA where available, horizontal reduce at the
    /// end. Branchless and fast, but the reduction chain is split across
    /// `4·LANES` partial chains: tolerance-equivalent only.
    ///
    /// Safety: as [`nt_packed_v`].
    #[inline(always)]
    unsafe fn nt_dot_v<V: VecF32>(out: &mut [f32], g: &[f32], b: &[f32], n: usize, kk: usize) {
        let rows = out.len() / kk;
        for i in 0..rows {
            let grow = g.as_ptr().add(i * n);
            let orow = &mut out[i * kk..(i + 1) * kk];
            for (p, o) in orow.iter_mut().enumerate() {
                let brow = b.as_ptr().add(p * n);
                let mut acc0 = V::zero();
                let mut acc1 = V::zero();
                let mut acc2 = V::zero();
                let mut acc3 = V::zero();
                let mut j = 0;
                while j + 4 * V::LANES <= n {
                    acc0 = V::mul_add(V::loadu(grow.add(j)), V::loadu(brow.add(j)), acc0);
                    acc1 = V::mul_add(
                        V::loadu(grow.add(j + V::LANES)),
                        V::loadu(brow.add(j + V::LANES)),
                        acc1,
                    );
                    acc2 = V::mul_add(
                        V::loadu(grow.add(j + 2 * V::LANES)),
                        V::loadu(brow.add(j + 2 * V::LANES)),
                        acc2,
                    );
                    acc3 = V::mul_add(
                        V::loadu(grow.add(j + 3 * V::LANES)),
                        V::loadu(brow.add(j + 3 * V::LANES)),
                        acc3,
                    );
                    j += 4 * V::LANES;
                }
                while j + V::LANES <= n {
                    acc0 = V::mul_add(V::loadu(grow.add(j)), V::loadu(brow.add(j)), acc0);
                    j += V::LANES;
                }
                let mut s = V::reduce_add(V::add(V::add(acc0, acc1), V::add(acc2, acc3)));
                while j < n {
                    s = (*grow.add(j)).mul_add(*brow.add(j), s);
                    j += 1;
                }
                *o = s;
            }
        }
    }

    // -----------------------------------------------------------------
    // Monomorphic entry points
    // -----------------------------------------------------------------
    //
    // SSE2 entries are safe functions: the ISA is unconditionally
    // available on x86-64 and all pointer accesses stay inside the
    // argument slices (kernel safety comments above). AVX2 entries are
    // `unsafe fn` behind `#[target_feature(enable = "avx2,fma")]`; the
    // caller contract for every one of them is the same single line:
    //
    // # Safety: requires runtime-detected `avx2` and `fma` (guaranteed
    // by dispatching through `SimdLevel::Avx2`, which only
    // `detected_level()` can produce).

    pub(super) fn nn_sse2(
        relaxed: bool,
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        k: usize,
        n: usize,
    ) {
        debug_assert!(a.len() >= (out.len() / n) * k && b.len() >= k * n);
        // SAFETY: baseline ISA; bounds per the dimension asserts of the
        // public callers (see mm_block_v safety notes).
        unsafe {
            if relaxed {
                mm_block_v::<Sse2, true>(out, n, k, a.as_ptr(), 1, k, b.as_ptr());
            } else {
                mm_block_v::<Sse2, false>(out, n, k, a.as_ptr(), 1, k, b.as_ptr());
            }
        }
    }

    /// # Safety
    ///
    /// Requires runtime-detected `avx2` and `fma`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn nn_avx2(
        relaxed: bool,
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        k: usize,
        n: usize,
    ) {
        debug_assert!(a.len() >= (out.len() / n) * k && b.len() >= k * n);
        if relaxed {
            mm_block_v::<Avx2, true>(out, n, k, a.as_ptr(), 1, k, b.as_ptr());
        } else {
            mm_block_v::<Avx2, false>(out, n, k, a.as_ptr(), 1, k, b.as_ptr());
        }
    }

    pub(super) fn tn_sse2(
        relaxed: bool,
        out: &mut [f32],
        a: &[f32],
        g: &[f32],
        p_off: usize,
        m: usize,
        n: usize,
    ) {
        let k = a.len() / m.max(1);
        debug_assert!(g.len() >= m * n && a.len() >= m * k);
        // SAFETY: baseline ISA; mult reads hit a[t·k + p_off + r],
        // r < out.len()/n ≤ k − p_off, t < m — inside `a`.
        unsafe {
            if relaxed {
                mm_block_v::<Sse2, true>(out, n, m, a.as_ptr().add(p_off), k, 1, g.as_ptr());
            } else {
                mm_block_v::<Sse2, false>(out, n, m, a.as_ptr().add(p_off), k, 1, g.as_ptr());
            }
        }
    }

    /// # Safety
    ///
    /// Requires runtime-detected `avx2` and `fma`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn tn_avx2(
        relaxed: bool,
        out: &mut [f32],
        a: &[f32],
        g: &[f32],
        p_off: usize,
        m: usize,
        n: usize,
    ) {
        let k = a.len() / m.max(1);
        debug_assert!(g.len() >= m * n && a.len() >= m * k);
        if relaxed {
            mm_block_v::<Avx2, true>(out, n, m, a.as_ptr().add(p_off), k, 1, g.as_ptr());
        } else {
            mm_block_v::<Avx2, false>(out, n, m, a.as_ptr().add(p_off), k, 1, g.as_ptr());
        }
    }

    pub(super) fn nt_sse2(
        out: &mut [f32],
        g: &[f32],
        b: &[f32],
        n: usize,
        kk: usize,
        pack: &mut Vec<f32>,
    ) {
        // SAFETY: baseline ISA; bounds per nt_packed_v's safety notes.
        unsafe { nt_packed_v::<Sse2>(out, g, b, n, kk, pack) }
    }

    /// # Safety
    ///
    /// Requires runtime-detected `avx2` and `fma`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn nt_avx2(
        out: &mut [f32],
        g: &[f32],
        b: &[f32],
        n: usize,
        kk: usize,
        pack: &mut Vec<f32>,
    ) {
        nt_packed_v::<Avx2>(out, g, b, n, kk, pack);
    }

    pub(super) fn nt_dot_sse2(out: &mut [f32], g: &[f32], b: &[f32], n: usize, kk: usize) {
        // SAFETY: baseline ISA; bounds per nt_dot_v's safety notes.
        unsafe { nt_dot_v::<Sse2>(out, g, b, n, kk) }
    }

    /// # Safety
    ///
    /// Requires runtime-detected `avx2` and `fma`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn nt_dot_avx2(out: &mut [f32], g: &[f32], b: &[f32], n: usize, kk: usize) {
        nt_dot_v::<Avx2>(out, g, b, n, kk);
    }

    /// # Safety
    ///
    /// Requires runtime-detected `avx2`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn conv3x3_forward_avx2(
        out: &mut [f32],
        x: &[f32],
        wgt: &[f32],
        s: &super::super::ConvShape,
        scratch: &mut crate::arena::ScratchArena,
    ) {
        super::super::conv3x3_forward_body::<8>(out, x, wgt, s, scratch);
    }

    /// # Safety
    ///
    /// Requires runtime-detected `avx2`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn conv3x3_backward_avx2(
        gx: &mut [f32],
        gw: &mut [f32],
        x: &[f32],
        wgt: &[f32],
        gout: &[f32],
        s: &super::super::ConvShape,
        scratch: &mut crate::arena::ScratchArena,
    ) {
        super::super::conv3x3_backward_body::<8>(gx, gw, x, wgt, gout, s, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(n: usize, seed: u64) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                match s % 7 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => ((s % 2000) as f32 - 1000.0) / 64.0,
                }
            })
            .collect()
    }

    fn supported() -> Vec<SimdLevel> {
        SimdLevel::ALL
            .into_iter()
            .filter(|l| l.is_supported())
            .collect()
    }

    #[test]
    fn level_names_and_parse_roundtrip() {
        for l in SimdLevel::ALL {
            assert_eq!(SimdLevel::parse(l.name()), Some(l));
            assert_eq!(SimdLevel::parse(&l.name().to_uppercase()), Some(l));
        }
        assert_eq!(SimdLevel::parse(" avx2\n"), Some(SimdLevel::Avx2));
        assert_eq!(SimdLevel::parse("avx512"), None);
    }

    #[test]
    fn detection_is_sane() {
        let d = detected_level();
        #[cfg(target_arch = "x86_64")]
        assert!(d >= SimdLevel::Sse2, "SSE2 is the x86-64 baseline");
        assert!(d.is_supported());
        assert!(SimdLevel::Scalar.is_supported());
        // The active level never exceeds the hardware.
        assert!(simd_level() <= d);
        // Memoized probes agree with themselves.
        assert_eq!(detected_level(), d);
    }

    #[test]
    fn relaxed_defaults_off() {
        assert!(
            !relaxed_kernels(),
            "relaxed kernels must be explicit opt-in"
        );
    }

    #[test]
    fn cpu_features_match_detection() {
        let f = cpu_features();
        if detected_level() == SimdLevel::Avx2 {
            assert!(f.contains(&"avx2") && f.contains(&"fma"));
        }
        #[cfg(target_arch = "x86_64")]
        assert!(f.contains(&"sse2"));
    }

    #[test]
    fn tiny_shape_guard_clamps() {
        assert_eq!(level_for_width(SimdLevel::Avx2, 3), SimdLevel::Scalar);
        assert_eq!(level_for_width(SimdLevel::Avx2, 4), SimdLevel::Sse2);
        assert_eq!(level_for_width(SimdLevel::Avx2, 8), SimdLevel::Avx2);
        assert_eq!(level_for_width(SimdLevel::Sse2, 100), SimdLevel::Sse2);
        assert_eq!(level_for_width(SimdLevel::Scalar, 100), SimdLevel::Scalar);
    }

    #[test]
    fn strict_levels_are_bit_identical_on_gemm() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 32, 9),
            (8, 257, 13),
            (5, 300, 33),
            (2, 7, 16),
            (6, 130, 11),
        ] {
            let a = vals(m * k, 21);
            let b = vals(k * n, 22);
            let mut base = vec![0.0f32; m * n];
            gemm_nn_at(
                SimdLevel::Scalar,
                KernelMode::Strict,
                &mut base,
                &a,
                &b,
                m,
                k,
                n,
            );
            for level in supported() {
                let mut out = vec![0.0f32; m * n];
                gemm_nn_at(level, KernelMode::Strict, &mut out, &a, &b, m, k, n);
                assert!(
                    out.iter()
                        .zip(&base)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "nn {level:?} ({m},{k},{n})"
                );
                // NT reuses the same shapes with n as the reduction axis.
                let g = vals(m * n, 23);
                let bt = vals(k * n, 24);
                let mut nt_base = vec![0.0f32; m * k];
                let mut nt_out = vec![0.0f32; m * k];
                gemm_nt_at(
                    SimdLevel::Scalar,
                    KernelMode::Strict,
                    &mut nt_base,
                    &g,
                    &bt,
                    m,
                    n,
                    k,
                );
                gemm_nt_at(level, KernelMode::Strict, &mut nt_out, &g, &bt, m, n, k);
                assert!(
                    nt_out
                        .iter()
                        .zip(&nt_base)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "nt {level:?} ({m},{n},{k})"
                );
                let mut tn_base = vec![0.0f32; k * n];
                let mut tn_out = vec![0.0f32; k * n];
                gemm_tn_at(
                    SimdLevel::Scalar,
                    KernelMode::Strict,
                    &mut tn_base,
                    &a,
                    &g,
                    m,
                    k,
                    n,
                );
                gemm_tn_at(level, KernelMode::Strict, &mut tn_out, &a, &g, m, k, n);
                assert!(
                    tn_out
                        .iter()
                        .zip(&tn_base)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "tn {level:?} ({m},{k},{n})"
                );
            }
        }
    }

    #[test]
    fn relaxed_is_close_to_strict() {
        let (m, k, n) = (5, 300, 17);
        let a = vals(m * k, 41);
        let b = vals(k * n, 42);
        for level in supported() {
            let mut strict = vec![0.0f32; m * n];
            let mut relaxed = vec![0.0f32; m * n];
            gemm_nn_at(level, KernelMode::Strict, &mut strict, &a, &b, m, k, n);
            gemm_nn_at(level, KernelMode::Relaxed, &mut relaxed, &a, &b, m, k, n);
            for (i, (x, y)) in strict.iter().zip(&relaxed).enumerate() {
                let tol = 1e-3 * (1.0 + x.abs());
                assert!((x - y).abs() <= tol, "{level:?} nn[{i}]: {x} vs {y}");
            }
            let g = vals(m * n, 43);
            let mut s2 = vec![0.0f32; m * k];
            let mut r2 = vec![0.0f32; m * k];
            gemm_nt_at(level, KernelMode::Strict, &mut s2, &g, &b[..k * n], m, n, k);
            gemm_nt_at(
                level,
                KernelMode::Relaxed,
                &mut r2,
                &g,
                &b[..k * n],
                m,
                n,
                k,
            );
            for (i, (x, y)) in s2.iter().zip(&r2).enumerate() {
                let tol = 1e-3 * (1.0 + x.abs());
                assert!((x - y).abs() <= tol, "{level:?} nt[{i}]: {x} vs {y}");
            }
        }
    }

    #[test]
    fn set_simd_level_rejects_unsupported_and_roundtrips() {
        let initial = simd_level();
        for level in SimdLevel::ALL {
            if level.is_supported() {
                assert!(set_simd_level(level));
                assert_eq!(simd_level(), level);
            } else {
                assert!(!set_simd_level(level));
            }
        }
        assert!(set_simd_level(initial));
        assert_eq!(simd_level(), initial);
    }
}
