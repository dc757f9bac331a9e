//! Explicit-SIMD microkernels for the compute core, runtime-dispatched by
//! CPU capability (DESIGN.md §11, Contract 12).
//!
//! # Tiers and dispatch
//!
//! Kernels come in two tiers — [`SimdLevel::Scalar`] (the portable
//! kernels in the parent module, which the compiler autovectorizes to
//! the target's baseline vector ISA) and [`SimdLevel::Avx2`] (256-bit,
//! requires `avx2`). The active tier is chosen **once per process**: the
//! hardware probe ([`detected_level`], `is_x86_feature_detected!` behind
//! a `OnceLock`) clamped by the `CV_SIMD=scalar|avx2` environment
//! variable (requests above the detected capability are clamped with a
//! warning on stderr — never silently honored). Benches and tests can
//! override in-process with [`set_simd_level`] or bypass the global state
//! entirely through the per-level [`gemm_nn_at`]-family entry points.
//!
//! Dispatch happens per *block call* (one branch on a relaxed atomic
//! load), never inside an inner loop, and shapes whose vectorized axis is
//! narrower than one 256-bit register fall straight to the scalar
//! kernels.
//!
//! # Bit identity (Contract 12)
//!
//! Every kernel preserves the reference accumulation chain of every
//! output element: vector lanes only ever carry *independent* chains,
//! multiplies and adds stay separate (no FMA instruction is emitted
//! anywhere), and zero-skip differences are covered by the ±0.0 lemma of
//! the parent module. The kernels are therefore **bit-identical** to the
//! scalar kernels and to [`super::reference`] at both tiers and every
//! pool size.
//!
//! # Safety argument
//!
//! All `unsafe` is confined to this module and takes exactly two shapes:
//!
//! 1. **ISA availability.** AVX2 kernel bodies live behind
//!    `#[target_feature(enable = "avx2")]` functions that are only
//!    reachable through a [`SimdLevel::Avx2`] dispatch, and that level
//!    is only ever produced by [`detected_level`] observing `avx2` at
//!    runtime ([`set_simd_level`] and the `CV_SIMD` parser refuse
//!    unsupported requests). Every non-x86-64 build compiles to the
//!    scalar tier only.
//! 2. **In-bounds raw-pointer arithmetic.** Kernel bodies use unaligned
//!    vector loads/stores through raw pointers; every access is bounded
//!    by the slice lengths asserted (or guaranteed by the callers'
//!    dimension asserts) before the pointers are formed, and `&mut`
//!    borrow rules guarantee output/input slices never alias.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// One tier of the runtime-dispatched kernel family, ordered by
/// capability (`Scalar < Avx2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum SimdLevel {
    /// The portable kernels of the parent module (compiler-autovectorized
    /// on most targets). Always available.
    Scalar = 0,
    /// 256-bit `std::arch` kernels. Requires runtime-detected `avx2`.
    Avx2 = 1,
}

impl SimdLevel {
    /// Every tier in ascending capability order.
    pub const ALL: [SimdLevel; 2] = [SimdLevel::Scalar, SimdLevel::Avx2];

    /// The lowercase name used by `CV_SIMD`, perf reports, and CI logs.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// Parses a `CV_SIMD` value (case-insensitive, surrounding
    /// whitespace ignored).
    pub fn parse(s: &str) -> Option<SimdLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(SimdLevel::Scalar),
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
            1 => SimdLevel::Avx2,
            _ => unreachable!("invalid SimdLevel encoding {v}"),
        }
    }
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
    if std::arch::is_x86_feature_detected!("avx2") {
        return SimdLevel::Avx2;
    }
    SimdLevel::Scalar
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
                "cv-nn: unrecognized CV_SIMD={req:?} (expected scalar|avx2); using {}",
                detected.name()
            );
            detected
        }
    }
}

/// Overrides the active tier in-process (A/B benchmarking). Returns
/// `false` — and changes nothing — if `level` exceeds the detected
/// hardware capability. Every tier is bit-identical, so flipping the
/// level can only change speed, never bits.
pub fn set_simd_level(level: SimdLevel) -> bool {
    if !level.is_supported() {
        return false;
    }
    ACTIVE.store(level as u8, Ordering::Relaxed);
    true
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
        f
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

/// Tiny-shape guard: a kernel whose vectorized axis holds less than one
/// 256-bit register runs scalar instead — one branch here, none in the
/// inner loops.
fn level_for_width(level: SimdLevel, width: usize) -> SimdLevel {
    if width >= 8 {
        level
    } else {
        SimdLevel::Scalar
    }
}

// ---------------------------------------------------------------------
// Dispatch wrappers (called from the parent module's block kernels)
// ---------------------------------------------------------------------

fn nn_run(level: SimdLevel, out: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
    match level {
        SimdLevel::Scalar => super::nn_block_scalar(out, a, b, k, n),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only produced by a dispatch that observed avx2
        // via `detected_level()` (see module safety argument).
        SimdLevel::Avx2 => unsafe { x86::nn_avx2(out, a, b, k, n) },
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2 => unreachable!("avx2 level on a non-x86-64 build"),
    }
}

/// NN row block at the active tier.
pub(super) fn dispatch_nn(out: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
    nn_run(level_for_width(simd_level(), n), out, a, b, k, n);
}

#[allow(clippy::too_many_arguments)]
fn tn_run(
    level: SimdLevel,
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
        // SAFETY: as for NN — Avx2 implies a successful runtime probe.
        SimdLevel::Avx2 => unsafe { x86::tn_avx2(out, a, g, p_off, m, n) },
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2 => unreachable!("avx2 level on a non-x86-64 build"),
    }
}

/// TN output-row block at the active tier.
pub(super) fn dispatch_tn(
    out: &mut [f32],
    a: &[f32],
    g: &[f32],
    p_off: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    tn_run(level_for_width(simd_level(), n), out, a, g, p_off, m, k, n);
}

#[cfg(target_arch = "x86_64")]
std::thread_local! {
    /// Per-worker Bᵀ pack buffer for the NT kernel, reused across calls
    /// so steady-state training stays allocation-free.
    static NT_PACK: core::cell::RefCell<Vec<f32>> = const { core::cell::RefCell::new(Vec::new()) };
}

/// NT row block at the active tier. The avx2 kernel vectorizes the
/// output axis (kk) via a packed transpose, which a single-row block
/// cannot amortize.
pub(super) fn dispatch_nt(out: &mut [f32], g: &[f32], b: &[f32], n: usize, kk: usize) {
    #[cfg(target_arch = "x86_64")]
    if level_for_width(simd_level(), kk) == SimdLevel::Avx2 && out.len() / kk >= 2 {
        return NT_PACK.with(|cell| {
            let pack = &mut cell.borrow_mut();
            // SAFETY: as for NN — Avx2 implies a successful probe.
            unsafe { x86::nt_avx2(out, g, b, n, kk, pack) }
        });
    }
    super::nt_block_scalar(out, g, b, n, kk);
}

/// The 3×3 conv forward at the active tier: the portable body of the
/// parent module, plain (`L = 4`) on the scalar tier and compiled for
/// avx2 (`L = 8`) on the avx2 tier — the same per-element operation
/// sequence either way.
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

/// `out[m,n] += a[m,k] × b[k,n]` through the kernel of one specific
/// tier, single-threaded, bypassing the global dispatch state — the
/// race-free A/B surface for equivalence tests.
///
/// # Panics
///
/// Panics if `level` is unsupported on this hardware
/// ([`SimdLevel::is_supported`]) or if slice lengths do not match.
pub fn gemm_nn_at(
    level: SimdLevel,
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
    nn_run(level, out, a, b, k, n);
}

/// `out[m,kk] = g[m,n] × b[kk,n]ᵀ` (fresh write) through one specific
/// tier; see [`gemm_nn_at`].
///
/// # Panics
///
/// Panics if `level` is unsupported or slice lengths do not match.
pub fn gemm_nt_at(
    level: SimdLevel,
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
        // SAFETY: `is_supported` passed above, so avx2 was detected.
        SimdLevel::Avx2 => unsafe { x86::nt_avx2(out, g, b, n, kk, &mut Vec::new()) },
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2 => unreachable!("is_supported admitted avx2 off x86-64"),
    }
}

/// `out[k,n] += a[m,k]ᵀ × g[m,n]` through one specific tier; see
/// [`gemm_nn_at`].
///
/// # Panics
///
/// Panics if `level` is unsupported or slice lengths do not match.
pub fn gemm_tn_at(
    level: SimdLevel,
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
    tn_run(level, out, a, g, 0, m, k, n);
}

// ---------------------------------------------------------------------
// x86-64 kernel bodies
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    /// f32 lanes per `__m256` register.
    const LANES: usize = 8;

    // -----------------------------------------------------------------
    // Shared rank-update body (NN and TN)
    // -----------------------------------------------------------------

    /// One output row of the rank update, columns `js`:
    /// `out[j] (chain)+= Σ_t mult[t]·panel[t·n + j]`, chain ascending in
    /// `t` — exactly the reference chain of NN (`t = p`) and TN
    /// (`t = i`), with `±0.0` terms included (bit-safe, module lemma).
    ///
    /// Safety: avx2 must be available; `orow` must be valid for
    /// `js.end` writes, `mrow` for `red` reads at stride `mstride`,
    /// `panel` for `red·n` reads.
    #[inline(always)]
    unsafe fn row_update(
        orow: *mut f32,
        js: core::ops::Range<usize>,
        mrow: *const f32,
        mstride: usize,
        red: usize,
        panel: *const f32,
        n: usize,
    ) {
        let mut j = js.start;
        while j + LANES <= js.end {
            let mut acc = _mm256_loadu_ps(orow.add(j));
            for t in 0..red {
                let va = _mm256_set1_ps(*mrow.add(t * mstride));
                let vb = _mm256_loadu_ps(panel.add(t * n + j));
                acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
            }
            _mm256_storeu_ps(orow.add(j), acc);
            j += LANES;
        }
        while j < js.end {
            let mut o = *orow.add(j);
            for t in 0..red {
                o += *mrow.add(t * mstride) * *panel.add(t * n + j);
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
    /// Safety: avx2 must be available; `out.len()` must be a multiple
    /// of `n`; `panel` valid for `red·n` reads; `mult` valid for reads
    /// at every `r·m_row + t·m_red`, `r < out.len()/n`, `t < red`.
    #[inline(always)]
    unsafe fn mm_block(
        out: &mut [f32],
        n: usize,
        red: usize,
        mult: *const f32,
        m_red: usize,
        m_row: usize,
        panel: *const f32,
    ) {
        let rows = out.len() / n;
        let tile = 2 * LANES;
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
                let mut a00 = _mm256_loadu_ps(o0.add(j));
                let mut a01 = _mm256_loadu_ps(o0.add(j + LANES));
                let mut a10 = _mm256_loadu_ps(o1.add(j));
                let mut a11 = _mm256_loadu_ps(o1.add(j + LANES));
                let mut a20 = _mm256_loadu_ps(o2.add(j));
                let mut a21 = _mm256_loadu_ps(o2.add(j + LANES));
                let mut a30 = _mm256_loadu_ps(o3.add(j));
                let mut a31 = _mm256_loadu_ps(o3.add(j + LANES));
                for t in 0..red {
                    let pb = panel.add(t * n + j);
                    let b0 = _mm256_loadu_ps(pb);
                    let b1 = _mm256_loadu_ps(pb.add(LANES));
                    let v0 = _mm256_set1_ps(*m0.add(t * m_red));
                    let v1 = _mm256_set1_ps(*m1.add(t * m_red));
                    let v2 = _mm256_set1_ps(*m2.add(t * m_red));
                    let v3 = _mm256_set1_ps(*m3.add(t * m_red));
                    a00 = _mm256_add_ps(a00, _mm256_mul_ps(v0, b0));
                    a01 = _mm256_add_ps(a01, _mm256_mul_ps(v0, b1));
                    a10 = _mm256_add_ps(a10, _mm256_mul_ps(v1, b0));
                    a11 = _mm256_add_ps(a11, _mm256_mul_ps(v1, b1));
                    a20 = _mm256_add_ps(a20, _mm256_mul_ps(v2, b0));
                    a21 = _mm256_add_ps(a21, _mm256_mul_ps(v2, b1));
                    a30 = _mm256_add_ps(a30, _mm256_mul_ps(v3, b0));
                    a31 = _mm256_add_ps(a31, _mm256_mul_ps(v3, b1));
                }
                _mm256_storeu_ps(o0.add(j), a00);
                _mm256_storeu_ps(o0.add(j + LANES), a01);
                _mm256_storeu_ps(o1.add(j), a10);
                _mm256_storeu_ps(o1.add(j + LANES), a11);
                _mm256_storeu_ps(o2.add(j), a20);
                _mm256_storeu_ps(o2.add(j + LANES), a21);
                _mm256_storeu_ps(o3.add(j), a30);
                _mm256_storeu_ps(o3.add(j + LANES), a31);
                j += tile;
            }
            if j < n {
                row_update(o0, j..n, m0, m_red, red, panel, n);
                row_update(o1, j..n, m1, m_red, red, panel, n);
                row_update(o2, j..n, m2, m_red, red, panel, n);
                row_update(o3, j..n, m3, m_red, red, panel, n);
            }
            r += 4;
        }
        while r < rows {
            row_update(
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
    // Monomorphic entry points
    // -----------------------------------------------------------------
    //
    // Every entry is an `unsafe fn` behind
    // `#[target_feature(enable = "avx2")]`; the caller contract for each
    // is the same single line:
    //
    // # Safety: requires runtime-detected `avx2` (guaranteed by
    // dispatching through `SimdLevel::Avx2`, which only
    // `detected_level()` can produce).

    /// # Safety
    ///
    /// Requires runtime-detected `avx2`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn nn_avx2(out: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
        debug_assert!(a.len() >= (out.len() / n) * k && b.len() >= k * n);
        mm_block(out, n, k, a.as_ptr(), 1, k, b.as_ptr());
    }

    /// # Safety
    ///
    /// Requires runtime-detected `avx2`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tn_avx2(
        out: &mut [f32],
        a: &[f32],
        g: &[f32],
        p_off: usize,
        m: usize,
        n: usize,
    ) {
        let k = a.len() / m.max(1);
        debug_assert!(g.len() >= m * n && a.len() >= m * k);
        // mult reads hit a[t·k + p_off + r], r < out.len()/n ≤ k − p_off,
        // t < m — inside `a`.
        mm_block(out, n, m, a.as_ptr().add(p_off), k, 1, g.as_ptr());
    }

    /// How many g-columns the NT kernel packs (transposes) at a time; 32
    /// rows of Bᵀ keep the pack L2-resident for any `kk` the models use.
    const NT_JB: usize = 32;

    /// NT: `out[i,p] = Σ_j g[i,j]·b[p,j]`, chains ascending in `j`.
    /// Vectorizing `j` would split the chain, so instead `b` is
    /// transposed in `NT_JB`-column blocks into `pack` and each `(i,j)`
    /// becomes a vector axpy over the contiguous output axis `p` —
    /// `j`-ascending per element, `gv == 0.0` skipped (bit-safe ±0.0
    /// skip, same as the scalar kernel; `g` is ReLU-sparse in backward).
    ///
    /// # Safety
    ///
    /// Requires runtime-detected `avx2`; `out.len()` must be a multiple
    /// of `kk`, `g` valid for `rows·n` reads and `b` for `kk·n` reads.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn nt_avx2(
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
                    let vg = _mm256_set1_ps(gv);
                    let mut p = 0;
                    while p + LANES <= kk {
                        let o = _mm256_loadu_ps(orow.add(p));
                        let prod = _mm256_mul_ps(vg, _mm256_loadu_ps(bt.add(p)));
                        _mm256_storeu_ps(orow.add(p), _mm256_add_ps(o, prod));
                        p += LANES;
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
        assert_eq!(SimdLevel::parse("sse2"), None);
    }

    #[test]
    fn detection_is_sane() {
        let d = detected_level();
        assert!(d.is_supported());
        assert!(SimdLevel::Scalar.is_supported());
        // The active level never exceeds the hardware.
        assert!(simd_level() <= d);
        // Memoized probes agree with themselves.
        assert_eq!(detected_level(), d);
    }

    #[test]
    fn cpu_features_match_detection() {
        let f = cpu_features();
        if detected_level() == SimdLevel::Avx2 {
            assert!(f.contains(&"avx2"));
        }
        #[cfg(target_arch = "x86_64")]
        assert!(f.contains(&"sse2"));
    }

    #[test]
    fn tiny_shape_guard_clamps() {
        for width in 0..8 {
            assert_eq!(level_for_width(SimdLevel::Avx2, width), SimdLevel::Scalar);
        }
        assert_eq!(level_for_width(SimdLevel::Avx2, 8), SimdLevel::Avx2);
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
            gemm_nn_at(SimdLevel::Scalar, &mut base, &a, &b, m, k, n);
            for level in supported() {
                let mut out = vec![0.0f32; m * n];
                gemm_nn_at(level, &mut out, &a, &b, m, k, n);
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
                gemm_nt_at(SimdLevel::Scalar, &mut nt_base, &g, &bt, m, n, k);
                gemm_nt_at(level, &mut nt_out, &g, &bt, m, n, k);
                assert!(
                    nt_out
                        .iter()
                        .zip(&nt_base)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "nt {level:?} ({m},{n},{k})"
                );
                let mut tn_base = vec![0.0f32; k * n];
                let mut tn_out = vec![0.0f32; k * n];
                gemm_tn_at(SimdLevel::Scalar, &mut tn_base, &a, &g, m, k, n);
                gemm_tn_at(level, &mut tn_out, &a, &g, m, k, n);
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
