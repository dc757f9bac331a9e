//! The deterministic parallel compute core: cache-blocked, thread-parallel
//! f32 GEMM kernels plus the convolution kernels.
//!
//! # Bit-exactness contract (DESIGN.md Contract 9)
//!
//! Every fast kernel here produces output **bit-identical** to its naive
//! counterpart in [`mod@reference`] for all finite inputs, at every thread
//! count (including 1). The trick: blocking and parallelism only ever
//! re-tile the *independent* output dimensions; the floating-point
//! accumulation chain of each individual output element keeps exactly
//! the reference order:
//!
//! * `gemm_nn` (`A×B`): element `(i,j)` accumulates over `p = 0..k`
//!   ascending. k-blocks are visited in order and continue the chain in
//!   place; the 4-way unroll fuses four chain links without reassociating
//!   (`(((o+t₀)+t₁)+t₂)+t₃`).
//! * `gemm_nt` (`G×Bᵀ`): element `(i,p)` is a single sequential
//!   reduction over `j = 0..n`; speed comes from running many
//!   *independent* chains (4 columns × 2 rows) through the pipeline at
//!   once, never from splitting one chain.
//! * `gemm_tn` (`Aᵀ×G`): element `(p,j)` accumulates over `i = 0..m`
//!   ascending, same in-place chaining as NN.
//! * convolution: the reference forms a per-input-channel partial in a
//!   register chain and adds per-channel partials in order; the
//!   channel-blocked 3×3 kernels and the im2col path (one small GEMM per
//!   input channel) reproduce that grouping, and the backward kernels
//!   replay the reference's per-element gradient order (see the 3×3
//!   kernel docs). Zero padding contributes explicit `w·(+0.0)` terms
//!   the reference skips — bit-safe because an IEEE-754 accumulation
//!   chain that starts at `+0.0` can never sit at `-0.0` (a sum is
//!   `-0.0` only when both addends are), so adding `±0.0` never changes
//!   the stored bits. The same argument covers the removed `a == 0.0`
//!   zero-skips of the naive matmuls (which defeated vectorization on
//!   dense training data) and the zero gradients the conv backward no
//!   longer skips.
//!
//! Inputs containing NaN/±inf are outside the contract (`0·inf = NaN`).
//!
//! # SIMD tiers (DESIGN.md Contract 12)
//!
//! The scalar block kernels in this file are one tier of a
//! runtime-dispatched family: [`mod@simd`] adds explicit `std::arch`
//! AVX2 microkernels for the same inner loops, selected once per process
//! by CPU capability (overridable with `CV_SIMD=scalar|avx2` or
//! [`set_simd_level`]), and compiles the portable 3×3 conv bodies once
//! more for avx2. Every tier preserves every accumulation chain, so
//! Contract 9 bit-identity holds unchanged at both SIMD levels.

use crate::arena::ScratchArena;
use cv_pool::WorkerPool;
use std::sync::atomic::{AtomicBool, Ordering};

pub mod simd;

pub use simd::{
    cpu_features, detected_level, gemm_nn_at, gemm_nt_at, gemm_tn_at, set_simd_level, simd_level,
    SimdLevel,
};

/// k-dimension cache block: 256 f32 rows of B keep the streamed panel
/// comfortably in L1/L2 while the unrolled inner loops run.
const KC: usize = 256;

/// Below this many flops a dispatch to the pool costs more than the
/// kernel; run single-threaded inline.
const MIN_PAR_FLOPS: usize = 1 << 17;

static FORCE_REFERENCE: AtomicBool = AtomicBool::new(false);

/// Routes the graph's matmul/conv ops through the retained naive
/// [`mod@reference`] kernels instead of the fast ones. **A/B benchmarking
/// and equivalence testing only** — results are bit-identical either
/// way, so flipping this can only make things slower.
pub fn set_reference_kernels(on: bool) {
    FORCE_REFERENCE.store(on, Ordering::Relaxed);
}

/// Whether [`set_reference_kernels`] currently forces the naive path.
pub fn reference_kernels() -> bool {
    FORCE_REFERENCE.load(Ordering::Relaxed)
}

fn par_chunks(pool: &WorkerPool, rows: usize, flops: usize) -> usize {
    if pool.threads() <= 1 || flops < MIN_PAR_FLOPS || WorkerPool::on_worker_thread() {
        1
    } else {
        pool.threads().min(rows.max(1))
    }
}

/// The number of row chunks the fast kernels dispatch for a product
/// with `rows` parallelizable rows and `flops` total flops on `pool` —
/// i.e. the effective parallelism of that timed region (1 when the
/// product is too small to amortize a dispatch). Exposed so perf
/// reporting can record what actually ran instead of the pool size.
pub fn planned_chunks(pool: &WorkerPool, rows: usize, flops: usize) -> usize {
    par_chunks(pool, rows, flops)
}

// ---------------------------------------------------------------------
// NN: out[m,n] += a[m,k] × b[k,n]
// ---------------------------------------------------------------------

/// Row-block inner kernel at the active SIMD tier; chains per element
/// stay in ascending-`p` reference order.
fn nn_block(out: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
    if n == 0 {
        return;
    }
    simd::dispatch_nn(out, a, b, k, n);
}

/// Scalar (autovectorized) tier of [`nn_block`]: accumulates
/// `a_rows × b` into `out_rows`, element chains in ascending-`p` order.
fn nn_block_scalar(out: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
    if n == 0 {
        return;
    }
    let mut p0 = 0;
    while p0 < k {
        let p_end = (p0 + KC).min(k);
        for (orow, arow) in out.chunks_exact_mut(n).zip(a.chunks_exact(k)) {
            let mut p = p0;
            while p + 4 <= p_end {
                let (a0, a1, a2, a3) = (arow[p], arow[p + 1], arow[p + 2], arow[p + 3]);
                // Coarse zero-skip: only when all four chain links vanish
                // (common for post-ReLU activations), so the vectorized
                // inner loop stays branch-free. Skipping `±0.0` adds is
                // bit-safe — see the module contract.
                if a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                    p += 4;
                    continue;
                }
                let b0 = &b[p * n..(p + 1) * n];
                let b1 = &b[(p + 1) * n..(p + 2) * n];
                let b2 = &b[(p + 2) * n..(p + 3) * n];
                let b3 = &b[(p + 3) * n..(p + 4) * n];
                for (j, o) in orow.iter_mut().enumerate() {
                    *o = (((*o + a0 * b0[j]) + a1 * b1[j]) + a2 * b2[j]) + a3 * b3[j];
                }
                p += 4;
            }
            while p < p_end {
                let ap = arow[p];
                if ap == 0.0 {
                    p += 1;
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += ap * bv;
                }
                p += 1;
            }
        }
        p0 = p_end;
    }
}

/// `out[m,n] += a[m,k] × b[k,n]`, parallel over row blocks on `pool`.
/// Pass a zeroed `out` for a plain product. Bit-identical to
/// [`reference::gemm_nn`] (which writes a fresh product) for finite
/// inputs at any thread count.
///
/// # Panics
///
/// Panics if slice lengths do not match the dimensions.
pub fn gemm_nn_with(
    pool: &WorkerPool,
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "gemm_nn a length");
    assert_eq!(b.len(), k * n, "gemm_nn b length");
    assert_eq!(out.len(), m * n, "gemm_nn out length");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let chunks = par_chunks(pool, m, 2 * m * k * n);
    if chunks <= 1 {
        nn_block(out, a, b, k, n);
        return;
    }
    let rows_per = m.div_ceil(chunks);
    pool.scatter(out, rows_per * n, |c, ochunk| {
        let r0 = c * rows_per;
        let rows = ochunk.len() / n;
        nn_block(ochunk, &a[r0 * k..(r0 + rows) * k], b, k, n);
    });
}

/// [`gemm_nn_with`] on the process-global pool.
pub fn gemm_nn(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    gemm_nn_with(WorkerPool::global(), out, a, b, m, k, n);
}

// ---------------------------------------------------------------------
// NT: out[m,kk] = g[m,n] × b[kk,n]ᵀ
// ---------------------------------------------------------------------

/// One output row of NT: `o[p] = Σ_j grow[j]·b[p,j]`, each chain
/// sequential in `j`, four independent chains in flight.
fn nt_row(orow: &mut [f32], grow: &[f32], b: &[f32], n: usize, kk: usize) {
    let mut p = 0;
    while p + 4 <= kk {
        let b0 = &b[p * n..(p + 1) * n];
        let b1 = &b[(p + 1) * n..(p + 2) * n];
        let b2 = &b[(p + 2) * n..(p + 3) * n];
        let b3 = &b[(p + 3) * n..(p + 4) * n];
        let (mut s0, mut s1, mut s2, mut s3) = (0f32, 0f32, 0f32, 0f32);
        for (j, &gv) in grow.iter().enumerate() {
            if gv == 0.0 {
                continue; // bit-safe ±0.0 skip; g is ReLU-sparse in backward
            }
            s0 += gv * b0[j];
            s1 += gv * b1[j];
            s2 += gv * b2[j];
            s3 += gv * b3[j];
        }
        orow[p] = s0;
        orow[p + 1] = s1;
        orow[p + 2] = s2;
        orow[p + 3] = s3;
        p += 4;
    }
    while p < kk {
        let brow = &b[p * n..(p + 1) * n];
        let mut s = 0f32;
        for (&gv, &bv) in grow.iter().zip(brow) {
            if gv == 0.0 {
                continue;
            }
            s += gv * bv;
        }
        orow[p] = s;
        p += 1;
    }
}

/// Two output rows of NT at once (eight independent chains).
fn nt_rows2(
    o0: &mut [f32],
    o1: &mut [f32],
    g0: &[f32],
    g1: &[f32],
    b: &[f32],
    n: usize,
    kk: usize,
) {
    let mut p = 0;
    while p + 4 <= kk {
        let b0 = &b[p * n..(p + 1) * n];
        let b1 = &b[(p + 1) * n..(p + 2) * n];
        let b2 = &b[(p + 2) * n..(p + 3) * n];
        let b3 = &b[(p + 3) * n..(p + 4) * n];
        let (mut s00, mut s01, mut s02, mut s03) = (0f32, 0f32, 0f32, 0f32);
        let (mut s10, mut s11, mut s12, mut s13) = (0f32, 0f32, 0f32, 0f32);
        for j in 0..n {
            let (x0, x1) = (g0[j], g1[j]);
            if x0 == 0.0 && x1 == 0.0 {
                continue;
            }
            s00 += x0 * b0[j];
            s01 += x0 * b1[j];
            s02 += x0 * b2[j];
            s03 += x0 * b3[j];
            s10 += x1 * b0[j];
            s11 += x1 * b1[j];
            s12 += x1 * b2[j];
            s13 += x1 * b3[j];
        }
        o0[p] = s00;
        o0[p + 1] = s01;
        o0[p + 2] = s02;
        o0[p + 3] = s03;
        o1[p] = s10;
        o1[p + 1] = s11;
        o1[p + 2] = s12;
        o1[p + 3] = s13;
        p += 4;
    }
    while p < kk {
        let brow = &b[p * n..(p + 1) * n];
        let (mut s0, mut s1) = (0f32, 0f32);
        for (j, &bv) in brow.iter().enumerate() {
            let (x0, x1) = (g0[j], g1[j]);
            if x0 == 0.0 && x1 == 0.0 {
                continue;
            }
            s0 += x0 * bv;
            s1 += x1 * bv;
        }
        o0[p] = s0;
        o1[p] = s1;
        p += 1;
    }
}

/// NT row-block kernel at the active SIMD tier.
fn nt_block(out: &mut [f32], g: &[f32], b: &[f32], n: usize, kk: usize) {
    if kk == 0 {
        return;
    }
    simd::dispatch_nt(out, g, b, n, kk);
}

/// Scalar (autovectorized) tier of [`nt_block`].
fn nt_block_scalar(out: &mut [f32], g: &[f32], b: &[f32], n: usize, kk: usize) {
    if kk == 0 {
        return;
    }
    let rows = out.len() / kk;
    let mut i = 0;
    while i + 2 <= rows {
        let (head, tail) = out[i * kk..].split_at_mut(kk);
        nt_rows2(
            head,
            &mut tail[..kk],
            &g[i * n..(i + 1) * n],
            &g[(i + 1) * n..(i + 2) * n],
            b,
            n,
            kk,
        );
        i += 2;
    }
    if i < rows {
        nt_row(
            &mut out[i * kk..(i + 1) * kk],
            &g[i * n..(i + 1) * n],
            b,
            n,
            kk,
        );
    }
}

/// `out[m,kk] = g[m,n] × b[kk,n]ᵀ` (fresh write), parallel over row
/// blocks on `pool`. Bit-identical to [`reference::gemm_nt`] at any
/// thread count.
///
/// # Panics
///
/// Panics if slice lengths do not match the dimensions.
pub fn gemm_nt_with(
    pool: &WorkerPool,
    out: &mut [f32],
    g: &[f32],
    b: &[f32],
    m: usize,
    n: usize,
    kk: usize,
) {
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
    let chunks = par_chunks(pool, m, 2 * m * n * kk);
    if chunks <= 1 {
        nt_block(out, g, b, n, kk);
        return;
    }
    let rows_per = m.div_ceil(chunks);
    pool.scatter(out, rows_per * kk, |c, ochunk| {
        let r0 = c * rows_per;
        let rows = ochunk.len() / kk;
        nt_block(ochunk, &g[r0 * n..(r0 + rows) * n], b, n, kk);
    });
}

/// [`gemm_nt_with`] on the process-global pool.
pub fn gemm_nt(out: &mut [f32], g: &[f32], b: &[f32], m: usize, n: usize, kk: usize) {
    gemm_nt_with(WorkerPool::global(), out, g, b, m, n, kk);
}

// ---------------------------------------------------------------------
// TN: out[k,n] += a[m,k]ᵀ × g[m,n]
// ---------------------------------------------------------------------

/// TN inner kernel at the active SIMD tier: `out` covers
/// output rows `p_off..p_off + out.len()/n`.
fn tn_block(out: &mut [f32], a: &[f32], g: &[f32], p_off: usize, m: usize, k: usize, n: usize) {
    if n == 0 {
        return;
    }
    simd::dispatch_tn(out, a, g, p_off, m, k, n);
}

/// Scalar (autovectorized) tier of [`tn_block`]; element chains ascend
/// over `i = 0..m` (four fused links per pass).
fn tn_block_scalar(
    out: &mut [f32],
    a: &[f32],
    g: &[f32],
    p_off: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    if n == 0 {
        return;
    }
    let mut i = 0;
    while i + 8 <= m {
        let g0 = &g[i * n..(i + 1) * n];
        let g1 = &g[(i + 1) * n..(i + 2) * n];
        let g2 = &g[(i + 2) * n..(i + 3) * n];
        let g3 = &g[(i + 3) * n..(i + 4) * n];
        let g4 = &g[(i + 4) * n..(i + 5) * n];
        let g5 = &g[(i + 5) * n..(i + 6) * n];
        let g6 = &g[(i + 6) * n..(i + 7) * n];
        let g7 = &g[(i + 7) * n..(i + 8) * n];
        for (pi, orow) in out.chunks_exact_mut(n).enumerate() {
            let p = p_off + pi;
            let (a0, a1, a2, a3, a4, a5, a6, a7) = (
                a[i * k + p],
                a[(i + 1) * k + p],
                a[(i + 2) * k + p],
                a[(i + 3) * k + p],
                a[(i + 4) * k + p],
                a[(i + 5) * k + p],
                a[(i + 6) * k + p],
                a[(i + 7) * k + p],
            );
            if a0 == 0.0
                && a1 == 0.0
                && a2 == 0.0
                && a3 == 0.0
                && a4 == 0.0
                && a5 == 0.0
                && a6 == 0.0
                && a7 == 0.0
            {
                continue;
            }
            for (j, o) in orow.iter_mut().enumerate() {
                *o = (((((((*o + a0 * g0[j]) + a1 * g1[j]) + a2 * g2[j]) + a3 * g3[j])
                    + a4 * g4[j])
                    + a5 * g5[j])
                    + a6 * g6[j])
                    + a7 * g7[j];
            }
        }
        i += 8;
    }
    while i + 4 <= m {
        let g0 = &g[i * n..(i + 1) * n];
        let g1 = &g[(i + 1) * n..(i + 2) * n];
        let g2 = &g[(i + 2) * n..(i + 3) * n];
        let g3 = &g[(i + 3) * n..(i + 4) * n];
        for (pi, orow) in out.chunks_exact_mut(n).enumerate() {
            let p = p_off + pi;
            let (a0, a1, a2, a3) = (
                a[i * k + p],
                a[(i + 1) * k + p],
                a[(i + 2) * k + p],
                a[(i + 3) * k + p],
            );
            // Coarse zero-skip (bit-safe ±0.0 adds, see module contract):
            // post-ReLU activation columns are often dead across the
            // whole batch quad.
            if a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                continue;
            }
            for (j, o) in orow.iter_mut().enumerate() {
                *o = (((*o + a0 * g0[j]) + a1 * g1[j]) + a2 * g2[j]) + a3 * g3[j];
            }
        }
        i += 4;
    }
    while i < m {
        let grow = &g[i * n..(i + 1) * n];
        for (pi, orow) in out.chunks_exact_mut(n).enumerate() {
            let ap = a[i * k + p_off + pi];
            if ap == 0.0 {
                continue;
            }
            for (o, &gv) in orow.iter_mut().zip(grow) {
                *o += ap * gv;
            }
        }
        i += 1;
    }
}

/// `out[k,n] += a[m,k]ᵀ × g[m,n]`, parallel over output-row blocks on
/// `pool`. Pass a zeroed `out` for a plain product. Bit-identical to
/// [`reference::gemm_tn`] for finite inputs at any thread count.
///
/// # Panics
///
/// Panics if slice lengths do not match the dimensions.
pub fn gemm_tn_with(
    pool: &WorkerPool,
    out: &mut [f32],
    a: &[f32],
    g: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "gemm_tn a length");
    assert_eq!(g.len(), m * n, "gemm_tn g length");
    assert_eq!(out.len(), k * n, "gemm_tn out length");
    if k == 0 || n == 0 || m == 0 {
        return;
    }
    let chunks = par_chunks(pool, k, 2 * m * k * n);
    if chunks <= 1 {
        tn_block(out, a, g, 0, m, k, n);
        return;
    }
    let rows_per = k.div_ceil(chunks);
    pool.scatter(out, rows_per * n, |c, ochunk| {
        tn_block(ochunk, a, g, c * rows_per, m, k, n);
    });
}

/// [`gemm_tn_with`] on the process-global pool.
pub fn gemm_tn(out: &mut [f32], a: &[f32], g: &[f32], m: usize, k: usize, n: usize) {
    gemm_tn_with(WorkerPool::global(), out, a, g, m, k, n);
}

// ---------------------------------------------------------------------
// Convolution lowering
// ---------------------------------------------------------------------

/// The geometry of one 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Batch size.
    pub batch: usize,
    /// Input channels.
    pub cin: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Output channels.
    pub cout: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (both axes).
    pub stride: usize,
    /// Zero padding (both axes).
    pub pad: usize,
}

impl ConvShape {
    /// Builds the geometry from `x [b,cin,h,w]` and `w [cout,cin,kh,kw]`
    /// shapes.
    ///
    /// # Panics
    ///
    /// Panics on non-4-D shapes or a channel mismatch.
    pub fn from_shapes(sx: &[usize], sw: &[usize], stride: usize, pad: usize) -> Self {
        assert!(sx.len() == 4 && sw.len() == 4, "conv2d expects 4-D tensors");
        assert_eq!(sx[1], sw[1], "conv2d channel mismatch");
        ConvShape {
            batch: sx[0],
            cin: sx[1],
            h: sx[2],
            w: sx[3],
            cout: sw[0],
            kh: sw[2],
            kw: sw[3],
            stride,
            pad,
        }
    }

    /// Output height.
    pub fn oh(&self) -> usize {
        (self.h + 2 * self.pad - self.kh) / self.stride + 1
    }

    /// Output width.
    pub fn ow(&self) -> usize {
        (self.w + 2 * self.pad - self.kw) / self.stride + 1
    }
}

/// Fills `cols` (`cin·kh·kw × oh·ow`, row `r = (ci·kh + ki)·kw + kj`,
/// column `j = oi·ow + oj`) from one batch item's input plane, writing
/// explicit zeros where the padded window leaves the image.
fn im2col(x: &[f32], cols: &mut [f32], s: &ConvShape) {
    let (oh, ow) = (s.oh(), s.ow());
    let ohow = oh * ow;
    for ci in 0..s.cin {
        let xc = &x[ci * s.h * s.w..][..s.h * s.w];
        for ki in 0..s.kh {
            for kj in 0..s.kw {
                let r = (ci * s.kh + ki) * s.kw + kj;
                let row = &mut cols[r * ohow..][..ohow];
                for oi in 0..oh {
                    let ii = (oi * s.stride + ki) as isize - s.pad as isize;
                    let dst = &mut row[oi * ow..][..ow];
                    if ii < 0 || ii >= s.h as isize {
                        dst.fill(0.0);
                        continue;
                    }
                    let xrow = &xc[ii as usize * s.w..][..s.w];
                    for (oj, d) in dst.iter_mut().enumerate() {
                        let jj = (oj * s.stride + kj) as isize - s.pad as isize;
                        *d = if jj < 0 || jj >= s.w as isize {
                            0.0
                        } else {
                            xrow[jj as usize]
                        };
                    }
                }
            }
        }
    }
}

/// Forward convolution, writing into a zeroed `out`
/// (`batch·cout·oh·ow`). Scratch buffers are borrowed from (and
/// returned to) `scratch`. Bit-identical to
/// [`reference::conv2d_forward`] for finite inputs.
///
/// 3×3 kernels (every model here) run the channel-blocked direct kernel
/// (`conv3x3_forward_body`); other kernel sizes go through im2col +
/// one small GEMM per input channel. Both keep the reference's
/// per-input-channel register chain (`(ki, kj)` ascending) and
/// channel-ordered partial adds.
pub fn conv2d_forward_into(
    out: &mut [f32],
    x: &[f32],
    wgt: &[f32],
    s: &ConvShape,
    scratch: &mut ScratchArena,
) {
    let (oh, ow) = (s.oh(), s.ow());
    let (ohow, khkw) = (oh * ow, s.kh * s.kw);
    debug_assert_eq!(out.len(), s.batch * s.cout * ohow);
    if out.is_empty() || x.is_empty() {
        return;
    }
    if s.kh == 3 && s.kw == 3 {
        simd::dispatch_conv3x3_forward(out, x, wgt, s, scratch);
        return;
    }
    let mut cols = scratch.take_zeroed(s.cin * khkw * ohow);
    // Weights packed per input channel: wpack[ci][co][kh·kw].
    let mut wpack = scratch.take_empty(s.cin * s.cout * khkw);
    for ci in 0..s.cin {
        for co in 0..s.cout {
            wpack.extend_from_slice(&wgt[(co * s.cin + ci) * khkw..][..khkw]);
        }
    }
    let mut part = scratch.take_zeroed(s.cout * ohow);
    for bi in 0..s.batch {
        im2col(
            &x[bi * s.cin * s.h * s.w..][..s.cin * s.h * s.w],
            &mut cols,
            s,
        );
        let obi = &mut out[bi * s.cout * ohow..][..s.cout * ohow];
        for ci in 0..s.cin {
            part.fill(0.0);
            nn_block(
                &mut part,
                &wpack[ci * s.cout * khkw..][..s.cout * khkw],
                &cols[ci * khkw * ohow..][..khkw * ohow],
                khkw,
                ohow,
            );
            for (o, &pv) in obi.iter_mut().zip(&part) {
                *o += pv;
            }
        }
    }
    scratch.give(cols);
    scratch.give(wpack);
    scratch.give(part);
}

/// Backward convolution: writes the input gradient into a zeroed `gx`
/// and the weight gradient into a zeroed `gw`. Bit-identical to
/// [`reference::conv2d_backward`] for finite inputs.
///
/// 3×3 kernels with pad ≤ 2 (every model here) run the channel-blocked
/// kernels (`conv3x3_backward_body`). Other shapes take a fused direct
/// loop that keeps the reference's `g == 0` skip, with the per-multiply
/// bounds checks hoisted into valid kernel intervals per output
/// position and the input-channel loop inside the gradient-zero test.
/// Legal because `ci` is part of every touched element's identity (gx
/// plane, gw slice): for any fixed element the contribution order is
/// still the reference's `(co, oi, oj, ki, kj)` (gx) and `(bi, oi, oj)`
/// (gw).
pub fn conv2d_backward_into(
    gx: &mut [f32],
    gw: &mut [f32],
    x: &[f32],
    wgt: &[f32],
    gout: &[f32],
    s: &ConvShape,
    scratch: &mut ScratchArena,
) {
    let (oh, ow) = (s.oh(), s.ow());
    let (ohow, khkw) = (oh * ow, s.kh * s.kw);
    let hw = s.h * s.w;
    debug_assert_eq!(gx.len(), s.batch * s.cin * hw);
    debug_assert_eq!(gw.len(), s.cout * s.cin * khkw);
    debug_assert_eq!(gout.len(), s.batch * s.cout * ohow);
    if gout.is_empty() || x.is_empty() {
        return;
    }
    if s.kh == 3 && s.kw == 3 && s.pad <= 2 {
        simd::dispatch_conv3x3_backward(gx, gw, x, wgt, gout, s, scratch);
        return;
    }
    for bi in 0..s.batch {
        let xb = &x[bi * s.cin * hw..][..s.cin * hw];
        let gxb = &mut gx[bi * s.cin * hw..][..s.cin * hw];
        for co in 0..s.cout {
            let gsl = &gout[(bi * s.cout + co) * ohow..][..ohow];
            let wco = &wgt[co * s.cin * khkw..][..s.cin * khkw];
            let gwco = &mut gw[co * s.cin * khkw..][..s.cin * khkw];
            for oi in 0..oh {
                let base_i = (oi * s.stride) as isize - s.pad as isize;
                let ki_lo = ((-base_i).max(0) as usize).min(s.kh);
                let ki_hi = ((s.h as isize - base_i).max(0) as usize).min(s.kh);
                if ki_lo >= ki_hi {
                    continue;
                }
                for oj in 0..ow {
                    let g = gsl[oi * ow + oj];
                    if g == 0.0 {
                        continue;
                    }
                    let base_j = (oj * s.stride) as isize - s.pad as isize;
                    let kj_lo = ((-base_j).max(0) as usize).min(s.kw);
                    let kj_hi = ((s.w as isize - base_j).max(0) as usize).min(s.kw);
                    if kj_lo >= kj_hi {
                        continue;
                    }
                    let span = kj_hi - kj_lo;
                    for ci in 0..s.cin {
                        let xc = &xb[ci * hw..][..hw];
                        let gxc = &mut gxb[ci * hw..][..hw];
                        let wsl = &wco[ci * khkw..][..khkw];
                        let gwsl = &mut gwco[ci * khkw..][..khkw];
                        for ki in ki_lo..ki_hi {
                            let ii = (base_i + ki as isize) as usize;
                            let jj0 = (base_j + kj_lo as isize) as usize;
                            let gxrow = &mut gxc[ii * s.w + jj0..][..span];
                            let xrow = &xc[ii * s.w + jj0..][..span];
                            let wrow = &wsl[ki * s.kw + kj_lo..][..span];
                            let gwrow = &mut gwsl[ki * s.kw + kj_lo..][..span];
                            for q in 0..span {
                                gxrow[q] += g * wrow[q];
                                gwrow[q] += g * xrow[q];
                            }
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Channel-blocked 3×3 kernels
// ---------------------------------------------------------------------
//
// One portable body per pass, generic over the lane-block width `L`;
// `simd` instantiates each plainly (`L = 4`, the scalar tier)
// and once more inside an `avx2` target-feature function (`L = 8`). The
// bodies only ever run lane-wise `+` and `·` on independent chains — no
// intrinsics, no FMA, no reassociation — so every output element gets
// the same IEEE operation sequence at every tier. Reads come from
// zero-padded copies of the planes, so padding contributes explicit
// `±0.0` terms the reference skips: bit-safe by the ±0 lemma (module
// docs), because every chain they join starts at `+0.0` or is added to
// one that does.

/// The `L` lanes of `s` starting at `at`.
#[inline(always)]
fn lanes<const L: usize>(s: &[f32], at: usize) -> [f32; L] {
    s[at..at + L].try_into().expect("lane block in bounds")
}

/// `dst[k] = src[k·step]` for every `k` that has a source.
#[inline(always)]
fn gather_strided(dst: &mut [f32], src: &[f32], step: usize) {
    if step == 1 {
        dst[..src.len()].copy_from_slice(src);
    } else {
        for (d, v) in dst.iter_mut().zip(src.chunks(step)) {
            *d = v[0];
        }
    }
}

/// `dst[k·step] = src[k]` for every `k`.
#[inline(always)]
fn scatter_strided(dst: &mut [f32], src: &[f32], step: usize) {
    if step == 1 {
        dst[..src.len()].copy_from_slice(src);
    } else {
        for (d, &v) in dst.chunks_mut(step).zip(src) {
            d[0] = v;
        }
    }
}

/// Below this many output channels the forward hoists each `(co, ci)`
/// weight set and streams the taps; from it on, one loaded input window
/// feeds every output channel.
const FWD_WINDOW_MIN_COUT: usize = 2;

/// One lane block of a `(co, ci)` forward partial: taps chained in
/// `(ki, kj)` order. The first tap is written, not added to `+0.0`: the
/// partial can then hold `-0.0` where the reference holds `+0.0`, which
/// `out += part` (a chain that is never `-0.0`) cannot observe.
#[inline(always)]
fn chain9<const L: usize>(x: impl Fn(usize) -> [f32; L], w: impl Fn(usize) -> f32) -> [f32; L] {
    let x0 = x(0);
    let w0 = w(0);
    let mut part = [0f32; L];
    for l in 0..L {
        part[l] = x0[l] * w0;
    }
    for t in 1..9 {
        let (xt, wt) = (x(t), w(t));
        for l in 0..L {
            part[l] += xt[l] * wt;
        }
    }
    part
}

/// 3×3 forward (any stride and padding).
///
/// Each input channel is copied into a zero-padded plane whose columns
/// are split into `stride` phases, so every tap of an output row block
/// is one contiguous `L`-lane load. An output block's nine-tap input
/// window is loaded once and feeds every output channel (a lone output
/// channel instead keeps its nine weights in registers and streams the
/// taps): the `(co, ci)` partial is chained in `(ki, kj)` order — the
/// reference's register chain — and then added to the output in `ci`
/// order.
#[inline(always)]
fn conv3x3_forward_body<const L: usize>(
    out: &mut [f32],
    x: &[f32],
    wgt: &[f32],
    s: &ConvShape,
    scratch: &mut ScratchArena,
) {
    let (oh, ow, st) = (s.oh(), s.ow(), s.stride);
    let owp = ow.next_multiple_of(L);
    // Phase-row length: covers every tap of the last lane block and
    // every column of the padded input.
    let wq = (owp + 2 / st).max((s.w + 2 * s.pad).div_ceil(st));
    let rowlen = st * wq;
    let plane = (s.h + 2 * s.pad) * rowlen;
    let mut toff = [0usize; 9];
    for (t, off) in toff.iter_mut().enumerate() {
        let (ki, kj) = (t / 3, t % 3);
        *off = ki * rowlen + (kj % st) * wq + kj / st;
    }
    // Borders are written once (zeros) and never touched again; each
    // item overwrites only the interior.
    let mut xph = scratch.take_zeroed(s.cin * plane);
    let mut acc = scratch.take_zeroed(s.cout * oh * owp);
    for bi in 0..s.batch {
        for ci in 0..s.cin {
            let src = &x[(bi * s.cin + ci) * s.h * s.w..][..s.h * s.w];
            let dst = &mut xph[ci * plane..][..plane];
            for (i, srow) in src.chunks_exact(s.w).enumerate() {
                let drow = &mut dst[(i + s.pad) * rowlen..][..rowlen];
                // Padded column `jp = j + pad` lands in phase `jp % st`,
                // slot `jp / st`.
                for q in 0..st {
                    let j0 = (q + st - s.pad % st) % st;
                    let src = srow.get(j0..).unwrap_or_default();
                    gather_strided(&mut drow[q * wq + (j0 + s.pad) / st..], src, st);
                }
            }
        }
        acc.fill(0.0);
        for ci in 0..s.cin {
            let xc = &xph[ci * plane..][..plane];
            if s.cout >= FWD_WINDOW_MIN_COUT {
                for oi in 0..oh {
                    let xr = &xc[oi * st * rowlen..];
                    let taps: [&[f32]; 9] = std::array::from_fn(|t| &xr[toff[t]..][..owp]);
                    for jb in (0..owp).step_by(L) {
                        let win: [[f32; L]; 9] = std::array::from_fn(|t| lanes(taps[t], jb));
                        for co in 0..s.cout {
                            let w9 = &wgt[(co * s.cin + ci) * 9..][..9];
                            let part = chain9(|t| win[t], |t| w9[t]);
                            let o = &mut acc[(co * oh + oi) * owp + jb..][..L];
                            for l in 0..L {
                                o[l] += part[l];
                            }
                        }
                    }
                }
                continue;
            }
            for co in 0..s.cout {
                let wv: [f32; 9] = lanes(wgt, (co * s.cin + ci) * 9);
                for oi in 0..oh {
                    let xr = &xc[oi * st * rowlen..];
                    let taps: [&[f32]; 9] = std::array::from_fn(|t| &xr[toff[t]..][..owp]);
                    let orow = &mut acc[(co * oh + oi) * owp..][..owp];
                    for jb in (0..owp).step_by(L) {
                        let part: [f32; L] = chain9(|t| lanes(taps[t], jb), |t| wv[t]);
                        let o = &mut orow[jb..][..L];
                        for l in 0..L {
                            o[l] += part[l];
                        }
                    }
                }
            }
        }
        let obi = &mut out[bi * s.cout * oh * ow..][..s.cout * oh * ow];
        for (orow, arow) in obi.chunks_exact_mut(ow).zip(acc.chunks_exact(owp)) {
            orow.copy_from_slice(&arow[..ow]);
        }
    }
    scratch.give(xph);
    scratch.give(acc);
}

/// 3×3 backward (pad ≤ 2, any stride): [`conv3x3_gx_window`] for the
/// input gradient, then [`conv3x3_gw_lanes`] for the weight gradient.
#[inline(always)]
fn conv3x3_backward_body<const L: usize>(
    gx: &mut [f32],
    gw: &mut [f32],
    x: &[f32],
    wgt: &[f32],
    gout: &[f32],
    s: &ConvShape,
    scratch: &mut ScratchArena,
) {
    conv3x3_gx_window::<L>(gx, wgt, gout, s, scratch);
    conv3x3_gw_lanes::<L>(gw, x, gout, s, scratch);
}

/// Input gradient, one stride phase at a time. Write `ii = st·I + r`
/// and `jj = st·J + c`: within phase `(r, c)`, only the taps `(ki, kj)`
/// with `st | r + pad − ki` and `st | c + pad − kj` reach `gx[ii, jj]`,
/// from `g[co, I + dI, J + dJ]` with `dI = (r + pad − ki) / st`, `dJ`
/// alike — a small stride-1 correlation of the output gradient (one
/// phase of nine taps at stride 1; 1, 2, 2 and 4 taps at stride 2). The
/// gradient planes are padded by two so every shifted block is one
/// contiguous load, and a loaded window feeds every input channel. Per
/// `gx` element the chain runs `co` outermost, then taps in descending
/// `(ki, kj)` order — the reference's `(co, oi, oj)` order — with zero
/// gradients and padding as explicit `±0.0` terms.
#[inline(always)]
fn conv3x3_gx_window<const L: usize>(
    gx: &mut [f32],
    wgt: &[f32],
    gout: &[f32],
    s: &ConvShape,
    scratch: &mut ScratchArena,
) {
    let (oh, ow, st) = (s.oh(), s.ow(), s.stride);
    let (hr, wrp) = (s.h.div_ceil(st), s.w.div_ceil(st).next_multiple_of(L));
    let gcols = wrp.max(ow) + 4;
    let gplane = (hr.max(oh) + 4) * gcols;
    // Borders stay zero; each item rewrites only the interior.
    let mut gp = scratch.take_zeroed(s.cout * gplane);
    let mut acc = scratch.take_zeroed(s.cin * hr * wrp);
    // A phase's weights in its tap order: wtab[co][ci][t].
    let mut wtab = scratch.take_zeroed(s.cout * s.cin * 9);
    let (h, w) = (s.h, s.w);
    for bi in 0..s.batch {
        for co in 0..s.cout {
            let src = &gout[(bi * s.cout + co) * oh * ow..][..oh * ow];
            let dst = &mut gp[co * gplane..][..gplane];
            for (i, srow) in src.chunks_exact(ow).enumerate() {
                dst[(i + 2) * gcols + 2..][..ow].copy_from_slice(srow);
            }
        }
        let gxb = &mut gx[bi * s.cin * h * w..][..s.cin * h * w];
        for r in 0..st.min(h) {
            for c in 0..st.min(w) {
                // The gp offset and weight index of each lattice tap.
                let (mut offs, mut kidx) = ([0usize; 9], [0usize; 9]);
                let mut nt = 0;
                for ki in (0..3).rev() {
                    for kj in (0..3).rev() {
                        let di = (r + s.pad) as isize - ki as isize;
                        let dj = (c + s.pad) as isize - kj as isize;
                        let st_i = st as isize;
                        if di.rem_euclid(st_i) == 0 && dj.rem_euclid(st_i) == 0 {
                            let row = (di.div_euclid(st_i) + 2) as usize;
                            let col = (dj.div_euclid(st_i) + 2) as usize;
                            (offs[nt], kidx[nt]) = (row * gcols + col, ki * 3 + kj);
                            nt += 1;
                        }
                    }
                }
                if nt == 0 {
                    continue;
                }
                for (wt, w9) in wtab.chunks_exact_mut(nt).zip(wgt.chunks_exact(9)) {
                    for (d, &k) in wt.iter_mut().zip(&kidx[..nt]) {
                        *d = w9[k];
                    }
                }
                let (ni, nj) = ((h - r).div_ceil(st), (w - c).div_ceil(st));
                let acc = &mut acc[..s.cin * ni * wrp];
                acc.fill(0.0);
                let wt = &wtab[..s.cout * s.cin * nt];
                match nt {
                    1 => conv3x3_gx_phase::<L, 1>(acc, &gp, wt, &offs, ni, wrp, gcols, s),
                    2 => conv3x3_gx_phase::<L, 2>(acc, &gp, wt, &offs, ni, wrp, gcols, s),
                    4 => conv3x3_gx_phase::<L, 4>(acc, &gp, wt, &offs, ni, wrp, gcols, s),
                    9 => conv3x3_gx_phase::<L, 9>(acc, &gp, wt, &offs, ni, wrp, gcols, s),
                    _ => unreachable!("a 3×3 stride phase has 0, 1, 2, 4 or 9 taps"),
                }
                for (ci, gxc) in gxb.chunks_exact_mut(h * w).enumerate() {
                    for (i, arow) in acc[ci * ni * wrp..][..ni * wrp]
                        .chunks_exact(wrp)
                        .enumerate()
                    {
                        scatter_strided(&mut gxc[(st * i + r) * w + c..], &arow[..nj], st);
                    }
                }
            }
        }
    }
    scratch.give(gp);
    scratch.give(acc);
    scratch.give(wtab);
}

/// One stride phase of [`conv3x3_gx_window`]: `acc[ci, I, J]` (rows of
/// `wrp`) accumulates its `NT` lattice taps — gradient-plane offsets
/// `offs`, weights `wtab[co][ci][t]` — for every output channel.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn conv3x3_gx_phase<const L: usize, const NT: usize>(
    acc: &mut [f32],
    gp: &[f32],
    wtab: &[f32],
    offs: &[usize; 9],
    ni: usize,
    wrp: usize,
    gcols: usize,
    s: &ConvShape,
) {
    let gplane = gp.len() / s.cout;
    for (co, gc) in gp.chunks_exact(gplane).enumerate() {
        for i in 0..ni {
            let gr = &gc[i * gcols..];
            let tap: [&[f32]; NT] = std::array::from_fn(|t| &gr[offs[t]..][..wrp]);
            for jb in (0..wrp).step_by(L) {
                let win: [[f32; L]; NT] = std::array::from_fn(|t| lanes(tap[t], jb));
                for ci in 0..s.cin {
                    let wt = &wtab[(co * s.cin + ci) * NT..][..NT];
                    let o = &mut acc[(ci * ni + i) * wrp + jb..][..L];
                    let mut v: [f32; L] = lanes(o, 0);
                    for t in 0..NT {
                        for l in 0..L {
                            v[l] += win[t][l] * wt[t];
                        }
                    }
                    o.copy_from_slice(&v);
                }
            }
        }
    }
}

/// Weight gradient (any stride). The input is copied channels-last into
/// a zero-padded plane, so the `(kj, ci)` taps of one kernel row at one
/// output position are `3·cin` contiguous floats: the lanes of that
/// kernel row's weight-gradient chains, padded to whole lane blocks.
/// [`conv3x3_gw_pass`] holds a few blocks of all three kernel rows in
/// registers and advances them in `(bi, oi, oj)` order, the
/// reference's, with zero gradients and padding as explicit `±0.0`
/// terms.
#[inline(always)]
fn conv3x3_gw_lanes<const L: usize>(
    gw: &mut [f32],
    x: &[f32],
    gout: &[f32],
    s: &ConvShape,
    scratch: &mut ScratchArena,
) {
    let (oh, ow, cin) = (s.oh(), s.ow(), s.cin);
    // One block per kernel row when it holds all `3·cin` lanes, three
    // otherwise (a pass then carries nine register accumulators).
    let blocks = if 3 * cin <= L { 1 } else { 3 };
    let np = (3 * cin).next_multiple_of(blocks * L);
    let rowlen = (s.w + 2 * s.pad) * cin;
    // Slack past the last row for the padded lanes of the last window.
    let mut xcl = scratch.take_zeroed((s.h + 2 * s.pad) * rowlen + np);
    // accw[co][ki][kj·cin + ci], `np` lanes per kernel row.
    let mut accw = scratch.take_zeroed(s.cout * 3 * np);
    for bi in 0..s.batch {
        let xb = &x[bi * cin * s.h * s.w..][..cin * s.h * s.w];
        for (ci, xc) in xb.chunks_exact(s.h * s.w).enumerate() {
            for (i, xrow) in xc.chunks_exact(s.w).enumerate() {
                scatter_strided(
                    &mut xcl[(i + s.pad) * rowlen + s.pad * cin + ci..],
                    xrow,
                    cin,
                );
            }
        }
        for co in 0..s.cout {
            let gpl = &gout[(bi * s.cout + co) * oh * ow..][..oh * ow];
            let aw = &mut accw[co * 3 * np..][..3 * np];
            for b0 in (0..np).step_by(blocks * L) {
                if blocks == 1 {
                    conv3x3_gw_pass::<L, 1>(aw, b0, np, &xcl, rowlen, gpl, s);
                } else {
                    conv3x3_gw_pass::<L, 3>(aw, b0, np, &xcl, rowlen, gpl, s);
                }
            }
        }
    }
    for co in 0..s.cout {
        for ci in 0..cin {
            for t in 0..9 {
                gw[(co * cin + ci) * 9 + t] = accw[(co * 3 + t / 3) * np + (t % 3) * cin + ci];
            }
        }
    }
    scratch.give(xcl);
    scratch.give(accw);
}

/// One [`conv3x3_gw_lanes`] pass over one item's output positions: the
/// lanes `b0..b0 + B·L` of each kernel row's chains (`aw` rows of `np`)
/// advance by `g · x` in `(oi, oj)` order. Position `oj`'s lanes of
/// kernel row `ki` start `oj·stride·cin` into that row's slice of the
/// channels-last plane `xcl`.
#[inline(always)]
fn conv3x3_gw_pass<const L: usize, const B: usize>(
    aw: &mut [f32],
    b0: usize,
    np: usize,
    xcl: &[f32],
    rowlen: usize,
    gpl: &[f32],
    s: &ConvShape,
) {
    let (ow, step) = (s.ow(), s.stride * s.cin);
    let mut acc = [[[0f32; L]; B]; 3];
    for (ki, a) in acc.iter_mut().enumerate() {
        for (ab, src) in a
            .iter_mut()
            .zip(aw[ki * np + b0..][..B * L].chunks_exact(L))
        {
            ab.copy_from_slice(src);
        }
    }
    let len = (ow - 1) * step + B * L;
    for (oi, grow) in gpl.chunks_exact(ow).enumerate() {
        let [w0, w1, w2]: [_; 3] = std::array::from_fn(|ki| {
            xcl[(oi * s.stride + ki) * rowlen + b0..][..len]
                .windows(B * L)
                .step_by(step)
        });
        for (((&g, x0), x1), x2) in grow.iter().zip(w0).zip(w1).zip(w2) {
            for (a, xs) in acc.iter_mut().zip([x0, x1, x2]) {
                for (b, ab) in a.iter_mut().enumerate() {
                    let xv: [f32; L] = lanes(xs, b * L);
                    for l in 0..L {
                        ab[l] += g * xv[l];
                    }
                }
            }
        }
    }
    for (ki, a) in acc.iter().enumerate() {
        for (ab, dst) in a
            .iter()
            .zip(aw[ki * np + b0..][..B * L].chunks_exact_mut(L))
        {
            dst.copy_from_slice(ab);
        }
    }
}

/// The retained naive kernels — the bit-exactness reference for every
/// fast path in this module, moved verbatim from the original
/// `graph.rs` implementations (zero-skips and all).
pub mod reference {
    use super::ConvShape;

    /// Naive `out[m,n] = a[m,k] × b[k,n]` with the historical
    /// `a == 0.0` zero-skip.
    pub fn gemm_nn(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for p in 0..k {
                let aip = a[i * k + p];
                if aip == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += aip * bv;
                }
            }
        }
    }

    /// Naive `out[m,kk] = g[m,n] × b[kk,n]ᵀ` (sequential dot products).
    pub fn gemm_nt(out: &mut [f32], g: &[f32], b: &[f32], m: usize, n: usize, kk: usize) {
        for i in 0..m {
            for p in 0..kk {
                let mut acc = 0.0;
                let grow = &g[i * n..(i + 1) * n];
                let brow = &b[p * n..(p + 1) * n];
                for (gv, bv) in grow.iter().zip(brow) {
                    acc += gv * bv;
                }
                out[i * kk + p] = acc;
            }
        }
    }

    /// Naive `out[k,n] = a[m,k]ᵀ × g[m,n]` with the historical
    /// `a == 0.0` zero-skip.
    pub fn gemm_tn(out: &mut [f32], a: &[f32], g: &[f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for p in 0..k {
                let aip = a[i * k + p];
                if aip == 0.0 {
                    continue;
                }
                let grow = &g[i * n..(i + 1) * n];
                let orow = &mut out[p * n..(p + 1) * n];
                for (o, &gv) in orow.iter_mut().zip(grow) {
                    *o += aip * gv;
                }
            }
        }
    }

    /// Naive direct convolution forward (into a zeroed `out`).
    pub fn conv2d_forward(out: &mut [f32], x: &[f32], wgt: &[f32], s: &ConvShape) {
        let (oh, ow) = (s.oh(), s.ow());
        for bi in 0..s.batch {
            for co in 0..s.cout {
                let obase = (bi * s.cout + co) * oh * ow;
                for ci in 0..s.cin {
                    let xbase = (bi * s.cin + ci) * s.h * s.w;
                    let wbase = (co * s.cin + ci) * s.kh * s.kw;
                    for oi in 0..oh {
                        for oj in 0..ow {
                            let mut acc = 0.0f32;
                            for ki in 0..s.kh {
                                let ii = (oi * s.stride + ki) as isize - s.pad as isize;
                                if ii < 0 || ii >= s.h as isize {
                                    continue;
                                }
                                for kj in 0..s.kw {
                                    let jj = (oj * s.stride + kj) as isize - s.pad as isize;
                                    if jj < 0 || jj >= s.w as isize {
                                        continue;
                                    }
                                    acc += x[xbase + ii as usize * s.w + jj as usize]
                                        * wgt[wbase + ki * s.kw + kj];
                                }
                            }
                            out[obase + oi * ow + oj] += acc;
                        }
                    }
                }
            }
        }
    }

    /// Naive direct convolution backward (into zeroed `gx`/`gw`).
    pub fn conv2d_backward(
        gx: &mut [f32],
        gw: &mut [f32],
        x: &[f32],
        wgt: &[f32],
        gout: &[f32],
        s: &ConvShape,
    ) {
        let (oh, ow) = (s.oh(), s.ow());
        for bi in 0..s.batch {
            for co in 0..s.cout {
                let obase = (bi * s.cout + co) * oh * ow;
                for ci in 0..s.cin {
                    let xbase = (bi * s.cin + ci) * s.h * s.w;
                    let wbase = (co * s.cin + ci) * s.kh * s.kw;
                    for oi in 0..oh {
                        for oj in 0..ow {
                            let g = gout[obase + oi * ow + oj];
                            if g == 0.0 {
                                continue;
                            }
                            for ki in 0..s.kh {
                                let ii = (oi * s.stride + ki) as isize - s.pad as isize;
                                if ii < 0 || ii >= s.h as isize {
                                    continue;
                                }
                                for kj in 0..s.kw {
                                    let jj = (oj * s.stride + kj) as isize - s.pad as isize;
                                    if jj < 0 || jj >= s.w as isize {
                                        continue;
                                    }
                                    let xi = xbase + ii as usize * s.w + jj as usize;
                                    let wi = wbase + ki * s.kw + kj;
                                    gx[xi] += g * wgt[wi];
                                    gw[wi] += g * x[xi];
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(n: usize, seed: u64) -> Vec<f32> {
        // Deterministic mix of magnitudes, zeros, and signs.
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

    #[test]
    fn nn_matches_reference_bitwise() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 32, 9),
            (8, 257, 13),
            (5, 0, 4),
            (0, 3, 3),
        ] {
            let a = vals(m * k, 1);
            let b = vals(k * n, 2);
            let mut fast = vec![0.0f32; m * n];
            let mut naive = vec![0.0f32; m * n];
            gemm_nn(&mut fast, &a, &b, m, k, n);
            reference::gemm_nn(&mut naive, &a, &b, m, k, n);
            assert!(
                fast.iter()
                    .zip(&naive)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "({m},{k},{n})"
            );
        }
    }

    #[test]
    fn nt_matches_reference_bitwise() {
        for &(m, n, kk) in &[(1, 1, 1), (2, 9, 5), (7, 33, 4), (3, 0, 6), (6, 130, 11)] {
            let g = vals(m * n, 3);
            let b = vals(kk * n, 4);
            let mut fast = vec![0.0f32; m * kk];
            let mut naive = vec![0.0f32; m * kk];
            gemm_nt(&mut fast, &g, &b, m, n, kk);
            reference::gemm_nt(&mut naive, &g, &b, m, n, kk);
            assert!(
                fast.iter()
                    .zip(&naive)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "({m},{n},{kk})"
            );
        }
    }

    #[test]
    fn tn_matches_reference_bitwise() {
        for &(m, k, n) in &[(1, 1, 1), (5, 3, 8), (33, 7, 6), (0, 4, 4), (9, 12, 259)] {
            let a = vals(m * k, 5);
            let g = vals(m * n, 6);
            let mut fast = vec![0.0f32; k * n];
            let mut naive = vec![0.0f32; k * n];
            gemm_tn(&mut fast, &a, &g, m, k, n);
            reference::gemm_tn(&mut naive, &a, &g, m, k, n);
            assert!(
                fast.iter()
                    .zip(&naive)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "({m},{k},{n})"
            );
        }
    }

    #[test]
    fn conv_forward_and_backward_match_reference_bitwise() {
        for &(b, cin, h, w, cout, kk, stride, pad) in &[
            (1, 1, 5, 5, 2, 3, 1, 1),
            (2, 3, 8, 7, 4, 3, 2, 1),
            (1, 2, 4, 9, 3, 2, 2, 0),
            (3, 1, 1, 1, 1, 1, 1, 0),
            (2, 2, 6, 6, 2, 3, 1, 0),
        ] {
            let s = ConvShape {
                batch: b,
                cin,
                h,
                w,
                cout,
                kh: kk,
                kw: kk,
                stride,
                pad,
            };
            let x = vals(b * cin * h * w, 7);
            let wgt = vals(cout * cin * kk * kk, 8);
            let out_len = b * cout * s.oh() * s.ow();
            let mut scratch = ScratchArena::new();
            let mut fast = vec![0.0f32; out_len];
            let mut naive = vec![0.0f32; out_len];
            conv2d_forward_into(&mut fast, &x, &wgt, &s, &mut scratch);
            reference::conv2d_forward(&mut naive, &x, &wgt, &s);
            assert!(
                fast.iter()
                    .zip(&naive)
                    .all(|(p, q)| p.to_bits() == q.to_bits()),
                "fwd {s:?}"
            );
            let gout = vals(out_len, 9);
            let (mut gx, mut gw) = (vec![0.0f32; x.len()], vec![0.0f32; wgt.len()]);
            let (mut gx_r, mut gw_r) = (vec![0.0f32; x.len()], vec![0.0f32; wgt.len()]);
            conv2d_backward_into(&mut gx, &mut gw, &x, &wgt, &gout, &s, &mut scratch);
            reference::conv2d_backward(&mut gx_r, &mut gw_r, &x, &wgt, &gout, &s);
            assert!(
                gx.iter()
                    .zip(&gx_r)
                    .all(|(p, q)| p.to_bits() == q.to_bits()),
                "gx {s:?}"
            );
            assert!(
                gw.iter()
                    .zip(&gw_r)
                    .all(|(p, q)| p.to_bits() == q.to_bits()),
                "gw {s:?}"
            );
        }
    }

    #[test]
    fn results_are_thread_count_independent() {
        let (m, k, n) = (13, 310, 17);
        let a = vals(m * k, 10);
        let b = vals(k * n, 11);
        let mut one = vec![0.0f32; m * n];
        gemm_nn_with(&WorkerPool::new(1), &mut one, &a, &b, m, k, n);
        for threads in [2, 3, 5] {
            let pool = WorkerPool::new(threads);
            let mut out = vec![0.0f32; m * n];
            gemm_nn_with(&pool, &mut out, &a, &b, m, k, n);
            assert!(
                out.iter()
                    .zip(&one)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn reference_flag_roundtrips() {
        assert!(!reference_kernels());
        set_reference_kernels(true);
        assert!(reference_kernels());
        set_reference_kernels(false);
        assert!(!reference_kernels());
    }
}
