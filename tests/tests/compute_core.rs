//! Property suite for the deterministic parallel compute core
//! (DESIGN.md Contract 9): every fast kernel in `cv_nn::gemm` is
//! **bit-identical** to its retained naive reference for finite inputs,
//! across shapes (empty, 1×N, N×1, non-multiple-of-tile) and at every
//! worker-pool size; and a whole training step is bit-identical whether
//! the graph runs on the compute core or the reference kernels.
//!
//! The SIMD half (DESIGN.md Contract 12): every kernel is bit-identical
//! at every supported `CV_SIMD` level — scalar ↔ avx2 — through the
//! race-free per-level entries, the public dispatch path, and the conv
//! pipeline, at several pool sizes.

use cv_nn::gemm::{self, reference, ConvShape, SimdLevel};
use cv_nn::{GradAccumulator, Graph, ParamStore, ScratchArena, Tensor};
use cv_pool::WorkerPool;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic value mix: magnitudes across several orders, exact
/// zeros of both signs (the zero-skip/±0 contract), and negatives.
fn vals(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).max(1));
    (0..n)
        .map(|_| match rng.gen_range(0..10u32) {
            0 => 0.0,
            1 => -0.0,
            2 => rng.gen_range(-1e-4f32..1e-4),
            3 => rng.gen_range(-1e4f32..1e4),
            _ => rng.gen_range(-4.0f32..4.0),
        })
        .collect()
}

fn assert_bits_eq(fast: &[f32], naive: &[f32], what: &str) {
    assert_eq!(fast.len(), naive.len(), "{what}: length");
    for (i, (a, b)) in fast.iter().zip(naive).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: element {i} diverged ({a} vs {b})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// NN/NT/TN are bit-identical to the naive kernels across shapes,
    /// including degenerate dims and sizes straddling the k-cache block.
    #[test]
    fn gemm_kernels_match_reference_bitwise(dims in (0usize..20, 0usize..300, 0usize..20), seed in 0u64..1_000_000) {
        let (m, k, n) = dims;
        let a = vals(m * k, seed);
        let b = vals(k * n, seed + 1);
        let mut fast = vec![0.0f32; m * n];
        let mut naive = vec![0.0f32; m * n];
        gemm::gemm_nn(&mut fast, &a, &b, m, k, n);
        reference::gemm_nn(&mut naive, &a, &b, m, k, n);
        assert_bits_eq(&fast, &naive, "gemm_nn");

        // NT: g [m,k] × b[n,k]ᵀ → [m,n] (k is the reduction axis here).
        let g = vals(m * k, seed + 2);
        let bt = vals(n * k, seed + 3);
        let mut fast = vec![0.0f32; m * n];
        let mut naive = vec![0.0f32; m * n];
        gemm::gemm_nt(&mut fast, &g, &bt, m, k, n);
        reference::gemm_nt(&mut naive, &g, &bt, m, k, n);
        assert_bits_eq(&fast, &naive, "gemm_nt");

        // TN: a[m,k]ᵀ × g[m,n] → [k,n].
        let g2 = vals(m * n, seed + 4);
        let mut fast = vec![0.0f32; k * n];
        let mut naive = vec![0.0f32; k * n];
        gemm::gemm_tn(&mut fast, &a, &g2, m, k, n);
        reference::gemm_tn(&mut naive, &a, &g2, m, k, n);
        assert_bits_eq(&fast, &naive, "gemm_tn");
    }

    /// Results are independent of the worker-pool size (including the
    /// inline single-thread path) for every kernel.
    #[test]
    fn gemm_results_are_thread_count_independent(dims in (1usize..12, 50usize..300, 1usize..16), seed in 0u64..1_000_000) {
        let (m, k, n) = dims;
        let a = vals(m * k, seed);
        let b = vals(k * n, seed + 1);
        let g = vals(m * n, seed + 2);
        let single = WorkerPool::new(1);
        let mut nn_one = vec![0.0f32; m * n];
        gemm::gemm_nn_with(&single, &mut nn_one, &a, &b, m, k, n);
        let mut tn_one = vec![0.0f32; k * n];
        gemm::gemm_tn_with(&single, &mut tn_one, &a, &g, m, k, n);
        let mut nt_one = vec![0.0f32; m * k];
        gemm::gemm_nt_with(&single, &mut nt_one, &g, &b, m, n, k);
        for threads in [2usize, 3, 5] {
            let pool = WorkerPool::new(threads);
            let mut nn = vec![0.0f32; m * n];
            gemm::gemm_nn_with(&pool, &mut nn, &a, &b, m, k, n);
            assert_bits_eq(&nn, &nn_one, "gemm_nn pool");
            let mut tn = vec![0.0f32; k * n];
            gemm::gemm_tn_with(&pool, &mut tn, &a, &g, m, k, n);
            assert_bits_eq(&tn, &tn_one, "gemm_tn pool");
            let mut nt = vec![0.0f32; m * k];
            gemm::gemm_nt_with(&pool, &mut nt, &g, &b, m, n, k);
            assert_bits_eq(&nt, &nt_one, "gemm_nt pool");
        }
    }

    /// The conv forward and backward (channel-blocked 3×3 kernels,
    /// im2col and the direct loop for other sizes) are bit-identical to
    /// the retained direct kernels across geometries (strides 1–2, pads
    /// 0–2, kernels 1–4, empty batches).
    #[test]
    fn conv_kernels_match_reference_bitwise(
        geom in (0usize..3, 1usize..4, 1usize..9, 1usize..9),
        kern in (1usize..4, 1usize..5, 1usize..3, 0usize..3),
        seed in 0u64..1_000_000,
    ) {
        let (batch, cin, h, w) = geom;
        let (cout, kk, stride, pad) = kern;
        // Geometry must admit at least the output formula (same
        // constraint the graph op enforces implicitly).
        if h + 2 * pad < kk || w + 2 * pad < kk {
            return;
        }
        let s = ConvShape { batch, cin, h, w, cout, kh: kk, kw: kk, stride, pad };
        let x = vals(batch * cin * h * w, seed);
        let wgt = vals(cout * cin * kk * kk, seed + 1);
        let out_len = batch * cout * s.oh() * s.ow();
        let mut scratch = ScratchArena::new();
        let mut fast = vec![0.0f32; out_len];
        let mut naive = vec![0.0f32; out_len];
        gemm::conv2d_forward_into(&mut fast, &x, &wgt, &s, &mut scratch);
        reference::conv2d_forward(&mut naive, &x, &wgt, &s);
        assert_bits_eq(&fast, &naive, "conv2d forward");

        let gout = vals(out_len, seed + 2);
        let (mut gx_f, mut gw_f) = (vec![0.0f32; x.len()], vec![0.0f32; wgt.len()]);
        let (mut gx_n, mut gw_n) = (vec![0.0f32; x.len()], vec![0.0f32; wgt.len()]);
        gemm::conv2d_backward_into(&mut gx_f, &mut gw_f, &x, &wgt, &gout, &s, &mut scratch);
        reference::conv2d_backward(&mut gx_n, &mut gw_n, &x, &wgt, &gout, &s);
        assert_bits_eq(&gx_f, &gx_n, "conv2d backward gx");
        assert_bits_eq(&gw_f, &gw_n, "conv2d backward gw");
    }

    /// 3×3 stride-1/2 geometries with ReLU-like sparse gradients, from
    /// all-zero to dense — the blocked kernels add the zeros the
    /// reference skips.
    #[test]
    fn conv3x3_sparse_gradients_match_reference_bitwise(
        geom in (1usize..3, 1usize..4, 3usize..12, 1usize..3),
        density in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        let (batch, cin, hw_dim, stride) = geom;
        let s = ConvShape {
            batch,
            cin,
            h: hw_dim,
            w: hw_dim,
            cout: 2,
            kh: 3,
            kw: 3,
            stride,
            pad: 1,
        };
        let x = vals(batch * cin * hw_dim * hw_dim, seed);
        let wgt = vals(2 * cin * 9, seed + 1);
        let out_len = batch * 2 * s.oh() * s.ow();
        let mut rng = StdRng::seed_from_u64(seed + 2);
        // density 0: all-zero gradient; 3: fully dense.
        let gout: Vec<f32> = (0..out_len)
            .map(|_| {
                if rng.gen_range(0..3u32) < density as u32 {
                    rng.gen_range(-2.0f32..2.0)
                } else {
                    0.0
                }
            })
            .collect();
        let mut scratch = ScratchArena::new();
        let (mut gx_f, mut gw_f) = (vec![0.0f32; x.len()], vec![0.0f32; wgt.len()]);
        let (mut gx_n, mut gw_n) = (vec![0.0f32; x.len()], vec![0.0f32; wgt.len()]);
        gemm::conv2d_backward_into(&mut gx_f, &mut gw_f, &x, &wgt, &gout, &s, &mut scratch);
        reference::conv2d_backward(&mut gx_n, &mut gw_n, &x, &wgt, &gout, &s);
        assert_bits_eq(&gx_f, &gx_n, "3x3 backward gx");
        assert_bits_eq(&gw_f, &gw_n, "3x3 backward gw");
    }
}

/// Pinned floor: the exact model geometries the width-32 CNN uses.
#[test]
fn model_conv_geometries_match_reference_bitwise() {
    for &(cin, cout, hw_dim, stride) in &[
        (1usize, 6usize, 32usize, 2usize), // encoder conv1
        (6, 12, 16, 2),                    // encoder conv2
        (12, 6, 16, 1),                    // decoder conv1
        (6, 1, 32, 1),                     // decoder conv2
    ] {
        let s = ConvShape {
            batch: 3,
            cin,
            h: hw_dim,
            w: hw_dim,
            cout,
            kh: 3,
            kw: 3,
            stride,
            pad: 1,
        };
        let x = vals(3 * cin * hw_dim * hw_dim, 7);
        let wgt = vals(cout * cin * 9, 8);
        let out_len = 3 * cout * s.oh() * s.ow();
        let gout = vals(out_len, 9);
        let mut scratch = ScratchArena::new();
        let mut fast = vec![0.0f32; out_len];
        let mut naive = vec![0.0f32; out_len];
        gemm::conv2d_forward_into(&mut fast, &x, &wgt, &s, &mut scratch);
        reference::conv2d_forward(&mut naive, &x, &wgt, &s);
        assert_bits_eq(&fast, &naive, "model conv forward");
        let (mut gx_f, mut gw_f) = (vec![0.0f32; x.len()], vec![0.0f32; wgt.len()]);
        let (mut gx_n, mut gw_n) = (vec![0.0f32; x.len()], vec![0.0f32; wgt.len()]);
        gemm::conv2d_backward_into(&mut gx_f, &mut gw_f, &x, &wgt, &gout, &s, &mut scratch);
        reference::conv2d_backward(&mut gx_n, &mut gw_n, &x, &wgt, &gout, &s);
        assert_bits_eq(&gx_f, &gx_n, "model conv backward gx");
        assert_bits_eq(&gw_f, &gw_n, "model conv backward gw");
    }
}

/// A whole CNN training step — graph ops, arena reuse, accumulator —
/// produces bit-identical losses and parameters on the compute core and
/// on the reference kernels (the seed engine). This is the end-to-end
/// statement of Contract 9 the `gemm` bench A/B rides on.
#[test]
fn training_step_is_bit_identical_across_kernel_paths() {
    // Width 26 exercises the crop path for real; width 32 with six
    // channels is the paper CNN's conv geometry.
    training_step_case(26, 4);
    training_step_case(32, 6);
}

fn training_step_case(width: usize, channels: usize) {
    use circuitvae::{CircuitVaeConfig, CircuitVaeModel, Dataset, ModelArch};
    use cv_prefix::{mutate, GridMetrics, PrefixGrid};

    let mut cfg = CircuitVaeConfig::smoke(width);
    cfg.arch = ModelArch::Cnn {
        channels,
        hidden: 32,
    };
    cfg.batch_size = 12;
    cfg.threads = 3;
    let run = |reference: bool| -> (f64, Vec<u8>) {
        gemm::set_reference_kernels(reference);
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        let model = CircuitVaeModel::new(&mut store, &cfg, width, &mut rng);
        let entries: Vec<(PrefixGrid, f64)> = (0..30)
            .map(|_| {
                let g = mutate::random_grid(width, rng.gen_range(0.05..0.4), &mut rng);
                let cost = GridMetrics::of(&g).analytic_proxy();
                (g, cost)
            })
            .collect();
        let mut ds = Dataset::new(width, entries);
        ds.recompute_weights(1e-3, true);
        let loss = circuitvae::train(&model, &mut store, &ds, &cfg, 4, &mut rng);
        gemm::set_reference_kernels(false);
        (loss, store.to_bytes())
    };
    let (loss_ref, params_ref) = run(true);
    let (loss_fast, params_fast) = run(false);
    assert_eq!(
        loss_ref.to_bits(),
        loss_fast.to_bits(),
        "width {width}: training loss must be bit-identical across kernel paths"
    );
    assert_eq!(
        params_ref, params_fast,
        "width {width}: trained parameters must be bit-identical across kernel paths"
    );
}

/// The SIMD levels this host can actually execute (always scalar; avx2
/// only when detected).
fn supported_levels() -> Vec<SimdLevel> {
    SimdLevel::ALL
        .into_iter()
        .filter(|l| l.is_supported())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Contract 12: every SIMD level produces the exact reference bits
    /// for NN/NT/TN, through the per-level entry points
    /// (no global state, so every supported tier is exercised in one
    /// process regardless of `CV_SIMD`).
    #[test]
    fn strict_simd_levels_match_reference_bitwise(
        dims in (0usize..12, 0usize..80, 0usize..24),
        seed in 0u64..1_000_000,
    ) {
        let (m, k, n) = dims;
        let a = vals(m * k, seed);
        let b = vals(k * n, seed + 1);
        let mut want = vec![0.0f32; m * n];
        reference::gemm_nn(&mut want, &a, &b, m, k, n);
        for level in supported_levels() {
            let mut got = vec![0.0f32; m * n];
            gemm::gemm_nn_at(level, &mut got, &a, &b, m, k, n);
            assert_bits_eq(&got, &want, &format!("nn strict {}", level.name()));
        }

        // NT: g [m,k] × b[n,k]ᵀ → [m,n] (k is the reduction axis here).
        let g = vals(m * k, seed + 2);
        let bt = vals(n * k, seed + 3);
        let mut want = vec![0.0f32; m * n];
        reference::gemm_nt(&mut want, &g, &bt, m, k, n);
        for level in supported_levels() {
            let mut got = vec![0.0f32; m * n];
            gemm::gemm_nt_at(level, &mut got, &g, &bt, m, k, n);
            assert_bits_eq(&got, &want, &format!("nt strict {}", level.name()));
        }

        // TN: a[m,k]ᵀ × g[m,n] → [k,n].
        let g2 = vals(m * n, seed + 4);
        let mut want = vec![0.0f32; k * n];
        reference::gemm_tn(&mut want, &a, &g2, m, k, n);
        for level in supported_levels() {
            let mut got = vec![0.0f32; k * n];
            gemm::gemm_tn_at(level, &mut got, &a, &g2, m, k, n);
            assert_bits_eq(&got, &want, &format!("tn strict {}", level.name()));
        }
    }
}

/// Tiny, ragged, and degenerate shapes — 1×N, empty dims, lengths that
/// are not a multiple of any vector width — through the **public**
/// dispatch path at every supported level (`set_simd_level` toggling is
/// bit-harmless: every tier is bit-identical, which is exactly what this
/// proves), including small worker pools.
#[test]
fn tiny_and_ragged_shapes_are_exact_at_every_level() {
    use cv_pool::WorkerPool;
    let entry = gemm::simd_level();
    let shapes: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (1, 7, 1),
        (1, 0, 5),
        (0, 3, 4),
        (1, 3, 31),
        (2, 5, 6),
        (3, 17, 9),
        (4, 8, 5),
        (5, 257, 13),
    ];
    for level in supported_levels() {
        assert!(gemm::set_simd_level(level), "{} unsupported", level.name());
        for &(m, k, n) in shapes {
            let a = vals(m * k, 21);
            let b = vals(k * n, 22);
            let g = vals(m * n, 23);
            let mut fast = vec![0.0f32; m * n];
            let mut naive = vec![0.0f32; m * n];
            gemm::gemm_nn(&mut fast, &a, &b, m, k, n);
            reference::gemm_nn(&mut naive, &a, &b, m, k, n);
            assert_bits_eq(
                &fast,
                &naive,
                &format!("tiny nn {}x{}x{} {}", m, k, n, level.name()),
            );
            let mut fast = vec![0.0f32; m * k];
            let mut naive = vec![0.0f32; m * k];
            gemm::gemm_nt(&mut fast, &g, &b, m, n, k);
            reference::gemm_nt(&mut naive, &g, &b, m, n, k);
            assert_bits_eq(
                &fast,
                &naive,
                &format!("tiny nt {}x{}x{} {}", m, k, n, level.name()),
            );
            let mut fast = vec![0.0f32; k * n];
            let mut naive = vec![0.0f32; k * n];
            gemm::gemm_tn(&mut fast, &a, &g, m, k, n);
            reference::gemm_tn(&mut naive, &a, &g, m, k, n);
            assert_bits_eq(
                &fast,
                &naive,
                &format!("tiny tn {}x{}x{} {}", m, k, n, level.name()),
            );
        }
        // One moderate shape across pool sizes at this level.
        let (m, k, n) = (6, 130, 10);
        let a = vals(m * k, 31);
        let b = vals(k * n, 32);
        let mut want = vec![0.0f32; m * n];
        reference::gemm_nn(&mut want, &a, &b, m, k, n);
        for threads in [1usize, 2, 3] {
            let pool = WorkerPool::new(threads);
            let mut got = vec![0.0f32; m * n];
            gemm::gemm_nn_with(&pool, &mut got, &a, &b, m, k, n);
            assert_bits_eq(
                &got,
                &want,
                &format!("pooled nn {} threads={threads}", level.name()),
            );
        }
    }
    gemm::set_simd_level(entry);
}

/// The channel-blocked 3×3 conv kernels are bit-identical to the direct
/// reference at every supported SIMD level (Contract 12) on the paper
/// CNN's geometries and on widths that end in a ragged lane block.
#[test]
fn conv_is_bit_identical_at_every_simd_level() {
    let entry = gemm::simd_level();
    for level in supported_levels() {
        assert!(gemm::set_simd_level(level), "{} unsupported", level.name());
        for &(batch, cin, cout, hw_dim, stride) in &[
            (2usize, 1usize, 4usize, 9usize, 1usize),
            (1, 3, 2, 12, 2),
            (3, 2, 2, 7, 1),
            // The width-32 paper CNN: encoder conv1/conv2, decoder
            // conv1/conv2.
            (2, 1, 6, 32, 2),
            (2, 6, 12, 16, 2),
            (2, 12, 6, 16, 1),
            (2, 6, 1, 32, 1),
            // Widths that leave a ragged last lane block at every tier.
            (2, 6, 1, 31, 1),
            (2, 1, 6, 31, 2),
            (2, 3, 4, 13, 1),
            (2, 4, 3, 13, 2),
        ] {
            let s = ConvShape {
                batch,
                cin,
                h: hw_dim,
                w: hw_dim,
                cout,
                kh: 3,
                kw: 3,
                stride,
                pad: 1,
            };
            let x = vals(batch * cin * hw_dim * hw_dim, 41);
            let wgt = vals(cout * cin * 9, 42);
            let out_len = batch * cout * s.oh() * s.ow();
            let gout = vals(out_len, 43);
            let mut scratch = cv_nn::ScratchArena::new();
            let mut fast = vec![0.0f32; out_len];
            let mut naive = vec![0.0f32; out_len];
            gemm::conv2d_forward_into(&mut fast, &x, &wgt, &s, &mut scratch);
            reference::conv2d_forward(&mut naive, &x, &wgt, &s);
            assert_bits_eq(&fast, &naive, &format!("conv forward {}", level.name()));
            let (mut gx_f, mut gw_f) = (vec![0.0f32; x.len()], vec![0.0f32; wgt.len()]);
            let (mut gx_n, mut gw_n) = (vec![0.0f32; x.len()], vec![0.0f32; wgt.len()]);
            gemm::conv2d_backward_into(&mut gx_f, &mut gw_f, &x, &wgt, &gout, &s, &mut scratch);
            reference::conv2d_backward(&mut gx_n, &mut gw_n, &x, &wgt, &gout, &s);
            assert_bits_eq(&gx_f, &gx_n, &format!("conv backward gx {}", level.name()));
            assert_bits_eq(&gw_f, &gw_n, &format!("conv backward gw {}", level.name()));
        }
    }
    gemm::set_simd_level(entry);
}

/// The persistent accumulator's merged gradients depend only on the
/// requested chunk count, never on the pool's worker count — and reuse
/// across steps never perturbs bits (each run equals a fresh one-shot).
#[test]
fn grad_accumulator_reuse_and_pool_are_bit_transparent() {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(3);
    let lin = cv_nn::Linear::new(&mut store, 6, 3, &mut rng);
    let forward = |g: &mut Graph, store: &ParamStore, part: &[Vec<f32>]| {
        let rows = part.len();
        let data: Vec<f32> = part.iter().flatten().copied().collect();
        let x = g.input(Tensor::new([rows, 6], data));
        let y = lin.forward(g, store, x);
        let sq = g.mul(y, y);
        g.sum(sq)
    };
    let items: Vec<Vec<f32>> = (0..10)
        .map(|i| (0..6).map(|j| (i * 6 + j) as f32 / 7.0 - 3.0).collect())
        .collect();
    let mut acc = GradAccumulator::new();
    for threads in [1usize, 2, 3, 10] {
        let loss = acc.run(&store, &items, threads, forward);
        let (loss_ref, grads_ref) =
            cv_nn::parallel_grad_accumulate(&store, &items, threads, forward);
        assert_eq!(loss.to_bits(), loss_ref.to_bits(), "threads={threads}");
        for (a, b) in acc.grads().iter().zip(&grads_ref) {
            assert_bits_eq(a.data(), b.data(), "accumulator grads");
        }
    }
}
