//! Compute-core benchmarks: GEMM kernels and the width-32 VAE training
//! step — every A/B measured against the retained naive reference
//! kernels.
//!
//! Beyond timing, this bench *gates* the tentpole claims (outside
//! `--test` smoke mode):
//! * every fast-kernel result is bit-for-bit equal to its naive
//!   reference (checked in smoke mode too);
//! * the width-32 training step must be ≥3× faster on the compute core;
//! * on AVX2 hosts the SIMD GEMM headline must be ≥2× over the scalar
//!   tier (loudly skipped elsewhere, never silently).
//!
//! All measurements are folded into `results/bench_perf.json` through
//! `cv_bench::perf` (schema-checked by the `perf_schema` binary), so CI
//! accumulates a machine-readable perf trajectory.

use circuitvae::{train, CircuitVaeConfig, CircuitVaeModel, Dataset, ModelArch};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use cv_bench::perf::{
    AbPerf, GemmPerf, PerfReport, ScalePoint, ScalingCurve, SimdLevelPerf, SimdScaling,
    SimdShapePerf,
};
use cv_cells::nangate45_like;
use cv_nn::gemm::SimdLevel;
use cv_nn::{gemm, ParamStore};
use cv_pool::WorkerPool;
use cv_prefix::{mutate, topologies, CircuitKind, GridMetrics, PrefixGrid};
use cv_synth::{CostParams, EvalSession, SynthesisFlow};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

const WIDTH: usize = 32;

/// Thread counts of the scaling curves.
const SCALE_THREADS: [usize; 5] = [1, 2, 4, 8, 16];

fn cpu_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn report() -> &'static Mutex<PerfReport> {
    static REPORT: OnceLock<Mutex<PerfReport>> = OnceLock::new();
    REPORT.get_or_init(|| {
        Mutex::new(PerfReport {
            pool_threads: WorkerPool::global().threads(),
            cpu_cores: cpu_cores(),
            simd_level: gemm::simd_level().name().to_string(),
            cpu_features: gemm::cpu_features().iter().map(|f| f.to_string()).collect(),
            ..PerfReport::default()
        })
    })
}

fn smoke() -> bool {
    std::env::args().any(|a| a == "--test")
}

fn reps() -> usize {
    if smoke() {
        1
    } else {
        5
    }
}

fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn dense(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            // Training-data-like density: mostly nonzero, some zeros.
            if rng.gen_range(0..8) == 0 {
                0.0
            } else {
                rng.gen_range(-1.0f32..1.0)
            }
        })
        .collect()
}

/// Times `f` over `reps` runs and returns the median in milliseconds.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(times)
}

/// One GEMM shape A/B: returns the perf record after asserting the
/// fast kernel is bit-identical to the reference.
fn gemm_ab(op: &str, m: usize, k: usize, n: usize) -> GemmPerf {
    let reps = reps();
    let (naive_ms, fast_ms) = match op {
        "nn" => {
            let a = dense(m * k, 1);
            let b = dense(k * n, 2);
            let mut fast = vec![0.0f32; m * n];
            let mut naive = vec![0.0f32; m * n];
            gemm::gemm_nn(&mut fast, &a, &b, m, k, n);
            gemm::reference::gemm_nn(&mut naive, &a, &b, m, k, n);
            assert!(
                fast.iter()
                    .zip(&naive)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "nn diverged from reference"
            );
            (
                time_ms(reps, || {
                    let mut out = vec![0.0f32; m * n];
                    gemm::reference::gemm_nn(&mut out, &a, &b, m, k, n);
                    black_box(out);
                }),
                time_ms(reps, || {
                    let mut out = vec![0.0f32; m * n];
                    gemm::gemm_nn(&mut out, &a, &b, m, k, n);
                    black_box(out);
                }),
            )
        }
        "nt" => {
            // g [m,n] × b[k,n]ᵀ → [m,k]: the backward-to-inputs product.
            let g = dense(m * n, 3);
            let b = dense(k * n, 4);
            let mut fast = vec![0.0f32; m * k];
            let mut naive = vec![0.0f32; m * k];
            gemm::gemm_nt(&mut fast, &g, &b, m, n, k);
            gemm::reference::gemm_nt(&mut naive, &g, &b, m, n, k);
            assert!(
                fast.iter()
                    .zip(&naive)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "nt diverged from reference"
            );
            (
                time_ms(reps, || {
                    let mut out = vec![0.0f32; m * k];
                    gemm::reference::gemm_nt(&mut out, &g, &b, m, n, k);
                    black_box(out);
                }),
                time_ms(reps, || {
                    let mut out = vec![0.0f32; m * k];
                    gemm::gemm_nt(&mut out, &g, &b, m, n, k);
                    black_box(out);
                }),
            )
        }
        "tn" => {
            let a = dense(m * k, 5);
            let g = dense(m * n, 6);
            let mut fast = vec![0.0f32; k * n];
            let mut naive = vec![0.0f32; k * n];
            gemm::gemm_tn(&mut fast, &a, &g, m, k, n);
            gemm::reference::gemm_tn(&mut naive, &a, &g, m, k, n);
            assert!(
                fast.iter()
                    .zip(&naive)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "tn diverged from reference"
            );
            (
                time_ms(reps, || {
                    let mut out = vec![0.0f32; k * n];
                    gemm::reference::gemm_tn(&mut out, &a, &g, m, k, n);
                    black_box(out);
                }),
                time_ms(reps, || {
                    let mut out = vec![0.0f32; k * n];
                    gemm::gemm_tn(&mut out, &a, &g, m, k, n);
                    black_box(out);
                }),
            )
        }
        other => panic!("unknown op {other}"),
    };
    // Effective parallelism of the fast kernel's timed region: the row
    // chunks it actually dispatched (1 when the shape is below the
    // dispatch threshold), not the pool's nominal size.
    let rows = if op == "tn" { k } else { m };
    let threads = gemm::planned_chunks(WorkerPool::global(), rows, 2 * m * k * n);
    GemmPerf {
        op: op.to_string(),
        m,
        k,
        n,
        naive_ms,
        fast_ms,
        threads,
        simd_level: gemm::simd_level().name(),
    }
}

fn bench_gemm_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_kernels");
    group.bench_function("ab_suite", |b| {
        b.iter(|| {
            // Shapes from the width-32 CNN model's dense stages:
            // encoder trunk (batch×flat × flat×hidden), its backward
            // products, and a conv-like panel.
            let records = vec![
                gemm_ab("nn", 64, 768, 128),
                gemm_ab("nt", 64, 128, 768),
                gemm_ab("tn", 64, 768, 128),
                gemm_ab("nn", 12, 54, 256),
            ];
            for r in &records {
                println!(
                    "gemm/{} {}x{}x{}: naive {:.3} ms ({:.2} GF/s) -> fast {:.3} ms ({:.2} GF/s), {:.2}x",
                    r.op,
                    r.m,
                    r.k,
                    r.n,
                    r.naive_ms,
                    r.gflops_naive(),
                    r.fast_ms,
                    r.gflops_fast(),
                    r.naive_ms / r.fast_ms.max(1e-12)
                );
            }
            report().lock().unwrap().gemm = records;
        })
    });
    group.finish();
}

fn toy_dataset(width: usize, count: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let entries: Vec<(PrefixGrid, f64)> = (0..count)
        .map(|_| {
            let g = mutate::random_grid(width, rng.gen_range(0.05..0.4), &mut rng);
            let cost = GridMetrics::of(&g).analytic_proxy();
            (g, cost)
        })
        .collect();
    let mut ds = Dataset::new(width, entries);
    ds.recompute_weights(1e-3, true);
    ds
}

/// Runs `steps` training steps of the width-32 CNN VAE with either the
/// reference or the fast kernels, returning (mean loss, parameter
/// bytes, wall-clock ms). `threads` is the gradient-accumulation chunk
/// count (the A/B gate uses 1: the chunking itself changes float merge
/// order, so the kernel comparison keeps it fixed).
fn run_training(steps: usize, reference: bool, threads: usize) -> (f64, Vec<u8>, f64) {
    let mut cfg = CircuitVaeConfig::for_width(WIDTH);
    assert!(matches!(cfg.arch, ModelArch::Cnn { .. }), "w32 must be CNN");
    cfg.batch_size = 32;
    cfg.threads = threads;
    let mut rng = StdRng::seed_from_u64(7);
    let mut store = ParamStore::new();
    let model = CircuitVaeModel::new(&mut store, &cfg, WIDTH, &mut rng);
    let ds = toy_dataset(WIDTH, 60, 11);
    gemm::set_reference_kernels(reference);
    let t = Instant::now();
    let loss = train(&model, &mut store, &ds, &cfg, steps, &mut rng);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    gemm::set_reference_kernels(false);
    (loss, store.to_bytes(), ms)
}

/// The tentpole gate: the width-32 training step on the compute core
/// must be ≥3× the naive kernels, with bit-identical training results.
///
/// Measurement protocol: order-alternated (naive, fast) pairs — clock
/// drift (thermal throttling) between the two members of a pair then
/// biases half the pairs each way — with the median of per-pair ratios
/// as the gate statistic. The full protocol runs once per process; the
/// bench harness's repeat iterations reuse the result.
fn bench_training_step_w32(c: &mut Criterion) {
    static GATE: OnceLock<(f64, f64, f64)> = OnceLock::new();
    let mut group = c.benchmark_group("training_step_w32");
    group.bench_function("ab_gate", |b| {
        b.iter(|| {
            let (naive_ms, fast_ms, speedup) = *GATE.get_or_init(|| {
                // Enough steps per measurement to amortize the first
                // step's arena/buffer build-up (the compute core's
                // steady state is the quantity of interest).
                let steps = if smoke() { 1 } else { 10 };
                let outer = if smoke() { 1 } else { 4 };
                let mut naive_times = Vec::new();
                let mut fast_times = Vec::new();
                let mut ratios = Vec::new();
                let (mut naive_out, mut fast_out) = (None, None);
                for r in 0..outer {
                    let (naive, fast) = if r % 2 == 0 {
                        let naive = run_training(steps, true, 1);
                        let fast = run_training(steps, false, 1);
                        (naive, fast)
                    } else {
                        let fast = run_training(steps, false, 1);
                        let naive = run_training(steps, true, 1);
                        (naive, fast)
                    };
                    ratios.push(naive.2 / fast.2.max(1e-12));
                    naive_times.push(naive.2);
                    fast_times.push(fast.2);
                    naive_out = Some((naive.0, naive.1));
                    fast_out = Some((fast.0, fast.1));
                }
                let (nl, np) = naive_out.unwrap();
                let (fl, fp) = fast_out.unwrap();
                assert_eq!(
                    nl.to_bits(),
                    fl.to_bits(),
                    "training loss diverged between kernel paths"
                );
                assert_eq!(np, fp, "trained parameters diverged between kernel paths");
                (
                    median(naive_times) / steps as f64,
                    median(fast_times) / steps as f64,
                    median(ratios),
                )
            });
            println!(
                "training_step_w32: naive {naive_ms:.1} ms/step -> fast {fast_ms:.1} ms/step ({speedup:.2}x median pair ratio)"
            );
            report().lock().unwrap().training_step = Some(AbPerf {
                width: WIDTH,
                naive_ms,
                fast_ms,
                // Both timed regions ran one accumulation chunk; the
                // kernels themselves fan dense products out on the pool.
                threads: 1,
                simd_level: gemm::simd_level().name(),
            });
            if !smoke() {
                assert!(
                    speedup >= 3.0,
                    "width-32 training step must be >=3x faster on the compute core, got {speedup:.2}x"
                );
            }
            speedup
        })
    });
    group.finish();
}

/// Shapes of the `simd_scaling` section — the same four dense stages
/// the `gemm_kernels` A/B measures, so the per-level curves line up
/// with the committed perf trajectory.
const SIMD_SHAPES: [(&str, usize, usize, usize); 4] = [
    ("nn", 64, 768, 128),
    ("nt", 64, 128, 768),
    ("tn", 64, 768, 128),
    ("nn", 12, 54, 256),
];

/// A/B of one GEMM shape at `level` vs the scalar tier, through the
/// race-free per-level entry points (`gemm_*_at` — no global toggles, no
/// pool). Uses the order-alternated median-pair-ratio protocol of the
/// training-step gate, and asserts the Contract 12 guarantee
/// (bit-identical to scalar) in-run.
fn simd_shape_ab(level: SimdLevel, op: &str, m: usize, k: usize, n: usize) -> SimdShapePerf {
    // Same seeds as `gemm_ab`, so the level curves measure the exact
    // operand bits of the main A/B section.
    let (x, y, out_len): (Vec<f32>, Vec<f32>, usize) = match op {
        "nn" => (dense(m * k, 1), dense(k * n, 2), m * n),
        "nt" => (dense(m * n, 3), dense(k * n, 4), m * k),
        "tn" => (dense(m * k, 5), dense(m * n, 6), k * n),
        other => panic!("unknown op {other}"),
    };
    let run = |lvl: SimdLevel, out: &mut [f32]| match op {
        "nn" => gemm::gemm_nn_at(lvl, out, &x, &y, m, k, n),
        "nt" => gemm::gemm_nt_at(lvl, out, &x, &y, m, n, k),
        "tn" => gemm::gemm_tn_at(lvl, out, &x, &y, m, k, n),
        _ => unreachable!(),
    };
    let mut at_level = vec![0.0f32; out_len];
    let mut at_scalar = vec![0.0f32; out_len];
    run(level, &mut at_level);
    run(SimdLevel::Scalar, &mut at_scalar);
    assert!(
        at_level
            .iter()
            .zip(&at_scalar)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "{op} diverged from scalar at level {}",
        level.name()
    );
    let iters = if smoke() { 1 } else { 4 };
    let time_at = |lvl: SimdLevel| {
        let mut out = vec![0.0f32; out_len];
        let t = Instant::now();
        for _ in 0..iters {
            run(lvl, &mut out);
            black_box(&mut out);
        }
        t.elapsed().as_secs_f64() * 1e3 / iters as f64
    };
    let pairs = if smoke() { 1 } else { 5 };
    let mut level_times = Vec::with_capacity(pairs);
    let mut ratios = Vec::with_capacity(pairs);
    for p in 0..pairs {
        let (scalar_ms, level_ms) = if p % 2 == 0 {
            let s = time_at(SimdLevel::Scalar);
            let l = time_at(level);
            (s, l)
        } else {
            let l = time_at(level);
            let s = time_at(SimdLevel::Scalar);
            (s, l)
        };
        level_times.push(level_ms);
        ratios.push(scalar_ms / level_ms.max(1e-12));
    }
    SimdShapePerf {
        op: op.to_string(),
        m,
        k,
        n,
        ms: median(level_times),
        speedup_vs_scalar: if level == SimdLevel::Scalar {
            1.0
        } else {
            median(ratios)
        },
    }
}

/// Training-step A/B at `level` vs the scalar tier on the public
/// dispatch path (the per-level GEMM entries cover the raw kernels; this
/// covers a whole width-32 step through graph wiring and conv). Toggling
/// `set_simd_level` is bit-harmless here: every tier produces identical
/// bits, which the assert below re-proves per level. Returns (ms per
/// step, median per-pair speedup vs scalar).
fn simd_training_ab(level: SimdLevel) -> (f64, f64) {
    let entry = gemm::simd_level();
    let steps = if smoke() { 1 } else { 6 };
    let outer = if smoke() { 1 } else { 3 };
    let run_at = |lvl: SimdLevel| {
        assert!(
            gemm::set_simd_level(lvl),
            "level {} unsupported",
            lvl.name()
        );
        run_training(steps, false, 1)
    };
    let mut level_times = Vec::with_capacity(outer);
    let mut ratios = Vec::with_capacity(outer);
    let (mut scalar_out, mut level_out) = (None, None);
    for r in 0..outer {
        let (scalar, at_level) = if r % 2 == 0 {
            let s = run_at(SimdLevel::Scalar);
            let l = run_at(level);
            (s, l)
        } else {
            let l = run_at(level);
            let s = run_at(SimdLevel::Scalar);
            (s, l)
        };
        ratios.push(scalar.2 / at_level.2.max(1e-12));
        level_times.push(at_level.2);
        scalar_out = Some((scalar.0, scalar.1));
        level_out = Some((at_level.0, at_level.1));
    }
    gemm::set_simd_level(entry);
    let (sl, sp) = scalar_out.unwrap();
    let (ll, lp) = level_out.unwrap();
    assert_eq!(
        sl.to_bits(),
        ll.to_bits(),
        "training loss diverged between scalar and {}",
        level.name()
    );
    assert_eq!(
        sp,
        lp,
        "trained parameters diverged between scalar and {}",
        level.name()
    );
    (
        median(level_times) / steps as f64,
        if level == SimdLevel::Scalar {
            1.0
        } else {
            median(ratios)
        },
    )
}

/// Measures the full `simd_scaling` section: one curve per SIMD level
/// this host supports (unsupported tiers are skipped with a printed
/// label, never silently), headline recomputed from the tables.
fn build_simd_scaling() -> SimdScaling {
    let mut levels = Vec::new();
    for level in SimdLevel::ALL {
        if !level.is_supported() {
            println!(
                "simd_scaling: SKIPPED level {} — not supported on this host (detected {})",
                level.name(),
                gemm::detected_level().name()
            );
            continue;
        }
        let rows: Vec<SimdShapePerf> = SIMD_SHAPES
            .iter()
            .map(|&(op, m, k, n)| simd_shape_ab(level, op, m, k, n))
            .collect();
        for r in &rows {
            println!(
                "simd_scaling/{} {}/{}x{}x{}: {:.3} ms ({:.2} GF/s), {:.2}x vs scalar",
                level.name(),
                r.op,
                r.m,
                r.k,
                r.n,
                r.ms,
                r.gflops(),
                r.speedup_vs_scalar
            );
        }
        let (training_ms, training_speedup) = simd_training_ab(level);
        println!(
            "simd_scaling/{}: training {:.1} ms/step ({:.2}x vs scalar)",
            level.name(),
            training_ms,
            training_speedup
        );
        levels.push(SimdLevelPerf {
            level: level.name().to_string(),
            gemm: rows,
            training_ms,
            training_speedup_vs_scalar: training_speedup,
        });
    }
    let mut scaling = SimdScaling {
        levels,
        headline: None,
    };
    scaling.headline = scaling.computed_headline();
    scaling
}

/// The `simd_scaling` section plus its tentpole gate: the GEMM headline
/// over scalar must be ≥2x when this host detects AVX2 (outside smoke
/// mode); on narrower hosts the gate is skipped with a loud label. The
/// heavy protocol runs once per process.
fn bench_simd_scaling(c: &mut Criterion) {
    static SCALING: OnceLock<SimdScaling> = OnceLock::new();
    let mut group = c.benchmark_group("simd_scaling");
    group.bench_function("levels", |b| {
        b.iter(|| {
            let scaling = SCALING.get_or_init(build_simd_scaling);
            if let Some(h) = &scaling.headline {
                println!(
                    "simd_scaling: headline {}/{} {}x{}x{}: {:.2}x vs scalar",
                    h.level, h.op, h.m, h.k, h.n, h.speedup
                );
            }
            if gemm::detected_level() >= SimdLevel::Avx2 {
                if !smoke() {
                    let speedup = scaling.headline.as_ref().map_or(0.0, |h| h.speedup);
                    assert!(
                        speedup >= 2.0,
                        "SIMD GEMM headline must be >=2x over scalar on AVX2, got {speedup:.2}x"
                    );
                }
            } else {
                println!(
                    "simd_scaling: SKIPPED >=2x AVX2 headline gate — avx2 not detected on this host"
                );
            }
            report().lock().unwrap().simd_scaling = Some(scaling.clone());
        })
    });
    group.finish();
}

/// The training-step scaling curve: gradient-accumulation chunk counts
/// 1/2/4/8/16 on the global pool, wall clock only — on a core-starved
/// machine it honestly shows ~1x. Chunking changes float merge order, so
/// equality across thread counts is approximate (loss drift bounded).
fn training_scaling_curve() -> ScalingCurve {
    let steps = if smoke() { 1 } else { 6 };
    let mut points = Vec::new();
    let mut baseline: Option<(f64, f64)> = None;
    for t in SCALE_THREADS {
        let (loss, _params, total_ms) = run_training(steps, false, t);
        let ms = total_ms / steps as f64;
        match baseline {
            None => baseline = Some((loss, ms)),
            Some((l0, _)) => assert!(
                (loss - l0).abs() <= 1e-3 * l0.abs().max(1.0),
                "threads={t}: training loss drifted ({loss} vs {l0})"
            ),
        }
        points.push(ScalePoint {
            threads: t,
            workers: WorkerPool::global().threads().min(t),
            wall_ms: ms,
        });
    }
    ScalingCurve {
        width: WIDTH,
        baseline_ms: baseline.expect("curve has points").1,
        points,
    }
}

/// The training-step thread-scaling curve. The heavy protocol runs once
/// per process; bench iterations reuse the curve.
fn bench_thread_scaling(c: &mut Criterion) {
    static CURVE: OnceLock<ScalingCurve> = OnceLock::new();
    let mut group = c.benchmark_group("thread_scaling");
    group.bench_function("curves", |b| {
        b.iter(|| {
            let curve = CURVE.get_or_init(training_scaling_curve);
            for p in &curve.points {
                println!(
                    "scaling/training_step w{}: t={} workers={} wall {:.1} ms ({:.2}x wall)",
                    curve.width,
                    p.threads,
                    p.workers,
                    p.wall_ms,
                    p.wall_speedup(curve.baseline_ms),
                );
            }
            report().lock().unwrap().training_scaling = Some(curve.clone());
        })
    });
    group.finish();
}

fn bench_incremental_point(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_point");
    group.bench_function("chain_speedup", |b| {
        b.iter(|| {
            // One measurement of the incremental-evaluation speedup for
            // the perf trajectory (the `incremental` bench owns the
            // rigorous gate).
            let mut rng = StdRng::seed_from_u64(0xA11CE);
            let mut chain = vec![topologies::sklansky(WIDTH)];
            for _ in 1..if smoke() { 4 } else { 12 } {
                chain.push(mutate::neighbour(chain.last().unwrap(), &mut rng));
            }
            let flow = SynthesisFlow::new(nangate45_like(), CircuitKind::Adder, WIDTH);
            let t = Instant::now();
            let full: Vec<_> = chain.iter().map(|g| flow.synthesize(g)).collect();
            let full_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let mut session = EvalSession::new(flow.clone(), CostParams::new(0.66));
            let delta: Vec<_> = chain.iter().map(|g| session.evaluate(g).ppa).collect();
            let delta_s = t.elapsed().as_secs_f64();
            assert_eq!(full, delta, "delta path diverged");
            let speedup = full_s / delta_s.max(1e-12);
            println!(
                "incremental_point: {speedup:.2}x over {}-step chain",
                chain.len()
            );
            report().lock().unwrap().incremental_speedup = Some(speedup);
        })
    });
    group.finish();
}

/// Last group: persist the accumulated report (validated against its own
/// schema) for CI to archive.
fn bench_write_report(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf_report");
    group.bench_function("write", |b| {
        b.iter(|| {
            // Benches run with the package dir as cwd; anchor the report
            // at the workspace root's results/ like the figure binaries.
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../../results/bench_perf.json");
            report().lock().unwrap().write(&path);
            println!("wrote {}", path.display());
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gemm_kernels,
    bench_training_step_w32,
    bench_simd_scaling,
    bench_thread_scaling,
    bench_incremental_point,
    bench_write_report
);
criterion_main!(benches);
