//! Incremental-evaluation benchmarks: width-32 SA-style mutation chains
//! through the full-rebuild flow vs. the `EvalSession` delta path, plus
//! an end-to-end `run_method` comparison of the session-backed and
//! reference evaluators.
//!
//! Beyond timing, this bench *gates* the tentpole claims:
//! * every record produced by the delta path is bit-for-bit equal to the
//!   full `SynthesisFlow`;
//! * outside `--test` smoke mode, the delta path must be ≥3× faster on
//!   the width-32 mutation chain.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use cv_bench::harness::{build_evaluator, run_method_on, ExperimentSpec, Method};
use cv_cells::nangate45_like;
use cv_prefix::{mutate, topologies, CircuitKind, PrefixGrid};
use cv_synth::{CachedEvaluator, CostParams, EvalSession, Objective, SynthesisFlow};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const WIDTH: usize = 32;
const CHAIN: usize = 16;

/// An SA-style mutation chain: each grid is a legalized 1–3 cell
/// perturbation of its predecessor.
fn mutation_chain(len: usize, seed: u64) -> Vec<PrefixGrid> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chain = vec![topologies::sklansky(WIDTH)];
    for _ in 1..len {
        chain.push(mutate::neighbour(chain.last().unwrap(), &mut rng));
    }
    chain
}

fn flow() -> SynthesisFlow {
    SynthesisFlow::new(nangate45_like(), CircuitKind::Adder, WIDTH)
}

fn run_full(flow: &SynthesisFlow, chain: &[PrefixGrid]) -> Vec<cv_synth::PpaReport> {
    chain.iter().map(|g| flow.synthesize(g)).collect()
}

fn run_delta(flow: &SynthesisFlow, chain: &[PrefixGrid]) -> Vec<cv_synth::PpaReport> {
    let mut session = EvalSession::new(flow.clone(), CostParams::new(0.66));
    chain.iter().map(|g| session.evaluate(g).ppa).collect()
}

fn bench_mutation_chain(c: &mut Criterion) {
    let chain = mutation_chain(CHAIN, 0xA11CE);
    let flow = flow();
    let mut group = c.benchmark_group("sa_chain_w32");
    group.sample_size(10);
    group.bench_function("full_rebuild", |b| {
        b.iter(|| black_box(run_full(&flow, &chain)))
    });
    group.bench_function("delta_session", |b| {
        b.iter(|| black_box(run_delta(&flow, &chain)))
    });
    group.finish();
}

/// Equality everywhere + the ≥3× throughput gate (median of 3 runs per
/// path; the speedup assertion is skipped in `--test` smoke mode where a
/// single noisy run could flake CI).
fn bench_speedup_gate(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_gate");
    group.bench_function("equality_and_speedup", |b| {
        b.iter(|| {
            let chain = mutation_chain(CHAIN, 0xBEEF);
            let flow = flow();
            let smoke = std::env::args().any(|a| a == "--test");
            let reps = if smoke { 1 } else { 3 };
            let mut full_times = Vec::new();
            let mut delta_times = Vec::new();
            let mut full_last = Vec::new();
            let mut delta_last = Vec::new();
            for _ in 0..reps {
                let t = Instant::now();
                full_last = run_full(&flow, &chain);
                full_times.push(t.elapsed().as_secs_f64());
                let t = Instant::now();
                delta_last = run_delta(&flow, &chain);
                delta_times.push(t.elapsed().as_secs_f64());
            }
            assert_eq!(
                full_last, delta_last,
                "delta path diverged from the full flow"
            );
            full_times.sort_by(f64::total_cmp);
            delta_times.sort_by(f64::total_cmp);
            let speedup = full_times[reps / 2] / delta_times[reps / 2];
            println!("incremental_gate: speedup {speedup:.2}x over {CHAIN}-step chain");
            if !smoke {
                assert!(
                    speedup >= 3.0,
                    "incremental path must be >=3x faster, got {speedup:.2}x"
                );
            }
            speedup
        })
    });
    group.finish();
}

/// End-to-end `run_method` wiring: the same SA run through the
/// session-backed evaluator and the reference evaluator must produce the
/// *identical* search outcome (determinism + bit-for-bit evaluation),
/// with the session-backed one faster.
fn bench_run_method_sa(c: &mut Criterion) {
    let spec = ExperimentSpec::standard(WIDTH, CircuitKind::Adder, 0.66, 60);
    let mut group = c.benchmark_group("run_method_sa_w32");
    group.sample_size(10);
    group.bench_function("incremental_evaluator", |b| {
        b.iter(|| {
            let evaluator = build_evaluator(&spec);
            black_box(run_method_on(Method::Sa, &spec, 11, &evaluator))
        })
    });
    group.bench_function("reference_evaluator", |b| {
        b.iter(|| {
            let evaluator = CachedEvaluator::new_reference(Objective::new(
                SynthesisFlow::new(nangate45_like(), CircuitKind::Adder, WIDTH),
                CostParams::new(0.66),
            ));
            black_box(run_method_on(Method::Sa, &spec, 11, &evaluator))
        })
    });
    group.finish();
    // Outcome parity, checked once outside the timed region.
    let fast = run_method_on(Method::Sa, &spec, 11, &build_evaluator(&spec));
    let reference = run_method_on(
        Method::Sa,
        &spec,
        11,
        &CachedEvaluator::new_reference(Objective::new(
            SynthesisFlow::new(nangate45_like(), CircuitKind::Adder, WIDTH),
            CostParams::new(0.66),
        )),
    );
    assert_eq!(fast.history, reference.history);
    assert_eq!(fast.best_cost.to_bits(), reference.best_cost.to_bits());
}

criterion_group!(
    benches,
    bench_mutation_chain,
    bench_speedup_gate,
    bench_run_method_sa
);
criterion_main!(benches);
