//! Batch-shaped properties of the shared `CachedEvaluator` (DESIGN.md
//! §8): a batch of designs evaluated through one evaluator — in order,
//! or spread over a `WorkerPool` whose tasks all query the same
//! instance — must return the cached results of warm designs at zero
//! simulation cost, and must survive a design whose synthesis panics.

use cv_cells::nangate45_like;
use cv_pool::WorkerPool;
use cv_prefix::{bitvec, topologies, CircuitKind, PrefixGrid};
use cv_synth::{CachedEvaluator, CostParams, EvalRecord, Objective, ParetoArchive, SynthesisFlow};
use proptest::prelude::*;

const W: usize = 10;

fn evaluator() -> CachedEvaluator {
    CachedEvaluator::new(Objective::new(
        SynthesisFlow::new(nangate45_like(), CircuitKind::Adder, W),
        CostParams::new(0.66),
    ))
}

fn arb_grid() -> impl Strategy<Value = PrefixGrid> {
    let free = (W - 1) * (W - 2) / 2;
    prop::collection::vec(any::<bool>(), free)
        .prop_map(|bits| bitvec::decode_bits(W, &bits).expect("length matches"))
}

/// A batch of up to 6 distinct designs with up to 6 duplicates spliced
/// in at arbitrary positions.
fn arb_batch() -> impl Strategy<Value = Vec<PrefixGrid>> {
    (
        prop::collection::vec(arb_grid(), 1..6),
        prop::collection::vec((0usize..64, 0usize..64), 0..6),
    )
        .prop_map(|(mut batch, dups)| {
            for (src, pos) in dups {
                let dup = batch[src % batch.len()].clone();
                batch.insert(pos % (batch.len() + 1), dup);
            }
            batch
        })
}

/// Pool sizes exercised per case: inline, small, odd, and far beyond
/// the batch size.
const THREADS: [usize; 4] = [1, 2, 5, 64];

/// Evaluates `batch` on `pool`, one design per task, every task querying
/// the same evaluator; results come back in batch order.
fn evaluate_on(pool: &WorkerPool, ev: &CachedEvaluator, batch: &[PrefixGrid]) -> Vec<EvalRecord> {
    let mut out: Vec<Option<EvalRecord>> = vec![None; batch.len()];
    pool.scatter(&mut out, 1, |i, slot| {
        slot[0] = Some(ev.evaluate(&batch[i]))
    });
    out.into_iter()
        .map(|r| r.expect("every task wrote its slot"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn all_cache_hit_batches_stay_silent(batch in arb_batch()) {
        // Once every design is cached, a batch — in order or spread over
        // a pool of any size — must cost zero simulations and leave the
        // archive untouched.
        let ev = evaluator();
        let arch = ParetoArchive::new().with_log().into_shared();
        ev.attach_archive(arch.clone());
        let warm: Vec<EvalRecord> = batch.iter().map(|g| ev.evaluate(g)).collect();
        let sims = ev.counter().count();
        let bytes = arch.lock().to_ckpt_bytes();
        let again: Vec<EvalRecord> = batch.iter().map(|g| ev.evaluate(g)).collect();
        prop_assert_eq!(&again, &warm, "in order: cached results");
        prop_assert_eq!(ev.counter().count(), sims, "in order: no new sims");
        for threads in THREADS {
            let pool = WorkerPool::new(threads);
            let out = evaluate_on(&pool, &ev, &batch);
            prop_assert_eq!(&out, &warm, "threads={}: cached results", threads);
            prop_assert_eq!(ev.counter().count(), sims, "threads={}: no new sims", threads);
            let after = arch.lock().to_ckpt_bytes();
            prop_assert_eq!(after, bytes.clone(), "threads={}: archive untouched", threads);
        }
    }
}

/// A panicking evaluation inside a pooled batch must not wedge the
/// shared evaluator: the panic unwinds out of the batch (re-thrown by
/// the pool), the poisoned design's key stays uncached, nothing is
/// counted for it, and the same evaluator/pool pair keeps producing
/// correct results.
#[test]
fn batch_survives_a_panicking_evaluation() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let pool = WorkerPool::new(4);
    let ev = evaluator();
    let good: Vec<PrefixGrid> = vec![
        topologies::sklansky(W),
        topologies::brent_kung(W),
        topologies::ripple(W),
        topologies::kogge_stone(W),
    ];
    // A wrong-width design panics inside the synthesis flow.
    let mut poisoned = good.clone();
    poisoned.insert(2, topologies::sklansky(W + 4));
    for _ in 0..2 {
        let r = catch_unwind(AssertUnwindSafe(|| evaluate_on(&pool, &ev, &poisoned)));
        assert!(r.is_err(), "width mismatch must propagate out of the batch");
    }
    // Reference results from an untouched evaluator.
    let reference = evaluator();
    let expected: Vec<EvalRecord> = good.iter().map(|g| reference.evaluate(g)).collect();
    let after = evaluate_on(&pool, &ev, &good);
    assert_eq!(after, expected, "evaluator unusable after a batch panic");
    assert_eq!(
        ev.counter().count(),
        good.len(),
        "only successful simulations may count (failed ones must not)"
    );
    // And the sequential entry points still work on the same instance.
    assert_eq!(ev.evaluate(&good[0]), expected[0]);
}
