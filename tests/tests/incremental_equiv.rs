//! The equivalence layer pinning the incremental evaluation engine:
//! for arbitrary mutation chains on arbitrary legal grids — across both
//! technology libraries and all three circuit kinds —
//! a resident `EvalSession` evaluating the chain must reproduce the full
//! `SynthesisFlow` PPA **bit-for-bit** ("Contract 6" in DESIGN.md §6).
//!
//! This suite is what makes the arena-netlist remap, the delta-STA
//! engine, and the incremental sizing loop safe to substitute for the
//! reference flow everywhere; CI runs it under `--release` as a tier-1
//! job.

use cv_cells::{nangate45_like, scaled_8nm_like, CellLibrary};
use cv_prefix::{bitvec, mutate, topologies, CircuitKind, PrefixGrid};
use cv_synth::{CachedEvaluator, CostParams, EvalSession, Objective, SynthesisFlow};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const KINDS: [CircuitKind; 3] = [
    CircuitKind::Adder,
    CircuitKind::GrayToBinary,
    CircuitKind::LeadingZero,
];

fn tech(idx: usize) -> CellLibrary {
    if idx % 2 == 0 {
        nangate45_like()
    } else {
        scaled_8nm_like()
    }
}

/// Asserts that one delta-evaluated mutation chain equals the reference
/// flow at every step, bitwise. Returns the number of steps compared.
fn check_chain(
    lib: CellLibrary,
    kind: CircuitKind,
    base: PrefixGrid,
    steps: usize,
    seed: u64,
) -> usize {
    let width = base.width();
    let flow = SynthesisFlow::new(lib, kind, width);
    let cost = CostParams::new(0.66);
    let mut session = EvalSession::new(flow.clone(), cost);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut grid = base;
    let mut compared = 0;
    for step in 0..steps {
        let next = if step == 0 {
            grid.clone() // step 0 checks the base grid itself
        } else {
            mutate::neighbour(&grid, &mut rng)
        };
        let rec = session.evaluate(&next);
        let full = flow.synthesize(&next);
        assert_eq!(
            rec.ppa, full,
            "{kind} w{width} step {step}: delta != full (PartialEq on f64 fields is bitwise-or-equal here)"
        );
        assert_eq!(
            rec.ppa.delay_ns.to_bits(),
            full.delay_ns.to_bits(),
            "{kind} w{width} step {step}: delay bits diverged"
        );
        assert_eq!(
            rec.ppa.area_um2.to_bits(),
            full.area_um2.to_bits(),
            "{kind} w{width} step {step}: area bits diverged"
        );
        assert_eq!(rec.cost.to_bits(), cost.cost(&full).to_bits());
        grid = next;
        compared += 1;
    }
    compared
}

fn arb_grid(n: usize) -> impl Strategy<Value = PrefixGrid> {
    let free = (n - 1) * (n - 2) / 2;
    prop::collection::vec(any::<bool>(), free)
        .prop_map(move |bits| bitvec::decode_bits(n, &bits).expect("length matches"))
}

proptest! {
    // 256+ random cases; combined with the exhaustive tech×kind loop
    // below, every (tech, kind) pair sees dozens of random chains.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn delta_ppa_equals_full_flow_on_random_mutation_chains(
        base in arb_grid(10),
        tech_idx in 0usize..2,
        kind_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        let legal = base.legalized();
        check_chain(tech(tech_idx), KINDS[kind_idx], legal, 4, seed);
    }
}

#[test]
fn delta_ppa_equals_full_flow_on_every_tech_and_kind() {
    // Deterministic coverage floor: every (tech, kind) combination runs
    // a chain from a classical seed, independent of proptest sampling.
    for tech_idx in 0..2 {
        for kind in KINDS {
            let steps = check_chain(
                tech(tech_idx),
                kind,
                topologies::han_carlson(12),
                6,
                0x5EED ^ tech_idx as u64,
            );
            assert_eq!(steps, 6);
        }
    }
}

#[test]
fn evaluator_fast_path_is_invisible_to_searchers() {
    // The session-backed evaluator and the reference evaluator must be
    // observationally identical through the public caching API, costs
    // and counters included.
    let mk = |incremental: bool| {
        let flow = SynthesisFlow::new(nangate45_like(), CircuitKind::Adder, 10);
        let objective = Objective::new(flow, CostParams::new(0.33));
        if incremental {
            CachedEvaluator::new(objective)
        } else {
            CachedEvaluator::new_reference(objective)
        }
    };
    let fast = mk(true);
    let reference = mk(false);
    let mut rng = StdRng::seed_from_u64(3);
    let mut grid = topologies::sklansky(10);
    for _ in 0..10 {
        let next = mutate::neighbour(&grid, &mut rng);
        let a = fast.evaluate(&next);
        let b = reference.evaluate(&next);
        assert_eq!(a, b);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        grid = next;
    }
    assert_eq!(fast.counter().count(), reference.counter().count());
    assert_eq!(fast.unique_designs(), reference.unique_designs());
}
