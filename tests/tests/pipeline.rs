//! Integration tests across the full stack: prefix graph → netlist →
//! timing → synthesis → cost, and the determinism/caching contracts the
//! search algorithms rely on.

use cv_cells::nangate45_like;
use cv_prefix::{mutate, topologies, CircuitKind, PrefixGrid};
use cv_synth::{CachedEvaluator, CostParams, Objective, SynthesisFlow};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn evaluator(width: usize, kind: CircuitKind, w: f64) -> CachedEvaluator {
    let flow = SynthesisFlow::new(nangate45_like(), kind, width);
    CachedEvaluator::new(Objective::new(flow, CostParams::new(w)))
}

#[test]
fn cost_landscape_orders_classical_designs_sanely() {
    // At strongly delay-weighted cost, log-depth designs must beat
    // ripple; at strongly area-weighted cost, ripple must win. This is
    // the basic trade-off every figure in the paper rides on.
    let width = 32;
    let fast = evaluator(width, CircuitKind::Adder, 0.95);
    let small = evaluator(width, CircuitKind::Adder, 0.05);
    let ripple = topologies::ripple(width);
    let sklansky = topologies::sklansky(width);
    assert!(fast.evaluate(&sklansky).cost < fast.evaluate(&ripple).cost);
    assert!(small.evaluate(&ripple).cost < small.evaluate(&sklansky).cost);
}

#[test]
fn objective_is_deterministic_across_evaluators() {
    let g = topologies::han_carlson(24);
    let a = evaluator(24, CircuitKind::Adder, 0.66).evaluate(&g);
    let b = evaluator(24, CircuitKind::Adder, 0.66).evaluate(&g);
    assert_eq!(a, b, "two fresh evaluators must agree exactly");
}

#[test]
fn equivalent_illegal_grids_cost_the_same() {
    // Paper §5.1: legalization is part of the objective, so an illegal
    // grid and its legalized twin are the same design.
    let mut rng = StdRng::seed_from_u64(0);
    let ev = evaluator(16, CircuitKind::Adder, 0.5);
    for _ in 0..10 {
        let mut g = PrefixGrid::ripple(16);
        mutate::toggle_random_cells(&mut g, 5, &mut rng);
        let raw = ev.evaluate(&g);
        let legal = ev.evaluate(&g.legalized());
        assert_eq!(raw, legal);
    }
}

#[test]
fn denser_grids_cost_more_area_under_area_weighting() {
    let ev = evaluator(20, CircuitKind::Adder, 0.0);
    let sparse = topologies::brent_kung(20);
    let dense = topologies::kogge_stone(20);
    let rs = ev.evaluate(&sparse);
    let rd = ev.evaluate(&dense);
    assert!(rs.ppa.area_um2 < rd.ppa.area_um2);
    assert!(rs.cost < rd.cost);
}

#[test]
fn gray_to_binary_objective_differs_from_adder() {
    let g = topologies::sklansky(20);
    let adder = evaluator(20, CircuitKind::Adder, 0.6).evaluate(&g);
    let g2b = evaluator(20, CircuitKind::GrayToBinary, 0.6).evaluate(&g);
    assert!(g2b.ppa.gate_count < adder.ppa.gate_count);
    assert!(g2b.cost < adder.cost);
}

#[test]
fn budget_accounting_counts_unique_designs_only() {
    let ev = evaluator(12, CircuitKind::Adder, 0.66);
    let g = topologies::sklansky(12);
    for _ in 0..5 {
        let _ = ev.evaluate(&g);
    }
    assert_eq!(ev.counter().count(), 1);
    let mut g2 = g.clone();
    g2.toggle(5, 2).unwrap();
    let _ = ev.evaluate(&g2);
    assert_eq!(ev.counter().count(), 2);
}

#[test]
fn leading_zero_objective_is_cheapest_prefix_family() {
    // OR2 is cheaper than both XOR2 (g2b) and the AO21/AND2 adder pair,
    // so for the same graph shape the three circuit families must order
    // lzd < g2b < adder in area.
    let g = topologies::sklansky(20);
    let lzd = evaluator(20, CircuitKind::LeadingZero, 0.5).evaluate(&g);
    let g2b = evaluator(20, CircuitKind::GrayToBinary, 0.5).evaluate(&g);
    let add = evaluator(20, CircuitKind::Adder, 0.5).evaluate(&g);
    assert!(lzd.ppa.area_um2 < g2b.ppa.area_um2);
    assert!(g2b.ppa.area_um2 < add.ppa.area_um2);
}
