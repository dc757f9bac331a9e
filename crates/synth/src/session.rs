//! Incremental evaluation sessions.
//!
//! An [`EvalSession`] owns all the resident state one worker needs to
//! evaluate a *stream* of candidate grids cheaply: the incremental
//! [`NetlistBuilder`] (patches only the prefix spans that changed since
//! the previous candidate), a reusable working netlist, and the delta-STA
//! [`TimingEngine`] that replaces every full re-analysis inside gate
//! sizing with a cone update. Its results are **bit-for-bit identical**
//! to [`SynthesisFlow::synthesize`] — pinned by the `cv-tests`
//! equivalence property suite — so [`crate::CachedEvaluator`] can route
//! every cache miss through a session without changing any observable
//! behavior, which is how mutation-heavy searchers (SA, GA, REINFORCE)
//! hit the fast path automatically.

use crate::buffering::buffer_high_fanout;
use crate::cost::{CostParams, PpaReport};
use crate::evaluator::{EvalRecord, Objective};
use crate::flow::SynthesisFlow;
use crate::sizing::size_gates_incremental;
use cv_netlist::{GateId, Netlist, NetlistBuilder, RemapStats};
use cv_prefix::PrefixGrid;
use cv_sta::TimingEngine;

/// Resident incremental-evaluation state for one synthesis flow.
///
/// ```
/// use cv_synth::{CostParams, EvalSession, SynthesisFlow};
/// use cv_prefix::{topologies, CircuitKind};
/// use cv_cells::nangate45_like;
///
/// let flow = SynthesisFlow::new(nangate45_like(), CircuitKind::Adder, 16);
/// let mut session = EvalSession::new(flow.clone(), CostParams::new(0.66));
/// let base = topologies::sklansky(16);
/// let mut mutated = base.clone();
/// mutated.set(15, 9, true).unwrap();
/// mutated.legalize();
/// session.evaluate(&base);
/// let rec = session.evaluate(&mutated); // patches only the changed spans
/// assert_eq!(rec.ppa, flow.synthesize(&mutated)); // bit-for-bit
/// ```
#[derive(Debug, Clone)]
pub struct EvalSession {
    flow: SynthesisFlow,
    cost: CostParams,
    builder: NetlistBuilder,
    /// Per-candidate working copy (buffering + sizing mutate this, never
    /// the builder's pristine mapped netlist).
    work: Netlist,
    engine: TimingEngine,
    path: Vec<GateId>,
    /// The legalized grid of the most recent evaluation.
    last: Option<PrefixGrid>,
    /// Remap reuse of the most recent evaluation.
    last_stats: Option<RemapStats>,
}

impl EvalSession {
    /// Creates a session around a flow and cost parameters.
    pub fn new(flow: SynthesisFlow, cost: CostParams) -> Self {
        let builder = NetlistBuilder::new(flow.kind(), flow.width());
        EvalSession {
            flow,
            cost,
            builder,
            work: Netlist::new(),
            engine: TimingEngine::new(),
            path: Vec::new(),
            last: None,
            last_stats: None,
        }
    }

    /// Creates a session evaluating the same objective as `objective`.
    pub fn from_objective(objective: &Objective) -> Self {
        EvalSession::new(objective.flow().clone(), objective.cost_params())
    }

    /// The legalized grid of the most recent evaluation, if any.
    pub fn last_grid(&self) -> Option<&PrefixGrid> {
        self.last.as_ref()
    }

    /// How much of the previous netlist the most recent evaluation
    /// reused (diagnostics for benches and tests).
    pub fn last_remap_stats(&self) -> Option<RemapStats> {
        self.last_stats
    }

    /// Evaluates `grid`, reusing whatever state is resident from the
    /// previous call. Produces exactly the record that
    /// `Objective::evaluate` (i.e. the full [`SynthesisFlow`]) would.
    ///
    /// # Panics
    ///
    /// Panics if `grid.width()` differs from the flow's width.
    pub fn evaluate(&mut self, grid: &PrefixGrid) -> EvalRecord {
        assert_eq!(grid.width(), self.flow.width(), "grid width mismatch");
        let legal = if grid.is_legal() {
            grid.clone()
        } else {
            grid.legalized()
        };
        let graph = legal.to_graph();
        let stats = self.builder.remap(&graph);
        self.work.copy_from(self.builder.netlist());

        let lib = self.flow.library();
        let config = self.flow.config();
        let buffers = buffer_high_fanout(&mut self.work, lib, config.max_fanout);
        let (upsized, delay_ns) = size_gates_incremental(
            &mut self.work,
            lib,
            &config.io,
            config.delay_weight,
            config.sizing_moves,
            &mut self.engine,
            &mut self.path,
        );
        let ppa = PpaReport {
            area_um2: self.work.area_um2(lib),
            delay_ns,
            gate_count: self.work.gate_count(),
            buffers_inserted: buffers,
            gates_upsized: upsized,
        };
        self.last = Some(legal);
        self.last_stats = Some(stats);
        EvalRecord {
            cost: self.cost.cost(&ppa),
            ppa,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_cells::{nangate45_like, scaled_8nm_like};
    use cv_prefix::{mutate, topologies, CircuitKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn session_matches_flow_on_classical_designs() {
        for lib in [nangate45_like(), scaled_8nm_like()] {
            for kind in [
                CircuitKind::Adder,
                CircuitKind::GrayToBinary,
                CircuitKind::LeadingZero,
            ] {
                let flow = SynthesisFlow::new(lib.clone(), kind, 16);
                let mut session = EvalSession::new(flow.clone(), CostParams::new(0.66));
                for (name, grid) in topologies::all_classical(16) {
                    let rec = session.evaluate(&grid);
                    let full = flow.synthesize(&grid);
                    assert_eq!(rec.ppa, full, "{kind} {name}");
                }
            }
        }
    }

    #[test]
    fn mutation_chain_matches_flow_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(77);
        let flow = SynthesisFlow::new(nangate45_like(), CircuitKind::Adder, 12);
        let mut session = EvalSession::new(flow.clone(), CostParams::new(0.5));
        let mut grid = topologies::brent_kung(12);
        for step in 0..16 {
            let next = mutate::neighbour(&grid, &mut rng);
            let rec = session.evaluate(&next);
            let full = flow.synthesize(&next);
            assert_eq!(rec.ppa, full, "step {step}");
            assert_eq!(
                rec.cost.to_bits(),
                CostParams::new(0.5).cost(&full).to_bits()
            );
            grid = next;
        }
    }

    #[test]
    fn illegal_grids_are_legalized_like_the_flow() {
        let flow = SynthesisFlow::new(nangate45_like(), CircuitKind::Adder, 16);
        let mut session = EvalSession::new(flow.clone(), CostParams::new(0.66));
        let mut g = PrefixGrid::ripple(16);
        g.set(15, 8, true).unwrap();
        assert_eq!(session.evaluate(&g).ppa, flow.synthesize(&g));
        assert_eq!(session.last_grid(), Some(&g.legalized()));
    }

    #[test]
    fn remap_stats_show_reuse_along_chains() {
        let mut session = EvalSession::new(
            SynthesisFlow::new(nangate45_like(), CircuitKind::Adder, 32),
            CostParams::new(0.66),
        );
        let base = topologies::kogge_stone(32);
        session.evaluate(&base);
        let mut mutated = base.clone();
        mutated.set(31, 17, true).unwrap();
        mutated.legalize();
        session.evaluate(&mutated);
        let stats = session.last_remap_stats().unwrap();
        assert!(
            stats.reused_gates > 0,
            "top-row mutation must reuse mapped gates: {stats:?}"
        );
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics_like_the_flow() {
        let mut session = EvalSession::new(
            SynthesisFlow::new(nangate45_like(), CircuitKind::Adder, 8),
            CostParams::new(0.5),
        );
        let _ = session.evaluate(&topologies::sklansky(12));
    }
}
