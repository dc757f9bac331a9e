//! Physical-synthesis simulator and the circuit cost function.
//!
//! This crate stands in for the paper's OpenPhySyn/OpenROAD flow: it
//! takes a prefix grid, maps it (`cv-netlist`), repairs high-fanout nets
//! with buffers, greedily sizes gates along the critical path, runs
//! timing (`cv-sta`), and reports post-synthesis PPA. On top of that it
//! defines the paper's scalar cost
//! `f(x) = ω·10·delay_ns + (1−ω)·area_um2/100` and provides a cached
//! evaluator with simulation-count accounting (the "budget" all the
//! search algorithms are compared on).
//!
//! ```
//! use cv_synth::{SynthesisFlow, CostParams, Objective};
//! use cv_prefix::{topologies, CircuitKind};
//! use cv_cells::nangate45_like;
//!
//! let flow = SynthesisFlow::new(nangate45_like(), CircuitKind::Adder, 32);
//! let ppa = flow.synthesize(&topologies::sklansky(32));
//! let cost = CostParams::new(0.66).cost(&ppa);
//! assert!(cost > 0.0);
//! ```

#![deny(missing_docs)]

mod buffering;
pub mod ckpt;
mod commercial;
mod cost;
mod evaluator;
mod flow;
mod pareto;
mod session;
mod sizing;
mod tracking;

pub use buffering::buffer_high_fanout;
pub use commercial::CommercialTool;
pub use cost::{CostParams, PpaReport};
pub use evaluator::{CachedEvaluator, EvalRecord, EvaluatorState, Objective, SimCounter};
pub use flow::{SynthesisConfig, SynthesisFlow};
pub use pareto::{
    crowding_distance, dominates, dominates_xy, non_dominated_sort, Observation, ParetoArchive,
    ParetoPoint, SharedArchive,
};
pub use session::EvalSession;
pub use sizing::{size_gates, size_gates_incremental};
pub use tracking::{eval_and_track, eval_record_and_track, BestTracker, SearchOutcome};
