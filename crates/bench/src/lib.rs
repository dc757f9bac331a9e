//! Experiment harness regenerating every table and figure of the
//! CircuitVAE paper (see `DESIGN.md` §5 for the experiment index).
//!
//! Binaries (one per paper artifact) live in `src/bin/`; criterion
//! smoke benches live in `benches/`. This library provides the shared
//! machinery: method dispatch, multi-seed statistics, and plain-text
//! table/series printers.

#![deny(missing_docs)]

pub mod campaign;
pub mod driver;
pub mod faults;
pub mod harness;
pub mod perf;
mod persist;
pub mod service;
pub mod stats;

pub use campaign::{run_campaign, run_units, JobSpec, TaskResult};
pub use driver::{make_driver, MethodDriver, VaeMethodDriver};
pub use harness::{
    build_evaluator, run_method, run_method_on, ExperimentSpec, Method, Scale, TechLibrary,
};
pub use perf::{validate_report, AbPerf, GemmPerf, PerfReport};
pub use stats::{
    hypervolume, hypervolume_within, igd, median_iqr, nadir_reference, pareto_filter,
    quantile_sorted, CurveSet, Quartiles,
};
