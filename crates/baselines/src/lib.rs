//! Search baselines for the CircuitVAE reproduction.
//!
//! The paper compares CircuitVAE against a genetic algorithm ("GA"), the
//! PrefixRL reinforcement-learning approach ("RL"), and latent Bayesian
//! optimization ("BO", implemented in the `circuitvae` crate because it
//! shares the VAE). This crate provides GA and a faithful-in-spirit
//! PrefixRL-lite DQN, plus simulated annealing and random search as extra
//! reference points.
//!
//! Every method is a step-based [`SearchDriver`] state machine
//! ([`SaDriver`], [`GaDriver`], [`RlDriver`], [`RandomSearchDriver`]):
//! the classic `run()` entry points below are thin wrappers that step a
//! driver to completion, and the `StdRng`-seeded driver constructors
//! additionally support full checkpoint/resume ([`Checkpointable`];
//! Contract 8 in `DESIGN.md` §7).
//!
//! ```no_run
//! use cv_baselines::{GaConfig, GeneticAlgorithm};
//! use cv_synth::{CachedEvaluator, CostParams, Objective, SynthesisFlow};
//! use cv_cells::nangate45_like;
//! use cv_prefix::CircuitKind;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let flow = SynthesisFlow::new(nangate45_like(), CircuitKind::Adder, 32);
//! let ev = CachedEvaluator::new(Objective::new(flow, CostParams::new(0.66)));
//! let mut rng = StdRng::seed_from_u64(0);
//! let ga = GeneticAlgorithm::new(32, GaConfig::default());
//! let outcome = ga.run(&ev, 1000, usize::MAX, false, &mut rng);
//! println!("best GA cost: {}", outcome.best_cost);
//! ```

#![deny(missing_docs)]

mod annealing;
mod ga;
mod random_search;
mod rl;

pub use annealing::{SaConfig, SaDriver, SimulatedAnnealing};
pub use circuitvae::driver::{run_archived, Checkpointable, SearchDriver, StepStatus};
pub use cv_synth::{eval_and_track, BestTracker, SearchOutcome};
pub use ga::{ga_initial_dataset, GaConfig, GaDriver, GaMode, GeneticAlgorithm};
pub use random_search::{random_search, RandomSearchDriver};
pub use rl::{PrefixRlLite, RlConfig, RlDriver};
