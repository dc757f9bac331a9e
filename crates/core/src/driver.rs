//! The step-based search engine: one driver trait for every method.
//!
//! Every search method in the workspace — SA, GA (weighted and
//! NSGA-II), PrefixRL-lite, random search, the CircuitVAE outer loop,
//! and the weight sweep — is implemented as a [`SearchDriver`]: an
//! explicit state machine advanced one small unit of work at a time by
//! [`SearchDriver::step`]. The monolithic `run()` loops of earlier
//! revisions are now thin wrappers that construct a driver and step it
//! to completion, so pausing, checkpointing, resuming, and streaming
//! telemetry work identically for every method.
//!
//! **Contract 8 (checkpoint/resume transparency, DESIGN.md §7):** for a
//! checkpointable driver, `run(budget)` is bit-for-bit equivalent to
//! `run(k); save; load; run(budget − k)` for any step boundary `k` —
//! the final [`SearchOutcome`] and any attached archive's front are
//! byte-identical. Budget accounting is unified on [`SimCounter`]
//! deltas: each step measures the counter before and after, so a driver
//! never cares whether its evaluator's counter started at zero (fresh
//! run) or was restored mid-flight (resume).
//!
//! [`SimCounter`]: cv_synth::SimCounter

use crate::config::{CircuitVaeConfig, InitStrategy, ModelArch, SearchRegularizer};
use cv_synth::ckpt::{CkptError, Dec, Enc};
use cv_synth::{CachedEvaluator, ParetoArchive, SearchOutcome};
use rand::rngs::StdRng;

/// What a driver did in one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStatus {
    /// More work remains; call [`SearchDriver::step`] again.
    Running,
    /// The search is finished; [`SearchDriver::outcome`] is available.
    Done,
}

/// A search method as an explicit, resumable state machine.
///
/// The lifecycle is `init` (the driver's constructor) → repeated
/// [`SearchDriver::step`] calls → [`SearchDriver::outcome`]. A step
/// performs the smallest unit of work consistent with the method's
/// budget-check placement (one SA move, one GA evaluation, one RL
/// environment step, one VAE acquisition round, one sweep rung), so a
/// driver can be paused at any step boundary. Budget checks live
/// *inside* `step` — placement differs per method and is part of each
/// method's pinned behavior.
pub trait SearchDriver {
    /// Advances the search by one unit of work. Idempotently returns
    /// [`StepStatus::Done`] once finished.
    fn step(&mut self, evaluator: &CachedEvaluator) -> StepStatus;

    /// Whether the search has finished.
    fn is_done(&self) -> bool {
        self.outcome().is_some()
    }

    /// Simulations consumed so far (accumulated counter deltas).
    fn sims_used(&self) -> usize;

    /// The simulation budget this driver was created with.
    fn budget(&self) -> usize;

    /// The final outcome; `None` until the driver reports done.
    fn outcome(&self) -> Option<&SearchOutcome>;

    /// Best scalar cost observed so far (`∞` before any observation) —
    /// the live telemetry signal campaign runners stream per round.
    fn best_cost(&self) -> f64 {
        self.outcome().map_or(f64::INFINITY, |o| o.best_cost)
    }

    /// Steps the driver to completion and returns the outcome — the
    /// uninterrupted `run(budget)` form of Contract 8.
    fn run_to_completion(&mut self, evaluator: &CachedEvaluator) -> SearchOutcome {
        while let StepStatus::Running = self.step(evaluator) {}
        self.outcome()
            .cloned()
            .expect("a driver that reported Done has an outcome")
    }
}

/// Drivers whose full state (tracker, position, RNG stream, model
/// weights, …) round-trips through checkpoint bytes.
///
/// [`Checkpointable::load`] must restore a state from which stepping
/// continues bit-for-bit as if never interrupted (Contract 8). The
/// evaluator is *not* part of driver state — resume across processes
/// additionally restores the evaluator via
/// [`CachedEvaluator::state`]/[`CachedEvaluator::restore_state`] so
/// cache-hit accounting matches the uninterrupted run.
pub trait Checkpointable: Sized {
    /// Serializes the full driver state.
    fn save(&self) -> Vec<u8>;

    /// Restores a driver saved by [`Checkpointable::save`].
    ///
    /// # Errors
    ///
    /// Returns [`CkptError`] on malformed bytes.
    fn load(bytes: &[u8]) -> Result<Self, CkptError>;
}

/// Runs a driver to completion with a fresh logging [`ParetoArchive`]
/// attached to the evaluator, restoring whatever archive was attached
/// before, and returns the outcome together with the frontier the run
/// traced.
///
/// This is the archive observation of the driver loop: archiving is
/// observation-only (DESIGN.md §6, Contract 7), so the driver behaves
/// bit-for-bit as it would without the capture.
pub fn run_archived<D: SearchDriver + ?Sized>(
    driver: &mut D,
    evaluator: &CachedEvaluator,
) -> (SearchOutcome, ParetoArchive) {
    let shared = ParetoArchive::new().with_log().into_shared();
    let previous = evaluator.attach_archive(shared.clone());
    let out = driver.run_to_completion(evaluator);
    match previous {
        Some(p) => {
            evaluator.attach_archive(p);
        }
        None => {
            evaluator.detach_archive();
        }
    }
    let archive = shared.lock().clone();
    (out, archive)
}

/// Writes an [`StdRng`]'s raw state into a checkpoint encoder.
pub fn write_rng(enc: &mut Enc, rng: &StdRng) {
    for w in rng.state() {
        enc.u64(w);
    }
}

/// Reads an [`StdRng`] written by [`write_rng`].
///
/// # Errors
///
/// Propagates [`CkptError`] on truncated input.
pub fn read_rng(dec: &mut Dec<'_>) -> Result<StdRng, CkptError> {
    let mut s = [0u64; 4];
    for w in &mut s {
        *w = dec.u64()?;
    }
    Ok(StdRng::from_state(s))
}

/// Writes an optional final outcome (the done/not-done tail every
/// checkpointable driver shares).
pub fn write_opt_outcome(enc: &mut Enc, outcome: Option<&SearchOutcome>) {
    enc.bool(outcome.is_some());
    if let Some(o) = outcome {
        o.write_ckpt(enc);
    }
}

/// Reads an optional outcome written by [`write_opt_outcome`].
///
/// # Errors
///
/// Propagates [`CkptError`] on malformed input.
pub fn read_opt_outcome(dec: &mut Dec<'_>) -> Result<Option<SearchOutcome>, CkptError> {
    if dec.bool()? {
        Ok(Some(SearchOutcome::read_ckpt(dec)?))
    } else {
        Ok(None)
    }
}

/// Writes a [`CircuitVaeConfig`] into a checkpoint encoder (every field,
/// enums as tagged variants).
pub fn write_vae_config(enc: &mut Enc, cfg: &CircuitVaeConfig) {
    enc.usize(cfg.latent_dim);
    match cfg.arch {
        ModelArch::Cnn { channels, hidden } => {
            enc.u64(0);
            enc.usize(channels);
            enc.usize(hidden);
        }
        ModelArch::Mlp { hidden } => {
            enc.u64(1);
            enc.usize(hidden);
        }
    }
    enc.f64(cfg.beta);
    enc.f64(cfg.lambda);
    enc.f64(cfg.rank_k);
    enc.bool(cfg.reweight_data);
    enc.usize(cfg.batch_size);
    enc.usize(cfg.train_steps_per_round);
    enc.usize(cfg.warmup_steps);
    enc.f32(cfg.lr);
    enc.usize(cfg.threads);
    enc.usize(cfg.trajectories);
    enc.usize(cfg.search_steps);
    enc.usize(cfg.capture_every);
    enc.f64(cfg.search_lr);
    match cfg.init {
        InitStrategy::CostWeighted => enc.u64(0),
        InitStrategy::Prior => enc.u64(1),
        InitStrategy::Sklansky => enc.u64(2),
    }
    match cfg.regularizer {
        SearchRegularizer::PriorLogUniform { lo, hi } => {
            enc.u64(0);
            enc.f64(lo);
            enc.f64(hi);
        }
        SearchRegularizer::PriorFixed { gamma } => {
            enc.u64(1);
            enc.f64(gamma);
        }
        SearchRegularizer::Box { radius } => {
            enc.u64(2);
            enc.f64(radius);
        }
        SearchRegularizer::None => enc.u64(3),
    }
    enc.usize(cfg.cost_head_hidden);
}

/// Reads a config written by [`write_vae_config`].
///
/// # Errors
///
/// Propagates [`CkptError`] on malformed input.
pub fn read_vae_config(dec: &mut Dec<'_>) -> Result<CircuitVaeConfig, CkptError> {
    let latent_dim = dec.usize()?;
    let arch = match dec.u64()? {
        0 => ModelArch::Cnn {
            channels: dec.usize()?,
            hidden: dec.usize()?,
        },
        1 => ModelArch::Mlp {
            hidden: dec.usize()?,
        },
        _ => return Err(CkptError::Invalid("ModelArch tag")),
    };
    Ok(CircuitVaeConfig {
        latent_dim,
        arch,
        beta: dec.f64()?,
        lambda: dec.f64()?,
        rank_k: dec.f64()?,
        reweight_data: dec.bool()?,
        batch_size: dec.usize()?,
        train_steps_per_round: dec.usize()?,
        warmup_steps: dec.usize()?,
        lr: dec.f32()?,
        threads: dec.usize()?,
        trajectories: dec.usize()?,
        search_steps: dec.usize()?,
        capture_every: dec.usize()?,
        search_lr: dec.f64()?,
        init: match dec.u64()? {
            0 => InitStrategy::CostWeighted,
            1 => InitStrategy::Prior,
            2 => InitStrategy::Sklansky,
            _ => return Err(CkptError::Invalid("InitStrategy tag")),
        },
        regularizer: match dec.u64()? {
            0 => SearchRegularizer::PriorLogUniform {
                lo: dec.f64()?,
                hi: dec.f64()?,
            },
            1 => SearchRegularizer::PriorFixed { gamma: dec.f64()? },
            2 => SearchRegularizer::Box { radius: dec.f64()? },
            3 => SearchRegularizer::None,
            _ => return Err(CkptError::Invalid("SearchRegularizer tag")),
        },
        cost_head_hidden: dec.usize()?,
    })
}
