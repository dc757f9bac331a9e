//! Simulated annealing over prefix grids (cf. Moto & Kaneko, ISCAS 2018
//! — heuristic search baselines in the paper's related work), as a
//! step-based [`SearchDriver`].

use circuitvae::driver::{
    read_opt_outcome, read_rng, write_opt_outcome, write_rng, Checkpointable, SearchDriver,
    StepStatus,
};
use cv_prefix::{mutate, topologies, PrefixGrid};
use cv_synth::ckpt::{CkptError, Dec, Enc};
use cv_synth::CachedEvaluator;
use cv_synth::{eval_and_track, BestTracker, SearchOutcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Annealing schedule parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SaConfig {
    /// Starting temperature (in cost units).
    pub t_start: f64,
    /// Final temperature.
    pub t_end: f64,
    /// Restart from the best-so-far when stuck for this many moves.
    pub restart_after: usize,
}

impl Default for SaConfig {
    fn default() -> Self {
        SaConfig {
            t_start: 0.5,
            t_end: 0.005,
            restart_after: 200,
        }
    }
}

/// Simulated-annealing searcher (the configuration half; the run state
/// lives in [`SaDriver`]).
#[derive(Debug, Clone)]
pub struct SimulatedAnnealing {
    config: SaConfig,
    width: usize,
}

impl SimulatedAnnealing {
    /// Creates an annealer for `width`-bit circuits.
    pub fn new(width: usize, config: SaConfig) -> Self {
        SimulatedAnnealing { config, width }
    }

    /// Runs until `budget` simulations are consumed, by stepping an
    /// [`SaDriver`] to completion on the caller's RNG.
    pub fn run<R: Rng + ?Sized>(
        &self,
        evaluator: &CachedEvaluator,
        budget: usize,
        rng: &mut R,
    ) -> SearchOutcome {
        SaDriver::with_rng(self.width, self.config, budget, rng).run_to_completion(evaluator)
    }
}

/// The SA state machine: seed evaluation, then one mutate-evaluate-accept
/// move per step.
#[derive(Debug)]
pub struct SaDriver<R = StdRng> {
    width: usize,
    config: SaConfig,
    budget: usize,
    used: usize,
    tracker: BestTracker,
    /// `None` until the Sklansky seed has been evaluated.
    current: Option<(PrefixGrid, f64)>,
    stuck: usize,
    rng: R,
    outcome: Option<SearchOutcome>,
}

impl SaDriver<StdRng> {
    /// A checkpointable driver seeded from `seed`.
    pub fn new(width: usize, config: SaConfig, budget: usize, seed: u64) -> Self {
        Self::with_rng(width, config, budget, StdRng::seed_from_u64(seed))
    }
}

impl<R: Rng> SaDriver<R> {
    /// A driver over a caller-supplied RNG (used by the legacy
    /// [`SimulatedAnnealing::run`] wrapper; not checkpointable unless
    /// `R = StdRng`).
    pub fn with_rng(width: usize, config: SaConfig, budget: usize, rng: R) -> Self {
        SaDriver {
            width,
            config,
            budget,
            used: 0,
            tracker: BestTracker::new(false),
            current: None,
            stuck: 0,
            rng,
            outcome: None,
        }
    }

    fn finish(&mut self) {
        let mut tracker = std::mem::replace(&mut self.tracker, BestTracker::new(false));
        tracker.finish(self.used);
        self.outcome = Some(tracker.into_outcome());
    }
}

impl<R: Rng> SearchDriver for SaDriver<R> {
    fn step(&mut self, evaluator: &CachedEvaluator) -> StepStatus {
        if self.outcome.is_some() {
            return StepStatus::Done;
        }
        let before = evaluator.counter().count();
        match self.current.take() {
            None => {
                // Seed evaluation happens regardless of budget, exactly
                // like the pre-driver loop did.
                let g = topologies::sklansky(self.width);
                let c = eval_and_track(evaluator, &mut self.tracker, &g);
                self.current = Some((g, c));
            }
            Some((current, current_cost)) => {
                if self.used >= self.budget {
                    self.current = Some((current, current_cost));
                    self.finish();
                    return StepStatus::Done;
                }
                let frac = self.used as f64 / self.budget.max(1) as f64;
                let temp =
                    self.config.t_start * (self.config.t_end / self.config.t_start).powf(frac);
                let cand = mutate::neighbour(&current, &mut self.rng);
                // The best-so-far lives in the shared tracker (not a
                // local copy); read it before the observation so "did
                // this move improve on the best" keeps its strict-<
                // meaning.
                let best_before = self.tracker.best_cost();
                let cand_cost = eval_and_track(evaluator, &mut self.tracker, &cand);
                // Short-circuit preserved: the acceptance draw only
                // advances the RNG when the move is not an improvement.
                let accept = cand_cost < current_cost
                    || self
                        .rng
                        .gen_bool(((current_cost - cand_cost) / temp).exp().clamp(0.0, 1.0));
                self.current = if accept {
                    Some((cand, cand_cost))
                } else {
                    Some((current, current_cost))
                };
                if cand_cost < best_before {
                    self.stuck = 0;
                } else {
                    self.stuck += 1;
                    if self.stuck >= self.config.restart_after {
                        let g = self
                            .tracker
                            .best_grid()
                            .expect("at least the seed was observed")
                            .clone();
                        self.current = Some((g, self.tracker.best_cost()));
                        self.stuck = 0;
                    }
                }
            }
        }
        self.used += evaluator.counter().count() - before;
        StepStatus::Running
    }

    fn sims_used(&self) -> usize {
        self.used
    }

    fn budget(&self) -> usize {
        self.budget
    }

    fn outcome(&self) -> Option<&SearchOutcome> {
        self.outcome.as_ref()
    }

    fn best_cost(&self) -> f64 {
        self.outcome
            .as_ref()
            .map_or_else(|| self.tracker.best_cost(), |o| o.best_cost)
    }
}

const MAGIC: &[u8; 8] = b"CVDRSA01";

impl Checkpointable for SaDriver<StdRng> {
    fn save(&self) -> Vec<u8> {
        let mut enc = Enc::with_magic(MAGIC);
        enc.usize(self.width);
        enc.f64(self.config.t_start);
        enc.f64(self.config.t_end);
        enc.usize(self.config.restart_after);
        enc.usize(self.budget);
        enc.usize(self.used);
        self.tracker.write_ckpt(&mut enc);
        enc.bool(self.current.is_some());
        if let Some((g, c)) = &self.current {
            enc.grid(g);
            enc.f64(*c);
        }
        enc.usize(self.stuck);
        write_rng(&mut enc, &self.rng);
        write_opt_outcome(&mut enc, self.outcome.as_ref());
        enc.finish()
    }

    fn load(bytes: &[u8]) -> Result<Self, CkptError> {
        let mut dec = Dec::with_magic(bytes, MAGIC)?;
        let width = dec.usize()?;
        let config = SaConfig {
            t_start: dec.f64()?,
            t_end: dec.f64()?,
            restart_after: dec.usize()?,
        };
        let budget = dec.usize()?;
        let used = dec.usize()?;
        let tracker = BestTracker::read_ckpt(&mut dec)?;
        let current = if dec.bool()? {
            Some((dec.grid()?, dec.f64()?))
        } else {
            None
        };
        let stuck = dec.usize()?;
        let rng = read_rng(&mut dec)?;
        let outcome = read_opt_outcome(&mut dec)?;
        dec.finish()?;
        Ok(SaDriver {
            width,
            config,
            budget,
            used,
            tracker,
            current,
            stuck,
            rng,
            outcome,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_cells::nangate45_like;
    use cv_prefix::CircuitKind;
    use cv_synth::{CostParams, Objective, SynthesisFlow};

    #[test]
    fn sa_improves_on_seed() {
        let flow = SynthesisFlow::new(nangate45_like(), CircuitKind::Adder, 12);
        let ev = CachedEvaluator::new(Objective::new(flow, CostParams::new(0.66)));
        let mut rng = StdRng::seed_from_u64(3);
        let sa = SimulatedAnnealing::new(12, SaConfig::default());
        let out = sa.run(&ev, 120, &mut rng);
        let seed_cost = out.history.first().unwrap().1;
        assert!(out.best_cost <= seed_cost);
        assert!(ev.counter().count() <= 120);
    }

    #[test]
    fn stepped_driver_matches_run_and_resumes_bitwise() {
        let make_ev = || {
            let flow = SynthesisFlow::new(nangate45_like(), CircuitKind::Adder, 10);
            CachedEvaluator::new(Objective::new(flow, CostParams::new(0.5)))
        };
        let ev = make_ev();
        let mut rng = StdRng::seed_from_u64(7);
        let legacy = SimulatedAnnealing::new(10, SaConfig::default()).run(&ev, 60, &mut rng);

        // Stepped with a save/load round trip in the middle (including a
        // fresh evaluator restored from a snapshot).
        let ev2 = make_ev();
        let mut d = SaDriver::new(10, SaConfig::default(), 60, 7);
        while d.sims_used() < 23 {
            assert_eq!(d.step(&ev2), StepStatus::Running);
        }
        let bytes = d.save();
        let snap = ev2.state();
        drop(d);
        drop(ev2);
        let ev3 = make_ev();
        ev3.restore_state(&snap);
        let mut d = SaDriver::load(&bytes).unwrap();
        let resumed = d.run_to_completion(&ev3);
        assert_eq!(resumed.to_ckpt_bytes(), legacy.to_ckpt_bytes());
    }
}
