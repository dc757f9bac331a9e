//! The CircuitVAE outer loop (Algorithm 1): alternate model refitting
//! with latent-space acquisition until the simulation budget is spent.

use crate::bo::{propose_by_ei, BoConfig};
use crate::config::CircuitVaeConfig;
use crate::dataset::Dataset;
use crate::driver::{
    read_opt_outcome, read_rng, read_vae_config, write_opt_outcome, write_rng, write_vae_config,
    Checkpointable, SearchDriver, StepStatus,
};
use crate::model::CircuitVaeModel;
use crate::search::{decode_candidates, initial_latents, run_trajectories};
use crate::train;
use cv_gp::Kernel;
use cv_nn::ParamStore;
use cv_prefix::{mutate, PrefixGrid};
use cv_synth::ckpt::{CkptError, Dec, Enc};
use cv_synth::{BestTracker, CachedEvaluator, SearchOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// How new designs are acquired from the shared latent space each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Acquisition {
    /// Prior-regularized gradient descent through the cost predictor —
    /// the CircuitVAE method.
    GradientSearch,
    /// GP Expected Improvement in the latent space — the "BO" baseline.
    BayesOpt,
}

/// Per-round diagnostics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoundReport {
    /// Round index (0-based).
    pub round: usize,
    /// Simulations consumed so far (this run).
    pub sims_used: usize,
    /// Best cost so far.
    pub best_cost: f64,
    /// Mean training loss of the round.
    pub train_loss: f64,
    /// Candidates proposed this round.
    pub proposed: usize,
    /// Of those, how many were new designs (cache misses).
    pub newly_simulated: usize,
}

/// The CircuitVAE optimizer.
pub struct CircuitVae {
    config: CircuitVaeConfig,
    acquisition: Acquisition,
    bo_config: BoConfig,
    model: CircuitVaeModel,
    store: ParamStore,
    dataset: Dataset,
    rng: StdRng,
    rounds_done: usize,
    reports: Vec<RoundReport>,
}

impl CircuitVae {
    /// Creates an optimizer for `width`-bit circuits from an initial
    /// dataset of `(design, cost)` pairs (the paper seeds with early GA
    /// generations; those simulations count against the budget via the
    /// shared evaluator).
    pub fn new(
        width: usize,
        config: CircuitVaeConfig,
        initial: Vec<(PrefixGrid, f64)>,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let model = CircuitVaeModel::new(&mut store, &config, width, &mut rng);
        let dataset = Dataset::new(width, initial);
        CircuitVae {
            config,
            acquisition: Acquisition::GradientSearch,
            bo_config: BoConfig::default(),
            model,
            store,
            dataset,
            rng,
            rounds_done: 0,
            reports: Vec::new(),
        }
    }

    /// Switches the acquisition strategy (gradient search vs BO).
    #[must_use]
    pub fn with_acquisition(mut self, acquisition: Acquisition) -> Self {
        self.acquisition = acquisition;
        self
    }

    /// The model (for analysis binaries).
    pub fn model(&self) -> &CircuitVaeModel {
        &self.model
    }

    /// The parameter store.
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// The dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The configuration.
    pub fn config(&self) -> &CircuitVaeConfig {
        &self.config
    }

    /// Per-round reports accumulated so far.
    pub fn reports(&self) -> &[RoundReport] {
        &self.reports
    }

    /// Runs Algorithm 1 until `budget` simulations (counted by the
    /// evaluator relative to its state at call time) are consumed — the
    /// monolithic form of stepping a [`CircuitVaeDriver`].
    pub fn run(&mut self, evaluator: &CachedEvaluator, budget: usize) -> SearchOutcome {
        let start = evaluator.counter().count();
        let used = |ev: &CachedEvaluator| ev.counter().count() - start;
        let mut tracker = BestTracker::new(false);
        // Seed the curve with the initial dataset's best.
        if let Some((g, c)) = self.dataset.best().map(|(g, c)| (g.clone(), *c)) {
            tracker.observe(used(evaluator), &g, c);
        }

        while used(evaluator) < budget {
            let u = used(evaluator);
            let report = self.step_round(evaluator, u, budget - u, &mut tracker);
            self.reports.push(report);
        }
        tracker.finish(used(evaluator));
        tracker.into_outcome()
    }

    /// One Algorithm-1 iteration: reweight, refit, acquire, simulate,
    /// absorb. `used_before` is how many simulations this run had
    /// consumed on entry (the tracker's budget axis continues from it);
    /// `remaining` caps how many new simulations may be spent. Budget
    /// accounting is relative — counter deltas only — so a round behaves
    /// identically on a fresh evaluator and on one restored mid-flight.
    pub(crate) fn step_round(
        &mut self,
        evaluator: &CachedEvaluator,
        used_before: usize,
        remaining: usize,
        tracker: &mut BestTracker,
    ) -> RoundReport {
        let cfg = self.config.clone();
        // Line 4: recompute sample weights.
        self.dataset
            .recompute_weights(cfg.rank_k, cfg.reweight_data);
        // Line 5: fit VAE + cost predictor.
        let steps = if self.rounds_done == 0 {
            cfg.warmup_steps
        } else {
            cfg.train_steps_per_round
        };
        let train_loss = if self.dataset.is_empty() {
            0.0
        } else {
            train::train(
                &self.model,
                &mut self.store,
                &self.dataset,
                &cfg,
                steps,
                &mut self.rng,
            )
        };

        // Lines 6-9: acquire candidate designs.
        let latents: Vec<Vec<f32>> = match self.acquisition {
            Acquisition::GradientSearch => {
                let starts = initial_latents(
                    &self.model,
                    &self.store,
                    &self.dataset,
                    cfg.init,
                    cfg.trajectories,
                    &mut self.rng,
                );
                run_trajectories(&self.model, &self.store, starts, &cfg, &mut self.rng)
                    .into_iter()
                    .flat_map(|r| r.points.into_iter().map(|p| p.z))
                    .collect()
            }
            Acquisition::BayesOpt => {
                let per_round = cfg.trajectories * cfg.search_steps.div_ceil(cfg.capture_every);
                propose_by_ei(
                    &self.model,
                    &self.store,
                    &self.dataset,
                    &self.bo_config,
                    per_round,
                    &mut self.rng,
                )
            }
        };
        let mut candidates = decode_candidates(&self.model, &self.store, &latents, &mut self.rng);

        // Exploration floor: if the decoder collapses to known designs the
        // round would spend no budget and the loop would stall; pad with
        // random neighbours of the current best (still counted sims).
        let known: std::collections::HashSet<PrefixGrid> = self
            .dataset
            .entries()
            .iter()
            .map(|(g, _)| {
                if g.is_legal() {
                    g.clone()
                } else {
                    g.legalized()
                }
            })
            .collect();
        let fresh = candidates
            .iter()
            .filter(|g| !known.contains(&g.legalized()))
            .count();
        if fresh == 0 {
            let base = self
                .dataset
                .best()
                .map(|(g, _)| g.clone())
                .unwrap_or_else(|| PrefixGrid::ripple(self.model.width()));
            for _ in 0..cfg.trajectories {
                candidates.push(mutate::neighbour(&base, &mut self.rng));
            }
        }

        // Line 10: query the black box (respecting the remaining budget).
        let before = evaluator.counter().count();
        let mut proposed = 0usize;
        for grid in candidates {
            if evaluator.counter().count() - before >= remaining {
                break;
            }
            proposed += 1;
            let rec = evaluator.evaluate(&grid);
            tracker.observe(
                used_before + (evaluator.counter().count() - before),
                &grid,
                rec.cost,
            );
            // Line 11: D ← D ∪ D_i (store the legalized twin so dataset
            // keys match evaluator cache keys).
            let key = if grid.is_legal() {
                grid
            } else {
                grid.legalized()
            };
            self.dataset.insert(key, rec.cost);
        }
        let newly = evaluator.counter().count() - before;

        self.rounds_done += 1;
        RoundReport {
            round: self.rounds_done - 1,
            sims_used: used_before + newly,
            best_cost: tracker.best_cost(),
            train_loss,
            proposed,
            newly_simulated: newly,
        }
    }

    /// Writes the optimizer's full state (config, weights, dataset, RNG
    /// stream, round reports) into a checkpoint encoder.
    pub(crate) fn write_ckpt(&self, enc: &mut Enc) {
        enc.usize(self.model.width());
        write_vae_config(enc, &self.config);
        enc.bool(self.acquisition == Acquisition::BayesOpt);
        enc.usize(self.bo_config.max_gp_points);
        enc.usize(self.bo_config.pool);
        enc.f64(self.bo_config.noise);
        enc.bool(self.bo_config.kernel == Kernel::Matern52);
        enc.bytes(&self.store.to_bytes());
        let entries = self.dataset.entries();
        enc.usize(entries.len());
        for (g, c) in entries {
            enc.grid(g);
            enc.f64(*c);
        }
        write_rng(enc, &self.rng);
        enc.usize(self.rounds_done);
        enc.usize(self.reports.len());
        for r in &self.reports {
            enc.usize(r.round);
            enc.usize(r.sims_used);
            enc.f64(r.best_cost);
            enc.f64(r.train_loss);
            enc.usize(r.proposed);
            enc.usize(r.newly_simulated);
        }
    }

    /// Reads an optimizer written by [`CircuitVae::write_ckpt`]. The
    /// model architecture is rebuilt from the config (layer registration
    /// order is deterministic) and its weights overwritten from the
    /// serialized store, so the restored optimizer trains and searches
    /// bit-for-bit like the original.
    pub(crate) fn read_ckpt(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        let width = dec.usize()?;
        let config = read_vae_config(dec)?;
        let acquisition = if dec.bool()? {
            Acquisition::BayesOpt
        } else {
            Acquisition::GradientSearch
        };
        let bo_config = BoConfig {
            max_gp_points: dec.usize()?,
            pool: dec.usize()?,
            noise: dec.f64()?,
            kernel: if dec.bool()? {
                Kernel::Matern52
            } else {
                Kernel::Rbf
            },
        };
        let store = ParamStore::from_bytes(dec.bytes()?)
            .map_err(|_| CkptError::Invalid("vae param store"))?;
        let n = dec.seq_len()?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push((dec.grid()?, dec.f64()?));
        }
        let rng = read_rng(dec)?;
        let rounds_done = dec.usize()?;
        let n = dec.seq_len()?;
        let mut reports = Vec::with_capacity(n);
        for _ in 0..n {
            reports.push(RoundReport {
                round: dec.usize()?,
                sims_used: dec.usize()?,
                best_cost: dec.f64()?,
                train_loss: dec.f64()?,
                proposed: dec.usize()?,
                newly_simulated: dec.usize()?,
            });
        }
        // Rebuild architecture handles against a scratch store; the
        // deserialized store then slots in because registration order is
        // deterministic for a given (config, width).
        let mut scratch = ParamStore::new();
        let model =
            CircuitVaeModel::new(&mut scratch, &config, width, &mut StdRng::seed_from_u64(0));
        if !scratch.same_layout(&store) {
            return Err(CkptError::Invalid("vae store layout"));
        }
        Ok(CircuitVae {
            config,
            acquisition,
            bo_config,
            model,
            store,
            dataset: Dataset::new(width, entries),
            rng,
            rounds_done,
            reports,
        })
    }
}

/// The CircuitVAE outer loop as a step-based [`SearchDriver`]: one
/// Algorithm-1 acquisition round per step. Checkpoints carry the full
/// optimizer — VAE + cost-predictor weights with Adam state, the growing
/// dataset, the RNG stream, and the best-so-far tracker — so a resumed
/// run retrains and re-acquires bit-for-bit (Contract 8).
pub struct CircuitVaeDriver {
    vae: CircuitVae,
    budget: usize,
    used: usize,
    tracker: BestTracker,
    started: bool,
    outcome: Option<SearchOutcome>,
}

impl CircuitVaeDriver {
    /// A driver over a fresh optimizer (see [`CircuitVae::new`]).
    pub fn new(
        width: usize,
        config: CircuitVaeConfig,
        initial: Vec<(PrefixGrid, f64)>,
        seed: u64,
        budget: usize,
    ) -> Self {
        Self::from_vae(CircuitVae::new(width, config, initial, seed), budget)
    }

    /// Wraps an existing optimizer (e.g. one carrying acquisition /
    /// BO-config overrides) for `budget` further simulations.
    pub fn from_vae(vae: CircuitVae, budget: usize) -> Self {
        CircuitVaeDriver {
            vae,
            budget,
            used: 0,
            tracker: BestTracker::new(false),
            started: false,
            outcome: None,
        }
    }

    /// The wrapped optimizer (model, dataset, reports).
    pub fn vae(&self) -> &CircuitVae {
        &self.vae
    }

    /// Unwraps the optimizer, e.g. to carry its dataset into the next
    /// sweep rung.
    pub fn into_vae(self) -> CircuitVae {
        self.vae
    }
}

impl SearchDriver for CircuitVaeDriver {
    fn step(&mut self, evaluator: &CachedEvaluator) -> StepStatus {
        if self.outcome.is_some() {
            return StepStatus::Done;
        }
        if !self.started {
            self.started = true;
            // Seed the curve with the initial dataset's best.
            if let Some((g, c)) = self.vae.dataset.best().map(|(g, c)| (g.clone(), *c)) {
                self.tracker.observe(self.used, &g, c);
            }
            return StepStatus::Running;
        }
        if self.used >= self.budget {
            let mut tracker = std::mem::replace(&mut self.tracker, BestTracker::new(false));
            tracker.finish(self.used);
            self.outcome = Some(tracker.into_outcome());
            return StepStatus::Done;
        }
        let before = evaluator.counter().count();
        let u = self.used;
        let report = self
            .vae
            .step_round(evaluator, u, self.budget - u, &mut self.tracker);
        self.vae.reports.push(report);
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

const DRIVER_MAGIC: &[u8; 8] = b"CVDRVA01";

impl Checkpointable for CircuitVaeDriver {
    fn save(&self) -> Vec<u8> {
        let mut enc = Enc::with_magic(DRIVER_MAGIC);
        self.vae.write_ckpt(&mut enc);
        enc.usize(self.budget);
        enc.usize(self.used);
        self.tracker.write_ckpt(&mut enc);
        enc.bool(self.started);
        write_opt_outcome(&mut enc, self.outcome.as_ref());
        enc.finish()
    }

    fn load(bytes: &[u8]) -> Result<Self, CkptError> {
        let mut dec = Dec::with_magic(bytes, DRIVER_MAGIC)?;
        let vae = CircuitVae::read_ckpt(&mut dec)?;
        let budget = dec.usize()?;
        let used = dec.usize()?;
        let tracker = BestTracker::read_ckpt(&mut dec)?;
        let started = dec.bool()?;
        let outcome = read_opt_outcome(&mut dec)?;
        dec.finish()?;
        Ok(CircuitVaeDriver {
            vae,
            budget,
            used,
            tracker,
            started,
            outcome,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_baselines_shim::ga_like_dataset;
    use cv_cells::nangate45_like;
    use cv_prefix::CircuitKind;
    use cv_synth::{CostParams, Objective, SynthesisFlow};

    /// Local stand-in for `cv_baselines::ga_initial_dataset` (that crate
    /// depends on us transitively through the bench harness; tests here
    /// build datasets from random sampling instead).
    mod cv_baselines_shim {
        use super::*;
        use rand::Rng;

        pub fn ga_like_dataset(
            width: usize,
            evaluator: &CachedEvaluator,
            count: usize,
            seed: u64,
        ) -> Vec<(PrefixGrid, f64)> {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut out = Vec::new();
            let mut seen = std::collections::HashSet::new();
            while out.len() < count {
                let g = mutate::random_grid(width, rng.gen_range(0.05..0.4), &mut rng);
                if seen.insert(g.clone()) {
                    let rec = evaluator.evaluate(&g);
                    out.push((g, rec.cost));
                }
            }
            out
        }
    }

    fn evaluator(n: usize) -> CachedEvaluator {
        let flow = SynthesisFlow::new(nangate45_like(), CircuitKind::Adder, n);
        CachedEvaluator::new(Objective::new(flow, CostParams::new(0.66)))
    }

    #[test]
    fn full_loop_improves_over_initial_data() {
        let width = 10;
        let ev = evaluator(width);
        let initial = ga_like_dataset(width, &ev, 40, 7);
        let init_sims = ev.counter().count();
        let init_best = initial
            .iter()
            .map(|(_, c)| *c)
            .fold(f64::INFINITY, f64::min);
        let mut vae = CircuitVae::new(width, CircuitVaeConfig::smoke(width), initial, 42);
        let out = vae.run(&ev, 160);
        assert!(
            out.best_cost <= init_best,
            "{} vs {init_best}",
            out.best_cost
        );
        assert!(out.best_grid.is_some());
        assert!(!vae.reports().is_empty());
        assert!(ev.counter().count() <= init_sims + 160, "budget respected");
    }

    #[test]
    fn bo_acquisition_also_runs() {
        let width = 10;
        let ev = evaluator(width);
        let initial = ga_like_dataset(width, &ev, 30, 9);
        let mut vae = CircuitVae::new(width, CircuitVaeConfig::smoke(width), initial, 43)
            .with_acquisition(Acquisition::BayesOpt);
        let out = vae.run(&ev, 120);
        assert!(out.best_cost.is_finite());
    }

    #[test]
    fn driver_matches_run_and_resumes_bitwise() {
        use crate::driver::{Checkpointable, SearchDriver, StepStatus};
        let width = 10;
        let ev = evaluator(width);
        let initial = ga_like_dataset(width, &ev, 20, 3);
        let mut vae = CircuitVae::new(width, CircuitVaeConfig::smoke(width), initial, 9);
        let legacy = vae.run(&ev, 60);

        // Same run through the driver, with a save/load round trip and a
        // fresh snapshot-restored evaluator in the middle.
        let ev2 = evaluator(width);
        let initial2 = ga_like_dataset(width, &ev2, 20, 3);
        let mut d = CircuitVaeDriver::new(width, CircuitVaeConfig::smoke(width), initial2, 9, 60);
        while d.sims_used() < 25 {
            assert_eq!(d.step(&ev2), StepStatus::Running);
        }
        let bytes = d.save();
        let snap = ev2.state();
        drop(d);
        drop(ev2);
        let ev3 = evaluator(width);
        ev3.restore_state(&snap);
        let mut d = CircuitVaeDriver::load(&bytes).unwrap();
        let resumed = d.run_to_completion(&ev3);
        assert_eq!(resumed.to_ckpt_bytes(), legacy.to_ckpt_bytes());
        assert_eq!(d.vae().reports().len(), vae.reports().len());
    }

    #[test]
    fn checkpoint_with_a_foreign_store_layout_is_rejected() {
        let width = 8;
        let config = CircuitVaeConfig::smoke(width);
        let roundtrip = |vae: &CircuitVae| {
            let mut enc = Enc::new();
            vae.write_ckpt(&mut enc);
            let bytes = enc.finish();
            CircuitVae::read_ckpt(&mut Dec::new(&bytes))
        };
        let mut vae = CircuitVae::new(width, config.clone(), Vec::new(), 5);
        assert!(roundtrip(&vae).is_ok());
        // Same parameter count, other shapes: the next training step
        // would panic in a matmul.
        let other = CircuitVaeConfig {
            latent_dim: config.latent_dim + 4,
            ..config
        };
        vae.store = CircuitVae::new(width, other, Vec::new(), 5).store;
        assert!(matches!(roundtrip(&vae), Err(CkptError::Invalid(_))));
    }

    #[test]
    fn rounds_report_budget_progress() {
        let width = 10;
        let ev = evaluator(width);
        let initial = ga_like_dataset(width, &ev, 20, 11);
        let mut vae = CircuitVae::new(width, CircuitVaeConfig::smoke(width), initial, 44);
        let _ = vae.run(&ev, 80);
        let reports = vae.reports();
        assert!(!reports.is_empty());
        for w in reports.windows(2) {
            assert!(w[1].sims_used >= w[0].sims_used);
            assert!(w[1].best_cost <= w[0].best_cost);
        }
    }
}
