//! Algorithm 1 over a delay-weight sweep: the frontier-producing form of
//! CircuitVAE.
//!
//! The paper's headline figures compare *tradeoff curves*, not single
//! designs: each method is run at several scalarization weights ω and
//! the union of what it finds is plotted in the (area, delay) plane.
//! This module walks that ladder for the latent search. Each rung gets
//! its own [`CachedEvaluator`] (the flow's sizing weight follows ω), and
//! consecutive rungs are **warm-started**: the best designs the previous
//! rung discovered are re-scored under the new objective and seed the
//! next rung's dataset. A [`SharedArchive`] attached to every rung's
//! evaluator accumulates the overall frontier for free.

use crate::algorithm::CircuitVae;
use crate::config::CircuitVaeConfig;
use crate::driver::{SearchDriver, StepStatus};
use cv_prefix::{mutate, topologies, PrefixGrid};
use cv_synth::{BestTracker, CachedEvaluator, SearchOutcome, SharedArchive};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Sweep hyperparameters.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// The delay weights ω to visit, in order.
    pub weights: Vec<f64>,
    /// Total simulation budget per weight (warm-start re-scoring and
    /// fresh initial sampling are charged against it, as in the paper).
    pub budget_per_weight: usize,
    /// How many designs are carried from one rung to the next (the
    /// warm-start set: the previous rung's best by its own cost).
    pub carry: usize,
    /// Random designs evaluated to seed the *first* rung (later rungs
    /// are seeded by the carry set).
    pub cold_start_samples: usize,
    /// Whether the first rung's dataset also includes the classical
    /// human designs (a handful of counted simulations). On by default:
    /// SA seeds from Sklansky and RL resets to ripple, so giving the
    /// latent sweep the same classical reference points keeps the
    /// frontier comparison symmetric.
    pub seed_classical: bool,
}

impl SweepConfig {
    /// A sweep over `weights` sized for `budget_per_weight` simulations
    /// per rung.
    pub fn new(weights: Vec<f64>, budget_per_weight: usize) -> Self {
        assert!(!weights.is_empty(), "a sweep needs at least one weight");
        SweepConfig {
            weights,
            budget_per_weight,
            carry: 24,
            cold_start_samples: 16,
            seed_classical: true,
        }
    }
}

/// One rung of a completed sweep.
#[derive(Debug, Clone)]
pub struct SweepRung {
    /// The delay weight ω this rung optimized.
    pub delay_weight: f64,
    /// The rung's merged outcome (warm-start/initialization simulations
    /// included in the curve, as in the paper's budget accounting).
    pub outcome: SearchOutcome,
}

/// Runs Algorithm 1 once per weight in `sweep.weights`, warm-starting
/// each rung from the previous rung's re-scored best designs.
/// `make_evaluator` builds the evaluator for a given ω (the caller owns
/// tech/IO/width policy); `archive`, when given, is attached to every
/// rung's evaluator so the whole sweep feeds one frontier.
///
/// Deterministic for a fixed `(sweep, seed)`: rung `i` trains and
/// searches with seed `seed + i` streams.
pub fn run_weight_sweep(
    width: usize,
    base_config: &CircuitVaeConfig,
    sweep: &SweepConfig,
    make_evaluator: impl Fn(f64) -> CachedEvaluator,
    archive: Option<&SharedArchive>,
    seed: u64,
) -> Vec<SweepRung> {
    let mut driver = SweepDriver::new(
        width,
        base_config.clone(),
        sweep.clone(),
        make_evaluator,
        archive.cloned(),
        seed,
    );
    driver.run_all();
    driver.into_rungs()
}

/// The weight sweep as a step-based [`SearchDriver`]: one rung —
/// warm-start seeding plus a full Algorithm-1 run under one ω — per
/// step.
///
/// The driver owns its per-rung evaluators (built through the factory
/// it was constructed with), so the evaluator passed to
/// [`SearchDriver::step`] is ignored — prefer the evaluator-free
/// [`SweepDriver::advance`]/[`SweepDriver::run_all`] entry points. In
/// particular, do **not** wrap a sweep in
/// [`run_archived`](crate::driver::run_archived): the archive it
/// attaches lands on the ignored placeholder; pass the archive to
/// [`SweepDriver::new`] instead.
pub struct SweepDriver<F> {
    width: usize,
    base_config: CircuitVaeConfig,
    sweep: SweepConfig,
    factory: F,
    archive: Option<SharedArchive>,
    seed: u64,
    rng: StdRng,
    carry: Vec<PrefixGrid>,
    consumed_total: usize,
    rung_idx: usize,
    rungs: Vec<SweepRung>,
    /// Cumulative simulations consumed before each completed rung (the
    /// shift that puts rung curves on one budget axis).
    offsets: Vec<usize>,
    outcome: Option<SearchOutcome>,
}

impl<F: Fn(f64) -> CachedEvaluator> SweepDriver<F> {
    /// A driver for `sweep` over `width`-bit circuits. `factory` builds
    /// the evaluator for a given ω (the caller owns tech/IO/width
    /// policy); `archive`, when given, observes every rung with a
    /// cumulative simulation axis.
    pub fn new(
        width: usize,
        base_config: CircuitVaeConfig,
        sweep: SweepConfig,
        factory: F,
        archive: Option<SharedArchive>,
        seed: u64,
    ) -> Self {
        assert!(
            !sweep.weights.is_empty(),
            "a sweep needs at least one weight"
        );
        SweepDriver {
            width,
            base_config,
            sweep,
            factory,
            archive,
            seed,
            rng: StdRng::seed_from_u64(seed ^ 0x5_1eeb),
            carry: Vec::new(),
            consumed_total: 0,
            rung_idx: 0,
            rungs: Vec::new(),
            offsets: Vec::new(),
            outcome: None,
        }
    }

    /// Builds the evaluator for one ω through the driver's factory.
    pub fn make_evaluator(&self, weight: f64) -> CachedEvaluator {
        (self.factory)(weight)
    }

    /// The rungs completed so far.
    pub fn rungs(&self) -> &[SweepRung] {
        &self.rungs
    }

    /// Consumes the driver, returning all completed rungs.
    pub fn into_rungs(self) -> Vec<SweepRung> {
        self.rungs
    }

    /// Advances the sweep by one rung without an evaluator argument —
    /// the sweep builds its own per-rung evaluators through its
    /// factory. [`SearchDriver::step`] delegates here.
    pub fn advance(&mut self) -> StepStatus {
        if self.outcome.is_some() {
            return StepStatus::Done;
        }
        if self.rung_idx >= self.sweep.weights.len() {
            self.outcome = Some(self.combined_outcome());
            return StepStatus::Done;
        }
        self.run_rung();
        StepStatus::Running
    }

    /// Runs every remaining rung to completion (the evaluator-free form
    /// of [`SearchDriver::run_to_completion`]).
    pub fn run_all(&mut self) {
        while let StepStatus::Running = self.advance() {}
    }

    /// One rung: seed (cold start or warm-start re-scoring), run
    /// Algorithm 1 under this rung's ω, update the carry set.
    fn run_rung(&mut self) {
        let i = self.rung_idx;
        let w = self.sweep.weights[i];
        let width = self.width;
        let sweep = &self.sweep;
        let evaluator = (self.factory)(w);
        if let Some(a) = &self.archive {
            // Each rung's evaluator counts from zero; offset the archive
            // so its simulation axis stays cumulative across the sweep.
            a.lock().set_sim_offset(self.consumed_total);
            evaluator.attach_archive(a.clone());
        }

        // Seed the rung's dataset: re-score the carry set under the new
        // objective (warm start), or sample cold on the first rung. The
        // carry chain walks designs in cost order, so consecutive
        // designs tend to be structurally close and the incremental
        // session patches small diffs. Seeding is capped at half the
        // rung budget so small budgets still leave the latent search a
        // real share of simulations.
        let mut initial: Vec<(PrefixGrid, f64)> = Vec::new();
        let budget = sweep.budget_per_weight;
        let seed_cap = (budget / 2).max(1);
        if self.carry.is_empty() {
            if sweep.seed_classical {
                for (_, g) in topologies::all_classical(width) {
                    if evaluator.counter().count() >= seed_cap {
                        break;
                    }
                    let cost = evaluator.evaluate(&g).cost;
                    initial.push((g, cost));
                }
            }
            for _ in 0..sweep.cold_start_samples {
                if evaluator.counter().count() >= seed_cap {
                    break;
                }
                let density = self.rng.gen_range(0.02..0.5);
                let g = mutate::random_grid(width, density, &mut self.rng);
                let cost = evaluator.evaluate(&g).cost;
                initial.push((g, cost));
            }
        } else {
            for g in &self.carry {
                if evaluator.counter().count() >= seed_cap {
                    break;
                }
                initial.push((g.clone(), evaluator.evaluate(g).cost));
            }
        }
        let init_used = evaluator.counter().count();
        let init_best = initial
            .iter()
            .map(|(_, c)| *c)
            .fold(f64::INFINITY, f64::min);
        let init_best_grid = initial
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(g, _)| g.clone());

        let mut vae = CircuitVae::new(
            width,
            self.base_config.clone(),
            initial,
            self.seed + i as u64,
        );
        let outcome = vae.run(&evaluator, budget.saturating_sub(init_used));
        let merged = outcome.with_init_prefix(init_used, init_best, init_best_grid);

        // Next rung's warm-start set: the sweep-wide frontier designs
        // first (re-scoring them under the next ω spreads observations
        // across the whole front), then this rung's best by its own
        // cost. Deduped in insertion order, so the set is deterministic.
        let mut seen: HashSet<PrefixGrid> = HashSet::new();
        self.carry = Vec::new();
        if let Some(a) = &self.archive {
            for p in a.lock().front() {
                if self.carry.len() < sweep.carry && seen.insert(p.grid.clone()) {
                    self.carry.push(p.grid.clone());
                }
            }
        }
        let mut entries: Vec<(PrefixGrid, f64)> = vae.dataset().entries().to_vec();
        entries.sort_by(|a, b| a.1.total_cmp(&b.1));
        for (g, _) in entries {
            if self.carry.len() >= sweep.carry {
                break;
            }
            if seen.insert(g.clone()) {
                self.carry.push(g);
            }
        }

        self.offsets.push(self.consumed_total);
        self.consumed_total += evaluator.counter().count();
        if self.archive.is_some() {
            evaluator.detach_archive();
        }
        self.rungs.push(SweepRung {
            delay_weight: w,
            outcome: merged,
        });
        self.rung_idx += 1;
    }

    /// Concatenates the completed rung curves onto one cumulative
    /// simulation axis. The per-rung objectives differ (each rung has
    /// its own ω), so the combined best is a telemetry summary, not a
    /// single-objective optimum.
    fn combined_outcome(&self) -> SearchOutcome {
        let mut tracker = BestTracker::new(false);
        for (rung, &off) in self.rungs.iter().zip(&self.offsets) {
            for &(s, c) in &rung.outcome.history {
                if let Some(g) = rung.outcome.best_grid.as_ref() {
                    tracker.observe(off + s, g, c);
                }
            }
        }
        let mut out = tracker.into_outcome();
        // Preserve every rung breakpoint (the tracker would drop
        // non-improving ones, but cross-ω costs are not comparable).
        out.history = self
            .rungs
            .iter()
            .zip(&self.offsets)
            .flat_map(|(rung, &off)| rung.outcome.history.iter().map(move |&(s, c)| (off + s, c)))
            .collect();
        out
    }
}

impl<F: Fn(f64) -> CachedEvaluator> SearchDriver for SweepDriver<F> {
    /// Runs one rung. The passed evaluator is ignored — the sweep builds
    /// one evaluator per rung through its factory (see the type docs;
    /// prefer [`SweepDriver::advance`]).
    fn step(&mut self, _evaluator: &CachedEvaluator) -> StepStatus {
        self.advance()
    }

    fn sims_used(&self) -> usize {
        self.consumed_total
    }

    fn budget(&self) -> usize {
        self.sweep.weights.len() * self.sweep.budget_per_weight
    }

    fn outcome(&self) -> Option<&SearchOutcome> {
        self.outcome.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_cells::nangate45_like;
    use cv_prefix::CircuitKind;
    use cv_synth::{CostParams, Objective, ParetoArchive, SynthesisFlow};

    fn make_eval(width: usize) -> impl Fn(f64) -> CachedEvaluator {
        move |w: f64| {
            let flow = SynthesisFlow::new(nangate45_like(), CircuitKind::Adder, width);
            CachedEvaluator::new(Objective::new(flow, CostParams::new(w)))
        }
    }

    #[test]
    fn sweep_visits_every_weight_and_feeds_one_archive() {
        let width = 10;
        let archive = ParetoArchive::new().with_log().into_shared();
        let sweep = SweepConfig {
            carry: 8,
            cold_start_samples: 8,
            ..SweepConfig::new(vec![0.2, 0.8], 50)
        };
        let rungs = run_weight_sweep(
            width,
            &CircuitVaeConfig::smoke(width),
            &sweep,
            make_eval(width),
            Some(&archive),
            17,
        );
        assert_eq!(rungs.len(), 2);
        for r in &rungs {
            assert!(r.outcome.best_cost.is_finite());
            assert!(r.outcome.best_grid.is_some());
            let max_sims = r.outcome.history.iter().map(|(s, _)| *s).max().unwrap();
            assert!(max_sims <= 50, "per-rung budget respected: {max_sims}");
        }
        let arch = archive.lock();
        assert!(
            arch.len() >= 2,
            "a two-weight sweep should trace a multi-point front"
        );
        assert!(!arch.observations().is_empty());
    }

    #[test]
    fn warm_start_reuses_previous_designs() {
        // With a carry set, the second rung's first evaluations are the
        // first rung's best designs — its initial breakpoint must not be
        // worse than evaluating those same designs cold.
        let width = 10;
        let sweep = SweepConfig {
            carry: 6,
            cold_start_samples: 6,
            ..SweepConfig::new(vec![0.5, 0.5], 40)
        };
        let rungs = run_weight_sweep(
            width,
            &CircuitVaeConfig::smoke(width),
            &sweep,
            make_eval(width),
            None,
            23,
        );
        // Same weight twice: the warm-started rung starts from the
        // previous rung's best, so its first breakpoint is at least as
        // good as the previous rung's final best.
        let first_best = rungs[0].outcome.best_cost;
        let warm_first_breakpoint = rungs[1].outcome.history.first().unwrap().1;
        assert!(
            warm_first_breakpoint <= first_best + 1e-9,
            "warm start must inherit the frontier: {warm_first_breakpoint} vs {first_best}"
        );
    }

    #[test]
    fn sweep_is_deterministic() {
        let width = 10;
        let sweep = SweepConfig {
            carry: 4,
            cold_start_samples: 6,
            ..SweepConfig::new(vec![0.3], 30)
        };
        let a = run_weight_sweep(
            width,
            &CircuitVaeConfig::smoke(width),
            &sweep,
            make_eval(width),
            None,
            5,
        );
        let b = run_weight_sweep(
            width,
            &CircuitVaeConfig::smoke(width),
            &sweep,
            make_eval(width),
            None,
            5,
        );
        assert_eq!(a[0].outcome.history, b[0].outcome.history);
        assert_eq!(a[0].outcome.best_cost, b[0].outcome.best_cost);
    }
}
