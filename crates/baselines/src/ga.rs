//! Genetic algorithm over grid bitvectors — the paper's "GA" baseline,
//! which also supplies initial datasets for CircuitVAE ("we used the
//! first few generations of GA as the initial data", §5.2) — as a
//! step-based [`SearchDriver`] covering both ranking modes.

use circuitvae::driver::{
    read_opt_outcome, read_rng, write_opt_outcome, write_rng, Checkpointable, SearchDriver,
    StepStatus,
};
use cv_prefix::{mutate, topologies, PrefixGrid};
use cv_synth::ckpt::{CkptError, Dec, Enc};
use cv_synth::CachedEvaluator;
use cv_synth::{
    crowding_distance, eval_and_track, eval_record_and_track, non_dominated_sort, BestTracker,
    PpaReport, SearchOutcome,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// How the GA ranks its population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GaMode {
    /// Rank by the scalar cost `ω·10·delay + (1−ω)·area/100` — the
    /// paper's GA baseline.
    WeightedSum,
    /// NSGA-II-style multi-objective mode: non-dominated sorting on
    /// (area, delay) with crowding-distance tie-breaks, elitist
    /// environmental selection over parents ∪ offspring. One run covers
    /// the whole tradeoff curve instead of one scalarization of it.
    Nsga2,
}

/// GA hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaConfig {
    /// Population size.
    pub population: usize,
    /// Individuals kept unchanged each generation (ignored in
    /// [`GaMode::Nsga2`], whose environmental selection is elitist by
    /// construction).
    pub elites: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Probability of applying mutation to each child.
    pub mutation_prob: f64,
    /// Probability of rectangle (vs uniform) crossover.
    pub rect_crossover_prob: f64,
    /// Whether to seed the initial population with the classical human
    /// designs (off by default: the paper's baselines search from
    /// scratch, and seeding makes small-budget comparisons degenerate).
    pub seed_classical: bool,
    /// Population ranking mode.
    pub mode: GaMode,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 40,
            elites: 4,
            tournament: 3,
            mutation_prob: 0.9,
            rect_crossover_prob: 0.5,
            seed_classical: false,
            mode: GaMode::WeightedSum,
        }
    }
}

impl GaConfig {
    /// The default configuration switched to [`GaMode::Nsga2`].
    pub fn nsga2() -> Self {
        GaConfig {
            mode: GaMode::Nsga2,
            ..GaConfig::default()
        }
    }
}

/// Genetic-algorithm searcher (the configuration half; the run state
/// lives in [`GaDriver`]).
#[derive(Debug, Clone)]
pub struct GeneticAlgorithm {
    config: GaConfig,
    width: usize,
}

impl GeneticAlgorithm {
    /// Creates a GA for `width`-bit circuits.
    pub fn new(width: usize, config: GaConfig) -> Self {
        GeneticAlgorithm { config, width }
    }

    /// Runs until `budget` simulations are consumed (as counted by the
    /// evaluator) or `max_generations` pass, by stepping a [`GaDriver`]
    /// to completion on the caller's RNG. Set `keep_evaluated` to retain
    /// all `(grid, cost)` pairs, e.g. to build VAE datasets.
    pub fn run<R: Rng + ?Sized>(
        &self,
        evaluator: &CachedEvaluator,
        budget: usize,
        max_generations: usize,
        keep_evaluated: bool,
        rng: &mut R,
    ) -> SearchOutcome {
        GaDriver::with_rng(
            self.width,
            self.config,
            budget,
            max_generations,
            keep_evaluated,
            rng,
        )
        .run_to_completion(evaluator)
    }
}

/// The scored population: scalar costs in weighted mode, full PPA
/// reports in NSGA-II mode.
#[derive(Debug, Clone)]
enum Scored {
    Weighted(Vec<(PrefixGrid, f64)>),
    Multi(Vec<(PrefixGrid, PpaReport)>),
}

impl Scored {
    fn empty_like(mode: GaMode) -> Scored {
        match mode {
            GaMode::WeightedSum => Scored::Weighted(Vec::new()),
            GaMode::Nsga2 => Scored::Multi(Vec::new()),
        }
    }

    fn len(&self) -> usize {
        match self {
            Scored::Weighted(v) => v.len(),
            Scored::Multi(v) => v.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn write_ckpt(&self, enc: &mut Enc) {
        match self {
            Scored::Weighted(v) => {
                enc.bool(false);
                enc.usize(v.len());
                for (g, c) in v {
                    enc.grid(g);
                    enc.f64(*c);
                }
            }
            Scored::Multi(v) => {
                enc.bool(true);
                enc.usize(v.len());
                for (g, p) in v {
                    enc.grid(g);
                    enc.ppa(p);
                }
            }
        }
    }

    fn read_ckpt(dec: &mut Dec<'_>) -> Result<Scored, CkptError> {
        let multi = dec.bool()?;
        let n = dec.seq_len()?;
        if multi {
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push((dec.grid()?, dec.ppa()?));
            }
            Ok(Scored::Multi(v))
        } else {
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push((dec.grid()?, dec.f64()?));
            }
            Ok(Scored::Weighted(v))
        }
    }
}

/// Where the GA state machine currently is.
#[derive(Debug, Clone)]
enum GaPhase {
    /// The initial population has not been generated yet.
    Start,
    /// Evaluating the initial population, one design per step.
    SeedEval { pop: Vec<PrefixGrid>, next: usize },
    /// At a generation boundary: rank, breed, or finish.
    GenTop,
    /// Evaluating one generation's children, one design per step.
    ChildEval {
        children: Vec<PrefixGrid>,
        next: usize,
        acc: Scored,
    },
}

impl GaPhase {
    fn write_ckpt(&self, enc: &mut Enc) {
        match self {
            GaPhase::Start => enc.u64(0),
            GaPhase::SeedEval { pop, next } => {
                enc.u64(1);
                enc.usize(pop.len());
                for g in pop {
                    enc.grid(g);
                }
                enc.usize(*next);
            }
            GaPhase::GenTop => enc.u64(2),
            GaPhase::ChildEval {
                children,
                next,
                acc,
            } => {
                enc.u64(3);
                enc.usize(children.len());
                for g in children {
                    enc.grid(g);
                }
                enc.usize(*next);
                acc.write_ckpt(enc);
            }
        }
    }

    fn read_ckpt(dec: &mut Dec<'_>) -> Result<GaPhase, CkptError> {
        match dec.u64()? {
            0 => Ok(GaPhase::Start),
            1 => {
                let n = dec.seq_len()?;
                let mut pop = Vec::with_capacity(n);
                for _ in 0..n {
                    pop.push(dec.grid()?);
                }
                Ok(GaPhase::SeedEval {
                    pop,
                    next: dec.usize()?,
                })
            }
            2 => Ok(GaPhase::GenTop),
            3 => {
                let n = dec.seq_len()?;
                let mut children = Vec::with_capacity(n);
                for _ in 0..n {
                    children.push(dec.grid()?);
                }
                Ok(GaPhase::ChildEval {
                    children,
                    next: dec.usize()?,
                    acc: Scored::read_ckpt(dec)?,
                })
            }
            _ => Err(CkptError::Invalid("GaPhase tag")),
        }
    }
}

/// The GA state machine: initial-population evaluation, then per
/// generation a breed step followed by one evaluation per step.
#[derive(Debug)]
pub struct GaDriver<R = StdRng> {
    width: usize,
    config: GaConfig,
    budget: usize,
    max_generations: usize,
    used: usize,
    generation: usize,
    tracker: BestTracker,
    scored: Scored,
    phase: GaPhase,
    rng: R,
    outcome: Option<SearchOutcome>,
}

impl GaDriver<StdRng> {
    /// A checkpointable driver seeded from `seed`.
    pub fn new(
        width: usize,
        config: GaConfig,
        budget: usize,
        max_generations: usize,
        keep_evaluated: bool,
        seed: u64,
    ) -> Self {
        Self::with_rng(
            width,
            config,
            budget,
            max_generations,
            keep_evaluated,
            StdRng::seed_from_u64(seed),
        )
    }
}

impl<R: Rng> GaDriver<R> {
    /// A driver over a caller-supplied RNG (used by the legacy
    /// [`GeneticAlgorithm::run`] wrapper; not checkpointable unless
    /// `R = StdRng`).
    pub fn with_rng(
        width: usize,
        config: GaConfig,
        budget: usize,
        max_generations: usize,
        keep_evaluated: bool,
        rng: R,
    ) -> Self {
        GaDriver {
            width,
            config,
            budget,
            max_generations,
            used: 0,
            generation: 0,
            tracker: BestTracker::new(keep_evaluated),
            scored: Scored::empty_like(config.mode),
            phase: GaPhase::Start,
            rng,
            outcome: None,
        }
    }

    /// Seeds the initial population: classical designs plus random grids
    /// across a density sweep.
    fn initial_population(&mut self) -> Vec<PrefixGrid> {
        let mut pop: Vec<PrefixGrid> = if self.config.seed_classical {
            topologies::all_classical(self.width)
                .into_iter()
                .map(|(_, g)| g)
                .collect()
        } else {
            Vec::new()
        };
        while pop.len() < self.config.population {
            let density = self.rng.gen_range(0.02..0.5);
            pop.push(mutate::random_grid(self.width, density, &mut self.rng));
        }
        pop.truncate(self.config.population);
        pop
    }

    fn finish(&mut self) {
        let mut tracker = std::mem::replace(&mut self.tracker, BestTracker::new(false));
        tracker.finish(self.used);
        self.outcome = Some(tracker.into_outcome());
    }

    /// Tournament on scalar cost (weighted mode).
    fn select<'a>(
        rng: &mut R,
        config: &GaConfig,
        scored: &'a [(PrefixGrid, f64)],
    ) -> &'a PrefixGrid {
        let mut best: Option<&(PrefixGrid, f64)> = None;
        for _ in 0..config.tournament {
            let cand = scored.choose(rng).expect("population is non-empty");
            let improves = match best {
                None => true,
                Some(b) => cand.1 < b.1,
            };
            if improves {
                best = Some(cand);
            }
        }
        &best.expect("tournament ran").0
    }

    /// Binary-ish tournament on (front rank asc, crowding distance desc).
    fn select_nsga2<'a>(
        rng: &mut R,
        config: &GaConfig,
        scored: &'a [(PrefixGrid, PpaReport)],
        rank: &[usize],
        crowd: &[f64],
    ) -> &'a PrefixGrid {
        let mut best: Option<usize> = None;
        for _ in 0..config.tournament {
            let c = rng.gen_range(0..scored.len());
            let improves = match best {
                None => true,
                Some(b) => rank[c] < rank[b] || (rank[c] == rank[b] && crowd[c] > crowd[b]),
            };
            if improves {
                best = Some(c);
            }
        }
        &scored[best.expect("tournament ran")].0
    }

    /// Crossover + mutation of two parents (shared by both modes; the
    /// RNG draw order is pinned by the golden snapshot test).
    fn breed_child(rng: &mut R, config: &GaConfig, a: &PrefixGrid, b: &PrefixGrid) -> PrefixGrid {
        let mut child = if rng.gen_bool(config.rect_crossover_prob) {
            mutate::rectangle_crossover(a, b, rng)
        } else {
            mutate::uniform_crossover(a, b, rng)
        };
        if rng.gen_bool(config.mutation_prob) {
            child = mutate::neighbour(&child, rng);
        }
        child
    }

    /// Generation boundary for the weighted mode: sort, keep elites,
    /// breed the next population.
    fn breed_weighted(&mut self) -> Vec<PrefixGrid> {
        let Scored::Weighted(scored) = &mut self.scored else {
            unreachable!("weighted breed in weighted mode only")
        };
        scored.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mut next: Vec<PrefixGrid> = scored
            .iter()
            .take(self.config.elites)
            .map(|(g, _)| g.clone())
            .collect();
        while next.len() < self.config.population {
            let a = Self::select(&mut self.rng, &self.config, scored);
            let b = Self::select(&mut self.rng, &self.config, scored);
            next.push(Self::breed_child(&mut self.rng, &self.config, a, b));
        }
        next
    }

    /// Generation boundary for NSGA-II: rank + crowd the parents, then
    /// breed by rank/crowding tournaments.
    fn breed_nsga2(&mut self) -> Vec<PrefixGrid> {
        let Scored::Multi(scored) = &self.scored else {
            unreachable!("nsga2 breed in nsga2 mode only")
        };
        let objs: Vec<(f64, f64)> = scored
            .iter()
            .map(|(_, p)| (p.area_um2, p.delay_ns))
            .collect();
        let fronts = non_dominated_sort(&objs);
        let mut rank = vec![0usize; objs.len()];
        let mut crowd = vec![0.0f64; objs.len()];
        for (r, front) in fronts.iter().enumerate() {
            let d = crowding_distance(&objs, front);
            for (k, &i) in front.iter().enumerate() {
                rank[i] = r;
                crowd[i] = d[k];
            }
        }
        let pop_size = self.config.population;
        let mut children: Vec<PrefixGrid> = Vec::with_capacity(pop_size);
        while children.len() < pop_size {
            let a = Self::select_nsga2(&mut self.rng, &self.config, scored, &rank, &crowd);
            let b = Self::select_nsga2(&mut self.rng, &self.config, scored, &rank, &crowd);
            children.push(Self::breed_child(&mut self.rng, &self.config, a, b));
        }
        children
    }

    /// Elitist environmental selection over parents ∪ offspring: fill by
    /// front, break the boundary front by descending crowding distance
    /// (stable sort keeps this deterministic).
    fn environmental_selection(
        combined: Vec<(PrefixGrid, PpaReport)>,
        pop_size: usize,
    ) -> Vec<(PrefixGrid, PpaReport)> {
        let objs: Vec<(f64, f64)> = combined
            .iter()
            .map(|(_, p)| (p.area_um2, p.delay_ns))
            .collect();
        let mut survivors: Vec<usize> = Vec::with_capacity(pop_size);
        for front in non_dominated_sort(&objs) {
            if survivors.len() + front.len() <= pop_size {
                survivors.extend(&front);
            } else {
                let d = crowding_distance(&objs, &front);
                let mut order: Vec<usize> = (0..front.len()).collect();
                order.sort_by(|&x, &y| d[y].total_cmp(&d[x]));
                for &k in order.iter().take(pop_size - survivors.len()) {
                    survivors.push(front[k]);
                }
            }
            if survivors.len() >= pop_size {
                break;
            }
        }
        survivors.into_iter().map(|i| combined[i].clone()).collect()
    }
}

impl<R: Rng> SearchDriver for GaDriver<R> {
    fn step(&mut self, evaluator: &CachedEvaluator) -> StepStatus {
        if self.outcome.is_some() {
            return StepStatus::Done;
        }
        let before = evaluator.counter().count();
        let phase = std::mem::replace(&mut self.phase, GaPhase::GenTop);
        match phase {
            GaPhase::Start => {
                let pop = self.initial_population();
                self.phase = GaPhase::SeedEval { pop, next: 0 };
            }
            GaPhase::SeedEval { pop, next } => {
                if next >= pop.len() || self.used >= self.budget {
                    self.phase = GaPhase::GenTop;
                } else {
                    let g = &pop[next];
                    match &mut self.scored {
                        Scored::Weighted(v) => {
                            let c = eval_and_track(evaluator, &mut self.tracker, g);
                            v.push((g.clone(), c));
                        }
                        Scored::Multi(v) => {
                            let rec = eval_record_and_track(evaluator, &mut self.tracker, g);
                            v.push((g.clone(), rec.ppa));
                        }
                    }
                    self.phase = GaPhase::SeedEval {
                        pop,
                        next: next + 1,
                    };
                }
            }
            GaPhase::GenTop => {
                if self.generation >= self.max_generations
                    || self.used >= self.budget
                    || self.scored.is_empty()
                {
                    self.finish();
                    return StepStatus::Done;
                }
                let children = match self.config.mode {
                    GaMode::WeightedSum => self.breed_weighted(),
                    GaMode::Nsga2 => self.breed_nsga2(),
                };
                self.phase = GaPhase::ChildEval {
                    children,
                    next: 0,
                    acc: Scored::empty_like(self.config.mode),
                };
            }
            GaPhase::ChildEval {
                children,
                next,
                mut acc,
            } => {
                if next < children.len() && self.used < self.budget {
                    let g = &children[next];
                    match &mut acc {
                        Scored::Weighted(v) => {
                            let c = eval_and_track(evaluator, &mut self.tracker, g);
                            v.push((g.clone(), c));
                        }
                        Scored::Multi(v) => {
                            let rec = eval_record_and_track(evaluator, &mut self.tracker, g);
                            v.push((g.clone(), rec.ppa));
                        }
                    }
                    self.phase = GaPhase::ChildEval {
                        children,
                        next: next + 1,
                        acc,
                    };
                } else {
                    // Generation complete (or budget-truncated): the
                    // offspring become (weighted) or compete for
                    // (NSGA-II) the next parent population.
                    self.scored = match acc {
                        Scored::Weighted(v) => Scored::Weighted(v),
                        Scored::Multi(offspring) => {
                            let Scored::Multi(parents) =
                                std::mem::replace(&mut self.scored, Scored::Multi(Vec::new()))
                            else {
                                unreachable!("mode is fixed at construction")
                            };
                            let mut combined = parents;
                            combined.extend(offspring);
                            Scored::Multi(Self::environmental_selection(
                                combined,
                                self.config.population,
                            ))
                        }
                    };
                    self.generation += 1;
                    self.phase = GaPhase::GenTop;
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

const MAGIC: &[u8; 8] = b"CVDRGA01";

impl Checkpointable for GaDriver<StdRng> {
    fn save(&self) -> Vec<u8> {
        let mut enc = Enc::with_magic(MAGIC);
        enc.usize(self.width);
        enc.usize(self.config.population);
        enc.usize(self.config.elites);
        enc.usize(self.config.tournament);
        enc.f64(self.config.mutation_prob);
        enc.f64(self.config.rect_crossover_prob);
        enc.bool(self.config.seed_classical);
        enc.bool(self.config.mode == GaMode::Nsga2);
        enc.usize(self.budget);
        enc.usize(self.max_generations);
        enc.usize(self.used);
        enc.usize(self.generation);
        self.tracker.write_ckpt(&mut enc);
        self.scored.write_ckpt(&mut enc);
        self.phase.write_ckpt(&mut enc);
        write_rng(&mut enc, &self.rng);
        write_opt_outcome(&mut enc, self.outcome.as_ref());
        enc.finish()
    }

    fn load(bytes: &[u8]) -> Result<Self, CkptError> {
        let mut dec = Dec::with_magic(bytes, MAGIC)?;
        let width = dec.usize()?;
        let config = GaConfig {
            population: dec.usize()?,
            elites: dec.usize()?,
            tournament: dec.usize()?,
            mutation_prob: dec.f64()?,
            rect_crossover_prob: dec.f64()?,
            seed_classical: dec.bool()?,
            mode: if dec.bool()? {
                GaMode::Nsga2
            } else {
                GaMode::WeightedSum
            },
        };
        let budget = dec.usize()?;
        let max_generations = dec.usize()?;
        let used = dec.usize()?;
        let generation = dec.usize()?;
        let tracker = BestTracker::read_ckpt(&mut dec)?;
        let scored = Scored::read_ckpt(&mut dec)?;
        let phase = GaPhase::read_ckpt(&mut dec)?;
        let rng = read_rng(&mut dec)?;
        let outcome = read_opt_outcome(&mut dec)?;
        dec.finish()?;
        Ok(GaDriver {
            width,
            config,
            budget,
            max_generations,
            used,
            generation,
            tracker,
            scored,
            phase,
            rng,
            outcome,
        })
    }
}

/// Builds an initial dataset of `target` (grid, cost) pairs by running GA
/// generations — the paper's initialization protocol for CircuitVAE and
/// BO. Simulations used are charged to the evaluator's counter (the paper
/// counts them against the method's budget).
pub fn ga_initial_dataset<R: Rng + ?Sized>(
    width: usize,
    evaluator: &CachedEvaluator,
    target: usize,
    rng: &mut R,
) -> Vec<(PrefixGrid, f64)> {
    let ga = GeneticAlgorithm::new(width, GaConfig::default());
    let outcome = ga.run(evaluator, target, usize::MAX, true, rng);
    // Elites are re-scored each generation and hit the evaluator cache;
    // keep one entry per distinct design.
    let mut seen = std::collections::HashSet::new();
    let mut unique = Vec::with_capacity(target);
    for (g, c) in outcome.evaluated {
        if seen.insert(g.clone()) {
            unique.push((g, c));
        }
    }
    unique.truncate(target);
    unique
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuitvae::driver::run_archived;
    use cv_cells::nangate45_like;
    use cv_prefix::CircuitKind;
    use cv_synth::{CostParams, Objective, SynthesisFlow};

    fn evaluator(n: usize) -> CachedEvaluator {
        let flow = SynthesisFlow::new(nangate45_like(), CircuitKind::Adder, n);
        CachedEvaluator::new(Objective::new(flow, CostParams::new(0.66)))
    }

    #[test]
    fn ga_improves_over_initial_population() {
        let ev = evaluator(12);
        let mut rng = StdRng::seed_from_u64(0);
        let ga = GeneticAlgorithm::new(
            12,
            GaConfig {
                population: 16,
                ..GaConfig::default()
            },
        );
        let out = ga.run(&ev, 150, 20, false, &mut rng);
        assert!(out.best_cost.is_finite());
        let first = out.history.first().unwrap().1;
        assert!(out.best_cost <= first);
        assert!(out.best_grid.is_some());
    }

    #[test]
    fn ga_respects_budget() {
        let ev = evaluator(10);
        let mut rng = StdRng::seed_from_u64(1);
        let ga = GeneticAlgorithm::new(10, GaConfig::default());
        let _ = ga.run(&ev, 60, 100, false, &mut rng);
        assert!(ev.counter().count() <= 60);
    }

    #[test]
    fn nsga2_mode_covers_a_frontier_in_one_run() {
        let ev = evaluator(12);
        let mut driver = GaDriver::new(
            12,
            GaConfig {
                population: 16,
                ..GaConfig::nsga2()
            },
            180,
            20,
            false,
            4,
        );
        let (out, archive) = run_archived(&mut driver, &ev);
        assert!(out.best_cost.is_finite());
        assert!(out.best_grid.is_some());
        assert!(ev.counter().count() <= 180);
        assert!(
            archive.len() >= 3,
            "one NSGA-II run should trace a multi-point front, got {}",
            archive.len()
        );
        assert_eq!(
            archive.observations().len(),
            ev.counter().count(),
            "every counted simulation is logged"
        );
        // The front is mutually non-dominated by construction.
        let objs = archive.objectives();
        for (i, &a) in objs.iter().enumerate() {
            for (j, &b) in objs.iter().enumerate() {
                assert!(i == j || !cv_synth::dominates_xy(a, b));
            }
        }
        assert!(ev.archive().is_none(), "capture must detach on exit");
    }

    #[test]
    fn weighted_mode_is_unchanged_by_the_mode_field() {
        // The default config must still run the paper's scalar GA. The
        // expected values are a golden snapshot of the pre-mode-field
        // implementation (width 10, seed 5, ω = 0.66): any behavioral
        // drift in the weighted path — not just nondeterminism — fails
        // here. Exact float equality is intentional; the whole workspace
        // pins bit-for-bit determinism (DESIGN.md §6, Contract 1).
        let cfg = GaConfig {
            population: 12,
            ..GaConfig::default()
        };
        assert_eq!(cfg.mode, GaMode::WeightedSum);
        let ev = evaluator(10);
        let mut rng = StdRng::seed_from_u64(5);
        let out = GeneticAlgorithm::new(10, cfg).run(&ev, 80, 10, false, &mut rng);
        assert_eq!(out.best_cost, 3.210482704);
        assert_eq!(
            out.history,
            vec![
                (1, 4.078602685652538),
                (2, 3.4548276025209423),
                (16, 3.2279521048581623),
                (38, 3.210482704),
                (80, 3.210482704),
            ]
        );
    }

    #[test]
    fn initial_dataset_has_pairs_and_costs() {
        let ev = evaluator(10);
        let mut rng = StdRng::seed_from_u64(2);
        let data = ga_initial_dataset(10, &ev, 50, &mut rng);
        assert!(!data.is_empty() && data.len() <= 50);
        for (g, c) in &data {
            assert_eq!(g.width(), 10);
            assert!(c.is_finite() && *c > 0.0);
        }
    }
}
