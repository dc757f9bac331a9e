//! Best-so-far tracking against the simulation budget — shared by every
//! search algorithm (CircuitVAE, BO, GA, RL, SA, random search).

use crate::ckpt::{CkptError, Dec, Enc};
use crate::evaluator::{CachedEvaluator, EvalRecord};
use cv_prefix::PrefixGrid;
use serde::{Deserialize, Serialize};

/// Best-so-far curve tracking against the simulation budget.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BestTracker {
    points: Vec<(usize, f64)>,
    best_cost: f64,
    best_grid: Option<PrefixGrid>,
    evaluated: Vec<(PrefixGrid, f64)>,
    keep_evaluated: bool,
}

impl BestTracker {
    /// Creates a tracker. When `keep_evaluated` is set, every observed
    /// `(grid, cost)` pair is retained (used to seed CircuitVAE datasets
    /// from GA generations, as in the paper).
    pub fn new(keep_evaluated: bool) -> Self {
        BestTracker {
            points: Vec::new(),
            best_cost: f64::INFINITY,
            best_grid: None,
            evaluated: Vec::new(),
            keep_evaluated,
        }
    }

    /// Records an evaluation outcome at simulation count `sims`.
    pub fn observe(&mut self, sims: usize, grid: &PrefixGrid, cost: f64) {
        if self.keep_evaluated {
            self.evaluated.push((grid.clone(), cost));
        }
        if cost < self.best_cost {
            self.best_cost = cost;
            self.best_grid = Some(grid.clone());
            self.points.push((sims, cost));
        }
    }

    /// Closes the curve at the final simulation count.
    pub fn finish(&mut self, sims: usize) {
        if self.best_cost.is_finite() {
            self.points.push((sims, self.best_cost));
        }
    }

    /// Converts into a [`SearchOutcome`].
    pub fn into_outcome(self) -> SearchOutcome {
        SearchOutcome {
            history: self.points,
            best_cost: self.best_cost,
            best_grid: self.best_grid,
            evaluated: self.evaluated,
        }
    }

    /// Current best cost.
    pub fn best_cost(&self) -> f64 {
        self.best_cost
    }

    /// Current best design, if any observation has been made. Searchers
    /// that restart from the best-so-far (SA, sweep warm starts) read it
    /// from here instead of keeping their own copy.
    pub fn best_grid(&self) -> Option<&PrefixGrid> {
        self.best_grid.as_ref()
    }

    /// Every observed `(grid, cost)` pair so far (empty unless the
    /// tracker was created with `keep_evaluated`).
    pub fn evaluated(&self) -> &[(PrefixGrid, f64)] {
        &self.evaluated
    }

    /// Writes the full tracker state into a checkpoint encoder.
    pub fn write_ckpt(&self, enc: &mut Enc) {
        enc.usize(self.points.len());
        for &(s, c) in &self.points {
            enc.usize(s);
            enc.f64(c);
        }
        enc.f64(self.best_cost);
        enc.opt_grid(self.best_grid.as_ref());
        enc.usize(self.evaluated.len());
        for (g, c) in &self.evaluated {
            enc.grid(g);
            enc.f64(*c);
        }
        enc.bool(self.keep_evaluated);
    }

    /// Reads a tracker written by [`BestTracker::write_ckpt`].
    ///
    /// # Errors
    ///
    /// Propagates [`CkptError`] on malformed input.
    pub fn read_ckpt(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        let n = dec.seq_len()?;
        let mut points = Vec::with_capacity(n);
        for _ in 0..n {
            points.push((dec.usize()?, dec.f64()?));
        }
        let best_cost = dec.f64()?;
        let best_grid = dec.opt_grid()?;
        let n = dec.seq_len()?;
        let mut evaluated = Vec::with_capacity(n);
        for _ in 0..n {
            evaluated.push((dec.grid()?, dec.f64()?));
        }
        let keep_evaluated = dec.bool()?;
        Ok(BestTracker {
            points,
            best_cost,
            best_grid,
            evaluated,
            keep_evaluated,
        })
    }
}

/// The result of one search run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchOutcome {
    /// `(simulations, best_cost_so_far)` breakpoints (stepwise curve).
    pub history: Vec<(usize, f64)>,
    /// Best cost found.
    pub best_cost: f64,
    /// Best design found.
    pub best_grid: Option<PrefixGrid>,
    /// Every evaluated pair, if tracking was enabled.
    pub evaluated: Vec<(PrefixGrid, f64)>,
}

impl SearchOutcome {
    /// Best cost achieved within the first `budget` simulations,
    /// `f64::INFINITY` if none.
    pub fn best_within(&self, budget: usize) -> f64 {
        self.history
            .iter()
            .take_while(|(s, _)| *s <= budget)
            .map(|(_, c)| *c)
            .fold(f64::INFINITY, f64::min)
    }

    /// The smallest simulation count at which the curve reached a cost
    /// `<= target`, if ever — the quantity behind the paper's
    /// "VAE speedup" column in Table 1.
    pub fn sims_to_reach(&self, target: f64) -> Option<usize> {
        self.history
            .iter()
            .find(|(_, c)| *c <= target)
            .map(|(s, _)| *s)
    }

    /// Merges an initialization phase into this outcome: the curve is
    /// shifted right by `init_sims` (simulations already charged before
    /// the search proper started), prefixed with the initialization's
    /// own best breakpoint, and the overall best is reconciled. Shared
    /// by every two-phase method (GA-seeded VAE/BO, sweep warm starts)
    /// so the merge arithmetic lives in exactly one place.
    #[must_use]
    pub fn with_init_prefix(
        self,
        init_sims: usize,
        init_best: f64,
        init_best_grid: Option<PrefixGrid>,
    ) -> SearchOutcome {
        let mut history = Vec::with_capacity(self.history.len() + 1);
        if init_best.is_finite() {
            history.push((init_sims, init_best));
        }
        for (s, c) in self.history {
            history.push((s + init_sims, c));
        }
        let (best_cost, best_grid) = if self.best_cost <= init_best {
            (self.best_cost, self.best_grid)
        } else {
            (init_best, init_best_grid)
        };
        SearchOutcome {
            history,
            best_cost,
            best_grid,
            evaluated: self.evaluated,
        }
    }

    /// Writes the outcome into a checkpoint encoder.
    pub fn write_ckpt(&self, enc: &mut Enc) {
        enc.usize(self.history.len());
        for &(s, c) in &self.history {
            enc.usize(s);
            enc.f64(c);
        }
        enc.f64(self.best_cost);
        enc.opt_grid(self.best_grid.as_ref());
        enc.usize(self.evaluated.len());
        for (g, c) in &self.evaluated {
            enc.grid(g);
            enc.f64(*c);
        }
    }

    /// Reads an outcome written by [`SearchOutcome::write_ckpt`].
    ///
    /// # Errors
    ///
    /// Propagates [`CkptError`] on malformed input.
    pub fn read_ckpt(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        let n = dec.seq_len()?;
        let mut history = Vec::with_capacity(n);
        for _ in 0..n {
            history.push((dec.usize()?, dec.f64()?));
        }
        let best_cost = dec.f64()?;
        let best_grid = dec.opt_grid()?;
        let n = dec.seq_len()?;
        let mut evaluated = Vec::with_capacity(n);
        for _ in 0..n {
            evaluated.push((dec.grid()?, dec.f64()?));
        }
        Ok(SearchOutcome {
            history,
            best_cost,
            best_grid,
            evaluated,
        })
    }

    /// The outcome as standalone checkpoint bytes — the canonical form
    /// for the "byte-identical resume" assertions of Contract 8: two
    /// outcomes are equal iff their bytes are.
    pub fn to_ckpt_bytes(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        self.write_ckpt(&mut enc);
        enc.finish()
    }
}

/// Evaluate, observe, and return the full [`EvalRecord`] — the hook for
/// multi-objective searchers (NSGA-II GA) that need the PPA report, not
/// just the scalar cost.
pub fn eval_record_and_track(
    evaluator: &CachedEvaluator,
    tracker: &mut BestTracker,
    grid: &PrefixGrid,
) -> EvalRecord {
    let rec = evaluator.evaluate(grid);
    tracker.observe(evaluator.counter().count(), grid, rec.cost);
    rec
}

/// Convenience wrapper: evaluate, observe, and return the cost.
pub fn eval_and_track(
    evaluator: &CachedEvaluator,
    tracker: &mut BestTracker,
    grid: &PrefixGrid,
) -> f64 {
    eval_record_and_track(evaluator, tracker, grid).cost
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_builds_monotone_curve() {
        let mut t = BestTracker::new(true);
        let g = PrefixGrid::ripple(8);
        t.observe(1, &g, 5.0);
        t.observe(2, &g, 6.0); // worse, no breakpoint
        t.observe(3, &g, 4.0);
        t.finish(10);
        let out = t.into_outcome();
        assert_eq!(out.history, vec![(1, 5.0), (3, 4.0), (10, 4.0)]);
        assert_eq!(out.best_cost, 4.0);
        assert_eq!(out.evaluated.len(), 3);
    }

    #[test]
    fn init_prefix_merges_curve_and_best() {
        let g = PrefixGrid::ripple(8);
        let out = SearchOutcome {
            history: vec![(2, 4.0), (9, 3.0)],
            best_cost: 3.0,
            best_grid: Some(g.clone()),
            evaluated: vec![],
        };
        // Search beat the init phase: init breakpoint prepended, curve
        // shifted, search best kept.
        let merged = out.clone().with_init_prefix(10, 5.0, None);
        assert_eq!(merged.history, vec![(10, 5.0), (12, 4.0), (19, 3.0)]);
        assert_eq!(merged.best_cost, 3.0);
        assert!(merged.best_grid.is_some());
        // Init phase beat the search: init best (and grid) win.
        let merged = out.with_init_prefix(10, 2.0, None);
        assert_eq!(merged.best_cost, 2.0);
        assert!(merged.best_grid.is_none());
        // An infinite init best (empty init phase) adds no breakpoint.
        let empty = SearchOutcome {
            history: vec![(1, 7.0)],
            best_cost: 7.0,
            best_grid: None,
            evaluated: vec![],
        };
        let merged = empty.with_init_prefix(3, f64::INFINITY, None);
        assert_eq!(merged.history, vec![(4, 7.0)]);
        assert_eq!(merged.best_cost, 7.0);
    }

    #[test]
    fn best_within_and_reach() {
        let out = SearchOutcome {
            history: vec![(5, 5.0), (20, 3.0), (50, 3.0)],
            best_cost: 3.0,
            best_grid: None,
            evaluated: vec![],
        };
        assert_eq!(out.best_within(4), f64::INFINITY);
        assert_eq!(out.best_within(10), 5.0);
        assert_eq!(out.best_within(100), 3.0);
        assert_eq!(out.sims_to_reach(3.5), Some(20));
        assert_eq!(out.sims_to_reach(2.0), None);
    }
}
