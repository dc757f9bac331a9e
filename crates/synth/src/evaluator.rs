//! Cost evaluators: the black-box function `f` of Algorithm 1, with
//! caching and simulation accounting.

use crate::cost::{CostParams, PpaReport};
use crate::flow::SynthesisFlow;
use crate::pareto::SharedArchive;
use crate::session::EvalSession;
use cv_prefix::PrefixGrid;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A counter of physical-simulation calls — the budget axis of every
/// figure in the paper. Clone-shareable.
#[derive(Debug, Clone, Default)]
pub struct SimCounter(Arc<AtomicUsize>);

impl SimCounter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current count.
    pub fn count(&self) -> usize {
        self.0.load(Ordering::Relaxed)
    }

    /// Adds `n` simulations.
    pub fn add(&self, n: usize) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the count — only meaningful while no evaluation is in
    /// flight (checkpoint restore between driver steps).
    pub fn set(&self, n: usize) {
        self.0.store(n, Ordering::Relaxed);
    }
}

/// The outcome of one evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalRecord {
    /// Scalar cost `f(x)`.
    pub cost: f64,
    /// The underlying PPA report.
    pub ppa: PpaReport,
}

/// A replayable snapshot of a [`CachedEvaluator`]: its cache contents
/// (canonically sorted) and simulation count. See
/// [`CachedEvaluator::state`].
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluatorState {
    /// Every cached `(grid, record)` pair, sorted by encoded grid bytes.
    pub entries: Vec<(PrefixGrid, EvalRecord)>,
    /// The simulation count at snapshot time.
    pub sims: usize,
}

/// A synthesis flow paired with cost parameters: the full black-box
/// objective `f(x) = ω·10·delay + (1−ω)·area/100`.
#[derive(Debug, Clone)]
pub struct Objective {
    flow: SynthesisFlow,
    cost: CostParams,
}

impl Objective {
    /// Couples a flow with cost parameters. The flow's sizing weight is
    /// aligned to the cost's delay weight so synthesis optimizes what the
    /// search measures.
    pub fn new(mut flow: SynthesisFlow, cost: CostParams) -> Self {
        flow.config_mut().delay_weight = cost.delay_weight;
        Objective { flow, cost }
    }

    /// Evaluates one grid (one "simulation").
    pub fn evaluate(&self, grid: &PrefixGrid) -> EvalRecord {
        let ppa = self.flow.synthesize(grid);
        EvalRecord {
            cost: self.cost.cost(&ppa),
            ppa,
        }
    }

    /// The synthesis flow.
    pub fn flow(&self) -> &SynthesisFlow {
        &self.flow
    }

    /// The cost parameters.
    pub fn cost_params(&self) -> CostParams {
        self.cost
    }

    /// A sweep of objectives over `weights`, all sharing `flow`'s
    /// structure: the scalarization ladder a frontier campaign walks.
    /// Each clone's sizing weight is aligned to its own ω (as in
    /// [`Objective::new`]), so every rung optimizes what it measures.
    pub fn weight_sweep(flow: SynthesisFlow, weights: &[f64]) -> Vec<Objective> {
        weights
            .iter()
            .map(|&w| Objective::new(flow.clone(), CostParams::new(w)))
            .collect()
    }
}

/// The evaluator's mutable state, all behind its one lock.
struct Inner {
    /// Every simulated design's record, keyed by legalized grid.
    cache: HashMap<PrefixGrid, EvalRecord>,
    /// The resident incremental session: `None` before the first miss,
    /// and after a panicking synthesis dropped it.
    session: Option<EvalSession>,
    /// Optional frontier observer: every *counted* simulation offers its
    /// (grid, PPA) to the attached archive. Observation-only — see the
    /// archiving contract on `attach_archive`.
    archive: Option<SharedArchive>,
    /// The counted simulations not yet taken, in simulation order;
    /// `None` unless enabled by `log_simulations`.
    simulated: Option<Vec<(PrefixGrid, EvalRecord)>>,
}

/// A caching, counting, thread-safe evaluator.
///
/// Re-evaluating a grid already in the cache costs nothing and does *not*
/// increment the simulation counter: like the paper's setup, the budget
/// counts calls to the physical simulator, and any production system
/// memoizes identical netlists. Grids are cached by their *legalized*
/// form, so structurally equivalent queries share one simulation (the
/// paper notes legalization "may be considered part of the objective").
///
/// The cache, the resident session, and the archive hook sit behind one
/// lock that a query holds until it returns, synthesis included:
/// concurrent queries of one evaluator run one at a time, so no design
/// is ever simulated or counted twice. A search queries its evaluator
/// from one thread; parallel campaigns give every job its own.
pub struct CachedEvaluator {
    objective: Objective,
    inner: Mutex<Inner>,
    counter: SimCounter,
    incremental: bool,
}

impl CachedEvaluator {
    /// Wraps an objective; cache misses run through the evaluator's one
    /// resident incremental [`EvalSession`].
    pub fn new(objective: Objective) -> Self {
        Self::with_incremental(objective, true)
    }

    /// Wraps an objective with the incremental fast path disabled: every
    /// cache miss re-runs the full map → buffer → size → time flow from
    /// scratch. Only useful as the baseline in A/B benchmarks and
    /// equivalence tests — results are identical either way.
    pub fn new_reference(objective: Objective) -> Self {
        Self::with_incremental(objective, false)
    }

    fn with_incremental(objective: Objective, incremental: bool) -> Self {
        CachedEvaluator {
            objective,
            inner: Mutex::new(Inner {
                cache: HashMap::new(),
                session: None,
                archive: None,
                simulated: None,
            }),
            counter: SimCounter::new(),
            incremental,
        }
    }

    /// Attaches a Pareto archive: from now on every counted simulation
    /// (cache miss) offers its legalized `(grid, PPA)` to the archive,
    /// so any scalar search yields an area-delay frontier for free.
    /// Returns the previously attached archive, if any.
    ///
    /// **Contract (DESIGN.md §6, Contract 7): archiving never changes
    /// search decisions.** The archive only observes — evaluation
    /// results, cache contents, and simulation accounting are bit-for-bit
    /// identical with or without an archive attached.
    pub fn attach_archive(&self, archive: SharedArchive) -> Option<SharedArchive> {
        self.inner.lock().archive.replace(archive)
    }

    /// Detaches and returns the current archive, if any.
    pub fn detach_archive(&self) -> Option<SharedArchive> {
        self.inner.lock().archive.take()
    }

    /// A handle to the attached archive, if any.
    pub fn archive(&self) -> Option<SharedArchive> {
        self.inner.lock().archive.clone()
    }

    /// Starts logging every counted simulation, in simulation order,
    /// for [`CachedEvaluator::take_simulated`] — how a persistent task
    /// journals only the work since its previous checkpoint. Like the
    /// archive hook, the log only observes.
    pub fn log_simulations(&self) {
        self.inner.lock().simulated.get_or_insert_with(Vec::new);
    }

    /// Drains the simulations logged since the previous call, in
    /// simulation order: the `i`-th was counted as simulation
    /// `counter().count() - len + i + 1`. Empty unless
    /// [`CachedEvaluator::log_simulations`] is on.
    pub fn take_simulated(&self) -> Vec<(PrefixGrid, EvalRecord)> {
        self.inner
            .lock()
            .simulated
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Whether cache misses use the incremental session path.
    pub fn is_incremental(&self) -> bool {
        self.incremental
    }

    /// The shared simulation counter.
    pub fn counter(&self) -> &SimCounter {
        &self.counter
    }

    /// The wrapped objective.
    pub fn objective(&self) -> &Objective {
        &self.objective
    }

    /// Number of distinct designs simulated so far.
    pub fn unique_designs(&self) -> usize {
        self.inner.lock().cache.len()
    }

    /// Evaluates one grid, consulting the cache.
    pub fn evaluate(&self, grid: &PrefixGrid) -> EvalRecord {
        if grid.is_legal() {
            self.evaluate_key(grid)
        } else {
            self.evaluate_key(&grid.legalized())
        }
    }

    /// [`CachedEvaluator::evaluate`] for an already-legalized key.
    fn evaluate_key(&self, key: &PrefixGrid) -> EvalRecord {
        let mut inner = self.inner.lock();
        if let Some(&rec) = inner.cache.get(key) {
            return rec;
        }
        let rec = if self.incremental {
            // Moved out for the synthesis, so a panic drops the session
            // instead of leaving it half-updated; the key then stays
            // uncached and uncounted.
            let mut session = inner
                .session
                .take()
                .unwrap_or_else(|| EvalSession::from_objective(&self.objective));
            let rec = session.evaluate(key);
            inner.session = Some(session);
            rec
        } else {
            self.objective.evaluate(key)
        };
        self.counter.add(1);
        if let Some(archive) = &inner.archive {
            archive
                .lock()
                .insert(key.clone(), rec.ppa, self.counter.count());
        }
        if let Some(log) = &mut inner.simulated {
            log.push((key.clone(), rec));
        }
        inner.cache.insert(key.clone(), rec);
        rec
    }

    /// Captures the evaluator's replayable state — every cached
    /// `(grid, record)` pair plus the simulation count — for comparing
    /// evaluators and seeding fresh ones. Entries are sorted canonically
    /// (by encoded grid bytes) so the snapshot is deterministic
    /// regardless of hash-map iteration order.
    ///
    /// Restoring the snapshot into a *fresh* evaluator of the same
    /// objective ([`CachedEvaluator::restore_state`]) makes it
    /// observationally identical to the original: the same queries hit
    /// the cache, so budget accounting resumes without double-counting —
    /// the property Contract 8's kill-and-resume equality rests on.
    pub fn state(&self) -> EvaluatorState {
        let mut keyed: Vec<(Vec<u8>, (PrefixGrid, EvalRecord))> = self
            .inner
            .lock()
            .cache
            .iter()
            .map(|(g, &rec)| {
                let mut enc = crate::ckpt::Enc::new();
                enc.grid(g);
                (enc.finish(), (g.clone(), rec))
            })
            .collect();
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        EvaluatorState {
            entries: keyed.into_iter().map(|(_, e)| e).collect(),
            sims: self.counter.count(),
        }
    }

    /// Restores a snapshot captured by [`CachedEvaluator::state`]:
    /// replaces the cache contents and the simulation count. Intended
    /// for a freshly built evaluator of the same objective; any existing
    /// cache entries are dropped. Restored entries are not logged (see
    /// [`CachedEvaluator::log_simulations`]).
    pub fn restore_state(&self, state: &EvaluatorState) {
        self.inner.lock().cache = state.entries.iter().cloned().collect();
        self.counter.set(state.sims);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_cells::nangate45_like;
    use cv_prefix::{mutate, topologies, CircuitKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn evaluator(n: usize, w: f64) -> CachedEvaluator {
        let flow = SynthesisFlow::new(nangate45_like(), CircuitKind::Adder, n);
        CachedEvaluator::new(Objective::new(flow, CostParams::new(w)))
    }

    #[test]
    fn cache_hits_do_not_count() {
        let ev = evaluator(16, 0.66);
        let g = topologies::sklansky(16);
        let a = ev.evaluate(&g);
        let b = ev.evaluate(&g);
        assert_eq!(a, b);
        assert_eq!(ev.counter().count(), 1);
        assert_eq!(ev.unique_designs(), 1);
    }

    #[test]
    fn illegal_and_legalized_twins_share_a_simulation() {
        let ev = evaluator(16, 0.66);
        let mut g = PrefixGrid::ripple(16);
        g.set(15, 8, true).unwrap();
        let a = ev.evaluate(&g);
        let b = ev.evaluate(&g.legalized());
        assert_eq!(a, b);
        assert_eq!(ev.counter().count(), 1);
    }

    #[test]
    fn concurrent_queries_of_one_design_simulate_once() {
        // The lock spans the whole miss, so racing queries of an
        // uncached design share one simulation and one count.
        let ev = evaluator(12, 0.5);
        let grid = topologies::kogge_stone(12);
        let start = std::sync::Barrier::new(4);
        let records: Vec<EvalRecord> = std::thread::scope(|s| {
            let queries: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        ev.evaluate(&grid)
                    })
                })
                .collect();
            queries
                .into_iter()
                .map(|q| q.join().expect("query thread panicked"))
                .collect()
        });
        assert!(records.iter().all(|r| *r == records[0]));
        assert_eq!(ev.counter().count(), 1);
        assert_eq!(ev.unique_designs(), 1);
    }

    #[test]
    fn cost_orders_match_weight() {
        // At ω→1 a fast design wins; at ω→0 a small one wins.
        let fast_ev = evaluator(32, 0.99);
        let small_ev = evaluator(32, 0.01);
        let rip = topologies::ripple(32);
        let ks = topologies::kogge_stone(32);
        assert!(fast_ev.evaluate(&ks).cost < fast_ev.evaluate(&rip).cost);
        assert!(small_ev.evaluate(&rip).cost < small_ev.evaluate(&ks).cost);
    }

    #[test]
    fn incremental_and_reference_paths_agree() {
        let flow = SynthesisFlow::new(nangate45_like(), CircuitKind::Adder, 12);
        let fast = CachedEvaluator::new(Objective::new(flow.clone(), CostParams::new(0.66)));
        let reference = CachedEvaluator::new_reference(Objective::new(flow, CostParams::new(0.66)));
        assert!(fast.is_incremental() && !reference.is_incremental());
        let mut rng = StdRng::seed_from_u64(5);
        let mut grid = topologies::sklansky(12);
        for _ in 0..8 {
            let next = mutate::neighbour(&grid, &mut rng);
            let a = fast.evaluate(&next);
            let b = reference.evaluate(&next);
            assert_eq!(a, b, "fast path must be observationally identical");
            grid = next;
        }
        assert_eq!(fast.counter().count(), reference.counter().count());
    }

    #[test]
    fn attached_archive_captures_every_counted_simulation() {
        use crate::pareto::ParetoArchive;
        let ev = evaluator(12, 0.5);
        let baseline = ev.evaluate(&topologies::ripple(12)); // pre-attach: not archived
        let archive = ParetoArchive::new().with_log().into_shared();
        assert!(ev.attach_archive(archive.clone()).is_none());
        let a = ev.evaluate(&topologies::sklansky(12));
        let b = ev.evaluate(&topologies::brent_kung(12));
        let _cache_hit = ev.evaluate(&topologies::sklansky(12));
        {
            let arch = archive.lock();
            assert_eq!(
                arch.observations().len(),
                2,
                "one observation per counted simulation, none for cache hits"
            );
            assert!(!arch.is_empty() && arch.len() <= 2);
        }
        // Contract 7: archiving never changes search decisions — results
        // match an archive-free evaluator bit-for-bit.
        let plain = evaluator(12, 0.5);
        assert_eq!(plain.evaluate(&topologies::ripple(12)), baseline);
        assert_eq!(plain.evaluate(&topologies::sklansky(12)), a);
        assert_eq!(plain.evaluate(&topologies::brent_kung(12)), b);
        assert!(ev.detach_archive().is_some());
        assert!(ev.archive().is_none());
        let _ = ev.evaluate(&topologies::kogge_stone(12));
        assert_eq!(archive.lock().observations().len(), 2, "detached = silent");
    }

    #[test]
    fn snapshot_restore_preserves_cache_hits_and_counts() {
        let ev = evaluator(10, 0.5);
        let mut rng = StdRng::seed_from_u64(3);
        let grids: Vec<PrefixGrid> = (0..6)
            .map(|_| mutate::random_grid(10, 0.3, &mut rng))
            .collect();
        for g in &grids {
            let _ = ev.evaluate(g);
        }
        let state = ev.state();
        assert_eq!(state.sims, ev.counter().count());
        // Determinism: snapshotting twice yields identical entries.
        assert_eq!(ev.state(), state, "snapshot must be canonical");
        // Restore into a fresh evaluator: old queries are cache hits
        // (not re-counted), new queries count from the restored total.
        let fresh = evaluator(10, 0.5);
        fresh.restore_state(&state);
        let before = fresh.counter().count();
        assert_eq!(before, state.sims);
        for g in &grids {
            let a = fresh.evaluate(g);
            let b = ev.evaluate(g);
            assert_eq!(a, b);
        }
        assert_eq!(fresh.counter().count(), before, "all hits, none counted");
        let _ = fresh.evaluate(&topologies::sklansky(10));
        assert_eq!(fresh.counter().count(), before + 1);
    }

    #[test]
    fn simulation_log_takes_counted_simulations_in_order() {
        let ev = evaluator(10, 0.5);
        let early = ev.evaluate(&topologies::ripple(10));
        assert!(ev.take_simulated().is_empty(), "the log is off by default");
        ev.log_simulations();
        let designs = [
            topologies::sklansky(10),
            topologies::brent_kung(10),
            topologies::kogge_stone(10),
        ];
        let records: Vec<EvalRecord> = designs.iter().map(|g| ev.evaluate(g)).collect();
        let _hit = ev.evaluate(&designs[0]);
        let _restored_hit = ev.evaluate(&topologies::ripple(10));
        let taken = ev.take_simulated();
        let want: Vec<(PrefixGrid, EvalRecord)> = designs
            .iter()
            .map(PrefixGrid::legalized)
            .zip(records)
            .collect();
        assert_eq!(taken, want, "counted misses only, in simulation order");
        assert!(ev.take_simulated().is_empty(), "taking drains the log");
        // A restore neither logs nor clears the log.
        let next = ev.evaluate(&topologies::han_carlson(10));
        ev.restore_state(&EvaluatorState {
            entries: vec![(topologies::ripple(10), early)],
            sims: 1,
        });
        assert_eq!(
            ev.take_simulated(),
            vec![(topologies::han_carlson(10).legalized(), next)]
        );
    }

    #[test]
    fn weight_sweep_builds_aligned_objectives() {
        let flow = SynthesisFlow::new(nangate45_like(), CircuitKind::Adder, 12);
        let sweep = Objective::weight_sweep(flow, &[0.1, 0.5, 0.9]);
        assert_eq!(sweep.len(), 3);
        let g = topologies::sklansky(12);
        for (obj, w) in sweep.iter().zip([0.1, 0.5, 0.9]) {
            assert_eq!(obj.cost_params().delay_weight, w);
            assert_eq!(
                obj.flow().config().delay_weight,
                w,
                "sizing weight aligned to the cost weight"
            );
            let rec = obj.evaluate(&g);
            assert_eq!(rec.cost, obj.cost_params().cost(&rec.ppa));
        }
    }

    #[test]
    fn panicking_evaluation_does_not_wedge_the_key() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let ev = evaluator(8, 0.5);
        let reference = evaluator(8, 0.5);
        let warm = topologies::sklansky(8);
        assert_eq!(ev.evaluate(&warm), reference.evaluate(&warm));
        let wrong_width = topologies::sklansky(12);
        // Width mismatch panics inside the flow, dropping the resident
        // session; the key must stay uncached so later queries see the
        // original panic, and the evaluator must stay usable.
        for _ in 0..2 {
            let r = catch_unwind(AssertUnwindSafe(|| ev.evaluate(&wrong_width)));
            let msg = *r
                .expect_err("width mismatch must panic")
                .downcast::<String>()
                .unwrap();
            assert!(msg.contains("width mismatch"), "unexpected panic: {msg}");
        }
        assert_eq!(ev.counter().count(), 1, "failed evaluations must not count");
        let next = topologies::brent_kung(8);
        assert_eq!(ev.evaluate(&next), reference.evaluate(&next));
        assert_eq!(ev.counter().count(), 2);
    }
}
