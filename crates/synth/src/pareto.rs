//! Multi-objective (area, delay) Pareto machinery: the archive every
//! search method feeds, plus the non-dominated sorting and crowding
//! primitives NSGA-II-style selection is built from.
//!
//! The paper's headline result is not a single best adder but the whole
//! area-delay tradeoff curve; a [`ParetoArchive`] attached to a
//! [`CachedEvaluator`](crate::CachedEvaluator) captures that curve as a
//! by-product of any scalar search — archiving is observation-only and
//! never changes search decisions (DESIGN.md §6, Contract 7).

use crate::cost::PpaReport;
use cv_prefix::PrefixGrid;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Returns true when `a` Pareto-dominates `b` in (area, delay)
/// minimization: no worse in both objectives and strictly better in at
/// least one.
#[inline]
pub fn dominates(a: &PpaReport, b: &PpaReport) -> bool {
    dominates_xy((a.area_um2, a.delay_ns), (b.area_um2, b.delay_ns))
}

/// [`dominates`] on raw `(area, delay)` pairs.
#[inline]
pub fn dominates_xy(a: (f64, f64), b: (f64, f64)) -> bool {
    a.0 <= b.0 && a.1 <= b.1 && (a.0 < b.0 || a.1 < b.1)
}

/// One archived design: the grid, its full PPA report, and the
/// simulation count at which it was first observed (the budget axis of
/// every hypervolume-vs-simulations table).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParetoPoint {
    /// The (legalized) design.
    pub grid: PrefixGrid,
    /// Its synthesized PPA.
    pub ppa: PpaReport,
    /// Simulation count when this design was first evaluated.
    pub sims: usize,
}

/// One raw observation `(sims, area, delay)` — every evaluated design,
/// dominated or not, kept when the archive's log is enabled so frontier
/// metrics can be recomputed at any budget cut.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Simulation count at evaluation time.
    pub sims: usize,
    /// Synthesized area, µm².
    pub area_um2: f64,
    /// Synthesized critical-path delay, ns.
    pub delay_ns: f64,
}

/// A bounded archive of mutually non-dominated `(grid, PPA)` points in
/// the (area, delay) plane.
///
/// Insertion is dominance-filtered: a candidate that is dominated (or a
/// duplicate / ε-duplicate of an archived point) is rejected, and an
/// accepted candidate evicts every point it dominates. The front is kept
/// sorted by ascending area (hence strictly descending delay), so
/// [`ParetoArchive::front`] is directly plottable.
///
/// With `epsilon == 0` and unbounded capacity the archived front is
/// exactly the non-dominated subset of everything ever inserted, which
/// makes it independent of insertion order (pinned by property tests).
/// A capacity bound prunes by crowding distance (extreme points are
/// never pruned); an ε grid coarsens the front by rejecting candidates
/// within `(eps_area, eps_delay)` of an archived point that is at least
/// as good after the tolerance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParetoArchive {
    front: Vec<ParetoPoint>,
    eps_area: f64,
    eps_delay: f64,
    capacity: Option<usize>,
    keep_log: bool,
    log: Vec<Observation>,
    inserted: usize,
    accepted: usize,
    sim_offset: usize,
}

impl Default for ParetoArchive {
    fn default() -> Self {
        Self::new()
    }
}

impl ParetoArchive {
    /// An exact (ε = 0), unbounded archive with the observation log off.
    pub fn new() -> Self {
        ParetoArchive {
            front: Vec::new(),
            eps_area: 0.0,
            eps_delay: 0.0,
            capacity: None,
            keep_log: false,
            log: Vec::new(),
            inserted: 0,
            accepted: 0,
            sim_offset: 0,
        }
    }

    /// Sets the offset added to every subsequent observation's `sims`
    /// stamp. One archive often observes a *sequence* of evaluators —
    /// e.g. a weight sweep builds a fresh evaluator (counter at zero)
    /// per rung — and the offset keeps the archive's simulation axis
    /// cumulative across them.
    pub fn set_sim_offset(&mut self, offset: usize) {
        self.sim_offset = offset;
    }

    /// The current simulation-stamp offset.
    pub fn sim_offset(&self) -> usize {
        self.sim_offset
    }

    /// Sets the ε-dedup resolution: a candidate within `eps_area` µm² and
    /// `eps_delay` ns of an archived point that is at least as good up to
    /// that tolerance is treated as a duplicate and rejected.
    #[must_use]
    pub fn with_epsilon(mut self, eps_area: f64, eps_delay: f64) -> Self {
        assert!(
            eps_area >= 0.0 && eps_delay >= 0.0,
            "epsilon must be non-negative"
        );
        self.eps_area = eps_area;
        self.eps_delay = eps_delay;
        self
    }

    /// Bounds the front to `capacity` points, pruning by smallest
    /// crowding distance when the bound is exceeded (the two extreme
    /// points are never pruned).
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity >= 2, "a bounded front needs room for its extremes");
        self.capacity = Some(capacity);
        self
    }

    /// Enables the raw observation log (every [`ParetoArchive::insert`]
    /// call is recorded, accepted or not) for budget-cut frontier
    /// metrics.
    #[must_use]
    pub fn with_log(mut self) -> Self {
        self.keep_log = true;
        self
    }

    /// Wraps the archive for sharing across evaluators and threads.
    pub fn into_shared(self) -> SharedArchive {
        Arc::new(Mutex::new(self))
    }

    /// Writes the full archive state (front, log, counters, settings)
    /// into a checkpoint encoder; [`ParetoArchive::read_ckpt`] restores
    /// it bit-for-bit.
    pub fn write_ckpt(&self, enc: &mut crate::ckpt::Enc) {
        enc.usize(self.front.len());
        for p in &self.front {
            enc.grid(&p.grid);
            enc.ppa(&p.ppa);
            enc.usize(p.sims);
        }
        enc.f64(self.eps_area);
        enc.f64(self.eps_delay);
        enc.bool(self.capacity.is_some());
        enc.usize(self.capacity.unwrap_or(0));
        enc.bool(self.keep_log);
        enc.usize(self.log.len());
        for o in &self.log {
            enc.usize(o.sims);
            enc.f64(o.area_um2);
            enc.f64(o.delay_ns);
        }
        enc.usize(self.inserted);
        enc.usize(self.accepted);
        enc.usize(self.sim_offset);
    }

    /// Reads an archive written by [`ParetoArchive::write_ckpt`].
    ///
    /// # Errors
    ///
    /// Propagates [`crate::ckpt::CkptError`] on malformed input.
    pub fn read_ckpt(dec: &mut crate::ckpt::Dec<'_>) -> Result<Self, crate::ckpt::CkptError> {
        let n = dec.seq_len()?;
        let mut front = Vec::with_capacity(n);
        for _ in 0..n {
            front.push(ParetoPoint {
                grid: dec.grid()?,
                ppa: dec.ppa()?,
                sims: dec.usize()?,
            });
        }
        let eps_area = dec.f64()?;
        let eps_delay = dec.f64()?;
        let has_capacity = dec.bool()?;
        let capacity_raw = dec.usize()?;
        let keep_log = dec.bool()?;
        let n = dec.seq_len()?;
        let mut log = Vec::with_capacity(n);
        for _ in 0..n {
            log.push(Observation {
                sims: dec.usize()?,
                area_um2: dec.f64()?,
                delay_ns: dec.f64()?,
            });
        }
        Ok(ParetoArchive {
            front,
            eps_area,
            eps_delay,
            capacity: has_capacity.then_some(capacity_raw),
            keep_log,
            log,
            inserted: dec.usize()?,
            accepted: dec.usize()?,
            sim_offset: dec.usize()?,
        })
    }

    /// The archive as standalone checkpoint bytes (front + log +
    /// counters) — two archives are equal iff their bytes are, which is
    /// how the resume tests byte-diff Pareto fronts.
    pub fn to_ckpt_bytes(&self) -> Vec<u8> {
        let mut enc = crate::ckpt::Enc::new();
        self.write_ckpt(&mut enc);
        enc.finish()
    }

    /// The current front, sorted by ascending area (descending delay).
    pub fn front(&self) -> &[ParetoPoint] {
        &self.front
    }

    /// The raw observation log (empty unless enabled via
    /// [`ParetoArchive::with_log`]).
    pub fn observations(&self) -> &[Observation] {
        &self.log
    }

    /// Number of points currently on the front.
    pub fn len(&self) -> usize {
        self.front.len()
    }

    /// Whether the front is empty.
    pub fn is_empty(&self) -> bool {
        self.front.is_empty()
    }

    /// Total `insert` calls observed.
    pub fn inserted(&self) -> usize {
        self.inserted
    }

    /// Of those, how many were accepted onto the front (some may have
    /// been evicted or pruned since).
    pub fn accepted(&self) -> usize {
        self.accepted
    }

    /// The front as bare `(area, delay)` pairs, ascending in area.
    pub fn objectives(&self) -> Vec<(f64, f64)> {
        self.front
            .iter()
            .map(|p| (p.ppa.area_um2, p.ppa.delay_ns))
            .collect()
    }

    /// Offers one design to the archive. Returns `true` if it joined the
    /// front. Rejected candidates (dominated, duplicate, ε-duplicate)
    /// leave the front untouched; accepted ones evict what they dominate.
    pub fn insert(&mut self, grid: PrefixGrid, ppa: PpaReport, sims: usize) -> bool {
        self.inserted += 1;
        let sims = sims + self.sim_offset;
        if self.keep_log {
            self.log.push(Observation {
                sims,
                area_um2: ppa.area_um2,
                delay_ns: ppa.delay_ns,
            });
        }
        let cand = (ppa.area_um2, ppa.delay_ns);
        if !cand.0.is_finite() || !cand.1.is_finite() {
            return false;
        }
        // Reject if any archived point is at least as good in both
        // objectives after the ε tolerance. With ε = 0 this covers both
        // strict dominance and exact duplicates.
        let rejected = self.front.iter().any(|p| {
            p.ppa.area_um2 <= cand.0 + self.eps_area && p.ppa.delay_ns <= cand.1 + self.eps_delay
        });
        if rejected {
            return false;
        }
        self.front
            .retain(|p| !dominates_xy(cand, (p.ppa.area_um2, p.ppa.delay_ns)));
        let at = self
            .front
            .partition_point(|p| (p.ppa.area_um2, p.ppa.delay_ns) < cand);
        self.front.insert(at, ParetoPoint { grid, ppa, sims });
        self.accepted += 1;
        if let Some(cap) = self.capacity {
            while self.front.len() > cap {
                self.prune_most_crowded();
            }
        }
        true
    }

    /// Removes the interior point with the smallest crowding distance.
    fn prune_most_crowded(&mut self) {
        debug_assert!(self.front.len() > 2);
        let objs = self.objectives();
        let members: Vec<usize> = (0..objs.len()).collect();
        let dist = crowding_distance(&objs, &members);
        let mut worst = 1;
        for i in 1..objs.len() - 1 {
            if dist[i] < dist[worst] {
                worst = i;
            }
        }
        self.front.remove(worst);
    }
}

/// A clone-shareable, lock-guarded archive: the form
/// [`CachedEvaluator::attach_archive`](crate::CachedEvaluator::attach_archive)
/// accepts, so one archive can observe several evaluators (e.g. a weight
/// sweep) at once.
pub type SharedArchive = Arc<Mutex<ParetoArchive>>;

/// Fast non-dominated sort (NSGA-II): partitions point indices into
/// fronts `F0, F1, ...` where `F0` is the non-dominated set, `F1` is
/// non-dominated once `F0` is removed, and so on. O(n²) comparisons,
/// which is fine at population scale.
pub fn non_dominated_sort(objs: &[(f64, f64)]) -> Vec<Vec<usize>> {
    let n = objs.len();
    if n == 0 {
        return Vec::new();
    }
    let mut dominated_by = vec![0usize; n]; // how many points dominate i
    let mut dominating: Vec<Vec<usize>> = vec![Vec::new(); n]; // i dominates these
    for i in 0..n {
        for j in 0..n {
            if i != j && dominates_xy(objs[i], objs[j]) {
                dominating[i].push(j);
                dominated_by[j] += 1;
            }
        }
    }
    let mut fronts: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&i| dominated_by[i] == 0).collect();
    while !current.is_empty() {
        let mut next = Vec::new();
        for &i in &current {
            for &j in &dominating[i] {
                dominated_by[j] -= 1;
                if dominated_by[j] == 0 {
                    next.push(j);
                }
            }
        }
        next.sort_unstable();
        fronts.push(std::mem::replace(&mut current, next));
    }
    fronts
}

/// NSGA-II crowding distance of each member of one front, aligned with
/// `members`. Extreme points in either objective get `f64::INFINITY`;
/// interior points get the normalized perimeter of their neighbour
/// cuboid. Degenerate fronts (≤ 2 members, or zero objective range)
/// yield all-infinite distances.
pub fn crowding_distance(objs: &[(f64, f64)], members: &[usize]) -> Vec<f64> {
    let m = members.len();
    if m <= 2 {
        return vec![f64::INFINITY; m];
    }
    let mut dist = vec![0.0f64; m];
    // Positions 0..m index into `members`.
    for obj in 0..2 {
        let get = |k: usize| {
            let (a, d) = objs[members[k]];
            if obj == 0 {
                a
            } else {
                d
            }
        };
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by(|&x, &y| get(x).total_cmp(&get(y)));
        let lo = get(order[0]);
        let hi = get(order[m - 1]);
        dist[order[0]] = f64::INFINITY;
        dist[order[m - 1]] = f64::INFINITY;
        let range = hi - lo;
        if range <= 0.0 {
            continue;
        }
        for w in 1..m - 1 {
            let d = (get(order[w + 1]) - get(order[w - 1])) / range;
            dist[order[w]] += d;
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_prefix::PrefixGrid;

    fn ppa(area: f64, delay: f64) -> PpaReport {
        PpaReport {
            area_um2: area,
            delay_ns: delay,
            gate_count: 0,
            buffers_inserted: 0,
            gates_upsized: 0,
        }
    }

    fn grid() -> PrefixGrid {
        PrefixGrid::ripple(8)
    }

    #[test]
    fn empty_archive() {
        let a = ParetoArchive::new();
        assert!(a.is_empty());
        assert_eq!(a.len(), 0);
        assert!(a.front().is_empty());
        assert!(a.objectives().is_empty());
        assert_eq!(a.inserted(), 0);
    }

    #[test]
    fn single_point_is_the_front() {
        let mut a = ParetoArchive::new();
        assert!(a.insert(grid(), ppa(100.0, 1.0), 1));
        assert_eq!(a.len(), 1);
        assert_eq!(a.front()[0].sims, 1);
    }

    #[test]
    fn duplicate_ppa_is_rejected() {
        let mut a = ParetoArchive::new();
        assert!(a.insert(grid(), ppa(100.0, 1.0), 1));
        assert!(!a.insert(grid(), ppa(100.0, 1.0), 2));
        assert_eq!(a.len(), 1);
        assert_eq!(a.front()[0].sims, 1, "first observation wins");
        assert_eq!((a.inserted(), a.accepted()), (2, 1));
    }

    #[test]
    fn dominated_points_are_rejected_and_evicted() {
        let mut a = ParetoArchive::new();
        assert!(a.insert(grid(), ppa(100.0, 1.0), 1));
        // Dominated: worse in both.
        assert!(!a.insert(grid(), ppa(120.0, 1.2), 2));
        // Tradeoff: accepted.
        assert!(a.insert(grid(), ppa(80.0, 1.5), 3));
        assert_eq!(a.len(), 2);
        // Dominates both: evicts both.
        assert!(a.insert(grid(), ppa(70.0, 0.9), 4));
        assert_eq!(a.len(), 1);
        assert_eq!(a.front()[0].sims, 4);
    }

    #[test]
    fn front_is_sorted_by_area_and_mutually_non_dominated() {
        let mut a = ParetoArchive::new();
        for (i, (ar, d)) in [
            (90.0, 1.1),
            (50.0, 2.0),
            (70.0, 1.5),
            (60.0, 1.4),
            (95.0, 1.05),
        ]
        .into_iter()
        .enumerate()
        {
            a.insert(grid(), ppa(ar, d), i);
        }
        let objs = a.objectives();
        for w in objs.windows(2) {
            assert!(w[0].0 < w[1].0, "ascending area");
            assert!(w[0].1 > w[1].1, "descending delay");
        }
        for (i, &x) in objs.iter().enumerate() {
            for (j, &y) in objs.iter().enumerate() {
                assert!(i == j || !dominates_xy(x, y), "{x:?} dominates {y:?}");
            }
        }
    }

    #[test]
    fn epsilon_rejects_near_duplicates() {
        let mut a = ParetoArchive::new().with_epsilon(1.0, 0.1);
        assert!(a.insert(grid(), ppa(100.0, 1.0), 1));
        // Within (1.0, 0.1) of an archived point that is as good up to
        // the tolerance: rejected even though it is 0.5 um2 smaller.
        assert!(!a.insert(grid(), ppa(99.5, 1.05), 2));
        // Clearly beyond the tolerance: accepted.
        assert!(a.insert(grid(), ppa(90.0, 1.5), 3));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn capacity_prunes_interior_by_crowding_and_keeps_extremes() {
        let mut a = ParetoArchive::new().with_capacity(3);
        // A dense interior cluster plus clear extremes.
        a.insert(grid(), ppa(10.0, 5.0), 0);
        a.insert(grid(), ppa(50.0, 1.0), 1);
        a.insert(grid(), ppa(29.0, 3.05), 2);
        a.insert(grid(), ppa(30.0, 3.0), 3);
        a.insert(grid(), ppa(31.0, 2.95), 4);
        assert_eq!(a.len(), 3);
        let objs = a.objectives();
        assert_eq!(objs.first().unwrap().0, 10.0, "min-area extreme kept");
        assert_eq!(objs.last().unwrap().0, 50.0, "min-delay extreme kept");
    }

    #[test]
    fn non_finite_observations_are_rejected() {
        let mut a = ParetoArchive::new();
        assert!(!a.insert(grid(), ppa(f64::NAN, 1.0), 0));
        assert!(!a.insert(grid(), ppa(100.0, f64::INFINITY), 1));
        assert!(a.is_empty());
    }

    #[test]
    fn log_records_everything_when_enabled() {
        let mut a = ParetoArchive::new().with_log();
        a.insert(grid(), ppa(100.0, 1.0), 1);
        a.insert(grid(), ppa(120.0, 1.2), 2); // rejected but logged
        assert_eq!(a.observations().len(), 2);
        assert_eq!(a.observations()[1].sims, 2);
        let silent = ParetoArchive::new();
        assert!(silent.observations().is_empty());
    }

    #[test]
    fn non_dominated_sort_layers() {
        // F0: (1,4), (2,2), (4,1); F1: (3,3), (5,2); F2: (5,5).
        let objs = [
            (1.0, 4.0),
            (2.0, 2.0),
            (4.0, 1.0),
            (3.0, 3.0),
            (5.0, 2.0),
            (5.0, 5.0),
        ];
        let fronts = non_dominated_sort(&objs);
        assert_eq!(fronts.len(), 3);
        assert_eq!(fronts[0], vec![0, 1, 2]);
        assert_eq!(fronts[1], vec![3, 4]);
        assert_eq!(fronts[2], vec![5]);
        assert!(non_dominated_sort(&[]).is_empty());
    }

    #[test]
    fn crowding_extremes_are_infinite_and_interior_ranks_by_spacing() {
        let objs = [(0.0, 4.0), (1.0, 2.9), (2.0, 2.0), (3.0, 1.5), (6.0, 0.0)];
        let members: Vec<usize> = (0..objs.len()).collect();
        let d = crowding_distance(&objs, &members);
        assert!(d[0].is_infinite() && d[4].is_infinite());
        assert!(d.iter().all(|x| *x >= 0.0));
        // The point with the widest neighbour gap (index 3, next to the
        // far extreme) is less crowded than the middle of the cluster.
        assert!(d[3] > d[2]);
        assert_eq!(crowding_distance(&objs, &[0, 1]), vec![f64::INFINITY; 2]);
    }
}
