//! The two search workloads: CircuitVAE (`vae_w32`) and simulated
//! annealing (`sa_w32`) on a 32-bit adder, nangate45, ω = 0.66.
//!
//! An untraced run performs a fixed number of complete searches, each
//! with its own seed derived from the workload seed, through the
//! production `make_driver` path. A traced run repeats one search with
//! per-layer timers: the VAE as a replica of Algorithm 1 built from the
//! crates' public functions (checked byte-for-byte against the
//! production driver), SA as a per-step timed production driver; both
//! then replay a sample of the designs the search simulated stage by
//! stage.

use crate::report::{
    digest, mean, median, peak_rss_mb, percentile, time_weighted_percentile, Report,
};
use crate::Plan;
use circuitvae::driver::{SearchDriver, StepStatus};
use circuitvae::{
    decode_candidates, initial_latents, run_trajectories, train, CircuitVaeModel, Dataset,
};
use cv_baselines::ga_initial_dataset;
use cv_bench::harness::vae_config;
use cv_bench::{build_evaluator, make_driver, ExperimentSpec, Method};
use cv_nn::ParamStore;
use cv_prefix::{mutate, topologies, CircuitKind, PrefixGrid};
use cv_synth::{BestTracker, CachedEvaluator, EvalRecord, SearchOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::time::{Duration, Instant};

pub const WIDTH: usize = 32;
pub const DELAY_WEIGHT: f64 = 0.66;

/// The workload's experiment spec (nangate45, uniform IO).
pub fn spec(budget: usize) -> ExperimentSpec {
    ExperimentSpec::standard(WIDTH, CircuitKind::Adder, DELAY_WEIGHT, budget)
}

/// The sample-efficiency target: the best classical topology's cost
/// under the spec's own objective.
pub fn classical_target(spec: &ExperimentSpec) -> f64 {
    let ev = build_evaluator(spec);
    topologies::all_classical(spec.width)
        .iter()
        .map(|(_, g)| ev.evaluate(g).cost)
        .fold(f64::INFINITY, f64::min)
}

/// First simulation count at which the curve reached `target`, or
/// `budget + 1` when it never did.
pub fn sims_to_target(outcome: &SearchOutcome, target: f64, budget: usize) -> f64 {
    outcome.sims_to_reach(target).unwrap_or(budget + 1) as f64
}

/// The seed of the `i`-th search of a run.
pub fn unit_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(i as u64)
}

/// One complete production search, timed per driver step.
struct Unit {
    wall_s: f64,
    step_ms: Vec<f64>,
    outcome: SearchOutcome,
    evaluator: CachedEvaluator,
}

fn run_unit(method: Method, spec: &ExperimentSpec, seed: u64) -> Unit {
    let evaluator = build_evaluator(spec);
    let mut driver = make_driver(method, spec, seed);
    let mut step_ms = Vec::new();
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let status = driver.step(&evaluator);
        step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if status == StepStatus::Done {
            break;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let outcome = driver.outcome().cloned().expect("driver reported done");
    Unit {
        wall_s,
        step_ms,
        outcome,
        evaluator,
    }
}

/// The output checks every search must pass: it stayed within budget,
/// and its best design re-evaluates to its best cost bit-exactly on a
/// fresh evaluator.
fn check_outcome(
    report: &mut Report,
    label: &str,
    spec: &ExperimentSpec,
    outcome: &SearchOutcome,
    evaluator: &CachedEvaluator,
) {
    let last = outcome.history.iter().map(|&(s, _)| s).max().unwrap_or(0);
    report.check(
        format!(
            "{label}: within budget ({} sims)",
            evaluator.counter().count()
        ),
        evaluator.counter().count() <= spec.budget && last <= spec.budget,
    );
    let reproduced = outcome
        .best_grid
        .as_ref()
        .map(|g| build_evaluator(spec).evaluate(g).cost.to_bits() == outcome.best_cost.to_bits());
    report.check(
        format!("{label}: best_grid re-evaluates to best_cost bit-exactly"),
        reproduced == Some(true),
    );
}

/// The `--setup-probe` child: everything a search process does before
/// its first driver step.
pub fn setup_probe(method: Method, budget: usize) {
    let spec = spec(budget);
    let evaluator = build_evaluator(&spec);
    let driver = make_driver(method, &spec, 1);
    std::hint::black_box((&evaluator, &driver));
}

/// Process start → ready for the first driver step, measured on
/// `probes` child processes.
pub fn setup_samples(workload: &str, probes: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut samples = Vec::new();
    for _ in 0..probes {
        let t = Instant::now();
        let status = std::process::Command::new(&exe)
            .args(["--setup-probe", workload])
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("spawn setup probe: {e}"))?;
        samples.push(t.elapsed().as_secs_f64());
        if !status.success() {
            return Err(format!("setup probe exited with {status}"));
        }
    }
    Ok(samples)
}

/// The untraced run: `plan.units` searches to budget.
pub fn run(method: Method, workload: &str, plan: &Plan, seed: u64) -> Result<Report, String> {
    let spec = spec(plan.budget);
    let mut report = Report::default();
    let mut setups = Vec::new();
    let target = classical_target(&spec);
    let seeds: Vec<u64> = (0..plan.units).map(|i| unit_seed(seed, i)).collect();
    report.inputs = digest(&[&[plan.budget as u64], seeds.as_slice()].concat());

    let (mut walls, mut bests, mut reach) = (vec![], vec![], vec![]);
    let (mut p50s, mut p90s) = (vec![], vec![]);
    for &s in &seeds {
        // Set-up samples are spread over the run, so a slow spell of the
        // machine touches only some of them.
        setups.extend(setup_samples(workload, plan.probes.div_ceil(plan.units))?);
        let unit = run_unit(method, &spec, s);
        let checks_before = report.checks.len();
        check_outcome(
            &mut report,
            &format!("seed {s}"),
            &spec,
            &unit.outcome,
            &unit.evaluator,
        );
        report.attempted += 1;
        report.failed += u64::from(!report.checks[checks_before..].iter().all(|c| c.1));
        walls.push(unit.wall_s);
        bests.push(unit.outcome.best_cost);
        reach.push(sims_to_target(&unit.outcome, target, spec.budget));
        p50s.push(time_weighted_percentile(&unit.step_ms, 0.5));
        p90s.push(time_weighted_percentile(&unit.step_ms, 0.9));
        report.notes.push(format!(
            "search seed={s} wall_s={:.4} best_cost={:.6} sims_to_target={}",
            unit.wall_s,
            unit.outcome.best_cost,
            reach.last().expect("pushed")
        ));
    }
    let best_cost = mean(&bests);
    let stt = median(&reach);
    report.metric("setup_s", median(&setups), "s");
    report.metric("wall_s", median(&walls), "s");
    report.metric("best_cost", best_cost, "cost");
    // A search serves no requests; its step is what a request would
    // wait behind under campaignd. Percentiles are of the step in
    // progress at a random moment (durations weighted by length): a VAE
    // search has only ~9 steps, so a plain p90 would jump between its
    // warm-up round and an ordinary one as the step count changes.
    report.metric("req_p50_ms", median(&p50s), "ms");
    report.metric("req_p90_ms", median(&p90s), "ms");
    report.metric("peak_rss_mb", peak_rss_mb("self"), "MiB");
    report.exact.push(("best_cost", best_cost));
    report.exact.push(("sims_to_target", stt));
    report.notes.push(format!(
        "sims_to_target={stt} sims (target {target:.6}, budget {}; median over {} searches)",
        spec.budget,
        seeds.len()
    ));
    report.notes.push(format!(
        "failed_frac={} ({} of {} searches)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));
    Ok(report)
}

/// Per-phase accumulators of the traced VAE replica.
#[derive(Default)]
struct VaeTrace {
    ga_init: Duration,
    train: Duration,
    train_steps: usize,
    acquire: Duration,
    decode: Duration,
    eval: Duration,
    eval_calls: usize,
    sims: usize,
    rounds: usize,
    proposed: usize,
}

/// The harness's two-phase CircuitVAE method (GA-built initial dataset,
/// then Algorithm-1 rounds until the budget is spent), rebuilt from the
/// crates' public functions with a timer around each phase. It consumes
/// the same RNG streams in the same order as `VaeMethodDriver` wrapping
/// `CircuitVaeDriver`, so its outcome must be byte-identical.
fn vae_replica(
    spec: &ExperimentSpec,
    seed: u64,
    ev: &CachedEvaluator,
    tr: &mut VaeTrace,
) -> SearchOutcome {
    let cfg = vae_config(spec);
    let width = spec.width;
    let init_budget = ((spec.budget as f64 * spec.init_fraction) as usize).clamp(1, spec.budget);

    let t = Instant::now();
    let initial = ga_initial_dataset(width, ev, init_budget, &mut StdRng::seed_from_u64(seed));
    tr.ga_init += t.elapsed();
    let init_used = ev.counter().count();
    let init_best = initial
        .iter()
        .map(|(_, c)| *c)
        .fold(f64::INFINITY, f64::min);
    let init_best_grid = initial
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(g, _)| g.clone());

    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut store = ParamStore::new();
    let model = CircuitVaeModel::new(&mut store, &cfg, width, &mut rng);
    let mut dataset = Dataset::new(width, initial);
    let budget = spec.budget.saturating_sub(init_used);
    let mut tracker = BestTracker::new(false);
    let mut used = 0usize;
    if let Some((g, c)) = dataset.best().map(|(g, c)| (g.clone(), *c)) {
        tracker.observe(used, &g, c);
    }

    while used < budget {
        let remaining = budget - used;
        dataset.recompute_weights(cfg.rank_k, cfg.reweight_data);
        let steps = if tr.rounds == 0 {
            cfg.warmup_steps
        } else {
            cfg.train_steps_per_round
        };
        if !dataset.is_empty() {
            let t = Instant::now();
            train(&model, &mut store, &dataset, &cfg, steps, &mut rng);
            tr.train += t.elapsed();
            tr.train_steps += steps;
        }

        let t = Instant::now();
        let starts = initial_latents(
            &model,
            &store,
            &dataset,
            cfg.init,
            cfg.trajectories,
            &mut rng,
        );
        let latents: Vec<Vec<f32>> = run_trajectories(&model, &store, starts, &cfg, &mut rng)
            .into_iter()
            .flat_map(|r| r.points.into_iter().map(|p| p.z))
            .collect();
        tr.acquire += t.elapsed();

        let t = Instant::now();
        let mut candidates = decode_candidates(&model, &store, &latents, &mut rng);
        tr.decode += t.elapsed();

        let known: HashSet<PrefixGrid> = dataset
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
            let base = dataset
                .best()
                .map(|(g, _)| g.clone())
                .unwrap_or_else(|| PrefixGrid::ripple(width));
            for _ in 0..cfg.trajectories {
                candidates.push(mutate::neighbour(&base, &mut rng));
            }
        }

        let before = ev.counter().count();
        for grid in candidates {
            if ev.counter().count() - before >= remaining {
                break;
            }
            tr.proposed += 1;
            let t = Instant::now();
            let rec = ev.evaluate(&grid);
            tr.eval += t.elapsed();
            tr.eval_calls += 1;
            tracker.observe(used + (ev.counter().count() - before), &grid, rec.cost);
            let key = if grid.is_legal() {
                grid
            } else {
                grid.legalized()
            };
            dataset.insert(key, rec.cost);
        }
        let newly = ev.counter().count() - before;
        tr.sims += newly;
        used += newly;
        tr.rounds += 1;
    }
    tracker.finish(used);
    tracker
        .into_outcome()
        .with_init_prefix(init_used, init_best, init_best_grid)
}

/// Slack the replica's named phases must account for: the residual
/// (dataset bookkeeping, the exploration floor, tracker updates) stays
/// under this share of the replica wall.
const PHASE_SLACK: f64 = 0.05;
/// How far the traced replica's wall may drift from the untraced
/// production run on the same seed before the trace is rejected.
const WALL_SLACK: f64 = 0.25;

/// Per-stage times of one design replayed through the synthesis flow.
#[derive(Default)]
struct StageSample {
    legalize: Vec<f64>,
    map: Vec<f64>,
    buffer: Vec<f64>,
    rebuild: Vec<f64>,
    size: Vec<f64>,
    moves: Vec<f64>,
    session: Vec<f64>,
}

/// Replays `per_ev` designs from each evaluator — designs its search
/// actually simulated, spread evenly over its canonical state — through
/// each flow stage, timing each call and checking the stage-by-stage
/// PPA (and a resident session's) against the cached record.
pub fn stage_replay(report: &mut Report, evs: &[&CachedEvaluator], per_ev: usize) {
    let mut st = StageSample::default();
    let mut mismatches = 0usize;
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    for ev in evs {
        let entries = ev.state().entries;
        let flow = ev.objective().flow();
        let cost = ev.objective().cost_params();
        let (lib, cfg) = (flow.library(), flow.config());
        let stride = (entries.len() / per_ev.max(1)).max(1);
        let mut session = cv_synth::EvalSession::from_objective(ev.objective());
        let mut engine = cv_sta::TimingEngine::new();
        let mut path = Vec::new();
        for (grid, cached) in entries.iter().step_by(stride).take(per_ev) {
            let t = Instant::now();
            let legal = std::hint::black_box(grid.legalized());
            st.legalize.push(us(t));

            let t = Instant::now();
            let graph = legal.to_graph();
            let mut netlist = cv_netlist::map_circuit(&graph, flow.kind(), lib);
            st.map.push(us(t));

            let t = Instant::now();
            let buffers = cv_synth::buffer_high_fanout(&mut netlist, lib, cfg.max_fanout);
            st.buffer.push(us(t));

            let t = Instant::now();
            engine.rebuild(&netlist, lib, &cfg.io);
            st.rebuild.push(us(t));

            let t = Instant::now();
            let (upsized, delay_ns) = cv_synth::size_gates_incremental(
                &mut netlist,
                lib,
                &cfg.io,
                cfg.delay_weight,
                cfg.sizing_moves,
                &mut engine,
                &mut path,
            );
            st.size.push(us(t));
            st.moves.push(upsized as f64);

            let ppa = cv_synth::PpaReport {
                area_um2: netlist.area_um2(lib),
                delay_ns,
                gate_count: netlist.gate_count(),
                buffers_inserted: buffers,
                gates_upsized: upsized,
            };
            let staged = EvalRecord {
                cost: cost.cost(&ppa),
                ppa,
            };

            let t = Instant::now();
            let resident = session.evaluate(grid);
            st.session.push(us(t));

            let same = |r: &EvalRecord| r == cached && r.cost.to_bits() == cached.cost.to_bits();
            if !same(&staged) || !same(&resident) {
                mismatches += 1;
            }
        }
    }
    report.check(
        format!(
            "stage replay: {} designs reproduce their cached EvalRecord ({mismatches} mismatches)",
            st.session.len()
        ),
        mismatches == 0 && !st.session.is_empty(),
    );
    report.metric("prefix.legalize_us", median(&st.legalize), "us");
    report.metric("netlist.map_us", median(&st.map), "us");
    report.metric("synth.buffer_us", median(&st.buffer), "us");
    report.metric("sta.rebuild_us", median(&st.rebuild), "us");
    report.metric("synth.size_us", median(&st.size), "us");
    report.metric("synth.size_moves", median(&st.moves), "count");
    report.metric("synth.session_us", median(&st.session), "us");
}

/// The traced VAE run: the production driver (untraced wall, reference
/// bytes), the timed replica on a fresh evaluator, and the production
/// driver again, so the replica is compared with the mean of two
/// untraced runs that bracket it (a machine that speeds up or slows
/// down during the run moves both sides alike); then the stage replay.
pub fn trace_vae(plan: &Plan, seed: u64) -> Result<Report, String> {
    let spec = spec(plan.budget);
    let s = unit_seed(seed, 0);
    let mut report = Report {
        inputs: digest(&[plan.budget as u64, s]),
        ..Report::default()
    };
    let target = classical_target(&spec);

    let production = run_unit(Method::CircuitVae, &spec, s);
    check_outcome(
        &mut report,
        "production",
        &spec,
        &production.outcome,
        &production.evaluator,
    );

    let ev = build_evaluator(&spec);
    let mut tr = VaeTrace::default();
    let start = Instant::now();
    let replica = vae_replica(&spec, s, &ev, &mut tr);
    let wall = start.elapsed().as_secs_f64();
    check_outcome(&mut report, "replica", &spec, &replica, &ev);
    let untraced = (production.wall_s + run_unit(Method::CircuitVae, &spec, s).wall_s) / 2.0;
    report.attempted = 3;

    report.check(
        "replica SearchOutcome bytes equal the production make_driver outcome",
        replica.to_ckpt_bytes() == production.outcome.to_ckpt_bytes(),
    );
    let phases = [tr.ga_init, tr.train, tr.acquire, tr.decode, tr.eval]
        .iter()
        .map(|d| d.as_secs_f64())
        .sum::<f64>();
    let other = wall - phases;
    report.check(
        format!(
            "named phases sum to the replica wall within {:.0}% (residual {:.1}%)",
            PHASE_SLACK * 100.0,
            100.0 * other / wall
        ),
        other >= 0.0 && other <= PHASE_SLACK * wall,
    );
    let drift = (wall - untraced) / untraced;
    report.check(
        format!(
            "replica wall within {:.0}% of the bracketing untraced runs ({:+.1}%)",
            WALL_SLACK * 100.0,
            100.0 * drift
        ),
        drift.abs() <= WALL_SLACK,
    );
    report.failed = report.checks.iter().filter(|(_, ok)| !ok).count() as u64;

    let rounds = tr.rounds as f64;
    report.metric("trace.wall_s", wall, "s");
    report.metric("trace.untraced_wall_s", untraced, "s");
    report.metric("trace.overhead_s", wall - untraced, "s");
    report.metric(
        "search.sims_to_target",
        sims_to_target(&replica, target, spec.budget),
        "sims",
    );
    report.metric("baselines.ga_init_s", tr.ga_init.as_secs_f64(), "s");
    report.metric("core.train_s", tr.train.as_secs_f64(), "s");
    report.metric("core.train_steps", tr.train_steps as f64, "count");
    report.metric(
        "nn.train_step_ms",
        tr.train.as_secs_f64() * 1e3 / tr.train_steps.max(1) as f64,
        "ms",
    );
    report.metric("core.acquire_s", tr.acquire.as_secs_f64(), "s");
    report.metric("core.decode_s", tr.decode.as_secs_f64(), "s");
    report.metric("synth.eval_s", tr.eval.as_secs_f64(), "s");
    report.metric("core.other_s", other, "s");
    report.metric("core.rounds", rounds, "count");
    report.metric("core.proposed", tr.proposed as f64, "count");
    report.metric(
        "core.fresh_frac",
        tr.sims as f64 / tr.proposed.max(1) as f64,
        "ratio",
    );
    report.metric("synth.eval_calls", tr.eval_calls as f64, "count");
    report.metric("synth.sims", tr.sims as f64, "count");
    report.metric(
        "synth.miss_frac",
        tr.sims as f64 / tr.eval_calls.max(1) as f64,
        "ratio",
    );
    report.metric("baselines.steps", production.step_ms.len() as f64, "count");
    report.metric(
        "baselines.step_us_p50",
        percentile(&production.step_ms, 0.5) * 1e3,
        "us",
    );
    report.metric(
        "baselines.step_us_p99",
        percentile(&production.step_ms, 0.99) * 1e3,
        "us",
    );
    stage_replay(&mut report, &[&production.evaluator], plan.sample);
    report.exact.push(("core.rounds", rounds));
    report.exact.push(("core.proposed", tr.proposed as f64));
    report.exact.push(("synth.sims", tr.sims as f64));
    report.exact.push(("best_cost", replica.best_cost));
    Ok(report)
}

/// The traced SA run: the production driver run to completion untimed
/// (untraced wall), then the same seed stepped with a timer per step,
/// then the stage replay.
pub fn trace_sa(plan: &Plan, seed: u64) -> Result<Report, String> {
    let spec = spec(plan.budget);
    let s = unit_seed(seed, 0);
    let mut report = Report {
        inputs: digest(&[plan.budget as u64, s]),
        ..Report::default()
    };
    let target = classical_target(&spec);

    let plain_ev = build_evaluator(&spec);
    let mut plain = make_driver(Method::Sa, &spec, s);
    let t = Instant::now();
    let plain_outcome = plain.run_to_completion(&plain_ev);
    let untraced = t.elapsed().as_secs_f64();

    let traced = run_unit(Method::Sa, &spec, s);
    check_outcome(
        &mut report,
        "traced",
        &spec,
        &traced.outcome,
        &traced.evaluator,
    );
    report.check(
        "per-step timing leaves the SA outcome byte-identical",
        traced.outcome.to_ckpt_bytes() == plain_outcome.to_ckpt_bytes(),
    );
    report.attempted = 2;
    report.failed = report.checks.iter().filter(|(_, ok)| !ok).count() as u64;

    let sims = traced.evaluator.counter().count() as f64;
    let steps = traced.step_ms.len() as f64;
    report.metric("trace.wall_s", traced.wall_s, "s");
    report.metric("trace.untraced_wall_s", untraced, "s");
    report.metric("trace.overhead_s", traced.wall_s - untraced, "s");
    report.metric(
        "search.sims_to_target",
        sims_to_target(&traced.outcome, target, spec.budget),
        "sims",
    );
    report.metric("baselines.steps", steps, "count");
    report.metric(
        "baselines.step_us_p50",
        percentile(&traced.step_ms, 0.5) * 1e3,
        "us",
    );
    report.metric(
        "baselines.step_us_p99",
        percentile(&traced.step_ms, 0.99) * 1e3,
        "us",
    );
    report.metric("synth.eval_calls", steps - 1.0, "count");
    report.metric("synth.sims", sims, "count");
    report.metric("synth.miss_frac", sims / steps.max(1.0), "ratio");
    stage_replay(&mut report, &[&traced.evaluator], plan.sample);
    report.exact.push(("synth.sims", sims));
    report.exact.push(("baselines.steps", steps));
    report.exact.push(("best_cost", traced.outcome.best_cost));
    Ok(report)
}
