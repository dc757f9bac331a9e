//! Method dispatch: run any search method on any experiment setting.

use circuitvae::{CircuitVae, CircuitVaeConfig};
use cv_baselines::ga_initial_dataset;
use cv_cells::{nangate45_like, scaled_8nm_like, CellLibrary};
use cv_prefix::CircuitKind;
use cv_sta::IoTiming;
use cv_synth::{
    CachedEvaluator, CostParams, Objective, SearchOutcome, SynthesisConfig, SynthesisFlow,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Which technology library an experiment targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TechLibrary {
    /// The Nangate45-like 45 nm stand-in (paper §5.1–5.3, 5.5).
    Nangate45Like,
    /// The scaled 8 nm-like stand-in (paper §5.4, Fig. 6).
    Scaled8nmLike,
}

impl TechLibrary {
    /// Instantiates the library.
    pub fn build(self) -> CellLibrary {
        match self {
            TechLibrary::Nangate45Like => nangate45_like(),
            TechLibrary::Scaled8nmLike => scaled_8nm_like(),
        }
    }
}

/// Experiment scale: how much compute a binary spends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Seconds-scale smoke run (CI / criterion).
    Smoke,
    /// Minutes-scale default (the committed EXPERIMENTS.md numbers).
    Default,
    /// Closer to paper budgets (tens of minutes on a laptop).
    Paper,
}

impl Scale {
    /// Parses `--scale smoke|default|paper` (or `--scale=<value>`) from
    /// process args.
    ///
    /// Exits with status 2 on an unrecognized or missing value: silently
    /// falling back could turn a typo'd smoke run into a minutes-long one.
    pub fn from_args() -> Scale {
        arg::<String>("--scale").map_or(Scale::Default, |v| Scale::parse_or_exit(&v))
    }

    fn parse_or_exit(value: &str) -> Scale {
        match value {
            "smoke" => Scale::Smoke,
            "default" => Scale::Default,
            "paper" => Scale::Paper,
            other => {
                eprintln!("error: unknown --scale `{other}` (expected smoke|default|paper)");
                std::process::exit(2);
            }
        }
    }

    /// Simulation budget multiplier relative to `Default`.
    pub fn budget_factor(self) -> f64 {
        match self {
            Scale::Smoke => 0.15,
            Scale::Default => 1.0,
            Scale::Paper => 4.0,
        }
    }

    /// Number of random seeds per setting (the paper uses 5; `Default`
    /// is sized for a single-core CI box).
    pub fn seeds(self) -> usize {
        match self {
            Scale::Smoke => 1,
            Scale::Default => 2,
            Scale::Paper => 5,
        }
    }
}

/// The value of flag `name` in `args` (the arguments after the program
/// name), given as `name value` or `name=value`; `Ok(None)` when the
/// flag is absent. The first occurrence wins.
///
/// # Errors
///
/// The flag is present without a value: it is the last argument, or the
/// next one is another `--flag`. A forgotten value must never fall back
/// to a default — `campaign --fresh --dir` would otherwise delete the
/// default directory.
pub fn find_arg<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    for (i, arg) in args.iter().enumerate() {
        if let Some(value) = arg.strip_prefix(name).and_then(|v| v.strip_prefix('=')) {
            return Ok(Some(value));
        }
        if arg == name {
            return match args.get(i + 1) {
                Some(value) if !value.starts_with("--") => Ok(Some(value)),
                _ => Err(format!("{name} requires a value")),
            };
        }
    }
    Ok(None)
}

/// The value of flag `name` in the process arguments ([`find_arg`]),
/// parsed as `T`; `None` when the flag is absent. Exits with status 2
/// when the value is missing or does not parse.
pub fn arg<T: std::str::FromStr>(name: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = find_arg(&args, name).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })?;
    Some(value.parse().unwrap_or_else(|_| {
        eprintln!("error: {name} expects a valid value, got `{value}`");
        std::process::exit(2);
    }))
}

/// One experiment setting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Circuit bitwidth.
    pub width: usize,
    /// Adder or gray-to-binary.
    pub kind: CircuitKind,
    /// Delay weight ω.
    pub delay_weight: f64,
    /// Total simulation budget per run (initial data included, as in the
    /// paper).
    pub budget: usize,
    /// Fraction of the budget spent on the GA-built initial dataset for
    /// VAE/BO (paper: 1k–30k of up to 70k).
    pub init_fraction: f64,
    /// IO timing constraints.
    pub io: IoTiming,
    /// Technology library.
    pub tech: TechLibrary,
}

impl ExperimentSpec {
    /// A standard-benchmark spec (uniform IO, 45 nm-like library).
    pub fn standard(width: usize, kind: CircuitKind, delay_weight: f64, budget: usize) -> Self {
        ExperimentSpec {
            width,
            kind,
            delay_weight,
            budget,
            init_fraction: 0.25,
            io: IoTiming::uniform(width),
            tech: TechLibrary::Nangate45Like,
        }
    }
}

/// Search methods under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Method {
    /// CircuitVAE with prior-regularized gradient search.
    CircuitVae,
    /// The same VAE with GP-EI acquisition.
    LatentBo,
    /// Genetic algorithm on bitvectors.
    Ga,
    /// NSGA-II-mode genetic algorithm: non-dominated sorting + crowding
    /// selection on (area, delay) — the natively multi-objective
    /// baseline of the frontier campaign.
    GaNsga2,
    /// PrefixRL-lite DQN.
    Rl,
    /// Simulated annealing (extra baseline).
    Sa,
    /// Random search (extra baseline).
    Random,
}

impl Method {
    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Method::CircuitVae => "CircuitVAE",
            Method::LatentBo => "Bayesian",
            Method::Ga => "GA",
            Method::GaNsga2 => "GA-NSGA2",
            Method::Rl => "RL",
            Method::Sa => "SA",
            Method::Random => "Random",
        }
    }

    /// The four methods compared in Figs. 3 and 7.
    pub const PAPER_SET: [Method; 4] =
        [Method::CircuitVae, Method::LatentBo, Method::Rl, Method::Ga];
}

/// Builds a fresh cached evaluator for a spec.
pub fn build_evaluator(spec: &ExperimentSpec) -> CachedEvaluator {
    let mut config = SynthesisConfig::for_width(spec.width);
    config.io = spec.io.clone();
    config.delay_weight = spec.delay_weight;
    let flow = SynthesisFlow::with_config(spec.tech.build(), spec.kind, spec.width, config);
    CachedEvaluator::new(Objective::new(flow, CostParams::new(spec.delay_weight)))
}

/// One fresh evaluator per delay weight, sharing the spec's flow
/// structure — the scalarization ladder of the frontier campaign,
/// built through [`Objective::weight_sweep`] (each rung's sizing
/// weight is aligned to its own ω). The rung built for the spec's own
/// `delay_weight` is identical to [`build_evaluator`]'s.
pub fn build_evaluator_sweep(spec: &ExperimentSpec, weights: &[f64]) -> Vec<CachedEvaluator> {
    let mut config = SynthesisConfig::for_width(spec.width);
    config.io = spec.io.clone();
    config.delay_weight = spec.delay_weight;
    let flow = SynthesisFlow::with_config(spec.tech.build(), spec.kind, spec.width, config);
    Objective::weight_sweep(flow, weights)
        .into_iter()
        .map(CachedEvaluator::new)
        .collect()
}

/// A scaled-down CircuitVAE config appropriate for the spec's width and
/// the harness's CPU budget.
pub fn vae_config(spec: &ExperimentSpec) -> CircuitVaeConfig {
    let mut cfg = CircuitVaeConfig::for_width(spec.width);
    // Keep per-round work proportional to the budget so small budgets
    // still complete several acquisition rounds on modest CPUs. The
    // architecture stays the paper's CNN for widths >= 24.
    if spec.budget < 120 {
        cfg = CircuitVaeConfig::smoke(spec.width);
    } else if spec.budget < 600 {
        cfg.latent_dim = 16;
        cfg.warmup_steps = 60;
        cfg.train_steps_per_round = 20;
        cfg.batch_size = 32;
        cfg.trajectories = 12;
        cfg.search_steps = 30;
        cfg.capture_every = 10;
    }
    cfg.threads = std::thread::available_parallelism().map_or(4, |p| p.get().min(16));
    cfg
}

/// Runs one method on one spec with one seed, on a fresh evaluator.
/// Returns the merged best-so-far curve (initial-dataset simulations are
/// charged to the curve, as in the paper).
pub fn run_method(method: Method, spec: &ExperimentSpec, seed: u64) -> SearchOutcome {
    run_method_on(method, spec, seed, &build_evaluator(spec))
}

/// [`run_method`] against a caller-provided evaluator — the hook the
/// `incremental` bench uses to A/B the session-backed evaluator against
/// [`CachedEvaluator::new_reference`]. Outcomes are identical either way
/// (the incremental path is bit-for-bit equal); only throughput differs.
///
/// Every method runs through its step [`SearchDriver`] (built by
/// [`crate::driver::make_driver`]); this is the uninterrupted
/// `run(budget)` form of the driver loop.
///
/// [`SearchDriver`]: circuitvae::driver::SearchDriver
pub fn run_method_on(
    method: Method,
    spec: &ExperimentSpec,
    seed: u64,
    evaluator: &CachedEvaluator,
) -> SearchOutcome {
    use circuitvae::driver::SearchDriver;
    crate::driver::make_driver(method, spec, seed).run_to_completion(evaluator)
}

/// Runs a method across seeds on the shared campaign pool, returning a
/// labelled curve set. Each seed is an independent unit (own evaluator,
/// own RNG), so pooled execution is bit-identical to the old serial
/// loop.
pub fn run_method_seeds(
    method: Method,
    spec: &ExperimentSpec,
    seeds: usize,
) -> crate::stats::CurveSet {
    let units: Vec<Box<dyn FnOnce() -> SearchOutcome + Send>> = (0..seeds as u64)
        .map(|s| {
            let spec = spec.clone();
            Box::new(move || run_method(method, &spec, 1000 + s))
                as Box<dyn FnOnce() -> SearchOutcome + Send>
        })
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    crate::stats::CurveSet::new(method.label(), crate::campaign::run_units(units, threads))
}

/// Runs a CircuitVAE variant with a config mutator applied — the
/// mechanism behind the Fig. 4 ablations (reweighting off, alternative
/// initializations, alternative regularizers).
pub fn run_vae_variant(
    spec: &ExperimentSpec,
    seed: u64,
    mutate_config: impl Fn(&mut CircuitVaeConfig),
) -> SearchOutcome {
    let evaluator = build_evaluator(spec);
    let mut rng = StdRng::seed_from_u64(seed);
    let init_budget = ((spec.budget as f64 * spec.init_fraction) as usize).clamp(1, spec.budget);
    let initial = ga_initial_dataset(spec.width, &evaluator, init_budget, &mut rng);
    let init_used = evaluator.counter().count();
    let init_best = initial
        .iter()
        .map(|(_, c)| *c)
        .fold(f64::INFINITY, f64::min);
    let mut cfg = vae_config(spec);
    mutate_config(&mut cfg);
    let mut vae = CircuitVae::new(spec.width, cfg, initial, seed ^ 0x5eed);
    let outcome = vae.run(&evaluator, spec.budget.saturating_sub(init_used));
    let mut history = vec![(init_used, init_best)];
    for (s, c) in outcome.history {
        history.push((s + init_used, c));
    }
    SearchOutcome {
        history,
        best_cost: outcome.best_cost.min(init_best),
        best_grid: outcome.best_grid,
        evaluated: vec![],
    }
}

/// Resolves the results output directory (`results/` at the workspace
/// root), creating it if needed.
pub fn results_dir() -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("results dir must be creatable");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec::standard(8, CircuitKind::Adder, 0.5, 40)
    }

    #[test]
    fn find_arg_reads_values_and_rejects_missing_ones() {
        let args = |line: &str| {
            line.split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>()
        };
        let find =
            |line: &str, name: &str| find_arg(&args(line), name).map(|v| v.map(String::from));
        assert_eq!(find("--dir a --fresh", "--dir"), Ok(Some("a".into())));
        assert_eq!(find("--dir=a --dir b", "--dir"), Ok(Some("a".into())));
        assert_eq!(find("--dir= --fresh", "--dir"), Ok(Some(String::new())));
        assert_eq!(
            find("--delay-weight -0.5", "--delay-weight"),
            Ok(Some("-0.5".into()))
        );
        assert_eq!(find("serve --dirs a --dirx=b", "--dir"), Ok(None));
        assert_eq!(find("", "--dir"), Ok(None));
        for line in ["--fresh --dir", "--dir --fresh", "--dir --halt-after 3"] {
            assert_eq!(
                find(line, "--dir"),
                Err("--dir requires a value".into()),
                "{line}"
            );
        }
    }

    #[test]
    fn every_method_completes_a_tiny_run() {
        for method in [
            Method::CircuitVae,
            Method::LatentBo,
            Method::Ga,
            Method::GaNsga2,
            Method::Rl,
            Method::Sa,
            Method::Random,
        ] {
            let out = run_method(method, &tiny_spec(), 7);
            assert!(
                out.best_cost.is_finite(),
                "{} must produce a finite best cost",
                method.label()
            );
            assert!(!out.history.is_empty(), "{}", method.label());
            // Budget respected (tracker granularity).
            let max_sims = out.history.iter().map(|(s, _)| *s).max().unwrap();
            assert!(max_sims <= 40, "{}: {max_sims}", method.label());
        }
    }

    #[test]
    fn vae_history_is_monotone_nonincreasing() {
        let out = run_method(Method::CircuitVae, &tiny_spec(), 3);
        for w in out.history.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-12);
            assert!(w[1].0 >= w[0].0);
        }
    }

    #[test]
    fn scale_parsing_and_factors() {
        assert_eq!(Scale::Smoke.seeds(), 1);
        assert!(Scale::Paper.budget_factor() > Scale::Default.budget_factor());
    }
}
