//! End-to-end benchmark of the CircuitVAE workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <vae_w32|sa_w32|campaignd_drain> --seed N --seconds S --trace <0|1>
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- --self-check
//! ```
//!
//! Run from the repository root. `--trace 0` prints the end-to-end
//! metrics, `--trace 1` the per-layer split; the last stdout line is
//! the JSON result. See README.md for the workloads and metrics.

mod drain;
mod report;
mod search;

use cv_bench::Method;
use report::Report;
use std::path::{Path, PathBuf};

/// The end-to-end metrics every untraced run prints, with their units.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("best_cost", "cost"),
    ("req_p50_ms", "ms"),
    ("req_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run prints, with their units. A
/// layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 39] = [
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("search.sims_to_target", "sims"),
    ("baselines.ga_init_s", "s"),
    ("core.train_s", "s"),
    ("core.train_steps", "count"),
    ("nn.train_step_ms", "ms"),
    ("core.acquire_s", "s"),
    ("core.decode_s", "s"),
    ("synth.eval_s", "s"),
    ("core.other_s", "s"),
    ("core.rounds", "count"),
    ("core.proposed", "count"),
    ("core.fresh_frac", "ratio"),
    ("synth.eval_calls", "count"),
    ("synth.sims", "count"),
    ("synth.miss_frac", "ratio"),
    ("baselines.steps", "count"),
    ("baselines.step_us_p50", "us"),
    ("baselines.step_us_p99", "us"),
    ("prefix.legalize_us", "us"),
    ("netlist.map_us", "us"),
    ("synth.buffer_us", "us"),
    ("sta.rebuild_us", "us"),
    ("synth.size_us", "us"),
    ("synth.size_moves", "count"),
    ("synth.session_us", "us"),
    ("service.boot_ms", "ms"),
    ("service.rounds", "count"),
    ("service.round_ms_p50", "ms"),
    ("service.round_ms_p90", "ms"),
    ("service.submit_ms_p50", "ms"),
    ("service.handle_us_p50", "us"),
    ("journal.ticks", "count"),
    ("journal.ticks_per_sim", "count"),
    ("journal.append_us", "us"),
    ("journal.write_atomic_us", "us"),
    ("journal.disk_bytes", "bytes"),
];

const WORKLOADS: [&str; 3] = ["vae_w32", "sa_w32", "campaignd_drain"];

/// How much work one run does.
pub struct Plan {
    /// Complete searches or drains per run (each with its own seed).
    pub units: usize,
    /// Simulation budget per search, or per job of a drain.
    pub budget: usize,
    /// Extra set-up samples (child processes or daemon boots).
    pub probes: usize,
    /// Designs replayed stage by stage, and durable-write repetitions.
    pub sample: usize,
}

impl Plan {
    /// The plan for `workload`: the unit count follows from `seconds`
    /// and the workload's nominal unit length, so it is the same on
    /// every run with the same arguments. `tiny` is the self-check's.
    fn new(workload: &str, seconds: u64, tiny: bool) -> Plan {
        let (nominal_s, budget, tiny_budget) = match workload {
            // Budget >= 600 makes `vae_config` keep the paper CNN.
            "vae_w32" => (10.0, 600, 60),
            "sa_w32" => (1.5, 1000, 40),
            _ => (3.5, 400, 12),
        };
        if tiny {
            return Plan {
                units: 1,
                budget: tiny_budget,
                probes: 2,
                sample: 8,
            };
        }
        Plan {
            units: ((seconds as f64 / nominal_s).round() as usize).max(1),
            budget,
            probes: 40,
            sample: 48,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |name: &str| -> Result<&String, String> {
        let i = args
            .iter()
            .position(|a| a == name)
            .ok_or(format!("{name} is required"))?;
        args.get(i + 1).ok_or(format!("{name} needs a value"))
    };
    let workload = value("--workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {WORKLOADS:?})"
        ));
    }
    let num = |name: &str| -> Result<u64, String> {
        value(name)?
            .parse()
            .map_err(|_| format!("{name} expects a non-negative integer"))
    };
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace,
    })
}

/// Thread counts of every layer, the SIMD tier, and the build.
struct Env {
    nproc: usize,
    pool_threads: usize,
    vae_threads: usize,
    daemon_threads: usize,
    line: String,
}

fn command_output(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn environment() -> Env {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool_threads = cv_pool::WorkerPool::global().threads();
    let vae_threads = cv_bench::harness::vae_config(&search::spec(600)).threads;
    // The daemon's own default (4 workers) would exceed a small box.
    let daemon_threads = nproc;
    let line = format!(
        r#"{{"nproc": {nproc}, "CV_POOL_THREADS": "{}", "pool_threads": {pool_threads}, "vae_config_threads": {vae_threads}, "daemon_threads": {daemon_threads}, "simd_level": "{}", "cpu_features": "{}", "rustc": "{}", "commit": "{}"}}"#,
        std::env::var("CV_POOL_THREADS").unwrap_or_else(|_| "unset".to_string()),
        cv_nn::gemm::simd_level().name(),
        cv_nn::gemm::cpu_features().join(" "),
        command_output("rustc", &["--version"]),
        command_output("git", &["rev-parse", "--short", "HEAD"]),
    );
    Env {
        nproc,
        pool_threads,
        vae_threads,
        daemon_threads,
        line,
    }
}

/// A scratch directory inside the checkout's (ignored) build directory,
/// removed on every exit path.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let dir = Path::new(".bench_build").join(format!("e2ebench-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_workload(
    workload: &str,
    seed: u64,
    plan: &Plan,
    trace: bool,
    env: &Env,
) -> Result<Report, String> {
    let mut report = match (workload, trace) {
        ("vae_w32", false) => search::run(Method::CircuitVae, workload, plan, seed)?,
        ("vae_w32", true) => search::trace_vae(plan, seed)?,
        ("sa_w32", false) => search::run(Method::Sa, workload, plan, seed)?,
        ("sa_w32", true) => search::trace_sa(plan, seed)?,
        _ => {
            let bin = drain::build_campaignd()?;
            let work = WorkDir::create()?;
            if trace {
                drain::trace(&bin, &work.0, plan, seed, env.daemon_threads)?
            } else {
                drain::run(&bin, &work.0, plan, seed, env.daemon_threads)?
            }
        }
    };
    if !trace {
        let order = |n: &str| END_TO_END.iter().position(|(e, _)| *e == n);
        report.metrics.sort_by_key(|m| order(m.name));
    } else {
        for (name, unit) in PER_LAYER {
            if report.get(name).is_none() {
                report.metric(name, 0.0, unit);
            }
        }
        let order = |n: &str| PER_LAYER.iter().position(|(p, _)| *p == n);
        report.metrics.sort_by_key(|m| order(m.name));
    }
    Ok(report)
}

fn print_report(report: &Report) {
    for note in &report.notes {
        println!("# {note}");
    }
    for (what, ok) in &report.checks {
        println!("check {} {what}", if *ok { "PASS" } else { "FAIL" });
    }
    for m in &report.metrics {
        println!(
            "metric {:<26} {:>16} {}",
            m.name,
            report::json_num(m.value),
            m.unit
        );
    }
    println!("{}", report.json_line());
}

/// Every metric `BENCHMARK.json` names for this mode, as `(name, unit)`.
fn declared_metrics(key: &str) -> Result<Vec<(String, String)>, String> {
    use cv_bench::perf::{parse_json, Json};
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let json = parse_json(&text)?;
    let Some(Json::Arr(items)) = json.get(key) else {
        return Err(format!("BENCHMARK.json has no `{key}` list"));
    };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Json::Str(n)), Some(Json::Str(u))) => Ok((n.clone(), u.clone())),
            _ => Err(format!("malformed `{key}` entry")),
        })
        .collect()
}

/// Tiny-budget runs of every workload in both modes: every declared
/// metric prints with its unit and a finite value, every output check
/// passes, the same seed reproduces the deterministic values exactly,
/// and another seed changes the generated inputs.
fn self_check(env: &Env) -> Result<bool, String> {
    let mut ok = true;
    for trace in [false, true] {
        let declared = declared_metrics(if trace { "per_layer" } else { "end_to_end" })?;
        for workload in WORKLOADS {
            let plan = Plan::new(workload, 1, true);
            let a = run_workload(workload, 1, &plan, trace, env)?;
            let b = run_workload(workload, 1, &plan, trace, env)?;
            let c = run_workload(workload, 2, &plan, trace, env)?;
            let mut problems = Vec::new();
            for (name, unit) in &declared {
                match a.metrics.iter().find(|m| m.name == name.as_str()) {
                    Some(m) if m.unit == unit.as_str() && m.value.is_finite() => {}
                    Some(m) => problems.push(format!("{name}: {} {}", m.value, m.unit)),
                    None => problems.push(format!("{name}: missing")),
                }
            }
            if a.metrics.len() != declared.len() {
                problems.push(format!(
                    "{} metrics printed, {} declared",
                    a.metrics.len(),
                    declared.len()
                ));
            }
            for r in [&a, &b, &c] {
                for (what, passed) in &r.checks {
                    if !passed {
                        problems.push(format!("check failed: {what}"));
                    }
                }
            }
            if a.exact != b.exact {
                problems.push(format!(
                    "same seed, different values: {:?} vs {:?}",
                    a.exact, b.exact
                ));
            }
            if a.inputs != b.inputs || a.inputs == c.inputs {
                problems.push("inputs do not follow the seed".to_string());
            }
            let status = if problems.is_empty() { "ok" } else { "FAILED" };
            println!(
                "self-check {workload} trace={} {status} {problems:?}",
                u8::from(trace)
            );
            ok &= problems.is_empty();
        }
    }
    Ok(ok)
}

fn real_main() -> Result<i32, String> {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--setup-probe") {
        let method = match args.get(i + 1).map(String::as_str) {
            Some("vae_w32") => Method::CircuitVae,
            Some("sa_w32") => Method::Sa,
            other => return Err(format!("unknown setup probe {other:?}")),
        };
        search::setup_probe(method, Plan::new(&args[i + 1], 1, false).budget);
        return Ok(0);
    }
    let env = environment();
    println!("env {}", env.line);
    for (what, threads) in [
        ("CV_POOL_THREADS / worker pool", env.pool_threads),
        ("vae_config threads", env.vae_threads),
        ("campaignd --threads", env.daemon_threads),
    ] {
        if threads > env.nproc {
            return Err(format!(
                "{what} = {threads} exceeds nproc = {}; refusing to run",
                env.nproc
            ));
        }
    }
    if args.iter().any(|a| a == "--self-check") {
        return Ok(if self_check(&env)? { 0 } else { 1 });
    }
    let a = parse_args(&args)?;
    let plan = Plan::new(&a.workload, a.seconds, false);
    let report = run_workload(&a.workload, a.seed, &plan, a.trace, &env)?;
    print_report(&report);
    Ok(if report.correct() { 0 } else { 1 })
}

fn main() {
    let code = real_main().unwrap_or_else(|e| {
        eprintln!("e2ebench: error: {e}");
        2
    });
    std::process::exit(code);
}
