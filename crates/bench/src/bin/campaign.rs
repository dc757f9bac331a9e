//! The **campaign** binary: a method×seed×width×tech grid drained by
//! an in-process `campaignd` daemon (no socket), with per-round JSONL
//! telemetry, periodic journaled checkpoints, and bit-exact resume.
//!
//! Every task is a `JobSpec` (an adder at ω = 0.66) submitted to the
//! daemon over the campaign directory, which then runs scheduling
//! rounds until every task is done. The campaign can be killed (or
//! stopped deterministically with `--halt-after N`: N scheduling rounds,
//! then a checkpoint of every running task, as a `campaignd shutdown`
//! does) and re-run with the same `--dir` to continue exactly where it
//! stopped — the final files byte-match an uninterrupted run, whatever
//! `--threads` (Contracts 8 and 11; the CI `kill-smoke` job enforces
//! it). `campaignd serve --dir` can finish a halted campaign too.
//!
//! Emits under the campaign directory (default `results/campaign/`),
//! with `<task>` the spec's id — the same stem `campaignd` gives it:
//! * `<task>.journal` — the task's event journal (its resume source),
//! * `<task>.jsonl` — per-round telemetry `{task, round, sims, best}`,
//! * `<task>.done`  — binary outcome + frontier archive,
//! * `campaignd.journal` — the daemon's service journal (the task list),
//! * `campaign_summary.csv` — one row per task (written on completion).
//!
//! Usage: `campaign [--scale smoke|default|paper] [--dir PATH]
//! [--halt-after N] [--threads N] [--fresh]`
//!
//! Exits 0 once every task is done or after a halt (with a resume
//! hint), 1 when a task ends quarantined (its failure reason is
//! printed), and 2 on a bad argument or when the directory holds
//! unfinished jobs of another grid (a campaign never runs those).
//!
//! Fault injection: setting `CV_FAILPOINT=<ticks>` arms the
//! `cv-journal` failpoint harness in real-kill mode — the process
//! aborts once the durable write path has spent that many ticks (one
//! per byte written, one per fsync/rename/…). Re-running with the same
//! `--dir` (and no `CV_FAILPOINT`) must then resume to outputs
//! byte-identical to an uninterrupted run; the CI `kill-smoke` job
//! cycles several such kill points and `diff -r`s the directories.

use cv_bench::campaign::{run_campaign, summary_csv, CampaignError, JobSpec};
use cv_bench::harness::{arg, results_dir, Method, Scale, TechLibrary};
use cv_bench::service::protocol::tech_slug;
use cv_bench::service::DaemonConfig;
use cv_prefix::CircuitKind;
use std::path::PathBuf;

fn main() {
    if cv_journal::failpoint::arm_from_env() {
        eprintln!("campaign: CV_FAILPOINT armed — this run will be killed mid-write");
    }
    let scale = Scale::from_args();
    let dir: PathBuf = arg("--dir").unwrap_or_else(|| results_dir().join("campaign"));
    let halt_after: Option<usize> = arg("--halt-after");
    let threads: usize = arg("--threads")
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()));
    if std::env::args().any(|a| a == "--fresh") {
        let _ = std::fs::remove_dir_all(&dir);
    }

    let (widths, seeds): (&[usize], usize) = match scale {
        Scale::Smoke => (&[8], 1),
        Scale::Default => (&[8, 16], 2),
        Scale::Paper => (&[16, 32], 5),
    };
    let techs = [TechLibrary::Nangate45Like, TechLibrary::Scaled8nmLike];
    let methods = [
        Method::Sa,
        Method::Ga,
        Method::GaNsga2,
        Method::Random,
        Method::Rl,
        Method::CircuitVae,
    ];

    let mut tasks = Vec::new();
    for &tech in &techs {
        for &width in widths {
            let budget = (((8 * width) as f64) * scale.budget_factor())
                .round()
                .max(40.0) as usize;
            for &method in &methods {
                for s in 0..seeds as u64 {
                    tasks.push(JobSpec {
                        method,
                        kind: CircuitKind::Adder,
                        width,
                        tech,
                        delay_weight: 0.66,
                        budget,
                        seed: 1000 + s,
                    });
                }
            }
        }
    }

    let cfg = DaemonConfig {
        threads,
        checkpoint_every: match scale {
            Scale::Smoke => 10,
            Scale::Default | Scale::Paper => 50,
        },
        ..DaemonConfig::new(&dir)
    };
    println!(
        "campaign: {} tasks ({} techs × {widths:?} × {} methods × {seeds} seeds), {} threads, dir {}",
        tasks.len(),
        techs.len(),
        methods.len(),
        cfg.threads,
        dir.display()
    );

    let results = run_campaign(&tasks, &cfg, halt_after).unwrap_or_else(|e| {
        if let CampaignError::Foreign(_) = e {
            eprintln!(
                "error: {} holds {e}; re-run with --fresh or another --dir",
                dir.display()
            );
            std::process::exit(2);
        }
        eprintln!("campaign failed: {e}");
        std::process::exit(1);
    });
    let incomplete = results.iter().filter(|r| r.is_none()).count();
    if incomplete > 0 {
        println!(
            "campaign halted: {incomplete}/{} tasks pending; re-run with the same --dir to resume",
            tasks.len()
        );
        return;
    }

    println!(
        "{:>10} {:>5} {:>12} {:>6} {:>6} {:>12} {:>6}",
        "tech", "width", "method", "seed", "sims", "best", "front"
    );
    for (task, result) in tasks.iter().zip(&results) {
        let r = result.as_ref().expect("campaign completed");
        let sims = r.outcome.history.last().map_or(0, |&(s, _)| s);
        println!(
            "{:>10} {:>5} {:>12} {:>6} {:>6} {:>12.4} {:>6}",
            tech_slug(task.tech),
            task.width,
            task.method.label(),
            task.seed,
            sims,
            r.outcome.best_cost,
            r.archive.len()
        );
    }
    let summary = dir.join("campaign_summary.csv");
    cv_journal::fs::write_atomic(&summary, summary_csv(&tasks, &results).as_bytes())
        .expect("write campaign summary");
    println!(
        "campaign OK: {} tasks complete; wrote {}",
        tasks.len(),
        summary.display()
    );
}
