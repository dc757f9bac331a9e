//! The `campaignd_drain` workload: the real `campaignd serve` binary on
//! loopback draining a VAE-free job mix, driven by one closed-loop
//! client connection; and its traced twin, an in-process `Daemon` with
//! the same configuration and jobs.

use crate::report::{digest, mean, median, peak_rss_mb, percentile, Report};
use crate::search::{classical_target, sims_to_target, stage_replay};
use crate::Plan;
use circuitvae::driver::SearchDriver;
use cv_bench::harness::TechLibrary;
use cv_bench::perf::{parse_json, Json};
use cv_bench::service::{Daemon, DaemonConfig, JobSpec, Request, Response};
use cv_bench::{build_evaluator, make_driver, Method};
use cv_prefix::CircuitKind;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub const WIDTH: usize = 16;
pub const DELAY_WEIGHT: f64 = 0.66;
const METHODS: [Method; 4] = [Method::Sa, Method::Ga, Method::GaNsga2, Method::Random];
const TECHS: [TechLibrary; 2] = [TechLibrary::Nangate45Like, TechLibrary::Scaled8nmLike];
/// Longest a single drain may take before the run is abandoned.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(120);

/// The drain's jobs: every method on both techs, two seeds each.
pub fn jobs(seed: u64, unit: usize, budget: usize) -> Vec<JobSpec> {
    let mut out = Vec::new();
    for tech in TECHS {
        for method in METHODS {
            for k in 0..2u64 {
                out.push(JobSpec {
                    method,
                    kind: CircuitKind::Adder,
                    width: WIDTH,
                    tech,
                    delay_weight: DELAY_WEIGHT,
                    budget,
                    seed: seed.wrapping_mul(1000).wrapping_add(10 * unit as u64 + k),
                });
            }
        }
    }
    out
}

/// Builds the production `campaignd` binary from the checkout (a no-op
/// when it is up to date) and returns its path.
pub fn build_campaignd() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--locked", "--quiet"])
        .args(["-p", "cv-bench", "--bin", "campaignd"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo to build campaignd: {e}"))?;
    if !status.success() {
        return Err(format!("building campaignd failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("campaignd");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("campaignd not found at {}", bin.display()))
    }
}

/// A daemon child that is killed and reaped on every exit path.
struct DaemonChild(Child);

impl Drop for DaemonChild {
    fn drop(&mut self) {
        if matches!(self.0.try_wait(), Ok(None)) {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

impl DaemonChild {
    /// Waits up to `limit` for a clean exit, killing the child after.
    fn finish(mut self, limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.0.try_wait() {
                return status.success();
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        false
    }
}

/// Spawns `campaignd serve` and waits for its port file; returns the
/// child, its port, and the spawn → port-file time.
fn spawn_daemon(bin: &Path, dir: &Path, threads: usize) -> Result<(DaemonChild, u16, f64), String> {
    let state = dir.join("state");
    let port_file = dir.join("port");
    let log = std::fs::File::create(dir.join("campaignd.log")).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let child = Command::new(bin)
        .arg("serve")
        .arg("--dir")
        .arg(&state)
        .arg("--port-file")
        .arg(&port_file)
        .args(["--threads", &threads.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log)
        .spawn()
        .map_err(|e| format!("spawn campaignd: {e}"))?;
    let mut child = DaemonChild(child);
    loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if let (true, Ok(port)) = (text.ends_with('\n'), text.trim().parse::<u16>()) {
                return Ok((child, port, start.elapsed().as_secs_f64()));
            }
        }
        if let Ok(Some(status)) = child.0.try_wait() {
            return Err(format!("campaignd exited during boot: {status}"));
        }
        if start.elapsed() > Duration::from_secs(30) {
            return Err("campaignd never wrote its port file".to_string());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// One closed-loop client connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    latencies_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Client {
    fn connect(port: u16) -> Result<Client, String> {
        let stream =
            TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            writer: stream,
            reader,
            latencies_ms: Vec::new(),
            attempted: 0,
            failed: 0,
        })
    }

    /// Sends one request and times it from send to reply. Error,
    /// `overloaded` and `transient` replies count as failed.
    fn request(&mut self, req: &Request) -> Result<Json, String> {
        let line = req.render();
        let start = Instant::now();
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        self.reader
            .read_line(&mut reply)
            .map_err(|e| format!("recv: {e}"))?;
        self.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
        self.attempted += 1;
        let json = parse_json(reply.trim()).map_err(|e| format!("bad reply `{reply}`: {e}"))?;
        if json.get("ok") != Some(&Json::Bool(true)) {
            self.failed += 1;
        }
        Ok(json)
    }

    /// Asks the daemon to checkpoint and exit. Not a measured request:
    /// the daemon may exit before its acknowledgement reaches the
    /// socket, so a closed connection is as good as a reply.
    fn shutdown(&mut self) -> Result<(), String> {
        let line = Request::Shutdown.render();
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send shutdown: {e}"))?;
        let mut reply = String::new();
        let _ = self.reader.read_line(&mut reply);
        match parse_json(reply.trim()) {
            Ok(json) if json.get("ok") != Some(&Json::Bool(true)) => {
                Err(format!("shutdown refused: {reply}"))
            }
            _ => Ok(()),
        }
    }
}

/// A job row of a status reply: `(id, state, sims, best as printed)`.
fn status_rows(json: &Json) -> Result<Vec<(String, String, usize, String)>, String> {
    let Some(Json::Arr(jobs)) = json.get("jobs") else {
        return Err("status reply without jobs".to_string());
    };
    jobs.iter()
        .map(|j| {
            let text = |k: &str| match j.get(k) {
                Some(Json::Str(s)) => Ok(s.clone()),
                _ => Err(format!("status row without {k}")),
            };
            let sims = match j.get("sims") {
                Some(Json::Num(n)) => *n as usize,
                _ => return Err("status row without sims".to_string()),
            };
            let best = match j.get("best") {
                Some(Json::Num(b)) => format!("{b:.9}"),
                _ => "null".to_string(),
            };
            Ok((text("id")?, text("state")?, sims, best))
        })
        .collect()
}

/// What one live drain measured.
struct Drained {
    setup_s: f64,
    wall_s: f64,
    peak_rss_mb: f64,
    client: Client,
    /// Final status rows, keyed by job id.
    rows: Vec<(String, String, usize, String)>,
    failed_jobs: u64,
}

/// Boots a daemon on a fresh directory, submits `jobs` over one
/// connection, then alternates `status` and `frontier` with no think
/// time until every job is `done`, and shuts the daemon down.
fn drain_live(bin: &Path, dir: &Path, jobs: &[JobSpec], threads: usize) -> Result<Drained, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let (child, port, setup_s) = spawn_daemon(bin, dir, threads)?;
    let mut client = Client::connect(port)?;
    let start = Instant::now();
    for job in jobs {
        client.request(&Request::Submit(job.clone()))?;
    }
    let ids: Vec<String> = jobs.iter().map(JobSpec::id).collect();
    let mut next = 0usize;
    let (wall_s, rows) = loop {
        let rows = status_rows(&client.request(&Request::Status { id: None })?)?;
        let settled = rows
            .iter()
            .all(|(_, state, _, _)| state == "done" || state == "quarantined");
        if rows.len() == jobs.len() && settled {
            break (start.elapsed().as_secs_f64(), rows);
        }
        if start.elapsed() > DRAIN_TIMEOUT {
            return Err(format!("drain did not finish within {DRAIN_TIMEOUT:?}"));
        }
        client.request(&Request::Frontier {
            id: ids[next % ids.len()].clone(),
        })?;
        next += 1;
    };
    let peak = peak_rss_mb(&child.0.id().to_string());
    let failed_jobs = rows.iter().filter(|r| r.1 != "done").count() as u64;
    client.shutdown()?;
    if !child.finish(Duration::from_secs(20)) {
        return Err("campaignd did not exit cleanly after shutdown".to_string());
    }
    Ok(Drained {
        setup_s,
        wall_s,
        peak_rss_mb: peak,
        client,
        rows,
        failed_jobs,
    })
}

/// Boots a daemon on an empty directory and shuts it down: one extra
/// `setup_s` sample.
fn boot_probe(bin: &Path, dir: &Path, threads: usize) -> Result<f64, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let (child, port, setup_s) = spawn_daemon(bin, dir, threads)?;
    Client::connect(port)?.shutdown()?;
    if !child.finish(Duration::from_secs(20)) {
        return Err("campaignd did not exit cleanly after shutdown".to_string());
    }
    Ok(setup_s)
}

/// Checks every job reached `done` with sims == budget.
fn check_rows(
    report: &mut Report,
    label: &str,
    jobs: &[JobSpec],
    rows: &[(String, String, usize, String)],
) {
    let bad: Vec<&String> = jobs
        .iter()
        .zip(rows)
        .filter(|(j, r)| r.0 != j.id() || r.1 != "done" || r.2 != j.budget)
        .map(|(_, r)| &r.0)
        .collect();
    report.check(
        format!(
            "{label}: all {} jobs done with sims == budget (bad: {bad:?})",
            jobs.len()
        ),
        bad.is_empty() && rows.len() == jobs.len(),
    );
}

/// The untraced run: `plan.units` drains on fresh directories plus
/// boot probes for `setup_s`.
pub fn run(
    bin: &Path,
    work: &Path,
    plan: &Plan,
    seed: u64,
    threads: usize,
) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let (mut walls, mut rss, mut lat, mut bests) = (vec![], vec![], vec![], vec![]);
    let mut inputs = vec![plan.budget as u64];
    for unit in 0..plan.units {
        // Boot probes are spread over the run, so a slow spell of the
        // machine touches only some of them.
        for i in 0..plan.probes.div_ceil(plan.units) {
            let dir = work.join(format!("boot{unit}-{i}"));
            setups.push(boot_probe(bin, &dir, threads)?);
        }
        let jobs = jobs(seed, unit, plan.budget);
        inputs.extend(jobs.iter().map(|j| j.seed));
        let d = drain_live(bin, &work.join(format!("drain{unit}")), &jobs, threads)?;
        check_rows(&mut report, &format!("drain {unit}"), &jobs, &d.rows);
        setups.push(d.setup_s);
        walls.push(d.wall_s);
        rss.push(d.peak_rss_mb);
        lat.extend(d.client.latencies_ms.iter().copied());
        report.attempted += d.client.attempted + jobs.len() as u64;
        report.failed += d.client.failed + d.failed_jobs;
        let job_bests: Vec<f64> = d
            .rows
            .iter()
            .map(|r| r.3.parse::<f64>().unwrap_or(f64::NAN))
            .collect();
        let mean_best = mean(&job_bests);
        bests.push(mean_best);
        report.notes.push(format!(
            "drain {unit}: wall_s={:.4} requests={} mean_best={mean_best:.6}",
            d.wall_s, d.client.attempted
        ));
    }
    report.inputs = digest(&inputs);
    let best_cost = mean(&bests);
    report.metric("setup_s", median(&setups), "s");
    report.metric("wall_s", median(&walls), "s");
    report.metric("best_cost", best_cost, "cost");
    report.metric("req_p50_ms", percentile(&lat, 0.5), "ms");
    report.metric("req_p90_ms", percentile(&lat, 0.9), "ms");
    report.metric("peak_rss_mb", median(&rss), "MiB");
    report.exact.push(("best_cost", best_cost));
    report.notes.push(format!(
        "requests={} setup samples={} failed_frac={} ({} of {})",
        lat.len(),
        setups.len(),
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));
    Ok(report)
}

/// Sum of the sizes of every regular file under `dir` (recursive).
fn disk_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.file_type() {
                Ok(t) if t.is_dir() => disk_bytes(&e.path()),
                Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
                _ => 0,
            })
            .sum()
    })
}

/// Sizes of the files in `dir` with extension `ext`.
fn file_sizes(dir: &Path, ext: &str) -> Vec<f64> {
    std::fs::read_dir(dir).map_or_else(
        |_| Vec::new(),
        |entries| {
            entries
                .flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == ext))
                .filter_map(|e| e.metadata().ok().map(|m| m.len() as f64))
                .collect()
        },
    )
}

/// Median µs of `reps` calls of `f`.
fn time_us(reps: usize, mut f: impl FnMut() -> std::io::Result<()>) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f().map_err(|e| e.to_string())?;
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&samples))
}

/// The traced run: one live drain (the untraced reference and the
/// `best` oracle), then the in-process twin with per-call timers, then
/// durable-write microtimings on the same filesystem, then an
/// in-process re-run of the nangate45 jobs of the first seed for the
/// stage replay.
pub fn trace(
    bin: &Path,
    work: &Path,
    plan: &Plan,
    seed: u64,
    threads: usize,
) -> Result<Report, String> {
    let mut report = Report::default();
    let jobs = jobs(seed, 0, plan.budget);
    report.inputs = digest(&jobs.iter().map(|j| j.seed).collect::<Vec<_>>());
    let live = drain_live(bin, &work.join("live"), &jobs, threads)?;
    check_rows(&mut report, "live", &jobs, &live.rows);

    let dir = work.join("twin");
    let mut cfg = DaemonConfig::new(&dir);
    cfg.threads = threads;
    let ticks_before = cv_journal::failpoint::ticks();
    let t = Instant::now();
    let mut daemon = Daemon::open(cfg).map_err(|e| format!("twin open: {e}"))?;
    let boot_ms = t.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let mut submit_ms = Vec::new();
    for job in &jobs {
        let t = Instant::now();
        daemon
            .handle(&Request::Submit(job.clone()))
            .map_err(|e| format!("twin submit: {e}"))?;
        submit_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let (mut round_ms, mut handle_us, mut ckpt_sizes) = (vec![], vec![], vec![]);
    let mut next = 0usize;
    while daemon.has_running() {
        let t = Instant::now();
        daemon.round().map_err(|e| format!("twin round: {e}"))?;
        round_ms.push(t.elapsed().as_secs_f64() * 1e3);
        for req in [
            Request::Status { id: None },
            Request::Frontier {
                id: jobs[next % jobs.len()].id(),
            },
        ] {
            let t = Instant::now();
            daemon
                .handle(&req)
                .map_err(|e| format!("twin handle: {e}"))?;
            handle_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        next += 1;
        ckpt_sizes.extend(file_sizes(&dir, "ckpt"));
        if start.elapsed() > DRAIN_TIMEOUT {
            return Err("twin drain did not finish".to_string());
        }
    }
    let twin_wall = start.elapsed().as_secs_f64();
    let ticks = cv_journal::failpoint::ticks() - ticks_before;
    let twin_rows = match daemon.handle(&Request::Status { id: None }) {
        Ok(Response::Status { jobs: rows }) => rows
            .into_iter()
            .map(|j| {
                let best = if j.best.is_finite() {
                    format!("{:.9}", j.best)
                } else {
                    "null".to_string()
                };
                (j.id, j.state.to_string(), j.sims, best)
            })
            .collect::<Vec<_>>(),
        _ => return Err("twin status failed".to_string()),
    };
    drop(daemon);
    check_rows(&mut report, "twin", &jobs, &twin_rows);
    let diverged: Vec<&String> = live
        .rows
        .iter()
        .zip(&twin_rows)
        .filter(|(a, b)| a.0 != b.0 || a.3 != b.3)
        .map(|(a, _)| &a.0)
        .collect();
    report.check(
        format!(
            "live status best equals the in-process twin for every job (diverged: {diverged:?})"
        ),
        diverged.is_empty() && live.rows.len() == twin_rows.len(),
    );

    let mut record_sizes = Vec::new();
    for e in std::fs::read_dir(&dir)
        .map_err(|e| e.to_string())?
        .flatten()
    {
        let p = e.path();
        if p.extension().is_some_and(|x| x == "journal") {
            let records = cv_journal::Journal::read_back(&p).map_err(|e| e.to_string())?;
            record_sizes.extend(records.iter().map(|r| r.len() as f64));
        }
    }
    let disk = disk_bytes(&dir);
    let record = vec![0x5au8; median(&record_sizes).max(1.0) as usize];
    let ckpt = vec![0xa5u8; median(&ckpt_sizes).max(1.0) as usize];
    let probe = work.join("probe");
    std::fs::create_dir_all(&probe).map_err(|e| e.to_string())?;
    let mut journal = cv_journal::Journal::open(&probe.join("probe.journal"))
        .map_err(|e| e.to_string())?
        .journal;
    let append_us = time_us(plan.sample, || journal.append(&record))?;
    let ckpt_path = probe.join("probe.ckpt");
    let write_atomic_us = time_us(plan.sample, || {
        cv_journal::fs::write_atomic(&ckpt_path, &ckpt)
    })?;

    let sims: usize = jobs.iter().map(|j| j.budget).sum();
    let mut evaluators = Vec::new();
    let mut reach = Vec::new();
    let mut mismatched = 0usize;
    for (job, row) in jobs
        .iter()
        .zip(&live.rows)
        .filter(|(j, _)| j.tech == TechLibrary::Nangate45Like && j.seed == jobs[0].seed)
    {
        let spec = job.to_spec();
        let ev = build_evaluator(&spec);
        let outcome = make_driver(job.method, &spec, job.seed).run_to_completion(&ev);
        if format!("{:.9}", outcome.best_cost) != row.3 {
            mismatched += 1;
        }
        let target = classical_target(&spec);
        reach.push(sims_to_target(&outcome, target, job.budget));
        evaluators.push(ev);
    }
    report.check(
        format!("in-process re-runs match the daemon's best ({mismatched} mismatched)"),
        mismatched == 0 && !evaluators.is_empty(),
    );
    let refs: Vec<&cv_synth::CachedEvaluator> = evaluators.iter().collect();
    stage_replay(&mut report, &refs, plan.sample / refs.len().max(1));

    report.attempted = live.client.attempted + jobs.len() as u64;
    report.failed = live.client.failed + live.failed_jobs;
    report.metric("trace.wall_s", twin_wall, "s");
    report.metric("trace.untraced_wall_s", live.wall_s, "s");
    report.metric("trace.overhead_s", twin_wall - live.wall_s, "s");
    report.metric("search.sims_to_target", median(&reach), "sims");
    report.metric("service.boot_ms", boot_ms, "ms");
    report.metric("service.rounds", round_ms.len() as f64, "count");
    report.metric("service.round_ms_p50", percentile(&round_ms, 0.5), "ms");
    report.metric("service.round_ms_p90", percentile(&round_ms, 0.9), "ms");
    report.metric("service.submit_ms_p50", median(&submit_ms), "ms");
    report.metric("service.handle_us_p50", median(&handle_us), "us");
    report.metric("journal.ticks", ticks as f64, "count");
    report.metric(
        "journal.ticks_per_sim",
        ticks as f64 / sims.max(1) as f64,
        "count",
    );
    report.metric("journal.append_us", append_us, "us");
    report.metric("journal.write_atomic_us", write_atomic_us, "us");
    report.metric("journal.disk_bytes", disk as f64, "bytes");
    report.exact.push(("service.rounds", round_ms.len() as f64));
    report.exact.push(("journal.ticks", ticks as f64));
    report.exact.push(("journal.disk_bytes", disk as f64));
    report.notes.push(format!(
        "twin: {} rounds, {} handled requests; median journal record {} B, median .ckpt {} B",
        round_ms.len(),
        handle_us.len(),
        record.len(),
        ckpt.len()
    ));
    Ok(report)
}
