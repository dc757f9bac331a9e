//! Semantics suite for the `campaignd` daemon core (DESIGN.md §10).
//!
//! The load-bearing property is *schedule independence*: however the
//! daemon interleaves jobs — fair multiplexed rounds, one job at a
//! time, pause/resume churn, random command scripts — every job's
//! final outcome, frontier, and on-disk artifacts byte-match a plain
//! sequential driver loop of the same method×spec×seed. Plus the
//! protocol-level lifecycle rules: idempotent re-submit, spec-collision
//! rejection, cancellation GC, and a TCP end-to-end pass.

use circuitvae::driver::SearchDriver;
use cv_bench::campaign::run_campaign;
use cv_bench::harness::{build_evaluator, Method, TechLibrary};
use cv_bench::make_driver;
use cv_bench::service::{
    active_connections, serve_with, Daemon, DaemonConfig, JobSpec, Request, Response, ServeOptions,
};
use cv_prefix::CircuitKind;
use cv_synth::ParetoArchive;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock};

fn base_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cv_service_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn job(method: Method, tech: TechLibrary, budget: usize, seed: u64) -> JobSpec {
    JobSpec {
        method,
        kind: CircuitKind::Adder,
        width: 8,
        tech,
        delay_weight: 0.5,
        budget,
        seed,
    }
}

fn cfg(dir: &Path) -> DaemonConfig {
    DaemonConfig {
        dir: dir.to_path_buf(),
        threads: 2,
        checkpoint_every: 5,
        slice_steps: 3,
        journal_max_bytes: 1 << 20,
        max_retries: 3,
    }
}

fn submit(daemon: &mut Daemon, spec: &JobSpec) -> String {
    match daemon
        .handle(&Request::Submit(spec.clone()))
        .expect("submit")
    {
        Response::Submitted { id, .. } => id,
        other => panic!("submit failed: {other:?}"),
    }
}

fn drain(daemon: &mut Daemon) {
    while daemon.has_running() {
        daemon.round().expect("round");
    }
}

fn frontier(daemon: &mut Daemon, id: &str) -> Vec<(f64, f64, usize)> {
    match daemon
        .handle(&Request::Frontier { id: id.to_string() })
        .expect("frontier")
    {
        Response::Frontier { front, .. } => front,
        other => panic!("frontier failed: {other:?}"),
    }
}

fn status_row(daemon: &mut Daemon, id: &str) -> (String, usize, f64) {
    match daemon
        .handle(&Request::Status {
            id: Some(id.to_string()),
        })
        .expect("status")
    {
        Response::Status { jobs } => {
            assert_eq!(jobs.len(), 1);
            (jobs[0].state.to_string(), jobs[0].sims, jobs[0].best)
        }
        other => panic!("status failed: {other:?}"),
    }
}

/// The sequential reference: a plain driver loop with an observing
/// archive, exactly what `run_method_on` does plus frontier tracking.
fn model(spec: &JobSpec) -> (cv_synth::SearchOutcome, ParetoArchive) {
    let evaluator = build_evaluator(&spec.to_spec());
    let shared = ParetoArchive::new().with_log().into_shared();
    evaluator.attach_archive(shared.clone());
    let outcome =
        make_driver(spec.method, &spec.to_spec(), spec.seed).run_to_completion(&evaluator);
    evaluator.detach_archive();
    let archive = shared.lock().clone();
    (outcome, archive)
}

fn model_front(archive: &ParetoArchive) -> Vec<(f64, f64, usize)> {
    archive
        .front()
        .iter()
        .map(|p| (p.ppa.area_um2, p.ppa.delay_ns, p.sims))
        .collect()
}

/// Reads the per-job durable artifacts (`.done`, `.jsonl`, `.journal`)
/// of `id` under `dir`.
fn job_files(dir: &Path, id: &str) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for ext in ["done", "jsonl", "journal"] {
        let path = dir.join(format!("{id}.{ext}"));
        files.insert(
            format!("{id}.{ext}"),
            std::fs::read(&path).unwrap_or_else(|e| panic!("{} readable: {e}", path.display())),
        );
    }
    files
}

/// Runs each spec in its own single-job daemon (one at a time, separate
/// directory) and returns the per-job file bytes — the
/// schedule-independence reference for multiplexed runs.
fn sequential_reference(dir: &Path, specs: &[JobSpec]) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for spec in specs {
        let mut daemon = Daemon::open(cfg(dir)).expect("open");
        let id = submit(&mut daemon, spec);
        drain(&mut daemon);
        files.extend(job_files(dir, &id));
    }
    files
}

#[test]
fn multiplexed_jobs_match_sequential_driver_loops() {
    let specs = [
        job(Method::Sa, TechLibrary::Nangate45Like, 30, 1),
        job(Method::Random, TechLibrary::Scaled8nmLike, 24, 2),
        job(Method::GaNsga2, TechLibrary::Nangate45Like, 24, 3),
    ];
    let dir = base_dir("multiplex");
    let mut daemon = Daemon::open(cfg(&dir)).expect("open");
    let ids: Vec<String> = specs.iter().map(|s| submit(&mut daemon, s)).collect();
    drain(&mut daemon);

    // Against the in-memory sequential model: outcome and frontier.
    for (spec, id) in specs.iter().zip(&ids) {
        let (outcome, archive) = model(spec);
        let (state, sims, best) = status_row(&mut daemon, id);
        assert_eq!(state, "done");
        assert_eq!(sims, outcome.history.last().map_or(0, |&(s, _)| s));
        assert_eq!(best, outcome.best_cost, "{id}: best cost differs");
        assert_eq!(
            frontier(&mut daemon, id),
            model_front(&archive),
            "{id}: frontier differs from the sequential driver loop"
        );
    }

    // Against a one-job-at-a-time daemon: byte-identical artifacts.
    let seq_dir = base_dir("multiplex_seq");
    let reference = sequential_reference(&seq_dir, &specs);
    for id in &ids {
        for (name, bytes) in job_files(&dir, id) {
            assert_eq!(
                bytes, reference[&name],
                "{name}: multiplexed bytes differ from single-job run"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&seq_dir);
}

/// One spec, two front ends: the batch campaign and the daemon leave
/// the same `.done`, `.jsonl` and `.journal` bytes under the same stem,
/// whatever their checkpoint cadences — and a halted campaign's
/// directory is a daemon directory: a plain `Daemon` opened over it
/// finds the job and drains it to the same files.
#[test]
fn campaign_and_daemon_leave_identical_files_for_one_spec() {
    let spec = job(Method::Ga, TechLibrary::Scaled8nmLike, 30, 5);
    let svc_dir = base_dir("front_ends_daemon");
    let mut daemon = Daemon::open(cfg(&svc_dir)).expect("open");
    let id = submit(&mut daemon, &spec);
    drain(&mut daemon);
    drop(daemon);

    for halt_after in [None, Some(2)] {
        let camp_dir = base_dir("front_ends_campaign");
        let campaign = DaemonConfig {
            checkpoint_every: cfg(&svc_dir).checkpoint_every + 2,
            threads: 1,
            ..DaemonConfig::new(&camp_dir)
        };
        let results = run_campaign(std::slice::from_ref(&spec), &campaign, halt_after)
            .expect("no quarantine");
        assert_eq!(results[0].is_some(), halt_after.is_none());
        if halt_after.is_some() {
            let mut daemon = Daemon::open(cfg(&camp_dir)).expect("reopen");
            assert!(daemon.has_running(), "the halted campaign's job is found");
            drain(&mut daemon);
        }
        assert_eq!(job_files(&camp_dir, &id), job_files(&svc_dir, &id));
        let _ = std::fs::remove_dir_all(&camp_dir);
    }
    let _ = std::fs::remove_dir_all(&svc_dir);
}

#[test]
fn pause_resume_preserves_results_exactly() {
    let spec = job(Method::Sa, TechLibrary::Nangate45Like, 30, 7);
    let dir = base_dir("pause");
    let mut daemon = Daemon::open(cfg(&dir)).expect("open");
    let id = submit(&mut daemon, &spec);

    for _ in 0..3 {
        daemon.round().expect("round");
    }
    assert!(matches!(
        daemon
            .handle(&Request::Pause { id: id.clone() })
            .expect("pause"),
        Response::Ok
    ));
    let (state, paused_sims, _) = status_row(&mut daemon, &id);
    assert_eq!(state, "paused");
    // Paused jobs do not advance, however many rounds pass.
    for _ in 0..5 {
        assert_eq!(daemon.round().expect("round"), 0, "paused daemon is idle");
    }
    assert_eq!(status_row(&mut daemon, &id).1, paused_sims);
    // Pause is idempotent; resume flips it back.
    assert!(matches!(
        daemon
            .handle(&Request::Pause { id: id.clone() })
            .expect("pause"),
        Response::Ok
    ));
    assert!(matches!(
        daemon
            .handle(&Request::Resume { id: id.clone() })
            .expect("resume"),
        Response::Ok
    ));
    drain(&mut daemon);

    let (outcome, archive) = model(&spec);
    let (_, _, best) = status_row(&mut daemon, &id);
    assert_eq!(best, outcome.best_cost);
    assert_eq!(frontier(&mut daemon, &id), model_front(&archive));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_removes_all_artifacts_and_frees_the_id() {
    let spec = job(Method::Random, TechLibrary::Nangate45Like, 24, 9);
    let dir = base_dir("cancel");
    let mut daemon = Daemon::open(cfg(&dir)).expect("open");
    let id = submit(&mut daemon, &spec);
    for _ in 0..2 {
        daemon.round().expect("round");
    }
    assert!(dir.join(format!("{id}.journal")).exists());
    assert!(matches!(
        daemon
            .handle(&Request::Cancel { id: id.clone() })
            .expect("cancel"),
        Response::Ok
    ));
    for ext in ["done", "jsonl", "journal"] {
        assert!(
            !dir.join(format!("{id}.{ext}")).exists(),
            "cancel must remove {id}.{ext}"
        );
    }
    assert!(matches!(
        daemon
            .handle(&Request::Status {
                id: Some(id.clone())
            })
            .expect("status"),
        Response::Error { .. }
    ));
    // The id is free again: a fresh submit runs from scratch to the
    // same result as the model.
    let id2 = submit(&mut daemon, &spec);
    assert_eq!(id2, id);
    drain(&mut daemon);
    let (outcome, _) = model(&spec);
    assert_eq!(status_row(&mut daemon, &id).2, outcome.best_cost);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn submit_is_idempotent_and_rejects_spec_collisions() {
    let spec = job(Method::Sa, TechLibrary::Nangate45Like, 24, 4);
    let dir = base_dir("idempotent");
    let mut daemon = Daemon::open(cfg(&dir)).expect("open");
    let id = submit(&mut daemon, &spec);

    match daemon
        .handle(&Request::Submit(spec.clone()))
        .expect("resubmit")
    {
        Response::Submitted { id: id2, existing } => {
            assert_eq!(id2, id);
            assert!(existing, "re-submit must be flagged as existing");
        }
        other => panic!("unexpected {other:?}"),
    }
    // Same id, different spec (delay_weight is not part of the id).
    let mut conflicting = spec.clone();
    conflicting.delay_weight = 0.9;
    assert_eq!(conflicting.id(), id);
    assert!(matches!(
        daemon
            .handle(&Request::Submit(conflicting))
            .expect("conflict"),
        Response::Error { .. }
    ));
    // Lifecycle commands on unknown ids fail without side effects.
    for req in [
        Request::Pause {
            id: "nope".to_string(),
        },
        Request::Resume {
            id: "nope".to_string(),
        },
        Request::Cancel {
            id: "nope".to_string(),
        },
        Request::Frontier {
            id: "nope".to_string(),
        },
    ] {
        assert!(matches!(
            daemon.handle(&req).expect("unknown id"),
            Response::Error { .. }
        ));
    }
    drain(&mut daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Random command interleavings vs the sequential model
// ---------------------------------------------------------------------

/// One step of a random daemon script.
#[derive(Debug, Clone)]
enum Op {
    Rounds(u8),
    Pause(u8),
    Resume(u8),
}

/// The vendored proptest shim has no `prop_oneof`: encode the op as a
/// `(kind, arg)` tuple instead.
fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..3, 0u8..4).prop_map(|(kind, arg)| match kind {
        0 => Op::Rounds(1 + arg % 3),
        1 => Op::Pause(arg % 2),
        _ => Op::Resume(arg % 2),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random submit/pause/resume interleavings at random step counts:
    /// the surviving jobs' outcomes and archive fronts byte-match the
    /// sequential single-job reference (and the in-memory model),
    /// whatever the script did.
    #[test]
    fn random_interleavings_match_sequential_model(
        script in proptest::collection::vec(op_strategy(), 1..12),
        cancel_code in 0u8..3, // 0/1 = cancel that job, 2 = no cancel
    ) {
        let cancel_victim = (cancel_code < 2).then_some(cancel_code);
        let specs = [
            job(Method::Sa, TechLibrary::Nangate45Like, 20, 21),
            job(Method::Random, TechLibrary::Scaled8nmLike, 20, 22),
        ];
        let dir = base_dir("interleave");
        let mut daemon = Daemon::open(cfg(&dir)).expect("open");
        let ids: Vec<String> = specs.iter().map(|s| submit(&mut daemon, s)).collect();

        for op in &script {
            match op {
                Op::Rounds(n) => {
                    for _ in 0..*n {
                        daemon.round().expect("round");
                    }
                }
                Op::Pause(j) => {
                    daemon.handle(&Request::Pause { id: ids[*j as usize].clone() }).expect("pause");
                }
                Op::Resume(j) => {
                    daemon.handle(&Request::Resume { id: ids[*j as usize].clone() }).expect("resume");
                }
            }
        }
        // Mid-script cancellation of one victim, then a fresh re-submit:
        // the job must still land on the model bytes.
        if let Some(victim) = cancel_victim {
            let id = ids[victim as usize].clone();
            daemon.handle(&Request::Cancel { id: id.clone() }).expect("cancel");
            prop_assert_eq!(submit(&mut daemon, &specs[victim as usize]), id);
        }
        for id in &ids {
            daemon.handle(&Request::Resume { id: id.clone() }).expect("final resume");
        }
        drain(&mut daemon);

        let seq_dir = base_dir("interleave_seq");
        let reference = sequential_reference(&seq_dir, &specs);
        for (spec, id) in specs.iter().zip(&ids) {
            let (outcome, archive) = model(spec);
            let (state, _, best) = status_row(&mut daemon, id);
            prop_assert_eq!(state, "done");
            prop_assert_eq!(best, outcome.best_cost);
            prop_assert_eq!(frontier(&mut daemon, id), model_front(&archive));
            for (name, bytes) in job_files(&dir, id) {
                prop_assert_eq!(
                    &bytes,
                    &reference[&name],
                    "{} differs from the sequential reference", name
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&seq_dir);
    }
}

// ---------------------------------------------------------------------
// TCP end to end
// ---------------------------------------------------------------------

/// TCP tests share the process-wide connection gauge (and the ephemeral
/// port rendezvous): serialize them so limits and leak checks are
/// deterministic.
fn net_serialize() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Boots a daemon server over `dir` with `opts`; returns the bound port
/// and the serving thread.
fn spawn_server(
    dir: &Path,
    opts: ServeOptions,
) -> (u16, std::thread::JoinHandle<std::io::Result<()>>) {
    spawn_server_with(cfg(dir), opts)
}

/// [`spawn_server`] with an explicit daemon policy.
fn spawn_server_with(
    daemon_cfg: DaemonConfig,
    opts: ServeOptions,
) -> (u16, std::thread::JoinHandle<std::io::Result<()>>) {
    let dir = daemon_cfg.dir.clone();
    let port_file = dir.join("port");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let daemon = Daemon::open(daemon_cfg).expect("open");
    let pf = port_file.clone();
    let server = std::thread::spawn(move || serve_with(daemon, "127.0.0.1:0", Some(&pf), opts));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let port: u16 = loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if let Ok(port) = text.trim().parse() {
                break port;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "port file never appeared"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    (port, server)
}

#[test]
fn tcp_server_end_to_end() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let _net = net_serialize();
    let dir = base_dir("tcp");
    let (port, server) = spawn_server(&dir, ServeOptions::default());
    let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    fn raw_line(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
        writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("recv");
        reply
    }
    fn roundtrip(
        writer: &mut TcpStream,
        reader: &mut BufReader<TcpStream>,
        req: &Request,
    ) -> cv_bench::perf::Json {
        let reply = raw_line(writer, reader, &req.render());
        cv_bench::perf::parse_json(reply.trim()).expect("json response")
    }
    let ok =
        |json: &cv_bench::perf::Json| json.get("ok") == Some(&cv_bench::perf::Json::Bool(true));

    let spec = job(Method::Random, TechLibrary::Nangate45Like, 16, 5);
    let reply = roundtrip(&mut writer, &mut reader, &Request::Submit(spec.clone()));
    assert!(ok(&reply), "submit failed: {reply:?}");
    // Malformed lines answer an error without killing the connection.
    let line = raw_line(&mut writer, &mut reader, "{\"cmd\":\"wat\"}");
    assert!(line.contains("\"ok\":false"), "bad cmd must error: {line}");

    // Poll status until the job drains.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let json = roundtrip(&mut writer, &mut reader, &Request::Status { id: None });
        assert!(ok(&json));
        let all_done = match json.get("jobs") {
            Some(cv_bench::perf::Json::Arr(jobs)) => {
                !jobs.is_empty()
                    && jobs.iter().all(|j| {
                        j.get("state") == Some(&cv_bench::perf::Json::Str("done".to_string()))
                    })
            }
            _ => false,
        };
        if all_done {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "job never drained");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let json = roundtrip(
        &mut writer,
        &mut reader,
        &Request::Frontier { id: spec.id() },
    );
    assert!(ok(&json));
    match json.get("front") {
        Some(cv_bench::perf::Json::Arr(points)) => {
            assert!(!points.is_empty(), "drained job must serve a frontier")
        }
        other => panic!("malformed frontier: {other:?}"),
    }
    let json = roundtrip(&mut writer, &mut reader, &Request::Shutdown);
    assert!(ok(&json));
    server
        .join()
        .expect("server thread")
        .expect("serve returns cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Each reply leaves as one frame on a no-delay socket: back-to-back
/// requests on one connection never wait out the client's delayed ACK
/// (about 40 ms a request when the terminator trailed in its own write).
#[test]
fn idle_pings_on_one_connection_are_not_delayed() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let _net = net_serialize();
    let dir = base_dir("ping");
    let (port, server) = spawn_server(&dir, ServeOptions::default());
    let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut exchange = |req: &Request| {
        writer
            .write_all(format!("{}\n", req.render()).as_bytes())
            .expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("recv");
        reply
    };
    let start = std::time::Instant::now();
    for _ in 0..50 {
        let reply = exchange(&Request::Ping);
        assert!(reply.contains("\"ok\":true"), "ping failed: {reply}");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "50 idle pings took {elapsed:?}"
    );
    assert!(exchange(&Request::Shutdown).contains("\"ok\":true"));
    server
        .join()
        .expect("server thread")
        .expect("serve returns cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `serve_with` returns only once the `shutdown` acknowledgement has
/// been written, so a process that exits right after serving cannot
/// cut it off: the ack is already readable when the call returns.
#[test]
fn shutdown_ack_is_written_before_serve_returns() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let _net = net_serialize();
    let dir = base_dir("shutdown_ack");
    let (port, server) = spawn_server(&dir, ServeOptions::default());
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream
        .write_all(format!("{}\n", Request::Shutdown.render()).as_bytes())
        .expect("send");
    server
        .join()
        .expect("server thread")
        .expect("serve returns cleanly");
    stream.set_nonblocking(true).expect("nonblocking");
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .expect("the ack is readable without blocking");
    assert!(reply.contains("\"ok\":true"), "shutdown ack: {reply:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Ingress hardening: fuzz frames, torn connections, overload shedding
// ---------------------------------------------------------------------

/// A raw line-protocol client for the fuzz tests.
struct Client {
    reader: std::io::BufReader<std::net::TcpStream>,
    writer: std::net::TcpStream,
}

impl Client {
    fn connect(port: u16) -> Client {
        let stream = std::net::TcpStream::connect(("127.0.0.1", port)).expect("connect");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .expect("read timeout");
        Client {
            reader: std::io::BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    /// Sends `frame` (arbitrary bytes) terminated by a newline, as one
    /// write. Fails the test if the connection is gone.
    fn send_raw(&mut self, frame: &[u8]) {
        self.try_send_raw(frame).expect("send");
    }

    /// Like [`Client::send_raw`], but surfaces a dead connection
    /// (shed/closed by the server) instead of failing the test.
    fn try_send_raw(&mut self, frame: &[u8]) -> std::io::Result<()> {
        use std::io::Write;
        let mut line = Vec::with_capacity(frame.len() + 1);
        line.extend_from_slice(frame);
        line.push(b'\n');
        self.writer.write_all(&line)?;
        self.writer.flush()
    }

    /// Reads one response line; `None` means the server closed the
    /// connection (a reset counts: the server tearing down a connection
    /// with bytes still in flight surfaces as ECONNRESET client-side).
    fn recv(&mut self) -> Option<String> {
        use std::io::BufRead;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line.trim().to_string()),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => None,
            Err(e) => panic!("recv failed: {e}"),
        }
    }

    /// Round-trips a well-formed request and asserts `"ok":true`.
    fn expect_ok(&mut self, req: &Request) {
        self.send_raw(req.render().as_bytes());
        let reply = self.recv().expect("server closed on a valid request");
        assert!(reply.contains("\"ok\":true"), "request rejected: {reply}");
    }
}

/// Polls until every connection handler in this process has exited.
fn assert_connections_drain() {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while active_connections() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "{} connection handler(s) leaked",
            active_connections()
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

#[test]
fn malformed_frames_get_errors_and_never_kill_the_daemon() {
    let _net = net_serialize();
    let dir = base_dir("fuzz");
    let opts = ServeOptions {
        max_line_bytes: 512,
        ..ServeOptions::default()
    };
    let (port, server) = spawn_server(&dir, opts);

    // Every malformed frame must answer a structured error on the same
    // connection — never a panic, never a silent close.
    let bad: &[&[u8]] = &[
        b"{\"cmd\":\"explode\"}",   // unknown verb
        b"{\"cmd\":\"submit\"",     // truncated JSON
        b"not json at all",         // garbage text
        b"{}",                      // missing cmd
        b"[1,2,3]",                 // wrong JSON shape
        b"\"cmd\"",                 // bare string
        b"{\"cmd\":42}",            // wrong cmd type
        b"{\"cmd\":\"retry\"}",     // verb missing its id
        b"\xff\xfe\x00garbage\x80", // invalid UTF-8 binary
    ];
    let mut client = Client::connect(port);
    for frame in bad {
        client.send_raw(frame);
        let reply = client
            .recv()
            .unwrap_or_else(|| panic!("connection died on malformed frame {frame:?}"));
        assert!(
            reply.contains("\"ok\":false"),
            "malformed frame {frame:?} must error, got: {reply}"
        );
    }
    // The same connection still serves real requests afterwards.
    client.expect_ok(&Request::Ping);

    // An oversized line ends the connection — with an error naming the
    // cap when the reply outruns the teardown (the server may close
    // while oversized bytes are still in flight, which resets the
    // stream before the reply is readable).
    // A missing reply is fine too — reset-before-reply means the
    // connection is gone either way.
    let assert_capped = |client: &mut Client, what: &str| {
        if let Some(reply) = client.recv() {
            assert!(
                reply.contains("\"ok\":false") && reply.contains("exceeds"),
                "{what} must name the cap: {reply}"
            );
            assert!(client.recv().is_none(), "server must close after {what}");
        }
    };
    client.send_raw(&vec![b'a'; 600]);
    assert_capped(&mut client, "an oversized line");

    // A torn connection — half a frame, then the peer vanishes — must
    // only tear down that connection.
    {
        use std::io::Write;
        let mut torn = Client::connect(port);
        torn.writer
            .write_all(b"{\"cmd\":\"stat")
            .expect("partial frame");
        torn.writer.flush().expect("flush");
    } // dropped mid-request

    // A newline-free binary flood is capped and the connection ends.
    let mut flood = Client::connect(port);
    flood.send_raw(&vec![0u8; 2048]);
    assert_capped(&mut flood, "a binary flood");

    // After all of the above the daemon still serves and shuts down
    // cleanly, and no handler thread leaked.
    let mut survivor = Client::connect(port);
    survivor.expect_ok(&Request::Ping);
    survivor.expect_ok(&Request::Shutdown);
    server
        .join()
        .expect("server thread")
        .expect("serve survives fuzzed ingress");
    // Handlers exit on their client's EOF: close ours, then the gauge
    // must drain — no thread leaked for any of the abuse above.
    drop(client);
    drop(survivor);
    assert_connections_drain();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A line of nested brackets under the default line cap is parsed on a
/// connection thread's stack: it must answer an error, not overflow the
/// stack and abort the whole daemon.
#[test]
fn deeply_nested_request_gets_an_error_and_the_daemon_survives() {
    let _net = net_serialize();
    let dir = base_dir("nesting");
    let (port, server) = spawn_server(&dir, ServeOptions::default());
    let mut client = Client::connect(port);
    client.send_raw(&vec![b'['; 60_000]);
    let reply = client.recv().expect("connection died on a nested line");
    assert!(reply.contains("\"ok\":false"), "got: {reply}");
    let mut fresh = Client::connect(port);
    fresh.expect_ok(&Request::Ping);
    fresh.expect_ok(&Request::Shutdown);
    server
        .join()
        .expect("server thread")
        .expect("serve survives a nested line");
    drop(client);
    drop(fresh);
    assert_connections_drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn connection_limit_sheds_with_structured_overload() {
    let _net = net_serialize();
    let dir = base_dir("conn_limit");
    let opts = ServeOptions {
        max_connections: 2,
        ..ServeOptions::default()
    };
    let (port, server) = spawn_server(&dir, opts);

    // Fill the admission limit (each ping proves the handler is live,
    // so the next accept sees the updated gauge).
    let mut c1 = Client::connect(port);
    c1.expect_ok(&Request::Ping);
    let mut c2 = Client::connect(port);
    c2.expect_ok(&Request::Ping);

    // The third connection is shed with a structured overload notice
    // and closed — without ever getting a handler thread.
    let mut c3 = Client::connect(port);
    let reply = c3.recv().expect("shed connections are told why");
    assert!(
        reply.contains("\"overloaded\":true") && reply.contains("connection limit"),
        "expected a structured overload notice: {reply}"
    );
    assert!(c3.recv().is_none(), "shed connections must be closed");

    // Freeing a slot restores admission.
    drop(c1);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let mut admitted = loop {
        let mut c = Client::connect(port);
        // A still-full server may have already shed (and closed) this
        // connection, so the write itself can fail — that is a retry,
        // not an error.
        if c.try_send_raw(Request::Ping.render().as_bytes()).is_ok() {
            match c.recv() {
                Some(reply) if reply.contains("\"ok\":true") => break c,
                Some(reply) => assert!(
                    reply.contains("overloaded"),
                    "unexpected admission failure: {reply}"
                ),
                None => {}
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "freed connection slot was never reclaimed"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    };

    admitted.expect_ok(&Request::Shutdown);
    server
        .join()
        .expect("server thread")
        .expect("serve returns cleanly");
    drop(c2);
    drop(admitted);
    assert_connections_drain();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Read view: reads never wait out a round
// ---------------------------------------------------------------------

/// The `(id, state, sims)` rows of a status reply.
fn status_rows(reply: &str) -> Vec<(String, String, usize)> {
    use cv_bench::perf::{parse_json, Json};
    let json = parse_json(reply).expect("json reply");
    let Some(Json::Arr(jobs)) = json.get("jobs") else {
        panic!("status reply without jobs: {reply}");
    };
    jobs.iter()
        .map(|j| match (j.get("id"), j.get("state"), j.get("sims")) {
            (Some(Json::Str(id)), Some(Json::Str(state)), Some(Json::Num(sims))) => {
                (id.clone(), state.clone(), *sims as usize)
            }
            _ => panic!("malformed status row in {reply}"),
        })
        .collect()
}

impl Client {
    fn status(&mut self, id: Option<&str>) -> String {
        let req = Request::Status {
            id: id.map(str::to_string),
        };
        self.send_raw(req.render().as_bytes());
        self.recv().expect("server closed on status")
    }
}

/// Reads are answered from the view published after the last completed
/// round: while a CircuitVAE job's first round (its warm-up training)
/// is in flight, 20 back-to-back `status` replies all come back showing
/// the table as it stood before that round.
#[test]
fn reads_are_answered_while_a_long_round_runs() {
    let _net = net_serialize();
    let dir = base_dir("read_view");
    let (port, server) = spawn_server(&dir, ServeOptions::default());
    let mut c = Client::connect(port);
    let spec = job(Method::CircuitVae, TechLibrary::Nangate45Like, 600, 1);
    c.expect_ok(&Request::Submit(spec.clone()));
    // The scheduler is now in the job's first round.
    let t = std::time::Instant::now();
    let replies: Vec<_> = (0..20).map(|_| status_rows(&c.status(None))).collect();
    let reads = t.elapsed();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    while status_rows(&c.status(None)) == replies[0] {
        assert!(
            std::time::Instant::now() < deadline,
            "the round never ended"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let round = t.elapsed();
    assert_eq!(replies[0][0].0, spec.id());
    assert!(
        replies.iter().all(|r| *r == replies[0]),
        "a read waited for the round ({reads:?} for 20 reads, round {round:?}): {replies:?}"
    );
    c.expect_ok(&Request::Shutdown);
    server
        .join()
        .expect("server thread")
        .expect("serve returns cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client that got a command's reply sees its effect in its next read.
#[test]
fn reads_see_the_effect_of_each_acknowledged_command() {
    let _net = net_serialize();
    let dir = base_dir("read_after_command");
    let (port, server) = spawn_server(&dir, ServeOptions::default());
    let mut c = Client::connect(port);
    let spec = job(Method::Sa, TechLibrary::Nangate45Like, 20_000, 3);
    let id = spec.id();
    c.expect_ok(&Request::Submit(spec));
    let rows = status_rows(&c.status(None));
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].0, id);
    c.expect_ok(&Request::Pause { id: id.clone() });
    assert_eq!(status_rows(&c.status(Some(&id)))[0].1, "paused");
    c.expect_ok(&Request::Cancel { id: id.clone() });
    let reply = c.status(Some(&id));
    assert!(
        reply.contains("\"ok\":false") && reply.contains(&format!("unknown job {id}")),
        "a cancelled job must be gone from the next read: {reply}"
    );
    c.expect_ok(&Request::Shutdown);
    server
        .join()
        .expect("server thread")
        .expect("serve returns cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `shutdown` is acknowledged only after every running job is
/// checkpointed: with periodic checkpoints out of reach, a restart
/// still resumes the job at least where the last read saw it.
#[test]
fn shutdown_checkpoints_running_jobs_before_its_ack() {
    let _net = net_serialize();
    let dir = base_dir("shutdown_checkpoint");
    let daemon_cfg = DaemonConfig {
        checkpoint_every: usize::MAX,
        ..cfg(&dir)
    };
    let (port, server) = spawn_server_with(daemon_cfg.clone(), ServeOptions::default());
    let mut c = Client::connect(port);
    let spec = job(Method::Sa, TechLibrary::Nangate45Like, 20_000, 4);
    let id = spec.id();
    c.expect_ok(&Request::Submit(spec));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let seen = loop {
        let row = status_rows(&c.status(Some(&id))).remove(0);
        assert_eq!(row.1, "running", "the job must still run at shutdown");
        if row.2 > 0 {
            break row.2;
        }
        assert!(std::time::Instant::now() < deadline, "the job never ran");
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    c.expect_ok(&Request::Shutdown);
    server
        .join()
        .expect("server thread")
        .expect("serve returns cleanly");
    let mut daemon = Daemon::open(daemon_cfg).expect("reopen");
    let (_, resumed, _) = status_row(&mut daemon, &id);
    assert!(
        resumed >= seen,
        "restart resumed at {resumed} sims, before the {seen} the last read saw"
    );
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}
