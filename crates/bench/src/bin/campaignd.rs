//! The **campaignd** service binary: a long-running daemon multiplexing
//! optimization jobs, plus its CLI client (DESIGN.md §10).
//!
//! Server:
//!
//! ```text
//! campaignd serve --dir PATH [--addr 127.0.0.1:0] [--port-file PATH]
//!                 [--threads N] [--checkpoint-every N]
//!                 [--slice-steps N] [--max-retries N]
//!                 [--max-conns N] [--max-line-bytes N]
//!                 [--queue-depth N] [--conn-timeout-secs N]
//! ```
//!
//! Boots (or crash-recovers) the daemon over `--dir` and serves the
//! line-delimited JSON protocol until a client sends `shutdown`. With
//! `--port-file`, the bound port is written there once the listener is
//! live — the rendezvous for ephemeral (`:0`) ports. The limits flags
//! bound the ingress path: concurrent connections (`--max-conns`),
//! request-line length (`--max-line-bytes`), queued commands
//! (`--queue-depth`), and the per-connection socket timeouts
//! (`--conn-timeout-secs`); load beyond them is shed with a structured
//! `overloaded` error. `--max-retries` caps a failing job's automatic
//! retries before quarantine.
//!
//! Fault injection (chaos harness levers):
//!
//! * `CV_FAILPOINT=<ticks>` arms the `cv-journal` failpoint in
//!   real-kill mode, exactly as the `campaign` binary does: the process
//!   aborts once the durable write path has spent that many ticks.
//!   Restarting with the same `--dir` replays the service journal and
//!   resumes every job byte-identically (Contract 11; the CI
//!   `kill-smoke` job cycles kill points and `diff -r`s against a
//!   never-killed run).
//! * `CV_TRANSIENT_IO=<ticks>:<window>` opens a transient IO brown-out
//!   instead: after `<ticks>` durable-write ticks, the next `<window>`
//!   durable operations fail without killing the process. The daemon
//!   parks affected jobs and keeps serving (Contract 13).
//! * `CV_PANIC_JOB=<fragment>@<sims>` makes every job whose id contains
//!   `<fragment>` panic at its first step at or past `<sims>`
//!   simulations — deterministically across retries, so the job drains
//!   its retry budget and lands quarantined.
//!
//! Client (all take `--port N` or `--port-file PATH`, with
//! `--connect-timeout-secs` to wait for a booting daemon; connects
//! retry transient failures with bounded exponential backoff, and
//! requests answered `"transient":true` or `"overloaded":true` are
//! retried the same way until the connect deadline — both signals
//! leave daemon state unchanged, so repeating is always safe):
//!
//! ```text
//! campaignd submit    --kind adder --width 8 --tech nangate45
//!                     --method sa --budget 64 --seed 1
//!                     [--delay-weight 0.5]
//! campaignd status    [--id JOB]
//! campaignd wait      [--timeout-secs N]  # until nothing runs or retries
//! campaignd pause     --id JOB
//! campaignd resume    --id JOB
//! campaignd cancel    --id JOB
//! campaignd frontier  --id JOB
//! campaignd retry     --id JOB            # revive a failed/quarantined job
//! campaignd fail-info --id JOB            # why it failed, retries, backoff
//! campaignd ping
//! campaignd shutdown                      # graceful: checkpoints all
//! ```
//!
//! Every client subcommand prints the daemon's raw JSON response line
//! and exits nonzero when `ok` is false.

use cv_bench::harness::arg;
use cv_bench::perf::{parse_json, Json};
use cv_bench::service::{serve_with, Daemon, DaemonConfig, JobSpec, Request, ServeOptions};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn required(name: &str) -> String {
    arg(name).unwrap_or_else(|| {
        eprintln!("error: {name} is required");
        std::process::exit(2);
    })
}

fn main() {
    let cmd = std::env::args().nth(1).unwrap_or_default();
    match cmd.as_str() {
        "serve" => run_server(),
        "submit" => client(Request::Submit(submit_spec())),
        "status" => client(Request::Status { id: arg("--id") }),
        "pause" => client(Request::Pause {
            id: required("--id"),
        }),
        "resume" => client(Request::Resume {
            id: required("--id"),
        }),
        "cancel" => client(Request::Cancel {
            id: required("--id"),
        }),
        "frontier" => client(Request::Frontier {
            id: required("--id"),
        }),
        "retry" => client(Request::Retry {
            id: required("--id"),
        }),
        "fail-info" => client(Request::FailInfo {
            id: required("--id"),
        }),
        "ping" => client(Request::Ping),
        "shutdown" => client(Request::Shutdown),
        "wait" => wait_drained(),
        other => {
            eprintln!(
                "usage: campaignd serve|submit|status|wait|pause|resume|cancel|frontier|retry|fail-info|ping|shutdown (got `{other}`)"
            );
            std::process::exit(2);
        }
    }
}

// ---------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------

fn run_server() {
    if cv_journal::failpoint::arm_from_env() {
        eprintln!("campaignd: CV_FAILPOINT armed — this run will be killed mid-write");
    }
    if cv_journal::failpoint::arm_transient_from_env() {
        eprintln!("campaignd: CV_TRANSIENT_IO armed — a transient IO brown-out is scheduled");
    }
    if cv_bench::faults::arm_from_env() {
        eprintln!("campaignd: CV_PANIC_JOB armed — matching jobs will panic mid-step");
    }
    let dir = PathBuf::from(required("--dir"));
    let mut cfg = DaemonConfig::new(dir);
    if let Some(threads) = arg::<usize>("--threads") {
        cfg.threads = threads;
    }
    if let Some(every) = arg::<usize>("--checkpoint-every") {
        cfg.checkpoint_every = every;
    }
    if let Some(steps) = arg::<usize>("--slice-steps") {
        cfg.slice_steps = steps;
    }
    if let Some(retries) = arg::<u32>("--max-retries") {
        cfg.max_retries = retries;
    }
    let mut opts = ServeOptions::default();
    if let Some(conns) = arg::<usize>("--max-conns") {
        opts.max_connections = conns;
    }
    if let Some(bytes) = arg::<usize>("--max-line-bytes") {
        opts.max_line_bytes = bytes;
    }
    if let Some(depth) = arg::<usize>("--queue-depth") {
        opts.queue_depth = depth;
    }
    if let Some(secs) = arg::<u64>("--conn-timeout-secs") {
        opts.read_timeout = Duration::from_secs(secs);
        opts.write_timeout = Duration::from_secs(secs);
    }
    let addr = arg::<String>("--addr").unwrap_or_else(|| "127.0.0.1:0".to_string());
    let port_file = arg::<PathBuf>("--port-file");

    let daemon = Daemon::open(cfg).unwrap_or_else(|e| {
        eprintln!("campaignd: failed to open state directory: {e}");
        std::process::exit(1);
    });
    if let Err(e) = serve_with(daemon, &addr, port_file.as_deref(), opts) {
        eprintln!("campaignd: serving failed: {e}");
        std::process::exit(1);
    }
    eprintln!("campaignd: shut down cleanly");
}

// ---------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------

fn submit_spec() -> JobSpec {
    let line = format!(
        r#"{{"cmd":"submit","job":{{"method":"{}","kind":"{}","width":{},"tech":"{}","delay_weight":{},"budget":{},"seed":{}}}}}"#,
        required("--method"),
        arg::<String>("--kind").unwrap_or_else(|| "adder".to_string()),
        arg::<usize>("--width").unwrap_or(8),
        required("--tech"),
        arg::<f64>("--delay-weight").unwrap_or(0.5),
        arg::<usize>("--budget").unwrap_or_else(|| {
            eprintln!("error: --budget is required");
            std::process::exit(2);
        }),
        arg::<u64>("--seed").unwrap_or(1),
    );
    match Request::parse(&line) {
        Ok(Request::Submit(spec)) => spec,
        Ok(_) => unreachable!("submit line parses as submit"),
        Err(e) => {
            eprintln!("error: invalid job: {e}");
            std::process::exit(2);
        }
    }
}

/// Bounded exponential backoff for the client's retry loops: starts at
/// `start` and doubles per sleep up to `cap` — kind to a booting or
/// momentarily overloaded daemon without hammering it at a fixed rate.
struct Backoff {
    next: Duration,
    cap: Duration,
}

impl Backoff {
    fn new(start: Duration, cap: Duration) -> Backoff {
        Backoff { next: start, cap }
    }

    fn sleep(&mut self) {
        std::thread::sleep(self.next);
        self.next = (self.next * 2).min(self.cap);
    }
}

/// Resolves the daemon port from `--port` or `--port-file`, waiting
/// (with exponential backoff) for the file to appear while the daemon
/// boots.
fn resolve_port(deadline: Instant) -> u16 {
    if let Some(port) = arg::<u16>("--port") {
        return port;
    }
    let Some(pf) = arg::<PathBuf>("--port-file") else {
        eprintln!("error: --port or --port-file is required");
        std::process::exit(2);
    };
    let mut backoff = Backoff::new(Duration::from_millis(10), Duration::from_millis(250));
    loop {
        if let Ok(text) = std::fs::read_to_string(&pf) {
            if let Ok(port) = text.trim().parse::<u16>() {
                return port;
            }
        }
        if Instant::now() >= deadline {
            eprintln!("error: port file {} never appeared", pf.display());
            std::process::exit(1);
        }
        backoff.sleep();
    }
}

/// Connects to the daemon, retrying transient connect failures
/// (refused while booting, reset, interrupted) with bounded exponential
/// backoff until `deadline`; the final error reports every attempt.
fn connect(deadline: Instant) -> TcpStream {
    let mut backoff = Backoff::new(Duration::from_millis(10), Duration::from_millis(250));
    let mut attempts = 0u32;
    loop {
        let port = resolve_port(deadline);
        attempts += 1;
        match TcpStream::connect(("127.0.0.1", port)) {
            Ok(stream) => {
                // One small frame per request: send it without waiting
                // for the daemon's delayed ACK.
                let _ = stream.set_nodelay(true);
                return stream;
            }
            Err(e) => {
                if Instant::now() >= deadline {
                    eprintln!(
                        "error: cannot connect to campaignd on port {port} after {attempts} \
                         attempt(s); last error: {e}"
                    );
                    std::process::exit(1);
                }
                backoff.sleep();
            }
        }
    }
}

fn connect_deadline() -> Instant {
    let secs = arg::<u64>("--connect-timeout-secs").unwrap_or(10);
    Instant::now() + Duration::from_secs(secs)
}

fn roundtrip(stream: &mut TcpStream, req: &Request) -> (String, Json) {
    let mut line = req.render();
    line.push('\n');
    stream.write_all(line.as_bytes()).unwrap_or_else(|e| {
        eprintln!("error: send failed: {e}");
        std::process::exit(1);
    });
    let mut reply = String::new();
    BufReader::new(stream.try_clone().expect("clone stream"))
        .read_line(&mut reply)
        .unwrap_or_else(|e| {
            eprintln!("error: recv failed: {e}");
            std::process::exit(1);
        });
    if reply.trim().is_empty() {
        eprintln!("error: daemon closed the connection");
        std::process::exit(1);
    }
    let json = parse_json(reply.trim()).unwrap_or_else(|e| {
        eprintln!("error: malformed response: {e}");
        std::process::exit(1);
    });
    (reply.trim_end().to_string(), json)
}

/// Whether a reply is a structured "back off and retry" signal: the
/// daemon shed the request under load (`"overloaded":true`) or hit a
/// transient persistence brown-out (`"transient":true`). Both leave
/// daemon state unchanged, so repeating the request is always safe.
fn is_retryable(json: &Json) -> bool {
    json.get("transient") == Some(&Json::Bool(true))
        || json.get("overloaded") == Some(&Json::Bool(true))
}

fn client(req: Request) {
    let deadline = connect_deadline();
    let mut backoff = Backoff::new(Duration::from_millis(10), Duration::from_millis(250));
    loop {
        let mut stream = connect(deadline);
        let (raw, json) = roundtrip(&mut stream, &req);
        if is_retryable(&json) && Instant::now() < deadline {
            backoff.sleep();
            continue;
        }
        println!("{raw}");
        if json.get("ok") != Some(&Json::Bool(true)) {
            std::process::exit(1);
        }
        return;
    }
}

/// Polls `status` with exponential backoff until nothing is running or
/// awaiting an automatic retry (failed jobs still count: they revive
/// once their backoff drains), the timeout expires (exit 1), or the
/// daemon vanishes (exit 1). Quarantined jobs do not count — they need
/// a manual `retry`.
fn wait_drained() {
    let timeout = arg::<u64>("--timeout-secs").unwrap_or(300);
    let deadline = Instant::now() + Duration::from_secs(timeout);
    let mut backoff = Backoff::new(Duration::from_millis(50), Duration::from_secs(1));
    loop {
        let mut stream = connect(connect_deadline());
        let (_, json) = roundtrip(&mut stream, &Request::Status { id: None });
        if is_retryable(&json) {
            backoff.sleep();
            continue;
        }
        let pending = match json.get("jobs") {
            Some(Json::Arr(jobs)) => jobs
                .iter()
                .filter(|j| match j.get("state") {
                    Some(Json::Str(s)) => s == "running" || s == "failed",
                    _ => false,
                })
                .count(),
            _ => {
                eprintln!("error: malformed status response");
                std::process::exit(1);
            }
        };
        if pending == 0 {
            return;
        }
        if Instant::now() >= deadline {
            eprintln!("error: wait timed out with {pending} jobs still pending");
            std::process::exit(1);
        }
        backoff.sleep();
    }
}
