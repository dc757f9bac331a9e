//! The `campaignd` TCP front end: line-delimited JSON over a local
//! socket (DESIGN.md §10).
//!
//! Threading model: one accept thread plus one lightweight handler
//! thread per connection; a single scheduler loop (the caller's thread)
//! owns the [`Daemon`] and alternates between draining queued commands
//! and running scheduling rounds, so commands take effect at driver-step
//! granularity and job state never needs cross-thread sharing beyond
//! the per-slot locks the rounds already use. The read verbs (`status`,
//! `frontier`, `fail-info`) skip the queue: connection threads answer
//! them from the daemon's latest published read view (an immutable
//! snapshot of the job table), so a read never waits out a round. The
//! scheduler republishes the view after every round and after every
//! command, before that command's reply is sent.
//!
//! **Ingress hardening.** Every connection gets read/write timeouts and
//! a request-line length cap; the accept path enforces a connection
//! limit, and the scheduler queue is bounded — load beyond any of these
//! limits is *shed* with a structured `overloaded` error (or a clean
//! close) instead of stalling the accept loop or growing without bound
//! ([`ServeOptions`]); reads never enter the queue, so they are never
//! shed. Socket-level failures (reset mid-line, EOF mid-request, a
//! timed-out read) close only that connection, with the reason logged;
//! the daemon and every other connection keep going.

use crate::service::daemon::{Daemon, ViewHandle};
use crate::service::protocol::{Request, Response};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

/// How long an idle scheduler blocks waiting for a command before
/// polling again.
const IDLE_WAIT: Duration = Duration::from_millis(25);

/// Ingress limits and timeouts — the overload-protection policy.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Per-connection read timeout: a client that goes silent mid-line
    /// for longer than this is disconnected.
    pub read_timeout: Duration,
    /// Per-connection write timeout: a client that stops draining its
    /// responses is disconnected.
    pub write_timeout: Duration,
    /// Longest accepted request line in bytes; longer lines get an
    /// error response and the connection is closed.
    pub max_line_bytes: usize,
    /// Concurrent connection limit; further connects are told
    /// `overloaded` and closed without a handler thread.
    pub max_connections: usize,
    /// Bound on commands queued toward the scheduler; requests beyond
    /// it are shed with an `overloaded` error.
    pub queue_depth: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            max_line_bytes: 64 * 1024,
            max_connections: 64,
            queue_depth: 128,
        }
    }
}

/// Live connection count across every server in this process — lets
/// tests prove torn or shed connections do not leak handler threads.
static ACTIVE_CONNS: AtomicUsize = AtomicUsize::new(0);

/// The number of currently open connection handlers (process-wide).
pub fn active_connections() -> usize {
    ACTIVE_CONNS.load(Ordering::SeqCst)
}

/// Decrements the live-connection gauge when a handler exits, however
/// it exits.
struct ConnGuard;

impl ConnGuard {
    fn enter() -> ConnGuard {
        ACTIVE_CONNS.fetch_add(1, Ordering::SeqCst);
        ConnGuard
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        ACTIVE_CONNS.fetch_sub(1, Ordering::SeqCst);
    }
}

type Command = (Request, Sender<String>);

/// Serves `daemon` on `addr` with the default [`ServeOptions`]. See
/// [`serve_with`].
///
/// # Errors
///
/// As [`serve_with`].
pub fn serve(daemon: Daemon, addr: &str, port_file: Option<&Path>) -> io::Result<()> {
    serve_with(daemon, addr, port_file, ServeOptions::default())
}

/// Serves `daemon` on `addr` (e.g. `127.0.0.1:0`) until a client sends
/// `shutdown`. When `port_file` is given, the bound port is written
/// there once the listener is live — the rendezvous the CLI client and
/// the CI smoke script use with ephemeral ports.
///
/// Shutdown is graceful: every running job is checkpointed durably
/// before the `shutdown` acknowledgement is sent, so a restart resumes
/// where serving stopped.
///
/// # Errors
///
/// Binding/IO failures on the listener (including a failed accept-
/// thread spawn), or a daemon persistence failure (the daemon refuses
/// further work once its durable write path fails).
pub fn serve_with(
    mut daemon: Daemon,
    addr: &str,
    port_file: Option<&Path>,
    opts: ServeOptions,
) -> io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    if let Some(pf) = port_file {
        // Coordination state, not durable campaign state: a plain write
        // keeps it off the audited (fault-injected) path.
        std::fs::write(pf, format!("{}\n", local.port()))?;
    }
    eprintln!("campaignd: listening on {local}");

    let stop = Arc::new(AtomicBool::new(false));
    let view = daemon.view();
    let (cmd_tx, cmd_rx) = mpsc::sync_channel::<Command>(opts.queue_depth.max(1));
    // Signalled by the connection that carried the acknowledged
    // `shutdown` once its reply is written (or the write gave up).
    let (acked_tx, acked_rx) = mpsc::channel::<()>();
    let accept = {
        let stop = Arc::clone(&stop);
        let opts = opts.clone();
        std::thread::Builder::new()
            .name("campaignd-accept".to_string())
            .spawn(move || accept_loop(listener, cmd_tx, view, stop, opts, acked_tx))
            .map_err(|e| {
                io::Error::new(
                    e.kind(),
                    format!("campaignd: cannot spawn accept thread: {e}"),
                )
            })?
    };

    let result = scheduler_loop(&mut daemon, &cmd_rx);
    if result.is_ok() {
        // The acknowledgement is only queued to its connection thread;
        // returning now could let the process exit before it is sent.
        // The write is bounded by the write timeout.
        let _ = acked_rx.recv_timeout(opts.write_timeout * 2);
    }
    // Unblock the accept thread (it is parked in `accept`) and reap it.
    stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(local);
    let _ = accept.join();
    result
}

fn accept_loop(
    listener: TcpListener,
    cmd_tx: SyncSender<Command>,
    view: ViewHandle,
    stop: Arc<AtomicBool>,
    opts: ServeOptions,
    acked_tx: Sender<()>,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Replies are single small frames: send each at once instead of
        // holding it for the peer's delayed ACK.
        let _ = stream.set_nodelay(true);
        if active_connections() >= opts.max_connections {
            // Shed the connection without a handler thread: tell the
            // client why (bounded by the write timeout so a slow client
            // cannot stall the accept loop) and close.
            let mut stream = stream;
            let _ = stream.set_write_timeout(Some(opts.write_timeout));
            let reply = Response::Overloaded {
                message: format!("connection limit ({}) reached", opts.max_connections),
            };
            let _ = stream.write_all(frame(reply.render()).as_bytes());
            continue;
        }
        let cmd_tx = cmd_tx.clone();
        let view = view.clone();
        let acked_tx = acked_tx.clone();
        let opts = opts.clone();
        let guard = ConnGuard::enter();
        let spawned = std::thread::Builder::new()
            .name("campaignd-conn".to_string())
            .spawn(move || {
                let _guard = guard;
                connection_loop(stream, cmd_tx, &view, &opts, &acked_tx);
            });
        if let Err(e) = spawned {
            // Thread exhaustion is load shedding too: log and move on;
            // the guard moved into the closure only on success, so the
            // gauge self-corrects either way.
            eprintln!("campaignd: cannot spawn connection thread: {e}");
        }
    }
}

/// One capped request-line read.
enum LineRead {
    /// A complete line (without the terminator), within the cap.
    Line(String),
    /// The line outgrew the cap before its terminator arrived.
    TooLong,
    /// Clean end of stream at a line boundary.
    Closed,
    /// The peer vanished mid-request (EOF between terminators).
    TornRequest,
    /// A socket error or read timeout.
    Failed(io::Error),
}

/// Reads one `\n`-terminated line of at most `cap` bytes. Never buffers
/// more than `cap +` one BufReader block, no matter what the peer
/// sends.
fn read_line_capped(reader: &mut impl BufRead, cap: usize) -> LineRead {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok([]) => {
                return if line.is_empty() {
                    LineRead::Closed
                } else {
                    LineRead::TornRequest
                }
            }
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return LineRead::Failed(e),
        };
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            line.extend_from_slice(&chunk[..pos]);
            reader.consume(pos + 1);
            if line.len() > cap {
                return LineRead::TooLong;
            }
            // Invalid UTF-8 is malformed input, not a socket failure:
            // lossily decode and let the request parser reject it.
            return LineRead::Line(String::from_utf8_lossy(&line).into_owned());
        }
        let n = chunk.len();
        line.extend_from_slice(chunk);
        reader.consume(n);
        if line.len() > cap {
            return LineRead::TooLong;
        }
    }
}

/// One response line: the reply and its terminator in a single buffer,
/// so it leaves in one write.
fn frame(mut reply: String) -> String {
    reply.push('\n');
    reply
}

fn connection_loop(
    stream: TcpStream,
    cmd_tx: SyncSender<Command>,
    view: &ViewHandle,
    opts: &ServeOptions,
    acked_tx: &Sender<()>,
) {
    let peer = stream
        .peer_addr()
        .map_or_else(|_| "<unknown>".to_string(), |a| a.to_string());
    if stream.set_read_timeout(Some(opts.read_timeout)).is_err()
        || stream.set_write_timeout(Some(opts.write_timeout)).is_err()
    {
        eprintln!("campaignd: closing {peer}: cannot set socket timeouts");
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        eprintln!("campaignd: closing {peer}: cannot clone stream");
        return;
    };
    let mut writer = stream;
    let mut reader = BufReader::new(read_half);
    loop {
        let mut shutdown_acked = false;
        let (reply, close_after) = match read_line_capped(&mut reader, opts.max_line_bytes) {
            LineRead::Closed => return,
            LineRead::TornRequest => {
                eprintln!("campaignd: closing {peer}: EOF mid-request");
                return;
            }
            LineRead::Failed(e) => {
                let reason = match e.kind() {
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                        "read timed out".to_string()
                    }
                    _ => format!("read failed: {e}"),
                };
                eprintln!("campaignd: closing {peer}: {reason}");
                return;
            }
            LineRead::TooLong => (
                Response::error(format!(
                    "request line exceeds {} bytes; closing",
                    opts.max_line_bytes
                ))
                .render(),
                // The rest of the oversized line is still in flight;
                // there is no request boundary to resynchronize on.
                true,
            ),
            LineRead::Line(line) if line.trim().is_empty() => continue,
            LineRead::Line(line) => match Request::parse(&line) {
                // Malformed input never reaches the daemon.
                Err(msg) => (Response::error(msg).render(), false),
                Ok(req) => match view.latest().answer(&req) {
                    Some(reply) => (reply.render(), false),
                    None => {
                        let is_shutdown = matches!(req, Request::Shutdown);
                        let (reply_tx, reply_rx) = mpsc::channel();
                        match cmd_tx.try_send((req, reply_tx)) {
                            Ok(()) => match reply_rx.recv() {
                                Ok(reply) => {
                                    shutdown_acked = is_shutdown;
                                    (reply, false)
                                }
                                Err(_) => return, // scheduler gone: daemon shut down
                            },
                            // Backpressure: shed the request, keep the
                            // connection — the client may retry later.
                            Err(mpsc::TrySendError::Full(_)) => (
                                Response::Overloaded {
                                    message: format!(
                                        "scheduler queue full ({} pending)",
                                        opts.queue_depth
                                    ),
                                }
                                .render(),
                                false,
                            ),
                            Err(mpsc::TrySendError::Disconnected(_)) => return,
                        }
                    }
                },
            },
        };
        let written = writer.write_all(frame(reply).as_bytes());
        if shutdown_acked {
            let _ = acked_tx.send(());
        }
        if written.is_err() {
            eprintln!("campaignd: closing {peer}: write failed");
            return;
        }
        if close_after {
            return;
        }
    }
}

fn scheduler_loop(daemon: &mut Daemon, cmd_rx: &Receiver<Command>) -> io::Result<()> {
    loop {
        // Drain every queued command between rounds.
        loop {
            match cmd_rx.try_recv() {
                Ok(cmd) => {
                    if dispatch(daemon, cmd)? {
                        return Ok(());
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => return Ok(()),
            }
        }
        let stepped = daemon.round()?;
        if stepped == 0 {
            // Idle: block briefly for the next command instead of
            // spinning.
            match cmd_rx.recv_timeout(IDLE_WAIT) {
                Ok(cmd) => {
                    if dispatch(daemon, cmd)? {
                        return Ok(());
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return Ok(()),
            }
        }
    }
}

/// Handles one command; returns `Ok(true)` when serving should stop
/// (a graceful, fully-checkpointed shutdown was acknowledged).
fn dispatch(daemon: &mut Daemon, (req, reply): Command) -> io::Result<bool> {
    let is_shutdown = matches!(req, Request::Shutdown);
    if is_shutdown {
        // Durability before the acknowledgement, as for every command.
        daemon.checkpoint_all()?;
    }
    match daemon.handle(&req) {
        Ok(resp) => {
            let _ = reply.send(resp.render());
            Ok(is_shutdown)
        }
        Err(e) => {
            let _ = reply.send(Response::error(format!("persistence failure: {e}")).render());
            Err(e)
        }
    }
}
