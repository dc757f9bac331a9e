//! `campaignd`: the journaled multi-job search service (DESIGN.md §10).
//!
//! The [`Daemon`] is the workspace's one scheduler. Optimization jobs
//! (circuit kind × width × tech × method × budget) arrive over a
//! line-delimited JSON protocol on a local TCP socket
//! ([`protocol`] / [`server`]) — or, for the batch campaign
//! ([`crate::campaign`]), as in-process requests with no socket — and
//! are multiplexed onto the shared [`cv_pool::WorkerPool`] with fair
//! round-robin scheduling at `SearchDriver::step` granularity — at most
//! [`MAX_OPEN_JOBS`] at once, the rest queued without an engine — with
//! per-job `submit`/`status`/`pause`/`resume`/`cancel` plus live
//! `frontier` queries served from the in-memory Pareto archives
//! ([`daemon`]).
//!
//! Every lifecycle transition is persisted to an append-only service
//! journal *before* it is acknowledged, and every job checkpoints
//! periodically through the shared per-task persistence layer — so
//! `kill -9` + restart replays the durable prefix and resumes every
//! in-flight job byte-identically (Contract 11). The CI `kill-smoke`
//! job and `tests/service_crash.rs` prove exactly that with real aborts
//! and simulated (`Mode::Error`) deaths.

pub mod daemon;
pub mod protocol;
pub mod server;

pub use daemon::{Daemon, DaemonConfig, JOURNAL_MAX_BYTES, MAX_OPEN_JOBS, SERVICE_JOURNAL};
pub use protocol::{JobSpec, JobStatus, Request, Response};
pub use server::{active_connections, serve, serve_with, ServeOptions};
