//! The `campaignd` wire protocol: line-delimited JSON over a local TCP
//! socket (DESIGN.md §10).
//!
//! Every request is one JSON object on one line; every response is one
//! JSON object on one line. Responses always carry `"ok": true|false`;
//! failed requests carry `"error": "<message>"` and never change daemon
//! state. The codec reuses the dependency-free JSON parser from
//! [`crate::perf`] — the protocol needs nothing beyond objects, strings
//! and numbers.

use crate::harness::{Method, TechLibrary};
use crate::perf::{parse_json, Json};
use cv_prefix::CircuitKind;

pub use crate::persist::{method_slug, tech_slug, JobSpec};

fn parse_method(slug: &str) -> Result<Method, String> {
    for m in [
        Method::CircuitVae,
        Method::LatentBo,
        Method::Ga,
        Method::GaNsga2,
        Method::Rl,
        Method::Sa,
        Method::Random,
    ] {
        if method_slug(m) == slug {
            return Ok(m);
        }
    }
    Err(format!("unknown method `{slug}`"))
}

fn parse_tech(slug: &str) -> Result<TechLibrary, String> {
    match slug {
        "nangate45" => Ok(TechLibrary::Nangate45Like),
        "scaled8nm" => Ok(TechLibrary::Scaled8nmLike),
        other => Err(format!("unknown tech `{other}`")),
    }
}

fn parse_kind(slug: &str) -> Result<CircuitKind, String> {
    match slug {
        "adder" => Ok(CircuitKind::Adder),
        "gray2bin" => Ok(CircuitKind::GrayToBinary),
        "lzd" => Ok(CircuitKind::LeadingZero),
        other => Err(format!("unknown kind `{other}`")),
    }
}

impl JobSpec {
    /// Renders the spec as the `"job"` JSON object of a submit request.
    pub fn render(&self) -> String {
        format!(
            r#"{{"method":"{}","kind":"{}","width":{},"tech":"{}","delay_weight":{},"budget":{},"seed":{}}}"#,
            method_slug(self.method),
            self.kind.name(),
            self.width,
            tech_slug(self.tech),
            self.delay_weight,
            self.budget,
            self.seed
        )
    }

    fn from_json(json: &Json) -> Result<JobSpec, String> {
        let str_field = |key: &str| -> Result<&str, String> {
            match json.get(key) {
                Some(Json::Str(s)) => Ok(s.as_str()),
                _ => Err(format!("job.{key} must be a string")),
            }
        };
        let num_field = |key: &str| -> Result<f64, String> {
            match json.get(key) {
                Some(Json::Num(n)) => Ok(*n),
                _ => Err(format!("job.{key} must be a number")),
            }
        };
        let uint_field = |key: &str| -> Result<u64, String> {
            let n = num_field(key)?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(format!("job.{key} must be a non-negative integer"));
            }
            Ok(n as u64)
        };
        let width = uint_field("width")? as usize;
        if width < 2 {
            return Err("job.width must be at least 2".to_string());
        }
        let budget = uint_field("budget")? as usize;
        if budget == 0 {
            return Err("job.budget must be positive".to_string());
        }
        let delay_weight = match json.get("delay_weight") {
            None => 0.5,
            Some(Json::Num(n)) if n.is_finite() && *n >= 0.0 && *n <= 1.0 => *n,
            _ => return Err("job.delay_weight must be a number in [0, 1]".to_string()),
        };
        Ok(JobSpec {
            method: parse_method(str_field("method")?)?,
            kind: parse_kind(str_field("kind")?)?,
            width,
            tech: parse_tech(str_field("tech")?)?,
            delay_weight,
            budget,
            seed: uint_field("seed")?,
        })
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job (idempotent on the derived id).
    Submit(JobSpec),
    /// Job table (all jobs, or one id).
    Status {
        /// Restrict to this job, when present.
        id: Option<String>,
    },
    /// Pause a running job (checkpointing it durably first).
    Pause {
        /// The job to pause.
        id: String,
    },
    /// Resume a paused job.
    Resume {
        /// The job to resume.
        id: String,
    },
    /// Cancel a job and remove its on-disk artifacts.
    Cancel {
        /// The job to cancel.
        id: String,
    },
    /// The job's current Pareto frontier, from the live in-memory
    /// archive.
    Frontier {
        /// The job to query.
        id: String,
    },
    /// Manually restart a failed or quarantined job from its last
    /// durable checkpoint, resetting its retry budget.
    Retry {
        /// The job to retry.
        id: String,
    },
    /// Failure details (retry count, pending backoff, reason) for a
    /// failed or quarantined job.
    FailInfo {
        /// The job to query.
        id: String,
    },
    /// Liveness probe.
    Ping,
    /// Checkpoint every running job durably and stop the daemon.
    Shutdown,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed JSON, unknown
    /// commands, or missing/ill-typed fields.
    pub fn parse(line: &str) -> Result<Request, String> {
        let json = parse_json(line)?;
        let cmd = match json.get("cmd") {
            Some(Json::Str(s)) => s.clone(),
            _ => return Err("request must carry a string `cmd`".to_string()),
        };
        let id = || -> Result<String, String> {
            match json.get("id") {
                Some(Json::Str(s)) => Ok(s.clone()),
                _ => Err(format!("`{cmd}` requires a string `id`")),
            }
        };
        match cmd.as_str() {
            "submit" => {
                let job = json.get("job").ok_or("`submit` requires a `job` object")?;
                Ok(Request::Submit(JobSpec::from_json(job)?))
            }
            "status" => Ok(Request::Status {
                id: match json.get("id") {
                    Some(Json::Str(s)) => Some(s.clone()),
                    None => None,
                    Some(_) => return Err("`status` id must be a string".to_string()),
                },
            }),
            "pause" => Ok(Request::Pause { id: id()? }),
            "resume" => Ok(Request::Resume { id: id()? }),
            "cancel" => Ok(Request::Cancel { id: id()? }),
            "frontier" => Ok(Request::Frontier { id: id()? }),
            "retry" => Ok(Request::Retry { id: id()? }),
            "fail-info" => Ok(Request::FailInfo { id: id()? }),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown cmd `{other}`")),
        }
    }

    /// Renders the request as its wire line (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            Request::Submit(spec) => format!(r#"{{"cmd":"submit","job":{}}}"#, spec.render()),
            Request::Status { id: None } => r#"{"cmd":"status"}"#.to_string(),
            Request::Status { id: Some(id) } => {
                format!(r#"{{"cmd":"status","id":"{}"}}"#, escape(id))
            }
            Request::Pause { id } => format!(r#"{{"cmd":"pause","id":"{}"}}"#, escape(id)),
            Request::Resume { id } => format!(r#"{{"cmd":"resume","id":"{}"}}"#, escape(id)),
            Request::Cancel { id } => format!(r#"{{"cmd":"cancel","id":"{}"}}"#, escape(id)),
            Request::Frontier { id } => format!(r#"{{"cmd":"frontier","id":"{}"}}"#, escape(id)),
            Request::Retry { id } => format!(r#"{{"cmd":"retry","id":"{}"}}"#, escape(id)),
            Request::FailInfo { id } => format!(r#"{{"cmd":"fail-info","id":"{}"}}"#, escape(id)),
            Request::Ping => r#"{"cmd":"ping"}"#.to_string(),
            Request::Shutdown => r#"{"cmd":"shutdown"}"#.to_string(),
        }
    }
}

/// One row of a status response.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// The job id.
    pub id: String,
    /// Lifecycle state: `running`, `paused`, `done`, `failed`, or
    /// `quarantined`.
    pub state: &'static str,
    /// Simulations consumed so far.
    pub sims: usize,
    /// The job's total budget.
    pub budget: usize,
    /// Best scalar cost so far (`null` on the wire before the first
    /// evaluation).
    pub best: f64,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Generic success (pause/resume/cancel/ping/shutdown).
    Ok,
    /// Submit acknowledgement; `existing` flags an idempotent re-submit.
    Submitted {
        /// The derived job id.
        id: String,
        /// Whether the id was already in the table.
        existing: bool,
    },
    /// The job table (or the one requested row).
    Status {
        /// One row per job, in table order.
        jobs: Vec<JobStatus>,
    },
    /// A live frontier snapshot.
    Frontier {
        /// The queried job.
        id: String,
        /// `(area_um2, delay_ns, sims)` per non-dominated point.
        front: Vec<(f64, f64, usize)>,
    },
    /// Failure details of a failed or quarantined job.
    FailInfo {
        /// The queried job.
        id: String,
        /// `failed` or `quarantined`.
        state: &'static str,
        /// Automatic retries consumed so far.
        retries: u32,
        /// Scheduler rounds until the next automatic retry (0 when
        /// none is pending — quarantined, or already due).
        backoff_rounds: u32,
        /// Why the last attempt failed, when known.
        reason: Option<String>,
    },
    /// The request failed; daemon state is unchanged.
    Error {
        /// What went wrong.
        message: String,
    },
    /// The request failed because durable persistence is momentarily
    /// unavailable (a transient IO error); daemon state is unchanged
    /// and the same request will succeed once the brown-out clears.
    /// Carries `"transient": true` on the wire so clients can back off
    /// and retry instead of giving up.
    Transient {
        /// What went wrong.
        message: String,
    },
    /// The daemon shed this request under load; the client should back
    /// off and retry. Carries `"overloaded": true` on the wire so
    /// clients can tell shed load from a rejected request.
    Overloaded {
        /// What limit was hit.
        message: String,
    },
}

impl Response {
    /// Renders the response as its wire line (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            Response::Ok => r#"{"ok":true}"#.to_string(),
            Response::Submitted { id, existing } => format!(
                r#"{{"ok":true,"id":"{}","existing":{existing}}}"#,
                escape(id)
            ),
            Response::Status { jobs } => {
                let rows: Vec<String> = jobs
                    .iter()
                    .map(|j| {
                        let best = if j.best.is_finite() {
                            format!("{:.9}", j.best)
                        } else {
                            "null".to_string()
                        };
                        format!(
                            r#"{{"id":"{}","state":"{}","sims":{},"budget":{},"best":{best}}}"#,
                            escape(&j.id),
                            j.state,
                            j.sims,
                            j.budget
                        )
                    })
                    .collect();
                format!(r#"{{"ok":true,"jobs":[{}]}}"#, rows.join(","))
            }
            Response::Frontier { id, front } => {
                let points: Vec<String> = front
                    .iter()
                    .map(|(area, delay, sims)| {
                        format!(r#"{{"area":{area:.9},"delay":{delay:.9},"sims":{sims}}}"#)
                    })
                    .collect();
                format!(
                    r#"{{"ok":true,"id":"{}","front":[{}]}}"#,
                    escape(id),
                    points.join(",")
                )
            }
            Response::FailInfo {
                id,
                state,
                retries,
                backoff_rounds,
                reason,
            } => {
                let reason = match reason {
                    Some(r) => format!("\"{}\"", escape(r)),
                    None => "null".to_string(),
                };
                format!(
                    r#"{{"ok":true,"id":"{}","state":"{state}","retries":{retries},"backoff_rounds":{backoff_rounds},"reason":{reason}}}"#,
                    escape(id)
                )
            }
            Response::Error { message } => {
                format!(r#"{{"ok":false,"error":"{}"}}"#, escape(message))
            }
            Response::Transient { message } => {
                format!(
                    r#"{{"ok":false,"transient":true,"error":"{}"}}"#,
                    escape(message)
                )
            }
            Response::Overloaded { message } => {
                format!(
                    r#"{{"ok":false,"overloaded":true,"error":"{}"}}"#,
                    escape(message)
                )
            }
        }
    }

    /// A convenience error constructor.
    pub fn error(message: impl Into<String>) -> Response {
        Response::Error {
            message: message.into(),
        }
    }
}

/// Escapes a string for inclusion in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            method: Method::GaNsga2,
            kind: CircuitKind::Adder,
            width: 8,
            tech: TechLibrary::Scaled8nmLike,
            delay_weight: 0.5,
            budget: 48,
            seed: 3,
        }
    }

    #[test]
    fn job_ids_are_stable() {
        assert_eq!(spec().id(), "scaled8nm_adder_w8_gansga2_b48_s3");
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Submit(spec()),
            Request::Status { id: None },
            Request::Status {
                id: Some("x".to_string()),
            },
            Request::Pause {
                id: "a_b".to_string(),
            },
            Request::Resume {
                id: "a_b".to_string(),
            },
            Request::Cancel {
                id: "a_b".to_string(),
            },
            Request::Frontier {
                id: "a_b".to_string(),
            },
            Request::Retry {
                id: "a_b".to_string(),
            },
            Request::FailInfo {
                id: "a_b".to_string(),
            },
            Request::Ping,
            Request::Shutdown,
        ];
        for req in reqs {
            let line = req.render();
            assert_eq!(Request::parse(&line).unwrap(), req, "line: {line}");
        }
    }

    #[test]
    fn submit_defaults_and_rejects() {
        let req = r#"{"cmd":"submit","job":{"method":"sa","kind":"adder","width":8,"tech":"nangate45","budget":30,"seed":1}}"#;
        match Request::parse(req).unwrap() {
            Request::Submit(s) => assert_eq!(s.delay_weight, 0.5),
            other => panic!("unexpected {other:?}"),
        }
        for bad in [
            r#"{"cmd":"submit"}"#,
            r#"{"cmd":"submit","job":{"method":"nope","kind":"adder","width":8,"tech":"nangate45","budget":30,"seed":1}}"#,
            r#"{"cmd":"submit","job":{"method":"sa","kind":"adder","width":8,"tech":"nangate45","budget":0,"seed":1}}"#,
            r#"{"cmd":"pause"}"#,
            r#"{"cmd":"wat"}"#,
            "not json",
        ] {
            assert!(Request::parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn responses_render_expected_shapes() {
        assert_eq!(Response::Ok.render(), r#"{"ok":true}"#);
        let line = Response::Submitted {
            id: "j".to_string(),
            existing: true,
        }
        .render();
        assert_eq!(line, r#"{"ok":true,"id":"j","existing":true}"#);
        let line = Response::Status {
            jobs: vec![JobStatus {
                id: "j".to_string(),
                state: "running",
                sims: 3,
                budget: 30,
                best: f64::INFINITY,
            }],
        }
        .render();
        assert_eq!(
            line,
            r#"{"ok":true,"jobs":[{"id":"j","state":"running","sims":3,"budget":30,"best":null}]}"#
        );
        let parsed = crate::perf::parse_json(&Response::error("boom \"x\"").render()).unwrap();
        assert_eq!(
            parsed.get("error"),
            Some(&Json::Str("boom \"x\"".to_string()))
        );
    }

    #[test]
    fn failure_responses_render_expected_shapes() {
        let line = Response::FailInfo {
            id: "j".to_string(),
            state: "failed",
            retries: 2,
            backoff_rounds: 4,
            reason: Some("panic: boom".to_string()),
        }
        .render();
        assert_eq!(
            line,
            r#"{"ok":true,"id":"j","state":"failed","retries":2,"backoff_rounds":4,"reason":"panic: boom"}"#
        );
        let line = Response::FailInfo {
            id: "j".to_string(),
            state: "quarantined",
            retries: 3,
            backoff_rounds: 0,
            reason: None,
        }
        .render();
        assert_eq!(
            line,
            r#"{"ok":true,"id":"j","state":"quarantined","retries":3,"backoff_rounds":0,"reason":null}"#
        );
        let line = Response::Overloaded {
            message: "scheduler queue full".to_string(),
        }
        .render();
        assert_eq!(
            line,
            r#"{"ok":false,"overloaded":true,"error":"scheduler queue full"}"#
        );
        let parsed = crate::perf::parse_json(&line).unwrap();
        assert_eq!(parsed.get("overloaded"), Some(&Json::Bool(true)));
        let line = Response::Transient {
            message: "disk hiccup".to_string(),
        }
        .render();
        assert_eq!(
            line,
            r#"{"ok":false,"transient":true,"error":"disk hiccup"}"#
        );
        let parsed = crate::perf::parse_json(&line).unwrap();
        assert_eq!(parsed.get("transient"), Some(&Json::Bool(true)));
    }
}
