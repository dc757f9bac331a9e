//! Machine-readable performance reporting for the compute-core benches.
//!
//! `benches/gemm.rs` measures the GEMM kernels and the width-32 VAE
//! training step — against the naive reference kernels, across pool
//! sizes, and per SIMD level — then emits `results/bench_perf.json`
//! through [`PerfReport`] so CI can archive a perf trajectory instead of
//! scraping bench stdout. The schema is validated by [`validate_report`]
//! (also exposed as the `perf_schema` binary), backed by a minimal
//! dependency-free JSON parser — the vendored `serde` is a marker
//! facade, so the wire format is explicit here just like the checkpoint
//! codec. `campaignd`'s wire protocol reads requests through the same
//! parser, which therefore bounds nesting depth ([`MAX_DEPTH`]).

use std::fmt::Write as _;

/// Schema identifier stamped into every report.
///
/// Every number is read against the machine that produced it: the report
/// records the machine's `cpu_cores`, the CPU features it exposes
/// (`cpu_features`) and the SIMD level the kernels actually ran at
/// (`simd_level`, top-level and per timed section — the level *used*,
/// never the one requested), and every timed section records the
/// *effective* parallelism of its timed region (`threads`). A `scaling`
/// section carries the training step's wall-clock 1/2/4/8/16-thread
/// curve, and `simd_scaling` the per-level GEMM/training curves with a
/// recomputable headline (max per-shape speedup over scalar at the best
/// level). On AVX2 hardware the headline is gated ≥2x by
/// `perf_schema --min-simd-speedup`; hosts without AVX2 skip that gate
/// with an explicit label, never silently. Unknown keys are rejected,
/// so a report of an older schema cannot pass for this one.
pub const PERF_SCHEMA: &str = "cv-bench-perf-v4";

/// One GEMM kernel measurement (naive reference vs. compute core).
#[derive(Debug, Clone)]
pub struct GemmPerf {
    /// Kernel variant: `"nn"`, `"nt"`, or `"tn"`.
    pub op: String,
    /// Left rows.
    pub m: usize,
    /// Contraction size.
    pub k: usize,
    /// Right columns.
    pub n: usize,
    /// Naive kernel wall-clock, milliseconds per call.
    pub naive_ms: f64,
    /// Compute-core wall-clock, milliseconds per call.
    pub fast_ms: f64,
    /// Worker-pool threads the fast kernel's timed region dispatched on.
    pub threads: usize,
    /// SIMD level the fast kernel's timed region actually dispatched at
    /// (`"scalar"` or `"avx2"` — `cv_nn::gemm::simd_level()` at
    /// measurement time, never the requested level).
    pub simd_level: &'static str,
}

impl GemmPerf {
    fn gflops(&self, ms: f64) -> f64 {
        if ms <= 0.0 {
            0.0
        } else {
            (2.0 * self.m as f64 * self.k as f64 * self.n as f64) / (ms * 1e6)
        }
    }

    /// GFLOP/s of the naive kernel.
    pub fn gflops_naive(&self) -> f64 {
        self.gflops(self.naive_ms)
    }

    /// GFLOP/s of the compute core.
    pub fn gflops_fast(&self) -> f64 {
        self.gflops(self.fast_ms)
    }
}

/// A naive-vs-fast wall-clock pair for an end-to-end path.
#[derive(Debug, Clone, Copy)]
pub struct AbPerf {
    /// Problem size tag (circuit width).
    pub width: usize,
    /// Reference-path milliseconds.
    pub naive_ms: f64,
    /// Compute-core milliseconds.
    pub fast_ms: f64,
    /// Effective parallelism of the fast path's timed region — the
    /// number of workers that actually ran it, not the pool's nominal
    /// size. A `pool_threads: 1` report can therefore never describe a
    /// pooled run (and vice versa): each section carries its own truth.
    pub threads: usize,
    /// SIMD level the fast path's timed region actually dispatched at.
    pub simd_level: &'static str,
}

impl AbPerf {
    /// naive / fast (1.0 when degenerate).
    pub fn speedup(&self) -> f64 {
        if self.fast_ms <= 0.0 {
            1.0
        } else {
            self.naive_ms / self.fast_ms
        }
    }
}

/// One point of a thread-scaling curve.
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    /// Requested thread count (the chunking the work was split into).
    pub threads: usize,
    /// Workers that actually executed the timed region (pool size; 1
    /// when the dispatch ran inline).
    pub workers: usize,
    /// Measured wall-clock milliseconds.
    pub wall_ms: f64,
}

impl ScalePoint {
    /// Measured wall-clock speedup relative to `baseline_ms`.
    pub fn wall_speedup(&self, baseline_ms: f64) -> f64 {
        if self.wall_ms <= 0.0 {
            1.0
        } else {
            baseline_ms / self.wall_ms
        }
    }
}

/// A wall-clock thread-scaling curve for one end-to-end section.
#[derive(Debug, Clone, Default)]
pub struct ScalingCurve {
    /// Problem size tag (circuit width).
    pub width: usize,
    /// Measured single-thread wall-clock, milliseconds (the curve's
    /// denominator).
    pub baseline_ms: f64,
    /// Measured points, ascending in `threads`.
    pub points: Vec<ScalePoint>,
}

/// One GEMM shape measured at one SIMD level (single thread,
/// order-alternated against the scalar tier of the same shape).
#[derive(Debug, Clone)]
pub struct SimdShapePerf {
    /// Kernel variant: `"nn"`, `"nt"`, or `"tn"`.
    pub op: String,
    /// Left rows.
    pub m: usize,
    /// Contraction size.
    pub k: usize,
    /// Right columns.
    pub n: usize,
    /// Wall-clock milliseconds per call at this level.
    pub ms: f64,
    /// Median of per-pair `scalar_ms / level_ms` ratios (the PR 5/6
    /// order-alternated A/B methodology); 1.0 for the scalar row itself.
    pub speedup_vs_scalar: f64,
}

impl SimdShapePerf {
    /// GFLOP/s at this level.
    pub fn gflops(&self) -> f64 {
        if self.ms <= 0.0 {
            0.0
        } else {
            (2.0 * self.m as f64 * self.k as f64 * self.n as f64) / (self.ms * 1e6)
        }
    }
}

/// All measurements for one SIMD level.
#[derive(Debug, Clone)]
pub struct SimdLevelPerf {
    /// The level (`"scalar"` or `"avx2"`).
    pub level: String,
    /// Per-shape GEMM measurements.
    pub gemm: Vec<SimdShapePerf>,
    /// Width-32 training-step milliseconds at this level.
    pub training_ms: f64,
    /// Median per-pair training-step speedup vs the scalar tier.
    pub training_speedup_vs_scalar: f64,
}

/// The headline claim of the `simd_scaling` section: the single best
/// per-shape GEMM speedup over scalar across all measured non-scalar
/// levels (recomputed by the validator, gated by
/// `perf_schema --min-simd-speedup` on AVX2 hosts).
#[derive(Debug, Clone)]
pub struct SimdHeadline {
    /// Level the headline shape ran at.
    pub level: String,
    /// Kernel variant of the headline shape.
    pub op: String,
    /// Headline shape dimensions.
    pub m: usize,
    /// Contraction size.
    pub k: usize,
    /// Right columns.
    pub n: usize,
    /// The headline `speedup_vs_scalar`.
    pub speedup: f64,
}

/// The SIMD scaling section of a report.
#[derive(Debug, Clone)]
pub struct SimdScaling {
    /// Per-level curves, ascending in capability; always includes the
    /// `"scalar"` baseline row.
    pub levels: Vec<SimdLevelPerf>,
    /// The best per-shape speedup (see [`SimdHeadline`]); `None`
    /// only when scalar was the only measurable level.
    pub headline: Option<SimdHeadline>,
}

impl SimdScaling {
    /// Recomputes the headline from the per-level shape tables: the
    /// maximum `speedup_vs_scalar` over every non-scalar level × shape.
    pub fn computed_headline(&self) -> Option<SimdHeadline> {
        let mut best: Option<SimdHeadline> = None;
        for lvl in self.levels.iter().filter(|l| l.level != "scalar") {
            for g in &lvl.gemm {
                if best
                    .as_ref()
                    .map_or(true, |b| g.speedup_vs_scalar > b.speedup)
                {
                    best = Some(SimdHeadline {
                        level: lvl.level.clone(),
                        op: g.op.clone(),
                        m: g.m,
                        k: g.k,
                        n: g.n,
                        speedup: g.speedup_vs_scalar,
                    });
                }
            }
        }
        best
    }
}

/// The full bench report serialized to `results/bench_perf.json`.
#[derive(Debug, Clone, Default)]
pub struct PerfReport {
    /// Worker-pool size the benches ran with (`CV_POOL_THREADS` or the
    /// machine's available parallelism).
    pub pool_threads: usize,
    /// CPU cores actually available to this process — the context every
    /// wall-clock number in the report must be read against.
    pub cpu_cores: usize,
    /// The SIMD level the kernels dispatched at for the non-`simd_scaling`
    /// sections (`cv_nn::gemm::simd_level()` — the level used, not the
    /// one requested).
    pub simd_level: String,
    /// Dispatch-relevant CPU features the machine reports
    /// (`cv_nn::gemm::cpu_features()`), so a reader can tell a
    /// scalar-because-old-CPU report from a scalar-because-overridden
    /// one.
    pub cpu_features: Vec<String>,
    /// GEMM kernel measurements.
    pub gemm: Vec<GemmPerf>,
    /// Width-32 VAE training-step A/B.
    pub training_step: Option<AbPerf>,
    /// Training-step thread-scaling curve (1/2/4/8/16).
    pub training_scaling: Option<ScalingCurve>,
    /// SIMD level scaling (scalar/avx2 curves).
    pub simd_scaling: Option<SimdScaling>,
    /// Incremental-evaluation speedup (the `incremental` bench's gate
    /// quantity), when measured.
    pub incremental_speedup: Option<f64>,
}

fn push_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:.6}");
    } else {
        out.push_str("null");
    }
}

impl PerfReport {
    /// Serializes the report to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": \"{PERF_SCHEMA}\",");
        let _ = writeln!(s, "  \"pool_threads\": {},", self.pool_threads);
        let _ = writeln!(s, "  \"cpu_cores\": {},", self.cpu_cores);
        let _ = writeln!(s, "  \"simd_level\": \"{}\",", self.simd_level);
        s.push_str("  \"cpu_features\": [");
        for (i, f) in self.cpu_features.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{f}\"");
        }
        s.push_str("],\n");
        s.push_str("  \"gemm\": [\n");
        for (i, g) in self.gemm.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"op\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \"threads\": {}, \"simd_level\": \"{}\", \"naive_ms\": ",
                g.op, g.m, g.k, g.n, g.threads, g.simd_level
            );
            push_num(&mut s, g.naive_ms);
            s.push_str(", \"fast_ms\": ");
            push_num(&mut s, g.fast_ms);
            s.push_str(", \"gflops_naive\": ");
            push_num(&mut s, g.gflops_naive());
            s.push_str(", \"gflops_fast\": ");
            push_num(&mut s, g.gflops_fast());
            s.push_str(", \"speedup\": ");
            push_num(
                &mut s,
                if g.fast_ms > 0.0 {
                    g.naive_ms / g.fast_ms
                } else {
                    1.0
                },
            );
            s.push('}');
            s.push_str(if i + 1 < self.gemm.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ],\n");
        match &self.training_step {
            Some(ab) => {
                let _ = write!(
                    s,
                    "  \"training_step\": {{\"width\": {}, \"threads\": {}, \"simd_level\": \"{}\", \"naive_ms\": ",
                    ab.width, ab.threads, ab.simd_level
                );
                push_num(&mut s, ab.naive_ms);
                s.push_str(", \"fast_ms\": ");
                push_num(&mut s, ab.fast_ms);
                s.push_str(", \"speedup\": ");
                push_num(&mut s, ab.speedup());
                s.push_str("},\n");
            }
            None => s.push_str("  \"training_step\": null,\n"),
        }
        s.push_str("  \"scaling\": {\"training_step\": ");
        match &self.training_scaling {
            Some(c) => {
                let _ = write!(s, "{{\"width\": {}, \"baseline_ms\": ", c.width);
                push_num(&mut s, c.baseline_ms);
                s.push_str(", \"points\": [\n");
                for (j, p) in c.points.iter().enumerate() {
                    let _ = write!(
                        s,
                        "    {{\"threads\": {}, \"workers\": {}, \"wall_ms\": ",
                        p.threads, p.workers
                    );
                    push_num(&mut s, p.wall_ms);
                    s.push_str(", \"wall_speedup\": ");
                    push_num(&mut s, p.wall_speedup(c.baseline_ms));
                    s.push('}');
                    s.push_str(if j + 1 < c.points.len() { ",\n" } else { "\n" });
                }
                s.push_str("  ]}");
            }
            None => s.push_str("null"),
        }
        s.push_str("},\n");
        s.push_str("  \"simd_scaling\": ");
        match &self.simd_scaling {
            Some(sc) => {
                s.push_str("{\n    \"levels\": [\n");
                for (i, lvl) in sc.levels.iter().enumerate() {
                    let _ = writeln!(s, "      {{\"level\": \"{}\", \"gemm\": [", lvl.level);
                    for (j, g) in lvl.gemm.iter().enumerate() {
                        let _ = write!(
                            s,
                            "        {{\"op\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \"ms\": ",
                            g.op, g.m, g.k, g.n
                        );
                        push_num(&mut s, g.ms);
                        s.push_str(", \"gflops\": ");
                        push_num(&mut s, g.gflops());
                        s.push_str(", \"speedup_vs_scalar\": ");
                        push_num(&mut s, g.speedup_vs_scalar);
                        s.push('}');
                        s.push_str(if j + 1 < lvl.gemm.len() { ",\n" } else { "\n" });
                    }
                    s.push_str("      ], \"training_ms\": ");
                    push_num(&mut s, lvl.training_ms);
                    s.push_str(", \"training_speedup_vs_scalar\": ");
                    push_num(&mut s, lvl.training_speedup_vs_scalar);
                    s.push('}');
                    s.push_str(if i + 1 < sc.levels.len() { ",\n" } else { "\n" });
                }
                s.push_str("    ],\n    \"headline\": ");
                match &sc.headline {
                    Some(h) => {
                        let _ = write!(
                            s,
                            "{{\"level\": \"{}\", \"op\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \"speedup\": ",
                            h.level, h.op, h.m, h.k, h.n
                        );
                        push_num(&mut s, h.speedup);
                        s.push('}');
                    }
                    None => s.push_str("null"),
                }
                s.push_str("\n  },\n");
            }
            None => s.push_str("null,\n"),
        }
        s.push_str("  \"incremental_speedup\": ");
        match self.incremental_speedup {
            Some(v) => push_num(&mut s, v),
            None => s.push_str("null"),
        }
        s.push_str("\n}\n");
        s
    }

    /// Writes the validated report to `path` (creating parent dirs).
    ///
    /// # Panics
    ///
    /// Panics if the serialized report fails its own schema check or the
    /// file cannot be written — both are bench-infrastructure bugs that
    /// must fail loudly in CI.
    pub fn write(&self, path: &std::path::Path) {
        let json = self.to_json();
        validate_report(&json).expect("generated report must satisfy its own schema");
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("results dir must be creatable");
        }
        std::fs::write(path, json).expect("bench_perf.json must be writable");
    }
}

// ---------------------------------------------------------------------
// Minimal JSON parsing + schema validation
// ---------------------------------------------------------------------

/// A parsed JSON value (just enough structure for schema checks).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// The deepest array/object nesting [`parse_json`] accepts. Wire
/// requests nest two levels and `bench_perf.json` about five; the bound
/// keeps the recursive parser's stack use constant, so a hostile line
/// of brackets gets an error instead of overflowing a connection
/// thread's stack.
pub const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek()? == c {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            // Copy unescaped runs as str slices: '"' and '\\' are ASCII,
            // so the run boundaries always fall on UTF-8 char boundaries
            // and multi-byte content survives intact.
            let start = self.pos;
            while let Some(&c) = self.bytes.get(self.pos) {
                if c == b'"' || c == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(&self.text[start..self.pos]);
            let c = *self
                .bytes
                .get(self.pos)
                .ok_or("unterminated string".to_string())?;
            self.pos += 1;
            match c {
                b'"' => return Ok(s),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or("unterminated escape".to_string())?;
                    self.pos += 1;
                    s.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        other => return Err(format!("unsupported escape '\\{}'", other as char)),
                    });
                }
                other => return Err(format!("unexpected byte {other} in string")),
            }
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'n' => self.literal("null", Json::Null),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'"' => Ok(Json::Str(self.string()?)),
            open @ (b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            _ => self.number(),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', got '{}'", other as char)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            let val = self.value()?;
            members.push((key, val));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                other => return Err(format!("expected ',' or '}}', got '{}'", other as char)),
            }
        }
    }

    /// Scans a number following the JSON grammar exactly:
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    ///
    /// A permissive scanner here once accepted any soup of sign/digit/
    /// dot/exponent bytes (`+5`, `.5`, `5.`, `01`, `1e`), so a
    /// malformed `bench_perf.json` could parse to a garbage float and
    /// sail through validation; now every non-grammar number is a
    /// syntax error.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let digits = |p: &mut Self| {
            let from = p.pos;
            while p.bytes.get(p.pos).is_some_and(u8::is_ascii_digit) {
                p.pos += 1;
            }
            p.pos > from
        };
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        // Integer part: a lone 0, or a nonzero digit run (no leading
        // zeros, no bare sign).
        match self.bytes.get(self.pos) {
            Some(b'0') => self.pos += 1,
            Some(c) if c.is_ascii_digit() => {
                digits(self);
            }
            _ => return Err(format!("invalid number at byte {start}")),
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(format!(
                    "invalid number at byte {start}: fraction needs digits"
                ));
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(format!(
                    "invalid number at byte {start}: exponent needs digits"
                ));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("invalid number at byte {start}: {e}"))
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a description of the first syntax error, or of the first
/// array/object nested deeper than [`MAX_DEPTH`].
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

fn require_num(obj: &Json, key: &str, ctx: &str) -> Result<f64, String> {
    match obj.get(key) {
        Some(Json::Num(v)) => Ok(*v),
        other => Err(format!("{ctx}.{key}: expected number, got {other:?}")),
    }
}

/// The SIMD level names a report may record.
const SIMD_LEVELS: [&str; 2] = ["scalar", "avx2"];

/// Rejects any member of object `v` whose key is not in `allowed`.
fn only_keys(v: &Json, allowed: &[&str], ctx: &str) -> Result<(), String> {
    if let Json::Obj(members) = v {
        if let Some((key, _)) = members.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
            return Err(format!("{ctx}: unknown key \"{key}\""));
        }
    }
    Ok(())
}

fn require_simd_level(obj: &Json, key: &str, ctx: &str) -> Result<String, String> {
    match obj.get(key) {
        Some(Json::Str(s)) if SIMD_LEVELS.contains(&s.as_str()) => Ok(s.clone()),
        other => Err(format!(
            "{ctx}.{key}: expected one of {SIMD_LEVELS:?}, got {other:?}"
        )),
    }
}

fn check_ab(v: &Json, ctx: &str) -> Result<(), String> {
    match v {
        Json::Null => Ok(()),
        Json::Obj(_) => {
            require_num(v, "width", ctx)?;
            require_num(v, "threads", ctx)?;
            require_simd_level(v, "simd_level", ctx)?;
            require_num(v, "naive_ms", ctx)?;
            require_num(v, "fast_ms", ctx)?;
            require_num(v, "speedup", ctx)?;
            Ok(())
        }
        other => Err(format!("{ctx}: expected object or null, got {other:?}")),
    }
}

/// Validates the `simd_scaling` section and recomputes its headline
/// against the per-level tables, so the number the CI gate reads can
/// never drift from the measurements backing it. `has_avx2` is whether
/// the report's `cpu_features` lists `avx2`: such a machine must have
/// measured an `avx2` level (a silently narrower matrix would make the
/// headline gate vacuous).
fn check_simd_scaling(v: &Json, has_avx2: bool) -> Result<(), String> {
    let ctx = "simd_scaling";
    match v {
        Json::Null => Ok(()),
        Json::Obj(_) => {
            let levels = match v.get("levels") {
                Some(Json::Arr(levels)) if !levels.is_empty() => levels,
                other => {
                    return Err(format!(
                        "{ctx}.levels: expected non-empty array, got {other:?}"
                    ))
                }
            };
            let mut names = Vec::new();
            let mut best: Option<f64> = None;
            for (i, lvl) in levels.iter().enumerate() {
                let lctx = format!("{ctx}.levels[{i}]");
                let name = require_simd_level(lvl, "level", &lctx)?;
                if names.contains(&name) {
                    return Err(format!("{lctx}.level: duplicate \"{name}\""));
                }
                let gemm = match lvl.get("gemm") {
                    Some(Json::Arr(gemm)) if !gemm.is_empty() => gemm,
                    other => {
                        return Err(format!(
                            "{lctx}.gemm: expected non-empty array, got {other:?}"
                        ))
                    }
                };
                for (j, g) in gemm.iter().enumerate() {
                    let gctx = format!("{lctx}.gemm[{j}]");
                    match g.get("op") {
                        Some(Json::Str(op)) if matches!(op.as_str(), "nn" | "nt" | "tn") => {}
                        other => {
                            return Err(format!("{gctx}.op: expected nn|nt|tn, got {other:?}"))
                        }
                    }
                    for key in ["m", "k", "n", "ms", "gflops", "speedup_vs_scalar"] {
                        require_num(g, key, &gctx)?;
                    }
                    if name != "scalar" {
                        let s = require_num(g, "speedup_vs_scalar", &gctx)?;
                        if best.map_or(true, |b| s > b) {
                            best = Some(s);
                        }
                    }
                }
                require_num(lvl, "training_ms", &lctx)?;
                require_num(lvl, "training_speedup_vs_scalar", &lctx)?;
                names.push(name);
            }
            if !names.iter().any(|n| n == "scalar") {
                return Err(format!("{ctx}.levels: missing the \"scalar\" baseline"));
            }
            if has_avx2 && !names.iter().any(|n| n == "avx2") {
                return Err(format!(
                    "{ctx}.levels: cpu_features reports avx2 but no avx2 level was measured"
                ));
            }
            match (v.get("headline"), best) {
                (Some(Json::Null) | None, None) => Ok(()),
                (Some(Json::Null) | None, Some(_)) => Err(format!(
                    "{ctx}.headline: null although non-scalar levels were measured"
                )),
                (Some(h @ Json::Obj(_)), best) => {
                    require_simd_level(h, "level", &format!("{ctx}.headline"))?;
                    match h.get("op") {
                        Some(Json::Str(op)) if matches!(op.as_str(), "nn" | "nt" | "tn") => {}
                        other => {
                            return Err(format!(
                                "{ctx}.headline.op: expected nn|nt|tn, got {other:?}"
                            ))
                        }
                    }
                    for key in ["m", "k", "n"] {
                        require_num(h, key, &format!("{ctx}.headline"))?;
                    }
                    let claimed = require_num(h, "speedup", &format!("{ctx}.headline"))?;
                    let Some(best) = best else {
                        return Err(format!(
                            "{ctx}.headline: present although only scalar was measured"
                        ));
                    };
                    // Serialized at 6 decimals; recompute with matching
                    // tolerance.
                    if (claimed - best).abs() > 1e-5 {
                        return Err(format!(
                            "{ctx}.headline.speedup: claims {claimed} but the level tables \
                             support {best}"
                        ));
                    }
                    Ok(())
                }
                (other, _) => Err(format!(
                    "{ctx}.headline: expected object or null, got {other:?}"
                )),
            }
        }
        other => Err(format!("{ctx}: expected object or null, got {other:?}")),
    }
}

/// The SIMD headline speedup an already-parsed report claims (`simd_scaling.headline.speedup`), or `None` when the section
/// or headline is absent.
pub fn simd_headline_speedup(doc: &Json) -> Option<f64> {
    match doc.get("simd_scaling")?.get("headline")?.get("speedup") {
        Some(Json::Num(v)) => Some(*v),
        _ => None,
    }
}

/// Whether an already-parsed report's `cpu_features` lists `feature`.
pub fn report_has_cpu_feature(doc: &Json, feature: &str) -> bool {
    match doc.get("cpu_features") {
        Some(Json::Arr(items)) => items
            .iter()
            .any(|f| matches!(f, Json::Str(s) if s == feature)),
        _ => false,
    }
}

fn check_curve(v: &Json, ctx: &str) -> Result<(), String> {
    match v {
        Json::Null => Ok(()),
        Json::Obj(_) => {
            require_num(v, "width", ctx)?;
            require_num(v, "baseline_ms", ctx)?;
            let points = match v.get("points") {
                Some(Json::Arr(points)) if !points.is_empty() => points,
                other => {
                    return Err(format!(
                        "{ctx}.points: expected non-empty array, got {other:?}"
                    ))
                }
            };
            const POINT_KEYS: [&str; 4] = ["threads", "workers", "wall_ms", "wall_speedup"];
            for (i, p) in points.iter().enumerate() {
                let pctx = format!("{ctx}.points[{i}]");
                for key in POINT_KEYS {
                    require_num(p, key, &pctx)?;
                }
                only_keys(p, &POINT_KEYS, &pctx)?;
            }
            Ok(())
        }
        other => Err(format!("{ctx}: expected object or null, got {other:?}")),
    }
}

/// Validates a `bench_perf.json` document against the
/// [`PERF_SCHEMA`] shape.
///
/// # Errors
///
/// Returns a description of the first schema violation.
pub fn validate_report(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    match doc.get("schema") {
        Some(Json::Str(s)) if s == PERF_SCHEMA => {}
        other => return Err(format!("schema: expected \"{PERF_SCHEMA}\", got {other:?}")),
    }
    only_keys(
        &doc,
        &[
            "schema",
            "pool_threads",
            "cpu_cores",
            "simd_level",
            "cpu_features",
            "gemm",
            "training_step",
            "scaling",
            "simd_scaling",
            "incremental_speedup",
        ],
        "report",
    )?;
    let threads = require_num(&doc, "pool_threads", "report")?;
    if threads < 1.0 {
        return Err("pool_threads: must be >= 1".to_string());
    }
    let cores = require_num(&doc, "cpu_cores", "report")?;
    if cores < 1.0 {
        return Err("cpu_cores: must be >= 1".to_string());
    }
    require_simd_level(&doc, "simd_level", "report")?;
    let has_avx2 = match doc.get("cpu_features") {
        Some(Json::Arr(items)) => {
            for (i, f) in items.iter().enumerate() {
                if !matches!(f, Json::Str(_)) {
                    return Err(format!("cpu_features[{i}]: expected string, got {f:?}"));
                }
            }
            report_has_cpu_feature(&doc, "avx2")
        }
        other => return Err(format!("cpu_features: expected array, got {other:?}")),
    };
    match doc.get("gemm") {
        Some(Json::Arr(items)) => {
            if items.is_empty() {
                return Err("gemm: at least one kernel measurement required".to_string());
            }
            for (i, item) in items.iter().enumerate() {
                let ctx = format!("gemm[{i}]");
                match item.get("op") {
                    Some(Json::Str(op)) if matches!(op.as_str(), "nn" | "nt" | "tn") => {}
                    other => return Err(format!("{ctx}.op: expected nn|nt|tn, got {other:?}")),
                }
                require_simd_level(item, "simd_level", &ctx)?;
                for key in [
                    "m",
                    "k",
                    "n",
                    "threads",
                    "naive_ms",
                    "fast_ms",
                    "gflops_naive",
                    "gflops_fast",
                    "speedup",
                ] {
                    require_num(item, key, &ctx)?;
                }
            }
        }
        other => return Err(format!("gemm: expected array, got {other:?}")),
    }
    check_ab(
        doc.get("training_step").unwrap_or(&Json::Null),
        "training_step",
    )?;
    match doc.get("scaling") {
        Some(scaling @ Json::Obj(_)) => {
            only_keys(scaling, &["training_step"], "scaling")?;
            check_curve(
                scaling.get("training_step").unwrap_or(&Json::Null),
                "scaling.training_step",
            )?;
        }
        other => return Err(format!("scaling: expected object, got {other:?}")),
    }
    check_simd_scaling(doc.get("simd_scaling").unwrap_or(&Json::Null), has_avx2)?;
    match doc.get("incremental_speedup") {
        Some(Json::Null) | Some(Json::Num(_)) => {}
        other => {
            return Err(format!(
                "incremental_speedup: expected number or null, got {other:?}"
            ))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PerfReport {
        PerfReport {
            pool_threads: 4,
            cpu_cores: 2,
            simd_level: "avx2".into(),
            cpu_features: vec!["sse2".into(), "avx".into(), "avx2".into()],
            gemm: vec![GemmPerf {
                op: "nn".into(),
                m: 64,
                k: 768,
                n: 128,
                naive_ms: 10.0,
                fast_ms: 2.5,
                threads: 4,
                simd_level: "avx2",
            }],
            training_step: Some(AbPerf {
                width: 32,
                naive_ms: 500.0,
                fast_ms: 100.0,
                threads: 1,
                simd_level: "avx2",
            }),
            training_scaling: Some(ScalingCurve {
                width: 32,
                baseline_ms: 80.0,
                points: vec![
                    ScalePoint {
                        threads: 1,
                        workers: 1,
                        wall_ms: 80.0,
                    },
                    ScalePoint {
                        threads: 2,
                        workers: 2,
                        wall_ms: 40.0,
                    },
                ],
            }),
            simd_scaling: Some(SimdScaling {
                levels: vec![
                    SimdLevelPerf {
                        level: "scalar".into(),
                        gemm: vec![SimdShapePerf {
                            op: "nn".into(),
                            m: 64,
                            k: 768,
                            n: 128,
                            ms: 0.8,
                            speedup_vs_scalar: 1.0,
                        }],
                        training_ms: 120.0,
                        training_speedup_vs_scalar: 1.0,
                    },
                    SimdLevelPerf {
                        level: "avx2".into(),
                        gemm: vec![SimdShapePerf {
                            op: "nn".into(),
                            m: 64,
                            k: 768,
                            n: 128,
                            ms: 0.32,
                            speedup_vs_scalar: 2.5,
                        }],
                        training_ms: 60.0,
                        training_speedup_vs_scalar: 2.0,
                    },
                ],
                headline: Some(SimdHeadline {
                    level: "avx2".into(),
                    op: "nn".into(),
                    m: 64,
                    k: 768,
                    n: 128,
                    speedup: 2.5,
                }),
            }),
            incremental_speedup: Some(5.1),
        }
    }

    #[test]
    fn report_roundtrips_through_its_own_validator() {
        let json = sample().to_json();
        validate_report(&json).expect("self-produced report must validate");
        let doc = parse_json(&json).unwrap();
        assert_eq!(doc.get("schema"), Some(&Json::Str(PERF_SCHEMA.into())));
        assert_eq!(doc.get("cpu_cores"), Some(&Json::Num(2.0)));
        let ts = doc.get("training_step").unwrap();
        assert_eq!(ts.get("speedup"), Some(&Json::Num(5.0)));
        assert_eq!(ts.get("threads"), Some(&Json::Num(1.0)));
        let points = doc
            .get("scaling")
            .and_then(|s| s.get("training_step"))
            .and_then(|c| c.get("points"));
        let Some(Json::Arr(points)) = points else {
            panic!("missing scaling points: {points:?}");
        };
        assert_eq!(points[1].get("wall_speedup"), Some(&Json::Num(2.0)));
        let mut report = sample();
        report.training_scaling = None;
        validate_report(&report.to_json()).expect("a null curve validates");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_report("{").is_err());
        assert!(validate_report("{}").is_err());
        assert!(validate_report(r#"{"schema": "wrong"}"#).is_err());
        // Right schema marker but an empty gemm section.
        let bad = format!(
            r#"{{"schema": "{PERF_SCHEMA}", "pool_threads": 1, "cpu_cores": 1,
                "simd_level": "scalar", "cpu_features": [], "gemm": [],
                "training_step": null, "scaling": {{"training_step": null}},
                "simd_scaling": null, "incremental_speedup": null}}"#
        );
        assert!(validate_report(&bad).unwrap_err().contains("gemm"));
        // A gemm entry with a missing field.
        let bad = format!(
            r#"{{"schema": "{PERF_SCHEMA}", "pool_threads": 2, "cpu_cores": 1,
                "simd_level": "scalar", "cpu_features": [],
                "gemm": [{{"op": "nn", "simd_level": "scalar", "m": 1, "k": 2, "n": 3}}],
                "training_step": null, "scaling": {{"training_step": null}},
                "simd_scaling": null, "incremental_speedup": null}}"#
        );
        assert!(validate_report(&bad).unwrap_err().contains("threads"));
        // Thread honesty: cpu_cores and the scaling section are mandatory.
        let mut report = sample().to_json();
        report = report.replacen("  \"cpu_cores\": 2,\n", "", 1);
        assert!(validate_report(&report).unwrap_err().contains("cpu_cores"));
        let mut report = sample().to_json();
        let start = report.find("  \"scaling\": {").unwrap();
        let end = report.find("  \"incremental_speedup\"").unwrap();
        report.replace_range(start..end, "");
        assert!(validate_report(&report).unwrap_err().contains("scaling"));
        // v3-shaped content under the current schema marker: an sse2
        // level, the retired batch sections, a scaling-point basis.
        let v3 = sample().to_json().replacen(
            "\"level\": \"avx2\", \"gemm\"",
            "\"level\": \"sse2\", \"gemm\"",
            1,
        );
        assert!(validate_report(&v3).unwrap_err().contains("sse2"));
        let v3 = sample().to_json().replacen(
            "  \"training_step\":",
            "  \"evaluate_batch\": null,\n  \"training_step\":",
            1,
        );
        assert!(validate_report(&v3).unwrap_err().contains("evaluate_batch"));
        let v3 = sample().to_json().replacen(
            "\"scaling\": {\"training_step\"",
            "\"scaling\": {\"evaluate_batch\": null, \"training_step\"",
            1,
        );
        assert!(validate_report(&v3).unwrap_err().contains("evaluate_batch"));
        let v3 = sample().to_json().replacen(
            "\"wall_speedup\": 2.000000}",
            "\"wall_speedup\": 2.000000, \"basis\": \"wall\"}",
            1,
        );
        assert!(validate_report(&v3).unwrap_err().contains("basis"));
        let v3 = sample()
            .to_json()
            .replacen(PERF_SCHEMA, "cv-bench-perf-v3", 1);
        assert!(validate_report(&v3).unwrap_err().contains("schema"));
    }

    #[test]
    fn v3_simd_fields_are_required_and_cross_checked() {
        // The top-level SIMD level must be a recognized name.
        let bad = sample().to_json().replacen(
            "\"simd_level\": \"avx2\",\n",
            "\"simd_level\": \"avx512\",\n",
            1,
        );
        assert!(validate_report(&bad).unwrap_err().contains("simd_level"));
        // A headline that drifts from the level tables is rejected: the
        // gate quantity must be recomputable from the measurements.
        let drifted =
            sample()
                .to_json()
                .replacen("\"speedup\": 2.500000}", "\"speedup\": 9.000000}", 1);
        let err = validate_report(&drifted).unwrap_err();
        assert!(err.contains("headline"), "got: {err}");
        // A machine reporting avx2 cannot commit a simd_scaling section
        // that quietly skipped the avx2 leg.
        let mut report = sample();
        report.simd_scaling.as_mut().unwrap().levels.pop();
        report.simd_scaling.as_mut().unwrap().headline = None;
        let err = validate_report(&report.to_json()).unwrap_err();
        assert!(err.contains("avx2"), "got: {err}");
        // ...but the same section is fine on a machine without avx2.
        report.cpu_features = vec!["sse2".into()];
        report.simd_level = "scalar".into();
        validate_report(&report.to_json()).expect("scalar-only section on a non-avx2 host");
        // A non-scalar measurement with a null headline is dishonest.
        let mut report = sample();
        report.simd_scaling.as_mut().unwrap().headline = None;
        let err = validate_report(&report.to_json()).unwrap_err();
        assert!(err.contains("headline"), "got: {err}");
    }

    #[test]
    fn simd_headline_helpers_read_the_committed_shape() {
        let json = sample().to_json();
        let doc = parse_json(&json).unwrap();
        assert_eq!(simd_headline_speedup(&doc), Some(2.5));
        assert!(report_has_cpu_feature(&doc, "avx2"));
        assert!(!report_has_cpu_feature(&doc, "avx512f"));
        assert_eq!(
            sample()
                .simd_scaling
                .unwrap()
                .computed_headline()
                .unwrap()
                .speedup,
            2.5
        );
    }

    /// Satellite guard: `results/bench_perf.json` is a committed artifact
    /// (ROADMAP requires the perf trajectory to live in-tree). A deleted
    /// or stale-schema file must fail `cargo test`, not just the CI
    /// perf-smoke job.
    #[test]
    fn committed_perf_report_exists_and_validates() {
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/bench_perf.json");
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "results/bench_perf.json missing or unreadable ({e}); \
                 regenerate it with `cargo bench --bench gemm` and commit it"
            )
        });
        validate_report(&text).expect("committed bench_perf.json violates the current schema");
    }

    #[test]
    fn parser_handles_nesting_and_escapes() {
        let doc = parse_json(r#"{"a": [1, -2.5e1, "x\ny"], "b": {"c": true}}"#).unwrap();
        assert_eq!(
            doc.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-25.0),
                Json::Str("x\ny".into())
            ]))
        );
        assert_eq!(doc.get("b").unwrap().get("c"), Some(&Json::Bool(true)));
        // Multi-byte UTF-8 survives intact (strings are copied as str
        // slices between ASCII delimiters, never byte-by-byte).
        let doc = parse_json(r#"{"unit": "µs → ναι"}"#).unwrap();
        assert_eq!(doc.get("unit"), Some(&Json::Str("µs → ναι".into())));
        assert!(parse_json("[1, 2,]").is_err());
        assert!(parse_json("{} garbage").is_err());
        // Nesting is bounded: MAX_DEPTH levels parse, and a hostile
        // bracket run is an error, not a stack overflow.
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&deepest).is_ok());
        let too_deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse_json(&too_deep).unwrap_err().contains("nesting"));
        for hostile in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            assert!(parse_json(&hostile).unwrap_err().contains("nesting"));
        }
    }

    #[test]
    fn number_scanner_follows_the_json_grammar() {
        // Everything the grammar admits parses to the exact float.
        for (text, expect) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("42", 42.0),
            ("-17", -17.0),
            ("0.5", 0.5),
            ("-0.125", -0.125),
            ("6.65", 6.65),
            ("1e3", 1000.0),
            ("2E-2", 0.02),
            ("1.5e+2", 150.0),
            ("10.25e1", 102.5),
        ] {
            assert_eq!(parse_json(text).unwrap(), Json::Num(expect), "{text}");
        }
        // Non-grammar soups the old scanner let `f64::parse` bless (or
        // garble) must now be syntax errors: a malformed
        // bench_perf.json fails validation instead of parsing to a
        // garbage float.
        for text in [
            "+5",    // leading plus
            ".5",    // no integer part
            "5.",    // dangling fraction dot
            "01",    // leading zero
            "-01",   // leading zero, signed
            "--5",   // double sign
            "1.2.3", // two dots
            "1e",    // empty exponent
            "1e+",   // signed empty exponent
            "1.e3",  // fraction dot without digits
            "-",     // bare sign
            "1d",    // trailing junk
            "0x10",  // hex is not JSON
            "NaN",   // f64::parse would accept this
            "inf",   // …and this
        ] {
            assert!(parse_json(text).is_err(), "`{text}` must be rejected");
            // Inside a structure, too (the scanner must not silently
            // stop early and leave the garbage to the container rules).
            let nested = format!(r#"{{"v": [{text}]}}"#);
            assert!(parse_json(&nested).is_err(), "`{nested}` must be rejected");
        }
        // Numbers terminate cleanly at structural delimiters.
        let doc = parse_json(r#"{"a":[1,2.5e0,-3],"b":0}"#).unwrap();
        assert_eq!(
            doc.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2.5),
                Json::Num(-3.0)
            ]))
        );
    }

    #[test]
    fn speedup_and_gflops_are_consistent() {
        let g = sample().gemm[0].clone();
        assert!((g.gflops_fast() / g.gflops_naive() - 4.0).abs() < 1e-9);
        let ab = sample().training_step.unwrap();
        assert_eq!(ab.speedup(), 5.0);
    }
}
