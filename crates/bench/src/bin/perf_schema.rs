//! Validates `results/bench_perf.json` against the cv-bench perf
//! schema, optionally gating on what the report *claims*. CI runs this
//! right after the `gemm` bench so a malformed or missing report fails
//! the job instead of silently uploading garbage, and again with gates
//! so a report that quietly lost its pool size or SIMD speedup fails
//! too.
//!
//! Usage:
//!
//! ```text
//! perf_schema [path]
//!     [--expect-pool-threads N]
//!     [--min-simd-speedup X]
//! ```
//!
//! `path` defaults to `results/bench_perf.json`.
//! `--expect-pool-threads` asserts the report's `pool_threads` field.
//! `--min-simd-speedup X` asserts the SIMD headline
//! (`simd_scaling.headline.speedup`, already cross-checked against the
//! per-level tables by the validator) is at least `X` — but only when
//! the report's `cpu_features` lists `avx2`; on other hosts the gate is
//! skipped with an explicit label and exit 0, never silently.

use cv_bench::perf::{
    parse_json, report_has_cpu_feature, simd_headline_speedup, validate_report, Json,
};

fn fail(msg: &str) -> ! {
    eprintln!("perf_schema: {msg}");
    std::process::exit(1);
}

fn main() {
    let mut path = "results/bench_perf.json".to_string();
    let mut expect_pool: Option<usize> = None;
    let mut min_simd: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{flag} requires a value")))
        };
        match arg.as_str() {
            "--expect-pool-threads" => {
                expect_pool = Some(value("--expect-pool-threads").parse().unwrap_or_else(|e| {
                    fail(&format!("--expect-pool-threads: invalid count: {e}"))
                }));
            }
            "--min-simd-speedup" => {
                min_simd = Some(
                    value("--min-simd-speedup")
                        .parse()
                        .unwrap_or_else(|e| fail(&format!("--min-simd-speedup: invalid: {e}"))),
                );
            }
            flag if flag.starts_with("--") => fail(&format!("unknown flag {flag}")),
            p => path = p.to_string(),
        }
    }

    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    if let Err(e) = validate_report(&text) {
        fail(&format!("{path} violates the schema: {e}"));
    }
    let doc = parse_json(&text).expect("validated report parses");

    if let Some(expected) = expect_pool {
        match doc.get("pool_threads") {
            Some(Json::Num(n)) if *n == expected as f64 => {}
            other => fail(&format!(
                "{path}: expected pool_threads {expected}, report says {other:?}"
            )),
        }
    }
    if let Some(min) = min_simd {
        if !report_has_cpu_feature(&doc, "avx2") {
            // Loud, labeled, exit 0: the gate quantifies the AVX2 tier,
            // which this host cannot measure. Never a silent pass.
            println!(
                "perf_schema: SKIPPED --min-simd-speedup {min:.2} — report's cpu_features \
                 has no avx2 (the SIMD headline gate only applies to AVX2 hosts)"
            );
        } else {
            match simd_headline_speedup(&doc) {
                Some(s) if s >= min => {
                    println!("perf_schema: SIMD headline speedup {s:.2}x >= {min:.2}x");
                }
                Some(s) => fail(&format!(
                    "{path}: SIMD headline speedup is {s:.2}x, required >= {min:.2}x"
                )),
                None => fail(&format!(
                    "{path}: cpu_features reports avx2 but the report carries no \
                     simd_scaling headline"
                )),
            }
        }
    }
    println!("perf schema OK: {path}");
}
