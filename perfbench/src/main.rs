//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload solve-gnp --seed 1 --seconds 24 --trace 0
//! ```
//!
//! Runs one workload for `--seconds`, checks every answer, and prints a
//! detail line and then the result line (the last line of stdout). With
//! `--trace 0` the result holds the end-to-end metrics; with `--trace 1`
//! it holds the per-layer metrics, and the spans go to
//! `perfbench/out/trace-<workload>-<seed>.jsonl`. See `README.md`.

#![forbid(unsafe_code)]

mod check;
mod report;
mod serve;
mod solve;
mod sys;
mod trace;

use std::process::ExitCode;

use report::{json_str, Report};
use trace::Tracer;

/// The workload names `--workload` accepts.
pub const WORKLOADS: [&str; 3] = ["solve-gnp", "solve-grid", "serve-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Deterministic query-pair stream (splitmix64): `count` pairs over `n`
/// vertices, a pure function of `key`.
pub fn pairs(key: u64, n: usize, count: usize) -> Vec<(u32, u32)> {
    let mut state = key;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let n = n as u64;
    (0..count)
        .map(|_| {
            let r = next();
            ((r % n) as u32, ((r >> 32) % n) as u32)
        })
        .collect()
}

/// The pairs as the oracles' `usize` indices.
pub fn widen(pairs: &[(u32, u32)]) -> Vec<(usize, usize)> {
    pairs
        .iter()
        .map(|&(u, v)| (u as usize, v as usize))
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The checks must be able to fail before any number is trusted.
    if let Err(e) = check::self_test() {
        eprintln!("perfbench: checker self-test failed: {e}");
        return ExitCode::FAILURE;
    }

    let ticks = sys::CpuTicks::now();
    let mut tracer = Tracer::new(args.trace);
    let mut report = Report::default();
    match args.workload.as_str() {
        "solve-gnp" => solve::run(
            solve::Family::Gnp,
            args.seed,
            args.seconds,
            &mut tracer,
            &mut report,
        ),
        "solve-grid" => solve::run(
            solve::Family::Grid,
            args.seed,
            args.seconds,
            &mut tracer,
            &mut report,
        ),
        "serve-mixed" => serve::run(args.seed, args.seconds, &mut tracer, &mut report),
        other => unreachable!("workload {other} was validated"),
    }
    if !report.measured() {
        eprintln!("perfbench: no operation of {} completed", args.workload);
        eprintln!("{}", report.detail_line());
        return ExitCode::FAILURE;
    }
    report.set("peak_rss_mb", sys::peak_rss_mib());

    report.detail("workload", json_str(&args.workload));
    report.detail("seed", args.seed.to_string());
    report.detail("seconds", args.seconds.to_string());
    report.detail("trace", args.trace.to_string());
    report.detail("available_cores", sys::available_cores().to_string());
    report.detail(
        "git_revision",
        sys::git_revision().map_or_else(|| "null".to_string(), |r| json_str(&r)),
    );
    report.detail("source_digest", json_str(&sys::source_digest()));
    report.detail(
        "steal_share",
        ticks.steal_share_until(sys::CpuTicks::now()).to_string(),
    );
    if args.trace {
        let dir = sys::out_dir();
        let path = dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| tracer.write_jsonl(&path)) {
            Ok(()) => report.detail("trace_file", json_str(&path.display().to_string())),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    println!("{}", report.detail_line());
    println!("{}", report.result_line(args.trace, report.failed == 0));
    ExitCode::SUCCESS
}
