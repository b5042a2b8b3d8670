//! `perfbench` command line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. Prints the environment stamp, every
//! metric by name with its unit, and as the last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Spans of a traced
//! run are written to `.bench_out/`.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{
    result_json, run_workload, RunConfig, DEFAULT_SEED, END_TO_END, PER_LAYER, POOL_THREADS,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed: `{v}` is not a u64"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("--seconds: `{v}` is not a non-negative number"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is not 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(
            || "none (not a git checkout)".to_string(),
            |s| s.trim().to_string(),
        )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if POOL_THREADS > nproc {
        eprintln!("error: pool thread count {POOL_THREADS} exceeds nproc {nproc}; refusing to run");
        return ExitCode::from(2);
    }
    qp_par::configure_threads(POOL_THREADS);
    println!(
        "env: nproc={nproc} pool_threads={POOL_THREADS} git_rev={} rustc=\"{}\" profile={} \
         workload={} seed={} seconds={} trace={}",
        git_rev(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );

    let out_dir = PathBuf::from(".bench_out");
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        root: PathBuf::from("."),
        work_dir: out_dir.join(format!("run-{}", std::process::id())),
    };
    let run = run_workload(&args.workload, &cfg);
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    let mut result = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(mb) = perfbench::stats::peak_rss_mb() {
        result.metrics.insert("peak_rss_mb", mb);
    }

    for note in &result.notes {
        println!("{}", note.trim_end());
    }
    for (name, unit, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        if *name == "error_rate" {
            continue;
        }
        if let Some(v) = result.metrics.get(name) {
            println!("{name} = {v} {unit}");
        }
    }
    println!(
        "error_rate = {} ({} failed of {} attempted)",
        result.outcome.error_rate(),
        result.outcome.failed(),
        result.outcome.attempted
    );
    for f in &result.outcome.failures {
        eprintln!("FAILED: {f}");
    }
    if let Some(spans) = &result.spans_jsonl {
        let path = out_dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", result_json(&result, args.trace));
    ExitCode::SUCCESS
}
