//! `perfbench` — the end-to-end benchmark ledger for quorumnet.
//!
//! One command runs one workload from a single process, checks its
//! outputs, and prints every metric by name with its unit. The last line
//! of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Workloads (stable identifiers):
//!
//! | workload | what runs | why |
//! |---|---|---|
//! | `colgen2000` | `transit_colgen_2000.toml` through `ScenarioRunner::run` | topology, `EvalContext`, colgen LP and exact DES at 2,000 sites |
//! | `quorumd_stream` | in-process `quorumd` on a Unix socket, closed-loop client, WAL recovery | warm incremental LP re-solves, fsync'd writes beside reads |
//! | `paper_figures` | the ten `qp_bench::figures` pipelines at `Scale::Full` | one-shot `Model::solve` and the exact DES of the Q/U figures |
//!
//! `million_flash` (`million_flash.toml`: 10⁶ clients on the aggregated
//! engine, the control for topology, LP and event-queue changes) still
//! runs by name but is not declared: see [`UNDECLARED_WORKLOADS`].
//!
//! An untraced run (`--trace 0`) reports the [`END_TO_END`] metrics. A
//! traced run (`--trace 1`) repeats the untraced measurement, then
//! replays the workload through the crates' public functions under the
//! benchmark's own [`trace::Tracer`] spans, with a
//! `qp_obs::RegistryRecorder` installed only to read what the crates
//! already record (work counters, and the daemon's per-delta wall-clock
//! histograms), and reports the [`PER_LAYER`] metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
pub mod figures;
pub mod scenario;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The worker-pool width every run uses. A run refuses to start on a
/// machine with fewer cores, so results are comparable across machines.
pub const POOL_THREADS: usize = 2;

/// The seed at which every workload runs its checked-in inputs and the
/// pinned reference numbers are checked.
pub const DEFAULT_SEED: u64 = 0;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["colgen2000", "quorumd_stream", "paper_figures"];

/// Workloads the command runs by name that `BENCHMARK.json` does not
/// declare. `million_flash` is memory-latency bound, and on a shared
/// host its passes range over half their median within one run, too
/// far for any bound a declared metric may have.
pub const UNDECLARED_WORKLOADS: [&str; 1] = ["million_flash"];

/// A declared metric: name, unit, and which direction is better.
pub type MetricDecl = (&'static str, &'static str, &'static str);

/// Metrics an untraced run reports on every workload.
pub const END_TO_END: [MetricDecl; 3] = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Metrics a traced run reports. A workload that never enters a layer
/// reports `0` for it.
pub const PER_LAYER: [MetricDecl; 53] = [
    ("topology.build_s", "s", "lower"),
    ("placement.compute_s", "s", "lower"),
    ("eval.context_s", "s", "lower"),
    ("eval.score_s", "s", "lower"),
    ("lp.build_s", "s", "lower"),
    ("lp.solve_s", "s", "lower"),
    ("lp.solves", "count", "lower"),
    ("lp.pivots", "count", "lower"),
    ("lp.refactors", "count", "lower"),
    ("lp.full_prices", "count", "lower"),
    ("lp.us_per_pivot", "us", "lower"),
    ("colgen.columns_generated", "count", "lower"),
    ("colgen.oracle_passes", "count", "lower"),
    ("colgen.master_resolves", "count", "lower"),
    ("colgen.column_share", "ratio", "lower"),
    ("des.exact_s", "s", "lower"),
    ("des.requests", "count", "higher"),
    ("des.events", "count", "lower"),
    ("des.ns_per_request", "ns", "lower"),
    ("scenario.self_s", "s", "lower"),
    ("scenario.stage_coverage", "ratio", "higher"),
    ("session.new_s", "s", "lower"),
    ("session.apply_p50_ms", "ms", "lower"),
    ("session.apply_p99_ms", "ms", "lower"),
    ("session.delta_pivots_mean", "count", "lower"),
    ("persist.wal_append_p50_ms", "ms", "lower"),
    ("persist.wal_append_p99_ms", "ms", "lower"),
    ("persist.snapshot_ms", "ms", "lower"),
    ("server.wire_p50_ms", "ms", "lower"),
    ("delta_p50_ms", "ms", "lower"),
    ("delta_p99_ms", "ms", "lower"),
    ("read_p50_ms", "ms", "lower"),
    ("read_p99_ms", "ms", "lower"),
    ("delta_samples", "count", "higher"),
    ("read_samples", "count", "higher"),
    ("recover_s", "s", "lower"),
    ("recover.replayed_deltas", "count", "higher"),
    ("recover.replay_s", "s", "lower"),
    ("recover.cold_check_s", "s", "lower"),
    ("quorumd.wal_appends", "count", "lower"),
    ("quorumd.snapshots", "count", "lower"),
    ("fig.fig3_1_s", "s", "lower"),
    ("fig.fig3_2a_s", "s", "lower"),
    ("fig.fig3_2b_s", "s", "lower"),
    ("fig.fig6_3_s", "s", "lower"),
    ("fig.fig6_4_s", "s", "lower"),
    ("fig.fig6_5_s", "s", "lower"),
    ("fig.fig7_6_s", "s", "lower"),
    ("fig.fig7_7_s", "s", "lower"),
    ("fig.fig7_8_s", "s", "lower"),
    ("fig.fig8_9_s", "s", "lower"),
    ("error_rate", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
];

/// What one invocation is asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed; [`DEFAULT_SEED`] runs the checked-in inputs.
    pub seed: u64,
    /// Minimum length of the timed section, seconds (at least one pass
    /// always runs).
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Repository root: where `data/` lives.
    pub root: PathBuf,
    /// Scratch directory for state files, removed by the caller.
    pub work_dir: PathBuf,
}

/// Attempted operations and output checks, with the failures seen.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Failures: refused commands, failed output checks, scenario FAIL
    /// verdicts, figure mismatches.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Counts one check; records `what` when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Number of failures.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Failures ÷ attempted.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

/// A workload's measurements.
#[derive(Debug, Default)]
pub struct WorkloadResult {
    /// Metric values by name (units come from the declarations).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Checks and failures.
    pub outcome: Outcome,
    /// Extra human-readable lines (sample counts, stage table).
    pub notes: Vec<String>,
    /// The traced run's spans as JSON lines.
    pub spans_jsonl: Option<String>,
}

/// Runs `f` with a fresh `qp_obs::RegistryRecorder` installed and
/// returns its result with the recorder's counters. `f` can read the
/// counters while it runs.
pub fn with_counters<R>(f: impl FnOnce(&Counters) -> R) -> (R, Counters) {
    let counters = Counters(Arc::new(quorumnet::obs::RegistryRecorder::new()));
    quorumnet::obs::install(counters.0.clone());
    let out = f(&counters);
    quorumnet::obs::uninstall();
    (out, counters)
}

/// The work counters a traced replay read from the recorder.
pub struct Counters(Arc<quorumnet::obs::RegistryRecorder>);

impl Counters {
    /// A counter's value as `f64` (0 when never incremented).
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.0.registry().counter(name) as f64
    }

    /// The running sum of a histogram (0 when never observed).
    #[must_use]
    pub fn histogram_sum(&self, name: &str) -> f64 {
        self.0.registry().histogram(name).map_or(0.0, |h| h.sum())
    }

    /// Copies the LP, colgen, DES and quorumd work counters into
    /// `metrics` under their per-layer names.
    pub fn fill(&self, metrics: &mut BTreeMap<&'static str, f64>) {
        for (metric, counters) in [
            ("lp.solves", &["lp_solves_total"][..]),
            ("lp.pivots", &["lp_pivots_total"]),
            ("lp.refactors", &["lp_refactors_total"]),
            ("lp.full_prices", &["lp_full_prices_total"]),
            ("colgen.columns_generated", &["colgen_columns_added_total"]),
            ("colgen.oracle_passes", &["colgen_oracle_passes_total"]),
            ("colgen.master_resolves", &["colgen_master_resolves_total"]),
            ("des.requests", &["des_requests_completed_total"]),
            (
                "des.events",
                &["des_wheel_push_total", "des_heap_push_total"],
            ),
            ("quorumd.wal_appends", &["quorumd_wal_appends_total"]),
            ("quorumd.snapshots", &["quorumd_snapshots_total"]),
        ] {
            metrics.insert(metric, counters.iter().map(|c| self.get(c)).sum());
        }
    }
}

/// Set-up repetitions in one burst of [`sampled_setup`]'s re-timing.
pub const SETUP_BURST: usize = 10;

/// Pause between two bursts of [`sampled_setup`]'s re-timing.
pub const SETUP_INTERVAL: Duration = Duration::from_millis(50);

/// Runs the set-up `setup` once and then `timed` with its result, while
/// a background thread re-times `setup` in bursts of [`SETUP_BURST`]
/// every [`SETUP_INTERVAL`] until `timed` returns. Returns the median of
/// all the set-up timings, the first included, and `timed`'s result.
///
/// A shared host switches between fast and slow states that last
/// seconds and differ by up to half. A microsecond set-up timed in one
/// burst reports the state of that millisecond; spread over the timed
/// section, the samples see the host as the timed section does. The
/// bursts take about 1% of one core.
///
/// # Errors
///
/// The first error `setup` returns.
pub fn sampled_setup<T, R>(
    setup: impl Fn() -> Result<T, String> + Sync,
    timed: impl FnOnce(&T) -> R,
) -> Result<(f64, T, R), String> {
    let t = Instant::now();
    let value = setup()?;
    let first = t.elapsed().as_secs_f64();
    let stop = AtomicBool::new(false);
    let (samples, out) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut times = vec![first];
            while !stop.load(Ordering::Relaxed) {
                for _ in 0..SETUP_BURST {
                    let t = Instant::now();
                    setup()?;
                    times.push(t.elapsed().as_secs_f64());
                }
                std::thread::park_timeout(SETUP_INTERVAL);
            }
            Ok::<_, String>(times)
        });
        let out = timed(&value);
        stop.store(true, Ordering::Relaxed);
        sampler.thread().unpark();
        (sampler.join().expect("set-up sampler panicked"), out)
    });
    Ok((stats::median(&samples?), value, out))
}

/// Reads a file under the repository root.
///
/// # Errors
///
/// A message naming the path when it cannot be read.
pub fn read_repo_file(root: &Path, rel: &str) -> Result<String, String> {
    let path = root.join(rel);
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Runs workload `name`.
///
/// # Errors
///
/// A message when the workload is unknown or cannot run at all (a
/// missing input file, a pipeline error); failed output checks are not
/// errors but land in [`WorkloadResult::outcome`].
pub fn run_workload(name: &str, cfg: &RunConfig) -> Result<WorkloadResult, String> {
    let mut result = match name {
        "colgen2000" => scenario::run(&scenario::COLGEN2000, cfg),
        "million_flash" => scenario::run(&scenario::MILLION_FLASH, cfg),
        "quorumd_stream" => daemon::run(&daemon::StreamShape::FULL, cfg),
        "paper_figures" => figures::run(&figures::Suite::full(), cfg),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS
                .iter()
                .chain(&UNDECLARED_WORKLOADS)
                .copied()
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }?;
    if cfg.trace {
        let error_rate = result.outcome.error_rate();
        result.metrics.insert("error_rate", error_rate);
    }
    Ok(result)
}

/// Renders the final result line: exactly the declared metrics of the
/// run's kind, each with its unit. A declared per-layer metric the
/// workload did not produce reads `0`.
#[must_use]
pub fn result_json(result: &WorkloadResult, trace: bool) -> String {
    let decls: &[MetricDecl] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = String::new();
    for (i, (name, unit, _)) in decls.iter().enumerate() {
        let value = result.metrics.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            metrics,
            "{sep}\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        result.outcome.failures.is_empty(),
        result.outcome.attempted,
        result.outcome.failed(),
    )
}
