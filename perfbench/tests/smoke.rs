//! Reduced-size smoke test of the benchmark harness: every workload kind
//! runs end to end on small inputs, traced, and the declarations agree
//! with `BENCHMARK.json`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use perfbench::daemon::StreamShape;
use perfbench::figures::Suite;
use perfbench::scenario::{self, ScenarioWorkload};
use perfbench::{
    result_json, sampled_setup, RunConfig, WorkloadResult, END_TO_END, PER_LAYER, SETUP_BURST,
    WORKLOADS,
};
use qp_bench::Scale;

/// A 24-site colgen scenario with a flash crowd, a slowdown, carried
/// queues and a mixed exact/aggregated engine plan.
const TINY_SPEC: &str = "name = tiny\n\
    [topology]\n\
    source = transit-stub\n\
    seed = 5\n\
    transit-domains = 2\n\
    transit-size = 2\n\
    stubs-per-transit = 2\n\
    stub-size = 5\n\
    [workload]\n\
    locations = 6\n\
    per-location = 3\n\
    demand = zipf:0.8\n\
    flash-phase = 1\n\
    flash-focus = 0\n\
    flash-boost = 4\n\
    [failures]\n\
    slowdown = 1:0:4\n\
    [pipeline]\n\
    system = grid:2\n\
    capacity = sweep:3\n\
    phases = 2\n\
    requests = 20\n\
    warmup = 4\n\
    seed = 3\n\
    tolerance = 0.25\n\
    colgen = true\n\
    engine = exact,aggregated\n\
    carry-queues = true\n";

fn config(name: &str, seed: u64) -> RunConfig {
    let dir = PathBuf::from(".bench_out").join(format!("smoke-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    RunConfig {
        seed,
        seconds: 0.0,
        trace: true,
        root: dir.clone(),
        work_dir: dir.join("work"),
    }
}

fn assert_clean(result: &WorkloadResult) {
    assert!(
        result.outcome.failures.is_empty(),
        "failures: {:#?}",
        result.outcome.failures
    );
    assert!(result.outcome.attempted > 0);
    for (name, ..) in END_TO_END.iter().filter(|(n, ..)| *n != "peak_rss_mb") {
        assert!(
            result.metrics[name] > 0.0,
            "{name} = {}",
            result.metrics[name]
        );
    }
}

#[test]
fn scenario_replay_is_bit_identical_at_several_seeds() {
    for seed in [0, 7] {
        let cfg = config("scenario", seed);
        std::fs::write(cfg.root.join("tiny.toml"), TINY_SPEC).unwrap();
        let w = ScenarioWorkload {
            spec_path: "tiny.toml",
            pins: None,
        };
        let result = scenario::run(&w, &cfg).unwrap();
        assert_clean(&result);
        let m = &result.metrics;
        assert!(m["scenario.stage_coverage"] > 0.0);
        assert!(m["lp.pivots"] > 0.0 && m["des.requests"] > 0.0);
        assert!(m["colgen.column_share"] > 0.0 && m["colgen.column_share"] <= 1.0);
        assert!(result
            .spans_jsonl
            .as_deref()
            .is_some_and(|s| s.contains("topology.build")));
        std::fs::remove_dir_all(&cfg.root).unwrap();
    }
}

#[test]
fn replay_rejects_pipelines_it_does_not_cover() {
    let mut spec = scenario::spec_for_seed(TINY_SPEC, 0).unwrap();
    spec.pipeline.colgen = false;
    assert!(scenario::replay(&spec, &perfbench::trace::Tracer::new()).is_err());
}

#[test]
fn seed_replaces_topology_and_pipeline_seeds() {
    let base = scenario::spec_for_seed(TINY_SPEC, 0).unwrap();
    let other = scenario::spec_for_seed(TINY_SPEC, 9).unwrap();
    assert_eq!(base.pipeline.seed, 3);
    assert_ne!(other.pipeline.seed, 3);
    assert_ne!(base.topology, other.topology);
    assert_eq!(other, scenario::spec_for_seed(TINY_SPEC, 9).unwrap());
}

#[test]
fn daemon_stream_recovers_and_checks() {
    let cfg = config("daemon", 4);
    let shape = StreamShape {
        sites: 16,
        deltas: 40,
        snapshot_every: 16,
        snapshot_read_every: 4,
        min_samples: 0,
    };
    let result = perfbench::daemon::run(&shape, &cfg).unwrap();
    assert_clean(&result);
    let m = &result.metrics;
    assert_eq!(m["delta_samples"], 40.0);
    assert_eq!(m["recover.replayed_deltas"], shape.wal_tail() as f64);
    assert_eq!(m["quorumd.snapshots"], 2.0);
    assert!(m["session.apply_p50_ms"] > 0.0 && m["persist.snapshot_ms"] > 0.0);
    std::fs::remove_dir_all(&cfg.root).unwrap();
}

#[test]
fn figures_run_at_smoke_scale() {
    let cfg = config("figures", 0);
    let suite = Suite {
        scale: Scale::Smoke,
        reference_dir: None,
    };
    let result = perfbench::figures::run(&suite, &cfg).unwrap();
    assert_clean(&result);
    assert!(result.metrics["fig.fig8_9_s"] > 0.0);
    assert!(result.metrics["lp.solves"] > 0.0);
    let json = result_json(&result, true);
    for (name, unit, _) in PER_LAYER {
        assert!(json.contains(&format!("\"{name}\":{{\"value\":")), "{name}");
        assert!(json.contains(&format!("\"unit\":\"{unit}\"")));
    }
    assert!(json.starts_with("{\"correct\":true,"));
    std::fs::remove_dir_all(&cfg.root).unwrap();
}

#[test]
fn setup_is_resampled_while_the_timed_section_runs() {
    let calls = AtomicUsize::new(0);
    let (_, value, out) = sampled_setup(
        || Ok(calls.fetch_add(1, Ordering::Relaxed) + 7),
        |v| {
            std::thread::sleep(Duration::from_millis(300));
            v * 2
        },
    )
    .unwrap();
    assert_eq!((value, out), (7, 14));
    assert!(calls.load(Ordering::Relaxed) > 2 * SETUP_BURST);
    let failed = sampled_setup(|| Err::<(), _>("no spec".to_string()), |()| ());
    assert_eq!(failed.err().as_deref(), Some("no spec"));
}

#[test]
fn declarations_match_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let names = |section: &str| -> Vec<String> {
        let start = text.find(&format!("\"{section}\"")).unwrap();
        let end = text[start..].find(']').unwrap() + start;
        text[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().unwrap().to_string())
            .collect()
    };
    assert_eq!(names("workloads"), WORKLOADS);
    assert_eq!(names("end_to_end"), END_TO_END.map(|(n, ..)| n));
    assert_eq!(names("per_layer"), PER_LAYER.map(|(n, ..)| n));
    for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
        assert!(text.contains(&entry), "{entry}");
    }
}
