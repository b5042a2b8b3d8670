//! Scenario workloads: a checked-in spec through `ScenarioRunner::run`,
//! and its staged replay through the same public calls under spans.

use std::time::Instant;

use quorumnet::core::capacity::capacity_sweep;
use quorumnet::core::response::{evaluate_matrix_placed, evaluate_matrix_placed_weighted};
use quorumnet::core::strategy_lp::{
    ColGenSolver, ColGenStats, ColumnGeneration, StrategyLpOutcome,
};
use quorumnet::core::{CoreError, EvalContext, Evaluation, ResponseModel};
use quorumnet::protocol::{
    simulate_with_engine, ClientPopulation, ProtocolConfig, QuorumChoice, SimEngine,
};
use quorumnet::quorum::StrategyMatrix;
use quorumnet::scenario::{
    parse_system, CapacityChoice, DemandModel, PricingReport, ScenarioError, ScenarioReport,
    ScenarioRunner, ScenarioSpec, TopologySource,
};

use crate::stats::median;
use crate::trace::Tracer;
use crate::{
    read_repo_file, sampled_setup, with_counters, Outcome, RunConfig, WorkloadResult, DEFAULT_SEED,
};

/// The least share of the replay's wall time its stages must cover for
/// the stage table to explain the run.
pub const MIN_STAGE_COVERAGE: f64 = 0.95;

/// Numbers the checked-in spec must reproduce, compared at two decimals.
#[derive(Debug, Clone, Copy)]
pub struct Pins {
    /// LP objective: average network delay, ms.
    pub lp_delay_ms: f64,
    /// Scored LP response time, ms.
    pub lp_response_ms: f64,
    /// Columns in the restricted master and the full column count.
    pub columns: (usize, usize),
    /// Per-phase DES mean response, ms.
    pub phase_response_ms: &'static [f64],
}

/// A scenario workload: a spec under `data/scenarios/` and its pins.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioWorkload {
    /// Spec path relative to the repository root.
    pub spec_path: &'static str,
    /// Pinned outputs at [`DEFAULT_SEED`]; `None` checks only PASS.
    pub pins: Option<Pins>,
}

/// 2,000 sites, colgen LP, exact DES at 2,000 clients.
pub const COLGEN2000: ScenarioWorkload = ScenarioWorkload {
    spec_path: "data/scenarios/transit_colgen_2000.toml",
    pins: Some(Pins {
        lp_delay_ms: 81.65,
        lp_response_ms: 170.80,
        columns: (13_890, 50_000),
        phase_response_ms: &[],
    }),
};

/// 10⁶ clients on the aggregated engine, three phases.
pub const MILLION_FLASH: ScenarioWorkload = ScenarioWorkload {
    spec_path: "data/scenarios/million_flash.toml",
    pins: Some(Pins {
        lp_delay_ms: 34.25,
        lp_response_ms: 108.58,
        columns: (800, 900),
        phase_response_ms: &[65.70, 187.45, 65.71],
    }),
};

/// Parses `text` and, away from [`DEFAULT_SEED`], replaces the topology
/// and pipeline seeds with ones derived from `seed`.
///
/// # Errors
///
/// The spec's parse or validation error.
pub fn spec_for_seed(text: &str, seed: u64) -> Result<ScenarioSpec, ScenarioError> {
    let mut spec = ScenarioSpec::parse(text)?;
    if seed != DEFAULT_SEED {
        match &mut spec.topology {
            TopologySource::TransitStub { seed: s, .. }
            | TopologySource::Hierarchical { seed: s, .. }
            | TopologySource::Euclidean { seed: s, .. } => *s = qp_par::job_seed(seed, 0),
            TopologySource::Dataset(_) | TopologySource::File(_) => {}
        }
        spec.pipeline.seed = qp_par::job_seed(seed, 1);
    }
    spec.validate()?;
    Ok(spec)
}

fn same_2dp(a: f64, b: f64) -> bool {
    format!("{a:.2}") == format!("{b:.2}")
}

fn check_pins(pins: &Pins, report: &ScenarioReport, outcome: &mut Outcome) {
    outcome.check(same_2dp(report.lp_delay_ms, pins.lp_delay_ms), || {
        format!(
            "LP delay {:.2} ms, pinned {:.2}",
            report.lp_delay_ms, pins.lp_delay_ms
        )
    });
    outcome.check(same_2dp(report.lp_response_ms, pins.lp_response_ms), || {
        format!(
            "LP response {:.2} ms, pinned {:.2}",
            report.lp_response_ms, pins.lp_response_ms
        )
    });
    let columns = report
        .pricing
        .map(|p| (p.columns_in_master, p.total_columns));
    outcome.check(columns == Some(pins.columns), || {
        format!("columns {columns:?}, pinned {:?}", pins.columns)
    });
    if !pins.phase_response_ms.is_empty() {
        let got: Vec<f64> = report.phases.iter().map(|p| p.des_response_ms).collect();
        let ok = got.len() == pins.phase_response_ms.len()
            && got
                .iter()
                .zip(pins.phase_response_ms)
                .all(|(&a, &b)| same_2dp(a, b));
        outcome.check(ok, || {
            format!(
                "DES responses {got:.2?} ms, pinned {:?}",
                pins.phase_response_ms
            )
        });
    }
}

/// Runs a scenario workload: set-up (read, parse, re-seed, validate)
/// timed by [`sampled_setup`], then `ScenarioRunner::run` passes until
/// `cfg.seconds` have elapsed; in a traced run, then one staged replay.
///
/// # Errors
///
/// A message when the spec cannot be read or parsed.
pub fn run(w: &ScenarioWorkload, cfg: &RunConfig) -> Result<WorkloadResult, String> {
    let mut result = WorkloadResult::default();
    let setup = || {
        let text = read_repo_file(&cfg.root, w.spec_path)?;
        spec_for_seed(&text, cfg.seed).map_err(|e| format!("{}: {e}", w.spec_path))
    };
    let (setup_s, spec, (walls, first)) = sampled_setup(setup, |spec| {
        let outcome = &mut result.outcome;
        let runner = ScenarioRunner::new();
        let mut walls = Vec::new();
        let mut first: Option<ScenarioReport> = None;
        let start = Instant::now();
        while walls.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
            let t = Instant::now();
            let report = runner.run(spec);
            walls.push(t.elapsed().as_secs_f64());
            let report = match report {
                Ok(report) => report,
                Err(e) => {
                    outcome.check(false, || format!("scenario error: {e}"));
                    break;
                }
            };
            outcome.check(report.pass, || format!("scenario FAIL:\n{report}"));
            if let (Some(pins), true) = (&w.pins, cfg.seed == DEFAULT_SEED) {
                check_pins(pins, &report, outcome);
            }
            first.get_or_insert(report);
        }
        (walls, first)
    })?;
    let wall = median(&walls);
    result.metrics.insert("setup_s", setup_s);
    result.metrics.insert("wall_s", wall);
    result.notes.push(format!(
        "passes: {} {walls:.3?} s (wall_s is their median)",
        walls.len()
    ));

    if let (true, Some(report)) = (cfg.trace, &first) {
        traced(&spec, report, wall, &mut result);
    }
    Ok(result)
}

/// The traced half: replay under spans with the counters installed,
/// check it against the untraced report, and derive the stage metrics.
fn traced(spec: &ScenarioSpec, report: &ScenarioReport, wall: f64, result: &mut WorkloadResult) {
    let tracer = Tracer::new();
    let (replayed, counters) =
        with_counters(|_| tracer.time("scenario.run", || replay(spec, &tracer)));
    let outcome = &mut result.outcome;
    match replayed {
        Ok(r) => outcome.check(r.matches(report), || {
            format!("staged replay diverges from ScenarioRunner::run: {r:?}")
        }),
        Err(e) => outcome.check(false, || format!("staged replay failed: {e}")),
    }
    let m = &mut result.metrics;
    counters.fill(m);
    for (metric, span) in [
        ("topology.build_s", "topology.build"),
        ("placement.compute_s", "placement.compute"),
        ("eval.context_s", "eval.context"),
        ("eval.score_s", "eval.score"),
        ("lp.build_s", "lp.build"),
        ("lp.solve_s", "lp.solve"),
        ("des.exact_s", "des.exact"),
    ] {
        m.insert(metric, tracer.total(span));
    }
    if m["lp.pivots"] > 0.0 {
        m.insert("lp.us_per_pivot", m["lp.solve_s"] / m["lp.pivots"] * 1e6);
    }
    if m["des.requests"] > 0.0 {
        let des_s = tracer.total("des.exact") + tracer.total("des.agg");
        m.insert("des.ns_per_request", des_s / m["des.requests"] * 1e9);
    }
    if let Some(p) = report.pricing {
        m.insert(
            "colgen.column_share",
            p.columns_in_master as f64 / p.total_columns as f64,
        );
    }
    // Coverage compares the stages with the replay that contains them:
    // against the untraced passes, a separate execution, the ratio would
    // mostly measure run-to-run noise. `trace.overhead_share` carries the
    // traced-vs-untraced difference.
    let stage_sum = tracer.children_total("scenario.run");
    let traced_wall = tracer.total("scenario.run");
    let coverage = stage_sum / traced_wall;
    m.insert("scenario.self_s", traced_wall - stage_sum);
    m.insert("scenario.stage_coverage", coverage);
    m.insert("trace.overhead_share", (traced_wall - wall) / wall);
    if coverage < MIN_STAGE_COVERAGE {
        result.notes.push(format!(
            "warning: stages cover {coverage:.3} of the replay's wall time (< {MIN_STAGE_COVERAGE})"
        ));
    }
    result.notes.push(tracer.stage_table());
    result.spans_jsonl = Some(tracer.to_jsonl());
}

/// What the staged replay reproduced.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// LP objective of the adopted strategy, ms.
    pub lp_delay_ms: f64,
    /// Its scored response time, ms.
    pub lp_response_ms: f64,
    /// Accumulated pricing statistics.
    pub pricing: PricingReport,
    /// Per-phase DES mean response, ms.
    pub des_response_ms: Vec<f64>,
}

impl Replay {
    /// Whether the replay reproduced `report` bit for bit.
    #[must_use]
    pub fn matches(&self, report: &ScenarioReport) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let des: Vec<f64> = report.phases.iter().map(|p| p.des_response_ms).collect();
        self.lp_delay_ms.to_bits() == report.lp_delay_ms.to_bits()
            && self.lp_response_ms.to_bits() == report.lp_response_ms.to_bits()
            && Some(self.pricing) == report.pricing
            && bits(&self.des_response_ms) == bits(&des)
    }
}

/// Folds one solve's pricing stats in the way the scenario report does:
/// master-size fields from the latest solve, work counters summed.
fn absorb(acc: &mut PricingReport, stats: Option<ColGenStats>) {
    if let Some(s) = stats {
        acc.columns_in_master = s.columns_in_master;
        acc.total_columns = s.total_columns;
        acc.columns_generated += s.columns_generated;
        acc.oracle_passes += s.oracle_passes;
        acc.master_resolves += s.master_resolves;
    }
}

fn solve(
    tr: &Tracer,
    solver: &mut ColGenSolver<'_>,
    pricing: &mut PricingReport,
    c: f64,
) -> Result<StrategyLpOutcome, CoreError> {
    let outcome = tr.time("lp.solve", || solver.solve_uniform(c))?;
    absorb(pricing, outcome.colgen);
    Ok(outcome)
}

/// Replays the scenario pipeline stage by stage through the crates'
/// public functions, in `ScenarioRunner::run`'s order and with its
/// inputs, each stage under a span: topology → placement → population →
/// evaluation contexts → colgen LP → scoring → per-phase DES.
///
/// Covers the colgen pipelines the workloads use: uniform-sweep or fixed
/// capacity, no exact-compare, no mid-run re-optimization.
///
/// # Errors
///
/// [`ScenarioError::Invalid`] for a spec outside that shape; otherwise
/// the failing layer's error.
pub fn replay(spec: &ScenarioSpec, tr: &Tracer) -> Result<Replay, ScenarioError> {
    let p = &spec.pipeline;
    let reoptimizes = spec.failures.reoptimize && !spec.failures.events.is_empty();
    if !p.colgen || p.exact_compare || reoptimizes {
        return Err(ScenarioError::Invalid(
            "the staged replay covers colgen pipelines without exact-compare or re-optimization"
                .into(),
        ));
    }
    let net = tr.time("topology.build", || spec.topology.build())?;
    let sys = parse_system(&p.system)?;
    let placement = tr.time("placement.compute", || p.placement.compute(&net, &sys))?;
    let nominal = tr.time("workload.population", || {
        let uniform = ClientPopulation::representative(
            &net,
            &sys,
            &placement,
            spec.workload.locations,
            spec.workload.per_location,
        );
        match spec.workload.demand {
            DemandModel::Uniform => uniform,
            DemandModel::Zipf(theta) => ClientPopulation::zipf(
                uniform.locations().to_vec(),
                spec.workload.per_location,
                theta,
            ),
        }
    });

    // The runner scores over the flattened client list unless every
    // phase is aggregated, and always solves at location level.
    let quorums = tr.time("lp.build", || sys.enumerate(p.quorum_limit))?;
    let flatten = !p.engine.all_aggregated();
    let lp_clients = if flatten {
        nominal.client_locations()
    } else {
        Vec::new()
    };
    let loc_indices = if flatten {
        nominal.location_indices()
    } else {
        Vec::new()
    };
    let loc_sites = nominal.locations().to_vec();
    let loc_weights: Vec<f64> = nominal.client_counts().iter().map(|&c| c as f64).collect();
    let ctx = tr.time("eval.context", || {
        flatten.then(|| EvalContext::new(&net, &lp_clients))
    });
    let pq = tr.time("eval.context", || {
        ctx.as_ref().map(|c| c.place(&placement, &quorums))
    });
    let loc_ctx = tr.time("eval.context", || EvalContext::new(&net, &loc_sites));
    let loc_pq = tr.time("eval.context", || loc_ctx.place(&placement, &quorums));
    let mut solver = tr.time("lp.build", || {
        ColGenSolver::with_weights(&loc_pq, &loc_weights, ColumnGeneration::default())
    })?;
    let model = ResponseModel::from_demand(p.op_time_ms, p.demand);
    let score = |strategy: &StrategyMatrix| -> Result<Evaluation, CoreError> {
        tr.time("eval.score", || match &pq {
            Some(pq) => {
                let rows = loc_indices
                    .iter()
                    .map(|&l| strategy.row(l).to_vec())
                    .collect();
                evaluate_matrix_placed(pq, &StrategyMatrix::from_rows(rows)?, model)
            }
            None => evaluate_matrix_placed_weighted(&loc_pq, strategy, &loc_weights, model),
        })
    };

    let mut pricing = PricingReport {
        columns_in_master: 0,
        total_columns: 0,
        columns_generated: 0,
        oracle_passes: 0,
        master_resolves: 0,
    };
    let base = match p.capacity {
        CapacityChoice::Fixed(c) => solve(tr, &mut solver, &mut pricing, c)?,
        CapacityChoice::Sweep { steps } => {
            let mut best: Option<(StrategyLpOutcome, f64)> = None;
            for c in capacity_sweep(sys.optimal_load().unwrap_or(0.5), steps) {
                let outcome = match solve(tr, &mut solver, &mut pricing, c) {
                    Ok(outcome) => outcome,
                    Err(CoreError::Infeasible) => continue,
                    Err(e) => return Err(e.into()),
                };
                let response = score(&outcome.strategy)?.avg_response_ms;
                if best.as_ref().is_none_or(|(_, r)| response < *r) {
                    best = Some((outcome, response));
                }
            }
            best.ok_or(CoreError::Infeasible)?.0
        }
        _ => {
            return Err(ScenarioError::Invalid(
                "the staged replay covers fixed and sweep capacity choices".into(),
            ))
        }
    };
    let lp_response_ms = score(&base.strategy)?.avg_response_ms;

    let universe = sys.universe_size();
    let mut carry: Option<Vec<f64>> = None;
    let mut des_response_ms = Vec::with_capacity(p.phases);
    for phase in 0..p.phases {
        let engine = p.engine.for_phase(phase);
        let pop = match spec.workload.flash.filter(|f| f.phase == phase) {
            Some(f) => nominal.boosted(f.focus, f.boost),
            None => nominal.clone(),
        };
        let cfg = ProtocolConfig {
            service_time_ms: p.service_time_ms,
            warmup_requests: p.warmup,
            measured_requests: p.requests,
            seed: qp_par::job_seed(p.seed, phase),
            service_multipliers: spec.failures.multipliers_for_phase(phase, universe),
            dedup_colocated: false,
            streaming_percentiles: false,
            initial_server_busy_ms: carry.take(),
            fault: spec.failures.fault.clone(),
        };
        let choice = QuorumChoice::Weighted {
            quorums: quorums.clone(),
            strategy: base.strategy.clone(),
        };
        let span = match engine {
            SimEngine::Exact => "des.exact",
            SimEngine::Aggregated => "des.agg",
        };
        let report = tr.time(span, || {
            simulate_with_engine(&net, &sys, &placement, &pop, choice, &cfg, engine)
        })?;
        if p.carry_queues {
            carry = Some(report.residual_busy_ms);
        }
        des_response_ms.push(report.avg_response_ms);
    }
    Ok(Replay {
        lp_delay_ms: base.delay_ms,
        lp_response_ms,
        pricing,
        des_response_ms,
    })
}
