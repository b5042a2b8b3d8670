//! The `paper_figures` workload: the ten figure pipelines of
//! `qp_bench::figures`, each table checked against a reference copy.

use std::time::Instant;

use qp_bench::figures as fig;
use qp_bench::{Scale, Table};

use crate::stats::median;
use crate::trace::Tracer;
use crate::{read_repo_file, sampled_setup, with_counters, RunConfig, WorkloadResult};

/// A figure pipeline: its name, span name, per-layer metric, function.
pub type Figure = (&'static str, &'static str, &'static str, fn(Scale) -> Table);

/// The ten figures, in paper order.
pub const FIGURES: [Figure; 10] = [
    ("fig3_1", "fig.fig3_1", "fig.fig3_1_s", fig::fig3_1),
    ("fig3_2a", "fig.fig3_2a", "fig.fig3_2a_s", fig::fig3_2a),
    ("fig3_2b", "fig.fig3_2b", "fig.fig3_2b_s", fig::fig3_2b),
    ("fig6_3", "fig.fig6_3", "fig.fig6_3_s", fig::fig6_3),
    ("fig6_4", "fig.fig6_4", "fig.fig6_4_s", fig::fig6_4),
    ("fig6_5", "fig.fig6_5", "fig.fig6_5_s", fig::fig6_5),
    ("fig7_6", "fig.fig7_6", "fig.fig7_6_s", fig::fig7_6),
    ("fig7_7", "fig.fig7_7", "fig.fig7_7_s", fig::fig7_7),
    ("fig7_8", "fig.fig7_8", "fig.fig7_8_s", fig::fig7_8),
    ("fig8_9", "fig.fig8_9", "fig.fig8_9_s", fig::fig8_9),
];

/// Which scale runs, and where the reference tables live.
#[derive(Debug, Clone, Copy)]
pub struct Suite {
    /// Pipeline scale.
    pub scale: Scale,
    /// Directory (relative to the repository root) of `<figure>.csv`
    /// reference tables; `None` skips the comparison.
    pub reference_dir: Option<&'static str>,
}

impl Suite {
    /// Paper scale, checked against the tables stored with the benchmark.
    #[must_use]
    pub fn full() -> Suite {
        Suite {
            scale: Scale::Full,
            reference_dir: Some("perfbench/ref"),
        }
    }
}

fn load_references(suite: &Suite, cfg: &RunConfig) -> Result<Vec<Option<String>>, String> {
    FIGURES
        .iter()
        .map(|(name, ..)| {
            suite
                .reference_dir
                .map(|dir| read_repo_file(&cfg.root, &format!("{dir}/{name}.csv")))
                .transpose()
        })
        .collect()
}

/// Runs every figure once, each under a span when `tracer` is given,
/// checking each table's CSV against its reference.
fn pass(
    references: &[Option<String>],
    suite: &Suite,
    result: &mut WorkloadResult,
    tracer: Option<&Tracer>,
) {
    for (figure, reference) in FIGURES.iter().zip(references) {
        let run = || (figure.3)(suite.scale);
        let table = match tracer {
            Some(t) => t.time(figure.1, run),
            None => run(),
        };
        let csv = table.to_csv();
        result
            .outcome
            .check(reference.as_ref().is_none_or(|r| *r == csv), || {
                format!("{} differs from its reference table:\n{csv}", figure.0)
            });
    }
}

/// Runs the figure suite: reference loading as set-up, timed by
/// [`sampled_setup`], then passes until `cfg.seconds` have elapsed; in a
/// traced run, then one pass with every figure under a span.
///
/// # Errors
///
/// A message when a reference table cannot be read.
pub fn run(suite: &Suite, cfg: &RunConfig) -> Result<WorkloadResult, String> {
    let mut result = WorkloadResult::default();
    let (setup_s, references, walls) = sampled_setup(
        || load_references(suite, cfg),
        |references| {
            let mut walls = Vec::new();
            let start = Instant::now();
            while walls.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
                let t = Instant::now();
                pass(references, suite, &mut result, None);
                walls.push(t.elapsed().as_secs_f64());
            }
            walls
        },
    )?;
    let wall = median(&walls);
    result.metrics.insert("setup_s", setup_s);
    result.metrics.insert("wall_s", wall);
    result.notes.push(format!(
        "passes: {} {walls:.3?} s (wall_s is their median)",
        walls.len()
    ));

    if cfg.trace {
        let tracer = Tracer::new();
        let ((), counters) = with_counters(|_| {
            tracer.time("figures.run", || {
                pass(&references, suite, &mut result, Some(&tracer));
            });
        });
        counters.fill(&mut result.metrics);
        for (_, span, metric, _) in FIGURES {
            result.metrics.insert(metric, tracer.total(span));
        }
        result.metrics.insert(
            "trace.overhead_share",
            (tracer.total("figures.run") - wall) / wall,
        );
        result.notes.push(tracer.stage_table());
        result.spans_jsonl = Some(tracer.to_jsonl());
    }
    Ok(result)
}
