//! The `quorumd_stream` workload: an in-process persistent `quorumd`
//! on a Unix socket, one closed-loop client sending a scripted delta
//! stream with a read after every delta, then a restart through
//! `recover`.

use std::io::{BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use quorumnet::core::{one_to_one, ResponseModel};
use quorumnet::daemon::protocol::{read_response, Response};
use quorumnet::daemon::server::execute;
use quorumnet::daemon::{
    recover, Command, Delta, Endpoint, Persistence, Server, Session, SessionConfig,
};
use quorumnet::quorum::QuorumSystem;
use quorumnet::topology::datasets;

use crate::stats::{mean, median, quantile, samples_beyond};
use crate::trace::Tracer;
use crate::{with_counters, Outcome, RunConfig, WorkloadResult};

/// Size of one stream cycle.
#[derive(Debug, Clone, Copy)]
pub struct StreamShape {
    /// Sites of the euclidean network; every site is a client.
    pub sites: usize,
    /// Deltas per cycle, each followed by one read.
    pub deltas: usize,
    /// WAL entries between snapshots.
    pub snapshot_every: usize,
    /// Every this-many-th read is a `snapshot` instead of a `query`.
    pub snapshot_read_every: usize,
    /// Delta samples a run collects at least, over all its cycles.
    pub min_samples: usize,
}

impl StreamShape {
    /// The benchmark's shape: 500-delta cycles, so a run's medians span
    /// many topologies, with a WAL that is not empty at shutdown (500 is
    /// not a multiple of 64), and at least 1,000 samples per run, so at
    /// least ten lie beyond p99.
    pub const FULL: StreamShape = StreamShape {
        sites: 50,
        deltas: 500,
        snapshot_every: 64,
        snapshot_read_every: 16,
        min_samples: 1000,
    };

    /// WAL entries left at shutdown: the deltas since the last snapshot.
    #[must_use]
    pub fn wal_tail(&self) -> usize {
        self.deltas % self.snapshot_every
    }
}

/// The session every cycle opens: a `sites`-node euclidean WAN with a
/// 3×3 Grid, topology seeded from the workload seed.
#[must_use]
pub fn session_config(shape: &StreamShape, seed: u64) -> SessionConfig {
    let net = datasets::euclidean_random(shape.sites, 120.0, qp_par::job_seed(seed, 0));
    let sys = QuorumSystem::grid(3).expect("3x3 grid is valid");
    let placement = one_to_one::best_placement(&net, &sys).expect("50 sites host a 3x3 grid");
    let quorums = sys.enumerate(100).expect("3x3 grid has 9 quorums");
    SessionConfig {
        net,
        quorums,
        placement,
        alpha: ResponseModel::from_demand(0.007, 16_000.0).alpha(),
        l_opt: sys.optimal_load().expect("grid has an optimal load"),
        sweep_steps: 8,
        colgen: None,
    }
}

/// A deterministic delta stream mixing slowdowns, demand shifts and
/// crash/restore churn with at most two nodes down at once, so a 3×3
/// grid always keeps a live quorum for every client.
#[must_use]
pub fn script(len: usize, num_nodes: usize, seed: u64) -> Vec<Delta> {
    let frac = |h: u64, shift: u32| ((h >> shift) & 0xffff) as f64 / 65536.0;
    let mut crashed: Vec<usize> = Vec::new();
    let mut out = Vec::with_capacity(len);
    let mut k = 0usize;
    while out.len() < len {
        let h = qp_par::job_seed(seed, k);
        k += 1;
        let node = ((h >> 24) as usize) % num_nodes;
        match h % 10 {
            0..=3 => out.push(Delta::Slowdown {
                site: node,
                factor: 1.0 + 2.0 * frac(h, 8),
            }),
            4..=6 => out.push(Delta::Demand {
                loc: node,
                weight: 0.1 + 3.0 * frac(h, 8),
            }),
            7 => out.push(Delta::Slowdown {
                site: node,
                factor: 1.0,
            }),
            8 if crashed.len() < 2 && !crashed.contains(&node) => {
                crashed.push(node);
                out.push(Delta::Crash { node });
            }
            _ => {
                if !crashed.is_empty() {
                    out.push(Delta::Restore {
                        node: crashed.remove(0),
                    });
                }
            }
        }
    }
    out
}

/// A delta as a protocol request line (`f64` `Display` round-trips).
#[must_use]
pub fn wire_line(d: &Delta) -> String {
    match *d {
        Delta::Slowdown { site, factor } => format!("slowdown {site} {factor}\n"),
        Delta::Demand { loc, weight } => format!("demand {loc} {weight}\n"),
        Delta::Crash { node } => format!("crash {node}\n"),
        Delta::Restore { node } => format!("restore {node}\n"),
    }
}

fn read_line_for(i: usize, shape: &StreamShape) -> &'static str {
    if (i + 1).is_multiple_of(shape.snapshot_read_every) {
        "snapshot\n"
    } else {
        "query\n"
    }
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// A running server plus the client's connection to it.
struct Live {
    handle: JoinHandle<std::io::Result<quorumnet::daemon::server::ServeSummary>>,
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Live {
    fn start(session: Session, persistence: Persistence, sock: &Path) -> Result<Live, String> {
        let server = Server::bind(&Endpoint::Unix(sock.to_path_buf())).map_err(io_err("bind"))?;
        let stop = server.stop_flag();
        let handle = thread::spawn(move || server.run_persistent(session, persistence));
        let writer = match UnixStream::connect(sock) {
            Ok(w) => w,
            Err(e) => {
                stop.store(true, std::sync::atomic::Ordering::SeqCst);
                let _ = handle.join();
                return Err(format!("connect: {e}"));
            }
        };
        let reader = BufReader::new(writer.try_clone().map_err(io_err("clone socket"))?);
        Ok(Live {
            handle,
            writer,
            reader,
        })
    }

    /// Sends one request line and waits for the whole framed reply.
    fn request(&mut self, line: &str) -> Result<Response, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(io_err("send"))?;
        read_response(&mut self.reader).map_err(io_err("receive"))
    }

    /// Sends `shutdown` and waits for the server thread to end.
    fn stop(mut self) -> Result<(), String> {
        let reply = self.request("shutdown\n")?;
        drop(self.writer);
        drop(self.reader);
        let joined = self
            .handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        joined.map_err(io_err("server"))?;
        if reply.ok {
            Ok(())
        } else {
            Err(format!("shutdown refused: {}", reply.summary))
        }
    }
}

/// Client-observed timings of one cycle.
#[derive(Debug, Default)]
struct Cycle {
    setup_s: f64,
    stream_s: f64,
    delta_ms: Vec<f64>,
    read_ms: Vec<f64>,
    recover_s: Option<f64>,
    /// Per delta, the server's own apply + persist time, when probed.
    server_ms: Vec<f64>,
}

/// The seed of cycle `k` of a run. `job_seed` mixes `base + index`, so
/// the run seed is mixed first: runs with neighbouring seeds then share
/// no cycles.
#[must_use]
pub fn cycle_seed(run_seed: u64, k: usize) -> u64 {
    qp_par::job_seed(qp_par::job_seed(run_seed, 0), k)
}

/// The delta stream of a cycle seeded with `seed`.
fn cycle_script(shape: &StreamShape, seed: u64) -> Vec<Delta> {
    script(shape.deltas, shape.sites, qp_par::job_seed(seed, 1))
}

/// One full cycle in `dir` on the session and script seeded with
/// `seed`: set up, stream, check, shut down, recover, check again, shut
/// down. `server_probe`, when given, returns the server's cumulative
/// apply + persist milliseconds; it is read after every delta reply.
fn cycle(
    shape: &StreamShape,
    seed: u64,
    dir: &Path,
    outcome: &mut Outcome,
    server_probe: Option<&dyn Fn() -> f64>,
) -> Result<Cycle, String> {
    let deltas = cycle_script(shape, seed);
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(io_err("state dir"))?;
    let state = dir.join("state");
    let sock = dir.join("q.sock");
    let mut out = Cycle::default();

    let t = Instant::now();
    let cfg = session_config(shape, seed);
    let session = Session::new(cfg.clone()).map_err(|e| format!("session: {e}"))?;
    let persistence =
        Persistence::open(&state, shape.snapshot_every, &session).map_err(io_err("persist"))?;
    let mut live = Live::start(session, persistence, &sock)?;
    out.setup_s = t.elapsed().as_secs_f64();

    let stream = Instant::now();
    for (i, d) in deltas.iter().enumerate() {
        let t = Instant::now();
        let before = server_probe.map(|p| p());
        let reply = live.request(&wire_line(d))?;
        out.delta_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let (Some(p), Some(before)) = (server_probe, before) {
            out.server_ms.push(p() - before);
        }
        outcome.check(reply.ok, || format!("delta {i} refused: {}", reply.summary));
        let t = Instant::now();
        let reply = live.request(read_line_for(i, shape))?;
        out.read_ms.push(t.elapsed().as_secs_f64() * 1e3);
        outcome.check(reply.ok, || format!("read {i} refused: {}", reply.summary));
    }
    out.stream_s = stream.elapsed().as_secs_f64();
    let reply = live.request("check\n")?;
    outcome.check(reply.ok, || {
        format!(
            "cycle seed {seed:#x}: check after stream: {} {:?}",
            reply.summary, reply.detail
        )
    });
    live.stop()?;

    let t = Instant::now();
    let (session, report) = match recover(cfg, &state) {
        Ok(recovered) => recovered,
        Err(e) => {
            // The daemon refused to restart from its own state: a failed
            // operation, and no recovery time for this cycle.
            outcome.check(false, || format!("cycle seed {seed:#x}: recover: {e}"));
            let _ = std::fs::remove_dir_all(dir);
            return Ok(out);
        }
    };
    let persistence =
        Persistence::open(&state, shape.snapshot_every, &session).map_err(io_err("persist"))?;
    let mut live = Live::start(session, persistence, &sock)?;
    let reply = live.request("health\n")?;
    out.recover_s = Some(t.elapsed().as_secs_f64());
    outcome.check(reply.ok, || {
        format!("health after recovery: {}", reply.summary)
    });
    outcome.check(
        report.checked && report.wal_deltas == shape.wal_tail(),
        || {
            format!(
                "recovery report {report:?}, expected {} WAL deltas",
                shape.wal_tail()
            )
        },
    );
    let reply = live.request("check\n")?;
    outcome.check(reply.ok, || {
        format!("check after recovery: {}", reply.summary)
    });
    live.stop()?;
    let _ = std::fs::remove_dir_all(dir);
    Ok(out)
}

/// Runs the stream workload: cycles until `cfg.seconds` have elapsed and
/// at least `shape.min_samples` deltas were sent, cycle `k` on the
/// session and script seeded with [`cycle_seed`]`(seed, k)`, so a run's
/// medians span several topologies. A traced run then repeats cycle 0
/// with the counters installed, reading the daemon's own per-delta
/// timings, and replays it directly under spans.
///
/// # Errors
///
/// A message when the server cannot be set up or the socket fails.
pub fn run(shape: &StreamShape, cfg: &RunConfig) -> Result<WorkloadResult, String> {
    let mut result = WorkloadResult::default();
    let mut cycles = Vec::new();
    let start = Instant::now();
    while cycles.len() * shape.deltas < shape.min_samples.max(1)
        || start.elapsed().as_secs_f64() < cfg.seconds
    {
        let k = cycles.len();
        let dir = cfg.work_dir.join(format!("cycle-{k}"));
        let seed = cycle_seed(cfg.seed, k);
        cycles.push(cycle(shape, seed, &dir, &mut result.outcome, None)?);
    }
    let pooled = |f: fn(&Cycle) -> &Vec<f64>| -> Vec<f64> {
        cycles.iter().flat_map(|c| f(c).iter().copied()).collect()
    };
    let delta_ms = pooled(|c| &c.delta_ms);
    let read_ms = pooled(|c| &c.read_ms);
    let stream_s: Vec<f64> = cycles.iter().map(|c| c.stream_s).collect();
    let wall = median(&stream_s);
    let m = &mut result.metrics;
    m.insert(
        "setup_s",
        median(&cycles.iter().map(|c| c.setup_s).collect::<Vec<_>>()),
    );
    m.insert("wall_s", wall);
    m.insert("delta_p50_ms", median(&delta_ms));
    m.insert("delta_p99_ms", quantile(&delta_ms, 0.99));
    m.insert("read_p50_ms", median(&read_ms));
    m.insert("read_p99_ms", quantile(&read_ms, 0.99));
    m.insert("delta_samples", delta_ms.len() as f64);
    m.insert("read_samples", read_ms.len() as f64);
    m.insert(
        "recover_s",
        median(
            &cycles
                .iter()
                .filter_map(|c| c.recover_s)
                .collect::<Vec<_>>(),
        ),
    );
    result.notes.push(format!(
        "cycles: {} {stream_s:.3?} s ({} deltas and {} reads each; {} delta samples \
         beyond p99; wall_s, setup_s and recover_s are medians over cycles)",
        cycles.len(),
        shape.deltas,
        shape.deltas,
        samples_beyond(delta_ms.len(), 0.99)
    ));

    if cfg.trace {
        let seed = cycle_seed(cfg.seed, 0);
        let dir = cfg.work_dir.join("traced");
        let (traced, counters) = with_counters(|counters| {
            // The daemon's own wall-clock observations of each delta:
            // `Session::apply` inside `execute`, the WAL append, and the
            // snapshot that every `snapshot_every`-th append triggers.
            let probe = || {
                [
                    "quorumd_delta_wall_ms",
                    "quorumd_wal_append_wall_ms",
                    "quorumd_snapshot_wall_ms",
                ]
                .iter()
                .map(|h| counters.histogram_sum(h))
                .sum::<f64>()
            };
            cycle(shape, seed, &dir, &mut result.outcome, Some(&probe))
        });
        let traced = traced?;
        counters.fill(&mut result.metrics);
        let base = cycles[0].stream_s;
        result
            .metrics
            .insert("trace.overhead_share", (traced.stream_s - base) / base);
        // What the server adds beyond applying and persisting, paired per
        // delta within one run: socket, parsing, formatting, the session
        // mutex, thread wake-ups.
        let wire: Vec<f64> = traced
            .delta_ms
            .iter()
            .zip(&traced.server_ms)
            .map(|(client, server)| client - server)
            .collect();
        result.metrics.insert("server.wire_p50_ms", median(&wire));
        let tracer = Tracer::new();
        let dir = cfg.work_dir.join("replay");
        direct_replay(shape, seed, &dir, &tracer, &mut result)?;
        result.notes.push(tracer.stage_table());
        result.spans_jsonl = Some(tracer.to_jsonl());
    }
    Ok(result)
}

/// Drives the same stream straight through `Session::apply`,
/// `Persistence::record`, the server's `execute` for reads, and
/// `recover`, each call under a span.
fn direct_replay(
    shape: &StreamShape,
    seed: u64,
    dir: &Path,
    tr: &Tracer,
    result: &mut WorkloadResult,
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let state: PathBuf = dir.join("state");
    let deltas = cycle_script(shape, seed);
    let cfg = session_config(shape, seed);
    let mut session = tr
        .time("session.new", || Session::new(cfg.clone()))
        .map_err(|e| format!("session: {e}"))?;
    let mut persistence = tr
        .time("persist.open", || {
            Persistence::open(&state, shape.snapshot_every, &session)
        })
        .map_err(io_err("persist"))?;
    let outcome = &mut result.outcome;
    let mut pivots = Vec::with_capacity(deltas.len());
    let (mut wal_ms, mut snapshot_ms) = (Vec::new(), Vec::new());
    for (i, d) in deltas.iter().enumerate() {
        let applied = tr.time("session.apply", || session.apply(d));
        if let Ok(report) = &applied {
            pivots.push(report.answer.pivots as f64);
        }
        outcome.check(applied.is_ok(), || {
            format!("replayed delta {i} refused: {:?}", applied.err())
        });
        let t = Instant::now();
        tr.time("persist.record", || persistence.record(d, &session))
            .map_err(io_err("persist"))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if persistence.wal_entries() == 0 {
            snapshot_ms.push(ms);
        } else {
            wal_ms.push(ms);
        }
        let read = if read_line_for(i, shape).starts_with("snapshot") {
            Command::Snapshot
        } else {
            Command::Query
        };
        let reply = tr.time("server.read", || execute(&mut session, read));
        outcome.check(reply.ok, || {
            format!("replayed read {i} refused: {}", reply.summary)
        });
    }
    drop(persistence);
    let check = tr.time("session.check", || session.cold_check());
    outcome.check(check.as_ref().is_ok_and(|c| c.ok), || {
        format!("replay cold check: {check:?}")
    });
    let recovered = tr.time("recover.run", || recover(cfg, &state));
    let apply = tr.durations_ms("session.apply");
    let m = &mut result.metrics;
    let new_s = tr.total("session.new");
    m.insert("session.new_s", new_s);
    m.insert("session.apply_p50_ms", median(&apply));
    m.insert("session.apply_p99_ms", quantile(&apply, 0.99));
    m.insert("session.delta_pivots_mean", mean(&pivots));
    m.insert("persist.wal_append_p50_ms", median(&wal_ms));
    m.insert("persist.wal_append_p99_ms", quantile(&wal_ms, 0.99));
    m.insert("persist.snapshot_ms", median(&snapshot_ms));
    match recovered {
        Ok((session, report)) => {
            let check = tr.time("recover.cold_check", || session.cold_check());
            outcome.check(check.as_ref().is_ok_and(|c| c.ok), || {
                format!("recovered cold check: {check:?}")
            });
            let check_s = tr.total("recover.cold_check");
            m.insert("recover.replayed_deltas", report.wal_deltas as f64);
            m.insert("recover.cold_check_s", check_s);
            // `recover` opens a fresh session, replays the WAL and
            // cold-checks; the replay is what remains once the other two
            // are taken out.
            m.insert(
                "recover.replay_s",
                tr.total("recover.run") - new_s - check_s,
            );
        }
        Err(e) => outcome.check(false, || format!("replay recover: {e}")),
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}
