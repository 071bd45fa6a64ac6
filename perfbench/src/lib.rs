//! The repository benchmark.
//!
//! Four workloads drive the program only through its public functions and
//! time those calls from the outside (see `README.md` in this directory
//! for why each workload exists and which layer each metric watches):
//!
//! * [`longterm`] — the §4/§6 batch pipeline at two threads;
//! * [`pingmesh`] — the §5.1 ping week through the streaming sink;
//! * [`service`] — the always-on daemon under an open-loop query stream;
//! * [`fabric`] — the `longterm` mesh collected by worker subprocesses.
//!
//! A run repeats its workload's *pass* (one complete result, from the
//! first probe to the last analysis) until the time budget is spent,
//! checks every pass against recorded references, and reports medians.
//! A traced run alternates untraced and traced passes: the traced ones
//! install an [`s2s_obs::Registry`] and the bench-owned timers that give
//! the per-layer numbers, the untraced ones give the tracing overhead.

pub mod fabric;
pub mod longterm;
pub mod metrics;
pub mod pingmesh;
pub mod procfs;
pub mod service;
pub mod world;

use metrics::{median, Metrics};
use procfs::Elapsed;
use std::path::PathBuf;
use std::time::Instant;
use world::{Reference, World};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The batch traceroute pipeline.
    Longterm,
    /// The §5.1 ping week.
    Pingmesh,
    /// The always-on service.
    Service,
    /// The multi-process campaign fabric.
    Fabric,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Longterm,
        Workload::Pingmesh,
        Workload::Service,
        Workload::Fabric,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Longterm => "longterm",
            Workload::Pingmesh => "pingmesh",
            Workload::Service => "service",
            Workload::Fabric => "fabric",
        }
    }

    /// Busy campaign threads in this process (the fabric's coordinator
    /// analyses at two threads; its workers run one each).
    pub fn threads(self) -> usize {
        match self {
            Workload::Longterm | Workload::Fabric => 2,
            Workload::Pingmesh | Workload::Service => 1,
        }
    }
}

/// Everything one benchmark run needs.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seeds the generated inputs: the open-loop request stream (which
    /// pairs and query kinds, and the arrival phase).
    pub seed: u64,
    /// Measuring budget: passes repeat until the next one would overrun it.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// The simulated world and mesh sizes.
    pub world: World,
    /// Expected outputs; `None` records them instead of checking (the run
    /// is then reported as not correct).
    pub reference: Option<Reference>,
    /// Scratch directory for checkpoints, snapshots and worker files;
    /// removed when the run ends.
    pub work_dir: PathBuf,
    /// Where the fabric coordinator writes shard snapshots (exported as
    /// `S2S_SNAPSHOT_DIR`, which the program reads); inside `work_dir`.
    pub snapshot_dir: PathBuf,
    /// The executable fabric workers are launched from (this benchmark's
    /// own binary, which answers the `worker` subcommand).
    pub worker_exe: PathBuf,
}

impl RunConfig {
    /// Drops every inherited `S2S_*` knob, so the caller's environment
    /// cannot change what is measured, then sets the workload's own: its
    /// thread count and, for the fabric, the shard snapshot directory.
    /// Call before any thread starts: it edits the process environment.
    pub fn isolate_env(&self) {
        for (k, _) in std::env::vars_os() {
            if k.to_string_lossy().starts_with("S2S_") {
                std::env::remove_var(k);
            }
        }
        std::env::set_var("S2S_THREADS", self.workload.threads().to_string());
        if self.workload == Workload::Fabric {
            std::env::set_var("S2S_SNAPSHOT_DIR", &self.snapshot_dir);
        }
    }
}

/// Open-loop request rate, per second, shared by every workload.
pub const QUERY_RATE: f64 = 100.0;

/// World builds timed before the first pass.
pub const SETUP_BUILDS: usize = 11;

/// World builds timed after every pass.
pub const SETUP_BUILDS_PER_PASS: usize = 8;

/// The outcome of one run: what the last stdout line reports.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Every pass matched its references.
    pub correct: bool,
    /// Operations the benchmark asked of the program, over every pass:
    /// scheduled slots plus service queries.
    pub attempted: u64,
    /// Of those, the ones the program failed: service queries answered
    /// `err`. A slot whose probe the simulated network lost is not one —
    /// the program reported the loss correctly (the reference digests
    /// pin it) — but `failed_share` counts it, as a measurement outcome.
    pub failed: u64,
    /// The metrics, end-to-end or per-layer.
    pub metrics: Metrics,
    /// Context for reading an outlier (steal share, generator lateness,
    /// absolute service timings); never compared.
    pub diagnostics: Metrics,
    /// Outputs observed, for recording references.
    pub observed: Option<Reference>,
}

/// What one pass reports back to the run loop.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Time from the first probe to the complete result.
    pub time: Elapsed,
    /// Scheduled records (slots), delivered or lost.
    pub records: u64,
    /// Slots that carried no end-to-end RTT (lost in flight, gave up,
    /// agent down).
    pub failed_slots: u64,
    /// Open-loop request latencies, ms (service passes only; batch
    /// latencies are derived from the pass times).
    pub query_ms: Vec<f64>,
    /// Requests answered `err`.
    pub query_errors: u64,
    /// `VmHWM` over the pass and its checks, MiB (the peak is reset
    /// before every pass).
    pub peak_rss_mb: f64,
    /// Per-layer metrics of a traced pass.
    pub layers: Metrics,
    /// Pass-level diagnostics.
    pub diagnostics: Metrics,
    /// Outputs, checked against the reference after the clock stops.
    pub observed: Reference,
}

/// Runs one workload for `cfg.seconds` and reports its metrics.
pub fn run(cfg: &RunConfig) -> Result<RunReport, String> {
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("create {}: {e}", cfg.work_dir.display()))?;
    let result = run_in(cfg);
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    result
}

fn run_in(cfg: &RunConfig) -> Result<RunReport, String> {
    let mut setup = Vec::new();
    time_setup(cfg, SETUP_BUILDS, &mut setup);
    let host0 = procfs::HostTicks::now();
    let t0 = Instant::now();
    let mut passes: Vec<(bool, Pass)> = Vec::new();
    let mut mismatch = false;
    let mut observed = None;
    loop {
        // A traced run alternates untraced and traced passes, starting
        // untraced, so both halves see the same mix of cold and warm
        // process state.
        let traced = cfg.trace && passes.len() % 2 == 1;
        procfs::reset_peak_rss();
        let mut pass = match cfg.workload {
            Workload::Longterm => longterm::pass(cfg, traced)?,
            Workload::Pingmesh => pingmesh::pass(cfg, traced)?,
            Workload::Service => service::pass(cfg, traced)?,
            Workload::Fabric => fabric::pass(cfg, traced)?,
        };
        pass.peak_rss_mb = procfs::peak_rss_mb();
        if let Some(r) = &cfg.reference {
            if let Err(e) = r.check(cfg.workload, &pass.observed) {
                eprintln!(
                    "perfbench: {} pass {}: {e}",
                    cfg.workload.name(),
                    passes.len()
                );
                mismatch = true;
            }
        }
        observed.get_or_insert(pass.observed);
        passes.push((traced, pass));
        time_setup(cfg, SETUP_BUILDS_PER_PASS, &mut setup);
        let longest = passes
            .iter()
            .map(|(_, p)| p.time.wall_s)
            .fold(0.0, f64::max);
        let need = if cfg.trace { 2 } else { 1 };
        if mismatch || (passes.len() >= need && t0.elapsed().as_secs_f64() + longest > cfg.seconds)
        {
            break;
        }
    }
    let steal = procfs::HostTicks::now().steal_share_since(&host0);

    let correct = cfg.reference.is_some() && !mismatch;
    let mut report = RunReport {
        correct,
        observed,
        ..RunReport::default()
    };
    for (_, p) in &passes {
        report.attempted += p.records + p.query_ms.len() as u64;
        report.failed += p.query_errors;
    }
    report.diagnostics.push("host.steal_share", "1", steal);
    report
        .diagnostics
        .push("run.passes", "count", passes.len() as f64);
    report
        .diagnostics
        .push("run.measured_s", "s", t0.elapsed().as_secs_f64());

    let untraced: Vec<&Pass> = passes.iter().filter(|(t, _)| !t).map(|(_, p)| p).collect();
    let per_s = |ps: &[&Pass], s: fn(&Elapsed) -> f64| {
        median(ps.iter().map(|p| p.records as f64 / s(&p.time)).collect())
    };
    let rps = |ps: &[&Pass]| per_s(ps, |t| t.unstolen_s);
    report
        .diagnostics
        .push("wall.records_per_s", "1/s", per_s(&untraced, |t| t.wall_s));
    report
        .diagnostics
        .push("cpu.records_per_s", "1/s", per_s(&untraced, |t| t.cpu_s));
    if cfg.trace {
        let traced: Vec<&Pass> = passes.iter().filter(|(t, _)| *t).map(|(_, p)| p).collect();
        report.metrics = Metrics::median_of(traced.iter().map(|p| &p.layers));
        report
            .metrics
            .push("trace.overhead", "1", rps(&untraced) / rps(&traced) - 1.0);
        report
            .diagnostics
            .extend(&Metrics::median_of(traced.iter().map(|p| &p.diagnostics)));
    } else {
        let latencies: Vec<Vec<f64>> = untraced.iter().map(|p| request_latencies(cfg, p)).collect();
        let query_ms = |q: f64| {
            median(
                latencies
                    .iter()
                    .map(|l| metrics::percentile(l, q))
                    .collect(),
            )
        };
        // Batch requests are derived from the pass times and cannot fail,
        // so only the service's real queries count as operations.
        let ops: u64 = untraced
            .iter()
            .map(|p| p.records + p.query_ms.len() as u64)
            .sum();
        let failed: u64 = untraced
            .iter()
            .map(|p| p.failed_slots + p.query_errors)
            .sum();
        report.metrics.push("setup_s", "s", median(setup));
        report.metrics.push("records_per_s", "1/s", rps(&untraced));
        report.metrics.push(
            "peak_rss_mb",
            "MiB",
            median(untraced.iter().map(|p| p.peak_rss_mb).collect()),
        );
        report
            .metrics
            .push("failed_share", "1", failed as f64 / ops as f64);
        report.metrics.push("query_p50_ms", "ms", query_ms(50.0));
        report.metrics.push("query_p99_ms", "ms", query_ms(99.0));
        let count = latencies.iter().map(Vec::len).sum::<usize>();
        report
            .diagnostics
            .push("query.count", "count", count as f64);
        report
            .diagnostics
            .extend(&Metrics::median_of(untraced.iter().map(|p| &p.diagnostics)));
    }
    Ok(report)
}

/// One pass's open-loop request latencies, ms. Service passes time real
/// queries against the live daemon. For the batch workloads a request
/// asks for the study's result: requests arrive at [`QUERY_RATE`] while
/// the pass runs and each is answered when it completes — the wait a user
/// arriving at that moment sees for a fresh result. The pass is timed in
/// unstolen wall time, for the reason the `procfs` module gives.
fn request_latencies(cfg: &RunConfig, pass: &Pass) -> Vec<f64> {
    if cfg.workload == Workload::Service {
        return pass.query_ms.clone();
    }
    batch_request_latencies(pass.time.unstolen_s, QUERY_RATE, arrival_phase(cfg.seed))
}

/// Latencies (ms) of requests due every `1 / rate` s from `phase` during
/// a pass of `pass_s` seconds, each answered when the pass ends.
pub fn batch_request_latencies(pass_s: f64, rate: f64, phase: f64) -> Vec<f64> {
    (0u64..)
        .map(|k| (phase + k as f64) / rate)
        .take_while(|&due| due < pass_s)
        .map(|due| (pass_s - due) * 1e3)
        .collect()
}

/// The seeded arrival phase of the request stream, in units of the
/// inter-arrival gap: `[0, 1)`.
pub fn arrival_phase(seed: u64) -> f64 {
    (splitmix(seed) >> 11) as f64 / (1u64 << 53) as f64
}

/// The final stdout line. A run whose outputs did not match its
/// references reports no metrics; an unchecked (`record`) run reports
/// them, marked not correct.
pub fn result_line(r: &RunReport, record: bool) -> String {
    let metrics = if r.correct || record {
        r.metrics.to_json()
    } else {
        "{}".to_string()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        r.correct,
        r.attempted.max(1),
        r.failed
    )
}

/// SplitMix64: the benchmark's one seeded generator.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Times `n` back-to-back builds of the run's deterministic world (plus
/// `Service::new` for the service) into `samples`, in CPU seconds of the
/// building thread. `setup_s` is the median of every sample of the run:
/// one build takes ~10 ms and this host switches between a fast and a
/// slow mode for stretches of a few hundred ms, so the builds are spread
/// over the whole run — a block before the first pass and a few after
/// every pass — instead of all landing in one stretch.
fn time_setup(cfg: &RunConfig, n: usize, samples: &mut Vec<f64>) {
    for _ in 0..n {
        let t = procfs::thread_cpu_s();
        let scenario = std::hint::black_box(cfg.world.scenario());
        if cfg.workload == Workload::Service {
            let svc = s2s_bench::service::Service::new(&scenario, service::config(None));
            std::hint::black_box(svc.n_epochs());
        }
        samples.push(procfs::thread_cpu_s() - t);
    }
}

/// Seconds since `t`, as f64.
pub fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_requests_wait_for_the_pass_they_arrive_in() {
        // A 2 s pass at 2 requests/s: requests at 0, 0.5, 1 and 1.5 s,
        // all answered at 2 s; from phase 0.5, at 0.25, 0.75, 1.25, 1.75.
        let lat = batch_request_latencies(2.0, 2.0, 0.0);
        assert_eq!(lat, vec![2000.0, 1500.0, 1000.0, 500.0]);
        let lat = batch_request_latencies(2.0, 2.0, 0.5);
        assert_eq!(lat, vec![1750.0, 1250.0, 750.0, 250.0]);
        assert!(arrival_phase(1) >= 0.0 && arrival_phase(1) < 1.0);
        assert_ne!(arrival_phase(1), arrival_phase(2));
    }

    #[test]
    fn an_unmatched_run_prints_no_metrics() {
        let mut r = RunReport {
            correct: false,
            attempted: 10,
            ..RunReport::default()
        };
        r.metrics.push("setup_s", "s", 0.01);
        assert_eq!(
            result_line(&r, false),
            "{\"correct\": false, \"attempted\": 10, \"failed\": 0, \"metrics\": {}}"
        );
        assert!(result_line(&r, true).contains("setup_s"));
        r.correct = true;
        assert!(result_line(&r, false).contains("\"setup_s\": {\"value\": 0.01, \"unit\": \"s\"}"));
    }
}
