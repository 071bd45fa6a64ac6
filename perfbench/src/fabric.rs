//! `fabric`: the `longterm` mesh collected by `collect_longterm_fabric`
//! with [`WORKERS`] worker subprocesses at one thread each, shard
//! snapshots on, no crashes — then the same analyses as `longterm`.
//!
//! The workers are this benchmark's own binary (`perfbench worker`),
//! which runs the reproduction's worker entry point. In a traced pass
//! each worker also installs a registry and, when its shard is done,
//! writes the spans it recorded to a file the coordinator
//! sums ([`WorkerTrace`]).

use crate::longterm::{self, memo_hit_ratio, netsim_layers, probe_layers, store_layers};
use crate::metrics::{ratio, Metrics, Tracer};
use crate::procfs::PassClock;
use crate::{procfs, since, Pass, RunConfig};
use s2s_bench::fabric::{collect_longterm_fabric, worker_launcher};
use s2s_probe::FabricConfig;
use std::path::Path;
use std::time::{Duration, Instant};

/// Worker subprocesses.
pub const WORKERS: usize = 2;

/// Environment variable naming the directory a traced worker writes its
/// [`WorkerTrace`] into.
pub const TRACE_DIR_ENV: &str = "PERFBENCH_WORKER_TRACE_DIR";

/// Runs one pass.
pub fn pass(cfg: &RunConfig, traced: bool) -> Result<Pass, String> {
    let scenario = cfg.world.scenario();
    let ckpt = cfg.work_dir.join("fabric-ckpt");
    let trace_dir = cfg.work_dir.join("fabric-trace");
    // Stale worker checkpoints would be resumed instead of measured.
    for dir in [&ckpt, &trace_dir] {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let mut envs = cfg.world.worker_env();
    envs.push(("S2S_THREADS".into(), "1".into()));
    if traced {
        envs.push((TRACE_DIR_ENV.into(), trace_dir.display().to_string()));
    }
    let launcher = worker_launcher(
        cfg.worker_exe.clone(),
        vec!["worker".into()],
        "longterm",
        WORKERS,
        &ckpt,
        envs,
    );
    // No faults are injected, so a generous heartbeat timeout only keeps
    // a starved worker on a busy host from being reaped and retried.
    let fabric_cfg = FabricConfig {
        workers: WORKERS,
        heartbeat_timeout: Duration::from_secs(60),
        ..FabricConfig::default()
    };

    let tracer = traced.then(|| Tracer::install(&scenario.net));
    let children0 = procfs::children_cpu_s();
    let clock = PassClock::start();
    let collection = collect_longterm_fabric(&scenario, fabric_cfg, launcher)
        .map_err(|e| format!("fabric collection: {e}"))?;
    let collect_s = clock.stop().wall_s;
    let t_analyses = Instant::now();
    let results = longterm::analyses(&scenario, &collection.data);
    let analyses_s = since(t_analyses);
    let time = clock.stop();
    let (wall_s, cpu_s) = (time.wall_s, time.cpu_s);
    let worker_cpu = procfs::children_cpu_s() - children0;

    let stats = &collection.outcome.stats;
    if stats.lost > 0 {
        return Err(format!(
            "{} shard(s) lost with no faults injected",
            stats.lost
        ));
    }
    let store = &collection.store;
    let mut pass = Pass {
        time,
        records: collection.data.report.offered as u64,
        failed_slots: longterm::failed_slots(store),
        ..Pass::default()
    };
    pass.observed.mesh_digest = collection.digest;
    pass.observed.mesh_results = results;
    let Some(tr) = tracer else { return Ok(pass) };

    let workers = WorkerTrace::sum_dir(&trace_dir)?;
    let routing_s = workers.span_s("oracle.route_compute") + workers.span_s("oracle.epoch_config");
    let merge_s = stats.merge_ms * 1e-3;
    let timelines_s = tr.span_s("analysis.columnar");
    let memo = memo_hit_ratio(&tr);
    drop(tr);

    // The same mesh in one process, for the CPU ratio and as a live
    // cross-check of the byte-identity the reference already pins.
    let one = longterm::pass(cfg, false)?;
    if one.observed.mesh_digest != pass.observed.mesh_digest {
        return Err("fabric dataset differs from the one-process dataset".into());
    }

    let mut l = Metrics::layers();
    l.set(
        "routing.route_compute_s",
        workers.span_s("oracle.route_compute"),
    );
    l.set(
        "routing.route_computes",
        workers.span_count("oracle.route_compute") as f64,
    );
    l.set(
        "routing.epoch_config_s",
        workers.span_s("oracle.epoch_config"),
    );
    l.set("routing.self_share", routing_s / wall_s);
    let worker_run_s = workers.run_s;
    netsim_layers(&mut l, 0, 0, pass.records, worker_run_s - routing_s, wall_s);
    probe_layers(&mut l, &collection.data.report, worker_run_s);
    store_layers(&mut l, store);
    l.set("core.timelines_share", timelines_s / wall_s);
    l.set("core.memo_hit_ratio", memo);
    l.set("core.analyses_share", analyses_s / wall_s);
    l.set("fabric.collect_share", collect_s / wall_s);
    l.set("fabric.merge_share", merge_s / wall_s);
    l.set("fabric.worker_cpu_share", worker_cpu / wall_s);
    l.set("fabric.cpu_over_longterm", ratio(cpu_s, one.time.cpu_s));
    let payload: usize = collection
        .outcome
        .shards
        .iter()
        .flat_map(|s| &s.lines)
        .map(|l| l.len() + 1)
        .sum();
    l.set("fabric.payload_bytes", payload as f64);
    l.set("fabric.launches", stats.launches as f64);
    l.set("fabric.retries", stats.retries as f64);
    l.set(
        "other.self_share",
        (wall_s - collect_s - analyses_s) / wall_s,
    );
    pass.layers = l;
    pass.diagnostics
        .push("fabric.worker_cpu_s", "s", worker_cpu);
    pass.diagnostics
        .push("fabric.longterm_cpu_s", "s", one.time.cpu_s);
    Ok(pass)
}

/// The spans a traced worker recorded, plus how long its worker entry
/// point ran.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkerTrace {
    /// `(name, count, total ns)` per span.
    pub spans: Vec<(String, u64, u64)>,
    /// Wall time of the worker entry point, s (summed over workers).
    pub run_s: f64,
}

impl WorkerTrace {
    /// Captures the installed registry after the worker ran for `run_s`.
    pub fn capture(reg: &s2s_obs::Registry, run_s: f64) -> WorkerTrace {
        let snap = reg.snapshot();
        WorkerTrace {
            spans: snap
                .spans
                .into_iter()
                .map(|(n, s)| (n, s.count, s.total.as_nanos() as u64))
                .collect(),
            run_s,
        }
    }

    /// A `run <s>` line, then one `span <name> <count> <total ns>` line
    /// per span.
    pub fn to_text(&self) -> String {
        let mut out = format!("run {}\n", self.run_s);
        for (n, c, ns) in &self.spans {
            out.push_str(&format!("span {n} {c} {ns}\n"));
        }
        out
    }

    /// Adds a [`WorkerTrace::to_text`] file into `self`.
    fn absorb_text(&mut self, text: &str) -> Result<(), String> {
        for line in text.lines() {
            let f: Vec<&str> = line.split(' ').collect();
            let num = |s: &str| {
                s.parse::<u64>()
                    .map_err(|_| format!("bad worker trace line '{line}'"))
            };
            match f.as_slice() {
                ["run", s] => {
                    self.run_s += s
                        .parse::<f64>()
                        .map_err(|_| format!("bad worker trace line '{line}'"))?
                }
                ["span", n, c, ns] => {
                    let (c, ns) = (num(c)?, num(ns)?);
                    match self.spans.iter_mut().find(|(m, _, _)| m == n) {
                        Some(s) => {
                            s.1 += c;
                            s.2 += ns;
                        }
                        None => self.spans.push((n.to_string(), c, ns)),
                    }
                }
                _ => return Err(format!("bad worker trace line '{line}'")),
            }
        }
        Ok(())
    }

    /// Sums every worker's file in `dir`.
    pub fn sum_dir(dir: &Path) -> Result<WorkerTrace, String> {
        let mut sum = WorkerTrace::default();
        let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
        for entry in entries {
            let path = entry.map_err(|e| e.to_string())?.path();
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            sum.absorb_text(&text)?;
        }
        Ok(sum)
    }

    /// Total seconds under span `name`.
    pub fn span_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |s| s.2 as f64 * 1e-9)
    }

    /// Spans recorded under `name`.
    pub fn span_count(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0, |s| s.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_traces_sum_by_span_name() {
        let a = WorkerTrace {
            spans: vec![("x".into(), 2, 30), ("y".into(), 1, 5)],
            run_s: 1.5,
        };
        let b = WorkerTrace {
            spans: vec![("x".into(), 1, 10)],
            run_s: 0.5,
        };
        let mut sum = WorkerTrace::default();
        sum.absorb_text(&a.to_text()).unwrap();
        sum.absorb_text(&b.to_text()).unwrap();
        assert_eq!(sum.span_count("x"), 3);
        assert!((sum.span_s("x") - 40e-9).abs() < 1e-15);
        assert_eq!(sum.span_count("y"), 1);
        assert_eq!(sum.run_s, 2.0);
        assert!(
            sum.absorb_text("span x 1").is_err(),
            "a torn line is an error"
        );
    }
}
