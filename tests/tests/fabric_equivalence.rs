//! The scale-out fabric must be invisible in the data: the merged
//! long-term dataset (archived record lines) and the merged short-term
//! sink states must be **byte-identical across {1 process, 2 workers,
//! 4 workers} × {clean, seeded crash/kill/resume schedules} × seeds ×
//! {quiet, noisy} probe-fault profiles** — real subprocess workers
//! (`fabric-worker`, the `reproduce worker` entry point), real kills,
//! real checkpoint resume. Degraded mode (a shard lost after the retry
//! budget) must keep the dataset dense and the accounting identities
//! exact.

use s2s_bench::fabric::{
    self, collect_longterm_fabric, collect_ping_fabric, store_digest, worker_launcher,
    FabricCollection,
};
use s2s_bench::{Scale, Scenario};
use s2s_probe::{
    Campaign, CampaignConfig, FabricConfig, FaultProfile, PairProfileSink, RetryPolicy,
    StreamSink,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

fn scale(seed: u64) -> Scale {
    Scale {
        seed,
        clusters: 10,
        days: 6,
        pairs: 8,
        ping_pairs: 12,
        cong_pairs: 4,
    }
}

/// The scale knobs as env vars for a worker subprocess — the worker
/// rebuilds the world from its environment and must land on the exact
/// world the test built in-process.
fn scale_envs(s: &Scale) -> Vec<(String, String)> {
    vec![
        ("S2S_SEED".into(), s.seed.to_string()),
        ("S2S_CLUSTERS".into(), s.clusters.to_string()),
        ("S2S_DAYS".into(), s.days.to_string()),
        ("S2S_PAIRS".into(), s.pairs.to_string()),
        ("S2S_PING_PAIRS".into(), s.ping_pairs.to_string()),
        ("S2S_CONG_PAIRS".into(), s.cong_pairs.to_string()),
        // Keep debug-build workers lean; results are thread-count
        // independent anyway.
        ("S2S_THREADS".into(), "2".to_string()),
    ]
}

fn quiet() -> (&'static str, FaultProfile, Vec<(String, String)>) {
    ("quiet", FaultProfile::default(), Vec::new())
}

fn noisy() -> (&'static str, FaultProfile, Vec<(String, String)>) {
    let profile = FaultProfile {
        crash_rate: 0.02,
        drop_rate: 0.05,
        stuck_rate: 0.02,
        truncate_rate: 0.05,
        ..FaultProfile::default()
    };
    let envs = vec![
        ("S2S_FAULT_CRASH".into(), "0.02".to_string()),
        ("S2S_FAULT_DROP".into(), "0.05".to_string()),
        ("S2S_FAULT_STUCK".into(), "0.02".to_string()),
        ("S2S_FAULT_TRUNC".into(), "0.05".to_string()),
    ];
    ("noisy", profile, envs)
}

static RUN_ID: AtomicUsize = AtomicUsize::new(0);

/// A fresh checkpoint dir per fabric run, removed on drop so retries
/// within a run share state but runs never do.
struct CkptDir(PathBuf);

impl CkptDir {
    fn new() -> CkptDir {
        let dir = std::env::temp_dir().join(format!(
            "s2s-fabeq-{}-{}",
            std::process::id(),
            RUN_ID.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create checkpoint dir");
        CkptDir(dir)
    }
}

impl Drop for CkptDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn fabric_cfg(workers: usize) -> FabricConfig {
    FabricConfig {
        workers,
        max_attempts: 3,
        // Faults are plan-driven in these tests; a generous timeout keeps
        // slow debug-build workers from being reaped spuriously (the
        // stall test overrides this).
        heartbeat_timeout: Duration::from_secs(120),
        backoff_base_ms: 1.0,
        backoff_cap_ms: 10.0,
        seed: 0xFAB,
        ..FabricConfig::default()
    }
}

fn launch_fabric(
    sc: &Scale,
    mode: &str,
    workers: usize,
    plan: &str,
    fault_envs: &[(String, String)],
    cfg: FabricConfig,
    ckpt: &CkptDir,
) -> (FabricConfig, s2s_probe::ProcessLauncher) {
    let mut envs = scale_envs(sc);
    envs.extend(fault_envs.iter().cloned());
    if !plan.is_empty() {
        envs.push(("S2S_FABRIC_FAULT_PLAN".into(), plan.to_string()));
    }
    let launcher = worker_launcher(
        PathBuf::from(env!("CARGO_BIN_EXE_fabric-worker")),
        Vec::new(),
        mode,
        workers,
        &ckpt.0,
        envs,
    );
    (cfg, launcher)
}

fn run_longterm(
    scenario: &Scenario,
    workers: usize,
    plan: &str,
    fault_envs: &[(String, String)],
) -> FabricCollection {
    let ckpt = CkptDir::new();
    let (cfg, launcher) = launch_fabric(
        &scenario.scale,
        "longterm",
        workers,
        plan,
        fault_envs,
        fabric_cfg(workers),
        &ckpt,
    );
    collect_longterm_fabric(scenario, cfg, launcher).expect("fabric run")
}

/// The acceptance invariant: for every seed × fault profile, the 2-worker
/// fabric under a kill/resume schedule and the 4-worker fabric under an
/// exit+corrupt schedule both produce the one-process dataset, byte for
/// byte, after recovering every injected failure.
#[test]
fn fabric_dataset_is_byte_identical_across_workers_and_crash_schedules() {
    for seed in [3u64, 11, 29] {
        let scenario = Scenario::build(scale(seed));
        for (name, profile, fault_envs) in [quiet(), noisy()] {
            let (store, _) = scenario.long_term_store_faulty(
                &fabric::longterm_pairs(&scenario),
                &profile,
                &RetryPolicy::default(),
            );
            let want = store_digest(&store);
            // Schedule A: 2 workers, kill-after-k on both shards — the
            // retry must resume from the worker-local checkpoint.
            let a = run_longterm(&scenario, 2, "kill@0.1=1;kill@1.1=2", &fault_envs);
            assert_eq!(
                a.digest, want,
                "seed {seed} {name}: 2-worker kill/resume dataset diverged"
            );
            assert_eq!(a.outcome.stats.lost, 0);
            assert_eq!(a.outcome.stats.recoveries, 2, "both kills must recover");
            assert!(a.outcome.stats.retries >= 2);
            // Schedule B: 4 workers, one plain crash and one corrupted
            // result stream — both detected, both retried clean.
            let b = run_longterm(&scenario, 4, "exit@1.1;corrupt@2.1", &fault_envs);
            assert_eq!(
                b.digest, want,
                "seed {seed} {name}: 4-worker exit+corrupt dataset diverged"
            );
            assert_eq!(b.outcome.stats.lost, 0);
            assert_eq!(b.outcome.stats.nonzero_exits, 1);
            assert_eq!(b.outcome.stats.corrupt_frames, 1);
            assert_eq!(b.outcome.stats.recoveries, 2);
            // The timelines derived from the merged store match the
            // in-process analysis exactly.
            let want_tl = s2s_core::Analysis::new(&store).timelines(&scenario.ip2asn);
            assert_eq!(a.data.timelines, want_tl, "seed {seed} {name}");
            assert_eq!(b.data.timelines, want_tl, "seed {seed} {name}");
            // Replayed pairs book as resume accounting, not re-delivery,
            // so reports aren't compared to the one-process run wholesale
            // — but the accounting identities must hold, and the kill
            // schedule must have actually resumed from a checkpoint.
            for rep in [&a.data.report, &b.data.report] {
                assert_eq!(
                    rep.offered,
                    rep.delivered
                        + rep.truncated
                        + rep.gave_up
                        + rep.agent_down_slots
                        + rep.lost_slots,
                    "seed {seed} {name}: offered identity"
                );
            }
            assert!(
                a.data.report.resumed_pairs >= 1,
                "seed {seed} {name}: kill schedule must resume from checkpoint"
            );
        }
    }
}

/// A stalled worker (hello, then silence) is reaped by the heartbeat
/// timeout and its shard recovers on retry with an identical dataset.
#[test]
fn stalled_worker_is_reaped_and_recovered() {
    let scenario = Scenario::build(scale(3));
    let (store, _) = scenario.long_term_store_faulty(
        &fabric::longterm_pairs(&scenario),
        &FaultProfile::default(),
        &RetryPolicy::default(),
    );
    let ckpt = CkptDir::new();
    let mut cfg = fabric_cfg(2);
    // Short reap clock: the stalled worker emits nothing after HELLO,
    // while healthy workers heartbeat every 100 ms.
    cfg.heartbeat_timeout = Duration::from_secs(5);
    let (cfg, launcher) = launch_fabric(
        &scenario.scale,
        "longterm",
        2,
        "stall@0.1",
        &[],
        cfg,
        &ckpt,
    );
    let run = collect_longterm_fabric(&scenario, cfg, launcher).expect("fabric run");
    assert_eq!(run.digest, store_digest(&store));
    assert_eq!(run.outcome.stats.timeouts, 1, "the stall must be reaped by timeout");
    assert_eq!(run.outcome.stats.recoveries, 1);
    assert_eq!(run.outcome.stats.lost, 0);
}

/// A shard that fails every attempt is lost, not dropped: the dataset
/// stays dense (synthesized lost rows), the accounting identities hold
/// exactly, and coverage falls below the clean run's.
#[test]
fn exhausted_retry_budget_degrades_with_exact_accounting() {
    let scenario = Scenario::build(scale(3));
    let clean = run_longterm(&scenario, 2, "", &[]);
    assert_eq!(clean.outcome.stats.lost, 0);
    let run = run_longterm(&scenario, 2, "exit@1.1;exit@1.2;exit@1.3", &[]);
    assert_eq!(run.outcome.stats.lost, 1);
    assert_eq!(run.outcome.lost_shards(), vec![1]);
    // Dense dataset: same timeline count and same slots per timeline.
    assert_eq!(run.data.timelines.len(), clean.data.timelines.len());
    let cfg = CampaignConfig::long_term(scenario.scale.days);
    let shard_pairs = fabric::longterm_pairs(&scenario).len() / 2;
    let lost_slots = shard_pairs * cfg.protocols.len() * cfg.times().len();
    let r = &run.data.report;
    assert_eq!(r.lost_slots, lost_slots, "every slot of the lost shard is booked");
    assert_eq!(
        r.offered,
        r.delivered + r.truncated + r.gave_up + r.agent_down_slots + r.lost_slots,
        "offered identity must hold in degraded mode"
    );
    assert_eq!(
        r.attempted,
        r.offered - r.agent_down_slots - r.lost_slots + r.retried,
        "attempted identity must hold in degraded mode"
    );
    assert!(run.data.coverage().fraction() < clean.data.coverage().fraction());
    assert_ne!(run.digest, clean.digest, "lost rows must be visible");
}

/// The short-term plane through the fabric: merged serialized sink states
/// equal the one-process sink campaign's, including across a kill/resume
/// schedule.
#[test]
fn fabric_sink_states_are_byte_identical() {
    let scenario = Scenario::build(scale(11));
    let (cfg, pairs) = fabric::ping_mesh(&scenario);
    let sink = PairProfileSink::for_config(&cfg);
    let (states, _) = Campaign::new(cfg)
        .sink(sink)
        .run_ping(&scenario.net, &pairs)
        .expect("in-memory campaign cannot fail");
    let (cfg2, _) = fabric::ping_mesh(&scenario);
    let sink = PairProfileSink::for_config(&cfg2);
    let want: Vec<String> = states.iter().map(|st| sink.save(st)).collect();

    for (workers, plan) in [(2usize, ""), (2, "kill@1.1=1"), (4, "exit@0.1")] {
        let ckpt = CkptDir::new();
        let (fcfg, launcher) = launch_fabric(
            &scenario.scale,
            "ping",
            workers,
            plan,
            &[],
            fabric_cfg(workers),
            &ckpt,
        );
        let (lines, report, outcome) =
            collect_ping_fabric(&scenario, fcfg, launcher).expect("fabric run");
        assert_eq!(
            lines, want,
            "{workers}-worker ping fabric (plan '{plan}') states diverged"
        );
        assert_eq!(outcome.stats.lost, 0);
        assert_eq!(
            report.offered,
            report.delivered
                + report.truncated
                + report.gave_up
                + report.agent_down_slots
                + report.lost_slots
        );
    }
}
