//! Property: the fabric's accounting identities survive *arbitrary*
//! seeded fault schedules. Worker attempts fail by kill, stall, corrupt
//! frame, or nonzero exit at random rates; shards recover or exhaust the
//! retry budget at random; and through all of it the merged
//! [`CampaignReport`] (accepted shards plus synthesized lost-slot
//! accounting) must satisfy the offered/attempted identities, and the
//! [`FabricStats`] ledger must be internally coherent.
//!
//! Runs against an in-process scripted launcher (the coordinator cannot
//! tell), so hundreds of schedules cost milliseconds; the subprocess
//! reality check lives in `fabric_equivalence.rs`.

use proptest::prelude::*;
use s2s_probe::fabric::{
    emit_shard, read_events, shard_range, Frame, LaunchedWorker, WorkerEvent, WorkerLauncher,
};
use s2s_probe::{
    CampaignReport, Coordinator, FabricConfig, FabricFaultProfile, ShardPayload,
    WorkerFault,
};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Slots each shard offers in the scripted campaign.
const SLOTS_PER_SHARD: usize = 12;

/// A shard report with the per-process identities holding by
/// construction: a seeded split of the slots across delivered, truncated,
/// gave-up, and agent-down outcomes.
fn shard_report(shard: usize, seed: u64) -> CampaignReport {
    let mut x = seed ^ (shard as u64).wrapping_mul(0x9E3779B97F4A7C15);
    let mut draw = |max: usize| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % (max as u64 + 1)) as usize
    };
    let offered = SLOTS_PER_SHARD;
    let agent_down_slots = draw(2);
    let gave_up = draw(2);
    let truncated = draw(2);
    let delivered = offered - agent_down_slots - gave_up - truncated;
    let retried = draw(3);
    CampaignReport {
        offered,
        attempted: offered - agent_down_slots + retried,
        delivered,
        truncated,
        retried,
        gave_up,
        dropped_probes: retried + gave_up,
        stuck_probes: 0,
        agent_down_slots,
        ..CampaignReport::default()
    }
}

/// In-process workers that obey a [`FabricFaultProfile`] fate per attempt
/// and emit real frames for accepted attempts, read back through the
/// coordinator's stream reader.
struct Scripted {
    faults: FabricFaultProfile,
    report_seed: u64,
}

impl WorkerLauncher for Scripted {
    fn launch(&self, shard: usize, attempt: u32) -> io::Result<LaunchedWorker> {
        let (tx, rx) = mpsc::channel();
        let fault = self.faults.decide(shard, attempt, SLOTS_PER_SHARD);
        let report = shard_report(shard, self.report_seed);
        let killed = Arc::new(AtomicBool::new(false));
        let kflag = Arc::clone(&killed);
        std::thread::spawn(move || {
            let hello = format!("{}\n", Frame::Hello { shard, attempt }.to_line());
            let _ = read_events(hello.as_bytes(), |e| tx.send(e).is_ok());
            match fault {
                WorkerFault::None | WorkerFault::CorruptFrame => {
                    let payload = ShardPayload {
                        bytes: (0..report.delivered).map(|i| (shard + i) as u8).collect(),
                        report,
                        counters: vec![("campaign.runs".into(), 1)],
                    };
                    let mut buf = Vec::new();
                    emit_shard(
                        &mut buf,
                        shard,
                        &payload,
                        fault == WorkerFault::CorruptFrame,
                    )
                    .unwrap();
                    let _ = read_events(&buf[..], |e| tx.send(e).is_ok());
                    let _ = tx.send(WorkerEvent::Exit(Some(0)));
                }
                WorkerFault::ExitNonzero => {
                    let _ = tx.send(WorkerEvent::Exit(Some(3)));
                }
                WorkerFault::Kill { .. } => {
                    let _ = tx.send(WorkerEvent::Exit(None));
                }
                WorkerFault::Stall => {
                    while !kflag.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    let _ = tx.send(WorkerEvent::Exit(None));
                }
            }
        });
        Ok(LaunchedWorker {
            events: rx,
            kill: Box::new(move || killed.store(true, Ordering::Relaxed)),
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary rates, seeds, shard counts, worker counts, and retry
    /// budgets: the merged report's identities and the stats ledger hold.
    #[test]
    fn accounting_identities_hold_under_arbitrary_fault_schedules(
        fault_seed in any::<u64>(),
        report_seed in any::<u64>(),
        kill_rate in 0.0..0.5f64,
        stall_rate in 0.0..0.2f64,
        corrupt_rate in 0.0..0.5f64,
        exit_rate in 0.0..0.5f64,
        n_shards in 1usize..6,
        workers in 1usize..4,
        max_attempts in 1u32..4,
    ) {
        let faults = FabricFaultProfile {
            seed: fault_seed,
            kill_rate,
            stall_rate,
            corrupt_rate,
            exit_rate,
            plan: Vec::new(),
        };
        let cfg = FabricConfig {
            workers,
            max_attempts,
            heartbeat_timeout: Duration::from_millis(40),
            backoff_base_ms: 0.5,
            backoff_cap_ms: 2.0,
            seed: fault_seed,
            ..FabricConfig::default()
        };
        let launcher = Scripted { faults, report_seed };
        let out = Coordinator::new(cfg, launcher).run(n_shards).unwrap();

        // Stats ledger coherence.
        let s = &out.stats;
        prop_assert_eq!(s.shards, n_shards);
        prop_assert_eq!(s.launches, n_shards + s.retries);
        prop_assert!(s.recoveries <= s.retries);
        prop_assert_eq!(
            out.shards.iter().filter(|r| r.lost).count(),
            s.lost
        );
        let failures =
            s.timeouts + s.corrupt_frames + s.nonzero_exits + s.incomplete_streams;
        prop_assert_eq!(failures, s.retries + s.lost, "every failure retries or loses");

        // Per-shard: accepted shards carry exactly their payload (one byte
        // per delivered slot); lost shards carry nothing.
        for r in &out.shards {
            if r.lost {
                prop_assert!(r.lines.is_empty());
                prop_assert!(r.report.is_none());
                prop_assert_eq!(r.attempts, max_attempts);
            } else {
                let rep = r.report.as_ref().expect("accepted shard has a report");
                prop_assert_eq!(r.lines.iter().map(Vec::len).sum::<usize>(), rep.delivered);
            }
        }

        // Merged report with degraded-mode lost-slot synthesis — exactly
        // what the bench merge does — keeps both identities exact.
        let mut merged = out.merged_report();
        for r in out.lost_shards() {
            let slots = shard_range(n_shards * SLOTS_PER_SHARD, n_shards, r).len();
            merged.merge(&CampaignReport {
                offered: slots,
                lost_slots: slots,
                ..CampaignReport::default()
            });
        }
        prop_assert_eq!(merged.offered, n_shards * SLOTS_PER_SHARD);
        prop_assert_eq!(
            merged.offered,
            merged.delivered
                + merged.truncated
                + merged.gave_up
                + merged.agent_down_slots
                + merged.lost_slots
        );
        prop_assert_eq!(
            merged.attempted,
            merged.offered - merged.agent_down_slots - merged.lost_slots
                + merged.retried
        );
    }
}
