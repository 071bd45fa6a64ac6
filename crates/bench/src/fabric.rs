//! Bench-side driver for the scale-out campaign fabric.
//!
//! `s2s_probe::fabric` owns the mechanism — shard math, the framed stdout
//! protocol, the coordinator's retry/timeout loop. This module owns the
//! policy: what a worker process actually measures for its shard, and how
//! the coordinator turns accepted shard payloads back into the same
//! [`LongTermData`] the in-process collector produces.
//!
//! A worker sends its shard as one binary snapshot, which the coordinator
//! streams into the merged store. Two worker modes ship (`S2S_FABRIC_MODE`):
//!
//! * `longterm` — the paper's 3-hourly dual-protocol traceroute mesh. The
//!   snapshot holds the bytes [`s2s_probe::snapshot::write`] of the
//!   one-process shard store writes, so the merged dataset is
//!   byte-identical to one process (`tests/tests/fabric_equivalence.rs`).
//! * `ping` — the §5 short-term mesh through a [`PairProfileSink`]; the
//!   snapshot's `SINK` segment holds one state per (pair, protocol).
//!
//! Every worker rebuilds the world from the same `S2S_*` scale knobs it
//! inherits from the coordinator, computes its own slice with
//! [`shard_range`], and checkpoints to `<S2S_FABRIC_CKPT_DIR>/shard-<i>`
//! so a retried attempt resumes instead of remeasuring. A shard that
//! exhausts the retry budget is *degraded, never dropped*: the merge
//! synthesizes a [`lost_record`] for every slot it owned (the dataset
//! stays dense) and books the slots under
//! [`CampaignReport::lost_slots`] — the accounting identities hold and
//! coverage floors surface the loss.

use crate::experiments::LongTermData;
use crate::scenario::Scenario;
use s2s_probe::campaign::lost_record;
use s2s_probe::dataset::TraceLineWriter;
use s2s_probe::fabric::{
    emit_shard, fnv64_bytes, shard_range, Frame, HeartbeatHandle, WorkerAssignment,
    ENV_CKPT_DIR, ENV_MODE, ENV_SHARDS, FNV64_OFFSET, HEARTBEAT_INTERVAL,
};
use s2s_probe::snapshot::{self, Parts};
use s2s_probe::{
    Campaign, CampaignConfig, CampaignReport, Coordinator, FabricConfig,
    FabricFaultProfile, FabricOutcome, FaultProfile, PairProfileSink, ProcessLauncher,
    RetryPolicy, ShardPayload, Snapshot, StreamSink, TraceStore, WorkerFault, WorkerLauncher,
};
use s2s_types::{ClusterId, SimTime};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Clean run: every shard accepted. Alias of
/// [`ExitCode::Ok`](s2s_types::ExitCode::Ok) — the shared process exit
/// vocabulary lives in [`s2s_types::ExitCode`]; these constants remain
/// for callers that want the raw `i32`.
pub const EXIT_OK: i32 = s2s_types::ExitCode::Ok.code();
/// Configuration error: bad flags, bad worker assignment, unknown mode.
/// Alias of [`ExitCode::Config`](s2s_types::ExitCode::Config).
pub const EXIT_CONFIG: i32 = s2s_types::ExitCode::Config.code();
/// Campaign or worker failure: a checkpoint I/O error, a coordinator
/// launch failure, or a worker that could not finish its shard. Alias of
/// [`ExitCode::Campaign`](s2s_types::ExitCode::Campaign).
pub const EXIT_CAMPAIGN: i32 = s2s_types::ExitCode::Campaign.code();
/// Degraded result: the run completed but at least one shard was lost
/// after the retry budget, so coverage is below the offered schedule.
/// Alias of [`ExitCode::Degraded`](s2s_types::ExitCode::Degraded).
pub const EXIT_DEGRADED: i32 = s2s_types::ExitCode::Degraded.code();

/// The pair sample the long-term fabric campaign runs over — the same
/// list (same salt) [`LongTermData::collect`] uses, so the fabric and the
/// in-process collector measure the identical mesh.
pub fn longterm_pairs(scenario: &Scenario) -> Vec<(ClusterId, ClusterId)> {
    scenario.sample_pair_list(scenario.scale.pairs / 2, 0x10e6)
}

/// The pair sample and schedule of the fabric's short-term ping mesh:
/// `ping_pairs` unordered pairs, one week of 15-minute samples starting
/// mid-study (routing dynamics and congestion in full swing).
pub fn ping_mesh(scenario: &Scenario) -> (CampaignConfig, Vec<(ClusterId, ClusterId)>) {
    let cfg = CampaignConfig::ping_week(SimTime::from_days(scenario.scale.days / 2));
    let pairs = scenario.sample_pair_list(scenario.scale.ping_pairs / 2, 0x5EC5);
    (cfg, pairs)
}

/// FNV-64 digest over a store's records in archived line form — the
/// byte-identity fingerprint `reproduce --workers` prints and the CI
/// crash matrix compares against the one-process run. Line form (not
/// arena bytes) so the fingerprint pins the observable record sequence,
/// independent of intern-table layout. Equal to
/// [`s2s_probe::fabric::fnv64_lines`] over every record's
/// [`traceroute_to_line`](s2s_probe::dataset::traceroute_to_line), but
/// never materializes the dataset as a `Vec<String>` (see
/// [`store_digest_fold`]).
pub fn store_digest(store: &TraceStore) -> u64 {
    store_digest_fold(FNV64_OFFSET, store)
}

/// The folding core of [`store_digest`]: continues a digest across
/// several stores. Because the digest streams record lines in order,
/// folding per-batch buffers from a `SnapshotReader` in stream order
/// yields exactly the digest of the materialized store — what lets
/// `reproduce` fingerprint a snapshot it never holds in memory.
///
/// Lines are written straight from the store's columns
/// ([`TraceLineWriter`]) in blocks of 64 records, formatted
/// on `S2S_THREADS` workers and folded in record order on the caller, so
/// the value is independent of the thread count.
pub fn store_digest_fold(h: u64, store: &TraceStore) -> u64 {
    digest_fold_on(h, store, s2s_probe::env::threads())
}

/// Records per formatted digest block: large enough that handing a block
/// between threads is noise next to formatting it (~0.2 ms of work per
/// hand-off), small enough that the recycled block buffers (at most three
/// per worker, ~30 KiB each at ~470 bytes a line) add little to the
/// resident peak.
const DIGEST_BLOCK: usize = 64;

/// [`store_digest_fold`] on an explicit number of formatting threads.
/// Block `b` goes to worker `b % threads`; each worker sends its blocks,
/// in order, through a one-slot channel and takes emptied buffers back,
/// so the caller can fold every block in record order while at most
/// three buffers per worker exist. One thread, or a store that fits in
/// one block, formats inline on the caller.
fn digest_fold_on(mut h: u64, store: &TraceStore, threads: usize) -> u64 {
    let blocks = store.len().div_ceil(DIGEST_BLOCK);
    let format_block = |w: &mut TraceLineWriter<'_>, buf: &mut String, b: usize| {
        buf.clear();
        for i in b * DIGEST_BLOCK..((b + 1) * DIGEST_BLOCK).min(store.len()) {
            w.write(buf, store.view(i));
            buf.push('\n');
        }
    };
    let threads = threads.min(blocks);
    if threads <= 1 {
        let mut w = TraceLineWriter::new(store);
        let mut buf = String::new();
        for b in 0..blocks {
            format_block(&mut w, &mut buf, b);
            h = fnv64_bytes(h, buf.as_bytes());
        }
        return h;
    }
    std::thread::scope(|s| {
        let lanes: Vec<_> = (0..threads)
            .map(|lane| {
                let (full_tx, full_rx) = mpsc::sync_channel::<String>(1);
                let (empty_tx, empty_rx) = mpsc::channel::<String>();
                s.spawn(move || {
                    let mut w = TraceLineWriter::new(store);
                    for b in (lane..blocks).step_by(threads) {
                        let mut buf = empty_rx.try_recv().unwrap_or_default();
                        format_block(&mut w, &mut buf, b);
                        if full_tx.send(buf).is_err() {
                            return;
                        }
                    }
                });
                (full_rx, empty_tx)
            })
            .collect();
        for b in 0..blocks {
            let (full_rx, empty_tx) = &lanes[b % threads];
            let buf = full_rx.recv().expect("digest worker panicked");
            h = fnv64_bytes(h, buf.as_bytes());
            let _ = empty_tx.send(buf);
        }
        h
    })
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Entry point for a fabric worker process (`reproduce worker`, or the
/// integration suite's `fabric-worker` binary). Reads the assignment and
/// mode from the environment, measures its shard, and emits the framed
/// result stream on stdout. Returns the process exit code.
pub fn worker_main() -> i32 {
    let assign = match WorkerAssignment::from_env() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fabric worker: {e}");
            return EXIT_CONFIG;
        }
    };
    let mode = std::env::var(ENV_MODE).unwrap_or_else(|_| "longterm".to_string());
    match mode.as_str() {
        "longterm" => run_worker(assign, LongTermMode),
        "ping" => run_worker(assign, PingMode),
        other => {
            eprintln!("fabric worker: unknown {ENV_MODE} '{other}' (longterm|ping)");
            EXIT_CONFIG
        }
    }
}

/// What one worker mode measures: its pair universe and the shard
/// campaign producing the payload snapshot plus a report.
trait WorkerMode {
    /// The full (unsharded) pair list of this mode's campaign.
    fn pairs(&self, scenario: &Scenario) -> Vec<(ClusterId, ClusterId)>;
    /// Runs the shard campaign over `my_pairs` and returns the payload
    /// ([`encode`]d) and the report.
    fn run(
        &self,
        scenario: &Scenario,
        my_pairs: &[(ClusterId, ClusterId)],
        campaign: Campaign,
    ) -> io::Result<(Vec<u8>, CampaignReport)>;
}

/// A shard's payload: the snapshot of `parts` and `sinks` (`fabric.encode`).
fn encode(parts: &Parts<'_>, sinks: &[String]) -> io::Result<Vec<u8>> {
    s2s_obs::timed("fabric.encode", || {
        let mut bytes = Vec::new();
        snapshot::write_parts(&mut bytes, parts, sinks, snapshot::DEFAULT_BLOCK_TRACES)?;
        Ok(bytes)
    })
}

struct LongTermMode;

impl WorkerMode for LongTermMode {
    fn pairs(&self, scenario: &Scenario) -> Vec<(ClusterId, ClusterId)> {
        longterm_pairs(scenario)
    }

    fn run(
        &self,
        scenario: &Scenario,
        my_pairs: &[(ClusterId, ClusterId)],
        campaign: Campaign,
    ) -> io::Result<(Vec<u8>, CampaignReport)> {
        let (stores, report) = campaign.run_traceroute_with(
            &scenario.net,
            my_pairs,
            scenario.long_term_opts_of(),
            |_, _, _| TraceStore::new(),
            |st, rec| st.push(&rec),
        )?;
        // Accumulator order: the one-process absorb loop's record order.
        let parts: Vec<_> = stores.iter().map(|st| (st, 0..st.len())).collect();
        Ok((encode(&parts, &[])?, report))
    }
}

struct PingMode;

impl WorkerMode for PingMode {
    fn pairs(&self, scenario: &Scenario) -> Vec<(ClusterId, ClusterId)> {
        ping_mesh(scenario).1
    }

    fn run(
        &self,
        scenario: &Scenario,
        my_pairs: &[(ClusterId, ClusterId)],
        campaign: Campaign,
    ) -> io::Result<(Vec<u8>, CampaignReport)> {
        let (cfg, _) = ping_mesh(scenario);
        let sink = PairProfileSink::for_config(&cfg);
        let (states, report) = campaign.sink(sink).run_ping(&scenario.net, my_pairs)?;
        let sink = PairProfileSink::for_config(&cfg);
        let lines: Vec<String> = states.iter().map(|st| sink.save(st)).collect();
        Ok((encode(&[], &lines)?, report))
    }
}

/// The campaign config a mode's shard runs under (must match what the
/// merge side assumes when synthesizing lost slots).
fn mode_config(mode_env: &str, scenario: &Scenario) -> CampaignConfig {
    match mode_env {
        "ping" => ping_mesh(scenario).0,
        _ => CampaignConfig::long_term(scenario.scale.days),
    }
}

fn run_worker<M: WorkerMode>(assign: WorkerAssignment, mode: M) -> i32 {
    // HELLO first — the coordinator's liveness clock starts here.
    println!(
        "{}",
        Frame::Hello { shard: assign.shard, attempt: assign.attempt }.to_line()
    );
    let _ = io::stdout().flush();

    let faults = FabricFaultProfile::from_env();
    // The fate *kind* is independent of the planned-unit count (only a
    // rate-drawn kill point uses it), so cheap fates resolve before the
    // world is built.
    match faults.decide(assign.shard, assign.attempt, 0) {
        WorkerFault::Stall => loop {
            // Injected hang: hello then silence, until the coordinator's
            // heartbeat timeout reaps us.
            std::thread::sleep(std::time::Duration::from_millis(50));
        },
        WorkerFault::ExitNonzero => return EXIT_CAMPAIGN,
        _ => {}
    }

    // Heartbeats cover the expensive part (world build + measurement).
    let hb = HeartbeatHandle::start(assign.shard, HEARTBEAT_INTERVAL);

    let scenario = Scenario::from_env();
    let all_pairs = mode.pairs(&scenario);
    let range = shard_range(all_pairs.len(), assign.shards, assign.shard);
    let mut my_pairs = all_pairs[range].to_vec();

    let fate = faults.decide(assign.shard, assign.attempt, my_pairs.len());
    let kill_at = match fate {
        WorkerFault::Kill { after_units } => Some(after_units.min(my_pairs.len())),
        _ => None,
    };
    if let Some(k) = kill_at {
        // A kill landing after pair k: measure (and checkpoint) exactly
        // the first k pairs, then die without emitting results. The
        // retry resumes those pairs from the checkpoint bit-identically.
        my_pairs.truncate(k);
    }

    let registry = Arc::new(s2s_obs::Registry::new());
    let mode_env = std::env::var(ENV_MODE).unwrap_or_else(|_| "longterm".to_string());
    let mut campaign = Campaign::new(mode_config(&mode_env, &scenario))
        .faults(FaultProfile::from_env())
        .retry(RetryPolicy::default())
        .observe(Arc::clone(&registry));
    if let Ok(dir) = std::env::var(ENV_CKPT_DIR) {
        campaign = campaign
            .checkpoint(Path::new(&dir).join(format!("shard-{}.ckpt", assign.shard)));
    }

    let run = mode.run(&scenario, &my_pairs, campaign);
    // Heartbeats must stop before the result stream: an HB line landing
    // inside a DATA frame's bytes would corrupt the payload.
    hb.stop();
    let (bytes, report) = match run {
        Ok(v) => v,
        Err(e) => {
            eprintln!("fabric worker: shard {} failed: {e}", assign.shard);
            return EXIT_CAMPAIGN;
        }
    };
    if kill_at.is_some() {
        return EXIT_CAMPAIGN;
    }

    let snap = registry.snapshot();
    let payload = ShardPayload {
        bytes,
        report,
        counters: snap.counters.into_iter().collect(),
    };
    let stdout = io::stdout();
    match emit_shard(
        &mut stdout.lock(),
        assign.shard,
        &payload,
        fate == WorkerFault::CorruptFrame,
    ) {
        Ok(()) => EXIT_OK,
        Err(e) => {
            eprintln!("fabric worker: emit failed: {e}");
            EXIT_CAMPAIGN
        }
    }
}

// ---------------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------------

/// A fabric collection run's outputs: the merged data set, the fabric's
/// per-shard results and stats, and the dataset byte-identity digest.
pub struct FabricCollection {
    /// The merged long-term data set — what [`LongTermData::collect`]
    /// would have produced in one process (plus synthesized lost rows for
    /// degraded shards).
    pub data: LongTermData,
    /// Per-shard results and fabric accounting.
    pub outcome: FabricOutcome,
    /// [`store_digest`] of the merged store.
    pub digest: u64,
    /// The merged columnar store itself, so callers can persist it
    /// ([`s2s_probe::snapshot::write_file`]) without a re-import.
    pub store: TraceStore,
}

/// A [`ProcessLauncher`] that spawns `program args…` as fabric workers in
/// `mode`, sharing `ckpt_dir` for worker-local checkpoints. Scale and
/// fault knobs travel by env inheritance; `extra_envs` lets tests pin a
/// fault plan per launcher without touching the parent process env.
pub fn worker_launcher(
    program: PathBuf,
    args: Vec<String>,
    mode: &str,
    shards: usize,
    ckpt_dir: &Path,
    extra_envs: Vec<(String, String)>,
) -> ProcessLauncher {
    let mut envs = vec![
        (ENV_SHARDS.to_string(), shards.to_string()),
        (ENV_MODE.to_string(), mode.to_string()),
        (ENV_CKPT_DIR.to_string(), ckpt_dir.display().to_string()),
    ];
    envs.extend(extra_envs);
    ProcessLauncher { program, args, envs }
}

/// Collects the long-term data set through the fabric: one shard per
/// worker slot, merged in shard order. Lost shards synthesize a
/// [`lost_record`] per slot — (pair, protocol)-major, time-minor, the
/// accumulator order of the one-process campaign — so the dataset stays
/// dense and the loss is pure accounting ([`CampaignReport::lost_slots`]
/// plus the coverage floor).
///
/// The merge (span `fabric.merge`) streams each shard's snapshot into the
/// store in shard order — identical to pushing every record sequentially
/// (the absorb-order identity pinned in the store's proptests). When
/// `S2S_SNAPSHOT_DIR` is set, the payload bytes are first written as
/// `shard-<i>.snap` there and **the file, streamed back through
/// [`s2s_probe::snapshot::absorb_files`]**, is what gets absorbed — so a
/// fabric run exercises, and its digest certifies, the out-of-core
/// persistence round trip without ever rematerializing a shard.
///
/// `cfg`'s payload ceiling is replaced by one derived from the largest
/// shard's campaign slots ([`FabricConfig::with_shard_slots`]), here and
/// in [`collect_ping_fabric`].
pub fn collect_longterm_fabric<L: WorkerLauncher>(
    scenario: &Scenario,
    cfg: FabricConfig,
    launcher: L,
) -> io::Result<FabricCollection> {
    let n_shards = cfg.workers;
    let pairs = longterm_pairs(scenario);
    let camp_cfg = CampaignConfig::long_term(scenario.scale.days);
    let cfg = cfg.with_shard_slots(max_shard_slots(pairs.len(), n_shards, &camp_cfg));
    let mut outcome = Coordinator::new(cfg, launcher).run(n_shards)?;

    let snap_dir = s2s_probe::env::snapshot_dir();
    if let Some(dir) = &snap_dir {
        std::fs::create_dir_all(dir)?;
    }

    let t_merge = Instant::now();
    let times = camp_cfg.times();
    let mut store = TraceStore::new();
    let mut report = CampaignReport::default();
    let streamed = Snapshot::options().stream(true);
    s2s_obs::timed("fabric.merge", || -> io::Result<()> {
        for s in &outcome.shards {
            if let Some(r) = &s.report {
                report.merge(r);
            }
            // A lost shard's slots become lost records: the dataset stays
            // dense and the loss is accounting.
            let lost = s.lost.then(|| {
                let range = shard_range(pairs.len(), n_shards, s.shard);
                report.merge(&lost_report(range.len(), &camp_cfg));
                let mut shard_store = TraceStore::new();
                for &(src, dst) in &pairs[range] {
                    for &proto in &camp_cfg.protocols {
                        for &t in &times {
                            shard_store.push(&lost_record(src, dst, proto, t));
                        }
                    }
                }
                shard_store
            });
            let Some(dir) = &snap_dir else {
                match &lost {
                    Some(shard_store) => store.absorb(shard_store),
                    None => drop(streamed.open_reader(s.payload())?.absorb_into(&mut store)?),
                }
                continue;
            };
            let path = dir.join(format!("shard-{}.snap", s.shard));
            match &lost {
                Some(shard_store) => snapshot::write_file(&path, shard_store, &[])?,
                None => snapshot::write_file_bytes(&path, &s.lines)?,
            };
            // Stream the file back instead of reopening it whole:
            // byte-identical to full-reopen + absorb, resident bytes
            // bounded by one shard's arena plus one batch.
            snapshot::absorb_files(&mut store, &[&path], &streamed)?;
        }
        Ok(())
    })?;
    // The coordinator timed its (trivial) result collection; the real
    // merge cost is writing and absorbing the shards, so overwrite with
    // that.
    outcome.stats.merge_ms = t_merge.elapsed().as_secs_f64() * 1e3;

    if let Some(reg) = s2s_obs::installed() {
        outcome.stats.publish(&reg, &outcome.shards);
    }
    let digest = s2s_obs::timed("dataset.digest", || store_digest(&store));
    let data = LongTermData::from_store(pairs, &store, report, &scenario.ip2asn);
    Ok(FabricCollection { data, outcome, digest, store })
}

/// The accounting of a lost shard of `pairs` pairs: every slot lost.
fn lost_report(pairs: usize, cfg: &CampaignConfig) -> CampaignReport {
    let slots = slots_of(pairs, cfg);
    CampaignReport { offered: slots, lost_slots: slots, ..CampaignReport::default() }
}

/// The campaign slots of `pairs` pairs under `cfg`.
fn slots_of(pairs: usize, cfg: &CampaignConfig) -> usize {
    pairs * cfg.protocols.len() * cfg.n_samples()
}

/// The campaign slots of the largest of `n_shards` shards of `pairs`
/// pairs: what sizes the coordinator's payload ceiling
/// ([`FabricConfig::with_shard_slots`]).
fn max_shard_slots(pairs: usize, n_shards: usize, cfg: &CampaignConfig) -> usize {
    let largest = (0..n_shards).map(|k| shard_range(pairs, n_shards, k).len()).max();
    slots_of(largest.unwrap_or(0), cfg)
}

/// One-process long-term collection plus the dataset digest — the
/// baseline the CI crash matrix compares `--workers N` digests against.
/// Identical to [`LongTermData::collect_with`] except the store's digest
/// is fingerprinted before analysis, and the store itself is returned so
/// callers can persist it as a snapshot without a re-import.
pub fn collect_longterm_digest(
    scenario: &Scenario,
    profile: &FaultProfile,
) -> (LongTermData, u64, TraceStore) {
    let pairs = longterm_pairs(scenario);
    let (store, report) =
        scenario.long_term_store_faulty(&pairs, profile, &RetryPolicy::default());
    let digest = s2s_obs::timed("dataset.digest", || store_digest(&store));
    let data = LongTermData::from_store(pairs, &store, report, &scenario.ip2asn);
    (data, digest, store)
}

/// Collects the short-term ping mesh through the fabric: the merged
/// output is the serialized [`PairProfileSink`] state lines of every
/// shard's snapshot, in shard order — byte-identical to saving the
/// one-process run's states. Lost shards contribute no states, only
/// accounting.
pub fn collect_ping_fabric<L: WorkerLauncher>(
    scenario: &Scenario,
    cfg: FabricConfig,
    launcher: L,
) -> io::Result<(Vec<String>, CampaignReport, FabricOutcome)> {
    let n_shards = cfg.workers;
    let (camp_cfg, pairs) = ping_mesh(scenario);
    let cfg = cfg.with_shard_slots(max_shard_slots(pairs.len(), n_shards, &camp_cfg));
    let outcome = Coordinator::new(cfg, launcher).run(n_shards)?;
    let mut report = CampaignReport::default();
    let mut states = Vec::new();
    for s in &outcome.shards {
        if s.lost {
            let range = shard_range(pairs.len(), n_shards, s.shard);
            report.merge(&lost_report(range.len(), &camp_cfg));
        } else {
            if let Some(r) = &s.report {
                report.merge(r);
            }
            states.extend(Snapshot::options().open_reader(s.payload())?.into_snapshot()?.0.sinks);
        }
    }
    if let Some(reg) = s2s_obs::installed() {
        outcome.stats.publish(&reg, &outcome.shards);
    }
    Ok((states, report, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;
    use s2s_probe::dataset::traceroute_to_line;

    fn micro_scenario() -> Scenario {
        Scenario::build(Scale {
            seed: 3,
            clusters: 12,
            days: 6,
            pairs: 8,
            ping_pairs: 12,
            cong_pairs: 4,
        })
    }

    /// An in-process launcher that runs the long-term shard campaign on a
    /// thread and streams real frames — the worker path without the
    /// subprocess (subprocess equivalence lives in the integration suite).
    struct InProcess {
        scenario: Arc<Scenario>,
        shards: usize,
        lose: Vec<usize>,
    }

    impl WorkerLauncher for InProcess {
        fn launch(
            &self,
            shard: usize,
            attempt: u32,
        ) -> io::Result<s2s_probe::fabric::LaunchedWorker> {
            use s2s_probe::fabric::{read_events, WorkerEvent};
            let (tx, rx) = std::sync::mpsc::channel();
            let scenario = Arc::clone(&self.scenario);
            let shards = self.shards;
            let lose = self.lose.contains(&shard);
            std::thread::spawn(move || {
                let hello = format!("{}\n", Frame::Hello { shard, attempt }.to_line());
                let mut buf = Vec::new();
                let code = if lose {
                    EXIT_CAMPAIGN
                } else {
                    let all = longterm_pairs(&scenario);
                    let mine = &all[shard_range(all.len(), shards, shard)];
                    let (bytes, report) = LongTermMode
                        .run(
                            &scenario,
                            mine,
                            Campaign::new(CampaignConfig::long_term(scenario.scale.days)),
                        )
                        .expect("in-memory campaign cannot fail");
                    let payload = ShardPayload { bytes, report, counters: Vec::new() };
                    emit_shard(&mut buf, shard, &payload, false).unwrap();
                    EXIT_OK
                };
                let stream = [hello.as_bytes(), &buf].concat();
                let _ = read_events(&stream[..], |e| tx.send(e).is_ok());
                let _ = tx.send(WorkerEvent::Exit(Some(code)));
            });
            Ok(s2s_probe::fabric::LaunchedWorker {
                events: rx,
                kill: Box::new(|| {}),
            })
        }
    }

    fn fabric_cfg(workers: usize) -> FabricConfig {
        FabricConfig {
            workers,
            max_attempts: 2,
            heartbeat_timeout: std::time::Duration::from_secs(30),
            ..FabricConfig::default()
        }
    }

    /// A synthetic store of `n` records with every optional field shape:
    /// unresponsive hops (`NO_ADDR`), hops without an RTT, a missing e2e
    /// RTT, no hops, and IPv6 addresses.
    fn edge_case_records(n: usize) -> Vec<s2s_probe::TracerouteRecord> {
        use s2s_probe::HopObs;
        use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
        (0..n)
            .map(|i| {
                let v6 = i % 3 == 0;
                let addr = |k: usize| -> IpAddr {
                    if v6 {
                        Ipv6Addr::new(0x2600, (i % 7) as u16, 0, 0, 0, 0, 0, k as u16).into()
                    } else {
                        Ipv4Addr::new(10, (i % 5) as u8, 0, k as u8).into()
                    }
                };
                let hops = (0..i % 9)
                    .map(|k| HopObs {
                        addr: (k % 4 != 2).then(|| addr(k)),
                        rtt_ms: (k % 3 != 1).then(|| (i * 7 + k) as f64 / 3.0),
                    })
                    .collect();
                s2s_probe::TracerouteRecord {
                    src: ClusterId::new((i % 11) as u32),
                    dst: ClusterId::new((i % 13) as u32),
                    proto: if v6 {
                        s2s_types::Protocol::V6
                    } else {
                        s2s_types::Protocol::V4
                    },
                    t: SimTime::from_minutes(i as u32 * 180),
                    hops,
                    reached: i % 4 != 3,
                    e2e_rtt_ms: (i % 4 != 3).then_some(i as f64 * 0.1),
                    src_addr: Some(addr(100)),
                    dst_addr: (i % 4 != 3).then(|| addr(101)),
                }
            })
            .collect()
    }

    #[test]
    fn store_digest_streams_identically_to_line_materialization() {
        // Regression pin: the digest used to materialize every record as
        // a String and hash the Vec; the streaming, block-parallel path
        // must produce the exact same value at every thread count.
        let lines_digest = |records: &[s2s_probe::TracerouteRecord]| {
            let lines: Vec<String> = records.iter().map(traceroute_to_line).collect();
            s2s_probe::fabric::fnv64_lines(&lines)
        };
        let scenario = micro_scenario();
        let (store, _) = scenario.long_term_store_faulty(
            &longterm_pairs(&scenario),
            &FaultProfile::default(),
            &RetryPolicy::default(),
        );
        assert!(!store.is_empty());
        // More than two full blocks plus a partial one.
        let edge = edge_case_records(2 * DIGEST_BLOCK + DIGEST_BLOCK / 2 + 1);
        let edge_store = TraceStore::from_records(&edge);
        assert!(edge_store.iter().any(|v| v.hop_len() == 0));
        assert!(edge_store
            .iter()
            .any(|v| v.hop_ids().contains(&s2s_probe::store::NO_ADDR)));
        assert!(edge_store
            .iter()
            .any(|v| (0..v.hop_len()).any(|k| v.hop_rtt_ms(k).is_none())));
        assert!(edge_store.iter().any(|v| v.e2e_rtt_ms().is_none()));
        for (store, want) in [
            (&store, lines_digest(&store.to_records())),
            (&edge_store, lines_digest(&edge)),
        ] {
            for threads in [1, 2, 3] {
                assert_eq!(
                    digest_fold_on(FNV64_OFFSET, store, threads),
                    want,
                    "{threads} threads"
                );
            }
            assert_eq!(store_digest(store), want);
        }
        for threads in [1, 2, 3] {
            assert_eq!(
                digest_fold_on(FNV64_OFFSET, &TraceStore::new(), threads),
                FNV64_OFFSET
            );
        }
    }

    #[test]
    fn snapshot_write_reopen_absorb_matches_direct_merge() {
        // The mechanism behind S2S_SNAPSHOT_DIR: per-shard stores written
        // as snapshots, reopened, and absorbed must merge byte-identically
        // to absorbing the in-memory shard stores.
        let scenario = micro_scenario();
        let (full, _) = scenario.long_term_store_faulty(
            &longterm_pairs(&scenario),
            &FaultProfile::default(),
            &RetryPolicy::default(),
        );
        let records = full.to_records();
        let cut = records.len() / 2;
        let shards =
            [TraceStore::from_records(&records[..cut]), TraceStore::from_records(&records[cut..])];
        let dir = std::path::Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/tmp/fabric-snap-merge"
        ));
        std::fs::create_dir_all(dir).expect("create target/tmp");
        let mut direct = TraceStore::new();
        let mut via_snapshot = TraceStore::new();
        for (i, shard) in shards.iter().enumerate() {
            direct.absorb(shard);
            let path = dir.join(format!("shard-{i}.snap"));
            s2s_probe::snapshot::write_file(&path, shard, &[]).expect("write snapshot");
            let reopened = s2s_probe::snapshot::open_file(&path).expect("reopen");
            via_snapshot.absorb(&reopened.store);
        }
        assert_eq!(store_digest(&via_snapshot), store_digest(&direct));
        assert_eq!(via_snapshot.stats(), direct.stats());
        // And the sequential-push identity the merge relies on.
        assert_eq!(store_digest(&direct), store_digest(&full));
        // The streaming absorb (what the merge actually runs now) must
        // match the full-reopen reference at any batch budget, and the
        // per-batch digest fold must equal the whole-store digest.
        let paths: Vec<_> = (0..shards.len())
            .map(|i| dir.join(format!("shard-{i}.snap")))
            .collect();
        for budget in [1usize, 7, 1 << 20] {
            let options =
                s2s_probe::Snapshot::options().stream(true).block_budget(budget);
            let mut streamed = TraceStore::new();
            let (report, _sinks) =
                s2s_probe::snapshot::absorb_files(&mut streamed, &paths, &options)
                    .expect("streaming absorb");
            assert!(report.clean(), "budget {budget}");
            assert_eq!(store_digest(&streamed), store_digest(&direct), "budget {budget}");
            assert_eq!(streamed.stats(), direct.stats(), "budget {budget}");
            let mut folded = FNV64_OFFSET;
            for path in &paths {
                let mut reader = options.open(path).expect("open shard");
                while let Some(batch) = reader.next_batch().expect("batch") {
                    folded = store_digest_fold(folded, batch);
                }
            }
            assert_eq!(folded, store_digest(&direct), "budget {budget} digest fold");
        }
    }

    #[test]
    fn fabric_collection_matches_in_process_collection() {
        let scenario = Arc::new(micro_scenario());
        let baseline = LongTermData::collect(&scenario);
        let (base_store, _) = scenario.long_term_store_faulty(
            &longterm_pairs(&scenario),
            &FaultProfile::default(),
            &RetryPolicy::default(),
        );
        for workers in [1usize, 3] {
            let launcher = InProcess {
                scenario: Arc::clone(&scenario),
                shards: workers,
                lose: Vec::new(),
            };
            let got =
                collect_longterm_fabric(&scenario, fabric_cfg(workers), launcher)
                    .unwrap();
            assert_eq!(
                got.digest,
                store_digest(&base_store),
                "{workers}-worker dataset must be byte-identical to one process"
            );
            assert_eq!(got.data.timelines, baseline.timelines);
            assert_eq!(got.data.report.delivered, baseline.report.delivered);
            assert_eq!(got.outcome.stats.lost, 0);
        }
    }

    /// An accepted shard's payload is, byte for byte, the snapshot of the
    /// one-process store's rows for that shard's pairs.
    #[test]
    fn accepted_payload_is_the_snapshot_of_the_one_process_shard() {
        let scenario = Arc::new(micro_scenario());
        let pairs = longterm_pairs(&scenario);
        let (base, _) = scenario.long_term_store_faulty(
            &pairs,
            &FaultProfile::default(),
            &RetryPolicy::default(),
        );
        let rows_per_pair = base.len() / pairs.len();
        let workers = 2;
        let launcher =
            InProcess { scenario: Arc::clone(&scenario), shards: workers, lose: Vec::new() };
        let got = collect_longterm_fabric(&scenario, fabric_cfg(workers), launcher).unwrap();
        for s in &got.outcome.shards {
            let range = shard_range(pairs.len(), workers, s.shard);
            let mut shard_store = TraceStore::new();
            for i in range.start * rows_per_pair..range.end * rows_per_pair {
                shard_store.push(&base.view(i).to_record());
            }
            let mut want = Vec::new();
            snapshot::write(&mut want, &shard_store, &[], snapshot::DEFAULT_BLOCK_TRACES)
                .unwrap();
            assert!(s.lines.concat() == want, "shard {} payload", s.shard);
        }
    }

    #[test]
    fn lost_shard_degrades_to_dense_lost_rows() {
        let scenario = Arc::new(micro_scenario());
        let workers = 3;
        let launcher = InProcess {
            scenario: Arc::clone(&scenario),
            shards: workers,
            lose: vec![1],
        };
        let got =
            collect_longterm_fabric(&scenario, fabric_cfg(workers), launcher).unwrap();
        assert_eq!(got.outcome.stats.lost, 1);
        let baseline = LongTermData::collect(&scenario);
        // The dataset stays dense: same timeline count, same slot count.
        assert_eq!(got.data.timelines.len(), baseline.timelines.len());
        let r = &got.data.report;
        assert!(r.lost_slots > 0);
        assert_eq!(
            r.offered,
            r.delivered + r.truncated + r.gave_up + r.agent_down_slots + r.lost_slots,
            "accounting identity must hold in degraded mode"
        );
        // Coverage is strictly below the clean run's.
        assert!(got.data.coverage().fraction() < baseline.coverage().fraction());
    }
}
