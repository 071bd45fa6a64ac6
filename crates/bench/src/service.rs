//! The always-on measurement service behind `reproduce serve`.
//!
//! Instead of one batch campaign, the service advances the long-term
//! schedule one epoch at a time ([`Service::advance`]): each epoch runs
//! every (pair, protocol) slot through the probe plane's per-epoch core
//! (fault decisions keyed on the global sample index, so the stream is
//! byte-identical to a batch run), appends the records to live per-slot
//! [`TraceStore`]s and [`PairProfile`]s, annotates each new row through
//! its slot store's own [`StoreAnnotator`], and folds the annotated epoch
//! into an [`Analysis`]`<`[`IncrementalState`]`>` — so the §4 analyses are
//! already computed when a query arrives, in O(pair state), never
//! O(corpus).
//!
//! Periodically (and on graceful shutdown) the service checkpoints through
//! the snapshot plane into an append-only log ([`Service::checkpoint`]):
//! each checkpoint appends one complete snapshot chunk holding only the
//! records of the epochs since the previous chunk, plus a state trailer
//! (`SERVICE|<next_epoch>` and the cumulative report line), so its cost is
//! O(epochs since the last checkpoint), not O(epochs served). Once the
//! schedule completes, the checkpoint compacts the log into one snapshot
//! of the merged store with every profile line. A restarted service
//! resumes from the log ([`Service::resume`]): it reads the chunks that
//! read cleanly, refolds the profiles from their records, and replays
//! only the epochs measured after the last one — the recovered run's
//! dataset, digest, profiles, and report are byte-identical to an
//! uninterrupted one (pinned by the tests below).
//!
//! Queries arrive as lines (stdin for `reproduce serve`, at most
//! [`MAX_QUERY_LINE`] bytes each) and are answered as single
//! `ok {json}` / `err reason` lines — see [`Service::answer`] for the
//! command set. [`serve`] answers them on their own thread while the
//! daemon measures: an epoch is measured and annotated without the query
//! lock, and only its fold runs under it; checkpoints never take it. So
//! an answer waits at most for one epoch's fold, never for a measurement,
//! an annotation or a checkpoint.
//!
//! One knob (registered in `s2s_probe::env::KNOWN_KNOBS`, resolved here
//! because its default is service policy): `S2S_SERVICE_SNAP_EVERY`
//! (checkpoint cadence in epochs).

use crate::fabric::{self, store_digest};
use crate::scenario::Scenario;
use s2s_core::congestion::{detect_profile, DetectParams};
use s2s_core::{Analysis, AnnotatedTrace, IncrementalState, StoreAnnotator};
use s2s_probe::env::ResolvedKnob;
use s2s_probe::fabric::FNV64_OFFSET;
use s2s_probe::dataset::{read_capped_line, CappedLine};
use s2s_probe::{
    snapshot, Campaign, CampaignConfig, CampaignReport, FaultProfile, PairProfile,
    PairProfileSink, RetryPolicy, StreamSink, TraceStore, TracerouteRecord,
};
use s2s_types::{ClusterId, ExitCode, Protocol, SimDuration};
use std::collections::HashMap;
use std::io::{self, BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// The longest query line `serve` reads, in bytes; a longer line is
/// answered `err query line too long` and skipped up to its newline.
pub const MAX_QUERY_LINE: usize = 64 * 1024;

/// Checkpoint cadence in epochs: the `S2S_SERVICE_SNAP_EVERY` knob when
/// set to a valid integer ≥ 1, default 8 — a crash loses at most
/// `snap_every - 1` epochs of work.
pub fn service_snap_every() -> usize {
    s2s_types::env::var_usize_at_least("S2S_SERVICE_SNAP_EVERY", 8, 1)
}

/// The service knobs, resolved for `reproduce print-config` — they live
/// here (not `s2s_probe::env`) because their defaults are service policy,
/// not measurement-plane policy.
pub fn service_knobs() -> Vec<ResolvedKnob> {
    vec![ResolvedKnob {
        name: "S2S_SERVICE_SNAP_EVERY",
        value: service_snap_every().to_string(),
        default: "8".to_string(),
        set: s2s_types::env::var_raw("S2S_SERVICE_SNAP_EVERY").is_some(),
        doc: "service checkpoint cadence, epochs",
    }]
}

/// Service policy: the checkpoint cadence, query budget and checkpoint
/// path, plus the fault/retry configuration the batch campaign would use.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Sleep between epochs, ms (0 = free-run).
    pub cadence_ms: u64,
    /// Checkpoint every this many epochs.
    pub snap_every: usize,
    /// Queries answered before `err budget`; exhaustion is reported
    /// through [`ExitCode::Query`] after the final snapshot still flushes.
    pub query_budget: usize,
    /// Checkpoint path (`None` = no persistence, crash loses everything).
    pub snapshot_path: Option<PathBuf>,
    /// Fault profile for the measurement plane.
    pub profile: FaultProfile,
    /// Retry policy for faulted slots.
    pub retry: RetryPolicy,
}

impl ServiceConfig {
    /// The `reproduce serve` policy: free-running epochs, 4096 queries,
    /// no checkpoint path (`--snapshot` sets one), and the checkpoint
    /// cadence and fault profile from the environment
    /// (`S2S_SERVICE_SNAP_EVERY`, `S2S_FAULT_*`).
    pub fn from_env() -> ServiceConfig {
        ServiceConfig {
            cadence_ms: 0,
            snap_every: service_snap_every(),
            query_budget: 4096,
            snapshot_path: None,
            profile: FaultProfile::from_env(),
            retry: RetryPolicy::default(),
        }
    }
}

/// The live state of one always-on measurement service.
///
/// Owns the long-term schedule's per-slot stores and profiles plus the
/// incremental analysis; [`Service::advance`] moves simulated time one
/// epoch, [`Service::answer`] serves one query, [`Service::checkpoint`]
/// flushes through the snapshot plane. The `reproduce serve` loop
/// ([`serve`]) wires these to a stdin/stdout line protocol.
///
/// The state is split in two. The daemon's side — the campaign, the slot
/// stores and their annotators, the report and the checkpoint log — is
/// only touched by the thread that measures. What a query reads — the
/// profiles, the incremental analysis, the epoch count and the query
/// count — sits behind one lock, which the daemon takes only while it
/// folds an annotated epoch, so [`serve`] answers queries on their own
/// thread while the next epoch is measured and annotated or a checkpoint
/// is written.
pub struct Service<'a> {
    daemon: Daemon<'a>,
    queries: Queries,
}

/// The measuring side of a [`Service`]: nothing a query reads.
struct Daemon<'a> {
    scenario: &'a Scenario,
    camp_cfg: CampaignConfig,
    campaign: Campaign,
    pairs: Vec<(ClusterId, ClusterId)>,
    sink: PairProfileSink,
    substores: Vec<TraceStore>,
    /// One annotator per slot store, grown with it; empty after a resume,
    /// which folds the recovered records through `Analysis::update`.
    annotators: Vec<StoreAnnotator>,
    report: CampaignReport,
    /// Epochs applied; the query side keeps its own copy under the lock.
    next_epoch: usize,
    resumed_from: Option<usize>,
    /// The checkpoint log this service appends to, once it has written or
    /// resumed one.
    log: Option<LogTail>,
}

/// The query side of a [`Service`]: the slot table, fixed at start, and
/// the live state behind the query lock.
struct Queries {
    slot_of: HashMap<(ClusterId, ClusterId, Protocol), usize>,
    interval: SimDuration,
    budget: usize,
    live: Mutex<Live>,
}

/// What queries read, changed only while an epoch is applied (and by the
/// query count, which answers bump).
struct Live {
    profiles: Vec<PairProfile>,
    analysis: Analysis<IncrementalState>,
    epoch: usize,
    queries: usize,
}

/// One measured epoch, not yet applied: its records in slot order, each
/// with its slot, and its campaign report.
struct Measured {
    epoch: usize,
    records: Vec<(usize, TracerouteRecord)>,
    report: CampaignReport,
}

/// One epoch in the slot stores, annotated but not yet folded: each
/// trace's slot, its row in the slot store and its annotation id in the
/// slot's annotator, in slot order.
struct AnnotatedEpoch {
    epoch: usize,
    traces: Vec<(usize, usize, u32)>,
}

/// Where a service's checkpoint log ends: the file, the length of its
/// valid prefix, and the epoch its last chunk reached.
struct LogTail {
    path: PathBuf,
    len: u64,
    epoch: usize,
}

impl<'a> Service<'a> {
    /// A fresh service over `scenario`'s long-term mesh (same pair list,
    /// schedule, and tool-history options as the batch campaign, so the
    /// finished stream is byte-identical to `reproduce run`'s).
    pub fn new(scenario: &'a Scenario, cfg: ServiceConfig) -> Service<'a> {
        let camp_cfg = CampaignConfig::long_term(scenario.scale.days);
        let campaign =
            Campaign::new(camp_cfg.clone()).faults(cfg.profile).retry(cfg.retry);
        let pairs = fabric::longterm_pairs(scenario);
        let sink = PairProfileSink::for_config(&camp_cfg);
        let mut slot_of = HashMap::new();
        let mut profiles = Vec::new();
        for (pi, &(s, d)) in pairs.iter().enumerate() {
            for (qi, &p) in camp_cfg.protocols.iter().enumerate() {
                slot_of.insert((s, d, p), pi * camp_cfg.protocols.len() + qi);
                profiles.push(sink.init(s, d, p));
            }
        }
        let substores = (0..profiles.len()).map(|_| TraceStore::new()).collect();
        let annotators = (0..profiles.len()).map(|_| StoreAnnotator::new()).collect();
        let queries = Queries {
            slot_of,
            interval: camp_cfg.interval,
            budget: cfg.query_budget,
            live: Mutex::new(Live {
                profiles,
                analysis: Analysis::new(IncrementalState::new()),
                epoch: 0,
                queries: 0,
            }),
        };
        let daemon = Daemon {
            scenario,
            camp_cfg,
            campaign,
            pairs,
            sink,
            substores,
            annotators,
            report: CampaignReport::default(),
            next_epoch: 0,
            resumed_from: None,
            log: None,
        };
        Service { daemon, queries }
    }

    /// Total epochs in the schedule.
    pub fn n_epochs(&self) -> usize {
        self.daemon.n_epochs()
    }

    /// The next epoch to measure (== epochs already folded).
    pub fn next_epoch(&self) -> usize {
        self.daemon.next_epoch
    }

    /// The epoch this service resumed from, if it recovered a checkpoint.
    pub fn resumed_from(&self) -> Option<usize> {
        self.daemon.resumed_from
    }

    /// The merged campaign report so far (per-epoch reports summed — equal
    /// to the batch report once the schedule completes).
    pub fn report(&self) -> &CampaignReport {
        &self.daemon.report
    }

    /// The live incremental analysis.
    pub fn analysis(&mut self) -> &Analysis<IncrementalState> {
        &self.queries.live_mut().analysis
    }

    /// The live per-slot profiles (pair-major, protocol-minor).
    pub fn profiles(&mut self) -> &[PairProfile] {
        &self.queries.live_mut().profiles
    }

    /// Measures one epoch: every (pair, protocol) slot probes once, the
    /// records append to the live stores/profiles, and the epoch's traces
    /// fold into the incremental analysis. Returns `false` (and does
    /// nothing) once the schedule is complete.
    pub fn advance(&mut self) -> bool {
        match self.daemon.measure() {
            Some(m) => {
                self.daemon.apply(&self.queries, m);
                true
            }
            None => false,
        }
    }

    /// The dataset so far, merged in slot order — the exact record
    /// sequence (pair-major, time within each slot) the batch campaign's
    /// merged store holds after the same number of epochs.
    pub fn merged_store(&self) -> TraceStore {
        let mut merged = TraceStore::new();
        for st in &self.daemon.substores {
            merged.absorb(st);
        }
        merged
    }

    /// The dataset digest so far — comparable against the `long-term
    /// dataset digest` line a batch `reproduce run` prints. Folded over
    /// the slot stores in slot order, which equals the digest of
    /// [`Service::merged_store`] (absorb keeps record order) without
    /// building the merge.
    pub fn digest(&self) -> u64 {
        s2s_obs::timed("dataset.digest", || {
            self.daemon
                .substores
                .iter()
                .fold(FNV64_OFFSET, fabric::store_digest_fold)
        })
    }

    /// Flushes a checkpoint to `path`; returns the bytes written.
    ///
    /// Before the schedule completes, the checkpoint appends one chunk to
    /// the log at `path`: a complete snapshot of the records of the epochs
    /// since the previous chunk (each slot's rows, in slot order) with the
    /// sink lines `SERVICE|<next_epoch>` and the cumulative report line.
    /// Its cost is O(epochs since the last checkpoint). A service that has
    /// neither written nor resumed the log at `path` replaces the file
    /// with a first chunk instead, so a stale file there is never
    /// extended. Appends cut the file back to the end of its last valid
    /// chunk first, dropping whatever a torn write left there.
    ///
    /// Once the schedule is complete, the checkpoint compacts the log: the
    /// merged store with sink lines `SERVICE|<n_epochs>`, the report and
    /// every profile line, as one snapshot written to a `.tmp` sibling and
    /// renamed into place — the file `snapshot::open_file` reopens.
    ///
    /// A checkpoint reads only the daemon's side (slot stores, report, log
    /// tail); only the compaction takes the query lock, to copy the
    /// profile lines.
    pub fn checkpoint(&mut self, path: &Path) -> io::Result<u64> {
        self.daemon.checkpoint(&self.queries, path)
    }

    /// Reopens a checkpoint log and rebuilds the live state.
    ///
    /// Chunks are read in order, each strictly, and each must hold
    /// exactly one record per slot for every epoch from the previous
    /// chunk's `SERVICE` epoch (0 for the first) to its own, with every
    /// record in a known slot. A chunk's records go back into their slot
    /// stores, fold through the profile sink in per-slot epoch order (what
    /// [`Service::advance`] does live) and fold into the incremental
    /// analysis as one delta (split invariance makes that byte-identical
    /// to the epoch-by-epoch folds it replaces). The first chunk may be a
    /// compacted snapshot, or one written before checkpoints were
    /// append-only, that carries every profile line; those lines must
    /// equal the refolded profiles.
    ///
    /// The log is valid up to the last chunk that reads and validates
    /// cleanly: anything after it (a torn append, flipped bits) is cut off
    /// before the next append, and its epochs replay exactly. The caller
    /// then replays epochs `resumed_from()..`. A log whose first chunk is
    /// not valid is an error.
    pub fn resume(
        scenario: &'a Scenario,
        cfg: ServiceConfig,
        path: &Path,
    ) -> io::Result<Service<'a>> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let mut log = snapshot::LogReader::open(path)?;
        let mut svc = Service::new(scenario, cfg);
        let mut chunks = 0usize;
        while let Some(chunk) = log.next_chunk()? {
            let end = match svc.validate_chunk(&chunk, chunks == 0) {
                Ok(end) => end,
                Err(msg) if chunks == 0 => return Err(bad(msg)),
                Err(_) => break,
            };
            svc.apply_chunk(&chunk, end)?;
            chunks += 1;
            svc.daemon.log =
                Some(LogTail { path: path.to_path_buf(), len: log.offset(), epoch: end });
        }
        if chunks == 0 {
            let why = log.damage().unwrap_or("empty snapshot");
            return Err(bad(format!("checkpoint {} holds no valid chunk: {why}", path.display())));
        }
        svc.daemon.resumed_from = Some(svc.daemon.next_epoch);
        s2s_obs::inc("service.resumes");
        if let Some(reg) = s2s_obs::installed() {
            reg.gauge("service.resumed_epoch").set(svc.daemon.next_epoch as u64);
        }
        Ok(svc)
    }

    /// Checks one log chunk against the schedule and the epochs already
    /// recovered; returns the epoch the chunk reaches. Only the first
    /// chunk may carry profile lines.
    fn validate_chunk(&self, chunk: &snapshot::Snapshot, first: bool) -> Result<usize, String> {
        let (next_epoch, slots) = (self.daemon.next_epoch, self.daemon.substores.len());
        let state = chunk
            .sinks
            .first()
            .and_then(|l| l.strip_prefix("SERVICE|"))
            .ok_or("checkpoint has no SERVICE state line")?;
        let end: usize = state.parse().map_err(|_| format!("bad SERVICE epoch '{state}'"))?;
        if end > self.n_epochs() {
            return Err(format!(
                "checkpoint epoch {end} exceeds the {}-epoch schedule (different scale?)",
                self.n_epochs()
            ));
        }
        if end < next_epoch {
            return Err(format!("chunk epoch {end} precedes epoch {next_epoch}"));
        }
        let report_line = chunk.sinks.get(1).ok_or("checkpoint has no report line")?;
        CampaignReport::from_line(report_line)?;
        let profile_lines = chunk.sinks.len() - 2;
        if profile_lines != 0 && !(first && profile_lines == slots) {
            return Err(format!(
                "checkpoint has {profile_lines} profile line(s), schedule needs {slots}"
            ));
        }
        // Every slot folds exactly one record per epoch (lost slots fold a
        // synthetic row), so a chunk's size is pinned slot by slot.
        let per_slot = end - next_epoch;
        let expect = per_slot * slots;
        if chunk.store.len() != expect {
            return Err(format!(
                "checkpoint holds {} record(s), epochs {next_epoch}..{end} × {slots} slot(s) \
                 needs {expect}",
                chunk.store.len(),
            ));
        }
        let mut counts = vec![0usize; slots];
        for v in chunk.store.iter() {
            let (src, dst, proto) = (v.src(), v.dst(), v.proto());
            let slot = *self.queries.slot_of.get(&(src, dst, proto)).ok_or_else(|| {
                format!("checkpoint record for unknown slot ({src}, {dst}, {proto:?})")
            })?;
            counts[slot] += 1;
            if counts[slot] > per_slot {
                return Err(format!("checkpoint slot {slot} holds more than {per_slot} record(s)"));
            }
        }
        Ok(end)
    }

    /// Folds one validated chunk into the live state and moves to its
    /// epoch `end`.
    fn apply_chunk(&mut self, chunk: &snapshot::Snapshot, end: usize) -> io::Result<()> {
        let (daemon, queries) = (&mut self.daemon, &mut self.queries);
        let live = queries.live.get_mut().unwrap_or_else(PoisonError::into_inner);
        for v in chunk.store.iter() {
            let slot = queries.slot_of[&(v.src(), v.dst(), v.proto())];
            let epoch = daemon.substores[slot].len() as u64;
            daemon.sink.fold(&mut live.profiles[slot], epoch, v.t(), v.e2e_rtt_ms());
            daemon.substores[slot].push(&v.to_record());
        }
        live.analysis.update(&chunk.store, &daemon.scenario.ip2asn);
        daemon.report = CampaignReport::from_line(&chunk.sinks[1])
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        daemon.next_epoch = end;
        live.epoch = end;
        for (slot, line) in chunk.sinks[2..].iter().enumerate() {
            if *line != live.profiles[slot].to_line() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("checkpoint profile {slot} disagrees with its refolded records"),
                ));
            }
        }
        Ok(())
    }

    /// Answers one query line. Every response is a single line: `ok
    /// {json}` on success, `err reason` otherwise. Commands:
    ///
    /// | Query | Answer |
    /// |---|---|
    /// | `pair <src> <dst> <v4\|v6>` | RTT p5/p50/p95, mean, stddev, coverage from the slot's mergeable sketch |
    /// | `diurnal <src> <dst> <v4\|v6>` | consistent-congestion verdict from the slot's streamed profile |
    /// | `changes <src> <dst> <v4\|v6>` | folded path-change count, magnitudes, prevalence, popular path |
    /// | `advice <src> <dst>` | v4-vs-v6 preference from the two slots' median RTTs |
    /// | `stats` | epochs folded, records, groups, queries served |
    /// | `metrics` | the installed registry's counters, gauges and spans (`err no registry` without one) |
    ///
    /// All answers read O(pair state) — nothing rescans the corpus — and
    /// reflect the last epoch applied whole. After `query_budget` answers,
    /// every further query gets `err budget exhausted` (and [`serve`]
    /// exits [`ExitCode::Query`]).
    pub fn answer(&self, line: &str) -> String {
        self.queries.answer(line)
    }

    /// Queries answered so far.
    pub fn queries_answered(&self) -> usize {
        self.queries.lock().queries
    }

    /// Whether the query budget is spent.
    pub fn budget_exhausted(&self) -> bool {
        self.queries_answered() >= self.queries.budget
    }
}

impl Daemon<'_> {
    fn n_epochs(&self) -> usize {
        self.camp_cfg.n_samples()
    }

    /// The measure phase: runs the next epoch's slots and keeps their
    /// records, touching no state a query reads. `None` once the schedule
    /// is complete.
    fn measure(&self) -> Option<Measured> {
        let epoch = self.next_epoch;
        if epoch >= self.n_epochs() {
            return None;
        }
        s2s_obs::timed("service.measure", || {
            let mut records = Vec::with_capacity(self.substores.len());
            let report = self.campaign.run_traceroute_epoch(
                &self.scenario.net,
                &self.pairs,
                self.scenario.long_term_opts_of(),
                epoch,
                |slot, rec| records.push((slot, rec)),
            );
            Some(Measured { epoch, records, report })
        })
    }

    /// The apply phase: [`annotate`](Self::annotate) without the query
    /// lock, then [`fold`](Self::fold) under it.
    fn apply(&mut self, queries: &Queries, m: Measured) {
        let annotated = self.annotate(m);
        self.fold(queries, annotated);
    }

    /// Appends the epoch's records to the slot stores and annotates each
    /// through its slot's [`StoreAnnotator`] (span `service.annotate`).
    /// Takes no lock: it touches only the daemon's side.
    fn annotate(&mut self, m: Measured) -> AnnotatedEpoch {
        debug_assert_eq!(m.epoch, self.next_epoch, "epochs apply in order");
        self.report.merge(&m.report);
        let rows: Vec<(usize, usize)> = m
            .records
            .iter()
            .map(|(slot, rec)| {
                let store = &mut self.substores[*slot];
                store.push(rec);
                (*slot, store.len() - 1)
            })
            .collect();
        let map = &self.scenario.ip2asn;
        let traces = s2s_obs::timed("service.annotate", || {
            rows.into_iter()
                .map(|(slot, row)| {
                    let id = self.annotators[slot].annotate(&self.substores[slot], row, map);
                    (slot, row, id)
                })
                .collect()
        });
        AnnotatedEpoch { epoch: m.epoch, traces }
    }

    /// Copies the epoch's rows out of the slot stores into compact
    /// [`AnnotatedTrace`]s, then — under the query lock (span
    /// `service.apply`) — folds the profiles, folds the traces into the
    /// incremental analysis and moves the epoch on, so a query sees the
    /// epoch whole or not at all.
    fn fold(&mut self, queries: &Queries, e: AnnotatedEpoch) {
        let traces: Vec<(usize, AnnotatedTrace<'_>)> = e
            .traces
            .iter()
            .map(|&(slot, row, id)| {
                let v = self.substores[slot].view(row);
                (slot, AnnotatedTrace::new(v, self.annotators[slot].get(id)))
            })
            .collect();
        let mut live = queries.lock();
        s2s_obs::timed("service.apply", || {
            for (slot, tr) in &traces {
                self.sink.fold(&mut live.profiles[*slot], e.epoch as u64, tr.t(), tr.e2e_rtt_ms());
            }
            live.analysis.fold(traces.iter().map(|&(_, tr)| tr));
            live.epoch = e.epoch + 1;
        });
        drop(live);
        self.next_epoch = e.epoch + 1;
        s2s_obs::inc("service.epochs");
        s2s_obs::add("service.records", e.traces.len() as u64);
    }

    /// [`Service::checkpoint`].
    fn checkpoint(&mut self, queries: &Queries, path: &Path) -> io::Result<u64> {
        s2s_obs::timed("service.checkpoint", || self.checkpoint_inner(queries, path))
    }

    fn checkpoint_inner(&mut self, queries: &Queries, path: &Path) -> io::Result<u64> {
        let mut lines = vec![format!("SERVICE|{}", self.next_epoch), self.report.to_line()];
        let appending = self.log.as_ref().filter(|l| l.path == path);
        let complete = self.next_epoch == self.n_epochs();
        let from = if complete { 0 } else { appending.map_or(0, |l| l.epoch) };
        // Every slot store holds one row per epoch, so rows are epochs.
        let parts: Vec<_> = self.substores.iter().map(|st| (st, from..self.next_epoch)).collect();
        let (bytes, len) = match appending.map(|l| l.len).filter(|_| !complete) {
            Some(at) => {
                let bytes = snapshot::append_file(path, at, &parts, &lines)?;
                s2s_obs::inc("service.checkpoint.appended");
                (bytes, at + bytes)
            }
            None => {
                if complete {
                    lines.extend(queries.lock().profiles.iter().map(PairProfile::to_line));
                }
                let bytes = snapshot::write_file_parts(path, &parts, &lines)?;
                s2s_obs::inc(if complete {
                    "service.checkpoint.compacted"
                } else {
                    "service.checkpoint.appended"
                });
                (bytes, bytes)
            }
        };
        self.log = Some(LogTail { path: path.to_path_buf(), len, epoch: self.next_epoch });
        s2s_obs::inc("service.snapshots");
        if let Some(reg) = s2s_obs::installed() {
            reg.gauge("service.checkpoint_epoch").set(self.next_epoch as u64);
            reg.gauge("service.checkpoint_bytes").set(bytes);
        }
        Ok(bytes)
    }
}

impl Queries {
    /// The query lock. A panic while it was held (only an apply can
    /// panic under it) ends the daemon, so a poisoned lock still answers.
    fn lock(&self) -> MutexGuard<'_, Live> {
        self.live.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The live state, without locking: exclusive access needs none.
    fn live_mut(&mut self) -> &mut Live {
        self.live.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    /// [`Service::answer`]: counts the query against the budget and
    /// answers it, holding the query lock only while it reads live state.
    fn answer(&self, line: &str) -> String {
        let mut live = self.lock();
        if live.queries >= self.budget {
            drop(live);
            s2s_obs::inc("query.rejected");
            return "err budget exhausted".to_string();
        }
        live.queries += 1;
        let out = s2s_obs::timed("query.answer", || {
            if line.trim() == "metrics" {
                drop(live);
                metrics_answer(s2s_obs::installed().as_deref())
            } else {
                self.answer_inner(&live, line)
            }
        });
        s2s_obs::inc(if out.starts_with("ok") { "query.served" } else { "query.errors" });
        out
    }

    fn answer_inner(&self, live: &Live, line: &str) -> String {
        let mut it = line.split_whitespace();
        let cmd = match it.next() {
            Some(c) => c,
            None => return "err empty query".to_string(),
        };
        let args: Vec<&str> = it.collect();
        match (cmd, args.as_slice()) {
            ("pair", [s, d, p]) => self.pair_query(live, s, d, p),
            ("diurnal", [s, d, p]) => self.diurnal_query(live, s, d, p),
            ("changes", [s, d, p]) => self.changes_query(live, s, d, p),
            ("advice", [s, d]) => self.advice_query(live, s, d),
            ("stats", []) => format!(
                "ok {{\"cmd\":\"stats\",\"epochs\":{},\"records\":{},\"groups\":{},\
                 \"queries\":{}}}",
                live.epoch,
                live.analysis.source().samples(),
                live.analysis.source().len(),
                live.queries
            ),
            _ => format!(
                "err unknown query '{line}' (known: pair, diurnal, changes, advice, \
                 stats, metrics, quit)"
            ),
        }
    }

    fn slot(&self, s: &str, d: &str, p: &str) -> Result<usize, String> {
        let src = s
            .parse::<u32>()
            .map(ClusterId::new)
            .map_err(|_| format!("err bad cluster id '{s}'"))?;
        let dst = d
            .parse::<u32>()
            .map(ClusterId::new)
            .map_err(|_| format!("err bad cluster id '{d}'"))?;
        let proto = match p {
            "v4" => Protocol::V4,
            "v6" => Protocol::V6,
            other => return Err(format!("err bad protocol '{other}' (v4 or v6)")),
        };
        self.slot_of
            .get(&(src, dst, proto))
            .copied()
            .ok_or_else(|| format!("err pair ({s}, {d}, {p}) is not in the mesh"))
    }

    fn pair_query(&self, live: &Live, s: &str, d: &str, p: &str) -> String {
        let slot = match self.slot(s, d, p) {
            Ok(i) => i,
            Err(e) => return e,
        };
        let pr = &live.profiles[slot];
        format!(
            "ok {{\"cmd\":\"pair\",\"src\":{s},\"dst\":{d},\"proto\":\"{p}\",\
             \"offered\":{},\"valid\":{},\"coverage\":{},\"p5\":{},\"p50\":{},\
             \"p95\":{},\"mean\":{},\"stddev\":{}}}",
            pr.offered(),
            pr.valid_samples(),
            json_f64(Some(pr.coverage().fraction())),
            json_f64(pr.quantile(0.05)),
            json_f64(pr.quantile(0.50)),
            json_f64(pr.quantile(0.95)),
            json_f64(pr.mean()),
            json_f64(pr.stddev()),
        )
    }

    fn diurnal_query(&self, live: &Live, s: &str, d: &str, p: &str) -> String {
        let slot = match self.slot(s, d, p) {
            Ok(i) => i,
            Err(e) => return e,
        };
        let pr = &live.profiles[slot];
        // The paper's 600-of-672 floor assumes a finished one-week window;
        // a live service answers as soon as one day of samples folded.
        let params =
            DetectParams { min_valid_samples: pr.samples_per_day(), ..DetectParams::default() };
        match detect_profile(pr, &params) {
            Some(v) => format!(
                "ok {{\"cmd\":\"diurnal\",\"spread_ms\":{},\"psd_ratio\":{},\
                 \"high_variation\":{},\"consistent\":{}}}",
                json_f64(Some(v.spread_ms)),
                json_f64(v.psd_ratio),
                v.high_variation,
                v.consistent
            ),
            None => format!(
                "ok {{\"cmd\":\"diurnal\",\"verdict\":null,\"valid\":{},\
                 \"needed\":{}}}",
                pr.valid_samples(),
                params.min_valid_samples
            ),
        }
    }

    fn changes_query(&self, live: &Live, s: &str, d: &str, p: &str) -> String {
        // Reuses slot() for arg validation; the group index comes from the
        // analysis (first-seen order), not the slot table.
        if let Err(e) = self.slot(s, d, p) {
            return e;
        }
        let (src, dst) =
            (ClusterId::new(s.parse().unwrap()), ClusterId::new(d.parse().unwrap()));
        let proto = if p == "v4" { Protocol::V4 } else { Protocol::V6 };
        let state = live.analysis.source();
        let Some(gi) = state.group_index(src, dst, proto) else {
            return "ok {\"cmd\":\"changes\",\"changes\":0,\"magnitudes\":[],\
                    \"paths\":0,\"popular\":null}"
                .to_string();
        };
        let cs = state.change_stats_of(gi);
        let ps = state.path_stats_of(gi, self.interval);
        format!(
            "ok {{\"cmd\":\"changes\",\"changes\":{},\"magnitudes\":{:?},\
             \"paths\":{},\"popular\":{},\"prevalence\":{}}}",
            cs.changes,
            cs.magnitudes,
            ps.prevalence.len(),
            ps.popular.map(|i| i.to_string()).unwrap_or_else(|| "null".to_string()),
            json_f64(ps.popular.map(|i| ps.prevalence[i])),
        )
    }

    fn advice_query(&self, live: &Live, s: &str, d: &str) -> String {
        let (v4, v6) = match (self.slot(s, d, "v4"), self.slot(s, d, "v6")) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => return e,
        };
        let p4 = live.profiles[v4].quantile(0.50);
        let p6 = live.profiles[v6].quantile(0.50);
        let prefer = match (p4, p6) {
            (Some(a), Some(b)) if a <= b => "\"v4\"",
            (Some(_), Some(_)) => "\"v6\"",
            (Some(_), None) => "\"v4\"",
            (None, Some(_)) => "\"v6\"",
            (None, None) => "null",
        };
        format!(
            "ok {{\"cmd\":\"advice\",\"p50_v4\":{},\"p50_v6\":{},\"prefer\":{prefer}}}",
            json_f64(p4),
            json_f64(p6)
        )
    }
}

/// The `metrics` answer: `registry`'s counters, gauges and spans on one
/// line, keys sorted, or `err no registry`.
fn metrics_answer(registry: Option<&s2s_obs::Registry>) -> String {
    match registry {
        Some(reg) => {
            let json = reg.snapshot().to_json_line();
            format!("ok {{\"cmd\":\"metrics\",{}", &json[1..])
        }
        None => "err no registry".to_string(),
    }
}

fn json_f64(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x:.4}"),
        _ => "null".to_string(),
    }
}

/// The outcome of one [`serve`] run.
#[derive(Clone, Copy, Debug)]
pub struct ServeOutcome {
    /// The process exit code the caller should use.
    pub exit: ExitCode,
    /// Final dataset digest (also printed as the `long-term dataset
    /// digest` line).
    pub digest: u64,
    /// Epochs measured by *this* process (excludes replayed-from-snapshot
    /// history only in the sense that resumed epochs were loaded, not
    /// re-measured — `resumed_from` says where this process started).
    pub epochs_run: usize,
    /// Where the run resumed from, if it recovered a checkpoint.
    pub resumed_from: Option<usize>,
}

/// The `reproduce serve` daemon: advances epochs continuously,
/// checkpointing every `snap_every` epochs, while queries are answered on
/// their own thread as they arrive; once the schedule completes it keeps
/// serving queries until `input` closes or a `quit` line arrives.
///
/// Three threads share the work. A detached reader forwards `input`'s
/// lines, at most [`MAX_QUERY_LINE`] bytes each, to a scoped answerer,
/// which writes each answer to `output` in query order; the daemon (the
/// calling thread) measures and annotates each epoch without the query
/// lock, folds it under the lock, and writes checkpoints beside it. An
/// answer reflects the last epoch applied whole, even while the next one
/// is measured.
///
/// `quit` stops the schedule at the next epoch boundary: the epoch in
/// flight is applied whole, later lines go unanswered. EOF only ends the
/// answering — a capped `serve --epochs N < batch.txt` still measures
/// exactly N epochs, so its digest is deterministic. Shutdown — `quit`,
/// EOF, or schedule end with a closed input — always flushes a final
/// snapshot (when a path is configured) and prints the dataset digest
/// line, byte-comparable against a batch run. A daemon error (a failed
/// checkpoint write) stops the answerer and returns at once, however long
/// the input stays open. An input line longer than [`MAX_QUERY_LINE`]
/// bytes is answered `err query line too long` (counted under
/// `query.rejected`, not against the query budget) and skipped up to its
/// newline; the reader never holds more than that. Each answer's wait, from
/// its line being read to the answer being written, is booked in the
/// `query.wait_ms` histogram.
///
/// `epochs` caps how many epochs to advance (`None` = the full schedule);
/// the cap makes scripted smoke runs and kill/resume drills cheap.
pub fn serve(
    scenario: &Scenario,
    cfg: ServiceConfig,
    epochs: Option<usize>,
    input: impl BufRead + Send + 'static,
    output: &mut (impl Write + Send),
) -> io::Result<ServeOutcome> {
    let resume_path =
        cfg.snapshot_path.clone().filter(|p| p.exists());
    let mut svc = match &resume_path {
        Some(p) => {
            let svc = Service::resume(scenario, cfg.clone(), p)?;
            writeln!(
                output,
                "service: resumed from {} at epoch {}/{} — replaying {} epoch(s) \
                 of lost work",
                p.display(),
                svc.next_epoch(),
                svc.n_epochs(),
                svc.n_epochs() - svc.next_epoch()
            )?;
            let valid = svc.daemon.log.as_ref().map_or(0, |l| l.len);
            let cut = std::fs::metadata(p)?.len().saturating_sub(valid);
            if cut > 0 {
                writeln!(
                    output,
                    "service: {cut} byte(s) after the last valid checkpoint chunk will be \
                     cut at the next checkpoint"
                )?;
            }
            svc
        }
        None => Service::new(scenario, cfg.clone()),
    };
    let start_epoch = svc.next_epoch();
    let target = epochs
        .map(|e| (start_epoch + e).min(svc.n_epochs()))
        .unwrap_or_else(|| svc.n_epochs());
    writeln!(
        output,
        "service: {} slot(s) per epoch, schedule {}..{} of {} epoch(s), \
         checkpoint every {}",
        svc.daemon.substores.len(),
        start_epoch,
        target,
        svc.n_epochs(),
        cfg.snap_every
    )?;

    // The reader forwards lines so neither the daemon nor the answerer
    // blocks on a quiet input; it is detached because a blocking read of
    // stdin cannot be interrupted.
    let (tx, rx) = mpsc::channel::<Inbox>();
    let reader_tx = tx.clone();
    let mut input = input;
    std::thread::spawn(move || {
        let mut buf = Vec::with_capacity(MAX_QUERY_LINE);
        while let Ok(Some(line)) = read_query_line(&mut input, &mut buf) {
            if reader_tx.send(Inbox::Line(Instant::now(), line)).is_err() {
                return;
            }
        }
        let _ = reader_tx.send(Inbox::End);
    });

    let stop = AtomicBool::new(false);
    let Service { daemon, queries } = &mut svc;
    let queries = &*queries;
    std::thread::scope(|s| -> io::Result<()> {
        let answerer = s.spawn(|| answer_lines(queries, rx, output, &stop));
        // Wakes the answerer if the daemon returns early (or panics), so
        // the scope never waits on the input.
        let _end = EndOnDrop(tx);
        while daemon.next_epoch < target && !stop.load(Ordering::SeqCst) {
            let Some(m) = daemon.measure() else { break };
            daemon.apply(queries, m);
            if let Some(path) = &cfg.snapshot_path {
                if daemon.next_epoch % cfg.snap_every == 0 && daemon.next_epoch < target {
                    daemon.checkpoint(queries, path)?;
                }
            }
            if cfg.cadence_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(cfg.cadence_ms));
            }
        }
        answerer.join().unwrap_or_else(|p| std::panic::resume_unwind(p))
    })?;
    // Graceful shutdown: final flush, then the digest line a batch run
    // would print — byte-comparable proof the daemon measured the same
    // dataset.
    if let Some(path) = &cfg.snapshot_path {
        let bytes = svc.checkpoint(path)?;
        writeln!(
            output,
            "service: final snapshot {} — {} epoch(s), {} bytes",
            path.display(),
            svc.next_epoch(),
            bytes
        )?;
    }
    let digest = svc.digest();
    writeln!(output, "long-term dataset digest: {digest:016x}")?;
    let exit = if svc.budget_exhausted() { ExitCode::Query } else { ExitCode::Ok };
    Ok(ServeOutcome {
        exit,
        digest,
        epochs_run: svc.next_epoch() - start_epoch,
        resumed_from: svc.resumed_from(),
    })
}

/// What the answerer receives: an input line with the instant it was
/// read, or the end of answering (input EOF, or the daemon returning).
enum Inbox {
    Line(Instant, QueryLine),
    End,
}

/// Sends [`Inbox::End`] when dropped.
struct EndOnDrop(mpsc::Sender<Inbox>);

impl Drop for EndOnDrop {
    fn drop(&mut self) {
        let _ = self.0.send(Inbox::End);
    }
}

/// The answerer: answers each line in arrival order until the input ends,
/// the daemon stops it, or a `quit` line — which, like a failed write,
/// raises `stop` so the daemon ends at its next epoch boundary.
fn answer_lines(
    queries: &Queries,
    rx: mpsc::Receiver<Inbox>,
    output: &mut impl Write,
    stop: &AtomicBool,
) -> io::Result<()> {
    let wait = s2s_obs::installed()
        .map(|reg| reg.histogram("query.wait_ms", s2s_obs::DEFAULT_LATENCY_BOUNDS_MS));
    for msg in rx.iter() {
        let Inbox::Line(read_at, line) = msg else { break };
        let answer = match line {
            QueryLine::TooLong => {
                s2s_obs::inc("query.rejected");
                "err query line too long".to_string()
            }
            QueryLine::Text(l) if l.trim() == "quit" => {
                stop.store(true, Ordering::SeqCst);
                break;
            }
            QueryLine::Text(l) if l.trim().is_empty() => continue,
            QueryLine::Text(l) => queries.answer(&l),
        };
        if let Err(e) = writeln!(output, "{answer}") {
            stop.store(true, Ordering::SeqCst);
            return Err(e);
        }
        if let Some(h) = &wait {
            h.observe(read_at.elapsed().as_secs_f64() * 1e3);
        }
    }
    Ok(())
}

/// One line of `serve` input.
#[derive(Debug, PartialEq, Eq)]
enum QueryLine {
    /// A line, without its line ending.
    Text(String),
    /// A line longer than [`MAX_QUERY_LINE`] bytes, skipped up to its
    /// newline.
    TooLong,
}

/// Reads one input line through [`read_capped_line`] at
/// [`MAX_QUERY_LINE`]: `buf` never grows past the cap, and a longer line
/// comes back as [`QueryLine::TooLong`]. Invalid UTF-8 is replaced, not
/// fatal. `None` at EOF.
fn read_query_line(input: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<Option<QueryLine>> {
    Ok(read_capped_line(input, buf, MAX_QUERY_LINE)?.map(|read| match read {
        CappedLine::TooLong => QueryLine::TooLong,
        CappedLine::Line => {
            let text = String::from_utf8_lossy(buf);
            QueryLine::Text(text.trim_end_matches('\r').to_string())
        }
    }))
}

/// A batch baseline over the same mesh: the merged store, its digest, and
/// the per-slot profiles a one-shot campaign folds — what the service's
/// live state must match byte-for-byte. Used by the tests below and the
/// `service` bench section.
pub fn batch_baseline(
    scenario: &Scenario,
    profile: &FaultProfile,
    retry: &RetryPolicy,
) -> (TraceStore, u64, Vec<PairProfile>, CampaignReport) {
    let pairs = fabric::longterm_pairs(scenario);
    let camp_cfg = CampaignConfig::long_term(scenario.scale.days);
    let sink = PairProfileSink::for_config(&camp_cfg);
    let opts_of = scenario.long_term_opts_of();
    let (folded, report) = Campaign::new(camp_cfg)
        .faults(*profile)
        .retry(*retry)
        .run_traceroute_with(
            &scenario.net,
            &pairs,
            opts_of,
            |s, d, p| (TraceStore::new(), sink.init(s, d, p)),
            |(st, pr), rec| {
                // The profile fold keys on the sample instant, not the
                // sequence argument, so the batch side needs no epoch
                // bookkeeping.
                sink.fold(pr, 0, rec.t, rec.e2e_rtt_ms);
                st.push(&rec);
            },
        )
        .expect("in-memory campaign cannot fail");
    let mut merged = TraceStore::new();
    let mut profiles = Vec::with_capacity(folded.len());
    for (st, pr) in folded {
        merged.absorb(&st);
        profiles.push(pr);
    }
    let digest = store_digest(&merged);
    (merged, digest, profiles, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;
    use s2s_core::changes::{detect_changes, path_stats};

    fn tiny_scenario() -> Scenario {
        Scenario::build(Scale {
            seed: 11,
            clusters: 10,
            days: 3,
            pairs: 6,
            ping_pairs: 8,
            cong_pairs: 4,
        })
    }

    fn noisy() -> FaultProfile {
        FaultProfile {
            crash_rate: 0.02,
            drop_rate: 0.1,
            stuck_rate: 0.04,
            truncate_rate: 0.05,
            ..FaultProfile::default()
        }
    }

    fn cfg_with(profile: FaultProfile, path: Option<PathBuf>) -> ServiceConfig {
        ServiceConfig {
            cadence_ms: 0,
            snap_every: 4,
            query_budget: 64,
            snapshot_path: path,
            profile,
            retry: RetryPolicy::default(),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/tmp"));
        std::fs::create_dir_all(dir).expect("create target/tmp");
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    fn profile_lines(ps: &[PairProfile]) -> Vec<String> {
        ps.iter().map(PairProfile::to_line).collect()
    }

    #[test]
    fn service_run_is_byte_identical_to_batch() {
        for profile in [FaultProfile::default(), noisy()] {
            let scenario = tiny_scenario();
            let (batch_store, batch_digest, batch_profiles, batch_report) =
                batch_baseline(&scenario, &profile, &RetryPolicy::default());
            let mut svc = Service::new(&scenario, cfg_with(profile, None));
            while svc.advance() {}
            assert_eq!(svc.digest(), batch_digest, "dataset digest diverged");
            assert_eq!(
                svc.digest(),
                store_digest(&svc.merged_store()),
                "slot-store digest fold must equal the merged store's digest"
            );
            assert_eq!(
                format!("{:?}", svc.merged_store().iter().map(|v| v.to_record()).collect::<Vec<_>>()),
                format!("{:?}", batch_store.iter().map(|v| v.to_record()).collect::<Vec<_>>()),
                "record stream diverged"
            );
            assert_eq!(
                profile_lines(svc.profiles()),
                profile_lines(&batch_profiles),
                "profile states diverged"
            );
            assert_eq!(svc.report(), &batch_report, "merged report diverged");
            // The incremental timelines and verdicts equal a batch
            // analysis over the merged store.
            assert_folds_match_batch(&mut svc, &batch_store, profile_tag(&profile));
        }
    }

    /// The live timelines, change verdicts and prevalence datasets equal a
    /// batch `Analysis` over `store` and the batch `detect_changes` /
    /// `path_stats` over its timelines.
    fn assert_folds_match_batch(svc: &mut Service<'_>, store: &TraceStore, case: &str) {
        let interval = svc.queries.interval;
        let tls = Analysis::new(store).timelines(&svc.daemon.scenario.ip2asn);
        let a = svc.analysis();
        assert_eq!(a.timelines(), &tls[..], "{case}: timelines diverged from batch");
        assert_eq!(
            a.change_stats(),
            tls.iter().map(detect_changes).collect::<Vec<_>>(),
            "{case}: change verdicts diverged from batch"
        );
        assert_eq!(
            a.path_stats(interval),
            tls.iter().map(|tl| path_stats(tl, interval)).collect::<Vec<_>>(),
            "{case}: prevalence diverged from batch"
        );
    }

    #[test]
    fn kill_and_resume_recovers_byte_identically() {
        for profile in [FaultProfile::default(), noisy()] {
            let scenario = tiny_scenario();
            let path = tmp(&format!("service-resume-{}.snap", profile_tag(&profile)));
            let cfg = || cfg_with(profile, Some(path.clone()));
            // The uninterrupted reference run.
            let mut reference = Service::new(&scenario, cfg_with(profile, None));
            while reference.advance() {}
            // The victim: checkpoint every 4 epochs, killed mid-interval
            // (epoch 6) — everything after the epoch-4 checkpoint is lost.
            let mut victim = Service::new(&scenario, cfg());
            drive(&mut victim, &path, 6, 4);
            drop(victim); // the kill: no final flush
            let mut recovered = Service::resume(&scenario, cfg(), &path).unwrap();
            assert_eq!(recovered.resumed_from(), Some(4), "must resume at the checkpoint");
            assert_eq!(
                recovered.n_epochs() - recovered.next_epoch(),
                reference.n_epochs() - 4,
                "lost-work accounting must be exact"
            );
            // Killed again after a resume, whose slot annotators started
            // empty: epochs 4..10 ran live on them, and the epoch-8 chunk
            // holds what they annotated.
            drive(&mut recovered, &path, 10, 4);
            drop(recovered);
            let mut recovered = Service::resume(&scenario, cfg(), &path).unwrap();
            assert_eq!(recovered.resumed_from(), Some(8), "must resume at the second checkpoint");
            while recovered.advance() {}
            assert_same_state(&mut recovered, &mut reference, profile_tag(&profile));
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn annotation_runs_while_a_query_holds_the_lock() {
        let scenario = tiny_scenario();
        let mut reference = Service::new(&scenario, cfg_with(noisy(), None));
        while reference.advance() {}
        let mut svc = Service::new(&scenario, cfg_with(noisy(), None));
        svc.advance();
        let Service { daemon, queries } = &mut svc;
        let queries = &*queries;
        let (held_tx, held_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::scope(|s| {
            // A reader holds the query lock until the daemon has annotated
            // the next epoch, or gives up after a minute.
            let reader = s.spawn(move || {
                let _live = queries.lock();
                held_tx.send(()).unwrap();
                done_rx.recv_timeout(std::time::Duration::from_secs(60)).is_ok()
            });
            held_rx.recv().unwrap();
            let m = daemon.measure().expect("the schedule has epochs left");
            let annotated = daemon.annotate(m);
            let _ = done_tx.send(());
            assert!(
                reader.join().unwrap(),
                "annotation waited for the query lock"
            );
            daemon.fold(queries, annotated);
        });
        while svc.advance() {}
        assert_same_state(&mut svc, &mut reference, "annotated under a held lock");
    }

    /// Advances `svc` to epoch `until`, checkpointing to `path` every
    /// `every` epochs.
    fn drive(svc: &mut Service<'_>, path: &Path, until: usize, every: usize) {
        while svc.next_epoch() < until && svc.advance() {
            if svc.next_epoch().is_multiple_of(every) {
                svc.checkpoint(path).unwrap();
            }
        }
    }

    /// Digest, profile lines, report and timelines all byte-equal.
    fn assert_same_state(got: &mut Service<'_>, want: &mut Service<'_>, case: &str) {
        assert_eq!(got.digest(), want.digest(), "{case}: digest diverged");
        assert_eq!(
            profile_lines(got.profiles()),
            profile_lines(want.profiles()),
            "{case}: profiles diverged"
        );
        assert_eq!(got.report(), want.report(), "{case}: report diverged");
        assert_eq!(
            got.analysis().timelines(),
            want.analysis().timelines(),
            "{case}: timelines diverged"
        );
        assert_folds_match_batch(got, &want.merged_store(), case);
    }

    /// The `SERVICE` epochs of the log's chunks, its valid length and
    /// whether it ended in damage.
    fn log_epochs(path: &Path) -> (Vec<usize>, u64, bool) {
        let mut log = snapshot::LogReader::open(path).unwrap();
        let mut epochs = Vec::new();
        while let Some(chunk) = log.next_chunk().unwrap() {
            epochs.push(chunk.sinks[0]["SERVICE|".len()..].parse().unwrap());
        }
        (epochs, log.offset(), log.damage().is_some())
    }

    fn profile_tag(profile: &FaultProfile) -> &'static str {
        if profile.is_quiet() {
            "quiet"
        } else {
            "noisy"
        }
    }

    #[test]
    fn multi_chunk_log_resumes_byte_identically() {
        for profile in [FaultProfile::default(), noisy()] {
            let scenario = tiny_scenario();
            let path = tmp(&format!("service-chunks-{}.snap", profile_tag(&profile)));
            let cfg = || cfg_with(profile, Some(path.clone()));
            let mut reference = Service::new(&scenario, cfg_with(profile, None));
            while reference.advance() {}
            // Checkpoints every 3 epochs; killed at epochs 8, 10 and 11,
            // each time resuming from the log the previous run left.
            let mut svc = Service::new(&scenario, cfg());
            for (kill, resumes_at) in [(8, 6), (10, 9), (11, 9)] {
                drive(&mut svc, &path, kill, 3);
                assert_eq!(svc.next_epoch(), kill);
                drop(svc);
                let chunks: Vec<usize> = (1..=resumes_at / 3).map(|k| 3 * k).collect();
                assert_eq!(log_epochs(&path), (chunks, std::fs::metadata(&path).unwrap().len(), false));
                svc = Service::resume(&scenario, cfg(), &path).unwrap();
                assert_eq!(svc.resumed_from(), Some(resumes_at), "killed at {kill}");
            }
            drive(&mut svc, &path, usize::MAX, 3);
            assert_same_state(&mut svc, &mut reference, profile_tag(&profile));
            // The last checkpoint compacted the log into one snapshot.
            let snap = snapshot::open_file(&path).unwrap();
            assert_eq!(store_digest(&snap.store), reference.digest());
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn torn_tails_resume_at_the_previous_trailer() {
        for profile in [FaultProfile::default(), noisy()] {
            let scenario = tiny_scenario();
            let path = tmp(&format!("service-torn-{}.snap", profile_tag(&profile)));
            let cfg = || cfg_with(profile, Some(path.clone()));
            let mut reference = Service::new(&scenario, cfg_with(profile, None));
            while reference.advance() {}
            let mut victim = Service::new(&scenario, cfg());
            drive(&mut victim, &path, 6, 3);
            let prefix = std::fs::metadata(&path).unwrap().len();
            drive(&mut victim, &path, 10, 3);
            drop(victim);
            let log = std::fs::read(&path).unwrap();
            let last = log.len() - prefix as usize;
            let offsets: Vec<usize> =
                (0..12).map(|k| prefix as usize + 1 + k * (last - 2) / 11).collect();
            for &at in &offsets {
                let mut flipped = log.clone();
                flipped[at] ^= 0x41;
                for (how, damaged) in [("cut", &log[..at]), ("flip", &flipped[..])] {
                    let case = format!("{} {how} at {at}", profile_tag(&profile));
                    std::fs::write(&path, damaged).unwrap();
                    let mut svc = Service::resume(&scenario, cfg(), &path).unwrap();
                    assert_eq!(svc.resumed_from(), Some(6), "{case}");
                    // The next append cuts the damage and re-appends the
                    // lost chunk byte for byte.
                    drive(&mut svc, &path, 9, 3);
                    assert_eq!(std::fs::read(&path).unwrap(), log, "{case}");
                    assert_eq!(log_epochs(&path), (vec![3, 6, 9], log.len() as u64, false), "{case}");
                    drive(&mut svc, &path, 12, 3);
                    assert_eq!(log_epochs(&path).0, [3, 6, 9, 12], "{case}");
                    drop(svc);
                    let mut svc = Service::resume(&scenario, cfg(), &path).unwrap();
                    assert_eq!(svc.resumed_from(), Some(12), "{case}");
                    while svc.advance() {}
                    assert_same_state(&mut svc, &mut reference, &case);
                }
            }
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn single_snapshot_checkpoint_with_profiles_still_resumes() {
        for profile in [FaultProfile::default(), noisy()] {
            let scenario = tiny_scenario();
            let path = tmp(&format!("service-legacy-{}.snap", profile_tag(&profile)));
            let cfg = || cfg_with(profile, Some(path.clone()));
            let mut reference = Service::new(&scenario, cfg_with(profile, None));
            while reference.advance() {}
            // One snapshot of the merged store with every profile line, at
            // an intermediate epoch: the checkpoint format before logs.
            let mut old = Service::new(&scenario, cfg_with(profile, None));
            for _ in 0..5 {
                old.advance();
            }
            let mut lines = vec!["SERVICE|5".to_string(), old.report().to_line()];
            lines.extend(profile_lines(old.profiles()));
            snapshot::write_file(&path, &old.merged_store(), &lines).unwrap();
            let mut svc = Service::resume(&scenario, cfg(), &path).unwrap();
            assert_eq!(svc.resumed_from(), Some(5));
            // Chunks append after it, and the mixed log resumes too.
            drive(&mut svc, &path, 11, 3);
            drop(svc);
            assert_eq!(log_epochs(&path).0, [5, 6, 9]);
            let mut svc = Service::resume(&scenario, cfg(), &path).unwrap();
            assert_eq!(svc.resumed_from(), Some(9));
            while svc.advance() {}
            assert_same_state(&mut svc, &mut reference, profile_tag(&profile));
            // Profile lines that disagree with the records are an error.
            let mut wrong = lines.clone();
            wrong.swap(2, 3);
            snapshot::write_file(&path, &old.merged_store(), &wrong).unwrap();
            let err = Service::resume(&scenario, cfg(), &path).map(|_| ()).unwrap_err();
            assert!(err.to_string().contains("profile"), "got: {err}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn periodic_checkpoints_write_only_the_delta() {
        for profile in [FaultProfile::default(), noisy()] {
            let scenario = tiny_scenario();
            let path = tmp(&format!("service-delta-{}.snap", profile_tag(&profile)));
            let mut svc = Service::new(&scenario, cfg_with(profile, Some(path.clone())));
            let mut sizes = Vec::new();
            for _ in 0..12 {
                svc.advance();
                sizes.push(svc.checkpoint(&path).unwrap());
            }
            assert_eq!(std::fs::metadata(&path).unwrap().len(), sizes.iter().sum::<u64>());
            let (epochs, _, damaged) = log_epochs(&path);
            assert_eq!(epochs, (1..=12).collect::<Vec<_>>());
            assert!(!damaged);
            for (k, &b) in sizes.iter().enumerate() {
                assert!(
                    b * 2 <= sizes[0] * 3,
                    "{}: chunk {k} is {b} bytes, the first {}",
                    profile_tag(&profile),
                    sizes[0]
                );
            }
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn completion_compacts_the_log_into_one_snapshot() {
        let scenario = tiny_scenario();
        let path = tmp("service-compact.snap");
        let mut svc = Service::new(&scenario, cfg_with(noisy(), Some(path.clone())));
        drive(&mut svc, &path, usize::MAX, 5);
        let bytes = svc.checkpoint(&path).unwrap();
        // What perfbench and `reproduce` reopen: one strict snapshot of the
        // merged store with the state, report and profile lines.
        let snap = snapshot::open_file(&path).unwrap();
        assert_eq!(store_digest(&snap.store), svc.digest());
        assert_eq!(snap.store.len(), svc.n_epochs() * svc.profiles().len());
        let mut lines = vec![format!("SERVICE|{}", svc.n_epochs()), svc.report().to_line()];
        lines.extend(profile_lines(svc.profiles()));
        assert_eq!(snap.sinks, lines);
        let mut want = Vec::new();
        snapshot::write(&mut want, &svc.merged_store(), &lines, snapshot::DEFAULT_BLOCK_TRACES)
            .unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), want, "the compacted file is one snapshot");
        assert_eq!(bytes, want.len() as u64);
        // A fresh service never extends a stale file: its first checkpoint
        // replaces it.
        let mut fresh = Service::new(&scenario, cfg_with(noisy(), Some(path.clone())));
        fresh.advance();
        fresh.checkpoint(&path).unwrap();
        assert_eq!(log_epochs(&path).0, [1]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn oversize_query_lines_are_refused_and_skipped() {
        let huge = 4 << 20;
        let mut input = io::BufReader::new(
            io::Read::chain(io::Read::take(io::repeat(b'x'), huge), &b"\nstats\r\nquit"[..]),
        );
        let mut buf = Vec::with_capacity(MAX_QUERY_LINE);
        assert_eq!(read_query_line(&mut input, &mut buf).unwrap(), Some(QueryLine::TooLong));
        assert!(buf.capacity() <= MAX_QUERY_LINE, "the line buffer stays bounded");
        assert_eq!(
            read_query_line(&mut input, &mut buf).unwrap(),
            Some(QueryLine::Text("stats".into()))
        );
        assert_eq!(
            read_query_line(&mut input, &mut buf).unwrap(),
            Some(QueryLine::Text("quit".into()))
        );
        assert_eq!(read_query_line(&mut input, &mut buf).unwrap(), None);
        // A line of exactly the cap is still a query.
        let exact = format!("{}\n", " ".repeat(MAX_QUERY_LINE - 5) + "stats");
        let mut input = exact.as_bytes();
        assert_eq!(
            read_query_line(&mut input, &mut buf).unwrap(),
            Some(QueryLine::Text(exact.trim_end().to_string()))
        );
        // Through the daemon: the long line gets an error, `stats` after
        // it is answered.
        let scenario = tiny_scenario();
        let input = io::BufReader::new(io::Read::chain(
            io::Read::take(io::repeat(b'x'), huge),
            &b"\nstats\n"[..],
        ));
        let mut out = Vec::new();
        let cfg = cfg_with(FaultProfile::default(), None);
        let outcome = serve(&scenario, cfg, Some(1), input, &mut out).unwrap();
        assert_eq!(outcome.exit, ExitCode::Ok);
        let text = String::from_utf8(out).unwrap();
        let answers: Vec<&str> =
            text.lines().filter(|l| l.starts_with("ok") || l.starts_with("err")).collect();
        assert_eq!(answers.len(), 2, "got: {text}");
        assert_eq!(answers[0], "err query line too long");
        assert!(answers[1].starts_with("ok {\"cmd\":\"stats\""), "got: {text}");
    }

    #[test]
    fn resume_rejects_mismatched_checkpoints() {
        let scenario = tiny_scenario();
        let path = tmp("service-bad.snap");
        // A snapshot with no service state line at all.
        snapshot::write_file(&path, &TraceStore::new(), &[]).unwrap();
        let err = Service::resume(&scenario, cfg_with(FaultProfile::default(), None), &path)
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("SERVICE"), "got: {err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn queries_answer_from_pair_state() {
        let scenario = tiny_scenario();
        let mut svc = Service::new(&scenario, cfg_with(FaultProfile::default(), None));
        while svc.advance() {}
        let (src, dst) = fabric::longterm_pairs(&scenario)[0];
        let q = format!("pair {} {} v4", src.index(), dst.index());
        let a = svc.answer(&q);
        assert!(a.starts_with("ok {"), "got: {a}");
        assert!(a.contains("\"p50\":"), "got: {a}");
        assert!(!a.contains("\"p50\":null"), "a full quiet run must have RTTs: {a}");
        let a = svc.answer(&format!("changes {} {} v4", src.index(), dst.index()));
        assert!(a.starts_with("ok {") && a.contains("\"changes\":"), "got: {a}");
        let a = svc.answer(&format!("advice {} {}", src.index(), dst.index()));
        assert!(a.contains("\"prefer\":"), "got: {a}");
        let a = svc.answer(&format!("diurnal {} {} v6", src.index(), dst.index()));
        assert!(a.starts_with("ok {"), "got: {a}");
        let a = svc.answer("stats");
        assert!(a.contains("\"epochs\":24"), "3 days at 3h = 24 epochs: {a}");
        // Garbage is an error, not a panic.
        assert!(svc.answer("pair 0").starts_with("err"));
        assert!(svc.answer("bogus 1 2").starts_with("err"));
        assert!(svc.answer("pair 9999 9999 v4").starts_with("err"));
        assert!(svc.answer("pair 0 1 v9").starts_with("err"));
    }

    #[test]
    fn query_budget_refuses_then_flags_exit() {
        let scenario = tiny_scenario();
        let mut cfg = cfg_with(FaultProfile::default(), None);
        cfg.query_budget = 2;
        let mut svc = Service::new(&scenario, cfg);
        svc.advance();
        assert!(svc.answer("stats").starts_with("ok"));
        assert!(svc.answer("stats").starts_with("ok"));
        assert!(!svc.budget_exhausted() || svc.queries_answered() == 2);
        assert_eq!(svc.answer("stats"), "err budget exhausted");
        assert!(svc.budget_exhausted());
    }

    #[test]
    fn serve_loop_runs_scripted_sessions() {
        let scenario = tiny_scenario();
        let path = tmp("service-serve.snap");
        let cfg = cfg_with(FaultProfile::default(), Some(path.clone()));
        // EOF (no `quit`) closes the query channel but the capped schedule
        // still completes — scripted runs measure a deterministic epoch
        // count, so the digest line is byte-comparable.
        let mut out = Vec::new();
        let outcome =
            serve(&scenario, cfg.clone(), Some(5), &b"stats\n"[..], &mut out).unwrap();
        assert_eq!(outcome.exit, ExitCode::Ok);
        assert_eq!(outcome.epochs_run, 5, "EOF must not cut the capped schedule short");
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("ok {\"cmd\":\"stats\""), "query answered: {text}");
        assert!(text.contains("long-term dataset digest:"), "got: {text}");
        assert!(path.exists(), "graceful shutdown must flush a snapshot");
        // A second serve resumes from the flushed snapshot, finishes the
        // schedule, and lands on the uninterrupted run's digest; `quit`
        // (not EOF) stops a session immediately.
        let mut reference = Service::new(&scenario, cfg_with(FaultProfile::default(), None));
        while reference.advance() {}
        let mut out2 = Vec::new();
        let outcome2 = serve(&scenario, cfg.clone(), None, &b"stats\n"[..], &mut out2).unwrap();
        assert!(String::from_utf8(out2).unwrap().contains("service: resumed from"));
        assert_eq!(outcome2.resumed_from, Some(5));
        assert_eq!(outcome2.digest, reference.digest(), "resumed digest diverged");
        let mut out3 = Vec::new();
        let outcome3 = serve(&scenario, cfg, None, &b"quit\n"[..], &mut out3).unwrap();
        assert_eq!(outcome3.epochs_run, 0, "quit stops before the next epoch");
        let _ = std::fs::remove_file(&path);
    }

    /// `serve`'s input fed over a channel, one line per message; EOF once
    /// every sender is dropped.
    struct ChannelReader {
        rx: mpsc::Receiver<String>,
        buf: Vec<u8>,
        pos: usize,
    }

    impl io::Read for ChannelReader {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let avail = self.fill_buf()?;
            let n = avail.len().min(out.len());
            out[..n].copy_from_slice(&avail[..n]);
            self.consume(n);
            Ok(n)
        }
    }

    impl BufRead for ChannelReader {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            if self.pos >= self.buf.len() {
                let Ok(line) = self.rx.recv() else { return Ok(&[]) };
                self.buf = line.into_bytes();
                self.buf.push(b'\n');
                self.pos = 0;
            }
            Ok(&self.buf[self.pos..])
        }

        fn consume(&mut self, n: usize) {
            self.pos += n;
        }
    }

    fn channel_reader() -> (mpsc::Sender<String>, ChannelReader) {
        let (tx, rx) = mpsc::channel();
        (tx, ChannelReader { rx, buf: Vec::new(), pos: 0 })
    }

    /// Input that sends `lines` one every `gap`, then closes.
    fn paced(lines: Vec<String>, gap: std::time::Duration) -> ChannelReader {
        let (tx, reader) = channel_reader();
        std::thread::spawn(move || {
            for l in lines {
                std::thread::sleep(gap);
                if tx.send(l).is_err() {
                    return;
                }
            }
        });
        reader
    }

    /// The `ok`/`err` answer lines of a `serve` transcript.
    fn answers(out: &[u8]) -> Vec<String> {
        String::from_utf8_lossy(out)
            .lines()
            .filter(|l| l.starts_with("ok ") || l.starts_with("err "))
            .map(str::to_string)
            .collect()
    }

    /// The integer after `"key":` in a JSON answer line.
    fn field(line: &str, key: &str) -> usize {
        let at = line.find(&format!("\"{key}\":")).unwrap_or_else(|| panic!("{key} in {line}"));
        let rest = &line[at + key.len() + 3..];
        rest[..rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len())]
            .parse()
            .unwrap_or_else(|_| panic!("{key} in {line}"))
    }

    /// Every `stats` answer shows whole epochs (`records == epochs ×
    /// slots`) and the epochs never go back; returns the epochs seen.
    fn assert_whole_epochs(answers: &[String], slots: usize) -> Vec<usize> {
        let stats: Vec<&String> =
            answers.iter().filter(|a| a.starts_with("ok {\"cmd\":\"stats\"")).collect();
        let epochs: Vec<usize> = stats.iter().map(|a| field(a, "epochs")).collect();
        for (a, &e) in stats.iter().zip(&epochs) {
            assert_eq!(field(a, "records"), e * slots, "half-applied epoch: {a}");
        }
        assert!(epochs.windows(2).all(|w| w[0] <= w[1]), "epochs went back: {epochs:?}");
        epochs
    }

    #[test]
    fn concurrent_answers_see_whole_epochs_in_query_order() {
        for profile in [FaultProfile::default(), noisy()] {
            let scenario = tiny_scenario();
            let tag = profile_tag(&profile);
            let path = tmp(&format!("service-concurrent-{tag}.snap"));
            let (_, batch_digest, _, _) =
                batch_baseline(&scenario, &profile, &RetryPolicy::default());
            let (s, d) = fabric::longterm_pairs(&scenario)[1];
            let queries: Vec<String> = (0..240)
                .map(|k| match k % 3 {
                    0 => "stats".to_string(),
                    1 => format!("bogus {k}"),
                    _ => format!("pair {} {} v6", s.index(), d.index()),
                })
                .collect();
            let mut cfg = cfg_with(profile, Some(path.clone()));
            cfg.cadence_ms = 2;
            cfg.query_budget = 1000;
            let input = paced(queries.clone(), std::time::Duration::from_micros(200));
            let mut out = Vec::new();
            let outcome = serve(&scenario, cfg, None, input, &mut out).unwrap();
            let n = Service::new(&scenario, cfg_with(profile, None)).n_epochs();
            assert_eq!(outcome.epochs_run, n, "{tag}");
            assert_eq!(outcome.digest, batch_digest, "{tag}: digest diverged");
            let answers = answers(&out);
            assert_eq!(answers.len(), queries.len(), "{tag}: one answer per query");
            for (k, (q, a)) in queries.iter().zip(&answers).enumerate() {
                let matches = match k % 3 {
                    0 => a.starts_with("ok {\"cmd\":\"stats\"") && field(a, "queries") == k + 1,
                    1 => a.starts_with(&format!("err unknown query '{q}'")),
                    _ => a.starts_with("ok {\"cmd\":\"pair\""),
                };
                assert!(matches, "{tag}: answer {k} to '{q}' out of order: {a}");
            }
            let epochs = assert_whole_epochs(&answers, 2 * fabric::longterm_pairs(&scenario).len());
            assert!(
                epochs.iter().any(|&e| 0 < e && e < n),
                "{tag}: no answer while the schedule ran: {epochs:?}"
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn quit_mid_schedule_stops_at_an_epoch_boundary() {
        for profile in [FaultProfile::default(), noisy()] {
            let scenario = tiny_scenario();
            let tag = profile_tag(&profile);
            let path = tmp(&format!("service-quit-{tag}.snap"));
            let (_, batch_digest, _, _) =
                batch_baseline(&scenario, &profile, &RetryPolicy::default());
            let mut cfg = cfg_with(profile, Some(path.clone()));
            cfg.cadence_ms = 3;
            let mut lines = vec!["stats".to_string(); 10];
            lines.push("quit".into());
            lines.extend(["stats".to_string(), "stats".to_string()]);
            let input = paced(lines, std::time::Duration::from_millis(1));
            let mut out = Vec::new();
            let outcome = serve(&scenario, cfg.clone(), None, input, &mut out).unwrap();
            let n = Service::new(&scenario, cfg_with(profile, None)).n_epochs();
            let run = outcome.epochs_run;
            assert!(run < n, "{tag}: quit must stop the schedule early ({run} of {n})");
            let answers = answers(&out);
            assert_eq!(answers.len(), 10, "{tag}: lines after quit go unanswered");
            assert_whole_epochs(&answers, 2 * fabric::longterm_pairs(&scenario).len());
            let text = String::from_utf8(out).unwrap();
            assert!(text.contains("service: final snapshot"), "{tag}: {text}");
            assert!(text.contains("long-term dataset digest:"), "{tag}: {text}");
            // The final checkpoint holds every applied epoch whole, and a
            // resumed run completes to the batch digest.
            assert_eq!(log_epochs(&path).0.last(), Some(&run), "{tag}");
            let mut out = Vec::new();
            let resumed = serve(&scenario, cfg, None, &b""[..], &mut out).unwrap();
            assert_eq!(resumed.resumed_from, Some(run), "{tag}");
            assert_eq!(resumed.digest, batch_digest, "{tag}: resumed digest diverged");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn checkpoint_error_returns_while_the_input_stays_open() {
        for profile in [FaultProfile::default(), noisy()] {
            let scenario = tiny_scenario();
            let dir = tmp(&format!("service-no-such-dir-{}", profile_tag(&profile)));
            let _ = std::fs::remove_dir_all(&dir);
            let cfg = cfg_with(profile, Some(dir.join("service.snap")));
            let (tx, input) = channel_reader();
            tx.send("stats".into()).unwrap();
            let (done_tx, done_rx) = mpsc::channel();
            std::thread::scope(|s| {
                let scenario = &scenario;
                s.spawn(move || {
                    let mut out = Vec::new();
                    let _ = done_tx.send(serve(scenario, cfg, None, input, &mut out));
                });
                let res = done_rx.recv_timeout(std::time::Duration::from_secs(60));
                // The input stays open until serve has returned (or the
                // wait gave up), then closes so the scope can end.
                drop(tx);
                let res = res.expect("serve must return while its input is open");
                let err = res.map(|_| ()).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::NotFound, "{err}");
            });
        }
    }

    #[test]
    fn serve_keeps_the_query_budget() {
        for profile in [FaultProfile::default(), noisy()] {
            let scenario = tiny_scenario();
            let mut cfg = cfg_with(profile, None);
            cfg.query_budget = 3;
            let mut lines = vec!["stats".to_string(); 2];
            lines.push("x".repeat(MAX_QUERY_LINE + 1));
            lines.extend(["bogus".to_string(), "stats".to_string(), "pair 0 1 v4".to_string()]);
            let mut out = Vec::new();
            let input = paced(lines, std::time::Duration::ZERO);
            let outcome = serve(&scenario, cfg, Some(3), input, &mut out).unwrap();
            assert_eq!(outcome.exit, ExitCode::Query);
            let answers = answers(&out);
            assert_eq!(answers.len(), 6, "{answers:?}");
            assert!(answers[0].starts_with("ok {\"cmd\":\"stats\""));
            assert!(answers[1].starts_with("ok {\"cmd\":\"stats\""));
            // An oversize line is refused without spending the budget.
            assert_eq!(answers[2], "err query line too long");
            assert!(answers[3].starts_with("err unknown query 'bogus'"));
            assert_eq!(answers[4], "err budget exhausted");
            assert_eq!(answers[5], "err budget exhausted");
        }
    }

    #[test]
    fn metrics_answers_one_sorted_line() {
        assert_eq!(metrics_answer(None), "err no registry");
        let reg = s2s_obs::Registry::new();
        reg.counter("service.epochs").add(3);
        reg.gauge("service.checkpoint_bytes").set(10);
        reg.span("service.apply").record(std::time::Duration::from_millis(2));
        assert_eq!(
            metrics_answer(Some(&reg)),
            "ok {\"cmd\":\"metrics\",\"counters\":{\"service.epochs\":3},\
             \"gauges\":{\"service.checkpoint_bytes\":10},\"spans\":{\"service.apply\":\
             {\"count\":1,\"total_ms\":2.000000,\"max_ms\":2.000000}}}"
        );
        // Like any query, `metrics` counts against the budget.
        let scenario = tiny_scenario();
        let mut cfg = cfg_with(FaultProfile::default(), None);
        cfg.query_budget = 1;
        let svc = Service::new(&scenario, cfg);
        let a = svc.answer("metrics");
        assert!(a.starts_with("ok {\"cmd\":\"metrics\"") || a == "err no registry", "{a}");
        assert_eq!(svc.answer("stats"), "err budget exhausted");
    }

    #[test]
    fn service_knob_parsers_warn_and_default() {
        // The pure parser cores, exercised without process-env mutation.
        let (v, w) = s2s_types::env::parse_checked(
            "S2S_SERVICE_SNAP_EVERY",
            Some("0"),
            8usize,
            |&v| v >= 1,
            "an integer >= 1",
        );
        assert_eq!(v, 8);
        assert!(w.unwrap().contains("S2S_SERVICE_SNAP_EVERY"));
        let (v, w) = s2s_types::env::parse_checked(
            "S2S_SERVICE_SNAP_EVERY",
            Some("abc"),
            8usize,
            |&v| v >= 1,
            "an integer >= 1",
        );
        assert_eq!(v, 8);
        assert!(w.is_some());
        let (v, w) = s2s_types::env::parse_checked(
            "S2S_SERVICE_SNAP_EVERY",
            None,
            8usize,
            |&v| v >= 1,
            "an integer >= 1",
        );
        assert_eq!(v, 8);
        assert!(w.is_none());
        // Every service knob is registered with the typo detector.
        for k in service_knobs() {
            assert!(
                s2s_probe::env::KNOWN_KNOBS.contains(&k.name),
                "{} not in KNOWN_KNOBS",
                k.name
            );
        }
    }
}
