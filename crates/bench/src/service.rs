//! The always-on measurement service behind `reproduce serve`.
//!
//! Instead of one batch campaign, the service advances the long-term
//! schedule one epoch at a time ([`Service::advance`]): each epoch runs
//! every (pair, protocol) slot through the probe plane's per-epoch core
//! (fault decisions keyed on the global sample index, so the stream is
//! byte-identical to a batch run), appends the records to live per-slot
//! [`TraceStore`]s and [`PairProfile`]s, and folds the epoch delta into an
//! [`Analysis`]`<`[`IncrementalState`]`>` — so the §4 analyses are already
//! computed when a query arrives, in O(pair state), never O(corpus).
//!
//! Periodically (and on graceful shutdown) the service checkpoints through
//! the snapshot plane: the merged store plus serialized profile lines and
//! a service-state line. A restarted service resumes from the checkpoint
//! ([`Service::resume`]) and replays only the epochs measured after it —
//! the recovered run's dataset, digest, profiles, and report are
//! byte-identical to an uninterrupted one (pinned by the tests below).
//!
//! Queries arrive as lines (stdin for `reproduce serve`) and are answered
//! as single `ok {json}` / `err reason` lines — see [`Service::answer`]
//! for the command set.
//!
//! Knobs (registered in `s2s_probe::env::KNOWN_KNOBS`, resolved here
//! because their defaults are service policy): `S2S_SERVICE_CADENCE_MS`
//! (wall-clock sleep between epochs, 0 = free-run),
//! `S2S_SERVICE_SNAP_EVERY` (checkpoint cadence in epochs),
//! `S2S_SERVICE_QUERY_BUDGET` (queries answered before refusal).

use crate::fabric::{self, store_digest};
use crate::scenario::Scenario;
use s2s_core::congestion::{detect_profile, DetectParams};
use s2s_core::{Analysis, IncrementalState};
use s2s_probe::env::ResolvedKnob;
use s2s_probe::fabric::FNV64_OFFSET;
use s2s_probe::{
    snapshot, Campaign, CampaignConfig, CampaignReport, FaultProfile, PairProfile,
    PairProfileSink, RetryPolicy, StreamSink, TraceStore,
};
use s2s_types::{ClusterId, ExitCode, Protocol};
use std::collections::HashMap;
use std::io::{self, BufRead, Write};
use std::path::{Path, PathBuf};

/// Wall-clock sleep between service epochs: the `S2S_SERVICE_CADENCE_MS`
/// knob, default 0 (free-run — simulated time needs no pacing; a nonzero
/// cadence makes the daemon observable while it runs).
pub fn service_cadence_ms() -> u64 {
    s2s_types::env::var_u64("S2S_SERVICE_CADENCE_MS", 0)
}

/// Checkpoint cadence in epochs: the `S2S_SERVICE_SNAP_EVERY` knob when
/// set to a valid integer ≥ 1, default 8 — a crash loses at most
/// `snap_every - 1` epochs of work.
pub fn service_snap_every() -> usize {
    s2s_types::env::var_usize_at_least("S2S_SERVICE_SNAP_EVERY", 8, 1)
}

/// Queries one service run answers before refusing with `err budget`:
/// the `S2S_SERVICE_QUERY_BUDGET` knob when set to a valid integer ≥ 1,
/// default 4096. Exhaustion is reported through [`ExitCode::Query`] after
/// the final snapshot still flushes.
pub fn service_query_budget() -> usize {
    s2s_types::env::var_usize_at_least("S2S_SERVICE_QUERY_BUDGET", 4096, 1)
}

/// The service knobs, resolved for `reproduce print-config` — they live
/// here (not `s2s_probe::env`) because their defaults are service policy,
/// not measurement-plane policy.
pub fn service_knobs() -> Vec<ResolvedKnob> {
    let set = |name: &str| s2s_types::env::var_raw(name).is_some();
    let knob = |name: &'static str, value: String, default: &str, doc: &'static str| {
        ResolvedKnob { name, value, default: default.to_string(), set: set(name), doc }
    };
    vec![
        knob(
            "S2S_SERVICE_CADENCE_MS",
            service_cadence_ms().to_string(),
            "0",
            "wall-clock sleep between service epochs (0 = free-run)",
        ),
        knob(
            "S2S_SERVICE_SNAP_EVERY",
            service_snap_every().to_string(),
            "8",
            "service checkpoint cadence, epochs",
        ),
        knob(
            "S2S_SERVICE_QUERY_BUDGET",
            service_query_budget().to_string(),
            "4096",
            "queries a service run answers before refusing",
        ),
    ]
}

/// Service policy, from the `S2S_SERVICE_*` knobs plus the fault/retry
/// configuration the batch campaign would use.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Sleep between epochs, ms (0 = free-run).
    pub cadence_ms: u64,
    /// Checkpoint every this many epochs.
    pub snap_every: usize,
    /// Queries answered before `err budget`.
    pub query_budget: usize,
    /// Checkpoint path (`None` = no persistence, crash loses everything).
    pub snapshot_path: Option<PathBuf>,
    /// Fault profile for the measurement plane.
    pub profile: FaultProfile,
    /// Retry policy for faulted slots.
    pub retry: RetryPolicy,
}

impl ServiceConfig {
    /// Resolves everything from the environment (`S2S_SERVICE_*`,
    /// `S2S_FAULT_*`, `S2S_SNAPSHOT_PATH`).
    pub fn from_env() -> ServiceConfig {
        ServiceConfig {
            cadence_ms: service_cadence_ms(),
            snap_every: service_snap_every(),
            query_budget: service_query_budget(),
            snapshot_path: s2s_probe::env::snapshot_path(),
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
pub struct Service<'a> {
    scenario: &'a Scenario,
    cfg: ServiceConfig,
    camp_cfg: CampaignConfig,
    campaign: Campaign,
    pairs: Vec<(ClusterId, ClusterId)>,
    slot_of: HashMap<(ClusterId, ClusterId, Protocol), usize>,
    sink: PairProfileSink,
    substores: Vec<TraceStore>,
    profiles: Vec<PairProfile>,
    analysis: Analysis<IncrementalState>,
    report: CampaignReport,
    next_epoch: usize,
    resumed_from: Option<usize>,
    queries_answered: usize,
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
        Service {
            scenario,
            cfg,
            camp_cfg,
            campaign,
            pairs,
            slot_of,
            sink,
            substores,
            profiles,
            analysis: Analysis::new(IncrementalState::new()),
            report: CampaignReport::default(),
            next_epoch: 0,
            resumed_from: None,
            queries_answered: 0,
        }
    }

    /// Total epochs in the schedule.
    pub fn n_epochs(&self) -> usize {
        self.camp_cfg.n_samples()
    }

    /// The next epoch to measure (== epochs already folded).
    pub fn next_epoch(&self) -> usize {
        self.next_epoch
    }

    /// The epoch this service resumed from, if it recovered a checkpoint.
    pub fn resumed_from(&self) -> Option<usize> {
        self.resumed_from
    }

    /// The merged campaign report so far (per-epoch reports summed — equal
    /// to the batch report once the schedule completes).
    pub fn report(&self) -> &CampaignReport {
        &self.report
    }

    /// The live incremental analysis.
    pub fn analysis(&self) -> &Analysis<IncrementalState> {
        &self.analysis
    }

    /// The live per-slot profiles (pair-major, protocol-minor).
    pub fn profiles(&self) -> &[PairProfile] {
        &self.profiles
    }

    /// Measures one epoch: every (pair, protocol) slot probes once, the
    /// records append to the live stores/profiles, and the epoch delta
    /// folds into the incremental analysis. Returns `false` (and does
    /// nothing) once the schedule is complete.
    pub fn advance(&mut self) -> bool {
        if self.next_epoch >= self.n_epochs() {
            return false;
        }
        let epoch = self.next_epoch;
        let opts_of = self.scenario.long_term_opts_of();
        let mut delta = TraceStore::new();
        let (substores, profiles, sink) =
            (&mut self.substores, &mut self.profiles, &self.sink);
        let r = self.campaign.run_traceroute_epoch(
            &self.scenario.net,
            &self.pairs,
            opts_of,
            epoch,
            |slot, rec| {
                substores[slot].push(&rec);
                sink.fold(&mut profiles[slot], epoch as u64, rec.t, rec.e2e_rtt_ms);
                delta.push(&rec);
            },
        );
        self.analysis.update(&delta, &self.scenario.ip2asn);
        self.report.merge(&r);
        self.next_epoch += 1;
        s2s_obs::inc("service.epochs");
        s2s_obs::add("service.records", delta.len() as u64);
        true
    }

    /// The dataset so far, merged in slot order — the exact record
    /// sequence (pair-major, time within each slot) the batch campaign's
    /// merged store holds after the same number of epochs.
    pub fn merged_store(&self) -> TraceStore {
        let mut merged = TraceStore::new();
        for st in &self.substores {
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
            self.substores
                .iter()
                .fold(FNV64_OFFSET, fabric::store_digest_fold)
        })
    }

    /// Flushes a checkpoint: the merged store plus sink lines (one
    /// service-state line, the report line, then every profile line) go
    /// through the snapshot plane's crash-safe write. Returns bytes
    /// written.
    pub fn checkpoint(&self, path: &Path) -> io::Result<u64> {
        let mut lines = Vec::with_capacity(self.profiles.len() + 2);
        lines.push(format!("SERVICE|{}", self.next_epoch));
        lines.push(self.report.to_line());
        lines.extend(self.profiles.iter().map(PairProfile::to_line));
        let bytes = snapshot::write_file(path, &self.merged_store(), &lines)?;
        s2s_obs::inc("service.snapshots");
        if let Some(reg) = s2s_obs::installed() {
            reg.gauge("service.checkpoint_epoch").set(self.next_epoch as u64);
        }
        Ok(bytes)
    }

    /// Reopens a checkpoint and rebuilds the live state: records split
    /// back into their slots, profiles parse from their lines, and the
    /// whole recovered store folds as one delta into a fresh incremental
    /// analysis (split-invariance makes that byte-identical to the
    /// epoch-by-epoch folds it replaces). The caller then replays epochs
    /// `resumed_from()..` — everything measured after the checkpoint is
    /// the exact lost work.
    pub fn resume(
        scenario: &'a Scenario,
        cfg: ServiceConfig,
        path: &Path,
    ) -> io::Result<Service<'a>> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let snap = snapshot::open_file(path)?;
        let mut svc = Service::new(scenario, cfg);
        let mut lines = snap.sinks.iter();
        let state = lines
            .next()
            .and_then(|l| l.strip_prefix("SERVICE|"))
            .ok_or_else(|| bad("checkpoint has no SERVICE state line".into()))?;
        let next_epoch: usize =
            state.parse().map_err(|_| bad(format!("bad SERVICE epoch '{state}'")))?;
        if next_epoch > svc.n_epochs() {
            return Err(bad(format!(
                "checkpoint epoch {next_epoch} exceeds the {}-epoch schedule \
                 (different scale?)",
                svc.n_epochs()
            )));
        }
        let report_line =
            lines.next().ok_or_else(|| bad("checkpoint has no report line".into()))?;
        svc.report = CampaignReport::from_line(report_line).map_err(bad)?;
        let profile_lines: Vec<&String> = lines.collect();
        if profile_lines.len() != svc.profiles.len() {
            return Err(bad(format!(
                "checkpoint has {} profile line(s), schedule needs {}",
                profile_lines.len(),
                svc.profiles.len()
            )));
        }
        for (slot, line) in profile_lines.into_iter().enumerate() {
            let p = PairProfile::parse(line)?;
            let expect = &svc.profiles[slot];
            if (p.src, p.dst, p.proto) != (expect.src, expect.dst, expect.proto) {
                return Err(bad(format!(
                    "checkpoint profile {slot} is ({}, {}, {:?}), schedule says \
                     ({}, {}, {:?})",
                    p.src, p.dst, p.proto, expect.src, expect.dst, expect.proto
                )));
            }
            svc.profiles[slot] = p;
        }
        // Every slot folds exactly one record per epoch (lost slots fold a
        // synthetic row), so the recovered store's size is pinned.
        let expect_records = next_epoch * svc.substores.len();
        if snap.store.len() != expect_records {
            return Err(bad(format!(
                "checkpoint holds {} record(s), epoch {next_epoch} × {} slot(s) \
                 needs {expect_records}",
                snap.store.len(),
                svc.substores.len()
            )));
        }
        for v in snap.store.iter() {
            let rec = v.to_record();
            let slot = *svc
                .slot_of
                .get(&(rec.src, rec.dst, rec.proto))
                .ok_or_else(|| {
                    bad(format!(
                        "checkpoint record for unknown slot ({}, {}, {:?})",
                        rec.src, rec.dst, rec.proto
                    ))
                })?;
            svc.substores[slot].push(&rec);
        }
        svc.analysis.update(&snap.store, &scenario.ip2asn);
        svc.next_epoch = next_epoch;
        svc.resumed_from = Some(next_epoch);
        s2s_obs::inc("service.resumes");
        if let Some(reg) = s2s_obs::installed() {
            reg.gauge("service.resumed_epoch").set(next_epoch as u64);
        }
        Ok(svc)
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
    ///
    /// All answers read O(pair state) — nothing rescans the corpus. After
    /// `query_budget` answers, every further query gets `err budget
    /// exhausted` (and [`serve`] exits [`ExitCode::Query`]).
    pub fn answer(&mut self, line: &str) -> String {
        if self.queries_answered >= self.cfg.query_budget {
            s2s_obs::inc("query.rejected");
            return "err budget exhausted".to_string();
        }
        self.queries_answered += 1;
        let out = s2s_obs::timed("query.answer", || self.answer_inner(line));
        s2s_obs::inc(if out.starts_with("ok") { "query.served" } else { "query.errors" });
        out
    }

    /// Queries answered so far.
    pub fn queries_answered(&self) -> usize {
        self.queries_answered
    }

    /// Whether the query budget is spent.
    pub fn budget_exhausted(&self) -> bool {
        self.queries_answered >= self.cfg.query_budget
    }

    fn answer_inner(&self, line: &str) -> String {
        let mut it = line.split_whitespace();
        let cmd = match it.next() {
            Some(c) => c,
            None => return "err empty query".to_string(),
        };
        let args: Vec<&str> = it.collect();
        match (cmd, args.as_slice()) {
            ("pair", [s, d, p]) => self.pair_query(s, d, p),
            ("diurnal", [s, d, p]) => self.diurnal_query(s, d, p),
            ("changes", [s, d, p]) => self.changes_query(s, d, p),
            ("advice", [s, d]) => self.advice_query(s, d),
            ("stats", []) => format!(
                "ok {{\"cmd\":\"stats\",\"epochs\":{},\"records\":{},\"groups\":{},\
                 \"queries\":{}}}",
                self.next_epoch,
                self.analysis.source().samples(),
                self.analysis.source().len(),
                self.queries_answered
            ),
            _ => format!(
                "err unknown query '{line}' (known: pair, diurnal, changes, advice, \
                 stats, quit)"
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

    fn pair_query(&self, s: &str, d: &str, p: &str) -> String {
        let slot = match self.slot(s, d, p) {
            Ok(i) => i,
            Err(e) => return e,
        };
        let pr = &self.profiles[slot];
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

    fn diurnal_query(&self, s: &str, d: &str, p: &str) -> String {
        let slot = match self.slot(s, d, p) {
            Ok(i) => i,
            Err(e) => return e,
        };
        let pr = &self.profiles[slot];
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

    fn changes_query(&self, s: &str, d: &str, p: &str) -> String {
        // Reuses slot() for arg validation; the group index comes from the
        // analysis (first-seen order), not the slot table.
        if let Err(e) = self.slot(s, d, p) {
            return e;
        }
        let (src, dst) =
            (ClusterId::new(s.parse().unwrap()), ClusterId::new(d.parse().unwrap()));
        let proto = if p == "v4" { Protocol::V4 } else { Protocol::V6 };
        let state = self.analysis.source();
        let Some(gi) = state.group_index(src, dst, proto) else {
            return "ok {\"cmd\":\"changes\",\"changes\":0,\"magnitudes\":[],\
                    \"paths\":0,\"popular\":null}"
                .to_string();
        };
        let cs = state.change_stats_of(gi);
        let ps = state.path_stats_of(gi, self.camp_cfg.interval);
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

    fn advice_query(&self, s: &str, d: &str) -> String {
        let (v4, v6) = match (self.slot(s, d, "v4"), self.slot(s, d, "v6")) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => return e,
        };
        let p4 = self.profiles[v4].quantile(0.50);
        let p6 = self.profiles[v6].quantile(0.50);
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

/// The `reproduce serve` daemon loop: advances epochs continuously,
/// answering any queries that arrived between epochs, checkpointing every
/// `snap_every` epochs; once the schedule completes it keeps serving
/// queries until `input` closes or a `quit` line arrives. Shutdown —
/// `quit`, EOF, or schedule end with a closed input — always flushes a
/// final snapshot (when a path is configured) and prints the dataset
/// digest line, byte-comparable against a batch run.
///
/// `epochs` caps how many epochs to advance (`None` = the full schedule);
/// the cap makes scripted smoke runs and kill/resume drills cheap.
pub fn serve(
    scenario: &Scenario,
    cfg: ServiceConfig,
    epochs: Option<usize>,
    input: impl BufRead + Send + 'static,
    output: &mut impl Write,
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
        svc.profiles().len(),
        start_epoch,
        target,
        svc.n_epochs(),
        cfg.snap_every
    )?;

    // The input pump: a reader thread forwards lines over a channel so
    // epoch advancement never blocks on a quiet stdin.
    let (tx, rx) = std::sync::mpsc::channel::<String>();
    let mut input = input;
    std::thread::spawn(move || {
        let mut line = String::new();
        loop {
            line.clear();
            match input.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    if tx.send(line.trim_end_matches(['\n', '\r']).to_string()).is_err() {
                        break;
                    }
                }
            }
        }
    });

    // `quit` stops the schedule immediately; EOF only closes the query
    // channel — a scripted `serve --epochs N < batch.txt` still measures
    // exactly N epochs, so its digest is deterministic.
    let mut shutdown = false;
    let mut input_open = true;
    while svc.next_epoch() < target && !shutdown {
        // Serve everything queued between epochs.
        while input_open {
            match rx.try_recv() {
                Ok(line) if line.trim() == "quit" => {
                    shutdown = true;
                    break;
                }
                Ok(line) if line.trim().is_empty() => {}
                Ok(line) => {
                    let a = svc.answer(&line);
                    writeln!(output, "{a}")?;
                }
                Err(std::sync::mpsc::TryRecvError::Empty) => break,
                Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                    input_open = false;
                }
            }
        }
        if shutdown {
            break;
        }
        svc.advance();
        if let Some(path) = &cfg.snapshot_path {
            if svc.next_epoch() % cfg.snap_every == 0 && svc.next_epoch() < target {
                svc.checkpoint(path)?;
            }
        }
        if cfg.cadence_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(cfg.cadence_ms));
        }
    }
    // Schedule done (or quitting): drain remaining queries until EOF/quit.
    if !shutdown {
        for line in rx.iter() {
            if line.trim() == "quit" {
                break;
            }
            if line.trim().is_empty() {
                continue;
            }
            let a = svc.answer(&line);
            writeln!(output, "{a}")?;
        }
    }
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
            // The incremental timelines equal a batch analysis over the
            // merged store.
            let batch_tls =
                Analysis::new(&batch_store).timelines(&scenario.ip2asn);
            assert_eq!(svc.analysis().timelines(), &batch_tls[..]);
        }
    }

    #[test]
    fn kill_and_resume_recovers_byte_identically() {
        for profile in [FaultProfile::default(), noisy()] {
            let scenario = tiny_scenario();
            let path = tmp(&format!(
                "service-resume-{}.snap",
                if profile.is_quiet() { "quiet" } else { "noisy" }
            ));
            // The uninterrupted reference run.
            let mut reference = Service::new(&scenario, cfg_with(profile, None));
            while reference.advance() {}
            // The victim: checkpoint every 4 epochs, killed mid-interval
            // (epoch 6) — everything after the epoch-4 checkpoint is lost.
            let mut victim =
                Service::new(&scenario, cfg_with(profile, Some(path.clone())));
            for _ in 0..6 {
                victim.advance();
                if victim.next_epoch().is_multiple_of(4) {
                    victim.checkpoint(&path).unwrap();
                }
            }
            drop(victim); // the kill: no final flush
            let mut recovered =
                Service::resume(&scenario, cfg_with(profile, Some(path.clone())), &path)
                    .unwrap();
            assert_eq!(recovered.resumed_from(), Some(4), "must resume at the checkpoint");
            assert_eq!(
                recovered.n_epochs() - recovered.next_epoch(),
                reference.n_epochs() - 4,
                "lost-work accounting must be exact"
            );
            while recovered.advance() {}
            assert_eq!(recovered.digest(), reference.digest(), "digest diverged");
            assert_eq!(
                profile_lines(recovered.profiles()),
                profile_lines(reference.profiles()),
                "profiles diverged"
            );
            assert_eq!(recovered.report(), reference.report(), "report diverged");
            assert_eq!(
                recovered.analysis().timelines(),
                reference.analysis().timelines(),
                "timelines diverged"
            );
            let _ = std::fs::remove_file(&path);
        }
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
            "S2S_SERVICE_QUERY_BUDGET",
            Some("abc"),
            4096usize,
            |&v| v >= 1,
            "an integer >= 1",
        );
        assert_eq!(v, 4096);
        assert!(w.is_some());
        let (v, w) = s2s_types::env::parse_checked(
            "S2S_SERVICE_CADENCE_MS",
            None,
            0u64,
            |_| true,
            "an integer",
        );
        assert_eq!(v, 0);
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
