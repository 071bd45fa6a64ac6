//! The one front door for campaigns: [`Campaign`].
//!
//! Every campaign — plain or fault-injected, batched-parallel or
//! sequential-reference, in-memory or checkpoint/resumed — is launched by
//! building a [`Campaign`] and calling one of its `run_*` methods, and
//! every `run_*` method dispatches into the one executor core in
//! [`crate::campaign`] (or its sequential reference).
//!
//! ```no_run
//! # use s2s_probe::{Campaign, CampaignConfig, FaultProfile, RetryPolicy};
//! # use s2s_probe::tracer::TraceOptions;
//! # fn demo(net: &s2s_netsim::Network, pairs: &[(s2s_types::ClusterId, s2s_types::ClusterId)]) {
//! let (timelines, report) = Campaign::new(CampaignConfig::long_term(30))
//!     .faults(FaultProfile::from_env())
//!     .retry(RetryPolicy::default())
//!     .threads(8)
//!     .run_traceroute(net, pairs, TraceOptions::default(), |s, d, p| (s, d, p, 0u64), |a, _r| a.3 += 1)
//!     .unwrap();
//! # let _ = (timelines, report);
//! # }
//! ```
//!
//! The builder always routes through the fault-aware executor: with
//! no [`Campaign::faults`] call the profile is the all-zero default, under
//! which the fault plane provably changes nothing (the internal zero-fault
//! equivalence tests pin the accumulators byte-for-byte against the plain
//! runners). That means every run returns a real [`CampaignReport`] — no
//! variant-specific report synthesis.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::campaign::{
    ping_sink_resumable_impl, run_core, run_reference, traceroute_resumable_impl, CampaignConfig,
    CampaignReport, PingTimeline, Pings, RetryPolicy, SlotKind, Traces, CHECKPOINT_BLOCK_PAIRS,
};
use crate::faults::FaultProfile;
use crate::records::TracerouteRecord;
use crate::stream::{StreamSink, TimelineSink};
use crate::tracer::TraceOptions;
use s2s_netsim::Network;
use s2s_types::{ClusterId, Protocol, SimTime};

/// A configured-but-not-yet-run campaign.
///
/// Construction is pure; nothing happens until a `run_*` method fires.
/// All `run_*` methods return `io::Result<(accumulators, CampaignReport)>`
/// uniformly — in-memory runs cannot actually fail, only
/// [checkpointed](Campaign::checkpoint) ones can, but one signature keeps
/// call sites stable when a checkpoint is added later.
#[derive(Clone, Debug)]
pub struct Campaign {
    cfg: CampaignConfig,
    profile: FaultProfile,
    retry: RetryPolicy,
    checkpoint: Option<PathBuf>,
    reference: bool,
    registry: Option<Arc<s2s_obs::Registry>>,
}

impl Campaign {
    /// Starts a builder from a schedule. Faults default to the all-zero
    /// profile (a fault-free run), retry to [`RetryPolicy::default`].
    pub fn new(cfg: CampaignConfig) -> Self {
        Campaign {
            cfg,
            profile: FaultProfile::default(),
            retry: RetryPolicy::default(),
            checkpoint: None,
            reference: false,
            registry: None,
        }
    }

    /// Injects faults from `profile` (content-keyed on its seed, so results
    /// are independent of thread count and execution order).
    pub fn faults(mut self, profile: FaultProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Sets the retry/timeout policy for faulted probe slots.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Checkpoints completed pairs to `path` and resumes from it on rerun.
    /// Pairs are measured epoch-major through the same batched core as an
    /// in-memory run, in blocks of `threads × 64` pairs; after each block
    /// its pairs are appended to `path` as one snapshot chunk
    /// ([`crate::snapshot`]) and flushed, so a kill loses at most one
    /// block. Each pair's `B|idx|n|…` header in the chunk's sink lines pins
    /// the pair and the schedule: chunks written for another pair list or
    /// schedule, torn or damaged chunks, and files in any other format are
    /// re-measured, not replayed. The finished file and the accumulators
    /// are bit-identical to an uninterrupted run (see the module docs on
    /// `campaign` for why). Traceroute campaigns archive their records as
    /// store rows; ping campaigns (including [`Campaign::sink`] runs)
    /// archive serialized sink state. A worker panic poisons only its own
    /// pairs ([`CampaignReport::poisoned_pairs`]); the file then ends
    /// before the first poisoned pair, so a rerun re-measures it.
    pub fn checkpoint(mut self, path: impl AsRef<Path>) -> Self {
        self.checkpoint = Some(path.as_ref().to_path_buf());
        self
    }

    /// Overrides the worker-thread count (defaults to the `S2S_THREADS`
    /// knob, see [`crate::env::threads`]).
    pub fn threads(mut self, n: usize) -> Self {
        self.cfg.threads = n.max(1);
        self
    }

    /// Folds the run's [`CampaignReport`] counters and rare events into
    /// `registry` when the run finishes. Without this call the report is
    /// published to the globally [installed](s2s_obs::install) registry,
    /// if any. (Span timings inside the execution cores always go to the
    /// global registry — install one to capture them.)
    pub fn observe(mut self, registry: Arc<s2s_obs::Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Uses the sequential, unbatched reference executor for traceroute
    /// and ping runs alike: one thread, time-outer pair-inner loops, no
    /// epoch batching — the seed implementation's exact execution order.
    /// The validation baseline the batched parallel executor must match
    /// byte for byte.
    pub fn reference(mut self) -> Self {
        self.reference = true;
        self
    }

    /// Runs a traceroute campaign with fixed tool options, folding each
    /// (pair, protocol) timeline into an accumulator: `init(src, dst,
    /// proto)` creates it, `step(acc, record)` folds one record in.
    /// Accumulators are ordered pair-major, then protocol in
    /// `cfg.protocols` order.
    pub fn run_traceroute<A, I, S>(
        &self,
        net: &Network,
        pairs: &[(ClusterId, ClusterId)],
        opts: TraceOptions,
        init: I,
        step: S,
    ) -> std::io::Result<(Vec<A>, CampaignReport)>
    where
        A: Send,
        I: Fn(ClusterId, ClusterId, Protocol) -> A + Sync,
        S: Fn(&mut A, TracerouteRecord) + Sync,
    {
        self.run_traceroute_with(net, pairs, move |_, _| opts, init, step)
    }

    /// Like [`Campaign::run_traceroute`], with per-measurement tool
    /// options: `opts_of(t, proto)` picks the traceroute flavor per run —
    /// how the paper's platform behaved (classic traceroute until November
    /// 2014, then Paris traceroute for IPv4, §2.1).
    pub fn run_traceroute_with<A, O, I, S>(
        &self,
        net: &Network,
        pairs: &[(ClusterId, ClusterId)],
        opts_of: O,
        init: I,
        step: S,
    ) -> std::io::Result<(Vec<A>, CampaignReport)>
    where
        A: Send,
        O: Fn(SimTime, Protocol) -> TraceOptions + Sync,
        I: Fn(ClusterId, ClusterId, Protocol) -> A + Sync,
        S: Fn(&mut A, TracerouteRecord) + Sync,
    {
        let kind = Traces { opts_of, init, step };
        let result = if let Some(path) = &self.checkpoint {
            traceroute_resumable_impl(
                net,
                pairs,
                &self.cfg,
                &self.profile,
                &self.retry,
                path,
                self.checkpoint_block(),
                &kind,
            )
        } else {
            Ok(self.run_slots(net, pairs, &kind))
        };
        if let Ok((_, report)) = &result {
            self.publish(report);
        }
        result
    }

    /// Resolves every (pair, protocol) slot of **one** schedule instant —
    /// the always-on service's per-epoch advance. `epoch` indexes the
    /// schedule (`0..cfg.n_samples()`; out of range panics), and
    /// `step(slot, record)` receives each record with its slot index
    /// (pair-major, protocol in `cfg.protocols` order — the same indexing
    /// as [`Campaign::run_traceroute`]'s accumulators). The executor core
    /// resolves the instant on one thread, then `step` runs in slot order;
    /// a slot whose probe panicked poisons its pair (reported in
    /// [`CampaignReport::poisoned_pairs`]) and gets no `step` call.
    ///
    /// Fault decisions are content-keyed on the global sample index, so
    /// sweeping epochs `0..n_samples` and [merging](CampaignReport::merge)
    /// the per-epoch reports is byte-identical — records, slot order
    /// within each (pair, protocol), and report — to one
    /// [`Campaign::run_traceroute_with`] batch run over the same schedule.
    /// Unlike the batch runners, the per-epoch report is *not* published
    /// to the observability registry (a long-running service would melt
    /// `campaign.runs`); callers merge and publish at their own cadence.
    pub fn run_traceroute_epoch(
        &self,
        net: &Network,
        pairs: &[(ClusterId, ClusterId)],
        opts_of: impl Fn(SimTime, Protocol) -> TraceOptions + Sync,
        epoch: usize,
        mut step: impl FnMut(usize, TracerouteRecord),
    ) -> CampaignReport {
        let n = self.cfg.n_samples();
        assert!(epoch < n, "epoch {epoch} out of schedule range 0..{n}");
        let step_into = |acc: &mut Option<TracerouteRecord>, rec| *acc = Some(rec);
        let kind = Traces { opts_of, init: |_, _, _| None, step: step_into };
        let cfg = CampaignConfig { threads: 1, ..self.cfg.clone() };
        let (recs, report) =
            run_core(net, pairs, &cfg, &self.profile, &self.retry, &kind, epoch..epoch + 1);
        // The core visits pairs destination-batched; hand the records over
        // in slot order. A poisoned pair's slots have no record.
        for (slot, rec) in recs.into_iter().enumerate() {
            if let Some(rec) = rec {
                step(slot, rec);
            }
        }
        report
    }

    /// Runs a ping campaign, returning a dense timeline per
    /// (pair, protocol): one slot per scheduled instant, `NaN` for lost
    /// samples — the [`TimelineSink`] fold. With [`Campaign::checkpoint`]
    /// set, completed pairs are archived as serialized timeline state and
    /// replayed on rerun, with the same bit-identical-resume guarantee as
    /// traceroute campaigns.
    pub fn run_ping(
        &self,
        net: &Network,
        pairs: &[(ClusterId, ClusterId)],
    ) -> std::io::Result<(Vec<PingTimeline>, CampaignReport)> {
        let result = self.run_ping_states(net, pairs, &TimelineSink::for_config(&self.cfg));
        if let Ok((_, report)) = &result {
            self.publish(report);
        }
        result
    }

    /// The ping executor behind both `run_ping` front doors: the
    /// checkpointed block fold, or [`Campaign::run_slots`], folding
    /// through `sink`. Publishes nothing.
    fn run_ping_states<K: StreamSink>(
        &self,
        net: &Network,
        pairs: &[(ClusterId, ClusterId)],
        sink: &K,
    ) -> std::io::Result<(Vec<K::State>, CampaignReport)> {
        if let Some(path) = &self.checkpoint {
            return ping_sink_resumable_impl(
                net,
                pairs,
                &self.cfg,
                &self.profile,
                &self.retry,
                path,
                self.checkpoint_block(),
                sink,
            );
        }
        Ok(self.run_slots(net, pairs, &Pings(sink)))
    }

    /// An in-memory run of the whole schedule: the sequential reference
    /// executor under [`Campaign::reference`], else the batched core.
    fn run_slots<K: SlotKind>(
        &self,
        net: &Network,
        pairs: &[(ClusterId, ClusterId)],
        kind: &K,
    ) -> (Vec<K::Acc>, CampaignReport) {
        let (cfg, profile, retry) = (&self.cfg, &self.profile, &self.retry);
        if self.reference {
            run_reference(net, pairs, cfg, profile, retry, kind)
        } else {
            run_core(net, pairs, cfg, profile, retry, kind, 0..cfg.n_samples())
        }
    }

    /// Attaches a streaming sink: the returned [`SinkCampaign`] folds every
    /// sample into per-(pair, protocol) sink state as it is measured,
    /// instead of materializing timelines — campaign memory proportional
    /// to pairs, not samples (the §5 mesh at paper scale). All other
    /// builder settings (faults, retry, threads, checkpoint, observability,
    /// reference mode) carry over.
    pub fn sink<K: StreamSink>(self, sink: K) -> SinkCampaign<K> {
        SinkCampaign { campaign: self, sink }
    }

    /// Pairs per checkpoint block: [`CHECKPOINT_BLOCK_PAIRS`] per worker
    /// thread.
    fn checkpoint_block(&self) -> usize {
        self.cfg.threads.max(1) * CHECKPOINT_BLOCK_PAIRS
    }

    /// The registry this run reports into: the explicit
    /// [`Campaign::observe`] one, else the globally installed one.
    fn effective_registry(&self) -> Option<Arc<s2s_obs::Registry>> {
        self.registry.clone().or_else(s2s_obs::installed)
    }

    /// Folds a finished run's report into the effective registry:
    /// `campaign.*` counters mirror the [`CampaignReport`] fields, and the
    /// rare outcomes (worker panics, retry-exhausted slots, checkpoint
    /// resume) land in the event log.
    fn publish(&self, report: &CampaignReport) {
        let Some(reg) = self.effective_registry() else { return };
        for (name, v) in [
            ("campaign.offered", report.offered),
            ("campaign.attempted", report.attempted),
            ("campaign.delivered", report.delivered),
            ("campaign.truncated", report.truncated),
            ("campaign.retried", report.retried),
            ("campaign.gave_up", report.gave_up),
            ("campaign.dropped_probes", report.dropped_probes),
            ("campaign.stuck_probes", report.stuck_probes),
            ("campaign.agent_down_slots", report.agent_down_slots),
            ("campaign.resumed_pairs", report.resumed_pairs),
            ("campaign.worker_panics", report.worker_panics),
            ("campaign.lost_slots", report.lost_slots),
        ] {
            if v > 0 {
                reg.counter(name).add(v as u64);
            }
        }
        reg.counter("campaign.runs").inc();
        if report.worker_panics > 0 {
            reg.event(
                "campaign.worker_panic",
                format!(
                    "{} worker(s) panicked; {} pair(s) poisoned",
                    report.worker_panics,
                    report.poisoned_pairs.len()
                ),
            );
        }
        if report.gave_up > 0 {
            reg.event(
                "campaign.retry_exhausted",
                format!("{} slot(s) abandoned after exhausting retries", report.gave_up),
            );
        }
        if let Some(path) = &self.checkpoint {
            reg.event(
                "campaign.checkpoint_write",
                format!(
                    "checkpoint {} complete ({} pair(s) replayed from it)",
                    path.display(),
                    report.resumed_pairs
                ),
            );
        }
    }
}

/// A [`Campaign`] with a [`StreamSink`] attached (built by
/// [`Campaign::sink`]): its runs return folded sink states instead of
/// materialized timelines.
#[derive(Clone, Debug)]
pub struct SinkCampaign<K: StreamSink> {
    campaign: Campaign,
    sink: K,
}

impl<K: StreamSink> SinkCampaign<K> {
    /// The attached sink.
    pub fn sink_ref(&self) -> &K {
        &self.sink
    }

    /// Runs the ping campaign through the sink, returning one folded state
    /// per (pair, protocol) — pair-major, protocol in `cfg.protocols`
    /// order, exactly like [`Campaign::run_ping`]'s timelines. Schedule,
    /// fault decisions, and report accounting are identical to the
    /// materializing path; only the fold differs. With
    /// [`Campaign::checkpoint`] set, completed pairs are archived as
    /// serialized sink state and replayed on rerun (bit-identical resume).
    pub fn run_ping(
        &self,
        net: &Network,
        pairs: &[(ClusterId, ClusterId)],
    ) -> std::io::Result<(Vec<K::State>, CampaignReport)> {
        let result = self.campaign.run_ping_states(net, pairs, &self.sink);
        if let Ok((states, report)) = &result {
            self.campaign.publish(report);
            self.publish_sink(states, report);
        }
        result
    }

    /// Folds the sink-specific series into the effective registry:
    /// `sink.states` / `sink.samples` / `sink.lost` counters and the
    /// `sink.sketch_bytes` gauge (total resident sink-state bytes — the
    /// number that stays flat as sample counts grow).
    fn publish_sink(&self, states: &[K::State], report: &CampaignReport) {
        let Some(reg) = self.campaign.effective_registry() else { return };
        reg.counter("sink.states").add(states.len() as u64);
        reg.counter("sink.samples").add(report.offered as u64);
        reg.counter("sink.lost").add(report.offered.saturating_sub(report.delivered) as u64);
        let bytes: usize = states.iter().map(|s| self.sink.state_bytes(s)).sum();
        reg.gauge("sink.sketch_bytes").set(bytes as u64);
    }
}
