//! Campaign scheduling and parallel execution.
//!
//! Campaigns sweep a pair list at a fixed cadence over a time window,
//! exactly like the CDN's measurement schedule (§2): full-mesh traceroutes
//! every 3 hours, pings every 15 minutes, focused traceroutes every 30
//! minutes. Because a 16-month full-mesh campaign produces millions of
//! records, execution is *streaming*: each worker folds its pairs' records
//! into a caller-supplied accumulator instead of materializing everything.
//!
//! Every slot — one (pair, protocol, sample instant) — resolves through
//! one executor core, whatever it measures: a traceroute folded into a
//! caller's accumulator, or a ping folded into [`StreamSink`] state (a
//! `SlotKind`). The core runs a pair list over a *range of global sample
//! indices*: a batch run is the whole schedule, the always-on service's
//! per-epoch advance is one sample, and a checkpointed run is the whole
//! schedule over one block of pairs at a time.
//!
//! Work is partitioned by pair (each pair's whole timeline is folded by one
//! worker, so accumulators never need locking). Within a worker, probes are
//! batched by **(availability epoch, destination AS)**: routing is
//! piecewise-constant between link-failure breakpoints, so the range's
//! sample instants are grouped into epoch runs and pairs are visited in
//! destination-AS order inside each run — every routing computation happens
//! once per epoch and every destination's route table stays hot while it is
//! being probed. The batching only reorders *when* slots execute; each
//! (pair, protocol) accumulator still folds its records in time order, and
//! probes and fault decisions are content-keyed on the global sample index,
//! so the result is byte-identical to the sequential reference executor
//! regardless of thread count or sample range.

use crate::faults::{FaultInjector, FaultProfile, ProbeFault};
use crate::records::{PingRecord, TracerouteRecord};
use crate::snapshot;
use crate::store::TraceStore;
use crate::stream::StreamSink;
use crate::tracer::{trace, TraceOptions};
use s2s_netsim::Network;
use s2s_types::time::sample_times;
use s2s_types::{ClusterId, Coverage, Protocol, SimDuration, SimTime};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// When and how often to measure.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// First sample instant.
    pub start: SimTime,
    /// End of the window (exclusive).
    pub end: SimTime,
    /// Sampling cadence.
    pub interval: SimDuration,
    /// Protocols to probe (each pair is measured over all of them).
    pub protocols: Vec<Protocol>,
    /// Worker threads.
    pub threads: usize,
}

impl CampaignConfig {
    /// The paper's long-term schedule: every 3 hours, both protocols.
    pub fn long_term(days: u32) -> Self {
        CampaignConfig {
            start: SimTime::T0,
            end: SimTime::from_days(days),
            interval: SimDuration::from_hours(3),
            protocols: vec![Protocol::V4, Protocol::V6],
            threads: crate::env::threads(),
        }
    }

    /// The paper's short-term ping schedule: every 15 minutes for a week.
    pub fn ping_week(start: SimTime) -> Self {
        CampaignConfig {
            start,
            end: start + SimDuration::from_days(7),
            interval: SimDuration::from_minutes(15),
            protocols: vec![Protocol::V4, Protocol::V6],
            threads: crate::env::threads(),
        }
    }

    /// The paper's focused traceroute schedule: every 30 minutes.
    pub fn focused_traceroute(start: SimTime, days: u32) -> Self {
        CampaignConfig {
            start,
            end: start + SimDuration::from_days(days),
            interval: SimDuration::from_minutes(30),
            protocols: vec![Protocol::V4, Protocol::V6],
            threads: crate::env::threads(),
        }
    }

    /// Number of sampling instants.
    pub fn n_samples(&self) -> usize {
        sample_times(self.start, self.end, self.interval).count()
    }

    /// The sampling instants themselves, in schedule order — what the
    /// fabric's degraded mode iterates to synthesize lost records for an
    /// abandoned shard's slots.
    pub fn times(&self) -> Vec<SimTime> {
        sample_times(self.start, self.end, self.interval).collect()
    }
}

/// Groups consecutive sample instants into runs that share one routing
/// epoch. Concatenated, the runs cover `times` in order, so sweeping them
/// run by run preserves the per-pair time order of the schedule.
fn epoch_runs(net: &Network, times: &[SimTime]) -> Vec<Range<usize>> {
    let dynamics = net.oracle().dynamics();
    let mut runs = Vec::new();
    let mut start = 0;
    while start < times.len() {
        let epoch = dynamics.epoch_of(times[start]);
        let mut end = start + 1;
        while end < times.len() && dynamics.epoch_of(times[end]) == epoch {
            end += 1;
        }
        runs.push(start..end);
        start = end;
    }
    runs
}

/// The order a worker visits its pairs in: grouped by destination AS (ties
/// broken by position, so the order is deterministic). Consecutive pairs
/// then share per-destination route tables inside one epoch run.
fn dst_batched_order(net: &Network, chunk: &[(ClusterId, ClusterId)]) -> Vec<usize> {
    let topo = net.oracle().topology();
    let mut order: Vec<usize> = (0..chunk.len()).collect();
    order.sort_by_key(|&i| (topo.clusters[chunk[i].1.index()].host_as, i));
    order
}

/// All ordered (directed) cluster pairs — the full mesh of §2.1.
pub fn full_mesh_pairs(n_clusters: usize) -> Vec<(ClusterId, ClusterId)> {
    let mut v = Vec::with_capacity(n_clusters * n_clusters.saturating_sub(1));
    for a in 0..n_clusters {
        for b in 0..n_clusters {
            if a != b {
                v.push((ClusterId::from(a), ClusterId::from(b)));
            }
        }
    }
    v
}

/// Directed pairs of clusters sharing a city — the colocated full-mesh
/// campaign of §2.2.
pub fn colocated_pairs(topo: &s2s_topology::Topology) -> Vec<(ClusterId, ClusterId)> {
    let mut v = Vec::new();
    for a in 0..topo.clusters.len() {
        for b in 0..topo.clusters.len() {
            if a != b && topo.clusters[a].city == topo.clusters[b].city {
                v.push((ClusterId::from(a), ClusterId::from(b)));
            }
        }
    }
    v
}

/// One (pair, protocol) ping timeline: a slot per sampling instant, `NaN`
/// for lost probes (kept dense so FFTs index by time directly).
#[derive(Clone, Debug)]
pub struct PingTimeline {
    /// Source vantage point.
    pub src: ClusterId,
    /// Destination vantage point.
    pub dst: ClusterId,
    /// Protocol.
    pub proto: Protocol,
    /// First sample instant.
    pub start: SimTime,
    /// Sampling cadence.
    pub interval: SimDuration,
    /// RTTs in ms; `NaN` marks a lost or unreachable sample.
    pub rtts: Vec<f32>,
}

impl PingTimeline {
    /// Number of successful samples.
    pub fn valid_samples(&self) -> usize {
        self.rtts.iter().filter(|r| !r.is_nan()).count()
    }

    /// The valid RTTs as f64 (for the stats toolkit).
    pub fn valid_rtts(&self) -> Vec<f64> {
        self.rtts.iter().filter(|r| !r.is_nan()).map(|&r| f64::from(r)).collect()
    }

    /// RTTs with lost samples interpolated from the previous valid sample
    /// (FFT input must be regular). Leading losses take the first valid
    /// value. `None` when no sample is valid.
    pub fn filled_rtts(&self) -> Option<Vec<f64>> {
        let first = self.rtts.iter().find(|r| !r.is_nan())?;
        let mut last = f64::from(*first);
        Some(
            self.rtts
                .iter()
                .map(|&r| {
                    if r.is_nan() {
                        last
                    } else {
                        last = f64::from(r);
                        last
                    }
                })
                .collect(),
        )
    }
}

/// Convenience: a single ping as a [`PingRecord`].
pub fn ping_once(
    net: &Network,
    src: ClusterId,
    dst: ClusterId,
    proto: Protocol,
    t: SimTime,
) -> PingRecord {
    PingRecord { src, dst, proto, t, rtt_ms: net.ping(src, dst, proto, t, 0) }
}

/// Retry and timeout policy for the hardened campaign runners.
///
/// The backoff and deadline fields are *accounting* quantities: the
/// simulator's clock is the campaign schedule, so a retry re-probes the
/// same nominal instant, but the time an operator would have lost to
/// backoffs and wedged probes is tallied in the [`CampaignReport`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Attempts per probe slot (first try + retries), ≥ 1.
    pub max_attempts: u32,
    /// Deadline after which a stuck probe is abandoned, ms.
    pub probe_deadline_ms: f64,
    /// First retry backoff, ms; doubles per subsequent retry.
    pub backoff_base_ms: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3, probe_deadline_ms: 5_000.0, backoff_base_ms: 100.0 }
    }
}

/// What a fault-aware campaign did, slot by slot. A *slot* is one
/// (pair, protocol, instant) in the schedule.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CampaignReport {
    /// Slots the schedule offered to this process run.
    pub offered: usize,
    /// Probe attempts launched, including retries.
    pub attempted: usize,
    /// Slots that delivered a clean record.
    pub delivered: usize,
    /// Slots that delivered a truncated record (tail hops and destination
    /// echo lost in flight).
    pub truncated: usize,
    /// Retry attempts performed after a failed attempt.
    pub retried: usize,
    /// Slots abandoned after exhausting every attempt.
    pub gave_up: usize,
    /// Attempts lost to dropped results.
    pub dropped_probes: usize,
    /// Attempts lost to probes wedging past their deadline.
    pub stuck_probes: usize,
    /// Slots skipped because the source agent was crashed.
    pub agent_down_slots: usize,
    /// Pairs replayed from a checkpoint instead of being re-measured.
    pub resumed_pairs: usize,
    /// Operator time spent in retry backoffs, ms.
    pub backoff_ms: f64,
    /// Operator time lost waiting out stuck-probe deadlines, ms.
    pub deadline_ms_lost: f64,
    /// Workers that panicked (their pairs are in `poisoned_pairs`).
    pub worker_panics: usize,
    /// Pairs whose worker panicked; their accumulators are empty.
    pub poisoned_pairs: Vec<(ClusterId, ClusterId)>,
    /// Slots on shards the fabric abandoned after its retry budget: the
    /// schedule offered them, no process ever measured them. Dataset rows
    /// exist (synthetic lost records keep the timeline dense) but carry no
    /// signal, so they count against coverage like `agent_down_slots`.
    pub lost_slots: usize,
}

impl CampaignReport {
    /// Folds another report in (order-independent except for the poisoned
    /// pair list, which concatenates).
    pub fn merge(&mut self, other: &CampaignReport) {
        self.offered += other.offered;
        self.attempted += other.attempted;
        self.delivered += other.delivered;
        self.truncated += other.truncated;
        self.retried += other.retried;
        self.gave_up += other.gave_up;
        self.dropped_probes += other.dropped_probes;
        self.stuck_probes += other.stuck_probes;
        self.agent_down_slots += other.agent_down_slots;
        self.resumed_pairs += other.resumed_pairs;
        self.backoff_ms += other.backoff_ms;
        self.deadline_ms_lost += other.deadline_ms_lost;
        self.worker_panics += other.worker_panics;
        self.poisoned_pairs.extend(other.poisoned_pairs.iter().copied());
        self.lost_slots += other.lost_slots;
    }

    /// Coverage of the slots this run measured itself: clean deliveries
    /// over offered slots (truncated and abandoned slots are gaps).
    pub fn coverage(&self) -> Coverage {
        Coverage::new(self.delivered, self.offered)
    }

    /// Serializes the report to one `R|`-tagged line for the fabric's
    /// framed worker protocol. Floats render shortest-round-trip, so
    /// [`CampaignReport::from_line`] restores the exact values; the
    /// poisoned pair list rides along as `src,dst` entries.
    pub fn to_line(&self) -> String {
        let pairs: Vec<String> =
            self.poisoned_pairs.iter().map(|(s, d)| format!("{},{}", s.0, d.0)).collect();
        format!(
            "R|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}",
            self.offered,
            self.attempted,
            self.delivered,
            self.truncated,
            self.retried,
            self.gave_up,
            self.dropped_probes,
            self.stuck_probes,
            self.agent_down_slots,
            self.resumed_pairs,
            self.backoff_ms,
            self.deadline_ms_lost,
            self.worker_panics,
            self.lost_slots,
            pairs.join(";")
        )
    }

    /// Parses a line produced by [`CampaignReport::to_line`].
    pub fn from_line(line: &str) -> Result<CampaignReport, String> {
        let mut it = line.split('|');
        if it.next() != Some("R") {
            return Err(format!("expected R-tagged report line, got '{line}'"));
        }
        let mut field = |name: &str| {
            it.next().ok_or_else(|| format!("report line missing field {name}"))
        };
        fn num<T: std::str::FromStr>(s: &str, name: &str) -> Result<T, String> {
            s.parse().map_err(|_| format!("bad report field {name}='{s}'"))
        }
        let mut r = CampaignReport {
            offered: num(field("offered")?, "offered")?,
            attempted: num(field("attempted")?, "attempted")?,
            delivered: num(field("delivered")?, "delivered")?,
            truncated: num(field("truncated")?, "truncated")?,
            retried: num(field("retried")?, "retried")?,
            gave_up: num(field("gave_up")?, "gave_up")?,
            dropped_probes: num(field("dropped_probes")?, "dropped_probes")?,
            stuck_probes: num(field("stuck_probes")?, "stuck_probes")?,
            agent_down_slots: num(field("agent_down_slots")?, "agent_down_slots")?,
            resumed_pairs: num(field("resumed_pairs")?, "resumed_pairs")?,
            backoff_ms: num(field("backoff_ms")?, "backoff_ms")?,
            deadline_ms_lost: num(field("deadline_ms_lost")?, "deadline_ms_lost")?,
            worker_panics: num(field("worker_panics")?, "worker_panics")?,
            lost_slots: num(field("lost_slots")?, "lost_slots")?,
            poisoned_pairs: Vec::new(),
        };
        let pairs = field("poisoned_pairs")?;
        if it.next().is_some() {
            return Err(format!("trailing fields in report line '{line}'"));
        }
        for entry in pairs.split(';').filter(|e| !e.is_empty()) {
            let (s, d) = entry
                .split_once(',')
                .ok_or_else(|| format!("bad poisoned pair '{entry}'"))?;
            r.poisoned_pairs.push((
                ClusterId::new(num::<u32>(s, "poisoned src")?),
                ClusterId::new(num::<u32>(d, "poisoned dst")?),
            ));
        }
        Ok(r)
    }
}

/// A record standing in for a slot that produced nothing: the schedule
/// offered the measurement, the plane lost it. Public so the fabric's
/// degraded mode can synthesize byte-identical rows for shards abandoned
/// after the retry budget.
pub fn lost_record(
    src: ClusterId,
    dst: ClusterId,
    proto: Protocol,
    t: SimTime,
) -> TracerouteRecord {
    TracerouteRecord {
        src,
        dst,
        proto,
        t,
        hops: Vec::new(),
        reached: false,
        e2e_rtt_ms: None,
        src_addr: None,
        dst_addr: None,
    }
}

/// One scheduled measurement: a (pair, protocol, instant) and its global
/// sample index `seq`, the key of every fault decision and ping.
#[derive(Clone, Copy)]
pub(crate) struct Slot {
    src: ClusterId,
    dst: ClusterId,
    proto: Protocol,
    t: SimTime,
    seq: usize,
}

/// How the fault plane resolved a slot.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum SlotOutcome {
    /// A clean measurement.
    Clean,
    /// A measurement whose result lost its tail in flight.
    Truncated,
    /// Nothing came back; the kind folds its lost value so the timeline
    /// stays dense (a gap, not a hole, in the schedule).
    Lost,
}

/// What a slot measures and what it folds into: the only part of a
/// campaign the executors leave to the campaign kind.
pub(crate) trait SlotKind: Sync {
    /// Per-(pair, protocol) accumulator.
    type Acc: Send;
    /// Whether a truncated result is a partial measurement (a traceroute
    /// loses its tail hops) rather than a clean one (a ping reply has no
    /// tail to lose).
    const TRUNCATES: bool;
    /// Creates the accumulator of one (pair, protocol) series.
    fn init(&self, src: ClusterId, dst: ClusterId, proto: Protocol) -> Self::Acc;
    /// Measures `slot` unless the plane lost it, and folds the value.
    fn fold(
        &self,
        acc: &mut Self::Acc,
        net: &Network,
        injector: &FaultInjector,
        slot: Slot,
        outcome: SlotOutcome,
    );
    /// Called once per accumulator after the executor's last sample.
    fn finish(&self, _acc: &mut Self::Acc) {}
}

/// The traceroute kind: `opts_of(t, proto)` picks the tool options,
/// `init(src, dst, proto)` creates an accumulator, `step(acc, record)`
/// folds a record into it.
pub(crate) struct Traces<O, I, S> {
    pub(crate) opts_of: O,
    pub(crate) init: I,
    pub(crate) step: S,
}

impl<A, O, I, S> SlotKind for Traces<O, I, S>
where
    A: Send,
    O: Fn(SimTime, Protocol) -> TraceOptions + Sync,
    I: Fn(ClusterId, ClusterId, Protocol) -> A + Sync,
    S: Fn(&mut A, TracerouteRecord) + Sync,
{
    type Acc = A;
    const TRUNCATES: bool = true;

    fn init(&self, src: ClusterId, dst: ClusterId, proto: Protocol) -> A {
        (self.init)(src, dst, proto)
    }

    fn fold(&self, acc: &mut A, net: &Network, injector: &FaultInjector, s: Slot, o: SlotOutcome) {
        if o == SlotOutcome::Lost {
            return (self.step)(acc, lost_record(s.src, s.dst, s.proto, s.t));
        }
        let mut rec = trace(net, s.src, s.dst, s.proto, s.t, (self.opts_of)(s.t, s.proto));
        if o == SlotOutcome::Truncated {
            let keep = injector.truncated_hop_count(s.src, s.dst, s.t, rec.hops.len());
            rec.hops.truncate(keep);
            rec.reached = false;
            rec.e2e_rtt_ms = None;
            rec.dst_addr = None;
        }
        (self.step)(acc, rec);
    }
}

/// The ping kind: each slot's RTT (`None` when lost or unreachable) folds
/// into [`StreamSink`] state.
pub(crate) struct Pings<'a, K>(pub(crate) &'a K);

impl<K: StreamSink> SlotKind for Pings<'_, K> {
    type Acc = K::State;
    const TRUNCATES: bool = false;

    fn init(&self, src: ClusterId, dst: ClusterId, proto: Protocol) -> K::State {
        self.0.init(src, dst, proto)
    }

    fn fold(&self, st: &mut K::State, net: &Network, _: &FaultInjector, s: Slot, o: SlotOutcome) {
        let rtt = match o {
            SlotOutcome::Lost => None,
            _ => net.ping(s.src, s.dst, s.proto, s.t, s.seq as u64),
        };
        // Round through f32 first: sink state must see the exact values a
        // materialized timeline stores.
        self.0.fold(st, s.seq as u64, s.t, rtt.map(|r| f64::from(r as f32)));
    }

    fn finish(&self, state: &mut K::State) {
        self.0.finish(state);
    }
}

/// Resolves one slot under the fault plane: crash check, then up to
/// `retry.max_attempts` attempts with exponential backoff accounting.
fn resolve_slot<K: SlotKind>(
    injector: &FaultInjector,
    retry: &RetryPolicy,
    s: Slot,
    report: &mut CampaignReport,
) -> SlotOutcome {
    report.offered += 1;
    if injector.agent_down(s.src, s.seq as u64) {
        // A crashed agent launches nothing this epoch; retrying from the
        // same dead box is pointless.
        report.agent_down_slots += 1;
        return SlotOutcome::Lost;
    }
    let attempts = retry.max_attempts.max(1);
    for attempt in 0..attempts {
        report.attempted += 1;
        match injector.probe_fault(s.src, s.dst, s.proto, s.t, attempt) {
            ProbeFault::Truncated if K::TRUNCATES => {
                // The probe completed but its result lost the tail in
                // flight: deliver what survived. No retry — the agent got
                // *a* result and moves on.
                report.truncated += 1;
                return SlotOutcome::Truncated;
            }
            ProbeFault::None | ProbeFault::Truncated => {
                report.delivered += 1;
                return SlotOutcome::Clean;
            }
            ProbeFault::Dropped => report.dropped_probes += 1,
            ProbeFault::Stuck => {
                report.stuck_probes += 1;
                report.deadline_ms_lost += retry.probe_deadline_ms;
            }
        }
        if attempt + 1 < attempts {
            report.retried += 1;
            report.backoff_ms += retry.backoff_base_ms * f64::from(1u32 << attempt.min(20));
        }
    }
    report.gave_up += 1;
    SlotOutcome::Lost
}

fn init_accs<K: SlotKind>(
    kind: &K,
    pairs: &[(ClusterId, ClusterId)],
    cfg: &CampaignConfig,
) -> Vec<K::Acc> {
    pairs
        .iter()
        .flat_map(|&(s, d)| cfg.protocols.iter().map(move |&p| kind.init(s, d, p)))
        .collect()
}

/// The one production slot executor (see [`crate::Campaign`] for the
/// front doors): resolves every (pair, protocol) slot of the global sample
/// indices `samples` and folds it through `kind`. Accumulators are ordered
/// pair-major, then protocol in `cfg.protocols` order.
///
/// The measurement plane sits behind a [`FaultProfile`]: crashed agents
/// skip their epochs, dropped and stuck probes retry under `retry`,
/// truncated results are delivered incomplete, and slots that produce
/// nothing fold the kind's lost value so every timeline stays dense (one
/// sample per scheduled instant). Workers are panic-isolated: a panicking
/// worker poisons only its own pairs (reported, with fresh accumulators)
/// instead of taking the campaign down.
///
/// Every fault decision and ping is keyed on the slot's global sample
/// index, so the outcome is independent of thread count, execution order
/// and range split: folding consecutive ranges reproduces one run over
/// their union, [merged](CampaignReport::merge) reports included, and under
/// the all-zero default profile the accumulators are the plain runner's.
pub(crate) fn run_core<K: SlotKind>(
    net: &Network,
    pairs: &[(ClusterId, ClusterId)],
    cfg: &CampaignConfig,
    profile: &FaultProfile,
    retry: &RetryPolicy,
    kind: &K,
    samples: Range<usize>,
) -> (Vec<K::Acc>, CampaignReport) {
    let injector = FaultInjector::new(*profile);
    let (times, runs) = s2s_obs::timed("campaign.plan", || {
        let times: Vec<SimTime> = sample_times(cfg.start, cfg.end, cfg.interval)
            .skip(samples.start)
            .take(samples.len())
            .collect();
        let runs = epoch_runs(net, &times);
        (times, runs)
    });
    let n_protos = cfg.protocols.len();
    let work = |chunk: &[(ClusterId, ClusterId)]| {
        let mut report = CampaignReport::default();
        let mut accs = init_accs(kind, chunk, cfg);
        let order = dst_batched_order(net, chunk);
        for run in &runs {
            for &pi in &order {
                let (src, dst) = chunk[pi];
                for ti in run.clone() {
                    for (qi, &proto) in cfg.protocols.iter().enumerate() {
                        let slot = Slot { src, dst, proto, t: times[ti], seq: samples.start + ti };
                        let outcome = resolve_slot::<K>(&injector, retry, slot, &mut report);
                        kind.fold(&mut accs[pi * n_protos + qi], net, &injector, slot, outcome);
                    }
                }
            }
        }
        accs.iter_mut().for_each(|acc| kind.finish(acc));
        (accs, report)
    };
    s2s_obs::timed("campaign.execute", || {
        run_partitioned_isolated(pairs, cfg, work, |chunk| init_accs(kind, chunk, cfg))
    })
}

/// The sequential, unbatched executor — the reference side of the
/// byte-identity suites and of [`crate::Campaign::reference`], for both
/// kinds: one thread, time-outer, pair-inner, every slot through the same
/// [`resolve_slot`] and `kind` as [`run_core`]. It validates that batching
/// and threads change neither the accumulators nor the [`CampaignReport`].
pub(crate) fn run_reference<K: SlotKind>(
    net: &Network,
    pairs: &[(ClusterId, ClusterId)],
    cfg: &CampaignConfig,
    profile: &FaultProfile,
    retry: &RetryPolicy,
    kind: &K,
) -> (Vec<K::Acc>, CampaignReport) {
    let injector = FaultInjector::new(*profile);
    let mut report = CampaignReport::default();
    let mut accs = init_accs(kind, pairs, cfg);
    for (seq, t) in sample_times(cfg.start, cfg.end, cfg.interval).enumerate() {
        for (pi, &(src, dst)) in pairs.iter().enumerate() {
            for (qi, &proto) in cfg.protocols.iter().enumerate() {
                let slot = Slot { src, dst, proto, t, seq };
                let outcome = resolve_slot::<K>(&injector, retry, slot, &mut report);
                let acc = &mut accs[pi * cfg.protocols.len() + qi];
                kind.fold(acc, net, &injector, slot, outcome);
            }
        }
    }
    accs.iter_mut().for_each(|acc| kind.finish(acc));
    (accs, report)
}

/// Partitions pairs across `cfg.threads` workers and concatenates their
/// accumulators in pair order and their reports. Workers are
/// panic-isolated: a panicking worker contributes fresh accumulators
/// (built by `mk_empty`) and marks its pairs poisoned instead of aborting
/// the campaign.
fn run_partitioned_isolated<A, F, E>(
    pairs: &[(ClusterId, ClusterId)],
    cfg: &CampaignConfig,
    work: F,
    mk_empty: E,
) -> (Vec<A>, CampaignReport)
where
    A: Send,
    F: Fn(&[(ClusterId, ClusterId)]) -> (Vec<A>, CampaignReport) + Sync,
    E: Fn(&[(ClusterId, ClusterId)]) -> Vec<A> + Sync,
{
    let threads = cfg.threads.max(1).min(pairs.len().max(1));
    let chunk_size = pairs.len().div_ceil(threads).max(1);
    let isolated = |chunk: &[(ClusterId, ClusterId)]| {
        match catch_unwind(AssertUnwindSafe(|| work(chunk))) {
            Ok(result) => result,
            Err(_) => {
                let report = CampaignReport {
                    worker_panics: 1,
                    poisoned_pairs: chunk.to_vec(),
                    ..CampaignReport::default()
                };
                (mk_empty(chunk), report)
            }
        }
    };
    // A lone worker runs on the calling thread: the service's per-epoch
    // advance would otherwise spawn a thread per schedule instant.
    let isolated = &isolated;
    let chunk_results: Vec<(Vec<A>, CampaignReport)> = if threads == 1 {
        vec![isolated(pairs)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> =
                pairs.chunks(chunk_size).map(|c| scope.spawn(move || isolated(c))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("isolated campaign worker cannot panic"))
                .collect()
        })
    };
    let mut report = CampaignReport::default();
    let mut accs = Vec::new();
    for (chunk_accs, chunk_report) in chunk_results {
        report.merge(&chunk_report);
        accs.extend(chunk_accs);
    }
    (accs, report)
}

// ---------------------------------------------------------------------------
// Checkpoint / resume
// ---------------------------------------------------------------------------

/// Pairs per worker thread in one checkpoint block: a checkpointed run
/// measures `threads × CHECKPOINT_BLOCK_PAIRS` pairs at a time through the
/// batched core before appending them. Large enough that each block sweeps
/// the schedule epoch-major over many pairs (a route table is computed
/// once per block instead of once per pair), small enough that a kill
/// loses little work.
pub(crate) const CHECKPOINT_BLOCK_PAIRS: usize = 64;

/// What a checkpoint chunk keeps of one (pair, protocol) slot.
pub(crate) enum Archived {
    /// A traceroute slot's records, one row per sample in time order.
    Rows(Box<TraceStore>),
    /// A ping slot's [`StreamSink::save`] line.
    Line(String),
}

/// The checkpoint/resume ping executor over a [`StreamSink`]: the core
/// run as a block fold by [`run_checkpointed`], each slot archived as its
/// [`StreamSink::save`] line and replayed by [`StreamSink::load`] (the
/// per-probe report counters of replayed pairs are not reconstructed,
/// mirroring the traceroute path). `save`/`load` round-trip bit-exactly,
/// so the finished file and states match an uninterrupted run's.
#[allow(clippy::too_many_arguments)]
pub(crate) fn ping_sink_resumable_impl<K: StreamSink>(
    net: &Network,
    pairs: &[(ClusterId, ClusterId)],
    cfg: &CampaignConfig,
    profile: &FaultProfile,
    retry: &RetryPolicy,
    checkpoint: &std::path::Path,
    block_pairs: usize,
    sink: &K,
) -> std::io::Result<(Vec<K::State>, CampaignReport)> {
    let n_samples = cfg.n_samples();
    run_checkpointed(
        checkpoint,
        pairs,
        cfg,
        (0, 1),
        block_pairs,
        |_, _, _, lines| lines.iter().map(|line| sink.load(line)).collect(),
        |block| {
            let (states, report) =
                run_core(net, block, cfg, profile, retry, &Pings(sink), 0..n_samples);
            let slots = states.into_iter().map(|st| {
                let line = Archived::Line(sink.save(&st));
                (st, line)
            });
            (slots.collect(), report)
        },
    )
}

/// The checkpoint/resume traceroute executor (see [`crate::Campaign::checkpoint`]
/// for the public front door): the core run as a block fold by
/// [`run_checkpointed`], so a checkpointed campaign measures epoch-major
/// and destination-batched exactly like an in-memory one.
///
/// **Bit-identical dataset guarantee.** Kill this process at any instant
/// and rerun with the same arguments: the finished checkpoint file is
/// byte-identical to the one an uninterrupted run writes, and the returned
/// accumulators are equal. Fault decisions are content-keyed; chunks are
/// appended in pair order and a torn tail is cut off on resume; a fresh
/// record is folded live and archived as a store row, and a replayed one
/// is its row's lossless [`TraceView::to_record`](crate::TraceView::to_record).
#[allow(clippy::too_many_arguments)]
pub(crate) fn traceroute_resumable_impl<A, O, I, S>(
    net: &Network,
    pairs: &[(ClusterId, ClusterId)],
    cfg: &CampaignConfig,
    profile: &FaultProfile,
    retry: &RetryPolicy,
    checkpoint: &std::path::Path,
    block_pairs: usize,
    kind: &Traces<O, I, S>,
) -> std::io::Result<(Vec<A>, CampaignReport)>
where
    A: Send,
    O: Fn(SimTime, Protocol) -> TraceOptions + Sync,
    I: Fn(ClusterId, ClusterId, Protocol) -> A + Sync,
    S: Fn(&mut A, TracerouteRecord) + Sync,
{
    let n_samples = cfg.n_samples();
    let archiving = Traces {
        opts_of: &kind.opts_of,
        init: |s, d, p| ((kind.init)(s, d, p), TraceStore::new()),
        step: |(acc, rows): &mut (A, TraceStore), rec: TracerouteRecord| {
            rows.push(&rec);
            (kind.step)(acc, rec);
        },
    };
    run_checkpointed(
        checkpoint,
        pairs,
        cfg,
        (n_samples, 0),
        block_pairs,
        |pi, store, rows, _| {
            let (src, dst) = pairs[pi];
            let mut next = rows.start;
            let accs = cfg.protocols.iter().map(|&p| {
                let mut acc = (kind.init)(src, dst, p);
                for i in next..next + n_samples {
                    (kind.step)(&mut acc, store.view(i).to_record());
                }
                next += n_samples;
                acc
            });
            Ok(accs.collect())
        },
        |block| {
            let (slots, report) =
                run_core(net, block, cfg, profile, retry, &archiving, 0..n_samples);
            let slots = slots.into_iter().map(|(acc, rows)| (acc, Archived::Rows(Box::new(rows))));
            (slots.collect(), report)
        },
    )
}

/// The block fold both checkpointed executors share. A checkpoint is a
/// log of snapshot chunks ([`snapshot::write_parts`]), one per block of
/// `block_pairs` pairs measured by `run_block`: each slot's `rows_per_slot`
/// rows as `BLOCK` segments, and as sink lines, per pair, the header
/// `B|<pair_index>|<records>|<src>|<dst>|<start>|<end>|<interval>|<protocols>`
/// (pinning the pair and the schedule) then its slots' `lines_per_slot`
/// lines each. Chunks are flushed, not synced: the crash model is a
/// killed process, and a kill loses at most one block.
///
/// Resume `replay`s the chunks in order (`replay(pair_index, chunk_store,
/// rows, lines)`). The first chunk that does not read cleanly (torn,
/// bit-flipped, another format) or names other pairs or another schedule
/// ends the replayable prefix; the file is cut back to it and the rest is
/// re-measured, never folded into the wrong slots.
///
/// `run_block` returns one `(accumulator, archive)` per (pair, protocol)
/// slot, pair-major, plus the block's report. A pair the report marks
/// poisoned (its worker panicked) holds fresh accumulators, so its chunk
/// stops before it and nothing more is appended: a rerun re-measures from
/// that pair on instead of replaying its empty state as complete.
fn run_checkpointed<A>(
    checkpoint: &std::path::Path,
    pairs: &[(ClusterId, ClusterId)],
    cfg: &CampaignConfig,
    (rows_per_slot, lines_per_slot): (usize, usize),
    block_pairs: usize,
    replay: impl Fn(usize, &TraceStore, Range<usize>, &[String]) -> std::io::Result<Vec<A>>,
    run_block: impl Fn(&[(ClusterId, ClusterId)]) -> (Vec<(A, Archived)>, CampaignReport),
) -> std::io::Result<(Vec<A>, CampaignReport)> {
    let n_protos = cfg.protocols.len();
    let (rows_per_pair, lines_per_pair) = (rows_per_slot * n_protos, 1 + lines_per_slot * n_protos);
    let protocols: Vec<String> = cfg.protocols.iter().map(ToString::to_string).collect();
    let schedule =
        format!("{}|{}|{}|{}", cfg.start.0, cfg.end.0, cfg.interval.0, protocols.join(","));
    let header = |pi: usize| {
        let (records, (src, dst)) = (rows_per_pair + lines_per_pair - 1, pairs[pi]);
        format!("B|{pi}|{records}|{}|{}|{schedule}", src.0, dst.0)
    };

    let mut accs: Vec<A> = Vec::with_capacity(pairs.len() * n_protos);
    let mut report = CampaignReport::default();
    let (mut done, mut keep) = (0, 0);
    let log = match snapshot::LogReader::open(checkpoint) {
        Ok(log) => Some(log),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(e),
    };
    if let Some(mut log) = log {
        'chunks: while let Some(chunk) = log.next_chunk()? {
            let n = chunk.sinks.len() / lines_per_pair;
            let fits = n > 0
                && done + n <= pairs.len()
                && chunk.sinks.len() == n * lines_per_pair
                && chunk.store.len() == n * rows_per_pair
                && (0..n).all(|j| chunk.sinks[j * lines_per_pair] == header(done + j));
            if !fits {
                break;
            }
            let mut replayed = Vec::with_capacity(n * n_protos);
            for j in 0..n {
                let lines = &chunk.sinks[j * lines_per_pair + 1..(j + 1) * lines_per_pair];
                let rows = j * rows_per_pair..(j + 1) * rows_per_pair;
                // A state line that does not load is damage too.
                let Ok(pair_accs) = replay(done + j, &chunk.store, rows, lines) else {
                    break 'chunks;
                };
                replayed.extend(pair_accs);
            }
            accs.extend(replayed);
            done += n;
            keep = log.offset();
        }
    }
    report.resumed_pairs = done;
    // Appends after the replayable chunks; set_len discards the rest.
    let file = std::fs::OpenOptions::new().create(true).append(true).open(checkpoint)?;
    file.set_len(keep)?;
    let mut out = std::io::BufWriter::new(file);

    let mut appending = true;
    for block in pairs[done..].chunks(block_pairs.max(1)) {
        let (slots, block_report) = run_block(block);
        let whole = if appending {
            block.iter().take_while(|p| !block_report.poisoned_pairs.contains(p)).count()
        } else {
            0
        };
        let (mut stores, mut sinks) = (Vec::new(), Vec::new());
        for (i, (acc, archived)) in slots.into_iter().enumerate() {
            let j = i / n_protos;
            if j < whole {
                if i % n_protos == 0 {
                    sinks.push(header(done + j));
                }
                match archived {
                    Archived::Rows(rows) => stores.push(rows),
                    Archived::Line(line) => sinks.push(line),
                }
            }
            accs.push(acc);
        }
        if whole > 0 {
            let parts: Vec<_> = stores.iter().map(|st| (&**st, 0..st.len())).collect();
            snapshot::write_parts(&mut out, &parts, &sinks, snapshot::DEFAULT_BLOCK_TRACES)?;
        }
        appending &= whole == block.len();
        report.merge(&block_report);
        done += block.len();
    }
    Ok((accs, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Campaign;
    use crate::dataset::traceroute_to_line;
    use s2s_netsim::{CongestionModel, NetworkParams};
    use s2s_routing::{Dynamics, DynamicsParams, RouteOracle};
    use s2s_topology::{build_topology, TopologyParams};
    use std::sync::Arc;

    fn network(seed: u64) -> Network {
        let topo = Arc::new(build_topology(&TopologyParams::tiny(seed)));
        let oracle = Arc::new(RouteOracle::new(
            Arc::clone(&topo),
            Arc::new(Dynamics::all_up(&topo, SimTime::from_days(10))),
        ));
        Network::new(
            oracle,
            CongestionModel::none(),
            NetworkParams { loss_prob: 0.0, spike_prob: 0.0, ..NetworkParams::default() },
        )
    }

    /// A network whose availability timeline has many epochs, so the
    /// epoch-batched runners actually exercise run boundaries.
    fn dynamic_network(seed: u64) -> Network {
        let topo = Arc::new(build_topology(&TopologyParams::tiny(seed)));
        let dynamics = Arc::new(Dynamics::generate(
            &topo,
            &DynamicsParams {
                seed: seed ^ 0xD1CE,
                horizon: SimTime::from_days(10),
                stable_fraction: 0.25,
                mean_episodes: 4.0,
                ..DynamicsParams::default()
            },
        ));
        assert!(
            dynamics.epoch_count() > 3,
            "test world must span several epochs, got {}",
            dynamics.epoch_count()
        );
        let oracle = Arc::new(RouteOracle::new(Arc::clone(&topo), dynamics));
        Network::new(
            oracle,
            CongestionModel::none(),
            NetworkParams { loss_prob: 0.0, spike_prob: 0.0, ..NetworkParams::default() },
        )
    }

    #[test]
    fn report_line_round_trips_exactly() {
        let r = CampaignReport {
            offered: 120,
            attempted: 131,
            delivered: 101,
            truncated: 7,
            retried: 11,
            gave_up: 3,
            dropped_probes: 9,
            stuck_probes: 2,
            agent_down_slots: 5,
            resumed_pairs: 4,
            backoff_ms: 1234.5678901,
            deadline_ms_lost: 0.1 + 0.2, // a value that would betray rounding
            worker_panics: 1,
            poisoned_pairs: vec![(ClusterId::new(3), ClusterId::new(9))],
            lost_slots: 4,
        };
        let back = CampaignReport::from_line(&r.to_line()).unwrap();
        assert_eq!(back, r, "report codec must be the identity");
        // And an all-default report survives too (empty poisoned list).
        let d = CampaignReport::default();
        assert_eq!(CampaignReport::from_line(&d.to_line()).unwrap(), d);
    }

    #[test]
    fn report_line_rejects_malformed_input() {
        assert!(CampaignReport::from_line("X|1|2").is_err());
        assert!(CampaignReport::from_line("R|1|2").is_err(), "too few fields");
        let good = CampaignReport::default().to_line();
        assert!(CampaignReport::from_line(&format!("{good}|extra")).is_err());
        let mangled = good.replace("R|0", "R|zero");
        assert!(CampaignReport::from_line(&mangled).is_err());
    }

    #[test]
    fn merge_folds_lost_slots_and_preserves_identities() {
        let mut a = CampaignReport {
            offered: 10,
            attempted: 10,
            delivered: 10,
            ..CampaignReport::default()
        };
        let b = CampaignReport { offered: 6, lost_slots: 6, ..CampaignReport::default() };
        a.merge(&b);
        assert_eq!(a.offered, 16);
        assert_eq!(a.lost_slots, 6);
        // offered = delivered + truncated + gave_up + agent_down + lost
        assert_eq!(
            a.offered,
            a.delivered + a.truncated + a.gave_up + a.agent_down_slots + a.lost_slots
        );
        // lost slots launched nothing, so attempted excludes them
        assert_eq!(a.attempted, a.offered - a.agent_down_slots - a.lost_slots + a.retried);
    }

    #[test]
    fn full_mesh_has_n_times_n_minus_one() {
        let pairs = full_mesh_pairs(5);
        assert_eq!(pairs.len(), 20);
        assert!(pairs.iter().all(|(a, b)| a != b));
    }

    #[test]
    fn campaign_counts_match_schedule() {
        let net = network(42);
        let pairs = vec![
            (ClusterId::new(0), ClusterId::new(1)),
            (ClusterId::new(2), ClusterId::new(3)),
        ];
        let cfg = CampaignConfig {
            start: SimTime::T0,
            end: SimTime::from_days(1),
            interval: SimDuration::from_hours(3),
            protocols: vec![Protocol::V4, Protocol::V6],
            threads: 2,
        };
        assert_eq!(cfg.n_samples(), 8);
        let (counts, report) = Campaign::new(cfg)
            .run_traceroute(&net, &pairs, TraceOptions::default(), |_, _, _| 0usize, |acc, _| {
                *acc += 1
            })
            .unwrap();
        // 2 pairs × 2 protocols accumulators, 8 records each.
        assert_eq!(counts, vec![8, 8, 8, 8]);
        assert_eq!(report.offered, 32);
        assert_eq!(report.delivered, 32, "quiet default profile delivers every slot");
    }

    #[test]
    fn accumulators_are_pair_major_proto_minor() {
        let net = network(42);
        let pairs =
            vec![(ClusterId::new(0), ClusterId::new(1)), (ClusterId::new(1), ClusterId::new(2))];
        let cfg = CampaignConfig {
            start: SimTime::T0,
            end: SimTime::from_hours(3),
            interval: SimDuration::from_hours(3),
            protocols: vec![Protocol::V4, Protocol::V6],
            threads: 1,
        };
        let (ids, _) = Campaign::new(cfg)
            .run_traceroute(&net, &pairs, TraceOptions::default(), |s, d, p| (s, d, p), |_, _| {})
            .unwrap();
        assert_eq!(ids[0], (ClusterId::new(0), ClusterId::new(1), Protocol::V4));
        assert_eq!(ids[1], (ClusterId::new(0), ClusterId::new(1), Protocol::V6));
        assert_eq!(ids[2], (ClusterId::new(1), ClusterId::new(2), Protocol::V4));
    }

    #[test]
    fn parallel_equals_serial() {
        let net = network(42);
        let pairs = full_mesh_pairs(6);
        let mk_cfg = |threads| CampaignConfig {
            start: SimTime::T0,
            end: SimTime::from_hours(9),
            interval: SimDuration::from_hours(3),
            protocols: vec![Protocol::V4],
            threads,
        };
        let collect = |cfg: &CampaignConfig| {
            Campaign::new(cfg.clone())
                .run_traceroute(
                    &net,
                    &pairs,
                    TraceOptions::default(),
                    |_, _, _| Vec::new(),
                    |acc: &mut Vec<Option<f64>>, rec| acc.push(rec.e2e_rtt_ms),
                )
                .unwrap()
                .0
        };
        assert_eq!(collect(&mk_cfg(1)), collect(&mk_cfg(4)));
    }

    #[test]
    fn ping_campaign_produces_dense_timelines() {
        let net = network(42);
        let pairs = vec![(ClusterId::new(0), ClusterId::new(2))];
        let cfg = CampaignConfig {
            start: SimTime::T0,
            end: SimTime::from_hours(2),
            interval: SimDuration::from_minutes(15),
            protocols: vec![Protocol::V4],
            threads: 1,
        };
        let (tl, _) = Campaign::new(cfg).run_ping(&net, &pairs).unwrap();
        assert_eq!(tl.len(), 1);
        assert_eq!(tl[0].rtts.len(), 8);
        assert_eq!(tl[0].valid_samples(), 8, "no loss configured");
        assert!(tl[0].valid_rtts().iter().all(|&r| r > 0.0));
    }

    #[test]
    fn filled_rtts_interpolates_losses() {
        let tl = PingTimeline {
            src: ClusterId::new(0),
            dst: ClusterId::new(1),
            proto: Protocol::V4,
            start: SimTime::T0,
            interval: SimDuration::from_minutes(15),
            rtts: vec![f32::NAN, 10.0, f32::NAN, 12.0, f32::NAN],
        };
        assert_eq!(tl.filled_rtts().unwrap(), vec![10.0, 10.0, 10.0, 12.0, 12.0]);
        assert_eq!(tl.valid_samples(), 2);
        let empty = PingTimeline { rtts: vec![f32::NAN], ..tl };
        assert!(empty.filled_rtts().is_none());
    }

    #[test]
    fn colocated_pairs_share_cities() {
        let topo = build_topology(&TopologyParams::tiny(42));
        let pairs = colocated_pairs(&topo);
        for (a, b) in &pairs {
            assert_eq!(topo.clusters[a.index()].city, topo.clusters[b.index()].city);
        }
    }

    #[test]
    fn ping_once_returns_record() {
        let net = network(42);
        let r = ping_once(&net, ClusterId::new(0), ClusterId::new(1), Protocol::V4, SimTime::T0);
        assert!(r.rtt_ms.is_some());
        assert_eq!(r.src, ClusterId::new(0));
    }

    // -- hardened / fault-aware runners ------------------------------------

    fn small_cfg(threads: usize) -> CampaignConfig {
        CampaignConfig {
            start: SimTime::T0,
            end: SimTime::from_hours(12),
            interval: SimDuration::from_hours(3),
            protocols: vec![Protocol::V4, Protocol::V6],
            threads,
        }
    }

    fn lossy_profile() -> FaultProfile {
        FaultProfile {
            crash_rate: 0.02,
            drop_rate: 0.15,
            stuck_rate: 0.05,
            truncate_rate: 0.05,
            ..FaultProfile::default()
        }
    }

    /// The plain (fault-free) epoch-batched parallel runner: the independent
    /// baseline the zero-fault equivalence tests compare the fault-aware
    /// executor core against (an all-zero profile is a no-op by construction).
    fn traceroute_with_impl<A, O, I, S>(
        net: &Network,
        pairs: &[(ClusterId, ClusterId)],
        cfg: &CampaignConfig,
        opts_of: O,
        init: I,
        step: S,
    ) -> Vec<A>
    where
        A: Send,
        O: Fn(SimTime, Protocol) -> TraceOptions + Sync,
        I: Fn(ClusterId, ClusterId, Protocol) -> A + Sync,
        S: Fn(&mut A, TracerouteRecord) + Sync,
    {
        let (times, runs) = s2s_obs::timed("campaign.plan", || {
            let times: Vec<SimTime> = sample_times(cfg.start, cfg.end, cfg.interval).collect();
            let runs = epoch_runs(net, &times);
            (times, runs)
        });
        let (times, runs, opts_of, init, step) = (&times, &runs, &opts_of, &init, &step);
        s2s_obs::timed("campaign.execute", || {
            let work = move |chunk: &[(ClusterId, ClusterId)]| {
                let mut accs: Vec<A> = chunk
                    .iter()
                    .flat_map(|&(s, d)| cfg.protocols.iter().map(move |&p| init(s, d, p)))
                    .collect();
                let order = dst_batched_order(net, chunk);
                for run in runs.iter() {
                    for &pi in &order {
                        let (src, dst) = chunk[pi];
                        for ti in run.clone() {
                            let t = times[ti];
                            for (qi, &proto) in cfg.protocols.iter().enumerate() {
                                let rec = trace(net, src, dst, proto, t, opts_of(t, proto));
                                step(&mut accs[pi * cfg.protocols.len() + qi], rec);
                            }
                        }
                    }
                }
                (accs, CampaignReport::default())
            };
            run_partitioned_isolated(pairs, cfg, work, |_| Vec::new()).0
        })
    }

    /// The plain (fault-free) parallel ping runner, the ping counterpart of
    /// [`traceroute_with_impl`].
    fn ping_impl(
        net: &Network,
        pairs: &[(ClusterId, ClusterId)],
        cfg: &CampaignConfig,
    ) -> Vec<PingTimeline> {
        let times: Vec<SimTime> = sample_times(cfg.start, cfg.end, cfg.interval).collect();
        let times = &times;
        let work = move |chunk: &[(ClusterId, ClusterId)]| {
            let mut out: Vec<PingTimeline> = chunk
                .iter()
                .flat_map(|&(s, d)| {
                    cfg.protocols.iter().map(move |&p| PingTimeline {
                        src: s,
                        dst: d,
                        proto: p,
                        start: cfg.start,
                        interval: cfg.interval,
                        rtts: Vec::with_capacity(times.len()),
                    })
                })
                .collect();
            for (ti, &t) in times.iter().enumerate() {
                for (pi, &(src, dst)) in chunk.iter().enumerate() {
                    for (qi, &proto) in cfg.protocols.iter().enumerate() {
                        let rtt = net.ping(src, dst, proto, t, ti as u64);
                        out[pi * cfg.protocols.len() + qi]
                            .rtts
                            .push(rtt.map(|r| r as f32).unwrap_or(f32::NAN));
                    }
                }
            }
            (out, CampaignReport::default())
        };
        run_partitioned_isolated(pairs, cfg, work, |_| Vec::new()).0
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/tmp"));
        std::fs::create_dir_all(dir).expect("create target/tmp");
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn zero_faults_match_plain_traceroute_runner() {
        let net = network(42);
        let pairs = full_mesh_pairs(5);
        let cfg = small_cfg(3);
        let quiet = FaultProfile::default();
        assert!(quiet.is_quiet());
        // The independent fault-free baseline: the plain runner, which the
        // builder never calls (it always routes through the fault plane).
        let plain = traceroute_with_impl(
            &net,
            &pairs,
            &cfg,
            |_, _| TraceOptions::default(),
            |_, _, _| Vec::new(),
            |acc: &mut Vec<Option<f64>>, rec| acc.push(rec.e2e_rtt_ms),
        );
        let (faulty, report) = Campaign::new(cfg)
            .run_traceroute(
                &net,
                &pairs,
                TraceOptions::default(),
                |_, _, _| Vec::new(),
                |acc: &mut Vec<Option<f64>>, rec| acc.push(rec.e2e_rtt_ms),
            )
            .unwrap();
        assert_eq!(plain, faulty, "quiet profile must not change the dataset");
        assert_eq!(report.delivered, report.offered);
        assert_eq!(report.attempted, report.offered, "no retries under a quiet profile");
        assert_eq!(report.gave_up, 0);
        assert_eq!(report.worker_panics, 0);
        assert!((report.coverage().fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_faults_match_plain_ping_runner() {
        let net = network(42);
        let pairs = full_mesh_pairs(4);
        let cfg = CampaignConfig {
            interval: SimDuration::from_minutes(30),
            ..small_cfg(2)
        };
        let plain = ping_impl(&net, &pairs, &cfg);
        let (faulty, report) = Campaign::new(cfg).run_ping(&net, &pairs).unwrap();
        assert_eq!(plain.len(), faulty.len());
        for (a, b) in plain.iter().zip(&faulty) {
            assert_eq!(a.src, b.src);
            assert_eq!(a.proto, b.proto);
            let bits =
                |v: &[f32]| v.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.rtts), bits(&b.rtts));
        }
        assert_eq!(report.delivered, report.offered);
    }

    #[test]
    fn epoch_sweep_matches_batch_run_under_faults() {
        let net = dynamic_network(42);
        let pairs = full_mesh_pairs(5);
        let cfg = small_cfg(3);
        // Per-measurement options, so the sweep exercises opts_of too.
        let opts_of = |t: SimTime, proto: Protocol| TraceOptions {
            mode: if proto == Protocol::V4 && t >= SimTime::from_hours(6) {
                crate::tracer::TracerouteMode::Paris
            } else {
                crate::tracer::TracerouteMode::Classic
            },
            ..TraceOptions::default()
        };
        // The second profile also crashes agents, whose downtime is keyed
        // on the global sample index the per-epoch door must pass through.
        let crashy = FaultProfile { crash_rate: 0.3, ..lossy_profile() };
        for profile in [lossy_profile(), crashy] {
            let campaign = Campaign::new(cfg.clone()).faults(profile);
            let (batch, batch_report) = campaign
                .run_traceroute_with(
                    &net,
                    &pairs,
                    opts_of,
                    |_, _, _| Vec::new(),
                    |acc: &mut Vec<TracerouteRecord>, rec| acc.push(rec),
                )
                .unwrap();
            let slots = pairs.len() * cfg.protocols.len();
            let mut swept: Vec<Vec<TracerouteRecord>> = vec![Vec::new(); slots];
            let mut swept_report = CampaignReport::default();
            for epoch in 0..cfg.n_samples() {
                let r = campaign.run_traceroute_epoch(&net, &pairs, opts_of, epoch, |slot, rec| {
                    swept[slot].push(rec)
                });
                swept_report.merge(&r);
            }
            assert_eq!(swept, batch, "epoch sweep must reproduce the batch dataset exactly");
            assert_eq!(swept_report, batch_report, "merged per-epoch reports must equal batch");
            let lost = if profile == crashy {
                swept_report.agent_down_slots
            } else {
                swept_report.gave_up
            };
            assert!(lost > 0, "profile must actually lose slots");
        }
    }

    #[test]
    #[should_panic(expected = "out of schedule range")]
    fn epoch_past_schedule_end_panics() {
        let net = network(7);
        let pairs = vec![(ClusterId::new(0), ClusterId::new(1))];
        let cfg = small_cfg(1);
        let n = cfg.n_samples();
        Campaign::new(cfg).run_traceroute_epoch(
            &net,
            &pairs,
            |_, _| TraceOptions::default(),
            n,
            |_, _| {},
        );
    }

    #[test]
    fn fault_accounting_is_internally_consistent() {
        let net = network(42);
        let pairs = full_mesh_pairs(6);
        let cfg = small_cfg(3);
        let retry = RetryPolicy::default();
        let (accs, report) = Campaign::new(cfg)
            .faults(lossy_profile())
            .retry(retry)
            .run_traceroute(&net, &pairs, TraceOptions::default(), |_, _, _| 0usize, |acc, _| {
                *acc += 1
            })
            .unwrap();
        // Every slot folds exactly one record (real or synthetic): dense.
        let slots_per_acc = 4; // 12h at 3h intervals, end-exclusive -> t = 0,3,6,9
        assert!(accs.iter().all(|&n| n == slots_per_acc), "timelines must stay dense");
        // Every offered slot resolves exactly one way.
        assert_eq!(
            report.offered,
            report.delivered + report.truncated + report.gave_up + report.agent_down_slots
        );
        // Every attempt resolves exactly one way.
        assert_eq!(
            report.attempted,
            report.delivered + report.truncated + report.dropped_probes + report.stuck_probes
        );
        assert!(report.dropped_probes > 0, "15% drop rate over {} slots", report.offered);
        assert!(report.coverage().fraction() < 1.0);
        assert!(report.stuck_probes as f64 * retry.probe_deadline_ms <= report.deadline_ms_lost + 1e-9);
    }

    #[test]
    fn faulty_runner_is_thread_count_invariant() {
        let net = network(42);
        let pairs = full_mesh_pairs(6);
        let run = |threads| {
            Campaign::new(small_cfg(threads))
                .faults(lossy_profile())
                .run_traceroute(
                    &net,
                    &pairs,
                    TraceOptions::default(),
                    |_, _, _| Vec::new(),
                    |acc: &mut Vec<Option<f64>>, rec| acc.push(rec.e2e_rtt_ms),
                )
                .unwrap()
        };
        let (a1, r1) = run(1);
        let (a4, r4) = run(4);
        assert_eq!(a1, a4, "fault decisions are content-keyed, not order-keyed");
        assert_eq!(r1, r4);
    }

    #[test]
    fn worker_panic_poisons_only_its_pairs() {
        let net = network(42);
        let pairs = full_mesh_pairs(3); // 6 ordered pairs
        let bad = pairs[2];
        let cfg = CampaignConfig { protocols: vec![Protocol::V4], threads: pairs.len(), ..small_cfg(1) };
        let (accs, report) = Campaign::new(cfg)
            .run_traceroute(
                &net,
                &pairs,
                TraceOptions::default(),
                |_, _, _| 0usize,
                |acc: &mut usize, rec| {
                    assert!(
                        ((rec.src, rec.dst) != bad),
                        "injected worker failure for pair {:?}",
                        bad
                    );
                    *acc += 1;
                },
            )
            .unwrap();
        assert_eq!(report.worker_panics, 1);
        assert_eq!(report.poisoned_pairs, vec![bad]);
        for (i, &n) in accs.iter().enumerate() {
            if pairs[i] == bad {
                assert_eq!(n, 0, "poisoned pair contributes an empty accumulator");
            } else {
                assert_eq!(n, 4, "healthy pairs are untouched by the panic");
            }
        }
    }

    // -- epoch batching ----------------------------------------------------

    #[test]
    fn epoch_runs_are_contiguous_single_epoch_and_capped() {
        let net = dynamic_network(42);
        let dyns = net.oracle().dynamics();
        let times: Vec<SimTime> =
            sample_times(SimTime::T0, SimTime::from_days(10), SimDuration::from_hours(2))
                .collect();
        let runs = epoch_runs(&net, &times);
        // Runs tile 0..times.len() in order, without gaps or overlap.
        let mut next = 0;
        for r in &runs {
            assert_eq!(r.start, next, "runs must be contiguous");
            assert!(r.end > r.start, "runs must be non-empty");
            let e0 = dyns.epoch_of(times[r.start]);
            for ti in r.clone() {
                assert_eq!(dyns.epoch_of(times[ti]), e0, "run crosses an epoch boundary");
            }
            next = r.end;
        }
        assert_eq!(next, times.len(), "runs must cover every sample");
        // With breakpoints inside the horizon, the grouping produces more
        // than one run.
        assert!(runs.len() > 1);
        assert!(epoch_runs(&net, &[]).is_empty());
    }

    #[test]
    fn batched_parallel_matches_sequential_reference_byte_identical() {
        // The tentpole invariant: epoch-batched, dst-sorted, multi-threaded
        // execution serializes to exactly the bytes of the plain sequential
        // time-outer runner, for several worlds and thread counts.
        for seed in [7u64, 21, 42] {
            let net = dynamic_network(seed);
            let pairs = full_mesh_pairs(5);
            let mk_cfg = |threads| CampaignConfig {
                start: SimTime::T0,
                end: SimTime::from_days(5),
                interval: SimDuration::from_hours(6),
                protocols: vec![Protocol::V4, Protocol::V6],
                threads,
            };
            let init = |_, _, _| Vec::new();
            let step = |acc: &mut Vec<String>, rec: TracerouteRecord| {
                acc.push(traceroute_to_line(&rec))
            };
            let (reference, _) = Campaign::new(mk_cfg(1))
                .reference()
                .run_traceroute_with(&net, &pairs, |_, _| TraceOptions::default(), init, step)
                .unwrap();
            for threads in [1usize, 3] {
                let (batched, _) = Campaign::new(mk_cfg(threads))
                    .run_traceroute_with(&net, &pairs, |_, _| TraceOptions::default(), init, step)
                    .unwrap();
                assert_eq!(
                    batched, reference,
                    "seed {seed}, {threads} threads: batched runner diverged"
                );
            }
        }
    }

    #[test]
    fn faulty_batched_matches_faulty_reference() {
        // Fault decisions key on the sample index, so epoch batching must
        // not move any slot's fault outcome — dataset and report both match
        // for every fault profile shape the S2S_FAULT_* knobs can express.
        let net = dynamic_network(42);
        let pairs = full_mesh_pairs(5);
        let retry = RetryPolicy::default();
        let opts = |_, _| TraceOptions::default();
        let init = |_, _, _| Vec::new();
        let step =
            |acc: &mut Vec<String>, rec: TracerouteRecord| acc.push(traceroute_to_line(&rec));
        let cfg = CampaignConfig {
            start: SimTime::T0,
            end: SimTime::from_days(5),
            interval: SimDuration::from_hours(6),
            protocols: vec![Protocol::V4, Protocol::V6],
            threads: 3,
        };
        let crash_heavy = FaultProfile {
            crash_rate: 0.2,
            crash_mean_epochs: 3.0,
            drop_rate: 0.02,
            ..FaultProfile::default()
        };
        // The report's coverage identities survive batching + faults.
        let identities_hold = |report: &CampaignReport| {
            assert_eq!(
                report.offered,
                report.delivered + report.truncated + report.gave_up + report.agent_down_slots
            );
            assert_eq!(
                report.attempted,
                report.delivered + report.truncated + report.dropped_probes + report.stuck_probes
            );
            assert!(report.coverage().fraction() <= 1.0);
        };
        // Ping campaigns run the same core in the epoch-major order; their
        // sink states must match the reference's bit for bit (`save` lines).
        let timeline = crate::stream::TimelineSink::for_config(&cfg);
        let profiles = crate::stream::PairProfileSink::with_shape(&cfg, 64, 32);
        let pings = |campaign: Campaign| {
            let (tls, report) =
                campaign.clone().sink(timeline.clone()).run_ping(&net, &pairs).unwrap();
            let (pfs, pf_report) = campaign.sink(profiles.clone()).run_ping(&net, &pairs).unwrap();
            assert_eq!(pf_report, report);
            let lines: Vec<String> = tls
                .iter()
                .map(|st| timeline.save(st))
                .chain(pfs.iter().map(|st| profiles.save(st)))
                .collect();
            (lines, report)
        };
        for profile in [FaultProfile::default(), lossy_profile(), crash_heavy] {
            let (ref_accs, ref_report) = Campaign::new(cfg.clone())
                .reference()
                .faults(profile)
                .retry(retry)
                .run_traceroute_with(&net, &pairs, opts, init, step)
                .unwrap();
            let (accs, report) = Campaign::new(cfg.clone())
                .faults(profile)
                .retry(retry)
                .run_traceroute_with(&net, &pairs, opts, init, step)
                .unwrap();
            assert_eq!(accs, ref_accs, "faulty batched runner diverged from reference");
            assert_eq!(report, ref_report);
            identities_hold(&report);

            let (ref_lines, ref_report) =
                pings(Campaign::new(cfg.clone()).reference().faults(profile).retry(retry));
            for threads in [1usize, 3] {
                let campaign = Campaign::new(cfg.clone()).threads(threads);
                let (lines, report) = pings(campaign.faults(profile).retry(retry));
                assert_eq!(lines, ref_lines, "{threads} threads: ping core diverged");
                assert_eq!(report, ref_report);
                identities_hold(&report);
            }
        }
    }

    /// The chunks of a checkpoint log: each one's byte range and how many
    /// pairs it holds (its `B|` headers).
    fn chunk_spans(bytes: &[u8]) -> Vec<(Range<usize>, usize)> {
        let mut log = snapshot::LogReader::new(bytes);
        let (mut spans, mut at) = (Vec::new(), 0);
        while let Some(chunk) = log.next_chunk().expect("in-memory log") {
            let end = log.offset() as usize;
            spans.push((at..end, chunk.sinks.iter().filter(|l| l.starts_with("B|")).count()));
            at = end;
        }
        assert_eq!(at, bytes.len(), "a finished checkpoint is whole chunks");
        spans
    }

    /// Every record and sink line of a checkpoint log, chunk after chunk:
    /// what the file holds, whatever its chunking.
    fn log_contents(path: &std::path::Path) -> (Vec<TracerouteRecord>, Vec<String>) {
        let mut log = snapshot::LogReader::open(path).expect("open checkpoint");
        let (mut records, mut lines) = (Vec::new(), Vec::new());
        while let Some(chunk) = log.next_chunk().expect("read checkpoint") {
            records.extend(chunk.store.to_records());
            lines.extend(chunk.sinks);
        }
        assert_eq!(log.damage(), None);
        (records, lines)
    }

    /// Kill points in a finished checkpoint, each with the number of pairs
    /// replayable after it: every chunk's end (every block boundary) and
    /// five bytes past it, one cut at each pair boundary's share of every
    /// chunk (where a kill inside a block lands), and a cut inside the
    /// last chunk's tail.
    fn kill_points(bytes: &[u8]) -> Vec<(usize, usize)> {
        let (mut points, mut complete, mut last) = (vec![(0, 0), (1, 0)], 0, 0);
        for (span, pairs) in chunk_spans(bytes) {
            for j in 1..pairs {
                points.push((span.start + span.len() * j / pairs, complete));
            }
            complete += pairs;
            last = pairs;
            points.push((span.end, complete));
            if span.end + 5 < bytes.len() {
                points.push((span.end + 5, complete));
            }
        }
        points.push((bytes.len() - 7, complete - last));
        points
    }

    #[test]
    fn killed_and_resumed_checkpoint_is_bit_identical() {
        let net = network(42);
        let pairs = full_mesh_pairs(5); // 20 ordered pairs
        let cfg = small_cfg(2);
        let profile = lossy_profile();
        let retry = RetryPolicy::default();
        let init = |_, _, _| Vec::new();
        let step = |acc: &mut Vec<Option<f64>>, rec: TracerouteRecord| acc.push(rec.e2e_rtt_ms);
        // Blocks of 3 pairs: 7 blocks, each split over both threads.
        let run = |path: &std::path::Path| {
            let kind = Traces { opts_of: |_, _| TraceOptions::default(), init, step };
            traceroute_resumable_impl(&net, &pairs, &cfg, &profile, &retry, path, 3, &kind)
                .expect("resumable campaign")
        };

        let full_path = tmp_path("ckpt_uninterrupted.txt");
        let (full_accs, full_report) = run(&full_path);
        let full_bytes = std::fs::read(&full_path).unwrap();
        assert_eq!(full_report.resumed_pairs, 0);

        assert_eq!(chunk_spans(&full_bytes).len(), 7, "one chunk per block");

        // The file's records and lines do not depend on the block size,
        // only its chunking does: the builder's default block (all 20
        // pairs at once) writes one chunk holding the same contents.
        let default_path = tmp_path("ckpt_default_block.txt");
        let (accs, report) = Campaign::new(cfg.clone())
            .faults(profile)
            .retry(retry)
            .checkpoint(&default_path)
            .run_traceroute(&net, &pairs, TraceOptions::default(), init, step)
            .unwrap();
        assert_eq!(chunk_spans(&std::fs::read(&default_path).unwrap()).len(), 1);
        assert_eq!(log_contents(&default_path), log_contents(&full_path));
        assert_eq!((accs, report), (full_accs.clone(), full_report));
        let _ = std::fs::remove_file(&default_path);

        // Kill the campaign at every block boundary and inside every
        // chunk, and resume: the finished file must match the
        // uninterrupted one.
        for (cut, complete) in kill_points(&full_bytes) {
            let path = tmp_path(&format!("ckpt_killed_at_{cut}.txt"));
            std::fs::write(&path, &full_bytes[..cut]).unwrap();
            let (accs, report) = run(&path);
            let resumed_bytes = std::fs::read(&path).unwrap();
            assert!(
                resumed_bytes == full_bytes,
                "kill at byte {cut}: resumed checkpoint must be bit-identical"
            );
            assert_eq!(accs, full_accs, "kill at byte {cut}: accumulators must match");
            assert_eq!(report.resumed_pairs, complete, "kill at byte {cut}");
            assert_eq!(
                report.resumed_pairs + (report.offered / (4 * cfg.protocols.len())),
                pairs.len(),
                "kill at byte {cut}: every pair is either replayed or re-measured"
            );
            let _ = std::fs::remove_file(&path);
        }

        // Resuming a finished checkpoint re-measures nothing.
        let (accs, report) = run(&full_path);
        assert_eq!(accs, full_accs);
        assert_eq!(report.resumed_pairs, pairs.len());
        assert_eq!(report.offered, 0);
        assert_eq!(std::fs::read(&full_path).unwrap(), full_bytes);
        let _ = std::fs::remove_file(&full_path);
    }

    /// A torn or bit-flipped last chunk ends the replayable prefix: cut
    /// at a spread of offsets inside it, or with one bit flipped at a
    /// spread of offsets, a resumed run replays exactly the chunks before
    /// it and re-measures the rest, for traceroute and ping campaigns, and
    /// the finished file is byte-identical to an uninterrupted run's.
    #[test]
    fn torn_or_flipped_last_chunk_resumes_the_valid_prefix() {
        let net = network(7);
        let pairs = full_mesh_pairs(4); // 12 ordered pairs
        let cfg = small_cfg(2);
        let profile = lossy_profile();
        let retry = RetryPolicy::default();
        let init = |_, _, _| Vec::new();
        let step = |acc: &mut Vec<TracerouteRecord>, rec: TracerouteRecord| acc.push(rec);
        let sink = crate::stream::TimelineSink::for_config(&cfg);
        type Run<'a> = Box<dyn Fn(&std::path::Path) -> (String, CampaignReport) + 'a>;
        let runs: [(&str, Run<'_>); 2] = [
            (
                "traceroute",
                Box::new(|path| {
                    let kind = Traces { opts_of: |_, _| TraceOptions::default(), init, step };
                    let (accs, report) = traceroute_resumable_impl(
                        &net, &pairs, &cfg, &profile, &retry, path, 5, &kind,
                    )
                    .unwrap();
                    (format!("{accs:?}"), report)
                }),
            ),
            (
                "ping",
                Box::new(|path| {
                    let (states, report) = ping_sink_resumable_impl(
                        &net, &pairs, &cfg, &profile, &retry, path, 5, &sink,
                    )
                    .unwrap();
                    (format!("{:?}", timeline_bits(&states)), report)
                }),
            ),
        ];
        for (what, run) in &runs {
            let full_path = tmp_path(&format!("ckpt_torn_full_{what}.txt"));
            let (full, _) = run(&full_path);
            let full_bytes = std::fs::read(&full_path).unwrap();
            let spans = chunk_spans(&full_bytes);
            let (last, last_pairs) = spans.last().cloned().unwrap();
            let before = pairs.len() - last_pairs;
            let mut damaged: Vec<(String, Vec<u8>)> = Vec::new();
            for k in 1..=16 {
                let cut = last.start + (last.len() * k / 17).max(1);
                damaged.push((format!("cut at {cut}"), full_bytes[..cut].to_vec()));
            }
            for k in 0..16 {
                let at = last.start + last.len() * k / 16;
                let mut bytes = full_bytes.clone();
                bytes[at] ^= 1 << (k % 8);
                damaged.push((format!("bit flip at {at}"), bytes));
            }
            for (how, bytes) in damaged {
                let path = tmp_path(&format!("ckpt_torn_{what}.txt"));
                std::fs::write(&path, &bytes).unwrap();
                let (got, report) = run(&path);
                assert_eq!(report.resumed_pairs, before, "{what}, {how}");
                assert_eq!(got, full, "{what}, {how}: accumulators");
                assert!(std::fs::read(&path).unwrap() == full_bytes, "{what}, {how}: file");
                let _ = std::fs::remove_file(&path);
            }
            let _ = std::fs::remove_file(&full_path);
        }
    }

    /// A checkpoint in the text framing earlier versions wrote (`B|…`
    /// header, archive lines, `E|<pair>`) is foreign data: it is
    /// re-measured and replaced, never an error and never folded.
    #[test]
    fn text_framed_checkpoint_is_re_measured_and_replaced() {
        let net = network(42);
        let pairs = full_mesh_pairs(3);
        let cfg = small_cfg(2);
        let init = |_, _, _| Vec::new();
        let step =
            |acc: &mut Vec<String>, rec: TracerouteRecord| acc.push(traceroute_to_line(&rec));
        let run = |path: &std::path::Path| {
            Campaign::new(cfg.clone())
                .checkpoint(path)
                .run_traceroute(&net, &pairs, TraceOptions::default(), init, step)
                .unwrap()
        };
        let fresh_path = tmp_path("ckpt_text_fresh.txt");
        let (fresh, fresh_report) = run(&fresh_path);
        let mut text = String::new();
        for (pi, lines) in fresh.chunks(cfg.protocols.len()).enumerate() {
            let (src, dst) = pairs[pi];
            let n: usize = lines.iter().map(Vec::len).sum();
            let schedule = format!("{}|{}|{}|IPv4,IPv6", cfg.start.0, cfg.end.0, cfg.interval.0);
            text += &format!("B|{pi}|{n}|{}|{}|{schedule}\n", src.0, dst.0);
            // Time-major, protocol-minor, as those files held them.
            for t in 0..cfg.n_samples() {
                for proto_lines in lines {
                    text += &format!("{}\n", proto_lines[t]);
                }
            }
            text += &format!("E|{pi}\n");
        }
        let path = tmp_path("ckpt_text_framed.txt");
        std::fs::write(&path, text).unwrap();
        let (accs, report) = run(&path);
        assert_eq!(report.resumed_pairs, 0);
        assert_eq!((accs, report), (fresh, fresh_report));
        assert!(std::fs::read(&path).unwrap() == std::fs::read(&fresh_path).unwrap());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&fresh_path);
    }

    /// A checkpoint written by another campaign is never replayed: each
    /// block pins its pair and the schedule, so rerunning over the
    /// reversed pair list or the reversed protocol order re-measures every
    /// pair and matches a fresh run, for traceroute and ping campaigns.
    #[test]
    fn checkpoint_of_another_campaign_is_re_measured() {
        let net = network(42);
        let pairs = full_mesh_pairs(4);
        let reversed: Vec<_> = pairs.iter().rev().copied().collect();
        let cfg = small_cfg(2);
        let swapped = CampaignConfig { protocols: vec![Protocol::V6, Protocol::V4], ..cfg.clone() };
        let opts = TraceOptions::default();
        let init = |_, _, _| Vec::new();
        let step =
            |acc: &mut Vec<String>, rec: TracerouteRecord| acc.push(traceroute_to_line(&rec));
        for (case, other_pairs, other_cfg) in
            [("reversed pairs", &reversed, &cfg), ("reversed protocols", &pairs, &swapped)]
        {
            let path = tmp_path(&format!("ckpt_foreign_trace_{}.txt", case.replace(' ', "_")));
            Campaign::new(cfg.clone())
                .checkpoint(&path)
                .run_traceroute(&net, &pairs, opts, init, step)
                .unwrap();
            let other = Campaign::new(other_cfg.clone());
            let fresh = other.run_traceroute(&net, other_pairs, opts, init, step).unwrap();
            let (accs, report) = other
                .clone()
                .checkpoint(&path)
                .run_traceroute(&net, other_pairs, opts, init, step)
                .unwrap();
            assert_eq!(report.resumed_pairs, 0, "{case}: traceroute blocks replayed");
            assert_eq!((accs, report), fresh, "{case}: traceroute run");
            let _ = std::fs::remove_file(&path);

            let path = tmp_path(&format!("ckpt_foreign_ping_{}.txt", case.replace(' ', "_")));
            Campaign::new(cfg.clone()).checkpoint(&path).run_ping(&net, &pairs).unwrap();
            let (fresh, fresh_report) = other.run_ping(&net, other_pairs).unwrap();
            let (tls, report) = other.checkpoint(&path).run_ping(&net, other_pairs).unwrap();
            assert_eq!(report.resumed_pairs, 0, "{case}: ping blocks replayed");
            assert_eq!(timeline_bits(&tls), timeline_bits(&fresh), "{case}: ping run");
            assert_eq!(report, fresh_report, "{case}: ping report");
            let _ = std::fs::remove_file(&path);
        }
    }

    /// A panicking `step` under `.checkpoint()` poisons only its pair; the
    /// file stops before that pair's block, and a clean rerun re-measures
    /// it and finishes bit-identically.
    #[test]
    fn checkpointed_worker_panic_stops_the_file_before_its_pair() {
        let net = network(42);
        let pairs = full_mesh_pairs(3); // 6 ordered pairs
        let bad = 2;
        // One pair per worker, so the panic poisons exactly one pair.
        let cfg = CampaignConfig { protocols: vec![Protocol::V4], threads: 6, ..small_cfg(1) };
        let run = |path: &std::path::Path, fail: bool| {
            let step = |acc: &mut usize, rec: TracerouteRecord| {
                assert!(!fail || (rec.src, rec.dst) != pairs[bad], "injected worker failure");
                *acc += 1;
            };
            let campaign = Campaign::new(cfg.clone()).checkpoint(path);
            campaign
                .run_traceroute(&net, &pairs, TraceOptions::default(), |_, _, _| 0, step)
                .unwrap()
        };
        let clean_path = tmp_path("ckpt_panic_clean.txt");
        let (clean, _) = run(&clean_path, false);
        let clean_bytes = std::fs::read(&clean_path).unwrap();

        let path = tmp_path("ckpt_panic.txt");
        let (accs, report) = run(&path, true);
        assert_eq!(report.worker_panics, 1);
        assert_eq!(report.poisoned_pairs, vec![pairs[bad]]);
        for (i, (&n, &want)) in accs.iter().zip(&clean).enumerate() {
            assert_eq!(n, if i == bad { 0 } else { want }, "pair {i}");
        }
        // The file holds exactly the pairs before the poisoned one: the
        // chunk a clean run over those pairs alone writes.
        let before_path = tmp_path("ckpt_panic_before.txt");
        Campaign::new(cfg.clone())
            .checkpoint(&before_path)
            .run_traceroute(&net, &pairs[..bad], TraceOptions::default(), |_, _, _| 0, |_, _| {})
            .unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&before_path).unwrap());

        let (accs, report) = run(&path, false);
        assert_eq!(accs, clean);
        assert_eq!((report.resumed_pairs, report.worker_panics), (bad, 0));
        // The rerun appends the rest as a second chunk; the file then
        // holds the clean run's records and lines.
        assert_eq!(chunk_spans(&std::fs::read(&path).unwrap()).len(), 2);
        assert_eq!(log_contents(&path), log_contents(&clean_path));
        assert_eq!(chunk_spans(&clean_bytes).len(), 1);
        for p in [&path, &clean_path, &before_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    /// The count regression for the checkpoint path: over a horizon with
    /// more availability configs than the oracle's LRU holds, a
    /// checkpointed run whose pairs fit in one block computes the route
    /// tables of an in-memory run (a pair-major sweep recomputes every
    /// table per pair: 8.5× as many here), with identical accumulators
    /// and report.
    #[test]
    fn checkpointed_run_computes_routes_like_in_memory_run() {
        let pairs = full_mesh_pairs(5);
        let init = |_, _, _| Vec::new();
        let step =
            |acc: &mut Vec<String>, rec: TracerouteRecord| acc.push(traceroute_to_line(&rec));
        let mut lone_misses = 0;
        for threads in [1usize, 2] {
            for profile in [FaultProfile::default(), lossy_profile()] {
                let run = |path: Option<&std::path::Path>| {
                    let net = dynamic_network(42); // fresh oracle cache per run
                    let cfg = CampaignConfig { end: SimTime::from_days(10), ..small_cfg(threads) };
                    let mut campaign = Campaign::new(cfg).faults(profile);
                    if let Some(path) = path {
                        campaign = campaign.checkpoint(path);
                    }
                    let (accs, report) = campaign
                        .run_traceroute(&net, &pairs, TraceOptions::default(), init, step)
                        .unwrap();
                    (accs, report, net.oracle().cache_stats())
                };
                let (plain, plain_report, plain_stats) = run(None);
                assert!(plain_stats.evictions > 0, "horizon must overflow the config cache");
                let path = tmp_path(&format!("ckpt_counts_{threads}_{}.txt", profile.is_quiet()));
                let (accs, report, stats) = run(Some(&path));
                let _ = std::fs::remove_file(&path);
                let what = format!("{threads} thread(s), quiet={}", profile.is_quiet());
                assert_eq!(accs, plain, "{what}");
                assert_eq!(report, plain_report, "{what}");
                if threads == 1 {
                    assert_eq!(stats.misses, plain_stats.misses, "{what}: route computations");
                    lone_misses = stats.misses;
                } else {
                    // Two workers race on the shared LRU, so two identical
                    // in-memory runs already differ by a few percent.
                    assert!(stats.misses < 2 * lone_misses, "{what}: {stats:?}");
                }
            }
        }
    }

    // -- the builder front door --------------------------------------------

    fn timeline_bits(tls: &[PingTimeline]) -> Vec<Vec<u32>> {
        tls.iter().map(|tl| tl.rtts.iter().map(|r| r.to_bits()).collect()).collect()
    }

    /// Ping campaigns checkpoint through serialized sink state: a
    /// checkpointed run matches the in-memory one, and a run killed at any
    /// block boundary or inside any chunk resumes to a bit-identical file
    /// and bit-identical timelines.
    #[test]
    fn ping_checkpoint_resumes_bit_identically() {
        let net = network(42);
        let pairs = full_mesh_pairs(4); // 12 ordered pairs
        let cfg = small_cfg(2);
        let profile = lossy_profile();
        let retry = RetryPolicy::default();
        let sink = crate::stream::TimelineSink::for_config(&cfg);
        // Blocks of 5 pairs: 3 blocks, each split over both threads.
        let run = |path: &std::path::Path| {
            ping_sink_resumable_impl(&net, &pairs, &cfg, &profile, &retry, path, 5, &sink).unwrap()
        };

        let (memory, memory_report) =
            Campaign::new(cfg.clone()).faults(profile).run_ping(&net, &pairs).unwrap();

        // The builder's one-block file holds what the 5-pair blocks hold.
        let builder_path = tmp_path("ping_ckpt_builder.txt");
        let campaign = Campaign::new(cfg.clone()).faults(profile);
        let (full, full_report) =
            campaign.checkpoint(&builder_path).run_ping(&net, &pairs).unwrap();
        assert_eq!(timeline_bits(&full), timeline_bits(&memory));
        assert_eq!(full_report, memory_report);
        let full_path = tmp_path("ping_ckpt_full.txt");
        let (full, _) = run(&full_path);
        let full_bytes = std::fs::read(&full_path).unwrap();
        assert_eq!(timeline_bits(&full), timeline_bits(&memory));
        assert_eq!(chunk_spans(&full_bytes).len(), 3, "one chunk per block");
        assert_eq!(log_contents(&builder_path), log_contents(&full_path));
        let _ = std::fs::remove_file(&builder_path);

        for (cut, complete) in kill_points(&full_bytes) {
            let path = tmp_path(&format!("ping_ckpt_cut_{cut}.txt"));
            std::fs::write(&path, &full_bytes[..cut]).unwrap();
            let (resumed, report) = run(&path);
            assert!(
                std::fs::read(&path).unwrap() == full_bytes,
                "kill at byte {cut}: resumed checkpoint must be bit-identical"
            );
            assert_eq!(timeline_bits(&resumed), timeline_bits(&memory));
            assert_eq!(report.resumed_pairs, complete, "kill at byte {cut}");
            let _ = std::fs::remove_file(&path);
        }

        // Resuming a finished checkpoint re-measures nothing.
        let (replayed, report) = run(&full_path);
        assert_eq!(timeline_bits(&replayed), timeline_bits(&memory));
        assert_eq!(report.resumed_pairs, pairs.len());
        assert_eq!(report.offered, 0);
        let _ = std::fs::remove_file(&full_path);
    }

    /// The sink path folds exactly what the materializing path stores:
    /// a `PairProfileSink` run agrees with profiles rebuilt from the
    /// in-memory timelines, and its states are identical across thread
    /// counts.
    #[test]
    fn sink_campaign_matches_materialized_run() {
        let net = network(42);
        let pairs = full_mesh_pairs(4);
        let profile = lossy_profile();
        // A longer schedule so PSD ratios exist (≥ 2 days of slots).
        let cfg = CampaignConfig {
            start: SimTime::T0,
            end: SimTime::from_days(3),
            interval: SimDuration::from_hours(3),
            protocols: vec![Protocol::V4, Protocol::V6],
            threads: 2,
        };
        let sink = crate::stream::PairProfileSink::with_shape(&cfg, 64, 32);

        let (timelines, tl_report) =
            Campaign::new(cfg.clone()).faults(profile).run_ping(&net, &pairs).unwrap();
        let (profiles, pf_report) = Campaign::new(cfg.clone())
            .faults(profile)
            .sink(sink.clone())
            .run_ping(&net, &pairs)
            .unwrap();
        assert_eq!(tl_report, pf_report);
        assert_eq!(profiles.len(), timelines.len());

        for (tl, pf) in timelines.iter().zip(&profiles) {
            assert_eq!((pf.src, pf.dst, pf.proto), (tl.src, tl.dst, tl.proto));
            assert_eq!(pf.valid_samples(), tl.valid_samples());
            assert_eq!(pf.offered() as usize, tl.rtts.len());
            // Refold the materialized timeline through the sink: the state
            // must come out identical — the executor fed the same values.
            let mut refold = sink.init(tl.src, tl.dst, tl.proto);
            let times: Vec<SimTime> =
                sample_times(cfg.start, cfg.end, cfg.interval).collect();
            for (ti, (&r, &t)) in tl.rtts.iter().zip(&times).enumerate() {
                let rtt = (!r.is_nan()).then(|| f64::from(r));
                sink.fold(&mut refold, ti as u64, t, rtt);
            }
            assert_eq!(*pf, refold);
        }

        // Thread-count determinism of sink states.
        for threads in [1usize, 4] {
            let mut cfg_t = cfg.clone();
            cfg_t.threads = threads;
            let (p2, _) = Campaign::new(cfg_t)
                .faults(profile)
                .sink(sink.clone())
                .run_ping(&net, &pairs)
                .unwrap();
            assert_eq!(p2, profiles, "sink states must not depend on thread count");
        }
    }

    /// Re-running the builder with identical arguments must reproduce the
    /// dataset bit for bit — the determinism the checkpoint/resume and
    /// sink-state guarantees are built on.
    #[test]
    fn repeated_builder_runs_are_bit_identical() {
        let net = network(42);
        let pairs = full_mesh_pairs(4);
        let cfg = small_cfg(2);
        let profile = lossy_profile();
        let init = |_, _, _| Vec::new();
        let step = |acc: &mut Vec<String>, rec: TracerouteRecord| {
            acc.push(traceroute_to_line(&rec))
        };

        let collect = || {
            Campaign::new(cfg.clone())
                .faults(profile)
                .run_traceroute_with(&net, &pairs, |_, _| TraceOptions::default(), init, step)
                .unwrap()
        };
        let (a, report_a) = collect();
        let (b, report_b) = collect();
        assert_eq!(a, b);
        assert_eq!(report_a, report_b);

        let bits = |v: &[f32]| v.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
        let (p1, _) = Campaign::new(cfg.clone()).run_ping(&net, &pairs).unwrap();
        let (p2, _) = Campaign::new(cfg).run_ping(&net, &pairs).unwrap();
        for (x, y) in p1.iter().zip(&p2) {
            assert_eq!(bits(&x.rtts), bits(&y.rtts));
        }
    }

    /// A run publishes its report into an explicitly observed registry —
    /// and observation must not change the dataset.
    #[test]
    fn observed_run_publishes_report_and_changes_nothing() {
        let net = network(42);
        let pairs = full_mesh_pairs(4);
        let cfg = small_cfg(2);
        let collect = |c: Campaign| {
            c.run_traceroute(
                &net,
                &pairs,
                TraceOptions::default(),
                |_, _, _| Vec::new(),
                |acc: &mut Vec<String>, rec| acc.push(traceroute_to_line(&rec)),
            )
            .unwrap()
        };
        let (bare, bare_report) = collect(Campaign::new(cfg.clone()).faults(lossy_profile()));
        let reg = Arc::new(s2s_obs::Registry::new());
        let (observed, report) = collect(
            Campaign::new(cfg).faults(lossy_profile()).observe(Arc::clone(&reg)),
        );
        assert_eq!(bare, observed, "observing a campaign must not perturb its dataset");
        assert_eq!(bare_report, report);
        assert_eq!(reg.counter("campaign.offered").get(), report.offered as u64);
        assert_eq!(reg.counter("campaign.delivered").get(), report.delivered as u64);
        assert_eq!(reg.counter("campaign.runs").get(), 1);
        if report.gave_up > 0 {
            let labels: Vec<String> =
                reg.events().into_iter().map(|e| e.label).collect();
            assert!(labels.iter().any(|l| l == "campaign.retry_exhausted"), "{labels:?}");
        }
    }
}
