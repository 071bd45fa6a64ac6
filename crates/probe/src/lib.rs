//! Measurement tooling over the simulated network.
//!
//! The paper's platform runs two tools from every measurement server —
//! ping and traceroute (classic until November 2014, then Paris traceroute
//! for IPv4) — on fixed schedules: full-mesh traceroutes every 3 hours for
//! 16 months, pings every 15 minutes, and focused 30-minute traceroute
//! campaigns toward congested pairs. This crate reproduces the tools and
//! the campaign scheduler:
//!
//! * [`builder`] — **the front door**: [`Campaign`] configures any run
//!   (faults, retry, checkpoint, threads, observability) and launches it
//!   via [`Campaign::run_traceroute`] / [`Campaign::run_ping`],
//! * [`tracer`] — TTL-walking traceroute with classic (per-probe flow) and
//!   Paris (fixed flow) modes, retries, and unresponsive-hop handling,
//! * [`records`] — the measurement record types the analysis pipeline in
//!   `s2s-core` consumes (serde-serializable, data-source agnostic),
//! * [`campaign`] — the execution cores behind the builder: full-mesh or
//!   pair-list sweeps at a fixed cadence, parallelized with scoped threads
//!   (panic-isolated per worker), aggregating per-pair results via a
//!   caller-supplied fold so multi-month campaigns stream instead of
//!   materializing billions of records, plus per-probe timeouts, bounded
//!   retry, failure accounting ([`CampaignReport`]), and checkpoint/resume
//!   — every campaign enters through [`Campaign`]; the old free
//!   `run_*_campaign*` shims are gone,
//! * [`mod@env`] — the consolidated `S2S_*` knob table (threads, epoch
//!   batching, fault profile) with warn-and-default parsing,
//! * [`faults`] — seeded, content-keyed fault injection (agent crashes,
//!   dropped/stuck/truncated probes, archive corruption) with an all-zero
//!   default profile,
//! * [`dataset`] — line-oriented export/import of records for archiving and
//!   external plotting, with strict and lossy (skip-counting) import paths,
//! * [`store`] — the columnar trace arena ([`TraceStore`]): interned
//!   addresses, hash-consed hop sequences, flat RTT columns, and zero-copy
//!   [`TraceView`] accessors — what the `s2s-core` columnar analysis driver
//!   consumes,
//! * [`stream`] — streaming campaign sinks ([`StreamSink`],
//!   [`PairProfileSink`]): fold samples into constant-size per-pair state
//!   as they are measured, attached via [`Campaign::sink`] — the §5
//!   short-term mesh as a bounded-memory workload,
//! * [`snapshot`] — binary columnar snapshots: a versioned, checksummed
//!   on-disk twin of [`TraceStore`] (interned address table, hash-consed
//!   sequence arena, raw column blocks, sink states) that reopens in
//!   O(distinct-data) instead of re-parsing O(lines); the
//!   [`Snapshot::options`] builder unifies strict/lossy/streamed opens —
//!   [`SnapshotReader`] walks `BLOCK` segments through a bounded reuse
//!   buffer (resident bytes O(arena + one batch), never O(traces)) and
//!   [`snapshot::absorb_files`] merges per-shard files the same way,
//! * [`fabric`] — the crash-tolerant scale-out layer: a coordinator
//!   shards the pair space across worker subprocesses speaking a framed
//!   stdout protocol, reaps hung or crashed workers by heartbeat timeout,
//!   retries with seeded backoff and worker-local checkpoint resume, and
//!   merges shards deterministically — byte-identical to one process
//!   under any seeded crash schedule (`S2S_FABRIC_FAULT_*`).

pub mod builder;
pub mod campaign;
pub mod dataset;
pub mod env;
pub mod fabric;
pub mod faults;
pub mod records;
pub mod snapshot;
pub mod store;
pub mod stream;
pub mod tracer;

pub use builder::{Campaign, SinkCampaign};
pub use campaign::{
    colocated_pairs, full_mesh_pairs, ping_once, CampaignConfig, CampaignReport,
    PingTimeline, RetryPolicy,
};
pub use fabric::{
    Coordinator, FabricConfig, FabricFaultProfile, FabricOutcome, FabricStats,
    ProcessLauncher, ShardPayload, ShardResult, WorkerAssignment, WorkerFault,
    WorkerLauncher,
};
pub use faults::{FaultInjector, FaultProfile, ProbeFault};
pub use records::{HopObs, PingRecord, TracerouteRecord};
pub use snapshot::{
    LogReader, ShardDir, Snapshot, SnapshotOptions, SnapshotReader, SnapshotReport,
};
pub use store::{StoreStats, TraceStore, TraceView};
pub use stream::{PairProfile, PairProfileSink, StreamSink, TimelineSink};
pub use tracer::{trace, TraceOptions, TracerouteMode};
