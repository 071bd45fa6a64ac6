//! The analysis pipeline of *"A Server-to-Server View of the Internet"*
//! (CoNEXT 2015).
//!
//! This crate is the paper's primary contribution, reimplemented as a
//! reusable library. It consumes plain measurement records
//! ([`s2s_probe::TracerouteRecord`] / ping timelines) plus BGP-derived data
//! ([`s2s_bgp::Ip2AsnMap`], [`s2s_bgp::AsRelStore`]) — never the simulator —
//! so it runs unchanged on real traceroute corpora.
//!
//! The crate's front door is [`Analysis`]: wrap a data source (a
//! [`s2s_probe::TraceStore`], a reopened or *streamed* snapshot
//! ([`s2s_probe::SnapshotReader`], a [`s2s_probe::ShardDir`] of per-shard
//! files), built timelines, or streamed
//! [`s2s_probe::PairProfile`]s), set policy (`.threads(n)`,
//! `.observe(reg)`, `.checked(floor)`), then call an analysis method —
//! mirroring how [`s2s_probe::Campaign`] fronts the measurement plane.
//!
//! Pipeline stages, in paper order:
//!
//! * [`mod@analysis`] — the [`Analysis`] builder front door,
//! * [`annotate`] — hop-IP → ASN mapping, missing-hop imputation, AS-loop
//!   filtering, Table-1 completeness classification (§2.1, §4.1),
//! * [`timeline`] — trace timelines: interned AS paths + RTTs per (pair,
//!   protocol) over time (§4.1),
//! * [`columnar`] — the columnar analysis plane: memoized annotation over
//!   an interned [`s2s_probe::TraceStore`], sharded across threads with a
//!   deterministic, byte-identical merge,
//! * [`changes`] — edit-distance routing-change detection, AS-path
//!   lifetimes and prevalence (§4.1–4.2, Figs. 2–3),
//! * [`incremental`] — the epoch-appendable analysis state behind the
//!   always-on service: [`IncrementalState`] folds epoch deltas through
//!   `Analysis::update`, keeping timelines and §4 verdicts byte-identical
//!   to a batch recompute at any delta split,
//! * [`bestpath`] — best-path baselines (10th/90th percentiles), the
//!   lifetime-vs-RTT-increase heat maps and sub-optimal path prevalence
//!   (§4.2, Figs. 4–6),
//! * [`shortterm`] — the 30-minute vs 3-hour cadence robustness check
//!   (§4.3, Fig. 7),
//! * [`congestion`] — FFT-based consistent-congestion detection, segment
//!   localization via Pearson correlation, and overhead estimation
//!   (§5, Fig. 9),
//! * [`ownership`] — the six router-ownership heuristics and owner
//!   election (§5.3, Fig. 8),
//! * [`dualstack`] — IPv4-vs-IPv6 RTT deltas and same-AS-path comparison
//!   (§6, Fig. 10a),
//! * [`inflation`] — RTT inflation over the speed-of-light cRTT
//!   (§6, Fig. 10b),
//! * [`lossrate`] — diurnal packet-loss analysis (the §8 future-work
//!   companion to the RTT-based congestion detector).

pub mod analysis;
pub mod annotate;
pub mod bestpath;
pub mod changes;
pub mod columnar;
pub mod congestion;
pub mod dualstack;
pub mod incremental;
pub mod inflation;
pub mod lossrate;
pub mod ownership;
pub mod shortterm;
pub mod timeline;

pub use analysis::{Analysis, AnalysisSource, DEFAULT_COVERAGE_FLOOR};
pub use annotate::{Annotated, Completeness};
pub use bestpath::{BestPathAnalysis, PathDelta};
pub use columnar::{AddrAsnTable, AnnotatedTrace, ColumnarAnnotator, StoreAnnotator};
pub use changes::{
    detect_changes_checked, path_stats_checked, ChangeStats, PathStats,
};
pub use incremental::IncrementalState;
pub use timeline::{TimelineBuilder, TraceTimeline};
