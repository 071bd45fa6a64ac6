//! The one front door for analyses: [`Analysis`].
//!
//! Mirrors the [`Campaign`](s2s_probe::Campaign) builder on the other side
//! of the measurement plane: wrap a data source, set policy
//! ([`threads`](Analysis::threads), [`observe`](Analysis::observe),
//! [`checked`](Analysis::checked)), then call an analysis method. Which
//! methods exist depends on the source:
//!
//! * `Analysis<&TraceStore>` — the columnar traceroute corpus:
//!   [`timelines`](Analysis::timelines) (the sharded §4 driver) and
//!   [`ownership`](Analysis::ownership) (§5.3),
//! * `Analysis<&Snapshot>` — a reopened binary snapshot
//!   ([`s2s_probe::snapshot`]): the same store methods, delegating to the
//!   embedded [`TraceStore`], so persisted campaign outputs open in
//!   O(distinct-data) and analyze without a line re-import,
//! * `Analysis<SnapshotReader>` — an *open* snapshot stream
//!   (`Snapshot::options().stream(true).open(path)`): the out-of-core §4
//!   driver folds bounded trace batches into timelines, resident bytes
//!   O(arena + one batch), byte-identical to the in-memory path,
//! * `Analysis<ShardDir>` — a directory of per-shard `.snap` files
//!   (`Snapshot::options().open_dir(dir)`): every shard streams through
//!   the same bounded-memory fold, in shard order,
//! * `Analysis<&[TraceTimeline]>` — built timelines:
//!   [`dualstack`](Analysis::dualstack) (§6, Fig. 10a),
//! * `Analysis<&[PingTimeline]>` — materialized ping series: §5.1
//!   [`congestion`](Analysis::congestion) /
//!   [`congestion_checked`](Analysis::congestion_checked),
//! * `Analysis<&[PairProfile]>` — streamed constant-memory profiles: the
//!   same §5.1 classification plus the Fig. 9
//!   [`overheads`](Analysis::overheads), without ever materializing a
//!   timeline,
//! * `Analysis<IncrementalState>` — the live-service state: feed epoch
//!   deltas through [`update`](Analysis::update), read folded
//!   [`timelines`](Analysis::timelines) /
//!   [`change_stats`](Analysis::change_stats) /
//!   [`path_stats`](Analysis::path_stats) in O(pair state), byte-identical
//!   to a batch recompute at any delta split.
//!
//! The admissible sources are exactly the implementors of the sealed
//! [`AnalysisSource`] trait — the named extension point this matrix hangs
//! off. This builder is the only entry point: the loose free functions
//! (`timelines_from_store*`, `infer_ownership_store`) that once shimmed
//! over it are gone.
//!
//! ```no_run
//! # use s2s_core::Analysis;
//! # fn demo(store: &s2s_probe::TraceStore, map: &s2s_bgp::Ip2AsnMap) {
//! let timelines = Analysis::new(store).threads(8).timelines(map);
//! # let _ = timelines;
//! # }
//! ```

use crate::changes::{ChangeStats, PathStats};
use crate::congestion::{
    detect, detect_checked, detect_profile, detect_profile_checked, overhead_profiles,
    DetectParams, PairCongestion,
};
use crate::columnar::{AnnotatedTrace, StoreAnnotator};
use crate::dualstack::{rtt_diffs, DualStackDiffs};
use crate::incremental::IncrementalState;
use crate::ownership::OwnershipInference;
use crate::timeline::TraceTimeline;
use s2s_bgp::{AsRelStore, Ip2AsnMap};
use s2s_probe::{PairProfile, PingTimeline, TraceStore};
use s2s_types::{AnalysisError, Coverage, Protocol, SimDuration};
use std::sync::Arc;

mod sealed {
    pub trait Sealed {}
}

/// The sealed set of data sources [`Analysis::new`] accepts.
///
/// One named extension point instead of an ad-hoc pile of inherent impls:
/// every admissible source is listed here, and which analysis methods a
/// wrapped source offers is documented on its `Analysis<S>` impl. Sealed
/// because the source matrix is part of this crate's semver surface — a
/// foreign source type could not uphold the byte-equivalence contracts
/// the matrix is pinned to.
///
/// Implementors:
///
/// * `&TraceStore` — the in-memory columnar corpus,
/// * `&Snapshot` — a reopened binary snapshot (delegates to its store),
/// * `SnapshotReader<R>` — an open out-of-core snapshot stream,
/// * `ShardDir` — a directory of per-shard snapshot files,
/// * `&[TraceTimeline]` — built timelines (§6 dual-stack),
/// * `&[PingTimeline]` — materialized ping series (§5.1),
/// * `&[PairProfile]` — streamed constant-memory profiles (§5.1, Fig. 9),
/// * [`IncrementalState`] — the live always-on-service state (epoch
///   [`update`](Analysis::update) + O(pair) folded verdicts).
pub trait AnalysisSource: sealed::Sealed {}

impl sealed::Sealed for &TraceStore {}
impl AnalysisSource for &TraceStore {}
impl sealed::Sealed for &s2s_probe::Snapshot {}
impl AnalysisSource for &s2s_probe::Snapshot {}
impl<R: std::io::Read> sealed::Sealed for s2s_probe::SnapshotReader<R> {}
impl<R: std::io::Read> AnalysisSource for s2s_probe::SnapshotReader<R> {}
impl sealed::Sealed for s2s_probe::ShardDir {}
impl AnalysisSource for s2s_probe::ShardDir {}
impl sealed::Sealed for &[TraceTimeline] {}
impl AnalysisSource for &[TraceTimeline] {}
impl sealed::Sealed for &[PingTimeline] {}
impl AnalysisSource for &[PingTimeline] {}
impl sealed::Sealed for &[PairProfile] {}
impl AnalysisSource for &[PairProfile] {}
impl sealed::Sealed for IncrementalState {}
impl AnalysisSource for IncrementalState {}

/// A configured-but-not-yet-run analysis over a data source.
///
/// Construction is pure; nothing happens until an analysis method fires.
/// The source is borrowed, so one builder can run several analyses.
#[derive(Clone, Debug)]
pub struct Analysis<S> {
    source: S,
    threads: usize,
    registry: Option<Arc<s2s_obs::Registry>>,
    floor: f64,
}

/// The default coverage floor of [`Analysis::checked`]-gated analyses:
/// the paper's ≥600-of-672 valid-sample requirement, as the fraction it is
/// (~89.3%), so campaigns of any length state the same standard.
pub const DEFAULT_COVERAGE_FLOOR: f64 = 600.0 / 672.0;

impl<S: AnalysisSource> Analysis<S> {
    /// Starts a builder over `source` — any implementor of the sealed
    /// [`AnalysisSource`] matrix. Threads default to the `S2S_THREADS`
    /// knob (the same knob that sizes campaign workers), the coverage
    /// floor to [`DEFAULT_COVERAGE_FLOOR`].
    pub fn new(source: S) -> Self {
        Analysis {
            source,
            threads: s2s_probe::env::threads(),
            registry: None,
            floor: DEFAULT_COVERAGE_FLOOR,
        }
    }
}

impl<S> Analysis<S> {
    /// Borrows the wrapped source.
    pub fn source(&self) -> &S {
        &self.source
    }

    /// Overrides the analysis shard-thread count (results are
    /// byte-identical across thread counts; this only sets the speed).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Folds the run's `analysis.*` counters into `registry` when an
    /// analysis method finishes. Without this call they go to the globally
    /// [installed](s2s_obs::install) registry, if any.
    pub fn observe(mut self, registry: Arc<s2s_obs::Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Sets the delivered-over-offered coverage floor the `*_checked`
    /// analysis methods enforce (default [`DEFAULT_COVERAGE_FLOOR`]).
    pub fn checked(mut self, floor: f64) -> Self {
        self.floor = floor;
        self
    }

    /// The coverage floor `*_checked` methods will enforce.
    pub fn coverage_floor(&self) -> f64 {
        self.floor
    }

    fn effective_registry(&self) -> Option<Arc<s2s_obs::Registry>> {
        self.registry.clone().or_else(s2s_obs::installed)
    }

    /// Bumps one `analysis.*` counter on the effective registry.
    fn count(&self, name: &'static str, n: u64) {
        if n > 0 {
            if let Some(reg) = self.effective_registry() {
                reg.counter(name).add(n);
            }
        }
    }
}

impl Analysis<&TraceStore> {
    /// The §4 columnar analysis: one [`TraceTimeline`] per
    /// (src, dst, protocol) group, in first-seen order, sharded across the
    /// builder's thread count with a byte-identical merge.
    pub fn timelines(&self, map: &Ip2AsnMap) -> Vec<TraceTimeline> {
        let out = crate::columnar::timelines_from_store_impl(self.source, map, self.threads);
        self.count("analysis.timelines_built", out.len() as u64);
        out
    }

    /// §5.3 router-ownership inference over the store: one pass per
    /// distinct reached hop sequence (exactly equal to feeding every
    /// trace's path — the heuristics consume sets).
    pub fn ownership(&self, map: &Ip2AsnMap, rels: &AsRelStore) -> OwnershipInference {
        crate::columnar::infer_ownership_store_impl(self.source, map, rels)
    }
}

impl Analysis<&s2s_probe::Snapshot> {
    /// The §4 columnar analysis over a reopened snapshot — identical to
    /// `Analysis::new(&snapshot.store)`, so a persisted campaign output is
    /// an analysis input without any line re-import. Byte-identical to the
    /// legacy import path (pinned in `tests/tests/snapshot_equivalence.rs`).
    pub fn timelines(&self, map: &Ip2AsnMap) -> Vec<TraceTimeline> {
        Analysis {
            source: &self.source.store,
            threads: self.threads,
            registry: self.registry.clone(),
            floor: self.floor,
        }
        .timelines(map)
    }

    /// §5.3 ownership inference over the reopened store.
    pub fn ownership(&self, map: &Ip2AsnMap, rels: &AsRelStore) -> OwnershipInference {
        Analysis {
            source: &self.source.store,
            threads: self.threads,
            registry: self.registry.clone(),
            floor: self.floor,
        }
        .ownership(map, rels)
    }
}

impl<R: std::io::Read> Analysis<s2s_probe::SnapshotReader<R>> {
    /// The out-of-core §4 analysis: drains the open snapshot stream batch
    /// by batch, folding traces into per-group timelines as they decode —
    /// resident bytes stay O(arena + one batch) no matter the trace count.
    /// Byte-identical to materializing the snapshot and running the
    /// in-memory driver (pinned in `tests/tests/snapshot_equivalence.rs`);
    /// the builder's thread count is ignored (the fold is sequential, and
    /// the in-memory results are thread-count-independent anyway).
    ///
    /// Consumes the builder: a snapshot stream yields its batches once.
    pub fn timelines(self, map: &Ip2AsnMap) -> std::io::Result<Vec<TraceTimeline>> {
        let Analysis { source: mut reader, registry, .. } = self;
        let out = s2s_obs::timed("analysis.columnar_streamed", || {
            let mut stream = crate::columnar::StreamingTimelines::new();
            stream.absorb_reader(&mut reader, map)?;
            Ok::<_, std::io::Error>(stream.finish())
        })?;
        if !out.is_empty() {
            if let Some(reg) = registry.or_else(s2s_obs::installed) {
                reg.counter("analysis.timelines_built").add(out.len() as u64);
            }
        }
        Ok(out)
    }
}

impl Analysis<s2s_probe::ShardDir> {
    /// The out-of-core §4 analysis over a directory of per-shard `.snap`
    /// files: each shard streams through the bounded-memory fold in shard
    /// order, with a fresh per-shard annotator (interned ids are
    /// shard-local; annotations are not). Byte-identical to absorbing
    /// every shard into one store and running the in-memory driver.
    pub fn timelines(&self, map: &Ip2AsnMap) -> std::io::Result<Vec<TraceTimeline>> {
        let out = s2s_obs::timed("analysis.columnar_streamed", || {
            let mut stream = crate::columnar::StreamingTimelines::new();
            for path in self.source.paths() {
                let mut reader = self.source.options().open(path)?;
                stream.absorb_reader(&mut reader, map)?;
            }
            Ok::<_, std::io::Error>(stream.finish())
        })?;
        self.count("analysis.timelines_built", out.len() as u64);
        Ok(out)
    }
}

impl Analysis<&[TraceTimeline]> {
    /// §6 dual-stack RTT deltas (Fig. 10a): pairs each v4 timeline with
    /// the v6 timeline of the same (src, dst) pair — the adjacent-protocol
    /// layout every campaign produces (pair-major, protocol-minor) — and
    /// computes best-path RTT differences per sample instant.
    pub fn dualstack(&self) -> Vec<DualStackDiffs> {
        let out: Vec<DualStackDiffs> = self
            .source
            .chunks(2)
            .filter(|c| {
                c.len() == 2
                    && c[0].proto == Protocol::V4
                    && c[1].proto == Protocol::V6
                    && (c[0].src, c[0].dst) == (c[1].src, c[1].dst)
            })
            .map(|c| rtt_diffs(&c[0], &c[1]))
            .collect();
        self.count("analysis.dualstack_pairs", out.len() as u64);
        out
    }
}

impl Analysis<&[PingTimeline]> {
    /// §5.1 consistent-congestion detection over every timeline. `None`
    /// entries are timelines below the absolute
    /// [`DetectParams::min_valid_samples`] gate.
    pub fn congestion(&self, params: &DetectParams) -> Vec<Option<PairCongestion>> {
        let out: Vec<_> = self.source.iter().map(|tl| detect(tl, params)).collect();
        self.count("analysis.congestion_pairs", out.len() as u64);
        out
    }

    /// Coverage-checked §5.1 detection: every verdict annotated with its
    /// coverage, timelines below the builder's
    /// [`checked`](Analysis::checked) floor refused with a typed error.
    pub fn congestion_checked(
        &self,
        params: &DetectParams,
    ) -> Vec<Result<(PairCongestion, Coverage), AnalysisError>> {
        let out: Vec<_> = self
            .source
            .iter()
            .map(|tl| detect_checked(tl, params, self.floor))
            .collect();
        self.count("analysis.congestion_pairs", out.len() as u64);
        out
    }
}

impl Analysis<&[PairProfile]> {
    /// §5.1 consistent-congestion detection straight from streamed
    /// profiles — same verdict shape as the materialized path, no
    /// timelines needed.
    pub fn congestion(&self, params: &DetectParams) -> Vec<Option<PairCongestion>> {
        let out: Vec<_> =
            self.source.iter().map(|p| detect_profile(p, params)).collect();
        self.count("analysis.congestion_pairs", out.len() as u64);
        out
    }

    /// Coverage-checked streamed detection, gated by the builder's
    /// [`checked`](Analysis::checked) floor.
    pub fn congestion_checked(
        &self,
        params: &DetectParams,
    ) -> Vec<Result<(PairCongestion, Coverage), AnalysisError>> {
        let out: Vec<_> = self
            .source
            .iter()
            .map(|p| detect_profile_checked(p, params, self.floor))
            .collect();
        self.count("analysis.congestion_pairs", out.len() as u64);
        out
    }

    /// The Fig. 9 overhead sample set: one 95th−5th spread per
    /// consistently congested profile.
    pub fn overheads(&self, params: &DetectParams) -> Vec<f64> {
        overhead_profiles(self.source, params)
    }
}

impl Analysis<IncrementalState> {
    /// Folds one epoch delta into the live state: the incremental path
    /// next to the batch one. After any sequence of updates the folded
    /// timelines and verdicts are byte-identical to a single batch
    /// `Analysis` over the concatenated trace stream — regardless of how
    /// the stream was split into deltas (pinned in
    /// `tests/tests/incremental_equivalence.rs`).
    ///
    /// An update is the annotate phase (the delta's addresses resolved
    /// once, each distinct trace identity annotated once) followed by
    /// [`fold`](Analysis::fold), the only code that changes the live
    /// state.
    pub fn update(&mut self, delta: &TraceStore, map: &Ip2AsnMap) {
        let mut ann = StoreAnnotator::new();
        let ids: Vec<u32> = (0..delta.len()).map(|row| ann.annotate(delta, row, map)).collect();
        self.fold(delta.iter().zip(ids).map(|(v, id)| AnnotatedTrace::new(v, ann.get(id))));
    }

    /// The fold phase of [`update`](Analysis::update): folds traces that
    /// are already annotated, in order, into the live state (span
    /// `analysis.update`). A trace's annotation may come from any
    /// annotator, since it depends only on the trace's content, so a
    /// caller can annotate — and build the [`AnnotatedTrace`]s — without
    /// holding whatever guards the state, and hold it only for this fold.
    pub fn fold<'a>(&mut self, traces: impl IntoIterator<Item = AnnotatedTrace<'a>>) {
        let n = s2s_obs::timed("analysis.update", || self.source.fold(traces));
        self.count("analysis.updates", 1);
        self.count("analysis.update_traces", n);
    }

    /// The timelines folded so far, one per (src, dst, protocol) group in
    /// first-seen order.
    pub fn timelines(&self) -> &[TraceTimeline] {
        self.source.timelines()
    }

    /// The folded §4.1 change verdicts, one per group — equal to running
    /// [`detect_changes`](crate::changes::detect_changes) on each timeline, but
    /// read straight from the per-pair fold state.
    pub fn change_stats(&self) -> Vec<ChangeStats> {
        (0..self.source.len()).map(|gi| self.source.change_stats_of(gi)).collect()
    }

    /// Coverage-checked [`change_stats`](Analysis::change_stats): each
    /// verdict annotated with its timeline's coverage, groups below the
    /// builder's [`checked`](Analysis::checked) floor refused with a typed
    /// error — the incremental mirror of
    /// [`detect_changes_checked`](crate::detect_changes_checked).
    pub fn change_stats_checked(
        &self,
    ) -> Vec<Result<(ChangeStats, Coverage), AnalysisError>> {
        self.source
            .timelines()
            .iter()
            .enumerate()
            .map(|(gi, tl)| {
                let coverage = tl.coverage();
                coverage.require(self.floor)?;
                Ok((self.source.change_stats_of(gi), coverage))
            })
            .collect()
    }

    /// The folded §4.2 lifetime/prevalence verdicts, one per group —
    /// equal to running [`path_stats`](crate::changes::path_stats) on each
    /// timeline with `interval`.
    pub fn path_stats(&self, interval: SimDuration) -> Vec<PathStats> {
        (0..self.source.len()).map(|gi| self.source.path_stats_of(gi, interval)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2s_probe::{CampaignConfig, PairProfileSink, StreamSink};
    use s2s_types::{ClusterId, SimDuration, SimTime};
    use std::f64::consts::PI;

    fn diurnal_series(amp: f64, noise: f64) -> Vec<f32> {
        (0..672)
            .map(|i| {
                let phase = 2.0 * PI * i as f64 / 96.0;
                let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
                let u = (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                (60.0 + amp * phase.sin().max(0.0) + noise * u) as f32
            })
            .collect()
    }

    fn timeline(rtts: Vec<f32>) -> PingTimeline {
        PingTimeline {
            src: ClusterId::new(0),
            dst: ClusterId::new(1),
            proto: Protocol::V4,
            start: SimTime::T0,
            interval: SimDuration::from_minutes(15),
            rtts,
        }
    }

    fn profile_of(rtts: &[f32]) -> PairProfile {
        let cfg = CampaignConfig::ping_week(SimTime::T0);
        let sink = PairProfileSink::with_shape(&cfg, 256, 128);
        let mut st = sink.init(ClusterId::new(0), ClusterId::new(1), Protocol::V4);
        for (ti, &r) in rtts.iter().enumerate() {
            let t = cfg.start + SimDuration::from_minutes(ti as u32 * 15);
            sink.fold(&mut st, ti as u64, t, (!r.is_nan()).then(|| f64::from(r)));
        }
        sink.finish(&mut st);
        st
    }

    #[test]
    fn builder_defaults_and_policy_setters() {
        let tls: Vec<PingTimeline> = Vec::new();
        let a = Analysis::new(tls.as_slice());
        assert!((a.coverage_floor() - DEFAULT_COVERAGE_FLOOR).abs() < 1e-12);
        let a = a.threads(0).checked(0.5);
        assert_eq!(a.threads, 1);
        assert!((a.coverage_floor() - 0.5).abs() < 1e-12);
        assert!(a.congestion(&DetectParams::default()).is_empty());
    }

    #[test]
    fn ping_congestion_matches_the_free_functions() {
        let tls =
            vec![timeline(diurnal_series(30.0, 2.0)), timeline(diurnal_series(0.0, 3.0))];
        let params = DetectParams::default();
        let verdicts = Analysis::new(tls.as_slice()).congestion(&params);
        assert_eq!(verdicts.len(), 2);
        assert_eq!(verdicts[0], detect(&tls[0], &params));
        assert!(verdicts[0].unwrap().consistent);
        assert!(!verdicts[1].unwrap().consistent);

        let checked = Analysis::new(tls.as_slice()).checked(0.89).congestion_checked(&params);
        let (v, cov) = checked[0].as_ref().unwrap();
        assert!(v.consistent);
        assert_eq!(cov.offered, 672);
    }

    #[test]
    fn profile_congestion_and_overheads_mirror_streamed_module() {
        let profiles =
            vec![profile_of(&diurnal_series(30.0, 2.0)), profile_of(&diurnal_series(0.0, 3.0))];
        let params = DetectParams::default();
        let a = Analysis::new(profiles.as_slice());
        let verdicts = a.congestion(&params);
        assert!(verdicts[0].unwrap().consistent);
        assert!(!verdicts[1].unwrap().consistent);
        let overheads = a.overheads(&params);
        assert_eq!(overheads, overhead_profiles(&profiles, &params));
        assert_eq!(overheads.len(), 1);
        let checked = a.congestion_checked(&params);
        assert!(checked.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn dualstack_pairs_adjacent_protocol_timelines() {
        use crate::timeline::TraceTimeline;
        let mk = |proto, src: u32| TraceTimeline {
            src: ClusterId::new(src),
            dst: ClusterId::new(9),
            proto,
            paths: Vec::new(),
            samples: Vec::new(),
            counts: Default::default(),
        };
        let tls = vec![
            mk(Protocol::V4, 1),
            mk(Protocol::V6, 1),
            mk(Protocol::V4, 2),
            mk(Protocol::V6, 2),
        ];
        let diffs = Analysis::new(tls.as_slice()).dualstack();
        assert_eq!(diffs.len(), 2);
        // A mispaired layout (two V4s adjacent) contributes nothing.
        let bad = vec![mk(Protocol::V4, 1), mk(Protocol::V4, 1)];
        assert!(Analysis::new(bad.as_slice()).dualstack().is_empty());
    }

    #[test]
    fn observe_folds_counters_into_the_registry() {
        let reg = Arc::new(s2s_obs::Registry::new());
        let tls = vec![timeline(diurnal_series(30.0, 2.0))];
        let _ = Analysis::new(tls.as_slice())
            .observe(reg.clone())
            .congestion(&DetectParams::default());
        assert_eq!(reg.counter("analysis.congestion_pairs").get(), 1);
    }
}
