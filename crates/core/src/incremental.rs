//! Epoch-incremental analysis state: the live-service counterpart of the
//! batch §4 analyses.
//!
//! A batch [`Analysis`](crate::Analysis) answers questions by recomputing
//! over the whole corpus. [`IncrementalState`] instead *folds*. An update
//! runs in two phases:
//!
//! * *annotate* — address→ASN resolution and one
//!   [`Annotated`](crate::Annotated) value per trace, through a
//!   [`StoreAnnotator`](crate::StoreAnnotator): one over the delta
//!   [`TraceStore`](s2s_probe::TraceStore), or one per growing store kept
//!   across updates; each trace then becomes an [`AnnotatedTrace`]. It
//!   reads no live state, so a service runs it without its query lock;
//! * *fold* — each annotated trace appends into the streaming timelines
//!   fold (`columnar::StreamingTimelines`: the same
//!   group-in-first-seen-order, paths-interned-per-group structure the
//!   materialized driver builds) and into per-group appendable state
//!   ([`ChangeLog`], [`PrevalenceTally`] from `s2s-stats`) kept exactly in
//!   step with it — so edit-distance change detection and route
//!   prevalence are already folded when a query arrives, in O(pair state)
//!   instead of O(corpus).
//!
//! [`Analysis::update`](crate::Analysis::update) is the two phases over
//! one delta store; [`Analysis::fold`](crate::Analysis::fold) is the fold
//! alone, for callers that annotate on their own.
//!
//! The contract, pinned by `tests/tests/incremental_equivalence.rs` across
//! seeds × fault profiles × thread counts: for **any** split of a corpus
//! into deltas, the incremental timelines are byte-identical to one batch
//! [`Analysis::timelines`](crate::Analysis::timelines) over the
//! concatenation, and the folded change/prevalence verdicts are
//! byte-identical to the batch recompute
//! ([`detect_changes`](crate::changes::detect_changes) /
//! [`path_stats`](crate::changes::path_stats)) over those timelines.

use crate::changes::{ChangeStats, PathStats};
use crate::columnar::{AnnotatedTrace, StreamingTimelines};
use crate::timeline::TraceTimeline;
use s2s_stats::{ChangeLog, PrevalenceTally};
use s2s_types::SimDuration;

/// Per-group appendable verdict state, kept parallel to the timelines.
#[derive(Clone, Debug, Default)]
struct PairFold {
    changes: ChangeLog<u64>,
    tally: PrevalenceTally,
    /// The path id `changes` last observed. Interned ids are distinct
    /// exactly when paths are, so a repeat of it is no change and skips
    /// building the path's symbols.
    last: Option<u16>,
}

/// The live analysis state an always-on service carries between epochs.
///
/// Wrap it in the builder — `Analysis::new(IncrementalState::new())` —
/// and feed deltas through [`Analysis::update`](crate::Analysis::update);
/// query through the `Analysis` accessors. The state is also an
/// [`AnalysisSource`](crate::AnalysisSource): the "live service state"
/// row of the source matrix.
#[derive(Clone, Debug, Default)]
pub struct IncrementalState {
    stream: StreamingTimelines,
    folds: Vec<PairFold>,
    samples: u64,
}

impl IncrementalState {
    /// Empty state: no epochs folded yet.
    pub fn new() -> IncrementalState {
        IncrementalState { stream: StreamingTimelines::new(), folds: Vec::new(), samples: 0 }
    }

    /// The fold phase of an update: folds annotated traces in, in order
    /// — group lookup, completeness counts, path intern, sample push, then
    /// the group's change and prevalence folds. Annotation is
    /// content-based (any annotator resolves a trace to the same
    /// [`Annotated`](crate::Annotated) value), so the folded state after any number of folds
    /// depends only on the concatenated trace stream, never on where the
    /// batch boundaries fell or which annotator annotated a batch. Returns
    /// the traces folded.
    pub(crate) fn fold<'a>(&mut self, traces: impl IntoIterator<Item = AnnotatedTrace<'a>>) -> u64 {
        let mut n = 0u64;
        for tr in traces {
            let gi = self.stream.fold_trace(&tr);
            if self.folds.len() <= gi {
                self.folds.resize_with(gi + 1, PairFold::default);
            }
            let tl = &self.stream.timelines()[gi];
            let s = tl.samples.last().expect("a fold pushes a sample");
            if let Some(p) = s.path {
                let fold = &mut self.folds[gi];
                if fold.last != Some(p) {
                    fold.changes.observe(&tl.paths[p as usize].symbols());
                    fold.last = Some(p);
                }
                fold.tally.observe(p as usize);
            }
            n += 1;
        }
        self.samples += n;
        n
    }

    /// The timelines folded so far — one per (src, dst, protocol) group in
    /// first-seen order, byte-identical to the batch driver over the same
    /// trace stream.
    pub fn timelines(&self) -> &[TraceTimeline] {
        self.stream.timelines()
    }

    /// Number of (src, dst, protocol) groups seen.
    pub fn len(&self) -> usize {
        self.stream.timelines().len()
    }

    /// Whether any trace has been folded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total samples folded across all updates.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The group index of a (src, dst, protocol) triple, scanning the
    /// first-seen group list — O(groups), never O(samples). `None` if no
    /// trace for the triple has been folded yet.
    pub fn group_index(
        &self,
        src: s2s_types::ClusterId,
        dst: s2s_types::ClusterId,
        proto: s2s_types::Protocol,
    ) -> Option<usize> {
        self.timelines()
            .iter()
            .position(|tl| tl.src == src && tl.dst == dst && tl.proto == proto)
    }

    /// The folded change verdict of group `gi` — O(pair state), equal to
    /// `detect_changes(&self.timelines()[gi])`.
    pub fn change_stats_of(&self, gi: usize) -> ChangeStats {
        let f = &self.folds[gi];
        ChangeStats { changes: f.changes.changes(), magnitudes: f.changes.magnitudes().to_vec() }
    }

    /// The folded lifetime/prevalence verdict of group `gi` — O(paths),
    /// equal to `path_stats(&self.timelines()[gi], interval)`.
    pub fn path_stats_of(&self, gi: usize, interval: SimDuration) -> PathStats {
        let f = &self.folds[gi];
        let lifetimes = f
            .tally
            .counts()
            .iter()
            .map(|&c| SimDuration::from_minutes(c as u32 * interval.minutes()))
            .collect();
        PathStats { lifetimes, prevalence: f.tally.prevalence(), popular: f.tally.popular() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::changes::{detect_changes, path_stats};
    use crate::Analysis;
    use s2s_bgp::Ip2AsnMap;
    use s2s_probe::{HopObs, TraceStore, TracerouteRecord};
    use s2s_types::{Asn, ClusterId, IpNet, Ipv4Net, Protocol, SimTime};
    use std::net::Ipv4Addr;

    fn map() -> Ip2AsnMap {
        let anns = vec![
            (IpNet::V4(Ipv4Net::new(Ipv4Addr::new(10, 1, 0, 0), 16)), Asn::new(100)),
            (IpNet::V4(Ipv4Net::new(Ipv4Addr::new(10, 2, 0, 0), 16)), Asn::new(200)),
            (IpNet::V4(Ipv4Net::new(Ipv4Addr::new(10, 3, 0, 0), 16)), Asn::new(300)),
            (IpNet::V4(Ipv4Net::new(Ipv4Addr::new(10, 4, 0, 0), 16)), Asn::new(400)),
        ];
        Ip2AsnMap::from_announcements(&anns)
    }

    fn rec(src: u32, dst: u32, t: u32, addrs: &[Option<&str>], reached: bool) -> TracerouteRecord {
        TracerouteRecord {
            src: ClusterId::new(src),
            dst: ClusterId::new(dst),
            proto: Protocol::V4,
            t: SimTime::from_minutes(t),
            hops: addrs
                .iter()
                .map(|a| HopObs { addr: a.map(|s| s.parse().unwrap()), rtt_ms: a.map(|_| 1.0) })
                .collect(),
            reached,
            e2e_rtt_ms: reached.then_some(50.0),
            src_addr: Some("10.1.0.200".parse().unwrap()),
            dst_addr: reached.then(|| "10.3.0.9".parse().unwrap()),
        }
    }

    /// Two interleaved pairs with path changes, gaps, and an unreached
    /// trace — enough to exercise every fold branch.
    fn corpus() -> Vec<TracerouteRecord> {
        vec![
            rec(0, 1, 0, &[Some("10.1.0.1"), Some("10.2.0.1")], true),
            rec(2, 3, 0, &[Some("10.2.0.7"), Some("10.3.0.1")], true),
            // The dst AS (300, from dst_addr) is appended to every path, so
            // the detour must avoid 300 or the path would loop and be
            // excluded: flip through ASN 400 instead.
            rec(0, 1, 180, &[Some("10.1.0.1"), Some("10.4.0.2"), Some("10.2.0.1")], true),
            rec(2, 3, 180, &[Some("10.2.0.7")], false),
            rec(0, 1, 360, &[Some("10.1.0.1"), Some("10.2.0.1")], true),
            rec(2, 3, 360, &[Some("10.2.0.7"), Some("10.3.0.1")], true),
            rec(0, 1, 540, &[Some("10.1.0.1"), Some("10.2.0.1")], true),
        ]
    }

    #[test]
    fn any_split_matches_the_batch_analysis() {
        let m = map();
        let recs = corpus();
        let store = TraceStore::from_records(&recs);
        let batch = Analysis::new(&store).threads(2).timelines(&m);
        for split in 1..=recs.len() {
            let mut a = Analysis::new(IncrementalState::new());
            for chunk in recs.chunks(split) {
                a.update(&TraceStore::from_records(chunk), &m);
            }
            assert_eq!(a.timelines(), &batch[..], "split={split} diverged");
            assert_eq!(
                format!("{:?}", a.timelines()),
                format!("{batch:?}"),
                "split={split} byte divergence"
            );
        }
    }

    #[test]
    fn folded_verdicts_equal_batch_recompute() {
        let m = map();
        let recs = corpus();
        let interval = SimDuration::from_hours(3);
        let mut a = Analysis::new(IncrementalState::new());
        for chunk in recs.chunks(2) {
            a.update(&TraceStore::from_records(chunk), &m);
        }
        let tls = a.timelines().to_vec();
        assert_eq!(a.change_stats(), tls.iter().map(detect_changes).collect::<Vec<_>>());
        assert_eq!(
            a.path_stats(interval),
            tls.iter().map(|tl| path_stats(tl, interval)).collect::<Vec<_>>()
        );
        // The 0→1 timeline saw 2 changes (path flip out and back).
        let c = &a.change_stats()[0];
        assert_eq!((c.changes, c.magnitudes.as_slice()), (2, &[1, 1][..]));
    }

    #[test]
    fn empty_state_is_well_defined() {
        let a = Analysis::new(IncrementalState::new());
        assert!(a.timelines().is_empty());
        assert!(a.change_stats().is_empty());
        assert!(a.path_stats(SimDuration::from_hours(3)).is_empty());
        assert!(a.source().is_empty());
        assert_eq!(a.source().samples(), 0);
    }
}
