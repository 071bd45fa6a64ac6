//! Trace timelines.
//!
//! "We refer to the set of all traceroutes from one server to another
//! (representing a time series) as a *trace timeline*" (§4.1). A timeline
//! interns the distinct AS paths it observes and stores, per sample
//! instant, which path was seen and the end-to-end RTT. This compact form
//! (a couple of bytes per sample) is what lets a 16-month full-mesh
//! campaign fit in memory.
//!
//! Timelines are built from a [`s2s_probe::TraceStore`] by
//! [`crate::Analysis::timelines`]; [`TimelineBuilder`] is its
//! record-at-a-time reference.
//!
//! Per the paper, only *completed* traceroutes enter a timeline, and
//! traceroutes whose AS path loops are excluded from path analyses (their
//! RTTs are still dropped — the paper removes the whole traceroute).

use crate::annotate::{annotate, Annotated, CompletenessCounts};
use s2s_bgp::Ip2AsnMap;
use s2s_probe::TracerouteRecord;
use s2s_types::{AsPath, ClusterId, Coverage, Protocol, SimTime};

/// One sample of a timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// When the traceroute ran.
    pub t: SimTime,
    /// Index into [`TraceTimeline::paths`]; `None` when the traceroute was
    /// incomplete or loop-filtered.
    pub path: Option<u16>,
    /// End-to-end RTT, ms.
    pub rtt_ms: Option<f32>,
}

/// The AS-path/RTT time series of one (source, destination, protocol).
///
/// `PartialEq` compares every field — it is what the columnar-vs-legacy
/// equivalence tests assert on.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceTimeline {
    /// Source vantage point.
    pub src: ClusterId,
    /// Destination vantage point.
    pub dst: ClusterId,
    /// Protocol.
    pub proto: Protocol,
    /// Distinct AS paths observed, in first-seen order.
    pub paths: Vec<AsPath>,
    /// Samples in time order.
    pub samples: Vec<Sample>,
    /// Table-1 tallies over everything that was offered to this timeline.
    pub counts: CompletenessCounts,
}

impl TraceTimeline {
    /// Number of usable samples (with a path).
    pub fn usable_samples(&self) -> usize {
        self.samples.iter().filter(|s| s.path.is_some()).count()
    }

    /// The distinct AS paths count — Fig. 2a's X value.
    pub fn unique_paths(&self) -> usize {
        self.paths.len()
    }

    /// How much of the offered schedule produced a usable sample. A
    /// degraded measurement plane (crashed agents, lost probes) still folds
    /// one sample per scheduled instant — it's just pathless — so the
    /// sample count is the offered schedule and the usable count is what
    /// survived.
    pub fn coverage(&self) -> Coverage {
        Coverage::new(self.usable_samples(), self.samples.len())
    }

    /// Per-path sample counts (lifetime in samples).
    pub fn path_sample_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.paths.len()];
        for s in &self.samples {
            if let Some(p) = s.path {
                counts[p as usize] += 1;
            }
        }
        counts
    }

    /// The RTTs observed while on each path.
    pub fn rtts_by_path(&self) -> Vec<Vec<f64>> {
        let mut by_path = vec![Vec::new(); self.paths.len()];
        for s in &self.samples {
            if let (Some(p), Some(r)) = (s.path, s.rtt_ms) {
                by_path[p as usize].push(f64::from(r));
            }
        }
        by_path
    }

    /// The path observed at each usable sample, in time order.
    pub fn path_sequence(&self) -> Vec<u16> {
        self.samples.iter().filter_map(|s| s.path).collect()
    }
}

/// The record-at-a-time timeline builder: annotates each record on its own
/// ([`annotate`]) and folds it in. It is the reference the columnar path
/// ([`crate::Analysis::timelines`] over a [`s2s_probe::TraceStore`]) is
/// tested against; production builds every timeline through that path.
pub struct TimelineBuilder<'m> {
    timeline: TraceTimeline,
    map: &'m Ip2AsnMap,
}

impl<'m> TimelineBuilder<'m> {
    /// Starts a timeline for one (pair, protocol).
    pub fn new(src: ClusterId, dst: ClusterId, proto: Protocol, map: &'m Ip2AsnMap) -> Self {
        TimelineBuilder {
            timeline: TraceTimeline {
                src,
                dst,
                proto,
                paths: Vec::new(),
                samples: Vec::new(),
                counts: CompletenessCounts::default(),
            },
            map,
        }
    }

    /// Folds one traceroute in.
    pub fn push(&mut self, rec: TracerouteRecord) {
        let ann: Annotated = annotate(&rec, self.map);
        self.timeline.counts.add(&rec, &ann);
        let path = if rec.reached && !ann.has_loop {
            Some(self.intern(ann.as_path))
        } else {
            None
        };
        self.timeline.samples.push(Sample {
            t: rec.t,
            path,
            rtt_ms: rec.e2e_rtt_ms.filter(|_| path.is_some()).map(|r| r as f32),
        });
    }

    fn intern(&mut self, path: AsPath) -> u16 {
        if let Some(i) = self.timeline.paths.iter().position(|p| *p == path) {
            return i as u16;
        }
        assert!(
            self.timeline.paths.len() < u16::MAX as usize,
            "more than 65k distinct AS paths on one timeline"
        );
        self.timeline.paths.push(path);
        (self.timeline.paths.len() - 1) as u16
    }

    /// Finishes the timeline.
    pub fn finish(self) -> TraceTimeline {
        self.timeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2s_probe::HopObs;
    use s2s_types::{Asn, IpNet, Ipv4Net};
    use std::net::Ipv4Addr;

    fn map() -> Ip2AsnMap {
        let anns = vec![
            (IpNet::V4(Ipv4Net::new(Ipv4Addr::new(10, 1, 0, 0), 16)), Asn::new(100)),
            (IpNet::V4(Ipv4Net::new(Ipv4Addr::new(10, 2, 0, 0), 16)), Asn::new(200)),
            (IpNet::V4(Ipv4Net::new(Ipv4Addr::new(10, 3, 0, 0), 16)), Asn::new(300)),
        ];
        Ip2AsnMap::from_announcements(&anns)
    }

    fn rec(t_min: u32, via: &str, rtt: f64) -> TracerouteRecord {
        TracerouteRecord {
            src: ClusterId::new(0),
            dst: ClusterId::new(1),
            proto: Protocol::V4,
            t: SimTime::from_minutes(t_min),
            hops: vec![
                HopObs { addr: Some("10.1.0.1".parse().unwrap()), rtt_ms: Some(1.0) },
                HopObs { addr: Some(via.parse().unwrap()), rtt_ms: Some(5.0) },
            ],
            reached: true,
            e2e_rtt_ms: Some(rtt),
            src_addr: Some("10.1.0.200".parse().unwrap()),
            dst_addr: Some("10.3.0.9".parse().unwrap()),
        }
    }

    #[test]
    fn interning_reuses_paths() {
        let m = map();
        let mut b = TimelineBuilder::new(ClusterId::new(0), ClusterId::new(1), Protocol::V4, &m);
        b.push(rec(0, "10.2.0.1", 50.0));
        b.push(rec(180, "10.2.0.2", 51.0)); // same AS path, different router
        b.push(rec(360, "10.1.0.9", 80.0)); // different AS path (no AS200)
        let tl = b.finish();
        assert_eq!(tl.unique_paths(), 2);
        assert_eq!(tl.samples.len(), 3);
        assert_eq!(tl.path_sequence(), vec![0, 0, 1]);
        assert_eq!(tl.path_sample_counts(), vec![2, 1]);
    }

    #[test]
    fn rtts_group_by_path() {
        let m = map();
        let mut b = TimelineBuilder::new(ClusterId::new(0), ClusterId::new(1), Protocol::V4, &m);
        b.push(rec(0, "10.2.0.1", 50.0));
        b.push(rec(180, "10.2.0.1", 52.0));
        b.push(rec(360, "10.1.0.9", 80.0));
        let tl = b.finish();
        let by_path = tl.rtts_by_path();
        assert_eq!(by_path[0], vec![50.0, 52.0]);
        assert_eq!(by_path[1], vec![80.0]);
    }

    #[test]
    fn incomplete_and_looping_traces_yield_pathless_samples() {
        let m = map();
        let mut b = TimelineBuilder::new(ClusterId::new(0), ClusterId::new(1), Protocol::V4, &m);
        let mut unreached = rec(0, "10.2.0.1", 50.0);
        unreached.reached = false;
        unreached.e2e_rtt_ms = None;
        b.push(unreached);
        // A loop: 100 -> 200 -> 100 -> dest 300.
        let mut looping = rec(180, "10.2.0.1", 55.0);
        looping.hops.push(HopObs {
            addr: Some("10.1.0.3".parse().unwrap()),
            rtt_ms: Some(9.0),
        });
        b.push(looping);
        b.push(rec(360, "10.2.0.1", 50.0));
        let tl = b.finish();
        assert_eq!(tl.samples.len(), 3);
        assert_eq!(tl.usable_samples(), 1);
        assert_eq!(tl.unique_paths(), 1);
        assert_eq!(tl.counts.incomplete, 1);
        assert_eq!(tl.counts.loops, 1);
        // Pathless samples carry no RTT into path analyses.
        assert!(tl.samples[0].rtt_ms.is_none());
        assert!(tl.samples[1].rtt_ms.is_none());
    }

    #[test]
    fn empty_timeline() {
        let m = map();
        let tl = TimelineBuilder::new(ClusterId::new(0), ClusterId::new(1), Protocol::V6, &m)
            .finish();
        assert_eq!(tl.unique_paths(), 0);
        assert_eq!(tl.usable_samples(), 0);
        assert!(tl.path_sample_counts().is_empty());
    }
}
