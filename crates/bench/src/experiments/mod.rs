//! One module per table/figure of the paper (see DESIGN.md §3 for the
//! experiment index). Every function prints paper-style output and returns
//! the headline numbers so tests and EXPERIMENTS.md can assert on them.

pub mod congestion;
pub mod dualstack;
pub mod example;
pub mod extensions;
pub mod faultsweep;
pub mod longterm;
pub mod ownercheck;
pub mod shortterm;

use crate::scenario::Scenario;
use s2s_core::timeline::TraceTimeline;
use s2s_core::Analysis;
use s2s_bgp::Ip2AsnMap;
use s2s_probe::store::StoreStats;
use s2s_probe::{CampaignReport, FaultProfile, RetryPolicy, TraceStore};
use s2s_types::{ClusterId, Coverage};

/// The long-term data set shared by Table 1 and Figs. 2–6 and 10.
pub struct LongTermData {
    /// Directed pairs, both directions adjacent.
    pub pairs: Vec<(ClusterId, ClusterId)>,
    /// One timeline per (pair, protocol), pair-major, protocol-minor
    /// (V4 then V6).
    pub timelines: Vec<TraceTimeline>,
    /// What the measurement plane did while collecting (all-delivered under
    /// the default quiet fault profile).
    pub report: CampaignReport,
    /// Intern-table statistics of the columnar arena the corpus passed
    /// through (`None` on the record-at-a-time reference path).
    pub arena: Option<StoreStats>,
}

impl LongTermData {
    /// Runs the long-term campaign at the scenario's scale, behind the
    /// fault profile configured via `S2S_FAULT_*` (quiet by default, which
    /// yields the bit-identical dataset of the plain runner).
    pub fn collect(scenario: &Scenario) -> LongTermData {
        LongTermData::collect_with(scenario, &FaultProfile::from_env())
    }

    /// [`LongTermData::collect`] with an explicit fault profile, through
    /// the columnar collector ([`Scenario::long_term_store_faulty`]).
    pub fn collect_with(scenario: &Scenario, profile: &FaultProfile) -> LongTermData {
        let pairs = scenario.sample_pair_list(scenario.scale.pairs / 2, 0x10e6);
        let (store, report) =
            scenario.long_term_store_faulty(&pairs, profile, &RetryPolicy::default());
        LongTermData::from_store(pairs, &store, report, &scenario.ip2asn)
    }

    /// The data set of a collected corpus: its timelines from the sharded
    /// columnar analysis (thread count from `S2S_THREADS` / `--threads`,
    /// byte-identical at every count) and its arena statistics.
    pub fn from_store(
        pairs: Vec<(ClusterId, ClusterId)>,
        store: &TraceStore,
        report: CampaignReport,
        map: &Ip2AsnMap,
    ) -> LongTermData {
        let timelines = Analysis::new(store).timelines(map);
        LongTermData { pairs, timelines, report, arena: Some(store.stats()) }
    }

    /// The record-at-a-time reference collection
    /// ([`Scenario::long_term_timelines_faulty`]): the baseline the
    /// columnar collection is tested against.
    #[cfg(test)]
    pub fn collect_legacy_with(scenario: &Scenario, profile: &FaultProfile) -> LongTermData {
        let pairs = scenario.sample_pair_list(scenario.scale.pairs / 2, 0x10e6);
        let (timelines, report) =
            scenario.long_term_timelines_faulty(&pairs, profile, &RetryPolicy::default());
        LongTermData { pairs, timelines, report, arena: None }
    }

    /// Aggregate sample coverage over every timeline in the data set.
    pub fn coverage(&self) -> Coverage {
        let usable = self.timelines.iter().map(|t| t.usable_samples()).sum();
        let offered = self.timelines.iter().map(|t| t.samples.len()).sum();
        Coverage::new(usable, offered)
    }

    /// Timelines of one protocol.
    pub fn by_proto(&self, proto: s2s_types::Protocol) -> Vec<&TraceTimeline> {
        self.timelines.iter().filter(|t| t.proto == proto).collect()
    }

    /// (forward, reverse) timeline pairs of one protocol: sample_pair_list
    /// emits (a,b) followed by (b,a), and timelines are pair-major with two
    /// protocols each, so pair i's forward-v4 sits at 4i and reverse-v4 at
    /// 4i + 2 (v6 at +1 / +3).
    pub fn direction_pairs(
        &self,
        proto: s2s_types::Protocol,
    ) -> Vec<(&TraceTimeline, &TraceTimeline)> {
        let off = match proto {
            s2s_types::Protocol::V4 => 0,
            s2s_types::Protocol::V6 => 1,
        };
        let mut out = Vec::new();
        let mut i = 0;
        while 4 * i + 3 < self.timelines.len() {
            out.push((&self.timelines[4 * i + off], &self.timelines[4 * i + 2 + off]));
            i += 1;
        }
        out
    }

    /// (v4, v6) timeline pairs per directed pair.
    pub fn protocol_pairs(&self) -> Vec<(&TraceTimeline, &TraceTimeline)> {
        self.timelines
            .chunks(2)
            .filter(|c| c.len() == 2)
            .map(|c| (&c[0], &c[1]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scale, Scenario};
    use s2s_types::Protocol;

    fn micro() -> (Scenario, LongTermData) {
        let scenario = Scenario::build(Scale {
            seed: 3,
            clusters: 12,
            days: 12,
            pairs: 16,
            ping_pairs: 30,
            cong_pairs: 8,
        });
        let data = LongTermData::collect(&scenario);
        (scenario, data)
    }

    #[test]
    fn experiment_layer_smoke() {
        let (scenario, data) = micro();
        // Table 1: fractions are a partition of the completed traces.
        let t1 = longterm::table1(&data, Protocol::V4);
        let (a, b, c) = t1.fractions;
        assert!((a + b + c - 1.0).abs() < 1e-9);
        assert!(t1.completed > 500);

        // Fig. 2a/3a/3b on the same corpus.
        let f2 = longterm::fig2a(&data, Protocol::V4);
        assert!((0.0..=1.0).contains(&f2.single_path_fraction));
        assert!(f2.p80_paths >= 1.0);
        let dominant = longterm::fig3a(&data, Protocol::V4);
        assert!((0.0..=1.0).contains(&dominant));
        let f3 = longterm::fig3b(&data, Protocol::V4);
        assert!(f3.no_change_fraction <= f2.single_path_fraction + 1e-9,
            "single-path timelines cannot have changes");

        // Fig. 6 prevalence fractions are monotone in the threshold.
        let f6 = longterm::fig6(&data, Protocol::V4);
        assert!(f6[0].frac_prevalent_20pct >= f6[1].frac_prevalent_20pct);
        assert!(f6[1].frac_prevalent_20pct >= f6[2].frac_prevalent_20pct);

        // Fig. 10a/10b run and produce consistent values.
        let f10a = dualstack::fig10a(&data);
        assert!(f10a.n.1 <= f10a.n.0, "same-path subset cannot exceed all");
        if let Some(s) = f10a.all {
            assert!(s.frac_similar + s.frac_v4_saves_big + s.frac_v6_saves_big <= 1.0 + 1e-9);
        }
        if let Some(f10b) = dualstack::fig10b(&scenario, &data, Protocol::V4) {
            assert!(f10b.median >= 1.0, "inflation below light speed");
            assert!(f10b.p90 >= f10b.median);
        }
    }

    #[test]
    fn columnar_collection_matches_the_legacy_baseline() {
        let (scenario, data) = micro();
        let legacy =
            LongTermData::collect_legacy_with(&scenario, &FaultProfile::from_env());
        assert_eq!(data.pairs, legacy.pairs);
        assert_eq!(data.timelines, legacy.timelines);
        assert_eq!(
            format!("{:?}", data.report),
            format!("{:?}", legacy.report)
        );
        assert!(legacy.arena.is_none());
        assert!(data.arena.is_some());
    }

    #[test]
    fn direction_pairs_align_with_sampling() {
        let (_, data) = micro();
        for (f, r) in data.direction_pairs(Protocol::V4) {
            assert_eq!(f.src, r.dst);
            assert_eq!(f.dst, r.src);
            assert_eq!(f.proto, Protocol::V4);
        }
        let v4 = data.by_proto(Protocol::V4).len();
        let v6 = data.by_proto(Protocol::V6).len();
        assert_eq!(v4, v6);
        assert_eq!(v4 + v6, data.timelines.len());
    }
}
