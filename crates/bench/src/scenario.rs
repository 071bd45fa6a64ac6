//! The simulated world the experiments run on.

use s2s_bgp::{AsRelStore, Ip2AsnMap};
use s2s_core::timeline::{TimelineBuilder, TraceTimeline};
use s2s_core::Analysis;
use s2s_netsim::{CongestionModel, CongestionParams, Network, NetworkParams};
use s2s_probe::{
    Campaign, CampaignConfig, CampaignReport, FaultProfile, RetryPolicy, TraceOptions,
    TraceStore, TracerouteMode,
};
use s2s_routing::{Dynamics, DynamicsParams, RouteOracle};
use s2s_topology::{build_topology, Topology, TopologyParams};
use s2s_types::{ClusterId, Protocol, SimTime};
use std::sync::Arc;

/// Experiment scale, from `S2S_*` environment variables.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Master seed.
    pub seed: u64,
    /// CDN clusters deployed.
    pub clusters: usize,
    /// Days of long-term campaign.
    pub days: u32,
    /// Directed (pair, both directions) samples for the long-term mesh.
    pub pairs: usize,
    /// Pairs in the short-term ping campaign.
    pub ping_pairs: usize,
    /// Congested-pair subset traced every 30 minutes.
    pub cong_pairs: usize,
}

impl Scale {
    /// The default experiment scale (DESIGN.md §8), overridable via the
    /// `S2S_SEED` / `S2S_CLUSTERS` / `S2S_DAYS` / `S2S_PAIRS` /
    /// `S2S_PING_PAIRS` / `S2S_CONG_PAIRS` knobs. Malformed values warn
    /// once and fall back (see `s2s_types::env`); zero-cluster or zero-day
    /// worlds are rejected the same way.
    pub fn from_env() -> Self {
        use s2s_types::env::{var_u64, var_usize, var_usize_at_least};
        Scale {
            seed: var_u64("S2S_SEED", 20151201),
            clusters: var_usize_at_least("S2S_CLUSTERS", 120, 2),
            days: var_usize_at_least("S2S_DAYS", 485, 1) as u32,
            pairs: var_usize("S2S_PAIRS", 600),
            ping_pairs: var_usize("S2S_PING_PAIRS", 4000),
            cong_pairs: var_usize("S2S_CONG_PAIRS", 400),
        }
    }

    /// A small scale for tests and Criterion benches.
    pub fn smoke() -> Self {
        Scale {
            seed: 7,
            clusters: 24,
            days: 40,
            pairs: 60,
            ping_pairs: 200,
            cong_pairs: 40,
        }
    }
}

/// The assembled world.
pub struct Scenario {
    /// Scale it was built at.
    pub scale: Scale,
    /// The topology.
    pub topo: Arc<Topology>,
    /// The routing oracle (with dynamics).
    pub oracle: Arc<RouteOracle>,
    /// The measurement plane.
    pub net: Arc<Network>,
    /// IP→ASN from the simulated BGP table.
    pub ip2asn: Arc<Ip2AsnMap>,
    /// AS relationships (ground truth, CAIDA-shaped).
    pub rels: Arc<AsRelStore>,
}

impl Scenario {
    /// Builds the world for a scale.
    pub fn build(scale: Scale) -> Scenario {
        let horizon = SimTime::from_days(scale.days + 60);
        let topo = Arc::new(build_topology(&TopologyParams {
            seed: scale.seed,
            n_clusters: scale.clusters,
            ..TopologyParams::default()
        }));
        let dynamics = Arc::new(Dynamics::generate(
            &topo,
            &DynamicsParams { seed: scale.seed ^ 0xD1CE, horizon, ..DynamicsParams::default() },
        ));
        let oracle = Arc::new(RouteOracle::new(Arc::clone(&topo), dynamics));
        let congestion = CongestionModel::generate(
            &topo,
            &CongestionParams {
                seed: scale.seed ^ 0xC09,
                horizon,
                ..CongestionParams::default()
            },
        );
        let net = Arc::new(Network::new(
            Arc::clone(&oracle),
            congestion,
            NetworkParams::default(),
        ));
        let ip2asn = Arc::new(Ip2AsnMap::from_topology(&topo));
        let rels = Arc::new(AsRelStore::from_topology(&topo));
        Scenario { scale, topo, oracle, net, ip2asn, rels }
    }

    /// Builds at the environment scale.
    pub fn from_env() -> Scenario {
        Scenario::build(Scale::from_env())
    }

    /// Deterministically samples `n` *unordered* cluster pairs and returns
    /// both directions of each, adjacent ((a,b) then (b,a)) — the layout
    /// the forward/reverse analyses expect.
    pub fn sample_pair_list(&self, n_unordered: usize, salt: u64) -> Vec<(ClusterId, ClusterId)> {
        let c = self.topo.clusters.len();
        let mut out = Vec::with_capacity(n_unordered * 2);
        let mut seen = std::collections::HashSet::new();
        let mut k = 0u64;
        while seen.len() < n_unordered && seen.len() < c * (c - 1) / 2 {
            let r1 = mix(self.scale.seed ^ salt ^ k.wrapping_mul(0x9E37));
            let r2 = mix(r1 ^ 0x5bd1e995);
            k += 1;
            let a = (r1 % c as u64) as usize;
            let b = (r2 % c as u64) as usize;
            if a == b {
                continue;
            }
            let key = (a.min(b), a.max(b));
            if seen.insert(key) {
                out.push((ClusterId::from(key.0), ClusterId::from(key.1)));
                out.push((ClusterId::from(key.1), ClusterId::from(key.0)));
            }
        }
        out
    }

    /// The one §4 timeline collector: runs a traceroute `campaign` over
    /// `pairs` (distinct), with `opts_of(t, proto)` picking each
    /// measurement's tool options. Each (pair, protocol) folds its raw
    /// records into its own [`TraceStore`] arena, and the arenas are
    /// absorbed in accumulator order (pair-major, protocol in schedule
    /// order) into one corpus, so its groups come out in that order too.
    pub fn collect_store(
        &self,
        campaign: &Campaign,
        pairs: &[(ClusterId, ClusterId)],
        opts_of: impl Fn(SimTime, Protocol) -> TraceOptions + Sync,
    ) -> (TraceStore, CampaignReport) {
        let (stores, report) = campaign
            .run_traceroute_with(
                &self.net,
                pairs,
                opts_of,
                |_, _, _| TraceStore::new(),
                |st, rec| st.push(&rec),
            )
            .expect("in-memory campaign cannot fail");
        // Consuming absorb: each per-(pair, protocol) store is freed as soon
        // as it is merged, so the peak stays near one arena, not two.
        let merged = s2s_obs::timed("store.absorb", || {
            let mut merged = TraceStore::new();
            for st in stores {
                merged.absorb(&st);
            }
            merged
        });
        (merged, report)
    }

    /// [`Scenario::collect_store`] through the columnar analysis: one
    /// [`TraceTimeline`] per (pair, protocol), in accumulator order.
    pub fn collect_timelines(
        &self,
        campaign: &Campaign,
        pairs: &[(ClusterId, ClusterId)],
        opts_of: impl Fn(SimTime, Protocol) -> TraceOptions + Sync,
    ) -> (Vec<TraceTimeline>, CampaignReport) {
        let (store, report) = self.collect_store(campaign, pairs, opts_of);
        (Analysis::new(&store).timelines(&self.ip2asn), report)
    }

    /// The record-at-a-time reference for [`Scenario::collect_timelines`]:
    /// every record is annotated on its own and folded into a
    /// [`TimelineBuilder`]. No production path runs it; the equivalence
    /// tests pin the columnar collector to it byte for byte.
    pub fn reference_timelines(
        &self,
        campaign: &Campaign,
        pairs: &[(ClusterId, ClusterId)],
        opts_of: impl Fn(SimTime, Protocol) -> TraceOptions + Sync,
    ) -> (Vec<TraceTimeline>, CampaignReport) {
        let map = &self.ip2asn;
        let (builders, report) = campaign
            .run_traceroute_with(
                &self.net,
                pairs,
                opts_of,
                |s, d, p| TimelineBuilder::new(s, d, p, map),
                |b, rec| b.push(rec),
            )
            .expect("in-memory campaign cannot fail");
        (builders.into_iter().map(TimelineBuilder::finish).collect(), report)
    }

    /// The long-term (3-hourly, dual-protocol) campaign behind a fault
    /// profile, with the paper's tooling history as its option picker,
    /// through [`Scenario::collect_store`]. Lost slots fold as pathless
    /// records, so every timeline still has one sample per scheduled
    /// instant, and the [`CampaignReport`] says what the plane cost.
    pub fn long_term_store_faulty(
        &self,
        pairs: &[(ClusterId, ClusterId)],
        profile: &FaultProfile,
        retry: &RetryPolicy,
    ) -> (TraceStore, CampaignReport) {
        let campaign = self.long_term_campaign(profile, retry);
        self.collect_store(&campaign, pairs, self.long_term_opts_of())
    }

    /// [`Scenario::long_term_store_faulty`]'s schedule through the
    /// record-at-a-time [`Scenario::reference_timelines`].
    pub fn long_term_timelines_faulty(
        &self,
        pairs: &[(ClusterId, ClusterId)],
        profile: &FaultProfile,
        retry: &RetryPolicy,
    ) -> (Vec<TraceTimeline>, CampaignReport) {
        let campaign = self.long_term_campaign(profile, retry);
        self.reference_timelines(&campaign, pairs, self.long_term_opts_of())
    }

    fn long_term_campaign(&self, profile: &FaultProfile, retry: &RetryPolicy) -> Campaign {
        Campaign::new(CampaignConfig::long_term(self.scale.days)).faults(*profile).retry(*retry)
    }

    /// The paper's tooling history (§2.1) as a per-measurement option
    /// picker: classic traceroute for the first ten months, then Paris
    /// traceroute for IPv4 (IPv6 stayed on the classic tool). The classic
    /// tool's ECMP-splice artifacts, including the small rate of false AS
    /// loops, are therefore in the data set. Crate-visible so fabric
    /// workers run their shard with the exact options of the one-process
    /// campaign.
    pub(crate) fn long_term_opts_of(&self) -> impl Fn(SimTime, Protocol) -> TraceOptions {
        let paris_from = SimTime::from_days(self.scale.days.saturating_mul(10) / 16);
        move |t, proto| {
            let mode = if proto == Protocol::V4 && t >= paris_from {
                TracerouteMode::Paris
            } else {
                TracerouteMode::Classic
            };
            TraceOptions { mode, ..TraceOptions::default() }
        }
    }
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scenario_builds() {
        let s = Scenario::build(Scale::smoke());
        assert_eq!(s.topo.clusters.len(), 24);
        assert!(s.ip2asn.announcement_count() > 0);
        assert!(!s.rels.is_empty());
    }

    #[test]
    fn pair_sampling_is_deterministic_and_bidirectional() {
        let s = Scenario::build(Scale::smoke());
        let a = s.sample_pair_list(10, 1);
        let b = s.sample_pair_list(10, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 20);
        for w in a.chunks(2) {
            assert_eq!(w[0].0, w[1].1);
            assert_eq!(w[0].1, w[1].0);
        }
        let c = s.sample_pair_list(10, 2);
        assert_ne!(a, c, "different salts should sample differently");
    }
}
