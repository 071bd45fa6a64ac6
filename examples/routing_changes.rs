//! Routing-change analysis on a simulated two-month campaign — the §4
//! pipeline end to end: trace timelines, edit-distance change detection,
//! path lifetimes/prevalence, and best-path RTT deltas.
//!
//! ```text
//! cargo run -p s2s-examples --release --bin routing_changes
//! ```

use s2s_core::bestpath::best_path_analysis;
use s2s_core::changes::{detect_changes, path_stats};
use s2s_core::Analysis;
use s2s_netsim::{CongestionModel, Network, NetworkParams};
use s2s_probe::{Campaign, CampaignConfig, TraceOptions, TraceStore};
use s2s_routing::{Dynamics, DynamicsParams, RouteOracle};
use s2s_topology::{build_topology, TopologyParams};
use s2s_types::{ClusterId, Protocol, SimDuration, SimTime};
use std::sync::Arc;

fn main() {
    let days = 60u32;
    let topo = Arc::new(build_topology(&TopologyParams::tiny(42)));
    let ip2asn = s2s_bgp::Ip2AsnMap::from_announcements(&topo.announcements);
    let dynamics = Arc::new(Dynamics::generate(
        &topo,
        &DynamicsParams {
            horizon: SimTime::from_days(days),
            stable_fraction: 0.3,
            mean_episodes: 6.0,
            ..DynamicsParams::default()
        },
    ));
    println!(
        "dynamics: {} links fail at least once, {} episodes total",
        dynamics.failing_link_count(),
        dynamics.episode_count()
    );
    let oracle = Arc::new(RouteOracle::new(Arc::clone(&topo), dynamics));
    let net = Network::new(oracle, CongestionModel::none(), NetworkParams::default());

    // Every 3 hours for two months across a handful of pairs.
    let pairs: Vec<(ClusterId, ClusterId)> = (1..topo.clusters.len().min(9))
        .map(|d| (ClusterId::new(0), ClusterId::from(d)))
        .collect();
    let cfg = CampaignConfig {
        start: SimTime::T0,
        end: SimTime::from_days(days),
        interval: SimDuration::from_hours(3),
        protocols: vec![Protocol::V4],
        threads: 4,
    };
    // Each (pair, protocol) folds its raw records into a columnar store;
    // merged in pair order, the §4 analysis builds one timeline per group.
    let (stores, _) = Campaign::new(cfg)
        .run_traceroute(
            &net,
            &pairs,
            TraceOptions::default(),
            |_, _, _| TraceStore::new(),
            |st, rec| st.push(&rec),
        )
        .expect("in-memory campaign cannot fail");
    let mut store = TraceStore::new();
    for st in &stores {
        store.absorb(st);
    }
    let timelines = Analysis::new(&store).timelines(&ip2asn);

    for tl in &timelines {
        let changes = detect_changes(tl);
        let stats = path_stats(tl, SimDuration::from_hours(3));
        let dst_city = topo.cluster_city(tl.dst);
        println!(
            "\n-> {} ({}): {} samples, {} AS paths, {} changes",
            dst_city.name,
            dst_city.country,
            tl.usable_samples(),
            tl.unique_paths(),
            changes.changes
        );
        for (i, path) in tl.paths.iter().enumerate() {
            println!(
                "   path {i}: prevalence {:>5.1}%, lifetime {:>6.1} h   {path}",
                stats.prevalence[i] * 100.0,
                stats.lifetimes[i].hours()
            );
        }
        if let Some(a) = best_path_analysis(tl, SimDuration::from_hours(3)) {
            for d in &a.deltas {
                println!(
                    "   sub-optimal path {}: baseline +{:.1} ms over best (lifetime {:.1} h)",
                    d.path, d.delta_p10_ms, d.lifetime_hours
                );
            }
        }
    }
}
