//! `longterm`: the §4/§6 batch pipeline on quiet faults, at two threads.
//!
//! One pass: the 3-hourly dual-protocol traceroute mesh folds into one
//! `TraceStore` per (pair, protocol), the stores are absorbed into one
//! corpus, `Analysis::timelines` annotates it, and the Table 1 /
//! Fig. 2–6 / Fig. 10 analyses run over the timelines.
//!
//! An untraced pass collects through the program's own
//! `collect_longterm_digest`. A traced pass runs the same campaign with
//! a bench-owned fold closure and absorb loop, so that `TraceStore::push`
//! and `absorb` can be timed; its digest must still equal the reference.

use crate::metrics::{fnv_lines, ratio, Metrics, Tracer};
use crate::procfs::PassClock;
use crate::{since, Pass, RunConfig};
use s2s_bench::experiments::{dualstack, longterm as lt, LongTermData};
use s2s_bench::fabric::{collect_longterm_digest, longterm_pairs, store_digest};
use s2s_bench::Scenario;
use s2s_core::Analysis;
use s2s_probe::{Campaign, CampaignConfig, FaultProfile, TraceOptions, TraceStore, TracerouteMode};
use s2s_types::{Protocol, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Campaign and analysis threads.
pub const THREADS: usize = 2;

/// Runs one pass.
pub fn pass(cfg: &RunConfig, traced: bool) -> Result<Pass, String> {
    let scenario = cfg.world.scenario();
    if traced {
        return traced_pass(&scenario);
    }
    let clock = PassClock::start();
    let (data, digest, store) = collect_longterm_digest(&scenario, &FaultProfile::default());
    let results = analyses(&scenario, &data);
    let time = clock.stop();
    let mut pass = Pass {
        time,
        records: data.report.offered as u64,
        failed_slots: failed_slots(&store),
        ..Pass::default()
    };
    pass.observed.mesh_digest = digest;
    pass.observed.mesh_results = results;
    Ok(pass)
}

/// Slots whose traceroute carried no end-to-end RTT.
pub fn failed_slots(store: &TraceStore) -> u64 {
    store.iter().filter(|v| v.e2e_rtt_ms().is_none()).count() as u64
}

/// A traced pass: the campaign, absorb and analyses with a timer around
/// each stage and around every `TraceStore::push`.
fn traced_pass(scenario: &Scenario) -> Result<Pass, String> {
    let tr = Tracer::install(&scenario.net);
    let push_ns = AtomicU64::new(0);

    let clock = PassClock::start();
    let pairs = longterm_pairs(scenario);
    let t_campaign = Instant::now();
    let (stores, report) = Campaign::new(CampaignConfig::long_term(scenario.scale.days))
        .threads(THREADS)
        .run_traceroute_with(
            &scenario.net,
            &pairs,
            tool_history(scenario),
            |_, _, _| TraceStore::new(),
            |st, rec| {
                let t = Instant::now();
                st.push(&rec);
                push_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            },
        )
        .map_err(|e| format!("longterm campaign: {e}"))?;
    let campaign_s = since(t_campaign);
    let t_absorb = Instant::now();
    let mut store = TraceStore::new();
    for st in &stores {
        store.absorb(st);
    }
    drop(stores);
    let absorb_s = since(t_absorb);
    let t_timelines = Instant::now();
    let timelines = Analysis::new(&store)
        .threads(THREADS)
        .timelines(&scenario.ip2asn);
    let timelines_s = since(t_timelines);
    let data = LongTermData {
        pairs,
        timelines,
        report,
        arena: Some(store.stats()),
    };
    let t_analyses = Instant::now();
    let results = analyses(scenario, &data);
    let analyses_s = since(t_analyses);
    let time = clock.stop();
    let wall_s = time.wall_s;

    // The clock has stopped: fingerprint and check.
    let mut pass = Pass {
        time,
        records: data.report.offered as u64,
        failed_slots: failed_slots(&store),
        ..Pass::default()
    };
    pass.observed.mesh_digest = store_digest(&store);
    pass.observed.mesh_results = results;
    let push_s = Duration::from_nanos(push_ns.load(Ordering::Relaxed)).as_secs_f64();
    let mut l = Metrics::layers();
    routing_layers(&mut l, &tr, scenario, wall_s);
    let routing_s = tr.span_s("oracle.route_compute") + tr.span_s("oracle.epoch_config");
    let netsim_s = THREADS as f64 * campaign_s - routing_s - push_s;
    let (probes, lost) = (
        tr.counter("netsim.probes"),
        tr.counter("netsim.probes_lost"),
    );
    netsim_layers(&mut l, probes, lost, pass.records, netsim_s, wall_s);
    probe_layers(&mut l, &data.report, campaign_s);
    store_layers(&mut l, &store);
    l.set("store.push_share", push_s / wall_s);
    l.set("store.absorb_share", absorb_s / wall_s);
    l.set("core.timelines_share", timelines_s / wall_s);
    l.set("core.memo_hit_ratio", memo_hit_ratio(&tr));
    l.set("core.analyses_share", analyses_s / wall_s);
    l.set(
        "other.self_share",
        (wall_s - campaign_s - absorb_s - timelines_s - analyses_s) / wall_s,
    );
    pass.layers = l;
    Ok(pass)
}

/// The paper's tooling history (§2.1) as a per-measurement option picker:
/// classic traceroute for the first ten months, then Paris traceroute for
/// IPv4 (IPv6 stayed classic). This mirrors the reproduction's own picker,
/// which is crate-private, for the traced pass's bench-owned campaign; its
/// dataset digest is checked against the same reference as the untraced
/// pass's, so the two cannot drift.
pub fn tool_history(scenario: &Scenario) -> impl Fn(SimTime, Protocol) -> TraceOptions + Sync {
    let paris_from = SimTime::from_days(scenario.scale.days.saturating_mul(10) / 16);
    move |t, proto| {
        let mode = if proto == Protocol::V4 && t >= paris_from {
            TracerouteMode::Paris
        } else {
            TracerouteMode::Classic
        };
        TraceOptions {
            mode,
            ..TraceOptions::default()
        }
    }
}

/// The Table 1 / Fig. 2–6 / Fig. 10 analyses over a long-term data set,
/// as `reproduce run` invokes them; returns a digest of their headline
/// numbers.
pub fn analyses(scenario: &Scenario, data: &LongTermData) -> u64 {
    let mut out: Vec<String> = Vec::new();
    for proto in [Protocol::V4, Protocol::V6] {
        out.push(format!("{:?}", lt::table1(data, proto)));
        out.push(format!("{:?}", lt::fig2a(data, proto)));
        out.push(format!("{:?}", lt::fig2b(data, proto)));
        out.push(format!("{:?}", lt::fig3a(data, proto)));
        out.push(format!("{:?}", lt::fig3b(data, proto)));
        out.push(format!("{:?}", lt::fig45(data, proto, false)));
        out.push(format!("{:?}", lt::fig45(data, proto, true)));
        out.push(format!("{:?}", lt::fig6(data, proto)));
        out.push(format!("{:?}", dualstack::fig10b(scenario, data, proto)));
    }
    out.push(format!(
        "{:?}",
        lt::fig4_shortlived_premium(data, Protocol::V4)
    ));
    out.push(format!("{:?}", dualstack::fig10a(data)));
    fnv_lines(out.iter().map(String::as_str))
}

/// Routing-oracle metrics of a traced pass.
pub fn routing_layers(l: &mut Metrics, tr: &Tracer, scenario: &Scenario, wall_s: f64) {
    let cache = scenario.oracle.cache_stats();
    let routing_s = tr.span_s("oracle.route_compute") + tr.span_s("oracle.epoch_config");
    l.set("routing.route_compute_s", tr.span_s("oracle.route_compute"));
    l.set(
        "routing.route_computes",
        tr.span_count("oracle.route_compute") as f64,
    );
    l.set("routing.epoch_config_s", tr.span_s("oracle.epoch_config"));
    l.set(
        "routing.cache_hit_ratio",
        ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
    );
    l.set("routing.cache_evictions", cache.evictions as f64);
    l.set("routing.self_share", routing_s / wall_s);
}

/// Netsim metrics: probes sent per record and the share lost in flight,
/// and the self time (thread-seconds) the caller attributes to it.
pub fn netsim_layers(
    l: &mut Metrics,
    probes: u64,
    lost: u64,
    records: u64,
    self_s: f64,
    wall_s: f64,
) {
    l.set(
        "netsim.probes_per_record",
        ratio(probes as f64, records as f64),
    );
    l.set("netsim.lost_share", ratio(lost as f64, probes as f64));
    l.set("netsim.self_s", self_s);
    l.set("netsim.self_share", self_s / wall_s);
}

/// Probe-executor and fault-plane metrics from the campaign report.
pub fn probe_layers(l: &mut Metrics, report: &s2s_probe::CampaignReport, campaign_s: f64) {
    l.set("probe.campaign_s", campaign_s);
    l.set(
        "probe.attempts_per_slot",
        ratio(report.attempted as f64, report.offered as f64),
    );
    l.set("probe.retried", report.retried as f64);
    l.set("probe.gave_up", report.gave_up as f64);
    l.set("probe.agent_down_slots", report.agent_down_slots as f64);
}

/// Store residency metrics of the merged corpus.
pub fn store_layers(l: &mut Metrics, store: &TraceStore) {
    let stats = store.stats();
    l.set("store.arena_bytes", stats.arena_bytes as f64);
    l.set("store.dedup_ratio", stats.dedup_ratio);
}

/// Share of annotation lookups the columnar annotator's memo answered.
pub fn memo_hit_ratio(tr: &Tracer) -> f64 {
    let hits = tr.counter("analysis.annotation_memo_hits") as f64;
    ratio(
        hits,
        hits + tr.counter("analysis.annotations_computed") as f64,
    )
}
