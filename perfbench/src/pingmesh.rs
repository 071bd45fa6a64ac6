//! `pingmesh`: the §5.1 campaign on quiet faults, at one thread — a week
//! of 15-minute pings folded into `PairProfileSink` state, then
//! coverage-checked congestion detection straight from the profiles.

use crate::longterm::{netsim_layers, probe_layers, routing_layers};
use crate::metrics::{fnv_lines, ratio, Metrics, Tracer};
use crate::procfs::PassClock;
use crate::{since, Pass, RunConfig};
use s2s_bench::Scenario;
use s2s_core::congestion::DetectParams;
use s2s_core::Analysis;
use s2s_probe::{Campaign, CampaignConfig, PairProfileSink, StreamSink};
use s2s_types::{ClusterId, Protocol, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The ping week and its pairs: one direction per sampled unordered pair
/// (ping RTT is direction-agnostic), starting mid-study as `reproduce`'s
/// §5.1 run does.
pub fn mesh(scenario: &Scenario) -> (CampaignConfig, Vec<(ClusterId, ClusterId)>) {
    let all = scenario.sample_pair_list(scenario.scale.ping_pairs, 0x5EC5);
    let pairs = all.chunks(2).map(|c| c[0]).collect();
    (
        CampaignConfig::ping_week(SimTime::from_days(scenario.scale.days / 2)),
        pairs,
    )
}

/// Runs one pass.
pub fn pass(cfg: &RunConfig, traced: bool) -> Result<Pass, String> {
    let scenario = cfg.world.scenario();
    let tracer = traced.then(|| Tracer::install(&scenario.net));
    let params = DetectParams::default();
    // The paper's ≥600-of-672 gate as the fraction it is.
    let floor = params.min_valid_samples as f64 / 672.0;

    let clock = PassClock::start();
    let (camp_cfg, pairs) = mesh(&scenario);
    let sink = TimedSink {
        inner: PairProfileSink::for_config(&camp_cfg),
        traced,
        fold_ns: 0.into(),
    };
    let t_campaign = Instant::now();
    let campaign = Campaign::new(camp_cfg).threads(1).sink(sink);
    let (profiles, report) = campaign
        .run_ping(&scenario.net, &pairs)
        .map_err(|e| format!("ping campaign: {e}"))?;
    let campaign_s = since(t_campaign);
    let t_congestion = Instant::now();
    let verdicts = Analysis::new(profiles.as_slice())
        .checked(floor)
        .congestion_checked(&params);
    let congestion_s = since(t_congestion);
    let time = clock.stop();
    let wall_s = time.wall_s;

    let mut counts = [0u64; 4];
    for v in &verdicts {
        match v {
            Ok((c, _)) => {
                counts[0] += 1;
                counts[2] += u64::from(c.high_variation);
                counts[3] += u64::from(c.consistent);
            }
            Err(_) => counts[1] += 1,
        }
    }
    let lines: Vec<String> = profiles
        .iter()
        .map(|p| campaign.sink_ref().save(p))
        .collect();
    let lost: u64 = profiles
        .iter()
        .map(|p| p.offered() - p.valid_samples() as u64)
        .sum();
    let mut pass = Pass {
        time,
        records: report.offered as u64,
        failed_slots: lost,
        ..Pass::default()
    };
    pass.observed.ping_states = fnv_lines(lines.iter().map(String::as_str));
    pass.observed.ping_verdicts = counts;
    if let Some(tr) = tracer {
        let fold_s = campaign.sink_ref().fold_ns.load(Ordering::Relaxed) as f64 * 1e-9;
        let routing_s = tr.span_s("oracle.route_compute") + tr.span_s("oracle.epoch_config");
        let mut l = Metrics::layers();
        routing_layers(&mut l, &tr, &scenario, wall_s);
        let netsim_s = campaign_s - routing_s - fold_s;
        netsim_layers(
            &mut l,
            tr.counter("netsim.pings"),
            lost,
            pass.records,
            netsim_s,
            wall_s,
        );
        probe_layers(&mut l, &report, campaign_s);
        l.set("sink.fold_share", fold_s / wall_s);
        let state_bytes: usize = profiles.iter().map(|p| p.memory_bytes()).sum();
        l.set(
            "sink.bytes_per_state",
            ratio(state_bytes as f64, profiles.len() as f64),
        );
        l.set("core.congestion_share", congestion_s / wall_s);
        l.set(
            "other.self_share",
            (wall_s - campaign_s - congestion_s) / wall_s,
        );
        pass.layers = l;
    }
    Ok(pass)
}

/// A [`StreamSink`] that times every fold of the sink it wraps when the
/// pass is traced (and only forwards otherwise).
struct TimedSink<S> {
    inner: S,
    traced: bool,
    fold_ns: AtomicU64,
}

impl<S: StreamSink> StreamSink for TimedSink<S> {
    type State = S::State;

    fn init(&self, src: ClusterId, dst: ClusterId, proto: Protocol) -> S::State {
        self.inner.init(src, dst, proto)
    }

    fn fold(&self, state: &mut S::State, seq: u64, t: SimTime, rtt_ms: Option<f64>) {
        if self.traced {
            let t0 = Instant::now();
            self.inner.fold(state, seq, t, rtt_ms);
            self.fold_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        } else {
            self.inner.fold(state, seq, t, rtt_ms);
        }
    }

    fn finish(&self, state: &mut S::State) {
        self.inner.finish(state)
    }

    fn save(&self, state: &S::State) -> String {
        self.inner.save(state)
    }

    fn load(&self, line: &str) -> std::io::Result<S::State> {
        self.inner.load(line)
    }

    fn state_bytes(&self, state: &S::State) -> usize {
        self.inner.state_bytes(state)
    }
}
