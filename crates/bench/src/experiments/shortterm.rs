//! Fig. 7: the 30-minute vs 3-hour cadence robustness check (§4.3).

use crate::render::print_ecdf;
use crate::scenario::Scenario;
use s2s_core::shortterm::CadenceComparison;
use s2s_probe::{Campaign, CampaignConfig, TraceOptions};
use s2s_types::{SimDuration, SimTime};

/// Fig. 7 headline: max ECDF gaps between All and 3hr delta distributions.
#[derive(Clone, Copy, Debug)]
pub struct Fig7Result {
    /// Max ECDF gap for Δ10th percentiles.
    pub p10_gap: Option<f64>,
    /// Max ECDF gap for Δ90th percentiles.
    pub p90_gap: Option<f64>,
    /// Timelines analyzed.
    pub timelines: usize,
}

/// Runs the short-term campaign (30-minute cadence, paper: 22 days) over a
/// pair sample and compares best-path deltas at both cadences.
pub fn fig7(scenario: &Scenario, days: u32, start: SimTime) -> Fig7Result {
    let pairs = scenario.sample_pair_list(scenario.scale.cong_pairs.max(10), 0xF197);
    let campaign = Campaign::new(CampaignConfig::focused_traceroute(start, days));
    let (timelines, _) =
        scenario.collect_timelines(&campaign, &pairs, |_, _| TraceOptions::default());
    let mut comp = CadenceComparison::default();
    let mut n = 0;
    for tl in timelines.iter().filter(|tl| tl.usable_samples() > 0) {
        comp.add(tl, SimDuration::from_minutes(30), SimDuration::from_hours(3));
        n += 1;
    }
    println!("FIG 7 — best-path deltas at 30-minute vs 3-hour cadence ({n} timelines)");
    print_ecdf("Δ10th pct, all samples", &comp.p10_all, 9);
    print_ecdf("Δ10th pct, 3-hour subsample", &comp.p10_sub, 9);
    let p10_gap = comp.p10_ecdf_gap();
    let p90_gap = comp.p90_ecdf_gap();
    println!(
        "  max ECDF gap: Δ10th = {:?}, Δ90th = {:?}  (paper: 'very small difference')",
        p10_gap.map(|g| (g * 1000.0).round() / 1000.0),
        p90_gap.map(|g| (g * 1000.0).round() / 1000.0),
    );
    Fig7Result { p10_gap, p90_gap, timelines: n }
}
