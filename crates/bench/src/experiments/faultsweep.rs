//! Fault sweep: are the paper's figures stable under a degraded
//! measurement plane?
//!
//! The paper's platform lost data too — Table 1 is an accounting of
//! exactly that — so a reproduction should demonstrate its headline
//! numbers don't hinge on a perfect plane. This experiment reruns a
//! long-term campaign under increasing probe-loss rates and reports, per
//! rate: what the plane delivered (with and without retries), the sample
//! coverage of the resulting timelines, and the Fig. 2a / Fig. 3b
//! headline statistics computed through the coverage-checked analyses.

use crate::scenario::Scenario;
use s2s_core::changes::detect_changes_checked;
use s2s_probe::{Campaign, CampaignConfig, FaultProfile, RetryPolicy, TraceOptions};
use s2s_stats::Ecdf;
use s2s_types::Coverage;

use super::longterm::MIN_TIMELINE_COVERAGE;

/// One row of the sweep.
#[derive(Clone, Copy, Debug)]
pub struct FaultSweepRow {
    /// The injected per-attempt probe-loss (drop) rate.
    pub drop_rate: f64,
    /// Slot coverage with the default bounded-retry policy.
    pub coverage_retry: Coverage,
    /// Slot coverage with retries disabled (one attempt per slot).
    pub coverage_no_retry: Coverage,
    /// Fraction of analyzable timelines with a single AS path (Fig. 2a).
    pub single_path_fraction: f64,
    /// Routing changes at the 90th percentile of timelines (Fig. 3b).
    pub p90_changes: f64,
    /// Timelines refused by the coverage floor.
    pub refused_timelines: usize,
}

/// Runs the sweep and prints the stability table.
pub fn fault_sweep(scenario: &Scenario) -> Vec<FaultSweepRow> {
    // A bounded slice of the long-term campaign: enough samples per
    // timeline (~8/day) for change statistics, small enough to rerun at
    // four loss rates.
    let pairs = scenario.sample_pair_list((scenario.scale.pairs / 2).clamp(8, 40), 0xFA17);
    let days = scenario.scale.days.clamp(10, 45);

    println!(
        "FAULT SWEEP — figure stability under probe loss ({} directed pairs, {days} days)",
        pairs.len()
    );
    println!(
        "  {:>9}  {:>16}  {:>16}  {:>12}  {:>11}  {:>7}",
        "drop rate", "delivered(retry)", "delivered(1-try)", "single-path", "p90 changes",
        "refused"
    );

    let mut rows = Vec::new();
    for &drop_rate in &[0.0, 0.05, 0.10, 0.20] {
        let profile = FaultProfile { drop_rate, ..FaultProfile::default() };
        let campaign = Campaign::new(CampaignConfig::long_term(days)).faults(profile);
        let (timelines, report) =
            scenario.collect_timelines(&campaign, &pairs, |_, _| TraceOptions::default());
        // The single-try pass only reports what the plane delivered.
        let (_, report_no_retry) = campaign
            .retry(RetryPolicy { max_attempts: 1, ..RetryPolicy::default() })
            .run_traceroute(&scenario.net, &pairs, TraceOptions::default(), |_, _, _| (), |_, _| {})
            .expect("in-memory campaign cannot fail");

        let mut refused = 0usize;
        let mut single = 0usize;
        let mut analyzed = 0usize;
        let mut changes = Vec::new();
        for tl in &timelines {
            match detect_changes_checked(tl, MIN_TIMELINE_COVERAGE) {
                Ok((stats, _)) => {
                    analyzed += 1;
                    single += (tl.unique_paths() <= 1) as usize;
                    changes.push(stats.changes as f64);
                }
                Err(_) => refused += 1,
            }
        }
        let row = FaultSweepRow {
            drop_rate,
            coverage_retry: report.coverage(),
            coverage_no_retry: report_no_retry.coverage(),
            single_path_fraction: single as f64 / analyzed.max(1) as f64,
            p90_changes: Ecdf::new(changes).quantile(0.9).unwrap_or(0.0),
            refused_timelines: refused,
        };
        println!(
            "  {:>8.0}%  {:>15.2}%  {:>15.2}%  {:>11.1}%  {:>11.1}  {:>7}",
            100.0 * row.drop_rate,
            100.0 * row.coverage_retry.fraction(),
            100.0 * row.coverage_no_retry.fraction(),
            100.0 * row.single_path_fraction,
            row.p90_changes,
            row.refused_timelines
        );
        rows.push(row);
    }
    println!(
        "  (bounded retry recovers nearly all losses: delivered(retry) ≈ 100% while \
         delivered(1-try) tracks 1 − drop rate; figure headlines stay stable)"
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    #[test]
    fn sweep_shows_retry_recovery_and_stable_figures() {
        let scenario = Scenario::build(Scale {
            seed: 11,
            clusters: 12,
            days: 10,
            pairs: 16,
            ping_pairs: 20,
            cong_pairs: 6,
        });
        let rows = fault_sweep(&scenario);
        assert_eq!(rows.len(), 4);
        // Zero-rate row is lossless either way.
        assert!((rows[0].coverage_retry.fraction() - 1.0).abs() < 1e-12);
        assert!((rows[0].coverage_no_retry.fraction() - 1.0).abs() < 1e-12);
        for w in rows.windows(2) {
            assert!(
                w[1].coverage_no_retry.fraction() <= w[0].coverage_no_retry.fraction(),
                "single-try coverage must fall as loss rises"
            );
        }
        // At 5% loss the bounded retry keeps coverage near-perfect and the
        // Fig. 2a headline within a few points of the lossless run.
        let r5 = &rows[1];
        assert!(r5.coverage_retry.fraction() > 0.999, "{}", r5.coverage_retry);
        assert!(r5.coverage_no_retry.fraction() < 0.97);
        assert!(
            (r5.single_path_fraction - rows[0].single_path_fraction).abs() < 0.1,
            "5% loss must not move the single-path fraction: {} vs {}",
            r5.single_path_fraction,
            rows[0].single_path_fraction
        );
        assert_eq!(r5.refused_timelines, 0, "5% loss stays far above the floor");
    }
}
