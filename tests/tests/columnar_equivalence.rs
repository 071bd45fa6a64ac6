//! The columnar analysis plane must be invisible in the output: timelines
//! produced by interning the campaign into a `TraceStore` and running the
//! sharded columnar driver must be byte-identical — `Debug`-rendering and
//! all — to the record-at-a-time `TimelineBuilder` reference, across
//! seeds, every production schedule, fault profiles, and thread counts.

use s2s_bench::experiments::LongTermData;
use s2s_bench::{Scale, Scenario};
use s2s_core::{Analysis, TraceTimeline};
use s2s_probe::{
    Campaign, CampaignConfig, CampaignReport, FaultProfile, RetryPolicy, TraceOptions, TraceStore,
};
use s2s_types::{ClusterId, SimTime};

fn micro(seed: u64) -> Scenario {
    Scenario::build(Scale {
        seed,
        clusters: 12,
        days: 12,
        pairs: 16,
        ping_pairs: 30,
        cong_pairs: 8,
    })
}

fn profiles() -> Vec<(&'static str, FaultProfile)> {
    vec![
        ("quiet", FaultProfile::default()),
        (
            "noisy",
            FaultProfile {
                crash_rate: 0.02,
                drop_rate: 0.05,
                stuck_rate: 0.02,
                truncate_rate: 0.05,
                ..FaultProfile::default()
            },
        ),
    ]
}

/// The acceptance invariant: columnar == legacy, byte for byte, for every
/// seed × schedule × fault profile × thread count combination. The
/// schedules are every production collector's: the long-term campaign with
/// its tooling-history option picker (Table 1, Figs. 2–6 and 10), Fig. 7's
/// 30-minute cadence with default options, and the fault sweep's 3-hourly
/// slice at its drop rates with and without retries.
#[test]
fn columnar_equals_legacy_across_seeds_profiles_and_threads() {
    for seed in [3u64, 11, 29] {
        let scenario = micro(seed);
        let pairs = scenario.sample_pair_list(scenario.scale.pairs / 2, 0x10e6);
        assert_eq!(
            pairs,
            scenario.sample_pair_list(scenario.scale.pairs / 2, 0x10e6),
            "pair sampling must be deterministic"
        );
        for (name, profile) in profiles() {
            let legacy =
                scenario.long_term_timelines_faulty(&pairs, &profile, &RetryPolicy::default());
            let columnar =
                scenario.long_term_store_faulty(&pairs, &profile, &RetryPolicy::default());
            let label = format!("seed {seed} long-term {name}");
            assert_equivalent(&scenario, &label, legacy, columnar);

            let fig7 = Campaign::new(CampaignConfig::focused_traceroute(SimTime::from_days(4), 2))
                .faults(profile);
            assert_collectors_agree(&scenario, &format!("seed {seed} fig7 {name}"), &fig7, &pairs);
        }
        for drop_rate in [0.05, 0.20] {
            let profile = FaultProfile { drop_rate, ..FaultProfile::default() };
            let one_try = RetryPolicy { max_attempts: 1, ..RetryPolicy::default() };
            for retry in [RetryPolicy::default(), one_try] {
                let sweep = Campaign::new(CampaignConfig::long_term(scenario.scale.days))
                    .faults(profile)
                    .retry(retry);
                let tries = retry.max_attempts;
                let label = format!("seed {seed} sweep drop={drop_rate} tries={tries}");
                assert_collectors_agree(&scenario, &label, &sweep, &pairs);
            }
        }
    }
}

/// Runs `campaign` through the record-at-a-time reference and the columnar
/// collector, with default tool options, and asserts they agree.
fn assert_collectors_agree(
    scenario: &Scenario,
    label: &str,
    campaign: &Campaign,
    pairs: &[(ClusterId, ClusterId)],
) {
    let opts = |_, _| TraceOptions::default();
    let legacy = scenario.reference_timelines(campaign, pairs, opts);
    let columnar = scenario.collect_store(campaign, pairs, opts);
    assert_equivalent(scenario, label, legacy, columnar);
}

/// The columnar analysis of `store` equals the `legacy` timelines, `Debug`
/// bytes included, at 1, 2 and 4 analysis threads, and both collectors
/// report the same campaign.
fn assert_equivalent(
    scenario: &Scenario,
    label: &str,
    (legacy, legacy_report): (Vec<TraceTimeline>, CampaignReport),
    (store, report): (TraceStore, CampaignReport),
) {
    assert!(!legacy.is_empty(), "{label}: empty schedule");
    assert_eq!(
        format!("{report:?}"),
        format!("{legacy_report:?}"),
        "{label}: campaign reports diverged"
    );
    for threads in [1usize, 2, 4] {
        let columnar = Analysis::new(&store).threads(threads).timelines(&scenario.ip2asn);
        assert_eq!(columnar, legacy, "{label} threads={threads}: timelines diverged");
        assert_eq!(
            format!("{columnar:?}"),
            format!("{legacy:?}"),
            "{label} threads={threads}: byte divergence"
        );
    }
}

/// `LongTermData::collect_with` (the production path every figure runs on)
/// must agree with the legacy record-at-a-time path and report arena
/// statistics that add up.
#[test]
fn collect_with_matches_legacy_and_reports_arena_stats() {
    let scenario = micro(7);
    let profile = FaultProfile { drop_rate: 0.1, ..FaultProfile::default() };
    let columnar = LongTermData::collect_with(&scenario, &profile);
    let (legacy, _) = scenario.long_term_timelines_faulty(
        &columnar.pairs,
        &profile,
        &RetryPolicy::default(),
    );
    assert_eq!(columnar.timelines, legacy);
    let arena = columnar.arena.expect("columnar collection records arena stats");
    assert_eq!(arena.traces, columnar.timelines.iter().map(|t| t.samples.len()).sum());
    assert!(arena.distinct_seqs <= arena.traces);
    assert!(
        arena.dedup_ratio >= 1.0,
        "hop slots cannot outnumber their interned storage"
    );
    assert!(arena.arena_bytes > 0);
}

/// The store a faulty campaign accumulates must round-trip: materializing
/// its records and re-interning them yields an identical store (the
/// analysis plane loses nothing the campaign delivered).
#[test]
fn campaign_store_round_trips_through_records() {
    let scenario = micro(13);
    let pairs = scenario.sample_pair_list(6, 0x10e6);
    let profile = FaultProfile { truncate_rate: 0.1, ..FaultProfile::default() };
    let (store, _) =
        scenario.long_term_store_faulty(&pairs, &profile, &RetryPolicy::default());
    let records = store.to_records();
    assert_eq!(records.len(), store.len());
    let rebuilt = TraceStore::from_records(&records);
    assert_eq!(rebuilt.to_records(), records);
    assert_eq!(rebuilt.stats(), store.stats());
}
