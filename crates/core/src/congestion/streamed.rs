//! Streamed consistent-congestion classification (§5.1–§5.2, Fig. 9).
//!
//! The same two stacked filters as [`detect`](crate::congestion::detect()),
//! computed from a [`PairProfile`] — the constant-memory per-(pair,
//! protocol) state a [`PairProfileSink`](s2s_probe::PairProfileSink)
//! campaign folds — instead of a materialized
//! [`PingTimeline`](s2s_probe::PingTimeline):
//!
//! 1. *variation*: the 95th−5th spread comes from the profile's quantile
//!    sketch (exact below its exact-mode cap, within the rank error
//!    bound of [`QuantileSketch::quantile`] above it),
//! 2. *diurnal signal*: the PSD ratio comes from the profile's streamed
//!    filled-series spectrum, which matches the FFT path to ~1e-6.
//!
//! [`QuantileSketch::quantile`]: s2s_stats::QuantileSketch::quantile
//!
//! Verdicts therefore agree with the materialized path except for pairs
//! whose spread sits within the sketch's rank-error of the 10 ms
//! threshold — the bench's `streamed_exact_agreement` field tracks that
//! fraction (≥ 99% required).

use super::detect::{DetectParams, PairCongestion};
use s2s_probe::PairProfile;
use s2s_types::{AnalysisError, Coverage};

/// Runs §5.1 detection on one streamed profile. `None` when the profile
/// has too few valid samples (same gate as
/// [`detect`](crate::congestion::detect())).
pub fn detect_profile(
    profile: &PairProfile,
    params: &DetectParams,
) -> Option<PairCongestion> {
    if profile.valid_samples() < params.min_valid_samples {
        return None;
    }
    let spread = profile.spread_95_5()?;
    let high_variation = spread > params.variation_threshold_ms;
    let psd_ratio = profile.psd_ratio();
    let consistent =
        high_variation && psd_ratio.map(|r| r >= params.psd_threshold).unwrap_or(false);
    Some(PairCongestion { spread_ms: spread, psd_ratio, high_variation, consistent })
}

/// Coverage-checked [`detect_profile`]: the streamed mirror of
/// [`detect_checked`](crate::congestion::detect_checked) — annotates the
/// verdict with the profile's delivered-over-offered coverage and refuses
/// with a typed error below `min_coverage`.
pub fn detect_profile_checked(
    profile: &PairProfile,
    params: &DetectParams,
    min_coverage: f64,
) -> Result<(PairCongestion, Coverage), AnalysisError> {
    let coverage = profile.coverage();
    coverage.require(min_coverage)?;
    let relaxed = DetectParams { min_valid_samples: 0, ..*params };
    match detect_profile(profile, &relaxed) {
        Some(verdict) => Ok((verdict, coverage)),
        None => Err(AnalysisError::NoUsableData),
    }
}

/// The Fig. 9 congestion overhead of one streamed profile, ms: the
/// 95th−5th percentile spread of its RTTs, like
/// [`overhead_ms`](crate::congestion::overhead_ms) over a materialized
/// end-to-end series.
pub fn overhead_profile(profile: &PairProfile) -> Option<f64> {
    profile.spread_95_5()
}

/// The Fig. 9 overhead sample set over a streamed mesh: one spread per
/// *consistently congested* profile (the density inputs — feed them to a
/// KDE for the figure itself).
pub fn overhead_profiles(profiles: &[PairProfile], params: &DetectParams) -> Vec<f64> {
    profiles
        .iter()
        .filter(|p| detect_profile(p, params).map(|r| r.consistent).unwrap_or(false))
        .filter_map(overhead_profile)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::detect::{detect, detect_checked};
    use s2s_probe::{CampaignConfig, PairProfileSink, PingTimeline, StreamSink};
    use s2s_types::{ClusterId, Protocol, SimDuration, SimTime};
    use std::f64::consts::PI;

    fn week_cfg() -> CampaignConfig {
        CampaignConfig::ping_week(SimTime::T0)
    }

    /// Folds a dense f32 series (NaN = lost) through the profile sink,
    /// mirroring what the campaign's sink executor does.
    fn profile_of(rtts: &[f32], sink: &PairProfileSink, cfg: &CampaignConfig) -> PairProfile {
        let mut st = sink.init(ClusterId::new(0), ClusterId::new(1), Protocol::V4);
        for (ti, &r) in rtts.iter().enumerate() {
            let t = cfg.start + SimDuration::from_minutes(ti as u32 * cfg.interval.minutes());
            let rtt = if r.is_nan() { None } else { Some(f64::from(r)) };
            sink.fold(&mut st, ti as u64, t, rtt);
        }
        sink.finish(&mut st);
        st
    }

    fn timeline(rtts: Vec<f32>) -> PingTimeline {
        PingTimeline {
            src: ClusterId::new(0),
            dst: ClusterId::new(1),
            proto: Protocol::V4,
            start: SimTime::T0,
            interval: SimDuration::from_minutes(15),
            rtts,
        }
    }

    fn diurnal_series(amp: f64, noise: f64) -> Vec<f32> {
        (0..672)
            .map(|i| {
                let phase = 2.0 * PI * i as f64 / 96.0;
                let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
                let u = (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                (60.0 + amp * phase.sin().max(0.0) + noise * u) as f32
            })
            .collect()
    }

    #[test]
    fn streamed_verdicts_match_materialized() {
        let cfg = week_cfg();
        let sink = PairProfileSink::with_shape(&cfg, 256, 128);
        let params = DetectParams::default();
        for (amp, noise) in [(30.0, 2.0), (0.0, 3.0), (12.0, 1.0), (50.0, 10.0)] {
            let rtts = diurnal_series(amp, noise);
            let exact = detect(&timeline(rtts.clone()), &params).unwrap();
            let streamed =
                detect_profile(&profile_of(&rtts, &sink, &cfg), &params).unwrap();
            assert_eq!(
                (streamed.high_variation, streamed.consistent),
                (exact.high_variation, exact.consistent),
                "amp {amp} noise {noise}: streamed {streamed:?} vs exact {exact:?}"
            );
            assert!(
                (streamed.spread_ms - exact.spread_ms).abs() < 1.0,
                "spread {} vs {}",
                streamed.spread_ms,
                exact.spread_ms
            );
            let (s_psd, e_psd) = (streamed.psd_ratio.unwrap(), exact.psd_ratio.unwrap());
            assert!((s_psd - e_psd).abs() < 1e-6, "psd {s_psd} vs {e_psd}");
        }
    }

    #[test]
    fn sparse_profile_excluded_like_sparse_timeline() {
        let cfg = week_cfg();
        let sink = PairProfileSink::with_shape(&cfg, 256, 128);
        let mut rtts = diurnal_series(30.0, 2.0);
        for (i, r) in rtts.iter_mut().enumerate() {
            if i % 5 != 0 {
                *r = f32::NAN;
            }
        }
        let profile = profile_of(&rtts, &sink, &cfg);
        assert_eq!(detect_profile(&profile, &DetectParams::default()), None);
        assert_eq!(detect(&timeline(rtts), &DetectParams::default()), None);
    }

    #[test]
    fn checked_profile_mirrors_checked_timeline() {
        let cfg = week_cfg();
        let sink = PairProfileSink::with_shape(&cfg, 256, 128);
        let params = DetectParams::default();

        // 632 of 672 valid: both paths pass the 89% floor, same coverage.
        let mut rtts = diurnal_series(30.0, 2.0);
        for r in rtts.iter_mut().take(40) {
            *r = f32::NAN;
        }
        let profile = profile_of(&rtts, &sink, &cfg);
        let (sv, sc) = detect_profile_checked(&profile, &params, 0.89).unwrap();
        let (ev, ec) = detect_checked(&timeline(rtts), &params, 0.89).unwrap();
        assert_eq!((sv.high_variation, sv.consistent), (ev.high_variation, ev.consistent));
        assert_eq!((sc.usable, sc.offered), (ec.usable, ec.offered));

        // ~20% coverage: typed refusal.
        let mut sparse = diurnal_series(30.0, 2.0);
        for (i, r) in sparse.iter_mut().enumerate() {
            if i % 5 != 0 {
                *r = f32::NAN;
            }
        }
        let err = detect_profile_checked(&profile_of(&sparse, &sink, &cfg), &params, 0.89)
            .unwrap_err();
        assert!(matches!(err, AnalysisError::InsufficientCoverage { .. }), "{err}");
    }

    #[test]
    fn checked_profile_refuses_degenerate_series() {
        let cfg = week_cfg();
        let sink = PairProfileSink::with_shape(&cfg, 256, 128);
        // All-lost schedule: zero coverage refuses at the floor; an empty
        // schedule (no offered slots at all) refuses as unusable.
        let all_lost = profile_of(&vec![f32::NAN; 672], &sink, &cfg);
        assert!(detect_profile_checked(&all_lost, &DetectParams::default(), 0.5).is_err());
        let empty = profile_of(&[], &sink, &cfg);
        let err =
            detect_profile_checked(&empty, &DetectParams::default(), 0.9).unwrap_err();
        assert_eq!(err, AnalysisError::NoUsableData);
    }

    #[test]
    fn overheads_come_from_consistent_profiles_only() {
        let cfg = week_cfg();
        let sink = PairProfileSink::with_shape(&cfg, 256, 128);
        let params = DetectParams::default();
        let congested = profile_of(&diurnal_series(30.0, 2.0), &sink, &cfg);
        let flat = profile_of(&diurnal_series(0.0, 3.0), &sink, &cfg);
        let profiles = vec![congested.clone(), flat];
        let overheads = overhead_profiles(&profiles, &params);
        assert_eq!(overheads.len(), 1);
        assert_eq!(overheads[0], overhead_profile(&congested).unwrap());
        // The streamed overhead tracks the materialized Fig. 9 input.
        let exact = crate::congestion::overhead_ms(
            &timeline(diurnal_series(30.0, 2.0)).valid_rtts(),
        )
        .unwrap();
        assert!((overheads[0] - exact).abs() < 1.0, "{} vs {exact}", overheads[0]);
    }
}
