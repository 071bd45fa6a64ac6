//! Deterministic fault injection for the measurement plane.
//!
//! A 16-month campaign across hundreds of vantage points does not run
//! cleanly: agents crash and stay down for hours, probes are dropped or
//! wedge past their deadline, results are truncated in flight, and archive
//! lines rot. This module injects those faults *deterministically*: every
//! decision is a pure function of the profile seed and the identity of the
//! thing being decided (agent, pair, instant, attempt), never of thread
//! count, wall clock, or execution order. That is what lets a fault-ridden
//! campaign be checkpointed, killed, resumed, and still produce the
//! bit-identical dataset an uninterrupted run would have produced.
//!
//! The all-zero [`FaultProfile::default`] injects nothing, so fault-aware
//! runners degrade to exactly the behavior of the plain ones.

use s2s_types::{ClusterId, Protocol, SimTime};

/// An agent outage can hide at most this many epochs (bounds the lookback
/// scan in [`FaultInjector::agent_down`]).
const MAX_DOWNTIME_EPOCHS: u64 = 60;

/// Fault rates for one campaign. All rates are probabilities in [0, 1];
/// the default is all-zero (a perfectly healthy plane).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultProfile {
    /// Seed for every fault decision.
    pub seed: u64,
    /// Per-(agent, epoch) probability that a crash *starts*.
    pub crash_rate: f64,
    /// Mean crash downtime in epochs (exponential, ≥ 1, capped at
    /// `MAX_DOWNTIME_EPOCHS`).
    pub crash_mean_epochs: f64,
    /// Per-probe probability the result is dropped outright.
    pub drop_rate: f64,
    /// Per-probe probability the probe wedges past its deadline (counted
    /// separately from drops: stuck probes hold an agent slot).
    pub stuck_rate: f64,
    /// Per-traceroute probability the result is truncated in flight
    /// (loses its tail hops and the destination echo).
    pub truncate_rate: f64,
    /// Per-archive-line probability of corruption on export.
    pub corrupt_rate: f64,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            seed: 0x5EED,
            crash_rate: 0.0,
            crash_mean_epochs: 4.0,
            drop_rate: 0.0,
            stuck_rate: 0.0,
            truncate_rate: 0.0,
            corrupt_rate: 0.0,
        }
    }
}

impl FaultProfile {
    /// True when no fault can ever fire.
    pub fn is_quiet(&self) -> bool {
        self.crash_rate == 0.0
            && self.drop_rate == 0.0
            && self.stuck_rate == 0.0
            && self.truncate_rate == 0.0
            && self.corrupt_rate == 0.0
    }

    /// Reads the profile from the `S2S_FAULT_*` environment knobs via the
    /// shared warn-and-default parsers in [`s2s_types::env`]: unset knobs
    /// silently take the default, malformed or out-of-range values print
    /// one warning to stderr and take the default. The full knob table
    /// lives in [`crate::env`]. `corrupt_rate` has no knob (only archive
    /// exports apply it) and stays at its default.
    pub fn from_env() -> FaultProfile {
        use s2s_types::env as tenv;
        let d = FaultProfile::default();
        let crash_mean_epochs = {
            let raw = tenv::var_raw("S2S_FAULT_CRASH_LEN");
            let (v, warning) = tenv::parse_checked(
                "S2S_FAULT_CRASH_LEN",
                raw.as_deref(),
                d.crash_mean_epochs,
                |&v: &f64| v >= 1.0,
                "a number >= 1",
            );
            if let Some(w) = warning {
                eprintln!("{w}");
            }
            v
        };
        FaultProfile {
            seed: tenv::var_u64("S2S_FAULT_SEED", d.seed),
            crash_rate: tenv::var_rate("S2S_FAULT_CRASH", d.crash_rate),
            crash_mean_epochs,
            drop_rate: tenv::var_rate("S2S_FAULT_DROP", d.drop_rate),
            stuck_rate: tenv::var_rate("S2S_FAULT_STUCK", d.stuck_rate),
            truncate_rate: tenv::var_rate("S2S_FAULT_TRUNC", d.truncate_rate),
            corrupt_rate: d.corrupt_rate,
        }
    }
}

/// What the fault plane did to one probe attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeFault {
    /// The probe ran normally.
    None,
    /// The result never came back.
    Dropped,
    /// The probe wedged past its deadline.
    Stuck,
    /// A traceroute result lost its tail in flight.
    Truncated,
}

/// Content-keyed fault decisions for one campaign.
#[derive(Clone, Copy, Debug)]
pub struct FaultInjector {
    profile: FaultProfile,
}

// Distinct salts so decisions of different kinds never share a key stream.
const SALT_CRASH_START: u64 = 0xC0A5;
const SALT_CRASH_LEN: u64 = 0xC1EA;
const SALT_PROBE: u64 = 0x9B0B;
const SALT_TRUNC_LEN: u64 = 0x7123;
const SALT_CORRUPT: u64 = 0xC039;

pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

pub(crate) fn key(seed: u64, words: &[u64]) -> u64 {
    let mut h = mix(seed);
    for &w in words {
        h = mix(h ^ w);
    }
    h
}

pub(crate) fn uniform(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultInjector {
    /// Builds the injector for one profile.
    pub fn new(profile: FaultProfile) -> FaultInjector {
        FaultInjector { profile }
    }

    /// The profile driving this injector.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Whether `agent` is crashed during epoch `epoch` (the campaign's
    /// sample index). A crash starting at epoch `e` takes the agent down
    /// for an exponentially distributed number of epochs decided at `e`.
    pub fn agent_down(&self, agent: ClusterId, epoch: u64) -> bool {
        if self.profile.crash_rate <= 0.0 {
            return false;
        }
        let lookback = epoch.min(MAX_DOWNTIME_EPOCHS.saturating_sub(1));
        for back in 0..=lookback {
            let start = epoch - back;
            let h = key(self.profile.seed, &[SALT_CRASH_START, agent.0 as u64, start]);
            if uniform(h) < self.profile.crash_rate && back < self.downtime_epochs(agent, start) {
                return true;
            }
        }
        false
    }

    /// Downtime length, in epochs, of a crash starting at `start`.
    fn downtime_epochs(&self, agent: ClusterId, start: u64) -> u64 {
        let h = key(self.profile.seed, &[SALT_CRASH_LEN, agent.0 as u64, start]);
        // Exponential via inverse CDF; 1 - u avoids ln(0).
        let draw = -self.profile.crash_mean_epochs * (1.0 - uniform(h)).ln();
        ((1.0 + draw) as u64).clamp(1, MAX_DOWNTIME_EPOCHS)
    }

    /// The fate of one probe attempt. Keyed by everything identifying the
    /// attempt — including `attempt` itself, so a retry of a dropped probe
    /// can succeed.
    pub fn probe_fault(
        &self,
        src: ClusterId,
        dst: ClusterId,
        proto: Protocol,
        t: SimTime,
        attempt: u32,
    ) -> ProbeFault {
        let p = &self.profile;
        if p.drop_rate == 0.0 && p.stuck_rate == 0.0 && p.truncate_rate == 0.0 {
            return ProbeFault::None;
        }
        let h = key(
            p.seed,
            &[
                SALT_PROBE,
                src.0 as u64,
                dst.0 as u64,
                proto as u64,
                u64::from(t.minutes()),
                u64::from(attempt),
            ],
        );
        // One draw partitioned across the three fates keeps them disjoint.
        let u = uniform(h);
        if u < p.stuck_rate {
            ProbeFault::Stuck
        } else if u < p.stuck_rate + p.drop_rate {
            ProbeFault::Dropped
        } else if u < p.stuck_rate + p.drop_rate + p.truncate_rate {
            ProbeFault::Truncated
        } else {
            ProbeFault::None
        }
    }

    /// How many leading hops a truncated traceroute keeps (strictly fewer
    /// than `n_hops` whenever there is anything to lose).
    pub fn truncated_hop_count(
        &self,
        src: ClusterId,
        dst: ClusterId,
        t: SimTime,
        n_hops: usize,
    ) -> usize {
        if n_hops == 0 {
            return 0;
        }
        let h = key(
            self.profile.seed,
            &[SALT_TRUNC_LEN, src.0 as u64, dst.0 as u64, u64::from(t.minutes())],
        );
        (h % n_hops as u64) as usize
    }

    /// Corrupts an archive line with probability `corrupt_rate`, keyed by
    /// the line's own content. Returns `None` when the line survives
    /// intact. Corruption keeps the line valid UTF-8 (the archive is
    /// ASCII) but mangles its content: a character replaced, the tail
    /// sheared off, or a character injected.
    pub fn corrupt_line(&self, line: &str) -> Option<String> {
        if self.profile.corrupt_rate <= 0.0 || line.is_empty() {
            return None;
        }
        let content = line.bytes().fold(0u64, |h, b| mix(h ^ u64::from(b)));
        let h = key(self.profile.seed, &[SALT_CORRUPT, content]);
        if uniform(h) >= self.profile.corrupt_rate {
            return None;
        }
        let chars: Vec<char> = line.chars().collect();
        let pos = (mix(h) % chars.len() as u64) as usize;
        let garbage = (b'!' + (mix(h ^ 0xF00D) % 90) as u8) as char;
        let mut out: Vec<char> = chars.clone();
        match mix(h ^ 0xBEEF) % 3 {
            0 => out[pos] = garbage,
            // Never truncate to nothing: the lossy reader treats blank
            // lines as legal formatting, so an emptied line would vanish
            // from the import accounting instead of counting as a skip.
            1 => out.truncate(pos.max(1)),
            _ => out.insert(pos, garbage),
        }
        let corrupted: String = out.into_iter().collect();
        // Replacing a char with itself would be a silent no-op; nudge it.
        if corrupted == line {
            return Some(format!("{line}{garbage}"));
        }
        Some(corrupted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injector(p: FaultProfile) -> FaultInjector {
        FaultInjector::new(p)
    }

    #[test]
    fn default_profile_is_quiet() {
        let f = injector(FaultProfile::default());
        assert!(f.profile().is_quiet());
        for epoch in 0..100 {
            assert!(!f.agent_down(ClusterId::new(3), epoch));
            assert_eq!(
                f.probe_fault(
                    ClusterId::new(0),
                    ClusterId::new(1),
                    Protocol::V4,
                    SimTime::from_minutes(epoch as u32 * 180),
                    0
                ),
                ProbeFault::None
            );
        }
        assert_eq!(f.corrupt_line("T|0|1|v4|0|1|5.0|-|-|"), None);
    }

    #[test]
    fn decisions_are_deterministic_and_content_keyed() {
        let p = FaultProfile { drop_rate: 0.5, ..FaultProfile::default() };
        let a = injector(p);
        let b = injector(p);
        for i in 0..200u32 {
            let t = SimTime::from_minutes(i * 15);
            assert_eq!(
                a.probe_fault(ClusterId::new(1), ClusterId::new(2), Protocol::V6, t, 0),
                b.probe_fault(ClusterId::new(1), ClusterId::new(2), Protocol::V6, t, 0),
            );
        }
    }

    #[test]
    fn retry_attempts_get_independent_fates() {
        let p = FaultProfile { drop_rate: 0.5, ..FaultProfile::default() };
        let f = injector(p);
        let t = SimTime::from_minutes(0);
        // Over many slots, a first-attempt drop must sometimes succeed on
        // retry — the attempt index is part of the key.
        let mut recovered = 0;
        let mut first_drops = 0;
        for i in 0..500 {
            let (s, d) = (ClusterId::new(i), ClusterId::new(i + 1));
            if f.probe_fault(s, d, Protocol::V4, t, 0) == ProbeFault::Dropped {
                first_drops += 1;
                if f.probe_fault(s, d, Protocol::V4, t, 1) == ProbeFault::None {
                    recovered += 1;
                }
            }
        }
        assert!(first_drops > 150, "drop rate off: {first_drops}/500");
        assert!(recovered > first_drops / 4, "{recovered} of {first_drops} recovered");
    }

    #[test]
    fn fault_rates_are_calibrated() {
        let p = FaultProfile {
            drop_rate: 0.2,
            stuck_rate: 0.05,
            truncate_rate: 0.1,
            ..FaultProfile::default()
        };
        let f = injector(p);
        let (mut drop, mut stuck, mut trunc) = (0usize, 0usize, 0usize);
        let n = 20_000;
        for i in 0..n {
            match f.probe_fault(
                ClusterId::new(i % 97),
                ClusterId::new(i % 89 + 100),
                Protocol::V4,
                SimTime::from_minutes((i / 97) * 15),
                i % 3,
            ) {
                ProbeFault::Dropped => drop += 1,
                ProbeFault::Stuck => stuck += 1,
                ProbeFault::Truncated => trunc += 1,
                ProbeFault::None => {}
            }
        }
        let frac = |c: usize| c as f64 / n as f64;
        assert!((frac(drop) - 0.2).abs() < 0.02, "drop {}", frac(drop));
        assert!((frac(stuck) - 0.05).abs() < 0.01, "stuck {}", frac(stuck));
        assert!((frac(trunc) - 0.1).abs() < 0.015, "trunc {}", frac(trunc));
    }

    #[test]
    fn crashes_have_contiguous_downtime() {
        let p = FaultProfile {
            crash_rate: 0.02,
            crash_mean_epochs: 5.0,
            ..FaultProfile::default()
        };
        let f = injector(p);
        // Downtime arrives in runs: count transitions vs. down epochs over
        // a long horizon; exponential outages mean far fewer starts than
        // down-epochs.
        let mut down_epochs = 0;
        let mut starts = 0;
        let mut was_down = false;
        for e in 0..5_000u64 {
            let down = f.agent_down(ClusterId::new(7), e);
            if down {
                down_epochs += 1;
                if !was_down {
                    starts += 1;
                }
            }
            was_down = down;
        }
        assert!(down_epochs > 200, "outages too rare: {down_epochs}");
        assert!(
            down_epochs as f64 / starts as f64 > 2.0,
            "outages not contiguous: {down_epochs} down epochs in {starts} runs"
        );
    }

    #[test]
    fn crash_rate_zero_is_always_up() {
        let f = injector(FaultProfile { crash_rate: 0.0, ..FaultProfile::default() });
        assert!((0..1000).all(|e| !f.agent_down(ClusterId::new(0), e)));
    }

    #[test]
    fn corrupt_line_fires_at_rate_one_and_changes_content() {
        let p = FaultProfile { corrupt_rate: 1.0, ..FaultProfile::default() };
        let f = injector(p);
        for line in ["T|0|1|v4|180|1|42.125|10.0.0.1|10.1.0.1|1,0.5", "P|2|3|v6|0|15|1.5;*;2.0"] {
            let c = f.corrupt_line(line).expect("rate 1.0 must corrupt");
            assert_ne!(c, line);
            assert_eq!(f.corrupt_line(line).unwrap(), c, "corruption must be deterministic");
        }
    }

    #[test]
    fn truncation_always_shortens() {
        let f = injector(FaultProfile::default());
        for hops in 1..20 {
            let keep = f.truncated_hop_count(
                ClusterId::new(1),
                ClusterId::new(2),
                SimTime::from_minutes(180),
                hops,
            );
            assert!(keep < hops);
        }
        assert_eq!(
            f.truncated_hop_count(ClusterId::new(1), ClusterId::new(2), SimTime::T0, 0),
            0
        );
    }

    #[test]
    fn from_env_parsing_warns_and_defaults() {
        // Avoid mutating the process environment (tests run in parallel);
        // exercise the shared parsing cores directly instead.
        use s2s_types::env::{parse_checked, parse_rate};
        assert_eq!(parse_rate("S2S_FAULT_DROP", None, 0.25), (0.25, None));
        let (v, w) = parse_rate("S2S_FAULT_DROP", Some("2.0"), 0.0);
        assert_eq!(v, 0.0);
        assert!(w.unwrap().contains("S2S_FAULT_DROP"));
        // The crash-length floor rejects sub-1 means with a warning
        // instead of silently clamping.
        let (v, w) = parse_checked(
            "S2S_FAULT_CRASH_LEN",
            Some("0.2"),
            4.0,
            |&v: &f64| v >= 1.0,
            "a number >= 1",
        );
        assert_eq!(v, 4.0);
        assert!(w.is_some());
    }
}
