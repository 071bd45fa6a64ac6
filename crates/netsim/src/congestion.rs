//! The diurnal congestion model.
//!
//! The paper defines *consistent congestion* as an RTT oscillation with a
//! daily cycle, a few hours per instance (§5.1). It locates such congestion
//! both inside networks and on interconnects — more often on private
//! peering links when weighted by crossing paths — with a typical overhead
//! of 20–30 ms, ~60 ms on transcontinental links, and up to ~90 ms on some
//! Asia paths (Fig. 9, §5.4).
//!
//! We reproduce the mechanism: a seeded subset of links carries a busy-hour
//! queueing bump, centered in the link's local evening (solar time at the
//! link midpoint), active during a long episode window, with amplitude
//! scaled by the link's geographic class — mirroring the paper's
//! explanation that buffer sizing follows the rule-of-thumb RTT (§5.4).

use crate::noise;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use s2s_topology::{LinkKind, Topology};
use s2s_types::{LinkId, SimTime};
use serde::{Deserialize, Serialize};

/// Parameters of the congestion process.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CongestionParams {
    /// Seed (independent of topology/dynamics seeds).
    pub seed: u64,
    /// Fraction of internal links that experience congestion episodes.
    pub internal_fraction: f64,
    /// Fraction of private-peering links with congestion. The paper finds
    /// the large majority of congested interconnects are private.
    pub private_peering_fraction: f64,
    /// Fraction of transit links with congestion.
    pub transit_fraction: f64,
    /// Fraction of IXP public-fabric links with congestion (small: IXP SLAs
    /// police port utilization, §5.3).
    pub ixp_fraction: f64,
    /// Mean amplitude for same-continent links, ms.
    pub base_amplitude_ms: f64,
    /// Amplitude multiplier for transcontinental links (~60 ms typical).
    pub transcontinental_factor: f64,
    /// Extra multiplier for Asia–Europe / intra-Asia long-haul (~90 ms).
    pub asia_europe_factor: f64,
    /// Median episode length in days (log-normal, sigma 1.0).
    pub median_episode_days: f64,
    /// End of the modeled horizon.
    pub horizon: SimTime,
}

impl Default for CongestionParams {
    fn default() -> Self {
        CongestionParams {
            seed: 0xC09E57ED,
            internal_fraction: 0.05,
            private_peering_fraction: 0.14,
            transit_fraction: 0.04,
            ixp_fraction: 0.02,
            base_amplitude_ms: 25.0,
            transcontinental_factor: 2.4,
            asia_europe_factor: 3.6,
            median_episode_days: 110.0,
            horizon: SimTime::from_days(485),
        }
    }
}

/// The congestion profile of one link.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LinkProfile {
    /// Peak extra one-way delay at the busy hour, ms.
    pub amplitude_ms: f64,
    /// Busy-hour center in local solar hours (0–24).
    pub peak_local_hour: f64,
    /// Gaussian width of the busy period, hours.
    pub width_hours: f64,
    /// Episode start, minutes since T0.
    pub start_min: u32,
    /// Episode end, minutes since T0.
    pub end_min: u32,
    /// Longitude used for local-time conversion.
    pub lon_deg: f64,
    /// Congestion is directional: the queue builds on the interface
    /// *toward* this router. Packets crossing the other way see nothing.
    pub toward: u32,
    /// How strongly the queue affects IPv6 traffic, 0.0–1.0. IPv6 carries
    /// far less traffic, so busy-hour queues hit it much more weakly — the
    /// paper finds strong diurnal patterns on 2% of IPv4 pairs but only
    /// 0.6% of IPv6.
    pub v6_factor: f64,
}

impl LinkProfile {
    /// The extra one-way delay this profile contributes at `t`, in ms.
    pub fn delay_ms(&self, t: SimTime) -> f64 {
        let m = t.minutes();
        if m < self.start_min || m >= self.end_min {
            return 0.0;
        }
        let h = t.local_hour_of_day(self.lon_deg);
        // Wrap-around Gaussian bump centered on the busy hour.
        let mut d = (h - self.peak_local_hour).abs();
        if d > 12.0 {
            d = 24.0 - d;
        }
        let bump = (-0.5 * (d / self.width_hours).powi(2)).exp();
        // Day-to-day variation: the busy hour isn't equally busy every day.
        let day_scale = 0.8
            + 0.4 * noise::uniform(noise::key(&[self.start_min as u64, u64::from(t.day())]));
        self.amplitude_ms * bump * day_scale
    }
}

/// The set of congested links and their profiles.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct CongestionModel {
    /// Indexed by link id, so the per-hop lookup on every probe is one
    /// bounds-checked load; links past the end are uncongested.
    profiles: Vec<Option<LinkProfile>>,
}

impl CongestionModel {
    /// A model with no congestion anywhere.
    pub fn none() -> Self {
        CongestionModel::default()
    }

    /// A model with explicit profiles (tests). A link listed twice keeps
    /// its last profile.
    pub fn from_profiles(profiles: Vec<(LinkId, LinkProfile)>) -> Self {
        let mut model = CongestionModel::default();
        for (l, p) in profiles {
            model.set(l, p);
        }
        model
    }

    fn set(&mut self, link: LinkId, profile: LinkProfile) {
        if self.profiles.len() <= link.index() {
            self.profiles.resize(link.index() + 1, None);
        }
        self.profiles[link.index()] = Some(profile);
    }

    /// Seeds congestion over a topology.
    pub fn generate(topo: &Topology, params: &CongestionParams) -> Self {
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut model = CongestionModel::default();
        // CDN-managed cluster access links never congest (the paper's
        // platform measures the core, and its own racks are provisioned).
        let cluster_routers: std::collections::HashSet<_> =
            topo.clusters.iter().map(|c| c.router).collect();
        for (li, link) in topo.links.iter().enumerate() {
            if cluster_routers.contains(&link.a) || cluster_routers.contains(&link.b) {
                continue;
            }
            let mut frac = match link.kind {
                LinkKind::Internal => params.internal_fraction,
                LinkKind::PrivatePeering => params.private_peering_fraction,
                LinkKind::Transit => params.transit_fraction,
                LinkKind::IxpPeering(_) => params.ixp_fraction,
            };
            // Blast-radius scaling: links of large (many-PoP) networks carry
            // many more server pairs, and in reality those are exactly the
            // links provisioned hardest. Scaling the congestion probability
            // by the inverse of the endpoint networks' footprints keeps the
            // per-pair congestion rate near the paper's ~2% without letting
            // one hot backbone link flag half the mesh.
            let pops_of = |r: s2s_types::RouterId| {
                topo.ases[topo.routers[r.index()].as_idx].pops.len()
            };
            let footprint = pops_of(link.a) + pops_of(link.b);
            frac *= (2.5 / footprint as f64).min(1.0);
            if !rng.random_bool(frac) {
                continue;
            }
            let city_a = topo.router_city(link.a);
            let city_b = topo.router_city(link.b);
            let transcontinental = city_a.continent != city_b.continent;
            let asia_involved = matches!(
                (city_a.continent, city_b.continent),
                (s2s_geo::Continent::Asia, _) | (_, s2s_geo::Continent::Asia)
            );
            let factor = if transcontinental && asia_involved && rng.random_bool(0.4) {
                params.asia_europe_factor
            } else if transcontinental {
                params.transcontinental_factor
            } else {
                1.0
            };
            let amplitude = (params.base_amplitude_ms * factor
                * (0.85 + 0.3 * rng.random::<f64>()))
            .max(12.0);
            // Busy hour: local evening, 19:00–23:00.
            let peak = 19.0 + 4.0 * rng.random::<f64>();
            let width = 2.0 + 2.0 * rng.random::<f64>();
            // Long-lived episode somewhere in the horizon.
            let horizon = params.horizon.minutes();
            let z = {
                let u1: f64 = rng.random::<f64>().max(1e-12);
                let u2: f64 = rng.random();
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            };
            let dur_days = params.median_episode_days * z.exp();
            let dur_min = (dur_days * 1440.0).clamp(3.0 * 1440.0, f64::from(horizon));
            let start = rng.random_range(0..horizon.saturating_sub(dur_min as u32).max(1));
            let lon = (city_a.lon + city_b.lon) / 2.0;
            let toward = if rng.random_bool(0.5) { link.a } else { link.b };
            // A quarter of queues are effectively v4-only; the rest hit v6
            // at a fraction of the v4 amplitude.
            let v6_factor = if rng.random_bool(0.25) {
                0.0
            } else {
                0.35 + 0.45 * rng.random::<f64>()
            };
            model.set(
                LinkId::from(li),
                LinkProfile {
                    amplitude_ms: amplitude,
                    peak_local_hour: peak,
                    width_hours: width,
                    start_min: start,
                    end_min: (start + dur_min as u32).min(horizon),
                    lon_deg: lon,
                    toward: toward.0,
                    v6_factor,
                },
            );
        }
        model
    }

    /// Extra one-way delay for a packet crossing `link` *toward* router
    /// `to`, at `t`, in ms (0 when uncongested or crossing the clean
    /// direction).
    pub fn delay_ms_toward(
        &self,
        link: LinkId,
        to: s2s_types::RouterId,
        proto: s2s_types::Protocol,
        t: SimTime,
    ) -> f64 {
        match self.profile(link) {
            Some(p) if p.toward == to.0 => match proto {
                s2s_types::Protocol::V4 => p.delay_ms(t),
                s2s_types::Protocol::V6 => p.delay_ms(t) * p.v6_factor,
            },
            _ => 0.0,
        }
    }

    /// Direction-agnostic delay (the congested direction's value) — used by
    /// tests and calibration.
    pub fn delay_ms(&self, link: LinkId, t: SimTime) -> f64 {
        self.profile(link).map(|p| p.delay_ms(t)).unwrap_or(0.0)
    }

    /// Whether a link has a profile at all.
    pub fn is_congested_link(&self, link: LinkId) -> bool {
        self.profile(link).is_some()
    }

    /// All congested links (ground truth for validating §5.2 localization).
    pub fn congested_links(&self) -> Vec<LinkId> {
        (0..self.profiles.len())
            .filter(|&l| self.profiles[l].is_some())
            .map(LinkId::from)
            .collect()
    }

    /// The profile of a link, if congested.
    pub fn profile(&self, link: LinkId) -> Option<&LinkProfile> {
        self.profiles.get(link.index())?.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2s_topology::{build_topology, TopologyParams};
    use s2s_types::SimDuration;

    fn profile(amp: f64, peak: f64, lon: f64) -> LinkProfile {
        LinkProfile {
            amplitude_ms: amp,
            peak_local_hour: peak,
            width_hours: 3.0,
            start_min: 0,
            end_min: SimTime::from_days(100).minutes(),
            lon_deg: lon,
            toward: 0,
            v6_factor: 1.0,
        }
    }

    #[test]
    fn bump_peaks_at_busy_hour() {
        let p = profile(30.0, 20.0, 0.0); // Greenwich, peak 20:00 local=UTC
        let at_peak = p.delay_ms(SimTime::from_hours(20));
        let at_night = p.delay_ms(SimTime::from_hours(5));
        assert!(at_peak > 20.0, "peak delay {at_peak}");
        assert!(at_night < 2.0, "off-peak delay {at_night}");
    }

    #[test]
    fn bump_follows_local_time() {
        // Tokyo longitude: 20:00 local ≈ 10:41 UTC.
        let p = profile(30.0, 20.0, 139.7);
        let utc_for_local_20 = SimTime::from_minutes((10 * 60) + 41);
        let at_local_peak = p.delay_ms(utc_for_local_20);
        let at_utc_20 = p.delay_ms(SimTime::from_hours(20));
        assert!(at_local_peak > at_utc_20, "{at_local_peak} vs {at_utc_20}");
    }

    #[test]
    fn outside_episode_is_zero() {
        let mut p = profile(30.0, 20.0, 0.0);
        p.start_min = SimTime::from_days(10).minutes();
        p.end_min = SimTime::from_days(20).minutes();
        assert_eq!(p.delay_ms(SimTime::from_days(5) + SimDuration::from_hours(20)), 0.0);
        assert!(p.delay_ms(SimTime::from_days(15) + SimDuration::from_hours(20)) > 10.0);
        assert_eq!(p.delay_ms(SimTime::from_days(25) + SimDuration::from_hours(20)), 0.0);
    }

    #[test]
    fn daily_cycle_repeats() {
        let p = profile(25.0, 21.0, 0.0);
        for day in 10..14 {
            let t = SimTime::from_days(day) + SimDuration::from_hours(21);
            assert!(p.delay_ms(t) > 12.0, "day {day} has no bump");
            let tq = SimTime::from_days(day) + SimDuration::from_hours(9);
            assert!(p.delay_ms(tq) < 1.0, "day {day} quiet hour not quiet");
        }
    }

    #[test]
    fn generate_is_deterministic_and_selective() {
        let topo = build_topology(&TopologyParams::tiny(55));
        let params = CongestionParams::default();
        let a = CongestionModel::generate(&topo, &params);
        let b = CongestionModel::generate(&topo, &params);
        assert_eq!(a.congested_links(), b.congested_links());
        let frac = a.congested_links().len() as f64 / topo.links.len() as f64;
        assert!(frac < 0.25, "too many congested links: {frac}");
    }

    #[test]
    fn generate_hits_multiple_link_kinds() {
        let topo = build_topology(&TopologyParams::default());
        let m = CongestionModel::generate(
            &topo,
            &CongestionParams {
                internal_fraction: 0.2,
                private_peering_fraction: 0.4,
                ..CongestionParams::default()
            },
        );
        let kinds: std::collections::HashSet<_> = m
            .congested_links()
            .iter()
            .map(|&l| std::mem::discriminant(&topo.links[l.index()].kind))
            .collect();
        assert!(kinds.len() >= 2, "congestion hit only one link kind");
    }

    #[test]
    fn transcontinental_links_get_bigger_amplitudes() {
        let topo = build_topology(&TopologyParams::default());
        let m = CongestionModel::generate(
            &topo,
            &CongestionParams {
                internal_fraction: 0.3,
                private_peering_fraction: 0.5,
                transit_fraction: 0.3,
                ..CongestionParams::default()
            },
        );
        let mut same_cont = Vec::new();
        let mut cross_cont = Vec::new();
        for l in m.congested_links() {
            let link = &topo.links[l.index()];
            let (ca, cb) = (topo.router_city(link.a), topo.router_city(link.b));
            let amp = m.profile(l).unwrap().amplitude_ms;
            if ca.continent == cb.continent {
                same_cont.push(amp);
            } else {
                cross_cont.push(amp);
            }
        }
        assert!(!same_cont.is_empty() && !cross_cont.is_empty());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&cross_cont) > mean(&same_cont) * 1.5,
            "cross {} vs same {}",
            mean(&cross_cont),
            mean(&same_cont)
        );
        // Same-continent amplitudes sit in the paper's 20-30 ms band.
        let m_same = mean(&same_cont);
        assert!((18.0..35.0).contains(&m_same), "same-continent mean {m_same}");
    }

    #[test]
    fn none_model_is_silent() {
        let m = CongestionModel::none();
        assert_eq!(m.delay_ms(LinkId::new(3), SimTime::from_hours(20)), 0.0);
        assert!(m.congested_links().is_empty());
    }
}
