//! Routing dynamics: seeded link-failure episodes.
//!
//! Real BGP paths change for many reasons — maintenance, failures, policy
//! shifts, traffic engineering. The paper observes only their *effects*: AS
//! paths that flip between a small set of alternatives, mostly briefly,
//! sometimes for months (Fig. 1a's multi-month level shifts; Fig. 3b's
//! heavy-tailed change counts; Fig. 4's short-lived expensive detours).
//!
//! We model all of it as interconnect-link down episodes:
//!
//! * most links are stable (no episodes over 16 months) — giving the ~18%
//!   of timelines with zero AS-path changes,
//! * failure-prone links draw a heavy-tailed (Pareto) episode rate — a few
//!   links flap dozens of times, matching the long tail of Fig. 3b,
//! * episode durations are log-normal with a wide sigma — minutes to
//!   months, so a detour can persist long enough to dominate a timeline's
//!   prevalence (Fig. 6).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s2s_types::{LinkId, SimTime};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Parameters of the failure process.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DynamicsParams {
    /// Seed (independent of the topology seed).
    pub seed: u64,
    /// End of the modeled horizon.
    pub horizon: SimTime,
    /// Fraction of interconnect links that never fail.
    pub stable_fraction: f64,
    /// Mean episodes per failure-prone link over the horizon (the Pareto
    /// scale; the tail adds flappy links far above it).
    pub mean_episodes: f64,
    /// Pareto tail exponent for per-link episode counts (smaller = heavier).
    pub pareto_alpha: f64,
    /// Median episode duration in minutes (log-normal location).
    pub median_duration_min: f64,
    /// Log-normal sigma for durations (2.0+ spreads minutes..months).
    pub duration_sigma: f64,
    /// Fraction of AS-pair edges subject to *correlated* outages — BGP
    /// session resets, maintenance, or disputes that take every parallel
    /// link between two ASes down at once. These are what actually change
    /// AS paths (a single parallel link failing usually doesn't).
    pub edge_outage_fraction: f64,
    /// Mean correlated outages per affected edge over the horizon
    /// (Pareto-tailed like the per-link process).
    pub edge_outage_mean: f64,
}

impl Default for DynamicsParams {
    fn default() -> Self {
        DynamicsParams {
            seed: 0x5eed_d15e,
            horizon: SimTime::from_days(485),
            stable_fraction: 0.55,
            mean_episodes: 1.5,
            pareto_alpha: 2.2,
            median_duration_min: 200.0,
            duration_sigma: 2.1,
            edge_outage_fraction: 0.55,
            edge_outage_mean: 10.0,
        }
    }
}

impl DynamicsParams {
    /// A horizon-scaled copy (tests use short horizons).
    pub fn with_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = horizon;
        self
    }
}

/// Per-link down episodes, queryable by time.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Dynamics {
    /// `episodes[link] = [(down_start_min, up_again_min), ...]`, sorted,
    /// non-overlapping. Empty for stable links and all internal links.
    episodes: Vec<Vec<(u32, u32)>>,
    horizon: SimTime,
    /// Lazily built availability-epoch index. Episodes are immutable after
    /// construction, so the index never invalidates once built.
    epochs: OnceLock<Arc<EpochIndex>>,
}

/// The global availability-epoch timeline.
///
/// The set of down links only changes at episode boundaries, so the whole
/// horizon decomposes into epochs inside which every link's up/down state —
/// and therefore every routing outcome — is constant. Epoch `i` spans
/// `[starts[i], starts[i+1])` in minutes; the last epoch extends past the
/// horizon (where no episode is active, so its down set is empty whenever
/// all episodes end at or before the horizon).
#[derive(Debug)]
pub struct EpochIndex {
    /// Epoch start minutes; `starts[0] == 0`, strictly increasing.
    starts: Vec<u32>,
    /// Links down during each epoch, ascending by link id, shared so
    /// queries never copy.
    down: Vec<Arc<[LinkId]>>,
}

impl EpochIndex {
    fn build(episodes: &[Vec<(u32, u32)>]) -> EpochIndex {
        let mut starts: Vec<u32> = Vec::with_capacity(
            1 + 2 * episodes.iter().map(Vec::len).sum::<usize>(),
        );
        starts.push(0);
        for eps in episodes {
            for &(s, e) in eps {
                starts.push(s);
                starts.push(e);
            }
        }
        starts.sort_unstable();
        starts.dedup();
        // Sweep: an episode [s, e) covers exactly the epochs whose start
        // lies in [s, e). Links are visited in ascending order and each
        // link's episodes are disjoint, so every per-epoch list comes out
        // sorted without a final sort.
        let mut down: Vec<Vec<LinkId>> = vec![Vec::new(); starts.len()];
        for (li, eps) in episodes.iter().enumerate() {
            for &(s, e) in eps {
                let i0 = starts.partition_point(|&b| b < s);
                let i1 = starts.partition_point(|&b| b < e);
                for slot in &mut down[i0..i1] {
                    slot.push(LinkId::from(li));
                }
            }
        }
        EpochIndex {
            starts,
            down: down.into_iter().map(Into::into).collect(),
        }
    }

    /// Number of epochs (always ≥ 1).
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// True when the timeline is a single all-up epoch.
    pub fn is_empty(&self) -> bool {
        self.starts.len() == 1 && self.down[0].is_empty()
    }

    /// The epoch containing `t`.
    pub fn epoch_of(&self, t: SimTime) -> usize {
        // starts[0] == 0, so partition_point is ≥ 1.
        self.starts.partition_point(|&s| s <= t.minutes()) - 1
    }

    /// Start minute of epoch `e`.
    pub fn start_of(&self, e: usize) -> SimTime {
        SimTime::from_minutes(self.starts[e])
    }

    /// Links down throughout epoch `e`, ascending by id.
    pub fn down_in(&self, e: usize) -> &Arc<[LinkId]> {
        &self.down[e]
    }
}

impl Dynamics {
    /// Generates the failure process for a topology. Only interconnect
    /// links fail; the intra-AS backbone is treated as always up (interior
    /// *congestion* is modeled separately in `s2s-netsim`).
    pub fn generate(topo: &s2s_topology::Topology, params: &DynamicsParams) -> Self {
        let mut rng = StdRng::seed_from_u64(params.seed);
        let horizon_min = params.horizon.minutes();
        let mut episodes = vec![Vec::new(); topo.links.len()];

        for (li, link) in topo.links.iter().enumerate() {
            if !link.kind.is_interconnect() {
                continue;
            }
            if rng.random_bool(params.stable_fraction) {
                continue;
            }
            // Heavy-tailed expected episode count: Pareto(alpha) scaled so
            // the mean lands near `mean_episodes`.
            let u: f64 = rng.random::<f64>().max(1e-12);
            let scale = params.mean_episodes * (params.pareto_alpha - 1.0)
                / params.pareto_alpha;
            let expected = (scale * u.powf(-1.0 / params.pareto_alpha)).min(40.0);
            // Poisson-ish scheduling: exponential inter-arrivals with mean
            // horizon / expected.
            if expected <= 0.0 {
                continue;
            }
            let mean_gap = horizon_min as f64 / expected;
            let mut t = 0.0f64;
            let eps = &mut episodes[li];
            loop {
                let gap = -mean_gap * (1.0 - rng.random::<f64>()).ln();
                t += gap.max(1.0);
                if t >= horizon_min as f64 {
                    break;
                }
                // Log-normal duration.
                let z = normal_sample(&mut rng);
                let dur = params.median_duration_min
                    * (params.duration_sigma * z).exp();
                let start = t as u32;
                let end = ((t + dur.max(5.0)) as u32).min(horizon_min);
                if let Some(&(_, prev_end)) = eps.last() {
                    if start <= prev_end {
                        // Merge overlapping episodes.
                        let merged_end = end.max(prev_end);
                        eps.last_mut().unwrap().1 = merged_end;
                        t = f64::from(merged_end);
                        continue;
                    }
                }
                eps.push((start, end));
                t = f64::from(end);
            }
        }
        // Correlated edge outages: one episode hits every parallel link of
        // an AS pair. Durations are shorter (minutes to days) — session
        // resets and maintenance windows rather than dark fiber.
        let mut edge_keys: Vec<(usize, usize)> = topo.interconnects.keys().copied().collect();
        edge_keys.sort_unstable();
        for key in edge_keys {
            if !rng.random_bool(params.edge_outage_fraction) {
                continue;
            }
            let u: f64 = rng.random::<f64>().max(1e-12);
            let scale = params.edge_outage_mean * (params.pareto_alpha - 1.0)
                / params.pareto_alpha;
            let expected = (scale * u.powf(-1.0 / params.pareto_alpha)).min(80.0);
            if expected <= 0.0 {
                continue;
            }
            let mean_gap = horizon_min as f64 / expected;
            let mut t = 0.0f64;
            loop {
                let gap = -mean_gap * (1.0 - rng.random::<f64>()).ln();
                t += gap.max(1.0);
                if t >= horizon_min as f64 {
                    break;
                }
                let z = normal_sample(&mut rng);
                // Median ~3 hours, sigma 2.0: most outages are minutes to a
                // day, but ~1% run multi-week — the month-long level shifts
                // of Fig. 1a (e.g. a peering dispute sending traffic via
                // another continent until settled, §7).
                let dur = 180.0 * (2.0 * z).exp();
                let start = t as u32;
                let end = ((t + dur.max(5.0)) as u32).min(horizon_min);
                for &l in &topo.interconnects[&key] {
                    episodes[l.index()].push((start, end));
                }
                t = f64::from(end);
            }
        }
        // Merge overlapping intervals per link (the two processes can
        // overlap each other).
        for eps in &mut episodes {
            normalize_episodes(eps);
        }
        Dynamics { episodes, horizon: params.horizon, epochs: OnceLock::new() }
    }

    /// A dynamics object with no failures at all (for tests and baselines).
    pub fn all_up(topo: &s2s_topology::Topology, horizon: SimTime) -> Self {
        Dynamics {
            episodes: vec![Vec::new(); topo.links.len()],
            horizon,
            epochs: OnceLock::new(),
        }
    }

    /// A dynamics object with explicit episodes (tests). Each episode
    /// `(link, start, end)` takes the link down over `[start, end)`;
    /// empty or inverted episodes are dropped and overlapping or touching
    /// ones merged, as [`generate`](Self::generate) does.
    pub fn from_episodes(
        n_links: usize,
        eps: Vec<(LinkId, u32, u32)>,
        horizon: SimTime,
    ) -> Self {
        let mut episodes = vec![Vec::new(); n_links];
        for (l, s, e) in eps {
            episodes[l.index()].push((s, e));
        }
        for v in &mut episodes {
            normalize_episodes(v);
        }
        Dynamics { episodes, horizon, epochs: OnceLock::new() }
    }

    /// The modeled horizon.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Whether a link is up at `t`.
    pub fn link_up(&self, link: LinkId, t: SimTime) -> bool {
        let eps = &self.episodes[link.index()];
        if eps.is_empty() {
            return true;
        }
        let m = t.minutes();
        // Find the last episode starting at or before m.
        match eps.partition_point(|&(s, _)| s <= m).checked_sub(1) {
            Some(i) => m >= eps[i].1, // up again once the episode ended
            None => true,
        }
    }

    /// The interval `[lo, hi)` of minutes around `t` over which `link`
    /// keeps the state it has at `t`: one down episode, or the up gap
    /// between two. The last gap's `hi` lies past every representable
    /// minute, hence `u64`.
    pub fn link_state_span(&self, link: LinkId, t: SimTime) -> (u32, u64) {
        let eps = &self.episodes[link.index()];
        let m = t.minutes();
        let i = eps.partition_point(|&(s, _)| s <= m);
        match i.checked_sub(1).map(|j| eps[j]) {
            Some((s, e)) if m < e => (s, u64::from(e)),
            prev => {
                let lo = prev.map_or(0, |(_, e)| e);
                let hi = eps.get(i).map_or(u64::from(u32::MAX) + 1, |&(s, _)| u64::from(s));
                (lo, hi)
            }
        }
    }

    /// The availability-epoch timeline, built on first use and cached.
    pub fn epochs(&self) -> &Arc<EpochIndex> {
        self.epochs
            .get_or_init(|| Arc::new(EpochIndex::build(&self.episodes)))
    }

    /// The epoch containing `t`.
    pub fn epoch_of(&self, t: SimTime) -> usize {
        self.epochs().epoch_of(t)
    }

    /// Number of availability epochs.
    pub fn epoch_count(&self) -> usize {
        self.epochs().len()
    }

    /// All links down at `t`, ascending by id. Returns the cached epoch
    /// view — constant between episode breakpoints, never reallocated.
    pub fn down_links(&self, t: SimTime) -> Arc<[LinkId]> {
        let idx = self.epochs();
        Arc::clone(idx.down_in(idx.epoch_of(t)))
    }

    /// Total number of episodes across all links.
    pub fn episode_count(&self) -> usize {
        self.episodes.iter().map(Vec::len).sum()
    }

    /// Number of links with at least one episode.
    pub fn failing_link_count(&self) -> usize {
        self.episodes.iter().filter(|e| !e.is_empty()).count()
    }

    /// Episodes of one link.
    pub fn episodes_of(&self, link: LinkId) -> &[(u32, u32)] {
        &self.episodes[link.index()]
    }
}

/// Restores the per-link invariant every query relies on: episodes sorted,
/// non-empty and disjoint. Empty or inverted episodes are dropped and
/// overlapping or touching ones merged.
fn normalize_episodes(eps: &mut Vec<(u32, u32)>) {
    eps.retain(|&(s, e)| s < e);
    if eps.len() < 2 {
        return;
    }
    eps.sort_unstable();
    let mut merged: Vec<(u32, u32)> = Vec::with_capacity(eps.len());
    for &(s, e) in eps.iter() {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    *eps = merged;
}

/// One standard-normal sample via Box–Muller.
fn normal_sample(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use s2s_topology::{build_topology, TopologyParams};

    fn topo() -> s2s_topology::Topology {
        build_topology(&TopologyParams::tiny(21))
    }

    #[test]
    fn generation_is_deterministic() {
        let t = topo();
        let p = DynamicsParams::default();
        let a = Dynamics::generate(&t, &p);
        let b = Dynamics::generate(&t, &p);
        assert_eq!(a.episode_count(), b.episode_count());
        for l in 0..t.links.len() {
            assert_eq!(a.episodes_of(LinkId::from(l)), b.episodes_of(LinkId::from(l)));
        }
    }

    #[test]
    fn internal_links_never_fail() {
        let t = topo();
        let d = Dynamics::generate(&t, &DynamicsParams::default());
        for (li, l) in t.links.iter().enumerate() {
            if l.kind == s2s_topology::LinkKind::Internal {
                assert!(d.episodes_of(LinkId::from(li)).is_empty());
            }
        }
    }

    #[test]
    fn many_links_are_stable() {
        let t = topo();
        let d = Dynamics::generate(&t, &DynamicsParams::default());
        let interconnects =
            t.links.iter().filter(|l| l.kind.is_interconnect()).count();
        let failing = d.failing_link_count();
        assert!(failing > 0, "no failures generated at all");
        assert!(
            failing < interconnects,
            "every interconnect fails ({failing}/{interconnects})"
        );
    }

    #[test]
    fn episode_rates_are_heavy_tailed() {
        let t = build_topology(&TopologyParams::default());
        let d = Dynamics::generate(&t, &DynamicsParams::default());
        let counts: Vec<usize> = (0..t.links.len())
            .map(|l| d.episodes_of(LinkId::from(l)).len())
            .filter(|&c| c > 0)
            .collect();
        assert!(counts.len() > 20);
        let max = *counts.iter().max().unwrap();
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        assert!(
            max as f64 > mean * 4.0,
            "tail not heavy: max {max}, mean {mean:.1}"
        );
    }

    #[test]
    fn link_up_respects_episodes() {
        let d = Dynamics::from_episodes(
            3,
            vec![(LinkId::new(1), 100, 200), (LinkId::new(1), 300, 400)],
            SimTime::from_days(1),
        );
        let l = LinkId::new(1);
        assert!(d.link_up(l, SimTime::from_minutes(99)));
        assert!(!d.link_up(l, SimTime::from_minutes(100)));
        assert!(!d.link_up(l, SimTime::from_minutes(199)));
        assert!(d.link_up(l, SimTime::from_minutes(200)));
        assert!(d.link_up(l, SimTime::from_minutes(250)));
        assert!(!d.link_up(l, SimTime::from_minutes(350)));
        assert!(d.link_up(l, SimTime::from_minutes(400)));
        // Other links unaffected.
        assert!(d.link_up(LinkId::new(0), SimTime::from_minutes(150)));
    }

    #[test]
    fn down_links_lists_exactly_the_down_ones() {
        let d = Dynamics::from_episodes(
            4,
            vec![(LinkId::new(0), 10, 20), (LinkId::new(2), 15, 30)],
            SimTime::from_days(1),
        );
        assert_eq!(
            &*d.down_links(SimTime::from_minutes(17)),
            &[LinkId::new(0), LinkId::new(2)][..]
        );
        assert_eq!(
            &*d.down_links(SimTime::from_minutes(25)),
            &[LinkId::new(2)][..]
        );
        assert!(d.down_links(SimTime::from_minutes(5)).is_empty());
    }

    #[test]
    fn epoch_views_match_per_link_queries() {
        let t = build_topology(&TopologyParams::default());
        let d = Dynamics::generate(&t, &DynamicsParams::default());
        let idx = d.epochs();
        assert!(idx.len() > 1, "default dynamics should have many epochs");
        // Probe a spread of instants (including exact breakpoints): the
        // epoch view must equal a brute-force per-link scan.
        let horizon = d.horizon().minutes();
        let mut probes: Vec<u32> =
            (0..40).map(|i| i * horizon / 40).collect();
        probes.extend((0..idx.len()).step_by(idx.len() / 16 + 1).map(|e| {
            idx.start_of(e).minutes()
        }));
        for m in probes {
            let t = SimTime::from_minutes(m);
            let brute: Vec<LinkId> = (0..d.episodes.len())
                .map(LinkId::from)
                .filter(|&l| !d.link_up(l, t))
                .collect();
            assert_eq!(&*d.down_links(t), &brute[..], "mismatch at minute {m}");
        }
    }

    #[test]
    fn epoch_of_respects_breakpoints() {
        let d = Dynamics::from_episodes(
            3,
            vec![(LinkId::new(1), 100, 200)],
            SimTime::from_days(1),
        );
        let idx = d.epochs();
        assert_eq!(idx.len(), 3); // [0,100), [100,200), [200,∞)
        assert_eq!(d.epoch_of(SimTime::from_minutes(0)), 0);
        assert_eq!(d.epoch_of(SimTime::from_minutes(99)), 0);
        assert_eq!(d.epoch_of(SimTime::from_minutes(100)), 1);
        assert_eq!(d.epoch_of(SimTime::from_minutes(199)), 1);
        assert_eq!(d.epoch_of(SimTime::from_minutes(200)), 2);
        // Beyond the horizon every episode has ended: empty down set.
        assert!(idx.down_in(2).is_empty());
        // Same Arc returned for queries inside one epoch — no realloc.
        let a = d.down_links(SimTime::from_minutes(120));
        let b = d.down_links(SimTime::from_minutes(180));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(&*a, &[LinkId::new(1)][..]);
    }

    #[test]
    fn episodes_sorted_and_disjoint() {
        let t = build_topology(&TopologyParams::default());
        let d = Dynamics::generate(&t, &DynamicsParams::default());
        for l in 0..t.links.len() {
            let eps = d.episodes_of(LinkId::from(l));
            for w in eps.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlap: {:?}", w);
            }
            for &(s, e) in eps {
                assert!(s < e, "empty episode ({s},{e})");
                assert!(e <= d.horizon().minutes());
            }
        }
    }

    #[test]
    fn durations_span_orders_of_magnitude() {
        let t = build_topology(&TopologyParams::default());
        let d = Dynamics::generate(&t, &DynamicsParams::default());
        let durs: Vec<u32> = (0..t.links.len())
            .flat_map(|l| d.episodes_of(LinkId::from(l)).iter().map(|&(s, e)| e - s))
            .collect();
        assert!(durs.len() > 50);
        let min = *durs.iter().min().unwrap();
        let max = *durs.iter().max().unwrap();
        assert!(min < 120, "shortest episode {min} min should be sub-2h");
        assert!(
            max > 7 * 24 * 60,
            "longest episode {max} min should exceed a week"
        );
    }

    #[test]
    fn from_episodes_merges_overlapping_episodes() {
        // Regression: from_episodes only sorted, so a nested episode left
        // link_up answering "up" inside the outer one while down_links
        // said "down", and listed the link twice where both overlapped.
        let l = LinkId::new(1);
        let day = SimTime::from_days(1);
        let d = Dynamics::from_episodes(3, vec![(l, 100, 300), (l, 200, 250)], day);
        assert_eq!(d.episodes_of(l), &[(100, 300)][..]);
        assert!(!d.link_up(l, SimTime::from_minutes(260)));
        assert_eq!(&*d.down_links(SimTime::from_minutes(220)), &[l][..]);
        assert_eq!(&*d.down_links(SimTime::from_minutes(260)), &[l][..]);
        assert!(d.link_up(l, SimTime::from_minutes(300)));
        // Touching episodes merge too, like `generate`'s.
        let d = Dynamics::from_episodes(3, vec![(l, 50, 80), (l, 80, 90)], day);
        assert_eq!(d.episodes_of(l), &[(50, 90)][..]);
    }

    #[test]
    fn from_episodes_drops_empty_and_inverted_episodes() {
        // Regression: an inverted episode panicked building the epoch
        // index (slice bounds out of order).
        let l = LinkId::new(0);
        let d = Dynamics::from_episodes(
            2,
            vec![(l, 300, 100), (l, 40, 40), (LinkId::new(1), 10, 20)],
            SimTime::from_days(1),
        );
        assert!(d.episodes_of(l).is_empty());
        assert_eq!(d.epoch_count(), 3); // [0,10), [10,20), [20,∞)
        for m in [0, 40, 100, 200, 300] {
            assert!(d.link_up(l, SimTime::from_minutes(m)));
            assert!(!d.down_links(SimTime::from_minutes(m)).contains(&l));
        }
    }

    #[test]
    fn link_state_span_brackets_the_state() {
        let l = LinkId::new(1);
        let d = Dynamics::from_episodes(
            3,
            vec![(l, 100, 200), (l, 300, 400)],
            SimTime::from_days(1),
        );
        let span = |m| d.link_state_span(l, SimTime::from_minutes(m));
        assert_eq!(span(0), (0, 100));
        assert_eq!(span(99), (0, 100));
        assert_eq!(span(100), (100, 200));
        assert_eq!(span(199), (100, 200));
        assert_eq!(span(200), (200, 300));
        assert_eq!(span(350), (300, 400));
        assert_eq!(span(400), (400, u64::from(u32::MAX) + 1));
        assert_eq!(d.link_state_span(LinkId::new(0), SimTime::T0), (0, u64::from(u32::MAX) + 1));
    }

    proptest! {
        /// For arbitrary (overlapping, touching, empty, inverted) episode
        /// lists, the per-link query, the epoch view and the state span
        /// agree at every minute.
        #[test]
        fn prop_link_up_agrees_with_down_links(
            raw in proptest::collection::vec((0usize..3, 0u32..120, 0u32..120), 0..10),
        ) {
            let eps: Vec<(LinkId, u32, u32)> =
                raw.iter().map(|&(l, s, e)| (LinkId::from(l), s, e)).collect();
            let d = Dynamics::from_episodes(3, eps, SimTime::from_minutes(120));
            for m in 0..130u32 {
                let t = SimTime::from_minutes(m);
                let down = d.down_links(t);
                prop_assert!(down.windows(2).all(|w| w[0] < w[1]), "{down:?}");
                for l in (0..3usize).map(LinkId::from) {
                    let up = d.link_up(l, t);
                    prop_assert_eq!(up, !down.contains(&l), "link {l:?} minute {m}");
                    let (lo, hi) = d.link_state_span(l, t);
                    prop_assert!(lo <= m && u64::from(m) < hi);
                    for x in [lo, (hi.min(131) - 1) as u32] {
                        prop_assert_eq!(d.link_up(l, SimTime::from_minutes(x)), up);
                    }
                    if lo > 0 {
                        prop_assert_ne!(d.link_up(l, SimTime::from_minutes(lo - 1)), up);
                    }
                    if hi <= 130 {
                        prop_assert_ne!(d.link_up(l, SimTime::from_minutes(hi as u32)), up);
                    }
                }
            }
        }
    }

    #[test]
    fn all_up_never_fails() {
        let t = topo();
        let d = Dynamics::all_up(&t, SimTime::from_days(10));
        assert_eq!(d.episode_count(), 0);
        assert!(d.down_links(SimTime::from_days(5)).is_empty());
    }
}
