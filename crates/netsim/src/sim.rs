//! The network façade: turning routed paths into probe observations.
//!
//! [`Network`] answers the two questions measurement tools ask:
//!
//! * *TTL-limited probe* — which router answers at TTL `k`, and with what
//!   RTT? (drives traceroute),
//! * *end-to-end echo* — what is the RTT to the destination server right
//!   now? (drives ping and the final traceroute hop).
//!
//! RTT composition mirrors reality:
//!
//! ```text
//! e2e RTT  = fwd propagation + fwd congestion        (src → dst path)
//!          + rev propagation + rev congestion        (dst → src path — may
//!                                                     differ: routing is
//!                                                     asymmetric)
//!          + server processing + keyed noise/spikes
//! hop RTT  = 2 × (prefix propagation + prefix congestion)
//!          + router ICMP generation + keyed noise
//! ```
//!
//! Hidden (MPLS) hops add delay but consume no TTL; unresponsive routers
//! consume TTL but never answer; probes are occasionally lost outright.

use crate::congestion::CongestionModel;
use crate::noise;
use s2s_routing::{RouteOracle, RouterPath};
use s2s_types::{ClusterId, Protocol, SimTime};
use std::net::IpAddr;
use std::sync::Arc;

/// Tunables of the measurement plane.
#[derive(Clone, Debug, PartialEq)]
pub struct NetworkParams {
    /// Probability that any single probe (or its reply) is lost.
    pub loss_prob: f64,
    /// Probability of a heavy RTT spike on a probe.
    pub spike_prob: f64,
    /// Mean of the exponential spike magnitude, ms.
    pub spike_mean_ms: f64,
    /// Destination server ICMP processing time, ms.
    pub server_processing_ms: f64,
    /// Router ICMP time-exceeded generation time, ms.
    pub router_processing_ms: f64,
    /// Extra loss probability per millisecond of congestion delay on the
    /// path — congested queues drop packets, so busy-hour loss rises with
    /// busy-hour RTT (the paper's §8 future-work signal).
    pub congestive_loss_per_ms: f64,
    /// Probability that a router silently rate-limits ICMP for a whole
    /// 10-minute window over IPv4 (drives Table 1's "missing IP-level
    /// data": bursts of probes within the window all go unanswered, so
    /// retries don't help — matching real traceroute `*` behavior).
    pub rate_limit_prob_v4: f64,
    /// Same for IPv6 (the paper sees more missing hops on v6).
    pub rate_limit_prob_v6: f64,
}

impl Default for NetworkParams {
    fn default() -> Self {
        NetworkParams {
            loss_prob: 0.006,
            spike_prob: 0.015,
            spike_mean_ms: 25.0,
            server_processing_ms: 0.15,
            router_processing_ms: 0.4,
            congestive_loss_per_ms: 0.0015,
            // ~11 visible hops per trace: 1-(1-q)^11 ≈ 28% / 33% of traces
            // with at least one silent hop (Table 1).
            rate_limit_prob_v4: 0.029,
            rate_limit_prob_v6: 0.036,
        }
    }
}

/// The observable outcome of one probe.
#[derive(Clone, Debug, PartialEq)]
pub enum ProbeReply {
    /// A router's TTL-exceeded answer: the hop address (ingress interface,
    /// family matching the probe) and the measured RTT.
    TimeExceeded {
        /// Source address of the ICMP time-exceeded message.
        from: IpAddr,
        /// Measured round-trip time, ms.
        rtt_ms: f64,
    },
    /// The destination's echo reply.
    EchoReply {
        /// The destination server's address.
        from: IpAddr,
        /// Measured round-trip time, ms.
        rtt_ms: f64,
    },
    /// No answer (probe lost, reply lost, or the hop router never answers).
    Lost,
    /// No path exists (routing failure / v6 not available).
    Unreachable,
}

/// The simulated measurement plane.
pub struct Network {
    oracle: Arc<RouteOracle>,
    congestion: CongestionModel,
    params: NetworkParams,
    // Wire-level counters (`netsim.*`), shared with any registry passed to
    // [`Network::observe`]. Incremented only while a global registry is
    // installed (`s2s_obs::enabled`), so an uninstrumented run pays one
    // relaxed bool load per probe.
    probes: Arc<s2s_obs::Counter>,
    probes_lost: Arc<s2s_obs::Counter>,
    probes_unreachable: Arc<s2s_obs::Counter>,
    pings: Arc<s2s_obs::Counter>,
}

impl Network {
    /// Assembles the plane from its parts.
    pub fn new(
        oracle: Arc<RouteOracle>,
        congestion: CongestionModel,
        params: NetworkParams,
    ) -> Self {
        Network {
            oracle,
            congestion,
            params,
            probes: Arc::new(s2s_obs::Counter::new()),
            probes_lost: Arc::new(s2s_obs::Counter::new()),
            probes_unreachable: Arc::new(s2s_obs::Counter::new()),
            pings: Arc::new(s2s_obs::Counter::new()),
        }
    }

    /// Registers the plane's live wire-level counters in `registry` —
    /// `netsim.probes` (TTL-limited probes sent), `netsim.probes_lost`,
    /// `netsim.probes_unreachable`, `netsim.pings` — and the routing
    /// oracle's `oracle.cache.*` counters. Counting is gated on a global
    /// registry being [installed](s2s_obs::install), so also install one
    /// (or this same one) to start the counts.
    pub fn observe(&self, registry: &s2s_obs::Registry) {
        registry.register_counter("netsim.probes", Arc::clone(&self.probes));
        registry.register_counter("netsim.probes_lost", Arc::clone(&self.probes_lost));
        registry
            .register_counter("netsim.probes_unreachable", Arc::clone(&self.probes_unreachable));
        registry.register_counter("netsim.pings", Arc::clone(&self.pings));
        self.oracle.observe(registry);
    }

    /// The routing oracle under this network.
    pub fn oracle(&self) -> &Arc<RouteOracle> {
        &self.oracle
    }

    /// The congestion ground truth (for validating localization).
    pub fn congestion(&self) -> &CongestionModel {
        &self.congestion
    }

    /// The measurement-plane parameters.
    pub fn params(&self) -> &NetworkParams {
        &self.params
    }

    /// Sends one TTL-limited probe and reports what comes back.
    ///
    /// `flow` selects the ECMP path; `probe_salt` distinguishes retries of
    /// the same probe (loss is per-transmission, not per-hop). A TTL-0
    /// probe never leaves the host: it is [`Lost`](ProbeReply::Lost).
    #[allow(clippy::too_many_arguments)] // one knob per probe-header field
    pub fn probe(
        &self,
        src: ClusterId,
        dst: ClusterId,
        proto: Protocol,
        t: SimTime,
        ttl: u8,
        flow: u64,
        probe_salt: u64,
    ) -> ProbeReply {
        let reply = if ttl == 0 {
            ProbeReply::Lost
        } else {
            match self.oracle.router_path(src, dst, proto, t, flow) {
                Some(fwd) => {
                    self.probe_on_uncounted(&fwd, src, dst, proto, t, ttl, flow, probe_salt)
                }
                None => ProbeReply::Unreachable,
            }
        };
        self.counted(reply)
    }

    /// The forward router path a probe with this header would take —
    /// constant within a routing epoch and per flow, so callers sending
    /// many probes over one flow (Paris traceroute) can resolve it once
    /// and reuse it via [`probe_on`](Self::probe_on). The path is shared
    /// with the oracle's per-pair memo ([`RouteOracle::router_path`]), so
    /// resolving it again costs a lookup, not an expansion.
    pub fn forward_path(
        &self,
        src: ClusterId,
        dst: ClusterId,
        proto: Protocol,
        t: SimTime,
        flow: u64,
    ) -> Option<Arc<RouterPath>> {
        self.oracle.router_path(src, dst, proto, t, flow)
    }

    /// [`probe`](Self::probe) with the forward path already resolved.
    /// `fwd` must be the path `forward_path` returns for the same header;
    /// replies are then byte-identical to the unbatched `probe`.
    #[allow(clippy::too_many_arguments)] // one knob per probe-header field
    pub fn probe_on(
        &self,
        fwd: &RouterPath,
        src: ClusterId,
        dst: ClusterId,
        proto: Protocol,
        t: SimTime,
        ttl: u8,
        flow: u64,
        probe_salt: u64,
    ) -> ProbeReply {
        self.counted(self.probe_on_uncounted(fwd, src, dst, proto, t, ttl, flow, probe_salt))
    }

    /// Counts one sent probe by its reply (only while a global registry
    /// is installed) and passes the reply through.
    fn counted(&self, reply: ProbeReply) -> ProbeReply {
        if s2s_obs::enabled() {
            self.probes.inc();
            match reply {
                ProbeReply::Lost => self.probes_lost.inc(),
                ProbeReply::Unreachable => self.probes_unreachable.inc(),
                _ => {}
            }
        }
        reply
    }

    /// The reply computation itself — pure in the probe header and the
    /// world state, so counting wraps it without touching it.
    #[allow(clippy::too_many_arguments)]
    fn probe_on_uncounted(
        &self,
        fwd: &RouterPath,
        src: ClusterId,
        dst: ClusterId,
        proto: Protocol,
        t: SimTime,
        ttl: u8,
        flow: u64,
        probe_salt: u64,
    ) -> ProbeReply {
        if ttl == 0 {
            return ProbeReply::Lost;
        }
        let topo = self.oracle.topology();
        let k = noise::key(&[
            src.0 as u64,
            dst.0 as u64,
            proto as u64,
            u64::from(t.minutes()),
            u64::from(ttl),
            flow,
            probe_salt,
        ]);
        if noise::uniform(noise::mix(k ^ 0x105e)) < self.params.loss_prob {
            return ProbeReply::Lost;
        }

        // Visible hops consume TTL; hidden (MPLS interior) hops do not.
        let expired = fwd
            .hops
            .iter()
            .enumerate()
            .filter(|(_, h)| !h.hidden)
            .nth(usize::from(ttl) - 1);

        if let Some((hop_idx, hop)) = expired {
            let router = &topo.routers[hop.router.index()];
            let responsive = match proto {
                Protocol::V4 => router.responsive_v4,
                Protocol::V6 => router.responsive_v6,
            };
            if !responsive {
                return ProbeReply::Lost;
            }
            // ICMP rate limiting: the router goes silent for whole
            // 10-minute windows, so all retries of one traceroute see the
            // same silence (the classic `* * *` hop).
            let rl_prob = match proto {
                Protocol::V4 => self.params.rate_limit_prob_v4,
                Protocol::V6 => self.params.rate_limit_prob_v6,
            };
            let rl_key = noise::key(&[
                0x7a7e,
                hop.router.0 as u64,
                proto as u64,
                u64::from(t.minutes() / 10),
            ]);
            if noise::uniform(rl_key) < rl_prob {
                return ProbeReply::Lost;
            }
            // RTT to the hop: out and back over the forward prefix.
            let (prefix_delay, prefix_cong) = self.prefix_cost(fwd, hop_idx + 1, proto, t);
            // Congested queues drop probes as well as delaying them.
            if noise::uniform(noise::mix(k ^ 0xC105))
                < prefix_cong * self.params.congestive_loss_per_ms
            {
                return ProbeReply::Lost;
            }
            let rtt = 2.0 * (prefix_delay + prefix_cong)
                + self.params.router_processing_ms
                + noise::probe_noise_ms(k, self.params.spike_prob, self.params.spike_mean_ms);
            let iface = topo.links[hop.ingress_link.index()].iface_of(hop.router);
            let addr = match proto {
                Protocol::V4 => IpAddr::V4(topo.ifaces[iface.index()].v4),
                Protocol::V6 => IpAddr::V6(topo.ifaces[iface.index()].v6),
            };
            ProbeReply::TimeExceeded { from: addr, rtt_ms: rtt }
        } else {
            // The probe reaches the destination server.
            match self.e2e_rtt_inner(fwd, src, dst, proto, t, flow, k) {
                Some(rtt) => {
                    let c = &topo.clusters[dst.index()];
                    let addr = match proto {
                        Protocol::V4 => IpAddr::V4(c.v4),
                        Protocol::V6 => IpAddr::V6(c.v6),
                    };
                    ProbeReply::EchoReply { from: addr, rtt_ms: rtt }
                }
                None => ProbeReply::Unreachable,
            }
        }
    }

    /// One end-to-end echo (ping). `None` when lost or unreachable.
    pub fn ping(
        &self,
        src: ClusterId,
        dst: ClusterId,
        proto: Protocol,
        t: SimTime,
        seq: u64,
    ) -> Option<f64> {
        let flow = noise::key(&[src.0 as u64, dst.0 as u64, proto as u64, 0x9109]);
        let rtt = match self.probe(src, dst, proto, t, u8::MAX, flow, seq) {
            ProbeReply::EchoReply { rtt_ms, .. } => Some(rtt_ms),
            _ => None,
        };
        if s2s_obs::enabled() {
            self.pings.inc();
            if let (Some(r), Some(reg)) = (rtt, s2s_obs::installed()) {
                reg.histogram("netsim.ping_rtt_ms", s2s_obs::DEFAULT_LATENCY_BOUNDS_MS)
                    .observe(r);
            }
        }
        rtt
    }

    /// The noise-free end-to-end RTT (propagation + congestion, both
    /// directions) — ground truth for tests and calibration.
    pub fn ideal_rtt(
        &self,
        src: ClusterId,
        dst: ClusterId,
        proto: Protocol,
        t: SimTime,
    ) -> Option<f64> {
        let flow = noise::key(&[src.0 as u64, dst.0 as u64, proto as u64, 0x9109]);
        let fwd = self.oracle.router_path(src, dst, proto, t, flow)?;
        let rev_flow = noise::mix(flow ^ 0x0e0e);
        let rev = self.oracle.router_path(dst, src, proto, t, rev_flow)?;
        let (fd, fc) = self.prefix_cost(&fwd, fwd.hops.len(), proto, t);
        let (rd, rc) = self.prefix_cost(&rev, rev.hops.len(), proto, t);
        Some(fd + fc + rd + rc + self.params.server_processing_ms)
    }

    /// Propagation delay and congestion overhead of the first `n_hops` hops
    /// of a path, one-way.
    fn prefix_cost(
        &self,
        path: &RouterPath,
        n_hops: usize,
        proto: Protocol,
        t: SimTime,
    ) -> (f64, f64) {
        let topo = self.oracle.topology();
        let mut delay = 0.0;
        let mut cong = 0.0;
        for hop in &path.hops[..n_hops] {
            delay += topo.links[hop.ingress_link.index()].delay_ms + 0.05;
            cong +=
                self.congestion.delay_ms_toward(hop.ingress_link, hop.router, proto, t);
        }
        (delay, cong)
    }

    #[allow(clippy::too_many_arguments)] // mirrors probe()'s header fields
    fn e2e_rtt_inner(
        &self,
        fwd: &RouterPath,
        src: ClusterId,
        dst: ClusterId,
        proto: Protocol,
        t: SimTime,
        flow: u64,
        k: u64,
    ) -> Option<f64> {
        let rev_flow = noise::mix(flow ^ 0x0e0e);
        let rev = self.oracle.router_path(dst, src, proto, t, rev_flow)?;
        let (fd, fc) = self.prefix_cost(fwd, fwd.hops.len(), proto, t);
        let (rd, rc) = self.prefix_cost(&rev, rev.hops.len(), proto, t);
        if noise::uniform(noise::mix(k ^ 0xC105))
            < (fc + rc) * self.params.congestive_loss_per_ms
        {
            return None;
        }
        Some(
            fd + fc
                + rd
                + rc
                + self.params.server_processing_ms
                + noise::probe_noise_ms(
                    k,
                    self.params.spike_prob,
                    self.params.spike_mean_ms,
                ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::{CongestionParams, LinkProfile};
    use s2s_routing::{Dynamics, DynamicsParams};
    use s2s_topology::{build_topology, TopologyParams};
    use s2s_types::SimDuration;

    fn quiet_network(seed: u64) -> Network {
        let topo = Arc::new(build_topology(&TopologyParams::tiny(seed)));
        let oracle = Arc::new(RouteOracle::new(
            Arc::clone(&topo),
            Arc::new(Dynamics::all_up(&topo, SimTime::from_days(40))),
        ));
        Network::new(
            oracle,
            CongestionModel::none(),
            NetworkParams { loss_prob: 0.0, spike_prob: 0.0, ..NetworkParams::default() },
        )
    }

    #[test]
    fn ping_round_trips() {
        let net = quiet_network(101);
        let rtt = net
            .ping(ClusterId::new(0), ClusterId::new(3), Protocol::V4, SimTime::T0, 1)
            .expect("reachable");
        assert!(rtt > 0.0 && rtt < 800.0, "rtt = {rtt}");
    }

    #[test]
    fn probe_counters_gate_on_the_global_registry() {
        let net = quiet_network(101);
        let reg = Arc::new(s2s_obs::Registry::new());
        net.observe(&reg);
        // No registry installed: probing counts nothing.
        net.ping(ClusterId::new(0), ClusterId::new(3), Protocol::V4, SimTime::T0, 1);
        assert_eq!(reg.counter("netsim.pings").get(), 0);
        assert_eq!(reg.counter("netsim.probes").get(), 0);
        // Installed: pings and probes count, and the reply is unchanged.
        let before =
            net.ping(ClusterId::new(0), ClusterId::new(3), Protocol::V4, SimTime::T0, 2);
        s2s_obs::install(Arc::clone(&reg));
        let counted =
            net.ping(ClusterId::new(0), ClusterId::new(3), Protocol::V4, SimTime::T0, 2);
        s2s_obs::uninstall();
        assert_eq!(before, counted, "counting must not perturb replies");
        assert_eq!(reg.counter("netsim.pings").get(), 1);
        assert!(reg.counter("netsim.probes").get() >= 1);
        // The oracle's counters rode along via Network::observe.
        assert!(reg.counter("oracle.cache.hits").get() + reg.counter("oracle.cache.misses").get() > 0);
        let snap = reg.snapshot();
        let hist = snap.histograms.get("netsim.ping_rtt_ms");
        assert!(
            hist.map(|h| h.count >= 1).unwrap_or(false),
            "successful installed ping must land in the RTT histogram"
        );
    }

    #[test]
    fn rtt_scales_with_distance() {
        let net = quiet_network(101);
        let topo = net.oracle().topology().clone();
        // Find a near pair and a far pair by cRTT.
        let mut best: Option<(usize, usize, f64)> = None;
        let mut worst: Option<(usize, usize, f64)> = None;
        for a in 0..topo.clusters.len() {
            for b in 0..topo.clusters.len() {
                if a == b {
                    continue;
                }
                let c = s2s_geo::c_rtt_ms(
                    &topo.cluster_city(ClusterId::from(a)).point(),
                    &topo.cluster_city(ClusterId::from(b)).point(),
                );
                if best.map(|(_, _, d)| c < d).unwrap_or(true) {
                    best = Some((a, b, c));
                }
                if worst.map(|(_, _, d)| c > d).unwrap_or(true) {
                    worst = Some((a, b, c));
                }
            }
        }
        let (na, nb, _) = best.unwrap();
        let (fa, fb, _) = worst.unwrap();
        let near = net
            .ideal_rtt(ClusterId::from(na), ClusterId::from(nb), Protocol::V4, SimTime::T0)
            .unwrap();
        let far = net
            .ideal_rtt(ClusterId::from(fa), ClusterId::from(fb), Protocol::V4, SimTime::T0)
            .unwrap();
        assert!(far > near, "far {far} <= near {near}");
    }

    #[test]
    fn rtt_exceeds_crtt() {
        // Physical sanity: measured RTT can't beat light in vacuum.
        let net = quiet_network(103);
        let topo = net.oracle().topology().clone();
        for a in 0..topo.clusters.len().min(6) {
            for b in 0..topo.clusters.len().min(6) {
                if a == b {
                    continue;
                }
                let crtt = s2s_geo::c_rtt_ms(
                    &topo.cluster_city(ClusterId::from(a)).point(),
                    &topo.cluster_city(ClusterId::from(b)).point(),
                );
                if let Some(rtt) = net.ideal_rtt(
                    ClusterId::from(a),
                    ClusterId::from(b),
                    Protocol::V4,
                    SimTime::T0,
                ) {
                    assert!(
                        rtt >= crtt * 0.99,
                        "pair {a}->{b}: rtt {rtt} < cRTT {crtt}"
                    );
                }
            }
        }
    }

    #[test]
    fn traceroute_probe_walks_hops() {
        let net = quiet_network(104);
        let (src, dst) = (ClusterId::new(1), ClusterId::new(7));
        let flow = 42;
        let mut last_rtt = 0.0;
        let mut reached = false;
        for ttl in 1..=40u8 {
            match net.probe(src, dst, Protocol::V4, SimTime::T0, ttl, flow, 0) {
                ProbeReply::TimeExceeded { rtt_ms, .. } => {
                    // RTT grows along the path (no congestion/noise here).
                    assert!(
                        rtt_ms + 1.5 >= last_rtt,
                        "ttl {ttl}: rtt went backwards {last_rtt} -> {rtt_ms}"
                    );
                    last_rtt = rtt_ms;
                }
                ProbeReply::EchoReply { from, rtt_ms } => {
                    let topo = net.oracle().topology();
                    assert_eq!(from, IpAddr::V4(topo.clusters[dst.index()].v4));
                    assert!(rtt_ms > 0.0);
                    reached = true;
                    break;
                }
                ProbeReply::Lost => continue,
                ProbeReply::Unreachable => panic!("unreachable in quiet network"),
            }
        }
        assert!(reached, "never reached destination");
    }

    #[test]
    fn echo_after_destination_for_all_higher_ttls() {
        let net = quiet_network(104);
        let r1 = net.probe(
            ClusterId::new(0),
            ClusterId::new(2),
            Protocol::V4,
            SimTime::T0,
            64,
            1,
            0,
        );
        let r2 = net.probe(
            ClusterId::new(0),
            ClusterId::new(2),
            Protocol::V4,
            SimTime::T0,
            255,
            1,
            0,
        );
        assert!(matches!(r1, ProbeReply::EchoReply { .. }));
        assert!(matches!(r2, ProbeReply::EchoReply { .. }));
    }

    #[test]
    fn unresponsive_routers_yield_lost() {
        let topo = Arc::new(build_topology(&TopologyParams {
            unresponsive_router_prob: 0.5,
            ..TopologyParams::tiny(7)
        }));
        let oracle = Arc::new(RouteOracle::new(
            Arc::clone(&topo),
            Arc::new(Dynamics::all_up(&topo, SimTime::from_days(5))),
        ));
        let net = Network::new(
            oracle,
            CongestionModel::none(),
            NetworkParams { loss_prob: 0.0, spike_prob: 0.0, ..NetworkParams::default() },
        );
        let mut lost = 0;
        let mut answered = 0;
        for a in 0..topo.clusters.len().min(8) {
            for b in 0..topo.clusters.len().min(8) {
                if a == b {
                    continue;
                }
                for ttl in 1..=25u8 {
                    match net.probe(
                        ClusterId::from(a),
                        ClusterId::from(b),
                        Protocol::V4,
                        SimTime::T0,
                        ttl,
                        1,
                        0,
                    ) {
                        ProbeReply::Lost => lost += 1,
                        ProbeReply::TimeExceeded { .. } => answered += 1,
                        _ => break,
                    }
                }
            }
        }
        assert!(lost > 0, "no unresponsive hops seen");
        assert!(answered > 0);
        // Retries of an unresponsive hop stay lost (it's the router, not
        // transient loss).
        'find: for ttl in 1..=25u8 {
            for salt in 0..3u64 {
                let r = net.probe(
                    ClusterId::new(0),
                    ClusterId::new(1),
                    Protocol::V4,
                    SimTime::T0,
                    ttl,
                    1,
                    salt,
                );
                if !matches!(r, ProbeReply::Lost) {
                    continue 'find;
                }
            }
            return; // found a hop lost under every retry: pass
        }
    }

    #[test]
    fn congestion_raises_rtt_at_busy_hour() {
        let topo = Arc::new(build_topology(&TopologyParams::tiny(31)));
        let oracle = Arc::new(RouteOracle::new(
            Arc::clone(&topo),
            Arc::new(Dynamics::all_up(&topo, SimTime::from_days(40))),
        ));
        // Congest the first link of cluster 0's forward path.
        let fwd = oracle
            .router_path(ClusterId::new(0), ClusterId::new(5), Protocol::V4, SimTime::T0, 1)
            .unwrap();
        let target = fwd.hops[1].ingress_link;
        let profile = LinkProfile {
            amplitude_ms: 30.0,
            peak_local_hour: 20.0,
            width_hours: 3.0,
            start_min: 0,
            end_min: SimTime::from_days(40).minutes(),
            lon_deg: 0.0,
            // Congest the forward direction (toward the hop router).
            toward: fwd.hops[1].router.0,
            v6_factor: 1.0,
        };
        let net = Network::new(
            Arc::clone(&oracle),
            CongestionModel::from_profiles(vec![(target, profile)]),
            NetworkParams { loss_prob: 0.0, spike_prob: 0.0, ..NetworkParams::default() },
        );
        let quiet = net
            .ideal_rtt(
                ClusterId::new(0),
                ClusterId::new(5),
                Protocol::V4,
                SimTime::from_days(10) + SimDuration::from_hours(5),
            )
            .unwrap();
        let busy = net
            .ideal_rtt(
                ClusterId::new(0),
                ClusterId::new(5),
                Protocol::V4,
                SimTime::from_days(10) + SimDuration::from_hours(20),
            )
            .unwrap();
        assert!(
            busy > quiet + 15.0,
            "busy {busy} not clearly above quiet {quiet}"
        );
    }

    #[test]
    fn loss_probability_is_respected() {
        let topo = Arc::new(build_topology(&TopologyParams::tiny(11)));
        let oracle = Arc::new(RouteOracle::new(
            Arc::clone(&topo),
            Arc::new(Dynamics::all_up(&topo, SimTime::from_days(5))),
        ));
        let net = Network::new(
            oracle,
            CongestionModel::none(),
            NetworkParams { loss_prob: 0.2, spike_prob: 0.0, ..NetworkParams::default() },
        );
        let n = 2000;
        let lost = (0..n)
            .filter(|&i| {
                net.ping(ClusterId::new(0), ClusterId::new(4), Protocol::V4, SimTime::T0, i)
                    .is_none()
            })
            .count();
        let frac = lost as f64 / n as f64;
        assert!((frac - 0.2).abs() < 0.05, "loss fraction = {frac}");
    }

    #[test]
    fn probe_on_resolved_path_matches_probe() {
        // Full default noise stack: the precomputed-path entry point must
        // reproduce `probe` byte-for-byte for every TTL and retry.
        let topo = Arc::new(build_topology(&TopologyParams::tiny(19)));
        let oracle = Arc::new(RouteOracle::new(
            Arc::clone(&topo),
            Arc::new(Dynamics::generate(&topo, &DynamicsParams::default())),
        ));
        let model = CongestionModel::generate(&topo, &CongestionParams::default());
        let net = Network::new(oracle, model, NetworkParams::default());
        let (src, dst) = (ClusterId::new(1), ClusterId::new(6));
        for day in [0u32, 3, 9] {
            let t = SimTime::from_days(day);
            for proto in [Protocol::V4, Protocol::V6] {
                let flow = 77;
                let fwd = net.forward_path(src, dst, proto, t, flow);
                for ttl in 1..=20u8 {
                    for salt in 0..2u64 {
                        let plain = net.probe(src, dst, proto, t, ttl, flow, salt);
                        let on = match &fwd {
                            Some(p) => net.probe_on(p, src, dst, proto, t, ttl, flow, salt),
                            None => ProbeReply::Unreachable,
                        };
                        assert_eq!(plain, on, "day {day} {proto:?} ttl {ttl} salt {salt}");
                    }
                }
            }
        }
    }

    #[test]
    fn ttl_zero_probe_is_lost() {
        // Regression: TTL 0 indexed the visible-hop list at -1 and panicked.
        // (Its counting is covered by `tests/probe_counting.rs`, which owns
        // the process-wide registry.)
        let net = quiet_network(101);
        let (src, dst) = (ClusterId::new(0), ClusterId::new(3));
        let fwd = net.forward_path(src, dst, Protocol::V4, SimTime::T0, 1).expect("reachable");
        assert_eq!(net.probe(src, dst, Protocol::V4, SimTime::T0, 0, 1, 0), ProbeReply::Lost);
        let on = net.probe_on(&fwd, src, dst, Protocol::V4, SimTime::T0, 0, 1, 0);
        assert_eq!(on, ProbeReply::Lost);
        assert!(matches!(
            net.probe(src, dst, Protocol::V4, SimTime::T0, 1, 1, 0),
            ProbeReply::TimeExceeded { .. }
        ));
    }

    #[test]
    fn probes_are_deterministic() {
        let net = quiet_network(101);
        let a = net.probe(
            ClusterId::new(2),
            ClusterId::new(6),
            Protocol::V4,
            SimTime::from_hours(7),
            3,
            5,
            1,
        );
        let b = net.probe(
            ClusterId::new(2),
            ClusterId::new(6),
            Protocol::V4,
            SimTime::from_hours(7),
            3,
            5,
            1,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn v6_probe_uses_v6_addresses() {
        let net = quiet_network(101);
        match net.probe(
            ClusterId::new(0),
            ClusterId::new(3),
            Protocol::V6,
            SimTime::T0,
            1,
            1,
            0,
        ) {
            ProbeReply::TimeExceeded { from, .. } => assert!(from.is_ipv6()),
            ProbeReply::EchoReply { from, .. } => assert!(from.is_ipv6()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn congestion_generate_integrates() {
        let topo = Arc::new(build_topology(&TopologyParams::tiny(61)));
        let oracle = Arc::new(RouteOracle::new(
            Arc::clone(&topo),
            Arc::new(Dynamics::generate(&topo, &DynamicsParams::default())),
        ));
        let model = CongestionModel::generate(&topo, &CongestionParams::default());
        let net = Network::new(oracle, model, NetworkParams::default());
        // Smoke: pings still work with the full stack.
        let mut ok = 0;
        for b in 1..topo.clusters.len().min(10) {
            if net
                .ping(ClusterId::new(0), ClusterId::from(b), Protocol::V4, SimTime::T0, 1)
                .is_some()
            {
                ok += 1;
            }
        }
        assert!(ok >= 5);
    }
}
