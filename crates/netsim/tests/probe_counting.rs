//! Wire-level probe counting under the process-wide registry. Kept in its
//! own test binary: counting is gated on a globally installed registry,
//! which would race with the unit tests that probe uninstrumented.

use s2s_netsim::{CongestionModel, Network, NetworkParams, ProbeReply};
use s2s_routing::{Dynamics, RouteOracle};
use s2s_topology::{build_topology, TopologyParams};
use s2s_types::{ClusterId, Protocol, SimTime};
use std::sync::Arc;

#[test]
fn ttl_zero_probes_count_as_lost() {
    let topo = Arc::new(build_topology(&TopologyParams::tiny(101)));
    let oracle = Arc::new(RouteOracle::new(
        Arc::clone(&topo),
        Arc::new(Dynamics::all_up(&topo, SimTime::from_days(5))),
    ));
    let net = Network::new(
        oracle,
        CongestionModel::none(),
        NetworkParams { loss_prob: 0.0, spike_prob: 0.0, ..NetworkParams::default() },
    );
    let reg = Arc::new(s2s_obs::Registry::new());
    net.observe(&reg);
    let (src, dst) = (ClusterId::new(0), ClusterId::new(3));
    let fwd = net.forward_path(src, dst, Protocol::V4, SimTime::T0, 1).expect("reachable");
    s2s_obs::install(Arc::clone(&reg));
    let plain = net.probe(src, dst, Protocol::V4, SimTime::T0, 0, 1, 0);
    let on = net.probe_on(&fwd, src, dst, Protocol::V4, SimTime::T0, 0, 1, 0);
    s2s_obs::uninstall();
    assert_eq!((plain, on), (ProbeReply::Lost, ProbeReply::Lost));
    assert_eq!(reg.counter("netsim.probes").get(), 2);
    assert_eq!(reg.counter("netsim.probes_lost").get(), 2);
    assert_eq!(reg.counter("netsim.probes_unreachable").get(), 0);
}
