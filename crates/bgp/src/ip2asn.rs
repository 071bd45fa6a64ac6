//! IP-to-ASN mapping by longest matching prefix.
//!
//! Exactly the paper's §2.1 procedure: "mapping the IP addresses at each hop
//! to an AS number corresponding to the origin AS of the longest matching
//! prefix observed in BGP". Two tries, one per family, built from a list of
//! announcements.

use crate::trie::PrefixTrie;
use s2s_types::net::addr_key_bits;
use s2s_types::{Asn, IpNet, Protocol};
use std::net::IpAddr;

/// Longest-prefix-match IP→ASN mapper.
#[derive(Clone, Debug, Default)]
pub struct Ip2AsnMap {
    v4: PrefixTrie<Asn>,
    v6: PrefixTrie<Asn>,
    count: usize,
    /// ASNs announcing IXP switching fabrics. Addresses in fabric prefixes
    /// identify the exchange, not a transit AS — AS-path pipelines filter
    /// them with PeeringDB/PCH-style IXP prefix lists, and so do we.
    ixp_asns: std::collections::HashSet<Asn>,
}

impl Ip2AsnMap {
    /// Builds the map from `(prefix, origin ASN)` announcements.
    pub fn from_announcements<'a, I>(announcements: I) -> Self
    where
        I: IntoIterator<Item = &'a (IpNet, Asn)>,
    {
        let mut m = Ip2AsnMap::default();
        for (net, asn) in announcements {
            m.announce(*net, *asn);
        }
        m
    }

    /// Adds one announcement.
    pub fn announce(&mut self, net: IpNet, asn: Asn) {
        let (bits, len) = net.key_bits();
        match net.protocol() {
            Protocol::V4 => self.v4.insert(bits, len, asn),
            Protocol::V6 => self.v6.insert(bits, len, asn),
        }
        self.count += 1;
    }

    /// The origin ASN of the longest prefix covering `addr`, or `None` when
    /// the address is unannounced (the paper's "no known IP-to-ASN mapping").
    pub fn lookup(&self, addr: IpAddr) -> Option<Asn> {
        let bits = addr_key_bits(addr);
        match addr {
            IpAddr::V4(_) => self.v4.longest_match(bits).copied(),
            IpAddr::V6(_) => self.v6.longest_match(bits).copied(),
        }
    }

    /// [`Ip2AsnMap::lookup`] with the IXP-fabric filter applied: fabric
    /// addresses identify the exchange, not a network on the AS path, so
    /// they map to `None` here (the annotation pipeline's middle-hop rule).
    pub fn lookup_non_ixp(&self, addr: IpAddr) -> Option<Asn> {
        self.lookup(addr).filter(|a| !self.is_ixp(*a))
    }

    /// Number of announcements ingested (duplicates included).
    pub fn announcement_count(&self) -> usize {
        self.count
    }

    /// Registers an ASN as an IXP fabric origin (from an IXP prefix list).
    pub fn mark_ixp(&mut self, asn: Asn) {
        self.ixp_asns.insert(asn);
    }

    /// Whether an ASN originates only IXP fabric space.
    pub fn is_ixp(&self, asn: Asn) -> bool {
        self.ixp_asns.contains(&asn)
    }

    /// Builds the map from a topology: all announcements plus the IXP
    /// fabric ASN list (the simulated equivalent of a PeeringDB dump).
    pub fn from_topology(topo: &s2s_topology::Topology) -> Self {
        let mut m = Self::from_announcements(&topo.announcements);
        for ixp in &topo.ixps {
            m.mark_ixp(topo.asn(ixp.fabric_as));
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2s_types::{Ipv4Net, Ipv6Net};
    use std::net::{Ipv4Addr, Ipv6Addr};

    fn asn(n: u32) -> Asn {
        Asn::new(n)
    }

    #[test]
    fn maps_by_longest_prefix() {
        let anns = vec![
            (IpNet::V4(Ipv4Net::new(Ipv4Addr::new(10, 0, 0, 0), 8)), asn(100)),
            (IpNet::V4(Ipv4Net::new(Ipv4Addr::new(10, 5, 0, 0), 16)), asn(200)),
        ];
        let m = Ip2AsnMap::from_announcements(&anns);
        assert_eq!(m.lookup("10.5.1.1".parse().unwrap()), Some(asn(200)));
        assert_eq!(m.lookup("10.6.1.1".parse().unwrap()), Some(asn(100)));
        assert_eq!(m.lookup("11.0.0.1".parse().unwrap()), None);
    }

    #[test]
    fn families_are_independent() {
        let anns = vec![
            (IpNet::V4(Ipv4Net::new(Ipv4Addr::new(1, 2, 0, 0), 16)), asn(1)),
            (IpNet::V6(Ipv6Net::new("2600:1::".parse().unwrap(), 32)), asn(2)),
        ];
        let m = Ip2AsnMap::from_announcements(&anns);
        assert_eq!(m.lookup("1.2.3.4".parse().unwrap()), Some(asn(1)));
        assert_eq!(m.lookup("2600:1::1".parse().unwrap()), Some(asn(2)));
        // A v6 address that shares top bits with a v4 key must not match v4.
        assert_eq!(m.lookup("102:304::1".parse::<Ipv6Addr>().unwrap().into()), None);
        assert_eq!(m.announcement_count(), 2);
    }

    #[test]
    fn later_announcement_wins_same_prefix() {
        let mut m = Ip2AsnMap::default();
        let net = IpNet::V4(Ipv4Net::new(Ipv4Addr::new(9, 9, 0, 0), 16));
        m.announce(net, asn(1));
        m.announce(net, asn(2));
        assert_eq!(m.lookup("9.9.9.9".parse().unwrap()), Some(asn(2)));
    }

    #[test]
    fn topology_announcements_cover_ifaces() {
        use s2s_topology::{build_topology, TopologyParams};
        let t = build_topology(&TopologyParams::tiny(5));
        let m = Ip2AsnMap::from_announcements(&t.announcements);
        let mut mapped = 0;
        let mut unmapped = 0;
        for (li, l) in t.links.iter().enumerate() {
            let f = &t.ifaces[l.iface_a.index()];
            match (m.lookup(IpAddr::V4(f.v4)), l.announced_v4) {
                (Some(owner_asn), true) => {
                    let owner = l.subnet_owner.expect("announced links have owners");
                    assert_eq!(owner_asn, t.asn(owner), "link {li}");
                    mapped += 1;
                }
                (None, false) => unmapped += 1,
                (got, announced) => {
                    panic!("link {li}: lookup={got:?} but announced={announced}")
                }
            }
        }
        assert!(mapped > 0);
        // The tiny params may or may not roll an unannounced link; only the
        // consistency above is required.
        let _ = unmapped;
    }

    #[test]
    fn cluster_servers_map_to_host_as() {
        use s2s_topology::{build_topology, TopologyParams};
        let t = build_topology(&TopologyParams::tiny(6));
        let m = Ip2AsnMap::from_announcements(&t.announcements);
        for c in &t.clusters {
            assert_eq!(m.lookup(IpAddr::V4(c.v4)), Some(t.asn(c.host_as)));
            assert_eq!(m.lookup(IpAddr::V6(c.v6)), Some(t.asn(c.host_as)));
        }
    }
}
