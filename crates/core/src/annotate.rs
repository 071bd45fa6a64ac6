//! Traceroute annotation: IP → ASN, imputation, loop filtering,
//! completeness accounting.
//!
//! Implements §2.1/§4.1 of the paper:
//!
//! * every hop address maps to "the origin AS of the longest matching
//!   prefix observed in BGP",
//! * traceroutes are classified for Table 1: *complete AS-level data* (all
//!   hops responsive and mapped), *missing AS-level data* (a responsive hop
//!   with no IP-to-ASN mapping), *missing IP-level data* (an unresponsive
//!   hop),
//! * unknown hops flanked by the same ASN are imputed (§4.1),
//! * traceroutes whose AS path still loops are flagged for exclusion
//!   (2.16% over IPv4, 5.5% over IPv6 in the paper's data).

use s2s_bgp::Ip2AsnMap;
use s2s_probe::TracerouteRecord;
use s2s_types::AsPath;
use serde::{Deserialize, Serialize};

/// Table-1 completeness class of a completed traceroute.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Completeness {
    /// Every hop answered and mapped to an ASN.
    CompleteAsLevel,
    /// All hops answered, but at least one had no IP-to-ASN mapping.
    MissingAsLevel,
    /// At least one hop never answered.
    MissingIpLevel,
}

/// A traceroute after annotation.
#[derive(Clone, Debug, PartialEq)]
pub struct Annotated {
    /// The AS-level path (after duplicate collapsing and imputation).
    /// Unknown hops that could not be imputed remain `None`.
    pub as_path: AsPath,
    /// Table-1 class (meaningful only for completed traceroutes).
    pub completeness: Completeness,
    /// Whether the AS path contains a loop (excluded from path analyses).
    pub has_loop: bool,
    /// Number of hops imputed.
    pub imputed: usize,
}

/// Annotates one traceroute. The destination's AS (from `dst_addr`) is
/// appended so the path spans source AS to destination AS even when the
/// last router hop sits in the provider. Timelines are annotated through
/// the memoized [`crate::ColumnarAnnotator`]; this is the per-record
/// reference it is tested against.
pub fn annotate(rec: &TracerouteRecord, map: &Ip2AsnMap) -> Annotated {
    let mut any_unmapped = false;
    let mut any_unresponsive = false;
    // IXP fabric addresses identify the exchange, not a network on the
    // AS path; like real pipelines armed with an IXP prefix list, we fold
    // them into the surrounding path (mapping them to no ASN and letting
    // imputation/omission handle the position).
    let lookup_non_ixp = |addr| {
        map.lookup(addr).filter(|a| !map.is_ixp(*a))
    };
    let src_hop = rec.src_addr.map(|a| map.lookup(a));
    let hops = src_hop
        .into_iter()
        .chain(rec.hops.iter().map(|h| match h.addr {
            Some(addr) => {
                let asn = lookup_non_ixp(addr);
                if map.lookup(addr).is_none() {
                    any_unmapped = true;
                }
                asn
            }
            None => {
                any_unresponsive = true;
                None
            }
        }))
        .chain(rec.dst_addr.map(|a| map.lookup(a)))
        .collect::<Vec<_>>();
    let mut as_path = AsPath::from_hops(hops);
    let imputed = as_path.impute_bracketed();
    // The AS path is the sequence of *mapped* ASNs (§4.1): hops that stay
    // unknown after imputation are omitted, exactly as an unresponsive hop
    // contributes no ASN to the paper's path strings. Without this, every
    // transient rate-limited hop would mint a phantom "new" AS path and
    // the change detector would count routing changes that never happened.
    let as_path = AsPath::from_hops(as_path.hops().iter().copied().flatten().map(Some));
    let completeness = if any_unresponsive {
        Completeness::MissingIpLevel
    } else if any_unmapped {
        Completeness::MissingAsLevel
    } else {
        Completeness::CompleteAsLevel
    };
    Annotated { has_loop: as_path.has_loop(), as_path, completeness, imputed }
}

/// Maps a bare hop-address sequence to an AS path (with imputation) — the
/// same procedure [`annotate`] applies to full records, for callers that
/// only kept the addresses (e.g. a campaign's reference path).
pub fn as_path_of_addrs(
    addrs: &[Option<std::net::IpAddr>],
    dst_addr: Option<std::net::IpAddr>,
    map: &Ip2AsnMap,
) -> AsPath {
    let hops = addrs
        .iter()
        .map(|a| a.and_then(|addr| map.lookup(addr).filter(|asn| !map.is_ixp(*asn))))
        .chain(dst_addr.map(|a| map.lookup(a)));
    let mut p = AsPath::from_hops(hops);
    p.impute_bracketed();
    // Same normalization as [`annotate`]: unknown hops are omitted.
    AsPath::from_hops(p.hops().iter().copied().flatten().map(Some))
}

/// Running Table-1 tallies over annotated traceroutes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompletenessCounts {
    /// Traceroutes with complete AS-level data.
    pub complete: u64,
    /// Traceroutes with a responsive but unmapped hop.
    pub missing_as_level: u64,
    /// Traceroutes with an unresponsive hop.
    pub missing_ip_level: u64,
    /// Traceroutes that never reached the destination (excluded from the
    /// three classes above, as in the paper).
    pub incomplete: u64,
    /// Completed traceroutes whose AS path loops.
    pub loops: u64,
}

impl CompletenessCounts {
    /// Folds one record (and its annotation) into the tallies.
    pub fn add(&mut self, rec: &TracerouteRecord, ann: &Annotated) {
        self.add_outcome(rec.reached, ann);
    }

    /// The record-free core of [`CompletenessCounts::add`]: the tallies
    /// depend only on the reached flag and the annotation, so the columnar
    /// plane (which never materializes a record) folds through here.
    pub fn add_outcome(&mut self, reached: bool, ann: &Annotated) {
        if !reached {
            self.incomplete += 1;
            return;
        }
        match ann.completeness {
            Completeness::CompleteAsLevel => self.complete += 1,
            Completeness::MissingAsLevel => self.missing_as_level += 1,
            Completeness::MissingIpLevel => self.missing_ip_level += 1,
        }
        if ann.has_loop {
            self.loops += 1;
        }
    }

    /// Completed traceroutes (the denominator of Table 1's percentages).
    pub fn completed(&self) -> u64 {
        self.complete + self.missing_as_level + self.missing_ip_level
    }

    /// The three Table-1 fractions: (complete, missing-AS, missing-IP).
    pub fn fractions(&self) -> (f64, f64, f64) {
        let d = self.completed() as f64;
        if d == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.complete as f64 / d,
            self.missing_as_level as f64 / d,
            self.missing_ip_level as f64 / d,
        )
    }

    /// Fraction of completed traceroutes with AS-path loops.
    pub fn loop_fraction(&self) -> f64 {
        let d = self.completed() as f64;
        if d == 0.0 {
            0.0
        } else {
            self.loops as f64 / d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2s_bgp::Ip2AsnMap;
    use s2s_probe::HopObs;
    use s2s_types::{Asn, ClusterId, IpNet, Ipv4Net, Protocol, SimTime};
    use std::net::Ipv4Addr;

    fn map() -> Ip2AsnMap {
        let anns = vec![
            (IpNet::V4(Ipv4Net::new(Ipv4Addr::new(10, 1, 0, 0), 16)), Asn::new(100)),
            (IpNet::V4(Ipv4Net::new(Ipv4Addr::new(10, 2, 0, 0), 16)), Asn::new(200)),
            (IpNet::V4(Ipv4Net::new(Ipv4Addr::new(10, 3, 0, 0), 16)), Asn::new(300)),
        ];
        Ip2AsnMap::from_announcements(&anns)
    }

    fn rec(addrs: &[Option<&str>], dst: Option<&str>) -> TracerouteRecord {
        TracerouteRecord {
            src: ClusterId::new(0),
            dst: ClusterId::new(1),
            proto: Protocol::V4,
            t: SimTime::T0,
            hops: addrs
                .iter()
                .map(|a| HopObs {
                    addr: a.map(|s| s.parse().unwrap()),
                    rtt_ms: a.map(|_| 1.0),
                })
                .collect(),
            reached: true,
            e2e_rtt_ms: Some(50.0),
            src_addr: None,
            dst_addr: dst.map(|s| s.parse().unwrap()),
        }
    }

    #[test]
    fn clean_trace_is_complete() {
        let r = rec(
            &[Some("10.1.0.1"), Some("10.1.0.5"), Some("10.2.0.1")],
            Some("10.3.0.9"),
        );
        let a = annotate(&r, &map());
        assert_eq!(a.completeness, Completeness::CompleteAsLevel);
        assert!(!a.has_loop);
        assert_eq!(
            a.as_path,
            AsPath::from_asns([Asn::new(100), Asn::new(200), Asn::new(300)])
        );
    }

    #[test]
    fn unresponsive_hop_is_missing_ip_level() {
        let r = rec(&[Some("10.1.0.1"), None, Some("10.2.0.1")], Some("10.2.0.9"));
        let a = annotate(&r, &map());
        assert_eq!(a.completeness, Completeness::MissingIpLevel);
        // The gap between different ASes is not imputable; the AS path
        // keeps only the mapped hops (so a transient silent hop does not
        // mint a phantom "new" AS path).
        assert_eq!(a.imputed, 0);
        assert_eq!(a.as_path, AsPath::from_asns([Asn::new(100), Asn::new(200)]));
    }

    #[test]
    fn unmapped_hop_is_missing_as_level() {
        let r = rec(&[Some("10.1.0.1"), Some("192.168.0.1")], Some("10.2.0.9"));
        let a = annotate(&r, &map());
        assert_eq!(a.completeness, Completeness::MissingAsLevel);
    }

    #[test]
    fn unresponsive_beats_unmapped_in_classification() {
        // Paper's Table 1 rows are disjoint; missing IP-level wins.
        let r = rec(&[Some("192.168.0.1"), None], Some("10.2.0.9"));
        let a = annotate(&r, &map());
        assert_eq!(a.completeness, Completeness::MissingIpLevel);
    }

    #[test]
    fn imputation_bridges_same_as_gap() {
        let r = rec(
            &[Some("10.1.0.1"), None, Some("10.1.0.7"), Some("10.2.0.1")],
            Some("10.2.0.9"),
        );
        let a = annotate(&r, &map());
        assert_eq!(a.imputed, 1);
        assert!(a.as_path.is_complete());
        assert_eq!(a.as_path, AsPath::from_asns([Asn::new(100), Asn::new(200)]));
        // Classification still records the unresponsive hop.
        assert_eq!(a.completeness, Completeness::MissingIpLevel);
    }

    #[test]
    fn loops_are_flagged() {
        let r = rec(
            &[Some("10.1.0.1"), Some("10.2.0.1"), Some("10.1.0.9")],
            Some("10.3.0.9"),
        );
        let a = annotate(&r, &map());
        assert!(a.has_loop);
    }

    #[test]
    fn destination_as_is_appended() {
        let r = rec(&[Some("10.1.0.1")], Some("10.3.0.9"));
        let a = annotate(&r, &map());
        assert_eq!(a.as_path.last(), Some(Asn::new(300)));
    }

    #[test]
    fn counts_fold_and_fraction() {
        let m = map();
        let mut c = CompletenessCounts::default();
        let complete = rec(&[Some("10.1.0.1")], Some("10.2.0.9"));
        let missing_ip = rec(&[Some("10.1.0.1"), None], Some("10.2.0.9"));
        let missing_as = rec(&[Some("8.8.8.8")], Some("10.2.0.9"));
        let mut unreached = rec(&[Some("10.1.0.1")], None);
        unreached.reached = false;
        for r in [&complete, &complete, &missing_ip, &missing_as, &unreached] {
            let a = annotate(r, &m);
            c.add(r, &a);
        }
        assert_eq!(c.completed(), 4);
        assert_eq!(c.incomplete, 1);
        let (f_ok, f_as, f_ip) = c.fractions();
        assert_eq!(f_ok, 0.5);
        assert_eq!(f_as, 0.25);
        assert_eq!(f_ip, 0.25);
        assert_eq!(c.loop_fraction(), 0.0);
    }

    #[test]
    fn empty_counts_have_zero_fractions() {
        let c = CompletenessCounts::default();
        assert_eq!(c.fractions(), (0.0, 0.0, 0.0));
        assert_eq!(c.loop_fraction(), 0.0);
    }
}
