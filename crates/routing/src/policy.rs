//! Gao–Rexford valley-free route computation.
//!
//! For one destination AS, computes every other AS's selected route under
//! the standard policy model:
//!
//! 1. routes learned from customers are preferred over routes learned from
//!    peers, which beat routes learned from providers;
//! 2. among same-class routes, shorter AS paths win;
//! 3. remaining ties break deterministically by a salted hash of
//!    (destination, chooser, candidate next hop) — the stand-in for opaque
//!    local-preference policy, salted per protocol so IPv4 and IPv6 can
//!    diverge.
//!
//! Export rules are enforced by construction: customer routes propagate
//!    everywhere; peer/provider routes propagate only to customers. The
//! resulting per-AS next-hop tables are guaranteed valley-free.
//!
//! Availability comes either as an [`EdgeAvailability`] predicate
//! ([`compute_routes`]) or, as the oracle keeps it, as an [`EdgeMask`] of
//! blocked edges over an [`EdgeIndex`] ([`compute_routes_masked`]); both
//! run one core. [`table_still_exact`] decides, without recomputing,
//! whether a table stays exact when the blocked set changes.

use s2s_types::rel::AsRel;

/// One AS's selected route toward the destination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouteEntry {
    /// Next-hop AS (index).
    pub next: u32,
    /// Preference class of the route: 0 = learned from customer, 1 = from
    /// peer, 2 = from provider. The destination itself has rank 0.
    pub rank: u8,
    /// AS-path length (hops to the destination; 0 at the destination).
    pub len: u8,
}

/// Predicate deciding whether the AS-level edge between two adjacent ASes is
/// usable (at least one live interconnect link carrying the protocol).
pub trait EdgeAvailability {
    /// True when traffic can cross directly between ASes `a` and `b`.
    fn edge_up(&self, a: usize, b: usize) -> bool;
}

/// Availability that never fails (the base configuration).
pub struct AllUp;

impl EdgeAvailability for AllUp {
    fn edge_up(&self, _: usize, _: usize) -> bool {
        true
    }
}

impl<F: Fn(usize, usize) -> bool> EdgeAvailability for F {
    fn edge_up(&self, a: usize, b: usize) -> bool {
        self(a, b)
    }
}

/// Dense ids for the edges of an AS adjacency list, so an availability
/// configuration can be a bitmask instead of a set of AS pairs.
///
/// `id(a, j)` names the edge between AS `a` and its `j`-th neighbor
/// `adj[a][j].0`; both directions of an edge share one id. The rows are
/// parallel to `adj` and in the same order, so a route computation that
/// walks them sees the same neighbor sequence as one that walks `adj`.
#[derive(Debug)]
pub struct EdgeIndex {
    /// `ids[a][j]`: the id of the edge `adj[a][j]`.
    ids: Vec<Vec<u32>>,
    /// Per id: the lower endpoint and the edge's slot in its row.
    ends: Vec<(u32, u32)>,
}

impl EdgeIndex {
    /// Numbers the edges of `adj` (symmetric, as `Topology::as_adj` is) in
    /// order of their lower endpoint, in O(edges).
    pub fn new(adj: &[Vec<(usize, AsRel)>]) -> Self {
        let mut by_pair = std::collections::HashMap::new();
        let mut ends = Vec::new();
        let ids = adj
            .iter()
            .enumerate()
            .map(|(a, row)| {
                let ids = row.iter().enumerate().map(|(j, &(b, _))| {
                    let next = ends.len() as u32;
                    *by_pair.entry((a.min(b), a.max(b))).or_insert_with(|| {
                        ends.push((a as u32, j as u32));
                        next
                    })
                });
                ids.collect()
            })
            .collect();
        EdgeIndex { ids, ends }
    }

    /// The id of the edge `adj[a][j]`.
    #[inline]
    pub fn id(&self, a: usize, j: usize) -> usize {
        self.ids[a][j] as usize
    }

    /// The id of the edge between `a` and `b`, if they are adjacent.
    pub fn between(&self, adj: &[Vec<(usize, AsRel)>], a: usize, b: usize) -> Option<usize> {
        adj[a].iter().position(|&(n, _)| n == b).map(|j| self.id(a, j))
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }
}

/// A set of edge ids (of one [`EdgeIndex`]) as a bitmask.
#[derive(Clone, Debug)]
pub struct EdgeMask {
    words: Vec<u64>,
}

impl EdgeMask {
    /// The empty set over `edges`.
    pub fn empty(edges: &EdgeIndex) -> Self {
        EdgeMask { words: vec![0; edges.len().div_ceil(64)] }
    }

    /// Adds edge `id`.
    pub fn insert(&mut self, id: usize) {
        self.words[id / 64] |= 1 << (id % 64);
    }

    /// True when edge `id` is in the set.
    #[inline]
    pub fn contains(&self, id: usize) -> bool {
        self.words[id / 64] >> (id % 64) & 1 == 1
    }
}

/// Deterministic tie-break score; lower wins. Mixes destination, chooser,
/// candidate and a salt (protocol) so preferences look arbitrary-but-fixed,
/// like real local-pref policy. Injective in `candidate` for a fixed
/// (salt, dst, chooser), so two candidates never tie.
fn tiebreak(dst: usize, chooser: usize, candidate: usize, salt: u64) -> u64 {
    let mut h = 0xcbf29ce484222325u64 ^ salt;
    for v in [dst as u64, chooser as u64, candidate as u64] {
        h ^= v.wrapping_add(0x9e3779b97f4a7c15);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Computes every AS's selected route toward destination `dst`.
///
/// * `adj[i]` lists `(neighbor, rel)` with `rel` = AS `i`'s relationship
///   toward the neighbor.
/// * `avail` filters AS edges (down links, v4-only links).
/// * `salt` feeds the tie-break (use the protocol).
///
/// Returns a vector indexed by AS: `None` for unreachable ASes, and the
/// destination itself holds `RouteEntry { next: dst, rank: 0, len: 0 }`.
/// An AS whose best route would be longer than `u8::MAX` hops stays
/// unrouted.
pub fn compute_routes(
    adj: &[Vec<(usize, AsRel)>],
    dst: usize,
    avail: &impl EdgeAvailability,
    salt: u64,
) -> Vec<Option<RouteEntry>> {
    routes_with(adj, dst, |a, j| avail.edge_up(a, adj[a][j].0), salt)
}

/// [`compute_routes`] with availability given as the edges of `edges`
/// that are `blocked` — the form the oracle keeps per configuration.
pub fn compute_routes_masked(
    adj: &[Vec<(usize, AsRel)>],
    edges: &EdgeIndex,
    blocked: &EdgeMask,
    dst: usize,
    salt: u64,
) -> Vec<Option<RouteEntry>> {
    routes_with(adj, dst, |a, j| !blocked.contains(edges.id(a, j)), salt)
}

/// The route computation behind both entry points; `up(a, j)` tells
/// whether the edge `adj[a][j]` is usable.
fn routes_with(
    adj: &[Vec<(usize, AsRel)>],
    dst: usize,
    up: impl Fn(usize, usize) -> bool,
    salt: u64,
) -> Vec<Option<RouteEntry>> {
    let n = adj.len();
    assert!(dst < n, "destination {dst} out of range");
    let mut routes: Vec<Option<RouteEntry>> = vec![None; n];
    routes[dst] = Some(RouteEntry { next: dst as u32, rank: 0, len: 0 });

    // Phase 1 — customer routes: BFS from dst climbing provider edges.
    // An AS x reached via its customer c selects next-hop c with rank 0.
    let mut frontier = vec![dst];
    let mut depth: u8 = 0;
    while !frontier.is_empty() && depth < u8::MAX {
        depth += 1;
        let mut next_frontier = Vec::new();
        // Collect candidates at this depth first so equal-length choices
        // tie-break fairly rather than first-come-first-served.
        let mut candidates: Vec<(usize, usize)> = Vec::new(); // (x, via customer c)
        for &c in &frontier {
            for (j, &(x, rel_c_to_x)) in adj[c].iter().enumerate() {
                // x learns from c when c exports upward: c regards x as its
                // Provider, i.e. x regards c as Customer.
                if rel_c_to_x == AsRel::Provider && routes[x].is_none() && up(c, j) {
                    candidates.push((x, c));
                }
            }
        }
        candidates.sort_by_key(|&(x, c)| (x, tiebreak(dst, x, c, salt)));
        let mut last_x = usize::MAX;
        for (x, c) in candidates {
            if x != last_x {
                routes[x] = Some(RouteEntry { next: c as u32, rank: 0, len: depth });
                next_frontier.push(x);
                last_x = x;
            }
        }
        frontier = next_frontier;
    }

    // Phase 2 — peer routes: one hop across a peering edge from any AS with
    // a customer route (or the destination).
    let mut peer_candidates: Vec<(usize, usize, u8)> = Vec::new(); // (x, via n, len)
    for x in 0..n {
        if routes[x].is_some() {
            continue;
        }
        for (j, &(p, rel_x_to_p)) in adj[x].iter().enumerate() {
            if rel_x_to_p != AsRel::Peer || !up(x, j) {
                continue;
            }
            if let Some(r) = routes[p] {
                if r.rank == 0 && r.len < u8::MAX {
                    peer_candidates.push((x, p, r.len + 1));
                }
            }
        }
    }
    peer_candidates.sort_by_key(|&(x, p, len)| (x, len, tiebreak(dst, x, p, salt)));
    let mut last_x = usize::MAX;
    for (x, p, len) in peer_candidates {
        if x != last_x {
            routes[x] = Some(RouteEntry { next: p as u32, rank: 1, len });
            last_x = x;
        }
    }

    // Phase 3 — provider routes: Dijkstra (unit weights → BFS by length)
    // from every routed AS down provider→customer edges. Provider routes
    // can chain through other provider routes.
    use std::collections::BinaryHeap;
    #[derive(PartialEq, Eq)]
    struct Item {
        len: u8,
        tb: u64,
        x: usize,
        via: usize,
    }
    impl Ord for Item {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            // Min-heap on (len, tiebreak).
            (o.len, o.tb).cmp(&(self.len, self.tb))
        }
    }
    impl PartialOrd for Item {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }
    let mut heap = BinaryHeap::new();
    // x (routed, `len` hops out) exports its route to its customers.
    let export_down =
        |heap: &mut BinaryHeap<Item>, routes: &[Option<RouteEntry>], x: usize, len: u8| {
            if len == u8::MAX {
                return;
            }
            for (j, &(c, rel_x_to_c)) in adj[x].iter().enumerate() {
                if rel_x_to_c == AsRel::Customer && routes[c].is_none() && up(x, j) {
                    heap.push(Item { len: len + 1, tb: tiebreak(dst, c, x, salt), x: c, via: x });
                }
            }
        };
    for x in 0..n {
        if let Some(r) = routes[x] {
            export_down(&mut heap, &routes, x, r.len);
        }
    }
    while let Some(Item { len, x, via, .. }) = heap.pop() {
        if routes[x].is_some() {
            continue;
        }
        routes[x] = Some(RouteEntry { next: via as u32, rank: 2, len });
        export_down(&mut heap, &routes, x, len);
    }

    routes
}

/// True when `routes` — computed toward `dst` with tie-break `salt` while
/// the edges in `was` were blocked — is exactly what [`compute_routes`]
/// returns while the edges in `now` are blocked. Costs O(edges / 64) plus
/// O(1) per edge that changed state.
///
/// The table is a fixpoint: every AS holds the best (rank, len, tie-break)
/// offer among its usable neighbors' exports, and with positive path
/// lengths that fixpoint is unique. So the table carries over exactly when
/// every AS's best offer survives the change:
///
/// * a newly blocked edge must not be a selected next hop at either end —
///   losing a non-selected offer leaves every best offer standing;
/// * a newly usable edge must not carry an offer that beats the current
///   route at either end: a customer's rank-0 route exported up (rank 0),
///   a peer's rank-0 route exported across (rank 1), or a provider's route
///   exported down (rank 2).
pub fn table_still_exact(
    adj: &[Vec<(usize, AsRel)>],
    edges: &EdgeIndex,
    routes: &[Option<RouteEntry>],
    was: &EdgeMask,
    now: &EdgeMask,
    dst: usize,
    salt: u64,
) -> bool {
    for (w, (&old, &new)) in was.words.iter().zip(&now.words).enumerate() {
        let mut changed = old ^ new;
        while changed != 0 {
            let bit = changed.trailing_zeros() as usize;
            changed &= changed - 1;
            let (a, j) = edges.ends[w * 64 + bit];
            let (a, j) = (a as usize, j as usize);
            let (b, rel_a_to_b) = adj[a][j];
            let intact = if new >> bit & 1 == 1 {
                !selects(routes, a, b) && !selects(routes, b, a)
            } else {
                !offer_wins(routes, a, b, rel_a_to_b, dst, salt)
                    && !offer_wins(routes, b, a, rel_a_to_b.inverse(), dst, salt)
            };
            if !intact {
                return false;
            }
        }
    }
    true
}

/// True when `x`'s selected next hop is `y`.
fn selects(routes: &[Option<RouteEntry>], x: usize, y: usize) -> bool {
    routes[x].is_some_and(|r| r.next as usize == y)
}

/// True when neighbor `y` (`x` regards it as `rel_x_to_y`) exports to `x`
/// a route `x` would prefer over its current one.
fn offer_wins(
    routes: &[Option<RouteEntry>],
    x: usize,
    y: usize,
    rel_x_to_y: AsRel,
    dst: usize,
    salt: u64,
) -> bool {
    let Some(ry) = routes[y] else { return false };
    let rank = match rel_x_to_y {
        AsRel::Customer => 0,
        AsRel::Peer => 1,
        AsRel::Provider => 2,
    };
    // Customers and peers export only their customer routes.
    if x == dst || ry.len == u8::MAX || (rank < 2 && ry.rank != 0) {
        return false;
    }
    let offer = (rank, ry.len + 1, tiebreak(dst, x, y, salt));
    match routes[x] {
        None => true,
        Some(rx) => offer < (rx.rank, rx.len, tiebreak(dst, x, rx.next as usize, salt)),
    }
}

/// Reconstructs the AS-index path from `src` to `dst` by following selected
/// next hops. `None` when `src` has no route.
pub fn reconstruct_path(
    routes: &[Option<RouteEntry>],
    src: usize,
    dst: usize,
) -> Option<Vec<usize>> {
    let mut path = vec![src];
    let mut cur = src;
    while cur != dst {
        let r = routes[cur]?;
        let next = r.next as usize;
        debug_assert!(
            !path.contains(&next),
            "next-hop chain loops: {path:?} -> {next}"
        );
        path.push(next);
        cur = next;
        if path.len() > routes.len() {
            return None; // defensive: corrupt table
        }
    }
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2s_types::rel::AsRel::*;

    /// Builds adjacency from (a, b, a's rel toward b) triples.
    fn graph(n: usize, edges: &[(usize, usize, AsRel)]) -> Vec<Vec<(usize, AsRel)>> {
        let mut adj = vec![Vec::new(); n];
        for &(a, b, rel) in edges {
            adj[a].push((b, rel));
            adj[b].push((a, rel.inverse()));
        }
        adj
    }

    /// A classic two-tier-1 diamond:
    ///   0 -- 1 are tier-1 peers; 2 is customer of 0; 3 is customer of 1;
    ///   4 is customer of both 2 and 3.
    fn diamond() -> Vec<Vec<(usize, AsRel)>> {
        graph(
            5,
            &[
                (0, 1, Peer),
                (2, 0, Provider), // 2's provider is 0
                (3, 1, Provider),
                (4, 2, Provider),
                (4, 3, Provider),
            ],
        )
    }

    #[test]
    fn customer_routes_preferred() {
        let adj = diamond();
        // Routes toward 4: AS 2 and AS 3 both have customer routes.
        let r = compute_routes(&adj, 4, &AllUp, 0);
        assert_eq!(r[2].unwrap().rank, 0);
        assert_eq!(r[2].unwrap().len, 1);
        assert_eq!(r[3].unwrap().rank, 0);
        // Tier-1 0 reaches 4 via its customer 2 (customer route, len 2).
        assert_eq!(r[0].unwrap().rank, 0);
        assert_eq!(r[0].unwrap().next, 2);
        assert_eq!(r[0].unwrap().len, 2);
    }

    #[test]
    fn peer_routes_cross_the_top() {
        let adj = diamond();
        // Routes toward 2 (customer of 0 only): AS 1 must cross the peering.
        let r = compute_routes(&adj, 2, &AllUp, 0);
        assert_eq!(r[1].unwrap().rank, 1, "tier-1 1 uses the peer route");
        assert_eq!(r[1].unwrap().next, 0);
        // AS 3 has no customer/peer route to 2; it goes up to provider 1.
        assert_eq!(r[3].unwrap().rank, 2);
        let path = reconstruct_path(&r, 3, 2).unwrap();
        assert_eq!(path, vec![3, 1, 0, 2]);
    }

    #[test]
    fn valley_free_invariant_holds() {
        let adj = diamond();
        for dst in 0..5 {
            let r = compute_routes(&adj, dst, &AllUp, 0);
            for src in 0..5 {
                let path = reconstruct_path(&r, src, dst).expect("connected");
                assert_valley_free(&adj, &path);
            }
        }
    }

    /// Once a path goes down (provider→customer) or sideways (peer), it may
    /// never go up (customer→provider) or sideways again.
    fn assert_valley_free(adj: &[Vec<(usize, AsRel)>], path: &[usize]) {
        let mut descending = false;
        for w in path.windows(2) {
            let rel = adj[w[0]]
                .iter()
                .find(|(n, _)| *n == w[1])
                .map(|(_, r)| *r)
                .expect("adjacent");
            match rel {
                Provider => {
                    assert!(!descending, "valley in path {path:?}");
                }
                Peer => {
                    assert!(!descending, "peer after descent in {path:?}");
                    descending = true;
                }
                Customer => descending = true,
            }
        }
    }

    #[test]
    fn unreachable_when_edges_down() {
        let adj = diamond();
        // Take down both of 4's transit edges.
        let avail =
            |a: usize, b: usize| !matches!((a.min(b), a.max(b)), (2, 4) | (3, 4));
        let r = compute_routes(&adj, 4, &avail, 0);
        assert!(r[0].is_none());
        assert!(r[2].is_none());
        assert_eq!(r[4].unwrap().len, 0, "destination always routes to itself");
    }

    #[test]
    fn failover_lengthens_path() {
        let adj = diamond();
        // 4 -> 2 -> 0: base route for 0 toward 4 has len 2 via customer 2.
        let avail = |a: usize, b: usize| (a.min(b), a.max(b)) != (2, 4);
        let r = compute_routes(&adj, 4, &avail, 0);
        // Now 0 must go 0 -> 1 -> 3 -> 4? 0's options: customer 2 has no
        // route; peer 1 has customer route (1->3->4, len 2). So 0 via peer.
        assert_eq!(r[0].unwrap().rank, 1);
        let p = reconstruct_path(&r, 0, 4).unwrap();
        assert_eq!(p, vec![0, 1, 3, 4]);
    }

    #[test]
    fn salt_changes_tiebreaks_somewhere() {
        // A graph with genuine ties: 4 has two providers, both reaching dst
        // with equal rank/len.
        let adj = diamond();
        // Route from 4 toward 0: via 2 (customer route of 2? no - 2's route
        // to 0 is provider route). 4's options: provider 2 (len 2) and
        // provider 3 (len 3 via 1..0). Here lens differ; make symmetric dst.
        // Instead check: over many destinations and salts, selected tables
        // differ for at least one (graph ties exist between 2/3 for some).
        let mut differs = false;
        for dst in 0..5 {
            let a = compute_routes(&adj, dst, &AllUp, 1);
            let b = compute_routes(&adj, dst, &AllUp, 2);
            if a != b {
                differs = true;
            }
        }
        // The diamond is small; ties may resolve identically. Build a graph
        // with a guaranteed tie: dst 0 with two equal providers 1 and 2 both
        // customers of 3... then 3 -> 0 has two equal-rank equal-len options.
        let adj2 = graph(
            4,
            &[
                (0, 1, Provider),
                (0, 2, Provider),
                (1, 3, Provider),
                (2, 3, Provider),
            ],
        );
        for salt in 0..64u64 {
            let r = compute_routes(&adj2, 0, &AllUp, salt);
            let n = r[3].unwrap().next;
            if n == 2 {
                differs = true;
            }
        }
        assert!(differs, "tie-break never flipped across salts");
    }

    #[test]
    fn reconstruct_none_when_unrouted() {
        let adj = graph(3, &[(0, 1, Peer)]);
        let r = compute_routes(&adj, 0, &AllUp, 0);
        assert_eq!(reconstruct_path(&r, 2, 0), None);
        // Peer 1 reaches 0 directly.
        assert_eq!(reconstruct_path(&r, 1, 0), Some(vec![1, 0]));
    }

    #[test]
    fn topology_scale_routes_everyone() {
        use s2s_topology::{build_topology, TopologyParams};
        let t = build_topology(&TopologyParams::tiny(3));
        // Every non-fabric AS should reach every other.
        let dst = 0; // a tier-1
        let r = compute_routes(&t.as_adj, dst, &AllUp, 0);
        for (i, a) in t.ases.iter().enumerate() {
            if a.kind == s2s_topology::AsKind::IxpFabric {
                continue;
            }
            assert!(r[i].is_some(), "{} has no route to tier-1", a.asn);
            let p = reconstruct_path(&r, i, dst).unwrap();
            assert!(p.len() <= 8, "suspiciously long path {p:?}");
        }
    }

    #[test]
    fn paths_are_loop_free_at_scale() {
        use s2s_topology::{build_topology, TopologyParams};
        let t = build_topology(&TopologyParams::tiny(8));
        for dst in (0..t.ases.len()).step_by(7) {
            let r = compute_routes(&t.as_adj, dst, &AllUp, 1);
            for src in (0..t.ases.len()).step_by(5) {
                if let Some(p) = reconstruct_path(&r, src, dst) {
                    let mut sorted = p.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    assert_eq!(sorted.len(), p.len(), "loop in {p:?}");
                }
            }
        }
    }

    /// Every routed AS's length counts the hops of its reconstructed path.
    fn assert_lengths_consistent(r: &[Option<RouteEntry>], dst: usize) {
        for (src, e) in r.iter().enumerate() {
            if let Some(e) = e {
                let path = reconstruct_path(r, src, dst).expect("routed AS reaches dst");
                assert_eq!(usize::from(e.len), path.len() - 1, "AS {src}");
            }
        }
    }

    /// A 300-AS provider chain (AS i's provider is AS i + 1), optionally
    /// with the edge between `peer_at` and `peer_at + 1` a peering instead.
    fn long_chain(peer_at: Option<usize>) -> Vec<Vec<(usize, AsRel)>> {
        let edges: Vec<_> = (0..299)
            .map(|i| match peer_at {
                Some(p) if i == p => (i, i + 1, Peer),
                // Above the peering the chain runs downhill: i + 1 is i's
                // customer, so routes from below cross the top once.
                Some(p) if i > p => (i, i + 1, Customer),
                _ => (i, i + 1, Provider),
            })
            .collect();
        graph(300, &edges)
    }

    #[test]
    fn long_chain_with_destination_at_the_top_stops_at_255_hops() {
        // Provider routes chain down from AS 299: AS 299 - k is k hops out,
        // and the ASes past 255 hops stay unrouted instead of wrapping.
        let r = compute_routes(&long_chain(None), 299, &AllUp, 0);
        for (i, e) in r.iter().enumerate() {
            let hops = 299 - i;
            assert_eq!(e.map(|e| usize::from(e.len)), (hops <= 255).then_some(hops), "AS {i}");
        }
        assert_lengths_consistent(&r, 299);
    }

    #[test]
    fn long_chain_with_destination_at_the_bottom_stops_at_255_hops() {
        let r = compute_routes(&long_chain(None), 0, &AllUp, 0);
        for (i, e) in r.iter().enumerate() {
            assert_eq!(e.is_some(), i <= 255, "AS {i}");
        }
        assert_lengths_consistent(&r, 0);
    }

    #[test]
    fn long_chain_across_a_peering_stops_at_255_hops() {
        // The peering early puts the cap in the provider phase; at 255 the
        // peer route itself would be hop 256.
        for peer_at in [149, 254, 255] {
            let r = compute_routes(&long_chain(Some(peer_at)), 0, &AllUp, 0);
            for (i, e) in r.iter().enumerate() {
                assert_eq!(e.is_some(), i <= 255, "peering at {peer_at}, AS {i}");
            }
            if peer_at < 255 {
                assert_eq!(r[peer_at + 1].unwrap().rank, 1);
            }
            assert_lengths_consistent(&r, 0);
        }
    }

    #[test]
    fn masked_and_predicate_forms_agree() {
        use s2s_topology::{build_topology, TopologyParams};
        let t = build_topology(&TopologyParams::tiny(4));
        let edges = EdgeIndex::new(&t.as_adj);
        let mut blocked = EdgeMask::empty(&edges);
        for id in (0..edges.len()).step_by(5) {
            blocked.insert(id);
        }
        let avail = |a: usize, b: usize| {
            !blocked.contains(edges.between(&t.as_adj, a, b).expect("adjacent"))
        };
        for dst in 0..t.as_adj.len() {
            assert_eq!(
                compute_routes_masked(&t.as_adj, &edges, &blocked, dst, 3),
                compute_routes(&t.as_adj, dst, &avail, 3),
                "dst {dst}"
            );
        }
    }

    /// A random small graph with every relationship kind (provider cycles
    /// and valleys included: the computation is defined on any graph).
    fn random_graph(rng: &mut rand::rngs::StdRng) -> Vec<Vec<(usize, AsRel)>> {
        use rand::Rng;
        let n = rng.random_range(3usize..12);
        let mut edges = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                if rng.random_bool(0.35) {
                    edges.push((a, b, [Customer, Peer, Provider][rng.random_range(0usize..3)]));
                }
            }
        }
        graph(n, &edges)
    }

    /// One seeded round of reuse trials: random configurations C and C′
    /// (C′ flips a few edges of C, or is drawn afresh) on a random graph.
    /// Whenever `table_still_exact` accepts the C table for C′, that table
    /// must equal the C′ computation. Returns (accepted, rejected).
    fn reuse_trials(seed: u64) -> (usize, usize) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let adj = random_graph(&mut rng);
        let edges = EdgeIndex::new(&adj);
        let (mut accepted, mut rejected) = (0, 0);
        if edges.is_empty() {
            return (accepted, rejected);
        }
        for _ in 0..16 {
            let mut was = EdgeMask::empty(&edges);
            for id in 0..edges.len() {
                if rng.random_bool(0.25) {
                    was.insert(id);
                }
            }
            let now = if rng.random_bool(0.8) {
                let mut now = EdgeMask::empty(&edges);
                let flips: Vec<usize> = (0..rng.random_range(1usize..3))
                    .map(|_| rng.random_range(0..edges.len()))
                    .collect();
                for id in 0..edges.len() {
                    if was.contains(id) != flips.contains(&id) {
                        now.insert(id);
                    }
                }
                now
            } else {
                let mut now = EdgeMask::empty(&edges);
                for id in 0..edges.len() {
                    if rng.random_bool(0.25) {
                        now.insert(id);
                    }
                }
                now
            };
            for dst in 0..adj.len() {
                let salt = rng.random_range(0u64..4);
                let old = compute_routes_masked(&adj, &edges, &was, dst, salt);
                if table_still_exact(&adj, &edges, &old, &was, &now, dst, salt) {
                    let fresh = compute_routes_masked(&adj, &edges, &now, dst, salt);
                    assert_eq!(old, fresh, "seed {seed}, dst {dst}: reused a stale table");
                    accepted += 1;
                } else {
                    rejected += 1;
                }
            }
        }
        (accepted, rejected)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]
        #[test]
        fn prop_reuse_check_is_exact(seed: u64) {
            reuse_trials(seed);
        }
    }

    #[test]
    fn reuse_check_accepts_a_share_of_changes() {
        // The exactness property above would pass vacuously if the check
        // rejected everything; pin that it accepts, and rejects, real shares.
        let (accepted, rejected) =
            (0..64).map(reuse_trials).fold((0, 0), |(a, r), (da, dr)| (a + da, r + dr));
        let share = accepted as f64 / (accepted + rejected) as f64;
        assert!((0.2..0.95).contains(&share), "{accepted} accepted, {rejected} rejected");
    }
}
