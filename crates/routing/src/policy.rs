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
//! run one core, a breadth-first pass per phase over the adjacency split by
//! relationship. [`table_still_exact`] decides, without recomputing,
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
/// `adj[a][j].0`; both directions of an edge share one id. The index also
/// keeps the adjacency split by relationship with these ids, which is what
/// [`compute_routes_masked`] walks.
#[derive(Debug)]
pub struct EdgeIndex {
    /// `ids[a][j]`: the id of the edge `adj[a][j]`.
    ids: Vec<Vec<u32>>,
    /// Per id: the lower endpoint and the edge's slot in its row.
    ends: Vec<(u32, u32)>,
    /// The adjacency split by relationship, entries carrying these ids.
    split: RelAdjacency,
}

impl EdgeIndex {
    /// Numbers the edges of `adj` (symmetric, as `Topology::as_adj` is) in
    /// order of their lower endpoint, in O(edges).
    pub fn new(adj: &[Vec<(usize, AsRel)>]) -> Self {
        let mut by_pair = std::collections::HashMap::new();
        let mut ends = Vec::new();
        let ids: Vec<Vec<u32>> = adj
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
        let split = RelAdjacency::new(adj, |a, j| ids[a][j]);
        EdgeIndex { ids, ends, split }
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

/// An AS adjacency list split by relationship, as compressed sparse rows:
/// AS `a`'s customers, peers and providers are three contiguous slices of
/// one flat array. Each entry is `(neighbor, edge id)`, in `adj` order.
#[derive(Debug)]
struct RelAdjacency {
    /// AS `a`'s neighbors that it regards as `rel` are
    /// `entries[start[3a + class(rel)]..start[3a + class(rel) + 1]]`.
    start: Vec<u32>,
    entries: Vec<(u32, u32)>,
}

/// The slice a relationship selects in [`RelAdjacency`]. It is also the
/// rank of a route learned from a neighbor of that relationship.
fn class(rel: AsRel) -> usize {
    match rel {
        AsRel::Customer => 0,
        AsRel::Peer => 1,
        AsRel::Provider => 2,
    }
}

impl RelAdjacency {
    /// Splits `adj`, giving the edge `adj[a][j]` the id `id(a, j)`.
    fn new(adj: &[Vec<(usize, AsRel)>], id: impl Fn(usize, usize) -> u32) -> Self {
        let mut start = Vec::with_capacity(3 * adj.len() + 1);
        let mut entries = Vec::with_capacity(adj.iter().map(Vec::len).sum());
        start.push(0);
        for (a, row) in adj.iter().enumerate() {
            for rel in [AsRel::Customer, AsRel::Peer, AsRel::Provider] {
                for (j, &(b, r)) in row.iter().enumerate() {
                    if r == rel {
                        entries.push((b as u32, id(a, j)));
                    }
                }
                start.push(entries.len() as u32);
            }
        }
        RelAdjacency { start, entries }
    }

    /// Number of ASes.
    fn len(&self) -> usize {
        self.start.len() / 3
    }

    /// AS `a`'s neighbors that `a` regards as `rel`.
    #[inline]
    fn of(&self, a: usize, rel: AsRel) -> &[(u32, u32)] {
        let k = 3 * a + class(rel);
        &self.entries[self.start[k] as usize..self.start[k + 1] as usize]
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
        EdgeMask::of_len(edges.len())
    }

    /// The empty set over ids `0..len`.
    fn of_len(len: usize) -> Self {
        EdgeMask { words: vec![0; len.div_ceil(64)] }
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
/// * `avail` filters AS edges (down links, v4-only links); it is asked
///   about an edge from the side whose neighbors the computation walks.
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
    // Each directed slot `adj[a][j]` gets its own id (its position in the
    // flattened rows), so the mask holds the predicate's answer for `a`'s
    // side even when the predicate is not symmetric.
    let row_start: Vec<usize> = adj
        .iter()
        .scan(0, |at, row| {
            *at += row.len();
            Some(*at - row.len())
        })
        .collect();
    let split = RelAdjacency::new(adj, |a, j| (row_start[a] + j) as u32);
    let mut blocked = EdgeMask::of_len(split.entries.len());
    for (a, row) in adj.iter().enumerate() {
        for (j, &(b, _)) in row.iter().enumerate() {
            if !avail.edge_up(a, b) {
                blocked.insert(row_start[a] + j);
            }
        }
    }
    Kernel { g: &split, blocked: &blocked, dst, salt }.routes()
}

/// [`compute_routes`] with availability given as the edges of `edges`
/// that are `blocked` — the form the oracle keeps per configuration.
pub fn compute_routes_masked(
    edges: &EdgeIndex,
    blocked: &EdgeMask,
    dst: usize,
    salt: u64,
) -> Vec<Option<RouteEntry>> {
    Kernel { g: &edges.split, blocked, dst, salt }.routes()
}

/// An AS's best offer so far at the path length being settled: the
/// offering neighbor and its tie-break score.
#[derive(Clone, Copy)]
struct Offer {
    tb: u64,
    via: u32,
}

/// No offer yet.
const NO_OFFER: Offer = Offer { tb: 0, via: u32::MAX };

/// Buffers a route computation reuses from call to call on one thread,
/// so that only the returned table allocates.
#[derive(Default)]
struct Scratch {
    /// Per AS: its best offer at the path length being settled.
    best: Vec<Offer>,
    /// The ASes routed at the previous length.
    frontier: Vec<u32>,
    /// The ASes offered a route at the current length.
    offered: Vec<u32>,
    /// The ASes routed before the provider phase, by path length.
    seeds: Vec<u32>,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::default();
}

/// One route computation: the split adjacency, the blocked edges, the
/// destination and the tie-break salt.
struct Kernel<'a> {
    g: &'a RelAdjacency,
    blocked: &'a EdgeMask,
    dst: usize,
    salt: u64,
}

impl Kernel<'_> {
    /// Every AS's selected route toward `dst`.
    ///
    /// Each AS selects the least of its offers by (rank, len, tie-break),
    /// and the tie-break is injective in the offering neighbor, so the
    /// result does not depend on the order offers arrive in. That lets
    /// every phase settle whole path lengths at once — a level-synchronous
    /// BFS with one best-offer slot per AS — instead of sorting
    /// candidates or keeping a heap.
    fn routes(&self) -> Vec<Option<RouteEntry>> {
        let n = self.g.len();
        assert!(self.dst < n, "destination {} out of range", self.dst);
        let mut routes: Vec<Option<RouteEntry>> = vec![None; n];
        routes[self.dst] = Some(RouteEntry { next: self.dst as u32, rank: 0, len: 0 });
        SCRATCH.with_borrow_mut(|s| {
            let Scratch { best, frontier, offered, seeds } = s;
            best.clear();
            best.resize(n, NO_OFFER);

            // Phase 1 — customer routes: BFS from dst climbing provider
            // edges. An AS x reached via its customer c selects next-hop c
            // with rank 0.
            frontier.clear();
            frontier.push(self.dst as u32);
            let mut len: u8 = 0;
            while !frontier.is_empty() && len < u8::MAX {
                len += 1;
                offered.clear();
                self.offer(&routes, best, frontier, AsRel::Provider, offered);
                settle(&mut routes, best, offered, 0, len);
                std::mem::swap(frontier, offered);
            }

            // Phase 2 — peer routes: one hop across a peering edge from any
            // AS with a customer route (or the destination).
            for x in 0..n {
                if routes[x].is_some() {
                    continue;
                }
                let mut pick: Option<(u8, u64, u32)> = None;
                for &(p, e) in self.g.of(x, AsRel::Peer) {
                    let Some(r) = routes[p as usize] else { continue };
                    if r.rank != 0 || r.len == u8::MAX || self.blocked.contains(e as usize) {
                        continue;
                    }
                    let offer = (r.len + 1, tiebreak(self.dst, x, p as usize, self.salt), p);
                    if pick.is_none_or(|b| (offer.0, offer.1) < (b.0, b.1)) {
                        pick = Some(offer);
                    }
                }
                if let Some((len, _, p)) = pick {
                    routes[x] = Some(RouteEntry { next: p, rank: 1, len });
                }
            }

            // Phase 3 — provider routes: BFS by path length down
            // provider→customer edges. The exporters at length L are the
            // ASes this phase routed at L - 1 plus the earlier phases' ASes
            // of length L - 1, bucketed by a counting sort on length.
            let mut at = [0u32; 257];
            for r in routes.iter().flatten() {
                at[usize::from(r.len) + 1] += 1;
            }
            for l in 1..at.len() {
                at[l] += at[l - 1];
            }
            let mut fill = at;
            seeds.resize(at[256] as usize, 0);
            for (x, r) in routes.iter().enumerate() {
                if let Some(r) = r {
                    let k = &mut fill[usize::from(r.len)];
                    seeds[*k as usize] = x as u32;
                    *k += 1;
                }
            }
            frontier.clear();
            for len in 1..=u8::MAX {
                let shorter = usize::from(len - 1);
                if frontier.is_empty() && at[shorter] == at[256] {
                    break;
                }
                let exporters = &seeds[at[shorter] as usize..at[shorter + 1] as usize];
                offered.clear();
                self.offer(&routes, best, exporters, AsRel::Customer, offered);
                self.offer(&routes, best, frontier, AsRel::Customer, offered);
                settle(&mut routes, best, offered, 2, len);
                std::mem::swap(frontier, offered);
            }
        });
        routes
    }

    /// Offers each exporter's route to its still-unrouted neighbors of
    /// relationship `rel` over usable edges. Each neighbor keeps the offer
    /// with the lowest tie-break; one offered for the first time at this
    /// length joins `offered`.
    fn offer(
        &self,
        routes: &[Option<RouteEntry>],
        best: &mut [Offer],
        exporters: &[u32],
        rel: AsRel,
        offered: &mut Vec<u32>,
    ) {
        for &y in exporters {
            for &(x, e) in self.g.of(y as usize, rel) {
                if routes[x as usize].is_some() || self.blocked.contains(e as usize) {
                    continue;
                }
                let tb = tiebreak(self.dst, x as usize, y as usize, self.salt);
                let slot = &mut best[x as usize];
                if slot.via == NO_OFFER.via {
                    offered.push(x);
                } else if tb > slot.tb {
                    continue;
                }
                *slot = Offer { tb, via: y };
            }
        }
    }
}

/// Routes every offered AS over its best offer with `rank` and `len`, and
/// clears the offer.
fn settle(
    routes: &mut [Option<RouteEntry>],
    best: &mut [Offer],
    offered: &[u32],
    rank: u8,
    len: u8,
) {
    for &x in offered {
        let o = std::mem::replace(&mut best[x as usize], NO_OFFER);
        routes[x as usize] = Some(RouteEntry { next: o.via, rank, len });
    }
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
    let rank = class(rel_x_to_y) as u8;
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

    /// The table under [`AllUp`], checked against the reference.
    fn checked_routes(adj: &[Vec<(usize, AsRel)>], dst: usize) -> Vec<Option<RouteEntry>> {
        let r = compute_routes(adj, dst, &AllUp, 0);
        assert_eq!(r, reference_routes(adj, dst, |_, _| true, 0), "dst {dst}");
        r
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
        let r = checked_routes(&long_chain(None), 299);
        for (i, e) in r.iter().enumerate() {
            let hops = 299 - i;
            assert_eq!(e.map(|e| usize::from(e.len)), (hops <= 255).then_some(hops), "AS {i}");
        }
        assert_lengths_consistent(&r, 299);
    }

    #[test]
    fn long_chain_with_destination_at_the_bottom_stops_at_255_hops() {
        let r = checked_routes(&long_chain(None), 0);
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
            let r = checked_routes(&long_chain(Some(peer_at)), 0);
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
        let up = |a: usize, j: usize| !blocked.contains(edges.id(a, j));
        for dst in 0..t.as_adj.len() {
            let masked = compute_routes_masked(&edges, &blocked, dst, 3);
            assert_eq!(masked, compute_routes(&t.as_adj, dst, &avail, 3), "dst {dst}");
            assert_eq!(masked, reference_routes(&t.as_adj, dst, up, 3), "dst {dst}");
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
                let old = compute_routes_masked(&edges, &was, dst, salt);
                if table_still_exact(&adj, &edges, &old, &was, &now, dst, salt) {
                    let fresh = compute_routes_masked(&edges, &now, dst, salt);
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

    /// The route computation as it was before the split-adjacency kernel,
    /// kept as the reference: per-depth candidate sorts in the customer
    /// phase and a binary heap in the provider phase, walking `adj` rows
    /// and asking `up(a, j)` about the edge `adj[a][j]`.
    fn reference_routes(
        adj: &[Vec<(usize, AsRel)>],
        dst: usize,
        up: impl Fn(usize, usize) -> bool,
        salt: u64,
    ) -> Vec<Option<RouteEntry>> {
        let n = adj.len();
        assert!(dst < n, "destination {dst} out of range");
        let mut routes: Vec<Option<RouteEntry>> = vec![None; n];
        routes[dst] = Some(RouteEntry { next: dst as u32, rank: 0, len: 0 });

        let mut frontier = vec![dst];
        let mut depth: u8 = 0;
        while !frontier.is_empty() && depth < u8::MAX {
            depth += 1;
            let mut next_frontier = Vec::new();
            let mut candidates: Vec<(usize, usize)> = Vec::new();
            for &c in &frontier {
                for (j, &(x, rel_c_to_x)) in adj[c].iter().enumerate() {
                    if rel_c_to_x == Provider && routes[x].is_none() && up(c, j) {
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

        let mut peer_candidates: Vec<(usize, usize, u8)> = Vec::new();
        for x in 0..n {
            if routes[x].is_some() {
                continue;
            }
            for (j, &(p, rel_x_to_p)) in adj[x].iter().enumerate() {
                if rel_x_to_p != Peer || !up(x, j) {
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

        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        // Min-heap on (len, tie-break); the AS and its next hop ride along.
        let mut heap = BinaryHeap::new();
        let export_down = |heap: &mut BinaryHeap<_>, routes: &[Option<RouteEntry>], x: usize, len: u8| {
            if len == u8::MAX {
                return;
            }
            for (j, &(c, rel_x_to_c)) in adj[x].iter().enumerate() {
                if rel_x_to_c == Customer && routes[c].is_none() && up(x, j) {
                    heap.push(Reverse((len + 1, tiebreak(dst, c, x, salt), c, x)));
                }
            }
        };
        for x in 0..n {
            if let Some(r) = routes[x] {
                export_down(&mut heap, &routes, x, r.len);
            }
        }
        while let Some(Reverse((len, _, x, via))) = heap.pop() {
            if routes[x].is_some() {
                continue;
            }
            routes[x] = Some(RouteEntry { next: via as u32, rank: 2, len });
            export_down(&mut heap, &routes, x, len);
        }
        routes
    }

    /// A random valley-free world. Each of one to three disjoint parts has
    /// a tier-1 peer mesh, transit ASes with one to three providers above
    /// them and the odd peering among themselves, and multi-homed stubs.
    /// Some worlds hang a provider chain of 250–300 ASes below a random AS,
    /// so routes run into the 255-hop cap in every phase.
    fn valley_free_graph(rng: &mut rand::rngs::StdRng) -> (Vec<Vec<(usize, AsRel)>>, Vec<usize>) {
        use rand::Rng;
        let mut pairs = std::collections::BTreeSet::new();
        let mut edges = Vec::new();
        let mut link = |a: usize, b: usize, rel: AsRel| {
            if a != b && pairs.insert((a.min(b), a.max(b))) {
                edges.push((a, b, rel));
            }
        };
        let mut n = 0;
        for _ in 0..rng.random_range(1usize..=3) {
            let base = n;
            let tier1 = rng.random_range(1usize..=4);
            let transit = rng.random_range(0usize..=8);
            let stubs = rng.random_range(0usize..=10);
            for a in base..base + tier1 {
                for b in a + 1..base + tier1 {
                    link(a, b, Peer);
                }
            }
            for x in base + tier1..base + tier1 + transit {
                for _ in 0..rng.random_range(1usize..=3) {
                    link(x, rng.random_range(base..x), Provider);
                }
                if x > base + tier1 && rng.random_bool(0.4) {
                    link(x, rng.random_range(base + tier1..x), Peer);
                }
            }
            for x in base + tier1 + transit..base + tier1 + transit + stubs {
                for _ in 0..rng.random_range(1usize..=3) {
                    link(x, rng.random_range(base..base + tier1 + transit), Provider);
                }
            }
            n = base + tier1 + transit + stubs;
        }
        let mut ends = Vec::new();
        if rng.random_bool(0.3) {
            let len = rng.random_range(250usize..=300);
            link(n, rng.random_range(0..n), Provider);
            for k in n..n + len - 1 {
                link(k + 1, k, Provider);
            }
            ends = vec![n, n + len / 2, n + len - 1];
            n += len;
        }
        (graph(n, &edges), ends)
    }

    /// Both protocols' tie-break salts, as the oracle uses them.
    const SALTS: [u64; 2] = [0xA5A5_0000, 0xA5A5_0001];

    /// One seeded round: a valley-free world (or, one time in four, an
    /// arbitrary graph with provider cycles), random blocked masks, both
    /// salts; the kernel must equal the reference, table for table, in the
    /// mask form and in the predicate form with an asymmetric predicate.
    /// Returns how many tables were compared.
    fn kernel_trials(seed: u64) -> usize {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (adj, ends) = if rng.random_bool(0.25) {
            (random_graph(&mut rng), Vec::new())
        } else {
            valley_free_graph(&mut rng)
        };
        let edges = EdgeIndex::new(&adj);
        let mut dsts: Vec<usize> = if adj.len() <= 48 {
            (0..adj.len()).collect()
        } else {
            (0..16).map(|_| rng.random_range(0..adj.len())).collect()
        };
        dsts.extend(ends);
        let mut compared = 0;
        for share in [0.0, 0.1, 0.3] {
            let mut blocked = EdgeMask::empty(&edges);
            for id in 0..edges.len() {
                if rng.random_bool(share) {
                    blocked.insert(id);
                }
            }
            // Down in one direction only: (a, b) with a < b.
            let one_way: std::collections::BTreeSet<(usize, usize)> = (0..adj.len())
                .flat_map(|a| adj[a].iter().map(move |&(b, _)| (a, b)))
                .filter(|_| rng.random_bool(share))
                .collect();
            for &dst in &dsts {
                for salt in SALTS {
                    let masked = compute_routes_masked(&edges, &blocked, dst, salt);
                    let up = |a: usize, j: usize| !blocked.contains(edges.id(a, j));
                    assert_eq!(masked, reference_routes(&adj, dst, up, salt), "seed {seed}, dst {dst}");
                    let avail = |a: usize, b: usize| !one_way.contains(&(a, b));
                    let directed = compute_routes(&adj, dst, &avail, salt);
                    let up = |a: usize, j: usize| avail(a, adj[a][j].0);
                    assert_eq!(directed, reference_routes(&adj, dst, up, salt), "seed {seed}, dst {dst}");
                    compared += 2;
                }
            }
        }
        compared
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]
        #[test]
        fn prop_kernel_equals_the_heap_reference(seed: u64) {
            kernel_trials(seed);
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
