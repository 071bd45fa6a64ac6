//! The routing oracle: snapshot queries over policy routing + dynamics.
//!
//! `s2s-netsim` and `s2s-probe` ask one question: *what router-level path
//! does a packet take between these two clusters, over this protocol, at
//! this time, for this flow?* The oracle answers by:
//!
//! 1. deriving the AS-level availability configuration at `t` from the
//!    failure dynamics (an AS edge is down when every interconnect link
//!    carrying the protocol between the two ASes is down),
//! 2. computing (and caching) the valley-free route table for the
//!    destination AS under that configuration,
//! 3. expanding the AS path to routers: per AS-edge crossing, an ECMP
//!    choice among live parallel links keyed on the flow hash; inside each
//!    AS, the delay-shortest backbone path, memoized per pair.
//!
//! Caching exploits the fact that routing is **piecewise-constant over
//! availability epochs**: the down-link set only changes at episode
//! breakpoints, so the whole horizon decomposes into epochs (see
//! `Dynamics::epochs`) inside which every routing outcome is fixed. The
//! oracle memoizes, per (epoch, protocol), the availability configuration
//! (down AS-edge set + hash) — computed once per epoch instead of once per
//! probe — and keeps per-configuration route tables and AS paths in a
//! bounded true-LRU cache shared via `Arc` (distinct epochs frequently map
//! to the same configuration, so the config layer stays small while the
//! epoch layer stays O(1) per query).
//!
//! Each configuration also carries a `blocked` bitmask over dense AS-edge
//! ids, so the route computation tests one bit per edge. A config cache
//! miss first tries the destination's last table: consecutive
//! configurations differ by an edge or two, and when
//! [`table_still_exact`] shows the change cannot move any selected route,
//! the old table is shared instead of recomputed (counted as `reused`,
//! not as a miss).
//!
//! Router paths are memoized per (source cluster, destination cluster,
//! protocol). A path depends on the AS path, the live interconnects of
//! each AS edge on it, and static data; the flow only picks one of at
//! most two live links per edge. So an entry keeps the AS path, the
//! interval over which every interconnect on it keeps its state, and one
//! expansion per pick vector, and is used only while `t` is inside the
//! interval and the configuration at `t` still yields its AS path (see
//! [`RouteOracle::router_path`]). Counted as `path_hits` / `path_builds`.

use crate::dynamics::Dynamics;
use crate::intra::IntraAsPaths;
use crate::policy::{
    compute_routes_masked, reconstruct_path, table_still_exact, EdgeIndex, EdgeMask, RouteEntry,
};
use parking_lot::{Mutex, RwLock};
use s2s_topology::Topology;
use s2s_types::{ClusterId, LinkId, Protocol, RouterId, SimTime};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// One hop of an expanded router-level path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hop {
    /// The router the packet reaches.
    pub router: RouterId,
    /// The link it arrived on (its ingress interface identifies the hop in
    /// traceroute output).
    pub ingress_link: LinkId,
    /// Hidden from traceroute: an interior hop of an MPLS network with TTL
    /// propagation disabled.
    pub hidden: bool,
}

/// A fully expanded path between two cluster servers.
#[derive(Clone, Debug, PartialEq)]
pub struct RouterPath {
    /// Every router hop from the source cluster's attachment router to the
    /// destination cluster's attachment router, inclusive.
    pub hops: Vec<Hop>,
    /// The ground-truth AS-level path (AS indices, source first).
    pub as_path_idx: Vec<usize>,
    /// One-way propagation + forwarding delay in ms (no congestion/noise —
    /// `s2s-netsim` layers those on top).
    pub one_way_delay_ms: f64,
}

/// How many recent availability configurations to keep cached.
const CONFIG_CACHE_CAP: usize = 24;

/// Above this many (epoch, protocol) slots the per-epoch memo vector is
/// not allocated and configurations are derived per query (the LRU config
/// cache still bounds the expensive route-table work).
const MAX_EPOCH_SLOTS: usize = 1 << 23;

type Table = Arc<Vec<Option<RouteEntry>>>;
/// A route table and the configuration it was last known exact for.
type LastTable = (Arc<EpochCfg>, Table);
/// A shared AS-index path (source first).
pub type AsPath = Arc<Vec<usize>>;

/// The availability configuration of one (epoch, protocol): which AS edges
/// are down, plus the FNV hash identifying the config cache entry, and the
/// `blocked` mask route computation reads — the down edges plus the edges
/// with no link carrying the protocol.
struct EpochCfg {
    hash: u64,
    /// Read only by the test pinning it to the per-probe derivation; the
    /// query path reads `blocked`.
    #[cfg_attr(not(test), allow(dead_code))]
    down: BTreeSet<(u32, u32)>,
    blocked: EdgeMask,
}

/// One cached configuration: lazily filled per-destination route tables and
/// per-(src, dst) AS paths, with an LRU recency stamp (atomic so hits can
/// refresh it under the shared read lock).
struct ConfigEntry {
    tables: HashMap<usize, Table>,
    paths: HashMap<(usize, usize), Option<AsPath>>,
    stamp: AtomicU64,
}

#[derive(Default)]
struct ConfigCache {
    /// (config hash, protocol) → cached tables/paths for that config.
    configs: HashMap<(u64, Protocol), ConfigEntry>,
    tick: AtomicU64,
}

impl ConfigCache {
    fn touch(&self, entry: &ConfigEntry) {
        entry
            .stamp
            .store(self.tick.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    /// Get-or-insert a config entry, evicting the least recently used one
    /// beyond capacity. The returned entry's stamp is refreshed.
    fn entry_mut(
        &mut self,
        key: (u64, Protocol),
        evictions: &s2s_obs::Counter,
    ) -> &mut ConfigEntry {
        if !self.configs.contains_key(&key) {
            while self.configs.len() >= CONFIG_CACHE_CAP {
                let victim = self
                    .configs
                    .iter()
                    .min_by_key(|(_, e)| e.stamp.load(Ordering::Relaxed))
                    .map(|(k, _)| *k);
                match victim {
                    Some(v) => {
                        self.configs.remove(&v);
                        evictions.inc();
                        s2s_obs::event("oracle.cache.eviction", || {
                            format!(
                                "config (hash {:#018x}, {:?}) evicted at capacity {CONFIG_CACHE_CAP}",
                                v.0, v.1
                            )
                        });
                    }
                    None => break,
                }
            }
            self.configs.insert(
                key,
                ConfigEntry {
                    tables: HashMap::new(),
                    paths: HashMap::new(),
                    stamp: AtomicU64::new(0),
                },
            );
        }
        let stamp = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let entry = self.configs.get_mut(&key).expect("just ensured");
        entry.stamp.store(stamp, Ordering::Relaxed);
        entry
    }
}

/// The memoized router paths of one (source cluster, destination
/// cluster, protocol). A router path is fully determined by the AS path
/// (from the configuration at `t`), the live interconnect list of each AS
/// edge on it, and static data; the flow enters only through one ECMP
/// pick per edge with two or more live links. So the entry holds the AS
/// path and the interval over which every live list on it stays constant,
/// and caches one expansion per pick vector.
struct PathMemo {
    /// The AS path (`None`: unreachable) under the configuration hashed
    /// `cfg_hash`.
    as_path: Option<AsPath>,
    /// The route table the AS path was reconstructed from (`None` for a
    /// same-AS pair, whose path needs no table).
    table: Option<Table>,
    cfg_hash: u64,
    /// Per AS edge `(x, y)` of the path: its live link count.
    edges: Vec<(usize, usize, usize)>,
    /// Every protocol-capable interconnect on the path's edges keeps its
    /// up/down state over minutes `[lo, hi)`.
    lo: u32,
    hi: u64,
    /// Expanded paths by pick vector (bit `i`: the pick at the `i`-th edge
    /// with two or more live links), sorted by key.
    variants: Vec<(u64, Option<Arc<RouterPath>>)>,
}

impl PathMemo {
    fn covers(&self, t: SimTime) -> bool {
        (self.lo..).contains(&t.minutes()) && u64::from(t.minutes()) < self.hi
    }

    /// The pick vector of `flow`, or `None` when it does not fit a key
    /// (more than 64 edges with a choice) or an edge has no live link.
    fn key(&self, flow: u64) -> Option<u64> {
        let mut key = 0u64;
        let mut bit = 0;
        for &(x, y, live) in &self.edges {
            match live {
                0 => return None,
                1 => {}
                _ if bit == u64::BITS => return None,
                _ => {
                    key |= (flow_hash(flow, x, y) % 2) << bit;
                    bit += 1;
                }
            }
        }
        Some(key)
    }
}

/// Per source cluster, lazily allocated: one memo slot per (destination
/// cluster, protocol) — slot `2 * dst + proto`.
type PathRow = Box<[Mutex<Option<Box<PathMemo>>>]>;

/// Cache effectiveness counters (see `RouteOracle::cache_stats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Table/path lookups answered from the config cache.
    pub hits: u64,
    /// Route-table computations (config cache misses the last table of
    /// the destination could not answer).
    pub misses: u64,
    /// Config cache misses answered by the destination's last table,
    /// which the configuration change provably left exact.
    pub reused: u64,
    /// Configurations evicted from the LRU cache.
    pub evictions: u64,
    /// (epoch, protocol) configurations derived from dynamics.
    pub epoch_configs: u64,
    /// Router-path queries answered from the per-pair path memo.
    pub path_hits: u64,
    /// Router paths expanded (a pick vector seen for the first time while
    /// its memo entry is valid).
    pub path_builds: u64,
}

/// Snapshot routing queries with caching.
pub struct RouteOracle {
    topo: Arc<Topology>,
    dynamics: Arc<Dynamics>,
    intra: IntraAsPaths,
    /// Per protocol: AS edges with at least one protocol-capable link.
    base_edges: [BTreeSet<(u32, u32)>; 2],
    /// Dense ids of the edges of `topo.as_adj`.
    edges: EdgeIndex,
    /// Per protocol: the edges with no protocol-capable link, blocked in
    /// every configuration.
    unbuilt: [EdgeMask; 2],
    /// Per (destination, protocol) — slot `2 * dst + proto`: the last
    /// table computed or reused and the configuration it is exact for, so
    /// a config cache miss can reuse it when the change cannot affect it.
    last: Vec<Mutex<Option<LastTable>>>,
    cache: RwLock<ConfigCache>,
    /// Per-(epoch, protocol) availability configuration, filled lazily:
    /// slot `2 * epoch + proto`. Empty when the epoch timeline is too
    /// large (`MAX_EPOCH_SLOTS`) — then configs are derived per query.
    epoch_cfgs: RwLock<Vec<Option<Arc<EpochCfg>>>>,
    /// Per source cluster: the router-path memo row, allocated on the
    /// source's first query.
    paths: Vec<OnceLock<PathRow>>,
    // Shared `s2s_obs` counters rather than bespoke atomics, so
    // [`RouteOracle::observe`] can expose the live cells in a registry
    // (`oracle.cache.*`) while `cache_stats()` keeps reading them directly.
    hits: Arc<s2s_obs::Counter>,
    misses: Arc<s2s_obs::Counter>,
    reused: Arc<s2s_obs::Counter>,
    evictions: Arc<s2s_obs::Counter>,
    epoch_builds: Arc<s2s_obs::Counter>,
    path_hits: Arc<s2s_obs::Counter>,
    path_builds: Arc<s2s_obs::Counter>,
}

fn edge_key(a: usize, b: usize) -> (u32, u32) {
    ((a.min(b)) as u32, (a.max(b)) as u32)
}

fn proto_slot(p: Protocol) -> usize {
    match p {
        Protocol::V4 => 0,
        Protocol::V6 => 1,
    }
}

/// FNV-1a over a set of edges.
fn hash_edges(edges: &BTreeSet<(u32, u32)>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &(a, b) in edges {
        for v in [a, b] {
            h ^= u64::from(v);
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Splitmix64-style finalizer: the xor-shift-right passes propagate every
/// input bit down to the low bits, so `hash % n_links` is sensitive to the
/// whole flow identifier (classic traceroute varies only a few mid bits).
fn flow_hash(flow: u64, a: usize, b: usize) -> u64 {
    let mut x = flow ^ 0x517c_c1b7_2722_0a95 ^ ((a as u64) << 32) ^ (b as u64);
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

impl RouteOracle {
    /// Creates an oracle over a topology and its failure dynamics.
    pub fn new(topo: Arc<Topology>, dynamics: Arc<Dynamics>) -> Self {
        let mut base_edges = [BTreeSet::new(), BTreeSet::new()];
        for (&(a, b), links) in &topo.interconnects {
            if !links.is_empty() {
                base_edges[0].insert(edge_key(a, b));
            }
            if links.iter().any(|&l| topo.links[l.index()].v6_enabled) {
                base_edges[1].insert(edge_key(a, b));
            }
        }
        let edges = EdgeIndex::new(&topo.as_adj);
        let unbuilt = [0, 1].map(|slot| {
            let mut mask = EdgeMask::empty(&edges);
            for (a, row) in topo.as_adj.iter().enumerate() {
                for (j, &(b, _)) in row.iter().enumerate() {
                    if !base_edges[slot].contains(&edge_key(a, b)) {
                        mask.insert(edges.id(a, j));
                    }
                }
            }
            mask
        });
        let last = (0..2 * topo.as_adj.len()).map(|_| Mutex::new(None)).collect();
        let intra = IntraAsPaths::new(Arc::clone(&topo));
        let slots = dynamics.epoch_count().saturating_mul(2);
        let epoch_cfgs = if slots <= MAX_EPOCH_SLOTS {
            vec![None; slots]
        } else {
            Vec::new()
        };
        let paths = (0..topo.clusters.len()).map(|_| OnceLock::new()).collect();
        RouteOracle {
            topo,
            dynamics,
            intra,
            base_edges,
            edges,
            unbuilt,
            last,
            cache: RwLock::new(ConfigCache::default()),
            epoch_cfgs: RwLock::new(epoch_cfgs),
            paths,
            hits: Arc::new(s2s_obs::Counter::new()),
            misses: Arc::new(s2s_obs::Counter::new()),
            reused: Arc::new(s2s_obs::Counter::new()),
            evictions: Arc::new(s2s_obs::Counter::new()),
            epoch_builds: Arc::new(s2s_obs::Counter::new()),
            path_hits: Arc::new(s2s_obs::Counter::new()),
            path_builds: Arc::new(s2s_obs::Counter::new()),
        }
    }

    /// Registers the oracle's live cache counters in `registry` under
    /// `oracle.cache.{hits,misses,evictions,reused,epoch_configs}` and
    /// `oracle.paths.{hits,builds}`. The
    /// registry shares the oracle's own cells — no sampling, no copying — so
    /// a snapshot taken at any point reflects the counts
    /// [`cache_stats`](Self::cache_stats) would report.
    pub fn observe(&self, registry: &s2s_obs::Registry) {
        registry.register_counter("oracle.cache.hits", Arc::clone(&self.hits));
        registry.register_counter("oracle.cache.misses", Arc::clone(&self.misses));
        registry.register_counter("oracle.cache.evictions", Arc::clone(&self.evictions));
        registry.register_counter("oracle.cache.reused", Arc::clone(&self.reused));
        registry.register_counter("oracle.cache.epoch_configs", Arc::clone(&self.epoch_builds));
        registry.register_counter("oracle.paths.hits", Arc::clone(&self.path_hits));
        registry.register_counter("oracle.paths.builds", Arc::clone(&self.path_builds));
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The underlying dynamics.
    pub fn dynamics(&self) -> &Dynamics {
        &self.dynamics
    }

    /// Live interconnect links between two ASes for a protocol at `t`.
    pub fn live_links(
        &self,
        a: usize,
        b: usize,
        proto: Protocol,
        t: SimTime,
    ) -> Vec<LinkId> {
        self.topo
            .interconnects_between(a, b)
            .iter()
            .copied()
            .filter(|&l| {
                let link = &self.topo.links[l.index()];
                (proto == Protocol::V4 || link.v6_enabled) && self.dynamics.link_up(l, t)
            })
            .collect()
    }

    /// The AS edges (normally present for `proto`) that are unavailable at
    /// `t` because every carrying link is down.
    fn down_edges(&self, proto: Protocol, t: SimTime) -> BTreeSet<(u32, u32)> {
        let mut affected: BTreeSet<(u32, u32)> = BTreeSet::new();
        for &l in self.dynamics.down_links(t).iter() {
            let link = &self.topo.links[l.index()];
            if !link.kind.is_interconnect() {
                continue;
            }
            let a = self.topo.routers[link.a.index()].as_idx;
            let b = self.topo.routers[link.b.index()].as_idx;
            let key = edge_key(a, b);
            if !self.base_edges[proto_slot(proto)].contains(&key) {
                continue;
            }
            if self.live_links(a, b, proto, t).is_empty() {
                affected.insert(key);
            }
        }
        affected
    }

    /// The availability configuration of the epoch containing `t`,
    /// memoized per (epoch, protocol). This is the tentpole fast path: the
    /// down-edge derivation (an O(links) scan) runs once per epoch instead
    /// of once per probe.
    fn epoch_config(&self, proto: Protocol, t: SimTime) -> Arc<EpochCfg> {
        let slot = 2 * self.dynamics.epoch_of(t) + proto_slot(proto);
        {
            let cfgs = self.epoch_cfgs.read();
            match cfgs.get(slot) {
                Some(Some(cfg)) => return Arc::clone(cfg),
                Some(None) => {}
                // Memo disabled (epoch timeline too large): derive fresh.
                None => drop(cfgs),
            }
        }
        let cfg = s2s_obs::timed("oracle.epoch_config", || {
            let down = self.down_edges(proto, t);
            let mut blocked = self.unbuilt[proto_slot(proto)].clone();
            for &(a, b) in &down {
                // An interconnect outside the AS graph routes nothing.
                if let Some(id) = self.edges.between(&self.topo.as_adj, a as usize, b as usize) {
                    blocked.insert(id);
                }
            }
            Arc::new(EpochCfg { hash: hash_edges(&down), down, blocked })
        });
        self.epoch_builds.inc();
        let mut cfgs = self.epoch_cfgs.write();
        if let Some(entry) = cfgs.get_mut(slot) {
            // Another thread may have raced us here; share its result so
            // every query in the epoch sees one Arc.
            if let Some(existing) = entry {
                return Arc::clone(existing);
            }
            *entry = Some(Arc::clone(&cfg));
        }
        cfg
    }

    /// The route table toward `dst_as` under configuration `cfg`.
    fn table_for(&self, cfg: &Arc<EpochCfg>, dst_as: usize, proto: Protocol) -> Table {
        let key = (cfg.hash, proto);
        {
            let cache = self.cache.read();
            if let Some(entry) = cache.configs.get(&key) {
                if let Some(tbl) = entry.tables.get(&dst_as) {
                    cache.touch(entry);
                    self.hits.inc();
                    return Arc::clone(tbl);
                }
            }
        }
        // Compute outside the cache lock, unless the destination's last
        // table is provably still exact under this configuration.
        let slot = proto_slot(proto);
        let salt = 0xA5A5_0000 + slot as u64;
        let adj = &self.topo.as_adj;
        let last = &self.last[2 * dst_as + slot];
        let prev = last.lock().clone();
        let still_exact = |(was, tbl): &LastTable| {
            table_still_exact(adj, &self.edges, tbl, &was.blocked, &cfg.blocked, dst_as, salt)
        };
        let tbl: Table = match prev {
            Some(prev) if still_exact(&prev) => {
                self.reused.inc();
                prev.1
            }
            _ => {
                let tbl = s2s_obs::timed("oracle.route_compute", || {
                    Arc::new(compute_routes_masked(&self.edges, &cfg.blocked, dst_as, salt))
                });
                self.misses.inc();
                tbl
            }
        };
        *last.lock() = Some((Arc::clone(cfg), Arc::clone(&tbl)));
        let mut cache = self.cache.write();
        let entry = cache.entry_mut(key, &self.evictions);
        // Keep the first computed table if another thread raced us, so all
        // holders share one allocation.
        Arc::clone(entry.tables.entry(dst_as).or_insert(tbl))
    }

    /// The AS-index path from `src_as` to `dst_as` at `t`, or `None` when
    /// unreachable (or, for IPv6, when either end is not dual-stack).
    pub fn as_path_idx(
        &self,
        src_as: usize,
        dst_as: usize,
        proto: Protocol,
        t: SimTime,
    ) -> Option<Vec<usize>> {
        self.as_path_shared(src_as, dst_as, proto, t)
            .map(|p| (*p).clone())
    }

    /// Shared-allocation variant of [`as_path_idx`](Self::as_path_idx):
    /// the path is memoized per (configuration, src, dst) so repeated
    /// queries within an epoch return the same `Arc`.
    pub fn as_path_shared(
        &self,
        src_as: usize,
        dst_as: usize,
        proto: Protocol,
        t: SimTime,
    ) -> Option<AsPath> {
        if !self.proto_available(src_as, dst_as, proto) {
            return None;
        }
        let cfg = self.epoch_config(proto, t);
        let key = (cfg.hash, proto);
        {
            let cache = self.cache.read();
            if let Some(entry) = cache.configs.get(&key) {
                if let Some(p) = entry.paths.get(&(src_as, dst_as)) {
                    cache.touch(entry);
                    self.hits.inc();
                    return p.clone();
                }
            }
        }
        let path = if src_as == dst_as {
            Some(Arc::new(vec![src_as]))
        } else {
            let tbl = self.table_for(&cfg, dst_as, proto);
            reconstruct_path(&tbl, src_as, dst_as).map(Arc::new)
        };
        let mut cache = self.cache.write();
        let entry = cache.entry_mut(key, &self.evictions);
        entry
            .paths
            .entry((src_as, dst_as))
            .or_insert(path)
            .clone()
    }

    /// Cache effectiveness counters since construction.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            reused: self.reused.get(),
            evictions: self.evictions.get(),
            epoch_configs: self.epoch_builds.get(),
            path_hits: self.path_hits.get(),
            path_builds: self.path_builds.get(),
        }
    }

    /// The full router-level path between two cluster servers, `None`
    /// when unreachable.
    ///
    /// `flow` keys the ECMP hash: keep it constant per (src, dst, proto) to
    /// model Paris traceroute / real TCP flows; vary it per probe to model
    /// classic traceroute.
    ///
    /// Answered from a per-(src, dst, proto) memo that is exact: an entry
    /// is used only while `t` lies in the interval over which every
    /// interconnect on its AS path keeps its state, and the configuration
    /// at `t` still yields its AS path (same configuration, the same
    /// table, or a table that reconstructs the same path). The flow then
    /// selects one cached expansion by its ECMP pick vector; a vector seen
    /// for the first time is expanded as
    /// [`router_path_uncached`](Self::router_path_uncached) would.
    pub fn router_path(
        &self,
        src: ClusterId,
        dst: ClusterId,
        proto: Protocol,
        t: SimTime,
        flow: u64,
    ) -> Option<Arc<RouterPath>> {
        let topo = &self.topo;
        let src_as = topo.clusters[src.index()].host_as;
        let dst_as = topo.clusters[dst.index()].host_as;
        if !self.proto_available(src_as, dst_as, proto) {
            return None;
        }
        let cfg = self.epoch_config(proto, t);
        let row = self.paths[src.index()]
            .get_or_init(|| (0..2 * topo.clusters.len()).map(|_| Mutex::new(None)).collect());
        let mut slot = row[2 * dst.index() + proto_slot(proto)].lock();
        let valid = slot.as_deref_mut().is_some_and(|memo| {
            memo.covers(t)
                && (memo.cfg_hash == cfg.hash
                    || self.revalidate(memo, &cfg, src_as, dst_as, proto))
        });
        if !valid {
            *slot = Some(Box::new(self.path_memo(&cfg, src_as, dst_as, proto, t)));
        }
        let memo = slot.as_deref_mut().expect("just filled");
        let Some(as_path) = &memo.as_path else {
            self.path_hits.inc();
            return None;
        };
        let Some(key) = memo.key(flow) else {
            self.path_builds.inc();
            return self.expand(src, dst, proto, t, flow, as_path).map(Arc::new);
        };
        match memo.variants.binary_search_by_key(&key, |v| v.0) {
            Ok(i) => {
                self.path_hits.inc();
                memo.variants[i].1.clone()
            }
            Err(i) => {
                self.path_builds.inc();
                let path = self.expand(src, dst, proto, t, flow, as_path).map(Arc::new);
                memo.variants.insert(i, (key, path.clone()));
                path
            }
        }
    }

    /// [`router_path`](Self::router_path) expanded afresh, bypassing the
    /// path memo (the AS path still comes from the configuration cache):
    /// what every query cost before the memo, kept for benchmarks.
    pub fn router_path_uncached(
        &self,
        src: ClusterId,
        dst: ClusterId,
        proto: Protocol,
        t: SimTime,
        flow: u64,
    ) -> Option<RouterPath> {
        let topo = &self.topo;
        let cs = &topo.clusters[src.index()];
        let cd = &topo.clusters[dst.index()];
        let as_path = self.as_path_shared(cs.host_as, cd.host_as, proto, t)?;
        self.expand(src, dst, proto, t, flow, &as_path)
    }

    /// IPv6 routes only between dual-stack ASes.
    fn proto_available(&self, src_as: usize, dst_as: usize, proto: Protocol) -> bool {
        let ases = &self.topo.ases;
        proto == Protocol::V4 || (ases[src_as].dual_stack && ases[dst_as].dual_stack)
    }

    /// A fresh memo entry for `t`: the AS path under `cfg`, the live link
    /// count of each of its edges, and the interval over which all those
    /// links keep their state.
    fn path_memo(
        &self,
        cfg: &Arc<EpochCfg>,
        src_as: usize,
        dst_as: usize,
        proto: Protocol,
        t: SimTime,
    ) -> PathMemo {
        let (as_path, table) = if src_as == dst_as {
            (Some(Arc::new(vec![src_as])), None)
        } else {
            let tbl = self.table_for(cfg, dst_as, proto);
            (reconstruct_path(&tbl, src_as, dst_as).map(Arc::new), Some(tbl))
        };
        let (mut lo, mut hi) = (0, u64::from(u32::MAX) + 1);
        let mut edges = Vec::new();
        for w in as_path.iter().flat_map(|p| p.windows(2)) {
            let (x, y) = (w[0], w[1]);
            let mut live = 0;
            for &l in self.topo.interconnects_between(x, y) {
                if proto == Protocol::V6 && !self.topo.links[l.index()].v6_enabled {
                    continue;
                }
                let (a, b) = self.dynamics.link_state_span(l, t);
                lo = lo.max(a);
                hi = hi.min(b);
                live += usize::from(self.dynamics.link_up(l, t));
            }
            edges.push((x, y, live));
        }
        PathMemo { as_path, table, cfg_hash: cfg.hash, edges, lo, hi, variants: Vec::new() }
    }

    /// Whether `memo`, inside its link-state interval, still holds under
    /// the changed configuration `cfg`: the destination's table is the one
    /// the AS path came from, or reconstructs the same path. On success
    /// the entry is re-pinned to `cfg`.
    fn revalidate(
        &self,
        memo: &mut PathMemo,
        cfg: &Arc<EpochCfg>,
        src_as: usize,
        dst_as: usize,
        proto: Protocol,
    ) -> bool {
        if src_as != dst_as {
            let tbl = self.table_for(cfg, dst_as, proto);
            let same = memo.table.as_ref().is_some_and(|old| Arc::ptr_eq(old, &tbl))
                || reconstruct_path(&tbl, src_as, dst_as).as_deref()
                    == memo.as_path.as_deref().map(Vec::as_slice);
            if !same {
                return false;
            }
            memo.table = Some(tbl);
        }
        memo.cfg_hash = cfg.hash;
        true
    }

    /// Expands `as_path` to routers: per AS-edge crossing, an ECMP choice
    /// among live parallel links keyed on the flow hash; inside each AS,
    /// the delay-shortest backbone path.
    fn expand(
        &self,
        src: ClusterId,
        dst: ClusterId,
        proto: Protocol,
        t: SimTime,
        flow: u64,
        as_path: &[usize],
    ) -> Option<RouterPath> {
        let topo = &self.topo;
        let cs = &topo.clusters[src.index()];
        let cd = &topo.clusters[dst.index()];
        let mut hops: Vec<(RouterId, LinkId)> = Vec::with_capacity(16);
        // The source server's first hop: its attachment router, identified
        // by the access link toward the PoP core.
        let access_src = *topo.router_links[cs.router.index()].first()?;
        hops.push((cs.router, access_src));
        let mut cur = cs.router;

        // Walk the AS path, crossing one interconnect per adjacent AS pair.
        for win in as_path.windows(2) {
            let (x, y) = (win[0], win[1]);
            let mut live = self.live_links(x, y, proto, t);
            if live.is_empty() {
                return None; // inconsistent only if dynamics changed mid-walk
            }
            // Hot-potato egress: prefer the interconnects whose AS-x-side
            // router is nearest to where the packet currently is; ECMP
            // load-balances only among the two closest candidates.
            if live.len() > 2 {
                let here = topo.router_city(cur).point();
                live.sort_by(|&la, &lb| {
                    let ra = self.egress_router(la, x);
                    let rb = self.egress_router(lb, x);
                    let da = topo.router_city(ra).point().distance_km(&here);
                    let db = topo.router_city(rb).point().distance_km(&here);
                    da.partial_cmp(&db).unwrap().then(la.cmp(&lb))
                });
                live.truncate(2);
            }
            let pick = live[(flow_hash(flow, x, y) % live.len() as u64) as usize];
            let link = &topo.links[pick.index()];
            let (egress, ingress) = if topo.routers[link.a.index()].as_idx == x {
                (link.a, link.b)
            } else {
                (link.b, link.a)
            };
            // Inside AS x: from wherever we are to the egress router.
            for &(r, l) in self.intra.path_shared(cur, egress)?.iter() {
                hops.push((r, l));
            }
            hops.push((ingress, pick));
            cur = ingress;
        }
        // Inside the destination AS: to the destination cluster router.
        for &(r, l) in self.intra.path_shared(cur, cd.router)?.iter() {
            hops.push((r, l));
        }

        // Delay and MPLS-hiding pass.
        let mut delay = 0.0;
        let n = hops.len();
        let mut out = Vec::with_capacity(n);
        for (i, &(r, l)) in hops.iter().enumerate() {
            delay += topo.links[l.index()].delay_ms + 0.05;
            let as_r = topo.routers[r.index()].as_idx;
            let hidden = topo.ases[as_r].mpls
                && i > 0
                && i + 1 < n
                && topo.routers[hops[i - 1].0.index()].as_idx == as_r
                && topo.routers[hops[i + 1].0.index()].as_idx == as_r;
            out.push(Hop { router: r, ingress_link: l, hidden });
        }

        Some(RouterPath { hops: out, as_path_idx: as_path.to_vec(), one_way_delay_ms: delay })
    }

    /// Intra-AS path helper exposed for colocated-cluster campaigns.
    pub fn intra_paths(&self) -> &IntraAsPaths {
        &self.intra
    }

    /// The endpoint of `link` that sits inside AS `x`.
    fn egress_router(&self, link: LinkId, x: usize) -> RouterId {
        let l = &self.topo.links[link.index()];
        if self.topo.routers[l.a.index()].as_idx == x {
            l.a
        } else {
            l.b
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::DynamicsParams;
    use s2s_topology::{build_topology, TopologyParams};

    fn setup() -> RouteOracle {
        let topo = Arc::new(build_topology(&TopologyParams::tiny(77)));
        let dynamics =
            Arc::new(Dynamics::all_up(&topo, SimTime::from_days(30)));
        RouteOracle::new(topo, dynamics)
    }

    fn setup_dynamic(seed: u64) -> RouteOracle {
        let topo = Arc::new(build_topology(&TopologyParams::tiny(seed)));
        let dynamics = Arc::new(Dynamics::generate(
            &topo,
            &DynamicsParams {
                seed,
                horizon: SimTime::from_days(60),
                stable_fraction: 0.2,
                mean_episodes: 8.0,
                ..DynamicsParams::default()
            },
        ));
        RouteOracle::new(topo, dynamics)
    }

    /// Route tables toward every AS under the availability predicate the
    /// oracle used before edge ids (two ordered-set lookups per edge
    /// check), kept as the reference.
    fn reference_tables(
        o: &RouteOracle,
        proto: Protocol,
        down: &BTreeSet<(u32, u32)>,
    ) -> Vec<Table> {
        let slot = proto_slot(proto);
        let base = &o.base_edges[slot];
        let avail = |a: usize, b: usize| {
            let k = edge_key(a, b);
            base.contains(&k) && !down.contains(&k)
        };
        let salt = 0xA5A5_0000 + slot as u64;
        (0..o.topo.as_adj.len())
            .map(|dst| Arc::new(crate::policy::compute_routes(&o.topo.as_adj, dst, &avail, salt)))
            .collect()
    }

    #[test]
    fn every_served_table_matches_the_reference_computation() {
        // Epoch-major over the first week (the ping campaign's window),
        // like a campaign: consecutive configurations differ by an edge or
        // two, so most config cache misses are answered by reuse.
        for seed in [3, 11, 23] {
            let o = setup_dynamic(seed);
            let idx = o.dynamics().epochs().clone();
            let week = o.dynamics().epoch_of(SimTime::from_days(7));
            let mut ref_down = [BTreeSet::new(), BTreeSet::new()];
            let mut ref_tables: [Vec<Table>; 2] = Default::default();
            for e in 0..=week {
                let t = idx.start_of(e);
                for proto in [Protocol::V4, Protocol::V6] {
                    let down = o.down_edges(proto, t);
                    let slot = proto_slot(proto);
                    if e == 0 || ref_down[slot] != down {
                        ref_tables[slot] = reference_tables(&o, proto, &down);
                        ref_down[slot] = down;
                    }
                    let cfg = o.epoch_config(proto, t);
                    for (dst, want) in ref_tables[slot].iter().enumerate() {
                        let served = o.table_for(&cfg, dst, proto);
                        assert_eq!(served, *want, "seed {seed}, epoch {e}, dst {dst}, {proto:?}");
                    }
                }
            }
            let s = o.cache_stats();
            assert!(s.reused > 0 && s.misses > 0, "seed {seed}: {s:?}");
        }
    }

    #[test]
    fn ping_week_sweep_reuses_tables() {
        // The §5 schedule on a dynamic tiny world: every cluster pair, both
        // protocols, every 15 minutes for a week.
        let o = setup_dynamic(23);
        let topo = Arc::clone(o.topology());
        for slot in 0..7 * 24 * 4 {
            let t = SimTime::from_minutes(15 * slot);
            for proto in [Protocol::V4, Protocol::V6] {
                for a in &topo.clusters {
                    for b in &topo.clusters {
                        o.as_path_shared(a.host_as, b.host_as, proto, t);
                    }
                }
            }
        }
        // Measured: 1 985 computations and 1 851 reuses; with reuse off
        // every one of the 3 836 config cache misses computes.
        let s = o.cache_stats();
        assert!(s.reused > 0, "no table was reused: {s:?}");
        assert!(s.misses <= 2_500, "route computations regressed: {s:?}");
    }

    /// The router path as every query expanded it before the path memo,
    /// kept as the reference: AS path from the configuration cache, then
    /// live links, hot-potato order and ECMP pick per AS edge.
    fn reference_router_path(
        o: &RouteOracle,
        src: ClusterId,
        dst: ClusterId,
        proto: Protocol,
        t: SimTime,
        flow: u64,
    ) -> Option<RouterPath> {
        let topo = &o.topo;
        let cs = &topo.clusters[src.index()];
        let cd = &topo.clusters[dst.index()];
        let as_path = o.as_path_shared(cs.host_as, cd.host_as, proto, t)?;
        let access = *topo.router_links[cs.router.index()].first()?;
        let mut hops: Vec<(RouterId, LinkId)> = vec![(cs.router, access)];
        let mut cur = cs.router;
        for win in as_path.windows(2) {
            let (x, y) = (win[0], win[1]);
            let mut live = o.live_links(x, y, proto, t);
            if live.is_empty() {
                return None;
            }
            if live.len() > 2 {
                let here = topo.router_city(cur).point();
                live.sort_by(|&la, &lb| {
                    let da = topo.router_city(o.egress_router(la, x)).point().distance_km(&here);
                    let db = topo.router_city(o.egress_router(lb, x)).point().distance_km(&here);
                    da.partial_cmp(&db).unwrap().then(la.cmp(&lb))
                });
                live.truncate(2);
            }
            let pick = live[(flow_hash(flow, x, y) % live.len() as u64) as usize];
            let egress = o.egress_router(pick, x);
            let ingress = topo.links[pick.index()].other_end(egress);
            hops.extend(o.intra.path(cur, egress)?);
            hops.push((ingress, pick));
            cur = ingress;
        }
        hops.extend(o.intra.path(cur, cd.router)?);
        let mut delay = 0.0;
        let n = hops.len();
        let mut out = Vec::with_capacity(n);
        for (i, &(r, l)) in hops.iter().enumerate() {
            delay += topo.links[l.index()].delay_ms + 0.05;
            let as_of = |r: RouterId| topo.routers[r.index()].as_idx;
            let hidden = topo.ases[as_of(r)].mpls
                && i > 0
                && i + 1 < n
                && as_of(hops[i - 1].0) == as_of(r)
                && as_of(hops[i + 1].0) == as_of(r);
            out.push(Hop { router: r, ingress_link: l, hidden });
        }
        Some(RouterPath { hops: out, as_path_idx: (*as_path).clone(), one_way_delay_ms: delay })
    }

    /// The traceroute flows: Paris holds one per (src, dst, proto);
    /// classic varies it per TTL and attempt.
    fn paris_flow(src: usize, dst: usize, proto: Protocol) -> u64 {
        ((src as u64) << 40) ^ ((dst as u64) << 16) ^ (proto as u64)
    }

    fn classic_flow(src: usize, dst: usize, proto: Protocol, ttl: u8, attempt: u8) -> u64 {
        paris_flow(src, dst, proto) ^ (u64::from(ttl) << 8) ^ (u64::from(attempt) << 32)
    }

    fn assert_memo_exact(
        o: &RouteOracle,
        t: SimTime,
        flows: impl Fn(usize, usize, Protocol) -> Vec<u64>,
    ) {
        let n = o.topo.clusters.len();
        for proto in [Protocol::V4, Protocol::V6] {
            for a in 0..n {
                for b in 0..n {
                    for flow in flows(a, b, proto) {
                        let (src, dst) = (ClusterId::from(a), ClusterId::from(b));
                        let memo = o.router_path(src, dst, proto, t, flow);
                        let want = reference_router_path(o, src, dst, proto, t, flow);
                        assert_eq!(
                            memo.as_deref(),
                            want.as_ref(),
                            "{a}->{b} {proto:?} at minute {} flow {flow:#x}",
                            t.minutes()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn memoized_router_paths_match_fresh_expansion() {
        // Time-major over the first week like the ping campaign: every
        // pair and protocol at each epoch start, the minute before it and
        // mid-epoch, under the Paris flow; the classic flows (every TTL
        // and attempt) rotate through the epochs so each pair sees all of
        // them, at breakpoints included.
        let classic: Vec<(u8, u8)> =
            (1..=32).flat_map(|ttl| (0..3).map(move |a| (ttl, a))).collect();
        for seed in [3, 11, 23] {
            let o = setup_dynamic(seed);
            let idx = o.dynamics().epochs().clone();
            let week = o.dynamics().epoch_of(SimTime::from_days(7));
            for e in 1..=week {
                let (start, end) = (idx.start_of(e).minutes(), idx.start_of(e + 1).minutes());
                let mid = start + (end - start) / 2;
                for (i, m) in [start - 1, start, mid].into_iter().enumerate() {
                    let turn = 3 * e + i;
                    assert_memo_exact(&o, SimTime::from_minutes(m), |a, b, proto| {
                        let mut flows = vec![paris_flow(a, b, proto)];
                        let (ttl, attempt) = classic[(turn + a * 7 + b) % classic.len()];
                        flows.push(classic_flow(a, b, proto, ttl, attempt));
                        flows
                    });
                }
                if e.is_multiple_of(48) {
                    let t = SimTime::from_minutes(start);
                    assert_memo_exact(&o, t, |a, b, proto| {
                        let flow = |&(ttl, at): &(u8, u8)| classic_flow(a, b, proto, ttl, at);
                        classic.iter().map(flow).collect()
                    });
                }
            }
            let s = o.cache_stats();
            assert!(s.path_hits > s.path_builds, "seed {seed}: memo never hit: {s:?}");
        }
    }

    /// The memo entry of (src, dst, proto), if any.
    fn memo_of(o: &RouteOracle, src: usize, dst: usize, proto: Protocol) -> Option<(u32, u64)> {
        let row = o.paths[src].get()?;
        let slot = row[2 * dst + proto_slot(proto)].lock();
        slot.as_ref().map(|m| (m.lo, m.hi))
    }

    #[test]
    fn memo_interval_ends_exactly_at_link_breakpoints() {
        // One interconnect on a pair's path goes down exactly at the end of
        // the entry's interval and comes back exactly at a later minute:
        // the first and last minute of each interval must be served right.
        let topo = Arc::new(build_topology(&TopologyParams::tiny(77)));
        let horizon = SimTime::from_days(3);
        let all_up =
            RouteOracle::new(Arc::clone(&topo), Arc::new(Dynamics::all_up(&topo, horizon)));
        let (src, dst) = (ClusterId::new(0), ClusterId::new(4));
        let flow = paris_flow(0, 4, Protocol::V4);
        let base = all_up.router_path(src, dst, Protocol::V4, SimTime::T0, flow).expect("path");
        let cross = base
            .hops
            .iter()
            .find(|h| topo.links[h.ingress_link.index()].kind.is_interconnect())
            .expect("an inter-AS pair")
            .ingress_link;
        let (down, up) = (1_000u32, 1_500u32);
        let eps = vec![(cross, down, up)];
        let dynamics = Arc::new(Dynamics::from_episodes(topo.links.len(), eps, horizon));
        let o = RouteOracle::new(Arc::clone(&topo), dynamics);
        let check = |m: u32| {
            let t = SimTime::from_minutes(m);
            for f in [flow, flow ^ 1, flow ^ 0x100, flow ^ (1 << 32)] {
                let got = o.router_path(src, dst, Protocol::V4, t, f);
                let want = reference_router_path(&o, src, dst, Protocol::V4, t, f);
                assert_eq!(got.as_deref(), want.as_ref(), "minute {m} flow {f:#x}");
            }
        };
        check(0);
        assert_eq!(memo_of(&o, 0, 4, Protocol::V4), Some((0, u64::from(down))));
        for m in [down - 1, down, down + 1, up - 1, up, up + 1] {
            check(m);
        }
        assert_eq!(memo_of(&o, 0, 4, Protocol::V4), Some((up, u64::from(u32::MAX) + 1)));
        // Out of order: back inside the outage, then before it.
        for m in [down + 200, down - 1, 0] {
            check(m);
        }
        assert!(!o.router_path(src, dst, Protocol::V4, SimTime::from_minutes(down), flow)
            .unwrap()
            .hops
            .iter()
            .any(|h| h.ingress_link == cross));
    }

    #[test]
    fn config_change_off_the_path_revalidates_without_expanding() {
        // Take down an AS edge off a pair's path whose loss forces a new
        // route table toward the destination but leaves the pair's AS path
        // alone: the entry is re-pinned to the new configuration and keeps
        // serving its expansion.
        let topo = Arc::new(build_topology(&TopologyParams::tiny(77)));
        let horizon = SimTime::from_days(3);
        let (t0, t1) = (SimTime::from_minutes(10), SimTime::from_minutes(600));
        let mut edges: Vec<(usize, usize)> = topo.interconnects.keys().copied().collect();
        edges.sort_unstable();
        let n = topo.clusters.len();
        for (a, b) in (0..n).flat_map(|a| (0..n).map(move |b| (a, b))) {
            let (src, dst) = (ClusterId::from(a), ClusterId::from(b));
            let (sa, da) = (topo.clusters[a].host_as, topo.clusters[b].host_as);
            if sa == da {
                continue;
            }
            for &(x, y) in &edges {
                let eps = topo.interconnects[&(x, y)].iter().map(|&l| (l, 300, 900)).collect();
                let o = RouteOracle::new(
                    Arc::clone(&topo),
                    Arc::new(Dynamics::from_episodes(topo.links.len(), eps, horizon)),
                );
                let Some(before) = o.router_path(src, dst, Protocol::V4, t0, 5) else { continue };
                if before.as_path_idx.windows(2).any(|w| edge_key(w[0], w[1]) == edge_key(x, y)) {
                    continue;
                }
                let s0 = o.cache_stats();
                let after = o.router_path(src, dst, Protocol::V4, t1, 5);
                let s1 = o.cache_stats();
                if s1.misses == s0.misses {
                    continue; // the table was reused, not recomputed
                }
                let after = after.expect("same AS path, still reachable");
                assert!(Arc::ptr_eq(&before, &after), "{a}->{b}: re-expanded after revalidation");
                assert_eq!(s1.path_builds, s0.path_builds);
                assert_eq!(s1.path_hits, s0.path_hits + 1);
                let want = reference_router_path(&o, src, dst, Protocol::V4, t1, 5);
                assert_eq!(Some(&*after), want.as_ref());
                return;
            }
        }
        panic!("no off-path edge forces a table recomputation yet keeps an AS path");
    }

    #[test]
    fn ping_week_sweep_expands_few_paths() {
        // The §5 schedule on a dynamic tiny world, as the ping campaign
        // runs it: every pair, both protocols, forward and reverse path,
        // every 15 minutes for a week.
        let o = setup_dynamic(23);
        let reg = s2s_obs::Registry::new();
        o.observe(&reg);
        let n = o.topology().clusters.len();
        let mut queries = 0u64;
        for slot in 0..7 * 24 * 4 {
            let t = SimTime::from_minutes(15 * slot);
            for proto in [Protocol::V4, Protocol::V6] {
                for a in 0..n {
                    for b in 0..n {
                        let (src, dst) = (ClusterId::from(a), ClusterId::from(b));
                        let flow = paris_flow(a, b, proto);
                        queries += 1;
                        if o.router_path(src, dst, proto, t, flow).is_some() {
                            queries += 1;
                            o.router_path(dst, src, proto, t, flow ^ 0x0e0e);
                        }
                    }
                }
            }
        }
        let s = o.cache_stats();
        // Measured: 3 860 expansions for 682 450 queries.
        assert!(s.path_builds <= 5_000, "path expansions regressed: {s:?}");
        assert!(s.path_builds * 100 < queries, "memo barely helps: {s:?} of {queries}");
        assert_eq!(reg.counter("oracle.paths.hits").get(), s.path_hits);
        assert_eq!(reg.counter("oracle.paths.builds").get(), s.path_builds);
    }

    #[test]
    fn classic_sweep_keeps_one_entry_per_probed_triple() {
        // Classic traceroute varies the flow per TTL and attempt, which
        // only selects among the pick vectors of one entry: entries stay
        // one per (src, dst, proto), variants at most 2^(choice edges).
        let o = setup_dynamic(11);
        let n = o.topology().clusters.len();
        let mut probed = BTreeSet::new();
        for day in 0..4 {
            let t = SimTime::from_days(day) + s2s_types::SimDuration::from_hours(3 * day);
            for proto in [Protocol::V4, Protocol::V6] {
                for a in 0..n {
                    for b in (0..n).filter(|b| (a + b + day as usize).is_multiple_of(3)) {
                        let (src, dst) = (ClusterId::from(a), ClusterId::from(b));
                        let (sa, da) = (o.topo.clusters[a].host_as, o.topo.clusters[b].host_as);
                        if o.proto_available(sa, da, proto) {
                            probed.insert((a, b, proto_slot(proto)));
                        }
                        for ttl in 1..=32 {
                            for attempt in 0..3 {
                                let flow = classic_flow(a, b, proto, ttl, attempt);
                                o.router_path(src, dst, proto, t, flow);
                            }
                        }
                        // Edges with a choice, counted afresh at `t`.
                        let slot = o.paths[a].get().map(|r| r[2 * b + proto_slot(proto)].lock());
                        let Some(memo) = slot.as_ref().and_then(|m| m.as_ref()) else { continue };
                        let choices = memo.as_path.as_ref().map_or(0, |p| {
                            let live = |w: &[usize]| o.live_links(w[0], w[1], proto, t).len();
                            p.windows(2).filter(|w| live(w) >= 2).count()
                        });
                        let n = memo.variants.len();
                        assert!(n <= 1 << choices, "{a}->{b} {proto:?}: {n} variants");
                    }
                }
            }
        }
        let mut entries = BTreeSet::new();
        for (a, row) in o.paths.iter().enumerate() {
            for (slot, cell) in row.get().into_iter().flat_map(|r| r.iter().enumerate()) {
                if cell.lock().is_some() {
                    entries.insert((a, slot / 2, slot % 2));
                }
            }
        }
        assert_eq!(entries, probed);
    }

    #[test]
    fn config_cache_is_lru_not_fifo() {
        // Regression: the old eviction was insertion-order FIFO — a hit
        // never refreshed recency, so two configs that stay hot forever
        // (e.g. a link flapping between two availability states) were
        // evicted as soon as CONFIG_CACHE_CAP other configs had been seen,
        // and then recomputed on every alternation.
        let mut c = ConfigCache::default();
        let ev = s2s_obs::Counter::new();
        let key_a = (0xAu64, Protocol::V4);
        let key_b = (0xBu64, Protocol::V4);
        c.entry_mut(key_a, &ev);
        c.entry_mut(key_b, &ev);
        for i in 0..(3 * CONFIG_CACHE_CAP as u64) {
            c.entry_mut((0x1000 + i, Protocol::V4), &ev);
            // The alternating hot configs keep hitting, which under true
            // LRU refreshes their recency.
            c.touch(&c.configs[&key_a]);
            c.touch(&c.configs[&key_b]);
        }
        assert!(c.configs.len() <= CONFIG_CACHE_CAP);
        assert!(
            c.configs.contains_key(&key_a) && c.configs.contains_key(&key_b),
            "hot alternating configs were evicted: FIFO thrash is back"
        );
        assert!(ev.get() > 0, "cold configs should evict");
    }

    #[test]
    fn observe_exposes_the_live_cache_counters() {
        let o = setup_dynamic(11);
        let reg = s2s_obs::Registry::new();
        o.observe(&reg);
        let hits = reg.counter("oracle.cache.hits");
        let misses = reg.counter("oracle.cache.misses");
        assert_eq!((hits.get(), misses.get()), (0, 0));
        for _ in 0..3 {
            o.as_path_idx(0, 1, Protocol::V4, SimTime::T0);
        }
        let stats = o.cache_stats();
        assert!(stats.hits > 0 && stats.misses > 0);
        // Same cells, not copies: the registry view tracks cache_stats().
        assert_eq!(hits.get(), stats.hits);
        assert_eq!(misses.get(), stats.misses);
        assert_eq!(reg.counter("oracle.cache.epoch_configs").get(), stats.epoch_configs);
    }

    #[test]
    fn epoch_memo_matches_direct_derivation() {
        // Every query must see the exact configuration the old per-probe
        // derivation would have produced, at breakpoints included.
        let o = setup_dynamic(11);
        let idx = o.dynamics().epochs().clone();
        for e in (0..idx.len()).step_by(idx.len() / 24 + 1) {
            let t = idx.start_of(e);
            for proto in [Protocol::V4, Protocol::V6] {
                let cfg = o.epoch_config(proto, t);
                let direct = o.down_edges(proto, t);
                assert_eq!(cfg.down, direct, "epoch {e} {proto:?}");
                assert_eq!(cfg.hash, hash_edges(&direct));
                // Second query shares the memoized Arc.
                assert!(Arc::ptr_eq(&cfg, &o.epoch_config(proto, t)));
            }
        }
        let stats = o.cache_stats();
        assert!(stats.epoch_configs > 0);
    }

    #[test]
    fn as_paths_are_shared_within_an_epoch() {
        let o = setup();
        let t0 = SimTime::from_days(1);
        let topo = o.topology();
        let (a, b) = (topo.clusters[0].host_as, topo.clusters[5].host_as);
        let p1 = o.as_path_shared(a, b, Protocol::V4, t0).unwrap();
        let p2 = o.as_path_shared(a, b, Protocol::V4, t0).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2), "repeated query reallocated the path");
        assert_eq!(o.as_path_idx(a, b, Protocol::V4, t0).unwrap(), *p1);
    }

    #[test]
    fn campaign_style_sweep_has_near_perfect_hit_rate() {
        let o = setup_dynamic(23);
        let n = o.topology().clusters.len();
        for day in 0..30 {
            let t = SimTime::from_days(day);
            for a in 0..n {
                for b in 0..n {
                    if a != b {
                        o.router_path(
                            ClusterId::from(a),
                            ClusterId::from(b),
                            Protocol::V4,
                            t,
                            1,
                        );
                    }
                }
            }
        }
        let s = o.cache_stats();
        assert!(
            s.hits > 10 * s.misses,
            "cache ineffective: {s:?}"
        );
        // One config derivation per (touched epoch, protocol), not per probe.
        assert!(s.epoch_configs <= 2 * o.dynamics().epoch_count() as u64);
    }

    #[test]
    fn all_cluster_pairs_have_v4_paths() {
        let o = setup();
        let t0 = SimTime::from_days(1);
        let n = o.topology().clusters.len();
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let p = o.router_path(
                    ClusterId::from(a),
                    ClusterId::from(b),
                    Protocol::V4,
                    t0,
                    1,
                );
                assert!(p.is_some(), "no v4 path {a} -> {b}");
            }
        }
    }

    #[test]
    fn paths_start_and_end_at_cluster_routers() {
        let o = setup();
        let t0 = SimTime::from_days(1);
        let p = o
            .router_path(ClusterId::new(0), ClusterId::new(5), Protocol::V4, t0, 1)
            .unwrap();
        let topo = o.topology();
        assert_eq!(p.hops.first().unwrap().router, topo.clusters[0].router);
        assert_eq!(p.hops.last().unwrap().router, topo.clusters[5].router);
        assert!(p.one_way_delay_ms > 0.0);
    }

    #[test]
    fn as_path_matches_hop_ases() {
        let o = setup();
        let topo = o.topology();
        let t0 = SimTime::from_days(2);
        let p = o
            .router_path(ClusterId::new(1), ClusterId::new(9), Protocol::V4, t0, 3)
            .unwrap();
        // The sequence of hop ASes, deduplicated, must equal as_path_idx.
        let mut seen = Vec::new();
        for h in &p.hops {
            let a = topo.routers[h.router.index()].as_idx;
            if seen.last() != Some(&a) {
                seen.push(a);
            }
        }
        assert_eq!(seen, p.as_path_idx);
    }

    #[test]
    fn hop_ingress_links_chain() {
        let o = setup();
        let topo = o.topology();
        let t0 = SimTime::T0;
        let p = o
            .router_path(ClusterId::new(2), ClusterId::new(7), Protocol::V4, t0, 9)
            .unwrap();
        for w in p.hops.windows(2) {
            let link = &topo.links[w[1].ingress_link.index()];
            assert_eq!(link.other_end(w[1].router), w[0].router);
        }
    }

    #[test]
    fn v6_paths_exist_between_dual_stack_clusters() {
        let o = setup();
        let t0 = SimTime::from_days(1);
        let mut found = 0;
        let n = o.topology().clusters.len();
        for a in 0..n.min(8) {
            for b in 0..n.min(8) {
                if a != b
                    && o.router_path(
                        ClusterId::from(a),
                        ClusterId::from(b),
                        Protocol::V6,
                        t0,
                        1,
                    )
                    .is_some()
                {
                    found += 1;
                }
            }
        }
        assert!(found > 20, "only {found} v6 paths");
    }

    #[test]
    fn queries_are_deterministic() {
        let o = setup();
        let t0 = SimTime::from_days(3);
        let a = o.router_path(ClusterId::new(0), ClusterId::new(3), Protocol::V4, t0, 7);
        let b = o.router_path(ClusterId::new(0), ClusterId::new(3), Protocol::V4, t0, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn ecmp_flow_changes_path_somewhere() {
        let o = setup();
        let t0 = SimTime::from_days(1);
        let n = o.topology().clusters.len();
        let mut diverged = false;
        'outer: for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let p1 = o.router_path(
                    ClusterId::from(a),
                    ClusterId::from(b),
                    Protocol::V4,
                    t0,
                    1,
                );
                let p2 = o.router_path(
                    ClusterId::from(a),
                    ClusterId::from(b),
                    Protocol::V4,
                    t0,
                    999_999,
                );
                if p1 != p2 {
                    diverged = true;
                    break 'outer;
                }
            }
        }
        assert!(diverged, "ECMP never picked a different parallel link");
    }

    #[test]
    fn routing_changes_over_time_with_dynamics() {
        let o = setup_dynamic(5);
        let n = o.topology().clusters.len();
        let mut changed = false;
        'outer: for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let mut last: Option<Vec<usize>> = None;
                for day in 0..60 {
                    let t = SimTime::from_days(day);
                    let p = o.as_path_idx(
                        o.topology().clusters[a].host_as,
                        o.topology().clusters[b].host_as,
                        Protocol::V4,
                        t,
                    );
                    if let Some(p) = p {
                        if let Some(prev) = &last {
                            if *prev != p {
                                changed = true;
                                break 'outer;
                            }
                        }
                        last = Some(p);
                    }
                }
            }
        }
        assert!(changed, "no AS path ever changed despite heavy dynamics");
    }

    #[test]
    fn down_edge_reroutes_or_disconnects() {
        // Take down every link of one specific AS edge and verify the path
        // avoids it.
        let topo = Arc::new(build_topology(&TopologyParams::tiny(77)));
        let t_check = SimTime::from_minutes(500);
        // Pick the AS edge used by some base path.
        let base_oracle = RouteOracle::new(
            Arc::clone(&topo),
            Arc::new(Dynamics::all_up(&topo, SimTime::from_days(3))),
        );
        let base = base_oracle
            .as_path_idx(
                topo.clusters[0].host_as,
                topo.clusters[4].host_as,
                Protocol::V4,
                t_check,
            )
            .expect("base path");
        if base.len() < 2 {
            return; // same-AS pair; nothing to fail over
        }
        let (x, y) = (base[0], base[1]);
        let links = topo.interconnects_between(x, y).to_vec();
        let eps: Vec<(LinkId, u32, u32)> =
            links.iter().map(|&l| (l, 0, 2 * 24 * 60)).collect();
        let dynamics = Arc::new(Dynamics::from_episodes(
            topo.links.len(),
            eps,
            SimTime::from_days(3),
        ));
        let o = RouteOracle::new(Arc::clone(&topo), dynamics);
        // None (disconnection) is acceptable for stub-only edges.
        if let Some(p) = o.as_path_idx(
            topo.clusters[0].host_as,
            topo.clusters[4].host_as,
            Protocol::V4,
            t_check,
        ) {
            assert!(
                !(p.len() >= 2 && p[0] == x && p[1] == y),
                "path still uses the dead edge: {p:?}"
            );
        }
        // After the episode ends, the base path returns.
        let after = o
            .as_path_idx(
                topo.clusters[0].host_as,
                topo.clusters[4].host_as,
                Protocol::V4,
                SimTime::from_days(2) + s2s_types::SimDuration::from_minutes(1),
            )
            .expect("restored");
        assert_eq!(after, base);
    }

    #[test]
    fn mpls_hides_only_interior_hops() {
        let topo = Arc::new(build_topology(&TopologyParams {
            mpls_as_prob: 1.0, // every transit AS hides interior hops
            ..TopologyParams::tiny(13)
        }));
        let o = RouteOracle::new(
            Arc::clone(&topo),
            Arc::new(Dynamics::all_up(&topo, SimTime::from_days(2))),
        );
        let n = topo.clusters.len();
        let mut saw_hidden = false;
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                if let Some(p) = o.router_path(
                    ClusterId::from(a),
                    ClusterId::from(b),
                    Protocol::V4,
                    SimTime::T0,
                    1,
                ) {
                    for (i, h) in p.hops.iter().enumerate() {
                        if h.hidden {
                            saw_hidden = true;
                            // Interior: neighbors are same-AS.
                            let as_h = topo.routers[h.router.index()].as_idx;
                            let prev =
                                topo.routers[p.hops[i - 1].router.index()].as_idx;
                            let next =
                                topo.routers[p.hops[i + 1].router.index()].as_idx;
                            assert_eq!(as_h, prev);
                            assert_eq!(as_h, next);
                        }
                    }
                    // First and last hops are never hidden.
                    assert!(!p.hops.first().unwrap().hidden);
                    assert!(!p.hops.last().unwrap().hidden);
                }
            }
        }
        assert!(saw_hidden, "full-MPLS topology produced no hidden hops");
    }

    #[test]
    fn forward_and_reverse_can_differ() {
        let o = setup();
        let topo = o.topology();
        let t0 = SimTime::from_days(1);
        let mut asymmetric = false;
        let n = topo.clusters.len();
        for a in 0..n {
            for b in (a + 1)..n {
                let f = o.as_path_idx(
                    topo.clusters[a].host_as,
                    topo.clusters[b].host_as,
                    Protocol::V4,
                    t0,
                );
                let r = o.as_path_idx(
                    topo.clusters[b].host_as,
                    topo.clusters[a].host_as,
                    Protocol::V4,
                    t0,
                );
                if let (Some(mut f), Some(r)) = (f, r) {
                    f.reverse();
                    if f != r {
                        asymmetric = true;
                    }
                }
            }
        }
        assert!(asymmetric, "every pair was perfectly symmetric");
    }

    #[test]
    fn v4_and_v6_paths_can_differ() {
        let o = setup();
        let topo = o.topology();
        let t0 = SimTime::from_days(1);
        let mut differs = false;
        let n = topo.clusters.len();
        'outer: for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let p4 = o.as_path_idx(
                    topo.clusters[a].host_as,
                    topo.clusters[b].host_as,
                    Protocol::V4,
                    t0,
                );
                let p6 = o.as_path_idx(
                    topo.clusters[a].host_as,
                    topo.clusters[b].host_as,
                    Protocol::V6,
                    t0,
                );
                if let (Some(p4), Some(p6)) = (p4, p6) {
                    if p4 != p6 {
                        differs = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(differs, "v4 and v6 never diverged");
    }
}
