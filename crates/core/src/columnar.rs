//! The columnar analysis driver: memoized annotation over a
//! [`TraceStore`], sharded across threads with a deterministic merge.
//!
//! The record-at-a-time reference ([`crate::annotate::annotate`] into a
//! [`crate::TimelineBuilder`]) annotates once per record: every hop
//! address walks the ip2asn trie, every trace builds an [`AsPath`] from
//! scratch. But an annotation depends only on the trace's *interned*
//! identity — the hop sequence plus the endpoint addresses — and the
//! paper's few-distinct-paths property (§4) means a 16-month timeline
//! has thousands of traces over a handful of identities. This module
//! exploits that:
//!
//! * [`AddrAsnTable`] batch-resolves the store's address intern table —
//!   one trie walk per distinct address in the corpus,
//! * [`ColumnarAnnotator`] memoizes full annotations per
//!   `(hop-sequence id, src-addr id, dst-addr id)` key,
//! * [`StoreAnnotator`] is the same memo bound to one growing store: it
//!   grows its own address table with the store and keeps its memo across
//!   batches, so a store fed epoch by epoch resolves each address and
//!   annotates each identity once over its whole life,
//! * [`Analysis::timelines`](crate::Analysis::timelines) (the driver
//!   lives here) shards the (src, dst, protocol) groups across
//!   `std::thread::scope` workers in contiguous chunks and writes each
//!   group's timeline into its pre-assigned slot, so the output order —
//!   and every byte of it — is independent of the thread count and
//!   identical to the sequential reference (pinned by the equivalence
//!   suite in `tests/`),
//! * [`Analysis::ownership`](crate::Analysis::ownership) runs ownership
//!   inference once per distinct reached hop sequence (the heuristics
//!   consume *sets* of links/triples, so deduplication is exact, not
//!   approximate).
//!
//! [`Analysis::new`](crate::Analysis::new) is the only entry point — the
//! deprecated `timelines_from_store*` / `infer_ownership_store` free
//! functions that predated the builder are gone. For out-of-core inputs
//! the same driver runs incrementally: `StreamingTimelines` folds trace
//! batches from a `SnapshotReader` (or a shard directory) into per-group
//! timelines in stream order, byte-identical to the materialized path.
//!
//! Everything is instrumented through `s2s-obs` when a registry is
//! installed (`analysis.*` spans and counters, `trace_store.*` gauges);
//! with no registry the hooks cost one relaxed atomic load.

use crate::annotate::{Annotated, Completeness, CompletenessCounts};
use crate::ownership::{infer_ownership, OwnershipInference};
use crate::timeline::{Sample, TraceTimeline};
use s2s_bgp::{AsRelStore, Ip2AsnMap};
use s2s_probe::store::{TraceStore, TraceView, NO_ADDR};
use s2s_types::{AsPath, Asn, ClusterId, Protocol, SimTime};
use std::collections::HashMap;
use std::net::IpAddr;

/// Per-interned-address ASN tables: the batch ip2asn resolution of a
/// store's address table, raw and IXP-filtered.
#[derive(Debug, Default)]
pub struct AddrAsnTable {
    raw: Vec<Option<Asn>>,
    non_ixp: Vec<Option<Asn>>,
}

impl AddrAsnTable {
    /// Resolves every interned address of `store` once.
    pub fn build(store: &TraceStore, map: &Ip2AsnMap) -> AddrAsnTable {
        let mut table = AddrAsnTable::default();
        table.extend(store, map);
        table
    }

    /// Resolves the addresses `store` interned past the ones this table
    /// already holds: a store only appends to its address table, so a
    /// table grown alongside it stays exact.
    pub(crate) fn extend(&mut self, store: &TraceStore, map: &Ip2AsnMap) {
        let new = &store.addrs()[self.raw.len()..];
        self.raw.reserve(new.len());
        self.non_ixp.reserve(new.len());
        for &addr in new {
            let asn = map.lookup(addr);
            self.raw.push(asn);
            self.non_ixp.push(asn.filter(|a| !map.is_ixp(*a)));
        }
    }

    /// The raw longest-prefix mapping of an interned address.
    pub fn raw_of(&self, id: u32) -> Option<Asn> {
        self.raw[id as usize]
    }

    /// The mapping with the IXP-fabric filter applied (the middle-hop rule
    /// of [`crate::annotate::annotate`]).
    pub fn non_ixp_of(&self, id: u32) -> Option<Asn> {
        self.non_ixp[id as usize]
    }

    /// Number of addresses resolved.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }
}

/// The annotation memo both annotators share: one [`Annotated`] per
/// distinct `(hop-sequence id, src-addr id, dst-addr id)` key, by id.
#[derive(Debug, Default)]
struct AnnotationMemo {
    index: HashMap<(u32, u32, u32), u32>,
    values: Vec<Annotated>,
    hits: u64,
}

impl AnnotationMemo {
    /// The id of `v`'s annotation, annotating it on first sight.
    fn id_of(&mut self, v: TraceView<'_>, table: &AddrAsnTable) -> u32 {
        use std::collections::hash_map::Entry;
        match self.index.entry((v.seq_id(), v.src_addr_id(), v.dst_addr_id())) {
            Entry::Occupied(e) => {
                self.hits += 1;
                *e.get()
            }
            Entry::Vacant(e) => {
                let id = self.values.len() as u32;
                self.values.push(annotate_view(v, table));
                *e.insert(id)
            }
        }
    }

    fn stats(&self) -> (u64, u64) {
        (self.hits, self.values.len() as u64)
    }
}

/// Annotates trace views with a memo per interned identity. Produces
/// exactly what [`crate::annotate::annotate`] produces for the
/// materialized record — the annotation depends only on the hop-address
/// sequence and the endpoint addresses, all of which are interned.
pub struct ColumnarAnnotator<'a> {
    table: &'a AddrAsnTable,
    memo: AnnotationMemo,
}

impl<'a> ColumnarAnnotator<'a> {
    /// A fresh annotator (one per shard thread; the table is shared).
    pub fn new(table: &'a AddrAsnTable) -> ColumnarAnnotator<'a> {
        ColumnarAnnotator { table, memo: AnnotationMemo::default() }
    }

    /// The annotation of one trace view (memoized).
    pub fn annotate(&mut self, v: TraceView<'_>) -> &Annotated {
        let id = self.memo.id_of(v, self.table);
        &self.memo.values[id as usize]
    }

    /// (memo hits, distinct annotations computed).
    pub fn memo_stats(&self) -> (u64, u64) {
        self.memo.stats()
    }
}

/// A memoizing annotator bound to one growing store: it owns its address
/// table and grows it with the store, and its memo outlives any one batch,
/// because a store only appends — the interned ids of its rows never
/// change. Each address is resolved once and each distinct (hop sequence,
/// endpoints) annotated once over the store's whole life. Feed it one
/// store only: ids from another store index other addresses.
#[derive(Debug, Default)]
pub struct StoreAnnotator {
    table: AddrAsnTable,
    memo: AnnotationMemo,
}

impl StoreAnnotator {
    /// An annotator for a store it has not seen yet.
    pub fn new() -> StoreAnnotator {
        StoreAnnotator::default()
    }

    /// The id of the annotation of row `row` of `store`, resolving the
    /// addresses `store` interned since the last call first.
    pub fn annotate(&mut self, store: &TraceStore, row: usize, map: &Ip2AsnMap) -> u32 {
        self.table.extend(store, map);
        self.memo.id_of(store.view(row), &self.table)
    }

    /// The annotation behind an id [`annotate`](Self::annotate) returned.
    pub fn get(&self, id: u32) -> &Annotated {
        &self.memo.values[id as usize]
    }
}

/// One trace as an incremental fold reads it: its group, time, reach and
/// end-to-end RTT, copied out of its store row, and its annotation. Built
/// before the fold, so the fold itself reads no store — only this compact
/// record and the live state.
#[derive(Clone, Copy, Debug)]
pub struct AnnotatedTrace<'a> {
    pub(crate) src: ClusterId,
    pub(crate) dst: ClusterId,
    pub(crate) proto: Protocol,
    pub(crate) t: SimTime,
    pub(crate) reached: bool,
    pub(crate) e2e_rtt_ms: Option<f64>,
    pub(crate) annotated: &'a Annotated,
}

impl<'a> AnnotatedTrace<'a> {
    /// The trace of row `v`, annotated as `annotated` (which must be the
    /// annotation of `v`'s hop sequence and endpoints).
    pub fn new(v: TraceView<'_>, annotated: &'a Annotated) -> AnnotatedTrace<'a> {
        AnnotatedTrace {
            src: v.src(),
            dst: v.dst(),
            proto: v.proto(),
            t: v.t(),
            reached: v.reached(),
            e2e_rtt_ms: v.e2e_rtt_ms(),
            annotated,
        }
    }

    /// When the trace ran.
    pub fn t(&self) -> SimTime {
        self.t
    }

    /// End-to-end RTT, ms.
    pub fn e2e_rtt_ms(&self) -> Option<f64> {
        self.e2e_rtt_ms
    }
}

/// The annotation procedure of [`crate::annotate::annotate`], over interned
/// ids: source/destination addresses use the raw mapping, middle hops use
/// the IXP-filtered one, unresponsive and unmapped hops set the Table-1
/// flags, then duplicate-collapse → bracketed imputation → unknown-hop
/// omission, exactly in that order.
fn annotate_view(v: TraceView<'_>, t: &AddrAsnTable) -> Annotated {
    let mut any_unmapped = false;
    let mut any_unresponsive = false;
    let src = v.src_addr_id();
    let dst = v.dst_addr_id();
    let hops = (src != NO_ADDR)
        .then(|| t.raw_of(src))
        .into_iter()
        .chain(v.hop_ids().iter().map(|&id| {
            if id == NO_ADDR {
                any_unresponsive = true;
                None
            } else {
                if t.raw_of(id).is_none() {
                    any_unmapped = true;
                }
                t.non_ixp_of(id)
            }
        }))
        .chain((dst != NO_ADDR).then(|| t.raw_of(dst)))
        .collect::<Vec<_>>();
    let mut as_path = AsPath::from_hops(hops);
    let imputed = as_path.impute_bracketed();
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

/// One (src, dst, protocol) group of trace rows, in store order.
struct Group {
    src: ClusterId,
    dst: ClusterId,
    proto: Protocol,
    traces: Vec<u32>,
}

/// Partitions a store's rows by (src, dst, protocol), groups in first-seen
/// order, rows within a group in store (time) order — the same order the
/// record-at-a-time reference builders produce timelines in.
fn group_traces(store: &TraceStore) -> Vec<Group> {
    let mut index: HashMap<(ClusterId, ClusterId, Protocol), usize> = HashMap::new();
    let mut groups: Vec<Group> = Vec::new();
    for v in store.iter() {
        let key = (v.src(), v.dst(), v.proto());
        let gi = *index.entry(key).or_insert_with(|| {
            groups.push(Group { src: key.0, dst: key.1, proto: key.2, traces: Vec::new() });
            groups.len() - 1
        });
        groups[gi].traces.push(v.index() as u32);
    }
    groups
}

/// Builds one group's timeline — the columnar equivalent of feeding the
/// group's records through [`crate::timeline::TimelineBuilder`].
fn build_timeline(
    store: &TraceStore,
    g: &Group,
    ann: &mut ColumnarAnnotator<'_>,
) -> TraceTimeline {
    let mut tl = TraceTimeline {
        src: g.src,
        dst: g.dst,
        proto: g.proto,
        paths: Vec::new(),
        samples: Vec::new(),
        counts: CompletenessCounts::default(),
    };
    for &i in &g.traces {
        let v = store.view(i as usize);
        push_sample(&mut tl, &AnnotatedTrace::new(v, ann.annotate(v)));
    }
    tl
}

/// Appends one annotated trace to its group's timeline: completeness
/// counts, path intern (reached, loop-free traces only) and the sample.
fn push_sample(tl: &mut TraceTimeline, tr: &AnnotatedTrace<'_>) {
    let a = tr.annotated;
    tl.counts.add_outcome(tr.reached, a);
    let path = if tr.reached && !a.has_loop {
        Some(intern_path(&mut tl.paths, &a.as_path))
    } else {
        None
    };
    tl.samples.push(Sample {
        t: tr.t,
        path,
        rtt_ms: tr.e2e_rtt_ms.filter(|_| path.is_some()).map(|r| r as f32),
    });
}

/// Per-timeline path interning, identical to `TimelineBuilder::intern` but
/// borrowing the memoized path (it only clones on first sight).
fn intern_path(paths: &mut Vec<AsPath>, p: &AsPath) -> u16 {
    if let Some(i) = paths.iter().position(|q| q == p) {
        return i as u16;
    }
    assert!(
        paths.len() < u16::MAX as usize,
        "more than 65k distinct AS paths on one timeline"
    );
    paths.push(p.clone());
    (paths.len() - 1) as u16
}

/// An incremental timeline builder over streamed trace batches: the
/// out-of-core counterpart of the grouped driver below. Traces are folded
/// in stream order; because the materialized driver also visits each
/// group's traces in store order, keeps groups in first-seen order, and
/// interns paths per group in trace order, the finished timelines are
/// byte-identical to `timelines_from_store_impl` over the concatenation
/// of all batches — regardless of batch boundaries.
#[derive(Clone, Debug, Default)]
pub(crate) struct StreamingTimelines {
    index: HashMap<(ClusterId, ClusterId, Protocol), usize>,
    timelines: Vec<TraceTimeline>,
}

impl StreamingTimelines {
    pub(crate) fn new() -> StreamingTimelines {
        StreamingTimelines { index: HashMap::new(), timelines: Vec::new() }
    }

    /// Folds one batch in, annotating through `ann`. The annotator must be
    /// built against the arena the batch's interned ids resolve in (one
    /// fresh annotator per shard — ids are shard-local, annotations are
    /// not, so shard-local memos produce identical `Annotated` values).
    pub(crate) fn absorb_batch(&mut self, batch: &TraceStore, ann: &mut ColumnarAnnotator<'_>) {
        for v in batch.iter() {
            self.fold_trace(&AnnotatedTrace::new(v, ann.annotate(v)));
        }
    }

    /// Folds one annotated trace into its group — group lookup,
    /// completeness counts, path intern, sample push — and returns the
    /// group index; the group's last sample is the one just pushed.
    pub(crate) fn fold_trace(&mut self, tr: &AnnotatedTrace<'_>) -> usize {
        use std::collections::hash_map::Entry;
        let key = (tr.src, tr.dst, tr.proto);
        let gi = match self.index.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let gi = self.timelines.len();
                self.timelines.push(TraceTimeline {
                    src: key.0,
                    dst: key.1,
                    proto: key.2,
                    paths: Vec::new(),
                    samples: Vec::new(),
                    counts: CompletenessCounts::default(),
                });
                e.insert(gi);
                gi
            }
        };
        push_sample(&mut self.timelines[gi], tr);
        gi
    }

    /// The timelines built so far, one per group in first-seen order.
    pub(crate) fn timelines(&self) -> &[TraceTimeline] {
        &self.timelines
    }

    /// Streams one open snapshot reader to exhaustion: the address table
    /// resolves once from the reader's arena, then every batch folds in.
    pub(crate) fn absorb_reader<R: std::io::Read>(
        &mut self,
        reader: &mut s2s_probe::SnapshotReader<R>,
        map: &Ip2AsnMap,
    ) -> std::io::Result<()> {
        let table = s2s_obs::timed("analysis.addr_tables", || {
            AddrAsnTable::build(reader.arena(), map)
        });
        let mut ann = ColumnarAnnotator::new(&table);
        while let Some(batch) = reader.next_batch()? {
            self.absorb_batch(batch, &mut ann);
        }
        let (hits, distinct) = ann.memo_stats();
        s2s_obs::add("analysis.annotation_memo_hits", hits);
        s2s_obs::add("analysis.annotations_computed", distinct);
        Ok(())
    }

    /// The finished timelines, one per (src, dst, protocol) group in
    /// first-seen order.
    pub(crate) fn finish(self) -> Vec<TraceTimeline> {
        self.timelines
    }
}

/// The sharded parallel analysis driver behind
/// [`Analysis::timelines`](crate::Analysis::timelines). Groups are split
/// into contiguous chunks, one scoped thread per chunk, each thread
/// running its own memoizing annotator over the shared address table;
/// every group's timeline lands in its pre-assigned output slot, so the
/// result is byte-identical across thread counts — and to the
/// record-at-a-time reference (the equivalence suite pins both).
pub(crate) fn timelines_from_store_impl(
    store: &TraceStore,
    map: &Ip2AsnMap,
    threads: usize,
) -> Vec<TraceTimeline> {
    s2s_obs::timed("analysis.columnar", || {
        if let Some(reg) = s2s_obs::installed() {
            store.publish(&reg);
        }
        let table = s2s_obs::timed("analysis.addr_tables", || AddrAsnTable::build(store, map));
        let groups = s2s_obs::timed("analysis.group", || group_traces(store));
        let threads = threads.max(1).min(groups.len().max(1));
        let mut out: Vec<Option<TraceTimeline>> = (0..groups.len()).map(|_| None).collect();
        let (hits, distinct) = s2s_obs::timed("analysis.shards", || {
            let per = (groups.len() + threads - 1) / threads.max(1);
            let mut hits = 0u64;
            let mut distinct = 0u64;
            if threads <= 1 {
                let mut ann = ColumnarAnnotator::new(&table);
                for (g, slot) in groups.iter().zip(out.iter_mut()) {
                    *slot = Some(build_timeline(store, g, &mut ann));
                }
                (hits, distinct) = ann.memo_stats();
            } else {
                std::thread::scope(|sc| {
                    let handles: Vec<_> = groups
                        .chunks(per)
                        .zip(out.chunks_mut(per))
                        .map(|(gs, os)| {
                            let table = &table;
                            sc.spawn(move || {
                                let mut ann = ColumnarAnnotator::new(table);
                                for (g, slot) in gs.iter().zip(os.iter_mut()) {
                                    *slot = Some(build_timeline(store, g, &mut ann));
                                }
                                ann.memo_stats()
                            })
                        })
                        .collect();
                    for h in handles {
                        let (a, b) = h.join().expect("analysis shard panicked");
                        hits += a;
                        distinct += b;
                    }
                });
            }
            (hits, distinct)
        });
        s2s_obs::add("analysis.annotation_memo_hits", hits);
        s2s_obs::add("analysis.annotations_computed", distinct);
        s2s_obs::event("analysis.columnar", || {
            format!(
                "{} traces, {} groups, {} distinct annotations, {} memo hits",
                store.len(),
                groups.len(),
                distinct,
                hits
            )
        });
        out.into_iter()
            .map(|t| t.expect("every group gets a timeline"))
            .collect()
    })
}

/// Ownership inference over a store, behind
/// [`Analysis::ownership`](crate::Analysis::ownership): each distinct hop
/// sequence seen on at least one *reached* trace contributes once. The
/// heuristics consume sets of links and (x, y, z) triples, so per-sequence
/// deduplication yields the identical inference to feeding every trace's
/// path — at a fraction of the work when the few-distinct-paths property
/// holds.
pub(crate) fn infer_ownership_store_impl(
    store: &TraceStore,
    map: &Ip2AsnMap,
    rels: &AsRelStore,
) -> OwnershipInference {
    let mut seen = vec![false; store.seq_count()];
    for v in store.iter() {
        if v.reached() {
            seen[v.seq_id() as usize] = true;
        }
    }
    let paths: Vec<Vec<Option<IpAddr>>> = seen
        .iter()
        .enumerate()
        .filter(|&(_, &s)| s)
        .map(|(seq, _)| {
            store
                .seq_hops(seq as u32)
                .iter()
                .map(|&id| (id != NO_ADDR).then(|| store.addr(id)))
                .collect()
        })
        .collect();
    s2s_obs::add("analysis.ownership_seqs", paths.len() as u64);
    infer_ownership(&paths, map, rels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::annotate;
    use crate::timeline::TimelineBuilder;
    use s2s_probe::{HopObs, TracerouteRecord};
    use s2s_types::{IpNet, Ipv4Net, SimTime};
    use std::net::Ipv4Addr;

    fn map() -> Ip2AsnMap {
        let anns = vec![
            (IpNet::V4(Ipv4Net::new(Ipv4Addr::new(10, 1, 0, 0), 16)), Asn::new(100)),
            (IpNet::V4(Ipv4Net::new(Ipv4Addr::new(10, 2, 0, 0), 16)), Asn::new(200)),
            (IpNet::V4(Ipv4Net::new(Ipv4Addr::new(10, 3, 0, 0), 16)), Asn::new(300)),
        ];
        let mut m = Ip2AsnMap::from_announcements(&anns);
        m.announce(
            IpNet::V4(Ipv4Net::new(Ipv4Addr::new(10, 9, 0, 0), 16)),
            Asn::new(900),
        );
        m.mark_ixp(Asn::new(900));
        m
    }

    fn rec(
        src: u32,
        dst: u32,
        t: u32,
        addrs: &[Option<&str>],
        reached: bool,
    ) -> TracerouteRecord {
        TracerouteRecord {
            src: ClusterId::new(src),
            dst: ClusterId::new(dst),
            proto: Protocol::V4,
            t: SimTime::from_minutes(t),
            hops: addrs
                .iter()
                .map(|a| HopObs {
                    addr: a.map(|s| s.parse().unwrap()),
                    rtt_ms: a.map(|_| 1.0),
                })
                .collect(),
            reached,
            e2e_rtt_ms: reached.then_some(50.0),
            src_addr: Some("10.1.0.200".parse().unwrap()),
            dst_addr: reached.then(|| "10.3.0.9".parse().unwrap()),
        }
    }

    /// A corpus exercising every annotation branch: clean paths, IXP hops,
    /// unresponsive hops, unmapped hops, loops, unreached traces, and two
    /// interleaved pairs.
    fn corpus() -> Vec<TracerouteRecord> {
        vec![
            rec(0, 1, 0, &[Some("10.1.0.1"), Some("10.2.0.1")], true),
            rec(0, 1, 180, &[Some("10.1.0.1"), Some("10.2.0.2")], true),
            rec(0, 1, 360, &[Some("10.1.0.1"), None, Some("10.2.0.1")], true),
            rec(0, 1, 540, &[Some("10.1.0.1"), Some("10.9.0.5"), Some("10.2.0.1")], true),
            rec(0, 1, 720, &[Some("10.1.0.1"), Some("192.168.0.1")], true),
            rec(0, 1, 900, &[Some("10.1.0.1"), Some("10.2.0.1"), Some("10.1.0.9")], true),
            rec(0, 1, 1080, &[Some("10.1.0.1")], false),
            rec(2, 3, 0, &[Some("10.2.0.7"), Some("10.3.0.1")], true),
            rec(2, 3, 180, &[Some("10.2.0.7"), Some("10.3.0.1")], true),
        ]
    }

    #[test]
    fn columnar_annotation_matches_legacy_per_record() {
        let m = map();
        let recs = corpus();
        let store = TraceStore::from_records(&recs);
        let table = AddrAsnTable::build(&store, &m);
        let mut ann = ColumnarAnnotator::new(&table);
        for (i, r) in recs.iter().enumerate() {
            let legacy = annotate(r, &m);
            let columnar = ann.annotate(store.view(i));
            assert_eq!(*columnar, legacy, "record {i} diverged");
        }
        let (hits, distinct) = ann.memo_stats();
        assert!(hits > 0, "repeated identities must hit the memo");
        assert!((distinct as usize) < recs.len());
    }

    #[test]
    fn columnar_timelines_match_timeline_builder() {
        let m = map();
        let recs = corpus();
        let store = TraceStore::from_records(&recs);
        // Legacy: group manually in first-seen order, stream through the
        // builder.
        let mut legacy: Vec<TraceTimeline> = Vec::new();
        let mut builders: Vec<((ClusterId, ClusterId, Protocol), TimelineBuilder)> = Vec::new();
        for r in &recs {
            let key = (r.src, r.dst, r.proto);
            if !builders.iter().any(|(k, _)| *k == key) {
                builders.push((key, TimelineBuilder::new(r.src, r.dst, r.proto, &m)));
            }
            let b = &mut builders.iter_mut().find(|(k, _)| *k == key).unwrap().1;
            b.push(r.clone());
        }
        for (_, b) in builders {
            legacy.push(b.finish());
        }
        for threads in [1, 2, 4, 7] {
            let columnar = timelines_from_store_impl(&store, &m, threads);
            assert_eq!(columnar, legacy, "threads={threads} diverged");
            assert_eq!(
                format!("{columnar:?}"),
                format!("{legacy:?}"),
                "threads={threads} byte divergence"
            );
        }
    }

    #[test]
    fn ownership_store_matches_per_trace_inference() {
        let m = map();
        let rels = AsRelStore::default();
        let recs = corpus();
        let store = TraceStore::from_records(&recs);
        let per_trace: Vec<Vec<Option<IpAddr>>> = recs
            .iter()
            .filter(|r| r.reached)
            .map(|r| r.hops.iter().map(|h| h.addr).collect())
            .collect();
        let legacy = infer_ownership(&per_trace, &m, &rels);
        let columnar = infer_ownership_store_impl(&store, &m, &rels);
        assert_eq!(columnar.owners, legacy.owners);
        // Label multisets per address match (order may differ: the sets
        // iterate in hash order).
        assert_eq!(columnar.labels.len(), legacy.labels.len());
        for (addr, labels) in &legacy.labels {
            let mut a = labels.clone();
            let mut b = columnar.labels.get(addr).expect("address missing").clone();
            a.sort_by_key(|(asn, h)| (asn.value(), format!("{h:?}")));
            b.sort_by_key(|(asn, h)| (asn.value(), format!("{h:?}")));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn empty_store_yields_no_timelines() {
        let m = map();
        let store = TraceStore::new();
        assert!(timelines_from_store_impl(&store, &m, 1).is_empty());
        assert!(timelines_from_store_impl(&store, &m, 8).is_empty());
    }

    #[test]
    fn streaming_timelines_match_materialized_at_any_batch_split() {
        let m = map();
        let recs = corpus();
        let store = TraceStore::from_records(&recs);
        let materialized = timelines_from_store_impl(&store, &m, 3);
        // Feed the same traces in stream order through arbitrary batch
        // splits: every split must yield byte-identical timelines.
        for split in 1..=recs.len() {
            let mut stream = StreamingTimelines::new();
            for chunk in recs.chunks(split) {
                // Batch stores sharing one arena: rebuild per chunk from
                // the same global store views (ids resolve in `store`).
                let mut batch = TraceStore::new();
                for r in chunk {
                    batch.push(r);
                }
                let batch_table = AddrAsnTable::build(&batch, &m);
                let mut batch_ann = ColumnarAnnotator::new(&batch_table);
                stream.absorb_batch(&batch, &mut batch_ann);
            }
            let streamed = stream.finish();
            assert_eq!(streamed, materialized, "split={split} diverged");
            assert_eq!(
                format!("{streamed:?}"),
                format!("{materialized:?}"),
                "split={split} byte divergence"
            );
        }
    }
}
