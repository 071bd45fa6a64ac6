//! Columnar trace storage: the arena the analysis plane runs on.
//!
//! The paper's key structural observation (§4) — each server pair sees only
//! a handful of distinct router paths, with one dominant — makes per-record
//! `Vec<HopObs>` rows massively redundant: the same hop sequence is stored
//! once per traceroute, i.e. thousands of times per pair. [`TraceStore`]
//! stores a campaign as structure-of-arrays columns instead:
//!
//! * every distinct address is interned to a `u32` id (once per corpus, not
//!   once per observation),
//! * every distinct hop sequence is hash-consed into one flat arena
//!   (`seq_data` + offsets), so a trace's path costs one `u32`,
//! * per-trace scalars (endpoints, time, reached, e2e RTT) are flat columns
//!   with one-bit presence sets for the optional ones,
//! * per-hop RTTs — the only per-observation payload that does not dedup —
//!   live in one flat `f64` array with per-trace offsets.
//!
//! Conversion is lossless both ways ([`TraceStore::from_records`] /
//! [`TraceStore::to_records`], proptest-pinned), and [`TraceView`] exposes
//! the row view without materializing a record. The columnar analysis
//! driver in `s2s-core` consumes views and memoizes per *interned* id, so
//! ip2asn lookups run once per distinct address and path annotation once
//! per distinct (hop sequence, endpoints) — not once per trace.

use crate::records::{HopObs, TracerouteRecord};
use s2s_types::{ClusterId, Protocol, SimTime};
use std::net::IpAddr;

/// Sentinel address id for "no address" (an unresponsive hop, or an unset
/// endpoint address). Never a valid index into the intern table.
pub const NO_ADDR: u32 = u32::MAX;

/// Open-addressed index from an element's hash to its interned id. Equality
/// probes read the arena itself through a caller-supplied closure, so the
/// index stores 4 bytes per slot and never a second copy of the keys (a
/// `HashMap<Box<[u32]>, u32>` would duplicate every interned hop sequence —
/// a measurable share of the arena at campaign scale).
#[derive(Clone, Debug)]
pub(crate) struct IdIndex {
    /// `id + 1` per occupied slot; 0 marks empty. Power-of-two sized,
    /// linear probing, grown at 2/3 load.
    slots: Vec<u32>,
    len: usize,
}

impl Default for IdIndex {
    fn default() -> Self {
        IdIndex { slots: vec![0; 16], len: 0 }
    }
}

impl IdIndex {
    pub(crate) fn get(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            match self.slots[i] {
                0 => return None,
                s if eq(s - 1) => return Some(s - 1),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Inserts a new id (the caller has already checked it is absent).
    /// `hash_of` recomputes a stored id's hash when the table grows.
    pub(crate) fn insert(&mut self, hash: u64, id: u32, mut hash_of: impl FnMut(u32) -> u64) {
        if (self.len + 1) * 3 >= self.slots.len() * 2 {
            let cap = (self.len + 1).next_power_of_two() * 2;
            let old = std::mem::replace(&mut self.slots, vec![0; cap]);
            for s in old {
                if s != 0 {
                    let h = hash_of(s - 1);
                    self.place(h, s);
                }
            }
        }
        self.place(hash, id + 1);
        self.len += 1;
    }

    fn place(&mut self, hash: u64, slot: u32) {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while self.slots[i] != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
    }

    fn bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<u32>()
    }
}

pub(crate) fn hash_of<T: std::hash::Hash + ?Sized>(v: &T) -> u64 {
    use std::hash::Hasher;
    let mut h = InternHasher(0);
    v.hash(&mut h);
    h.finish()
}

/// The intern tables' hasher: one multiply-rotate step per 8-byte word,
/// then a full avalanche (the murmur3 finalizer), because [`IdIndex`]
/// masks the low bits and keys often differ only in a few high ones (an
/// IPv4 address's last octet, a hop sequence's last id). Ids are handed
/// out in first-seen order, so the hash decides probe lengths only, never
/// an id or a byte of any output.
struct InternHasher(u64);

impl InternHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl std::hash::Hasher for InternHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// A packed bit vector (1 bit per entry) for the optional/boolean columns.
#[derive(Clone, Debug, Default)]
pub(crate) struct Bits {
    words: Vec<u64>,
    len: usize,
}

impl Bits {
    pub(crate) fn push(&mut self, v: bool) {
        let (w, b) = (self.len / 64, self.len % 64);
        if w == self.words.len() {
            self.words.push(0);
        }
        if v {
            self.words[w] |= 1 << b;
        }
        self.len += 1;
    }

    pub(crate) fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Appends the low `n` (≤ 64) bits of `word`. Bits past `len` are
    /// always zero, so the first part ORs into the last word.
    fn push_word(&mut self, word: u64, n: usize) {
        debug_assert!(n <= 64);
        if n == 0 {
            return;
        }
        let word = if n < 64 { word & ((1 << n) - 1) } else { word };
        let b = self.len % 64;
        if b == 0 {
            self.words.push(word);
        } else {
            *self.words.last_mut().expect("a partial word") |= word << b;
            if b + n > 64 {
                self.words.push(word >> (64 - b));
            }
        }
        self.len += n;
    }

    /// Bits `start..start + n` (n ≤ 64) as the low bits of a word; bits
    /// above `n` are unspecified.
    fn word_at(&self, start: usize, n: usize) -> u64 {
        let (w, b) = (start / 64, start % 64);
        let mut word = self.words[w] >> b;
        if b != 0 && b + n > 64 {
            word |= self.words[w + 1] << (64 - b);
        }
        word
    }

    /// Appends bits `range` of `src`, a word at a time.
    pub(crate) fn extend_from(&mut self, src: &Bits, range: std::ops::Range<usize>) {
        debug_assert!(range.end <= src.len);
        let mut at = range.start;
        while at < range.end {
            let n = (range.end - at).min(64);
            self.push_word(src.word_at(at, n), n);
            at += n;
        }
    }

    /// Appends `n` bits packed eight to a byte, least significant first
    /// (the snapshot's bitset encoding), a word at a time.
    pub(crate) fn extend_packed(&mut self, bytes: &[u8], n: usize) {
        debug_assert!(bytes.len() == n.div_ceil(8));
        for (k, chunk) in bytes.chunks(8).enumerate() {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.push_word(u64::from_le_bytes(word), (n - 64 * k).min(64));
        }
    }

    fn bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Empties the vector, keeping the word buffer's capacity.
    pub(crate) fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }
}

/// Size/dedup statistics of a store, for observability and benches.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StoreStats {
    /// Traces stored.
    pub traces: usize,
    /// Distinct interned addresses.
    pub distinct_addrs: usize,
    /// Distinct hash-consed hop sequences.
    pub distinct_seqs: usize,
    /// Total hop observations folded in (what row storage would hold).
    pub hop_slots: usize,
    /// Hop slots actually stored in the shared sequence arena.
    pub seq_slots: usize,
    /// Resident bytes of the arena (all columns + intern tables).
    pub arena_bytes: usize,
    /// `hop_slots / seq_slots` — how many times the average stored hop is
    /// shared. The paper's few-distinct-paths property makes this large.
    pub dedup_ratio: f64,
}

/// Columnar, interned storage for traceroute records.
///
/// Rows are append-only ([`TraceStore::push`]); every accessor goes through
/// [`TraceView`]. Two stores collected independently merge with
/// [`TraceStore::absorb`] (ids are remapped, so per-shard stores from a
/// parallel campaign concatenate deterministically).
#[derive(Clone, Debug, Default)]
pub struct TraceStore {
    // Address intern table: the arena itself plus a keyless hash index
    // (equality probes read `addrs`, so no address is stored twice).
    // Fields are `pub(crate)` so the binary snapshot codec in
    // [`crate::snapshot`] can serialize the columns directly.
    pub(crate) addrs: Vec<IpAddr>,
    pub(crate) addr_index: IdIndex,
    // Hash-consed hop sequences: flat arena + offsets, plus a keyless hash
    // index probing `seq_data` directly — consing without duplicating any
    // interned sequence.
    pub(crate) seq_data: Vec<u32>,
    pub(crate) seq_offsets: Vec<u32>,
    pub(crate) seq_index: IdIndex,
    // Per-trace columns.
    pub(crate) srcs: Vec<ClusterId>,
    pub(crate) dsts: Vec<ClusterId>,
    pub(crate) times: Vec<SimTime>,
    pub(crate) seqs: Vec<u32>,
    pub(crate) src_addrs: Vec<u32>,
    pub(crate) dst_addrs: Vec<u32>,
    pub(crate) e2e: Vec<f64>,
    pub(crate) e2e_some: Bits,
    pub(crate) reached: Bits,
    pub(crate) proto_v6: Bits,
    // Per-hop RTTs: flat, one slot per hop observation, with presence bits.
    pub(crate) rtts: Vec<f64>,
    pub(crate) rtt_some: Bits,
    pub(crate) rtt_offsets: Vec<u32>,
    // Scratch buffer reused across pushes (no per-record allocation).
    scratch: Vec<u32>,
}

impl TraceStore {
    /// An empty store.
    pub fn new() -> TraceStore {
        TraceStore { seq_offsets: vec![0], rtt_offsets: vec![0], ..TraceStore::default() }
    }

    /// Number of traces stored.
    pub fn len(&self) -> usize {
        self.srcs.len()
    }

    /// Whether the store holds no traces.
    pub fn is_empty(&self) -> bool {
        self.srcs.is_empty()
    }

    /// The interned address table, in id order. The columnar annotator runs
    /// its batch ip2asn lookup over exactly this slice — once per distinct
    /// address in the corpus.
    pub fn addrs(&self) -> &[IpAddr] {
        &self.addrs
    }

    /// Resolves an interned address id.
    pub fn addr(&self, id: u32) -> IpAddr {
        self.addrs[id as usize]
    }

    /// Number of distinct addresses interned.
    pub fn addr_count(&self) -> usize {
        self.addrs.len()
    }

    /// Number of distinct hop sequences hash-consed.
    pub fn seq_count(&self) -> usize {
        self.seq_offsets.len() - 1
    }

    /// The address ids of one interned hop sequence ([`NO_ADDR`] marks an
    /// unresponsive hop).
    pub fn seq_hops(&self, seq: u32) -> &[u32] {
        let (a, b) =
            (self.seq_offsets[seq as usize] as usize, self.seq_offsets[seq as usize + 1] as usize);
        &self.seq_data[a..b]
    }

    /// Total hop observations folded in (the un-deduplicated count).
    pub fn hop_slots(&self) -> usize {
        self.rtts.len()
    }

    fn intern_addr(&mut self, addr: IpAddr) -> u32 {
        let h = hash_of(&addr);
        let addrs = &self.addrs;
        if let Some(id) = self.addr_index.get(h, |id| addrs[id as usize] == addr) {
            return id;
        }
        let id = self.addrs.len() as u32;
        assert!(id != NO_ADDR, "address intern table overflow");
        self.addrs.push(addr);
        let addrs = &self.addrs;
        self.addr_index.insert(h, id, |i| hash_of(&addrs[i as usize]));
        id
    }

    fn intern_opt(&mut self, addr: Option<IpAddr>) -> u32 {
        match addr {
            Some(a) => self.intern_addr(a),
            None => NO_ADDR,
        }
    }

    fn intern_seq(&mut self, seq: &[u32]) -> u32 {
        let h = hash_of(seq);
        let data = &self.seq_data;
        let offs = &self.seq_offsets;
        let at = |id: u32| &data[offs[id as usize] as usize..offs[id as usize + 1] as usize];
        if let Some(id) = self.seq_index.get(h, |id| at(id) == seq) {
            return id;
        }
        let id = self.seq_count() as u32;
        assert!(id != u32::MAX, "hop-sequence intern table overflow");
        self.seq_data.extend_from_slice(seq);
        self.seq_offsets.push(self.seq_data.len() as u32);
        let data = &self.seq_data;
        let offs = &self.seq_offsets;
        self.seq_index.insert(h, id, |i| {
            hash_of(&data[offs[i as usize] as usize..offs[i as usize + 1] as usize])
        });
        id
    }

    /// Appends one record (losslessly — [`TraceStore::to_records`] returns
    /// it bit-for-bit).
    pub fn push(&mut self, rec: &TracerouteRecord) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        for h in &rec.hops {
            scratch.push(self.intern_opt(h.addr));
        }
        let seq = self.intern_seq(&scratch);
        self.scratch = scratch;
        self.srcs.push(rec.src);
        self.dsts.push(rec.dst);
        self.times.push(rec.t);
        self.seqs.push(seq);
        let src_addr = self.intern_opt(rec.src_addr);
        let dst_addr = self.intern_opt(rec.dst_addr);
        self.src_addrs.push(src_addr);
        self.dst_addrs.push(dst_addr);
        self.e2e.push(rec.e2e_rtt_ms.unwrap_or(0.0));
        self.e2e_some.push(rec.e2e_rtt_ms.is_some());
        self.reached.push(rec.reached);
        self.proto_v6.push(rec.proto == Protocol::V6);
        for h in &rec.hops {
            self.rtts.push(h.rtt_ms.unwrap_or(0.0));
            self.rtt_some.push(h.rtt_ms.is_some());
        }
        self.rtt_offsets.push(self.rtts.len() as u32);
    }

    /// Builds a store from a record slice.
    pub fn from_records(records: &[TracerouteRecord]) -> TraceStore {
        let mut s = TraceStore::new();
        for r in records {
            s.push(r);
        }
        s
    }

    /// Materializes every trace back into records, in insertion order.
    /// Inverse of [`TraceStore::from_records`].
    pub fn to_records(&self) -> Vec<TracerouteRecord> {
        self.iter().map(|v| v.to_record()).collect()
    }

    /// A zero-copy view of trace `i`.
    pub fn view(&self, i: usize) -> TraceView<'_> {
        debug_assert!(i < self.len());
        TraceView { store: self, i }
    }

    /// Views of every trace, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = TraceView<'_>> {
        (0..self.len()).map(move |i| self.view(i))
    }

    /// Appends every trace of `other`, remapping its interned ids into this
    /// store's tables. Absorbing per-shard stores in a fixed order yields a
    /// store identical to pushing all records sequentially in that order.
    pub fn absorb(&mut self, other: &TraceStore) {
        let (addr_map, seq_map) = self.absorb_maps(other);
        self.absorb_rows(other, 0..other.len(), &addr_map, &seq_map);
    }

    /// First half of [`TraceStore::absorb`]: interns `other`'s full address
    /// table and hop-sequence arena (in id order, so interning order matches
    /// a sequential push of the same records) and returns the id remaps.
    /// Split out so the streaming snapshot reader can intern a shard's
    /// arenas once and then feed trace batches through
    /// [`TraceStore::absorb_rows`] without ever materializing the shard.
    pub(crate) fn absorb_maps(&mut self, other: &TraceStore) -> (Vec<u32>, Vec<u32>) {
        let addr_map: Vec<u32> =
            other.addrs.iter().map(|&a| self.intern_addr(a)).collect();
        let remap = |id: u32| if id == NO_ADDR { NO_ADDR } else { addr_map[id as usize] };
        let mut seq_map = Vec::with_capacity(other.seq_count());
        let mut scratch = std::mem::take(&mut self.scratch);
        for s in 0..other.seq_count() {
            scratch.clear();
            scratch.extend(other.seq_hops(s as u32).iter().map(|&id| remap(id)));
            seq_map.push(self.intern_seq(&scratch));
        }
        self.scratch = scratch;
        (addr_map, seq_map)
    }

    /// Second half of [`TraceStore::absorb`]: appends `other`'s rows
    /// `rows`, remapping ids through maps built by
    /// [`TraceStore::absorb_maps`] or [`TraceStore::intern_rows`] against
    /// `other`'s arenas (or a superset — a batch buffer sharing a shard's
    /// arenas qualifies). Interns nothing, so the target's own arenas may
    /// be empty: a batch of rows whose ids point into another store's
    /// arenas.
    pub(crate) fn absorb_rows(
        &mut self,
        other: &TraceStore,
        rows: std::ops::Range<usize>,
        addr_map: &[u32],
        seq_map: &[u32],
    ) {
        let remap = |id: u32| if id == NO_ADDR { NO_ADDR } else { addr_map[id as usize] };
        self.seqs.extend(other.seqs[rows.clone()].iter().map(|&s| seq_map[s as usize]));
        self.src_addrs.extend(other.src_addrs[rows.clone()].iter().map(|&a| remap(a)));
        self.dst_addrs.extend(other.dst_addrs[rows.clone()].iter().map(|&a| remap(a)));
        self.srcs.extend_from_slice(&other.srcs[rows.clone()]);
        self.dsts.extend_from_slice(&other.dsts[rows.clone()]);
        self.times.extend_from_slice(&other.times[rows.clone()]);
        self.e2e.extend_from_slice(&other.e2e[rows.clone()]);
        self.e2e_some.extend_from(&other.e2e_some, rows.clone());
        self.reached.extend_from(&other.reached, rows.clone());
        self.proto_v6.extend_from(&other.proto_v6, rows.clone());
        let (a, b) = (other.rtt_offsets[rows.start], other.rtt_offsets[rows.end]);
        let base = self.rtts.len() as u32;
        self.rtts.extend_from_slice(&other.rtts[a as usize..b as usize]);
        self.rtt_some.extend_from(&other.rtt_some, a as usize..b as usize);
        let ends = &other.rtt_offsets[rows.start + 1..rows.end + 1];
        self.rtt_offsets.extend(ends.iter().map(|&o| o - a + base));
    }

    /// Interns the addresses and hop sequences `other`'s rows `rows` use,
    /// in the order [`TraceStore::push`] would meet them, and returns the
    /// id remaps for [`TraceStore::absorb_rows`] (ids the rows do not use
    /// stay unmapped). Costs O(rows + `other`'s arena ids), not O(`other`).
    pub(crate) fn intern_rows(
        &mut self,
        other: &TraceStore,
        rows: std::ops::Range<usize>,
    ) -> (Vec<u32>, Vec<u32>) {
        const UNMAPPED: u32 = u32::MAX;
        let mut addr_map = vec![UNMAPPED; other.addr_count()];
        let mut seq_map = vec![UNMAPPED; other.seq_count()];
        let mut map_addr = |this: &mut TraceStore, id: u32| {
            if id == NO_ADDR {
                return NO_ADDR;
            }
            let slot = &mut addr_map[id as usize];
            if *slot == UNMAPPED {
                *slot = this.intern_addr(other.addrs[id as usize]);
            }
            *slot
        };
        let mut scratch = std::mem::take(&mut self.scratch);
        for i in rows {
            let s = other.seqs[i] as usize;
            if seq_map[s] == UNMAPPED {
                scratch.clear();
                for &id in other.seq_hops(s as u32) {
                    scratch.push(map_addr(self, id));
                }
                seq_map[s] = self.intern_seq(&scratch);
            }
            map_addr(self, other.src_addrs[i]);
            map_addr(self, other.dst_addrs[i]);
        }
        self.scratch = scratch;
        (addr_map, seq_map)
    }

    /// Appends rows `rows` of `other`, interning only the addresses and hop
    /// sequences those rows use, in the order [`TraceStore::push`] would
    /// meet them — the result equals pushing `other`'s records for `rows`
    /// one by one. The reference `snapshot::write_parts` is tested against.
    #[cfg(test)]
    pub(crate) fn absorb_range(&mut self, other: &TraceStore, rows: std::ops::Range<usize>) {
        let (addr_map, seq_map) = self.intern_rows(other, rows.clone());
        self.absorb_rows(other, rows, &addr_map, &seq_map);
    }

    /// Drops every per-trace column while keeping the interned address
    /// table, the hop-sequence arena, the intern indices, and all column
    /// capacity. This is the snapshot reader's batch reset: after a clear,
    /// decoded BLOCK rows land in already-allocated columns whose ids keep
    /// resolving against the shared arenas.
    pub(crate) fn clear_traces(&mut self) {
        self.srcs.clear();
        self.dsts.clear();
        self.times.clear();
        self.seqs.clear();
        self.src_addrs.clear();
        self.dst_addrs.clear();
        self.e2e.clear();
        self.e2e_some.clear();
        self.reached.clear();
        self.proto_v6.clear();
        self.rtts.clear();
        self.rtt_some.clear();
        self.rtt_offsets.clear();
        self.rtt_offsets.push(0);
    }

    /// Rebuilds the keyless intern indices from the arenas — what a
    /// snapshot open does after bulk-loading the address table and the
    /// sequence arena. O(distinct addresses + distinct sequences); the
    /// rebuilt indices probe identically to ones grown by interning.
    pub(crate) fn rebuild_indices(&mut self) {
        self.addr_index = IdIndex::default();
        for id in 0..self.addrs.len() {
            let h = hash_of(&self.addrs[id]);
            let addrs = &self.addrs;
            self.addr_index.insert(h, id as u32, |i| hash_of(&addrs[i as usize]));
        }
        self.seq_index = IdIndex::default();
        for id in 0..self.seq_count() {
            let (a, b) =
                (self.seq_offsets[id] as usize, self.seq_offsets[id + 1] as usize);
            let h = hash_of(&self.seq_data[a..b]);
            let (data, offs) = (&self.seq_data, &self.seq_offsets);
            self.seq_index.insert(h, id as u32, |i| {
                hash_of(&data[offs[i as usize] as usize..offs[i as usize + 1] as usize])
            });
        }
    }

    /// Resident bytes of the arena: every column, the flat sequence arena,
    /// and the keyless intern indices (4 bytes per hash slot — the indices
    /// hold no keys, they probe the arena). Used lengths, not capacities —
    /// this is the dataset's size, not the allocator's.
    pub fn arena_bytes(&self) -> usize {
        use std::mem::size_of;
        let per_trace = self.srcs.len()
            * (size_of::<ClusterId>() * 2
                + size_of::<SimTime>()
                + size_of::<u32>() * 4 // seq id, src/dst addr ids, rtt offset
                + size_of::<f64>()) // e2e
            + self.e2e_some.bytes()
            + self.reached.bytes()
            + self.proto_v6.bytes();
        let hops = self.rtts.len() * size_of::<f64>() + self.rtt_some.bytes();
        let seq_arena =
            self.seq_data.len() * size_of::<u32>() + self.seq_offsets.len() * size_of::<u32>();
        let addr_table =
            self.addrs.len() * size_of::<IpAddr>() + self.addr_index.bytes();
        per_trace + hops + seq_arena + addr_table + self.seq_index.bytes()
    }

    /// The `hop_slots / seq_slots` sharing factor (1.0 when nothing dedups,
    /// large when the few-distinct-paths property holds).
    pub fn dedup_ratio(&self) -> f64 {
        self.rtts.len() as f64 / (self.seq_data.len().max(1)) as f64
    }

    /// Snapshot of the store's size/dedup statistics.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            traces: self.len(),
            distinct_addrs: self.addr_count(),
            distinct_seqs: self.seq_count(),
            hop_slots: self.hop_slots(),
            seq_slots: self.seq_data.len(),
            arena_bytes: self.arena_bytes(),
            dedup_ratio: self.dedup_ratio(),
        }
    }

    /// Publishes the store's statistics as gauges on a metrics registry
    /// (`trace_store.*`; the dedup ratio is scaled ×1000 since gauges are
    /// integral).
    pub fn publish(&self, registry: &s2s_obs::Registry) {
        let s = self.stats();
        registry.gauge("trace_store.traces").set(s.traces as u64);
        registry.gauge("trace_store.distinct_addrs").set(s.distinct_addrs as u64);
        registry.gauge("trace_store.distinct_hopseqs").set(s.distinct_seqs as u64);
        registry.gauge("trace_store.hop_slots").set(s.hop_slots as u64);
        registry.gauge("trace_store.arena_bytes").set(s.arena_bytes as u64);
        registry.gauge("trace_store.dedup_ratio_milli").set((s.dedup_ratio * 1000.0) as u64);
    }
}

/// Zero-copy accessor for one trace in a [`TraceStore`].
#[derive(Clone, Copy)]
pub struct TraceView<'a> {
    pub(crate) store: &'a TraceStore,
    i: usize,
}

impl<'a> TraceView<'a> {
    /// Row index within the store.
    pub fn index(&self) -> usize {
        self.i
    }

    /// Source vantage point.
    pub fn src(&self) -> ClusterId {
        self.store.srcs[self.i]
    }

    /// Destination vantage point.
    pub fn dst(&self) -> ClusterId {
        self.store.dsts[self.i]
    }

    /// Protocol probed.
    pub fn proto(&self) -> Protocol {
        if self.store.proto_v6.get(self.i) {
            Protocol::V6
        } else {
            Protocol::V4
        }
    }

    /// When the traceroute ran.
    pub fn t(&self) -> SimTime {
        self.store.times[self.i]
    }

    /// Whether the destination answered.
    pub fn reached(&self) -> bool {
        self.store.reached.get(self.i)
    }

    /// End-to-end RTT, ms.
    pub fn e2e_rtt_ms(&self) -> Option<f64> {
        self.store.e2e_some.get(self.i).then(|| self.store.e2e[self.i])
    }

    /// Interned id of the source address ([`NO_ADDR`] when unset).
    pub fn src_addr_id(&self) -> u32 {
        self.store.src_addrs[self.i]
    }

    /// Interned id of the destination address ([`NO_ADDR`] when unset).
    pub fn dst_addr_id(&self) -> u32 {
        self.store.dst_addrs[self.i]
    }

    /// The vantage point's own address.
    pub fn src_addr(&self) -> Option<IpAddr> {
        self.resolve(self.src_addr_id())
    }

    /// The destination address probed.
    pub fn dst_addr(&self) -> Option<IpAddr> {
        self.resolve(self.dst_addr_id())
    }

    /// Interned id of this trace's hop sequence.
    pub fn seq_id(&self) -> u32 {
        self.store.seqs[self.i]
    }

    /// The hop sequence as interned address ids (zero-copy; [`NO_ADDR`]
    /// marks unresponsive hops).
    pub fn hop_ids(&self) -> &'a [u32] {
        self.store.seq_hops(self.seq_id())
    }

    /// Number of hops.
    pub fn hop_len(&self) -> usize {
        self.hop_ids().len()
    }

    /// Address of hop `k`.
    pub fn hop_addr(&self, k: usize) -> Option<IpAddr> {
        self.resolve(self.hop_ids()[k])
    }

    /// RTT of hop `k`, ms.
    pub fn hop_rtt_ms(&self, k: usize) -> Option<f64> {
        let base = self.store.rtt_offsets[self.i] as usize;
        self.store.rtt_some.get(base + k).then(|| self.store.rtts[base + k])
    }

    /// Materializes the row back into a [`TracerouteRecord`].
    pub fn to_record(&self) -> TracerouteRecord {
        let hops = (0..self.hop_len())
            .map(|k| HopObs { addr: self.hop_addr(k), rtt_ms: self.hop_rtt_ms(k) })
            .collect();
        TracerouteRecord {
            src: self.src(),
            dst: self.dst(),
            proto: self.proto(),
            t: self.t(),
            hops,
            reached: self.reached(),
            e2e_rtt_ms: self.e2e_rtt_ms(),
            src_addr: self.src_addr(),
            dst_addr: self.dst_addr(),
        }
    }

    fn resolve(&self, id: u32) -> Option<IpAddr> {
        (id != NO_ADDR).then(|| self.store.addr(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::net::{Ipv4Addr, Ipv6Addr};

    fn rec(
        src: u32,
        t: u32,
        hops: &[(Option<&str>, Option<f64>)],
        reached: bool,
    ) -> TracerouteRecord {
        TracerouteRecord {
            src: ClusterId::new(src),
            dst: ClusterId::new(src + 1),
            proto: Protocol::V4,
            t: SimTime::from_minutes(t),
            hops: hops
                .iter()
                .map(|(a, r)| HopObs { addr: a.map(|s| s.parse().unwrap()), rtt_ms: *r })
                .collect(),
            reached,
            e2e_rtt_ms: reached.then_some(42.5),
            src_addr: Some("10.0.0.1".parse().unwrap()),
            dst_addr: reached.then(|| "10.9.0.1".parse().unwrap()),
        }
    }

    #[test]
    fn round_trips_and_interns() {
        let recs = vec![
            rec(0, 0, &[(Some("10.1.0.1"), Some(1.5)), (Some("10.2.0.1"), Some(2.5))], true),
            // Same hop sequence, different RTTs: the sequence must cons.
            rec(0, 180, &[(Some("10.1.0.1"), Some(1.7)), (Some("10.2.0.1"), Some(2.2))], true),
            // Unresponsive hop, unreached trace.
            rec(1, 0, &[(Some("10.1.0.1"), Some(1.0)), (None, None)], false),
            // Empty hops.
            rec(2, 0, &[], true),
        ];
        let store = TraceStore::from_records(&recs);
        assert_eq!(store.to_records(), recs);
        assert_eq!(store.len(), 4);
        assert_eq!(store.seq_count(), 3, "two identical sequences must cons");
        assert_eq!(store.view(0).seq_id(), store.view(1).seq_id());
        // Distinct addresses: 10.1.0.1, 10.2.0.1, 10.0.0.1 (src), 10.9.0.1.
        assert_eq!(store.addr_count(), 4);
        assert_eq!(store.hop_slots(), 6);
        let stats = store.stats();
        assert_eq!(stats.traces, 4);
        assert!(stats.arena_bytes > 0);
        assert!(stats.dedup_ratio > 1.0);
    }

    #[test]
    fn view_accessors_match_record_fields() {
        let r = rec(3, 77, &[(Some("10.1.0.1"), Some(1.5)), (None, None)], true);
        let store = TraceStore::from_records(std::slice::from_ref(&r));
        let v = store.view(0);
        assert_eq!(v.src(), r.src);
        assert_eq!(v.dst(), r.dst);
        assert_eq!(v.proto(), r.proto);
        assert_eq!(v.t(), r.t);
        assert_eq!(v.reached(), r.reached);
        assert_eq!(v.e2e_rtt_ms(), r.e2e_rtt_ms);
        assert_eq!(v.src_addr(), r.src_addr);
        assert_eq!(v.dst_addr(), r.dst_addr);
        assert_eq!(v.hop_len(), 2);
        assert_eq!(v.hop_addr(0), r.hops[0].addr);
        assert_eq!(v.hop_rtt_ms(0), r.hops[0].rtt_ms);
        assert_eq!(v.hop_ids()[1], NO_ADDR);
        assert_eq!(v.hop_rtt_ms(1), None);
    }

    #[test]
    fn absorb_equals_sequential_push() {
        let a = vec![
            rec(0, 0, &[(Some("10.1.0.1"), Some(1.0))], true),
            rec(0, 60, &[(Some("10.1.0.1"), Some(1.1))], true),
        ];
        let b = vec![
            rec(1, 0, &[(Some("10.1.0.1"), Some(2.0)), (Some("10.2.0.1"), Some(3.0))], true),
            rec(1, 60, &[(None, None)], false),
        ];
        let mut merged = TraceStore::new();
        merged.absorb(&TraceStore::from_records(&a));
        merged.absorb(&TraceStore::from_records(&b));
        let all: Vec<_> = a.iter().chain(&b).cloned().collect();
        let direct = TraceStore::from_records(&all);
        assert_eq!(merged.to_records(), all);
        assert_eq!(merged.to_records(), direct.to_records());
        assert_eq!(merged.stats(), direct.stats(), "absorb must not change interning");
    }

    #[test]
    fn empty_store() {
        let s = TraceStore::new();
        assert!(s.is_empty());
        assert_eq!(s.seq_count(), 0);
        assert!(s.to_records().is_empty());
        assert_eq!(s.dedup_ratio(), 0.0);
    }

    /// Word-wise bit appends equal bit-by-bit pushes at every alignment
    /// of source range and destination length.
    #[test]
    fn bit_appends_match_single_pushes() {
        let pattern: Vec<bool> = (0..300u64).map(|i| ((i * 2_654_435_761) >> 7) & 1 == 1).collect();
        let mut src = Bits::default();
        pattern.iter().for_each(|&b| src.push(b));
        let mut packed = Vec::new();
        for byte in pattern.chunks(8) {
            packed.push(byte.iter().enumerate().fold(0u8, |acc, (i, &b)| acc | u8::from(b) << i));
        }
        for lead in [0usize, 1, 63, 64, 65, 100] {
            for start in [0usize, 1, 7, 63, 64, 65, 130] {
                for len in [0usize, 1, 5, 63, 64, 65, 129, 170] {
                    let mut want = Bits::default();
                    let mut got = Bits::default();
                    for &b in &pattern[..lead] {
                        want.push(b);
                        got.push(b);
                    }
                    pattern[start..start + len].iter().for_each(|&b| want.push(b));
                    got.extend_from(&src, start..start + len);
                    let what = format!("{lead} {start} {len}");
                    assert_eq!((&got.words, got.len), (&want.words, want.len), "{what}");
                }
                let mut want = Bits::default();
                let mut got = Bits::default();
                for &b in &pattern[..lead] {
                    want.push(b);
                    got.push(b);
                }
                let n = 300 - 8 * (start / 8);
                pattern[300 - n..].iter().for_each(|&b| want.push(b));
                got.extend_packed(&packed[(300 - n) / 8..], n);
                assert_eq!((&got.words, got.len), (&want.words, want.len), "packed {lead} {n}");
            }
        }
    }

    /// Mean slots probed per successful lookup: from each id's home slot
    /// (its hash under the mask) to the slot holding it, inclusive.
    fn mean_probe_len(index: &IdIndex, hash: impl Fn(u32) -> u64) -> f64 {
        let mask = index.slots.len() - 1;
        let probes: usize = index
            .slots
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s != 0)
            .map(|(at, &s)| (at.wrapping_sub(hash(s - 1) as usize) & mask) + 1)
            .sum();
        probes as f64 / index.len as f64
    }

    /// The intern hash spreads keys that differ only in a few bits —
    /// sequential IPv4 addresses, IPv6 addresses that differ in the low
    /// bits, short hop sequences over few ids — as well as a random hash
    /// would: linear probing at ≤ 2/3 load expects ≤ 2 probes per hit.
    #[test]
    fn intern_hash_keeps_probes_short_on_adversarial_keys() {
        let n = 20_000u32;
        let mut v4 = TraceStore::new();
        let mut v6 = TraceStore::new();
        for i in 0..n {
            v4.intern_addr(IpAddr::V4(Ipv4Addr::from(0x0a00_0000 + i)));
            v6.intern_addr(IpAddr::V6(Ipv6Addr::from((0x2600u128 << 112) | u128::from(i))));
        }
        let mut seqs = TraceStore::new();
        for a in 0..150u32 {
            seqs.intern_seq(&[a]);
            for b in 0..150u32 {
                seqs.intern_seq(&[a, b]);
                seqs.intern_seq(&[a, b, 7]);
            }
        }
        let cases = [
            ("sequential IPv4", mean_probe_len(&v4.addr_index, |i| hash_of(&v4.addrs[i as usize]))),
            ("low-bit IPv6", mean_probe_len(&v6.addr_index, |i| hash_of(&v6.addrs[i as usize]))),
            ("short hop sequences", mean_probe_len(&seqs.seq_index, |i| hash_of(seqs.seq_hops(i)))),
        ];
        assert_eq!((v4.addr_count(), v6.addr_count()), (n as usize, n as usize));
        assert_eq!(seqs.seq_count(), 150 + 2 * 150 * 150);
        for (what, mean) in cases {
            assert!(mean <= 2.0, "{what}: {mean:.3} probes per hit");
        }
    }

    /// Raw material for one arbitrary record (the offline proptest shim has
    /// no `prop_map`, so the mapping happens in [`build_records`]):
    /// `(src, dst, t, hops, flags, e2e)` where each hop is
    /// `(tag, addr_bits, rtt)` and `flags` packs reached / V6 / e2e-some /
    /// src-addr-some / dst-addr-some bits.
    type RawRecord = (u32, u32, u32, Vec<(u8, u32, f64)>, u8, f64);

    fn arb_records() -> impl Strategy<Value = Vec<RawRecord>> {
        let hop = (0u8..4, any::<u32>(), 0.0f64..1e4);
        let record = (
            0u32..8,
            0u32..8,
            0u32..100_000,
            proptest::collection::vec(hop, 0..8),
            0u8..32,
            0.0f64..1e4,
        );
        proptest::collection::vec(record, 0..24)
    }

    /// Maps raw material into records, covering `None` hops/RTTs, unreached
    /// traces, both address families, and missing endpoint addresses.
    fn build_records(raw: &[RawRecord]) -> Vec<TracerouteRecord> {
        raw.iter()
            .map(|&(src, dst, t, ref hops, flags, e2e)| TracerouteRecord {
                src: ClusterId::new(src),
                dst: ClusterId::new(dst),
                proto: if flags & 2 != 0 { Protocol::V6 } else { Protocol::V4 },
                t: SimTime::from_minutes(t),
                hops: hops
                    .iter()
                    .map(|&(tag, a, rtt)| match tag {
                        0 => HopObs { addr: None, rtt_ms: None },
                        1 => HopObs {
                            addr: Some(IpAddr::V4(Ipv4Addr::from(a))),
                            rtt_ms: Some(rtt),
                        },
                        2 => HopObs {
                            addr: Some(IpAddr::V6(Ipv6Addr::from(
                                u128::from(a) << 64 | 0x2600,
                            ))),
                            rtt_ms: Some(rtt),
                        },
                        // A small pool, so sequences collide and interning
                        // actually triggers; RTT missing despite a reply.
                        _ => HopObs {
                            addr: Some(IpAddr::V4(Ipv4Addr::from(a % 16))),
                            rtt_ms: None,
                        },
                    })
                    .collect(),
                reached: flags & 1 != 0,
                e2e_rtt_ms: (flags & 4 != 0).then_some(e2e),
                src_addr: (flags & 8 != 0).then(|| IpAddr::V4(Ipv4Addr::from(src << 8 | 1))),
                dst_addr: (flags & 16 != 0).then(|| IpAddr::V4(Ipv4Addr::from(dst << 8 | 2))),
            })
            .collect()
    }

    proptest! {
        /// `records ⇄ TraceStore` is lossless, including `None` hops/RTTs,
        /// unreached traces, and absent endpoint addresses.
        #[test]
        fn prop_record_store_round_trip(raw in arb_records()) {
            let recs = build_records(&raw);
            let store = TraceStore::from_records(&recs);
            prop_assert_eq!(store.to_records(), recs);
        }

        /// Absorbing split halves equals building from the concatenation —
        /// records, interning, and statistics alike.
        #[test]
        fn prop_absorb_matches_sequential(raw in arb_records(), cut in 0usize..25) {
            let recs = build_records(&raw);
            let cut = cut.min(recs.len());
            let mut merged = TraceStore::from_records(&recs[..cut]);
            merged.absorb(&TraceStore::from_records(&recs[cut..]));
            let direct = TraceStore::from_records(&recs);
            prop_assert_eq!(merged.to_records(), direct.to_records());
            prop_assert_eq!(merged.stats(), direct.stats());
        }

        /// A row-range absorb equals pushing those rows' records onto the
        /// same store: records, interning order and statistics alike, also
        /// when the target already holds some of their addresses.
        #[test]
        fn prop_absorb_range_matches_push(
            raw in arb_records(),
            lo in 0usize..25,
            hi in 0usize..25,
            base in 0usize..25,
        ) {
            let recs = build_records(&raw);
            let (lo, hi) = (lo.min(recs.len()), hi.min(recs.len()));
            let (lo, hi) = (lo.min(hi), lo.max(hi));
            let base = &recs[..base.min(recs.len())];
            let source = TraceStore::from_records(&recs);
            let mut ranged = TraceStore::from_records(base);
            ranged.absorb_range(&source, lo..hi);
            let mut pushed = TraceStore::from_records(base);
            for r in &recs[lo..hi] {
                pushed.push(r);
            }
            prop_assert_eq!(ranged.to_records(), pushed.to_records());
            prop_assert_eq!(ranged.addrs(), pushed.addrs());
            prop_assert_eq!(&ranged.seq_data, &pushed.seq_data);
            prop_assert_eq!(ranged.stats(), pushed.stats());
        }

        /// The dedup accounting identities: hop slots equal the sum of hop
        /// counts, and the sequence arena never exceeds the slot count.
        #[test]
        fn prop_stats_identities(raw in arb_records()) {
            let recs = build_records(&raw);
            let store = TraceStore::from_records(&recs);
            let s = store.stats();
            prop_assert_eq!(s.hop_slots, recs.iter().map(|r| r.hops.len()).sum::<usize>());
            prop_assert!(s.seq_slots <= s.hop_slots);
            prop_assert_eq!(s.traces, recs.len());
        }
    }
}
