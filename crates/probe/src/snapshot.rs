//! Binary columnar snapshots: the on-disk twin of [`TraceStore`].
//!
//! The `|`-record archive ([`crate::dataset`]) is the *interchange* form —
//! human-greppable, line-oriented, re-parsed at microseconds per line. At
//! the paper's scale (~2.6 B traceroutes) that re-parse is the dominant
//! cost of every analysis, because the text form stores each hop sequence
//! once per trace and re-interns everything on import. A snapshot instead
//! persists the store's *arenas*: the interned address table and the
//! hash-consed sequence arena are written once per **distinct** value, and
//! the per-trace columns are written as raw little-endian arrays that load
//! back with bulk copies — so an open runs in O(distinct-data + column
//! bytes), not O(lines × fields), and the reopened store is byte-identical
//! to the one that was saved ([`TraceStore::to_records`] agrees exactly,
//! proptest-pinned).
//!
//! ## Layout (version 1)
//!
//! ```text
//! magic  "S2SNAP01"                                  8 bytes
//! version u32                                        4 bytes
//! segment*                                           until END
//! ```
//!
//! Every segment is length-prefixed and independently checksummed:
//!
//! ```text
//! tag         u32    ADDR=1 SEQ=2 BLOCK=3 SINK=4 END=5
//! count       u64    records in this segment (traces for BLOCK)
//! len         u64    payload bytes
//! payload_fnv u64    FNV-1a over the payload
//! header_fnv  u64    FNV-1a over the 28 header bytes above
//! payload     len bytes
//! ```
//!
//! * `ADDR` — the interned address table, id order: one tag byte (4 or 6)
//!   plus the 4- or 16-byte address per entry.
//! * `SEQ` — the hop-sequence arena: the flat `u32` id array plus the
//!   per-sequence end offsets.
//! * `BLOCK` — a batch of traces ([`DEFAULT_BLOCK_TRACES`] when written
//!   through the file helpers): every per-trace column as a raw array,
//!   presence/boolean bitsets packed per block, per-trace hop counts, and
//!   the block's flat hop-RTT slots. Blocks are the unit of loss: a torn
//!   or bit-flipped block degrades to `count` skipped traces, everything
//!   else still loads.
//! * `SINK` — serialized [`StreamSink`](crate::stream::StreamSink) state
//!   lines (bit-exact strings, PR 5), so a campaign's sketch/sink results
//!   ride in the same file and reopen without replay.
//! * `END` — the totals (traces, sinks). A snapshot without its `END`
//!   segment was torn mid-write, and a snapshot ends at its `END`: any
//!   byte after it is damage (an error when strict, a counted
//!   [`SnapshotReport::trailing_bytes`] note when lossy), so a log of
//!   several snapshots never opens as its first one.
//!
//! ## Logs of snapshots
//!
//! An append-only writer ([`append_file`]) leaves a *log*: complete
//! snapshots back to back, each with its own prologue and `END`. A
//! [`LogReader`] reads such a log one chunk at a time, strictly, and
//! reports the byte offset just past the last chunk that read cleanly;
//! a torn or damaged chunk ends the log there, and the caller cuts the
//! file back to that offset before appending again.
//!
//! ## Opening: `Snapshot::options()`
//!
//! The one front door over the lossy/strict/streamed matrix:
//!
//! ```text
//! Snapshot::options()            strict, materialized (the default)
//!     .lossy(true)               damage degrades to counted skips
//!     .stream(true)              out-of-core: bounded batches
//!     .block_budget(n)           reuse-buffer cap (default DEFAULT_BLOCK_TRACES)
//!     .open(path)                -> SnapshotReader
//! ```
//!
//! Every open returns a [`SnapshotReader`]. The arenas (`ADDR` + `SEQ`)
//! load once at open; [`SnapshotReader::next_batch`] then decodes `BLOCK`
//! segments into a reused buffer until the trace budget fills, so resident
//! bytes stay O(arena + one batch) no matter how many traces the file
//! holds. [`SnapshotReader::into_snapshot`] drains the stream into a
//! materialized [`Snapshot`] — what [`open_file`] (a thin shim over the
//! builder) returns. [`absorb_files`] streams N per-shard files into one
//! store while holding at most one shard's arena plus one batch; [`SnapshotOptions::open_dir`] wraps a directory of
//! `shard-<k>.snap` files as a [`ShardDir`] analysis source.
//!
//! ## Corruption policy
//!
//! A strict open errors on the first bad byte. A lossy one mirrors
//! [`crate::dataset::read_traceroutes_lossy`]: damage degrades to
//! *counted* skips, never a panic and never silent acceptance. A corrupt
//! `BLOCK` skips exactly `count` traces; a corrupt `SINK` segment skips
//! its `count` states; a corrupt `ADDR`/`SEQ` segment poisons every
//! subsequent block (their ids would dangle) so those blocks are counted
//! skipped too; a header that fails its own checksum ends the scan (framing
//! is lost) and the `END` totals — when they were seen — still bound how
//! much was lost. Every decoded id is range-checked before it enters the
//! store, so a checksum collision cannot plant an out-of-bounds index. A
//! file that ends before its first segment header — zero bytes, a magic
//! prefix, or a bare prologue — is a distinct *empty snapshot* condition
//! ([`SnapshotReport::empty`]), not a generic torn tail.

use crate::store::TraceStore;
use s2s_types::{ClusterId, Coverage, SimTime};
use std::io::{self, Read, Seek, Write};
use std::net::IpAddr;
use std::path::Path;

/// File magic: identifies a snapshot regardless of the version field.
pub const MAGIC: &[u8; 8] = b"S2SNAP01";
/// Current format version (bump on any layout change).
pub const VERSION: u32 = 1;
/// Traces per `BLOCK` segment the file and log writers use, and the
/// default streamed-read batch budget ([`SnapshotOptions::block_budget`]).
pub const DEFAULT_BLOCK_TRACES: usize = 4096;

const TAG_ADDR: u32 = 1;
const TAG_SEQ: u32 = 2;
const TAG_BLOCK: u32 = 3;
const TAG_SINK: u32 = 4;
const TAG_END: u32 = 5;

const HEADER_BYTES: usize = 36;

/// The segment checksum: FNV-1a folded eight bytes at a time (the tail
/// byte-wise), one multiply per word instead of per byte. Any change
/// confined to a single word is always detected — xor-then-multiply by
/// an odd prime is injective in the accumulator — and payload checksum
/// cost stays ~1/8th of canonical FNV on multi-megabyte snapshots.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = crate::fabric::FNV64_OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().unwrap());
        h = (h ^ w).wrapping_mul(0x100000001b3);
    }
    crate::fabric::fnv64_bytes(h, chunks.remainder())
}

/// A reopened snapshot: the columnar store plus any sink-state lines that
/// rode along. `s2s_core`'s `Analysis::new` accepts `&Snapshot` directly
/// (delegating to the store), so a campaign's output directory is an
/// analysis input without any line re-import.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// The reopened columnar store — byte-identical to the saved one.
    pub store: TraceStore,
    /// Serialized sink states ([`crate::stream::StreamSink::save`] lines),
    /// in saved order, bit-exact.
    pub sinks: Vec<String>,
}

/// What a lossy open did: how much loaded, how much was skipped, and the
/// first few reasons why — the snapshot counterpart of
/// [`crate::dataset::ImportReport`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SnapshotReport {
    /// Traces loaded into the store.
    pub traces: usize,
    /// Traces lost to corrupt, torn, or poisoned segments.
    pub skipped_traces: usize,
    /// Sink states loaded.
    pub sinks: usize,
    /// Sink states lost to corrupt or torn segments.
    pub skipped_sinks: usize,
    /// Segments that failed their checksum or validation.
    pub skipped_segments: usize,
    /// The stream ended before a valid `END` segment (torn write).
    pub torn: bool,
    /// The stream ended before its first segment header: a zero-length
    /// file, a bare magic/prologue, or a truncated prologue that is still
    /// a prefix of [`MAGIC`]. Distinct from a generic torn tail — an empty
    /// snapshot carries *no* data at all, which callers (e.g. `reproduce`)
    /// report separately. Always implies [`SnapshotReport::torn`].
    pub empty: bool,
    /// Bytes found after the `END` segment. A snapshot ends at its `END`,
    /// so these are damage: another snapshot appended to this one (read
    /// such logs with [`LogReader`]) or stray bytes.
    pub trailing_bytes: usize,
    /// The first [`SnapshotReport::MAX_SAMPLED_ERRORS`] damage reasons.
    pub first_errors: Vec<String>,
}

impl SnapshotReport {
    /// How many damage reasons a report keeps verbatim.
    pub const MAX_SAMPLED_ERRORS: usize = 8;

    fn note(&mut self, msg: String) {
        if self.first_errors.len() < Self::MAX_SAMPLED_ERRORS {
            self.first_errors.push(msg);
        }
    }

    /// Trace coverage of the snapshot: loaded over (loaded + skipped).
    pub fn coverage(&self) -> Coverage {
        Coverage::new(self.traces, self.traces.saturating_add(self.skipped_traces))
    }

    /// Whether the open lost nothing.
    pub fn clean(&self) -> bool {
        self.skipped_traces == 0
            && self.skipped_sinks == 0
            && self.skipped_segments == 0
            && !self.torn
            && !self.empty
            && self.trailing_bytes == 0
    }

    /// Folds another report into this one — what [`absorb_files`] does per
    /// shard. Counts add, flags OR, and the sampled errors keep the first
    /// [`SnapshotReport::MAX_SAMPLED_ERRORS`] across all shards.
    pub fn merge(&mut self, other: &SnapshotReport) {
        self.traces += other.traces;
        self.skipped_traces = self.skipped_traces.saturating_add(other.skipped_traces);
        self.sinks += other.sinks;
        self.skipped_sinks = self.skipped_sinks.saturating_add(other.skipped_sinks);
        self.skipped_segments += other.skipped_segments;
        self.torn |= other.torn;
        self.empty |= other.empty;
        self.trailing_bytes = self.trailing_bytes.saturating_add(other.trailing_bytes);
        for e in &other.first_errors {
            self.note(e.clone());
        }
    }

    /// Publishes the open's outcome as `snapshot.*` gauges.
    pub fn publish(&self, registry: &s2s_obs::Registry) {
        registry.gauge("snapshot.traces").set(self.traces as u64);
        registry.gauge("snapshot.skipped_traces").set(self.skipped_traces as u64);
        registry.gauge("snapshot.sinks").set(self.sinks as u64);
        registry.gauge("snapshot.skipped_sinks").set(self.skipped_sinks as u64);
        registry.gauge("snapshot.skipped_segments").set(self.skipped_segments as u64);
        registry.gauge("snapshot.torn").set(u64::from(self.torn));
        registry.gauge("snapshot.empty").set(u64::from(self.empty));
        registry.gauge("snapshot.trailing_bytes").set(self.trailing_bytes as u64);
    }
}

// ---------------------------------------------------------------------------
// Little-endian encode helpers (the format is LE on every platform)
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked little-endian cursor over a decoded payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(e) => {
                let s = &self.buf[self.pos..e];
                self.pos = e;
                Ok(s)
            }
            None => Err("payload truncated".into()),
        }
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Bulk-reads `n` u32s as one bounds check + a chunked copy — the
    /// column fast path (per-element `u32()` pays a checked take each).
    fn u32s(&mut self, n: usize) -> Result<Vec<u32>, String> {
        let bytes = self.take(n.checked_mul(4).ok_or("column length overflow")?)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Bulk-reads `n` bit-encoded f64s (same fast path as [`Self::u32s`]).
    fn f64s(&mut self, n: usize) -> Result<Vec<f64>, String> {
        let bytes = self.take(n.checked_mul(8).ok_or("column length overflow")?)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
            .collect())
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// A capacity for `count` records of at least `min_bytes` each: no
    /// more than the bytes left could hold, whatever `count` claims.
    fn capacity_for(&self, count: u64, min_bytes: usize) -> usize {
        count_of(count).min((self.buf.len() - self.pos) / min_bytes)
    }
}

/// Packs `n` bits drawn from `bit(i)` into bytes, LSB-first.
fn pack_bits(buf: &mut Vec<u8>, n: usize, bit: impl Fn(usize) -> bool) {
    let mut byte = 0u8;
    for i in 0..n {
        if bit(i) {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            buf.push(byte);
            byte = 0;
        }
    }
    if !n.is_multiple_of(8) {
        buf.push(byte);
    }
}

/// The packed bytes of an `n`-bit set ([`pack_bits`]'s output).
fn packed_bits<'a>(c: &mut Cursor<'a>, n: usize) -> Result<&'a [u8], String> {
    c.take(n.div_ceil(8))
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_segment<W: Write>(
    w: &mut W,
    tag: u32,
    count: u64,
    payload: &[u8],
) -> io::Result<u64> {
    let mut header = Vec::with_capacity(HEADER_BYTES);
    put_u32(&mut header, tag);
    put_u64(&mut header, count);
    put_u64(&mut header, payload.len() as u64);
    put_u64(&mut header, fnv64(payload));
    let hfnv = fnv64(&header);
    put_u64(&mut header, hfnv);
    w.write_all(&header)?;
    w.write_all(payload)?;
    Ok((header.len() + payload.len()) as u64)
}

fn encode_addr(buf: &mut Vec<u8>, addr: IpAddr) {
    match addr {
        IpAddr::V4(a) => {
            buf.push(4);
            buf.extend_from_slice(&a.octets());
        }
        IpAddr::V6(a) => {
            buf.push(6);
            buf.extend_from_slice(&a.octets());
        }
    }
}

/// Encodes traces `range` of `store` into `buf` (cleared first, so one
/// buffer serves every block of a write).
fn encode_block(buf: &mut Vec<u8>, store: &TraceStore, range: std::ops::Range<usize>) {
    let n = range.len();
    let hop_base = store.rtt_offsets[range.start] as usize;
    let hop_end = store.rtt_offsets[range.end] as usize;
    let n_hops = hop_end - hop_base;
    buf.clear();
    buf.reserve(n * 44 + n_hops * 9 + 32);
    for i in range.clone() {
        put_u32(buf, store.srcs[i].0);
    }
    for i in range.clone() {
        put_u32(buf, store.dsts[i].0);
    }
    for i in range.clone() {
        put_u32(buf, store.times[i].0);
    }
    for i in range.clone() {
        put_u32(buf, store.seqs[i]);
    }
    for i in range.clone() {
        put_u32(buf, store.src_addrs[i]);
    }
    for i in range.clone() {
        put_u32(buf, store.dst_addrs[i]);
    }
    for i in range.clone() {
        put_u64(buf, store.e2e[i].to_bits());
    }
    pack_bits(buf, n, |k| store.e2e_some.get(range.start + k));
    pack_bits(buf, n, |k| store.reached.get(range.start + k));
    pack_bits(buf, n, |k| store.proto_v6.get(range.start + k));
    for i in range.clone() {
        let hops = store.rtt_offsets[i + 1] - store.rtt_offsets[i];
        put_u32(buf, hops);
    }
    put_u64(buf, n_hops as u64);
    for k in hop_base..hop_end {
        put_u64(buf, store.rtts[k].to_bits());
    }
    pack_bits(buf, n_hops, |k| store.rtt_some.get(hop_base + k));
}

/// The prologue and the arena segments (`ADDR`, `SEQ`) of `arena`.
fn write_head<W: Write>(w: &mut W, arena: &TraceStore) -> io::Result<u64> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    let mut written = (MAGIC.len() + 4) as u64;

    let mut addr_buf = Vec::new();
    for &a in arena.addrs() {
        encode_addr(&mut addr_buf, a);
    }
    written += write_segment(w, TAG_ADDR, arena.addr_count() as u64, &addr_buf)?;

    let mut seq_buf = Vec::new();
    put_u64(&mut seq_buf, arena.seq_data.len() as u64);
    for &d in &arena.seq_data {
        put_u32(&mut seq_buf, d);
    }
    // End offsets only: offsets[0] is always 0.
    for &o in &arena.seq_offsets[1..] {
        put_u32(&mut seq_buf, o);
    }
    written += write_segment(w, TAG_SEQ, arena.seq_count() as u64, &seq_buf)?;
    Ok(written)
}

/// One `BLOCK` segment of traces `range` of `store`, encoded through the
/// reused `payload` buffer.
fn write_block<W: Write>(
    w: &mut W,
    payload: &mut Vec<u8>,
    store: &TraceStore,
    range: std::ops::Range<usize>,
) -> io::Result<u64> {
    encode_block(payload, store, range.clone());
    write_segment(w, TAG_BLOCK, range.len() as u64, payload)
}

/// The `SINK` segment (when there are sink states) and the `END` totals,
/// then a flush.
fn write_tail<W: Write>(w: &mut W, traces: usize, sinks: &[String]) -> io::Result<u64> {
    let mut written = 0;
    if !sinks.is_empty() {
        let mut sink_buf = Vec::new();
        for s in sinks {
            put_u32(&mut sink_buf, s.len() as u32);
            sink_buf.extend_from_slice(s.as_bytes());
        }
        written += write_segment(w, TAG_SINK, sinks.len() as u64, &sink_buf)?;
    }
    let mut end_buf = Vec::new();
    put_u64(&mut end_buf, traces as u64);
    put_u64(&mut end_buf, sinks.len() as u64);
    written += write_segment(w, TAG_END, traces as u64, &end_buf)?;
    w.flush()?;
    Ok(written)
}

/// Writes a snapshot of `store` (plus optional serialized sink states) with
/// `block_traces` traces per `BLOCK` segment. Returns the bytes written.
pub fn write<W: Write>(
    w: &mut W,
    store: &TraceStore,
    sinks: &[String],
    block_traces: usize,
) -> io::Result<u64> {
    let block_traces = block_traces.max(1);
    let mut written = write_head(w, store)?;
    let mut payload = Vec::new();
    for start in (0..store.len()).step_by(block_traces) {
        let end = (start + block_traces).min(store.len());
        written += write_block(w, &mut payload, store, start..end)?;
    }
    Ok(written + write_tail(w, store.len(), sinks)?)
}

/// Row ranges of stores, concatenated in order.
pub type Parts<'a> = [(&'a TraceStore, std::ops::Range<usize>)];

/// Writes the snapshot [`write()`] would write for the concatenation of
/// `parts` — the store that pushing every part's rows' records in order
/// builds, which for whole parts built by pushing is their
/// [`TraceStore::absorb`] merge — without building it: the rows'
/// addresses and hop sequences intern into one arena first (in the order
/// a push would meet them), then the rows stream through one block-sized
/// buffer. Beyond the parts themselves this holds the merged arena and one
/// block, not a copy of every row. Returns the bytes written.
pub fn write_parts<W: Write>(
    w: &mut W,
    parts: &Parts<'_>,
    sinks: &[String],
    block_traces: usize,
) -> io::Result<u64> {
    let block_traces = block_traces.max(1);
    let mut arena = TraceStore::new();
    let maps: Vec<(Vec<u32>, Vec<u32>)> =
        parts.iter().map(|(st, rows)| arena.intern_rows(st, rows.clone())).collect();
    let mut written = write_head(w, &arena)?;
    drop(arena);
    // The batch's ids point into the merged arena just written; it holds
    // rows only.
    let (mut batch, mut payload, mut traces) = (TraceStore::new(), Vec::new(), 0);
    for ((st, rows), (addr_map, seq_map)) in parts.iter().zip(&maps) {
        let mut at = rows.start;
        while at < rows.end {
            let end = rows.end.min(at + block_traces - batch.len());
            batch.absorb_rows(st, at..end, addr_map, seq_map);
            at = end;
            if batch.len() == block_traces {
                written += write_block(w, &mut payload, &batch, 0..block_traces)?;
                batch.clear_traces();
            }
        }
        traces += rows.len();
    }
    if !batch.is_empty() {
        written += write_block(w, &mut payload, &batch, 0..batch.len())?;
    }
    Ok(written + write_tail(w, traces, sinks)?)
}

/// Writes through `write` to a `.tmp` sibling of `path`, syncs it and
/// renames it into place, so a crash mid-write leaves no half-snapshot
/// under the final name.
fn replace_file(
    path: &Path,
    write: impl FnOnce(&mut io::BufWriter<std::fs::File>) -> io::Result<u64>,
) -> io::Result<u64> {
    let tmp = path.with_extension("snap.tmp");
    let mut f = io::BufWriter::new(std::fs::File::create(&tmp)?);
    let bytes = write(&mut f)?;
    f.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    std::fs::rename(&tmp, path)?;
    Ok(bytes)
}

/// [`write()`] to a file path in blocks of [`DEFAULT_BLOCK_TRACES`].
/// The file is written to a `.tmp` sibling and renamed into place, so a
/// crash mid-write leaves no half-snapshot under the final name.
pub fn write_file(path: &Path, store: &TraceStore, sinks: &[String]) -> io::Result<u64> {
    replace_file(path, |w| write(w, store, sinks, DEFAULT_BLOCK_TRACES))
}

/// Writes an already-encoded snapshot, given as consecutive byte chunks,
/// to a file path, written and renamed into place as [`write_file`] does.
pub fn write_file_bytes(path: &Path, chunks: &[Vec<u8>]) -> io::Result<u64> {
    replace_file(path, |w| {
        chunks.iter().try_for_each(|chunk| w.write_all(chunk))?;
        Ok(chunks.iter().map(|chunk| chunk.len() as u64).sum())
    })
}

/// [`write_parts`] to a file path, written and renamed into place as
/// [`write_file`] does.
pub fn write_file_parts(path: &Path, parts: &Parts<'_>, sinks: &[String]) -> io::Result<u64> {
    replace_file(path, |w| write_parts(w, parts, sinks, DEFAULT_BLOCK_TRACES))
}

/// Appends the snapshot of `parts` (plus sink lines, see [`write_parts`])
/// to the log at `path` as one more chunk, after cutting the file back to
/// `at` bytes — the end of its last valid chunk ([`LogReader::offset`]),
/// so bytes a torn earlier append left behind never sit between two
/// chunks. Synced before it returns. Returns the bytes appended.
pub fn append_file(
    path: &Path,
    at: u64,
    parts: &Parts<'_>,
    sinks: &[String],
) -> io::Result<u64> {
    let mut file = std::fs::OpenOptions::new().write(true).open(path)?;
    let len = file.metadata()?.len();
    if len < at {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("log {} holds {len} bytes, its valid chunks end at {at}", path.display()),
        ));
    }
    file.set_len(at)?;
    file.seek(io::SeekFrom::Start(at))?;
    let mut w = io::BufWriter::new(file);
    let bytes = write_parts(&mut w, parts, sinks, DEFAULT_BLOCK_TRACES)?;
    w.into_inner().map_err(|e| e.into_error())?.sync_data()?;
    Ok(bytes)
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

struct SegmentHeader {
    tag: u32,
    count: u64,
    len: u64,
    payload_fnv: u64,
}

enum HeaderRead {
    Ok(SegmentHeader),
    /// Clean EOF exactly at a segment boundary.
    Eof,
    /// Damage: torn header bytes or a failed header checksum.
    Bad(String),
}

fn read_header<R: Read>(r: &mut R) -> io::Result<HeaderRead> {
    let mut buf = [0u8; HEADER_BYTES];
    let mut got = 0;
    while got < HEADER_BYTES {
        let n = r.read(&mut buf[got..])?;
        if n == 0 {
            return Ok(if got == 0 {
                HeaderRead::Eof
            } else {
                HeaderRead::Bad(format!("torn segment header ({got} of {HEADER_BYTES} bytes)"))
            });
        }
        got += n;
    }
    let stored_hfnv = u64::from_le_bytes(buf[28..36].try_into().unwrap());
    if fnv64(&buf[..28]) != stored_hfnv {
        return Ok(HeaderRead::Bad("segment header failed its checksum".into()));
    }
    Ok(HeaderRead::Ok(SegmentHeader {
        tag: u32::from_le_bytes(buf[0..4].try_into().unwrap()),
        count: u64::from_le_bytes(buf[4..12].try_into().unwrap()),
        len: u64::from_le_bytes(buf[12..20].try_into().unwrap()),
        payload_fnv: u64::from_le_bytes(buf[20..28].try_into().unwrap()),
    }))
}

/// The most a segment header's `len` reserves ahead of the bytes read.
const PAYLOAD_RESERVE: u64 = 1 << 24;

/// Reads exactly `len` payload bytes; `Ok(None)` marks a torn tail. The
/// header checksum guards `len` only against bit rot, so `len` reserves at
/// most [`PAYLOAD_RESERVE`] bytes up front and the buffer grows past that
/// only with the bytes actually read.
fn read_payload<R: Read>(r: &mut R, len: u64) -> io::Result<Option<Vec<u8>>> {
    let mut buf = Vec::with_capacity(len.min(PAYLOAD_RESERVE) as usize);
    r.by_ref().take(len).read_to_end(&mut buf)?;
    Ok((buf.len() as u64 == len).then_some(buf))
}

/// A header's record count as a `usize`, saturating: a count no payload
/// could hold still adds up without overflowing.
fn count_of(count: u64) -> usize {
    usize::try_from(count).unwrap_or(usize::MAX)
}

fn decode_addrs(payload: &[u8], count: u64) -> Result<Vec<IpAddr>, String> {
    let mut c = Cursor::new(payload);
    // An address is a family tag plus at least four bytes.
    let mut addrs = Vec::with_capacity(c.capacity_for(count, 5));
    for _ in 0..count {
        let addr = match c.u8()? {
            4 => IpAddr::from(<[u8; 4]>::try_from(c.take(4)?).unwrap()),
            6 => IpAddr::from(<[u8; 16]>::try_from(c.take(16)?).unwrap()),
            t => return Err(format!("bad address family tag {t}")),
        };
        addrs.push(addr);
    }
    if !c.done() {
        return Err("trailing bytes after address table".into());
    }
    Ok(addrs)
}

fn decode_seqs(
    payload: &[u8],
    count: u64,
    addr_count: usize,
) -> Result<(Vec<u32>, Vec<u32>), String> {
    let mut c = Cursor::new(payload);
    let data_len = c.u64()?;
    let mut data = Vec::with_capacity(c.capacity_for(data_len, 4));
    for _ in 0..data_len {
        let id = c.u32()?;
        if id != crate::store::NO_ADDR && id as usize >= addr_count {
            return Err(format!("hop address id {id} out of range"));
        }
        data.push(id);
    }
    let mut offsets = Vec::with_capacity(c.capacity_for(count, 4) + 1);
    offsets.push(0u32);
    for _ in 0..count {
        let end = c.u32()?;
        if end < *offsets.last().unwrap() || u64::from(end) > data_len {
            return Err("sequence offsets not monotonic".into());
        }
        offsets.push(end);
    }
    if u64::from(*offsets.last().unwrap()) != data_len {
        return Err("sequence arena length mismatch".into());
    }
    if !c.done() {
        return Err("trailing bytes after sequence arena".into());
    }
    Ok((data, offsets))
}

/// Decodes one trace block and appends it to `store`. Validates every id
/// against the already-loaded arenas before anything is pushed, so a
/// failed block leaves the store untouched.
fn decode_block(store: &mut TraceStore, payload: &[u8], count: u64) -> Result<(), String> {
    let n = count_of(count);
    let mut c = Cursor::new(payload);
    let srcs = c.u32s(n)?;
    let dsts = c.u32s(n)?;
    let times = c.u32s(n)?;
    let seqs = c.u32s(n)?;
    let src_addrs = c.u32s(n)?;
    let dst_addrs = c.u32s(n)?;
    let e2e = c.f64s(n)?;
    let e2e_some = packed_bits(&mut c, n)?;
    let reached = packed_bits(&mut c, n)?;
    let proto_v6 = packed_bits(&mut c, n)?;
    let hop_counts = c.u32s(n)?;
    let n_hops = c.u64()? as usize;
    if hop_counts.iter().map(|&h| h as usize).sum::<usize>() != n_hops {
        return Err("hop counts disagree with the block's hop total".into());
    }
    let rtts = c.f64s(n_hops)?;
    let rtt_some = packed_bits(&mut c, n_hops)?;
    if !c.done() {
        return Err("trailing bytes after trace block".into());
    }
    let seq_count = store.seq_count() as u32;
    let addr_count = store.addr_count() as u32;
    let addr_ok =
        |id: u32| id == crate::store::NO_ADDR || id < addr_count;
    for i in 0..n {
        if seqs[i] >= seq_count {
            return Err(format!("sequence id {} out of range", seqs[i]));
        }
        if !addr_ok(src_addrs[i]) || !addr_ok(dst_addrs[i]) {
            return Err("endpoint address id out of range".into());
        }
    }
    store.srcs.extend(srcs.iter().map(|&v| ClusterId::new(v)));
    store.dsts.extend(dsts.iter().map(|&v| ClusterId::new(v)));
    store.times.extend(times.iter().map(|&v| SimTime(v)));
    store.seqs.extend_from_slice(&seqs);
    store.src_addrs.extend_from_slice(&src_addrs);
    store.dst_addrs.extend_from_slice(&dst_addrs);
    store.e2e.extend_from_slice(&e2e);
    store.e2e_some.extend_packed(e2e_some, n);
    store.reached.extend_packed(reached, n);
    store.proto_v6.extend_packed(proto_v6, n);
    let mut off = *store.rtt_offsets.last().unwrap();
    for &h in &hop_counts {
        off += h;
        store.rtt_offsets.push(off);
    }
    store.rtts.extend_from_slice(&rtts);
    store.rtt_some.extend_packed(rtt_some, n_hops);
    Ok(())
}

fn decode_sinks(payload: &[u8], count: u64) -> Result<Vec<String>, String> {
    let mut c = Cursor::new(payload);
    // A sink state is a length word plus its bytes.
    let mut sinks = Vec::with_capacity(c.capacity_for(count, 4));
    for _ in 0..count {
        let len = c.u32()? as usize;
        let bytes = c.take(len)?;
        sinks.push(
            String::from_utf8(bytes.to_vec()).map_err(|_| "sink state not UTF-8")?,
        );
    }
    if !c.done() {
        return Err("trailing bytes after sink states".into());
    }
    Ok(sinks)
}

/// What the 12-byte prologue said about the stream.
enum Prologue {
    /// Magic and version check out; segments follow.
    Ready,
    /// The stream ended inside (or right after) the prologue while still
    /// agreeing with it byte-for-byte: an *empty snapshot*, not a foreign
    /// file and not a generic torn tail.
    Empty,
}

fn read_prologue<R: Read>(r: &mut R) -> io::Result<Prologue> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let mut magic = [0u8; 8];
    let mut got = 0;
    while got < magic.len() {
        let n = r.read(&mut magic[got..])?;
        if n == 0 {
            // A short read that is a prefix of the magic is an empty
            // snapshot (nothing was ever written past the prologue); any
            // other bytes make this a foreign file.
            return if magic[..got] == MAGIC[..got] {
                Ok(Prologue::Empty)
            } else {
                Err(bad("not a snapshot: bad magic"))
            };
        }
        got += n;
    }
    if &magic != MAGIC {
        return Err(bad("not a snapshot: bad magic"));
    }
    let mut ver = [0u8; 4];
    let mut got = 0;
    while got < ver.len() {
        let n = r.read(&mut ver[got..])?;
        if n == 0 {
            return Ok(Prologue::Empty); // magic-only file: empty snapshot
        }
        got += n;
    }
    let version = u32::from_le_bytes(ver);
    if version != VERSION {
        return Err(bad(&format!(
            "unsupported snapshot version {version} (expected {VERSION})"
        )));
    }
    Ok(Prologue::Ready)
}

// ---------------------------------------------------------------------------
// The front door: Snapshot::options()
// ---------------------------------------------------------------------------

impl Snapshot {
    /// The one way to open snapshots: configures the lossy/strict/streamed
    /// matrix, then [`SnapshotOptions::open`] (a file),
    /// [`SnapshotOptions::open_reader`] (any [`Read`]), or
    /// [`SnapshotOptions::open_dir`] (a shard directory).
    pub fn options() -> SnapshotOptions {
        SnapshotOptions::default()
    }
}

/// Builder for opening snapshots — see [`Snapshot::options`].
///
/// Defaults: strict (any damage is an error) and materialized (one batch
/// holds the whole file — [`SnapshotReader::into_snapshot`] is free).
/// `.lossy(true)` degrades damage to counted skips; `.stream(true)` caps
/// each [`SnapshotReader::next_batch`] at the block budget
/// (`.block_budget(n)`, default [`DEFAULT_BLOCK_TRACES`]) so
/// resident bytes stay O(arena + one batch).
#[derive(Clone, Debug, Default)]
pub struct SnapshotOptions {
    lossy: bool,
    stream: bool,
    block_budget: Option<usize>,
}

impl SnapshotOptions {
    /// Degrade damage to counted skips instead of erroring (default false).
    pub fn lossy(mut self, v: bool) -> SnapshotOptions {
        self.lossy = v;
        self
    }

    /// Yield bounded trace batches instead of materializing (default
    /// false). Without this, the reader's budget is unbounded and the
    /// first batch holds every trace.
    pub fn stream(mut self, v: bool) -> SnapshotOptions {
        self.stream = v;
        self
    }

    /// Cap (in traces) on the reader's reuse buffer when streaming; a
    /// batch ends at the first `BLOCK` boundary at or past the budget.
    /// Defaults to [`DEFAULT_BLOCK_TRACES`]. Clamped to ≥ 1.
    pub fn block_budget(mut self, n: usize) -> SnapshotOptions {
        self.block_budget = Some(n.max(1));
        self
    }

    fn budget(&self) -> usize {
        if self.stream {
            self.block_budget.unwrap_or(DEFAULT_BLOCK_TRACES)
        } else {
            usize::MAX
        }
    }

    /// Opens a snapshot file as a [`SnapshotReader`].
    pub fn open(&self, path: &Path) -> io::Result<SnapshotReader> {
        self.open_reader(io::BufReader::new(std::fs::File::open(path)?))
    }

    /// Opens a snapshot from any byte stream as a [`SnapshotReader`].
    pub fn open_reader<R: Read>(&self, input: R) -> io::Result<SnapshotReader<R>> {
        SnapshotReader::new(input, self.lossy, self.budget(), false)
    }

    /// Wraps a directory of per-shard `.snap` files (what the fabric
    /// writes under `S2S_SNAPSHOT_DIR`) as a [`ShardDir`]: shards sorted
    /// by trailing shard number (`shard-10` after `shard-2`), merged by
    /// streaming absorb. Errors `NotFound` if the directory holds no
    /// `.snap` files.
    pub fn open_dir(&self, dir: &Path) -> io::Result<ShardDir> {
        let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "snap"))
            .collect();
        if paths.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no .snap shards in {}", dir.display()),
            ));
        }
        paths.sort_by_key(|p| shard_sort_key(p));
        Ok(ShardDir { paths, options: self.clone() })
    }
}

/// Sort key for shard files: the trailing integer of the file stem (so
/// `shard-10` follows `shard-2`), then the stem itself for ties and
/// non-numbered names.
fn shard_sort_key(path: &Path) -> (u64, String) {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    let digits = stem.len() - stem.trim_end_matches(|c: char| c.is_ascii_digit()).len();
    let n = stem[stem.len() - digits..].parse().unwrap_or(u64::MAX);
    (n, stem.to_string())
}

/// A directory of per-shard snapshot files, opened via
/// [`SnapshotOptions::open_dir`]. `s2s_core::Analysis::new` accepts a
/// `ShardDir` directly and streams every shard through [`absorb_files`]'s
/// bounded-memory path.
#[derive(Clone, Debug)]
pub struct ShardDir {
    paths: Vec<std::path::PathBuf>,
    options: SnapshotOptions,
}

impl ShardDir {
    /// The shard files, in merge order.
    pub fn paths(&self) -> &[std::path::PathBuf] {
        &self.paths
    }

    /// The open options every shard is read with.
    pub fn options(&self) -> &SnapshotOptions {
        &self.options
    }

    /// Streams every shard into `store` — see [`absorb_files`].
    pub fn absorb_into(
        &self,
        store: &mut TraceStore,
    ) -> io::Result<(SnapshotReport, Vec<String>)> {
        absorb_files(store, &self.paths, &self.options)
    }
}

// ---------------------------------------------------------------------------
// SnapshotReader: the out-of-core segment walker
// ---------------------------------------------------------------------------

/// Walks a snapshot segment-by-segment: the interned address table and the
/// hop-sequence arena load once at open, then [`SnapshotReader::next_batch`]
/// decodes `BLOCK` segments into a bounded reuse buffer — resident bytes
/// are O(arena + one batch), never O(traces). Construct via
/// [`Snapshot::options`].
///
/// The batch buffer is itself a [`TraceStore`] sharing the shard's arenas,
/// so batch ids resolve exactly as the materialized store's would and
/// `TraceStore::absorb_maps`/`TraceStore::absorb_rows` merge batches
/// into another store byte-identically to a full-reopen `absorb`.
pub struct SnapshotReader<R: Read = io::BufReader<std::fs::File>> {
    input: R,
    lossy: bool,
    budget: usize,
    /// Arenas + the current batch's per-trace columns (cleared per batch,
    /// capacity retained).
    buf: TraceStore,
    /// A header read past the arena phase but not yet consumed (headers
    /// cannot be un-read).
    pending: Option<SegmentHeader>,
    sinks: Vec<String>,
    report: SnapshotReport,
    /// ADDR or SEQ was lost, so block ids cannot be trusted (validation
    /// would reject them anyway); count, don't load.
    poisoned: bool,
    done: bool,
    saw_end: bool,
    end_totals: Option<(u64, u64)>,
    peak_resident: usize,
    /// Stop at `END` without looking further: the stream is a log and the
    /// next chunk starts there ([`LogReader`]).
    chunk: bool,
}

impl<R: Read> SnapshotReader<R> {
    fn new(input: R, lossy: bool, budget: usize, chunk: bool) -> io::Result<SnapshotReader<R>> {
        let mut reader = SnapshotReader {
            input,
            lossy,
            budget: budget.max(1),
            buf: TraceStore::new(),
            pending: None,
            sinks: Vec::new(),
            report: SnapshotReport::default(),
            poisoned: false,
            done: false,
            saw_end: false,
            end_totals: None,
            peak_resident: 0,
            chunk,
        };
        match read_prologue(&mut reader.input)? {
            Prologue::Ready => reader.load_arenas()?,
            Prologue::Empty => reader.mark_empty(),
        }
        reader.peak_resident = reader.buf.arena_bytes();
        reader.check_strict()?;
        Ok(reader)
    }

    fn mark_empty(&mut self) {
        self.report.empty = true;
        self.report.note("empty snapshot (no segments)".into());
        self.finish();
    }

    /// Seals the stream: no more segments will be consumed. Reconciles
    /// against the `END` totals (whole segments can vanish with a torn
    /// tail; the totals bound the loss exactly).
    fn finish(&mut self) {
        self.done = true;
        if !self.saw_end {
            self.report.torn = true;
        }
        if let Some((total_traces, total_sinks)) = self.end_totals {
            let seen = self.report.traces.saturating_add(self.report.skipped_traces);
            self.report.skipped_traces += count_of(total_traces).saturating_sub(seen);
            let seen_sinks = self.report.sinks.saturating_add(self.report.skipped_sinks);
            self.report.skipped_sinks += count_of(total_sinks).saturating_sub(seen_sinks);
        }
    }

    /// The arena phase: consumes leading `ADDR`/`SEQ` segments into the
    /// buffer's intern tables, then stashes the first trace-phase header.
    fn load_arenas(&mut self) -> io::Result<()> {
        let mut saw_any = false;
        loop {
            let header = match read_header(&mut self.input)? {
                HeaderRead::Ok(h) => h,
                HeaderRead::Eof => {
                    if saw_any {
                        self.finish();
                    } else {
                        // A bare prologue: nothing was ever written.
                        self.mark_empty();
                    }
                    return Ok(());
                }
                HeaderRead::Bad(msg) => {
                    // Framing is gone: without a trustworthy length there
                    // is no next boundary to resync to.
                    self.report.skipped_segments += 1;
                    self.report.note(msg);
                    self.finish();
                    return Ok(());
                }
            };
            saw_any = true;
            if header.tag != TAG_ADDR && header.tag != TAG_SEQ {
                self.pending = Some(header);
                return Ok(());
            }
            let payload = match read_payload(&mut self.input, header.len)? {
                Some(p) => p,
                None => {
                    self.report.skipped_segments += 1;
                    self.poisoned = true;
                    self.report
                        .note(format!("torn payload in segment tag {}", header.tag));
                    self.finish();
                    return Ok(());
                }
            };
            let outcome: Result<(), String> = if fnv64(&payload) != header.payload_fnv {
                Err("segment payload failed its checksum".into())
            } else if header.tag == TAG_ADDR {
                decode_addrs(&payload, header.count).map(|addrs| {
                    self.buf.addrs = addrs;
                })
            } else {
                decode_seqs(&payload, header.count, self.buf.addr_count()).map(
                    |(data, offsets)| {
                        self.buf.seq_data = data;
                        self.buf.seq_offsets = offsets;
                    },
                )
            };
            if let Err(msg) = outcome {
                self.report.skipped_segments += 1;
                self.poisoned = true;
                self.report.note(format!("segment tag {}: {msg}", header.tag));
            }
        }
    }

    /// Consumes exactly one segment (or seals the stream at EOF/damage).
    fn step(&mut self) -> io::Result<()> {
        let header = match self.pending.take() {
            Some(h) => h,
            None => match read_header(&mut self.input)? {
                HeaderRead::Ok(h) => h,
                HeaderRead::Eof => {
                    self.finish();
                    return Ok(());
                }
                HeaderRead::Bad(msg) => {
                    self.report.skipped_segments += 1;
                    self.report.note(msg);
                    self.finish();
                    return Ok(());
                }
            },
        };
        let payload = match read_payload(&mut self.input, header.len)? {
            Some(p) => p,
            None => {
                self.report.skipped_segments += 1;
                self.skip_records(&header);
                self.report.note(format!("torn payload in segment tag {}", header.tag));
                self.finish();
                return Ok(());
            }
        };
        let outcome: Result<(), String> = if fnv64(&payload) != header.payload_fnv {
            Err("segment payload failed its checksum".into())
        } else {
            match header.tag {
                TAG_BLOCK => {
                    if self.poisoned {
                        Err("block poisoned by an earlier arena loss".into())
                    } else {
                        decode_block(&mut self.buf, &payload, header.count)
                            .map(|()| self.report.traces += header.count as usize)
                    }
                }
                TAG_SINK => decode_sinks(&payload, header.count).map(|s| {
                    self.report.sinks += s.len();
                    self.sinks.extend(s);
                }),
                TAG_END => {
                    let mut c = Cursor::new(&payload);
                    match (c.u64(), c.u64()) {
                        (Ok(t), Ok(s)) => {
                            self.end_totals = Some((t, s));
                            self.saw_end = true;
                            Ok(())
                        }
                        _ => Err("malformed END segment".into()),
                    }
                }
                // The writer emits arenas before any block; an arena
                // segment showing up here means the framing lied, and the
                // ids already handed out cannot be retrofitted.
                TAG_ADDR | TAG_SEQ => Err("unexpected arena segment after trace blocks".into()),
                t => Err(format!("unknown segment tag {t}")),
            }
        };
        if let Err(msg) = outcome {
            self.report.skipped_segments += 1;
            self.skip_records(&header);
            if header.tag == TAG_ADDR || header.tag == TAG_SEQ {
                self.poisoned = true;
            }
            self.report.note(format!("segment tag {}: {msg}", header.tag));
        }
        if self.saw_end {
            if !self.chunk {
                self.count_trailing()?;
            }
            self.finish();
        }
        Ok(())
    }

    /// Counts whatever follows a valid `END` as damage: the snapshot ended
    /// there, so a further byte is another snapshot appended to this one
    /// or stray bytes.
    fn count_trailing(&mut self) -> io::Result<()> {
        let extra = io::copy(&mut self.input, &mut io::sink())?;
        if extra > 0 {
            self.report.trailing_bytes = count_of(extra);
            self.report.note(format!("{extra} trailing byte(s) after END"));
        }
        Ok(())
    }

    /// Counts a lost `BLOCK`'s traces or `SINK`'s states as skipped.
    fn skip_records(&mut self, header: &SegmentHeader) {
        let skipped = match header.tag {
            TAG_BLOCK => &mut self.report.skipped_traces,
            TAG_SINK => &mut self.report.skipped_sinks,
            _ => return,
        };
        *skipped = skipped.saturating_add(count_of(header.count));
    }

    fn check_strict(&self) -> io::Result<()> {
        if self.lossy || self.report.clean() {
            return Ok(());
        }
        Err(self.damage_error())
    }

    fn damage_error(&self) -> io::Error {
        if self.report.empty {
            return io::Error::new(io::ErrorKind::InvalidData, "empty snapshot");
        }
        let detail = self
            .report
            .first_errors
            .first()
            .cloned()
            .unwrap_or_else(|| "torn snapshot".into());
        if self.report.trailing_bytes > 0 && self.report.skipped_traces == 0 {
            return io::Error::new(
                io::ErrorKind::InvalidData,
                format!("corrupt snapshot: {detail} (a log of snapshots?)"),
            );
        }
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "corrupt snapshot: {} trace(s) and {} sink(s) lost ({detail})",
                self.report.skipped_traces, self.report.skipped_sinks
            ),
        )
    }

    /// The next batch of traces, or `None` when the stream is exhausted.
    ///
    /// The returned store shares the shard's arenas and holds this batch's
    /// rows only; it is valid until the next call (the buffer is reused).
    /// Batches cut at `BLOCK` boundaries: decoding stops at the first
    /// boundary at or past the budget, so a batch holds at most
    /// `budget + block − 1` traces. In strict mode the first damage is an
    /// error; in lossy mode it is counted in [`SnapshotReader::report`]
    /// (complete once this returns `None`).
    pub fn next_batch(&mut self) -> io::Result<Option<&TraceStore>> {
        self.buf.clear_traces();
        while !self.done && self.buf.len() < self.budget {
            self.step()?;
        }
        self.check_strict()?;
        if self.buf.is_empty() {
            return Ok(None);
        }
        self.peak_resident = self.peak_resident.max(self.buf.arena_bytes());
        Ok(Some(&self.buf))
    }

    /// Drains the remaining stream into a materialized [`Snapshot`] — the
    /// legacy whole-file open. On a fresh reader this is exactly what
    /// [`open_file`] returns; intern indices are rebuilt, so the store
    /// keeps absorbing new records.
    pub fn into_snapshot(mut self) -> io::Result<(Snapshot, SnapshotReport)> {
        while !self.done {
            self.step()?;
        }
        self.check_strict()?;
        self.buf.rebuild_indices();
        Ok((Snapshot { store: self.buf, sinks: self.sinks }, self.report))
    }

    /// Streams the rest of the snapshot into `store`: the arenas interned
    /// once (`TraceStore::absorb_maps`, id order), then each batch's rows
    /// appended (`TraceStore::absorb_rows`) — byte-identical to reopening
    /// the snapshot fully and absorbing it. Returns the report and sinks.
    pub fn absorb_into(
        mut self,
        store: &mut TraceStore,
    ) -> io::Result<(SnapshotReport, Vec<String>)> {
        let (addr_map, seq_map) = store.absorb_maps(self.arena());
        while let Some(batch) = self.next_batch()? {
            store.absorb_rows(batch, 0..batch.len(), &addr_map, &seq_map);
        }
        Ok((self.report, self.sinks))
    }

    /// The arenas (plus the current batch): what annotation tables build
    /// against, and what `TraceStore::absorb_maps` interns from.
    pub fn arena(&self) -> &TraceStore {
        &self.buf
    }

    /// What the open has loaded/skipped so far. Totals are final once
    /// [`SnapshotReader::next_batch`] has returned `None`.
    pub fn report(&self) -> &SnapshotReport {
        &self.report
    }

    /// Sink-state lines seen so far (the writer puts `SINK` after every
    /// `BLOCK`, so these are complete once the stream is exhausted).
    pub fn sinks(&self) -> &[String] {
        &self.sinks
    }

    /// Takes ownership of the sink-state lines seen so far.
    pub fn take_sinks(&mut self) -> Vec<String> {
        std::mem::take(&mut self.sinks)
    }

    /// Resident bytes of the reuse buffer right now (arena + current
    /// batch).
    pub fn resident_bytes(&self) -> usize {
        self.buf.arena_bytes()
    }

    /// The high-water mark of [`SnapshotReader::resident_bytes`] across
    /// all batches — what the `persistence.out_of_core` bench asserts
    /// stays flat while file size grows.
    pub fn peak_resident_bytes(&self) -> usize {
        self.peak_resident
    }
}

/// Counts the bytes read through it: where one log chunk ended.
struct Counted<R> {
    inner: R,
    bytes: u64,
}

impl<R: Read> Read for Counted<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

/// Reads a log of back-to-back snapshots ([`append_file`]'s output) one
/// chunk at a time. Every chunk is read strictly and materialized; the
/// first chunk that does not read cleanly — torn, bit-flipped, foreign —
/// ends the log, and [`LogReader::damage`] says why. [`LogReader::offset`]
/// is the byte just past the last chunk returned: the length of the log's
/// valid prefix once [`LogReader::next_chunk`] has returned `None`.
pub struct LogReader<R: Read = io::BufReader<std::fs::File>> {
    input: Counted<R>,
    offset: u64,
    damage: Option<String>,
    done: bool,
}

impl LogReader {
    /// Opens the log at `path`.
    pub fn open(path: &Path) -> io::Result<LogReader> {
        Ok(LogReader::new(io::BufReader::new(std::fs::File::open(path)?)))
    }
}

impl<R: Read> LogReader<R> {
    /// A log reader over any byte stream.
    pub fn new(input: R) -> LogReader<R> {
        LogReader { input: Counted { inner: input, bytes: 0 }, offset: 0, damage: None, done: false }
    }

    /// The next chunk, or `None` at the end of the log: a clean end right
    /// after a chunk, or the first chunk that did not read cleanly (see
    /// [`LogReader::damage`]). I/O errors other than damage propagate.
    pub fn next_chunk(&mut self) -> io::Result<Option<Snapshot>> {
        if self.done {
            return Ok(None);
        }
        let read = SnapshotReader::new(&mut self.input, false, usize::MAX, true)
            .and_then(SnapshotReader::into_snapshot);
        match read {
            Ok((snap, _)) => {
                self.offset = self.input.bytes;
                Ok(Some(snap))
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                self.done = true;
                if self.input.bytes > self.offset {
                    self.damage = Some(e.to_string());
                }
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Bytes from the start of the log to the end of the last chunk
    /// returned.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Why the log ended early, if a chunk did not read cleanly.
    pub fn damage(&self) -> Option<&str> {
        self.damage.as_deref()
    }
}

/// Streams N per-shard snapshot files into `store` in order, each through
/// [`SnapshotReader::absorb_into`], holding at most one shard's arena plus
/// one batch in memory. Returns the merged [`SnapshotReport`] and the
/// concatenated sink states (shard order preserved).
pub fn absorb_files<P: AsRef<Path>>(
    store: &mut TraceStore,
    paths: &[P],
    options: &SnapshotOptions,
) -> io::Result<(SnapshotReport, Vec<String>)> {
    let mut merged = SnapshotReport::default();
    let mut sinks = Vec::new();
    for p in paths {
        let (report, mut shard_sinks) = options.open(p.as_ref())?.absorb_into(store)?;
        merged.merge(&report);
        sinks.append(&mut shard_sinks);
    }
    Ok((merged, sinks))
}

/// Strictly opens a snapshot file. Shim over [`Snapshot::options`].
pub fn open_file(path: &Path) -> io::Result<Snapshot> {
    Ok(Snapshot::options().open(path)?.into_snapshot()?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{HopObs, TracerouteRecord};
    use proptest::prelude::*;
    use s2s_types::Protocol;
    use std::net::{Ipv4Addr, Ipv6Addr};

    /// A strict in-memory open: any damage is an `InvalidData` error.
    fn read<R: Read>(r: &mut R) -> io::Result<Snapshot> {
        Ok(Snapshot::options().open_reader(r)?.into_snapshot()?.0)
    }

    /// A lossy in-memory open: damage degrades to counted skips.
    fn read_lossy<R: Read>(r: &mut R) -> io::Result<(Snapshot, SnapshotReport)> {
        Snapshot::options().lossy(true).open_reader(r)?.into_snapshot()
    }

    fn rec(src: u32, t: u32, hops: &[(Option<&str>, Option<f64>)], reached: bool) -> TracerouteRecord {
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

    fn sample_store() -> TraceStore {
        let recs = vec![
            rec(0, 0, &[(Some("10.1.0.1"), Some(1.5)), (Some("10.2.0.1"), Some(2.5))], true),
            rec(0, 180, &[(Some("10.1.0.1"), Some(1.7)), (Some("10.2.0.1"), Some(2.2))], true),
            rec(1, 0, &[(Some("10.1.0.1"), Some(1.0)), (None, None)], false),
            rec(2, 0, &[], true),
            rec(3, 0, &[(Some("2600::9"), Some(8.0))], true),
        ];
        TraceStore::from_records(&recs)
    }

    fn snapshot_bytes(store: &TraceStore, sinks: &[String], block: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        let n = write(&mut buf, store, sinks, block).unwrap();
        assert_eq!(n as usize, buf.len(), "write must report the bytes it wrote");
        buf
    }

    #[test]
    fn round_trips_records_sinks_and_interning() {
        let store = sample_store();
        let sinks = vec!["S|1|2|state".to_string(), "S|3|4|other".to_string()];
        for block in [1, 2, 4096] {
            let buf = snapshot_bytes(&store, &sinks, block);
            let snap = read(&mut buf.as_slice()).unwrap();
            assert_eq!(snap.store.to_records(), store.to_records());
            assert_eq!(snap.sinks, sinks);
            // The reopened arenas intern identically (stats compare equal).
            assert_eq!(snap.store.stats(), store.stats());
        }
    }

    #[test]
    fn reopened_store_keeps_interning_live() {
        // A reopened store is not read-only: pushing and absorbing must
        // keep consing against the rebuilt indices.
        let store = sample_store();
        let buf = snapshot_bytes(&store, &[], 2);
        let mut snap = read(&mut buf.as_slice()).unwrap();
        let extra = rec(0, 360, &[(Some("10.1.0.1"), Some(1.9)), (Some("10.2.0.1"), Some(2.0))], true);
        snap.store.push(&extra);
        let mut direct_recs = store.to_records();
        direct_recs.push(extra);
        let direct = TraceStore::from_records(&direct_recs);
        assert_eq!(snap.store.to_records(), direct.to_records());
        assert_eq!(snap.store.stats(), direct.stats(), "rebuilt indices must cons");
    }

    #[test]
    fn empty_store_round_trips() {
        let store = TraceStore::new();
        let buf = snapshot_bytes(&store, &[], 64);
        let snap = read(&mut buf.as_slice()).unwrap();
        assert!(snap.store.is_empty());
        assert!(snap.sinks.is_empty());
    }

    #[test]
    fn foreign_file_is_an_error_not_a_skip() {
        let mut garbage: &[u8] = b"T|1|2|4|0|1|*|*|*|\n";
        assert!(read_lossy(&mut garbage).is_err(), "bad magic loses everything");
        // A short file whose bytes DIVERGE from the magic is foreign too.
        let mut diverges: &[u8] = b"S2SX";
        assert!(read_lossy(&mut diverges).is_err());
    }

    #[test]
    fn empty_snapshot_is_a_distinct_counted_condition() {
        // Zero bytes, magic prefixes, a magic-only file, a truncated
        // version, and a bare prologue are all *empty snapshots*: lossy
        // opens succeed with `report.empty` (still unclean, so reproduce
        // degrades), strict opens fail with a distinct message.
        let cases: &[&[u8]] = &[
            b"",
            b"S2SN",
            b"S2SNAP01",
            b"S2SNAP01\x01",
            b"S2SNAP01\x01\x00\x00\x00",
        ];
        for &case in cases {
            let (snap, report) = read_lossy(&mut &case[..]).unwrap();
            assert!(report.empty, "{case:?} is an empty snapshot");
            assert!(report.torn, "empty implies torn");
            assert!(!report.clean());
            assert_eq!(report.traces, 0);
            assert!(snap.store.is_empty());
            let err = read(&mut &case[..]).unwrap_err();
            assert!(
                err.to_string().contains("empty snapshot"),
                "strict message for {case:?}: {err}"
            );
        }
        // A non-empty snapshot never reports empty.
        let buf = snapshot_bytes(&sample_store(), &[], 2);
        let (_, report) = read_lossy(&mut buf.as_slice()).unwrap();
        assert!(!report.empty);
    }

    #[test]
    fn future_version_is_refused() {
        let store = sample_store();
        let mut buf = snapshot_bytes(&store, &[], 64);
        buf[8] = 99; // version field
        let err = read(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn truncation_degrades_to_counted_skips() {
        let store = sample_store();
        let total = store.len();
        let buf = snapshot_bytes(&store, &["S|sink".to_string()], 2);
        // Cutting anywhere must never panic, and the books must balance:
        // loaded + skipped == total whenever the END totals were readable
        // (they live at the tail, so truncated files undercount instead).
        // Cuts at or before the 12-byte prologue leave a valid prefix of
        // the magic, which is the distinct empty-snapshot condition.
        for cut in 0..buf.len() {
            let (snap, report) = read_lossy(&mut &buf[..cut]).unwrap();
            assert!(report.torn, "a cut at {cut} is a torn snapshot");
            assert_eq!(report.empty, cut <= 12, "empty iff cut inside the prologue ({cut})");
            assert_eq!(snap.store.len(), report.traces);
            assert!(report.traces + report.skipped_traces <= total);
            let _ = snap.store.to_records(); // loaded prefix stays readable
        }
        let (_, clean) = read_lossy(&mut buf.as_slice()).unwrap();
        assert!(clean.clean());
        assert_eq!(clean.traces, total);
    }

    #[test]
    fn bit_flips_never_panic_and_never_silently_accept() {
        let store = sample_store();
        let records = store.to_records();
        let sinks = vec!["S|sink-state-line".to_string()];
        let buf = snapshot_bytes(&store, &sinks, 2);
        for pos in 12..buf.len() {
            let mut mangled = buf.clone();
            mangled[pos] ^= 0x41;
            match read_lossy(&mut mangled.as_slice()) {
                Ok((snap, report)) => {
                    // Every loaded trace must be one the writer wrote —
                    // a flipped byte may lose data but never invent it.
                    for v in snap.store.iter() {
                        let r = v.to_record();
                        assert!(
                            records.contains(&r),
                            "flip at {pos} invented a record: {r:?}"
                        );
                    }
                    assert!(
                        report.clean() || report.traces <= records.len(),
                        "flip at {pos}: implausible report {report:?}"
                    );
                }
                // A flip inside the magic/version prologue is a foreign
                // file, which is an error by policy.
                Err(_) => assert!(pos < 12 + HEADER_BYTES + buf.len()),
            }
        }
    }

    #[test]
    fn bytes_after_end_are_damage() {
        let store = sample_store();
        let first = snapshot_bytes(&store, &["S|a".to_string()], 2);
        let second = snapshot_bytes(&TraceStore::from_records(&store.to_records()[..1]), &[], 2);
        let mut log = first.clone();
        log.extend_from_slice(&second);
        let mut stray = first.clone();
        stray.extend_from_slice(b"xyz");
        for (case, bytes, extra) in [("log", &log, second.len()), ("stray", &stray, 3)] {
            let err = read(&mut bytes.as_slice()).unwrap_err();
            assert!(err.to_string().contains("trailing byte"), "{case}: {err}");
            let (snap, report) = read_lossy(&mut bytes.as_slice()).unwrap();
            assert_eq!(report.trailing_bytes, extra, "{case}");
            assert!(!report.clean(), "{case}");
            assert!(report.first_errors.iter().any(|e| e.contains("after END")), "{case}");
            assert_eq!(snap.store.to_records(), store.to_records(), "{case}: first chunk loads");
            assert_eq!(snap.sinks, ["S|a"], "{case}");
            assert_eq!((report.skipped_traces, report.skipped_segments), (0, 0), "{case}");
        }
        // Streamed opens see the same damage once the stream is drained.
        let mut reader = Snapshot::options().stream(true).block_budget(1).open_reader(log.as_slice()).unwrap();
        let err = loop {
            match reader.next_batch() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("strict stream accepted trailing bytes"),
                Err(e) => break e,
            }
        };
        assert!(err.to_string().contains("trailing byte"), "{err}");
    }

    #[test]
    fn log_reader_reads_chunks_up_to_the_first_damage() {
        let store = sample_store();
        let recs = store.to_records();
        let chunks: Vec<Vec<u8>> = (0..3)
            .map(|k| {
                let part = TraceStore::from_records(&recs[k..k + 2]);
                snapshot_bytes(&part, &[format!("S|{k}")], 1)
            })
            .collect();
        let log: Vec<u8> = chunks.concat();
        let ends: Vec<u64> =
            chunks.iter().scan(0, |end, c| { *end += c.len() as u64; Some(*end) }).collect();
        let read_all = |bytes: &[u8]| {
            let mut reader = LogReader::new(bytes);
            let mut got = Vec::new();
            while let Some(chunk) = reader.next_chunk().unwrap() {
                got.push(chunk.sinks[0].clone());
            }
            (got, reader.offset(), reader.damage().map(str::to_string))
        };
        assert_eq!(read_all(&log), (vec!["S|0".into(), "S|1".into(), "S|2".into()], ends[2], None));
        assert_eq!(read_all(&[]), (vec![], 0, None), "an empty log has no chunks and no damage");
        // Every cut inside the last chunk, and every flipped byte there,
        // ends the log after the second chunk.
        for pos in ends[1] as usize..log.len() {
            let (got, offset, damage) = read_all(&log[..pos]);
            assert_eq!((got.len(), offset), (2, ends[1]), "cut at {pos}");
            assert_eq!(damage.is_some(), pos > ends[1] as usize, "cut at {pos}");
            let mut flipped = log.clone();
            flipped[pos] ^= 0x41;
            let (got, offset, damage) = read_all(&flipped);
            assert_eq!((got.len(), offset), (2, ends[1]), "flip at {pos}");
            assert!(damage.is_some(), "flip at {pos}");
        }
        // Stray bytes after a chunk are damage too.
        let mut stray = log.clone();
        stray.extend_from_slice(b"S2S");
        let (got, offset, damage) = read_all(&stray);
        assert_eq!((got.len(), offset), (3, ends[2]));
        assert!(damage.is_some());
    }

    #[test]
    fn append_file_cuts_back_to_the_valid_prefix() {
        let dir = shard_tmp_dir("append");
        let path = dir.join("log.snap");
        let store = sample_store();
        let recs = store.to_records();
        let first = TraceStore::from_records(&recs[..2]);
        let second = TraceStore::from_records(&recs[2..]);
        let a = write_file(&path, &first, &["S|0".to_string()]).unwrap();
        fn whole(st: &TraceStore) -> [(&TraceStore, std::ops::Range<usize>); 1] {
            [(st, 0..st.len())]
        }
        let b = append_file(&path, a, &whole(&second), &["S|1".to_string()]).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), a + b);
        // A torn third append leaves junk; appending at the valid prefix
        // replaces it, and the log reads back clean.
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&snapshot_bytes(&first, &[], 1)[..40]).unwrap();
        drop(f);
        let c = append_file(&path, a + b, &whole(&first), &["S|2".to_string()]).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), a + b + c);
        let mut reader = LogReader::open(&path).unwrap();
        let mut all = TraceStore::new();
        while let Some(chunk) = reader.next_chunk().unwrap() {
            all.absorb(&chunk.store);
        }
        assert_eq!((reader.offset(), reader.damage()), (a + b + c, None));
        let mut want = recs.clone();
        want.extend_from_slice(&recs[..2]);
        assert_eq!(all.to_records(), want);
        // A prefix past the end of the file is refused, not zero-filled.
        assert!(append_file(&path, a + b + c + 1, &whole(&first), &[]).is_err());
        assert!(open_file(&path).is_err(), "a strict open of a log is an error");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A prologue and one segment whose header checksum is valid for
    /// whatever `count` and `len` it claims, followed by `payload`.
    fn crafted_segment(tag: u32, count: u64, len: u64, payload: &[u8]) -> Vec<u8> {
        let mut header = Vec::new();
        put_u32(&mut header, tag);
        put_u64(&mut header, count);
        put_u64(&mut header, len);
        put_u64(&mut header, fnv64(payload));
        let hfnv = fnv64(&header);
        put_u64(&mut header, hfnv);
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&header);
        buf.extend_from_slice(payload);
        buf
    }

    #[test]
    fn oversized_header_counts_and_lengths_are_counted_skips() {
        // Well-formed payloads: one IPv4 address, an empty sequence arena
        // with one empty sequence, one sink state; and an arena claiming
        // u64::MAX hop ids.
        let addr = [4u8, 10, 0, 0, 1];
        let mut seq = Vec::new();
        put_u64(&mut seq, 0);
        put_u32(&mut seq, 0);
        let mut huge_arena = Vec::new();
        put_u64(&mut huge_arena, u64::MAX);
        let mut sink = Vec::new();
        put_u32(&mut sink, 1);
        sink.push(b'S');
        let len = |p: &[u8]| p.len() as u64;
        let cases: [(u32, u64, u64, &[u8]); 8] = [
            (TAG_ADDR, 1, u64::MAX, &addr),
            (TAG_BLOCK, 1, u64::MAX, &addr),
            (TAG_ADDR, u64::MAX, len(&addr), &addr),
            (TAG_SEQ, u64::MAX, len(&seq), &seq),
            (TAG_SEQ, 1, len(&huge_arena), &huge_arena),
            (TAG_SINK, u64::MAX, len(&sink), &sink),
            (TAG_BLOCK, u64::MAX, len(&addr), &addr),
            (TAG_END, u64::MAX, u64::MAX, &[]),
        ];
        for (tag, count, len, payload) in cases {
            let case = format!("tag {tag}, count {count}, len {len}");
            let bytes = crafted_segment(tag, count, len, payload);
            let (snap, report) = read_lossy(&mut bytes.as_slice()).expect(&case);
            assert_eq!(report.skipped_segments, 1, "{case}");
            assert!(!report.first_errors.is_empty(), "{case}: no note");
            assert!(snap.store.is_empty(), "{case}");
            assert!(read(&mut bytes.as_slice()).is_err(), "{case}: strict open accepted it");
        }
        // Two such blocks: the skipped count saturates instead of wrapping.
        let mut twice = crafted_segment(TAG_BLOCK, u64::MAX, len(&addr), &addr);
        twice.extend_from_within(MAGIC.len() + 4..);
        let (_, report) = read_lossy(&mut twice.as_slice()).unwrap();
        assert_eq!((report.skipped_segments, report.skipped_traces), (2, usize::MAX));
        // A payload longer than the up-front reservation still reads whole.
        let big = "x".repeat(PAYLOAD_RESERVE as usize + 3);
        let bytes = snapshot_bytes(&TraceStore::new(), std::slice::from_ref(&big), 1);
        assert_eq!(read(&mut bytes.as_slice()).unwrap().sinks, [big]);
    }

    #[test]
    fn corrupt_block_skips_exactly_its_traces() {
        let store = sample_store();
        let buf = snapshot_bytes(&store, &[], 2);
        // Find the first BLOCK segment and flip one payload byte. Segments:
        // prologue(12) + ADDR + SEQ + BLOCK...; walk headers to locate it.
        let mut pos = 12usize;
        let mut block_payload_at = None;
        while pos + HEADER_BYTES <= buf.len() {
            let tag = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap());
            let count = u64::from_le_bytes(buf[pos + 4..pos + 12].try_into().unwrap());
            let len =
                u64::from_le_bytes(buf[pos + 12..pos + 20].try_into().unwrap()) as usize;
            if tag == TAG_BLOCK {
                block_payload_at = Some((pos + HEADER_BYTES, count as usize));
                break;
            }
            pos += HEADER_BYTES + len;
        }
        let (payload_at, block_count) = block_payload_at.expect("snapshot has blocks");
        let mut mangled = buf.clone();
        mangled[payload_at] ^= 0xFF;
        let (snap, report) = read_lossy(&mut mangled.as_slice()).unwrap();
        assert_eq!(report.skipped_traces, block_count);
        assert_eq!(report.traces, store.len() - block_count);
        assert_eq!(snap.store.len(), report.traces);
        assert!(!report.clean());
        assert_eq!(report.coverage().to_string(), format!(
            "{}/{} ({:.1}%)",
            report.traces,
            store.len(),
            100.0 * report.traces as f64 / store.len() as f64
        ));
    }

    #[test]
    fn streamed_batches_reassemble_the_store_at_every_budget() {
        let store = sample_store();
        let sinks = vec!["S|1|2|state".to_string()];
        let buf = snapshot_bytes(&store, &sinks, 2);
        for budget in [1usize, 2, 3, 4, 5, 4096] {
            let mut reader = Snapshot::options()
                .stream(true)
                .block_budget(budget)
                .open_reader(buf.as_slice())
                .unwrap();
            let floor = reader.resident_bytes();
            let mut records = Vec::new();
            let mut batches = 0;
            while let Some(batch) = reader.next_batch().unwrap() {
                // A batch ends at the first BLOCK boundary at or past the
                // budget (block size 2 here).
                assert!(batch.len() <= budget + 1, "budget {budget}: {}", batch.len());
                records.extend(batch.iter().map(|v| v.to_record()));
                batches += 1;
            }
            assert_eq!(records, store.to_records(), "budget {budget}");
            assert_eq!(reader.sinks(), &sinks[..], "budget {budget}");
            assert!(reader.report().clean(), "budget {budget}");
            assert_eq!(reader.report().traces, store.len());
            assert!(batches >= store.len().div_ceil(budget.next_multiple_of(2)));
            assert!(reader.peak_resident_bytes() >= floor);
        }
    }

    #[test]
    fn unstreamed_open_is_one_batch() {
        let store = sample_store();
        let buf = snapshot_bytes(&store, &[], 2);
        let mut reader = Snapshot::options().open_reader(buf.as_slice()).unwrap();
        let first = reader.next_batch().unwrap().expect("everything in one batch");
        assert_eq!(first.len(), store.len());
        assert!(reader.next_batch().unwrap().is_none());
    }

    #[test]
    fn into_snapshot_matches_the_legacy_read() {
        let store = sample_store();
        let sinks = vec!["S|a".to_string(), "S|b".to_string()];
        let buf = snapshot_bytes(&store, &sinks, 2);
        let (snap, report) = Snapshot::options()
            .lossy(true)
            .open_reader(buf.as_slice())
            .unwrap()
            .into_snapshot()
            .unwrap();
        assert!(report.clean());
        assert_eq!(snap.store.to_records(), store.to_records());
        assert_eq!(snap.store.stats(), store.stats());
        assert_eq!(snap.sinks, sinks);
    }

    #[test]
    fn streamed_lossy_damage_still_degrades_to_counted_skips() {
        // Flip a byte in the first BLOCK payload and stream with a tiny
        // budget: the damaged block's traces are skipped, the rest load.
        let store = sample_store();
        let buf = snapshot_bytes(&store, &[], 2);
        let mut pos = 12usize;
        let payload_at = loop {
            let tag = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap());
            let len =
                u64::from_le_bytes(buf[pos + 12..pos + 20].try_into().unwrap()) as usize;
            if tag == TAG_BLOCK {
                break pos + HEADER_BYTES;
            }
            pos += HEADER_BYTES + len;
        };
        let mut mangled = buf.clone();
        mangled[payload_at] ^= 0xFF;
        let mut reader = Snapshot::options()
            .lossy(true)
            .stream(true)
            .block_budget(1)
            .open_reader(mangled.as_slice())
            .unwrap();
        let mut loaded = 0;
        while let Some(batch) = reader.next_batch().unwrap() {
            loaded += batch.len();
        }
        assert_eq!(reader.report().skipped_traces, 2);
        assert_eq!(reader.report().traces, store.len() - 2);
        assert_eq!(loaded, store.len() - 2);
        // Strict streaming errors on the same input.
        let mut strict = Snapshot::options()
            .stream(true)
            .block_budget(1)
            .open_reader(mangled.as_slice())
            .unwrap();
        let err = loop {
            match strict.next_batch() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("strict stream accepted a corrupt block"),
                Err(e) => break e,
            }
        };
        assert!(err.to_string().contains("corrupt snapshot"));
    }

    fn shard_tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "s2s-snap-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn absorb_files_matches_full_reopen_absorb() {
        let dir = shard_tmp_dir("absorb");
        let shards: Vec<TraceStore> = (0..3)
            .map(|k| {
                let recs: Vec<_> = (0..4)
                    .map(|i| {
                        rec(k * 2 + i, i, &[(Some("10.1.0.1"), Some(1.0 + f64::from(i)))], true)
                    })
                    .collect();
                TraceStore::from_records(&recs)
            })
            .collect();
        let mut paths = Vec::new();
        for (k, shard) in shards.iter().enumerate() {
            let path = dir.join(format!("shard-{k}.snap"));
            write_file(&path, shard, &[format!("S|shard{k}")]).unwrap();
            paths.push(path);
        }
        // Reference: full reopen + absorb, in shard order.
        let mut full = TraceStore::new();
        for path in &paths {
            let snap = open_file(path).unwrap();
            full.absorb(&snap.store);
        }
        // Streaming absorb with a deliberately tiny budget.
        let mut streamed = TraceStore::new();
        let options = Snapshot::options().lossy(true).stream(true).block_budget(1);
        let (report, sinks) = absorb_files(&mut streamed, &paths, &options).unwrap();
        assert!(report.clean());
        assert_eq!(report.traces, full.len());
        assert_eq!(sinks, vec!["S|shard0", "S|shard1", "S|shard2"]);
        assert_eq!(streamed.to_records(), full.to_records());
        assert_eq!(streamed.stats(), full.stats());
        // The ShardDir front door resolves and orders the same files.
        let shard_dir = options.open_dir(&dir).unwrap();
        assert_eq!(shard_dir.paths(), &paths[..]);
        let mut via_dir = TraceStore::new();
        let (dir_report, dir_sinks) = shard_dir.absorb_into(&mut via_dir).unwrap();
        assert!(dir_report.clean());
        assert_eq!(dir_sinks.len(), 3);
        assert_eq!(via_dir.to_records(), full.to_records());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_dirs_sort_numerically_and_reject_empties() {
        let dir = shard_tmp_dir("sort");
        let store = sample_store();
        for k in [0usize, 2, 10] {
            write_file(&dir.join(format!("shard-{k}.snap")), &store, &[]).unwrap();
        }
        std::fs::write(dir.join("notes.txt"), b"ignored").unwrap();
        let shard_dir = Snapshot::options().open_dir(&dir).unwrap();
        let names: Vec<_> = shard_dir
            .paths()
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap().to_string())
            .collect();
        assert_eq!(names, ["shard-0.snap", "shard-2.snap", "shard-10.snap"]);
        let empty = shard_tmp_dir("sort-empty");
        let err = Snapshot::options().open_dir(&empty).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&empty);
    }

    /// Raw material for one arbitrary record, mirroring the store's
    /// proptest corpus (the offline shim has no `prop_map`).
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
        /// `from_records → write → read → to_records` is the identity,
        /// None hops/RTTs, NaN-free presence bitsets, both families and
        /// absent endpoints included — at several block sizes.
        #[test]
        fn prop_snapshot_round_trip(raw in arb_records(), block in 1usize..8) {
            let recs = build_records(&raw);
            let store = TraceStore::from_records(&recs);
            let buf = snapshot_bytes(&store, &[], block);
            let snap = read(&mut buf.as_slice()).unwrap();
            prop_assert_eq!(snap.store.to_records(), recs);
            prop_assert_eq!(snap.store.stats(), store.stats());
        }

        /// Writing row ranges of several stores is byte-for-byte the
        /// snapshot of the store their `absorb_range`s build, and for
        /// whole pushed stores the snapshot of their `absorb` merge — at
        /// block sizes that cut inside and across parts.
        #[test]
        fn prop_write_parts_equals_write_of_the_concatenation(
            raw in arb_records(),
            cuts in proptest::collection::vec(0usize..25, 4),
            block in 1usize..8,
        ) {
            let recs = build_records(&raw);
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(recs.len())).collect();
            cuts.sort_unstable();
            let bounds: Vec<usize> = [0].into_iter().chain(cuts).chain([recs.len()]).collect();
            let stores: Vec<TraceStore> =
                bounds.windows(2).map(|w| TraceStore::from_records(&recs[w[0]..w[1]])).collect();
            let sinks = vec!["S|x".to_string()];
            // Whole parts: the merged store.
            let whole: Vec<_> = stores.iter().map(|st| (st, 0..st.len())).collect();
            let mut merged = TraceStore::new();
            for st in &stores {
                merged.absorb(st);
            }
            let mut got = Vec::new();
            let n = write_parts(&mut got, &whole, &sinks, block).unwrap();
            prop_assert_eq!(n as usize, got.len());
            prop_assert_eq!(&got, &snapshot_bytes(&merged, &sinks, block));
            // Inner ranges: the `absorb_range` concatenation.
            let inner: Vec<_> = stores.iter().map(|st| (st, st.len() / 3..st.len() - st.len() / 4)).collect();
            let mut ranged = TraceStore::new();
            for (st, rows) in &inner {
                ranged.absorb_range(st, rows.clone());
            }
            let mut got = Vec::new();
            write_parts(&mut got, &inner, &[], block).unwrap();
            prop_assert_eq!(&got, &snapshot_bytes(&ranged, &[], block));
        }

        /// Truncating at an arbitrary point degrades to counted skips:
        /// never a panic, loaded is a prefix, and the accounting is sane.
        #[test]
        fn prop_truncation_is_counted(raw in arb_records(), frac in 0.0f64..1.0) {
            let recs = build_records(&raw);
            let store = TraceStore::from_records(&recs);
            let buf = snapshot_bytes(&store, &[], 3);
            let cut = 12 + ((buf.len() - 12) as f64 * frac) as usize;
            let (snap, report) = read_lossy(&mut &buf[..cut]).unwrap();
            prop_assert_eq!(snap.store.len(), report.traces);
            prop_assert!(report.traces + report.skipped_traces <= recs.len());
            let loaded = snap.store.to_records();
            prop_assert_eq!(&loaded[..], &recs[..loaded.len()], "loaded must be a prefix");
        }

        /// Arbitrary byte flips: the lossy reader must never panic, and
        /// whatever loads must be records the writer actually wrote.
        #[test]
        fn prop_bit_flips_degrade(
            raw in arb_records(),
            flips in proptest::collection::vec((12usize..65536, 1u8..255), 1..6),
        ) {
            let recs = build_records(&raw);
            let store = TraceStore::from_records(&recs);
            let buf = snapshot_bytes(&store, &[], 2);
            let mut mangled = buf.clone();
            for &(pos, x) in &flips {
                let pos = 12 + (pos - 12) % (buf.len() - 12).max(1);
                mangled[pos.min(buf.len() - 1)] ^= x;
            }
            if let Ok((snap, report)) = read_lossy(&mut mangled.as_slice()) {
                prop_assert_eq!(snap.store.len(), report.traces);
                for v in snap.store.iter() {
                    prop_assert!(recs.contains(&v.to_record()));
                }
            }
        }
    }
}
