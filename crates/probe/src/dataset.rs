//! Dataset export/import.
//!
//! Campaign outputs are plain data; this module round-trips them through a
//! line-oriented text format so results can be archived, diffed, or plotted
//! by external tooling without rerunning a multi-month campaign. The format
//! is deliberately boring: one record per line, `|`-separated fields,
//! `*` for missing values — the same spirit as scamper's text output.

use crate::records::{HopObs, TracerouteRecord};
use crate::store::{IdIndex, TraceStore, TraceView, NO_ADDR};
use s2s_types::{ClusterId, Protocol, SimTime};
use std::fmt::Write as _;
use std::net::IpAddr;
use std::str::FromStr;

/// Errors from parsing a dataset line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Which line failed (1-based, as editors and `grep -n` count).
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn parse_opt<T: FromStr>(s: &str) -> Result<Option<T>, String> {
    if s == "*" {
        Ok(None)
    } else {
        s.parse().map(Some).map_err(|_| format!("bad field '{s}'"))
    }
}

fn proto_tag(p: Protocol) -> &'static str {
    match p {
        Protocol::V4 => "4",
        Protocol::V6 => "6",
    }
}

fn parse_proto(s: &str) -> Result<Protocol, String> {
    match s {
        "4" => Ok(Protocol::V4),
        "6" => Ok(Protocol::V6),
        other => Err(format!("bad protocol '{other}'")),
    }
}

/// Serializes one traceroute to a line:
/// `T|src|dst|proto|minute|reached|e2e|src_addr|dst_addr|hop,rtt;hop,rtt;...`
///
/// RTT fields print with `{}` — the shortest decimal that parses back to
/// the exact same float — so the archive is **lossless**: a record folded
/// from its archived line is bit-identical to the live record. That is
/// what lets checkpoint replay, and the fabric's cross-process shard
/// merge, reproduce an in-memory campaign byte for byte.
pub fn traceroute_to_line(r: &TracerouteRecord) -> String {
    let mut line = String::new();
    write_traceroute_line(&mut line, r);
    line
}

/// Appends one traceroute's archive line (no trailing newline) to `buf` —
/// the allocation-free core of [`traceroute_to_line`]. Digest and export
/// loops reuse one buffer across millions of records instead of
/// materializing a `String` per record.
pub fn write_traceroute_line(buf: &mut String, r: &TracerouteRecord) {
    let head = LineHead {
        src: r.src,
        dst: r.dst,
        proto: r.proto,
        t: r.t,
        reached: r.reached,
        e2e_rtt_ms: r.e2e_rtt_ms,
    };
    let hops = r.hops.iter().map(|h| (h.addr, h.rtt_ms));
    write_line(buf, &head, [r.src_addr, r.dst_addr], hops, write_opt_addr);
}

/// Writes archive lines straight from a [`TraceStore`]'s columns: the
/// view-based twin of [`write_traceroute_line`], for digest and export
/// loops over a whole store. Each interned address is rendered once per
/// writer, on first use, and its text reused for every later hop that
/// names it — so rendering costs in proportion to the records written,
/// never to the size of the store's address table.
pub struct TraceLineWriter<'a> {
    store: &'a TraceStore,
    /// Rendered address text, back to back.
    text: String,
    /// Per rendered address: its id and its `[start, end)` in `text`.
    rendered: Vec<(u32, usize, usize)>,
    /// Address id → index into `rendered`.
    index: IdIndex,
}

impl<'a> TraceLineWriter<'a> {
    /// A writer for views of `store`.
    pub fn new(store: &'a TraceStore) -> TraceLineWriter<'a> {
        TraceLineWriter {
            store,
            text: String::new(),
            rendered: Vec::new(),
            index: IdIndex::default(),
        }
    }

    /// Appends `v`'s archive line (no trailing newline) to `buf` —
    /// byte-equal to [`write_traceroute_line`] of `v.to_record()`, without
    /// materializing the record. `v` must be a view of this writer's store.
    pub fn write(&mut self, buf: &mut String, v: TraceView<'_>) {
        assert!(
            std::ptr::eq(v.store, self.store),
            "view of a different store"
        );
        let head = LineHead {
            src: v.src(),
            dst: v.dst(),
            proto: v.proto(),
            t: v.t(),
            reached: v.reached(),
            e2e_rtt_ms: v.e2e_rtt_ms(),
        };
        let hops = v
            .hop_ids()
            .iter()
            .enumerate()
            .map(|(k, &id)| (id, v.hop_rtt_ms(k)));
        let ends = [v.src_addr_id(), v.dst_addr_id()];
        write_line(buf, &head, ends, hops, |buf, id| self.write_addr(buf, id));
    }

    fn write_addr(&mut self, buf: &mut String, id: u32) {
        if id == NO_ADDR {
            buf.push('*');
            return;
        }
        let h = addr_id_hash(id);
        let rendered = &self.rendered;
        let slot = match self.index.get(h, |e| rendered[e as usize].0 == id) {
            Some(e) => e as usize,
            None => {
                let start = self.text.len();
                let _ = write!(self.text, "{}", self.store.addr(id));
                let e = self.rendered.len();
                self.rendered.push((id, start, self.text.len()));
                let rendered = &self.rendered;
                self.index
                    .insert(h, e as u32, |e| addr_id_hash(rendered[e as usize].0));
                e
            }
        };
        let (_, a, b) = self.rendered[slot];
        buf.push_str(&self.text[a..b]);
    }
}

/// Spreads an address id over the index's low bits.
fn addr_id_hash(id: u32) -> u64 {
    u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 29
}

/// The scalar fields that open a traceroute line.
struct LineHead {
    src: ClusterId,
    dst: ClusterId,
    proto: Protocol,
    t: SimTime,
    reached: bool,
    e2e_rtt_ms: Option<f64>,
}

/// The one definition of the traceroute line format, generic over how an
/// address is held (`Option<IpAddr>` in a record, an interned id in a
/// store) and written.
fn write_line<A>(
    buf: &mut String,
    head: &LineHead,
    ends: [A; 2],
    hops: impl Iterator<Item = (A, Option<f64>)>,
    mut write_addr: impl FnMut(&mut String, A),
) {
    let _ = write!(
        buf,
        "T|{}|{}|{}|{}|{}|",
        head.src.0,
        head.dst.0,
        proto_tag(head.proto),
        head.t.minutes(),
        u8::from(head.reached),
    );
    write_opt_rtt(buf, head.e2e_rtt_ms);
    for a in ends {
        buf.push('|');
        write_addr(buf, a);
    }
    buf.push('|');
    for (i, (addr, rtt)) in hops.enumerate() {
        if i > 0 {
            buf.push(';');
        }
        write_addr(buf, addr);
        buf.push(',');
        write_opt_rtt(buf, rtt);
    }
}

/// An optional RTT field: `{}` (shortest round-trip decimal) or `*`.
fn write_opt_rtt(buf: &mut String, v: Option<f64>) {
    match v {
        Some(x) => {
            let _ = write!(buf, "{x}");
        }
        None => buf.push('*'),
    }
}

/// An optional address field: its `Display` text or `*`.
fn write_opt_addr(buf: &mut String, v: Option<IpAddr>) {
    match v {
        Some(a) => {
            let _ = write!(buf, "{a}");
        }
        None => buf.push('*'),
    }
}

/// Parses a traceroute line produced by [`traceroute_to_line`].
///
/// Walks the `|`-split once instead of collecting a per-line field vector
/// — the importer's hot path (the `analysis.importer` section of
/// `BENCH_longterm.json` times it); the field count is only computed when
/// the shape is wrong and an error message needs it.
pub fn traceroute_from_line(line: &str, lineno: usize) -> Result<TracerouteRecord, ParseError> {
    let err = |m: String| ParseError { line: lineno, message: m };
    let shape_err =
        || err(format!("expected 10 T-record fields, got {}", line.split('|').count()));
    let mut it = line.split('|');
    if it.next() != Some("T") {
        return Err(shape_err());
    }
    let mut next = || it.next().ok_or_else(shape_err);
    let src = ClusterId::new(next()?.parse().map_err(|_| err("bad src".into()))?);
    let dst = ClusterId::new(next()?.parse().map_err(|_| err("bad dst".into()))?);
    let proto = parse_proto(next()?).map_err(&err)?;
    let t = SimTime::from_minutes(next()?.parse().map_err(|_| err("bad time".into()))?);
    // Strict 0/1: anything else ("2", "true", bit-rotted bytes) is a
    // parse error, not a silent `false` — the lossy importer counts it.
    let reached = match next()? {
        "1" => true,
        "0" => false,
        other => return Err(err(format!("bad reached flag '{other}' (want 0 or 1)"))),
    };
    let e2e_rtt_ms = parse_opt::<f64>(next()?).map_err(&err)?;
    let src_addr = parse_opt::<IpAddr>(next()?).map_err(&err)?;
    let dst_addr = parse_opt::<IpAddr>(next()?).map_err(&err)?;
    let hops_field = next()?;
    if it.next().is_some() {
        return Err(shape_err());
    }
    let mut hops = Vec::new();
    if !hops_field.is_empty() {
        for part in hops_field.split(';') {
            let (a, r) = part
                .split_once(',')
                .ok_or_else(|| err(format!("bad hop '{part}'")))?;
            hops.push(HopObs {
                addr: parse_opt::<IpAddr>(a).map_err(&err)?,
                rtt_ms: parse_opt::<f64>(r).map_err(&err)?,
            });
        }
    }
    Ok(TracerouteRecord { src, dst, proto, t, hops, reached, e2e_rtt_ms, src_addr, dst_addr })
}

/// Writes traceroute records to a writer, one line each.
pub fn write_traceroutes<W: std::io::Write>(
    w: &mut W,
    records: &[TracerouteRecord],
) -> std::io::Result<()> {
    for r in records {
        writeln!(w, "{}", traceroute_to_line(r))?;
    }
    Ok(())
}

/// The longest archive line the importers read, in bytes (1 MiB). The
/// writer stays far below it: a traceroute line is at most ~17 KiB (255
/// hops of at most 65 bytes — a 39-byte IPv6 address, a 24-byte RTT and two
/// separators — after a header under 200 bytes). A longer line is damage:
/// a strict import errors on it, a lossy one counts it skipped.
pub const MAX_ARCHIVE_LINE: usize = 1 << 20;

/// What one [`read_capped_line`] call found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CappedLine {
    /// A line of at most the cap, now in the buffer without its newline.
    Line,
    /// A line longer than the cap, consumed up to and including its
    /// newline (or EOF); the buffer is left empty.
    TooLong,
}

/// Reads one line of at most `cap` bytes into `buf` (cleared first), the
/// newline consumed but not stored. `buf` never grows past `cap`: a longer
/// line is consumed up to and including its newline, or to EOF, and comes
/// back as [`CappedLine::TooLong`], so the next call starts on the line
/// after it. The bytes are not checked for UTF-8. `None` at EOF.
pub fn read_capped_line(
    input: &mut impl std::io::BufRead,
    buf: &mut Vec<u8>,
    cap: usize,
) -> std::io::Result<Option<CappedLine>> {
    buf.clear();
    let (mut seen, mut too_long) = (false, false);
    loop {
        let avail = match input.fill_buf() {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if avail.is_empty() {
            break;
        }
        seen = true;
        let newline = avail.iter().position(|&b| b == b'\n');
        let part = &avail[..newline.unwrap_or(avail.len())];
        let need = buf.len() + part.len();
        if need > cap {
            too_long = true;
            buf.clear();
        } else if !too_long {
            if need > buf.capacity() {
                // Grow by doubling, but never past the cap.
                buf.reserve_exact(need.max(2 * buf.capacity()).min(cap) - buf.len());
            }
            buf.extend_from_slice(part);
        }
        let used = part.len() + usize::from(newline.is_some());
        input.consume(used);
        if newline.is_some() {
            break;
        }
    }
    Ok(match (seen, too_long) {
        (false, _) => None,
        (true, true) => Some(CappedLine::TooLong),
        (true, false) => Some(CappedLine::Line),
    })
}

/// An archive's lines, read through the [`MAX_ARCHIVE_LINE`] cap and
/// numbered from 1.
struct ArchiveLines<R> {
    input: R,
    buf: Vec<u8>,
    lineno: usize,
}

impl<R: std::io::BufRead> ArchiveLines<R> {
    fn new(input: R) -> ArchiveLines<R> {
        ArchiveLines { input, buf: Vec::new(), lineno: 0 }
    }

    /// The next line and its number: its text, or why it is not text — over
    /// the cap or not UTF-8, either way consumed through its newline, so the
    /// line after it reads cleanly. `None` at EOF.
    fn next(&mut self) -> std::io::Result<Option<(usize, Result<&str, String>)>> {
        let Some(read) = read_capped_line(&mut self.input, &mut self.buf, MAX_ARCHIVE_LINE)?
        else {
            return Ok(None);
        };
        self.lineno += 1;
        let text = match read {
            CappedLine::TooLong => Err(format!("line longer than {MAX_ARCHIVE_LINE} bytes")),
            CappedLine::Line => {
                std::str::from_utf8(&self.buf).map_err(|_| "invalid UTF-8".to_string())
            }
        };
        Ok(Some((self.lineno, text)))
    }
}

/// Reads traceroute records from a reader (skipping blank lines and `#`
/// comments). Errors carry 1-based line numbers; a line longer than
/// [`MAX_ARCHIVE_LINE`] is an error.
pub fn read_traceroutes<R: std::io::BufRead>(
    r: R,
) -> Result<Vec<TracerouteRecord>, ParseError> {
    let mut out = Vec::new();
    let mut lines = ArchiveLines::new(r);
    loop {
        let at = lines.lineno + 1;
        let (lineno, line) = match lines.next() {
            Ok(Some(l)) => l,
            Ok(None) => break,
            Err(e) => return Err(ParseError { line: at, message: e.to_string() }),
        };
        let line = line.map_err(|message| ParseError { line: lineno, message })?.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(traceroute_from_line(line, lineno)?);
    }
    Ok(out)
}

/// What a lossy import did: how much survived, how much was skipped, and
/// the first few reasons why.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ImportReport {
    /// Records parsed successfully.
    pub imported: usize,
    /// Lines skipped as unparseable (corrupt, truncated, foreign, or longer
    /// than [`MAX_ARCHIVE_LINE`]).
    pub skipped: usize,
    /// The first [`ImportReport::MAX_SAMPLED_ERRORS`] parse errors, for
    /// diagnosis; further errors only bump `skipped`.
    pub first_errors: Vec<ParseError>,
}

impl ImportReport {
    /// How many parse errors a report keeps verbatim.
    pub const MAX_SAMPLED_ERRORS: usize = 8;

    fn skip(&mut self, e: ParseError) {
        self.skipped += 1;
        if self.first_errors.len() < Self::MAX_SAMPLED_ERRORS {
            self.first_errors.push(e);
        }
    }

    /// Coverage of the archive: imported lines over candidate lines.
    pub fn coverage(&self) -> s2s_types::Coverage {
        s2s_types::Coverage::new(self.imported, self.imported + self.skipped)
    }
}

/// Reads traceroute records from a possibly damaged archive. Unparseable
/// lines — bit rot, torn writes, foreign text, invalid UTF-8, lines longer
/// than [`MAX_ARCHIVE_LINE`] — degrade to counted skips instead of
/// aborting the import; blank lines and `#` comments are ignored as in
/// [`read_traceroutes`] and count as neither imported nor skipped. An I/O
/// error means the *stream* is unreadable — losing the rest of the archive
/// is not a per-line skip — and propagates.
pub fn read_traceroutes_lossy<R: std::io::BufRead>(
    r: R,
) -> std::io::Result<(Vec<TracerouteRecord>, ImportReport)> {
    let mut out = Vec::new();
    let mut report = ImportReport::default();
    let mut lines = ArchiveLines::new(r);
    while let Some((lineno, line)) = lines.next()? {
        let line = match line {
            Ok(l) => l.trim(),
            Err(message) => {
                report.skip(ParseError { line: lineno, message });
                continue;
            }
        };
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match traceroute_from_line(line, lineno) {
            Ok(rec) => {
                report.imported += 1;
                out.push(rec);
            }
            Err(e) => report.skip(e),
        }
    }
    Ok((out, report))
}

/// Like [`write_traceroutes`], but each line passes through the fault
/// injector's archive-corruption stage on the way out. Returns how many
/// lines were corrupted. Under a zero `corrupt_rate` the output is
/// byte-identical to [`write_traceroutes`].
pub fn write_traceroutes_faulty<W: std::io::Write>(
    w: &mut W,
    records: &[TracerouteRecord],
    injector: &crate::faults::FaultInjector,
) -> std::io::Result<usize> {
    let mut corrupted = 0;
    for r in records {
        let line = traceroute_to_line(r);
        match injector.corrupt_line(&line) {
            Some(mangled) => {
                corrupted += 1;
                writeln!(w, "{mangled}")?;
            }
            None => writeln!(w, "{line}")?,
        }
    }
    Ok(corrupted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The parser must reject or accept arbitrary input without
        /// panicking — it ingests archives from outside the process.
        #[test]
        fn prop_parser_never_panics(line in ".*") {
            let _ = traceroute_from_line(&line, 0);
        }

        /// Pipe-structured garbage with the right field count must not
        /// panic either (it exercises the per-field error paths).
        #[test]
        fn prop_structured_garbage_is_rejected_cleanly(
            fields in proptest::collection::vec("[a-z0-9*.]{0,8}", 9),
        ) {
            let line = format!("T|{}", fields.join("|"));
            let _ = traceroute_from_line(&line, 3);
        }

        /// Round trip holds for arbitrary RTT values (3-decimal precision).
        #[test]
        fn prop_rtt_precision(rtt in 0.0f64..1e5) {
            let mut r = sample_record();
            r.e2e_rtt_ms = Some(rtt);
            let back = traceroute_from_line(&traceroute_to_line(&r), 0).unwrap();
            prop_assert!((back.e2e_rtt_ms.unwrap() - rtt).abs() < 0.0005 + rtt * 1e-12);
        }

        /// Export an archive, flip arbitrary bytes in it, import it back:
        /// the lossy reader must never panic, and every candidate line must
        /// be accounted for as either imported or skipped.
        #[test]
        fn prop_flipped_bytes_degrade_to_counted_skips(
            flips in proptest::collection::vec((0usize..4096, 0u8..255), 0..24),
        ) {
            let records = vec![sample_record(); 6];
            let mut buf = Vec::new();
            write_traceroutes(&mut buf, &records).unwrap();
            for &(pos, byte) in &flips {
                let pos = pos % buf.len();
                buf[pos] = byte;
            }
            let (out, report) = read_traceroutes_lossy(std::io::Cursor::new(&buf))
                .expect("in-memory reads cannot fail");
            prop_assert_eq!(out.len(), report.imported);
            // Flips can merge lines (eat a '\n'), split them (mint one),
            // or comment a line out ('#'), so the candidate count is
            // whatever the mutated bytes say — but every candidate must
            // resolve exactly one way.
            let candidates = buf
                .split(|&b| b == b'\n')
                .filter(|l| {
                    let t = String::from_utf8_lossy(l);
                    let t = t.trim();
                    !t.is_empty() && !t.starts_with('#')
                })
                .count();
            prop_assert_eq!(report.imported + report.skipped, candidates);
            prop_assert!(report.first_errors.len() <= ImportReport::MAX_SAMPLED_ERRORS);
        }
    }

    fn sample_record() -> TracerouteRecord {
        TracerouteRecord {
            src: ClusterId::new(3),
            dst: ClusterId::new(9),
            proto: Protocol::V4,
            t: SimTime::from_minutes(1234),
            hops: vec![
                HopObs { addr: Some("10.0.0.1".parse().unwrap()), rtt_ms: Some(1.25) },
                HopObs { addr: None, rtt_ms: None },
                HopObs { addr: Some("2600::1".parse().unwrap()), rtt_ms: Some(9.5) },
            ],
            reached: true,
            e2e_rtt_ms: Some(55.125),
            src_addr: Some("10.9.0.1".parse().unwrap()),
            dst_addr: Some("10.2.0.9".parse().unwrap()),
        }
    }

    #[test]
    fn traceroute_round_trips() {
        let r = sample_record();
        let line = traceroute_to_line(&r);
        let back = traceroute_from_line(&line, 0).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn unreached_record_round_trips() {
        let mut r = sample_record();
        r.reached = false;
        r.e2e_rtt_ms = None;
        r.dst_addr = None;
        let back = traceroute_from_line(&traceroute_to_line(&r), 0).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn empty_hops_round_trip() {
        let mut r = sample_record();
        r.hops.clear();
        let back = traceroute_from_line(&traceroute_to_line(&r), 0).unwrap();
        assert!(back.hops.is_empty());
    }

    #[test]
    fn malformed_lines_error_with_position() {
        assert_eq!(traceroute_from_line("garbage", 7).unwrap_err().line, 7);
        assert!(traceroute_from_line("T|x|2|4|0|1|*|*|*|", 0).is_err());
        assert!(traceroute_from_line("T|1|2|9|0|1|*|*|*|", 0)
            .unwrap_err()
            .message
            .contains("protocol"));
    }

    #[test]
    fn corrupt_reached_flag_is_rejected_not_false() {
        // Regression: `reached` used to parse with `== "1"`, so any
        // corrupt value silently became `false`.
        let good = traceroute_to_line(&sample_record());
        for bad in ["2", "true", "01", "x", "", "-1", "1 "] {
            let mut fields: Vec<&str> = good.split('|').collect();
            fields[5] = bad;
            let line = fields.join("|");
            let e = traceroute_from_line(&line, 4).unwrap_err();
            assert!(
                e.message.contains("reached"),
                "'{bad}' must be a reached-flag error, got: {e}"
            );
            assert_eq!(e.line, 4);
        }
        // The valid flags still parse.
        for (flag, want) in [("1", true), ("0", false)] {
            let mut fields: Vec<&str> = good.split('|').collect();
            fields[5] = flag;
            let r = traceroute_from_line(&fields.join("|"), 0).unwrap();
            assert_eq!(r.reached, want);
        }
    }

    #[test]
    fn lossy_import_counts_corrupt_reached_as_skip() {
        let good = traceroute_to_line(&sample_record());
        let fuzzed = {
            let mut fields: Vec<&str> = good.split('|').collect();
            fields[5] = "7";
            fields.join("|")
        };
        let text = format!("{good}\n{fuzzed}\n{good}\n");
        let (out, report) =
            read_traceroutes_lossy(std::io::Cursor::new(text.into_bytes())).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(report.skipped, 1);
        assert_eq!(report.first_errors[0].line, 2);
        assert!(report.first_errors[0].message.contains("reached"));
    }

    #[test]
    fn parse_errors_report_one_based_lines() {
        // Strict importer: the bad line is the second one.
        let good = traceroute_to_line(&sample_record());
        let text = format!("{good}\ngarbage\n");
        let e = read_traceroutes(std::io::Cursor::new(text.into_bytes())).unwrap_err();
        assert_eq!(e.line, 2, "editors count from 1");
    }

    #[test]
    fn write_traceroute_line_matches_to_line_with_buffer_reuse() {
        let records = [sample_record(), {
            let mut r = sample_record();
            r.hops.clear();
            r.reached = false;
            r
        }];
        let mut buf = String::new();
        for r in &records {
            buf.clear();
            write_traceroute_line(&mut buf, r);
            assert_eq!(buf, traceroute_to_line(r), "reused buffer must agree");
        }
    }

    /// `n` records cycling through every field shape the line format has:
    /// unresponsive hops, hops without an RTT, a missing e2e RTT, no hops,
    /// unset endpoint addresses, IPv6, and RTTs whose shortest decimal is
    /// long, tiny or huge.
    fn edge_case_records(n: usize) -> Vec<TracerouteRecord> {
        (0..n)
            .map(|i| {
                let v6 = i % 3 == 0;
                let addr = |k: usize| -> IpAddr {
                    if v6 {
                        format!("2600:{:x}::{:x}", i % 7, k).parse().unwrap()
                    } else {
                        format!("10.{}.0.{}", i % 5, k).parse().unwrap()
                    }
                };
                let rtt = |k: usize| match (i + k) % 4 {
                    0 => 1.0 / 3.0 + (i * 7 + k) as f64,
                    1 => 1e-7 * (k + 1) as f64,
                    2 => 1e21 + (i as f64),
                    _ => 42.5,
                };
                TracerouteRecord {
                    src: ClusterId::new((i % 11) as u32),
                    dst: ClusterId::new((i % 13) as u32),
                    proto: if v6 { Protocol::V6 } else { Protocol::V4 },
                    t: SimTime::from_minutes(i as u32 * 180),
                    hops: (0..i % 9)
                        .map(|k| HopObs {
                            addr: (k % 4 != 2).then(|| addr(k)),
                            rtt_ms: (k % 3 != 1).then(|| rtt(k)),
                        })
                        .collect(),
                    reached: i % 4 != 3,
                    e2e_rtt_ms: (i % 4 != 3).then(|| rtt(99)),
                    src_addr: (i % 6 != 5).then(|| addr(100)),
                    dst_addr: (i % 5 != 4).then(|| addr(101)),
                }
            })
            .collect()
    }

    #[test]
    fn trace_line_writer_matches_record_writer() {
        let records = edge_case_records(200);
        assert!(records.iter().any(|r| r.hops.is_empty()));
        assert!(records
            .iter()
            .any(|r| r.hops.iter().any(|h| h.addr.is_none())));
        assert!(records
            .iter()
            .any(|r| r.hops.iter().any(|h| h.rtt_ms.is_none())));
        let store = TraceStore::from_records(&records);
        let mut w = TraceLineWriter::new(&store);
        let mut buf = String::new();
        for (v, r) in store.iter().zip(&records) {
            buf.clear();
            w.write(&mut buf, v);
            assert_eq!(buf, traceroute_to_line(r), "view writer diverged");
            buf.clear();
            write_traceroute_line(&mut buf, &v.to_record());
            assert_eq!(buf, traceroute_to_line(r), "record writer diverged");
        }
    }

    #[test]
    fn lossy_import_counts_skips_exactly() {
        let good = traceroute_to_line(&sample_record());
        let text = format!(
            "# header\n{good}\ngarbage line\n\n{good}\nT|x|y|4|0|1|*|*|*|\n{good}\n"
        );
        let (out, report) =
            read_traceroutes_lossy(std::io::Cursor::new(text.into_bytes())).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(report.imported, 3);
        assert_eq!(report.skipped, 2);
        assert_eq!(report.first_errors.len(), 2);
        assert_eq!(report.first_errors[0].line, 3, "1-based line of 'garbage line'");
        assert_eq!(report.coverage().to_string(), "3/5 (60.0%)");
    }

    #[test]
    fn lossy_import_skips_invalid_utf8_lines() {
        let good = traceroute_to_line(&sample_record());
        let mut buf = Vec::new();
        buf.extend_from_slice(good.as_bytes());
        buf.extend_from_slice(b"\nT|3|9|4|\xFF\xFE|1|*|*|*|\n");
        buf.extend_from_slice(good.as_bytes());
        buf.push(b'\n');
        let (out, report) = read_traceroutes_lossy(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(report.skipped, 1);
        assert!(report.first_errors[0].message.contains("UTF-8"));
    }

    #[test]
    fn capped_lines_stop_at_the_cap_and_resync() {
        let mut input = &b"abc\nabcd\r\n\nab"[..];
        let mut buf = Vec::new();
        let mut read = || {
            let r = read_capped_line(&mut input, &mut buf, 3).unwrap();
            (r, String::from_utf8(buf.clone()).unwrap())
        };
        assert_eq!(read(), (Some(CappedLine::Line), "abc".into()), "exactly the cap");
        assert_eq!(read(), (Some(CappedLine::TooLong), String::new()));
        assert_eq!(read(), (Some(CappedLine::Line), String::new()), "a blank line");
        assert_eq!(read(), (Some(CappedLine::Line), "ab".into()), "no newline at EOF");
        assert_eq!(read(), (None, String::new()));
    }

    /// `good`, then a `huge`-byte line with no newline inside it, then
    /// `good` twice more.
    fn archive_with_huge_line(good: &str, huge: u64) -> impl std::io::BufRead {
        use std::io::Read;
        let head = std::io::Cursor::new(format!("{good}\n").into_bytes());
        let tail = std::io::Cursor::new(format!("\n{good}\n{good}\n").into_bytes());
        std::io::BufReader::new(head.chain(std::io::repeat(b'T').take(huge)).chain(tail))
    }

    #[test]
    fn oversize_archive_lines_are_errors_or_counted_skips() {
        let good = traceroute_to_line(&sample_record());
        let huge = 4 << 20;
        // The reader holds at most the cap, however long the line.
        let mut input = archive_with_huge_line(&good, huge);
        let mut buf = Vec::new();
        assert_eq!(read_capped_line(&mut input, &mut buf, MAX_ARCHIVE_LINE).unwrap(), Some(CappedLine::Line));
        assert_eq!(
            read_capped_line(&mut input, &mut buf, MAX_ARCHIVE_LINE).unwrap(),
            Some(CappedLine::TooLong)
        );
        assert!(buf.capacity() <= MAX_ARCHIVE_LINE, "capacity {}", buf.capacity());
        assert_eq!(read_capped_line(&mut input, &mut buf, MAX_ARCHIVE_LINE).unwrap(), Some(CappedLine::Line));
        assert_eq!(buf, good.as_bytes(), "resynced at the next newline");
        // Lossy: one counted skip, the records after it still import.
        let (out, report) = read_traceroutes_lossy(archive_with_huge_line(&good, huge)).unwrap();
        assert_eq!(out, vec![sample_record(); 3]);
        assert_eq!((report.imported, report.skipped), (3, 1));
        assert_eq!(report.first_errors[0].line, 2);
        assert!(report.first_errors[0].message.contains("longer than"), "{report:?}");
        // Strict: an error naming the line.
        let err = read_traceroutes(archive_with_huge_line(&good, huge)).unwrap_err();
        assert_eq!(err.line, 2, "{err}");
        assert!(err.message.contains("longer than"), "{err}");
        // A line of exactly the cap is still read (and here fails to parse).
        let (out, report) =
            read_traceroutes_lossy(archive_with_huge_line(&good, MAX_ARCHIVE_LINE as u64)).unwrap();
        assert_eq!(out.len(), 3);
        assert!(report.first_errors[0].message.contains("T-record"), "{report:?}");
    }

    #[test]
    fn faulty_export_is_identity_when_quiet() {
        use crate::faults::{FaultInjector, FaultProfile};
        let records = vec![sample_record(); 4];
        let mut plain = Vec::new();
        write_traceroutes(&mut plain, &records).unwrap();
        let mut faulty = Vec::new();
        let n = write_traceroutes_faulty(
            &mut faulty,
            &records,
            &FaultInjector::new(FaultProfile::default()),
        )
        .unwrap();
        assert_eq!(n, 0);
        assert_eq!(plain, faulty, "zero corrupt_rate must be byte-identical");
    }

    #[test]
    fn corrupted_archive_degrades_to_counted_skips() {
        use crate::faults::{FaultInjector, FaultProfile};
        let records: Vec<_> = (0..40)
            .map(|i| {
                let mut r = sample_record();
                r.t = SimTime::from_minutes(i);
                r
            })
            .collect();
        let injector = FaultInjector::new(FaultProfile {
            corrupt_rate: 0.5,
            ..FaultProfile::default()
        });
        let mut buf = Vec::new();
        let corrupted = write_traceroutes_faulty(&mut buf, &records, &injector).unwrap();
        assert!(corrupted > 5, "half the archive should be mangled, got {corrupted}");
        let (out, report) = read_traceroutes_lossy(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(report.imported + report.skipped, records.len());
        assert_eq!(out.len(), report.imported);
        // A mangled line can still parse (a flipped digit is a different
        // valid record), so skipped ≤ corrupted — but corruption is the
        // only damage source here.
        assert!(report.skipped <= corrupted);
        assert!(report.skipped > 0, "some corruptions must break parsing");
        assert!(report.coverage().fraction() < 1.0);
    }

    #[test]
    fn file_round_trip_with_comments() {
        let records = vec![sample_record(), sample_record()];
        let mut buf = Vec::new();
        buf.extend_from_slice(b"# a comment\n\n");
        write_traceroutes(&mut buf, &records).unwrap();
        let back = read_traceroutes(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn simulated_records_round_trip() {
        use crate::tracer::{trace, TraceOptions};
        use s2s_netsim::{CongestionModel, Network, NetworkParams};
        use s2s_routing::{Dynamics, RouteOracle};
        use s2s_topology::{build_topology, TopologyParams};
        use std::sync::Arc;
        let topo = Arc::new(build_topology(&TopologyParams::tiny(77)));
        let oracle = Arc::new(RouteOracle::new(
            Arc::clone(&topo),
            Arc::new(Dynamics::all_up(&topo, SimTime::from_days(2))),
        ));
        let net = Network::new(oracle, CongestionModel::none(), NetworkParams::default());
        let recs: Vec<_> = (1..6)
            .map(|d| {
                trace(
                    &net,
                    ClusterId::new(0),
                    ClusterId::new(d),
                    Protocol::V4,
                    SimTime::from_hours(6),
                    TraceOptions::default(),
                )
            })
            .collect();
        let mut buf = Vec::new();
        write_traceroutes(&mut buf, &recs).unwrap();
        let back = read_traceroutes(std::io::Cursor::new(buf)).unwrap();
        // RTT fields round to 3 decimals; compare structure and addresses.
        assert_eq!(back.len(), recs.len());
        for (b, r) in back.iter().zip(&recs) {
            assert_eq!(b.src, r.src);
            assert_eq!(b.reached, r.reached);
            assert_eq!(
                b.hops.iter().map(|h| h.addr).collect::<Vec<_>>(),
                r.hops.iter().map(|h| h.addr).collect::<Vec<_>>()
            );
        }
    }
}
