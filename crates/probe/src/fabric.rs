//! Crash-tolerant scale-out campaign fabric.
//!
//! A coordinator splits a campaign's pair space into disjoint shards,
//! launches worker processes (one shard per worker attempt), and merges
//! the framed results deterministically. Workers speak a framed protocol
//! on stdout (`F|…` lines, each `DATA` line followed by its raw bytes), so
//! the payload — one binary snapshot of the shard ([`crate::snapshot`]) —
//! is never parsed by the fabric.
//!
//! The robustness contract: workers heartbeat; the coordinator enforces a
//! per-attempt event timeout, kills hung workers, and retries failed
//! shards with bounded, seeded backoff. A retried worker resumes from its
//! shard's worker-local checkpoint, and because checkpoint replay is
//! bit-identical to live measurement (see [`crate::campaign`]) the merged
//! dataset is **byte-identical across {1 process, N workers, any seeded
//! crash/kill/resume schedule}**. A shard still failing after the retry
//! budget is *lost*, never silently shrunk: the caller synthesizes lost
//! records for its slots and the loss lands in
//! [`CampaignReport::lost_slots`] and the coverage floors.
//!
//! A seeded fault plane ([`FabricFaultProfile`], its plan from
//! `S2S_FABRIC_FAULT_PLAN`) exercises every failure path
//! deterministically: kill-after-k-pairs, stall (heartbeat silence),
//! corrupt-frame (checksum mismatch), and plain nonzero exit.
//!
//! ## Protocol frames
//!
//! | Frame | Meaning |
//! |---|---|
//! | `F\|HELLO\|shard\|attempt` | worker is alive, before any real work |
//! | `F\|HB\|shard\|done` | heartbeat; `done` is a progress hint |
//! | `F\|DATA\|shard\|bytes` | exactly `bytes` raw payload bytes follow (≤ [`MAX_FRAME_BYTES`]) |
//! | `F\|REPORT\|shard\|R\|…` | the shard's [`CampaignReport`] |
//! | `F\|METRICS\|shard\|k=v,…` | worker counter snapshot |
//! | `F\|END\|shard\|fnv64` | payload checksum; stream is complete |
//!
//! An attempt is accepted only if the stream carried `HELLO`, a `REPORT`,
//! an `END` whose FNV-64 checksum matches the received payload, no damage
//! ([`read_events`]), and the process exited 0. Anything else — timeout,
//! nonzero exit, checksum mismatch, damaged stream — fails the attempt
//! and the shard goes back on the queue.

use crate::campaign::CampaignReport;
use crate::faults::{key, mix, uniform};
use std::collections::VecDeque;
use std::io::{self, BufRead, Write};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// Salts for fabric fault decisions (distinct from the probe-fault salts in
// `faults.rs` so the two planes never share a key stream).
const SALT_FABRIC_FATE: u64 = 0xFAB0;
const SALT_FABRIC_KILL_AT: u64 = 0xFAB1;
const SALT_FABRIC_BACKOFF: u64 = 0xFAB2;

/// Environment variable carrying the worker's shard index.
pub const ENV_SHARD: &str = "S2S_FABRIC_SHARD";
/// Environment variable carrying the total shard count.
pub const ENV_SHARDS: &str = "S2S_FABRIC_SHARDS";
/// Environment variable carrying the attempt number (1-based).
pub const ENV_ATTEMPT: &str = "S2S_FABRIC_ATTEMPT";
/// Environment variable carrying the worker-local checkpoint directory.
pub const ENV_CKPT_DIR: &str = "S2S_FABRIC_CKPT_DIR";
/// Environment variable selecting the worker's campaign mode.
pub const ENV_MODE: &str = "S2S_FABRIC_MODE";

/// The FNV-1a 64-bit offset basis — the seed for [`fnv64_bytes`] chains.
pub const FNV64_OFFSET: u64 = 0xcbf29ce484222325;

/// Folds `bytes` into a running FNV-1a 64-bit hash `h`. Streaming form:
/// `fnv64_bytes(fnv64_bytes(FNV64_OFFSET, a), b)` equals hashing `a ++ b`
/// in one pass, so callers can digest encoder output chunk by chunk
/// without materializing the whole payload.
pub fn fnv64_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
    }
    h
}

/// FNV-1a over text lines (the dataset digest's form), with a `\n` folded
/// after each line so the hash pins both content and line structure.
pub fn fnv64_lines<S: AsRef<str>>(lines: &[S]) -> u64 {
    let mut h: u64 = FNV64_OFFSET;
    for l in lines {
        h = fnv64_bytes(h, l.as_ref().as_bytes());
        h = fnv64_bytes(h, b"\n");
    }
    h
}

/// The contiguous item range shard `shard` of `n_shards` owns out of
/// `n_items` — even chunks, remainder spread over the first shards. Both
/// sides of the fabric compute this independently and must agree.
pub fn shard_range(n_items: usize, n_shards: usize, shard: usize) -> std::ops::Range<usize> {
    let n_shards = n_shards.max(1);
    let base = n_items / n_shards;
    let rem = n_items % n_shards;
    let start = shard * base + shard.min(rem);
    let len = base + usize::from(shard < rem);
    start..(start + len).min(n_items)
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// One parsed protocol frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Worker is alive and owns (shard, attempt).
    Hello { shard: usize, attempt: u32 },
    /// Heartbeat with a progress hint (units done, free-form).
    Heartbeat { shard: usize, done: u64 },
    /// The next `len` bytes on the stream are raw payload.
    Data { shard: usize, len: usize },
    /// The shard's campaign report.
    Report { shard: usize, report: CampaignReport },
    /// Worker counter snapshot, `name=value` pairs.
    Metrics { shard: usize, counters: Vec<(String, u64)> },
    /// End of stream with the payload checksum.
    End { shard: usize, checksum: u64 },
}

impl Frame {
    /// Serializes the frame to its line form.
    pub fn to_line(&self) -> String {
        match self {
            Frame::Hello { shard, attempt } => format!("F|HELLO|{shard}|{attempt}"),
            Frame::Heartbeat { shard, done } => format!("F|HB|{shard}|{done}"),
            Frame::Data { shard, len } => format!("F|DATA|{shard}|{len}"),
            Frame::Report { shard, report } => {
                format!("F|REPORT|{shard}|{}", report.to_line())
            }
            Frame::Metrics { shard, counters } => {
                let kv: Vec<String> =
                    counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
                format!("F|METRICS|{shard}|{}", kv.join(","))
            }
            Frame::End { shard, checksum } => format!("F|END|{shard}|{checksum:016x}"),
        }
    }

    /// Parses a frame line. `Ok(None)` means the line is not a frame at
    /// all (foreign noise); `Err` means it claimed to be a frame (`F|`
    /// prefix) but is malformed — stream corruption.
    pub fn parse(line: &str) -> Result<Option<Frame>, String> {
        let Some(rest) = line.strip_prefix("F|") else { return Ok(None) };
        let mut it = rest.splitn(3, '|');
        let tag = it.next().unwrap_or_default();
        let shard: usize = it
            .next()
            .ok_or_else(|| format!("frame missing shard: '{line}'"))?
            .parse()
            .map_err(|_| format!("bad frame shard: '{line}'"))?;
        let body = it.next();
        fn need<'a>(b: Option<&'a str>, line: &str) -> Result<&'a str, String> {
            b.ok_or_else(|| format!("frame missing body: '{line}'"))
        }
        match tag {
            "HELLO" => {
                let attempt = need(body, line)?
                    .parse()
                    .map_err(|_| format!("bad HELLO attempt: '{line}'"))?;
                Ok(Some(Frame::Hello { shard, attempt }))
            }
            "HB" => {
                let done = need(body, line)?
                    .parse()
                    .map_err(|_| format!("bad HB progress: '{line}'"))?;
                Ok(Some(Frame::Heartbeat { shard, done }))
            }
            "DATA" => {
                let len = need(body, line)?
                    .parse()
                    .map_err(|_| format!("bad DATA length: '{line}'"))?;
                Ok(Some(Frame::Data { shard, len }))
            }
            "REPORT" => {
                let report = CampaignReport::from_line(need(body, line)?)?;
                Ok(Some(Frame::Report { shard, report }))
            }
            "METRICS" => {
                let mut counters = Vec::new();
                for kv in need(body, line)?.split(',').filter(|s| !s.is_empty()) {
                    let (k, v) = kv
                        .split_once('=')
                        .ok_or_else(|| format!("bad METRICS entry '{kv}'"))?;
                    let v =
                        v.parse().map_err(|_| format!("bad METRICS value '{kv}'"))?;
                    counters.push((k.to_string(), v));
                }
                Ok(Some(Frame::Metrics { shard, counters }))
            }
            "END" => {
                let checksum = u64::from_str_radix(need(body, line)?, 16)
                    .map_err(|_| format!("bad END checksum: '{line}'"))?;
                Ok(Some(Frame::End { shard, checksum }))
            }
            _ => Err(format!("unknown frame tag '{tag}' in '{line}'")),
        }
    }
}

// ---------------------------------------------------------------------------
// Fault plane
// ---------------------------------------------------------------------------

/// What the fault plane does to one worker attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerFault {
    /// Run cleanly.
    None,
    /// Measure only the first `after_units` work units (checkpointing
    /// them), then die without emitting results — the effect of a kill
    /// signal landing after unit `after_units`.
    Kill {
        /// Work units completed (and checkpointed) before death.
        after_units: usize,
    },
    /// Say hello, then go silent forever; only the coordinator's
    /// heartbeat timeout can reap this worker.
    Stall,
    /// Complete the work but corrupt the END checksum in flight.
    CorruptFrame,
    /// Exit nonzero immediately after hello, doing no work.
    ExitNonzero,
}

/// One surgical fault from `S2S_FABRIC_FAULT_PLAN`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanEntry {
    /// Shard the fault targets.
    pub shard: usize,
    /// Attempt (1-based) the fault fires on.
    pub attempt: u32,
    /// The fault itself.
    pub fault: WorkerFault,
}

/// Seeded fault rates for worker attempts, plus an explicit plan that
/// overrides the rates for targeted (shard, attempt) pairs. Decisions are
/// content-keyed on (seed, shard, attempt) — independent of timing, host,
/// or how many workers run concurrently — and the attempt number is in
/// the key, so a faulted attempt's retry can come up clean.
#[derive(Clone, Debug, PartialEq)]
pub struct FabricFaultProfile {
    /// Seed for every fabric fault decision.
    pub seed: u64,
    /// Per-attempt kill probability.
    pub kill_rate: f64,
    /// Per-attempt stall probability.
    pub stall_rate: f64,
    /// Per-attempt corrupt-frame probability.
    pub corrupt_rate: f64,
    /// Per-attempt exit-nonzero probability.
    pub exit_rate: f64,
    /// Surgical faults that override the rates.
    pub plan: Vec<PlanEntry>,
}

impl Default for FabricFaultProfile {
    fn default() -> Self {
        FabricFaultProfile {
            seed: 0xFAB,
            kill_rate: 0.0,
            stall_rate: 0.0,
            corrupt_rate: 0.0,
            exit_rate: 0.0,
            plan: Vec::new(),
        }
    }
}

impl FabricFaultProfile {
    /// The default profile with the plan read from the
    /// `S2S_FABRIC_FAULT_PLAN` knob; a malformed plan warns and is
    /// ignored. The seeded rates have no knob.
    pub fn from_env() -> FabricFaultProfile {
        let plan = match s2s_types::env::var_raw("S2S_FABRIC_FAULT_PLAN") {
            None => Vec::new(),
            Some(raw) => match Self::parse_plan(&raw) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("warning: S2S_FABRIC_FAULT_PLAN ignored: {e}");
                    Vec::new()
                }
            },
        };
        FabricFaultProfile { plan, ..FabricFaultProfile::default() }
    }

    /// Parses a fault plan: `;`-separated entries of the form
    /// `kill@<shard>.<attempt>=<units>`, `stall@<shard>.<attempt>`,
    /// `corrupt@<shard>.<attempt>`, or `exit@<shard>.<attempt>`.
    pub fn parse_plan(s: &str) -> Result<Vec<PlanEntry>, String> {
        let mut out = Vec::new();
        for entry in s.split(';').map(str::trim).filter(|e| !e.is_empty()) {
            let (fate, rest) = entry
                .split_once('@')
                .ok_or_else(|| format!("plan entry '{entry}' missing '@'"))?;
            let (target, arg) = match rest.split_once('=') {
                Some((t, a)) => (t, Some(a)),
                None => (rest, None),
            };
            let (shard, attempt) = target
                .split_once('.')
                .ok_or_else(|| format!("plan target '{target}' not shard.attempt"))?;
            let shard: usize =
                shard.parse().map_err(|_| format!("bad plan shard '{shard}'"))?;
            let attempt: u32 =
                attempt.parse().map_err(|_| format!("bad plan attempt '{attempt}'"))?;
            let fault = match (fate, arg) {
                ("kill", Some(k)) => WorkerFault::Kill {
                    after_units: k
                        .parse()
                        .map_err(|_| format!("bad kill units '{k}'"))?,
                },
                ("kill", None) => WorkerFault::Kill { after_units: 0 },
                ("stall", None) => WorkerFault::Stall,
                ("corrupt", None) => WorkerFault::CorruptFrame,
                ("exit", None) => WorkerFault::ExitNonzero,
                _ => return Err(format!("bad plan entry '{entry}'")),
            };
            out.push(PlanEntry { shard, attempt, fault });
        }
        Ok(out)
    }

    /// True when no fault can ever fire.
    pub fn is_quiet(&self) -> bool {
        self.plan.is_empty()
            && self.kill_rate == 0.0
            && self.stall_rate == 0.0
            && self.corrupt_rate == 0.0
            && self.exit_rate == 0.0
    }

    /// The fate of one worker attempt over `planned_units` work units.
    /// Plan entries win; otherwise one uniform draw is partitioned across
    /// the fates so at most one fires per attempt.
    pub fn decide(&self, shard: usize, attempt: u32, planned_units: usize) -> WorkerFault {
        if let Some(e) =
            self.plan.iter().find(|e| e.shard == shard && e.attempt == attempt)
        {
            return e.fault;
        }
        let total = self.kill_rate + self.stall_rate + self.corrupt_rate + self.exit_rate;
        if total <= 0.0 {
            return WorkerFault::None;
        }
        let h = key(self.seed, &[SALT_FABRIC_FATE, shard as u64, u64::from(attempt)]);
        let u = uniform(h);
        if u < self.kill_rate {
            let at = key(
                self.seed,
                &[SALT_FABRIC_KILL_AT, shard as u64, u64::from(attempt)],
            );
            WorkerFault::Kill { after_units: (mix(at) % planned_units.max(1) as u64) as usize }
        } else if u < self.kill_rate + self.stall_rate {
            WorkerFault::Stall
        } else if u < self.kill_rate + self.stall_rate + self.corrupt_rate {
            WorkerFault::CorruptFrame
        } else if u < total {
            WorkerFault::ExitNonzero
        } else {
            WorkerFault::None
        }
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// What the coordinator assigned this worker process, read back from the
/// `S2S_FABRIC_{SHARD,SHARDS,ATTEMPT}` variables it set at spawn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerAssignment {
    /// This worker's shard index.
    pub shard: usize,
    /// Total shard count (for [`shard_range`]).
    pub shards: usize,
    /// Attempt number, 1-based.
    pub attempt: u32,
}

impl WorkerAssignment {
    /// Reads the assignment from the environment; errors name the missing
    /// or malformed variable.
    pub fn from_env() -> Result<WorkerAssignment, String> {
        fn get<T: std::str::FromStr>(name: &str) -> Result<T, String> {
            std::env::var(name)
                .map_err(|_| format!("{name} not set (worker mode needs a coordinator)"))?
                .parse()
                .map_err(|_| format!("{name} is not a valid number"))
        }
        Ok(WorkerAssignment {
            shard: get(ENV_SHARD)?,
            shards: get(ENV_SHARDS)?,
            attempt: get(ENV_ATTEMPT)?,
        })
    }
}

/// Everything one shard attempt produced, ready to frame.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardPayload {
    /// The opaque payload (the shard's snapshot bytes).
    pub bytes: Vec<u8>,
    /// The shard's campaign report.
    pub report: CampaignReport,
    /// Worker counter snapshot to aggregate coordinator-side.
    pub counters: Vec<(String, u64)>,
}

/// The largest `DATA` frame the coordinator accepts, in bytes (1 MiB).
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// The longest protocol line the coordinator reads, in bytes (64 KiB).
pub const MAX_LINE_BYTES: usize = 64 << 10;

/// Writes a complete result stream for one shard: `DATA` frames of at most
/// [`MAX_FRAME_BYTES`], then `REPORT`, `METRICS`, and `END`. `corrupt_end`
/// flips the checksum (the [`WorkerFault::CorruptFrame`] fate) so the
/// coordinator must detect and discard the attempt.
pub fn emit_shard<W: Write>(
    w: &mut W,
    shard: usize,
    payload: &ShardPayload,
    corrupt_end: bool,
) -> io::Result<()> {
    for frame in payload.bytes.chunks(MAX_FRAME_BYTES) {
        writeln!(w, "{}", Frame::Data { shard, len: frame.len() }.to_line())?;
        w.write_all(frame)?;
    }
    writeln!(
        w,
        "{}",
        Frame::Report { shard, report: payload.report.clone() }.to_line()
    )?;
    if !payload.counters.is_empty() {
        writeln!(
            w,
            "{}",
            Frame::Metrics { shard, counters: payload.counters.clone() }.to_line()
        )?;
    }
    let mut checksum = fnv64_bytes(FNV64_OFFSET, &payload.bytes);
    if corrupt_end {
        checksum ^= 0xDEAD;
    }
    writeln!(w, "{}", Frame::End { shard, checksum }.to_line())?;
    w.flush()
}

/// A background thread printing `F|HB` frames to stdout at a fixed
/// interval while the worker computes (each `println!` takes the global
/// stdout lock; stop it before [`emit_shard`], whose `DATA` frames it
/// would shear). Stops on drop or [`HeartbeatHandle::stop`], at once: the
/// thread waits out each interval on a channel that stopping closes, not
/// in a sleep.
pub struct HeartbeatHandle {
    stop: Option<mpsc::Sender<()>>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl HeartbeatHandle {
    /// Starts the heartbeat thread for `shard`.
    pub fn start(shard: usize, interval: Duration) -> HeartbeatHandle {
        let (stop, wake) = mpsc::channel::<()>();
        let join = std::thread::spawn(move || {
            let mut beats = 0u64;
            while let Err(mpsc::RecvTimeoutError::Timeout) = wake.recv_timeout(interval) {
                beats += 1;
                println!("{}", Frame::Heartbeat { shard, done: beats }.to_line());
                let _ = io::stdout().flush();
            }
        });
        HeartbeatHandle { stop: Some(stop), join: Some(join) }
    }

    /// Stops the thread and waits for it.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        drop(self.stop.take());
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for HeartbeatHandle {
    fn drop(&mut self) {
        self.halt();
    }
}

// ---------------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------------

/// An event from a launched worker's stream, or its exit.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkerEvent {
    /// One protocol frame other than `DATA`.
    Frame(Frame),
    /// One `DATA` frame's payload bytes.
    Data(Vec<u8>),
    /// The stream broke the protocol; nothing after it is read.
    Damaged(String),
    /// The worker exited with this status code (`None`: killed by
    /// signal). Always the channel's final event.
    Exit(Option<i32>),
}

/// Reads a worker's stream, handing each event to `emit` until the end,
/// a false return, or [`WorkerEvent::Damaged`]: longer lines and frames
/// than the caps are refused unread, and buffers grow as bytes arrive.
pub fn read_events<R: BufRead>(
    mut input: R,
    mut emit: impl FnMut(WorkerEvent) -> bool,
) -> io::Result<()> {
    use crate::dataset::{read_capped_line, CappedLine};
    let mut line = Vec::new();
    while let Some(read) = read_capped_line(&mut input, &mut line, MAX_LINE_BYTES)? {
        let frame = match read {
            CappedLine::TooLong => Err(format!("protocol line over {MAX_LINE_BYTES} bytes")),
            CappedLine::Line => std::str::from_utf8(&line)
                .map_err(|e| format!("protocol line: {e}"))
                .and_then(Frame::parse),
        };
        let event = match frame {
            Ok(Some(Frame::Data { len, .. })) if len <= MAX_FRAME_BYTES => {
                let mut bytes = Vec::new();
                io::Read::read_to_end(&mut io::Read::take(&mut input, len as u64), &mut bytes)?;
                match bytes.len() {
                    got if got < len => WorkerEvent::Damaged(format!("DATA frame torn at {got}")),
                    _ => WorkerEvent::Data(bytes),
                }
            }
            Ok(Some(Frame::Data { len, .. })) => {
                WorkerEvent::Damaged(format!("DATA frame of {len} bytes over the cap"))
            }
            Ok(Some(frame)) => WorkerEvent::Frame(frame),
            Ok(None) => WorkerEvent::Damaged("non-frame line".into()),
            Err(e) => WorkerEvent::Damaged(e),
        };
        let damaged = matches!(event, WorkerEvent::Damaged(_));
        if !emit(event) || damaged {
            break;
        }
    }
    Ok(())
}

/// A running worker as the coordinator sees it: an ordered event stream
/// and a kill switch.
pub struct LaunchedWorker {
    /// Ordered events; `Exit` is always last.
    pub events: mpsc::Receiver<WorkerEvent>,
    /// Best-effort immediate termination (used on heartbeat timeout).
    pub kill: Box<dyn FnMut() + Send>,
}

/// How worker processes come to life. The process launcher is the real
/// one; tests script launchers in-process to exercise the coordinator
/// without subprocess cost.
pub trait WorkerLauncher {
    /// Launches a worker for (shard, attempt).
    fn launch(&self, shard: usize, attempt: u32) -> io::Result<LaunchedWorker>;
}

/// Events a worker's reader thread queues ahead of the coordinator. The
/// queue is bounded, so a worker that writes faster than the coordinator
/// drains blocks on its stdout instead of filling the coordinator's
/// memory: what an attempt holds is its accepted payload, at most
/// [`FabricConfig::max_payload_bytes`], plus this many frames in flight.
const EVENT_QUEUE: usize = 2;

/// Launches real subprocesses: `program args…` with the fabric assignment
/// in the environment and stdout read back through [`read_events`]. A
/// worker whose attempt the coordinator ends early is killed and its
/// stdout still drained to EOF, so it never blocks on a full pipe.
pub struct ProcessLauncher {
    /// Worker executable.
    pub program: std::path::PathBuf,
    /// Arguments passed to every worker.
    pub args: Vec<String>,
    /// Extra environment (mode, checkpoint dir, shard count, fault knobs
    /// for tests); the assignment variables are appended per launch.
    pub envs: Vec<(String, String)>,
}

impl WorkerLauncher for ProcessLauncher {
    fn launch(&self, shard: usize, attempt: u32) -> io::Result<LaunchedWorker> {
        let mut cmd = std::process::Command::new(&self.program);
        cmd.args(&self.args)
            .envs(self.envs.iter().map(|(k, v)| (k.as_str(), v.as_str())))
            .env(ENV_SHARD, shard.to_string())
            .env(ENV_ATTEMPT, attempt.to_string())
            .stdout(std::process::Stdio::piped())
            .stdin(std::process::Stdio::null());
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let child = Arc::new(Mutex::new(child));
        let (tx, rx) = mpsc::sync_channel(EVENT_QUEUE);
        let reaper = Arc::clone(&child);
        std::thread::spawn(move || {
            let mut reader = io::BufReader::new(stdout);
            let _ = read_events(&mut reader, |event| tx.send(event).is_ok());
            // Drain what follows damage, so the worker never blocks.
            let _ = io::copy(&mut reader, &mut io::sink());
            let status = reaper.lock().expect("child lock").wait();
            let code = status.ok().and_then(|s| s.code());
            let _ = tx.send(WorkerEvent::Exit(code));
        });
        let killer = Arc::clone(&child);
        Ok(LaunchedWorker {
            events: rx,
            kill: Box::new(move || {
                let _ = killer.lock().expect("child lock").kill();
            }),
        })
    }
}

/// How often a worker prints an `F|HB` frame while it computes.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(100);

/// Coordinator policy.
#[derive(Clone, Debug, PartialEq)]
pub struct FabricConfig {
    /// Worker processes in flight at once, ≥ 1.
    pub workers: usize,
    /// Attempts per shard (first try + retries), ≥ 1.
    pub max_attempts: u32,
    /// Reap a worker after this long without any stdout event.
    pub heartbeat_timeout: Duration,
    /// First retry backoff, ms; doubles per attempt with seeded jitter.
    pub backoff_base_ms: f64,
    /// Ceiling on any single backoff sleep, ms.
    pub backoff_cap_ms: f64,
    /// Seed for backoff jitter.
    pub seed: u64,
    /// Ceiling on one attempt's total `DATA` bytes: an attempt that sends
    /// more is refused as an incomplete stream and its worker killed. Not
    /// a knob: [`with_shard_slots`](FabricConfig::with_shard_slots)
    /// derives it from the campaign slots of the largest shard; the
    /// default, for a coordinator that does not know them, is
    /// [`DEFAULT_MAX_PAYLOAD_BYTES`].
    pub max_payload_bytes: u64,
}

/// The snapshot bytes one campaign slot may account for in a shard's
/// payload. A traceroute of the largest TTL (255 hops), every hop address
/// and the hop sequence new to the shard, encodes in ~7.6 KiB (per hop a
/// 17-byte IPv6 address, a 4-byte hop id and an 8-byte RTT); a ping
/// slot's share of its pair's sink state is far less.
pub const MAX_SLOT_PAYLOAD_BYTES: u64 = 8 << 10;

/// [`FabricConfig::max_payload_bytes`] when the shard size is unknown
/// (1 GiB).
pub const DEFAULT_MAX_PAYLOAD_BYTES: u64 = 1 << 30;

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            workers: 1,
            max_attempts: 3,
            heartbeat_timeout: Duration::from_millis(2_000),
            backoff_base_ms: 10.0,
            backoff_cap_ms: 1_000.0,
            seed: 0xFAB,
            max_payload_bytes: DEFAULT_MAX_PAYLOAD_BYTES,
        }
    }
}

impl FabricConfig {
    /// This config with [`max_payload_bytes`](FabricConfig::max_payload_bytes)
    /// derived for shards of at most `slots` campaign slots:
    /// [`MAX_SLOT_PAYLOAD_BYTES`] per slot plus one frame for the
    /// snapshot's framing and sink lines.
    pub fn with_shard_slots(mut self, slots: usize) -> FabricConfig {
        self.max_payload_bytes =
            (slots as u64).saturating_mul(MAX_SLOT_PAYLOAD_BYTES) + MAX_FRAME_BYTES as u64;
        self
    }

    /// The backoff before retrying `shard` after `failed_attempt`:
    /// exponential in the attempt with a seeded jitter factor in
    /// [0.5, 1.5), capped. Seeded, so reruns back off identically.
    pub fn backoff_ms(&self, shard: usize, failed_attempt: u32) -> f64 {
        let raw = self.backoff_base_ms
            * f64::from(1u32 << (failed_attempt - 1).min(16));
        let h = key(
            self.seed,
            &[SALT_FABRIC_BACKOFF, shard as u64, u64::from(failed_attempt)],
        );
        (raw * (0.5 + uniform(h))).min(self.backoff_cap_ms)
    }
}

/// Why one worker attempt was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttemptFailure {
    /// No stdout event within the heartbeat timeout; worker was killed.
    Timeout,
    /// Worker exited nonzero (or on a signal).
    NonzeroExit,
    /// END checksum did not match the received payload.
    ChecksumMismatch,
    /// Stream ended without HELLO/REPORT/END, was damaged, or sent more
    /// than [`FabricConfig::max_payload_bytes`].
    IncompleteStream,
}

/// What one shard contributed to the merge.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardResult {
    /// Shard index.
    pub shard: usize,
    /// Attempts launched for this shard.
    pub attempts: u32,
    /// The accepted attempt's `DATA` frame payloads (empty when lost).
    pub lines: Vec<Vec<u8>>,
    /// Report from the accepted attempt.
    pub report: Option<CampaignReport>,
    /// Worker counter snapshot from the accepted attempt.
    pub counters: Vec<(String, u64)>,
    /// True when the retry budget ran out with no accepted attempt.
    pub lost: bool,
}

impl ShardResult {
    /// The accepted payload: every frame's bytes, in order, as one stream.
    pub fn payload(&self) -> impl io::Read + '_ {
        let empty: Box<dyn io::Read + '_> = Box::new(io::empty());
        self.lines.iter().fold(empty, |r, frame| Box::new(io::Read::chain(r, &frame[..])))
    }
}

/// What the fabric did, for the observability plane and the bench.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FabricStats {
    /// Shards coordinated.
    pub shards: usize,
    /// Worker processes launched (first tries + retries).
    pub launches: usize,
    /// Retry launches (launches beyond each shard's first).
    pub retries: usize,
    /// Shards that succeeded after at least one failed attempt.
    pub recoveries: usize,
    /// Shards abandoned after the retry budget.
    pub lost: usize,
    /// Attempts reaped by the heartbeat timeout.
    pub timeouts: usize,
    /// Attempts rejected for a checksum mismatch.
    pub corrupt_frames: usize,
    /// Attempts that exited nonzero.
    pub nonzero_exits: usize,
    /// Attempts whose stream ended incomplete.
    pub incomplete_streams: usize,
    /// Total backoff slept, ms.
    pub backoff_ms: f64,
    /// Total failure-to-recovery latency across recovered shards, ms.
    pub recovery_ms: f64,
    /// Time merging accepted shards, ms.
    pub merge_ms: f64,
}

impl FabricStats {
    /// Publishes `fabric.*` counters (always present, even at zero, so
    /// dashboards and the CI gates can rely on the keys) plus the
    /// aggregated `worker.*` counters from accepted attempts.
    pub fn publish(&self, reg: &s2s_obs::Registry, shards: &[ShardResult]) {
        for (name, v) in [
            ("fabric.shards", self.shards),
            ("fabric.launches", self.launches),
            ("fabric.retries", self.retries),
            ("fabric.recoveries", self.recoveries),
            ("fabric.lost", self.lost),
            ("fabric.timeouts", self.timeouts),
            ("fabric.corrupt_frames", self.corrupt_frames),
            ("fabric.nonzero_exits", self.nonzero_exits),
            ("fabric.incomplete_streams", self.incomplete_streams),
        ] {
            reg.counter(name).add(v as u64);
        }
        let payload: usize = shards.iter().flat_map(|s| &s.lines).map(Vec::len).sum();
        reg.counter("fabric.payload_bytes").add(payload as u64);
        reg.gauge("fabric.backoff_ms").set(self.backoff_ms as u64);
        reg.gauge("fabric.recovery_ms").set(self.recovery_ms as u64);
        reg.gauge("fabric.merge_ms").set(self.merge_ms as u64);
        for s in shards {
            for (name, v) in &s.counters {
                reg.counter(&format!("worker.{name}")).add(*v);
            }
        }
        if self.lost > 0 {
            reg.event(
                "fabric.shard_lost",
                format!("{} shard(s) lost after the retry budget", self.lost),
            );
        }
        if self.recoveries > 0 {
            reg.event(
                "fabric.recovered",
                format!(
                    "{} shard(s) recovered after worker failure ({} retries)",
                    self.recoveries, self.retries
                ),
            );
        }
    }
}

/// The coordinator's output: per-shard results in shard order, plus
/// stats. The caller merges the payloads in shard order (a total order),
/// reading each through [`ShardResult::payload`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FabricOutcome {
    /// One entry per shard, ordered by shard index.
    pub shards: Vec<ShardResult>,
    /// Fabric accounting.
    pub stats: FabricStats,
}

impl FabricOutcome {
    /// The merged campaign report across accepted shards.
    pub fn merged_report(&self) -> CampaignReport {
        let mut out = CampaignReport::default();
        for s in &self.shards {
            if let Some(r) = &s.report {
                out.merge(r);
            }
        }
        out
    }

    /// Shards that were lost (retry budget exhausted).
    pub fn lost_shards(&self) -> Vec<usize> {
        self.shards.iter().filter(|s| s.lost).map(|s| s.shard).collect()
    }
}

/// One worker attempt's accumulating protocol state.
struct AttemptState {
    hello: bool,
    /// The accepted `DATA` frames, at most `ceiling` bytes in all; none
    /// once the stream has passed it.
    payload: Vec<Vec<u8>>,
    /// Every `DATA` byte the stream sent, accepted or not.
    payload_bytes: u64,
    ceiling: u64,
    report: Option<CampaignReport>,
    counters: Vec<(String, u64)>,
    end_checksum: Option<u64>,
    protocol_errors: usize,
    exit: Option<Option<i32>>,
    /// Reaped by the heartbeat timeout; overrides every other verdict.
    timed_out: bool,
}

impl AttemptState {
    /// A fresh attempt whose payload may reach `ceiling` bytes.
    fn new(ceiling: u64) -> AttemptState {
        AttemptState {
            hello: false,
            payload: Vec::new(),
            payload_bytes: 0,
            ceiling,
            report: None,
            counters: Vec::new(),
            end_checksum: None,
            protocol_errors: 0,
            exit: None,
            timed_out: false,
        }
    }

    fn feed(&mut self, event: WorkerEvent) {
        match event {
            WorkerEvent::Frame(Frame::Hello { .. }) => self.hello = true,
            WorkerEvent::Frame(Frame::Heartbeat { .. }) => {}
            WorkerEvent::Frame(Frame::Report { report, .. }) => self.report = Some(report),
            WorkerEvent::Frame(Frame::Metrics { counters, .. }) => {
                self.counters.extend(counters);
            }
            WorkerEvent::Frame(Frame::End { checksum, .. }) => self.end_checksum = Some(checksum),
            WorkerEvent::Data(bytes) => {
                self.payload_bytes = self.payload_bytes.saturating_add(bytes.len() as u64);
                if self.over_ceiling() {
                    self.payload = Vec::new();
                } else {
                    self.payload.push(bytes);
                }
            }
            WorkerEvent::Exit(code) => self.exit = Some(code),
            // Damage, or a bare DATA line (`read_events` sends none).
            WorkerEvent::Damaged(_) | WorkerEvent::Frame(Frame::Data { .. }) => {
                self.protocol_errors += 1
            }
        }
    }

    /// Whether the stream sent more `DATA` bytes than the ceiling: the
    /// attempt is refused, whatever else it sends.
    fn over_ceiling(&self) -> bool {
        self.payload_bytes > self.ceiling
    }

    /// Judges a finished stream (exit already received).
    fn verdict(&self) -> Result<(), AttemptFailure> {
        if self.timed_out {
            return Err(AttemptFailure::Timeout);
        }
        if self.over_ceiling() {
            return Err(AttemptFailure::IncompleteStream);
        }
        match self.exit {
            Some(Some(0)) => {}
            Some(_) => return Err(AttemptFailure::NonzeroExit),
            None => return Err(AttemptFailure::IncompleteStream),
        }
        if !self.hello || self.report.is_none() || self.protocol_errors > 0 {
            return Err(AttemptFailure::IncompleteStream);
        }
        let checksum = self.payload.iter().fold(FNV64_OFFSET, |h, f| fnv64_bytes(h, f));
        match self.end_checksum {
            None => Err(AttemptFailure::IncompleteStream),
            Some(c) if c != checksum => Err(AttemptFailure::ChecksumMismatch),
            Some(_) => Ok(()),
        }
    }
}

/// One in-flight worker the coordinator is watching.
struct InFlight {
    shard: usize,
    attempt: u32,
    worker: LaunchedWorker,
    state: AttemptState,
    last_event: Instant,
    /// When this shard first failed (carried across retries, for
    /// recovery-latency accounting).
    first_failure: Option<Instant>,
}

/// A shard waiting to launch (possibly a retry waiting out its backoff).
struct QueuedShard {
    shard: usize,
    attempt: u32,
    ready_at: Instant,
    first_failure: Option<Instant>,
}

/// The coordinator: owns the shard queue, watches in-flight workers,
/// retries failures with seeded backoff, and assembles the outcome.
pub struct Coordinator<L: WorkerLauncher> {
    cfg: FabricConfig,
    launcher: L,
}

impl<L: WorkerLauncher> Coordinator<L> {
    /// Builds a coordinator.
    pub fn new(cfg: FabricConfig, launcher: L) -> Coordinator<L> {
        Coordinator { cfg, launcher }
    }

    /// Runs `n_shards` shards to completion (accepted or lost) and
    /// returns per-shard results in shard order.
    pub fn run(&self, n_shards: usize) -> io::Result<FabricOutcome> {
        let mut stats = FabricStats { shards: n_shards, ..FabricStats::default() };
        let mut queue: VecDeque<QueuedShard> = (0..n_shards)
            .map(|shard| QueuedShard {
                shard,
                attempt: 1,
                ready_at: Instant::now(),
                first_failure: None,
            })
            .collect();
        let mut in_flight: Vec<InFlight> = Vec::new();
        let mut results: Vec<Option<ShardResult>> = (0..n_shards).map(|_| None).collect();

        while results.iter().any(Option::is_none) {
            // Launch up to the worker cap from the ready part of the queue.
            let now = Instant::now();
            while in_flight.len() < self.cfg.workers.max(1) {
                let Some(pos) = queue.iter().position(|q| q.ready_at <= now) else {
                    break;
                };
                let q = queue.remove(pos).expect("position just found");
                let worker = self.launcher.launch(q.shard, q.attempt)?;
                stats.launches += 1;
                if q.attempt > 1 {
                    stats.retries += 1;
                }
                in_flight.push(InFlight {
                    shard: q.shard,
                    attempt: q.attempt,
                    worker,
                    state: AttemptState::new(self.cfg.max_payload_bytes),
                    last_event: Instant::now(),
                    first_failure: q.first_failure,
                });
            }

            // Drain events from every in-flight worker.
            let mut progressed = false;
            let mut finished: Vec<usize> = Vec::new();
            for (i, f) in in_flight.iter_mut().enumerate() {
                loop {
                    match f.worker.events.try_recv() {
                        Ok(event) => {
                            let exit = matches!(event, WorkerEvent::Exit(_));
                            f.state.feed(event);
                            f.last_event = Instant::now();
                            progressed = true;
                            let refused = f.state.over_ceiling();
                            if refused {
                                // Refused mid-stream: its worker is killed,
                                // and its launcher drains what it wrote.
                                (f.worker.kill)();
                            }
                            if exit || refused {
                                finished.push(i);
                                break;
                            }
                        }
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            // Channel died without an Exit event: treat as
                            // an incomplete stream.
                            if f.state.exit.is_none() {
                                f.state.exit = Some(None);
                            }
                            finished.push(i);
                            break;
                        }
                    }
                }
            }

            // Reap workers that went silent past the heartbeat timeout.
            for (i, f) in in_flight.iter_mut().enumerate() {
                if finished.contains(&i) {
                    continue;
                }
                if f.last_event.elapsed() > self.cfg.heartbeat_timeout {
                    (f.worker.kill)();
                    f.state.timed_out = true;
                    finished.push(i);
                    progressed = true;
                }
            }

            // Resolve finished attempts (highest index first so removal
            // doesn't shift pending ones).
            finished.sort_unstable();
            finished.dedup();
            for &i in finished.iter().rev() {
                let f = in_flight.remove(i);
                match f.state.verdict() {
                    Ok(()) => {
                        if f.attempt > 1 {
                            stats.recoveries += 1;
                            if let Some(t0) = f.first_failure {
                                stats.recovery_ms += t0.elapsed().as_secs_f64() * 1e3;
                            }
                        }
                        results[f.shard] = Some(ShardResult {
                            shard: f.shard,
                            attempts: f.attempt,
                            lines: f.state.payload,
                            report: f.state.report,
                            counters: f.state.counters,
                            lost: false,
                        });
                    }
                    Err(kind) => {
                        match kind {
                            AttemptFailure::Timeout => stats.timeouts += 1,
                            AttemptFailure::NonzeroExit => stats.nonzero_exits += 1,
                            AttemptFailure::ChecksumMismatch => stats.corrupt_frames += 1,
                            AttemptFailure::IncompleteStream => {
                                stats.incomplete_streams += 1
                            }
                        }
                        let first_failure = f.first_failure.or_else(|| Some(Instant::now()));
                        if f.attempt >= self.cfg.max_attempts.max(1) {
                            stats.lost += 1;
                            results[f.shard] = Some(ShardResult {
                                shard: f.shard,
                                attempts: f.attempt,
                                lines: Vec::new(),
                                report: None,
                                counters: Vec::new(),
                                lost: true,
                            });
                        } else {
                            let backoff = self.cfg.backoff_ms(f.shard, f.attempt);
                            stats.backoff_ms += backoff;
                            queue.push_back(QueuedShard {
                                shard: f.shard,
                                attempt: f.attempt + 1,
                                ready_at: Instant::now()
                                    + Duration::from_micros((backoff * 1e3) as u64),
                                first_failure,
                            });
                        }
                    }
                }
            }

            if !progressed && results.iter().any(Option::is_none) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }

        let t_merge = Instant::now();
        let shards: Vec<ShardResult> =
            results.into_iter().map(|r| r.expect("all shards resolved")).collect();
        stats.merge_ms = t_merge.elapsed().as_secs_f64() * 1e3;
        Ok(FabricOutcome { shards, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// `n` bytes of shard `shard`'s payload.
    fn payload_bytes(shard: usize, n: usize) -> Vec<u8> {
        (0..n).map(|i| (shard * 31 + i) as u8).collect()
    }

    fn payload(shard: usize, n: usize) -> ShardPayload {
        ShardPayload {
            bytes: payload_bytes(shard, n),
            report: CampaignReport {
                offered: n,
                attempted: n,
                delivered: n,
                ..CampaignReport::default()
            },
            counters: vec![("campaign.offered".into(), n as u64)],
        }
    }

    /// A launcher that plays scripted worker behaviors in-process; the
    /// frames it emits reach the coordinator through [`read_events`].
    struct Scripted {
        faults: FabricFaultProfile,
        bytes_per_shard: usize,
    }

    /// Sends `stream` through [`read_events`], as the process launcher does.
    fn send_stream(tx: &mpsc::Sender<WorkerEvent>, stream: &[u8]) {
        read_events(stream, |e| tx.send(e).is_ok()).unwrap();
    }

    impl WorkerLauncher for Scripted {
        fn launch(&self, shard: usize, attempt: u32) -> io::Result<LaunchedWorker> {
            let (tx, rx) = mpsc::channel();
            let fault = self.faults.decide(shard, attempt, self.bytes_per_shard);
            let n = self.bytes_per_shard;
            let killed = Arc::new(AtomicBool::new(false));
            let kflag = Arc::clone(&killed);
            std::thread::spawn(move || {
                let send_frames = |tx: &mpsc::Sender<WorkerEvent>, corrupt: bool| {
                    let mut buf = Vec::new();
                    let p = payload(shard, n);
                    emit_shard(&mut buf, shard, &p, corrupt).unwrap();
                    send_stream(tx, &buf);
                };
                let hello = Frame::Hello { shard, attempt }.to_line();
                send_stream(&tx, format!("{hello}\n").as_bytes());
                match fault {
                    WorkerFault::None => {
                        send_frames(&tx, false);
                        let _ = tx.send(WorkerEvent::Exit(Some(0)));
                    }
                    WorkerFault::CorruptFrame => {
                        send_frames(&tx, true);
                        let _ = tx.send(WorkerEvent::Exit(Some(0)));
                    }
                    WorkerFault::ExitNonzero => {
                        let _ = tx.send(WorkerEvent::Exit(Some(3)));
                    }
                    WorkerFault::Kill { .. } => {
                        let _ = tx.send(WorkerEvent::Exit(None));
                    }
                    WorkerFault::Stall => {
                        // Stay silent until killed, then report exit.
                        while !kflag.load(Ordering::Relaxed) {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        let _ = tx.send(WorkerEvent::Exit(None));
                    }
                }
            });
            Ok(LaunchedWorker {
                events: rx,
                kill: Box::new(move || killed.store(true, Ordering::Relaxed)),
            })
        }
    }

    fn fast_cfg(workers: usize) -> FabricConfig {
        FabricConfig {
            workers,
            max_attempts: 3,
            heartbeat_timeout: Duration::from_millis(60),
            backoff_base_ms: 1.0,
            backoff_cap_ms: 5.0,
            seed: 7,
            max_payload_bytes: DEFAULT_MAX_PAYLOAD_BYTES,
        }
    }

    fn run_scripted(
        workers: usize,
        shards: usize,
        faults: FabricFaultProfile,
    ) -> FabricOutcome {
        let launcher = Scripted { faults, bytes_per_shard: 5 };
        Coordinator::new(fast_cfg(workers), launcher).run(shards).unwrap()
    }

    #[test]
    fn frame_codec_round_trips() {
        let frames = vec![
            Frame::Hello { shard: 3, attempt: 2 },
            Frame::Heartbeat { shard: 3, done: 17 },
            Frame::Data { shard: 3, len: 4 },
            Frame::Report { shard: 3, report: CampaignReport::default() },
            Frame::Metrics {
                shard: 3,
                counters: vec![("campaign.offered".to_string(), 9)],
            },
            Frame::End { shard: 3, checksum: 0xDEADBEEF },
        ];
        for f in frames {
            let line = f.to_line();
            assert_eq!(Frame::parse(&line).unwrap(), Some(f), "line {line}");
        }
        assert_eq!(Frame::parse("T|0|1|not-a-frame").unwrap(), None);
        assert!(Frame::parse("F|BOGUS|1|x").is_err());
        assert!(Frame::parse("F|DATA|1|abc").is_err());
    }

    #[test]
    fn shard_ranges_partition_exactly() {
        for n_items in [0usize, 1, 7, 16, 100] {
            for n_shards in [1usize, 2, 3, 4, 7] {
                let mut covered = 0;
                for s in 0..n_shards {
                    let r = shard_range(n_items, n_shards, s);
                    assert_eq!(r.start, covered, "shards must be contiguous");
                    covered = r.end;
                }
                assert_eq!(covered, n_items, "shards must cover everything");
            }
        }
    }

    #[test]
    fn quiet_fabric_merges_in_shard_order() {
        let out = run_scripted(2, 4, FabricFaultProfile::default());
        assert_eq!(out.stats.lost, 0);
        assert_eq!(out.stats.retries, 0);
        assert_eq!(out.stats.launches, 4);
        // Shard order regardless of completion order.
        for (s, shard) in out.shards.iter().enumerate() {
            assert_eq!(shard.shard, s);
            let mut got = Vec::new();
            io::Read::read_to_end(&mut shard.payload(), &mut got).unwrap();
            assert_eq!(got, payload_bytes(s, 5));
        }
        assert_eq!(merged_len(&out), 20);
        assert_eq!(out.merged_report().delivered, 20);
    }

    fn merged_len(out: &FabricOutcome) -> usize {
        out.shards.iter().flat_map(|s| &s.lines).map(Vec::len).sum()
    }

    /// A payload over one frame travels as several `DATA` frames that read
    /// back as the one stream, checksum and all.
    #[test]
    fn payload_spans_frames_and_reads_back_whole() {
        let bytes: Vec<u8> = (0..MAX_FRAME_BYTES * 2 + 77).map(|i| (i % 251) as u8).collect();
        let p = ShardPayload { bytes: bytes.clone(), ..ShardPayload::default() };
        let mut stream = Vec::new();
        emit_shard(&mut stream, 0, &p, false).unwrap();
        let mut state = AttemptState::new(DEFAULT_MAX_PAYLOAD_BYTES);
        state.feed(WorkerEvent::Frame(Frame::Hello { shard: 0, attempt: 1 }));
        read_events(&stream[..], |e| {
            state.feed(e);
            true
        })
        .unwrap();
        state.feed(WorkerEvent::Exit(Some(0)));
        assert_eq!(state.verdict(), Ok(()));
        let frame_lens: Vec<usize> = state.payload.iter().map(Vec::len).collect();
        assert_eq!(frame_lens, [MAX_FRAME_BYTES, MAX_FRAME_BYTES, 77]);
        let result = ShardResult { lines: state.payload, ..ShardResult::default() };
        let mut got = Vec::new();
        io::Read::read_to_end(&mut result.payload(), &mut got).unwrap();
        assert!(got == bytes);
    }

    /// Hostile streams are refused: a 4 MiB line with no newline, a frame
    /// declaring 2^40 bytes, a frame cut short, and a stray non-frame line
    /// each end the stream as damage, and the attempt fails as an
    /// incomplete stream and is retried. (The memory bound is pinned with
    /// a counting allocator in `tests/tests/fabric_reader_bounds.rs`.)
    #[test]
    fn hostile_streams_are_refused_with_bounded_memory() {
        let hello = b"F|HELLO|0|1\n".to_vec();
        let endless = std::iter::repeat_n(b'x', 4 << 20);
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("4 MiB line", hello.iter().copied().chain(endless).collect()),
            ("2^40-byte frame", [&hello[..], b"F|DATA|0|1099511627776\nxyz"].concat()),
            ("torn frame", [&hello[..], b"F|DATA|0|1048576\nonly this"].concat()),
            ("stray line", [&hello[..], b"T|0|1|not a frame\n"].concat()),
        ];
        for (what, stream) in cases {
            let mut events = Vec::new();
            read_events(&stream[..], |e| {
                events.push(e);
                true
            })
            .unwrap();
            assert_eq!(events[0], WorkerEvent::Frame(Frame::Hello { shard: 0, attempt: 1 }));
            assert!(
                matches!(events.last(), Some(WorkerEvent::Damaged(_))),
                "{what}: {:?}",
                events.last()
            );
            assert_eq!(events.len(), 2, "{what}: nothing is read past damage");
            let mut state = AttemptState::new(DEFAULT_MAX_PAYLOAD_BYTES);
            events.into_iter().for_each(|e| state.feed(e));
            state.feed(WorkerEvent::Frame(Frame::Report {
                shard: 0,
                report: CampaignReport::default(),
            }));
            state.feed(WorkerEvent::Frame(Frame::End { shard: 0, checksum: FNV64_OFFSET }));
            state.feed(WorkerEvent::Exit(Some(0)));
            assert_eq!(state.verdict(), Err(AttemptFailure::IncompleteStream), "{what}");
        }

        // Through the coordinator: the damaged first attempt fails as an
        // incomplete stream and the retry delivers.
        struct Hostile;
        impl WorkerLauncher for Hostile {
            fn launch(&self, shard: usize, attempt: u32) -> io::Result<LaunchedWorker> {
                let (tx, rx) = mpsc::channel();
                let mut stream = format!("{}\n", Frame::Hello { shard, attempt }.to_line());
                if attempt == 1 {
                    stream += &format!("F|DATA|{shard}|{}\n", MAX_FRAME_BYTES + 1);
                } else {
                    let mut buf = Vec::new();
                    emit_shard(&mut buf, shard, &payload(shard, 5), false).unwrap();
                    stream += std::str::from_utf8(&buf).unwrap();
                }
                send_stream(&tx, stream.as_bytes());
                let _ = tx.send(WorkerEvent::Exit(Some(0)));
                Ok(LaunchedWorker { events: rx, kill: Box::new(|| {}) })
            }
        }
        let out = Coordinator::new(fast_cfg(1), Hostile).run(2).unwrap();
        assert_eq!(out.stats.incomplete_streams, 2);
        assert_eq!(out.stats.recoveries, 2);
        assert_eq!(out.stats.lost, 0);
        assert_eq!(merged_len(&out), 10);
    }

    /// Stopping a heartbeat wakes its thread at once instead of waiting
    /// out the interval's sleep.
    #[test]
    fn heartbeat_stop_does_not_wait_out_the_interval() {
        let hb = HeartbeatHandle::start(0, Duration::from_secs(60));
        let t = Instant::now();
        hb.stop();
        assert!(t.elapsed() < Duration::from_secs(1), "stop took {:?}", t.elapsed());
        let hb = HeartbeatHandle::start(0, Duration::from_secs(60));
        let t = Instant::now();
        drop(hb);
        assert!(t.elapsed() < Duration::from_secs(1), "drop took {:?}", t.elapsed());
    }

    /// A payload that passes the ceiling is refused, whatever follows it,
    /// and the attempt keeps none of its frames.
    #[test]
    fn payload_past_the_ceiling_is_refused() {
        let mut stream = Vec::new();
        let p = ShardPayload { bytes: vec![1; 100], ..ShardPayload::default() };
        emit_shard(&mut stream, 0, &p, false).unwrap();
        for (ceiling, verdict) in [(100, Ok(())), (99, Err(AttemptFailure::IncompleteStream))] {
            let mut state = AttemptState::new(ceiling);
            state.feed(WorkerEvent::Frame(Frame::Hello { shard: 0, attempt: 1 }));
            read_events(&stream[..], |e| {
                state.feed(e);
                true
            })
            .unwrap();
            state.feed(WorkerEvent::Exit(Some(0)));
            assert_eq!(state.verdict(), verdict, "ceiling {ceiling}");
            assert_eq!(state.payload.is_empty(), verdict.is_err(), "ceiling {ceiling}");
        }
        let cfg = FabricConfig::default().with_shard_slots(10);
        assert_eq!(cfg.max_payload_bytes, 10 * MAX_SLOT_PAYLOAD_BYTES + MAX_FRAME_BYTES as u64);
    }

    #[test]
    fn exit_nonzero_is_retried_and_recovered() {
        let faults = FabricFaultProfile {
            plan: FabricFaultProfile::parse_plan("exit@1.1").unwrap(),
            ..FabricFaultProfile::default()
        };
        let out = run_scripted(2, 3, faults);
        assert_eq!(out.stats.lost, 0);
        assert_eq!(out.stats.retries, 1);
        assert_eq!(out.stats.recoveries, 1);
        assert_eq!(out.stats.nonzero_exits, 1);
        assert_eq!(out.shards[1].attempts, 2);
        assert_eq!(merged_len(&out), 15);
        assert!(out.stats.recovery_ms >= 0.0);
    }

    #[test]
    fn corrupt_frame_is_detected_by_checksum() {
        let faults = FabricFaultProfile {
            plan: FabricFaultProfile::parse_plan("corrupt@0.1").unwrap(),
            ..FabricFaultProfile::default()
        };
        let out = run_scripted(1, 2, faults);
        assert_eq!(out.stats.corrupt_frames, 1);
        assert_eq!(out.stats.lost, 0);
        assert_eq!(merged_len(&out), 10, "retry must replace corrupt data");
    }

    #[test]
    fn stalled_worker_is_reaped_by_timeout() {
        let faults = FabricFaultProfile {
            plan: FabricFaultProfile::parse_plan("stall@0.1").unwrap(),
            ..FabricFaultProfile::default()
        };
        let out = run_scripted(2, 2, faults);
        assert_eq!(out.stats.timeouts, 1);
        assert_eq!(out.stats.lost, 0);
        assert_eq!(out.shards[0].attempts, 2);
        assert_eq!(merged_len(&out), 10);
    }

    #[test]
    fn shard_is_lost_after_retry_budget() {
        let faults = FabricFaultProfile {
            plan: FabricFaultProfile::parse_plan("exit@0.1;exit@0.2;exit@0.3").unwrap(),
            ..FabricFaultProfile::default()
        };
        let out = run_scripted(1, 2, faults);
        assert_eq!(out.stats.lost, 1);
        assert_eq!(out.lost_shards(), vec![0]);
        assert!(out.shards[0].lost);
        assert_eq!(out.shards[0].attempts, 3);
        // The healthy shard still delivers.
        assert_eq!(merged_len(&out), 5);
        assert_eq!(out.merged_report().delivered, 5);
    }

    #[test]
    fn plan_parsing_and_decide_are_deterministic() {
        let plan =
            FabricFaultProfile::parse_plan("kill@0.1=2; stall@1.2 ;corrupt@2.1;exit@3.1")
                .unwrap();
        assert_eq!(plan.len(), 4);
        assert_eq!(plan[0].fault, WorkerFault::Kill { after_units: 2 });
        assert_eq!(plan[1], PlanEntry { shard: 1, attempt: 2, fault: WorkerFault::Stall });
        assert!(FabricFaultProfile::parse_plan("oops@1").is_err());
        assert!(FabricFaultProfile::parse_plan("kill@x.1").is_err());

        let p = FabricFaultProfile {
            seed: 42,
            kill_rate: 0.25,
            stall_rate: 0.25,
            corrupt_rate: 0.25,
            exit_rate: 0.25,
            plan,
        };
        // Plan overrides rates; off-plan attempts decide from rates,
        // identically every time.
        assert_eq!(p.decide(0, 1, 10), WorkerFault::Kill { after_units: 2 });
        for shard in 0..20 {
            for attempt in 3..5 {
                assert_eq!(
                    p.decide(shard, attempt, 10),
                    p.decide(shard, attempt, 10)
                );
            }
        }
        // A total rate of 1.0 always picks some fault.
        assert_ne!(p.decide(9, 9, 10), WorkerFault::None);
        let quiet = FabricFaultProfile::default();
        assert!(quiet.is_quiet());
        assert_eq!(quiet.decide(0, 1, 10), WorkerFault::None);
    }

    #[test]
    fn seeded_backoff_is_bounded_and_reproducible() {
        let cfg = fast_cfg(1);
        for shard in 0..8 {
            for attempt in 1..6 {
                let b = cfg.backoff_ms(shard, attempt);
                assert!(b >= 0.0 && b <= cfg.backoff_cap_ms);
                assert_eq!(b, cfg.backoff_ms(shard, attempt));
            }
        }
    }

    #[test]
    fn stats_publish_covers_required_counters() {
        let out = run_scripted(2, 3, FabricFaultProfile::default());
        let reg = s2s_obs::Registry::new();
        out.stats.publish(&reg, &out.shards);
        let snap = reg.snapshot();
        for k in
            ["fabric.shards", "fabric.retries", "fabric.recoveries", "fabric.lost"]
        {
            assert!(snap.counters.contains_key(k), "missing {k}");
        }
        assert_eq!(snap.counters["fabric.shards"], 3);
        assert_eq!(snap.counters["fabric.payload_bytes"], 15);
        // Worker counters aggregate under the worker. prefix.
        assert_eq!(snap.counters["worker.campaign.offered"], 15);
    }

    #[test]
    fn fnv_checksum_pins_line_structure() {
        let a = fnv64_lines(&["ab", "c"]);
        let b = fnv64_lines(&["a", "bc"]);
        assert_ne!(a, b, "line boundaries must affect the checksum");
        assert_eq!(fnv64_lines::<&str>(&[]), 0xcbf29ce484222325);
    }
}
