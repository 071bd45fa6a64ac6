//! `service`: the always-on daemon over the traceroute mesh, with the
//! noisy fault profile, free-running epochs, periodic checkpoints, and an
//! open-loop query stream.
//!
//! A generator thread sends `pair`/`diurnal`/`changes`/`advice`/`stats`
//! queries over mesh pairs at [`QUERY_RATE`](crate::QUERY_RATE), whatever
//! the daemon is doing; each is timed from its *due* time to its answer
//! line, so a query that waits behind an epoch, a checkpoint or a late
//! generator counts that wait. Once a `stats` answer shows the schedule
//! complete the generator stops and closes the stream, and the daemon
//! shuts down (final checkpoint, digest).
//!
//! A query's latency is booked in unstolen wall time: the wall latency
//! scaled by the pass's unstolen share (see the `procfs` module), so it
//! keeps waits on the disk and on locks and leaves out what the
//! hypervisor stole. The raw wall latency is kept as a diagnostic.
//!
//! An untraced pass runs `service::serve`. A traced pass calls
//! `Service::{new, advance, checkpoint, answer}` in `serve`'s order with
//! a timer around each call.

use crate::longterm::{memo_hit_ratio, netsim_layers, probe_layers, routing_layers, store_layers};
use crate::metrics::{percentile, ratio, Metrics, Tracer};
use crate::procfs::PassClock;
use crate::{arrival_phase, splitmix, Pass, RunConfig, QUERY_RATE};
use s2s_bench::fabric::{longterm_pairs, store_digest};
use s2s_bench::service::{serve, Service, ServiceConfig};
use s2s_probe::{CampaignConfig, FaultProfile, RetryPolicy};
use s2s_types::{ClusterId, ExitCode};
use std::collections::VecDeque;
use std::io::{self, BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Checkpoint cadence, epochs (two simulated days).
pub const SNAP_EVERY: usize = 16;

/// A generator still running this long after its pass started gives up,
/// so a daemon that never reports completion cannot hang the run.
const GENERATOR_LIMIT: Duration = Duration::from_secs(150);

/// The noisy measurement plane of the service tests.
pub fn noisy() -> FaultProfile {
    FaultProfile {
        crash_rate: 0.02,
        drop_rate: 0.1,
        stuck_rate: 0.04,
        truncate_rate: 0.05,
        ..FaultProfile::default()
    }
}

/// The daemon's configuration: free-running epochs, a checkpoint every
/// [`SNAP_EVERY`] epochs, no query budget.
pub fn config(snapshot_path: Option<PathBuf>) -> ServiceConfig {
    ServiceConfig {
        cadence_ms: 0,
        snap_every: SNAP_EVERY,
        query_budget: usize::MAX,
        snapshot_path,
        profile: noisy(),
        retry: RetryPolicy::default(),
    }
}

/// Runs one pass.
pub fn pass(cfg: &RunConfig, traced: bool) -> Result<Pass, String> {
    let scenario = cfg.world.scenario();
    let snap = cfg.work_dir.join("service.snap");
    // `serve` resumes from an existing checkpoint; every pass starts fresh.
    let _ = std::fs::remove_file(&snap);
    let n_epochs = CampaignConfig::long_term(scenario.scale.days).n_samples();
    let pairs = longterm_pairs(&scenario);
    let records = (n_epochs * pairs.len() * 2) as u64;
    let done = Arc::new(AtomicBool::new(false));
    let gen = Generator {
        seed: cfg.seed,
        pairs,
        done: Arc::clone(&done),
    };
    let mut answers = Answers::new(n_epochs, Arc::clone(&done));

    let mut pass = Pass {
        records,
        ..Pass::default()
    };
    if traced {
        traced_pass(&scenario, &snap, gen, &mut answers, &mut pass)?;
    } else {
        let pending = Arc::new(Mutex::new(VecDeque::new()));
        let (tx, rx) = channel::<String>();
        let reader = LineReader {
            rx,
            buf: Vec::new(),
            pos: 0,
        };
        let mut out = AnswerClock {
            answers: &mut answers,
            pending: Arc::clone(&pending),
            line: Vec::new(),
        };
        let clock = PassClock::start();
        let start = Instant::now();
        let (outcome, late) = std::thread::scope(|s| {
            let generator = s.spawn(move || {
                gen.run(start, |due, line| {
                    pending.lock().expect("pending lock").push_back(due);
                    tx.send(line).is_ok()
                })
            });
            let outcome = serve(
                &scenario,
                config(Some(snap.clone())),
                None,
                reader,
                &mut out,
            );
            pass.time = clock.stop();
            done.store(true, Ordering::SeqCst);
            (
                outcome,
                generator.join().expect("generator thread panicked"),
            )
        });
        let outcome = outcome.map_err(|e| format!("serve: {e}"))?;
        if outcome.exit != ExitCode::Ok || outcome.epochs_run != n_epochs {
            return Err(format!(
                "serve exited {:?} after {} of {n_epochs} epochs",
                outcome.exit, outcome.epochs_run
            ));
        }
        pass.observed.service_digest = outcome.digest;
        pass.diagnostics
            .push("service.generator_late_ms_max", "ms", late);
    }
    // The clock has stopped: the final checkpoint must reopen to the
    // digest the daemon printed, and it says which slots came back empty.
    let reopened = s2s_probe::snapshot::open_file(&snap)
        .map_err(|e| format!("reopen final checkpoint: {e}"))?;
    if store_digest(&reopened.store) != pass.observed.service_digest {
        return Err("final checkpoint does not reopen to the served digest".into());
    }
    if reopened.store.len() as u64 != records {
        return Err(format!(
            "final checkpoint holds {} of {records} records",
            reopened.store.len()
        ));
    }
    pass.failed_slots = reopened
        .store
        .iter()
        .filter(|v| v.e2e_rtt_ms().is_none())
        .count() as u64;
    pass.diagnostics.push(
        "query.wall_p50_ms",
        "ms",
        percentile(&answers.wall_ms, 50.0),
    );
    pass.diagnostics.push(
        "query.wall_p99_ms",
        "ms",
        percentile(&answers.wall_ms, 99.0),
    );
    let unstolen = pass.time.unstolen_s / pass.time.wall_s;
    pass.query_ms = answers.wall_ms.iter().map(|ms| ms * unstolen).collect();
    pass.query_errors = answers.errors;
    Ok(pass)
}

/// The traced pass: `serve`'s loop, with the service calls timed.
fn traced_pass(
    scenario: &s2s_bench::Scenario,
    snap: &Path,
    gen: Generator,
    answers: &mut Answers,
    pass: &mut Pass,
) -> Result<(), String> {
    let tr = Tracer::install(&scenario.net);
    let scfg = config(Some(snap.to_path_buf()));
    let (tx, rx) = channel::<(Instant, String)>();
    let clock = PassClock::start();
    let start = Instant::now();
    let mut advance_ms = Vec::new();
    let mut checkpoint_ms = Vec::new();
    let mut checkpoint_bytes = 0u64;
    let (svc_state, late) = std::thread::scope(|s| {
        let generator = s.spawn(move || gen.run(start, |due, line| tx.send((due, line)).is_ok()));
        let mut run = || -> io::Result<_> {
            let mut svc = Service::new(scenario, scfg.clone());
            let n = svc.n_epochs();
            while svc.next_epoch() < n {
                while let Ok((due, line)) = rx.try_recv() {
                    answers.answer_timed(&mut svc, due, &line);
                }
                let t = Instant::now();
                svc.advance();
                advance_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if svc.next_epoch() % scfg.snap_every == 0 && svc.next_epoch() < n {
                    let t = Instant::now();
                    checkpoint_bytes = svc.checkpoint(snap)?;
                    checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
            }
            for (due, line) in rx.iter() {
                answers.answer_timed(&mut svc, due, &line);
            }
            let t = Instant::now();
            checkpoint_bytes = svc.checkpoint(snap)?;
            checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let digest = svc.digest();
            Ok((
                digest,
                svc.report().clone(),
                svc.profiles()
                    .iter()
                    .map(|p| p.memory_bytes())
                    .sum::<usize>(),
                svc.profiles().len(),
            ))
        };
        let out = run();
        pass.time = clock.stop();
        answers.done.store(true, Ordering::SeqCst);
        (out, generator.join().expect("generator thread panicked"))
    });
    let (digest, report, state_bytes, states) = svc_state.map_err(|e| format!("service: {e}"))?;
    pass.observed.service_digest = digest;

    let wall = pass.time.wall_s;
    let advance_s: f64 = advance_ms.iter().sum::<f64>() * 1e-3;
    let checkpoint_s: f64 = checkpoint_ms.iter().sum::<f64>() * 1e-3;
    let answer_s: f64 = answers.answer_us.iter().sum::<f64>() * 1e-6;
    let update_s = tr.span_s("analysis.update");
    let routing_s = tr.span_s("oracle.route_compute") + tr.span_s("oracle.epoch_config");
    let mut l = Metrics::layers();
    routing_layers(&mut l, &tr, scenario, wall);
    let (probes, lost) = (
        tr.counter("netsim.probes"),
        tr.counter("netsim.probes_lost"),
    );
    netsim_layers(
        &mut l,
        probes,
        lost,
        pass.records,
        advance_s - update_s - routing_s,
        wall,
    );
    probe_layers(&mut l, &report, advance_s - update_s);
    let reopened = s2s_probe::snapshot::open_file(snap).map_err(|e| format!("reopen: {e}"))?;
    store_layers(&mut l, &reopened.store);
    l.set(
        "sink.bytes_per_state",
        ratio(state_bytes as f64, states as f64),
    );
    l.set("core.memo_hit_ratio", memo_hit_ratio(&tr));
    l.set("core.update_share", update_s / wall);
    l.set("service.checkpoint_share", checkpoint_s / wall);
    l.set("service.answer_share", answer_s / wall);
    let wait: f64 = answers.queue_wait_ms.iter().sum();
    l.set(
        "service.queue_wait_share",
        ratio(wait, answers.wall_ms.iter().sum()),
    );
    l.set("service.checkpoint_bytes", checkpoint_bytes as f64);
    l.set(
        "other.self_share",
        (wall - advance_s - checkpoint_s - answer_s) / wall,
    );
    pass.layers = l;

    let d = &mut pass.diagnostics;
    d.push(
        "service.advance_ms_p50",
        "ms",
        percentile(&advance_ms, 50.0),
    );
    d.push(
        "service.advance_ms_p99",
        "ms",
        percentile(&advance_ms, 99.0),
    );
    d.push(
        "service.checkpoint_ms_p50",
        "ms",
        percentile(&checkpoint_ms, 50.0),
    );
    d.push(
        "service.checkpoint_ms_max",
        "ms",
        percentile(&checkpoint_ms, 100.0),
    );
    d.push(
        "service.answer_us_p50",
        "us",
        percentile(&answers.answer_us, 50.0),
    );
    d.push(
        "service.answer_us_p99",
        "us",
        percentile(&answers.answer_us, 99.0),
    );
    d.push(
        "service.queue_wait_ms_p99",
        "ms",
        percentile(&answers.queue_wait_ms, 99.0),
    );
    d.push(
        "core.update_ms_mean",
        "ms",
        ratio(update_s * 1e3, tr.span_count("analysis.update") as f64),
    );
    d.push("service.generator_late_ms_max", "ms", late);
    Ok(())
}

/// The open-loop query generator.
struct Generator {
    seed: u64,
    pairs: Vec<(ClusterId, ClusterId)>,
    done: Arc<AtomicBool>,
}

impl Generator {
    /// Sends query `k` at `start + (phase + k) / QUERY_RATE` until the
    /// daemon reports the schedule complete or `send` fails; returns the
    /// generator's worst lateness, ms.
    fn run(self, start: Instant, mut send: impl FnMut(Instant, String) -> bool) -> f64 {
        let phase = arrival_phase(self.seed);
        let mut late_ms: f64 = 0.0;
        for k in 0u64.. {
            let due = start + Duration::from_secs_f64((phase + k as f64) / QUERY_RATE);
            let now = loop {
                let now = Instant::now();
                if self.done.load(Ordering::SeqCst) || now > start + GENERATOR_LIMIT {
                    return late_ms;
                }
                if now >= due {
                    break now;
                }
                // Wake at least every 20 ms to notice completion.
                std::thread::sleep((due - now).min(Duration::from_millis(20)));
            };
            late_ms = late_ms.max((now - due).as_secs_f64() * 1e3);
            if !send(due, query_line(self.seed, k, &self.pairs)) {
                break;
            }
        }
        late_ms
    }
}

/// Query `k` of the stream seeded by `seed`: the kinds rotate, the pair
/// and protocol are drawn from the mesh.
pub fn query_line(seed: u64, k: u64, pairs: &[(ClusterId, ClusterId)]) -> String {
    let r = splitmix(seed ^ splitmix(k));
    let (s, d) = pairs[(r % pairs.len() as u64) as usize];
    let (s, d) = (s.index(), d.index());
    let proto = if r >> 63 == 0 { "v4" } else { "v6" };
    match k % 5 {
        0 => format!("pair {s} {d} {proto}"),
        1 => format!("diurnal {s} {d} {proto}"),
        2 => format!("changes {s} {d} {proto}"),
        3 => format!("advice {s} {d}"),
        _ => "stats".to_string(),
    }
}

/// What the answers to one pass's queries looked like.
pub struct Answers {
    n_epochs: usize,
    done: Arc<AtomicBool>,
    /// Wall latency, due time to answer line, ms.
    pub wall_ms: Vec<f64>,
    /// Due time to the start of the answer (traced passes), ms.
    pub queue_wait_ms: Vec<f64>,
    /// Time inside `Service::answer` (traced passes), µs.
    pub answer_us: Vec<f64>,
    /// Answers that were `err`.
    pub errors: u64,
}

impl Answers {
    /// Fresh tallies for a schedule of `n_epochs`; `done` is raised when a
    /// `stats` answer shows the schedule complete.
    pub fn new(n_epochs: usize, done: Arc<AtomicBool>) -> Answers {
        Answers {
            n_epochs,
            done,
            wall_ms: Vec::new(),
            queue_wait_ms: Vec::new(),
            answer_us: Vec::new(),
            errors: 0,
        }
    }

    /// Books one answer line, written at `at`, for the query the
    /// fixed-rate schedule made due at `due`: timed from that due time,
    /// not from when the generator got round to sending it.
    pub fn record(&mut self, due: Instant, at: Instant, line: &str) {
        self.wall_ms
            .push(at.saturating_duration_since(due).as_secs_f64() * 1e3);
        if line.starts_with("err") {
            self.errors += 1;
        }
        let epochs = line
            .split_once("\"cmd\":\"stats\",\"epochs\":")
            .and_then(|(_, rest)| rest.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|n| n.parse::<usize>().ok());
        if epochs.is_some_and(|e| e >= self.n_epochs) {
            self.done.store(true, Ordering::SeqCst);
        }
    }

    fn answer_timed(&mut self, svc: &mut Service<'_>, due: Instant, query: &str) {
        let t0 = Instant::now();
        let a = svc.answer(query);
        let t1 = Instant::now();
        self.queue_wait_ms
            .push(t0.saturating_duration_since(due).as_secs_f64() * 1e3);
        self.answer_us.push((t1 - t0).as_secs_f64() * 1e6);
        self.record(due, t1, &a);
    }
}

/// The daemon's stdout: timestamps each `ok`/`err` line as it is written
/// (on the daemon thread) and pairs it with the oldest pending due time
/// (answers come back in query order).
struct AnswerClock<'a> {
    answers: &'a mut Answers,
    pending: Arc<Mutex<VecDeque<Instant>>>,
    line: Vec<u8>,
}

impl Write for AnswerClock<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for &b in buf {
            if b != b'\n' {
                self.line.push(b);
                continue;
            }
            let at = Instant::now();
            let line = String::from_utf8_lossy(&self.line).into_owned();
            self.line.clear();
            if line.starts_with("ok ") || line.starts_with("err ") {
                let due = self.pending.lock().expect("pending lock").pop_front();
                let due = due.ok_or_else(|| io::Error::other("answer with no query"))?;
                self.answers.record(due, at, &line);
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The daemon's stdin: one query line per message; the stream ends when
/// the generator drops its sender.
struct LineReader {
    rx: Receiver<String>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for LineReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let n = {
            let avail = self.fill_buf()?;
            let n = avail.len().min(out.len());
            out[..n].copy_from_slice(&avail[..n]);
            n
        };
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for LineReader {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos >= self.buf.len() {
            match self.rx.recv() {
                Ok(line) => {
                    self.buf = line.into_bytes();
                    self.buf.push(b'\n');
                    self.pos = 0;
                }
                Err(_) => return Ok(&[]),
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_late_answer_is_timed_from_its_due_time() {
        // The generator fell behind: the query was due 40 ms before it was
        // even sent, and the daemon answered 5 ms after the send. The
        // booked latency is the whole 45 ms, not the 5 ms the daemon saw.
        let done = Arc::new(AtomicBool::new(false));
        let mut answers = Answers::new(8, Arc::clone(&done));
        let due = Instant::now();
        let sent = due + Duration::from_millis(40);
        answers.record(
            due,
            sent + Duration::from_millis(5),
            "ok {\"cmd\":\"pair\"}",
        );
        assert!(
            (answers.wall_ms[0] - 45.0).abs() < 1e-6,
            "{:?}",
            answers.wall_ms
        );
        assert_eq!(answers.errors, 0);
        answers.record(
            due,
            due + Duration::from_millis(30),
            "err pair (1, 2, v4) is not in the mesh",
        );
        assert!(
            (answers.wall_ms[1] - 30.0).abs() < 1e-6,
            "{:?}",
            answers.wall_ms
        );
        assert_eq!(answers.errors, 1);
    }

    #[test]
    fn a_stalled_generator_keeps_its_schedule() {
        // The first send stalls for 60 ms (a busy host). The queries after
        // it keep the due times of the fixed-rate schedule instead of
        // starting a new one, so their booked latency includes the stall.
        let done = Arc::new(AtomicBool::new(false));
        let pairs = vec![(ClusterId::new(0), ClusterId::new(1))];
        let gen = Generator {
            seed: 9,
            pairs,
            done: Arc::clone(&done),
        };
        let start = Instant::now();
        let mut sent = Vec::new();
        let late = gen.run(start, |due, line| {
            if sent.is_empty() {
                std::thread::sleep(Duration::from_millis(60));
            }
            sent.push((due, Instant::now(), line));
            sent.len() < 4
        });
        let gap = 1.0 / QUERY_RATE;
        for (k, (due, _, _)) in sent.iter().enumerate() {
            let want = (arrival_phase(9) + k as f64) * gap;
            assert!(
                ((*due - start).as_secs_f64() - want).abs() < 1e-6,
                "query {k}"
            );
        }
        let (due, at, _) = &sent[1];
        assert!(
            (*at - *due) >= Duration::from_millis(40),
            "second query waited out the stall"
        );
        assert!(late >= 40.0, "lateness {late} ms is reported");
        assert_eq!(
            sent[4 - 1].2,
            query_line(9, 3, &[(ClusterId::new(0), ClusterId::new(1))])
        );
    }

    #[test]
    fn completion_is_read_from_a_stats_answer() {
        let done = Arc::new(AtomicBool::new(false));
        let mut answers = Answers::new(8, Arc::clone(&done));
        let now = Instant::now();
        answers.record(
            now,
            now,
            "ok {\"cmd\":\"stats\",\"epochs\":7,\"records\":1}",
        );
        assert!(!done.load(Ordering::SeqCst));
        answers.record(
            now,
            now,
            "ok {\"cmd\":\"stats\",\"epochs\":8,\"records\":1}",
        );
        assert!(done.load(Ordering::SeqCst));
    }

    #[test]
    fn answer_clock_pairs_lines_with_pending_due_times_in_order() {
        let done = Arc::new(AtomicBool::new(false));
        let mut answers = Answers::new(8, done);
        let now = Instant::now();
        let first = now
            .checked_sub(Duration::from_secs(1))
            .expect("uptime > 1 s");
        let pending = Arc::new(Mutex::new(VecDeque::from([first, now])));
        let mut clock = AnswerClock {
            answers: &mut answers,
            pending,
            line: Vec::new(),
        };
        // Written in pieces, with a non-answer line between, as `serve`
        // does.
        write!(clock, "service: 4 slot(s)\nok {{\"cmd\"").unwrap();
        write!(clock, ":\"pair\"}}\nerr bad\n").unwrap();
        assert!(
            writeln!(clock, "ok extra").is_err(),
            "an answer with no query is an error"
        );
        assert_eq!(answers.wall_ms.len(), 2);
        assert!(answers.wall_ms[0] >= answers.wall_ms[1] + 999.0);
        assert_eq!(answers.errors, 1);
    }
}
