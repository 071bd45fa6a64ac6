//! The fabric coordinator never sizes an allocation from worker output.
//! Its stream reader refuses a protocol line without a newline, a `DATA`
//! frame that declares 2^40 bytes, and a frame cut short as damage, while
//! the bytes it allocates stay under one line cap plus one small read
//! buffer. And an attempt that streams frames without end is refused once
//! its payload would pass the ceiling, with the coordinator holding no
//! more than the ceiling plus the frame it judges. Measured with a
//! counting global allocator, so the tests take turns (`MEASURE`) and no
//! other thread allocates while one measures.

use s2s_probe::fabric::{
    read_events, Frame, LaunchedWorker, WorkerEvent, WorkerLauncher, MAX_FRAME_BYTES,
    MAX_LINE_BYTES,
};
use s2s_probe::{Coordinator, FabricConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Held by each test while it measures.
static MEASURE: Mutex<()> = Mutex::new(());

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Reads `stream` and returns its events and the peak of live heap bytes
/// over the read, above what was live before it.
fn read_measured(stream: &[u8]) -> (Vec<WorkerEvent>, usize) {
    let mut events = Vec::with_capacity(8);
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    read_events(stream, |e| {
        events.push(e);
        true
    })
    .expect("in-memory stream");
    (events, PEAK.load(Ordering::Relaxed) - base)
}

#[test]
fn hostile_streams_are_refused_in_bounded_memory() {
    let _turn = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let hello = b"F|HELLO|0|1\n";
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("4 MiB line", [&hello[..], &vec![b'x'; 4 << 20]].concat()),
        ("2^40-byte frame", [&hello[..], b"F|DATA|0|1099511627776\n", &[7; 4096]].concat()),
        (
            "torn frame",
            [&hello[..], format!("F|DATA|0|{MAX_FRAME_BYTES}\n").as_bytes(), &[7; 4096]].concat(),
        ),
    ];
    for (what, stream) in cases {
        let (events, peak) = read_measured(&stream);
        assert_eq!(events.len(), 2, "{what}: {events:?}");
        assert!(
            matches!(events.last(), Some(WorkerEvent::Damaged(_))),
            "{what}: {:?}",
            events.last()
        );
        // The line buffer grows by doubling up to its cap; a torn frame's
        // buffer only as far as its bytes (4 KiB here) go.
        assert!(peak <= 2 * MAX_LINE_BYTES, "{what}: {peak} live bytes at peak");
    }
}

/// A worker that says hello, then streams 1 MiB `DATA` frames until the
/// coordinator hangs up — or, so that a coordinator without a ceiling
/// fails the test instead of hanging it, until 64 MiB have gone, far past
/// the ceiling. The rendezvous channel hands over one frame at a time, as
/// a bounded pipe would. Each launch first joins the workers launched
/// before it (the coordinator has hung up on them by then), so no earlier
/// worker allocates while a later attempt is measured.
#[derive(Clone, Default)]
struct Endless {
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Endless {
    fn join_all(&self) {
        let done: Vec<_> = self.workers.lock().expect("worker list").drain(..).collect();
        for w in done {
            w.join().expect("scripted worker panicked");
        }
    }
}

impl WorkerLauncher for Endless {
    fn launch(&self, shard: usize, attempt: u32) -> io::Result<LaunchedWorker> {
        self.join_all();
        let (tx, rx) = mpsc::sync_channel(0);
        let worker = std::thread::spawn(move || {
            let mut event = WorkerEvent::Frame(Frame::Hello { shard, attempt });
            for _ in 0..64 {
                if tx.send(event).is_err() {
                    return;
                }
                event = WorkerEvent::Data(vec![7; MAX_FRAME_BYTES]);
            }
        });
        self.workers.lock().expect("worker list").push(worker);
        Ok(LaunchedWorker { events: rx, kill: Box::new(|| {}) })
    }
}

#[test]
fn endless_payload_is_refused_at_the_ceiling() {
    let _turn = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let ceiling = 4 * MAX_FRAME_BYTES as u64 + 4096;
    let cfg = FabricConfig {
        workers: 1,
        max_attempts: 2,
        heartbeat_timeout: Duration::from_secs(60),
        backoff_base_ms: 1.0,
        max_payload_bytes: ceiling,
        ..FabricConfig::default()
    };
    let launcher = Endless::default();
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = Coordinator::new(cfg, launcher.clone()).run(1).expect("scripted launcher");
    let peak = PEAK.load(Ordering::Relaxed) - base;
    launcher.join_all();
    assert_eq!(out.stats.incomplete_streams, 2, "{:?}", out.stats);
    assert_eq!(out.stats.lost, 1);
    assert!(out.shards[0].lines.is_empty());
    // The ceiling, the frame being judged, and the one frame the worker
    // holds while it waits to hand it over; 64 KiB for the bookkeeping.
    let bound = ceiling as usize + 2 * MAX_FRAME_BYTES + (64 << 10);
    assert!(peak <= bound, "{peak} live bytes at peak, bound {bound}");
}
