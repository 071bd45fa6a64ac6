//! The fabric coordinator's stream reader never sizes an allocation from
//! worker output: a protocol line without a newline, a `DATA` frame that
//! declares 2^40 bytes, and a frame cut short each end the stream as
//! damage while the bytes the reader allocates stay under one line cap
//! plus one small read buffer. Measured with a counting global allocator,
//! so this file holds a single test (no other thread allocates).

use s2s_probe::fabric::{read_events, WorkerEvent, MAX_FRAME_BYTES, MAX_LINE_BYTES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

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
