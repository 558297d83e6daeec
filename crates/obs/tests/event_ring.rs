//! Regression coverage for the forensic event ring's hot-path
//! contract: after construction ("warm-up"), logging **never blocks
//! and never allocates**, stays capacity-bounded, and counts every
//! overwritten event as dropped — even under concurrent writers.
//!
//! The no-allocation property is enforced with a counting global
//! allocator: every heap allocation bumps a counter of the allocating
//! thread, and each test asserts its own thread's count is unchanged
//! across the logging it does. The counter is per thread so that
//! other tests of this binary, running in parallel, cannot bump it.
//! "Never blocks" is structural (the ring is atomics-only — there is
//! no lock to block on), witnessed here by concurrent writers making
//! progress to an exact total.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

use medsec_obs::{Event, EventKind, EventLog, ALL_EVENT_KINDS};

/// System allocator wrapper that counts allocations per thread.
struct CountingAlloc;

thread_local! {
    // `const` and drop-free, so touching it from the allocator never
    // allocates or registers a destructor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// Test-binary-only instrumentation; the obs library itself is
// `#![deny(unsafe_code)]`.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn logging_never_allocates_after_warmup() {
    // Warm-up: construct the ring (this is where all allocation is
    // allowed to happen).
    let log = EventLog::new(256);
    let before = allocs();

    for i in 0..10_000u32 {
        let kind = ALL_EVENT_KINDS[(i as usize) % ALL_EVENT_KINDS.len()];
        log.log(Event::new(kind, (i % 5) as u8, i, u64::from(i) * 3));
    }

    let after = allocs();
    assert_eq!(after - before, 0, "EventLog::log allocated on the hot path");
    assert_eq!(log.logged(), 10_000);
    assert_eq!(log.dropped(), 10_000 - 256);
}

#[test]
fn concurrent_writers_never_lose_or_tear_events() {
    const WRITERS: usize = 8;
    const PER_WRITER: u64 = 5_000;
    let log = EventLog::new(1024);

    thread::scope(|s| {
        for w in 0..WRITERS {
            let log = &log;
            s.spawn(move || {
                for i in 0..PER_WRITER {
                    log.log(Event::new(
                        EventKind::SessionClose,
                        w as u8,
                        i as u32,
                        // Writer-tagged detail so a torn slot would be
                        // detectable as an inconsistent pair below.
                        ((w as u64) << 32) | i,
                    ));
                }
            });
        }
    });

    let total = WRITERS as u64 * PER_WRITER;
    assert_eq!(log.logged(), total, "a concurrent log call was lost");
    assert_eq!(log.dropped(), total - 1024);

    let snap = log.snapshot();
    assert_eq!(snap.logged, total);
    assert_eq!(snap.count(EventKind::SessionClose), total);
    // Capacity-bounded: at most `capacity` survivors, each internally
    // consistent (device word must match the low half of the detail
    // word it was written with — a torn slot would mismatch).
    assert!(snap.events.len() <= 1024);
    assert!(!snap.events.is_empty());
    let mut prev_seq = None;
    for e in &snap.events {
        assert_eq!(e.kind, EventKind::SessionClose);
        assert_eq!(u64::from(e.device), e.detail & 0xffff_ffff, "torn slot");
        assert_eq!(u64::from(e.lane), e.detail >> 32, "torn slot");
        if let Some(p) = prev_seq {
            assert!(e.seq > p, "snapshot out of order");
        }
        prev_seq = Some(e.seq);
    }
}

#[test]
fn concurrent_writers_do_not_allocate() {
    let log = EventLog::new(64);
    // Spawning threads allocates; measure only inside the workers, on
    // each worker's own counter, and fold the deltas together after
    // each worker finishes its loop.
    let inner_allocs = AtomicU64::new(0);
    thread::scope(|s| {
        for w in 0..4u8 {
            let log = &log;
            let inner = &inner_allocs;
            s.spawn(move || {
                let before = allocs();
                for i in 0..2_000u32 {
                    log.log(Event::new(EventKind::AuthFailure, w, i, 0));
                }
                let after = allocs();
                inner.fetch_add(after - before, Ordering::SeqCst);
            });
        }
    });
    // With all writers doing only `log()`, nobody allocates, so every
    // per-worker delta is zero.
    assert_eq!(
        inner_allocs.load(Ordering::SeqCst),
        0,
        "EventLog::log allocated under concurrency"
    );
    assert_eq!(log.logged(), 4 * 2_000);
}
