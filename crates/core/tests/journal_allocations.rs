//! Replaying a journal allocates nothing per record, and nothing sized by
//! the header.
//!
//! A counting global allocator counts the allocations, and sums the bytes,
//! that the measuring thread makes (the test harness's own threads
//! allocate freely).  Every journal is recorded, and every decoded journal
//! built, before counting starts, so what is counted is the replay's own:
//! the fold's slot table growing, the one divergence report it keeps and
//! the keys it re-reads at that report's two candidate slots.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mvee_core::divergence::{DivergenceKind, DivergenceReport};
use mvee_core::journal::{
    self, ClassKind, Journal, JournalHeader, JournalRecorder, JOURNAL_VERSION,
};
use mvee_kernel::syscall::{SyscallOutcome, SyscallRequest, Sysno};

struct CountingAllocator;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(size: usize) {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + size as u64));
    }
}

// SAFETY: every call forwards to `System` with the caller's own arguments;
// the counting touches only const-initialised thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations, and bytes allocated, by the current thread while running
/// `f`.
fn allocations_in(f: impl FnOnce()) -> (u64, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    BYTES.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get))
}

fn header(variants: u16) -> JournalHeader {
    JournalHeader {
        version: JOURNAL_VERSION,
        variants,
        threads: 1,
        shards: 1,
        batch: 1,
    }
}

/// A three-variant journal of `calls` calls with the shape of a recorded
/// run: per call a sync op, three gateway entries, a classification and
/// three arrivals carrying a path argument, a published outcome with a
/// payload on every fourth call, and variant 2's mismatch on call 8,
/// recorded as the run's divergence.
fn journal(calls: u64) -> Vec<u8> {
    let rec = JournalRecorder::with_header(header(3));
    let staged = 8;
    for seq in 0..calls {
        let key = |len| {
            SyscallRequest::new(Sysno::Open)
                .with_path("/var/www/index.html")
                .with_int(len)
                .comparison_key()
        };
        rec.record_sync_op(0, 0);
        for variant in 0..3 {
            rec.record_enter(variant, 0, 0, false);
        }
        rec.record_class(ClassKind::Lockstep, 0);
        for variant in 0..3 {
            let len = if seq == staged && variant == 2 {
                666
            } else {
                4096
            };
            rec.record_arrival(variant, 0, seq, 0, &key(len));
        }
        if seq == staged {
            rec.record_diverge(&DivergenceReport {
                kind: DivergenceKind::SyscallMismatch {
                    master: Sysno::Open,
                    variant: Sysno::Open,
                },
                thread: 0,
                sequence: seq,
                variant: 2,
            });
        }
        if seq % 4 == 0 {
            let outcome = SyscallOutcome {
                result: Ok(3),
                payload: vec![0x5A; 64],
            };
            rec.record_publish(0, seq, None, &outcome);
        }
    }
    rec.finish()
}

#[test]
fn replay_allocates_nothing_per_record() {
    let (short, long) = (journal(250), journal(1000));
    let (short_journal, long_journal) = (
        Journal::decode(&short).expect("decode"),
        Journal::decode(&long).expect("decode"),
    );
    for (bytes, decoded) in [(&short, &short_journal), (&long, &long_journal)] {
        let run = journal::replay(bytes).expect("the journal replays");
        assert!(run.divergence.is_some(), "the staged mismatch re-derives");
        assert_eq!(journal::replay_journal(decoded), Ok(run));
    }
    let records = (short_journal.records.len(), long_journal.records.len());
    assert!(records.1 >= 4 * records.0 - 8, "{records:?}");

    let streamed = |bytes: &[u8]| {
        allocations_in(|| {
            journal::replay(bytes).expect("replay");
        })
        .0
    };
    let folded = |decoded: &Journal| {
        allocations_in(|| {
            journal::replay_journal(decoded).expect("replay");
        })
        .0
    };
    // Four times the records may cost the slot table two more doublings,
    // and nothing else.
    const GROWTH: u64 = 4;
    for (path, short, long) in [
        ("replay", streamed(&short), streamed(&long)),
        (
            "replay_journal",
            folded(&short_journal),
            folded(&long_journal),
        ),
    ] {
        assert!(
            long <= short + GROWTH,
            "{path}: {short} allocations over {} records, {long} over {}",
            records.0,
            records.1
        );
    }
}

/// A header declaring `u16::MAX` variants once made replay reserve a
/// comparison-key slot per declared variant at every new rendezvous slot:
/// 40 arrivals at distinct slots, 2.6 KB of journal, asked for 125 MB.
#[test]
fn replay_memory_is_not_sized_by_the_header() {
    let rec = JournalRecorder::with_header(header(u16::MAX));
    let key = SyscallRequest::new(Sysno::Brk).with_int(0).comparison_key();
    const ARRIVALS: u64 = 64;
    for i in 0..ARRIVALS {
        // Variants below and above 64, each at its own slot.
        let variant = (i as usize * 1031) % (u16::MAX as usize);
        rec.record_arrival(variant, 0, i, 0, &key);
    }
    let bytes = rec.finish();
    let decoded = Journal::decode(&bytes).expect("decode");

    let mut run = None;
    let (_, streamed) = allocations_in(|| run = Some(journal::replay(&bytes)));
    let run = run.unwrap().expect("the journal replays");
    assert_eq!((run.arrivals, run.slots), (ARRIVALS, ARRIVALS as usize));
    let (_, folded) = allocations_in(|| {
        journal::replay_journal(&decoded).expect("replay");
    });
    const MIB: u64 = 1 << 20;
    assert!(
        streamed < MIB && folded < MIB,
        "{} journal bytes made replay allocate {streamed} bytes, replay_journal {folded}",
        bytes.len()
    );
}
