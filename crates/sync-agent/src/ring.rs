//! Fixed-capacity sync buffers (ring buffers of sync-op records).
//!
//! The paper's agents communicate through *sync buffers*: shared-memory ring
//! buffers the MVEE maps into every variant (§4).  The total-order and
//! partial-order agents use a single buffer with one producer cursor shared
//! by all master threads; the wall-of-clocks agent uses one buffer per master
//! thread so that each buffer has a single producer (§4.5).
//!
//! [`RecordRing`] covers both shapes: it is a bounded ring with one *read
//! cursor per slave variant*.  A slot may only be reused once every slave's
//! cursor has moved past it, which is how the master is slowed down
//! (back-pressure) when a slave lags more than one buffer behind.
//!
//! # Hot-path layout
//!
//! Three contention sources are engineered out of the push path:
//!
//! * **Cached minimum reader cursor** — the full-check used to cost an
//!   O(readers) `Acquire` scan of every slave cursor on *every* push.  The
//!   producer side now keeps a cached lower bound of the slowest reader
//!   (LMAX-style gating sequence) and only rescans when the cached value
//!   would block the push; [`rescans`](RecordRing::rescans) counts how often
//!   that happens.
//! * **SPSC fast path** — [`new_spsc`](RecordRing::new_spsc) marks a ring
//!   single-producer (the wall-of-clocks one-ring-per-master-thread shape),
//!   and its push is a plain load + plain store: no compare-exchange at all.
//! * **False-sharing control** — slots are cache-line-aligned
//!   (`#[repr(align(64))]`), and the write cursor, the cached minimum and
//!   every reader cursor live on their own cache line, so a producer
//!   publishing and a slave consuming never dirty each other's lines.
//!
//! The implementation uses only safe atomics; each slot carries a sequence
//! number that is published with `Release` ordering after the record fields
//! are written, and readers check it with `Acquire` before trusting the
//! fields (the usual Lamport/Vyukov bounded-queue publication scheme).
//! Every cursor advance posts the ring's [`EventCount`] so adaptively
//! parked waiters (see [`Waiter`](crate::guards::Waiter)) are woken
//! promptly.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::guards::EventCount;

/// One recorded synchronization operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyncRecord {
    /// Logical index of the master thread that executed the op.
    pub thread: u32,
    /// Address of the synchronization variable *in the master variant*.
    /// Slaves never interpret this as one of their own addresses; they only
    /// compare it against other recorded addresses (partial-order agent) or
    /// ignore it entirely (total-order agent).
    pub addr: u64,
    /// Agent-specific auxiliary value: the logical-clock identifier for the
    /// wall-of-clocks agent, zero otherwise.
    pub clock: u32,
    /// Agent-specific auxiliary value: the logical-clock time for the
    /// wall-of-clocks agent, zero otherwise.
    pub time: u64,
}

impl SyncRecord {
    /// A record carrying only the executing thread and the variable address.
    pub fn simple(thread: u32, addr: u64) -> Self {
        SyncRecord {
            thread,
            addr,
            clock: 0,
            time: 0,
        }
    }

    /// A wall-of-clocks record.
    pub fn with_clock(thread: u32, addr: u64, clock: u32, time: u64) -> Self {
        SyncRecord {
            thread,
            addr,
            clock,
            time,
        }
    }
}

/// A slot of the ring.  `seq == position + 1` marks the record as published
/// for the generation that starts at `position`.  One cache line per slot:
/// a slave polling slot `n`'s sequence must not stall the producer writing
/// slot `n + 1`.
#[derive(Debug)]
#[repr(align(64))]
struct Slot {
    seq: AtomicU64,
    thread: AtomicU64,
    addr: AtomicU64,
    clock: AtomicU64,
    time: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            thread: AtomicU64::new(0),
            addr: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            time: AtomicU64::new(0),
        }
    }
}

/// A cursor on its own cache line, so the producer's write cursor, the
/// cached minimum and each slave's read cursor never false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
struct PaddedCursor(AtomicU64);

/// Outcome of a non-blocking push attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The record was stored at the returned position.
    Stored(u64),
    /// The ring is full: some slave has not yet consumed the slot that would
    /// be overwritten.
    Full,
}

/// A bounded ring with one read cursor per slave variant.
#[derive(Debug)]
pub struct RecordRing {
    slots: Vec<Slot>,
    capacity: u64,
    /// Single-producer mode: push is plain load + store, no CAS.
    spsc: bool,
    write_cursor: PaddedCursor,
    /// Producer-side lower bound on the slowest reader's position.  Only
    /// refreshed (by rescanning every reader cursor) when the cached value
    /// would make the push block — the LMAX "gating sequence" trick that
    /// turns the per-push O(readers) scan into amortized O(1).
    cached_min_reader: PaddedCursor,
    /// How often the cache had to be refreshed from the real cursors.
    rescans: PaddedCursor,
    reader_cursors: Vec<PaddedCursor>,
    /// Parking target for every thread waiting on this ring (producers on
    /// space, consumers on publication or cursor movement); posted on every
    /// cursor advance.
    events: EventCount,
}

impl RecordRing {
    /// Creates a multi-producer ring with `capacity` slots (must be a power
    /// of two) and `readers` independent read cursors.  A ring with zero
    /// readers (a master with no slaves) never fills: nothing is ever unread.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a power of two.
    pub fn new(capacity: usize, readers: usize) -> Self {
        Self::build(capacity, readers, false)
    }

    /// Creates a *single-producer* ring: [`try_push`](Self::try_push) is a
    /// plain load + store with no compare-exchange.  The caller guarantees
    /// at most one thread ever pushes (the wall-of-clocks agent's
    /// one-ring-per-master-thread shape, §4.5).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a power of two.
    pub fn new_spsc(capacity: usize, readers: usize) -> Self {
        Self::build(capacity, readers, true)
    }

    fn build(capacity: usize, readers: usize, spsc: bool) -> Self {
        assert!(
            capacity.is_power_of_two(),
            "capacity must be a power of two"
        );
        RecordRing {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            capacity: capacity as u64,
            spsc,
            write_cursor: PaddedCursor::default(),
            cached_min_reader: PaddedCursor::default(),
            rescans: PaddedCursor::default(),
            reader_cursors: (0..readers).map(|_| PaddedCursor::default()).collect(),
            events: EventCount::new(),
        }
    }

    /// Ring capacity in records.
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// Number of read cursors.
    pub fn readers(&self) -> usize {
        self.reader_cursors.len()
    }

    /// Whether this ring runs the single-producer fast path.
    pub fn is_spsc(&self) -> bool {
        self.spsc
    }

    /// The ring's parking target: posted on every cursor advance, and by
    /// the agents on poison so parked waiters re-check their bail-out
    /// condition.
    pub fn events(&self) -> &EventCount {
        &self.events
    }

    /// How often a push had to refresh the cached minimum reader cursor by
    /// rescanning every reader (the producer-side stall taxonomy).
    pub fn rescans(&self) -> u64 {
        self.rescans.0.load(Ordering::Relaxed)
    }

    /// Position the next pushed record will receive.
    pub fn write_pos(&self) -> u64 {
        self.write_cursor.0.load(Ordering::Acquire)
    }

    /// Current position of reader `reader`.
    pub fn reader_pos(&self, reader: usize) -> u64 {
        self.reader_cursors[reader].0.load(Ordering::Acquire)
    }

    /// The slowest reader's position; slots below it may be reused.  With
    /// no readers at all that is every slot written so far.
    pub fn min_reader_pos(&self) -> u64 {
        self.reader_cursors
            .iter()
            .map(|c| c.0.load(Ordering::Acquire))
            .min()
            .unwrap_or_else(|| self.write_pos())
    }

    /// Whether at least one slot is free for the next push.  Consults the
    /// cached minimum reader first (a lower bound, so its "free" verdict is
    /// exact) and scans the real cursors only when it says "full"; unlike a
    /// push, that scan neither refreshes the cache nor counts as a rescan.
    pub fn has_space(&self) -> bool {
        let pos = self.write_pos();
        pos.wrapping_sub(self.cached_min_reader.0.load(Ordering::Relaxed)) < self.capacity
            || pos.saturating_sub(self.min_reader_pos()) < self.capacity
    }

    /// Whether the slot at `pos` is free, consulting the cached minimum
    /// reader first and rescanning the real cursors only when the cache
    /// would block.  The cache is a lower bound (reader cursors only ever
    /// advance), so a "free" verdict from the cache is always safe.
    #[inline]
    fn free_for(&self, pos: u64) -> bool {
        if pos.wrapping_sub(self.cached_min_reader.0.load(Ordering::Relaxed)) < self.capacity {
            return true;
        }
        let min = self.min_reader_pos();
        self.rescans.0.fetch_add(1, Ordering::Relaxed);
        // `fetch_max` keeps the cache monotone when racing producers
        // publish rescan results out of order.
        self.cached_min_reader.0.fetch_max(min, Ordering::Relaxed);
        // `min` can have passed a racing producer's stale `pos` (always, on
        // a ring without readers); that is "free" — the push's
        // compare-exchange then fails and reloads.
        pos.saturating_sub(min) < self.capacity
    }

    /// Attempts to append `record` without blocking.
    pub fn try_push(&self, record: SyncRecord) -> PushOutcome {
        if self.spsc {
            // Single producer: nobody else moves the write cursor, so a
            // relaxed load and a release store replace the CAS loop.
            let pos = self.write_cursor.0.load(Ordering::Relaxed);
            if !self.free_for(pos) {
                return PushOutcome::Full;
            }
            self.publish(pos, record);
            self.write_cursor.0.store(pos + 1, Ordering::Release);
            self.events.notify();
            return PushOutcome::Stored(pos);
        }
        loop {
            let pos = self.write_cursor.0.load(Ordering::Acquire);
            if !self.free_for(pos) {
                return PushOutcome::Full;
            }
            if self
                .write_cursor
                .0
                .compare_exchange_weak(pos, pos + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.publish(pos, record);
                self.events.notify();
                return PushOutcome::Stored(pos);
            }
        }
    }

    #[inline]
    fn publish(&self, pos: u64, record: SyncRecord) {
        let slot = &self.slots[(pos % self.capacity) as usize];
        slot.thread
            .store(u64::from(record.thread), Ordering::Relaxed);
        slot.addr.store(record.addr, Ordering::Relaxed);
        slot.clock.store(u64::from(record.clock), Ordering::Relaxed);
        slot.time.store(record.time, Ordering::Relaxed);
        slot.seq.store(pos + 1, Ordering::Release);
    }

    /// Reads the record at `pos` if it has been published.
    pub fn get(&self, pos: u64) -> Option<SyncRecord> {
        let slot = &self.slots[(pos % self.capacity) as usize];
        if slot.seq.load(Ordering::Acquire) != pos + 1 {
            return None;
        }
        Some(SyncRecord {
            thread: slot.thread.load(Ordering::Relaxed) as u32,
            addr: slot.addr.load(Ordering::Relaxed),
            clock: slot.clock.load(Ordering::Relaxed) as u32,
            time: slot.time.load(Ordering::Relaxed),
        })
    }

    /// Advances reader `reader` by one position.
    pub fn advance_reader(&self, reader: usize) {
        self.reader_cursors[reader].0.fetch_add(1, Ordering::AcqRel);
        self.events.notify();
    }

    /// Atomically advances reader `reader` from `from` to `from + 1`.
    ///
    /// Returns `false` when another thread advanced the cursor first.  The
    /// partial-order agent uses this when several slave threads race to move
    /// the completion frontier forward.
    pub fn try_advance_reader(&self, reader: usize, from: u64) -> bool {
        let advanced = self.reader_cursors[reader]
            .0
            .compare_exchange(from, from + 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if advanced {
            self.events.notify();
        }
        advanced
    }

    /// Number of records published but not yet consumed by reader `reader`.
    pub fn backlog(&self, reader: usize) -> u64 {
        self.write_pos().saturating_sub(self.reader_pos(reader))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guards::Waiter;
    use std::sync::Arc;

    /// Appends `record`, parked on the ring's event count while it is full.
    fn push_waiting(ring: &RecordRing, record: SyncRecord) {
        while ring.try_push(record) == PushOutcome::Full {
            Waiter::new(16).wait_until_event(ring.events(), || ring.has_space());
        }
    }

    /// The record at `pos`, parked on the ring's event count until it is
    /// published.
    fn get_waiting(ring: &RecordRing, pos: u64) -> SyncRecord {
        Waiter::new(16).wait_until_event(ring.events(), || ring.get(pos).is_some());
        ring.get(pos).expect("published")
    }

    /// Every test body runs against both ring flavours where the scenario
    /// is single-producer-safe.
    fn both_rings(capacity: usize, readers: usize) -> [RecordRing; 2] {
        [
            RecordRing::new(capacity, readers),
            RecordRing::new_spsc(capacity, readers),
        ]
    }

    #[test]
    fn push_and_get_roundtrip() {
        for ring in both_rings(8, 1) {
            let rec = SyncRecord::with_clock(3, 0xdead, 7, 99);
            assert_eq!(ring.try_push(rec), PushOutcome::Stored(0));
            assert_eq!(ring.get(0), Some(rec));
            assert_eq!(ring.get(1), None);
        }
    }

    #[test]
    fn records_are_fifo_per_position() {
        for ring in both_rings(8, 1) {
            for i in 0..8u64 {
                ring.try_push(SyncRecord::simple(i as u32, i * 16));
            }
            for i in 0..8u64 {
                assert_eq!(ring.get(i).unwrap().thread, i as u32);
            }
        }
    }

    #[test]
    fn ring_reports_full_until_readers_advance() {
        for ring in both_rings(4, 2) {
            for i in 0..4 {
                assert!(matches!(
                    ring.try_push(SyncRecord::simple(0, i)),
                    PushOutcome::Stored(_)
                ));
            }
            assert_eq!(ring.try_push(SyncRecord::simple(0, 99)), PushOutcome::Full);
            // One reader advancing is not enough; the slowest reader gates reuse.
            ring.advance_reader(0);
            assert_eq!(ring.try_push(SyncRecord::simple(0, 99)), PushOutcome::Full);
            ring.advance_reader(1);
            assert!(matches!(
                ring.try_push(SyncRecord::simple(0, 99)),
                PushOutcome::Stored(4)
            ));
        }
    }

    #[test]
    fn wraparound_overwrites_consumed_slots_only() {
        for ring in both_rings(4, 1) {
            for i in 0..4 {
                ring.try_push(SyncRecord::simple(1, i));
            }
            for _ in 0..4 {
                ring.advance_reader(0);
            }
            for i in 4..8 {
                assert!(matches!(
                    ring.try_push(SyncRecord::simple(2, i)),
                    PushOutcome::Stored(_)
                ));
            }
            // Old positions are no longer published under their old sequence.
            assert_eq!(ring.get(0), None);
            assert_eq!(ring.get(5).unwrap().thread, 2);
        }
    }

    #[test]
    fn backlog_tracks_unconsumed_records() {
        for ring in both_rings(8, 1) {
            ring.try_push(SyncRecord::simple(0, 1));
            ring.try_push(SyncRecord::simple(0, 2));
            assert_eq!(ring.backlog(0), 2);
            ring.advance_reader(0);
            assert_eq!(ring.backlog(0), 1);
        }
    }

    #[test]
    fn cached_min_cursor_avoids_rescans_until_the_ring_looks_full() {
        let ring = RecordRing::new_spsc(8, 2);
        for i in 0..8 {
            ring.try_push(SyncRecord::simple(0, i));
        }
        // Eight unblocked pushes: the cache (0) never had to be refreshed.
        assert_eq!(ring.rescans(), 0);
        // A blocked push rescans once (and stays blocked).
        assert_eq!(ring.try_push(SyncRecord::simple(0, 8)), PushOutcome::Full);
        assert_eq!(ring.rescans(), 1);
        // Readers advance; the next push rescans once more, refreshes the
        // cache and succeeds...
        for _ in 0..4 {
            ring.advance_reader(0);
            ring.advance_reader(1);
        }
        assert!(matches!(
            ring.try_push(SyncRecord::simple(0, 8)),
            PushOutcome::Stored(8)
        ));
        assert_eq!(ring.rescans(), 2);
        // ...and the refreshed cache covers the following pushes scan-free.
        for i in 9..12 {
            assert!(matches!(
                ring.try_push(SyncRecord::simple(0, i)),
                PushOutcome::Stored(_)
            ));
        }
        assert_eq!(ring.rescans(), 2);
    }

    #[test]
    fn spsc_flag_is_reported() {
        assert!(!RecordRing::new(4, 1).is_spsc());
        assert!(RecordRing::new_spsc(4, 1).is_spsc());
    }

    #[test]
    fn concurrent_producers_do_not_lose_records() {
        let ring = Arc::new(RecordRing::new(1024, 1));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let ring = Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    push_waiting(&ring, SyncRecord::simple(t, i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ring.write_pos(), 800);
        // Every position holds a published record and per-thread order is
        // preserved (addresses are strictly increasing per thread).
        let mut last_addr = [None::<u64>; 4];
        for pos in 0..800 {
            let rec = ring.get(pos).expect("record published");
            let t = rec.thread as usize;
            if let Some(prev) = last_addr[t] {
                assert!(rec.addr > prev, "per-thread order violated");
            }
            last_addr[t] = Some(rec.addr);
        }
    }

    #[test]
    fn spsc_producer_with_lagging_consumer_round_trips() {
        // One producer, one consumer, a tiny ring: the producer is forced
        // through the full/rescan path repeatedly while the consumer drains.
        let ring = Arc::new(RecordRing::new_spsc(4, 1));
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..500u64 {
                    push_waiting(&ring, SyncRecord::simple(0, i));
                }
            })
        };
        let consumer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut sum = 0u64;
                for pos in 0..500u64 {
                    sum += get_waiting(&ring, pos).addr;
                    ring.advance_reader(0);
                }
                sum
            })
        };
        producer.join().unwrap();
        assert_eq!(consumer.join().unwrap(), (0..500).sum::<u64>());
        assert!(ring.rescans() > 0, "a 4-slot ring must have rescanned");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_capacity_panics() {
        let _ = RecordRing::new(3, 1);
    }

    #[test]
    fn a_ring_without_readers_never_fills() {
        // A master with no slaves: nothing is ever unread, so every slot may
        // be reused — the ring must wrap many times without reporting full.
        for ring in both_rings(4, 0) {
            for i in 0..64u64 {
                assert_eq!(
                    ring.try_push(SyncRecord::simple(0, i)),
                    PushOutcome::Stored(i)
                );
                assert!(ring.has_space());
            }
            assert_eq!(ring.get(63).map(|r| r.addr), Some(63));
        }
    }
}
