//! A generic bounded descriptor ring: the transport half of the async
//! syscall gateway.
//!
//! [`RecordRing`](crate::ring::RecordRing) carries fixed-size
//! [`SyncRecord`](crate::ring::SyncRecord)s entirely in atomics, which is
//! what the agents' replication hot path needs — but syscall descriptors
//! carry owned data (payloads, paths), so the async gateway's
//! submission/completion queues need a ring that can move an arbitrary
//! `T` between exactly two threads.  [`DescRing`] is that ring, built on
//! the same three ideas as the PR 5 `RecordRing` hot path:
//!
//! * **Sequence-published slots** (the Vyukov bounded-queue discipline):
//!   every slot carries a sequence word; a producer claims position `pos`
//!   when the slot's sequence equals `pos`, deposits, and publishes by
//!   storing `pos + 1` with release ordering.  A consumer accepts the slot
//!   when it reads `pos + 1` and recycles it by storing `pos + capacity`.
//!   The payload itself travels through a per-slot mutex — uncontended by
//!   construction, because the sequence word hands each slot to exactly
//!   one side at a time — which keeps the ring inside `forbid(unsafe_code)`.
//! * **Separated cursors**: the producer and consumer positions live on
//!   their own cache lines (the slots are line-aligned too), so the two
//!   sides never false-share.
//! * **[`EventCount`] parking**: a consumer that finds the ring empty (or a
//!   producer that finds it full) can park on the corresponding event count
//!   instead of burning a core; every push posts `ready`, every pop posts
//!   `space`.  The wait discipline itself is the caller's
//!   [`Waiter`](crate::guards::Waiter) — the ring only provides the wake-up
//!   channels, mirroring how the agents compose `Waiter::wait_until_event`
//!   with the record rings.
//!
//! The claim protocol uses a compare-exchange on the cursor, so the ring
//! degrades gracefully if a caller violates the single-producer /
//! single-consumer contract — but the intended topology (one variant
//! thread, one serving poller per port) is strictly SPSC.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::guards::EventCount;

/// One slot of a [`DescRing`]: the sequence word that hands the slot
/// between producer and consumer, plus the (uncontended) payload cell.
#[derive(Debug)]
#[repr(align(64))]
struct DescSlot<T> {
    /// Vyukov sequence word; see the module docs for the protocol.
    seq: AtomicU64,
    /// The payload in flight.  Only ever locked by the side the sequence
    /// word currently designates, so the mutex never blocks in steady
    /// state.
    value: Mutex<Option<T>>,
}

/// A cursor on its own cache line, so producer and consumer positions
/// never false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Cursor(AtomicU64);

/// A bounded ring moving owned values from one producer thread to one
/// consumer thread, with park/notify channels for both directions.
#[derive(Debug)]
pub struct DescRing<T> {
    slots: Box<[DescSlot<T>]>,
    mask: u64,
    /// Next position the producer will claim.
    head: Cursor,
    /// Next position the consumer will claim.
    tail: Cursor,
    /// Posted after every push; consumers park here when the ring is empty.
    ready: EventCount,
    /// Posted after every pop; producers park here when the ring is full.
    space: EventCount,
}

impl<T> DescRing<T> {
    /// Creates a ring with at least `capacity` slots (rounded up to the next
    /// power of two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2).next_power_of_two();
        DescRing {
            slots: (0..capacity)
                .map(|i| DescSlot {
                    seq: AtomicU64::new(i as u64),
                    value: Mutex::new(None),
                })
                .collect(),
            mask: capacity as u64 - 1,
            head: Cursor::default(),
            tail: Cursor::default(),
            ready: EventCount::new(),
            space: EventCount::new(),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Entries currently deposited and not yet consumed (approximate under
    /// concurrency, exact when both sides are quiescent).
    pub fn len(&self) -> usize {
        let head = self.head.0.load(Ordering::Acquire);
        let tail = self.tail.0.load(Ordering::Acquire);
        head.saturating_sub(tail) as usize
    }

    /// Whether the ring currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the ring is currently full.
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity()
    }

    /// The event count posted after every push; a consumer that found the
    /// ring empty parks here (via `Waiter::wait_until_event`).
    pub fn ready_events(&self) -> &EventCount {
        &self.ready
    }

    /// The event count posted after every pop; a producer that found the
    /// ring full parks here.
    pub fn space_events(&self) -> &EventCount {
        &self.space
    }

    /// Attempts to deposit `value`; returns it back if the ring is full.
    pub fn try_push(&self, value: T) -> Result<(), T> {
        self.push_inner(value, true)
    }

    /// [`try_push`](Self::try_push) without the `ready` notification.
    ///
    /// For producers that batch deposits and post one explicit
    /// `ready_events().notify()` per burst (or wake the consumer through a
    /// separate channel, as the polling gateway does): the notify's seq-cst
    /// fence is the dominant cost of an uncontended push, so burst
    /// producers should not pay it per entry.  A consumer parked on
    /// `ready_events` is still safe — its bounded park re-checks the ring —
    /// but may sleep up to the park backstop, so only elide the wake when
    /// some later notify (or another wake channel) covers the burst.
    pub fn try_push_quiet(&self, value: T) -> Result<(), T> {
        self.push_inner(value, false)
    }

    fn push_inner(&self, value: T, notify: bool) -> Result<(), T> {
        let mut pos = self.head.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[(pos & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos {
                match self.head.0.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        *slot.value.lock().unwrap_or_else(|e| e.into_inner()) = Some(value);
                        slot.seq.store(pos + 1, Ordering::Release);
                        if notify {
                            self.ready.notify();
                        }
                        return Ok(());
                    }
                    Err(current) => pos = current,
                }
            } else if seq < pos {
                // The consumer has not recycled this slot yet: full.
                return Err(value);
            } else {
                pos = self.head.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Attempts to take the oldest entry; `None` when the ring is empty.
    pub fn try_pop(&self) -> Option<T> {
        self.pop_inner(true)
    }

    /// [`try_pop`](Self::try_pop) without the `space` notification.
    ///
    /// The draining mirror of [`try_push_quiet`](Self::try_push_quiet):
    /// consumers that pop in bursts post one `space_events().notify()` per
    /// burst instead of one fence per entry.  A producer parked on a full
    /// ring still wakes via its bounded park even if the burst notify is
    /// missed.
    pub fn try_pop_quiet(&self) -> Option<T> {
        self.pop_inner(false)
    }

    fn pop_inner(&self, notify: bool) -> Option<T> {
        let mut pos = self.tail.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[(pos & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos + 1 {
                match self.tail.0.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let value = slot
                            .value
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .take()
                            .expect("a published slot always holds a value");
                        slot.seq
                            .store(pos + self.capacity() as u64, Ordering::Release);
                        if notify {
                            self.space.notify();
                        }
                        return Some(value);
                    }
                    Err(current) => pos = current,
                }
            } else if seq <= pos {
                // The producer has not published this slot yet: empty.
                return None;
            } else {
                pos = self.tail.0.load(Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guards::Waiter;
    use std::sync::Arc;

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        assert_eq!(DescRing::<u32>::new(0).capacity(), 2);
        assert_eq!(DescRing::<u32>::new(3).capacity(), 4);
        assert_eq!(DescRing::<u32>::new(64).capacity(), 64);
    }

    #[test]
    fn push_pop_is_fifo() {
        let ring = DescRing::new(4);
        for i in 0..4 {
            ring.try_push(i).unwrap();
        }
        assert!(ring.is_full());
        assert_eq!(ring.try_push(99), Err(99));
        for i in 0..4 {
            assert_eq!(ring.try_pop(), Some(i));
        }
        assert!(ring.is_empty());
        assert_eq!(ring.try_pop(), None);
    }

    #[test]
    fn slots_recycle_across_many_wraps() {
        let ring = DescRing::new(2);
        for round in 0..1000u64 {
            ring.try_push(round).unwrap();
            assert_eq!(ring.try_pop(), Some(round));
        }
        assert!(ring.is_empty());
    }

    #[test]
    fn owned_payloads_move_through_intact() {
        let ring = DescRing::new(4);
        ring.try_push(String::from("hello ring")).unwrap();
        assert_eq!(ring.try_pop().as_deref(), Some("hello ring"));
    }

    #[test]
    fn spsc_stream_with_parked_sides_delivers_everything_in_order() {
        const N: u64 = 20_000;
        let ring: Arc<DescRing<u64>> = Arc::new(DescRing::new(8));
        let consumer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let waiter = Waiter::new(64);
                let mut expected = 0u64;
                while expected < N {
                    match ring.try_pop() {
                        Some(v) => {
                            assert_eq!(v, expected, "out-of-order delivery");
                            expected += 1;
                        }
                        None => {
                            waiter.wait_until_event(ring.ready_events(), || !ring.is_empty());
                        }
                    }
                }
            })
        };
        let waiter = Waiter::new(64);
        for i in 0..N {
            let mut value = i;
            while let Err(back) = ring.try_push(value) {
                value = back;
                waiter.wait_until_event(ring.space_events(), || !ring.is_full());
            }
        }
        consumer.join().unwrap();
        assert!(ring.is_empty());
    }
}
