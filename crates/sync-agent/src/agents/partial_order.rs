//! The partial-order (PO) replication agent.
//!
//! The PO agent (§4.5, Figure 4b) relaxes the total-order discipline: a slave
//! thread may execute its next recorded sync op as soon as every *dependent*
//! op — an earlier recorded op on the same memory location — has completed,
//! even if unrelated earlier ops are still outstanding.  Slaves therefore
//! scan a look-ahead window of the shared buffer instead of only its head.
//!
//! The design removes the unnecessary stalls of the TO agent but keeps its
//! scalability problems: all master threads still share one write cursor and
//! all slave threads share per-variant completion state, which the paper
//! identifies as the source of cache contention in `radiosity`,
//! `fluidanimate`, `dedup` and friends.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::context::{AgentConfig, SyncContext, VariantRole, MAX_THREADS};
use crate::guards::GuardTable;
use crate::ring::{zeroed, RecordRing, SyncRecord};
use crate::stats::AgentStats;
use crate::{AgentCore, SyncAgent, SyncStep, WaitSite};

use super::AgentKind;

/// Per-slave replay state, all pre-allocated (§3.3: no dynamic allocation);
/// the two per-slot maps start on zero pages, like the ring's slots.
#[derive(Debug)]
struct SlaveState {
    /// `completed[pos % capacity] == pos + 1` once this slave finished the op
    /// recorded at `pos`.
    completed: Vec<AtomicU64>,
    /// The skip index's claimed bitmap: `claimed_map[pos % capacity] ==
    /// pos + 1` once *some* thread of this slave has claimed the record at
    /// `pos` for replay.  Lets a thread scanning for its own next record
    /// skip a claimed slot on one load instead of re-reading the record and
    /// its completion state — claimed records can never be the scanner's
    /// (only thread `t` claims thread-`t` records, and `t` never scans while
    /// it holds a claim).
    claimed_map: Vec<AtomicU64>,
    /// One entry per logical thread.
    threads: Vec<ThreadReplay>,
}

impl SlaveState {
    fn new(capacity: usize) -> Self {
        SlaveState {
            completed: zeroed(capacity, AtomicU64::new),
            claimed_map: zeroed(capacity, AtomicU64::new),
            threads: (0..MAX_THREADS).map(|_| ThreadReplay::default()).collect(),
        }
    }
}

/// One slave thread's replay state, on its own cache line: only that thread
/// reads or writes it, so every access is relaxed.  Positions stored as
/// `pos + 1` use 0 for "none".
#[derive(Debug, Default)]
#[repr(align(64))]
struct ThreadReplay {
    /// The op claimed between `before` and `after`, as `pos + 1`.
    claimed: AtomicU64,
    /// The skip index's resume position: the position after this thread's
    /// most recently claimed record — its scan for the next own record
    /// restarts here, never from the frontier.
    scan_from: AtomicU64,
    /// The look-ahead's skip state, kept across the polls of one op so each
    /// poll resumes where the last one stopped — typically re-checking a
    /// single blocker slot — instead of rescanning the window: the record
    /// found for this thread (`pos + 1`) and its dependency key...
    found: AtomicU64,
    found_key: AtomicU64,
    /// ...the first position that still blocks it (`pos + 1`)...
    blocker: AtomicU64,
    /// ...and the position below which the dependency scan verified that
    /// nothing blocks it.
    checked_to: AtomicU64,
}

/// Partial-order replication agent.
#[derive(Debug)]
pub struct PartialOrderAgent {
    config: AgentConfig,
    ring: RecordRing,
    guards: GuardTable,
    slaves: Vec<SlaveState>,
    core: AgentCore,
}

impl PartialOrderAgent {
    /// Creates a partial-order agent for `config.variants` variants.
    pub fn new(config: AgentConfig) -> Self {
        let readers = config.slave_count();
        PartialOrderAgent {
            ring: RecordRing::new(config.buffer_capacity, readers),
            guards: GuardTable::with_waiter(super::GUARD_BUCKETS, config.waiter()),
            slaves: (0..readers)
                .map(|_| SlaveState::new(config.buffer_capacity))
                .collect(),
            core: AgentCore::new(),
            config,
        }
    }

    /// The agent's sizing configuration.
    pub fn config(&self) -> &AgentConfig {
        &self.config
    }

    fn capacity(&self) -> u64 {
        self.config.buffer_capacity as u64
    }

    fn dependency_key(addr: u64) -> u64 {
        // Two ops are dependent when they touch the same 64-bit word; this is
        // the same alignment rule the clock wall uses.
        addr & !7
    }

    /// Whether this slave has completed the op recorded at `pos`.
    fn is_completed(&self, slave: usize, pos: u64) -> bool {
        let slot = (pos % self.capacity()) as usize;
        self.slaves[slave].completed[slot].load(Ordering::Acquire) == pos + 1
    }

    /// Whether some thread of this slave has claimed the record at `pos`.
    fn is_claimed(&self, slave: usize, pos: u64) -> bool {
        let slot = (pos % self.capacity()) as usize;
        self.slaves[slave].claimed_map[slot].load(Ordering::Acquire) == pos + 1
    }

    /// Finds the next record belonging to `thread`, scanning forward from the
    /// thread's resume position (the skip index: never from the frontier).
    /// Returns `None` when it has not been published yet or lies outside the
    /// look-ahead window.
    fn find_own_record(&self, slave: usize, thread: u32) -> Option<(u64, SyncRecord)> {
        let frontier = self.ring.reader_pos(slave);
        let window_end = frontier + self.config.lookahead_window as u64;
        let start = self.slaves[slave].threads[thread as usize]
            .scan_from
            .load(Ordering::Relaxed)
            .max(frontier);
        let published = self.ring.write_pos();
        let mut pos = start;
        while pos < published && pos < window_end {
            // Skip-index fast path: a claimed record belongs to another
            // thread (a thread never scans while holding its own claim), so
            // one bitmap load replaces reading the record and its
            // completion slot.
            if self.is_claimed(slave, pos) {
                pos += 1;
                continue;
            }
            match self.ring.get(pos) {
                Some(rec) if rec.thread == thread && !self.is_completed(slave, pos) => {
                    return Some((pos, rec));
                }
                Some(_) => pos += 1,
                None => return None,
            }
        }
        None
    }

    /// Whether the record at `q` still blocks an op on `key`: it is not yet
    /// completed and either touches the same 64-bit word or is not yet
    /// published (so its word is unknown).  A record never changes once
    /// published and completion is sticky, so a `false` verdict is final —
    /// which is what lets the dependency scan resume instead of rescanning.
    ///
    /// Only valid for `q` at or ahead of the completion frontier: both the
    /// completion slot and the ring slot are generation-tagged
    /// (`value == q + 1`), so once the ring wraps past a below-frontier `q`
    /// its slots are recycled to a later generation and this would report
    /// "blocked" forever.  Re-checks of a *cached* position must go through
    /// [`still_blocks`](Self::still_blocks).
    fn blocks(&self, slave: usize, q: u64, key: u64) -> bool {
        if self.is_completed(slave, q) {
            return false;
        }
        match self.ring.get(q) {
            Some(rec) => Self::dependency_key(rec.addr) == key,
            None => true,
        }
    }

    /// Re-evaluates a blocker position cached across waiter polls.
    ///
    /// Unlike [`blocks`](Self::blocks) this is safe for a stale `b`: a
    /// position below the completion frontier is complete by definition
    /// (the frontier only advances over completed records), even when the
    /// ring has since wrapped and recycled `b`'s completion and record
    /// slots to a later generation — the case where the exact-generation
    /// checks in `blocks` would never resolve the blocker.
    fn still_blocks(&self, slave: usize, b: u64, key: u64) -> bool {
        b >= self.ring.reader_pos(slave) && self.blocks(slave, b, key)
    }

    fn slave_step(&self, ctx: &SyncContext, slave: usize) -> SyncStep<'_> {
        let me = &self.slaves[slave].threads[ctx.thread];
        let blocked = || self.core.block(WaitSite::Replay, self.ring.events());
        let (pos, key) = match me.found.load(Ordering::Relaxed).checked_sub(1) {
            Some(pos) => (pos, me.found_key.load(Ordering::Relaxed)),
            None => match self.find_own_record(slave, ctx.thread as u32) {
                Some((pos, rec)) => {
                    let key = Self::dependency_key(rec.addr);
                    me.found.store(pos + 1, Ordering::Relaxed);
                    me.found_key.store(key, Ordering::Relaxed);
                    me.checked_to
                        .store(self.ring.reader_pos(slave), Ordering::Relaxed);
                    (pos, key)
                }
                None => return blocked(),
            },
        };
        let mut q = me.checked_to.load(Ordering::Relaxed);
        if let Some(b) = me.blocker.load(Ordering::Relaxed).checked_sub(1) {
            if self.still_blocks(slave, b, key) {
                return blocked();
            }
            // The blocker resolved (completed — possibly observed only
            // through the frontier having passed it — or published as
            // non-dependent); it has now been evaluated for good.
            me.blocker.store(0, Ordering::Relaxed);
            q = q.max(b + 1);
        }
        // Resume the dependency scan.  Positions below the frontier are
        // complete by definition, and positions below `checked_to` were
        // already verified non-blocking (both verdicts are final).
        q = q.max(self.ring.reader_pos(slave));
        while q < pos {
            if self.blocks(slave, q, key) {
                me.blocker.store(q + 1, Ordering::Relaxed);
                me.checked_to.store(q, Ordering::Relaxed);
                return blocked();
            }
            q += 1;
        }
        me.found.store(0, Ordering::Relaxed);
        let slot = (pos % self.capacity()) as usize;
        self.slaves[slave].claimed_map[slot].store(pos + 1, Ordering::Release);
        me.claimed.store(pos + 1, Ordering::Relaxed);
        me.scan_from.store(pos + 1, Ordering::Relaxed);
        SyncStep::Ready
    }

    fn slave_after(&self, ctx: &SyncContext, slave: usize) {
        let claimed = self.slaves[slave].threads[ctx.thread]
            .claimed
            .swap(0, Ordering::Relaxed);
        debug_assert!(
            claimed > 0 || self.core.is_poisoned(),
            "after_sync_op without matching before_sync_op"
        );
        if claimed == 0 {
            return;
        }
        let pos = claimed - 1;
        let slot = (pos % self.capacity()) as usize;
        self.slaves[slave].completed[slot].store(pos + 1, Ordering::Release);
        // Advance the completion frontier over the completed prefix so the
        // master can reuse those slots.
        loop {
            let frontier = self.ring.reader_pos(slave);
            if !self.is_completed(slave, frontier) {
                break;
            }
            if !self.ring.try_advance_reader(slave, frontier) {
                // Another thread advanced it; re-check from the new frontier.
                continue;
            }
        }
        // A completion that did not move the frontier can still unblock a
        // dependency waiter parked on the ring; post the event count
        // explicitly (frontier advances already post it).
        self.ring.events().notify();
    }
}

impl SyncAgent for PartialOrderAgent {
    fn kind(&self) -> AgentKind {
        AgentKind::PartialOrder
    }

    fn core(&self) -> &AgentCore {
        &self.core
    }

    fn try_before_sync_op(&self, ctx: &SyncContext, addr: u64) -> SyncStep<'_> {
        match ctx.role {
            VariantRole::Master => super::record_step(
                &self.core,
                &self.guards,
                self.guards.bucket_for(addr),
                &self.ring,
                || SyncRecord::simple(ctx.thread as u32, addr),
            ),
            VariantRole::Slave { index } => self.slave_step(ctx, index),
        }
    }

    fn after_sync_op(&self, ctx: &SyncContext, addr: u64) {
        match ctx.role {
            VariantRole::Master => self.guards.release(self.guards.bucket_for(addr)),
            VariantRole::Slave { index } => self.slave_after(ctx, index),
        }
    }

    fn stats(&self) -> AgentStats {
        let mut stats = self.core.stats().snapshot();
        stats.cursor_rescans = self.ring.rescans();
        stats
    }

    fn poison(&self) {
        self.core.poison();
        // Unpark masters waiting on buffer space and slaves parked in the
        // look-ahead wait.
        self.ring.events().notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_sync_op;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn config() -> AgentConfig {
        AgentConfig::default()
            .with_variants(2)
            .with_threads(2)
            .with_buffer_capacity(256)
            .with_lookahead_window(64)
    }

    #[test]
    fn same_thread_replay_follows_record_order() {
        let agent = PartialOrderAgent::new(config());
        let master = SyncContext::new(VariantRole::Master, 0);
        let addrs = [0x10u64, 0x20, 0x10, 0x30];
        for &a in &addrs {
            with_sync_op(&agent, &master, a, || {});
        }
        let slave = SyncContext::new(VariantRole::Slave { index: 0 }, 0);
        for &a in &addrs {
            with_sync_op(&agent, &slave, a, || {});
        }
        let s = agent.stats();
        assert_eq!(s.ops_recorded, 4);
        assert_eq!(s.ops_replayed, 4);
    }

    #[test]
    fn independent_ops_do_not_stall_out_of_order_threads() {
        // Master records thread 0 (lock A) before thread 1 (lock B).  In the
        // slave, thread 1 arrives first; because its op is independent it may
        // proceed immediately — the Figure 4b behaviour that distinguishes PO
        // from TO.
        let agent = Arc::new(PartialOrderAgent::new(config()));
        let m0 = SyncContext::new(VariantRole::Master, 0);
        let m1 = SyncContext::new(VariantRole::Master, 1);
        with_sync_op(agent.as_ref(), &m0, 0xA000, || {});
        with_sync_op(agent.as_ref(), &m0, 0xA000, || {});
        with_sync_op(agent.as_ref(), &m1, 0xB000, || {});
        with_sync_op(agent.as_ref(), &m1, 0xB000, || {});

        // Slave: only thread 1 runs; it must complete both of its ops without
        // waiting for thread 0.
        let a1 = Arc::clone(&agent);
        let done = Arc::new(AtomicU64::new(0));
        let d1 = Arc::clone(&done);
        let handle = std::thread::spawn(move || {
            let ctx = SyncContext::new(VariantRole::Slave { index: 0 }, 1);
            with_sync_op(a1.as_ref(), &ctx, 0xBB00, || {
                d1.fetch_add(1, Ordering::SeqCst)
            });
            with_sync_op(a1.as_ref(), &ctx, 0xBB00, || {
                d1.fetch_add(1, Ordering::SeqCst)
            });
        });
        handle.join().unwrap();
        assert_eq!(done.load(Ordering::SeqCst), 2);

        // Thread 0 replays afterwards; everything still completes.
        let ctx0 = SyncContext::new(VariantRole::Slave { index: 0 }, 0);
        with_sync_op(agent.as_ref(), &ctx0, 0xAA00, || {});
        with_sync_op(agent.as_ref(), &ctx0, 0xAA00, || {});
        assert_eq!(agent.stats().ops_replayed, 4);
    }

    #[test]
    fn dependent_ops_are_serialized_in_recorded_order() {
        // Master: thread 0 then thread 1 touch the SAME variable.  The slave
        // must not let thread 1 run before thread 0 even if thread 1 arrives
        // first.
        let agent = Arc::new(PartialOrderAgent::new(config()));
        let m0 = SyncContext::new(VariantRole::Master, 0);
        let m1 = SyncContext::new(VariantRole::Master, 1);
        with_sync_op(agent.as_ref(), &m0, 0xC000, || {});
        with_sync_op(agent.as_ref(), &m1, 0xC000, || {});

        let order = Arc::new(AtomicU64::new(0));
        let a1 = Arc::clone(&agent);
        let o1 = Arc::clone(&order);
        let t1 = std::thread::spawn(move || {
            let ctx = SyncContext::new(VariantRole::Slave { index: 0 }, 1);
            with_sync_op(a1.as_ref(), &ctx, 0xCC00, || {
                o1.fetch_add(1, Ordering::SeqCst)
            })
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(order.load(Ordering::SeqCst), 0, "dependent op must stall");

        let a0 = Arc::clone(&agent);
        let o0 = Arc::clone(&order);
        let t0 = std::thread::spawn(move || {
            let ctx = SyncContext::new(VariantRole::Slave { index: 0 }, 0);
            with_sync_op(a0.as_ref(), &ctx, 0xCC00, || {
                o0.fetch_add(1, Ordering::SeqCst)
            })
        });
        assert_eq!(t0.join().unwrap(), 0);
        assert_eq!(t1.join().unwrap(), 1);
        assert!(agent.stats().slave_stalls >= 1);
    }

    #[test]
    fn frontier_advances_over_completed_prefix() {
        let agent = PartialOrderAgent::new(config());
        let master = SyncContext::new(VariantRole::Master, 0);
        for i in 0..5u64 {
            with_sync_op(&agent, &master, 0x100 + i * 8, || {});
        }
        let slave = SyncContext::new(VariantRole::Slave { index: 0 }, 0);
        for i in 0..5u64 {
            with_sync_op(&agent, &slave, 0x100 + i * 8, || {});
        }
        assert_eq!(agent.ring.reader_pos(0), 5);
    }

    #[test]
    fn cached_blocker_resolves_after_its_slot_is_recycled() {
        // Deterministic regression test for the stale-blocker hang: a
        // waiter for the op at position 1 caches position 0 (same word) as
        // its blocker.  Position 0 then completes, the frontier passes it,
        // the master wraps the 8-slot ring, and the record recycled into
        // slot 0 (position 8) is replayed — recycling both the ring slot
        // *and* the completion slot to generation 8.  That is exactly the
        // state a waiter that slept through the frontier advance (a park
        // lasts up to 1 ms) re-checks against: `blocks` can no longer
        // recognise position 0 as complete (both slots are
        // generation-tagged), so the cached re-check must resolve the
        // blocker via the frontier instead of stalling forever.
        let cfg = AgentConfig::default()
            .with_variants(2)
            .with_threads(2)
            .with_buffer_capacity(8)
            .with_lookahead_window(8);
        let agent = PartialOrderAgent::new(cfg);
        let hot = 0xF000u64;
        let key = PartialOrderAgent::dependency_key(hot);

        // Master: thread 0 then thread 1 touch the hot word.
        let m0 = SyncContext::new(VariantRole::Master, 0);
        let m1 = SyncContext::new(VariantRole::Master, 1);
        with_sync_op(&agent, &m0, hot, || {});
        with_sync_op(&agent, &m1, hot, || {});
        // A slave waiter for position 1 would now cache position 0 as its
        // blocker.
        assert!(agent.still_blocks(0, 0, key));

        // Slave thread 0 replays position 0; the frontier passes it.
        let s0 = SyncContext::new(VariantRole::Slave { index: 0 }, 0);
        with_sync_op(&agent, &s0, hot, || {});
        assert_eq!(agent.ring.reader_pos(0), 1);

        // Master thread 0 records 7 more (independent) ops, filling
        // positions 2..=8, and slave thread 0 replays them — position 1 is
        // not a dependency of any of them, so they complete around it.
        // Completing position 8 overwrites completion slot 0 with
        // generation 8, and the push of position 8 recycled ring slot 0.
        for i in 0..7u64 {
            with_sync_op(&agent, &m0, 0x2_0000 + i * 8, || {});
            with_sync_op(&agent, &s0, 0x2_0000 + i * 8, || {});
        }
        assert_eq!(agent.ring.write_pos(), 9);
        assert!(
            agent.ring.get(0).is_none(),
            "ring slot 0 must have been recycled for the scenario to be real"
        );
        assert!(
            !agent.is_completed(0, 0),
            "completion slot 0 must have been recycled for the scenario to be real"
        );

        // The raw exact-generation check can no longer tell position 0 is
        // complete; the frontier-aware re-check used for cached blockers
        // must.
        assert!(agent.blocks(0, 0, key), "blocks() cannot see the wrap");
        assert!(
            !agent.still_blocks(0, 0, key),
            "a blocker below the frontier is complete by definition"
        );
    }

    #[test]
    fn dependency_waiters_survive_ring_wrap() {
        // Regression test: a waiter caches its blocker position across
        // polls.  With a tiny ring the blocker completes, the frontier
        // passes it and the slot is recycled to a later generation while
        // the waiter is between polls (parked for up to 1 ms); the re-check
        // must then treat the below-frontier blocker as resolved instead of
        // reading the recycled slot's exact-generation state and stalling
        // forever.  Master and slave run concurrently so the ring wraps
        // continuously; every thread regularly touches one hot word (so
        // waiters cache blockers) but also streams independent ops (so
        // other threads race ahead and wrap the ring over a cached
        // blocker's slot).  Thread count exceeds typical core counts so
        // parked waiters really do sleep through frontier advances.
        let threads = 8usize;
        let per_thread = 300u64;
        let cfg = AgentConfig::default()
            .with_variants(2)
            .with_threads(threads)
            .with_buffer_capacity(8)
            .with_lookahead_window(8);
        let agent = Arc::new(PartialOrderAgent::new(cfg));
        let addr_for = |t: usize, i: u64| {
            if i.is_multiple_of(3) {
                0xF000u64
            } else {
                0x1_0000 + (t as u64) * 64 + (i % 3) * 8
            }
        };

        let mut handles = Vec::new();
        for t in 0..threads {
            let agent = Arc::clone(&agent);
            handles.push(std::thread::spawn(move || {
                let ctx = SyncContext::new(VariantRole::Master, t);
                for i in 0..per_thread {
                    with_sync_op(agent.as_ref(), &ctx, addr_for(t, i), || {});
                }
            }));
        }
        for t in 0..threads {
            let agent = Arc::clone(&agent);
            handles.push(std::thread::spawn(move || {
                let ctx = SyncContext::new(VariantRole::Slave { index: 0 }, t);
                for i in 0..per_thread {
                    with_sync_op(agent.as_ref(), &ctx, addr_for(t, i), || {});
                }
            }));
        }
        // Watchdog: the pre-fix failure mode is a permanent stall, so turn
        // "a waiter never resolves its recycled blocker" into a test
        // failure instead of a hung test run.
        let (tx, rx) = std::sync::mpsc::channel();
        let joiner = std::thread::spawn(move || {
            for h in handles {
                h.join().unwrap();
            }
            let _ = tx.send(());
        });
        if rx.recv_timeout(std::time::Duration::from_secs(60)).is_err() {
            agent.poison();
            panic!("dependency waiter stalled: blocker slot recycled by a ring wrap");
        }
        joiner.join().unwrap();
        let total = threads as u64 * per_thread;
        let s = agent.stats();
        assert_eq!(s.ops_recorded, total);
        assert_eq!(s.ops_replayed, total);
        assert_eq!(agent.ring.reader_pos(0), total);
    }

    #[test]
    fn concurrent_master_and_slave_threads_complete() {
        let cfg = AgentConfig::default()
            .with_variants(2)
            .with_threads(4)
            .with_buffer_capacity(1024)
            .with_lookahead_window(128);
        let agent = Arc::new(PartialOrderAgent::new(cfg));
        let per_thread = 200u64;

        // Master phase: 4 threads, two shared variables.
        let mut handles = Vec::new();
        for t in 0..4usize {
            let agent = Arc::clone(&agent);
            handles.push(std::thread::spawn(move || {
                let ctx = SyncContext::new(VariantRole::Master, t);
                for i in 0..per_thread {
                    let addr = if i % 2 == 0 {
                        0xD000
                    } else {
                        0xE000 + (t as u64) * 64
                    };
                    with_sync_op(agent.as_ref(), &ctx, addr, || {});
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }

        // Slave phase: same four threads replay concurrently.
        let mut handles = Vec::new();
        for t in 0..4usize {
            let agent = Arc::clone(&agent);
            handles.push(std::thread::spawn(move || {
                let ctx = SyncContext::new(VariantRole::Slave { index: 0 }, t);
                for i in 0..per_thread {
                    let addr = if i % 2 == 0 {
                        0xD100
                    } else {
                        0xE100 + (t as u64) * 64
                    };
                    with_sync_op(agent.as_ref(), &ctx, addr, || {});
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = agent.stats();
        assert_eq!(s.ops_recorded, 4 * per_thread);
        assert_eq!(s.ops_replayed, 4 * per_thread);
        assert_eq!(agent.ring.reader_pos(0), 4 * per_thread);
    }
}
