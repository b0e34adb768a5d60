//! The wall-of-clocks (WoC) replication agent — the paper's novel design.
//!
//! Key ideas (§4.5, Figure 4c):
//!
//! * Every synchronization variable is assigned — by hashing its address — to
//!   one of a fixed number of logical clocks (the "wall of clocks").
//! * The master records, for each sync op, the identifier of the variable's
//!   clock and that clock's current time, then increments the clock.
//! * There is **one sync buffer per master thread**, so each buffer has a
//!   single producer and the master threads never contend on a shared write
//!   cursor.
//! * Slaves keep their own private copies of the clock wall.  A slave thread
//!   pops the next `(clock, time)` pair from its buffer, waits until its
//!   variant's copy of that clock has reached the recorded time, executes the
//!   op, and then increments the clock — thereby releasing any other slave
//!   thread waiting on a later time of the same clock.
//!
//! Because the clocks only couple threads that were *already* contending for
//! the same variables, the agent adds coherence traffic only where the
//! original program already had it.  The price of the fixed wall is false
//! serialization when two unrelated variables hash onto the same clock; the
//! [`AgentStats::clock_collisions`](crate::stats::AgentStats) counter and the
//! `ablation_clocks` benchmark quantify that effect.

use crate::clockwall::ClockWall;
use crate::context::{AgentConfig, SyncContext, VariantRole};
use crate::guards::GuardTable;
use crate::ring::{RecordRing, SyncRecord};
use crate::stats::AgentStats;
use crate::{AgentCore, SyncAgent, SyncStep, WaitSite};

use super::AgentKind;

/// Wall-of-clocks replication agent.
#[derive(Debug)]
pub struct WallOfClocksAgent {
    config: AgentConfig,
    /// One ring per master thread (single producer each).
    rings: Vec<RecordRing>,
    /// The master variant's clock wall.
    master_wall: ClockWall,
    /// One private clock wall per slave variant.
    slave_walls: Vec<ClockWall>,
    /// Per-clock guards that keep "record, execute, tick" atomic on the
    /// master side for ops sharing a clock.
    guards: GuardTable,
    core: AgentCore,
}

impl WallOfClocksAgent {
    /// Creates a wall-of-clocks agent for `config.variants` variants.
    ///
    /// Each of the `config.threads` rings has exactly one producer — master
    /// thread `t` writes only to ring `t` (§4.5) — so all rings take the
    /// CAS-free single-producer fast path, **except** the last one:
    /// `ring_for` clamps out-of-range thread indices onto
    /// it, so a misconfigured run (more live threads than
    /// `config.threads`) funnels several producers into that ring and it
    /// must stay multi-producer-safe.  Its slaves replay it like the
    /// total-order agent's shared ring: a thread waits until the record at
    /// the cursor is its own.
    pub fn new(config: AgentConfig) -> Self {
        let readers = config.slave_count();
        WallOfClocksAgent {
            rings: (0..config.threads)
                .map(|t| {
                    if t + 1 == config.threads {
                        RecordRing::new(config.buffer_capacity, readers)
                    } else {
                        RecordRing::new_spsc(config.buffer_capacity, readers)
                    }
                })
                .collect(),
            master_wall: ClockWall::new(config.clock_count),
            slave_walls: (0..readers)
                .map(|_| ClockWall::new(config.clock_count))
                .collect(),
            // One guard per clock so the guard index equals the clock index.
            guards: GuardTable::with_waiter(config.clock_count, config.waiter()),
            core: AgentCore::new(),
            config,
        }
    }

    /// The agent's sizing configuration.
    pub fn config(&self) -> &AgentConfig {
        &self.config
    }

    /// Number of logical clocks in the wall.
    pub fn clock_count(&self) -> usize {
        self.master_wall.len()
    }

    /// Total ticks applied to the master's wall (equals recorded ops).
    pub fn master_ticks(&self) -> u64 {
        self.master_wall.total_ticks()
    }

    fn ring_for(&self, thread: usize) -> &RecordRing {
        &self.rings[thread.min(self.rings.len() - 1)]
    }

    /// The record at `slave`'s cursor on `ctx`'s ring, if it is published
    /// and `ctx`'s thread's own.
    fn own_record(&self, ctx: &SyncContext, slave: usize) -> Option<SyncRecord> {
        let ring = self.ring_for(ctx.thread);
        ring.get(ring.reader_pos(slave))
            .filter(|record| record.thread == ctx.thread as u32)
    }

    fn master_step(&self, ctx: &SyncContext, addr: u64) -> SyncStep<'_> {
        let clock = self.master_wall.clock_for(addr);
        // The record's time is read under the clock guard.
        let step = super::record_step(
            &self.core,
            &self.guards,
            clock,
            self.ring_for(ctx.thread),
            || {
                let time = self.master_wall.time(clock);
                SyncRecord::with_clock(ctx.thread as u32, addr, clock as u32, time)
            },
        );
        if matches!(step, SyncStep::Ready) && self.master_wall.note_address(clock, addr) {
            self.core.stats().count_clock_collision(ctx.thread);
        }
        step
    }

    fn slave_step(&self, ctx: &SyncContext, slave: usize) -> SyncStep<'_> {
        // Publication posts the ring's event count, a slave tick the wall's.
        let ring = self.ring_for(ctx.thread);
        let Some(record) = self.own_record(ctx, slave) else {
            return self.core.block(WaitSite::Replay, ring.events());
        };
        let wall = &self.slave_walls[slave];
        if wall.time(record.clock as usize) >= record.time {
            SyncStep::Ready
        } else {
            self.core.block(WaitSite::Replay, wall.events())
        }
    }
}

impl SyncAgent for WallOfClocksAgent {
    fn kind(&self) -> AgentKind {
        AgentKind::WallOfClocks
    }

    fn core(&self) -> &AgentCore {
        &self.core
    }

    fn try_before_sync_op(&self, ctx: &SyncContext, addr: u64) -> SyncStep<'_> {
        match ctx.role {
            VariantRole::Master => self.master_step(ctx, addr),
            VariantRole::Slave { index } => self.slave_step(ctx, index),
        }
    }

    fn after_sync_op(&self, ctx: &SyncContext, addr: u64) {
        match ctx.role {
            VariantRole::Master => {
                let clock = self.master_wall.clock_for(addr);
                self.master_wall.tick(clock);
                self.guards.release(clock);
            }
            VariantRole::Slave { index } => match self.own_record(ctx, index) {
                Some(record) => {
                    self.slave_walls[index].tick(record.clock as usize);
                    self.ring_for(ctx.thread).advance_reader(index);
                }
                None => debug_assert!(
                    self.core.is_poisoned(),
                    "after_sync_op called without a pending record"
                ),
            },
        }
    }

    fn stats(&self) -> AgentStats {
        let mut stats = self.core.stats().snapshot();
        stats.cursor_rescans = self.rings.iter().map(RecordRing::rescans).sum();
        stats
    }

    fn poison(&self) {
        self.core.poison();
        // Unpark every parked waiter (masters on full rings,
        // slaves on publication or clock waits) so they re-step and bail.
        for ring in &self.rings {
            ring.events().notify_all();
        }
        for wall in &self.slave_walls {
            wall.events().notify_all();
        }
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
            .with_buffer_capacity(512)
            .with_clock_count(64)
    }

    #[test]
    fn single_thread_record_and_replay() {
        let agent = WallOfClocksAgent::new(config());
        let master = SyncContext::new(VariantRole::Master, 0);
        let addrs = [0x1000u64, 0x2000, 0x1000, 0x1000, 0x3000];
        for &a in &addrs {
            with_sync_op(&agent, &master, a, || {});
        }
        assert_eq!(agent.master_ticks(), 5);

        let slave = SyncContext::new(VariantRole::Slave { index: 0 }, 0);
        for &a in &addrs {
            with_sync_op(&agent, &slave, a, || {});
        }
        let s = agent.stats();
        assert_eq!(s.ops_recorded, 5);
        assert_eq!(s.ops_replayed, 5);
        assert_eq!(agent.slave_walls[0].total_ticks(), 5);
    }

    #[test]
    fn unrelated_locks_replay_without_cross_thread_stalls() {
        // The Figure 4c scenario: thread 1 uses lock A, thread 2 uses lock B,
        // the slave schedules thread 2 first — it must proceed immediately.
        let cfg = config().with_clock_count(4096);
        let agent = Arc::new(WallOfClocksAgent::new(cfg));
        let m0 = SyncContext::new(VariantRole::Master, 0);
        let m1 = SyncContext::new(VariantRole::Master, 1);
        // Choose addresses that map to different clocks.
        let addr_a = 0xA000u64;
        let mut addr_b = 0xB000u64;
        while agent.master_wall.clock_for(addr_b) == agent.master_wall.clock_for(addr_a) {
            addr_b += 8;
        }
        with_sync_op(agent.as_ref(), &m0, addr_a, || {});
        with_sync_op(agent.as_ref(), &m0, addr_a, || {});
        with_sync_op(agent.as_ref(), &m1, addr_b, || {});
        with_sync_op(agent.as_ref(), &m1, addr_b, || {});

        // Slave thread 1 replays first, without thread 0 running at all.
        let done = Arc::new(AtomicU64::new(0));
        let a = Arc::clone(&agent);
        let d = Arc::clone(&done);
        let t = std::thread::spawn(move || {
            let ctx = SyncContext::new(VariantRole::Slave { index: 0 }, 1);
            with_sync_op(a.as_ref(), &ctx, 0xBB00, || {
                d.fetch_add(1, Ordering::SeqCst)
            });
            with_sync_op(a.as_ref(), &ctx, 0xBB00, || {
                d.fetch_add(1, Ordering::SeqCst)
            });
        });
        t.join().unwrap();
        assert_eq!(done.load(Ordering::SeqCst), 2);

        let ctx0 = SyncContext::new(VariantRole::Slave { index: 0 }, 0);
        with_sync_op(agent.as_ref(), &ctx0, 0xAA00, || {});
        with_sync_op(agent.as_ref(), &ctx0, 0xAA00, || {});
        assert_eq!(agent.stats().ops_replayed, 4);
    }

    #[test]
    fn shared_lock_order_is_enforced_across_slave_threads() {
        // Master: thread 0 acquires the shared lock before thread 1.  In the
        // slave, thread 1 arrives first and must wait until thread 0 has
        // replayed its op and ticked the shared clock.
        let agent = Arc::new(WallOfClocksAgent::new(config()));
        let m0 = SyncContext::new(VariantRole::Master, 0);
        let m1 = SyncContext::new(VariantRole::Master, 1);
        let lock = 0xC000u64;
        with_sync_op(agent.as_ref(), &m0, lock, || {});
        with_sync_op(agent.as_ref(), &m1, lock, || {});

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
        assert_eq!(order.load(Ordering::SeqCst), 0, "slave thread 1 must stall");

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
    fn a_clamped_thread_waits_for_its_own_record_on_the_shared_ring() {
        // Two configured threads: thread 2 clamps onto thread 1's ring.
        // Master threads 1 then 2 take one lock; in the slave, thread 2
        // arrives first and must wait for thread 1 instead of replaying
        // thread 1's record as its own.
        let agent = Arc::new(WallOfClocksAgent::new(config()));
        let m1 = SyncContext::new(VariantRole::Master, 1);
        let m2 = SyncContext::new(VariantRole::Master, 2);
        let lock = 0xC000u64;
        with_sync_op(agent.as_ref(), &m1, lock, || {});
        with_sync_op(agent.as_ref(), &m2, lock, || {});

        let order = Arc::new(AtomicU64::new(0));
        let a2 = Arc::clone(&agent);
        let o2 = Arc::clone(&order);
        let (started_tx, started) = std::sync::mpsc::channel();
        let t2 = std::thread::spawn(move || {
            let ctx = SyncContext::new(VariantRole::Slave { index: 0 }, 2);
            started_tx.send(()).unwrap();
            with_sync_op(a2.as_ref(), &ctx, 0xCC00, || {
                o2.fetch_add(1, Ordering::SeqCst)
            })
        });
        started.recv().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(order.load(Ordering::SeqCst), 0, "slave thread 2 must stall");

        let ctx1 = SyncContext::new(VariantRole::Slave { index: 0 }, 1);
        let first = with_sync_op(agent.as_ref(), &ctx1, 0xCC00, || {
            order.fetch_add(1, Ordering::SeqCst)
        });
        assert_eq!(first, 0, "thread 1 replays first");
        assert_eq!(t2.join().unwrap(), 1, "thread 2 replays second");
        assert_eq!(agent.stats().ops_replayed, 2);
    }

    #[test]
    fn per_thread_rings_take_the_spsc_fast_path() {
        // Every master thread's private ring is single-producer; only the
        // last ring (the clamp sink for out-of-range thread indices) stays
        // multi-producer-safe.
        let agent = WallOfClocksAgent::new(config().with_threads(4));
        assert_eq!(agent.rings.len(), 4);
        assert!(agent.rings[..3].iter().all(|r| r.is_spsc()));
        assert!(!agent.rings[3].is_spsc());
    }

    #[test]
    fn collisions_are_detected_with_a_tiny_wall() {
        let cfg = config().with_clock_count(1);
        let agent = WallOfClocksAgent::new(cfg);
        let master = SyncContext::new(VariantRole::Master, 0);
        with_sync_op(&agent, &master, 0x1000, || {});
        with_sync_op(&agent, &master, 0x9000, || {});
        assert!(agent.stats().clock_collisions >= 1);
    }

    #[test]
    fn multiple_slaves_replay_the_same_recording() {
        let cfg = AgentConfig::default()
            .with_variants(4)
            .with_threads(1)
            .with_buffer_capacity(256)
            .with_clock_count(32);
        let agent = WallOfClocksAgent::new(cfg);
        let master = SyncContext::new(VariantRole::Master, 0);
        for i in 0..20u64 {
            with_sync_op(&agent, &master, 0x4000 + (i % 3) * 8, || {});
        }
        for slave in 0..3usize {
            let ctx = SyncContext::new(VariantRole::Slave { index: slave }, 0);
            for i in 0..20u64 {
                with_sync_op(&agent, &ctx, 0x5000 + (i % 3) * 8, || {});
            }
        }
        let s = agent.stats();
        assert_eq!(s.ops_recorded, 20);
        assert_eq!(s.ops_replayed, 60);
    }

    #[test]
    fn concurrent_hammering_on_shared_and_private_locks_completes() {
        let cfg = AgentConfig::default()
            .with_variants(2)
            .with_threads(4)
            .with_buffer_capacity(2048)
            .with_clock_count(128);
        let agent = Arc::new(WallOfClocksAgent::new(cfg));
        let per_thread = 300u64;
        let counter = Arc::new(AtomicU64::new(0));

        let mut handles = Vec::new();
        for t in 0..4usize {
            let agent = Arc::clone(&agent);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                let ctx = SyncContext::new(VariantRole::Master, t);
                for i in 0..per_thread {
                    let addr = if i % 4 == 0 {
                        0xF000
                    } else {
                        0x1_0000 + (t as u64) * 64
                    };
                    with_sync_op(agent.as_ref(), &ctx, addr, || {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }

        let mut handles = Vec::new();
        for t in 0..4usize {
            let agent = Arc::clone(&agent);
            handles.push(std::thread::spawn(move || {
                let ctx = SyncContext::new(VariantRole::Slave { index: 0 }, t);
                for i in 0..per_thread {
                    let addr = if i % 4 == 0 {
                        0xF100
                    } else {
                        0x2_0000 + (t as u64) * 64
                    };
                    with_sync_op(agent.as_ref(), &ctx, addr, || {});
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }

        let s = agent.stats();
        assert_eq!(counter.load(Ordering::Relaxed), 4 * per_thread);
        assert_eq!(s.ops_recorded, 4 * per_thread);
        assert_eq!(s.ops_replayed, 4 * per_thread);
        assert_eq!(agent.master_ticks(), 4 * per_thread);
    }
}
