//! The total-order (TO) replication agent.
//!
//! The TO agent is the simplest of the paper's three designs (§4.5,
//! Figure 4a): every sync op executed by any master thread is appended to a
//! single shared sync buffer, and every slave variant replays the buffer in
//! exactly that order.  A slave thread whose next recorded op is *not* at the
//! head of the unconsumed log must stall, even when the op it wants to
//! execute is completely unrelated to the op at the head — the source of the
//! unnecessary stalls the figure highlights with the red bar.
//!
//! On the master side, all threads share one write cursor, which produces the
//! read-write sharing (cache-line ping-pong) the paper identifies as the
//! scalability limit of this design.

use crate::context::{AgentConfig, SyncContext, VariantRole};
use crate::guards::GuardTable;
use crate::ring::{RecordRing, SyncRecord};
use crate::stats::AgentStats;
use crate::{AgentCore, SyncAgent, SyncStep, WaitSite};

use super::AgentKind;

/// Total-order replication agent.
#[derive(Debug)]
pub struct TotalOrderAgent {
    config: AgentConfig,
    ring: RecordRing,
    guards: GuardTable,
    core: AgentCore,
}

impl TotalOrderAgent {
    /// Creates a total-order agent for `config.variants` variants.
    pub fn new(config: AgentConfig) -> Self {
        let waiter = config.waiter();
        TotalOrderAgent {
            ring: RecordRing::new(config.buffer_capacity, config.slave_count()),
            guards: GuardTable::with_waiter(config.guard_buckets, waiter),
            core: AgentCore::new(waiter),
            config,
        }
    }

    /// The agent's sizing configuration.
    pub fn config(&self) -> &AgentConfig {
        &self.config
    }

    /// Number of records currently recorded and not yet consumed by the
    /// slowest slave.
    pub fn max_backlog(&self) -> u64 {
        (0..self.ring.readers())
            .map(|s| self.ring.backlog(s))
            .max()
            .unwrap_or(0)
    }

    /// Whether the unconsumed head of the recording belongs to `thread`.
    fn head_is_mine(&self, slave: usize, thread: u32) -> bool {
        let pos = self.ring.reader_pos(slave);
        matches!(self.ring.get(pos), Some(rec) if rec.thread == thread)
    }
}

impl SyncAgent for TotalOrderAgent {
    fn kind(&self) -> AgentKind {
        AgentKind::TotalOrder
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
            // The head moves on a master push or another slave thread's
            // reader advance; both post the ring's event count.
            VariantRole::Slave { index } if self.head_is_mine(index, ctx.thread as u32) => {
                SyncStep::Ready
            }
            VariantRole::Slave { .. } => self.core.block(WaitSite::Replay, self.ring.events()),
        }
    }

    fn after_sync_op(&self, ctx: &SyncContext, addr: u64) {
        match ctx.role {
            VariantRole::Master => self.guards.release(self.guards.bucket_for(addr)),
            // A bailed op claimed nothing: a foreign (or absent) head
            // record stays where it is.
            VariantRole::Slave { index } => {
                if !self.core.is_poisoned() || self.head_is_mine(index, ctx.thread as u32) {
                    self.ring.advance_reader(index);
                }
            }
        }
    }

    fn stats(&self) -> AgentStats {
        let mut stats = self.core.stats().snapshot();
        stats.cursor_rescans = self.ring.rescans();
        stats
    }

    fn poison(&self) {
        self.core.poison();
        // Unpark masters waiting on buffer space and slaves waiting for
        // their turn at the head.
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
    }

    #[test]
    fn master_records_are_replayed_in_identical_order() {
        let agent = Arc::new(TotalOrderAgent::new(config()));
        let addresses = [0x1000u64, 0x2000, 0x1000, 0x3000, 0x2000];

        // Master thread 0 records five ops.
        let master = SyncContext::new(VariantRole::Master, 0);
        for &addr in &addresses {
            with_sync_op(agent.as_ref(), &master, addr, || {});
        }

        // Slave thread 0 replays them; none of them should stall because the
        // slave is the only thread and the order matches.
        let slave = SyncContext::new(VariantRole::Slave { index: 0 }, 0);
        for &addr in &addresses {
            with_sync_op(agent.as_ref(), &slave, addr, || {});
        }

        let s = agent.stats();
        assert_eq!(s.ops_recorded, 5);
        assert_eq!(s.ops_replayed, 5);
        assert_eq!(agent.max_backlog(), 0);
    }

    #[test]
    fn slave_thread_stalls_until_other_thread_catches_up() {
        // Master order: thread 0 then thread 1.  In the slave, thread 1
        // arrives first and must stall until thread 0 has replayed its op —
        // the Figure 4a scenario.
        let agent = Arc::new(TotalOrderAgent::new(config()));
        let m0 = SyncContext::new(VariantRole::Master, 0);
        let m1 = SyncContext::new(VariantRole::Master, 1);
        with_sync_op(agent.as_ref(), &m0, 0xa000, || {});
        with_sync_op(agent.as_ref(), &m1, 0xb000, || {});

        let order = Arc::new(AtomicU64::new(0));

        let a1 = Arc::clone(&agent);
        let order1 = Arc::clone(&order);
        let slave_t1 = std::thread::spawn(move || {
            let ctx = SyncContext::new(VariantRole::Slave { index: 0 }, 1);
            with_sync_op(a1.as_ref(), &ctx, 0xbb00, || {
                order1.fetch_add(1, Ordering::SeqCst)
            })
        });

        // Give thread 1 a head start so it reaches its sync op first.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(order.load(Ordering::SeqCst), 0, "slave t1 must be stalled");

        let a0 = Arc::clone(&agent);
        let order0 = Arc::clone(&order);
        let slave_t0 = std::thread::spawn(move || {
            let ctx = SyncContext::new(VariantRole::Slave { index: 0 }, 0);
            with_sync_op(a0.as_ref(), &ctx, 0xaa00, || {
                order0.fetch_add(1, Ordering::SeqCst)
            })
        });

        let first = slave_t0.join().unwrap();
        let second = slave_t1.join().unwrap();
        assert_eq!(first, 0, "thread 0 executed first");
        assert_eq!(second, 1, "thread 1 executed second");
        assert!(agent.stats().slave_stalls >= 1);
    }

    #[test]
    fn multiple_slaves_consume_independently() {
        let cfg = AgentConfig::default()
            .with_variants(3)
            .with_threads(1)
            .with_buffer_capacity(64);
        let agent = TotalOrderAgent::new(cfg);
        let master = SyncContext::new(VariantRole::Master, 0);
        for i in 0..10u64 {
            with_sync_op(&agent, &master, 0x1000 + i * 8, || {});
        }
        let s0 = SyncContext::new(VariantRole::Slave { index: 0 }, 0);
        for i in 0..10u64 {
            with_sync_op(&agent, &s0, 0x1000 + i * 8, || {});
        }
        // Slave 1 has not consumed anything yet.
        assert_eq!(agent.max_backlog(), 10);
        let s1 = SyncContext::new(VariantRole::Slave { index: 1 }, 0);
        for i in 0..10u64 {
            with_sync_op(&agent, &s1, 0x1000 + i * 8, || {});
        }
        assert_eq!(agent.max_backlog(), 0);
        assert_eq!(agent.stats().ops_replayed, 20);
    }

    #[test]
    fn concurrent_master_threads_preserve_per_variable_order() {
        // Two master threads hammer the same variable; the recorded order
        // must match the actual execution order of the protected increments.
        let agent = Arc::new(TotalOrderAgent::new(
            AgentConfig::default()
                .with_variants(2)
                .with_threads(2)
                .with_buffer_capacity(4096),
        ));
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..2usize {
            let agent = Arc::clone(&agent);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                let ctx = SyncContext::new(VariantRole::Master, t);
                for _ in 0..500 {
                    with_sync_op(agent.as_ref(), &ctx, 0xc000, || {
                        counter.fetch_add(1, Ordering::SeqCst);
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 1000);
        assert_eq!(agent.stats().ops_recorded, 1000);
    }
}
