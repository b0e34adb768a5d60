//! Regression tests for the waiter's park/wake protocol.
//!
//! The failure mode these tests pin down is a *lost wake-up*: a slave (or
//! master) escalates through spin and yield, parks on a ring or clock-wall
//! event count, and then misses the notification that should have woken it —
//! a push, a cursor advance, or poison.  Each scenario drives a thread into
//! a parked state (tiny spin budget, long idle period), delivers exactly the
//! wake-up under test, and requires completion well inside a watchdog.  A
//! protocol regression turns these tests into deterministic timeouts with a
//! description of the stuck configuration, not flaky hangs.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use mvee_sync_agent::agents::{build_agent, AgentKind};
use mvee_sync_agent::context::{AgentConfig, SyncContext, VariantRole};
use mvee_sync_agent::SyncAgent;

/// Generous watchdog: a healthy wake costs microseconds (or at worst one
/// 1 ms park-timeout backstop); seconds of margin absorb CI noise.
const WATCHDOG: Duration = Duration::from_secs(20);

/// How long the waking thread sleeps before delivering the wake-up, so the
/// waiter is parked (not spinning) when it arrives.
const PARK_SETTLE: Duration = Duration::from_millis(50);

/// A tiny spin budget so waits escalate to parking almost immediately.
fn parky_config(variants: usize) -> AgentConfig {
    AgentConfig::default()
        .with_variants(variants)
        .with_threads(2)
        .with_buffer_capacity(8)
}

/// Runs `blocked` on its own thread and `wake` on this one (after
/// `PARK_SETTLE`); panics unless `blocked` finishes within the watchdog.
fn assert_wakes<T: Send + 'static>(
    what: &str,
    blocked: impl FnOnce() -> T + Send + 'static,
    wake: impl FnOnce(),
) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        let result = blocked();
        let _ = tx.send(());
        result
    });
    thread::sleep(PARK_SETTLE);
    let start = Instant::now();
    wake();
    match rx.recv_timeout(WATCHDOG) {
        Ok(()) => {
            let woke_after = start.elapsed();
            assert!(
                woke_after < WATCHDOG / 2,
                "{what}: woke only after {woke_after:?}"
            );
            handle.join().expect("blocked thread panicked")
        }
        Err(_) => panic!("{what}: parked thread missed its wake-up ({WATCHDOG:?} watchdog)"),
    }
}

/// A slave parked on an *empty* ring must wake when the master pushes.
#[test]
fn parked_slave_wakes_on_push() {
    for kind in AgentKind::replication_agents() {
        let agent: Arc<Box<dyn SyncAgent>> = Arc::new(build_agent(kind, parky_config(2)));
        let slave_agent = Arc::clone(&agent);
        assert_wakes(
            &format!("{kind:?} slave/push"),
            move || {
                let ctx = SyncContext::new(VariantRole::Slave { index: 0 }, 0);
                slave_agent.before_sync_op(&ctx, 0x5000);
                slave_agent.after_sync_op(&ctx, 0x5000);
            },
            || {
                let master = SyncContext::new(VariantRole::Master, 0);
                agent.before_sync_op(&master, 0x4000);
                agent.after_sync_op(&master, 0x4000);
            },
        );
        assert_eq!(agent.stats().ops_replayed, 1, "{kind:?}");
        assert!(
            agent.stats().slave_parks > 0,
            "{kind:?}: a {PARK_SETTLE:?} wait must have parked, not spun: {:?}",
            agent.stats()
        );
    }
}

/// A slave parked on an empty ring must wake on poison and bail out cleanly.
#[test]
fn parked_slave_wakes_on_poison() {
    for kind in AgentKind::replication_agents() {
        let agent: Arc<Box<dyn SyncAgent>> = Arc::new(build_agent(kind, parky_config(2)));
        let slave_agent = Arc::clone(&agent);
        assert_wakes(
            &format!("{kind:?} slave/poison"),
            move || {
                let ctx = SyncContext::new(VariantRole::Slave { index: 0 }, 0);
                slave_agent.before_sync_op(&ctx, 0x5000);
                slave_agent.after_sync_op(&ctx, 0x5000);
            },
            || agent.poison(),
        );
        assert!(agent.is_poisoned(), "{kind:?}");
        assert_eq!(
            agent.stats().ops_replayed,
            0,
            "{kind:?}: a poisoned bail-out must not count as a replay"
        );
    }
}

/// A master parked on a *full* ring (no slave draining) must wake when the
/// slave finally consumes a record.
#[test]
fn parked_master_wakes_on_reader_advance() {
    for kind in AgentKind::replication_agents() {
        let agent: Arc<Box<dyn SyncAgent>> = Arc::new(build_agent(kind, parky_config(2)));
        let master = SyncContext::new(VariantRole::Master, 0);
        // Fill the 8-slot buffer.
        for i in 0..8u64 {
            agent.before_sync_op(&master, 0x4000 + i * 64);
            agent.after_sync_op(&master, 0x4000 + i * 64);
        }
        let master_agent = Arc::clone(&agent);
        assert_wakes(
            &format!("{kind:?} master/drain"),
            move || {
                let ctx = SyncContext::new(VariantRole::Master, 0);
                master_agent.before_sync_op(&ctx, 0x9000);
                master_agent.after_sync_op(&ctx, 0x9000);
            },
            || {
                // The slave drains one record, freeing one slot.
                let ctx = SyncContext::new(VariantRole::Slave { index: 0 }, 0);
                agent.before_sync_op(&ctx, 0x5000);
                agent.after_sync_op(&ctx, 0x5000);
            },
        );
        let stats = agent.stats();
        assert_eq!(stats.ops_recorded, 9, "{kind:?}");
        assert!(stats.master_stalls > 0, "{kind:?}: the 9th push must stall");
    }
}

/// A master parked on a full ring must wake on poison (the slaves that
/// would have drained it are gone) and drop the record.
#[test]
fn parked_master_wakes_on_poison() {
    for kind in AgentKind::replication_agents() {
        let agent: Arc<Box<dyn SyncAgent>> = Arc::new(build_agent(kind, parky_config(2)));
        let master = SyncContext::new(VariantRole::Master, 0);
        for i in 0..8u64 {
            agent.before_sync_op(&master, 0x4000 + i * 64);
            agent.after_sync_op(&master, 0x4000 + i * 64);
        }
        let master_agent = Arc::clone(&agent);
        assert_wakes(
            &format!("{kind:?} master/poison"),
            move || {
                let ctx = SyncContext::new(VariantRole::Master, 0);
                master_agent.before_sync_op(&ctx, 0x9000);
                master_agent.after_sync_op(&ctx, 0x9000);
            },
            || agent.poison(),
        );
        assert_eq!(
            agent.stats().ops_recorded,
            8,
            "{kind:?}: the poisoned push must be dropped"
        );
    }
}

/// The wall-of-clocks slave parked on a *clock* (its record is published but
/// a dependent thread has not ticked yet) must wake on that tick.
#[test]
fn parked_woc_slave_wakes_on_clock_tick() {
    let agent: Arc<Box<dyn SyncAgent>> =
        Arc::new(build_agent(AgentKind::WallOfClocks, parky_config(2)));
    // Master: thread 0 then thread 1 touch the same variable — the slave's
    // thread 1 must wait for slave thread 0's tick.
    let m0 = SyncContext::new(VariantRole::Master, 0);
    let m1 = SyncContext::new(VariantRole::Master, 1);
    agent.before_sync_op(&m0, 0xC000);
    agent.after_sync_op(&m0, 0xC000);
    agent.before_sync_op(&m1, 0xC000);
    agent.after_sync_op(&m1, 0xC000);

    let slave_agent = Arc::clone(&agent);
    assert_wakes(
        "WallOfClocks slave/clock-tick",
        move || {
            let ctx = SyncContext::new(VariantRole::Slave { index: 0 }, 1);
            slave_agent.before_sync_op(&ctx, 0xCC00);
            slave_agent.after_sync_op(&ctx, 0xCC00);
        },
        || {
            let ctx = SyncContext::new(VariantRole::Slave { index: 0 }, 0);
            agent.before_sync_op(&ctx, 0xCC00);
            agent.after_sync_op(&ctx, 0xCC00);
        },
    );
    assert_eq!(agent.stats().ops_replayed, 2);
}

/// The wall-of-clocks slave parked on a clock must wake on poison and bail
/// out like every other wait site: no replay counted for it.
#[test]
fn parked_woc_slave_on_a_clock_wakes_on_poison_and_counts_no_replay() {
    let agent: Arc<Box<dyn SyncAgent>> =
        Arc::new(build_agent(AgentKind::WallOfClocks, parky_config(2)));
    let m0 = SyncContext::new(VariantRole::Master, 0);
    let m1 = SyncContext::new(VariantRole::Master, 1);
    agent.before_sync_op(&m0, 0xC000);
    agent.after_sync_op(&m0, 0xC000);
    agent.before_sync_op(&m1, 0xC000);
    agent.after_sync_op(&m1, 0xC000);

    let slave_agent = Arc::clone(&agent);
    assert_wakes(
        "WallOfClocks slave/clock-poison",
        move || {
            // Its record is published; slave thread 0 never ticks the clock.
            let ctx = SyncContext::new(VariantRole::Slave { index: 0 }, 1);
            slave_agent.before_sync_op(&ctx, 0xCC00);
            slave_agent.after_sync_op(&ctx, 0xCC00);
        },
        || agent.poison(),
    );
    assert_eq!(
        agent.stats().ops_replayed,
        0,
        "a poisoned bail-out must not count as a replay"
    );
}
