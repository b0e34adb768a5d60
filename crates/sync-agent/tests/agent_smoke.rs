//! Master/2-slave smoke tests for every replication agent.
//!
//! Each test drives one agent with a master variant and two slave variants,
//! two logical threads per variant, all running as real OS threads at once.
//! The scenario mixes contended (shared-address) and private sync ops, the
//! mixture that distinguishes the three ordering disciplines (§4.5 of the
//! paper).  A bounded-time watchdog turns a replay deadlock — the classic
//! failure mode of an ordering agent — into a test failure instead of a hung
//! test binary.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mvee_sync_agent::agents::{build_agent, AgentKind};
use mvee_sync_agent::context::{AgentConfig, SyncContext, VariantRole};
use mvee_sync_agent::SyncAgent;

/// Worker threads per variant.
const THREADS: usize = 2;
/// Sync ops each thread performs.
const OPS_PER_THREAD: u64 = 300;
/// Total variants: one master plus two slaves.
const VARIANTS: usize = 3;
/// How long the watchdog waits before declaring a deadlock.
const WATCHDOG: Duration = Duration::from_secs(30);

/// The deterministic per-thread op sequence: alternates between one address
/// shared by both threads (a contended lock) and a thread-private one, so the
/// recorded order genuinely interleaves threads.
fn op_address(thread: usize, op: u64) -> u64 {
    if op.is_multiple_of(2) {
        0x1000 // shared synchronization variable
    } else {
        0x2000 + (thread as u64) * 8 // thread-private variable
    }
}

/// Runs `variants` variants × `threads` threads concurrently through `ops`
/// sync ops each and returns the agent for stats inspection.  Panics via the
/// watchdog if the run deadlocks.
fn run_scenario(
    kind: AgentKind,
    variants: usize,
    threads: usize,
    ops: u64,
) -> Arc<Box<dyn SyncAgent>> {
    let config = AgentConfig::default()
        .with_variants(variants)
        .with_threads(threads)
        .with_buffer_capacity(1024);
    let agent: Arc<Box<dyn SyncAgent>> = Arc::new(build_agent(kind, config));

    let scenario_agent = Arc::clone(&agent);
    let (done_tx, done_rx) = mpsc::channel();
    let scenario = thread::spawn(move || {
        let mut workers = Vec::new();
        for variant in 0..variants {
            for t in 0..threads {
                let agent = Arc::clone(&scenario_agent);
                workers.push(thread::spawn(move || {
                    let ctx = SyncContext::new(VariantRole::from_variant_index(variant), t);
                    for op in 0..ops {
                        let addr = op_address(t, op);
                        agent.before_sync_op(&ctx, addr);
                        agent.after_sync_op(&ctx, addr);
                    }
                }));
            }
        }
        for worker in workers {
            worker.join().expect("worker thread panicked");
        }
        let _ = done_tx.send(());
    });

    match done_rx.recv_timeout(WATCHDOG) {
        Ok(()) => {
            scenario.join().expect("scenario thread panicked");
            agent
        }
        Err(_) => panic!(
            "{:?} agent deadlocked: {variants}-variant x {threads}-thread run \
             did not finish within {WATCHDOG:?}; stats so far: {:?}",
            kind,
            agent.stats()
        ),
    }
}

/// Runs the master and both slaves concurrently and returns the agent for
/// stats inspection.  Panics via the watchdog if the run deadlocks.
fn run_master_two_slaves(kind: AgentKind) -> Arc<Box<dyn SyncAgent>> {
    run_scenario(kind, VARIANTS, THREADS, OPS_PER_THREAD)
}

fn assert_replication_invariants(kind: AgentKind) {
    let agent = run_master_two_slaves(kind);
    let stats = agent.stats();
    let expected_recorded = (THREADS as u64) * OPS_PER_THREAD;
    assert_eq!(
        stats.ops_recorded, expected_recorded,
        "{kind:?}: master must record every op exactly once"
    );
    assert!(
        stats.ops_replayed >= stats.ops_recorded,
        "{kind:?}: with two slaves, replayed ops ({}) must be at least the recorded ops ({})",
        stats.ops_replayed,
        stats.ops_recorded
    );
}

#[test]
fn total_order_agent_master_two_slaves_smoke() {
    assert_replication_invariants(AgentKind::TotalOrder);
}

#[test]
fn partial_order_agent_master_two_slaves_smoke() {
    assert_replication_invariants(AgentKind::PartialOrder);
}

#[test]
fn wall_of_clocks_agent_master_two_slaves_smoke() {
    assert_replication_invariants(AgentKind::WallOfClocks);
}

#[test]
fn wall_of_clocks_eight_variants_sixteen_threads_smoke() {
    // The many-variant (8-variant × 16-thread) configuration the monitor
    // sharding refactor targets: one master, seven slaves, 128 OS threads.
    const STRESS_VARIANTS: usize = 8;
    const STRESS_THREADS: usize = 16;
    const STRESS_OPS: u64 = 100;
    let agent = run_scenario(
        AgentKind::WallOfClocks,
        STRESS_VARIANTS,
        STRESS_THREADS,
        STRESS_OPS,
    );
    let stats = agent.stats();
    let expected_recorded = (STRESS_THREADS as u64) * STRESS_OPS;
    assert_eq!(stats.ops_recorded, expected_recorded);
    // Seven slaves each replay the full recording.
    assert_eq!(
        stats.ops_replayed,
        (STRESS_VARIANTS as u64 - 1) * expected_recorded
    );
}

#[test]
fn one_variant_runs_far_past_the_ring_capacity() {
    // Regression: a master without slaves used to record into a ring whose
    // phantom reader never advanced, and hung for good once the ring had
    // filled (after `buffer_capacity` sync ops).
    for kind in [
        AgentKind::TotalOrder,
        AgentKind::PartialOrder,
        AgentKind::WallOfClocks,
    ] {
        let agent = run_scenario(kind, 1, 1, 100_000);
        assert_eq!(agent.stats().ops_recorded, 100_000, "{kind:?}");
    }
}

#[test]
fn poisoning_unblocks_a_stalled_slave_replay() {
    // A slave thread blocked on a recording that will never continue (the
    // master died after divergence) must return promptly once the agent is
    // poisoned — the deadlock the monitor's poison hook exists to prevent.
    for kind in [
        AgentKind::TotalOrder,
        AgentKind::PartialOrder,
        AgentKind::WallOfClocks,
    ] {
        let config = AgentConfig::default().with_variants(2).with_threads(2);
        let agent: Arc<Box<dyn SyncAgent>> = Arc::new(build_agent(kind, config));
        let blocked = Arc::clone(&agent);
        let (done_tx, done_rx) = mpsc::channel();
        let slave = thread::spawn(move || {
            let ctx = SyncContext::new(VariantRole::Slave { index: 0 }, 0);
            // Nothing was ever recorded: this blocks until poisoned.
            blocked.before_sync_op(&ctx, 0x1000);
            blocked.after_sync_op(&ctx, 0x1000);
            let _ = done_tx.send(());
        });
        thread::sleep(Duration::from_millis(50));
        agent.poison();
        assert!(agent.is_poisoned(), "{kind:?}");
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("{kind:?}: poisoned slave stayed blocked"));
        slave.join().expect("slave thread panicked");
        // A poisoned bail-out replays nothing.
        assert_eq!(agent.stats().ops_replayed, 0, "{kind:?}");
    }
}

#[test]
fn null_agent_counts_ops_and_never_blocks() {
    let agent = run_master_two_slaves(AgentKind::Null);
    let stats = agent.stats();
    let per_variant = (THREADS as u64) * OPS_PER_THREAD;
    assert_eq!(stats.ops_recorded, per_variant);
    // Two slave variants pass through the agent without any ordering; every
    // slave op is still counted as replayed.
    assert_eq!(stats.ops_replayed, 2 * per_variant);
    assert_eq!(stats.slave_stalls, 0, "the null agent never stalls a slave");
}

/// The post-divergence deadlock scenarios on the full monitor + agent pair:
/// batched (batch ≥ 2) configurations with deferred comparisons in flight
/// when the MVEE dies, and a slave parked in a replay wait.  Divergence must
/// poison the rendezvous table *and* the agent, so that threads blocked in a
/// batch flush and threads blocked in a replay wait both return within the
/// watchdog window.
mod batched_shutdown {
    use super::*;
    use mvee_core::mvee::Mvee;
    use mvee_kernel::syscall::{SyscallArg, SyscallRequest, Sysno};

    /// Watchdog for the batched shutdown scenarios: generous against
    /// scheduler noise, tiny against the 400 s CI stalls it guards.
    const BATCH_WATCHDOG: Duration = Duration::from_secs(20);

    fn mprotect(len: i64) -> SyscallRequest {
        SyscallRequest::new(Sysno::Mprotect)
            .with_arg(SyscallArg::Pointer(0x7a00_0000))
            .with_int(len)
    }

    fn batched_mvee(batch: usize, timeout: Duration) -> Arc<Mvee> {
        Arc::new(
            Mvee::builder()
                .variants(2)
                .threads(2)
                .agent(AgentKind::WallOfClocks)
                .batch(batch)
                .lockstep_timeout(timeout)
                .manual_clock(true)
                .build(),
        )
    }

    /// Runs `f` on a scenario thread and panics if it outlives the watchdog.
    fn with_watchdog<T: Send + 'static>(label: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (done_tx, done_rx) = mpsc::channel();
        let scenario = thread::spawn(move || {
            let _ = done_tx.send(f());
        });
        match done_rx.recv_timeout(BATCH_WATCHDOG) {
            Ok(value) => {
                scenario.join().expect("scenario thread panicked");
                value
            }
            Err(_) => panic!("{label}: batched shutdown scenario deadlocked ({BATCH_WATCHDOG:?})"),
        }
    }

    #[test]
    fn divergence_mid_batch_poisons_and_unblocks_batched_waiters() {
        for batch in [2usize, 8] {
            let mvee = batched_mvee(batch, Duration::from_secs(10));
            let label = format!("mid-batch divergence, batch={batch}");
            let m = Arc::clone(&mvee);
            let (master_r, slave_r) = with_watchdog(&label, move || {
                // Both variants defer mprotect comparisons; the slave's
                // second one carries different compared arguments.  A
                // synchronous write forces both flushes: the mismatch lands
                // mid-batch and must shut the whole MVEE down promptly —
                // neither side may sit out its (here: 10 s) lockstep
                // timeout, let alone the watchdog.
                let stream = move |port: mvee_core::port::ThreadPort, lens: [i64; 3]| {
                    let result = (|| {
                        for len in lens {
                            port.syscall(&mprotect(len))?;
                        }
                        port.syscall(
                            &SyscallRequest::new(Sysno::Write)
                                .with_fd(1)
                                .with_payload(b"x"),
                        )
                    })();
                    assert_eq!(
                        port.pending_comparisons(),
                        0,
                        "batch={batch}: pending comparisons must be abandoned"
                    );
                    result
                };
                let mm = Arc::clone(&m);
                let slave = thread::spawn(move || stream(mm.thread_port(1, 0), [4096, 666, 4096]));
                let master = stream(m.thread_port(0, 0), [4096; 3]);
                (master, slave.join().unwrap())
            });
            assert!(
                master_r.is_err() || slave_r.is_err(),
                "batch={batch}: the mismatch must surface"
            );
            assert!(mvee.monitor().has_diverged(), "batch={batch}");
            assert!(
                mvee.agent().is_poisoned(),
                "batch={batch}: divergence must poison the agent"
            );
            let report = mvee.divergence().expect("divergence report");
            assert_eq!(
                report.sequence, 1,
                "batch={batch}: must blame the exact slot"
            );
        }
    }

    #[test]
    fn exit_mid_batch_poisons_and_unblocks_batched_waiters_and_replay() {
        for batch in [2usize, 8] {
            // Short lockstep timeout: the "exited" peer is detected by the
            // rendezvous deadline, well inside the watchdog window.
            let mvee = batched_mvee(batch, Duration::from_millis(400));
            let label = format!("mid-batch exit, batch={batch}");

            // A slave thread blocks in a replay wait for a recording that
            // will never continue — the deadlock the poison hook prevents.
            let (replay_tx, replay_rx) = mpsc::channel();
            let blocked = Arc::clone(mvee.agent());
            let replay = thread::spawn(move || {
                let ctx = SyncContext::new(VariantRole::Slave { index: 0 }, 1);
                blocked.before_sync_op(&ctx, 0x1000);
                blocked.after_sync_op(&ctx, 0x1000);
                let _ = replay_tx.send(());
            });

            let m = Arc::clone(&mvee);
            let master = with_watchdog(&label, move || {
                // The slave variant "exits mid-batch": it defers one
                // comparison and then its thread is gone, never flushing.
                // It runs concurrently with the master (its ordered call
                // needs the master's published outcome to proceed).
                let mm = Arc::clone(&m);
                let slave = thread::spawn(move || {
                    let _ = mm.thread_port(1, 0).syscall(&mprotect(4096));
                });
                // The master fills and flushes a batch; the flush blocks on
                // the vanished peer, times out, and must convert into a
                // divergence instead of a hang.
                let port = m.thread_port(0, 0);
                let result = (|| {
                    for _ in 0..2 {
                        port.syscall(&mprotect(4096))?;
                    }
                    port.syscall(
                        &SyscallRequest::new(Sysno::Write)
                            .with_fd(1)
                            .with_payload(b"x"),
                    )
                })();
                assert_eq!(port.pending_comparisons(), 0, "batch={batch}");
                slave.join().expect("slave thread panicked");
                result
            });
            assert!(master.is_err(), "batch={batch}: the flush must fail");
            assert!(mvee.monitor().has_diverged(), "batch={batch}");
            assert!(mvee.agent().is_poisoned(), "batch={batch}");
            // The poison must also release the replay-blocked slave thread.
            replay_rx
                .recv_timeout(BATCH_WATCHDOG)
                .unwrap_or_else(|_| panic!("batch={batch}: poisoned replay stayed blocked"));
            replay.join().expect("replay thread panicked");
        }
    }

    /// Clean shutdown from a parked state: a slave thread is parked deep in
    /// a replay wait (its master counterpart never records), divergence
    /// strikes on an unrelated thread, and the poison → unpark chain must
    /// release the parked slave within the watchdog, for every replication
    /// agent.
    #[test]
    fn divergence_unparks_waiting_slaves_for_clean_shutdown() {
        for kind in AgentKind::replication_agents() {
            let mvee = Arc::new(
                Mvee::builder()
                    .variants(2)
                    .threads(2)
                    .agent(kind)
                    .agent_config(AgentConfig::default().with_buffer_capacity(256))
                    .lockstep_timeout(Duration::from_secs(15))
                    .manual_clock(true)
                    .build(),
            );
            let (done_tx, done_rx) = mpsc::channel();
            // Thread 1 of the slave variant: replays an op thread 1 of the
            // master never records — it can only return via poison.
            let parked = {
                let mvee = Arc::clone(&mvee);
                thread::spawn(move || {
                    let port = mvee.thread_port(1, 1);
                    port.sync_op(0xBEEF, || ());
                    let _ = done_tx.send(());
                })
            };
            // Let the slave reach its parked state.
            thread::sleep(Duration::from_millis(50));
            // Thread 0: both variants arrive at a compared write, but the
            // slave's payload diverges — divergence, then poison.
            let write = |payload: &[u8]| {
                SyscallRequest::new(Sysno::Write)
                    .with_fd(1)
                    .with_payload(payload)
            };
            let slave_w = {
                let mvee = Arc::clone(&mvee);
                thread::spawn(move || mvee.thread_port(1, 0).syscall(&write(b"BAD")))
            };
            let master_r = mvee.thread_port(0, 0).syscall(&write(b"GOOD"));
            let slave_r = slave_w.join().unwrap();
            assert!(master_r.is_err() || slave_r.is_err(), "{kind:?}");
            match done_rx.recv_timeout(WATCHDOG) {
                Ok(()) => parked.join().expect("parked slave panicked"),
                Err(_) => panic!(
                    "{kind:?}: parked slave missed the poison wake-up \
                     ({WATCHDOG:?} watchdog); stats: {:?}",
                    mvee.agent_stats()
                ),
            }
            assert!(mvee.agent().is_poisoned(), "{kind:?}");
            let report = mvee.divergence().expect("divergence report");
            assert_eq!((report.thread, report.variant), (0, 1), "{kind:?}");
        }
    }
}
