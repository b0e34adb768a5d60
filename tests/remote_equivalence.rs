//! Property tests: a distributed MVEE (leader/follower over a replication
//! channel) is observably equivalent to the in-proc synchronous MVEE.
//!
//! Under `Transport::Remote`, variant 0 executes behind a `LeaderPort` that
//! streams CRC-framed monitoring records to the follower's pump, which
//! drives the shared rendezvous machinery on its behalf.  For randomized
//! call plans across batch sizes ∈ {1, 8} and variant counts ∈ {2, 8}, a
//! remote run must produce exactly the same observable behaviour as an
//! in-proc run:
//!
//! * the same per-call success counts on every (variant, thread);
//! * the same monitor statistics after the remote barrier (quiescence);
//! * on injected mismatches, a field-identical `DivergenceReport` — same
//!   first-mismatch slot, same blamed thread/sequence/variant, same kind;
//! * on replication timeouts, byte-identical attribution.
//!
//! The socket flavours (Unix socketpair, TCP loopback) run the same frames
//! through a real kernel byte stream — partial reads, coalesced writes —
//! and must change nothing.  Publishes the leader holds for a later write
//! must never strand a slave: not another leader thread's while this one
//! is parked, nor this thread's own while it computes past the lockstep
//! timeout.

use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use proptest::prelude::*;

use mvee::core::config::{RemoteChannel, Transport};
use mvee::core::monitor::MonitorStats;
use mvee::core::mvee::Mvee;
use mvee::core::{DivergenceReport, MonitoringPolicy};
use mvee::kernel::syscall::{SyscallRequest, Sysno};
use mvee::sync_agent::agents::AgentKind;

/// The transports under comparison.
#[derive(Clone, Copy, PartialEq)]
enum Path {
    /// In-proc: every variant blocks inline in the monitor pipeline.
    Sync,
    /// Distributed: variant 0 is a remote leader over the given channel.
    Remote(RemoteChannel),
}

/// The call an op tag stands for — the same benign mix as the transport
/// equivalence suites, covering the deferrable, replicated, ordered and
/// unmonitored paths.
fn req_for(tag: u8) -> SyscallRequest {
    match tag % 5 {
        0 => SyscallRequest::new(Sysno::Brk).with_int(0),
        1 => SyscallRequest::new(Sysno::Mmap).with_int(8192),
        2 => SyscallRequest::new(Sysno::Mprotect).with_int(4096),
        3 => SyscallRequest::new(Sysno::Gettimeofday),
        _ => SyscallRequest::new(Sysno::SchedYield),
    }
}

fn build_mvee(path: Path, variants: usize, threads: usize, batch: usize) -> Mvee {
    let transport = match path {
        Path::Sync => Transport::Sync,
        Path::Remote(channel) => Transport::Remote { channel },
    };
    Mvee::builder()
        .variants(variants)
        .threads(threads.max(1))
        .agent(AgentKind::Null)
        .batch(batch)
        .transport(transport)
        .lockstep_timeout(Duration::from_secs(10))
        .manual_clock(true)
        .build()
}

/// Runs `plan` (one op-tag vector per logical thread, identical in every
/// variant) through a fresh MVEE on real OS threads.  Variant 0 goes
/// through the leader port on remote paths and the in-proc port otherwise;
/// remote runs quiesce through the barrier before stats are read.
fn run_plan(
    path: Path,
    variants: usize,
    batch: usize,
    plan: &[Vec<u8>],
) -> (Vec<u64>, MonitorStats, Option<DivergenceReport>) {
    let mvee = Arc::new(build_mvee(path, variants, plan.len(), batch));
    let plan = Arc::new(plan.to_vec());
    let mut handles = Vec::new();
    for variant in 0..variants {
        for thread in 0..plan.len() {
            let mvee = Arc::clone(&mvee);
            let plan = Arc::clone(&plan);
            handles.push(std::thread::spawn(move || {
                let mut ok = 0u64;
                if path != Path::Sync && variant == 0 {
                    let port = mvee.leader_port(thread);
                    for &tag in &plan[thread] {
                        if port.syscall(&req_for(tag)).is_ok() {
                            ok += 1;
                        }
                    }
                } else {
                    let port = mvee.thread_port(variant, thread);
                    for &tag in &plan[thread] {
                        if port.syscall(&req_for(tag)).is_ok() {
                            ok += 1;
                        }
                    }
                }
                ((variant, thread), ok)
            }));
        }
    }
    let mut collected: Vec<((usize, usize), u64)> = handles
        .into_iter()
        .map(|h| h.join().expect("plan thread panicked"))
        .collect();
    collected.sort_by_key(|(id, _)| *id);
    let oks = collected.into_iter().map(|(_, ok)| ok).collect();
    if path != Path::Sync {
        mvee.remote_barrier()
            .expect("the replication channel must stay healthy on clean plans");
        assert!(
            mvee.remote_fault().is_none(),
            "no peer failure on a clean plan"
        );
    }
    (oks, mvee.monitor_stats(), mvee.divergence())
}

proptest! {
    /// Clean plans: the remote leader and the in-proc master agree on
    /// every per-call outcome and every monitor counter — including the
    /// detection-lag field, which must stay zero when nothing diverges.
    #[test]
    fn remote_matches_in_proc_on_clean_plans(
        plan in proptest::collection::vec(proptest::collection::vec(0u8..5, 1..10), 1..3),
        variants_sel in 0usize..2,
        batch_sel in 0usize..2,
    ) {
        let variants = [2usize, 8][variants_sel];
        let batch = [1usize, 8][batch_sel];
        let (sync_ok, sync_stats, sync_div) = run_plan(Path::Sync, variants, batch, &plan);
        let (rem_ok, rem_stats, rem_div) =
            run_plan(Path::Remote(RemoteChannel::InProc), variants, batch, &plan);
        prop_assert!(sync_div.is_none(), "in-proc run diverged: {sync_div:?}");
        prop_assert!(rem_div.is_none(), "remote run diverged: {rem_div:?}");
        prop_assert_eq!(&sync_ok, &rem_ok,
            "in-proc vs remote outcomes differ (variants={}, batch={})", variants, batch);
        prop_assert_eq!(&sync_stats, &rem_stats,
            "in-proc vs remote stats differ (variants={}, batch={})", variants, batch);
        prop_assert_eq!(rem_stats.detection_lag_sync_ops, 0,
            "clean plans must accumulate no detection lag");
    }
}

/// The injected-mismatch scenario across the in-proc transport and all
/// three remote channels: one thread, two variants, a mid-batch divergent
/// mprotect followed by a synchronous write that forces the flush.  All
/// runs must blame exactly the same (thread, sequence, variant) — streaming
/// the batch over a byte channel must not smear the first-mismatch slot.
#[test]
fn remote_reports_identical_mismatch_verdicts() {
    let mprotect = |len: i64| SyscallRequest::new(Sysno::Mprotect).with_int(len);
    let write = || {
        SyscallRequest::new(Sysno::Write)
            .with_fd(1)
            .with_payload(b"flush")
    };
    for batch in [1usize, 8] {
        let mut reports = Vec::new();
        for path in [
            Path::Sync,
            Path::Remote(RemoteChannel::InProc),
            Path::Remote(RemoteChannel::Unix),
            Path::Remote(RemoteChannel::Tcp),
        ] {
            let mvee = Arc::new(build_mvee(path, 2, 1, batch));
            let mut handles = Vec::new();
            for variant in 0..2 {
                let mvee = Arc::clone(&mvee);
                handles.push(std::thread::spawn(move || {
                    let lens: [i64; 3] = if variant == 0 {
                        [4096, 4096, 4096]
                    } else {
                        [4096, 666, 4096]
                    };
                    if path != Path::Sync && variant == 0 {
                        let port = mvee.leader_port(0);
                        for len in lens {
                            port.syscall(&mprotect(len))?;
                        }
                        port.syscall(&write()).map(|_| ())
                    } else {
                        let port = mvee.thread_port(variant, 0);
                        for len in lens {
                            port.syscall(&mprotect(len))?;
                        }
                        port.syscall(&write()).map(|_| ())
                    }
                }));
            }
            let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert!(
                results.iter().any(|r| r.is_err()),
                "the mismatch must surface on at least one variant"
            );
            reports.push(mvee.divergence().expect("divergence report"));
        }
        let sync = &reports[0];
        assert_eq!(sync.sequence, 1, "must blame the exact mid-batch slot");
        assert_eq!(sync.variant, 1);
        for other in &reports[1..] {
            assert_eq!(
                sync.sequence, other.sequence,
                "batch={batch}: first-mismatch slot differs between transports"
            );
            assert_eq!(sync.thread, other.thread);
            assert_eq!(sync.variant, other.variant, "blamed variant differs");
            assert_eq!(
                std::mem::discriminant(&sync.kind),
                std::mem::discriminant(&other.kind),
                "divergence kind differs"
            );
        }
    }
}

/// A replication slave that times out must produce a byte-identical
/// `ReplicationTimeout` report whether the publisher is the in-proc master
/// or a remote leader that never issues the call: same `publisher`, same
/// `arrived` set, same (thread, sequence, variant).
#[test]
fn remote_replication_timeout_verdicts_are_field_identical() {
    let mut reports = Vec::new();
    for path in [Path::Sync, Path::Remote(RemoteChannel::InProc)] {
        let mvee = Arc::new(
            Mvee::builder()
                .variants(2)
                .threads(1)
                .agent(AgentKind::Null)
                .batch(1)
                .transport(match path {
                    Path::Sync => Transport::Sync,
                    Path::Remote(channel) => Transport::Remote { channel },
                })
                .lockstep_timeout(Duration::from_millis(200))
                .manual_clock(true)
                .build(),
        );
        // Only the slave issues the replicated call; the leader/master
        // never publishes, so the slave's wait must expire.
        let r = mvee
            .thread_port(1, 0)
            .syscall(&SyscallRequest::new(Sysno::Gettimeofday));
        assert!(r.is_err(), "the slave's replication wait must time out");
        reports.push(mvee.divergence().expect("divergence report"));
    }
    let sync = &reports[0];
    assert!(
        matches!(
            sync.kind,
            mvee::core::DivergenceKind::ReplicationTimeout { publisher: 0, .. }
        ),
        "expected a ReplicationTimeout blaming the master, got {:?}",
        sync.kind
    );
    assert_eq!(
        &reports[0], &reports[1],
        "replication-timeout reports must be field-identical across transports"
    );
}

/// A leader that never arrives at a synchronous rendezvous earns the same
/// `RendezvousTimeout` attribution the in-proc master would: the report
/// blames variant 0 (the missing peer), listing exactly the variants that
/// did arrive.
#[test]
fn remote_rendezvous_timeout_blames_the_absent_leader() {
    let mut reports = Vec::new();
    for path in [Path::Sync, Path::Remote(RemoteChannel::InProc)] {
        let mvee = Arc::new(
            Mvee::builder()
                .variants(2)
                .threads(1)
                .agent(AgentKind::Null)
                .batch(1)
                .transport(match path {
                    Path::Sync => Transport::Sync,
                    Path::Remote(channel) => Transport::Remote { channel },
                })
                .lockstep_timeout(Duration::from_millis(200))
                .manual_clock(true)
                .build(),
        );
        // Only the slave issues the lockstep write; variant 0 never shows.
        let r = mvee.thread_port(1, 0).syscall(
            &SyscallRequest::new(Sysno::Write)
                .with_fd(1)
                .with_payload(b"alone"),
        );
        assert!(r.is_err(), "the rendezvous must time out");
        reports.push(mvee.divergence().expect("divergence report"));
    }
    assert!(
        matches!(
            reports[0].kind,
            mvee::core::DivergenceKind::RendezvousTimeout { .. }
        ),
        "expected a RendezvousTimeout, got {:?}",
        reports[0].kind
    );
    assert_eq!(reports[0].variant, 0, "the absent leader must be blamed");
    assert_eq!(
        &reports[0], &reports[1],
        "rendezvous-timeout reports must be field-identical across transports"
    );
}

/// Socket-loopback smoke: the Unix and TCP channels carry a clean
/// multi-thread plan to the same outcomes and counters as the in-proc
/// channel — the framed protocol survives a real kernel byte stream.
#[test]
fn socket_loopback_channels_match_in_proc_channel() {
    let plan: Vec<Vec<u8>> = vec![vec![0, 1, 2, 3, 4, 0, 1, 2], vec![3, 2, 1, 0, 4, 3]];
    let (sync_ok, sync_stats, sync_div) = run_plan(Path::Sync, 2, 8, &plan);
    assert!(sync_div.is_none());
    for channel in [
        RemoteChannel::InProc,
        RemoteChannel::Unix,
        RemoteChannel::Tcp,
    ] {
        let (ok, stats, div) = run_plan(Path::Remote(channel), 2, 8, &plan);
        assert!(div.is_none(), "{channel:?} loopback run diverged: {div:?}");
        assert_eq!(
            sync_ok, ok,
            "{channel:?} loopback outcomes differ from in-proc"
        );
        assert_eq!(
            sync_stats, stats,
            "{channel:?} loopback stats differ from in-proc"
        );
    }
}

/// The leader port panics are real: acquiring an in-proc port for variant 0
/// of a distributed MVEE is refused, as is a leader port on a non-remote
/// MVEE.
#[test]
fn leader_port_acquisition_is_guarded() {
    let remote = build_mvee(Path::Remote(RemoteChannel::InProc), 2, 1, 1);
    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = remote.thread_port(0, 0);
    }));
    assert!(
        refused.is_err(),
        "an in-proc port for the remote leader must be refused"
    );
    drop(remote);
    let local = build_mvee(Path::Sync, 2, 1, 1);
    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = local.leader_port(0);
    }));
    assert!(
        refused.is_err(),
        "a leader port without Transport::Remote must be refused"
    );
}

/// The leader holds a deferred ordered call's `Publish` for its batch's
/// write.  When that thread then parks outside the MVEE, a slave of
/// *another* thread must still get every frame it waits on: thread 1's slave
/// needs thread 0's timestamp on the shared shard clock, so thread 0's held
/// `Publish` has to go out with thread 1's push.  Thread 0's leader stays
/// parked until thread 1's slave has finished both of its calls.
///
/// The 60 s lockstep timeout puts the leader's periodic flush of held
/// frames 7.5 s out, past the 5 s this test gives slave thread 1: only
/// thread 1's own push can release it in time.
#[test]
fn a_parked_leader_thread_does_not_strand_another_threads_slave() {
    let mvee = Arc::new(
        Mvee::builder()
            .variants(2)
            .threads(2)
            .shards(1)
            .agent(AgentKind::Null)
            .batch(8)
            .policy(MonitoringPolicy::SecuritySensitiveOnly)
            .transport(Transport::Remote {
                channel: RemoteChannel::InProc,
            })
            .lockstep_timeout(Duration::from_secs(60))
            .manual_clock(true)
            .build(),
    );
    // Deferred comparison, ordered on the one shard clock.
    let mprotect = || SyscallRequest::new(Sysno::Mprotect).with_int(4096);
    let gettimeofday = || SyscallRequest::new(Sysno::Gettimeofday);
    // Leader thread 0 and slave thread 0 keep their ports (and so their
    // half-full batches) until the main thread releases them.
    let release = Arc::new(Barrier::new(3));
    let (parked_tx, parked_rx) = mpsc::channel();
    let leader_0 = {
        let (mvee, release) = (Arc::clone(&mvee), Arc::clone(&release));
        std::thread::spawn(move || {
            let port = mvee.leader_port(0);
            let result = port.syscall(&mprotect()).map(|_| ());
            parked_tx.send(()).expect("the main thread waits for this");
            release.wait();
            result
        })
    };
    let slave_0 = {
        let (mvee, release) = (Arc::clone(&mvee), Arc::clone(&release));
        std::thread::spawn(move || {
            let port = mvee.thread_port(1, 0);
            let result = port.syscall(&mprotect()).map(|_| ());
            release.wait();
            result
        })
    };
    parked_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("leader thread 0 issued its call");
    let (slave_1_tx, slave_1_rx) = mpsc::channel();
    let slave_1 = {
        let mvee = Arc::clone(&mvee);
        std::thread::spawn(move || {
            let port = mvee.thread_port(1, 1);
            let result = port
                .syscall(&mprotect())
                .and_then(|_| port.syscall(&gettimeofday()))
                .map(|_| ());
            let _ = slave_1_tx.send(result);
        })
    };
    let leader_1 = mvee.leader_port(1);
    leader_1
        .syscall(&mprotect())
        .expect("leader thread 1's ordered call");
    leader_1
        .syscall(&gettimeofday())
        .expect("leader thread 1's replicated call");
    let slave_1_result = slave_1_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("slave thread 1 must finish while leader thread 0 is parked");
    assert_eq!(
        slave_1_result,
        Ok(()),
        "slave thread 1 was stranded behind leader thread 0's held frame"
    );
    assert!(
        !leader_0.is_finished(),
        "leader thread 0 must still be parked"
    );
    assert_eq!(mvee.divergence(), None);
    release.wait();
    for (who, handle) in [("leader 0", leader_0), ("slave 0", slave_0)] {
        let result = handle.join().expect("thread panicked");
        assert_eq!(result, Ok(()), "{who}");
    }
    slave_1.join().expect("slave thread 1 panicked");
    drop(leader_1);
    mvee.remote_barrier()
        .expect("the replication channel must stay healthy");
    assert_eq!(mvee.divergence(), None);
    assert_eq!(mvee.remote_fault(), None);
}

/// A held `Publish` must reach its slave within the slave's outcome
/// deadline even when the leader thread, right after the deferred ordered
/// call, computes outside the MVEE for longer than a lockstep timeout and
/// so pushes nothing.  The in-proc master publishes at once; the remote
/// leader may hold the frame for an eighth of the timeout at most.
#[test]
fn a_leader_computing_past_the_lockstep_timeout_does_not_strand_its_slave() {
    let mvee = Arc::new(
        Mvee::builder()
            .variants(2)
            .threads(1)
            .agent(AgentKind::Null)
            .batch(8)
            .transport(Transport::Remote {
                channel: RemoteChannel::InProc,
            })
            .lockstep_timeout(Duration::from_millis(200))
            .manual_clock(true)
            .build(),
    );
    let mprotect = || SyscallRequest::new(Sysno::Mprotect).with_int(4096);
    let gettimeofday = || SyscallRequest::new(Sysno::Gettimeofday);
    let (done_tx, done_rx) = mpsc::channel();
    let (resume_tx, resume_rx) = mpsc::channel();
    let slave = {
        let mvee = Arc::clone(&mvee);
        std::thread::spawn(move || {
            let port = mvee.thread_port(1, 0);
            let _ = done_tx.send(port.syscall(&mprotect()).map(|_| ()));
            // The port keeps its half-full batch until the leader is back:
            // flushing it now would wait for a batch the leader has not
            // streamed, in-proc as much as remote.
            resume_rx.recv().expect("the main thread resumes the slave");
            port.syscall(&gettimeofday()).map(|_| ())
        })
    };
    let leader = mvee.leader_port(0);
    leader
        .syscall(&mprotect())
        .expect("the leader's deferred ordered call");
    // Computing: no syscall, so no push, for 2.5 lockstep timeouts.
    std::thread::sleep(Duration::from_millis(500));
    assert_eq!(
        done_rx.try_recv(),
        Ok(Ok(())),
        "the slave's mprotect must complete while its leader computes"
    );
    assert_eq!(mvee.divergence(), None);
    resume_tx.send(()).expect("the slave waits for this");
    leader
        .syscall(&gettimeofday())
        .expect("the leader's replicated call");
    assert_eq!(slave.join().expect("slave thread panicked"), Ok(()));
    drop(leader);
    mvee.remote_barrier()
        .expect("the replication channel must stay healthy");
    assert_eq!(mvee.divergence(), None);
    assert_eq!(mvee.remote_fault(), None);
}
