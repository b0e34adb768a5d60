//! Fault injection against the replication channel: a follower killed
//! mid-batch, a torn connection and garbage byte streams must each surface
//! as a *typed* [`PeerFailure`] naming the missing peer — never a hang, a
//! panic, or a bogus divergence verdict.
//!
//! Every live scenario runs under a watchdog: the failure mode these tests
//! guard against is a leader (or an in-proc slave) blocked forever on a
//! peer that will never answer.  The same raw-channel splice also counts
//! the wire traffic of a healthy stream: one write per burst, one ack per
//! wait.

use std::io::{Read, Write};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use mvee::core::config::{RecoveryPolicy, RemoteChannel, Transport};
use mvee::core::frame::next_frame;
use mvee::core::mvee::Mvee;
use mvee::core::remote::transport::pipe;
use mvee::core::remote::{
    Duplex, Follower, PeerFailure, PeerFailureKind, RemoteLeader, RemotePeer,
};
use mvee::core::MonitorError;
use mvee::kernel::syscall::{SyscallRequest, Sysno};
use mvee::sync_agent::agents::AgentKind;

const WATCHDOG: Duration = Duration::from_secs(30);

/// Runs `f` on a scenario thread and panics if it outlives the watchdog.
fn with_watchdog<T: Send + 'static>(label: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (done_tx, done_rx) = mpsc::channel();
    let scenario = thread::spawn(move || {
        let _ = done_tx.send(f());
    });
    match done_rx.recv_timeout(WATCHDOG) {
        Ok(value) => {
            scenario.join().expect("scenario thread panicked");
            value
        }
        Err(_) => panic!("{label}: remote fault scenario deadlocked ({WATCHDOG:?})"),
    }
}

/// Polls `probe` until it returns `Some` or the deadline passes.
fn eventually<T>(label: &str, mut probe: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(value) = probe() {
            return value;
        }
        assert!(Instant::now() < deadline, "{label}: condition never held");
        thread::sleep(Duration::from_millis(5));
    }
}

/// A follower aborted (killed) while the leader is blocked waiting for its
/// synchronous-arrival ack and still holds half a deferred batch: the
/// leader must unblock promptly — well before the lockstep timeout's
/// backstop — with a typed failure naming the follower, and later calls
/// must fail fast instead of streaming into the void.
#[test]
fn follower_killed_mid_batch_unblocks_the_leader() {
    with_watchdog("follower killed mid-batch", || {
        let mvee = Mvee::builder()
            .variants(2)
            .threads(1)
            .agent(AgentKind::Null)
            .batch(8)
            .transport(Transport::Remote {
                channel: RemoteChannel::InProc,
            })
            .lockstep_timeout(Duration::from_secs(60))
            .manual_clock(true)
            .build();
        let mvee = Arc::new(mvee);
        // Variant 1 never runs, so the leader's synchronous write can only
        // resolve by timeout (60s) — or by the follower dying first.
        let leader_thread = {
            let mvee = Arc::clone(&mvee);
            thread::spawn(move || {
                let port = mvee.leader_port(0);
                // Half a batch of deferred comparisons rides along.
                for _ in 0..3 {
                    port.syscall(&SyscallRequest::new(Sysno::Brk).with_int(0))?;
                }
                // Blocks waiting for the follower's ack.
                port.syscall(
                    &SyscallRequest::new(Sysno::Write)
                        .with_fd(1)
                        .with_payload(b"stuck"),
                )
                .map(|_| ())
            })
        };
        thread::sleep(Duration::from_millis(100));
        assert!(
            !leader_thread.is_finished(),
            "the leader must be blocked on the follower's ack"
        );
        // Kill the follower. The pump poisons the table, drops its write
        // half, and the leader's reader observes the death.
        let killed_at = Instant::now();
        mvee.abort_follower();
        let result = leader_thread.join().expect("leader thread panicked");
        let unblocked_in = killed_at.elapsed();
        let err = result.expect_err("the blocked write must fail");
        assert_eq!(
            err,
            MonitorError::Peer(PeerFailure {
                peer: RemotePeer::Follower,
                kind: PeerFailureKind::Disconnected,
            }),
            "the leader must learn exactly which peer died and how"
        );
        assert!(
            unblocked_in < Duration::from_secs(10),
            "the leader took {unblocked_in:?} to unblock — the channel \
             death must beat the 60s lockstep timeout"
        );
        assert_eq!(
            mvee.remote_fault(),
            Some(PeerFailure {
                peer: RemotePeer::Follower,
                kind: PeerFailureKind::Disconnected,
            })
        );
        // Later leader calls fail fast at the gate.
        let port = mvee.leader_port(1);
        let err = port
            .syscall(&SyscallRequest::new(Sysno::Brk).with_int(0))
            .expect_err("calls after the follower died must fail");
        assert!(matches!(err, MonitorError::Peer(_)));
    });
}

/// Builds a monitor + agent pair for splicing raw channels under the
/// public leader/follower entry points.
fn bare_mvee(variants: usize) -> Mvee {
    Mvee::builder()
        .variants(variants)
        .threads(1)
        .agent(AgentKind::Null)
        .batch(1)
        .lockstep_timeout(Duration::from_secs(60))
        .manual_clock(true)
        .build()
}

/// Garbage bytes fed to a follower must surface as a `Corrupt` failure
/// naming the leader — and poison the rendezvous table so in-proc slave
/// threads unblock instead of waiting on arrivals that will never come.
#[test]
fn garbage_stream_faults_the_follower_naming_the_leader() {
    with_watchdog("garbage stream to follower", || {
        let mvee = Arc::new(bare_mvee(2));
        let (f_rx, mut garbage_tx) = pipe();
        let (_ack_rx, f_tx) = pipe();
        let handle = Follower::spawn(
            Arc::clone(mvee.monitor()),
            Duplex::from_parts(Box::new(f_rx), Box::new(f_tx)),
        );
        // A slave blocks in a rendezvous the leader will never join.
        let slave = {
            let mvee = Arc::clone(&mvee);
            thread::spawn(move || {
                let port = mvee.thread_port(1, 0);
                port.syscall(
                    &SyscallRequest::new(Sysno::Write)
                        .with_fd(1)
                        .with_payload(b"waiting"),
                )
            })
        };
        thread::sleep(Duration::from_millis(50));
        garbage_tx
            .write_all(b"this is definitely not a CRC-framed record stream")
            .expect("the pipe is open");
        let fault = eventually("follower fault", || handle.fault());
        assert_eq!(
            fault,
            PeerFailure {
                peer: RemotePeer::Leader,
                kind: PeerFailureKind::Corrupt,
            },
            "garbage must be blamed on the leader as corruption"
        );
        // The poisoned table unblocks the slave with ShutDown, not a hang.
        let err = slave
            .join()
            .expect("slave thread panicked")
            .expect_err("the slave's rendezvous must abort");
        assert_eq!(err, MonitorError::ShutDown);
        drop(garbage_tx);
        drop(handle);
    });
}

/// A connection torn mid-frame (valid prefix, then EOF before the frame
/// completes) is corruption, not a clean goodbye.
#[test]
fn torn_frame_is_reported_as_corruption() {
    with_watchdog("torn frame to follower", || {
        let mvee = bare_mvee(2);
        let (f_rx, mut torn_tx) = pipe();
        let (_ack_rx, f_tx) = pipe();
        let handle = Follower::spawn(
            Arc::clone(mvee.monitor()),
            Duplex::from_parts(Box::new(f_rx), Box::new(f_tx)),
        );
        // Half a frame header, then the connection dies.
        torn_tx.write_all(&[0x03, 0x00]).expect("the pipe is open");
        drop(torn_tx);
        let fault = eventually("follower fault", || handle.fault());
        assert_eq!(
            fault,
            PeerFailure {
                peer: RemotePeer::Leader,
                kind: PeerFailureKind::Corrupt,
            },
            "a torn frame must read as corruption, not a clean close"
        );
        drop(handle);
    });
}

/// A leader whose stream simply ends — no `Bye`, no torn frame — died:
/// the follower names the leader as disconnected.
#[test]
fn silent_leader_death_is_reported_as_disconnection() {
    with_watchdog("silent leader death", || {
        let mvee = bare_mvee(2);
        let (f_rx, silent_tx) = pipe();
        let (_ack_rx, f_tx) = pipe();
        let handle = Follower::spawn(
            Arc::clone(mvee.monitor()),
            Duplex::from_parts(Box::new(f_rx), Box::new(f_tx)),
        );
        drop(silent_tx); // clean EOF at a frame boundary, but no Bye
        let fault = eventually("follower fault", || handle.fault());
        assert_eq!(
            fault,
            PeerFailure {
                peer: RemotePeer::Leader,
                kind: PeerFailureKind::Disconnected,
            }
        );
        drop(handle);
    });
}

/// Garbage on the leader's ack stream: the leader blames the follower for
/// corruption, and blocked waits (the barrier) resolve with the typed
/// failure.
#[test]
fn garbage_ack_stream_faults_the_leader_naming_the_follower() {
    with_watchdog("garbage acks to leader", || {
        let mvee = bare_mvee(2);
        let (l_rx, mut garbage_tx) = pipe();
        let (_sink_rx, l_tx) = pipe();
        let leader = RemoteLeader::connect(
            Arc::clone(mvee.monitor()),
            Arc::clone(mvee.agent()),
            Duplex::from_parts(Box::new(l_rx), Box::new(l_tx)),
        );
        garbage_tx
            .write_all(b"not an ack, not a verdict, not a frame")
            .expect("the pipe is open");
        let err = leader
            .barrier()
            .expect_err("the barrier must fail on a corrupt ack stream");
        assert_eq!(
            err,
            MonitorError::Peer(PeerFailure {
                peer: RemotePeer::Follower,
                kind: PeerFailureKind::Corrupt,
            })
        );
        drop(garbage_tx);
    });
}

/// Under [`RecoveryPolicy::Quarantine`], a dead replication peer is a dead
/// *variant*, not a dead run: when the leader's stream ends without a
/// `Bye`, the follower quarantines the wire-attached lane (variant 0)
/// instead of poisoning the table, mastership fails over to the lowest
/// in-proc survivor, and the degraded quorum keeps serving.
#[test]
fn dead_leader_is_quarantined_and_survivors_keep_serving() {
    with_watchdog("leader death under quarantine", || {
        let mvee = Arc::new(
            Mvee::builder()
                .variants(3)
                .threads(1)
                .agent(AgentKind::Null)
                .batch(1)
                .recovery(RecoveryPolicy::quarantine())
                .lockstep_timeout(Duration::from_secs(60))
                .manual_clock(true)
                .build(),
        );
        let (f_rx, silent_tx) = pipe();
        let (_ack_rx, f_tx) = pipe();
        let handle = Follower::spawn(
            Arc::clone(mvee.monitor()),
            Duplex::from_parts(Box::new(f_rx), Box::new(f_tx)),
        );
        drop(silent_tx); // silent leader death: EOF, no Bye
        let fault = eventually("follower fault", || handle.fault());
        assert_eq!(fault.peer, RemotePeer::Leader);
        eventually("variant 0 quarantined", || {
            mvee.quarantined_variants().contains(&0).then_some(())
        });
        assert_eq!(mvee.divergence(), None, "the run must keep serving");
        assert_eq!(
            mvee.monitor().master_variant(),
            1,
            "mastership fails over to the lowest in-proc survivor"
        );
        // The in-proc survivors still rendezvous — now against each other.
        let mut survivors = Vec::new();
        for variant in 1..3 {
            let mvee = Arc::clone(&mvee);
            survivors.push(thread::spawn(move || {
                let port = mvee.thread_port(variant, 0);
                port.syscall(
                    &SyscallRequest::new(Sysno::Write)
                        .with_fd(1)
                        .with_payload(b"degraded"),
                )
            }));
        }
        for h in survivors {
            h.join()
                .expect("survivor thread panicked")
                .expect("the degraded quorum must keep serving");
        }
        assert_eq!(mvee.quarantined_variants(), vec![0]);
        let stats = mvee.monitor_stats();
        assert_eq!(stats.quarantines, 1);
        assert!(
            stats.degraded_calls >= 2,
            "both survivor calls ran degraded"
        );
        drop(handle);
    });
}

/// A mismatched `Hello` (an MVEE of a different shape on the far end) is
/// refused as corruption before any record is applied.
#[test]
fn mismatched_hello_is_refused() {
    with_watchdog("mismatched hello", || {
        let mvee = bare_mvee(2);
        let other = bare_mvee(3); // three variants: wrong shape
        let (leader_end, follower_end) = Duplex::in_proc_pair();
        let handle = Follower::spawn(Arc::clone(mvee.monitor()), follower_end);
        let leader = RemoteLeader::connect(
            Arc::clone(other.monitor()),
            Arc::clone(other.agent()),
            leader_end,
        );
        let fault = eventually("follower fault", || handle.fault());
        assert_eq!(
            fault,
            PeerFailure {
                peer: RemotePeer::Leader,
                kind: PeerFailureKind::Corrupt,
            },
            "a wrong-shape Hello must be refused as corruption"
        );
        leader.shutdown();
        drop(leader);
        drop(handle);
    });
}

/// What a [`Tap`] saw pass through it.
#[derive(Default)]
struct TapLog {
    /// `write` (or `read`) calls that moved at least one byte.
    calls: usize,
    bytes: Vec<u8>,
}

impl TapLog {
    /// CRC-framed frames in the bytes seen so far.
    fn frames(&self) -> usize {
        let (mut frames, mut offset) = (0, 0);
        while let Some((_, end)) = next_frame(&self.bytes, offset).expect("well-framed stream") {
            frames += 1;
            offset = end;
        }
        frames
    }
}

/// A byte-channel half that logs the traffic it passes through.
struct Tap<T> {
    inner: T,
    log: Arc<Mutex<TapLog>>,
}

impl<T: Write> Write for Tap<T> {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(bytes)?;
        let mut log = self.log.lock().unwrap();
        log.calls += 1;
        log.bytes.extend_from_slice(&bytes[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl<T: Read> Read for Tap<T> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(out)?;
        if n > 0 {
            let mut log = self.log.lock().unwrap();
            log.calls += 1;
            log.bytes.extend_from_slice(&out[..n]);
        }
        Ok(n)
    }
}

/// The replication wire carries a burst, not a call: each group of seven
/// deferred address-space calls and one replicated `gettimeofday` is one
/// socket write of eleven frames (seven held publishes, the group's
/// `Counts` ahead of its batch, the batch, the replicated publish and the
/// `Counts` record of its replication), and the follower acks only the
/// barrier the leader waits on.
#[test]
fn each_group_is_one_write_and_only_the_barrier_is_acked() {
    const GROUPS: usize = 4;
    with_watchdog("wire traffic", || {
        let mvee = Arc::new(
            Mvee::builder()
                .variants(2)
                .threads(1)
                .agent(AgentKind::Null)
                .batch(8)
                .lockstep_timeout(Duration::from_secs(60))
                .manual_clock(true)
                .build(),
        );
        let group: Vec<SyscallRequest> = (0..7)
            .map(|i| match i % 3 {
                0 => SyscallRequest::new(Sysno::Brk).with_int(0),
                1 => SyscallRequest::new(Sysno::Mprotect).with_int(4096),
                _ => SyscallRequest::new(Sysno::Mmap).with_int(8192),
            })
            .chain([SyscallRequest::new(Sysno::Gettimeofday)])
            .collect();
        let (f_rx, l_tx) = pipe();
        let (l_rx, f_tx) = pipe();
        let follower = Follower::spawn(
            Arc::clone(mvee.monitor()),
            Duplex::from_parts(Box::new(f_rx), Box::new(f_tx)),
        );
        let sent = Arc::new(Mutex::new(TapLog::default()));
        let acked = Arc::new(Mutex::new(TapLog::default()));
        let leader = RemoteLeader::connect(
            Arc::clone(mvee.monitor()),
            Arc::clone(mvee.agent()),
            Duplex::from_parts(
                Box::new(Tap {
                    inner: l_rx,
                    log: Arc::clone(&acked),
                }),
                Box::new(Tap {
                    inner: l_tx,
                    log: Arc::clone(&sent),
                }),
            ),
        );
        let slave = {
            let (mvee, group) = (Arc::clone(&mvee), group.clone());
            thread::spawn(move || {
                let port = mvee.thread_port(1, 0);
                for _ in 0..GROUPS {
                    for req in &group {
                        port.syscall(req).expect("the slave's call");
                    }
                }
            })
        };
        let port = leader.port(0);
        for _ in 0..GROUPS {
            for req in &group {
                port.syscall(req).expect("the leader's call");
            }
        }
        leader.barrier().expect("the barrier is acked");
        {
            let sent = sent.lock().unwrap();
            assert_eq!(
                sent.calls,
                1 + GROUPS + 1,
                "one write for the Hello, one per group, one for the barrier"
            );
            assert_eq!(sent.frames(), 1 + 11 * GROUPS + 1);
        }
        assert_eq!(
            acked.lock().unwrap().frames(),
            1,
            "exactly one ack: the barrier's"
        );
        slave.join().expect("slave thread panicked");
        drop(port);
        leader.shutdown();
        drop(follower);
        assert_eq!(mvee.divergence(), None);
        assert_eq!(leader.failure(), None);
    });
}

/// A byte-channel read half that hands over a few bytes per read, after a
/// pause: the follower then ingests the frames of one burst one by one, as
/// over a slow link, instead of all in one pass.
struct Trickle<T>(T);

impl<T: Read> Read for Trickle<T> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        thread::sleep(Duration::from_millis(2));
        let n = out.len().min(8);
        self.0.read(&mut out[..n])
    }
}

/// Three variants under quarantine, one thread, batch 8.
fn quarantine_mvee() -> Arc<Mvee> {
    Arc::new(
        Mvee::builder()
            .variants(3)
            .threads(1)
            .agent(AgentKind::Null)
            .batch(8)
            .recovery(RecoveryPolicy::quarantine())
            .lockstep_timeout(Duration::from_secs(10))
            .manual_clock(true)
            .build(),
    )
}

/// `variant`'s calls: three deferred mprotects, a synchronous write on which
/// variant 2 diverges, then two replicated calls.  A variant stops at its
/// first refused call, like one whose process died.
fn issue_quarantine_plan(
    variant: usize,
    syscall: impl Fn(&SyscallRequest) -> Result<mvee::kernel::syscall::SyscallOutcome, MonitorError>,
) {
    let payload: &[u8] = if variant == 2 { b"evil" } else { b"same" };
    let plan = [
        SyscallRequest::new(Sysno::Mprotect).with_int(4096),
        SyscallRequest::new(Sysno::Mprotect).with_int(4096),
        SyscallRequest::new(Sysno::Mprotect).with_int(4096),
        SyscallRequest::new(Sysno::Write)
            .with_fd(1)
            .with_payload(payload),
        SyscallRequest::new(Sysno::Gettimeofday),
        SyscallRequest::new(Sysno::Gettimeofday),
    ];
    for req in &plan {
        if syscall(req).is_err() {
            break;
        }
    }
}

/// Under quarantine a remote run counts degraded calls exactly as the
/// in-proc run does: the leader's calls up to and including the write that
/// quarantines variant 2 ran with the full quorum, the two after it did
/// not.  The follower applies a `Counts` record when it reads it but
/// deposits a rendezvous frame later, so the leader's counters must reach
/// it ahead of the `Batch` and the `Arrive` — over a slow link the frames
/// of one burst are ingested one at a time, and counters trailing the
/// `Arrive` would be counted after the quarantine.
#[test]
fn remote_counts_degraded_calls_like_in_proc_under_quarantine() {
    with_watchdog("degraded calls under quarantine", || {
        let in_proc = quarantine_mvee();
        let variants: Vec<_> = (0..3)
            .map(|variant| {
                let mvee = Arc::clone(&in_proc);
                thread::spawn(move || {
                    let port = mvee.thread_port(variant, 0);
                    issue_quarantine_plan(variant, |req| port.syscall(req));
                })
            })
            .collect();
        for handle in variants {
            handle.join().expect("in-proc variant panicked");
        }
        let expected = in_proc.monitor_stats();
        assert_eq!(in_proc.quarantined_variants(), vec![2]);
        assert_eq!(
            expected.degraded_calls, 4,
            "two calls on each survivor ran after the quarantine"
        );

        let mvee = quarantine_mvee();
        let (f_rx, l_tx) = pipe();
        let (l_rx, f_tx) = pipe();
        let follower = Follower::spawn(
            Arc::clone(mvee.monitor()),
            Duplex::from_parts(Box::new(Trickle(f_rx)), Box::new(f_tx)),
        );
        let leader = RemoteLeader::connect(
            Arc::clone(mvee.monitor()),
            Arc::clone(mvee.agent()),
            Duplex::from_parts(Box::new(l_rx), Box::new(l_tx)),
        );
        let slaves: Vec<_> = (1..3)
            .map(|variant| {
                let mvee = Arc::clone(&mvee);
                thread::spawn(move || {
                    let port = mvee.thread_port(variant, 0);
                    issue_quarantine_plan(variant, |req| port.syscall(req));
                })
            })
            .collect();
        {
            let port = leader.port(0);
            issue_quarantine_plan(0, |req| port.syscall(req));
        }
        for handle in slaves {
            handle.join().expect("slave variant panicked");
        }
        leader.barrier().expect("the barrier is acked");
        assert_eq!(mvee.quarantined_variants(), vec![2]);
        assert_eq!(
            mvee.monitor_stats(),
            expected,
            "remote stats (degraded_calls included) differ from in-proc"
        );
        leader.shutdown();
        drop(follower);
    });
}
