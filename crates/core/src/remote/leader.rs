//! The leader front end: executes variant 0's syscalls through the normal
//! gateway pipeline and streams the evidence to the follower monitor.
//!
//! A [`RemoteLeader`] owns the leader end of a [`Duplex`]: a writer the
//! leader's per-thread ports push frame batches through (serialized behind
//! one lock), and a reader thread that decodes the follower's `Ack` /
//! `Verdict` stream into shared link state.  [`LeaderPort`] is the remote
//! mirror of [`ThreadPort`](crate::port::ThreadPort): same sequence keys, same
//! disposition logic, same deferred-batch discipline — but where the
//! in-proc port deposits comparisons into the rendezvous table, the leader
//! port *encodes* them and lets the follower's pump deposit on its behalf.
//!
//! The blocking rule mirrors the in-proc master exactly:
//!
//! * **deferred comparisons** buffer locally and stream at the PR-3 flush
//!   points (batch full, before any synchronous call, before a sync op,
//!   port drop) without waiting for anything;
//! * **replicated / ordered** calls execute immediately and stream their
//!   published outcome — the in-proc master never blocks as publisher;
//! * only a **synchronous lockstep arrival** (an externally visible call
//!   under the policy) blocks, waiting for the follower's ack — which the
//!   pump sends only once the rendezvous resolved, exactly where the
//!   in-proc master sleeps in its lockstep arrival wait.
//!
//! Divergence reaches the leader over the channel (a `Verdict` frame), so
//! calls issued between a deferred mismatch's execution and its verdict
//! keep streaming — that window is the divergence-detection lag the
//! follower measures.  Follower death or a torn connection surfaces as a
//! typed [`PeerFailure`] naming the follower, and unblocks any waiting
//! leader thread immediately.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use mvee_kernel::syscall::{SyscallOutcome, SyscallRequest, Sysno};
use mvee_sync_agent::context::{SyncContext, VariantRole};
use mvee_sync_agent::SyncAgent;

use crate::divergence::DivergenceReport;
use crate::frame::FrameReader;
use crate::journal::ClassKind;
use crate::monitor::{Monitor, MonitorError, DEFERRED_SEQ_BIT};
use crate::remote::transport::Duplex;
use crate::remote::wire::WireRecord;
use crate::remote::{PeerFailure, PeerFailureKind, RemotePeer};

/// The write half of the channel plus the implicit frame numbering.
struct Conn {
    /// `None` once [`RemoteLeader::shutdown`] has closed the stream.
    tx: Option<Box<dyn Write + Send>>,
    /// Frames pushed so far; an ack of `through == frames_sent` means the
    /// follower has fully processed everything written to date.
    frames_sent: u64,
}

/// Link state fed by the reader thread, watched by blocked leader threads.
#[derive(Default)]
struct LinkState {
    /// Frames the follower has fully processed (contiguous prefix).
    acked: u64,
    /// First divergence verdict received over the channel.
    verdict: Option<DivergenceReport>,
    /// Set when the channel died (EOF, corruption, ack timeout).
    dead: Option<PeerFailure>,
}

struct LinkShared {
    state: Mutex<LinkState>,
    changed: Condvar,
}

/// The leader end of a replication channel (see the [module docs](self)).
pub struct RemoteLeader {
    monitor: Arc<Monitor>,
    agent: Arc<dyn SyncAgent>,
    conn: Mutex<Conn>,
    shared: Arc<LinkShared>,
    reader: Mutex<Option<JoinHandle<()>>>,
}

impl RemoteLeader {
    /// Connects the leader over `duplex`: sends the
    /// `Hello` prologue describing the MVEE shape and
    /// spawns the ack/verdict reader thread.
    pub fn connect(
        monitor: Arc<Monitor>,
        agent: Arc<dyn SyncAgent>,
        duplex: Duplex,
    ) -> Arc<RemoteLeader> {
        let (rx, tx) = duplex.into_split();
        let shared = Arc::new(LinkShared {
            state: Mutex::new(LinkState::default()),
            changed: Condvar::new(),
        });
        let reader = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mvee-leader-rx".into())
                .spawn(move || read_follower_stream(rx, &shared))
                .expect("spawning the leader reader thread failed")
        };
        let config = monitor.config();
        let hello = WireRecord::Hello {
            variants: config.variants as u16,
            threads: config.workload_threads as u32,
            shards: monitor.shard_count() as u16,
            batch: config.batch as u16,
        };
        let mut bytes = Vec::with_capacity(32);
        hello.encode_frame(&mut bytes);
        let leader = Arc::new(RemoteLeader {
            monitor,
            agent,
            conn: Mutex::new(Conn {
                tx: Some(tx),
                frames_sent: 0,
            }),
            shared,
            reader: Mutex::new(Some(reader)),
        });
        let _ = leader.push(&bytes, 1);
        leader
    }

    /// The monitor the leader executes against.
    pub fn monitor(&self) -> &Arc<Monitor> {
        &self.monitor
    }

    /// Acquires the leader-side port for logical thread `thread` of
    /// variant 0.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range thread index or if a live port already
    /// owns `(variant 0, thread)`.
    pub fn port(self: &Arc<Self>, thread: usize) -> LeaderPort {
        let (seq, shard) = self.monitor.acquire_port(0, thread);
        let batch = self.monitor.config().batch;
        LeaderPort {
            ctx: SyncContext::new(VariantRole::from_variant_index(0), thread),
            link: Arc::clone(self),
            thread,
            shard,
            batch,
            seq: Cell::new(seq),
            buf: RefCell::new(Vec::with_capacity(256)),
            buffered: Cell::new(0),
            pending: RefCell::new(Vec::with_capacity(batch)),
        }
    }

    /// The first divergence verdict received over the channel, if any.
    pub fn verdict(&self) -> Option<DivergenceReport> {
        self.shared.state.lock().verdict.clone()
    }

    /// The channel failure, if the follower died or the stream tore.
    pub fn failure(&self) -> Option<PeerFailure> {
        self.shared.state.lock().dead
    }

    /// Streams a `Barrier` and waits until the
    /// follower has fully processed every frame written so far — the
    /// quiescence point after which the follower's counters are final.
    ///
    /// Returns `Ok` even after a divergence verdict (the follower keeps
    /// draining and acknowledging the stream); fails only when the channel
    /// itself is down.
    pub fn barrier(&self) -> Result<(), MonitorError> {
        let mut bytes = Vec::with_capacity(16);
        WireRecord::Barrier.encode_frame(&mut bytes);
        let through = self.push(&bytes, 1)?;
        self.wait_acked(through, false)
    }

    /// Sends `Bye` and closes the write half, letting
    /// the follower drain to a clean EOF.  Idempotent.
    pub fn shutdown(&self) {
        let mut bytes = Vec::with_capacity(16);
        WireRecord::Bye.encode_frame(&mut bytes);
        let _ = self.push(&bytes, 1);
        self.conn.lock().tx = None;
    }

    /// Writes pre-encoded frames to the channel; returns the stream
    /// watermark (total frames sent) to wait on.
    fn push(&self, bytes: &[u8], frames: u64) -> Result<u64, MonitorError> {
        let mut conn = self.conn.lock();
        let Some(tx) = conn.tx.as_mut() else {
            let failure = self.shared.state.lock().dead.unwrap_or(PeerFailure {
                peer: RemotePeer::Follower,
                kind: PeerFailureKind::Disconnected,
            });
            return Err(MonitorError::Peer(failure));
        };
        if let Err(_e) = tx.write_all(bytes).and_then(|()| tx.flush()) {
            conn.tx = None;
            drop(conn);
            let failure = PeerFailure {
                peer: RemotePeer::Follower,
                kind: PeerFailureKind::Disconnected,
            };
            self.mark_dead(failure);
            return Err(MonitorError::Peer(failure));
        }
        conn.frames_sent += frames;
        Ok(conn.frames_sent)
    }

    fn mark_dead(&self, failure: PeerFailure) {
        let mut state = self.shared.state.lock();
        if state.dead.is_none() {
            state.dead = Some(failure);
        }
        self.shared.changed.notify_all();
    }

    /// Blocks until the follower has processed `through` frames.
    ///
    /// With `break_on_verdict`, a divergence verdict ends the wait early —
    /// the caller inspects [`verdict`](Self::verdict) to map it, exactly
    /// like a poisoned in-proc rendezvous resolves a blocked master.  The
    /// ack deadline is a backstop well beyond the lockstep timeout (the
    /// pump resolves every wait within one timeout and acks the result);
    /// follower death ends the wait immediately via the reader thread.
    fn wait_acked(&self, through: u64, break_on_verdict: bool) -> Result<(), MonitorError> {
        let timeout = self.monitor.config().lockstep_timeout;
        let deadline = Instant::now()
            + timeout
                .saturating_mul(2)
                .saturating_add(Duration::from_secs(1));
        let mut state = self.shared.state.lock();
        loop {
            if let Some(failure) = state.dead {
                return Err(MonitorError::Peer(failure));
            }
            if state.acked >= through || (break_on_verdict && state.verdict.is_some()) {
                return Ok(());
            }
            if self
                .shared
                .changed
                .wait_until(&mut state, deadline)
                .timed_out()
            {
                let failure = PeerFailure {
                    peer: RemotePeer::Follower,
                    kind: PeerFailureKind::AckTimeout,
                };
                if state.dead.is_none() {
                    state.dead = Some(failure);
                }
                self.shared.changed.notify_all();
                return Err(MonitorError::Peer(state.dead.unwrap_or(failure)));
            }
        }
    }
}

impl Drop for RemoteLeader {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(reader) = self.reader.lock().take() {
            let _ = reader.join();
        }
    }
}

impl std::fmt::Debug for RemoteLeader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.shared.state.lock();
        f.debug_struct("RemoteLeader")
            .field("frames_sent", &self.conn.lock().frames_sent)
            .field("acked", &state.acked)
            .field("verdict", &state.verdict.is_some())
            .field("dead", &state.dead)
            .finish()
    }
}

/// Decodes the follower's ack/verdict stream into the shared link state.
fn read_follower_stream(rx: Box<dyn std::io::Read + Send>, shared: &LinkShared) {
    let mut frames = FrameReader::new(rx);
    let mut saw_bye = false;
    let failure = loop {
        match frames.read_frame() {
            Ok(Some(body)) => match WireRecord::decode(body) {
                Ok(WireRecord::Ack { through }) => {
                    let mut state = shared.state.lock();
                    state.acked = state.acked.max(through);
                    shared.changed.notify_all();
                }
                Ok(WireRecord::Verdict { report }) => {
                    let mut state = shared.state.lock();
                    if state.verdict.is_none() {
                        state.verdict = Some(report);
                    }
                    shared.changed.notify_all();
                }
                Ok(WireRecord::Bye) => {
                    saw_bye = true;
                }
                Ok(_) | Err(_) => {
                    break PeerFailureKind::Corrupt;
                }
            },
            Ok(None) => {
                // Clean EOF: normal when the follower finished after our
                // `Bye`; a silent death otherwise.  Either way every
                // blocked wait must resolve.
                break PeerFailureKind::Disconnected;
            }
            Err(e) => {
                break match e {
                    crate::frame::ReadFrameError::Io(_) => PeerFailureKind::Disconnected,
                    _ => PeerFailureKind::Corrupt,
                };
            }
        }
    };
    let mut state = shared.state.lock();
    if state.dead.is_none() && !(saw_bye && failure == PeerFailureKind::Disconnected) {
        state.dead = Some(PeerFailure {
            peer: RemotePeer::Follower,
            kind: failure,
        });
    }
    shared.changed.notify_all();
}

/// The leader's per-thread syscall handle: the remote mirror of
/// [`ThreadPort`](crate::port::ThreadPort) (see the [module docs](self)).
///
/// `Send` but `!Sync`, like the in-proc port: it owns an unsynchronized
/// frame buffer and deferred-comparison queue.
pub struct LeaderPort {
    link: Arc<RemoteLeader>,
    /// The agent context, built once at acquisition.
    ctx: SyncContext,
    thread: usize,
    /// The stat lane / shard this thread is bound to (resolved through the
    /// placement policy, identical to the in-proc binding).
    shard: usize,
    /// Cached comparison batch size (1 = no deferral).
    batch: usize,
    /// Next per-thread sequence number.
    seq: Cell<u64>,
    /// Encoded frames not yet pushed to the connection.
    buf: RefCell<Vec<u8>>,
    /// Number of frames in `buf`.
    buffered: Cell<u64>,
    /// Deferred comparisons awaiting the next flush point, keyed with the
    /// deferred-keyspace bit exactly like the in-proc port.
    pending: RefCell<Vec<(u64, mvee_kernel::syscall::ComparisonKey)>>,
}

impl LeaderPort {
    /// Zero-based variant index: the leader is always variant 0.
    pub fn variant_index(&self) -> usize {
        0
    }

    /// Logical thread index within the variant.
    pub fn thread_index(&self) -> usize {
        self.thread
    }

    /// The shard / stat lane this thread is bound to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Deferred comparisons queued locally, awaiting the next flush point.
    pub fn pending_comparisons(&self) -> usize {
        self.pending.borrow().len()
    }

    /// Encodes `record` into the local frame buffer (not yet pushed).
    fn buffer(&self, record: &WireRecord) {
        record.encode_frame(&mut self.buf.borrow_mut());
        self.buffered.set(self.buffered.get() + 1);
    }

    /// Pushes the buffered frames to the connection (one locked write) and
    /// returns the stream watermark of the last frame, if any were pushed.
    fn push_buffered(&self) -> Result<Option<u64>, MonitorError> {
        let frames = self.buffered.replace(0);
        if frames == 0 {
            return Ok(None);
        }
        // Written, then cleared: the buffer keeps its capacity across
        // flushes instead of regrowing from empty after each one.
        let mut buf = self.buf.borrow_mut();
        let pushed = self.link.push(&buf, frames);
        buf.clear();
        pushed.map(Some)
    }

    /// Moves the deferred comparisons into a [`WireRecord::Batch`] frame in
    /// the local buffer.  The follower's pump counts the flush and deposits
    /// the block; the leader does not wait (comparison is asynchronous).
    fn flush_batch(&self) {
        let calls = std::mem::take(&mut *self.pending.borrow_mut());
        if calls.is_empty() {
            return;
        }
        self.buffer(&WireRecord::Batch {
            thread: self.thread as u32,
            lane: self.shard as u16,
            calls,
        });
    }

    /// The channel-driven divergence gate: the remote mirror of the in-proc
    /// entry gate, fed by `Verdict` frames instead of the shared flag.
    fn gate(&self) -> Result<(), MonitorError> {
        let state = self.link.shared.state.lock();
        if let Some(failure) = state.dead {
            return Err(MonitorError::Peer(failure));
        }
        if state.verdict.is_some() {
            return Err(MonitorError::ShutDown);
        }
        Ok(())
    }

    /// Maps a verdict that ended an ack wait, blaming this call when the
    /// report names it (the in-proc `Diverged` vs `ShutDown` split).
    fn map_verdict(&self, seq: u64) -> MonitorError {
        match self.link.verdict() {
            Some(report) if report.thread == self.thread && report.sequence == seq => {
                MonitorError::Diverged(report)
            }
            Some(_) => MonitorError::ShutDown,
            // The wait resolved by ack, not by verdict: not reachable from
            // the error path, but keep the mapping total.
            None => MonitorError::ShutDown,
        }
    }

    /// Issues a system call on behalf of this port's logical thread —
    /// the remote mirror of
    /// [`ThreadPort::syscall`](crate::port::ThreadPort::syscall); see the
    /// [module docs](self) for the streaming/blocking discipline.
    pub fn syscall(&self, req: &SyscallRequest) -> Result<SyscallOutcome, MonitorError> {
        if let Err(e) = self.gate() {
            self.pending.borrow_mut().clear();
            return Err(e);
        }
        let monitor = &*self.link.monitor;
        let self_aware = req.no == Sysno::MveeSelfAware;
        self.buffer(&WireRecord::Enter {
            thread: self.thread as u32,
            lane: self.shard as u16,
            self_aware,
        });
        if self_aware {
            // Answered by the monitor, not the kernel: variant index 0.
            // The Enter frame rides the next flush so the follower's
            // counters still see it.
            return Ok(SyscallOutcome::ok(0));
        }

        let seq = self.seq.get();
        self.seq.set(seq + 1);

        let disposition = monitor.config().policy.disposition(req.no);
        let defer = self.batch > 1 && disposition.defer_compare;

        // Synchronous interaction points resolve (here: stream) the
        // deferred comparisons first, keeping comparisons in per-thread
        // program order exactly like the in-proc flush discipline.
        if !defer && (disposition.lockstep || disposition.replicate || disposition.ordered) {
            self.flush_batch();
        }

        if disposition.lockstep {
            self.buffer(&WireRecord::Class {
                kind: ClassKind::Lockstep,
                lane: self.shard as u16,
            });
            if defer {
                self.buffer(&WireRecord::Class {
                    kind: ClassKind::Batched,
                    lane: self.shard as u16,
                });
                let full = {
                    let mut pending = self.pending.borrow_mut();
                    pending.push((seq | DEFERRED_SEQ_BIT, req.comparison_key()));
                    pending.len() >= self.batch
                };
                // Mirror the in-proc divergence race check: a verdict
                // landing between the gate and this push means the deferred
                // comparison will never be resolved cleanly.
                if let Err(e) = self.gate() {
                    self.pending.borrow_mut().clear();
                    return Err(e);
                }
                if full {
                    self.flush_batch();
                    self.push_buffered()?;
                }
            } else {
                self.buffer(&WireRecord::Arrive {
                    thread: self.thread as u32,
                    lane: self.shard as u16,
                    seq,
                    will_publish: disposition.replicate || disposition.ordered,
                    cmp: req.comparison_key(),
                });
                // The externally visible point: stream everything and block
                // until the follower's rendezvous resolved — the remote
                // mirror of the master sleeping in its arrival wait.  Only
                // after the ack does the leader execute the call.
                let through = self
                    .push_buffered()?
                    .expect("an Arrive frame was just buffered");
                self.link.wait_acked(through, true)?;
                if self.link.verdict().is_some() {
                    return Err(self.map_verdict(seq));
                }
            }
        }

        if disposition.replicate {
            self.buffer(&WireRecord::Class {
                kind: ClassKind::Replicated,
                lane: self.shard as u16,
            });
            let outcome = monitor.execute_kernel(0, self.thread, req);
            self.buffer(&WireRecord::Publish {
                thread: self.thread as u32,
                seq,
                timestamp: None,
                outcome: outcome.clone(),
            });
            // Stream-and-go: the in-proc master never blocks as publisher,
            // and the slaves unblock as soon as the pump applies this.
            self.push_buffered()?;
            return Ok(outcome);
        }
        if disposition.ordered {
            self.buffer(&WireRecord::Class {
                kind: ClassKind::Ordered,
                lane: self.shard as u16,
            });
            let ts = monitor.ordering_clock(0, self.shard).claim_timestamp();
            let outcome = monitor.execute_kernel(0, self.thread, req);
            self.buffer(&WireRecord::Publish {
                thread: self.thread as u32,
                seq,
                timestamp: Some(ts),
                outcome: outcome.clone(),
            });
            self.push_buffered()?;
            return Ok(outcome);
        }
        // Neither replicated nor ordered: execute directly.  Any lockstep
        // slot consume rides the Arrive frame (`will_publish: false`).
        Ok(monitor.execute_kernel(0, self.thread, req))
    }

    /// Brackets the start of a sync op: streams pending deferred
    /// comparisons and the `SyncOp` progress marker
    /// (the follower's lag metric counts these), then enters the agent.
    pub fn before_sync_op(&self, addr: u64) {
        self.flush_batch();
        self.buffer(&WireRecord::SyncOp {
            thread: self.thread as u32,
        });
        let _ = self.push_buffered();
        self.link.agent.before_sync_op(&self.ctx, addr);
    }

    /// Brackets the end of a sync op.
    pub fn after_sync_op(&self, addr: u64) {
        self.link.agent.after_sync_op(&self.ctx, addr);
    }

    /// Convenience: brackets `op` between
    /// [`before_sync_op`](Self::before_sync_op) and
    /// [`after_sync_op`](Self::after_sync_op).
    pub fn sync_op<T>(&self, addr: u64, op: impl FnOnce() -> T) -> T {
        self.before_sync_op(addr);
        let result = op();
        self.after_sync_op(addr);
        result
    }
}

impl Drop for LeaderPort {
    fn drop(&mut self) {
        // Mirror ThreadPort::drop: stream trailing deferred comparisons
        // (ports are re-acquirable across phases) unless the link already
        // died or diverged, then hand the sequence counter back.
        if self.gate().is_err() {
            self.pending.borrow_mut().clear();
            self.buf.borrow_mut().clear();
            self.buffered.set(0);
        } else {
            self.flush_batch();
            let _ = self.push_buffered();
        }
        self.link
            .monitor
            .release_port(0, self.thread, self.seq.get());
    }
}

impl std::fmt::Debug for LeaderPort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeaderPort")
            .field("thread", &self.thread)
            .field("shard", &self.shard)
            .field("batch", &self.batch)
            .field("seq", &self.seq.get())
            .field("pending", &self.pending.borrow().len())
            .finish()
    }
}
