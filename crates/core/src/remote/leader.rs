//! The leader front end: executes variant 0's syscalls through the normal
//! gateway pipeline and streams the evidence to the follower monitor.
//!
//! A [`RemoteLeader`] owns the leader end of a [`Duplex`]: the write half
//! and one frame buffer, both behind one connection lock, that every
//! leader thread's port encodes into; a reader thread that decodes the
//! follower's `Ack` / `Verdict` stream into shared link state; and a
//! flusher thread that bounds how long a frame may wait in the buffer.
//! [`LeaderPort`] is the remote mirror of
//! [`ThreadPort`](crate::port::ThreadPort): same sequence keys, same
//! disposition logic, same deferred-batch discipline — but where the
//! in-proc port deposits comparisons into the rendezvous table, the leader
//! port *encodes* them and lets the follower's pump deposit on its behalf.
//!
//! # Push points
//!
//! Frames are encoded in place into the shared buffer, and the buffer —
//! every thread's frames in it, in append order — goes to the socket in one
//! `write` only at a *push point*:
//!
//! * a frame the leader will wait on: a synchronous `Arrive` or a `Barrier`;
//! * a replicated call, after it executes — and before it executes as well
//!   when the call may block in the kernel (any call that may block pushes
//!   first);
//! * [`before_sync_op`](LeaderPort::before_sync_op), a full deferred batch,
//!   port drop and [`shutdown`](RemoteLeader::shutdown);
//! * the flusher's tick, every eighth of the lockstep timeout.
//!
//! A port's gateway counters travel as one `Counts` record, appended in
//! place ahead of each `Arrive` or `Batch` the port appends and at each of
//! its pushes.  Ahead, because the follower applies a `Counts` record when
//! it reads it but deposits a rendezvous frame later: a call's entry must
//! be counted before a comparison that may quarantine a variant, or it
//! would count as degraded where the in-proc gateway counted it whole.
//!
//! # The hold rule
//!
//! An ordered call whose comparison is deferred leaves its `Publish` in the
//! buffer to ride the write of its batch.  It is written at once when its
//! comparison is not deferred (batch size 1 included), when it fills the
//! batch, or when — checked under the connection lock as it is appended —
//! another thread has already claimed a later timestamp on the same shard
//! clock.  Whatever is still held after an eighth of the lockstep timeout
//! the flusher writes: no frame waits longer than that.
//!
//! Why that is safe: a slave waits on its own master's `Publish` and, for an
//! ordered call, on the `Publish`es of earlier timestamps on its shard clock.
//! Its master's own frame goes out with that master's next push.  An
//! earlier timestamp's frame was appended either before the later claim —
//! then it sits ahead of the later claimer's `Publish` in the one FIFO
//! buffer, and that claimer's next push writes both — or after it, and then
//! the timestamp check writes it at once.  So every slave wait is released
//! by its own master's next push.  Per-port buffers would break the first
//! case — another thread's held frame would wait for *that* thread's next
//! push, which never comes while it is parked.
//!
//! The next push alone is not a bound, though: a master that computes
//! outside the MVEE after a deferred call may not push for longer than its
//! slave's outcome deadline (the lockstep timeout), where the in-proc
//! master would have published at once.  The flusher caps that wait at an
//! eighth of the deadline, so a slave still fails only when its master lags
//! by most of a lockstep timeout — as in-proc.
//!
//! # Blocking
//!
//! The blocking rule mirrors the in-proc master exactly:
//!
//! * **deferred comparisons** (and the publishes they hold) stream at the
//!   flush points without waiting for anything;
//! * **replicated / ordered** calls execute immediately and publish — the
//!   in-proc master never blocks as publisher;
//! * only a **synchronous lockstep arrival** (an externally visible call
//!   under the policy) blocks, waiting for the follower's ack — which the
//!   pump sends only once the rendezvous resolved, exactly where the
//!   in-proc master sleeps in its lockstep arrival wait.
//!
//! The follower acks only when its contiguous resolved prefix passes an
//! `Arrive` or a `Barrier`, so a waiter waits for an ack that covers *its
//! own frame* (its stream index plus one) — never for the count of frames
//! sent, which may end in a `Counts` record or another thread's frame that
//! no ack will ever cover.
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

use parking_lot::{Condvar, Mutex, MutexGuard};

use mvee_kernel::syscall::{ComparisonKey, SyscallOutcome, SyscallRequest, Sysno};
use mvee_sync_agent::context::{SyncContext, VariantRole};
use mvee_sync_agent::SyncAgent;

use crate::divergence::DivergenceReport;
use crate::frame::FrameReader;
use crate::monitor::{Monitor, MonitorError, DEFERRED_SEQ_BIT};
use crate::remote::transport::Duplex;
use crate::remote::wire::{push_batch, push_publish, CallCounts, WireRecord};
use crate::remote::{PeerFailure, PeerFailureKind, RemotePeer};

/// The write half of the channel and the one frame buffer every leader
/// port appends to (see the [module docs](self)).
struct Conn {
    /// `None` once [`RemoteLeader::shutdown`] has closed the stream.
    tx: Option<Box<dyn Write + Send>>,
    /// Encoded frames not yet written, in stream order.
    buf: Vec<u8>,
    /// Frames appended so far, written or not: the stream index of the
    /// next frame.
    frames: u64,
}

impl Conn {
    /// Appends one frame encoded by `encode`; returns its stream index.
    fn append(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> u64 {
        encode(&mut self.buf);
        self.frames += 1;
        self.frames - 1
    }
}

/// Link state fed by the reader thread, watched by blocked leader threads.
#[derive(Default)]
struct LinkState {
    /// Frames the follower has fully processed (contiguous prefix), as of
    /// its last ack.
    acked: u64,
    /// First divergence verdict received over the channel.
    verdict: Option<DivergenceReport>,
    /// Set when the channel died (EOF, corruption, ack timeout).
    dead: Option<PeerFailure>,
}

/// What the leader's threads share: the connection, and the link state the
/// reader feeds.  Lock order: `conn` before `state`.
struct LinkShared {
    conn: Mutex<Conn>,
    /// Signalled when [`RemoteLeader::shutdown`] closes the stream, so the
    /// flusher stops without waiting out its period.
    closed: Condvar,
    state: Mutex<LinkState>,
    changed: Condvar,
}

impl LinkShared {
    /// Writes the shared buffer — every port's frames appended since the
    /// last push — to the channel in one `write`.
    fn write(&self, conn: &mut Conn) -> Result<(), MonitorError> {
        let Some(tx) = conn.tx.as_mut() else {
            conn.buf.clear();
            let failure = self.state.lock().dead.unwrap_or(PeerFailure {
                peer: RemotePeer::Follower,
                kind: PeerFailureKind::Disconnected,
            });
            return Err(MonitorError::Peer(failure));
        };
        if conn.buf.is_empty() {
            return Ok(());
        }
        let written = tx.write_all(&conn.buf).and_then(|()| tx.flush());
        // Cleared, not dropped: the buffer keeps its capacity across pushes.
        conn.buf.clear();
        if written.is_err() {
            conn.tx = None;
            let failure = PeerFailure {
                peer: RemotePeer::Follower,
                kind: PeerFailureKind::Disconnected,
            };
            self.mark_dead(failure);
            return Err(MonitorError::Peer(failure));
        }
        Ok(())
    }

    fn mark_dead(&self, failure: PeerFailure) {
        let mut state = self.state.lock();
        if state.dead.is_none() {
            state.dead = Some(failure);
        }
        self.changed.notify_all();
    }
}

/// The leader end of a replication channel (see the [module docs](self)).
pub struct RemoteLeader {
    monitor: Arc<Monitor>,
    agent: Arc<dyn SyncAgent>,
    shared: Arc<LinkShared>,
    /// The reader and the flusher, joined on drop.
    threads: Mutex<Vec<JoinHandle<()>>>,
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
        let config = monitor.config();
        let hello = WireRecord::Hello {
            variants: config.variants as u16,
            threads: config.workload_threads as u32,
            shards: monitor.shard_count() as u16,
            batch: config.batch as u16,
        };
        let mut conn = Conn {
            tx: Some(tx),
            buf: Vec::with_capacity(4096),
            frames: 0,
        };
        conn.append(|out| hello.encode_frame(out));
        let shared = Arc::new(LinkShared {
            conn: Mutex::new(conn),
            closed: Condvar::new(),
            state: Mutex::new(LinkState::default()),
            changed: Condvar::new(),
        });
        let _ = shared.write(&mut shared.conn.lock());
        let reader = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mvee-leader-rx".into())
                .spawn(move || read_follower_stream(rx, &shared))
                .expect("spawning the leader reader thread failed")
        };
        let flusher = {
            let shared = Arc::clone(&shared);
            let period = (config.lockstep_timeout / 8).max(Duration::from_millis(1));
            std::thread::Builder::new()
                .name("mvee-leader-flush".into())
                .spawn(move || flush_held_frames(&shared, period))
                .expect("spawning the leader flusher thread failed")
        };
        Arc::new(RemoteLeader {
            monitor,
            agent,
            shared,
            threads: Mutex::new(vec![reader, flusher]),
        })
    }

    fn conn(&self) -> MutexGuard<'_, Conn> {
        self.shared.conn.lock()
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
            counts: Cell::new(CallCounts::default()),
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
    /// follower has fully processed every frame written before it — the
    /// quiescence point after which the follower's counters are final.
    ///
    /// Returns `Ok` even after a divergence verdict (the follower keeps
    /// draining and acknowledging the stream); fails only when the channel
    /// itself is down.
    pub fn barrier(&self) -> Result<(), MonitorError> {
        let index = {
            let mut conn = self.conn();
            let index = conn.append(|out| WireRecord::Barrier.encode_frame(out));
            self.shared.write(&mut conn)?;
            index
        };
        self.wait_acked(index + 1, false)
    }

    /// Sends `Bye` behind every buffered frame and closes the write half,
    /// letting the follower drain to a clean EOF.  Idempotent.
    pub fn shutdown(&self) {
        let mut conn = self.conn();
        if conn.tx.is_some() {
            conn.append(|out| WireRecord::Bye.encode_frame(out));
            let _ = self.shared.write(&mut conn);
        }
        conn.tx = None;
        self.shared.closed.notify_all();
    }

    /// Blocks until the follower has acked `through` frames: the index + 1
    /// of an `Arrive` or `Barrier`, the only frames it acks.
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
        for thread in self.threads.lock().drain(..) {
            let _ = thread.join();
        }
    }
}

impl std::fmt::Debug for RemoteLeader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let frames = self.conn().frames;
        let state = self.shared.state.lock();
        f.debug_struct("RemoteLeader")
            .field("frames", &frames)
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

/// The flusher thread: every `period`, writes whatever the ports left in the
/// shared buffer, so a held frame never waits longer than that for a push —
/// not even while every leader thread computes or parks outside the MVEE
/// (see the [module docs](self)).  Ends when the stream closes.
fn flush_held_frames(shared: &LinkShared, period: Duration) {
    let mut conn = shared.conn.lock();
    while conn.tx.is_some() {
        if shared.closed.wait_for(&mut conn, period).timed_out() {
            let _ = shared.write(&mut conn);
        }
    }
}

/// The leader's per-thread syscall handle: the remote mirror of
/// [`ThreadPort`](crate::port::ThreadPort) (see the [module docs](self)).
///
/// `Send` but `!Sync`, like the in-proc port: it owns unsynchronized
/// counters and a deferred-comparison queue.
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
    /// Gateway counters since this port's last `Counts` record.
    counts: Cell<CallCounts>,
    /// Deferred comparisons awaiting the next flush point, keyed with the
    /// deferred-keyspace bit exactly like the in-proc port.
    pending: RefCell<Vec<(u64, ComparisonKey)>>,
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

    fn count(&self, bump: impl FnOnce(&mut CallCounts)) {
        let mut counts = self.counts.get();
        bump(&mut counts);
        self.counts.set(counts);
    }

    /// Appends the deferred comparisons as one [`WireRecord::Batch`] frame,
    /// behind the `Counts` of the calls in it.  The follower's pump counts
    /// the flush and deposits the block; the leader does not wait
    /// (comparison is asynchronous).
    fn append_batch(&self, conn: &mut Conn) {
        let mut pending = self.pending.borrow_mut();
        if pending.is_empty() {
            return;
        }
        self.append_counts(conn);
        conn.append(|out| push_batch(out, self.thread as u32, self.shard as u16, &pending));
        // Cleared, not taken: the queue keeps its capacity across batches.
        pending.clear();
    }

    /// [`append_batch`](Self::append_batch), taking the connection lock
    /// only when there is a batch to append.
    fn flush_batch(&self) {
        if !self.pending.borrow().is_empty() {
            self.append_batch(&mut self.link.conn());
        }
    }

    /// Appends this port's counters since its last `Counts` record, if any:
    /// ahead of each `Arrive` or `Batch`, and at each push (module docs).
    fn append_counts(&self, conn: &mut Conn) {
        let counts = self.counts.take();
        if counts != CallCounts::default() {
            let record = WireRecord::Counts {
                thread: self.thread as u32,
                lane: self.shard as u16,
                counts,
            };
            conn.append(|out| record.encode_frame(out));
        }
    }

    /// A push point: appends this port's remaining `Counts` behind the
    /// buffered frames and writes the whole shared buffer.
    fn push(&self, conn: &mut Conn) -> Result<(), MonitorError> {
        self.append_counts(conn);
        self.link.shared.write(conn)
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
    /// [module docs](self) for the push points, the hold rule and the
    /// blocking discipline.
    pub fn syscall(&self, req: &SyscallRequest) -> Result<SyscallOutcome, MonitorError> {
        if let Err(e) = self.gate() {
            self.pending.borrow_mut().clear();
            return Err(e);
        }
        let monitor = &*self.link.monitor;
        if self.counts.get().enters == u32::MAX {
            // A thread that never reaches a push point (a `sched_yield`
            // loop) must not wrap its counters: append them to the shared
            // buffer now, for whichever push comes next.
            self.append_counts(&mut self.link.conn());
        }
        let self_aware = req.no == Sysno::MveeSelfAware;
        self.count(|c| {
            c.enters += 1;
            c.self_aware += u32::from(self_aware);
        });
        if self_aware {
            // Answered by the monitor, not the kernel: variant index 0.
            // The count rides the next push so the follower still sees it.
            return Ok(SyscallOutcome::ok(0));
        }

        let seq = self.seq.get();
        self.seq.set(seq + 1);

        let disposition = monitor.config().policy.disposition(req.no);
        let defer = self.batch > 1 && disposition.defer_compare;

        // Synchronous interaction points stream the deferred comparisons
        // first, keeping comparisons in per-thread program order exactly
        // like the in-proc flush discipline.
        if !defer && (disposition.lockstep || disposition.replicate || disposition.ordered) {
            self.flush_batch();
        }

        let mut full = false;
        if disposition.lockstep {
            self.count(|c| c.lockstep += 1);
            if defer {
                self.count(|c| c.batched += 1);
                full = {
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
                }
            } else {
                // The externally visible point: stream everything and block
                // until the follower's rendezvous resolved — the remote
                // mirror of the master sleeping in its arrival wait.  Only
                // after the ack does the leader execute the call.
                let arrive = WireRecord::Arrive {
                    thread: self.thread as u32,
                    lane: self.shard as u16,
                    seq,
                    will_publish: disposition.replicate || disposition.ordered,
                    cmp: req.comparison_key(),
                };
                let index = {
                    let mut conn = self.link.conn();
                    self.append_counts(&mut conn);
                    let index = conn.append(|out| arrive.encode_frame(out));
                    self.push(&mut conn)?;
                    index
                };
                self.link.wait_acked(index + 1, true)?;
                if self.link.verdict().is_some() {
                    return Err(self.map_verdict(seq));
                }
            }
        }

        // A call that may park in the kernel first releases every held
        // frame: no slave may wait on this thread's frames while it sleeps.
        if req.no.may_block() {
            self.push(&mut self.link.conn())?;
        }
        let thread = self.thread as u32;
        if disposition.replicate {
            self.count(|c| c.replicated += 1);
            let outcome = monitor.execute_kernel(0, self.thread, req);
            let mut conn = self.link.conn();
            conn.append(|out| push_publish(out, thread, seq, None, &outcome));
            // Stream-and-go: the in-proc master never blocks as publisher,
            // and the slaves unblock as soon as the pump applies this.
            self.push(&mut conn)?;
            return Ok(outcome);
        }
        if disposition.ordered {
            self.count(|c| c.ordered += 1);
            let clock = monitor.ordering_clock(0, self.shard);
            let ts = clock.claim_timestamp();
            let outcome = monitor.execute_kernel(0, self.thread, req);
            let mut conn = self.link.conn();
            conn.append(|out| push_publish(out, thread, seq, Some(ts), &outcome));
            // The hold rule (module docs): a deferred call's publish rides
            // its batch's write unless a later timestamp is already out.
            if !defer || full || clock.now() > ts + 1 {
                self.push(&mut conn)?;
            }
            return Ok(outcome);
        }
        if full {
            self.push(&mut self.link.conn())?;
        }
        // Neither replicated nor ordered: execute directly.  Any lockstep
        // slot consume rides the Arrive frame (`will_publish: false`).
        Ok(monitor.execute_kernel(0, self.thread, req))
    }

    /// Brackets the start of a sync op: streams pending deferred
    /// comparisons and the `SyncOp` progress marker
    /// (the follower's lag metric counts these), then enters the agent.
    pub fn before_sync_op(&self, addr: u64) {
        {
            let mut conn = self.link.conn();
            self.append_batch(&mut conn);
            let marker = WireRecord::SyncOp {
                thread: self.thread as u32,
            };
            conn.append(|out| marker.encode_frame(out));
            let _ = self.push(&mut conn);
        }
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
        } else {
            let mut conn = self.link.conn();
            self.append_batch(&mut conn);
            let _ = self.push(&mut conn);
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
