//! The leader front end: variant 0's calls run through the one call machine
//! over the *wire* rendezvous backend, and the evidence streams to the
//! follower monitor.
//!
//! A [`RemoteLeader`] owns the leader end of a [`Duplex`]: the write half
//! and one frame buffer, both behind one connection lock, that every
//! leader thread's port encodes into; a reader thread that decodes the
//! follower's `Ack` / `Verdict` stream into shared link state; and a
//! flusher thread that bounds how long a frame may wait in the buffer.
//! A [`LeaderPort`] is `ThreadPort<Wire>`: the one blocking
//! [`ThreadPort`] (agent context, call machine and driver) with the link
//! as its rendezvous backend, so the sequence keys, the dispositions and
//! the deferred-batch discipline are the in-proc ones by construction.
//! Where the in-proc backend deposits into the rendezvous table, the wire
//! backend appends a frame and lets the follower's pump deposit on its
//! behalf; the rest of this page is its contract.
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
//! * [`before_sync_op`](ThreadPort::before_sync_op), a full deferred batch,
//!   port drop and [`shutdown`](RemoteLeader::shutdown);
//! * the flusher's tick, every eighth of the lockstep timeout (the tick
//!   paces the flusher only; a waiting port parks on the link's event
//!   count, see *Waiting*).
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
//! # Waiting
//!
//! The leader waits exactly where the in-proc master does:
//!
//! * a **deferred batch** (and the publishes it holds) is appended and
//!   settles at once — comparison is asynchronous;
//! * **replicated / ordered** calls execute immediately and publish — the
//!   in-proc master never blocks as publisher;
//! * only a **synchronous lockstep arrival** waits, for the follower's ack —
//!   which the pump sends only once the rendezvous resolved, exactly where
//!   the in-proc master sleeps in its lockstep arrival wait.
//!
//! The follower acks only when its contiguous resolved prefix passes an
//! `Arrive` or a `Barrier`, so a waiter waits for an ack that covers *its
//! own frame* (its stream index plus one) — never for the count of frames
//! sent, which may end in a `Counts` record or another thread's frame that
//! no ack will ever cover.  The wait is a step of the machine like any
//! in-proc wait, and it parks the way they do, on an event count: the
//! link's, which every ack, verdict and channel death posts.  An ack past
//! the frame settles it as consistent, a `Verdict` naming the call as
//! `Diverged` and any other verdict as `ShutDown`; a dead channel, or no
//! ack within twice the lockstep timeout plus a second (the pump resolves
//! every wait within one timeout, and the park's 1 ms backstop re-checks
//! the deadline), as a typed [`PeerFailure`] naming the follower.
//!
//! Divergence and peer death reach the leader over the channel alone, never
//! through the shared monitor's flags.  So calls issued between a deferred
//! mismatch's execution and its verdict keep streaming — that window is the
//! divergence-detection lag the follower measures — and follower death
//! unblocks every waiting leader thread immediately.

use std::convert::Infallible;
use std::io::Write;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use mvee_kernel::syscall::{SyscallOutcome, SyscallRequest, Sysno};
use mvee_sync_agent::guards::{EventCount, Waiter};
use mvee_sync_agent::SyncAgent;

use crate::call::{Binding, Gated, Polled, Rendezvous, Settled};
use crate::divergence::DivergenceReport;
use crate::frame::FrameReader;
use crate::journal::ClassKind;
use crate::lockstep::{BatchArrival, SlotKey};
use crate::monitor::{Monitor, MonitorError};
use crate::port::ThreadPort;
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

/// Link state fed by the reader thread, watched by waiting leader threads.
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
    /// Posted on every change to `state`: what a waiting leader thread
    /// parks on.
    events: EventCount,
    /// An eighth of the lockstep timeout: the flusher's period.
    tick: Duration,
}

impl LinkShared {
    /// Writes the shared buffer — every port's frames appended since the
    /// last push — to the channel in one `write`.
    fn write(&self, conn: &mut Conn) -> Settled {
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
            self.update(|state| {
                state.dead.get_or_insert(failure);
            });
            return Err(MonitorError::Peer(failure));
        }
        Ok(())
    }

    /// Changes the link state and wakes every waiting leader thread.
    fn update(&self, change: impl FnOnce(&mut LinkState)) {
        change(&mut self.state.lock());
        self.events.notify();
    }

    /// Applies a follower → leader `Ack` or `Verdict`.
    fn observe(&self, record: WireRecord) {
        self.update(|state| match record {
            WireRecord::Ack { through } => state.acked = state.acked.max(through),
            WireRecord::Verdict { report } => {
                state.verdict.get_or_insert(report);
            }
            _ => {}
        });
    }

    /// The link's entry gate: the follower's death or a divergence verdict
    /// ends every call.
    fn gate(&self) -> Settled {
        let state = self.state.lock();
        match (&state.dead, &state.verdict) {
            (Some(failure), _) => Err(MonitorError::Peer(*failure)),
            (None, Some(_)) => Err(MonitorError::ShutDown),
            (None, None) => Ok(()),
        }
    }

    /// Polls a frame's wait (see [`AckWait`]); `None` while it is pending.
    fn settle(&self, wait: &AckWait) -> Option<Settled> {
        let mut state = self.state.lock();
        if let Some(failure) = state.dead {
            return Some(Err(MonitorError::Peer(failure)));
        }
        if let (Some((thread, seq)), Some(report)) = (wait.call, &state.verdict) {
            // A verdict ends an arrival's wait, as poison resolves a blocked
            // in-proc master, blaming this call when the report names it.
            return Some(Err(if report.thread == thread && report.sequence == seq {
                MonitorError::Diverged(report.clone())
            } else {
                MonitorError::ShutDown
            }));
        }
        if state.acked >= wait.through {
            return Some(Ok(()));
        }
        if Instant::now() < wait.deadline {
            return None;
        }
        let failure = *state.dead.get_or_insert(PeerFailure {
            peer: RemotePeer::Follower,
            kind: PeerFailureKind::AckTimeout,
        });
        drop(state);
        // The link is dead for every other waiting leader thread too.
        self.events.notify();
        Some(Err(MonitorError::Peer(failure)))
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
        let hello = WireRecord::hello(&monitor);
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
            events: EventCount::new(),
            tick: (monitor.config().lockstep_timeout / 8).max(Duration::from_millis(1)),
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
            std::thread::Builder::new()
                .name("mvee-leader-flush".into())
                .spawn(move || flush_held_frames(&shared))
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
        ThreadPort::new(Arc::clone(self), Arc::clone(&self.agent), 0, thread)
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
        let wait = {
            let mut conn = self.conn();
            let index = conn.append(|out| WireRecord::Barrier.encode_frame(out));
            self.shared.write(&mut conn)?;
            AckWait::new(self, index, None)
        };
        let mut settled = None;
        Wire::wait_on(self, 0, || {
            settled = self.shared.settle(&wait);
            settled.is_some()
        });
        settled.expect("the wait ends once the barrier settled")
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

    /// Applies a follower record as the reader thread would.
    #[cfg(test)]
    pub(crate) fn observe(&self, record: WireRecord) {
        self.shared.observe(record);
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
                Ok(record @ (WireRecord::Ack { .. } | WireRecord::Verdict { .. })) => {
                    shared.observe(record);
                }
                Ok(WireRecord::Bye) => saw_bye = true,
                Ok(_) | Err(_) => break PeerFailureKind::Corrupt,
            },
            // Clean EOF: normal when the follower finished after our `Bye`;
            // a silent death otherwise.  Either way every wait must resolve.
            Ok(None) => break PeerFailureKind::Disconnected,
            Err(crate::frame::ReadFrameError::Io(_)) => break PeerFailureKind::Disconnected,
            Err(_) => break PeerFailureKind::Corrupt,
        }
    };
    shared.update(|state| {
        if !(saw_bye && failure == PeerFailureKind::Disconnected) {
            state.dead.get_or_insert(PeerFailure {
                peer: RemotePeer::Follower,
                kind: failure,
            });
        }
    });
}

/// The flusher thread: every tick, writes whatever the ports left in the
/// shared buffer, so a held frame never waits longer than that for a push —
/// not even while every leader thread computes or parks outside the MVEE
/// (see the [module docs](self)).  Ends when the stream closes.
fn flush_held_frames(shared: &LinkShared) {
    let mut conn = shared.conn.lock();
    while conn.tx.is_some() {
        if shared.closed.wait_for(&mut conn, shared.tick).timed_out() {
            let _ = shared.write(&mut conn);
        }
    }
}

/// A frame the leader waits on — a synchronous `Arrive` or a `Barrier` —
/// settled once the follower's ack passes it (see the [module docs](self)).
#[derive(Debug)]
pub struct AckWait {
    /// The ack that covers the frame: its stream index plus one.
    through: u64,
    /// The ack backstop.
    deadline: Instant,
    /// An arrival's slot, whose wait a verdict ends; `None` for a barrier.
    call: Option<SlotKey>,
}

impl AckWait {
    fn new(link: &RemoteLeader, index: u64, call: Option<SlotKey>) -> Self {
        let timeout = link.monitor.config().lockstep_timeout;
        let backstop = timeout
            .saturating_mul(2)
            .saturating_add(Duration::from_secs(1));
        AckWait {
            through: index + 1,
            deadline: Instant::now() + backstop,
            call,
        }
    }
}

/// The wire rendezvous (see the [module docs](self)): one leader port's side
/// of the link.  It learns of divergence and peer death from the link only.
/// Opaque: it is the backend [`LeaderPort`] names, nothing more.
#[derive(Debug, Default)]
pub struct Wire {
    /// Gateway counters since this port's last `Counts` record.
    counts: CallCounts,
    /// A `Batch` was appended since this port's last push: the call in
    /// flight writes it by the time it executes.
    push_due: bool,
}

impl Wire {
    /// Appends this port's counters since its last `Counts` record, if any:
    /// ahead of each `Arrive` or `Batch`, and at each push (module docs).
    fn append_counts(&mut self, conn: &mut Conn, at: Binding) {
        let counts = std::mem::take(&mut self.counts);
        if counts != CallCounts::default() {
            let record = WireRecord::Counts {
                thread: at.thread as u32,
                lane: at.shard as u16,
                counts,
            };
            conn.append(|out| record.encode_frame(out));
        }
    }

    /// A push point: appends this port's remaining `Counts` behind the
    /// buffered frames and writes the whole shared buffer.
    fn push(&mut self, link: &RemoteLeader, conn: &mut Conn, at: Binding) -> Settled {
        self.append_counts(conn, at);
        self.push_due = false;
        link.shared.write(conn)
    }
}

impl Rendezvous for Wire {
    type Cx = RemoteLeader;
    type Arrival = AckWait;
    type Flush = Infallible;

    fn monitor(link: &RemoteLeader) -> &Monitor {
        &link.monitor
    }

    fn gate(&mut self, link: &RemoteLeader, at: Binding, req: &SyscallRequest) -> Gated {
        link.shared.gate()?;
        if self.counts.enters == u32::MAX {
            // A thread that never reaches a push point (a `sched_yield`
            // loop) must not wrap its counters: append them to the shared
            // buffer now, for whichever push comes next.
            self.append_counts(&mut link.conn(), at);
        }
        let self_aware = req.no == Sysno::MveeSelfAware;
        self.counts.enters += 1;
        self.counts.self_aware += u32::from(self_aware);
        // Answered by the monitor, not the kernel: variant index 0.  The
        // count rides the next push so the follower still sees it.
        Ok(self_aware.then(|| SyscallOutcome::ok(0)))
    }

    fn halted(&self, link: &RemoteLeader) -> Settled {
        link.shared.gate()
    }

    fn count(&mut self, _: &RemoteLeader, _: usize, class: ClassKind) {
        let counter = match class {
            ClassKind::Lockstep => &mut self.counts.lockstep,
            ClassKind::Batched => &mut self.counts.batched,
            ClassKind::Replicated => &mut self.counts.replicated,
            ClassKind::Ordered => &mut self.counts.ordered,
            // The follower's pump counts the flush of each `Batch`.
            ClassKind::BatchFlush => return,
        };
        *counter += 1;
    }

    fn arrive(
        &mut self,
        link: &RemoteLeader,
        at: Binding,
        wait: Option<AckWait>,
        seq: u64,
        publishes: bool,
        req: &SyscallRequest,
    ) -> Polled<AckWait> {
        if let Some(wait) = wait {
            return link.shared.settle(&wait).ok_or(wait);
        }
        let arrive = WireRecord::Arrive {
            thread: at.thread as u32,
            lane: at.shard as u16,
            seq,
            will_publish: publishes,
            cmp: req.comparison_key(),
        };
        let mut conn = link.conn();
        self.append_counts(&mut conn, at);
        let index = conn.append(|out| arrive.encode_frame(out));
        match self.push(link, &mut conn, at) {
            Ok(()) => Err(AckWait::new(link, index, Some((at.thread, seq)))),
            Err(error) => Ok(Err(error)),
        }
    }

    fn flush(
        &mut self,
        link: &RemoteLeader,
        at: Binding,
        _: Option<Infallible>,
        batch: &mut Vec<BatchArrival>,
    ) -> Polled<Infallible> {
        // The follower's pump counts the flush and deposits the block; the
        // leader does not wait for it.
        let mut conn = link.conn();
        self.append_counts(&mut conn, at);
        conn.append(|out| push_batch(out, at.thread as u32, at.shard as u16, batch));
        self.push_due = true;
        Ok(Ok(()))
    }

    fn is_master(&self, _: &RemoteLeader, _: usize) -> bool {
        true
    }

    fn before_execute(
        &mut self,
        link: &RemoteLeader,
        at: Binding,
        _: u64,
        req: &SyscallRequest,
        direct: bool,
    ) -> Settled {
        // A call that may park in the kernel first releases every held
        // frame: no slave may wait on this thread's frames while it sleeps.
        // A batch this call filled goes out now unless a publish carries it
        // (a direct call's slot consume rode its `Arrive`).
        if req.no.may_block() || (direct && self.push_due) {
            self.push(link, &mut link.conn(), at)
        } else {
            Ok(())
        }
    }

    fn publish(
        &mut self,
        link: &RemoteLeader,
        at: Binding,
        seq: u64,
        ts: Option<u64>,
        outcome: &SyscallOutcome,
        queued: bool,
    ) -> Settled {
        let mut conn = link.conn();
        conn.append(|out| push_publish(out, at.thread as u32, seq, ts, outcome));
        // Stream-and-go: the in-proc master never blocks as publisher.  The
        // hold rule (module docs): a deferred ordered call's publish rides
        // its batch's write unless a later timestamp is already out.
        let clock = link.monitor.ordering_clock(0, at.shard);
        if queued && ts.is_some_and(|ts| clock.now() <= ts + 1) {
            return Ok(());
        }
        self.push(link, &mut conn, at)
    }

    fn close(&mut self, link: &RemoteLeader, at: Binding) {
        if link.shared.gate().is_ok() {
            let _ = self.push(link, &mut link.conn(), at);
        }
    }

    /// The `SyncOp` progress marker (the follower's lag metric counts
    /// these), pushed.
    fn sync_op(&mut self, link: &RemoteLeader, at: Binding) {
        let mut conn = link.conn();
        let marker = WireRecord::SyncOp {
            thread: at.thread as u32,
        };
        conn.append(|out| marker.encode_frame(out));
        let _ = self.push(link, &mut conn, at);
    }

    fn wait_on(link: &RemoteLeader, _: usize, moved: impl FnMut() -> bool) {
        Waiter::default().wait_until_event(&link.shared.events, moved);
    }
}

/// The leader's per-thread syscall handle: the one blocking port over the
/// wire backend (see the [module docs](self)).  `Send` but `!Sync`, like
/// every [`ThreadPort`]: it owns unsynchronized counters and a
/// deferred-comparison queue.
pub type LeaderPort = ThreadPort<Wire>;
