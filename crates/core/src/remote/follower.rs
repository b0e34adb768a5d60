//! The follower monitor: consumes the leader's frame stream, drives the
//! in-proc rendezvous machinery on the leader's behalf, compares
//! asynchronously and acknowledges progress.
//!
//! [`Follower::spawn`] starts two threads over the follower end of a
//! [`Duplex`]:
//!
//! * a **reader** that decodes frames off the channel into an inbox (it
//!   never touches monitor state, so a slow rendezvous cannot back up the
//!   raw byte stream), and
//! * a **pump** that applies the records: counter records (`Counts`,
//!   `SyncOp`) update the monitor's stat lanes directly — a `Counts` record
//!   through the same `Monitor::count_*` calls, one per call it counts, the
//!   in-proc gateway makes — while
//!   rendezvous records (`Arrive`, `Batch`, `Publish`) are queued per
//!   leader thread and deposited into the
//!   [`LockstepTable`](crate::lockstep::LockstepTable) as variant 0 —
//!   through the same non-blocking try/poll interface and the same verdict
//!   settlers (`crate::call`) the in-proc call machine uses, so a remote
//!   run's divergence reports are field-identical to an in-proc run's.
//!
//! The pump tracks the longest *contiguous* prefix of fully processed
//! frames, and acknowledges it only when that prefix passes one of the two
//! frame kinds the leader waits on: a synchronous `Arrive` (acked once its
//! rendezvous resolved — that ack is what unblocks the leader, making the
//! leader block exactly where the in-proc master blocks) or a `Barrier`.
//! Deferred batches, publishes and counters are never acked on their own:
//! the leader never waits for them, so comparison stays asynchronous and
//! the pump writes about one ack per round instead of one per pass.  The
//! distance the leader ran ahead (measured in leader sync ops) is recorded
//! as the divergence-detection lag when a deferred comparison turns out to
//! diverge.
//!
//! The pump never blocks on any single rendezvous: per-thread queues
//! advance independently, and the pump parks on a [`PollWaker`] registered
//! with the table — a slave deposit, an outcome publication, poison, a new
//! frame, or an abort all wake it.
//!
//! If the stream dies (torn connection, garbage, leader gone without
//! `Bye`) or carries a record no leader sends (a mismatched `Hello`, a
//! `Batch` longer than the `Hello`'s batch or out of call order) the pump
//! records a typed [`PeerFailure`]
//! naming the leader and poisons the rendezvous table so every in-proc
//! slave thread unblocks promptly.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::Mutex;

use mvee_kernel::syscall::{ComparisonKey, SyscallOutcome};

use crate::call::{settle_arrival, settle_batch};
use crate::frame::{FrameReader, ReadFrameError};
use crate::lockstep::{ArrivalToken, BatchArrival, BatchToken, PollWaker, TryArrive, TryBatch};
use crate::monitor::{Monitor, MonitorError};
use crate::remote::transport::Duplex;
use crate::remote::wire::WireRecord;
use crate::remote::{PeerFailure, PeerFailureKind, RemotePeer};

/// Namespace for [`Follower::spawn`].
#[derive(Debug)]
pub struct Follower;

/// Handle to a running follower: fault inspection, abort, and join-on-drop.
///
/// Drop order contract: close the leader end of the channel (or let
/// [`RemoteLeader`](crate::remote::RemoteLeader) drop) **before** dropping
/// this handle — the reader thread unblocks only when the leader's write
/// half closes.
#[derive(Debug)]
pub struct FollowerHandle {
    fault: Arc<Mutex<Option<PeerFailure>>>,
    stop: Arc<AtomicBool>,
    waker: Arc<PollWaker>,
    reader: Option<JoinHandle<()>>,
    pump: Option<JoinHandle<()>>,
}

impl Follower {
    /// Starts the reader and pump threads over the follower end of a
    /// replication channel, applying the stream to `monitor`.
    pub fn spawn(monitor: Arc<Monitor>, duplex: Duplex) -> FollowerHandle {
        let (rx, tx) = duplex.into_split();
        let fault = Arc::new(Mutex::new(None));
        let stop = Arc::new(AtomicBool::new(false));
        let waker = Arc::new(PollWaker::new());
        let inbox = Arc::new(Inbox {
            queue: Mutex::new(VecDeque::new()),
            reader_done: AtomicBool::new(false),
        });
        let reader = {
            let inbox = Arc::clone(&inbox);
            let fault = Arc::clone(&fault);
            let waker = Arc::clone(&waker);
            std::thread::Builder::new()
                .name("mvee-follower-rx".into())
                .spawn(move || read_leader_stream(rx, &inbox, &fault, &waker))
                .expect("spawning the follower reader thread failed")
        };
        let pump = {
            let fault = Arc::clone(&fault);
            let stop = Arc::clone(&stop);
            let waker = Arc::clone(&waker);
            std::thread::Builder::new()
                .name("mvee-follower-pump".into())
                .spawn(move || Pump::new(monitor, tx, inbox, fault, stop, waker).run())
                .expect("spawning the follower pump thread failed")
        };
        FollowerHandle {
            fault,
            stop,
            waker,
            reader: Some(reader),
            pump: Some(pump),
        }
    }
}

impl FollowerHandle {
    /// The channel failure the follower observed, if any.
    pub fn fault(&self) -> Option<PeerFailure> {
        *self.fault.lock()
    }

    /// Asks the pump to stop at its next pass — simulating follower death
    /// for the fault tests.  The pump poisons the rendezvous table and
    /// closes its write half on the way out, so the leader observes EOF.
    pub fn abort(&self) {
        self.stop.store(true, Ordering::Release);
        self.waker.raise();
    }
}

impl Drop for FollowerHandle {
    fn drop(&mut self) {
        if let Some(pump) = self.pump.take() {
            let _ = pump.join();
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// Decoded frames handed from the reader to the pump.
struct Inbox {
    queue: Mutex<VecDeque<WireRecord>>,
    reader_done: AtomicBool,
}

fn set_fault(fault: &Mutex<Option<PeerFailure>>, waker: &PollWaker, kind: PeerFailureKind) {
    let mut slot = fault.lock();
    if slot.is_none() {
        *slot = Some(PeerFailure {
            peer: RemotePeer::Leader,
            kind,
        });
    }
    drop(slot);
    waker.raise();
}

/// The reader thread: frames off the wire into the inbox, nothing else.
fn read_leader_stream(
    rx: Box<dyn Read + Send>,
    inbox: &Inbox,
    fault: &Mutex<Option<PeerFailure>>,
    waker: &PollWaker,
) {
    let mut frames = FrameReader::new(rx);
    loop {
        match frames.read_frame() {
            Ok(Some(body)) => match WireRecord::decode(body) {
                Ok(record) => {
                    let is_bye = matches!(record, WireRecord::Bye);
                    inbox.queue.lock().push_back(record);
                    waker.raise();
                    if is_bye {
                        // The leader closes its write half after `Bye`;
                        // stop here rather than read the EOF.
                        break;
                    }
                }
                Err(_) => {
                    set_fault(fault, waker, PeerFailureKind::Corrupt);
                    break;
                }
            },
            // EOF at a frame boundary without a `Bye`: the leader vanished.
            Ok(None) => {
                set_fault(fault, waker, PeerFailureKind::Disconnected);
                break;
            }
            Err(ReadFrameError::Io(_)) => {
                set_fault(fault, waker, PeerFailureKind::Disconnected);
                break;
            }
            // Truncated / oversized / CRC-mismatching frame.
            Err(_) => {
                set_fault(fault, waker, PeerFailureKind::Corrupt);
                break;
            }
        }
    }
    inbox.reader_done.store(true, Ordering::Release);
    waker.raise();
}

/// A rendezvous record queued behind its thread's earlier records.
enum LaneOp {
    Arrive {
        stat_lane: usize,
        seq: u64,
        will_publish: bool,
        cmp: ComparisonKey,
    },
    Batch {
        stat_lane: usize,
        calls: Vec<(u64, ComparisonKey)>,
    },
    Publish {
        seq: u64,
        timestamp: Option<u64>,
        outcome: SyscallOutcome,
    },
}

/// A deposited rendezvous awaiting peers.
struct Pending {
    /// Stream index of the frame; acked once the rendezvous resolves.
    index: u64,
    /// Leader sync ops ingested when this record was *ingested* — the
    /// baseline the detection-lag metric measures from.  Ingest time, not
    /// deposit time: the leader had already executed the call when the
    /// record entered the stream, so lane-FIFO queueing counts as lag too.
    sync_ops_at_ingest: u64,
    op: PendingOp,
}

enum PendingOp {
    Arrive {
        token: ArrivalToken,
        seq: u64,
        will_publish: bool,
        stat_lane: usize,
        /// Kept for quarantine retries: a re-deposit after a peer is
        /// dropped from the quorum presents the same key again.
        cmp: ComparisonKey,
    },
    Batch {
        token: BatchToken,
        batch: Vec<BatchArrival>,
        stat_lane: usize,
    },
}

impl Pending {
    fn deadline(&self) -> Instant {
        match &self.op {
            PendingOp::Arrive { token, .. } => token.deadline(),
            PendingOp::Batch { token, .. } => token.deadline(),
        }
    }
}

/// One leader thread's rendezvous stream: strictly FIFO — the next record
/// deposits only once the previous one resolved, mirroring the in-proc
/// master's program order (it blocks through a flush before arriving, and
/// through an arrival before publishing).
struct Lane {
    thread: usize,
    /// Queued records: (stream index, sync ops ingested at ingest, op).
    queue: VecDeque<(u64, u64, LaneOp)>,
    pending: Option<Pending>,
}

impl Lane {
    fn idle(&self) -> bool {
        self.queue.is_empty() && self.pending.is_none()
    }
}

/// The pump thread state (see the [module docs](self)).
struct Pump {
    monitor: Arc<Monitor>,
    tx: Option<Box<dyn Write + Send>>,
    /// Encode buffer for outgoing frames, reused across sends.
    out: Vec<u8>,
    inbox: Arc<Inbox>,
    fault: Arc<Mutex<Option<PeerFailure>>>,
    stop: Arc<AtomicBool>,
    waker: Arc<PollWaker>,
    /// Stream index assigned to the next ingested record.
    next_index: u64,
    /// Fully processed records not yet covered by `acked`.
    resolved: BTreeSet<u64>,
    /// Longest contiguous prefix of processed records (= the ack value).
    acked: u64,
    /// Stream indices of the ingested `Arrive` and `Barrier` frames — the
    /// only frames the leader waits on — not yet covered by `acked`.
    awaited: VecDeque<u64>,
    lanes: HashMap<u32, Lane>,
    /// Leader sync ops ingested so far — the detection-lag clock.
    sync_ops_seen: u64,
    hello_seen: bool,
    saw_bye: bool,
    verdict_sent: bool,
}

impl Pump {
    fn new(
        monitor: Arc<Monitor>,
        tx: Box<dyn Write + Send>,
        inbox: Arc<Inbox>,
        fault: Arc<Mutex<Option<PeerFailure>>>,
        stop: Arc<AtomicBool>,
        waker: Arc<PollWaker>,
    ) -> Pump {
        Pump {
            monitor,
            tx: Some(tx),
            out: Vec::with_capacity(64),
            inbox,
            fault,
            stop,
            waker,
            next_index: 0,
            resolved: BTreeSet::new(),
            acked: 0,
            awaited: VecDeque::new(),
            lanes: HashMap::new(),
            sync_ops_seen: 0,
            hello_seen: false,
            saw_bye: false,
            verdict_sent: false,
        }
    }

    fn run(mut self) {
        self.monitor
            .lockstep()
            .register_observer(Arc::clone(&self.waker));
        let waiter = self.monitor.config().ring_waiter();
        loop {
            // Snapshot the raise epoch before looking at any work, so a
            // raise racing this pass is caught by the park condition.
            let epoch = self.waker.epoch();
            let mut progressed = self.ingest();
            progressed |= self.advance_lanes();
            if !self.verdict_sent {
                if let Some(report) = self.monitor.divergence() {
                    self.send(&WireRecord::Verdict { report });
                    self.verdict_sent = true;
                }
            }
            let mut ack_advanced = false;
            while self.resolved.remove(&self.acked) {
                self.acked += 1;
                ack_advanced = true;
            }
            // Ack only a prefix that passes a frame the leader waits on:
            // nothing ever waits on the others.
            let mut ack_due = false;
            while self
                .awaited
                .front()
                .is_some_and(|&index| index < self.acked)
            {
                self.awaited.pop_front();
                ack_due = true;
            }
            if ack_due {
                let through = self.acked;
                self.send(&WireRecord::Ack { through });
            }
            if self.stop.load(Ordering::Acquire) || self.fault.lock().is_some() {
                break;
            }
            if self.inbox.reader_done.load(Ordering::Acquire)
                && self.inbox.queue.lock().is_empty()
                && self.lanes.values().all(Lane::idle)
            {
                break;
            }
            if progressed || ack_advanced {
                continue;
            }
            let deadline = self
                .lanes
                .values()
                .filter_map(|lane| lane.pending.as_ref().map(Pending::deadline))
                .min();
            // Turn advances and passed deadlines raise no event, but the
            // event count's bounded park re-evaluates this condition
            // periodically, so a missed deadline degrades to a poll.  A new
            // inbox frame needs no check of its own: the reader raises the
            // waker after every push, and `epoch` predates this pass's
            // `ingest`.
            waiter.wait_until_event(self.waker.events(), || {
                self.waker.epoch() != epoch
                    || self.stop.load(Ordering::Acquire)
                    || deadline.is_some_and(|d| Instant::now() >= d)
            });
        }
        // Anything short of a clean `Bye` means in-proc slave threads may
        // still be parked waiting on leader arrivals that will never come.
        if self.fault.lock().is_some() || !self.saw_bye || self.stop.load(Ordering::Acquire) {
            if !self.quarantine_wire_lane() {
                self.monitor.lockstep().poison();
            }
        } else {
            self.send(&WireRecord::Bye);
        }
        // Dropping the write half is the leader's EOF.
        self.tx = None;
    }

    /// Under [`RecoveryPolicy::Quarantine`](crate::config::RecoveryPolicy),
    /// a dead replication peer is a dead *variant*, not a dead run: the
    /// wire-attached lane (variant 0, whose rendezvous evidence arrived
    /// over this channel) is dropped from the quorum and the in-proc
    /// survivors keep serving degraded, exactly as they would had the
    /// variant died locally.  Returns `false` when the policy — or the
    /// quorum floor, in which case `fault` has already poisoned — says the
    /// failure must end the run instead.
    fn quarantine_wire_lane(&self) -> bool {
        use crate::config::RecoveryPolicy;
        if !matches!(
            self.monitor.config().recovery,
            RecoveryPolicy::Quarantine { .. }
        ) {
            return false;
        }
        let report = crate::divergence::DivergenceReport {
            kind: crate::divergence::DivergenceKind::ReplicationTimeout {
                publisher: 0,
                arrived: Vec::new(),
            },
            thread: 0,
            sequence: self.sync_ops_seen,
            variant: 0,
        };
        matches!(
            self.monitor.fault(1, 0, report),
            crate::monitor::ArrivalSettle::Retry
        )
    }

    /// Drains the inbox, counting counter records immediately and queueing
    /// rendezvous records on their thread's lane.  Returns whether any
    /// record was ingested.
    fn ingest(&mut self) -> bool {
        let drained: Vec<WireRecord> = {
            let mut queue = self.inbox.queue.lock();
            queue.drain(..).collect()
        };
        let mut progressed = false;
        for record in drained {
            progressed = true;
            let index = self.next_index;
            self.next_index += 1;
            if !self.hello_seen {
                match record {
                    WireRecord::Hello {
                        variants,
                        threads,
                        shards,
                        batch,
                    } => {
                        let config = self.monitor.config();
                        let matches = usize::from(variants) == config.variants
                            && threads as usize == config.workload_threads
                            && usize::from(shards) == self.monitor.shard_count()
                            && usize::from(batch) == config.batch;
                        if !matches {
                            set_fault(&self.fault, &self.waker, PeerFailureKind::Corrupt);
                            return progressed;
                        }
                        self.hello_seen = true;
                        self.resolved.insert(index);
                        continue;
                    }
                    // Any stream that does not open with a matching Hello
                    // is not a leader stream.
                    _ => {
                        set_fault(&self.fault, &self.waker, PeerFailureKind::Corrupt);
                        return progressed;
                    }
                }
            }
            match record {
                WireRecord::Counts {
                    thread,
                    lane,
                    counts,
                } => {
                    let (thread, lane) = (thread as usize, lane as usize);
                    for i in 0..counts.enters {
                        self.monitor
                            .count_enter(0, thread, lane, i < counts.self_aware);
                    }
                    for _ in 0..counts.lockstep {
                        self.monitor.count_lockstep(lane);
                    }
                    for _ in 0..counts.batched {
                        self.monitor.count_batched(lane);
                    }
                    for _ in 0..counts.replicated {
                        self.monitor.count_replicated(lane);
                    }
                    for _ in 0..counts.ordered {
                        self.monitor.count_ordered(lane);
                    }
                    self.resolved.insert(index);
                }
                WireRecord::SyncOp { .. } => {
                    self.sync_ops_seen += 1;
                    self.resolved.insert(index);
                }
                WireRecord::Barrier => {
                    // Nothing to apply: the contiguous-prefix ack rule means
                    // this index is acknowledged only once every earlier
                    // frame fully resolved — the quiescence point.
                    self.resolved.insert(index);
                    self.awaited.push_back(index);
                }
                WireRecord::Bye => {
                    self.saw_bye = true;
                    self.resolved.insert(index);
                }
                WireRecord::Arrive {
                    thread,
                    lane,
                    seq,
                    will_publish,
                    cmp,
                } => {
                    let seen = self.sync_ops_seen;
                    self.awaited.push_back(index);
                    self.lane(thread).queue.push_back((
                        index,
                        seen,
                        LaneOp::Arrive {
                            stat_lane: lane as usize,
                            seq,
                            will_publish,
                            cmp,
                        },
                    ));
                }
                WireRecord::Batch {
                    thread,
                    lane,
                    calls,
                } => {
                    // The leader sends one thread's deferred calls in call
                    // order, at most a batch (the `Hello`'s) at a time.
                    // Anything else is refused here: the table asserts
                    // both, and a panic would kill the pump and strand
                    // every in-proc slave until its lockstep timeout.
                    let in_order = calls.windows(2).all(|pair| pair[0].0 < pair[1].0);
                    if calls.len() > self.monitor.config().batch || !in_order {
                        set_fault(&self.fault, &self.waker, PeerFailureKind::Corrupt);
                        return progressed;
                    }
                    let seen = self.sync_ops_seen;
                    self.lane(thread).queue.push_back((
                        index,
                        seen,
                        LaneOp::Batch {
                            stat_lane: lane as usize,
                            calls,
                        },
                    ));
                }
                WireRecord::Publish {
                    thread,
                    seq,
                    timestamp,
                    outcome,
                } => {
                    let seen = self.sync_ops_seen;
                    self.lane(thread).queue.push_back((
                        index,
                        seen,
                        LaneOp::Publish {
                            seq,
                            timestamp,
                            outcome,
                        },
                    ));
                }
                // Follower→leader records arriving here mean the stream is
                // not a leader stream (or the ends are crossed).
                WireRecord::Hello { .. } | WireRecord::Ack { .. } | WireRecord::Verdict { .. } => {
                    set_fault(&self.fault, &self.waker, PeerFailureKind::Corrupt);
                    return progressed;
                }
            }
        }
        progressed
    }

    fn lane(&mut self, thread: u32) -> &mut Lane {
        self.lanes.entry(thread).or_insert_with(|| Lane {
            thread: thread as usize,
            queue: VecDeque::new(),
            pending: None,
        })
    }

    /// Advances every lane: polls its pending rendezvous and deposits
    /// queued records as previous ones resolve.  Returns whether anything
    /// moved.
    fn advance_lanes(&mut self) -> bool {
        let mut progressed = false;
        let timeout = self.monitor.config().lockstep_timeout;
        // The borrow split: lanes are advanced against the monitor and the
        // resolved set, never against each other.
        let mut finished: Vec<u64> = Vec::new();
        let mut lag: Vec<(usize, u64)> = Vec::new();
        for lane in self.lanes.values_mut() {
            loop {
                if let Some(pending) = lane.pending.take() {
                    match poll_pending(&self.monitor, lane.thread, pending, self.sync_ops_seen) {
                        Polled::Still(pending) => {
                            lane.pending = Some(pending);
                            break;
                        }
                        Polled::Done { index, lagged } => {
                            finished.push(index);
                            if let Some(entry) = lagged {
                                lag.push(entry);
                            }
                            progressed = true;
                            continue;
                        }
                    }
                }
                let Some((index, at_ingest, op)) = lane.queue.pop_front() else {
                    break;
                };
                progressed = true;
                match deposit(
                    &self.monitor,
                    lane.thread,
                    index,
                    op,
                    at_ingest,
                    self.sync_ops_seen,
                    timeout,
                ) {
                    Polled::Still(pending) => {
                        lane.pending = Some(pending);
                        break;
                    }
                    Polled::Done { index, lagged } => {
                        finished.push(index);
                        if let Some(entry) = lagged {
                            lag.push(entry);
                        }
                    }
                }
            }
        }
        for index in finished {
            self.resolved.insert(index);
        }
        for (stat_lane, ops) in lag {
            self.monitor.count_detection_lag(stat_lane, ops);
        }
        progressed
    }

    /// Encodes and writes a follower→leader record; a dead channel records
    /// a fault, which ends the pass loop and poisons the table on exit.
    fn send(&mut self, record: &WireRecord) {
        let Some(tx) = self.tx.as_mut() else {
            return;
        };
        self.out.clear();
        record.encode_frame(&mut self.out);
        if tx.write_all(&self.out).and_then(|()| tx.flush()).is_err() {
            self.tx = None;
            set_fault(&self.fault, &self.waker, PeerFailureKind::Disconnected);
        }
    }
}

/// Outcome of depositing or polling one lane record.
enum Polled {
    /// Peers still missing; keep the registration and re-poll later.
    Still(Pending),
    /// The record fully resolved: ack `index`; `lagged` carries a
    /// detection-lag contribution when the record proved a divergence.
    Done {
        index: u64,
        lagged: Option<(usize, u64)>,
    },
}

/// Deposits one lane record into the rendezvous table as variant 0.
fn deposit(
    monitor: &Monitor,
    thread: usize,
    index: u64,
    op: LaneOp,
    sync_ops_at_ingest: u64,
    sync_ops_seen: u64,
    timeout: std::time::Duration,
) -> Polled {
    match op {
        LaneOp::Arrive {
            stat_lane,
            seq,
            will_publish,
            cmp,
        } => {
            let deposit = monitor
                .lockstep()
                .try_arrive((thread, seq), 0, cmp.clone(), timeout);
            finish_arrive(
                monitor,
                thread,
                index,
                seq,
                will_publish,
                stat_lane,
                sync_ops_at_ingest,
                sync_ops_seen,
                match deposit {
                    TryArrive::Ready(result) => Ok(result),
                    TryArrive::Pending(token) => Err(token),
                },
                cmp,
            )
        }
        LaneOp::Batch { stat_lane, calls } => {
            monitor.count_batch_flush(stat_lane);
            let batch: Vec<BatchArrival> = calls
                .into_iter()
                .map(|(seq, cmp)| BatchArrival {
                    key: (thread, seq),
                    cmp,
                })
                .collect();
            let deposit = monitor.lockstep().try_arrive_batch(0, &batch, timeout);
            finish_batch(
                monitor,
                thread,
                index,
                batch,
                stat_lane,
                sync_ops_at_ingest,
                sync_ops_seen,
                match deposit {
                    TryBatch::Ready(results) => Ok(results),
                    TryBatch::Pending(token) => Err(token),
                },
            )
        }
        LaneOp::Publish {
            seq,
            timestamp,
            outcome,
        } => {
            let key = (thread, seq);
            monitor.lockstep().publish_outcome(key, outcome, timestamp);
            monitor.lockstep().consume(key, 0);
            Polled::Done {
                index,
                lagged: None,
            }
        }
    }
}

/// Polls a pending rendezvous.
fn poll_pending(monitor: &Monitor, thread: usize, pending: Pending, sync_ops_seen: u64) -> Polled {
    let Pending {
        index,
        sync_ops_at_ingest,
        op,
    } = pending;
    match op {
        PendingOp::Arrive {
            token,
            seq,
            will_publish,
            stat_lane,
            cmp,
        } => finish_arrive(
            monitor,
            thread,
            index,
            seq,
            will_publish,
            stat_lane,
            sync_ops_at_ingest,
            sync_ops_seen,
            monitor.lockstep().poll_arrival(token),
            cmp,
        ),
        PendingOp::Batch {
            token,
            batch,
            stat_lane,
        } => finish_batch(
            monitor,
            thread,
            index,
            batch,
            stat_lane,
            sync_ops_at_ingest,
            sync_ops_seen,
            monitor.lockstep().poll_batch(token),
        ),
    }
}

/// Whether the monitor's recorded divergence blames `thread`'s call `seq`.
///
/// The race this covers: when an in-proc slave arrives last at a
/// mismatching slot, *its* mapper records the divergence and poisons the
/// table before the pump re-polls — so the pump observes `Poisoned`, not
/// `Mismatch`, for the very record whose comparison produced the verdict.
/// The lag still belongs to that record.
fn divergence_blames(monitor: &Monitor, thread: usize, seq: u64) -> bool {
    monitor
        .divergence()
        .is_some_and(|report| report.thread == thread && report.sequence == seq)
}

/// Finishes a deposit or a poll of a synchronous arrival (`Err` is the token
/// of one that is still pending): settles the verdict through the shared
/// settler (identical divergence reports to the in-proc path) and consumes
/// the slot when no publication will follow — mirroring the in-proc
/// master's consume on the direct-execution path.  An arrival still pending
/// — the first deposit or a quarantine retry — parks the record.
#[allow(clippy::too_many_arguments)]
fn finish_arrive(
    monitor: &Monitor,
    thread: usize,
    index: u64,
    seq: u64,
    will_publish: bool,
    stat_lane: usize,
    sync_ops_at_ingest: u64,
    sync_ops_seen: u64,
    polled: Result<crate::lockstep::ArrivalResult, ArrivalToken>,
    cmp: ComparisonKey,
) -> Polled {
    let settled =
        polled.and_then(|result| settle_arrival(monitor, 0, thread, seq, result, || cmp.clone()));
    let lagged = match settled {
        Err(token) => {
            return Polled::Still(Pending {
                index,
                sync_ops_at_ingest,
                op: PendingOp::Arrive {
                    token,
                    seq,
                    will_publish,
                    stat_lane,
                    cmp,
                },
            });
        }
        Ok(Ok(())) => {
            if !will_publish {
                monitor.lockstep().consume((thread, seq), 0);
            }
            None
        }
        Ok(Err(MonitorError::Diverged(_))) => Some((stat_lane, sync_ops_seen - sync_ops_at_ingest)),
        Ok(Err(_)) if divergence_blames(monitor, thread, seq) => {
            Some((stat_lane, sync_ops_seen - sync_ops_at_ingest))
        }
        Ok(Err(_)) => None,
    };
    Polled::Done { index, lagged }
}

/// The batched twin of [`finish_arrive`]; the shared batch settler consumes
/// every batch slot itself.
#[allow(clippy::too_many_arguments)]
fn finish_batch(
    monitor: &Monitor,
    thread: usize,
    index: u64,
    mut batch: Vec<BatchArrival>,
    stat_lane: usize,
    sync_ops_at_ingest: u64,
    sync_ops_seen: u64,
    polled: Result<Vec<crate::lockstep::ArrivalResult>, BatchToken>,
) -> Polled {
    let settled = polled.and_then(|results| settle_batch(monitor, 0, thread, &mut batch, results));
    let lagged = match settled {
        Err(token) => {
            return Polled::Still(Pending {
                index,
                sync_ops_at_ingest,
                op: PendingOp::Batch {
                    token,
                    batch,
                    stat_lane,
                },
            });
        }
        Ok(Ok(())) => None,
        Ok(Err(MonitorError::Diverged(_))) => Some((stat_lane, sync_ops_seen - sync_ops_at_ingest)),
        Ok(Err(_)) => batch
            .iter()
            .any(|a| {
                divergence_blames(monitor, thread, a.key.1 & !crate::monitor::DEFERRED_SEQ_BIT)
            })
            .then_some((stat_lane, sync_ops_seen - sync_ops_at_ingest)),
    };
    Polled::Done { index, lagged }
}

#[cfg(test)]
mod tests {
    use std::io::Write;
    use std::time::Duration;

    use mvee_kernel::syscall::{SyscallRequest, Sysno};
    use mvee_sync_agent::agents::AgentKind;

    use super::*;
    use crate::lockstep::MAX_BATCH;
    use crate::monitor::DEFERRED_SEQ_BIT;
    use crate::mvee::Mvee;
    use crate::remote::transport::pipe;

    /// Feeds a matching `Hello` and then `calls` as one `Batch` to a
    /// follower while an in-proc slave waits in a rendezvous: the pump must
    /// refuse the batch as corruption and poison the table, never panic.
    fn refuses_batch(label: &str, calls: Vec<(u64, ComparisonKey)>) {
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
        let (f_rx, leader_tx) = pipe();
        let (_ack_rx, f_tx) = pipe();
        let handle = Follower::spawn(
            Arc::clone(mvee.monitor()),
            Duplex::from_parts(Box::new(f_rx), Box::new(f_tx)),
        );
        // Declared after `handle`, so a failed assertion drops it first and
        // the reader sees EOF instead of `handle`'s join hanging on it.
        let mut leader_tx = leader_tx;
        let slave = {
            let mvee = Arc::clone(&mvee);
            std::thread::spawn(move || {
                mvee.thread_port(1, 0).syscall(
                    &SyscallRequest::new(Sysno::Write)
                        .with_fd(1)
                        .with_payload(b"waiting"),
                )
            })
        };
        let config = mvee.monitor().config();
        let mut frames = Vec::new();
        WireRecord::Hello {
            variants: config.variants as u16,
            threads: config.workload_threads as u32,
            shards: mvee.monitor().shard_count() as u16,
            batch: config.batch as u16,
        }
        .encode_frame(&mut frames);
        WireRecord::Batch {
            thread: 0,
            lane: 0,
            calls,
        }
        .encode_frame(&mut frames);
        leader_tx.write_all(&frames).expect("the pipe is open");

        let deadline = Instant::now() + Duration::from_secs(10);
        let fault = loop {
            if let Some(fault) = handle.fault() {
                break fault;
            }
            assert!(Instant::now() < deadline, "{label}: no fault recorded");
            std::thread::sleep(Duration::from_millis(5));
        };
        assert_eq!(
            fault,
            PeerFailure {
                peer: RemotePeer::Leader,
                kind: PeerFailureKind::Corrupt,
            },
            "{label}"
        );
        let verdict = slave.join().expect("the slave thread panicked");
        assert_eq!(verdict, Err(MonitorError::ShutDown), "{label}");
    }

    fn deferred(seqs: impl IntoIterator<Item = u64>) -> Vec<(u64, ComparisonKey)> {
        let key = SyscallRequest::new(Sysno::Brk).with_int(0).comparison_key();
        seqs.into_iter()
            .map(|seq| (seq | DEFERRED_SEQ_BIT, key.clone()))
            .collect()
    }

    #[test]
    fn a_malformed_batch_faults_the_pump_instead_of_panicking_it() {
        refuses_batch(
            "more calls than MAX_BATCH",
            deferred(0..MAX_BATCH as u64 + 1),
        );
        refuses_batch("more calls than the Hello's batch", deferred(0..9));
        refuses_batch("a repeated seq", deferred([0, 1, 1]));
        refuses_batch("seqs out of call order", deferred([1, 0]));
    }
}
