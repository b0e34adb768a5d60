//! The follower monitor: consumes the leader's frame stream, deposits its
//! rendezvous records in the in-proc machinery on the leader's behalf,
//! compares asynchronously and acknowledges progress.
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
//!   in-proc gateway makes — while rendezvous records (`Arrive`, `Batch`,
//!   `Publish`) queue on their leader thread's lane and are deposited into
//!   the [`LockstepTable`](crate::lockstep::LockstepTable) as variant 0.
//!
//! The leader and the follower are one call machine split at the
//! rendezvous.  The machine has two rendezvous backends: the leader's
//! blocking port (`LeaderPort`, `ThreadPort<Wire>`) runs it over the wire
//! backend (`crate::remote::leader`), and each lane
//! here holds the in-proc backend's own deposit-and-settle waits —
//! `ArrivalWait` for an `Arrive`, `FlushWait` for a `Batch`
//! (`crate::call`) — as its one pending rendezvous.  The pump sees records, not calls (deferred calls reach it
//! only inside a `Batch`, and a call that is neither compared nor
//! replicated sends no frame), so it shares the waits, not the machine; the
//! verdicts, and so a remote run's divergence reports, are the in-proc
//! ones field for field.
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
//! The pump never blocks on any single rendezvous: per-thread lanes
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

use mvee_sync_agent::guards::Waiter;

use crate::call::{ArrivalWait, FlushWait};
use crate::frame::{FrameReader, ReadFrameError};
use crate::journal::ClassKind;
use crate::lockstep::{BatchArrival, PollWaker, SlotKey};
use crate::monitor::{Monitor, MonitorError, DEFERRED_SEQ_BIT};
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
                .spawn(move || {
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
                    .run()
                })
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
    let failure = loop {
        match frames.read_frame() {
            Ok(Some(body)) => match WireRecord::decode(body) {
                Ok(record) => {
                    let is_bye = matches!(record, WireRecord::Bye);
                    inbox.queue.lock().push_back(record);
                    waker.raise();
                    // The leader closes its write half after `Bye`; stop
                    // here rather than read the EOF.
                    if is_bye {
                        break None;
                    }
                }
                Err(_) => break Some(PeerFailureKind::Corrupt),
            },
            // EOF at a frame boundary without a `Bye`: the leader vanished.
            Ok(None) | Err(ReadFrameError::Io(_)) => break Some(PeerFailureKind::Disconnected),
            // Truncated / oversized / CRC-mismatching frame.
            Err(_) => break Some(PeerFailureKind::Corrupt),
        }
    };
    if let Some(kind) = failure {
        set_fault(fault, waker, kind);
    }
    inbox.reader_done.store(true, Ordering::Release);
    waker.raise();
}

/// Where a lane record sits: the stream index its ack covers, the leader
/// sync ops ingested before it, and the stat lane a detection lag is
/// counted in.  Ingest time, not deposit time, is the lag's baseline: the
/// leader had already executed the call when the record entered the
/// stream, so lane-FIFO queueing counts as lag too.
#[derive(Clone, Copy)]
struct Mark {
    index: u64,
    sync_ops_at_ingest: u64,
    stat_lane: usize,
}

/// One leader thread's rendezvous stream: strictly FIFO — the next record
/// deposits only once the previous one resolved, mirroring the in-proc
/// master's program order (it blocks through a flush before arriving, and
/// through an arrival before publishing).
struct Lane {
    thread: usize,
    /// Rendezvous records, the one in flight first: it leaves the queue
    /// once it settles, so an `Arrive` lends its key to the retries.
    queue: VecDeque<(Mark, WireRecord)>,
    /// The front record's wait, once deposited: an `Arrive`'s, or a
    /// `Batch`'s.  At most one is set.
    arrival: Option<ArrivalWait>,
    flush: Option<FlushWait>,
    /// The keys of the lane's `Batch` in flight, reused across batches.
    batch: Vec<BatchArrival>,
}

impl Lane {
    fn deadline(&self) -> Option<Instant> {
        let flush = self.flush.as_ref().map(FlushWait::deadline);
        self.arrival.as_ref().map(ArrivalWait::deadline).or(flush)
    }

    /// Deposits or polls the front record and the ones behind it as each
    /// settles, adding each settled record to `done` with whether it proved
    /// the divergence.  Returns whether anything moved.
    fn advance(&mut self, monitor: &Monitor, done: &mut Vec<(Mark, bool)>) -> bool {
        let mut progressed = false;
        while let Some((_, record)) = self.queue.front_mut() {
            progressed |= self.arrival.is_none() && self.flush.is_none();
            let thread = self.thread;
            let settled = match record {
                WireRecord::Arrive { seq, cmp, .. } => {
                    let wait = self.arrival.take();
                    ArrivalWait::poll(wait, monitor, 0, (thread, *seq), || cmp.clone())
                        .map_err(|wait| self.arrival = Some(wait))
                }
                WireRecord::Batch { lane, calls, .. } => {
                    // Moved into the lane's buffer at the deposit, empty after.
                    let calls = calls.drain(..);
                    let arrivals = calls.map(|(seq, cmp)| BatchArrival {
                        key: (thread, seq),
                        cmp,
                    });
                    self.batch.extend(arrivals);
                    let (wait, lane) = (self.flush.take(), usize::from(*lane));
                    FlushWait::poll(wait, monitor, 0, thread, lane, &mut self.batch)
                        .map_err(|wait| self.flush = Some(wait))
                }
                // A `Publish` settles at once, as it leaves the queue.
                _ => Ok(Ok(())),
            };
            let Ok(settled) = settled else {
                return progressed;
            };
            progressed = true;
            let (mark, record) = self.queue.pop_front().expect("the front record settled");
            let proved = match (settled, record) {
                (Ok(()), record) => {
                    retire(monitor, thread, record);
                    false
                }
                (Err(error), WireRecord::Arrive { seq, .. }) => {
                    proved(monitor, &error, [(thread, seq)].into_iter())
                }
                (Err(error), _) => proved(monitor, &error, self.batch.iter().map(|a| a.key)),
            };
            self.batch.clear();
            done.push((mark, proved));
        }
        progressed
    }
}

/// A lane record that settled consistent leaves the queue: a `Publish`
/// hands its outcome to the slaves, and an `Arrive` no publication follows
/// consumes its slot, as the in-proc master does before executing directly.
fn retire(monitor: &Monitor, thread: usize, record: WireRecord) {
    match record {
        WireRecord::Publish {
            seq,
            timestamp,
            outcome,
            ..
        } => {
            monitor
                .lockstep()
                .publish_outcome((thread, seq), outcome, timestamp);
            monitor.lockstep().consume((thread, seq), 0);
        }
        WireRecord::Arrive {
            seq,
            will_publish: false,
            ..
        } => monitor.lockstep().consume((thread, seq), 0),
        _ => {}
    }
}

/// Whether a record that settled with `error` proved the divergence: it
/// settled as the divergence, or the recorded divergence names one of its
/// `keys`.
///
/// The second case is a race: when an in-proc slave arrives last at a
/// mismatching slot, *its* settle records the divergence and poisons the
/// table before the pump re-polls — so the pump observes `Poisoned`, not
/// `Mismatch`, for the very record whose comparison produced the verdict.
/// The lag still belongs to that record.
fn proved(
    monitor: &Monitor,
    error: &MonitorError,
    mut keys: impl Iterator<Item = SlotKey>,
) -> bool {
    matches!(error, MonitorError::Diverged(_))
        || monitor.divergence().is_some_and(|report| {
            keys.any(|(thread, seq)| {
                report.thread == thread && report.sequence == seq & !DEFERRED_SEQ_BIT
            })
        })
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
    fn run(mut self) {
        self.monitor
            .lockstep()
            .register_observer(Arc::clone(&self.waker));
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
                && self.lanes.values().all(|lane| lane.queue.is_empty())
            {
                break;
            }
            if progressed || ack_advanced {
                continue;
            }
            let deadline = self.lanes.values().filter_map(Lane::deadline).min();
            // A passed deadline raises no event, but the event count's
            // bounded park re-evaluates this condition periodically, so it
            // degrades to a poll.  A new
            // inbox frame needs no check of its own: the reader raises the
            // waker after every push, and `epoch` predates this pass's
            // `ingest`.
            Waiter::default().wait_until_event(self.waker.events(), || {
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
                // Any stream that does not open with a matching `Hello` is
                // not a leader stream of this MVEE.
                if record != WireRecord::hello(&self.monitor) {
                    set_fault(&self.fault, &self.waker, PeerFailureKind::Corrupt);
                    return progressed;
                }
                self.hello_seen = true;
                self.resolved.insert(index);
                continue;
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
                    for (class, calls) in [
                        (ClassKind::Lockstep, counts.lockstep),
                        (ClassKind::Batched, counts.batched),
                        (ClassKind::Replicated, counts.replicated),
                        (ClassKind::Ordered, counts.ordered),
                    ] {
                        for _ in 0..calls {
                            self.monitor.count(lane, class);
                        }
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
                WireRecord::Arrive { thread, lane, .. } => {
                    self.awaited.push_back(index);
                    self.enqueue(thread, index, lane, record);
                }
                WireRecord::Batch {
                    thread,
                    lane,
                    ref calls,
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
                    self.enqueue(thread, index, lane, record);
                }
                WireRecord::Publish { thread, .. } => self.enqueue(thread, index, 0, record),
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

    /// Queues a rendezvous record on leader thread `thread`'s lane.
    fn enqueue(&mut self, thread: u32, index: u64, stat_lane: u16, record: WireRecord) {
        let mark = Mark {
            index,
            sync_ops_at_ingest: self.sync_ops_seen,
            stat_lane: usize::from(stat_lane),
        };
        self.lanes
            .entry(thread)
            .or_insert_with(|| Lane {
                thread: thread as usize,
                queue: VecDeque::new(),
                arrival: None,
                flush: None,
                batch: Vec::new(),
            })
            .queue
            .push_back((mark, record));
    }

    /// Advances every lane, acks aside: settled records join the resolved
    /// set, and a record that proved the divergence adds the leader sync
    /// ops ingested since it to its stat lane's detection lag.  Returns
    /// whether anything moved.
    fn advance_lanes(&mut self) -> bool {
        let mut done = Vec::new();
        let mut progressed = false;
        for lane in self.lanes.values_mut() {
            progressed |= lane.advance(&self.monitor, &mut done);
        }
        for (mark, proved) in done {
            self.resolved.insert(mark.index);
            if proved {
                let lag = self.sync_ops_seen - mark.sync_ops_at_ingest;
                self.monitor.count_detection_lag(mark.stat_lane, lag);
            }
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

#[cfg(test)]
mod tests {
    use std::io::Write;
    use std::time::Duration;

    use mvee_kernel::syscall::{ComparisonKey, SyscallRequest, Sysno};
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
