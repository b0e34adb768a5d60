//! Polling monitor shards: a fixed pool of poller threads drains many
//! ports' submission rings through non-blocking rendezvous.
//!
//! A monitor-side thread that serves a port ([`crate::async_port`]) by
//! *blocking* — inside a rendezvous, an outcome wait or an ordering turn —
//! can serve only that port, so the monitor side would cost
//! variants×threads OS threads, and on a small CPU budget their context
//! switches eat the latency win the rings bought (BASELINES.md, *Retired
//! designs*).  Nor can one blocking thread drain several ports:
//! cross-thread submission order legitimately differs between variants
//! (the paper's premise), so a drain stuck in thread A's rendezvous for
//! variant 0 may be the only thing that could deposit thread B's arrival,
//! which variant 1 is blocked waiting for — a circular wait across
//! variants.
//!
//! The per-call protocol (`crate::call`) never blocks — it is written
//! against the lockstep table's `try_*` / `poll_*` face and
//! [`SyscallOrderingClock::try_turn`](crate::ordering::SyscallOrderingClock::try_turn)
//! — and this module is the driver that multiplexes it:
//!
//! * [`PollerPool`] owns `n` poller threads
//!   ([`Pollers`](crate::config::Pollers)), created with the MVEE and
//!   shared by every [`AsyncThreadPort`] the build hands out —
//!   monitor-side threads are exactly `n`, independent of
//!   variants×threads.
//! * Each port served is *rings + queue + outbox + one call machine*.  A
//!   poller round-robins its assigned ports: drain the submission ring →
//!   start or step the port's machine (deposit → pending → poll →
//!   verdict) → post completions.  No step ever sleeps on one port's
//!   progress, so the circular wait above just interleaves.
//! * The machine is the **same** one a blocking
//!   [`ThreadPort`](crate::port::ThreadPort) steps on the variant's own
//!   stack, so the two transports cannot disagree on a verdict, a counter
//!   or a timeout attribution (`tests/polling_equivalence.rs` checks it by
//!   property anyway).
//! * A poller parks on its [`PollWaker`]'s event count only when every
//!   ring it serves is empty and every machine is blocked.  Ring pushes
//!   raise the waker directly; rendezvous deposits, outcome publications
//!   and poison raise it through the lockstep table's observer list;
//!   ordering-clock turns and expired deadlines are re-checked from the
//!   park condition (the event count's bounded park turns a missed edge
//!   into a poll).
//!
//! [`AsyncThreadPort`]: crate::async_port::AsyncThreadPort

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::Mutex;

use mvee_sync_agent::guards::EventCount;
use mvee_sync_agent::spsc::DescRing;

use crate::async_port::{Completion, Submission};
use crate::call::{CallMachine, Step};
use crate::lockstep::PollWaker;
use crate::monitor::Monitor;

/// The completion signal an async port's `Drop` waits on: raised once by
/// the poller after the port's `Close` has flushed trailing comparisons
/// and released the (variant, thread) binding.
#[derive(Debug, Default)]
pub(crate) struct TaskDone {
    finished: AtomicBool,
    events: EventCount,
}

impl TaskDone {
    /// Whether the poller has finished serving (and released) the port.
    pub(crate) fn is_finished(&self) -> bool {
        self.finished.load(Ordering::Acquire)
    }

    /// The event count a dropping port parks on.
    pub(crate) fn events(&self) -> &EventCount {
        &self.events
    }

    fn finish(&self) {
        self.finished.store(true, Ordering::Release);
        self.events.notify_all();
    }
}

/// What [`PollerPool::register`] hands back to an
/// [`AsyncThreadPort`](crate::async_port::AsyncThreadPort): the ring pair
/// the port talks through, the waker of the poller serving it, and the
/// close signal its `Drop` waits on.
pub(crate) struct PortRegistration {
    pub(crate) submissions: Arc<DescRing<Submission>>,
    pub(crate) completions: Arc<DescRing<Completion>>,
    pub(crate) waker: Arc<PollWaker>,
    pub(crate) done: Arc<TaskDone>,
}

/// A fixed pool of polling monitor shards (see the [module docs](self)).
///
/// Built by [`Mvee`](crate::mvee::Mvee) when the transport is
/// `Transport::AsyncRings`; every async port registers here and is
/// assigned to one of the `n` pollers round-robin.  The pool shuts its
/// pollers down when the last reference — the `Mvee` plus every live async
/// port holds one — is dropped.
pub struct PollerPool {
    shards: Vec<ShardHandle>,
    next: AtomicUsize,
}

struct ShardHandle {
    intake: Arc<Intake>,
    waker: Arc<PollWaker>,
    worker: Option<JoinHandle<()>>,
}

/// The registration mailbox between `register` (any thread) and one poller.
#[derive(Default)]
struct Intake {
    new_tasks: Mutex<Vec<PortTask>>,
    shutdown: AtomicBool,
}

impl PollerPool {
    /// Spawns `workers` poller threads serving the given monitor.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero (the builder rejects `Pollers::Pool(0)`
    /// before ever getting here).
    pub(crate) fn new(monitor: &Arc<Monitor>, workers: usize) -> Self {
        assert!(workers > 0, "a polling pool needs at least one worker");
        let shards = (0..workers)
            .map(|k| {
                let intake = Arc::new(Intake::default());
                let waker = Arc::new(PollWaker::new());
                // Rendezvous deposits, outcome publications and poison must
                // wake a parked poller: they are exactly the events that
                // resolve a Pending token.
                monitor.lockstep().register_observer(Arc::clone(&waker));
                let worker = {
                    let monitor = Arc::clone(monitor);
                    let intake = Arc::clone(&intake);
                    let waker = Arc::clone(&waker);
                    std::thread::Builder::new()
                        .name(format!("mvee-poll-{k}"))
                        .spawn(move || serve_shard(&monitor, &intake, &waker))
                        .expect("spawning a poller thread failed")
                };
                ShardHandle {
                    intake,
                    waker,
                    worker: Some(worker),
                }
            })
            .collect();
        PollerPool {
            shards,
            next: AtomicUsize::new(0),
        }
    }

    /// Number of poller threads — the monitor-side thread count,
    /// independent of variants×threads.
    pub fn worker_count(&self) -> usize {
        self.shards.len()
    }

    /// Registers a (variant, thread) port with the pool: acquires the
    /// monitor-side binding **on the caller's stack** (so the one-live-port
    /// panic surfaces where the port is created), builds the ring pair and
    /// hands the port task to the next poller round-robin.
    pub(crate) fn register(
        &self,
        monitor: &Arc<Monitor>,
        variant: usize,
        thread: usize,
        depth: usize,
    ) -> PortRegistration {
        let machine = CallMachine::new(monitor, variant, thread);
        let submissions = Arc::new(DescRing::new(depth));
        let completions = Arc::new(DescRing::new(depth));
        let done = Arc::new(TaskDone::default());
        let task = PortTask {
            machine,
            submissions: Arc::clone(&submissions),
            completions: Arc::clone(&completions),
            queue: VecDeque::new(),
            current: None,
            outbox: VecDeque::new(),
            done: Arc::clone(&done),
        };
        let k = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let handle = &self.shards[k];
        handle.intake.new_tasks.lock().push(task);
        handle.waker.raise();
        PortRegistration {
            submissions,
            completions,
            waker: Arc::clone(&handle.waker),
            done,
        }
    }
}

impl Drop for PollerPool {
    fn drop(&mut self) {
        // The last reference is gone: every pooled port has closed (each
        // held an `Arc<PollerPool>`), so the pollers are idle.  Tell them
        // to exit and join.
        for shard in &self.shards {
            shard.intake.shutdown.store(true, Ordering::Release);
            shard.waker.raise();
        }
        for shard in &mut self.shards {
            if let Some(worker) = shard.worker.take() {
                let _ = worker.join();
            }
        }
    }
}

impl std::fmt::Debug for PollerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PollerPool")
            .field("workers", &self.shards.len())
            .finish()
    }
}

/// One poller thread: round-robin over the assigned port tasks, advancing
/// each without ever blocking on any one port's progress, parking only
/// when nothing can move.
fn serve_shard(monitor: &Arc<Monitor>, intake: &Intake, waker: &PollWaker) {
    let waiter = monitor.config().ring_waiter();
    let mut tasks: Vec<PortTask> = Vec::new();
    loop {
        // Snapshot the raise epoch *before* looking at any work, so a raise
        // racing the pass below is caught by the park condition.
        let epoch = waker.epoch();
        tasks.append(&mut intake.new_tasks.lock());
        let mut progressed = false;
        let mut i = 0;
        while i < tasks.len() {
            match advance_task(monitor, &mut tasks[i]) {
                Advance::Finished => {
                    let task = tasks.swap_remove(i);
                    task.done.finish();
                    progressed = true;
                }
                Advance::Progress => {
                    progressed = true;
                    i += 1;
                }
                Advance::Idle => i += 1,
            }
        }
        if progressed {
            continue;
        }
        if intake.shutdown.load(Ordering::Acquire)
            && tasks.is_empty()
            && intake.new_tasks.lock().is_empty()
        {
            return;
        }
        // Everything is pending: park until a raise (ring push, rendezvous
        // deposit/publish, poison, registration, shutdown) or until a
        // deadline or ordering turn demands another pass.  Turn advances
        // and passed deadlines raise no event, but the event count's
        // bounded park re-evaluates this condition periodically, so they
        // degrade to a poll instead of a hang.
        let deadline = tasks.iter().filter_map(|t| t.machine.wait_deadline()).min();
        waiter.wait_until_event(waker.events(), || {
            waker.epoch() != epoch
                || intake.shutdown.load(Ordering::Acquire)
                || deadline.is_some_and(|d| Instant::now() >= d)
                || tasks.iter().any(|t| t.wake_ready(monitor))
        });
    }
}

/// What one round-robin visit (or one machine step) did with a task.
enum Advance {
    /// The task's `Close` completed: the port binding is released and the
    /// task must be retired.
    Finished,
    /// At least one step moved (submissions drained, a state transition, a
    /// completion posted).
    Progress,
    /// Nothing could move: the queue is empty or the machine is waiting on
    /// peers.
    Idle,
}

/// Drains the task's submission ring and advances its call machine until
/// it can no longer move.
fn advance_task(monitor: &Monitor, task: &mut PortTask) -> Advance {
    let mut progress = task.flush_outbox();
    loop {
        // Quiet pops: one `space` notification per drain burst is enough
        // for a variant parked on a full submission ring, and skips the
        // per-entry notify fence on the poller's hottest loop.
        let mut drained = false;
        while let Some(submission) = task.submissions.try_pop_quiet() {
            task.queue.push_back(submission);
            drained = true;
        }
        if drained {
            progress = true;
            task.submissions.space_events().notify();
        }
        match task.step(monitor) {
            Advance::Progress => {
                progress = true;
                task.flush_outbox();
            }
            Advance::Idle => break,
            Advance::Finished => {
                task.flush_outbox();
                return Advance::Finished;
            }
        }
    }
    if progress {
        Advance::Progress
    } else {
        Advance::Idle
    }
}

/// One port served by a poller: the monitor-side half of an
/// [`AsyncThreadPort`](crate::async_port::AsyncThreadPort) — its ring pair
/// and the call machine the poller drives on its behalf.
struct PortTask {
    machine: CallMachine,
    submissions: Arc<DescRing<Submission>>,
    completions: Arc<DescRing<Completion>>,
    /// Submissions drained from the ring but not yet started (the machine
    /// runs them strictly in order).
    queue: VecDeque<Submission>,
    /// The submission the machine is running; its request stays here,
    /// borrowed by every step.
    current: Option<Submission>,
    /// Completions awaiting space in the completion ring; the poller never
    /// blocks pushing one.
    outbox: VecDeque<Completion>,
    done: Arc<TaskDone>,
}

impl PortTask {
    /// Moves completions from the outbox into the completion ring until it
    /// fills up, waking any parked reaper once per burst: the quiet pushes
    /// skip the per-entry notify fence and the single `ready` notification
    /// after the burst covers everything deposited.
    fn flush_outbox(&mut self) -> bool {
        let mut progress = false;
        while let Some(completion) = self.outbox.pop_front() {
            match self.completions.try_push_quiet(completion) {
                Ok(()) => progress = true,
                Err(back) => {
                    self.outbox.push_front(back);
                    break;
                }
            }
        }
        if progress {
            self.completions.ready_events().notify();
        }
        progress
    }

    /// Whether this task could move right now — the non-edge-triggered half
    /// of the poller's park condition (ring pushes raise the waker, but
    /// ordering-clock turns and completion-ring drains do not).
    fn wake_ready(&self, monitor: &Monitor) -> bool {
        !self.submissions.is_empty()
            || (!self.outbox.is_empty() && !self.completions.is_full())
            || self.machine.turn_ready(monitor)
    }

    /// Starts the next queued submission, or steps the one in flight, and
    /// posts the completion once the machine is done with it.
    fn step(&mut self, monitor: &Monitor) -> Advance {
        let step = match &self.current {
            Some(Submission::Call { req, .. }) => self.machine.step(monitor, Some(req)),
            Some(_) => self.machine.step(monitor, None),
            None => {
                let Some(submission) = self.queue.pop_front() else {
                    return Advance::Idle;
                };
                let submission = self.current.insert(submission);
                match submission {
                    Submission::Call { req, .. } => self.machine.start(monitor, req),
                    Submission::Flush { .. } => self.machine.flush(monitor),
                    Submission::Close => self.machine.close(monitor),
                }
            }
        };
        match step {
            Step::Progress => Advance::Progress,
            Step::Blocked => Advance::Idle,
            Step::Done(result) => match self.current.take() {
                Some(Submission::Call { ticket, .. } | Submission::Flush { ticket }) => {
                    self.outbox.push_back(Completion { ticket, result });
                    Advance::Progress
                }
                // The close released the (variant, thread) binding; it has
                // no ticket to answer.
                Some(Submission::Close) | None => Advance::Finished,
            },
        }
    }
}
