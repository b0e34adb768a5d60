//! The monitor: the system-call gateway variants call instead of the kernel.
//!
//! In the real ReMon the monitor interposes on system calls with ptrace and a
//! small in-process broker; in this reproduction every variant thread calls
//! the monitor through its [`ThreadPort`](crate::port::ThreadPort) (or one
//! of the port's ring-backed / remote siblings).  The information flow is
//! identical to a ptrace stop: the monitor sees the call number, the
//! normalized arguments and the calling (variant, thread) pair, decides
//! whether to compare, replicate, order or simply forward the call, and
//! only then lets the variant proceed.
//!
//! The *sequence* of those decisions — the per-call protocol — is written
//! once, as the non-blocking state machine in `crate::call`, which the
//! blocking port and the poller pool both drive.  This module is what that
//! machine runs against: the shared state (rendezvous table, ordering
//! clocks, stat lanes, the divergence and quarantine records), the gateway
//! prologue, and the settlers that turn a rendezvous verdict into the
//! divergence it proves under the configured
//! [`RecoveryPolicy`].
//!
//! # Batched comparisons
//!
//! With [`MonitorConfig::batch`] above 1, the comparisons of *compare-only*
//! calls (see
//! [`CallDisposition::defer_compare`](crate::policy::CallDisposition)) are
//! deferred into a per-(variant, thread) queue, owned by that thread's
//! port, instead of rendezvousing on every call.  The queue is flushed —
//! deposited into the rendezvous table as one
//! [`LockstepTable::try_arrive_batch`] block — when it reaches `batch`
//! entries, before any synchronous monitored call (so comparisons never reorder
//! against a replication point), at the agents' replication points (the
//! port flushes before it enters the agent), and dropped outright on
//! divergence (the batched waiters are woken by the poison broadcast).
//!
//! Deferred comparisons live in a *disjoint* slot-key space (the sequence
//! number's [`DEFERRED_SEQ_BIT`] is set) so a deferred comparison can never
//! collide with the replication/ordering slot of the same call, whose
//! lifetime is governed by the ordinary consume protocol.
//!
//! The trade-off is dMVX-style bounded-window detection: a divergent
//! compare-only call may execute in its own variant's (simulated) address
//! space up to `batch - 1` calls before the mismatch is reported, but never
//! past a replication point — the flush-before-synchronous rule means no
//! externally visible I/O happens while a deferred comparison is pending.
//! `batch = 1` disables deferral and reproduces the per-call rendezvous
//! exactly, which is what the `ablation_batching` benchmark compares
//! against.  Deferral decisions are a pure function of the call stream
//! (policy disposition plus the batch counter), so non-divergent variants
//! always flush at the same per-thread call positions and their batches
//! meet; a variant whose *structure* diverges (it defers where the others
//! rendezvous synchronously) is caught by the rendezvous timeout instead of
//! a key mismatch.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use mvee_kernel::kernel::Kernel;
use mvee_kernel::process::Pid;
use mvee_kernel::syscall::{SyscallOutcome, SyscallRequest, Sysno};
use mvee_sync_agent::guards::Waiter;

use crate::config::{Placement, RecoveryPolicy, Transport};
use crate::divergence::{DivergenceKind, DivergenceReport};
use crate::journal::{ClassKind, JournalHeader, JournalRecorder, JOURNAL_VERSION};
use crate::lockstep::{ArrivalResult, BatchArrival, LockstepTable, DEFAULT_SHARDS, MAX_BATCH};
use crate::ordering::ShardedOrderingClock;
use crate::policy::MonitoringPolicy;

/// Set on the sequence number of a deferred comparison's slot key.
///
/// Keeps the deferred-comparison slots in a key space disjoint from the
/// replication/ordering slots of the same calls: the latter are consumed by
/// the execution machinery while the comparison is still pending, and a
/// shared slot could be reclaimed (or resurrected empty) between the two
/// uses.  The bit is stripped again when a batched mismatch is reported, so
/// divergence reports always carry the original per-thread sequence number.
pub const DEFERRED_SEQ_BIT: u64 = 1 << 63;

/// Monitor configuration.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Number of variants under monitoring.
    pub variants: usize,
    /// The lockstep policy.
    pub policy: MonitoringPolicy,
    /// How long a rendezvous or replication wait may take before the monitor
    /// declares divergence.
    pub lockstep_timeout: Duration,
    /// Maximum number of logical threads per variant.
    pub max_threads: usize,
    /// Number of threads the workload actually uses (≤ `max_threads`).
    /// [`Placement::Grouped`] scales its block size to this count: scaling
    /// against the 64-slot table capacity instead would collapse an
    /// 8-thread run into one shard.
    pub workload_threads: usize,
    /// Number of rendezvous/ordering shards the monitor state is partitioned
    /// into (see [`crate::lockstep`]).  `1` reproduces the original global
    /// table and global ordering clock.
    pub shards: usize,
    /// How many deferred comparisons a variant thread may accumulate before
    /// its batch is flushed to the rendezvous table (see the module docs).
    /// `1` disables deferral and reproduces the per-call rendezvous exactly;
    /// values above [`MAX_BATCH`] are clamped.
    pub batch: usize,
    /// How logical threads are bound to shards (see
    /// [`Placement`]).  [`Placement::RoundRobin`]
    /// reproduces the historical `thread % shards` binding.
    pub placement: Placement,
    /// How variant threads hand calls to the monitor (see
    /// [`Transport`]): blocking in the pipeline
    /// directly, or through per-port submission/completion rings drained by
    /// a polling pool ([`crate::async_port`], [`crate::poller`]).
    pub transport: Transport,
    /// Divergence-journal sink, when the run is being recorded (see
    /// [`crate::journal`]).  `None` — the default — keeps the journal hooks
    /// off the hot path entirely.
    pub journal: Option<Arc<JournalRecorder>>,
    /// What happens to the run when a variant diverges: poison everything
    /// (default) or quarantine only the blamed variant and keep serving on
    /// a degraded quorum (see [`RecoveryPolicy`]).
    pub recovery: RecoveryPolicy,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            variants: 2,
            policy: MonitoringPolicy::StrictLockstep,
            lockstep_timeout: Duration::from_secs(5),
            max_threads: 64,
            workload_threads: 64,
            shards: DEFAULT_SHARDS,
            batch: 1,
            placement: Placement::RoundRobin,
            transport: Transport::Sync,
            journal: None,
            recovery: RecoveryPolicy::PoisonAll,
        }
    }
}

impl MonitorConfig {
    /// The waiter the async transport's ring loops use (reapers parked on
    /// completion rings, polling shards parked on their aggregated wakers)
    /// — the same discipline the agents get from `AgentConfig::waiter`.
    pub fn ring_waiter(&self) -> Waiter {
        Waiter::default()
    }
}

/// Errors the gateway returns to a variant thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MonitorError {
    /// Divergence was detected on this very call; the report describes it.
    Diverged(DivergenceReport),
    /// The MVEE has already been shut down (divergence detected elsewhere);
    /// the variant thread must terminate.
    ShutDown,
    /// The replication channel to the remote peer failed (distributed runs
    /// only, see [`crate::remote`]): the carried failure names the missing
    /// peer and how it was lost.
    Peer(crate::remote::PeerFailure),
}

impl std::fmt::Display for MonitorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MonitorError::Diverged(report) => write!(f, "{}", report.summary()),
            MonitorError::ShutDown => write!(f, "MVEE has been shut down"),
            MonitorError::Peer(failure) => write!(f, "{failure}"),
        }
    }
}

impl std::error::Error for MonitorError {}

/// How a rendezvous verdict settles once routed through the recovery
/// policy.  `Retry` only occurs under
/// [`RecoveryPolicy::Quarantine`](crate::config::RecoveryPolicy): the
/// verdict was superseded by a quarantine and the caller must re-present
/// its arrival with `try_rearrive`.
#[derive(Debug)]
pub(crate) enum ArrivalSettle {
    /// The rendezvous is consistent; proceed.
    Done,
    /// The call fails with this error (divergence, shutdown, ...).
    Fail(MonitorError),
    /// A quarantine superseded the verdict; re-present the arrival.
    Retry,
}

/// How a batch's verdicts settle once routed through the recovery policy.
#[derive(Debug)]
pub(crate) enum BatchSettle {
    /// Every key settled; the result is the batch's overall outcome.
    Done(Result<(), MonitorError>),
    /// These batch indices (in batch order) must be re-presented; their
    /// slots were deliberately not consumed.  Every other key settled and
    /// was consumed.
    Retry(Vec<usize>),
}

/// Aggregate counters the monitor maintains.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MonitorStats {
    /// Total calls that entered the gateway.
    pub total_syscalls: u64,
    /// Calls that required a lockstep rendezvous.
    pub lockstep_syscalls: u64,
    /// Calls whose results were replicated from the master.
    pub replicated_syscalls: u64,
    /// Calls ordered with the syscall ordering clock.
    pub ordered_syscalls: u64,
    /// Divergence verdicts reached: one per `Diverge` journal record,
    /// whether the verdict poisoned the run or only quarantined the blamed
    /// variant (those are counted in `quarantines` as well), so a replayed
    /// journal re-derives the same number.
    pub divergences: u64,
    /// `mvee_self_aware` queries answered.
    pub self_aware_queries: u64,
    /// Compared calls whose comparison was deferred into a batch (a subset
    /// of `lockstep_syscalls`).
    pub batched_comparisons: u64,
    /// Batches flushed to the rendezvous table.
    pub batch_flushes: u64,
    /// Divergence-detection lag, summed over mismatching arrivals: how many
    /// leader sync ops completed between a mismatching arrival reaching the
    /// follower and its verdict ([`Transport::Remote`](crate::config::Transport)
    /// only — the in-proc transports compare before the call returns, so
    /// their lag is zero by construction, and the journal does not carry
    /// it).
    pub detection_lag_sync_ops: u64,
    /// Variants dropped from the expected-arrival set by
    /// [`RecoveryPolicy::Quarantine`] instead of poisoning the run.
    pub quarantines: u64,
    /// Quarantined variants restored to the quorum by
    /// `Mvee::respawn_variant`.
    pub respawns: u64,
    /// Gateway entries served while at least one variant was quarantined
    /// (the degraded-quorum window).
    pub degraded_calls: u64,
}

/// One stripe of monitor counters, padded to a cache line so lanes of
/// different shards never false-share.  The monitor keeps one lane per
/// shard; every counting site passes the calling thread's (cached) shard
/// index as its lane, the same striping discipline the agents'
/// `SharedStats` uses.
#[derive(Debug, Default)]
#[repr(align(64))]
struct StatLane {
    total_syscalls: AtomicU64,
    lockstep_syscalls: AtomicU64,
    replicated_syscalls: AtomicU64,
    ordered_syscalls: AtomicU64,
    divergences: AtomicU64,
    self_aware_queries: AtomicU64,
    batched_comparisons: AtomicU64,
    batch_flushes: AtomicU64,
    detection_lag_sync_ops: AtomicU64,
    quarantines: AtomicU64,
    respawns: AtomicU64,
    degraded_calls: AtomicU64,
}

impl StatLane {
    fn snapshot(&self) -> MonitorStats {
        MonitorStats {
            total_syscalls: self.total_syscalls.load(Ordering::Relaxed),
            lockstep_syscalls: self.lockstep_syscalls.load(Ordering::Relaxed),
            replicated_syscalls: self.replicated_syscalls.load(Ordering::Relaxed),
            ordered_syscalls: self.ordered_syscalls.load(Ordering::Relaxed),
            divergences: self.divergences.load(Ordering::Relaxed),
            self_aware_queries: self.self_aware_queries.load(Ordering::Relaxed),
            batched_comparisons: self.batched_comparisons.load(Ordering::Relaxed),
            batch_flushes: self.batch_flushes.load(Ordering::Relaxed),
            detection_lag_sync_ops: self.detection_lag_sync_ops.load(Ordering::Relaxed),
            quarantines: self.quarantines.load(Ordering::Relaxed),
            respawns: self.respawns.load(Ordering::Relaxed),
            degraded_calls: self.degraded_calls.load(Ordering::Relaxed),
        }
    }
}

impl MonitorStats {
    fn add(&mut self, other: &MonitorStats) {
        self.total_syscalls += other.total_syscalls;
        self.lockstep_syscalls += other.lockstep_syscalls;
        self.replicated_syscalls += other.replicated_syscalls;
        self.ordered_syscalls += other.ordered_syscalls;
        self.divergences += other.divergences;
        self.self_aware_queries += other.self_aware_queries;
        self.batched_comparisons += other.batched_comparisons;
        self.batch_flushes += other.batch_flushes;
        self.detection_lag_sync_ops += other.detection_lag_sync_ops;
        self.quarantines += other.quarantines;
        self.respawns += other.respawns;
        self.degraded_calls += other.degraded_calls;
    }
}

/// Per (variant, thread) binding state: what a port is handed at
/// acquisition and hands back on drop.  The per-call state (the live
/// sequence counter, the deferred queue) lives in the port.
///
/// The 64-byte alignment keeps neighbouring threads' entries off each
/// other's cache lines.
#[derive(Debug)]
#[repr(align(64))]
struct ThreadState {
    /// Next per-thread sequence number for monitored calls, as of the last
    /// port hand-back (a live port counts privately).
    seq: AtomicU64,
    /// The shard this thread's slots and ordering clock live in; identical
    /// across variants because it depends only on the logical thread index
    /// and the (shared) placement policy.
    shard: usize,
    /// Whether a [`ThreadPort`](crate::port::ThreadPort) currently owns this
    /// (variant, thread)'s gateway state.  At most one port may be live at a
    /// time — the port keeps the sequence counter and deferred queue in
    /// thread-local storage, and a second writer would corrupt the key
    /// stream.  The flag also hands the counter back on port drop.
    port_live: AtomicBool,
}

/// The MVEE monitor.
pub struct Monitor {
    config: MonitorConfig,
    kernel: std::sync::Arc<Kernel>,
    /// Kernel process backing each variant.
    pids: Vec<Pid>,
    lockstep: LockstepTable,
    /// Per-variant sharded syscall ordering clocks.  The master's clocks hand
    /// out timestamps; each slave's clocks gate execution (§4.1), one clock
    /// per thread-group shard.
    ordering_clocks: Vec<ShardedOrderingClock>,
    /// Per (variant, thread) fast-path state.
    threads: Vec<ThreadState>,
    /// Per-shard counter lanes (see [`StatLane`]).
    stats: Box<[StatLane]>,
    diverged: AtomicBool,
    divergence_report: Mutex<Option<DivergenceReport>>,
    /// Called once when divergence is first recorded, after the lockstep
    /// table has been poisoned.  The MVEE front end installs a hook that
    /// poisons the synchronization agent, so threads blocked inside agent
    /// waits (replay, full buffers) abort as promptly as the rendezvous
    /// waiters do.
    poison_hook: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
    /// Per-variant quarantine flags ([`RecoveryPolicy::Quarantine`] only):
    /// a quarantined variant's further gateway entries return `ShutDown`
    /// and its lockstep deposits are refused, while the survivors keep
    /// serving.  Also the serialization point for quarantine decisions —
    /// the flags only flip under [`Monitor::quarantine_reports`]'s lock, so
    /// two concurrent divergences cannot drop the quorum below its floor.
    quarantined: Box<[AtomicBool]>,
    /// The divergence report behind each quarantine, in quarantine order.
    /// Kept separate from `divergence_report`, which stays reserved for the
    /// run-ending poison.
    quarantine_reports: Mutex<Vec<DivergenceReport>>,
    /// Called on every quarantine (`readmitted == false`) and re-admission
    /// (`readmitted == true`) with the variant index.  The front end wires
    /// the sync agent's lane hooks here.
    lane_hook: Mutex<Option<LaneHook>>,
}

/// A quarantine/re-admission observer: `(variant, readmitted)`.
type LaneHook = Box<dyn Fn(usize, bool) + Send + Sync>;

impl Monitor {
    /// Creates a monitor over an existing kernel and pre-spawned variant
    /// processes (`pids[i]` backs variant `i`).
    ///
    /// # Panics
    ///
    /// Panics if `pids.len() != config.variants` or if `config.variants == 0`.
    pub fn new(mut config: MonitorConfig, kernel: std::sync::Arc<Kernel>, pids: Vec<Pid>) -> Self {
        assert!(config.variants > 0, "need at least one variant");
        assert_eq!(
            pids.len(),
            config.variants,
            "one kernel process per variant is required"
        );
        config.batch = config.batch.clamp(1, MAX_BATCH);
        let shards = config.shards.max(1);
        // One thread→shard binding, derived from the placement policy once
        // and shared by the rendezvous table, the ordering clocks and the
        // stat lanes — a thread's entire monitor footprint lives in one
        // shard.  Grouped blocks scale to the *workload's* thread count,
        // not the table capacity.
        let workload_threads = config.workload_threads.clamp(1, config.max_threads);
        let placement_map: Vec<usize> = (0..config.max_threads)
            .map(|t| config.placement.shard_for(t, workload_threads, shards))
            .collect();
        // Reuse the shared map for the per-thread state: the lockstep
        // table's binding and `ThreadState::shard` must never
        // desynchronize.
        let threads = (0..config.variants * config.max_threads)
            .map(|i| ThreadState {
                seq: AtomicU64::new(0),
                shard: placement_map[i % config.max_threads],
                port_live: AtomicBool::new(false),
            })
            .collect();
        let mut lockstep =
            LockstepTable::with_placement_map(config.variants, shards, placement_map);
        if let Some(recorder) = &config.journal {
            recorder.begin(JournalHeader {
                version: JOURNAL_VERSION,
                variants: config.variants as u16,
                threads: config.max_threads as u16,
                shards: shards as u16,
                batch: config.batch as u16,
            });
            // The table emits the Arrival/Publish records itself — one
            // choke point every transport (sync ports, polling shards, the
            // remote follower) already funnels through.
            lockstep.set_journal(Arc::clone(recorder));
        }
        Monitor {
            lockstep,
            ordering_clocks: (0..config.variants)
                .map(|_| ShardedOrderingClock::new(shards))
                .collect(),
            threads,
            stats: (0..shards).map(|_| StatLane::default()).collect(),
            diverged: AtomicBool::new(false),
            divergence_report: Mutex::new(None),
            poison_hook: Mutex::new(None),
            quarantined: (0..config.variants)
                .map(|_| AtomicBool::new(false))
                .collect(),
            quarantine_reports: Mutex::new(Vec::new()),
            lane_hook: Mutex::new(None),
            config,
            kernel,
            pids,
        }
    }

    /// Installs a hook invoked (once) when divergence is recorded, after the
    /// rendezvous table has been poisoned.  Used to propagate the shutdown to
    /// components the monitor does not own, such as the synchronization
    /// agent's blocking waits.
    pub fn set_poison_hook(&self, hook: impl Fn() + Send + Sync + 'static) {
        *self.poison_hook.lock() = Some(Box::new(hook));
    }

    /// Installs the lane hook: called with `(variant, false)` on every
    /// quarantine and `(variant, true)` on every re-admission.  The front
    /// end forwards these to the sync agent's lane hooks.
    pub fn set_lane_hook(&self, hook: impl Fn(usize, bool) + Send + Sync + 'static) {
        *self.lane_hook.lock() = Some(Box::new(hook));
    }

    /// Whether `variant` is currently quarantined.
    pub fn is_quarantined(&self, variant: usize) -> bool {
        self.quarantined[variant].load(Ordering::Acquire)
    }

    /// The currently quarantined variants, in index order.
    pub fn quarantined_variants(&self) -> Vec<usize> {
        (0..self.config.variants)
            .filter(|&v| self.is_quarantined(v))
            .collect()
    }

    /// The divergence reports behind every quarantine so far, in quarantine
    /// order.  Unlike [`divergence`](Self::divergence) — which stays `None`
    /// while the run keeps serving — these do not imply the run ended.
    pub fn quarantine_reports(&self) -> Vec<DivergenceReport> {
        self.quarantine_reports.lock().clone()
    }

    /// The variant currently acting as replication master: the
    /// lowest-indexed live variant.  Variant 0 until a quarantine fails it
    /// over.
    pub fn master_variant(&self) -> usize {
        (0..self.config.variants)
            .find(|&v| self.lockstep.is_active(v))
            .unwrap_or(0)
    }

    /// Attempts to quarantine `blamed` for the failure `report` describes.
    ///
    /// Returns `true` when the variant is quarantined on return (including
    /// the idempotent already-quarantined case) and `false` when the quorum
    /// floor forbids dropping another variant — the caller then falls back
    /// to poisoning the run.  The decision is serialized under the
    /// quarantine-report lock so concurrent divergences cannot race the
    /// quorum below `min_quorum`.
    fn quarantine_variant(
        &self,
        blamed: usize,
        min_quorum: usize,
        report: &DivergenceReport,
    ) -> bool {
        let mut reports = self.quarantine_reports.lock();
        if self.quarantined[blamed].load(Ordering::Acquire) {
            return true;
        }
        // The active mask cannot name variants past 64; such tables never
        // quarantine (the config cannot produce them, this is belt and
        // braces).
        if self.config.variants > 64 || self.lockstep.active_count() <= min_quorum {
            return false;
        }
        self.quarantined[blamed].store(true, Ordering::Release);
        let mut recorded = report.clone();
        recorded.variant = blamed;
        self.record_verdict(&recorded)
            .quarantines
            .fetch_add(1, Ordering::Relaxed);
        reports.push(recorded);
        drop(reports);
        // Sweep the victim out of the rendezvous table — this wakes every
        // survivor blocked on a slot the victim will never complete.  (Its
        // port-local deferred queues die with the refused flush.)
        self.lockstep.quarantine(blamed);
        if let Some(hook) = &*self.lane_hook.lock() {
            hook(blamed, false);
        }
        true
    }

    /// Restores a quarantined variant to the quorum at a quiescent batch
    /// boundary: fast-forwards its per-thread sequence counters and
    /// ordering clocks to the survivors' frontier, clears its quarantine
    /// flag, and re-admits it into the lockstep expected-arrival set.
    ///
    /// The caller (`Mvee::respawn_variant`) must guarantee quiescence — no
    /// survivor call in flight — or the fast-forwarded counters could trail
    /// slots the survivors have already reclaimed.
    ///
    /// # Panics
    ///
    /// Panics if `variant` is not quarantined.
    pub(crate) fn readmit_variant(&self, variant: usize) {
        assert!(
            self.is_quarantined(variant),
            "variant {variant} is not quarantined"
        );
        let survivor = self.master_variant();
        for thread in 0..self.config.max_threads {
            let frontier = (0..self.config.variants)
                .filter(|&v| self.lockstep.is_active(v))
                .map(|v| self.thread_state(v, thread).seq.load(Ordering::Acquire))
                .max()
                .unwrap_or(0);
            self.thread_state(variant, thread)
                .seq
                .store(frontier, Ordering::Release);
        }
        for shard in 0..self.lockstep.shard_count() {
            let now = self.ordering_clocks[survivor].clock(shard).now();
            self.ordering_clocks[variant].clock(shard).resync(now);
        }
        self.quarantined[variant].store(false, Ordering::Release);
        self.lockstep.readmit(variant);
        let lane = self.thread_state(0, 0).shard;
        self.lane(lane).respawns.fetch_add(1, Ordering::Relaxed);
        if let Some(hook) = &*self.lane_hook.lock() {
            hook(variant, true);
        }
    }

    /// Routes a proven failure through the recovery policy: under
    /// [`RecoveryPolicy::PoisonAll`] the failure poisons the run; under
    /// [`RecoveryPolicy::Quarantine`] the blamed variant is dropped from
    /// the quorum and the *surviving* caller retries its wait, while the
    /// blamed caller itself is handed the divergence without poisoning
    /// anything.  `report` is recorded as-is on the poison path; the
    /// quarantine record names the blamed variant.
    pub(crate) fn fault(
        &self,
        caller: usize,
        blamed: usize,
        report: DivergenceReport,
    ) -> ArrivalSettle {
        if self.is_quarantined(caller) {
            // A quarantined caller finishing an in-flight call gets no say:
            // its waits legitimately starve (survivor slots no longer hold
            // outcomes for it), and letting it indict a survivor — or
            // poison the run at the quorum floor — would turn its own
            // removal into the very teardown quarantine exists to avoid.
            return ArrivalSettle::Fail(MonitorError::ShutDown);
        }
        match self.config.recovery {
            RecoveryPolicy::PoisonAll => ArrivalSettle::Fail(self.record_divergence(report)),
            RecoveryPolicy::Quarantine { min_quorum } => {
                if !self.quarantine_variant(blamed, min_quorum, &report) {
                    return ArrivalSettle::Fail(self.record_divergence(report));
                }
                if caller == blamed {
                    ArrivalSettle::Fail(MonitorError::Diverged(report))
                } else {
                    ArrivalSettle::Retry
                }
            }
        }
    }

    /// Number of rendezvous/ordering shards the monitor state is split into.
    pub fn shard_count(&self) -> usize {
        self.lockstep.shard_count()
    }

    /// Live waiter registrations in the rendezvous table; zero once every
    /// in-flight arrival has resolved or been released.  The fault suites
    /// assert this on shutdown to prove nothing leaked a slot.
    pub fn live_slots(&self) -> usize {
        self.lockstep.live_slots()
    }

    /// The monitor configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// The kernel process id backing `variant`.
    pub fn pid_of(&self, variant: usize) -> Pid {
        self.pids[variant]
    }

    /// Whether divergence has been detected.
    pub fn has_diverged(&self) -> bool {
        self.diverged.load(Ordering::Acquire)
    }

    /// The divergence report, if any.
    pub fn divergence(&self) -> Option<DivergenceReport> {
        self.divergence_report.lock().clone()
    }

    /// A snapshot of the monitor's counters, summed over all stat lanes.
    pub fn stats(&self) -> MonitorStats {
        let mut total = MonitorStats::default();
        for lane in self.stats.iter() {
            total.add(&lane.snapshot());
        }
        total
    }

    /// A snapshot of one shard's counter lane — the per-shard view the
    /// striped monitor stats expose, mirroring the agents' `lane_snapshot`.
    pub fn lane_stats(&self, lane: usize) -> MonitorStats {
        self.stats[lane % self.stats.len()].snapshot()
    }

    fn thread_state(&self, variant: usize, thread: usize) -> &ThreadState {
        &self.threads[variant * self.config.max_threads + thread]
    }

    fn lane(&self, lane: usize) -> &StatLane {
        &self.stats[lane % self.stats.len()]
    }

    /// Registers a [`ThreadPort`](crate::port::ThreadPort) as the owner of
    /// (variant, thread)'s gateway state; returns the sequence number the
    /// port continues from and the thread's resolved shard binding.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices or if a live port already owns this
    /// (variant, thread).
    pub(crate) fn acquire_port(&self, variant: usize, thread: usize) -> (u64, usize) {
        assert!(variant < self.config.variants, "unknown variant index");
        assert!(
            thread < self.config.max_threads,
            "thread index out of range"
        );
        let state = self.thread_state(variant, thread);
        assert!(
            !state.port_live.swap(true, Ordering::AcqRel),
            "a live ThreadPort already owns (variant {variant}, thread {thread})"
        );
        (state.seq.load(Ordering::Acquire), state.shard)
    }

    /// Hands a dropped port's sequence counter back so a later port
    /// continues the per-thread key stream.
    pub(crate) fn release_port(&self, variant: usize, thread: usize, next_seq: u64) {
        let state = self.thread_state(variant, thread);
        state.seq.store(next_seq, Ordering::Release);
        state.port_live.store(false, Ordering::Release);
    }

    /// The rendezvous table; the call machine drives its try/poll face
    /// directly.
    pub(crate) fn lockstep(&self) -> &LockstepTable {
        &self.lockstep
    }

    /// Variant `variant`'s ordering clock for `shard`; the call machine
    /// claims, checks (`try_turn`) and advances it directly.
    pub(crate) fn ordering_clock(
        &self,
        variant: usize,
        shard: usize,
    ) -> &crate::ordering::SyscallOrderingClock {
        self.ordering_clocks[variant].clock(shard)
    }

    /// Executes `req` against `variant`'s kernel process.
    pub(crate) fn execute_kernel(
        &self,
        variant: usize,
        thread: usize,
        req: &SyscallRequest,
    ) -> SyscallOutcome {
        self.kernel.execute(self.pids[variant], thread as u64, req)
    }

    /// One divergence verdict, fatal or quarantining: counted and journaled
    /// together, so live `divergences` equals the `Diverge` records a
    /// replay counts.  Returns the diverging thread's own stat lane (the
    /// shard binding depends only on the thread index, so variant 0's
    /// state is as good as any), which is where the per-shard `lane_stats`
    /// view attributes the verdict.
    fn record_verdict(&self, report: &DivergenceReport) -> &StatLane {
        let shard = self
            .thread_state(0, report.thread % self.config.max_threads)
            .shard;
        let lane = self.lane(shard);
        lane.divergences.fetch_add(1, Ordering::Relaxed);
        if let Some(journal) = &self.config.journal {
            journal.record_diverge(report);
        }
        lane
    }

    pub(crate) fn record_divergence(&self, report: DivergenceReport) -> MonitorError {
        self.record_verdict(&report);
        let mut slot = self.divergence_report.lock();
        if slot.is_none() {
            *slot = Some(report.clone());
        }
        drop(slot);
        self.diverged.store(true, Ordering::Release);
        // Wake every thread blocked in a rendezvous or replication wait so
        // the whole MVEE shuts down promptly (this also resolves every
        // batched waiter; the ports drop their deferred comparisons at
        // their next gateway entry), then let the front end poison the
        // agent so replay waits abort too.
        self.lockstep.poison();
        if let Some(hook) = &*self.poison_hook.lock() {
            hook();
        }
        MonitorError::Diverged(report)
    }

    /// Counts (and journals) a batch flush in `lane`'s stripe.
    pub(crate) fn count_batch_flush(&self, lane: usize) {
        self.lane(lane)
            .batch_flushes
            .fetch_add(1, Ordering::Relaxed);
        if let Some(journal) = &self.config.journal {
            journal.record_class(ClassKind::BatchFlush, lane);
        }
    }

    /// Turns a batch's per-key [`ArrivalResult`]s into the first divergence
    /// they prove, routed through the recovery policy.  Settled slots are
    /// consumed on the way (even past a mismatch, so surviving slots are
    /// reclaimed); keys whose verdicts a quarantine superseded are *not*
    /// consumed and come back as [`BatchSettle::Retry`] indices for the
    /// caller to re-present ([`settle_batch`](crate::call::settle_batch)
    /// does).
    pub(crate) fn settle_batch_results(
        &self,
        caller: usize,
        thread: usize,
        batch: &[BatchArrival],
        results: Vec<ArrivalResult>,
    ) -> BatchSettle {
        let mut failure = None;
        let mut retries: Vec<usize> = Vec::new();
        for (i, (arrival, result)) in batch.iter().zip(results).enumerate() {
            if failure.is_some() {
                // Consume every remaining slot past a failure so the
                // surviving slots are reclaimed rather than leaked.
                self.lockstep.consume(arrival.key, caller);
                continue;
            }
            let sequence = arrival.key.1 & !DEFERRED_SEQ_BIT;
            let settle = match result {
                ArrivalResult::Consistent => ArrivalSettle::Done,
                ArrivalResult::Mismatch(bad_variant, master_key, bad_key) => self.fault(
                    caller,
                    bad_variant,
                    DivergenceReport {
                        kind: DivergenceKind::SyscallMismatch {
                            master: master_key.no,
                            variant: bad_key.no,
                        },
                        thread,
                        sequence,
                        variant: bad_variant,
                    },
                ),
                ArrivalResult::Timeout(arrived) => {
                    if self.has_diverged() {
                        ArrivalSettle::Fail(MonitorError::ShutDown)
                    } else {
                        self.timeout_fault(caller, thread, sequence, arrived)
                    }
                }
                ArrivalResult::Poisoned => ArrivalSettle::Fail(MonitorError::ShutDown),
            };
            match settle {
                ArrivalSettle::Done => self.lockstep.consume(arrival.key, caller),
                ArrivalSettle::Fail(error) => {
                    self.lockstep.consume(arrival.key, caller);
                    failure = Some(error);
                }
                ArrivalSettle::Retry => retries.push(i),
            }
        }
        if let Some(error) = failure {
            // The run is over (or this lane is): nothing will re-present
            // the retry-marked keys, so consume them too.
            for i in retries {
                self.lockstep.consume(batch[i].key, caller);
            }
            return BatchSettle::Done(Err(error));
        }
        if retries.is_empty() {
            BatchSettle::Done(Ok(()))
        } else {
            BatchSettle::Retry(retries)
        }
    }

    /// Routes a rendezvous timeout through the recovery policy, blaming the
    /// first *live* variant missing from the arrival set.  When every live
    /// variant did arrive the verdict is stale — it was computed before a
    /// quarantine shrank the expected set — and the caller simply retries
    /// (under [`RecoveryPolicy::PoisonAll`] nothing is ever inactive, so
    /// this degenerates to the historical blame-first-missing behaviour).
    fn timeout_fault(
        &self,
        caller: usize,
        thread: usize,
        sequence: u64,
        arrived: Vec<usize>,
    ) -> ArrivalSettle {
        let missing = (0..self.config.variants)
            .filter(|&v| self.lockstep.is_active(v))
            .find(|v| !arrived.contains(v));
        let Some(missing) = missing else {
            return match self.config.recovery {
                RecoveryPolicy::Quarantine { .. } => ArrivalSettle::Retry,
                RecoveryPolicy::PoisonAll => {
                    ArrivalSettle::Fail(self.record_divergence(DivergenceReport {
                        kind: DivergenceKind::RendezvousTimeout { arrived },
                        thread,
                        sequence,
                        variant: 0,
                    }))
                }
            };
        };
        self.fault(
            caller,
            missing,
            DivergenceReport {
                kind: DivergenceKind::RendezvousTimeout { arrived },
                thread,
                sequence,
                variant: missing,
            },
        )
    }

    /// Shared gateway prologue: the divergence gate, the total-call counter
    /// and the self-awareness pseudo call (§4.5, answered by the monitor and
    /// not the kernel: 0 for the master, the variant index for slaves).
    ///
    /// Returns `Ok(Some(outcome))` when the call was answered without
    /// consuming a sequence number, `Ok(None)` when the caller must carry on
    /// with the full gateway path.
    pub(crate) fn gate_and_count(
        &self,
        variant: usize,
        thread: usize,
        lane: usize,
        req: &SyscallRequest,
    ) -> Result<Option<SyscallOutcome>, MonitorError> {
        if self.has_diverged() {
            return Err(MonitorError::ShutDown);
        }
        if self.is_quarantined(variant) {
            // A quarantined lane must terminate: its deposits are refused
            // and no peer waits for it.  `ShutDown` is the same "stop this
            // thread" instruction a poisoned run hands out, without a new
            // divergence record.
            return Err(MonitorError::ShutDown);
        }
        let self_aware = req.no == Sysno::MveeSelfAware;
        self.count_enter(variant, thread, lane, self_aware);
        if self_aware {
            return Ok(Some(SyscallOutcome::ok(variant as i64)));
        }
        Ok(None)
    }

    /// Counts (and journals) one gateway entry without the divergence gate
    /// or the self-awareness answer.  The follower pump applies the
    /// leader's `Enter` frames through this, so a remote run's counters and
    /// journal mirror the in-proc gateway exactly.
    pub(crate) fn count_enter(&self, variant: usize, thread: usize, lane: usize, self_aware: bool) {
        self.lane(lane)
            .total_syscalls
            .fetch_add(1, Ordering::Relaxed);
        if self.lockstep.active_count() < self.config.variants {
            self.lane(lane)
                .degraded_calls
                .fetch_add(1, Ordering::Relaxed);
        }
        if let Some(journal) = &self.config.journal {
            journal.record_enter(variant, thread, lane, self_aware);
        }
        if self_aware {
            self.lane(lane)
                .self_aware_queries
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Adds `sync_ops` leader sync ops to `lane`'s divergence-detection-lag
    /// counter: how far the leader had run ahead (in replication points)
    /// when a mismatching arrival's verdict landed.  Remote transport only.
    pub(crate) fn count_detection_lag(&self, lane: usize, sync_ops: u64) {
        self.lane(lane)
            .detection_lag_sync_ops
            .fetch_add(sync_ops, Ordering::Relaxed);
    }

    pub(crate) fn count_lockstep(&self, lane: usize) {
        self.lane(lane)
            .lockstep_syscalls
            .fetch_add(1, Ordering::Relaxed);
        if let Some(journal) = &self.config.journal {
            journal.record_class(ClassKind::Lockstep, lane);
        }
    }

    pub(crate) fn count_batched(&self, lane: usize) {
        self.lane(lane)
            .batched_comparisons
            .fetch_add(1, Ordering::Relaxed);
        if let Some(journal) = &self.config.journal {
            journal.record_class(ClassKind::Batched, lane);
        }
    }

    pub(crate) fn count_replicated(&self, lane: usize) {
        self.lane(lane)
            .replicated_syscalls
            .fetch_add(1, Ordering::Relaxed);
        if let Some(journal) = &self.config.journal {
            journal.record_class(ClassKind::Replicated, lane);
        }
    }

    pub(crate) fn count_ordered(&self, lane: usize) {
        self.lane(lane)
            .ordered_syscalls
            .fetch_add(1, Ordering::Relaxed);
        if let Some(journal) = &self.config.journal {
            journal.record_class(ClassKind::Ordered, lane);
        }
    }

    /// Turns a synchronous (unbatched) rendezvous verdict into the
    /// divergence it proves, routed through the recovery policy; a
    /// [`ArrivalSettle::Retry`] tells the caller a quarantine superseded
    /// the verdict and the arrival must be re-presented
    /// ([`settle_arrival`](crate::call::settle_arrival) does).
    pub(crate) fn settle_sync_arrival(
        &self,
        result: ArrivalResult,
        caller: usize,
        thread: usize,
        seq: u64,
    ) -> ArrivalSettle {
        match result {
            ArrivalResult::Consistent => ArrivalSettle::Done,
            ArrivalResult::Mismatch(bad_variant, master_key, bad_key) => self.fault(
                caller,
                bad_variant,
                DivergenceReport {
                    kind: DivergenceKind::SyscallMismatch {
                        master: master_key.no,
                        variant: bad_key.no,
                    },
                    thread,
                    sequence: seq,
                    variant: bad_variant,
                },
            ),
            ArrivalResult::Timeout(arrived) => self.timeout_fault(caller, thread, seq, arrived),
            ArrivalResult::Poisoned => ArrivalSettle::Fail(MonitorError::ShutDown),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::ThreadPort;
    use mvee_kernel::syscall::SyscallArg;
    use mvee_kernel::vfs::OpenFlags;
    use mvee_sync_agent::NullAgent;
    use std::sync::Arc;

    /// Acquires (variant, thread)'s port on a bare monitor (these tests wire
    /// no front end, so the null agent stands in for the injected one).
    fn port(monitor: &Arc<Monitor>, variant: usize, thread: usize) -> ThreadPort {
        ThreadPort::new(
            Arc::clone(monitor),
            Arc::new(NullAgent::new()),
            variant,
            thread,
        )
    }

    /// Issues one call through a port held for just that call.  The port
    /// hands its sequence counter back on drop, so successive calls continue
    /// the thread's key stream; tests that need comparisons to stay deferred
    /// across calls hold their [`port`] instead (a drop flushes the queue).
    fn call(
        monitor: &Arc<Monitor>,
        variant: usize,
        thread: usize,
        req: &SyscallRequest,
    ) -> Result<SyscallOutcome, MonitorError> {
        port(monitor, variant, thread).syscall(req)
    }

    fn make_monitor_config(
        variants: usize,
        policy: MonitoringPolicy,
        shards: usize,
        batch: usize,
    ) -> (Arc<Monitor>, Arc<Kernel>) {
        let kernel = Arc::new(Kernel::new_manual_clock());
        kernel.install_file("/input", b"some input data");
        let pids = (0..variants).map(|_| kernel.spawn_process()).collect();
        let config = MonitorConfig {
            variants,
            policy,
            lockstep_timeout: Duration::from_millis(500),
            max_threads: 8,
            shards,
            batch,
            ..MonitorConfig::default()
        };
        (
            Arc::new(Monitor::new(config, Arc::clone(&kernel), pids)),
            kernel,
        )
    }

    fn make_monitor_sharded(
        variants: usize,
        policy: MonitoringPolicy,
        shards: usize,
    ) -> (Arc<Monitor>, Arc<Kernel>) {
        make_monitor_config(variants, policy, shards, 1)
    }

    /// Single-shard monitor: the original global-table behaviour, used by the
    /// tests whose scenarios rely on a global cross-thread order.
    fn make_monitor(variants: usize, policy: MonitoringPolicy) -> (Arc<Monitor>, Arc<Kernel>) {
        make_monitor_sharded(variants, policy, 1)
    }

    fn open_req(path: &str) -> SyscallRequest {
        SyscallRequest::new(Sysno::Open)
            .with_path(path)
            .with_arg(SyscallArg::Flags(OpenFlags::READ.bits()))
    }

    #[test]
    fn self_aware_call_reports_variant_index() {
        let (monitor, _) = make_monitor(3, MonitoringPolicy::StrictLockstep);
        for v in 0..3 {
            let out = call(&monitor, v, 0, &SyscallRequest::new(Sysno::MveeSelfAware)).unwrap();
            assert_eq!(out.result, Ok(v as i64));
        }
        assert_eq!(monitor.stats().self_aware_queries, 3);
    }

    #[test]
    fn replicated_open_gives_all_variants_the_same_fd() {
        let (monitor, _) = make_monitor(2, MonitoringPolicy::StrictLockstep);
        let m = Arc::clone(&monitor);
        let slave = std::thread::spawn(move || call(&m, 1, 0, &open_req("/input")).unwrap());
        let master = call(&monitor, 0, 0, &open_req("/input")).unwrap();
        let slave = slave.join().unwrap();
        assert_eq!(master.result, slave.result);
        assert_eq!(master.result, Ok(3));
        assert!(!monitor.has_diverged());
    }

    #[test]
    fn replicated_read_copies_master_payload_to_slaves() {
        let (monitor, _) = make_monitor(2, MonitoringPolicy::StrictLockstep);
        // Both variants open the file first.
        let m = Arc::clone(&monitor);
        let t = std::thread::spawn(move || {
            call(&m, 1, 0, &open_req("/input")).unwrap();
            call(
                &m,
                1,
                0,
                &SyscallRequest::new(Sysno::Read).with_fd(3).with_int(4),
            )
            .unwrap()
        });
        call(&monitor, 0, 0, &open_req("/input")).unwrap();
        let master = call(
            &monitor,
            0,
            0,
            &SyscallRequest::new(Sysno::Read).with_fd(3).with_int(4),
        )
        .unwrap();
        let slave = t.join().unwrap();
        assert_eq!(master.payload, b"some");
        assert_eq!(slave.payload, b"some");
    }

    #[test]
    fn lockstep_detects_divergent_write_payloads() {
        let (monitor, _) = make_monitor(2, MonitoringPolicy::StrictLockstep);
        let m = Arc::clone(&monitor);
        let slave = std::thread::spawn(move || {
            call(
                &m,
                1,
                0,
                &SyscallRequest::new(Sysno::Write)
                    .with_fd(1)
                    .with_payload(b"evil"),
            )
        });
        let master = call(
            &monitor,
            0,
            0,
            &SyscallRequest::new(Sysno::Write)
                .with_fd(1)
                .with_payload(b"good"),
        );
        let slave = slave.join().unwrap();
        assert!(master.is_err() || slave.is_err());
        assert!(monitor.has_diverged());
        let report = monitor.divergence().unwrap();
        assert!(matches!(
            report.kind,
            DivergenceKind::SyscallMismatch { .. }
        ));
        assert!(monitor.stats().divergences >= 1);
    }

    #[test]
    fn lockstep_detects_divergent_call_numbers() {
        // The attack scenario: the compromised slave issues mprotect while
        // the master issues a write.
        let (monitor, _) = make_monitor(2, MonitoringPolicy::StrictLockstep);
        let m = Arc::clone(&monitor);
        let slave = std::thread::spawn(move || {
            call(
                &m,
                1,
                0,
                &SyscallRequest::new(Sysno::Mprotect)
                    .with_arg(SyscallArg::Pointer(0x7fff_0000))
                    .with_int(4096)
                    .with_arg(SyscallArg::Flags(7)),
            )
        });
        let master = call(
            &monitor,
            0,
            0,
            &SyscallRequest::new(Sysno::Write)
                .with_fd(1)
                .with_payload(b"response"),
        );
        let slave_result = slave.join().unwrap();
        assert!(master.is_err() || slave_result.is_err());
        assert!(monitor.has_diverged());
    }

    #[test]
    fn missing_variant_triggers_timeout_divergence() {
        let (monitor, _) = make_monitor(2, MonitoringPolicy::StrictLockstep);
        let result = call(&monitor, 0, 0, &open_req("/input"));
        assert!(result.is_err());
        let report = monitor.divergence().unwrap();
        assert!(matches!(
            report.kind,
            DivergenceKind::RendezvousTimeout { .. }
        ));
    }

    #[test]
    fn calls_after_divergence_are_rejected() {
        let (monitor, _) = make_monitor(2, MonitoringPolicy::StrictLockstep);
        let _ = call(&monitor, 0, 0, &open_req("/input"));
        assert!(monitor.has_diverged());
        let r = call(&monitor, 0, 1, &SyscallRequest::new(Sysno::SchedYield));
        assert_eq!(r, Err(MonitorError::ShutDown));
    }

    #[test]
    fn ordered_brk_executes_in_each_variants_own_address_space() {
        let (monitor, _) = make_monitor(2, MonitoringPolicy::NoComparison);
        let m = Arc::clone(&monitor);
        let slave = std::thread::spawn(move || {
            call(&m, 1, 0, &SyscallRequest::new(Sysno::Brk).with_int(0)).unwrap()
        });
        let master = call(&monitor, 0, 0, &SyscallRequest::new(Sysno::Brk).with_int(0)).unwrap();
        let slave = slave.join().unwrap();
        // Both get their own break value; with identical layouts they match.
        assert_eq!(master.result, slave.result);
        assert!(monitor.stats().ordered_syscalls >= 2);
    }

    #[test]
    fn ordering_clock_makes_slave_follow_master_cross_thread_order() {
        // Master: thread 0 brk, then thread 1 brk (timestamps 0 and 1).
        // Slave: thread 1 arrives first but must wait for thread 0.
        let (monitor, kernel) = make_monitor(2, MonitoringPolicy::NoComparison);
        let brk = |m: &Arc<Monitor>, v: usize, t: usize| {
            call(m, v, t, &SyscallRequest::new(Sysno::Brk).with_int(0))
        };
        brk(&monitor, 0, 0).unwrap();
        brk(&monitor, 0, 1).unwrap();

        let m = Arc::clone(&monitor);
        let slave_t1 = std::thread::spawn(move || brk(&m, 1, 1));
        std::thread::sleep(Duration::from_millis(50));
        // Slave thread 1 is stalled on the ordering clock until thread 0 runs.
        brk(&monitor, 1, 0).unwrap();
        slave_t1.join().unwrap().unwrap();
        assert!(!monitor.has_diverged());
        assert_eq!(monitor.stats().ordered_syscalls, 4);
        assert!(kernel.process_syscall_count(monitor.pid_of(1)) >= 1);
    }

    #[test]
    fn relaxed_policy_skips_lockstep_for_non_sensitive_calls() {
        let (monitor, _) = make_monitor(2, MonitoringPolicy::SecuritySensitiveOnly);
        // gettimeofday is not security sensitive: the master proceeds without
        // waiting for the slave to arrive.
        let master = call(&monitor, 0, 0, &SyscallRequest::new(Sysno::Gettimeofday)).unwrap();
        assert_eq!(monitor.stats().lockstep_syscalls, 0);
        // The slave arrives later and still receives the replicated result.
        let slave = call(&monitor, 1, 0, &SyscallRequest::new(Sysno::Gettimeofday)).unwrap();
        assert_eq!(master.payload, slave.payload);
        // A sensitive call under the same policy still requires lockstep: the
        // master alone times out into a divergence.
        let r = call(&monitor, 0, 0, &open_req("/input"));
        assert!(r.is_err());
        assert_eq!(monitor.stats().lockstep_syscalls, 1);
    }

    #[test]
    fn stats_track_call_categories() {
        let (monitor, _) = make_monitor(1, MonitoringPolicy::StrictLockstep);
        call(&monitor, 0, 0, &open_req("/input")).unwrap();
        call(&monitor, 0, 0, &SyscallRequest::new(Sysno::Brk).with_int(0)).unwrap();
        call(&monitor, 0, 0, &SyscallRequest::new(Sysno::SchedYield)).unwrap();
        let s = monitor.stats();
        assert_eq!(s.total_syscalls, 3);
        assert_eq!(s.replicated_syscalls, 1);
        assert_eq!(s.ordered_syscalls, 1);
        assert_eq!(s.divergences, 0);
    }

    #[test]
    fn default_config_is_sharded() {
        let (monitor, _) = {
            let kernel = Arc::new(Kernel::new_manual_clock());
            let pids = (0..2).map(|_| kernel.spawn_process()).collect();
            let config = MonitorConfig::default();
            (
                Arc::new(Monitor::new(config, Arc::clone(&kernel), pids)),
                (),
            )
        };
        assert_eq!(monitor.shard_count(), crate::lockstep::DEFAULT_SHARDS);
    }

    #[test]
    fn sharded_monitor_replicates_across_thread_groups() {
        // Threads 0 and 1 land in different shards (shards = 4); both must
        // still see the master's replicated outcomes.
        let (monitor, _) = make_monitor_sharded(2, MonitoringPolicy::StrictLockstep, 4);
        for thread in 0..2usize {
            let m = Arc::clone(&monitor);
            let slave =
                std::thread::spawn(move || call(&m, 1, thread, &open_req("/input")).unwrap());
            let master = call(&monitor, 0, thread, &open_req("/input")).unwrap();
            assert_eq!(master.result, slave.join().unwrap().result);
        }
        assert!(!monitor.has_diverged());
    }

    #[test]
    fn divergence_in_one_shard_poisons_waiters_in_other_shards() {
        // Thread 2's mismatch must promptly wake thread 0's rendezvous even
        // though they wait on different shards.
        let (monitor, _) = make_monitor_sharded(2, MonitoringPolicy::StrictLockstep, 4);
        let m = Arc::clone(&monitor);
        let stuck = std::thread::spawn(move || {
            // Only variant 0 arrives on thread 0: blocks until poisoned.
            call(&m, 0, 0, &open_req("/input"))
        });
        std::thread::sleep(Duration::from_millis(30));
        let m = Arc::clone(&monitor);
        let slave = std::thread::spawn(move || {
            call(
                &m,
                1,
                2,
                &SyscallRequest::new(Sysno::Mprotect).with_int(4096),
            )
        });
        let master = call(
            &monitor,
            0,
            2,
            &SyscallRequest::new(Sysno::Write)
                .with_fd(1)
                .with_payload(b"ok"),
        );
        let slave = slave.join().unwrap();
        assert!(master.is_err() || slave.is_err());
        assert!(monitor.has_diverged());
        // The cross-shard waiter aborts with ShutDown/Diverged well before
        // its own 500 ms timeout would fire.
        assert!(stuck.join().unwrap().is_err());
    }

    #[test]
    fn divergence_unblocks_ordered_turn_waiters_promptly() {
        // A slave blocked on its ordering-clock turn must abort on divergence
        // instead of spinning out the full (here: 10 s) lockstep timeout.
        let kernel = Arc::new(Kernel::new_manual_clock());
        kernel.install_file("/input", b"some input data");
        let pids = (0..2).map(|_| kernel.spawn_process()).collect();
        let config = MonitorConfig {
            variants: 2,
            // Ordered calls (brk) skip the rendezvous under this policy, so
            // the master can record its cross-thread order alone; the
            // security-sensitive calls below still compare and diverge.
            policy: MonitoringPolicy::SecuritySensitiveOnly,
            lockstep_timeout: Duration::from_secs(10),
            max_threads: 8,
            shards: 1,
            batch: 1,
            ..MonitorConfig::default()
        };
        let monitor = Arc::new(Monitor::new(config, Arc::clone(&kernel), pids));
        let brk = |m: &Arc<Monitor>, v: usize, t: usize| {
            call(m, v, t, &SyscallRequest::new(Sysno::Brk).with_int(0))
        };
        // Master: thread 0 then thread 1 (timestamps 0 and 1).
        brk(&monitor, 0, 0).unwrap();
        brk(&monitor, 0, 1).unwrap();
        // Slave thread 1 stalls on the ordering clock until slave thread 0
        // runs — which it never will.
        let m = Arc::clone(&monitor);
        let stuck = std::thread::spawn(move || {
            let start = std::time::Instant::now();
            let r = brk(&m, 1, 1);
            (r, start.elapsed())
        });
        std::thread::sleep(Duration::from_millis(100));
        // Divergence on an unrelated thread: both calls are
        // security-sensitive, so they rendezvous and mismatch.
        let m = Arc::clone(&monitor);
        let slave = std::thread::spawn(move || {
            call(
                &m,
                1,
                2,
                &SyscallRequest::new(Sysno::Mprotect).with_int(4096),
            )
        });
        let master = call(&monitor, 0, 2, &open_req("/input"));
        assert!(master.is_err() || slave.join().unwrap().is_err());
        let (result, elapsed) = stuck.join().unwrap();
        assert!(result.is_err());
        assert!(
            elapsed < Duration::from_secs(5),
            "ordered waiter took {elapsed:?} to notice the divergence"
        );
    }

    #[test]
    fn ordering_is_preserved_within_a_shard() {
        // With 4 shards, threads 0 and 4 share shard 0: the slave's thread 4
        // must wait for thread 0's earlier ordered call, exactly as in the
        // unsharded design.
        let (monitor, _) = make_monitor_sharded(2, MonitoringPolicy::NoComparison, 4);
        let brk = |m: &Arc<Monitor>, v: usize, t: usize| {
            call(m, v, t, &SyscallRequest::new(Sysno::Brk).with_int(0))
        };
        brk(&monitor, 0, 0).unwrap();
        brk(&monitor, 0, 4).unwrap();

        let m = Arc::clone(&monitor);
        let slave_t4 = std::thread::spawn(move || brk(&m, 1, 4));
        std::thread::sleep(Duration::from_millis(50));
        brk(&monitor, 1, 0).unwrap();
        slave_t4.join().unwrap().unwrap();
        assert!(!monitor.has_diverged());
        assert_eq!(monitor.stats().ordered_syscalls, 4);
    }

    /// Drives `ops` brk calls on thread 0 of every variant (one OS thread
    /// per variant) and returns the monitor for inspection.
    fn run_brk_stream(monitor: &Arc<Monitor>, variants: usize, ops: u64) {
        let mut handles = Vec::new();
        for variant in 0..variants {
            let m = Arc::clone(monitor);
            handles.push(std::thread::spawn(move || {
                let port = port(&m, variant, 0);
                for _ in 0..ops {
                    port.syscall(&SyscallRequest::new(Sysno::Brk).with_int(0))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn batched_brk_stream_is_clean_and_actually_batches() {
        let (monitor, _) = make_monitor_config(2, MonitoringPolicy::StrictLockstep, 4, 8);
        run_brk_stream(&monitor, 2, 32);
        assert!(!monitor.has_diverged());
        let s = monitor.stats();
        assert_eq!(s.lockstep_syscalls, 64);
        assert_eq!(s.batched_comparisons, 64);
        // 32 deferrable calls per variant at batch 8: four full flushes each.
        assert_eq!(s.batch_flushes, 8);
        assert_eq!(monitor.live_slots(), 0);
    }

    #[test]
    fn batch_one_defers_nothing() {
        let (monitor, _) = make_monitor_config(2, MonitoringPolicy::StrictLockstep, 4, 1);
        run_brk_stream(&monitor, 2, 8);
        let s = monitor.stats();
        assert_eq!(s.batched_comparisons, 0);
        assert_eq!(s.batch_flushes, 0);
        assert_eq!(s.lockstep_syscalls, 16);
    }

    #[test]
    fn batched_and_unbatched_runs_agree_on_clean_verdicts() {
        for batch in [1usize, 2, 8] {
            let (monitor, _) = make_monitor_config(2, MonitoringPolicy::StrictLockstep, 4, batch);
            run_brk_stream(&monitor, 2, 16);
            assert!(!monitor.has_diverged(), "batch={batch}");
            let s = monitor.stats();
            assert_eq!(s.lockstep_syscalls, 32, "batch={batch}");
            assert_eq!(s.ordered_syscalls, 32, "batch={batch}");
        }
    }

    #[test]
    fn mid_batch_mismatch_reports_the_original_sequence_number() {
        // Both variants defer three mprotect comparisons; the slave's second
        // one carries different (compared) arguments.  The flush — forced by
        // a synchronous write — must blame exactly call #1, with the
        // deferred-keyspace bit stripped from the reported sequence.
        let (monitor, _) = make_monitor_config(2, MonitoringPolicy::StrictLockstep, 4, 8);
        let mprotect = |len: i64| {
            SyscallRequest::new(Sysno::Mprotect)
                .with_arg(SyscallArg::Pointer(0x7000_0000))
                .with_int(len)
        };
        let write = SyscallRequest::new(Sysno::Write)
            .with_fd(1)
            .with_payload(b"flush");
        let m = Arc::clone(&monitor);
        let w = write.clone();
        let slave = std::thread::spawn(move || {
            let port = port(&m, 1, 0);
            for len in [4096i64, 8192, 4096] {
                port.syscall(&mprotect(len))?;
            }
            port.syscall(&w)
        });
        let master = (|| {
            let port = port(&monitor, 0, 0);
            for _ in 0..3 {
                port.syscall(&mprotect(4096))?;
            }
            port.syscall(&write)
        })();
        let slave = slave.join().unwrap();
        assert!(master.is_err() || slave.is_err());
        assert!(monitor.has_diverged());
        let report = monitor.divergence().unwrap();
        assert!(matches!(
            report.kind,
            DivergenceKind::SyscallMismatch { .. }
        ));
        assert_eq!(report.sequence, 1, "must blame the exact mid-batch slot");
        assert_eq!(report.variant, 1);
        assert!(
            report.sequence & crate::monitor::DEFERRED_SEQ_BIT == 0,
            "reported sequence must be in the original key space"
        );
    }

    #[test]
    fn synchronous_call_flushes_a_partial_batch() {
        // Two deferred brks (batch 8, never full) must still be compared
        // before the variants' next replicated call completes.
        let (monitor, _) = make_monitor_config(2, MonitoringPolicy::StrictLockstep, 4, 8);
        let mut handles = Vec::new();
        for variant in 0..2 {
            let m = Arc::clone(&monitor);
            handles.push(std::thread::spawn(move || {
                let port = port(&m, variant, 0);
                for _ in 0..2 {
                    port.syscall(&SyscallRequest::new(Sysno::Brk).with_int(0))
                        .unwrap();
                }
                assert_eq!(port.pending_comparisons(), 2);
                port.syscall(&open_req("/input")).unwrap();
                assert_eq!(port.pending_comparisons(), 0);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = monitor.stats();
        assert_eq!(s.batched_comparisons, 4);
        assert_eq!(s.batch_flushes, 2, "one flush per variant at the open");
        assert_eq!(monitor.live_slots(), 0);
        assert!(!monitor.has_diverged());
    }

    #[test]
    fn divergence_abandons_deferred_comparisons() {
        let (monitor, _) = make_monitor_config(2, MonitoringPolicy::StrictLockstep, 4, 8);
        // Variant 0 defers one brk comparison, then only variant 0 arrives
        // at a synchronous open: rendezvous timeout, divergence.
        let port = port(&monitor, 0, 0);
        port.syscall(&SyscallRequest::new(Sysno::Brk).with_int(0))
            .unwrap();
        assert_eq!(port.pending_comparisons(), 1);
        let r = port.syscall(&open_req("/input"));
        assert!(r.is_err());
        assert!(monitor.has_diverged());
        assert_eq!(
            port.pending_comparisons(),
            0,
            "divergence must drop pending batches"
        );
    }

    #[test]
    fn replication_timeout_blames_the_waiting_slave_and_names_the_publisher() {
        // Regression: the timeout path used to emit
        // `RendezvousTimeout { arrived: vec![variant] }` with `variant: 0`
        // — blaming the master for a slave's timeout and presenting the
        // timed-out slave as the only arrival.  A slave waiting on a
        // replicated outcome (recv: replicated, never locksteped) that the
        // master never publishes must be reported as the diverging party,
        // with the missing publisher named and the real arrival set.
        let (monitor, _) = make_monitor(2, MonitoringPolicy::StrictLockstep);
        let r = call(&monitor, 1, 0, &SyscallRequest::new(Sysno::Recv).with_fd(3));
        assert!(r.is_err());
        let report = monitor
            .divergence()
            .expect("timeout must record divergence");
        assert_eq!(
            report.variant, 1,
            "the waiting slave is the diverging party"
        );
        assert_eq!(report.thread, 0);
        assert_eq!(report.sequence, 0);
        match report.kind {
            DivergenceKind::ReplicationTimeout { publisher, arrived } => {
                assert_eq!(publisher, 0, "the master never published");
                assert!(
                    arrived.is_empty(),
                    "a replication-only call carries no rendezvous arrivals, got {arrived:?}"
                );
            }
            other => panic!("expected ReplicationTimeout, got {other:?}"),
        }
    }

    #[test]
    fn ordered_publisher_timeout_blames_the_waiting_slave() {
        // Same attribution on the ordered path: under NoComparison a brk is
        // ordered (timestamp-published), so a slave issuing one the master
        // never issued times out waiting for the publication.
        let (monitor, _) = make_monitor(2, MonitoringPolicy::NoComparison);
        let r = call(&monitor, 1, 0, &SyscallRequest::new(Sysno::Brk).with_int(0));
        assert!(r.is_err());
        let report = monitor
            .divergence()
            .expect("timeout must record divergence");
        assert_eq!(report.variant, 1);
        assert!(matches!(
            report.kind,
            DivergenceKind::ReplicationTimeout { publisher: 0, .. }
        ));
    }

    #[test]
    fn mid_batch_divergence_releases_each_waiter_once() {
        // Pin: when divergence lands while other threads stream deferrable
        // calls, the poison sweep must release every rendezvous waiter
        // exactly once.  A double-release underflows `Slot::waiters` (a
        // debug-assert panic that would surface in the `join` below), and a
        // port whose queue survived the shutdown would leave comparisons
        // that are never resolved behind a call that returned `Ok`.
        let (monitor, _) = make_monitor_config(2, MonitoringPolicy::StrictLockstep, 2, 4);
        let mut streams = Vec::new();
        for variant in 0..2 {
            let m = Arc::clone(&monitor);
            streams.push(std::thread::spawn(move || {
                let port = port(&m, variant, 0);
                // Stream until the divergence shuts the MVEE down (bounded
                // so a missed shutdown fails the test instead of hanging).
                for _ in 0..2_000_000 {
                    if port
                        .syscall(&SyscallRequest::new(Sysno::Brk).with_int(0))
                        .is_err()
                    {
                        break;
                    }
                }
                assert_eq!(
                    port.pending_comparisons(),
                    0,
                    "post-divergence deferred queues must be dropped, not leaked"
                );
                // And the shutdown is absorbing: later calls answer ShutDown
                // without re-queueing comparisons.
                let r = port.syscall(&SyscallRequest::new(Sysno::Brk).with_int(0));
                assert_eq!(r, Err(MonitorError::ShutDown));
                assert_eq!(port.pending_comparisons(), 0);
            }));
        }
        // Mid-stream, thread 1 diverges: mismatched calls at its first slot.
        let m = Arc::clone(&monitor);
        let slave = std::thread::spawn(move || {
            call(
                &m,
                1,
                1,
                &SyscallRequest::new(Sysno::Mprotect).with_int(4096),
            )
        });
        let master = call(
            &monitor,
            0,
            1,
            &SyscallRequest::new(Sysno::Write)
                .with_fd(1)
                .with_payload(b"x"),
        );
        let slave = slave.join().expect("diverging slave must not panic");
        assert!(
            master.is_err() || slave.is_err(),
            "the mismatch must be detected"
        );
        for s in streams {
            s.join()
                .expect("stream thread must not panic (no waiter double-release)");
        }
        assert!(monitor.has_diverged());
    }

    #[test]
    fn oversized_batch_knob_is_clamped() {
        let (monitor, _) = make_monitor_config(1, MonitoringPolicy::StrictLockstep, 1, usize::MAX);
        assert_eq!(monitor.config().batch, crate::lockstep::MAX_BATCH);
        let (unbatched, _) = make_monitor_config(1, MonitoringPolicy::StrictLockstep, 1, 0);
        assert_eq!(unbatched.config().batch, 1);
    }

    #[test]
    #[should_panic(expected = "one kernel process per variant")]
    fn monitor_requires_one_pid_per_variant() {
        let kernel = Arc::new(Kernel::new_manual_clock());
        let pid = kernel.spawn_process();
        let config = MonitorConfig {
            variants: 2,
            ..Default::default()
        };
        let _ = Monitor::new(config, kernel, vec![pid]);
    }
}
