//! The MVEE front end: wiring a kernel, a monitor and a synchronization agent
//! together and handing out per-variant gateways.
//!
//! This mirrors ReMon's bootstrap process (§4 of the paper): the bootstrap
//! sets up the variants (here: one simulated kernel process per variant,
//! optionally with a diversified address-space layout), the monitors and the
//! shared buffers, injects the synchronization agent, and then hands control
//! to the monitors.

use std::sync::Arc;
use std::time::Duration;

use mvee_kernel::kernel::Kernel;
use mvee_kernel::process::Pid;
use mvee_sync_agent::agents::{build_agent, AgentKind};
use mvee_sync_agent::context::AgentConfig;
use mvee_sync_agent::{AgentStats, SyncAgent};

use crate::async_port::AsyncThreadPort;
use crate::config::{MveeConfig, Placement, RecoveryPolicy, Transport};
use crate::divergence::DivergenceReport;
use crate::journal::{Journal, JournalError, ReplayError};
use crate::monitor::{Monitor, MonitorConfig, MonitorError, MonitorStats};
use crate::policy::MonitoringPolicy;
use crate::poller::PollerPool;
use crate::port::ThreadPort;
use crate::snapshot::{SnapshotRecord, SnapshotStore};

/// Per-variant address-space layout (ASLR / DCL diversity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VariantLayout {
    /// Program-break base address.
    pub brk_base: u64,
    /// Top of the `mmap` allocation area.
    pub mmap_top: u64,
}

impl VariantLayout {
    /// The default, undiversified layout.
    pub fn default_layout() -> Self {
        VariantLayout {
            brk_base: mvee_kernel::mem::DEFAULT_BRK_BASE,
            mmap_top: mvee_kernel::mem::DEFAULT_MMAP_TOP,
        }
    }
}

/// Builder for an [`Mvee`].
///
/// The tuning knobs (policy, agent, shards, batch, placement, timeout) all
/// live in one shared [`MveeConfig`]; the builder's setters delegate into
/// it, and [`MveeBuilder::config`] swaps the whole block in at once — which
/// is how `RunConfig` and `NginxServerConfig` forward their embedded
/// configuration.
#[derive(Debug, Clone)]
pub struct MveeBuilder {
    variants: usize,
    threads: usize,
    config: MveeConfig,
    layouts: Option<Vec<VariantLayout>>,
    manual_clock: bool,
}

impl Default for MveeBuilder {
    fn default() -> Self {
        MveeBuilder {
            variants: 2,
            threads: 4,
            config: MveeConfig::default(),
            layouts: None,
            manual_clock: false,
        }
    }
}

impl MveeBuilder {
    /// Sets the number of variants.
    pub fn variants(mut self, variants: usize) -> Self {
        self.variants = variants;
        self
    }

    /// Sets the number of logical worker threads per variant.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Replaces the whole shared tuning block (see [`MveeConfig`]).
    pub fn config(mut self, config: MveeConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the monitoring policy.
    pub fn policy(mut self, policy: MonitoringPolicy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Selects the synchronization agent.
    pub fn agent(mut self, kind: AgentKind) -> Self {
        self.config.agent = kind;
        self
    }

    /// Overrides the agent configuration (buffer capacity, clock count, ...).
    pub fn agent_config(mut self, config: AgentConfig) -> Self {
        self.config.agent_config = config;
        self
    }

    /// Sets the rendezvous / replication timeout.
    pub fn lockstep_timeout(mut self, timeout: Duration) -> Self {
        self.config.lockstep_timeout = timeout;
        self
    }

    /// Supplies per-variant address-space layouts (diversity).  The vector
    /// length must match the variant count.
    pub fn layouts(mut self, layouts: Vec<VariantLayout>) -> Self {
        self.layouts = Some(layouts);
        self
    }

    /// Uses a manually driven virtual clock (deterministic tests).
    pub fn manual_clock(mut self, manual: bool) -> Self {
        self.manual_clock = manual;
        self
    }

    /// Sets the number of rendezvous/ordering shards the monitor partitions
    /// its hot-path state into.  `1` reproduces the original global table.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn shards(mut self, shards: usize) -> Self {
        self.config = self.config.with_shards(shards);
        self
    }

    /// Sets the monitor's comparison batch size (see
    /// [`MonitorConfig::batch`]): how many deferred comparisons a variant
    /// thread may accumulate per rendezvous-table flush.  `1` (the default)
    /// disables deferral and reproduces the per-call rendezvous exactly.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn batch(mut self, batch: usize) -> Self {
        self.config = self.config.with_batch(batch);
        self
    }

    /// Sets the shard/core [`Placement`] policy resolved at
    /// [`ThreadPort`] acquisition time.
    pub fn placement(mut self, placement: Placement) -> Self {
        self.config.placement = placement;
        self
    }

    /// Selects the divergence-journal mode (see [`crate::journal`]):
    /// [`JournalMode::Off`](crate::journal::JournalMode::Off) (the default),
    /// `Record` to stream the run's schedule and outcomes into a
    /// [`JournalRecorder`](crate::journal::JournalRecorder), or `Replay` to
    /// carry a decoded [`Journal`] for
    /// [`Mvee::replay_recorded`].
    pub fn journal(mut self, journal: crate::journal::JournalMode) -> Self {
        self.config = self.config.with_journal(journal);
        self
    }

    /// Selects the [`RecoveryPolicy`]: what happens once a divergence is
    /// proven.  [`RecoveryPolicy::PoisonAll`] (the default) tears the run
    /// down; [`RecoveryPolicy::Quarantine`] drops only the blamed variant
    /// and keeps serving on the surviving quorum, from which
    /// [`Mvee::respawn_variant`] can later replay it back.
    pub fn recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.config = self.config.with_recovery(recovery);
        self
    }

    /// Enables periodic state snapshots: every `every` sync ops (per
    /// variant, at the agent's replication points — a transport-invariant
    /// choke point), the variant's private kernel state is captured into
    /// the [`SnapshotStore`].  [`Mvee::respawn_variant`] restores from the
    /// latest such snapshot instead of replaying from process start.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn snapshot_every(mut self, every: u64) -> Self {
        self.config = self.config.with_snapshot_every(Some(every));
        self
    }

    /// Selects the variant↔monitor transport: [`Transport::Sync`] (the
    /// default — calls block inline in the monitor pipeline) or
    /// [`Transport::AsyncRings`] (per-port submission/completion rings
    /// drained by a pool of polling shards; see
    /// [`AsyncThreadPort`]).
    ///
    /// # Panics
    ///
    /// Panics on an async ring depth of zero.
    pub fn transport(mut self, transport: Transport) -> Self {
        self.config = self.config.with_transport(transport);
        self
    }

    /// Builds the MVEE: spawns one kernel process per variant, constructs the
    /// monitor and injects the synchronization agent.
    ///
    /// # Panics
    ///
    /// Panics if a layout vector of the wrong length was supplied, or if
    /// the configured async ring depth is smaller than the comparison
    /// batch size (a port could then fill its ring with deferred calls
    /// that never reach a flush point the monitor side can serve).
    pub fn build(self) -> Mvee {
        if let Transport::AsyncRings { depth, .. } = self.config.transport {
            let batch = self.config.batch.clamp(1, crate::lockstep::MAX_BATCH);
            assert!(
                depth >= batch,
                "async ring depth ({depth}) must be at least the comparison batch \
                 size ({batch}): a ring smaller than one batch cannot hold the \
                 deferred calls a single flush resolves"
            );
        }
        let kernel = Arc::new(if self.manual_clock {
            Kernel::new_manual_clock()
        } else {
            Kernel::new()
        });
        let layouts = self
            .layouts
            .unwrap_or_else(|| vec![VariantLayout::default_layout(); self.variants]);
        assert_eq!(
            layouts.len(),
            self.variants,
            "one layout per variant is required"
        );
        let pids: Vec<Pid> = layouts
            .iter()
            .map(|l| kernel.spawn_process_with_layout(l.brk_base, l.mmap_top))
            .collect();
        let monitor_config = MonitorConfig {
            variants: self.variants,
            policy: self.config.policy,
            lockstep_timeout: self.config.lockstep_timeout,
            max_threads: mvee_sync_agent::context::MAX_THREADS,
            workload_threads: self.threads.max(1),
            shards: self.config.shards,
            batch: self.config.batch,
            placement: self.config.placement.clone(),
            transport: self.config.transport,
            journal: self.config.journal.recorder().cloned(),
            recovery: self.config.recovery,
        };
        let monitor = Arc::new(Monitor::new(
            monitor_config,
            Arc::clone(&kernel),
            pids.clone(),
        ));
        // The async transport shares one fixed set of polling monitor
        // shards across every port the MVEE hands out, sized once at build
        // time (`Auto`: from the machine the MVEE actually runs on).
        let pollers = self
            .config
            .transport
            .pollers()
            .map(|pollers| Arc::new(PollerPool::new(&monitor, pollers.pool_size())));
        let agent_config = self
            .config
            .agent_config
            .with_variants(self.variants)
            .with_threads(self.threads.max(1));
        let agent: Arc<dyn SyncAgent> = Arc::from(build_agent(self.config.agent, agent_config));
        // Divergence must unblock agent waits (replay, full buffers) as
        // promptly as it unblocks rendezvous waiters, or the shutdown can
        // deadlock behind a recording that will never continue.
        monitor.set_poison_hook({
            let agent = Arc::clone(&agent);
            move || agent.poison()
        });
        // Quarantine and re-admission reach the agent through the lane
        // hook, so an agent that tracks per-variant drain state can stop
        // (resp. resume) expecting the variant without being poisoned.
        monitor.set_lane_hook({
            let agent = Arc::clone(&agent);
            move |variant, readmitted| {
                if readmitted {
                    agent.readmit_lane(variant);
                } else {
                    agent.quarantine_lane(variant);
                }
            }
        });
        // A recorded or snapshotted run observes the agent's replication
        // points: the journal logs each sync op, and snapshots are taken
        // there because the replication point is the one choke point every
        // transport — blocking ports, poller pools, the remote leader —
        // funnels through (each port flushes its deferred comparisons just
        // before it enters the agent), so the capture boundary is identical
        // no matter how the variant's calls reach the monitor.  The hook
        // holds the monitor weakly — the monitor already holds the agent
        // through the poison hook, and a strong reference back would leak
        // the pair.
        let journal_recorder = self.config.journal.recorder().cloned();
        let snapshots = self
            .config
            .snapshot_every
            .map(|every| Arc::new(SnapshotStore::new(self.variants, every)));
        if journal_recorder.is_some() || snapshots.is_some() {
            let weak_monitor = Arc::downgrade(&monitor);
            let hook_kernel = Arc::clone(&kernel);
            let hook_snapshots = snapshots.clone();
            let hook_pids = pids.clone();
            agent.set_replication_hook(Arc::new(move |ctx| {
                let Some(monitor) = weak_monitor.upgrade() else {
                    return;
                };
                let variant = ctx.role.variant_index();
                if let Some(recorder) = &journal_recorder {
                    recorder.record_sync_op(variant, ctx.thread);
                }
                let Some(store) = &hook_snapshots else {
                    return;
                };
                let Some(sync_ops) = store.tick(variant) else {
                    return;
                };
                // A dead lane's state is exactly what a respawn must NOT
                // roll forward to; keep its last good snapshot instead.
                if monitor.is_quarantined(variant) || monitor.has_diverged() {
                    return;
                }
                if let Some(image) = hook_kernel.capture_process(hook_pids[variant]) {
                    store.install(SnapshotRecord {
                        variant,
                        sync_ops,
                        journal_records: journal_recorder.as_ref().map_or(0, |rec| rec.records()),
                        clock_ns: hook_kernel.clock().now_nanos(),
                        image,
                    });
                }
            }));
        }
        // A remote transport splits the pair here: the follower's reader +
        // pump threads take one end of the channel, the leader front end
        // the other.  Everything above (kernel, monitor, agent, hooks) is
        // shared — the leader executes through the same monitor instance,
        // only its rendezvous evidence travels by wire.
        let remote = match self.config.transport {
            Transport::Remote { channel } => {
                let (leader_end, follower_end) = crate::remote::Duplex::pair(channel)
                    .expect("establishing the replication channel failed");
                let follower = crate::remote::Follower::spawn(Arc::clone(&monitor), follower_end);
                let leader = crate::remote::RemoteLeader::connect(
                    Arc::clone(&monitor),
                    Arc::clone(&agent),
                    leader_end,
                );
                Some(RemoteParts {
                    leader,
                    follower: Some(follower),
                })
            }
            _ => None,
        };
        let journal = self.config.journal.clone();
        Mvee {
            kernel,
            monitor,
            agent,
            agent_kind: self.config.agent,
            pids,
            variants: self.variants,
            threads: self.threads,
            pollers,
            journal,
            snapshots,
            remote,
        }
    }
}

/// The two ends of a distributed MVEE's replication link, owned by the
/// front end so teardown is ordered: the leader's write half closes first
/// (its `Bye` lets the follower drain to a clean EOF), then the follower
/// handle joins its threads.
struct RemoteParts {
    leader: Arc<crate::remote::RemoteLeader>,
    follower: Option<crate::remote::FollowerHandle>,
}

impl Drop for RemoteParts {
    fn drop(&mut self) {
        self.leader.shutdown();
        self.follower.take();
    }
}

/// A fully wired multi-variant execution environment.
pub struct Mvee {
    kernel: Arc<Kernel>,
    monitor: Arc<Monitor>,
    agent: Arc<dyn SyncAgent>,
    agent_kind: AgentKind,
    pids: Vec<Pid>,
    variants: usize,
    threads: usize,
    /// The shared polling shards (`Transport::AsyncRings` only).
    pollers: Option<Arc<PollerPool>>,
    /// The journal mode the MVEE was built with (see [`crate::journal`]).
    journal: crate::journal::JournalMode,
    /// Per-variant snapshot slots (`snapshot_every` builds only).
    snapshots: Option<Arc<SnapshotStore>>,
    /// The replication link of a distributed MVEE (`Transport::Remote`):
    /// the leader front end plus the follower's thread handle.
    remote: Option<RemoteParts>,
}

impl Mvee {
    /// Starts building an MVEE.
    pub fn builder() -> MveeBuilder {
        MveeBuilder::default()
    }

    /// Number of variants.
    pub fn variants(&self) -> usize {
        self.variants
    }

    /// Number of logical worker threads per variant.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The simulated kernel.
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }

    /// The monitor.
    pub fn monitor(&self) -> &Arc<Monitor> {
        &self.monitor
    }

    /// The injected synchronization agent.
    pub fn agent(&self) -> &Arc<dyn SyncAgent> {
        &self.agent
    }

    /// Which agent design is injected.
    pub fn agent_kind(&self) -> AgentKind {
        self.agent_kind
    }

    /// The kernel process backing variant `v`.
    pub fn pid_of(&self, v: usize) -> Pid {
        self.pids[v]
    }

    /// Divergence report, if the monitor detected one.
    pub fn divergence(&self) -> Option<DivergenceReport> {
        self.monitor.divergence()
    }

    /// Monitor counters.
    pub fn monitor_stats(&self) -> MonitorStats {
        self.monitor.stats()
    }

    /// Agent counters.
    pub fn agent_stats(&self) -> AgentStats {
        self.agent.stats()
    }

    /// The divergence-journal recorder, when the MVEE was built with
    /// [`JournalMode::Record`](crate::journal::JournalMode::Record).
    ///
    /// Call [`JournalRecorder::finish`](crate::journal::JournalRecorder::finish)
    /// on it — at shutdown or mid-run — to snapshot the encoded journal.
    pub fn journal_recorder(&self) -> Option<&Arc<crate::journal::JournalRecorder>> {
        self.journal.recorder()
    }

    /// Snapshots and encodes the journal recorded so far, if recording.
    pub fn finish_journal(&self) -> Option<Vec<u8>> {
        self.journal.recorder().map(|rec| rec.finish())
    }

    /// Replays the journal the MVEE was built with
    /// ([`JournalMode::Replay`](crate::journal::JournalMode::Replay)),
    /// re-deriving verdicts offline with zero live variants.
    ///
    /// Returns `None` when the MVEE is not in replay mode.
    pub fn replay_recorded(
        &self,
    ) -> Option<Result<crate::journal::ReplayedRun, crate::journal::ReplayError>> {
        self.journal
            .replay_source()
            .map(|journal| crate::journal::replay_journal(journal))
    }

    /// Returns the gateway for variant `v`; the variant execution engine
    /// hands one to every variant's OS threads, each of which then acquires
    /// its own [`ThreadPort`] via [`VariantGateway::thread`].
    pub fn gateway(&self, variant: usize) -> VariantGateway {
        assert!(variant < self.variants, "unknown variant index");
        VariantGateway {
            variant,
            monitor: Arc::clone(&self.monitor),
            agent: Arc::clone(&self.agent),
            pollers: self.pollers.clone(),
            remote: self.remote.as_ref().map(|parts| Arc::clone(&parts.leader)),
        }
    }

    /// Number of monitor-side poller threads: the pool size under
    /// `Transport::AsyncRings` — independent of variants×threads — and `0`
    /// for the sync and remote transports (which spawn no pollers).
    pub fn poller_threads(&self) -> usize {
        self.pollers.as_ref().map_or(0, |p| p.worker_count())
    }

    /// Acquires the [`ThreadPort`] for logical thread `thread` of variant
    /// `variant` — the per-thread syscall handle the redesigned gateway is
    /// built around.  Shorthand for `mvee.gateway(variant).thread(thread)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices or if a live port already owns this
    /// (variant, thread).
    pub fn thread_port(&self, variant: usize, thread: usize) -> ThreadPort {
        self.gateway(variant).thread(thread)
    }

    /// Acquires the [`AsyncThreadPort`] for logical thread `thread` of
    /// variant `variant`: the ring-based transport, with the depth taken
    /// from the configured [`Transport`].  Shorthand for
    /// `mvee.gateway(variant).async_thread(thread)`.
    ///
    /// # Panics
    ///
    /// Panics when the MVEE was not built with `Transport::AsyncRings`, on
    /// out-of-range indices or if a live port already owns this (variant,
    /// thread).
    pub fn async_thread_port(&self, variant: usize, thread: usize) -> AsyncThreadPort {
        self.gateway(variant).async_thread(thread)
    }

    /// Acquires the [`LeaderPort`](crate::remote::LeaderPort) for logical
    /// thread `thread` of the leader (variant 0) of a distributed MVEE —
    /// the remote counterpart of [`thread_port`](Self::thread_port).
    ///
    /// # Panics
    ///
    /// Panics when the MVEE was not built with `Transport::Remote`, on an
    /// out-of-range thread index, or if a live port already owns
    /// (variant 0, thread).
    pub fn leader_port(&self, thread: usize) -> crate::remote::LeaderPort {
        let parts = self
            .remote
            .as_ref()
            .expect("leader_port requires Transport::Remote");
        parts.leader.port(thread)
    }

    /// Waits until the follower of a distributed MVEE has fully processed
    /// every frame streamed so far, making its counters and verdicts final
    /// — the remote quiescence point the equivalence harness compares at.
    /// A non-remote MVEE is trivially quiescent: `Ok(())`.
    pub fn remote_barrier(&self) -> Result<(), MonitorError> {
        match &self.remote {
            Some(parts) => parts.leader.barrier(),
            None => Ok(()),
        }
    }

    /// Kills the follower of a distributed MVEE: the pump stops, poisons
    /// the rendezvous table and closes its half of the channel, so the
    /// leader observes a [`Disconnected`](crate::remote::PeerFailureKind)
    /// follower.  Fault-injection hook for the resilience tests; a no-op on
    /// non-remote MVEEs.
    pub fn abort_follower(&self) {
        if let Some(parts) = &self.remote {
            if let Some(follower) = &parts.follower {
                follower.abort();
            }
        }
    }

    /// The replication-channel failure of a distributed MVEE, if either
    /// side observed one (`None` for non-remote MVEEs and healthy links).
    pub fn remote_fault(&self) -> Option<crate::remote::PeerFailure> {
        let parts = self.remote.as_ref()?;
        parts
            .leader
            .failure()
            .or_else(|| parts.follower.as_ref().and_then(|f| f.fault()))
    }

    /// The snapshot store, when the MVEE was built with
    /// [`snapshot_every`](MveeBuilder::snapshot_every).
    pub fn snapshot_store(&self) -> Option<&Arc<SnapshotStore>> {
        self.snapshots.as_ref()
    }

    /// The most recent snapshot of `variant`, if snapshots are enabled and
    /// one has been taken.
    pub fn latest_snapshot(&self, variant: usize) -> Option<Arc<SnapshotRecord>> {
        self.snapshots.as_ref()?.latest(variant)
    }

    /// The currently quarantined variants, in index order (empty unless the
    /// MVEE runs under [`RecoveryPolicy::Quarantine`] and a divergence was
    /// proven).
    pub fn quarantined_variants(&self) -> Vec<usize> {
        self.monitor.quarantined_variants()
    }

    /// The divergence reports behind every quarantine so far.  Unlike
    /// [`divergence`](Self::divergence) — which stays `None` while the run
    /// keeps serving — these do not imply the run ended.
    pub fn quarantine_reports(&self) -> Vec<DivergenceReport> {
        self.monitor.quarantine_reports()
    }

    /// Replays a quarantined variant back into the quorum.
    ///
    /// The recovery sequence is the dMVX one the paper's line of work
    /// builds towards:
    ///
    /// 1. **Restore** — the variant's private kernel state rolls back to
    ///    its last agreed snapshot (when snapshots are enabled and one was
    ///    taken; otherwise the variant keeps its state as of the
    ///    quarantine, which for this emulated kernel is the state the
    ///    survivors agreed on up to the divergent call).
    /// 2. **Replay** — when the run records a journal, the journal is
    ///    salvaged ([`Journal::recover_from_bytes`] — the variant may have
    ///    died mid-write) and re-validated through the replay machinery;
    ///    the suffix past the snapshot's journal position is what catches
    ///    the variant up to the survivors' frontier.
    /// 3. **Re-admit** — the variant's sequence counters and ordering
    ///    clocks fast-forward to the survivors' frontier and it rejoins
    ///    the lockstep expected-arrival set; subsequent calls compare
    ///    across the full quorum again.
    ///
    /// The caller must guarantee a quiescent batch boundary: no survivor
    /// call in flight (the equivalence and fault suites join their worker
    /// threads first).  Respawning is only meaningful while the run is
    /// still serving — a fully diverged (poisoned) run cannot be rejoined.
    pub fn respawn_variant(&self, variant: usize) -> Result<RespawnReport, RespawnError> {
        assert!(variant < self.variants, "unknown variant index");
        if self.monitor.has_diverged() {
            return Err(RespawnError::Diverged);
        }
        if !self.monitor.is_quarantined(variant) {
            return Err(RespawnError::NotQuarantined);
        }
        let snapshot = self.latest_snapshot(variant);
        if let Some(snapshot) = &snapshot {
            self.kernel
                .restore_process(self.pids[variant], &snapshot.image);
        }
        let mut replayed_records = 0;
        let mut dropped_bytes = 0;
        if let Some(recorder) = self.journal.recorder() {
            let bytes = recorder.finish();
            let recovered = Journal::recover_from_bytes(&bytes).map_err(RespawnError::Journal)?;
            dropped_bytes = recovered.dropped_bytes;
            // Validate the full salvaged history (the verdicts must
            // re-derive), then count the suffix past the snapshot as the
            // catch-up work.
            crate::journal::replay_journal(&recovered.journal).map_err(RespawnError::Replay)?;
            let from = snapshot.as_ref().map_or(0, |s| s.journal_records);
            replayed_records = (recovered.journal.records.len() as u64).saturating_sub(from);
        }
        self.monitor.readmit_variant(variant);
        Ok(RespawnReport {
            variant,
            restored_sync_ops: snapshot.as_ref().map(|s| s.sync_ops),
            replayed_records,
            dropped_bytes,
        })
    }
}

/// What [`Mvee::respawn_variant`] did to bring a variant back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RespawnReport {
    /// The respawned variant.
    pub variant: usize,
    /// The sync-op position of the snapshot the variant restored from
    /// (`None` when no snapshot was available and the variant rejoined
    /// from its quarantine-time state).
    pub restored_sync_ops: Option<u64>,
    /// Journal records past the snapshot that were replayed to catch the
    /// variant up (0 when the run does not record a journal).
    pub replayed_records: u64,
    /// Torn-suffix bytes the journal salvage discarded (0 for a clean
    /// journal).
    pub dropped_bytes: usize,
}

/// Why [`Mvee::respawn_variant`] refused or failed.
#[derive(Debug)]
pub enum RespawnError {
    /// The variant is live — there is nothing to respawn.
    NotQuarantined,
    /// The whole run has diverged (poisoned); there is no quorum to rejoin.
    Diverged,
    /// The recorded journal's header was unreadable, so nothing could be
    /// salvaged.
    Journal(JournalError),
    /// The salvaged journal does not replay consistently — the recorded
    /// history itself is suspect, so the variant stays quarantined.
    Replay(ReplayError),
}

impl std::fmt::Display for RespawnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RespawnError::NotQuarantined => write!(f, "variant is not quarantined"),
            RespawnError::Diverged => write!(f, "the run has fully diverged"),
            RespawnError::Journal(e) => write!(f, "journal unrecoverable: {e}"),
            RespawnError::Replay(e) => write!(f, "journal does not replay: {e}"),
        }
    }
}

impl std::error::Error for RespawnError {}

/// A per-variant handle: the factory a variant's OS threads draw their
/// per-thread ports from.
#[derive(Clone)]
pub struct VariantGateway {
    variant: usize,
    monitor: Arc<Monitor>,
    agent: Arc<dyn SyncAgent>,
    pollers: Option<Arc<PollerPool>>,
    /// The leader front end of a distributed MVEE; `Some` only under
    /// `Transport::Remote`, where variant 0's ports come from
    /// [`leader_thread`](Self::leader_thread) instead of the in-proc
    /// factories.
    remote: Option<Arc<crate::remote::RemoteLeader>>,
}

impl VariantGateway {
    /// Zero-based variant index (0 is the master).
    pub fn variant_index(&self) -> usize {
        self.variant
    }

    /// Acquires the [`ThreadPort`] for logical thread `thread`: the
    /// per-thread handle every variant OS thread should issue its monitored
    /// calls and sync ops through.  The port caches the thread's shard
    /// binding (resolved via the configured
    /// [`Placement`]), sequence counter, agent
    /// context and deferred-comparison queue; see
    /// [`ThreadPort`].
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range thread index, if a live port already
    /// owns this (variant, thread), or for the leader (variant 0) of a
    /// distributed MVEE — its calls travel by wire, so acquire a
    /// [`leader_thread`](Self::leader_thread) port instead.
    pub fn thread(&self, thread: usize) -> ThreadPort {
        assert!(
            !(self.remote.is_some() && self.variant == 0),
            "variant 0 of a distributed MVEE is the remote leader: use \
             leader_thread / Mvee::leader_port instead of an in-proc port"
        );
        ThreadPort::new(
            Arc::clone(&self.monitor),
            Arc::clone(&self.agent),
            self.variant,
            thread,
        )
    }

    /// Acquires the [`AsyncThreadPort`] for logical thread `thread`: the
    /// asynchronous ring transport (see the [`async_port`](crate::async_port)
    /// module docs), at the ring depth of the monitor's configured
    /// [`Transport`].
    ///
    /// # Panics
    ///
    /// Panics when the MVEE was not built with [`Transport::AsyncRings`]
    /// (there is no poller pool to serve the port), on an out-of-range
    /// thread index or if a live port already owns this (variant, thread).
    pub fn async_thread(&self, thread: usize) -> AsyncThreadPort {
        let (Some(pool), Some(depth)) = (&self.pollers, self.transport().depth()) else {
            panic!(
                "async ports need the poller pool of an MVEE built with \
                 Transport::AsyncRings; this one was built with {:?}",
                self.transport()
            );
        };
        AsyncThreadPort::new(
            Arc::clone(&self.monitor),
            Arc::clone(&self.agent),
            self.variant,
            thread,
            depth,
            pool,
        )
    }

    /// Acquires the [`LeaderPort`](crate::remote::LeaderPort) for logical
    /// thread `thread` — the leader-side syscall handle of a distributed
    /// MVEE (this gateway must belong to variant 0).
    ///
    /// # Panics
    ///
    /// Panics when the MVEE is not remote, when this gateway is not
    /// variant 0's, on an out-of-range thread index, or if a live port
    /// already owns (variant 0, thread).
    pub fn leader_thread(&self, thread: usize) -> crate::remote::LeaderPort {
        assert!(
            self.variant == 0,
            "only variant 0 of a distributed MVEE runs behind the leader port"
        );
        let leader = self
            .remote
            .as_ref()
            .expect("leader_thread requires Transport::Remote");
        leader.port(thread)
    }

    /// The transport the MVEE was configured with — what
    /// [`thread_port`](crate::mvee::Mvee::thread_port)-style factories use
    /// to decide between sync and async ports.
    pub fn transport(&self) -> Transport {
        self.monitor.config().transport
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Pollers;
    use mvee_kernel::syscall::{SyscallRequest, Sysno};
    use mvee_sync_agent::context::VariantRole;

    #[test]
    fn builder_wires_variants_and_agent() {
        let mvee = Mvee::builder()
            .variants(3)
            .threads(4)
            .agent(AgentKind::TotalOrder)
            .manual_clock(true)
            .build();
        assert_eq!(mvee.variants(), 3);
        assert_eq!(mvee.agent_kind(), AgentKind::TotalOrder);
        assert_eq!(mvee.pid_of(0), 0);
        assert_eq!(mvee.pid_of(2), 2);
        assert!(mvee.divergence().is_none());
        assert_eq!(
            mvee.monitor().shard_count(),
            crate::lockstep::DEFAULT_SHARDS
        );
    }

    #[test]
    fn builder_shards_knob_reaches_the_monitor() {
        let mvee = Mvee::builder()
            .variants(2)
            .shards(3)
            .manual_clock(true)
            .build();
        assert_eq!(mvee.monitor().shard_count(), 3);
        let unsharded = Mvee::builder()
            .variants(2)
            .shards(1)
            .manual_clock(true)
            .build();
        assert_eq!(unsharded.monitor().shard_count(), 1);
    }

    #[test]
    fn builder_batch_knob_reaches_the_monitor() {
        let mvee = Mvee::builder()
            .variants(2)
            .batch(8)
            .manual_clock(true)
            .build();
        assert_eq!(mvee.monitor().config().batch, 8);
        let unbatched = Mvee::builder().variants(2).manual_clock(true).build();
        assert_eq!(unbatched.monitor().config().batch, 1);
    }

    #[test]
    fn sync_op_flushes_deferred_comparisons_without_a_replication_hook() {
        // Each variant defers two brk comparisons (batch 8, never full);
        // the port must flush them before it enters the agent's replication
        // point — by itself: a batched MVEE that records no journal and
        // takes no snapshots installs no replication hook at all.
        let mvee = Mvee::builder()
            .variants(2)
            .batch(8)
            .manual_clock(true)
            .build();
        let mut handles = Vec::new();
        for v in 0..2 {
            let port = mvee.thread_port(v, 0);
            handles.push(std::thread::spawn(move || {
                for _ in 0..2 {
                    port.syscall(&SyscallRequest::new(Sysno::Brk).with_int(0))
                        .unwrap();
                }
                assert_eq!(port.pending_comparisons(), 2);
                port.before_sync_op(0x1000);
                assert_eq!(port.pending_comparisons(), 0, "flushed before the agent");
                port.after_sync_op(0x1000);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = mvee.monitor_stats();
        assert_eq!(stats.batched_comparisons, 4);
        assert_eq!(
            stats.batch_flushes, 2,
            "one flush per variant at the sync op"
        );
        assert_eq!(mvee.monitor().live_slots(), 0);
        assert!(!mvee.monitor().has_diverged());
        let agent = mvee.agent_stats();
        assert_eq!(agent.ops_recorded, 1, "the sync ops did reach the agent");
        assert_eq!(agent.replication_points, 0, "no hook, nothing to count");
    }

    #[test]
    fn gateway_ports_report_roles() {
        let mvee = Mvee::builder().variants(2).manual_clock(true).build();
        assert!(mvee.gateway(0).thread(0).is_master());
        let slave = mvee.gateway(1).thread(0);
        assert!(!slave.is_master());
        assert_eq!(slave.role(), VariantRole::Slave { index: 0 });
    }

    #[test]
    fn gateway_port_syscall_reaches_the_monitor() {
        let mvee = Mvee::builder().variants(1).manual_clock(true).build();
        let port = mvee.gateway(0).thread(0);
        let out = port.syscall(&SyscallRequest::new(Sysno::Getpid)).unwrap();
        assert!(out.is_ok());
        assert_eq!(mvee.monitor_stats().total_syscalls, 1);
    }

    #[test]
    fn gateway_port_sync_op_records_in_master() {
        let mvee = Mvee::builder().variants(2).manual_clock(true).build();
        let port = mvee.gateway(0).thread(0);
        let v = port.sync_op(0x1000, || 7);
        assert_eq!(v, 7);
        assert_eq!(mvee.agent_stats().ops_recorded, 1);
    }

    #[test]
    fn divergence_poisons_the_injected_agent() {
        let mvee = Mvee::builder()
            .variants(2)
            .manual_clock(true)
            .lockstep_timeout(std::time::Duration::from_millis(50))
            .build();
        assert!(!mvee.agent().is_poisoned());
        // Only variant 0 arrives at a locksteped call: rendezvous timeout,
        // divergence, and the poison hook must reach the agent.
        let r = mvee
            .thread_port(0, 0)
            .syscall(&SyscallRequest::new(Sysno::Write).with_payload(b"x"));
        assert!(r.is_err());
        assert!(mvee.divergence().is_some());
        assert!(mvee.agent().is_poisoned());
    }

    #[test]
    fn diversified_layouts_produce_different_heap_bases() {
        let layouts = vec![
            VariantLayout {
                brk_base: 0x5555_0000_0000,
                mmap_top: 0x7fff_0000_0000,
            },
            VariantLayout {
                brk_base: 0x5655_4000_0000,
                mmap_top: 0x7ffd_8000_0000,
            },
        ];
        let mvee = Mvee::builder()
            .variants(2)
            .layouts(layouts)
            .policy(MonitoringPolicy::NoComparison)
            .manual_clock(true)
            .build();
        let b0 = mvee
            .thread_port(0, 0)
            .syscall(&SyscallRequest::new(Sysno::Brk).with_int(0))
            .unwrap();
        let b1 = mvee
            .thread_port(1, 0)
            .syscall(&SyscallRequest::new(Sysno::Brk).with_int(0))
            .unwrap();
        assert_ne!(b0.result, b1.result);
    }

    #[test]
    #[should_panic(expected = "one layout per variant")]
    fn mismatched_layout_count_panics() {
        let _ = Mvee::builder()
            .variants(3)
            .layouts(vec![VariantLayout::default_layout()])
            .build();
    }

    #[test]
    #[should_panic(expected = "must be at least the comparison batch")]
    fn ring_depth_smaller_than_batch_panics_at_build_time() {
        let _ = Mvee::builder()
            .variants(1)
            .batch(8)
            .transport(Transport::AsyncRings {
                depth: 4,
                pollers: Pollers::Pool(1),
            })
            .manual_clock(true)
            .build();
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn empty_poller_pool_is_rejected_before_build() {
        let _ = Mvee::builder().transport(Transport::AsyncRings {
            depth: 8,
            pollers: Pollers::Pool(0),
        });
    }

    #[test]
    fn pool_transport_keeps_one_poller_thread_however_many_ports_are_live() {
        let mvee = Mvee::builder()
            .variants(2)
            .threads(4)
            .transport(Transport::async_pool(1))
            .manual_clock(true)
            .build();
        assert_eq!(mvee.poller_threads(), 1);
        let mut ports = Vec::new();
        for v in 0..2 {
            for t in 0..4 {
                ports.push(mvee.async_thread_port(v, t));
            }
        }
        assert_eq!(
            mvee.poller_threads(),
            1,
            "8 live ports, still exactly 1 monitor-side thread"
        );
    }

    #[test]
    #[should_panic(expected = "Transport::AsyncRings")]
    fn async_port_on_a_sync_mvee_panics_instead_of_spawning_a_worker() {
        let mvee = Mvee::builder().variants(1).manual_clock(true).build();
        let _ = mvee.async_thread_port(0, 0);
    }
}
