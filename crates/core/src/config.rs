//! The one shared MVEE configuration surface.
//!
//! Before this module existed the same tuning knobs (shard count, comparison
//! batch, policy, agent) were triplicated across `MveeBuilder`,
//! `mvee_variant::runner::RunConfig` and
//! `mvee_workloads::nginx::NginxServerConfig`, and drifted independently.
//! [`MveeConfig`] is now the single struct all three embed; every front end
//! forwards it verbatim to [`MveeBuilder::config`](crate::mvee::MveeBuilder).
//!
//! A logical thread's monitor state (rendezvous lock, ordering clock and
//! stat lane) lives in shard `thread % shards`, in every variant alike;
//! the port resolves it once, at acquisition time, and caches it.

use std::time::Duration;

use mvee_sync_agent::agents::AgentKind;
use mvee_sync_agent::context::AgentConfig;

use crate::journal::JournalMode;
use crate::lockstep::DEFAULT_SHARDS;
use crate::policy::MonitoringPolicy;

/// Default submission/completion ring depth for
/// [`Transport::AsyncRings`]: deep enough to cover a full comparison batch
/// plus pipelined run-ahead, small enough to stay cache-resident.
pub const DEFAULT_RING_DEPTH: usize = 64;

/// How many polling shards ([`crate::poller`]) drain the
/// [`Transport::AsyncRings`] submission rings on the monitor side.
///
/// Each shard owns many ports' rings and round-robins drain →
/// non-blocking rendezvous (try/poll) → complete, parking only when every
/// served ring is empty and every in-flight arrival is pending.
/// Monitor-side threads are exactly the pool size, regardless of
/// `variants × threads`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pollers {
    /// A fixed pool of `n` polling shards serving all ports.
    Pool(usize),
    /// A fixed polling pool auto-sized from the machine:
    /// [`Pollers::auto_pool_size`] applied to
    /// `std::thread::available_parallelism()` at build time.
    #[default]
    Auto,
}

impl Pollers {
    /// The number of polling shards this shape asks for on this machine.
    pub fn pool_size(&self) -> usize {
        match self {
            Pollers::Pool(n) => *n,
            Pollers::Auto => {
                Pollers::auto_pool_size(std::thread::available_parallelism().map_or(1, |n| n.get()))
            }
        }
    }

    /// The sizing rule behind [`Pollers::Auto`]: half the machine's
    /// available parallelism — pollers share cores with `variants × threads`
    /// workload threads, so claiming every core would starve the very ports
    /// the pool drains — floored at one worker and capped at eight (beyond
    /// that the shards outnumber the rendezvous shards they feed).
    pub fn auto_pool_size(parallelism: usize) -> usize {
        (parallelism / 2).clamp(1, 8)
    }
}

/// The byte channel a [`Transport::Remote`] leader streams its replication
/// frames over.  All three shapes are loopback in this reproduction — the
/// point is the framed wire discipline, not the physical distance — but the
/// socket shapes exercise a real kernel byte stream with real partial reads
/// and real teardown semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RemoteChannel {
    /// An in-process duplex pipe: the fastest loopback, no OS descriptors.
    #[default]
    InProc,
    /// A `socketpair`-style Unix stream pair.
    Unix,
    /// A TCP connection over `127.0.0.1` (ephemeral port).
    Tcp,
}

impl RemoteChannel {
    /// Short name used in benchmark tables and reports.
    pub fn name(&self) -> &'static str {
        match self {
            RemoteChannel::InProc => "inproc",
            RemoteChannel::Unix => "unix",
            RemoteChannel::Tcp => "tcp",
        }
    }
}

/// How variant threads hand their system calls to the monitor.
///
/// * [`Transport::Sync`] — the variant thread walks the monitor pipeline
///   itself inside
///   [`ThreadPort::syscall`](crate::port::ThreadPort::syscall) and blocks
///   in every rendezvous.
/// * [`Transport::AsyncRings`] — the asynchronous gateway: each
///   (variant, thread) port owns a paired submission/completion ring
///   (virtio split-queue style); the variant thread deposits descriptors
///   and runs ahead into already-resolved work while the monitor side — a
///   shared pool of polling shards sized by [`Pollers`] — drains the
///   submission ring through the same pipeline and posts verdicts to the
///   completion ring.  Calls the policy marks
///   synchronous (replicated, ordered, process-lifecycle) still block at
///   the reap point, so verdicts are identical to the sync transport; see
///   [`crate::async_port`] and [`crate::poller`].
/// * [`Transport::Remote`] — the distributed (dMVX-style) split: variant 0
///   becomes a *leader* that executes immediately and streams CRC-framed
///   `(seq, comparison-key, replicated-result)` records over a
///   [`RemoteChannel`]; a *follower* pump replays the stream into the
///   rendezvous table against the remaining variants and acknowledges.
///   The leader blocks only where the in-proc master blocks — at
///   non-deferred lockstep rendezvous — while deferred comparisons stream
///   without a round trip; see [`crate::remote`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// Variant threads block in the monitor pipeline directly.
    #[default]
    Sync,
    /// Per-port submission/completion rings, drained per [`Pollers`].
    AsyncRings {
        /// Ring capacity in descriptors (rounded up to a power of two):
        /// how far a variant thread may run ahead of the monitor.
        depth: usize,
        /// How many polling shards drain the submission rings.
        pollers: Pollers,
    },
    /// Leader/follower split over a framed replication channel.
    Remote {
        /// The byte channel the replication frames cross.
        channel: RemoteChannel,
    },
}

impl Transport {
    /// An [`AsyncRings`](Transport::AsyncRings) transport with the default
    /// ring depth drained by a fixed pool of `n` polling shards.
    pub fn async_pool(n: usize) -> Self {
        Transport::AsyncRings {
            depth: DEFAULT_RING_DEPTH,
            pollers: Pollers::Pool(n),
        }
    }

    /// Whether this is the asynchronous ring transport.
    pub fn is_async(&self) -> bool {
        matches!(self, Transport::AsyncRings { .. })
    }

    /// Whether this is the distributed leader/follower transport.
    pub fn is_remote(&self) -> bool {
        matches!(self, Transport::Remote { .. })
    }

    /// The configured ring depth, if asynchronous.
    pub fn depth(&self) -> Option<usize> {
        match self {
            Transport::Sync | Transport::Remote { .. } => None,
            Transport::AsyncRings { depth, .. } => Some(*depth),
        }
    }

    /// The configured polling-pool shape, if asynchronous.
    pub fn pollers(&self) -> Option<Pollers> {
        match self {
            Transport::Sync | Transport::Remote { .. } => None,
            Transport::AsyncRings { pollers, .. } => Some(*pollers),
        }
    }

    /// Short name used in reports; stable across pool sizes and channels.
    pub fn name(&self) -> &'static str {
        match self {
            Transport::Sync => "sync",
            Transport::AsyncRings { .. } => "async-rings",
            Transport::Remote { .. } => "remote",
        }
    }
}

/// What the monitor does with the rest of the run when one variant
/// diverges.
///
/// * [`RecoveryPolicy::PoisonAll`] — the paper's detect-and-kill model and
///   the historical behaviour: the first divergence poisons the lockstep
///   table, every waiter is broadcast-woken with
///   [`ArrivalResult::Poisoned`](crate::lockstep::ArrivalResult::Poisoned) and the
///   whole run tears down.
/// * [`RecoveryPolicy::Quarantine`] — the dMVX recovery model: only the
///   *blamed* variant is dropped.  The lockstep table removes it from every
///   shard's expected-arrival set, in-flight waiters re-resolve against the
///   reduced quorum, and the surviving variants keep serving.  The victim
///   can later be restored from the last agreed snapshot and re-admitted
///   via [`Mvee::respawn_variant`](crate::mvee::Mvee::respawn_variant).
///   `min_quorum` is the floor: when quarantining one more variant would
///   leave fewer than `min_quorum` live variants, the monitor falls back to
///   poisoning the run (a 1-variant "MVEE" compares nothing, so the
///   default floor is 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// First divergence poisons the entire run (historical behaviour).
    #[default]
    PoisonAll,
    /// Drop only the blamed variant; survivors keep serving on a degraded
    /// quorum, down to `min_quorum` live variants.
    Quarantine {
        /// Minimum number of live variants to keep serving with; below
        /// this the monitor poisons the run instead of quarantining.
        min_quorum: usize,
    },
}

impl RecoveryPolicy {
    /// A [`RecoveryPolicy::Quarantine`] with the default quorum floor of
    /// two live variants (the smallest set that still compares anything).
    pub fn quarantine() -> Self {
        RecoveryPolicy::Quarantine { min_quorum: 2 }
    }

    /// Short name used in benchmark tables and reports.
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryPolicy::PoisonAll => "poison-all",
            RecoveryPolicy::Quarantine { .. } => "quarantine",
        }
    }
}

/// The shared MVEE tuning knobs: one struct, consumed by every front end.
///
/// `MveeBuilder`, `RunConfig` and `NginxServerConfig` all embed an
/// `MveeConfig` instead of re-declaring these fields.  The defaults
/// reproduce the behaviour of the unconfigured monitor: strict lockstep,
/// wall-of-clocks agent, [`DEFAULT_SHARDS`] shards, no comparison
/// batching.
#[derive(Debug, Clone)]
pub struct MveeConfig {
    /// Which system calls are locksteped.
    pub policy: MonitoringPolicy,
    /// The synchronization agent to inject.
    pub agent: AgentKind,
    /// Agent sizing knobs (buffer capacity, clock count, ...).  The variant
    /// and thread counts are overridden by the front end at build time.
    pub agent_config: AgentConfig,
    /// Number of rendezvous/ordering/stat shards the monitor partitions its
    /// hot-path state into.  `1` reproduces the original global table.
    pub shards: usize,
    /// Comparison batch size: how many deferred comparisons a variant thread
    /// may accumulate per rendezvous flush.  `1` disables deferral and
    /// reproduces the per-call rendezvous exactly.
    pub batch: usize,
    /// How long a rendezvous or replication wait may take before the monitor
    /// declares divergence.
    pub lockstep_timeout: Duration,
    /// How variant threads hand calls to the monitor: blocking in the
    /// pipeline ([`Transport::Sync`], the default) or through per-port
    /// submission/completion rings ([`Transport::AsyncRings`]).
    pub transport: Transport,
    /// The divergence journal: off (default), record the run through a
    /// [`crate::journal::JournalRecorder`], or carry a decoded journal as
    /// the replay source (see [`crate::journal`]).
    pub journal: JournalMode,
    /// What happens to the run when a variant diverges: poison everything
    /// (default, the paper's model) or quarantine only the blamed variant
    /// and keep serving on a degraded quorum.
    pub recovery: RecoveryPolicy,
    /// Take a state snapshot of every live variant each `n` sync ops
    /// (`None` disables snapshotting).  The snapshot is captured at the
    /// transport-shared replication choke point, so sync ports, gateway
    /// workers, poller pools and the remote leader all snapshot at the
    /// same logical instants; see [`crate::snapshot`].
    pub snapshot_every: Option<u64>,
}

impl Default for MveeConfig {
    fn default() -> Self {
        MveeConfig {
            policy: MonitoringPolicy::StrictLockstep,
            agent: AgentKind::WallOfClocks,
            agent_config: AgentConfig::default(),
            shards: DEFAULT_SHARDS,
            batch: 1,
            lockstep_timeout: Duration::from_secs(5),
            transport: Transport::Sync,
            journal: JournalMode::Off,
            recovery: RecoveryPolicy::PoisonAll,
            snapshot_every: None,
        }
    }
}

impl MveeConfig {
    /// Sets the monitoring policy (builder style).
    pub fn with_policy(mut self, policy: MonitoringPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Selects the synchronization agent (builder style).
    pub fn with_agent(mut self, agent: AgentKind) -> Self {
        self.agent = agent;
        self
    }

    /// Overrides the agent sizing knobs (builder style).
    pub fn with_agent_config(mut self, agent_config: AgentConfig) -> Self {
        self.agent_config = agent_config;
        self
    }

    /// Sets the monitor shard count (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "need at least one monitor shard");
        self.shards = shards;
        self
    }

    /// Sets the comparison batch size (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn with_batch(mut self, batch: usize) -> Self {
        assert!(batch > 0, "need a comparison batch of at least one");
        self.batch = batch;
        self
    }

    /// Sets the rendezvous / replication timeout (builder style).
    pub fn with_lockstep_timeout(mut self, timeout: Duration) -> Self {
        self.lockstep_timeout = timeout;
        self
    }

    /// Sets the variant↔monitor transport (builder style).
    ///
    /// # Panics
    ///
    /// Panics on an [`Transport::AsyncRings`] depth of zero, or on an
    /// empty polling pool ([`Pollers::Pool(0)`](Pollers::Pool)) — a pool
    /// with no workers would never drain any ring.
    pub fn with_transport(mut self, transport: Transport) -> Self {
        if let Transport::AsyncRings { depth, pollers } = transport {
            assert!(depth > 0, "async ring depth must be at least one");
            if let Pollers::Pool(n) = pollers {
                assert!(
                    n > 0,
                    "a polling pool needs at least one worker (Pollers::Pool(0) \
                     would never drain any submission ring); use Pool(1+) or Auto"
                );
            }
        }
        self.transport = transport;
        self
    }

    /// Sets the divergence-journal mode (builder style): record the run
    /// through a [`crate::journal::JournalRecorder`] or carry a decoded
    /// journal for offline replay.
    pub fn with_journal(mut self, journal: JournalMode) -> Self {
        self.journal = journal;
        self
    }

    /// Sets the divergence recovery policy (builder style).
    ///
    /// # Panics
    ///
    /// Panics on a [`RecoveryPolicy::Quarantine`] quorum floor below one —
    /// a zero-variant quorum could quarantine the entire MVEE away.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        if let RecoveryPolicy::Quarantine { min_quorum } = recovery {
            assert!(
                min_quorum >= 1,
                "a quarantine quorum floor must keep at least one live variant"
            );
        }
        self.recovery = recovery;
        self
    }

    /// Sets the snapshot interval in sync ops (builder style); `None`
    /// disables snapshotting.
    ///
    /// # Panics
    ///
    /// Panics on `Some(0)` — a zero interval would snapshot on every call.
    pub fn with_snapshot_every(mut self, every: Option<u64>) -> Self {
        if let Some(n) = every {
            assert!(n > 0, "the snapshot interval must be at least one sync op");
        }
        self.snapshot_every = every;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_the_historical_defaults() {
        let c = MveeConfig::default();
        assert_eq!(c.policy, MonitoringPolicy::StrictLockstep);
        assert_eq!(c.agent, AgentKind::WallOfClocks);
        assert_eq!(c.shards, DEFAULT_SHARDS);
        assert_eq!(c.batch, 1);
        assert_eq!(c.lockstep_timeout, Duration::from_secs(5));
    }

    #[test]
    fn config_builders_apply() {
        let c = MveeConfig::default()
            .with_policy(MonitoringPolicy::NoComparison)
            .with_agent(AgentKind::TotalOrder)
            .with_shards(3)
            .with_batch(16)
            .with_lockstep_timeout(Duration::from_millis(250));
        assert_eq!(c.policy, MonitoringPolicy::NoComparison);
        assert_eq!(c.agent, AgentKind::TotalOrder);
        assert_eq!(c.shards, 3);
        assert_eq!(c.batch, 16);
        assert_eq!(c.lockstep_timeout, Duration::from_millis(250));
    }

    #[test]
    fn transport_defaults_to_sync_and_reports_its_shape() {
        let c = MveeConfig::default();
        assert_eq!(c.transport, Transport::Sync);
        assert!(!c.transport.is_async());
        assert_eq!(c.transport.depth(), None);
        assert_eq!(c.transport.name(), "sync");

        let c = c.with_transport(Transport::async_pool(1));
        assert!(c.transport.is_async());
        assert_eq!(c.transport.depth(), Some(DEFAULT_RING_DEPTH));
        assert_eq!(c.transport.pollers(), Some(Pollers::Pool(1)));
        assert_eq!(c.transport.name(), "async-rings");
        assert_eq!(
            c.with_transport(Transport::AsyncRings {
                depth: 16,
                pollers: Pollers::Pool(1),
            })
            .transport
            .depth(),
            Some(16)
        );
    }

    #[test]
    fn pool_transport_reports_its_shape() {
        let c = MveeConfig::default().with_transport(Transport::async_pool(2));
        assert_eq!(c.transport.pollers(), Some(Pollers::Pool(2)));
        // `name()` stays stable across poller shapes.
        assert_eq!(c.transport.name(), "async-rings");
        assert_eq!(Transport::Sync.pollers(), None);
    }

    #[test]
    fn remote_transport_reports_its_shape() {
        let c = MveeConfig::default().with_transport(Transport::Remote {
            channel: RemoteChannel::InProc,
        });
        assert!(c.transport.is_remote());
        assert!(!c.transport.is_async());
        assert_eq!(c.transport.depth(), None);
        assert_eq!(c.transport.pollers(), None);
        assert_eq!(c.transport.name(), "remote");
    }

    #[test]
    fn auto_pool_sizing_rule_is_pinned() {
        // Half the available parallelism, floored at 1, capped at 8.
        assert_eq!(Pollers::auto_pool_size(1), 1);
        assert_eq!(Pollers::auto_pool_size(2), 1);
        assert_eq!(Pollers::auto_pool_size(4), 2);
        assert_eq!(Pollers::auto_pool_size(8), 4);
        assert_eq!(Pollers::auto_pool_size(16), 8);
        assert_eq!(Pollers::auto_pool_size(32), 8);
        assert_eq!(Pollers::auto_pool_size(0), 1, "degenerate probe floors");
    }

    #[test]
    fn pollers_default_to_auto_and_resolve_through_the_sizing_rule() {
        assert_eq!(Pollers::default(), Pollers::Auto);
        let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(
            Pollers::Auto.pool_size(),
            Pollers::auto_pool_size(parallelism)
        );
        assert_eq!(Pollers::Pool(3).pool_size(), 3);
    }

    #[test]
    fn auto_pollers_are_accepted() {
        let c = MveeConfig::default().with_transport(Transport::AsyncRings {
            depth: DEFAULT_RING_DEPTH,
            pollers: Pollers::Auto,
        });
        assert_eq!(c.transport.pollers(), Some(Pollers::Auto));
        assert_eq!(c.transport.name(), "async-rings");
    }

    #[test]
    fn journal_defaults_off_and_threads_through_the_builder() {
        use crate::journal::JournalRecorder;

        let c = MveeConfig::default();
        assert!(matches!(c.journal, JournalMode::Off));
        assert!(c.journal.recorder().is_none());
        assert!(c.journal.replay_source().is_none());

        let rec = std::sync::Arc::new(JournalRecorder::new());
        let c = c.with_journal(JournalMode::Record(std::sync::Arc::clone(&rec)));
        assert!(c.journal.recorder().is_some());
    }

    #[test]
    fn recovery_defaults_to_poison_all_and_threads_through_the_builder() {
        let c = MveeConfig::default();
        assert_eq!(c.recovery, RecoveryPolicy::PoisonAll);
        assert_eq!(c.snapshot_every, None);
        assert_eq!(RecoveryPolicy::PoisonAll.name(), "poison-all");

        let c = c
            .with_recovery(RecoveryPolicy::quarantine())
            .with_snapshot_every(Some(256));
        assert_eq!(c.recovery, RecoveryPolicy::Quarantine { min_quorum: 2 });
        assert_eq!(c.recovery.name(), "quarantine");
        assert_eq!(c.snapshot_every, Some(256));
        assert_eq!(c.with_snapshot_every(None).snapshot_every, None);
    }

    #[test]
    #[should_panic(expected = "quorum floor")]
    fn zero_quarantine_quorum_panics() {
        let _ = MveeConfig::default().with_recovery(RecoveryPolicy::Quarantine { min_quorum: 0 });
    }

    #[test]
    #[should_panic(expected = "snapshot interval")]
    fn zero_snapshot_interval_panics() {
        let _ = MveeConfig::default().with_snapshot_every(Some(0));
    }

    #[test]
    #[should_panic(expected = "ring depth")]
    fn zero_ring_depth_panics() {
        let _ = MveeConfig::default().with_transport(Transport::AsyncRings {
            depth: 0,
            pollers: Pollers::Pool(1),
        });
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn empty_poller_pool_panics() {
        let _ = MveeConfig::default().with_transport(Transport::async_pool(0));
    }

    #[test]
    #[should_panic(expected = "at least one monitor shard")]
    fn zero_shards_panics() {
        let _ = MveeConfig::default().with_shards(0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_batch_panics() {
        let _ = MveeConfig::default().with_batch(0);
    }
}
