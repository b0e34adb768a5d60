//! The MVEE monitor: lockstep system-call monitoring, divergence detection
//! and result replication.
//!
//! A multi-variant execution environment (MVEE) runs two or more diversified
//! copies (*variants*) of the same program side by side and compares their
//! behaviour at the system-call interface.  Because every variant receives
//! the same inputs but the variants are diversified (different address-space
//! layouts, disjoint code layouts, ...), a memory-corruption exploit that
//! depends on concrete addresses cannot compromise all variants at once
//! without making them behave differently — and behavioural *divergence* is
//! exactly what the monitor detects and turns into a shutdown.
//!
//! This crate is the reproduction of ReMon's monitor as described in the
//! paper:
//!
//! * [`monitor::Monitor`] — the system-call gateway every variant thread
//!   calls instead of the kernel.  It performs lockstep comparison
//!   ([`lockstep`]), replication of I/O results from the master to the
//!   slaves, and cross-thread ordering of ordered calls via the *syscall
//!   ordering clock* ([`ordering`], §4.1 of the paper).
//! * [`lockstep::LockstepTable`] — the rendezvous/replication table,
//!   **sharded by logical thread index** so thread groups in different
//!   shards never contend on the same lock, with a lock-free poison flag
//!   that aborts every wait (rendezvous, replication *and* the injected
//!   agent's replay, via the monitor's poison hook) when divergence is
//!   detected.  [`MonitorConfig::shards`](monitor::MonitorConfig) sets the
//!   partitioning; `shards = 1` reproduces the original global table for
//!   ablations.
//! * [`policy::MonitoringPolicy`] — which calls are locksteped (everything,
//!   only security-sensitive calls, or nothing), matching the policy range
//!   evaluated in §5.1; [`policy::CallDisposition`] resolves a call's full
//!   lockstep/replicate/order treatment in one step.
//! * [`divergence`] — the comparison logic and the report produced when
//!   variants disagree.
//! * [`mvee::Mvee`] — the front end that wires a simulated kernel, a
//!   synchronization agent and a monitor together and hands out per-variant
//!   gateways.
//! * `call` (crate-private) — the per-call protocol (gate, compare in lockstep, then
//!   replicate the master's result or replay its order), written once as a
//!   non-blocking state machine that owns the thread's shard binding
//!   (`thread % shards`), sequence counter and deferred-comparison queue,
//!   generic over where the rendezvous lives (the lockstep table or the
//!   replication wire).  It has two drivers:
//! * [`port::ThreadPort`] — the per-(variant, thread) syscall handle:
//!   acquired once, it holds the agent context and the thread's call
//!   machine, which it steps on the variant thread's own stack, sleeping
//!   between steps — thread identity is a type instead of a per-call
//!   `(variant, thread)` convention.  [`port::ThreadSyscallPort`] is the
//!   one per-thread face every port implements, and
//!   [`mvee::VariantGateway::port`] hands out the one the transport
//!   names.
//! * [`async_port::AsyncThreadPort`] — the asynchronous transport: paired
//!   per-port submission/completion rings (virtio split-queue style), so a
//!   variant thread deposits a call descriptor and runs ahead while the
//!   monitor compares in the background.  Selected via
//!   [`config::Transport`]; calls the policy marks synchronous still block
//!   at the reap point.
//! * [`poller::PollerPool`] — polling monitor shards, the other driver: a
//!   fixed set of poller threads ([`config::Pollers`]: `Pool(n)`, or `Auto`
//!   sized from the machine) drains every async port's rings and steps
//!   each port's call machine in turn, so monitor-side threads number `n`,
//!   not variants×threads.
//! * [`config::MveeConfig`] — the one shared tuning block (policy, agent,
//!   transport, shards, batch, timeout, ...) every front end embeds.
//! * [`journal`] — the divergence journal: record a run's rendezvous
//!   schedule, arrival order and replicated outcomes into a CRC-protected
//!   binary stream, replay it offline to re-derive the verdict (same
//!   first-mismatch slot and variant) with zero live variants.
//! * [`remote`] — the distributed deployment: variant 0 becomes a *leader*
//!   that executes through a [`remote::LeaderPort`] (the blocking port over
//!   the wire backend) and streams CRC-framed
//!   monitoring records over a byte channel ([`remote::Duplex`]: in-proc
//!   pipes, Unix socketpair or TCP loopback) to a *follower* monitor that
//!   compares asynchronously, acknowledges, and reports field-identical
//!   divergence verdicts back.  Selected via `Transport::Remote`.
//!
//! The crate deliberately knows nothing about *how* variants execute; the
//! `mvee-variant` crate drives real OS threads through the gateway.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod async_port;
mod call;
pub mod config;
pub mod divergence;
pub mod frame;
pub mod journal;
pub mod lockstep;
pub mod monitor;
pub mod mvee;
pub mod ordering;
pub mod policy;
pub mod poller;
pub mod port;
pub mod remote;
pub mod snapshot;

pub use async_port::{AsyncThreadPort, SubmitOutcome, Ticket};
pub use config::{MveeConfig, Pollers, RecoveryPolicy, RemoteChannel, Transport};
pub use divergence::{DivergenceKind, DivergenceReport};
pub use journal::{
    Journal, JournalError, JournalMode, JournalRecorder, RecoveredJournal, RecoveredRun,
    ReplayError, ReplayedRun,
};
pub use monitor::{Monitor, MonitorConfig, MonitorError, MonitorStats};
pub use mvee::{Mvee, MveeBuilder, RespawnError, RespawnReport, VariantGateway};
pub use ordering::SyscallOrderingClock;
pub use policy::MonitoringPolicy;
pub use poller::PollerPool;
pub use port::{ThreadPort, ThreadSyscallPort};
pub use remote::{
    Duplex, Follower, FollowerHandle, LeaderPort, PeerFailure, PeerFailureKind, RemoteLeader,
    RemotePeer,
};
pub use snapshot::{SnapshotError, SnapshotRecord, SnapshotStore};
