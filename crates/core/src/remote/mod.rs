//! Distributed MVEE: a leader/follower split over a framed replication
//! transport (the dMVX-style deployment of the ReMon design).
//!
//! In-proc, every variant's gateway shares one [`Monitor`]; here the
//! monitored program's *leader* (variant 0) runs behind a byte channel.
//! Its [`LeaderPort`] executes syscalls through the normal gateway
//! pipeline but streams the monitoring evidence — CRC-framed
//! `(sequence, comparison key, replicated result)` records riding the
//! divergence journal's frame codec — to a *follower* monitor that hosts
//! the rendezvous table, the remaining variants, and the actual
//! comparisons:
//!
//! * [`transport`] — the [`Duplex`] byte-channel abstraction and its three
//!   loopback flavours (in-proc pipes, Unix socketpair, TCP loopback).
//! * `wire` — the frame-level record protocol (crate-private).
//! * [`leader`] — [`RemoteLeader`] (the channel endpoint) and
//!   [`LeaderPort`] (the per-thread front end); the leader blocks **only**
//!   at synchronous lockstep points, exactly where the in-proc master
//!   blocks, and streams deferred batches without waiting.
//! * [`follower`] — [`Follower::spawn`]'s reader + pump pair, which drives
//!   the in-proc lockstep machinery on the leader's behalf, compares
//!   asynchronously, acknowledges resolved prefixes and reports verdicts
//!   back; divergence reports come out field-identical to an in-proc run.
//!
//! The wire moves per burst, not per call: when the leader writes, what it
//! may hold back and what the follower acks is stated once, in [`leader`].
//!
//! Wired through [`Transport::Remote`](crate::config::Transport::Remote)
//! on [`MveeConfig`](crate::config::MveeConfig); see `Mvee::leader_port`.
//! Channel death — a killed follower, a torn connection, a corrupt stream
//! — surfaces as [`MonitorError::Peer`](crate::monitor::MonitorError::Peer)
//! carrying a [`PeerFailure`] that names the missing peer, and unblocks
//! every waiting thread on both sides.
//!
//! [`Monitor`]: crate::monitor::Monitor

pub mod follower;
pub mod leader;
pub mod transport;
pub(crate) mod wire;

pub use follower::{Follower, FollowerHandle};
pub use leader::{LeaderPort, RemoteLeader};
pub use transport::Duplex;

/// Which end of the replication channel a failure is attributed to: the
/// peer that went missing or produced the offending bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemotePeer {
    /// The leader front end (variant 0's side of the channel).
    Leader,
    /// The follower monitor (rendezvous side of the channel).
    Follower,
}

impl RemotePeer {
    /// Human-readable peer name for reports and logs.
    pub fn name(&self) -> &'static str {
        match self {
            RemotePeer::Leader => "leader",
            RemotePeer::Follower => "follower",
        }
    }
}

/// How the replication channel failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerFailureKind {
    /// The peer's end closed (or the connection tore) without a clean
    /// `Bye` handshake.
    Disconnected,
    /// The stream carried bytes that are not a valid record sequence:
    /// CRC mismatch, truncated or oversized frame, undecodable body, a
    /// protocol-direction violation or a mismatched `Hello`.
    Corrupt,
    /// The peer stopped acknowledging progress within the backstop
    /// deadline while still appearing connected.
    AckTimeout,
}

impl PeerFailureKind {
    fn describe(&self) -> &'static str {
        match self {
            PeerFailureKind::Disconnected => "disconnected without a Bye handshake",
            PeerFailureKind::Corrupt => "sent a corrupt or non-protocol byte stream",
            PeerFailureKind::AckTimeout => "stopped acknowledging within the deadline",
        }
    }
}

/// A replication-channel failure: which peer is lost and how.  Carried by
/// [`MonitorError::Peer`](crate::monitor::MonitorError::Peer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerFailure {
    /// The peer held responsible.
    pub peer: RemotePeer,
    /// The failure mode.
    pub kind: PeerFailureKind,
}

impl std::fmt::Display for PeerFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replication peer lost: the {} {}",
            self.peer.name(),
            self.kind.describe()
        )
    }
}
