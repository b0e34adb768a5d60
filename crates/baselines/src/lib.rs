//! Baseline systems the paper compares its approach against.
//!
//! The paper's background and related-work sections (§2, §6) argue that the
//! two established families of replay techniques are a poor fit for a
//! security-oriented MVEE running *diversified* variants:
//!
//! * **Deterministic multithreading (DMT)** — Kendo-style systems schedule
//!   threads by *logical progress* measured in executed instructions (via
//!   performance counters).  Software diversity perturbs instruction counts,
//!   so each diversified variant ends up with a fixed but *different*
//!   schedule, which re-introduces benign divergence ([`dmt`]).
//! * **Record/Replay (R+R)** — RecPlay-style systems log Lamport timestamps
//!   for synchronization operations and replay them later; LSA-style systems
//!   replicate per-mutex acquisition orders online.  These are close cousins
//!   of the paper's agents and work across diversified variants because they
//!   do not depend on progress counters ([`rr`]).
//!
//! The `paper` bench binary's `dmt` rows use these implementations to
//! reproduce the paper's argument quantitatively: under instruction-count
//! skew the DMT schedules of two variants diverge while the order-based
//! replay (and the paper's agents) stay consistent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dmt;
pub mod rr;

pub use dmt::{DmtSchedule, DmtScheduler};
pub use rr::{LsaReplicator, RecPlayLog, RecPlayRecorder};
