//! The sync buffers cost only what a run touches: building a runner-sized
//! ring, a wall-of-clocks agent and a partial-order agent faults in almost
//! nothing, and pushes fault in only the pages they reach.
//!
//! A binary of its own with a single test, so no other test allocates
//! beside it while it reads its own `VmRSS` from `/proc/self/status`.
//! Release builds only: a debug build writes every slot at construction.

#![cfg(not(debug_assertions))]

use mvee_sync_agent::agents::{PartialOrderAgent, WallOfClocksAgent};
use mvee_sync_agent::context::AgentConfig;
use mvee_sync_agent::ring::{PushOutcome, RecordRing, SyncRecord};

/// The runner's ring size (`RunConfig::default`).
const RUNNER_CAPACITY: usize = 1 << 16;

/// Resident set size of this process, in KiB.
fn rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line")
}

#[test]
fn runner_sized_buffers_fault_in_only_what_is_pushed() {
    const LIMIT_KIB: u64 = 1024;
    let before = rss_kib();
    let config = AgentConfig::default()
        .with_variants(2)
        .with_threads(8)
        .with_buffer_capacity(RUNNER_CAPACITY);
    let ring = RecordRing::new_spsc(RUNNER_CAPACITY, 1);
    let woc = WallOfClocksAgent::new(config);
    let po = PartialOrderAgent::new(config);
    let built = rss_kib();
    assert!(
        built.saturating_sub(before) < LIMIT_KIB,
        "building a {RUNNER_CAPACITY}-slot ring and two 8-thread agents grew RSS \
         by {} KiB",
        built - before
    );
    for i in 0..1024u64 {
        assert_eq!(
            ring.try_push(SyncRecord::with_clock(0, i, 1, i)),
            PushOutcome::Stored(i)
        );
    }
    let pushed = rss_kib();
    assert!(
        pushed.saturating_sub(before) < LIMIT_KIB,
        "1 024 pushes grew RSS by {} KiB since before the build",
        pushed - before
    );
    assert_eq!(woc.config().buffer_capacity, RUNNER_CAPACITY);
    assert_eq!(po.config().buffer_capacity, RUNNER_CAPACITY);
}
