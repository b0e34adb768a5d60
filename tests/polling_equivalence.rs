//! Property tests: the fixed polling-pool transport is observably
//! equivalent to the synchronous ports, at every pool size.
//!
//! `Pollers::Pool(n)` serves every `AsyncThreadPort` from `n` poller
//! threads that drain all ports' rings through the lockstep table's
//! non-blocking try/poll rendezvous.  For randomized call plans across
//! batch sizes ∈ {1, 8}, variant counts ∈ {2, 8} and pool sizes ∈ {1, 2}, a
//! pooled run must produce exactly the same observable behaviour as a
//! synchronous run: the same per-call outcomes, the same clean/diverged
//! verdict, the same first-mismatch slot and blamed variant, and the same
//! monitor statistics.
//!
//! The deterministic companions pin the two hazards polling exists to
//! avoid or must not change:
//!
//! * a *cross-variant circular wait* — thread A of variant 0 and thread B
//!   of variant 1 arrive at different rendezvous first, so a poller that
//!   blocked inside either rendezvous would never serve the other port
//!   and the pool would deadlock; the non-blocking state machines must
//!   ride it out under a single poller;
//! * timeout *verdict identity* — a replication slave that times out must
//!   produce a byte-identical `ReplicationTimeout` report (same
//!   `publisher`, same `arrived` set, same blamed slot) whether a blocked
//!   variant thread or a poller stepped the call, and so must an ordered
//!   slave whose shard-clock turn never comes (`RendezvousTimeout` under
//!   `PoisonAll`, a self-quarantine under `Quarantine`).

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use mvee::core::async_port::{AsyncThreadPort, SubmitOutcome};
use mvee::core::config::{Pollers, RecoveryPolicy, Transport};
use mvee::core::monitor::{MonitorError, MonitorStats};
use mvee::core::mvee::Mvee;
use mvee::core::port::ThreadPort;
use mvee::core::{DivergenceKind, DivergenceReport, MonitoringPolicy};
use mvee::kernel::syscall::{SyscallOutcome, SyscallRequest, Sysno};
use mvee::sync_agent::agents::AgentKind;

/// The transports under comparison.
#[derive(Clone, Copy, PartialEq)]
enum Path {
    /// Synchronous: every call blocks inline in the monitor pipeline.
    Sync,
    /// Async rings drained by a fixed pool of `n` pollers.
    Pool(usize),
}

/// The call an op tag stands for — the same benign mix as the async
/// equivalence suite, so the transports cover the deferrable, replicated
/// and unmonitored paths.
fn req_for(tag: u8) -> SyscallRequest {
    match tag % 5 {
        0 => SyscallRequest::new(Sysno::Brk).with_int(0),
        1 => SyscallRequest::new(Sysno::Mmap).with_int(8192),
        2 => SyscallRequest::new(Sysno::Mprotect).with_int(4096),
        3 => SyscallRequest::new(Sysno::Gettimeofday),
        _ => SyscallRequest::new(Sysno::SchedYield),
    }
}

fn transport_for(path: Path) -> Transport {
    match path {
        Path::Sync => Transport::Sync,
        Path::Pool(n) => Transport::AsyncRings {
            depth: 8,
            pollers: Pollers::Pool(n),
        },
    }
}

fn build_mvee(path: Path, variants: usize, threads: usize, batch: usize) -> Mvee {
    Mvee::builder()
        .variants(variants)
        .threads(threads.max(1))
        .agent(AgentKind::Null)
        .batch(batch)
        .transport(transport_for(path))
        .lockstep_timeout(Duration::from_secs(10))
        .manual_clock(true)
        .build()
}

/// Runs `plan` (one op-tag vector per logical thread, identical in every
/// variant) through a fresh MVEE on real OS threads, via the chosen
/// transport.  Returns the per-(variant, thread) success counts, the
/// monitor stats and the divergence report, if any.
fn run_plan(
    path: Path,
    variants: usize,
    batch: usize,
    plan: &[Vec<u8>],
) -> (Vec<u64>, MonitorStats, Option<DivergenceReport>) {
    let mvee = Arc::new(build_mvee(path, variants, plan.len(), batch));
    let plan = Arc::new(plan.to_vec());
    let mut handles = Vec::new();
    for variant in 0..variants {
        for thread in 0..plan.len() {
            let mvee = Arc::clone(&mvee);
            let plan = Arc::clone(&plan);
            handles.push(std::thread::spawn(move || {
                let mut ok = 0u64;
                match path {
                    Path::Sync => {
                        let port = mvee.thread_port(variant, thread);
                        for &tag in &plan[thread] {
                            if port.syscall(&req_for(tag)).is_ok() {
                                ok += 1;
                            }
                        }
                    }
                    Path::Pool(_) => {
                        let port = mvee.async_thread_port(variant, thread);
                        let mut tickets = Vec::new();
                        for &tag in &plan[thread] {
                            match port.submit(&req_for(tag)) {
                                SubmitOutcome::Completed(result) => {
                                    if result.is_ok() {
                                        ok += 1;
                                    }
                                }
                                SubmitOutcome::Ticket(ticket) => tickets.push(ticket),
                            }
                        }
                        for ticket in tickets {
                            if port.reap(ticket).is_ok() {
                                ok += 1;
                            }
                        }
                    }
                }
                ((variant, thread), ok)
            }));
        }
    }
    let mut collected: Vec<((usize, usize), u64)> = handles
        .into_iter()
        .map(|h| h.join().expect("plan thread panicked"))
        .collect();
    collected.sort_by_key(|(id, _)| *id);
    let oks = collected.into_iter().map(|(_, ok)| ok).collect();
    (oks, mvee.monitor_stats(), mvee.divergence())
}

proptest! {
    /// Clean plans: Sync ≡ Pool(1) ≡ Pool(2) — every transport succeeds on
    /// every call and agrees on every monitor counter, with the batch size
    /// (∈ {1, 8}) and the variant count (∈ {2, 8}) part of the generated
    /// case.  (The name predates the retirement of the per-port workers; it
    /// is kept so the suite's test ids stay stable.)
    #[test]
    fn pool_matches_per_port_and_sync_on_clean_plans(
        plan in proptest::collection::vec(proptest::collection::vec(0u8..5, 1..10), 1..3),
        variants_sel in 0usize..2,
        batch_sel in 0usize..2,
    ) {
        let variants = [2usize, 8][variants_sel];
        let batch = [1usize, 8][batch_sel];
        let (sync_ok, sync_stats, sync_div) = run_plan(Path::Sync, variants, batch, &plan);
        prop_assert!(sync_div.is_none(), "sync transport diverged: {sync_div:?}");
        for pool in [1usize, 2] {
            let (pool_ok, pool_stats, pool_div) =
                run_plan(Path::Pool(pool), variants, batch, &plan);
            prop_assert!(pool_div.is_none(), "pool({}) diverged: {:?}", pool, pool_div);
            prop_assert_eq!(&sync_ok, &pool_ok,
                "sync vs pool({}) outcomes differ (variants={}, batch={})", pool, variants, batch);
            prop_assert_eq!(&sync_stats, &pool_stats,
                "sync vs pool({}) stats differ (variants={}, batch={})", pool, variants, batch);
        }
    }
}

/// The injected-mismatch scenario across all transports: one thread, two
/// variants, a mid-batch divergent mprotect followed by a synchronous
/// write that forces the flush.  All must blame exactly the same
/// (thread, sequence, variant) — the pooled state machine must not smear
/// the first-mismatch slot.
#[test]
fn all_transports_report_identical_mismatch_verdicts() {
    let mprotect = |len: i64| SyscallRequest::new(Sysno::Mprotect).with_int(len);
    let write = || {
        SyscallRequest::new(Sysno::Write)
            .with_fd(1)
            .with_payload(b"flush")
    };
    for batch in [1usize, 8] {
        let mut reports = Vec::new();
        for path in [Path::Sync, Path::Pool(1), Path::Pool(2)] {
            let mvee = Arc::new(build_mvee(path, 2, 1, batch));
            let mut handles = Vec::new();
            for variant in 0..2 {
                let mvee = Arc::clone(&mvee);
                handles.push(std::thread::spawn(move || {
                    let lens: [i64; 3] = if variant == 0 {
                        [4096, 4096, 4096]
                    } else {
                        [4096, 666, 4096]
                    };
                    match path {
                        Path::Sync => {
                            let port = mvee.thread_port(variant, 0);
                            for len in lens {
                                port.syscall(&mprotect(len))?;
                            }
                            port.syscall(&write()).map(|_| ())
                        }
                        Path::Pool(_) => {
                            let port = mvee.async_thread_port(variant, 0);
                            for len in lens {
                                port.syscall(&mprotect(len))?;
                            }
                            port.syscall(&write()).map(|_| ())
                        }
                    }
                }));
            }
            let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert!(
                results.iter().any(|r| r.is_err()),
                "the mismatch must surface on at least one variant"
            );
            reports.push(mvee.divergence().expect("divergence report"));
        }
        let sync = &reports[0];
        assert_eq!(sync.sequence, 1, "must blame the exact mid-batch slot");
        assert_eq!(sync.variant, 1);
        for other in &reports[1..] {
            assert_eq!(
                sync.sequence, other.sequence,
                "batch={batch}: first-mismatch slot differs between transports"
            );
            assert_eq!(sync.thread, other.thread);
            assert_eq!(sync.variant, other.variant, "blamed variant differs");
            assert_eq!(
                std::mem::discriminant(&sync.kind),
                std::mem::discriminant(&other.kind),
                "divergence kind differs"
            );
        }
    }
}

/// A replication slave that times out must produce a byte-identical
/// `ReplicationTimeout` report on every transport: same `publisher`, same
/// `arrived` set, same (thread, sequence, variant).  Only variant 1 issues
/// the replicated `gettimeofday`; variant 0 — the publisher — never
/// arrives, so the slave's wait expires.  On the pooled path that wait is
/// a poll-mode deadline, not a parked condvar, and the verdict must not
/// change.
#[test]
fn replication_timeout_verdicts_are_field_identical() {
    let mut reports = Vec::new();
    for path in [Path::Sync, Path::Pool(1)] {
        let mvee = Arc::new(
            Mvee::builder()
                .variants(2)
                .threads(1)
                .agent(AgentKind::Null)
                .batch(1)
                .transport(transport_for(path))
                .lockstep_timeout(Duration::from_millis(200))
                .manual_clock(true)
                .build(),
        );
        let r = match path {
            Path::Sync => mvee
                .thread_port(1, 0)
                .syscall(&SyscallRequest::new(Sysno::Gettimeofday)),
            Path::Pool(_) => mvee
                .async_thread_port(1, 0)
                .syscall(&SyscallRequest::new(Sysno::Gettimeofday)),
        };
        assert!(r.is_err(), "the slave's replication wait must time out");
        reports.push(mvee.divergence().expect("divergence report"));
    }
    let sync = &reports[0];
    assert!(
        matches!(
            sync.kind,
            mvee::core::DivergenceKind::ReplicationTimeout { publisher: 0, .. }
        ),
        "expected a ReplicationTimeout blaming the master, got {:?}",
        sync.kind
    );
    for other in &reports[1..] {
        assert_eq!(
            sync, other,
            "replication-timeout reports must be field-identical across transports"
        );
    }
}

const THREAD_A: usize = 0;
const THREAD_B: usize = 1;

/// A port of either transport, issuing the ordered calls of the tests below.
enum Port {
    Sync(ThreadPort),
    Pool(AsyncThreadPort),
}

impl Port {
    fn brk(&self) -> Result<(), MonitorError> {
        self.brk_outcome().map(|_| ())
    }

    fn brk_outcome(&self) -> Result<SyscallOutcome, MonitorError> {
        let req = SyscallRequest::new(Sysno::Brk).with_int(0);
        match self {
            Port::Sync(port) => port.syscall(&req),
            Port::Pool(port) => port.syscall(&req),
        }
    }
}

fn port(mvee: &Mvee, path: Path, variant: usize, thread: usize) -> Port {
    match path {
        Path::Sync => Port::Sync(mvee.thread_port(variant, thread)),
        Path::Pool(_) => Port::Pool(mvee.async_thread_port(variant, thread)),
    }
}

/// Threads A and B on one shard, so on one ordering clock; `brk` is ordered
/// and makes no comparison.
fn build_ordered(path: Path, variants: usize, recovery: RecoveryPolicy, timeout: Duration) -> Mvee {
    Mvee::builder()
        .variants(variants)
        .threads(2)
        .shards(1)
        .agent(AgentKind::Null)
        .policy(MonitoringPolicy::NoComparison)
        .recovery(recovery)
        .transport(transport_for(path))
        .lockstep_timeout(timeout)
        .manual_clock(true)
        .build()
}

/// An ordered slave whose shard-clock turn never comes, on every transport.
/// Threads A and B share one ordering clock; the master runs A's `brk`
/// (timestamp 0) and then B's (timestamp 1), but the last variant only ever
/// issues B's, so its own clock never reaches 1 and its turn wait expires.
/// Under `PoisonAll` that is a `RendezvousTimeout` naming the stuck variant
/// as the only arrival, field-identical across transports; under
/// `Quarantine` the stuck variant alone is dropped and the survivors'
/// ordered stream carries on.
#[test]
fn ordered_turn_timeout_blames_the_stuck_variant_on_every_transport() {
    let build = |path: Path, variants: usize, recovery: RecoveryPolicy| {
        build_ordered(path, variants, recovery, Duration::from_millis(200))
    };

    let mut reports = Vec::new();
    for path in [Path::Sync, Path::Pool(1), Path::Pool(2)] {
        let mvee = build(path, 2, RecoveryPolicy::PoisonAll);
        port(&mvee, path, 0, THREAD_A).brk().unwrap();
        port(&mvee, path, 0, THREAD_B).brk().unwrap();
        let Err(MonitorError::Diverged(report)) = port(&mvee, path, 1, THREAD_B).brk() else {
            panic!("the stuck slave's turn wait must expire into a divergence");
        };
        assert_eq!(mvee.divergence().as_ref(), Some(&report));
        reports.push(report);
    }
    assert_eq!(
        reports[0],
        DivergenceReport {
            kind: DivergenceKind::RendezvousTimeout { arrived: vec![1] },
            thread: THREAD_B,
            sequence: 0,
            variant: 1,
        }
    );
    assert!(reports.iter().all(|r| r == &reports[0]));

    for path in [Path::Sync, Path::Pool(1), Path::Pool(2)] {
        let mvee = build(path, 3, RecoveryPolicy::Quarantine { min_quorum: 2 });
        let survivors_b: Vec<Port> = (0..2)
            .map(|variant| {
                port(&mvee, path, variant, THREAD_A).brk().unwrap();
                let b = port(&mvee, path, variant, THREAD_B);
                b.brk().unwrap();
                b
            })
            .collect();
        let Err(MonitorError::Diverged(report)) = port(&mvee, path, 2, THREAD_B).brk() else {
            panic!("the stuck variant is handed the divergence it caused");
        };
        assert_eq!(
            (report.variant, report.thread, report.sequence),
            (2, THREAD_B, 0)
        );
        assert!(
            mvee.divergence().is_none(),
            "one stuck variant above the quorum floor must not poison the run"
        );
        assert_eq!(mvee.monitor().quarantined_variants(), vec![2]);
        for survivor in &survivors_b {
            survivor
                .brk()
                .expect("the survivors' next ordered call succeeds");
        }
        let stats = mvee.monitor_stats();
        assert_eq!((stats.quarantines, stats.divergences), (1, 1));
    }
}

/// An ordered slave whose turn another of its variant's threads releases,
/// with the two threads' ports on different pollers of `Pool(2)`.  The
/// master runs A's `brk` (timestamp 0), then B's (timestamp 1); the slave
/// issues B's first, so B waits for its turn until A's call advances the
/// clock.  Ports register round-robin, so the master's A and B land on
/// pollers 0 and 1 and the slave's B and A on pollers 0 and 1: the advance
/// on one poller must wake the turn wait parked on the other.  Outcomes,
/// counters and the (absent) verdict are field-identical to `Sync`.
#[test]
fn an_ordered_turn_released_from_another_poller_matches_sync() {
    let run = |path: Path| {
        let mvee = build_ordered(path, 2, RecoveryPolicy::PoisonAll, Duration::from_secs(10));
        let master = [
            port(&mvee, path, 0, THREAD_A).brk_outcome(),
            port(&mvee, path, 0, THREAD_B).brk_outcome(),
        ];
        let slave_b = port(&mvee, path, 1, THREAD_B);
        let slave_a = port(&mvee, path, 1, THREAD_A);
        let (b, a) = std::thread::scope(|scope| {
            let b = scope.spawn(move || slave_b.brk_outcome());
            // Long enough for B to reach its turn wait and park.
            std::thread::sleep(Duration::from_millis(50));
            let a = slave_a.brk_outcome();
            (b.join().expect("slave thread B panicked"), a)
        });
        (master, [a, b], mvee.monitor_stats(), mvee.divergence())
    };
    let sync = run(Path::Sync);
    assert!(sync.1.iter().all(Result::is_ok), "{:?}", sync.1);
    assert!(sync.3.is_none());
    assert_eq!(sync.2.ordered_syscalls, 4);
    for pool in [1, 2] {
        assert_eq!(run(Path::Pool(pool)), sync, "Pool({pool}) against Sync");
    }
}

/// The cross-variant circular wait a single *blocking* drain could never
/// survive: under one poller, (v0, thread A) and (v1, thread B) issue
/// synchronous lockstep writes on *different* rendezvous first.  A poller
/// that blocked inside either rendezvous would never drain the other
/// port's ring, and the late arrivals could never be processed — a
/// deadlock.  The non-blocking state machines park both calls as pending,
/// keep serving, and complete all four once the partners arrive.
#[test]
fn single_poller_survives_cross_variant_circular_wait() {
    const THREAD_A: usize = 0;
    const THREAD_B: usize = 1;
    let mvee = Arc::new(
        Mvee::builder()
            .variants(2)
            .threads(2)
            .agent(AgentKind::Null)
            .batch(1)
            .transport(Transport::AsyncRings {
                depth: 8,
                pollers: Pollers::Pool(1),
            })
            .lockstep_timeout(Duration::from_secs(10))
            .manual_clock(true)
            .build(),
    );
    assert_eq!(
        mvee.poller_threads(),
        1,
        "the scenario needs a single poller"
    );
    // First wave: opposite corners of the (variant, thread) grid, each
    // blocking in a rendezvous the other cannot complete.
    let mut handles = Vec::new();
    for (variant, thread, tag) in [(0usize, THREAD_A, b"aa" as &[u8]), (1, THREAD_B, b"bb")] {
        let mvee = Arc::clone(&mvee);
        handles.push(std::thread::spawn(move || {
            let port = mvee.async_thread_port(variant, thread);
            port.syscall(
                &SyscallRequest::new(Sysno::Write)
                    .with_fd(1)
                    .with_payload(tag),
            )
        }));
    }
    // Let both first-wave calls reach their rendezvous and park as pending
    // inside the poller before the partners arrive.
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        !mvee.monitor().has_diverged(),
        "the pending rendezvous must not be misread as divergence"
    );
    // Second wave: the partners, in the opposite variant each.
    for (variant, thread, tag) in [(1usize, THREAD_A, b"aa" as &[u8]), (0, THREAD_B, b"bb")] {
        let mvee = Arc::clone(&mvee);
        handles.push(std::thread::spawn(move || {
            let port = mvee.async_thread_port(variant, thread);
            port.syscall(
                &SyscallRequest::new(Sysno::Write)
                    .with_fd(1)
                    .with_payload(tag),
            )
        }));
    }
    for h in handles {
        h.join()
            .expect("circular-wait thread hung or panicked")
            .expect("all four writes must succeed once the partners arrive");
    }
    assert!(mvee.divergence().is_none());
}
