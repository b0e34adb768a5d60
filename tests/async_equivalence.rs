//! Property tests: the asynchronous ring transport is observably equivalent
//! to the synchronous [`ThreadPort`] transport.
//!
//! For randomized per-thread call plans, batch sizes ∈ {1, 8} and variant
//! counts ∈ {2, 8}, a run that drives every (variant, thread) through an
//! [`AsyncThreadPort`] — submission/completion rings drained by a
//! monitor-side poller — must produce exactly the same observable behaviour
//! as a run that issues the same calls through a synchronous `ThreadPort`:
//! the same per-call outcomes, the same clean/diverged verdict, the same
//! first-mismatch slot and blamed variant, and the same monitor statistics.
//! The poller runs the same monitor pipeline, so any discrepancy is a
//! transport bug by construction.
//!
//! The deterministic companions pin the divergence-report equivalence for an
//! injected mid-batch mismatch, and pin that a reaper parked on the
//! completion ring shuts down cleanly (wakes with the error, and the port
//! drops without hanging) instead of waiting on a verdict that will never
//! come.

use std::sync::Arc;

use proptest::prelude::*;

use mvee::core::async_port::SubmitOutcome;
use mvee::core::config::{Pollers, Transport};
use mvee::core::monitor::MonitorStats;
use mvee::core::mvee::Mvee;
use mvee::core::DivergenceReport;
use mvee::kernel::syscall::{SyscallRequest, Sysno};
use mvee::sync_agent::agents::AgentKind;

/// The two transports under comparison.
#[derive(Clone, Copy, PartialEq)]
enum Path {
    /// Synchronous: every call blocks inline in the monitor pipeline.
    Sync,
    /// Asynchronous: submission/completion rings + one poller.
    Async,
}

/// The call an op tag stands for.  All tags are benign (identical across
/// variants); the divergence scenarios inject their mismatch explicitly.
fn req_for(tag: u8) -> SyscallRequest {
    match tag % 5 {
        // Deferrable compare-only address-space calls: these pipeline on
        // the async transport.
        0 => SyscallRequest::new(Sysno::Brk).with_int(0),
        1 => SyscallRequest::new(Sysno::Mmap).with_int(8192),
        2 => SyscallRequest::new(Sysno::Mprotect).with_int(4096),
        // A replicated call: synchronous at the reap point on both paths.
        3 => SyscallRequest::new(Sysno::Gettimeofday),
        // Neither compared nor replicated nor ordered: pipelines.
        _ => SyscallRequest::new(Sysno::SchedYield),
    }
}

fn build_mvee(path: Path, variants: usize, threads: usize, batch: usize) -> Mvee {
    let transport = match path {
        Path::Sync => Transport::Sync,
        // The smallest depth the builder accepts for batch = 8: plans longer
        // than the ring exercise the backpressure path (drain completions
        // while waiting for space).
        Path::Async => Transport::AsyncRings {
            depth: 8,
            pollers: Pollers::Pool(1),
        },
    };
    Mvee::builder()
        .variants(variants)
        .threads(threads.max(1))
        .agent(AgentKind::Null)
        .batch(batch)
        .transport(transport)
        .lockstep_timeout(std::time::Duration::from_secs(10))
        .manual_clock(true)
        .build()
}

/// Runs `plan` (one op-tag vector per logical thread, identical in every
/// variant) through a fresh MVEE on real OS threads, via the chosen
/// transport.  On the async path every pipelined ticket is reaped before the
/// thread finishes, so both runs account for every call.  Returns the
/// per-(variant, thread) success counts, the monitor stats and the
/// divergence report, if any.
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
                    Path::Async => {
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
    /// Clean plans: both transports succeed on every call and agree on
    /// every monitor counter, with the batch size (∈ {1, 8}) and the
    /// variant count (∈ {2, 8}) part of the generated case.
    #[test]
    fn async_transport_matches_sync_on_clean_plans(
        plan in proptest::collection::vec(proptest::collection::vec(0u8..5, 1..10), 1..3),
        variants_sel in 0usize..2,
        batch_sel in 0usize..2,
    ) {
        let variants = [2usize, 8][variants_sel];
        let batch = [1usize, 8][batch_sel];
        let (sync_ok, sync_stats, sync_div) = run_plan(Path::Sync, variants, batch, &plan);
        let (async_ok, async_stats, async_div) = run_plan(Path::Async, variants, batch, &plan);
        prop_assert!(sync_div.is_none(), "sync transport diverged: {sync_div:?}");
        prop_assert!(async_div.is_none(), "async transport diverged: {async_div:?}");
        prop_assert_eq!(&sync_ok, &async_ok,
            "per-thread outcomes differ (variants={}, batch={})", variants, batch);
        prop_assert_eq!(sync_stats, async_stats,
            "monitor stats differ (variants={}, batch={})", variants, batch);
    }
}

/// The injected-mismatch scenario: one thread, two variants, a mid-batch
/// divergent mprotect followed by a synchronous write that forces the
/// flush.  Both transports must blame exactly the same (thread, sequence,
/// variant) — the async rings must not smear the first-mismatch slot.
#[test]
fn transports_report_identical_mismatch_verdicts() {
    let mprotect = |len: i64| SyscallRequest::new(Sysno::Mprotect).with_int(len);
    let write = || {
        SyscallRequest::new(Sysno::Write)
            .with_fd(1)
            .with_payload(b"flush")
    };
    for batch in [1usize, 8] {
        let mut reports = Vec::new();
        for path in [Path::Sync, Path::Async] {
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
                        Path::Async => {
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
        let (sync, asynch) = (&reports[0], &reports[1]);
        assert_eq!(
            sync.sequence, asynch.sequence,
            "batch={batch}: first-mismatch slot differs between transports"
        );
        assert_eq!(sync.thread, asynch.thread);
        assert_eq!(sync.variant, asynch.variant, "blamed variant differs");
        assert_eq!(
            std::mem::discriminant(&sync.kind),
            std::mem::discriminant(&asynch.kind),
            "divergence kind differs"
        );
        assert_eq!(sync.sequence, 1, "must blame the exact mid-batch slot");
        assert_eq!(sync.variant, 1);
    }
}

/// A reaper parked on the completion ring while its call is pending in a
/// rendezvous that diverges must wake with the error — and the port must
/// then drop cleanly (binding released) with un-reaped tickets outstanding,
/// not hang.
#[test]
fn parked_reaper_shuts_down_cleanly_on_divergence() {
    let mvee = Arc::new(
        Mvee::builder()
            .variants(2)
            .threads(1)
            .agent(AgentKind::Null)
            .batch(8)
            .transport(Transport::AsyncRings {
                depth: 8,
                pollers: Pollers::Pool(1),
            })
            .lockstep_timeout(std::time::Duration::from_secs(5))
            .manual_clock(true)
            .build(),
    );
    let mut handles = Vec::new();
    for variant in 0..2 {
        let mvee = Arc::clone(&mvee);
        handles.push(std::thread::spawn(move || {
            let port = mvee.async_thread_port(variant, 0);
            // Pipeline a deferrable call; its ticket stays un-reaped across
            // the divergence and the drop.
            let pending = match port.submit(&SyscallRequest::new(Sysno::Brk).with_int(0)) {
                SubmitOutcome::Ticket(t) => t,
                SubmitOutcome::Completed(_) => panic!("brk must pipeline"),
            };
            // A synchronous lockstep call with divergent payloads: the
            // arrival pends in the rendezvous, the caller parks in reap,
            // and the mismatch must wake it with the error.
            let payload: &[u8] = if variant == 0 { b"good" } else { b"evil" };
            let r = port.syscall(
                &SyscallRequest::new(Sysno::Write)
                    .with_fd(1)
                    .with_payload(payload),
            );
            assert!(r.is_err(), "the parked reaper must wake with the error");
            assert!(port.is_shut_down());
            let _ = pending; // dropped un-reaped on purpose
            drop(port); // must release the binding promptly, not hang
        }));
    }
    for h in handles {
        h.join()
            .expect("variant thread hung or panicked at shutdown");
    }
    assert!(mvee.divergence().is_some());
    // Both closes were served: the bindings are free to re-acquire.
    for variant in 0..2 {
        drop(mvee.thread_port(variant, 0));
    }
}

/// The `Send` half of the async port's threading contract, checked from
/// outside the defining crate.
#[test]
fn async_thread_port_is_send_across_crates() {
    fn assert_send<T: Send>() {}
    assert_send::<mvee::core::async_port::AsyncThreadPort>();
}
