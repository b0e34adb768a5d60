//! Property tests: every port the gateway's factory hands out behaves like
//! the blocking [`ThreadPort`](mvee::core::port::ThreadPort).
//!
//! [`VariantGateway::port`](mvee::core::mvee::VariantGateway::port) picks a
//! port by transport — the blocking port, a ring-backed port, or the remote
//! leader's for variant 0 — and nothing a variant or an operator can
//! observe may depend on which.  For randomized per-thread call plans and
//! batch sizes ∈ {1, 8}, the `Sync` run through `Mvee::thread_port` is the
//! reference; the same plan through the factory's ports under
//! `Transport::async_pool(1)` and under `Transport::Remote` must produce
//! exactly the same per-call outcomes, the same clean/diverged verdict, the
//! same first-mismatch slot and blamed variant, and the same monitor
//! statistics — even though real OS threads race through the monitor in
//! every run.  The remote and async suites reach their ports through the
//! typed shorthands; this is the per-call suite that goes through the
//! factory.
//!
//! The deterministic companions pin the divergence-report equivalence for an
//! injected mid-batch mismatch and for a rendezvous timeout.
//!
//! (The test names predate the retirement of the index-addressed monitor
//! entry, which used to be this suite's reference path; they are kept so the
//! suite's test ids stay stable.)

use std::sync::Arc;

use proptest::prelude::*;

use mvee::core::config::{RemoteChannel, Transport};
use mvee::core::monitor::MonitorStats;
use mvee::core::mvee::Mvee;
use mvee::core::port::ThreadSyscallPort;
use mvee::core::DivergenceReport;
use mvee::kernel::syscall::{SyscallRequest, Sysno};
use mvee::sync_agent::agents::AgentKind;

/// The blocking reference first, then the transports whose factory ports
/// are compared against it.
fn faces() -> [Transport; 3] {
    [
        Transport::Sync,
        Transport::async_pool(1),
        Transport::Remote {
            channel: RemoteChannel::InProc,
        },
    ]
}

/// The reference's port through the typed shorthand, every other face's
/// through the gateway's factory.
fn port(mvee: &Mvee, variant: usize, thread: usize) -> Box<dyn ThreadSyscallPort> {
    let gateway = mvee.gateway(variant);
    match gateway.transport() {
        Transport::Sync => Box::new(mvee.thread_port(variant, thread)),
        _ => gateway.port(thread),
    }
}

/// The call an op tag stands for.  All tags are benign (identical across
/// variants); the divergence scenarios inject their mismatch explicitly.
fn req_for(tag: u8) -> SyscallRequest {
    match tag % 5 {
        // Deferrable compare-only address-space calls.
        0 => SyscallRequest::new(Sysno::Brk).with_int(0),
        1 => SyscallRequest::new(Sysno::Mmap).with_int(8192),
        2 => SyscallRequest::new(Sysno::Mprotect).with_int(4096),
        // A replicated call: a synchronous flush point.
        3 => SyscallRequest::new(Sysno::Gettimeofday),
        // Neither compared nor replicated nor ordered.
        _ => SyscallRequest::new(Sysno::SchedYield),
    }
}

fn build_mvee(variants: usize, threads: usize, batch: usize, transport: Transport) -> Mvee {
    Mvee::builder()
        .variants(variants)
        .threads(threads.max(1))
        .agent(AgentKind::Null)
        .batch(batch)
        .transport(transport)
        .shards(4)
        .lockstep_timeout(std::time::Duration::from_secs(10))
        .manual_clock(true)
        .build()
}

/// Runs `plan` (one op-tag vector per logical thread, identical in every
/// variant) through a fresh MVEE on real OS threads, every (variant, thread)
/// through its own port.  Returns each (variant, thread)'s per-call success
/// flags, the monitor stats once a remote follower has caught up, and the
/// divergence report, if any.
fn run_plan(
    variants: usize,
    batch: usize,
    transport: Transport,
    plan: &[Vec<u8>],
) -> (Vec<Vec<bool>>, MonitorStats, Option<DivergenceReport>) {
    let mvee = Arc::new(build_mvee(variants, plan.len(), batch, transport));
    let plan = Arc::new(plan.to_vec());
    let mut handles = Vec::new();
    for variant in 0..variants {
        for thread in 0..plan.len() {
            let mvee = Arc::clone(&mvee);
            let plan = Arc::clone(&plan);
            handles.push(std::thread::spawn(move || {
                let port = port(&mvee, variant, thread);
                let ok: Vec<bool> = plan[thread]
                    .iter()
                    .map(|&tag| port.syscall(&req_for(tag)).is_ok())
                    .collect();
                ((variant, thread), ok)
            }));
        }
    }
    let mut collected: Vec<((usize, usize), Vec<bool>)> = handles
        .into_iter()
        .map(|h| h.join().expect("plan thread panicked"))
        .collect();
    collected.sort_by_key(|(id, _)| *id);
    let oks = collected.into_iter().map(|(_, ok)| ok).collect();
    mvee.remote_barrier().expect("the follower is alive");
    (oks, mvee.monitor_stats(), mvee.divergence())
}

proptest! {
    /// Clean plans: every face succeeds on every call and agrees with the
    /// blocking run on every monitor counter, with the batch size (∈ {1, 8})
    /// part of the generated case.
    #[test]
    fn port_path_matches_index_path_on_clean_plans(
        plan in proptest::collection::vec(proptest::collection::vec(0u8..5, 1..10), 1..3),
        variants in 2usize..4,
        batch_sel in 0usize..2,
    ) {
        let batch = [1usize, 8][batch_sel];
        let [reference, others @ ..] = faces();
        let (ref_ok, ref_stats, ref_div) = run_plan(variants, batch, reference, &plan);
        prop_assert!(ref_div.is_none(), "blocking run diverged: {ref_div:?}");
        prop_assert!(ref_ok.iter().flatten().all(|&ok| ok), "a clean call failed");
        for face in others {
            let (ok, stats, div) = run_plan(variants, batch, face, &plan);
            prop_assert!(div.is_none(), "{} run diverged: {:?}", face.name(), div);
            prop_assert_eq!(&ref_ok, &ok,
                "per-call outcomes differ (batch={}, {})", batch, face.name());
            prop_assert_eq!(ref_stats, stats,
                "monitor stats differ (batch={}, {})", batch, face.name());
        }
    }
}

/// The injected-mismatch scenario: one thread, two variants, a mid-batch
/// divergent mprotect followed by a synchronous write that forces the flush.
/// Every face must blame exactly the same (thread, sequence, variant).
#[test]
fn port_and_index_paths_report_identical_mismatch_verdicts() {
    let mprotect = |len: i64| SyscallRequest::new(Sysno::Mprotect).with_int(len);
    let write = || {
        SyscallRequest::new(Sysno::Write)
            .with_fd(1)
            .with_payload(b"flush")
    };
    for batch in [1usize, 8] {
        let mut reports = Vec::new();
        for face in faces() {
            let mvee = Arc::new(build_mvee(2, 1, batch, face));
            let m = Arc::clone(&mvee);
            let slave = std::thread::spawn(move || {
                let port = port(&m, 1, 0);
                for len in [4096i64, 666, 4096] {
                    port.syscall(&mprotect(len))?;
                }
                port.syscall(&write())
            });
            let master = (|| {
                let port = port(&mvee, 0, 0);
                for _ in 0..3 {
                    port.syscall(&mprotect(4096))?;
                }
                port.syscall(&write())
            })();
            let slave = slave.join().unwrap();
            assert!(master.is_err() || slave.is_err(), "{}", face.name());
            mvee.remote_barrier().expect("the follower is alive");
            let report = mvee.divergence().expect("divergence report");
            reports.push((face, report));
        }
        let (_, reference) = &reports[0];
        assert_eq!(reference.sequence, 1, "must blame the exact mid-batch slot");
        assert_eq!(reference.variant, 1);
        for (face, report) in &reports[1..] {
            assert_eq!(
                reference.sequence,
                report.sequence,
                "batch={batch} {}: first-mismatch slot differs",
                face.name()
            );
            assert_eq!(reference.thread, report.thread);
            assert_eq!(reference.variant, report.variant, "blamed variant differs");
            assert_eq!(
                std::mem::discriminant(&reference.kind),
                std::mem::discriminant(&report.kind),
                "divergence kind differs"
            );
        }
    }
}

/// The rendezvous-timeout scenario: only the master arrives at a compared
/// call.  Every face must report the same timeout verdict, at batch 1 and
/// 8.
#[test]
fn port_and_index_paths_report_identical_timeout_verdicts() {
    let open = SyscallRequest::new(Sysno::Open).with_path("/missing");
    for batch in [1usize, 8] {
        let mut reports = Vec::new();
        for face in faces() {
            let mvee = Mvee::builder()
                .variants(2)
                .threads(1)
                .agent(AgentKind::Null)
                .batch(batch)
                .transport(face)
                .lockstep_timeout(std::time::Duration::from_millis(150))
                .manual_clock(true)
                .build();
            let result = port(&mvee, 0, 0).syscall(&open);
            assert!(result.is_err(), "{}", face.name());
            mvee.remote_barrier().expect("the follower is alive");
            reports.push(mvee.divergence().expect("divergence report"));
        }
        for report in &reports[1..] {
            assert_eq!(&reports[0], report, "batch={batch}");
        }
    }
}

/// The `Send` half of the port's threading contract, checked at compile
/// time from outside the defining crate (the `!Sync` half is a
/// `compile_fail` doctest on `mvee_core::port`), for both backends.
#[test]
fn thread_port_is_send_across_crates() {
    fn assert_send<T: Send>() {}
    assert_send::<mvee::core::port::ThreadPort>();
    assert_send::<mvee::core::remote::LeaderPort>();
}
