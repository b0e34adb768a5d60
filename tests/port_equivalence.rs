//! Property tests: the [`ThreadPort`] gateway behaves the same under every
//! [`Placement`] policy.
//!
//! A port resolves its shard binding once, at acquisition; which shard a
//! thread's rendezvous slots, ordering clock and stat lane live in must not
//! change anything a variant or an operator can observe.  For randomized
//! per-thread call plans and batch sizes ∈ {1, 8}, the round-robin run is the
//! reference; a `Grouped` and a `Pinned` run of the same plan must produce
//! exactly the same per-call outcomes, the same clean/diverged verdict, the
//! same first-mismatch slot and blamed variant, and the same monitor
//! statistics — even though real OS threads race through the monitor in
//! every run.
//!
//! The deterministic companions pin the divergence-report equivalence for an
//! injected mid-batch mismatch and for a rendezvous timeout.
//!
//! (The test names predate the retirement of the index-addressed monitor
//! entry, which used to be this suite's reference path; they are kept so the
//! suite's test ids stay stable.)

use std::sync::Arc;

use proptest::prelude::*;

use mvee::core::config::Placement;
use mvee::core::monitor::MonitorStats;
use mvee::core::mvee::Mvee;
use mvee::core::DivergenceReport;
use mvee::kernel::syscall::{SyscallRequest, Sysno};
use mvee::sync_agent::agents::AgentKind;

/// The round-robin reference first, then the placements compared against
/// it; `cores` is the core map the pinned one uses.
fn placements(cores: Vec<usize>) -> [Placement; 3] {
    [
        Placement::RoundRobin,
        Placement::Grouped,
        Placement::pinned(cores),
    ]
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

fn build_mvee(variants: usize, threads: usize, batch: usize, placement: &Placement) -> Mvee {
    Mvee::builder()
        .variants(variants)
        .threads(threads.max(1))
        .agent(AgentKind::Null)
        .batch(batch)
        .placement(placement.clone())
        .shards(4)
        .lockstep_timeout(std::time::Duration::from_secs(10))
        .manual_clock(true)
        .build()
}

/// Runs `plan` (one op-tag vector per logical thread, identical in every
/// variant) through a fresh MVEE on real OS threads, every (variant, thread)
/// through its own `ThreadPort`.  Returns the per-(variant, thread) success
/// counts, the monitor stats and the divergence report, if any.
fn run_plan(
    variants: usize,
    batch: usize,
    placement: &Placement,
    plan: &[Vec<u8>],
) -> (Vec<u64>, MonitorStats, Option<DivergenceReport>) {
    let mvee = Arc::new(build_mvee(variants, plan.len(), batch, placement));
    let plan = Arc::new(plan.to_vec());
    let mut handles = Vec::new();
    for variant in 0..variants {
        for thread in 0..plan.len() {
            let mvee = Arc::clone(&mvee);
            let plan = Arc::clone(&plan);
            handles.push(std::thread::spawn(move || {
                let port = mvee.thread_port(variant, thread);
                let ok = plan[thread]
                    .iter()
                    .filter(|&&tag| port.syscall(&req_for(tag)).is_ok())
                    .count() as u64;
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
    /// Clean plans: every placement succeeds on every call and agrees with
    /// the round-robin run on every monitor counter, with the batch size
    /// (∈ {1, 8}) part of the generated case.
    #[test]
    fn port_path_matches_index_path_on_clean_plans(
        plan in proptest::collection::vec(proptest::collection::vec(0u8..5, 1..10), 1..3),
        variants in 2usize..4,
        batch_sel in 0usize..2,
    ) {
        let batch = [1usize, 8][batch_sel];
        let [reference, others @ ..] = placements(vec![0, 2, 1]);
        let (ref_ok, ref_stats, ref_div) = run_plan(variants, batch, &reference, &plan);
        prop_assert!(ref_div.is_none(), "round-robin run diverged: {ref_div:?}");
        for placement in others {
            let (ok, stats, div) = run_plan(variants, batch, &placement, &plan);
            prop_assert!(div.is_none(), "{} run diverged: {:?}", placement.name(), div);
            prop_assert_eq!(&ref_ok, &ok,
                "per-thread outcomes differ (batch={}, {})", batch, placement.name());
            prop_assert_eq!(ref_stats, stats,
                "monitor stats differ (batch={}, {})", batch, placement.name());
        }
    }
}

/// The injected-mismatch scenario: one thread, two variants, a mid-batch
/// divergent mprotect followed by a synchronous write that forces the flush.
/// Every placement must blame exactly the same (thread, sequence, variant).
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
        for placement in placements(vec![1]) {
            let mvee = Arc::new(build_mvee(2, 1, batch, &placement));
            let m = Arc::clone(&mvee);
            let slave = std::thread::spawn(move || {
                let port = m.thread_port(1, 0);
                for len in [4096i64, 666, 4096] {
                    port.syscall(&mprotect(len))?;
                }
                port.syscall(&write())
            });
            let master = (|| {
                let port = mvee.thread_port(0, 0);
                for _ in 0..3 {
                    port.syscall(&mprotect(4096))?;
                }
                port.syscall(&write())
            })();
            let slave = slave.join().unwrap();
            assert!(master.is_err() || slave.is_err());
            let report = mvee.divergence().expect("divergence report");
            reports.push((placement, report));
        }
        let (_, reference) = &reports[0];
        assert_eq!(reference.sequence, 1, "must blame the exact mid-batch slot");
        assert_eq!(reference.variant, 1);
        for (placement, report) in &reports[1..] {
            assert_eq!(
                reference.sequence,
                report.sequence,
                "batch={batch} {}: first-mismatch slot differs",
                placement.name()
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
/// call.  Every placement must report the same timeout verdict, at batch 1
/// and 8.
#[test]
fn port_and_index_paths_report_identical_timeout_verdicts() {
    let open = SyscallRequest::new(Sysno::Open).with_path("/missing");
    for batch in [1usize, 8] {
        let mut reports = Vec::new();
        for placement in placements(vec![1]) {
            let mvee = Mvee::builder()
                .variants(2)
                .threads(1)
                .agent(AgentKind::Null)
                .batch(batch)
                .placement(placement)
                .lockstep_timeout(std::time::Duration::from_millis(150))
                .manual_clock(true)
                .build();
            let result = mvee.thread_port(0, 0).syscall(&open);
            assert!(result.is_err());
            reports.push(mvee.divergence().expect("divergence report"));
        }
        for report in &reports[1..] {
            assert_eq!(&reports[0], report, "batch={batch}");
        }
    }
}

/// The `Send` half of the port's threading contract, checked at compile
/// time from outside the defining crate (the `!Sync` half is a
/// `compile_fail` doctest on `mvee_core::port`).
#[test]
fn thread_port_is_send_across_crates() {
    fn assert_send<T: Send>() {}
    assert_send::<mvee::core::port::ThreadPort>();
}
