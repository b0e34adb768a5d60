//! Regenerates Table 2: native run times, system-call rates and sync-op
//! rates of the PARSEC 2.1 and SPLASH-2x benchmarks (4 worker threads).
//!
//! The synthetic workloads are parameterized by the paper's own Table 2, so
//! this binary shows both the paper's values and the rates the scaled
//! synthetic programs actually achieve when run natively.

use std::sync::Arc;
use std::time::Duration;

use mvee_bench::{format_row, print_table_header, workload_scale};
use mvee_core::config::{RemoteChannel, Transport};
use mvee_core::monitor::MonitorError;
use mvee_core::mvee::Mvee;
use mvee_kernel::syscall::{SyscallArg, SyscallOutcome, SyscallRequest, Sysno};
use mvee_sync_agent::agents::AgentKind;
use mvee_variant::runner::{run_mvee, run_native, RunConfig};
use mvee_workloads::catalog::{BenchmarkSpec, Suite, CATALOG};

fn main() {
    let scale = workload_scale();
    println!("Table 2 — native run times, syscall and sync-op rates");
    println!("(paper values for the real suites; measured values for the scaled synthetic programs, scale = {scale:.1e})");

    let widths = [16, 10, 12, 12, 12, 14, 14];
    print_table_header(
        "Table 2",
        &[
            "benchmark",
            "suite",
            "paper t(s)",
            "paper sc/s",
            "paper sy/s",
            "meas. sc/s",
            "meas. sy/s",
        ],
        &widths,
    );

    for spec in CATALOG {
        let program = spec.paper_program(scale);
        let report = run_native(&program);
        let suite = match spec.suite {
            Suite::Parsec => "PARSEC",
            Suite::Splash2x => "SPLASH-2x",
            Suite::Synthetic => "synthetic",
        };
        println!(
            "{}",
            format_row(
                &[
                    spec.name.to_string(),
                    suite.to_string(),
                    format!("{:.2}", spec.native_runtime_s),
                    format!("{:.0}", spec.syscalls_per_s),
                    format!("{:.0}", spec.sync_ops_per_s),
                    format!("{:.0}", report.syscall_rate()),
                    format!("{:.0}", report.sync_op_rate()),
                ],
                &widths,
            )
        );
    }
    println!("\n(sc/s = system calls per second, sy/s = sync ops per second)");

    print_stall_taxonomy(scale);
    print_detection_lag();
}

/// The agent-time attribution table: where slave and master wait time went
/// (spins, yields, parks on each side), how often producers rescanned the
/// reader cursors, and how often masters stalled on a full buffer — per
/// agent, on the contention-heavy `lockheavy` workload.  Both spin columns
/// read 0 on a one-CPU process by design: the default waiter skips its spin
/// phase where no peer can run meanwhile.  This is the
/// taxonomy `AgentStats` carries since the adaptive-waiter redesign;
/// per-thread-group attribution is available through
/// `SyncAgent::lane_stats`.
fn print_stall_taxonomy(scale: f64) {
    let spec = BenchmarkSpec::by_name("lockheavy").expect("lockheavy in catalog");
    println!("\nAgent stall taxonomy — lockheavy, 2 variants, 4 threads");
    let widths = [16, 10, 10, 12, 10, 10, 10, 10, 10, 10, 10];
    print_table_header(
        "Stalls",
        &[
            "agent", "recorded", "replayed", "spins", "yields", "parks", "rescans", "m-stalls",
            "m-spins", "m-yields", "m-parks",
        ],
        &widths,
    );
    for kind in AgentKind::replication_agents() {
        let program = spec.program(4, scale);
        let report = run_mvee(&program, &RunConfig::new(2, kind));
        let s = report.agent_stats;
        println!(
            "{}",
            format_row(
                &[
                    kind.name().to_string(),
                    s.ops_recorded.to_string(),
                    s.ops_replayed.to_string(),
                    s.slave_spin_iterations.to_string(),
                    s.slave_yields.to_string(),
                    s.slave_parks.to_string(),
                    s.cursor_rescans.to_string(),
                    s.master_stalls.to_string(),
                    s.master_spin_iterations.to_string(),
                    s.master_yields.to_string(),
                    s.master_parks.to_string(),
                ],
                &widths,
            )
        );
    }
    println!(
        "(spins/yields/parks = slave wait phases, m-* = master full-buffer wait phases; rescans = producer min-cursor refreshes; spins read 0 on one CPU by design)"
    );
}

/// How many leader sync ops the follower's pump ingests in the staged
/// mismatch probe before the mismatching batch can resolve.
const LAG_SYNC_OPS: u64 = 64;

/// The divergence-detection-lag table for the distributed deployment: the
/// leader flushes a batch whose comparison will eventually mismatch (the
/// slave disagrees on one `mprotect` length) and keeps retiring sync ops
/// while the slave dawdles; every sync op the follower ingests before the
/// verdict is leader progress *after* the divergent call executed —
/// `MonitorStats::detection_lag_sync_ops`, per replication channel.
fn print_detection_lag() {
    println!("\nDivergence detection lag — leader/follower split, 2 variants");
    let widths = [16, 14, 14];
    print_table_header("Lag", &["channel", "staged sy", "lag (sy)"], &widths);
    for channel in [
        RemoteChannel::InProc,
        RemoteChannel::Unix,
        RemoteChannel::Tcp,
    ] {
        let lag = measure_detection_lag(channel);
        println!(
            "{}",
            format_row(
                &[
                    format!("remote-{}", channel.name()),
                    LAG_SYNC_OPS.to_string(),
                    lag.to_string(),
                ],
                &widths,
            )
        );
    }
    println!(
        "(staged sy = sync ops the leader retires behind the mismatching batch; lag = how many the follower had ingested when the verdict landed)"
    );
}

/// Maps the region a probe thread's `mprotect`s work on, through `call`
/// (the thread's port), so the probe compares real protection changes
/// instead of the kernel's `EINVAL` path.  Returns the region's address.
fn map_region(call: impl FnOnce(&SyscallRequest) -> Result<SyscallOutcome, MonitorError>) -> u64 {
    let request = SyscallRequest::new(Sysno::Mmap)
        .with_int(4096)
        .with_arg(SyscallArg::Flags(3));
    let outcome = call(&request).expect("probe region mmap diverged");
    outcome.result.expect("probe region mmap failed") as u64
}

/// A well-formed `mprotect(region, len, PROT_READ)` on a thread's
/// [`map_region`]; the staged mismatch varies `len`.
fn mprotect_request(region: u64, len: i64) -> SyscallRequest {
    SyscallRequest::new(Sysno::Mprotect)
        .with_arg(SyscallArg::Pointer(region))
        .with_int(len)
        .with_arg(SyscallArg::Flags(1))
}

/// One staged-mismatch run on the given replication channel; returns the
/// follower's recorded detection lag in sync ops.
fn measure_detection_lag(channel: RemoteChannel) -> u64 {
    const BATCH: usize = 8;
    let mvee = Arc::new(
        Mvee::builder()
            .variants(2)
            .threads(1)
            .agent(AgentKind::Null)
            .batch(BATCH)
            .transport(Transport::Remote { channel })
            .lockstep_timeout(Duration::from_secs(30))
            .manual_clock(true)
            .build(),
    );
    let leader = {
        let mvee = Arc::clone(&mvee);
        std::thread::spawn(move || {
            let port = mvee.leader_port(0);
            // The region's mmap is the batch's first deferred comparison.
            let region = map_region(|req| port.syscall(req));
            for _ in 1..BATCH {
                let _ = port.syscall(&mprotect_request(region, 4096));
            }
            // Let the pump deposit the batch first, then pace the sync ops
            // so they are ingested while the arrival is still pending.
            std::thread::sleep(Duration::from_millis(5));
            for i in 0..LAG_SYNC_OPS {
                port.sync_op(0x1000, || ());
                if i % 8 == 7 {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        })
    };
    let slave = {
        let mvee = Arc::clone(&mvee);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            let port = mvee.thread_port(1, 0);
            let region = map_region(|req| port.syscall(req));
            for i in 1..BATCH {
                let len = if i == 3 { 666 } else { 4096 };
                let _ = port.syscall(&mprotect_request(region, len));
            }
        })
    };
    leader.join().expect("leader thread panicked");
    slave.join().expect("slave thread panicked");
    assert!(
        mvee.divergence().is_some(),
        "the staged mismatch must be detected"
    );
    mvee.monitor_stats().detection_lag_sync_ops
}
