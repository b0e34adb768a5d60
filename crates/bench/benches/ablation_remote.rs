//! Ablation: the distributed leader/follower split vs the in-proc
//! synchronous monitor — what does shipping the comparison work to a
//! follower on the far end of a replication channel buy the leader?
//!
//! Every cell drives the same deferrable-heavy call stream (brk/mmap/
//! mprotect with a periodic replicated `gettimeofday`) at 2 and 8 variants.
//! On the `sync` baseline every variant is an in-proc [`ThreadPort`] and
//! batch flushes block inline in the monitor pipeline.  On the `remote-*`
//! cells variant 0 becomes the leader: its [`LeaderPort`] streams CRC-framed
//! records over the chosen channel (in-proc pipes, Unix socketpair or TCP
//! loopback) and blocks only at the replicated flush points, while the
//! follower pump absorbs the comparison cost asynchronously.
//!
//! Three measurements per cell are printed, one row each (the last
//! committed record of this bench is archived in `BASELINES.md`; the
//! end-to-end numbers now come from `benchmark/`):
//!
//! * wall ns per monitored call for the full run,
//! * *issue latency* — ns from a compare-only call's start to control
//!   returning to the variant thread, on a stretch with no replicated
//!   calls (the leader never blocks there; the sync baseline pays its
//!   rendezvous barrier per comparison batch),
//! * the divergence *detection lag* on a staged mismatch: how many leader
//!   sync ops the follower had already ingested by the time the
//!   mismatching batch resolved (`MonitorStats::detection_lag_sync_ops`).
//!
//! `MVEE_BENCH_VARIANTS` (default `2,8`) tunes the sweep;
//! `MVEE_BENCH_REMOTE_MODES` (comma-separated `Transport::label()` values,
//! e.g. `sync,remote-inproc`) restricts which cells run — CI uses it for a
//! socket-loopback smoke.  On a small box the leader, the follower's
//! reader/pump threads and every slave variant share the same cores, so the
//! wall numbers carry scheduling noise the paper's multi-machine deployment
//! would not.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, BenchmarkId, Criterion};
use mvee_bench::{map_region, mprotect_request, stream_request};
use mvee_core::config::{RemoteChannel, Transport};
use mvee_core::mvee::Mvee;
use mvee_kernel::syscall::{SyscallRequest, Sysno};
use mvee_sync_agent::agents::AgentKind;

const THREADS: usize = 4;
const OPS: u64 = 256;
const BATCH: usize = 8;
/// Calls in the issue-latency stretch: compare-only, no replicated flush.
const ISSUE_OPS: u64 = 48;
/// Leader sync ops streamed behind the staged mismatch in the lag probe.
const LAG_SYNC_OPS: u64 = 64;

fn variant_counts() -> Vec<usize> {
    if std::env::var("MVEE_BENCH_VARIANTS").is_err() {
        return vec![2, 8];
    }
    mvee_bench::variant_counts()
}

/// The measurement cells: the in-proc sync baseline and the three
/// replication channels.  `MVEE_BENCH_REMOTE_MODES` (comma-separated
/// labels) restricts the set.
fn cells() -> Vec<Transport> {
    let all = vec![
        Transport::Sync,
        Transport::Remote {
            channel: RemoteChannel::InProc,
        },
        Transport::Remote {
            channel: RemoteChannel::Unix,
        },
        Transport::Remote {
            channel: RemoteChannel::Tcp,
        },
    ];
    let Ok(filter) = std::env::var("MVEE_BENCH_REMOTE_MODES") else {
        return all;
    };
    let wanted: Vec<&str> = filter
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    let picked: Vec<Transport> = all
        .into_iter()
        .filter(|t| wanted.iter().any(|w| *w == t.label()))
        .collect();
    assert!(
        !picked.is_empty(),
        "MVEE_BENCH_REMOTE_MODES={filter:?} matched no cell label"
    );
    picked
}

fn build(variants: usize, transport: Transport) -> Mvee {
    Mvee::builder()
        .variants(variants)
        .threads(THREADS)
        .agent(AgentKind::Null)
        .batch(BATCH)
        .transport(transport)
        .shards(THREADS)
        .lockstep_timeout(Duration::from_secs(30))
        .manual_clock(true)
        .build()
}

/// One full run: `variants × THREADS` OS threads, `OPS` calls each.  On a
/// remote transport variant 0's threads drive [`LeaderPort`]s and the run
/// ends with a replication barrier (every streamed frame resolved and
/// acknowledged), so the wall time charges the leader for the follower's
/// whole comparison backlog — the honest number.  Returns the total number
/// of monitored calls.
fn run(variants: usize, transport: Transport) -> u64 {
    let mvee = Arc::new(build(variants, transport));
    let mut handles = Vec::with_capacity(variants * THREADS);
    for variant in 0..variants {
        for thread in 0..THREADS {
            let mvee = Arc::clone(&mvee);
            handles.push(std::thread::spawn(move || {
                if transport.is_remote() && variant == 0 {
                    let port = mvee.leader_port(thread);
                    let region = map_region(|req| port.syscall(req));
                    for i in 0..OPS {
                        port.syscall(&stream_request(i, region))
                            .expect("bench call diverged");
                    }
                } else {
                    let port = mvee.thread_port(variant, thread);
                    let region = map_region(|req| port.syscall(req));
                    for i in 0..OPS {
                        port.syscall(&stream_request(i, region))
                            .expect("bench call diverged");
                    }
                }
            }));
        }
    }
    for h in handles {
        h.join().expect("bench thread panicked");
    }
    mvee.remote_barrier().expect("replication barrier failed");
    assert_eq!(mvee.remote_fault(), None, "replication channel faulted");
    assert!(!mvee.monitor().has_diverged());
    mvee.monitor_stats().total_syscalls
}

/// Measures *issue latency* on a pure compare-only stretch: the time from a
/// call's start to control returning to the variant thread, for **variant 0
/// only** — the leader on remote cells, the in-proc master on the sync
/// baseline.  No call in the stretch is replicated, so the leader only ever
/// buffers and streams — its issue latency is the distributed deployment's
/// near-native headline — while the sync master pays a blocking rendezvous
/// per comparison batch.  The slave variants run the same stream untimed to
/// keep the rendezvous honest; deferred tails flush after the timer stops.
/// Returns (variant-0 calls, summed variant-0 issue ns).
fn run_issue_timed(variants: usize, transport: Transport) -> (u64, u128) {
    let mvee = Arc::new(build(variants, transport));
    let req = SyscallRequest::new(Sysno::Brk).with_int(0);
    let mut handles = Vec::with_capacity(variants * THREADS);
    for variant in 0..variants {
        for thread in 0..THREADS {
            let mvee = Arc::clone(&mvee);
            let req = req.clone();
            handles.push(std::thread::spawn(move || {
                if transport.is_remote() && variant == 0 {
                    let port = mvee.leader_port(thread);
                    let started = Instant::now();
                    for _ in 0..ISSUE_OPS {
                        port.syscall(&req).expect("bench call diverged");
                    }
                    started.elapsed().as_nanos()
                    // Dropping the port flushes the deferred tail.
                } else {
                    let port = mvee.thread_port(variant, thread);
                    let started = Instant::now();
                    for _ in 0..ISSUE_OPS {
                        port.syscall(&req).expect("bench call diverged");
                    }
                    let issued = started.elapsed().as_nanos();
                    port.flush().expect("tail flush diverged");
                    if variant == 0 {
                        issued
                    } else {
                        0
                    }
                }
            }));
        }
    }
    let issue_ns: u128 = handles
        .into_iter()
        .map(|h| h.join().expect("bench thread panicked"))
        .sum();
    mvee.remote_barrier().expect("replication barrier failed");
    assert!(!mvee.monitor().has_diverged());
    (ISSUE_OPS * THREADS as u64, issue_ns)
}

/// Stages a divergence and measures the *detection lag*: the leader flushes
/// a mismatching batch (the slave disagrees on one `mprotect` length) and
/// keeps running — streaming `LAG_SYNC_OPS` sync ops — while the slave
/// dawdles.  The follower can only resolve the batch when the slave's half
/// arrives, so every leader sync op it ingests in between is work the
/// leader retired *after* executing the call that would eventually be ruled
/// divergent.  Returns `MonitorStats::detection_lag_sync_ops`.
fn measure_detection_lag(channel: RemoteChannel) -> u64 {
    let mvee = Arc::new(build(2, Transport::Remote { channel }));
    let leader = {
        let mvee = Arc::clone(&mvee);
        std::thread::spawn(move || {
            let port = mvee.leader_port(0);
            let region = map_region(|req| port.syscall(req));
            for _ in 1..BATCH {
                let _ = port.syscall(&mprotect_request(region, 4096));
            }
            // Give the follower pump time to deposit the batch before the
            // sync ops land, then pace them so they are ingested — and
            // counted as lag — while the arrival is still pending.
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
                // The flush that carries the mismatch returns the verdict.
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

/// One calibrated measurement cell: repeat the run until ~`budget` has
/// elapsed (at least 3 runs).  Returns (wall ns per monitored call, issue
/// ns per monitored call).
fn measure_cell(variants: usize, transport: Transport, budget: Duration) -> (f64, f64) {
    // Warm-up run, unmeasured.
    run(variants, transport);
    let started = Instant::now();
    let mut calls = 0u64;
    let mut runs = 0u32;
    while runs < 3 || started.elapsed() < budget {
        calls += run(variants, transport);
        runs += 1;
    }
    let wall = started.elapsed().as_nanos() as f64 / calls as f64;
    let mut issue_calls = 0u64;
    let mut issue_ns = 0u128;
    for _ in 0..runs.min(8) {
        let (c, ns) = run_issue_timed(variants, transport);
        issue_calls += c;
        issue_ns += ns;
    }
    (wall, issue_ns as f64 / issue_calls as f64)
}

fn bench_remote(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/remote");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for variants in variant_counts() {
        for transport in cells() {
            let id = BenchmarkId::new(format!("{variants}v/{THREADS}t"), transport.label());
            group.bench_function(id, |b| {
                b.iter(|| run(variants, transport));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_remote);

fn main() {
    // The calibrated pass runs first, so its rows land even if the
    // criterion sweep is cut short.
    let budget = if std::env::var("MVEE_BENCH_SCALE").is_ok() {
        Duration::from_millis(200)
    } else {
        Duration::from_millis(800)
    };
    for variants in variant_counts() {
        for transport in cells() {
            let (wall, issue) = measure_cell(variants, transport, budget);
            println!(
                "ablation/remote {variants}v {:<14} {wall:>9.1} ns/call  {issue:>8.1} issue ns/call",
                transport.label()
            );
        }
    }
    for channel in cells().iter().filter_map(|t| t.remote_channel()) {
        println!(
            "ablation/remote detection lag over {}: {} of {LAG_SYNC_OPS} staged sync ops",
            channel.name(),
            measure_detection_lag(channel)
        );
    }
    benches();
}
