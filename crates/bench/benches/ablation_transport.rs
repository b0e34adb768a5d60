//! Ablation: the variant↔monitor transport — synchronous ports vs the
//! asynchronous submission/completion rings, with the ring cells split by
//! the size of the polling pool that drains them: 1, 2 or `THREADS` shards
//! (`Pool(n)`).
//!
//! Every (variant, thread) pair drives the same deferrable-heavy call
//! stream (brk/mmap/mprotect with a periodic replicated `gettimeofday`)
//! through either a synchronous [`ThreadPort`] — each call blocks inline in
//! the monitor pipeline — or an [`AsyncThreadPort`] — compare-only calls
//! are deposited into the port's submission ring and their verdicts reaped
//! in blocks while a poller runs the same pipeline in the background.  The replicated call pins both transports to the same
//! synchronization points, so the delta isolates what the rings buy on the
//! stretches in between.
//!
//! Besides the criterion groups, the harness measures one calibrated pass
//! per (variants × transport) cell and prints one row per cell (the last
//! committed record of this bench is archived in `BASELINES.md`; the
//! end-to-end numbers now come from `benchmark/`).
//! `MVEE_BENCH_VARIANTS` (default `2,8`) tunes the sweep;
//! `MVEE_BENCH_TRANSPORTS` (comma-separated cell labels — the
//! `Transport::label()` values plus `sync+journal`, e.g. `sync,async-pool1`)
//! restricts which transport cells run.  The `sync+journal` cell reruns the
//! sync transport with divergence-journal recording on, so its delta
//! against `sync` is the journal's hot-path overhead.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, BenchmarkId, Criterion};
use mvee_bench::{map_region, stream_request};
use mvee_core::async_port::SubmitOutcome;
use mvee_core::config::{Pollers, Transport};
use mvee_core::journal::{JournalMode, JournalRecorder};
use mvee_core::mvee::Mvee;
use mvee_kernel::syscall::{SyscallRequest, Sysno};
use mvee_sync_agent::agents::AgentKind;

const THREADS: usize = 4;
const OPS: u64 = 256;
const BATCH: usize = 8;
const RING_DEPTH: usize = 64;
/// Reap pipelined verdicts in blocks of this many tickets.
const REAP_BLOCK: usize = 32;

fn variant_counts() -> Vec<usize> {
    if std::env::var("MVEE_BENCH_VARIANTS").is_err() {
        return vec![2, 8];
    }
    mvee_bench::variant_counts()
}

/// One measurement cell: a transport, optionally with divergence-journal
/// recording on (each run gets a fresh in-memory recorder).
#[derive(Clone, Copy)]
struct Cell {
    transport: Transport,
    journal: bool,
}

impl Cell {
    fn plain(transport: Transport) -> Self {
        Cell {
            transport,
            journal: false,
        }
    }

    fn label(&self) -> String {
        if self.journal {
            format!("{}+journal", self.transport.label())
        } else {
            self.transport.label()
        }
    }
}

fn build(variants: usize, cell: Cell) -> Mvee {
    let journal = if cell.journal {
        JournalMode::Record(Arc::new(JournalRecorder::new()))
    } else {
        JournalMode::Off
    };
    Mvee::builder()
        .variants(variants)
        .threads(THREADS)
        .agent(AgentKind::Null)
        .batch(BATCH)
        .transport(cell.transport)
        .journal(journal)
        .shards(THREADS)
        .lockstep_timeout(Duration::from_secs(30))
        .manual_clock(true)
        .build()
}

/// One full run: `variants × THREADS` OS threads, `OPS` calls each, through
/// the chosen transport.  Returns the total number of monitored calls.
fn run(variants: usize, cell: Cell) -> u64 {
    let mvee = Arc::new(build(variants, cell));
    let mut handles = Vec::with_capacity(variants * THREADS);
    for variant in 0..variants {
        for thread in 0..THREADS {
            let mvee = Arc::clone(&mvee);
            handles.push(std::thread::spawn(move || match cell.transport {
                Transport::Sync => {
                    let port = mvee.thread_port(variant, thread);
                    let region = map_region(|req| port.syscall(req));
                    for i in 0..OPS {
                        port.syscall(&stream_request(i, region))
                            .expect("bench call diverged");
                    }
                }
                Transport::AsyncRings { .. } => {
                    let port = mvee.async_thread_port(variant, thread);
                    let region = map_region(|req| port.syscall(req));
                    let mut tickets = Vec::with_capacity(REAP_BLOCK);
                    for i in 0..OPS {
                        match port.submit(&stream_request(i, region)) {
                            SubmitOutcome::Completed(result) => {
                                result.expect("bench call diverged");
                            }
                            SubmitOutcome::Ticket(ticket) => tickets.push(ticket),
                        }
                        if tickets.len() >= REAP_BLOCK {
                            for ticket in tickets.drain(..) {
                                port.reap(ticket).expect("bench call diverged");
                            }
                        }
                    }
                    for ticket in tickets {
                        port.reap(ticket).expect("bench call diverged");
                    }
                }
                Transport::Remote { .. } => {
                    unreachable!("the remote transport has its own bench: ablation_remote")
                }
            }));
        }
    }
    for h in handles {
        h.join().expect("bench thread panicked");
    }
    assert!(!mvee.monitor().has_diverged());
    mvee.monitor_stats().total_syscalls
}

/// Calls in the issue-latency stretch: a pure compare-only run that fits in
/// the ring, so no submission ever waits for space.
const ISSUE_OPS: u64 = 48;

/// Measures *issue latency* on a pure compare-only stretch: the time from a
/// call's start to control returning to the variant thread.  The stretch
/// fits in the ring (`ISSUE_OPS < RING_DEPTH`), so on the async transport
/// every call is a ring deposit and the thread runs straight through, while
/// the sync transport pays its rendezvous barrier per comparison batch —
/// the decoupling the rings buy, which a wall-clock number over a
/// do-nothing-between-calls workload cannot show.  The pipelined verdicts
/// are reaped after the timer stops.  Returns (calls, summed issue ns).
fn run_issue_timed(variants: usize, cell: Cell) -> (u64, u128) {
    let mvee = Arc::new(build(variants, cell));
    let req = SyscallRequest::new(Sysno::Brk).with_int(0);
    let mut handles = Vec::with_capacity(variants * THREADS);
    for variant in 0..variants {
        for thread in 0..THREADS {
            let mvee = Arc::clone(&mvee);
            let req = req.clone();
            handles.push(std::thread::spawn(move || match cell.transport {
                Transport::Sync => {
                    let port = mvee.thread_port(variant, thread);
                    let started = Instant::now();
                    for _ in 0..ISSUE_OPS {
                        port.syscall(&req).expect("bench call diverged");
                    }
                    let issued = started.elapsed().as_nanos();
                    port.flush().expect("tail flush diverged");
                    issued
                }
                Transport::AsyncRings { .. } => {
                    let port = mvee.async_thread_port(variant, thread);
                    let mut tickets = Vec::with_capacity(ISSUE_OPS as usize);
                    let started = Instant::now();
                    for _ in 0..ISSUE_OPS {
                        match port.submit(&req) {
                            SubmitOutcome::Completed(result) => {
                                result.expect("bench call diverged");
                            }
                            SubmitOutcome::Ticket(ticket) => tickets.push(ticket),
                        }
                    }
                    let issued = started.elapsed().as_nanos();
                    for ticket in tickets {
                        port.reap(ticket).expect("bench call diverged");
                    }
                    issued
                }
                Transport::Remote { .. } => {
                    unreachable!("the remote transport has its own bench: ablation_remote")
                }
            }));
        }
    }
    let issue_ns: u128 = handles
        .into_iter()
        .map(|h| h.join().expect("bench thread panicked"))
        .sum();
    assert!(!mvee.monitor().has_diverged());
    (mvee.monitor_stats().total_syscalls, issue_ns)
}

/// The measurement cells: sync, sync with journal recording on (the
/// journal-overhead cell), and polling pools of 1, 2 and `THREADS` shards.  `MVEE_BENCH_TRANSPORTS` (comma-separated
/// labels) restricts the set — CI uses it for a `sync,async-pool1` smoke.
fn cells() -> Vec<Cell> {
    let all = vec![
        Cell::plain(Transport::Sync),
        Cell {
            transport: Transport::Sync,
            journal: true,
        },
        Cell::plain(Transport::AsyncRings {
            depth: RING_DEPTH,
            pollers: Pollers::Pool(1),
        }),
        Cell::plain(Transport::AsyncRings {
            depth: RING_DEPTH,
            pollers: Pollers::Pool(2),
        }),
        Cell::plain(Transport::AsyncRings {
            depth: RING_DEPTH,
            pollers: Pollers::Pool(THREADS),
        }),
    ];
    let Ok(filter) = std::env::var("MVEE_BENCH_TRANSPORTS") else {
        return all;
    };
    let wanted: Vec<&str> = filter
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    let picked: Vec<Cell> = all
        .into_iter()
        .filter(|c| wanted.iter().any(|w| *w == c.label()))
        .collect();
    assert!(
        !picked.is_empty(),
        "MVEE_BENCH_TRANSPORTS={filter:?} matched no cell label"
    );
    picked
}

/// One calibrated measurement cell: repeat the run until ~`budget` has
/// elapsed (at least 3 runs).  Returns (wall ns per monitored call, issue
/// ns per monitored call).
fn measure_cell(variants: usize, cell: Cell, budget: Duration) -> (f64, f64) {
    // Warm-up run, unmeasured.
    run(variants, cell);
    let started = Instant::now();
    let mut calls = 0u64;
    let mut runs = 0u32;
    while runs < 3 || started.elapsed() < budget {
        calls += run(variants, cell);
        runs += 1;
    }
    let wall = started.elapsed().as_nanos() as f64 / calls as f64;
    let mut issue_calls = 0u64;
    let mut issue_ns = 0u128;
    for _ in 0..runs.min(8) {
        let (c, ns) = run_issue_timed(variants, cell);
        issue_calls += c;
        issue_ns += ns;
    }
    (wall, issue_ns as f64 / issue_calls as f64)
}

fn bench_transports(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/transport");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for variants in variant_counts() {
        for cell in cells() {
            let id = BenchmarkId::new(format!("{variants}v/{THREADS}t"), cell.label());
            group.bench_function(id, |b| {
                b.iter(|| run(variants, cell));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_transports);

fn main() {
    // The calibrated pass runs first, so its rows land even if the
    // criterion sweep is cut short.
    let budget = if std::env::var("MVEE_BENCH_SCALE").is_ok() {
        Duration::from_millis(200)
    } else {
        Duration::from_millis(800)
    };
    for variants in variant_counts() {
        for cell in cells() {
            let (wall, issue) = measure_cell(variants, cell, budget);
            println!(
                "ablation/transport {variants}v {:<16} {wall:>9.1} ns/call  {issue:>8.1} issue ns/call",
                cell.label()
            );
        }
    }
    benches();
}
