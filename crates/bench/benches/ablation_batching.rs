//! Ablation: batched rendezvous comparisons under a many-variant load.
//!
//! Two groups, both at 8 variants:
//!
//! * **table** — eight logical threads per variant hammer the rendezvous
//!   table directly.  `batch = 1` is the per-call `arrive` hot path (one
//!   shard-lock acquisition and one full 8-variant barrier per call);
//!   larger sizes deposit the same comparisons through `arrive_batch`,
//!   amortizing the lock/condvar cost across the block.
//! * **monitor** — the full gateway (one `ThreadPort` per thread) drives a
//!   brk-dense (address-space-call) stream, the syscall class whose
//!   comparisons the batched monitor defers.  `batch = 1` pays a synchronous 8-variant
//!   rendezvous barrier on every call; `batch > 1` replaces it with one
//!   batched rendezvous per block while the ordering machinery runs
//!   unchanged.
//!
//! The acceptance bar for the batching tentpole is batch > 1 ≥ batch = 1
//! throughput at 8 variants; `BASELINES.md` records the numbers.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mvee_core::lockstep::{ArrivalResult, BatchArrival, LockstepTable};
use mvee_core::mvee::Mvee;
use mvee_core::policy::MonitoringPolicy;
use mvee_kernel::syscall::{ComparisonKey, SyscallRequest, Sysno};
use mvee_sync_agent::agents::AgentKind;

const VARIANTS: usize = 8;
const THREADS: usize = 8;
const OPS: u64 = 64;
const BATCH_SIZES: [usize; 4] = [1, 2, 8, 64];

fn rendezvous_key(seq: u64) -> ComparisonKey {
    SyscallRequest::new(Sysno::Brk)
        .with_int(seq as i64)
        .comparison_key()
}

/// Runs `VARIANTS × THREADS` OS threads through `OPS` rendezvous each,
/// depositing comparisons in blocks of `batch` (`1` = the per-call path).
fn hammer_table(batch: usize) {
    let table = Arc::new(LockstepTable::new(VARIANTS));
    let mut handles = Vec::with_capacity(VARIANTS * THREADS);
    for variant in 0..VARIANTS {
        for thread in 0..THREADS {
            let table = Arc::clone(&table);
            handles.push(std::thread::spawn(move || {
                let mut seq = 0u64;
                while seq < OPS {
                    if batch == 1 {
                        let r = table.arrive(
                            (thread, seq),
                            variant,
                            rendezvous_key(seq),
                            Duration::from_secs(30),
                        );
                        assert_eq!(r, ArrivalResult::Consistent, "bench rendezvous diverged");
                        table.consume((thread, seq), variant);
                        seq += 1;
                    } else {
                        let block: Vec<BatchArrival> = (seq..(seq + batch as u64).min(OPS))
                            .map(|s| BatchArrival {
                                key: (thread, s),
                                cmp: rendezvous_key(s),
                            })
                            .collect();
                        for r in table.arrive_batch(variant, &block, Duration::from_secs(30)) {
                            assert_eq!(r, ArrivalResult::Consistent, "bench rendezvous diverged");
                        }
                        for arrival in &block {
                            table.consume(arrival.key, variant);
                        }
                        seq += block.len() as u64;
                    }
                }
            }));
        }
    }
    for h in handles {
        h.join().expect("bench thread panicked");
    }
    assert_eq!(table.live_slots(), 0);
}

/// Runs the full monitor gateway: every (variant, thread) issues `OPS`
/// compared-and-ordered brk calls with the comparison batch set to `batch`.
fn hammer_monitor(batch: usize) {
    let mvee = Mvee::builder()
        .variants(VARIANTS)
        .threads(THREADS)
        .policy(MonitoringPolicy::StrictLockstep)
        // The stream is syscall-only; the null agent keeps the sync-op side
        // out of the measurement.
        .agent(AgentKind::Null)
        .lockstep_timeout(Duration::from_secs(30))
        .shards(THREADS)
        .batch(batch)
        .manual_clock(true)
        .build();
    let mut handles = Vec::with_capacity(VARIANTS * THREADS);
    for variant in 0..VARIANTS {
        for thread in 0..THREADS {
            let port = mvee.thread_port(variant, thread);
            handles.push(std::thread::spawn(move || {
                let req = SyscallRequest::new(Sysno::Brk).with_int(0);
                for _ in 0..OPS {
                    port.syscall(&req).expect("bench monitor call diverged");
                }
                // Drain the tail so every comparison is accounted for.
                port.flush().expect("tail flush diverged");
            }));
        }
    }
    for h in handles {
        h.join().expect("bench thread panicked");
    }
    assert!(!mvee.monitor().has_diverged());
    assert_eq!(mvee.monitor().live_slots(), 0);
}

fn bench_batch_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/batching-table-8-variants");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for batch in BATCH_SIZES {
        group.bench_function(BenchmarkId::from_parameter(batch), |b| {
            b.iter(|| hammer_table(batch));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("ablation/batching-monitor-8-variants");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for batch in BATCH_SIZES {
        group.bench_function(BenchmarkId::from_parameter(batch), |b| {
            b.iter(|| hammer_monitor(batch));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batch_sizes);
criterion_main!(benches);
