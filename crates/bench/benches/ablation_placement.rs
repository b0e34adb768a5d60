//! Ablation: the shard-placement policies under a many-variant load.
//!
//! Eight variants × eight logical threads drive a brk-dense
//! (compared-and-ordered address-space) stream through the full monitor
//! gateway, every (variant, thread) through its own `ThreadPort` — a
//! per-thread handle that resolved its shard binding at acquisition time
//! and owns its sequence counter and batch queue locally.  The sweep
//! crosses the three [`Placement`] policies with batch 1 (per-call
//! rendezvous) and batch 8 (deferred comparisons); `BASELINES.md` records
//! the numbers.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mvee_core::config::Placement;
use mvee_core::mvee::Mvee;
use mvee_core::policy::MonitoringPolicy;
use mvee_kernel::syscall::{SyscallRequest, Sysno};
use mvee_sync_agent::agents::AgentKind;

const VARIANTS: usize = 8;
const THREADS: usize = 8;
const OPS: u64 = 64;

fn build_mvee(batch: usize, placement: Placement) -> Mvee {
    Mvee::builder()
        .variants(VARIANTS)
        .threads(THREADS)
        .policy(MonitoringPolicy::StrictLockstep)
        // The stream is syscall-only; the null agent keeps the sync-op side
        // out of the measurement.
        .agent(AgentKind::Null)
        .lockstep_timeout(Duration::from_secs(30))
        .shards(THREADS)
        .batch(batch)
        .placement(placement)
        .manual_clock(true)
        .build()
}

/// Every (variant, thread) issues `OPS` compared-and-ordered brk calls
/// through its own `ThreadPort`, then drains its batch tail.
fn hammer_ports(batch: usize, placement: &Placement) {
    let mvee = Arc::new(build_mvee(batch, placement.clone()));
    let mut handles = Vec::with_capacity(VARIANTS * THREADS);
    for variant in 0..VARIANTS {
        let gateway = mvee.gateway(variant);
        for thread in 0..THREADS {
            let gateway = gateway.clone();
            handles.push(std::thread::spawn(move || {
                let port = gateway.thread(thread);
                let req = SyscallRequest::new(Sysno::Brk).with_int(0);
                for _ in 0..OPS {
                    port.syscall(&req).expect("bench port call diverged");
                }
                port.flush().expect("tail flush diverged");
            }));
        }
    }
    for h in handles {
        h.join().expect("bench thread panicked");
    }
    assert!(!mvee.monitor().has_diverged());
}

fn bench_placement(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/placement-8-variants");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for batch in [1usize, 8] {
        for placement in [
            Placement::RoundRobin,
            Placement::Grouped,
            Placement::pinned((0..THREADS).collect::<Vec<_>>()),
        ] {
            group.bench_function(
                BenchmarkId::new(format!("port-{}", placement.name()), batch),
                |b| b.iter(|| hammer_ports(batch, &placement)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_placement);
criterion_main!(benches);
