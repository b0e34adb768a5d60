//! Ablation: the agents, fast path and slow path.
//!
//! * **record-then-replay** — the raw cost of recording and replaying sync
//!   ops under each agent, isolated from any workload: a microbenchmark
//!   over the agents' fast paths (record one op in the master, replay one
//!   op in a slave).
//! * **lockheavy** — the `lockheavy` workload, a run that spends
//!   essentially all of its time inside the agents' record/replay *waits*,
//!   swept over agent kind × worker-thread count × `MVEE_BENCH_VARIANTS`
//!   (default `2,8`; `MVEE_BENCH_SCALE` scales the workload).  With
//!   threads × variants > cores the waiting slaves must not burn the time
//!   slices the recorded-order thread needs; `BASELINES.md` holds the
//!   numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mvee_bench::workload_scale;
use mvee_sync_agent::agents::{build_agent, AgentKind};
use mvee_sync_agent::context::{AgentConfig, SyncContext, VariantRole};
use mvee_variant::runner::{run_mvee, RunConfig};
use mvee_workloads::catalog::BenchmarkSpec;
use std::time::Duration;

const OPS: u64 = 2_000;

/// Worker-thread counts of the lockheavy sweep: 2 (mild contention) and 8
/// (threads > cores on every box this runs on).
const THREAD_COUNTS: [usize; 2] = [2, 8];

fn bench_record_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/record-then-replay");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(800));
    group.sample_size(20);
    group.throughput(Throughput::Elements(OPS));
    for kind in [
        AgentKind::Null,
        AgentKind::TotalOrder,
        AgentKind::PartialOrder,
        AgentKind::WallOfClocks,
    ] {
        group.bench_function(BenchmarkId::from_parameter(kind.name()), |b| {
            b.iter(|| {
                // A fresh agent per iteration so the buffers start empty.
                let config = AgentConfig::default()
                    .with_variants(2)
                    .with_threads(1)
                    .with_buffer_capacity(4096);
                let agent = build_agent(kind, config);
                let master = SyncContext::new(VariantRole::Master, 0);
                let slave = SyncContext::new(VariantRole::Slave { index: 0 }, 0);
                for i in 0..OPS {
                    let addr = 0x1000 + (i % 64) * 64;
                    agent.before_sync_op(&master, addr);
                    agent.after_sync_op(&master, addr);
                }
                for i in 0..OPS {
                    let addr = 0x9000 + (i % 64) * 64;
                    agent.before_sync_op(&slave, addr);
                    agent.after_sync_op(&slave, addr);
                }
                agent.stats().ops_replayed
            });
        });
    }
    group.finish();
}

fn bench_lockheavy(c: &mut Criterion) {
    let spec = BenchmarkSpec::by_name("lockheavy").expect("lockheavy in catalog");
    let scale = workload_scale();
    // The default table sweep (2,3,4) is shaped for the paper tables; this
    // ablation defaults to the scaling pair used in BASELINES.md.
    let variant_counts = if std::env::var("MVEE_BENCH_VARIANTS").is_ok() {
        mvee_bench::variant_counts()
    } else {
        vec![2, 8]
    };
    let mut group = c.benchmark_group("ablation/agent-lockheavy");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(900));
    group.sample_size(10);
    for variants in variant_counts {
        for threads in THREAD_COUNTS {
            let program = spec.program(threads, scale);
            for kind in AgentKind::replication_agents() {
                let id = BenchmarkId::new(format!("{variants}v/{threads}t"), kind.name());
                group.bench_function(id, |b| {
                    b.iter(|| {
                        let report = run_mvee(&program, &RunConfig::new(variants, kind));
                        assert!(
                            report.completed_cleanly(),
                            "{kind:?} diverged: {:?}",
                            report.divergence
                        );
                        report.agent_stats.ops_replayed
                    });
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_record_replay, bench_lockheavy);
criterion_main!(benches);
