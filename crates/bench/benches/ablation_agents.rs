//! Ablation: the agents' record-then-replay fast path — the raw cost of
//! recording and replaying sync ops under each agent, isolated from any
//! workload (record one op in the master, replay one op in a slave).  The
//! agents under a contended workload are the `paper` binary's
//! `many-variants` rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mvee_sync_agent::agents::{build_agent, AgentKind};
use mvee_sync_agent::context::{AgentConfig, SyncContext, VariantRole};
use std::time::Duration;

const OPS: u64 = 2_000;

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

criterion_group!(benches, bench_record_replay);
criterion_main!(benches);
