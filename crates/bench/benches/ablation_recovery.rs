//! Ablation: what does fault tolerance cost when nothing goes wrong, and
//! how fast is recovery when something does?
//!
//! Two questions, two sweeps, one printed row per cell (the last committed
//! record of this bench is archived in `BASELINES.md`; the end-to-end
//! numbers now come from `benchmark/`):
//!
//! * **Snapshot overhead** — the same deferrable-heavy call stream (one
//!   sync op per call, so every call crosses the snapshot choke point)
//!   with `snapshot_every` ∈ {off, 256, 4096}.  The off cell is the
//!   pre-recovery baseline; the deltas are the price of always being able
//!   to respawn.
//! * **Time-to-reintegrate** — a quarantined variant's respawn wall time
//!   as the journal suffix past its last agreed snapshot grows: the run
//!   quarantines a staged divergence, the survivors keep serving for
//!   `suffix` more calls, and the probe times [`Mvee::respawn_variant`]
//!   (salvage + full-history replay validation + re-admission) against the
//!   suffix length it reports.
//!
//! `MVEE_BENCH_VARIANTS` (default `2,8`) tunes the overhead sweep and
//! `MVEE_BENCH_SCALE` shrinks the calibration budget for CI smokes.  On a
//! small box all variants share the same cores, so wall numbers carry
//! scheduling noise.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, BenchmarkId, Criterion};
use mvee_bench::{map_region, mprotect_request, stream_request};
use mvee_core::config::RecoveryPolicy;
use mvee_core::journal::{JournalMode, JournalRecorder};
use mvee_core::mvee::Mvee;
use mvee_sync_agent::agents::AgentKind;

const THREADS: usize = 2;
const OPS: u64 = 256;
const BATCH: usize = 8;
/// The snapshot intervals under measurement; 0 is the off baseline.
const SNAPSHOT_CELLS: [u64; 3] = [0, 256, 4096];
/// Survivor calls issued after the quarantine, before the respawn probe:
/// the journal suffix the respawn must replay through to catch up.
const SUFFIX_CELLS: [u64; 3] = [64, 512, 2048];
/// Agreed calls before the staged divergence in the respawn probe.
const RESPAWN_PREFIX: u64 = 64;
/// Probe repetitions per suffix cell (fresh MVEE each time).
const RESPAWN_REPS: u32 = 3;

fn variant_counts() -> Vec<usize> {
    if std::env::var("MVEE_BENCH_VARIANTS").is_err() {
        return vec![2, 8];
    }
    mvee_bench::variant_counts()
}

fn build(variants: usize, threads: usize, snapshot_every: u64) -> Mvee {
    let mut builder = Mvee::builder()
        .variants(variants)
        .threads(threads)
        .agent(AgentKind::Null)
        .batch(BATCH)
        .shards(threads)
        .recovery(RecoveryPolicy::quarantine())
        .lockstep_timeout(Duration::from_secs(30))
        .manual_clock(true);
    if snapshot_every > 0 {
        builder = builder.snapshot_every(snapshot_every);
    }
    builder.build()
}

/// One full overhead run: `variants × THREADS` OS threads, `OPS` calls
/// each, every call preceded by a sync op so the snapshot choke point is
/// exercised at full pressure.  Returns the monitored-call count.
fn run(variants: usize, snapshot_every: u64) -> u64 {
    let mvee = Arc::new(build(variants, THREADS, snapshot_every));
    let mut handles = Vec::with_capacity(variants * THREADS);
    for variant in 0..variants {
        for thread in 0..THREADS {
            let mvee = Arc::clone(&mvee);
            handles.push(std::thread::spawn(move || {
                let port = mvee.thread_port(variant, thread);
                let region = map_region(|req| port.syscall(req));
                for i in 0..OPS {
                    port.sync_op(0x1000, || ());
                    port.syscall(&stream_request(i, region))
                        .expect("bench call diverged");
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

/// One calibrated overhead cell: repeat the run until ~`budget` has
/// elapsed (at least 3 runs).  Returns wall ns per monitored call.
fn measure_overhead(variants: usize, snapshot_every: u64, budget: Duration) -> f64 {
    run(variants, snapshot_every); // warm-up, unmeasured
    let started = Instant::now();
    let mut calls = 0u64;
    let mut runs = 0u32;
    while runs < 3 || started.elapsed() < budget {
        calls += run(variants, snapshot_every);
        runs += 1;
    }
    started.elapsed().as_nanos() as f64 / calls as f64
}

/// One respawn probe: an agreed prefix installs snapshots, a staged
/// mismatch quarantines variant 2, the survivors serve `suffix` more calls
/// and the probe times the respawn.  Returns (respawn ns, journal records
/// the respawn replayed past the snapshot).
fn measure_respawn(suffix: u64) -> (u128, u64) {
    let recorder = Arc::new(JournalRecorder::new());
    let mvee = Arc::new(
        Mvee::builder()
            .variants(3)
            .threads(1)
            .agent(AgentKind::Null)
            .batch(1)
            .journal(JournalMode::Record(Arc::clone(&recorder)))
            .recovery(RecoveryPolicy::quarantine())
            .snapshot_every(32)
            .lockstep_timeout(Duration::from_secs(30))
            .manual_clock(true)
            .build(),
    );
    let phase = |staged_victim: bool, calls: u64, skip_victim: bool| {
        let mut handles = Vec::new();
        for variant in 0..3usize {
            if skip_victim && variant == 2 {
                continue;
            }
            let mvee = Arc::clone(&mvee);
            handles.push(std::thread::spawn(move || {
                let port = mvee.thread_port(variant, 0);
                let region = map_region(|req| port.syscall(req));
                for i in 0..calls {
                    port.sync_op(0x1000, || ());
                    let len = if staged_victim && variant == 2 && i == calls - 1 {
                        666
                    } else {
                        4096
                    };
                    let r = port.syscall(&mprotect_request(region, len));
                    if r.is_err() {
                        break; // the quarantined victim stops issuing
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("probe thread panicked");
        }
    };
    // Agreed prefix (snapshots land), staged kill on the prefix's last
    // call, then the survivors alone grow the journal suffix.
    phase(true, RESPAWN_PREFIX, false);
    assert_eq!(mvee.quarantined_variants(), vec![2], "the kill must land");
    phase(false, suffix, true);
    let started = Instant::now();
    let report = mvee.respawn_variant(2).expect("respawn must succeed");
    let elapsed = started.elapsed().as_nanos();
    assert!(report.replayed_records > 0);
    (elapsed, report.replayed_records)
}

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/recovery");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for variants in variant_counts() {
        for every in SNAPSHOT_CELLS {
            let label = if every == 0 {
                "snapshots-off".to_string()
            } else {
                format!("every-{every}")
            };
            let id = BenchmarkId::new(format!("{variants}v/{THREADS}t"), label);
            group.bench_function(id, |b| {
                b.iter(|| run(variants, every));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_recovery);

fn main() {
    // The calibrated pass runs first, so its rows land even if the
    // criterion sweep is cut short.
    let budget = if std::env::var("MVEE_BENCH_SCALE").is_ok() {
        Duration::from_millis(200)
    } else {
        Duration::from_millis(800)
    };
    for variants in variant_counts() {
        for every in SNAPSHOT_CELLS {
            let ns = measure_overhead(variants, every, budget);
            println!("ablation/recovery {variants}v snapshot_every {every:<5} {ns:>9.1} ns/call");
        }
    }
    for suffix in SUFFIX_CELLS {
        let mut total_ns = 0u128;
        let mut replayed = 0u64;
        for _ in 0..RESPAWN_REPS {
            let (ns, records) = measure_respawn(suffix);
            total_ns += ns;
            replayed = records;
        }
        println!(
            "ablation/recovery respawn after {suffix} suffix calls: {} ns, {replayed} records replayed",
            total_ns / RESPAWN_REPS as u128
        );
    }
    benches();
}
