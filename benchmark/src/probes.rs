//! Layer probes: single-purpose timed loops over each module's public
//! functions, fed the same generated requests the workloads use.  They run
//! once per traced run and give the per-layer numbers that no span around a
//! port call can separate.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mvee_core::frame;
use mvee_core::journal::{self, Journal, JournalHeader, JournalMode, JournalRecorder};
use mvee_core::lockstep::{ArrivalResult, BatchArrival, LockstepTable, TryArrive, TryBatch};
use mvee_core::mvee::Mvee;
use mvee_core::ordering::SyscallOrderingClock;
use mvee_core::policy::MonitoringPolicy;
use mvee_core::remote::Duplex;
use mvee_core::snapshot::SnapshotRecord;
use mvee_kernel::syscall::{ComparisonKey, SyscallArg, SyscallRequest, Sysno};
use mvee_sync_agent::agents::AgentKind;
use mvee_sync_agent::context::AgentConfig;
use mvee_sync_agent::guards::{EventCount, GuardTable};
use mvee_sync_agent::ring::{PushOutcome, RecordRing, SyncRecord};
use mvee_sync_agent::spsc::DescRing;

use crate::agents;
use crate::gen::{self, Class, Materializer, Native, Op};
use crate::measure::{median, Metrics};
use crate::stream::LOCKSTEP_TIMEOUT;

const TIMEOUT: Duration = Duration::from_secs(10);

/// Mean ns per iteration of `body` over `iterations` iterations.
fn per_iter(iterations: usize, mut body: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..iterations {
        body(i);
    }
    t0.elapsed().as_nanos() as f64 / iterations.max(1) as f64
}

fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale) as usize).max(16)
}

fn key_for(i: usize) -> ComparisonKey {
    gen::mprotect_request(0x7000_0000 + i as u64 * 4096, 4096, 3).comparison_key()
}

/// ns per call of each request class on a bare kernel.
fn kernel_probes(seed: u64, scale: f64, m: &mut Metrics) {
    let mut native = Native::new(seed);
    let mut run = |ops: &[Op]| native.timed(ops) * 1e9 / ops.len().max(1) as f64;
    let mix = gen::request_mix(seed, scaled(4000, scale));
    for (class, name) in [
        (Class::Mem, "kernel.execute_ns.addrspace"),
        (Class::File, "kernel.execute_ns.file"),
        (Class::Time, "kernel.execute_ns.time"),
    ] {
        // One class at a time, in stream order: file calls stay whole
        // open…close groups, address-space calls keep the pool level.
        let ops: Vec<Op> = mix
            .iter()
            .copied()
            .filter(|op| op.class() == class)
            .collect();
        run(&ops);
        m.set(name, "ns", run(&ops));
    }
    let (kernel, pid) = (&native.kernel, native.pid);
    m.set(
        "kernel.capture_process_ns",
        "ns",
        per_iter(scaled(2000, scale), |_| {
            std::hint::black_box(kernel.capture_process(pid));
        }),
    );

    // One connection from the far side and back: socket, connect, send,
    // accept, recv, send, recv, close, close — nine calls.
    let client = kernel.spawn_process();
    let exec = |pid, req: &SyscallRequest| kernel.execute(pid, 0, req);
    let fd = |o: mvee_kernel::syscall::SyscallOutcome| o.result.unwrap_or(-1) as i32;
    let listener = fd(exec(pid, &SyscallRequest::new(Sysno::Socket)));
    exec(
        pid,
        &SyscallRequest::new(Sysno::Bind)
            .with_fd(listener)
            .with_int(9000),
    );
    exec(pid, &SyscallRequest::new(Sysno::Listen).with_fd(listener));
    let body = [7u8; 64];
    let conns = scaled(4000, scale);
    let per_conn = per_iter(conns, |_| {
        let c = fd(exec(client, &SyscallRequest::new(Sysno::Socket)));
        exec(
            client,
            &SyscallRequest::new(Sysno::Connect)
                .with_fd(c)
                .with_int(9000)
                .with_arg(SyscallArg::Flags(0)),
        );
        exec(
            client,
            &SyscallRequest::new(Sysno::Send)
                .with_fd(c)
                .with_payload(&body),
        );
        let s = fd(exec(
            pid,
            &SyscallRequest::new(Sysno::Accept).with_fd(listener),
        ));
        exec(
            pid,
            &SyscallRequest::new(Sysno::Recv).with_fd(s).with_int(1024),
        );
        exec(
            pid,
            &SyscallRequest::new(Sysno::Send)
                .with_fd(s)
                .with_payload(&body),
        );
        exec(
            client,
            &SyscallRequest::new(Sysno::Recv).with_fd(c).with_int(1024),
        );
        exec(pid, &SyscallRequest::new(Sysno::Close).with_fd(s));
        exec(client, &SyscallRequest::new(Sysno::Close).with_fd(c));
    });
    m.set("kernel.execute_ns.net", "ns", per_conn / 9.0);
}

/// The rendezvous table through its non-blocking face.
fn lockstep_probes(scale: f64, m: &mut Metrics) {
    let n = scaled(50_000, scale);
    let keys: Vec<ComparisonKey> = (0..64).map(key_for).collect();

    // Both variants' deposits and both consumes from one thread: the table's
    // own cost with no waiting at all.
    let table = LockstepTable::with_shards(2, 1);
    let mut bad = 0u64;
    let deposit_resolve = per_iter(n, |i| {
        let key = (0, i as u64);
        let cmp = &keys[i % keys.len()];
        let token = match table.try_arrive(key, 0, cmp.clone(), TIMEOUT) {
            TryArrive::Pending(token) => Some(token),
            TryArrive::Ready(_) => None,
        };
        let second = table.try_arrive(key, 1, cmp.clone(), TIMEOUT);
        let first = token.map(|t| table.poll_arrival(t));
        if !matches!(second, TryArrive::Ready(ArrivalResult::Consistent))
            || !matches!(first, Some(Ok(ArrivalResult::Consistent)))
        {
            bad += 1;
        }
        table.consume(key, 0);
        table.consume(key, 1);
    });
    m.set(
        "lockstep.deposit_resolve_ns",
        "ns",
        if bad == 0 { deposit_resolve } else { 0.0 },
    );

    let table = LockstepTable::with_shards(2, 1);
    let batch8 = per_iter(n / 8, |i| {
        let batch: Vec<BatchArrival> = (0..8)
            .map(|j| BatchArrival {
                key: (0, (i * 8 + j) as u64),
                cmp: keys[j].clone(),
            })
            .collect();
        let token = match table.try_arrive_batch(0, &batch, TIMEOUT) {
            TryBatch::Pending(token) => Some(token),
            TryBatch::Ready(_) => None,
        };
        std::hint::black_box(table.try_arrive_batch(1, &batch, TIMEOUT));
        if let Some(token) = token {
            std::hint::black_box(table.poll_batch(token).is_ok());
        }
        for arrival in &batch {
            table.consume(arrival.key, 0);
            table.consume(arrival.key, 1);
        }
    });
    m.set("lockstep.batch8_resolve_ns", "ns", batch8);

    // Two threads meeting at every key, polling, never parking.  They
    // yield between polls: the process has one core, and a waiter that only
    // spun would hold it for a whole scheduler quantum per hand-off.
    let table = Arc::new(LockstepTable::with_shards(2, 1));
    let keys = Arc::new(keys);
    let arrive_all = move |variant: usize, table: &LockstepTable, keys: &[ComparisonKey]| {
        for i in 0..n {
            let key = (0, i as u64);
            if let TryArrive::Pending(mut token) =
                table.try_arrive(key, variant, keys[i % keys.len()].clone(), TIMEOUT)
            {
                loop {
                    match table.poll_arrival(token) {
                        Ok(_) => break,
                        Err(t) => token = t,
                    }
                    std::thread::yield_now();
                }
            }
            table.consume(key, variant);
        }
    };
    let t0 = Instant::now();
    let peer = {
        let (table, keys) = (Arc::clone(&table), Arc::clone(&keys));
        std::thread::spawn(move || arrive_all(1, &table, &keys))
    };
    arrive_all(0, &table, &keys);
    peer.join().expect("the hand-off peer panicked");
    m.set(
        "lockstep.handoff_spin_ns",
        "ns",
        t0.elapsed().as_nanos() as f64 / n as f64,
    );
}

/// The agents' waiting and ring primitives.
fn agent_probes(seed: u64, scale: f64, m: &mut Metrics) {
    // Park → wake: the waiter has gone all the way to parking before the
    // notifier flips the flag; the sample is flag flip → waiter running.
    let rounds = scaled(200, scale).min(400);
    let events = Arc::new(EventCount::new());
    let flag = Arc::new(AtomicBool::new(false));
    let flipped_at = Arc::new(AtomicU64::new(0));
    let epoch = Instant::now();
    let waiter_thread = {
        let (events, flag, flipped_at) = (
            Arc::clone(&events),
            Arc::clone(&flag),
            Arc::clone(&flipped_at),
        );
        std::thread::spawn(move || {
            let waiter = AgentConfig::default().waiter();
            let mut wakes = Vec::with_capacity(rounds);
            for _ in 0..rounds {
                waiter.wait_until_event(&events, || flag.load(Ordering::Acquire));
                let now = epoch.elapsed().as_nanos() as u64;
                wakes.push(now.saturating_sub(flipped_at.load(Ordering::Acquire)) as f64);
                flag.store(false, Ordering::Release);
            }
            wakes
        })
    };
    for _ in 0..rounds {
        // Long enough for the waiter's spin and yield phases to run out.
        std::thread::sleep(Duration::from_micros(300));
        while flag.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        flipped_at.store(epoch.elapsed().as_nanos() as u64, Ordering::Release);
        flag.store(true, Ordering::Release);
        events.notify();
    }
    let mut wakes = waiter_thread.join().expect("the parked waiter panicked");
    m.set("guards.park_wake_ns", "ns", median(&mut wakes));

    let n = scaled(200_000, scale);
    let guards = GuardTable::new(512, 64);
    m.set(
        "guards.acquire_release_ns",
        "ns",
        per_iter(n, |i| {
            let bucket = guards.bucket_for(0x1000 + (i as u64 % 64) * 8);
            std::hint::black_box(guards.acquire(bucket));
            guards.release(bucket);
        }),
    );
    let ring = RecordRing::new(4096, 1);
    m.set(
        "ring.push_get_ns",
        "ns",
        per_iter(n, |i| {
            if let PushOutcome::Stored(pos) = ring.try_push(SyncRecord::simple(0, i as u64)) {
                std::hint::black_box(ring.get(pos));
                ring.advance_reader(0);
            }
        }),
    );
    let spsc: DescRing<u64> = DescRing::new(64);
    m.set(
        "spsc.push_pop_ns",
        "ns",
        per_iter(n, |i| {
            let _ = spsc.try_push(i as u64);
            std::hint::black_box(spsc.try_pop());
        }),
    );
    for (kind, name) in [
        (AgentKind::WallOfClocks, "agent.sync_op_ns.woc"),
        (AgentKind::TotalOrder, "agent.sync_op_ns.to"),
        (AgentKind::PartialOrder, "agent.sync_op_ns.po"),
    ] {
        m.set(name, "ns", agents::sync_op_ns(kind, seed, scale));
    }
}

fn small_probes(scale: f64, m: &mut Metrics) {
    let n = scaled(500_000, scale);
    let clock = SyscallOrderingClock::new();
    m.set(
        "ordering.claim_advance_ns",
        "ns",
        per_iter(n, |_| {
            std::hint::black_box(clock.claim_timestamp());
            std::hint::black_box(clock.advance());
        }),
    );
    let calls = [
        Sysno::Open,
        Sysno::Read,
        Sysno::Write,
        Sysno::Gettimeofday,
        Sysno::Brk,
        Sysno::Mmap,
        Sysno::Mprotect,
        Sysno::Accept,
    ];
    let policy = std::hint::black_box(MonitoringPolicy::StrictLockstep);
    m.set(
        "policy.disposition_ns",
        "ns",
        per_iter(n, |i| {
            std::hint::black_box(policy.disposition(std::hint::black_box(calls[i % calls.len()])));
        }),
    );

    for (len, name) in [
        (64usize, "frame.crc32_mb_per_s.64b"),
        (4096, "frame.crc32_mb_per_s.4k"),
    ] {
        let body: Vec<u8> = (0..len).map(|i| i as u8).collect();
        let iterations = scaled(4_000_000 / len, scale);
        let ns = per_iter(iterations, |_| {
            std::hint::black_box(frame::crc32(std::hint::black_box(&body)));
        });
        m.set(name, "MB/s", len as f64 / ns * 1e3);
    }
    let body = [0x5au8; 64];
    let mut buf = Vec::with_capacity(1 << 16);
    m.set(
        "frame.push_next_ns",
        "ns",
        per_iter(scaled(100_000, scale), |_| {
            if buf.len() > (1 << 16) - 128 {
                buf.clear();
            }
            let offset = buf.len();
            frame::push_frame(&mut buf, &body);
            std::hint::black_box(frame::next_frame(&buf, offset).is_ok());
        }),
    );
}

/// Journal appends from one and from two threads, then the read side on a
/// journal a real two-variant run recorded.
fn journal_probes(seed: u64, scale: f64, m: &mut Metrics) {
    let header = JournalHeader {
        version: journal::JOURNAL_VERSION,
        variants: 2,
        threads: 2,
        shards: 1,
        batch: 1,
    };
    let n = scaled(100_000, scale);
    let cmp = key_for(1);
    let recorder = JournalRecorder::with_header(header);
    m.set(
        "journal.append_ns",
        "ns",
        per_iter(n, |i| recorder.record_arrival(0, 0, i as u64, 0, &cmp)),
    );
    let recorder = Arc::new(JournalRecorder::with_header(header));
    let t0 = Instant::now();
    let appenders: Vec<_> = (0..2usize)
        .map(|thread| {
            let (recorder, cmp) = (Arc::clone(&recorder), cmp.clone());
            std::thread::spawn(move || {
                for i in 0..n {
                    recorder.record_arrival(thread, thread, i as u64, 0, &cmp);
                }
            })
        })
        .collect();
    for a in appenders {
        a.join().expect("an appender panicked");
    }
    // Per thread: equal to `append_ns` if appends ran in parallel, twice it
    // if the recorder serialises them.
    m.set(
        "journal.append_ns_2t",
        "ns",
        t0.elapsed().as_nanos() as f64 / n as f64,
    );

    let recorder = Arc::new(JournalRecorder::new());
    let mvee = Mvee::builder()
        .variants(2)
        .threads(1)
        .agent(AgentKind::Null)
        .shards(1)
        .journal(JournalMode::Record(Arc::clone(&recorder)))
        .lockstep_timeout(LOCKSTEP_TIMEOUT)
        .build();
    let stream = gen::compare_stream(seed, scaled(4096, scale), 32);
    std::thread::scope(|scope| {
        for variant in 0..2 {
            let (mvee, stream) = (&mvee, &stream);
            scope.spawn(move || {
                let port = mvee.thread_port(variant, 0);
                let mut mat = Materializer::new();
                for op in Materializer::pool_ops().chain(stream.iter().copied()) {
                    let req = mat.request(op);
                    match port.syscall(&req) {
                        Ok(outcome) => mat.absorb(op, &outcome),
                        Err(_) => return,
                    }
                }
            });
        }
    });
    let records = recorder.records().max(1) as f64;
    let reps = 5;
    let mut bytes = Vec::new();
    let finish = per_iter(reps, |_| bytes = recorder.finish());
    m.set("journal.finish_ns_per_record", "ns", finish / records);
    let decode = per_iter(reps, |_| {
        std::hint::black_box(Journal::decode(&bytes).is_ok());
    });
    m.set("journal.decode_ns_per_record", "ns", decode / records);
    // A torn tail: the salvage path has to find the last whole record.
    let torn = &bytes[..bytes.len() - 5];
    let recover = per_iter(reps, |_| {
        std::hint::black_box(Journal::recover_from_bytes(torn).is_ok());
    });
    m.set("journal.recover_ns_per_record", "ns", recover / records);
    if let Ok(journal) = Journal::decode(&bytes) {
        let replay = per_iter(reps, |_| {
            std::hint::black_box(journal::replay_journal(&journal).is_ok());
        });
        m.set("journal.replay_ns_per_record", "ns", replay / records);
    }
}

fn snapshot_probes(scale: f64, m: &mut Metrics) {
    let mvee = Mvee::builder()
        .variants(1)
        .threads(1)
        .agent(AgentKind::Null)
        .snapshot_every(1)
        .build();
    {
        let port = mvee.thread_port(0, 0);
        let mut mat = Materializer::new();
        for op in Materializer::pool_ops() {
            let req = mat.request(op);
            if let Ok(outcome) = port.syscall(&req) {
                mat.absorb(op, &outcome);
            }
        }
        port.sync_op(0x1000, || ());
    }
    let Some(snapshot) = mvee.latest_snapshot(0) else {
        return;
    };
    let n = scaled(5000, scale);
    let mut bytes = Vec::new();
    m.set(
        "snapshot.encode_ns",
        "ns",
        per_iter(n, |_| bytes = snapshot.encode()),
    );
    m.set(
        "snapshot.decode_ns",
        "ns",
        per_iter(n, |_| {
            std::hint::black_box(SnapshotRecord::decode(&bytes).is_ok());
        }),
    );
}

/// A 64-byte ping-pong over the Unix socket pair the remote transport uses:
/// the floor under any leader call that waits for the follower.
fn channel_probe(scale: f64, m: &mut Metrics) {
    let Ok((near, far)) = Duplex::unix_pair() else {
        return;
    };
    let n = scaled(5000, scale);
    let echo = std::thread::spawn(move || {
        let (mut rx, mut tx) = far.into_split();
        let mut buf = [0u8; 64];
        for _ in 0..n {
            if rx.read_exact(&mut buf).is_err() || tx.write_all(&buf).is_err() {
                return;
            }
            let _ = tx.flush();
        }
    });
    let (mut rx, mut tx) = near.into_split();
    let mut buf = [1u8; 64];
    let mut ok = true;
    let rtt = per_iter(n, |_| {
        ok &= tx.write_all(&buf).is_ok() && tx.flush().is_ok() && rx.read_exact(&mut buf).is_ok();
    });
    drop((rx, tx));
    echo.join().expect("the echo thread panicked");
    m.set("remote.channel_rtt_ns", "ns", if ok { rtt } else { 0.0 });
}

/// Runs every probe once.
pub fn run_all(seed: u64, scale: f64, m: &mut Metrics) {
    kernel_probes(seed, scale, m);
    lockstep_probes(scale, m);
    agent_probes(seed, scale, m);
    small_probes(scale, m);
    journal_probes(seed, scale, m);
    snapshot_probes(scale, m);
    channel_probe(scale, m);
}
