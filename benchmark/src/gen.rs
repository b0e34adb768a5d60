//! Seeded request streams and the counts they predict.
//!
//! The program under test only ever sees the generated requests; the seed
//! stays in the benchmark.  A stream is a list of abstract [`Op`]s: the
//! arguments that depend on what the kernel answered earlier (the fd an
//! `open` returned, the address an `mmap` returned) are filled in per
//! variant thread by a [`Materializer`], so every generated call is
//! well-formed and no operation fails on a clean run.

use std::collections::VecDeque;

use mvee_core::monitor::MonitorError;
use mvee_core::policy::{CallDisposition, MonitoringPolicy};
use mvee_kernel::kernel::Kernel;
use mvee_kernel::syscall::{SyscallArg, SyscallOutcome, SyscallRequest, Sysno};
use mvee_kernel::vfs::OpenFlags;

/// SplitMix64: small, seedable, and good enough to shuffle request shapes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at these
    /// ranges.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Files every stream workload installs before its first call.
pub const FILES: usize = 4;
/// Size of each installed file.
pub const FILE_BYTES: usize = 8192;
/// Address-space regions a [`Materializer`] maps during warm-up, so that
/// `mprotect`/`munmap` always have a region whose address is already known.
pub const POOL_REGIONS: usize = 64;

/// Path of installed file `idx`.
pub fn file_path(idx: usize) -> String {
    format!("/bench/data{idx}.bin")
}

/// Seed-derived contents of installed file `idx`.
pub fn file_contents(seed: u64, idx: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(idx as u64));
    (0..FILE_BYTES).map(|_| rng.next_u64() as u8).collect()
}

/// One generated call, before its state-dependent arguments are filled in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Open {
        file: u8,
    },
    Read {
        len: u16,
    },
    Write {
        len: u16,
        tag: u8,
    },
    Lseek {
        pos: u16,
    },
    Close,
    Getpid,
    Gettimeofday,
    Brk,
    Mmap {
        pages: u8,
        prot: u8,
    },
    /// `mprotect` on one of the oldest known regions.
    Mprotect {
        slot: u8,
        prot: u8,
    },
    /// `munmap` of the oldest known region.
    Munmap,
}

/// The three request classes of the mix, by what the monitor does to them
/// under `MonitoringPolicy::StrictLockstep`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// File I/O: replicated from the master; all but `read` also rendezvous.
    File = 0,
    /// Time/identity queries: replicated without a rendezvous.
    Time = 1,
    /// Address-space calls: compare-only, ordered, executed by every
    /// variant; deferrable when the batch size is above one.
    Mem = 2,
}

impl Op {
    pub fn sysno(self) -> Sysno {
        match self {
            Op::Open { .. } => Sysno::Open,
            Op::Read { .. } => Sysno::Read,
            Op::Write { .. } => Sysno::Write,
            Op::Lseek { .. } => Sysno::Lseek,
            Op::Close => Sysno::Close,
            Op::Getpid => Sysno::Getpid,
            Op::Gettimeofday => Sysno::Gettimeofday,
            Op::Brk => Sysno::Brk,
            Op::Mmap { .. } => Sysno::Mmap,
            Op::Mprotect { .. } => Sysno::Mprotect,
            Op::Munmap => Sysno::Munmap,
        }
    }

    pub fn class(self) -> Class {
        match self {
            Op::Open { .. } | Op::Read { .. } | Op::Write { .. } | Op::Lseek { .. } | Op::Close => {
                Class::File
            }
            Op::Getpid | Op::Gettimeofday => Class::Time,
            Op::Brk | Op::Mmap { .. } | Op::Mprotect { .. } | Op::Munmap => Class::Mem,
        }
    }

    pub fn disposition(self) -> CallDisposition {
        MonitoringPolicy::StrictLockstep.disposition(self.sysno())
    }
}

/// Non-executable protections only: a W+X mapping is what the attack check
/// looks for, so clean streams never create one.
const PROTS: [u8; 3] = [1, 3, 0];

fn mem_group(rng: &mut Rng, out: &mut Vec<Op>, short: bool) {
    let prot = PROTS[rng.below(3) as usize];
    if short {
        out.push(Op::Brk);
        out.push(Op::Mprotect {
            slot: rng.below(POOL_REGIONS as u64 / 2) as u8,
            prot,
        });
    } else {
        out.push(Op::Mmap {
            pages: 1 + rng.below(4) as u8,
            prot: 3,
        });
        out.push(Op::Mprotect {
            slot: rng.below(POOL_REGIONS as u64 / 2) as u8,
            prot,
        });
        out.push(Op::Munmap);
    }
}

fn time_group(rng: &mut Rng, out: &mut Vec<Op>, long: bool) {
    for _ in 0..if long { 3 } else { 2 } {
        out.push(if rng.below(2) == 0 {
            Op::Getpid
        } else {
            Op::Gettimeofday
        });
    }
}

fn file_group(rng: &mut Rng, out: &mut Vec<Op>) {
    out.push(Op::Open {
        file: rng.below(FILES as u64) as u8,
    });
    out.push(Op::Read {
        len: 64 + rng.below(960) as u16,
    });
    out.push(Op::Lseek {
        pos: rng.below(4096) as u16,
    });
    out.push(Op::Write {
        len: 32 + rng.below(224) as u16,
        tag: rng.next_u64() as u8,
    });
    out.push(Op::Close);
}

/// Ops per request of [`request_mix`].
pub const OPS_PER_REQUEST: usize = 10;

/// The `lockstep_sync` stream: `requests` requests of ten calls each — five
/// file calls, and five time and address-space calls split 2/3 or 3/2.  Each
/// pair of requests holds one of either split, so any even number of
/// requests is exactly 50 % file, 25 % time and 25 % address-space calls;
/// the seed picks the order of the groups, the files, lengths and
/// protections.
pub fn request_mix(seed: u64, requests: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(requests * OPS_PER_REQUEST);
    let mut long_time_first = false;
    for r in 0..requests {
        if r % 2 == 0 {
            long_time_first = rng.below(2) == 0;
        }
        let long_time = long_time_first == (r % 2 == 0);
        let order = rng.below(6);
        for position in 0..3 {
            // The six orders of (file, time, mem).
            let group = [
                [0, 1, 2],
                [0, 2, 1],
                [1, 0, 2],
                [1, 2, 0],
                [2, 0, 1],
                [2, 1, 0],
            ][order as usize][position];
            match group {
                0 => file_group(&mut rng, &mut out),
                1 => time_group(&mut rng, &mut out, long_time),
                _ => mem_group(&mut rng, &mut out, long_time),
            }
        }
    }
    out
}

/// The `deferred_async` / `remote_unix` / `journal_recover` stream: the
/// `ablation_transport` shape — compare-only address-space calls with one
/// replicated `gettimeofday` every `time_every` calls — made well-formed:
/// the address-space calls cycle `mprotect`, `mmap`, `munmap`, `brk`, so
/// the number of mapped regions stays constant.  `time_every == 0` leaves
/// the replicated call out.
pub fn compare_stream(seed: u64, ops: usize, time_every: usize) -> Vec<Op> {
    compare_stream_with(seed, ops, time_every, 4)
}

/// [`compare_stream`] with regions of 1 to `max_pages` pages.  With one
/// page every `mprotect` and `munmap` names the same length whichever
/// region it picks — what `journal_recover` needs, whose respawned variant
/// has missed the calls that rotated the survivors' regions.
pub fn compare_stream_with(seed: u64, ops: usize, time_every: usize, max_pages: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(ops);
    let mut mem = 0usize;
    for i in 0..ops {
        if time_every > 0 && i % time_every == time_every - 1 {
            out.push(Op::Gettimeofday);
            continue;
        }
        out.push(match mem % 4 {
            0 => Op::Mprotect {
                slot: rng.below(POOL_REGIONS as u64 / 2) as u8,
                prot: PROTS[rng.below(3) as usize],
            },
            1 => Op::Mmap {
                pages: 1 + rng.below(max_pages) as u8,
                prot: 3,
            },
            2 => Op::Munmap,
            _ => Op::Brk,
        });
        mem += 1;
    }
    out
}

/// What the monitor's and the kernel's public counters must read after
/// every variant thread has issued `stream` once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Predicted {
    pub total: u64,
    pub lockstep: u64,
    pub replicated: u64,
    pub ordered: u64,
    pub batched: u64,
    pub flushes: u64,
    pub kernel_executed: u64,
}

impl Predicted {
    pub fn scaled(self, times: u64) -> Self {
        Predicted {
            total: self.total * times,
            lockstep: self.lockstep * times,
            replicated: self.replicated * times,
            ordered: self.ordered * times,
            batched: self.batched * times,
            flushes: self.flushes * times,
            kernel_executed: self.kernel_executed * times,
        }
    }

    pub fn plus(self, other: Predicted) -> Self {
        Predicted {
            total: self.total + other.total,
            lockstep: self.lockstep + other.lockstep,
            replicated: self.replicated + other.replicated,
            ordered: self.ordered + other.ordered,
            batched: self.batched + other.batched,
            flushes: self.flushes + other.flushes,
            kernel_executed: self.kernel_executed + other.kernel_executed,
        }
    }
}

/// Predicts the counters for `variants` variant threads each issuing
/// `stream` once at comparison batch size `batch`.  `sync_op_per_call`
/// says every call is preceded by a sync op (a flush point).  The trailing
/// partial batch is flushed when the port is dropped (or at the next sync
/// point), so it counts as one flush.
pub fn predict(stream: &[Op], variants: u64, batch: usize, sync_op_per_call: bool) -> Predicted {
    let mut p = Predicted::default();
    let mut pending = 0usize;
    for op in stream {
        let d = op.disposition();
        let defer = batch > 1 && d.defer_compare;
        if sync_op_per_call && pending > 0 {
            p.flushes += variants;
            pending = 0;
        }
        p.total += variants;
        if !defer && (d.lockstep || d.replicate || d.ordered) && pending > 0 {
            p.flushes += variants;
            pending = 0;
        }
        if d.lockstep {
            p.lockstep += variants;
            if defer {
                p.batched += variants;
                pending += 1;
                if pending >= batch {
                    p.flushes += variants;
                    pending = 0;
                }
            }
        }
        if d.replicate {
            p.replicated += variants;
            p.kernel_executed += 1;
        } else {
            if d.ordered {
                p.ordered += variants;
            }
            p.kernel_executed += variants;
        }
    }
    if pending > 0 {
        p.flushes += variants;
    }
    p
}

/// Per-variant-thread call state: turns [`Op`]s into well-formed requests
/// using what the kernel answered earlier on the same thread.
#[derive(Debug)]
pub struct Materializer {
    fd: i32,
    /// Known mapped regions, oldest first: `(address, length)`.
    regions: VecDeque<(u64, u64)>,
    write_buf: Vec<u8>,
}

impl Default for Materializer {
    fn default() -> Self {
        Self::new()
    }
}

impl Materializer {
    pub fn new() -> Self {
        Materializer {
            fd: -1,
            regions: VecDeque::with_capacity(2 * POOL_REGIONS),
            write_buf: vec![0; 256],
        }
    }

    /// The warm-up ops that fill the region pool.
    pub fn pool_ops() -> impl Iterator<Item = Op> {
        (0..POOL_REGIONS).map(|_| Op::Mmap { pages: 1, prot: 3 })
    }

    #[cfg(test)]
    pub fn known_regions(&self) -> usize {
        self.regions.len()
    }

    /// Builds the request for `op`.  `Munmap` takes its region out of the
    /// known set here, at issue time, so a pipelined transport never picks
    /// the same region twice.
    pub fn request(&mut self, op: Op) -> SyscallRequest {
        match op {
            Op::Open { file } => SyscallRequest::new(Sysno::Open)
                .with_path(&file_path(file as usize))
                .with_arg(SyscallArg::Flags(
                    OpenFlags::READ.union(OpenFlags::WRITE).bits(),
                )),
            Op::Read { len } => SyscallRequest::new(Sysno::Read)
                .with_fd(self.fd)
                .with_int(i64::from(len)),
            Op::Write { len, tag } => {
                let len = usize::from(len);
                self.write_buf[..len].fill(tag);
                SyscallRequest::new(Sysno::Write)
                    .with_fd(self.fd)
                    .with_payload(&self.write_buf[..len])
            }
            Op::Lseek { pos } => SyscallRequest::new(Sysno::Lseek)
                .with_fd(self.fd)
                .with_int(i64::from(pos)),
            Op::Close => SyscallRequest::new(Sysno::Close).with_fd(self.fd),
            Op::Getpid => SyscallRequest::new(Sysno::Getpid),
            Op::Gettimeofday => SyscallRequest::new(Sysno::Gettimeofday),
            Op::Brk => SyscallRequest::new(Sysno::Brk).with_int(0),
            Op::Mmap { pages, prot } => SyscallRequest::new(Sysno::Mmap)
                .with_int(i64::from(pages) * 4096)
                .with_arg(SyscallArg::Flags(u64::from(prot))),
            Op::Mprotect { slot, prot } => {
                let (addr, len) = self.regions[usize::from(slot) % self.regions.len().max(1)];
                mprotect_request(addr, len, prot)
            }
            Op::Munmap => {
                let (addr, len) = self
                    .regions
                    .pop_front()
                    .expect("the region pool never runs dry");
                SyscallRequest::new(Sysno::Munmap)
                    .with_arg(SyscallArg::Pointer(addr))
                    .with_int(len as i64)
            }
        }
    }

    /// The oldest known region (the staged mismatches aim at it).
    pub fn oldest_region(&self) -> (u64, u64) {
        self.regions[0]
    }

    /// Feeds the kernel's answer back: remembers the fd of an `open` and
    /// the address of an `mmap`.
    pub fn absorb(&mut self, op: Op, outcome: &SyscallOutcome) {
        match op {
            Op::Open { .. } => self.fd = outcome.result.map_or(-1, |fd| fd as i32),
            Op::Mmap { pages, .. } => {
                if let Ok(addr) = outcome.result {
                    self.regions
                        .push_back((addr as u64, u64::from(pages) * 4096));
                }
            }
            _ => {}
        }
    }
}

/// A well-formed `mprotect(addr, len, prot)`.
pub fn mprotect_request(addr: u64, len: u64, prot: u8) -> SyscallRequest {
    SyscallRequest::new(Sysno::Mprotect)
        .with_arg(SyscallArg::Pointer(addr))
        .with_int(len as i64)
        .with_arg(SyscallArg::Flags(u64::from(prot)))
}

/// FNV-1a over what a variant thread observed, call by call; equal digests
/// across variants mean identical per-call outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn fold(&mut self, outcome: &SyscallOutcome) {
        for b in outcome.raw_return().to_le_bytes() {
            self.byte(b);
        }
        for &b in &outcome.payload {
            self.byte(b);
        }
    }
}

/// What one variant thread has seen so far: the call state, the digest of
/// every outcome, and what went wrong.
#[derive(Debug, Default)]
pub struct Observed {
    pub mat: Materializer,
    pub digest: Digest,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl Observed {
    /// Folds one verdict in.  Returns `false` when the monitor refused the
    /// call (the MVEE is shutting down) and the thread must stop issuing.
    pub fn settle(&mut self, op: Op, result: Result<SyscallOutcome, MonitorError>) -> bool {
        match result {
            Ok(outcome) => {
                if outcome.result.is_err() {
                    self.fail(|| format!("{op:?} failed in the kernel: {:?}", outcome.result));
                }
                self.mat.absorb(op, &outcome);
                self.digest.fold(&outcome);
                true
            }
            Err(e) => {
                self.fail(|| format!("{op:?} refused by the monitor: {e}"));
                false
            }
        }
    }

    /// Counts one failed operation; the first one is kept for the report.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        self.first_error.get_or_insert_with(what);
    }
}

/// A stream's native baseline: the same calls on a bare kernel, one thread,
/// no monitor.  Files installed, region pool mapped.
pub struct Native {
    pub kernel: Kernel,
    pub pid: u64,
    mat: Materializer,
}

impl Native {
    pub fn new(seed: u64) -> Self {
        let kernel = Kernel::new();
        let pid = kernel.spawn_process();
        for idx in 0..FILES {
            kernel.install_file(&file_path(idx), &file_contents(seed, idx));
        }
        let mut native = Native {
            kernel,
            pid,
            mat: Materializer::new(),
        };
        native.run(Materializer::pool_ops());
        native
    }

    pub fn run(&mut self, ops: impl IntoIterator<Item = Op>) {
        for op in ops {
            let req = self.mat.request(op);
            let outcome = self.kernel.execute(self.pid, 0, &req);
            self.mat.absorb(op, std::hint::black_box(&outcome));
        }
    }

    /// Runs `ops` once; returns the wall seconds it took.
    pub fn timed(&mut self, ops: &[Op]) -> f64 {
        let t0 = std::time::Instant::now();
        self.run(ops.iter().copied());
        t0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class_counts(stream: &[Op]) -> [usize; 3] {
        let mut counts = [0; 3];
        for op in stream {
            counts[op.class() as usize] += 1;
        }
        counts
    }

    #[test]
    fn same_seed_gives_the_same_stream_and_counts() {
        for seed in [1, 7, 1 << 40] {
            let a = request_mix(seed, 64);
            let b = request_mix(seed, 64);
            assert_eq!(a, b);
            assert_eq!(predict(&a, 2, 1, false), predict(&b, 2, 1, false));
            let c = compare_stream(seed, 1024, 32);
            assert_eq!(c, compare_stream(seed, 1024, 32));
            assert_eq!(predict(&c, 2, 8, false), predict(&c, 2, 8, false));
        }
    }

    #[test]
    fn different_seeds_differ_but_keep_the_class_proportions() {
        let a = request_mix(1, 64);
        let b = request_mix(2, 64);
        assert_ne!(a, b);
        assert_eq!(class_counts(&a), [320, 160, 160]);
        assert_eq!(class_counts(&a), class_counts(&b));
        // The class proportions fix every counter, whatever the seed.
        assert_eq!(predict(&a, 2, 1, false), predict(&b, 2, 1, false));

        let c = compare_stream(1, 1024, 32);
        let d = compare_stream(2, 1024, 32);
        assert_ne!(c, d);
        assert_eq!(class_counts(&c), [0, 32, 992]);
        assert_eq!(class_counts(&c), class_counts(&d));
        assert_eq!(predict(&c, 2, 8, false), predict(&d, 2, 8, false));
    }

    #[test]
    fn the_mix_matches_the_policy_dispositions() {
        let stream = request_mix(3, 2);
        let p = predict(&stream, 2, 1, false);
        // 20 calls, two variants.
        assert_eq!(p.total, 40);
        // File and time calls are replicated (15 of 20); address-space
        // calls are ordered (5 of 20).
        assert_eq!(p.replicated, 30);
        assert_eq!(p.ordered, 10);
        // Everything but `read` and the time calls keeps a rendezvous.
        assert_eq!(p.lockstep, 2 * (8 + 5));
        assert_eq!(p.batched, 0);
        assert_eq!(p.flushes, 0);
        // Replicated calls run once, the rest once per variant.
        assert_eq!(p.kernel_executed, 15 + 10);
    }

    #[test]
    fn batching_predicts_one_flush_per_full_batch_and_per_sync_point() {
        // 31 deferrable calls then one replicated call: three full batches
        // of 8, and the remaining 7 flushed by the replicated call.
        let stream = compare_stream(5, 32, 32);
        let p = predict(&stream, 2, 8, false);
        assert_eq!(p.batched, 62);
        assert_eq!(p.flushes, 8);
        // Without the replicated call the tail is flushed by the port drop.
        let stream = compare_stream(5, 12, 0);
        assert_eq!(predict(&stream, 1, 8, false).flushes, 2);
        // A sync op before every call flushes every deferred call alone.
        assert_eq!(predict(&stream, 1, 8, true).flushes, 12);
    }

    #[test]
    fn the_region_pool_stays_level() {
        let mut m = Materializer::new();
        let mut next = 0x7000_0000u64;
        let mut step = |m: &mut Materializer, op: Op| {
            let req = m.request(op);
            assert_eq!(req.no, op.sysno());
            let outcome = if let Op::Mmap { pages, .. } = op {
                next -= u64::from(pages) * 4096;
                SyscallOutcome::ok(next as i64)
            } else {
                SyscallOutcome::ok(0)
            };
            m.absorb(op, &outcome);
        };
        for op in Materializer::pool_ops() {
            step(&mut m, op);
        }
        assert_eq!(m.known_regions(), POOL_REGIONS);
        for op in compare_stream(9, 4096, 32) {
            step(&mut m, op);
            assert!(m.known_regions() >= POOL_REGIONS - 1);
            assert!(m.known_regions() <= POOL_REGIONS + 1);
        }
        assert_eq!(m.known_regions(), POOL_REGIONS);
    }
}
