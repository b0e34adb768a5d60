//! `http_serve`: the paper's §5.5 request shape without the sleeps, and the
//! only workload with a party outside the MVEE.
//!
//! Per variant one server thread on a `ThreadPort`: `accept` → `recv` →
//! statistics-lock sync-op bracket → `send` header → `sendfile` page →
//! `lseek` → `close`, yielding on `EAGAIN`.  One client thread drives it
//! straight through `Kernel::execute`, one connection at a time, closed
//! loop, polling with `yield_now`.  The same loop at one variant is the
//! native baseline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mvee_core::monitor::{MonitorError, MonitorStats};
use mvee_core::mvee::Mvee;
use mvee_core::port::ThreadPort;
use mvee_kernel::error::Errno;
use mvee_kernel::kernel::{Kernel, KernelStats};
use mvee_kernel::syscall::{SyscallArg, SyscallOutcome, SyscallRequest, Sysno};
use mvee_kernel::vfs::OpenFlags;
use mvee_sync_agent::agents::AgentKind;
use mvee_sync_agent::context::AgentConfig;
use mvee_sync_agent::AgentStats;
use mvee_variant::diversity::DiversityProfile;
use mvee_workloads::nginx::{run_nginx_experiment, AttackOutcome, NginxServerConfig};

use crate::gen::Rng;
use crate::measure::{ns_between, process_cpu_ms, FixedWorkRss, Mode, Samples};
use crate::stream::LOCKSTEP_TIMEOUT;
use crate::trace::{Span, Tracer, OP};

pub const PAGE_BYTES: usize = 4096;
const PORT: u16 = 8080;
const PAGE_PATH: &str = "/www/index.html";
const QUIT: &[u8] = b"QUIT";
/// `peak_rss_mb` is read after this many rounds.
pub const RSS_AFTER_ROUNDS: usize = 12;
/// Polls (each followed by a yield) before a client wait counts as lost.
const MAX_POLLS: u64 = 50_000_000;

fn header() -> String {
    format!("HTTP/1.1 200 OK\r\nContent-Length: {PAGE_BYTES}\r\n\r\n")
}

/// What one server thread counted.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServerCounts {
    pub calls: u64,
    pub accepts: u64,
    pub accept_eagain: u64,
    pub recv_eagain: u64,
    pub served: u64,
}

struct Server<'a> {
    port: &'a ThreadPort,
    counts: ServerCounts,
    tracer: Tracer,
}

impl Server<'_> {
    fn call(&mut self, id: u64, req: &SyscallRequest) -> Result<SyscallOutcome, MonitorError> {
        self.counts.calls += 1;
        let port = self.port;
        self.tracer.span("syscall", id, || port.syscall(req))
    }

    fn sync_op(&mut self, id: u64, addr: u64, op: impl FnOnce()) {
        let port = self.port;
        self.tracer
            .span("before_sync_op", id, || port.before_sync_op(addr));
        op();
        self.tracer
            .span("after_sync_op", id, || port.after_sync_op(addr));
    }

    /// The server loop; returns when the client says `QUIT`.
    fn serve(&mut self) -> Result<(), MonitorError> {
        let fd_of = |o: &SyscallOutcome| o.result.unwrap_or(-1) as i32;
        let listen_fd = fd_of(&self.call(0, &SyscallRequest::new(Sysno::Socket))?);
        self.call(
            0,
            &SyscallRequest::new(Sysno::Bind)
                .with_fd(listen_fd)
                .with_int(i64::from(PORT)),
        )?;
        self.call(0, &SyscallRequest::new(Sysno::Listen).with_fd(listen_fd))?;
        let page_fd = fd_of(
            &self.call(
                0,
                &SyscallRequest::new(Sysno::Open)
                    .with_path(PAGE_PATH)
                    .with_arg(SyscallArg::Flags(OpenFlags::READ.bits())),
            )?,
        );
        // The pthread-style statistics lock of §5.5: one thread per
        // variant, so it is never contended and each bracket is one sync op.
        let stats_lock = AtomicU64::new(0);
        let stats_lock_addr = 0x7f80_0000_0040u64 + (self.port.variant_index() as u64) * 0x100_0000;
        let mut bytes_served = 0u64;
        let header = header();
        let accept = SyscallRequest::new(Sysno::Accept).with_fd(listen_fd);
        let mut id = 1u64;
        loop {
            let started = Instant::now();
            let conn_fd = loop {
                self.counts.accepts += 1;
                match self.call(id, &accept)?.result {
                    Ok(fd) => break fd as i32,
                    Err(_) => {
                        self.counts.accept_eagain += 1;
                        std::thread::yield_now();
                    }
                }
            };
            let recv = SyscallRequest::new(Sysno::Recv)
                .with_fd(conn_fd)
                .with_int(1024);
            let request = loop {
                let got = self.call(id, &recv)?;
                match got.result {
                    Ok(_) => break got.payload,
                    Err(_) => {
                        self.counts.recv_eagain += 1;
                        std::thread::yield_now();
                    }
                }
            };
            let close = SyscallRequest::new(Sysno::Close).with_fd(conn_fd);
            if request.starts_with(QUIT) {
                self.call(
                    id,
                    &SyscallRequest::new(Sysno::Send)
                        .with_fd(conn_fd)
                        .with_payload(b"BYE"),
                )?;
                self.call(id, &close)?;
                return Ok(());
            }
            self.sync_op(id, stats_lock_addr, || {
                let _ = stats_lock.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire);
            });
            bytes_served += PAGE_BYTES as u64;
            self.sync_op(id, stats_lock_addr, || {
                stats_lock.store(0, Ordering::Release)
            });
            self.call(
                id,
                &SyscallRequest::new(Sysno::Send)
                    .with_fd(conn_fd)
                    .with_payload(header.as_bytes()),
            )?;
            self.call(
                id,
                &SyscallRequest::new(Sysno::Sendfile)
                    .with_fd(conn_fd)
                    .with_fd(page_fd)
                    .with_int(PAGE_BYTES as i64),
            )?;
            self.call(
                id,
                &SyscallRequest::new(Sysno::Lseek)
                    .with_fd(page_fd)
                    .with_int(0),
            )?;
            self.call(id, &close)?;
            self.counts.served += 1;
            self.tracer.record(OP, id, started, Instant::now());
            id += 1;
            std::hint::black_box(bytes_served);
        }
    }
}

/// The client side: one kernel process outside the MVEE.
struct Client<'a> {
    kernel: &'a Kernel,
    pid: u64,
    eagain: u64,
    refused: u64,
    tracer: Tracer,
}

impl Client<'_> {
    fn execute(&mut self, id: u64, req: &SyscallRequest) -> SyscallOutcome {
        let (kernel, pid) = (self.kernel, self.pid);
        self.tracer
            .span("Kernel::execute", id, || kernel.execute(pid, 0, req))
    }

    /// One request: connect, send, read the whole response, close.
    /// Returns the response length.
    fn request(&mut self, id: u64, payload: &[u8], expect: usize) -> Result<usize, String> {
        let mut polls = 0u64;
        let fd = loop {
            let sock = self.execute(id, &SyscallRequest::new(Sysno::Socket));
            let fd = sock.result.map_err(|e| format!("socket: {e:?}"))? as i32;
            let connect = self.execute(
                id,
                &SyscallRequest::new(Sysno::Connect)
                    .with_fd(fd)
                    .with_int(i64::from(PORT))
                    .with_arg(SyscallArg::Flags(0)),
            );
            if connect.result.is_ok() {
                break fd;
            }
            // Only before the server has bound its listener.
            self.refused += 1;
            self.execute(id, &SyscallRequest::new(Sysno::Close).with_fd(fd));
            polls += 1;
            if polls > MAX_POLLS {
                return Err("the server never started listening".into());
            }
            std::thread::yield_now();
        };
        self.execute(
            id,
            &SyscallRequest::new(Sysno::Send)
                .with_fd(fd)
                .with_payload(payload),
        )
        .result
        .map_err(|e| format!("send: {e:?}"))?;
        let recv = SyscallRequest::new(Sysno::Recv)
            .with_fd(fd)
            .with_int(64 * 1024);
        let mut got = 0usize;
        while got < expect {
            match self.execute(id, &recv).result {
                Ok(0) => break,
                Ok(n) => got += n as usize,
                Err(Errno::Eagain) => {
                    self.eagain += 1;
                    polls += 1;
                    if polls > MAX_POLLS {
                        return Err(format!("no response after {polls} polls"));
                    }
                    std::thread::yield_now();
                }
                Err(e) => return Err(format!("recv: {e:?}")),
            }
        }
        self.execute(id, &SyscallRequest::new(Sysno::Close).with_fd(fd));
        Ok(got)
    }
}

/// What one server session measured.
pub struct Session {
    pub setup_s: f64,
    pub build_ns: f64,
    pub round_requests: usize,
    pub round_walls: Vec<f64>,
    /// Process CPU milliseconds of each round.
    pub round_cpu_ms: Vec<f64>,
    /// Client-observed latency of every timed request.
    pub samples: Samples,
    /// Peak RSS once a fixed number of rounds was done.
    pub rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub servers: Vec<ServerCounts>,
    pub monitor: MonitorStats,
    pub agent: AgentStats,
    pub kernel: KernelStats,
    pub spans: Vec<Span>,
}

pub fn build(variants: usize, seed: u64) -> Mvee {
    let diversity = DiversityProfile::full(seed);
    // A lone variant has no slave to drain the agent's sync buffer: under
    // wall-of-clocks its master blocks for good once the buffer has filled
    // (32768 sync ops).  The native baseline therefore runs the null agent.
    let agent = if variants == 1 {
        AgentKind::Null
    } else {
        AgentKind::WallOfClocks
    };
    Mvee::builder()
        .variants(variants)
        .threads(1)
        .agent(agent)
        .agent_config(
            AgentConfig::default()
                .with_buffer_capacity(1 << 15)
                .with_clock_count(1024),
        )
        .layouts((0..variants).map(|v| diversity.layout_for(v)).collect())
        .lockstep_timeout(LOCKSTEP_TIMEOUT)
        .build()
}

/// One session: build, serve `warmup` requests (set-up), then rounds of
/// `round_requests` requests until `mode` says stop, then `QUIT`.
#[allow(clippy::too_many_arguments)]
pub fn run_session(
    variants: usize,
    seed: u64,
    warmup: usize,
    round_requests: usize,
    mode: Mode,
    traced: bool,
    sample_capacity: usize,
    errors: &mut Vec<String>,
) -> Session {
    let label = if variants == 1 {
        "http_serve(native)"
    } else {
        "http_serve"
    };
    let epoch = Instant::now();
    let setup_started = Instant::now();
    let mvee = Arc::new(build(variants, seed));
    let build_ns = setup_started.elapsed().as_nanos() as f64;
    let mut rng = Rng::new(seed);
    let page: Vec<u8> = (0..PAGE_BYTES)
        .map(|_| b'a' + rng.below(26) as u8)
        .collect();
    mvee.kernel().install_file(PAGE_PATH, &page);
    let client_pid = mvee.kernel().spawn_process();

    let servers: Vec<_> = (0..variants)
        .map(|variant| {
            let mvee = Arc::clone(&mvee);
            std::thread::Builder::new()
                .name(format!("http-v{variant}"))
                .spawn(move || {
                    let port = mvee.thread_port(variant, 0);
                    let mut server = Server {
                        port: &port,
                        counts: ServerCounts::default(),
                        tracer: Tracer::new(epoch, variant as u16, traced, 1 << 16),
                    };
                    let result = server.serve();
                    (server.counts, server.tracer.spans, result)
                })
                .expect("spawning a server thread")
        })
        .collect();

    let expect = header().len() + PAGE_BYTES;
    let mut client = Client {
        kernel: mvee.kernel(),
        pid: client_pid,
        eagain: 0,
        refused: 0,
        tracer: Tracer::new(epoch, variants as u16, false, 0),
    };
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut samples = Samples::with_capacity(sample_capacity);
    let mut next_id = 1u64;
    let mut one = |client: &mut Client, record: Option<&mut Samples>| {
        let id = next_id;
        next_id += 1;
        let payload = format!("GET /index.html?r={} HTTP/1.1\r\n\r\n", rng.next_u64());
        let t0 = Instant::now();
        let result = client.request(id, payload.as_bytes(), expect);
        let t1 = Instant::now();
        client.tracer.record(OP, id, t0, t1);
        if let Some(samples) = record {
            samples.push(0, ns_between(t0, t1));
        }
        match result {
            Ok(len) if len == expect => true,
            Ok(len) => {
                errors.push(format!(
                    "{label}: a response of {len} bytes, expected {expect}"
                ));
                false
            }
            Err(e) => {
                errors.push(format!("{label}: {e}"));
                false
            }
        }
    };

    let mut alive = true;
    for _ in 0..warmup {
        if !one(&mut client, None) {
            alive = false;
            break;
        }
    }
    let setup_s = setup_started.elapsed().as_secs_f64();
    if traced {
        client.tracer = Tracer::new(epoch, variants as u16, true, 1 << 16);
    }

    let started = Instant::now();
    let mut round_walls = Vec::new();
    let mut round_cpu_ms = Vec::new();
    let mut rss = FixedWorkRss::after_rounds(RSS_AFTER_ROUNDS);
    while alive {
        rss.rounds_done(round_walls.len());
        if mode.done(started, round_walls.len(), 1) {
            break;
        }
        let cpu0 = process_cpu_ms();
        let t0 = Instant::now();
        for _ in 0..round_requests {
            attempted += 1;
            if !one(&mut client, Some(&mut samples)) {
                failed += 1;
                alive = false;
                break;
            }
        }
        if alive {
            round_walls.push(t0.elapsed().as_secs_f64());
            round_cpu_ms.push(process_cpu_ms() - cpu0);
        }
    }

    // A wedged server would never read the QUIT; the watchdog ends that.
    if let Err(e) = client.request(0, QUIT, 3) {
        errors.push(format!("{label}: QUIT: {e}"));
    }
    let mut spans = std::mem::take(&mut client.tracer.spans);
    let (client_eagain, client_refused) = (client.eagain, client.refused);
    let mut counts = Vec::new();
    for (variant, handle) in servers.into_iter().enumerate() {
        let (c, s, result) = handle.join().expect("a server thread panicked");
        if let Err(e) = result {
            errors.push(format!("{label}: server {variant} stopped: {e}"));
        }
        counts.push(c);
        spans.extend(s);
    }

    // Replicated results drive the server's control flow, so every variant
    // must have issued exactly the same calls.
    if counts.iter().any(|c| *c != counts[0]) {
        errors.push(format!(
            "{label}: the variants' call counts differ: {counts:?}"
        ));
    }
    if let Some(report) = mvee.divergence() {
        errors.push(format!("{label}: divergence: {}", report.summary()));
    }
    let monitor = mvee.monitor_stats();
    let agent = mvee.agent_stats();
    let kernel = mvee.kernel().stats();
    let served = warmup as u64 + attempted - failed;
    let slaves = variants as u64 - 1;
    let server_calls: u64 = counts.iter().map(|c| c.calls).sum();
    let checks = [
        ("requests served", counts[0].served, served),
        (
            "monitor.total_syscalls",
            monitor.total_syscalls,
            server_calls,
        ),
        // Every server call is I/O: replicated, the master alone executes.
        (
            "monitor.replicated_syscalls",
            monitor.replicated_syscalls,
            server_calls,
        ),
        ("monitor.divergences", monitor.divergences, 0),
        // Two sync ops per served request, recorded by the master and
        // replayed once by each slave.
        ("agent.ops_recorded", agent.ops_recorded, 2 * served),
        (
            "agent.ops_replayed",
            agent.ops_replayed,
            2 * served * slaves,
        ),
        // The only failing calls are the polls that found nothing yet.
        (
            "kernel.syscalls_failed",
            kernel.syscalls_failed,
            counts[0].accept_eagain + counts[0].recv_eagain + client_eagain + client_refused,
        ),
    ];
    if errors.is_empty() {
        for (name, got, want) in checks {
            if got != want {
                errors.push(format!("{label}: {name} reads {got}, expected {want}"));
            }
        }
    }
    Session {
        setup_s,
        build_ns,
        round_requests,
        round_walls,
        round_cpu_ms,
        samples,
        rss_mb: rss.reading(),
        attempted,
        failed,
        servers: counts,
        monitor,
        agent,
        kernel,
        spans,
    }
}

/// The untimed attack check of §5.5: a code-reuse exploit tailored to one
/// variant's layout is detected at two variants and succeeds at one.
pub fn attack_check(errors: &mut Vec<String>) {
    for (variants, want) in [
        (2, AttackOutcome::DetectedAndStopped),
        (1, AttackOutcome::Compromised),
    ] {
        let config = NginxServerConfig {
            variants,
            pool_threads: 1,
            requests: 4,
            page_bytes: PAGE_BYTES,
            ..NginxServerConfig::default()
        };
        let report = run_nginx_experiment(&config, true);
        if report.attack != want {
            errors.push(format!(
                "http_serve: the attack on {variants} variant(s) ended {:?}, expected {want:?}",
                report.attack
            ));
        }
    }
}
