//! The nginx use case (§5.5): a thread-pooled web server under the MVEE.
//!
//! The paper instruments nginx 1.8 (which had just gained thread pools),
//! runs two diversified variants of it under ReMon, drives it with `wrk`
//! over a gigabit network and over loopback, and finally attacks it with a
//! CVE-2013-2028-style exploit tailored to one concrete variant.  The
//! headline numbers: 3 % throughput loss over the network, 48 % over
//! loopback, and the attack is detected as divergence before the system is
//! compromised.
//!
//! This module reproduces the whole pipeline against the simulated kernel:
//!
//! * [`NginxServerConfig`] describes the server (pool size, page size,
//!   whether the custom sync primitives are instrumented) and embeds the
//!   shared [`MveeConfig`] tuning block (agent, shards, batch, placement).
//! * [`run_nginx_experiment`] runs the server inside an
//!   [`Mvee`] (or natively) while a load generator
//!   modelled on `wrk` issues requests from outside the MVEE, and reports
//!   throughput plus any detected divergence.
//! * [`AttackOutcome`] / the `attack_request` flag reproduce the tailored
//!   code-reuse attack: the payload carries a concrete gadget address; only
//!   the variant whose (diversified) code layout matches executes the
//!   malicious `mprotect`, so with ≥2 variants the monitor sees divergence.
//!
//! Every server thread — the listener and each pool worker — acquires its
//! [`ThreadPort`] once at start-up and issues all of its monitored calls and
//! sync-op brackets through it, the thread-port gateway discipline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mvee_core::config::MveeConfig;
use mvee_core::monitor::MonitorError;
use mvee_core::mvee::{Mvee, VariantGateway};
use mvee_core::port::ThreadPort;
use mvee_kernel::net::LinkKind;
use mvee_kernel::syscall::{SyscallArg, SyscallOutcome, SyscallRequest, Sysno};
use mvee_kernel::vfs::OpenFlags;
use mvee_sync_agent::context::AgentConfig;
use mvee_variant::diversity::DiversityProfile;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct NginxServerConfig {
    /// Number of variants (1 = no MVEE protection, just the plain server).
    pub variants: usize,
    /// Worker threads in the pool (the paper uses 32).
    pub pool_threads: usize,
    /// Size of the static page served (the paper uses 4 KiB).
    pub page_bytes: usize,
    /// Total requests the load generator issues.
    pub requests: usize,
    /// Whether nginx's *custom* synchronization primitives are instrumented.
    /// Leaving them uninstrumented reproduces the paper's observation that
    /// the server "quickly triggers a divergence when network traffic starts
    /// flowing in".
    pub instrument_custom_sync: bool,
    /// The link the clients connect over.
    pub link: LinkKind,
    /// Diversity applied to the variants (ASLR + DCL in the paper).
    pub diversity: DiversityProfile,
    /// The shared MVEE tuning knobs (agent, shards, batch, placement,
    /// timeout), forwarded verbatim to the builder.
    pub mvee: MveeConfig,
}

impl Default for NginxServerConfig {
    fn default() -> Self {
        NginxServerConfig {
            variants: 2,
            pool_threads: 8,
            page_bytes: 4096,
            requests: 64,
            instrument_custom_sync: true,
            link: LinkKind::Loopback,
            diversity: DiversityProfile::full(2028),
            mvee: MveeConfig::default().with_agent_config(
                AgentConfig::default()
                    .with_buffer_capacity(1 << 15)
                    .with_clock_count(1024),
            ),
        }
    }
}

impl NginxServerConfig {
    /// The many-thread, many-variant stress configuration: `variants`
    /// diversified servers with `pool_threads` workers each, all hammering
    /// the sharded monitor at once.  Scaled-down page and request counts keep
    /// a 16-variant run inside a CI time budget while still exercising every
    /// rendezvous shard.
    pub fn stress(variants: usize, pool_threads: usize, requests: usize) -> Self {
        let base = NginxServerConfig::default();
        NginxServerConfig {
            variants,
            pool_threads,
            requests,
            page_bytes: 1024,
            mvee: base.mvee.with_lockstep_timeout(Duration::from_secs(15)),
            ..base
        }
    }
}

/// What happened to an attack request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackOutcome {
    /// No attack was issued.
    NotAttempted,
    /// The attack compromised the server (a writable+executable mapping was
    /// created) without being detected — the single-variant outcome.
    Compromised,
    /// The MVEE detected divergence and shut the variants down before the
    /// malicious system call took effect.
    DetectedAndStopped,
    /// The attack failed outright (no variant's layout matched the payload).
    Failed,
}

/// Result of one nginx experiment.
#[derive(Debug, Clone)]
pub struct NginxReport {
    /// Requests completed successfully by the load generator.
    pub completed_requests: usize,
    /// Wall-clock duration of the load phase.
    pub duration: Duration,
    /// Whether the monitor detected divergence.
    pub diverged: bool,
    /// Outcome of the attack phase (if any).
    pub attack: AttackOutcome,
    /// Requests per second (excluding the modelled link latency).
    pub throughput_rps: f64,
    /// Requests per second including the modelled link transfer time, which
    /// is what an external client would observe.
    pub effective_throughput_rps: f64,
}

/// The port the simulated nginx listens on.
const NGINX_PORT: u16 = 8080;
/// Path of the static page.
const PAGE_PATH: &str = "/www/index.html";

/// Runs the nginx experiment: server under the MVEE, load generator outside.
pub fn run_nginx_experiment(config: &NginxServerConfig, attack: bool) -> NginxReport {
    let layouts = (0..config.variants)
        .map(|v| config.diversity.layout_for(v))
        .collect();
    let mvee = Mvee::builder()
        .variants(config.variants)
        .threads(config.pool_threads + 1)
        .config(config.mvee.clone())
        .layouts(layouts)
        .build();
    mvee.kernel()
        .install_file(PAGE_PATH, &vec![b'x'; config.page_bytes]);

    // How many connections each variant's server must accept and process
    // before it exits.  The exit condition must depend only on replicated
    // data (accepted connections and pops of the work queue), never on
    // wall-clock time, or the variants' control flow would diverge.
    let expected_connections = config.requests + usize::from(attack);

    // Spawn the server threads of every variant.
    let mut server_handles = Vec::new();
    for v in 0..config.variants {
        let gateway = mvee.gateway(v);
        let cfg = config.clone();
        let code_base = config.diversity.code_base_for(v);
        server_handles.push(std::thread::spawn(move || {
            run_server_variant(gateway, &cfg, code_base, expected_connections)
        }));
    }

    // The load generator runs outside the MVEE, as a separate kernel process.
    let client_pid = mvee.kernel().spawn_process();
    let kernel = Arc::clone(mvee.kernel());
    let requests = config.requests;
    let link = config.link;
    let attack_flag = attack;
    let diversity = config.diversity;
    let variants = config.variants;
    let start = Instant::now();
    let client_handle = std::thread::spawn(move || {
        run_load_generator(
            &kernel,
            client_pid,
            requests,
            link,
            attack_flag,
            &diversity,
            variants,
        )
    });
    let completed = client_handle.join().expect("load generator panicked");
    let duration = start.elapsed();

    // The servers exit on their own once they have processed every expected
    // connection (or once the monitor shuts the MVEE down after divergence).
    for h in server_handles {
        let _ = h.join();
    }

    let diverged = mvee.divergence().is_some();
    let attack_outcome = if !attack {
        AttackOutcome::NotAttempted
    } else if diverged {
        AttackOutcome::DetectedAndStopped
    } else if (0..config.variants).any(|v| mvee.kernel().process_has_wx_mapping(mvee.pid_of(v))) {
        AttackOutcome::Compromised
    } else {
        AttackOutcome::Failed
    };

    let secs = duration.as_secs_f64().max(1e-9);
    let link_cost_s = config.requests as f64
        * 2.0
        * config.link.transfer_time_ns(config.page_bytes) as f64
        * 1e-9;
    NginxReport {
        completed_requests: completed,
        duration,
        diverged,
        attack: attack_outcome,
        throughput_rps: completed as f64 / secs,
        effective_throughput_rps: completed as f64 / (secs + link_cost_s),
    }
}

/// One variant's server: a listener loop plus a worker pool.
///
/// The listener accepts connections and pushes the connection FD into a
/// work queue protected by nginx's *custom* spinlock (instrumented or not,
/// per the configuration); pool threads pop FDs, read the request, update
/// shared statistics under a pthread-style lock, and send the page.  Each
/// thread acquires its [`ThreadPort`] once and drives everything through it.
fn run_server_variant(
    gateway: VariantGateway,
    config: &NginxServerConfig,
    code_base: u64,
    expected_connections: usize,
) -> Result<(), MonitorError> {
    // The listener runs on logical thread 0 of this OS thread; its port also
    // performs the one-time server set-up calls.
    let listener_port = gateway.thread(0);
    let state = Arc::new(ServerState::new(&listener_port)?);

    let mut handles = Vec::new();
    for worker in 1..=config.pool_threads {
        let state = Arc::clone(&state);
        let gateway = gateway.clone();
        let cfg = config.clone();
        handles.push(std::thread::spawn(move || {
            let port = gateway.thread(worker);
            worker_loop(&port, &state, &cfg, code_base, expected_connections)
        }));
    }

    // Listener loop on thread 0.
    let result = listener_loop(&listener_port, &state, config, expected_connections);
    for h in handles {
        let _ = h.join();
    }
    result
}

/// Per-variant server state shared by its threads.
struct ServerState {
    /// Listening socket FD.
    listen_fd: i32,
    /// FD of the static page (opened once, like nginx's open-file cache).
    page_fd: i32,
    /// Work queue of accepted connection FDs.
    queue: parking_lot::Mutex<std::collections::VecDeque<i32>>,
    /// Address of nginx's custom spinlock guarding the queue.
    custom_lock_addr: u64,
    /// The custom spinlock word itself.
    custom_lock: AtomicU64,
    /// Address of the pthread-style statistics lock.
    stats_lock_addr: u64,
    /// The statistics lock word.
    stats_lock: AtomicU64,
    /// Bytes served (protected by the stats lock).
    bytes_served: AtomicU64,
    /// Connections popped from the work queue so far.  Only mutated and read
    /// while holding the custom queue lock, so its value is governed by the
    /// replayed lock order and stays consistent across variants.
    processed: AtomicU64,
}

impl ServerState {
    fn new(port: &ThreadPort) -> Result<Self, MonitorError> {
        // socket / bind / listen / open the page.
        let sock = port.syscall(&SyscallRequest::new(Sysno::Socket))?;
        let listen_fd = sock.result.unwrap_or(-1) as i32;
        port.syscall(
            &SyscallRequest::new(Sysno::Bind)
                .with_fd(listen_fd)
                .with_int(i64::from(NGINX_PORT)),
        )?;
        port.syscall(&SyscallRequest::new(Sysno::Listen).with_fd(listen_fd))?;
        let page = port.syscall(
            &SyscallRequest::new(Sysno::Open)
                .with_path(PAGE_PATH)
                .with_arg(SyscallArg::Flags(OpenFlags::READ.bits())),
        )?;
        let page_fd = page.result.unwrap_or(-1) as i32;
        let base = 0x7f80_0000_0000u64 + (port.variant_index() as u64) * 0x100_0000;
        Ok(ServerState {
            listen_fd,
            page_fd,
            queue: parking_lot::Mutex::new(std::collections::VecDeque::new()),
            custom_lock_addr: base,
            custom_lock: AtomicU64::new(0),
            stats_lock_addr: base + 0x40,
            stats_lock: AtomicU64::new(0),
            bytes_served: AtomicU64::new(0),
            processed: AtomicU64::new(0),
        })
    }

    /// Acquires nginx's custom spinlock.  Each CAS attempt is a sync op, but
    /// only instrumented when `instrument` is true (the §5.5 experiment).
    fn custom_lock_acquire(&self, port: &ThreadPort, instrument: bool) {
        loop {
            if instrument {
                port.before_sync_op(self.custom_lock_addr);
            }
            let acquired = self
                .custom_lock
                .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok();
            if instrument {
                port.after_sync_op(self.custom_lock_addr);
            }
            if acquired {
                return;
            }
            std::thread::yield_now();
        }
    }

    fn custom_lock_release(&self, port: &ThreadPort, instrument: bool) {
        if instrument {
            port.before_sync_op(self.custom_lock_addr);
        }
        self.custom_lock.store(0, Ordering::Release);
        if instrument {
            port.after_sync_op(self.custom_lock_addr);
        }
    }

    /// The pthread-style statistics lock is always instrumented (the paper
    /// had already covered pthread primitives before tackling nginx).
    fn stats_lock_acquire(&self, port: &ThreadPort) {
        loop {
            port.before_sync_op(self.stats_lock_addr);
            let acquired = self
                .stats_lock
                .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok();
            port.after_sync_op(self.stats_lock_addr);
            if acquired {
                return;
            }
            std::thread::yield_now();
        }
    }

    fn stats_lock_release(&self, port: &ThreadPort) {
        port.before_sync_op(self.stats_lock_addr);
        self.stats_lock.store(0, Ordering::Release);
        port.after_sync_op(self.stats_lock_addr);
    }
}

fn listener_loop(
    port: &ThreadPort,
    state: &Arc<ServerState>,
    config: &NginxServerConfig,
    expected_connections: usize,
) -> Result<(), MonitorError> {
    let mut accepted = 0usize;
    while accepted < expected_connections {
        if port.is_shut_down() {
            return Err(MonitorError::ShutDown);
        }
        let accept = port.syscall(&SyscallRequest::new(Sysno::Accept).with_fd(state.listen_fd))?;
        match accept.result {
            Ok(conn_fd) => {
                accepted += 1;
                state.custom_lock_acquire(port, config.instrument_custom_sync);
                state.queue.lock().push_back(conn_fd as i32);
                state.custom_lock_release(port, config.instrument_custom_sync);
            }
            Err(_) => {
                // Backlog empty.  The retry count is consistent across
                // variants because each retry's (replicated) EAGAIN result is
                // what drives this branch.  The short sleep mirrors nginx's
                // event-loop wait and keeps the recorded call stream small.
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }
    Ok(())
}

fn worker_loop(
    port: &ThreadPort,
    state: &Arc<ServerState>,
    config: &NginxServerConfig,
    code_base: u64,
    expected_connections: usize,
) -> Result<(), MonitorError> {
    loop {
        if port.is_shut_down() {
            return Err(MonitorError::ShutDown);
        }
        state.custom_lock_acquire(port, config.instrument_custom_sync);
        let conn = state.queue.lock().pop_front();
        if conn.is_some() {
            state.processed.fetch_add(1, Ordering::Relaxed);
        }
        let processed = state.processed.load(Ordering::Relaxed);
        state.custom_lock_release(port, config.instrument_custom_sync);
        let conn_fd = match conn {
            Some(fd) => fd,
            None => {
                if processed >= expected_connections as u64 {
                    return Ok(());
                }
                // Idle back-off, mirroring the condition-variable wait of a
                // real thread pool; keeps the master's recorded op stream (and
                // therefore the slaves' replay work) small while idle.
                std::thread::sleep(Duration::from_micros(200));
                continue;
            }
        };
        handle_request(port, state, config, code_base, conn_fd)?;
    }
}

fn handle_request(
    port: &ThreadPort,
    state: &Arc<ServerState>,
    config: &NginxServerConfig,
    code_base: u64,
    conn_fd: i32,
) -> Result<(), MonitorError> {
    // Read the request (replicated from the master).
    let request = loop {
        let recv = port.syscall(
            &SyscallRequest::new(Sysno::Recv)
                .with_fd(conn_fd)
                .with_int(1024),
        )?;
        match recv.result {
            Ok(n) if n > 0 => break recv.payload,
            Ok(_) => break Vec::new(),
            Err(_) => {
                std::thread::yield_now();
                continue;
            }
        }
    };

    let text = String::from_utf8_lossy(&request);
    if let Some(gadget) = parse_attack_gadget(&text) {
        // CVE-2013-2028 model: the oversized chunked body overflows a stack
        // buffer and pivots to the gadget address embedded in the payload.
        // Only the variant whose diversified code layout contains that
        // address ends up executing the malicious mprotect; the others hit
        // an invalid address and issue their normal error response.
        if gadget >= code_base && gadget < code_base + (64 << 20) {
            let mmap = port.syscall(
                &SyscallRequest::new(Sysno::Mmap)
                    .with_int(4096)
                    .with_arg(SyscallArg::Flags(3)),
            )?;
            let addr = mmap.result.unwrap_or(0).max(0) as u64;
            port.syscall(
                &SyscallRequest::new(Sysno::Mprotect)
                    .with_arg(SyscallArg::Pointer(addr))
                    .with_int(4096)
                    .with_arg(SyscallArg::Flags(7)),
            )?;
            // If we are still alive the exploit proceeds to exfiltrate.
            port.syscall(
                &SyscallRequest::new(Sysno::Send)
                    .with_fd(conn_fd)
                    .with_payload(b"pwned"),
            )?;
        } else {
            port.syscall(
                &SyscallRequest::new(Sysno::Send)
                    .with_fd(conn_fd)
                    .with_payload(b"HTTP/1.1 400 Bad Request\r\n\r\n"),
            )?;
        }
        let _ = port.syscall(&SyscallRequest::new(Sysno::Close).with_fd(conn_fd));
        return Ok(());
    }

    // Normal request: update statistics under the pthread-style lock, then
    // send the header and the page body.
    state.stats_lock_acquire(port);
    state
        .bytes_served
        .fetch_add(config.page_bytes as u64, Ordering::Relaxed);
    state.stats_lock_release(port);

    let header = format!(
        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
        config.page_bytes
    );
    port.syscall(
        &SyscallRequest::new(Sysno::Send)
            .with_fd(conn_fd)
            .with_payload(header.as_bytes()),
    )?;
    port.syscall(
        &SyscallRequest::new(Sysno::Sendfile)
            .with_fd(conn_fd)
            .with_fd(state.page_fd)
            .with_int(config.page_bytes as i64),
    )?;
    // Rewind the shared page FD for the next request.
    port.syscall(
        &SyscallRequest::new(Sysno::Lseek)
            .with_fd(state.page_fd)
            .with_int(0),
    )?;
    port.syscall(&SyscallRequest::new(Sysno::Close).with_fd(conn_fd))?;
    Ok(())
}

fn parse_attack_gadget(request: &str) -> Option<u64> {
    let marker = "X-Gadget: 0x";
    let idx = request.find(marker)?;
    let hex: String = request[idx + marker.len()..]
        .chars()
        .take_while(|c| c.is_ascii_hexdigit())
        .collect();
    u64::from_str_radix(&hex, 16).ok()
}

/// The wrk-style load generator: issues `requests` GET requests (plus one
/// attack request at the end when `attack` is set) and counts completions.
fn run_load_generator(
    kernel: &Arc<mvee_kernel::kernel::Kernel>,
    pid: u64,
    requests: usize,
    link: LinkKind,
    attack: bool,
    diversity: &DiversityProfile,
    variants: usize,
) -> usize {
    let mut completed = 0;
    for i in 0..requests {
        if send_one_request(kernel, pid, link, b"GET /index.html HTTP/1.1\r\n\r\n").is_some() {
            completed += 1;
        }
        if i % 16 == 0 {
            std::thread::yield_now();
        }
    }
    if attack {
        // Tailor the exploit to the *last* variant's code layout, exactly as
        // the paper's attack script tailors its payload to one running
        // victim.
        let target = diversity.code_base_for(variants.saturating_sub(1)) + 0x1234;
        let payload = format!(
            "GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\nX-Gadget: 0x{:x}\r\n\r\n{}",
            target,
            "A".repeat(2048)
        );
        let _ = send_one_request(kernel, pid, link, payload.as_bytes());
    }
    completed
}

fn send_one_request(
    kernel: &Arc<mvee_kernel::kernel::Kernel>,
    pid: u64,
    link: LinkKind,
    payload: &[u8],
) -> Option<SyscallOutcome> {
    let link_flag = u64::from(link == LinkKind::GigabitNetwork);
    // Connect, retrying while the server is still binding its listener (the
    // server races with the client at startup, exactly like wrk started a
    // moment before nginx finishes initializing).
    let fd = {
        let mut attempt = 0u32;
        loop {
            let sock = kernel.execute(pid, 0, &SyscallRequest::new(Sysno::Socket));
            let fd = sock.result.ok()? as i32;
            let connect = kernel.execute(
                pid,
                0,
                &SyscallRequest::new(Sysno::Connect)
                    .with_fd(fd)
                    .with_int(i64::from(NGINX_PORT))
                    .with_arg(SyscallArg::Flags(link_flag)),
            );
            if connect.result.is_ok() {
                break fd;
            }
            let _ = kernel.execute(pid, 0, &SyscallRequest::new(Sysno::Close).with_fd(fd));
            attempt += 1;
            if attempt > 20_000 {
                return None;
            }
            std::thread::sleep(std::time::Duration::from_micros(500));
        }
    };
    kernel
        .execute(
            pid,
            0,
            &SyscallRequest::new(Sysno::Send)
                .with_fd(fd)
                .with_payload(payload),
        )
        .result
        .ok()?;
    // Wait for the response with a bounded number of polls.
    for _ in 0..100_000 {
        let recv = kernel.execute(
            pid,
            0,
            &SyscallRequest::new(Sysno::Recv)
                .with_fd(fd)
                .with_int(64 * 1024),
        );
        match recv.result {
            Ok(n) if n > 0 => {
                let _ = kernel.execute(pid, 0, &SyscallRequest::new(Sysno::Close).with_fd(fd));
                return Some(recv);
            }
            Ok(_) | Err(_) => std::thread::sleep(std::time::Duration::from_micros(100)),
        }
    }
    let _ = kernel.execute(pid, 0, &SyscallRequest::new(Sysno::Close).with_fd(fd));
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(variants: usize) -> NginxServerConfig {
        NginxServerConfig {
            variants,
            pool_threads: 2,
            requests: 8,
            page_bytes: 1024,
            ..Default::default()
        }
    }

    #[test]
    fn single_variant_server_serves_requests() {
        let report = run_nginx_experiment(&quick_config(1), false);
        assert_eq!(report.completed_requests, 8);
        assert!(!report.diverged);
        assert_eq!(report.attack, AttackOutcome::NotAttempted);
        assert!(report.throughput_rps > 0.0);
    }

    #[test]
    fn two_variant_server_serves_requests_without_divergence() {
        let report = run_nginx_experiment(&quick_config(2), false);
        assert_eq!(
            report.completed_requests, 8,
            "diverged: {}",
            report.diverged
        );
        assert!(!report.diverged);
    }

    #[test]
    fn attack_is_detected_with_two_variants() {
        let report = run_nginx_experiment(&quick_config(2), true);
        assert_eq!(report.attack, AttackOutcome::DetectedAndStopped);
        assert!(report.diverged);
    }

    #[test]
    fn attack_succeeds_against_a_single_unprotected_variant() {
        // Tailored to the only variant's layout, with nobody to compare
        // against: the exploit goes through.
        let report = run_nginx_experiment(&quick_config(1), true);
        assert_eq!(report.attack, AttackOutcome::Compromised);
        assert!(!report.diverged);
    }

    #[test]
    fn gadget_parser_reads_hex_addresses() {
        assert_eq!(
            parse_attack_gadget("GET /\r\nX-Gadget: 0xdeadbeef\r\n"),
            Some(0xdead_beef)
        );
        assert_eq!(parse_attack_gadget("GET / HTTP/1.1"), None);
    }

    #[test]
    fn grouped_placement_serves_requests_without_divergence() {
        let mut config = quick_config(2);
        config.mvee = config
            .mvee
            .with_placement(mvee_core::config::Placement::Grouped);
        let report = run_nginx_experiment(&config, false);
        assert_eq!(
            report.completed_requests, 8,
            "diverged: {}",
            report.diverged
        );
        assert!(!report.diverged);
    }

    #[test]
    fn network_link_lowers_effective_throughput() {
        let loopback = quick_config(1);
        let mut network = quick_config(1);
        network.link = LinkKind::GigabitNetwork;
        let r_loop = run_nginx_experiment(&loopback, false);
        let r_net = run_nginx_experiment(&network, false);
        // The modelled link cost reduces the effective throughput more for
        // the gigabit network than for loopback.
        let loop_ratio = r_loop.effective_throughput_rps / r_loop.throughput_rps;
        let net_ratio = r_net.effective_throughput_rps / r_net.throughput_rps;
        assert!(net_ratio < loop_ratio);
    }
}
