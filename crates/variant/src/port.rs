//! The syscall/sync-op ports a variant thread executes against.
//!
//! The executor is agnostic about whether it runs under the MVEE or
//! natively: it only needs something that accepts system calls and sync-op
//! brackets.  That abstraction is split in two, mirroring the core API:
//!
//! * [`SyscallPort`] — the per-*variant* factory (`Send + Sync`, shared by
//!   all of a variant's OS threads).  Implemented by
//!   [`VariantGateway`] (monitored
//!   execution) and [`NativePort`] (direct execution against a private
//!   kernel, the "native" baseline of the evaluation).
//! * [`ThreadSyscallPort`] — the per-*thread* handle a factory yields once
//!   per logical thread ([`SyscallPort::thread_port`]).  The MVEE
//!   implementation is [`ThreadPort`], which
//!   caches its shard binding, sequence counter and agent context and owns
//!   its deferred-comparison queue locally; the native implementation is
//!   [`NativeThreadPort`].
//!
//! The executor acquires the thread handle once, at thread start, and every
//! subsequent call goes through it without re-stating the thread index —
//! thread identity is a type, not a per-call convention.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mvee_core::async_port::{AsyncThreadPort, SubmitOutcome, Ticket};
use mvee_core::monitor::MonitorError;
use mvee_core::mvee::VariantGateway;
use mvee_core::port::ThreadPort;
use mvee_core::remote::LeaderPort;
use mvee_kernel::kernel::Kernel;
use mvee_kernel::process::Pid;
use mvee_kernel::syscall::{SyscallOutcome, SyscallRequest};

/// What [`ThreadSyscallPort::submit`] did with a call: either the verdict
/// (the port completed it synchronously) or a ticket to [`reap`] later.
///
/// Mirrors [`SubmitOutcome`] from the core async transport, re-expressed at
/// the trait level so the executor does not need to know which transport is
/// behind the box.
///
/// [`reap`]: ThreadSyscallPort::reap
#[derive(Debug)]
pub enum Submitted {
    /// The call completed synchronously; this is its verdict.
    Done(Result<SyscallOutcome, MonitorError>),
    /// The call was pipelined; reap the verdict with the ticket.
    Pending(Ticket),
}

/// What one variant *thread* calls instead of the kernel.
///
/// Handles are `Send` (acquired by — or moved into — the OS thread that
/// runs the logical thread) but deliberately not required to be `Sync`:
/// the MVEE implementation owns unsynchronized per-thread state.
pub trait ThreadSyscallPort: Send {
    /// Issues a system call on behalf of this port's logical thread.
    fn syscall(&self, req: &SyscallRequest) -> Result<SyscallOutcome, MonitorError>;

    /// Submits a call, possibly without waiting for its verdict.
    ///
    /// Synchronous transports complete every call inline, so the default
    /// simply wraps [`syscall`](Self::syscall) in [`Submitted::Done`].  The
    /// async ring transport pipelines compare-only and uncompared calls as
    /// [`Submitted::Pending`] tickets instead.
    fn submit(&self, req: &SyscallRequest) -> Submitted {
        Submitted::Done(self.syscall(req))
    }

    /// Blocks for — and returns — the verdict of a [`Submitted::Pending`]
    /// ticket.
    ///
    /// # Panics
    ///
    /// The default panics: synchronous transports never hand out tickets,
    /// so reaping one is an executor bug, not a runtime condition.
    fn reap(&self, ticket: Ticket) -> Result<SyscallOutcome, MonitorError> {
        panic!("this port completes calls synchronously; ticket {ticket} was never issued");
    }

    /// Called immediately before a sync op on the variable at `addr`.
    fn before_sync_op(&self, addr: u64);

    /// Called immediately after the sync op on the variable at `addr`.
    fn after_sync_op(&self, addr: u64);

    /// The variant index this port belongs to (0 = master / native).
    fn variant_index(&self) -> usize;

    /// The logical thread index this port is bound to.
    fn thread_index(&self) -> usize;
}

/// The per-variant port factory every variant OS thread draws its
/// [`ThreadSyscallPort`] from.
pub trait SyscallPort: Send + Sync {
    /// Acquires the handle for logical thread `thread`.
    ///
    /// Called once per (variant, thread), from the OS thread that will use
    /// the handle.
    fn thread_port(&self, thread: usize) -> Box<dyn ThreadSyscallPort>;

    /// The variant index this factory belongs to (0 = master / native).
    fn variant_index(&self) -> usize;
}

impl ThreadSyscallPort for ThreadPort {
    fn syscall(&self, req: &SyscallRequest) -> Result<SyscallOutcome, MonitorError> {
        ThreadPort::syscall(self, req)
    }

    fn before_sync_op(&self, addr: u64) {
        ThreadPort::before_sync_op(self, addr)
    }

    fn after_sync_op(&self, addr: u64) {
        ThreadPort::after_sync_op(self, addr)
    }

    fn variant_index(&self) -> usize {
        ThreadPort::variant_index(self)
    }

    fn thread_index(&self) -> usize {
        ThreadPort::thread_index(self)
    }
}

impl ThreadSyscallPort for AsyncThreadPort {
    fn syscall(&self, req: &SyscallRequest) -> Result<SyscallOutcome, MonitorError> {
        AsyncThreadPort::syscall(self, req)
    }

    fn submit(&self, req: &SyscallRequest) -> Submitted {
        match AsyncThreadPort::submit(self, req) {
            SubmitOutcome::Completed(result) => Submitted::Done(result),
            SubmitOutcome::Ticket(ticket) => Submitted::Pending(ticket),
        }
    }

    fn reap(&self, ticket: Ticket) -> Result<SyscallOutcome, MonitorError> {
        AsyncThreadPort::reap(self, ticket)
    }

    fn before_sync_op(&self, addr: u64) {
        AsyncThreadPort::before_sync_op(self, addr)
    }

    fn after_sync_op(&self, addr: u64) {
        AsyncThreadPort::after_sync_op(self, addr)
    }

    fn variant_index(&self) -> usize {
        AsyncThreadPort::variant_index(self)
    }

    fn thread_index(&self) -> usize {
        AsyncThreadPort::thread_index(self)
    }
}

impl ThreadSyscallPort for LeaderPort {
    fn syscall(&self, req: &SyscallRequest) -> Result<SyscallOutcome, MonitorError> {
        LeaderPort::syscall(self, req)
    }

    fn before_sync_op(&self, addr: u64) {
        LeaderPort::before_sync_op(self, addr)
    }

    fn after_sync_op(&self, addr: u64) {
        LeaderPort::after_sync_op(self, addr)
    }

    fn variant_index(&self) -> usize {
        LeaderPort::variant_index(self)
    }

    fn thread_index(&self) -> usize {
        LeaderPort::thread_index(self)
    }
}

impl SyscallPort for VariantGateway {
    /// Transport-aware: yields a synchronous [`ThreadPort`], an
    /// [`AsyncThreadPort`] or — for variant 0 of a distributed MVEE — a
    /// [`LeaderPort`] according to the MVEE's configured
    /// [`Transport`](mvee_core::config::Transport), so executors pick up
    /// the ring or replication transport with no code change.
    fn thread_port(&self, thread: usize) -> Box<dyn ThreadSyscallPort> {
        if self.transport().is_remote() && SyscallPort::variant_index(self) == 0 {
            Box::new(self.leader_thread(thread))
        } else if self.transport().is_async() {
            Box::new(self.async_thread(thread))
        } else {
            Box::new(self.thread(thread))
        }
    }

    fn variant_index(&self) -> usize {
        VariantGateway::variant_index(self)
    }
}

/// Shared state behind a [`NativePort`] and its thread handles.
struct NativeShared {
    kernel: Arc<Kernel>,
    pid: Pid,
    sync_ops: AtomicU64,
    syscalls: AtomicU64,
}

/// Direct, unmonitored execution against a private kernel process.
///
/// This is the "native execution" of the paper's evaluation: no monitor, no
/// replication, no sync-op ordering — only the raw work of the program.
#[derive(Clone)]
pub struct NativePort {
    shared: Arc<NativeShared>,
}

impl NativePort {
    /// Creates a native port over an existing kernel process.
    pub fn new(kernel: Arc<Kernel>, pid: Pid) -> Self {
        NativePort {
            shared: Arc::new(NativeShared {
                kernel,
                pid,
                sync_ops: AtomicU64::new(0),
                syscalls: AtomicU64::new(0),
            }),
        }
    }

    /// Number of sync ops the program executed.
    pub fn sync_op_count(&self) -> u64 {
        self.shared.sync_ops.load(Ordering::Relaxed)
    }

    /// Number of system calls the program executed.
    pub fn syscall_count(&self) -> u64 {
        self.shared.syscalls.load(Ordering::Relaxed)
    }

    /// The kernel backing this port.
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.shared.kernel
    }

    /// The kernel process id.
    pub fn pid(&self) -> Pid {
        self.shared.pid
    }
}

impl SyscallPort for NativePort {
    fn thread_port(&self, thread: usize) -> Box<dyn ThreadSyscallPort> {
        Box::new(NativeThreadPort {
            shared: Arc::clone(&self.shared),
            thread,
        })
    }

    fn variant_index(&self) -> usize {
        0
    }
}

/// One native thread's handle: executes directly against the kernel,
/// counting into the factory's shared counters.
pub struct NativeThreadPort {
    shared: Arc<NativeShared>,
    thread: usize,
}

impl ThreadSyscallPort for NativeThreadPort {
    fn syscall(&self, req: &SyscallRequest) -> Result<SyscallOutcome, MonitorError> {
        self.shared.syscalls.fetch_add(1, Ordering::Relaxed);
        Ok(self
            .shared
            .kernel
            .execute(self.shared.pid, self.thread as u64, req))
    }

    fn before_sync_op(&self, _addr: u64) {
        self.shared.sync_ops.fetch_add(1, Ordering::Relaxed);
    }

    fn after_sync_op(&self, _addr: u64) {}

    fn variant_index(&self) -> usize {
        0
    }

    fn thread_index(&self) -> usize {
        self.thread
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvee_kernel::syscall::Sysno;

    #[test]
    fn native_port_executes_directly_and_counts() {
        let kernel = Arc::new(Kernel::new_manual_clock());
        let pid = kernel.spawn_process();
        let factory = NativePort::new(Arc::clone(&kernel), pid);
        let port = factory.thread_port(0);
        let out = port.syscall(&SyscallRequest::new(Sysno::Getpid)).unwrap();
        assert!(out.is_ok());
        port.before_sync_op(0x1000);
        port.after_sync_op(0x1000);
        assert_eq!(factory.syscall_count(), 1);
        assert_eq!(factory.sync_op_count(), 1);
        assert_eq!(port.variant_index(), 0);
        assert_eq!(port.thread_index(), 0);
        assert_eq!(factory.pid(), pid);
    }

    #[test]
    fn native_thread_ports_share_the_factory_counters() {
        let kernel = Arc::new(Kernel::new_manual_clock());
        let pid = kernel.spawn_process();
        let factory = NativePort::new(Arc::clone(&kernel), pid);
        for t in 0..3 {
            let port = factory.thread_port(t);
            port.syscall(&SyscallRequest::new(Sysno::Gettid)).unwrap();
        }
        assert_eq!(factory.syscall_count(), 3);
    }

    #[test]
    fn sync_ports_complete_submissions_inline() {
        // The trait's default `submit` wraps `syscall`: a synchronous port
        // never hands out tickets.
        let kernel = Arc::new(Kernel::new_manual_clock());
        let pid = kernel.spawn_process();
        let factory = NativePort::new(Arc::clone(&kernel), pid);
        let port = factory.thread_port(0);
        match port.submit(&SyscallRequest::new(Sysno::Getpid)) {
            Submitted::Done(result) => assert!(result.unwrap().is_ok()),
            Submitted::Pending(_) => panic!("sync ports must complete inline"),
        }
    }

    #[test]
    fn async_transport_factory_yields_pipelining_ports() {
        // With Transport::AsyncRings configured, the gateway factory hands
        // out ring-backed ports behind the same trait object, and
        // compare-only calls come back as tickets.
        let mvee = mvee_core::mvee::Mvee::builder()
            .variants(1)
            .transport(mvee_core::config::Transport::AsyncRings {
                depth: 8,
                pollers: mvee_core::config::Pollers::Pool(1),
            })
            .manual_clock(true)
            .build();
        let gw = mvee.gateway(0);
        let factory: &dyn SyscallPort = &gw;
        let port = factory.thread_port(0);
        match port.submit(&SyscallRequest::new(Sysno::Brk).with_int(0)) {
            Submitted::Pending(ticket) => {
                port.reap(ticket).unwrap();
            }
            Submitted::Done(_) => panic!("the async transport must pipeline brk"),
        }
        // Replicated calls stay synchronous even on the async transport.
        match port.submit(&SyscallRequest::new(Sysno::Gettimeofday)) {
            Submitted::Done(result) => assert!(result.unwrap().is_ok()),
            Submitted::Pending(_) => panic!("replicated calls must block at the reap point"),
        }
        drop(port);
        assert_eq!(mvee.monitor_stats().total_syscalls, 2);
    }

    #[test]
    fn gateway_port_routes_through_monitor_and_agent() {
        let mvee = mvee_core::mvee::Mvee::builder()
            .variants(1)
            .manual_clock(true)
            .build();
        let gw = mvee.gateway(0);
        let factory: &dyn SyscallPort = &gw;
        let port = factory.thread_port(0);
        port.before_sync_op(0x2000);
        port.after_sync_op(0x2000);
        let out = port.syscall(&SyscallRequest::new(Sysno::Gettid)).unwrap();
        assert!(out.is_ok());
        assert_eq!(mvee.agent_stats().ops_recorded, 1);
        assert_eq!(mvee.monitor_stats().total_syscalls, 1);
        assert_eq!(port.variant_index(), 0);
        assert_eq!(port.thread_index(), 0);
    }
}
