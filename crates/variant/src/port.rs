//! The syscall/sync-op ports a variant thread executes against.
//!
//! The executor is agnostic about whether it runs under the MVEE or
//! natively: it only needs something that accepts system calls and sync-op
//! brackets.  That abstraction is split in two, mirroring the core API:
//!
//! * [`SyscallPort`] — the per-*variant* factory (`Send + Sync`, shared by
//!   all of a variant's OS threads).  Implemented by [`VariantGateway`]
//!   (monitored execution: its [`port`](VariantGateway::port) hands out
//!   the port the configured transport names) and [`NativePort`] (direct
//!   execution against a private kernel, the "native" baseline of the
//!   evaluation).
//! * [`ThreadSyscallPort`] — the per-*thread* handle a factory yields once
//!   per logical thread ([`SyscallPort::thread_port`]), defined in
//!   `mvee_core::port` and re-exported here.  The MVEE implementations are
//!   core's ports; the native implementation is [`NativeThreadPort`].
//!
//! The executor acquires the thread handle once, at thread start, and every
//! subsequent call goes through it without re-stating the thread index —
//! thread identity is a type, not a per-call convention.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mvee_core::monitor::MonitorError;
use mvee_core::mvee::VariantGateway;
pub use mvee_core::port::ThreadSyscallPort;
use mvee_kernel::kernel::Kernel;
use mvee_kernel::process::Pid;
use mvee_kernel::syscall::{SyscallOutcome, SyscallRequest};

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

impl SyscallPort for VariantGateway {
    fn thread_port(&self, thread: usize) -> Box<dyn ThreadSyscallPort> {
        self.port(thread)
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

    fn before_sync_op(&self, _addr: u64) -> Result<(), MonitorError> {
        self.shared.sync_ops.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn after_sync_op(&self, _addr: u64) {}

    fn variant_index(&self) -> usize {
        0
    }

    fn thread_index(&self) -> usize {
        self.thread
    }

    fn is_shut_down(&self) -> bool {
        false
    }
}

impl std::fmt::Debug for NativeThreadPort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeThreadPort")
            .field("thread", &self.thread)
            .finish()
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
        port.before_sync_op(0x1000).unwrap();
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
    fn async_transport_factory_yields_pipelining_ports() {
        // With Transport::AsyncRings configured, the gateway factory hands
        // out ring-backed ports behind the same trait object, and their
        // calls reach the monitor through the poller pool.
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
        assert!(
            format!("{port:?}").starts_with("AsyncThreadPort"),
            "the async transport must hand out a ring port, got {port:?}"
        );
        port.syscall(&SyscallRequest::new(Sysno::Brk).with_int(0))
            .unwrap();
        // Replicated calls stay synchronous on the async transport too.
        assert!(port
            .syscall(&SyscallRequest::new(Sysno::Gettimeofday))
            .unwrap()
            .is_ok());
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
        port.before_sync_op(0x2000).unwrap();
        port.after_sync_op(0x2000);
        let out = port.syscall(&SyscallRequest::new(Sysno::Gettid)).unwrap();
        assert!(out.is_ok());
        assert_eq!(mvee.agent_stats().ops_recorded, 1);
        assert_eq!(mvee.monitor_stats().total_syscalls, 1);
        assert_eq!(port.variant_index(), 0);
        assert_eq!(port.thread_index(), 0);
    }
}
