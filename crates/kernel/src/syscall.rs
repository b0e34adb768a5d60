//! System-call model: numbers, arguments, requests and outcomes.
//!
//! The MVEE monitor compares variants at the granularity of system calls, so
//! the representation here is what the divergence detector operates on.  A
//! [`SyscallRequest`] carries the syscall number, the argument list and the
//! outgoing data payload (for writes); a [`SyscallOutcome`] carries the return
//! value and the incoming data payload (for reads).
//!
//! Each syscall number also carries a *monitoring classification*
//! ([`Sysno::class`]) that drives the monitor's policy decisions:
//!
//! * which calls are **I/O** (executed once by the master, results replicated),
//! * which calls are **blocking** (exempt from the ordering critical section,
//!   §4.1 of the paper),
//! * which calls are **security sensitive** (always locksteped even under the
//!   relaxed policies evaluated in §5.1),
//! * which calls must be **ordered** with the syscall ordering clock.

use serde::{Deserialize, Serialize};

use crate::error::Errno;

/// System call numbers understood by the simulated kernel.
///
/// The set is the union of the calls the paper's benchmarks and the nginx use
/// case exercise, plus [`Sysno::MveeSelfAware`], the pseudo system call the
/// paper adds so that the injected agent can learn whether it runs in the
/// master or in a slave variant (§4.5: "we added a new system call that
/// allows the variants to become self-aware").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Sysno {
    Read,
    Write,
    Open,
    Close,
    Stat,
    Fstat,
    Lseek,
    Mmap,
    Mprotect,
    Munmap,
    Brk,
    Pipe,
    Dup,
    Socket,
    Bind,
    Listen,
    Accept,
    Connect,
    Send,
    Recv,
    Shutdown,
    FutexWait,
    FutexWake,
    Clone,
    Exit,
    ExitGroup,
    Gettimeofday,
    ClockGettime,
    Getpid,
    Gettid,
    SchedYield,
    Nanosleep,
    /// Pins the calling thread to a CPU core (the arg carries the core
    /// index).  The simulated kernel records the assignment per (process,
    /// thread); variant programs issue it like any other call.
    SchedSetaffinity,
    Getrandom,
    Madvise,
    Fcntl,
    Ioctl,
    Readlink,
    Access,
    Unlink,
    Rename,
    Mkdir,
    Epoll,
    Poll,
    Sendfile,
    Writev,
    /// The MVEE self-awareness pseudo call.  It does not exist in the real
    /// kernel; the monitor intercepts it and answers with the variant's role.
    MveeSelfAware,
    /// Placeholder for an unknown/unsupported call; the kernel answers ENOSYS.
    Unknown(u32),
}

/// Coarse monitoring classification of a system call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SyscallClass {
    /// Input/output: performed once by the master, results replicated.
    Io,
    /// Modifies the address space (`brk`, `mmap`, ...): executed by every
    /// variant against its own address space, but ordered and compared.
    AddressSpace,
    /// Process / thread management (`clone`, `exit`, ...).
    Process,
    /// Queries that return identical data in all variants (time, pid).
    ReadOnlyInfo,
    /// Blocking synchronization (futex): treated like I/O, never wrapped in an
    /// ordering critical section (paper §4.1).
    BlockingSync,
    /// Scheduling hints with no externally visible effect.
    SchedulerHint,
    /// The MVEE self-awareness pseudo call.
    MveePrivate,
    /// Anything the simulated kernel does not implement.
    Unsupported,
}

impl Sysno {
    /// Returns the monitoring classification for this call.
    pub fn class(self) -> SyscallClass {
        use Sysno::*;
        match self {
            Read | Write | Open | Close | Stat | Fstat | Lseek | Pipe | Dup | Socket | Bind
            | Listen | Accept | Connect | Send | Recv | Shutdown | Fcntl | Ioctl | Readlink
            | Access | Unlink | Rename | Mkdir | Epoll | Poll | Sendfile | Writev => {
                SyscallClass::Io
            }
            Mmap | Mprotect | Munmap | Brk | Madvise => SyscallClass::AddressSpace,
            Clone | Exit | ExitGroup => SyscallClass::Process,
            Gettimeofday | ClockGettime | Getpid | Gettid | Getrandom => SyscallClass::ReadOnlyInfo,
            FutexWait | FutexWake => SyscallClass::BlockingSync,
            SchedYield | Nanosleep | SchedSetaffinity => SyscallClass::SchedulerHint,
            MveeSelfAware => SyscallClass::MveePrivate,
            Unknown(_) => SyscallClass::Unsupported,
        }
    }

    /// Whether the call performs externally visible I/O.
    ///
    /// I/O calls are executed only by the master variant; the monitor copies
    /// the results to the slaves so that all variants observe consistent
    /// inputs (paper §2 and §4.1).
    pub fn is_io(self) -> bool {
        matches!(self.class(), SyscallClass::Io)
    }

    /// Whether the call may block indefinitely in the kernel.
    ///
    /// Blocking calls cannot be wrapped in the syscall-ordering critical
    /// section because the monitor could never leave the section (paper
    /// §4.1 "Limitations").
    pub fn may_block(self) -> bool {
        matches!(
            self,
            Sysno::FutexWait
                | Sysno::Accept
                | Sysno::Recv
                | Sysno::Read
                | Sysno::Poll
                | Sysno::Epoll
                | Sysno::Nanosleep
        )
    }

    /// Whether the call must be assigned a timestamp on the syscall ordering
    /// clock (paper §4.1).
    ///
    /// Ordering applies to non-blocking calls whose results can depend on the
    /// relative order of other threads' calls within the same variant:
    /// everything that touches shared kernel resources (the FD table, the
    /// address space, the file system name space).
    pub fn needs_ordering(self) -> bool {
        if self.may_block() {
            return false;
        }
        matches!(
            self.class(),
            SyscallClass::Io | SyscallClass::AddressSpace | SyscallClass::Process
        )
    }

    /// Whether the call is security sensitive.
    ///
    /// The paper evaluates monitoring policies "ranging from strict
    /// lockstepping on all system calls to lockstepping only on
    /// security-sensitive system calls" (§5.1).  The sensitive set is the
    /// calls that create new channels to the outside world or change memory
    /// protections.
    pub fn is_security_sensitive(self) -> bool {
        matches!(
            self,
            Sysno::Open
                | Sysno::Write
                | Sysno::Mmap
                | Sysno::Mprotect
                | Sysno::Socket
                | Sysno::Connect
                | Sysno::Bind
                | Sysno::Send
                | Sysno::Sendfile
                | Sysno::Writev
                | Sysno::Clone
                | Sysno::Unlink
                | Sysno::Rename
                | Sysno::ExitGroup
        )
    }

    /// Returns a stable lower-case name, used in traces and reports.
    pub fn name(self) -> &'static str {
        use Sysno::*;
        match self {
            Read => "read",
            Write => "write",
            Open => "open",
            Close => "close",
            Stat => "stat",
            Fstat => "fstat",
            Lseek => "lseek",
            Mmap => "mmap",
            Mprotect => "mprotect",
            Munmap => "munmap",
            Brk => "brk",
            Pipe => "pipe",
            Dup => "dup",
            Socket => "socket",
            Bind => "bind",
            Listen => "listen",
            Accept => "accept",
            Connect => "connect",
            Send => "send",
            Recv => "recv",
            Shutdown => "shutdown",
            FutexWait => "futex_wait",
            FutexWake => "futex_wake",
            Clone => "clone",
            Exit => "exit",
            ExitGroup => "exit_group",
            Gettimeofday => "gettimeofday",
            ClockGettime => "clock_gettime",
            Getpid => "getpid",
            Gettid => "gettid",
            SchedYield => "sched_yield",
            Nanosleep => "nanosleep",
            SchedSetaffinity => "sched_setaffinity",
            Getrandom => "getrandom",
            Madvise => "madvise",
            Fcntl => "fcntl",
            Ioctl => "ioctl",
            Readlink => "readlink",
            Access => "access",
            Unlink => "unlink",
            Rename => "rename",
            Mkdir => "mkdir",
            Epoll => "epoll",
            Poll => "poll",
            Sendfile => "sendfile",
            Writev => "writev",
            MveeSelfAware => "mvee_self_aware",
            Unknown(_) => "unknown",
        }
    }
}

/// A single system-call argument.
///
/// Pointer-valued arguments are represented by what they *point to* (paths,
/// buffers), plus the raw address, because a security-oriented MVEE compares
/// the pointed-to contents, not the (diversified, hence differing) pointer
/// values themselves.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SyscallArg {
    /// A plain integer argument (sizes, offsets, fds).
    Int(i64),
    /// A file descriptor.  Distinguished from `Int` because FD values are
    /// replicated from the master under some policies.
    Fd(i32),
    /// A flags bitfield.
    Flags(u64),
    /// A pointer argument: the raw (per-variant, diversified) address.
    /// The monitor never compares the address itself.
    Pointer(u64),
    /// A path name (the contents pointed to by a `const char *` argument).
    Path(String),
    /// An opaque byte-buffer length (the buffer contents travel in
    /// [`SyscallRequest::payload`]).
    BufLen(usize),
}

impl SyscallArg {
    /// Whether the argument participates in cross-variant comparison.
    ///
    /// Raw pointer values differ between diversified variants by design
    /// (ASLR / DCL), so the monitor skips them; everything else must match.
    pub fn is_compared(&self) -> bool {
        !matches!(self, SyscallArg::Pointer(_))
    }
}

/// A system call as issued by a variant thread.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyscallRequest {
    /// The call number.
    pub no: Sysno,
    /// The arguments, in ABI order.
    pub args: Vec<SyscallArg>,
    /// Outgoing data (e.g. the buffer passed to `write`/`send`).
    pub payload: Vec<u8>,
}

impl SyscallRequest {
    /// Creates a request with no arguments.
    pub fn new(no: Sysno) -> Self {
        SyscallRequest {
            no,
            args: Vec::new(),
            payload: Vec::new(),
        }
    }

    /// Appends an argument (builder style).
    pub fn with_arg(mut self, arg: SyscallArg) -> Self {
        self.args.push(arg);
        self
    }

    /// Appends a path argument (builder style).
    pub fn with_path(self, path: &str) -> Self {
        self.with_arg(SyscallArg::Path(path.to_string()))
    }

    /// Appends an integer argument (builder style).
    pub fn with_int(self, v: i64) -> Self {
        self.with_arg(SyscallArg::Int(v))
    }

    /// Appends a file-descriptor argument (builder style).
    pub fn with_fd(self, fd: i32) -> Self {
        self.with_arg(SyscallArg::Fd(fd))
    }

    /// Sets the outgoing payload (builder style).
    pub fn with_payload(mut self, data: &[u8]) -> Self {
        self.payload = data.to_vec();
        self
    }

    /// Returns the comparison key used by the divergence detector: the call
    /// number plus every compared argument plus a digest of the payload.
    ///
    /// Two requests from equivalent threads in different variants must have
    /// equal comparison keys or the monitor declares divergence.
    pub fn comparison_key(&self) -> ComparisonKey {
        ComparisonKey {
            no: self.no,
            args: self
                .args
                .iter()
                .filter(|a| a.is_compared())
                .cloned()
                .collect(),
            payload_digest: fnv1a(&self.payload),
            payload_len: self.payload.len(),
        }
    }
}

/// The normalized view of a request that is compared across variants.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ComparisonKey {
    /// Call number.
    pub no: Sysno,
    /// Compared (non-pointer) arguments.
    pub args: Vec<SyscallArg>,
    /// FNV-1a digest of the outgoing payload.
    pub payload_digest: u64,
    /// Length of the outgoing payload.
    pub payload_len: usize,
}

/// The kernel's answer to a system call.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyscallOutcome {
    /// The return value (`Ok(value)`), or the error number.
    pub result: Result<i64, Errno>,
    /// Incoming data (e.g. the bytes produced by `read`/`recv`).
    pub payload: Vec<u8>,
}

impl SyscallOutcome {
    /// A successful outcome with the given return value and no payload.
    pub fn ok(value: i64) -> Self {
        SyscallOutcome {
            result: Ok(value),
            payload: Vec::new(),
        }
    }

    /// A successful outcome carrying data back to the caller.
    pub fn ok_with_payload(value: i64, payload: Vec<u8>) -> Self {
        SyscallOutcome {
            result: Ok(value),
            payload,
        }
    }

    /// A failed outcome.
    pub fn err(errno: Errno) -> Self {
        SyscallOutcome {
            result: Err(errno),
            payload: Vec::new(),
        }
    }

    /// The value as it would appear in the return register.
    pub fn raw_return(&self) -> i64 {
        match self.result {
            Ok(v) => v,
            Err(e) => e.as_syscall_ret(),
        }
    }

    /// Whether the call succeeded.
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }
}

/// FNV-1a hash, used for payload digests and sync-variable-to-clock hashing.
///
/// Chosen because the paper requires a "cheap hash function" (§4.5) and
/// because it is deterministic across runs (no per-process seed), which the
/// reproduction harness relies on.
pub fn fnv1a(data: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_calls_are_classified_as_io() {
        assert!(Sysno::Read.is_io());
        assert!(Sysno::Write.is_io());
        assert!(Sysno::Open.is_io());
        assert!(Sysno::Accept.is_io());
        assert!(!Sysno::Brk.is_io());
        assert!(!Sysno::FutexWait.is_io());
        assert!(!Sysno::Gettimeofday.is_io());
    }

    #[test]
    fn blocking_calls_are_never_ordered() {
        // Paper §4.1: "we cannot order blocking system calls".
        for s in [Sysno::FutexWait, Sysno::Accept, Sysno::Recv, Sysno::Poll] {
            assert!(s.may_block());
            assert!(!s.needs_ordering(), "{:?} must not be ordered", s);
        }
    }

    #[test]
    fn address_space_calls_are_ordered() {
        for s in [Sysno::Brk, Sysno::Mmap, Sysno::Mprotect, Sysno::Munmap] {
            assert!(s.needs_ordering(), "{:?} must be ordered", s);
        }
    }

    #[test]
    fn self_aware_call_is_private() {
        assert_eq!(Sysno::MveeSelfAware.class(), SyscallClass::MveePrivate);
        assert!(!Sysno::MveeSelfAware.needs_ordering());
    }

    #[test]
    fn security_sensitive_set_contains_mprotect_and_socket() {
        assert!(Sysno::Mprotect.is_security_sensitive());
        assert!(Sysno::Socket.is_security_sensitive());
        assert!(Sysno::Write.is_security_sensitive());
        assert!(!Sysno::Gettid.is_security_sensitive());
        assert!(!Sysno::SchedYield.is_security_sensitive());
    }

    #[test]
    fn pointer_args_are_not_compared() {
        assert!(!SyscallArg::Pointer(0xdead_beef).is_compared());
        assert!(SyscallArg::Int(42).is_compared());
        assert!(SyscallArg::Path("/etc/passwd".into()).is_compared());
    }

    #[test]
    fn comparison_key_ignores_pointer_values() {
        let a = SyscallRequest::new(Sysno::Write)
            .with_fd(1)
            .with_arg(SyscallArg::Pointer(0x1000))
            .with_payload(b"hello");
        let b = SyscallRequest::new(Sysno::Write)
            .with_fd(1)
            .with_arg(SyscallArg::Pointer(0x7fff_0000))
            .with_payload(b"hello");
        assert_eq!(a.comparison_key(), b.comparison_key());
    }

    #[test]
    fn comparison_key_detects_payload_difference() {
        let a = SyscallRequest::new(Sysno::Write)
            .with_fd(1)
            .with_payload(b"aaaa");
        let b = SyscallRequest::new(Sysno::Write)
            .with_fd(1)
            .with_payload(b"aaab");
        assert_ne!(a.comparison_key(), b.comparison_key());
    }

    #[test]
    fn comparison_key_detects_different_fd() {
        let a = SyscallRequest::new(Sysno::Write).with_fd(1);
        let b = SyscallRequest::new(Sysno::Write).with_fd(2);
        assert_ne!(a.comparison_key(), b.comparison_key());
    }

    #[test]
    fn outcome_raw_return_encodes_errno() {
        assert_eq!(SyscallOutcome::ok(7).raw_return(), 7);
        assert_eq!(SyscallOutcome::err(Errno::Enoent).raw_return(), -2);
    }

    #[test]
    fn fnv1a_is_deterministic_and_discriminating() {
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Sysno::Open.name(), "open");
        assert_eq!(Sysno::FutexWait.name(), "futex_wait");
        assert_eq!(Sysno::MveeSelfAware.name(), "mvee_self_aware");
    }
}
