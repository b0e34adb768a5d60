//! The simulated kernel: global state plus the syscall execution engine.
//!
//! [`Kernel`] owns one [`Process`] per variant, a shared [`Vfs`], a
//! [`NetworkStack`], per-process [`FutexTable`]s and a [`VirtualClock`].
//! The MVEE monitor calls [`Kernel::execute`] for every system call it
//! decides to forward; divergence detection and result replication happen
//! in the monitor, not here.
//!
//! The kernel is fully thread-safe: monitor threads for different variant
//! threads call into it concurrently, just as threads of a real process
//! enter the real kernel concurrently.

use parking_lot::Mutex;

use crate::error::{Errno, KernelResult};
use crate::fd::FdObject;
use crate::futex::{FutexTable, FutexWaitResult};
use crate::mem::Protection;
use crate::net::{LinkKind, NetworkStack};
use crate::process::{Pid, Process, Tid};
use crate::syscall::{SyscallArg, SyscallOutcome, SyscallRequest, Sysno};
use crate::time::VirtualClock;
use crate::vfs::{OpenFlags, Vfs};

/// Statistics the benchmark harness reads after a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct KernelStats {
    /// Total number of system calls executed.
    pub syscalls_executed: u64,
    /// Number of calls that failed.
    pub syscalls_failed: u64,
    /// Number of futex waits that blocked.
    pub futex_blocks: u64,
    /// Number of futex wake-ups delivered.
    pub futex_wakeups: u64,
}

struct KernelState {
    processes: Vec<Process>,
    vfs: Vfs,
    net: NetworkStack,
    futexes: FutexTable,
    stats: KernelStats,
    /// Captured stdout/stderr writes per process, for output verification.
    console: Vec<Vec<u8>>,
    /// Deterministic PRNG state for `getrandom`.
    random_state: u64,
}

/// The simulated kernel.
pub struct Kernel {
    state: Mutex<KernelState>,
    clock: VirtualClock,
}

impl Kernel {
    /// Creates a kernel with a wall-clock time source.
    pub fn new() -> Self {
        Self::with_clock(VirtualClock::new_wall())
    }

    /// Creates a kernel with a manually driven clock (for deterministic tests
    /// and the covert-channel experiments).
    pub fn new_manual_clock() -> Self {
        Self::with_clock(VirtualClock::new_manual())
    }

    fn with_clock(clock: VirtualClock) -> Self {
        Kernel {
            state: Mutex::new(KernelState {
                processes: Vec::new(),
                vfs: Vfs::new(),
                net: NetworkStack::new(),
                futexes: FutexTable::new(),
                stats: KernelStats::default(),
                console: Vec::new(),
                random_state: 0x9e37_79b9_7f4a_7c15,
            }),
            clock,
        }
    }

    /// Access to the kernel's clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Spawns a new process (one per variant) and returns its pid.
    pub fn spawn_process(&self) -> Pid {
        let mut st = self.state.lock();
        let pid = st.processes.len() as Pid;
        st.processes.push(Process::new(pid));
        st.console.push(Vec::new());
        pid
    }

    /// Spawns a process with a diversified address-space layout.
    pub fn spawn_process_with_layout(&self, brk_base: u64, mmap_top: u64) -> Pid {
        let mut st = self.state.lock();
        let pid = st.processes.len() as Pid;
        st.processes.push(Process::with_address_space(
            pid,
            crate::mem::AddressSpace::with_layout(brk_base, mmap_top),
        ));
        st.console.push(Vec::new());
        pid
    }

    /// Pre-populates a file in the VFS (workload setup).
    pub fn install_file(&self, path: &str, contents: &[u8]) {
        self.state.lock().vfs.install_file(path, contents);
    }

    /// Returns everything a process has written to stdout/stderr so far.
    pub fn console_output(&self, pid: Pid) -> Vec<u8> {
        self.state
            .lock()
            .console
            .get(pid as usize)
            .cloned()
            .unwrap_or_default()
    }

    /// Returns a snapshot of the kernel statistics.
    pub fn stats(&self) -> KernelStats {
        let st = self.state.lock();
        let mut s = st.stats;
        s.futex_blocks = st.futexes.blocked_wait_count();
        s.futex_wakeups = st.futexes.wakeup_count();
        s
    }

    /// Number of live (non-exited) processes.
    pub fn live_processes(&self) -> usize {
        self.state
            .lock()
            .processes
            .iter()
            .filter(|p| !p.has_exited())
            .count()
    }

    /// Whether the given process has a writable+executable mapping — the
    /// post-condition a code-injection attack needs.
    pub fn process_has_wx_mapping(&self, pid: Pid) -> bool {
        self.state
            .lock()
            .processes
            .get(pid as usize)
            .map(|p| p.mem.has_wx_region())
            .unwrap_or(false)
    }

    /// The CPU core thread `tid` of `pid` is pinned to, if a
    /// `sched_setaffinity` call recorded one.
    pub fn thread_affinity(&self, pid: Pid, tid: Tid) -> Option<u32> {
        self.state
            .lock()
            .processes
            .get(pid as usize)
            .and_then(|p| p.affinity(tid))
    }

    /// Total system calls issued by `pid`.
    pub fn process_syscall_count(&self, pid: Pid) -> u64 {
        self.state
            .lock()
            .processes
            .get(pid as usize)
            .map(|p| p.total_syscalls())
            .unwrap_or(0)
    }

    /// Captures a point-in-time image of `pid`'s private state (descriptor
    /// table, address space, threads, affinity, exit status).
    ///
    /// Shared kernel state — VFS contents, pipe buffers, socket queues, the
    /// virtual clock, futex wait queues — is *not* captured: it belongs to
    /// the whole variant set, and on restore the process rejoins whatever
    /// frontier the surviving variants have advanced it to.
    pub fn capture_process(&self, pid: Pid) -> Option<crate::process::ProcessImage> {
        self.state
            .lock()
            .processes
            .get(pid as usize)
            .map(|p| p.capture())
    }

    /// Restores `pid`'s private state from a previously captured image.
    ///
    /// Returns `false` when `pid` does not exist.  See
    /// [`Self::capture_process`] for what the image does and does not cover.
    pub fn restore_process(&self, pid: Pid, image: &crate::process::ProcessImage) -> bool {
        match self.state.lock().processes.get_mut(pid as usize) {
            Some(p) => {
                p.restore(image);
                true
            }
            None => false,
        }
    }

    /// Executes one system call on behalf of thread `tid` of process `pid`.
    ///
    /// The call is executed exactly as issued; whether it *should* be
    /// executed (versus replicated from the master) is the monitor's
    /// decision.
    pub fn execute(&self, pid: Pid, tid: Tid, req: &SyscallRequest) -> SyscallOutcome {
        let mut st = self.state.lock();
        st.stats.syscalls_executed += 1;
        if let Some(p) = st.processes.get_mut(pid as usize) {
            p.count_syscall(tid);
        }
        let out = Self::dispatch(&mut st, &self.clock, pid, tid, req);
        if out.result.is_err() {
            st.stats.syscalls_failed += 1;
        }
        out
    }

    fn dispatch(
        st: &mut KernelState,
        clock: &VirtualClock,
        pid: Pid,
        tid: Tid,
        req: &SyscallRequest,
    ) -> SyscallOutcome {
        match Self::dispatch_inner(st, clock, pid, tid, req) {
            Ok(out) => out,
            Err(e) => SyscallOutcome::err(e),
        }
    }

    fn dispatch_inner(
        st: &mut KernelState,
        clock: &VirtualClock,
        pid: Pid,
        tid: Tid,
        req: &SyscallRequest,
    ) -> KernelResult<SyscallOutcome> {
        match req.no {
            Sysno::Open => Self::sys_open(st, pid, req),
            Sysno::Close => Self::sys_close(st, pid, req),
            Sysno::Read => Self::sys_read(st, pid, req),
            Sysno::Write | Sysno::Writev => Self::sys_write(st, pid, req),
            Sysno::Stat => Self::sys_stat(st, req),
            Sysno::Fstat => Self::sys_fstat(st, pid, req),
            Sysno::Lseek => Self::sys_lseek(st, pid, req),
            Sysno::Brk => Self::sys_brk(st, pid, req),
            Sysno::Mmap => Self::sys_mmap(st, pid, req),
            Sysno::Munmap => Self::sys_munmap(st, pid, req),
            Sysno::Mprotect => Self::sys_mprotect(st, pid, req),
            Sysno::Madvise => Ok(SyscallOutcome::ok(0)),
            Sysno::Pipe => Self::sys_pipe(st, pid),
            Sysno::Dup => Self::sys_dup(st, pid, req),
            Sysno::Socket => Self::sys_socket(st, pid),
            Sysno::Bind => Self::sys_bind(st, pid, req),
            Sysno::Listen => Self::sys_listen(st, pid, req),
            Sysno::Accept => Self::sys_accept(st, pid, req),
            Sysno::Connect => Self::sys_connect(st, pid, req),
            Sysno::Send => Self::sys_send(st, pid, req),
            Sysno::Recv => Self::sys_recv(st, pid, req),
            Sysno::Shutdown => Self::sys_shutdown(st, pid, req),
            Sysno::FutexWait => Self::sys_futex_wait(st, pid, tid, req),
            Sysno::FutexWake => Self::sys_futex_wake(st, pid, req),
            Sysno::Clone => Self::sys_clone(st, pid),
            Sysno::Exit => Self::sys_exit(st, pid, tid, req),
            Sysno::ExitGroup => Self::sys_exit_group(st, pid, req),
            Sysno::Gettimeofday | Sysno::ClockGettime => Ok(SyscallOutcome::ok_with_payload(
                0,
                clock.clock_gettime().to_le_bytes().to_vec(),
            )),
            Sysno::Getpid => Ok(SyscallOutcome::ok(pid as i64 + 1000)),
            Sysno::Gettid => Ok(SyscallOutcome::ok(tid as i64 + 1000)),
            Sysno::SchedYield => Ok(SyscallOutcome::ok(0)),
            Sysno::Nanosleep => Ok(SyscallOutcome::ok(0)),
            Sysno::SchedSetaffinity => {
                let core = Self::arg_int(req, 0)?.max(0) as u32;
                if let Some(p) = st.processes.get_mut(pid as usize) {
                    p.set_affinity(tid, core);
                }
                Ok(SyscallOutcome::ok(0))
            }
            Sysno::Getrandom => Self::sys_getrandom(st, req),
            Sysno::Fcntl | Sysno::Ioctl => Ok(SyscallOutcome::ok(0)),
            Sysno::Access => Self::sys_access(st, req),
            Sysno::Readlink => Ok(SyscallOutcome::err(Errno::Enoent)),
            Sysno::Unlink => Self::sys_unlink(st, req),
            Sysno::Rename => Self::sys_rename(st, req),
            Sysno::Mkdir => Self::sys_mkdir(st, req),
            Sysno::Epoll | Sysno::Poll => Ok(SyscallOutcome::ok(0)),
            Sysno::Sendfile => Self::sys_sendfile(st, pid, req),
            // The self-awareness pseudo call is answered by the monitor; a
            // real kernel (and this model) does not implement it.
            Sysno::MveeSelfAware => Ok(SyscallOutcome::err(Errno::Enosys)),
            Sysno::Unknown(_) => Ok(SyscallOutcome::err(Errno::Enosys)),
        }
    }

    // ---- argument helpers ----------------------------------------------

    fn arg_path(req: &SyscallRequest, idx: usize) -> KernelResult<&str> {
        match req.args.get(idx) {
            Some(SyscallArg::Path(p)) => Ok(p),
            _ => Err(Errno::Efault),
        }
    }

    fn arg_int(req: &SyscallRequest, idx: usize) -> KernelResult<i64> {
        match req.args.get(idx) {
            Some(SyscallArg::Int(v)) => Ok(*v),
            Some(SyscallArg::Fd(v)) => Ok(i64::from(*v)),
            Some(SyscallArg::Flags(v)) => Ok(*v as i64),
            Some(SyscallArg::BufLen(v)) => Ok(*v as i64),
            Some(SyscallArg::Pointer(v)) => Ok(*v as i64),
            _ => Err(Errno::Einval),
        }
    }

    fn arg_fd(req: &SyscallRequest, idx: usize) -> KernelResult<i32> {
        match req.args.get(idx) {
            Some(SyscallArg::Fd(v)) => Ok(*v),
            Some(SyscallArg::Int(v)) => Ok(*v as i32),
            _ => Err(Errno::Ebadf),
        }
    }

    fn arg_flags(req: &SyscallRequest, idx: usize) -> u64 {
        match req.args.get(idx) {
            Some(SyscallArg::Flags(v)) => *v,
            Some(SyscallArg::Int(v)) => *v as u64,
            _ => 0,
        }
    }

    fn arg_ptr(req: &SyscallRequest, idx: usize) -> KernelResult<u64> {
        match req.args.get(idx) {
            Some(SyscallArg::Pointer(v)) => Ok(*v),
            Some(SyscallArg::Int(v)) => Ok(*v as u64),
            _ => Err(Errno::Efault),
        }
    }

    fn process_mut(st: &mut KernelState, pid: Pid) -> KernelResult<&mut Process> {
        st.processes.get_mut(pid as usize).ok_or(Errno::Eperm)
    }

    // ---- file system ------------------------------------------------------

    fn sys_open(
        st: &mut KernelState,
        pid: Pid,
        req: &SyscallRequest,
    ) -> KernelResult<SyscallOutcome> {
        let path = Self::arg_path(req, 0)?.to_string();
        let flags = OpenFlags::from_bits(Self::arg_flags(req, 1));
        let inode = st.vfs.open(&path, flags)?;
        let writable = flags.contains(OpenFlags::WRITE) || flags.contains(OpenFlags::APPEND);
        let proc = Self::process_mut(st, pid)?;
        let fd = proc.fds.allocate(FdObject::File {
            inode,
            offset: 0,
            writable,
        })?;
        Ok(SyscallOutcome::ok(i64::from(fd)))
    }

    fn sys_close(
        st: &mut KernelState,
        pid: Pid,
        req: &SyscallRequest,
    ) -> KernelResult<SyscallOutcome> {
        let fd = Self::arg_fd(req, 0)?;
        let obj = Self::process_mut(st, pid)?.fds.close(fd)?;
        match obj {
            FdObject::PipeRead { pipe } => st.vfs.pipe_close(pipe, true)?,
            FdObject::PipeWrite { pipe } => st.vfs.pipe_close(pipe, false)?,
            FdObject::Socket { socket } => st.net.close(socket)?,
            _ => {}
        }
        Ok(SyscallOutcome::ok(0))
    }

    fn sys_read(
        st: &mut KernelState,
        pid: Pid,
        req: &SyscallRequest,
    ) -> KernelResult<SyscallOutcome> {
        let fd = Self::arg_fd(req, 0)?;
        let len = Self::arg_int(req, 1).unwrap_or(0).max(0) as usize;
        let obj = {
            let proc = Self::process_mut(st, pid)?;
            proc.fds.get(fd)?.clone()
        };
        match obj {
            FdObject::File { inode, offset, .. } => {
                let data = st.vfs.read(inode, offset, len)?;
                let n = data.len() as u64;
                let proc = Self::process_mut(st, pid)?;
                if let FdObject::File { offset, .. } = proc.fds.get_mut(fd)? {
                    *offset += n;
                }
                Ok(SyscallOutcome::ok_with_payload(n as i64, data.to_vec()))
            }
            FdObject::PipeRead { pipe } => match st.vfs.pipe_read(pipe, len) {
                Ok(data) => Ok(SyscallOutcome::ok_with_payload(
                    data.len() as i64,
                    data.to_vec(),
                )),
                Err(e) => Err(e),
            },
            FdObject::Socket { socket } => {
                let data = st.net.recv(socket, len)?;
                Ok(SyscallOutcome::ok_with_payload(
                    data.len() as i64,
                    data.to_vec(),
                ))
            }
            FdObject::StandardStream { which: 0 } => Ok(SyscallOutcome::ok(0)),
            FdObject::StandardStream { .. } => Err(Errno::Ebadf),
            FdObject::PipeWrite { .. } => Err(Errno::Ebadf),
        }
    }

    fn sys_write(
        st: &mut KernelState,
        pid: Pid,
        req: &SyscallRequest,
    ) -> KernelResult<SyscallOutcome> {
        let fd = Self::arg_fd(req, 0)?;
        let data = req.payload.clone();
        let obj = {
            let proc = Self::process_mut(st, pid)?;
            proc.fds.get(fd)?.clone()
        };
        match obj {
            FdObject::File {
                inode,
                offset,
                writable,
            } => {
                if !writable {
                    return Err(Errno::Eacces);
                }
                let n = st.vfs.write(inode, offset, &data, false)?;
                let proc = Self::process_mut(st, pid)?;
                if let FdObject::File { offset, .. } = proc.fds.get_mut(fd)? {
                    *offset += n as u64;
                }
                Ok(SyscallOutcome::ok(n as i64))
            }
            FdObject::PipeWrite { pipe } => {
                let n = st.vfs.pipe_write(pipe, &data)?;
                Ok(SyscallOutcome::ok(n as i64))
            }
            FdObject::Socket { socket } => {
                let n = st.net.send(socket, &data)?;
                Ok(SyscallOutcome::ok(n as i64))
            }
            FdObject::StandardStream { which } if which == 1 || which == 2 => {
                if let Some(buf) = st.console.get_mut(pid as usize) {
                    buf.extend_from_slice(&data);
                }
                Ok(SyscallOutcome::ok(data.len() as i64))
            }
            _ => Err(Errno::Ebadf),
        }
    }

    fn sys_stat(st: &mut KernelState, req: &SyscallRequest) -> KernelResult<SyscallOutcome> {
        let path = Self::arg_path(req, 0)?;
        let stat = st.vfs.stat(path)?;
        let mut payload = Vec::with_capacity(17);
        payload.extend_from_slice(&stat.inode.to_le_bytes());
        payload.extend_from_slice(&stat.size.to_le_bytes());
        payload.push(u8::from(stat.is_dir));
        Ok(SyscallOutcome::ok_with_payload(0, payload))
    }

    fn sys_fstat(
        st: &mut KernelState,
        pid: Pid,
        req: &SyscallRequest,
    ) -> KernelResult<SyscallOutcome> {
        let fd = Self::arg_fd(req, 0)?;
        let proc = Self::process_mut(st, pid)?;
        let obj = proc.fds.get(fd)?.clone();
        match obj {
            FdObject::File { inode, .. } => {
                let stat = st.vfs.fstat(inode)?;
                let mut payload = Vec::with_capacity(17);
                payload.extend_from_slice(&stat.inode.to_le_bytes());
                payload.extend_from_slice(&stat.size.to_le_bytes());
                payload.push(u8::from(stat.is_dir));
                Ok(SyscallOutcome::ok_with_payload(0, payload))
            }
            _ => Ok(SyscallOutcome::ok(0)),
        }
    }

    fn sys_lseek(
        st: &mut KernelState,
        pid: Pid,
        req: &SyscallRequest,
    ) -> KernelResult<SyscallOutcome> {
        let fd = Self::arg_fd(req, 0)?;
        let pos = Self::arg_int(req, 1)?.max(0) as u64;
        let proc = Self::process_mut(st, pid)?;
        match proc.fds.get_mut(fd)? {
            FdObject::File { offset, .. } => {
                *offset = pos;
                Ok(SyscallOutcome::ok(pos as i64))
            }
            _ => Err(Errno::Espipe),
        }
    }

    fn sys_access(st: &mut KernelState, req: &SyscallRequest) -> KernelResult<SyscallOutcome> {
        let path = Self::arg_path(req, 0)?;
        if st.vfs.exists(path) {
            Ok(SyscallOutcome::ok(0))
        } else {
            Err(Errno::Enoent)
        }
    }

    fn sys_unlink(st: &mut KernelState, req: &SyscallRequest) -> KernelResult<SyscallOutcome> {
        st.vfs.unlink(Self::arg_path(req, 0)?)?;
        Ok(SyscallOutcome::ok(0))
    }

    fn sys_rename(st: &mut KernelState, req: &SyscallRequest) -> KernelResult<SyscallOutcome> {
        let from = Self::arg_path(req, 0)?.to_string();
        let to = Self::arg_path(req, 1)?.to_string();
        st.vfs.rename(&from, &to)?;
        Ok(SyscallOutcome::ok(0))
    }

    fn sys_mkdir(st: &mut KernelState, req: &SyscallRequest) -> KernelResult<SyscallOutcome> {
        st.vfs.mkdir(Self::arg_path(req, 0)?)?;
        Ok(SyscallOutcome::ok(0))
    }

    fn sys_sendfile(
        st: &mut KernelState,
        pid: Pid,
        req: &SyscallRequest,
    ) -> KernelResult<SyscallOutcome> {
        // sendfile(out_fd, in_fd, len): copy file bytes straight to a socket.
        let out_fd = Self::arg_fd(req, 0)?;
        let in_fd = Self::arg_fd(req, 1)?;
        let len = Self::arg_int(req, 2)?.max(0) as usize;
        let (inode, offset) = {
            let proc = Self::process_mut(st, pid)?;
            match proc.fds.get(in_fd)? {
                FdObject::File { inode, offset, .. } => (*inode, *offset),
                _ => return Err(Errno::Einval),
            }
        };
        let data = st.vfs.read(inode, offset, len)?;
        let socket = {
            let proc = Self::process_mut(st, pid)?;
            match proc.fds.get(out_fd)? {
                FdObject::Socket { socket } => *socket,
                _ => return Err(Errno::Einval),
            }
        };
        let n = st.net.send(socket, &data)?;
        let proc = Self::process_mut(st, pid)?;
        if let FdObject::File { offset, .. } = proc.fds.get_mut(in_fd)? {
            *offset += n as u64;
        }
        Ok(SyscallOutcome::ok(n as i64))
    }

    // ---- memory ---------------------------------------------------------

    fn sys_brk(
        st: &mut KernelState,
        pid: Pid,
        req: &SyscallRequest,
    ) -> KernelResult<SyscallOutcome> {
        let addr = Self::arg_int(req, 0).unwrap_or(0).max(0) as u64;
        let proc = Self::process_mut(st, pid)?;
        Ok(SyscallOutcome::ok(proc.mem.set_brk(addr) as i64))
    }

    fn sys_mmap(
        st: &mut KernelState,
        pid: Pid,
        req: &SyscallRequest,
    ) -> KernelResult<SyscallOutcome> {
        let len = Self::arg_int(req, 0)?.max(0) as u64;
        let prot = Protection::from_bits(Self::arg_flags(req, 1) as u8);
        let proc = Self::process_mut(st, pid)?;
        let addr = proc.mem.mmap(len, prot)?;
        Ok(SyscallOutcome::ok(addr as i64))
    }

    fn sys_munmap(
        st: &mut KernelState,
        pid: Pid,
        req: &SyscallRequest,
    ) -> KernelResult<SyscallOutcome> {
        let addr = Self::arg_ptr(req, 0)?;
        let len = Self::arg_int(req, 1)?.max(0) as u64;
        let proc = Self::process_mut(st, pid)?;
        proc.mem.munmap(addr, len)?;
        Ok(SyscallOutcome::ok(0))
    }

    fn sys_mprotect(
        st: &mut KernelState,
        pid: Pid,
        req: &SyscallRequest,
    ) -> KernelResult<SyscallOutcome> {
        let addr = Self::arg_ptr(req, 0)?;
        let len = Self::arg_int(req, 1)?.max(0) as u64;
        let prot = Protection::from_bits(Self::arg_flags(req, 2) as u8);
        let proc = Self::process_mut(st, pid)?;
        proc.mem.mprotect(addr, len, prot)?;
        Ok(SyscallOutcome::ok(0))
    }

    // ---- pipes and descriptors -------------------------------------------

    fn sys_pipe(st: &mut KernelState, pid: Pid) -> KernelResult<SyscallOutcome> {
        let pipe = st.vfs.create_pipe();
        let proc = Self::process_mut(st, pid)?;
        let read_fd = proc.fds.allocate(FdObject::PipeRead { pipe })?;
        let write_fd = proc.fds.allocate(FdObject::PipeWrite { pipe })?;
        let mut payload = Vec::with_capacity(8);
        payload.extend_from_slice(&read_fd.to_le_bytes());
        payload.extend_from_slice(&write_fd.to_le_bytes());
        Ok(SyscallOutcome::ok_with_payload(0, payload))
    }

    fn sys_dup(
        st: &mut KernelState,
        pid: Pid,
        req: &SyscallRequest,
    ) -> KernelResult<SyscallOutcome> {
        let fd = Self::arg_fd(req, 0)?;
        let proc = Self::process_mut(st, pid)?;
        let new_fd = proc.fds.dup(fd)?;
        Ok(SyscallOutcome::ok(i64::from(new_fd)))
    }

    // ---- sockets ----------------------------------------------------------

    fn sys_socket(st: &mut KernelState, pid: Pid) -> KernelResult<SyscallOutcome> {
        let socket = st.net.socket();
        let proc = Self::process_mut(st, pid)?;
        let fd = proc.fds.allocate(FdObject::Socket { socket })?;
        Ok(SyscallOutcome::ok(i64::from(fd)))
    }

    fn socket_of(st: &mut KernelState, pid: Pid, fd: i32) -> KernelResult<u64> {
        let proc = Self::process_mut(st, pid)?;
        match proc.fds.get(fd)? {
            FdObject::Socket { socket } => Ok(*socket),
            _ => Err(Errno::Enotsock),
        }
    }

    fn sys_bind(
        st: &mut KernelState,
        pid: Pid,
        req: &SyscallRequest,
    ) -> KernelResult<SyscallOutcome> {
        let fd = Self::arg_fd(req, 0)?;
        let port = Self::arg_int(req, 1)? as u16;
        let socket = Self::socket_of(st, pid, fd)?;
        st.net.bind(socket, port)?;
        Ok(SyscallOutcome::ok(0))
    }

    fn sys_listen(
        st: &mut KernelState,
        pid: Pid,
        req: &SyscallRequest,
    ) -> KernelResult<SyscallOutcome> {
        let fd = Self::arg_fd(req, 0)?;
        let socket = Self::socket_of(st, pid, fd)?;
        st.net.listen(socket)?;
        Ok(SyscallOutcome::ok(0))
    }

    fn sys_accept(
        st: &mut KernelState,
        pid: Pid,
        req: &SyscallRequest,
    ) -> KernelResult<SyscallOutcome> {
        let fd = Self::arg_fd(req, 0)?;
        let socket = Self::socket_of(st, pid, fd)?;
        let conn = st.net.accept(socket)?;
        let proc = Self::process_mut(st, pid)?;
        let conn_fd = proc.fds.allocate(FdObject::Socket { socket: conn })?;
        Ok(SyscallOutcome::ok(i64::from(conn_fd)))
    }

    fn sys_connect(
        st: &mut KernelState,
        pid: Pid,
        req: &SyscallRequest,
    ) -> KernelResult<SyscallOutcome> {
        let fd = Self::arg_fd(req, 0)?;
        let port = Self::arg_int(req, 1)? as u16;
        let link = if Self::arg_flags(req, 2) == 1 {
            LinkKind::GigabitNetwork
        } else {
            LinkKind::Loopback
        };
        let socket = Self::socket_of(st, pid, fd)?;
        st.net.connect(socket, port, link)?;
        Ok(SyscallOutcome::ok(0))
    }

    fn sys_send(
        st: &mut KernelState,
        pid: Pid,
        req: &SyscallRequest,
    ) -> KernelResult<SyscallOutcome> {
        let fd = Self::arg_fd(req, 0)?;
        let socket = Self::socket_of(st, pid, fd)?;
        let n = st.net.send(socket, &req.payload)?;
        Ok(SyscallOutcome::ok(n as i64))
    }

    fn sys_recv(
        st: &mut KernelState,
        pid: Pid,
        req: &SyscallRequest,
    ) -> KernelResult<SyscallOutcome> {
        let fd = Self::arg_fd(req, 0)?;
        let len = Self::arg_int(req, 1)?.max(0) as usize;
        let socket = Self::socket_of(st, pid, fd)?;
        let data = st.net.recv(socket, len)?;
        Ok(SyscallOutcome::ok_with_payload(
            data.len() as i64,
            data.to_vec(),
        ))
    }

    fn sys_shutdown(
        st: &mut KernelState,
        pid: Pid,
        req: &SyscallRequest,
    ) -> KernelResult<SyscallOutcome> {
        let fd = Self::arg_fd(req, 0)?;
        let socket = Self::socket_of(st, pid, fd)?;
        st.net.shutdown(socket)?;
        Ok(SyscallOutcome::ok(0))
    }

    // ---- futex / threads / process ----------------------------------------

    fn sys_futex_wait(
        st: &mut KernelState,
        pid: Pid,
        tid: Tid,
        req: &SyscallRequest,
    ) -> KernelResult<SyscallOutcome> {
        let addr = Self::arg_ptr(req, 0)?;
        let current = Self::arg_int(req, 1)? as u32;
        let expected = Self::arg_int(req, 2)? as u32;
        match st.futexes.wait(addr, current, expected, (pid, tid)) {
            FutexWaitResult::WouldBlock => Ok(SyscallOutcome::ok(0)),
            FutexWaitResult::ValueMismatch => Err(Errno::Eagain),
        }
    }

    fn sys_futex_wake(
        st: &mut KernelState,
        pid: Pid,
        req: &SyscallRequest,
    ) -> KernelResult<SyscallOutcome> {
        let _ = pid;
        let addr = Self::arg_ptr(req, 0)?;
        let count = Self::arg_int(req, 1)?.max(0) as usize;
        let woken = st.futexes.wake(addr, count);
        Ok(SyscallOutcome::ok(woken.len() as i64))
    }

    fn sys_clone(st: &mut KernelState, pid: Pid) -> KernelResult<SyscallOutcome> {
        let proc = Self::process_mut(st, pid)?;
        let tid = proc.spawn_thread();
        Ok(SyscallOutcome::ok(tid as i64))
    }

    fn sys_exit(
        st: &mut KernelState,
        pid: Pid,
        tid: Tid,
        req: &SyscallRequest,
    ) -> KernelResult<SyscallOutcome> {
        let status = Self::arg_int(req, 0).unwrap_or(0) as i32;
        let proc = Self::process_mut(st, pid)?;
        proc.exit_thread(tid, status);
        Ok(SyscallOutcome::ok(0))
    }

    fn sys_exit_group(
        st: &mut KernelState,
        pid: Pid,
        req: &SyscallRequest,
    ) -> KernelResult<SyscallOutcome> {
        let status = Self::arg_int(req, 0).unwrap_or(0) as i32;
        let proc = Self::process_mut(st, pid)?;
        proc.exit_group(status);
        Ok(SyscallOutcome::ok(0))
    }

    fn sys_getrandom(st: &mut KernelState, req: &SyscallRequest) -> KernelResult<SyscallOutcome> {
        let len = Self::arg_int(req, 0)?.max(0) as usize;
        let mut out = Vec::with_capacity(len);
        // xorshift64*: deterministic across runs, which keeps the harness
        // reproducible; the monitor replicates these bytes to slaves anyway.
        let mut s = st.random_state;
        while out.len() < len {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            let v = s.wrapping_mul(0x2545_F491_4F6C_DD1D);
            out.extend_from_slice(&v.to_le_bytes());
        }
        st.random_state = s;
        out.truncate(len);
        Ok(SyscallOutcome::ok_with_payload(len as i64, out))
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

/// Convenience helpers shared by tests and workloads.
impl Kernel {
    /// Opens a path and returns the new descriptor, panicking on error.
    /// Intended for test setup only.
    pub fn must_open(&self, pid: Pid, path: &str, flags: OpenFlags) -> i32 {
        let req = SyscallRequest::new(Sysno::Open)
            .with_path(path)
            .with_arg(SyscallArg::Flags(flags.bits()));
        let out = self.execute(pid, 0, &req);
        out.result.expect("open failed") as i32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel_with_process() -> (Kernel, Pid) {
        let k = Kernel::new_manual_clock();
        let pid = k.spawn_process();
        (k, pid)
    }

    #[test]
    fn open_read_write_close_cycle() {
        let (k, pid) = kernel_with_process();
        k.install_file("/data/input.txt", b"multi-variant execution");
        let fd = k.must_open(pid, "/data/input.txt", OpenFlags::READ);
        assert_eq!(fd, 3);

        let read = k.execute(
            pid,
            0,
            &SyscallRequest::new(Sysno::Read).with_fd(fd).with_int(5),
        );
        assert_eq!(read.result, Ok(5));
        assert_eq!(&read.payload, b"multi");

        let close = k.execute(pid, 0, &SyscallRequest::new(Sysno::Close).with_fd(fd));
        assert!(close.is_ok());
        let bad = k.execute(
            pid,
            0,
            &SyscallRequest::new(Sysno::Read).with_fd(fd).with_int(1),
        );
        assert_eq!(bad.result, Err(Errno::Ebadf));
    }

    #[test]
    fn sequential_reads_advance_offset() {
        let (k, pid) = kernel_with_process();
        k.install_file("/f", b"abcdef");
        let fd = k.must_open(pid, "/f", OpenFlags::READ);
        let r1 = k.execute(
            pid,
            0,
            &SyscallRequest::new(Sysno::Read).with_fd(fd).with_int(3),
        );
        let r2 = k.execute(
            pid,
            0,
            &SyscallRequest::new(Sysno::Read).with_fd(fd).with_int(3),
        );
        assert_eq!(&r1.payload, b"abc");
        assert_eq!(&r2.payload, b"def");
    }

    #[test]
    fn fd_allocation_order_is_observable_across_processes() {
        // Two "variants" open the same two files in opposite orders and get
        // swapped descriptors — the divergence scenario of §3.1.
        let k = Kernel::new_manual_clock();
        let v0 = k.spawn_process();
        let v1 = k.spawn_process();
        k.install_file("/a", b"");
        k.install_file("/b", b"");
        let a0 = k.must_open(v0, "/a", OpenFlags::READ);
        let b0 = k.must_open(v0, "/b", OpenFlags::READ);
        let b1 = k.must_open(v1, "/b", OpenFlags::READ);
        let a1 = k.must_open(v1, "/a", OpenFlags::READ);
        assert_eq!(a0, b1);
        assert_eq!(b0, a1);
        assert_ne!(a0, a1);
    }

    #[test]
    fn write_to_stdout_is_captured_per_process() {
        let (k, pid) = kernel_with_process();
        let out = k.execute(
            pid,
            0,
            &SyscallRequest::new(Sysno::Write)
                .with_fd(1)
                .with_payload(b"fd=3\n"),
        );
        assert_eq!(out.result, Ok(5));
        assert_eq!(k.console_output(pid), b"fd=3\n");
    }

    #[test]
    fn write_to_readonly_file_is_eacces() {
        let (k, pid) = kernel_with_process();
        k.install_file("/ro", b"x");
        let fd = k.must_open(pid, "/ro", OpenFlags::READ);
        let out = k.execute(
            pid,
            0,
            &SyscallRequest::new(Sysno::Write)
                .with_fd(fd)
                .with_payload(b"y"),
        );
        assert_eq!(out.result, Err(Errno::Eacces));
    }

    #[test]
    fn brk_and_mmap_work_per_process() {
        let (k, pid) = kernel_with_process();
        let brk0 = k.execute(pid, 0, &SyscallRequest::new(Sysno::Brk).with_int(0));
        let base = brk0.result.unwrap();
        let brk1 = k.execute(
            pid,
            0,
            &SyscallRequest::new(Sysno::Brk).with_int(base + 8192),
        );
        assert!(brk1.result.unwrap() >= base + 8192);

        let mmap = k.execute(
            pid,
            0,
            &SyscallRequest::new(Sysno::Mmap)
                .with_int(4096)
                .with_arg(SyscallArg::Flags(3)),
        );
        assert!(mmap.result.unwrap() > 0);
    }

    #[test]
    fn mprotect_to_rwx_is_visible_to_attack_detector() {
        let (k, pid) = kernel_with_process();
        let mmap = k.execute(
            pid,
            0,
            &SyscallRequest::new(Sysno::Mmap)
                .with_int(4096)
                .with_arg(SyscallArg::Flags(3)),
        );
        let addr = mmap.result.unwrap() as u64;
        assert!(!k.process_has_wx_mapping(pid));
        let mp = k.execute(
            pid,
            0,
            &SyscallRequest::new(Sysno::Mprotect)
                .with_arg(SyscallArg::Pointer(addr))
                .with_int(4096)
                .with_arg(SyscallArg::Flags(7)),
        );
        assert!(mp.is_ok());
        assert!(k.process_has_wx_mapping(pid));
    }

    #[test]
    fn pipe_returns_two_descriptors() {
        let (k, pid) = kernel_with_process();
        let out = k.execute(pid, 0, &SyscallRequest::new(Sysno::Pipe));
        assert!(out.is_ok());
        let read_fd = i32::from_le_bytes(out.payload[0..4].try_into().unwrap());
        let write_fd = i32::from_le_bytes(out.payload[4..8].try_into().unwrap());
        assert_eq!(read_fd, 3);
        assert_eq!(write_fd, 4);

        let w = k.execute(
            pid,
            0,
            &SyscallRequest::new(Sysno::Write)
                .with_fd(write_fd)
                .with_payload(b"ping"),
        );
        assert_eq!(w.result, Ok(4));
        let r = k.execute(
            pid,
            0,
            &SyscallRequest::new(Sysno::Read)
                .with_fd(read_fd)
                .with_int(10),
        );
        assert_eq!(&r.payload, b"ping");
    }

    #[test]
    fn socket_lifecycle_server_and_client_in_one_kernel() {
        let (k, server) = kernel_with_process();
        let client = k.spawn_process();

        let sfd = k
            .execute(server, 0, &SyscallRequest::new(Sysno::Socket))
            .result
            .unwrap() as i32;
        assert!(k
            .execute(
                server,
                0,
                &SyscallRequest::new(Sysno::Bind).with_fd(sfd).with_int(8080)
            )
            .is_ok());
        assert!(k
            .execute(server, 0, &SyscallRequest::new(Sysno::Listen).with_fd(sfd))
            .is_ok());

        let cfd = k
            .execute(client, 0, &SyscallRequest::new(Sysno::Socket))
            .result
            .unwrap() as i32;
        assert!(k
            .execute(
                client,
                0,
                &SyscallRequest::new(Sysno::Connect)
                    .with_fd(cfd)
                    .with_int(8080)
                    .with_arg(SyscallArg::Flags(0))
            )
            .is_ok());

        let conn = k.execute(server, 0, &SyscallRequest::new(Sysno::Accept).with_fd(sfd));
        let conn_fd = conn.result.unwrap() as i32;
        k.execute(
            client,
            0,
            &SyscallRequest::new(Sysno::Send)
                .with_fd(cfd)
                .with_payload(b"GET /"),
        );
        let got = k.execute(
            server,
            0,
            &SyscallRequest::new(Sysno::Recv)
                .with_fd(conn_fd)
                .with_int(64),
        );
        assert_eq!(&got.payload, b"GET /");
    }

    #[test]
    fn clone_and_exit_group() {
        let (k, pid) = kernel_with_process();
        let t1 = k.execute(pid, 0, &SyscallRequest::new(Sysno::Clone));
        assert_eq!(t1.result, Ok(1));
        let t2 = k.execute(pid, 0, &SyscallRequest::new(Sysno::Clone));
        assert_eq!(t2.result, Ok(2));
        assert_eq!(k.live_processes(), 1);
        k.execute(pid, 0, &SyscallRequest::new(Sysno::ExitGroup).with_int(0));
        assert_eq!(k.live_processes(), 0);
    }

    #[test]
    fn gettimeofday_returns_clock_payload() {
        let k = Kernel::new_manual_clock();
        let pid = k.spawn_process();
        k.clock().advance(5_000);
        let out = k.execute(pid, 0, &SyscallRequest::new(Sysno::Gettimeofday));
        let ns = u64::from_le_bytes(out.payload[0..8].try_into().unwrap());
        assert_eq!(ns, 5_000);
    }

    #[test]
    fn getrandom_is_deterministic_per_kernel_instance() {
        let k1 = Kernel::new_manual_clock();
        let k2 = Kernel::new_manual_clock();
        let p1 = k1.spawn_process();
        let p2 = k2.spawn_process();
        let r1 = k1.execute(p1, 0, &SyscallRequest::new(Sysno::Getrandom).with_int(16));
        let r2 = k2.execute(p2, 0, &SyscallRequest::new(Sysno::Getrandom).with_int(16));
        assert_eq!(r1.payload, r2.payload);
        assert_eq!(r1.payload.len(), 16);
    }

    #[test]
    fn unknown_syscall_is_enosys() {
        let (k, pid) = kernel_with_process();
        let out = k.execute(pid, 0, &SyscallRequest::new(Sysno::Unknown(999)));
        assert_eq!(out.result, Err(Errno::Enosys));
        let out = k.execute(pid, 0, &SyscallRequest::new(Sysno::MveeSelfAware));
        assert_eq!(out.result, Err(Errno::Enosys));
    }

    #[test]
    fn stats_count_executions_and_failures() {
        let (k, pid) = kernel_with_process();
        k.execute(pid, 0, &SyscallRequest::new(Sysno::Getpid));
        k.execute(pid, 0, &SyscallRequest::new(Sysno::Unknown(1)));
        let stats = k.stats();
        assert_eq!(stats.syscalls_executed, 2);
        assert_eq!(stats.syscalls_failed, 1);
        assert_eq!(k.process_syscall_count(pid), 2);
    }

    #[test]
    fn futex_wait_and_wake_roundtrip() {
        let (k, pid) = kernel_with_process();
        let addr = 0x7000_0000u64;
        let wait = k.execute(
            pid,
            0,
            &SyscallRequest::new(Sysno::FutexWait)
                .with_arg(SyscallArg::Pointer(addr))
                .with_int(0)
                .with_int(0),
        );
        assert!(wait.is_ok());
        let wake = k.execute(
            pid,
            1,
            &SyscallRequest::new(Sysno::FutexWake)
                .with_arg(SyscallArg::Pointer(addr))
                .with_int(1),
        );
        assert_eq!(wake.result, Ok(1));
        let stats = k.stats();
        assert_eq!(stats.futex_blocks, 1);
        assert_eq!(stats.futex_wakeups, 1);
    }

    #[test]
    fn sendfile_copies_file_to_socket() {
        let k = Kernel::new_manual_clock();
        let server = k.spawn_process();
        let client = k.spawn_process();
        k.install_file("/www/page.html", &vec![b'x'; 4096]);

        let sfd = k
            .execute(server, 0, &SyscallRequest::new(Sysno::Socket))
            .result
            .unwrap() as i32;
        k.execute(
            server,
            0,
            &SyscallRequest::new(Sysno::Bind).with_fd(sfd).with_int(80),
        );
        k.execute(server, 0, &SyscallRequest::new(Sysno::Listen).with_fd(sfd));
        let cfd = k
            .execute(client, 0, &SyscallRequest::new(Sysno::Socket))
            .result
            .unwrap() as i32;
        k.execute(
            client,
            0,
            &SyscallRequest::new(Sysno::Connect)
                .with_fd(cfd)
                .with_int(80)
                .with_arg(SyscallArg::Flags(0)),
        );
        let conn_fd = k
            .execute(server, 0, &SyscallRequest::new(Sysno::Accept).with_fd(sfd))
            .result
            .unwrap() as i32;
        let file_fd = k.must_open(server, "/www/page.html", OpenFlags::READ);
        let sent = k.execute(
            server,
            0,
            &SyscallRequest::new(Sysno::Sendfile)
                .with_fd(conn_fd)
                .with_fd(file_fd)
                .with_int(4096),
        );
        assert_eq!(sent.result, Ok(4096));
        let got = k.execute(
            client,
            0,
            &SyscallRequest::new(Sysno::Recv).with_fd(cfd).with_int(8192),
        );
        assert_eq!(got.payload.len(), 4096);
    }

    #[test]
    fn diversified_processes_get_different_mmap_addresses() {
        let k = Kernel::new_manual_clock();
        let v0 = k.spawn_process_with_layout(0x5555_0000_0000, 0x7fff_0000_0000);
        let v1 = k.spawn_process_with_layout(0x5655_1000_0000, 0x7ffe_2000_0000);
        let m0 = k.execute(
            v0,
            0,
            &SyscallRequest::new(Sysno::Mmap)
                .with_int(4096)
                .with_arg(SyscallArg::Flags(3)),
        );
        let m1 = k.execute(
            v1,
            0,
            &SyscallRequest::new(Sysno::Mmap)
                .with_int(4096)
                .with_arg(SyscallArg::Flags(3)),
        );
        assert_ne!(m0.result.unwrap(), m1.result.unwrap());
    }
}
