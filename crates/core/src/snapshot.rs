//! Per-variant state snapshots: the rollback points for respawn recovery.
//!
//! The dMVX line of work the paper builds towards recovers from a diverged
//! variant not by tearing the whole MVEE down but by *quarantining* the
//! disagreeing variant, continuing on a degraded quorum, and later replaying
//! the lost variant back from a checkpoint.  This module provides the
//! checkpoint half of that story:
//!
//! * [`SnapshotRecord`] — a CRC-framed, versioned serialisation of one
//!   variant's *private* emulated-kernel state
//!   ([`ProcessImage`]: descriptor
//!   table, address space, threads, affinity, exit status) plus the
//!   positions needed to resume: the variant's sync-op count, the journal
//!   length at capture time and the virtual-clock reading.
//! * [`SnapshotStore`] — one slot per variant holding the most recent
//!   record, with an interval counter ([`SnapshotStore::tick`]) that fires
//!   every `snapshot_every` sync ops.
//!
//! # What a snapshot does and does not capture
//!
//! Only the variant's private state is recorded.  Shared kernel state — VFS
//! contents, pipe buffers, socket queues, futex wait queues, the virtual
//! clock — is owned by the whole variant set: while one variant sits in
//! quarantine the survivors keep advancing that shared frontier, so rolling
//! it back would corrupt *them*.  A respawned variant therefore restores its
//! private image and rejoins the shared state wherever the survivors have
//! taken it, exactly as a restarted process rejoins a live filesystem.
//!
//! # Where snapshots are taken
//!
//! Capture happens in the agent replication hook (installed in `mvee.rs`),
//! immediately after the port has flushed the sync op's deferred
//! comparisons.  Every transport funnels through that hook — blocking sync
//! ports, poller pools and the remote leader alike — so the capture point
//! is transport-invariant: the same workload snapshots at the same sync-op
//! boundaries no matter how its calls reach the monitor.
//!
//! # Wire format
//!
//! Same discipline as the divergence journal: a magic, a version, then one
//! CRC-protected frame from [`crate::frame`], all little-endian.
//!
//! ```text
//! snapshot : "MVSS" | version u16 | frame(body)
//! body     : variant u16 | sync_ops u64 | journal_records u64 | clock_ns u64
//!          | pid u64 | exited (u8 flag, i32 status when 1)
//!          | fd_limit u32 | fd_count u32 | fd_entry*
//!          | brk_base u64 | brk_current u64 | mmap_top u64 | mmap_cursor u64
//!          | region_count u32 | (start u64 | len u64 | prot u8 | heap u8)*
//!          | thread_count u32 | (tid u64 | state | syscall_count u64)*
//!          | affinity_count u32 | (tid u64 | core u32)*
//! fd_entry : fd i32 | tag u8 | payload
//!            tag 0 File{inode u64, offset u64, writable u8}
//!            tag 1 PipeRead{pipe u64}    tag 2 PipeWrite{pipe u64}
//!            tag 3 Socket{socket u64}    tag 4 StandardStream{which u8}
//! state    : tag u8 — 0 Running | 1 BlockedOnFutex{addr u64}
//!            | 2 Exited{status i32}
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mvee_kernel::fd::{FdObject, FdTable};
use mvee_kernel::mem::{AddressSpace, Protection, Region};
use mvee_kernel::process::{ProcessImage, Thread, ThreadState};

use crate::frame::{self, FrameError, Reader};

/// Magic bytes opening every encoded snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"MVSS";

/// Current snapshot format version.  Bump on any unversioned layout change;
/// the golden tests pin the bytes.
pub const SNAPSHOT_VERSION: u16 = 1;

/// Why a byte string is not a decodable snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The stream does not open with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The version field names a format this build does not speak.
    UnsupportedVersion(u16),
    /// The CRC frame is torn or corrupt.
    Frame(FrameError),
    /// The frame decodes but its body is inconsistent.
    Malformed(String),
    /// Valid snapshot followed by trailing bytes.
    TrailingData,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot: bad magic"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::Frame(e) => write!(f, "snapshot frame error: {e}"),
            SnapshotError::Malformed(reason) => write!(f, "malformed snapshot: {reason}"),
            SnapshotError::TrailingData => write!(f, "trailing bytes after snapshot"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<FrameError> for SnapshotError {
    fn from(e: FrameError) -> Self {
        SnapshotError::Frame(e)
    }
}

/// One variant's checkpoint: its private kernel image plus the stream
/// positions a respawn needs to catch the variant back up.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotRecord {
    /// The variant the snapshot belongs to.
    pub variant: usize,
    /// The variant's sync-op count at capture time.
    pub sync_ops: u64,
    /// Journal records written when the snapshot was taken — the respawn
    /// replays the journal suffix past this position.
    pub journal_records: u64,
    /// Virtual-clock reading at capture time (diagnostics only; the clock
    /// is shared state and is never rolled back).
    pub clock_ns: u64,
    /// The variant's private kernel state.
    pub image: ProcessImage,
}

impl SnapshotRecord {
    /// Serialises the record: magic, version, one CRC frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        frame::push_frame_with(&mut out, |body| {
            body.extend_from_slice(&(self.variant as u16).to_le_bytes());
            body.extend_from_slice(&self.sync_ops.to_le_bytes());
            body.extend_from_slice(&self.journal_records.to_le_bytes());
            body.extend_from_slice(&self.clock_ns.to_le_bytes());
            encode_image(body, &self.image);
        });
        out
    }

    /// Decodes a record previously produced by [`Self::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < 6 || bytes[..4] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let (body, next) = frame::next_frame(bytes, 6)?
            .ok_or(SnapshotError::Frame(FrameError::Truncated { offset: 6 }))?;
        if next != bytes.len() {
            return Err(SnapshotError::TrailingData);
        }
        let mut r = Reader::new(body);
        let record = decode_body(&mut r).map_err(SnapshotError::Malformed)?;
        r.finish().map_err(SnapshotError::Malformed)?;
        Ok(record)
    }
}

fn encode_image(body: &mut Vec<u8>, image: &ProcessImage) {
    body.extend_from_slice(&image.pid.to_le_bytes());
    match image.exited {
        Some(status) => {
            body.push(1);
            body.extend_from_slice(&status.to_le_bytes());
        }
        None => body.push(0),
    }

    body.extend_from_slice(&(image.fds.limit() as u32).to_le_bytes());
    body.extend_from_slice(&(image.fds.len() as u32).to_le_bytes());
    for (fd, obj) in image.fds.iter() {
        body.extend_from_slice(&fd.to_le_bytes());
        match obj {
            FdObject::File {
                inode,
                offset,
                writable,
            } => {
                body.push(0);
                body.extend_from_slice(&inode.to_le_bytes());
                body.extend_from_slice(&offset.to_le_bytes());
                body.push(u8::from(*writable));
            }
            FdObject::PipeRead { pipe } => {
                body.push(1);
                body.extend_from_slice(&pipe.to_le_bytes());
            }
            FdObject::PipeWrite { pipe } => {
                body.push(2);
                body.extend_from_slice(&pipe.to_le_bytes());
            }
            FdObject::Socket { socket } => {
                body.push(3);
                body.extend_from_slice(&socket.to_le_bytes());
            }
            FdObject::StandardStream { which } => {
                body.push(4);
                body.push(*which);
            }
        }
    }

    body.extend_from_slice(&image.mem.brk_base().to_le_bytes());
    body.extend_from_slice(&image.mem.brk().to_le_bytes());
    body.extend_from_slice(&image.mem.mmap_top().to_le_bytes());
    body.extend_from_slice(&image.mem.mmap_cursor().to_le_bytes());
    body.extend_from_slice(&(image.mem.region_count() as u32).to_le_bytes());
    for region in image.mem.regions() {
        body.extend_from_slice(&region.start.to_le_bytes());
        body.extend_from_slice(&region.len.to_le_bytes());
        body.push(region.prot.bits());
        body.push(u8::from(region.is_heap));
    }

    body.extend_from_slice(&(image.threads.len() as u32).to_le_bytes());
    for thread in &image.threads {
        body.extend_from_slice(&thread.tid.to_le_bytes());
        match thread.state {
            ThreadState::Running => body.push(0),
            ThreadState::BlockedOnFutex { addr } => {
                body.push(1);
                body.extend_from_slice(&addr.to_le_bytes());
            }
            ThreadState::Exited { status } => {
                body.push(2);
                body.extend_from_slice(&status.to_le_bytes());
            }
        }
        body.extend_from_slice(&thread.syscall_count.to_le_bytes());
    }

    body.extend_from_slice(&(image.affinity.len() as u32).to_le_bytes());
    for (tid, core) in &image.affinity {
        body.extend_from_slice(&tid.to_le_bytes());
        body.extend_from_slice(&core.to_le_bytes());
    }
}

fn decode_body(r: &mut Reader<'_>) -> Result<SnapshotRecord, String> {
    let variant = r.u16()? as usize;
    let sync_ops = r.u64()?;
    let journal_records = r.u64()?;
    let clock_ns = r.u64()?;

    let pid = r.u64()?;
    let exited = match r.u8()? {
        0 => None,
        1 => Some(r.i32()?),
        other => return Err(format!("bad exited flag {other}")),
    };

    let limit = r.u32()? as usize;
    let fd_count = r.u32()? as usize;
    let mut fds = FdTable::empty();
    fds.set_limit(limit);
    for _ in 0..fd_count {
        let fd = r.i32()?;
        let obj = match r.u8()? {
            0 => FdObject::File {
                inode: r.u64()?,
                offset: r.u64()?,
                writable: r.u8()? != 0,
            },
            1 => FdObject::PipeRead { pipe: r.u64()? },
            2 => FdObject::PipeWrite { pipe: r.u64()? },
            3 => FdObject::Socket { socket: r.u64()? },
            4 => FdObject::StandardStream { which: r.u8()? },
            tag => return Err(format!("bad fd tag {tag}")),
        };
        fds.allocate_at(fd, obj)
            .map_err(|e| format!("fd {fd} does not fit the table: {e:?}"))?;
    }

    let brk_base = r.u64()?;
    let brk_current = r.u64()?;
    let mmap_top = r.u64()?;
    let mmap_cursor = r.u64()?;
    let region_count = r.u32()? as usize;
    let mut regions = Vec::with_capacity(region_count.min(1024));
    for _ in 0..region_count {
        regions.push(Region {
            start: r.u64()?,
            len: r.u64()?,
            prot: Protection::from_bits(r.u8()?),
            is_heap: r.u8()? != 0,
        });
    }
    let mem = AddressSpace::from_raw_parts(brk_base, brk_current, mmap_top, mmap_cursor, regions);

    let thread_count = r.u32()? as usize;
    let mut threads = Vec::with_capacity(thread_count.min(1024));
    for _ in 0..thread_count {
        let tid = r.u64()?;
        let state = match r.u8()? {
            0 => ThreadState::Running,
            1 => ThreadState::BlockedOnFutex { addr: r.u64()? },
            2 => ThreadState::Exited { status: r.i32()? },
            tag => return Err(format!("bad thread-state tag {tag}")),
        };
        threads.push(Thread {
            tid,
            state,
            syscall_count: r.u64()?,
        });
    }

    let affinity_count = r.u32()? as usize;
    let mut affinity = std::collections::BTreeMap::new();
    for _ in 0..affinity_count {
        let tid = r.u64()?;
        affinity.insert(tid, r.u32()?);
    }

    Ok(SnapshotRecord {
        variant,
        sync_ops,
        journal_records,
        clock_ns,
        image: ProcessImage {
            pid,
            fds,
            mem,
            threads,
            affinity,
            exited,
        },
    })
}

/// Per-variant lane inside a [`SnapshotStore`].
#[derive(Debug, Default)]
struct Lane {
    /// Total sync ops this lane has ticked.
    ops: AtomicU64,
    /// Snapshots installed so far.
    taken: AtomicU64,
    /// The most recent record.
    latest: parking_lot::Mutex<Option<Arc<SnapshotRecord>>>,
}

/// Holds each variant's most recent [`SnapshotRecord`] and decides, from a
/// per-variant sync-op counter, when the next one is due.
///
/// Only the latest record is retained: the journal suffix past a snapshot's
/// `journal_records` position is what replays the variant forward, so older
/// snapshots buy nothing but memory.
#[derive(Debug)]
pub struct SnapshotStore {
    every: u64,
    lanes: Box<[Lane]>,
}

impl SnapshotStore {
    /// Creates a store for `variants` lanes snapshotting every `every` sync
    /// ops.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn new(variants: usize, every: u64) -> Self {
        assert!(
            every > 0,
            "the snapshot interval must be at least one sync op"
        );
        SnapshotStore {
            every,
            lanes: (0..variants).map(|_| Lane::default()).collect(),
        }
    }

    /// The configured interval in sync ops.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Counts one sync op for `variant`.  Returns `Some(total)` — the
    /// lane's running sync-op count — exactly when the count crosses a
    /// multiple of the interval, i.e. when a snapshot is due.
    ///
    /// Concurrent threads of the same variant may tick simultaneously; the
    /// modulo test hands the capture duty to exactly one of them per
    /// crossing.
    pub fn tick(&self, variant: usize) -> Option<u64> {
        let lane = self.lanes.get(variant)?;
        let total = lane.ops.fetch_add(1, Ordering::AcqRel) + 1;
        (total % self.every == 0).then_some(total)
    }

    /// Installs `record` as its variant's latest snapshot.
    pub fn install(&self, record: SnapshotRecord) {
        if let Some(lane) = self.lanes.get(record.variant) {
            *lane.latest.lock() = Some(Arc::new(record));
            lane.taken.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// The most recent snapshot for `variant`, if one has been taken.
    pub fn latest(&self, variant: usize) -> Option<Arc<SnapshotRecord>> {
        self.lanes.get(variant)?.latest.lock().clone()
    }

    /// How many snapshots `variant` has installed.
    pub fn taken(&self, variant: usize) -> u64 {
        self.lanes
            .get(variant)
            .map(|l| l.taken.load(Ordering::Acquire))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built image touching every fd tag, thread state and region
    /// field the codec must carry.
    fn exotic_image() -> ProcessImage {
        let mut fds = FdTable::empty();
        fds.set_limit(64);
        fds.allocate_at(0, FdObject::StandardStream { which: 0 })
            .unwrap();
        fds.allocate_at(
            3,
            FdObject::File {
                inode: 9,
                offset: 512,
                writable: true,
            },
        )
        .unwrap();
        fds.allocate_at(4, FdObject::PipeRead { pipe: 1 }).unwrap();
        fds.allocate_at(5, FdObject::PipeWrite { pipe: 1 }).unwrap();
        fds.allocate_at(7, FdObject::Socket { socket: 2 }).unwrap();
        let mem = AddressSpace::from_raw_parts(
            0x1000,
            0x3000,
            0x7000_0000,
            0x6fff_c000,
            [
                Region {
                    start: 0x1000,
                    len: 0x2000,
                    prot: Protection::RW,
                    is_heap: true,
                },
                Region {
                    start: 0x6fff_c000,
                    len: 0x4000,
                    prot: Protection::RX,
                    is_heap: false,
                },
            ],
        );
        let threads = vec![
            Thread {
                tid: 0,
                state: ThreadState::Running,
                syscall_count: 41,
            },
            Thread {
                tid: 1,
                state: ThreadState::BlockedOnFutex { addr: 0x2040 },
                syscall_count: 7,
            },
            Thread {
                tid: 2,
                state: ThreadState::Exited { status: -9 },
                syscall_count: 3,
            },
        ];
        let mut affinity = std::collections::BTreeMap::new();
        affinity.insert(0, 2);
        affinity.insert(2, 5);
        ProcessImage {
            pid: 3,
            fds,
            mem,
            threads,
            affinity,
            exited: None,
        }
    }

    fn exotic_record() -> SnapshotRecord {
        SnapshotRecord {
            variant: 3,
            sync_ops: 4096,
            journal_records: 777,
            clock_ns: 123_456_789,
            image: exotic_image(),
        }
    }

    #[test]
    fn encode_decode_is_the_identity() {
        let record = exotic_record();
        let bytes = record.encode();
        let decoded = SnapshotRecord::decode(&bytes).unwrap();
        assert_eq!(decoded, record);
        assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn exited_process_round_trips() {
        let mut record = exotic_record();
        record.image.exited = Some(17);
        let decoded = SnapshotRecord::decode(&record.encode()).unwrap();
        assert_eq!(decoded.image.exited, Some(17));
    }

    /// The minimal snapshot (empty image) as hex — pins the magic, the
    /// version, the frame layout and every fixed-width field at once.  To
    /// bless an intentional format change, bump `SNAPSHOT_VERSION` and
    /// update the literal.
    #[test]
    fn minimal_snapshot_bytes_are_pinned() {
        let record = SnapshotRecord {
            variant: 1,
            sync_ops: 2,
            journal_records: 3,
            clock_ns: 4,
            image: ProcessImage {
                pid: 5,
                fds: FdTable::empty(),
                mem: AddressSpace::from_raw_parts(0, 0, 0, 0, []),
                threads: Vec::new(),
                affinity: std::collections::BTreeMap::new(),
                exited: None,
            },
        };
        let actual: String = record.encode().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            actual,
            "4d5653530100570000005e7aa797\
             0100\
             0200000000000000\
             0300000000000000\
             0400000000000000\
             0500000000000000\
             00\
             0004000000000000\
             0000000000000000\
             0000000000000000\
             0000000000000000\
             0000000000000000\
             00000000\
             00000000\
             00000000",
            "the minimal snapshot's bytes moved: layout changed without a \
             SNAPSHOT_VERSION bump"
        );
    }

    #[test]
    fn truncation_and_corruption_are_typed() {
        let bytes = exotic_record().encode();
        assert_eq!(SnapshotRecord::decode(&[]), Err(SnapshotError::BadMagic));
        assert_eq!(
            SnapshotRecord::decode(b"NOPE\x01\x00"),
            Err(SnapshotError::BadMagic)
        );
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 0x2a;
        assert_eq!(
            SnapshotRecord::decode(&wrong_version),
            Err(SnapshotError::UnsupportedVersion(42))
        );
        for cut in 7..bytes.len() {
            assert_eq!(
                SnapshotRecord::decode(&bytes[..cut]),
                Err(SnapshotError::Frame(FrameError::Truncated { offset: 6 })),
                "cut at {cut}"
            );
        }
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert_eq!(
            SnapshotRecord::decode(&flipped),
            Err(SnapshotError::Frame(FrameError::Corrupt { offset: 6 }))
        );
        let mut trailing = bytes;
        trailing.push(0);
        assert_eq!(
            SnapshotRecord::decode(&trailing),
            Err(SnapshotError::TrailingData)
        );
    }

    #[test]
    fn store_fires_on_interval_crossings_only() {
        let store = SnapshotStore::new(2, 4);
        assert_eq!(store.every(), 4);
        for i in 1..=12u64 {
            let due = store.tick(0);
            if i % 4 == 0 {
                assert_eq!(due, Some(i), "tick {i}");
            } else {
                assert_eq!(due, None, "tick {i}");
            }
        }
        // Lanes count independently; out-of-range lanes never fire.
        assert_eq!(store.tick(1), None);
        assert_eq!(store.tick(9), None);
    }

    #[test]
    fn store_retains_only_the_latest_record() {
        let store = SnapshotStore::new(4, 1);
        assert!(store.latest(3).is_none());
        let mut record = exotic_record();
        store.install(record.clone());
        record.sync_ops = 8192;
        store.install(record.clone());
        assert_eq!(store.taken(3), 2);
        assert_eq!(store.latest(3).unwrap().sync_ops, 8192);
        assert_eq!(store.taken(0), 0);
    }
}
