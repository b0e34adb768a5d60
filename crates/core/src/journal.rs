//! Divergence journal: record a run's rendezvous schedule and replicated
//! outcomes, replay it offline.
//!
//! A journal is the evidence a divergence would otherwise take with it when
//! the run is poisoned and torn down: which call entered the gateway on
//! which thread, in what order the variants' comparison keys arrived at the
//! rendezvous table, what the master published for replicated/ordered
//! calls, and — when the monitor declared divergence — the exact report.
//! RecPlay (the model behind [`crate::baselines` → `rr`]'s namesake in
//! `mvee-baselines`) records a timestamp per sync op and replays by
//! ordering; this journal records the monitor-side equivalent, the global
//! arrival order of every rendezvous deposit, plus the agent-side sync-op
//! stream.
//!
//! ## Format (version 1)
//!
//! The byte stream is a fixed header followed by length-prefixed,
//! CRC-protected records, all little-endian:
//!
//! ```text
//! header : magic "MVJL" | version u16 | variants u16 | threads u16
//!        | shards u16 | batch u16                           (14 bytes)
//! record : body_len u32 | crc32(body) u32 | body
//! body   : tag u8 | fields...
//! ```
//!
//! The CRC is the standard reflected CRC-32 (polynomial `0xEDB88320`), so a
//! torn write, a flipped bit or a truncated file surfaces as a typed
//! [`JournalError`] instead of a silently wrong replay.  The stream ends
//! with an `End` record carrying the record count; its absence
//! ([`JournalError::MissingEnd`]) marks a journal whose recording run died
//! mid-write.  The vendored `serde` facade is a no-op stub, so the codec
//! here is purpose-built and hand-written — that is what pins the format.
//!
//! ## Record vs replay
//!
//! [`JournalRecorder`] is the sink the monitor writes through (installed
//! via `MveeConfig::journal`); it is transport-agnostic — the synchronous
//! ports and the polling pools funnel
//! through the same [`crate::monitor::Monitor`]/[`crate::lockstep`] choke
//! points, so every transport emits an identical stream for the same
//! schedule.  [`replay`] consumes the bytes, re-derives the monitor
//! statistics and — for a divergent run — re-runs the verdict over the
//! recorded arrival keys via [`first_mismatch`], checking the re-derived
//! first-mismatch slot and variant against the recorded report field by
//! field.  No live variants are involved.

use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use mvee_kernel::error::Errno;
use mvee_kernel::syscall::{ComparisonKey, SyscallArg, SyscallOutcome, Sysno};

use crate::divergence::{first_mismatch, DivergenceKind, DivergenceReport};
use crate::frame::{next_frame, push_frame_with, FrameError, Reader, FRAME_OVERHEAD};
use crate::monitor::{MonitorStats, DEFERRED_SEQ_BIT};

pub use crate::frame::crc32;

/// The four magic bytes opening every journal.
pub const JOURNAL_MAGIC: [u8; 4] = *b"MVJL";

/// The format version this build writes and replays.
pub const JOURNAL_VERSION: u16 = 1;

/// Byte length of the fixed journal header.
pub const JOURNAL_HEADER_LEN: usize = 14;

/// The run parameters a journal was recorded under.  Replay needs
/// `variants` to size arrival slots; the rest pins the configuration for
/// offline inspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalHeader {
    /// Format version (see [`JOURNAL_VERSION`]).
    pub version: u16,
    /// Number of variants in the recorded run.
    pub variants: u16,
    /// Logical threads per variant.
    pub threads: u16,
    /// Rendezvous shards.
    pub shards: u16,
    /// Comparison batch size.
    pub batch: u16,
}

impl JournalHeader {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&JOURNAL_MAGIC);
        buf.extend_from_slice(&self.version.to_le_bytes());
        buf.extend_from_slice(&self.variants.to_le_bytes());
        buf.extend_from_slice(&self.threads.to_le_bytes());
        buf.extend_from_slice(&self.shards.to_le_bytes());
        buf.extend_from_slice(&self.batch.to_le_bytes());
    }
}

/// How the gateway classified a call — the journal-side mirror of the
/// monitor's per-class counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassKind {
    /// Immediate cross-variant comparison.
    Lockstep,
    /// Comparison deferred into the caller's batch.
    Batched,
    /// Master executes, slaves receive the replicated outcome.
    Replicated,
    /// Executed under the cross-variant ordering clock.
    Ordered,
    /// A batch of deferred comparisons was flushed to the table.
    BatchFlush,
}

impl ClassKind {
    pub(crate) fn to_wire(self) -> u8 {
        match self {
            ClassKind::Lockstep => 0,
            ClassKind::Batched => 1,
            ClassKind::Replicated => 2,
            ClassKind::Ordered => 3,
            ClassKind::BatchFlush => 4,
        }
    }

    pub(crate) fn from_wire(tag: u8) -> Option<ClassKind> {
        Some(match tag {
            0 => ClassKind::Lockstep,
            1 => ClassKind::Batched,
            2 => ClassKind::Replicated,
            3 => ClassKind::Ordered,
            4 => ClassKind::BatchFlush,
            _ => return None,
        })
    }
}

/// One journal record.  See the module docs for the stream layout.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A call entered the gateway (`gate_and_count`): one per monitored
    /// call, so the count of these reproduces `total_syscalls`.
    Enter {
        /// Issuing variant.
        variant: u16,
        /// Logical thread of the call.
        thread: u32,
        /// Stat lane the call was counted in.
        lane: u16,
        /// Whether this was the self-awareness pseudo call (answered at the
        /// gate, never reaching the rendezvous table).
        self_aware: bool,
    },
    /// The gateway classified a call (or flushed a batch).
    Class {
        /// The classification.
        kind: ClassKind,
        /// Stat lane it was counted in.
        lane: u16,
    },
    /// A comparison key was deposited into a rendezvous slot.  `order` is a
    /// global arrival counter — the journal's RecPlay timestamp.
    Arrival {
        /// Depositing variant.
        variant: u16,
        /// Slot thread (the key's first component).
        thread: u32,
        /// Slot sequence, raw: deferred comparisons carry
        /// [`DEFERRED_SEQ_BIT`] exactly as the live table keys them.
        seq: u64,
        /// Shard the slot lives in.
        shard: u16,
        /// Global arrival order of this deposit (strictly increasing).
        order: u64,
        /// The deposited comparison key.
        cmp: ComparisonKey,
    },
    /// The master published a replicated outcome (and, for ordered calls,
    /// an ordering timestamp) into a slot.
    Publish {
        /// Slot thread.
        thread: u32,
        /// Slot sequence.
        seq: u64,
        /// Ordering timestamp, when the call ran under the ordering clock.
        timestamp: Option<u64>,
        /// The published outcome.
        outcome: SyscallOutcome,
    },
    /// The monitor declared divergence; one record per `record_divergence`
    /// call, so the count reproduces the `divergences` counter and the
    /// first record is the run's surviving report.
    Diverge {
        /// The report, exactly as the live monitor stored it.
        report: DivergenceReport,
    },
    /// An agent replication point fired (`before_sync_op`).
    SyncOp {
        /// Variant whose thread hit the sync op.
        variant: u16,
        /// Logical thread.
        thread: u32,
    },
    /// Stream trailer: number of records preceding it.  A journal without
    /// one was torn mid-recording.
    End {
        /// Count of records before this trailer.
        records: u64,
    },
}

const TAG_ENTER: u8 = 1;
const TAG_CLASS: u8 = 2;
const TAG_ARRIVAL: u8 = 3;
const TAG_PUBLISH: u8 = 4;
const TAG_DIVERGE: u8 = 5;
const TAG_SYNC_OP: u8 = 6;
const TAG_END: u8 = 7;

/// Declares the known [`Sysno`] variants in wire order, once, and derives
/// both directions from the one list: [`SYSNO_TABLE`] (wire index → call,
/// for decode) and `sysno_wire_form` (call → wire index, for encode — an
/// exhaustive `match`, so it is O(1) and a `Sysno` variant missing from
/// the list fails to compile instead of panicking at run time).
macro_rules! sysno_wire_order {
    ($($name:ident),* $(,)?) => {
        /// Known [`Sysno`] variants in wire order; `Unknown` is encoded out
        /// of band (wire tag 1 + raw number).  Appending here is a
        /// compatible change; reordering is not — the golden-format tests
        /// pin the order.
        const SYSNO_TABLE: &[Sysno] = &[$(Sysno::$name),*];

        /// The list's positions, named: `WireIndex::X as u32` is the index
        /// of `Sysno::X` in [`SYSNO_TABLE`].
        #[allow(dead_code)]
        #[repr(u32)]
        enum WireIndex {
            $($name),*
        }

        /// A call's wire form: `(0, index in SYSNO_TABLE)` for a known
        /// call, `(1, raw number)` for [`Sysno::Unknown`].
        fn sysno_wire_form(no: Sysno) -> (u8, u32) {
            match no {
                $(Sysno::$name => (0, WireIndex::$name as u32),)*
                Sysno::Unknown(raw) => (1, raw),
            }
        }
    };
}

sysno_wire_order![
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
    MveeSelfAware,
];

fn encode_sysno(buf: &mut Vec<u8>, no: Sysno) {
    let (tag, raw) = sysno_wire_form(no);
    buf.push(tag);
    buf.extend_from_slice(&raw.to_le_bytes());
}

fn decode_sysno(r: &mut Reader<'_>) -> Result<Sysno, String> {
    let tag = r.u8()?;
    let raw = r.u32()?;
    match tag {
        0 => SYSNO_TABLE
            .get(raw as usize)
            .copied()
            .ok_or_else(|| format!("sysno index {raw} out of range")),
        1 => Ok(Sysno::Unknown(raw)),
        t => Err(format!("bad sysno tag {t}")),
    }
}

const ARG_INT: u8 = 0;
const ARG_FD: u8 = 1;
const ARG_FLAGS: u8 = 2;
const ARG_POINTER: u8 = 3;
const ARG_PATH: u8 = 4;
const ARG_BUF_LEN: u8 = 5;

fn encode_arg(buf: &mut Vec<u8>, arg: &SyscallArg) {
    match arg {
        SyscallArg::Int(v) => {
            buf.push(ARG_INT);
            buf.extend_from_slice(&v.to_le_bytes());
        }
        SyscallArg::Fd(v) => {
            buf.push(ARG_FD);
            buf.extend_from_slice(&v.to_le_bytes());
        }
        SyscallArg::Flags(v) => {
            buf.push(ARG_FLAGS);
            buf.extend_from_slice(&v.to_le_bytes());
        }
        SyscallArg::Pointer(v) => {
            buf.push(ARG_POINTER);
            buf.extend_from_slice(&v.to_le_bytes());
        }
        SyscallArg::Path(p) => {
            buf.push(ARG_PATH);
            buf.extend_from_slice(&(p.len() as u32).to_le_bytes());
            buf.extend_from_slice(p.as_bytes());
        }
        SyscallArg::BufLen(v) => {
            buf.push(ARG_BUF_LEN);
            buf.extend_from_slice(&(*v as u64).to_le_bytes());
        }
    }
}

fn decode_arg(r: &mut Reader<'_>) -> Result<SyscallArg, String> {
    Ok(match r.u8()? {
        ARG_INT => SyscallArg::Int(r.i64()?),
        ARG_FD => SyscallArg::Fd(r.i32()?),
        ARG_FLAGS => SyscallArg::Flags(r.u64()?),
        ARG_POINTER => SyscallArg::Pointer(r.u64()?),
        ARG_PATH => {
            let len = r.u32()? as usize;
            let bytes = r.take(len)?;
            SyscallArg::Path(
                String::from_utf8(bytes.to_vec()).map_err(|_| "non-UTF-8 path arg".to_string())?,
            )
        }
        ARG_BUF_LEN => SyscallArg::BufLen(r.u64()? as usize),
        t => return Err(format!("bad arg tag {t}")),
    })
}

pub(crate) fn encode_cmp(buf: &mut Vec<u8>, cmp: &ComparisonKey) {
    encode_sysno(buf, cmp.no);
    buf.extend_from_slice(&(cmp.args.len() as u16).to_le_bytes());
    for arg in &cmp.args {
        encode_arg(buf, arg);
    }
    buf.extend_from_slice(&cmp.payload_digest.to_le_bytes());
    buf.extend_from_slice(&(cmp.payload_len as u64).to_le_bytes());
}

pub(crate) fn decode_cmp(r: &mut Reader<'_>) -> Result<ComparisonKey, String> {
    let no = decode_sysno(r)?;
    let nargs = r.u16()? as usize;
    let mut args = Vec::with_capacity(nargs.min(64));
    for _ in 0..nargs {
        args.push(decode_arg(r)?);
    }
    Ok(ComparisonKey {
        no,
        args,
        payload_digest: r.u64()?,
        payload_len: r.u64()? as usize,
    })
}

pub(crate) fn encode_outcome(buf: &mut Vec<u8>, outcome: &SyscallOutcome) {
    match outcome.result {
        Ok(v) => {
            buf.push(0);
            buf.extend_from_slice(&v.to_le_bytes());
        }
        Err(e) => {
            buf.push(1);
            buf.extend_from_slice(&e.as_raw().to_le_bytes());
            buf.extend_from_slice(&[0u8; 4]);
        }
    }
    buf.extend_from_slice(&(outcome.payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&outcome.payload);
}

pub(crate) fn decode_outcome(r: &mut Reader<'_>) -> Result<SyscallOutcome, String> {
    let result = match r.u8()? {
        0 => Ok(r.i64()?),
        1 => {
            let raw = r.i32()?;
            let _pad = r.u32()?;
            Err(Errno::from_raw(raw).ok_or_else(|| format!("unknown errno {raw}"))?)
        }
        t => return Err(format!("bad outcome tag {t}")),
    };
    let len = r.u32()? as usize;
    let payload = r.take(len)?.to_vec();
    Ok(SyscallOutcome { result, payload })
}

const KIND_MISMATCH: u8 = 0;
const KIND_RENDEZVOUS_TIMEOUT: u8 = 1;
const KIND_REPLICATION_TIMEOUT: u8 = 2;
const KIND_POLICY: u8 = 3;

fn encode_variant_list(buf: &mut Vec<u8>, list: &[usize]) {
    buf.extend_from_slice(&(list.len() as u16).to_le_bytes());
    for &v in list {
        buf.extend_from_slice(&(v as u32).to_le_bytes());
    }
}

fn decode_variant_list(r: &mut Reader<'_>) -> Result<Vec<usize>, String> {
    let n = r.u16()? as usize;
    let mut list = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        list.push(r.u32()? as usize);
    }
    Ok(list)
}

pub(crate) fn encode_report(buf: &mut Vec<u8>, report: &DivergenceReport) {
    match &report.kind {
        DivergenceKind::SyscallMismatch { master, variant } => {
            buf.push(KIND_MISMATCH);
            encode_sysno(buf, *master);
            encode_sysno(buf, *variant);
        }
        DivergenceKind::RendezvousTimeout { arrived } => {
            buf.push(KIND_RENDEZVOUS_TIMEOUT);
            encode_variant_list(buf, arrived);
        }
        DivergenceKind::ReplicationTimeout { publisher, arrived } => {
            buf.push(KIND_REPLICATION_TIMEOUT);
            buf.extend_from_slice(&(*publisher as u32).to_le_bytes());
            encode_variant_list(buf, arrived);
        }
        DivergenceKind::PolicyViolation { call } => {
            buf.push(KIND_POLICY);
            encode_sysno(buf, *call);
        }
    }
    buf.extend_from_slice(&(report.thread as u32).to_le_bytes());
    buf.extend_from_slice(&report.sequence.to_le_bytes());
    buf.extend_from_slice(&(report.variant as u32).to_le_bytes());
}

pub(crate) fn decode_report(r: &mut Reader<'_>) -> Result<DivergenceReport, String> {
    let kind = match r.u8()? {
        KIND_MISMATCH => DivergenceKind::SyscallMismatch {
            master: decode_sysno(r)?,
            variant: decode_sysno(r)?,
        },
        KIND_RENDEZVOUS_TIMEOUT => DivergenceKind::RendezvousTimeout {
            arrived: decode_variant_list(r)?,
        },
        KIND_REPLICATION_TIMEOUT => DivergenceKind::ReplicationTimeout {
            publisher: r.u32()? as usize,
            arrived: decode_variant_list(r)?,
        },
        KIND_POLICY => DivergenceKind::PolicyViolation {
            call: decode_sysno(r)?,
        },
        t => return Err(format!("bad divergence kind {t}")),
    };
    Ok(DivergenceReport {
        kind,
        thread: r.u32()? as usize,
        sequence: r.u64()?,
        variant: r.u32()? as usize,
    })
}

// The per-record field encoders: the one place each record layout is
// written down.  [`JournalRecord::encode_body`] and the [`JournalRecorder`]
// both call them — the recorder straight from borrowed fields, so nothing
// is cloned into a `JournalRecord` just to be serialised.

fn encode_enter(buf: &mut Vec<u8>, variant: u16, thread: u32, lane: u16, self_aware: bool) {
    buf.push(TAG_ENTER);
    buf.extend_from_slice(&variant.to_le_bytes());
    buf.extend_from_slice(&thread.to_le_bytes());
    buf.extend_from_slice(&lane.to_le_bytes());
    buf.push(u8::from(self_aware));
}

fn encode_class(buf: &mut Vec<u8>, kind: ClassKind, lane: u16) {
    buf.push(TAG_CLASS);
    buf.push(kind.to_wire());
    buf.extend_from_slice(&lane.to_le_bytes());
}

fn encode_arrival(
    buf: &mut Vec<u8>,
    variant: u16,
    thread: u32,
    seq: u64,
    shard: u16,
    order: u64,
    cmp: &ComparisonKey,
) {
    buf.push(TAG_ARRIVAL);
    buf.extend_from_slice(&variant.to_le_bytes());
    buf.extend_from_slice(&thread.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&shard.to_le_bytes());
    buf.extend_from_slice(&order.to_le_bytes());
    encode_cmp(buf, cmp);
}

fn encode_publish(
    buf: &mut Vec<u8>,
    thread: u32,
    seq: u64,
    timestamp: Option<u64>,
    outcome: &SyscallOutcome,
) {
    buf.push(TAG_PUBLISH);
    buf.extend_from_slice(&thread.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.push(u8::from(timestamp.is_some()));
    buf.extend_from_slice(&timestamp.unwrap_or(0).to_le_bytes());
    encode_outcome(buf, outcome);
}

fn encode_diverge(buf: &mut Vec<u8>, report: &DivergenceReport) {
    buf.push(TAG_DIVERGE);
    encode_report(buf, report);
}

fn encode_sync_op(buf: &mut Vec<u8>, variant: u16, thread: u32) {
    buf.push(TAG_SYNC_OP);
    buf.extend_from_slice(&variant.to_le_bytes());
    buf.extend_from_slice(&thread.to_le_bytes());
}

fn encode_end(buf: &mut Vec<u8>, records: u64) {
    buf.push(TAG_END);
    buf.extend_from_slice(&records.to_le_bytes());
}

impl JournalRecord {
    /// Serializes the record body (tag + fields, no frame).
    pub fn encode_body(&self, buf: &mut Vec<u8>) {
        match *self {
            JournalRecord::Enter {
                variant,
                thread,
                lane,
                self_aware,
            } => encode_enter(buf, variant, thread, lane, self_aware),
            JournalRecord::Class { kind, lane } => encode_class(buf, kind, lane),
            JournalRecord::Arrival {
                variant,
                thread,
                seq,
                shard,
                order,
                ref cmp,
            } => encode_arrival(buf, variant, thread, seq, shard, order, cmp),
            JournalRecord::Publish {
                thread,
                seq,
                timestamp,
                ref outcome,
            } => encode_publish(buf, thread, seq, timestamp, outcome),
            JournalRecord::Diverge { ref report } => encode_diverge(buf, report),
            JournalRecord::SyncOp { variant, thread } => encode_sync_op(buf, variant, thread),
            JournalRecord::End { records } => encode_end(buf, records),
        }
    }

    /// Parses a record body (tag + fields, no frame).  The error is a
    /// human-readable reason, wrapped into [`JournalError::Malformed`] by
    /// the stream decoder.
    pub fn decode_body(body: &[u8]) -> Result<JournalRecord, String> {
        let mut r = Reader::new(body);
        let record = match r.u8()? {
            TAG_ENTER => JournalRecord::Enter {
                variant: r.u16()?,
                thread: r.u32()?,
                lane: r.u16()?,
                self_aware: match r.u8()? {
                    0 => false,
                    1 => true,
                    b => return Err(format!("bad self_aware flag {b}")),
                },
            },
            TAG_CLASS => JournalRecord::Class {
                kind: {
                    let raw = r.u8()?;
                    ClassKind::from_wire(raw).ok_or_else(|| format!("bad class kind {raw}"))?
                },
                lane: r.u16()?,
            },
            TAG_ARRIVAL => JournalRecord::Arrival {
                variant: r.u16()?,
                thread: r.u32()?,
                seq: r.u64()?,
                shard: r.u16()?,
                order: r.u64()?,
                cmp: decode_cmp(&mut r)?,
            },
            TAG_PUBLISH => JournalRecord::Publish {
                thread: r.u32()?,
                seq: r.u64()?,
                timestamp: {
                    let has = r.u8()?;
                    let ts = r.u64()?;
                    match has {
                        0 => None,
                        1 => Some(ts),
                        b => return Err(format!("bad timestamp flag {b}")),
                    }
                },
                outcome: decode_outcome(&mut r)?,
            },
            TAG_DIVERGE => JournalRecord::Diverge {
                report: decode_report(&mut r)?,
            },
            TAG_SYNC_OP => JournalRecord::SyncOp {
                variant: r.u16()?,
                thread: r.u32()?,
            },
            TAG_END => JournalRecord::End { records: r.u64()? },
            t => return Err(format!("unknown record tag {t}")),
        };
        r.finish()?;
        Ok(record)
    }
}

/// Why a journal byte stream could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The stream does not start with the `MVJL` magic.
    BadMagic,
    /// The header carries a version this build does not speak.
    UnsupportedVersion(u16),
    /// The stream ends mid-header or mid-record (torn write).
    Truncated {
        /// Byte offset at which the stream ran out.
        offset: usize,
    },
    /// A record's CRC does not match its body (bit rot / torn write).
    CorruptRecord {
        /// Zero-based index of the bad record.
        index: u64,
        /// Byte offset of the record's frame.
        offset: usize,
    },
    /// A record's body parsed to garbage despite a valid CRC.
    Malformed {
        /// Zero-based index of the bad record.
        index: u64,
        /// What went wrong.
        reason: String,
    },
    /// The stream has no `End` trailer: the recording run died mid-write.
    MissingEnd,
    /// Bytes follow the `End` trailer.
    TrailingData {
        /// Byte offset of the first trailing byte.
        offset: usize,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::BadMagic => write!(f, "not a journal: bad magic"),
            JournalError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported journal version {v} (this build speaks {JOURNAL_VERSION})"
                )
            }
            JournalError::Truncated { offset } => {
                write!(f, "journal truncated at byte {offset}")
            }
            JournalError::CorruptRecord { index, offset } => {
                write!(f, "record #{index} at byte {offset} fails its CRC")
            }
            JournalError::Malformed { index, reason } => {
                write!(f, "record #{index} is malformed: {reason}")
            }
            JournalError::MissingEnd => {
                write!(f, "journal has no End trailer (recording died mid-write)")
            }
            JournalError::TrailingData { offset } => {
                write!(f, "unexpected data after End trailer at byte {offset}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// What [`Journal::recover_from_bytes`] salvaged from a possibly torn
/// stream.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredJournal {
    /// The longest valid record prefix.
    pub journal: Journal,
    /// What stopped the parse — `None` when the stream was complete and
    /// nothing was dropped.
    pub damage: Option<JournalError>,
    /// Bytes past the last salvaged record that were discarded (0 for a
    /// complete stream).
    pub dropped_bytes: usize,
}

/// A fully decoded journal: header + records, `End` trailer validated and
/// stripped.
#[derive(Debug, Clone, PartialEq)]
pub struct Journal {
    /// The recorded run's parameters.
    pub header: JournalHeader,
    /// The records, in file (= global arrival) order, without the trailer.
    pub records: Vec<JournalRecord>,
}

fn decode_header(bytes: &[u8]) -> Result<JournalHeader, JournalError> {
    if bytes.len() < 4 || bytes[..4] != JOURNAL_MAGIC {
        if bytes.len() < 4 {
            return Err(JournalError::Truncated {
                offset: bytes.len(),
            });
        }
        return Err(JournalError::BadMagic);
    }
    if bytes.len() < JOURNAL_HEADER_LEN {
        return Err(JournalError::Truncated {
            offset: bytes.len(),
        });
    }
    let word = |at: usize| u16::from_le_bytes([bytes[at], bytes[at + 1]]);
    let header = JournalHeader {
        version: word(4),
        variants: word(6),
        threads: word(8),
        shards: word(10),
        batch: word(12),
    };
    if header.version != JOURNAL_VERSION {
        return Err(JournalError::UnsupportedVersion(header.version));
    }
    Ok(header)
}

impl Journal {
    /// Strictly decodes a journal: every record must frame and parse, the
    /// `End` trailer must be present, carry the right count and be last.
    pub fn decode(bytes: &[u8]) -> Result<Journal, JournalError> {
        match Self::decode_inner(bytes) {
            Ok((journal, None, _)) => Ok(journal),
            Ok((_, Some(err), _)) | Err(err) => Err(err),
        }
    }

    /// Crash-recovery entry point: salvages the longest valid record prefix
    /// of a possibly torn journal and accounts for what was lost.
    ///
    /// This is what a respawn reads after a variant died mid-run — possibly
    /// mid-write — so unlike [`decode`](Self::decode) it treats a torn,
    /// corrupt or trailer-less stream as data, not as failure: the damage
    /// becomes [`RecoveredJournal::damage`] and the unsalvageable suffix
    /// length becomes [`RecoveredJournal::dropped_bytes`].  Only header
    /// damage (bad magic, wrong version, a stream shorter than the header)
    /// is unrecoverable, because without a header no record can be
    /// interpreted.
    pub fn recover_from_bytes(bytes: &[u8]) -> Result<RecoveredJournal, JournalError> {
        let (journal, damage, consumed) = Self::decode_inner(bytes)?;
        Ok(RecoveredJournal {
            journal,
            damage,
            dropped_bytes: bytes.len() - consumed,
        })
    }

    /// Walks the record stream.  The third element of the success tuple is
    /// the byte offset consumed into salvaged records (header included) —
    /// what [`recover_from_bytes`](Self::recover_from_bytes) subtracts from
    /// the stream length to report the dropped suffix.
    fn decode_inner(bytes: &[u8]) -> Result<(Journal, Option<JournalError>, usize), JournalError> {
        let header = decode_header(bytes)?;
        let mut records = Vec::new();
        let mut offset = JOURNAL_HEADER_LEN;
        let mut index = 0u64;
        let journal = |records: Vec<JournalRecord>| Journal { header, records };
        loop {
            // `offset` always sits just past the last salvaged record here,
            // so every early return reports it as the consumed length.
            let (body, next) = match next_frame(bytes, offset) {
                Ok(Some(frame)) => frame,
                Ok(None) => {
                    return Ok((journal(records), Some(JournalError::MissingEnd), offset));
                }
                Err(FrameError::Truncated { offset: at }) => {
                    let err = JournalError::Truncated { offset: at };
                    return Ok((journal(records), Some(err), offset));
                }
                Err(FrameError::Corrupt { offset: at }) => {
                    let err = JournalError::CorruptRecord { index, offset: at };
                    return Ok((journal(records), Some(err), offset));
                }
            };
            let record = match JournalRecord::decode_body(body) {
                Ok(record) => record,
                Err(reason) => {
                    let err = JournalError::Malformed { index, reason };
                    return Ok((journal(records), Some(err), offset));
                }
            };
            if let JournalRecord::End { records: count } = record {
                if count != index {
                    let err = JournalError::Malformed {
                        index,
                        reason: format!("End trailer claims {count} records, stream has {index}"),
                    };
                    return Ok((journal(records), Some(err), offset));
                }
                if next != bytes.len() {
                    let err = JournalError::TrailingData { offset: next };
                    return Ok((journal(records), Some(err), next));
                }
                return Ok((journal(records), None, next));
            }
            offset = next;
            records.push(record);
            index += 1;
        }
    }

    /// Re-encodes the journal to bytes (header, records, `End` trailer).
    /// `decode(encode(j)) == j` — the golden tests pin this.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.header.encode(&mut buf);
        for record in &self.records {
            push_frame_with(&mut buf, |body| record.encode_body(body));
        }
        push_frame_with(&mut buf, |body| encode_end(body, self.records.len() as u64));
        buf
    }
}

/// The journal knob on `MveeConfig`: record the run, replay a prior one,
/// or neither (the default — the journal hooks are a `None` check on the
/// hot path).
#[derive(Debug, Clone, Default)]
pub enum JournalMode {
    /// No journaling.
    #[default]
    Off,
    /// Record the run through the given sink; call
    /// [`JournalRecorder::finish`] after the run for the bytes.
    Record(Arc<JournalRecorder>),
    /// Carry a decoded journal as the run's replay source; the MVEE exposes
    /// it through `Mvee::replay_recorded`, which re-derives the verdicts
    /// offline.
    Replay(Arc<Journal>),
}

impl JournalMode {
    /// The recording sink, when in [`JournalMode::Record`].
    pub fn recorder(&self) -> Option<&Arc<JournalRecorder>> {
        match self {
            JournalMode::Record(rec) => Some(rec),
            _ => None,
        }
    }

    /// The replay source, when in [`JournalMode::Replay`].
    pub fn replay_source(&self) -> Option<&Arc<Journal>> {
        match self {
            JournalMode::Replay(journal) => Some(journal),
            _ => None,
        }
    }
}

struct RecorderInner {
    buf: Vec<u8>,
    records: u64,
    next_order: u64,
    begun: bool,
}

impl RecorderInner {
    /// Frames one record onto the stream, its body encoded in place.
    fn append(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        push_frame_with(&mut self.buf, encode);
        self.records += 1;
    }
}

/// Thread-safe journal sink.  The monitor and the rendezvous table append
/// records under a single leaf mutex, so file order is a valid global order
/// of the events — that single serialization point is what makes the
/// `order` counter a RecPlay-style timestamp.
///
/// Every `record_*` call encodes its record under that mutex, straight into
/// the stream buffer and straight from the caller's borrowed fields: an
/// append costs no allocation beyond the buffer's own amortised growth, and
/// no key, outcome or report is cloned on the way.  An arrival's `order` is
/// taken under the same lock acquisition that writes the record, so order
/// values appear in file order.
pub struct JournalRecorder {
    inner: Mutex<RecorderInner>,
}

impl JournalRecorder {
    /// Creates an empty, not-yet-begun recorder.  [`begin`] must run before
    /// records are accepted; the monitor calls it at construction.
    ///
    /// [`begin`]: JournalRecorder::begin
    pub fn new() -> Self {
        JournalRecorder {
            inner: Mutex::new(RecorderInner {
                buf: Vec::new(),
                records: 0,
                next_order: 0,
                begun: false,
            }),
        }
    }

    /// Creates a recorder and begins it with `header` — the convenient
    /// constructor for hand-built journals (fixtures, tests).
    pub fn with_header(header: JournalHeader) -> Self {
        let rec = JournalRecorder::new();
        rec.begin(header);
        rec
    }

    /// Writes the stream header.  Idempotent: only the first call takes
    /// effect, so the monitor can begin unconditionally.
    pub fn begin(&self, header: JournalHeader) {
        let mut inner = self.inner.lock();
        if !inner.begun {
            header.encode(&mut inner.buf);
            inner.begun = true;
        }
    }

    /// Appends one record, encoded in place under the journal lock.
    fn push(&self, encode: impl FnOnce(&mut Vec<u8>)) {
        let mut inner = self.inner.lock();
        // Records before `begin` have no header to follow; dropping them
        // (instead of corrupting the stream) keeps the invariant that a
        // recorder's bytes always decode.
        if inner.begun {
            inner.append(encode);
        }
    }

    /// Records a gateway entry.
    pub fn record_enter(&self, variant: usize, thread: usize, lane: usize, self_aware: bool) {
        self.push(|body| {
            encode_enter(body, variant as u16, thread as u32, lane as u16, self_aware)
        });
    }

    /// Records a gateway classification (or batch flush).
    pub fn record_class(&self, kind: ClassKind, lane: usize) {
        self.push(|body| encode_class(body, kind, lane as u16));
    }

    /// Records a rendezvous deposit; the global arrival order is assigned
    /// here, under the journal lock.
    pub fn record_arrival(
        &self,
        variant: usize,
        thread: usize,
        seq: u64,
        shard: usize,
        cmp: &ComparisonKey,
    ) {
        // Assign the order under the same lock that serializes the write so
        // order values appear in file order.
        let mut inner = self.inner.lock();
        if !inner.begun {
            return;
        }
        let order = inner.next_order;
        inner.next_order += 1;
        inner.append(|body| {
            encode_arrival(
                body,
                variant as u16,
                thread as u32,
                seq,
                shard as u16,
                order,
                cmp,
            )
        });
    }

    /// Records a published replicated outcome.
    pub fn record_publish(
        &self,
        thread: usize,
        seq: u64,
        timestamp: Option<u64>,
        outcome: &SyscallOutcome,
    ) {
        self.push(|body| encode_publish(body, thread as u32, seq, timestamp, outcome));
    }

    /// Records a divergence declaration.
    pub fn record_diverge(&self, report: &DivergenceReport) {
        self.push(|body| encode_diverge(body, report));
    }

    /// Records an agent replication point.
    pub fn record_sync_op(&self, variant: usize, thread: usize) {
        self.push(|body| encode_sync_op(body, variant as u16, thread as u32));
    }

    /// Number of records written so far (trailer excluded).
    pub fn records(&self) -> u64 {
        self.inner.lock().records
    }

    /// Snapshots the journal bytes: the stream so far plus an `End`
    /// trailer.  The recorder itself is untouched, so `finish` can be
    /// called repeatedly (each call yields a complete, decodable journal).
    pub fn finish(&self) -> Vec<u8> {
        let inner = self.inner.lock();
        // Sized for the stream plus the trailer frame (tag + count), so the
        // copy is the only pass over the bytes.
        let mut buf = Vec::with_capacity(inner.buf.len() + FRAME_OVERHEAD + 9);
        buf.extend_from_slice(&inner.buf);
        push_frame_with(&mut buf, |body| encode_end(body, inner.records));
        buf
    }
}

impl Default for JournalRecorder {
    fn default() -> Self {
        JournalRecorder::new()
    }
}

impl fmt::Debug for JournalRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("JournalRecorder")
            .field("begun", &inner.begun)
            .field("records", &inner.records)
            .field("bytes", &inner.buf.len())
            .finish()
    }
}

/// Why a decoded journal could not be replayed consistently.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The byte stream itself was bad.
    Journal(JournalError),
    /// The recorded schedule is internally inconsistent (out-of-order
    /// arrival stamps, variants beyond the header's count, duplicate
    /// deposits).
    InconsistentSchedule {
        /// Index of the offending record.
        index: u64,
        /// What went wrong.
        reason: String,
    },
    /// Re-deriving the verdict from the recorded arrivals did not reproduce
    /// the recorded divergence report.
    VerdictMismatch {
        /// The report the live run recorded.
        recorded: DivergenceReport,
        /// Why the re-derivation disagrees.
        reason: String,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Journal(err) => write!(f, "journal error: {err}"),
            ReplayError::InconsistentSchedule { index, reason } => {
                write!(f, "inconsistent schedule at record #{index}: {reason}")
            }
            ReplayError::VerdictMismatch { recorded, reason } => {
                write!(
                    f,
                    "replay verdict mismatch ({reason}); recorded: {}",
                    recorded.summary()
                )
            }
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<JournalError> for ReplayError {
    fn from(err: JournalError) -> Self {
        ReplayError::Journal(err)
    }
}

/// The result of replaying a journal offline: the re-derived monitor
/// statistics and (for a divergent run) the re-verified report.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayedRun {
    /// The recorded run's parameters.
    pub header: JournalHeader,
    /// Monitor counters re-derived from the record stream; for a faithful
    /// journal these equal the live run's [`MonitorStats`] exactly.
    pub stats: MonitorStats,
    /// Distinct rendezvous slots that saw at least one deposit.
    pub slots: usize,
    /// Total rendezvous deposits.
    pub arrivals: u64,
    /// Replicated/ordered outcomes published.
    pub publishes: u64,
    /// Agent replication points.
    pub sync_ops: u64,
    /// The first recorded divergence report, re-verified against the
    /// recorded arrival keys; `None` for a clean run.
    pub divergence: Option<DivergenceReport>,
}

/// Decodes and replays a journal byte stream.  See [`replay_journal`].
pub fn replay(bytes: &[u8]) -> Result<ReplayedRun, ReplayError> {
    let journal = Journal::decode(bytes)?;
    replay_journal(&journal)
}

/// Replays a decoded journal: re-derives the monitor statistics from the
/// record stream and, when the run diverged, re-runs the verdict over the
/// recorded arrival keys — the re-derived first-mismatch slot and variant
/// must reproduce the recorded report field by field, else
/// [`ReplayError::VerdictMismatch`].
pub fn replay_journal(journal: &Journal) -> Result<ReplayedRun, ReplayError> {
    use std::collections::BTreeMap;

    let variants = journal.header.variants as usize;
    let mut stats = MonitorStats::default();
    let mut slots: BTreeMap<(u32, u64), Vec<Option<ComparisonKey>>> = BTreeMap::new();
    let mut arrivals = 0u64;
    let mut publishes = 0u64;
    let mut sync_ops = 0u64;
    let mut last_order: Option<u64> = None;
    let mut divergence: Option<DivergenceReport> = None;

    for (index, record) in journal.records.iter().enumerate() {
        let index = index as u64;
        match record {
            JournalRecord::Enter { self_aware, .. } => {
                stats.total_syscalls += 1;
                if *self_aware {
                    stats.self_aware_queries += 1;
                }
            }
            JournalRecord::Class { kind, .. } => match kind {
                ClassKind::Lockstep => stats.lockstep_syscalls += 1,
                ClassKind::Batched => stats.batched_comparisons += 1,
                ClassKind::Replicated => stats.replicated_syscalls += 1,
                ClassKind::Ordered => stats.ordered_syscalls += 1,
                ClassKind::BatchFlush => stats.batch_flushes += 1,
            },
            JournalRecord::Arrival {
                variant,
                thread,
                seq,
                order,
                cmp,
                ..
            } => {
                let variant = *variant as usize;
                if variant >= variants {
                    return Err(ReplayError::InconsistentSchedule {
                        index,
                        reason: format!(
                            "arrival from variant {variant} but the header declares {variants}"
                        ),
                    });
                }
                if last_order.is_some_and(|prev| *order <= prev) {
                    return Err(ReplayError::InconsistentSchedule {
                        index,
                        reason: format!(
                            "arrival order {} not after predecessor {}",
                            order,
                            last_order.unwrap()
                        ),
                    });
                }
                last_order = Some(*order);
                let keys = slots
                    .entry((*thread, *seq))
                    .or_insert_with(|| vec![None; variants]);
                if keys[variant].is_some() {
                    return Err(ReplayError::InconsistentSchedule {
                        index,
                        reason: format!(
                            "duplicate deposit by variant {variant} at slot ({thread}, {seq:#x})"
                        ),
                    });
                }
                keys[variant] = Some(cmp.clone());
                arrivals += 1;
            }
            JournalRecord::Publish { .. } => publishes += 1,
            JournalRecord::Diverge { report } => {
                stats.divergences += 1;
                if divergence.is_none() {
                    divergence = Some(report.clone());
                }
            }
            JournalRecord::SyncOp { .. } => sync_ops += 1,
            JournalRecord::End { .. } => {
                return Err(ReplayError::InconsistentSchedule {
                    index,
                    reason: "End trailer inside the record stream".to_string(),
                });
            }
        }
    }

    if let Some(report) = &divergence {
        verify_report(report, &slots)?;
    }

    Ok(ReplayedRun {
        header: journal.header,
        stats,
        slots: slots.len(),
        arrivals,
        publishes,
        sync_ops,
        divergence,
    })
}

/// Re-derives the verdict for `report` from the recorded arrival keys.
///
/// Reports strip [`DEFERRED_SEQ_BIT`] from the sequence, so both candidate
/// slots — the direct one and the deferred one — are consulted.
fn verify_report(
    report: &DivergenceReport,
    slots: &std::collections::BTreeMap<(u32, u64), Vec<Option<ComparisonKey>>>,
) -> Result<(), ReplayError> {
    let thread = report.thread as u32;
    let candidates = [
        (thread, report.sequence),
        (thread, report.sequence | DEFERRED_SEQ_BIT),
    ];
    match &report.kind {
        DivergenceKind::SyscallMismatch { master, variant } => {
            for key in candidates {
                let Some(keys) = slots.get(&key) else {
                    continue;
                };
                if let Some((v, master_key, variant_key)) = first_mismatch(keys) {
                    if v == report.variant && master_key.no == *master && variant_key.no == *variant
                    {
                        return Ok(());
                    }
                    return Err(ReplayError::VerdictMismatch {
                        recorded: report.clone(),
                        reason: format!(
                            "re-derived mismatch blames variant {v} ({} vs {}), \
                             report blames variant {} ({} vs {})",
                            master_key.no.name(),
                            variant_key.no.name(),
                            report.variant,
                            master.name(),
                            variant.name()
                        ),
                    });
                }
            }
            Err(ReplayError::VerdictMismatch {
                recorded: report.clone(),
                reason: "no recorded slot re-derives the mismatch".to_string(),
            })
        }
        DivergenceKind::RendezvousTimeout { arrived }
        | DivergenceKind::ReplicationTimeout { arrived, .. } => {
            // Ordered-turn waits and replication-only slots fabricate their
            // arrived set without any table deposit; a report over a slot
            // with zero recorded arrivals is accepted as-is.
            let deposited: Vec<&Vec<Option<ComparisonKey>>> =
                candidates.iter().filter_map(|k| slots.get(k)).collect();
            if deposited.is_empty() {
                return Ok(());
            }
            for &v in arrived {
                let seen = deposited
                    .iter()
                    .any(|keys| keys.get(v).map(Option::is_some).unwrap_or(false));
                if !seen {
                    return Err(ReplayError::VerdictMismatch {
                        recorded: report.clone(),
                        reason: format!(
                            "report lists variant {v} as arrived but the journal has no \
                             deposit from it at that slot"
                        ),
                    });
                }
            }
            Ok(())
        }
        // The gate denies a forbidden call before any deposit; there is no
        // schedule to cross-check.
        DivergenceKind::PolicyViolation { .. } => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvee_kernel::syscall::SyscallRequest;

    fn header() -> JournalHeader {
        JournalHeader {
            version: JOURNAL_VERSION,
            variants: 2,
            threads: 4,
            shards: 8,
            batch: 1,
        }
    }

    fn cmp(no: Sysno) -> ComparisonKey {
        SyscallRequest::new(no).comparison_key()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn empty_journal_round_trips() {
        let rec = JournalRecorder::with_header(header());
        let bytes = rec.finish();
        let journal = Journal::decode(&bytes).expect("decode");
        assert_eq!(journal.header, header());
        assert!(journal.records.is_empty());
        assert_eq!(journal.encode(), bytes);
    }

    #[test]
    fn every_record_kind_round_trips() {
        let rec = JournalRecorder::with_header(header());
        rec.record_enter(0, 3, 3, false);
        rec.record_enter(1, 3, 3, true);
        rec.record_class(ClassKind::Lockstep, 3);
        rec.record_class(ClassKind::BatchFlush, 0);
        rec.record_arrival(0, 3, 7, 3, &cmp(Sysno::Brk));
        rec.record_arrival(1, 3, 7 | DEFERRED_SEQ_BIT, 3, &cmp(Sysno::Brk));
        rec.record_publish(3, 7, Some(42), &SyscallOutcome::ok(0));
        rec.record_publish(
            3,
            8,
            None,
            &SyscallOutcome {
                result: Err(Errno::Einval),
                payload: vec![1, 2, 3],
            },
        );
        rec.record_diverge(&DivergenceReport {
            kind: DivergenceKind::SyscallMismatch {
                master: Sysno::Brk,
                variant: Sysno::Mmap,
            },
            thread: 3,
            sequence: 7,
            variant: 1,
        });
        rec.record_sync_op(1, 2);
        assert_eq!(rec.records(), 10);

        let bytes = rec.finish();
        let journal = Journal::decode(&bytes).expect("decode");
        assert_eq!(journal.records.len(), 10);
        assert_eq!(
            journal.records[1],
            JournalRecord::Enter {
                variant: 1,
                thread: 3,
                lane: 3,
                self_aware: true
            }
        );
        assert!(matches!(
            journal.records[5],
            JournalRecord::Arrival { order: 1, seq, .. } if seq == 7 | DEFERRED_SEQ_BIT
        ));
        assert_eq!(journal.encode(), bytes);
    }

    #[test]
    fn every_known_sysno_encodes_to_its_table_position_and_back() {
        for (position, &no) in SYSNO_TABLE.iter().enumerate() {
            assert_eq!(sysno_wire_form(no), (0, position as u32), "{no:?}");
            let mut bytes = Vec::new();
            encode_sysno(&mut bytes, no);
            let mut expected = vec![0u8];
            expected.extend_from_slice(&(position as u32).to_le_bytes());
            assert_eq!(bytes, expected, "{no:?}");
            assert_eq!(decode_sysno(&mut Reader::new(&bytes)), Ok(no));
        }
        let mut bytes = Vec::new();
        encode_sysno(&mut bytes, Sysno::Unknown(999));
        assert_eq!(bytes, [1, 0xE7, 0x03, 0, 0]);
        assert_eq!(
            decode_sysno(&mut Reader::new(&bytes)),
            Ok(Sysno::Unknown(999))
        );
        let past_the_table = SYSNO_TABLE.len() as u32;
        let mut bytes = vec![0u8];
        bytes.extend_from_slice(&past_the_table.to_le_bytes());
        assert!(decode_sysno(&mut Reader::new(&bytes)).is_err());
    }

    /// The recorder encodes from borrowed fields, `Journal::encode` from
    /// owned `JournalRecord`s: the two must write the same bytes, for
    /// every record kind and for the large and variable-length fields.
    #[test]
    fn recorder_bytes_survive_decode_then_encode_unchanged() {
        let path_key = ComparisonKey {
            no: Sysno::Open,
            args: vec![
                SyscallArg::Path("/var/www/index.html".to_string()),
                SyscallArg::Flags(0o2),
                SyscallArg::Pointer(0x7FFF_1234),
            ],
            payload_digest: 0xFEED_FACE_CAFE_BEEF,
            payload_len: 4096,
        };
        let big = SyscallOutcome {
            result: Ok(64 * 1024),
            payload: (0..64 * 1024).map(|i| (i * 31 % 251) as u8).collect(),
        };
        let rec = JournalRecorder::with_header(header());
        rec.record_enter(0, 1, 1, false);
        rec.record_enter(1, 1, 1, true);
        rec.record_class(ClassKind::Replicated, 1);
        rec.record_arrival(0, 1, 4, 1, &path_key);
        rec.record_arrival(1, 1, 4 | DEFERRED_SEQ_BIT, 1, &cmp(Sysno::Unknown(4242)));
        rec.record_publish(1, 4, Some(u64::MAX), &big);
        rec.record_publish(1, 5, None, &big);
        rec.record_publish(
            1,
            6,
            None,
            &SyscallOutcome {
                result: Err(Errno::Einval),
                payload: Vec::new(),
            },
        );
        for kind in [
            DivergenceKind::SyscallMismatch {
                master: Sysno::Open,
                variant: Sysno::Unknown(7),
            },
            DivergenceKind::RendezvousTimeout {
                arrived: vec![0, 2],
            },
            DivergenceKind::ReplicationTimeout {
                publisher: 1,
                arrived: vec![],
            },
            DivergenceKind::PolicyViolation { call: Sysno::Mmap },
        ] {
            rec.record_diverge(&DivergenceReport {
                kind,
                thread: 1,
                sequence: 4,
                variant: 1,
            });
        }
        rec.record_sync_op(1, 1);
        assert_eq!(rec.records(), 13);

        let bytes = rec.finish();
        let journal = Journal::decode(&bytes).expect("decode");
        assert_eq!(journal.records.len(), 13);
        assert!(matches!(
            &journal.records[3],
            JournalRecord::Arrival { order: 0, cmp, .. } if *cmp == path_key
        ));
        assert!(matches!(
            &journal.records[5],
            JournalRecord::Publish { timestamp: Some(u64::MAX), outcome, .. } if *outcome == big
        ));
        assert_eq!(journal.encode(), bytes);
        // A second snapshot of the same recorder is the same journal.
        assert_eq!(rec.finish(), bytes);
    }

    #[test]
    fn comparison_keys_with_every_arg_kind_round_trip() {
        let key = ComparisonKey {
            no: Sysno::Unknown(999),
            args: vec![
                SyscallArg::Int(-5),
                SyscallArg::Fd(3),
                SyscallArg::Flags(0xDEAD_BEEF),
                SyscallArg::Pointer(0x7FFF_0000),
                SyscallArg::Path("/tmp/x".to_string()),
                SyscallArg::BufLen(4096),
            ],
            payload_digest: 0x0123_4567_89AB_CDEF,
            payload_len: 17,
        };
        let rec = JournalRecorder::with_header(header());
        rec.record_arrival(0, 0, 0, 0, &key);
        let journal = Journal::decode(&rec.finish()).expect("decode");
        assert!(matches!(
            &journal.records[0],
            JournalRecord::Arrival { cmp, .. } if *cmp == key
        ));
    }

    #[test]
    fn all_divergence_kinds_round_trip() {
        let kinds = [
            DivergenceKind::SyscallMismatch {
                master: Sysno::Read,
                variant: Sysno::Write,
            },
            DivergenceKind::RendezvousTimeout {
                arrived: vec![0, 2],
            },
            DivergenceKind::ReplicationTimeout {
                publisher: 0,
                arrived: vec![1],
            },
            DivergenceKind::PolicyViolation { call: Sysno::Open },
        ];
        let rec = JournalRecorder::with_header(header());
        for (i, kind) in kinds.iter().enumerate() {
            rec.record_diverge(&DivergenceReport {
                kind: kind.clone(),
                thread: i,
                sequence: i as u64,
                variant: 1,
            });
        }
        let journal = Journal::decode(&rec.finish()).expect("decode");
        for (i, kind) in kinds.iter().enumerate() {
            assert!(matches!(
                &journal.records[i],
                JournalRecord::Diverge { report } if report.kind == *kind
            ));
        }
    }

    #[test]
    fn records_before_begin_are_dropped_not_corrupting() {
        let rec = JournalRecorder::new();
        rec.record_enter(0, 0, 0, false);
        rec.record_class(ClassKind::Lockstep, 0);
        rec.record_arrival(0, 0, 0, 0, &cmp(Sysno::Brk));
        rec.record_publish(0, 0, None, &SyscallOutcome::ok(0));
        rec.record_diverge(&DivergenceReport {
            kind: DivergenceKind::PolicyViolation { call: Sysno::Open },
            thread: 0,
            sequence: 0,
            variant: 0,
        });
        rec.record_sync_op(0, 0);
        assert_eq!(rec.records(), 0);
        rec.begin(header());
        assert_eq!(
            rec.finish(),
            JournalRecorder::with_header(header()).finish(),
            "dropped, not written"
        );
        rec.record_enter(0, 1, 1, false);
        rec.record_arrival(0, 1, 0, 1, &cmp(Sysno::Brk));
        let journal = Journal::decode(&rec.finish()).expect("decode");
        assert_eq!(journal.records.len(), 2);
        // A dropped arrival spends no order stamp either.
        assert!(matches!(
            journal.records[1],
            JournalRecord::Arrival { order: 0, .. }
        ));
    }

    #[test]
    fn bad_magic_is_detected() {
        let rec = JournalRecorder::with_header(header());
        let mut bytes = rec.finish();
        bytes[0] = b'X';
        assert_eq!(Journal::decode(&bytes), Err(JournalError::BadMagic));
    }

    #[test]
    fn future_version_is_rejected() {
        let rec = JournalRecorder::with_header(JournalHeader {
            version: JOURNAL_VERSION + 1,
            ..header()
        });
        assert_eq!(
            Journal::decode(&rec.finish()),
            Err(JournalError::UnsupportedVersion(JOURNAL_VERSION + 1))
        );
    }

    #[test]
    fn every_truncation_point_is_a_typed_error() {
        let rec = JournalRecorder::with_header(header());
        rec.record_enter(0, 0, 0, false);
        rec.record_arrival(0, 0, 0, 0, &cmp(Sysno::Brk));
        let bytes = rec.finish();
        for cut in 0..bytes.len() {
            let err = Journal::decode(&bytes[..cut]).expect_err("truncation must fail");
            assert!(
                matches!(
                    err,
                    JournalError::Truncated { .. } | JournalError::MissingEnd
                ),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn corrupted_record_fails_crc_with_its_index() {
        let rec = JournalRecorder::with_header(header());
        rec.record_enter(0, 0, 0, false);
        rec.record_enter(0, 1, 1, false);
        let mut bytes = rec.finish();
        // Flip one bit inside the second record's body: header (14) +
        // record 0 frame (8 + 10) + record 1 frame header (8) + 1.
        let offset = JOURNAL_HEADER_LEN + 8 + 10;
        bytes[offset + 8 + 1] ^= 0x40;
        assert_eq!(
            Journal::decode(&bytes),
            Err(JournalError::CorruptRecord { index: 1, offset })
        );
    }

    #[test]
    fn trailing_data_after_end_is_rejected() {
        let rec = JournalRecorder::with_header(header());
        let mut bytes = rec.finish();
        let offset = bytes.len();
        bytes.push(0);
        assert_eq!(
            Journal::decode(&bytes),
            Err(JournalError::TrailingData { offset })
        );
    }

    #[test]
    fn lossy_decode_salvages_the_valid_prefix() {
        let rec = JournalRecorder::with_header(header());
        rec.record_enter(0, 0, 0, false);
        rec.record_enter(0, 1, 1, false);
        let bytes = rec.finish();
        // Cut inside the second record.
        let cut = JOURNAL_HEADER_LEN + 8 + 10 + 4;
        let salvaged = Journal::recover_from_bytes(&bytes[..cut]).expect("header intact");
        assert_eq!(salvaged.journal.records.len(), 1);
        assert!(matches!(
            salvaged.damage,
            Some(JournalError::Truncated { .. })
        ));
        // A complete stream salvages everything with no error.
        let salvaged = Journal::recover_from_bytes(&bytes).expect("header intact");
        assert_eq!(salvaged.journal.records.len(), 2);
        assert_eq!(salvaged.damage, None);
    }

    #[test]
    fn replay_reconstructs_stats_and_clean_run() {
        let rec = JournalRecorder::with_header(header());
        rec.record_enter(0, 0, 0, false);
        rec.record_enter(1, 0, 0, false);
        rec.record_class(ClassKind::Lockstep, 0);
        rec.record_arrival(0, 0, 1, 0, &cmp(Sysno::Brk));
        rec.record_arrival(1, 0, 1, 0, &cmp(Sysno::Brk));
        rec.record_publish(0, 2, None, &SyscallOutcome::ok(7));
        rec.record_sync_op(0, 0);
        let run = replay(&rec.finish()).expect("replay");
        assert_eq!(run.stats.total_syscalls, 2);
        assert_eq!(run.stats.lockstep_syscalls, 1);
        assert_eq!(run.stats.divergences, 0);
        assert_eq!(run.slots, 1);
        assert_eq!(run.arrivals, 2);
        assert_eq!(run.publishes, 1);
        assert_eq!(run.sync_ops, 1);
        assert_eq!(run.divergence, None);
    }

    #[test]
    fn replay_reverifies_a_recorded_mismatch() {
        let rec = JournalRecorder::with_header(header());
        rec.record_arrival(0, 2, 5, 2, &cmp(Sysno::Brk));
        rec.record_arrival(1, 2, 5, 2, &cmp(Sysno::Mmap));
        let report = DivergenceReport {
            kind: DivergenceKind::SyscallMismatch {
                master: Sysno::Brk,
                variant: Sysno::Mmap,
            },
            thread: 2,
            sequence: 5,
            variant: 1,
        };
        rec.record_diverge(&report);
        let run = replay(&rec.finish()).expect("replay");
        assert_eq!(run.divergence, Some(report));
        assert_eq!(run.stats.divergences, 1);
    }

    #[test]
    fn replay_reverifies_a_deferred_slot_mismatch() {
        // The live table keys deferred comparisons with DEFERRED_SEQ_BIT;
        // the report strips it.  Replay must find the deferred slot.
        let rec = JournalRecorder::with_header(header());
        rec.record_arrival(0, 1, 3 | DEFERRED_SEQ_BIT, 1, &cmp(Sysno::Brk));
        rec.record_arrival(1, 1, 3 | DEFERRED_SEQ_BIT, 1, &cmp(Sysno::Munmap));
        let report = DivergenceReport {
            kind: DivergenceKind::SyscallMismatch {
                master: Sysno::Brk,
                variant: Sysno::Munmap,
            },
            thread: 1,
            sequence: 3,
            variant: 1,
        };
        rec.record_diverge(&report);
        let run = replay(&rec.finish()).expect("replay");
        assert_eq!(run.divergence, Some(report));
    }

    #[test]
    fn replay_rejects_a_report_the_schedule_contradicts() {
        // Identical keys deposited, yet a mismatch report: the verdict
        // cannot be re-derived.
        let rec = JournalRecorder::with_header(header());
        rec.record_arrival(0, 0, 1, 0, &cmp(Sysno::Brk));
        rec.record_arrival(1, 0, 1, 0, &cmp(Sysno::Brk));
        rec.record_diverge(&DivergenceReport {
            kind: DivergenceKind::SyscallMismatch {
                master: Sysno::Brk,
                variant: Sysno::Mmap,
            },
            thread: 0,
            sequence: 1,
            variant: 1,
        });
        assert!(matches!(
            replay(&rec.finish()),
            Err(ReplayError::VerdictMismatch { .. })
        ));
    }

    #[test]
    fn replay_accepts_zero_arrival_timeout_reports() {
        // Ordered-turn waits fabricate RendezvousTimeout reports without a
        // table deposit; replay accepts them as-is.
        let rec = JournalRecorder::with_header(header());
        rec.record_diverge(&DivergenceReport {
            kind: DivergenceKind::RendezvousTimeout { arrived: vec![1] },
            thread: 0,
            sequence: 9,
            variant: 0,
        });
        assert!(replay(&rec.finish()).is_ok());
    }

    #[test]
    fn replay_checks_timeout_arrived_sets_against_deposits() {
        let rec = JournalRecorder::with_header(header());
        rec.record_arrival(0, 0, 4, 0, &cmp(Sysno::Brk));
        // Variant 1 never deposited, yet the report claims it arrived.
        rec.record_diverge(&DivergenceReport {
            kind: DivergenceKind::RendezvousTimeout { arrived: vec![1] },
            thread: 0,
            sequence: 4,
            variant: 0,
        });
        assert!(matches!(
            replay(&rec.finish()),
            Err(ReplayError::VerdictMismatch { .. })
        ));
    }

    #[test]
    fn replay_rejects_out_of_order_arrival_stamps() {
        // Hand-build a journal whose order stamps regress.
        let mut journal = Journal {
            header: header(),
            records: Vec::new(),
        };
        for order in [1u64, 0u64] {
            journal.records.push(JournalRecord::Arrival {
                variant: 0,
                thread: 0,
                seq: order,
                shard: 0,
                order,
                cmp: cmp(Sysno::Brk),
            });
        }
        assert!(matches!(
            replay_journal(&journal),
            Err(ReplayError::InconsistentSchedule { index: 1, .. })
        ));
    }

    #[test]
    fn replay_rejects_variants_beyond_the_header() {
        let rec = JournalRecorder::with_header(header());
        rec.record_arrival(5, 0, 0, 0, &cmp(Sysno::Brk));
        assert!(matches!(
            replay(&rec.finish()),
            Err(ReplayError::InconsistentSchedule { index: 0, .. })
        ));
    }

    #[test]
    fn errors_display_their_context() {
        let err = JournalError::CorruptRecord {
            index: 3,
            offset: 99,
        };
        let msg = err.to_string();
        assert!(msg.contains('3') && msg.contains("99"));
        let replay_err = ReplayError::Journal(JournalError::MissingEnd);
        assert!(replay_err.to_string().contains("End"));
    }
}
