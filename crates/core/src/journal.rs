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
//! schedule.
//!
//! The read side is one walk, one body parser and one fold, each with
//! several users:
//!
//! * **The walk** is the only salvage loop.  It splits off CRC-verified
//!   frames, parses each body and stops at the first damage or at the
//!   `End` trailer.  [`Journal::decode`] and [`Journal::recover_from_bytes`]
//!   run it with a sink that builds owned [`JournalRecord`]s, in a vector
//!   sized up front from the frames' length prefixes.  [`replay`] and
//!   [`recover_replay`] run it with the fold as the sink and build no
//!   record at all.
//! * **The parser** reads each body once, whatever it builds: an owned
//!   record, or an in-place view whose arrival key and published payload
//!   stay in the body.
//! * **The fold** re-derives the monitor statistics and checks the
//!   schedule (arrival order, variant range, duplicate deposits).  Per
//!   rendezvous slot it keeps only which variants deposited, sized by the
//!   deposits and never by the header's variant count, and it clones no
//!   key.  For a divergent run it re-runs the verdict over the keys at the
//!   report's two candidate slots via [`first_mismatch`], and the
//!   re-derived first-mismatch slot and variant must match the recorded
//!   report field by field.  Those keys come from the records after the
//!   report, as the fold meets them, and from a second pass over only the
//!   records between the slots' first deposit and the report.
//!   [`replay_journal`] runs the fold over decoded records.
//!
//! A respawn runs [`recover_replay`] over the live recorder's stream in
//! place, under the journal lock: no copy, no decoded record.  No live
//! variant takes part in any replay.

use std::collections::hash_map::RandomState;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::ops::Range;
use std::sync::Arc;

use parking_lot::Mutex;

use mvee_kernel::error::Errno;
use mvee_kernel::syscall::{ComparisonKey, SyscallArg, SyscallOutcome, Sysno};

use crate::divergence::{first_mismatch, DivergenceKind, DivergenceReport};
use crate::frame::{next_frame, push_frame_with, FrameError, Reader, FRAME_OVERHEAD};
use crate::lockstep::SlotKey;
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

/// A parsed argument that still borrows its body: a path stays the checked
/// `&str` it was read as until [`to_arg`](ArgView::to_arg) copies it.
#[derive(Clone, Copy)]
enum ArgView<'a> {
    Int(i64),
    Fd(i32),
    Flags(u64),
    Pointer(u64),
    Path(&'a str),
    BufLen(u64),
}

impl ArgView<'_> {
    fn to_arg(self) -> SyscallArg {
        match self {
            ArgView::Int(v) => SyscallArg::Int(v),
            ArgView::Fd(v) => SyscallArg::Fd(v),
            ArgView::Flags(v) => SyscallArg::Flags(v),
            ArgView::Pointer(v) => SyscallArg::Pointer(v),
            ArgView::Path(path) => SyscallArg::Path(path.to_string()),
            ArgView::BufLen(v) => SyscallArg::BufLen(v as usize),
        }
    }
}

fn parse_arg<'a>(r: &mut Reader<'a>) -> Result<ArgView<'a>, String> {
    Ok(match r.u8()? {
        ARG_INT => ArgView::Int(r.i64()?),
        ARG_FD => ArgView::Fd(r.i32()?),
        ARG_FLAGS => ArgView::Flags(r.u64()?),
        ARG_POINTER => ArgView::Pointer(r.u64()?),
        ARG_PATH => {
            let len = r.u32()? as usize;
            ArgView::Path(
                std::str::from_utf8(r.take(len)?).map_err(|_| "non-UTF-8 path arg".to_string())?,
            )
        }
        ARG_BUF_LEN => ArgView::BufLen(r.u64()?),
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

/// What [`parse_cmp`] does with the arguments it checks: the owned key
/// keeps them, a key left encoded in place (`()`) drops them.
trait Args<'a> {
    fn with_capacity(nargs: u16) -> Self;
    fn push(&mut self, arg: ArgView<'a>);
}

impl<'a> Args<'a> for Vec<SyscallArg> {
    fn with_capacity(nargs: u16) -> Self {
        Vec::with_capacity(usize::from(nargs).min(64))
    }

    #[inline]
    fn push(&mut self, arg: ArgView<'a>) {
        Vec::push(self, arg.to_arg());
    }
}

impl<'a> Args<'a> for () {
    fn with_capacity(_: u16) -> Self {}

    fn push(&mut self, _: ArgView<'a>) {}
}

/// The one comparison-key parser.  Returns the call, the arguments as `A`
/// keeps them, the payload digest and the payload length.
fn parse_cmp<'a, A: Args<'a>>(r: &mut Reader<'a>) -> Result<(Sysno, A, u64, u64), String> {
    let no = decode_sysno(r)?;
    let nargs = r.u16()?;
    let mut args = A::with_capacity(nargs);
    for _ in 0..nargs {
        args.push(parse_arg(r)?);
    }
    Ok((no, args, r.u64()?, r.u64()?))
}

pub(crate) fn decode_cmp(r: &mut Reader<'_>) -> Result<ComparisonKey, String> {
    let (no, args, payload_digest, payload_len) = parse_cmp(r)?;
    Ok(ComparisonKey {
        no,
        args,
        payload_digest,
        payload_len: payload_len as usize,
    })
}

/// A comparison key checked in place: its encoded bytes, which
/// [`to_key`](KeyView::to_key) decodes when the key itself is wanted.
#[derive(Clone, Copy)]
struct KeyView<'a>(&'a [u8]);

impl<'a> KeyView<'a> {
    fn parse(r: &mut Reader<'a>) -> Result<Self, String> {
        let from = r.remaining();
        parse_cmp::<()>(r)?;
        Ok(KeyView(&from[..from.len() - r.remaining().len()]))
    }

    fn to_key(self) -> Option<ComparisonKey> {
        // The same parser already accepted these bytes.
        decode_cmp(&mut Reader::new(self.0)).ok()
    }
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

/// An outcome parsed in place: the payload stays in the body.
#[derive(Clone, Copy)]
struct OutcomeView<'a> {
    result: Result<i64, Errno>,
    payload: &'a [u8],
}

impl OutcomeView<'_> {
    fn to_outcome(self) -> SyscallOutcome {
        SyscallOutcome {
            result: self.result,
            payload: self.payload.to_vec(),
        }
    }
}

/// The one outcome parser; allocates nothing.
fn parse_outcome<'a>(r: &mut Reader<'a>) -> Result<OutcomeView<'a>, String> {
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
    let payload = r.take(len)?;
    Ok(OutcomeView { result, payload })
}

pub(crate) fn decode_outcome(r: &mut Reader<'_>) -> Result<SyscallOutcome, String> {
    parse_outcome(r).map(OutcomeView::to_outcome)
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
        parse_body::<Owned>(body)
    }

    /// What the replay fold reads of this record.
    fn fact(&self) -> Fact<'_> {
        match *self {
            JournalRecord::Enter { self_aware, .. } => Fact::Enter { self_aware },
            JournalRecord::Class { kind, .. } => Fact::Class(kind),
            JournalRecord::Arrival {
                variant,
                thread,
                seq,
                order,
                ref cmp,
                ..
            } => Fact::Arrival {
                variant,
                slot: (thread as usize, seq),
                order,
                cmp: KeyRef::Owned(cmp),
            },
            JournalRecord::Publish { .. } => Fact::Publish,
            JournalRecord::Diverge { ref report } => Fact::Diverge(report),
            JournalRecord::SyncOp { .. } => Fact::SyncOp,
            JournalRecord::End { .. } => Fact::End,
        }
    }
}

/// A record as the replay fold needs it, parsed in place: the arrival's
/// key and the publication's outcome stay in the frame body they came
/// from.
enum RecordView<'a> {
    /// `Enter`, `Class`, `Diverge`, `SyncOp` or `End`.
    Whole(JournalRecord),
    Arrival {
        variant: u16,
        slot: SlotKey,
        order: u64,
        cmp: KeyView<'a>,
    },
    Publish,
}

impl RecordView<'_> {
    /// What the replay fold reads of this record.
    fn fact(&self) -> Fact<'_> {
        match *self {
            RecordView::Whole(ref record) => record.fact(),
            RecordView::Arrival {
                variant,
                slot,
                order,
                cmp,
            } => Fact::Arrival {
                variant,
                slot,
                order,
                cmp: KeyRef::Encoded(cmp),
            },
            RecordView::Publish => Fact::Publish,
        }
    }
}

/// The fixed fields of an `Arrival`, ahead of its key.
struct ArrivalHead {
    variant: u16,
    thread: u32,
    seq: u64,
    shard: u16,
    order: u64,
}

/// What [`parse_body`] builds: the owned [`JournalRecord`] ([`Owned`]) or
/// the fold's [`RecordView`] ([`InPlace`]).  Records without a
/// variable-length part on every call are built owned either way.
trait Form<'a> {
    type Record;
    fn whole(record: JournalRecord) -> Self::Record;
    fn arrival(head: ArrivalHead, r: &mut Reader<'a>) -> Result<Self::Record, String>;
    fn publish(
        thread: u32,
        seq: u64,
        timestamp: Option<u64>,
        outcome: OutcomeView<'a>,
    ) -> Self::Record;
    /// The record count an `End` trailer carries; `None` for any other
    /// record.
    fn end(record: &Self::Record) -> Option<u64>;
}

/// Parses records into owned [`JournalRecord`]s.
struct Owned;

impl<'a> Form<'a> for Owned {
    type Record = JournalRecord;

    fn whole(record: JournalRecord) -> JournalRecord {
        record
    }

    fn arrival(head: ArrivalHead, r: &mut Reader<'a>) -> Result<JournalRecord, String> {
        Ok(JournalRecord::Arrival {
            variant: head.variant,
            thread: head.thread,
            seq: head.seq,
            shard: head.shard,
            order: head.order,
            cmp: decode_cmp(r)?,
        })
    }

    fn publish(
        thread: u32,
        seq: u64,
        timestamp: Option<u64>,
        outcome: OutcomeView<'a>,
    ) -> JournalRecord {
        JournalRecord::Publish {
            thread,
            seq,
            timestamp,
            outcome: outcome.to_outcome(),
        }
    }

    fn end(record: &JournalRecord) -> Option<u64> {
        match *record {
            JournalRecord::End { records } => Some(records),
            _ => None,
        }
    }
}

/// Parses records into [`RecordView`]s, allocating nothing unless the
/// record is a `Diverge` naming arrived variants.
struct InPlace;

impl<'a> Form<'a> for InPlace {
    type Record = RecordView<'a>;

    fn whole(record: JournalRecord) -> RecordView<'a> {
        RecordView::Whole(record)
    }

    fn arrival(head: ArrivalHead, r: &mut Reader<'a>) -> Result<RecordView<'a>, String> {
        Ok(RecordView::Arrival {
            variant: head.variant,
            slot: (head.thread as usize, head.seq),
            order: head.order,
            cmp: KeyView::parse(r)?,
        })
    }

    fn publish(_: u32, _: u64, _: Option<u64>, _: OutcomeView<'a>) -> RecordView<'a> {
        RecordView::Publish
    }

    fn end(record: &RecordView<'a>) -> Option<u64> {
        match record {
            RecordView::Whole(record) => Owned::end(record),
            _ => None,
        }
    }
}

/// The one record-body parser: every field is checked, whatever `F`
/// builds.
fn parse_body<'a, F: Form<'a>>(body: &'a [u8]) -> Result<F::Record, String> {
    let mut r = Reader::new(body);
    let record = match r.u8()? {
        TAG_ENTER => F::whole(JournalRecord::Enter {
            variant: r.u16()?,
            thread: r.u32()?,
            lane: r.u16()?,
            self_aware: match r.u8()? {
                0 => false,
                1 => true,
                b => return Err(format!("bad self_aware flag {b}")),
            },
        }),
        TAG_CLASS => F::whole(JournalRecord::Class {
            kind: {
                let raw = r.u8()?;
                ClassKind::from_wire(raw).ok_or_else(|| format!("bad class kind {raw}"))?
            },
            lane: r.u16()?,
        }),
        TAG_ARRIVAL => {
            let head = ArrivalHead {
                variant: r.u16()?,
                thread: r.u32()?,
                seq: r.u64()?,
                shard: r.u16()?,
                order: r.u64()?,
            };
            F::arrival(head, &mut r)?
        }
        TAG_PUBLISH => {
            let thread = r.u32()?;
            let seq = r.u64()?;
            let timestamp = {
                let has = r.u8()?;
                let ts = r.u64()?;
                match has {
                    0 => None,
                    1 => Some(ts),
                    b => return Err(format!("bad timestamp flag {b}")),
                }
            };
            F::publish(thread, seq, timestamp, parse_outcome(&mut r)?)
        }
        TAG_DIVERGE => F::whole(JournalRecord::Diverge {
            report: decode_report(&mut r)?,
        }),
        TAG_SYNC_OP => F::whole(JournalRecord::SyncOp {
            variant: r.u16()?,
            thread: r.u32()?,
        }),
        TAG_END => F::whole(JournalRecord::End { records: r.u64()? }),
        t => return Err(format!("unknown record tag {t}")),
    };
    r.finish()?;
    Ok(record)
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

/// How far a [`walk`] got.
struct Walked {
    /// Records handed to the sink (the `End` trailer is not one).
    records: u64,
    /// What stopped the walk; `None` only when a valid `End` trailer closed
    /// the stream.
    damage: Option<JournalError>,
    /// Bytes covered by the header, the salvaged records and (when it was
    /// valid) the trailer.
    consumed: usize,
}

/// The one salvage loop.  Walks the records from byte `from` (just past
/// the already-checked header, or a frame boundary a previous walk
/// reported), hands each CRC-verified, parsed record to `sink` with its
/// frame offset and stops at the first damage or at the `End` trailer,
/// which it checks and does not hand on.  Record indices (in errors and
/// against the trailer's count) count from `from`.  [`Journal::decode`],
/// [`Journal::recover_from_bytes`], [`replay`] and [`recover_replay`] are
/// this walk with different sinks.
fn walk<'a, F: Form<'a>>(
    bytes: &'a [u8],
    from: usize,
    mut sink: impl FnMut(usize, F::Record),
) -> Walked {
    let mut offset = from;
    let mut index = 0u64;
    // `offset` always sits just past the last salvaged record here, so a
    // damaged stream reports it as the consumed length.
    let damage = loop {
        let (body, next) = match next_frame(bytes, offset) {
            Ok(Some(frame)) => frame,
            Ok(None) => break JournalError::MissingEnd,
            Err(FrameError::Truncated { offset: at }) => {
                break JournalError::Truncated { offset: at }
            }
            Err(FrameError::Corrupt { offset: at }) => {
                break JournalError::CorruptRecord { index, offset: at }
            }
        };
        let record = match parse_body::<F>(body) {
            Ok(record) => record,
            Err(reason) => break JournalError::Malformed { index, reason },
        };
        if let Some(count) = F::end(&record) {
            if count != index {
                break JournalError::Malformed {
                    index,
                    reason: format!("End trailer claims {count} records, stream has {index}"),
                };
            }
            let damage =
                (next != bytes.len()).then_some(JournalError::TrailingData { offset: next });
            return Walked {
                records: index,
                damage,
                consumed: next,
            };
        }
        sink(offset, record);
        offset = next;
        index += 1;
    };
    Walked {
        records: index,
        damage: Some(damage),
        consumed: offset,
    }
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
    /// This is the salvage a respawn relies on after a variant died mid-run
    /// — possibly mid-write — ([`recover_replay`] is the same walk, fused
    /// with the replay), so unlike [`decode`](Self::decode) it treats a torn,
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

    /// The walk with a sink that builds the owned records.
    fn decode_inner(bytes: &[u8]) -> Result<(Journal, Option<JournalError>, usize), JournalError> {
        let header = decode_header(bytes)?;
        let mut records = Vec::new();
        let walked = walk::<Owned>(bytes, JOURNAL_HEADER_LEN, |_, record| records.push(record));
        Ok((Journal { header, records }, walked.damage, walked.consumed))
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

    /// [`recover_replay`] over the stream recorded so far, read in place
    /// under the journal lock: no copy, no trailer, no decoded records.
    /// The stream has no `End` trailer yet, so an intact one reports
    /// [`JournalError::MissingEnd`] as its damage and drops no bytes.
    pub(crate) fn recover_replay(&self) -> Result<RecoveredRun, JournalError> {
        recover_replay(&self.inner.lock().buf)
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

/// Replays a journal byte stream: [`Journal::decode`] followed by
/// [`replay_journal`], computed in one streaming pass — the walk feeds the
/// fold straight from the frame bodies and no record is decoded into an
/// owned [`JournalRecord`].  Any damage to the stream is the error, ahead
/// of whatever the fold found.
pub fn replay(bytes: &[u8]) -> Result<ReplayedRun, ReplayError> {
    let run = recover_replay(bytes)?;
    match run.damage {
        Some(damage) => Err(damage.into()),
        None => run.replay,
    }
}

/// Replays a decoded journal: re-derives the monitor statistics from the
/// record stream and, when the run diverged, re-runs the verdict over the
/// recorded arrival keys — the re-derived first-mismatch slot and variant
/// must reproduce the recorded report field by field, else
/// [`ReplayError::VerdictMismatch`].
pub fn replay_journal(journal: &Journal) -> Result<ReplayedRun, ReplayError> {
    let mut fold = Fold::new(journal.header);
    // A slot holds at most one deposit per variant, so a journal that
    // replays has at least this many slots: the table is sized once, never
    // past what the fold fills.
    let arrivals = journal
        .records
        .iter()
        .filter(|record| matches!(record, JournalRecord::Arrival { .. }))
        .count();
    let variants = usize::from(journal.header.variants.max(1));
    fold.slots.reserve(arrivals.div_ceil(variants));
    for (index, record) in journal.records.iter().enumerate() {
        fold.step(index, record.fact());
    }
    fold.finish(|range, candidates| {
        for record in &journal.records[range] {
            candidates.offer(&record.fact());
        }
    })
}

/// What [`recover_replay`] salvaged from a possibly torn stream and what
/// the salvaged records replay to.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredRun {
    /// Records salvaged: as many as [`Journal::recover_from_bytes`] decodes
    /// from the same bytes.
    pub records: u64,
    /// What stopped the walk, as [`RecoveredJournal::damage`].
    pub damage: Option<JournalError>,
    /// Bytes past the last salvaged record, as
    /// [`RecoveredJournal::dropped_bytes`].
    pub dropped_bytes: usize,
    /// The salvaged records replayed, as [`replay_journal`] replays the
    /// [`RecoveredJournal::journal`] the same bytes salvage to.
    pub replay: Result<ReplayedRun, ReplayError>,
}

/// Salvages and replays a possibly torn journal in one pass, without
/// decoding a record into an owned [`JournalRecord`]: the walk of
/// [`Journal::recover_from_bytes`] feeding the fold of [`replay_journal`].
/// As there, only header damage is an error.  This is what a respawn reads
/// the live recorder's stream with.
pub fn recover_replay(bytes: &[u8]) -> Result<RecoveredRun, JournalError> {
    let header = decode_header(bytes)?;
    let mut fold = Fold::new(header);
    let walked = walk::<InPlace>(bytes, JOURNAL_HEADER_LEN, |at, record| {
        fold.step(at, record.fact())
    });
    let replay = fold.finish(|range, candidates| {
        walk::<InPlace>(&bytes[..range.end], range.start, |_, record| {
            candidates.offer(&record.fact())
        });
    });
    Ok(RecoveredRun {
        records: walked.records,
        damage: walked.damage,
        dropped_bytes: bytes.len() - walked.consumed,
        replay,
    })
}

/// An arrival's comparison key as the fold meets it: in a decoded record,
/// or still encoded in a frame body.
#[derive(Clone, Copy)]
enum KeyRef<'r> {
    Owned(&'r ComparisonKey),
    Encoded(KeyView<'r>),
}

impl KeyRef<'_> {
    fn to_key(self) -> Option<ComparisonKey> {
        match self {
            KeyRef::Owned(key) => Some(key.clone()),
            KeyRef::Encoded(view) => view.to_key(),
        }
    }
}

/// What the replay fold reads of one record.
enum Fact<'r> {
    Enter {
        self_aware: bool,
    },
    Class(ClassKind),
    Arrival {
        variant: u16,
        slot: SlotKey,
        order: u64,
        cmp: KeyRef<'r>,
    },
    Publish,
    Diverge(&'r DivergenceReport),
    SyncOp,
    End,
}

/// One slot as the fold keeps it: which of variants 0–63 deposited, a bit
/// each, and where the first deposit was.  Deposits by variants 64 and up
/// (only a header declaring more than 64 variants admits any) are kept in
/// [`Fold::wide`], so a slot is sized by neither the header nor the
/// deposits.
struct Slot {
    low: u64,
    /// Position of the slot's first `Arrival` (see [`Fold::step`]).
    first: usize,
}

/// The fold's slot-map hasher.  The slots come from a journal, input from
/// outside the program, so the hash is keyed once per fold from
/// [`RandomState`] and every key word goes through a full-avalanche
/// finalizer: which slots share a bucket depends on the key, and a journal
/// cannot pick colliding slots without it.  The default SipHash made the
/// whole fold about 1.5 times as slow on a recorded-shape journal.
#[derive(Clone, Copy)]
struct SlotHash(u64);

impl SlotHash {
    fn new() -> Self {
        SlotHash(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for SlotHash {
    type Hasher = SlotHasher;

    fn build_hasher(&self) -> SlotHasher {
        SlotHasher(self.0)
    }
}

/// A [`SlotKey`] hashes as its thread (`write_usize`), then its sequence
/// number (`write_u64`); each word is folded in by MurmurHash3's 64-bit
/// finalizer, a bijection in which every input bit flips every output bit
/// about half the time.
struct SlotHasher(u64);

impl SlotHasher {
    fn mix(&mut self, word: u64) {
        let mut x = self.0 ^ word;
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        self.0 = x ^ (x >> 33);
    }
}

impl Hasher for SlotHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    fn write_usize(&mut self, thread: usize) {
        self.mix(thread as u64);
    }

    fn write_u64(&mut self, seq: u64) {
        self.mix(seq);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The one replay fold behind [`replay_journal`], [`recover_replay`] and
/// so [`replay`].  It takes the records one at a time, keeps per slot only
/// which variants deposited, and clones a key only at the slots a recorded
/// mismatch names.  The first inconsistency is kept and every later record
/// ignored.
struct Fold {
    header: JournalHeader,
    /// Records stepped so far: the next record's index.
    records: u64,
    stats: MonitorStats,
    slots: HashMap<SlotKey, Slot, SlotHash>,
    /// Deposits by variants 64 and up (see [`Slot`]).
    wide: BTreeSet<(SlotKey, u16)>,
    arrivals: u64,
    publishes: u64,
    sync_ops: u64,
    last_order: Option<u64>,
    /// The first `Diverge` record's report and position.
    divergence: Option<(DivergenceReport, usize)>,
    /// For a mismatch report, the keys at its candidate slots deposited
    /// after it; [`finish`](Fold::finish) gathers the earlier ones.
    candidates: Option<Candidates>,
    error: Option<ReplayError>,
}

impl Fold {
    fn new(header: JournalHeader) -> Self {
        Fold {
            header,
            records: 0,
            stats: MonitorStats::default(),
            slots: HashMap::with_hasher(SlotHash::new()),
            wide: BTreeSet::new(),
            arrivals: 0,
            publishes: 0,
            sync_ops: 0,
            last_order: None,
            divergence: None,
            candidates: None,
            error: None,
        }
    }

    /// Folds in the next record.  `at` is its position in the stream —
    /// the record index for decoded records, the frame offset for encoded
    /// ones — increasing from record to record; the second pass of
    /// [`finish`](Fold::finish) is handed a range of these.
    fn step(&mut self, at: usize, fact: Fact<'_>) {
        let index = self.records;
        self.records += 1;
        if self.error.is_some() {
            return;
        }
        if let Some(candidates) = &mut self.candidates {
            // An arrival that turns out inconsistent below ends the replay
            // with an error, so offering it first changes nothing.
            candidates.offer(&fact);
        }
        let reason = match fact {
            Fact::Enter { self_aware } => {
                self.stats.total_syscalls += 1;
                self.stats.self_aware_queries += u64::from(self_aware);
                return;
            }
            Fact::Class(kind) => {
                *match kind {
                    ClassKind::Lockstep => &mut self.stats.lockstep_syscalls,
                    ClassKind::Batched => &mut self.stats.batched_comparisons,
                    ClassKind::Replicated => &mut self.stats.replicated_syscalls,
                    ClassKind::Ordered => &mut self.stats.ordered_syscalls,
                    ClassKind::BatchFlush => &mut self.stats.batch_flushes,
                } += 1;
                return;
            }
            Fact::Arrival {
                variant,
                slot,
                order,
                ..
            } => {
                let variants = self.header.variants;
                if variant >= variants {
                    format!("arrival from variant {variant} but the header declares {variants}")
                } else if let Some(prev) = self.last_order.filter(|&prev| order <= prev) {
                    format!("arrival order {order} not after predecessor {prev}")
                } else if self.deposit(slot, variant, at) {
                    self.last_order = Some(order);
                    self.arrivals += 1;
                    return;
                } else {
                    format!(
                        "duplicate deposit by variant {variant} at slot ({}, {:#x})",
                        slot.0, slot.1
                    )
                }
            }
            Fact::Publish => {
                self.publishes += 1;
                return;
            }
            Fact::Diverge(report) => {
                self.stats.divergences += 1;
                if self.divergence.is_none() {
                    if let DivergenceKind::SyscallMismatch { .. } = report.kind {
                        self.candidates = Some(Candidates::new(report));
                    }
                    self.divergence = Some((report.clone(), at));
                }
                return;
            }
            Fact::SyncOp => {
                self.sync_ops += 1;
                return;
            }
            Fact::End => "End trailer inside the record stream".to_string(),
        };
        self.error = Some(ReplayError::InconsistentSchedule { index, reason });
    }

    /// Marks `variant` as deposited at `slot`; `false` if it already was.
    fn deposit(&mut self, slot: SlotKey, variant: u16, at: usize) -> bool {
        let entry = self.slots.entry(slot).or_insert(Slot { low: 0, first: at });
        if variant < 64 {
            let fresh = entry.low & (1 << variant) == 0;
            entry.low |= 1 << variant;
            fresh
        } else {
            self.wide.insert((slot, variant))
        }
    }

    /// The replayed run, or the first error.  `gather` is the second pass,
    /// run only to re-derive a recorded mismatch: it must offer the records
    /// whose positions fall in the range it is given — from the first
    /// deposit at a candidate slot up to the first `Diverge` record — to
    /// the candidates.
    fn finish(
        mut self,
        gather: impl FnOnce(Range<usize>, &mut Candidates),
    ) -> Result<ReplayedRun, ReplayError> {
        if let Some(err) = self.error.take() {
            return Err(err);
        }
        if let Some((report, at)) = &self.divergence {
            let mut candidates = self.candidates.take();
            if let Some(candidates) = &mut candidates {
                let first = candidates
                    .slots
                    .iter()
                    .filter_map(|slot| self.slots.get(slot))
                    .map(|slot| slot.first)
                    .min();
                if let Some(first) = first.filter(|first| first < at) {
                    gather(first..*at, candidates);
                }
            }
            self.verify(report, candidates)?;
        }
        Ok(ReplayedRun {
            header: self.header,
            stats: self.stats,
            slots: self.slots.len(),
            arrivals: self.arrivals,
            publishes: self.publishes,
            sync_ops: self.sync_ops,
            divergence: self.divergence.map(|(report, _)| report),
        })
    }

    /// Whether `variant` deposited at `slot`.
    fn deposited(&self, slot: SlotKey, variant: usize) -> bool {
        match (self.slots.get(&slot), u16::try_from(variant)) {
            (Some(s), Ok(v @ 0..=63)) => s.low & (1 << v) != 0,
            (Some(_), Ok(v)) => self.wide.contains(&(slot, v)),
            _ => false,
        }
    }

    /// Re-derives the verdict for `report` from the recorded deposits and,
    /// for a mismatch, the keys deposited at its candidate slots.
    fn verify(
        &self,
        report: &DivergenceReport,
        candidates: Option<Candidates>,
    ) -> Result<(), ReplayError> {
        match &report.kind {
            DivergenceKind::SyscallMismatch { master, variant } => {
                let keys = candidates.map_or_else(Default::default, |c| c.keys);
                for mut deposited in keys {
                    // The live vote scans a slot in variant order.
                    deposited.sort_unstable_by_key(|&(v, _)| v);
                    let (variants, keys): (Vec<u16>, Vec<Option<ComparisonKey>>) =
                        deposited.into_iter().map(|(v, key)| (v, Some(key))).unzip();
                    if let Some((i, master_key, variant_key)) = first_mismatch(&keys) {
                        let v = variants[i] as usize;
                        if v == report.variant
                            && master_key.no == *master
                            && variant_key.no == *variant
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
                let candidates = Candidates::new(report).slots;
                if !candidates.iter().any(|slot| self.slots.contains_key(slot)) {
                    return Ok(());
                }
                for &v in arrived {
                    if !candidates.iter().any(|&slot| self.deposited(slot, v)) {
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
}

/// The keys deposited at a mismatch report's two candidate slots:
/// `(variant, key)`, in the order they were offered.
struct Candidates {
    slots: [SlotKey; 2],
    keys: [Vec<(u16, ComparisonKey)>; 2],
}

impl Candidates {
    /// Reports strip [`DEFERRED_SEQ_BIT`] from the sequence, so both
    /// candidate slots — the direct one and the deferred one — are
    /// consulted.
    fn new(report: &DivergenceReport) -> Self {
        // Record fields are 32-bit; a report's thread is compared as one.
        let thread = report.thread as u32 as usize;
        Candidates {
            slots: [
                (thread, report.sequence),
                (thread, report.sequence | DEFERRED_SEQ_BIT),
            ],
            keys: Default::default(),
        }
    }

    fn offer(&mut self, fact: &Fact<'_>) {
        if let Fact::Arrival {
            variant, slot, cmp, ..
        } = *fact
        {
            for (at, keys) in self.slots.iter().zip(&mut self.keys) {
                if *at == slot {
                    keys.extend(cmp.to_key().map(|key| (variant, key)));
                }
            }
        }
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

    /// A verdict re-derives from keys deposited on both sides of the
    /// report: here the blamed variant's key lands after the `Diverge`
    /// record, which the fold collects as it goes, while the others come
    /// from the second pass.  Both replays agree on both outcomes.
    #[test]
    fn a_mismatch_re_derives_from_keys_deposited_after_its_report() {
        let three = JournalHeader {
            variants: 3,
            ..header()
        };
        let report = DivergenceReport {
            kind: DivergenceKind::SyscallMismatch {
                master: Sysno::Brk,
                variant: Sysno::Mmap,
            },
            thread: 1,
            sequence: 4,
            variant: 2,
        };
        for (late, verdict_holds) in [(Sysno::Mmap, true), (Sysno::Brk, false)] {
            let rec = JournalRecorder::with_header(three);
            rec.record_arrival(0, 1, 4, 1, &cmp(Sysno::Brk));
            rec.record_arrival(0, 0, 9, 0, &cmp(Sysno::Brk));
            rec.record_arrival(1, 1, 4, 1, &cmp(Sysno::Brk));
            rec.record_diverge(&report);
            rec.record_arrival(2, 1, 4, 1, &cmp(late));
            let bytes = rec.finish();
            let streamed = replay(&bytes);
            assert_eq!(streamed, replay_journal(&Journal::decode(&bytes).unwrap()));
            match streamed {
                Ok(run) => {
                    assert!(verdict_holds);
                    assert_eq!(run.divergence, Some(report.clone()));
                    assert_eq!((run.slots, run.arrivals), (2, 4));
                }
                Err(err) => {
                    assert!(!verdict_holds);
                    assert!(matches!(err, ReplayError::VerdictMismatch { .. }));
                }
            }
        }
    }

    /// Variants past 64 are tracked apart from the per-slot bits: their
    /// duplicates are caught and a timeout report naming them verifies.
    #[test]
    fn deposits_by_variants_past_64_are_tracked_exactly() {
        let wide = JournalHeader {
            variants: 300,
            ..header()
        };
        let rec = JournalRecorder::with_header(wide);
        rec.record_arrival(200, 0, 5, 0, &cmp(Sysno::Brk));
        rec.record_arrival(3, 0, 5, 0, &cmp(Sysno::Brk));
        rec.record_diverge(&DivergenceReport {
            kind: DivergenceKind::RendezvousTimeout {
                arrived: vec![3, 200],
            },
            thread: 0,
            sequence: 5,
            variant: 0,
        });
        let run = replay(&rec.finish()).expect("every listed variant deposited");
        assert_eq!((run.slots, run.arrivals), (1, 2));

        rec.record_diverge(&DivergenceReport {
            kind: DivergenceKind::RendezvousTimeout { arrived: vec![] },
            thread: 0,
            sequence: 6,
            variant: 0,
        });
        rec.record_arrival(200, 0, 5, 0, &cmp(Sysno::Brk));
        assert!(matches!(
            replay(&rec.finish()),
            Err(ReplayError::InconsistentSchedule { index: 4, .. })
        ));

        let rec = JournalRecorder::with_header(wide);
        rec.record_arrival(3, 0, 5, 0, &cmp(Sysno::Brk));
        rec.record_diverge(&DivergenceReport {
            kind: DivergenceKind::RendezvousTimeout {
                arrived: vec![3, 201],
            },
            thread: 0,
            sequence: 5,
            variant: 0,
        });
        assert!(matches!(
            replay(&rec.finish()),
            Err(ReplayError::VerdictMismatch { .. })
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
