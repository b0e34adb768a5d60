//! The replication wire protocol: typed records framed with the shared
//! CRC-32 codec ([`crate::frame`]).
//!
//! Every record travels as one `len | crc | body` frame.  Frames carry no
//! explicit sequence number: both ends number them implicitly by stream
//! position (the leader's threads append to one shared buffer behind one
//! connection lock, the follower's reader decodes them in order).  The
//! follower's [`Ack`](WireRecord::Ack) acknowledges a *count* of fully
//! processed frames — the contiguous resolved prefix of the stream — and is
//! sent only once that prefix passes a frame the leader waits on (an
//! [`Arrive`](WireRecord::Arrive) or a [`Barrier`](WireRecord::Barrier)).
//!
//! Leader → follower: [`Hello`](WireRecord::Hello),
//! [`Counts`](WireRecord::Counts), [`Arrive`](WireRecord::Arrive),
//! [`Batch`](WireRecord::Batch), [`Publish`](WireRecord::Publish),
//! [`SyncOp`](WireRecord::SyncOp), [`Barrier`](WireRecord::Barrier),
//! [`Bye`](WireRecord::Bye).
//! Follower → leader: [`Ack`](WireRecord::Ack),
//! [`Verdict`](WireRecord::Verdict), [`Bye`](WireRecord::Bye).
//!
//! Comparison keys, replicated outcomes and divergence reports reuse the
//! journal's body codecs, so a report decoded from a `Verdict` frame is
//! field-identical to the in-proc [`DivergenceReport`].  The leader encodes
//! its hot records — [`push_publish`], [`push_batch`] — straight from
//! borrowed outcomes and keys, byte-identical to encoding the owned record.

use mvee_kernel::syscall::{ComparisonKey, SyscallOutcome};

use crate::divergence::DivergenceReport;
use crate::frame::{push_frame_with, Reader};
use crate::journal::{
    decode_cmp, decode_outcome, decode_report, encode_cmp, encode_outcome, encode_report,
};

// Tags 2 and 3 carried the per-call `Enter` and `Class` counter records that
// `Counts` replaced; they now decode as unknown tags.
const TAG_HELLO: u8 = 1;
const TAG_ARRIVE: u8 = 4;
const TAG_BATCH: u8 = 5;
const TAG_PUBLISH: u8 = 6;
const TAG_SYNC_OP: u8 = 7;
const TAG_BARRIER: u8 = 8;
const TAG_BYE: u8 = 9;
const TAG_ACK: u8 = 10;
const TAG_VERDICT: u8 = 11;
const TAG_COUNTS: u8 = 12;

/// One leader port's gateway counters since its last push: the mirror of
/// the in-proc `count_enter` / `count_lockstep` & co. calls, applied by the
/// follower through the same calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CallCounts {
    /// Calls that entered the gateway, self-aware queries included.
    pub(crate) enters: u32,
    /// How many of `enters` were `mvee_self_aware` queries.
    pub(crate) self_aware: u32,
    pub(crate) lockstep: u32,
    pub(crate) batched: u32,
    pub(crate) replicated: u32,
    pub(crate) ordered: u32,
}

/// One protocol record (see the [module docs](self) for direction).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WireRecord {
    /// Stream prologue: the leader's view of the MVEE shape, verified by
    /// the follower before any other record is applied.
    Hello {
        /// Variant count.
        variants: u16,
        /// Workload threads per variant.
        threads: u32,
        /// Rendezvous shard count.
        shards: u16,
        /// Comparison batch size.
        batch: u16,
    },
    /// The counters of leader thread `thread` (stat lane `lane`) since its
    /// previous `Counts` record; a port appends one whenever it pushes.
    Counts {
        thread: u32,
        lane: u16,
        counts: CallCounts,
    },
    /// A synchronous lockstep arrival: the follower deposits variant 0's
    /// comparison key at `(thread, seq)`.  `will_publish` tells the
    /// follower whether a `Publish` for the same key follows (which then
    /// owns the slot consume).
    Arrive {
        thread: u32,
        lane: u16,
        seq: u64,
        will_publish: bool,
        cmp: ComparisonKey,
    },
    /// A flushed deferred-comparison batch: the sequence values carry the
    /// deferred-keyspace bit exactly as deposited in proc.
    Batch {
        thread: u32,
        lane: u16,
        calls: Vec<(u64, ComparisonKey)>,
    },
    /// The leader's executed outcome (and ordering timestamp, for ordered
    /// calls) for `(thread, seq)`: the follower publishes it to its
    /// rendezvous table and consumes the slot.
    Publish {
        thread: u32,
        seq: u64,
        timestamp: Option<u64>,
        outcome: SyscallOutcome,
    },
    /// The leader passed a replication point (feeds the follower's
    /// divergence-detection-lag metric).
    SyncOp { thread: u32 },
    /// An explicit quiescence point: acknowledging it proves every earlier
    /// frame has been fully processed.
    Barrier,
    /// Clean end of stream.
    Bye,
    /// Follower → leader: `through` frames of the leader's stream are fully
    /// processed (comparisons resolved, outcomes published).
    Ack { through: u64 },
    /// Follower → leader: the run diverged; the report is field-identical
    /// to the in-proc verdict.
    Verdict { report: DivergenceReport },
}

impl WireRecord {
    /// Appends this record to `out` as one CRC-framed wire frame.
    pub(crate) fn encode_frame(&self, out: &mut Vec<u8>) {
        push_frame_with(out, |body| self.encode_body(body));
    }

    fn encode_body(&self, buf: &mut Vec<u8>) {
        match self {
            WireRecord::Hello {
                variants,
                threads,
                shards,
                batch,
            } => {
                buf.push(TAG_HELLO);
                buf.extend_from_slice(&variants.to_le_bytes());
                buf.extend_from_slice(&threads.to_le_bytes());
                buf.extend_from_slice(&shards.to_le_bytes());
                buf.extend_from_slice(&batch.to_le_bytes());
            }
            WireRecord::Counts {
                thread,
                lane,
                counts,
            } => {
                buf.push(TAG_COUNTS);
                buf.extend_from_slice(&thread.to_le_bytes());
                buf.extend_from_slice(&lane.to_le_bytes());
                for n in [
                    counts.enters,
                    counts.self_aware,
                    counts.lockstep,
                    counts.batched,
                    counts.replicated,
                    counts.ordered,
                ] {
                    buf.extend_from_slice(&n.to_le_bytes());
                }
            }
            WireRecord::Arrive {
                thread,
                lane,
                seq,
                will_publish,
                cmp,
            } => {
                buf.push(TAG_ARRIVE);
                buf.extend_from_slice(&thread.to_le_bytes());
                buf.extend_from_slice(&lane.to_le_bytes());
                buf.extend_from_slice(&seq.to_le_bytes());
                buf.push(u8::from(*will_publish));
                encode_cmp(buf, cmp);
            }
            WireRecord::Batch {
                thread,
                lane,
                calls,
            } => encode_batch(buf, *thread, *lane, calls),
            WireRecord::Publish {
                thread,
                seq,
                timestamp,
                outcome,
            } => encode_publish(buf, *thread, *seq, *timestamp, outcome),
            WireRecord::SyncOp { thread } => {
                buf.push(TAG_SYNC_OP);
                buf.extend_from_slice(&thread.to_le_bytes());
            }
            WireRecord::Barrier => buf.push(TAG_BARRIER),
            WireRecord::Bye => buf.push(TAG_BYE),
            WireRecord::Ack { through } => {
                buf.push(TAG_ACK);
                buf.extend_from_slice(&through.to_le_bytes());
            }
            WireRecord::Verdict { report } => {
                buf.push(TAG_VERDICT);
                encode_report(buf, report);
            }
        }
    }

    /// Decodes one frame body.
    pub(crate) fn decode(body: &[u8]) -> Result<WireRecord, String> {
        let mut r = Reader::new(body);
        let record = match r.u8()? {
            TAG_HELLO => WireRecord::Hello {
                variants: r.u16()?,
                threads: r.u32()?,
                shards: r.u16()?,
                batch: r.u16()?,
            },
            TAG_COUNTS => WireRecord::Counts {
                thread: r.u32()?,
                lane: r.u16()?,
                counts: CallCounts {
                    enters: r.u32()?,
                    self_aware: r.u32()?,
                    lockstep: r.u32()?,
                    batched: r.u32()?,
                    replicated: r.u32()?,
                    ordered: r.u32()?,
                },
            },
            TAG_ARRIVE => WireRecord::Arrive {
                thread: r.u32()?,
                lane: r.u16()?,
                seq: r.u64()?,
                will_publish: r.u8()? != 0,
                cmp: decode_cmp(&mut r)?,
            },
            TAG_BATCH => {
                let thread = r.u32()?;
                let lane = r.u16()?;
                let count = r.u16()? as usize;
                let mut calls = Vec::with_capacity(count.min(256));
                for _ in 0..count {
                    let seq = r.u64()?;
                    calls.push((seq, decode_cmp(&mut r)?));
                }
                WireRecord::Batch {
                    thread,
                    lane,
                    calls,
                }
            }
            TAG_PUBLISH => WireRecord::Publish {
                thread: r.u32()?,
                seq: r.u64()?,
                timestamp: match r.u8()? {
                    0 => None,
                    _ => Some(r.u64()?),
                },
                outcome: decode_outcome(&mut r)?,
            },
            TAG_SYNC_OP => WireRecord::SyncOp { thread: r.u32()? },
            TAG_BARRIER => WireRecord::Barrier,
            TAG_BYE => WireRecord::Bye,
            TAG_ACK => WireRecord::Ack { through: r.u64()? },
            TAG_VERDICT => WireRecord::Verdict {
                report: decode_report(&mut r)?,
            },
            tag => return Err(format!("unknown wire record tag {tag}")),
        };
        r.finish()?;
        Ok(record)
    }
}

/// Appends a [`WireRecord::Batch`] frame encoded from borrowed calls.
pub(crate) fn push_batch(
    out: &mut Vec<u8>,
    thread: u32,
    lane: u16,
    calls: &[(u64, ComparisonKey)],
) {
    push_frame_with(out, |body| encode_batch(body, thread, lane, calls));
}

/// Appends a [`WireRecord::Publish`] frame encoded from a borrowed outcome.
pub(crate) fn push_publish(
    out: &mut Vec<u8>,
    thread: u32,
    seq: u64,
    timestamp: Option<u64>,
    outcome: &SyscallOutcome,
) {
    push_frame_with(out, |body| {
        encode_publish(body, thread, seq, timestamp, outcome)
    });
}

fn encode_batch(buf: &mut Vec<u8>, thread: u32, lane: u16, calls: &[(u64, ComparisonKey)]) {
    buf.push(TAG_BATCH);
    buf.extend_from_slice(&thread.to_le_bytes());
    buf.extend_from_slice(&lane.to_le_bytes());
    buf.extend_from_slice(&(calls.len() as u16).to_le_bytes());
    for (seq, cmp) in calls {
        buf.extend_from_slice(&seq.to_le_bytes());
        encode_cmp(buf, cmp);
    }
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
    match timestamp {
        Some(ts) => {
            buf.push(1);
            buf.extend_from_slice(&ts.to_le_bytes());
        }
        None => buf.push(0),
    }
    encode_outcome(buf, outcome);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::divergence::DivergenceKind;
    use crate::frame::next_frame;
    use mvee_kernel::syscall::{SyscallArg, SyscallRequest, Sysno};

    fn roundtrip(record: WireRecord) {
        let mut bytes = Vec::new();
        record.encode_frame(&mut bytes);
        let (body, end) = next_frame(&bytes, 0).unwrap().unwrap();
        assert_eq!(end, bytes.len(), "one frame per record");
        let decoded = WireRecord::decode(body).unwrap();
        assert_eq!(decoded, record);
        let mut again = b"earlier frames".to_vec();
        decoded.encode_frame(&mut again);
        assert_eq!(
            again[14..],
            bytes[..],
            "decode then re-encode is the identity"
        );
    }

    fn cmp(no: Sysno, payload: &[u8]) -> ComparisonKey {
        SyscallRequest::new(no)
            .with_payload(payload)
            .comparison_key()
    }

    #[test]
    fn every_record_kind_roundtrips() {
        roundtrip(WireRecord::Hello {
            variants: 4,
            threads: 8,
            shards: 2,
            batch: 16,
        });
        roundtrip(WireRecord::Arrive {
            thread: 2,
            lane: 1,
            seq: 41,
            will_publish: true,
            cmp: cmp(Sysno::Write, b"hello"),
        });
        roundtrip(WireRecord::Batch {
            thread: 0,
            lane: 0,
            calls: vec![
                (1 << 63, cmp(Sysno::Brk, b"")),
                ((1 << 63) | 1, cmp(Sysno::Mprotect, b"x")),
            ],
        });
        roundtrip(WireRecord::Publish {
            thread: 1,
            seq: 9,
            timestamp: Some(77),
            outcome: SyscallOutcome::ok(42),
        });
        roundtrip(WireRecord::Publish {
            thread: 1,
            seq: 10,
            timestamp: None,
            outcome: SyscallOutcome::ok(-1),
        });
        roundtrip(WireRecord::SyncOp { thread: 5 });
        roundtrip(WireRecord::Barrier);
        roundtrip(WireRecord::Bye);
        roundtrip(WireRecord::Ack { through: 1234 });
        roundtrip(WireRecord::Verdict {
            report: DivergenceReport {
                kind: DivergenceKind::SyscallMismatch {
                    master: Sysno::Write,
                    variant: Sysno::Mprotect,
                },
                thread: 2,
                sequence: 17,
                variant: 1,
            },
        });
    }

    #[test]
    fn large_and_variable_length_fields_roundtrip() {
        let open = SyscallRequest::new(Sysno::Open)
            .with_arg(SyscallArg::Path("/var/www/index.html".to_string()))
            .with_arg(SyscallArg::Flags(0o2))
            .comparison_key();
        roundtrip(WireRecord::Arrive {
            thread: 1,
            lane: 0,
            seq: 3,
            will_publish: false,
            cmp: open.clone(),
        });
        roundtrip(WireRecord::Batch {
            thread: 1,
            lane: 0,
            calls: (0..8).map(|i| ((1 << 63) | i, open.clone())).collect(),
        });
        let big = SyscallOutcome {
            result: Ok(64 * 1024),
            payload: (0..64 * 1024).map(|i| (i * 31 % 251) as u8).collect(),
        };
        for timestamp in [None, Some(u64::MAX)] {
            roundtrip(WireRecord::Publish {
                thread: 1,
                seq: 3,
                timestamp,
                outcome: big.clone(),
            });
        }
    }

    #[test]
    fn truncated_and_trailing_bodies_are_rejected() {
        let mut bytes = Vec::new();
        WireRecord::Ack { through: 7 }.encode_frame(&mut bytes);
        let (body, _) = next_frame(&bytes, 0).unwrap().unwrap();
        assert!(WireRecord::decode(&body[..body.len() - 1]).is_err());
        let mut long = body.to_vec();
        long.push(0);
        assert!(WireRecord::decode(&long).is_err());
        assert!(WireRecord::decode(&[200]).is_err(), "unknown tag");
    }

    #[test]
    fn counts_roundtrip_and_the_retired_counter_tags_are_unknown() {
        roundtrip(WireRecord::Counts {
            thread: 3,
            lane: 1,
            counts: CallCounts {
                enters: 9,
                self_aware: 1,
                lockstep: 7,
                batched: 6,
                replicated: 1,
                ordered: u32::MAX,
            },
        });
        roundtrip(WireRecord::Counts {
            thread: 0,
            lane: 0,
            counts: CallCounts::default(),
        });
        // Tags 2 and 3 were the per-call `Enter` and `Class` records; a
        // frame carrying either, with its old body, is refused by tag.
        for body in [&[2u8, 3, 0, 0, 0, 1, 0, 1][..], &[3u8, 2, 0, 0][..]] {
            let err = WireRecord::decode(body).unwrap_err();
            assert_eq!(err, format!("unknown wire record tag {}", body[0]));
        }
    }

    #[test]
    fn borrowed_encoders_match_the_owned_records() {
        let outcome = SyscallOutcome {
            result: Ok(5),
            payload: b"hello".to_vec(),
        };
        let mut borrowed = Vec::new();
        push_publish(&mut borrowed, 2, 11, Some(4), &outcome);
        let mut owned = Vec::new();
        WireRecord::Publish {
            thread: 2,
            seq: 11,
            timestamp: Some(4),
            outcome,
        }
        .encode_frame(&mut owned);
        assert_eq!(borrowed, owned);

        let calls = vec![
            (1 << 63, cmp(Sysno::Brk, b"")),
            ((1 << 63) | 1, cmp(Sysno::Mprotect, b"x")),
        ];
        let mut borrowed = Vec::new();
        push_batch(&mut borrowed, 1, 0, &calls);
        let mut owned = Vec::new();
        WireRecord::Batch {
            thread: 1,
            lane: 0,
            calls,
        }
        .encode_frame(&mut owned);
        assert_eq!(borrowed, owned);
    }
}
