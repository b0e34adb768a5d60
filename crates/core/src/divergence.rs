//! Divergence detection: comparing equivalent system calls across variants.
//!
//! The monitor's security argument rests on one comparison: when the
//! equivalent threads of all variants arrive at their n-th monitored system
//! call, the calls must be *equivalent* — same call number, same compared
//! arguments, same outgoing data.  Pointer-valued arguments are exempt
//! because diversified variants legitimately pass different addresses.
//!
//! A mismatch, or a variant that fails to arrive at the rendezvous at all
//! within the timeout, produces a [`DivergenceReport`] and the MVEE shuts all
//! variants down (§1: "MVEEs terminate execution upon detection of
//! divergence").

use serde::{Deserialize, Serialize};

use mvee_kernel::syscall::{ComparisonKey, Sysno};

/// Why the monitor declared divergence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DivergenceKind {
    /// Two variants issued different system calls (or the same call with
    /// different compared arguments) at the same rendezvous point.
    SyscallMismatch {
        /// The call the agreeing plurality issued (the reference — the
        /// master's call whenever the master agrees with the plurality).
        master: Sysno,
        /// The call issued by the diverging variant.
        variant: Sysno,
    },
    /// A variant failed to reach the rendezvous before the timeout expired.
    RendezvousTimeout {
        /// The variant(s) that did arrive in time.
        arrived: Vec<usize>,
    },
    /// A variant timed out waiting for another variant (the publisher —
    /// in practice always the master) to publish a replicated outcome or
    /// an ordering timestamp.  The report's `variant` field names the
    /// *waiting* variant — the one whose call stream reached a point the
    /// publisher's never did — and `publisher` names the variant whose
    /// publication never came.
    ReplicationTimeout {
        /// The variant that never published the awaited outcome.
        publisher: usize,
        /// The variants that actually arrived at the slot, as recorded in
        /// the lockstep table (empty when the call carries no rendezvous).
        arrived: Vec<usize>,
    },
    /// A variant issued a call that the policy forbids outright
    /// (used by tests to model policies with deny-lists).
    PolicyViolation {
        /// The offending call.
        call: Sysno,
    },
}

/// A divergence event: the MVEE's detection result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DivergenceReport {
    /// The kind of divergence.
    pub kind: DivergenceKind,
    /// Logical thread on which the divergence was observed.
    pub thread: usize,
    /// Per-thread sequence number of the monitored call.
    pub sequence: u64,
    /// Index of the variant the monitor blames (the first variant whose key
    /// differed from the plurality's, or the first missing variant).
    pub variant: usize,
}

impl DivergenceReport {
    /// A short human-readable summary.
    pub fn summary(&self) -> String {
        match &self.kind {
            DivergenceKind::SyscallMismatch { master, variant } => format!(
                "divergence on thread {} call #{}: master issued {} but variant {} issued {}",
                self.thread,
                self.sequence,
                master.name(),
                self.variant,
                variant.name()
            ),
            DivergenceKind::RendezvousTimeout { arrived } => format!(
                "divergence on thread {} call #{}: variant {} did not reach the rendezvous (arrived: {:?})",
                self.thread, self.sequence, self.variant, arrived
            ),
            DivergenceKind::ReplicationTimeout { publisher, arrived } => format!(
                "divergence on thread {} call #{}: variant {} timed out waiting for variant {} to publish its outcome (arrived: {:?})",
                self.thread, self.sequence, self.variant, publisher, arrived
            ),
            DivergenceKind::PolicyViolation { call } => format!(
                "policy violation on thread {} call #{}: variant {} issued forbidden call {}",
                self.thread,
                self.sequence,
                self.variant,
                call.name()
            ),
        }
    }
}

/// Compares the arrived keys and names the variant that diverged.
///
/// The reference key is decided by plurality vote over the arrived keys:
/// the key shared by the largest agreement group wins, with ties going to
/// the group containing the lowest-indexed arrival (which preserves the
/// historical "variant 0 is the master" attribution for two-variant
/// tables).  The blamed variant is the first arrival outside that group —
/// crucially, when the diverging variant *is* variant 0, comparing
/// everyone against the master would blame an innocent survivor, and
/// under [`RecoveryPolicy::Quarantine`](crate::config::RecoveryPolicy)
/// that mis-attribution would drop healthy variants until the quorum
/// collapsed.
///
/// Returns the blamed index, the reference key, and the blamed key.
/// `keys[i]` is `None` when variant `i` has not arrived; absent variants
/// are not treated as divergent here (the rendezvous timeout handles
/// them).
///
/// The vote runs over `keys` in place and allocates nothing: the
/// rendezvous table calls this once per resolving slot, and only a
/// mismatch clones the two keys it reports.
pub fn first_mismatch(
    keys: &[Option<ComparisonKey>],
) -> Option<(usize, ComparisonKey, ComparisonKey)> {
    let arrived = || {
        keys.iter()
            .enumerate()
            .filter_map(|(i, k)| k.as_ref().map(|k| (i, k)))
    };
    // The common case: every arrival agrees with the first, so no vote.
    let (_, first) = arrived().next()?;
    if arrived().all(|(_, key)| key == first) {
        return None;
    }
    let mut reference = first;
    let mut best = 0usize;
    for (_, key) in arrived() {
        let count = arrived().filter(|(_, other)| *other == key).count();
        // Strict `>` with an index-ordered scan: on a tie the group seen
        // first — the one with the lowest-indexed member — keeps the win.
        if count > best {
            best = count;
            reference = key;
        }
    }
    arrived()
        .find(|(_, key)| *key != reference)
        .map(|(i, key)| (i, reference.clone(), key.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvee_kernel::syscall::SyscallRequest;

    fn key(no: Sysno, payload: &[u8]) -> ComparisonKey {
        SyscallRequest::new(no)
            .with_payload(payload)
            .comparison_key()
    }

    #[test]
    fn identical_keys_produce_no_mismatch() {
        let keys = vec![
            Some(key(Sysno::Write, b"hello")),
            Some(key(Sysno::Write, b"hello")),
            Some(key(Sysno::Write, b"hello")),
        ];
        assert!(first_mismatch(&keys).is_none());
    }

    #[test]
    fn differing_call_number_is_a_mismatch() {
        let keys = vec![
            Some(key(Sysno::Write, b"x")),
            Some(key(Sysno::Mprotect, b"x")),
        ];
        let (variant, master, diverged) = first_mismatch(&keys).unwrap();
        assert_eq!(variant, 1);
        assert_eq!(master.no, Sysno::Write);
        assert_eq!(diverged.no, Sysno::Mprotect);
    }

    #[test]
    fn differing_payload_is_a_mismatch() {
        let keys = vec![
            Some(key(Sysno::Write, b"normal response")),
            Some(key(Sysno::Write, b"leaked secrets!")),
        ];
        assert!(first_mismatch(&keys).is_some());
    }

    #[test]
    fn diverging_master_is_blamed_by_the_plurality() {
        // Variant 0 is the outlier: the agreement group {1, 2} outvotes
        // it, so blame lands on the master itself — not on the first
        // survivor that happens to disagree with it.
        let keys = vec![
            Some(key(Sysno::Mprotect, b"x")),
            Some(key(Sysno::Write, b"x")),
            Some(key(Sysno::Write, b"x")),
        ];
        let (variant, master, diverged) = first_mismatch(&keys).unwrap();
        assert_eq!(variant, 0);
        assert_eq!(master.no, Sysno::Write);
        assert_eq!(diverged.no, Sysno::Mprotect);
    }

    #[test]
    fn survivors_are_compared_even_without_the_master() {
        // Variant 0 quarantined (absent): the remaining pair still gets a
        // verdict, with the tie going to the lowest-indexed arrival.
        let keys = vec![
            None,
            Some(key(Sysno::Write, b"x")),
            Some(key(Sysno::Mprotect, b"x")),
        ];
        let (variant, master, diverged) = first_mismatch(&keys).unwrap();
        assert_eq!(variant, 2);
        assert_eq!(master.no, Sysno::Write);
        assert_eq!(diverged.no, Sysno::Mprotect);
    }

    #[test]
    fn missing_variants_are_not_mismatches() {
        let keys = vec![
            Some(key(Sysno::Write, b"x")),
            None,
            Some(key(Sysno::Write, b"x")),
        ];
        assert!(first_mismatch(&keys).is_none());
    }

    #[test]
    fn missing_master_is_not_a_mismatch_yet() {
        let keys = vec![None, Some(key(Sysno::Write, b"x"))];
        assert!(first_mismatch(&keys).is_none());
    }

    #[test]
    fn report_summaries_mention_the_blamed_variant() {
        let report = DivergenceReport {
            kind: DivergenceKind::SyscallMismatch {
                master: Sysno::Write,
                variant: Sysno::Mprotect,
            },
            thread: 2,
            sequence: 17,
            variant: 1,
        };
        let s = report.summary();
        assert!(s.contains("write"));
        assert!(s.contains("mprotect"));
        assert!(s.contains("variant 1"));

        let timeout = DivergenceReport {
            kind: DivergenceKind::RendezvousTimeout { arrived: vec![0] },
            thread: 0,
            sequence: 3,
            variant: 1,
        };
        assert!(timeout.summary().contains("did not reach"));
    }

    #[test]
    fn replication_timeout_summary_names_waiter_and_publisher() {
        let report = DivergenceReport {
            kind: DivergenceKind::ReplicationTimeout {
                publisher: 0,
                arrived: vec![1],
            },
            thread: 3,
            sequence: 9,
            variant: 1,
        };
        let s = report.summary();
        assert!(s.contains("variant 1 timed out"));
        assert!(s.contains("variant 0 to publish"));
        assert!(s.contains("[1]"));
    }
}
