//! Agent configuration, variant roles and per-thread contexts.

use serde::{Deserialize, Serialize};

use crate::guards::Waiter;

/// Maximum number of logical threads an agent supports.
///
/// The paper's agents may not allocate dynamically (§3.3), so per-thread
/// buffers are pre-allocated for a fixed number of threads.  The evaluation
/// uses 4 worker threads; nginx spawns a 32-thread pool; 64 leaves headroom.
pub const MAX_THREADS: usize = 64;

/// Maximum number of variants (1 master + up to 15 slaves).
pub const MAX_VARIANTS: usize = 16;

/// The role a variant plays in the replication scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VariantRole {
    /// The master (leader) variant: records the order of its sync ops.
    Master,
    /// A slave (follower) variant: replays the recorded order.
    /// The index is zero-based among slaves (slave 0 is the second variant).
    Slave {
        /// Zero-based index of this slave.
        index: usize,
    },
}

impl VariantRole {
    /// Whether this is the master role.
    pub fn is_master(self) -> bool {
        matches!(self, VariantRole::Master)
    }

    /// Returns the slave index, if this is a slave.
    pub fn slave_index(self) -> Option<usize> {
        match self {
            VariantRole::Master => None,
            VariantRole::Slave { index } => Some(index),
        }
    }

    /// Builds a role from a variant index: variant 0 is the master, variant
    /// `i > 0` is slave `i - 1`.
    pub fn from_variant_index(index: usize) -> Self {
        if index == 0 {
            VariantRole::Master
        } else {
            VariantRole::Slave { index: index - 1 }
        }
    }

    /// The inverse of [`from_variant_index`](Self::from_variant_index): the
    /// variant index this role plays (master = 0, slave `k` = `k + 1`).
    pub fn variant_index(self) -> usize {
        match self {
            VariantRole::Master => 0,
            VariantRole::Slave { index } => index + 1,
        }
    }
}

/// Per-thread context handed to the agent on every call.
///
/// The `thread` index is the *logical* thread index, assigned identically in
/// every variant (thread 0 is the initial thread, thread `k` is the k-th
/// spawned worker).  This is what gives the agents their positional
/// correspondence across diversified variants (§4.5.1): the n-th sync op of
/// master thread `k` corresponds to the n-th sync op of slave thread `k`,
/// regardless of what addresses the variables have in each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyncContext {
    /// The variant's role.
    pub role: VariantRole,
    /// Logical thread index within the variant.
    pub thread: usize,
}

impl SyncContext {
    /// Creates a context.
    ///
    /// # Panics
    ///
    /// Panics if `thread` exceeds [`MAX_THREADS`]; the agents pre-allocate
    /// per-thread state and cannot grow it at run time.
    pub fn new(role: VariantRole, thread: usize) -> Self {
        assert!(
            thread < MAX_THREADS,
            "thread index {thread} exceeds MAX_THREADS ({MAX_THREADS})"
        );
        SyncContext { role, thread }
    }
}

/// Agent sizing and behaviour knobs, fixed at construction time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AgentConfig {
    /// Total number of variants (master + slaves).  Must be at least 1.
    pub variants: usize,
    /// Number of logical threads the workload uses (≤ [`MAX_THREADS`]).
    pub threads: usize,
    /// Capacity, in records, of each sync buffer.  Must be a power of two.
    pub buffer_capacity: usize,
    /// Number of logical clocks in the wall-of-clocks agent.
    pub clock_count: usize,
    /// Number of ordering guard buckets used on the master side.
    pub guard_buckets: usize,
    /// Size of the look-ahead window the partial-order agent scans.
    pub lookahead_window: usize,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            variants: 2,
            threads: 4,
            buffer_capacity: 4096,
            clock_count: 512,
            guard_buckets: 512,
            lookahead_window: 256,
        }
    }
}

impl AgentConfig {
    /// Sets the number of variants (builder style).
    pub fn with_variants(mut self, variants: usize) -> Self {
        assert!(
            (1..=MAX_VARIANTS).contains(&variants),
            "variant count must be in 1..={MAX_VARIANTS}"
        );
        self.variants = variants;
        self
    }

    /// Sets the number of worker threads (builder style).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(
            (1..=MAX_THREADS).contains(&threads),
            "thread count must be in 1..={MAX_THREADS}"
        );
        self.threads = threads;
        self
    }

    /// Sets the per-buffer capacity (builder style).  Must be a power of two.
    pub fn with_buffer_capacity(mut self, capacity: usize) -> Self {
        assert!(
            capacity.is_power_of_two(),
            "capacity must be a power of two"
        );
        self.buffer_capacity = capacity;
        self
    }

    /// Sets the number of logical clocks (builder style).
    pub fn with_clock_count(mut self, clocks: usize) -> Self {
        assert!(clocks > 0, "clock count must be positive");
        self.clock_count = clocks;
        self
    }

    /// Sets the look-ahead window of the partial-order agent (builder style).
    pub fn with_lookahead_window(mut self, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        self.lookahead_window = window;
        self
    }

    /// The waiter this configuration prescribes.
    pub fn waiter(&self) -> Waiter {
        Waiter::default()
    }

    /// Number of slave variants.
    pub fn slave_count(&self) -> usize {
        self.variants.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_from_variant_index() {
        assert_eq!(VariantRole::from_variant_index(0), VariantRole::Master);
        assert_eq!(
            VariantRole::from_variant_index(1),
            VariantRole::Slave { index: 0 }
        );
        assert_eq!(
            VariantRole::from_variant_index(3),
            VariantRole::Slave { index: 2 }
        );
    }

    #[test]
    fn role_predicates() {
        assert!(VariantRole::Master.is_master());
        assert_eq!(VariantRole::Master.slave_index(), None);
        assert_eq!(VariantRole::Slave { index: 2 }.slave_index(), Some(2));
    }

    #[test]
    fn variant_index_round_trips() {
        for i in 0..MAX_VARIANTS {
            assert_eq!(VariantRole::from_variant_index(i).variant_index(), i);
        }
    }

    #[test]
    fn default_config_is_sane() {
        let c = AgentConfig::default();
        assert_eq!(c.variants, 2);
        assert_eq!(c.slave_count(), 1);
        assert!(c.buffer_capacity.is_power_of_two());
        assert!(c.clock_count > 0);
    }

    #[test]
    fn config_builders_apply() {
        let c = AgentConfig::default()
            .with_variants(4)
            .with_threads(8)
            .with_buffer_capacity(1024)
            .with_clock_count(64)
            .with_lookahead_window(32);
        assert_eq!(c.variants, 4);
        assert_eq!(c.slave_count(), 3);
        assert_eq!(c.threads, 8);
        assert_eq!(c.buffer_capacity, 1024);
        assert_eq!(c.clock_count, 64);
        assert_eq!(c.lookahead_window, 32);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_capacity_panics() {
        let _ = AgentConfig::default().with_buffer_capacity(1000);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_THREADS")]
    fn oversized_thread_index_panics() {
        let _ = SyncContext::new(VariantRole::Master, MAX_THREADS);
    }

    #[test]
    #[should_panic(expected = "variant count")]
    fn oversized_variant_count_panics() {
        let _ = AgentConfig::default().with_variants(MAX_VARIANTS + 1);
    }
}
