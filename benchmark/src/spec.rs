//! The benchmark's contract, as code: workload names, the gated end-to-end
//! metrics with their bounds, and every per-layer metric.  `BENCHMARK.json`
//! at the repository root says the same thing for the driver; a test keeps
//! the two from drifting.

use crate::measure::Metrics;

pub const WORKLOADS: [&str; 6] = [
    "lockstep_sync",
    "deferred_async",
    "journal_recover",
    "remote_unix",
    "parallel_agents",
    "http_serve",
];

/// `(name, unit, better, bound)`: every workload reports every one of them.
pub const END_TO_END: [(&str, &str, &str, f64); 7] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "ops/s", "higher", 0.15),
    ("op_p50_us", "us", "lower", 0.15),
    ("op_p99_us", "us", "lower", 0.25),
    ("slowdown_x", "x", "lower", 0.15),
    ("cpu_ms_per_kop", "ms", "lower", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.10),
];

/// `(name, unit, better)`: reported by the traced run of every workload; a
/// metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: [(&str, &str, &str); 85] = [
    // End-to-end numbers that only some workloads have, so the driver
    // cannot gate them: reported here, ungated.
    ("issue_p50_ns", "ns", "lower"),
    ("detect_p50_us", "us", "lower"),
    ("respawn_p50_ms", "ms", "lower"),
    ("replay_records_per_s", "1/s", "higher"),
    ("failed_ops_ratio", "ratio", "lower"),
    // Spans around port calls, traced pass.
    ("port.call_ns.replicated", "ns", "lower"),
    ("port.call_ns.ordered", "ns", "lower"),
    ("port.call_ns.lockstep", "ns", "lower"),
    ("port.call_ns.deferred", "ns", "lower"),
    ("port.sync_op_ns", "ns", "lower"),
    ("async_port.submit_ns", "ns", "lower"),
    ("async_port.reap_ns", "ns", "lower"),
    ("async_port.backpressure_ratio", "ratio", "lower"),
    ("poller.completion_lag_ns", "ns", "lower"),
    ("poller.threads", "count", "lower"),
    ("remote.leader_deferred_ns", "ns", "lower"),
    ("remote.leader_sync_ns", "ns", "lower"),
    ("remote.barrier_ns", "ns", "lower"),
    ("remote.detection_lag_sync_ops", "count", "lower"),
    ("mvee.build_ns", "ns", "lower"),
    ("mvee.respawn_ns_per_record", "ns", "lower"),
    ("variant.native_wall_s", "s", "lower"),
    ("variant.mvee_wall_s", "s", "lower"),
    ("http.accept_eagain_ratio", "ratio", "lower"),
    ("http.calls_per_request", "count", "lower"),
    ("http.sync_ops_per_request", "count", "lower"),
    // Public counters at the end of the fixed pass: exact counts.
    ("monitor.total_syscalls", "count", "lower"),
    ("monitor.lockstep_syscalls", "count", "lower"),
    ("monitor.replicated_syscalls", "count", "lower"),
    ("monitor.ordered_syscalls", "count", "lower"),
    ("monitor.batched_comparisons", "count", "higher"),
    ("monitor.batch_flushes", "count", "lower"),
    ("monitor.comparisons_per_flush", "count", "higher"),
    ("monitor.divergences", "count", "lower"),
    ("monitor.quarantines", "count", "lower"),
    ("monitor.respawns", "count", "lower"),
    ("monitor.degraded_calls", "count", "lower"),
    ("kernel.syscalls_executed", "count", "lower"),
    ("kernel.syscalls_failed", "count", "lower"),
    ("agent.ops_recorded", "count", "lower"),
    ("agent.ops_replayed", "count", "lower"),
    ("agent.slave_stalls", "count", "lower"),
    ("agent.master_stalls", "count", "lower"),
    ("agent.slave_parks", "count", "lower"),
    ("agent.slave_yields", "count", "lower"),
    ("agent.master_parks", "count", "lower"),
    ("agent.cursor_rescans", "count", "lower"),
    ("agent.replication_points", "count", "lower"),
    ("agent.stall_ratio", "ratio", "lower"),
    ("journal.records_per_call", "count", "lower"),
    ("journal.bytes_per_call", "B", "lower"),
    ("snapshot.taken", "count", "lower"),
    ("snapshot.bytes", "B", "lower"),
    // Layer probes.
    ("kernel.execute_ns.addrspace", "ns", "lower"),
    ("kernel.execute_ns.file", "ns", "lower"),
    ("kernel.execute_ns.net", "ns", "lower"),
    ("kernel.execute_ns.time", "ns", "lower"),
    ("kernel.capture_process_ns", "ns", "lower"),
    ("lockstep.deposit_resolve_ns", "ns", "lower"),
    ("lockstep.batch8_resolve_ns", "ns", "lower"),
    ("lockstep.handoff_spin_ns", "ns", "lower"),
    ("guards.park_wake_ns", "ns", "lower"),
    ("guards.acquire_release_ns", "ns", "lower"),
    ("ring.push_get_ns", "ns", "lower"),
    ("spsc.push_pop_ns", "ns", "lower"),
    ("agent.sync_op_ns.woc", "ns", "lower"),
    ("agent.sync_op_ns.to", "ns", "lower"),
    ("agent.sync_op_ns.po", "ns", "lower"),
    ("ordering.claim_advance_ns", "ns", "lower"),
    ("policy.disposition_ns", "ns", "lower"),
    ("journal.append_ns", "ns", "lower"),
    ("journal.append_ns_2t", "ns", "lower"),
    ("journal.finish_ns_per_record", "ns", "lower"),
    ("journal.decode_ns_per_record", "ns", "lower"),
    ("journal.recover_ns_per_record", "ns", "lower"),
    ("journal.replay_ns_per_record", "ns", "lower"),
    ("frame.crc32_mb_per_s.64b", "MB/s", "higher"),
    ("frame.crc32_mb_per_s.4k", "MB/s", "higher"),
    ("frame.push_next_ns", "ns", "lower"),
    ("snapshot.encode_ns", "ns", "lower"),
    ("snapshot.decode_ns", "ns", "lower"),
    ("remote.channel_rtt_ns", "ns", "lower"),
    // How the layers add up.
    ("trace.overhead_ratio", "ratio", "higher"),
    ("residual_wait_ns", "ns", "lower"),
    ("residual_share", "ratio", "lower"),
];

/// Every per-layer metric at 0, in report order.
pub fn per_layer_zeroed() -> Metrics {
    let mut m = Metrics::default();
    for (name, unit, _) in PER_LAYER {
        m.set(name, unit, 0.0);
    }
    m
}

/// The bound of end-to-end metric `name`.
pub fn bound_of(name: &str) -> Option<f64> {
    END_TO_END
        .iter()
        .find(|(n, ..)| *n == name)
        .map(|&(.., bound)| bound)
}

/// Whether a larger value of end-to-end metric `name` is the better one.
pub fn higher_is_better(name: &str) -> bool {
    END_TO_END
        .iter()
        .any(|&(n, _, better, _)| n == name && better == "higher")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.get(key)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key:?}"))
    }

    fn text(v: &Value, key: &str) -> String {
        field(v, key).as_str().expect("a string").to_string()
    }

    #[test]
    fn benchmark_json_says_what_the_code_says() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let raw = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&raw).expect("BENCHMARK.json parses");

        let workloads: Vec<String> = field(&doc, "workloads")
            .as_array()
            .expect("an array")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);

        let e2e: Vec<(String, String, String, f64)> = field(&doc, "end_to_end")
            .as_array()
            .expect("an array")
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    field(m, "bound").as_f64().expect("a number"),
                )
            })
            .collect();
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|&(n, u, b, bound)| (n.to_string(), u.to_string(), b.to_string(), bound))
            .collect();
        assert_eq!(e2e, want);

        let layers: Vec<(String, String, String)> = field(&doc, "per_layer")
            .as_array()
            .expect("an array")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(layers, want);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.to_vec();
        names.extend(END_TO_END.iter().map(|m| m.0));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for name in names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.3 <= 0.25));
        assert!(PER_LAYER.len() <= 128);
    }
}
