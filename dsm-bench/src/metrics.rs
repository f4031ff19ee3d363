//! The metrics the benchmark reports, with their units. `BENCHMARK.json`
//! declares the same names and units (the self-test checks that the two
//! agree); `RATIONALE.md` says which end-to-end metric each per-layer metric
//! should move, and on which workload.
//!
//! Host-time units are `s`, `ms` and `ns`; virtual-time (simulated clock)
//! units are `sim_s` and `sim_us`.

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Reported with `--trace 0`.
pub static END_TO_END: &[Metric] = &[
    m("wall_s", "s", "lower"),
    m("setup_s", "s", "lower"),
    m("virtual_s", "sim_s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Reported with `--trace 1`.
pub static PER_LAYER: &[Metric] = &[
    m("sim.events", "count", "lower"),
    m("sim.context_switches", "count", "lower"),
    m("sim.host_ns_per_event", "ns", "lower"),
    m("sim.handoff_ns.continuation", "ns", "lower"),
    m("sim.handoff_ns.baton", "ns", "lower"),
    m("core.access_ns", "ns", "lower"),
    m("core.page_table_lookup_ns", "ns", "lower"),
    m("core.diff_compute_ns", "ns", "lower"),
    m("core.diff_apply_ns", "ns", "lower"),
    m("core.local_accesses", "count", "lower"),
    m("core.read_faults", "count", "lower"),
    m("core.write_faults", "count", "lower"),
    m("core.hit_ratio", "ratio", "higher"),
    m("core.page_transfers", "count", "lower"),
    m("core.page_bytes", "bytes", "lower"),
    m("core.invalidations", "count", "lower"),
    m("core.twins_created", "count", "lower"),
    m("core.diffs_sent", "count", "lower"),
    m("core.diff_bytes", "bytes", "lower"),
    m("core.barrier_wait_virtual_us.p50", "sim_us", "lower"),
    m("core.barrier_wait_virtual_us.p90", "sim_us", "lower"),
    m("core.lock_hold_virtual_us.p50", "sim_us", "lower"),
    m("core.lock_hold_virtual_us.p90", "sim_us", "lower"),
    m("core.malloc_ms", "ms", "lower"),
    m("protocols.read_fault_virtual_us.p50", "sim_us", "lower"),
    m("protocols.read_fault_virtual_us.p90", "sim_us", "lower"),
    m("protocols.write_fault_virtual_us.p50", "sim_us", "lower"),
    m("protocols.write_fault_virtual_us.p90", "sim_us", "lower"),
    m("protocols.server_host_ns", "ns", "lower"),
    m("protocols.forward_ratio", "ratio", "lower"),
    m("protocols.register_ms", "ms", "lower"),
    m("madeleine.messages", "count", "lower"),
    m("madeleine.message_bytes", "bytes", "lower"),
    m("madeleine.envelopes", "count", "lower"),
    m("madeleine.messages_per_envelope", "ratio", "higher"),
    m("madeleine.stall_us", "sim_us", "lower"),
    m("madeleine.retransmits", "count", "lower"),
    m("madeleine.send_ns", "ns", "lower"),
    m("pm2.rpc_ns", "ns", "lower"),
    m("pm2.bringup_ms", "ms", "lower"),
    m("workloads.tsp_expanded", "count", "lower"),
    m("trace_overhead", "ratio", "lower"),
];
