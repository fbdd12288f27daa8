//! The metric catalogue: every metric the benchmark prints, with its unit.
//! `BENCHMARK.json` lists the same names (a test keeps the two in step).

/// End-to-end metrics, printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("size_reduction_pct", "%"),
    ("duration_reduction_pct", "%"),
    ("fc_loss_pp", "pp"),
    ("req_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`). Layer names
/// are the workspace's crate names.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.context_s", "s"),
    ("netlist.build_s", "s"),
    ("netlist.levelize_s", "s"),
    ("fault.universe_s", "s"),
    ("analyze.run_s", "s"),
    ("analyze.gate_s", "s"),
    ("netlist.gates", "count"),
    ("fault.collapsed_faults", "count"),
    ("analyze.untestable", "count"),
    ("gpu.trace_s", "s"),
    ("gpu.eval_trace_s", "s"),
    ("gpu.sim_cycles", "cycles"),
    ("gpu.cycles_per_s", "1/s"),
    ("gpu.patterns", "count"),
    ("fault.sim_s", "s"),
    ("fault.eval_sim_s", "s"),
    ("fault.calls", "count"),
    ("fault.patterns_per_s", "1/s"),
    ("fault.detect_ratio", "ratio"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.writes", "count"),
    ("store.corrupt", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.read_s", "s"),
    ("store.miss_s", "s"),
    ("serve.overhead_s", "s"),
    ("serve.rejected", "count"),
    ("programs.parse_s", "s"),
    ("programs.partition_s", "s"),
    ("programs.serialize_s", "s"),
    ("core.label_s", "s"),
    ("core.reduce_s", "s"),
    ("verify.reduction_s", "s"),
    ("core.sbs_removed", "count"),
    ("core.essential", "count"),
    ("residual_s", "s"),
    ("trace_overhead_pct", "%"),
];

/// The unit of a catalogued metric.
#[must_use]
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}
