//! The declared metrics: every end-to-end metric, and every per-layer
//! metric with the end-to-end metrics and workloads it should move.
//! `README.md` names each one's layer and source.
//!
//! `BENCHMARK.json` lists the same names; the package's tests keep the
//! two in step.

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Declared {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// The end-to-end metrics it should move.
    pub moves: &'static [&'static str],
    /// The workloads it should move them on (`all` = every workload).
    pub on: &'static [&'static str],
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static [&'static str],
    on: &'static [&'static str],
) -> Declared {
    Declared {
        name,
        unit,
        better,
        moves,
        on,
    }
}

const MIPS: &[&str] = &["guest_mips"];
const SLOW: &[&str] = &["sim_slowdown_geomean"];
const BOTH: &[&str] = &["guest_mips", "sim_slowdown_geomean"];
const WALL: &[&str] = &["wall_s"];
const HOT: &[&str] = &["hot-loop"];
const CHURN: &[&str] = &["code-churn"];
const SWEEP: &[&str] = &["fig-sweep"];
const ALL: &[&str] = &["all"];

/// End-to-end metrics, in print order (`--trace 0`).
#[rustfmt::skip]
pub const END_TO_END: &[Declared] = &[
    m("wall_s", "s", "lower", WALL, ALL),
    m("guest_mips", "Minsn/s", "higher", MIPS, ALL),
    m("setup_s", "s", "lower", &["setup_s"], ALL),
    m("peak_rss_mb", "MB", "lower", &["peak_rss_mb"], ALL),
    m("sim_slowdown_geomean", "x", "lower", SLOW, ALL),
];

/// Per-layer metrics, in print order (`--trace 1`).
#[rustfmt::skip]
pub const PER_LAYER: &[Declared] = &[
    m("x86.decode_ns_per_insn", "ns", "lower", MIPS, CHURN),
    m("ir.lower_ns_per_block", "ns", "lower", MIPS, CHURN),
    m("ir.opt_flags_ns_per_block", "ns", "lower", MIPS, CHURN),
    m("ir.opt_valueprop_ns_per_block", "ns", "lower", MIPS, CHURN),
    m("ir.opt_dce_ns_per_block", "ns", "lower", MIPS, CHURN),
    m("ir.codegen_ns_per_block", "ns", "lower", MIPS, CHURN),
    m("ir.host_insns_per_guest_insn", "ratio", "lower", SLOW, HOT),
    m("raw.run_block_ns_per_rinsn", "ns", "lower", MIPS, HOT),
    m("memsys.hit_ns", "ns", "lower", MIPS, HOT),
    m("memsys.miss_ns", "ns", "lower", MIPS, HOT),
    m("memsys.l1_hit_ratio", "ratio", "higher", SLOW, HOT),
    m("memsys.dram_per_kinsn", "1/kinsn", "lower", SLOW, HOT),
    m("memsys.stall_share", "ratio", "lower", SLOW, HOT),
    m("codecache.l1_lookup_ns", "ns", "lower", MIPS, CHURN),
    m("codecache.l15_get_ns", "ns", "lower", MIPS, CHURN),
    m("codecache.l2_get_ns", "ns", "lower", MIPS, CHURN),
    m("codecache.l1_hit_ratio", "ratio", "higher", SLOW, CHURN),
    m("codecache.l15_hit_ratio", "ratio", "higher", SLOW, CHURN),
    m("codecache.l2_miss_ratio", "ratio", "lower", SLOW, CHURN),
    m("codecache.l1_flushes", "count", "lower", SLOW, CHURN),
    m("system.dispatch_ns_per_call", "ns", "lower", MIPS, CHURN),
    m("system.translate_ms", "ms", "lower", MIPS, CHURN),
    m("system.commit_ms", "ms", "lower", MIPS, CHURN),
    m("system.dispatch_miss_per_kinsn", "1/kinsn", "lower", MIPS, CHURN),
    m("system.unprofiled_share", "ratio", "lower", BOTH, HOT),
    m("system.chain_ratio", "ratio", "higher", BOTH, HOT),
    m("system.inline_hit_ratio", "ratio", "higher", BOTH, HOT),
    m("system.superblock_side_exit_ratio", "ratio", "lower", BOTH, HOT),
    m("system.new_ms", "ms", "lower", WALL, SWEEP),
    m("manager.occupancy", "ratio", "lower", SLOW, CHURN),
    m("manager.dram_wait_share", "ratio", "lower", SLOW, CHURN),
    m("slave.cycles_per_block", "cycles", "lower", SLOW, CHURN),
    m("slave.useful_ratio", "ratio", "higher", SLOW, CHURN),
    m("morph.reconfigs", "count", "lower", SLOW, SWEEP),
    m("shared.reuse_ratio", "ratio", "higher", WALL, SWEEP),
    m("pentium.ns_per_insn", "ns", "lower", &["setup_s", "wall_s"], ALL),
    m("workloads.build_ms", "ms", "lower", &["setup_s"], ALL),
    m("sweep.worker_busy_share", "ratio", "higher", WALL, SWEEP),
    m("trace.overhead_ratio", "ratio", "lower", &[], ALL),
    m("trace.dropped_events", "count", "lower", &[], ALL),
];

/// Names of the end-to-end metrics.
pub fn end_to_end_names() -> Vec<&'static str> {
    END_TO_END.iter().map(|d| d.name).collect()
}

/// Names of the per-layer metrics.
pub fn per_layer_names() -> Vec<&'static str> {
    PER_LAYER.iter().map(|d| d.name).collect()
}

/// The declaration of `name`, end-to-end or per-layer.
pub fn declared(name: &str) -> Option<&'static Declared> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}
