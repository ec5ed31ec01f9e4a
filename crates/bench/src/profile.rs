//! Host wall-time profiling harness: the consumer side of
//! [`vta_sim::Profiler`], the simulator's second clock domain.
//!
//! The [`crate::perf`] module tracks *aggregate* host throughput (wall
//! seconds for whole sweeps); this module answers *where the wall time
//! goes*: it runs one benchmark with span profiling enabled, renders a
//! top-phases breakdown, attributes the simulated-side manager's busy
//! cycles to its four duties, and emits the `BENCH_profile.json`
//! trajectory artifact.
//!
//! Two invariants, inherited from the profiler itself:
//!
//! 1. Host wall numbers never feed fingerprints, `Stats`, or metrics
//!    series — they are host-scheduling-dependent by nature.
//! 2. Manager attribution goes the other way: it is derived entirely
//!    from deterministic simulated counters (`manager.*` in
//!    [`vta_sim::Stats`]), so it is as deterministic as the simulation
//!    and identical with profiling on or off.
//!
//! Everything rendered here is hand-rolled text/JSON (the workspace has
//! a zero-external-dependency policy).

use std::fmt::Write as _;
use std::time::Instant;

use vta_dbt::{System, VirtualArchConfig};
use vta_sim::{ProfConfig, ProfileReport, Stats, TraceConfig, Tracer};
use vta_workloads::Scale;

/// The simulated manager tile's busy cycles, attributed to its four
/// duties. Derived from the deterministic `manager.*` counters in
/// [`Stats`], so — unlike everything else profiling-related — these
/// numbers are part of the fingerprinted state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManagerActivity {
    /// Cycles assigning translation jobs to translator tiles
    /// (`manager.assign_cycles`).
    pub assign_cycles: u64,
    /// Cycles committing finished translations into the code cache
    /// (`manager.commit_cycles`).
    pub commit_cycles: u64,
    /// Cycles servicing L2 code-cache lookups and SMC invalidations
    /// (`manager.service_cycles`).
    pub service_cycles: u64,
    /// Cycles applying fabric morphs (`manager.morph_cycles`).
    pub morph_cycles: u64,
    /// Cycles the manager sat blocked on the DRAM `l2meta` walk after
    /// its fixed service time (`manager.dram_wait_cycles`). Reported
    /// beside the duties but **excluded from busy time**: the tile is
    /// stalled on memory, not doing work, and folding it into service
    /// used to overstate the serialization point.
    pub dram_wait_cycles: u64,
    /// Total simulated cycles of the run (the denominator).
    pub total_cycles: u64,
}

impl ManagerActivity {
    /// Extracts the attribution counters from a finished run.
    pub fn from_stats(stats: &Stats, total_cycles: u64) -> Self {
        ManagerActivity {
            assign_cycles: stats.get("manager.assign_cycles"),
            commit_cycles: stats.get("manager.commit_cycles"),
            service_cycles: stats.get("manager.service_cycles"),
            morph_cycles: stats.get("manager.morph_cycles"),
            dram_wait_cycles: stats.get("manager.dram_wait_cycles"),
            total_cycles,
        }
    }

    /// Total attributed manager-busy cycles (DRAM wait excluded — see
    /// [`ManagerActivity::dram_wait_cycles`]).
    pub fn busy_cycles(&self) -> u64 {
        self.assign_cycles + self.commit_cycles + self.service_cycles + self.morph_cycles
    }

    /// Manager occupancy: attributed busy cycles over total cycles.
    pub fn occupancy(&self) -> f64 {
        self.busy_cycles() as f64 / self.total_cycles.max(1) as f64
    }

    /// The four duties as `(name, cycles)` rows, largest first.
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        let mut rows = vec![
            ("assign", self.assign_cycles),
            ("commit", self.commit_cycles),
            ("service", self.service_cycles),
            ("morph", self.morph_cycles),
        ];
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        rows
    }
}

/// One profiled benchmark run: the host wall-time profile, the
/// simulated manager attribution, and the captured cycle trace (for
/// the merged two-clock Perfetto export).
#[derive(Debug)]
pub struct ProfiledRun {
    /// Benchmark short name.
    pub bench: String,
    /// Scale label (`"test"` / `"large"`).
    pub scale: &'static str,
    /// Simulated cycles (deterministic).
    pub cycles: u64,
    /// Guest instructions retired (deterministic).
    pub guest_insns: u64,
    /// Host wall seconds inside `System::run`.
    pub wall_seconds: f64,
    /// The host wall-clock profile (second clock domain).
    pub profile: ProfileReport,
    /// Manager attribution from the simulated clock domain.
    pub manager: ManagerActivity,
    /// The simulated-cycle trace captured alongside.
    pub tracer: Tracer,
}

/// Runs `bench` at `scale` with profiling AND tracing enabled; returns
/// everything needed for the reports and the merged timeline export.
///
/// # Panics
///
/// Panics if the benchmark is unknown or the guest faults.
pub fn profile_benchmark(bench: &str, scale: Scale, trace_capacity: usize) -> ProfiledRun {
    let w =
        vta_workloads::by_name(bench, scale).unwrap_or_else(|| panic!("unknown benchmark {bench}"));
    let mut sys = System::new(VirtualArchConfig::paper_default(), &w.image);
    sys.enable_tracing(TraceConfig {
        capacity: trace_capacity,
    });
    sys.enable_profiling(ProfConfig::default());
    let started = Instant::now();
    let report = sys
        .run(crate::RUN_BUDGET)
        .unwrap_or_else(|e| panic!("{bench}: {e}"));
    let wall_seconds = started.elapsed().as_secs_f64();
    let profile = sys.take_profile();
    let tracer = sys.take_tracer();
    ProfiledRun {
        bench: bench.to_string(),
        scale: match scale {
            Scale::Test => "test",
            Scale::Small => "small",
            Scale::Large => "large",
        },
        cycles: report.cycles,
        guest_insns: report.guest_insns,
        wall_seconds,
        profile,
        manager: ManagerActivity::from_stats(&report.stats, report.cycles),
        tracer,
    }
}

/// Renders the per-thread top-phases table: for every host thread,
/// its attributed busy time and each phase's **exclusive** wall share
/// of the whole run. Shares are percentages of the profiler's total
/// wall span, so rows compare on one scale across threads.
pub fn top_phases_report(p: &ProfileReport) -> String {
    let mut out = String::new();
    if p.threads.is_empty() {
        let _ = writeln!(out, "host wall profile: no samples (profiling disabled)");
        return out;
    }
    let wall = p.wall_nanos.max(1) as f64;
    let _ = writeln!(
        out,
        "== host wall profile ({:.3}s wall, {} threads) ==",
        p.wall_nanos as f64 / 1e9,
        p.threads.len()
    );
    for t in &p.threads {
        let busy = t.busy_nanos();
        let _ = writeln!(
            out,
            "  {:<16} busy {:>9.3}ms  {:>5.1}% of wall",
            t.name,
            busy as f64 / 1e6,
            busy as f64 * 100.0 / wall
        );
        for ph in &t.phases {
            let _ = writeln!(
                out,
                "    {:<16} {:>9.3}ms  {:>5.1}%  {:>9}x",
                ph.phase,
                ph.nanos as f64 / 1e6,
                ph.nanos as f64 * 100.0 / wall,
                ph.count
            );
        }
        if t.dropped > 0 {
            let _ = writeln!(
                out,
                "    (timeline dropped {} events past capacity; totals are exact)",
                t.dropped
            );
        }
    }
    out
}

/// Renders the manager-duty breakdown (simulated clock domain).
pub fn manager_report(m: &ManagerActivity) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== manager activity (simulated cycles) ==");
    for (name, cycles) in m.rows() {
        let _ = writeln!(
            out,
            "  {:<9} {:>12} cycles  {:>5.1}%",
            name,
            cycles,
            cycles as f64 * 100.0 / m.total_cycles.max(1) as f64
        );
    }
    let _ = writeln!(
        out,
        "  dram_wait {:>12} cycles  {:>5.1}%  (memory stall, not busy)",
        m.dram_wait_cycles,
        m.dram_wait_cycles as f64 * 100.0 / m.total_cycles.max(1) as f64
    );
    let _ = writeln!(
        out,
        "  busy      {:>12} cycles  {:>5.1}% of {} simulated cycles",
        m.busy_cycles(),
        m.occupancy() * 100.0,
        m.total_cycles
    );
    out
}

/// Renders a [`ProfiledRun`] as the `BENCH_profile.json` document.
///
/// The manager section is deterministic; the `wall_seconds` and
/// per-thread nanosecond fields are host-dependent by nature (flagged
/// by `"host_dependent": true`), so the artifact is a trajectory to
/// eyeball, never something CI may diff.
pub fn render_profile_json(r: &ProfiledRun) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"experiment\": \"host_profile\",");
    let _ = writeln!(out, "  \"bench\": \"{}\",", r.bench);
    let _ = writeln!(out, "  \"scale\": \"{}\",", r.scale);
    let _ = writeln!(out, "  \"host_dependent\": true,");
    let _ = writeln!(out, "  \"cycles\": {},", r.cycles);
    let _ = writeln!(out, "  \"guest_insns\": {},", r.guest_insns);
    let _ = writeln!(out, "  \"wall_seconds\": {:.3},", r.wall_seconds);
    let m = &r.manager;
    let _ = writeln!(out, "  \"manager\": {{");
    let _ = writeln!(out, "    \"assign_cycles\": {},", m.assign_cycles);
    let _ = writeln!(out, "    \"commit_cycles\": {},", m.commit_cycles);
    let _ = writeln!(out, "    \"service_cycles\": {},", m.service_cycles);
    let _ = writeln!(out, "    \"morph_cycles\": {},", m.morph_cycles);
    let _ = writeln!(out, "    \"dram_wait_cycles\": {},", m.dram_wait_cycles);
    let _ = writeln!(out, "    \"busy_cycles\": {},", m.busy_cycles());
    let _ = writeln!(out, "    \"occupancy\": {:.4}", m.occupancy());
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"threads\": [");
    for (i, t) in r.profile.threads.iter().enumerate() {
        let comma = if i + 1 == r.profile.threads.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", t.name);
        let _ = writeln!(out, "      \"busy_nanos\": {},", t.busy_nanos());
        let _ = writeln!(out, "      \"dropped_events\": {},", t.dropped);
        let _ = writeln!(out, "      \"phases\": [");
        for (j, ph) in t.phases.iter().enumerate() {
            let pcomma = if j + 1 == t.phases.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "        {{ \"phase\": \"{}\", \"nanos\": {}, \"count\": {} }}{pcomma}",
                ph.phase, ph.nanos, ph.count
            );
        }
        let _ = writeln!(out, "      ]");
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Benchmarks the profiler's own overhead: the four fingerprint
/// benchmarks at `Scale::Test`, run with profiling off and on,
/// interleaved `repeats` times (alternating order so slow host drift
/// hits both sides equally). Returns `(min_off, min_on)` wall seconds
/// — minima, because scheduler noise only ever *adds* time, so the
/// min-of-N pair isolates the instrumentation's real cost where a
/// median would still carry the noise floor.
///
/// The instrumented paths only read the host clock on slow paths
/// (translation, commits, morphs — never per-block dispatch), so the
/// ratio should be within noise of 1.0; ci.sh gates it at 5%.
pub fn profile_overhead(repeats: usize) -> (f64, f64) {
    let suite: Vec<_> = crate::perf::SUPERBLOCK_BENCHES
        .iter()
        .map(|name| vta_workloads::by_name(name, Scale::Test).expect("benchmark exists"))
        .collect();
    let run_once = |profiled: bool| {
        let started = Instant::now();
        for w in &suite {
            let mut sys = System::new(VirtualArchConfig::paper_default(), &w.image);
            if profiled {
                sys.enable_profiling(ProfConfig::default());
            }
            sys.run(crate::RUN_BUDGET).expect("benchmark runs");
            if profiled {
                sys.take_profile();
            }
        }
        started.elapsed().as_secs_f64()
    };
    let mut off = Vec::new();
    let mut on = Vec::new();
    for rep in 0..repeats.max(1) {
        if rep % 2 == 0 {
            off.push(run_once(false));
            on.push(run_once(true));
        } else {
            on.push(run_once(true));
            off.push(run_once(false));
        }
    }
    let min = |v: Vec<f64>| v.into_iter().fold(f64::INFINITY, f64::min);
    (min(off), min(on))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vta_sim::{PhaseTotal, ThreadProfile};

    fn sample_report() -> ProfileReport {
        ProfileReport {
            wall_nanos: 2_000_000,
            threads: vec![
                ThreadProfile {
                    name: "host.worker0".to_string(),
                    phases: vec![
                        PhaseTotal {
                            phase: "host.translate",
                            nanos: 900_000,
                            count: 12,
                        },
                        PhaseTotal {
                            phase: "host.commit",
                            nanos: 100_000,
                            count: 12,
                        },
                    ],
                    events: Vec::new(),
                    dropped: 3,
                },
                ThreadProfile {
                    name: "run".to_string(),
                    phases: vec![PhaseTotal {
                        phase: "run.dispatch",
                        nanos: 1_500_000,
                        count: 400,
                    }],
                    events: Vec::new(),
                    dropped: 0,
                },
            ],
        }
    }

    fn sample_run() -> ProfiledRun {
        let mut stats = Stats::new();
        stats.add("manager.assign_cycles", 300);
        stats.add("manager.commit_cycles", 200);
        stats.add("manager.service_cycles", 400);
        stats.add("manager.morph_cycles", 100);
        stats.add("manager.dram_wait_cycles", 50);
        ProfiledRun {
            bench: "crafty".to_string(),
            scale: "test",
            cycles: 10_000,
            guest_insns: 5_000,
            wall_seconds: 0.002,
            profile: sample_report(),
            manager: ManagerActivity::from_stats(&stats, 10_000),
            tracer: Tracer::disabled(),
        }
    }

    #[test]
    fn manager_activity_math() {
        let m = sample_run().manager;
        assert_eq!(m.assign_cycles, 300);
        assert_eq!(m.busy_cycles(), 1000);
        assert!((m.occupancy() - 0.1).abs() < 1e-9);
        // Rows come out largest-first.
        assert_eq!(m.rows()[0], ("service", 400));
        assert_eq!(m.rows()[3], ("morph", 100));
    }

    #[test]
    fn top_phases_table_mentions_threads_and_shares() {
        let s = top_phases_report(&sample_report());
        assert!(s.contains("host.worker0"), "{s}");
        assert!(s.contains("host.translate"), "{s}");
        // 900µs of a 2ms wall = 45.0%.
        assert!(s.contains("45.0%"), "{s}");
        assert!(s.contains("dropped 3 events"), "{s}");
        // Empty report degrades to a one-line note.
        let empty = top_phases_report(&ProfileReport::default());
        assert!(empty.contains("no samples"), "{empty}");
    }

    #[test]
    fn manager_report_mentions_all_duties() {
        let s = manager_report(&sample_run().manager);
        for duty in ["assign", "commit", "service", "morph", "dram_wait", "busy"] {
            assert!(s.contains(duty), "{duty} missing from {s}");
        }
        // dram_wait (50 cycles here) must NOT count toward busy time.
        assert!(s.contains("10.0% of 10000 simulated cycles"), "{s}");
        assert!(s.contains("memory stall, not busy"), "{s}");
    }

    #[test]
    fn profile_json_is_valid_and_complete() {
        let s = render_profile_json(&sample_run());
        crate::json_lint::check(&s).expect("valid JSON");
        assert!(s.contains("\"experiment\": \"host_profile\""));
        assert!(s.contains("\"host_dependent\": true"));
        assert!(s.contains("\"service_cycles\": 400"));
        assert!(s.contains("\"dram_wait_cycles\": 50"));
        assert!(s.contains("\"occupancy\": 0.1000"));
        assert!(s.contains("\"phase\": \"run.dispatch\""));
        assert!(s.contains("\"dropped_events\": 3"));
    }

    // A real (tiny) profiled run: deterministic fields must match an
    // unprofiled run exactly, and the report must actually contain the
    // coordinator thread.
    #[test]
    fn profiled_run_matches_unprofiled_simulation() {
        let r = profile_benchmark("gzip", Scale::Test, 1024);
        let w = vta_workloads::by_name("gzip", Scale::Test).unwrap();
        let mut plain = System::new(VirtualArchConfig::paper_default(), &w.image);
        let report = plain.run(crate::RUN_BUDGET).expect("gzip runs");
        assert_eq!(r.cycles, report.cycles, "profiling must not change cycles");
        assert_eq!(r.guest_insns, report.guest_insns);
        assert_eq!(
            r.manager,
            ManagerActivity::from_stats(&report.stats, report.cycles),
            "manager attribution is deterministic"
        );
        assert!(
            r.profile.threads.iter().any(|t| t.name == "run"),
            "coordinator thread profile missing"
        );
    }
}
