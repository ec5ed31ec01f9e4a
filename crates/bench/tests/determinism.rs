//! Determinism regression: the simulator is a pure function of
//! `(guest image, configuration)`. Two runs must agree bit-for-bit on
//! every simulated number — cycles, instruction counts, and the entire
//! statistics set — and host-side accelerators (the cross-system
//! translation memo) must not perturb any of it.

use std::sync::Arc;

use vta_bench::RUN_BUDGET;
use vta_dbt::{SharedTranslations, System, VirtualArchConfig};
use vta_sim::{MetricsConfig, ProfConfig, TraceConfig};
use vta_workloads::Scale;

/// The tracer is an observer: running with tracing enabled must not
/// change a single simulated number relative to running without it —
/// alone, or together with the metrics recorder and the host profiler
/// on the same `System`.
#[test]
fn tracing_does_not_change_a_single_cycle() {
    let w = vta_workloads::by_name("gzip", Scale::Test).expect("gzip exists");
    let plain = System::new(VirtualArchConfig::paper_default(), &w.image)
        .run(RUN_BUDGET)
        .expect("gzip runs");
    let mut traced_sys = System::new(VirtualArchConfig::paper_default(), &w.image);
    traced_sys.enable_tracing(TraceConfig { capacity: 1 << 14 });
    let traced = traced_sys.run(RUN_BUDGET).expect("gzip runs");
    assert_eq!(plain.cycles, traced.cycles, "cycles must be bit-identical");
    assert_eq!(plain.guest_insns, traced.guest_insns);
    assert_eq!(plain.output, traced.output);
    assert_eq!(plain.stats, traced.stats, "all counters identical");
    let tracer = traced_sys.take_tracer();
    assert!(tracer.is_enabled() && !tracer.is_empty(), "trace captured");
    assert!(tracer.events().count() > 0);

    // All three observers at once: their hooks interleave in the run
    // loop, and none of them may perturb the simulation.
    let mut all_sys = System::new(VirtualArchConfig::paper_default(), &w.image);
    all_sys.enable_tracing(TraceConfig { capacity: 1 << 14 });
    all_sys.enable_metrics(MetricsConfig {
        interval: 1000,
        ..MetricsConfig::default()
    });
    all_sys.enable_profiling(ProfConfig::default());
    let all = all_sys.run(RUN_BUDGET).expect("gzip runs");
    assert_eq!(
        plain.cycles, all.cycles,
        "cycles identical, all observers on"
    );
    assert_eq!(plain.guest_insns, all.guest_insns);
    assert_eq!(plain.output, all.output);
    assert_eq!(
        plain.stats, all.stats,
        "all counters identical, all observers on"
    );
    let tracer = all_sys.take_tracer();
    assert!(
        tracer.events().count() > 0,
        "trace captured alongside metrics"
    );
    let m = all_sys.take_metrics();
    assert!(!m.is_empty(), "series captured alongside tracing");
    m.reconcile_stats(&all.stats)
        .expect("windowed sums telescope to the run totals");
    let profile = all_sys.take_profile();
    assert!(
        profile.threads.iter().any(|t| t.name == "run"),
        "run-loop thread profiled alongside tracing and metrics"
    );
}

/// The metrics recorder is the same kind of observer as the tracer:
/// windowed sampling must not change a single simulated number relative
/// to running without it — at any sampling interval. Mirrors
/// [`tracing_does_not_change_a_single_cycle`].
#[test]
fn metrics_do_not_change_a_single_cycle() {
    let w = vta_workloads::by_name("gzip", Scale::Test).expect("gzip exists");
    let plain = System::new(VirtualArchConfig::paper_default(), &w.image)
        .run(RUN_BUDGET)
        .expect("gzip runs");
    for interval in [1u64, 1000, 10_000] {
        let mut sys = System::new(VirtualArchConfig::paper_default(), &w.image);
        sys.enable_metrics(MetricsConfig {
            interval,
            ..MetricsConfig::default()
        });
        let sampled = sys.run(RUN_BUDGET).expect("gzip runs");
        assert_eq!(plain.cycles, sampled.cycles, "interval {interval}");
        assert_eq!(plain.guest_insns, sampled.guest_insns);
        assert_eq!(plain.output, sampled.output);
        assert_eq!(plain.stats, sampled.stats, "all counters identical");
        assert_eq!(
            plain.stats.fingerprint(),
            sampled.stats.fingerprint(),
            "stats digest identical with metrics on"
        );
        let m = sys.take_metrics();
        assert!(m.is_enabled() && !m.is_empty(), "series captured");
        m.reconcile_stats(&sampled.stats)
            .expect("windowed sums telescope to the run totals");
    }
}

/// The frozen `paper_default` cycle fingerprints in `BENCH_dispatch.json`
/// must match what the tree actually simulates. This is the regression
/// net for the whole observability subsystem (and any other change):
/// simulated behavior cannot drift silently.
#[test]
fn fingerprints_match_checked_in_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dispatch.json");
    let json = std::fs::read_to_string(path).expect("BENCH_dispatch.json exists");
    let expected = vta_bench::perf::parse_fingerprints(&json).expect("parseable fingerprints");
    for fp in &vta_bench::perf::cycle_fingerprint() {
        let want = expected
            .iter()
            .find(|(n, _)| n == fp.name)
            .unwrap_or_else(|| panic!("{} missing from BENCH_dispatch.json", fp.name));
        assert_eq!(
            fp.cycles, want.1,
            "{}: simulated cycles drifted from the checked-in fingerprint",
            fp.name
        );
    }
}

#[test]
fn gzip_runs_are_bit_identical() {
    let w = vta_workloads::by_name("gzip", Scale::Test).expect("gzip exists");
    let run = || {
        System::new(VirtualArchConfig::paper_default(), &w.image)
            .run(RUN_BUDGET)
            .expect("gzip runs")
    };
    let a = run();
    let b = run();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.guest_insns, b.guest_insns);
    assert_eq!(a.exit_code, b.exit_code);
    assert_eq!(a.output, b.output);
    assert_eq!(a.stats, b.stats, "every counter and histogram identical");
}

#[test]
fn shared_translations_preserve_sweep_cell_results() {
    let w = vta_workloads::by_name("gzip", Scale::Test).expect("gzip exists");
    let cfg = VirtualArchConfig::with_translators(4, true);
    let base = System::new(cfg.clone(), &w.image)
        .run(RUN_BUDGET)
        .expect("gzip runs");
    let sh = SharedTranslations::new(cfg.opt);
    // Pass 0 fills the memo; pass 1 runs almost entirely from it.
    for pass in 0..2 {
        let mut sys = System::new(cfg.clone(), &w.image);
        sys.attach_shared(Arc::clone(&sh));
        let r = sys.run(RUN_BUDGET).expect("gzip runs");
        assert_eq!(r.cycles, base.cycles, "pass {pass}");
        assert_eq!(r.guest_insns, base.guest_insns, "pass {pass}");
        assert_eq!(r.stats, base.stats, "pass {pass}");
    }
    assert!(!sh.is_empty(), "memo was populated");
}

#[test]
fn opt_level_mismatch_refuses_shared_memo() {
    let w = vta_workloads::by_name("gzip", Scale::Test).expect("gzip exists");
    let cfg = VirtualArchConfig::paper_default();
    let base = System::new(cfg.clone(), &w.image)
        .run(RUN_BUDGET)
        .expect("gzip runs");
    // A memo at the wrong opt level is silently ignored at attach.
    let sh = SharedTranslations::new(vta_ir::OptLevel::None);
    assert_ne!(cfg.opt, vta_ir::OptLevel::None, "test needs a mismatch");
    let mut sys = System::new(cfg, &w.image);
    sys.attach_shared(Arc::clone(&sh));
    let r = sys.run(RUN_BUDGET).expect("gzip runs");
    assert_eq!(r.cycles, base.cycles);
    assert!(sh.is_empty(), "refused memo must stay untouched");
}
