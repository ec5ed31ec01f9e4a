//! Measures host simulator throughput on the Figure 5 sweep at
//! `Scale::Test` and maintains the `BENCH_dispatch.json` trajectory
//! artifact.
//!
//! ```text
//! cargo run --release -p vta-bench --bin perf                  # print only
//! cargo run --release -p vta-bench --bin perf -- --threads 4   # sweep on 4 host threads
//! cargo run --release -p vta-bench --bin perf -- --write       # refresh dispatch JSON
//! cargo run --release -p vta-bench --bin perf -- --check       # verify determinism
//! cargo run --release -p vta-bench --bin perf -- --metrics     # windowed time series
//! cargo run --release -p vta-bench --bin perf -- --superblock  # refresh superblock A/B JSON
//! cargo run --release -p vta-bench --bin perf -- --profile     # host wall-time breakdown
//! ```
//!
//! `--threads N` fans the fig5 sweep's independent cells out over at
//! most N host threads; every simulated number is identical at every
//! N, only the wall clock changes. Each cell is one serial simulation.
//!
//! `--profile [--bench B] [--scale test|small|large]` runs one benchmark
//! (default: crafty at `Scale::Large`) with the host wall-clock span
//! profiler AND the cycle tracer enabled, prints the top-phases table
//! plus the manager-duty breakdown (deterministic `manager.*` cycle
//! counters), and writes `BENCH_profile.json` and a merged two-clock
//! Perfetto timeline `profile_B_trace.json` (simulated-cycle tracks as
//! process 1, host wall tracks as process 2). Combined forms:
//! `--profile --check` reruns the determinism check with profiling
//! enabled inside every fingerprinted system — its stdout must be
//! byte-identical to a plain `--check` (ci.sh diffs it); `--profile
//! --overhead` measures the profiler's own cost on the fingerprint
//! benchmarks and fails if the median run is >5% slower than with
//! profiling off.
//!
//! `--superblock` runs the region-formation A/B matrix (gzip/mcf/crafty/
//! interp × both opt levels × off/static/recorded superblock modes),
//! asserts guest-instruction retirement reconciles across the modes,
//! re-derives the paper-default fingerprints against
//! `BENCH_dispatch.json`, and writes `BENCH_superblock.json`.
//! `--superblock --check` runs only the cell matrix and the retirement
//! reconciliation — no fingerprints, no `Scale::Large` highlights,
//! nothing written — as a fast CI gate.
//!
//! `--metrics [--bench B] [--interval N]` runs one benchmark at
//! `Scale::Test` with the windowed metrics layer on and writes the
//! series as `metrics_B.csv` / `metrics_B.json` plus a Chrome-trace file
//! `metrics_B_trace.json` whose counter tracks open directly in
//! Perfetto; the phase report goes to stdout. `--metrics --check`
//! instead re-derives the committed `BENCH_metrics_vpr.csv` golden
//! (vpr, fixed interval) and diffs byte-for-byte — regenerate with
//! `--metrics --bless` when a simulated-behavior change is intentional.
//!
//! With `--check`, the fingerprints are recomputed and compared against
//! the checked-in `BENCH_dispatch.json` — nothing is rewritten, and any
//! drift exits nonzero.
//!
//! `--threads` and `--interval` take positive integers; a missing,
//! non-numeric or zero value exits 2, as an unknown `--scale` does.

use vta_bench::metrics::{metrics_benchmark, phase_summary, series_csv, series_json};
use vta_bench::perf::{
    cycle_fingerprint, cycle_fingerprint_profiled, parse_fingerprints, render_json,
    render_superblock_json, run_fig5_probe, superblock_cells, superblock_highlights,
    superblock_reconciles, SweepPerf,
};
use vta_bench::profile::{
    manager_report, profile_benchmark, profile_overhead, render_profile_json, top_phases_report,
};
use vta_bench::trace::{chrome_trace_json_two_clock, chrome_trace_json_with_metrics};
use vta_dbt::VirtualArchConfig;
use vta_sim::{MetricsConfig, Tracer};
use vta_workloads::Scale;

/// The Figure 5 `Scale::Test` sweep measured on the pre-optimization
/// tree (string-keyed stats, HashMap block dispatch, no D$ fast path).
/// Frozen here so the speedup denominator survives the tree it measured;
/// best-of-three on the PR-1 development host, so the claimed speedup is
/// conservative.
fn pre_opt_baseline() -> SweepPerf {
    SweepPerf {
        label: "before: string-keyed stats + HashMap dispatch".to_string(),
        wall_seconds: 1.897,
        cpu_seconds: 1.562,
        guest_insns: 2_553_792,
        sim_cycles: 321_345_742,
    }
}

/// Value of a `--flag N` argument, if present.
fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

/// Value of a `--flag N` argument that must be a positive integer:
/// `Ok(None)` when `flag` is absent, an error when its value is
/// missing, not a number, or zero.
fn positive_arg(args: &[String], flag: &str) -> Result<Option<u64>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) => match v.parse::<u64>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(format!("{flag} wants a positive integer, got `{v}`")),
        },
        None => Err(format!("{flag} wants a positive integer, got nothing")),
    }
}

/// Recomputes the fingerprints and diffs them against the checked-in
/// JSON. Returns the process exit code.
///
/// Everything printed to stdout here is independent of `profiled`:
/// ci.sh diffs this output across profiling on/off.
fn check(profiled: bool) -> i32 {
    let json = match std::fs::read_to_string("BENCH_dispatch.json") {
        Ok(j) => j,
        Err(e) => {
            eprintln!("--check: cannot read BENCH_dispatch.json: {e}");
            return 2;
        }
    };
    let expected = match parse_fingerprints(&json) {
        Ok(fp) => fp,
        Err(e) => {
            eprintln!("--check: cannot parse BENCH_dispatch.json: {e}");
            return 2;
        }
    };
    let actual = if profiled {
        cycle_fingerprint_profiled()
    } else {
        cycle_fingerprint()
    };
    let mut bad = false;
    for fp in &actual {
        match expected.iter().find(|(n, _)| n == fp.name) {
            Some((_, want)) if *want == fp.cycles => {
                println!("--check: {}: {} ok", fp.name, fp.cycles);
            }
            Some((_, want)) => {
                eprintln!(
                    "--check: {}: cycles drifted: expected {want}, got {}",
                    fp.name, fp.cycles
                );
                bad = true;
            }
            None => {
                eprintln!("--check: {}: missing from BENCH_dispatch.json", fp.name);
                bad = true;
            }
        }
        // Not compared against the dispatch file (older files predate
        // it); printed so ci.sh can diff the FULL stats state across
        // profiling on/off, not just total cycles.
        println!("--check: {}: stats_fp {:016x}", fp.name, fp.stats_fp);
    }
    if bad {
        eprintln!(
            "--check: simulated behavior drifted; if intentional, refresh with \
             `perf -- --write` and explain the change"
        );
        1
    } else {
        0
    }
}

/// `--superblock` mode: check the paper-default fingerprints against
/// `BENCH_dispatch.json` (see [`check`]), run the region-formation A/B
/// matrix, assert retirement reconciles across modes, and write
/// `BENCH_superblock.json`. With `check_only`
/// the matrix + reconciliation run alone (fast CI gate, no write).
/// Returns the process exit code.
fn superblock_mode(check_only: bool) -> i32 {
    if !check_only {
        let code = check(false);
        if code != 0 {
            return code;
        }
    }
    let cells = superblock_cells();
    for c in &cells {
        println!(
            "--superblock: {:>7} opt={:<4} mode={:<8} cycles {:>12} block-exits/kinsn {:>8.3} \
             inline_hit {:>8} recorded {:>4} wall {:.3}s",
            c.bench,
            c.opt,
            c.mode,
            c.cycles,
            c.block_exits_per_kinsn(),
            c.inline_hit,
            c.sb_recorded,
            c.wall_seconds
        );
    }
    if let Err(e) = superblock_reconciles(&cells) {
        eprintln!("--superblock: guest retirement does not reconcile: {e}");
        return 1;
    }
    println!("--superblock: guest_insns identical across off/static/recorded per bench x opt");
    if check_only {
        return 0;
    }
    let highlights = superblock_highlights();
    for h in &highlights {
        println!(
            "--superblock: large {:>7} cycles {:>12} / {:>12} / {:>12} block-exits/kinsn \
             {:>8.3} / {:>8.3} / {:>8.3} wall {:.3}s / {:.3}s / {:.3}s (off/static/recorded)",
            h.bench,
            h.cycles_off,
            h.cycles_static,
            h.cycles_on,
            h.block_exits_off,
            h.block_exits_static,
            h.block_exits_on,
            h.wall_off,
            h.wall_static,
            h.wall_on
        );
    }
    let json = render_superblock_json(&cells, &highlights, true);
    std::fs::write("BENCH_superblock.json", &json).expect("write BENCH_superblock.json");
    println!("wrote BENCH_superblock.json");
    0
}

/// `--profile` mode: run one benchmark with the host wall profiler and
/// the cycle tracer both on, print the two breakdowns (host wall
/// phases; manager duties in simulated cycles), and write
/// the trajectory JSON plus the merged two-clock Perfetto timeline.
/// Returns the process exit code.
fn profile_mode() -> i32 {
    let bench = arg_value("--bench").unwrap_or_else(|| "crafty".to_string());
    let scale = match arg_value("--scale").as_deref() {
        None | Some("large") => Scale::Large,
        Some("small") => Scale::Small,
        Some("test") => Scale::Test,
        Some(other) => {
            eprintln!("--profile: unknown --scale {other} (want test|small|large)");
            return 2;
        }
    };
    let run = profile_benchmark(&bench, scale, 1 << 16);
    println!(
        "--profile: {} @ Scale::{:?}: {} cycles, {} guest insns, wall {:.3}s",
        run.bench, scale, run.cycles, run.guest_insns, run.wall_seconds
    );
    print!("{}", top_phases_report(&run.profile));
    print!("{}", manager_report(&run.manager));
    let trace_path = format!("profile_{bench}_trace.json");
    for (path, content) in [
        ("BENCH_profile.json".to_string(), render_profile_json(&run)),
        (
            trace_path,
            chrome_trace_json_two_clock(&run.tracer, None, Some(&run.profile)),
        ),
    ] {
        std::fs::write(&path, content).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
    0
}

/// `--profile --overhead`: the profiler must be close to free. Runs
/// the fingerprint benchmarks with profiling off and on (interleaved,
/// min-of-N to shed scheduler noise) and fails if enabling it costs
/// more than 5% wall.
fn overhead_mode() -> i32 {
    let (off, on) = profile_overhead(9);
    let ratio = on / off.max(1e-9);
    println!(
        "--profile --overhead: fingerprint benches min wall {off:.3}s off, {on:.3}s on \
         ({ratio:.3}x)"
    );
    if ratio > 1.05 {
        eprintln!(
            "--profile --overhead: FAIL: profiling costs {:.1}% (> 5% budget)",
            (ratio - 1.0) * 100.0
        );
        1
    } else {
        println!("--profile --overhead: ok (within the 5% budget)");
        0
    }
}

/// The committed metrics golden: benchmark, interval, and file name.
const METRICS_GOLDEN: (&str, u64, &str) = ("vpr", 50_000, "BENCH_metrics_vpr.csv");

/// `--metrics` mode: run one benchmark with windowed sampling on and
/// export/inspect the series, sampling every `interval` cycles (the
/// default interval when `None`). Returns the process exit code.
fn metrics_mode(interval: Option<u64>) -> i32 {
    let check = std::env::args().any(|a| a == "--check");
    let bless = std::env::args().any(|a| a == "--bless");
    if check || bless {
        return metrics_check(bless);
    }
    let bench = arg_value("--bench").unwrap_or_else(|| "vpr".to_string());
    let interval = interval.unwrap_or(MetricsConfig::default().interval);
    let mcfg = MetricsConfig {
        interval,
        ..MetricsConfig::default()
    };
    let (report, m) = metrics_benchmark(
        &bench,
        Scale::Test,
        VirtualArchConfig::paper_default(),
        mcfg,
    );
    if let Err(e) = m.reconcile_stats(&report.stats) {
        eprintln!("--metrics: series does not reconcile with Stats: {e}");
        return 1;
    }
    println!(
        "--metrics: {bench} @ Scale::Test, interval {interval}: {} windows reconcile with \
         end-of-run stats exactly",
        m.len()
    );
    print!("{}", phase_summary(&m, &report));
    for (path, content) in [
        (format!("metrics_{bench}.csv"), series_csv(&m)),
        (format!("metrics_{bench}.json"), series_json(&m)),
        (
            format!("metrics_{bench}_trace.json"),
            chrome_trace_json_with_metrics(&Tracer::disabled(), Some(&m)),
        ),
    ] {
        std::fs::write(&path, content).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
    0
}

/// `--metrics --check` / `--bless`: re-derive the golden series CSV
/// (at the fixed interval) and diff or rewrite it.
fn metrics_check(bless: bool) -> i32 {
    let (bench, interval, path) = METRICS_GOLDEN;
    let (report, m) = metrics_benchmark(
        bench,
        Scale::Test,
        VirtualArchConfig::paper_default(),
        MetricsConfig {
            interval,
            ..MetricsConfig::default()
        },
    );
    if let Err(e) = m.reconcile_stats(&report.stats) {
        eprintln!("--metrics --check: series does not reconcile with Stats: {e}");
        return 1;
    }
    let csv = series_csv(&m);
    if bless {
        std::fs::write(path, &csv).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path} ({} windows)", m.len());
        return 0;
    }
    let golden = match std::fs::read_to_string(path) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("--metrics --check: cannot read {path}: {e}");
            return 2;
        }
    };
    if golden == csv {
        println!(
            "--metrics --check: {bench} series matches {path} ({} windows)",
            m.len()
        );
        return 0;
    }
    let mismatch = golden
        .lines()
        .zip(csv.lines())
        .position(|(a, b)| a != b)
        .map_or_else(
            || {
                format!(
                    "line counts differ ({} vs {})",
                    golden.lines().count(),
                    csv.lines().count()
                )
            },
            |i| format!("first difference at line {}", i + 1),
        );
    eprintln!(
        "--metrics --check: {bench} series drifted from {path}: {mismatch}; if the simulated \
         behavior change is intentional, refresh with `perf -- --metrics --bless`"
    );
    1
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (threads, interval) = match (
        positive_arg(&args, "--threads"),
        positive_arg(&args, "--interval"),
    ) {
        (Ok(threads), Ok(interval)) => (threads.map_or(1, |n| n as usize), interval),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perf: {e}");
            std::process::exit(2);
        }
    };
    if std::env::args().any(|a| a == "--metrics") {
        std::process::exit(metrics_mode(interval));
    }
    if std::env::args().any(|a| a == "--superblock") {
        let check_only = std::env::args().any(|a| a == "--check");
        std::process::exit(superblock_mode(check_only));
    }
    let profiled = std::env::args().any(|a| a == "--profile");
    if profiled && std::env::args().any(|a| a == "--overhead") {
        std::process::exit(overhead_mode());
    }
    if std::env::args().any(|a| a == "--check") {
        std::process::exit(check(profiled));
    }
    if profiled {
        std::process::exit(profile_mode());
    }
    let write = std::env::args().any(|a| a == "--write");
    let (after, _) = run_fig5_probe(
        "after: interned stats + arena dispatch + D$ fast path + shared translations",
        threads,
    );
    println!(
        "fig5 sweep @ Scale::Test ({} host thread{}): wall {:.3}s, serial {:.3}s, {:.1}M guest insns/s, {:.1}M sim cycles/s",
        threads,
        if threads == 1 { "" } else { "s" },
        after.wall_seconds,
        after.cpu_seconds,
        after.guest_insns_per_sec() / 1e6,
        after.sim_cycles_per_sec() / 1e6
    );
    let fp = cycle_fingerprint();
    for f in &fp {
        println!("paper_default cycles {}: {}", f.name, f.cycles);
        println!("paper_default stats_fp {}: {:016x}", f.name, f.stats_fp);
    }
    if write {
        let json = render_json(&pre_opt_baseline(), &after, &fp);
        std::fs::write("BENCH_dispatch.json", &json).expect("write BENCH_dispatch.json");
        println!("wrote BENCH_dispatch.json");
    }
}

#[cfg(test)]
mod tests {
    use super::positive_arg;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn absent_flag_is_none() {
        assert_eq!(
            positive_arg(&args(&["perf", "--check"]), "--threads"),
            Ok(None)
        );
    }

    #[test]
    fn positive_value_parses() {
        let a = args(&["perf", "--threads", "4", "--interval", "500"]);
        assert_eq!(positive_arg(&a, "--threads"), Ok(Some(4)));
        assert_eq!(positive_arg(&a, "--interval"), Ok(Some(500)));
    }

    #[test]
    fn malformed_values_are_rejected() {
        for bad in [
            &["perf", "--threads", "abc"][..],
            &["perf", "--threads", "0"],
            &["perf", "--threads", "-2"],
            &["perf", "--threads"],
        ] {
            let e = positive_arg(&args(bad), "--threads").expect_err("rejected");
            assert!(e.starts_with("--threads wants a positive integer"), "{e}");
        }
        let e = positive_arg(
            &args(&["perf", "--metrics", "--interval", "0"]),
            "--interval",
        );
        assert_eq!(
            e,
            Err("--interval wants a positive integer, got `0`".to_string())
        );
    }
}
