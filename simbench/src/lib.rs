//! # simbench — the vta simulator's benchmark
//!
//! One command runs one workload: set-up, an untimed warm-up pass, timed
//! passes for the requested seconds, and an output check on every cell
//! (`--trace 0`); or the untimed pass, a profiled pass, a shadow capture
//! and per-layer replays (`--trace 1`). `README.md` in this directory
//! explains the workloads and every metric.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod layers;
pub mod plan;
pub mod replay;
pub mod report;
pub mod run;
pub mod shadow;
pub mod spans;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use vta_dbt::VirtualArchConfig;

use vta_workloads::Scale;

use crate::plan::{Plan, Workload};
use crate::report::{median, Metric};
use crate::run::{run_pass, setup, Mode, Pass, Program};
use crate::spans::Spans;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the cell draw and cell order.
    pub seed: u64,
    /// Seconds of timed passes.
    pub seconds: f64,
    /// Problem scale: the workload's own; the tests use `Scale::Test`.
    pub scale: Scale,
}

/// What one invocation measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Cells run, and shadow captures on a traced run.
    pub attempted: u64,
    /// Of those, the ones that failed, stopped early or mismatched the
    /// reference.
    pub failed: u64,
    /// Every failed check, cell or otherwise.
    pub errors: Vec<String>,
    /// The simulated-behaviour digest of the first pass.
    pub sim_digest: u64,
    /// Further lines to print (where the spans went, their self times).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Counts `pass`'s cells, records its failures, and checks its digest
    /// against the first pass's.
    fn absorb(&mut self, what: &str, plan: &Plan, programs: &[Program], pass: &Pass) {
        let failures = pass.failures(plan, programs);
        self.attempted += pass.cells.len() as u64;
        self.failed += failures.len() as u64;
        self.errors
            .extend(failures.into_iter().map(|f| format!("{what}: {f}")));
        let digest = pass.sim_digest(plan, programs);
        if self.sim_digest == 0 {
            self.sim_digest = digest;
        } else if digest != self.sim_digest {
            self.errors.push(format!(
                "{what}: sim_digest {digest:016x} differs from the first pass's {:016x}",
                self.sim_digest
            ));
        }
    }
}

/// Builds the plan and runs set-up [`SETUP_REPS`] times, returning the
/// last set-up's programs and every set-up's time.
///
/// # Errors
///
/// Fails when a reference run does not exit.
pub fn prepare(opts: &Options) -> Result<(Plan, Vec<Program>, Vec<run::SetupTime>), String> {
    let plan = Plan::new(opts.workload, opts.seed, opts.scale);
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut programs = Vec::new();
    for _ in 0..SETUP_REPS {
        let (p, t) = setup(&plan)?;
        programs = p;
        times.push(t);
    }
    Ok((plan, programs, times))
}

/// The end-to-end run (`--trace 0`).
///
/// # Errors
///
/// Fails when set-up fails.
pub fn end_to_end(opts: &Options) -> Result<Outcome, String> {
    let plan = Plan::new(opts.workload, opts.seed, opts.scale);
    let (programs, first) = setup(&plan)?;
    let mut setups = vec![first];
    let mut out = Outcome::default();
    out.notes.push(plan.describe());
    let warm = run_pass(&plan, &programs, Mode::Timed);
    out.absorb("warm-up pass", &plan, &programs, &warm);
    // The remaining set-ups run at even intervals among the timed
    // passes: host speed drifts over seconds, and set-ups run back to
    // back would sample one moment of it where the passes sample the
    // whole window.
    let mut passes = Vec::new();
    let started = Instant::now();
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        if setups.len() < SETUP_REPS
            && elapsed >= opts.seconds * setups.len() as f64 / SETUP_REPS as f64
        {
            let (again, t) = setup(&plan)?;
            for (p, q) in programs.iter().zip(&again) {
                if p.expected != q.expected {
                    out.errors.push(format!(
                        "set-up {}: {}'s reference outcome changed from {:?} to {:?}",
                        setups.len() + 1,
                        p.name,
                        p.expected,
                        q.expected
                    ));
                }
            }
            setups.push(t);
        } else if passes.is_empty() || elapsed < opts.seconds {
            let pass = run_pass(&plan, &programs, Mode::Timed);
            out.absorb("timed pass", &plan, &programs, &pass);
            passes.push(pass);
        } else {
            break;
        }
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let mips: Vec<f64> = passes.iter().map(Pass::guest_mips).collect();
    let setup_s: Vec<f64> = setups.iter().map(run::SetupTime::seconds).collect();
    out.metrics = vec![
        Metric::new(
            "wall_s",
            median(&walls),
            "s",
            "host",
            format!(
                "median pass over {} cells; {}",
                plan.cells.len(),
                report::summary(&walls)
            ),
        ),
        Metric::new(
            "guest_mips",
            median(&mips),
            "Minsn/s",
            "host",
            format!(
                "median pass; guest insns / host s in System::run; {}",
                report::summary(&mips)
            ),
        ),
        Metric::new(
            "setup_s",
            median(&setup_s),
            "s",
            "host",
            format!(
                "median of {SETUP_REPS} set-ups of {} programs",
                programs.len()
            ),
        ),
        Metric::new(
            "peak_rss_mb",
            report::peak_rss_mb().unwrap_or(0.0),
            "MB",
            "host",
            "VmHWM of this process",
        ),
        Metric::new(
            "sim_slowdown_geomean",
            warm.slowdown_geomean(&plan, &programs),
            "x",
            "sim",
            format!(
                "geomean over {} cells of DBT cycles / PIII cycles",
                plan.cells.len()
            ),
        ),
        Metric::new(
            "cell_fail_rate",
            out.failed as f64 / out.attempted.max(1) as f64,
            "ratio",
            "count",
            format!("{} failed / {} attempted", out.failed, out.attempted),
        ),
    ];
    Ok(out)
}

/// Sums counter `name` over a pass's successful cells.
fn total(pass: &Pass, name: &str) -> f64 {
    pass.ok().map(|(_, o)| o.stats.get(name) as f64).sum()
}

/// Sums the run thread's exclusive nanoseconds and entry count in
/// `phase` over a profiled pass.
fn phase(pass: &Pass, phase: &str) -> (f64, f64) {
    pass.cells
        .iter()
        .filter_map(|r| r.profile.as_ref())
        .flat_map(|p| &p.threads)
        .filter(|t| t.name == "run")
        .flat_map(|t| &t.phases)
        .filter(|p| p.phase == phase)
        .fold((0.0, 0.0), |(ns, n), p| {
            (ns + p.nanos as f64, n + p.count as f64)
        })
}

/// Records a span per cell of `pass`, with a `system.run` child.
fn cell_spans(spans: &mut Spans, pass: &Pass, parent: usize) {
    for r in &pass.cells {
        let end = r.started + Duration::from_nanos(r.cell_ns);
        let cell = spans.add("cell", r.started, end, Some(parent), Some(r.cell));
        let run_end = r.run_started + Duration::from_nanos(r.run_ns);
        spans.add(
            "system.run",
            r.run_started,
            run_end,
            Some(cell),
            Some(r.cell),
        );
    }
}

/// Where the traced run writes its spans.
fn spans_path(opts: &Options) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{}.json", opts.workload.name(), opts.seed))
}

/// The traced run (`--trace 1`): an untraced pass, a profiled pass, a
/// shadow capture of every program, and the per-layer replays.
///
/// # Errors
///
/// Fails when set-up fails.
pub fn traced(opts: &Options) -> Result<Outcome, String> {
    let mut spans = Spans::new();
    let (prepared, _) = spans.time("setup", || prepare(opts));
    let (plan, programs, setups) = prepared?;
    let mut out = Outcome::default();
    out.notes.push(plan.describe());

    // Host caches warm up on an untimed pass first, as in `--trace 0`.
    let (warm, id) = spans.time("pass.warm-up", || run_pass(&plan, &programs, Mode::Plain));
    cell_spans(&mut spans, &warm, id);
    out.absorb("warm-up pass", &plan, &programs, &warm);
    let (base, id) = spans.time("pass.untraced", || run_pass(&plan, &programs, Mode::Plain));
    cell_spans(&mut spans, &base, id);
    out.absorb("untraced pass", &plan, &programs, &base);
    let (prof, id) = spans.time("pass.profiled", || {
        run_pass(&plan, &programs, Mode::Profiled)
    });
    cell_spans(&mut spans, &prof, id);
    out.absorb("profiled pass", &plan, &programs, &prof);

    // The shadow run walks every program under the paper's default
    // configuration: its opt level and L1 code-cache size.
    let cfg = VirtualArchConfig::paper_default();
    let mut caps = Vec::with_capacity(programs.len());
    for p in &programs {
        let (cap, _) = spans.time(format!("shadow.capture {}", p.name), || {
            shadow::capture(&p.image, &cfg, p.expected.guest_insns)
        });
        out.attempted += 1;
        let failure = match &cap {
            Ok(c) => c.check(p.expected.exit_code, p.expected.guest_insns),
            Err(e) => Some(e.clone()),
        };
        if let Some(why) = failure {
            out.failed += 1;
            out.errors
                .push(format!("shadow capture: {}: {why}", p.name));
        }
        if let Ok(c) = cap {
            caps.push(c);
        }
    }

    let sp = &mut spans;
    let (run_block, diverged) = replayed(sp, "raw.run_block", || replay::run_blocks(&caps));
    let l1 = replayed(sp, "codecache.l1", || replay::l1_lookup(&caps, &cfg));
    let l15 = replayed(sp, "codecache.l15", || replay::l15_get(&caps, &l1, &cfg));
    let l2 = replayed(sp, "codecache.l2", || replay::l2_get(&caps, &l15, &cfg));
    let r = Replays {
        decode: replayed(sp, "x86.decode", || replay::decode_insns(&caps)),
        lower: replayed(sp, "ir.lower", || replay::lower(&caps)),
        stages: replay::Stage::ORDER.map(|stage| {
            replayed(sp, &format!("ir.{stage:?}"), || {
                replay::ir_stage(&caps, stage)
            })
        }),
        run_block,
        memsys: replayed(sp, "memsys", || replay::memsys(&caps, &cfg)),
        l1,
        l15,
        l2,
        system_new: replayed(sp, "system.new", || {
            let cells: Vec<_> = plan
                .cells
                .iter()
                .map(|c| (&c.cfg, &programs[c.program].image))
                .collect();
            replay::system_new(&cells)
        }),
    };
    if diverged > 0 {
        out.errors.push(format!(
            "run_block replay: {diverged} blocks exited differently from the capture"
        ));
    }
    out.metrics = layer_metrics(&plan, &programs, &setups, &base, &prof, &caps, &r);

    let path = spans_path(opts);
    let written = std::fs::create_dir_all(path.parent().expect("has a parent"))
        .and_then(|()| std::fs::write(&path, spans.to_chrome_json()));
    out.notes.push(match written {
        Ok(()) => format!(
            "spans {} written to {}",
            spans.spans().len(),
            path.display()
        ),
        Err(e) => format!("spans not written to {}: {e}", path.display()),
    });
    for (name, ns) in spans.self_times() {
        out.notes
            .push(format!("span {name} self_ms = {:.3}", ns as f64 / 1e6));
    }
    Ok(out)
}

/// Runs one replay inside a `replay.<name>` span.
fn replayed<T>(spans: &mut Spans, name: &str, f: impl FnOnce() -> T) -> T {
    spans.time(format!("replay.{name}"), f).0
}

/// Every replay's result.
#[derive(Debug)]
struct Replays {
    decode: replay::Timed,
    lower: replay::Timed,
    stages: [replay::Timed; 4],
    run_block: replay::Timed,
    memsys: replay::Split,
    l1: replay::Level,
    l15: replay::Level,
    l2: replay::Level,
    system_new: replay::Timed,
}

/// The per-layer metrics, in [`layers::PER_LAYER`] order.
fn layer_metrics(
    plan: &Plan,
    programs: &[Program],
    setups: &[run::SetupTime],
    base: &Pass,
    prof: &Pass,
    caps: &[shadow::Capture],
    r: &Replays,
) -> Vec<Metric> {
    let t = |name: &str| total(prof, name);
    let kinsn = t("guest_insns") / 1e3;
    let ns_metric = |name, timed: &replay::Timed, what| {
        Metric::new(name, timed.ns, "ns", "host", timed.base(what))
    };
    let per_kinsn = |name, num: f64, what: &str| {
        Metric::new(
            name,
            num / kinsn.max(1e-9),
            "1/kinsn",
            "sim",
            format!("{num} {what} / {kinsn} kinsn"),
        )
    };
    let Replays {
        decode,
        lower,
        stages,
        run_block,
        memsys,
        l1,
        l15,
        l2,
        system_new,
    } = r;
    let memsys_base = format!(
        "least-squares fit, median of {} reps over {} L1 hits and {} misses",
        memsys.reps, memsys.hits, memsys.misses
    );
    let stage_names = [
        "ir.opt_flags_ns_per_block",
        "ir.opt_valueprop_ns_per_block",
        "ir.opt_dce_ns_per_block",
        "ir.codegen_ns_per_block",
    ];

    let (dispatch_ns, dispatch_n) = phase(prof, "run.dispatch");
    let (translate_ns, _) = phase(prof, "run.translate");
    let (commit_ns, _) = phase(prof, "run.commit");
    let (morph_ns, _) = phase(prof, "run.morph");
    let prof_run_ns: f64 = prof.cells.iter().map(|c| c.run_ns as f64).sum();
    let base_run_ns: f64 = base.cells.iter().map(|c| c.run_ns as f64).sum();
    let profiled_ns = dispatch_ns + translate_ns + commit_ns + morph_ns;
    let dropped: u64 = prof
        .cells
        .iter()
        .filter_map(|c| c.profile.as_ref())
        .flat_map(|p| &p.threads)
        .map(|t| t.dropped)
        .sum();
    let manager = ["service", "dram_wait", "commit", "assign", "morph"]
        .map(|d| t(&format!("manager.{d}_cycles")))
        .iter()
        .sum::<f64>();
    // A capture's distinct blocks count once per cell of its program.
    let distinct: f64 = plan
        .cells
        .iter()
        .filter_map(|c| caps.get(c.program))
        .map(|c| c.blocks.len() as f64)
        .sum();
    let piii: Vec<f64> = setups
        .iter()
        .map(|s| s.piii_ns as f64 / s.piii_insns.max(1) as f64)
        .collect();
    let build: Vec<f64> = setups.iter().map(|s| s.build_ns as f64 / 1e6).collect();
    let cell_ns: f64 = base.cells.iter().map(|c| c.cell_ns as f64).sum();

    let mut v = vec![
        ns_metric("x86.decode_ns_per_insn", decode, "insns"),
        ns_metric("ir.lower_ns_per_block", lower, "blocks"),
    ];
    for (name, timed) in stage_names.into_iter().zip(stages) {
        v.push(ns_metric(name, timed, "blocks"));
    }
    v.extend([
        Metric::ratio(
            "ir.host_insns_per_guest_insn",
            "sim",
            t("host_insns"),
            t("guest_insns"),
        ),
        ns_metric("raw.run_block_ns_per_rinsn", run_block, "host insns"),
        Metric::new("memsys.hit_ns", memsys.hit_ns, "ns", "host", &memsys_base),
        Metric::new("memsys.miss_ns", memsys.miss_ns, "ns", "host", memsys_base),
        Metric::ratio(
            "memsys.l1_hit_ratio",
            "sim",
            t("mem.l1_hit"),
            t("mem.l1_hit") + t("mem.l2_hit") + t("mem.dram"),
        ),
        per_kinsn("memsys.dram_per_kinsn", t("mem.dram"), "DRAM accesses"),
        Metric::ratio(
            "memsys.stall_share",
            "sim",
            t("exec.stall_cycles"),
            t("cycles"),
        ),
        Metric::new(
            "codecache.l1_lookup_ns",
            l1.timed.ns,
            "ns",
            "host",
            l1.base("lookups"),
        ),
        Metric::new(
            "codecache.l15_get_ns",
            l15.timed.ns,
            "ns",
            "host",
            l15.base("gets"),
        ),
        Metric::new(
            "codecache.l2_get_ns",
            l2.timed.ns,
            "ns",
            "host",
            l2.base("gets"),
        ),
        Metric::ratio(
            "codecache.l1_hit_ratio",
            "sim",
            t("l1code.hit"),
            t("l1code.hit") + t("l1code.miss"),
        ),
        Metric::ratio(
            "codecache.l15_hit_ratio",
            "sim",
            t("l15.hit"),
            t("l15.hit") + t("l15.miss"),
        ),
        Metric::ratio(
            "codecache.l2_miss_ratio",
            "sim",
            t("l2code.miss"),
            t("l2code.access"),
        ),
        Metric::new(
            "codecache.l1_flushes",
            t("l1code.flushes"),
            "count",
            "sim",
            format!("sum over {} cells", prof.cells.len()),
        ),
        Metric::new(
            "system.dispatch_ns_per_call",
            dispatch_ns / dispatch_n.max(1.0),
            "ns",
            "host",
            format!("{dispatch_ns} ns self time in run.dispatch / {dispatch_n} calls"),
        ),
        Metric::new(
            "system.translate_ms",
            translate_ns / 1e6,
            "ms",
            "host",
            "run.translate self time, summed over cells",
        ),
        Metric::new(
            "system.commit_ms",
            commit_ns / 1e6,
            "ms",
            "host",
            "run.commit self time, summed over cells",
        ),
        per_kinsn(
            "system.dispatch_miss_per_kinsn",
            t("dispatch.direct_miss") + t("dispatch.indirect"),
            "unchained exits",
        ),
        Metric::ratio(
            "system.unprofiled_share",
            "host",
            prof_run_ns - profiled_ns,
            prof_run_ns,
        ),
        Metric::ratio(
            "system.chain_ratio",
            "sim",
            t("chain.taken"),
            t("exec.blocks"),
        ),
        Metric::ratio(
            "system.inline_hit_ratio",
            "sim",
            t("dispatch.inline_hit"),
            t("dispatch.inline_hit") + t("dispatch.indirect"),
        ),
        Metric::ratio(
            "system.superblock_side_exit_ratio",
            "sim",
            t("superblock.side_exits"),
            t("superblock.entries"),
        ),
        Metric::new(
            "system.new_ms",
            system_new.ns / 1e6,
            "ms",
            "host",
            system_new.base("System::new calls"),
        ),
        Metric::ratio("manager.occupancy", "sim", manager, t("cycles")),
        Metric::ratio(
            "manager.dram_wait_share",
            "sim",
            t("manager.dram_wait_cycles"),
            manager,
        ),
        Metric::new(
            "slave.cycles_per_block",
            t("translate.busy_cycles") / t("translate.blocks").max(1.0),
            "cycles",
            "sim",
            format!(
                "{} busy cycles / {} blocks",
                t("translate.busy_cycles"),
                t("translate.blocks")
            ),
        ),
        // The capture walks single blocks under `paper_default`, while
        // `translate.blocks` also counts region translations under each
        // cell's own configuration, so the ratio is not bounded by 1.
        Metric::new(
            "slave.useful_ratio",
            distinct / t("translate.blocks").max(1.0),
            "ratio",
            "count",
            format!(
                "{distinct} distinct single blocks the paper_default capture executed / {} translations (single-block or region)",
                t("translate.blocks")
            ),
        ),
        Metric::new(
            "morph.reconfigs",
            t("morph.reconfigs"),
            "count",
            "sim",
            format!("sum over {} cells", prof.cells.len()),
        ),
        if base.memo_entries == 0 {
            Metric::new(
                "shared.reuse_ratio",
                0.0,
                "ratio",
                "count",
                "no shared memo",
            )
        } else {
            let blocks = total(base, "translate.blocks");
            let entries = base.memo_entries as f64;
            Metric::new(
                "shared.reuse_ratio",
                1.0 - entries / blocks.max(1.0),
                "ratio",
                "count",
                format!("1 - {entries} memo entries / {blocks} blocks"),
            )
        },
        Metric::new(
            "pentium.ns_per_insn",
            median(&piii),
            "ns",
            "host",
            format!(
                "median of {} set-ups over {} programs",
                setups.len(),
                programs.len()
            ),
        ),
        Metric::new(
            "workloads.build_ms",
            median(&build),
            "ms",
            "host",
            format!(
                "median of {} set-ups over {} programs",
                setups.len(),
                programs.len()
            ),
        ),
        Metric::ratio(
            "sweep.worker_busy_share",
            "host",
            cell_ns,
            plan.threads as f64 * base.wall_s * 1e9,
        ),
        Metric::ratio("trace.overhead_ratio", "host", prof_run_ns, base_run_ns),
        Metric::new(
            "trace.dropped_events",
            dropped as f64,
            "count",
            "host",
            "profiler timeline events dropped, summed over cells",
        ),
    ]);
    v
}
