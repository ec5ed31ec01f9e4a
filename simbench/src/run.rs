//! Set-up, timed passes and the output check on every cell.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use vta_bench::{measure_cell, RUN_BUDGET};
use vta_dbt::{SharedTranslations, StopCause, System};
use vta_ir::OptLevel;
use vta_pentium::PentiumModel;
use vta_sim::{ProfConfig, ProfileReport, Stats};
use vta_x86::GuestImage;

use crate::plan::{Cell, Plan, Workload};

/// What the reference machine says a program does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Exit code of the reference `vta_x86::Cpu` run.
    pub exit_code: u32,
    /// Guest instructions it retired.
    pub guest_insns: u64,
    /// Modelled Pentium III cycles (the slowdown's denominator).
    pub piii_cycles: u64,
}

/// A built program and its reference outcome.
#[derive(Debug, Clone)]
pub struct Program {
    /// Short name (`gzip`, ...).
    pub name: &'static str,
    /// The guest image.
    pub image: GuestImage,
    /// The reference outcome.
    pub expected: Expected,
}

/// Host time one set-up took, split by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTime {
    /// Building every guest image (`vta_workloads`).
    pub build_ns: u64,
    /// Running the Pentium III model on every image (`vta_pentium`).
    pub piii_ns: u64,
    /// Guest instructions the Pentium III model retired.
    pub piii_insns: u64,
}

impl SetupTime {
    /// Total seconds.
    pub fn seconds(&self) -> f64 {
        (self.build_ns + self.piii_ns) as f64 * 1e-9
    }
}

/// Builds every program of `plan` and runs the reference model on it.
///
/// # Errors
///
/// Returns a description of the first program whose reference run does
/// not exit: without a reference there is nothing to check cells against.
pub fn setup(plan: &Plan) -> Result<(Vec<Program>, SetupTime), String> {
    let mut time = SetupTime::default();
    let started = Instant::now();
    let images: Vec<(&'static str, GuestImage)> = plan
        .programs
        .iter()
        .map(|&name| {
            let w = vta_workloads::by_name(name, plan.scale).expect("plan names known programs");
            (name, w.image)
        })
        .collect();
    time.build_ns = started.elapsed().as_nanos() as u64;
    let started = Instant::now();
    let mut programs = Vec::with_capacity(images.len());
    for (name, image) in images {
        let r = PentiumModel::new()
            .run(&image, RUN_BUDGET)
            .map_err(|e| format!("{name}: reference run failed: {e}"))?;
        let exit_code = r
            .exit_code
            .ok_or_else(|| format!("{name}: reference run stopped without exiting"))?;
        time.piii_insns += r.insns;
        programs.push(Program {
            name,
            image,
            expected: Expected {
                exit_code,
                guest_insns: r.insns,
                piii_cycles: r.cycles,
            },
        });
    }
    time.piii_ns = started.elapsed().as_nanos() as u64;
    Ok((programs, time))
}

/// The simulated outcome of one cell: everything the digest covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutcome {
    /// Simulated cycles.
    pub cycles: u64,
    /// Guest instructions retired.
    pub guest_insns: u64,
    /// Exit code, if the guest exited.
    pub exit_code: Option<u32>,
    /// Every counter.
    pub stats: Stats,
}

/// One simulated cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Index into [`Plan::cells`].
    pub cell: usize,
    /// The outcome, or why the cell failed.
    pub outcome: Result<SimOutcome, String>,
    /// Host nanoseconds inside `System::run` (for `measure_cell`, the
    /// time it reports, which also covers `System::new`).
    pub run_ns: u64,
    /// When the cell started.
    pub started: Instant,
    /// When `System::run` started (the cell's start under `measure_cell`).
    pub run_started: Instant,
    /// Host nanoseconds for the whole cell.
    pub cell_ns: u64,
    /// The host profile, on a profiled pass.
    pub profile: Option<ProfileReport>,
}

/// One pass over every cell of a plan.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Cell results in plan order.
    pub cells: Vec<CellResult>,
    /// Host wall seconds of the pass.
    pub wall_s: f64,
    /// Translation memo entries left after the pass (`fig-sweep`; 0
    /// elsewhere).
    pub memo_entries: u64,
}

impl Pass {
    /// Cells that failed to run, stopped early, or mismatched the
    /// reference.
    pub fn failures(&self, plan: &Plan, programs: &[Program]) -> Vec<String> {
        self.cells
            .iter()
            .filter_map(|r| {
                let cell = &plan.cells[r.cell];
                let p = &programs[cell.program];
                let why = match &r.outcome {
                    Err(e) => e.clone(),
                    Ok(o) => check(o, &p.expected)?,
                };
                Some(format!("{}/{}: {why}", p.name, cell.label))
            })
            .collect()
    }

    /// Guest instructions retired over the host seconds spent running
    /// them, in millions per second.
    pub fn guest_mips(&self) -> f64 {
        let insns: u64 = self.ok().map(|(_, o)| o.guest_insns).sum();
        let ns: u64 = self.cells.iter().map(|r| r.run_ns).sum();
        insns as f64 * 1e3 / ns.max(1) as f64
    }

    /// Successful cells with their outcome.
    pub fn ok(&self) -> impl Iterator<Item = (&CellResult, &SimOutcome)> {
        self.cells
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok().map(|o| (r, o)))
    }

    /// Geometric mean of simulated cycles over Pentium III cycles.
    pub fn slowdown_geomean(&self, plan: &Plan, programs: &[Program]) -> f64 {
        let (sum, n) = self.ok().fold((0.0, 0u32), |(sum, n), (r, o)| {
            let piii = programs[plan.cells[r.cell].program].expected.piii_cycles;
            (sum + (o.cycles as f64 / piii as f64).ln(), n + 1)
        });
        (sum / f64::from(n.max(1))).exp()
    }

    /// A hash over every cell's key, cycles, retired count, exit code and
    /// full `Stats`, independent of the order cells ran in.
    pub fn sim_digest(&self, plan: &Plan, programs: &[Program]) -> u64 {
        let mut keyed: Vec<(String, u64)> = self
            .cells
            .iter()
            .map(|r| {
                let cell = &plan.cells[r.cell];
                let key = format!("{}/{}", programs[cell.program].name, cell.label);
                let h = match &r.outcome {
                    Ok(o) => fnv(&[
                        o.cycles,
                        o.guest_insns,
                        o.exit_code.map_or(u64::MAX, u64::from),
                        o.stats.fingerprint(),
                    ]),
                    Err(_) => u64::MAX,
                };
                (key, h)
            })
            .collect();
        keyed.sort();
        let mut words = Vec::with_capacity(keyed.len() * 2);
        for (key, h) in keyed {
            words.push(fnv_bytes(key.as_bytes()));
            words.push(h);
        }
        fnv(&words)
    }
}

/// Why a cell's outcome disagrees with the reference, if it does.
pub fn check(o: &SimOutcome, want: &Expected) -> Option<String> {
    if o.exit_code != Some(want.exit_code) {
        return Some(format!(
            "exit code {:?}, reference {}",
            o.exit_code, want.exit_code
        ));
    }
    if o.guest_insns != want.guest_insns {
        return Some(format!(
            "{} guest insns retired, reference {}",
            o.guest_insns, want.guest_insns
        ));
    }
    None
}

/// How a pass runs its cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// As users run them: `System` directly for serial workloads,
    /// `vta_bench::measure_cell` for the sweep.
    Timed,
    /// Every cell through `System` directly.
    Plain,
    /// Every cell through `System` with the host profiler on.
    Profiled,
}

/// Runs every cell of `plan` once.
pub fn run_pass(plan: &Plan, programs: &[Program], mode: Mode) -> Pass {
    let started = Instant::now();
    // The sweep's per-benchmark accelerators, fresh every pass: one
    // translation memo per (program, opt level, superblock) and one
    // Pentium III baseline per program, computed inside the pass as
    // `vta_bench::sweep` does.
    let sweep = plan.workload == Workload::FigSweep;
    let memos: HashMap<(usize, OptLevel, bool), Arc<SharedTranslations>> = if sweep {
        plan.cells
            .iter()
            .map(|c| {
                (
                    (c.program, c.cfg.opt, c.cfg.superblock),
                    SharedTranslations::with_limits(c.cfg.opt, c.cfg.region_limits()),
                )
            })
            .collect()
    } else {
        HashMap::new()
    };
    let piii: Vec<Option<u64>> = if sweep {
        par_map(plan.threads, programs.len(), |i| {
            PentiumModel::new()
                .run(&programs[i].image, RUN_BUDGET)
                .ok()
                .map(|r| r.cycles)
        })
    } else {
        vec![None; programs.len()]
    };
    let cells = par_map(plan.threads, plan.cells.len(), |i| {
        let cell = &plan.cells[i];
        let memo = memos.get(&(cell.program, cell.cfg.opt, cell.cfg.superblock));
        run_cell(
            i,
            cell,
            &programs[cell.program],
            memo,
            piii[cell.program],
            mode,
        )
    });
    let memo_entries = memos.values().map(|m| m.len() as u64).sum();
    Pass {
        cells,
        wall_s: started.elapsed().as_secs_f64(),
        memo_entries,
    }
}

fn run_cell(
    index: usize,
    cell: &Cell,
    program: &Program,
    memo: Option<&Arc<SharedTranslations>>,
    piii_cycles: Option<u64>,
    mode: Mode,
) -> CellResult {
    let started = Instant::now();
    // Only the sweep shares a memo; it runs through `measure_cell`.
    if mode == Mode::Timed && memo.is_some() {
        // `measure_cell` panics on a fault or an early stop; the panic is
        // this cell's failure, never a reason to drop it.
        let m = catch_unwind(AssertUnwindSafe(|| {
            measure_cell(
                program.name,
                &program.image,
                &cell.label,
                cell.cfg.clone(),
                memo,
                piii_cycles,
            )
        }));
        let (outcome, run_ns) = match m {
            Ok(m) => (
                Ok(SimOutcome {
                    cycles: m.report.cycles,
                    guest_insns: m.report.guest_insns,
                    exit_code: m.report.exit_code,
                    stats: m.report.stats,
                }),
                (m.wall_seconds * 1e9) as u64,
            ),
            Err(panic) => (Err(panic_message(&panic)), 0),
        };
        return CellResult {
            cell: index,
            outcome,
            run_ns,
            started,
            run_started: started,
            cell_ns: started.elapsed().as_nanos() as u64,
            profile: None,
        };
    }
    let mut system = System::new(cell.cfg.clone(), &program.image);
    if let Some(memo) = memo {
        system.attach_shared(Arc::clone(memo));
    }
    if mode == Mode::Profiled {
        system.enable_profiling(ProfConfig::default());
    }
    let run_started = Instant::now();
    let report = system.run(RUN_BUDGET);
    let run_ns = run_started.elapsed().as_nanos() as u64;
    let profile = (mode == Mode::Profiled).then(|| system.take_profile());
    let outcome = match report {
        Ok(r) if r.stop == StopCause::Exit => Ok(SimOutcome {
            cycles: r.cycles,
            guest_insns: r.guest_insns,
            exit_code: r.exit_code,
            stats: r.stats,
        }),
        Ok(r) => Err(format!("stopped early: {:?}", r.stop)),
        Err(e) => Err(e.to_string()),
    };
    CellResult {
        cell: index,
        outcome,
        run_ns,
        started,
        run_started,
        cell_ns: started.elapsed().as_nanos() as u64,
        profile,
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panicked".to_string())
}

/// Runs `f(0..n)` on at most `threads` scoped threads, pulling indices
/// from a shared counter; results come back in index order.
fn par_map<T: Send>(threads: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let mut all: Vec<(usize, T)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.clamp(1, n.max(1)))
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return out;
                        }
                        out.push((i, f(i)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("benchmark worker panicked"))
            .collect()
    });
    all.sort_by_key(|&(i, _)| i);
    all.into_iter().map(|(_, t)| t).collect()
}

/// FNV-1a over 64-bit words.
fn fnv(words: &[u64]) -> u64 {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv_bytes(&bytes)
}

/// FNV-1a over bytes.
fn fnv_bytes(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
