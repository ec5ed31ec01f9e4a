//! Replays: each layer's public function timed over a corpus the shadow
//! run captured.
//!
//! Calls are timed in batches, never one by one (a clock read costs tens
//! of nanoseconds). `MemSys::access` serves a hit and a miss in one call,
//! so its replay times batches of 64 and takes the two per-call costs
//! from a least-squares fit of batch time on the batch's hit and miss
//! counts.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vta_dbt::codecache::{L15Bank, L1Code, L2Code};
use vta_dbt::memsys::{MemLevel, MemSys};
use vta_dbt::{System, Timing, VirtualArchConfig};
use vta_ir::codegen::codegen;
use vta_ir::lower::{lower_block, MAX_BLOCK_INSNS};
use vta_ir::opt::{dce, flags, valueprop};
use vta_ir::{apply_helper, MBlock, TBlock};
use vta_raw::exec::{run_block, CoreState, DataPort, Fault};
use vta_raw::isa::{HelperKind, MemOp};
use vta_raw::Dram;
use vta_sim::{Cycle, Tracer};
use vta_x86::decode::decode;

use crate::report::median;
use crate::shadow::Capture;

/// Repetitions every replay makes at least; it keeps repeating until
/// [`REPLAY_BUDGET`] is spent.
const MIN_REPS: usize = 3;
/// Host time one replay may spend repeating past [`MIN_REPS`].
const REPLAY_BUDGET: Duration = Duration::from_millis(300);
/// Calls per timed batch in the memory-system and code-cache replays.
const BATCH: usize = 64;

/// A replay's result: the per-unit cost and what it was measured over.
#[derive(Debug, Clone, PartialEq)]
pub struct Timed {
    /// Nanoseconds per unit (median over repetitions).
    pub ns: f64,
    /// Units per repetition.
    pub units: u64,
    /// Repetitions made.
    pub reps: usize,
}

impl Timed {
    /// `what` the replay measured, for the metric's base.
    pub fn base(&self, what: &str) -> String {
        format!("median of {} reps over {} {what}", self.reps, self.units)
    }
}

/// Runs `rep` (which returns `(ns, units)`) at least [`MIN_REPS`] times
/// and until [`REPLAY_BUDGET`] is spent.
fn repeat(mut rep: impl FnMut() -> (u64, u64)) -> Timed {
    let started = Instant::now();
    let mut per_unit = Vec::new();
    let mut units = 0;
    while per_unit.len() < MIN_REPS || started.elapsed() < REPLAY_BUDGET {
        let (ns, n) = rep();
        units = n;
        per_unit.push(ns as f64 / n.max(1) as f64);
    }
    Timed {
        ns: median(&per_unit),
        units,
        reps: per_unit.len(),
    }
}

fn elapsed_ns(started: Instant) -> u64 {
    started.elapsed().as_nanos() as u64
}

/// `vta_x86::decode` over every instruction of every translated block.
pub fn decode_insns(caps: &[Capture]) -> Timed {
    repeat(|| {
        let mut ns = 0;
        let mut n = 0;
        for c in caps {
            let started = Instant::now();
            for &addr in &c.insn_addrs {
                black_box(decode(&c.boot_mem, black_box(addr)).ok());
            }
            ns += elapsed_ns(started);
            n += c.insn_addrs.len() as u64;
        }
        (ns, n)
    })
}

/// `vta_ir::lower::lower_block` over every translated block.
pub fn lower(caps: &[Capture]) -> Timed {
    repeat(|| {
        let mut ns = 0;
        let mut n = 0;
        for c in caps {
            let started = Instant::now();
            for b in &c.blocks {
                black_box(lower_block(&c.boot_mem, black_box(b.guest_addr), MAX_BLOCK_INSNS).ok());
            }
            ns += elapsed_ns(started);
            n += c.blocks.len() as u64;
        }
        (ns, n)
    })
}

/// The pipeline after lowering, one stage at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `vta_ir::opt::flags::eliminate_dead_flags`.
    Flags,
    /// `vta_ir::opt::valueprop::propagate`.
    ValueProp,
    /// `vta_ir::opt::dce::eliminate`.
    Dce,
    /// `vta_ir::codegen::codegen`.
    Codegen,
}

impl Stage {
    /// Pipeline order.
    pub const ORDER: [Stage; 4] = [Stage::Flags, Stage::ValueProp, Stage::Dce, Stage::Codegen];
}

/// One stage over every translated block, fed the previous stages'
/// output (prepared untimed).
pub fn ir_stage(caps: &[Capture], stage: Stage) -> Timed {
    let inputs: Vec<Vec<MBlock>> = caps
        .iter()
        .map(|c| {
            c.lowered
                .iter()
                .map(|b| {
                    let mut b = b.clone();
                    for &s in Stage::ORDER.iter().take_while(|&&s| s != stage) {
                        apply_stage(s, &mut b, c);
                    }
                    b
                })
                .collect()
        })
        .collect();
    repeat(|| {
        let mut ns = 0;
        let mut n = 0;
        for (c, blocks) in caps.iter().zip(&inputs) {
            let mut work = blocks.clone();
            let started = Instant::now();
            for b in &mut work {
                apply_stage(stage, b, c);
            }
            ns += elapsed_ns(started);
            n += work.len() as u64;
            black_box(work);
        }
        (ns, n)
    })
}

fn apply_stage(stage: Stage, b: &mut MBlock, c: &Capture) {
    match stage {
        Stage::Flags => flags::eliminate_dead_flags(b, &c.boot_mem),
        Stage::ValueProp => valueprop::propagate(b),
        Stage::Dce => dce::eliminate(b),
        Stage::Codegen => {
            black_box(codegen(b).ok());
        }
    }
}

/// Replays recorded load values; stores and stalls are dropped, so the
/// replay times `run_block`'s interpretation alone.
struct ReplayPort<'a> {
    loads: &'a [u32],
    next: usize,
}

impl DataPort for ReplayPort<'_> {
    fn load(&mut self, addr: u32, _op: MemOp) -> Result<(u32, u64), Fault> {
        let v = *self.loads.get(self.next).ok_or(Fault::Unmapped { addr })?;
        self.next += 1;
        Ok((v, 0))
    }

    fn store(&mut self, _addr: u32, _value: u32, _op: MemOp) -> Result<u64, Fault> {
        Ok(0)
    }

    fn helper(&mut self, kind: HelperKind, state: &mut CoreState) -> Result<(), Fault> {
        apply_helper(kind, state)
    }
}

/// `vta_raw::exec::run_block` over the captured window, per host
/// instruction retired; also returns how many replayed blocks exited
/// differently from the capture (0 when the replay is faithful).
pub fn run_blocks(caps: &[Capture]) -> (Timed, u64) {
    let mut diverged = 0;
    let timed = repeat(|| {
        let mut ns = 0;
        let mut n = 0;
        diverged = 0;
        for c in caps {
            let mut states: Vec<CoreState> = c.window.iter().map(|e| e.state.clone()).collect();
            let mut exits = Vec::with_capacity(states.len());
            let started = Instant::now();
            for (e, state) in c.window.iter().zip(&mut states) {
                let mut port = ReplayPort {
                    loads: &c.loads[e.load_start as usize..e.load_end as usize],
                    next: 0,
                };
                let code = &c.blocks[e.block as usize].code;
                let out = run_block(state, code, &mut port, u64::MAX);
                n += out.insns;
                exits.push(out.exit);
            }
            ns += elapsed_ns(started);
            diverged += c
                .window
                .iter()
                .zip(&exits)
                .filter(|(e, &x)| e.exit != x)
                .count() as u64;
        }
        (ns, n)
    });
    (timed, diverged)
}

/// Least-squares fit of `ns = a·x + b·y` over `(x, y, ns)` batches.
fn fit(samples: &[(f64, f64, f64)]) -> (f64, f64) {
    let (mut xx, mut xy, mut yy, mut xt, mut yt) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for &(x, y, t) in samples {
        xx += x * x;
        xy += x * y;
        yy += y * y;
        xt += x * t;
        yt += y * t;
    }
    let det = xx * yy - xy * xy;
    if yy == 0.0 || det.abs() < 1e-9 * xx * yy {
        return (if xx == 0.0 { 0.0 } else { xt / xx }, 0.0);
    }
    ((xt * yy - yt * xy) / det, (yt * xx - xt * xy) / det)
}

/// The memory-system replay's result: the fitted cost of an L1 hit and
/// of an access served past the L1.
#[derive(Debug, Clone, PartialEq)]
pub struct Split {
    /// Nanoseconds per L1 hit (median over repetitions).
    pub hit_ns: f64,
    /// Nanoseconds per access served by an L2 bank or DRAM.
    pub miss_ns: f64,
    /// L1 hits per repetition.
    pub hits: u64,
    /// Other accesses per repetition.
    pub misses: u64,
    /// Repetitions made.
    pub reps: usize,
}

/// Runs `rep` (which returns its batches as `(hits, misses, ns)`) like
/// [`repeat`], fitting each repetition separately.
fn repeat_fit(mut rep: impl FnMut() -> Vec<(f64, f64, f64)>) -> Split {
    let started = Instant::now();
    let (mut hit_ns, mut miss_ns) = (Vec::new(), Vec::new());
    let (mut hits, mut misses) = (0.0, 0.0);
    while hit_ns.len() < MIN_REPS || started.elapsed() < REPLAY_BUDGET {
        let batches = rep();
        hits = batches.iter().map(|s| s.0).sum();
        misses = batches.iter().map(|s| s.1).sum();
        let (h, m) = fit(&batches);
        hit_ns.push(h);
        miss_ns.push(m);
    }
    Split {
        hit_ns: median(&hit_ns),
        miss_ns: median(&miss_ns),
        hits: hits as u64,
        misses: misses as u64,
        reps: hit_ns.len(),
    }
}

/// `MemSys::access` over the captured data accesses, split by the level
/// that served each.
pub fn memsys(caps: &[Capture], cfg: &VirtualArchConfig) -> Split {
    let timing = Timing::default();
    let (exec, mmu) = (cfg.placement.exec, cfg.placement.mmu);
    repeat_fit(|| {
        let mut batches = Vec::new();
        for c in caps {
            let mut mem = MemSys::new(&cfg.placement.l2_banks, cfg.l2_bank_bytes);
            let mut dram = Dram::new(timing.dram_latency, timing.dram_word);
            let mut tracer = Tracer::disabled();
            let mut now = Cycle::ZERO;
            for chunk in c.accesses.chunks(BATCH) {
                let mut hits = 0;
                let started = Instant::now();
                for a in chunk {
                    let (stall, level) = mem.access(
                        now,
                        a.addr,
                        a.write,
                        exec,
                        mmu,
                        &mut dram,
                        &timing,
                        &mut tracer,
                    );
                    now += stall + 1;
                    hits += u32::from(level == MemLevel::L1);
                }
                let ns = elapsed_ns(started) as f64;
                let misses = chunk.len() as u32 - hits;
                batches.push((f64::from(hits), f64::from(misses), ns));
            }
        }
        batches
    })
}

/// Times `lookup` over `stream` (block indices) in batches of
/// [`BATCH`]; after each batch its misses are filled, untimed, with
/// `fill`. Returns the timed nanoseconds and the misses in stream order.
fn lookups<C>(
    cache: &mut C,
    stream: &[u32],
    lookup: impl Fn(&mut C, u32) -> bool,
    fill: impl Fn(&mut C, u32),
) -> (u64, Vec<u32>) {
    let mut ns = 0;
    let mut misses = Vec::new();
    let mut batch_misses = Vec::with_capacity(BATCH);
    for chunk in stream.chunks(BATCH) {
        batch_misses.clear();
        let started = Instant::now();
        for &i in chunk {
            if !lookup(cache, black_box(i)) {
                batch_misses.push(i);
            }
        }
        ns += elapsed_ns(started);
        for (k, &i) in batch_misses.iter().enumerate() {
            // A block missing twice in one batch is fetched once.
            if !batch_misses[..k].contains(&i) {
                fill(cache, i);
                misses.push(i);
            }
        }
    }
    (ns, misses)
}

/// A code-cache level's replay: its lookup cost, and the miss stream it
/// hands the next level.
#[derive(Debug, Clone, PartialEq)]
pub struct Level {
    /// The timed lookups.
    pub timed: Timed,
    /// Lookups that missed, per repetition.
    pub misses: u64,
    /// Each capture's miss stream (block indices).
    pub next: Vec<Vec<u32>>,
}

impl Level {
    /// The metric's base.
    pub fn base(&self, what: &str) -> String {
        format!("{}, {} missed", self.timed.base(what), self.misses)
    }
}

/// Replays one code-cache level over per-capture streams: a fresh cache
/// per capture from `new`, timed lookups, untimed fills.
fn level<C>(
    caps: &[Capture],
    streams: &[Vec<u32>],
    new: impl Fn() -> C,
    lookup: impl Fn(&mut C, &TBlock) -> bool,
    fill: impl Fn(&mut C, &Arc<TBlock>),
) -> Level {
    let mut next = Vec::new();
    let timed = repeat(|| {
        next.clear();
        let mut ns = 0;
        let mut n = 0;
        for (c, stream) in caps.iter().zip(streams) {
            let mut cache = new();
            let (t, misses) = lookups(
                &mut cache,
                stream,
                |cache, i| lookup(cache, &c.blocks[i as usize]),
                |cache, i| fill(cache, &c.blocks[i as usize]),
            );
            ns += t;
            n += stream.len() as u64;
            next.push(misses);
        }
        (ns, n)
    });
    let misses = next.iter().map(|m| m.len() as u64).sum();
    Level {
        timed,
        misses,
        next,
    }
}

/// `L1Code::lookup` at every captured block entry.
pub fn l1_lookup(caps: &[Capture], cfg: &VirtualArchConfig) -> Level {
    let streams: Vec<Vec<u32>> = caps.iter().map(|c| c.entries.clone()).collect();
    level(
        caps,
        &streams,
        || L1Code::new(cfg.l1_code_bytes),
        |l1, b| l1.lookup(b.guest_addr).is_some(),
        |l1, b| {
            l1.insert(Arc::clone(b));
        },
    )
}

/// `L15Bank::get` over the L1 miss stream, with blocks spread over the
/// configuration's banks as the simulator spreads them.
pub fn l15_get(caps: &[Capture], l1: &Level, cfg: &VirtualArchConfig) -> Level {
    let banks = cfg.placement.l15_banks.len().max(1);
    let bank = move |addr: u32| (addr as usize >> 2) % banks;
    level(
        caps,
        &l1.next,
        || -> Vec<L15Bank> {
            (0..banks)
                .map(|_| L15Bank::new(cfg.l15_bank_bytes))
                .collect()
        },
        |l15, b| l15[bank(b.guest_addr)].get(b.guest_addr).is_some(),
        |l15, b| l15[bank(b.guest_addr)].insert(Arc::clone(b)),
    )
}

/// `L2Code::get` over the L1.5 miss stream.
pub fn l2_get(caps: &[Capture], l15: &Level, cfg: &VirtualArchConfig) -> Level {
    level(
        caps,
        &l15.next,
        || L2Code::new(cfg.l2_code_bytes),
        |l2, b| l2.get(b.guest_addr).is_some(),
        |l2, b| l2.commit(Arc::clone(b)),
    )
}

/// `System::new` for every cell of a run, as `(config, image)` pairs.
pub fn system_new(cells: &[(&VirtualArchConfig, &vta_x86::GuestImage)]) -> Timed {
    repeat(|| {
        let mut ns = 0;
        let cfgs: Vec<VirtualArchConfig> = cells.iter().map(|&(cfg, _)| cfg.clone()).collect();
        for (cfg, &(_, image)) in cfgs.into_iter().zip(cells) {
            let started = Instant::now();
            let system = System::new(cfg, image);
            ns += elapsed_ns(started);
            drop(black_box(system));
        }
        (ns, cells.len() as u64)
    })
}
