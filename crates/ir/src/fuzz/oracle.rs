//! The three-way differential oracle.
//!
//! Every case is executed on the reference interpreter ([`vta_x86::Cpu`])
//! and on the translated path ([`translate_region`] + [`run_block`]) at
//! both [`OptLevel::None`] and [`OptLevel::Full`], then the architectural
//! outcomes are compared channel by channel:
//!
//! * **stop reason** — exit code, halt, or the fault kind (always);
//! * **registers** — all eight GPRs (skipped on faults: the reference
//!   stops mid-instruction while translated code stops at block
//!   granularity, so intermediate register state is not comparable);
//! * **memory** — every mapped page, byte for byte (same fault caveat);
//! * **syscall output** — the full `write` byte stream (always).
//!
//! Flags are deliberately *not* read out of the packed flags register:
//! dead-flag elimination makes unobserved flag bits unrepresentative on
//! the translated side. Generators instead materialise the flags they
//! care about with `setcc`, which lands them in the compared registers.
//!
//! Resource exhaustion on either side ([`Outcome::Limit`]) yields
//! [`Verdict::Skip`], never a divergence: the two paths meter work in
//! different units (instructions vs fuel/blocks), so a case that runs out
//! on one side may legitimately finish on the other. The same policy
//! covers [`CodegenError`](crate::translate::TranslateError::Codegen)
//! (register-pressure spills are a capacity limit, not a semantics bug).
//!
//! Same-block self-modifying code is also skipped, and detected
//! *precisely* rather than guessed at: every block is translated through
//! a [`RecordingSource`], and every store the block performs is
//! checked against that recorded read footprint by *address*
//! ([`ReadSet::covers`](crate::translate::ReadSet::covers)). A hit means
//! the block's own stores overwrote bytes its translation had read,
//! which a block DBT cannot coherently execute by construction
//! ([`Outcome::OutOfContract`]). Address membership, not value
//! revalidation, is required here: a dirtied byte can cycle back to its
//! translated value by block end (ABA) after the reference already
//! branched on an intermediate value. Cross-block SMC stays fully
//! compared: the oracle retranslates every block on entry, so patches
//! landed by *earlier* blocks are always seen.
//!
//! Translation uses [`translate_region`] under
//! [`RegionLimits::for_opt`], so `OptLevel::Full` runs exercise the same
//! superblock regions the DBT executes. A third translated run
//! ([`run_translated_recorded`]) replays the DBT's runtime path
//! recording protocol — single-block execution arms and records loop
//! roots, then [`translate_region_along`] builds regions along the
//! recorded paths — so recorded-shape regions (including the ones whose
//! guards side-exit mid-region) are differentially checked too. Stores into a *later, not yet
//! executed* member of the current region are back in contract: the
//! `SmcGuard` at each member boundary exits to the next member's entry
//! before any stale byte runs, and the oracle retranslates from there
//! against the patched bytes. Only when the dirtied bytes belong to an
//! already-decoded portion — the entry member itself, a member the exit
//! does not precede, or footprint bytes outside every member range (the
//! successor flag-liveness scan) — is the case out of contract.

use std::collections::{HashMap, HashSet};

use crate::apply_helper;
use crate::fuzz::Case;
use crate::translate::{
    translate_region, translate_region_along, OptLevel, RecordingSource, RegionLimits,
    TranslateError,
};
use crate::TBlock;
use vta_raw::exec::{run_block, BlockExit, CoreState, DataPort, Fault};
use vta_raw::isa::{HelperKind, MemOp, RReg};
use vta_x86::{Cpu, CpuError, GuestMem, StopReason, SysState, SyscallResult, PAGE_SIZE};

/// Instruction budget for the reference interpreter.
const REF_INSN_LIMIT: u64 = 2_000_000;
/// Fuel budget for a single translated block execution.
const BLOCK_FUEL: u64 = 4_000_000;
/// Maximum number of translated block executions per case.
const BLOCK_BUDGET: u32 = 400_000;

/// How a run finished, in comparable (side-neutral) terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The guest called `exit` with this code.
    Exit(u32),
    /// The guest executed `hlt`.
    Halt,
    /// The guest faulted.
    Fault(FaultKind),
    /// The run exhausted its resource budget (insn limit, fuel, block
    /// budget, or a codegen capacity error). Never compared — see
    /// [`Verdict::Skip`].
    Limit,
    /// A translated block's own execution overwrote bytes its
    /// translation had read (same-block self-modifying code). A block
    /// DBT decodes a whole block before running any of it, while the
    /// reference decodes instruction by instruction, so this pattern is
    /// outside the coherence contract — the case is skipped, never
    /// compared. (Cross-block SMC *is* in contract and is compared: the
    /// oracle retranslates every block fresh.)
    OutOfContract,
}

/// A guest fault, normalised so the reference and translated encodings
/// compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Instruction fetch/decode failed (undecodable bytes or an unmapped
    /// fetch). The faulting address is *not* part of the comparison: the
    /// reference reports the failing instruction start while the
    /// translated side may report the byte that broke a longer decode.
    Undecodable,
    /// A data access touched an unmapped page at this address.
    Unmapped {
        /// The faulting data address (identical on both sides: every
        /// layer faults on the first unmapped byte).
        addr: u32,
    },
    /// Divide by zero or quotient overflow.
    Divide,
    /// `int` with a vector the platform does not implement.
    BadInterrupt {
        /// The unsupported vector.
        vector: u8,
    },
}

/// Which comparison channel diverged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    /// Stop reason (exit code / halt / fault kind).
    Stop,
    /// Final general-purpose register values.
    Regs,
    /// Final guest memory contents.
    Memory,
    /// Syscall output byte stream.
    Output,
}

/// A confirmed disagreement between the reference and the translated run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Optimization level of the diverging translated run.
    pub opt: OptLevel,
    /// The first channel that differed.
    pub channel: Channel,
    /// Human-readable detail (both sides' values).
    pub detail: String,
}

/// The oracle's judgement on one case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Both translated runs matched the reference on every channel.
    Pass,
    /// The case hit a resource limit on some side and is not comparable.
    Skip(&'static str),
    /// The translated path disagreed with the reference.
    Diverge(Divergence),
}

impl Verdict {
    /// True for [`Verdict::Diverge`].
    pub fn is_divergence(&self) -> bool {
        matches!(self, Verdict::Diverge(_))
    }
}

/// Final architectural state of one run.
struct RunResult {
    outcome: Outcome,
    regs: [u32; 8],
    mem: GuestMem,
    output: Vec<u8>,
}

struct OraclePort<'a> {
    mem: &'a mut GuestMem,
    /// Read footprint of the currently-executing region's translation.
    reads: &'a crate::translate::ReadSet,
    /// Byte addresses of every store that landed inside that footprint:
    /// the region may be executing stale code. Tracked by store address,
    /// not value, so a byte that cycles back to its translated value
    /// mid-block (ABA) is still caught. Whether a hit is actually out of
    /// contract depends on *which member* the dirty bytes belong to —
    /// see the coherence check after `run_block`.
    dirty: Vec<u32>,
}

impl DataPort for OraclePort<'_> {
    fn load(&mut self, addr: u32, op: MemOp) -> Result<(u32, u64), Fault> {
        self.mem
            .read_sized(addr, op.bytes())
            .map(|v| (v, 0))
            .map_err(|e| Fault::Unmapped { addr: e.addr })
    }

    fn store(&mut self, addr: u32, value: u32, op: MemOp) -> Result<u64, Fault> {
        for i in 0..op.bytes() {
            let a = addr.wrapping_add(i);
            if self.reads.covers(a) {
                self.dirty.push(a);
            }
        }
        self.mem
            .write_sized(addr, value, op.bytes())
            .map(|_| 0)
            .map_err(|e| Fault::Unmapped { addr: e.addr })
    }

    fn helper(&mut self, kind: HelperKind, state: &mut CoreState) -> Result<(), Fault> {
        apply_helper(kind, state)
    }

    /// Polled by `RInsn::SmcGuard` at superblock member boundaries: a
    /// pending footprint hit makes the guard exit to the next member's
    /// entry instead of running possibly-stale bytes.
    fn smc_pending(&self) -> bool {
        !self.dirty.is_empty()
    }
}

fn fault_kind(f: Fault) -> Outcome {
    match f {
        Fault::Unmapped { addr } => Outcome::Fault(FaultKind::Unmapped { addr }),
        Fault::DivZero => Outcome::Fault(FaultKind::Divide),
        Fault::BadInterrupt { vector } => Outcome::Fault(FaultKind::BadInterrupt { vector }),
        Fault::Undecodable { .. } => Outcome::Fault(FaultKind::Undecodable),
        Fault::FuelExhausted => Outcome::Limit,
    }
}

/// Runs a case on the reference interpreter.
fn run_reference(case: &Case) -> RunResult {
    let image = case.image();
    let mut cpu = Cpu::new(&image);
    let outcome = match cpu.run(REF_INSN_LIMIT) {
        Ok(StopReason::Exit(c)) => Outcome::Exit(c),
        Ok(StopReason::Halt) => Outcome::Halt,
        Ok(StopReason::InsnLimit) => Outcome::Limit,
        Err(CpuError::Decode(_)) => Outcome::Fault(FaultKind::Undecodable),
        Err(CpuError::Unmapped { addr, .. }) => Outcome::Fault(FaultKind::Unmapped { addr }),
        Err(CpuError::DivideError { .. }) => Outcome::Fault(FaultKind::Divide),
        Err(CpuError::BadInterrupt { vector, .. }) => {
            Outcome::Fault(FaultKind::BadInterrupt { vector })
        }
    };
    RunResult {
        outcome,
        regs: cpu.regs,
        mem: cpu.mem,
        output: cpu.sys.output,
    }
}

/// Runs a case through translate + execute at one optimization level.
///
/// Blocks are re-translated on every entry (no translation cache): the
/// oracle must stay coherent with self-modifying code, and divergence
/// hunting values correctness over speed.
fn run_translated(case: &Case, opt: OptLevel) -> RunResult {
    let image = case.image();
    let mut mem = image.build_mem();
    let mut sys = SysState::new(image.brk_base);
    sys.set_input(image.input.clone());

    let limits = RegionLimits::for_opt(opt);
    let mut state = CoreState::new();
    state.set(RReg(5), image.initial_esp()); // ESP
    let mut pc = image.entry;
    let mut blocks = 0u32;

    let outcome = loop {
        blocks += 1;
        if blocks > BLOCK_BUDGET {
            break Outcome::Limit;
        }
        let rec = RecordingSource::new(&mem);
        let block = match translate_region(&rec, pc, opt, &limits) {
            Ok(b) => b,
            Err(TranslateError::Decode(_)) => break Outcome::Fault(FaultKind::Undecodable),
            // Capacity, not semantics (e.g. register-pressure spill):
            // treat like a resource limit so the case is skipped.
            Err(TranslateError::Codegen(_)) => break Outcome::Limit,
        };
        let reads = rec.into_read_set();
        let mut port = OraclePort {
            mem: &mut mem,
            reads: &reads,
            dirty: Vec::new(),
        };
        let out = run_block(&mut state, &block.code, &mut port, BLOCK_FUEL);
        // Stores that hit the translation's read footprint ran the risk
        // of stale code. They stay *in* contract only when the region's
        // SmcGuard machinery provably exited before any dirtied byte
        // could execute: the exit resumes at a later member's entry and
        // every dirty byte lies at or past that resume point inside the
        // region's member ranges. Anything else — a dirty byte in code
        // the exit does not precede, or in footprint bytes outside every
        // member (the successor liveness scan) — is stale execution the
        // reference never saw, and the case is skipped, not compared.
        if stale_execution(&block, &out.exit, &port.dirty) {
            break Outcome::OutOfContract;
        }
        match out.exit {
            BlockExit::Goto(t) | BlockExit::Indirect(t) => pc = t,
            BlockExit::Halt => break Outcome::Halt,
            BlockExit::Fault(f) => break fault_kind(f),
            BlockExit::Sys => {
                let nr = state.get(RReg(1)); // EAX
                let args = [
                    state.get(RReg(4)), // EBX
                    state.get(RReg(2)), // ECX
                    state.get(RReg(3)), // EDX
                ];
                match sys.dispatch(&mut mem, nr, args) {
                    SyscallResult::Continue(ret) => {
                        state.set(RReg(1), ret);
                        pc = state.get(RReg(26));
                    }
                    SyscallResult::Exit(code) => break Outcome::Exit(code),
                }
            }
        }
    };

    let mut regs = [0u32; 8];
    for (i, r) in regs.iter_mut().enumerate() {
        *r = state.get(RReg(i as u8 + 1));
    }
    RunResult {
        outcome,
        regs,
        mem,
        output: sys.output,
    }
}

/// Whether a block execution that dirtied its own translation's read
/// footprint may have run stale bytes. `false` means the SmcGuard
/// machinery provably exited before any dirtied byte could execute:
/// the exit resumes at a later member's entry and every dirty byte
/// lies at or past that resume point inside the region's member
/// ranges. Anything else — a dirty byte in code the exit does not
/// precede, or in footprint bytes outside every member (the successor
/// liveness scan) — is stale execution the reference never saw.
fn stale_execution(block: &TBlock, exit: &BlockExit, dirty: &[u32]) -> bool {
    if dirty.is_empty() {
        return false;
    }
    let resumes_before_dirty = match *exit {
        BlockExit::Goto(r) => block
            .ranges
            .iter()
            .position(|&(a, _)| a == r)
            .is_some_and(|j| {
                j >= 1
                    && dirty.iter().all(|&d| {
                        block.ranges[j..]
                            .iter()
                            .any(|&(a, len)| d >= a && d < a + len)
                    })
            }),
        _ => false,
    };
    !resumes_before_dirty
}

/// One single-block step while a recording may be active: extends the
/// recorded path with the actually-taken successor, closes it at the
/// loop-closing backedge or the member cap, and arms backedge targets
/// so a future pass through them starts a recording — the same
/// protocol the DBT's promotion trigger drives.
fn note_step(
    paths: &mut HashMap<u32, Vec<u32>>,
    armed: &mut HashSet<u32>,
    recorder: &mut Option<(u32, Vec<u32>)>,
    from: u32,
    to: u32,
    limits: &RegionLimits,
) {
    if let Some((root, path)) = recorder {
        if to == *root {
            // Loop closed: the region is root plus the recorded path.
            let (root, path) = recorder.take().expect("recording");
            if !path.is_empty() {
                paths.insert(root, path);
            }
        } else {
            path.push(to);
            if path.len() + 1 >= limits.max_blocks as usize {
                let (root, path) = recorder.take().expect("recording");
                paths.insert(root, path);
            }
        }
    }
    if to <= from && !paths.contains_key(&to) {
        armed.insert(to);
    }
}

/// Runs a case the way the DBT runs it with runtime path recording on:
/// single-block execution everywhere (at [`OptLevel::None`] — the
/// recording pass observes architectural successors only), backedge
/// targets armed for recording, and — once a path is recorded — a
/// [`translate_region_along`] region at [`OptLevel::Full`] for each
/// recorded root. This is the oracle's coverage of recorded-path
/// region formation: wherever the recorded path stops holding, the
/// region's guards must side-exit to precisely the address single-block
/// execution would have reached.
fn run_translated_recorded(case: &Case) -> RunResult {
    let image = case.image();
    let mut mem = image.build_mem();
    let mut sys = SysState::new(image.brk_base);
    sys.set_input(image.input.clone());

    let full = RegionLimits::for_opt(OptLevel::Full);
    let single = RegionLimits::single();
    let mut state = CoreState::new();
    state.set(RReg(5), image.initial_esp()); // ESP
    let mut pc = image.entry;
    let mut blocks = 0u32;

    let mut paths: HashMap<u32, Vec<u32>> = HashMap::new();
    let mut armed: HashSet<u32> = HashSet::new();
    let mut recorder: Option<(u32, Vec<u32>)> = None;

    let outcome = loop {
        blocks += 1;
        if blocks > BLOCK_BUDGET {
            break Outcome::Limit;
        }
        let along = paths.get(&pc).cloned();
        if along.is_some() {
            // Entering a resident recorded region tears down any
            // recording in progress, exactly like the DBT.
            recorder = None;
        } else if armed.remove(&pc) && recorder.is_none() {
            recorder = Some((pc, Vec::new()));
        }
        let rec = RecordingSource::new(&mem);
        let translated = match &along {
            Some(path) => translate_region_along(&rec, pc, OptLevel::Full, &full, path),
            None => translate_region(&rec, pc, OptLevel::None, &single),
        };
        let block = match translated {
            Ok(b) => b,
            Err(TranslateError::Decode(_)) => break Outcome::Fault(FaultKind::Undecodable),
            Err(TranslateError::Codegen(_)) => break Outcome::Limit,
        };
        let reads = rec.into_read_set();
        let mut port = OraclePort {
            mem: &mut mem,
            reads: &reads,
            dirty: Vec::new(),
        };
        let out = run_block(&mut state, &block.code, &mut port, BLOCK_FUEL);
        if stale_execution(&block, &out.exit, &port.dirty) {
            break Outcome::OutOfContract;
        }
        match out.exit {
            BlockExit::Goto(t) | BlockExit::Indirect(t) => {
                if along.is_none() {
                    note_step(
                        &mut paths,
                        &mut armed,
                        &mut recorder,
                        block.guest_addr,
                        t,
                        &full,
                    );
                }
                pc = t;
            }
            BlockExit::Halt => break Outcome::Halt,
            BlockExit::Fault(f) => break fault_kind(f),
            BlockExit::Sys => {
                // The DBT ends a recording at syscalls.
                recorder = None;
                let nr = state.get(RReg(1)); // EAX
                let args = [
                    state.get(RReg(4)), // EBX
                    state.get(RReg(2)), // ECX
                    state.get(RReg(3)), // EDX
                ];
                match sys.dispatch(&mut mem, nr, args) {
                    SyscallResult::Continue(ret) => {
                        state.set(RReg(1), ret);
                        pc = state.get(RReg(26));
                    }
                    SyscallResult::Exit(code) => break Outcome::Exit(code),
                }
            }
        }
    };

    let mut regs = [0u32; 8];
    for (i, r) in regs.iter_mut().enumerate() {
        *r = state.get(RReg(i as u8 + 1));
    }
    RunResult {
        outcome,
        regs,
        mem,
        output: sys.output,
    }
}

/// Byte-compares every mapped page of two guest memories.
fn mem_diff(a: &GuestMem, b: &GuestMem) -> Option<String> {
    let pa = a.mapped_pages();
    let pb = b.mapped_pages();
    if pa != pb {
        return Some(format!(
            "mapped page sets differ: {} vs {} pages",
            pa.len(),
            pb.len()
        ));
    }
    for page in pa {
        let base = page * PAGE_SIZE;
        let ba = a.read_bytes(base, PAGE_SIZE).expect("page is mapped");
        let bb = b.read_bytes(base, PAGE_SIZE).expect("page is mapped");
        if let Some(off) = (0..ba.len()).find(|&i| ba[i] != bb[i]) {
            return Some(format!(
                "byte at {:#010x}: ref {:#04x} vs dbt {:#04x}",
                base + off as u32,
                ba[off],
                bb[off]
            ));
        }
    }
    None
}

/// Compares one translated run against the reference run.
fn compare(opt: OptLevel, reference: &RunResult, dbt: &RunResult) -> Verdict {
    // A limit on either side makes the case incomparable.
    if reference.outcome == Outcome::Limit || dbt.outcome == Outcome::Limit {
        return Verdict::Skip("resource limit");
    }
    // Same-block SMC (only the translated side can detect it).
    if dbt.outcome == Outcome::OutOfContract {
        return Verdict::Skip("same-block SMC");
    }
    let diverge = |channel, detail| {
        Verdict::Diverge(Divergence {
            opt,
            channel,
            detail,
        })
    };
    if reference.outcome != dbt.outcome {
        return diverge(
            Channel::Stop,
            format!("ref {:?} vs dbt {:?}", reference.outcome, dbt.outcome),
        );
    }
    if reference.output != dbt.output {
        return diverge(
            Channel::Output,
            format!(
                "ref {} bytes vs dbt {} bytes",
                reference.output.len(),
                dbt.output.len()
            ),
        );
    }
    // Faults stop the reference mid-instruction but translated code at
    // block granularity; register/memory state is only compared on
    // clean stops.
    if !matches!(reference.outcome, Outcome::Fault(_)) {
        if reference.regs != dbt.regs {
            return diverge(
                Channel::Regs,
                format!("ref {:08x?} vs dbt {:08x?}", reference.regs, dbt.regs),
            );
        }
        if let Some(d) = mem_diff(&reference.mem, &dbt.mem) {
            return diverge(Channel::Memory, d);
        }
    }
    Verdict::Pass
}

/// Runs one case through the full differential oracle.
///
/// Returns the first non-[`Pass`](Verdict::Pass) verdict across the two
/// optimization levels ([`OptLevel::None`] first) and the recorded-path
/// run (last).
pub fn run_case(case: &Case) -> Verdict {
    let reference = run_reference(case);
    for opt in [OptLevel::None, OptLevel::Full] {
        let dbt = run_translated(case, opt);
        match compare(opt, &reference, &dbt) {
            Verdict::Pass => {}
            other => return other,
        }
    }
    // Third translated run: recorded-path regions, the shape the DBT's
    // runtime path recording builds (reported under `OptLevel::Full`
    // with a `recorded-path` tag in the detail).
    let dbt = run_translated_recorded(case);
    match compare(OptLevel::Full, &reference, &dbt) {
        Verdict::Diverge(mut d) => {
            d.detail = format!("recorded-path run: {}", d.detail);
            Verdict::Diverge(d)
        }
        other => other,
    }
}
