//! The shadow run: the benchmark walks a guest itself through the
//! simulator's public layer calls and keeps what each layer saw.
//!
//! Per block entry it looks the block up in an [`L1Code`] (inserting on
//! a miss), translates new blocks in stages (decode, lower, the three
//! opt passes, codegen) and checks the result against
//! [`translate_block`], then runs the block with [`run_block`] on a
//! [`GuestMem`]-backed port that records every load and store. The
//! captured corpora feed the replays in [`crate::replay`].

use std::collections::HashMap;
use std::sync::Arc;

use vta_bench::RUN_BUDGET;
use vta_dbt::VirtualArchConfig;
use vta_ir::codegen::codegen;
use vta_ir::lower::{lower_block, MAX_BLOCK_INSNS};
use vta_ir::opt::{dce, flags, valueprop};
use vta_ir::{apply_helper, translate_block, MBlock, OptLevel, TBlock};
use vta_raw::exec::{run_block, BlockExit, CoreState, DataPort, Fault};
use vta_raw::isa::{HelperKind, MemOp, RReg};
use vta_x86::decode::{decode, CodeSource};
use vta_x86::{GuestImage, GuestMem, SysState, SyscallResult};

use vta_dbt::codecache::L1Code;

/// Host register holding guest `EAX` (the translator's fixed mapping).
const R_EAX: RReg = RReg(1);
/// Host register holding guest `ESP`.
const R_ESP: RReg = RReg(5);
/// Host registers holding guest `EBX`, `ECX`, `EDX` (syscall arguments).
const R_ARGS: [RReg; 3] = [RReg(4), RReg(2), RReg(3)];
/// Register carrying the resume address across a syscall.
const R_RESUME: RReg = RReg(26);
/// Fuel per block, as the simulator gives it.
const BLOCK_FUEL: u64 = 50_000_000;

/// Block entries kept for the code-cache replays.
pub const ENTRY_CAP: usize = 250_000;
/// Block executions kept, with their entry state, for the `run_block`
/// replay; the window starts halfway through the run.
pub const WINDOW_BLOCKS: usize = 50_000;
/// Data accesses kept for the memory-system replay, from the same
/// starting point.
pub const ACCESS_CAP: usize = 2_000_000;

/// One block execution in the replay window.
#[derive(Debug, Clone)]
pub struct Executed {
    /// Index into [`Capture::blocks`].
    pub block: u32,
    /// Register state on entry.
    pub state: CoreState,
    /// The values its loads returned: `loads[load_start..load_end]`.
    pub load_start: u32,
    /// End of its load values.
    pub load_end: u32,
    /// How it exited.
    pub exit: BlockExit,
}

/// A guest data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Guest address.
    pub addr: u32,
    /// Whether it was a store.
    pub write: bool,
}

/// Everything one shadow run captured.
#[derive(Debug, Clone)]
pub struct Capture {
    /// Exit code, if the guest exited.
    pub exit_code: Option<u32>,
    /// Guest instructions retired.
    pub guest_insns: u64,
    /// Distinct blocks translated, in first-execution order.
    pub blocks: Vec<Arc<TBlock>>,
    /// The lowered, unoptimized form of each block (stage inputs).
    pub lowered: Vec<MBlock>,
    /// Address of every guest instruction in [`Capture::blocks`].
    pub insn_addrs: Vec<u32>,
    /// Block index of every block entry (the first [`ENTRY_CAP`]).
    pub entries: Vec<u32>,
    /// The `run_block` replay window.
    pub window: Vec<Executed>,
    /// Load values of the window's blocks.
    pub loads: Vec<u32>,
    /// Data accesses from the window's start (the first [`ACCESS_CAP`]).
    pub accesses: Vec<Access>,
    /// Guest memory as the image boots (the code bytes replays decode).
    pub boot_mem: GuestMem,
    /// Blocks whose staged translation differed from `translate_block`.
    pub stage_mismatches: Vec<u32>,
}

/// Translates the block at `addr` stage by stage, exactly as
/// `translate_block` does, returning the lowered form too.
///
/// # Errors
///
/// Returns a description of a decode or codegen failure.
pub fn staged_translate<S: CodeSource + ?Sized>(
    src: &S,
    addr: u32,
    opt: OptLevel,
) -> Result<(MBlock, TBlock), String> {
    let lowered = lower_block(src, addr, MAX_BLOCK_INSNS).map_err(|e| e.to_string())?;
    let mut b = lowered.clone();
    optimize_staged(&mut b, src, opt);
    let code = codegen(&b).map_err(|e| e.to_string())?;
    let block = TBlock {
        guest_addr: b.guest_addr,
        guest_len: b.guest_len,
        guest_insns: b.guest_insns,
        translate_cycles: u64::from(b.guest_insns) * opt.cycles_per_guest_insn(),
        term: b.term,
        is_call: b.is_call,
        code,
        ranges: vec![(b.guest_addr, b.guest_len)],
        member_insns: vec![b.guest_insns],
    };
    Ok((lowered, block))
}

/// The opt passes `opt` runs, one call per pass.
pub fn optimize_staged<S: CodeSource + ?Sized>(b: &mut MBlock, src: &S, opt: OptLevel) {
    match opt {
        OptLevel::Full => {
            flags::eliminate_dead_flags(b, src);
            valueprop::propagate(b);
            dce::eliminate(b);
        }
        OptLevel::None => flags::eliminate_dead_flags_conservative(b),
    }
}

/// The port the shadow run executes through: guest memory, recording
/// accesses and load values while asked to.
struct CapturePort<'a> {
    mem: &'a mut GuestMem,
    accesses: Option<&'a mut Vec<Access>>,
    loads: Option<&'a mut Vec<u32>>,
}

impl CapturePort<'_> {
    fn note(&mut self, addr: u32, write: bool) {
        if let Some(a) = self.accesses.as_deref_mut() {
            if a.len() < ACCESS_CAP {
                a.push(Access { addr, write });
            }
        }
    }
}

impl DataPort for CapturePort<'_> {
    fn load(&mut self, addr: u32, op: MemOp) -> Result<(u32, u64), Fault> {
        let value = self
            .mem
            .read_sized(addr, op.bytes())
            .map_err(|e| Fault::Unmapped { addr: e.addr })?;
        self.note(addr, false);
        if let Some(l) = self.loads.as_deref_mut() {
            l.push(value);
        }
        Ok((value, 0))
    }

    fn store(&mut self, addr: u32, value: u32, op: MemOp) -> Result<u64, Fault> {
        self.mem
            .write_sized(addr, value, op.bytes())
            .map_err(|e| Fault::Unmapped { addr: e.addr })?;
        self.note(addr, true);
        Ok(0)
    }

    fn helper(&mut self, kind: HelperKind, state: &mut CoreState) -> Result<(), Fault> {
        apply_helper(kind, state)
    }
}

/// Walks `image` to its exit under `cfg`'s opt level and L1 code size.
/// `expected_insns` (the reference count) places the replay window
/// halfway through the run.
///
/// # Errors
///
/// Returns a description of a translation failure or guest fault.
pub fn capture(
    image: &GuestImage,
    cfg: &VirtualArchConfig,
    expected_insns: u64,
) -> Result<Capture, String> {
    let mut mem = image.build_mem();
    let boot_mem = mem.clone();
    let mut sys = SysState::new(image.brk_base);
    sys.set_input(image.input.clone());
    let mut state = CoreState::new();
    state.set(R_ESP, image.initial_esp());
    let mut pc = image.entry;
    let mut l1 = L1Code::new(cfg.l1_code_bytes);
    let mut index: HashMap<u32, u32> = HashMap::new();
    let mut c = Capture {
        exit_code: None,
        guest_insns: 0,
        blocks: Vec::new(),
        lowered: Vec::new(),
        insn_addrs: Vec::new(),
        entries: Vec::new(),
        window: Vec::new(),
        loads: Vec::new(),
        accesses: Vec::new(),
        boot_mem,
        stage_mismatches: Vec::new(),
    };
    let window_start = expected_insns / 2;
    while c.guest_insns < RUN_BUDGET {
        let (block, id) = match l1.lookup(pc).and_then(|h| l1.handle_block(h)) {
            Some(b) => (Arc::clone(b), index[&pc]),
            None => {
                let id = match index.get(&pc) {
                    Some(&id) => id,
                    None => {
                        let id = c.blocks.len() as u32;
                        c.translate(&mem, pc, cfg.opt)?;
                        index.insert(pc, id);
                        id
                    }
                };
                let b = Arc::clone(&c.blocks[id as usize]);
                l1.insert(Arc::clone(&b));
                (b, id)
            }
        };
        if c.entries.len() < ENTRY_CAP {
            c.entries.push(id);
        }
        let in_window = c.guest_insns >= window_start;
        let keep = in_window && c.window.len() < WINDOW_BLOCKS;
        let entry_state = keep.then(|| state.clone());
        let load_start = c.loads.len() as u32;
        let outcome = {
            let mut port = CapturePort {
                mem: &mut mem,
                accesses: in_window.then_some(&mut c.accesses),
                loads: keep.then_some(&mut c.loads),
            };
            run_block(&mut state, &block.code, &mut port, BLOCK_FUEL)
        };
        if let Some(state) = entry_state {
            c.window.push(Executed {
                block: id,
                state,
                load_start,
                load_end: c.loads.len() as u32,
                exit: outcome.exit,
            });
        }
        c.guest_insns += u64::from(block.guest_insns);
        match outcome.exit {
            BlockExit::Goto(t) | BlockExit::Indirect(t) => pc = t,
            BlockExit::Sys => {
                let args = R_ARGS.map(|r| state.get(r));
                match sys.dispatch(&mut mem, state.get(R_EAX), args) {
                    SyscallResult::Continue(ret) => {
                        state.set(R_EAX, ret);
                        pc = state.get(R_RESUME);
                    }
                    SyscallResult::Exit(code) => {
                        c.exit_code = Some(code);
                        break;
                    }
                }
            }
            BlockExit::Halt => break,
            BlockExit::Fault(f) => return Err(format!("guest fault in block {pc:#010x}: {f:?}")),
        }
    }
    Ok(c)
}

impl Capture {
    /// Translates a new block in stages, checks it against
    /// `translate_block`, and records its instruction addresses.
    fn translate(&mut self, mem: &GuestMem, pc: u32, opt: OptLevel) -> Result<(), String> {
        let (lowered, block) =
            staged_translate(mem, pc, opt).map_err(|e| format!("translating {pc:#010x}: {e}"))?;
        let reference = translate_block(mem, pc, opt)
            .map_err(|e| format!("translate_block at {pc:#010x}: {e}"))?;
        if block != reference {
            self.stage_mismatches.push(pc);
        }
        let mut addr = pc;
        while addr < pc + block.guest_len {
            let insn = decode(mem, addr).map_err(|e| format!("decode at {addr:#010x}: {e}"))?;
            self.insn_addrs.push(addr);
            addr += u32::from(insn.len);
        }
        self.lowered.push(lowered);
        self.blocks.push(Arc::new(block));
        Ok(())
    }

    /// Why the capture disagrees with the reference, if it does.
    pub fn check(&self, exit_code: u32, guest_insns: u64) -> Option<String> {
        if let Some(&pc) = self.stage_mismatches.first() {
            return Some(format!(
                "{} staged translations differ from translate_block (first at {pc:#010x})",
                self.stage_mismatches.len()
            ));
        }
        if self.exit_code != Some(exit_code) || self.guest_insns != guest_insns {
            return Some(format!(
                "shadow run exit {:?} after {} insns, reference exit {exit_code} after {guest_insns}",
                self.exit_code, self.guest_insns
            ));
        }
        None
    }
}
