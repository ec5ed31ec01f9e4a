//! The whole virtual machine: tile roles wired together and run.
//!
//! The runtime-execution tile drives simulated time. Translation slaves
//! live on their own timelines; the manager "catches up" their
//! completions whenever the execution tile interacts with it, which keeps
//! the simulation fast, deterministic, and faithful to the overlap the
//! paper exploits: translation proceeds in the background while the
//! execution tile runs already-translated code.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use vta_ir::mir::Term;
use vta_ir::{
    apply_helper, translate_region, translate_region_along, RegionLimits, RegionShape, TBlock,
    TranslateError,
};
use vta_raw::exec::{run_block, BlockExit, CoreState, DataPort, Fault};
use vta_raw::isa::{HelperKind, MemOp, RReg};
use vta_raw::{Dram, TileId};
use vta_sim::{
    Ctr, Cycle, GaugeId, Metrics, MetricsConfig, ProfConfig, ProfileReport, Profiler, Stats,
    ThreadProf, TraceConfig, Tracer, TrackId,
};
use vta_x86::{GuestImage, GuestMem, SysState, SyscallResult};

use crate::codecache::{BlockHandle, L15Bank, L1Code, L2Code};
use crate::config::VirtualArchConfig;
use crate::memsys::MemSys;
use crate::morph::{MorphAction, MorphManager};
use crate::shared::SharedTranslations;
use crate::slave::{InFlight, SlavePool};
use crate::specq::{SpecQueues, RETURN_DEPTH};
use crate::timing::Timing;

/// Host register holding guest `EAX` (fixed mapping).
const R_EAX: RReg = RReg(1);
/// Host register holding guest `ESP`.
const R_ESP: RReg = RReg(5);
/// Register carrying the resume address across a syscall.
const R_RESUME: RReg = RReg(26);

/// Why the run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCause {
    /// The guest called `exit`.
    Exit,
    /// The guest executed `hlt`.
    Halt,
    /// The guest-instruction budget ran out.
    InsnBudget,
}

/// A finished run: outcome plus every counter the figures need.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Why the run stopped.
    pub stop: StopCause,
    /// Exit code if the guest exited.
    pub exit_code: Option<u32>,
    /// Total simulated cycles on the virtual machine.
    pub cycles: u64,
    /// Guest instructions retired.
    pub guest_insns: u64,
    /// Everything the guest wrote to stdout/stderr.
    pub output: Vec<u8>,
    /// All event counters.
    pub stats: Stats,
}

/// A fatal error while running the guest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemError {
    /// The demanded guest code could not be translated.
    Translate {
        /// Guest address.
        addr: u32,
        /// The underlying failure.
        error: TranslateError,
    },
    /// Translated code faulted (unmapped access, divide error).
    GuestFault {
        /// Guest block the fault occurred in.
        block: u32,
        /// The fault.
        fault: Fault,
    },
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemError::Translate { addr, error } => {
                write!(f, "translation of {addr:#010x} failed: {error}")
            }
            SystemError::GuestFault { block, fault } => {
                write!(f, "guest fault in block {block:#010x}: {fault:?}")
            }
        }
    }
}

impl std::error::Error for SystemError {}

/// The executing virtual machine.
pub struct System {
    cfg: VirtualArchConfig,
    timing: Timing,
    now: Cycle,
    mem: GuestMem,
    sys: SysState,
    state: CoreState,
    pc: u32,
    l1: L1Code,
    /// Arena handle for the block at `pc`, when the previous block
    /// chained straight to it (no L1 lookup needed on the fast path).
    cur_handle: Option<BlockHandle>,
    l15: Vec<L15Bank>,
    l15_next_free: Vec<Cycle>,
    l2code: L2Code,
    queues: SpecQueues,
    pool: SlavePool,
    memsys: MemSys,
    dram: Dram,
    /// The manager's service ring: the next cycle its software loop is
    /// free. Every manager duty (L2 lookup, SMC walk, commit, assign)
    /// starts at `max(arrival, manager_free)` and moves it to the end
    /// of its window, so they serialize on the one tile.
    manager_free: Cycle,
    morph: Option<MorphManager>,
    stats: Stats,
    guest_insns: u64,
    /// Pages containing translated guest code (SMC detection).
    code_pages: HashSet<u32>,
    /// Map page → translated block addresses (for invalidation).
    page_blocks: HashMap<u32, Vec<u32>>,
    /// Addresses whose translation failed (speculation into data).
    failed: HashSet<u32>,
    /// Addresses promoted to superblock-region translation: loop-backedge
    /// targets and capped-region continuations observed at dispatch. All
    /// other translations stay single-block, so regions cover only the
    /// measured hot path. The trigger is architectural (which branches
    /// executed), never host timing, so promotion is deterministic.
    promoted: HashSet<u32>,
    /// Promoted addresses whose region translation has not committed
    /// yet. The resident single-block translation keeps executing while
    /// the region forms in the background; the commit swaps it in.
    region_pending: HashSet<u32>,
    /// Completed path recordings, keyed by region root: the successor
    /// the recording pass observed at each block exit, in execution
    /// order. The list *is* the root's region shape — it keys the
    /// shared memo and drives `translate_region_along`.
    recorded: HashMap<u32, Arc<[u32]>>,
    /// The at-most-one active recording pass (see `record_step`). One
    /// at a time because a recording is a run of *consecutive* block
    /// exits; interleaving two would split both.
    recorder: Option<Recording>,
    /// Promoted roots waiting for the recorder: recording starts the
    /// next time execution enters one of them single-block.
    armed: Vec<u32>,
    /// Per-root entry / first-junction-exit counters driving demotion
    /// of regions whose recorded path stopped holding.
    exit_stats: HashMap<u32, RegionExitStats>,
    /// Roots that have spent their one re-recording.
    re_recorded: HashSet<u32>,
    /// Roots demoted back to single-block translation for good.
    pinned: HashSet<u32>,
    /// Optional cross-system translation memo (sweeps).
    shared: Option<Arc<SharedTranslations>>,
    /// Cycle-accurate event recorder (disabled unless
    /// [`System::enable_tracing`] is called; recording never changes
    /// simulated time).
    tracer: Tracer,
    /// Synthetic trace tracks (DRAM channel, queue-depth counter, morph).
    trk: Trk,
    /// Trace track per grid tile, indexed by `TileId::index(width)`.
    tile_tracks: Vec<TrackId>,
    /// Windowed metrics recorder (disabled unless
    /// [`System::enable_metrics`] is called; sampling never changes
    /// simulated time).
    metrics: Metrics,
    /// Gauge ids for the metrics series columns.
    gauges: Gauges,
    /// Host wall-clock profiling session (disabled unless
    /// [`System::enable_profiling`] is called). The *second* clock
    /// domain: host-side only, never folded into [`RunReport::stats`],
    /// the metrics series, or any fingerprinted output.
    profiler: Profiler,
    /// The run loop's span recorder (the `"run"` thread in the
    /// profile).
    prof_thread: ThreadProf,
}

/// Gauge ids registered with the metrics recorder at
/// [`System::enable_metrics`] time.
#[derive(Debug, Clone, Default)]
struct Gauges {
    /// Total pending speculative-translation requests.
    specq: GaugeId,
    /// Pending requests per speculation depth, index = depth.
    specq_depths: Vec<GaugeId>,
    /// Live translation slaves (morph role occupancy, translator side).
    translators: GaugeId,
    /// Live L2 data banks (morph role occupancy, cache side).
    l2_banks: GaugeId,
}

/// One recording pass in progress: the promoted root it started at and
/// the successors observed so far.
#[derive(Debug, Clone)]
struct Recording {
    root: u32,
    path: Vec<u32>,
}

/// How a recorded region's entries have been leaving it.
#[derive(Debug, Clone, Copy, Default)]
struct RegionExitStats {
    /// Times the region was entered.
    entries: u64,
    /// Times it exited at the *first* junction (no member boundary
    /// crossed) — the signature of a recorded path that no longer holds
    /// at all.
    first_exits: u64,
}

/// Track ids for the non-tile trace timelines.
#[derive(Debug, Clone, Copy, Default)]
struct Trk {
    exec: TrackId,
    dram: TrackId,
    qdepth: TrackId,
    morph: TrackId,
}

impl System {
    /// Boots `image` under the given virtual architecture.
    pub fn new(cfg: VirtualArchConfig, image: &GuestImage) -> System {
        let timing = Timing::default();
        Self::with_timing(cfg, timing, image)
    }

    /// Boots with explicit timing parameters (sensitivity studies).
    pub fn with_timing(cfg: VirtualArchConfig, timing: Timing, image: &GuestImage) -> System {
        let mut sys = SysState::new(image.brk_base);
        sys.set_input(image.input.clone());
        let mut state = CoreState::new();
        state.set(R_ESP, image.initial_esp());
        let l15 = cfg
            .placement
            .l15_banks
            .iter()
            .map(|_| L15Bank::new(cfg.l15_bank_bytes))
            .collect::<Vec<_>>();
        let min_banks = 1;
        let max_banks = cfg.placement.l2_banks.len();
        System {
            now: Cycle::ZERO,
            mem: image.build_mem(),
            sys,
            state,
            pc: image.entry,
            l1: L1Code::new(cfg.l1_code_bytes),
            cur_handle: None,
            l15_next_free: vec![Cycle::ZERO; l15.len()],
            l15,
            l2code: L2Code::new(cfg.l2_code_bytes),
            queues: SpecQueues::new(cfg.max_spec_depth),
            pool: SlavePool::new(&cfg.placement.slaves),
            memsys: MemSys::new(&cfg.placement.l2_banks, cfg.l2_bank_bytes),
            dram: Dram::new(timing.dram_latency, timing.dram_word),
            manager_free: Cycle::ZERO,
            morph: cfg
                .morph
                .map(|m| MorphManager::new(m, min_banks, max_banks.max(min_banks))),
            stats: Stats::new(),
            guest_insns: 0,
            code_pages: HashSet::new(),
            page_blocks: HashMap::new(),
            failed: HashSet::new(),
            promoted: HashSet::new(),
            region_pending: HashSet::new(),
            recorded: HashMap::new(),
            recorder: None,
            armed: Vec::new(),
            exit_stats: HashMap::new(),
            re_recorded: HashSet::new(),
            pinned: HashSet::new(),
            shared: None,
            tracer: Tracer::disabled(),
            trk: Trk::default(),
            tile_tracks: Vec::new(),
            metrics: Metrics::disabled(),
            gauges: Gauges::default(),
            profiler: Profiler::disabled(),
            prof_thread: ThreadProf::disabled(),
            timing,
            cfg,
        }
    }

    /// Turns on cycle-accurate tracing (call before [`System::run`]).
    ///
    /// Registers one track per grid tile (named by the tile's boot-time
    /// role) plus tracks for the DRAM channel, the speculation-queue
    /// depth counter, and morph decisions. Tracing is an observer:
    /// simulated cycle counts are bit-identical with it on or off.
    pub fn enable_tracing(&mut self, tcfg: TraceConfig) {
        self.tracer = Tracer::new(tcfg);
        let p = self.cfg.placement.clone();
        let n = self.cfg.width as usize * self.cfg.height as usize;
        let mut roles: Vec<Option<&'static str>> = vec![None; n];
        let set = |roles: &mut Vec<Option<&'static str>>, t: TileId, role: &'static str| {
            let slot = &mut roles[t.index(self.cfg.width)];
            if slot.is_none() {
                *slot = Some(role);
            }
        };
        set(&mut roles, p.exec, "exec");
        set(&mut roles, p.mmu, "mmu");
        set(&mut roles, p.manager, "manager");
        set(&mut roles, p.syscall, "syscall");
        for &t in &p.l15_banks {
            set(&mut roles, t, "l15");
        }
        for bank in &self.memsys.banks {
            set(&mut roles, bank.tile, "l2bank");
        }
        for i in 0..self.pool.len() {
            set(&mut roles, self.pool.slave(i).tile, "slave");
        }
        self.tile_tracks = TileId::all(self.cfg.width, self.cfg.height)
            .map(|t| {
                let role = roles[t.index(self.cfg.width)].unwrap_or("idle");
                self.tracer.track(&format!("tile({},{}) {role}", t.x, t.y))
            })
            .collect();
        self.trk = Trk {
            exec: self.ttrack(p.exec),
            dram: self.tracer.track("dram"),
            qdepth: self.tracer.track("specq.depth"),
            morph: self.tracer.track("morph"),
        };
        self.memsys.trk_mmu = self.ttrack(p.mmu);
        self.memsys.trk_dram = self.trk.dram;
        for i in 0..self.memsys.banks.len() {
            self.memsys.banks[i].track =
                self.tile_tracks[self.memsys.banks[i].tile.index(self.cfg.width)];
        }
    }

    /// The trace recorder (empty and disabled unless
    /// [`System::enable_tracing`] was called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Takes the trace recorder out of the system (for export after a
    /// run), leaving a disabled one behind.
    pub fn take_tracer(&mut self) -> Tracer {
        std::mem::take(&mut self.tracer)
    }

    /// Turns on windowed metrics sampling (call before [`System::run`]).
    ///
    /// Registers the simulated gauges (queue depths, role occupancy).
    /// Like the tracer, the recorder is a pure observer: a window closes
    /// whenever the simulated clock crosses a grid boundary, the snapshot
    /// handed in is state the simulator already computed, and nothing is
    /// ever read back, so simulated cycles and [`Stats`] are bit-identical
    /// with metrics on or off.
    pub fn enable_metrics(&mut self, mcfg: MetricsConfig) {
        self.metrics = Metrics::new(mcfg);
        self.gauges = Gauges {
            specq: self.metrics.gauge("specq.len"),
            specq_depths: (0..=self.cfg.max_spec_depth)
                .map(|d| self.metrics.gauge(&format!("specq.d{d}.len")))
                .collect(),
            translators: self.metrics.gauge("pool.translators"),
            l2_banks: self.metrics.gauge("mem.l2_banks"),
        };
    }

    /// The metrics recorder (empty and disabled unless
    /// [`System::enable_metrics`] was called).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Takes the metrics recorder out of the system (for export after a
    /// run), leaving a disabled one behind.
    pub fn take_metrics(&mut self) -> Metrics {
        std::mem::take(&mut self.metrics)
    }

    /// Turns on host wall-clock profiling (call before [`System::run`]).
    ///
    /// The profiler is the simulated machine's *second* clock domain:
    /// it records what the host did — run-loop phases — in wall
    /// nanoseconds, while the [`Tracer`] records what the simulated
    /// machine did in cycles. Like the tracer and the metrics recorder
    /// it is a pure observer: instrumented code only reads the host
    /// clock and never branches on what it read, so simulated cycles,
    /// [`Stats`], metrics series, and trace events are bit-identical
    /// with profiling on or off.
    pub fn enable_profiling(&mut self, pcfg: ProfConfig) {
        self.profiler = Profiler::new(pcfg);
        self.prof_thread = self.profiler.thread("run");
    }

    /// The profiling session handle (disabled unless
    /// [`System::enable_profiling`] was called).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Finishes the profiling session and collects the run loop's
    /// profile, leaving a disabled profiler behind.
    pub fn take_profile(&mut self) -> ProfileReport {
        self.prof_thread = Default::default(); // replaced value flushes on drop
        let report = self.profiler.report();
        self.profiler = Profiler::disabled();
        report
    }

    /// A full interned-counter snapshot at the current simulated time,
    /// mirroring the end-of-run `set_ctr` block in [`System::run`]: the
    /// bump-maintained counters read straight out of `stats`, while the
    /// set-at-end ones are computed live so mid-run windows see exactly
    /// the values `finish` will reconcile against.
    fn metrics_snapshot(&self) -> [u64; Ctr::COUNT] {
        let mut s = [0u64; Ctr::COUNT];
        for &c in Ctr::ALL.iter() {
            s[c as usize] = self.stats.get_ctr(c);
        }
        s[Ctr::Cycles as usize] = self.now.as_u64();
        s[Ctr::GuestInsns as usize] = self.guest_insns;
        let mem = self.memsys.stats();
        s[Ctr::MemL1Hit as usize] = mem[0];
        s[Ctr::MemL2Hit as usize] = mem[1];
        s[Ctr::MemDram as usize] = mem[2];
        s[Ctr::MemTlbMiss as usize] = mem[3];
        s[Ctr::L1CodeFlushes as usize] = self.l1.flushes();
        s[Ctr::TranslateBlocks as usize] = self.pool.total_completed();
        s[Ctr::TranslateBusyCycles as usize] = self.pool.total_busy();
        s[Ctr::SpecPushes as usize] = self.queues.pushes();
        if let Some(m) = &self.morph {
            s[Ctr::MorphReconfigs as usize] = m.reconfigs;
        }
        s
    }

    /// One sample per registered gauge, placed by gauge id.
    fn gauge_sample(&self) -> Vec<u64> {
        let mut v = vec![0u64; self.metrics.gauge_count()];
        if v.is_empty() {
            return v;
        }
        v[self.gauges.specq.0 as usize] = self.queues.len() as u64;
        for (g, len) in self
            .gauges
            .specq_depths
            .iter()
            .zip(self.queues.depth_lens())
        {
            v[g.0 as usize] = len as u64;
        }
        v[self.gauges.translators.0 as usize] = self.pool.len() as u64;
        v[self.gauges.l2_banks.0 as usize] = self.memsys.banks.len() as u64;
        v
    }

    /// Trace track of `tile` (default id when tracing is disabled).
    fn ttrack(&self, tile: TileId) -> TrackId {
        self.tile_tracks
            .get(tile.index(self.cfg.width))
            .copied()
            .unwrap_or_default()
    }

    /// Attaches a cross-system translation memo (see
    /// [`SharedTranslations`]); refused if its opt level or region
    /// limits differ from this system's. Purely a host-side accelerator:
    /// simulated cycle counts are identical with or without it.
    pub fn attach_shared(&mut self, shared: Arc<SharedTranslations>) {
        if shared.opt() == self.cfg.opt && shared.limits() == self.cfg.region_limits() {
            self.shared = Some(shared);
        }
    }

    /// The translation shape for `pc`: a recorded-path region once a
    /// recording has completed for a promoted address, the statically
    /// predicted region when path recording is off, and a single basic
    /// block otherwise — including while a recording is still in
    /// progress, and for roots demoted back to single.
    fn shape_for(&self, pc: u32) -> RegionShape {
        if self.cfg.region_limits().max_blocks > 1
            && self.promoted.contains(&pc)
            && !self.pinned.contains(&pc)
        {
            if self.cfg.record_paths {
                match self.recorded.get(&pc) {
                    Some(path) => RegionShape::Recorded(Arc::clone(path)),
                    None => RegionShape::Single,
                }
            } else {
                RegionShape::Static
            }
        } else {
            RegionShape::Single
        }
    }

    /// Promotes `pc` to region shape: future translations root a
    /// superblock there. The resident single-block translation stays
    /// live — the execution tile never stalls on a promotion. Under
    /// path recording the promotion first arms a recording pass; the
    /// region build is queued when the recording completes. Otherwise
    /// the statically predicted region is queued right away, at high
    /// speculative priority; its commit swaps out the single at every
    /// cache level. SMC revocation leaves the promotion in place, so
    /// post-invalidation demand retranslation is region-shaped again.
    fn promote(&mut self, pc: u32) {
        self.promoted.insert(pc);
        self.stats.bump_ctr(Ctr::SuperblockPromotions);
        if self.cfg.record_paths {
            self.armed.push(pc);
        } else {
            self.region_pending.insert(pc);
            self.queues.push(pc, 1);
        }
    }

    /// One step of the active recording pass: logs the successor the
    /// block that just executed actually took. The recording finishes
    /// at the loop-closing backedge (the successor is the root), at an
    /// unknowable continuation (syscall / halt / fault), at the region
    /// formation cap, or when a resident superblock runs — its exit is
    /// a region exit, not a single-block junction, so the path has a
    /// gap there.
    fn record_step(&mut self, block: &TBlock, exit: BlockExit) {
        let max_blocks = self.cfg.region_limits().max_blocks;
        let rec = self.recorder.as_mut().expect("recording active");
        let done = if block.ranges.len() > 1 {
            true
        } else {
            match exit.successor() {
                Some(t) if t != rec.root => {
                    rec.path.push(t);
                    rec.path.len() as u32 >= max_blocks
                }
                _ => true,
            }
        };
        if done {
            self.finish_recording();
        }
    }

    /// Completes the active recording. A non-empty path becomes the
    /// root's region shape and the region build is queued; an empty one
    /// (the root halts, syscalls, or immediately loops onto itself)
    /// pins the root single-block — there is nothing to form along.
    fn finish_recording(&mut self) {
        let rec = self.recorder.take().expect("recording active");
        if rec.path.is_empty() {
            self.pinned.insert(rec.root);
            return;
        }
        self.recorded.insert(rec.root, Arc::from(rec.path));
        self.region_pending.insert(rec.root);
        self.queues.push(rec.root, 1);
    }

    /// Counts an entry into a recorded region. Both counters are halved
    /// once 128 entries accumulate, so the demotion rate tracks a
    /// sliding window of roughly the last 64–128 entries — a region
    /// that served a long phase well must still demote promptly when
    /// the program moves on and its path stops holding.
    fn note_region_entry(&mut self, root: u32) {
        let e = self.exit_stats.entry(root).or_default();
        e.entries += 1;
        if e.entries >= 128 {
            e.entries /= 2;
            e.first_exits /= 2;
        }
    }

    /// Notes a recorded region leaving through its *first* junction —
    /// before any member boundary was crossed. A path whose very first
    /// step stops holding makes the region pure overhead (a region
    /// built toward the historically-hottest target instead of the
    /// recorded one measured ~99% here on call-heavy code), so a root
    /// whose first-junction-exit rate crosses 3/4 over at least 64
    /// entries is demoted. Occasional side exits *deeper* in the
    /// region — a data-dependent branch taking its cold arm now and
    /// then — never demote: the entry fee was already amortized by the
    /// members that did retire.
    fn note_first_junction_exit(&mut self, root: u32) {
        let e = self.exit_stats.entry(root).or_default();
        e.first_exits += 1;
        if e.entries >= 64 && e.first_exits * 4 > e.entries * 3 {
            self.demote_region(root);
        }
    }

    /// Demotes the recorded region rooted at `root`: tears it down at
    /// every cache level (demand retranslation sees the root
    /// single-block while no recording is stored) and discards the
    /// recording. The first demotion re-arms the recorder for one more
    /// pass — the program may simply have moved to a new phase; a
    /// second demotion pins the root single-block for good.
    fn demote_region(&mut self, root: u32) {
        self.l1.invalidate(root);
        for bank in &mut self.l15 {
            bank.invalidate(root);
        }
        self.l2code.invalidate(root);
        self.recorded.remove(&root);
        self.exit_stats.remove(&root);
        self.region_pending.remove(&root);
        if self.re_recorded.insert(root) {
            self.stats.bump_ctr(Ctr::SuperblockReRecorded);
            self.armed.push(root);
        } else {
            self.pinned.insert(root);
            self.stats.bump_ctr(Ctr::SuperblockDemoted);
        }
    }

    /// Translates `pc` at the configured opt level under `shape` — a
    /// single basic block, the statically predicted region, or a region
    /// along a recorded path — consulting and feeding the shared memo
    /// when one is attached. The memo validates the live guest bytes
    /// and is keyed by the full shape (a recorded shape carries its
    /// path), so a hit is byte-for-byte what a fresh translation would
    /// produce.
    fn translate_at(
        &mut self,
        pc: u32,
        shape: &RegionShape,
    ) -> Result<Arc<TBlock>, TranslateError> {
        // Host profile phase: translation work on the run thread (the
        // memo consult plus the build on a miss).
        // Reading the host clock never changes simulated state.
        self.prof_thread.enter("run.translate");
        let r = self.translate_at_inner(pc, shape);
        self.prof_thread.exit();
        r
    }

    fn translate_at_inner(
        &self,
        pc: u32,
        shape: &RegionShape,
    ) -> Result<Arc<TBlock>, TranslateError> {
        let limits = if shape.is_region() {
            self.cfg.region_limits()
        } else {
            RegionLimits::single()
        };
        if let Some(sh) = &self.shared {
            if let Some(b) = sh.consult(&self.mem, pc, shape) {
                return Ok(b);
            }
        }
        let b = Arc::new(match shape {
            RegionShape::Recorded(path) => {
                translate_region_along(&self.mem, pc, self.cfg.opt, &limits, path)?
            }
            _ => translate_region(&self.mem, pc, self.cfg.opt, &limits)?,
        });
        if let Some(sh) = &self.shared {
            sh.publish(&self.mem, &b, shape);
        }
        Ok(b)
    }

    /// Runs the guest until exit/halt/fault or `max_guest_insns`.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] on guest faults or untranslatable demanded
    /// code.
    pub fn run(&mut self, max_guest_insns: u64) -> Result<RunReport, SystemError> {
        let stop = loop {
            if self.guest_insns >= max_guest_insns {
                break (StopCause::InsnBudget, None);
            }

            self.maybe_morph();

            let pc = self.pc;
            // Fast path: the previous block chained here and handed us
            // the arena handle — no address-table probe. A stale handle
            // (flush/SMC since) fails its generation check and falls
            // back to the full fetch path.
            let (block, handle) = match self.cur_handle.take() {
                Some(h) => match self.l1.handle_block(h) {
                    Some(b) => {
                        self.stats.bump_ctr(Ctr::L1CodeHit);
                        (Arc::clone(b), Some(h))
                    }
                    None => self.fetch_block(pc)?,
                },
                None => self.fetch_block(pc)?,
            };

            // Execute the block on the execution tile.
            let mut smc = Vec::new();
            let block_start = self.now;
            let outcome = {
                let mut port = ExecPort {
                    mem: &mut self.mem,
                    memsys: &mut self.memsys,
                    dram: &mut self.dram,
                    timing: &self.timing,
                    exec: self.cfg.placement.exec,
                    mmu: self.cfg.placement.mmu,
                    now: self.now,
                    code_pages: &self.code_pages,
                    smc: &mut smc,
                    tracer: &mut self.tracer,
                };
                run_block(&mut self.state, &block.code, &mut port, 50_000_000)
            };
            self.now += outcome.cycles;
            self.tracer
                .span(block_start, outcome.cycles, self.trk.exec, "block");
            // Retired guest instructions: a side exit (or firing SMC
            // guard) after `g` crossed member boundaries retired only
            // members 0..=g; a full run retired the whole region.
            let retired = if block.ranges.len() <= 1 {
                block.guest_insns as u64
            } else {
                let g = outcome.guards_passed as usize;
                if g + 1 >= block.member_insns.len() {
                    block.guest_insns as u64
                } else {
                    block.member_insns[..=g].iter().map(|&n| n as u64).sum()
                }
            };
            self.guest_insns += retired;
            self.stats.add_ctr(Ctr::HostInsns, outcome.insns);
            self.stats
                .add_ctr(Ctr::ExecStallCycles, outcome.stall_cycles);
            self.stats.bump_ctr(Ctr::ExecBlocks);
            if block.ranges.len() > 1 {
                self.stats.bump_ctr(Ctr::SuperblockEntries);
            }
            // Demotion accounting: count every entry into a region built
            // from a recording; its first-junction exits are noted in
            // the exit arms below.
            let recorded_root =
                block.ranges.len() > 1 && self.recorded.contains_key(&block.guest_addr);
            if recorded_root {
                self.note_region_entry(block.guest_addr);
            }

            // Self-modifying-code invalidation.
            let smc_fired = !smc.is_empty();
            for page in smc {
                self.invalidate_page(page);
            }

            // Runtime path recording: while a promoted root awaits its
            // region, one recording pass logs the actually-taken
            // successor at every block exit, starting the next time
            // execution enters the root as a single block. Both the
            // arming and every logged step depend only on architectural
            // events, so recordings — and the regions formed from them —
            // are deterministic.
            if self.recorder.is_some() {
                self.record_step(&block, outcome.exit);
            } else if !self.armed.is_empty() && block.ranges.len() == 1 {
                if let Some(i) = self.armed.iter().position(|&a| a == block.guest_addr) {
                    let root = self.armed.remove(i);
                    self.recorder = Some(Recording {
                        root,
                        path: Vec::new(),
                    });
                    self.record_step(&block, outcome.exit);
                }
            }

            match outcome.exit {
                BlockExit::Goto(t) => {
                    // A direct exit that is not one of the terminator's
                    // static targets left a superblock early: through a
                    // side exit, or through an SMC boundary guard.
                    if block.ranges.len() > 1 && !block.term.known_succs().contains(&t) {
                        if smc_fired {
                            self.stats.bump_ctr(Ctr::SuperblockSmcExits);
                        } else {
                            self.stats.bump_ctr(Ctr::SuperblockSideExits);
                            if recorded_root && outcome.guards_passed == 0 {
                                self.note_first_junction_exit(block.guest_addr);
                            }
                        }
                    }
                    // Region promotion. A backward direct exit marks `t`
                    // as a loop head; a full run off the end of a capped
                    // region marks its forward continuation, so long loop
                    // bodies partition into back-to-back traces. Both
                    // triggers depend only on which branches the guest
                    // executed — never on host timing — so the resident
                    // shape is deterministic.
                    let limits = self.cfg.region_limits();
                    if limits.max_blocks > 1 && !self.promoted.contains(&t) {
                        let backedge = t < block.guest_addr;
                        let full_run = retired == block.guest_insns as u64;
                        let capped = block.ranges.len() as u32 >= limits.max_blocks
                            || block.guest_insns + 4 > limits.max_insns;
                        let continuation = block.ranges.len() > 1
                            && full_run
                            && capped
                            && block.term.known_succs().contains(&t);
                        if backedge || continuation {
                            self.promote(t);
                        }
                    }
                    let succ = handle.and_then(|h| self.l1.cached_succ(h, t)).or_else(|| {
                        let nh = self.l1.lookup(t);
                        if let (Some(h), Some(nh)) = (handle, nh) {
                            self.l1.cache_succ(h, t, nh);
                        }
                        nh
                    });
                    if let Some(nh) = succ {
                        // Chained: patched direct branch inside L1 I-mem.
                        self.now += self.timing.chain;
                        self.stats.bump_ctr(Ctr::ChainTaken);
                        self.cur_handle = Some(nh);
                    } else {
                        self.now += self.timing.dispatch_miss;
                        self.stats.bump_ctr(Ctr::DispatchDirectMiss);
                    }
                    self.pc = t;
                }
                BlockExit::Indirect(t) => {
                    // A mid-region indirect guard that missed its
                    // recorded target left the superblock early, exactly
                    // like a side exit (a full run ending at an indirect
                    // terminator has retired every member).
                    if block.ranges.len() > 1 && retired < block.guest_insns as u64 {
                        self.stats.bump_ctr(Ctr::SuperblockSideExits);
                        if recorded_root && outcome.guards_passed == 0 {
                            self.note_first_junction_exit(block.guest_addr);
                        }
                    }
                    // An indirect backedge — a `ret` bouncing back to a
                    // stable call site is the common shape — marks its
                    // target hot, exactly like a direct backedge. Only
                    // under path recording: the static through-path
                    // predictor cannot see across an indirect, while a
                    // recording crosses it under an inline target guard.
                    if self.cfg.record_paths
                        && self.cfg.region_limits().max_blocks > 1
                        && t < block.guest_addr
                        && !self.promoted.contains(&t)
                    {
                        self.promote(t);
                    }
                    // Inline target-prediction cache (the paper's return
                    // predictor generalized): a compare patched next to
                    // the indirect site, checked before dispatch.
                    if let Some(nh) = handle.and_then(|h| self.l1.cached_indirect(h, t)) {
                        self.now += self.timing.inline_cache_hit;
                        self.stats.bump_ctr(Ctr::DispatchInlineHit);
                        self.cur_handle = Some(nh);
                    } else {
                        self.now += self.timing.dispatch_indirect;
                        self.stats.bump_ctr(Ctr::DispatchIndirect);
                        if let (Some(h), Some(nh)) = (handle, self.l1.lookup(t)) {
                            self.l1.cache_indirect(h, t, nh);
                        }
                    }
                    self.pc = t;
                }
                BlockExit::Sys => {
                    self.stats.bump_ctr(Ctr::Syscalls);
                    if let Some(code) = self.do_syscall() {
                        break (StopCause::Exit, Some(code));
                    }
                }
                BlockExit::Halt => break (StopCause::Halt, None),
                BlockExit::Fault(fault) => {
                    return Err(SystemError::GuestFault { block: pc, fault });
                }
            }

            self.catch_up(self.now);
            self.tracer
                .counter(self.now, self.trk.qdepth, self.queues.len() as u64);
            // Windowed sampling: one branch when metrics are off. The
            // grid boundary may have passed mid-block; `sample` closes
            // the window at the boundary cycle regardless of how late
            // this check runs (see `vta_sim::metrics`).
            if self.metrics.due(self.now) {
                let snap = self.metrics_snapshot();
                let gauges = self.gauge_sample();
                self.metrics.sample(self.now, &snap, &gauges);
            }
        };

        self.stats.set_ctr(Ctr::Cycles, self.now.as_u64());
        self.stats.set_ctr(Ctr::GuestInsns, self.guest_insns);
        let mem = self.memsys.stats();
        self.stats.set_ctr(Ctr::MemL1Hit, mem[0]);
        self.stats.set_ctr(Ctr::MemL2Hit, mem[1]);
        self.stats.set_ctr(Ctr::MemDram, mem[2]);
        self.stats.set_ctr(Ctr::MemTlbMiss, mem[3]);
        self.stats.set_ctr(Ctr::L1CodeFlushes, self.l1.flushes());
        self.stats
            .set_ctr(Ctr::TranslateBlocks, self.pool.total_completed());
        self.stats
            .set_ctr(Ctr::TranslateBusyCycles, self.pool.total_busy());
        self.stats.set_ctr(Ctr::SpecPushes, self.queues.pushes());
        if let Some(m) = &self.morph {
            self.stats.set_ctr(Ctr::MorphReconfigs, m.reconfigs);
        }

        // Close the final (off-grid) window and seal the series; the
        // windowed sums now telescope to the totals set just above.
        if self.metrics.is_enabled() {
            let snap = self.metrics_snapshot();
            let gauges = self.gauge_sample();
            self.metrics.finish(self.now, &snap, &gauges);
        }

        Ok(RunReport {
            stop: stop.0,
            exit_code: stop.1,
            cycles: self.now.as_u64(),
            guest_insns: self.guest_insns,
            output: self.sys.output.clone(),
            stats: self.stats.clone(),
        })
    }

    /// Convenience: current cycle count.
    pub fn cycles(&self) -> u64 {
        self.now.as_u64()
    }

    // ---- code fetch path -------------------------------------------------

    /// Obtains the translated block for `pc`, charging the lookup costs of
    /// whichever code-cache level supplies it.
    fn fetch_block(&mut self, pc: u32) -> Result<(Arc<TBlock>, Option<BlockHandle>), SystemError> {
        // Host profile phase: the dispatch slow path (an L1 code miss
        // walking L1.5 / the L2 manager, possibly demand-translating).
        // The chained fast path in run() is deliberately uninstrumented:
        // a per-block clock read would not fit the profiling budget.
        self.prof_thread.enter("run.dispatch");
        let r = self.fetch_block_inner(pc);
        self.prof_thread.exit();
        r
    }

    fn fetch_block_inner(
        &mut self,
        pc: u32,
    ) -> Result<(Arc<TBlock>, Option<BlockHandle>), SystemError> {
        if let Some(h) = self.l1.lookup(pc) {
            self.stats.bump_ctr(Ctr::L1CodeHit);
            let b = Arc::clone(self.l1.handle_block(h).expect("fresh handle"));
            return Ok((b, Some(h)));
        }
        self.stats.bump_ctr(Ctr::L1CodeMiss);

        // L1.5 banks.
        let mut missed_bank: Option<TileId> = None;
        if let Some(idx) = self.l15_index(pc) {
            let bank_tile = self.cfg.placement.l15_banks[idx];
            let wire = self.net_t(self.cfg.placement.exec, bank_tile, 1);
            self.now += wire;
            self.now = self.now.max(self.l15_next_free[idx]);
            let svc_start = self.now;
            self.now += self.timing.l15_service;
            self.l15_next_free[idx] = self.now;
            self.tracer.span(
                svc_start,
                self.timing.l15_service,
                self.ttrack(bank_tile),
                "l15.lookup",
            );
            if let Some(b) = self.l15[idx].get(pc) {
                self.stats.bump_ctr(Ctr::L15Hit);
                let wire = self.net_t(bank_tile, self.cfg.placement.exec, b.code.len() as u32);
                self.now += wire;
                self.install_l1(&b);
                let h = self.l1.lookup(pc);
                return Ok((b, h));
            }
            self.stats.bump_ctr(Ctr::L15Miss);
            missed_bank = Some(bank_tile);
        }

        // L2 manager. A request that missed in an L1.5 bank is
        // *forwarded* from the bank tile — the wire is charged from the
        // bank, not teleported back to the execution tile — and the
        // bank simultaneously sends the execution tile a one-word miss
        // notification so the dispatch loop knows to wait on the
        // manager. Both legs leave the bank at the same cycle, so the
        // request's effective latency is their max.
        let manager = self.cfg.placement.manager;
        match missed_bank {
            Some(bank_tile) => {
                let forward = self.net_t(bank_tile, manager, 1);
                let notify = self.net_t(bank_tile, self.cfg.placement.exec, 1);
                self.now += forward.max(notify);
            }
            None => {
                let wire = self.net_t(self.cfg.placement.exec, manager, 1);
                self.now += wire;
            }
        }
        self.catch_up(self.now);
        let svc_start = self.now.max(self.manager_free);
        let svc_end = svc_start + self.timing.manager_service;
        // The manager looks its metadata up in DRAM-resident
        // structures. The stall past the fixed service time is a DRAM
        // wait — occupied-but-waiting, not work — and is counted apart
        // from service so the manager's occupancy is honest tile-busy
        // time.
        self.now = self
            .dram
            .access_traced(svc_end, 2, &mut self.tracer, self.trk.dram, "l2meta")
            .max(svc_end);
        self.manager_free = self.now;
        let svc = self.timing.manager_service;
        let dram_wait = self.now.saturating_since(svc_end);
        self.tracer.span(
            svc_start,
            self.now.saturating_since(svc_start),
            self.ttrack(manager),
            "l2.lookup",
        );
        // Manager activity attribution: demand lookups are the
        // "network service" share of the manager tile's occupancy.
        // Purely simulated arithmetic — identical with profiling on or
        // off.
        self.stats.add("manager.service_cycles", svc);
        self.stats.add("manager.dram_wait_cycles", dram_wait);
        self.stats.bump_ctr(Ctr::L2CodeAccess);

        let block = if let Some(b) = self.l2code.get(pc) {
            Arc::clone(b)
        } else {
            self.stats.bump_ctr(Ctr::L2CodeMiss);
            let waited_from = self.now;
            let ready_at = self.demand_translate(pc)?;
            self.now = self.now.max(ready_at);
            let waited = self.now.saturating_since(waited_from);
            self.stats.record("demand.wait_cycles", waited);
            self.tracer
                .instant(self.now, self.trk.exec, "demand.wait", waited);
            self.l2code
                .get(pc)
                .map(Arc::clone)
                .expect("demand translation committed")
        };

        // Fetch the block image from DRAM through the manager.
        let words = block.code.len() as u32;
        self.now = self
            .dram
            .access_traced(
                self.now,
                words,
                &mut self.tracer,
                self.trk.dram,
                "l2code.read",
            )
            .max(self.now);
        let wire = self.net_t(manager, self.cfg.placement.exec, words);
        self.now += wire;

        // Install into L1.5 (if present) and L1.
        if let Some(idx) = self.l15_index(pc) {
            self.l15[idx].insert(Arc::clone(&block));
        }
        self.install_l1(&block);
        let h = self.l1.lookup(pc);
        Ok((block, h))
    }

    /// The L1.5 bank serving `pc`, or `None` when no banks exist. Every
    /// bank-index computation funnels through here: the modulus by the
    /// live bank count can never divide by zero, and clamping to the
    /// placement list keeps the tile lookup in bounds even if a future
    /// morph step resizes the bank vector away from its boot-time
    /// placement (today only the L2-bank/slave split morphs, but this
    /// pole costs nothing to guard).
    fn l15_index(&self, pc: u32) -> Option<usize> {
        let n = self.l15.len().min(self.cfg.placement.l15_banks.len());
        if n == 0 {
            return None;
        }
        Some((pc as usize >> 2) % n)
    }

    fn install_l1(&mut self, block: &Arc<TBlock>) {
        // Relocate the block into I-mem: copy plus chain re-patching.
        let words = block.code.len() as u64;
        self.now += 30 + words * self.timing.l1code_copy_per_word;
        if self.l1.insert(Arc::clone(block)) {
            self.now += self.timing.l1code_flush;
            self.tracer
                .instant(self.now, self.trk.exec, "l1code.flush", words);
        }
    }

    /// Demand-translates `pc`, waiting on the slave pipeline; returns the
    /// cycle the block is committed at the manager.
    fn demand_translate(&mut self, pc: u32) -> Result<Cycle, SystemError> {
        if !self.l2code.known(pc) {
            self.queues.push(pc, 0);
        }
        let mut t = self.now;
        loop {
            self.assign_idle(t);
            if self.l2code.get(pc).is_some() {
                return Ok(t);
            }
            if self.failed.contains(&pc) {
                // Re-translate on the spot to surface the error.
                let err = translate_region(&self.mem, pc, self.cfg.opt, &RegionLimits::single())
                    .expect_err("known-failed address");
                return Err(SystemError::Translate {
                    addr: pc,
                    error: err,
                });
            }
            match self.pool.earliest_done() {
                Some((_, done)) => {
                    t = t.max(done);
                    self.commit_ready(t);
                }
                None => {
                    // Nothing in flight and nothing committed: the pool is
                    // empty or the queue lost the entry; translate inline.
                    let shape = self.shape_for(pc);
                    match self.translate_at(pc, &shape) {
                        Ok(b) => {
                            t += b.translate_cycles;
                            // A demand-built region settles the pending
                            // promotion exactly like a slave commit would
                            // — leaving it set would make every later
                            // assignment rebuild the region forever.
                            if shape.is_region()
                                && self.region_pending.remove(&pc)
                                && matches!(shape, RegionShape::Recorded(_))
                            {
                                self.stats.bump_ctr(Ctr::SuperblockRecorded);
                            }
                            self.record_block(&b);
                            self.l2code.commit(b);
                            return Ok(t);
                        }
                        Err(error) => return Err(SystemError::Translate { addr: pc, error }),
                    }
                }
            }
        }
    }

    // ---- manager / slave pipeline -----------------------------------------

    /// Commits every slave completion due by `now` and keeps slaves fed.
    fn catch_up(&mut self, now: Cycle) {
        loop {
            let mut progressed = false;
            // Host profile phase: one span per drain *burst*, not per
            // commit — only entered when a commit actually pops, so the
            // empty per-block catch_up call never reads the host clock,
            // and a 10-commit burst costs two reads instead of twenty.
            let mut in_span = false;
            while let Some((i, inflight)) = self.pool.pop_done(now) {
                progressed = true;
                if !in_span {
                    self.prof_thread.enter("run.commit");
                    in_span = true;
                }
                self.finish(i, inflight);
            }
            if in_span {
                self.prof_thread.exit();
            }
            if self.assign_idle(now) {
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
    }

    /// Commits completions due by `now` (used while blocked on demand).
    fn commit_ready(&mut self, now: Cycle) {
        let mut in_span = false;
        while let Some((i, inflight)) = self.pool.pop_done(now) {
            if !in_span {
                self.prof_thread.enter("run.commit");
                in_span = true;
            }
            self.finish(i, inflight);
        }
        if in_span {
            self.prof_thread.exit();
        }
        self.assign_idle(now);
    }

    fn finish(&mut self, slave_idx: usize, inflight: InFlight) {
        let done = inflight.done_at;
        if inflight.addr != u32::MAX
            && (inflight.cancelled || inflight.shape != self.shape_for(inflight.addr))
        {
            // The translation went stale in flight: an SMC store may
            // have overwritten its source bytes, a promotion or a fresh
            // recording changed the wanted shape, or a demotion revoked
            // it. Drop the block; re-queue the region build if one is
            // still owed, otherwise demand re-queues on next miss.
            self.l2code.clear_in_flight(inflight.addr);
            if self.region_pending.contains(&inflight.addr) {
                self.queues.push(inflight.addr, 1);
            }
            self.assign_one(slave_idx, done);
            return;
        }
        if let Some(block) = inflight.block {
            // Committing occupies the manager tile: speculative traffic
            // competes with demand lookups for the shared resource — the
            // congestion the paper blames for vpr/gcc/crafty (§4.3).
            let commit_cost = 40 + block.code.len() as u64 / 2;
            let commit_start = done.max(self.manager_free);
            self.manager_free = commit_start + commit_cost;
            self.stats.add("manager.commit_cycles", commit_cost);
            self.tracer.span(
                commit_start,
                commit_cost,
                self.ttrack(self.cfg.placement.manager),
                "commit",
            );
            // Writing the block into the DRAM-resident L2 code cache
            // shares the channel with demand fetches.
            self.dram.access_traced(
                done,
                block.code.len() as u32,
                &mut self.tracer,
                self.trk.dram,
                "l2code.write",
            );
            self.stats
                .record("translate.block_host_bytes", block.host_bytes() as u64);
            self.stats
                .record("translate.block_guest_insns", block.guest_insns as u64);
            if inflight.shape.is_region() && self.region_pending.remove(&inflight.addr) {
                if matches!(inflight.shape, RegionShape::Recorded(_)) {
                    self.stats.bump_ctr(Ctr::SuperblockRecorded);
                }
                // The region replaces a live single-block translation:
                // drop the stale copies at every level so the next
                // fetch — or a chained L1 handle, via its generation
                // check — picks up the superblock.
                self.l1.invalidate(inflight.addr);
                for bank in &mut self.l15 {
                    bank.invalidate(inflight.addr);
                }
                self.l2code.invalidate(inflight.addr);
            }
            self.record_block(&block);
            self.l2code.commit(block);
        } else if inflight.addr != u32::MAX {
            self.failed.insert(inflight.addr);
            self.region_pending.remove(&inflight.addr);
        }
        // Keep this slave busy.
        self.assign_one(slave_idx, done);
    }

    /// Registers a committed block's pages for SMC detection. Revocation
    /// is region-granular: every member range registers against the
    /// region's entry address, so a store into any member — including the
    /// interior of a superblock — revokes the whole translation.
    fn record_block(&mut self, block: &Arc<TBlock>) {
        for &(addr, len) in &block.ranges {
            let first = addr / 4096;
            let last = (addr + len.max(1) - 1) / 4096;
            for page in first..=last {
                self.code_pages.insert(page);
                let addrs = self.page_blocks.entry(page).or_default();
                if !addrs.contains(&block.guest_addr) {
                    addrs.push(block.guest_addr);
                }
            }
        }
        self.stats.bump_ctr(Ctr::TranslateCommitted);
    }

    /// Pushes a finished block's likely successors (§2.1's speculative
    /// parallel translation, with static backward-taken prediction and
    /// the return predictor).
    fn enqueue_successors(&mut self, block: &TBlock, depth: u8) {
        let d1 = depth.saturating_add(1);
        let d2 = depth.saturating_add(2);
        match block.term {
            Term::Goto(t) => self.push_spec(t, d1),
            Term::CondGoto { taken, fall, .. } => {
                if taken <= block.guest_addr {
                    // Backward branch: predict taken (loop).
                    self.push_spec(taken, d1);
                    self.push_spec(fall, d2);
                } else {
                    self.push_spec(fall, d1);
                    self.push_spec(taken, d2);
                }
            }
            Term::Sys(next) => self.push_spec(next, d1),
            Term::Indirect(_) | Term::Trap(_) | Term::Halt => {}
        }
        if block.is_call {
            // Return predictor: the address after the call (the end of the
            // region's *last* member), low priority.
            self.push_spec(block.end_addr(), RETURN_DEPTH);
        }
    }

    fn push_spec(&mut self, addr: u32, depth: u8) {
        if !self.l2code.known(addr) && !self.failed.contains(&addr) {
            self.queues.push(addr, depth);
        }
    }

    /// Starts idle slaves on queued work at time `now`; true if any.
    fn assign_idle(&mut self, now: Cycle) -> bool {
        let mut any = false;
        loop {
            if self.queues.is_empty() {
                break;
            }
            let skip = usize::from(self.cfg.reserve_demand_slave && self.pool.len() > 1);
            let Some(i) = self.pool.idle_slave(skip) else {
                // Try the reserved slave for demand (depth 0) work.
                if skip == 1 {
                    // Peek: only depth-0 entries may use the reserved slave.
                    // SpecQueues has no peek; pop and re-push if deeper.
                    if let Some(ri) = self.pool.reserved_idle() {
                        if let Some((addr, depth)) = self.queues.pop() {
                            if depth == 0 {
                                self.start_translation(ri, addr, depth, now);
                                any = true;
                                continue;
                            }
                            self.queues.push(addr, depth);
                        }
                    }
                }
                break;
            };
            let Some((addr, depth)) = self.queues.pop() else {
                break;
            };
            if self.settled(addr) {
                continue;
            }
            self.start_translation(i, addr, depth, now);
            any = true;
        }
        any
    }

    /// Whether a popped queue entry is already-settled work the
    /// assigning slave should skip. A known address is settled — except
    /// when a promotion is pending and nobody is building the region:
    /// the resident single keeps running, but the region is still owed.
    /// Every assignment path must apply the same exception: a region
    /// build cancelled mid-flight by an SMC invalidation is re-queued
    /// exactly once, and whichever path pops that entry while the
    /// single is already resident would otherwise drop it — leaving the
    /// address pending forever.
    fn settled(&self, addr: u32) -> bool {
        if self.failed.contains(&addr) {
            return true;
        }
        self.l2code.known(addr)
            && !(self.region_pending.contains(&addr) && self.l2code.in_flight_on(addr).is_none())
    }

    fn assign_one(&mut self, slave_idx: usize, at: Cycle) {
        // Respect the demand reservation: slave 0 only takes depth 0.
        loop {
            let Some((addr, depth)) = self.queues.pop() else {
                return;
            };
            if self.settled(addr) {
                continue;
            }
            if self.cfg.reserve_demand_slave && slave_idx == 0 && depth != 0 && self.pool.len() > 1
            {
                self.queues.push(addr, depth);
                return;
            }
            self.start_translation(slave_idx, addr, depth, at);
            return;
        }
    }

    fn start_translation(&mut self, slave_idx: usize, addr: u32, depth: u8, at: Cycle) {
        // Handing out work occupies the manager's software loop.
        let assign_start = at.max(self.manager_free);
        self.manager_free = assign_start + 30;
        self.stats.add("manager.assign_cycles", 30);
        let tile = self.pool.slave(slave_idx).tile;
        let manager = self.cfg.placement.manager;
        self.tracer
            .span(assign_start, 30, self.ttrack(manager), "assign");
        let shape = self.shape_for(addr);
        let result = self.translate_at(addr, &shape).ok();
        let (cycles, words) = match &result {
            Some(b) => (b.translate_cycles, b.code.len() as u32),
            // Failed translations still burn decode time.
            None => (200, 0),
        };
        let wire = net_cost(tile, manager, words.max(1));
        let done_at = at + cycles + wire;
        self.tracer.span(at, cycles, self.ttrack(tile), "translate");
        self.tracer.net_msg(
            at + cycles,
            wire,
            tile.into(),
            manager.into(),
            words.max(1),
            tile.hops_to(manager) as u8,
        );
        let slave = self.pool.slave_mut(slave_idx);
        slave.busy_cycles += cycles;
        slave.current = Some(InFlight {
            addr,
            depth,
            done_at,
            shape,
            cancelled: false,
            block: result.clone(),
        });
        self.l2code.mark_in_flight(addr, slave_idx);
        // Successors are visible as soon as the slave has decoded the
        // block — the translator "runs ahead translating the program"
        // (§2.1) rather than waiting for its own commit.
        if self.cfg.speculation {
            if let Some(block) = result {
                self.enqueue_successors(&block, depth);
            }
        }
    }

    // ---- syscalls, morphing, SMC ------------------------------------------

    /// Proxies a syscall to the syscall tile; returns `Some(code)` on exit.
    fn do_syscall(&mut self) -> Option<u32> {
        let (exec, sysc) = (self.cfg.placement.exec, self.cfg.placement.syscall);
        let wire = self.net_t(exec, sysc, 4);
        self.now += wire;
        let svc_start = self.now;
        self.now += self.timing.syscall_service;
        self.tracer.span(
            svc_start,
            self.timing.syscall_service,
            self.ttrack(sysc),
            "syscall",
        );
        let wire = self.net_t(sysc, exec, 1);
        self.now += wire;

        let nr = self.state.get(R_EAX);
        let args = [
            self.state.get(RReg(4)), // EBX
            self.state.get(RReg(2)), // ECX
            self.state.get(RReg(3)), // EDX
        ];
        match self.sys.dispatch(&mut self.mem, nr, args) {
            SyscallResult::Continue(ret) => {
                self.state.set(R_EAX, ret);
                self.pc = self.state.get(R_RESUME);
                None
            }
            SyscallResult::Exit(code) => Some(code),
        }
    }

    fn maybe_morph(&mut self) {
        let qlen = self.queues.len();
        let nbanks = self.memsys.banks.len();
        let (trk_morph, trk_dram) = (self.trk.morph, self.trk.dram);
        let Some(m) = &mut self.morph else { return };
        let action = m.decide(self.now, qlen, nbanks, &mut self.tracer, trk_morph);
        let lag = m.last_lag();
        match action {
            Some(MorphAction::CacheToTranslator) => {
                // Host profile phase: only an *applied* morph action
                // reads the host clock; the per-block decide() poll
                // above never does.
                self.prof_thread.enter("run.morph");
                if let Some((tile, dirty)) = self.memsys.remove_bank() {
                    // Explicit role-change event at the switch point:
                    // old role -> new role, with the queue depth that
                    // triggered it (the decision instant above fires at
                    // the sample; this one marks the reconfiguration).
                    self.tracer
                        .instant(self.now, trk_morph, "role: l2bank->slave", qlen as u64);
                    self.metrics.event(self.now, "morph.to_translator", lag);
                    self.stats.record("morph.lag_cycles", lag);
                    // Write back the dirty lines (DRAM occupancy) and
                    // reload the tile's software role.
                    self.dram.access_traced(
                        self.now,
                        dirty * self.timing.line_words,
                        &mut self.tracer,
                        trk_dram,
                        "morph.writeback",
                    );
                    let charged = self.timing.reconfig_per_dirty_line * dirty as u64 / 8 + 50;
                    self.stats.add("manager.morph_cycles", charged);
                    self.now += charged;
                    self.tracer.instant(
                        self.now,
                        self.ttrack(tile),
                        "role.translator",
                        dirty as u64,
                    );
                    self.pool.grow(tile);
                    let ready = self.now + self.timing.reconfig;
                    let n = self.pool.len();
                    self.pool.slave_mut(n - 1).current = Some(InFlight {
                        addr: u32::MAX,
                        depth: 0,
                        done_at: ready,
                        shape: RegionShape::Single,
                        cancelled: false,
                        block: None,
                    });
                    self.stats.bump_ctr(Ctr::MorphToTranslator);
                }
                self.prof_thread.exit();
            }
            Some(MorphAction::TranslatorToCache) => {
                self.prof_thread.enter("run.morph");
                if let Some((tile, free_at)) = self.pool.shrink(self.now) {
                    self.tracer
                        .instant(self.now, trk_morph, "role: slave->l2bank", qlen as u64);
                    self.metrics.event(self.now, "morph.to_cache", lag);
                    self.stats.record("morph.lag_cycles", lag);
                    self.memsys.add_bank(tile, self.cfg.l2_bank_bytes);
                    let track = self.ttrack(tile);
                    let bank = self.memsys.banks.last_mut().expect("just added");
                    bank.next_free = free_at + self.timing.reconfig;
                    bank.track = track;
                    self.stats.add("manager.morph_cycles", 50);
                    self.now += 50;
                    self.tracer.instant(self.now, track, "role.cache", 0);
                    self.stats.bump_ctr(Ctr::MorphToCache);
                }
                self.prof_thread.exit();
            }
            None => {}
        }
    }

    fn invalidate_page(&mut self, page: u32) {
        let Some(addrs) = self.page_blocks.remove(&page) else {
            return;
        };
        self.stats.bump_ctr(Ctr::SmcInvalidations);
        for addr in addrs {
            self.l1.invalidate(addr);
            for bank in &mut self.l15 {
                bank.invalidate(addr);
            }
            self.l2code.invalidate(addr);
        }
        // Flush inline target-prediction entries pointing into the
        // page: the patched compares hold raw guest addresses, and a
        // stale one surviving into re-translated code would dispatch
        // into the revoked translation.
        self.l1.purge_indirect_targets(page);
        self.code_pages.remove(&page);
        // In-flight slave translations may derive from the overwritten
        // bytes (their functional result is computed at assign time):
        // cancel them all — SMC is rare, and re-queueing is always safe.
        self.pool.cancel_in_flight();
        self.tracer
            .instant(self.now, self.trk.exec, "smc.invalidate", page as u64);
        // The invalidation round-trips to the manager, and the walk
        // occupies the manager's service loop like any other request:
        // it reserves the service ring, so it queues behind an
        // in-progress commit or lookup and — the bug this fixes — a
        // background commit can no longer be booked into the same
        // window the walk was already charged for.
        let (exec, manager) = (self.cfg.placement.exec, self.cfg.placement.manager);
        let wire_there = self.net_t(exec, manager, 1);
        let walk_start = (self.now + wire_there).max(self.manager_free);
        let walk_end = walk_start + self.timing.manager_service;
        self.manager_free = walk_end;
        self.tracer.span(
            walk_start,
            self.timing.manager_service,
            self.ttrack(manager),
            "smc.walk",
        );
        self.stats
            .add("manager.service_cycles", self.timing.manager_service);
        self.now = walk_end;
        let wire_back = self.net_t(manager, exec, 1);
        self.now += wire_back;
    }

    /// Network cost of one message, recorded in the trace at `self.now`.
    fn net_t(&mut self, from: TileId, to: TileId, words: u32) -> u64 {
        let cost = net_cost(from, to, words);
        self.tracer.net_msg(
            self.now,
            cost,
            from.into(),
            to.into(),
            words,
            from.hops_to(to) as u8,
        );
        cost
    }
}

/// One-way message cost: inject + hops + payload + eject.
fn net_cost(from: TileId, to: TileId, words: u32) -> u64 {
    vta_raw::net::INJECT_COST
        + from.hops_to(to) as u64 * vta_raw::net::HOP_COST
        + words as u64
        + vta_raw::net::EJECT_COST
}

/// The execution tile's memory port during one block.
struct ExecPort<'a> {
    mem: &'a mut GuestMem,
    memsys: &'a mut MemSys,
    dram: &'a mut Dram,
    timing: &'a Timing,
    exec: TileId,
    mmu: TileId,
    now: Cycle,
    code_pages: &'a HashSet<u32>,
    smc: &'a mut Vec<u32>,
    tracer: &'a mut Tracer,
}

impl DataPort for ExecPort<'_> {
    fn load(&mut self, addr: u32, op: MemOp) -> Result<(u32, u64), Fault> {
        let value = self
            .mem
            .read_sized(addr, op.bytes())
            .map_err(|e| Fault::Unmapped { addr: e.addr })?;
        let (stall, _level) = self.memsys.access(
            self.now,
            addr,
            false,
            self.exec,
            self.mmu,
            self.dram,
            self.timing,
            self.tracer,
        );
        self.now += stall + 1;
        Ok((value, stall))
    }

    fn store(&mut self, addr: u32, value: u32, op: MemOp) -> Result<u64, Fault> {
        self.mem
            .write_sized(addr, value, op.bytes())
            .map_err(|e| Fault::Unmapped { addr: e.addr })?;
        let page = addr / 4096;
        if self.code_pages.contains(&page) {
            self.smc.push(page);
        }
        let (stall, _level) = self.memsys.access(
            self.now,
            addr,
            true,
            self.exec,
            self.mmu,
            self.dram,
            self.timing,
            self.tracer,
        );
        self.now += stall + 1;
        Ok(stall)
    }

    fn helper(&mut self, kind: HelperKind, state: &mut CoreState) -> Result<(), Fault> {
        apply_helper(kind, state)
    }

    fn smc_pending(&self) -> bool {
        // A store into translated code pages happened earlier in this
        // block: the next SMC guard must bail to dispatch so the region
        // is revoked and retranslated against the fresh bytes.
        !self.smc.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vta_x86::{Asm, Cond, Reg};

    const BASE: u32 = 0x0800_0000;

    fn image(f: impl FnOnce(&mut Asm)) -> GuestImage {
        let mut asm = Asm::new(BASE);
        f(&mut asm);
        GuestImage::from_code(asm.finish()).with_bss(0x0900_0000, 0x4000)
    }

    fn loop_program(iters: u32) -> GuestImage {
        image(|a| {
            a.mov_ri(Reg::ECX, iters);
            a.mov_ri(Reg::EAX, 0);
            let top = a.here();
            a.add_rr(Reg::EAX, Reg::ECX);
            a.dec_r(Reg::ECX);
            a.jcc(Cond::Ne, top);
            a.exit_with_eax();
        })
    }

    #[test]
    fn runs_simple_program_to_exit() {
        let img = loop_program(100);
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        let report = sys.run(1_000_000).expect("runs");
        assert_eq!(report.stop, StopCause::Exit);
        assert_eq!(report.exit_code, Some((1..=100).sum::<u32>()));
        assert!(report.cycles > 0);
        assert!(report.guest_insns > 300);
    }

    #[test]
    fn deterministic_cycle_counts() {
        let img = loop_program(500);
        let run = || {
            let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
            sys.run(10_000_000).expect("runs").cycles
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn hot_loop_chains_in_l1() {
        let img = loop_program(10_000);
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        let report = sys.run(10_000_000).expect("runs");
        assert!(
            report.stats.get("chain.taken") > 9_000,
            "the loop back-edge must chain: {}",
            report.stats.get("chain.taken")
        );
        // Only a couple of blocks ever translated.
        assert!(report.stats.get("l2code.access") < 20);
    }

    #[test]
    fn speculation_reduces_demand_misses() {
        // A long chain of distinct blocks: speculative translators run
        // ahead; the conservative translator takes a demand miss per block.
        let img = image(|a| {
            for i in 0..200u32 {
                a.add_ri(Reg::EAX, i as i32);
                let l = a.label();
                a.jmp(l);
                a.bind(l);
            }
            a.exit_with_eax();
        });
        let run = |cfg: VirtualArchConfig| {
            let mut sys = System::new(cfg, &img);
            sys.run(10_000_000).expect("runs")
        };
        let spec = run(VirtualArchConfig::with_translators(6, true));
        let cons = run(VirtualArchConfig::with_translators(1, false));
        assert!(
            spec.cycles < cons.cycles,
            "speculative {} should beat conservative {}",
            spec.cycles,
            cons.cycles
        );
    }

    #[test]
    fn exit_code_and_output_match_reference() {
        let img = image(|a| {
            a.mov_ri(Reg::EAX, 4);
            a.mov_ri(Reg::EBX, 1);
            a.mov_ri(Reg::ECX, 0x0900_0000);
            a.mov_mi(
                vta_x86::MemRef::abs(0x0900_0000),
                u32::from_le_bytes(*b"abcd"),
            );
            a.mov_ri(Reg::EDX, 4);
            a.int_(0x80);
            a.exit(9);
        });
        let mut cpu = vta_x86::Cpu::new(&img);
        let ref_stop = cpu.run(1_000_000).unwrap();
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        let report = sys.run(1_000_000).expect("runs");
        assert_eq!(ref_stop, vta_x86::StopReason::Exit(9));
        assert_eq!(report.exit_code, Some(9));
        assert_eq!(report.output, cpu.sys.output);
    }

    #[test]
    fn guest_fault_is_reported() {
        let img = image(|a| {
            a.mov_rm(Reg::EAX, vta_x86::MemRef::abs(0x4000_0000));
            a.hlt();
        });
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        match sys.run(1_000) {
            Err(SystemError::GuestFault {
                fault: Fault::Unmapped { addr },
                ..
            }) => {
                assert_eq!(addr, 0x4000_0000);
            }
            other => panic!("expected unmapped fault, got {other:?}"),
        }
    }

    #[test]
    fn insn_budget_stops() {
        let img = image(|a| {
            let top = a.here();
            a.inc_r(Reg::EAX);
            a.jmp(top);
        });
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        let report = sys.run(10_000).expect("runs");
        assert_eq!(report.stop, StopCause::InsnBudget);
    }

    #[test]
    fn smc_invalidates_translations() {
        // Code writes over its own (already executed) bytes; execution
        // must pick up the new translation.
        let img = image(|a| {
            // First pass writes "mov eax, 7; ret"-style patch over a
            // later instruction; here we simply patch an immediate.
            let patch_site = BASE + 0x40;
            a.mov_ri(Reg::ECX, 2);
            let top = a.here();
            // Patch the immediate byte of the `mov_ri(EBX, 11)` below.
            a.mov_mi8(vta_x86::MemRef::abs(patch_site + 1), 99);
            a.dec_r(Reg::ECX);
            a.jcc(Cond::Ne, top);
            // Pad to the patch site.
            while a.cur_addr() < patch_site {
                a.nop();
            }
            a.mov_ri(Reg::EBX, 11); // byte at patch_site+1 becomes 99
            a.mov_rr(Reg::EAX, Reg::EBX);
            a.exit_with_eax();
        });
        // Reference semantics.
        let mut cpu = vta_x86::Cpu::new(&img);
        let want = match cpu.run(1_000_000).unwrap() {
            vta_x86::StopReason::Exit(c) => c,
            other => panic!("reference stopped with {other:?}"),
        };
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        let report = sys.run(1_000_000).expect("runs");
        assert_eq!(report.exit_code, Some(want));
        assert!(report.stats.get("smc.invalidations") > 0);
    }

    #[test]
    fn smc_revokes_chained_dispatch_handles() {
        // Phase 1 runs a hot loop long enough for the dispatch loop to
        // cache arena handles and chain-successor edges for the body;
        // then the guest patches the body's immediate and re-runs it.
        // A stale handle surviving the invalidation would keep executing
        // the old translation and add the old immediate.
        let mut site = 0u32;
        let img = image(|a| {
            a.mov_ri(Reg::ESI, 2);
            a.mov_ri(Reg::EAX, 0);
            let outer = a.here();
            a.mov_ri(Reg::ECX, 1000);
            let top = a.here();
            site = a.cur_addr();
            a.mov_ri(Reg::EBX, 11); // imm low byte patched to 99
            a.add_rr(Reg::EAX, Reg::EBX);
            a.dec_r(Reg::ECX);
            a.jcc(Cond::Ne, top);
            a.mov_mi8(vta_x86::MemRef::abs(site + 1), 99);
            a.dec_r(Reg::ESI);
            a.jcc(Cond::Ne, outer);
            a.exit_with_eax();
        });
        let mut cpu = vta_x86::Cpu::new(&img);
        let want = match cpu.run(10_000_000).unwrap() {
            vta_x86::StopReason::Exit(c) => c,
            other => panic!("reference stopped with {other:?}"),
        };
        assert_eq!(want, 1000 * 11 + 1000 * 99);

        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        let report = sys.run(10_000_000).expect("runs");
        assert_eq!(report.exit_code, Some(want), "stale handle executed");
        assert!(report.stats.get("smc.invalidations") >= 1);
        assert!(
            report.stats.get("chain.taken") > 1500,
            "both passes must run chained: {}",
            report.stats.get("chain.taken")
        );

        // Same guest with a translation memo populated by the first run:
        // the memo's pre-patch entry must be rejected by its byte check
        // once the guest has patched the site.
        let sh = SharedTranslations::new(VirtualArchConfig::paper_default().opt);
        for pass in 0..2 {
            let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
            sys.attach_shared(Arc::clone(&sh));
            let r = sys.run(10_000_000).expect("runs");
            assert_eq!(r.exit_code, Some(want), "pass {pass}");
            assert_eq!(r.cycles, report.cycles, "pass {pass}");
        }
        assert!(!sh.is_empty());
    }

    #[test]
    fn shared_translations_do_not_change_results() {
        let img = loop_program(500);
        let base = {
            let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
            sys.run(10_000_000).expect("runs")
        };
        let sh = SharedTranslations::new(VirtualArchConfig::paper_default().opt);
        // Second iteration actually consumes the memo the first filled.
        for pass in 0..2 {
            let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
            sys.attach_shared(Arc::clone(&sh));
            let r = sys.run(10_000_000).expect("runs");
            assert_eq!(r.cycles, base.cycles, "pass {pass}");
            assert_eq!(r.stats, base.stats, "pass {pass}");
        }
        assert!(!sh.is_empty());
    }

    /// Runs `img` under `paper_default` and checks it against the
    /// reference interpreter: same exit code, same output.
    fn run_against_reference(img: &GuestImage) -> RunReport {
        let mut cpu = vta_x86::Cpu::new(img);
        let want = match cpu.run(10_000_000).unwrap() {
            vta_x86::StopReason::Exit(c) => c,
            other => panic!("reference stopped with {other:?}"),
        };
        let mut sys = System::new(VirtualArchConfig::paper_default(), img);
        let report = sys.run(10_000_000).expect("runs");
        assert_eq!(report.exit_code, Some(want));
        assert_eq!(report.output, cpu.sys.output);
        report
    }

    #[test]
    fn wide_speculation_frontier_matches_reference() {
        // 150 conditionals in a row fan the speculation frontier out
        // two ways per block.
        let img = image(|a| {
            for i in 0..150u32 {
                a.test_ri(Reg::EAX, 1);
                let taken = a.label();
                a.jcc(Cond::Ne, taken);
                a.add_ri(Reg::EBX, i as i32);
                a.bind(taken);
                a.add_ri(Reg::EAX, 1);
            }
            a.exit_with_eax();
        });
        let report = run_against_reference(&img);
        assert_eq!(report.exit_code, Some(150));
    }

    #[test]
    fn smc_between_loop_passes_runs_the_patched_body() {
        // Two passes of a 500-iteration loop; between them the guest
        // patches the body's immediate from 11 to 99.
        let mut site = 0u32;
        let img = image(|a| {
            a.mov_ri(Reg::ESI, 2);
            a.mov_ri(Reg::EAX, 0);
            let outer = a.here();
            a.mov_ri(Reg::ECX, 500);
            let top = a.here();
            site = a.cur_addr();
            a.mov_ri(Reg::EBX, 11);
            a.add_rr(Reg::EAX, Reg::EBX);
            a.dec_r(Reg::ECX);
            a.jcc(Cond::Ne, top);
            a.mov_mi8(vta_x86::MemRef::abs(site + 1), 99);
            a.dec_r(Reg::ESI);
            a.jcc(Cond::Ne, outer);
            a.exit_with_eax();
        });
        let report = run_against_reference(&img);
        assert_eq!(report.exit_code, Some(500 * 11 + 500 * 99));
    }

    #[test]
    fn smc_guard_exits_same_region_self_modification() {
        // The entry member of a superblock patches the immediate of a
        // *later* member of the same region, every iteration of a loop.
        // Iteration 1 runs as single blocks and promotes the loop head;
        // from iteration 2 on the region's boundary guard after the
        // storing member must bail to dispatch so the patched member
        // never runs from the stale translation.
        let mut site = 0u32;
        let img = image(|a| {
            let m1 = a.label();
            let m2 = a.label();
            a.mov_ri(Reg::ECX, 3);
            let top = a.here();
            a.mov_mi8(vta_x86::MemRef::abs(BASE + 0x40 + 1), 99);
            a.jmp(m1);
            a.bind(m1);
            a.add_ri(Reg::EDX, 0);
            a.jmp(m2);
            while a.cur_addr() < BASE + 0x40 {
                a.nop();
            }
            a.bind(m2);
            site = a.cur_addr();
            a.mov_ri(Reg::EBX, 11); // imm low byte patched to 99
            a.dec_r(Reg::ECX);
            a.jcc(Cond::Ne, top);
            a.mov_rr(Reg::EAX, Reg::EBX);
            a.exit_with_eax();
        });
        assert_eq!(site, BASE + 0x40);
        let mut cpu = vta_x86::Cpu::new(&img);
        let want = match cpu.run(1_000_000).unwrap() {
            vta_x86::StopReason::Exit(c) => c,
            other => panic!("reference stopped with {other:?}"),
        };
        assert_eq!(want, 99, "reference sees the patched immediate");
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        let report = sys.run(1_000_000).expect("runs");
        assert_eq!(report.exit_code, Some(want), "stale member executed");
        assert!(report.stats.get("smc.invalidations") >= 1);
        assert!(
            report.stats.get("superblock.smc_exits") >= 1,
            "the boundary guard must fire: {:?}",
            report.stats
        );
    }

    #[test]
    fn smc_store_into_region_interior_revokes_whole_region() {
        // A region whose entry sits on one guest page and whose interior
        // member crosses onto the next page. The guest patches the
        // interior member's bytes (second page) and loops back: page-keyed
        // revocation must kill the region registered under its
        // first-page entry address, or the loop re-adds the stale value.
        let mut site = 0u32;
        let img = image(|a| {
            a.mov_ri(Reg::ESI, 2);
            a.mov_ri(Reg::EAX, 0);
            let outer = a.here();
            let y_entry = a.label();
            let y_mid = a.label();
            let y_end = a.label();
            let done = a.label();
            a.jmp(y_entry);
            a.bind(y_end);
            a.add_rr(Reg::EAX, Reg::EBX);
            a.dec_r(Reg::ESI);
            a.jcc(Cond::E, done);
            a.mov_mi8(vta_x86::MemRef::abs(BASE + 0x1000 + 1), 99);
            a.jmp(outer);
            a.bind(done);
            a.exit_with_eax();
            // Region entry near the end of page 0 ...
            while a.cur_addr() < BASE + 0xFF8 {
                a.nop();
            }
            a.bind(y_entry);
            a.jmp(y_mid);
            // ... interior member on page 1.
            while a.cur_addr() < BASE + 0x1000 {
                a.nop();
            }
            a.bind(y_mid);
            site = a.cur_addr();
            a.mov_ri(Reg::EBX, 11); // imm low byte patched to 99
            a.jmp(y_end);
        });
        assert_eq!(site, BASE + 0x1000);
        let mut cpu = vta_x86::Cpu::new(&img);
        let want = match cpu.run(1_000_000).unwrap() {
            vta_x86::StopReason::Exit(c) => c,
            other => panic!("reference stopped with {other:?}"),
        };
        assert_eq!(want, 11 + 99);
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        let report = sys.run(1_000_000).expect("runs");
        assert_eq!(report.exit_code, Some(want), "interior patch ignored");
        assert!(report.stats.get("smc.invalidations") >= 1);
    }

    #[test]
    fn smc_interior_patch_rebuilds_the_region_every_pass() {
        // The interior-patch guest run for three passes: the first adds
        // the original 11, and every later pass must see the patched 90
        // even though the region is rebuilt in between.
        let mut site = 0u32;
        let img = image(|a| {
            a.mov_ri(Reg::ESI, 3);
            a.mov_ri(Reg::EAX, 0);
            let outer = a.here();
            let y_entry = a.label();
            let y_mid = a.label();
            let y_end = a.label();
            let done = a.label();
            a.jmp(y_entry);
            a.bind(y_end);
            a.add_rr(Reg::EAX, Reg::EBX);
            a.dec_r(Reg::ESI);
            a.jcc(Cond::E, done);
            a.mov_mi8(vta_x86::MemRef::abs(BASE + 0x1000 + 1), 90);
            a.jmp(outer);
            a.bind(done);
            a.exit_with_eax();
            while a.cur_addr() < BASE + 0xFF8 {
                a.nop();
            }
            a.bind(y_entry);
            a.jmp(y_mid);
            while a.cur_addr() < BASE + 0x1000 {
                a.nop();
            }
            a.bind(y_mid);
            site = a.cur_addr();
            a.mov_ri(Reg::EBX, 11);
            a.jmp(y_end);
        });
        assert_eq!(site, BASE + 0x1000);
        let report = run_against_reference(&img);
        assert_eq!(report.exit_code, Some(11 + 90 + 90));
    }

    #[test]
    fn seeded_loop_battery_matches_its_replayed_answer() {
        // Six hot loops drawn from a seed, each with a data-dependent
        // junction in its body, so every loop promotes and records its
        // own region. The answer is replayed in Rust beside the code.
        for seed in [0x5eed_cafe_f00d_0001, 0x5eed_cafe_f00d_0003] {
            let mut rng = vta_sim::Rng::seeded(seed);
            let mut expected = 0u32;
            let img = image(|a| {
                a.mov_ri(Reg::EBX, 0);
                for _ in 0..6 {
                    let iters = rng.range(200, 499) as u32;
                    let bump = rng.range(1, 5) as i32;
                    let parity_bump = rng.range(1, 3) as i32;
                    a.mov_ri(Reg::ECX, iters);
                    a.mov_ri(Reg::EAX, 0);
                    let top = a.here();
                    a.test_ri(Reg::EAX, 1);
                    let skip = a.label();
                    a.jcc(Cond::Ne, skip);
                    a.add_ri(Reg::EBX, bump);
                    a.bind(skip);
                    a.add_ri(Reg::EAX, parity_bump);
                    a.dec_r(Reg::ECX);
                    a.jcc(Cond::Ne, top);
                    let mut eax = 0u32;
                    for _ in 0..iters {
                        if eax & 1 == 0 {
                            expected = expected.wrapping_add(bump as u32);
                        }
                        eax = eax.wrapping_add(parity_bump as u32);
                    }
                }
                a.mov_rr(Reg::EAX, Reg::EBX);
                a.exit_with_eax();
            });
            let report = run_against_reference(&img);
            assert_eq!(report.exit_code, Some(expected), "seed {seed:#x}");
            assert!(
                report.stats.get("superblock.recorded") >= 6,
                "seed {seed:#x}"
            );
        }
    }

    #[test]
    fn indirect_inline_cache_hits_on_hot_returns() {
        // A hot call/ret loop: the first return pays the dispatch probe
        // and seeds the inline cache; later returns hit it.
        let img = image(|a| {
            let func = a.label();
            a.mov_ri(Reg::ECX, 500);
            let top = a.here();
            a.call(func);
            a.dec_r(Reg::ECX);
            a.jcc(Cond::Ne, top);
            a.exit_with_eax();
            a.bind(func);
            a.add_ri(Reg::EAX, 1);
            a.ret();
        });
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        let report = sys.run(10_000_000).expect("runs");
        assert_eq!(report.exit_code, Some(500));
        let hits = report.stats.get("dispatch.inline_hit");
        let misses = report.stats.get("dispatch.indirect");
        assert!(
            hits > 400,
            "hot returns must hit the inline cache: hits={hits} misses={misses}"
        );
        assert!(misses >= 1, "the first return seeds the cache");
    }

    #[test]
    fn superblocks_reduce_dispatch_exits() {
        // A straight chain of fall-through blocks: the first backedge
        // promotes the loop head, capped regions promote their forward
        // continuations, and the chain collapses into a few regions —
        // far fewer block exits reach the chain/dispatch machinery.
        // Enough iterations to amortize retranslating the body as
        // regions on top of the initial single-block translations.
        let img = image(|a| {
            a.mov_ri(Reg::ESI, 20_000);
            let top = a.here();
            for i in 0..30u32 {
                a.add_ri(Reg::EAX, i as i32);
                let l = a.label();
                a.jmp(l);
                a.bind(l);
            }
            a.dec_r(Reg::ESI);
            a.jcc(Cond::Ne, top);
            a.exit_with_eax();
        });
        let run = |superblock: bool| {
            let mut cfg = VirtualArchConfig::paper_default();
            cfg.superblock = superblock;
            let mut sys = System::new(cfg, &img);
            sys.run(10_000_000).expect("runs")
        };
        let on = run(true);
        let off = run(false);
        assert_eq!(on.exit_code, off.exit_code);
        assert!(on.stats.get("superblock.entries") > 0);
        assert_eq!(off.stats.get("superblock.entries"), 0);
        let exits = |r: &RunReport| {
            r.stats.get("chain.taken")
                + r.stats.get("dispatch.direct_miss")
                + r.stats.get("dispatch.indirect")
        };
        assert!(
            exits(&on) * 2 < exits(&off),
            "superblocks must collapse exits: on={} off={}",
            exits(&on),
            exits(&off)
        );
        assert!(
            on.cycles < off.cycles,
            "fewer exits must be cheaper: on={} off={}",
            on.cycles,
            off.cycles
        );
    }

    #[test]
    fn metrics_windows_reconcile_and_do_not_change_results() {
        let img = loop_program(2000);
        let base = System::new(VirtualArchConfig::paper_default(), &img)
            .run(10_000_000)
            .expect("runs");
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        sys.enable_metrics(MetricsConfig {
            interval: 500,
            ..MetricsConfig::default()
        });
        let r = sys.run(10_000_000).expect("runs");
        assert_eq!(r.cycles, base.cycles, "sampling never changes time");
        assert_eq!(r.stats, base.stats, "sampling never changes counters");
        let m = sys.take_metrics();
        assert!(m.len() > 1, "several windows closed: {}", m.len());
        m.reconcile_stats(&r.stats)
            .expect("windowed sums telescope to the run totals");
        let last = m.windows().last().expect("non-empty");
        assert_eq!(last.end, r.cycles, "final window closes at end of run");
        assert!(
            m.gauges().any(|(_, n)| n == "specq.len"),
            "simulated gauges registered"
        );
    }

    #[test]
    fn metrics_interval_choice_never_changes_simulation() {
        let img = loop_program(800);
        let mut cycles = Vec::new();
        for interval in [1u64, 97, 10_000] {
            let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
            sys.enable_metrics(MetricsConfig {
                interval,
                ..MetricsConfig::default()
            });
            let r = sys.run(10_000_000).expect("runs");
            sys.metrics()
                .reconcile_stats(&r.stats)
                .unwrap_or_else(|e| panic!("interval {interval}: {e}"));
            cycles.push(r.cycles);
        }
        assert!(cycles.windows(2).all(|w| w[0] == w[1]), "{cycles:?}");
    }

    #[test]
    fn histograms_record_translation_shape() {
        let img = loop_program(200);
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        let report = sys.run(1_000_000).expect("runs");
        let h = report
            .stats
            .histogram("translate.block_host_bytes")
            .expect("translation sizes recorded");
        assert!(h.count() > 0);
        assert!(h.mean() > 4.0, "blocks are bigger than one instruction");
        let w = report
            .stats
            .histogram("demand.wait_cycles")
            .expect("demand misses recorded");
        assert!(w.count() >= 1, "at least the first block demand-misses");
    }

    #[test]
    fn morphing_reconfigures_under_pressure() {
        // Conditional branches fan the speculative frontier out two ways
        // per block, faster than the slaves can drain it.
        let img = image(|a| {
            for i in 0..400u32 {
                a.test_ri(Reg::EAX, 1);
                let taken = a.label();
                a.jcc(Cond::Ne, taken);
                a.add_ri(Reg::EBX, i as i32);
                a.bind(taken);
                a.add_ri(Reg::EAX, 1);
            }
            a.exit_with_eax();
        });
        let mut sys = System::new(VirtualArchConfig::morphing(0), &img);
        let report = sys.run(10_000_000).expect("runs");
        assert!(
            report.stats.get("morph.to_translator") > 0,
            "queue pressure must trigger reconfiguration: {:?}",
            report.stats
        );
    }

    /// Three phases of 1500 iterations each: the data-dependent branch
    /// in the loop body takes the `+1` arm in phases one and three and
    /// the `+2` arm in phase two, so any path recorded through the
    /// junction stops holding twice. The phases are long because the
    /// startup speculation burst keeps every slave busy for a while
    /// (no preemption — §4.3): the loop-head region must still commit
    /// early in phase one. Exit code 1500 + 3000 + 1500.
    fn phase_flip_program() -> GuestImage {
        image(|a| {
            a.mov_ri(Reg::EAX, 0);
            a.mov_ri(Reg::EDX, 0);
            a.mov_ri(Reg::ESI, 3);
            let phase = a.here();
            a.mov_ri(Reg::ECX, 1_500);
            let top = a.here();
            a.test_ri(Reg::EDX, 1);
            let arm_b = a.label();
            let join = a.label();
            a.jcc(Cond::Ne, arm_b);
            a.add_ri(Reg::EAX, 1);
            a.jmp(join);
            a.bind(arm_b);
            a.add_ri(Reg::EAX, 2);
            a.bind(join);
            a.dec_r(Reg::ECX);
            a.jcc(Cond::Ne, top);
            a.add_ri(Reg::EDX, 1);
            a.dec_r(Reg::ESI);
            a.jcc(Cond::Ne, phase);
            a.exit_with_eax();
        })
    }

    #[test]
    fn cancelled_region_build_is_not_stuck_pending() {
        // Regression: a region build cancelled mid-flight by an SMC
        // invalidation used to leave its address in `region_pending`
        // forever — the single-block translation stayed resident, so
        // `assign_idle` skipped the re-queued entry as already-known
        // work and the promotion never settled into a region.
        //
        // The loop body spans two basic blocks (an internal `jmp` splits
        // it) so the rebuilt region is observably multi-member.
        let img = image(|a| {
            a.mov_ri(Reg::ECX, 10);
            a.mov_ri(Reg::EAX, 0);
            let top = a.here();
            a.add_rr(Reg::EAX, Reg::ECX);
            let mid = a.label();
            a.jmp(mid);
            a.bind(mid);
            a.dec_r(Reg::ECX);
            a.jcc(Cond::Ne, top);
            a.exit_with_eax();
        });
        let mut cfg = VirtualArchConfig::paper_default();
        cfg.record_paths = false; // drive the static promotion path
        let mut sys = System::new(cfg, &img);
        let top = BASE + 10;
        // Seed the resident single-block translation, as demand would.
        let single = sys
            .translate_at(top, &RegionShape::Single)
            .expect("translates");
        sys.record_block(&single);
        sys.l2code.commit(single);
        // Promote: the region build is queued and a slave picks it up.
        sys.promote(top);
        assert!(sys.region_pending.contains(&top));
        assert!(sys.assign_idle(Cycle(0)), "region build starts");
        assert!(sys.pool.translating(top).is_some());
        // SMC cancels every in-flight translation; the commit path must
        // re-queue the owed region, and the next assignment must not
        // drop it just because the single is resident.
        sys.pool.cancel_in_flight();
        sys.catch_up(Cycle(1_000_000));
        assert!(
            !sys.region_pending.contains(&top),
            "cancelled region build left the promotion pending forever"
        );
        let resident = sys.l2code.get(top).expect("resident");
        assert!(resident.ranges.len() > 1, "region rebuilt after cancel");
    }

    #[test]
    fn zero_l15_banks_never_index_a_bank() {
        // The zero-bank pole of the Figure 4 sweep: no bank index may
        // ever be computed (the modulus would divide by zero), and the
        // whole run must route L1 misses straight to the manager.
        let img = loop_program(50);
        let mut sys = System::new(VirtualArchConfig::with_l15_banks(0), &img);
        assert_eq!(sys.l15_index(BASE), None, "no bank to index");
        let report = sys.run(1_000_000).expect("runs");
        assert_eq!(report.exit_code, Some((1..=50).sum::<u32>()));
        assert_eq!(
            report.stats.get("l15.hit") + report.stats.get("l15.miss"),
            0,
            "no L1.5 traffic without banks"
        );
    }

    #[test]
    fn recording_never_changes_guest_instruction_count() {
        // The tentpole invariant: recorded-path regions change where
        // *time* goes, never what the guest retires. Conditionals, an
        // alternating (never fully predictable) branch, and a call/ret
        // pair; compare recording on, static regions, and no regions.
        let img = image(|a| {
            let func = a.label();
            a.mov_ri(Reg::ECX, 600);
            let top = a.here();
            a.test_ri(Reg::ECX, 1);
            let odd = a.label();
            let join = a.label();
            a.jcc(Cond::Ne, odd);
            a.add_ri(Reg::EAX, 1);
            a.jmp(join);
            a.bind(odd);
            a.add_ri(Reg::EAX, 2);
            a.bind(join);
            a.call(func);
            a.dec_r(Reg::ECX);
            a.jcc(Cond::Ne, top);
            a.exit_with_eax();
            a.bind(func);
            a.add_ri(Reg::EBX, 1);
            a.ret();
        });
        let run = |record: bool, superblock: bool| {
            let mut cfg = VirtualArchConfig::paper_default();
            cfg.superblock = superblock;
            cfg.record_paths = record;
            let mut sys = System::new(cfg, &img);
            sys.run(10_000_000).expect("runs")
        };
        let recorded = run(true, true);
        let statik = run(false, true);
        let off = run(false, false);
        assert_eq!(recorded.exit_code, statik.exit_code);
        assert_eq!(recorded.exit_code, off.exit_code);
        assert_eq!(recorded.guest_insns, statik.guest_insns);
        assert_eq!(recorded.guest_insns, off.guest_insns);
        assert!(recorded.stats.get("superblock.recorded") > 0);
    }

    #[test]
    fn recorded_paths_follow_branches_static_prediction_misses() {
        // A hot loop whose body takes a *forward* conditional every
        // iteration: the static through-path predictor grows along the
        // fall-through arm, so its region side-exits at the first
        // junction on every entry; the recording follows the taken arm
        // and runs the region to the backedge.
        let img = image(|a| {
            a.mov_ri(Reg::EBX, 1);
            a.mov_ri(Reg::ECX, 2_000);
            let top = a.here();
            a.test_ri(Reg::EBX, 1);
            let taken = a.label();
            a.jcc(Cond::Ne, taken);
            a.add_ri(Reg::EAX, 1_000); // never runs
            a.bind(taken);
            a.add_ri(Reg::EAX, 1);
            a.dec_r(Reg::ECX);
            a.jcc(Cond::Ne, top);
            a.exit_with_eax();
        });
        let run = |record: bool| {
            let mut cfg = VirtualArchConfig::paper_default();
            cfg.record_paths = record;
            let mut sys = System::new(cfg, &img);
            sys.run(10_000_000).expect("runs")
        };
        let rec = run(true);
        let stat = run(false);
        assert_eq!(rec.exit_code, Some(2_000));
        assert_eq!(rec.exit_code, stat.exit_code);
        assert_eq!(rec.guest_insns, stat.guest_insns);
        assert!(rec.stats.get("superblock.recorded") >= 1);
        let (rx, sx) = (
            rec.stats.get("superblock.side_exits"),
            stat.stats.get("superblock.side_exits"),
        );
        assert!(
            rx * 10 < sx,
            "recording must eliminate the always-mispredicted side exit: \
             recorded={rx} static={sx}"
        );
    }

    #[test]
    fn recording_crosses_hot_returns_into_regions() {
        // A hot call/ret pair. The static predictor cannot grow a
        // region across the indirect `ret`; the recorder logs its
        // actual target, the `ret`'s backward indirect exit promotes
        // the return site, and the recorded regions cover the whole
        // call/body/return cycle — entered every iteration, exiting
        // early almost never (the return target is stable).
        let img = image(|a| {
            let func = a.label();
            a.mov_ri(Reg::ECX, 1_500);
            let top = a.here();
            a.call(func);
            a.dec_r(Reg::ECX);
            a.jcc(Cond::Ne, top);
            a.exit_with_eax();
            a.bind(func);
            a.add_ri(Reg::EAX, 1);
            a.ret();
        });
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        let report = sys.run(10_000_000).expect("runs");
        assert_eq!(report.exit_code, Some(1_500));
        assert!(report.stats.get("superblock.recorded") >= 1);
        let entries = report.stats.get("superblock.entries");
        let side = report.stats.get("superblock.side_exits");
        assert!(entries > 1_000, "regions must carry the loop: {entries}");
        assert!(
            side * 20 < entries,
            "the recorded return target must hold: side={side} entries={entries}"
        );
        assert_eq!(report.stats.get("superblock.demoted"), 0);
    }

    #[test]
    fn flaky_recorded_path_re_records_then_pins() {
        // Phase changes invalidate a recorded path twice: the first
        // demotion discards the region and re-records along the new
        // phase's path; the second pins the root single-block. Guest
        // retirement stays identical to a recording-off run throughout.
        let img = phase_flip_program();
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        let report = sys.run(10_000_000).expect("runs");
        assert_eq!(report.exit_code, Some(1_500 + 3_000 + 1_500));
        assert!(
            report.stats.get("superblock.recorded") >= 2,
            "initial recording plus the re-recording: {:?}",
            report.stats
        );
        assert!(
            report.stats.get("superblock.re_recorded") >= 1,
            "phase two must demote and re-record: {:?}",
            report.stats
        );
        assert!(
            report.stats.get("superblock.demoted") >= 1,
            "phase three must pin the root: {:?}",
            report.stats
        );
        let mut cfg = VirtualArchConfig::paper_default();
        cfg.record_paths = false;
        let off = System::new(cfg, &img).run(10_000_000).expect("runs");
        assert_eq!(off.exit_code, report.exit_code);
        assert_eq!(off.guest_insns, report.guest_insns);
    }

    #[test]
    fn l15_banks_absorb_l1_flush_traffic() {
        // Working set larger than L1 code: with L1.5 the refill is cheap.
        let big_code = |a: &mut Asm| {
            for i in 0..700u32 {
                a.add_ri(Reg::EAX, i as i32);
                a.xor_rr(Reg::EDX, Reg::EAX);
                a.imul_rri(Reg::EBX, Reg::EAX, 3);
                a.add_rr(Reg::EDX, Reg::EBX);
                a.rol_ri(Reg::EAX, 3);
                let l = a.label();
                a.jmp(l);
                a.bind(l);
            }
        };
        let img = image(|a| {
            // Run the big straight-line region twice.
            a.mov_ri(Reg::ESI, 2);
            let top = a.here();
            big_code(a);
            a.dec_r(Reg::ESI);
            a.jcc(Cond::Ne, top);
            a.exit_with_eax();
        });
        // Single-block shape only: region promotion would retranslate
        // the two-iteration body mid-run, swamping the refill signal
        // this test isolates.
        let cfg = |banks| {
            let mut c = VirtualArchConfig::with_l15_banks(banks);
            c.superblock = false;
            c
        };
        let with = {
            let mut s = System::new(cfg(2), &img);
            s.run(50_000_000).expect("runs").cycles
        };
        let without = {
            let mut s = System::new(cfg(0), &img);
            s.run(50_000_000).expect("runs").cycles
        };
        assert!(
            with < without,
            "L1.5 banks must help big working sets: with={with} without={without}"
        );
    }
}
