//! Manager service-path timing regressions, checked against tracer
//! events.
//!
//! Two bugs used to hide here:
//!
//! 1. On an L1.5 miss the L2 request "teleported" back to the execution
//!    tile: the wire to the manager was charged from `placement.exec`
//!    instead of the bank that missed, and the bank→exec miss
//!    notification was never charged at all. The fix forwards the
//!    request from the bank tile and sends the notify leg
//!    simultaneously; these tests pin both messages in the trace.
//! 2. An SMC invalidation walk charged the manager without reserving
//!    its service ring, so a background commit could be booked into the
//!    same cycles the walk was already charged for (double-charging the
//!    tile). The fix reserves the ring; the span test asserts no two
//!    manager-track service spans overlap, SMC walks included.
//!
//! These run with tracing enabled, which is an observer: the traced
//! runs' cycles/stats are the same as untraced runs (see the
//! determinism suites).

use vta_dbt::{System, VirtualArchConfig};
use vta_sim::{Coord, TraceConfig, TraceEvent, Tracer};
use vta_x86::{Asm, Cond, GuestImage, MemRef, Reg};

const RUN_BUDGET: u64 = 2_000_000_000;
const BASE: u32 = 0x0800_0000;

/// Paper-default placement, as `Coord`s for trace comparison.
const EXEC: Coord = Coord { x: 1, y: 1 };
const MANAGER: Coord = Coord { x: 2, y: 0 };
const BANKS: [Coord; 2] = [Coord { x: 0, y: 1 }, Coord { x: 1, y: 0 }];

/// A branchy multi-block workload: enough distinct blocks to miss L1
/// and both L1.5 banks repeatedly, no self-modifying stores.
fn lookup_heavy_image() -> GuestImage {
    let mut asm = Asm::new(BASE);
    asm.mov_ri(Reg::EBX, 0);
    for i in 0..12u32 {
        asm.mov_ri(Reg::ECX, 40 + i);
        asm.mov_ri(Reg::EAX, 0);
        let top = asm.label();
        asm.bind(top);
        asm.test_ri(Reg::EAX, 1);
        let skip = asm.label();
        asm.jcc(Cond::Ne, skip);
        asm.add_ri(Reg::EBX, 3);
        asm.bind(skip);
        asm.add_ri(Reg::EAX, 1);
        asm.dec_r(Reg::ECX);
        asm.jcc(Cond::Ne, top);
    }
    asm.mov_rr(Reg::EAX, Reg::EBX);
    asm.exit_with_eax();
    GuestImage::from_code(asm.finish())
}

/// A hot loop whose immediate is patched by the guest between passes:
/// every patch fires an SMC page invalidation, whose manager walk must
/// queue on the service ring like any other service.
fn smc_image() -> GuestImage {
    let mut asm = Asm::new(BASE);
    asm.mov_ri(Reg::ESI, 3);
    asm.mov_ri(Reg::EAX, 0);
    let outer = asm.label();
    asm.bind(outer);
    asm.mov_ri(Reg::ECX, 400);
    let top = asm.label();
    asm.bind(top);
    let site = asm.cur_addr();
    asm.mov_ri(Reg::EBX, 11); // imm low byte patched to 99 below
    asm.add_rr(Reg::EAX, Reg::EBX);
    asm.dec_r(Reg::ECX);
    asm.jcc(Cond::Ne, top);
    asm.mov_mi8(MemRef::abs(site + 1), 99);
    asm.dec_r(Reg::ESI);
    asm.jcc(Cond::Ne, outer);
    asm.exit_with_eax();
    GuestImage::from_code(asm.finish())
}

fn traced_run(image: &GuestImage) -> (Tracer, u64) {
    let mut sys = System::new(VirtualArchConfig::paper_default(), image);
    sys.enable_tracing(TraceConfig { capacity: 1 << 16 });
    let report = sys.run(RUN_BUDGET).expect("image runs");
    (sys.take_tracer(), report.stats.get("smc.invalidations"))
}

/// Satellite fix 1: forwarded L2 requests leave the *bank* tile, with a
/// simultaneous one-word miss notification back to the execution tile.
/// With both L1.5 banks present, a no-SMC workload must produce zero
/// exec→manager messages — every request is bank-forwarded — and each
/// forward must pair with a notify injected at the same cycle.
#[test]
fn l15_miss_forwards_from_the_bank_tile() {
    let (tracer, _) = traced_run(&lookup_heavy_image());
    let net: Vec<(u64, Coord, Coord)> = tracer
        .events()
        .filter_map(|e| match *e {
            TraceEvent::NetMsg { ts, src, dst, .. } => Some((ts, src, dst)),
            _ => None,
        })
        .collect();
    let forwards: Vec<&(u64, Coord, Coord)> = net
        .iter()
        .filter(|(_, src, dst)| *dst == MANAGER && BANKS.contains(src))
        .collect();
    assert!(
        !forwards.is_empty(),
        "no bank→manager forwards traced; the miss path regressed to teleporting"
    );
    for &&(ts, src, _) in &forwards {
        assert!(
            net.iter()
                .any(|&(nts, nsrc, ndst)| nts == ts && nsrc == src && ndst == EXEC),
            "forward from {src} at cycle {ts} has no simultaneous miss-notify to exec"
        );
    }
    assert!(
        !net.iter()
            .any(|(_, src, dst)| *src == EXEC && *dst == MANAGER),
        "exec→manager message traced in a no-SMC run: a forwarded \
         request was charged from the wrong tile"
    );
}

/// Satellite fix 3: everything that occupies the manager's service loop
/// — assigns, commits, L2 lookups, and SMC walks — reserves the shared
/// service ring exclusively, so the manager-track spans must tile
/// without overlap. Before the fix, SMC walks skipped the reservation
/// and overlapped in-flight commits.
#[test]
fn manager_service_spans_never_overlap() {
    let (tracer, invalidations) = traced_run(&smc_image());
    assert!(invalidations >= 1, "workload must actually fire SMC");
    let manager_track = tracer
        .tracks()
        .find(|(_, name)| name.starts_with("tile(2,0)"))
        .map(|(id, _)| id)
        .expect("manager tile track registered");
    let mut spans: Vec<(u64, u64, &'static str)> = tracer
        .events()
        .filter_map(|e| match *e {
            TraceEvent::Span {
                ts,
                dur,
                track,
                name,
            } if track == manager_track => Some((ts, dur, name)),
            _ => None,
        })
        .collect();
    assert!(
        spans.iter().any(|&(_, _, n)| n == "smc.walk"),
        "no smc.walk span traced on the manager tile"
    );
    assert!(
        spans.iter().any(|&(_, _, n)| n == "commit"),
        "no commit span traced on the manager tile"
    );
    spans.sort_by_key(|&(ts, dur, _)| (ts, dur));
    for pair in spans.windows(2) {
        let (a_ts, a_dur, a_name) = pair[0];
        let (b_ts, _, b_name) = pair[1];
        assert!(
            a_ts + a_dur <= b_ts,
            "manager spans overlap: {a_name} [{a_ts}, {}) vs {b_name} starting at {b_ts} \
             — the service ring was double-booked",
            a_ts + a_dur
        );
    }
}
