//! Translation slave tiles.
//!
//! A slave owns one translation at a time; the manager assigns work from
//! the speculative queues and collects finished blocks. There is **no
//! preemption**: a demand miss that arrives while every slave is busy
//! waits for the first slave to finish — the paper identifies exactly
//! this as the reason vpr/gcc/crafty run slower with speculation (§4.3).
//! The optional reserved demand slave implements the fix the paper
//! proposes.
//!
//! **Canonical commit order.** [`SlavePool::pop_done`] releases finished
//! translations strictly min-keyed by `(done_at, slave index)` — the
//! simulated completion cycle with the tile id as tie-break. Every
//! consumer (manager commit, stats, trace) observes completions in this
//! one total order, which is what makes the simulation deterministic
//! regardless of how long the *host* took to produce each block.

use std::sync::Arc;

use vta_ir::{RegionShape, TBlock};
use vta_raw::TileId;
use vta_sim::Cycle;

/// A translation in progress on one slave.
#[derive(Debug, Clone)]
pub struct InFlight {
    /// Guest address being translated.
    pub addr: u32,
    /// Speculation depth it was popped at.
    pub depth: u8,
    /// Cycle at which the finished block reaches the manager.
    pub done_at: Cycle,
    /// The shape the block was translated under: single block, static
    /// region, or a region along a recorded path. A promotion (or a
    /// fresh recording) that lands while the translation is in flight
    /// makes the shape stale; the commit path drops such blocks.
    pub shape: RegionShape,
    /// Set by SMC invalidation: the block was translated from bytes
    /// the guest has since overwritten, so the commit path drops it.
    pub cancelled: bool,
    /// The result (precomputed functionally; timing charged via `done_at`).
    pub block: Option<Arc<TBlock>>,
}

/// One translation slave tile.
#[derive(Debug, Clone)]
pub struct Slave {
    /// Grid position (network distance to the manager matters).
    pub tile: TileId,
    /// Work in progress, if any.
    pub current: Option<InFlight>,
    /// Total blocks translated.
    pub completed: u64,
    /// Cycles spent translating.
    pub busy_cycles: u64,
}

impl Slave {
    /// Creates an idle slave on `tile`.
    pub fn new(tile: TileId) -> Slave {
        Slave {
            tile,
            current: None,
            completed: 0,
            busy_cycles: 0,
        }
    }

    /// Whether the slave is idle.
    pub fn is_idle(&self) -> bool {
        self.current.is_none()
    }
}

/// The pool of translation slaves (grown and shrunk by morphing).
#[derive(Debug, Clone, Default)]
pub struct SlavePool {
    slaves: Vec<Slave>,
}

impl SlavePool {
    /// Creates a pool on the given tiles.
    pub fn new(tiles: &[TileId]) -> SlavePool {
        SlavePool {
            slaves: tiles.iter().copied().map(Slave::new).collect(),
        }
    }

    /// Number of slaves.
    pub fn len(&self) -> usize {
        self.slaves.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.slaves.is_empty()
    }

    /// Index of an idle slave, if any (lowest index first, so demand
    /// reservations can pin slave 0).
    pub fn idle_slave(&self, skip_reserved: usize) -> Option<usize> {
        self.slaves
            .iter()
            .enumerate()
            .skip(skip_reserved)
            .find(|(_, s)| s.is_idle())
            .map(|(i, _)| i)
    }

    /// Index of the reserved slave if it is idle.
    pub fn reserved_idle(&self) -> Option<usize> {
        self.slaves.first().and_then(|s| s.is_idle().then_some(0))
    }

    /// Mutable access to a slave.
    pub fn slave_mut(&mut self, i: usize) -> &mut Slave {
        &mut self.slaves[i]
    }

    /// Shared access to a slave.
    pub fn slave(&self, i: usize) -> &Slave {
        &self.slaves[i]
    }

    /// Earliest completion among busy slaves.
    pub fn earliest_done(&self) -> Option<(usize, Cycle)> {
        self.slaves
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.current.as_ref().map(|c| (i, c.done_at)))
            .min_by_key(|&(i, c)| (c, i))
    }

    /// Completions ready at or before `now`, in the canonical commit
    /// order: min `(done_at, slave index)`. This ordering is a
    /// determinism invariant — see the module docs.
    pub fn pop_done(&mut self, now: Cycle) -> Option<(usize, InFlight)> {
        let ready = self
            .slaves
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.current.as_ref().map(|c| (i, c.done_at)))
            .filter(|&(_, c)| c <= now)
            .min_by_key(|&(i, c)| (c, i))?;
        let i = ready.0;
        let inflight = self.slaves[i].current.take().expect("was busy");
        self.slaves[i].completed += 1;
        Some((i, inflight))
    }

    /// Grows the pool by one slave on `tile`.
    pub fn grow(&mut self, tile: TileId) {
        self.slaves.push(Slave::new(tile));
    }

    /// Retires one slave, preferring an idle one; a busy slave finishes
    /// its current block first (its tile is reclaimed at `done_at`).
    /// Returns the tile freed and the cycle it becomes free.
    pub fn shrink(&mut self, now: Cycle) -> Option<(TileId, Cycle)> {
        if self.slaves.len() <= 1 {
            return None;
        }
        // Prefer retiring an idle slave (from the back: keep slave 0 as
        // the demand-reserved slot stable).
        if let Some(i) = self.slaves.iter().rposition(Slave::is_idle) {
            let s = self.slaves.remove(i);
            return Some((s.tile, now));
        }
        let (i, done) = self
            .slaves
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s.current.as_ref().expect("all busy").done_at))
            .max_by_key(|&(_, c)| c)?;
        let _ = done;
        let s = self.slaves.remove(i);
        let free_at = s.current.as_ref().expect("busy").done_at;
        // The in-flight work is abandoned (it will be re-requested if
        // actually needed).
        Some((s.tile, free_at))
    }

    /// Sum of per-slave busy cycles.
    pub fn total_busy(&self) -> u64 {
        self.slaves.iter().map(|s| s.busy_cycles).sum()
    }

    /// Total completed translations.
    pub fn total_completed(&self) -> u64 {
        self.slaves.iter().map(|s| s.completed).sum()
    }

    /// Marks every in-flight translation cancelled (SMC invalidation:
    /// their functional results may derive from overwritten bytes).
    /// The slaves still finish — the cycles were genuinely burned —
    /// but the commit path discards the blocks.
    pub fn cancel_in_flight(&mut self) {
        for s in &mut self.slaves {
            if let Some(c) = &mut s.current {
                c.cancelled = true;
            }
        }
    }

    /// The slave currently translating `addr`, if any.
    pub fn translating(&self, addr: u32) -> Option<usize> {
        self.slaves
            .iter()
            .position(|s| s.current.as_ref().is_some_and(|c| c.addr == addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u8) -> TileId {
        TileId::new(n % 4, n / 4)
    }

    fn flight(addr: u32, done: u64) -> InFlight {
        InFlight {
            addr,
            depth: 0,
            done_at: Cycle(done),
            shape: RegionShape::Single,
            cancelled: false,
            block: None,
        }
    }

    #[test]
    fn idle_selection_skips_reserved() {
        let mut pool = SlavePool::new(&[t(0), t(1), t(2)]);
        assert_eq!(pool.idle_slave(0), Some(0));
        assert_eq!(pool.idle_slave(1), Some(1));
        pool.slave_mut(1).current = Some(flight(0x10, 100));
        assert_eq!(pool.idle_slave(1), Some(2));
    }

    #[test]
    fn completions_in_time_order() {
        let mut pool = SlavePool::new(&[t(0), t(1)]);
        pool.slave_mut(0).current = Some(flight(0xA, 200));
        pool.slave_mut(1).current = Some(flight(0xB, 100));
        assert_eq!(pool.earliest_done(), Some((1, Cycle(100))));
        assert!(pool.pop_done(Cycle(99)).is_none());
        let (i, f) = pool.pop_done(Cycle(300)).expect("ready");
        assert_eq!((i, f.addr), (1, 0xB));
        let (i, f) = pool.pop_done(Cycle(300)).expect("ready");
        assert_eq!((i, f.addr), (0, 0xA));
        assert_eq!(pool.total_completed(), 2);
    }

    #[test]
    fn completions_tie_break_on_slave_index() {
        // Two slaves finishing on the same cycle: the lower tile index
        // commits first, every time — the canonical order's tie-break.
        let mut pool = SlavePool::new(&[t(0), t(1), t(2)]);
        pool.slave_mut(2).current = Some(flight(0xC, 100));
        pool.slave_mut(0).current = Some(flight(0xA, 100));
        pool.slave_mut(1).current = Some(flight(0xB, 100));
        let order: Vec<_> = std::iter::from_fn(|| pool.pop_done(Cycle(100)))
            .map(|(i, f)| (i, f.addr))
            .collect();
        assert_eq!(order, vec![(0, 0xA), (1, 0xB), (2, 0xC)]);
    }

    #[test]
    fn shrink_prefers_idle() {
        let mut pool = SlavePool::new(&[t(0), t(1), t(2)]);
        pool.slave_mut(1).current = Some(flight(0xA, 500));
        let (tile, at) = pool.shrink(Cycle(10)).expect("shrinks");
        assert_eq!(tile, t(2), "idle slave retired first");
        assert_eq!(at, Cycle(10));
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn shrink_busy_waits_for_completion() {
        let mut pool = SlavePool::new(&[t(0), t(1)]);
        pool.slave_mut(0).current = Some(flight(0xA, 300));
        pool.slave_mut(1).current = Some(flight(0xB, 700));
        let (tile, at) = pool.shrink(Cycle(10)).expect("shrinks");
        assert_eq!(tile, t(1), "latest-finishing busy slave retired");
        assert_eq!(at, Cycle(700));
    }

    #[test]
    fn shrink_keeps_at_least_one() {
        let mut pool = SlavePool::new(&[t(0)]);
        assert!(pool.shrink(Cycle(0)).is_none());
    }

    #[test]
    fn translating_lookup() {
        let mut pool = SlavePool::new(&[t(0), t(1)]);
        pool.slave_mut(1).current = Some(flight(0x42, 100));
        assert_eq!(pool.translating(0x42), Some(1));
        assert_eq!(pool.translating(0x43), None);
    }
}
