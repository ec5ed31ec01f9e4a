//! Prioritized speculative-translation work queues (§2.1).
//!
//! Translation requests are prioritized by their *speculation depth* —
//! the distance in control-flow edges from the last block known to be on
//! the program's real execution path. Demand misses enter at depth 0;
//! each speculative successor is one deeper; return-predictor addresses
//! enter at low priority ("the code inside of the function has a higher
//! probability of being needed than the return location").

use std::collections::{HashMap, VecDeque};

/// Depth used for return-predictor entries.
pub const RETURN_DEPTH: u8 = 4;

/// A set of FIFO queues indexed by speculation depth (0 = highest).
///
/// Promotion (re-pushing a queued address at a shallower depth) is O(1):
/// instead of scanning the deeper queue to remove the old entry, the live
/// position of every address is kept in a side map keyed by a generation
/// number, and a promoted address simply gets a new generation at the
/// shallower depth. The superseded queue entry becomes a *tombstone* that
/// [`SpecQueues::pop`] skips when its generation no longer matches —
/// observable pop order is identical to eagerly removing it.
#[derive(Debug, Clone)]
pub struct SpecQueues {
    /// FIFO per depth; entries are `(addr, generation)` and may be stale.
    queues: Vec<VecDeque<(u32, u64)>>,
    /// The live `(depth, generation)` of every pending address.
    live: HashMap<u32, (u8, u64)>,
    next_gen: u64,
    max_depth: u8,
    pushes: u64,
    promotions: u64,
}

impl SpecQueues {
    /// Creates queues for depths `0..=max_depth`.
    pub fn new(max_depth: u8) -> SpecQueues {
        SpecQueues {
            queues: vec![VecDeque::new(); max_depth as usize + 1],
            live: HashMap::new(),
            next_gen: 0,
            max_depth,
            pushes: 0,
            promotions: 0,
        }
    }

    /// Enqueues `addr` at `depth` (clamped). Duplicates are dropped;
    /// re-pushing at a *shallower* depth promotes the entry in O(1).
    ///
    /// Counting semantics: [`SpecQueues::pushes`] counts only *newly
    /// accepted* addresses — duplicates and promotions do not increment it
    /// (a promotion is the same pending request changing priority, not new
    /// work; this is what feeds the `spec.pushes` run counter).
    /// Promotions are counted separately by [`SpecQueues::promotions`].
    pub fn push(&mut self, addr: u32, depth: u8) {
        let depth = depth.min(self.max_depth);
        if let Some(&(cur_depth, _)) = self.live.get(&addr) {
            if depth < cur_depth {
                self.next_gen += 1;
                self.live.insert(addr, (depth, self.next_gen));
                self.queues[depth as usize].push_back((addr, self.next_gen));
                self.promotions += 1;
            }
            return;
        }
        self.next_gen += 1;
        self.live.insert(addr, (depth, self.next_gen));
        self.pushes += 1;
        self.queues[depth as usize].push_back((addr, self.next_gen));
    }

    /// Pops the highest-priority pending address, skipping tombstones left
    /// behind by promotions and removals.
    pub fn pop(&mut self) -> Option<(u32, u8)> {
        for d in 0..self.queues.len() {
            while let Some((addr, gen)) = self.queues[d].pop_front() {
                if self.live.get(&addr) == Some(&(d as u8, gen)) {
                    self.live.remove(&addr);
                    return Some((addr, d as u8));
                }
            }
        }
        None
    }

    /// Removes a specific address (e.g. it was translated on demand); its
    /// queue entry becomes a tombstone.
    pub fn remove(&mut self, addr: u32) {
        self.live.remove(&addr);
    }

    /// Total pending entries (the morph manager's reconfiguration metric).
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Whether `addr` is pending.
    pub fn contains(&self, addr: u32) -> bool {
        self.live.contains_key(&addr)
    }

    /// Distinct addresses accepted (promotions and duplicates excluded;
    /// see [`SpecQueues::push`]).
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Pending addresses re-pushed at a shallower depth.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Live entries per speculation depth, index 0..=max_depth (a
    /// point-in-time gauge for the metrics layer; tombstones excluded).
    pub fn depth_lens(&self) -> Vec<usize> {
        let mut lens = vec![0usize; self.queues.len()];
        for &(depth, _) in self.live.values() {
            lens[depth as usize] += 1;
        }
        lens
    }

    /// Drops all speculative work (used when morphing shrinks the pool).
    pub fn clear_speculative(&mut self, keep_depth: u8) {
        for d in (keep_depth as usize + 1)..self.queues.len() {
            while let Some((addr, gen)) = self.queues[d].pop_front() {
                // Only the live entry kills the address: a tombstone here
                // may shadow a promoted copy in a shallower queue.
                if self.live.get(&addr) == Some(&(d as u8, gen)) {
                    self.live.remove(&addr);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_order() {
        let mut q = SpecQueues::new(4);
        q.push(0x30, 3);
        q.push(0x10, 1);
        q.push(0x00, 0);
        q.push(0x11, 1);
        assert_eq!(q.pop(), Some((0x00, 0)));
        assert_eq!(q.pop(), Some((0x10, 1)));
        assert_eq!(q.pop(), Some((0x11, 1)));
        assert_eq!(q.pop(), Some((0x30, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn duplicates_dropped() {
        let mut q = SpecQueues::new(4);
        q.push(0x10, 2);
        q.push(0x10, 2);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn promotion_on_shallower_push() {
        let mut q = SpecQueues::new(4);
        q.push(0x10, 3);
        q.push(0x20, 1);
        q.push(0x10, 0); // promote
        assert_eq!(q.pop(), Some((0x10, 0)));
        assert_eq!(q.pop(), Some((0x20, 1)));
    }

    #[test]
    fn depth_clamped() {
        let mut q = SpecQueues::new(2);
        q.push(0x10, 7);
        assert_eq!(q.pop(), Some((0x10, 2)));
    }

    #[test]
    fn remove_specific() {
        let mut q = SpecQueues::new(2);
        q.push(0x10, 1);
        q.push(0x20, 1);
        q.remove(0x10);
        assert_eq!(q.len(), 1);
        assert!(!q.contains(0x10));
        assert_eq!(q.pop(), Some((0x20, 1)));
    }

    #[test]
    fn clear_speculative_keeps_demand() {
        let mut q = SpecQueues::new(4);
        q.push(0x00, 0);
        q.push(0x10, 2);
        q.push(0x20, 4);
        q.clear_speculative(0);
        assert_eq!(q.len(), 1);
        assert!(q.contains(0x00));
    }

    #[test]
    fn push_counting_semantics() {
        let mut q = SpecQueues::new(4);
        q.push(0x10, 3);
        q.push(0x10, 3); // duplicate: dropped
        q.push(0x10, 1); // promotion
        q.push(0x20, 0);
        assert_eq!(q.pushes(), 2, "only newly accepted addresses count");
        assert_eq!(q.promotions(), 1);
        // Re-pushing after a pop is a new acceptance.
        assert_eq!(q.pop(), Some((0x20, 0)));
        q.push(0x20, 2);
        assert_eq!(q.pushes(), 3);
    }

    #[test]
    fn depth_lens_count_live_entries_only() {
        let mut q = SpecQueues::new(4);
        q.push(0x10, 3);
        q.push(0x20, 3);
        q.push(0x10, 1); // promotion leaves a tombstone at depth 3
        q.push(0x30, 0);
        assert_eq!(q.depth_lens(), [1, 1, 0, 1, 0]);
        q.pop(); // drains 0x30 at depth 0
        assert_eq!(q.depth_lens(), [0, 1, 0, 1, 0]);
        assert_eq!(q.depth_lens().iter().sum::<usize>(), q.len());
    }

    /// A promoted address must pop exactly once, at its promoted depth,
    /// and the tombstone left in the deeper queue must be invisible.
    #[test]
    fn promotion_leaves_no_observable_tombstone() {
        let mut q = SpecQueues::new(4);
        q.push(0x10, 3);
        q.push(0x20, 3);
        q.push(0x10, 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((0x10, 1)));
        assert_eq!(q.pop(), Some((0x20, 3)), "tombstone at depth 3 skipped");
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    /// Re-pushing an address at the depth where its *stale* entry still
    /// sits must not resurrect the tombstone: generations distinguish the
    /// two, so pop order matches the eager-removal implementation.
    #[test]
    fn repush_at_tombstone_depth_keeps_fifo_order() {
        let mut q = SpecQueues::new(4);
        q.push(0x10, 2);
        q.push(0x10, 0); // promote; tombstone left at depth 2 front
        assert_eq!(q.pop(), Some((0x10, 0)));
        q.push(0x30, 2);
        q.push(0x10, 2); // fresh entry behind 0x30, at the tombstone depth
        assert_eq!(q.pop(), Some((0x30, 2)), "FIFO within a depth");
        assert_eq!(q.pop(), Some((0x10, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn remove_leaves_tombstone_invisible_to_pop() {
        let mut q = SpecQueues::new(2);
        q.push(0x10, 1);
        q.push(0x20, 1);
        q.remove(0x10);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((0x20, 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn clear_speculative_spares_promoted_copies() {
        let mut q = SpecQueues::new(4);
        q.push(0x10, 3);
        q.push(0x10, 0); // promoted out of the speculative range
        q.push(0x20, 3);
        q.clear_speculative(1);
        assert!(q.contains(0x10), "promoted copy lives at depth 0");
        assert!(!q.contains(0x20));
        assert_eq!(q.pop(), Some((0x10, 0)));
        assert_eq!(q.pop(), None);
    }

    /// Differential check against a straightforward eager-removal model,
    /// over a deterministic pseudo-random op mix.
    #[test]
    fn matches_eager_removal_model() {
        struct Model {
            queues: Vec<VecDeque<u32>>,
        }
        impl Model {
            fn push(&mut self, addr: u32, depth: u8) {
                let depth = depth.min(4) as usize;
                let cur = self
                    .queues
                    .iter()
                    .position(|q| q.iter().any(|&a| a == addr));
                match cur {
                    Some(d) if depth < d => {
                        let pos = self.queues[d].iter().position(|&a| a == addr).unwrap();
                        self.queues[d].remove(pos);
                        self.queues[depth].push_back(addr);
                    }
                    Some(_) => {}
                    None => self.queues[depth].push_back(addr),
                }
            }
            fn pop(&mut self) -> Option<(u32, u8)> {
                for (d, q) in self.queues.iter_mut().enumerate() {
                    if let Some(a) = q.pop_front() {
                        return Some((a, d as u8));
                    }
                }
                None
            }
        }
        let mut model = Model {
            queues: vec![VecDeque::new(); 5],
        };
        let mut q = SpecQueues::new(4);
        let mut rng = vta_sim::Rng::seeded(0xBADC0DE);
        for step in 0..4000 {
            if rng.chance(2, 3) {
                let addr = rng.below(40) as u32 * 4;
                let depth = rng.below(5) as u8;
                q.push(addr, depth);
                model.push(addr, depth);
            } else {
                assert_eq!(q.pop(), model.pop(), "step {step}");
            }
            assert_eq!(
                q.len(),
                model.queues.iter().map(VecDeque::len).sum::<usize>(),
                "step {step}"
            );
        }
        while let Some(got) = q.pop() {
            assert_eq!(Some(got), model.pop(), "drain");
        }
        assert_eq!(model.pop(), None);
    }
}
