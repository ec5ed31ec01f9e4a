//! The three-level code cache hierarchy (Figure 3).
//!
//! - **L1**: translated blocks copied into the execution tile's
//!   software-managed instruction memory. Blocks are tight-packed; when
//!   the next block does not fit, the whole cache is flushed (the paper's
//!   "tight packing and flushing algorithm", §4.2). Chaining is only
//!   possible here, because only at copy-in time is a block's absolute
//!   position known. Host-side, resident blocks live in a slot arena
//!   addressed by generational [`BlockHandle`]s: the dispatch loop caches
//!   a block's chain successors as handles, so the hot
//!   block→chained-block edge never touches the address table, and a
//!   guest-address lookup is one probe of an open-addressed table.
//! - **L1.5**: one or two dedicated tiles holding recently used translated
//!   blocks close to the execution tile; no chaining through it.
//! - **L2**: the manager tile's map of every translation, stored in
//!   off-chip DRAM (105 MB in the paper) — plus in-flight bookkeeping for
//!   the speculative translation pipeline.

use std::collections::HashMap;
use std::sync::Arc;

use vta_ir::TBlock;

/// A generational handle into the L1 arena.
///
/// A handle stays valid until its slot is cleared — by a whole-cache
/// flush, an SMC invalidation, or an overwriting insert — each of which
/// bumps the slot's generation. A stale handle simply fails the
/// generation check; it can never reach a block other than the one it
/// was created for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHandle {
    slot: u32,
    gen: u32,
}

/// One arena slot: the resident block plus the slot's generation, a small
/// direct-chain successor cache, and an inline indirect-target cache.
///
/// The successor cache has four entries: a basic block's terminator names
/// at most two static targets, but a superblock region also exits through
/// its side exits and SMC-guard resumes, so its direct-exit fanout is
/// wider. The indirect cache (`itc`) models the small per-site
/// target-prediction cache patched next to a translated `ret`/indirect
/// `jmp` — the paper's return predictor generalized — and is checked
/// before falling back to dispatch.
#[derive(Debug, Clone)]
struct Slot {
    block: Option<Arc<TBlock>>,
    gen: u32,
    succ: [Option<(u32, BlockHandle)>; 4],
    itc: [Option<(u32, BlockHandle)>; 4],
    /// Round-robin eviction cursor for `itc` (deterministic).
    itc_next: u8,
}

const EMPTY: u32 = u32::MAX;
const TOMB: u32 = u32::MAX - 1;

/// The execution tile's L1 code cache (instruction memory).
///
/// Host-side, blocks live in a slot arena indexed by an open-addressed
/// `guest_addr → slot` table (linear probing). The dispatch loop holds
/// [`BlockHandle`]s and caches chain successors per slot, so the hot
/// chained-dispatch edge is two generation checks and an array index —
/// no hashing.
#[derive(Debug, Clone)]
pub struct L1Code {
    capacity: u32,
    used: u32,
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    /// `(guest_addr, slot)` entries; `EMPTY`/`TOMB` keys are vacant.
    /// Length is a power of two.
    table: Vec<(u32, u32)>,
    /// Live entries plus tombstones (bounds the probe length).
    occupied: usize,
    len: usize,
    flushes: u64,
    inserts: u64,
}

#[inline]
fn hash_addr(addr: u32) -> usize {
    // Fibonacci hashing; guest code addresses are word-aligned so the
    // low bits alone would collide.
    (addr.wrapping_mul(0x9E37_79B1) >> 7) as usize
}

impl L1Code {
    /// Creates an empty L1 code cache of `capacity` bytes.
    pub fn new(capacity: u32) -> L1Code {
        L1Code {
            capacity,
            used: 0,
            slots: Vec::new(),
            free_slots: Vec::new(),
            table: vec![(EMPTY, 0); 64],
            occupied: 0,
            len: 0,
            flushes: 0,
            inserts: 0,
        }
    }

    /// Looks up a resident translation's handle.
    #[inline]
    pub fn lookup(&self, guest_addr: u32) -> Option<BlockHandle> {
        let mask = self.table.len() - 1;
        let mut i = hash_addr(guest_addr) & mask;
        loop {
            let (key, slot) = self.table[i];
            if key == guest_addr {
                return Some(BlockHandle {
                    slot,
                    gen: self.slots[slot as usize].gen,
                });
            }
            if key == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Resolves a handle to its block; `None` if the slot has been
    /// cleared (flush / invalidation) since the handle was created.
    #[inline]
    pub fn handle_block(&self, h: BlockHandle) -> Option<&Arc<TBlock>> {
        let slot = &self.slots[h.slot as usize];
        if slot.gen == h.gen {
            slot.block.as_ref()
        } else {
            None
        }
    }

    /// The cached chain successor of `h`'s block for branch target
    /// `target`, if still valid.
    #[inline]
    pub fn cached_succ(&self, h: BlockHandle, target: u32) -> Option<BlockHandle> {
        let slot = &self.slots[h.slot as usize];
        if slot.gen != h.gen {
            return None;
        }
        for entry in slot.succ.iter().flatten() {
            if entry.0 == target {
                let s = entry.1;
                if self.slots[s.slot as usize].gen == s.gen {
                    return Some(s);
                }
                return None;
            }
        }
        None
    }

    /// Records `succ` as the chain successor of `h`'s block for branch
    /// target `target`.
    pub fn cache_succ(&mut self, h: BlockHandle, target: u32, succ: BlockHandle) {
        let slot = &mut self.slots[h.slot as usize];
        if slot.gen != h.gen {
            return;
        }
        // Reuse a matching or empty entry, else evict the last (direct
        // exits of one block rarely exceed the four entries).
        let idx = slot
            .succ
            .iter()
            .position(|e| e.is_none() || e.is_some_and(|(t, _)| t == target))
            .unwrap_or(slot.succ.len() - 1);
        slot.succ[idx] = Some((target, succ));
    }

    /// The inline-cache prediction of `h`'s block for indirect target
    /// `target`, if cached and still valid.
    #[inline]
    pub fn cached_indirect(&self, h: BlockHandle, target: u32) -> Option<BlockHandle> {
        let slot = &self.slots[h.slot as usize];
        if slot.gen != h.gen {
            return None;
        }
        for entry in slot.itc.iter().flatten() {
            if entry.0 == target {
                let s = entry.1;
                if self.slots[s.slot as usize].gen == s.gen {
                    return Some(s);
                }
                return None;
            }
        }
        None
    }

    /// Records `succ` in `h`'s inline indirect-target cache under guest
    /// target `target` (round-robin eviction when full).
    pub fn cache_indirect(&mut self, h: BlockHandle, target: u32, succ: BlockHandle) {
        let slot = &mut self.slots[h.slot as usize];
        if slot.gen != h.gen {
            return;
        }
        let idx = match slot
            .itc
            .iter()
            .position(|e| e.is_none() || e.is_some_and(|(t, _)| t == target))
        {
            Some(i) => i,
            None => {
                let i = slot.itc_next as usize % slot.itc.len();
                slot.itc_next = slot.itc_next.wrapping_add(1);
                i
            }
        };
        slot.itc[idx] = Some((target, succ));
    }

    /// Looks up a resident translation.
    pub fn get(&self, guest_addr: u32) -> Option<&Arc<TBlock>> {
        self.lookup(guest_addr).map(|h| {
            self.slots[h.slot as usize]
                .block
                .as_ref()
                .expect("live slot")
        })
    }

    /// Whether a translation for `guest_addr` is resident (chainable).
    #[inline]
    pub fn contains(&self, guest_addr: u32) -> bool {
        self.lookup(guest_addr).is_some()
    }

    /// Inserts a block, tight-packing; returns `true` if the cache had to
    /// be flushed to make room. Blocks larger than the whole cache are
    /// not cached (they execute from the fetch path each time).
    pub fn insert(&mut self, block: Arc<TBlock>) -> bool {
        let bytes = block.host_bytes();
        if bytes > self.capacity {
            return false;
        }
        let mut flushed = false;
        if self.used + bytes > self.capacity {
            self.flush_all();
            flushed = true;
        }
        self.used += bytes;
        self.inserts += 1;
        let addr = block.guest_addr;
        // Overwrite an existing mapping by retiring its slot; stale
        // handles to the old block fail their generation check.
        if let Some(h) = self.lookup(addr) {
            self.clear_slot(h.slot);
            self.table_remove(addr);
        }
        let slot = self.alloc_slot(block);
        self.table_insert(addr, slot);
        flushed
    }

    /// Drops one translation (self-modifying-code invalidation). Any
    /// outstanding handle or cached chain edge to it goes stale.
    pub fn invalidate(&mut self, guest_addr: u32) {
        if let Some(h) = self.lookup(guest_addr) {
            let bytes = self.slots[h.slot as usize]
                .block
                .as_ref()
                .expect("live slot")
                .host_bytes();
            self.used = self.used.saturating_sub(bytes);
            self.clear_slot(h.slot);
            self.table_remove(guest_addr);
        }
    }

    /// Drops every inline indirect-target cache entry predicting a
    /// target inside `page` (a 4 KiB page number). SMC invalidation
    /// calls this on the modeled hardware's behalf: the compare patched
    /// next to each indirect site holds a *guest code address*, and on
    /// the real machine nothing re-checks it once new code for that
    /// address is installed — the patch itself must be flushed. The
    /// host-side handle in the entry happens to go stale through its
    /// generation check too, but only as long as handles are the lookup
    /// mechanism; the purge keeps the model honest rather than leaning
    /// on that accident.
    pub fn purge_indirect_targets(&mut self, page: u32) {
        for slot in &mut self.slots {
            for e in &mut slot.itc {
                if e.is_some_and(|(t, _)| t / 4096 == page) {
                    *e = None;
                }
            }
        }
    }

    /// Number of whole-cache flushes so far.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Bytes currently packed.
    pub fn used_bytes(&self) -> u32 {
        self.used
    }

    /// Flush-all: clear every slot (bumping its generation) and reset
    /// the address table.
    fn flush_all(&mut self) {
        for i in 0..self.slots.len() {
            if self.slots[i].block.is_some() {
                self.clear_slot(i as u32);
            }
        }
        self.table.fill((EMPTY, 0));
        self.occupied = 0;
        self.len = 0;
        self.used = 0;
        self.flushes += 1;
    }

    fn alloc_slot(&mut self, block: Arc<TBlock>) -> u32 {
        if let Some(i) = self.free_slots.pop() {
            let s = &mut self.slots[i as usize];
            s.block = Some(block);
            s.succ = [None; 4];
            s.itc = [None; 4];
            s.itc_next = 0;
            i
        } else {
            self.slots.push(Slot {
                block: Some(block),
                gen: 0,
                succ: [None; 4],
                itc: [None; 4],
                itc_next: 0,
            });
            (self.slots.len() - 1) as u32
        }
    }

    fn clear_slot(&mut self, i: u32) {
        let s = &mut self.slots[i as usize];
        s.block = None;
        s.gen = s.gen.wrapping_add(1);
        s.succ = [None; 4];
        s.itc = [None; 4];
        s.itc_next = 0;
        self.free_slots.push(i);
    }

    fn table_insert(&mut self, addr: u32, slot: u32) {
        if (self.occupied + 1) * 4 > self.table.len() * 3 {
            self.rehash(self.table.len() * 2);
        }
        let mask = self.table.len() - 1;
        let mut i = hash_addr(addr) & mask;
        loop {
            let (key, _) = self.table[i];
            if key == EMPTY || key == TOMB {
                if key == EMPTY {
                    self.occupied += 1;
                }
                self.table[i] = (addr, slot);
                self.len += 1;
                return;
            }
            debug_assert_ne!(key, addr, "caller removes the old mapping first");
            i = (i + 1) & mask;
        }
    }

    fn table_remove(&mut self, addr: u32) {
        let mask = self.table.len() - 1;
        let mut i = hash_addr(addr) & mask;
        loop {
            let (key, _) = self.table[i];
            if key == addr {
                self.table[i] = (TOMB, 0);
                self.len -= 1;
                return;
            }
            if key == EMPTY {
                return;
            }
            i = (i + 1) & mask;
        }
    }

    fn rehash(&mut self, new_len: usize) {
        let old = std::mem::replace(&mut self.table, vec![(EMPTY, 0); new_len]);
        self.occupied = 0;
        self.len = 0;
        for (key, slot) in old {
            if key != EMPTY && key != TOMB {
                self.table_insert(key, slot);
            }
        }
    }
}

/// One L1.5 code-cache bank tile.
///
/// Eviction is *hash-retention* rather than LRU: each block has a fixed
/// pseudo-random priority derived from its guest address, and
/// low-priority blocks stick. Under a cyclic sweep larger than the bank
/// (the gcc/vortex pattern) LRU retains nothing, while a sticky subset
/// gives the capacity-proportional hit rate a hashed hardware cache
/// would.
#[derive(Debug, Clone)]
pub struct L15Bank {
    capacity: u32,
    used: u32,
    blocks: HashMap<u32, (Arc<TBlock>, u64)>,
    tick: u64,
}

impl L15Bank {
    /// Creates an empty bank of `capacity` bytes.
    pub fn new(capacity: u32) -> L15Bank {
        L15Bank {
            capacity,
            used: 0,
            blocks: HashMap::new(),
            tick: 0,
        }
    }

    /// Looks up a block.
    pub fn get(&mut self, guest_addr: u32) -> Option<Arc<TBlock>> {
        self.tick += 1;
        self.blocks.get(&guest_addr).map(|(b, _)| Arc::clone(b))
    }

    /// Fixed per-address retention priority (lower sticks harder).
    fn retention(addr: u32) -> u64 {
        (addr ^ 0x9E37_79B9).wrapping_mul(0x85EB_CA6B) as u64
    }

    /// Inserts a block; evicts the highest-retention-priority blocks
    /// (possibly the incoming block itself) until the bank fits.
    pub fn insert(&mut self, block: Arc<TBlock>) {
        let bytes = block.host_bytes();
        if bytes > self.capacity {
            return;
        }
        self.tick += 1;
        self.used += bytes;
        self.blocks.insert(block.guest_addr, (block, self.tick));
        while self.used > self.capacity {
            let victim = self
                .blocks
                .keys()
                .max_by_key(|&&a| Self::retention(a))
                .copied()
                .expect("cache non-empty when over capacity");
            let (b, _) = self.blocks.remove(&victim).expect("victim present");
            self.used -= b.host_bytes();
        }
    }

    /// Drops one translation.
    pub fn invalidate(&mut self, guest_addr: u32) {
        if let Some((b, _)) = self.blocks.remove(&guest_addr) {
            self.used -= b.host_bytes();
        }
    }
}

/// The manager tile's L2 code cache (in DRAM) plus translation
/// bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct L2Code {
    capacity: u64,
    used: u64,
    blocks: HashMap<u32, Arc<TBlock>>,
    /// Guest addresses currently being translated by a slave.
    in_flight: HashMap<u32, usize>,
}

impl L2Code {
    /// Creates an empty L2 code cache of `capacity` bytes.
    pub fn new(capacity: u64) -> L2Code {
        L2Code {
            capacity,
            ..L2Code::default()
        }
    }

    /// Looks up a committed translation.
    pub fn get(&self, guest_addr: u32) -> Option<&Arc<TBlock>> {
        self.blocks.get(&guest_addr)
    }

    /// Whether `guest_addr` is translated or being translated.
    pub fn known(&self, guest_addr: u32) -> bool {
        self.blocks.contains_key(&guest_addr) || self.in_flight.contains_key(&guest_addr)
    }

    /// Commits a finished translation. At capacity the cache drops the
    /// new block (105 MB never fills in practice).
    ///
    /// This is the single point where translations become visible to the
    /// simulation, and it is only ever reached in canonical commit order
    /// (see [`crate::slave`]).
    pub fn commit(&mut self, block: Arc<TBlock>) {
        self.in_flight.remove(&block.guest_addr);
        let bytes = block.host_bytes() as u64;
        if self.used + bytes > self.capacity {
            return;
        }
        self.used += bytes;
        self.blocks.insert(block.guest_addr, block);
    }

    /// Marks `guest_addr` as being translated by `slave`.
    pub fn mark_in_flight(&mut self, guest_addr: u32, slave: usize) {
        self.in_flight.insert(guest_addr, slave);
    }

    /// The slave translating `guest_addr`, if any.
    pub fn in_flight_on(&self, guest_addr: u32) -> Option<usize> {
        self.in_flight.get(&guest_addr).copied()
    }

    /// Clears an in-flight mark without committing (the translation was
    /// dropped: cancelled by SMC, or its shape went stale).
    pub fn clear_in_flight(&mut self, guest_addr: u32) {
        self.in_flight.remove(&guest_addr);
    }

    /// Drops a translation (self-modifying-code invalidation).
    pub fn invalidate(&mut self, guest_addr: u32) {
        if let Some(b) = self.blocks.remove(&guest_addr) {
            self.used -= b.host_bytes() as u64;
        }
    }

    /// All committed guest addresses (used by SMC page invalidation).
    pub fn addrs(&self) -> impl Iterator<Item = u32> + '_ {
        self.blocks.keys().copied()
    }

    /// Bytes committed.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vta_raw::isa::RInsn;

    fn block(addr: u32, insns: usize) -> Arc<TBlock> {
        Arc::new(TBlock {
            guest_addr: addr,
            guest_len: 4,
            guest_insns: 1,
            code: vec![RInsn::Nop; insns],
            translate_cycles: 100,
            term: vta_ir::mir::Term::Halt,
            is_call: false,
            ranges: vec![(addr, 4)],
            member_insns: vec![1],
        })
    }

    #[test]
    fn l1_tight_pack_then_flush() {
        let mut l1 = L1Code::new(100); // room for 25 words
        assert!(!l1.insert(block(0x1000, 10))); // 40 bytes
        assert!(!l1.insert(block(0x2000, 10))); // 80 bytes
        assert!(l1.contains(0x1000));
        // Next insert exceeds capacity → flush-all.
        assert!(l1.insert(block(0x3000, 10)));
        assert!(!l1.contains(0x1000), "flush removes everything");
        assert!(l1.contains(0x3000));
        assert_eq!(l1.flushes(), 1);
        assert_eq!(l1.used_bytes(), 40);
    }

    #[test]
    fn l1_oversize_block_not_cached() {
        let mut l1 = L1Code::new(100);
        assert!(!l1.insert(block(0x1000, 100))); // 400 bytes > 100
        assert!(!l1.contains(0x1000));
        assert_eq!(l1.used_bytes(), 0);
    }

    #[test]
    fn l1_invalidate_reclaims() {
        let mut l1 = L1Code::new(100);
        l1.insert(block(0x1000, 10));
        l1.invalidate(0x1000);
        assert!(!l1.contains(0x1000));
        assert_eq!(l1.used_bytes(), 0);
    }

    #[test]
    fn l1_handle_goes_stale_on_invalidate() {
        let mut l1 = L1Code::new(1000);
        l1.insert(block(0x1000, 10));
        let h = l1.lookup(0x1000).expect("resident");
        assert!(l1.handle_block(h).is_some());
        l1.invalidate(0x1000);
        assert!(l1.handle_block(h).is_none(), "stale generation");
        // Reinsert: old handle must stay stale even if the slot is reused.
        l1.insert(block(0x1000, 10));
        assert!(l1.handle_block(h).is_none());
        assert!(l1.lookup(0x1000).is_some());
    }

    #[test]
    fn l1_handle_goes_stale_on_flush() {
        let mut l1 = L1Code::new(100);
        l1.insert(block(0x1000, 10));
        let h = l1.lookup(0x1000).expect("resident");
        assert!(l1.insert(block(0x2000, 10)) || l1.insert(block(0x3000, 10)));
        assert!(l1.handle_block(h).is_none(), "flush revokes handles");
    }

    #[test]
    fn l1_chain_succ_cache() {
        let mut l1 = L1Code::new(1000);
        l1.insert(block(0x1000, 5));
        l1.insert(block(0x2000, 5));
        let a = l1.lookup(0x1000).unwrap();
        let b = l1.lookup(0x2000).unwrap();
        assert_eq!(l1.cached_succ(a, 0x2000), None, "cold");
        l1.cache_succ(a, 0x2000, b);
        assert_eq!(l1.cached_succ(a, 0x2000), Some(b));
        assert_eq!(l1.cached_succ(a, 0x3000), None, "different target");
        // Invalidating the successor makes the edge stale.
        l1.invalidate(0x2000);
        assert_eq!(l1.cached_succ(a, 0x2000), None);
        // Two distinct targets fit (cond-branch fanout).
        l1.insert(block(0x2000, 5));
        l1.insert(block(0x4000, 5));
        let b2 = l1.lookup(0x2000).unwrap();
        let c = l1.lookup(0x4000).unwrap();
        l1.cache_succ(a, 0x2000, b2);
        l1.cache_succ(a, 0x4000, c);
        assert_eq!(l1.cached_succ(a, 0x2000), Some(b2));
        assert_eq!(l1.cached_succ(a, 0x4000), Some(c));
    }

    #[test]
    fn l1_inline_indirect_cache() {
        let mut l1 = L1Code::new(1000);
        l1.insert(block(0x1000, 5));
        let a = l1.lookup(0x1000).unwrap();
        for (i, addr) in [0x2000u32, 0x3000, 0x4000, 0x5000].iter().enumerate() {
            l1.insert(block(*addr, 1));
            let t = l1.lookup(*addr).unwrap();
            l1.cache_indirect(a, *addr, t);
            assert_eq!(l1.cached_indirect(a, *addr), Some(t), "entry {i}");
        }
        // A fifth target evicts round-robin; the cache still answers for
        // the newest entry and misses cleanly on the evicted one.
        l1.insert(block(0x6000, 1));
        let t6 = l1.lookup(0x6000).unwrap();
        l1.cache_indirect(a, 0x6000, t6);
        assert_eq!(l1.cached_indirect(a, 0x6000), Some(t6));
        assert_eq!(l1.cached_indirect(a, 0x2000), None, "evicted");
        // Invalidating a cached target's translation revokes the entry.
        l1.invalidate(0x6000);
        assert_eq!(l1.cached_indirect(a, 0x6000), None, "stale generation");
        // Invalidating the *source* block revokes the whole cache.
        l1.invalidate(0x1000);
        assert_eq!(l1.cached_indirect(a, 0x3000), None);
    }

    #[test]
    fn l1_purge_indirect_targets_by_page() {
        // SMC invalidation of a page must flush inline-cache entries
        // predicting targets *inside* that page even when the target's
        // own translation is still resident — the hardware's patched
        // compare holds a raw guest address and never re-checks it.
        let mut l1 = L1Code::new(1000);
        l1.insert(block(0x1000, 5));
        let a = l1.lookup(0x1000).unwrap();
        l1.insert(block(0x2000, 1));
        l1.insert(block(0x3000, 1));
        let t2 = l1.lookup(0x2000).unwrap();
        let t3 = l1.lookup(0x3000).unwrap();
        l1.cache_indirect(a, 0x2000, t2);
        l1.cache_indirect(a, 0x3000, t3);
        l1.purge_indirect_targets(0x2000 / 4096);
        assert_eq!(
            l1.cached_indirect(a, 0x2000),
            None,
            "entry into the invalidated page purged despite a live target"
        );
        assert_eq!(
            l1.cached_indirect(a, 0x3000),
            Some(t3),
            "entries into other pages survive"
        );
    }

    #[test]
    fn l1_table_grows_past_initial_capacity() {
        // More than 64 resident blocks forces open-addressed rehashing.
        let mut l1 = L1Code::new(1 << 20);
        for i in 0..500u32 {
            assert!(!l1.insert(block(0x1000 + i * 16, 1)));
        }
        for i in 0..500u32 {
            assert!(l1.contains(0x1000 + i * 16), "addr {i} resident");
        }
        assert!(!l1.contains(0x0));
    }

    #[test]
    fn l1_tombstone_reuse_keeps_probes_bounded() {
        // Insert/invalidate churn at the same load factor must not wedge
        // the probe sequence (tombstones are reusable).
        let mut l1 = L1Code::new(1 << 20);
        for round in 0..50u32 {
            for i in 0..40u32 {
                l1.insert(block(0x1000 + i * 4, 1));
            }
            for i in 0..40u32 {
                l1.invalidate(0x1000 + i * 4);
            }
            assert_eq!(l1.used_bytes(), 0, "round {round}");
        }
        assert!(!l1.contains(0x1000));
    }

    #[test]
    fn l15_hash_retention_is_stable() {
        // Cyclic sweep over 3 blocks through a 2-block bank: a fixed
        // subset must stay resident (LRU would evict everything).
        let mut bank = L15Bank::new(100);
        let addrs = [0x1000u32, 0x2000, 0x3000];
        for _ in 0..4 {
            for &a in &addrs {
                if bank.get(a).is_none() {
                    bank.insert(block(a, 10));
                }
            }
        }
        let resident: Vec<u32> = addrs
            .iter()
            .copied()
            .filter(|&a| bank.get(a).is_some())
            .collect();
        assert_eq!(resident.len(), 2, "two of three fit and must stick");
        // The resident set is deterministic across rebuilds.
        let mut bank2 = L15Bank::new(100);
        for _ in 0..4 {
            for &a in &addrs {
                if bank2.get(a).is_none() {
                    bank2.insert(block(a, 10));
                }
            }
        }
        for &a in &resident {
            assert!(bank2.get(a).is_some());
        }
    }

    #[test]
    fn l15_oversize_block_skipped() {
        let mut bank = L15Bank::new(16);
        bank.insert(block(0x1000, 10)); // 40 bytes > 16
        assert!(bank.get(0x1000).is_none());
    }

    #[test]
    fn l2_commit_and_in_flight() {
        let mut l2 = L2Code::new(1 << 20);
        assert!(!l2.known(0x1000));
        l2.mark_in_flight(0x1000, 3);
        assert!(l2.known(0x1000));
        assert_eq!(l2.in_flight_on(0x1000), Some(3));
        l2.commit(block(0x1000, 10));
        assert!(l2.get(0x1000).is_some());
        assert_eq!(l2.in_flight_on(0x1000), None);
        assert_eq!(l2.used_bytes(), 40);
    }

    #[test]
    fn l2_invalidate() {
        let mut l2 = L2Code::new(1 << 20);
        l2.commit(block(0x1000, 10));
        l2.invalidate(0x1000);
        assert!(l2.get(0x1000).is_none());
        assert_eq!(l2.used_bytes(), 0);
    }
}
