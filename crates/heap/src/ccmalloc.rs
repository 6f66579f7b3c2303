//! **`ccmalloc`** — cache-conscious heap allocation (paper Section 3.2.1).
//!
//! `ccmalloc(size, hint)` is `malloc` with one extra argument: a pointer to
//! an existing structure element likely to be accessed contemporaneously
//! with the new one (e.g. the parent of a new tree node, or the list cell
//! ahead of a new cell — Figure 4 of the paper). The allocator tries to
//! put the new item:
//!
//! 1. in the **same L2 cache block** as the hint;
//! 2. failing that, in another block on the **same virtual-memory page**
//!    (reducing working set and TLB pressure, and guaranteeing the two
//!    items cannot conflict in the cache);
//! 3. failing that, on a fresh page.
//!
//! Step 2 admits three block-selection strategies, all evaluated in the
//! paper's Section 4.4: [`Strategy::Closest`], [`Strategy::NewBlock`]
//! (consistently the best performer, at some extra memory), and
//! [`Strategy::FirstFit`].
//!
//! `ccmalloc` is *safe* in the paper's sense: a bad hint can only cost
//! performance, never correctness.

use crate::error::HeapError;
use crate::fault::HeapFaultSchedule;
use crate::snapshot::{LayoutSnapshot, SnapshotLedger};
use crate::stats::HeapStats;
use crate::vspace::VirtualSpace;
use crate::Allocator;
use cc_sim::fasthash::FastHashMap;
use cc_sim::MachineConfig;

/// Block-selection strategy when the hinted cache block is full
/// (paper Section 3.2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Allocate in the block *closest* to the hint's block on the page.
    Closest,
    /// Allocate in an *unused* cache block, optimistically reserving the
    /// rest of the block for future `ccmalloc` calls hinting at this item.
    NewBlock,
    /// First block on the page with sufficient empty space.
    FirstFit,
}

impl Strategy {
    /// All strategies, in the paper's presentation order.
    pub const ALL: [Strategy; 3] = [Strategy::Closest, Strategy::NewBlock, Strategy::FirstFit];

    /// Short label used in figure output ("CA", "NA", "FA" in Figure 7).
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::Closest => "closest",
            Strategy::NewBlock => "new-block",
            Strategy::FirstFit => "first-fit",
        }
    }
}

/// Per-cache-block occupancy on a ccmalloc-managed page.
#[derive(Clone, Debug, Default)]
struct BlockState {
    /// Bump offset of the next free byte within the block.
    bump: u64,
    /// Live bytes (for block recycling after frees).
    live: u64,
    /// Freed slots `(offset, size)` available for reuse — without this,
    /// churn-heavy programs (health) leak partially-live blocks and the
    /// working set balloons past the cache.
    holes: Vec<(u16, u16)>,
}

impl BlockState {
    fn fits(&self, size: u64, block_bytes: u64) -> bool {
        self.bump + size <= block_bytes || self.holes.iter().any(|&(_, hs)| u64::from(hs) >= size)
    }
}

#[derive(Clone, Debug)]
struct PageState {
    blocks: Vec<BlockState>,
}

/// The cache-conscious allocator.
///
/// # Example
///
/// ```
/// use cc_heap::{Allocator, CcMalloc, Strategy};
/// use cc_sim::MachineConfig;
///
/// let mut heap = CcMalloc::new(&MachineConfig::ultrasparc_e5000(), Strategy::Closest);
/// let list_head = heap.alloc(24);
/// let cell = heap.alloc_hint(24, Some(list_head));
/// assert_eq!(list_head / 64, cell / 64, "same 64-byte L2 block");
/// ```
#[derive(Clone, Debug)]
pub struct CcMalloc {
    vspace: VirtualSpace,
    block_bytes: u64,
    page_bytes: u64,
    strategy: Strategy,
    pages: FastHashMap<u64, PageState>,
    /// Page used for hint-less allocations until it fills.
    current: Option<u64>,
    /// Live allocations: address → (size, page base). Pages the entry
    /// does not know about are large dedicated runs.
    live: FastHashMap<u64, (u64, Option<u64>)>,
    /// Requested sizes, birth order, and hints for `snapshot` (the `live`
    /// map holds *rounded* sizes, which drive block bookkeeping).
    ledger: SnapshotLedger,
    /// Blocks that drained back to empty, reusable by hint-less
    /// allocations (verified lazily when popped).
    empty_blocks: Vec<(u64, usize)>,
    /// Blocks with freed slots awaiting reuse (verified lazily when
    /// popped) — the analogue of malloc's free lists for the hint-less
    /// path.
    holey_blocks: Vec<(u64, usize)>,
    stats: HeapStats,
    /// Injected faults, keyed by allocation ordinal (empty by default).
    schedule: HeapFaultSchedule,
    /// Armed fresh-page denials already consumed.
    denials_fired: u64,
}

/// How an allocation ended up being placed, relative to its hint and the
/// fresh-page budget — the observable degradation level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Placement {
    /// On the hint's page (same cache block, or a strategy-selected block).
    Hinted,
    /// The regular hint-less policy (also where failed hints degrade to).
    Normal,
    /// Last-resort scavenging of existing pages after a fresh page was
    /// denied by an arena limit or an injected fault.
    Fallback,
}

/// Payload alignment. Four bytes, as on the paper's 32-bit SPARC: a
/// 20-byte tree node stays 20 bytes, so k = ⌊64/20⌋ = 3 nodes share an L2
/// block (the clustering factor Section 5.4 uses).
const ALIGN: u64 = 4;

impl CcMalloc {
    /// Creates a `ccmalloc` heap targeting `machine`'s L2 block and page
    /// size — the paper's choice: "ccmalloc focuses only on L2 cache
    /// blocks" because L1 blocks (16 bytes) are too small to co-locate
    /// multiple objects.
    pub fn new(machine: &MachineConfig, strategy: Strategy) -> Self {
        Self::with_geometry(machine.l2.block_bytes(), machine.page_bytes, strategy)
    }

    /// Creates a heap with explicit block/page geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `block_bytes` divides `page_bytes`.
    pub fn with_geometry(block_bytes: u64, page_bytes: u64, strategy: Strategy) -> Self {
        assert!(
            page_bytes.is_multiple_of(block_bytes),
            "cache block must divide the page"
        );
        CcMalloc {
            vspace: VirtualSpace::new(page_bytes),
            block_bytes,
            page_bytes,
            strategy,
            pages: FastHashMap::default(),
            current: None,
            live: FastHashMap::default(),
            ledger: SnapshotLedger::default(),
            empty_blocks: Vec::new(),
            holey_blocks: Vec::new(),
            stats: HeapStats::new(page_bytes),
            schedule: HeapFaultSchedule::empty(),
            denials_fired: 0,
        }
    }

    /// The block-selection strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Installs a fault schedule (replacing any previous one). An empty
    /// schedule restores fault-free behaviour; denials already fired stay
    /// consumed.
    pub fn set_fault_schedule(&mut self, schedule: HeapFaultSchedule) {
        self.schedule = schedule;
    }

    /// The installed fault schedule.
    pub fn fault_schedule(&self) -> &HeapFaultSchedule {
        &self.schedule
    }

    /// Caps the pages this heap may claim from its virtual space; `None`
    /// removes the cap. Once the cap is hit, allocations degrade to the
    /// scavenging fallback and finally to
    /// [`HeapError::PageExhaustion`].
    pub fn set_page_limit(&mut self, limit: Option<u64>) {
        self.vspace.set_page_limit(limit);
    }

    /// The L2 cache-block size this heap co-locates into.
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    fn blocks_per_page(&self) -> usize {
        (self.page_bytes / self.block_bytes) as usize
    }

    /// Consumes one armed fresh-page denial, if the schedule has any left
    /// for this ordinal. Armed (rather than ordinal-exact) semantics
    /// guarantee the fault is observable: most allocations never reach a
    /// fresh-page request, so an exact match would usually be a no-op.
    fn fresh_denied(&mut self, ordinal: u64) -> bool {
        if self.denials_fired < self.schedule.denials_armed_through(ordinal) {
            self.denials_fired += 1;
            true
        } else {
            false
        }
    }

    fn try_new_page(&mut self, ordinal: u64) -> Result<u64, HeapError> {
        if self.fresh_denied(ordinal) {
            return Err(HeapError::PageExhaustion { pages: 1 });
        }
        let base = self.vspace.try_alloc_pages(1)?;
        self.stats.record_pages(1);
        self.pages.insert(
            base,
            PageState {
                blocks: vec![BlockState::default(); self.blocks_per_page()],
            },
        );
        Ok(base)
    }

    /// Last-resort search when fresh pages are denied: first block with
    /// room anywhere in the heap, scanning pages in address order (map
    /// iteration order follows the hash, not the address, so the keys
    /// are sorted first — fault runs must replay bit-identically).
    fn scavenge_block(&self, size: u64) -> Option<(u64, usize)> {
        let mut keys: Vec<u64> = self.pages.keys().copied().collect();
        keys.sort_unstable();
        keys.into_iter()
            .find_map(|page| self.first_fit(self.blocks(page), size).map(|i| (page, i)))
    }

    /// Last-resort search for a run of `nblocks` empty blocks anywhere.
    fn scavenge_run(&self, nblocks: usize) -> Option<(u64, usize)> {
        let mut keys: Vec<u64> = self.pages.keys().copied().collect();
        keys.sort_unstable();
        keys.into_iter()
            .find_map(|page| self.find_run(page, nblocks).map(|s| (page, s)))
    }

    /// The block states of a page this heap owns.
    fn blocks(&self, page: u64) -> &[BlockState] {
        &self.pages[&page].blocks
    }

    fn fits(&self, page: u64, idx: usize, size: u64) -> bool {
        self.blocks(page)[idx].fits(size, self.block_bytes)
    }

    /// First of a page's `blocks` with room for `size`.
    fn first_fit(&self, blocks: &[BlockState], size: u64) -> Option<usize> {
        blocks.iter().position(|b| b.fits(size, self.block_bytes))
    }

    fn place(&mut self, page: u64, idx: usize, size: u64) -> u64 {
        let block_bytes = self.block_bytes;
        let st = &mut self.pages.get_mut(&page).expect("page exists").blocks[idx];
        // Prefer refilling a freed slot; fall back to the bump frontier.
        let offset = match st.holes.iter().position(|&(_, hs)| u64::from(hs) >= size) {
            Some(h) => {
                let (off, hs) = st.holes[h];
                if u64::from(hs) == size {
                    st.holes.swap_remove(h);
                } else {
                    st.holes[h] = (off + size as u16, hs - size as u16);
                }
                u64::from(off)
            }
            None => {
                debug_assert!(st.bump + size <= block_bytes);
                let off = st.bump;
                st.bump += size;
                off
            }
        };
        let addr = page + idx as u64 * block_bytes + offset;
        st.live += size;
        self.live.insert(addr, (size, Some(page)));
        addr
    }

    /// Picks one of a page's `blocks` per the strategy; `None` if the
    /// page can't take this allocation.
    fn select_block(&self, blocks: &[BlockState], near: usize, size: u64) -> Option<usize> {
        let n = blocks.len();
        match self.strategy {
            Strategy::Closest => (1..n).find_map(|d| {
                // Alternate outward from the hint block.
                let lo = near.checked_sub(d);
                let hi = (near + d < n).then_some(near + d);
                [lo, hi]
                    .into_iter()
                    .flatten()
                    .find(|&i| blocks[i].fits(size, self.block_bytes))
            }),
            Strategy::NewBlock => blocks.iter().position(|b| b.bump == 0),
            Strategy::FirstFit => self.first_fit(blocks, size),
        }
    }

    /// Finds `nblocks` consecutive empty blocks on `page`.
    fn find_run(&self, page: u64, nblocks: usize) -> Option<usize> {
        let blocks = self.blocks(page);
        (0..blocks.len().saturating_sub(nblocks - 1))
            .find(|&s| blocks[s..s + nblocks].iter().all(|b| b.bump == 0))
    }

    /// Claims a block run for one multi-block allocation.
    fn place_run(&mut self, page: u64, start: usize, size: u64) -> u64 {
        let block = self.block_bytes;
        let blocks = &mut self.pages.get_mut(&page).expect("page exists").blocks;
        let mut remaining = size;
        let mut i = start;
        while remaining > 0 {
            let covered = remaining.min(block);
            blocks[i].bump = block;
            blocks[i].live += covered;
            remaining -= covered;
            i += 1;
        }
        let addr = page + start as u64 * block;
        self.live.insert(addr, (size, Some(page)));
        addr
    }

    fn try_alloc_sized(
        &mut self,
        size: u64,
        hint: Option<u64>,
        ordinal: u64,
    ) -> Result<(u64, Placement), HeapError> {
        // Large objects get dedicated page runs, as in the baseline; no
        // existing page can absorb them, so a denied request is terminal.
        if size > self.page_bytes / 2 {
            let pages = size.div_ceil(self.page_bytes);
            if self.fresh_denied(ordinal) {
                return Err(HeapError::PageExhaustion { pages });
            }
            let addr = self.vspace.try_alloc_pages(pages)?;
            self.stats.record_pages(pages);
            self.live.insert(addr, (size, None));
            return Ok((addr, Placement::Normal));
        }

        // Objects bigger than a cache block take a run of whole blocks —
        // co-location within a block is moot, but same-page placement
        // still helps, so try the hint's page first.
        if size > self.block_bytes {
            let nblocks = size.div_ceil(self.block_bytes) as usize;
            let hint_page = hint
                .map(|h| h & !(self.page_bytes - 1))
                .filter(|p| self.pages.contains_key(p));
            for page in [hint_page, self.current].into_iter().flatten() {
                if let Some(start) = self.find_run(page, nblocks) {
                    let placement = if Some(page) == hint_page {
                        Placement::Hinted
                    } else {
                        Placement::Normal
                    };
                    return Ok((self.place_run(page, start, size), placement));
                }
            }
            return match self.try_new_page(ordinal) {
                Ok(page) => {
                    self.current = Some(page);
                    Ok((self.place_run(page, 0, size), Placement::Normal))
                }
                Err(e) => match self.scavenge_run(nblocks) {
                    Some((page, start)) => {
                        Ok((self.place_run(page, start, size), Placement::Fallback))
                    }
                    None => Err(e),
                },
            };
        }

        if let Some(h) = hint {
            let page = h & !(self.page_bytes - 1);
            if let Some(state) = self.pages.get(&page) {
                let idx = ((h - page) / self.block_bytes) as usize;
                // 1. Same cache block as the hint; 2. failing that, a
                // strategy-selected block on the same page.
                let chosen = if state.blocks[idx].fits(size, self.block_bytes) {
                    Some(idx)
                } else {
                    self.select_block(&state.blocks, idx, size)
                };
                if let Some(i) = chosen {
                    return Ok((self.place(page, i, size), Placement::Hinted));
                }
            }
            // 3. The hint's page is full (or foreign): co-location is
            // impossible, so degrade to a normal allocation — burning a
            // fresh page per failed hint would explode the footprint.
        }

        // Hint-less path: sequential first-fit through the current page…
        if let Some(page) = self.current {
            if let Some(i) = self.first_fit(self.blocks(page), size) {
                return Ok((self.place(page, i, size), Placement::Normal));
            }
        }
        // …then freed slots anywhere (malloc's free-list behaviour:
        // stranding holes on old pages would balloon the footprint)…
        while let Some((page, idx)) = self.holey_blocks.pop() {
            if self.fits(page, idx, size) {
                let addr = self.place(page, idx, size);
                if !self.blocks(page)[idx].holes.is_empty() {
                    self.holey_blocks.push((page, idx));
                }
                return Ok((addr, Placement::Normal));
            }
        }
        // …then a recycled empty block…
        while let Some((page, idx)) = self.empty_blocks.pop() {
            let st = &self.blocks(page)[idx];
            if st.bump == 0 && st.live == 0 {
                return Ok((self.place(page, idx, size), Placement::Normal));
            }
        }
        // …then a fresh page — and only if that is denied, scavenge any
        // block with room anywhere in the heap (the paper's "if space
        // permits" degraded to "wherever space remains").
        match self.try_new_page(ordinal) {
            Ok(page) => {
                self.current = Some(page);
                Ok((self.place(page, 0, size), Placement::Normal))
            }
            Err(e) => match self.scavenge_block(size) {
                Some((page, idx)) => Ok((self.place(page, idx, size), Placement::Fallback)),
                None => Err(e),
            },
        }
    }
}

impl Allocator for CcMalloc {
    fn try_alloc_hint(&mut self, size: u64, hint: Option<u64>) -> Result<u64, HeapError> {
        if size == 0 {
            return Err(HeapError::ZeroAlloc);
        }
        let ordinal = self.stats.allocations();
        // The schedule may drop or corrupt the hint used for *placement*;
        // the ledger records what the caller asked for, so audits compare
        // requested co-location against what actually happened.
        let effective = self.schedule.tamper(ordinal, hint);
        let rounded = size.div_ceil(ALIGN) * ALIGN;
        let (addr, placement) = self.try_alloc_sized(rounded, effective, ordinal)?;
        self.stats.record_alloc(size);
        if hint.is_some() && placement != Placement::Hinted {
            self.stats.record_degraded();
        }
        if placement == Placement::Fallback {
            self.stats.record_fallback();
        }
        self.ledger.record(addr, size, hint);
        Ok(addr)
    }

    fn try_free(&mut self, addr: u64) -> Result<(), HeapError> {
        let (size, page) = self
            .live
            .remove(&addr)
            .ok_or(HeapError::InvalidFree { addr })?;
        self.ledger.forget(addr);
        self.stats.record_free(size);
        if let Some(page) = page {
            // Walk the covered blocks (one for intra-block allocations, a
            // run for multi-block ones).
            let block_bytes = self.block_bytes;
            let blocks = &mut self.pages.get_mut(&page).expect("page exists").blocks;
            let mut remaining = size;
            let mut idx = ((addr - page) / block_bytes) as usize;
            let single_block = size <= block_bytes;
            while remaining > 0 {
                let covered = remaining.min(block_bytes);
                let st = &mut blocks[idx];
                st.live = st.live.saturating_sub(covered);
                if st.live == 0 {
                    // Whole block free again: recycle it.
                    st.bump = 0;
                    st.holes.clear();
                    self.empty_blocks.push((page, idx));
                } else if single_block {
                    // Record the slot for reuse by later allocations.
                    let off = (addr - page - idx as u64 * block_bytes) as u16;
                    st.holes.push((off, covered as u16));
                    self.holey_blocks.push((page, idx));
                }
                remaining -= covered;
                idx += 1;
            }
        }
        Ok(())
    }

    fn stats(&self) -> &HeapStats {
        &self.stats
    }

    fn snapshot(&self) -> LayoutSnapshot {
        self.ledger.snapshot()
    }

    fn cost_insts(&self) -> u32 {
        // Hint lookup + page/block bookkeeping costs more than a
        // free-list pop — the overhead the control experiment measures.
        60
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap(s: Strategy) -> CcMalloc {
        CcMalloc::with_geometry(64, 8192, s)
    }

    #[test]
    fn hint_colocates_in_block() {
        for s in Strategy::ALL {
            let mut h = heap(s);
            let a = h.alloc(20);
            let b = h.alloc_hint(20, Some(a));
            let c = h.alloc_hint(20, Some(a));
            assert_eq!(a / 64, b / 64, "{s:?}");
            assert_eq!(a / 64, c / 64, "{s:?}");
        }
    }

    #[test]
    fn full_block_overflows_per_strategy() {
        // Fill block 0 with three 20-byte items (60/64 used).
        let build = |s| {
            let mut h = heap(s);
            let a = h.alloc(20);
            h.alloc_hint(20, Some(a));
            h.alloc_hint(20, Some(a));
            let d = h.alloc_hint(20, Some(a)); // block full -> strategy
            (a, d)
        };
        let (a, d) = build(Strategy::Closest);
        assert_eq!(d / 64, a / 64 + 1, "closest picks the adjacent block");
        let (a, d) = build(Strategy::FirstFit);
        assert_eq!(d / 64, a / 64 + 1, "block 1 is the first with space");
        let (a, d) = build(Strategy::NewBlock);
        assert_eq!(d / 64, a / 64 + 1, "block 1 is also the first unused");
        assert_eq!(d % 8192 / 64, 1);
    }

    #[test]
    fn new_block_reserves_space() {
        let mut h = heap(Strategy::NewBlock);
        let a = h.alloc(20); // block 0
        let b = h.alloc(20); // hint-less: first-fit -> block 0 too
        assert_eq!(a / 64, b / 64);
        // Fill block 0.
        h.alloc_hint(20, Some(a));
        // Overflow with NewBlock: lands in block 1 (first unused).
        let d = h.alloc_hint(20, Some(a));
        // A second hinted overflow from `a` cannot reuse block 1
        // (it's used now): goes to block 2.
        let e = h.alloc_hint(60, Some(a));
        assert_eq!(d % 8192 / 64, 1);
        assert_eq!(e % 8192 / 64, 2);
        // But a hint at `d` shares d's block.
        let f = h.alloc_hint(20, Some(d));
        assert_eq!(d / 64, f / 64);
    }

    #[test]
    fn same_page_fallback() {
        let mut h = heap(Strategy::Closest);
        let a = h.alloc(60); // nearly fills block 0
        let b = h.alloc_hint(60, Some(a));
        assert_ne!(a / 64, b / 64);
        assert_eq!(a / 8192, b / 8192, "same page");
    }

    #[test]
    fn fresh_page_when_page_exhausted() {
        let mut h = heap(Strategy::FirstFit);
        let a = h.alloc(60);
        // Exhaust the page: 128 blocks of 64 bytes.
        for _ in 0..127 {
            h.alloc_hint(60, Some(a));
        }
        let z = h.alloc_hint(60, Some(a));
        assert_ne!(a / 8192, z / 8192);
        assert_eq!(h.stats().pages(), 2);
    }

    #[test]
    fn new_block_uses_more_memory() {
        // The Section 4.4 memory-overhead effect: hinted leaf allocations
        // under NewBlock burn a block each.
        let run = |s| {
            let mut h = heap(s);
            let mut parent = h.alloc(20);
            for i in 0..2000 {
                let c = h.alloc_hint(20, Some(parent));
                if i % 2 == 0 {
                    parent = c;
                }
            }
            h.stats().footprint_bytes()
        };
        let nb = run(Strategy::NewBlock);
        let ff = run(Strategy::FirstFit);
        assert!(nb >= ff, "new-block {nb} vs first-fit {ff}");
    }

    #[test]
    fn free_recycles_empty_blocks() {
        let mut h = heap(Strategy::FirstFit);
        let a = h.alloc(60);
        h.free(a);
        let b = h.alloc(60);
        assert_eq!(a, b, "block was recycled after emptying");
    }

    #[test]
    fn large_allocations_bypass_blocks() {
        let mut h = heap(Strategy::NewBlock);
        let a = h.alloc(8192);
        assert_eq!(a % 8192, 0);
        h.free(a);
    }

    #[test]
    fn alignment_keeps_three_nodes_per_block() {
        let mut h = heap(Strategy::FirstFit);
        let a = h.alloc(20);
        let b = h.alloc_hint(20, Some(a));
        let c = h.alloc_hint(20, Some(a));
        assert_eq!(b - a, 20);
        assert_eq!(c - b, 20);
    }

    #[test]
    fn multi_block_allocations_take_block_runs() {
        let mut h = heap(Strategy::FirstFit);
        let a = h.alloc(65); // needs 2 blocks
        assert_eq!(a % 64, 0, "run starts block-aligned");
        let b = h.alloc(1);
        assert!(
            b >= a + 128,
            "next alloc skips the whole run: {b:#x} vs {a:#x}"
        );
        h.free(a);
        let c = h.alloc(65);
        assert_eq!(c, a, "freed run is recycled");
    }

    #[test]
    fn multi_block_prefers_hint_page() {
        let mut h = heap(Strategy::NewBlock);
        let small = h.alloc(20);
        let big = h.alloc_hint(200, Some(small));
        assert_eq!(small / 8192, big / 8192, "same page as the hint");
    }

    #[test]
    #[should_panic(expected = "zero-byte")]
    fn zero_alloc_rejected() {
        heap(Strategy::Closest).alloc(0);
    }

    #[test]
    fn zero_alloc_is_typed() {
        assert_eq!(
            heap(Strategy::Closest).try_alloc(0),
            Err(HeapError::ZeroAlloc)
        );
    }

    #[test]
    fn double_free_is_typed_invalid_free() {
        let mut h = heap(Strategy::NewBlock);
        let a = h.alloc(20);
        assert_eq!(h.try_free(a), Ok(()));
        assert_eq!(h.try_free(a), Err(HeapError::InvalidFree { addr: a }));
    }

    #[test]
    #[should_panic(expected = "non-live address")]
    fn double_free_panics_via_wrapper() {
        let mut h = heap(Strategy::NewBlock);
        let a = h.alloc(20);
        h.free(a);
        h.free(a);
    }

    #[test]
    fn denied_fresh_page_scavenges_partially_used_blocks() {
        let mut h = heap(Strategy::FirstFit);
        let a = h.alloc(20); // page 1, block 0: 44 bytes left
        for _ in 0..127 {
            h.alloc(64); // fill the rest of page 1
        }
        h.alloc(64); // page 2 (current)
        for _ in 0..127 {
            h.alloc(64); // fill page 2
        }
        h.set_page_limit(Some(2));
        // No block on the current page fits, no holes, no empties, no
        // fresh page allowed — scavenging finds block 0's leftover.
        let b = h.try_alloc(40).unwrap();
        assert_eq!(b, a + 20, "packed behind the first allocation");
        assert_eq!(h.stats().fallback_allocations(), 1);
        // Nothing left that can take 60 bytes: typed exhaustion.
        assert_eq!(h.try_alloc(60), Err(HeapError::PageExhaustion { pages: 1 }));
        // Failed allocations are invisible in the stats.
        assert_eq!(h.stats().allocations(), 257);
    }

    #[test]
    fn armed_denial_fires_at_next_fresh_page_request() {
        let mut h = CcMalloc::with_geometry(64, 256, Strategy::FirstFit);
        h.alloc(60); // page 1 exists before the schedule is installed
        let mut s = HeapFaultSchedule::empty();
        s.deny_fresh_page.insert(1);
        h.set_fault_schedule(s);
        for _ in 0..3 {
            h.alloc(60); // ordinals 1-3 never need a fresh page: still armed
        }
        // Ordinal 4 needs a fresh page; the armed denial fires and the
        // full heap has nothing to scavenge for 60 bytes.
        assert_eq!(h.try_alloc(60), Err(HeapError::PageExhaustion { pages: 1 }));
        // One-shot: the next request gets its fresh page and recovers.
        assert!(h.try_alloc(60).is_ok());
        assert_eq!(h.stats().pages(), 2);
    }

    #[test]
    fn corrupted_hint_degrades_placement_but_not_ledger() {
        let mut h = heap(Strategy::FirstFit);
        let a = h.alloc(20);
        let mut s = HeapFaultSchedule::empty();
        s.corrupt_hint.insert(1, 1 << 40); // a page this heap never owned
        h.set_fault_schedule(s);
        let b = h.alloc_hint(20, Some(a));
        assert_eq!(h.stats().degraded_hints(), 1);
        // The snapshot reports the co-location the caller *requested*, so
        // audits can flag the degradation.
        let snap = h.snapshot();
        let rec = snap
            .records()
            .iter()
            .find(|r| r.addr == b)
            .expect("allocation recorded");
        assert_eq!(rec.hint, Some(a));
    }

    #[test]
    fn dropped_hint_is_counted_as_degraded() {
        let mut h = heap(Strategy::NewBlock);
        let a = h.alloc(20);
        let mut s = HeapFaultSchedule::empty();
        s.drop_hint.insert(1);
        h.set_fault_schedule(s);
        h.alloc_hint(20, Some(a));
        assert_eq!(h.stats().degraded_hints(), 1);
        // An honored hint afterwards is not degraded.
        h.alloc_hint(20, Some(a));
        assert_eq!(h.stats().degraded_hints(), 1);
        assert_eq!(h.stats().fallback_allocations(), 0);
    }

    #[test]
    fn machine_constructor_uses_l2_geometry() {
        let h = CcMalloc::new(&MachineConfig::ultrasparc_e5000(), Strategy::NewBlock);
        assert_eq!(h.block_bytes(), 64);
    }
}
