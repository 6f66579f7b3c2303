//! A fully-associative, LRU translation lookaside buffer.
//!
//! The paper notes (Section 5.4) that TLB effects are one reason its
//! analytic model *under*-predicts the measured speedup: packing structures
//! onto fewer pages shrinks the working set of pages. Modelling the TLB lets
//! the simulator reproduce that systematic gap.

use crate::fasthash::K;
use crate::stats::TlbStats;

/// List/table sentinel: "no slot".
const NONE: u32 = u32::MAX;

/// Fully-associative TLB with true-LRU replacement over virtual pages.
///
/// Lookups and replacement are both O(1): pages live in an open-addressed
/// table (linear probing at ≤ 50% load, backward-shift deletion) that maps
/// each resident page to a slot, and slots are threaded on a doubly-linked
/// recency list whose tail is the LRU entry. This is observably identical
/// to the textbook scan-all-entries formulation: a translation hits iff the
/// page is resident (pure membership), and because every access moves its
/// page to the list head, list order coincides with last-use order — the
/// tail is exactly the entry a min-over-stamps scan would evict. The big
/// traces make this matter: a working set of thousands of pages thrashes a
/// 64-entry TLB, and an O(entries) scan per reference would dominate the
/// whole simulation.
///
/// # Example
///
/// ```
/// use cc_sim::tlb::Tlb;
///
/// let mut tlb = Tlb::new(2, 8192);
/// assert!(!tlb.access(0));            // cold
/// assert!(tlb.access(100));           // same page
/// assert!(!tlb.access(8192));         // second page
/// assert!(!tlb.access(3 * 8192));     // evicts page 0 (LRU)
/// assert!(!tlb.access(0));
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    /// Page number held by each slot (valid for slots below `len`).
    pages: Vec<u64>,
    /// Recency list links over slots; `head` is MRU, `tail` is LRU.
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32,
    tail: u32,
    /// Open-addressed `(page, slot)` table; `slot == NONE` marks a free
    /// cell. Sized to at least four times `capacity`, so probes stay short.
    table: Vec<(u64, u32)>,
    /// Table cell currently holding each slot's page — lets eviction jump
    /// straight to the victim's cell instead of re-probing for it.
    tindex: Vec<u32>,
    len: usize,
    capacity: usize,
    page_bytes: u64,
    /// `log2(page_bytes)`; `addr >> page_shift` is the page number.
    page_shift: u32,
    stats: TlbStats,
}

impl Tlb {
    /// Creates an empty TLB with `entries` slots over pages of
    /// `page_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or `page_bytes` is not a power of two.
    pub fn new(entries: usize, page_bytes: u64) -> Self {
        assert!(entries > 0, "TLB needs at least one entry");
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        // Quarter load factor: the table is tiny (a 64-entry TLB costs
        // 4KB), and thrashing workloads evict on nearly every access, so
        // short probe and backshift chains matter more than footprint.
        let table_len = (4 * entries).next_power_of_two().max(4);
        Tlb {
            pages: vec![0; entries],
            prev: vec![NONE; entries],
            next: vec![NONE; entries],
            head: NONE,
            tail: NONE,
            table: vec![(0, NONE); table_len],
            tindex: vec![NONE; entries],
            len: 0,
            capacity: entries,
            page_bytes,
            page_shift: page_bytes.trailing_zeros(),
            stats: TlbStats::new(),
        }
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Zeroes statistics, keeping contents.
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::new();
    }

    /// Adds a batch worth of accesses and misses counted by a caller
    /// using [`Tlb::access_page_untallied`].
    pub(crate) fn add_bulk_stats(&mut self, accesses: u64, misses: u64) {
        self.stats.add_bulk(accesses, misses);
    }

    /// Home index of `page` in the open-addressed table.
    #[inline]
    fn home(&self, page: u64) -> usize {
        // Fibonacci hash, indexing by the top bits; the table is a power
        // of two at least 4 cells long, so the shift is in range.
        (page.wrapping_mul(K) >> (64 - self.table.len().trailing_zeros())) as usize
    }

    /// Looks `page` up in the table.
    #[inline]
    fn table_get(&self, page: u64) -> Option<u32> {
        let mask = self.table.len() - 1;
        let mut i = self.home(page);
        loop {
            let (p, s) = self.table[i];
            if s == NONE {
                return None;
            }
            if p == page {
                return Some(s);
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts `page → slot`; the page must not already be present.
    fn table_insert(&mut self, page: u64, slot: u32) {
        let mask = self.table.len() - 1;
        let mut i = self.home(page);
        while self.table[i].1 != NONE {
            i = (i + 1) & mask;
        }
        self.table[i] = (page, slot);
        self.tindex[slot as usize] = i as u32;
    }

    /// Removes the page held by `slot` from the table, back-shifting any
    /// entries the hole would otherwise cut off from their probe chains.
    fn table_remove_slot(&mut self, slot: u32) {
        let mask = self.table.len() - 1;
        let mut i = self.tindex[slot as usize] as usize;
        debug_assert_eq!(self.table[i].1, slot);
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            if self.table[j].1 == NONE {
                break;
            }
            let home = self.home(self.table[j].0);
            // Move entry `j` into the hole unless its home lies cyclically
            // after the hole — in which case the probe chain from its home
            // never crosses the hole and it must stay put.
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(i) & mask) {
                self.table[i] = self.table[j];
                self.tindex[self.table[j].1 as usize] = i as u32;
                i = j;
            }
        }
        self.table[i] = (0, NONE);
    }

    /// Detaches `slot` from the recency list.
    #[inline]
    fn unlink(&mut self, slot: u32) {
        let (p, n) = (self.prev[slot as usize], self.next[slot as usize]);
        if p == NONE {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NONE {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
    }

    /// Links `slot` at the head (MRU end) of the recency list.
    #[inline]
    fn push_front(&mut self, slot: u32) {
        self.prev[slot as usize] = NONE;
        self.next[slot as usize] = self.head;
        if self.head == NONE {
            self.tail = slot;
        } else {
            self.prev[self.head as usize] = slot;
        }
        self.head = slot;
    }

    /// `log2(page_bytes)`: `addr >> page_shift()` is the page number.
    pub(crate) fn page_shift(&self) -> u32 {
        self.page_shift
    }

    /// Translates `addr`, returning `true` on a TLB hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let page = addr >> self.page_shift;
        // A repeat of the most recent page is a hit that moves nothing in
        // the recency list: answer it before probing the table. (The
        // batched and sharded lanes memoize same-page runs before calling
        // `access_page_untallied`, so the check lives here, not there.)
        let mru = self.head != NONE && self.pages[self.head as usize] == page;
        let hit = mru || self.access_page_untallied(page);
        self.stats.record(!hit);
        hit
    }

    /// [`Tlb::access`] for a caller that already holds the page number and
    /// does its own bulk statistics ([`Tlb::add_bulk_stats`]) — the
    /// batched path derives pages once per reference, counts outcomes in
    /// registers, and flushes per batch.
    pub(crate) fn access_page_untallied(&mut self, page: u64) -> bool {
        if let Some(slot) = self.table_get(page) {
            if self.head != slot {
                self.unlink(slot);
                self.push_front(slot);
            }
            return true;
        }
        let slot = if self.len == self.capacity {
            let victim = self.tail;
            self.table_remove_slot(victim);
            self.unlink(victim);
            victim
        } else {
            let s = self.len as u32;
            self.len += 1;
            s
        };
        self.pages[slot as usize] = page;
        self.table_insert(page, slot);
        self.push_front(slot);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_within_page() {
        let mut t = Tlb::new(4, 8192);
        assert!(!t.access(10));
        assert!(t.access(8191));
        assert!(!t.access(8192));
        assert_eq!(t.stats().misses(), 2);
        assert_eq!(t.stats().accesses(), 3);
    }

    #[test]
    fn lru_eviction_order() {
        let mut t = Tlb::new(2, 4096);
        t.access(0); // page 0
        t.access(4096); // page 1
        t.access(5); // touch page 0; page 1 is LRU
        t.access(2 * 4096); // page 2 evicts page 1
        assert!(t.access(1), "page 0 survived");
        assert!(!t.access(4096 + 1), "page 1 evicted");
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn rejects_zero_entries() {
        let _ = Tlb::new(0, 8192);
    }

    #[test]
    fn single_entry_tlb() {
        let mut t = Tlb::new(1, 4096);
        assert!(!t.access(0));
        assert!(t.access(100));
        assert!(!t.access(4096));
        assert!(!t.access(50), "page 0 was evicted by page 1");
    }

    /// The table/list implementation must match a naive scan-based LRU
    /// model access for access, including under heavy eviction churn.
    #[test]
    fn matches_naive_lru_model() {
        struct Naive {
            entries: Vec<(u64, u64)>, // (page, stamp)
            cap: usize,
            clock: u64,
        }
        impl Naive {
            fn access(&mut self, page: u64) -> bool {
                self.clock += 1;
                if let Some(e) = self.entries.iter_mut().find(|(p, _)| *p == page) {
                    e.1 = self.clock;
                    return true;
                }
                if self.entries.len() == self.cap {
                    let lru = self
                        .entries
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, (_, s))| *s)
                        .map(|(i, _)| i)
                        .unwrap();
                    self.entries.swap_remove(lru);
                }
                self.entries.push((page, self.clock));
                false
            }
        }
        let mut tlb = Tlb::new(8, 4096);
        let mut naive = Naive {
            entries: Vec::new(),
            cap: 8,
            clock: 0,
        };
        // Deterministic pseudo-random page walk over 3× the capacity.
        let mut x = 0x1234_5678_9abc_def0u64;
        for i in 0..10_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let page = x % 24;
            let addr = page * 4096 + (i % 4096);
            assert_eq!(
                tlb.access(addr),
                naive.access(page),
                "diverged at access {i} (page {page})"
            );
        }
        assert!(
            tlb.stats().misses() > 1000,
            "churn actually exercised eviction"
        );
    }
}
