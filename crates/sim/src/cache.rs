//! A single set-associative cache level with true-LRU replacement.

use crate::geometry::CacheGeometry;
use crate::stats::CacheStats;

/// Write policy of one cache level.
///
/// The paper's machines use a write-through L1 (with a write buffer) in
/// front of a write-back L2 (Table 1); the E5000's L1 is also modelled as
/// write-through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WritePolicy {
    /// Writes update the level and propagate below; lines are never dirty.
    /// Write misses do not allocate (write-around), matching a
    /// write-through no-allocate L1.
    WriteThrough,
    /// Writes dirty the line; evictions of dirty lines cost a writeback.
    /// Write misses allocate.
    WriteBack,
}

/// Reads bit `i` of a packed bitmap.
#[inline]
fn bit(words: &[u64], i: usize) -> bool {
    (words[i >> 6] >> (i & 63)) & 1 == 1
}

/// Writes bit `i` of a packed bitmap.
#[inline]
fn set_bit(words: &mut [u64], i: usize, v: bool) {
    let mask = 1u64 << (i & 63);
    if v {
        words[i >> 6] |= mask;
    } else {
        words[i >> 6] &= !mask;
    }
}

/// Tag value marking an invalid line. No reachable address produces it:
/// a real tag is `addr >> (block + set bits)`, which is all-ones only for
/// addresses within a block of `u64::MAX` — far outside any simulated
/// heap (the access paths `debug_assert` this). Folding validity into the
/// tag makes the hit test one compare with no bitmap load.
const TAG_INVALID: u64 = u64::MAX;

/// Sentinel for [`Cache::last_victim`]: the previous probe evicted
/// nothing. Same unreachable-address argument as [`TAG_INVALID`].
const NO_VICTIM: u64 = u64::MAX;

/// Register-resident demand-read counters for the batched direct-mapped
/// read path ([`Cache::read_direct`]). Each field mirrors one
/// [`CacheStats`] counter the scalar path would bump per probe; the batch
/// loop accumulates them branch-free and flushes once per batch via
/// [`CacheStats::add_read_tally`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ReadTally {
    pub(crate) reads: u64,
    pub(crate) misses: u64,
    pub(crate) evictions: u64,
    pub(crate) writebacks: u64,
}

impl ReadTally {
    /// Whether any field is nonzero (i.e. a flush would change stats).
    pub(crate) fn any(&self) -> bool {
        self.reads != 0
    }
}

/// Result of probing one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Probe {
    /// Whether the access hit.
    pub hit: bool,
    /// On a fill, whether a dirty victim was written back.
    pub writeback: bool,
}

/// One level of set-associative cache with LRU replacement.
///
/// The cache stores tags only: the simulated heap holds all data, so the
/// cache's job is purely to answer "would this access have hit?".
///
/// # Example
///
/// ```
/// use cc_sim::cache::{Cache, WritePolicy};
/// use cc_sim::geometry::CacheGeometry;
///
/// let mut c = Cache::new(CacheGeometry::new(2, 16, 1), WritePolicy::WriteBack);
/// assert!(!c.access(0x00, false).hit); // cold miss
/// assert!(c.access(0x04, false).hit);  // same block
/// assert!(!c.access(0x40, false).hit); // maps to set 0 too: conflict
/// assert!(!c.access(0x00, false).hit); // evicted by the conflicting block
/// ```
/// The line array is stored structure-of-arrays, applying the paper's own
/// hot/cold splitting to the simulator's hottest structure: a probe reads
/// eight dense bytes from the tag lane (validity is folded into the tag as
/// a sentinel, so the hit test is a single compare) instead of dragging a
/// whole padded line record through the *host's* caches, and the LRU
/// stamps — dead weight on the direct-mapped configurations every preset
/// uses — live in a lane only associative probes touch.
#[derive(Clone, Debug)]
pub struct Cache {
    /// Per-line tags; [`TAG_INVALID`] marks an empty line.
    tags: Vec<u64>,
    /// One dirty bit per line.
    dirty: Vec<u64>,
    clock: u64,
    /// Block address evicted by the most recent [`Cache::access`] /
    /// [`Cache::fill`], or [`NO_VICTIM`]. Miss attribution reads this to
    /// name the conflict victim; one unconditional store per probe keeps
    /// it current, so the plain replay paths pay nothing measurable.
    last_victim: u64,
    /// Monotonic use stamps for true-LRU; read only when `assoc > 1`.
    used: Vec<u64>,
    geometry: CacheGeometry,
    stats: CacheStats,
    policy: WritePolicy,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    pub fn new(geometry: CacheGeometry, policy: WritePolicy) -> Self {
        let n = (geometry.sets() * geometry.assoc()) as usize;
        let words = n.div_ceil(64);
        Cache {
            tags: vec![TAG_INVALID; n],
            dirty: vec![0; words],
            clock: 0,
            last_victim: NO_VICTIM,
            used: vec![0; n],
            geometry,
            stats: CacheStats::new(),
            policy,
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// The cache's write policy.
    pub fn policy(&self) -> WritePolicy {
        self.policy
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zeroes the statistics without touching cache contents, so warm-up
    /// can be excluded from steady-state measurements.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::new();
    }

    pub(crate) fn stats_mut(&mut self) -> &mut CacheStats {
        &mut self.stats
    }

    /// Invalidates every line and clears statistics.
    pub fn clear(&mut self) {
        self.tags.fill(TAG_INVALID);
        self.dirty.fill(0);
        self.clock = 0;
        self.stats = CacheStats::new();
        self.last_victim = NO_VICTIM;
    }

    /// The block address the most recent [`Cache::access`] /
    /// [`Cache::fill`] evicted, if any. [`Cache::read_direct`] maintains
    /// it only on a miss, and only when its attributing caller asks; a
    /// direct-mapped hit evicts nothing, so that caller reports no victim
    /// for hits without reading this.
    pub(crate) fn last_victim(&self) -> Option<u64> {
        (self.last_victim != NO_VICTIM).then_some(self.last_victim)
    }

    fn set_start(&self, set: u64) -> usize {
        set as usize * self.geometry.assoc() as usize
    }

    /// Whether the block containing `addr` is currently resident.
    pub fn contains(&self, addr: u64) -> bool {
        let start = self.set_start(self.geometry.set_of(addr));
        let tag = self.geometry.tag_of(addr);
        debug_assert_ne!(tag, TAG_INVALID, "address tag collides with the sentinel");
        (start..start + self.geometry.assoc() as usize).any(|i| self.tags[i] == tag)
    }

    /// Performs a demand access to the *block* containing `addr` and
    /// updates statistics. On a miss the block is filled (except for write
    /// misses under [`WritePolicy::WriteThrough`], which do not allocate).
    pub fn access(&mut self, addr: u64, write: bool) -> Probe {
        self.stats.record_access(write);
        self.probe_internal(addr, write, true)
    }

    /// Fills the block containing `addr` without recording a demand access
    /// — used for prefetches. Returns the probe result (hit means the block
    /// was already resident).
    pub fn fill(&mut self, addr: u64) -> Probe {
        self.probe_internal(addr, false, false)
    }

    /// Demand *read* probe specialized for direct-mapped caches. With a
    /// single way per set there is no replacement choice, so the LRU clock
    /// and use stamps are semantically inert and the probe reduces to one
    /// tag compare. Hit/miss outcome, evictions, dirty bits, and
    /// writeback accounting match [`Cache::access`]`(addr, false)` exactly;
    /// only the (meaningless) stamp values differ. Nothing is recorded in
    /// [`CacheStats`] here: every counter the scalar path would bump lands
    /// in `tally` instead — plain register arithmetic with no
    /// data-dependent branches — and the batched caller flushes the tally
    /// with [`CacheStats::add_read_tally`] once per batch, which is
    /// equivalent because nothing observes the counters mid-batch. With
    /// `VICTIM`, a miss also records the block it evicted for
    /// [`Cache::last_victim`] (miss attribution's conflict pairs); the
    /// unattributed instantiation carries no trace of it. The caller
    /// must ensure `geometry().assoc() == 1`.
    #[inline]
    pub(crate) fn read_direct<const VICTIM: bool>(
        &mut self,
        addr: u64,
        tally: &mut ReadTally,
    ) -> bool {
        debug_assert_eq!(self.geometry.assoc(), 1);
        let tag = self.geometry.tag_of(addr);
        debug_assert_ne!(tag, TAG_INVALID, "address tag collides with the sentinel");
        let set = self.geometry.set_of(addr) as usize;
        tally.reads += 1;
        if self.tags[set] == tag {
            return true;
        }
        let was_valid = self.tags[set] != TAG_INVALID;
        if VICTIM {
            self.last_victim = if was_valid {
                self.geometry.block_addr(self.tags[set], set as u64)
            } else {
                NO_VICTIM
            };
        }
        tally.misses += 1;
        tally.evictions += u64::from(was_valid);
        // Write-through lines are never dirty, so the dirty bitmap is
        // untouched on that policy's read path (and nothing ever counts
        // toward writebacks).
        if self.policy == WritePolicy::WriteBack {
            tally.writebacks += u64::from(was_valid && bit(&self.dirty, set));
            set_bit(&mut self.dirty, set, false);
        }
        self.tags[set] = tag;
        false
    }

    /// Whether the blocks containing `a1` and `a2` are *both* resident in
    /// a direct-mapped cache, without any side effects. The batched read
    /// path uses this to retire a two-block reference — the shape of every
    /// node load whose structure straddles a block boundary — on a single
    /// branch; on a miss it falls back to per-block probes, which redo the
    /// two compares but keep all mutation in one place. Skipping the
    /// per-block probes on the both-hit path changes nothing observable:
    /// direct-mapped hits touch no replacement state (see
    /// [`Cache::read_direct`]), only the read counters, which the caller
    /// accounts in bulk. The caller must ensure `geometry().assoc() == 1`
    /// and that the two addresses fall in distinct sets.
    #[inline]
    pub(crate) fn hit_pair(&self, a1: u64, a2: u64) -> bool {
        debug_assert_eq!(self.geometry.assoc(), 1);
        debug_assert_ne!(self.geometry.set_of(a1), self.geometry.set_of(a2));
        let s1 = self.geometry.set_of(a1) as usize;
        let s2 = self.geometry.set_of(a2) as usize;
        // Bitwise `&` retires both compares before the single branch.
        (self.tags[s1] == self.geometry.tag_of(a1)) & (self.tags[s2] == self.geometry.tag_of(a2))
    }

    fn probe_internal(&mut self, addr: u64, write: bool, demand: bool) -> Probe {
        self.clock += 1;
        self.last_victim = NO_VICTIM;
        let tag = self.geometry.tag_of(addr);
        debug_assert_ne!(tag, TAG_INVALID, "address tag collides with the sentinel");
        let set = self.geometry.set_of(addr);
        let start = self.set_start(set);
        let assoc = self.geometry.assoc() as usize;
        let clock = self.clock;

        // Hit path.
        for i in start..start + assoc {
            if self.tags[i] == tag {
                self.used[i] = clock;
                if write && self.policy == WritePolicy::WriteBack {
                    set_bit(&mut self.dirty, i, true);
                }
                return Probe {
                    hit: true,
                    writeback: false,
                };
            }
        }

        // Miss path.
        if demand {
            self.stats.record_miss(write);
        }

        // Write-through caches do not allocate on write misses.
        if write && self.policy == WritePolicy::WriteThrough {
            return Probe {
                hit: false,
                writeback: false,
            };
        }

        // Choose a victim: the first invalid way if any, else true LRU
        // (first way on stamp ties, matching `min_by_key`).
        let mut victim = start;
        let mut best = u64::MAX;
        for i in start..start + assoc {
            let key = if self.tags[i] != TAG_INVALID {
                self.used[i] + 1
            } else {
                0
            };
            if key < best {
                best = key;
                victim = i;
            }
        }
        let mut writeback = false;
        if self.tags[victim] != TAG_INVALID {
            writeback = bit(&self.dirty, victim) && self.policy == WritePolicy::WriteBack;
            self.stats.record_eviction(writeback);
            self.last_victim = self.geometry.block_addr(self.tags[victim], set);
        }
        self.tags[victim] = tag;
        set_bit(
            &mut self.dirty,
            victim,
            write && self.policy == WritePolicy::WriteBack,
        );
        self.used[victim] = clock;
        Probe {
            hit: false,
            writeback,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(sets: u64, assoc: u64) -> Cache {
        Cache::new(CacheGeometry::new(sets, 16, assoc), WritePolicy::WriteBack)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny(4, 1);
        assert!(!c.access(0x100, false).hit);
        assert!(c.access(0x100, false).hit);
        assert!(c.access(0x10f, false).hit, "same block");
        assert_eq!(c.stats().misses(), 1);
        assert_eq!(c.stats().hits(), 2);
    }

    #[test]
    fn direct_mapped_conflict() {
        let mut c = tiny(4, 1);
        let cap = 4 * 16;
        assert!(!c.access(0, false).hit);
        assert!(!c.access(cap, false).hit, "same set, different tag");
        assert!(!c.access(0, false).hit, "got evicted");
    }

    #[test]
    fn two_way_avoids_that_conflict() {
        let mut c = tiny(4, 2);
        let stride = 4 * 16; // maps to the same set
        assert!(!c.access(0, false).hit);
        assert!(!c.access(stride, false).hit);
        assert!(
            c.access(0, false).hit,
            "both ways hold the conflicting pair"
        );
        assert!(c.access(stride, false).hit);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny(1, 2);
        c.access(0x00, false); // A
        c.access(0x10, false); // B
        c.access(0x00, false); // touch A; B is now LRU
        c.access(0x20, false); // C evicts B
        assert!(c.access(0x00, false).hit, "A stayed");
        assert!(!c.access(0x10, false).hit, "B was evicted");
    }

    #[test]
    fn writeback_of_dirty_victim() {
        let mut c = tiny(1, 1);
        c.access(0x00, true); // allocate dirty
        let p = c.access(0x10, false); // evicts dirty block
        assert!(p.writeback);
        assert_eq!(c.stats().writebacks(), 1);
    }

    #[test]
    fn write_through_never_writes_back_and_does_not_allocate_on_write_miss() {
        let mut c = Cache::new(CacheGeometry::new(1, 16, 1), WritePolicy::WriteThrough);
        c.access(0x00, true);
        assert!(!c.contains(0x00), "write miss does not allocate");
        c.access(0x00, false); // read fills
        c.access(0x00, true); // write hit, stays clean
        let p = c.access(0x10, false);
        assert!(!p.writeback);
        assert_eq!(c.stats().writebacks(), 0);
    }

    #[test]
    fn fill_does_not_count_as_demand() {
        let mut c = tiny(4, 1);
        c.fill(0x40);
        assert_eq!(c.stats().accesses(), 0);
        assert!(c.access(0x40, false).hit);
    }

    #[test]
    fn clear_resets_everything() {
        let mut c = tiny(4, 1);
        c.access(0x40, false);
        c.clear();
        assert!(!c.contains(0x40));
        assert_eq!(c.stats().accesses(), 0);
    }
}
