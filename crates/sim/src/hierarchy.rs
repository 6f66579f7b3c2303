//! The two-level memory system: L1 + L2 + TLB + in-flight prefetch state.

use crate::cache::{Cache, WritePolicy};
use crate::config::MachineConfig;
use crate::fasthash::FastHashMap;
use crate::stats::{CacheStats, TlbStats};
use crate::tlb::Tlb;
use cc_obs::attrib::Level as ObsLevel;
use cc_obs::{FieldMap, MissProfile, RegionMap};
use std::sync::Arc;

/// Which level serviced an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Serviced by the L1 data cache.
    L1,
    /// Missed L1, hit L2.
    L2,
    /// Missed both caches; went to memory.
    Memory,
}

/// Demand access kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Result of one demand access.
// The u64 leads and the two one-byte tails pack behind it: 16 B instead
// of the 24 B the interleaved order cost (PAD-01); repr(C) pins it, the
// offset test at the bottom of this file holds it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(C)]
pub struct AccessOutcome {
    /// Processor-visible latency in cycles. For reads this follows the
    /// paper's Section 5.1 cost structure plus any TLB-miss penalty and any
    /// wait on an in-flight prefetch. For writes it is the L1 hit time plus
    /// TLB penalty: stores retire into the write buffer, whose occupancy
    /// the pipeline models separately.
    pub cycles: u64,
    /// Deepest level that had to be consulted.
    pub level: Level,
    /// Whether the TLB missed on this reference.
    pub tlb_miss: bool,
}

/// A two-level cache hierarchy with TLB and prefetch-in-flight tracking,
/// configured from a [`MachineConfig`].
///
/// # Example
///
/// ```
/// use cc_sim::{AccessKind, Level, MachineConfig, MemorySystem};
///
/// let mut mem = MemorySystem::new(MachineConfig::ultrasparc_e5000());
/// let first = mem.access(0x10000, 8, AccessKind::Read, 0);
/// assert_eq!(first.level, Level::Memory);
/// // 16-byte L1 lines: 8 bytes later still the same L1 block.
/// let second = mem.access(0x10008, 8, AccessKind::Read, 1);
/// assert_eq!(second.level, Level::L1);
/// assert_eq!(second.cycles, 1);
/// ```
#[derive(Clone, Debug)]
pub struct MemorySystem {
    pub(crate) config: MachineConfig,
    pub(crate) l1: Cache,
    pub(crate) l2: Cache,
    pub(crate) tlb: Option<Tlb>,
    /// L2-block-aligned address → cycle at which an issued prefetch's data
    /// actually arrives. The line is installed at issue time; a demand
    /// access before completion waits out the remainder. Probed per block
    /// on the demand path, so it uses the fast deterministic hasher.
    pub(crate) inflight: FastHashMap<u64, u64>,
    /// Per-region miss attribution, absent unless a caller opted in via
    /// [`MemorySystem::enable_attribution`]. Boxed so the disabled case
    /// costs one pointer in the struct and one null test per scalar block
    /// access. The batched and sharded fast paths test it once per batch
    /// or lane and run an attributing instantiation that reports every
    /// probe it makes — or proves a hit without making — at the probe's
    /// first referenced byte.
    pub(crate) attrib: Option<Box<MissProfile>>,
}

impl MemorySystem {
    /// Creates a cold memory system for `config`.
    pub fn new(config: MachineConfig) -> Self {
        MemorySystem {
            l1: Cache::new(config.l1, config.l1_policy),
            l2: Cache::new(config.l2, config.l2_policy),
            tlb: (config.tlb_entries > 0).then(|| Tlb::new(config.tlb_entries, config.page_bytes)),
            config,
            inflight: FastHashMap::default(),
            attrib: None,
        }
    }

    /// Starts attributing every demand access and eviction to the
    /// regions of `map`. Replay results (stats, cycles) are unchanged,
    /// and the batched and sharded engines keep their fast paths (memo
    /// skips, the paired both-hit probe, the inline read), each reporting
    /// the probes it resolves; the per-probe bookkeeping is what
    /// attribution costs (DESIGN.md §19 has the measured ratio).
    pub fn enable_attribution(&mut self, map: Arc<RegionMap>) {
        self.attrib = Some(Box::new(MissProfile::new(map)));
    }

    /// Whether attribution is currently enabled.
    pub fn attribution_enabled(&self) -> bool {
        self.attrib.is_some()
    }

    /// Additionally resolves each demand access below region granularity
    /// to the struct *field* it touches, per `map` (see
    /// [`cc_obs::FieldMap`]). Requires region attribution to be enabled
    /// first — field tallies live inside the same [`MissProfile`].
    ///
    /// # Panics
    ///
    /// Panics if [`MemorySystem::enable_attribution`] was not called.
    pub fn enable_field_attribution(&mut self, map: Arc<FieldMap>) {
        let p = self
            .attrib
            .as_deref_mut()
            .expect("field attribution requires enable_attribution first");
        p.enable_fields(map);
    }

    /// The accumulated attribution profile, if enabled.
    pub fn attribution(&self) -> Option<&MissProfile> {
        self.attrib.as_deref()
    }

    /// Stops attributing and returns the accumulated profile.
    pub fn take_attribution(&mut self) -> Option<MissProfile> {
        self.attrib.take().map(|b| *b)
    }

    /// [`MemorySystem::attribute`] for the scalar reference path. Kept
    /// out of line so an unattributed scalar access pays only the
    /// `is_some` test at each call site.
    #[cold]
    fn note(&mut self, level: ObsLevel, addr: u64, hit: Option<bool>, victim: Option<u64>) {
        self.attribute(level, addr, hit, victim);
    }

    /// Records one attribution event: a demand access (`hit` is
    /// `Some`) or a bare fill (`hit` is `None`), plus the eviction it
    /// caused, if any. The fast paths call it directly from their
    /// attributing instantiations.
    #[inline(always)]
    pub(crate) fn attribute(
        &mut self,
        level: ObsLevel,
        addr: u64,
        hit: Option<bool>,
        victim: Option<u64>,
    ) {
        let Some(p) = self.attrib.as_deref_mut() else {
            return;
        };
        let region = p.resolve(addr);
        if let Some(hit) = hit {
            p.record_access(level, region, hit);
            p.record_field_access(level, addr, hit);
        }
        if let Some(victim) = victim {
            let victim_region = p.resolve(victim);
            p.record_eviction(level, victim_region, region);
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// L1 statistics.
    pub fn l1_stats(&self) -> CacheStats {
        self.l1.stats()
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// TLB statistics (zeroes if the TLB is disabled).
    pub fn tlb_stats(&self) -> TlbStats {
        self.tlb.as_ref().map(|t| t.stats()).unwrap_or_default()
    }

    /// Zeroes all statistics, keeping cache/TLB contents — lets callers
    /// separate warm-up from steady state (Section 5's "start-up misses").
    pub fn reset_stats(&mut self) {
        self.l1.reset_stats();
        self.l2.reset_stats();
        if let Some(t) = &mut self.tlb {
            t.reset_stats();
        }
    }

    /// Expected per-reference memory access time from the measured miss
    /// rates, via the paper's Section 5.1 formula (TLB excluded).
    pub fn formula_access_time(&self) -> f64 {
        self.config
            .latency
            .access_time(self.l1.stats().miss_rate(), self.l2.stats().miss_rate())
    }

    /// Performs a demand access at cycle `now`.
    ///
    /// A reference that straddles block boundaries touches every block in
    /// `[addr, addr+size)`; the latencies add (the blocks are fetched
    /// serially), which penalizes layouts that split elements across
    /// blocks — one of the effects clustering avoids.
    pub fn access(&mut self, addr: u64, size: u32, kind: AccessKind, now: u64) -> AccessOutcome {
        let lat = self.config.latency;
        let mut cycles = 0;
        let mut deepest = Level::L1;
        let mut tlb_missed = false;

        // Translate once per page touched. Pages are a power of two (the
        // TLB asserts it), so the page of an address is a shift.
        if let Some(tlb) = &mut self.tlb {
            let shift = tlb.page_shift();
            let first = addr >> shift;
            let last = (addr + u64::from(size).max(1) - 1) >> shift;
            for p in first..=last {
                if !tlb.access(p << shift) {
                    cycles += lat.tlb_miss;
                    tlb_missed = true;
                }
            }
        }

        let write = kind == AccessKind::Write;
        let l1 = self.config.l1;
        for baddr in l1.blocks_touched(addr, u64::from(size)) {
            // Pass the first byte the reference actually touches in this
            // block (the raw address for the first block, the block base
            // for the rest): every probe below masks to block/set/tag
            // internally, so stats are unchanged, but attribution resolves
            // the precise byte — and thus the right region and *field* —
            // instead of smearing onto whatever owns the block base.
            let level = self.access_block(addr.max(baddr), write, now, &mut cycles);
            deepest = deepest.max(level);
        }

        if write {
            // Stores retire into the write buffer: processor-visible cost
            // is the hit time; the drain cost shows up as store stall in
            // the pipeline model.
            cycles = lat.l1_hit + if tlb_missed { lat.tlb_miss } else { 0 };
        }
        AccessOutcome {
            level: deepest,
            cycles,
            tlb_miss: tlb_missed,
        }
    }

    pub(crate) fn access_block(
        &mut self,
        addr: u64,
        write: bool,
        now: u64,
        cycles: &mut u64,
    ) -> Level {
        let lat = self.config.latency;

        // Wait out any in-flight prefetch covering this block. Only
        // prefetches fill the map, so runs without them never hash here.
        if !self.inflight.is_empty() {
            if let Some(done) = self.inflight.remove(&self.config.l2.block_of(addr)) {
                let wait = done.saturating_sub(now);
                *cycles += wait;
                self.l2.stats_record_prefetch_hit(wait > 0);
            }
        }

        let l1 = self.l1.access(addr, write);
        if self.attrib.is_some() {
            self.note(ObsLevel::L1, addr, Some(l1.hit), self.l1.last_victim());
        }
        if l1.hit {
            *cycles += lat.l1_hit;
            // Write-through: the write still propagates to L2 (traffic is
            // accounted; latency is hidden by the write buffer).
            if write && self.l1.policy() == WritePolicy::WriteThrough {
                let l2 = self.l2.access(addr, true);
                if self.attrib.is_some() {
                    self.note(ObsLevel::L2, addr, Some(l2.hit), self.l2.last_victim());
                }
                return if l2.hit { Level::L2 } else { Level::Memory };
            }
            return Level::L1;
        }

        let l2 = self.l2.access(addr, write);
        if self.attrib.is_some() {
            self.note(ObsLevel::L2, addr, Some(l2.hit), self.l2.last_victim());
        }
        if l2.hit {
            *cycles += lat.l1_hit + lat.l1_miss;
            Level::L2
        } else {
            *cycles += lat.l1_hit + lat.l1_miss + lat.l2_miss;
            Level::Memory
        }
    }

    /// Issues a non-binding prefetch for the block containing `addr` at
    /// cycle `now`. The line is installed immediately (so later accesses
    /// and evictions see it) and marked in flight until the data would
    /// really arrive; a demand access before then waits the remainder.
    ///
    /// Returns `true` if a prefetch was actually issued (i.e. the block was
    /// not already resident in L1).
    pub fn prefetch(&mut self, addr: u64, now: u64) -> bool {
        let lat = self.config.latency;
        if self.l1.contains(addr) {
            return false;
        }
        let l2_block = self.config.l2.block_of(addr);
        let in_l2 = self.l2.contains(addr);
        self.l2.stats_record_prefetch_issued();
        self.l2.fill(addr);
        self.l1.fill(addr);
        if self.attrib.is_some() {
            // Prefetch fills displace blocks without a demand access:
            // record the evictions so a region whose prefetches thrash
            // another region still shows up as its evictor.
            self.note(ObsLevel::L2, addr, None, self.l2.last_victim());
            self.note(ObsLevel::L1, addr, None, self.l1.last_victim());
        }
        let arrival = if in_l2 {
            now + lat.l1_miss
        } else {
            now + lat.l1_miss + lat.l2_miss
        };
        // Keep the later arrival if a prefetch is already outstanding.
        let slot = self.inflight.entry(l2_block).or_insert(arrival);
        *slot = (*slot).max(arrival);
        true
    }

    /// Number of prefetches currently in flight (not yet arrived) at `now`.
    pub fn inflight_at(&self, now: u64) -> usize {
        self.inflight.values().filter(|&&t| t > now).count()
    }

    /// Whether the block containing `addr` is resident in L1.
    pub fn l1_contains(&self, addr: u64) -> bool {
        self.l1.contains(addr)
    }

    /// Whether the block containing `addr` is resident in L2.
    pub fn l2_contains(&self, addr: u64) -> bool {
        self.l2.contains(addr)
    }
}

// Small private extensions so MemorySystem can record prefetch outcomes on
// the L2's stats without exposing mutable stats publicly.
impl Cache {
    fn stats_record_prefetch_issued(&mut self) {
        self.stats_mut().record_prefetch_issued();
    }
    fn stats_record_prefetch_hit(&mut self, partial: bool) {
        self.stats_mut().record_prefetch_hit(partial);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemorySystem {
        MemorySystem::new(MachineConfig::ultrasparc_e5000())
    }

    // Compiler-backed pin of the repr(C) reorder: cycles leads, the two
    // byte-wide tails pack behind it (16 B total, down from 24).
    #[test]
    fn access_outcome_offsets_are_pinned() {
        assert_eq!(core::mem::offset_of!(AccessOutcome, cycles), 0);
        assert_eq!(core::mem::offset_of!(AccessOutcome, level), 8);
        assert_eq!(core::mem::offset_of!(AccessOutcome, tlb_miss), 9);
        assert_eq!(core::mem::size_of::<AccessOutcome>(), 16);
    }

    #[test]
    fn cold_read_costs_full_latency() {
        let mut m = sys();
        let out = m.access(0x4000_0000, 8, AccessKind::Read, 0);
        assert_eq!(out.level, Level::Memory);
        // 1 + 6 + 64 plus one TLB miss (30).
        assert_eq!(out.cycles, 71 + 30);
        assert!(out.tlb_miss);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut m = sys();
        let a = 0x1000;
        m.access(a, 8, AccessKind::Read, 0);
        // Evict from L1 (16 KB apart maps to same L1 set, different L2 set).
        m.access(a + 16 * 1024, 8, AccessKind::Read, 1);
        let out = m.access(a, 8, AccessKind::Read, 2);
        assert_eq!(out.level, Level::L2);
        assert_eq!(out.cycles, 7);
    }

    #[test]
    fn same_l2_block_is_an_l2_hit_for_neighbouring_l1_blocks() {
        // Two 20-byte "tree nodes" packed in one 64-byte L2 block: the
        // second node misses the 16-byte L1 but hits L2 — the clustering
        // effect the paper exploits.
        let mut m = sys();
        m.access(0x2000, 20, AccessKind::Read, 0);
        let out = m.access(0x2014, 20, AccessKind::Read, 1);
        assert_eq!(out.level, Level::L2);
    }

    #[test]
    fn straddling_reference_costs_more() {
        let mut m = sys();
        // 20-byte element at offset 56 straddles two L2 blocks.
        let a = m.access(0x3038, 20, AccessKind::Read, 0);
        let mut m2 = sys();
        let b = m2.access(0x3000, 20, AccessKind::Read, 0);
        assert!(a.cycles > b.cycles);
    }

    #[test]
    fn prefetch_then_access_is_a_hit_with_wait() {
        let mut m = sys();
        assert!(m.prefetch(0x8000, 0));
        // Demand access 10 cycles later: data arrives at 70, so wait 60,
        // plus the L1 hit (line already installed) and TLB miss.
        let out = m.access(0x8000, 8, AccessKind::Read, 10);
        assert_eq!(out.level, Level::L1);
        assert_eq!(out.cycles, 60 + 1 + 30);
        // After completion: free hit.
        let out2 = m.access(0x8008, 8, AccessKind::Read, 200);
        assert_eq!(out2.cycles, 1);
    }

    #[test]
    fn prefetch_to_resident_block_is_a_noop() {
        let mut m = sys();
        m.access(0x8000, 8, AccessKind::Read, 0);
        assert!(!m.prefetch(0x8000, 1));
        assert_eq!(m.l2_stats().prefetches_issued(), 0);
    }

    #[test]
    fn write_cost_is_buffered() {
        let mut m = sys();
        m.access(0x9000, 8, AccessKind::Read, 0); // warm TLB + caches
        let out = m.access(0x9008, 8, AccessKind::Write, 1);
        assert_eq!(out.cycles, 1, "store retires into the write buffer");
    }

    #[test]
    fn inflight_bookkeeping() {
        let mut m = sys();
        m.prefetch(0xA000, 0);
        m.prefetch(0xB000, 0);
        assert_eq!(m.inflight_at(10), 2);
        assert_eq!(m.inflight_at(1000), 0);
    }

    #[test]
    fn formula_access_time_tracks_stats() {
        let mut m = sys();
        for i in 0..100u64 {
            m.access(i * 4096, 8, AccessKind::Read, i);
        }
        // Every access was a cold miss at both levels.
        let t = m.formula_access_time();
        assert!((t - 71.0).abs() < 1e-9, "t = {t}");
    }
}
