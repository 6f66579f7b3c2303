//! Hit/miss counters for caches and TLBs.

/// Access counters for one cache level.
///
/// Misses are counted, not classified: the paper's per-level miss rates
/// (Section 5.1) and evictions are what every figure and table reads.
/// "Why did this miss?" is answered by `cc-obs`'s miss attribution, which
/// names the conflict victim of each miss.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    reads: u64,
    writes: u64,
    read_misses: u64,
    write_misses: u64,
    evictions: u64,
    writebacks: u64,
    /// Demand accesses that found their block still in flight from a
    /// prefetch (hit, but had to wait for the remaining latency).
    prefetch_partial_hits: u64,
    /// Demand accesses fully covered by a completed prefetch.
    prefetch_full_hits: u64,
    prefetches_issued: u64,
}

impl CacheStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total demand accesses (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Demand reads.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Demand writes.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Total demand misses.
    pub fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }

    /// Demand read misses.
    pub fn read_misses(&self) -> u64 {
        self.read_misses
    }

    /// Demand write misses.
    pub fn write_misses(&self) -> u64 {
        self.write_misses
    }

    /// Total demand hits.
    pub fn hits(&self) -> u64 {
        self.accesses() - self.misses()
    }

    /// Lines evicted to make room.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Dirty lines written back (write-back caches only).
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Prefetches issued to this level.
    pub fn prefetches_issued(&self) -> u64 {
        self.prefetches_issued
    }

    /// Demand accesses that waited on an in-flight prefetch.
    pub fn prefetch_partial_hits(&self) -> u64 {
        self.prefetch_partial_hits
    }

    /// Demand accesses fully covered by a completed prefetch.
    pub fn prefetch_full_hits(&self) -> u64 {
        self.prefetch_full_hits
    }

    /// Demand miss rate `misses / accesses`; 0 when idle.
    ///
    /// This is the paper's per-level `m_L1` / `m_L2` (Section 5.1) — note
    /// the L2 rate is *local* (L2 misses over L2 accesses).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses() as f64
        }
    }

    /// Adds another run's counters into these, field by field — the sweep
    /// harness uses this to combine per-cell statistics into fleet totals.
    pub fn merge(&mut self, other: &CacheStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.read_misses += other.read_misses;
        self.write_misses += other.write_misses;
        self.evictions += other.evictions;
        self.writebacks += other.writebacks;
        self.prefetch_partial_hits += other.prefetch_partial_hits;
        self.prefetch_full_hits += other.prefetch_full_hits;
        self.prefetches_issued += other.prefetches_issued;
    }

    pub(crate) fn record_access(&mut self, write: bool) {
        if write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
    }

    /// Adds a batch worth of demand-read accounting at once — the batched
    /// replay path tallies its read probes in registers
    /// ([`crate::cache::ReadTally`]) and flushes them per batch, which is
    /// equivalent to per-probe recording because nothing reads the
    /// counters mid-batch.
    pub(crate) fn add_read_tally(&mut self, t: &crate::cache::ReadTally) {
        self.reads += t.reads;
        self.read_misses += t.misses;
        self.evictions += t.evictions;
        self.writebacks += t.writebacks;
    }

    pub(crate) fn record_miss(&mut self, write: bool) {
        if write {
            self.write_misses += 1;
        } else {
            self.read_misses += 1;
        }
    }

    pub(crate) fn record_eviction(&mut self, dirty: bool) {
        self.evictions += 1;
        if dirty {
            self.writebacks += 1;
        }
    }

    pub(crate) fn record_prefetch_issued(&mut self) {
        self.prefetches_issued += 1;
    }

    pub(crate) fn record_prefetch_hit(&mut self, partial: bool) {
        if partial {
            self.prefetch_partial_hits += 1;
        } else {
            self.prefetch_full_hits += 1;
        }
    }
}

/// Counters for the TLB.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    accesses: u64,
    misses: u64,
}

impl TlbStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total translations requested.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Translations that missed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate; 0 when idle.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Adds another run's counters into these (see [`CacheStats::merge`]).
    pub fn merge(&mut self, other: &TlbStats) {
        self.accesses += other.accesses;
        self.misses += other.misses;
    }

    pub(crate) fn record(&mut self, miss: bool) {
        self.accesses += 1;
        if miss {
            self.misses += 1;
        }
    }

    /// Adds a batch worth of translations at once — the batched replay
    /// path counts in registers and flushes per batch (see
    /// [`CacheStats::add_read_tally`] for why that is equivalent).
    pub(crate) fn add_bulk(&mut self, accesses: u64, misses: u64) {
        self.accesses += accesses;
        self.misses += misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_rate_is_zero_when_idle() {
        assert_eq!(CacheStats::new().miss_rate(), 0.0);
        assert_eq!(TlbStats::new().miss_rate(), 0.0);
    }

    #[test]
    fn counters_accumulate() {
        let mut s = CacheStats::new();
        s.record_access(false);
        s.record_access(true);
        s.record_miss(true);
        assert_eq!(s.accesses(), 2);
        assert_eq!(s.hits(), 1);
        assert_eq!(s.misses(), 1);
        assert_eq!(s.write_misses(), 1);
        assert!((s.miss_rate() - 0.5).abs() < 1e-12);
    }
}
