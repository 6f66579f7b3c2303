//! An independent oracle for the scalar simulator.
//!
//! Every faster engine (batched, sharded, sampled) is checked against
//! the scalar [`MemorySystem`]; this file checks the scalar engine
//! against a model written for obviousness instead of speed. Each set
//! is a plain list of resident blocks searched linearly, LRU is a
//! minimum over last-use stamps, and the TLB is an MRU-first list — no
//! memo, no sentinel tags, no bitmaps, no hashing. The two share only
//! the documented semantics: write-through levels do not allocate on
//! write misses, a store costs the hit time plus any TLB penalty, and a
//! reference touches every L1 block (and page) it overlaps, in address
//! order.

use cc_sim::cache::WritePolicy;
use cc_sim::geometry::CacheGeometry;
use cc_sim::{AccessKind, CacheStats, Latency, Level, MachineConfig, MemorySystem};
use proptest::prelude::*;

/// One cache level: `sets[s]` holds `(block, dirty, last_use)` for each
/// resident line, at most `assoc` of them.
struct NaiveCache {
    /// reads, writes, read misses, write misses, evictions, writebacks —
    /// [`CacheStats`]' demand counters, in order.
    counts: [u64; 6],
    assoc: usize,
    block_bytes: u64,
    sets: Vec<Vec<(u64, bool, u64)>>,
    clock: u64,
    write_back: bool,
}

impl NaiveCache {
    fn new(g: CacheGeometry, policy: WritePolicy) -> Self {
        NaiveCache {
            counts: [0; 6],
            assoc: g.assoc() as usize,
            block_bytes: g.block_bytes(),
            sets: vec![Vec::new(); g.sets() as usize],
            clock: 0,
            write_back: policy == WritePolicy::WriteBack,
        }
    }

    /// A demand access; returns whether it hit.
    fn access(&mut self, addr: u64, write: bool) -> bool {
        self.clock += 1;
        self.counts[usize::from(write)] += 1;
        let block = addr / self.block_bytes;
        let nsets = self.sets.len() as u64;
        let set = &mut self.sets[(block % nsets) as usize];
        if let Some(line) = set.iter_mut().find(|l| l.0 == block) {
            line.2 = self.clock;
            line.1 |= write && self.write_back;
            return true;
        }
        self.counts[2 + usize::from(write)] += 1;
        if write && !self.write_back {
            return false; // write-around: no allocation
        }
        if set.len() == self.assoc {
            let lru = (0..set.len()).min_by_key(|&i| set[i].2).unwrap();
            let (_, dirty, _) = set.remove(lru);
            self.counts[4] += 1;
            self.counts[5] += u64::from(dirty);
        }
        set.push((block, write && self.write_back, self.clock));
        false
    }

    fn counts_of(s: &CacheStats) -> [u64; 6] {
        [
            s.reads(),
            s.writes(),
            s.read_misses(),
            s.write_misses(),
            s.evictions(),
            s.writebacks(),
        ]
    }
}

/// The whole hierarchy: L1, L2 and an optional LRU-list TLB.
struct Naive {
    /// TLB accesses and misses.
    tlb_counts: [u64; 2],
    /// Resident pages, most recently used first.
    tlb: Vec<u64>,
    l1: NaiveCache,
    l2: NaiveCache,
    m: MachineConfig,
}

impl Naive {
    fn new(m: MachineConfig) -> Self {
        Naive {
            tlb_counts: [0; 2],
            tlb: Vec::new(),
            l1: NaiveCache::new(m.l1, m.l1_policy),
            l2: NaiveCache::new(m.l2, m.l2_policy),
            m,
        }
    }

    /// Returns `(cycles, deepest level, tlb missed)`.
    fn access(&mut self, addr: u64, size: u32, write: bool) -> (u64, Level, bool) {
        let lat = self.m.latency;
        let end = addr + u64::from(size.max(1)) - 1;
        let (mut cycles, mut tlb_miss) = (0, false);
        if self.m.tlb_entries > 0 {
            for page in addr / self.m.page_bytes..=end / self.m.page_bytes {
                self.tlb_counts[0] += 1;
                if let Some(i) = self.tlb.iter().position(|&p| p == page) {
                    self.tlb.remove(i);
                } else {
                    self.tlb_counts[1] += 1;
                    cycles += lat.tlb_miss;
                    tlb_miss = true;
                    self.tlb.truncate(self.m.tlb_entries - 1);
                }
                self.tlb.insert(0, page);
            }
        }
        let mut deepest = Level::L1;
        let b = self.m.l1.block_bytes();
        for block in addr / b..=end / b {
            let a = addr.max(block * b);
            let level = if self.l1.access(a, write) {
                cycles += lat.l1_hit;
                if write && !self.l1.write_back {
                    if self.l2.access(a, true) {
                        Level::L2
                    } else {
                        Level::Memory
                    }
                } else {
                    Level::L1
                }
            } else if self.l2.access(a, write) {
                cycles += lat.l1_hit + lat.l1_miss;
                Level::L2
            } else {
                cycles += lat.l1_hit + lat.l1_miss + lat.l2_miss;
                Level::Memory
            };
            deepest = deepest.max(level);
        }
        if write {
            cycles = lat.l1_hit + if tlb_miss { lat.tlb_miss } else { 0 };
        }
        (cycles, deepest, tlb_miss)
    }
}

/// A machine from `shape`'s bits, with the three dimensions the oracle
/// must cover fixed by `combo`: bit 0 = set-associative L1, bit 1 =
/// write-back L1, bit 2 = TLB on.
fn machine(shape: u64, combo: u32) -> MachineConfig {
    let bits = |lo: u32, n: u32| (shape >> lo) & ((1 << n) - 1);
    let policy = |wb: bool| {
        if wb {
            WritePolicy::WriteBack
        } else {
            WritePolicy::WriteThrough
        }
    };
    let l1_block = 16 << bits(0, 1);
    MachineConfig {
        l1: CacheGeometry::new(
            1 << bits(1, 3),
            l1_block,
            [1, 2 << bits(4, 1)][combo as usize & 1],
        ),
        l1_policy: policy(combo & 2 != 0),
        l2: CacheGeometry::new(1 << bits(5, 3), l1_block << bits(8, 2), 1 << bits(10, 2)),
        l2_policy: policy(bits(12, 1) == 1),
        latency: Latency {
            l1_hit: 1 + bits(13, 1),
            l1_miss: 6,
            l2_miss: 64,
            tlb_miss: 30,
        },
        page_bytes: 256 << bits(14, 3),
        tlb_entries: if combo & 4 != 0 {
            1 + bits(17, 3) as usize
        } else {
            0
        },
        clock_mhz: 100,
    }
}

/// References over a 16 KiB arena: mostly short strides from the last
/// address, some jumps; sizes up to 64 bytes at any offset, so many
/// references straddle L1 blocks, L2 blocks and pages.
fn decode(words: &[u64]) -> Vec<(u64, u32, bool)> {
    let mut cur = 0x4000u64;
    let mut refs = Vec::with_capacity(words.len());
    for &w in words {
        let m = w >> 8;
        cur = if w % 4 == 0 {
            0x4000 + m % 0x4000
        } else {
            0x4000 + (cur + m % 48) % 0x4000
        };
        let size = [1, 4, 8, 20, 24, 40, 64][(m >> 20) as usize % 7];
        refs.push((cur, size, (w >> 4) % 4 == 0));
    }
    refs
}

fn check(m: MachineConfig, refs: &[(u64, u32, bool)]) -> Result<(), TestCaseError> {
    let mut naive = Naive::new(m);
    let mut sys = MemorySystem::new(m);
    for (i, &(addr, size, write)) in refs.iter().enumerate() {
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let got = sys.access(addr, size, kind, i as u64);
        prop_assert_eq!(
            (got.cycles, got.level, got.tlb_miss),
            naive.access(addr, size, write),
            "reference {} ({:#x}+{}, write {}) on {:?}",
            i,
            addr,
            size,
            write,
            m
        );
    }
    prop_assert_eq!(
        NaiveCache::counts_of(&sys.l1_stats()),
        naive.l1.counts,
        "L1"
    );
    prop_assert_eq!(
        NaiveCache::counts_of(&sys.l2_stats()),
        naive.l2.counts,
        "L2"
    );
    let tlb = sys.tlb_stats();
    prop_assert_eq!([tlb.accesses(), tlb.misses()], naive.tlb_counts, "TLB");
    Ok(())
}

proptest! {
    /// Random geometries, each trace run under all eight combinations
    /// of direct-mapped/associative L1, write-through/write-back L1, and
    /// TLB off/on.
    #[test]
    fn scalar_matches_naive_oracle(
        shape in any::<u64>(),
        words in prop::collection::vec(any::<u64>(), 1..400),
    ) {
        let refs = decode(&words);
        for combo in 0..8 {
            check(machine(shape, combo), &refs)?;
        }
    }

    /// The presets the figures run on.
    #[test]
    fn presets_match_naive_oracle(words in prop::collection::vec(any::<u64>(), 1..400)) {
        let refs = decode(&words);
        for m in [MachineConfig::table1(), MachineConfig::ultrasparc_e5000(), MachineConfig::test_tiny()] {
            check(m, &refs)?;
        }
    }
}
