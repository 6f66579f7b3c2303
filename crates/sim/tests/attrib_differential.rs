//! Differential properties for miss attribution: enabling a
//! [`cc_obs::MissProfile`] on any engine must leave every observable —
//! cache statistics, TLB counters, accumulated cycles — bit-identical
//! to the unattributed run, and the profile's per-region tallies must
//! sum to exactly the engine's own `CacheStats` totals. Attribution is
//! a lens, not a different simulator.
//!
//! The batched and sharded engines attribute from inside their fast
//! paths (the same-block memo skip, the paired both-hit probe, the
//! inline direct-mapped read), so the profiles — region tallies,
//! conflict pairs and, with a [`FieldMap`], field tallies — must also
//! match the scalar reference's byte for byte.

use std::sync::Arc;

use cc_obs::attrib::Level as ObsLevel;
use cc_obs::{FieldMap, RegionMap};
use cc_sim::batch::BatchSink;
use cc_sim::cache::WritePolicy;
use cc_sim::event::{Event, EventSink};
use cc_sim::geometry::CacheGeometry;
use cc_sim::stats::CacheStats;
use cc_sim::{Latency, MachineConfig, MemorySink, ShardedReplayer, TraceBuf};
use proptest::prelude::*;

/// A machine with a *write-back* L1 and a 4-bit set-field overlap, so
/// the differential exercises dirty allocation and real shard
/// boundaries (same shape as the shard differential).
fn writeback_overlapped() -> MachineConfig {
    MachineConfig {
        l1: CacheGeometry::new(64, 16, 2),
        l1_policy: WritePolicy::WriteBack,
        l2: CacheGeometry::new(64, 64, 2),
        l2_policy: WritePolicy::WriteBack,
        latency: Latency {
            l1_hit: 1,
            l1_miss: 6,
            l2_miss: 64,
            tlb_miss: 30,
        },
        page_bytes: 256,
        tlb_entries: 4,
        clock_mhz: 100,
    }
}

/// A machine with *direct-mapped* write-back caches at both levels and
/// a 4-bit set-field overlap: every batched read takes the inline
/// `read_direct` path (and, for two-block loads, the paired both-hit
/// probe), with evictions to attribute at both levels.
fn direct_overlapped() -> MachineConfig {
    MachineConfig {
        l1: CacheGeometry::new(64, 16, 1),
        l1_policy: WritePolicy::WriteBack,
        l2: CacheGeometry::new(64, 64, 1),
        l2_policy: WritePolicy::WriteBack,
        ..writeback_overlapped()
    }
}

/// Same event decoder as the other differentials: biased toward
/// same-block runs (the memo skips), with stores, prefetches, and
/// teleports mixed in.
fn decode_trace(words: &[u64]) -> Vec<Event> {
    const ARENA: u64 = 8 * 1024;
    let mut cur: u64 = 0x100;
    let mut evs = Vec::with_capacity(words.len());
    for &r in words {
        let op = r % 100;
        let material = r >> 8;
        if op < 55 {
            cur = (cur + material % 24) % ARENA;
            let size = [1u32, 4, 8, 20][(material % 4) as usize];
            evs.push(Event::load(cur, size));
        } else if op < 70 {
            cur = material % ARENA;
            evs.push(Event::load_indep(cur, 8));
        } else if op < 80 {
            evs.push(Event::store(
                material % ARENA,
                [1u32, 8, 20][(material % 3) as usize],
            ));
        } else if op < 85 {
            evs.push(Event::Prefetch {
                addr: material % ARENA,
            });
        } else if op < 91 {
            evs.push(Event::Inst((material % 7) as u32));
        } else if op < 96 {
            evs.push(Event::Branch((material % 3) as u32));
        } else {
            cur = material % ARENA;
        }
    }
    evs
}

/// A decoder for the field differential, biased toward the two batched
/// shortcuts that skip a probe: runs of loads inside one 16-byte block
/// (the same-block memo) and 20-byte loads that straddle one block
/// boundary (the paired both-hit probe), over an arena whose field map
/// has padding and holes. Prefetches appear only when `prefetch` is
/// set, so half the cases drain with the in-flight table empty and half
/// with it armed.
fn decode_field_trace(words: &[u64], prefetch: bool) -> Vec<Event> {
    const ARENA: u64 = 8 * 1024;
    let mut cur: u64 = 0x100;
    let mut evs = Vec::with_capacity(words.len());
    for &r in words {
        let op = r % 100;
        let material = r >> 8;
        if op < 35 {
            // Same block as the previous load, another byte of it.
            cur = (cur & !15) | (material % 16);
            evs.push(Event::load(cur, [1u32, 2, 4][(material % 3) as usize]));
        } else if op < 60 {
            // A two-block straddle ending 1..=19 bytes into the next
            // block, near the current position.
            let next = ((cur & !15) + 16 * (material % 3)) % ARENA;
            cur = next + 16 - (1 + (material >> 4) % 15);
            evs.push(Event::load(cur, 20));
        } else if op < 72 {
            cur = material % ARENA;
            evs.push(Event::load_indep(cur, 8));
        } else if op < 78 {
            evs.push(Event::store(
                material % ARENA,
                [4u32, 20][(material % 2) as usize],
            ));
        } else if op < 84 && prefetch {
            evs.push(Event::Prefetch {
                addr: material % ARENA,
            });
        } else if op < 92 {
            evs.push(Event::Inst((material % 5) as u32));
        } else {
            cur = material % ARENA;
        }
    }
    evs
}

/// Packs `events` into small buffers (capacity 7, many boundaries).
fn pack(events: &[Event]) -> Vec<TraceBuf> {
    let mut bufs = Vec::new();
    let mut cur = TraceBuf::with_capacity(7);
    for &ev in events {
        if cur.is_full() {
            bufs.push(std::mem::replace(&mut cur, TraceBuf::with_capacity(7)));
        }
        cur.push(ev);
    }
    if !cur.is_empty() {
        bufs.push(cur);
    }
    bufs
}

/// Two named regions covering most of the 8 KB trace arena, with the
/// gaps falling to the implicit "other" region.
fn arena_regions() -> Arc<RegionMap> {
    let mut map = RegionMap::new();
    map.register("lo", 0x000, 0x1000);
    map.register("hi", 0x1000, 0x1800);
    Arc::new(map)
}

/// Fields over the 8 KB arena: a 24-byte record (non-power-of-two
/// stride) with padding after each field, a gap no extent covers, then
/// a 32-byte record (power-of-two stride) with trailing padding; the
/// arena's last 1 KB lies outside every extent.
fn arena_fields() -> Arc<FieldMap> {
    let mut map = FieldMap::new();
    let (key, left, tag) = (
        map.field_id("key"),
        map.field_id("left"),
        map.field_id("tag"),
    );
    let rec24 = map.add_table(&[(key, 0, 4), (left, 8, 8), (tag, 20, 2)]);
    let rec32 = map.add_table(&[(key, 0, 8), (tag, 16, 4)]);
    map.add_extent(0x0c0, 0x0c0 + 24 * 150, 24, rec24);
    map.add_extent(0x1000, 0x1c00, 32, rec32);
    Arc::new(map)
}

/// Per-level parity: the profile's summed tallies must equal the
/// engine's own `CacheStats` totals — every demand access and every
/// eviction (demand or prefetch fill) attributed exactly once.
fn assert_totals_match(
    profile: &cc_obs::MissProfile,
    l1: CacheStats,
    l2: CacheStats,
) -> Result<(), TestCaseError> {
    for (level, stats) in [(ObsLevel::L1, l1), (ObsLevel::L2, l2)] {
        let t = profile.totals(level);
        prop_assert_eq!(t.accesses, stats.accesses(), "accesses at {:?}", level);
        prop_assert_eq!(t.hits, stats.hits(), "hits at {:?}", level);
        prop_assert_eq!(t.misses, stats.misses(), "misses at {:?}", level);
        prop_assert_eq!(t.evictions, stats.evictions(), "evictions at {:?}", level);
    }
    Ok(())
}

/// The core differential: run the trace through every engine with and
/// without attribution; all observables must be bit-identical, the
/// three profiles must agree byte-for-byte, and tallies must sum to
/// the stats totals.
fn check_attrib(
    machine: MachineConfig,
    trace: &[Event],
    shards: usize,
) -> Result<(), TestCaseError> {
    check_attrib_with(machine, trace, shards, None)
}

/// [`check_attrib`] with field attribution on every engine when
/// `fields` is given; the compared JSON then carries the `fields`
/// section.
fn check_attrib_with(
    machine: MachineConfig,
    trace: &[Event],
    shards: usize,
    fields: Option<Arc<FieldMap>>,
) -> Result<(), TestCaseError> {
    let map = arena_regions();

    // Reference: the plain scalar sink.
    let mut plain = MemorySink::new(machine);
    for &ev in trace {
        plain.event(ev);
    }

    // Attributed scalar.
    let mut scalar = MemorySink::new(machine);
    scalar.enable_attribution(Arc::clone(&map));
    if let Some(f) = &fields {
        scalar.enable_field_attribution(Arc::clone(f));
    }
    for &ev in trace {
        scalar.event(ev);
    }
    prop_assert_eq!(scalar.system().l1_stats(), plain.system().l1_stats());
    prop_assert_eq!(scalar.system().l2_stats(), plain.system().l2_stats());
    prop_assert_eq!(scalar.system().tlb_stats(), plain.system().tlb_stats());
    prop_assert_eq!(scalar.memory_cycles(), plain.memory_cycles());
    let scalar_profile = scalar.attribution().expect("attribution enabled").clone();
    assert_totals_match(
        &scalar_profile,
        plain.system().l1_stats(),
        plain.system().l2_stats(),
    )?;

    // Attributed batched: the memos and inline fast paths report the
    // probes they resolve.
    let mut batched = BatchSink::with_capacity(machine, 7);
    batched.enable_attribution(Arc::clone(&map));
    if let Some(f) = &fields {
        batched.enable_field_attribution(Arc::clone(f));
    }
    for &ev in trace {
        batched.event(ev);
    }
    batched.flush();
    prop_assert_eq!(batched.system().l1_stats(), plain.system().l1_stats());
    prop_assert_eq!(batched.system().l2_stats(), plain.system().l2_stats());
    prop_assert_eq!(batched.system().tlb_stats(), plain.system().tlb_stats());
    prop_assert_eq!(batched.memory_cycles(), plain.memory_cycles());
    let batched_profile = batched.attribution().expect("attribution enabled");
    prop_assert_eq!(
        batched_profile.to_json(),
        scalar_profile.to_json(),
        "batched profile diverged from scalar"
    );

    // Attributed sharded (an unmemoized split, lanes on the fast
    // replay), crossing a segment boundary.
    let mut sharded = ShardedReplayer::new(machine, shards);
    sharded.enable_attribution(Arc::clone(&map));
    if let Some(f) = &fields {
        sharded.enable_field_attribution(Arc::clone(f));
    }
    let (a, b) = trace.split_at(trace.len() / 2);
    for seg in [a, b] {
        let split = sharded.split(&pack(seg));
        sharded.replay(&split);
    }
    prop_assert_eq!(sharded.l1_stats(), plain.system().l1_stats());
    prop_assert_eq!(sharded.l2_stats(), plain.system().l2_stats());
    prop_assert_eq!(sharded.tlb_stats(), plain.system().tlb_stats());
    prop_assert_eq!(sharded.memory_cycles(), plain.memory_cycles());
    let sharded_profile = sharded.attribution().expect("attribution enabled");
    prop_assert_eq!(
        sharded_profile.to_json(),
        scalar_profile.to_json(),
        "merged sharded profile diverged from scalar at {} shards",
        shards
    );
    Ok(())
}

proptest! {
    /// The tiny preset (clamps to one serial shard — still exact).
    #[test]
    fn attribution_is_invisible_test_tiny(
        words in prop::collection::vec(any::<u64>(), 40..400),
        shards in 1usize..9,
    ) {
        check_attrib(MachineConfig::test_tiny(), &decode_trace(&words), shards)?;
    }

    /// Write-back policies across real shard boundaries: eviction
    /// attribution under dirty allocation and writeback ordering.
    #[test]
    fn attribution_is_invisible_write_back(
        words in prop::collection::vec(any::<u64>(), 40..400),
        shards in 1usize..9,
    ) {
        check_attrib(writeback_overlapped(), &decode_trace(&words), shards)?;
    }

    /// The E5000 preset (write-through no-allocate L1, mostly-hit
    /// traffic — most loads attributed from the memo skips and the
    /// paired both-hit probe).
    #[test]
    fn attribution_is_invisible_e5000(
        words in prop::collection::vec(any::<u64>(), 40..400),
        shards in 1usize..9,
    ) {
        check_attrib(MachineConfig::ultrasparc_e5000(), &decode_trace(&words), shards)?;
    }
}

proptest! {
    /// Field tallies through the fast paths, on direct-mapped caches
    /// (inline `read_direct`, paired both-hit probe, memo skips), with
    /// and without prefetches in flight.
    #[test]
    fn field_attribution_is_identical_direct_mapped(
        words in prop::collection::vec(any::<u64>(), 40..400),
        shards in 1usize..9,
        prefetch in any::<bool>(),
    ) {
        let trace = decode_field_trace(&words, prefetch);
        check_attrib_with(direct_overlapped(), &trace, shards, Some(arena_fields()))?;
    }

    /// The tiny preset: a 64-byte L1 and a 1 KB L2, so nearly every
    /// straddle evicts and the victims' regions and fields churn.
    #[test]
    fn field_attribution_is_identical_test_tiny(
        words in prop::collection::vec(any::<u64>(), 40..400),
        shards in 1usize..9,
        prefetch in any::<bool>(),
    ) {
        let trace = decode_field_trace(&words, prefetch);
        check_attrib_with(MachineConfig::test_tiny(), &trace, shards, Some(arena_fields()))?;
    }

    /// Two-way caches: the inline read's associative probe, whose
    /// victims come from the LRU choice.
    #[test]
    fn field_attribution_is_identical_write_back(
        words in prop::collection::vec(any::<u64>(), 40..400),
        shards in 1usize..9,
        prefetch in any::<bool>(),
    ) {
        let trace = decode_field_trace(&words, prefetch);
        check_attrib_with(writeback_overlapped(), &trace, shards, Some(arena_fields()))?;
    }

    /// The E5000 preset: the machine the field legs run on.
    #[test]
    fn field_attribution_is_identical_e5000(
        words in prop::collection::vec(any::<u64>(), 40..400),
        shards in 1usize..9,
        prefetch in any::<bool>(),
    ) {
        let trace = decode_field_trace(&words, prefetch);
        check_attrib_with(MachineConfig::ultrasparc_e5000(), &trace, shards, Some(arena_fields()))?;
    }
}

/// The field map the differential uses resolves what it claims: the
/// padding, the hole between extents and the tail of the arena fall to
/// no field, so the differential's unattributed bucket is exercised.
#[test]
fn arena_field_map_has_padding_and_holes() {
    let map = arena_fields();
    let name = |a: u64| map.resolve(a).map(|f| map.name(f).to_string());
    assert_eq!(name(0x0c0).as_deref(), Some("key"));
    assert_eq!(name(0x0c0 + 24 * 3 + 4), None, "padding after key");
    assert_eq!(name(0x0c0 + 24 * 3 + 9).as_deref(), Some("left"));
    assert_eq!(name(0x0c0 + 24 * 3 + 21).as_deref(), Some("tag"));
    assert_eq!(name(0x0c0 + 24 * 3 + 23), None, "trailing padding");
    assert_eq!(name(0x0bf), None, "before every extent");
    assert_eq!(name(0x0f00), None, "between the extents");
    assert_eq!(name(0x1000 + 32 * 5 + 17).as_deref(), Some("tag"));
    assert_eq!(name(0x1000 + 32 * 5 + 24), None, "trailing padding");
    assert_eq!(name(0x1e00), None, "past every extent");
}

/// The field decoder reaches the shortcuts it is meant to: same-block
/// loads and one-boundary straddles dominate the loads it emits.
#[test]
fn field_trace_is_biased_to_memo_runs_and_straddles() {
    let words: Vec<u64> = (0..4000u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
        .collect();
    let trace = decode_field_trace(&words, false);
    let (mut same, mut straddle, mut loads) = (0, 0, 0);
    let mut prev_block = u64::MAX;
    for ev in &trace {
        if let Event::Load { addr, size, .. } = *ev {
            loads += 1;
            let (first, last) = (addr / 16, (addr + u64::from(size) - 1) / 16);
            same += u32::from(first == prev_block);
            straddle += u32::from(last == first + 1);
            prev_block = last;
        }
    }
    assert!(same * 4 > loads, "{same} same-block loads of {loads}");
    assert!(straddle * 4 > loads, "{straddle} straddles of {loads}");
    assert!(!trace.iter().any(|e| matches!(e, Event::Prefetch { .. })));
}

/// Two regions ping-ponging in a direct-mapped set must surface as a
/// mutual conflict pair — the exact signal the paper's coloring
/// decisions consume.
#[test]
fn ping_pong_regions_produce_conflict_pairs() {
    let machine = MachineConfig {
        l1: CacheGeometry::new(4, 16, 1),
        l1_policy: WritePolicy::WriteBack,
        l2: CacheGeometry::new(64, 64, 2),
        l2_policy: WritePolicy::WriteBack,
        latency: Latency {
            l1_hit: 1,
            l1_miss: 6,
            l2_miss: 64,
            tlb_miss: 30,
        },
        page_bytes: 256,
        tlb_entries: 4,
        clock_mhz: 100,
    };
    // way_bytes = 4 sets * 16 B = 64: addresses 0x00 and 0x40 collide
    // in L1 set 0.
    let mut map = RegionMap::new();
    let a = map.register("ping", 0x00, 0x10);
    let b = map.register("pong", 0x40, 0x50);
    let map = Arc::new(map);

    let mut sink = MemorySink::new(machine);
    sink.enable_attribution(Arc::clone(&map));
    for _ in 0..8 {
        sink.event(Event::load(0x00, 8));
        sink.event(Event::load(0x40, 8));
    }
    let profile = sink.attribution().expect("attribution enabled");
    let l1_pairs: Vec<_> = profile
        .conflict_pairs()
        .into_iter()
        .filter(|p| p.level == ObsLevel::L1)
        .collect();
    let ping_evicted_by_pong = l1_pairs
        .iter()
        .find(|p| p.victim == a && p.evictor == b)
        .expect("ping evicted by pong");
    let pong_evicted_by_ping = l1_pairs
        .iter()
        .find(|p| p.victim == b && p.evictor == a)
        .expect("pong evicted by ping");
    // First load of each region fills an invalid way; every later load
    // evicts the other region.
    assert_eq!(ping_evicted_by_pong.count, 8);
    assert_eq!(pong_evicted_by_ping.count, 7);
    assert_eq!(profile.tally(ObsLevel::L1, a).misses, 8);
    assert_eq!(profile.tally(ObsLevel::L1, b).misses, 8);
}
