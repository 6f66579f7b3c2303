//! Differential properties for set-sharded replay: for any event stream,
//! any shard count, and any machine, the sharded replayer must be
//! observationally equal to both the scalar sink and the batched sink —
//! identical cache statistics, TLB counters, accumulated cycles, and
//! instruction/branch totals. The equality must survive segment
//! boundaries (persistent shard state), `TraceCorruption` faults
//! (repair-and-continue), and poisoned workers (serial fallback).

use cc_sim::batch::BatchSink;
use cc_sim::cache::WritePolicy;
use cc_sim::event::{Event, EventSink};
use cc_sim::geometry::CacheGeometry;
use cc_sim::{
    Latency, MachineConfig, MemorySink, ShardedReplayer, SplitPool, TraceBuf, TraceFault,
};
use proptest::prelude::*;

/// A machine with a *write-back* L1 and a 4-bit set-field overlap, so the
/// differential exercises dirty allocation and writeback ordering across
/// real shard boundaries (the stock tiny preset clamps to one shard).
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

/// Same event decoder as the batched differential: biased toward the
/// same-block runs the memos short-circuit, with enough stores,
/// prefetches, and teleports to stress every invalidation edge.
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

/// Packs `events` into small buffers (capacity 7, many boundaries) tagged
/// with `space`.
fn pack(events: &[Event], space: u32) -> Vec<TraceBuf> {
    let mut bufs = Vec::new();
    let mut cur = TraceBuf::with_capacity(7);
    cur.set_space(space);
    for &ev in events {
        if cur.is_full() {
            let mut next = TraceBuf::with_capacity(7);
            next.set_space(space);
            bufs.push(std::mem::replace(&mut cur, next));
        }
        cur.push(ev);
    }
    if !cur.is_empty() {
        bufs.push(cur);
    }
    bufs
}

/// The tri-engine check: scalar vs batched vs sharded (the latter split
/// into two segments so persistent shard state crosses a boundary). The
/// sharded engine runs twice — once over splits into fresh buffers and
/// once over pooled splits whose second segment reuses the first
/// segment's recycled lane buffers — and the two must agree exactly.
fn check_tri(machine: MachineConfig, trace: &[Event], shards: usize) -> Result<(), TestCaseError> {
    let mut scalar = MemorySink::new(machine);
    let mut batched = BatchSink::with_capacity(machine, 7);
    for &ev in trace {
        scalar.event(ev);
        batched.event(ev);
    }
    batched.flush();

    let mut sharded = ShardedReplayer::new(machine, shards);
    let (a, b) = trace.split_at(trace.len() / 2);
    for seg in [a, b] {
        let split = sharded.split(&pack(seg, 0));
        sharded.replay(&split);
    }

    // Same segments through one shared pool: segment `b` splits into the
    // very buffers segment `a` handed back.
    let pool = SplitPool::new();
    let mut pooled = ShardedReplayer::new(machine, shards);
    for seg in [a, b] {
        let split = pooled.split_pooled(&pack(seg, 0), &pool);
        pooled.replay(&split);
        pool.recycle(split);
    }
    prop_assert_eq!(pool.idle(), 1, "recycled buffers not retained");
    prop_assert_eq!(
        pooled.l1_stats(),
        sharded.l1_stats(),
        "pooled split diverged from fresh split at {} shards",
        shards
    );
    prop_assert_eq!(pooled.l2_stats(), sharded.l2_stats(), "pooled L2");
    prop_assert_eq!(pooled.tlb_stats(), sharded.tlb_stats(), "pooled TLB");
    prop_assert_eq!(
        pooled.memory_cycles(),
        sharded.memory_cycles(),
        "pooled cycles"
    );
    prop_assert_eq!(pooled.insts(), sharded.insts());
    prop_assert_eq!(pooled.branches(), sharded.branches());

    prop_assert_eq!(
        sharded.l1_stats(),
        scalar.system().l1_stats(),
        "sharded L1 diverged from scalar at {} shards",
        shards
    );
    prop_assert_eq!(sharded.l2_stats(), scalar.system().l2_stats(), "L2");
    prop_assert_eq!(sharded.tlb_stats(), scalar.system().tlb_stats(), "TLB");
    prop_assert_eq!(sharded.memory_cycles(), scalar.memory_cycles(), "cycles");
    prop_assert_eq!(sharded.insts(), scalar.insts());
    prop_assert_eq!(sharded.branches(), scalar.branches());

    prop_assert_eq!(
        sharded.l1_stats(),
        batched.system().l1_stats(),
        "vs batched L1"
    );
    prop_assert_eq!(
        sharded.l2_stats(),
        batched.system().l2_stats(),
        "vs batched L2"
    );
    prop_assert_eq!(
        sharded.tlb_stats(),
        batched.system().tlb_stats(),
        "vs batched TLB"
    );
    prop_assert_eq!(
        sharded.memory_cycles(),
        batched.memory_cycles(),
        "vs batched cycles"
    );
    Ok(())
}

proptest! {
    /// The tiny preset (empty overlap — requested counts clamp to one
    /// serial shard, which must still be exact).
    #[test]
    fn sharded_equals_scalar_test_tiny(
        words in prop::collection::vec(any::<u64>(), 40..400),
        shards in 1usize..9,
    ) {
        check_tri(MachineConfig::test_tiny(), &decode_trace(&words), shards)?;
    }

    /// The paper's Table 1 RSIM machine (7-bit overlap: all eight counts
    /// are exact, including the non-power-of-two ones).
    #[test]
    fn sharded_equals_scalar_table1(
        words in prop::collection::vec(any::<u64>(), 40..400),
        shards in 1usize..9,
    ) {
        check_tri(MachineConfig::table1(), &decode_trace(&words), shards)?;
    }

    /// The E5000 preset (8-bit overlap, mostly-hit traffic: maximal memo
    /// resolution at split time).
    #[test]
    fn sharded_equals_scalar_e5000(
        words in prop::collection::vec(any::<u64>(), 40..400),
        shards in 1usize..9,
    ) {
        check_tri(MachineConfig::ultrasparc_e5000(), &decode_trace(&words), shards)?;
    }

    /// Write-back policies across real shard boundaries.
    #[test]
    fn sharded_equals_scalar_write_back(
        words in prop::collection::vec(any::<u64>(), 40..400),
        shards in 1usize..9,
    ) {
        check_tri(writeback_overlapped(), &decode_trace(&words), shards)?;
    }

    /// `TraceCorruption` faults: the splitter repairs corrupt buffers and
    /// continues; the result must equal the scalar replay of the repaired
    /// stream, and the repair must be counted. The split runs twice
    /// through one pool: round one fills fresh buffers, round two splits
    /// the corrupt buffers into lane storage recycled from round one.
    #[test]
    fn sharded_survives_trace_faults(
        words in prop::collection::vec(any::<u64>(), 60..300),
        shards in 1usize..9,
        fault_sel in any::<u64>(),
    ) {
        let machine = writeback_overlapped();
        let mut bufs = pack(&decode_trace(&words), 0);
        let victim = (fault_sel as usize) % bufs.len();
        let fault = match fault_sel % 3 {
            0 => TraceFault::TruncateAddrLane { keep: (fault_sel >> 8) as usize % 7 },
            1 => TraceFault::ZeroGapRun { entry: (fault_sel >> 8) as usize },
            _ => TraceFault::ScrambleAddrs { seed: fault_sel >> 8 },
        };
        bufs[victim].inject_fault(&fault);
        let structural = bufs[victim].validate().is_err();

        // Reference: the post-repair event stream through the scalar sink
        // (repair is a no-op on semantically-scrambled-but-valid buffers).
        let mut repaired = bufs.clone();
        for buf in &mut repaired {
            buf.repair();
        }
        let ref_events: Vec<Event> = repaired.iter().flat_map(|b| b.events()).collect();
        let mut scalar = MemorySink::new(machine);
        for &ev in &ref_events {
            scalar.event(ev);
        }

        let pool = SplitPool::new();
        for round in 0..2 {
            let mut sharded = ShardedReplayer::new(machine, shards);
            let split = sharded.split_pooled(&bufs, &pool);
            prop_assert_eq!(split.repaired_bufs(), u64::from(structural));
            sharded.replay(&split);
            pool.recycle(split);
            prop_assert_eq!(sharded.degradation().repaired_bufs, u64::from(structural));
            prop_assert_eq!(sharded.l1_stats(), scalar.system().l1_stats(),
                "fault round {}", round);
            prop_assert_eq!(sharded.l2_stats(), scalar.system().l2_stats());
            prop_assert_eq!(sharded.tlb_stats(), scalar.system().tlb_stats());
            prop_assert_eq!(sharded.memory_cycles(), scalar.memory_cycles());
        }
        prop_assert_eq!(pool.idle(), 1);
    }

    /// Poisoned workers: any subset of lanes may panic at entry; every
    /// poisoned lane must come back through the serial fallback with the
    /// merge still bit-identical, and the counters must account for each.
    #[test]
    fn sharded_poison_fallback_stays_exact(
        words in prop::collection::vec(any::<u64>(), 40..300),
        shards in 2usize..9,
        poison_mask in any::<u64>(),
    ) {
        let machine = writeback_overlapped();
        let trace = decode_trace(&words);
        let mut scalar = MemorySink::new(machine);
        for &ev in &trace {
            scalar.event(ev);
        }
        let mut sharded = ShardedReplayer::new(machine, shards);
        let poisoned: Vec<usize> =
            (0..sharded.shards()).filter(|i| poison_mask & (1 << i) != 0).collect();
        let split = sharded.split(&pack(&trace, 0));
        sharded.replay_poisoned(&split, &poisoned);
        let d = sharded.degradation();
        prop_assert_eq!(d.worker_panics, poisoned.len() as u64);
        prop_assert_eq!(d.fallback_lanes, poisoned.len() as u64);
        prop_assert_eq!(d.lost_lanes, 0);
        prop_assert_eq!(sharded.l1_stats(), scalar.system().l1_stats());
        prop_assert_eq!(sharded.l2_stats(), scalar.system().l2_stats());
        prop_assert_eq!(sharded.tlb_stats(), scalar.system().tlb_stats());
        prop_assert_eq!(sharded.memory_cycles(), scalar.memory_cycles());
    }

    /// Address spaces: streams replayed under distinct `space` tags must
    /// match a batched replay of the same tagged buffers — the TLB lane
    /// carries the salt, the physically-tagged caches do not.
    #[test]
    fn sharded_respects_address_spaces(
        words_a in prop::collection::vec(any::<u64>(), 30..150),
        words_b in prop::collection::vec(any::<u64>(), 30..150),
        shards in 1usize..9,
    ) {
        let machine = writeback_overlapped();
        let bufs: Vec<TraceBuf> = pack(&decode_trace(&words_a), 0)
            .into_iter()
            .chain(pack(&decode_trace(&words_b), 3))
            .collect();

        // Reference: the batched engine over the same tagged buffers.
        let mut reference = cc_sim::MemorySystem::new(machine);
        let mut cursor = cc_sim::BatchCursor::default();
        let mut cycles = 0u64;
        let mut now = 0u64;
        for buf in &bufs {
            let out = reference.access_batch(buf, now, &mut cursor);
            cycles += out.cycles;
            now += out.events;
        }

        let mut sharded = ShardedReplayer::new(machine, shards);
        let split = sharded.split(&bufs);
        sharded.replay(&split);
        prop_assert_eq!(sharded.l1_stats(), reference.l1_stats());
        prop_assert_eq!(sharded.l2_stats(), reference.l2_stats());
        prop_assert_eq!(sharded.tlb_stats(), reference.tlb_stats());
        prop_assert_eq!(sharded.memory_cycles(), cycles);
    }
}
