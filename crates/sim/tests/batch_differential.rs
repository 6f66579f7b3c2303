//! Differential properties: the batched engine is *defined* to be
//! observationally equal to the scalar reference path. Over arbitrary
//! event streams — biased toward the same-block runs the fast path
//! short-circuits — both must produce bit-identical cache statistics,
//! TLB counters, accumulated cycles, and (the strong form) identical
//! *future* behaviour: a probe suffix replayed scalar-ly through both
//! final states must see the same hits, misses, writebacks, and cycles,
//! which pins down LRU orders and write-back dirty bits, not just the
//! counters.

use cc_sim::batch::BatchSink;
use cc_sim::cache::WritePolicy;
use cc_sim::event::{Event, EventSink};
use cc_sim::geometry::CacheGeometry;
use cc_sim::{AccessKind, Latency, MachineConfig, MemorySink};
use proptest::prelude::*;

/// A machine with a *write-back* L1, so stores allocate, dirty lines, and
/// evictions order writebacks — the policy corner the stock presets
/// (write-through L1) never exercise.
fn writeback_l1() -> MachineConfig {
    MachineConfig {
        l1: CacheGeometry::new(4, 16, 2),
        l1_policy: WritePolicy::WriteBack,
        l2: CacheGeometry::new(16, 64, 2),
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

/// The tiny preset with the TLB model disabled (`tlb_entries: 0`).
fn no_tlb() -> MachineConfig {
    MachineConfig {
        tlb_entries: 0,
        ..MachineConfig::test_tiny()
    }
}

/// Decodes raw words into an event stream biased toward the patterns the
/// batch path memoizes: long same-block pointer-chase runs, short strides,
/// block straddles, plus enough stores / prefetches / jumps to stress every
/// cursor-invalidation edge. Addresses stay inside an 8 KB arena so the
/// tiny configs see real evictions and TLB churn.
fn decode_trace(words: &[u64]) -> Vec<Event> {
    const ARENA: u64 = 8 * 1024;
    let mut cur: u64 = 0x100;
    let mut evs = Vec::with_capacity(words.len());
    for &r in words {
        let op = r % 100;
        let material = r >> 8;
        if op < 55 {
            // Dependent load near the previous one: stride 0..24 bytes, so
            // most consecutive pairs share a 16-byte block or sit in
            // adjacent blocks.
            cur = (cur + material % 24) % ARENA;
            let size = [1u32, 4, 8, 20][(material % 4) as usize];
            evs.push(Event::load(cur, size));
        } else if op < 70 {
            // Independent load somewhere else in the arena.
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
            // Teleport the chase pointer: the next dependent load lands far
            // from the memoized block/page.
            cur = material % ARENA;
        }
    }
    evs
}

/// Replays `trace` through the scalar sink and a batched sink (with a
/// deliberately small batch so the cursor crosses many flush boundaries),
/// checks every observable counter, then proves state equivalence by
/// running a deterministic probe suffix through both final systems.
fn check_differential(machine: MachineConfig, trace: &[Event]) -> Result<(), TestCaseError> {
    let mut scalar = MemorySink::new(machine);
    let mut batched = BatchSink::with_capacity(machine, 7);
    for &ev in trace {
        scalar.event(ev);
        batched.event(ev);
    }
    batched.flush();

    prop_assert_eq!(
        batched.system().l1_stats(),
        scalar.system().l1_stats(),
        "L1 stats diverged"
    );
    prop_assert_eq!(
        batched.system().l2_stats(),
        scalar.system().l2_stats(),
        "L2 stats diverged"
    );
    prop_assert_eq!(
        batched.system().tlb_stats(),
        scalar.system().tlb_stats(),
        "TLB stats diverged"
    );
    prop_assert_eq!(batched.memory_cycles(), scalar.memory_cycles());
    prop_assert_eq!(batched.insts(), scalar.insts());
    prop_assert_eq!(batched.branches(), scalar.branches());

    // Strong form: the two final systems must be behaviourally identical.
    // A scalar probe suffix touching every block of the arena compares
    // per-access outcomes (level, cycles, TLB miss) — any divergence in
    // LRU stamps order, dirty bits, or in-flight prefetch state shows up
    // here as a different hit/writeback/wait pattern.
    let mut sys_b = batched.system().clone();
    let mut sys_s = scalar.system().clone();
    let t0 = trace.len() as u64 + 1;
    for (i, addr) in (0..8 * 1024u64).step_by(16).enumerate() {
        let kind = if i % 5 == 3 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let now = t0 + i as u64;
        let a = sys_s.access(addr, 8, kind, now);
        let b = sys_b.access(addr, 8, kind, now);
        prop_assert_eq!(a, b, "probe {} at {:#x} diverged", i, addr);
    }
    prop_assert_eq!(sys_b.l1_stats(), sys_s.l1_stats(), "post-probe L1");
    prop_assert_eq!(sys_b.l2_stats(), sys_s.l2_stats(), "post-probe L2");
    prop_assert_eq!(sys_b.tlb_stats(), sys_s.tlb_stats(), "post-probe TLB");
    Ok(())
}

proptest! {
    /// Write-through L1 over E5000-shaped tiny geometry (the fig5/fig7
    /// machine family).
    #[test]
    fn batched_equals_scalar_write_through(words in prop::collection::vec(any::<u64>(), 40..400)) {
        check_differential(MachineConfig::test_tiny(), &decode_trace(&words))?;
    }

    /// Write-back L1: dirty allocation on store misses plus dirty-eviction
    /// writeback ordering must match exactly.
    #[test]
    fn batched_equals_scalar_write_back(words in prop::collection::vec(any::<u64>(), 40..400)) {
        check_differential(writeback_l1(), &decode_trace(&words))?;
    }

    /// TLB disabled: the page-memo arm is skipped entirely and cycles carry
    /// no TLB penalties.
    #[test]
    fn batched_equals_scalar_without_tlb(words in prop::collection::vec(any::<u64>(), 40..400)) {
        check_differential(no_tlb(), &decode_trace(&words))?;
    }

    /// The full-size E5000 preset, where the arena fits comfortably: mostly
    /// hits, maximal memo traffic.
    #[test]
    fn batched_equals_scalar_e5000(words in prop::collection::vec(any::<u64>(), 40..400)) {
        check_differential(MachineConfig::ultrasparc_e5000(), &decode_trace(&words))?;
    }
}

/// Directed regression: a same-block run interrupted by each kind of
/// invalidating event, crossing a flush boundary at every alignment.
#[test]
fn cursor_invalidation_edges() {
    let mut trace = Vec::new();
    for k in 0..6u64 {
        // A run of same-block loads…
        for i in 0..5u64 {
            trace.push(Event::load(0x40 + i, 4));
        }
        // …interrupted by one of each hazard.
        match k {
            0 => trace.push(Event::store(0x40, 4)),
            1 => trace.push(Event::Prefetch { addr: 0x40 }),
            2 => trace.push(Event::Prefetch { addr: 0x400 }),
            3 => trace.push(Event::store(0x400, 20)),
            4 => trace.push(Event::Inst(3)),
            _ => trace.push(Event::Branch(1)),
        }
        // …then the run resumes.
        for i in 0..5u64 {
            trace.push(Event::load(0x40 + i * 3, 4));
        }
    }
    for cap in 1..12 {
        let machine = MachineConfig::test_tiny();
        let mut scalar = MemorySink::new(machine);
        let mut batched = BatchSink::with_capacity(machine, cap);
        for &ev in &trace {
            scalar.event(ev);
            batched.event(ev);
        }
        batched.flush();
        assert_eq!(batched.system().l1_stats(), scalar.system().l1_stats());
        assert_eq!(batched.system().l2_stats(), scalar.system().l2_stats());
        assert_eq!(batched.system().tlb_stats(), scalar.system().tlb_stats());
        assert_eq!(batched.memory_cycles(), scalar.memory_cycles());
    }
}
