//! Tier-1 pins on the simulator's outputs.
//!
//! * The smoke-size Figure 7 grid (the four Olden programs at the
//!   benchmark's `--smoke` sizes × the eight Figure 7 schemes, on the
//!   Table 1 machine): every cell's execution-time breakdown, checksum,
//!   L2 misses, heap pages, and fallback allocations, captured before
//!   the scalar reference path was optimized. Any change to the
//!   simulated machine, the allocators, or the programs moves a number
//!   here.
//! * One small scalar == batched == sharded replay, so this suite
//!   notices when the engines disagree.

use cache_conscious::olden::{health, mst, perimeter, treeadd, RunResult, Scheme};
use cache_conscious::sim::batch::BatchSink;
use cache_conscious::sim::event::{Event, EventSink};
use cache_conscious::sim::{MachineConfig, MemorySink, ShardedReplayer, TraceBuf};

/// One pinned cell: program index (treeadd, health, mst, perimeter),
/// scheme label, breakdown `[busy, inst, data, store]`, checksum,
/// L2 misses, heap pages, fallback allocations.
type Golden = (usize, &'static str, [u64; 4], u64, u64, u64, u64);

#[rustfmt::skip]
const GOLDEN: [Golden; 32] = [
    (0, "B", [15852, 491, 2830, 0], 524800, 193, 4, 0),
    (0, "HP", [15852, 491, 1950, 0], 524800, 193, 4, 0),
    (0, "SP", [17898, 491, 946, 0], 524800, 193, 4, 0),
    (0, "FA", [20972, 491, 1084, 0], 524800, 128, 2, 0),
    (0, "CA", [20972, 491, 1084, 0], 524800, 128, 2, 0),
    (0, "NA", [20972, 491, 1084, 0], 524800, 128, 2, 0),
    (0, "CI", [18924, 491, 1204, 6045], 524800, 321, 4, 0),
    (0, "CI+Col", [18924, 491, 1204, 6045], 524800, 321, 4, 0),
    (1, "B", [3284, 153, 520, 190], 240, 45, 2, 0),
    (1, "HP", [3284, 153, 400, 290], 240, 45, 2, 0),
    (1, "SP", [3380, 153, 520, 108], 240, 45, 2, 0),
    (1, "FA", [4084, 153, 318, 137], 240, 36, 1, 0),
    (1, "CA", [4084, 153, 318, 137], 240, 36, 1, 0),
    (1, "NA", [4084, 153, 382, 129], 240, 44, 1, 0),
    (1, "CI", [3284, 153, 520, 190], 240, 45, 2, 0),
    (1, "CI+Col", [3284, 153, 520, 190], 240, 45, 2, 0),
    (2, "B", [4328, 238, 64, 413], 4838, 32, 1, 0),
    (2, "HP", [4328, 238, 78, 309], 4838, 17, 1, 0),
    (2, "SP", [4328, 238, 64, 413], 4838, 32, 1, 0),
    (2, "FA", [4968, 238, 38, 0], 4838, 22, 1, 0),
    (2, "CA", [4968, 238, 38, 0], 4838, 22, 1, 0),
    (2, "NA", [4968, 238, 30, 0], 4838, 22, 1, 0),
    (2, "CI", [4328, 238, 2588, 413], 4838, 60, 1, 0),
    (2, "CI+Col", [4328, 238, 2588, 413], 4838, 60, 1, 0),
    (3, "B", [8181, 630, 1030, 0], 96, 67, 2, 0),
    (3, "HP", [8181, 630, 918, 0], 96, 67, 2, 0),
    (3, "SP", [8181, 630, 1030, 0], 96, 67, 2, 0),
    (3, "FA", [9246, 630, 462, 0], 96, 54, 1, 0),
    (3, "CA", [9246, 630, 462, 0], 96, 54, 1, 0),
    (3, "NA", [9246, 630, 542, 0], 96, 64, 1, 0),
    (3, "CI", [8181, 630, 3762, 0], 96, 121, 2, 0),
    (3, "CI+Col", [8181, 630, 3762, 0], 96, 121, 2, 0),
];

fn run(prog: usize, scheme: Scheme, machine: &MachineConfig) -> RunResult {
    match prog {
        0 => treeadd::run_iters(scheme, 1024, 2, machine),
        1 => health::run(scheme, 2, 5, machine),
        2 => mst::run(scheme, 32, 4, machine),
        _ => perimeter::run(scheme, 32, machine),
    }
}

#[test]
fn smoke_olden_grid_is_pinned() {
    let machine = MachineConfig::table1();
    let cells: Vec<(usize, Scheme)> = (0..4)
        .flat_map(|prog| Scheme::FIGURE7.iter().map(move |&s| (prog, s)))
        .collect();
    assert_eq!(cells.len(), GOLDEN.len());
    for (&(prog, scheme), &(gprog, label, cycles, checksum, l2, pages, fallback)) in
        cells.iter().zip(&GOLDEN)
    {
        assert_eq!((prog, scheme.label()), (gprog, label));
        let r = run(prog, scheme, &machine);
        let b = r.breakdown;
        let got = (
            [b.busy, b.inst_stall, b.data_stall, b.store_stall],
            r.checksum,
            r.l2_misses,
            r.heap.pages(),
            r.heap.fallback_allocations(),
        );
        assert_eq!(
            got,
            (cycles, checksum, l2, pages, fallback),
            "program {prog} scheme {label}"
        );
    }
}

#[test]
fn scalar_batched_and_sharded_agree() {
    // A scattered pointer chase with stores and prefetches over 64 KiB,
    // drawn from a fixed xorshift stream.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut events = Vec::new();
    for i in 0..20_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let addr = 0x10_0000 + (x % 0x1_0000);
        events.push(match i % 10 {
            0..=5 => Event::load(addr, [4, 8, 20][(x >> 40) as usize % 3]),
            6 => Event::load_indep(addr, 8),
            7 => Event::store(addr, 8),
            8 => Event::Prefetch { addr },
            _ => Event::Inst(3),
        });
    }
    for machine in [MachineConfig::table1(), MachineConfig::ultrasparc_e5000()] {
        let mut scalar = MemorySink::new(machine);
        let mut batched = BatchSink::with_capacity(machine, 512);
        for &ev in &events {
            scalar.event(ev);
            batched.event(ev);
        }
        batched.flush();

        let mut buf = TraceBuf::with_capacity(events.len());
        for &ev in &events {
            buf.push(ev);
        }
        let mut sharded = ShardedReplayer::new(machine, 4);
        let split = sharded.split(std::slice::from_ref(&buf));
        sharded.replay(&split);

        let s = scalar.system();
        let b = batched.system();
        assert_eq!(b.l1_stats(), s.l1_stats(), "batched L1");
        assert_eq!(b.l2_stats(), s.l2_stats(), "batched L2");
        assert_eq!(b.tlb_stats(), s.tlb_stats(), "batched TLB");
        assert_eq!(batched.memory_cycles(), scalar.memory_cycles());
        assert_eq!(sharded.l1_stats(), s.l1_stats(), "sharded L1");
        assert_eq!(sharded.l2_stats(), s.l2_stats(), "sharded L2");
        assert_eq!(sharded.tlb_stats(), s.tlb_stats(), "sharded TLB");
        assert_eq!(sharded.memory_cycles(), scalar.memory_cycles());
        assert!(s.l2_stats().misses() > 0 && s.tlb_stats().misses() > 0);
    }
}
