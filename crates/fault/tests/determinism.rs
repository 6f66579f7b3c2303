//! Satellite guarantee: a `FaultPlan` seed is a complete description of
//! the misfortune. Replaying the same seed yields the same schedules, the
//! same tampered allocations, the same heap statistics, and the same
//! per-cell sweep outcomes — which is what makes any fault run a
//! regression test instead of an anecdote.

use cc_fault::FaultPlan;
use cc_heap::{Allocator, CcMalloc, HeapError, Strategy};
use cc_sweep::{cell_seed, CellOutcome, Sweep};
use proptest::prelude::*;

/// Silences the default panic hook while `f` runs (the sweep property
/// injects panics on purpose).
fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

/// A hinted churn under the seed's heap schedule, returning everything
/// observable: each allocation's address or typed error, and the final
/// statistics.
fn heap_run(seed: u64) -> (Vec<Result<u64, HeapError>>, cc_heap::HeapStats) {
    let mut heap = CcMalloc::with_geometry(64, 256, Strategy::Closest);
    heap.set_fault_schedule(FaultPlan::new(seed).heap_faults(6, 32).heap_schedule());
    let mut prev = None;
    let mut addrs = Vec::new();
    for i in 0..30u64 {
        let got = heap.try_alloc_hint(20, prev);
        if let Ok(addr) = got {
            prev = Some(addr);
            if i % 5 == 4 {
                heap.try_free(addr).expect("freeing a live address");
                prev = None;
            }
        }
        addrs.push(got);
    }
    (addrs, *heap.stats())
}

/// A poisoned sweep under the seed's poison set.
fn sweep_run(seed: u64) -> Vec<CellOutcome<u64>> {
    let plan = FaultPlan::new(seed).sweep_poisons(2);
    let cells: Vec<u64> = (0..10).collect();
    Sweep::with_threads(4).run_isolated(&cells, 2, |i, attempt, _| {
        if plan.poisons(i, attempt, 10) {
            panic!("injected");
        }
        cell_seed(seed, i as u64)
    })
}

proptest! {
    #[test]
    fn schedules_replay_identically(seed in any::<u64>()) {
        let make = || FaultPlan::new(seed).heap_faults(6, 64).trace_faults(4).sweep_poisons(3);
        prop_assert_eq!(make().heap_schedule(), make().heap_schedule());
        prop_assert_eq!(make().trace_schedule(), make().trace_schedule());
        prop_assert_eq!(make().sweep_poison_set(16), make().sweep_poison_set(16));
    }

    #[test]
    fn replayed_heap_runs_are_identical(seed in any::<u64>()) {
        prop_assert_eq!(heap_run(seed), heap_run(seed));
    }

    #[test]
    fn replayed_sweep_outcomes_are_identical(seed in any::<u64>()) {
        let (a, b) = with_quiet_panics(|| (sweep_run(seed), sweep_run(seed)));
        prop_assert_eq!(a, b);
    }
}
