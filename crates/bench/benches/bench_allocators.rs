//! Allocator micro-throughput: the simulated `malloc` vs `ccmalloc`
//! strategies under a hinted chain-allocation pattern.

use cc_heap::{Allocator, CcMalloc, Malloc, Strategy};
use cc_sim::MachineConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const ALLOCS: usize = 10_000;

fn chain<A: Allocator>(heap: &mut A) -> u64 {
    let mut prev = heap.alloc(20);
    for _ in 1..ALLOCS {
        prev = heap.alloc_hint(20, Some(prev));
    }
    prev
}

fn bench(c: &mut Criterion) {
    let machine = MachineConfig::ultrasparc_e5000();
    c.bench_function("alloc/malloc", |b| {
        b.iter(|| {
            let mut heap = Malloc::new(8192);
            black_box(chain(&mut heap))
        })
    });
    for s in Strategy::ALL {
        c.bench_function(format!("alloc/ccmalloc_{}", s.label()), |b| {
            b.iter(|| {
                let mut heap = CcMalloc::new(&machine, s);
                black_box(chain(&mut heap))
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
