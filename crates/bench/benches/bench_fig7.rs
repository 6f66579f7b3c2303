//! Host-time trend bench for the Figure 7 pipeline: one treeadd run per
//! representative scheme.

use cc_olden::{treeadd, Scheme};
use cc_sim::MachineConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let machine = MachineConfig::table1();
    for s in [
        Scheme::Base,
        Scheme::SwPrefetch,
        Scheme::CcMallocNewBlock,
        Scheme::CcMorphClusterColor,
    ] {
        c.bench_function(format!("fig7/treeadd_{}", s.label()), |b| {
            b.iter(|| black_box(treeadd::run(s, 8_192, &machine).breakdown.total()))
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
