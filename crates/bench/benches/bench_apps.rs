//! Host-time trend bench for the macrobenchmark apps at tiny scale.

use cc_apps::radiance::{self, Layout, RadianceParams};
use cc_apps::vis::{self, AllocPolicy, VisParams};
use cc_sim::MachineConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let machine = MachineConfig::ultrasparc_e5000();
    let rp = RadianceParams {
        objects: 1_000,
        world: 1024,
        rays: 1_000,
        seed: 3,
    };
    for l in Layout::ALL {
        c.bench_function(format!("apps/radiance_{}", l.label()), |b| {
            b.iter(|| black_box(radiance::run(l, &rp, &machine).breakdown.total()))
        });
    }
    let vp = VisParams {
        bits: 8,
        evals: 2_000,
        seed: 3,
    };
    for p in AllocPolicy::ALL {
        c.bench_function(format!("apps/vis_{}", p.label()), |b| {
            b.iter(|| black_box(vis::run(p, &vp, &machine).breakdown.total()))
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
