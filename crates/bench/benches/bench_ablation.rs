//! Host-time trend bench for the reorganizer itself: how fast is a
//! `ccmorph` of an N-node tree, per cluster kind and with/without
//! coloring.

use cc_core::ccmorph::{ccmorph, CcMorphParams, ColorConfig};
use cc_core::cluster::ClusterKind;
use cc_core::topology::VecTree;
use cc_heap::VirtualSpace;
use cc_sim::MachineConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let machine = MachineConfig::ultrasparc_e5000();
    let tree = VecTree::complete_binary((1 << 16) - 1);
    for (name, kind, color) in [
        ("subtree", ClusterKind::SubtreeBfs, false),
        ("subtree_colored", ClusterKind::SubtreeBfs, true),
        ("dfs_chain", ClusterKind::DepthFirstChain, false),
    ] {
        c.bench_function(format!("ccmorph/{name}_64k_nodes"), |b| {
            b.iter(|| {
                let mut vs = VirtualSpace::new(machine.page_bytes);
                let params = CcMorphParams {
                    color: color.then(ColorConfig::default),
                    cluster_kind: kind,
                    ..CcMorphParams::clustering_only(&machine, 20)
                };
                black_box(ccmorph(&tree, &mut vs, &params).len())
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
