//! Pins the packed traces the four fig5 layouts record. Each value is an
//! FNV-1a hash over every chunk a [`TraceRecorder`] writes for 1,500
//! searches of a 4,095-key tree: the chunk's entry count, its decoded
//! events, and its folded instruction and branch totals. The figures,
//! the trace store and every replay engine consume exactly these chunks,
//! so a change to how a tree narrates a search, or to how the recorder
//! packs the narration, shows up here before it shows up in a figure.

use cc_bench::replay::{build_bst, TreeSpec};
use cc_core::rng::SplitMix64;
use cc_heap::VirtualSpace;
use cc_sim::event::Event;
use cc_sim::{MachineConfig, TraceBuf, TraceRecorder};
use cc_trees::btree::BTree;

const KEYS: u64 = 4_095;
const SEARCHES: u64 = 1_500;
const KEY_SEED: u64 = 0x51EE7;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn hash_chunks(chunks: &[TraceBuf]) -> u64 {
    let mut h = Fnv::new();
    h.word(chunks.len() as u64);
    for c in chunks {
        h.word(c.len() as u64);
        for ev in c.events() {
            let (tag, a, b) = match ev {
                Event::Inst(n) => (0, u64::from(n), 0),
                Event::Branch(n) => (1, u64::from(n), 0),
                Event::Load {
                    addr,
                    size,
                    dep: true,
                } => (2, addr, u64::from(size)),
                Event::Load {
                    addr,
                    size,
                    dep: false,
                } => (3, addr, u64::from(size)),
                Event::Store { addr, size } => (4, addr, u64::from(size)),
                Event::Prefetch { addr } => (5, addr, 0),
            };
            h.word(tag);
            h.word(a);
            h.word(b);
        }
        h.word(c.insts());
        h.word(c.branches());
    }
    h.0
}

/// Records `SEARCHES` fig5-protocol searches (present keys drawn from
/// one fixed seed) through a fresh recorder.
fn record(mut search: impl FnMut(u64, &mut TraceRecorder)) -> u64 {
    let mut rng = SplitMix64::new(KEY_SEED);
    let mut rec = TraceRecorder::new();
    for _ in 0..SEARCHES {
        search(2 * rng.below(KEYS), &mut rec);
    }
    let chunks = rec.finish();
    assert!(chunks.len() > 1, "the pin must cover a chunk rotation");
    hash_chunks(&chunks)
}

fn bst_hash(spec: TreeSpec) -> u64 {
    let t = build_bst(&MachineConfig::ultrasparc_e5000(), KEYS, spec);
    record(|k, rec| {
        t.search(k, rec, false);
    })
}

#[test]
fn random_clustered_trace_is_pinned() {
    let spec = TreeSpec {
        randomize: Some(0xA11),
        depth_first: false,
        morph: false,
    };
    assert_eq!(bst_hash(spec), 0xfe4ac556c16a0294);
}

#[test]
fn depth_first_trace_is_pinned() {
    let spec = TreeSpec {
        randomize: Some(0xA11),
        depth_first: true,
        morph: false,
    };
    assert_eq!(bst_hash(spec), 0x5a32179512aa6568);
}

#[test]
fn ctree_trace_is_pinned() {
    let spec = TreeSpec {
        randomize: Some(0xA11),
        depth_first: true,
        morph: true,
    };
    assert_eq!(bst_hash(spec), 0x6b52e9b86ce9d8d8);
}

#[test]
fn colored_btree_trace_is_pinned() {
    let machine = MachineConfig::ultrasparc_e5000();
    let ks: Vec<u64> = (0..KEYS).map(|i| 2 * i).collect();
    let mut bt = BTree::build_from_sorted(&ks, machine.l2.block_bytes(), 0.7);
    let mut vs = VirtualSpace::new(machine.page_bytes);
    bt.color(&mut vs, &machine, 0.5);
    assert_eq!(
        record(|k, rec| {
            bt.search(k, rec);
        }),
        0x2d848577d9ceabb2
    );
}
