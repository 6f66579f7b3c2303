//! `fig5-replay`: Figure 5's four layouts searched through `SearchReplay`.
//!
//! Set-up builds the random-clustered and depth-first BSTs, the colored
//! B-tree and the ccmorph C-tree over a tree twenty times the simulated
//! 1 MB L2. One operation is a *round*: each layout in turn runs fig5's
//! search loop (checkpoints 10, 100, 1000, … up to the round's search
//! count) through a fresh `SearchReplay` with `min(4, nproc)` shards, an
//! empty in-memory `TraceStore` and empty simulated caches, so every
//! segment is generated, stored, split and replayed exactly once.
//! Throughput is replayed events per second.

use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::{nproc, timed_setup, Outcome, RunArgs};
use cc_bench::replay::{pack_full, SearchReplay, SEG_CAP};
use cc_core::ccmorph::CcMorphParams;
use cc_core::cluster::Order;
use cc_core::rng::SplitMix64;
use cc_heap::VirtualSpace;
use cc_sim::event::TraceBuffer;
use cc_sim::{MachineConfig, MemorySink, ShardDegradation, ShardedReplayer};
use cc_sweep::{cell_seed, TraceKey, TraceStore};
use cc_trees::bst::Bst;
use cc_trees::btree::BTree;
use cc_trees::BST_NODE_BYTES;
use std::time::Instant;

struct Params {
    keys: u64,
    searches: u64,
    setup_reps: usize,
    trace_rounds: u64,
}

fn params(smoke: bool) -> Params {
    if smoke {
        Params {
            keys: 4095,
            searches: 1500,
            setup_reps: 1,
            trace_rounds: 1,
        }
    } else {
        Params {
            // 20 MiB of 20-byte nodes: twenty times the simulated L2.
            keys: (1 << 20) - 1,
            searches: 4000,
            setup_reps: 3,
            trace_rounds: 8,
        }
    }
}

/// The workload's RNG seed for the layout-placement scatter, as fig5.
const LAYOUT_SEED: u64 = 0xA11;

struct Layouts {
    random: Bst,
    dfs: Bst,
    btree: BTree,
    ctree: Bst,
}

#[derive(Clone, Copy, Debug)]
enum Which {
    Random,
    Dfs,
    BTree,
    CTree,
}

const ALL: [Which; 4] = [Which::Random, Which::Dfs, Which::BTree, Which::CTree];

impl Which {
    fn key(self) -> TraceKey {
        TraceKey::new(match self {
            Which::Random => "perfbench-fig5-random",
            Which::Dfs => "perfbench-fig5-dfs",
            Which::BTree => "perfbench-fig5-btree",
            Which::CTree => "perfbench-fig5-ctree",
        })
    }
}

impl Layouts {
    /// Builds the four layouts the way fig5 does: random scatter, then
    /// depth-first repack on top of it, then ccmorph on top of that; the
    /// B-tree is built sorted and colored.
    fn build(machine: &MachineConfig, n: u64, tr: &Tracer) -> Layouts {
        let scatter = |t: &mut Bst| t.layout_sequential(Order::Random { seed: LAYOUT_SEED });
        let random = tr.span("trees.build", || {
            let mut t = Bst::build_complete(n);
            scatter(&mut t);
            t
        });
        let dfs = tr.span("trees.build", || {
            let mut t = Bst::build_complete(n);
            scatter(&mut t);
            t.layout_sequential(Order::DepthFirst);
            t
        });
        let btree = tr.span("trees.build", || {
            let ks: Vec<u64> = (0..n).map(|i| 2 * i).collect();
            let mut bt = BTree::build_from_sorted(&ks, machine.l2.block_bytes(), 0.7);
            let mut vs = VirtualSpace::new(machine.page_bytes);
            bt.color(&mut vs, machine, 0.5);
            bt
        });
        let mut ctree = tr.span("trees.build", || dfs.clone());
        tr.span("core.ccmorph", || {
            let mut vs = VirtualSpace::new(machine.page_bytes);
            let params = CcMorphParams::clustering_and_coloring(machine, BST_NODE_BYTES);
            ctree.morph(&mut vs, &params);
        });
        Layouts {
            random,
            dfs,
            btree,
            ctree,
        }
    }

    fn search<S: cc_sim::EventSink>(&self, which: Which, key: u64, sink: &mut S) {
        match which {
            Which::Random => self.random.search(key, sink, false),
            Which::Dfs => self.dfs.search(key, sink, false),
            Which::BTree => self.btree.search(key, sink),
            Which::CTree => self.ctree.search(key, sink, false),
        };
    }
}

/// fig5's search-count checkpoints, cut at `searches`.
fn checkpoints(searches: u64) -> Vec<u64> {
    let mut cps: Vec<u64> = std::iter::successors(Some(10u64), |c| Some(c * 10))
        .take_while(|&c| c < searches)
        .collect();
    cps.push(searches);
    cps
}

/// Every simulated statistic one layout run produces; equality is
/// bit-identity of the simulation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct SimStats {
    memory_cycles: u64,
    insts: u64,
    branches: u64,
    l1_hits: u64,
    l1_misses: u64,
    l2_hits: u64,
    l2_misses: u64,
    tlb_accesses: u64,
    tlb_misses: u64,
    avg_us_bits: u64,
}

impl SimStats {
    fn of(r: &ShardedReplayer, machine: &MachineConfig, searches: u64) -> SimStats {
        let (l1, l2, tlb) = (r.l1_stats(), r.l2_stats(), r.tlb_stats());
        let cycles = r.memory_cycles() as f64 + r.insts() as f64 / 4.0;
        SimStats {
            memory_cycles: r.memory_cycles(),
            insts: r.insts(),
            branches: r.branches(),
            l1_hits: l1.hits(),
            l1_misses: l1.misses(),
            l2_hits: l2.hits(),
            l2_misses: l2.misses(),
            tlb_accesses: tlb.accesses(),
            tlb_misses: tlb.misses(),
            avg_us_bits: (cycles / searches as f64 / machine.cycles_per_us()).to_bits(),
        }
    }
}

/// One layout's search loop through `SearchReplay`: the workload's unit
/// of replay work.
struct LayoutRun {
    sim: SimStats,
    events: u64,
    degradation: ShardDegradation,
}

fn run_layout(
    machine: MachineConfig,
    layouts: &Layouts,
    which: Which,
    n: u64,
    seed: u64,
    shards: usize,
    searches: u64,
) -> LayoutRun {
    let store = TraceStore::default();
    let mut replay = SearchReplay::new(machine, n, seed, shards, Some(&store), which.key());
    for cp in checkpoints(searches) {
        replay.advance_to(cp, |k, buf| layouts.search(which, k, buf));
    }
    assert_eq!(
        store.counters().disk_hits,
        0,
        "a memory-only store read disk"
    );
    LayoutRun {
        sim: SimStats::of(replay.replayer(), &machine, searches),
        events: replay.replayer().events(),
        degradation: replay.degradation(),
    }
}

/// Per-layer tallies the traced loop collects besides spans.
#[derive(Default)]
struct Tally {
    store_hits: u64,
    store_misses: u64,
    store_bytes: u64,
    split_events: u64,
    lane_entries: u64,
    critical_ns: u64,
    l1: (u64, u64),
    l2: (u64, u64),
    tlb: (u64, u64),
    degraded_lanes: u64,
}

/// [`run_layout`] with `SearchReplay::advance_to` unrolled into the same
/// public calls, each inside a span.
#[allow(clippy::too_many_arguments)]
fn run_layout_traced(
    machine: MachineConfig,
    layouts: &Layouts,
    which: Which,
    n: u64,
    seed: u64,
    shards: usize,
    searches: u64,
    tr: &Tracer,
    tally: &mut Tally,
) -> LayoutRun {
    let store = TraceStore::default();
    let mut replayer = ShardedReplayer::new(machine, shards);
    let key = which.key().machine(&machine).fold(n).fold(seed);
    let mut rng = SplitMix64::new(seed);
    let mut done = 0u64;
    for cp in checkpoints(searches) {
        while done < cp {
            let count = SEG_CAP.min(cp - done);
            let keys: Vec<u64> = tr.span("bench.keys", || {
                (0..count).map(|_| 2 * rng.below(n)).collect()
            });
            // Epoch 0: the workload never resets statistics mid-run.
            let seg_key = key.fold(0).fold(done).fold(count);
            let bufs = tr.span("sweep.store", || {
                store.get_or_generate(seg_key, || {
                    let buf = tr.span("trees.search", || {
                        let mut buf = TraceBuffer::new();
                        for &k in &keys {
                            layouts.search(which, k, &mut buf);
                        }
                        buf
                    });
                    tr.span("bench.pack", || pack_full(&buf))
                })
            });
            let pool = store.split_pool();
            let split = tr.span("sim.split", || replayer.split_pooled(&bufs, pool));
            tally.split_events += split.events();
            tally.lane_entries += split.lane_entries() as u64;
            let out = tr.span("sim.replay", || replayer.replay(&split));
            tally.critical_ns += out.critical_path_nanos();
            tr.span("sim.split", || pool.recycle(split));
            done += count;
        }
    }
    let c = store.counters();
    assert_eq!(c.disk_hits, 0, "a memory-only store read disk");
    tally.store_hits += c.hits;
    tally.store_misses += c.misses;
    tally.store_bytes += store.resident_bytes() as u64;
    let (l1, l2, tlb) = (
        replayer.l1_stats(),
        replayer.l2_stats(),
        replayer.tlb_stats(),
    );
    tally.l1.0 += l1.misses();
    tally.l1.1 += l1.accesses();
    tally.l2.0 += l2.misses();
    tally.l2.1 += l2.accesses();
    tally.tlb.0 += tlb.misses();
    tally.tlb.1 += tlb.accesses();
    let degradation = replayer.degradation();
    tally.degraded_lanes += degradation.fallback_lanes + degradation.lost_lanes;
    LayoutRun {
        sim: SimStats::of(&replayer, &machine, searches),
        events: replayer.events(),
        degradation,
    }
}

/// The scalar reference: one search at a time through a `MemorySink`
/// over the same key stream.
fn scalar_stats(
    machine: MachineConfig,
    layouts: &Layouts,
    which: Which,
    n: u64,
    seed: u64,
    searches: u64,
) -> SimStats {
    let mut sink = MemorySink::new(machine);
    let mut rng = SplitMix64::new(seed);
    for _ in 0..searches {
        layouts.search(which, 2 * rng.below(n), &mut sink);
    }
    let sys = sink.system();
    let (l1, l2, tlb) = (sys.l1_stats(), sys.l2_stats(), sys.tlb_stats());
    let cycles = sink.memory_cycles() as f64 + sink.insts() as f64 / 4.0;
    SimStats {
        memory_cycles: sink.memory_cycles(),
        insts: sink.insts(),
        branches: sink.branches(),
        l1_hits: l1.hits(),
        l1_misses: l1.misses(),
        l2_hits: l2.hits(),
        l2_misses: l2.misses(),
        tlb_accesses: tlb.accesses(),
        tlb_misses: tlb.misses(),
        avg_us_bits: (cycles / searches as f64 / machine.cycles_per_us()).to_bits(),
    }
}

fn round_seed(seed: u64, round: u64) -> u64 {
    cell_seed(seed ^ 0xF165, round)
}

pub fn run(args: RunArgs, traced: bool) -> Outcome {
    let p = params(args.smoke);
    let machine = MachineConfig::ultrasparc_e5000();
    let shards = nproc().min(4);
    let mut out = Outcome {
        stamp: vec![
            ("shards", shards.to_string()),
            ("keys", p.keys.to_string()),
            ("searches_per_layout", p.searches.to_string()),
        ],
        ..Outcome::default()
    };
    if traced {
        run_traced(&p, machine, shards, args, &mut out);
        return out;
    }

    let off = Tracer::new(false);
    let (layouts, setup_s) = timed_setup(p.setup_reps, || Layouts::build(&machine, p.keys, &off));

    let start = Instant::now();
    let mut round_ms = Vec::new();
    let mut events = 0u64;
    let mut first_round = Vec::new();
    let mut round = 0u64;
    while round == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let seed = round_seed(args.seed, round);
        for which in ALL {
            let r = run_layout(machine, &layouts, which, p.keys, seed, shards, p.searches);
            events += r.events;
            out.check(r.degradation == ShardDegradation::default(), || {
                format!(
                    "round {round} {which:?}: degraded replay {:?}",
                    r.degradation
                )
            });
            if round == 0 {
                first_round.push(r.sim);
            }
        }
        round_ms.push(t.elapsed().as_secs_f64() * 1e3);
        round += 1;
    }
    let wall = start.elapsed().as_secs_f64();

    // Output check, outside the timed loop: round 0 of every layout
    // against the scalar reference.
    let seed = round_seed(args.seed, 0);
    for (which, got) in ALL.into_iter().zip(&first_round) {
        let want = scalar_stats(machine, &layouts, which, p.keys, seed, p.searches);
        out.check(*got == want, || {
            format!("{which:?}: sharded replay {got:?} differs from scalar {want:?}")
        });
    }

    out.set("setup_s", setup_s);
    out.set("peak_rss_mb", crate::peak_rss_mb());
    out.set("throughput_per_s", events as f64 / wall);
    out.set("op_p50_ms", median(&round_ms));
    let tail_p = if args.smoke { 50.0 } else { 90.0 };
    match tail(&round_ms, tail_p) {
        Ok(v) => out.set("op_tail_ms", v),
        Err(e) => out.check(false, || format!("op_tail_ms: {e}")),
    }
    out.stamp.push(("rounds", round.to_string()));
    out.stamp.push(("tail_percentile", tail_p.to_string()));
    out
}

/// A fixed slice — set-up plus `trace_rounds` rounds — run untraced
/// through `SearchReplay`, then traced through the unrolled loop; the
/// simulated statistics of the two must be bit-identical.
fn run_traced(p: &Params, machine: MachineConfig, shards: usize, args: RunArgs, out: &mut Outcome) {
    let rounds = p.trace_rounds;
    let untraced_start = Instant::now();
    let plain = {
        let layouts = Layouts::build(&machine, p.keys, &Tracer::new(false));
        let mut v = Vec::new();
        for round in 0..rounds {
            let seed = round_seed(args.seed, round);
            for which in ALL {
                v.push(run_layout(machine, &layouts, which, p.keys, seed, shards, p.searches).sim);
            }
        }
        v
    };
    let untraced_ns = untraced_start.elapsed().as_nanos() as u64;

    let tr = Tracer::new(true);
    let mut tally = Tally::default();
    let traced_start = Instant::now();
    let mut traced = Vec::new();
    {
        let layouts = Layouts::build(&machine, p.keys, &tr);
        for round in 0..rounds {
            let seed = round_seed(args.seed, round);
            for which in ALL {
                let r = run_layout_traced(
                    machine, &layouts, which, p.keys, seed, shards, p.searches, &tr, &mut tally,
                );
                traced.push(r.sim);
            }
        }
    }
    let traced_ns = traced_start.elapsed().as_nanos() as u64;
    for (i, (a, b)) in plain.iter().zip(&traced).enumerate() {
        out.check(a == b, || {
            format!("layout run {i}: traced {b:?} differs from untraced {a:?}")
        });
    }
    out.check(tally.degraded_lanes == 0, || {
        format!("{} degraded lanes", tally.degraded_lanes)
    });

    let s = tr.summary(traced_ns);
    let ratio = |(m, a): (u64, u64)| m as f64 / a.max(1) as f64;
    out.set("sweep.store_hits", tally.store_hits as f64);
    out.set("sweep.store_misses", tally.store_misses as f64);
    out.set("sweep.store_bytes", tally.store_bytes as f64);
    out.set(
        "sim.split_resolved_ratio",
        1.0 - tally.lane_entries as f64 / tally.split_events.max(1) as f64,
    );
    // The modeled critical path as a share of the measured replay time:
    // a diagnostic of `sim.replay_pct`, never an end-to-end number.
    let replay_ns = s.self_ns.get("sim.replay").copied().unwrap_or(0);
    out.set(
        "sim.replay_critical_path_pct",
        tally.critical_ns as f64 / replay_ns.max(1) as f64 * 100.0,
    );
    out.set("sim.l1_miss_ratio", ratio(tally.l1));
    out.set("sim.l2_miss_ratio", ratio(tally.l2));
    out.set("sim.tlb_miss_ratio", ratio(tally.tlb));
    out.set("sim.degraded_lanes", tally.degraded_lanes as f64);
    crate::set_pass_metrics(out, &s, untraced_ns);
    out.chrome_trace = Some(tr.chrome_json());
    out.stamp.push(("trace_rounds", rounds.to_string()));
}
