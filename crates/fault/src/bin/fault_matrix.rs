//! Fault-matrix harness: seeds × planes, fail on any escaped panic.
//!
//! For every seed (arguments, or a small default set) this binary runs a
//! scripted workload against each fault plane — `heap` (allocation denials
//! and hint tampering under `CcMalloc`/`Malloc`), `morph` (corrupted
//! topologies and parameters into `try_ccmorph`), `sweep` (poisoned cells
//! under `Sweep::run_isolated`), `shard` (poisoned replay workers
//! under `ShardedReplayer::replay_poisoned`), and `sample` (poisoned
//! cluster representatives under `cc_sample::replay_representatives`) —
//! inside a top-level `catch_unwind`.
//!
//! The contract under test is *graceful degradation*: injected faults must
//! surface as typed errors, fallback placements, or retried cells — never
//! as a panic escaping the plane's API. Any escape prints the payload and
//! the process exits 1 (CI's `fault-matrix` job gates on that).
//!
//! Usage: `fault-matrix [seed ...]` (decimal or `0x`-prefixed hex).

use cc_core::topology::Topology;
use cc_core::{try_ccmorph, CcMorphParams, LayoutError};
use cc_fault::FaultPlan;
use cc_heap::{Allocator, CcMalloc, HeapError, Malloc, Strategy, VirtualSpace};
use cc_obs::MetricsRegistry;
use cc_sim::MachineConfig;
use cc_sweep::{cell_seed, Sweep};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Seeds used when none are given (and by CI).
const DEFAULT_SEEDS: [u64; 5] = [0xA1, 0xB2, 0xC3, 0xD4, 0xE5];

/// A small binary-ish tree as an adjacency list.
struct VecTree {
    kids: Vec<Vec<usize>>,
}

impl VecTree {
    /// A complete-ish binary tree over `n` nodes (node `i`'s children are
    /// `2i+1`, `2i+2`).
    fn binary(n: usize) -> Self {
        let kids = (0..n)
            .map(|i| {
                [2 * i + 1, 2 * i + 2]
                    .into_iter()
                    .filter(|&c| c < n)
                    .collect()
            })
            .collect();
        VecTree { kids }
    }
}

impl Topology for VecTree {
    fn node_count(&self) -> usize {
        self.kids.len()
    }
    fn root(&self) -> Option<usize> {
        (!self.kids.is_empty()).then_some(0)
    }
    fn max_kids(&self) -> usize {
        2
    }
    fn child(&self, node: usize, i: usize) -> Option<usize> {
        self.kids[node].get(i).copied()
    }
}

/// A hinted allocate/free churn against one allocator with faults armed.
/// Every injected fault must come back as a typed error or a counted
/// fallback — never a panic. Degradation counts land in `reg` under
/// `fault.heap.{name}.*`.
fn churn<A: Allocator>(
    name: &str,
    mut heap: A,
    reg: &mut MetricsRegistry,
) -> Result<String, String> {
    let mut typed_errors = 0u64;
    let mut live: Vec<u64> = Vec::new();
    let mut prev = None;
    for i in 0..40u64 {
        match heap.try_alloc_hint(20, prev) {
            Ok(addr) => {
                prev = Some(addr);
                live.push(addr);
            }
            Err(HeapError::PageExhaustion { .. }) => typed_errors += 1,
            Err(e) => return Err(format!("{name}: unexpected error {e}")),
        }
        if i % 7 == 3 {
            if let Some(addr) = live.pop() {
                heap.try_free(addr).map_err(|e| format!("{name}: {e}"))?;
            }
        }
    }
    for addr in live.drain(..) {
        heap.try_free(addr).map_err(|e| format!("{name}: {e}"))?;
    }
    let stats = heap.stats();
    reg.bump(
        &format!("fault.heap.{name}.fallback_allocations"),
        stats.fallback_allocations(),
    );
    reg.bump(
        &format!("fault.heap.{name}.degraded_hints"),
        stats.degraded_hints(),
    );
    reg.bump(&format!("fault.heap.{name}.typed_errors"), typed_errors);
    Ok(format!(
        "{name} allocs={} fallbacks={} degraded={} typed_errors={typed_errors}",
        stats.allocations(),
        stats.fallback_allocations(),
        stats.degraded_hints(),
    ))
}

/// Heap plane: the churn over both allocators with the seed's schedule
/// installed.
fn heap_plane(seed: u64, reg: &mut MetricsRegistry) -> Result<String, String> {
    // Small pages so the churn crosses page boundaries often enough for
    // armed denials to actually meet a fresh-page request.
    let schedule = FaultPlan::new(seed).heap_faults(8, 48).heap_schedule();
    let mut cc = CcMalloc::with_geometry(64, 256, Strategy::Closest);
    cc.set_fault_schedule(schedule.clone());
    let mut base = Malloc::new(256);
    base.set_fault_schedule(schedule);
    Ok(format!(
        "{}; {}",
        churn("ccmalloc", cc, reg)?,
        churn("malloc", base, reg)?
    ))
}

/// Morph plane: seed-chosen structural corruption fed to `try_ccmorph`,
/// which must reject it with a typed error and leave the space untouched.
fn morph_plane(seed: u64, reg: &mut MetricsRegistry) -> Result<String, String> {
    let mut rng = cc_core::rng::SplitMix64::new(seed);
    let machine = MachineConfig::test_tiny();
    let mut tree = VecTree::binary(31);
    let mut params = CcMorphParams::clustering_only(&machine, 16);
    let victim = 1 + rng.below(30) as usize;
    let kind = rng.below(4);
    if kind == 3 {
        params.elem_bytes = 0; // bad parameter
    } else {
        let target = match kind {
            0 => 0, // edge back to the root: a guaranteed cycle
            1 => 1, // edge to an interior node: alias (or cycle, if the
            // victim sits inside node 1's own subtree)
            _ => 1000, // dangling child
        };
        // Stay within `max_kids`: a third child would be invisible to the
        // `children` iterator and the corruption would vanish.
        let kids = &mut tree.kids[victim];
        if kids.len() == 2 {
            kids[1] = target;
        } else {
            kids.push(target);
        }
    }
    let mut vspace = VirtualSpace::new(machine.page_bytes);
    let before = vspace.span_bytes();
    let err = match try_ccmorph(&tree, &mut vspace, &params) {
        Err(e) => e,
        Ok(_) => return Err(format!("corruption kind {kind} was not detected")),
    };
    if vspace.span_bytes() != before {
        return Err("rejected morph still grew the virtual space".into());
    }
    let label = match (kind, err) {
        (0..=2, LayoutError::CyclicTopology { .. }) => "cycle",
        (0..=2, LayoutError::AliasedNode { .. }) => "alias",
        (0..=2, LayoutError::DanglingChild { .. }) => "dangling",
        (3, LayoutError::ZeroElemBytes) => "zero-elem",
        (_, other) => return Err(format!("kind {kind} raised the wrong class: {other}")),
    };
    reg.bump("fault.morph.rejections", 1);
    Ok(format!("rejected {label} (kind {kind})"))
}

/// Sweep plane: poisoned first attempts must be retried in place; the
/// grid must complete with every result present and deterministic.
fn sweep_plane(seed: u64, reg: &mut MetricsRegistry) -> Result<String, String> {
    let plan = FaultPlan::new(seed).sweep_poisons(2);
    let cells: Vec<u64> = (0..12).collect();
    let compute = |i: usize| cell_seed(seed, i as u64).count_ones() as u64;
    let clean: Vec<u64> = cells.iter().map(|&c| compute(c as usize)).collect();
    let outcomes = Sweep::with_threads(4).run_isolated(&cells, 2, |i, attempt, _| {
        if plan.poisons(i, attempt, 12) {
            panic!("injected poison in cell {i}");
        }
        compute(i)
    });
    let mut retried = 0;
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome.result() {
            Some(r) if *r == clean[i] => {}
            Some(r) => return Err(format!("cell {i} diverged: {r} != {}", clean[i])),
            None => return Err(format!("cell {i} failed outright")),
        }
        if outcome.attempts() > 1 {
            retried += 1;
        }
    }
    let expected = plan.sweep_poison_set(12).len();
    if retried != expected {
        return Err(format!("retried {retried} cells, expected {expected}"));
    }
    reg.bump("fault.sweep.retried_cells", retried as u64);
    Ok(format!("retried={retried} of 12 cells"))
}

/// Shard plane: seed-chosen replay workers panic on entry; the sharded
/// replayer must absorb every panic through its serial fallback — stats
/// bit-identical to a clean replay, degradation counters honest, nothing
/// escaping.
fn shard_plane(seed: u64, reg: &mut MetricsRegistry) -> Result<String, String> {
    let machine = MachineConfig::table1();
    const SHARDS: usize = 6;
    let plan = FaultPlan::new(seed).shard_poisons(2);
    let poisoned = plan.shard_poison_set(SHARDS);

    // A deterministic pointer-chase-ish trace wide enough to land events
    // in every shard.
    let mut rng = cc_core::rng::SplitMix64::new(cell_seed(seed, 17));
    let mut buf = cc_sim::TraceBuf::with_capacity(4096);
    for _ in 0..4000 {
        let addr = rng.next_u64() % (1 << 22);
        if rng.below(4) == 0 {
            buf.push(cc_sim::event::Event::store(addr, 8));
        } else {
            buf.push(cc_sim::event::Event::load(addr, 8));
        }
    }
    let bufs = [buf];

    let mut clean = cc_sim::ShardedReplayer::new(machine, SHARDS);
    let split = clean.split(&bufs);
    clean.replay(&split);

    let mut faulted = cc_sim::ShardedReplayer::new(machine, SHARDS);
    let split = faulted.split(&bufs);
    faulted.replay_poisoned(&split, &poisoned);

    if faulted.l1_stats() != clean.l1_stats()
        || faulted.l2_stats() != clean.l2_stats()
        || faulted.tlb_stats() != clean.tlb_stats()
        || faulted.memory_cycles() != clean.memory_cycles()
    {
        return Err("poisoned replay diverged from the clean replay".into());
    }
    let d = faulted.degradation();
    let want = poisoned.len() as u64;
    if d.worker_panics != want || d.fallback_lanes != want || d.lost_lanes != 0 {
        return Err(format!(
            "dishonest degradation counters: panics={} fallbacks={} lost={} (expected {want})",
            d.worker_panics, d.fallback_lanes, d.lost_lanes
        ));
    }
    if clean.degradation() != cc_sim::ShardDegradation::default() {
        return Err("clean replay reported degradation".into());
    }
    reg.bump("fault.shard.worker_panics", d.worker_panics);
    reg.bump("fault.shard.fallback_lanes", d.fallback_lanes);
    reg.bump("fault.shard.lost_lanes", d.lost_lanes);
    Ok(format!(
        "{} poisoned worker(s) of {SHARDS} fell back serially, stats exact",
        poisoned.len()
    ))
}

/// Sample plane: seed-chosen cluster representatives panic at replay; the
/// sampler must degrade each to a counted neighbouring-interval fallback
/// with full coverage and a near-identical estimate — degraded output
/// visible, never silently wrong.
fn sample_plane(seed: u64, reg: &mut MetricsRegistry) -> Result<String, String> {
    let machine = MachineConfig::test_tiny();
    const INTERVALS: usize = 12;
    let plan = FaultPlan::new(seed).sample_poisons(1);

    // Three phases cycling by interval index: distinct regions, strides,
    // and write mixes give k-medoids real structure to find, and keep
    // every cluster populated so a poisoned medoid always has a
    // same-phase member to fall back to.
    let interval_bufs = |i: usize| -> std::sync::Arc<Vec<cc_sim::TraceBuf>> {
        let phase = (i % 3) as u32;
        let base = 0x1000u64 << (8 * phase);
        let stride = 16u64 << (2 * phase);
        let mut buf = cc_sim::TraceBuf::with_capacity(1024);
        for j in 0..600u64 {
            let addr = base + (j * stride) % 8192;
            if phase == 1 && j % 4 == 0 {
                buf.push(cc_sim::event::Event::store(addr, 8));
            } else {
                buf.push(cc_sim::event::Event::load(addr, 8));
            }
            buf.push_ticks(1);
        }
        std::sync::Arc::new(vec![buf])
    };

    let cfg = cc_sample::SampleConfig {
        max_clusters: 3,
        ..cc_sample::SampleConfig::default()
    };
    let sigs: Vec<cc_sample::Signature> = (0..INTERVALS)
        .map(|i| cc_sample::Signature::from_bufs(&interval_bufs(i), cfg.stride_shift))
        .collect();
    let sample_plan = cc_sample::cluster(&sigs, &cfg);
    let poisoned = plan.sample_poison_set(sample_plan.representatives());
    let mut provider = |i: usize| interval_bufs(i);

    let faulted = cc_sample::replay_representatives(
        &machine,
        2,
        &sample_plan,
        &sigs,
        cfg.warmup_intervals,
        &poisoned,
        &mut provider,
    );
    let d = faulted.degradation;
    let want = poisoned.len() as u64;
    if d.fallback_representatives != want
        || d.lost_representatives != 0
        || d.lost_weight_events != 0
    {
        return Err(format!(
            "dishonest degradation counters: fallbacks={} lost={} lost_events={} (expected {want} fallbacks)",
            d.fallback_representatives, d.lost_representatives, d.lost_weight_events
        ));
    }
    let est = cc_sample::extrapolate(&sample_plan, &faulted, &cfg);
    if est.coverage_pct != 100.0 {
        return Err(format!("degraded run lost coverage: {}%", est.coverage_pct));
    }

    let clean = cc_sample::replay_representatives(
        &machine,
        2,
        &sample_plan,
        &sigs,
        cfg.warmup_intervals,
        &std::collections::BTreeSet::new(),
        &mut provider,
    );
    if clean.degradation != cc_sample::SampleDegradation::default() {
        return Err("clean representative replay reported degradation".into());
    }
    let clean_est = cc_sample::extrapolate(&sample_plan, &clean, &cfg);
    let drift = cc_sample::error_report(&est.counters, &clean_est.counters);
    if drift.max_error_pct > 10.0 {
        return Err(format!(
            "fallback estimate drifted {:.2}% ({}) from the clean estimate",
            drift.max_error_pct, drift.worst
        ));
    }

    // Replayable: the same poisons degrade to the same estimate.
    let again = cc_sample::replay_representatives(
        &machine,
        2,
        &sample_plan,
        &sigs,
        cfg.warmup_intervals,
        &poisoned,
        &mut provider,
    );
    if cc_sample::extrapolate(&sample_plan, &again, &cfg) != est {
        return Err("poisoned sampler run was not replayable".into());
    }

    reg.bump(
        "fault.sample.fallback_representatives",
        d.fallback_representatives,
    );
    reg.bump("fault.sample.lost_representatives", d.lost_representatives);
    Ok(format!(
        "{} poisoned representative(s) of {} fell back, coverage exact, drift {:.3}% ({})",
        poisoned.len(),
        sample_plan.representatives(),
        drift.max_error_pct,
        drift.worst
    ))
}

fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seeds: Vec<u64> = if args.is_empty() {
        DEFAULT_SEEDS.to_vec()
    } else {
        match args.iter().map(|a| parse_seed(a)).collect() {
            Some(seeds) => seeds,
            None => {
                eprintln!("usage: fault-matrix [seed ...] (decimal or 0x hex)");
                std::process::exit(2);
            }
        }
    };

    // The planes inject panics on purpose; silence the default hook and
    // report captured payloads ourselves.
    std::panic::set_hook(Box::new(|_| {}));

    type Plane = fn(u64, &mut MetricsRegistry) -> Result<String, String>;
    let planes: [(&str, Plane); 5] = [
        ("heap", heap_plane),
        ("morph", morph_plane),
        ("sweep", sweep_plane),
        ("shard", shard_plane),
        ("sample", sample_plane),
    ];
    let mut reg = MetricsRegistry::new();
    let mut escaped = 0u32;
    for &seed in &seeds {
        for (name, plane) in planes {
            match catch_unwind(AssertUnwindSafe(|| plane(seed, &mut reg))) {
                Ok(Ok(detail)) => println!("seed {seed:#x} {name}: ok ({detail})"),
                Ok(Err(msg)) => {
                    escaped += 1;
                    println!("seed {seed:#x} {name}: FAILED: {msg}");
                }
                Err(payload) => {
                    escaped += 1;
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".into());
                    println!("seed {seed:#x} {name}: ESCAPED PANIC: {msg}");
                }
            }
        }
    }
    reg.set("fault.planes.escaped", u64::from(escaped));
    reg.set("fault.planes.runs", (seeds.len() * planes.len()) as u64);
    // The aggregated degradation counters, as one byte-stable JSON line
    // (and, when CC_OBS_OUT names a path, as a file CI can upload).
    println!("metrics: {}", reg.to_json());
    if let Some(path) = std::env::var_os("CC_OBS_OUT").filter(|v| !v.is_empty()) {
        if let Err(e) = std::fs::write(&path, reg.to_json()) {
            eprintln!(
                "warning: fault-matrix: cannot write {}: {e}",
                path.to_string_lossy()
            );
        }
    }
    if escaped > 0 {
        println!("fault-matrix: {escaped} plane run(s) failed");
        std::process::exit(1);
    }
    println!(
        "fault-matrix: {} seeds x {} planes survived",
        seeds.len(),
        planes.len()
    );
}
