//! `cc-bench-engine` — measures the simulator engine itself: the scalar
//! reference path ([`MemorySink`]), the batched fast path
//! ([`MemorySystem::access_batch`]), and the set-sharded parallel path
//! ([`cc_sim::ShardedReplayer`]) consuming identical Figure 5 search
//! traces.
//!
//! Each cell records one fig5 trace (a BST pointer chase over a given
//! layout and tree size), checks the three engines agree bit-for-bit on
//! statistics and cycle totals, and then times them. Replay inputs are
//! prepared the way the sweep harness prepares them — packed (and, for
//! the sharded engine, set-split) once outside the timed region — because
//! packing and splitting happen once per trace while replays happen once
//! per (scheme × trial × machine) cell. Traces themselves come from the
//! content-addressed [`TraceStore`]: re-running the benchmark with
//! `CC_TRACE_CACHE=dir` set skips recording entirely on warm keys.
//!
//! The sharded engine is reported on two clocks:
//!
//! * `sharded_ns_per_replay` — the *modeled* parallel replay time: each
//!   shard lane is run serially on the caller thread (pure uncontended
//!   compute), and the replay time is the critical path, the slowest
//!   single lane (or the serial TLB lane). This is the replay time on a
//!   machine with one core per shard, and it is stable no matter how
//!   oversubscribed the measuring host is.
//! * `sharded_wall_ns_per_replay` — actual wall time of the threaded
//!   replay on this host, reported alongside the host's core count for
//!   context (on a single-core host it can exceed the batched time; the
//!   threads just take turns).
//!
//! Timing interleaves the engines round-robin across `CC_BENCH_REPEATS`
//! passes (default 12 full / 5 quick, floor 5) and reports the
//! per-engine *median* plus the full spread as a percentage of that
//! median. Round-robin means slow drifts in host load hit all variants
//! equally; medians mean one lucky or unlucky pass can't set the
//! reported number. The obs overhead is computed *pairwise*: each
//! repeat's obs-enabled pass is compared against the plain pass of the
//! same round-robin lap (so a host hiccup between laps cancels out
//! instead of showing up as phantom overhead), the reported
//! `obs_overhead_pct` is the median of those paired deltas floored at
//! zero — the hooks cannot make replay *faster*, so a negative median
//! is measurement noise, not a result — and the unfloored median ships
//! beside it as `obs_overhead_raw_pct` so the flooring is auditable.
//! A large spread is the benchmark telling you the host was busy —
//! rerun before trusting small deltas.
//!
//! The artifact also carries a `sampled_sim` block: the cc-sample
//! representative-interval pipeline against the full replay of the same
//! search stream, as an error-vs-speedup curve over cluster counts plus
//! a headline `sampled_speedup_vs_batched` at the best operating point
//! whose worst-counter extrapolation error stays within the calibrated
//! 2% bound. In full mode the workload is production-scale (beyond
//! what cc-serve's full-replay budget admits) and CI gates both the
//! error bound and a ≥ 10x sampled speedup; quick mode gates the error
//! bound only, since a short trace has too few intervals for sampling
//! to pay.
//!
//! A `field_layout` block carries the fig5-style field-transform sweep:
//! the fat-node tree under AoS, hot-prefix reorder, hot/cold split, and
//! SoA, measured in deterministic simulated time on a search and a scan
//! workload, with a headline `field_layout_speedup_vs_aos` (SoA over AoS
//! on the array-ish scan) gated > 1.0 alongside a hot/cold-beats-AoS
//! search gate.
//!
//! Results go to stdout and, machine-readably, to `BENCH_sim.json`
//! (override with `--out <path>`), with a per-trace wall-vs-modeled
//! table beside it (`<out stem>.wall.txt`). `--quick` shrinks trees and
//! sample counts for CI smoke runs.
//!
//! Exit status is nonzero if the batched engine fails to beat the scalar
//! engine, or the sharded critical path fails to beat the scalar engine,
//! on any trace — a performance regression gate, enforced in CI. On
//! hosts with at least four cores there is a third gate: the *threaded*
//! sharded replay must beat the batched drain by ≥ 2x wall-clock on the
//! headline trace. Narrower hosts can't run four lanes at once, so the
//! wall gate is skipped there with its reason logged and recorded in the
//! JSON (`wall_gate`); the modeled critical-path gate still holds the
//! line.

use cc_bench::field::{run_field_sweep, FieldCase, FieldSweep};
use cc_bench::header;
use cc_bench::replay::{build_bst, pack_chunks, pack_full, TreeSpec};
use cc_bench::sample::{SampledReplay, SampledSpec};
use cc_core::rng::SplitMix64;
use cc_sample::{error_report, replay_full, SampleConfig};
use cc_sim::batch::{BatchCursor, BatchSink, TraceBuf};
use cc_sim::event::{EventSink, TraceBuffer};
use cc_sim::shard::ShardedTrace;
use cc_sim::{MachineConfig, MemorySink, MemorySystem, ShardedReplayer};
use cc_sweep::{TraceKey, TraceStore};
use criterion::black_box;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// Shards requested for the headline sharded timings (the scaling sweep
/// varies this; every fig5 machine has at least 4 exact shards).
const SHARDS: usize = 4;

/// Wall-clock gate thresholds, recorded in every artifact so a skipped or
/// failed gate is auditable from the JSON alone: the minimum speedup the
/// threaded replay must show over the batched drain, and the core count
/// below which the gate is skipped rather than enforced.
const WALL_GATE_MIN: f64 = 2.0;
const WALL_GATE_CORES: usize = 4;

/// Sampled-simulation gates: the operating point's worst-counter
/// extrapolation error must stay within the pipeline's calibrated bound
/// in both modes, and in full mode — where the trace is long enough for
/// sampling to amortize its fingerprint pass — the operating point must
/// beat the full replay by at least this factor.
const SAMPLED_ERROR_GATE_PCT: f64 = 2.0;
const SAMPLED_SPEEDUP_GATE: f64 = 10.0;

// Field order is cc-lint's PAD-01 suggestion (wide members first, the
// u32/bool tail packed); repr(C) pins it, the offset test below holds it.
#[repr(C)]
struct CaseSpec {
    tree: TreeSpec,
    name: &'static str,
    layout: &'static str,
    searches: u64,
    /// Tree has `2^bits - 1` keys (a complete BST).
    bits: u32,
    sw_prefetch: bool,
}

struct Timing {
    name: &'static str,
    layout: &'static str,
    keys: u64,
    events: usize,
    memory_refs: usize,
    shards: usize,
    scalar_ns: f64,
    batched_ns: f64,
    batched_obs_ns: f64,
    sharded_ns: f64,
    sharded_wall_ns: f64,
    obs_overhead_pct: f64,
    obs_overhead_raw_pct: f64,
    scalar_refs_per_sec: f64,
    batched_refs_per_sec: f64,
    sharded_refs_per_sec: f64,
    speedup: f64,
    sharded_speedup_vs_scalar: f64,
    sharded_speedup_vs_batched: f64,
    sharded_wall_speedup_vs_batched: f64,
    scalar_spread_pct: f64,
    batched_spread_pct: f64,
    sharded_wall_spread_pct: f64,
}

/// Timing passes per engine: `CC_BENCH_REPEATS` when set, else the mode
/// default, never below 5 — a median over fewer samples is just noise
/// with extra steps.
fn repeats(quick: bool) -> usize {
    let default = if quick { 5 } else { 12 };
    std::env::var("CC_BENCH_REPEATS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(default)
        .max(5)
}

/// Median of a sample set (sorts in place; averages the middle pair for
/// even counts).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    assert!(n > 0, "median of an empty sample set");
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Full spread (max − min) of a sample set as a percentage of its median.
fn spread_pct(samples: &[f64], med: f64) -> f64 {
    let lo = samples.iter().copied().fold(f64::MAX, f64::min);
    let hi = samples.iter().copied().fold(f64::MIN, f64::max);
    100.0 * (hi - lo) / med
}

/// One point on the sampled error-vs-speedup curve: the cc-sample
/// pipeline at one cluster count against the shared full-replay baseline.
struct SampledPoint {
    clusters: usize,
    intervals: usize,
    representatives: usize,
    sampled_ns: f64,
    speedup_vs_batched: f64,
    max_error_pct: f64,
    worst: &'static str,
}

/// The sampled-simulation sweep: workload coordinates, the full-replay
/// baseline, and the curve over cluster counts.
struct SampledSweep {
    points: Vec<SampledPoint>,
    keys: u64,
    searches: u64,
    interval_searches: u64,
    events: u64,
    batched_ns: f64,
    probe_shift: u32,
}

impl SampledSweep {
    /// The headline operating point: the fastest curve point whose
    /// worst-counter error stays within the calibrated bound.
    fn operating_point(&self) -> Option<&SampledPoint> {
        self.points
            .iter()
            .filter(|p| p.max_error_pct <= SAMPLED_ERROR_GATE_PCT)
            .max_by(|a, b| a.speedup_vs_batched.total_cmp(&b.speedup_vs_batched))
    }
}

/// Runs the sampled-simulation sweep: one timed full replay of a
/// fig5-shaped randomized-BST search stream (the rate-1.0 ground truth),
/// then the cc-sample pipeline over the identical key stream at several
/// cluster counts, each timed end-to-end (fingerprint, clustering,
/// representative replay, extrapolation).
fn run_sampled_sweep(machine: &MachineConfig, quick: bool) -> SampledSweep {
    // The reference workload keeps the tree several times larger than L2
    // so steady-state misses dominate compulsory ones — the regime the
    // sampler's warmup windows are calibrated for. Full mode runs it at
    // production scale, ~50x beyond cc-serve's 2.4M-event full-replay
    // budget; quick keeps the same shape small enough for CI smoke.
    let (bits, searches, per, probe_shift) = if quick {
        (17u32, 160_000u64, 4096u64, 3u32)
    } else {
        (21, 6_000_000, 8192, 4)
    };
    let n = (1u64 << bits) - 1;
    let seed = 0x5A3D_51EE;
    let tree_spec = TreeSpec {
        randomize: Some(0xA11),
        depth_first: false,
        morph: false,
    };
    let tree = build_bst(machine, n, tree_spec);

    // Timed baseline: the identical key stream, generated and replayed in
    // full through the same sharded batched engine the sampler's
    // representatives use, one interval at a time (bounded memory at any
    // trace length) — exactly the rate-1.0 ground-truth path.
    eprintln!("sampled sweep: full-replay baseline ({n} keys, {searches} searches)…");
    let start = Instant::now();
    let mut rng = SplitMix64::new(seed);
    let mut interval = |i: usize| {
        let count = per.min(searches - i as u64 * per);
        let mut buf = TraceBuffer::new();
        for _ in 0..count {
            let key = 2 * rng.below(n);
            tree.search(key, &mut buf, false);
        }
        Arc::new(pack_full(&buf))
    };
    let intervals = searches.div_ceil(per) as usize;
    let (full, _) = replay_full(machine, SHARDS, intervals, &mut interval);
    let batched_secs = start.elapsed().as_secs_f64();

    let mut points = Vec::new();
    for clusters in [2usize, 4, 8, 16] {
        let spec = SampledSpec {
            interval_searches: per,
            sample: SampleConfig {
                max_clusters: clusters,
                ..SampleConfig::default()
            },
            probe_shift,
            ..SampledSpec::default()
        };
        let start = Instant::now();
        let mut sr = SampledReplay::new(
            *machine,
            n,
            seed,
            SHARDS,
            None,
            TraceKey::new("engine-sampled"),
            spec,
        );
        let result = sr
            .run(searches, |key, buf| {
                tree.search(key, buf, false);
            })
            .expect("no cancel hook installed");
        let sampled_secs = start.elapsed().as_secs_f64();
        let err = error_report(&result.stats.counters, &full);
        eprintln!(
            "  k={clusters}: {:.1} ms, {:.2}x, max err {:.3}% ({})",
            sampled_secs * 1e3,
            batched_secs / sampled_secs,
            err.max_error_pct,
            err.worst
        );
        points.push(SampledPoint {
            clusters,
            intervals: result.intervals,
            representatives: result.representatives,
            sampled_ns: sampled_secs * 1e9,
            speedup_vs_batched: batched_secs / sampled_secs,
            max_error_pct: err.max_error_pct,
            worst: err.worst,
        });
    }
    SampledSweep {
        keys: n,
        searches,
        interval_searches: per,
        probe_shift,
        events: full.events,
        batched_ns: batched_secs * 1e9,
        points,
    }
}

/// The content-addressed coordinates of one engine trace: layout recipe,
/// machine geometry, tree size, search count, prefetch flag, RNG seed.
fn trace_key(machine: &MachineConfig, spec: &CaseSpec) -> TraceKey {
    spec.tree
        .fold_key(TraceKey::new("engine"))
        .machine(machine)
        .fold((1u64 << spec.bits) - 1)
        .fold(spec.searches)
        .fold(u64::from(spec.sw_prefetch))
        .fold(0x51EE7)
}

/// Fetches (or records) the packed trace for `spec`. The recording block
/// matches fig5's measurement loop — same layouts, same RNG — so this is
/// literally the figure's event stream.
fn recorded_bufs(
    machine: &MachineConfig,
    spec: &CaseSpec,
    store: &TraceStore,
) -> Arc<Vec<TraceBuf>> {
    let n = (1u64 << spec.bits) - 1;
    store.get_or_generate(trace_key(machine, spec), || {
        let t = build_bst(machine, n, spec.tree);
        let mut buf = TraceBuffer::new();
        let mut rng = SplitMix64::new(0x51EE7);
        for _ in 0..spec.searches {
            let key = 2 * rng.below(n);
            t.search(key, &mut buf, spec.sw_prefetch);
        }
        pack_full(&buf)
    })
}

/// Replays the trace through the scalar reference sink; returns cycles as
/// the live output for `black_box`.
fn run_scalar(machine: &MachineConfig, trace: &TraceBuffer) -> u64 {
    let mut sink = MemorySink::new(*machine);
    trace.replay(&mut sink);
    sink.memory_cycles()
}

/// Drains prepacked chunks through the batched fast path.
fn run_batched(machine: &MachineConfig, chunks: &[TraceBuf]) -> u64 {
    let mut sys = MemorySystem::new(*machine);
    let mut cursor = BatchCursor::new();
    let mut now = 0u64;
    let mut cycles = 0u64;
    for c in chunks {
        let out = sys.access_batch(c, now, &mut cursor);
        now += out.events;
        cycles += out.cycles;
    }
    cycles
}

/// Drains prepacked chunks through the batched fast path with the
/// process-wide observability surface engaged, at the granularity the
/// figure binaries use it: one span around the replay, counters bumped
/// once per replay. The gap between this and [`run_batched`] is the
/// whole cost of having cc-obs wired in, and CI gates it at 5%.
fn run_batched_obs(machine: &MachineConfig, chunks: &[TraceBuf]) -> u64 {
    cc_bench::obs::span("batched replay", "engine", 0, || {
        let cycles = run_batched(machine, chunks);
        cc_bench::obs::bump("engine.batched_obs.replays", 1);
        cc_bench::obs::bump("engine.batched_obs.chunks", chunks.len() as u64);
        cycles
    })
}

/// One sharded replay of a prepared split on a fresh replayer, lanes run
/// serially; returns `(critical path nanos, cycles)`.
fn run_sharded_serial(machine: &MachineConfig, shards: usize, split: &ShardedTrace) -> (u64, u64) {
    let mut r = ShardedReplayer::new(*machine, shards);
    let out = r.replay_serial(split);
    (out.critical_path_nanos(), out.cycles)
}

/// One threaded sharded replay on a fresh replayer; returns cycles.
fn run_sharded_threaded(machine: &MachineConfig, shards: usize, split: &ShardedTrace) -> u64 {
    let mut r = ShardedReplayer::new(*machine, shards);
    r.replay(split).cycles
}

/// The engines must agree bit-for-bit before their speeds are compared:
/// the scalar sink, the public [`BatchSink`] (which packs and drains
/// incrementally), the prepacked chunk drain, and the sharded replayer
/// must all produce identical statistics and cycle totals.
fn assert_engines_agree(
    machine: &MachineConfig,
    name: &str,
    trace: &TraceBuffer,
    chunks: &[TraceBuf],
    split: &ShardedTrace,
) {
    let mut scalar = MemorySink::new(*machine);
    trace.replay(&mut scalar);
    let mut batched = BatchSink::new(*machine);
    trace.replay(&mut batched);
    batched.flush();
    assert_eq!(
        batched.system().l1_stats(),
        scalar.system().l1_stats(),
        "{name}: L1 stats diverged between engines"
    );
    assert_eq!(
        batched.system().l2_stats(),
        scalar.system().l2_stats(),
        "{name}: L2 stats diverged between engines"
    );
    assert_eq!(
        batched.system().tlb_stats(),
        scalar.system().tlb_stats(),
        "{name}: TLB stats diverged between engines"
    );
    assert_eq!(
        batched.memory_cycles(),
        scalar.memory_cycles(),
        "{name}: cycle totals diverged between engines"
    );

    // The prepacked drain is what the timer runs; hold it to the same bar.
    let mut sys = MemorySystem::new(*machine);
    let mut cursor = BatchCursor::new();
    let mut now = 0u64;
    let mut cycles = 0u64;
    for c in chunks {
        let out = sys.access_batch(c, now, &mut cursor);
        now += out.events;
        cycles += out.cycles;
    }
    assert_eq!(
        cycles,
        scalar.memory_cycles(),
        "{name}: prepacked drain cycles diverged from scalar"
    );
    assert_eq!(
        sys.l1_stats(),
        scalar.system().l1_stats(),
        "{name}: prepacked drain L1 stats diverged from scalar"
    );
    assert_eq!(
        sys.l2_stats(),
        scalar.system().l2_stats(),
        "{name}: prepacked drain L2 stats diverged from scalar"
    );
    assert_eq!(
        sys.tlb_stats(),
        scalar.system().tlb_stats(),
        "{name}: prepacked drain TLB stats diverged from scalar"
    );

    // The sharded replayer, both threaded and serial, against the same bar.
    for serial in [false, true] {
        let mut sharded = ShardedReplayer::new(*machine, SHARDS);
        let out = if serial {
            sharded.replay_serial(split)
        } else {
            sharded.replay(split)
        };
        let tag = if serial { "serial" } else { "threaded" };
        assert_eq!(
            sharded.l1_stats(),
            scalar.system().l1_stats(),
            "{name}: sharded ({tag}) L1 stats diverged from scalar"
        );
        assert_eq!(
            sharded.l2_stats(),
            scalar.system().l2_stats(),
            "{name}: sharded ({tag}) L2 stats diverged from scalar"
        );
        assert_eq!(
            sharded.tlb_stats(),
            scalar.system().tlb_stats(),
            "{name}: sharded ({tag}) TLB stats diverged from scalar"
        );
        assert_eq!(
            out.cycles,
            scalar.memory_cycles(),
            "{name}: sharded ({tag}) cycles diverged from scalar"
        );
        assert_eq!(
            sharded.insts(),
            scalar.insts(),
            "{name}: sharded ({tag}) instruction totals diverged from scalar"
        );
        assert_eq!(
            sharded.degradation(),
            cc_sim::ShardDegradation::default(),
            "{name}: sharded ({tag}) replay degraded on a clean trace"
        );
    }
}

fn json_escape_free(s: &str) -> &str {
    // Names are static identifiers; assert rather than escape.
    assert!(s
        .chars()
        .all(|c| c.is_ascii_graphic() && c != '"' && c != '\\'));
    s
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &str,
    mode: &str,
    cores: usize,
    parallelism: Option<usize>,
    reps: usize,
    wall_gate: &str,
    timings: &[Timing],
    scaling: &[(usize, f64)],
    sampled: &SampledSweep,
    field: &FieldSweep,
    store: &TraceStore,
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench\": \"cc-bench-engine\",")?;
    writeln!(f, "  \"mode\": \"{mode}\",")?;
    writeln!(f, "  \"machine\": \"ultrasparc_e5000\",")?;
    writeln!(f, "  \"cores\": {cores},")?;
    // Host block: why the wall gate ran, skipped, or failed is auditable
    // from the artifact alone — the raw detection result (null when the
    // host would not say, in which case `cores` falls back to 1) next to
    // the thresholds the gate applied.
    writeln!(f, "  \"host\": {{")?;
    match parallelism {
        Some(n) => writeln!(f, "    \"available_parallelism\": {n},")?,
        None => writeln!(f, "    \"available_parallelism\": null,")?,
    }
    writeln!(f, "    \"wall_gate_needs_cores\": {WALL_GATE_CORES},")?;
    writeln!(f, "    \"wall_gate_min_speedup\": {WALL_GATE_MIN:.1},")?;
    writeln!(f, "    \"wall_gate_shards\": {SHARDS}")?;
    writeln!(f, "  }},")?;
    writeln!(f, "  \"repeats\": {reps},")?;
    writeln!(f, "  \"timing_stat\": \"median over repeats\",")?;
    writeln!(f, "  \"wall_gate\": \"{wall_gate}\",")?;
    writeln!(
        f,
        "  \"sharded_metric\": \"critical path over serially-run lanes (modeled one core per shard)\","
    )?;
    writeln!(f, "  \"traces\": [")?;
    for (i, t) in timings.iter().enumerate() {
        writeln!(f, "    {{")?;
        writeln!(f, "      \"name\": \"{}\",", json_escape_free(t.name))?;
        writeln!(f, "      \"layout\": \"{}\",", json_escape_free(t.layout))?;
        writeln!(f, "      \"keys\": {},", t.keys)?;
        writeln!(f, "      \"events\": {},", t.events)?;
        writeln!(f, "      \"memory_refs\": {},", t.memory_refs)?;
        writeln!(f, "      \"shards\": {},", t.shards)?;
        writeln!(f, "      \"scalar_ns_per_replay\": {:.0},", t.scalar_ns)?;
        writeln!(f, "      \"batched_ns_per_replay\": {:.0},", t.batched_ns)?;
        writeln!(
            f,
            "      \"batched_obs_ns_per_replay\": {:.0},",
            t.batched_obs_ns
        )?;
        writeln!(f, "      \"obs_overhead_pct\": {:.2},", t.obs_overhead_pct)?;
        writeln!(
            f,
            "      \"obs_overhead_raw_pct\": {:.2},",
            t.obs_overhead_raw_pct
        )?;
        writeln!(f, "      \"sharded_ns_per_replay\": {:.0},", t.sharded_ns)?;
        writeln!(
            f,
            "      \"sharded_wall_ns_per_replay\": {:.0},",
            t.sharded_wall_ns
        )?;
        writeln!(
            f,
            "      \"scalar_refs_per_sec\": {:.0},",
            t.scalar_refs_per_sec
        )?;
        writeln!(
            f,
            "      \"batched_refs_per_sec\": {:.0},",
            t.batched_refs_per_sec
        )?;
        writeln!(
            f,
            "      \"sharded_refs_per_sec\": {:.0},",
            t.sharded_refs_per_sec
        )?;
        writeln!(f, "      \"speedup\": {:.2},", t.speedup)?;
        writeln!(
            f,
            "      \"sharded_speedup_vs_scalar\": {:.2},",
            t.sharded_speedup_vs_scalar
        )?;
        writeln!(
            f,
            "      \"sharded_speedup_vs_batched\": {:.2},",
            t.sharded_speedup_vs_batched
        )?;
        writeln!(
            f,
            "      \"sharded_wall_speedup_vs_batched\": {:.2},",
            t.sharded_wall_speedup_vs_batched
        )?;
        writeln!(
            f,
            "      \"scalar_spread_pct\": {:.2},",
            t.scalar_spread_pct
        )?;
        writeln!(
            f,
            "      \"batched_spread_pct\": {:.2},",
            t.batched_spread_pct
        )?;
        writeln!(
            f,
            "      \"sharded_wall_spread_pct\": {:.2}",
            t.sharded_wall_spread_pct
        )?;
        writeln!(f, "    }}{}", if i + 1 < timings.len() { "," } else { "" })?;
    }
    writeln!(f, "  ],")?;
    writeln!(f, "  \"shard_scaling\": {{")?;
    writeln!(f, "    \"trace\": \"fig5-ctree-full\",")?;
    writeln!(f, "    \"points\": [")?;
    for (i, (shards, ns)) in scaling.iter().enumerate() {
        writeln!(
            f,
            "      {{ \"shards\": {shards}, \"ns_per_replay\": {ns:.0} }}{}",
            if i + 1 < scaling.len() { "," } else { "" }
        )?;
    }
    writeln!(f, "    ]")?;
    writeln!(f, "  }},")?;
    writeln!(f, "  \"sampled_sim\": {{")?;
    writeln!(f, "    \"workload\": \"fig5-random-bst\",")?;
    writeln!(f, "    \"keys\": {},", sampled.keys)?;
    writeln!(f, "    \"searches\": {},", sampled.searches)?;
    writeln!(f, "    \"events\": {},", sampled.events)?;
    writeln!(
        f,
        "    \"interval_searches\": {},",
        sampled.interval_searches
    )?;
    writeln!(f, "    \"probe_shift\": {},", sampled.probe_shift)?;
    writeln!(f, "    \"batched_ms\": {:.3},", sampled.batched_ns * 1e-6)?;
    writeln!(f, "    \"error_gate_pct\": {SAMPLED_ERROR_GATE_PCT:.1},")?;
    writeln!(f, "    \"points\": [")?;
    for (i, p) in sampled.points.iter().enumerate() {
        writeln!(f, "      {{")?;
        writeln!(f, "        \"clusters\": {},", p.clusters)?;
        writeln!(f, "        \"intervals\": {},", p.intervals)?;
        writeln!(f, "        \"representatives\": {},", p.representatives)?;
        writeln!(f, "        \"sampled_ms\": {:.3},", p.sampled_ns * 1e-6)?;
        writeln!(
            f,
            "        \"speedup_vs_batched\": {:.2},",
            p.speedup_vs_batched
        )?;
        writeln!(f, "        \"max_error_pct\": {:.3},", p.max_error_pct)?;
        writeln!(
            f,
            "        \"worst_counter\": \"{}\"",
            json_escape_free(p.worst)
        )?;
        writeln!(
            f,
            "      }}{}",
            if i + 1 < sampled.points.len() {
                ","
            } else {
                ""
            }
        )?;
    }
    writeln!(f, "    ],")?;
    match sampled.operating_point() {
        Some(p) => writeln!(f, "    \"operating_point_clusters\": {}", p.clusters)?,
        None => writeln!(f, "    \"operating_point_clusters\": null")?,
    }
    writeln!(f, "  }},")?;
    writeln!(f, "  \"field_layout\": {{")?;
    writeln!(f, "    \"workload\": \"fat-bst search + key scan\",")?;
    writeln!(f, "    \"keys\": {},", field.n)?;
    writeln!(f, "    \"searches\": {},", field.searches)?;
    writeln!(f, "    \"scans\": {},", field.scans)?;
    writeln!(f, "    \"cases\": [")?;
    for (i, r) in field.results.iter().enumerate() {
        writeln!(f, "      {{")?;
        writeln!(f, "        \"case\": \"{}\",", r.case.name())?;
        writeln!(f, "        \"search_us\": {:.4},", r.search_us)?;
        writeln!(f, "        \"scan_us\": {:.5},", r.scan_us)?;
        writeln!(
            f,
            "        \"search_l1_miss_pct\": {:.2},",
            r.search_l1_miss_pct
        )?;
        writeln!(f, "        \"hot_stride\": {},", r.hot_stride)?;
        writeln!(
            f,
            "        \"search_speedup_vs_aos\": {:.2},",
            field.search_speedup(r.case)
        )?;
        writeln!(
            f,
            "        \"scan_speedup_vs_aos\": {:.2},",
            field.scan_speedup(r.case)
        )?;
        writeln!(f, "        \"search_l1_miss_shares\": [")?;
        for (j, (name, share)) in r.field_misses.iter().enumerate() {
            writeln!(
                f,
                "          {{ \"field\": \"{}\", \"share\": {share:.4} }}{}",
                json_escape_free(name),
                if j + 1 < r.field_misses.len() {
                    ","
                } else {
                    ""
                }
            )?;
        }
        writeln!(f, "        ]")?;
        writeln!(
            f,
            "      }}{}",
            if i + 1 < field.results.len() { "," } else { "" }
        )?;
    }
    writeln!(f, "    ]")?;
    writeln!(f, "  }},")?;
    let c = store.counters();
    writeln!(f, "  \"trace_store\": {{")?;
    writeln!(f, "    \"hits\": {},", c.hits)?;
    writeln!(f, "    \"misses\": {},", c.misses)?;
    writeln!(f, "    \"disk_hits\": {},", c.disk_hits)?;
    writeln!(f, "    \"generations\": {}", c.generations)?;
    writeln!(f, "  }},")?;
    let headline = timings
        .iter()
        .find(|t| t.name == "fig5-pointer-chase")
        .map(|t| t.speedup)
        .unwrap_or(f64::NAN);
    writeln!(f, "  \"pointer_chase_speedup\": {headline:.2},")?;
    let sharded_headline = timings
        .iter()
        .find(|t| t.name == "fig5-ctree-full")
        .map(|t| t.sharded_speedup_vs_batched)
        .unwrap_or(f64::NAN);
    writeln!(
        f,
        "  \"sharded_speedup_vs_batched\": {sharded_headline:.2},"
    )?;
    let wall_headline = timings
        .iter()
        .find(|t| t.name == "fig5-ctree-full")
        .map(|t| t.sharded_wall_speedup_vs_batched)
        .unwrap_or(f64::NAN);
    writeln!(
        f,
        "  \"sharded_wall_speedup_vs_batched\": {wall_headline:.2},"
    )?;
    writeln!(
        f,
        "  \"field_layout_speedup_vs_aos\": {:.2},",
        field.headline_speedup()
    )?;
    match sampled.operating_point() {
        Some(p) => writeln!(
            f,
            "  \"sampled_speedup_vs_batched\": {:.2}",
            p.speedup_vs_batched
        )?,
        None => writeln!(f, "  \"sampled_speedup_vs_batched\": null")?,
    }
    writeln!(f, "}}")?;
    Ok(())
}

/// The wall-vs-modeled companion table: one row per trace putting the
/// threaded replay's actual wall time next to the modeled critical path
/// and the batched baseline, so a CI artifact shows at a glance where
/// wall-clock stands relative to the model on the host that ran it.
fn write_wall_table(
    path: &str,
    cores: usize,
    reps: usize,
    wall_gate: &str,
    timings: &[Timing],
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(
        f,
        "sharded replay, wall-clock vs modeled ({SHARDS} shards, {cores} host cores, \
         median of {reps} repeats)"
    )?;
    writeln!(
        f,
        "wall gate (fig5-ctree-full >= 2.0x vs batched): {wall_gate}"
    )?;
    writeln!(f)?;
    writeln!(
        f,
        "{:<24}{:>13}{:>13}{:>13}{:>9}{:>9}{:>9}",
        "trace", "batched ms", "modeled ms", "wall ms", "mod/b", "wall/b", "spread%"
    )?;
    for t in timings {
        writeln!(
            f,
            "{:<24}{:>13.3}{:>13.3}{:>13.3}{:>8.2}x{:>8.2}x{:>8.1}%",
            t.name,
            t.batched_ns * 1e-6,
            t.sharded_ns * 1e-6,
            t.sharded_wall_ns * 1e-6,
            t.sharded_speedup_vs_batched,
            t.sharded_wall_speedup_vs_batched,
            t.sharded_wall_spread_pct
        )?;
    }
    Ok(())
}

fn main() {
    let mut quick = false;
    let mut out_path = String::from("BENCH_sim.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => {
                out_path = args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: cc-bench-engine [--quick] [--out <path>]");
                std::process::exit(2);
            }
        }
    }

    let machine = MachineConfig::ultrasparc_e5000();
    // The fig5 layout recipes, as shared with the figure binary itself.
    let ctree = TreeSpec {
        randomize: None,
        depth_first: false,
        morph: true,
    };
    let dfs = TreeSpec {
        randomize: None,
        depth_first: true,
        morph: false,
    };
    let random = TreeSpec {
        randomize: Some(0xA11),
        depth_first: false,
        morph: false,
    };
    let allocation = TreeSpec {
        randomize: None,
        depth_first: false,
        morph: false,
    };
    // Cells follow fig5's checkpoints: the ~1000-node tree at the figure's
    // left edge (the headline pointer chase, over the paper's own C-tree
    // layout) up to the 2^21-node tree at its right edge, plus the other
    // layouts and a software-prefetch trace so the batched engine's
    // in-flight-aware slow path is timed and gated too.
    let cases: Vec<CaseSpec> = if quick {
        vec![
            CaseSpec {
                name: "fig5-pointer-chase",
                layout: "ctree",
                tree: ctree,
                bits: 10,
                searches: 4_000,
                sw_prefetch: false,
            },
            CaseSpec {
                name: "fig5-ctree-full",
                layout: "ctree",
                tree: ctree,
                bits: 13,
                searches: 4_000,
                sw_prefetch: false,
            },
            CaseSpec {
                name: "fig5-dfs",
                layout: "depth-first",
                tree: dfs,
                bits: 13,
                searches: 4_000,
                sw_prefetch: false,
            },
            CaseSpec {
                name: "fig5-random-clustered",
                layout: "random",
                tree: random,
                bits: 11,
                searches: 4_000,
                sw_prefetch: false,
            },
            CaseSpec {
                name: "fig5-prefetch",
                layout: "allocation",
                tree: allocation,
                bits: 11,
                searches: 1_000,
                sw_prefetch: true,
            },
        ]
    } else {
        vec![
            CaseSpec {
                name: "fig5-pointer-chase",
                layout: "ctree",
                tree: ctree,
                bits: 10,
                searches: 40_000,
                sw_prefetch: false,
            },
            CaseSpec {
                name: "fig5-ctree-full",
                layout: "ctree",
                tree: ctree,
                bits: 21,
                searches: 40_000,
                sw_prefetch: false,
            },
            CaseSpec {
                name: "fig5-dfs",
                layout: "depth-first",
                tree: dfs,
                bits: 21,
                searches: 40_000,
                sw_prefetch: false,
            },
            CaseSpec {
                name: "fig5-random-clustered",
                layout: "random",
                tree: random,
                bits: 14,
                searches: 40_000,
                sw_prefetch: false,
            },
            CaseSpec {
                name: "fig5-prefetch",
                layout: "allocation",
                tree: allocation,
                bits: 14,
                searches: 10_000,
                sw_prefetch: true,
            },
        ]
    };

    let reps = repeats(quick);
    let parallelism = std::thread::available_parallelism().ok().map(|n| n.get());
    let cores = parallelism.unwrap_or(1);
    header(
        "Engine benchmark: scalar vs batched vs sharded trace replay",
        &format!(
            "fig5 search traces; prepacked batch drain and {SHARDS}-shard split \
             ({} mode, median of {reps} repeats, {cores} host cores)",
            if quick { "quick" } else { "full" },
        ),
    );

    let store = TraceStore::from_env();
    if store.has_disk() {
        eprintln!("trace store: CC_TRACE_CACHE disk tier enabled");
    }

    let mut timings = Vec::new();
    for spec in &cases {
        let keys = (1u64 << spec.bits) - 1;
        eprintln!(
            "preparing {} ({} layout, {keys} keys, {} searches)…",
            spec.name, spec.layout, spec.searches
        );
        let bufs = recorded_bufs(&machine, spec, &store);
        // Rebuild the flat event stream for the scalar engine and the
        // tick-folded chunks for the batched drain — both once, outside
        // the timed region, exactly like packing.
        let mut trace = TraceBuffer::new();
        for buf in bufs.iter() {
            for ev in buf.events() {
                trace.event(ev);
            }
        }
        let chunks = pack_chunks(&trace);
        let splitter = ShardedReplayer::new(machine, SHARDS);
        let split = splitter.split_pooled(&bufs, store.split_pool());
        assert_engines_agree(&machine, spec.name, &trace, &chunks, &split);

        // Round-robin the engines `reps` times and keep every sample, so
        // any slow drift in host load is shared instead of biasing one
        // side, and the reported number is a median with a spread rather
        // than a single lucky minimum.
        let mut scalar_s = Vec::with_capacity(reps);
        let mut batched_s = Vec::with_capacity(reps);
        let mut batched_obs_s = Vec::with_capacity(reps);
        let mut sharded_s = Vec::with_capacity(reps);
        let mut sharded_wall_s = Vec::with_capacity(reps);
        for _ in 0..reps {
            let start = Instant::now();
            black_box(run_scalar(black_box(&machine), black_box(&trace)));
            scalar_s.push(start.elapsed().as_secs_f64());
            let start = Instant::now();
            black_box(run_batched(black_box(&machine), black_box(&chunks)));
            batched_s.push(start.elapsed().as_secs_f64());
            let start = Instant::now();
            black_box(run_batched_obs(black_box(&machine), black_box(&chunks)));
            batched_obs_s.push(start.elapsed().as_secs_f64());
            let (critical, cycles) =
                run_sharded_serial(black_box(&machine), SHARDS, black_box(&split));
            black_box(cycles);
            sharded_s.push(critical as f64 * 1e-9);
            let start = Instant::now();
            black_box(run_sharded_threaded(
                black_box(&machine),
                SHARDS,
                black_box(&split),
            ));
            sharded_wall_s.push(start.elapsed().as_secs_f64());
        }
        store.split_pool().recycle(split);

        // Pair each repeat's obs-enabled pass with the plain pass of the
        // same lap before any sorting: cross-lap host drift cancels
        // within a pair, so the paired deltas measure the hooks and
        // nothing else.
        let mut overhead_s: Vec<f64> = batched_obs_s
            .iter()
            .zip(&batched_s)
            .map(|(obs, plain)| 100.0 * (obs - plain) / plain)
            .collect();
        let obs_overhead_raw_pct = median(&mut overhead_s);

        let scalar_med = median(&mut scalar_s);
        let batched_med = median(&mut batched_s);
        let batched_obs_med = median(&mut batched_obs_s);
        let sharded_med = median(&mut sharded_s);
        let sharded_wall_med = median(&mut sharded_wall_s);

        let memory_refs = trace.memory_refs();
        let scalar_ns = scalar_med * 1e9;
        let batched_ns = batched_med * 1e9;
        let batched_obs_ns = batched_obs_med * 1e9;
        let sharded_ns = sharded_med * 1e9;
        let sharded_wall_ns = sharded_wall_med * 1e9;
        timings.push(Timing {
            name: spec.name,
            layout: spec.layout,
            keys,
            events: trace.events().len(),
            memory_refs,
            shards: splitter.shards(),
            scalar_ns,
            batched_ns,
            batched_obs_ns,
            sharded_ns,
            sharded_wall_ns,
            obs_overhead_pct: obs_overhead_raw_pct.max(0.0),
            obs_overhead_raw_pct,
            scalar_refs_per_sec: memory_refs as f64 / scalar_med,
            batched_refs_per_sec: memory_refs as f64 / batched_med,
            sharded_refs_per_sec: memory_refs as f64 / sharded_med,
            speedup: scalar_ns / batched_ns,
            sharded_speedup_vs_scalar: scalar_ns / sharded_ns,
            sharded_speedup_vs_batched: batched_ns / sharded_ns,
            sharded_wall_speedup_vs_batched: batched_ns / sharded_wall_ns,
            scalar_spread_pct: spread_pct(&scalar_s, scalar_med),
            batched_spread_pct: spread_pct(&batched_s, batched_med),
            sharded_wall_spread_pct: spread_pct(&sharded_wall_s, sharded_wall_med),
        });
    }

    // Shard-count scaling on the headline trace. The trace comes back out
    // of the store (a warm hit — recording already happened above), and
    // every shard count shares that one cached trace.
    let scaling_spec = cases
        .iter()
        .find(|c| c.name == "fig5-ctree-full")
        .expect("scaling trace present in both modes");
    let bufs = recorded_bufs(&machine, scaling_spec, &store);
    let mut scaling = Vec::new();
    eprintln!("shard scaling on fig5-ctree-full…");
    for shards in [1usize, 2, 4, 8] {
        let splitter = ShardedReplayer::new(machine, shards);
        let split = splitter.split_pooled(&bufs, store.split_pool());
        let mut crit_s = Vec::with_capacity(reps.min(6));
        for _ in 0..reps.min(6) {
            let (critical, cycles) = run_sharded_serial(&machine, shards, &split);
            black_box(cycles);
            crit_s.push(critical as f64);
        }
        scaling.push((splitter.shards(), median(&mut crit_s)));
        store.split_pool().recycle(split);
    }

    // The sampled-simulation sweep: the representative-interval pipeline
    // against a timed full replay of the same search stream.
    let sampled = run_sampled_sweep(&machine, quick);

    // The field-layout sweep: AoS vs the three cc-core field transforms
    // on the fat-node tree, in deterministic simulated time.
    eprintln!("field-layout sweep on the fat-node tree…");
    let field = run_field_sweep(&machine, quick);

    println!(
        "\n{:<24}{:>12}{:>11}{:>15}{:>15}{:>15}{:>9}{:>9}{:>9}{:>8}",
        "trace",
        "layout",
        "mem refs",
        "scalar refs/s",
        "batch refs/s",
        "shard refs/s",
        "b/s",
        "sh/b",
        "wall/b",
        "obs%"
    );
    for t in &timings {
        println!(
            "{:<24}{:>12}{:>11}{:>15.0}{:>15.0}{:>15.0}{:>8.2}x{:>8.2}x{:>8.2}x{:>7.2}%",
            t.name,
            t.layout,
            t.memory_refs,
            t.scalar_refs_per_sec,
            t.batched_refs_per_sec,
            t.sharded_refs_per_sec,
            t.speedup,
            t.sharded_speedup_vs_batched,
            t.sharded_wall_speedup_vs_batched,
            t.obs_overhead_pct
        );
    }
    println!(
        "timing spread over {reps} repeats (max-min as % of median, sharded wall lane): {}",
        timings
            .iter()
            .map(|t| format!("{} {:.1}%", t.name, t.sharded_wall_spread_pct))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("\nshard scaling (fig5-ctree-full, critical-path ns/replay):");
    for (shards, ns) in &scaling {
        println!("  {shards:>2} shards  {ns:>14.0}");
    }
    println!(
        "\nsampled simulation (fig5-random-bst, {} keys, {} searches, {} events):",
        sampled.keys, sampled.searches, sampled.events
    );
    println!(
        "  full replay baseline: {:.1} ms",
        sampled.batched_ns * 1e-6
    );
    for p in &sampled.points {
        println!(
            "  k={:<3} reps={:<3} {:>10.1} ms  {:>6.2}x vs full  max err {:.3}% ({})",
            p.clusters,
            p.representatives,
            p.sampled_ns * 1e-6,
            p.speedup_vs_batched,
            p.max_error_pct,
            p.worst
        );
    }
    match sampled.operating_point() {
        Some(p) => println!(
            "  operating point: k={} at {:.2}x, max err {:.3}% (gate {:.1}%)",
            p.clusters, p.speedup_vs_batched, p.max_error_pct, SAMPLED_ERROR_GATE_PCT
        ),
        None => {
            println!("  operating point: NONE within the {SAMPLED_ERROR_GATE_PCT:.1}% error gate")
        }
    }
    println!(
        "\nfield-layout sweep (fat-bst, {} keys, simulated time; {} searches, {} scans):",
        field.n, field.searches, field.scans
    );
    println!(
        "  {:<10}{:>12}{:>12}{:>10}{:>10}{:>9}  hottest fields (L1 share)",
        "case", "search µs", "scan µs", "search x", "scan x", "L1 miss%",
    );
    for r in &field.results {
        let hot: Vec<String> = r
            .field_misses
            .iter()
            .take(3)
            .map(|(name, share)| format!("{name} {:.0}%", 100.0 * share))
            .collect();
        println!(
            "  {:<10}{:>12.3}{:>12.4}{:>9.2}x{:>9.2}x{:>9.2}  {}",
            r.case.name(),
            r.search_us,
            r.scan_us,
            field.search_speedup(r.case),
            field.scan_speedup(r.case),
            r.search_l1_miss_pct,
            hot.join(", ")
        );
    }
    let c = store.counters();
    println!(
        "trace store: {} generations, {} memory hits, {} disk hits",
        c.generations, c.hits, c.disk_hits
    );

    // Wall-clock gate verdict, computed up front so both artifacts record
    // it. The threaded replay can only beat batched when the host can run
    // the shard lanes concurrently; on narrower hosts the gate is a
    // logged skip, not a silent pass.
    let wall_headline = timings
        .iter()
        .find(|t| t.name == "fig5-ctree-full")
        .map(|t| t.sharded_wall_speedup_vs_batched)
        .unwrap_or(f64::NAN);
    let wall_gate = if cores < WALL_GATE_CORES {
        format!(
            "skipped: host has {cores} core(s), needs {WALL_GATE_CORES}+ to run \
             {SHARDS} shard lanes in parallel (measured {wall_headline:.2}x)"
        )
    } else if wall_headline >= WALL_GATE_MIN {
        format!("passed: {wall_headline:.2}x >= {WALL_GATE_MIN:.1}x")
    } else {
        format!("failed: {wall_headline:.2}x < {WALL_GATE_MIN:.1}x")
    };

    let mode = if quick { "quick" } else { "full" };
    if let Err(e) = write_json(
        &out_path,
        mode,
        cores,
        parallelism,
        reps,
        &wall_gate,
        &timings,
        &scaling,
        &sampled,
        &field,
        &store,
    ) {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    let wall_path = format!(
        "{}.wall.txt",
        out_path.strip_suffix(".json").unwrap_or(&out_path)
    );
    if let Err(e) = write_wall_table(&wall_path, cores, reps, &wall_gate, &timings) {
        eprintln!("failed to write {wall_path}: {e}");
        std::process::exit(1);
    }
    println!("\nwrote {out_path} and {wall_path}");

    // Fold the trace-store counters into the unified metrics snapshot and
    // flush CC_OBS_OUT before the gates can exit nonzero — a regression
    // report with no observability artifact would be the worst of both.
    let mut reg = cc_obs::MetricsRegistry::new();
    cc_sweep::obs::export_store(&mut reg, "engine.trace_store", &store.counters());
    cc_bench::obs::absorb(&reg);
    cc_bench::obs::write_obs_out();

    let mut failed = false;
    for t in &timings {
        if t.obs_overhead_pct > 5.0 {
            eprintln!(
                "REGRESSION: {} obs-enabled batched replay is {:.2}% slower than plain \
                 (gate: 5%); the observability hooks are no longer ~free",
                t.name, t.obs_overhead_pct
            );
            failed = true;
        }
        if t.batched_refs_per_sec < t.scalar_refs_per_sec {
            eprintln!(
                "REGRESSION: {} batched ({:.0} refs/s) is slower than scalar ({:.0} refs/s)",
                t.name, t.batched_refs_per_sec, t.scalar_refs_per_sec
            );
            failed = true;
        }
        if t.sharded_refs_per_sec < t.scalar_refs_per_sec {
            eprintln!(
                "REGRESSION: {} sharded critical path ({:.0} refs/s) is slower than scalar ({:.0} refs/s)",
                t.name, t.sharded_refs_per_sec, t.scalar_refs_per_sec
            );
            failed = true;
        }
    }
    match sampled.operating_point() {
        None => {
            for p in &sampled.points {
                eprintln!(
                    "  sampled k={}: {:.2}x, max err {:.3}% ({})",
                    p.clusters, p.speedup_vs_batched, p.max_error_pct, p.worst
                );
            }
            eprintln!(
                "REGRESSION: no sampled operating point stayed within the \
                 {SAMPLED_ERROR_GATE_PCT:.1}% extrapolation-error gate"
            );
            failed = true;
        }
        Some(p) if !quick && p.speedup_vs_batched < SAMPLED_SPEEDUP_GATE => {
            eprintln!(
                "REGRESSION: sampled operating point (k={}) is only {:.2}x the full \
                 replay (gate: {SAMPLED_SPEEDUP_GATE:.1}x at {} events)",
                p.clusters, p.speedup_vs_batched, sampled.events
            );
            failed = true;
        }
        Some(_) => {}
    }
    if field.headline_speedup() <= 1.0 {
        eprintln!(
            "REGRESSION: SoA scan is {:.2}x the AoS baseline (gate: > 1.0x) — the \
             field-layout headline no longer wins on its prescribed workload",
            field.headline_speedup()
        );
        failed = true;
    }
    if field.search_speedup(FieldCase::HotCold) <= 1.0 {
        eprintln!(
            "REGRESSION: hot/cold split search is {:.2}x the AoS baseline (gate: > 1.0x)",
            field.search_speedup(FieldCase::HotCold)
        );
        failed = true;
    }
    if cores < WALL_GATE_CORES {
        eprintln!("wall-clock gate {wall_gate}");
    } else if wall_headline < WALL_GATE_MIN {
        eprintln!(
            "REGRESSION: fig5-ctree-full threaded sharded replay is only {wall_headline:.2}x \
             the batched drain wall-clock (gate: {WALL_GATE_MIN:.1}x at {SHARDS} shards on a \
             {cores}-core host)"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod layout_tests {
    use super::*;

    // Compiler-backed pin of the PAD-01 reorder: the wide members lead
    // and the packed tail leaves only the 3 trailing bytes rustc must
    // keep for the struct's 8-byte alignment.
    #[test]
    fn case_spec_offsets_are_pinned() {
        assert_eq!(core::mem::offset_of!(CaseSpec, tree), 0);
        assert_eq!(core::mem::offset_of!(CaseSpec, name), 24);
        assert_eq!(core::mem::offset_of!(CaseSpec, layout), 40);
        assert_eq!(core::mem::offset_of!(CaseSpec, searches), 56);
        assert_eq!(core::mem::offset_of!(CaseSpec, bits), 64);
        assert_eq!(core::mem::offset_of!(CaseSpec, sw_prefetch), 68);
        assert_eq!(core::mem::size_of::<CaseSpec>(), 72);
    }
}
