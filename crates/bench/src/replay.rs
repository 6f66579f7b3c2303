//! Shared trace recording and sharded-replay plumbing for the figure
//! binaries.
//!
//! `fig5` and `cc-bench-engine` each record the same workload — random
//! searches over a complete BST in one of the paper's layouts — and the
//! two recording blocks had drifted apart during the checkpoint port.
//! This module is the single home for:
//!
//! * [`TreeSpec`] / [`build_bst`] — every fig5/engine layout recipe as
//!   data (randomize, then depth-first repack, then `ccmorph`),
//! * [`SearchReplay`] — the measurement loop itself: draw keys, record
//!   (or fetch from a [`TraceStore`]) a trace segment, and replay it
//!   through a persistent [`ShardedReplayer`].
//!
//! Searches record straight into packed [`TraceBuf`] chunks through a
//! [`TraceRecorder`], which folds each instruction and branch event into
//! the preceding entry and the chunk's totals as it arrives. There is no
//! intermediate event list and no repack pass; [`pack_full`] is only an
//! adapter for callers that already hold a [`TraceBuffer`].
//!
//! The segment protocol is warm-hit invariant: each segment's search keys
//! are drawn from the RNG *before* the store is consulted, so the RNG
//! stream — and therefore every later segment — is identical whether the
//! trace was generated or served from cache.

use cc_core::ccmorph::CcMorphParams;
use cc_core::cluster::Order;
use cc_core::rng::SplitMix64;
use cc_sim::event::TraceBuffer;
use cc_sim::{
    MachineConfig, ShardDegradation, ShardedReplayer, SplitPool, TraceBuf, TraceRecorder,
};
use cc_sweep::{TraceKey, TraceStore};
use cc_trees::bst::Bst;

/// A fig5/engine tree-layout recipe, applied in a fixed order: randomize
/// placement, then depth-first repack, then `ccmorph` clustering +
/// coloring. Every cell in Figure 5 and the engine benchmark is some
/// subset of those three steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeSpec {
    /// Scatter nodes uniformly at random with this seed first (fig5 uses
    /// this to destroy the build order before demonstrating a repack).
    pub randomize: Option<u64>,
    /// Then repack in depth-first sequential order.
    pub depth_first: bool,
    /// Then run `ccmorph` clustering + coloring — the transparent C-tree.
    pub morph: bool,
}

impl TreeSpec {
    /// Folds the recipe into a trace key: two recipes that build different
    /// layouts must never collide on a cached trace.
    pub fn fold_key(self, key: TraceKey) -> TraceKey {
        key.fold(self.randomize.map_or(u64::MAX, |s| s))
            .fold(u64::from(self.randomize.is_some()))
            .fold(u64::from(self.depth_first))
            .fold(u64::from(self.morph))
    }
}

/// Builds the complete BST with `n` keys and applies `spec`'s layout
/// steps in order.
pub fn build_bst(machine: &MachineConfig, n: u64, spec: TreeSpec) -> Bst {
    let mut t = Bst::build_complete(n);
    if let Some(seed) = spec.randomize {
        t.layout_sequential(Order::Random { seed });
    }
    if spec.depth_first {
        t.layout_sequential(Order::DepthFirst);
    }
    if spec.morph {
        let mut vs = cc_heap::VirtualSpace::new(machine.page_bytes);
        let params = CcMorphParams::clustering_and_coloring(machine, cc_trees::BST_NODE_BYTES);
        let _ = t.morph(&mut vs, &params);
    }
    t
}

/// Packs an already-recorded event list into the chunks a
/// [`TraceRecorder`] would have written for the same stream: replaying
/// them reproduces the scalar sink's statistics, cycles, and
/// instruction and branch totals. New recording code should record into
/// a [`TraceRecorder`] directly instead of going through a
/// [`TraceBuffer`].
pub fn pack_full(trace: &TraceBuffer) -> Vec<TraceBuf> {
    let mut rec = TraceRecorder::new();
    trace.replay(&mut rec);
    rec.finish()
}

/// Searches per recorded segment. Small enough that a segment's packed
/// buffers stay cache-friendly, large enough that per-segment overhead
/// (key draw, store lookup, split) is noise.
pub const SEG_CAP: u64 = 32_768;

/// The fig5 measurement loop as a persistent object: draws random search
/// keys with the figure's RNG, records (or fetches) the trace in
/// [`SEG_CAP`]-search segments, and replays each segment through a
/// [`ShardedReplayer`] whose cache/TLB state persists across segments and
/// measurement checkpoints.
///
/// Simulated results are bit-identical to driving a scalar
/// [`cc_sim::MemorySink`] search-by-search (the sharded differential
/// suite proves the engine equality; the key protocol in the module docs
/// gives stream equality), so figures built on this loop are unchanged by
/// shard count or by a warm trace store.
pub struct SearchReplay<'a> {
    machine: MachineConfig,
    replayer: ShardedReplayer,
    store: Option<&'a TraceStore>,
    /// Split buffers for store-less loops; a store brings its own pool.
    pool: SplitPool,
    key: TraceKey,
    rng: SplitMix64,
    n: u64,
    done: u64,
    epoch: u64,
}

impl<'a> SearchReplay<'a> {
    /// Creates a loop over a tree with `n` keys.
    ///
    /// `key` must already distinguish the workload (figure tag, layout —
    /// see [`TreeSpec::fold_key`]); the machine geometry, tree size, and
    /// RNG seed are folded in here. The shard count is deliberately *not*
    /// folded: traces are stored unsplit, so every shard count shares one
    /// cached trace.
    pub fn new(
        machine: MachineConfig,
        n: u64,
        seed: u64,
        shards: usize,
        store: Option<&'a TraceStore>,
        key: TraceKey,
    ) -> Self {
        SearchReplay {
            machine,
            replayer: ShardedReplayer::new(machine, shards),
            store,
            pool: SplitPool::new(),
            key: key.machine(&machine).fold(n).fold(seed),
            rng: SplitMix64::new(seed),
            n,
            done: 0,
            epoch: 0,
        }
    }

    /// Runs searches until `target` have been replayed since the last
    /// [`SearchReplay::reset_stats`] (or construction). `search` records
    /// one search for a key into the recorder — it is only invoked on
    /// store misses, so a warm store skips tree traversal entirely. A
    /// caller that builds its tree lazily inside `search` (cc-serve
    /// does) skips tree construction on a warm store too.
    ///
    /// Each segment (and each trace generation inside it) is recorded as
    /// a span on the process tracer, so a `CC_OBS_OUT` trace shows where
    /// replay epochs spend their wall-clock time. Spans never touch the
    /// simulated results.
    pub fn advance_to(&mut self, target: u64, mut search: impl FnMut(u64, &mut TraceRecorder)) {
        while self.done < target {
            let count = SEG_CAP.min(target - self.done);
            // Keys are drawn before the store lookup: the RNG stream must
            // not depend on whether the segment is cached.
            let keys: Vec<u64> = (0..count).map(|_| 2 * self.rng.below(self.n)).collect();
            let mut generate = || {
                crate::obs::span("generate", "store", 0, || {
                    let mut rec = TraceRecorder::new();
                    for &k in &keys {
                        search(k, &mut rec);
                    }
                    rec.finish()
                })
            };
            // The segment key carries the epoch because `done` rewinds on
            // reset while the RNG does not; without it a post-reset
            // segment could collide with a pre-reset one recorded at a
            // different RNG position.
            let seg_key = self.key.fold(self.epoch).fold(self.done).fold(count);
            crate::obs::bump("replay.segments", 1);
            crate::obs::bump("replay.searches", count);
            let seg_name = format!("segment[epoch {} @ {}]", self.epoch, self.done);
            crate::obs::span(&seg_name, "replay", 0, || {
                // Segments split through a [`SplitPool`] — the store's,
                // else this loop's own: after replay the per-shard lane
                // buffers go back to the pool, so a steady-state epoch
                // allocates no lane storage at all (the pool hands the
                // same capacity back on the next segment).
                let bufs = match self.store {
                    Some(store) => store.get_or_generate(seg_key, generate),
                    None => std::sync::Arc::new(generate()),
                };
                let pool = self.store.map_or(&self.pool, TraceStore::split_pool);
                let split = self.replayer.split_pooled(&bufs, pool);
                self.replayer.replay(&split);
                pool.recycle(split);
            });
            self.done += count;
        }
    }

    /// Enables per-region miss attribution on every shard lane (see
    /// [`ShardedReplayer::enable_attribution`]). The lanes keep their
    /// fast replay and report each probe; the split keeps every probe
    /// for them (no split-time memo hits), and results stay
    /// bit-identical.
    pub fn enable_attribution(&mut self, map: std::sync::Arc<cc_obs::RegionMap>) {
        self.replayer.enable_attribution(map);
    }

    /// The merged attribution profile across all lanes, if enabled.
    pub fn attribution(&self) -> Option<cc_obs::MissProfile> {
        self.replayer.attribution()
    }

    /// Searches replayed since the last reset.
    pub fn done(&self) -> u64 {
        self.done
    }

    /// Average simulated microseconds per search since the last reset,
    /// by the Section 5.1 formula fig5 uses: memory cycles plus one cycle
    /// per four instructions, over the machine clock.
    pub fn avg_us_per_search(&self) -> f64 {
        let cycles = self.replayer.memory_cycles() as f64 + self.replayer.insts() as f64 / 4.0;
        cycles / self.done as f64 / self.machine.cycles_per_us()
    }

    /// Clears measurement counters (cache/TLB contents persist) and
    /// rewinds the search counter, separating warm-up from steady state.
    pub fn reset_stats(&mut self) {
        self.replayer.reset_stats();
        self.done = 0;
        self.epoch += 1;
    }

    /// The underlying replayer, for direct statistics access.
    pub fn replayer(&self) -> &ShardedReplayer {
        &self.replayer
    }

    /// Degradation counters accumulated by the shard workers.
    pub fn degradation(&self) -> ShardDegradation {
        self.replayer.degradation()
    }
}

/// The warm-up/steady-state pattern `ablation` and `fig10` share: run
/// `warmup` searches, reset statistics (cache and TLB contents persist),
/// run `measure` more, and return average simulated cycles per measured
/// search by the Section 5.1 formula (memory cycles plus one cycle per
/// four instructions).
#[allow(clippy::too_many_arguments)]
pub fn steady_cycles_per_search<F>(
    machine: MachineConfig,
    n: u64,
    seed: u64,
    shards: usize,
    store: Option<&TraceStore>,
    key: TraceKey,
    warmup: u64,
    measure: u64,
    mut search: F,
) -> f64
where
    F: FnMut(u64, &mut TraceRecorder),
{
    let mut replay = SearchReplay::new(machine, n, seed, shards, store, key);
    replay.advance_to(warmup, &mut search);
    replay.reset_stats();
    replay.advance_to(measure, &mut search);
    assert_eq!(
        replay.degradation(),
        ShardDegradation::default(),
        "degraded replay in a steady-state measurement"
    );
    let r = replay.replayer();
    (r.memory_cycles() as f64 + r.insts() as f64 / 4.0) / measure as f64
}

impl std::fmt::Debug for SearchReplay<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchReplay")
            .field("n", &self.n)
            .field("done", &self.done)
            .field("epoch", &self.epoch)
            .field("shards", &self.replayer.shards())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_sim::MemorySink;

    /// The scalar reference fig5 loop: one search at a time through a
    /// [`MemorySink`].
    fn scalar_avg(machine: MachineConfig, n: u64, seed: u64, searches: u64) -> (f64, u64) {
        let spec = TreeSpec {
            randomize: Some(0xA11),
            depth_first: false,
            morph: false,
        };
        let t = build_bst(&machine, n, spec);
        let mut sink = MemorySink::new(machine);
        let mut rng = SplitMix64::new(seed);
        for _ in 0..searches {
            let key = 2 * rng.below(n);
            t.search(key, &mut sink, false);
        }
        let cycles = sink.memory_cycles() as f64 + sink.insts() as f64 / 4.0;
        (
            cycles / searches as f64 / machine.cycles_per_us(),
            sink.system().l1_stats().misses(),
        )
    }

    fn replay_avg(
        machine: MachineConfig,
        n: u64,
        seed: u64,
        searches: u64,
        shards: usize,
        store: Option<&TraceStore>,
    ) -> (f64, u64, u64) {
        let spec = TreeSpec {
            randomize: Some(0xA11),
            depth_first: false,
            morph: false,
        };
        let t = build_bst(&machine, n, spec);
        let key = spec.fold_key(TraceKey::new("replay-test"));
        let mut replay = SearchReplay::new(machine, n, seed, shards, store, key);
        let mut calls = 0;
        replay.advance_to(searches, |k, buf| {
            calls += 1;
            t.search(k, buf, false);
        });
        (
            replay.avg_us_per_search(),
            replay.replayer().l1_stats().misses(),
            calls,
        )
    }

    #[test]
    fn search_replay_matches_the_scalar_loop() {
        let machine = MachineConfig::ultrasparc_e5000();
        let (n, seed, searches) = (1023, 0x51EE7, 700);
        let scalar = scalar_avg(machine, n, seed, searches);
        for shards in [1usize, 4] {
            let sharded = replay_avg(machine, n, seed, searches, shards, None);
            assert_eq!(sharded.0.to_bits(), scalar.0.to_bits(), "{shards} shards");
            assert_eq!(sharded.1, scalar.1, "{shards} shards L1 misses");
        }
    }

    #[test]
    fn warm_store_replays_are_identical_and_skip_generation() {
        let machine = MachineConfig::ultrasparc_e5000();
        let store = TraceStore::default();
        let cold = replay_avg(machine, 511, 7, 300, 2, Some(&store));
        let gens = store.counters().generations;
        assert!(gens > 0);
        assert_eq!(cold.2, 300, "a cold store searches once per key");
        let warm = replay_avg(machine, 511, 7, 300, 2, Some(&store));
        assert_eq!(warm.0.to_bits(), cold.0.to_bits());
        assert_eq!(warm.1, cold.1);
        // Callers (cc-serve) build their tree inside the search closure,
        // so a warm store must never call it.
        assert_eq!(warm.2, 0, "a warm store called the search closure");
        assert_eq!(store.counters().generations, gens, "warm run regenerated");
        assert!(store.counters().hits > 0);
    }

    #[test]
    fn reset_separates_epochs_in_the_store_key() {
        let machine = MachineConfig::ultrasparc_e5000();
        let store = TraceStore::default();
        let spec = TreeSpec {
            randomize: None,
            depth_first: true,
            morph: false,
        };
        let t = build_bst(&machine, 255, spec);
        let key = spec.fold_key(TraceKey::new("epoch-test"));
        let mut replay = SearchReplay::new(machine, 255, 3, 1, Some(&store), key);
        replay.advance_to(100, |k, buf| {
            t.search(k, buf, false);
        });
        replay.reset_stats();
        assert_eq!(replay.done(), 0);
        // Same (done, count) coordinates as the warm-up segment, but the
        // RNG has advanced: the epoch fold must force a fresh generation
        // rather than serving the warm-up trace.
        replay.advance_to(100, |k, buf| {
            t.search(k, buf, false);
        });
        assert_eq!(store.counters().generations, 2);
        assert_eq!(store.counters().hits, 0);
    }

    #[test]
    fn steady_state_helper_matches_the_scalar_pattern() {
        let machine = MachineConfig::ultrasparc_e5000();
        let (n, seed, warmup, measure) = (511u64, 99u64, 400u64, 600u64);
        let spec = TreeSpec {
            randomize: Some(5),
            depth_first: false,
            morph: false,
        };
        let t = build_bst(&machine, n, spec);

        // Scalar reference: warm up, reset stats (cache contents persist),
        // measure with the same continuing RNG stream.
        let mut sink = MemorySink::new(machine);
        let mut rng = SplitMix64::new(seed);
        for _ in 0..warmup {
            t.search(2 * rng.below(n), &mut sink, false);
        }
        sink.reset_stats();
        for _ in 0..measure {
            t.search(2 * rng.below(n), &mut sink, false);
        }
        let scalar = (sink.memory_cycles() as f64 + sink.insts() as f64 / 4.0) / measure as f64;

        for shards in [1usize, 3] {
            let key = spec.fold_key(TraceKey::new("steady-test"));
            let sharded = steady_cycles_per_search(
                machine,
                n,
                seed,
                shards,
                None,
                key,
                warmup,
                measure,
                |k, buf| {
                    t.search(k, buf, false);
                },
            );
            assert_eq!(sharded.to_bits(), scalar.to_bits(), "{shards} shards");
        }
    }

    #[test]
    fn tree_specs_fold_distinct_keys() {
        let specs = [
            TreeSpec {
                randomize: None,
                depth_first: false,
                morph: false,
            },
            TreeSpec {
                randomize: Some(0),
                depth_first: false,
                morph: false,
            },
            TreeSpec {
                randomize: Some(0xA11),
                depth_first: false,
                morph: false,
            },
            TreeSpec {
                randomize: Some(0xA11),
                depth_first: true,
                morph: false,
            },
            TreeSpec {
                randomize: Some(0xA11),
                depth_first: true,
                morph: true,
            },
        ];
        let base = TraceKey::new("fig5");
        let keys: Vec<u64> = specs.iter().map(|s| s.fold_key(base).value()).collect();
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "specs {i} and {j} collide");
            }
        }
    }
}
