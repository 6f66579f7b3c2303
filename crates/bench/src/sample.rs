//! `SampledReplay` — the production-scale entry point of the sampled
//! simulation pipeline, alongside [`crate::replay::SearchReplay`].
//!
//! `SearchReplay` replays every event it generates; its cost is linear
//! in the search count, which caps practical workloads around the serve
//! replay budget. `SampledReplay` runs the cc-sample pipeline instead:
//!
//! 1. **Stream + fingerprint.** The workload is generated in fixed-size
//!    intervals of `interval_searches` searches, each recorded straight
//!    into packed chunks by a [`TraceRecorder`] (instruction and branch
//!    events fold into the preceding entry as they arrive, so the
//!    fingerprint walks about a third of the entries an unfolded packing
//!    would hold). Each interval is fingerprinted and then *dropped*
//!    unless it fits a retention budget — crucially, the interval's RNG
//!    checkpoint (a [`SplitMix64`] clone, 8 bytes) is recorded first, so
//!    any interval can be regenerated on demand, bit-identically, in
//!    O(interval) time. A trace 50× past the full-replay ceiling never
//!    exists in memory at once.
//! 2. **Cluster** the signatures ([`cc_sample::cluster()`]).
//! 3. **Replay representatives** behind warmup windows
//!    ([`cc_sample::replay_representatives`]), regenerating each needed
//!    interval (representative and warmup predecessors) from its
//!    checkpoint when it was not retained.
//! 4. **Extrapolate** ([`cc_sample::extrapolate()`]) and, when requested,
//!    measure per-counter error against a full ground-truth replay.
//!
//! Results are cached in the [`TraceStore`]'s sampled side cache, keyed
//! by the trace coordinates *and* the sampling configuration
//! ([`cc_sample::SampleConfig::key_fold`]), in a byte-stable compact
//! encoding — a warm server answers an over-budget request without
//! generating a single event.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::Arc;

use cc_core::rng::SplitMix64;
use cc_sample::replay::{replay_representatives, run_plan_full, SampleDegradation};
use cc_sample::Counters;
use cc_sample::{
    cluster, error_report, extrapolate, replay_full, ErrorReport, SampleConfig, SamplePlan,
    SampledStats, Signature,
};
use cc_sim::{MachineConfig, TraceBuf, TraceRecorder};
use cc_sweep::{TraceKey, TraceStore};

/// Sampling parameters for one [`SampledReplay`] run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SampledSpec {
    /// The cc-sample pipeline configuration (clusters, warmup, seed,
    /// stride, calibrated bound).
    pub sample: SampleConfig,
    /// Searches per interval. The interval is the sampling quantum:
    /// smaller intervals see phases more sharply but leave less warmup
    /// history per representative.
    pub interval_searches: u64,
    /// In-memory retention budget for fingerprinted intervals, used
    /// only when probing is off (probed intervals are never complete,
    /// so they are never retained). Retained intervals skip
    /// regeneration at representative-replay time; the rest cost one
    /// extra generation pass each. Retention never changes results,
    /// only wall time.
    pub retain_bytes: usize,
    /// Fingerprint every `2^probe_shift`-th search of an interval
    /// (keys are still drawn for every search, so the RNG stream — and
    /// therefore every regenerated interval — is unchanged). Probing is
    /// what makes the fingerprint pass cheaper than generation itself:
    /// without it, generating every event to fingerprint it caps the
    /// end-to-end speedup near the generation/replay cost ratio.
    /// Interval event weights are estimated from the probed searches
    /// (exact in expectation; the per-cluster sum averages the noise
    /// down). Ignored (treated as 0) when the plan degenerates to rate
    /// 1.0, where every interval is replayed anyway and exact weights
    /// preserve bit-identity with full replay.
    pub probe_shift: u32,
    /// Also run the full persistent replay as ground truth and attach a
    /// per-counter [`ErrorReport`]. Costs what a full replay costs —
    /// meant for calibration sweeps, not production answers.
    pub ground_truth: bool,
}

impl Default for SampledSpec {
    fn default() -> Self {
        SampledSpec {
            interval_searches: 8192,
            sample: SampleConfig::default(),
            probe_shift: 3,
            retain_bytes: 64 << 20,
            ground_truth: false,
        }
    }
}

impl SampledSpec {
    /// Folds everything that changes sampled results into a store key.
    pub fn fold_key(&self, key: TraceKey) -> TraceKey {
        key.fold(0x5A4D_71E0)
            .fold(self.interval_searches)
            .fold(u64::from(self.probe_shift))
            .fold(self.sample.key_fold())
    }
}

/// A sampled run was cancelled by the caller's cooperative cancel hook.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled;

/// The outcome of a sampled replay.
#[derive(Clone, Debug, PartialEq)]
pub struct SampledResult {
    /// Extrapolated counters plus coverage/confidence/error-bound.
    pub stats: SampledStats,
    /// Intervals the trace was sliced into.
    pub intervals: usize,
    /// Representatives replayed (clusters).
    pub representatives: usize,
    /// Searches per interval.
    pub interval_searches: u64,
    /// Total searches the estimate speaks for.
    pub total_searches: u64,
    /// Sampler fault-plane counters.
    pub degradation: SampleDegradation,
    /// Per-counter error vs ground truth, when the spec requested one.
    pub error: Option<ErrorReport>,
    /// Whether the result was served from the store's sampled cache.
    pub from_cache: bool,
}

impl SampledResult {
    /// Average simulated microseconds per search by the Section 5.1
    /// formula, from the extrapolated counters.
    pub fn avg_us_per_search(&self, machine: &MachineConfig) -> f64 {
        let c = &self.stats.counters;
        let cycles = c.memory_cycles as f64 + c.insts as f64 / 4.0;
        cycles / self.total_searches as f64 / machine.cycles_per_us()
    }

    /// Byte-stable compact encoding for the store's sampled side cache.
    /// Floats are encoded as bit patterns, so a decode round-trips
    /// exactly. The error report and fault counters are deliberately
    /// *not* encoded: faulted or calibration runs are never cached.
    pub fn encode_compact(&self) -> String {
        let mut s = format!(
            "ccsample v1 intervals={:x} reps={:x} per={:x} total={:x} cov={:016x} conf={:016x} bound={:016x}",
            self.intervals,
            self.representatives,
            self.interval_searches,
            self.total_searches,
            self.stats.coverage_pct.to_bits(),
            self.stats.confidence_pct.to_bits(),
            self.stats.error_bound_pct.to_bits(),
        );
        for (name, v) in self.stats.counters.named() {
            s.push_str(&format!(" {name}={v:x}"));
        }
        s.push('\n');
        s
    }

    /// Inverse of [`SampledResult::encode_compact`]; `None` on any
    /// corruption (a mangled cache entry is regenerated, never trusted).
    pub fn decode_compact(text: &str) -> Option<SampledResult> {
        let line = text.lines().next()?;
        let mut fields: BTreeMap<&str, &str> = BTreeMap::new();
        let mut words = line.split_ascii_whitespace();
        if words.next()? != "ccsample" || words.next()? != "v1" {
            return None;
        }
        for w in words {
            let (k, v) = w.split_once('=')?;
            if fields.insert(k, v).is_some() {
                return None;
            }
        }
        let hex = |k: &str| -> Option<u64> { u64::from_str_radix(fields.get(k)?, 16).ok() };
        let counters = Counters {
            l1_accesses: hex("l1_accesses")?,
            l1_misses: hex("l1_misses")?,
            l1_evictions: hex("l1_evictions")?,
            l2_accesses: hex("l2_accesses")?,
            l2_misses: hex("l2_misses")?,
            l2_evictions: hex("l2_evictions")?,
            tlb_accesses: hex("tlb_accesses")?,
            tlb_misses: hex("tlb_misses")?,
            memory_cycles: hex("memory_cycles")?,
            insts: hex("insts")?,
            branches: hex("branches")?,
            events: hex("events")?,
        };
        Some(SampledResult {
            stats: SampledStats {
                counters,
                coverage_pct: f64::from_bits(hex("cov")?),
                confidence_pct: f64::from_bits(hex("conf")?),
                error_bound_pct: f64::from_bits(hex("bound")?),
            },
            intervals: hex("intervals")? as usize,
            representatives: hex("reps")? as usize,
            interval_searches: hex("per")?,
            total_searches: hex("total")?,
            degradation: SampleDegradation::default(),
            error: None,
            from_cache: true,
        })
    }
}

/// The sampled measurement loop: configuration is bound at construction,
/// [`SampledReplay::run`] executes the pipeline for a search closure.
pub struct SampledReplay<'a> {
    machine: MachineConfig,
    shards: usize,
    store: Option<&'a TraceStore>,
    key: TraceKey,
    n: u64,
    seed: u64,
    spec: SampledSpec,
    poison: BTreeSet<usize>,
    cancel: Option<&'a dyn Fn() -> bool>,
}

impl<'a> SampledReplay<'a> {
    /// Creates a sampled loop over a tree with `n` keys, mirroring
    /// [`crate::replay::SearchReplay::new`]: `key` must already
    /// distinguish the workload; machine, size, and seed are folded in
    /// here, and the sampling configuration is folded at cache time.
    pub fn new(
        machine: MachineConfig,
        n: u64,
        seed: u64,
        shards: usize,
        store: Option<&'a TraceStore>,
        key: TraceKey,
        spec: SampledSpec,
    ) -> Self {
        SampledReplay {
            machine,
            shards,
            store,
            key: key.machine(&machine).fold(n).fold(seed),
            n,
            seed,
            spec,
            poison: BTreeSet::new(),
            cancel: None,
        }
    }

    /// Poisons representative replays by cluster ordinal — the cc-fault
    /// sampler plane. Poisoned runs bypass the result cache in both
    /// directions.
    pub fn poison(&mut self, reps: BTreeSet<usize>) {
        self.poison = reps;
    }

    /// Installs a cooperative cancellation hook, polled between
    /// intervals and pipeline phases. When it returns true the run stops
    /// with [`Cancelled`] instead of a result.
    pub fn cancel_with(&mut self, cancel: &'a dyn Fn() -> bool) {
        self.cancel = Some(cancel);
    }

    fn cancelled(&self) -> bool {
        self.cancel.is_some_and(|c| c())
    }

    /// Runs the pipeline for `total_searches` searches. `search` records
    /// one search for a key into a recorder, exactly as in
    /// [`crate::replay::SearchReplay::advance_to`]; it is invoked once
    /// per search during fingerprinting and again for every interval a
    /// representative replay needs regenerated. A sampled-cache hit
    /// returns before the first call, so a warm store skips tree
    /// traversal entirely, and construction too when the caller builds
    /// its tree lazily inside `search` (cc-serve does).
    pub fn run(
        &mut self,
        total_searches: u64,
        mut search: impl FnMut(u64, &mut TraceRecorder),
    ) -> Result<SampledResult, Cancelled> {
        assert!(total_searches > 0, "sampled replay of zero searches");
        let per = self.spec.interval_searches.max(1);
        let intervals = total_searches.div_ceil(per) as usize;

        // Warm-cache answer: an unfaulted, non-calibration run with a
        // store never generates anything if the sampled result is warm.
        let cacheable = self.store.is_some() && self.poison.is_empty() && !self.spec.ground_truth;
        let sampled_key = self.spec.fold_key(self.key).fold(total_searches);
        if cacheable {
            let store = self.store.expect("cacheable implies store");
            if let Some(hit) = store.sampled_get(sampled_key) {
                if let Some(result) = SampledResult::decode_compact(&hit) {
                    crate::obs::bump("sample.cache_hits", 1);
                    return Ok(result);
                }
            }
        }

        // Phase 1: stream, checkpoint, fingerprint, retain-under-budget.
        crate::obs::bump("sample.runs", 1);
        crate::obs::bump("sample.intervals", intervals as u64);
        let mut rng = SplitMix64::new(self.seed);
        let mut checkpoints: Vec<SplitMix64> = Vec::with_capacity(intervals);
        let mut counts: Vec<u64> = Vec::with_capacity(intervals);
        let mut sigs: Vec<Signature> = Vec::with_capacity(intervals);
        let mut retained: BTreeMap<usize, Arc<Vec<TraceBuf>>> = BTreeMap::new();
        let mut retained_bytes = 0usize;
        let n = self.n;
        let generate =
            |rng: &mut SplitMix64, count: u64, search: &mut dyn FnMut(u64, &mut TraceRecorder)| {
                let mut rec = TraceRecorder::new();
                for _ in 0..count {
                    let k = 2 * rng.below(n);
                    search(k, &mut rec);
                }
                rec.finish()
            };
        // Rate-1.0 plans replay every interval, so probed (approximate)
        // event weights would only break bit-identity with full replay
        // for no savings — force exact fingerprinting there.
        let probe_shift = if self.spec.sample.max_clusters >= intervals {
            0
        } else {
            self.spec.probe_shift
        };
        crate::obs::span("fingerprint", "sample", 0, || -> Result<(), Cancelled> {
            let mut done = 0u64;
            for i in 0..intervals {
                if self.cancelled() {
                    return Err(Cancelled);
                }
                let count = per.min(total_searches - done);
                checkpoints.push(rng.clone());
                counts.push(count);
                if probe_shift == 0 {
                    let bufs = generate(&mut rng, count, &mut search);
                    sigs.push(Signature::from_bufs(&bufs, self.spec.sample.stride_shift));
                    let bytes: usize = bufs.iter().map(TraceBuf::approx_bytes).sum();
                    if retained_bytes + bytes <= self.spec.retain_bytes {
                        retained.insert(i, Arc::new(bufs));
                        retained_bytes += bytes;
                    }
                } else {
                    // Probe mode: every key is drawn (the RNG stream must
                    // match regeneration exactly) but only every
                    // 2^probe_shift-th search is traced and fingerprinted.
                    let mask = (1u64 << probe_shift) - 1;
                    let mut rec = TraceRecorder::new();
                    let mut probed = 0u64;
                    for s in 0..count {
                        let k = 2 * rng.below(n);
                        if s & mask == 0 {
                            search(k, &mut rec);
                            probed += 1;
                        }
                    }
                    let bufs = rec.finish();
                    let mut sig = Signature::from_bufs(&bufs, self.spec.sample.stride_shift);
                    // Scale the probed event count up to an estimate for
                    // the whole interval: exact in expectation, and the
                    // per-cluster weight sums average the noise down.
                    sig.events = (u128::from(sig.events) * u128::from(count)
                        / u128::from(probed.max(1))) as u64;
                    sigs.push(sig);
                }
                done += count;
            }
            Ok(())
        })?;

        // Phase 2: cluster.
        let plan = if self.spec.sample.max_clusters >= intervals {
            SamplePlan::full(&sigs)
        } else {
            cluster(&sigs, &self.spec.sample)
        };
        crate::obs::bump("sample.representatives", plan.representatives() as u64);

        // Phase 3: representative replay, regenerating unretained
        // intervals from their checkpoints (bit-identical by the RNG
        // checkpoint contract — same state, same keys, same trace).
        if self.cancelled() {
            return Err(Cancelled);
        }
        let mut provider = |i: usize| match retained.get(&i) {
            Some(bufs) => Arc::clone(bufs),
            None => {
                crate::obs::bump("sample.regenerated_intervals", 1);
                let mut rng = checkpoints[i].clone();
                Arc::new(generate(&mut rng, counts[i], &mut search))
            }
        };
        let replay = crate::obs::span("representatives", "sample", 0, || {
            if plan.is_full() {
                run_plan_full(&self.machine, self.shards, &plan, &mut provider)
            } else {
                replay_representatives(
                    &self.machine,
                    self.shards,
                    &plan,
                    &sigs,
                    self.spec.sample.warmup_intervals,
                    &self.poison,
                    &mut provider,
                )
            }
        });
        crate::obs::bump(
            "sample.fallback_representatives",
            replay.degradation.fallback_representatives,
        );
        crate::obs::bump(
            "sample.lost_representatives",
            replay.degradation.lost_representatives,
        );

        // Phase 4: extrapolate, plus optional measured ground truth.
        let mut stats = extrapolate(&plan, &replay, &self.spec.sample);
        let mut error = None;
        if self.spec.ground_truth {
            if self.cancelled() {
                return Err(Cancelled);
            }
            let (truth, _) = crate::obs::span("ground-truth", "sample", 0, || {
                replay_full(&self.machine, self.shards, intervals, &mut provider)
            });
            let report = error_report(&stats.counters, &truth);
            stats.error_bound_pct = report.max_error_pct;
            error = Some(report);
        }

        let result = SampledResult {
            stats,
            intervals,
            representatives: plan.representatives(),
            interval_searches: per,
            total_searches,
            degradation: replay.degradation,
            error,
            from_cache: false,
        };
        if cacheable {
            let store = self.store.expect("cacheable implies store");
            store.sampled_put(sampled_key, result.encode_compact());
        }
        Ok(result)
    }
}

impl std::fmt::Debug for SampledReplay<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SampledReplay")
            .field("n", &self.n)
            .field("shards", &self.shards)
            .field("spec", &self.spec)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{build_bst, SearchReplay, TreeSpec};

    fn spec() -> TreeSpec {
        TreeSpec {
            randomize: Some(0xA11),
            depth_first: false,
            morph: false,
        }
    }

    fn quick_spec(interval_searches: u64, clusters: usize, ground_truth: bool) -> SampledSpec {
        SampledSpec {
            interval_searches,
            sample: SampleConfig {
                max_clusters: clusters,
                ..SampleConfig::default()
            },
            probe_shift: 2,
            retain_bytes: 1 << 20,
            ground_truth,
        }
    }

    #[test]
    fn rate_one_matches_search_replay_bit_identically() {
        let machine = MachineConfig::ultrasparc_e5000();
        let (n, seed, searches) = (1023u64, 0x51EE7u64, 600u64);
        let t = build_bst(&machine, n, spec());
        let key = spec().fold_key(TraceKey::new("sampled-test"));

        let mut full = SearchReplay::new(machine, n, seed, 2, None, key);
        full.advance_to(searches, |k, buf| {
            t.search(k, buf, false);
        });

        // interval = 100 searches, clusters ≥ intervals ⇒ rate 1.0.
        let mut sampled = SampledReplay::new(
            machine,
            n,
            seed,
            2,
            None,
            key,
            quick_spec(100, usize::MAX, false),
        );
        let result = sampled
            .run(searches, |k, buf| {
                t.search(k, buf, false);
            })
            .expect("not cancelled");
        assert_eq!(result.representatives, result.intervals);
        let r = full.replayer();
        assert_eq!(result.stats.counters.l1_misses, r.l1_stats().misses());
        assert_eq!(result.stats.counters.memory_cycles, r.memory_cycles());
        assert_eq!(result.stats.counters.insts, r.insts());
        assert_eq!(
            result.avg_us_per_search(&machine).to_bits(),
            full.avg_us_per_search().to_bits(),
        );
    }

    #[test]
    fn sampled_estimate_tracks_ground_truth_on_fig5_searches() {
        let machine = MachineConfig::ultrasparc_e5000();
        // Sampling's regime: a working set several times L2 (4 MB tree
        // vs 1 MB L2) and a trace long enough that steady-state misses
        // dwarf the one-time cold misses no warmed representative can
        // reproduce. Small fits-in-L2 trees make l2_misses nearly all
        // compulsory — not an extrapolatable quantity at any rate.
        let (n, seed, searches) = (131_071u64, 7u64, 160_000u64);
        let t = build_bst(&machine, n, spec());
        let key = spec().fold_key(TraceKey::new("sampled-truth"));
        let mut sampled = SampledReplay::new(
            machine,
            n,
            seed,
            2,
            None,
            key,
            SampledSpec {
                interval_searches: 4000,
                probe_shift: 3,
                retain_bytes: 1 << 20,
                ground_truth: true,
                sample: SampleConfig::default(),
            },
        );
        let result = sampled
            .run(searches, |k, buf| {
                t.search(k, buf, false);
            })
            .expect("not cancelled");
        let report = result.error.expect("ground truth requested");
        assert!(
            report.max_error_pct <= 2.0,
            "extrapolation error {:.3}% on {} (gate 2%)",
            report.max_error_pct,
            report.worst,
        );
        assert_eq!(result.stats.coverage_pct, 100.0);
        assert!(result.representatives < result.intervals);
    }

    #[test]
    fn sampled_results_are_cached_and_round_trip_byte_stably() {
        let machine = MachineConfig::ultrasparc_e5000();
        let (n, seed, searches) = (511u64, 3u64, 2_000u64);
        let t = build_bst(&machine, n, spec());
        let key = spec().fold_key(TraceKey::new("sampled-cache"));
        let store = TraceStore::default();
        let run = |store: &TraceStore, calls: &mut u64| {
            let mut sampled = SampledReplay::new(
                machine,
                n,
                seed,
                1,
                Some(store),
                key,
                quick_spec(250, 2, false),
            );
            sampled
                .run(searches, |k, buf| {
                    *calls += 1;
                    t.search(k, buf, false);
                })
                .expect("not cancelled")
        };
        let (mut cold_calls, mut warm_calls) = (0, 0);
        let cold = run(&store, &mut cold_calls);
        assert!(!cold.from_cache);
        assert!(cold_calls > 0, "a cold run must search");
        let warm = run(&store, &mut warm_calls);
        assert!(warm.from_cache, "second run must be served from cache");
        // Callers (cc-serve) build their tree inside the search closure,
        // so a warm sampled cache must never call it.
        assert_eq!(warm_calls, 0, "a warm cache called the search closure");
        assert_eq!(warm.stats, cold.stats);
        assert_eq!(store.counters().sampled_hits, 1);
        // Byte stability: encoding the warm result reproduces the cached
        // bytes exactly.
        assert_eq!(warm.encode_compact(), cold.encode_compact());
        let decoded = SampledResult::decode_compact(&cold.encode_compact()).expect("round trip");
        assert_eq!(decoded.stats, cold.stats);
    }

    #[test]
    fn cancel_hook_stops_the_run() {
        let machine = MachineConfig::ultrasparc_e5000();
        let t = build_bst(&machine, 255, spec());
        let key = spec().fold_key(TraceKey::new("sampled-cancel"));
        let mut sampled =
            SampledReplay::new(machine, 255, 1, 1, None, key, quick_spec(100, 2, false));
        let cancel = || true;
        sampled.cancel_with(&cancel);
        let out = sampled.run(1000, |k, buf| {
            t.search(k, buf, false);
        });
        assert_eq!(out, Err(Cancelled));
    }
}
