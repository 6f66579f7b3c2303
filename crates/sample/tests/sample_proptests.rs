//! Contract properties for the sampled-simulation pipeline:
//!
//! * determinism — the whole pipeline (fingerprint → cluster → replay →
//!   extrapolate) is a pure function of (trace, seed, config);
//! * sample rate 1.0 — a plan in which every interval is its own
//!   representative replays the full trace on one persistent replayer
//!   and must reproduce full-replay engine counters *bit-identically*;
//! * sampled estimates stay plausible — coverage 100 and every weighted
//!   counter within the weights' reach — for arbitrary phase mixes.

use std::collections::BTreeSet;
use std::sync::Arc;

use cc_sample::{cluster, extrapolate, replay_full, replay_representatives};
use cc_sample::{SampleConfig, SamplePlan, Signature};
use cc_sim::{Event, MachineConfig, TraceBuf};
use proptest::prelude::*;

/// Decodes a word list into a phase schedule: each word contributes one
/// interval drawn from one of four synthetic phases (tight loop, wide
/// scan, strided writes, mixed), so arbitrary inputs exercise arbitrary
/// phase sequences.
fn interval_bufs(phase_word: u64, i: usize) -> Arc<Vec<TraceBuf>> {
    let phase = phase_word % 4;
    let mut b = TraceBuf::with_capacity(256);
    let mut bufs = Vec::new();
    let push = |b: &mut TraceBuf, bufs: &mut Vec<TraceBuf>, ev: Event| {
        if b.is_full() {
            bufs.push(std::mem::replace(b, TraceBuf::with_capacity(256)));
        }
        b.push(ev);
    };
    for j in 0..300u64 {
        let ev = match phase {
            0 => Event::load(0x1000 + (j * 8) % 512, 8),
            1 => Event::load(0x20_0000 + (j * 320) % 65_536, 8),
            2 => Event::store(0x48_0000 + (j * 64) % 8192, 8),
            _ => {
                if j % 3 == 0 {
                    Event::store(0x1000 + (j * 24) % 2048, 8)
                } else {
                    Event::load(0x60_0000 + (j * 128) % 16_384, 8)
                }
            }
        };
        push(&mut b, &mut bufs, ev);
        if b.can_fold_ticks(2) {
            b.push_ticks(2);
        }
    }
    // A per-interval salt load keeps equal-phase intervals from being
    // literally identical buffers.
    push(
        &mut b,
        &mut bufs,
        Event::load(0x1000 + (i as u64 % 7) * 64, 8),
    );
    bufs.push(b);
    Arc::new(bufs)
}

fn pipeline(
    phases: &[u64],
    cfg: &SampleConfig,
    shards: usize,
) -> (SamplePlan, cc_sample::SampledStats) {
    let sigs: Vec<Signature> = phases
        .iter()
        .enumerate()
        .map(|(i, &w)| Signature::from_bufs(&interval_bufs(w, i), cfg.stride_shift))
        .collect();
    let plan = cluster(&sigs, cfg);
    let machine = MachineConfig::test_tiny();
    let mut provider = |i: usize| interval_bufs(phases[i], i);
    let replay = replay_representatives(
        &machine,
        shards,
        &plan,
        &sigs,
        cfg.warmup_intervals,
        &BTreeSet::new(),
        &mut provider,
    );
    (plan.clone(), extrapolate(&plan, &replay, cfg))
}

proptest! {
    /// Same trace, seed, and config ⇒ identical plan and identical
    /// extrapolated statistics, bit for bit.
    #[test]
    fn pipeline_is_deterministic(
        phases in prop::collection::vec(any::<u64>(), 2..20),
        seed in any::<u64>(),
        clusters in 1usize..6,
    ) {
        let cfg = SampleConfig { seed, max_clusters: clusters, ..SampleConfig::default() };
        let (plan_a, stats_a) = pipeline(&phases, &cfg, 2);
        let (plan_b, stats_b) = pipeline(&phases, &cfg, 2);
        prop_assert_eq!(plan_a, plan_b);
        prop_assert_eq!(stats_a, stats_b);
    }

    /// Sample rate 1.0: a full plan's extrapolation must equal the
    /// persistent full replay exactly — same counters, no rounding, no
    /// warmup artifacts — at any shard count.
    #[test]
    fn rate_one_reproduces_full_replay_bit_identically(
        phases in prop::collection::vec(any::<u64>(), 1..12),
        shards in 1usize..5,
    ) {
        let cfg = SampleConfig::default();
        let sigs: Vec<Signature> = phases
            .iter()
            .enumerate()
            .map(|(i, &w)| Signature::from_bufs(&interval_bufs(w, i), cfg.stride_shift))
            .collect();
        let plan = SamplePlan::full(&sigs);
        let machine = MachineConfig::test_tiny();
        let mut provider = |i: usize| interval_bufs(phases[i], i);
        let (full, _) = replay_full(&machine, shards, phases.len(), &mut provider);
        // The full plan replays through the same persistent-replayer
        // path, so extrapolation weights are all exactly 1.
        let replay = cc_sample::replay::run_plan_full(&machine, shards, &plan, &mut provider);
        let stats = extrapolate(&plan, &replay, &cfg);
        prop_assert_eq!(stats.counters, full);
        prop_assert_eq!(stats.coverage_pct, 100.0);
    }

    /// Sampling an arbitrary phase mix never loses coverage and never
    /// estimates more events than the weights can reach.
    #[test]
    fn estimates_cover_everything_without_faults(
        phases in prop::collection::vec(any::<u64>(), 2..16),
        clusters in 1usize..5,
    ) {
        let cfg = SampleConfig { max_clusters: clusters, ..SampleConfig::default() };
        let (plan, stats) = pipeline(&phases, &cfg, 1);
        prop_assert_eq!(stats.coverage_pct, 100.0);
        let total: u64 = plan.weight_events.iter().sum();
        // Weighted event extrapolation reproduces the exact event total
        // up to per-cluster rounding.
        let slack = plan.representatives() as u64;
        prop_assert!(stats.counters.events.abs_diff(total) <= slack,
            "events {} vs weights {}", stats.counters.events, total);
    }
}
