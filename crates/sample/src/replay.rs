//! Representative replay with warmup windows and the sampler fault
//! plane.
//!
//! A representative interval cannot be replayed from a cold cache: its
//! miss counts would carry the cold-start transient instead of the
//! steady-state behaviour it stands in for. Each representative therefore
//! runs behind a *warmup window* — the immediately preceding interval(s)
//! replay unmeasured on the same fresh replayer, statistics reset
//! (cache and TLB contents persist, exactly the warm-up/steady-state
//! split the figure harness already uses), and only then does the
//! representative run measured.
//!
//! The fault plane mirrors the sharded engine's: a poisoned
//! representative's replay panics inside `catch_unwind`, degrades to a
//! deterministic *neighbouring-interval fallback* (the cluster member
//! whose signature sits closest to the lost medoid, or the adjacent
//! interval for a singleton cluster), and bumps
//! [`SampleDegradation`] counters. A representative whose fallback also
//! fails is *lost*: its cluster contributes nothing and the loss shows
//! up in coverage — degraded output is always visible, never silently
//! wrong.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use cc_sim::{MachineConfig, ShardDegradation, ShardedReplayer, TraceBuf};

use crate::cluster::SamplePlan;
use crate::extrapolate::Counters;
use crate::signature::Signature;

/// Hands out one interval's packed buffers by interval index. The driver
/// calls it for warmup windows too, so implementations must serve any
/// index below the plan's interval count (regenerating from a recorded
/// RNG checkpoint when the interval was not retained in memory).
pub type IntervalProvider<'a> = dyn FnMut(usize) -> Arc<Vec<TraceBuf>> + 'a;

/// Degradation counters for the sampler fault plane.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SampleDegradation {
    /// Representatives whose replay failed and was recovered by a
    /// neighbouring-interval fallback.
    pub fallback_representatives: u64,
    /// Representatives lost outright (fallback failed too, or no
    /// fallback existed); their clusters are absent from the estimate.
    pub lost_representatives: u64,
    /// Trace events whose cluster lost its representative — the mass
    /// missing from coverage.
    pub lost_weight_events: u64,
}

/// One successfully replayed representative.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepOutcome {
    /// Cluster ordinal this outcome speaks for.
    pub cluster: usize,
    /// Interval actually replayed (the medoid, or its fallback).
    pub interval: usize,
    /// Whether a fallback interval stood in for a failed medoid.
    pub fallback: bool,
    /// Measured engine counters for the replayed interval.
    pub counters: Counters,
}

/// The replay stage's output: one slot per cluster (None = lost), plus
/// degradation tallies for both the sampler plane and the underlying
/// shard engine.
#[derive(Clone, Debug, Default)]
pub struct PlanReplay {
    /// Cluster ordinal → outcome (None when lost to faults).
    pub reps: Vec<Option<RepOutcome>>,
    /// Sampler-plane degradation counters.
    pub degradation: SampleDegradation,
    /// Summed shard-engine degradation across every representative's
    /// replayer.
    pub shard_degradation: ShardDegradation,
}

fn merge_shard(acc: &mut ShardDegradation, d: ShardDegradation) {
    acc.worker_panics += d.worker_panics;
    acc.fallback_lanes += d.fallback_lanes;
    acc.lost_lanes += d.lost_lanes;
    acc.repaired_bufs += d.repaired_bufs;
}

/// Replays one interval behind its warmup window on a fresh replayer and
/// returns the measured counters plus the replayer's shard degradation.
fn replay_one(
    machine: &MachineConfig,
    shards: usize,
    interval: usize,
    warmup_intervals: usize,
    provider: &mut IntervalProvider<'_>,
) -> (Counters, ShardDegradation) {
    let mut r = ShardedReplayer::new(*machine, shards);
    let first_warm = interval.saturating_sub(warmup_intervals);
    for w in first_warm..interval {
        let bufs = provider(w);
        let split = r.split(&bufs);
        r.replay(&split);
    }
    r.reset_stats();
    // reset_stats clears measurement counters but the event count is
    // cumulative — snapshot and diff so warmup events never leak into
    // the measured interval's extrapolation weight.
    let warmed = Counters::from_replayer(&r);
    let bufs = provider(interval);
    let split = r.split(&bufs);
    r.replay(&split);
    (Counters::from_replayer(&r).delta(&warmed), r.degradation())
}

/// The sample-rate-1.0 path: every interval replays in trace order on
/// one persistent replayer with no warmup and no resets — this *is* the
/// full sharded replay, chunked by interval, so its counters are
/// bit-identical to replaying the whole trace at once (the proptests pin
/// this). Also the ground-truth engine for error reports.
pub fn replay_full(
    machine: &MachineConfig,
    shards: usize,
    intervals: usize,
    provider: &mut IntervalProvider<'_>,
) -> (Counters, ShardDegradation) {
    let mut r = ShardedReplayer::new(*machine, shards);
    for i in 0..intervals {
        let bufs = provider(i);
        let split = r.split(&bufs);
        r.replay(&split);
    }
    (Counters::from_replayer(&r), r.degradation())
}

/// Replays a *full* plan ([`SamplePlan::full`]) the bit-identical way:
/// one persistent replayer walks every interval in trace order — no
/// warmup, no resets — and each interval's outcome is the counter delta
/// across its replay. Extrapolation weights are exactly 1, so the
/// weighted sum telescopes back to the replayer's own totals: sample
/// rate 1.0 *is* the full sharded replay.
///
/// # Panics
///
/// Panics if `plan` is not a full plan.
pub fn run_plan_full(
    machine: &MachineConfig,
    shards: usize,
    plan: &SamplePlan,
    provider: &mut IntervalProvider<'_>,
) -> PlanReplay {
    assert!(plan.is_full(), "run_plan_full requires a rate-1.0 plan");
    let mut r = ShardedReplayer::new(*machine, shards);
    let mut out = PlanReplay::default();
    let mut before = Counters::default();
    for (c, &interval) in plan.medoids.iter().enumerate() {
        let bufs = provider(interval);
        let split = r.split(&bufs);
        r.replay(&split);
        let after = Counters::from_replayer(&r);
        out.reps.push(Some(RepOutcome {
            cluster: c,
            interval,
            fallback: false,
            counters: after.delta(&before),
        }));
        before = after;
    }
    out.shard_degradation = r.degradation();
    out
}

/// The deterministic stand-in for a failed representative: the cluster
/// member (medoid excluded) whose signature sits closest to the medoid,
/// ties to the lowest interval index; a singleton cluster falls back to
/// the adjacent interval (preceding when one exists), whose phase is the
/// best available guess for its neighbour's.
pub fn fallback_interval(plan: &SamplePlan, sigs: &[Signature], cluster: usize) -> Option<usize> {
    let medoid = plan.medoids[cluster];
    let mut best: Option<(usize, f64)> = None;
    for i in plan.members(cluster).filter(|&i| i != medoid) {
        let d = sigs[i].distance(&sigs[medoid]);
        if best.is_none_or(|(_, bd)| d < bd) {
            best = Some((i, d));
        }
    }
    best.map(|(i, _)| i).or(match medoid {
        0 if plan.intervals > 1 => Some(1),
        0 => None,
        m => Some(m - 1),
    })
}

/// Replays every cluster representative behind its warmup window.
///
/// `poison` holds cluster ordinals whose representative replay is forced
/// to fail (the cc-fault sampler plane); the driver degrades each to its
/// [`fallback_interval`] and counts what happened. Panics — injected or
/// genuine — never escape: they become fallbacks, then losses.
pub fn replay_representatives(
    machine: &MachineConfig,
    shards: usize,
    plan: &SamplePlan,
    sigs: &[Signature],
    warmup_intervals: usize,
    poison: &BTreeSet<usize>,
    provider: &mut IntervalProvider<'_>,
) -> PlanReplay {
    let mut out = PlanReplay {
        reps: Vec::with_capacity(plan.medoids.len()),
        ..PlanReplay::default()
    };
    for (c, &medoid) in plan.medoids.iter().enumerate() {
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            assert!(
                !poison.contains(&c),
                "injected sampler fault: representative {c} poisoned",
            );
            replay_one(machine, shards, medoid, warmup_intervals, provider)
        }));
        let outcome = match attempt {
            Ok((counters, shard)) => {
                merge_shard(&mut out.shard_degradation, shard);
                Some(RepOutcome {
                    cluster: c,
                    interval: medoid,
                    fallback: false,
                    counters,
                })
            }
            Err(_) => {
                let recovered = fallback_interval(plan, sigs, c).and_then(|fb| {
                    catch_unwind(AssertUnwindSafe(|| {
                        replay_one(machine, shards, fb, warmup_intervals, provider)
                    }))
                    .ok()
                    .map(|(counters, shard)| (fb, counters, shard))
                });
                match recovered {
                    Some((fb, counters, shard)) => {
                        out.degradation.fallback_representatives += 1;
                        merge_shard(&mut out.shard_degradation, shard);
                        Some(RepOutcome {
                            cluster: c,
                            interval: fb,
                            fallback: true,
                            counters,
                        })
                    }
                    None => {
                        out.degradation.lost_representatives += 1;
                        out.degradation.lost_weight_events += plan.weight_events[c];
                        None
                    }
                }
            }
        };
        out.reps.push(outcome);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cluster, extrapolate, SampleConfig};
    use cc_sim::{Event, TraceBuf};

    /// A deterministic synthetic workload with two alternating phases.
    fn interval_bufs(i: usize) -> Arc<Vec<TraceBuf>> {
        let base = if i.is_multiple_of(2) {
            0x1000u64
        } else {
            0x40_0000
        };
        let mut b = TraceBuf::with_capacity(512);
        let mut bufs = Vec::new();
        for j in 0..512u64 {
            if b.is_full() {
                bufs.push(std::mem::replace(&mut b, TraceBuf::with_capacity(512)));
            }
            b.push(Event::load(base + (j * 24) % 4096, 8));
            b.push_ticks(2);
        }
        bufs.push(b);
        Arc::new(bufs)
    }

    fn sigs(n: usize) -> Vec<Signature> {
        (0..n)
            .map(|i| Signature::from_bufs(&interval_bufs(i), 0))
            .collect()
    }

    #[test]
    fn poisoned_representative_degrades_to_a_counted_fallback() {
        let machine = MachineConfig::ultrasparc_e5000();
        let sigs = sigs(8);
        let cfg = SampleConfig {
            max_clusters: 2,
            ..SampleConfig::default()
        };
        let plan = cluster::cluster(&sigs, &cfg);
        let mut provider = |i: usize| interval_bufs(i);
        let poison: BTreeSet<usize> = [0usize].into_iter().collect();
        // Silence the injected panic's default stderr report, repo-wide
        // fault-test convention.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let replay = replay_representatives(&machine, 2, &plan, &sigs, 1, &poison, &mut provider);
        std::panic::set_hook(prev);
        assert_eq!(replay.degradation.fallback_representatives, 1);
        assert_eq!(replay.degradation.lost_representatives, 0);
        let rep = replay.reps[0].as_ref().expect("fallback recovered");
        assert!(rep.fallback);
        assert_ne!(rep.interval, plan.medoids[0]);
        // The fallback member carries the same phase, so the estimate
        // still covers everything.
        let stats = extrapolate::extrapolate(&plan, &replay, &cfg);
        assert_eq!(stats.coverage_pct, 100.0);
    }

    #[test]
    fn unpoisoned_replay_reports_no_degradation() {
        let machine = MachineConfig::ultrasparc_e5000();
        let sigs = sigs(6);
        let cfg = SampleConfig {
            max_clusters: 3,
            ..SampleConfig::default()
        };
        let plan = cluster::cluster(&sigs, &cfg);
        let mut provider = |i: usize| interval_bufs(i);
        let replay = replay_representatives(
            &machine,
            1,
            &plan,
            &sigs,
            1,
            &BTreeSet::new(),
            &mut provider,
        );
        assert_eq!(replay.degradation, SampleDegradation::default());
        assert!(replay.reps.iter().all(|r| r.is_some()));
    }
}
