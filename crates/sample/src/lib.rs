//! Representative-interval sampled simulation (cc-sample).
//!
//! Every other engine in this reproduction — scalar, batched, sharded —
//! replays a trace in full, so simulation cost scales with trace length
//! and cc-serve must refuse workloads past its replay budget. This crate
//! implements the phase-sampling alternative (after Bueno et al.,
//! "Improving the Representativeness of Simulation Intervals for the
//! Cache Memory System"): most programs cycle through a small set of
//! *phases*, so a handful of representative intervals, replayed exactly
//! and weighted by how much of the trace each phase covers, recovers
//! full-replay statistics to within a small measured error.
//!
//! The pipeline is four stages, one module each:
//!
//! 1. **Fingerprint** ([`signature`]) — slice the packed [`TraceBuf`](cc_sim::TraceBuf)
//!    stream into fixed-size intervals and reduce each to a cheap
//!    [`Signature`]: a bucketed block-address footprint vector plus a
//!    read/write mix, streamed straight off the packed lanes with no
//!    simulation. When a prior attributed replay exists, cc-obs
//!    [`MissProfile`](cc_obs::MissProfile) per-region miss tallies can be
//!    folded in ([`Signature::attach_regions`]) to sharpen the phase
//!    distance with *measured* miss behaviour.
//! 2. **Cluster** ([`cluster`](mod@cluster)) — group the signatures k-medoids-style
//!    with a deterministic seeded init: same seed and config, same plan,
//!    bit for bit.
//! 3. **Replay representatives** ([`replay`]) — each cluster's medoid
//!    interval is replayed through the existing sharded engine behind a
//!    *warmup window*: the preceding interval(s) run unmeasured to load
//!    cache and TLB contents, statistics reset, then the representative
//!    runs measured. A poisoned representative (fault injection) degrades
//!    to a neighbouring-interval fallback with counters — never a silent
//!    wrong number.
//! 4. **Extrapolate** ([`extrapolate`](mod@extrapolate)) — weight each representative's
//!    [`Counters`] by its cluster's share of trace events, and report
//!    per-counter error against an optional full-replay ground truth.
//!
//! Cost therefore scales with *phase diversity* (clusters × interval
//! size), not trace length — the first engine here for which a 100×
//! longer trace of the same program costs roughly the same to simulate.
//!
//! Sample rate 1.0 (every interval its own representative,
//! [`SamplePlan::full`]) is special-cased to a single persistent replayer
//! with no warmup or resets, which *is* the full sharded replay — the
//! proptests pin that it reproduces full-replay statistics bit-identically.

pub mod cluster;
pub mod extrapolate;
pub mod replay;
pub mod signature;

pub use cluster::{cluster, SamplePlan};
pub use extrapolate::{
    error_report, extrapolate, CounterError, Counters, ErrorReport, SampledStats,
};
pub use replay::{replay_full, replay_representatives, PlanReplay, RepOutcome, SampleDegradation};
pub use signature::{slice_intervals, Signature, FOOTPRINT_BUCKETS};

/// Tuning knobs for the whole pipeline. [`SampleConfig::default`] is the
/// calibrated operating point the engine benchmark gates at ≤2% max
/// extrapolation error on the fig5 reference workloads.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SampleConfig {
    /// Upper bound on clusters (= representatives replayed). Clamped to
    /// the interval count; equality means full replay.
    pub max_clusters: usize,
    /// Intervals replayed unmeasured before each representative to load
    /// cache/TLB contents. Zero measures cold-start bias instead of
    /// steady state — only useful for studying the bias itself. The
    /// default of two is what the calibration sweep needs to hold
    /// residual cold-start error on `l2_misses` under the 2% gate for
    /// working sets several times the L2 capacity.
    pub warmup_intervals: usize,
    /// Seed for the k-medoids init. Folded nowhere else: two runs with
    /// the same seed and config produce identical plans.
    pub seed: u64,
    /// Refinement sweep cap for the k-medoids loop.
    pub max_iters: usize,
    /// Fingerprint every `2^stride_shift`-th memory reference. Raising
    /// it makes fingerprinting cheaper and signatures coarser.
    pub stride_shift: u32,
    /// The calibrated error bound (percent) reported when no ground
    /// truth is available — the engine benchmark's gated operating-point
    /// error, not a guess.
    pub calibrated_error_pct: f64,
}

impl Default for SampleConfig {
    fn default() -> Self {
        SampleConfig {
            max_clusters: 8,
            warmup_intervals: 2,
            seed: 0x5A3D_1E0F,
            max_iters: 8,
            stride_shift: 2,
            calibrated_error_pct: 2.0,
        }
    }
}

impl SampleConfig {
    /// Folds every field that changes sampled results into a cache key
    /// value, so differently-configured sampled runs never collide in a
    /// result cache.
    pub fn key_fold(&self) -> u64 {
        let mut v = 0xC0FF_EE00u64;
        for part in [
            self.max_clusters as u64,
            self.warmup_intervals as u64,
            self.seed,
            self.max_iters as u64,
            u64::from(self.stride_shift),
            self.calibrated_error_pct.to_bits(),
        ] {
            // SplitMix64-style fold, matching TraceKey::fold's shape.
            v = (v ^ part)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(27);
        }
        v
    }
}
