//! Request execution: the four worker-served operations.
//!
//! Each op is a pure function of its parameters (plus the shared
//! [`TraceStore`], which is proven not to change results), so success
//! replies are deterministic and byte-stable — the property the chaos
//! harness pins when it asserts a poisoned neighbour session cannot
//! change a clean session's bytes.
//!
//! Robustness and cost hooks threaded through the ops:
//!
//! * **Deadlines** — [`Gate::check`] is called between replay segments
//!   (cooperative cancellation; a segment is the unit of preemption).
//! * **Budget admission** — a `simulate`/`morph` workload whose estimated
//!   event count exceeds the full-replay budget is answered by
//!   *representative-interval sampled simulation* (`sampled: true` in
//!   the reply, with coverage/confidence/error-bound fields) instead of
//!   being refused; only workloads past the far larger sampled budget
//!   still get the typed `over_budget` refusal, instead of being
//!   allowed to starve other sessions.
//! * **Store quota** — each session may charge at most
//!   `store_quota_bytes` of generated trace into the shared cache tier;
//!   past that its requests still run, but bypass the store
//!   (`serve.store.quota_bypasses`), so one tenant cannot evict the
//!   tier out from under the others.
//! * **Cache hits build nothing** — `simulate` and the layout `morph`
//!   build their search tree on the first search a trace-store or
//!   sampled-cache miss records, so a warm request skips tree
//!   construction as well as traversal (the tree is a pure function of
//!   its recipe, so replies do not change).
//! * **Field-morph legs side by side** — a field-transform `morph` runs
//!   its AoS leg on the worker thread and its transformed leg on a
//!   scoped thread; both poll the same [`Gate`], and the reply is built
//!   from the two legs exactly as when they ran one after the other.
//! * **Chaos** — when (and only when) the server was started with
//!   `allow_chaos`, a request may carry `chaos_panic` /
//!   `chaos_panic_mid` to detonate the worker at a chosen point; the
//!   harness uses this to prove panic isolation.

use crate::json::Json;
use crate::proto::ErrorKind;
use cc_bench::field::{run_field_leg, FieldCase, FieldLegStats};
use cc_bench::replay::{build_bst, SearchReplay, TreeSpec, SEG_CAP};
use cc_bench::sample::{Cancelled, SampledReplay, SampledSpec};
use cc_sim::MachineConfig;
use cc_sweep::{TraceKey, TraceStore};
use std::cell::OnceCell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Admission limits for worker-served requests.
#[derive(Clone, Copy, Debug)]
pub struct ServeLimits {
    /// Largest tree (`keys`) a request may build.
    pub max_keys: u64,
    /// Full-replay budget: the estimated event count above which a
    /// request is answered by sampled simulation instead of full replay.
    pub max_replay_events: u64,
    /// Sampled-simulation budget: the estimated event count above which
    /// even a sampled request is refused with `over_budget`. The default
    /// is 1000× the full-replay budget — sampled cost scales with phase
    /// diversity, not trace length, so the ceiling guards fingerprinting
    /// cost, not replay cost.
    pub max_sampled_events: u64,
    /// Largest accepted `shards` parameter.
    pub max_shards: u64,
    /// Largest accepted `lint` source, in bytes.
    pub max_lint_bytes: usize,
    /// Largest accepted audit scenario size.
    pub max_audit_n: u64,
    /// Per-session byte quota on traces generated into the shared store.
    pub store_quota_bytes: u64,
}

impl Default for ServeLimits {
    fn default() -> Self {
        ServeLimits {
            max_keys: 1 << 20,
            // The roadmap's "~2.4M events max" full-replay ceiling.
            max_replay_events: 2_400_000,
            max_sampled_events: 2_400_000_000,
            max_shards: 8,
            max_lint_bytes: 256 << 10,
            max_audit_n: 1 << 16,
            store_quota_bytes: 64 << 20,
        }
    }
}

/// Per-session tenant state shared between the session thread and the
/// workers serving its requests.
#[derive(Debug, Default)]
pub struct SessionCtx {
    /// Bytes of generated trace charged against the store quota.
    pub store_bytes: AtomicU64,
    /// Requests from this session that ended in a worker panic.
    pub degraded_requests: AtomicU64,
}

/// Cooperative cancellation: a deadline plus the server-wide drain flag,
/// checked between replay segments.
#[derive(Clone)]
pub struct Gate {
    /// When this request must be finished.
    pub deadline: Instant,
    /// Set when drain has given up on in-flight work.
    pub cancel: Arc<AtomicBool>,
}

impl Gate {
    /// A gate that can only expire by deadline.
    pub fn with_deadline(deadline: Instant) -> Gate {
        Gate {
            deadline,
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Errors with the typed kind when the request should stop now.
    pub fn check(&self) -> Result<(), (ErrorKind, String)> {
        if self.cancel.load(Ordering::Relaxed) {
            return Err((
                ErrorKind::DeadlineExceeded,
                "cancelled: server drain deadline passed with this request in flight".into(),
            ));
        }
        if Instant::now() >= self.deadline {
            return Err((
                ErrorKind::DeadlineExceeded,
                "deadline exceeded during replay (cooperative cancellation between segments)"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// Shorthand for op outcomes.
pub type OpResult = Result<Json, (ErrorKind, String)>;

fn bad(msg: impl Into<String>) -> (ErrorKind, String) {
    (ErrorKind::BadRequest, msg.into())
}

/// Reads an optional `u64` parameter with a default.
fn param_u64(params: &Json, key: &str, default: u64) -> Result<u64, (ErrorKind, String)> {
    match params.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| bad(format!("`{key}` must be a non-negative integer"))),
    }
}

fn param_str<'a>(params: &'a Json, key: &str) -> Result<Option<&'a str>, (ErrorKind, String)> {
    match params.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| bad(format!("`{key}` must be a string"))),
    }
}

fn param_flag(params: &Json, key: &str) -> bool {
    params.get(key).and_then(Json::as_bool).unwrap_or(false)
}

/// Tree depth in levels: the per-search memory-reference estimate the
/// budget admission uses.
fn levels(keys: u64) -> u64 {
    64 - keys.leading_zeros() as u64
}

/// Estimated replay events for a search workload — used for both the
/// budget gate and the store-quota charge. Deliberately simple and
/// documented rather than exact: one node visit per tree level plus
/// instruction overhead per search.
pub fn estimate_events(keys: u64, searches: u64) -> u64 {
    searches.saturating_mul(levels(keys) + 2)
}

/// `TraceBuf` bytes per packed event (`approx_bytes` per entry: 8-byte
/// address lane + two 4-byte lanes + 1 kind byte).
///
/// Search traces are recorded folded — each node's instruction and
/// branch events ride in the load entry's tick lane — so a stored search
/// trace holds about one entry per three events, and this charge
/// over-estimates its real bytes about 3x. It is deliberately kept at
/// the unfolded 17 so quota admission (which requests go through the
/// shared store) keeps the calibration it was tuned with. `health`'s
/// `store.resident_bytes` measures the real bytes (about a third of this
/// estimate), and `store.evictions` reads lower for the same traffic.
const BYTES_PER_EVENT: u64 = 17;

/// The parameters of one replay run, shared by `simulate` and `morph`.
/// Field order is cc-lint's: the wide members lead so `tag` stays within
/// one 64-byte line (SPAN-01).
struct ReplaySpec {
    spec: TreeSpec,
    tag: &'static str,
    keys: u64,
    searches: u64,
    seed: u64,
    shards: u64,
}

/// Everything an op needs from the server.
pub struct OpEnv<'a> {
    /// The shared cache tier.
    pub store: &'a TraceStore,
    /// Admission limits.
    pub limits: &'a ServeLimits,
    /// The requesting session's tenant state.
    pub session: &'a SessionCtx,
    /// Deadline/drain gate.
    pub gate: &'a Gate,
    /// Whether chaos parameters are honored.
    pub allow_chaos: bool,
    /// Bumped when this request bypasses the store for quota.
    pub quota_bypass: &'a dyn Fn(),
}

/// Maps a layout name to the fig5 recipe.
fn layout_spec(name: &str, layout_seed: u64) -> Result<TreeSpec, (ErrorKind, String)> {
    Ok(match name {
        "allocation" => TreeSpec {
            randomize: None,
            depth_first: false,
            morph: false,
        },
        "random" => TreeSpec {
            randomize: Some(layout_seed),
            depth_first: false,
            morph: false,
        },
        "dfs" => TreeSpec {
            randomize: Some(layout_seed),
            depth_first: true,
            morph: false,
        },
        "ctree" => TreeSpec {
            randomize: Some(layout_seed),
            depth_first: false,
            morph: true,
        },
        other => {
            return Err(bad(format!(
                "unknown layout `{other}` (expected allocation|random|dfs|ctree)"
            )))
        }
    })
}

/// Searches per sampling interval on the serve path. Fixed (not a
/// request parameter) so equal workloads always share cache keys and
/// reply bytes.
pub const SAMPLE_INTERVAL_SEARCHES: u64 = 2048;

/// The chaos switches a request may carry (honored only under
/// `--allow-chaos`).
struct ChaosPlan {
    /// Panic mid-request, after at least one segment/interval ran.
    panic_mid: bool,
    /// Poison the first `sample_poison` cluster representatives of a
    /// sampled replay — the cc-fault sampler plane, reachable from the
    /// wire for the chaos harness.
    sample_poison: u64,
}

/// Runs one replay under the gate, returning the stats object. `over`
/// divides both event budgets — `morph` passes 2 because it replays the
/// workload twice on one request.
fn run_replay(env: &OpEnv<'_>, r: &ReplaySpec, chaos: &ChaosPlan, over: u64) -> OpResult {
    let machine = MachineConfig::ultrasparc_e5000();
    let est_events = estimate_events(r.keys, r.searches);
    if est_events > env.limits.max_replay_events / over.max(1) {
        return run_sampled(env, r, chaos, over, est_events);
    }
    let chaos_mid = chaos.panic_mid;

    // Store-quota admission: a tenant past its generated-bytes quota
    // keeps full service, but stops charging the shared tier.
    let est_bytes = est_events.saturating_mul(BYTES_PER_EVENT);
    let prior = env
        .session
        .store_bytes
        .fetch_add(est_bytes, Ordering::Relaxed);
    let use_store = prior + est_bytes <= env.limits.store_quota_bytes;
    if !use_store {
        (env.quota_bypass)();
    }
    let store = use_store.then_some(env.store);

    // Built on the first search a store miss records: a warm store never
    // calls the search closure, so a hit builds no tree.
    let tree = OnceCell::new();
    let key = r.spec.fold_key(TraceKey::new(r.tag));
    let mut replay = SearchReplay::new(machine, r.keys, r.seed, r.shards as usize, store, key);
    let mut done = 0u64;
    while done < r.searches {
        env.gate.check()?;
        done = (done + SEG_CAP).min(r.searches);
        replay.advance_to(done, |k, buf| {
            tree.get_or_init(|| build_bst(&machine, r.keys, r.spec))
                .search(k, buf, false);
        });
        if chaos_mid {
            // Mid-request: at least one segment's worth of replay state
            // exists (and shared-store writes may already be issued)
            // when the worker dies.
            panic!("chaos: injected mid-request worker panic");
        }
    }
    env.gate.check()?;

    let deg = replay.degradation();
    let rep = replay.replayer();
    Ok(Json::obj([
        ("searches", Json::Uint(r.searches)),
        ("keys", Json::Uint(r.keys)),
        ("shards", Json::Uint(rep.shards() as u64)),
        ("events", Json::Uint(rep.events())),
        ("insts", Json::Uint(rep.insts())),
        ("memory_cycles", Json::Uint(rep.memory_cycles())),
        ("avg_us_per_search", Json::Float(replay.avg_us_per_search())),
        (
            "l1",
            Json::obj([
                ("hits", Json::Uint(rep.l1_stats().hits())),
                ("misses", Json::Uint(rep.l1_stats().misses())),
            ]),
        ),
        (
            "l2",
            Json::obj([
                ("hits", Json::Uint(rep.l2_stats().hits())),
                ("misses", Json::Uint(rep.l2_stats().misses())),
            ]),
        ),
        (
            "tlb",
            Json::obj([
                ("accesses", Json::Uint(rep.tlb_stats().accesses())),
                ("misses", Json::Uint(rep.tlb_stats().misses())),
            ]),
        ),
        (
            "degraded",
            Json::obj([
                ("worker_panics", Json::Uint(deg.worker_panics)),
                ("fallback_lanes", Json::Uint(deg.fallback_lanes)),
                ("lost_lanes", Json::Uint(deg.lost_lanes)),
                ("repaired_bufs", Json::Uint(deg.repaired_bufs)),
            ]),
        ),
        ("sampled", Json::Bool(false)),
        ("shared_store", Json::Bool(use_store)),
    ]))
}

/// Answers an over-full-budget replay by representative-interval sampled
/// simulation (cc-sample via [`SampledReplay`]): fingerprint-cluster the
/// interval stream, replay only cluster representatives behind warmup
/// windows, extrapolate, and report coverage/confidence/error-bound
/// alongside the usual stats. Results are cached in the store's sampled
/// side cache keyed by workload *and* sampling configuration, so a warm
/// server answers without generating a single event. Success replies
/// stay deterministic and byte-stable: the sampling pipeline is
/// seeded-deterministic, the reply carries no cache-provenance field,
/// and a decoded cache hit reproduces the cold reply's bytes.
fn run_sampled(
    env: &OpEnv<'_>,
    r: &ReplaySpec,
    chaos: &ChaosPlan,
    over: u64,
    est_events: u64,
) -> OpResult {
    if est_events > env.limits.max_sampled_events / over.max(1) {
        return Err((
            ErrorKind::OverBudget,
            format!(
                "estimated {est_events} replay events exceed even the sampled-simulation \
                 budget of {} — sampled capacity is bounded by the fingerprint pass \
                 (\"Improving the Representativeness of Simulation Intervals for the \
                 Cache Memory System\", PAPERS.md)",
                env.limits.max_sampled_events
            ),
        ));
    }

    // No store-quota charge: a sampled run writes a <1 KB result into
    // the sampled side cache, never generated-trace bytes.
    let machine = MachineConfig::ultrasparc_e5000();
    // Built lazily, as in `run_replay`: a sampled-cache hit returns
    // before its first search and builds no tree.
    let tree = OnceCell::new();
    let key = r.spec.fold_key(TraceKey::new(r.tag));
    let spec = SampledSpec {
        interval_searches: SAMPLE_INTERVAL_SEARCHES,
        ..SampledSpec::default()
    };
    let mut replay = SampledReplay::new(
        machine,
        r.keys,
        r.seed,
        r.shards as usize,
        Some(env.store),
        key,
        spec,
    );
    if chaos.sample_poison > 0 {
        replay.poison((0..chaos.sample_poison as usize).collect::<BTreeSet<_>>());
    }
    // The cancel hook doubles as the mid-request chaos trigger: polled
    // between intervals, so the panic fires with fingerprint state (and
    // possibly store writes) in flight — the same "at least one
    // segment ran" point the full path detonates at.
    let polls = AtomicU64::new(0);
    let cancel = || {
        if chaos.panic_mid && polls.fetch_add(1, Ordering::Relaxed) == 1 {
            panic!("chaos: injected mid-request worker panic");
        }
        env.gate.check().is_err()
    };
    replay.cancel_with(&cancel);
    let result = replay.run(r.searches, |k, buf| {
        tree.get_or_init(|| build_bst(&machine, r.keys, r.spec))
            .search(k, buf, false);
    });
    let result = match result {
        Ok(result) => result,
        Err(Cancelled) => {
            return Err(env.gate.check().expect_err("sampled replay cancelled"));
        }
    };
    let c = &result.stats.counters;
    Ok(Json::obj([
        ("searches", Json::Uint(r.searches)),
        ("keys", Json::Uint(r.keys)),
        ("shards", Json::Uint(r.shards)),
        ("events", Json::Uint(c.events)),
        ("insts", Json::Uint(c.insts)),
        ("memory_cycles", Json::Uint(c.memory_cycles)),
        (
            "avg_us_per_search",
            Json::Float(result.avg_us_per_search(&machine)),
        ),
        (
            "l1",
            Json::obj([
                (
                    "hits",
                    Json::Uint(c.l1_accesses.saturating_sub(c.l1_misses)),
                ),
                ("misses", Json::Uint(c.l1_misses)),
            ]),
        ),
        (
            "l2",
            Json::obj([
                (
                    "hits",
                    Json::Uint(c.l2_accesses.saturating_sub(c.l2_misses)),
                ),
                ("misses", Json::Uint(c.l2_misses)),
            ]),
        ),
        (
            "tlb",
            Json::obj([
                ("accesses", Json::Uint(c.tlb_accesses)),
                ("misses", Json::Uint(c.tlb_misses)),
            ]),
        ),
        ("sampled", Json::Bool(true)),
        (
            "sample",
            Json::obj([
                ("intervals", Json::Uint(result.intervals as u64)),
                ("representatives", Json::Uint(result.representatives as u64)),
                ("interval_searches", Json::Uint(result.interval_searches)),
                ("coverage_pct", Json::Float(result.stats.coverage_pct)),
                ("confidence_pct", Json::Float(result.stats.confidence_pct)),
                ("error_bound_pct", Json::Float(result.stats.error_bound_pct)),
                (
                    "fallback_representatives",
                    Json::Uint(result.degradation.fallback_representatives),
                ),
                (
                    "lost_representatives",
                    Json::Uint(result.degradation.lost_representatives),
                ),
            ]),
        ),
        ("shared_store", Json::Bool(true)),
    ]))
}

fn replay_params(
    env: &OpEnv<'_>,
    params: &Json,
    tag: &'static str,
) -> Result<ReplaySpec, (ErrorKind, String)> {
    let keys = param_u64(params, "keys", 4095)?;
    if keys == 0 || keys > env.limits.max_keys {
        return Err(bad(format!(
            "`keys` must be in 1..={}",
            env.limits.max_keys
        )));
    }
    let searches = param_u64(params, "searches", 20_000)?;
    if searches == 0 {
        return Err(bad("`searches` must be positive"));
    }
    let shards = param_u64(params, "shards", 1)?;
    if shards == 0 || shards > env.limits.max_shards {
        return Err(bad(format!(
            "`shards` must be in 1..={}",
            env.limits.max_shards
        )));
    }
    let seed = param_u64(params, "seed", 0x51EE7)?;
    let layout_seed = param_u64(params, "layout_seed", 0xA11)?;
    let layout = param_str(params, "layout")?.unwrap_or("random");
    Ok(ReplaySpec {
        keys,
        searches,
        seed,
        shards,
        spec: layout_spec(layout, layout_seed)?,
        tag,
    })
}

/// Honors chaos parameters when allowed; refuses them otherwise so a
/// production server cannot be detonated from the wire. Returns the
/// remaining [`ChaosPlan`] after applying `chaos_panic` (panic now) and
/// `chaos_sleep_ms` (a gate-checked stall, used by tests to fill the
/// admission queue and exercise deadlines deterministically);
/// `chaos_panic_mid` and `chaos_sample_poison` detonate later, inside
/// the replay they target.
fn chaos_prelude(env: &OpEnv<'_>, params: &Json) -> Result<ChaosPlan, (ErrorKind, String)> {
    let now = param_flag(params, "chaos_panic");
    let mid = param_flag(params, "chaos_panic_mid");
    let sample_poison = param_u64(params, "chaos_sample_poison", 0)?;
    let sleep_ms = param_u64(params, "chaos_sleep_ms", 0)?;
    if (now || mid || sample_poison > 0 || sleep_ms > 0) && !env.allow_chaos {
        return Err(bad(
            "chaos parameters are refused unless the server runs with --allow-chaos",
        ));
    }
    if now {
        panic!("chaos: injected worker panic at request start");
    }
    let until = Instant::now() + std::time::Duration::from_millis(sleep_ms);
    while Instant::now() < until {
        env.gate.check()?;
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    Ok(ChaosPlan {
        panic_mid: mid,
        sample_poison,
    })
}

/// `simulate`: one replay of a tree-search workload.
pub fn simulate(env: &OpEnv<'_>, params: &Json) -> OpResult {
    let chaos = chaos_prelude(env, params)?;
    let spec = replay_params(env, params, "serve-simulate")?;
    run_replay(env, &spec, &chaos, 1)
}

/// `morph`: replay the same workload on the unorganized layout and on
/// the ccmorph C-tree, and report the predicted deltas.
///
/// With a `transform` parameter (`reorder` | `hot_cold` | `soa`) the op
/// compares *field-level* layouts instead: the AoS fat-node tree versus
/// the requested cc-core field transform, both legs run with field
/// attribution so the reply carries per-field before/after miss counts
/// alongside the usual predicted deltas.
pub fn morph(env: &OpEnv<'_>, params: &Json) -> OpResult {
    let chaos = chaos_prelude(env, params)?;
    if let Some(name) = param_str(params, "transform")? {
        return field_morph(env, params, name, &chaos);
    }
    let mut base = replay_params(env, params, "serve-morph")?;
    base.spec.morph = false;
    let mut morphed = replay_params(env, params, "serve-morph")?;
    morphed.spec.morph = true;

    // Both budgets cover both replays (`over = 2`): each leg flips to
    // sampled — or is refused — at half the single-replay thresholds.
    let before = run_replay(env, &base, &chaos, 2)?;
    let quiet = ChaosPlan {
        panic_mid: false,
        sample_poison: 0,
    };
    let after = run_replay(env, &morphed, &quiet, 2)?;
    let miss = |r: &Json, lvl: &str| {
        r.get(lvl)
            .and_then(|l| l.get("misses"))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let delta_pct = |b: u64, a: u64| {
        if b == 0 {
            0.0
        } else {
            (b as f64 - a as f64) / b as f64 * 100.0
        }
    };
    let us = |r: &Json| match r.get("avg_us_per_search") {
        Some(Json::Float(v)) => *v,
        _ => 0.0,
    };
    let speedup = if us(&after) > 0.0 {
        us(&before) / us(&after)
    } else {
        0.0
    };
    Ok(Json::obj([
        (
            "predicted_l1_miss_delta_pct",
            Json::Float(delta_pct(miss(&before, "l1"), miss(&after, "l1"))),
        ),
        (
            "predicted_l2_miss_delta_pct",
            Json::Float(delta_pct(miss(&before, "l2"), miss(&after, "l2"))),
        ),
        ("predicted_speedup", Json::Float(speedup)),
        ("base", before),
        ("morphed", after),
    ]))
}

/// The stats object for one leg of a field-transform comparison.
fn field_leg_json(leg: &FieldLegStats) -> Json {
    Json::obj([
        ("avg_us_per_search", Json::Float(leg.avg_us_per_search)),
        ("hot_stride", Json::Uint(leg.hot_stride)),
        (
            "l1",
            Json::obj([
                ("hits", Json::Uint(leg.l1_hits)),
                ("misses", Json::Uint(leg.l1_misses)),
            ]),
        ),
        (
            "l2",
            Json::obj([
                ("hits", Json::Uint(leg.l2_hits)),
                ("misses", Json::Uint(leg.l2_misses)),
            ]),
        ),
    ])
}

/// `morph` with `transform`: AoS baseline versus one cc-core field
/// transform on the fat-node search workload, field attribution on both
/// legs, per-field before/after miss deltas in the reply.
fn field_morph(env: &OpEnv<'_>, params: &Json, name: &str, chaos: &ChaosPlan) -> OpResult {
    let case = match name {
        "reorder" => FieldCase::Reorder,
        "hot_cold" => FieldCase::HotCold,
        "soa" => FieldCase::Soa,
        other => {
            return Err(bad(format!(
                "unknown transform `{other}` (expected reorder|hot_cold|soa)"
            )))
        }
    };
    let keys = param_u64(params, "keys", 4095)?;
    if keys == 0 || keys > env.limits.max_keys {
        return Err(bad(format!(
            "`keys` must be in 1..={}",
            env.limits.max_keys
        )));
    }
    let searches = param_u64(params, "searches", 20_000)?;
    if searches == 0 {
        return Err(bad("`searches` must be positive"));
    }
    let seed = param_u64(params, "seed", 0x51EE7)?;
    // Field-transform comparisons have no sampled fallback (the field
    // funnel needs the full per-address stream), so the full-replay
    // budget is the hard ceiling — halved, because one request runs two
    // attributed legs.
    let est_events = estimate_events(keys, searches);
    if est_events > env.limits.max_replay_events / 2 {
        return Err((
            ErrorKind::OverBudget,
            format!(
                "estimated {est_events} events per leg exceed the field-transform budget \
                 of {} (field-attributed comparisons always run the full replay — \
                 shrink `searches` or `keys`)",
                env.limits.max_replay_events / 2
            ),
        ));
    }

    // The two legs share nothing but the machine and the gate, so the
    // transformed leg runs on a scoped thread while the AoS leg runs
    // here; each polls the gate between chunks, so an expired deadline
    // or a drain stops both. The mid-request chaos switch stays on this
    // thread and detonates after the first chunk of the AoS leg,
    // matching the full path's "at least one segment ran" point; the
    // scope joins the other leg and then re-raises the original panic.
    let machine = MachineConfig::ultrasparc_e5000();
    let polls = AtomicU64::new(0);
    let base_check = || {
        if chaos.panic_mid && polls.fetch_add(1, Ordering::Relaxed) == 1 {
            panic!("chaos: injected mid-request worker panic");
        }
        env.gate.check()
    };
    let (base, after) = std::thread::scope(|s| {
        let after =
            s.spawn(|| run_field_leg(&machine, keys, case, searches, seed, || env.gate.check()));
        let base = run_field_leg(&machine, keys, FieldCase::Aos, searches, seed, base_check);
        let after = after
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        (base, after)
    });
    let (base, after) = (base?, after?);

    let delta_pct = |b: u64, a: u64| {
        if b == 0 {
            0.0
        } else {
            (b as f64 - a as f64) / b as f64 * 100.0
        }
    };
    let fields = base
        .fields
        .iter()
        .zip(after.fields.iter())
        .map(|((name, b1, b2), (_, a1, a2))| {
            Json::obj([
                ("field", Json::str(name.clone())),
                ("l1_misses_before", Json::Uint(*b1)),
                ("l1_misses_after", Json::Uint(*a1)),
                ("l1_delta_pct", Json::Float(delta_pct(*b1, *a1))),
                ("l2_misses_before", Json::Uint(*b2)),
                ("l2_misses_after", Json::Uint(*a2)),
            ])
        })
        .collect();
    let speedup = if after.avg_us_per_search > 0.0 {
        base.avg_us_per_search / after.avg_us_per_search
    } else {
        0.0
    };
    Ok(Json::obj([
        ("transform", Json::str(case.name())),
        ("keys", Json::Uint(keys)),
        ("searches", Json::Uint(searches)),
        (
            "predicted_l1_miss_delta_pct",
            Json::Float(delta_pct(base.l1_misses, after.l1_misses)),
        ),
        (
            "predicted_l2_miss_delta_pct",
            Json::Float(delta_pct(base.l2_misses, after.l2_misses)),
        ),
        ("predicted_speedup", Json::Float(speedup)),
        ("base", field_leg_json(&base)),
        ("transformed", field_leg_json(&after)),
        ("fields", Json::Arr(fields)),
        ("sampled", Json::Bool(false)),
        ("shared_store", Json::Bool(false)),
    ]))
}

/// `audit`: run the layout auditor over a named scenario.
pub fn audit(env: &OpEnv<'_>, params: &Json) -> OpResult {
    chaos_prelude(env, params)?;
    let scenario = param_str(params, "scenario")?.ok_or_else(|| {
        bad("`scenario` is required (ccmorph-tree|malloc-tree|ccmalloc-list|malloc-list)")
    })?;
    let n = param_u64(params, "n", 1023)?;
    if n == 0 || n > env.limits.max_audit_n {
        return Err(bad(format!(
            "`n` must be in 1..={}",
            env.limits.max_audit_n
        )));
    }
    env.gate.check()?;
    let input = cc_audit::scenarios::build(scenario, n as usize)
        .ok_or_else(|| bad(format!("unknown scenario `{scenario}`")))?;
    let report = cc_audit::audit(&input, &cc_audit::AuditConfig::default());
    Ok(Json::obj([
        ("scenario", Json::str(scenario)),
        ("n", Json::Uint(n)),
        ("findings", Json::Uint(report.findings.len() as u64)),
        ("errors", Json::Uint(report.error_count() as u64)),
        ("clean", Json::Bool(report.is_clean())),
        ("report", Json::Str(report.to_json())),
    ]))
}

/// `lint`: static struct-layout analysis of client-supplied source.
pub fn lint(env: &OpEnv<'_>, params: &Json) -> OpResult {
    chaos_prelude(env, params)?;
    let source = param_str(params, "source")?.ok_or_else(|| bad("`source` is required"))?;
    if source.len() > env.limits.max_lint_bytes {
        return Err(bad(format!(
            "`source` is {} bytes; the limit is {}",
            source.len(),
            env.limits.max_lint_bytes
        )));
    }
    env.gate.check()?;
    let report = cc_lint::analyze_sources(
        &[("request.rs".to_string(), source.to_string())],
        &cc_lint::HotSpec::empty(),
        &cc_lint::LintConfig::default(),
    );
    Ok(Json::obj([
        ("findings", Json::Uint(report.findings.len() as u64)),
        (
            "structs_modeled",
            Json::Uint(report.stats.structs_modeled as u64),
        ),
        (
            "structs_skipped",
            Json::Uint(report.stats.structs_skipped as u64),
        ),
        ("report", Json::Str(report.to_json())),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_sweep::StoreCounters;
    use std::time::Duration;

    fn env_parts() -> (TraceStore, ServeLimits, SessionCtx) {
        (
            TraceStore::default(),
            ServeLimits::default(),
            SessionCtx::default(),
        )
    }

    fn far_gate() -> Gate {
        Gate::with_deadline(Instant::now() + Duration::from_secs(60))
    }

    #[test]
    fn simulate_is_deterministic_across_store_and_shards() {
        let (store, limits, session) = env_parts();
        let gate = far_gate();
        let noop = || {};
        let env = OpEnv {
            store: &store,
            limits: &limits,
            session: &session,
            gate: &gate,
            allow_chaos: false,
            quota_bypass: &noop,
        };
        let params = |shards: u64| {
            Json::obj([
                ("keys", Json::Uint(1023)),
                ("searches", Json::Uint(3000)),
                ("seed", Json::Uint(7)),
                ("shards", Json::Uint(shards)),
            ])
        };
        let a = simulate(&env, &params(1)).unwrap().encode();
        let gens = store.counters().generations;
        assert!(gens > 0);
        let b = simulate(&env, &params(1)).unwrap().encode();
        assert_eq!(a, b, "same request, same bytes (warm store)");
        assert_eq!(store.counters().generations, gens, "warm run regenerated");
        // Shard count shows up only in the `shards` field; stats agree.
        let c = simulate(&env, &params(4)).unwrap();
        let a = Json::parse(&a).unwrap();
        assert_eq!(a.get("memory_cycles"), c.get("memory_cycles"));
        assert_eq!(a.get("l1"), c.get("l1"));
    }

    #[test]
    fn oversized_workload_is_refused_with_the_sampling_pointer() {
        let (store, limits, session) = env_parts();
        let gate = far_gate();
        let noop = || {};
        let env = OpEnv {
            store: &store,
            limits: &limits,
            session: &session,
            gate: &gate,
            allow_chaos: false,
            quota_bypass: &noop,
        };
        // Past even the sampled budget (200M searches × 22 events ≈
        // 4.4B estimated events > 2.4B): still a typed refusal.
        let params = Json::obj([
            ("keys", Json::Uint(1 << 19)),
            ("searches", Json::Uint(200_000_000)),
        ]);
        let (kind, msg) = simulate(&env, &params).unwrap_err();
        assert_eq!(kind, ErrorKind::OverBudget);
        assert!(
            msg.contains("Representativeness of Simulation Intervals"),
            "{msg}"
        );
    }

    #[test]
    fn over_full_budget_workload_gets_a_sampled_answer() {
        let (store, limits, session) = env_parts();
        let gate = far_gate();
        let noop = || {};
        let env = OpEnv {
            store: &store,
            limits: &limits,
            session: &session,
            gate: &gate,
            allow_chaos: false,
            quota_bypass: &noop,
        };
        // 250k searches × 10 events/search ≈ 2.5M estimated events:
        // past the 2.4M full-replay budget, well under the sampled one.
        let params = Json::obj([
            ("keys", Json::Uint(255)),
            ("searches", Json::Uint(250_000)),
            ("seed", Json::Uint(7)),
        ]);
        let a = simulate(&env, &params).unwrap();
        assert_eq!(a.get("sampled"), Some(&Json::Bool(true)));
        let sample = a.get("sample").expect("sample block");
        assert_eq!(sample.get("coverage_pct"), Some(&Json::Float(100.0)));
        let bound = match sample.get("error_bound_pct") {
            Some(Json::Float(v)) => *v,
            other => panic!("{other:?}"),
        };
        assert!(bound > 0.0, "an estimate must carry an error bound");
        assert_eq!(sample.get("fallback_representatives"), Some(&Json::Uint(0)));
        assert!(a.get("events").and_then(Json::as_u64).unwrap() > 2_400_000);
        assert_eq!(store.counters().sampled_puts, 1);

        // Warm repeat: answered from the sampled result cache, byte-stable.
        let b = simulate(&env, &params).unwrap();
        assert_eq!(
            a.encode(),
            b.encode(),
            "sampled replies must be byte-stable"
        );
        assert_eq!(store.counters().sampled_hits, 1);
        assert_eq!(store.counters().sampled_puts, 1, "warm run resampled");
        assert_eq!(store.counters().generations, 0);
    }

    #[test]
    fn chaos_sample_poison_degrades_to_fallbacks_with_counters() {
        let (store, limits, session) = env_parts();
        let gate = far_gate();
        let noop = || {};
        let env = OpEnv {
            store: &store,
            limits: &limits,
            session: &session,
            gate: &gate,
            allow_chaos: true,
            quota_bypass: &noop,
        };
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = simulate(
            &env,
            &Json::obj([
                ("keys", Json::Uint(255)),
                ("searches", Json::Uint(250_000)),
                ("seed", Json::Uint(7)),
                ("chaos_sample_poison", Json::Uint(2)),
            ]),
        )
        .unwrap();
        std::panic::set_hook(prev);
        assert_eq!(r.get("sampled"), Some(&Json::Bool(true)));
        let sample = r.get("sample").expect("sample block");
        let fallbacks = sample
            .get("fallback_representatives")
            .and_then(Json::as_u64)
            .unwrap();
        assert!(
            fallbacks >= 1,
            "poisoned representatives must degrade to counted fallbacks: {sample:?}"
        );
        // Faulted runs bypass the result cache in both directions.
        assert_eq!(store.counters().sampled_puts, 0);
    }

    #[test]
    fn expired_gate_cancels_between_segments() {
        let (store, limits, session) = env_parts();
        let gate = Gate::with_deadline(Instant::now() - Duration::from_millis(1));
        let noop = || {};
        let env = OpEnv {
            store: &store,
            limits: &limits,
            session: &session,
            gate: &gate,
            allow_chaos: false,
            quota_bypass: &noop,
        };
        let params = Json::obj([("keys", Json::Uint(255)), ("searches", Json::Uint(100))]);
        let (kind, _) = simulate(&env, &params).unwrap_err();
        assert_eq!(kind, ErrorKind::DeadlineExceeded);
    }

    #[test]
    fn quota_exhaustion_bypasses_the_store_but_keeps_results_identical() {
        let (store, mut limits, session) = env_parts();
        limits.store_quota_bytes = 1; // any request is over quota
        let gate = far_gate();
        let bypasses = AtomicU64::new(0);
        let on_bypass = || {
            bypasses.fetch_add(1, Ordering::Relaxed);
        };
        let env = OpEnv {
            store: &store,
            limits: &limits,
            session: &session,
            gate: &gate,
            allow_chaos: false,
            quota_bypass: &on_bypass,
        };
        let params = Json::obj([("keys", Json::Uint(511)), ("searches", Json::Uint(2000))]);
        let over = simulate(&env, &params).unwrap();
        assert_eq!(over.get("shared_store"), Some(&Json::Bool(false)));
        assert_eq!(bypasses.load(Ordering::Relaxed), 1);
        assert_eq!(
            store.counters(),
            StoreCounters::default(),
            "store untouched"
        );

        // An in-quota tenant gets byte-identical simulation results.
        let session2 = SessionCtx::default();
        let limits2 = ServeLimits::default();
        let env2 = OpEnv {
            store: &store,
            limits: &limits2,
            session: &session2,
            gate: &gate,
            allow_chaos: false,
            quota_bypass: &on_bypass,
        };
        let under = simulate(&env2, &params).unwrap();
        assert!(store.counters().generations > 0);
        let mut fields = over.as_obj().unwrap().clone();
        fields.insert("shared_store".into(), Json::Bool(true));
        assert_eq!(Json::Obj(fields).encode(), under.encode());

        // The over-quota tenant cannot use the trace that run left warm:
        // it builds its own tree and leaves every store counter alone.
        let warm = store.counters();
        let again = simulate(&env, &params).unwrap();
        assert_eq!(bypasses.load(Ordering::Relaxed), 2);
        assert_eq!(store.counters(), warm, "store untouched");
        assert_eq!(again.encode(), over.encode());
    }

    #[test]
    fn chaos_params_are_refused_without_allow_chaos() {
        let (store, limits, session) = env_parts();
        let gate = far_gate();
        let noop = || {};
        let env = OpEnv {
            store: &store,
            limits: &limits,
            session: &session,
            gate: &gate,
            allow_chaos: false,
            quota_bypass: &noop,
        };
        let params = Json::obj([("chaos_panic", Json::Bool(true))]);
        let (kind, _) = simulate(&env, &params).unwrap_err();
        assert_eq!(kind, ErrorKind::BadRequest);
    }

    #[test]
    fn morph_reports_a_positive_l2_delta_on_the_paper_workload() {
        let (store, limits, session) = env_parts();
        let gate = far_gate();
        let noop = || {};
        let env = OpEnv {
            store: &store,
            limits: &limits,
            session: &session,
            gate: &gate,
            allow_chaos: false,
            quota_bypass: &noop,
        };
        // The tree must exceed L2 for clustering to pay off — an
        // L2-resident tree sees only cold misses, which morphing cannot
        // remove (the same scale threshold fig5 reproduces).
        let params = Json::obj([
            ("keys", Json::Uint(65_535)),
            ("searches", Json::Uint(4_000)),
            ("seed", Json::Uint(3)),
        ]);
        let r = morph(&env, &params).unwrap();
        let delta = match r.get("predicted_l2_miss_delta_pct") {
            Some(Json::Float(v)) => *v,
            other => panic!("{other:?}"),
        };
        assert!(delta > 0.0, "ccmorph should cut L2 misses, got {delta}%");

        // Warm repeat: both legs are store hits, byte-identical.
        let gens = store.counters().generations;
        let again = morph(&env, &params).unwrap();
        assert_eq!(store.counters().generations, gens, "warm run regenerated");
        assert_eq!(r.encode(), again.encode());
    }

    #[test]
    fn field_morph_reports_per_field_deltas() {
        let (store, limits, session) = env_parts();
        let gate = far_gate();
        let noop = || {};
        let env = OpEnv {
            store: &store,
            limits: &limits,
            session: &session,
            gate: &gate,
            allow_chaos: false,
            quota_bypass: &noop,
        };
        let params = Json::obj([
            ("transform", Json::str("hot_cold")),
            ("keys", Json::Uint(4095)),
            ("searches", Json::Uint(4000)),
            ("seed", Json::Uint(7)),
        ]);
        let r = morph(&env, &params).unwrap();
        assert_eq!(r.get("transform"), Some(&Json::str("hot_cold")));
        let delta = match r.get("predicted_l1_miss_delta_pct") {
            Some(Json::Float(v)) => *v,
            other => panic!("{other:?}"),
        };
        assert!(delta > 0.0, "hot/cold split should cut L1 misses: {delta}%");
        let fields = match r.get("fields") {
            Some(Json::Arr(v)) => v,
            other => panic!("{other:?}"),
        };
        assert_eq!(fields.len(), 5, "every fat-node field is reported");
        let field = |name: &str| {
            fields
                .iter()
                .find(|f| f.get("field") == Some(&Json::str(name)))
                .unwrap_or_else(|| panic!("field {name} missing"))
        };
        assert!(
            field("key")
                .get("l1_misses_before")
                .and_then(Json::as_u64)
                .unwrap()
                > 0
        );
        // Cold fields: never touched by searches, zero on both sides.
        for cold in ["meta", "payload"] {
            assert_eq!(
                field(cold).get("l1_misses_before"),
                Some(&Json::Uint(0)),
                "{cold}"
            );
            assert_eq!(field(cold).get("l1_misses_after"), Some(&Json::Uint(0)));
        }
        // The split leaves a 16-byte hot stride behind.
        assert_eq!(
            r.get("transformed").and_then(|t| t.get("hot_stride")),
            Some(&Json::Uint(16))
        );

        // Same request, same bytes.
        let again = morph(&env, &params).unwrap();
        assert_eq!(r.encode(), again.encode());
    }

    /// FNV-1a (64-bit) over a reply's encoded bytes.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The field byte-pin: a field `morph`'s whole encoded reply, for
    /// every transform, at the serve-mix request shape (4,095 keys,
    /// 1,500 searches). The hashes were recorded before the attributed
    /// legs moved onto the batched fast paths and ran side by side; any
    /// change to a simulated count, a field tally or the reply layout
    /// moves them.
    #[test]
    fn field_morph_reply_bytes_are_pinned() {
        let (store, limits, session) = env_parts();
        let gate = far_gate();
        let noop = || {};
        let env = OpEnv {
            store: &store,
            limits: &limits,
            session: &session,
            gate: &gate,
            allow_chaos: false,
            quota_bypass: &noop,
        };
        let pins = [
            ("reorder", 0x2664_8708_cb64_56a0_u64),
            ("hot_cold", 0x0afb_20e3_433a_9da7),
            ("soa", 0x6edf_7ea7_691e_c57f),
        ];
        let got: Vec<(&str, u64)> = pins
            .iter()
            .map(|&(transform, _)| {
                let params = Json::obj([
                    ("transform", Json::str(transform)),
                    ("keys", Json::Uint(4095)),
                    ("searches", Json::Uint(1500)),
                    ("seed", Json::Uint(0xF1E1D)),
                ]);
                let reply = morph(&env, &params).unwrap().encode();
                (transform, fnv1a(reply.as_bytes()))
            })
            .collect();
        assert_eq!(got, pins, "field morph reply bytes moved");
    }

    /// The AoS leg keeps the mid-request chaos hook while the other leg
    /// runs on its own thread: the panic still reaches the worker's
    /// `catch_unwind` with its original payload.
    #[test]
    fn field_morph_chaos_panic_mid_keeps_its_payload() {
        let (store, limits, session) = env_parts();
        let gate = far_gate();
        let noop = || {};
        let env = OpEnv {
            store: &store,
            limits: &limits,
            session: &session,
            gate: &gate,
            allow_chaos: true,
            quota_bypass: &noop,
        };
        let params = Json::obj([
            ("transform", Json::str("hot_cold")),
            ("keys", Json::Uint(4095)),
            ("searches", Json::Uint(1500)),
            ("chaos_panic_mid", Json::Bool(true)),
        ]);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| morph(&env, &params)));
        std::panic::set_hook(prev);
        let payload = r.expect_err("chaos_panic_mid must panic the worker");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("chaos: injected mid-request worker panic")
        );
    }

    /// Both legs poll the one gate: with it already expired, a field
    /// `morph` whose legs would each replay 20M searches answers
    /// `deadline_exceeded` at once instead of waiting out either leg.
    #[test]
    fn field_morph_expired_gate_stops_both_legs() {
        let (store, mut limits, session) = env_parts();
        limits.max_replay_events = u64::MAX;
        let gate = Gate::with_deadline(Instant::now() - Duration::from_millis(1));
        let noop = || {};
        let env = OpEnv {
            store: &store,
            limits: &limits,
            session: &session,
            gate: &gate,
            allow_chaos: false,
            quota_bypass: &noop,
        };
        for transform in ["reorder", "hot_cold", "soa"] {
            let params = Json::obj([
                ("transform", Json::str(transform)),
                ("keys", Json::Uint(4095)),
                ("searches", Json::Uint(20_000_000)),
            ]);
            let start = Instant::now();
            let (kind, _) = morph(&env, &params).unwrap_err();
            assert_eq!(kind, ErrorKind::DeadlineExceeded, "{transform}");
            // A leg that ignored the gate would run for tens of seconds
            // even in a release build.
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "{transform}: a leg kept replaying past the deadline ({:?})",
                start.elapsed()
            );
        }
    }

    #[test]
    fn field_morph_refuses_bad_and_oversized_requests() {
        let (store, limits, session) = env_parts();
        let gate = far_gate();
        let noop = || {};
        let env = OpEnv {
            store: &store,
            limits: &limits,
            session: &session,
            gate: &gate,
            allow_chaos: false,
            quota_bypass: &noop,
        };
        let (kind, msg) =
            morph(&env, &Json::obj([("transform", Json::str("zorder"))])).unwrap_err();
        assert_eq!(kind, ErrorKind::BadRequest);
        assert!(msg.contains("reorder|hot_cold|soa"), "{msg}");

        let (kind, msg) = morph(
            &env,
            &Json::obj([
                ("transform", Json::str("soa")),
                ("keys", Json::Uint(1 << 19)),
                ("searches", Json::Uint(10_000_000)),
            ]),
        )
        .unwrap_err();
        assert_eq!(kind, ErrorKind::OverBudget);
        assert!(msg.contains("field-transform budget"), "{msg}");
    }

    #[test]
    fn audit_and_lint_round_trip() {
        let (store, limits, session) = env_parts();
        let gate = far_gate();
        let noop = || {};
        let env = OpEnv {
            store: &store,
            limits: &limits,
            session: &session,
            gate: &gate,
            allow_chaos: false,
            quota_bypass: &noop,
        };
        let a = audit(
            &env,
            &Json::obj([
                ("scenario", Json::str("ccmorph-tree")),
                ("n", Json::Uint(255)),
            ]),
        )
        .unwrap();
        assert_eq!(a.get("scenario"), Some(&Json::str("ccmorph-tree")));
        assert!(a.get("report").is_some());

        let l = lint(
            &env,
            &Json::obj([(
                "source",
                Json::str("pub struct Bad { a: u8, b: u64, c: u8, d: u64, e: u8, f: u64 }"),
            )]),
        )
        .unwrap();
        assert!(l.get("findings").and_then(Json::as_u64).unwrap() > 0);

        let (kind, _) = audit(&env, &Json::obj([("scenario", Json::str("nope"))])).unwrap_err();
        assert_eq!(kind, ErrorKind::BadRequest);
        let (kind, _) = lint(&env, &Json::obj([])).unwrap_err();
        assert_eq!(kind, ErrorKind::BadRequest);
    }
}
