//! Set-sharded parallel trace replay.
//!
//! The paper's measurements are pure cache-residency effects: per-level
//! miss counts fully determine the Section 5.1 latency formula, and a
//! set-indexed cache *partitions* by set — a reference to set `s` can only
//! hit, miss, evict, or re-reference lines of set `s`. That makes the
//! replay embarrassingly parallel along an axis the batched engine
//! ([`MemorySystem::access_batch`]) cannot exploit: split the trace's
//! block-level probes by set index, replay each shard against its own
//! slice of cache state, and merge the counters with a plain sum.
//!
//! # Why the partition is exact
//!
//! [`ShardPlan`] routes every probe by the *overlap field*: the address
//! bits that sit inside **both** caches' set-index fields,
//! `[max(bs₁, bs₂), min(bs₁ + log₂ c₁, bs₂ + log₂ c₂))` for block shifts
//! `bsᵢ` and set counts `cᵢ`. Three facts follow:
//!
//! 1. Two addresses in the same L1 block (or the same L2 block) agree on
//!    all bits at or above both block shifts, hence on the overlap field:
//!    **every block is wholly owned by one shard.**
//! 2. Two addresses with the same L1 set index agree on the whole L1 set
//!    field, a superset of the overlap field — so the router is constant
//!    on each L1 set, and likewise on each L2 set: **every set is wholly
//!    owned by one shard**, for *any* shard count (the router reduces the
//!    overlap value modulo the count, still a pure function of it).
//! 3. A shard therefore sees *all* the traffic its sets receive and *none*
//!    of any other set's. True-LRU state is per-set and the prefetch
//!    in-flight table keys by L2 block (whose L1 and L2 fills land in the
//!    same shard, by fact 1) — every piece of replay state decomposes.
//!
//! Within a shard, probes keep their original relative order (the splitter
//! walks the trace once, appending in order), so per-set LRU decisions are
//! bit-identical to a serial replay: stamps differ, comparisons do not.
//!
//! What does *not* shard is the TLB — fully associative, global LRU, no
//! set structure. [`ShardedTrace`] therefore carries a dedicated serial
//! *TLB lane* of page translations (replayed on the calling thread while
//! the shard workers run) and the cycle total decomposes additively:
//! block-probe cycles per shard lane + TLB penalties from the TLB lane +
//! a split-time base (the write-buffer `l1_hit` per store and the
//! memo-resolved guaranteed hits, both stream-constants).
//!
//! # Degradation
//!
//! Shard workers degrade the way sweep cells do: each worker body runs
//! under `catch_unwind`; a panicking worker falls back to a serial
//! reference replay of its own lane (`access_block` per entry — the exact
//! slow path) on the same state, and the replayer counts
//! [`ShardDegradation::worker_panics`] / `fallback_lanes`. The fallback is
//! exact whenever the panic fired before the fast replay mutated anything
//! (the injected-fault class `cc-fault` exercises); a panic in the middle
//! of a genuinely buggy replay is still contained, surfaced by the
//! counters, and the lane is re-replayed best-effort (a second failure
//! marks the lane lost rather than propagating). Corrupt input buffers are
//! repaired at split time ([`TraceBuf::repair`]) and counted, mirroring
//! [`crate::batch::BatchSink`]'s validate-repair-fallback contract.
//!
//! # What keeps the wall-clock close to the model
//!
//! Two mechanisms remain, each kept because it measurably pays:
//!
//! * **Pooled splits.** [`SplitPool`] recycles `Lane`/`TlbLane` buffers
//!   across splits, so a steady-state split allocates nothing; its only
//!   work is one serial walk of the stream that fills the lanes.
//! * **Work-queue replay.** [`ShardedReplayer::replay`] claims lanes from
//!   an atomic queue in longest-lane-first order with
//!   `min(cores, shards)` workers (the caller joins after the serial TLB
//!   lane), so a hot set-shard starts first instead of serializing the
//!   merge, and a small host never oversubscribes itself with idle
//!   threads. [`ShardedReplayer::replay_serial`] is the same drain with
//!   one worker: the caller runs every lane inline.
//!
//! Two earlier mechanisms were measured out on a shared 2-core Xeon
//! running the 2-shard fig5 replay benchmark, in alternating pairs of
//! 30 s runs, on events replayed per second:
//!
//! * **Parallel split walkers** fanned large splits out over threads, but
//!   every walker walked the whole stream to derive the memo state, so a
//!   2-shard split cost three full walks on two cores. Disabling them won
//!   6 of 6 pairs (median +17%).
//! * **A width-8 all-hit probe kernel** retired runs of eight
//!   direct-mapped reads with one gathered compare. The replay without it
//!   won 4 of 6 pairs (median +10%): the per-entry path is already one
//!   compare per direct-mapped hit.
//!
//! The whole module is pinned to the scalar and batched engines by
//! differential property tests (`tests/shard_differential.rs`): identical
//! statistics, cycles, and counts across shard counts, machines, and
//! injected faults.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::batch::{InlineRead, PackedKind, TraceBuf};
use crate::cache::ReadTally;
use crate::config::MachineConfig;
use crate::hierarchy::MemorySystem;
use crate::stats::{CacheStats, TlbStats};
use crate::tlb::Tlb;

/// "Nothing memoized" sentinel (same convention as the batch cursor).
const NO_MEMO: u64 = u64::MAX;

/// Block-lane entry kinds.
const OP_READ: u8 = 0;
const OP_WRITE: u8 = 1;
const OP_PREFETCH: u8 = 2;

/// TLB-lane entry kinds. Stores group: a store's pages accumulate one
/// *combined* missed flag, because the scalar write path charges at most
/// one TLB penalty per store (the write-buffer override).
const TLB_LOAD: u8 = 0;
const TLB_STORE_FIRST: u8 = 1;
const TLB_STORE_CONT: u8 = 2;

/// The routing function from addresses to shards for one machine.
///
/// See the module docs for the correctness argument. The usable shard
/// count is bounded by the width of the L1∩L2 set-field overlap (capped at
/// 16 bits); a request beyond the bound clamps, and a machine with no
/// overlap (the tiny test preset) clamps to one shard — sharded replay
/// then degenerates to a serial replay, still bit-exact.
#[derive(Clone, Copy, Debug)]
pub struct ShardPlan {
    shards: usize,
    /// Low bit of the overlap field.
    lo: u32,
    /// Mask of the overlap field's width (applied after shifting by `lo`).
    mask: u64,
}

impl ShardPlan {
    /// Computes the overlap field `[lo, lo + width)` for `machine`.
    fn overlap(machine: &MachineConfig) -> (u32, u32) {
        let l1_bs = machine.l1.block_bytes().trailing_zeros();
        let l2_bs = machine.l2.block_bytes().trailing_zeros();
        let l1_hi = l1_bs + machine.l1.sets().trailing_zeros();
        let l2_hi = l2_bs + machine.l2.sets().trailing_zeros();
        let lo = l1_bs.max(l2_bs);
        let hi = l1_hi.min(l2_hi);
        (lo, hi.saturating_sub(lo).min(16))
    }

    /// The largest exact shard count `machine`'s geometry supports.
    pub fn max_shards(machine: &MachineConfig) -> usize {
        let (_, width) = Self::overlap(machine);
        1usize << width
    }

    /// A plan for `machine` with `requested` shards, clamped to
    /// `1..=max_shards(machine)`.
    pub fn new(machine: &MachineConfig, requested: usize) -> Self {
        let (lo, width) = Self::overlap(machine);
        ShardPlan {
            shards: requested.clamp(1, 1usize << width),
            lo,
            mask: (1u64 << width) - 1,
        }
    }

    /// The effective shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `addr`'s L1 set, L2 set, L1 block, and L2 block.
    pub fn shard_of(&self, addr: u64) -> usize {
        (((addr >> self.lo) & self.mask) as usize) % self.shards
    }
}

/// One shard's block-probe lane, structure-of-arrays like [`TraceBuf`].
#[derive(Clone, Debug, Default)]
struct Lane {
    ops: Vec<u8>,
    /// Block base address (`OP_READ`/`OP_WRITE`) or raw prefetch address.
    addrs: Vec<u64>,
    /// Event time relative to the split's first event (the replayer adds
    /// its persistent clock), feeding prefetch arrival/wait arithmetic.
    nows: Vec<u64>,
}

impl Lane {
    fn push(&mut self, op: u8, addr: u64, now: u64) {
        self.ops.push(op);
        self.addrs.push(addr);
        self.nows.push(now);
    }

    /// Empties the lane, keeping its allocations for reuse.
    fn clear(&mut self) {
        self.ops.clear();
        self.addrs.clear();
        self.nows.clear();
    }
}

/// The serial TLB lane: space-salted page keys in stream order.
#[derive(Clone, Debug, Default)]
struct TlbLane {
    ops: Vec<u8>,
    pages: Vec<u64>,
}

impl TlbLane {
    /// Empties the lane, keeping its allocations for reuse.
    fn clear(&mut self) {
        self.ops.clear();
        self.pages.clear();
    }
}

/// One reusable set of split buffers: the per-shard block lanes plus the
/// TLB lane. These are exactly the allocations a split performs; pooling
/// them is what makes steady-state splits allocation-free.
// Field order per cc-lint SPAN-01: the 48-byte TLB lane leads so it sits
// in the first cache line instead of straddling the boundary after the
// lane vector's header.
#[derive(Debug, Default)]
struct SplitBuffers {
    tlb: TlbLane,
    lanes: Vec<Lane>,
}

impl SplitBuffers {
    /// Empties every buffer and sizes the lane set to `shards`, keeping
    /// allocations wherever the shard count allows.
    fn reset(&mut self, shards: usize) {
        self.lanes.resize_with(shards, Lane::default);
        for lane in &mut self.lanes {
            lane.clear();
        }
        self.tlb.clear();
    }
}

/// A pool of reusable split buffers, shared across replays (and across
/// threads — all methods take `&self`).
///
/// [`ShardedReplayer::split_pooled`] draws its `Lane`/`TlbLane` vectors
/// from here instead of allocating, and [`SplitPool::recycle`] returns a
/// consumed split's buffers with their capacity intact. A warm
/// pool therefore makes the split step allocation-free in the steady
/// state: the only per-split work left is the walk that fills the lanes.
/// The trace store owns one so every figure sweep and benchmark shares
/// the same warm buffers.
#[derive(Debug, Default)]
pub struct SplitPool {
    free: Mutex<Vec<SplitBuffers>>,
}

impl SplitPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a buffer set from the pool, or a fresh (empty) one when the
    /// pool is dry. The split resets/sizes it either way.
    fn acquire(&self) -> SplitBuffers {
        self.free
            .lock()
            .expect("split pool")
            .pop()
            .unwrap_or_default()
    }

    /// Returns a consumed split's buffers to the pool, cleared but with
    /// their capacity intact, ready for the next
    /// [`ShardedReplayer::split_pooled`].
    pub fn recycle(&self, split: ShardedTrace) {
        let mut sb = SplitBuffers {
            lanes: split.lanes,
            tlb: split.tlb_lane,
        };
        sb.reset(sb.lanes.len());
        self.free.lock().expect("split pool").push(sb);
    }

    /// Buffer sets currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.free.lock().expect("split pool").len()
    }
}

/// A trace split into per-shard block lanes plus the serial TLB lane —
/// the reusable product of one [`ShardedReplayer::split_pooled`] pass,
/// replayable any number of times (and by any number of fresh replayers).
#[derive(Clone, Debug)]
pub struct ShardedTrace {
    shards: usize,
    lanes: Vec<Lane>,
    tlb_lane: TlbLane,
    /// Stream-constant cycles resolved at split time: `l1_hit` per store
    /// (the write-buffer base) and per memo-resolved guaranteed L1 hit.
    base_cycles: u64,
    /// Guaranteed L1 hits the batch cursor's same-block memo would skip —
    /// counted here, folded into the merged statistics at replay time.
    l1_memo_reads: u64,
    /// Guaranteed TLB hits the same-page memo would skip.
    tlb_memo_accesses: u64,
    insts: u64,
    branches: u64,
    events: u64,
    repaired_bufs: u64,
    repaired_entries: u64,
}

impl ShardedTrace {
    /// Splits `bufs` into `plan.shards()` block lanes plus the TLB lane,
    /// filling `buffers` in one walk over the stream. Every event
    /// decomposes into block probes and page translations; with `memoize`,
    /// the walk resolves the batch cursor's stream-determined memoizations
    /// exactly as `access_batch` would at replay (the memos are set by
    /// loads/stores and cleared by stores/prefetches — pure functions of
    /// the stream), so their hits are cycle/statistic constants that never
    /// reach a lane. Without it, every probe and translation reaches a
    /// lane, as miss attribution requires: a memo-skip is invisible to
    /// attribution. Cycles and statistics are the same either way.
    ///
    /// Buffers that fail [`TraceBuf::validate`] are repaired on a clone and
    /// counted — the splitter's analogue of [`crate::batch::BatchSink`]'s
    /// corrupt-batch fallback.
    fn build(
        machine: &MachineConfig,
        plan: &ShardPlan,
        bufs: &[TraceBuf],
        memoize: bool,
        mut buffers: SplitBuffers,
    ) -> ShardedTrace {
        let shards = plan.shards();
        buffers.reset(shards);
        let mut t = ShardedTrace {
            shards,
            lanes: buffers.lanes,
            tlb_lane: buffers.tlb,
            base_cycles: 0,
            l1_memo_reads: 0,
            tlb_memo_accesses: 0,
            insts: 0,
            branches: 0,
            events: 0,
            repaired_bufs: 0,
            repaired_entries: 0,
        };
        let lat = machine.latency;
        let l1_geo = machine.l1;
        let block_bytes = l1_geo.block_bytes();
        let track_tlb = machine.tlb_entries > 0;
        let page_bytes = machine.page_bytes;
        let page_pow2 = page_bytes.is_power_of_two();
        let page_shift = page_bytes.trailing_zeros();
        let page_of = |a: u64| {
            if page_pow2 {
                a >> page_shift
            } else {
                a / page_bytes
            }
        };
        let mut memo_block = NO_MEMO;
        let mut memo_page = NO_MEMO;
        let mut now = 0u64;
        for src in bufs {
            let repaired;
            let buf = if src.validate().is_ok() {
                src
            } else {
                let mut owned = src.clone();
                t.repaired_bufs += 1;
                t.repaired_entries += owned.repair() as u64;
                repaired = owned;
                &repaired
            };
            let salt = u64::from(buf.space()) << 32;
            t.insts += buf.insts();
            t.branches += buf.branches();
            let (kinds, addrs, sizes, ticks) = buf.lanes();
            for i in 0..kinds.len() {
                let (addr, size) = (addrs[i], sizes[i]);
                now += 1;
                t.events += 1;
                match kinds[i] {
                    PackedKind::Inst => t.insts += addr,
                    PackedKind::Branch => t.branches += addr,
                    PackedKind::Gap => {
                        now += addr - 1;
                        t.events += addr - 1;
                    }
                    PackedKind::Prefetch => {
                        t.lanes[plan.shard_of(addr)].push(OP_PREFETCH, addr, now);
                        memo_block = NO_MEMO;
                    }
                    PackedKind::LoadDep | PackedKind::LoadIndep => {
                        let span = u64::from(size).max(1) - 1;
                        if track_tlb {
                            let first_p = page_of(addr);
                            let last_p = page_of(addr + span);
                            let mut p = first_p;
                            if memoize && memo_page == (salt | first_p) {
                                t.tlb_memo_accesses += 1;
                                p += 1;
                            }
                            while p <= last_p {
                                t.tlb_lane.ops.push(TLB_LOAD);
                                t.tlb_lane.pages.push(salt | p);
                                p += 1;
                            }
                            memo_page = salt | last_p;
                        }
                        let first_b = l1_geo.block_of(addr);
                        let last_b = l1_geo.block_of(addr + span);
                        let mut b = first_b;
                        if memoize && memo_block == first_b {
                            t.l1_memo_reads += 1;
                            t.base_cycles += lat.l1_hit;
                            b += block_bytes;
                        }
                        while b <= last_b {
                            // Lane entries carry the first referenced byte
                            // of each block (shard_of and every cache probe
                            // mask to the block internally), so lane-level
                            // attribution resolves precise regions and
                            // fields.
                            t.lanes[plan.shard_of(b)].push(OP_READ, addr.max(b), now);
                            b += block_bytes;
                        }
                        memo_block = last_b;
                    }
                    PackedKind::Store => {
                        let span = u64::from(size).max(1) - 1;
                        if track_tlb {
                            let mut p = page_of(addr);
                            let last_p = page_of(addr + span);
                            let mut op = TLB_STORE_FIRST;
                            while p <= last_p {
                                t.tlb_lane.ops.push(op);
                                t.tlb_lane.pages.push(salt | p);
                                op = TLB_STORE_CONT;
                                p += 1;
                            }
                            memo_page = salt | last_p;
                        }
                        let mut b = l1_geo.block_of(addr);
                        let last_b = l1_geo.block_of(addr + span);
                        while b <= last_b {
                            t.lanes[plan.shard_of(b)].push(OP_WRITE, addr.max(b), now);
                            b += block_bytes;
                        }
                        // The scalar write path overrides its cycles to
                        // `l1_hit` (+ one TLB penalty, accounted by the
                        // store group in the TLB lane).
                        t.base_cycles += lat.l1_hit;
                        memo_block = NO_MEMO;
                    }
                }
                let tick = u64::from(ticks[i]);
                now += tick;
                t.events += tick;
            }
        }
        t
    }

    /// The shard count this split was routed for.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Events in the underlying stream (the replayer's clock advance).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Total block-lane entries across all shards.
    pub fn lane_entries(&self) -> usize {
        self.lanes.iter().map(|l| l.ops.len()).sum()
    }

    /// TLB-lane entries.
    pub fn tlb_entries(&self) -> usize {
        self.tlb_lane.ops.len()
    }

    /// Buffers repaired (validate-failed) during the split.
    pub fn repaired_bufs(&self) -> u64 {
        self.repaired_bufs
    }

    /// Entries dropped by those repairs.
    pub fn repaired_entries(&self) -> u64 {
        self.repaired_entries
    }
}

/// Degradation counters for a [`ShardedReplayer`] — the shard analogue of
/// sweep-cell retry accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardDegradation {
    /// Worker bodies that panicked (injected or genuine).
    pub worker_panics: u64,
    /// Lanes salvaged by the serial reference fallback.
    pub fallback_lanes: u64,
    /// Lanes whose fallback *also* failed; their statistics are absent
    /// from the merge (never silently wrong — this counter is the signal).
    pub lost_lanes: u64,
    /// Corrupt buffers repaired at split time.
    pub repaired_bufs: u64,
}

/// Per-replay totals and per-lane wall times.
#[derive(Clone, Debug)]
pub struct ShardReplayOutcome {
    /// Section 5.1 memory cycles contributed by this replay.
    pub cycles: u64,
    /// Events consumed (the replayer's clock advanced by this much).
    pub events: u64,
    /// Wall nanoseconds each shard worker spent, measured inside the
    /// worker — on a machine with one core per shard, the replay's
    /// critical path is `max(lane_nanos) ⊔ tlb_nanos`.
    pub lane_nanos: Vec<u64>,
    /// Wall nanoseconds the serial TLB lane took.
    pub tlb_nanos: u64,
}

impl ShardReplayOutcome {
    /// The modeled critical-path latency: the slowest lane, given one
    /// core per shard (the TLB lane runs concurrently on the caller).
    pub fn critical_path_nanos(&self) -> u64 {
        self.lane_nanos
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
            .max(self.tlb_nanos)
    }
}

/// What one shard worker reports back.
struct LaneOutcome {
    cycles: u64,
    nanos: u64,
    panicked: bool,
    lost: bool,
}

/// Replays [`ShardedTrace`]s against persistent per-shard cache state —
/// the sharded counterpart of [`crate::MemorySink`] /
/// [`crate::batch::BatchSink`], producing bit-identical statistics and
/// cycles.
///
/// State persists across [`ShardedReplayer::replay`] calls (each split is
/// one *segment* of a longer stream), so figure loops can interleave
/// measurement checkpoints with replay, and
/// [`ShardedReplayer::reset_stats`] separates warm-up from steady state
/// exactly like the scalar sink: counters clear, cache/TLB contents stay.
pub struct ShardedReplayer {
    machine: MachineConfig,
    plan: ShardPlan,
    /// One memory system per shard, TLB-less (`tlb_entries` zeroed): each
    /// owns the L1/L2 sets and in-flight entries its shard routes to.
    lanes: Vec<MemorySystem>,
    /// The one global TLB, fed by the serial TLB lane.
    tlb: Option<Tlb>,
    now: u64,
    cycles: u64,
    insts: u64,
    branches: u64,
    events: u64,
    degradation: ShardDegradation,
}

impl ShardedReplayer {
    /// Creates a replayer for `machine` with `requested` shards (clamped
    /// by [`ShardPlan::new`]).
    pub fn new(machine: MachineConfig, requested: usize) -> Self {
        let plan = ShardPlan::new(&machine, requested);
        let mut lane_machine = machine;
        lane_machine.tlb_entries = 0;
        let lanes = (0..plan.shards())
            .map(|_| MemorySystem::new(lane_machine))
            .collect();
        let tlb =
            (machine.tlb_entries > 0).then(|| Tlb::new(machine.tlb_entries, machine.page_bytes));
        ShardedReplayer {
            machine,
            plan,
            lanes,
            tlb,
            now: 0,
            cycles: 0,
            insts: 0,
            branches: 0,
            events: 0,
            degradation: ShardDegradation::default(),
        }
    }

    /// The routing plan (effective shard count, overlap field).
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Effective shard count.
    pub fn shards(&self) -> usize {
        self.plan.shards()
    }

    /// Splits `bufs` with this replayer's plan and machine into fresh
    /// buffers: [`ShardedReplayer::split_pooled`] with a new, empty pool.
    pub fn split(&self, bufs: &[TraceBuf]) -> ShardedTrace {
        self.split_pooled(bufs, &SplitPool::new())
    }

    /// Splits `bufs` with this replayer's plan and machine, drawing lane
    /// buffers from `pool` instead of allocating. When the pool holds a
    /// recycled buffer set of comparable capacity, the split performs no
    /// allocation at all; return the consumed split with
    /// [`SplitPool::recycle`] to keep the loop warm. While attribution is
    /// enabled the split keeps every probe (no memoized hits), so
    /// per-region totals match the merged statistics.
    pub fn split_pooled(&self, bufs: &[TraceBuf], pool: &SplitPool) -> ShardedTrace {
        let memoize = !self.attribution_enabled();
        ShardedTrace::build(&self.machine, &self.plan, bufs, memoize, pool.acquire())
    }

    /// Starts attributing every lane's accesses and evictions to the
    /// regions of `map`. Workers keep the fast lane replay, reporting
    /// each probe, and [`ShardedReplayer::split_pooled`] switches to the
    /// unmemoized split (a hit resolved at split time carries no
    /// address to attribute); statistics and cycles are unchanged. Splits
    /// produced *before* enabling attribution carry resolved memo hits
    /// that attribution cannot see — re-split for complete totals.
    pub fn enable_attribution(&mut self, map: std::sync::Arc<cc_obs::RegionMap>) {
        for lane in &mut self.lanes {
            lane.enable_attribution(std::sync::Arc::clone(&map));
        }
    }

    /// Whether attribution is enabled on the lanes.
    pub fn attribution_enabled(&self) -> bool {
        self.lanes.iter().any(MemorySystem::attribution_enabled)
    }

    /// Additionally attributes each lane's demand accesses to struct
    /// fields. Every lane shares the same `map`, so the merged profile's
    /// field tallies sum cleanly (see [`cc_obs::MissProfile::merge`]).
    ///
    /// # Panics
    ///
    /// Panics if [`ShardedReplayer::enable_attribution`] was not called.
    pub fn enable_field_attribution(&mut self, map: std::sync::Arc<cc_obs::FieldMap>) {
        for lane in &mut self.lanes {
            lane.enable_field_attribution(std::sync::Arc::clone(&map));
        }
    }

    /// The lanes' merged attribution profile, if enabled: a plain sum —
    /// lanes own disjoint cache sets, so their per-region tallies and
    /// conflict pairs are disjoint contributions to the same totals.
    pub fn attribution(&self) -> Option<cc_obs::MissProfile> {
        let mut merged: Option<cc_obs::MissProfile> = None;
        for lane in &self.lanes {
            if let Some(p) = lane.attribution() {
                match &mut merged {
                    Some(m) => m.merge(p),
                    None => merged = Some(p.clone()),
                }
            }
        }
        merged
    }

    /// Replays one split segment by draining a work queue of lanes with
    /// `min(host cores, shards)` workers, merging cycles and statistics
    /// exactly.
    ///
    /// Lanes are claimed from an atomic queue in longest-lane-first order
    /// (classic longest-processing-time scheduling): the hot set-shard
    /// starts immediately and can never be picked up last, where it would
    /// serialize the merge. The serial TLB lane runs on the caller
    /// thread — it shares no state with the block lanes — after which the
    /// caller joins the queue as one more worker. On a host with fewer
    /// cores than shards this degrades to fewer (down to zero) spawned
    /// threads draining the same queue, instead of `shards` threads
    /// taking turns on the same core.
    ///
    /// # Panics
    ///
    /// Panics if `split` was routed for a different shard count.
    pub fn replay(&mut self, split: &ShardedTrace) -> ShardReplayOutcome {
        self.replay_poisoned(split, &[])
    }

    /// [`ShardedReplayer::replay`] with fault injection: workers whose
    /// index is in `poisoned` panic on entry and must come back through
    /// the serial fallback — the hook `cc-fault`'s shard plane drives.
    pub fn replay_poisoned(
        &mut self,
        split: &ShardedTrace,
        poisoned: &[usize],
    ) -> ShardReplayOutcome {
        let workers = std::thread::available_parallelism().map_or(1, |nz| nz.get());
        self.drain(split, poisoned, workers)
    }

    /// Replays one split segment with every lane run *inline on the caller
    /// thread*: the [`ShardedReplayer::replay`] work queue drained by one
    /// worker, with no threads spawned.
    ///
    /// Statistics, cycles, and degradation accounting are identical to
    /// [`ShardedReplayer::replay`] (the lanes touch disjoint state, so
    /// execution order cannot matter). What changes is what the per-lane
    /// nanosecond timings *mean*: threaded lanes report wall time, which on
    /// an oversubscribed host includes time spent descheduled; serial lanes
    /// report pure uncontended compute. `critical_path_nanos` over a serial
    /// replay is therefore the modeled one-core-per-shard replay time —
    /// the number the engine benchmark reports — independent of how many
    /// cores the measuring host happens to have.
    ///
    /// # Panics
    ///
    /// Panics if `split` was routed for a different shard count.
    pub fn replay_serial(&mut self, split: &ShardedTrace) -> ShardReplayOutcome {
        self.drain(split, &[], 1)
    }

    /// The one replay loop: drains the lane queue with
    /// `min(workers, shards)` workers (the caller is one of them, after the
    /// TLB lane), then merges the lane outcomes, the split-resolved memo
    /// tallies, and the TLB lane's bulk counts — an order-insensitive
    /// reduction.
    fn drain(
        &mut self,
        split: &ShardedTrace,
        poisoned: &[usize],
        workers: usize,
    ) -> ShardReplayOutcome {
        assert_eq!(
            split.shards,
            self.lanes.len(),
            "split shard count does not match this replayer"
        );
        let base_now = self.now;
        let tlb_miss_lat = self.machine.latency.tlb_miss;
        let n = self.lanes.len();
        // Longest-lane-first claim order (ties by index, stable).
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(split.lanes[i].ops.len()));
        let workers = workers.min(n);

        // Each lane's state sits behind a mutex claimed exactly once per
        // replay (via the atomic index, so the locks are uncontended);
        // the mutexes exist so the borrow of the per-shard systems can
        // move between workers without tearing the merge.
        struct LaneSlot<'a> {
            sys: &'a mut MemorySystem,
            outcome: Option<LaneOutcome>,
        }
        let tlb = &mut self.tlb;
        let slots: Vec<Mutex<LaneSlot>> = self
            .lanes
            .iter_mut()
            .map(|sys| Mutex::new(LaneSlot { sys, outcome: None }))
            .collect();
        let next = AtomicUsize::new(0);
        let drain = || loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            let Some(&i) = order.get(k) else { return };
            let mut slot = slots[i].lock().expect("lane slot");
            slot.outcome = Some(run_lane(
                slot.sys,
                &split.lanes[i],
                base_now,
                poisoned.contains(&i),
            ));
        };
        let (tlb_cycles, tlb_acc, tlb_miss, tlb_nanos) = std::thread::scope(|s| {
            for _ in 1..workers {
                s.spawn(drain);
            }
            // The TLB lane is inherently serial; run it here while the
            // spawned workers own the cache sets, then join the queue.
            let start = Instant::now();
            let (c, a, m) = match tlb {
                Some(tlb) => replay_tlb_lane(tlb, &split.tlb_lane, tlb_miss_lat),
                None => (0, 0, 0),
            };
            let nanos = start.elapsed().as_nanos() as u64;
            drain();
            (c, a, m, nanos)
        });

        let mut seg_cycles = split.base_cycles + tlb_cycles;
        let mut lane_nanos = Vec::with_capacity(n);
        for slot in slots {
            let o = slot
                .into_inner()
                .expect("lane slot")
                .outcome
                .expect("every lane was claimed from the queue");
            seg_cycles += o.cycles;
            lane_nanos.push(o.nanos);
            self.degradation.worker_panics += u64::from(o.panicked);
            self.degradation.fallback_lanes += u64::from(o.panicked && !o.lost);
            self.degradation.lost_lanes += u64::from(o.lost);
        }
        self.degradation.repaired_bufs += split.repaired_bufs;

        // Fold the split-resolved memo hits and the TLB lane's bulk counts
        // into the owned statistics, so the merged accessors see exactly
        // what the batched engine would have recorded.
        if split.l1_memo_reads > 0 {
            let tally = ReadTally {
                reads: split.l1_memo_reads,
                ..ReadTally::default()
            };
            self.lanes[0].l1.stats_mut().add_read_tally(&tally);
        }
        if let Some(tlb) = &mut self.tlb {
            let acc = tlb_acc + split.tlb_memo_accesses;
            if acc > 0 {
                tlb.add_bulk_stats(acc, tlb_miss);
            }
        }

        self.cycles += seg_cycles;
        self.insts += split.insts;
        self.branches += split.branches;
        self.events += split.events;
        self.now += split.events;
        ShardReplayOutcome {
            cycles: seg_cycles,
            events: split.events,
            lane_nanos,
            tlb_nanos,
        }
    }

    /// Merged L1 statistics (order-insensitive sum over the disjoint
    /// shard states, plus the split-resolved guaranteed hits).
    pub fn l1_stats(&self) -> CacheStats {
        let mut s = CacheStats::new();
        for lane in &self.lanes {
            s.merge(&lane.l1_stats());
        }
        s
    }

    /// Merged L2 statistics.
    pub fn l2_stats(&self) -> CacheStats {
        let mut s = CacheStats::new();
        for lane in &self.lanes {
            s.merge(&lane.l2_stats());
        }
        s
    }

    /// TLB statistics (the serial TLB lane's counters).
    pub fn tlb_stats(&self) -> TlbStats {
        self.tlb.as_ref().map(Tlb::stats).unwrap_or_default()
    }

    /// Accumulated Section 5.1 memory cycles.
    pub fn memory_cycles(&self) -> u64 {
        self.cycles
    }

    /// Instructions retired.
    pub fn insts(&self) -> u64 {
        self.insts
    }

    /// Branches observed.
    pub fn branches(&self) -> u64 {
        self.branches
    }

    /// Events replayed so far (the persistent logical clock).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Degradation counters accumulated over this replayer's life.
    pub fn degradation(&self) -> ShardDegradation {
        self.degradation
    }

    /// Zeroes measurement counters, keeping cache/TLB *contents* (and the
    /// degradation counters — they are diagnostics, not measurements),
    /// mirroring [`crate::MemorySink::reset_stats`].
    pub fn reset_stats(&mut self) {
        for lane in &mut self.lanes {
            lane.reset_stats();
        }
        if let Some(tlb) = &mut self.tlb {
            tlb.reset_stats();
        }
        self.cycles = 0;
        self.insts = 0;
        self.branches = 0;
    }
}

impl std::fmt::Debug for ShardedReplayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedReplayer")
            .field("shards", &self.plan.shards())
            .field("events", &self.events)
            .field("cycles", &self.cycles)
            .field("degradation", &self.degradation)
            .finish_non_exhaustive()
    }
}

/// One worker: fast replay under `catch_unwind`, serial reference
/// fallback on panic, both timed.
fn run_lane(sys: &mut MemorySystem, lane: &Lane, base_now: u64, poison: bool) -> LaneOutcome {
    let start = Instant::now();
    let fast = catch_unwind(AssertUnwindSafe(|| {
        if poison {
            panic!("injected shard-worker poison");
        }
        if sys.attribution_enabled() {
            replay_lane_fast::<true>(sys, lane, base_now)
        } else {
            replay_lane_fast::<false>(sys, lane, base_now)
        }
    }));
    match fast {
        Ok(cycles) => LaneOutcome {
            cycles,
            nanos: start.elapsed().as_nanos() as u64,
            panicked: false,
            lost: false,
        },
        Err(_) => {
            let fallback = catch_unwind(AssertUnwindSafe(|| {
                replay_lane_reference(sys, lane, base_now)
            }));
            match fallback {
                Ok(cycles) => LaneOutcome {
                    cycles,
                    nanos: start.elapsed().as_nanos() as u64,
                    panicked: true,
                    lost: false,
                },
                Err(_) => LaneOutcome {
                    cycles: 0,
                    nanos: start.elapsed().as_nanos() as u64,
                    panicked: true,
                    lost: true,
                },
            }
        }
    }
}

/// The lane fast path: [`MemorySystem::access_batch`]'s per-block read
/// body ([`MemorySystem::read_inline`]), restricted to this shard's
/// blocks. The lane-local L2 memo follows the same MRU argument as the
/// batch cursor — sound here because no other lane can touch this shard's
/// sets. A read takes the exact slow path only when a prefetch of its own
/// L2 block is in flight, the per-reference check `access_batch` makes:
/// with prefetches outstanding the in-flight map never empties again, so
/// an all-or-nothing test would send every later read the slow way.
/// With `ATTRIB` the inline read reports each probe to the lane's
/// profile; lane entries already carry each block's first referenced
/// byte.
fn replay_lane_fast<const ATTRIB: bool>(sys: &mut MemorySystem, lane: &Lane, base_now: u64) -> u64 {
    let mut cycles = 0u64;
    let mut l1_tally = ReadTally::default();
    let mut l2_tally = ReadTally::default();
    let mut l2_memo = NO_MEMO;
    let read = InlineRead::new(&sys.config);
    let l2_geo = sys.config.l2;
    for i in 0..lane.ops.len() {
        let addr = lane.addrs[i];
        match lane.ops[i] {
            OP_READ
                if sys.inflight.is_empty()
                    || !sys.inflight.contains_key(&l2_geo.block_of(addr)) =>
            {
                cycles += sys.read_inline::<ATTRIB>(
                    read,
                    addr,
                    &mut l2_memo,
                    &mut l1_tally,
                    &mut l2_tally,
                );
            }
            OP_READ => {
                sys.access_block(addr, false, base_now + lane.nows[i], &mut cycles);
                l2_memo = NO_MEMO;
            }
            OP_WRITE => {
                let mut discard = 0u64;
                sys.access_block(addr, true, base_now + lane.nows[i], &mut discard);
                l2_memo = NO_MEMO;
            }
            _ => {
                sys.prefetch(addr, base_now + lane.nows[i]);
                l2_memo = NO_MEMO;
            }
        }
    }
    if l1_tally.any() {
        sys.l1.stats_mut().add_read_tally(&l1_tally);
    }
    if l2_tally.any() {
        sys.l2.stats_mut().add_read_tally(&l2_tally);
    }
    cycles
}

/// The lane reference fallback: every entry through the slow path
/// (`access_block` / `prefetch`), no memoization — exactly what the
/// scalar engine does per block.
fn replay_lane_reference(sys: &mut MemorySystem, lane: &Lane, base_now: u64) -> u64 {
    let mut cycles = 0u64;
    for i in 0..lane.ops.len() {
        let addr = lane.addrs[i];
        let now = base_now + lane.nows[i];
        match lane.ops[i] {
            OP_READ => {
                sys.access_block(addr, false, now, &mut cycles);
            }
            OP_WRITE => {
                let mut discard = 0u64;
                sys.access_block(addr, true, now, &mut discard);
            }
            _ => {
                sys.prefetch(addr, now);
            }
        }
    }
    cycles
}

/// Replays the serial TLB lane; returns `(cycles, accesses, misses)`.
/// Loads charge one penalty per missed page; a store's pages OR into one
/// group flag and charge at most one penalty (the scalar write override).
fn replay_tlb_lane(tlb: &mut Tlb, lane: &TlbLane, tlb_miss_lat: u64) -> (u64, u64, u64) {
    let mut cycles = 0u64;
    let mut acc = 0u64;
    let mut misses = 0u64;
    let mut in_group = false;
    let mut group_missed = 0u64;
    for i in 0..lane.ops.len() {
        let miss = u64::from(!tlb.access_page_untallied(lane.pages[i]));
        acc += 1;
        misses += miss;
        match lane.ops[i] {
            TLB_LOAD => {
                if in_group {
                    cycles += tlb_miss_lat * group_missed;
                    in_group = false;
                }
                cycles += tlb_miss_lat * miss;
            }
            TLB_STORE_FIRST => {
                if in_group {
                    cycles += tlb_miss_lat * group_missed;
                }
                in_group = true;
                group_missed = miss;
            }
            _ => group_missed |= miss,
        }
    }
    if in_group {
        cycles += tlb_miss_lat * group_missed;
    }
    (cycles, acc, misses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventSink};
    use crate::{MachineConfig, MemorySink};

    /// A unit-test machine with a 4-bit L1∩L2 set-field overlap (up to 16
    /// exact shards) and caches small enough that an 8 KB arena thrashes.
    fn overlapped() -> MachineConfig {
        MachineConfig {
            l1: crate::CacheGeometry::new(64, 16, 1),
            l2: crate::CacheGeometry::new(64, 64, 1),
            ..MachineConfig::test_tiny()
        }
    }

    fn pack(events: &[Event]) -> Vec<TraceBuf> {
        let mut bufs = Vec::new();
        let mut cur = TraceBuf::with_capacity(32);
        for &ev in events {
            if cur.is_full() {
                bufs.push(std::mem::replace(&mut cur, TraceBuf::with_capacity(32)));
            }
            cur.push(ev);
        }
        if !cur.is_empty() {
            bufs.push(cur);
        }
        bufs
    }

    fn chase(seed: u64) -> Vec<Event> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut evs = Vec::new();
        let mut cur = 0x100u64;
        for _ in 0..400 {
            let r = next();
            match r % 10 {
                0..=5 => {
                    cur = (cur + (r >> 8) % 40) % 8192;
                    evs.push(Event::load(cur, 20));
                }
                6 => evs.push(Event::store((r >> 8) % 8192, 8)),
                7 => evs.push(Event::Prefetch {
                    addr: (r >> 8) % 8192,
                }),
                8 => evs.push(Event::Inst((r % 5) as u32)),
                _ => cur = (r >> 8) % 8192,
            }
        }
        evs
    }

    fn scalar_reference(machine: MachineConfig, events: &[Event]) -> MemorySink {
        let mut sink = MemorySink::new(machine);
        for &ev in events {
            sink.event(ev);
        }
        sink
    }

    #[test]
    fn plan_clamps_to_the_overlap_width() {
        // E5000: L1 [4,14), L2 [6,20) → overlap [6,14) → 256 shards max.
        let e5000 = MachineConfig::ultrasparc_e5000();
        assert_eq!(ShardPlan::max_shards(&e5000), 256);
        assert_eq!(ShardPlan::new(&e5000, 4).shards(), 4);
        assert_eq!(ShardPlan::new(&e5000, 1_000).shards(), 256);
        // Table 1: L1 [7,14), L2 [7,17) → overlap [7,14) → 128.
        assert_eq!(ShardPlan::max_shards(&MachineConfig::table1()), 128);
        // The tiny preset has an *empty* overlap: serial fallback.
        let tiny = MachineConfig::test_tiny();
        assert_eq!(ShardPlan::max_shards(&tiny), 1);
        assert_eq!(ShardPlan::new(&tiny, 8).shards(), 1);
        assert_eq!(ShardPlan::new(&e5000, 0).shards(), 1);
    }

    #[test]
    fn router_owns_whole_sets_and_blocks() {
        for machine in [
            MachineConfig::ultrasparc_e5000(),
            MachineConfig::table1(),
            overlapped(),
        ] {
            for shards in [2usize, 3, 4, 7, 8] {
                let plan = ShardPlan::new(&machine, shards);
                let mut state = 0x5EED_u64;
                for _ in 0..2000 {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let addr = state % (1 << 24);
                    let home = plan.shard_of(addr);
                    // Same L1 block / L2 block → same shard.
                    assert_eq!(home, plan.shard_of(machine.l1.block_of(addr)));
                    assert_eq!(home, plan.shard_of(machine.l2.block_of(addr)));
                    // Same set index (address ± one way) → same shard.
                    assert_eq!(home, plan.shard_of(addr + machine.l1.way_bytes()));
                    assert_eq!(home, plan.shard_of(addr + machine.l2.way_bytes()));
                }
            }
        }
    }

    #[test]
    fn sharded_replay_matches_scalar_across_shard_counts() {
        let machine = overlapped();
        let events = chase(42);
        let scalar = scalar_reference(machine, &events);
        let bufs = pack(&events);
        for shards in 1..=8 {
            let mut r = ShardedReplayer::new(machine, shards);
            let split = r.split(&bufs);
            let out = r.replay(&split);
            assert_eq!(
                r.l1_stats(),
                scalar.system().l1_stats(),
                "{shards} shards L1"
            );
            assert_eq!(
                r.l2_stats(),
                scalar.system().l2_stats(),
                "{shards} shards L2"
            );
            assert_eq!(
                r.tlb_stats(),
                scalar.system().tlb_stats(),
                "{shards} shards TLB"
            );
            assert_eq!(
                r.memory_cycles(),
                scalar.memory_cycles(),
                "{shards} shards cycles"
            );
            assert_eq!(r.insts(), scalar.insts());
            assert_eq!(r.branches(), scalar.branches());
            assert_eq!(out.events, events.len() as u64);
            assert_eq!(out.lane_nanos.len(), r.shards());
            assert_eq!(r.degradation(), ShardDegradation::default());
        }
    }

    #[test]
    fn serial_replay_matches_threaded_replay() {
        let machine = overlapped();
        let events = chase(17);
        let bufs = pack(&events);
        let mut threaded = ShardedReplayer::new(machine, 5);
        let mut serial = ShardedReplayer::new(machine, 5);
        let ts = threaded.split(&bufs);
        let ss = serial.split(&bufs);
        let t_out = threaded.replay(&ts);
        let s_out = serial.replay_serial(&ss);
        assert_eq!(serial.l1_stats(), threaded.l1_stats());
        assert_eq!(serial.l2_stats(), threaded.l2_stats());
        assert_eq!(serial.tlb_stats(), threaded.tlb_stats());
        assert_eq!(s_out.cycles, t_out.cycles);
        assert_eq!(s_out.events, t_out.events);
        assert_eq!(s_out.lane_nanos.len(), t_out.lane_nanos.len());
        assert_eq!(serial.degradation(), ShardDegradation::default());
    }

    #[test]
    fn segmented_replay_with_reset_matches_the_scalar_sink() {
        let machine = overlapped();
        let warm = chase(7);
        let steady = chase(8);
        let mut scalar = scalar_reference(machine, &warm);
        scalar.reset_stats();
        for &ev in &steady {
            scalar.event(ev);
        }
        let mut r = ShardedReplayer::new(machine, 4);
        let w = r.split(&pack(&warm));
        r.replay(&w);
        r.reset_stats();
        // Replay the steady segment in two chunks: persistent state must
        // carry the clock and contents across segment boundaries.
        let (a, b) = steady.split_at(steady.len() / 2);
        let sa = r.split(&pack(a));
        r.replay(&sa);
        let sb = r.split(&pack(b));
        r.replay(&sb);
        assert_eq!(r.l1_stats(), scalar.system().l1_stats());
        assert_eq!(r.l2_stats(), scalar.system().l2_stats());
        assert_eq!(r.tlb_stats(), scalar.system().tlb_stats());
        assert_eq!(r.memory_cycles(), scalar.memory_cycles());
        assert_eq!(r.insts(), scalar.insts());
    }

    #[test]
    fn poisoned_workers_fall_back_and_stay_exact() {
        let machine = overlapped();
        let events = chase(99);
        let scalar = scalar_reference(machine, &events);
        let bufs = pack(&events);
        let mut r = ShardedReplayer::new(machine, 4);
        let split = r.split(&bufs);
        r.replay_poisoned(&split, &[0, 2]);
        let d = r.degradation();
        assert_eq!(d.worker_panics, 2);
        assert_eq!(d.fallback_lanes, 2);
        assert_eq!(d.lost_lanes, 0);
        // The fallback replays the poisoned lanes on the reference path:
        // the merge is still bit-identical to the scalar engine.
        assert_eq!(r.l1_stats(), scalar.system().l1_stats());
        assert_eq!(r.l2_stats(), scalar.system().l2_stats());
        assert_eq!(r.tlb_stats(), scalar.system().tlb_stats());
        assert_eq!(r.memory_cycles(), scalar.memory_cycles());
    }

    #[test]
    fn corrupt_buffers_are_repaired_and_counted() {
        use crate::batch::TraceFault;
        let machine = overlapped();
        let events = chase(5);
        let mut bufs = pack(&events);
        bufs[0].inject_fault(&TraceFault::TruncateAddrLane { keep: 3 });
        // Reference: the repaired stream through the scalar sink.
        let mut repaired = bufs.clone();
        repaired[0].repair();
        let ref_events: Vec<Event> = repaired.iter().flat_map(|b| b.events()).collect();
        let scalar = scalar_reference(machine, &ref_events);
        let mut r = ShardedReplayer::new(machine, 3);
        let split = r.split(&bufs);
        assert_eq!(split.repaired_bufs(), 1);
        assert!(split.repaired_entries() > 0);
        r.replay(&split);
        assert_eq!(r.degradation().repaired_bufs, 1);
        assert_eq!(r.l1_stats(), scalar.system().l1_stats());
        assert_eq!(r.memory_cycles(), scalar.memory_cycles());
    }

    #[test]
    fn replayer_handles_tlbless_machines() {
        let machine = MachineConfig {
            tlb_entries: 0,
            ..overlapped()
        };
        let events = chase(11);
        let scalar = scalar_reference(machine, &events);
        let mut r = ShardedReplayer::new(machine, 4);
        let split = r.split(&pack(&events));
        assert_eq!(split.tlb_entries(), 0);
        r.replay(&split);
        assert_eq!(r.tlb_stats(), scalar.system().tlb_stats());
        assert_eq!(r.memory_cycles(), scalar.memory_cycles());
    }

    #[test]
    fn pooled_split_is_bit_identical_and_reuses_buffers() {
        let machine = overlapped();
        let events = chase(23);
        let bufs = pack(&events);
        let pool = SplitPool::new();
        for shards in [1usize, 3, 4, 8] {
            let r = ShardedReplayer::new(machine, shards);
            let fresh = r.split(&bufs);
            let pooled = r.split_pooled(&bufs, &pool);
            // Lane-for-lane, entry-for-entry identical to the fresh split.
            assert_eq!(pooled.lanes.len(), fresh.lanes.len());
            for (p, e) in pooled.lanes.iter().zip(&fresh.lanes) {
                assert_eq!(p.ops, e.ops);
                assert_eq!(p.addrs, e.addrs);
                assert_eq!(p.nows, e.nows);
            }
            assert_eq!(pooled.tlb_lane.ops, fresh.tlb_lane.ops);
            assert_eq!(pooled.tlb_lane.pages, fresh.tlb_lane.pages);
            assert_eq!(pooled.base_cycles, fresh.base_cycles);
            assert_eq!(pooled.l1_memo_reads, fresh.l1_memo_reads);
            assert_eq!(pooled.tlb_memo_accesses, fresh.tlb_memo_accesses);
            assert_eq!(pooled.events, fresh.events);
            pool.recycle(pooled);
            // The recycled buffers go back to the pool and come out again.
            assert_eq!(pool.idle(), 1);
        }
        let mut r = ShardedReplayer::new(machine, 4);
        let again = r.split_pooled(&bufs, &pool);
        assert_eq!(pool.idle(), 0, "the warm buffer set was taken, not leaked");
        let scalar = scalar_reference(machine, &events);
        r.replay(&again);
        assert_eq!(r.l1_stats(), scalar.system().l1_stats());
        assert_eq!(r.memory_cycles(), scalar.memory_cycles());
        pool.recycle(again);
    }

    #[test]
    fn pooled_split_repairs_corrupt_buffers_too() {
        use crate::batch::TraceFault;
        let machine = overlapped();
        let mut bufs = pack(&chase(31));
        bufs[1].inject_fault(&TraceFault::TruncateAddrLane { keep: 2 });
        let pool = SplitPool::new();
        let mut a = ShardedReplayer::new(machine, 4);
        let mut b = ShardedReplayer::new(machine, 4);
        let fresh = a.split(&bufs);
        let pooled = b.split_pooled(&bufs, &pool);
        assert_eq!(pooled.repaired_bufs(), fresh.repaired_bufs());
        assert_eq!(pooled.repaired_entries(), fresh.repaired_entries());
        a.replay(&fresh);
        b.replay(&pooled);
        assert_eq!(a.l1_stats(), b.l1_stats());
        assert_eq!(a.l2_stats(), b.l2_stats());
        assert_eq!(a.tlb_stats(), b.tlb_stats());
        assert_eq!(a.memory_cycles(), b.memory_cycles());
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn mismatched_split_is_rejected() {
        let machine = overlapped();
        let bufs = pack(&chase(1));
        let a = ShardedReplayer::new(machine, 2);
        let mut b = ShardedReplayer::new(machine, 4);
        b.replay(&a.split(&bufs));
    }
}
