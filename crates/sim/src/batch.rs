//! Batched trace execution: the simulator's fast path.
//!
//! The scalar path ([`crate::MemorySink`] → [`MemorySystem::access`]) walks
//! one event at a time: an enum dispatch, a `Vec` of touched blocks, a
//! linear TLB scan, and a `HashMap` probe of the prefetch in-flight table
//! per event. That is the right *reference* implementation — every branch
//! maps onto a sentence of the paper's Section 5.1 — but it is the
//! bottleneck of every figure in this reproduction.
//!
//! This module adds the batched equivalent:
//!
//! * [`TraceBuf`] — a fixed-capacity structure-of-arrays buffer of packed
//!   events (kind bytes, addresses, and sizes in separate vectors), so the
//!   replay loop streams over dense arrays instead of matching a 24-byte
//!   enum per event;
//! * [`MemorySystem::access_batch`] — replays a full buffer with no per-event
//!   allocation, carrying a [`BatchCursor`] that short-circuits the dominant
//!   pattern of pointer chases over clustered nodes: consecutive references
//!   that stay in the last L1 block (and on the last translated page). Such
//!   a reference is *provably* an L1/TLB hit on the most-recently-used
//!   line/entry, so the probe, the LRU stamp bump, the in-flight lookup, and
//!   the TLB scan can all be skipped without changing a single counter or
//!   any future replacement decision (see the invariant notes on
//!   [`BatchCursor`]);
//! * [`BatchSink`] — an [`EventSink`] that buffers events and flushes them
//!   through `access_batch`; no per-event dynamic dispatch survives in the
//!   hot loop (a caller that also needs the raw stream wraps the sink in a
//!   [`crate::Tee`]);
//! * [`TraceRecorder`] — an [`EventSink`] that records a stream straight
//!   into fixed-capacity [`TraceBuf`] chunks for storing, splitting, and
//!   replaying later. It folds events as `BatchSink` does, as they
//!   arrive: each `Inst`/`Branch` becomes one tick in the preceding
//!   entry's tick lane, and its count goes into the chunk's
//!   [`TraceBuf::insts`] / [`TraceBuf::branches`] totals, so a
//!   load/inst/branch node visit costs one packed entry instead of three.
//!
//! [`TraceBuf`] is the one packed trace format: what the recorder writes,
//! the trace store keeps, and every replay engine consumes.
//! [`crate::event::TraceBuffer`] is a different thing — a growable
//! `Vec<Event>` (24 bytes per event, nothing folded) kept for tests and
//! for replaying one stream through several sinks.
//!
//! The batched path is pinned to the scalar path by a differential property
//! test (`tests/batch_differential.rs`): over arbitrary event streams, both
//! produce bit-identical [`crate::CacheStats`], TLB counters, accumulated
//! cycles, and — crucially — identical *future* behaviour (same hits and
//! writebacks on a probe suffix), including write-back dirty-eviction
//! ordering.

use crate::cache::ReadTally;
use crate::event::{Event, EventSink};
use crate::hierarchy::{AccessKind, MemorySystem};
use cc_obs::attrib::Level as ObsLevel;

/// Packed event kind for [`TraceBuf`]'s kind lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum PackedKind {
    /// `Event::Inst(n)` — `n` in the address lane.
    Inst,
    /// `Event::Branch(n)` — `n` in the address lane.
    Branch,
    /// Dependent load.
    LoadDep,
    /// Independent load.
    LoadIndep,
    /// Store.
    Store,
    /// Software prefetch.
    Prefetch,
    /// A run of events that only advance the logical clock (the address
    /// lane holds the run length). Runs normally fold into the *tick
    /// lane* of the preceding entry ([`TraceBuf::push_ticks`]); a `Gap`
    /// entry is staged only when there is no preceding entry to widen —
    /// a run at the head of a freshly drained buffer.
    Gap,
}

/// One packed memory-referencing entry of a [`TraceBuf`], as streamed by
/// [`TraceBuf::mem_refs`]. Prefetches stream as reads: a fingerprint cares
/// about the block touched, not the probe's side-channel semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemRef {
    /// Referenced virtual address.
    pub addr: u64,
    /// Access size in bytes (0 for prefetch probes).
    pub size: u32,
    /// Whether the entry writes (store) rather than reads.
    pub write: bool,
}

/// A fixed-capacity structure-of-arrays event buffer.
///
/// Events are split into parallel lanes (kind, address, size, trailing
/// ticks), so the batched replay loop touches a few dense bytes per entry,
/// all sequentially. Runs of clock-only events (instructions, branches)
/// occupy no entries of their own: they fold into the tick lane of the
/// entry they follow, so the canonical load/inst/branch pointer-chase
/// rhythm packs into one entry per node. The folded events' counts live
/// in two per-buffer totals ([`TraceBuf::insts`], [`TraceBuf::branches`])
/// that every replay engine adds once per buffer. [`TraceRecorder`] fills
/// buffers this way for storing and splitting; [`BatchSink`] stages
/// events the same way and drains the buffer through
/// [`MemorySystem::access_batch`] every time it fills up.
/// [`TraceBuf::push`] stays lossless — an `Inst`/`Branch` pushed through
/// it takes an entry carrying its count — for tests and hand-built
/// traces.
///
/// # Example
///
/// ```
/// use cc_sim::batch::TraceBuf;
/// use cc_sim::event::Event;
///
/// let mut buf = TraceBuf::with_capacity(2);
/// buf.push(Event::load(0x40, 8));
/// assert!(!buf.is_full());
/// buf.push(Event::Inst(3));
/// assert!(buf.is_full());
/// assert_eq!(buf.events().count(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct TraceBuf {
    kinds: Vec<PackedKind>,
    addrs: Vec<u64>,
    sizes: Vec<u32>,
    /// Clock-only events *following* each entry (see [`TraceBuf::push_ticks`]).
    ticks: Vec<u32>,
    cap: usize,
    /// Address-space tag (see [`TraceBuf::set_space`]).
    space: u32,
    /// Instruction counts of the events folded into tick lanes.
    insts: u64,
    /// Branch counts of the events folded into tick lanes.
    branches: u64,
}

impl TraceBuf {
    /// Creates an empty buffer holding at most `cap` events.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn with_capacity(cap: usize) -> Self {
        assert!(cap > 0, "batch capacity must be nonzero");
        TraceBuf {
            kinds: Vec::with_capacity(cap),
            addrs: Vec::with_capacity(cap),
            sizes: Vec::with_capacity(cap),
            ticks: Vec::with_capacity(cap),
            cap,
            space: 0,
            insts: 0,
            branches: 0,
        }
    }

    /// Instructions retired by the events folded into tick lanes (see
    /// [`TraceRecorder`]); entries pushed whole carry their own counts.
    pub fn insts(&self) -> u64 {
        self.insts
    }

    /// Branches observed by the events folded into tick lanes.
    pub fn branches(&self) -> u64 {
        self.branches
    }

    /// The buffer's address-space tag (0 unless [`TraceBuf::set_space`]
    /// was called).
    pub fn space(&self) -> u32 {
        self.space
    }

    /// Tags the buffer with an address-space id.
    ///
    /// The caches are physically tagged in this simulator — the same
    /// numeric address in two spaces is the same block — but the TLB is a
    /// *virtual* structure: page `p` of space 1 is a different translation
    /// than page `p` of space 0. [`MemorySystem::access_batch`] therefore
    /// keys every TLB probe (and the cursor's same-page memo) by
    /// `(page, space)`, so replaying buffers from different spaces through
    /// one system never lets a memoized translation leak across spaces.
    /// Page numbers must stay below 2^32 for the combined key to be
    /// collision-free; every shipped machine config is far below that.
    pub fn set_space(&mut self, space: u32) {
        self.space = space;
    }

    /// Raw SoA lanes for in-crate consumers (the shard splitter walks the
    /// packed entries directly instead of decoding [`Event`]s).
    pub(crate) fn lanes(&self) -> (&[PackedKind], &[u64], &[u32], &[u32]) {
        (&self.kinds, &self.addrs, &self.sizes, &self.ticks)
    }

    /// Number of buffered entries (folded tick runs do not count; see
    /// [`TraceBuf::events`] for the decoded event stream).
    #[inline]
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the buffer holds no events.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Whether the buffer is at capacity (the caller should drain it).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.kinds.len() >= self.cap
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Empties the buffer, keeping its allocation.
    pub fn clear(&mut self) {
        self.kinds.clear();
        self.addrs.clear();
        self.sizes.clear();
        self.ticks.clear();
        self.insts = 0;
        self.branches = 0;
    }

    /// Appends one event.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full.
    #[inline]
    pub fn push(&mut self, ev: Event) {
        assert!(!self.is_full(), "TraceBuf overflow: drain before pushing");
        let (kind, addr, size) = match ev {
            Event::Inst(n) => (PackedKind::Inst, u64::from(n), 0),
            Event::Branch(n) => (PackedKind::Branch, u64::from(n), 0),
            Event::Load {
                addr,
                size,
                dep: true,
            } => (PackedKind::LoadDep, addr, size),
            Event::Load {
                addr,
                size,
                dep: false,
            } => (PackedKind::LoadIndep, addr, size),
            Event::Store { addr, size } => (PackedKind::Store, addr, size),
            Event::Prefetch { addr } => (PackedKind::Prefetch, addr, 0),
        };
        self.kinds.push(kind);
        self.addrs.push(addr);
        self.sizes.push(size);
        self.ticks.push(0);
    }

    /// Appends `ticks` clock-advance events that carry no memory traffic —
    /// the packed form of a run of instruction and branch events whose
    /// *counts* the caller accounts for separately
    /// ([`MemorySystem::access_batch`] only advances the clock by `ticks`).
    /// The run folds into the trailing entry's tick lane whenever one
    /// exists, so it usually consumes no entry at all; only a run with no
    /// entry to widen (an empty buffer, or a saturated tick counter)
    /// stages a standalone clock-gap entry. This is how a packer amortizes
    /// the dominant non-memory events of a trace; [`BatchSink`] does it
    /// automatically.
    ///
    /// # Panics
    ///
    /// Panics if `ticks` is zero, or if a standalone entry is needed and
    /// the buffer is full (see [`TraceBuf::can_fold_ticks`]).
    #[inline]
    pub fn push_ticks(&mut self, ticks: u64) {
        assert!(ticks > 0, "a tick run must advance the clock");
        if let Some(i) = self.kinds.len().checked_sub(1) {
            if self.kinds[i] == PackedKind::Gap {
                self.addrs[i] += ticks;
                return;
            }
            let cur = u64::from(self.ticks[i]);
            if cur + ticks <= u64::from(u32::MAX) {
                self.ticks[i] = (cur + ticks) as u32;
                return;
            }
        }
        assert!(!self.is_full(), "TraceBuf overflow: drain before pushing");
        self.kinds.push(PackedKind::Gap);
        self.addrs.push(ticks);
        self.sizes.push(0);
        self.ticks.push(0);
    }

    /// Whether [`TraceBuf::push_ticks`] can absorb a run without staging a
    /// new entry (so it cannot panic even on a full buffer).
    #[inline]
    pub fn can_fold_ticks(&self, ticks: u64) -> bool {
        match self.kinds.last() {
            Some(PackedKind::Gap) => true,
            Some(_) => {
                u64::from(*self.ticks.last().expect("lanes in step")) + ticks <= u64::from(u32::MAX)
            }
            None => false,
        }
    }

    /// Stages `ev` with clock-only events folded — the packing rule
    /// [`TraceRecorder`] and [`BatchSink`] share. A memory event takes one
    /// entry. An `Inst` or `Branch` takes none when it can help it: its
    /// tick bumps the trailing entry's tick lane (a standalone clock-gap
    /// entry is staged only when there is no entry, or its lane is
    /// saturated) and its count goes into [`TraceBuf::insts`] /
    /// [`TraceBuf::branches`]. Returns `false`, staging nothing, when the
    /// event needs an entry and the buffer is full; it always succeeds on
    /// an empty buffer.
    #[inline]
    fn push_folded(&mut self, ev: Event) -> bool {
        let (insts, branches) = match ev {
            Event::Inst(n) => (n, 0),
            Event::Branch(n) => (0, n),
            _ => {
                if self.is_full() {
                    return false;
                }
                self.push(ev);
                return true;
            }
        };
        if self.try_fold_tick(insts, branches) {
            return true;
        }
        if self.is_full() {
            return false;
        }
        self.push_ticks(1);
        self.insts += u64::from(insts);
        self.branches += u64::from(branches);
        true
    }

    /// The hot half of [`TraceBuf::push_folded`] for a memory event: one
    /// capacity check, then one push per lane. Returns `false`, staging
    /// nothing, when the buffer is full.
    #[inline(always)]
    pub(crate) fn try_push_mem(&mut self, kind: PackedKind, addr: u64, size: u32) -> bool {
        if self.is_full() {
            return false;
        }
        self.kinds.push(kind);
        self.addrs.push(addr);
        self.sizes.push(size);
        self.ticks.push(0);
        true
    }

    /// The hot half of [`TraceBuf::push_folded`] for an `Inst`/`Branch`
    /// event: one tick on the trailing entry, its counts into the
    /// buffer's totals. Returns `false`, staging nothing, when there is
    /// no trailing entry or its tick lane is saturated.
    #[inline(always)]
    pub(crate) fn try_fold_tick(&mut self, insts: u32, branches: u32) -> bool {
        match self.ticks.last_mut() {
            Some(t) if *t < u32::MAX => {
                *t += 1;
                self.insts += u64::from(insts);
                self.branches += u64::from(branches);
                true
            }
            _ => false,
        }
    }

    /// Trims the lanes' allocations to their length — for a chunk that
    /// will be kept but never filled further.
    fn shrink_to_fit(&mut self) {
        self.kinds.shrink_to_fit();
        self.addrs.shrink_to_fit();
        self.sizes.shrink_to_fit();
        self.ticks.shrink_to_fit();
    }

    /// Streams the memory-referencing entries (loads, stores, prefetches)
    /// as packed [`MemRef`]s without decoding the folded clock runs — the
    /// cheap per-entry walk interval fingerprinting needs. One item per
    /// packed entry: a fingerprint pass over a buffer touches each lane
    /// byte once, versus [`TraceBuf::events`] which re-expands every
    /// folded instruction run into individual events.
    pub fn mem_refs(&self) -> impl Iterator<Item = MemRef> + '_ {
        (0..self.len()).filter_map(move |i| {
            let write = match self.kinds[i] {
                PackedKind::LoadDep | PackedKind::LoadIndep | PackedKind::Prefetch => false,
                PackedKind::Store => true,
                PackedKind::Inst | PackedKind::Branch | PackedKind::Gap => return None,
            };
            Some(MemRef {
                write,
                addr: self.addrs[i],
                size: self.sizes[i],
            })
        })
    }

    /// Total decoded event count: packed entries, the instruction/branch
    /// runs folded into tick lanes, and clock-gap run lengths. This is the
    /// event total [`TraceBuf::events`] would yield, computed in one dense
    /// pass — the extrapolation weight basis for sampled simulation.
    pub fn event_total(&self) -> u64 {
        let mut total = 0u64;
        for i in 0..self.len() {
            total += match self.kinds[i] {
                PackedKind::Gap => self.addrs[i],
                _ => 1,
            };
            total += u64::from(self.ticks[i]);
        }
        total
    }

    /// Decodes the buffered events back into [`Event`]s, in order. Folded
    /// tick runs and clock-gap entries decode as that many `Inst(0)`
    /// events — the canonical event that ticks the clock and counts
    /// nothing; the folded counts stay in [`TraceBuf::insts`] and
    /// [`TraceBuf::branches`].
    pub fn events(&self) -> impl Iterator<Item = Event> + '_ {
        (0..self.len()).flat_map(move |i| {
            let (ev, reps) = match self.kinds[i] {
                PackedKind::Inst => (Event::Inst(self.addrs[i] as u32), 1),
                PackedKind::Branch => (Event::Branch(self.addrs[i] as u32), 1),
                PackedKind::LoadDep => (Event::load(self.addrs[i], self.sizes[i]), 1),
                PackedKind::LoadIndep => (Event::load_indep(self.addrs[i], self.sizes[i]), 1),
                PackedKind::Store => (Event::store(self.addrs[i], self.sizes[i]), 1),
                PackedKind::Prefetch => (
                    Event::Prefetch {
                        addr: self.addrs[i],
                    },
                    1,
                ),
                PackedKind::Gap => (Event::Inst(0), self.addrs[i]),
            };
            std::iter::repeat_n(ev, reps as usize)
                .chain(std::iter::repeat_n(Event::Inst(0), self.ticks[i] as usize))
        })
    }
}

/// A deterministic corruption applied to a [`TraceBuf`] by fault
/// injection — the simulated analogue of a truncated trace file, a
/// dropped DMA, or a scribbled buffer.
///
/// Structural faults ([`TraceFault::TruncateAddrLane`],
/// [`TraceFault::ZeroGapRun`]) break the buffer's invariants and are
/// caught by [`TraceBuf::validate`]; [`TraceFault::ScrambleAddrs`] leaves
/// the structure valid but the *addresses* wrong — the class of fault only
/// determinism (replaying the seed) can expose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFault {
    /// Truncates the address lane to `keep` entries, leaving the other
    /// lanes long: the SoA invariant (all lanes in step) is broken.
    TruncateAddrLane {
        /// Entries the address lane keeps.
        keep: usize,
    },
    /// Zeroes the run length of the clock-gap entry at `entry` (modulo the
    /// buffer length) — a gap that advances the clock by zero events,
    /// which the replay loop must never see.
    ZeroGapRun {
        /// Target entry index (taken modulo the buffer length).
        entry: usize,
    },
    /// XORs a seed-derived mask into every memory-event address (loads,
    /// stores, prefetches — never the count lanes of instruction, branch,
    /// or gap entries, whose "addresses" are event counts).
    ScrambleAddrs {
        /// Seed for the deterministic mask stream.
        seed: u64,
    },
}

/// An invariant violation found by [`TraceBuf::validate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceCorruption {
    /// The parallel lanes disagree in length.
    LaneMismatch {
        /// Kind-lane length.
        kinds: usize,
        /// Address-lane length.
        addrs: usize,
        /// Size-lane length.
        sizes: usize,
        /// Tick-lane length.
        ticks: usize,
    },
    /// A clock-gap entry advancing the clock by zero events.
    EmptyGapRun {
        /// Index of the offending entry.
        entry: usize,
    },
}

impl std::fmt::Display for TraceCorruption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceCorruption::LaneMismatch {
                kinds,
                addrs,
                sizes,
                ticks,
            } => write!(
                f,
                "trace lanes out of step: {kinds} kinds, {addrs} addrs, {sizes} sizes, {ticks} ticks"
            ),
            TraceCorruption::EmptyGapRun { entry } => {
                write!(f, "zero-length clock gap at entry {entry}")
            }
        }
    }
}

impl std::error::Error for TraceCorruption {}

/// SplitMix64 step for the deterministic scramble mask stream (local copy:
/// `cc-core` sits above this crate in the dependency order).
fn splitmix_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl TraceBuf {
    /// Applies `fault` to the currently buffered entries. Deterministic:
    /// the same fault on the same buffer contents always produces the same
    /// corruption.
    pub fn inject_fault(&mut self, fault: &TraceFault) {
        match *fault {
            TraceFault::TruncateAddrLane { keep } => {
                self.addrs.truncate(keep.min(self.addrs.len()));
            }
            TraceFault::ZeroGapRun { entry } => {
                if self.kinds.is_empty() {
                    return;
                }
                let i = entry % self.kinds.len();
                if self.kinds[i] == PackedKind::Gap {
                    self.addrs[i] = 0;
                }
            }
            TraceFault::ScrambleAddrs { seed } => {
                let mut state = seed;
                for i in 0..self.kinds.len() {
                    let mask = splitmix_next(&mut state);
                    if matches!(
                        self.kinds[i],
                        PackedKind::LoadDep
                            | PackedKind::LoadIndep
                            | PackedKind::Store
                            | PackedKind::Prefetch
                    ) {
                        self.addrs[i] ^= mask >> 16;
                    }
                }
            }
        }
    }

    /// Checks the buffer's structural invariants: all lanes in step, no
    /// zero-length clock gaps. The replay loop assumes both; feeding it a
    /// buffer that fails validation silently drops entries (the lane zip
    /// stops at the shortest lane) or underflows the gap arithmetic.
    pub fn validate(&self) -> Result<(), TraceCorruption> {
        let (k, a, s, t) = (
            self.kinds.len(),
            self.addrs.len(),
            self.sizes.len(),
            self.ticks.len(),
        );
        if !(k == a && k == s && k == t) {
            return Err(TraceCorruption::LaneMismatch {
                kinds: k,
                addrs: a,
                sizes: s,
                ticks: t,
            });
        }
        if let Some(entry) =
            (0..k).find(|&i| self.kinds[i] == PackedKind::Gap && self.addrs[i] == 0)
        {
            return Err(TraceCorruption::EmptyGapRun { entry });
        }
        Ok(())
    }

    /// Restores the structural invariants after corruption, keeping every
    /// entry that can be kept: lanes are truncated to the shortest lane,
    /// and a zero-length gap either inherits its folded ticks as its run
    /// length or, with none, is removed. Returns the number of entries
    /// dropped.
    pub fn repair(&mut self) -> usize {
        let min = self
            .kinds
            .len()
            .min(self.addrs.len())
            .min(self.sizes.len())
            .min(self.ticks.len());
        let mut dropped = self.kinds.len().saturating_sub(min);
        self.kinds.truncate(min);
        self.addrs.truncate(min);
        self.sizes.truncate(min);
        self.ticks.truncate(min);
        let mut i = 0;
        while i < self.kinds.len() {
            if self.kinds[i] == PackedKind::Gap && self.addrs[i] == 0 {
                if self.ticks[i] > 0 {
                    // A gap of its folded ticks is the same event stream.
                    self.addrs[i] = u64::from(self.ticks[i]);
                    self.ticks[i] = 0;
                    i += 1;
                } else {
                    self.kinds.remove(i);
                    self.addrs.remove(i);
                    self.sizes.remove(i);
                    self.ticks.remove(i);
                    dropped += 1;
                }
            } else {
                i += 1;
            }
        }
        dropped
    }
}

/// Hex run-length encoding of a lane of small integers: `VALxRUN` tokens.
fn encode_rle(values: impl Iterator<Item = u64>, out: &mut String) {
    let mut run: Option<(u64, u64)> = None;
    for v in values {
        match &mut run {
            Some((cur, n)) if *cur == v => *n += 1,
            _ => {
                if let Some((cur, n)) = run {
                    out.push_str(&format!("{cur:x}x{n:x} "));
                }
                run = Some((v, 1));
            }
        }
    }
    if let Some((cur, n)) = run {
        out.push_str(&format!("{cur:x}x{n:x}"));
    }
}

/// Decodes an [`encode_rle`] lane; `None` on malformed input.
fn decode_rle(line: &str) -> Option<Vec<u64>> {
    let mut out = Vec::new();
    for tok in line.split_ascii_whitespace() {
        let (v, n) = tok.split_once('x')?;
        let v = u64::from_str_radix(v, 16).ok()?;
        let n = u64::from_str_radix(n, 16).ok()?;
        if n == 0 {
            return None;
        }
        for _ in 0..n {
            out.push(v);
        }
    }
    Some(out)
}

impl TraceBuf {
    /// Serializes the buffer as stable ASCII text for the `cc-sweep` trace
    /// store — the same hex-everything convention as sweep checkpoint
    /// files, so cached traces survive any locale or float-formatting
    /// drift. Lanes are compressed with the transforms that fit them:
    /// kind/size/tick lanes run-length encode (traces are long runs of
    /// same-shaped loads), the address lane stores zigzag deltas (pointer
    /// chases move in small strides, so most deltas are a few hex digits).
    /// The `ccbuf v2` header carries capacity, space, length, and the
    /// folded instruction and branch totals.
    pub fn encode_compact(&self) -> String {
        let mut s = format!(
            "ccbuf v2 {:x} {:x} {:x} {:x} {:x}\n",
            self.cap,
            self.space,
            self.len(),
            self.insts,
            self.branches
        );
        s.push('k');
        s.push(' ');
        encode_rle(self.kinds.iter().map(|&k| k as u64), &mut s);
        s.push('\n');
        s.push('a');
        let mut prev = 0u64;
        for &a in &self.addrs {
            let d = a.wrapping_sub(prev) as i64;
            let zz = ((d << 1) ^ (d >> 63)) as u64;
            s.push_str(&format!(" {zz:x}"));
            prev = a;
        }
        s.push('\n');
        s.push('s');
        s.push(' ');
        encode_rle(self.sizes.iter().map(|&v| u64::from(v)), &mut s);
        s.push('\n');
        s.push('t');
        s.push(' ');
        encode_rle(self.ticks.iter().map(|&v| u64::from(v)), &mut s);
        s.push('\n');
        s
    }

    /// Decodes an [`TraceBuf::encode_compact`] string. Returns `None` on
    /// any malformed input (wrong magic, lane mismatch, out-of-range kind
    /// or size) — a corrupt cache file is treated as a miss, never trusted.
    /// A `ccbuf v1` text (written before the folded totals existed) is a
    /// miss too: it cannot say how many instructions its ticks stood for.
    pub fn decode_compact(s: &str) -> Option<TraceBuf> {
        let mut lines = s.lines();
        let mut header = lines.next()?.split_ascii_whitespace();
        if header.next()? != "ccbuf" || header.next()? != "v2" {
            return None;
        }
        let cap = usize::from_str_radix(header.next()?, 16).ok()?;
        let space = u32::from_str_radix(header.next()?, 16).ok()?;
        let len = usize::from_str_radix(header.next()?, 16).ok()?;
        let insts = u64::from_str_radix(header.next()?, 16).ok()?;
        let branches = u64::from_str_radix(header.next()?, 16).ok()?;
        if cap == 0 || len > cap || header.next().is_some() {
            return None;
        }
        let kline = lines.next()?.strip_prefix('k')?;
        let aline = lines.next()?.strip_prefix('a')?;
        let sline = lines.next()?.strip_prefix('s')?;
        let tline = lines.next()?.strip_prefix('t')?;
        if lines.next().is_some() {
            return None;
        }
        let kinds: Vec<PackedKind> = decode_rle(kline)?
            .into_iter()
            .map(|v| {
                Some(match v {
                    0 => PackedKind::Inst,
                    1 => PackedKind::Branch,
                    2 => PackedKind::LoadDep,
                    3 => PackedKind::LoadIndep,
                    4 => PackedKind::Store,
                    5 => PackedKind::Prefetch,
                    6 => PackedKind::Gap,
                    _ => return None,
                })
            })
            .collect::<Option<_>>()?;
        let mut addrs = Vec::with_capacity(len);
        let mut prev = 0u64;
        for tok in aline.split_ascii_whitespace() {
            let zz = u64::from_str_radix(tok, 16).ok()?;
            let d = ((zz >> 1) as i64) ^ -((zz & 1) as i64);
            prev = prev.wrapping_add(d as u64);
            addrs.push(prev);
        }
        let sizes: Vec<u32> = decode_rle(sline)?
            .into_iter()
            .map(|v| u32::try_from(v).ok())
            .collect::<Option<_>>()?;
        let ticks: Vec<u32> = decode_rle(tline)?
            .into_iter()
            .map(|v| u32::try_from(v).ok())
            .collect::<Option<_>>()?;
        if kinds.len() != len || addrs.len() != len || sizes.len() != len || ticks.len() != len {
            return None;
        }
        let buf = TraceBuf {
            kinds,
            addrs,
            sizes,
            ticks,
            cap,
            space,
            insts,
            branches,
        };
        buf.validate().ok()?;
        Some(buf)
    }

    /// Approximate resident size in bytes — the trace store's unit for its
    /// byte-budget LRU accounting.
    pub fn approx_bytes(&self) -> usize {
        self.len() * (std::mem::size_of::<u64>() + 2 * std::mem::size_of::<u32>() + 1)
            + std::mem::size_of::<TraceBuf>()
    }
}

/// Cross-batch memoization state for [`MemorySystem::access_batch`].
///
/// The cursor remembers just enough about the immediately preceding memory
/// reference to prove the next one needs no simulation work:
///
/// * `block` — the last L1 block a *load* touched. That line is resident
///   (reads always fill) and is the most recently probed line in the whole
///   L1, so a following read confined to it is a guaranteed hit. Skipping
///   the probe also skips the LRU stamp bump, which is safe precisely
///   because the line already carries the newest stamp: no other line was
///   stamped in between, so every *relative* stamp comparison — and
///   therefore every future victim choice — is unchanged. The prefetch
///   in-flight check is skipped too: the entry for this block's L2 block
///   was consumed when the block was last really probed, and only a
///   `Prefetch` event (which clears the cursor) can create a new one.
///   Stores and prefetches clear this field: a write-back store miss or a
///   prefetch fill picks a victim and could evict the remembered line.
/// * `page` — the last page a load or store translated. That TLB entry is
///   resident and most recently used, so a following reference starting on
///   the same page skips the scan (the stamp argument is identical).
///   Instructions, branches, and prefetches never touch the TLB, so they
///   leave this field valid.
/// * `l2_block` — the L2 block of the most recent L2 probe issued by the
///   batch read path. An L2 probe either hits (line becomes MRU) or fills
///   (line becomes MRU), and *nothing else* touches the L2 between batch
///   reads — L1 hits and L1 fills stay in L1 — so a later L1 miss falling
///   in the same L2 block is a guaranteed L2 hit on the MRU line, and the
///   probe plus its LRU stamp bump can be skipped by the same argument as
///   `block`. Anything that can touch the L2 outside the batch read path
///   clears it: stores (a write-through L1 hit propagates the write into
///   L2; a write-back miss allocates), prefetches (they fill L2), and the
///   in-flight slow path (its probes are not tracked).
///
/// The cursor is only sound while **all** traffic flows through
/// `access_batch`: call [`BatchCursor::reset`] after any direct
/// [`MemorySystem::access`] / [`MemorySystem::prefetch`] call on the same
/// system. [`BatchSink`] owns both the system and the cursor, so it upholds
/// this by construction.
#[derive(Clone, Copy, Debug)]
pub struct BatchCursor {
    block: u64,
    page: u64,
    l2_block: u64,
}

/// "Nothing memoized" sentinel for [`BatchCursor`] fields. A real block or
/// page equal to it merely fails the memo compare and takes the full probe
/// path — the sentinel can cost time, never correctness — and no simulated
/// heap reaches the top of the address space anyway. Plain `u64` compares
/// keep the hot loop's memo checks to one fused compare-and-branch each,
/// where `Option<u64>` pays for a separate discriminant test.
const NO_MEMO: u64 = u64::MAX;

impl BatchCursor {
    /// A cursor with no memoized state.
    pub fn new() -> Self {
        BatchCursor {
            block: NO_MEMO,
            page: NO_MEMO,
            l2_block: NO_MEMO,
        }
    }

    /// Forgets all memoized state (required after any out-of-batch access).
    pub fn reset(&mut self) {
        *self = Self::new();
    }
}

impl Default for BatchCursor {
    fn default() -> Self {
        Self::new()
    }
}

/// Totals accumulated by one [`MemorySystem::access_batch`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Processor-visible cycles, exactly as the scalar path would sum them.
    pub cycles: u64,
    /// Instructions retired (from `Event::Inst`).
    pub insts: u64,
    /// Branches observed (from `Event::Branch`).
    pub branches: u64,
    /// Events consumed — the caller's logical clock advances by this much.
    pub events: u64,
}

impl MemorySystem {
    /// Replays a buffered event stream, mirroring what feeding each event
    /// through [`crate::MemorySink`] would do — bit-identically, including
    /// every statistics counter, LRU decision, dirty bit, and prefetch
    /// arrival time — while skipping provably-redundant work (see
    /// [`BatchCursor`]).
    ///
    /// `now` is the logical clock *before* the first event; like the
    /// scalar sink, each event advances the clock by one before being
    /// processed.
    ///
    /// With attribution enabled the same shortcuts run, and each reports
    /// the probes it resolves to the profile; the choice is made once
    /// per batch, so the unattributed drain carries no attribution test.
    pub fn access_batch(
        &mut self,
        buf: &TraceBuf,
        now: u64,
        cursor: &mut BatchCursor,
    ) -> BatchOutcome {
        if self.attrib.is_some() {
            self.drain_batch::<true>(buf, now, cursor)
        } else {
            self.drain_batch::<false>(buf, now, cursor)
        }
    }

    /// The body of [`MemorySystem::access_batch`], instantiated once per
    /// attribution setting.
    fn drain_batch<const ATTRIB: bool>(
        &mut self,
        buf: &TraceBuf,
        now: u64,
        cursor: &mut BatchCursor,
    ) -> BatchOutcome {
        let lat = self.config.latency;
        let l1_geo = self.config.l1;
        let l2_geo = self.config.l2;
        let block_bytes = l1_geo.block_bytes();
        let page_bytes = self.config.page_bytes;
        // Every shipped config has power-of-two pages; hoist the test so
        // the per-load page arithmetic is a shift, not a 64-bit division.
        let page_pow2 = page_bytes.is_power_of_two();
        let page_shift = page_bytes.trailing_zeros();
        let page_of = |a: u64| {
            if page_pow2 {
                a >> page_shift
            } else {
                a / page_bytes
            }
        };
        // TLB keys carry the buffer's address-space tag in their high bits
        // (see [`TraceBuf::set_space`]): the caches are physically tagged,
        // the TLB is not. For the default space 0 the salt is zero and
        // every key is the bare page number, exactly as before.
        let space_salt = u64::from(buf.space) << 32;
        // Adjacent blocks land in distinct direct-mapped sets whenever
        // there are at least two, which the paired both-hit probe requires.
        let l1_pair = l1_geo.assoc() == 1 && l1_geo.sets() > 1;
        let read = InlineRead::new(&self.config);
        // The folded events' counts, once per buffer; their clock ticks
        // come out of the tick lane below.
        let mut out = BatchOutcome {
            insts: buf.insts,
            branches: buf.branches,
            ..BatchOutcome::default()
        };
        let mut now = now;
        // Demand-read accounting for the paths that don't self-record
        // (memo skips and `read_direct` probes), tallied in registers and
        // flushed in bulk after the loop — equivalent to per-probe
        // recording because nothing reads the counters mid-batch.
        let mut l1_tally = ReadTally::default();
        let mut l2_tally = ReadTally::default();
        let mut tlb_acc = 0u64;
        let mut tlb_miss = 0u64;
        // Only `Prefetch` events arm the in-flight table, so one probe of
        // it per batch (cleared by the prefetch arm) replaces a probe per
        // load. A false negative is impossible; a stale `false` merely
        // routes loads through the reference slow path.
        let mut no_inflight = self.inflight.is_empty();
        // Under `ATTRIB` every shortcut below still runs: a memo skip and
        // a paired both-hit report their guaranteed L1 hits, and the
        // inline read reports each probe with its victim, all at the
        // first referenced byte of the block (`addr.max(b)`), exactly
        // what `access_block` would have recorded.

        let entries = buf
            .kinds
            .iter()
            .zip(buf.addrs.iter())
            .zip(buf.sizes.iter())
            .zip(buf.ticks.iter());
        for (((&kind, &addr), &size), &ticks) in entries {
            now += 1;
            out.events += 1;
            match kind {
                PackedKind::Inst => out.insts += addr,
                PackedKind::Branch => out.branches += addr,
                PackedKind::Gap => {
                    // A run of `addr` clock-only events; one was counted
                    // above, the rest advance here.
                    now += addr - 1;
                    out.events += addr - 1;
                }
                PackedKind::Prefetch => {
                    self.prefetch(addr, now);
                    no_inflight = false;
                    // The prefetch fill picks victims in both levels
                    // (possibly the memoized lines) and re-arms the
                    // in-flight table.
                    cursor.block = NO_MEMO;
                    cursor.l2_block = NO_MEMO;
                }
                PackedKind::LoadDep | PackedKind::LoadIndep => {
                    let span = u64::from(size).max(1) - 1;

                    // Translate once per page touched, skipping the scan
                    // when the first page is the one the previous
                    // reference left most-recently-used.
                    if let Some(tlb) = &mut self.tlb {
                        let first_p = page_of(addr);
                        let last_p = page_of(addr + span);
                        let mut p = first_p;
                        if cursor.page == (space_salt | first_p) {
                            // Guaranteed hit on the most-recently-used
                            // entry: that page is resident and already at
                            // the head of the recency list, so skipping
                            // the probe and the (no-op) move-to-front
                            // leaves every future eviction decision
                            // exactly as the probing path would. The memo
                            // key carries the space salt, so a buffer from
                            // another address space can never ride a
                            // translation this one left behind.
                            tlb_acc += 1;
                            p += 1;
                        }
                        while p <= last_p {
                            let miss = u64::from(!tlb.access_page_untallied(space_salt | p));
                            tlb_acc += 1;
                            tlb_miss += miss;
                            out.cycles += lat.tlb_miss * miss;
                            p += 1;
                        }
                        cursor.page = space_salt | last_p;
                    }

                    // Probe each touched block, skipping the leading block
                    // when it is the previous load's (still-MRU) block.
                    let first_b = l1_geo.block_of(addr);
                    let last_b = l1_geo.block_of(addr + span);
                    let mut b = first_b;
                    if cursor.block == first_b {
                        if ATTRIB {
                            self.attribute(ObsLevel::L1, addr, Some(true), None);
                        }
                        l1_tally.reads += 1;
                        out.cycles += lat.l1_hit;
                        b += block_bytes;
                    }
                    // With prefetches outstanding, the in-flight map
                    // never empties again (records of prefetched blocks
                    // no load visits stay, to be counted as full hits if
                    // one ever does), so ask it about this reference's
                    // L2 blocks only: the inline path is exact whenever
                    // none of them is in flight.
                    let inline = no_inflight || {
                        let (f2, l2) = (l2_geo.block_of(b), l2_geo.block_of(last_b));
                        !(f2..=l2)
                            .step_by(l2_geo.block_bytes() as usize)
                            .any(|x| self.inflight.contains_key(&x))
                    };
                    if inline {
                        // No prefetch covering these blocks is
                        // outstanding, so the in-flight probe
                        // `access_block` performs per block is a
                        // guaranteed no-op: take the read path inline
                        // without hashing the block address again.
                        //
                        // A node that straddles one block boundary — the
                        // shape of every load in the paper's workloads —
                        // probes exactly two blocks; when both are
                        // resident, one paired compare retires the whole
                        // reference.
                        if l1_pair
                            && last_b.wrapping_sub(b) == block_bytes
                            && self.l1.hit_pair(b, last_b)
                        {
                            if ATTRIB {
                                self.attribute(ObsLevel::L1, addr.max(b), Some(true), None);
                                self.attribute(ObsLevel::L1, last_b, Some(true), None);
                            }
                            l1_tally.reads += 2;
                            out.cycles += 2 * lat.l1_hit;
                        } else {
                            while b <= last_b {
                                // The block base probes the same line;
                                // only attribution needs the exact byte.
                                let at = if ATTRIB { addr.max(b) } else { b };
                                out.cycles += self.read_inline::<ATTRIB>(
                                    read,
                                    at,
                                    &mut cursor.l2_block,
                                    &mut l1_tally,
                                    &mut l2_tally,
                                );
                                b += block_bytes;
                            }
                        }
                    } else {
                        while b <= last_b {
                            // First referenced byte, not the block base —
                            // probes mask internally (stats identical), but
                            // attribution resolves the precise field.
                            self.access_block(addr.max(b), false, now, &mut out.cycles);
                            b += block_bytes;
                        }
                        // The slow path's L2 probes are not tracked.
                        cursor.l2_block = NO_MEMO;
                    }
                    cursor.block = last_b;
                }
                PackedKind::Store => {
                    let span = u64::from(size).max(1) - 1;
                    if space_salt == 0 {
                        // Stores are rare in the pointer-chase workloads
                        // this path accelerates; take the reference
                        // implementation wholesale (its write-buffer cycle
                        // override and write-through L2 propagation stay
                        // in one place).
                        let o = self.access(addr, size, AccessKind::Write, now);
                        out.cycles += o.cycles;
                    } else {
                        // The reference path knows nothing about address
                        // spaces, so a salted store is decomposed by hand:
                        // salted TLB probes (write cost charges at most
                        // one TLB penalty — the scalar path's write-buffer
                        // override), then the block writes with their
                        // cycles discarded, exactly as `access` overrides
                        // them.
                        let mut tlb_missed = 0u64;
                        if let Some(tlb) = &mut self.tlb {
                            let mut p = page_of(addr);
                            let last_p = page_of(addr + span);
                            while p <= last_p {
                                let miss = u64::from(!tlb.access_page_untallied(space_salt | p));
                                tlb_acc += 1;
                                tlb_miss += miss;
                                tlb_missed |= miss;
                                p += 1;
                            }
                        }
                        let mut discard = 0u64;
                        let mut b = l1_geo.block_of(addr);
                        let last_b = l1_geo.block_of(addr + span);
                        while b <= last_b {
                            self.access_block(addr.max(b), true, now, &mut discard);
                            b += block_bytes;
                        }
                        out.cycles += lat.l1_hit + tlb_missed * lat.tlb_miss;
                    }
                    // A write-back store miss allocates and may evict the
                    // memoized lines at either level; the store did leave
                    // its last page most-recently-translated, though.
                    cursor.block = NO_MEMO;
                    cursor.l2_block = NO_MEMO;
                    if self.tlb.is_some() {
                        cursor.page = space_salt | page_of(addr + span);
                    }
                }
            }
            // The entry's folded tick run: clock-only events that
            // followed it in the original stream.
            let t = u64::from(ticks);
            now += t;
            out.events += t;
        }
        if l1_tally.any() {
            self.l1.stats_mut().add_read_tally(&l1_tally);
        }
        if l2_tally.any() {
            self.l2.stats_mut().add_read_tally(&l2_tally);
        }
        if tlb_acc > 0 {
            if let Some(tlb) = &mut self.tlb {
                tlb.add_bulk_stats(tlb_acc, tlb_miss);
            }
        }
        out
    }

    /// One demand read of the block holding `addr` on the inline fast
    /// path, returning its cycles — the per-block read body shared by
    /// [`MemorySystem::access_batch`] and the shard lanes. At
    /// associativity one there is no replacement choice, so probes take
    /// the stamp-free single-compare path (`Cache::read_direct`); an L1
    /// miss whose L2 block is `l2_memo` (the L2's most-recently-used line,
    /// a guaranteed hit) skips the L2 probe and stamp. Probes that don't
    /// self-record tally into `l1_tally` / `l2_tally` for one bulk flush.
    ///
    /// Only exact while no prefetch covering the block is in flight and
    /// while every probe since `l2_memo` was set went through this path;
    /// the callers reset the memo otherwise.
    ///
    /// With `ATTRIB`, every probe — and the memoized L2 hit, which makes
    /// none — is reported to the attribution profile at `addr`, which
    /// must then be the first referenced byte of the block.
    #[inline(always)]
    pub(crate) fn read_inline<const ATTRIB: bool>(
        &mut self,
        read: InlineRead,
        addr: u64,
        l2_memo: &mut u64,
        l1_tally: &mut ReadTally,
        l2_tally: &mut ReadTally,
    ) -> u64 {
        let l1_hit = if read.l1_direct {
            self.l1.read_direct::<ATTRIB>(addr, l1_tally)
        } else {
            self.l1.access(addr, false).hit
        };
        if ATTRIB {
            let victim = if l1_hit { None } else { self.l1.last_victim() };
            self.attribute(ObsLevel::L1, addr, Some(l1_hit), victim);
        }
        if l1_hit {
            return read.l1_hit;
        }
        let l2b = read.l2.block_of(addr);
        if *l2_memo == l2b {
            if ATTRIB {
                self.attribute(ObsLevel::L2, addr, Some(true), None);
            }
            l2_tally.reads += 1;
            return read.l2_hit;
        }
        *l2_memo = l2b;
        let l2_hit = if read.l2_direct {
            self.l2.read_direct::<ATTRIB>(addr, l2_tally)
        } else {
            self.l2.access(addr, false).hit
        };
        if ATTRIB {
            let victim = if l2_hit { None } else { self.l2.last_victim() };
            self.attribute(ObsLevel::L2, addr, Some(l2_hit), victim);
        }
        if l2_hit {
            read.l2_hit
        } else {
            read.l2_miss
        }
    }
}

/// The machine constants [`MemorySystem::read_inline`] needs, taken once
/// per batch or lane: reloading them from the system on every probe cost
/// the batched drain a few percent.
#[derive(Clone, Copy)]
pub(crate) struct InlineRead {
    l2: crate::CacheGeometry,
    /// Cycles of a read that hits L1.
    l1_hit: u64,
    /// Cycles of a read that misses L1 and hits L2.
    l2_hit: u64,
    /// Cycles of a read that misses both levels.
    l2_miss: u64,
    l1_direct: bool,
    l2_direct: bool,
}

impl InlineRead {
    pub(crate) fn new(machine: &crate::MachineConfig) -> Self {
        let lat = machine.latency;
        InlineRead {
            l2: machine.l2,
            l1_hit: lat.l1_hit,
            l2_hit: lat.l1_hit + lat.l1_miss,
            l2_miss: lat.l1_hit + lat.l1_miss + lat.l2_miss,
            l1_direct: machine.l1.assoc() == 1,
            l2_direct: machine.l2.assoc() == 1,
        }
    }
}

/// An [`EventSink`] that buffers events into a [`TraceBuf`] and drains
/// them through [`MemorySystem::access_batch`] — the batched counterpart
/// of [`crate::MemorySink`], producing bit-identical statistics and
/// cycles.
///
/// Because events are applied in batches, accessors reflect the stream
/// only up to the last drain: call [`BatchSink::flush`] before reading
/// counters at a measurement point.
///
/// The convenience methods stage through the same fast path as
/// [`TraceRecorder`]'s. A caller that also needs the raw stream wraps the
/// sink in a [`crate::Tee`].
///
/// # Example
///
/// ```
/// use cc_sim::batch::BatchSink;
/// use cc_sim::event::EventSink;
/// use cc_sim::MachineConfig;
///
/// let mut sink = BatchSink::new(MachineConfig::ultrasparc_e5000());
/// sink.load(0x1000, 20);
/// sink.load(0x1014, 20); // same 64-byte L2 block
/// sink.flush();
/// assert_eq!(sink.system().l2_stats().misses(), 1);
/// ```
#[derive(Debug)]
pub struct BatchSink {
    system: MemorySystem,
    buf: TraceBuf,
    cursor: BatchCursor,
    insts: u64,
    branches: u64,
    now: u64,
    cycles: u64,
    /// When armed (only by fault injection), each flush validates the
    /// buffer first. Off by default, so the no-fault hot path is unchanged.
    validate: bool,
    /// Batches that failed validation and were replayed on the scalar path.
    fallback_batches: u64,
    /// Events salvaged through those scalar replays.
    fallback_events: u64,
}

/// Default number of events staged per drain: large enough to amortize the
/// flush bookkeeping, small enough that the three lanes stay resident in
/// the host's L1/L2 caches.
pub const DEFAULT_BATCH_CAPACITY: usize = 4096;

impl BatchSink {
    /// Creates a batched sink simulating `machine`.
    pub fn new(machine: crate::MachineConfig) -> Self {
        Self::with_capacity(machine, DEFAULT_BATCH_CAPACITY)
    }

    /// Creates a batched sink with a custom batch capacity.
    pub fn with_capacity(machine: crate::MachineConfig, cap: usize) -> Self {
        BatchSink {
            system: MemorySystem::new(machine),
            buf: TraceBuf::with_capacity(cap),
            cursor: BatchCursor::new(),
            insts: 0,
            branches: 0,
            now: 0,
            cycles: 0,
            validate: false,
            fallback_batches: 0,
            fallback_events: 0,
        }
    }

    /// Applies `fault` to the currently staged events and arms per-flush
    /// validation for the rest of this sink's life. Only injection pays
    /// the validation cost; an unfaulted sink's flush path is untouched.
    pub fn inject_fault(&mut self, fault: &TraceFault) {
        self.buf.inject_fault(fault);
        self.validate = true;
    }

    /// Batches that failed validation and fell back to the scalar replay.
    pub fn fallback_batches(&self) -> u64 {
        self.fallback_batches
    }

    /// Events salvaged through scalar fallback replays.
    pub fn fallback_events(&self) -> u64 {
        self.fallback_events
    }

    /// Replays the (repaired) buffer one event at a time, mirroring
    /// [`crate::MemorySink::event`] exactly: the reference path the batched
    /// engine is differentially pinned to. Decoded instruction/branch
    /// events carry count 0 (their counts are the buffer's folded totals,
    /// which survive a repair whole, as they did when the sink folded
    /// them at arrival), so the replay only advances the clock for them.
    fn scalar_replay(&mut self) {
        self.insts += self.buf.insts();
        self.branches += self.buf.branches();
        let events: Vec<Event> = self.buf.events().collect();
        for ev in events {
            self.now += 1;
            match ev {
                Event::Inst(n) => self.insts += u64::from(n),
                Event::Branch(n) => self.branches += u64::from(n),
                Event::Load { addr, size, .. } => {
                    self.cycles += self
                        .system
                        .access(addr, size, AccessKind::Read, self.now)
                        .cycles;
                }
                Event::Store { addr, size } => {
                    self.cycles += self
                        .system
                        .access(addr, size, AccessKind::Write, self.now)
                        .cycles;
                }
                Event::Prefetch { addr } => {
                    self.system.prefetch(addr, self.now);
                }
            }
            self.fallback_events += 1;
        }
        // The scalar path bypassed the cursor's memo, so its last-block /
        // last-page shortcuts are stale: drop them before the next batch.
        self.cursor.reset();
    }

    /// Drains buffered events into the memory system. Idempotent when the
    /// buffer is empty.
    pub fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        if self.validate && self.buf.validate().is_err() {
            // Corrupt batch: repair what can be salvaged and replay it on
            // the scalar reference path, then resume batching.
            self.fallback_batches += 1;
            self.buf.repair();
            self.scalar_replay();
            self.buf.clear();
            return;
        }
        let out = self
            .system
            .access_batch(&self.buf, self.now, &mut self.cursor);
        self.now += out.events;
        self.cycles += out.cycles;
        self.insts += out.insts;
        self.branches += out.branches;
        self.buf.clear();
    }

    /// The underlying memory system. Reflects the stream up to the last
    /// [`BatchSink::flush`].
    pub fn system(&self) -> &MemorySystem {
        &self.system
    }

    /// Enables per-region miss attribution. Flushes buffered events first so
    /// the profile covers exactly the events delivered after this call.
    ///
    /// The batched fast paths and block memos stay on: each reports the
    /// probes it resolves (or proves a hit without making), so the
    /// profile matches the scalar engine's and statistics and cycle
    /// totals remain bit-identical to the unattributed run. The
    /// per-probe bookkeeping is the whole extra cost.
    pub fn enable_attribution(&mut self, map: std::sync::Arc<cc_obs::RegionMap>) {
        self.flush();
        self.system.enable_attribution(map);
    }

    /// Additionally attributes demand accesses to struct fields; see
    /// [`MemorySystem::enable_field_attribution`]. Flushes buffered
    /// events first.
    ///
    /// # Panics
    ///
    /// Panics if [`BatchSink::enable_attribution`] was not called.
    pub fn enable_field_attribution(&mut self, map: std::sync::Arc<cc_obs::FieldMap>) {
        self.flush();
        self.system.enable_field_attribution(map);
    }

    /// The attribution profile, if [`BatchSink::enable_attribution`] was
    /// called. Reflects the stream up to the last [`BatchSink::flush`].
    pub fn attribution(&self) -> Option<&cc_obs::MissProfile> {
        self.system.attribution()
    }

    /// Instructions retired. Exact at any time: the staged buffer's
    /// folded total counts too, not only what has been drained.
    pub fn insts(&self) -> u64 {
        self.insts + self.buf.insts()
    }

    /// Branches observed. Exact at any time, like [`BatchSink::insts`].
    pub fn branches(&self) -> u64 {
        self.branches + self.buf.branches()
    }

    /// Accumulated Section 5.1 memory cycles, up to the last flush.
    pub fn memory_cycles(&self) -> u64 {
        self.cycles
    }

    /// Flushes pending events, then zeroes the statistics counters
    /// (cache and TLB *contents* are preserved), mirroring
    /// [`crate::MemorySink::reset_stats`].
    pub fn reset_stats(&mut self) {
        self.flush();
        self.system.reset_stats();
        self.insts = 0;
        self.branches = 0;
        self.cycles = 0;
    }
}

/// Delivers `ev` through [`EventSink::event`] — the cold side of the
/// staging fast paths, kept out of line so the hot side stays small.
#[cold]
#[inline(never)]
fn event_cold<S: EventSink>(sink: &mut S, ev: Event) {
    sink.event(ev);
}

/// The six [`EventSink`] convenience methods over the staging fast path
/// of a [`TraceBuf`]. `$buf` names the sink's field holding the buffer
/// to stage into. A memory event costs one capacity check and four lane
/// pushes; an `Inst`/`Branch` costs one tick bump on the trailing entry. Only the cold cases — an
/// empty or full buffer, a saturated tick lane — go through `event()`,
/// whose packing rule ([`TraceBuf::push_folded`]) the fast path
/// shortcuts, so both routes stage identical lanes.
macro_rules! staging_fast_path {
    ($buf:ident) => {
        #[inline]
        fn inst(&mut self, n: u32) {
            if !self.$buf.try_fold_tick(n, 0) {
                event_cold(self, Event::Inst(n));
            }
        }

        #[inline]
        fn branch(&mut self, n: u32) {
            if !self.$buf.try_fold_tick(0, n) {
                event_cold(self, Event::Branch(n));
            }
        }

        #[inline]
        fn load(&mut self, addr: u64, size: u32) {
            if !self.$buf.try_push_mem(PackedKind::LoadDep, addr, size) {
                event_cold(self, Event::load(addr, size));
            }
        }

        #[inline]
        fn load_indep(&mut self, addr: u64, size: u32) {
            if !self.$buf.try_push_mem(PackedKind::LoadIndep, addr, size) {
                event_cold(self, Event::load_indep(addr, size));
            }
        }

        #[inline]
        fn store(&mut self, addr: u64, size: u32) {
            if !self.$buf.try_push_mem(PackedKind::Store, addr, size) {
                event_cold(self, Event::store(addr, size));
            }
        }

        #[inline]
        fn prefetch(&mut self, addr: u64) {
            if !self.$buf.try_push_mem(PackedKind::Prefetch, addr, 0) {
                event_cold(self, Event::Prefetch { addr });
            }
        }
    };
}

impl EventSink for BatchSink {
    staging_fast_path!(buf);

    fn event(&mut self, ev: Event) {
        // Drain lazily, just before the event that needs the room: a full
        // buffer can still fold trailing ticks, so keeping it around lets
        // tick runs at the boundary coalesce.
        if !self.buf.push_folded(ev) {
            self.flush();
            let staged = self.buf.push_folded(ev);
            debug_assert!(staged, "an empty buffer takes any event");
        }
    }
}

/// An [`EventSink`] that records a stream straight into fixed-capacity
/// [`TraceBuf`] chunks — the one way a trace is recorded for storing,
/// splitting, and replaying.
///
/// Memory events take one packed entry each. An `Inst` or `Branch` event
/// takes none: its clock tick folds into the preceding entry's tick lane
/// and its count into the chunk's [`TraceBuf::insts`] /
/// [`TraceBuf::branches`] totals — the rule [`BatchSink`] applies as
/// events arrive. Replaying the chunks through
/// [`MemorySystem::access_batch`] or a [`crate::ShardedReplayer`]
/// therefore reproduces the scalar sink's statistics, cycles,
/// instruction and branch totals, and event count, from about a third of
/// the entries a lossless [`TraceBuf::push`] packing stages for a
/// load/inst/branch pointer chase.
///
/// The [`EventSink`] convenience methods (`load`, `inst`, …) stage the
/// same lanes without going through [`Event`]: a memory event is one
/// capacity check and four lane pushes, an `Inst`/`Branch` one tick
/// bump. Only an empty or full chunk, or a saturated tick lane, takes
/// the general path.
///
/// # Example
///
/// ```
/// use cc_sim::batch::TraceRecorder;
/// use cc_sim::event::EventSink;
///
/// let mut rec = TraceRecorder::new();
/// rec.load(0x40, 8);
/// rec.inst(3);
/// rec.branch(1);
/// let chunks = rec.finish();
/// assert_eq!(chunks.len(), 1);
/// assert_eq!(chunks[0].len(), 1, "the inst and branch folded away");
/// assert_eq!((chunks[0].insts(), chunks[0].branches()), (3, 1));
/// assert_eq!(chunks[0].event_total(), 3);
/// ```
#[derive(Debug)]
pub struct TraceRecorder {
    cur: TraceBuf,
    chunks: Vec<TraceBuf>,
}

impl TraceRecorder {
    /// A recorder writing [`DEFAULT_BATCH_CAPACITY`]-entry chunks.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_BATCH_CAPACITY)
    }

    /// A recorder writing `cap`-entry chunks.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn with_capacity(cap: usize) -> Self {
        TraceRecorder {
            cur: TraceBuf::with_capacity(cap),
            chunks: Vec::new(),
        }
    }

    /// The recorded chunks, in stream order (none for an empty stream).
    /// The last chunk's lanes are trimmed to their length: it is never
    /// filled further, and a stored trace is budgeted by
    /// [`TraceBuf::approx_bytes`], which counts entries, not capacity.
    pub fn finish(mut self) -> Vec<TraceBuf> {
        if !self.cur.is_empty() {
            self.cur.shrink_to_fit();
            self.chunks.push(self.cur);
        }
        self.chunks
    }

    /// Seals the full current chunk, starts an empty one, and stages `ev`
    /// there.
    #[cold]
    fn rotate(&mut self, ev: Event) {
        let next = TraceBuf::with_capacity(self.cur.capacity());
        self.chunks.push(std::mem::replace(&mut self.cur, next));
        let staged = self.cur.push_folded(ev);
        debug_assert!(staged, "an empty chunk takes any event");
    }
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl EventSink for TraceRecorder {
    staging_fast_path!(cur);

    #[inline]
    fn event(&mut self, ev: Event) {
        if !self.cur.push_folded(ev) {
            self.rotate(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineConfig;

    #[test]
    fn tracebuf_roundtrips_all_kinds() {
        let evs = [
            Event::Inst(3),
            Event::Branch(1),
            Event::load(0x100, 8),
            Event::load_indep(0x200, 4),
            Event::store(0x300, 16),
            Event::Prefetch { addr: 0x400 },
        ];
        let mut buf = TraceBuf::with_capacity(8);
        for &e in &evs {
            buf.push(e);
        }
        let back: Vec<Event> = buf.events().collect();
        assert_eq!(back, evs);
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), 8);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn tracebuf_rejects_overflow() {
        let mut buf = TraceBuf::with_capacity(1);
        buf.push(Event::Inst(1));
        buf.push(Event::Inst(1));
    }

    #[test]
    fn tick_runs_fold_into_the_preceding_entry() {
        let mut buf = TraceBuf::with_capacity(4);
        buf.push_ticks(2); // head of buffer: needs a standalone gap entry
        buf.push(Event::load(0x100, 8));
        buf.push_ticks(1);
        buf.push_ticks(2); // widens the same run
        buf.push(Event::store(0x200, 8));
        buf.push_ticks(1);
        assert_eq!(buf.len(), 3, "tick runs consumed no extra entries");
        let back: Vec<Event> = buf.events().collect();
        assert_eq!(
            back,
            vec![
                Event::Inst(0),
                Event::Inst(0),
                Event::load(0x100, 8),
                Event::Inst(0),
                Event::Inst(0),
                Event::Inst(0),
                Event::store(0x200, 8),
                Event::Inst(0),
            ]
        );
        assert!(buf.can_fold_ticks(1));
        assert!(!TraceBuf::with_capacity(1).can_fold_ticks(1));
    }

    #[test]
    fn full_buffer_still_absorbs_ticks() {
        let mut buf = TraceBuf::with_capacity(1);
        buf.push(Event::load(0x40, 8));
        assert!(buf.is_full());
        buf.push_ticks(3); // folds; must not panic
        assert_eq!(buf.events().count(), 4);
    }

    #[test]
    fn batch_sink_matches_scalar_on_a_pointer_chase() {
        use crate::{EventSink, MemorySink};
        let machine = MachineConfig::test_tiny();
        let mut scalar = MemorySink::new(machine);
        let mut batched = BatchSink::with_capacity(machine, 3); // force mid-stream drains
        drive(&mut scalar);
        drive(&mut batched);
        batched.flush();
        assert_eq!(batched.system().l1_stats(), scalar.system().l1_stats());
        assert_eq!(batched.system().l2_stats(), scalar.system().l2_stats());
        assert_eq!(batched.system().tlb_stats(), scalar.system().tlb_stats());
        assert_eq!(batched.memory_cycles(), scalar.memory_cycles());
        assert_eq!(batched.insts(), scalar.insts());

        fn drive<S: EventSink + ?Sized>(s: &mut S) {
            // Same-block run, a straddle, a store, a prefetch, a revisit.
            s.load(0x100, 8);
            s.load(0x104, 8);
            s.load(0x108, 8);
            s.inst(2);
            s.load(0x10c, 8); // straddles into the next block
            s.store(0x140, 8);
            s.prefetch(0x200);
            s.load(0x200, 8);
            s.load(0x100, 8);
        }
    }

    #[test]
    fn flush_is_idempotent_and_counters_accumulate() {
        use crate::EventSink;
        let mut sink = BatchSink::new(MachineConfig::test_tiny());
        sink.load(0x40, 8);
        sink.flush();
        let c = sink.memory_cycles();
        sink.flush();
        assert_eq!(sink.memory_cycles(), c);
        assert!(c > 0);
        sink.reset_stats();
        assert_eq!(sink.memory_cycles(), 0);
        assert_eq!(sink.system().l1_stats().accesses(), 0);
    }

    #[test]
    fn validate_catches_truncated_lanes_and_repair_restores_them() {
        let mut buf = TraceBuf::with_capacity(8);
        for i in 0..5 {
            buf.push(Event::load(0x100 + i * 0x40, 8));
        }
        assert_eq!(buf.validate(), Ok(()));
        buf.inject_fault(&TraceFault::TruncateAddrLane { keep: 3 });
        assert_eq!(
            buf.validate(),
            Err(TraceCorruption::LaneMismatch {
                kinds: 5,
                addrs: 3,
                sizes: 5,
                ticks: 5,
            })
        );
        assert_eq!(buf.repair(), 2, "two entries lost to truncation");
        assert_eq!(buf.validate(), Ok(()));
        let back: Vec<Event> = buf.events().collect();
        assert_eq!(
            back,
            vec![
                Event::load(0x100, 8),
                Event::load(0x140, 8),
                Event::load(0x180, 8),
            ]
        );
    }

    #[test]
    fn validate_catches_zero_gap_runs() {
        let mut buf = TraceBuf::with_capacity(8);
        buf.push_ticks(2); // standalone gap entry at index 0
        buf.push(Event::load(0x100, 8));
        buf.inject_fault(&TraceFault::ZeroGapRun { entry: 0 });
        assert_eq!(
            buf.validate(),
            Err(TraceCorruption::EmptyGapRun { entry: 0 })
        );
        assert_eq!(buf.repair(), 1, "the empty gap is dropped");
        assert_eq!(buf.validate(), Ok(()));
        assert_eq!(
            buf.events().collect::<Vec<_>>(),
            vec![Event::load(0x100, 8)]
        );
    }

    #[test]
    fn scramble_is_deterministic_and_spares_count_lanes() {
        let build = || {
            let mut buf = TraceBuf::with_capacity(8);
            buf.push(Event::Inst(7));
            buf.push(Event::load(0x1000, 8));
            buf.push_ticks(3);
            buf.push(Event::store(0x2000, 8));
            buf
        };
        let clean = build();
        let mut a = build();
        let mut b = build();
        a.inject_fault(&TraceFault::ScrambleAddrs { seed: 42 });
        b.inject_fault(&TraceFault::ScrambleAddrs { seed: 42 });
        // Same seed, same corruption — the replayable-fault property.
        assert_eq!(
            a.events().collect::<Vec<_>>(),
            b.events().collect::<Vec<_>>()
        );
        assert_ne!(
            a.events().collect::<Vec<_>>(),
            clean.events().collect::<Vec<_>>()
        );
        // Structure stays valid: scramble is a semantic fault.
        assert_eq!(a.validate(), Ok(()));
        // Counts (Inst run length, gap run length) are untouched.
        let back: Vec<Event> = a.events().collect();
        assert_eq!(back[0], Event::Inst(7));
        assert_eq!(&back[2..5], &[Event::Inst(0); 3]);
    }

    #[test]
    fn corrupt_batch_falls_back_to_scalar_and_matches_the_reference() {
        use crate::{EventSink, MemorySink};
        let machine = MachineConfig::test_tiny();
        let mut batched = BatchSink::with_capacity(machine, 8);
        batched.inst(2);
        for i in 0..5 {
            batched.load(0x100 + i * 0x40, 8);
        }
        batched.inject_fault(&TraceFault::TruncateAddrLane { keep: 4 });
        batched.flush();
        assert_eq!(batched.fallback_batches(), 1);
        assert!(batched.fallback_events() > 0);
        // Reference: the scalar sink fed the surviving (repaired) stream.
        // The instruction event's tick occupies one buffer entry ahead of
        // the loads, so truncating the address lane to 4 keeps 3 loads.
        let mut reference = MemorySink::new(machine);
        reference.inst(2);
        for i in 0..3 {
            reference.load(0x100 + i * 0x40, 8);
        }
        assert_eq!(batched.system().l1_stats(), reference.system().l1_stats());
        assert_eq!(batched.system().tlb_stats(), reference.system().tlb_stats());
        assert_eq!(batched.memory_cycles(), reference.memory_cycles());
        assert_eq!(batched.insts(), reference.insts());
        // The sink recovers: later batches run on the fast path again.
        batched.load(0x400, 8);
        batched.flush();
        assert_eq!(batched.fallback_batches(), 1, "clean batch stayed batched");
        assert_eq!(
            batched.system().l1_stats().accesses(),
            reference.system().l1_stats().accesses() + 1
        );
    }

    #[test]
    fn tlb_memo_is_keyed_by_page_and_space() {
        use crate::MemorySystem;
        let machine = MachineConfig::test_tiny();
        let mut sys = MemorySystem::new(machine);
        let mut cursor = BatchCursor::new();
        let mut a = TraceBuf::with_capacity(4);
        a.push(Event::load(0x100, 8));
        let mut b = TraceBuf::with_capacity(4);
        b.set_space(1);
        b.push(Event::load(0x100, 8)); // same numeric page, another space
        let o = sys.access_batch(&a, 0, &mut cursor);
        sys.access_batch(&b, o.events, &mut cursor);
        let t = sys.tlb_stats();
        assert_eq!(t.accesses(), 2);
        // Pinned regression: with the memo keyed by page alone, the second
        // buffer's translation would ride the first one's memo and this
        // would read 1 — a hit the other space never earned.
        assert_eq!(t.misses(), 2, "each space translates its page cold");
        // The caches are physically tagged, so the *block* memo must still
        // fire across spaces: one miss, then a guaranteed hit.
        assert_eq!(sys.l1_stats().reads(), 2);
        assert_eq!(sys.l1_stats().read_misses(), 1);
    }

    #[test]
    fn salted_store_arm_matches_the_reference_store_arm() {
        use crate::MemorySystem;
        // Within a single space the salt is a bijection on TLB keys, so a
        // space-1 replay (manual store decomposition) must be observably
        // identical to the same trace in space 0 (reference `access` arm).
        let machine = MachineConfig::test_tiny();
        let build = |space: u32| {
            let mut buf = TraceBuf::with_capacity(16);
            buf.set_space(space);
            buf.push(Event::store(0x100, 8));
            buf.push(Event::load(0x104, 8));
            buf.push(Event::store(0x1fc, 8)); // straddles a page boundary
            buf.push(Event::store(0x100, 20));
            buf.push(Event::load(0x400, 8));
            buf
        };
        let run = |space: u32| {
            let mut sys = MemorySystem::new(machine);
            let mut cursor = BatchCursor::new();
            let out = sys.access_batch(&build(space), 0, &mut cursor);
            (out, sys.l1_stats(), sys.l2_stats(), sys.tlb_stats())
        };
        assert_eq!(run(0), run(1));
    }

    #[test]
    fn compact_codec_roundtrips() {
        let mut buf = TraceBuf::with_capacity(16);
        buf.set_space(3);
        buf.push(Event::Inst(2));
        buf.push(Event::load(0x1000, 20));
        buf.push_ticks(5);
        buf.push(Event::load(0xfe0, 20)); // negative address delta
        buf.push(Event::store(0x2000, 8));
        buf.push(Event::Prefetch { addr: 0x40 });
        buf.push(Event::Branch(1));
        let text = buf.encode_compact();
        let back = TraceBuf::decode_compact(&text).expect("roundtrip");
        assert_eq!(back.capacity(), buf.capacity());
        assert_eq!(back.space(), buf.space());
        assert_eq!(
            back.events().collect::<Vec<_>>(),
            buf.events().collect::<Vec<_>>()
        );
        assert!(buf.approx_bytes() > 0);
    }

    #[test]
    fn compact_codec_rejects_tampered_text() {
        let mut buf = TraceBuf::with_capacity(4);
        buf.push(Event::load(0x40, 8));
        let text = buf.encode_compact();
        assert!(TraceBuf::decode_compact("").is_none());
        assert!(TraceBuf::decode_compact("ccbuf v2 4 0 1\nk \na \ns \nt ").is_none());
        // Truncating a lane line breaks the lane-length cross-check.
        let truncated: String = text.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(TraceBuf::decode_compact(&truncated).is_none());
        // An out-of-range kind digit is rejected, not wrapped.
        let bad = text.replace("k 2x1", "k 9x1");
        assert!(TraceBuf::decode_compact(&bad).is_none());
    }

    #[test]
    fn compact_codec_roundtrips_the_folded_totals() {
        let mut rec = TraceRecorder::with_capacity(4);
        rec.inst(7); // leads with an instruction: a standalone gap entry
        for i in 0..6 {
            rec.load(0x1000 + i * 0x40, 20);
            rec.inst(3);
            rec.branch(1);
        }
        let chunks = rec.finish();
        assert_eq!(chunks.len(), 2);
        for buf in &chunks {
            let back = TraceBuf::decode_compact(&buf.encode_compact()).expect("roundtrip");
            assert_eq!(
                (back.insts(), back.branches()),
                (buf.insts(), buf.branches())
            );
            assert_eq!(back.event_total(), buf.event_total());
            assert_eq!(
                back.events().collect::<Vec<_>>(),
                buf.events().collect::<Vec<_>>()
            );
        }
        let insts: u64 = chunks.iter().map(TraceBuf::insts).sum();
        let branches: u64 = chunks.iter().map(TraceBuf::branches).sum();
        assert_eq!((insts, branches), (7 + 6 * 3, 6));
        // The same buffer in the v1 layout (no totals in the header) is a
        // miss, never decoded with the totals silently zeroed.
        let text = chunks[0].encode_compact();
        let header = text.lines().next().expect("header line");
        let v1_header = header.split(' ').take(5).collect::<Vec<_>>().join(" ");
        let v1 = text.replacen(header, &v1_header.replacen("v2", "v1", 1), 1);
        assert!(v1.starts_with("ccbuf v1 4 0 "));
        assert!(TraceBuf::decode_compact(&v1).is_none());
    }

    /// A machine with a 4-bit L1/L2 set-field overlap, so 2 and 4 shards
    /// are real partitions.
    fn overlapped() -> MachineConfig {
        MachineConfig {
            l1: crate::CacheGeometry::new(64, 16, 1),
            l2: crate::CacheGeometry::new(64, 64, 1),
            ..MachineConfig::test_tiny()
        }
    }

    /// Batched and 1/2/4-shard replay totals of a chunk sequence.
    fn replay_totals(bufs: &[TraceBuf]) -> Vec<(u64, u64, u64, u64)> {
        let machine = overlapped();
        let mut sys = MemorySystem::new(machine);
        let mut cursor = BatchCursor::new();
        let mut b = BatchOutcome::default();
        for buf in bufs {
            let o = sys.access_batch(buf, b.events, &mut cursor);
            b.cycles += o.cycles;
            b.insts += o.insts;
            b.branches += o.branches;
            b.events += o.events;
        }
        let mut out = vec![(b.cycles, b.insts, b.branches, b.events)];
        for shards in [1, 2, 4] {
            let mut r = crate::ShardedReplayer::new(machine, shards);
            r.replay(&r.split(bufs));
            out.push((r.memory_cycles(), r.insts(), r.branches(), r.events()));
        }
        out
    }

    /// Routes every event through [`EventSink::event`], bypassing a
    /// sink's convenience-method fast paths.
    struct ViaEvent<'a, S: EventSink>(&'a mut S);

    impl<S: EventSink> EventSink for ViaEvent<'_, S> {
        fn event(&mut self, ev: Event) {
            self.0.event(ev);
        }
    }

    /// Every lane and total of a buffer, for exact comparison.
    #[allow(clippy::type_complexity)]
    fn lanes(b: &TraceBuf) -> (Vec<PackedKind>, Vec<u64>, Vec<u32>, Vec<u32>, u64, u64) {
        (
            b.kinds.clone(),
            b.addrs.clone(),
            b.sizes.clone(),
            b.ticks.clone(),
            b.insts,
            b.branches,
        )
    }

    #[test]
    fn recorder_folds_past_a_saturated_tick_lane() {
        const NEAR: u64 = u32::MAX as u64 - 1;
        let tail = |s: &mut dyn EventSink| {
            s.inst(2); // fills the lane to u32::MAX
            s.branch(1); // saturated: a gap entry takes the tick
            s.inst(4); // folds into the gap entry
            s.load(0x80, 8);
            s.inst(1);
        };
        // Lossless reference: a load followed by NEAR clock-only ticks.
        let mut want = TraceBuf::with_capacity(16);
        want.push(Event::load(0x40, 8));
        want.push_ticks(NEAR);
        for ev in [
            Event::Inst(2),
            Event::Branch(1),
            Event::Inst(4),
            Event::load(0x80, 8),
            Event::Inst(1),
        ] {
            want.push(ev);
        }
        for cap in [1usize, 2, 16] {
            let mut rec = TraceRecorder::with_capacity(cap);
            rec.load(0x40, 8);
            *rec.cur.ticks.last_mut().unwrap() = NEAR as u32;
            tail(&mut rec);
            let got = rec.finish();

            // The convenience methods' fast path falls back exactly as
            // `event()` packs, in the recorder and in the batched sink.
            let mut slow = TraceRecorder::with_capacity(cap);
            slow.event(Event::load(0x40, 8));
            *slow.cur.ticks.last_mut().unwrap() = NEAR as u32;
            tail(&mut ViaEvent(&mut slow));
            assert_eq!(
                got.iter().map(lanes).collect::<Vec<_>>(),
                slow.finish().iter().map(lanes).collect::<Vec<_>>(),
                "capacity {cap}"
            );
            let mut fast = BatchSink::with_capacity(overlapped(), 16);
            let mut slow = BatchSink::with_capacity(overlapped(), 16);
            fast.load(0x40, 8);
            slow.event(Event::load(0x40, 8));
            *fast.buf.ticks.last_mut().unwrap() = NEAR as u32;
            *slow.buf.ticks.last_mut().unwrap() = NEAR as u32;
            tail(&mut fast);
            tail(&mut ViaEvent(&mut slow));
            assert_eq!(lanes(&fast.buf), lanes(&slow.buf));

            assert_eq!(
                replay_totals(&got),
                replay_totals(std::slice::from_ref(&want)),
                "capacity {cap}"
            );
            assert_eq!(
                got.iter().map(TraceBuf::event_total).sum::<u64>(),
                want.event_total()
            );
        }
    }

    #[test]
    fn finish_trims_only_the_last_chunk() {
        let drive = |s: &mut dyn EventSink| {
            for i in 0..10u64 {
                s.load(0x40 * i, 8);
                s.inst(3);
                s.branch(1);
            }
        };
        let mut rec = TraceRecorder::with_capacity(4);
        drive(&mut rec);
        let chunks = rec.finish();
        let mut reference = crate::event::TraceBuffer::new();
        drive(&mut reference);
        let decoded: Vec<Event> = chunks.iter().flat_map(TraceBuf::events).collect();
        let want: Vec<Event> = reference
            .events()
            .iter()
            .map(|&ev| match ev {
                Event::Inst(_) | Event::Branch(_) => Event::Inst(0),
                ev => ev,
            })
            .collect();
        assert_eq!(decoded, want, "trimming moved no event");
        assert_eq!(chunks.iter().map(TraceBuf::insts).sum::<u64>(), 30);
        assert_eq!(chunks.iter().map(TraceBuf::branches).sum::<u64>(), 10);

        let lane_caps = |c: &TraceBuf| {
            [
                c.kinds.capacity(),
                c.addrs.capacity(),
                c.sizes.capacity(),
                c.ticks.capacity(),
            ]
        };
        let (last, full) = chunks.split_last().expect("three chunks");
        assert_eq!(full.len(), 2);
        for c in full {
            assert!(
                lane_caps(c).iter().all(|&cap| cap >= 4),
                "full chunks keep capacity"
            );
        }
        assert_eq!(last.len(), 2);
        assert_eq!(
            lane_caps(last),
            [2; 4],
            "the last chunk is trimmed to length"
        );
        assert_eq!(last.capacity(), 4, "the logical capacity is unchanged");
    }

    #[test]
    fn unfaulted_sink_never_pays_for_validation() {
        use crate::EventSink;
        let mut sink = BatchSink::new(MachineConfig::test_tiny());
        for i in 0..10 {
            sink.load(0x100 + i * 0x40, 8);
        }
        sink.flush();
        assert_eq!(sink.fallback_batches(), 0);
        assert_eq!(sink.fallback_events(), 0);
    }
}
