//! Content-addressed trace store: generate a trace once, replay it many
//! times.
//!
//! Sweep cells are pure functions of their coordinates, and so are the
//! traces they replay: the event stream is fully determined by (workload,
//! layout, machine geometry, seed). Yet before this store every figure
//! cell regenerated its trace from scratch — tree construction, morphing,
//! and event emission dominating cells whose *replay* the sharded engine
//! has made cheap. The store keys each trace by a [`TraceKey`] digest of
//! those coordinates and hands back a shared [`Arc`] of packed
//! [`TraceBuf`]s:
//!
//! * **In-memory LRU with a byte budget.** Entries are charged
//!   [`TraceBuf::approx_bytes`]; when an insert pushes the total over
//!   budget, least-recently-used entries (never the one just returned)
//!   are dropped and counted. Figure sweeps whose cells share a machine
//!   and workload hit the same entry instead of regenerating.
//! * **Optional on-disk tier.** When constructed [`TraceStore::from_env`]
//!   with `CC_TRACE_CACHE=<dir>` set, misses fall through to
//!   `<dir>/<key:016x>.cctrace` files in the same hex-stable ASCII
//!   encoding as sweep checkpoints ([`TraceBuf::encode_compact`]), so
//!   warm traces survive process restarts and `fig5`-sized reruns skip
//!   generation entirely. The tier degrades, never fails: a file that
//!   fails to decode is counted (`disk_corrupt`), reported on stderr, and
//!   regenerated — never trusted — and an unusable directory or an I/O
//!   error (bad mount, revoked permissions) is counted (`disk_errors`),
//!   reported once, and latches the tier off, leaving a memory-only store
//!   whose results are bit-identical to the healthy path.
//! * **Deterministic generation.** The generator runs under the store
//!   lock: a key is generated exactly once per process no matter how many
//!   sweep workers race for it, and the counters
//!   ([`TraceStore::counters`]) make "the warm cell skipped generation"
//!   an assertable fact rather than a hope.

use cc_sim::cache::WritePolicy;
use cc_sim::{CacheGeometry, MachineConfig, SplitPool, TraceBuf};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

/// SplitMix64's finalizer: the same mix `cell_seed` uses.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A content address for one trace: an order-sensitive fold of the
/// coordinates that determine the event stream — a workload tag, the
/// machine geometry (block/set/associativity/policy per level, latencies,
/// pages, TLB size), and any free parameters (tree size, search count,
/// seed, segment index).
///
/// Two cells that fold the same coordinates get the same key and share
/// one generated trace; any differing coordinate lands elsewhere in the
/// 64-bit space.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceKey {
    h: u64,
}

impl TraceKey {
    /// Starts a key from a workload tag (e.g. `"fig5-ctree"`).
    pub fn new(tag: &str) -> Self {
        let mut key = TraceKey { h: 0xCC1A_0E57 };
        for b in tag.as_bytes() {
            key = key.fold(u64::from(*b));
        }
        key.fold(tag.len() as u64)
    }

    /// Folds one 64-bit coordinate into the key.
    pub fn fold(self, v: u64) -> Self {
        TraceKey {
            h: mix(self.h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }

    /// Folds every geometry-relevant field of `machine`: anything that
    /// changes the *trace* (not just its replay) must be here. Block and
    /// set geometry change event decomposition in packed buffers is
    /// address-level, so the full machine shape is folded conservatively.
    pub fn machine(self, machine: &MachineConfig) -> Self {
        let geo =
            |k: Self, g: &CacheGeometry| k.fold(g.sets()).fold(g.block_bytes()).fold(g.assoc());
        let policy = |p: WritePolicy| match p {
            WritePolicy::WriteThrough => 0u64,
            WritePolicy::WriteBack => 1u64,
        };
        geo(geo(self, &machine.l1), &machine.l2)
            .fold(policy(machine.l1_policy))
            .fold(policy(machine.l2_policy))
            .fold(machine.latency.l1_hit)
            .fold(machine.latency.l1_miss)
            .fold(machine.latency.l2_miss)
            .fold(machine.latency.tlb_miss)
            .fold(machine.page_bytes)
            .fold(machine.tlb_entries as u64)
            .fold(machine.clock_mhz)
    }

    /// The finished 64-bit content address.
    pub fn value(&self) -> u64 {
        self.h
    }
}

/// One on-disk lookup's outcome, separating the three failure shapes the
/// caller treats differently: absent (plain miss), mangled (count and
/// regenerate), unreadable (latch the tier off).
enum DiskRead {
    Hit(Arc<Vec<TraceBuf>>),
    Miss,
    Corrupt,
    IoError(std::io::Error),
}

/// Observable store activity (monotonic over the store's life).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Requests served from the in-memory tier.
    pub hits: u64,
    /// Requests that missed the in-memory tier.
    pub misses: u64,
    /// Misses served by decoding an on-disk `.cctrace` file.
    pub disk_hits: u64,
    /// Misses that ran the generator closure.
    pub generations: u64,
    /// Entries dropped by the byte-budget LRU.
    pub evictions: u64,
    /// Generated traces larger than the whole budget: returned to the
    /// caller but never cached (caching one would pin it resident while
    /// it evicted everything else).
    pub oversized: u64,
    /// Disk-tier I/O failures: an unusable cache directory at
    /// construction, or a read/write error at runtime. The first runtime
    /// failure disables the tier for the store's life — the store
    /// degrades to memory-only rather than failing requests.
    pub disk_errors: u64,
    /// On-disk files that failed to decode: treated as misses, never
    /// trusted, and regenerated.
    pub disk_corrupt: u64,
    /// Sampled-result lookups served from the side cache.
    pub sampled_hits: u64,
    /// Sampled-result lookups that missed.
    pub sampled_misses: u64,
    /// Sampled results stored.
    pub sampled_puts: u64,
}

struct Entry {
    bufs: Arc<Vec<TraceBuf>>,
    bytes: usize,
    stamp: u64,
}

struct StoreInner {
    map: HashMap<u64, Entry>,
    bytes: usize,
    stamp: u64,
    counters: StoreCounters,
    /// Sampled-simulation results (opaque encoded strings) keyed by a
    /// [`TraceKey`] that folds the *sampling configuration* on top of the
    /// trace coordinates — a couple hundred bytes each, so a count-capped
    /// LRU rather than a byte-budgeted one.
    sampled: HashMap<u64, (Arc<str>, u64)>,
}

/// The content-addressed trace store. Cheap to share behind an `Arc`;
/// all methods take `&self`.
pub struct TraceStore {
    inner: Mutex<StoreInner>,
    budget: usize,
    disk: Option<PathBuf>,
    /// Latched by the first runtime disk failure: the tier is skipped
    /// from then on (degraded to memory-only), so one bad mount surfaces
    /// as one counter bump and one stderr line, not an error per miss.
    disk_down: std::sync::atomic::AtomicBool,
    /// Reusable shard-split buffers, pooled at the same scope as the
    /// traces themselves: a sweep that replays many cached traces splits
    /// each one into lanes, and recycling those lane vectors here makes
    /// the steady-state split allocation-free
    /// ([`cc_sim::ShardedReplayer::split_pooled`]).
    split_pool: SplitPool,
}

impl TraceStore {
    /// Default in-memory byte budget: enough for every segment-sized
    /// trace a quick figure run touches, far below a full `fig5` trace.
    pub const DEFAULT_BUDGET: usize = 256 << 20;

    /// A memory-only store with `budget` bytes of trace residency.
    pub fn with_budget(budget: usize) -> Self {
        TraceStore {
            inner: Mutex::new(StoreInner {
                map: HashMap::new(),
                bytes: 0,
                stamp: 0,
                counters: StoreCounters::default(),
                sampled: HashMap::new(),
            }),
            budget: budget.max(1),
            disk: None,
            disk_down: std::sync::atomic::AtomicBool::new(false),
            split_pool: SplitPool::new(),
        }
    }

    /// The store's shared shard-split buffer pool. Pass it to
    /// [`cc_sim::ShardedReplayer::split_pooled`] and return consumed
    /// splits with [`SplitPool::recycle`]; every sweep worker sharing
    /// this store then shares one warm set of lane buffers.
    pub fn split_pool(&self) -> &SplitPool {
        &self.split_pool
    }

    /// Adds an on-disk tier rooted at `dir` (created if absent). An
    /// unusable directory — unwritable, or an existing non-directory —
    /// degrades the store to memory-only: the failure is counted
    /// ([`StoreCounters::disk_errors`]) and reported on stderr once, and
    /// every request still succeeds from the memory tier.
    pub fn with_disk(mut self, dir: PathBuf) -> Self {
        match std::fs::create_dir_all(&dir) {
            Ok(()) => self.disk = Some(dir),
            Err(e) => {
                eprintln!(
                    "cc-sweep: trace cache directory {} is unusable ({e}); \
                     continuing with the memory tier only",
                    dir.display()
                );
                self.inner
                    .lock()
                    .expect("trace store poisoned")
                    .counters
                    .disk_errors += 1;
                self.disk = None;
            }
        }
        self
    }

    /// The standard store: [`TraceStore::DEFAULT_BUDGET`] of memory, plus
    /// the on-disk tier iff `CC_TRACE_CACHE` names a directory.
    pub fn from_env() -> Self {
        let store = TraceStore::with_budget(Self::DEFAULT_BUDGET);
        match std::env::var_os("CC_TRACE_CACHE") {
            Some(dir) if !dir.is_empty() => store.with_disk(PathBuf::from(dir)),
            _ => store,
        }
    }

    /// Whether an on-disk tier is active.
    pub fn has_disk(&self) -> bool {
        self.disk.is_some()
    }

    /// The trace for `key`, generating it with `generate` only on a cold
    /// miss (both tiers empty). The generator runs under the store lock,
    /// so each key is generated at most once per process; determinism of
    /// the *content* is the caller's contract (the generator must be a
    /// pure function of the key's coordinates).
    pub fn get_or_generate(
        &self,
        key: TraceKey,
        generate: impl FnOnce() -> Vec<TraceBuf>,
    ) -> Arc<Vec<TraceBuf>> {
        let k = key.value();
        let mut inner = self.inner.lock().expect("trace store poisoned");
        inner.stamp += 1;
        let stamp = inner.stamp;
        if let Some(entry) = inner.map.get_mut(&k) {
            entry.stamp = stamp;
            let bufs = Arc::clone(&entry.bufs);
            inner.counters.hits += 1;
            return bufs;
        }
        inner.counters.misses += 1;

        let disk_live = self.disk.is_some() && !self.disk_down.load(Ordering::Relaxed);
        let mut from_disk = false;
        let mut found = None;
        if disk_live {
            match self.disk_read(k) {
                DiskRead::Hit(bufs) => {
                    from_disk = true;
                    found = Some(bufs);
                }
                DiskRead::Miss => {}
                DiskRead::Corrupt => {
                    // A mangled file is counted and regenerated, never
                    // trusted; the tier itself stays up (other keys may be
                    // intact).
                    inner.counters.disk_corrupt += 1;
                    eprintln!("cc-sweep: corrupt trace cache file {k:016x}.cctrace; regenerating");
                }
                DiskRead::IoError(e) => {
                    // An unreadable tier (bad mount, revoked permissions)
                    // is latched off: the store degrades to memory-only
                    // for its remaining life instead of erroring per miss.
                    inner.counters.disk_errors += 1;
                    self.disk_down.store(true, Ordering::Relaxed);
                    eprintln!(
                        "cc-sweep: trace cache read failed ({e}); \
                         disabling the disk tier, continuing memory-only"
                    );
                }
            }
        }
        let bufs = found.unwrap_or_else(|| {
            inner.counters.generations += 1;
            Arc::new(generate())
        });
        if from_disk {
            inner.counters.disk_hits += 1;
        } else if disk_live && !self.disk_down.load(Ordering::Relaxed) {
            // Best-effort persist: an unwritable cache directory degrades
            // reuse, never results — counted once, then the tier is off.
            let dir = self.disk.as_ref().expect("disk_live implies dir");
            if let Err(e) =
                std::fs::write(dir.join(format!("{k:016x}.cctrace")), encode_file(&bufs))
            {
                inner.counters.disk_errors += 1;
                self.disk_down.store(true, Ordering::Relaxed);
                eprintln!(
                    "cc-sweep: trace cache write failed ({e}); \
                     disabling the disk tier, continuing memory-only"
                );
            }
        }

        let bytes: usize = bufs.iter().map(TraceBuf::approx_bytes).sum();
        if bytes > self.budget {
            // A trace bigger than the whole budget can never coexist with
            // anything: caching it would pin it resident (the LRU never
            // evicts the entry just returned) while evicting every other
            // entry. Hand it to the caller uncached; the budget stays
            // untouched, so no later eviction can underflow it.
            inner.counters.oversized += 1;
            return bufs;
        }
        inner.bytes += bytes;
        inner.map.insert(
            k,
            Entry {
                bufs: Arc::clone(&bufs),
                bytes,
                stamp,
            },
        );
        // Byte-budget LRU: drop the least-recently-used entries (never
        // the one being returned) until back under budget.
        while inner.bytes > self.budget && inner.map.len() > 1 {
            let Some((&victim, _)) = inner
                .map
                .iter()
                .filter(|(&vk, _)| vk != k)
                .min_by_key(|(_, e)| e.stamp)
            else {
                break;
            };
            let dropped = inner.map.remove(&victim).expect("victim present");
            inner.bytes -= dropped.bytes;
            inner.counters.evictions += 1;
        }
        bufs
    }

    /// Reads and decodes `key`'s on-disk file, distinguishing an absent
    /// file (a plain miss) from a mangled one (corruption) and from an
    /// I/O failure (a tier-level problem the caller should latch on).
    fn disk_read(&self, key: u64) -> DiskRead {
        let Some(dir) = self.disk.as_ref() else {
            return DiskRead::Miss;
        };
        match std::fs::read_to_string(dir.join(format!("{key:016x}.cctrace"))) {
            Ok(text) => match decode_file(&text) {
                Some(bufs) => DiskRead::Hit(Arc::new(bufs)),
                None => DiskRead::Corrupt,
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => DiskRead::Miss,
            Err(e) => DiskRead::IoError(e),
        }
    }

    /// Resident sampled-result cap. Results are a few hundred bytes, so
    /// the cap bounds memory at well under a megabyte while covering far
    /// more distinct sampled workloads than any sweep or server session
    /// touches.
    pub const SAMPLED_CAP: usize = 256;

    /// A cached sampled-simulation result for `key`, if present. `key`
    /// must fold the sampling configuration in addition to the trace
    /// coordinates — two sampling configs over one trace are different
    /// results. The encoding is the caller's (the store treats it as an
    /// opaque string); determinism of the content is the caller's
    /// contract, exactly as with [`TraceStore::get_or_generate`].
    pub fn sampled_get(&self, key: TraceKey) -> Option<Arc<str>> {
        let mut inner = self.inner.lock().expect("trace store poisoned");
        inner.stamp += 1;
        let stamp = inner.stamp;
        match inner.sampled.get_mut(&key.value()) {
            Some((encoded, touched)) => {
                *touched = stamp;
                let encoded = Arc::clone(encoded);
                inner.counters.sampled_hits += 1;
                Some(encoded)
            }
            None => {
                inner.counters.sampled_misses += 1;
                None
            }
        }
    }

    /// Stores a sampled-simulation result under `key`, evicting the
    /// least-recently-used result past [`TraceStore::SAMPLED_CAP`].
    pub fn sampled_put(&self, key: TraceKey, encoded: String) {
        let mut inner = self.inner.lock().expect("trace store poisoned");
        inner.stamp += 1;
        let stamp = inner.stamp;
        inner.counters.sampled_puts += 1;
        inner
            .sampled
            .insert(key.value(), (Arc::from(encoded), stamp));
        while inner.sampled.len() > Self::SAMPLED_CAP {
            let Some((&victim, _)) = inner.sampled.iter().min_by_key(|(_, (_, s))| *s) else {
                break;
            };
            inner.sampled.remove(&victim);
        }
    }

    /// Distinct sampled results resident.
    pub fn sampled_len(&self) -> usize {
        self.inner
            .lock()
            .expect("trace store poisoned")
            .sampled
            .len()
    }

    /// A snapshot of the activity counters.
    pub fn counters(&self) -> StoreCounters {
        self.inner.lock().expect("trace store poisoned").counters
    }

    /// Bytes currently charged against the budget.
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().expect("trace store poisoned").bytes
    }

    /// Distinct traces resident in memory.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("trace store poisoned").map.len()
    }

    /// True when no trace is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for TraceStore {
    fn default() -> Self {
        Self::with_budget(Self::DEFAULT_BUDGET)
    }
}

impl std::fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceStore")
            .field("budget", &self.budget)
            .field("disk", &self.disk)
            .field("counters", &self.counters())
            .finish()
    }
}

/// Encodes a buffer sequence as one `.cctrace` file: a count header, then
/// each buffer's [`TraceBuf::encode_compact`] lines (exactly five per
/// buffer) concatenated.
fn encode_file(bufs: &[TraceBuf]) -> String {
    let mut s = format!("cctrace v1 {:x}\n", bufs.len());
    for buf in bufs {
        s.push_str(&buf.encode_compact());
    }
    s
}

/// Inverse of [`encode_file`]; `None` on any corruption (wrong magic,
/// wrong count, any buffer failing to decode or validate).
fn decode_file(text: &str) -> Option<Vec<TraceBuf>> {
    let lines: Vec<&str> = text.lines().collect();
    let mut header = lines.first()?.split_ascii_whitespace();
    if header.next()? != "cctrace" || header.next()? != "v1" {
        return None;
    }
    let count = usize::from_str_radix(header.next()?, 16).ok()?;
    if header.next().is_some() || lines.len() != 1 + 5 * count {
        return None;
    }
    lines[1..]
        .chunks(5)
        .map(|chunk| {
            let mut one = String::new();
            for line in chunk {
                one.push_str(line);
                one.push('\n');
            }
            TraceBuf::decode_compact(&one)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_sim::Event;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn trace(seed: u64, len: usize) -> Vec<TraceBuf> {
        let mut bufs = Vec::new();
        let mut cur = TraceBuf::with_capacity(8);
        for i in 0..len as u64 {
            if cur.is_full() {
                bufs.push(std::mem::replace(&mut cur, TraceBuf::with_capacity(8)));
            }
            match (seed + i) % 4 {
                0 => cur.push(Event::load((seed ^ i) % 4096, 20)),
                1 => cur.push(Event::store(i * 24 % 4096, 8)),
                2 => cur.push(Event::Inst(3)),
                _ => cur.push(Event::Prefetch { addr: i % 4096 }),
            }
        }
        if !cur.is_empty() {
            bufs.push(cur);
        }
        bufs
    }

    fn key(n: u64) -> TraceKey {
        TraceKey::new("store-test").fold(n)
    }

    #[test]
    fn warm_key_skips_generation() {
        let store = TraceStore::with_budget(1 << 20);
        let calls = AtomicUsize::new(0);
        let generate = || {
            calls.fetch_add(1, Ordering::SeqCst);
            trace(1, 30)
        };
        let cold = store.get_or_generate(key(1), generate);
        let warm = store.get_or_generate(key(1), || {
            calls.fetch_add(1, Ordering::SeqCst);
            trace(1, 30)
        });
        // The acceptance-criterion assertion: the warm request ran no
        // generator and the counters prove it.
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert!(Arc::ptr_eq(&cold, &warm));
        let c = store.counters();
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
        assert_eq!(c.generations, 1);
        assert_eq!(c.disk_hits, 0);
    }

    #[test]
    fn keys_discriminate_coordinates() {
        let e5000 = MachineConfig::ultrasparc_e5000();
        let table1 = MachineConfig::table1();
        let a = TraceKey::new("fig5").machine(&e5000).fold(21);
        assert_eq!(a, TraceKey::new("fig5").machine(&e5000).fold(21));
        assert_ne!(a, TraceKey::new("fig7").machine(&e5000).fold(21));
        assert_ne!(a, TraceKey::new("fig5").machine(&table1).fold(21));
        assert_ne!(a, TraceKey::new("fig5").machine(&e5000).fold(22));
        // Order matters: (1, 2) and (2, 1) are different traces.
        assert_ne!(
            TraceKey::new("t").fold(1).fold(2),
            TraceKey::new("t").fold(2).fold(1)
        );
    }

    #[test]
    fn lru_evicts_by_byte_budget_and_keeps_the_hot_entry() {
        let one = trace(0, 40);
        let bytes: usize = one.iter().map(TraceBuf::approx_bytes).sum();
        // Room for two resident traces, not three.
        let store = TraceStore::with_budget(bytes * 2 + bytes / 2);
        store.get_or_generate(key(0), || trace(0, 40));
        store.get_or_generate(key(1), || trace(1, 40));
        store.get_or_generate(key(0), || unreachable!("key 0 is warm"));
        store.get_or_generate(key(2), || trace(2, 40)); // evicts key 1 (LRU)
        assert_eq!(store.counters().evictions, 1);
        assert_eq!(store.len(), 2);
        store.get_or_generate(key(0), || unreachable!("key 0 survived the eviction"));
        let regen = AtomicUsize::new(0);
        store.get_or_generate(key(1), || {
            regen.fetch_add(1, Ordering::SeqCst);
            trace(1, 40)
        });
        assert_eq!(regen.load(Ordering::SeqCst), 1, "evicted key regenerates");
    }

    #[test]
    fn oversized_entry_is_served_uncached_and_never_underflows() {
        // Budget of one byte: every real trace exceeds it.
        let store = TraceStore::with_budget(1);
        let a = store.get_or_generate(key(7), || trace(7, 40));
        assert!(!a.is_empty());
        assert_eq!(store.len(), 0, "oversized traces are never cached");
        assert_eq!(store.resident_bytes(), 0);
        let c = store.counters();
        assert_eq!(c.oversized, 1);
        assert_eq!(c.evictions, 0);

        // The key stays cold: a second request regenerates rather than
        // finding a permanently-resident over-budget entry.
        let regen = AtomicUsize::new(0);
        let b = store.get_or_generate(key(7), || {
            regen.fetch_add(1, Ordering::SeqCst);
            trace(7, 40)
        });
        assert_eq!(regen.load(Ordering::SeqCst), 1);
        let events_a: Vec<Event> = a.iter().flat_map(|x| x.events()).collect();
        let events_b: Vec<Event> = b.iter().flat_map(|x| x.events()).collect();
        assert_eq!(events_a, events_b);

        // More oversized traffic never drives the byte ledger negative
        // (an underflow would panic in debug builds here).
        store.get_or_generate(key(8), || trace(8, 40));
        assert_eq!(store.resident_bytes(), 0);
        assert_eq!(store.counters().oversized, 3);
    }

    #[test]
    fn disk_tier_survives_a_fresh_store() {
        let dir = std::env::temp_dir().join(format!("cctrace-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let reference = trace(9, 50);

        let first = TraceStore::with_budget(1 << 20).with_disk(dir.clone());
        assert!(first.has_disk());
        let a = first.get_or_generate(key(9), || trace(9, 50));
        assert_eq!(a.len(), reference.len());

        // A fresh store (new process, cold memory) over the same directory
        // must decode the file instead of regenerating.
        let second = TraceStore::with_budget(1 << 20).with_disk(dir.clone());
        let b = second.get_or_generate(key(9), || unreachable!("disk tier must serve this"));
        let c = second.counters();
        assert_eq!(c.disk_hits, 1);
        assert_eq!(c.generations, 0);
        let events_a: Vec<Event> = a.iter().flat_map(|x| x.events()).collect();
        let events_b: Vec<Event> = b.iter().flat_map(|x| x.events()).collect();
        assert_eq!(events_a, events_b);

        // A corrupt file is counted, reported, and regenerated — never
        // trusted, and never fatal.
        let path = dir.join(format!("{:016x}.cctrace", key(9).value()));
        std::fs::write(&path, "cctrace v1 zz\ngarbage").unwrap();
        let third = TraceStore::with_budget(1 << 20).with_disk(dir.clone());
        let regen = AtomicUsize::new(0);
        let d = third.get_or_generate(key(9), || {
            regen.fetch_add(1, Ordering::SeqCst);
            trace(9, 50)
        });
        assert_eq!(regen.load(Ordering::SeqCst), 1);
        let c = third.counters();
        assert_eq!(c.disk_corrupt, 1);
        assert_eq!(c.disk_errors, 0, "corruption does not take the tier down");
        let events_d: Vec<Event> = d.iter().flat_map(|x| x.events()).collect();
        assert_eq!(events_a, events_d, "regenerated trace matches the original");

        // The regeneration self-heals the file: a fourth store decodes it.
        let fourth = TraceStore::with_budget(1 << 20).with_disk(dir.clone());
        fourth.get_or_generate(key(9), || unreachable!("healed file must serve this"));
        assert_eq!(fourth.counters().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An unusable `CC_TRACE_CACHE` path (here: an existing plain file,
    /// so `create_dir_all` fails even for root, unlike permission bits)
    /// degrades the store to memory-only: counted, reported, and every
    /// request still served.
    #[test]
    fn unusable_cache_directory_degrades_to_memory_only() {
        let file = std::env::temp_dir().join(format!("cctrace-notadir-{}", std::process::id()));
        std::fs::write(&file, "occupied").unwrap();

        let store = TraceStore::with_budget(1 << 20).with_disk(file.clone());
        assert!(
            !store.has_disk(),
            "unusable directory must not arm the tier"
        );
        assert_eq!(store.counters().disk_errors, 1);

        let a = store.get_or_generate(key(11), || trace(11, 30));
        store.get_or_generate(key(11), || unreachable!("memory tier is warm"));
        let c = store.counters();
        assert_eq!(c.generations, 1);
        assert_eq!(c.hits, 1);
        let reference: Vec<Event> = trace(11, 30).iter().flat_map(|x| x.events()).collect();
        let got: Vec<Event> = a.iter().flat_map(|x| x.events()).collect();
        assert_eq!(got, reference, "degraded results are bit-identical");
        let _ = std::fs::remove_file(&file);
    }

    /// A disk tier that turns bad mid-life (here: the cache *file* path is
    /// occupied by a directory, so both read and write fail with a non-
    /// NotFound error) is latched off after one counted, reported failure;
    /// later keys skip the disk entirely and the store stays correct.
    #[test]
    fn runtime_disk_failure_latches_the_tier_off() {
        let dir = std::env::temp_dir().join(format!("cctrace-latch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = TraceStore::with_budget(1 << 20).with_disk(dir.clone());
        assert!(store.has_disk());

        // Occupy the key's file path with a directory: reading it is an
        // I/O error (not absence, not corruption).
        std::fs::create_dir_all(dir.join(format!("{:016x}.cctrace", key(13).value()))).unwrap();
        let a = store.get_or_generate(key(13), || trace(13, 30));
        let c = store.counters();
        assert_eq!(c.disk_errors, 1);
        assert_eq!(c.disk_corrupt, 0);
        assert_eq!(
            c.generations, 1,
            "the request is still served by generating"
        );
        let reference: Vec<Event> = trace(13, 30).iter().flat_map(|x| x.events()).collect();
        let got: Vec<Event> = a.iter().flat_map(|x| x.events()).collect();
        assert_eq!(got, reference);

        // The tier is now down: a second key neither reads nor writes the
        // directory, and the error counter does not grow per-request.
        store.get_or_generate(key(14), || trace(14, 30));
        let c = store.counters();
        assert_eq!(
            c.disk_errors, 1,
            "one failure, one count — latched, not per-miss"
        );
        assert_eq!(c.generations, 2);
        assert!(
            !dir.join(format!("{:016x}.cctrace", key(14).value()))
                .exists(),
            "a downed tier must not be written"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sampled_results_cache_by_config_keyed_key() {
        let store = TraceStore::default();
        let base = key(21);
        let cfg_a = base.fold(0xA);
        let cfg_b = base.fold(0xB);
        assert!(store.sampled_get(cfg_a).is_none());
        store.sampled_put(cfg_a, "intervals=4;reps=2".to_string());
        let hit = store.sampled_get(cfg_a).expect("warm sampled result");
        assert_eq!(&*hit, "intervals=4;reps=2");
        // A different sampling config over the same trace is a miss.
        assert!(store.sampled_get(cfg_b).is_none());
        let c = store.counters();
        assert_eq!(c.sampled_hits, 1);
        assert_eq!(c.sampled_misses, 2);
        assert_eq!(c.sampled_puts, 1);

        // The count-capped LRU keeps the hot entry.
        for i in 0..TraceStore::SAMPLED_CAP as u64 + 8 {
            store.sampled_put(base.fold(0x100 + i), format!("r{i}"));
            // Keep cfg_a hot so eviction takes the cold tail.
            store.sampled_get(cfg_a);
        }
        assert_eq!(store.sampled_len(), TraceStore::SAMPLED_CAP);
        assert!(store.sampled_get(cfg_a).is_some(), "hot entry survives");
    }

    #[test]
    fn file_codec_roundtrips_multiple_buffers() {
        let bufs = trace(3, 37);
        let text = encode_file(&bufs);
        let back = decode_file(&text).expect("roundtrip");
        assert_eq!(back.len(), bufs.len());
        for (a, b) in bufs.iter().zip(&back) {
            let ea: Vec<Event> = a.events().collect();
            let eb: Vec<Event> = b.events().collect();
            assert_eq!(ea, eb);
        }
        assert!(decode_file("").is_none());
        assert!(decode_file("cctrace v2 1\n").is_none());
        // Truncated: count promises more buffers than the file holds.
        let truncated: String = text.lines().take(1 + 5).collect::<Vec<_>>().join("\n");
        if bufs.len() > 1 {
            assert!(decode_file(&truncated).is_none());
        }
    }
}
