//! Miss attribution: per-region, per-level tallies and conflict pairs.
//!
//! The simulator resolves every demand access to a [`RegionId`] and
//! reports it here. Three things are recorded:
//!
//! * per-region **access/hit/miss** counts at each cache level;
//! * per-region **eviction** counts (how often a region's blocks were
//!   thrown out);
//! * **conflict pairs** — for each eviction, the (victim region,
//!   evictor region) pair. A structure that keeps evicting *itself*
//!   wants clustering (more of it per block); two structures that keep
//!   evicting *each other* want coloring into disjoint sets. This is
//!   exactly the signal the paper's coloring decisions consume.
//!
//! The profile is exact, not sampled: when attribution is enabled every
//! simulator path — the scalar reference and the batched and sharded
//! shortcuts alike — reports each demand access it resolves, so tallies
//! here sum to the same totals as the whole-run `CacheStats`.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::field::{FieldId, FieldMap};
use crate::region::{RegionId, RegionMap};

/// Cache level an attribution event happened at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// First-level (direct-mapped in the paper's machines).
    L1,
    /// Second-level (unified, set-associative).
    L2,
}

impl Level {
    fn index(self) -> usize {
        match self {
            Level::L1 => 0,
            Level::L2 => 1,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Level::L1 => "l1",
            Level::L2 => "l2",
        }
    }
}

/// Per-region counters at one cache level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegionTally {
    /// Demand accesses attributed to the region.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Blocks of this region evicted by anyone (including itself).
    pub evictions: u64,
}

/// One aggregated conflict pair, for reporting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConflictPair {
    /// Level the evictions happened at.
    pub level: Level,
    /// Region that lost its block.
    pub victim: RegionId,
    /// Region whose fill forced the eviction.
    pub evictor: RegionId,
    /// Number of such evictions.
    pub count: u64,
}

/// Optional field-level attribution riding on a [`MissProfile`]: the
/// same access/hit/miss tallies, but resolved through a [`FieldMap`] to
/// the individual struct field each demand access touched.
// The 64-byte unattributed block leads so it sits in one line (SPAN-01,
// cc-lint's own suggestion for this struct).
#[derive(Clone, Debug)]
struct FieldAttrib {
    /// Demand accesses whose address resolved to no field (outside
    /// every object extent, or padding) — kept so field totals plus
    /// this equal the per-level demand totals.
    unattributed: [RegionTally; 2],
    /// `[level][field id]`.
    levels: [Vec<RegionTally>; 2],
    map: Arc<FieldMap>,
    /// The extent the last access resolved in, where the next lookup
    /// starts (see `FieldMap::resolve_near`).
    hint: usize,
}

/// A run of `count` evictions of one `(victim, evictor)` pair at one
/// level; `count == 0` is an empty run.
#[derive(Clone, Copy, Debug, Default)]
struct EvictionRun {
    victim: u32,
    evictor: u32,
    count: u64,
}

/// Accumulates attribution events against a fixed [`RegionMap`].
#[derive(Clone, Debug)]
pub struct MissProfile {
    map: Arc<RegionMap>,
    /// `[level][region id]`.
    levels: [Vec<RegionTally>; 2],
    /// `(level index, victim id, evictor id) → count`. A `BTreeMap`
    /// keeps export order deterministic for golden-file tests.
    conflicts: BTreeMap<(u8, u32, u32), u64>,
    /// Per level, the run of identical `(victim, evictor)` evictions not
    /// yet folded into `conflicts`: consecutive evictions at a level
    /// mostly repeat one pair, so each costs a compare and an add, and
    /// the map sees one insert per run. Readers fold the runs back in
    /// (`MissProfile::settled_conflicts`).
    runs: [EvictionRun; 2],
    /// Field-level tallies, absent unless
    /// [`MissProfile::enable_fields`] opted in. Boxed: the common
    /// region-only profile pays one pointer.
    fields: Option<Box<FieldAttrib>>,
}

impl MissProfile {
    /// An empty profile attributing against `map`.
    pub fn new(map: Arc<RegionMap>) -> Self {
        let tallies = vec![RegionTally::default(); map.len()];
        MissProfile {
            map,
            levels: [tallies.clone(), tallies],
            conflicts: BTreeMap::new(),
            runs: [EvictionRun::default(); 2],
            fields: None,
        }
    }

    /// Starts attributing demand accesses to the fields of `fmap` as
    /// well as to regions. Region tallies, conflicts, and the JSON
    /// encoding of profiles *without* fields are unchanged.
    pub fn enable_fields(&mut self, fmap: Arc<FieldMap>) {
        let tallies = vec![RegionTally::default(); fmap.len()];
        self.fields = Some(Box::new(FieldAttrib {
            map: fmap,
            levels: [tallies.clone(), tallies],
            unattributed: [RegionTally::default(); 2],
            hint: 0,
        }));
    }

    /// Whether field-level attribution is enabled.
    pub fn fields_enabled(&self) -> bool {
        self.fields.is_some()
    }

    /// The field map, if field attribution is enabled.
    pub fn field_map(&self) -> Option<&Arc<FieldMap>> {
        self.fields.as_ref().map(|f| &f.map)
    }

    /// The region map this profile attributes against.
    pub fn region_map(&self) -> &Arc<RegionMap> {
        &self.map
    }

    /// Resolves `addr` through the profile's region map.
    #[inline]
    pub fn resolve(&self, addr: u64) -> RegionId {
        self.map.resolve(addr)
    }

    /// Records one demand access by `region` at `level`.
    #[inline]
    pub fn record_access(&mut self, level: Level, region: RegionId, hit: bool) {
        let t = &mut self.levels[level.index()][region.index()];
        t.accesses += 1;
        if hit {
            t.hits += 1;
        } else {
            t.misses += 1;
        }
    }

    /// Records one demand access at `level` against the field owning
    /// `addr` (no-op unless [`MissProfile::enable_fields`] opted in).
    /// `addr` must be the first *referenced* byte the block access
    /// covers — block-aligned addresses would alias every field sharing
    /// the block.
    #[inline]
    pub fn record_field_access(&mut self, level: Level, addr: u64, hit: bool) {
        let Some(f) = self.fields.as_deref_mut() else {
            return;
        };
        let t = match f.map.resolve_near(addr, &mut f.hint) {
            Some(field) => &mut f.levels[level.index()][field.index()],
            None => &mut f.unattributed[level.index()],
        };
        t.accesses += 1;
        if hit {
            t.hits += 1;
        } else {
            t.misses += 1;
        }
    }

    /// Records that a fill by `evictor` evicted a block owned by
    /// `victim` at `level`.
    #[inline]
    pub fn record_eviction(&mut self, level: Level, victim: RegionId, evictor: RegionId) {
        self.levels[level.index()][victim.index()].evictions += 1;
        let run = &mut self.runs[level.index()];
        if run.victim == victim.raw() && run.evictor == evictor.raw() {
            run.count += 1;
            return;
        }
        let done = std::mem::replace(
            run,
            EvictionRun {
                victim: victim.raw(),
                evictor: evictor.raw(),
                count: 1,
            },
        );
        Self::fold_run(&mut self.conflicts, level.index(), done);
    }

    /// Adds one eviction run into a conflict map.
    fn fold_run(conflicts: &mut BTreeMap<(u8, u32, u32), u64>, level: usize, run: EvictionRun) {
        if run.count > 0 {
            *conflicts
                .entry((level as u8, run.victim, run.evictor))
                .or_insert(0) += run.count;
        }
    }

    /// The conflict counts with the pending eviction runs folded in.
    fn settled_conflicts(&self) -> std::borrow::Cow<'_, BTreeMap<(u8, u32, u32), u64>> {
        if self.runs.iter().all(|r| r.count == 0) {
            return std::borrow::Cow::Borrowed(&self.conflicts);
        }
        let mut all = self.conflicts.clone();
        for (level, &run) in self.runs.iter().enumerate() {
            Self::fold_run(&mut all, level, run);
        }
        std::borrow::Cow::Owned(all)
    }

    /// Folds another profile (same region map) into this one.
    ///
    /// # Panics
    ///
    /// Panics if the two profiles were built over different region
    /// maps — their region ids would not be comparable.
    pub fn merge(&mut self, other: &MissProfile) {
        assert!(
            Arc::ptr_eq(&self.map, &other.map),
            "merging MissProfiles built over different RegionMaps",
        );
        for (level, theirs) in self.levels.iter_mut().zip(&other.levels) {
            for (t, o) in level.iter_mut().zip(theirs) {
                t.accesses += o.accesses;
                t.hits += o.hits;
                t.misses += o.misses;
                t.evictions += o.evictions;
            }
        }
        for (&k, &v) in other.settled_conflicts().iter() {
            *self.conflicts.entry(k).or_insert(0) += v;
        }
        match (self.fields.as_deref_mut(), other.fields.as_deref()) {
            (None, None) => {}
            (Some(mine), Some(theirs)) => {
                assert!(
                    Arc::ptr_eq(&mine.map, &theirs.map),
                    "merging MissProfiles built over different FieldMaps",
                );
                for (level, others) in mine.levels.iter_mut().zip(&theirs.levels) {
                    for (t, o) in level.iter_mut().zip(others) {
                        t.accesses += o.accesses;
                        t.hits += o.hits;
                        t.misses += o.misses;
                    }
                }
                for (t, o) in mine.unattributed.iter_mut().zip(&theirs.unattributed) {
                    t.accesses += o.accesses;
                    t.hits += o.hits;
                    t.misses += o.misses;
                }
            }
            _ => panic!("merging a field-attributing MissProfile with a region-only one"),
        }
    }

    /// The tally for one region at one level.
    pub fn tally(&self, level: Level, region: RegionId) -> RegionTally {
        self.levels[level.index()][region.index()]
    }

    /// Sums every region's tally at `level` — must equal the
    /// simulator's own `CacheStats` totals, which the differential
    /// tests pin.
    pub fn totals(&self, level: Level) -> RegionTally {
        let mut sum = RegionTally::default();
        for t in &self.levels[level.index()] {
            sum.accesses += t.accesses;
            sum.hits += t.hits;
            sum.misses += t.misses;
            sum.evictions += t.evictions;
        }
        sum
    }

    /// Measured per-region miss weights at `level`, in region-id order,
    /// excluding regions with no misses.
    ///
    /// This is the join key for static layout analysis: map each region
    /// name to the structure (or fields) it holds and feed the weights to
    /// `cc-lint` as field-hotness input, so the static suggestions are
    /// ranked by misses actually measured rather than by annotation alone.
    ///
    /// Names are borrowed from the profile's region map — the hot join
    /// calls this per level per report, and it used to clone a fresh
    /// `String` per region each time.
    pub fn region_weights(&self, level: Level) -> Vec<(&str, f64)> {
        (0..self.map.len())
            .filter_map(|id| {
                let region = RegionId::from_raw(id as u32);
                let t = self.levels[level.index()][region.index()];
                (t.misses > 0).then(|| (self.map.name(region), t.misses as f64))
            })
            .collect()
    }

    /// The tally for one field at one level (zero unless field
    /// attribution is enabled).
    pub fn field_tally(&self, level: Level, field: FieldId) -> RegionTally {
        self.fields
            .as_deref()
            .map(|f| f.levels[level.index()][field.index()])
            .unwrap_or_default()
    }

    /// Demand accesses that resolved to no field at `level`.
    pub fn field_unattributed(&self, level: Level) -> RegionTally {
        self.fields
            .as_deref()
            .map(|f| f.unattributed[level.index()])
            .unwrap_or_default()
    }

    /// Measured per-field miss weights at `level`, in field-id order,
    /// excluding fields with no misses — the field-granular analogue of
    /// [`MissProfile::region_weights`], and the input `cc-profile`
    /// feeds to `cc-lint --hot`.
    pub fn field_weights(&self, level: Level) -> Vec<(&str, f64)> {
        let Some(f) = self.fields.as_deref() else {
            return Vec::new();
        };
        (0..f.map.len())
            .filter_map(|id| {
                let field = FieldId::from_raw(id as u32);
                let t = f.levels[level.index()][field.index()];
                (t.misses > 0).then(|| (f.map.name(field), t.misses as f64))
            })
            .collect()
    }

    /// All conflict pairs with at least one eviction, ordered by
    /// (level, victim, evictor).
    pub fn conflict_pairs(&self) -> Vec<ConflictPair> {
        self.settled_conflicts()
            .iter()
            .map(|(&(level, victim, evictor), &count)| ConflictPair {
                level: if level == 0 { Level::L1 } else { Level::L2 },
                victim: RegionId::from_raw(victim),
                evictor: RegionId::from_raw(evictor),
                count,
            })
            .collect()
    }

    /// Byte-stable JSON encoding: regions in id order, conflicts in
    /// (level, victim, evictor) order, fixed field order throughout.
    /// When field attribution is enabled a `"fields"` section follows
    /// the conflicts; a region-only profile's encoding is unchanged
    /// byte-for-byte from before fields existed.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"regions\":[");
        for id in 0..self.map.len() {
            if id > 0 {
                out.push(',');
            }
            let name = self.map.name(RegionId::from_raw(id as u32));
            out.push_str(&format!("{{\"name\":{:?}", name));
            for level in [Level::L1, Level::L2] {
                let t = self.levels[level.index()][id];
                out.push_str(&format!(
                    ",\"{}\":{{\"accesses\":{},\"hits\":{},\"misses\":{},\"evictions\":{}}}",
                    level.label(),
                    t.accesses,
                    t.hits,
                    t.misses,
                    t.evictions
                ));
            }
            out.push('}');
        }
        out.push_str("],\"conflicts\":[");
        for (i, (&(level, victim, evictor), &count)) in self.settled_conflicts().iter().enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            let level = if level == 0 { Level::L1 } else { Level::L2 };
            out.push_str(&format!(
                "{{\"level\":\"{}\",\"victim\":{:?},\"evictor\":{:?},\"count\":{}}}",
                level.label(),
                self.map.name(RegionId::from_raw(victim)),
                self.map.name(RegionId::from_raw(evictor)),
                count
            ));
        }
        out.push(']');
        if let Some(f) = self.fields.as_deref() {
            out.push_str(",\"fields\":[");
            for id in 0..f.map.len() {
                if id > 0 {
                    out.push(',');
                }
                let name = f.map.name(FieldId::from_raw(id as u32));
                out.push_str(&format!("{{\"name\":{name:?}"));
                for level in [Level::L1, Level::L2] {
                    let t = f.levels[level.index()][id];
                    out.push_str(&format!(
                        ",\"{}\":{{\"accesses\":{},\"hits\":{},\"misses\":{}}}",
                        level.label(),
                        t.accesses,
                        t.hits,
                        t.misses
                    ));
                }
                out.push('}');
            }
            out.push(']');
            for level in [Level::L1, Level::L2] {
                let t = f.unattributed[level.index()];
                out.push_str(&format!(
                    ",\"fields_unattributed_{}\":{{\"accesses\":{},\"hits\":{},\"misses\":{}}}",
                    level.label(),
                    t.accesses,
                    t.hits,
                    t.misses
                ));
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_region_map() -> Arc<RegionMap> {
        let mut map = RegionMap::new();
        map.register("tree", 0x1000, 0x2000);
        map.register("list", 0x3000, 0x4000);
        Arc::new(map)
    }

    #[test]
    fn accesses_and_evictions_accumulate_per_region() {
        let map = two_region_map();
        let tree = map.resolve(0x1000);
        let list = map.resolve(0x3000);
        let mut p = MissProfile::new(map);
        p.record_access(Level::L1, tree, true);
        p.record_access(Level::L1, tree, false);
        p.record_access(Level::L2, list, false);
        p.record_eviction(Level::L2, tree, list);
        p.record_eviction(Level::L2, tree, list);
        let t = p.tally(Level::L1, tree);
        assert_eq!((t.accesses, t.hits, t.misses), (2, 1, 1));
        assert_eq!(p.tally(Level::L2, tree).evictions, 2);
        let pairs = p.conflict_pairs();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].count, 2);
        assert_eq!(pairs[0].victim, tree);
        assert_eq!(pairs[0].evictor, list);
    }

    #[test]
    fn merge_sums_tallies_and_conflicts() {
        let map = two_region_map();
        let tree = map.resolve(0x1000);
        let list = map.resolve(0x3000);
        let mut a = MissProfile::new(Arc::clone(&map));
        let mut b = MissProfile::new(Arc::clone(&map));
        a.record_access(Level::L1, tree, false);
        b.record_access(Level::L1, tree, true);
        a.record_eviction(Level::L1, list, tree);
        b.record_eviction(Level::L1, list, tree);
        a.merge(&b);
        assert_eq!(a.totals(Level::L1).accesses, 2);
        assert_eq!(a.conflict_pairs()[0].count, 2);
    }

    fn node_field_map() -> Arc<FieldMap> {
        let mut fmap = FieldMap::new();
        let key = fmap.field_id("key");
        let left = fmap.field_id("left");
        let t = fmap.add_table(&[(key, 0, 8), (left, 8, 4)]);
        // Sixteen 16-byte nodes at 0x1000.
        fmap.add_extent(0x1000, 0x1100, 16, t);
        Arc::new(fmap)
    }

    #[test]
    fn field_tallies_resolve_through_the_field_map() {
        let map = two_region_map();
        let mut p = MissProfile::new(map);
        let fmap = node_field_map();
        p.enable_fields(Arc::clone(&fmap));
        p.record_field_access(Level::L1, 0x1000, false); // key of node 0
        p.record_field_access(Level::L1, 0x1000 + 3 * 16 + 8, true); // left of node 3
        p.record_field_access(Level::L1, 0x1000 + 12, false); // padding
        p.record_field_access(Level::L1, 0x9000, true); // outside
        let mut f = FieldMap::new();
        let key = f.field_id("key");
        let left = f.field_id("left");
        assert_eq!(p.field_tally(Level::L1, key).misses, 1);
        assert_eq!(p.field_tally(Level::L1, left).hits, 1);
        let un = p.field_unattributed(Level::L1);
        assert_eq!((un.accesses, un.hits, un.misses), (2, 1, 1));
        assert_eq!(p.field_weights(Level::L1), vec![("key", 1.0)]);
    }

    #[test]
    fn field_records_are_noops_without_enable() {
        let mut p = MissProfile::new(two_region_map());
        p.record_field_access(Level::L1, 0x1000, false);
        assert!(!p.fields_enabled());
        assert!(p.field_weights(Level::L1).is_empty());
    }

    #[test]
    fn merge_sums_field_tallies_over_a_shared_map() {
        let map = two_region_map();
        let fmap = node_field_map();
        let mut a = MissProfile::new(Arc::clone(&map));
        let mut b = MissProfile::new(map);
        a.enable_fields(Arc::clone(&fmap));
        b.enable_fields(Arc::clone(&fmap));
        a.record_field_access(Level::L2, 0x1000, false);
        b.record_field_access(Level::L2, 0x1010, false);
        a.merge(&b);
        let mut f = FieldMap::new();
        let key = f.field_id("key");
        assert_eq!(a.field_tally(Level::L2, key).misses, 2);
    }

    #[test]
    #[should_panic(expected = "field-attributing")]
    fn merging_mixed_field_enablement_panics() {
        let map = two_region_map();
        let mut a = MissProfile::new(Arc::clone(&map));
        let b = MissProfile::new(map);
        a.enable_fields(node_field_map());
        a.merge(&b);
    }

    #[test]
    fn json_without_fields_is_unchanged_and_with_fields_appends() {
        let map = two_region_map();
        let tree = map.resolve(0x1000);
        let mut plain = MissProfile::new(Arc::clone(&map));
        plain.record_access(Level::L1, tree, false);
        let plain_json = plain.to_json();
        assert!(plain_json.ends_with("],\"conflicts\":[]}"), "{plain_json}");

        let mut fielded = MissProfile::new(map);
        fielded.record_access(Level::L1, tree, false);
        fielded.enable_fields(node_field_map());
        fielded.record_field_access(Level::L1, 0x1000, false);
        let json = fielded.to_json();
        assert!(
            json.starts_with(plain_json.trim_end_matches('}')),
            "prefix preserved"
        );
        assert!(json.contains(
            "\"fields\":[{\"name\":\"key\",\"l1\":{\"accesses\":1,\"hits\":0,\"misses\":1}"
        ));
        assert!(json.contains("\"fields_unattributed_l1\":{\"accesses\":0"));
    }

    #[test]
    fn region_weights_borrow_from_the_map() {
        let map = two_region_map();
        let tree = map.resolve(0x1000);
        let mut p = MissProfile::new(map);
        p.record_access(Level::L1, tree, false);
        let w = p.region_weights(Level::L1);
        assert_eq!(w, vec![("tree", 1.0)]);
    }

    #[test]
    fn json_is_deterministic_and_ordered() {
        let map = two_region_map();
        let tree = map.resolve(0x1000);
        let list = map.resolve(0x3000);
        let mut p = MissProfile::new(map);
        p.record_access(Level::L1, tree, false);
        p.record_eviction(Level::L2, list, tree);
        let json = p.to_json();
        assert_eq!(json, p.to_json());
        assert!(json.starts_with("{\"regions\":[{\"name\":\"other\""));
        assert!(json
            .contains("{\"level\":\"l2\",\"victim\":\"list\",\"evictor\":\"tree\",\"count\":1}"));
    }
}
