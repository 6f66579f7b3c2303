//! Region naming: mapping simulated addresses to the structures that
//! own them.
//!
//! A *region* is a named, half-open address range `[start, end)` in the
//! simulated virtual address space — a structure kind ("ctree nodes"),
//! a heap arena, or a ccmorph subtree. The simulator tags each access
//! with the [`RegionId`] that [`RegionMap::resolve`] returns for its
//! address, and [`crate::attrib::MissProfile`] aggregates per-region
//! tallies under those ids.
//!
//! Region `0` is always the catch-all `"other"` region: addresses that
//! fall outside every registered range (stack-less workloads still
//! touch trace buffers, globals, …) attribute there rather than being
//! dropped, so per-region totals always sum to the whole-run totals.

/// Identifier of a registered region. `RegionId::OTHER` (id 0) is the
/// catch-all for unregistered addresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(u32);

impl RegionId {
    /// The catch-all region every [`RegionMap`] starts with.
    pub const OTHER: RegionId = RegionId(0);

    /// The raw index, usable to index per-region tally vectors.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw 32-bit id.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds an id from its raw value. Ids are only meaningful
    /// against the [`RegionMap`] that minted them.
    pub(crate) fn from_raw(raw: u32) -> RegionId {
        RegionId(raw)
    }
}

/// One registered address range.
#[derive(Clone, Copy, Debug)]
struct Range {
    start: u64,
    /// Exclusive.
    end: u64,
    region: u32,
}

/// A set of named, non-overlapping address ranges with binary-search
/// resolution.
///
/// # Example
///
/// ```
/// use cc_obs::region::{RegionId, RegionMap};
///
/// let mut map = RegionMap::new();
/// let tree = map.register("ctree", 0x1000_0000, 0x1004_0000);
/// assert_eq!(map.resolve(0x1000_0040), tree);
/// assert_eq!(map.resolve(0x42), RegionId::OTHER);
/// assert_eq!(map.name(tree), "ctree");
/// ```
#[derive(Clone, Debug)]
pub struct RegionMap {
    /// Index = region id. `names[0]` is always `"other"`.
    names: Vec<String>,
    /// Sorted by `start`; ranges never overlap.
    ranges: Vec<Range>,
}

impl Default for RegionMap {
    fn default() -> Self {
        Self::new()
    }
}

impl RegionMap {
    /// An empty map: every address resolves to [`RegionId::OTHER`].
    pub fn new() -> Self {
        RegionMap {
            names: vec!["other".to_string()],
            ranges: Vec::new(),
        }
    }

    /// Registers `[start, end)` under `name` and returns its id.
    ///
    /// Multiple ranges may share one name — registering an existing
    /// name adds the range to that region instead of minting a new id,
    /// so a segregated heap can file every arena extent under one
    /// "heap" region, or one region per size class.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or overlaps a registered range —
    /// regions partition the address space by construction, and an
    /// overlap would make attribution ambiguous.
    pub fn register(&mut self, name: &str, start: u64, end: u64) -> RegionId {
        assert!(start < end, "empty region {name:?}: {start:#x}..{end:#x}");
        let region = match self.names.iter().position(|n| n == name) {
            Some(i) => i as u32,
            None => {
                self.names.push(name.to_string());
                (self.names.len() - 1) as u32
            }
        };
        let at = self.ranges.partition_point(|r| r.start < start);
        let fits_left = at == 0 || self.ranges[at - 1].end <= start;
        let fits_right = at == self.ranges.len() || end <= self.ranges[at].start;
        assert!(
            fits_left && fits_right,
            "region {name:?} {start:#x}..{end:#x} overlaps a registered range",
        );
        self.ranges.insert(at, Range { start, end, region });
        RegionId(region)
    }

    /// The region owning `addr`, or [`RegionId::OTHER`].
    #[inline]
    pub fn resolve(&self, addr: u64) -> RegionId {
        let idx = self.ranges.partition_point(|r| r.start <= addr);
        match idx.checked_sub(1).map(|i| self.ranges[i]) {
            Some(r) if addr < r.end => RegionId(r.region),
            _ => RegionId::OTHER,
        }
    }

    /// The name a region was registered under.
    pub fn name(&self, region: RegionId) -> &str {
        &self.names[region.index()]
    }

    /// Number of distinct regions, including `"other"`.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether only the catch-all region exists.
    pub fn is_empty(&self) -> bool {
        self.names.len() == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_hits_registered_ranges_and_falls_back() {
        let mut map = RegionMap::new();
        let a = map.register("a", 0x100, 0x200);
        let b = map.register("b", 0x300, 0x400);
        assert_eq!(map.resolve(0x100), a);
        assert_eq!(map.resolve(0x1ff), a);
        assert_eq!(map.resolve(0x200), RegionId::OTHER);
        assert_eq!(map.resolve(0x3a0), b);
        assert_eq!(map.resolve(0), RegionId::OTHER);
        assert_eq!(map.len(), 3);
    }

    #[test]
    fn shared_name_shares_one_id() {
        let mut map = RegionMap::new();
        let a1 = map.register("arena", 0x100, 0x200);
        let a2 = map.register("arena", 0x500, 0x600);
        assert_eq!(a1, a2);
        assert_eq!(map.resolve(0x580), a1);
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn ranges_out_of_order_still_resolve() {
        let mut map = RegionMap::new();
        let hi = map.register("hi", 0x1000, 0x2000);
        let lo = map.register("lo", 0x10, 0x20);
        assert_eq!(map.resolve(0x18), lo);
        assert_eq!(map.resolve(0x1fff), hi);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlap_is_rejected() {
        let mut map = RegionMap::new();
        map.register("a", 0x100, 0x200);
        map.register("b", 0x1ff, 0x300);
    }

    #[test]
    fn boundary_addresses_resolve_exactly() {
        let mut map = RegionMap::new();
        // Two adjacent ranges sharing a seam at 0x200, then a gap.
        let a = map.register("a", 0x100, 0x200);
        let b = map.register("b", 0x200, 0x280);
        assert_eq!(map.resolve(0x0ff), RegionId::OTHER, "one below a start");
        assert_eq!(map.resolve(0x100), a, "inclusive start");
        assert_eq!(map.resolve(0x1ff), a, "last byte of a");
        assert_eq!(map.resolve(0x200), b, "seam belongs to the right range");
        assert_eq!(map.resolve(0x27f), b, "last byte of b");
        assert_eq!(map.resolve(0x280), RegionId::OTHER, "end is exclusive");
        assert_eq!(map.resolve(u64::MAX), RegionId::OTHER);
    }

    #[test]
    fn u64_extremes_resolve() {
        let mut map = RegionMap::new();
        let lo = map.register("lo", 0, 1);
        let hi = map.register("hi", u64::MAX - 1, u64::MAX);
        assert_eq!(map.resolve(0), lo);
        assert_eq!(map.resolve(1), RegionId::OTHER);
        assert_eq!(map.resolve(u64::MAX - 1), hi);
        assert_eq!(map.resolve(u64::MAX), RegionId::OTHER);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    /// The O(n) oracle `resolve` must agree with.
    fn resolve_linear(ranges: &[(u64, u64, RegionId)], addr: u64) -> RegionId {
        ranges
            .iter()
            .find(|&&(s, e, _)| s <= addr && addr < e)
            .map(|&(_, _, id)| id)
            .unwrap_or(RegionId::OTHER)
    }

    proptest! {
        #[test]
        fn resolve_matches_linear_scan(
            raw in proptest::collection::vec((0u64..0x4000, 1u64..0x200), 0..12),
            probes in proptest::collection::vec(0u64..0x5000, 32..33),
        ) {
            let mut map = RegionMap::new();
            let mut ranges: Vec<(u64, u64, RegionId)> = Vec::new();
            for (i, &(start, len)) in raw.iter().enumerate() {
                let end = start + len;
                // Keep only ranges that don't overlap what we kept so far;
                // register panics on overlap by design.
                if ranges.iter().any(|&(s, e, _)| start < e && s < end) {
                    continue;
                }
                let id = map.register(&format!("r{i}"), start, end);
                ranges.push((start, end, id));
            }
            for &addr in &probes {
                prop_assert_eq!(map.resolve(addr), resolve_linear(&ranges, addr));
            }
            // Probe every boundary of every kept range, inside and out.
            for &(s, e, _) in &ranges {
                for addr in [s, s.saturating_sub(1), e - 1, e] {
                    prop_assert_eq!(map.resolve(addr), resolve_linear(&ranges, addr));
                }
            }
        }
    }
}
