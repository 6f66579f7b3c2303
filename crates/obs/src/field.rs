//! Field naming: resolving simulated addresses *below* region
//! granularity, to the individual struct field they touch.
//!
//! A [`RegionMap`](crate::RegionMap) answers "whose address is this?";
//! a [`FieldMap`] answers "which *field* of that object?". It holds:
//!
//! * a set of interned **field names** ([`FieldId`]s),
//! * **span tables** — per-layout descriptions of which byte offsets
//!   within one object (or one array element) belong to which field,
//! * **extents** — address ranges occupied by objects of a given span
//!   table, each with a *stride*: the offset within the object is
//!   `(addr - start) % stride`, so one extent can describe a whole
//!   uniform arena (an SoA array, a dense pool) and per-object extents
//!   simply use `stride == object size`.
//!
//! Extents are registered from heap snapshots (see `cc_heap::obs`), so
//! resolution follows the *object extents the allocator reported* — the
//! same source of truth the auditor uses. Addresses that fall outside
//! every extent (or in padding between spans) resolve to `None` and are
//! tallied as unattributed, keeping field totals honest.

/// Identifier of an interned field name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FieldId(u32);

impl FieldId {
    /// The raw index, usable to index per-field tally vectors.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw 32-bit id.
    pub fn raw(self) -> u32 {
        self.0
    }

    pub(crate) fn from_raw(raw: u32) -> FieldId {
        FieldId(raw)
    }
}

/// One field's byte span within an object of its span table.
#[derive(Clone, Copy, Debug)]
struct FieldSpan {
    offset: u64,
    size: u64,
    field: u32,
}

/// One registered object extent.
#[derive(Clone, Copy, Debug)]
struct Extent {
    start: u64,
    /// Exclusive.
    end: u64,
    /// Offsets repeat with this period (the object or element size).
    stride: u64,
    /// Index into the span tables.
    table: u32,
}

/// Largest object (span-table end, in bytes) that gets a byte-offset
/// index; larger tables resolve by binary search alone.
const OFFSET_INDEX_MAX: u64 = 4096;

/// Field-level address resolution: interned names, span tables, and
/// strided object extents.
///
/// # Example
///
/// ```
/// use cc_obs::field::FieldMap;
///
/// let mut map = FieldMap::new();
/// let key = map.field_id("key");
/// let left = map.field_id("left");
/// // A 16-byte node: key at 0..8, left at 8..12 (12..16 is padding).
/// let node = map.add_table(&[(key, 0, 8), (left, 8, 4)]);
/// // Ten such nodes packed at 0x1000.
/// map.add_extent(0x1000, 0x1000 + 160, 16, node);
/// assert_eq!(map.resolve(0x1000), Some(key));
/// assert_eq!(map.resolve(0x1000 + 3 * 16 + 8), Some(left));
/// assert_eq!(map.resolve(0x1000 + 12), None, "padding");
/// assert_eq!(map.resolve(0x42), None, "outside every extent");
/// ```
#[derive(Clone, Debug, Default)]
pub struct FieldMap {
    /// Index = field id.
    names: Vec<String>,
    /// Span tables; each sorted by offset, non-overlapping.
    tables: Vec<Vec<FieldSpan>>,
    /// Sorted by `start`; extents never overlap.
    extents: Vec<Extent>,
    /// Per span table, a byte-offset index: entry `o` is one plus the id
    /// of the field covering offset `o`, or zero for padding. Built for
    /// tables that end within [`OFFSET_INDEX_MAX`] bytes (every object
    /// the simulator lays out); an offset past the index falls back to
    /// the binary search over the spans.
    offset_index: Vec<Vec<u32>>,
}

impl FieldMap {
    /// An empty map: every address resolves to `None`.
    pub fn new() -> Self {
        FieldMap::default()
    }

    /// Interns `name`, returning its id (existing names return the id
    /// they were first given — tallies for one field name aggregate
    /// across layouts).
    pub fn field_id(&mut self, name: &str) -> FieldId {
        match self.names.iter().position(|n| n == name) {
            Some(i) => FieldId(i as u32),
            None => {
                self.names.push(name.to_string());
                FieldId((self.names.len() - 1) as u32)
            }
        }
    }

    /// Registers a span table — `(field, offset, size)` byte spans
    /// within one object — and returns its index for
    /// [`FieldMap::add_extent`].
    ///
    /// # Panics
    ///
    /// Panics if a span is empty or two spans overlap: field spans
    /// partition the object by construction.
    pub fn add_table(&mut self, spans: &[(FieldId, u64, u64)]) -> u32 {
        let mut table: Vec<FieldSpan> = spans
            .iter()
            .map(|&(field, offset, size)| {
                assert!(size > 0, "empty field span at offset {offset:#x}");
                FieldSpan {
                    offset,
                    size,
                    field: field.raw(),
                }
            })
            .collect();
        table.sort_by_key(|s| s.offset);
        for pair in table.windows(2) {
            assert!(
                pair[0].offset + pair[0].size <= pair[1].offset,
                "overlapping field spans at {:#x} and {:#x}",
                pair[0].offset,
                pair[1].offset,
            );
        }
        let end = table.last().map_or(0, |s| s.offset + s.size);
        let mut index = Vec::new();
        if end <= OFFSET_INDEX_MAX {
            index.resize(end as usize, 0);
            for s in &table {
                index[s.offset as usize..(s.offset + s.size) as usize].fill(s.field + 1);
            }
        }
        self.offset_index.push(index);
        self.tables.push(table);
        (self.tables.len() - 1) as u32
    }

    /// Registers the object extent `[start, end)` whose byte offsets
    /// repeat with period `stride` and are described by span table
    /// `table`. A single object passes `stride == end - start`; a dense
    /// pool or SoA array passes its element stride.
    ///
    /// # Panics
    ///
    /// Panics on an empty extent, a zero stride, an unknown table, or
    /// an overlap with a registered extent.
    pub fn add_extent(&mut self, start: u64, end: u64, stride: u64, table: u32) {
        assert!(start < end, "empty extent {start:#x}..{end:#x}");
        assert!(stride > 0, "extent stride must be nonzero");
        assert!((table as usize) < self.tables.len(), "unknown span table");
        let at = self.extents.partition_point(|e| e.start < start);
        let fits_left = at == 0 || self.extents[at - 1].end <= start;
        let fits_right = at == self.extents.len() || end <= self.extents[at].start;
        assert!(
            fits_left && fits_right,
            "extent {start:#x}..{end:#x} overlaps a registered extent",
        );
        self.extents.insert(
            at,
            Extent {
                start,
                end,
                stride,
                table,
            },
        );
    }

    /// The field owning `addr`, or `None` if the address is outside
    /// every extent or in padding between field spans.
    pub fn resolve(&self, addr: u64) -> Option<FieldId> {
        self.resolve_near(addr, &mut 0)
    }

    /// [`FieldMap::resolve`] starting from the extent `hint` names (the
    /// one the previous lookup landed in), falling back to the binary
    /// search only when `addr` lies outside it; `hint` is updated to the
    /// extent this lookup found. A pointer chase through one arena stays
    /// in one extent, so the per-access cost drops to two compares, the
    /// offset reduction (a mask for a power-of-two stride, not a
    /// division) and one load from the table's byte-offset index.
    #[inline]
    pub(crate) fn resolve_near(&self, addr: u64, hint: &mut usize) -> Option<FieldId> {
        let e = match self.extents.get(*hint) {
            Some(e) if e.start <= addr && addr < e.end => *e,
            _ => {
                let idx = self.extents.partition_point(|e| e.start <= addr);
                let e = self.extents[idx.checked_sub(1)?];
                if addr >= e.end {
                    return None;
                }
                *hint = idx - 1;
                e
            }
        };
        let rel = addr - e.start;
        let off = if e.stride.is_power_of_two() {
            rel & (e.stride - 1)
        } else {
            rel % e.stride
        };
        if let Some(&f) = self.offset_index[e.table as usize].get(off as usize) {
            return f.checked_sub(1).map(FieldId);
        }
        let table = &self.tables[e.table as usize];
        let s = table[table.partition_point(|s| s.offset <= off).checked_sub(1)?];
        (off < s.offset + s.size).then_some(FieldId(s.field))
    }

    /// The name a field was interned under.
    pub fn name(&self, field: FieldId) -> &str {
        &self.names[field.index()]
    }

    /// Number of interned field names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no fields are interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_extent_resolves_every_element() {
        let mut map = FieldMap::new();
        let key = map.field_id("key");
        let links = map.field_id("links");
        let t = map.add_table(&[(key, 0, 8), (links, 8, 8)]);
        map.add_extent(0x100, 0x100 + 64, 16, t);
        for i in 0..4u64 {
            assert_eq!(map.resolve(0x100 + i * 16), Some(key));
            assert_eq!(map.resolve(0x100 + i * 16 + 7), Some(key));
            assert_eq!(map.resolve(0x100 + i * 16 + 8), Some(links));
            assert_eq!(map.resolve(0x100 + i * 16 + 15), Some(links));
        }
        assert_eq!(map.resolve(0x100 + 64), None, "end is exclusive");
        assert_eq!(map.resolve(0xff), None);
    }

    #[test]
    fn interning_shares_ids_across_tables() {
        let mut map = FieldMap::new();
        let a1 = map.field_id("key");
        let t1 = map.add_table(&[(a1, 0, 8)]);
        let a2 = map.field_id("key");
        assert_eq!(a1, a2);
        let t2 = map.add_table(&[(a2, 0, 4)]);
        map.add_extent(0x100, 0x110, 8, t1);
        map.add_extent(0x200, 0x210, 4, t2);
        assert_eq!(map.resolve(0x104), Some(a1));
        assert_eq!(map.resolve(0x203), Some(a1));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn padding_between_spans_is_unattributed() {
        let mut map = FieldMap::new();
        let a = map.field_id("a");
        let b = map.field_id("b");
        let t = map.add_table(&[(a, 0, 2), (b, 8, 4)]);
        map.add_extent(0x0, 0x10, 16, t);
        assert_eq!(map.resolve(0x1), Some(a));
        assert_eq!(map.resolve(0x2), None, "padding after a");
        assert_eq!(map.resolve(0x8), Some(b));
        assert_eq!(map.resolve(0xc), None, "trailing padding");
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_extents_are_rejected() {
        let mut map = FieldMap::new();
        let a = map.field_id("a");
        let t = map.add_table(&[(a, 0, 4)]);
        map.add_extent(0x100, 0x200, 4, t);
        map.add_extent(0x1ff, 0x300, 4, t);
    }

    #[test]
    #[should_panic(expected = "overlapping field spans")]
    fn overlapping_spans_are_rejected() {
        let mut map = FieldMap::new();
        let a = map.field_id("a");
        let b = map.field_id("b");
        map.add_table(&[(a, 0, 8), (b, 4, 4)]);
    }
}
