//! Point-in-time heap layout snapshots — the input side of `cc-audit`.
//!
//! The paper's techniques make *structural* claims about where elements
//! land (same cache block as the hint, hot elements in hot sets, …).
//! Checking those claims needs a queryable picture of the live heap:
//! every allocation's address, size, birth order, and the placement hint
//! it was requested with. [`LayoutSnapshot`] is that picture, produced by
//! [`Allocator::snapshot`](crate::Allocator::snapshot) on every
//! allocator — including the baseline `Malloc`, which records the hints
//! it *ignored* so an auditor can measure what co-location was asked for
//! but not delivered.

use cc_sim::fasthash::FastHashMap;

/// One live allocation, as the allocator saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocRecord {
    /// Payload start address.
    pub addr: u64,
    /// Requested payload size in bytes (before any allocator rounding).
    pub size: u64,
    /// Birth order: the 0-based index of the `alloc`/`alloc_hint` call
    /// that produced this record. Ids are never reused, so they order
    /// allocations even across frees.
    pub id: u64,
    /// The placement hint passed at allocation time, whether or not the
    /// allocator honoured it. `None` for hint-less allocations.
    pub hint: Option<u64>,
}

impl AllocRecord {
    /// Exclusive end address of the payload.
    pub fn end(&self) -> u64 {
        self.addr + self.size
    }

    /// Whether `addr` falls inside this allocation's payload.
    pub fn contains(&self, addr: u64) -> bool {
        self.addr <= addr && addr < self.end()
    }
}

/// An immutable, address-ordered view of all live allocations.
///
/// # Example
///
/// ```
/// use cc_heap::{Allocator, Malloc};
///
/// let mut heap = Malloc::new(8192);
/// let a = heap.alloc(20);
/// let b = heap.alloc_hint(20, Some(a));
/// let snap = heap.snapshot();
/// assert_eq!(snap.len(), 2);
/// assert_eq!(snap.record_at(b).unwrap().hint, Some(a));
/// ```
#[derive(Clone, Debug, Default)]
pub struct LayoutSnapshot {
    /// Sorted by `addr`; allocations never overlap.
    records: Vec<AllocRecord>,
}

impl LayoutSnapshot {
    /// Builds a snapshot from unordered records.
    ///
    /// # Panics
    ///
    /// Panics if two records overlap — live allocations are disjoint by
    /// construction, so an overlap is an allocator bug worth failing
    /// loudly on.
    pub fn from_records(mut records: Vec<AllocRecord>) -> Self {
        records.sort_by_key(|r| r.addr);
        for pair in records.windows(2) {
            assert!(
                pair[0].end() <= pair[1].addr,
                "overlapping allocations: {:#x}+{} and {:#x}",
                pair[0].addr,
                pair[0].size,
                pair[1].addr,
            );
        }
        LayoutSnapshot { records }
    }

    /// All records, in address order.
    pub fn records(&self) -> &[AllocRecord] {
        &self.records
    }

    /// Number of live allocations.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record whose payload contains `addr`, if any.
    pub fn record_at(&self, addr: u64) -> Option<&AllocRecord> {
        let idx = self.records.partition_point(|r| r.addr <= addr);
        let r = &self.records[idx.checked_sub(1)?];
        r.contains(addr).then_some(r)
    }

    /// Total live payload bytes.
    pub fn live_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.size).sum()
    }
}

/// Bookkeeping an allocator keeps per live allocation so it can answer
/// [`Allocator::snapshot`](crate::Allocator::snapshot). Shared by both
/// allocator implementations.
#[derive(Clone, Debug, Default)]
pub(crate) struct SnapshotLedger {
    /// Address → (requested size, id, hint).
    live: FastHashMap<u64, (u64, u64, Option<u64>)>,
    next_id: u64,
}

impl SnapshotLedger {
    /// Records a new allocation, assigning it the next birth id.
    pub(crate) fn record(&mut self, addr: u64, size: u64, hint: Option<u64>) {
        let id = self.next_id;
        self.next_id += 1;
        self.live.insert(addr, (size, id, hint));
    }

    /// Drops and returns the `(size, id, hint)` record for a freed
    /// allocation, so the caller can double as the boundary tag.
    pub(crate) fn forget(&mut self, addr: u64) -> Option<(u64, u64, Option<u64>)> {
        self.live.remove(&addr)
    }

    /// Materializes the snapshot.
    pub(crate) fn snapshot(&self) -> LayoutSnapshot {
        LayoutSnapshot::from_records(
            self.live
                .iter()
                .map(|(&addr, &(size, id, hint))| AllocRecord {
                    addr,
                    size,
                    id,
                    hint,
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_sorted_and_queryable() {
        let snap = LayoutSnapshot::from_records(vec![
            AllocRecord {
                addr: 0x200,
                size: 16,
                id: 1,
                hint: Some(0x100),
            },
            AllocRecord {
                addr: 0x100,
                size: 32,
                id: 0,
                hint: None,
            },
        ]);
        assert_eq!(snap.records()[0].addr, 0x100);
        assert_eq!(snap.record_at(0x11f).unwrap().id, 0);
        assert!(snap.record_at(0x120).is_none());
        assert_eq!(snap.record_at(0x20f).unwrap().hint, Some(0x100));
        assert_eq!(snap.live_bytes(), 48);
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlap_is_rejected() {
        LayoutSnapshot::from_records(vec![
            AllocRecord {
                addr: 0x100,
                size: 32,
                id: 0,
                hint: None,
            },
            AllocRecord {
                addr: 0x110,
                size: 8,
                id: 1,
                hint: None,
            },
        ]);
    }

    #[test]
    fn ledger_assigns_birth_order_across_frees() {
        let mut ledger = SnapshotLedger::default();
        ledger.record(0x100, 8, None);
        ledger.forget(0x100);
        ledger.record(0x100, 8, Some(0x50));
        let snap = ledger.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.records()[0].id, 1, "ids are not reused");
    }
}
