//! A dense membership set over block-aligned simulated addresses.
//!
//! Each [`crate::cache::Cache`] tracks every block address that was ever
//! resident, to classify re-reference misses — a set probed and updated on
//! *every* miss, which makes it one of the hottest structures in the
//! simulator. The heaps this repository simulates come from `VirtualSpace`
//! bump allocation, so the block population is dense over one contiguous
//! window: a bitmap answers membership in a couple of arithmetic ops and a
//! single, usually host-cache-resident, load — an order of magnitude
//! cheaper than any hash probe.
//!
//! The window is anchored at the first inserted block and grows on demand
//! in both directions: the first block a trace touches is wherever its
//! first reference lands — for a randomly laid out tree, the root,
//! mid-heap — so a window that only grew upward sent every block below
//! it to the hash set, most of the probes on such traces. Blocks the
//! window does not cover spill into a hash set, keeping membership exact
//! for arbitrary address patterns. The window never grows past
//! [`MAX_WORDS`], and grows downward only while it stays dense (at most
//! one word per member past a 64-word start), so a heap far below the
//! first one, or tiny mixed with astronomical addresses, spills instead
//! of allocating a mostly empty bitmap; once the spilled population is
//! dense enough, a growth step takes it back into the bitmap.

use crate::fasthash::FastHashSet;

/// Upper bound on the dense window, in 64-bit words: 2 MB of bitmap,
/// covering 16 M consecutive blocks (256 MB of heap at 16-byte blocks) —
/// beyond any workload here, while bounding worst-case memory.
const MAX_WORDS: usize = 1 << 18;

/// Set of block-aligned addresses: dense bitmap window + spill set.
#[derive(Clone, Debug, Default)]
pub(crate) struct BlockSet {
    /// `log2(block_bytes)`; `addr >> shift` is the block index.
    shift: u32,
    /// First block index the window covers (multiple of 64).
    base: u64,
    words: Vec<u64>,
    /// Distinct blocks inserted, in the window and the spill together.
    members: usize,
    /// Blocks outside the dense window (checked only when nonempty).
    spill: FastHashSet<u64>,
}

impl BlockSet {
    /// An empty set over blocks of `block_bytes` bytes (a power of two).
    pub(crate) fn new(block_bytes: u64) -> Self {
        debug_assert!(block_bytes.is_power_of_two());
        BlockSet {
            shift: block_bytes.trailing_zeros(),
            base: 0,
            words: Vec::new(),
            members: 0,
            spill: FastHashSet::default(),
        }
    }

    /// Whether the block containing `addr` was ever inserted.
    pub(crate) fn contains(&self, addr: u64) -> bool {
        let idx = addr >> self.shift;
        if idx >= self.base {
            let off = idx - self.base;
            let w = (off >> 6) as usize;
            if w < self.words.len() {
                return (self.words[w] >> (off & 63)) & 1 == 1;
            }
        }
        !self.spill.is_empty() && self.spill.contains(&idx)
    }

    /// Inserts the block containing `addr`; returns whether it was new.
    pub(crate) fn insert(&mut self, addr: u64) -> bool {
        let idx = addr >> self.shift;
        if self.words.is_empty() && self.spill.is_empty() {
            // Anchor the window at the first block seen.
            self.base = idx & !63;
        }
        let new = if !self.covers(idx) && !self.grow_to(idx) {
            self.spill.insert(idx)
        } else {
            let off = idx - self.base;
            let (w, bit) = ((off >> 6) as usize, 1u64 << (off & 63));
            let new = self.words[w] & bit == 0;
            self.words[w] |= bit;
            new
        };
        self.members += usize::from(new);
        new
    }

    /// Whether block index `idx` falls in the bitmap window.
    fn covers(&self, idx: u64) -> bool {
        idx >= self.base && (((idx - self.base) >> 6) as usize) < self.words.len()
    }

    /// Widens the window, up or down, to cover block index `idx`, and
    /// moves the spilled blocks it now covers into the bitmap. Growth is
    /// geometric (at least doubling), so repeated extension stays
    /// amortized O(1) per insert; it refuses past [`MAX_WORDS`].
    ///
    /// Upward growth is otherwise unconditional: a bump-allocated heap
    /// grows upward from wherever it was first touched, so the window
    /// follows it. Downward growth also waits until the bitmap would
    /// hold at most one word per member past its first 64. Below the
    /// anchor lies either the rest of a scattered heap, which fills in
    /// quickly, or a separate heap far away (mst's, ~130 MB apart),
    /// which costs less as spilled blocks than as a mostly empty bitmap.
    fn grow_to(&mut self, idx: u64) -> bool {
        let len = self.words.len();
        let (front, new_len) = if idx >= self.base {
            let w = ((idx - self.base) >> 6) as usize;
            if w >= MAX_WORDS {
                return false;
            }
            (0, (w + 1).next_power_of_two().clamp(64, MAX_WORDS))
        } else {
            let need = ((self.base - (idx & !63)) >> 6) as usize;
            if need + len > MAX_WORDS {
                return false;
            }
            let front = need
                .max(len)
                .min(MAX_WORDS - len)
                .min((self.base >> 6) as usize);
            if len + front > 64 + self.members {
                return false;
            }
            (front, len + front)
        };
        self.words.splice(0..0, std::iter::repeat_n(0, front));
        self.words.resize(new_len, 0);
        self.base -= (front as u64) << 6;
        let (base, words) = (self.base, &mut self.words);
        self.spill.retain(|&b| {
            let off = b.wrapping_sub(base);
            let w = (off >> 6) as usize;
            let moved = b >= base && w < words.len();
            if moved {
                words[w] |= 1 << (off & 63);
            }
            !moved
        });
        true
    }

    /// Removes every member.
    pub(crate) fn clear(&mut self) {
        self.base = 0;
        self.words.clear();
        self.members = 0;
        self.spill.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_membership() {
        let mut s = BlockSet::new(16);
        assert!(!s.contains(0x1000));
        s.insert(0x1000);
        assert!(s.contains(0x1000));
        assert!(s.contains(0x100f), "same block");
        assert!(!s.contains(0x1010), "next block");
        for a in (0x1000..0x9000u64).step_by(16) {
            s.insert(a);
        }
        assert!(s.contains(0x8ff0));
        assert!(!s.contains(0x9000));
    }

    #[test]
    fn below_anchor_grows_the_window() {
        // Anchored mid-heap, then the blocks below arrive in ascending
        // order: the first ones spill (the window would be mostly empty),
        // and once the population is dense the window grows down over
        // them and takes them out of the spill set.
        let mut s = BlockSet::new(16);
        s.insert(0x10_0000);
        for a in (0x0f_0000..0x10_0000u64).step_by(16) {
            s.insert(a);
        }
        assert!(s.spill.is_empty(), "no hashing for a dense heap");
        assert!((0x0f_0000..=0x10_0000u64)
            .step_by(16)
            .all(|a| s.contains(a)));
        assert!(!s.contains(0x0e_fff0));
        assert!(!s.contains(0x10_0010));
        assert_eq!(s.members, 4097);
    }

    #[test]
    fn descending_inserts_stay_dense() {
        // A randomly laid-out heap is touched from the middle outward.
        let mut s = BlockSet::new(64);
        for a in (0..4096u64).rev().map(|i| 0x4000_0000 + i * 64) {
            s.insert(a);
        }
        assert!(s.spill.is_empty());
        assert!(s.words.len() <= 2 * 4096 / 64, "geometric, not unbounded");
        assert!((0..4096u64).all(|i| s.contains(0x4000_0000 + i * 64)));
        assert!(!s.contains(0x4000_0000 - 64));
    }

    #[test]
    fn sparse_span_spills_instead_of_growing() {
        // Two small heaps 64 MB apart, the second below the first:
        // covering both would take a 64 KB bitmap for 512 blocks, so the
        // lower one spills.
        let mut s = BlockSet::new(16);
        let (hi, lo) = (0x4000_0000u64, 0x4000_0000u64 - (64 << 20));
        for i in 0..256u64 {
            s.insert(hi + i * 16);
            s.insert(lo + i * 16);
        }
        assert!(s.words.len() <= 64 + s.members);
        assert_eq!(s.spill.len(), 256);
        assert!((0..256u64).all(|i| s.contains(hi + i * 16) && s.contains(lo + i * 16)));
        assert!(!s.contains(lo + 256 * 16));
        // A heap as far *above* joins the bitmap: heaps grow upward.
        let up = hi + (64 << 20);
        s.insert(up);
        assert!(s.contains(up));
        assert_eq!(s.spill.len(), 256);
    }

    /// Membership is exact whatever the insertion order: three clusters
    /// (one far beyond the cap) inserted in a scrambled order, checked
    /// against a plain ordered set after every insert.
    #[test]
    fn matches_a_naive_set() {
        let mut s = BlockSet::new(32);
        let mut naive = std::collections::BTreeSet::new();
        let bases = [0x2000_0000u64, 0x1f80_0000, 1 << 40];
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = bases[(x % 3) as usize] + (x >> 8) % (1 << 18);
            assert_eq!(s.insert(addr), naive.insert(addr >> 5));
            let probe = bases[((x >> 4) % 3) as usize] + (x >> 30) % (1 << 18);
            assert_eq!(s.contains(probe), naive.contains(&(probe >> 5)));
        }
        assert_eq!(s.members, naive.len());
        assert!(naive.iter().all(|&b| s.contains(b << 5)));
    }

    #[test]
    fn far_below_window_spills() {
        let mut s = BlockSet::new(16);
        let far = (MAX_WORDS as u64) * 64 * 16 + 0x1000;
        s.insert(far);
        s.insert(0x10);
        assert!(s.contains(0x10));
        assert!(s.contains(far));
        assert!(!s.spill.is_empty(), "beyond the cap");
        assert!(!s.contains(0x20));
    }

    #[test]
    fn far_above_window_spills() {
        let mut s = BlockSet::new(16);
        s.insert(0x1000);
        let far = 0x1000 + (MAX_WORDS as u64) * 64 * 16 + 512;
        s.insert(far);
        assert!(s.contains(far));
        assert!(s.contains(0x1000));
        assert!(!s.contains(far + 16));
    }

    #[test]
    fn clear_empties() {
        let mut s = BlockSet::new(64);
        s.insert(0x40);
        s.insert(u64::MAX - 63);
        s.clear();
        assert!(!s.contains(0x40));
        assert!(!s.contains(u64::MAX - 63));
        // Re-anchors cleanly after clear.
        s.insert(0x80);
        assert!(s.contains(0x80));
    }
}
