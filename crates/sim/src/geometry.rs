//! Cache geometry: the paper's cache configuration `C<c, b, a>` where `c` is
//! the number of sets, `b` the block size, and `a` the associativity
//! (Section 5.1).

use std::fmt;

/// Geometry of one cache level: `sets` × `assoc` blocks of `block_bytes`.
///
/// Addresses are 64-bit byte addresses in the simulated virtual address
/// space. The usual power-of-two decomposition applies: the block offset is
/// the low `log2(block_bytes)` bits and the set index the next
/// `log2(sets)` bits.
///
/// # Example
///
/// ```
/// use cc_sim::geometry::CacheGeometry;
///
/// let l2 = CacheGeometry::new(16 * 1024, 64, 1); // 1 MB direct-mapped
/// assert_eq!(l2.capacity_bytes(), 1 << 20);
/// assert_eq!(l2.set_of(0), l2.set_of(63));
/// assert_ne!(l2.set_of(0), l2.set_of(64));
/// ```
// Field order pinned per cc-lint PAD-01: declaration order interleaving the
// u32 shifts with the u64 mask wasted 8 padding bytes (48 B vs 40 B). The
// u64s lead, the two u32s pack the tail, and repr(C) guarantees it.
#[derive(Clone, Copy)]
#[repr(C)]
pub struct CacheGeometry {
    sets: u64,
    block_bytes: u64,
    assoc: u64,
    /// `sets - 1`, so `blockno & set_mask` is the set index.
    set_mask: u64, // cc-hot
    /// `log2(block_bytes)`, so `addr >> block_shift` is the block number.
    block_shift: u32, // cc-hot
    /// `log2(block_bytes) + log2(sets)`, so `addr >> tag_shift` is the tag.
    tag_shift: u32, // cc-hot
}

// Equality and hashing ignore the derived mask/shift fields (they are pure
// functions of `sets` and `block_bytes`).
impl PartialEq for CacheGeometry {
    fn eq(&self, other: &Self) -> bool {
        self.sets == other.sets
            && self.block_bytes == other.block_bytes
            && self.assoc == other.assoc
    }
}

impl Eq for CacheGeometry {}

impl std::hash::Hash for CacheGeometry {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.sets.hash(state);
        self.block_bytes.hash(state);
        self.assoc.hash(state);
    }
}

impl CacheGeometry {
    /// Creates a geometry with `sets` sets of `assoc` blocks of
    /// `block_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `block_bytes` is not a nonzero power of two, or
    /// if `assoc` is zero.
    pub fn new(sets: u64, block_bytes: u64, assoc: u64) -> Self {
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two, got {sets}"
        );
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a power of two, got {block_bytes}"
        );
        assert!(assoc > 0, "associativity must be nonzero");
        let block_shift = block_bytes.trailing_zeros();
        CacheGeometry {
            sets,
            block_bytes,
            assoc,
            block_shift,
            set_mask: sets - 1,
            tag_shift: block_shift + sets.trailing_zeros(),
        }
    }

    /// Convenience constructor from a total capacity in bytes.
    ///
    /// # Panics
    ///
    /// Panics if the implied set count is not a power of two.
    pub fn with_capacity(capacity_bytes: u64, block_bytes: u64, assoc: u64) -> Self {
        assert!(assoc > 0 && block_bytes > 0);
        let sets = capacity_bytes / (block_bytes * assoc);
        Self::new(sets, block_bytes, assoc)
    }

    /// Number of sets (`c` in the paper's `C<c, b, a>`).
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Block size in bytes (`b`).
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Associativity (`a`).
    pub fn assoc(&self) -> u64 {
        self.assoc
    }

    /// Total capacity in bytes: `sets × assoc × block_bytes`.
    pub fn capacity_bytes(&self) -> u64 {
        self.sets * self.assoc * self.block_bytes
    }

    /// Bytes covered by one way: `sets × block_bytes`. Addresses equal
    /// modulo this distance conflict (map to the same set), which makes it
    /// the period of the paper's coloring scheme: a color picks an offset
    /// range within each way-sized window of the address space.
    pub fn way_bytes(&self) -> u64 {
        self.sets * self.block_bytes
    }

    /// The block-aligned address containing `addr`.
    ///
    /// Both dimensions are powers of two, so this and the other address
    /// decompositions are single mask/shift operations over fields
    /// precomputed in [`CacheGeometry::new`] — the hot path never divides.
    pub fn block_of(&self, addr: u64) -> u64 {
        addr & !(self.block_bytes - 1)
    }

    /// The set index `addr` maps to.
    pub fn set_of(&self, addr: u64) -> u64 {
        (addr >> self.block_shift) & self.set_mask
    }

    /// Inverse of the (tag, set) decomposition: the block-aligned address
    /// with tag `tag` in set `set`. Reconstructs eviction victims from
    /// stored tags — for every address `a`,
    /// `block_addr(tag_of(a), set_of(a)) == block_of(a)`.
    pub fn block_addr(&self, tag: u64, set: u64) -> u64 {
        (tag << self.tag_shift) | (set << self.block_shift)
    }

    /// The tag of `addr` (bits above the set index).
    pub fn tag_of(&self, addr: u64) -> u64 {
        addr >> self.tag_shift
    }

    /// Number of structure elements of `elem_bytes` bytes that fit in one
    /// block: the paper's `k = ⌊b/e⌋` (Section 5.3). Returns at least 1 so
    /// that oversized elements still occupy "a" block for analysis purposes.
    pub fn elems_per_block(&self, elem_bytes: u64) -> u64 {
        (self.block_bytes / elem_bytes.max(1)).max(1)
    }

    /// Iterator over the block-aligned addresses touched by the byte range
    /// `[addr, addr + size)`. A well-aligned scalar access touches exactly
    /// one block; an element straddling a block boundary touches two.
    pub fn blocks_touched(&self, addr: u64, size: u64) -> impl Iterator<Item = u64> {
        let first = self.block_of(addr);
        let last = self.block_of(addr + size.max(1) - 1);
        let step = self.block_bytes;
        (first..=last).step_by(step as usize)
    }
}

impl fmt::Debug for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "C<{} sets, {} B blocks, {}-way> ({} KB)",
            self.sets,
            self.block_bytes,
            self.assoc,
            self.capacity_bytes() / 1024
        )
    }
}

impl fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e5000_l1_geometry() {
        // 16 KB direct-mapped with 16 B lines => 1024 sets.
        let g = CacheGeometry::with_capacity(16 * 1024, 16, 1);
        assert_eq!(g.sets(), 1024);
        assert_eq!(g.capacity_bytes(), 16 * 1024);
    }

    #[test]
    fn way_bytes_is_the_conflict_period() {
        let g = CacheGeometry::new(4, 16, 2);
        assert_eq!(g.way_bytes(), 64);
        assert_eq!(g.set_of(0x12), g.set_of(0x12 + g.way_bytes()));
    }

    #[test]
    fn set_wraps_at_capacity() {
        let g = CacheGeometry::new(4, 16, 1);
        // Addresses one cache-capacity apart map to the same set.
        assert_eq!(g.set_of(0x0), g.set_of(4 * 16));
        assert_eq!(g.set_of(0x10), 1);
        assert_eq!(g.set_of(0x30), 3);
    }

    #[test]
    fn tags_distinguish_conflicting_blocks() {
        let g = CacheGeometry::new(4, 16, 1);
        assert_eq!(g.set_of(0), g.set_of(64));
        assert_ne!(g.tag_of(0), g.tag_of(64));
    }

    #[test]
    fn elems_per_block_matches_paper_k() {
        // The microbenchmark's 20-byte tree nodes in 64-byte L2 blocks:
        // k = 3 (Section 5.4 clusters subtrees of size 3).
        let l2 = CacheGeometry::with_capacity(1 << 20, 64, 1);
        assert_eq!(l2.elems_per_block(20), 3);
        // And 16-byte L1 blocks hold none fully; clamped to 1.
        let l1 = CacheGeometry::with_capacity(16 * 1024, 16, 1);
        assert_eq!(l1.elems_per_block(20), 1);
    }

    #[test]
    fn straddling_access_touches_two_blocks() {
        let g = CacheGeometry::new(1024, 64, 1);
        let blocks: Vec<u64> = g.blocks_touched(60, 8).collect();
        assert_eq!(blocks, vec![0, 64]);
        let one: Vec<u64> = g.blocks_touched(0, 64).collect();
        assert_eq!(one, vec![0]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        let _ = CacheGeometry::new(3, 16, 1);
    }

    #[test]
    fn zero_size_access_touches_one_block() {
        let g = CacheGeometry::new(16, 64, 1);
        assert_eq!(g.blocks_touched(128, 0).count(), 1);
    }
}

// Compiler-backed pin of the cc-lint offset model for `CacheGeometry`
// (fields are private, so the check lives in-crate); registered in the
// sweep in `cc-lint/tests/verify_offsets.rs`.
#[cfg(test)]
mod lint_verify {
    use super::CacheGeometry;
    use cc_lint::{analyze_sources, HotSpec, LintConfig};

    #[test]
    fn geometry_layout_matches_compiler() {
        let report = analyze_sources(
            &[(
                "geometry.rs".to_string(),
                include_str!("geometry.rs").to_string(),
            )],
            &HotSpec::empty(),
            &LintConfig::default(),
        );
        let g = report
            .structs
            .iter()
            .find(|s| s.name == "CacheGeometry")
            .expect("CacheGeometry modeled");
        assert!(g.exact);
        assert_eq!(g.size, core::mem::size_of::<CacheGeometry>() as u64);
        assert_eq!(g.align, core::mem::align_of::<CacheGeometry>() as u64);
        assert_eq!(g.size, 40, "reorder recovered the 8 padding bytes");
        assert_eq!(g.padding, 0);
        assert_eq!(g.optimal_size, g.size, "declaration order is optimal now");
        for (name, offset) in [
            ("sets", core::mem::offset_of!(CacheGeometry, sets)),
            (
                "block_bytes",
                core::mem::offset_of!(CacheGeometry, block_bytes),
            ),
            ("assoc", core::mem::offset_of!(CacheGeometry, assoc)),
            ("set_mask", core::mem::offset_of!(CacheGeometry, set_mask)),
            (
                "block_shift",
                core::mem::offset_of!(CacheGeometry, block_shift),
            ),
            ("tag_shift", core::mem::offset_of!(CacheGeometry, tag_shift)),
        ] {
            let modeled = g
                .fields
                .iter()
                .find(|(n, ..)| n == name)
                .map(|f| f.1)
                .expect("field modeled");
            assert_eq!(modeled, offset as u64, "offset of CacheGeometry.{name}");
        }
    }
}
