//! The in-core B-tree baseline of the microbenchmark (Section 4.2).
//!
//! Database B-trees bridge the memory/disk gap the same way the C-tree
//! bridges the cache/memory gap, so the paper measures a B-tree whose
//! nodes are exactly one L2 cache block, colored to reduce conflicts. The
//! paper's explanation for the C-tree's 1.5× advantage: "B-trees reserve
//! extra space in tree nodes to handle insertion gracefully, and hence do
//! not manage cache space as efficiently" — modelled here by the bulk-load
//! fill factor.

use crate::NIL;
use cc_core::color::ColoredSpace;
use cc_heap::VirtualSpace;
use cc_sim::event::EventSink;
use cc_sim::MachineConfig;

/// One node: a 24-byte record over the tree's flat key array. A node's
/// keys are `BTree::keys[keys_at..keys_at + nkeys]`; its children are
/// the contiguous ids `kids_at..kids_at + nkids` (the bulk load builds
/// each internal node from one consecutive run of the level below), and
/// a leaf has none.
#[derive(Clone, Copy, Debug)]
struct BNode {
    addr: u64,
    keys_at: u32,
    nkeys: u32,
    kids_at: u32,
    nkids: u32,
}

impl BNode {
    fn kids(&self) -> std::ops::Range<u32> {
        self.kids_at..self.kids_at + self.nkids
    }
}

/// A bulk-loaded B+-style search tree with cache-block-sized nodes.
///
/// # Example
///
/// ```
/// use cc_trees::btree::BTree;
/// use cc_sim::event::NullSink;
///
/// let keys: Vec<u64> = (0..1000).map(|i| 2 * i).collect();
/// let t = BTree::build_from_sorted(&keys, 64, 0.7);
/// assert!(t.search(500, &mut NullSink));
/// assert!(!t.search(501, &mut NullSink));
/// ```
#[derive(Clone, Debug)]
pub struct BTree {
    nodes: Vec<BNode>,
    /// Every node's keys, node after node (see [`BNode`]).
    keys: Vec<u64>,
    root: u32,
    node_bytes: u64,
    max_keys: usize,
    height: usize,
}

impl BTree {
    /// Maximum keys for a node of `node_bytes`: 8-byte keys, 4-byte child
    /// pointers, 4-byte count — the paper's 32-bit layout.
    pub fn max_keys_for(node_bytes: u64) -> usize {
        // max_keys*8 + (max_keys+1)*4 + 4 <= node_bytes
        (((node_bytes - 8) / 12) as usize).max(1)
    }

    /// Bulk-loads a B-tree from sorted, distinct `keys`. Nodes are
    /// `node_bytes` big (one cache block in the paper), filled to `fill`
    /// of capacity — the slack a real B-tree keeps for insertions.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is empty, unsorted, or `fill ∉ (0, 1]`.
    pub fn build_from_sorted(keys: &[u64], node_bytes: u64, fill: f64) -> Self {
        assert!(!keys.is_empty(), "keys must be nonempty");
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys must be sorted");
        assert!(fill > 0.0 && fill <= 1.0, "fill factor must be in (0, 1]");
        let max_keys = Self::max_keys_for(node_bytes);
        let per_node = ((max_keys as f64 * fill).round() as usize).clamp(1, max_keys);

        // Size both arrays exactly up front: every node but the root is
        // someone's child and each internal node holds one separator per
        // child but the first, so the separators number `leaves - 1`.
        let group = per_node + 1;
        let leaves = keys.len().div_ceil(per_node);
        let mut node_total = leaves;
        let mut width = leaves;
        while width > 1 {
            width = width.div_ceil(group);
            node_total += width;
        }
        let mut t = BTree {
            nodes: Vec::with_capacity(node_total),
            keys: Vec::with_capacity(keys.len() + leaves - 1),
            root: NIL,
            node_bytes,
            max_keys,
            height: 0,
        };

        // Leaves. Each level's nodes take consecutive ids from
        // `level_start`; `seps` holds the first key under each of them.
        let mut level_start = 0u32;
        let mut seps: Vec<u64> = Vec::new();
        for chunk in keys.chunks(per_node) {
            t.push_node(chunk, 0, 0);
            seps.push(chunk[0]);
        }
        t.height = 1;

        // Internal levels: group per_node+1 consecutive children per parent.
        while seps.len() > 1 {
            let next_start = t.nodes.len() as u32;
            let mut next_seps = Vec::new();
            for (i, sep_chunk) in seps.chunks(group).enumerate() {
                // Separators: first key of each child except the first.
                let kids_at = level_start + (i * group) as u32;
                t.push_node(&sep_chunk[1..], kids_at, sep_chunk.len() as u32);
                next_seps.push(sep_chunk[0]);
            }
            level_start = next_start;
            seps = next_seps;
            t.height += 1;
        }
        t.root = level_start;
        debug_assert_eq!(
            (t.nodes.len(), t.keys.len()),
            (node_total, keys.len() + leaves - 1)
        );
        t.layout_bfs();
        t
    }

    fn push_node(&mut self, keys: &[u64], kids_at: u32, nkids: u32) {
        let keys_at = u32::try_from(self.keys.len()).expect("key array fits u32 offsets");
        self.keys.extend_from_slice(keys);
        self.nodes.push(BNode {
            addr: 0,
            keys_at,
            nkeys: keys.len() as u32,
            kids_at,
            nkids,
        });
    }

    fn keys_of(&self, node: &BNode) -> &[u64] {
        &self.keys[node.keys_at as usize..][..node.nkeys as usize]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Tree height in levels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Maximum keys a node can hold at this node size.
    pub fn max_keys(&self) -> usize {
        self.max_keys
    }

    /// Bytes of node storage.
    pub fn data_bytes(&self) -> u64 {
        self.nodes.len() as u64 * self.node_bytes
    }

    fn bfs_order(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut q = std::collections::VecDeque::from([self.root]);
        while let Some(n) = q.pop_front() {
            out.push(n);
            q.extend(self.nodes[n as usize].kids());
        }
        out
    }

    /// Default layout: nodes contiguous in level (BFS) order.
    pub fn layout_bfs(&mut self) {
        let mut vspace = VirtualSpace::new(8192);
        let base = vspace.alloc_bytes(self.data_bytes());
        for (i, id) in self.bfs_order().into_iter().enumerate() {
            self.nodes[id as usize].addr = base + i as u64 * self.node_bytes;
        }
    }

    /// Colors the tree: the top levels (up to the hot region's capacity)
    /// go to the reserved hot portion of the cache, the rest to the cold
    /// portion — "an in-core B-tree, also colored to reduce cache
    /// conflicts" (Section 4.2).
    pub fn color(&mut self, vspace: &mut VirtualSpace, machine: &MachineConfig, hot_fraction: f64) {
        let mut cs = ColoredSpace::new(
            vspace,
            machine.l2,
            machine.page_bytes,
            hot_fraction,
            self.data_bytes(),
        );
        let hot_budget = (cs.hot_capacity() / self.node_bytes) as usize;
        for (i, id) in self.bfs_order().into_iter().enumerate() {
            self.nodes[id as usize].addr = if i < hot_budget {
                cs.alloc_hot(self.node_bytes)
            } else {
                cs.alloc_cold(self.node_bytes)
            };
        }
    }

    /// Searches for `key`, narrating one block-sized load plus in-node
    /// binary-search work per level.
    pub fn search<S: EventSink>(&self, key: u64, sink: &mut S) -> bool {
        let mut cur = self.root;
        loop {
            let node = &self.nodes[cur as usize];
            sink.load(node.addr, self.node_bytes as u32);
            // In-node binary search: ~log2(keys) compares and branches
            // (`ilog2(m - 1) + 1` is `ceil(log2(m))` for `m >= 2`).
            let keys = self.keys_of(node);
            let cmps = (keys.len().max(2) - 1).ilog2() + 1;
            sink.inst(2 * cmps);
            sink.branch(cmps);
            if node.nkids == 0 {
                return keys.binary_search(&key).is_ok();
            }
            cur = node.kids_at + keys.partition_point(|&k| k <= key) as u32;
        }
    }

    /// All keys in order (for correctness tests).
    pub fn keys_in_order(&self) -> Vec<u64> {
        fn walk(t: &BTree, n: u32, out: &mut Vec<u64>) {
            let node = &t.nodes[n as usize];
            if node.nkids == 0 {
                out.extend(t.keys_of(node));
            } else {
                for k in node.kids() {
                    walk(t, k, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(self, self.root, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_sim::event::{NullSink, TraceBuffer};

    fn keys(n: u64) -> Vec<u64> {
        (0..n).map(|i| 2 * i).collect()
    }

    #[test]
    fn node_capacity_for_64_byte_block() {
        // 4 keys * 8 + 5 kids * 4 + 4 = 56 <= 64.
        assert_eq!(BTree::max_keys_for(64), 4);
        assert_eq!(BTree::max_keys_for(128), 10);
    }

    #[test]
    fn bulk_load_preserves_keys() {
        let ks = keys(10_000);
        let t = BTree::build_from_sorted(&ks, 64, 0.7);
        assert_eq!(t.keys_in_order(), ks);
    }

    #[test]
    fn search_correctness() {
        let ks = keys(5000);
        let t = BTree::build_from_sorted(&ks, 64, 0.7);
        for i in (0..5000).step_by(37) {
            assert!(t.search(2 * i, &mut NullSink));
            assert!(!t.search(2 * i + 1, &mut NullSink));
        }
    }

    #[test]
    fn height_is_logarithmic() {
        let t = BTree::build_from_sorted(&keys(1 << 20), 64, 0.7);
        // per_node = 3, branching 4: height ~ log4(2^20/3) + 1 ≈ 10.
        assert!(t.height() >= 9 && t.height() <= 12, "{}", t.height());
    }

    #[test]
    fn search_costs_one_load_per_level() {
        let t = BTree::build_from_sorted(&keys(1 << 16), 64, 0.7);
        let mut buf = TraceBuffer::new();
        t.search(12345, &mut buf);
        assert_eq!(buf.memory_refs(), t.height());
    }

    #[test]
    fn fuller_nodes_make_shorter_trees() {
        let ks = keys(1 << 16);
        let loose = BTree::build_from_sorted(&ks, 64, 0.5);
        let tight = BTree::build_from_sorted(&ks, 64, 1.0);
        assert!(tight.height() <= loose.height());
        assert!(tight.node_count() < loose.node_count());
    }

    #[test]
    fn coloring_assigns_unique_addresses() {
        let mut t = BTree::build_from_sorted(&keys(50_000), 64, 0.7);
        let mut vs = VirtualSpace::new(8192);
        t.color(&mut vs, &cc_sim::MachineConfig::ultrasparc_e5000(), 0.5);
        let mut addrs: Vec<u64> = t.nodes.iter().map(|n| n.addr).collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), t.node_count());
        // Still correct.
        assert!(t.search(2 * 31337, &mut NullSink));
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_keys_rejected() {
        BTree::build_from_sorted(&[3, 1, 2], 64, 0.7);
    }
}
