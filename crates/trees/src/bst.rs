//! The balanced binary search tree of the paper's microbenchmark
//! (Section 4.2), with every layout the paper compares:
//! randomly clustered, depth-first clustered, and the transparent C-tree
//! (`ccmorph`ed: subtree-clustered, optionally colored).

use crate::{BST_NODE_BYTES, NIL};
use cc_core::ccmorph::{ccmorph, CcMorphParams, Layout};
use cc_core::cluster::{order, Order};
use cc_core::Topology;
use cc_heap::VirtualSpace;
use cc_sim::event::EventSink;
use cc_sim::prefetch::greedy_prefetch_children;

// Layout pinned per cc-lint: 24 B/node with zero padding, so a 64-byte line
// holds 2 whole nodes (2.67 on average across an arena) — under repr(Rust)
// the compiler was free to break that. The comparison key and child links
// are the hot bytes of the `Topology` walks (layout passes, audits, in-order
// iteration). `Bst::search` reads only `addr`: it derives each visited
// node's id, key and children from the midpoint build arithmetically.
#[derive(Clone, Copy, Debug)]
#[repr(C)]
struct Node {
    key: u64,   // cc-hot
    left: u32,  // cc-hot
    right: u32, // cc-hot
    addr: u64,
}

/// An arena-backed balanced binary search tree whose nodes live at
/// simulated addresses.
///
/// # Example
///
/// ```
/// use cc_trees::bst::Bst;
/// use cc_core::cluster::Order;
/// use cc_sim::event::NullSink;
///
/// let mut t = Bst::build_complete(1023);
/// t.layout_sequential(Order::DepthFirst);
/// assert!(t.search(500, &mut NullSink, false));
/// assert!(!t.search(5000, &mut NullSink, false));
/// ```
#[derive(Clone, Debug)]
pub struct Bst {
    nodes: Vec<Node>,
}

/// The root's arena id: the recursive build allocates it first.
const ROOT: u32 = 0;

impl Bst {
    /// Builds a balanced tree over keys `0..n` (each key is `2i`, so odd
    /// probes test the miss path). Nodes are pushed in the order a
    /// recursive build allocates them — the "allocation order" baseline.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn build_complete(n: u64) -> Self {
        assert!(n > 0, "tree must be nonempty");
        let mut t = Bst {
            nodes: Vec::with_capacity(n as usize),
        };
        let root = t.build_range(0, n);
        debug_assert_eq!(root, ROOT);
        // Default layout: allocation order, contiguous.
        t.layout_sequential(Order::DepthFirst);
        t
    }

    /// Recursive midpoint build; allocation order is pre-order DFS.
    fn build_range(&mut self, lo: u64, hi: u64) -> u32 {
        if lo >= hi {
            return NIL;
        }
        let mid = lo + (hi - lo) / 2;
        let id = self.nodes.len() as u32;
        self.nodes.push(Node {
            key: 2 * mid,
            left: NIL,
            right: NIL,
            addr: 0,
        });
        let left = self.build_range(lo, mid);
        let right = self.build_range(mid + 1, hi);
        let node = &mut self.nodes[id as usize];
        node.left = left;
        node.right = right;
        id
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty (never true: `build_complete` requires
    /// `n > 0`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Height in nodes along the longest path.
    pub fn height(&self) -> usize {
        fn h(t: &Bst, n: u32) -> usize {
            if n == NIL {
                0
            } else {
                1 + h(t, t.nodes[n as usize].left).max(h(t, t.nodes[n as usize].right))
            }
        }
        h(self, ROOT)
    }

    /// Address of node `id` (for tests).
    pub fn addr_of(&self, id: usize) -> u64 {
        self.nodes[id].addr
    }

    /// Memory consumed by the naive layouts: nodes packed at
    /// [`BST_NODE_BYTES`] pitch.
    pub fn data_bytes(&self) -> u64 {
        self.nodes.len() as u64 * BST_NODE_BYTES
    }

    /// Lays nodes out contiguously in the given order from a fresh
    /// address region — the paper's *randomly clustered*
    /// ([`Order::Random`]) and *depth-first clustered*
    /// ([`Order::DepthFirst`]) baselines.
    pub fn layout_sequential(&mut self, ord: Order) {
        let mut vspace = VirtualSpace::new(8192);
        let visit = order(self, ord);
        let base = vspace.alloc_bytes(self.data_bytes());
        for (i, node) in visit.into_iter().enumerate() {
            self.nodes[node].addr = base + i as u64 * BST_NODE_BYTES;
        }
    }

    /// Reorganizes the tree with `ccmorph` — the transparent C-tree. Pass
    /// `CcMorphParams::clustering_only` for "CI" or
    /// `::clustering_and_coloring` for the full C-tree, and returns the
    /// layout for footprint inspection.
    pub fn morph(&mut self, vspace: &mut VirtualSpace, params: &CcMorphParams) -> Layout {
        let layout = ccmorph(self, vspace, params);
        for (id, node) in self.nodes.iter_mut().enumerate() {
            node.addr = layout.addr_of(id);
        }
        layout
    }

    /// Searches for `key`, narrating loads into `sink`; with
    /// `sw_prefetch`, issues greedy (Luk & Mowry) prefetches for both
    /// children at every visited node.
    ///
    /// Per visited node the traversal emits one dependent load of the
    /// node (key and child pointers share the element), a couple of
    /// compare/address instructions, and a branch.
    ///
    /// The narration is of a pointer chase, but the host walk is not
    /// one: the arena holds the midpoint build in pre-order, so node `id`
    /// over keys `[lo, hi)` has key `2 * mid` (`mid = lo + (hi - lo) / 2`),
    /// its left child at `id + 1` over `[lo, mid)`, and its right child at
    /// `id + 1 + (mid - lo)` over `[mid + 1, hi)` — exactly the ids
    /// [`Bst::build_complete`] assigned. Only each node's simulated
    /// address is read, so the host loads of one search do not wait on
    /// each other.
    pub fn search<S: EventSink>(&self, key: u64, sink: &mut S, sw_prefetch: bool) -> bool {
        let (mut id, mut lo, mut hi) = (ROOT as usize, 0u64, self.nodes.len() as u64);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            sink.load(self.nodes[id].addr, BST_NODE_BYTES as u32);
            sink.inst(3);
            sink.branch(1);
            let (left, right) = (id + 1, id + 1 + (mid - lo) as usize);
            if sw_prefetch {
                let mut kids = [0u64; 2];
                let mut n = 0;
                for (c, exists) in [(left, lo < mid), (right, mid + 1 < hi)] {
                    if exists {
                        kids[n] = self.nodes[c].addr;
                        n += 1;
                    }
                }
                greedy_prefetch_children(sink, &kids[..n]);
            }
            match key.cmp(&(2 * mid)) {
                std::cmp::Ordering::Equal => return true,
                std::cmp::Ordering::Less => (id, hi) = (left, mid),
                std::cmp::Ordering::Greater => (id, lo) = (right, mid + 1),
            }
        }
        false
    }

    /// In-order key iteration (for correctness tests).
    pub fn keys_in_order(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.nodes.len());
        // Iterative in-order to avoid deep recursion on large trees.
        let mut stack = Vec::new();
        let mut cur = ROOT;
        while cur != NIL || !stack.is_empty() {
            while cur != NIL {
                stack.push(cur);
                cur = self.nodes[cur as usize].left;
            }
            let n = stack.pop().expect("stack nonempty");
            out.push(self.nodes[n as usize].key);
            cur = self.nodes[n as usize].right;
        }
        out
    }
}

impl Topology for Bst {
    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn root(&self) -> Option<usize> {
        Some(ROOT as usize)
    }

    fn max_kids(&self) -> usize {
        2
    }

    fn child(&self, node: usize, i: usize) -> Option<usize> {
        let c = match i {
            0 => self.nodes[node].left,
            1 => self.nodes[node].right,
            _ => NIL,
        };
        (c != NIL).then_some(c as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_sim::event::{NullSink, TraceBuffer};
    use cc_sim::MachineConfig;

    /// The pointer-chasing walk the arithmetic search replaced: follows
    /// the stored child links through [`Topology::child`] and compares
    /// against the stored keys.
    fn reference_search<S: EventSink>(t: &Bst, key: u64, sink: &mut S, sw_prefetch: bool) -> bool {
        let mut cur = t.root();
        while let Some(id) = cur {
            let node = &t.nodes[id];
            sink.load(node.addr, BST_NODE_BYTES as u32);
            sink.inst(3);
            sink.branch(1);
            if sw_prefetch {
                let kids: Vec<u64> = (0..2)
                    .filter_map(|i| t.child(id, i))
                    .map(|c| t.nodes[c].addr)
                    .collect();
                greedy_prefetch_children(sink, &kids);
            }
            cur = match key.cmp(&node.key) {
                std::cmp::Ordering::Equal => return true,
                std::cmp::Ordering::Less => t.child(id, 0),
                std::cmp::Ordering::Greater => t.child(id, 1),
            };
        }
        false
    }

    /// Every key in `0..=2n+1` (all hits, all misses, both ends) must
    /// narrate the same events and give the same answer on both walks.
    fn assert_search_matches_reference(n: u64, seed: u64) {
        let mut t = Bst::build_complete(n);
        // Scattered addresses, so a wrong node shows up as a wrong load.
        t.layout_sequential(Order::Random { seed });
        for sw_prefetch in [false, true] {
            for key in 0..=2 * n + 1 {
                let (mut got, mut want) = (TraceBuffer::new(), TraceBuffer::new());
                let found = t.search(key, &mut got, sw_prefetch);
                assert_eq!(
                    found,
                    reference_search(&t, key, &mut want, sw_prefetch),
                    "n {n} key {key} prefetch {sw_prefetch}"
                );
                assert_eq!(found, key % 2 == 0 && key < 2 * n);
                assert_eq!(
                    got.events(),
                    want.events(),
                    "n {n} key {key} prefetch {sw_prefetch}"
                );
            }
        }
    }

    #[test]
    fn arithmetic_search_matches_the_pointer_walk_for_small_trees() {
        for n in 1..=300 {
            assert_search_matches_reference(n, n);
        }
    }

    #[test]
    fn arithmetic_search_matches_the_pointer_walk_for_seeded_sizes() {
        let mut rng = cc_core::rng::SplitMix64::new(0xB57);
        for _ in 0..3 {
            let n = 1 + rng.below(1 << 16);
            assert_search_matches_reference(n, rng.next_u64());
        }
    }

    #[test]
    fn bst_property_holds() {
        let t = Bst::build_complete(1000);
        let keys = t.keys_in_order();
        assert_eq!(keys.len(), 1000);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(keys[0], 0);
        assert_eq!(keys[999], 1998);
    }

    #[test]
    fn search_finds_all_present_and_no_absent() {
        let t = Bst::build_complete(512);
        for i in 0..512 {
            assert!(t.search(2 * i, &mut NullSink, false), "key {}", 2 * i);
        }
        for i in 0..512 {
            assert!(!t.search(2 * i + 1, &mut NullSink, false));
        }
    }

    #[test]
    fn tree_is_balanced() {
        let t = Bst::build_complete((1 << 12) - 1);
        assert_eq!(t.height(), 12);
    }

    #[test]
    fn search_emits_one_load_per_level() {
        let t = Bst::build_complete((1 << 10) - 1);
        let mut buf = TraceBuffer::new();
        t.search(1, &mut buf, false);
        assert!(buf.memory_refs() <= 10);
        assert!(buf.memory_refs() >= 9);
    }

    #[test]
    fn prefetch_variant_emits_prefetches() {
        let t = Bst::build_complete(127);
        let mut buf = TraceBuffer::new();
        t.search(64, &mut buf, true);
        let prefetches = buf
            .events()
            .iter()
            .filter(|e| matches!(e, cc_sim::Event::Prefetch { .. }))
            .count();
        assert!(prefetches > 0);
    }

    #[test]
    fn layouts_place_all_nodes_distinctly() {
        let mut t = Bst::build_complete(300);
        for ord in [
            Order::DepthFirst,
            Order::BreadthFirst,
            Order::Random { seed: 9 },
        ] {
            t.layout_sequential(ord);
            let mut addrs: Vec<u64> = (0..300).map(|i| t.addr_of(i)).collect();
            addrs.sort_unstable();
            addrs.dedup();
            assert_eq!(addrs.len(), 300);
        }
    }

    #[test]
    fn morph_preserves_search_results() {
        let machine = MachineConfig::ultrasparc_e5000();
        let mut t = Bst::build_complete(2000);
        let mut vs = VirtualSpace::new(8192);
        t.morph(
            &mut vs,
            &CcMorphParams::clustering_and_coloring(&machine, BST_NODE_BYTES),
        );
        for i in (0..2000).step_by(97) {
            assert!(t.search(2 * i, &mut NullSink, false));
            assert!(!t.search(2 * i + 1, &mut NullSink, false));
        }
    }

    #[test]
    fn morphed_tree_clusters_root_children() {
        let machine = MachineConfig::ultrasparc_e5000();
        let mut t = Bst::build_complete((1 << 10) - 1);
        let mut vs = VirtualSpace::new(8192);
        t.morph(
            &mut vs,
            &CcMorphParams::clustering_only(&machine, BST_NODE_BYTES),
        );
        // Root is node 0 (first allocated); its children share its block.
        let rb = t.addr_of(0) / 64;
        let mut same = 0;
        for i in 1..t.len() {
            if t.addr_of(i) / 64 == rb {
                same += 1;
            }
        }
        assert_eq!(same, 2, "exactly the two children join the root block");
    }
}

// The cc-lint offset model for `Node` is pinned here, next to the
// definition, because `Node` is private: the workspace sweep in
// `cc-lint/tests/verify_offsets.rs` requires every exact-modeled repr(C)
// struct to have exactly this kind of compiler-backed check.
#[cfg(test)]
mod lint_verify {
    use super::Node;
    use cc_lint::{analyze_sources, HotSpec, LintConfig};

    #[test]
    fn node_layout_matches_compiler() {
        let report = analyze_sources(
            &[("bst.rs".to_string(), include_str!("bst.rs").to_string())],
            &HotSpec::empty(),
            &LintConfig::default(),
        );
        let node = report
            .structs
            .iter()
            .find(|s| s.name == "Node")
            .expect("Node modeled");
        assert!(node.exact, "repr(C) pin makes the model a guarantee");
        assert_eq!(node.size, core::mem::size_of::<Node>() as u64);
        assert_eq!(node.align, core::mem::align_of::<Node>() as u64);
        assert_eq!(node.padding, 0, "24 B/node with zero padding");
        for (name, offset) in [
            ("key", core::mem::offset_of!(Node, key)),
            ("left", core::mem::offset_of!(Node, left)),
            ("right", core::mem::offset_of!(Node, right)),
            ("addr", core::mem::offset_of!(Node, addr)),
        ] {
            let modeled = node
                .fields
                .iter()
                .find(|(n, ..)| n == name)
                .map(|f| f.1)
                .expect("field modeled");
            assert_eq!(modeled, offset as u64, "offset of Node.{name}");
        }
        // The traversal-hot annotations are picked up from the comments.
        for (name, _, _, _, hot) in &node.fields {
            assert_eq!(
                *hot,
                name != "addr",
                "cc-hot marks key/left/right, not addr"
            );
        }
    }
}
