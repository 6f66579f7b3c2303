//! What the auditor analyses: items with addresses and heat, affinity
//! pairs, cache geometry, and the intended coloring.
//!
//! Inputs come from three sources, matching the tentpole architecture:
//!
//! 1. a heap [`LayoutSnapshot`](cc_heap::LayoutSnapshot) (items +
//!    hint-derived affinity pairs) — see [`AuditInput::from_snapshot`];
//! 2. a `ccmorph` [`Layout`] over a
//!    [`Topology`] (items + structural affinity
//!    pairs + depth-derived heat) — see [`AuditInput::from_tree_layout`];
//! 3. an [`AffinityTrace`] recorded from a real
//!    run, which can replace or refine the static heat — see
//!    [`AuditInput::apply_trace`].

use cc_core::affinity;
use cc_core::ccmorph::{CcMorphParams, Layout};
use cc_core::cluster::ClusterKind;
use cc_core::Topology;
use cc_sim::{AffinityTrace, CacheGeometry};

/// One analysed object: an allocation or a structure element.
#[derive(Clone, Debug, PartialEq)]
pub struct AuditItem {
    /// Human-readable identity in diagnostics ("node 42", "alloc 17").
    pub label: String,
    /// Start address.
    pub addr: u64,
    /// Size in bytes.
    pub size: u64,
    /// Relative access frequency; only the *ordering* matters. The tree
    /// constructors use `-(depth)` — under random root-to-leaf searches,
    /// expected touches fall geometrically with depth. `0.0` everywhere
    /// means "no heat information" and disables the heat-based rules.
    pub heat: f64,
}

/// The coloring discipline a layout claims to follow: the first
/// `hot_bytes` of every `way_bytes` window of the address space map to
/// the reserved hot sets (paper Figure 2). Valid for regions based at a
/// way-aligned address — which [`cc_core::ColoredSpace`] guarantees —
/// and, for baseline layouts, expresses where the machine *wants* hot
/// data even though the allocator never promised it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColorSpec {
    /// The conflict period: `sets × block_bytes`.
    pub way_bytes: u64,
    /// Hot bytes at the start of each way window (`p × block_bytes`,
    /// page-rounded).
    pub hot_bytes: u64,
    /// Cache associativity: the hot region repeats conflict-free in
    /// `assoc` windows, so total hot capacity is `hot_bytes × assoc`.
    pub assoc: u64,
}

impl ColorSpec {
    /// The spec a [`cc_core::ColoredSpace`] with these parameters
    /// enforces, using the same page-rounding of the hot fraction.
    pub fn new(geometry: CacheGeometry, page_bytes: u64, hot_fraction: f64) -> Self {
        ColorSpec {
            way_bytes: geometry.way_bytes(),
            hot_bytes: cc_core::color::hot_bytes_per_way(geometry, page_bytes, hot_fraction),
            assoc: geometry.assoc(),
        }
    }

    /// The spec implied by `ccmorph` parameters; `None` when the params
    /// don't color.
    pub fn from_morph_params(params: &CcMorphParams) -> Option<Self> {
        params
            .color
            .map(|cfg| Self::new(params.cache, params.page_bytes, cfg.hot_fraction))
    }

    /// Whether `addr` falls in a hot slot.
    pub fn is_hot_slot(&self, addr: u64) -> bool {
        addr % self.way_bytes < self.hot_bytes
    }

    /// Total conflict-free hot capacity in bytes.
    pub fn hot_capacity(&self) -> u64 {
        self.hot_bytes * self.assoc
    }
}

/// Which structural pairs count as high-affinity for a tree layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AffinityKind {
    /// `(parent, child)` edges — what subtree clustering and
    /// hint-per-child `ccmalloc` allocation co-locate. Right for search
    /// workloads.
    ParentChild,
    /// Consecutive preorder pairs — what a depth-first chain layout
    /// co-locates. Right for sweep/traversal workloads.
    PreorderChain,
}

impl AffinityKind {
    /// The kind matching a clustering discipline.
    pub fn for_cluster_kind(kind: ClusterKind) -> Self {
        match kind {
            ClusterKind::SubtreeBfs => AffinityKind::ParentChild,
            ClusterKind::DepthFirstChain => AffinityKind::PreorderChain,
        }
    }
}

/// Everything one audit run analyses.
#[derive(Clone, Debug)]
pub struct AuditInput {
    /// The analysed objects.
    pub items: Vec<AuditItem>,
    /// High-affinity pairs as indices into `items`.
    pub pairs: Vec<(usize, usize)>,
    /// Cache geometry being laid out against (the L2, as in the paper).
    pub geometry: CacheGeometry,
    /// Virtual-memory page size.
    pub page_bytes: u64,
    /// The coloring discipline to check, if any.
    pub color: Option<ColorSpec>,
}

impl AuditInput {
    /// Builds the input for a tree whose node addresses come from
    /// `addr_of` (returning `None` for nodes that were never laid out).
    /// Heat is `-(depth)`; affinity pairs follow `kind`.
    pub fn from_tree_addrs<T, F>(
        topo: &T,
        addr_of: F,
        elem_bytes: u64,
        geometry: CacheGeometry,
        page_bytes: u64,
        color: Option<ColorSpec>,
        kind: AffinityKind,
    ) -> Self
    where
        T: Topology,
        F: Fn(usize) -> Option<u64>,
    {
        let depths = affinity::node_depths(topo);
        let mut item_of_node = vec![usize::MAX; topo.node_count()];
        let mut items = Vec::new();
        for node in 0..topo.node_count() {
            let Some(addr) = addr_of(node) else { continue };
            if depths[node] == usize::MAX {
                continue; // unreachable: no meaningful heat or affinity
            }
            item_of_node[node] = items.len();
            items.push(AuditItem {
                label: format!("node {node}"),
                addr,
                size: elem_bytes,
                heat: -(depths[node] as f64),
            });
        }
        let raw_pairs = match kind {
            AffinityKind::ParentChild => affinity::parent_child_pairs(topo),
            AffinityKind::PreorderChain => affinity::preorder_chain_pairs(topo),
        };
        let pairs = raw_pairs
            .into_iter()
            .filter_map(|(a, b)| {
                let (ia, ib) = (item_of_node[a], item_of_node[b]);
                (ia != usize::MAX && ib != usize::MAX).then_some((ia, ib))
            })
            .collect();
        AuditInput {
            items,
            pairs,
            geometry,
            page_bytes,
            color,
        }
    }

    /// Builds the input for a `ccmorph`-produced [`Layout`], deriving the
    /// color spec and affinity kind from the morph parameters themselves —
    /// the layout is audited against exactly what it claimed to do.
    pub fn from_tree_layout<T: Topology>(
        topo: &T,
        layout: &Layout,
        params: &CcMorphParams,
    ) -> Self {
        Self::from_tree_addrs(
            topo,
            |n| layout.try_addr_of(n),
            params.elem_bytes,
            params.cache,
            params.page_bytes,
            ColorSpec::from_morph_params(params),
            AffinityKind::for_cluster_kind(params.cluster_kind),
        )
    }

    /// Builds the input from a heap snapshot: one item per live
    /// allocation, affinity pairs from the recorded hints (hinted-at
    /// allocation → new allocation). Heat starts at `0.0` (unknown) —
    /// chain [`Self::apply_trace`] to supply it from a recorded run.
    pub fn from_snapshot(
        snapshot: &cc_heap::LayoutSnapshot,
        geometry: CacheGeometry,
        page_bytes: u64,
        color: Option<ColorSpec>,
    ) -> Self {
        let records = snapshot.records();
        let items = records
            .iter()
            .map(|r| AuditItem {
                label: format!("alloc {}", r.id),
                addr: r.addr,
                size: r.size,
                heat: 0.0,
            })
            .collect();
        let index_of_addr = |addr: u64| {
            records
                .binary_search_by(|r| {
                    use std::cmp::Ordering;
                    if r.contains(addr) {
                        Ordering::Equal
                    } else if r.addr > addr {
                        Ordering::Greater
                    } else {
                        Ordering::Less
                    }
                })
                .ok()
        };
        let pairs = records
            .iter()
            .enumerate()
            .filter_map(|(i, r)| {
                let target = index_of_addr(r.hint?)?;
                (target != i).then_some((target, i))
            })
            .collect();
        AuditInput {
            items,
            pairs,
            geometry,
            page_bytes,
            color,
        }
    }

    /// Replaces every item's heat with its observed access count from a
    /// recorded trace (addresses inside an item accumulate onto it).
    /// Items the trace never touched get heat `0.0`.
    pub fn apply_trace(&mut self, trace: &AffinityTrace) {
        // Items are not necessarily sorted; build a sorted view once.
        let mut order: Vec<usize> = (0..self.items.len()).collect();
        order.sort_by_key(|&i| self.items[i].addr);
        for item in &mut self.items {
            item.heat = 0.0;
        }
        for (&addr, &count) in trace.counts() {
            let pos = order.partition_point(|&i| self.items[i].addr <= addr);
            let Some(&idx) = pos.checked_sub(1).and_then(|p| order.get(p)) else {
                continue;
            };
            let item = &mut self.items[idx];
            if addr < item.addr + item.size {
                item.heat += count as f64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_core::topology::VecTree;
    use cc_sim::event::EventSink;

    fn geometry() -> CacheGeometry {
        CacheGeometry::with_capacity(1 << 20, 64, 1)
    }

    #[test]
    fn color_spec_matches_colored_space_boundary() {
        let spec = ColorSpec::new(geometry(), 8192, 0.5);
        assert_eq!(spec.way_bytes, 1 << 20);
        assert_eq!(spec.hot_bytes, 512 * 1024);
        assert!(spec.is_hot_slot(0));
        assert!(spec.is_hot_slot(512 * 1024 - 1));
        assert!(!spec.is_hot_slot(512 * 1024));
        assert!(spec.is_hot_slot(1 << 20));
    }

    #[test]
    fn tree_input_sets_depth_heat_and_edges() {
        let t = VecTree::complete_binary(7);
        let input = AuditInput::from_tree_addrs(
            &t,
            |n| Some(0x1000 + n as u64 * 32),
            20,
            geometry(),
            8192,
            None,
            AffinityKind::ParentChild,
        );
        assert_eq!(input.items.len(), 7);
        assert_eq!(input.pairs.len(), 6);
        assert_eq!(input.items[0].heat, 0.0);
        assert_eq!(input.items[3].heat, -2.0);
    }

    #[test]
    fn snapshot_input_links_hints() {
        use cc_heap::Allocator;
        let mut heap = cc_heap::Malloc::new(8192);
        let a = heap.alloc(20);
        let _b = heap.alloc_hint(20, Some(a));
        let input = AuditInput::from_snapshot(&heap.snapshot(), geometry(), 8192, None);
        assert_eq!(input.items.len(), 2);
        assert_eq!(input.pairs, vec![(0, 1)]);
    }

    #[test]
    fn trace_overrides_heat() {
        let t = VecTree::list(3);
        let mut input = AuditInput::from_tree_addrs(
            &t,
            |n| Some(0x1000 + n as u64 * 32),
            20,
            geometry(),
            8192,
            None,
            AffinityKind::PreorderChain,
        );
        let mut trace = AffinityTrace::new();
        trace.load(0x1000, 8);
        trace.load(0x1008, 8); // same item, different word
        trace.load(0x1020, 8);
        input.apply_trace(&trace);
        assert_eq!(input.items[0].heat, 2.0);
        assert_eq!(input.items[1].heat, 1.0);
        assert_eq!(input.items[2].heat, 0.0);
    }
}
