//! Cache-conscious structure layout: the primary contribution of
//! *Cache-Conscious Structure Layout* (Chilimbi, Hill & Larus, PLDI 1999).
//!
//! Pointer structures have a property arrays lack — **locational
//! transparency**: elements can be placed at any address without changing
//! program semantics. This crate packages the paper's two placement
//! techniques and its transparent reorganizer:
//!
//! * [`cluster`] — **clustering** (Section 2.1): pack structure elements
//!   likely to be accessed contemporaneously into the same cache block.
//!   For trees, pack *subtrees*: for random searches a k-node subtree in a
//!   block yields ~log2(k+1) accesses per block fetched, versus ≤ 2 for a
//!   depth-first parent-child-grandchild chain.
//! * [`color`] — **coloring** (Section 2.2): partition the cache's sets
//!   into a *hot* region of `p` sets and a *cold* region of `C − p` sets,
//!   and lay addresses out so frequently accessed elements map only to hot
//!   sets — they can never be evicted by the cold ones.
//! * [`ccmorph`](mod@ccmorph) — the semi-automatic tool (Section 3.1): given a
//!   [`Topology`] (the analogue of the paper's programmer-supplied
//!   `next_node` function, Figure 3), copy a tree-like structure into a
//!   contiguous page-aligned region, subtree-clustered and optionally
//!   colored. Appropriate for read-mostly structures; for structures that
//!   change slowly it can be re-invoked periodically.
//!
//! The companion allocator `ccmalloc` lives in the `cc-heap` crate.
//!
//! # Example: reorganizing a small binary tree
//!
//! ```
//! use cc_core::{ccmorph::{ccmorph, CcMorphParams}, Topology};
//! use cc_heap::VirtualSpace;
//! use cc_sim::MachineConfig;
//!
//! /// A binary tree stored in an arena: nodes[i] = (left, right).
//! struct Tree(Vec<(Option<usize>, Option<usize>)>);
//! impl Topology for Tree {
//!     fn node_count(&self) -> usize { self.0.len() }
//!     fn root(&self) -> Option<usize> { (!self.0.is_empty()).then_some(0) }
//!     fn max_kids(&self) -> usize { 2 }
//!     fn child(&self, n: usize, i: usize) -> Option<usize> {
//!         match i { 0 => self.0[n].0, 1 => self.0[n].1, _ => None }
//!     }
//! }
//!
//! // A 7-node complete tree.
//! let t = Tree(vec![
//!     (Some(1), Some(2)),
//!     (Some(3), Some(4)), (Some(5), Some(6)),
//!     (None, None), (None, None), (None, None), (None, None),
//! ]);
//! let machine = MachineConfig::ultrasparc_e5000();
//! let mut vs = VirtualSpace::new(machine.page_bytes);
//! let layout = ccmorph(&t, &mut vs, &CcMorphParams::clustering_only(&machine, 20));
//! // Root and both children share one 64-byte cache block.
//! let block = |n: usize| layout.addr_of(n) / 64;
//! assert_eq!(block(0), block(1));
//! assert_eq!(block(0), block(2));
//! // The grandchild level starts new blocks.
//! assert_ne!(block(0), block(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affinity;
pub mod ccmorph;
pub mod cluster;
pub mod color;
pub mod error;
pub mod field_layout;
pub mod rng;
pub mod topology;

pub use ccmorph::{ccmorph, try_ccmorph, CcMorphParams, ColorConfig, Layout};
pub use cluster::Order;
pub use color::ColoredSpace;
pub use error::LayoutError;
pub use field_layout::{
    reorder_fields, soa_convert, split_hot_cold, try_reorder_fields, try_soa_convert,
    try_split_hot_cold, FieldDef, FieldLayout, FieldLayoutParams, FieldSchema, FieldTransform,
    HotSpec,
};
pub use topology::{validate_topology, Topology};
