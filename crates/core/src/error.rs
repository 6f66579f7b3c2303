//! Typed errors for `ccmorph` layout construction.
//!
//! `ccmorph` is only semantics-preserving under the programmer's guarantee
//! (paper Section 3.1.1): tree-like structure, homogeneous elements, no
//! external pointers into the middle. A violated guarantee used to mean a
//! panic or — for a cyclic topology — an unbounded traversal. Every such
//! violation is now a [`LayoutError`], surfaced by [`crate::try_ccmorph`]
//! and [`crate::validate_topology`]; the classic [`crate::ccmorph()`] stays
//! infallible by panicking with the error's `Display` text, which renders
//! the historical assertion messages exactly.

use std::fmt;

/// A reorganization request `ccmorph` could not satisfy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LayoutError {
    /// The topology reaches a node along a path through itself — the
    /// traversal would never terminate.
    CyclicTopology {
        /// A node on the cycle (the first one the DFS re-entered).
        node: usize,
    },
    /// Two different parents (or child slots) report the same node — the
    /// structure is a DAG, not a tree, and "copying" it would silently
    /// duplicate the shared subtree.
    AliasedNode {
        /// The node reported by more than one parent.
        node: usize,
    },
    /// A node links to a child id outside the arena.
    DanglingChild {
        /// The linking parent.
        node: usize,
        /// The out-of-bounds child id.
        child: usize,
    },
    /// The coloring fraction is outside the open interval `(0, 1)`.
    ColorOutOfRange {
        /// The rejected fraction.
        hot_fraction: f64,
    },
    /// Structure elements must occupy at least one byte.
    ZeroElemBytes,
    /// A node address was requested for a node the layout never placed
    /// (unreachable from the root when `ccmorph` ran).
    NodeNotLaidOut {
        /// The unplaced node.
        node: usize,
    },
    /// A field transform was asked to lay out a schema with no fields.
    EmptySchema,
    /// A schema field occupies zero bytes — the transforms address fields
    /// by byte offset, so a zero-sized field can never be resolved.
    ZeroFieldSize {
        /// Declaration index of the offending field.
        field: usize,
    },
    /// A schema field's alignment is not a power of two.
    FieldAlignNotPow2 {
        /// Declaration index of the offending field.
        field: usize,
    },
    /// Two schema fields share a name — field addresses are looked up by
    /// name, so a duplicate would be ambiguous.
    DuplicateField {
        /// Declaration index of the second occurrence.
        field: usize,
    },
    /// A [`HotSpec`](crate::field_layout::HotSpec) entry names a field
    /// the schema does not declare.
    UnknownHotField {
        /// Index of the offending entry in the hot spec.
        entry: usize,
    },
    /// `split_hot_cold` needs at least one hot field to build the hot
    /// half from.
    NoHotFields,
    /// `split_hot_cold` needs at least one cold field — with every field
    /// hot there is nothing to split off, and the caller wants plain
    /// `reorder_fields` (or `ccmorph`) instead.
    NoColdFields,
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::CyclicTopology { node } => {
                write!(f, "topology is cyclic: node {node} is its own ancestor")
            }
            LayoutError::AliasedNode { node } => {
                write!(f, "topology is not a tree: node {node} has two parents")
            }
            LayoutError::DanglingChild { node, child } => {
                write!(f, "node {node} links to nonexistent child {child}")
            }
            LayoutError::ColorOutOfRange { hot_fraction } => {
                write!(f, "hot fraction must be in (0, 1), got {hot_fraction}")
            }
            LayoutError::ZeroElemBytes => write!(f, "element size must be nonzero"),
            LayoutError::NodeNotLaidOut { node } => {
                write!(f, "node {node} was not laid out")
            }
            LayoutError::EmptySchema => write!(f, "field schema declares no fields"),
            LayoutError::ZeroFieldSize { field } => {
                write!(f, "schema field {field} has zero size")
            }
            LayoutError::FieldAlignNotPow2 { field } => {
                write!(f, "schema field {field} has a non-power-of-two alignment")
            }
            LayoutError::DuplicateField { field } => {
                write!(f, "schema field {field} duplicates an earlier field name")
            }
            LayoutError::UnknownHotField { entry } => {
                write!(f, "hot spec entry {entry} names a field the schema lacks")
            }
            LayoutError::NoHotFields => {
                write!(f, "hot/cold split needs at least one hot field")
            }
            LayoutError::NoColdFields => {
                write!(f, "hot/cold split needs at least one cold field")
            }
        }
    }
}

impl std::error::Error for LayoutError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_historical_assertion_messages() {
        assert_eq!(
            LayoutError::ZeroElemBytes.to_string(),
            "element size must be nonzero"
        );
        assert_eq!(
            LayoutError::ColorOutOfRange { hot_fraction: 1.5 }.to_string(),
            "hot fraction must be in (0, 1), got 1.5"
        );
        assert_eq!(
            LayoutError::NodeNotLaidOut { node: 7 }.to_string(),
            "node 7 was not laid out"
        );
    }
}
