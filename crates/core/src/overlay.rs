//! Overlay node identifiers.
//!
//! The dissemination layer never deals with routers: its world is the
//! *overlay* of `1 + R` nodes — the source plus `R` repositories. Overlay
//! indices are dense: `0` is always the source, `1..=R` are repositories.
//! The mapping to physical `d3t_net::NodeId`s is owned by whoever builds
//! the delay matrix (see `d3t-sim`).

use serde::{Deserialize, Serialize};

/// Dense index of a node in the overlay. `NodeIdx(0)` is the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeIdx(pub u32);

/// The source's overlay index.
pub const SOURCE: NodeIdx = NodeIdx(0);

impl NodeIdx {
    /// The dense index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// True for the source node.
    #[inline]
    pub fn is_source(self) -> bool {
        self.0 == 0
    }

    /// The `i`-th repository (0-based): overlay index `i + 1`.
    pub fn repo(i: usize) -> Self {
        Self(i as u32 + 1)
    }
}

impl std::fmt::Display for NodeIdx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_source() {
            write!(f, "source")
        } else {
            write!(f, "repo#{}", self.0 - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_is_index_zero() {
        assert!(SOURCE.is_source());
        assert_eq!(SOURCE.index(), 0);
        assert_eq!(SOURCE.to_string(), "source");
    }

    #[test]
    fn repo_indices_offset_by_one() {
        let r = NodeIdx::repo(3);
        assert_eq!(r.index(), 4);
        assert!(!r.is_source());
        assert_eq!(r.to_string(), "repo#3");
    }
}
