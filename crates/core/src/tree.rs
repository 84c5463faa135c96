//! Per-device trees with virtual nodes (§V-A, Fig. 2).
//!
//! Device `v` with retained neighbors `N_v = {u_1, …, u_wl}` builds `T(v)`:
//! for every retained neighbor a *leaf pair* `(v, u_k)` — the center is
//! replicated once per pair so its only non-noised feature is reused — a
//! virtual parent `P_k` joining each pair, and a virtual root `R` joining
//! all parents. The tree has `3·wl + 1` nodes and `3·wl` edges. The paper's
//! ablation "Lumos w.o. VN" instead feeds the raw ego network (a star) to
//! the trainer; both shapes are produced here.

/// Role of a node inside a device's local graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeNode {
    /// The virtual root `R` (virtual-node trees only).
    Root,
    /// The virtual parent `P_k` of leaf pair `k`.
    Parent(u32),
    /// A leaf carrying the center vertex (pair index attached).
    CenterLeaf(u32),
    /// A leaf carrying retained neighbor `N_v[k]`.
    NeighborLeaf(u32),
    /// The center node of a raw ego network (w.o.-VN ablation), or the
    /// stand-alone node of a device with zero retained anything.
    EgoCenter,
    /// A neighbor node of a raw ego network (w.o.-VN ablation).
    EgoNeighbor(u32),
}

/// Shape of the local graph each device trains on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalGraphKind {
    /// The paper's virtual-node tree.
    VirtualNodeTree,
    /// The raw ego network (ablation "Lumos w.o. VN").
    RawEgoNetwork,
}

/// The local graph of one device, with node roles and edges in local ids.
#[derive(Debug, Clone)]
pub struct DeviceTree {
    /// The owning device / center vertex.
    pub center: u32,
    /// Retained neighbors (defines `wl = neighbors.len()`).
    pub neighbors: Vec<u32>,
    /// Role of each local node; index = local node id.
    pub nodes: Vec<TreeNode>,
    /// Undirected edges in local ids.
    pub edges: Vec<(u32, u32)>,
    /// Which construction was used.
    pub kind: LocalGraphKind,
}

impl DeviceTree {
    /// Builds the virtual-node tree of Fig. 2.
    ///
    /// Local layout: node 0 is the root; pair `k` occupies nodes
    /// `1+3k` (parent), `2+3k` (center leaf), `3+3k` (neighbor leaf).
    /// A device with `wl = 0` degenerates to a single `EgoCenter` node so
    /// that every vertex still owns at least one featured leaf.
    pub fn with_virtual_nodes(center: u32, neighbors: Vec<u32>) -> Self {
        let wl = neighbors.len();
        if wl == 0 {
            return Self {
                center,
                neighbors,
                nodes: vec![TreeNode::EgoCenter],
                edges: Vec::new(),
                kind: LocalGraphKind::VirtualNodeTree,
            };
        }
        let mut nodes = Vec::with_capacity(1 + 3 * wl);
        let mut edges = Vec::with_capacity(3 * wl);
        nodes.push(TreeNode::Root);
        for k in 0..wl as u32 {
            let parent = 1 + 3 * k;
            let center_leaf = parent + 1;
            let neighbor_leaf = parent + 2;
            nodes.push(TreeNode::Parent(k));
            nodes.push(TreeNode::CenterLeaf(k));
            nodes.push(TreeNode::NeighborLeaf(k));
            edges.push((0, parent));
            edges.push((parent, center_leaf));
            edges.push((parent, neighbor_leaf));
        }
        Self {
            center,
            neighbors,
            nodes,
            edges,
            kind: LocalGraphKind::VirtualNodeTree,
        }
    }

    /// Builds the raw ego network (star) of the w.o.-VN ablation: node 0 is
    /// the center, nodes `1..=wl` the retained neighbors.
    pub fn raw_ego(center: u32, neighbors: Vec<u32>) -> Self {
        let wl = neighbors.len() as u32;
        let mut nodes = Vec::with_capacity(1 + wl as usize);
        nodes.push(TreeNode::EgoCenter);
        let mut edges = Vec::with_capacity(wl as usize);
        for k in 0..wl {
            nodes.push(TreeNode::EgoNeighbor(k));
            edges.push((0, 1 + k));
        }
        Self {
            center,
            neighbors,
            nodes,
            edges,
            kind: LocalGraphKind::RawEgoNetwork,
        }
    }

    /// Builds the requested kind.
    pub fn build(kind: LocalGraphKind, center: u32, neighbors: Vec<u32>) -> Self {
        match kind {
            LocalGraphKind::VirtualNodeTree => Self::with_virtual_nodes(center, neighbors),
            LocalGraphKind::RawEgoNetwork => Self::raw_ego(center, neighbors),
        }
    }

    /// The workload `wl(v)` this tree realizes.
    pub fn workload(&self) -> usize {
        self.neighbors.len()
    }

    /// Number of local nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Bytes the tree holds: itself and its three arrays.
    pub fn bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        size_of::<Self>()
            + size_of_val(&self.neighbors[..])
            + size_of_val(&self.nodes[..])
            + size_of_val(&self.edges[..])
    }

    /// Checks the structural invariants of §V-A.
    pub fn check_invariants(&self) -> Result<(), String> {
        match self.kind {
            LocalGraphKind::VirtualNodeTree => {
                let wl = self.workload();
                if wl == 0 {
                    if self.nodes.len() != 1 || !self.edges.is_empty() {
                        return Err("degenerate tree must be a single node".into());
                    }
                    return Ok(());
                }
                if self.nodes.len() != 1 + 3 * wl {
                    return Err(format!(
                        "tree must have 3·wl+1 = {} nodes, found {}",
                        1 + 3 * wl,
                        self.nodes.len()
                    ));
                }
                if self.edges.len() != 3 * wl {
                    return Err(format!(
                        "tree must have 3·wl = {} edges, found {}",
                        3 * wl,
                        self.edges.len()
                    ));
                }
                // A tree: |E| = |V| - 1.
                if self.edges.len() != self.nodes.len() - 1 {
                    return Err("edge count must be node count − 1 (a tree)".into());
                }
            }
            LocalGraphKind::RawEgoNetwork => {
                if self.nodes.len() != 1 + self.workload() {
                    return Err("ego network must have wl+1 nodes".into());
                }
                if self.edges.len() != self.workload() {
                    return Err("ego network must have wl edges".into());
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// For each local node, the global vertex it represents as a *leaf*
    /// (None for virtual nodes) — what the batch builder pools (Eq. 31).
    fn leaf_vertices(t: &DeviceTree) -> Vec<Option<u32>> {
        t.nodes
            .iter()
            .map(|n| match n {
                TreeNode::Root | TreeNode::Parent(_) => None,
                TreeNode::CenterLeaf(_) | TreeNode::EgoCenter => Some(t.center),
                TreeNode::NeighborLeaf(k) | TreeNode::EgoNeighbor(k) => {
                    Some(t.neighbors[*k as usize])
                }
            })
            .collect()
    }

    /// The running example of Fig. 2: vertex 1 with neighbors {2, 3, 4, 5}.
    #[test]
    fn figure_2_tree_structure() {
        let t = DeviceTree::with_virtual_nodes(1, vec![2, 3, 4, 5]);
        t.check_invariants().unwrap();
        assert_eq!(t.num_nodes(), 13, "4 pairs → 13 nodes (R, 4×P, 8 leaves)");
        assert_eq!(t.edges.len(), 12);
        // Root connects to the four parents.
        let root_edges: Vec<_> = t.edges.iter().filter(|(a, _)| *a == 0).collect();
        assert_eq!(root_edges.len(), 4);
        // Each parent joins a center copy and one neighbor.
        let lv = leaf_vertices(&t);
        assert_eq!(lv[0], None); // root
        assert_eq!(lv[1], None); // P1
        assert_eq!(lv[2], Some(1)); // center copy
        assert_eq!(lv[3], Some(2)); // neighbor 2

        // Center is replicated |N(v)| times.
        let center_copies = lv.iter().filter(|v| **v == Some(1)).count();
        assert_eq!(center_copies, 4);
    }

    #[test]
    fn zero_workload_degenerates_to_single_leaf() {
        let t = DeviceTree::with_virtual_nodes(7, vec![]);
        t.check_invariants().unwrap();
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(leaf_vertices(&t), vec![Some(7)]);
    }

    #[test]
    fn raw_ego_is_a_star() {
        let t = DeviceTree::raw_ego(3, vec![0, 1, 9]);
        t.check_invariants().unwrap();
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.edges, vec![(0, 1), (0, 2), (0, 3)]);
        let lv = leaf_vertices(&t);
        assert_eq!(lv[0], Some(3));
        assert_eq!(lv[3], Some(9));
        // Center appears once, not replicated.
        assert_eq!(lv.iter().filter(|v| **v == Some(3)).count(), 1);
    }

    #[test]
    fn build_dispatches_kinds() {
        let a = DeviceTree::build(LocalGraphKind::VirtualNodeTree, 0, vec![1]);
        assert_eq!(a.kind, LocalGraphKind::VirtualNodeTree);
        assert_eq!(a.num_nodes(), 4);
        let b = DeviceTree::build(LocalGraphKind::RawEgoNetwork, 0, vec![1]);
        assert_eq!(b.kind, LocalGraphKind::RawEgoNetwork);
        assert_eq!(b.num_nodes(), 2);
    }

    #[test]
    fn tree_size_scales_with_workload() {
        for wl in 1..20 {
            let t = DeviceTree::with_virtual_nodes(0, (1..=wl as u32).collect());
            t.check_invariants().unwrap();
            assert_eq!(t.num_nodes(), 1 + 3 * wl);
        }
    }
}
