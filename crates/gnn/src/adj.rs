//! Message-passing structure: directed arcs with GCN normalization.
//!
//! A [`MessageGraph`] is the edge-index form every layer consumes. It is
//! deliberately independent of `lumos-graph`'s `Graph` so the same layers
//! run on ordinary graphs *and* on the batched virtual-node trees built by
//! `lumos-core` (§V-A).

use std::rc::Rc;

/// Directed message arcs over `num_nodes` nodes, with self-loops added and
/// one constant per-arc coefficient: the symmetric normalization
/// `1/√(d̂_src · d̂_dst)` (Kipf & Welling's GCN normalization with
/// `d̂ = deg + 1`).
#[derive(Debug, Clone)]
pub struct MessageGraph {
    /// Number of nodes in the message-passing domain.
    pub num_nodes: usize,
    /// Source node of each arc.
    pub src: Rc<Vec<u32>>,
    /// Destination node of each arc.
    pub dst: Rc<Vec<u32>>,
    /// GCN normalization coefficient of each arc.
    pub gcn_coeff: Rc<Vec<f32>>,
}

impl MessageGraph {
    /// Builds a message graph from undirected edges: each edge contributes
    /// both directed arcs, and every node gets a self-loop.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn from_undirected(num_nodes: usize, edges: &[(u32, u32)]) -> Self {
        let mut arcs: Vec<(u32, u32)> = Vec::with_capacity(2 * edges.len() + num_nodes);
        for &(u, v) in edges {
            assert!(
                (u as usize) < num_nodes && (v as usize) < num_nodes,
                "edge ({u},{v}) out of range"
            );
            arcs.push((u, v));
            arcs.push((v, u));
        }
        for v in 0..num_nodes as u32 {
            arcs.push((v, v));
        }
        Self::from_arcs_with_self_loops(num_nodes, arcs)
    }

    /// Builds from a prepared arc list that already contains self-loops.
    fn from_arcs_with_self_loops(num_nodes: usize, arcs: Vec<(u32, u32)>) -> Self {
        // In-degree (== out-degree for symmetric arc sets) including loops.
        let mut deg = vec![0u32; num_nodes];
        for &(_, d) in &arcs {
            deg[d as usize] += 1;
        }
        let mut src = Vec::with_capacity(arcs.len());
        let mut dst = Vec::with_capacity(arcs.len());
        let mut gcn_coeff = Vec::with_capacity(arcs.len());
        for &(s, d) in &arcs {
            src.push(s);
            dst.push(d);
            gcn_coeff
                .push(1.0 / ((deg[s as usize] as f32).sqrt() * (deg[d as usize] as f32).sqrt()));
        }
        Self {
            num_nodes,
            src: Rc::new(src),
            dst: Rc::new(dst),
            gcn_coeff: Rc::new(gcn_coeff),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arc_counts_include_self_loops() {
        let mg = MessageGraph::from_undirected(3, &[(0, 1), (1, 2)]);
        // 2 edges * 2 directions + 3 self-loops.
        assert_eq!(mg.src.len(), 7);
        assert_eq!(mg.num_nodes, 3);
    }

    #[test]
    fn gcn_coefficients_match_hand_computation() {
        // Path 0-1-2: degrees with loops are d̂ = [2, 3, 2].
        let mg = MessageGraph::from_undirected(3, &[(0, 1), (1, 2)]);
        for i in 0..mg.src.len() {
            let (s, d) = (mg.src[i] as usize, mg.dst[i] as usize);
            let dh = [2.0f32, 3.0, 2.0];
            let expected = 1.0 / (dh[s].sqrt() * dh[d].sqrt());
            assert!(
                (mg.gcn_coeff[i] - expected).abs() < 1e-6,
                "arc {s}->{d}: {} vs {expected}",
                mg.gcn_coeff[i]
            );
        }
    }

    #[test]
    fn isolated_nodes_still_get_self_loops() {
        let mg = MessageGraph::from_undirected(4, &[(0, 1)]);
        assert_eq!(mg.src.len(), 2 + 4);
        // Self-loop of an isolated node has coefficient 1.
        let idx = (0..mg.src.len())
            .find(|&i| mg.src[i] == 3 && mg.dst[i] == 3)
            .expect("self-loop exists");
        assert!((mg.gcn_coeff[idx] - 1.0).abs() < 1e-6);
    }
}
