//! Undirected simple graph.
//!
//! The paper models the federated system as `G = (V, E)` where each vertex is
//! a device and each edge a social relation (§IV-A). This type is the global
//! ground truth that the simulator splits into per-device ego networks; no
//! device ever observes it directly.

/// An undirected simple graph with vertices `0..n`.
///
/// Adjacency lists are kept sorted, enabling `O(log d)` membership tests.
/// Self-loops and parallel edges are rejected at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<Vec<u32>>,
    num_edges: usize,
}

impl Graph {
    /// Creates an edgeless graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            adj: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Builds a graph from an edge list, ignoring duplicates and self-loops.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut g = Self::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Inserts the undirected edge `{u, v}`. Returns `true` if the edge was
    /// new; self-loops and duplicates are ignored (returning `false`).
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, u: u32, v: u32) -> bool {
        let n = self.adj.len() as u32;
        assert!(
            u < n && v < n,
            "edge ({u},{v}) out of range for {n} vertices"
        );
        if u == v {
            return false;
        }
        match self.adj[u as usize].binary_search(&v) {
            Ok(_) => false,
            Err(pos_u) => {
                self.adj[u as usize].insert(pos_u, v);
                let pos_v = self.adj[v as usize]
                    .binary_search(&u)
                    .expect_err("symmetric edge must be absent");
                self.adj[v as usize].insert(pos_v, u);
                self.num_edges += 1;
                true
            }
        }
    }

    /// Whether `{u, v}` is an edge.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.adj
            .get(u as usize)
            .is_some_and(|nb| nb.binary_search(&v).is_ok())
    }

    /// Sorted neighbors of `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[v as usize]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: u32) -> usize {
        self.adj[v as usize].len()
    }

    /// Maximum degree (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(|nb| nb.len()).max().unwrap_or(0)
    }

    /// Average degree.
    pub fn avg_degree(&self) -> f64 {
        if self.adj.is_empty() {
            0.0
        } else {
            2.0 * self.num_edges as f64 / self.adj.len() as f64
        }
    }

    /// Iterates over each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, nb)| {
            let u = u as u32;
            nb.iter()
                .copied()
                .filter_map(move |v| (u < v).then_some((u, v)))
        })
    }

    /// Both directed arcs for every edge — `(u→v)` and `(v→u)` — the form
    /// message-passing layers consume.
    pub fn directed_arcs(&self) -> Vec<(u32, u32)> {
        let mut arcs = Vec::with_capacity(2 * self.num_edges);
        for (u, nb) in self.adj.iter().enumerate() {
            for &v in nb {
                arcs.push((u as u32, v));
            }
        }
        arcs
    }

    /// Checks internal invariants (sorted, symmetric, loop-free adjacency);
    /// used by generator tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut count = 0usize;
        for (u, nb) in self.adj.iter().enumerate() {
            if !nb.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("adjacency of {u} not strictly sorted"));
            }
            for &v in nb {
                if v as usize == u {
                    return Err(format!("self-loop at {u}"));
                }
                if self.adj[v as usize].binary_search(&(u as u32)).is_err() {
                    return Err(format!("edge ({u},{v}) not symmetric"));
                }
            }
            count += nb.len();
        }
        if count != 2 * self.num_edges {
            return Err(format!(
                "edge count {} inconsistent with adjacency size {count}",
                self.num_edges
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_edge_dedups_and_rejects_loops() {
        let mut g = Graph::new(4);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0), "reverse duplicate ignored");
        assert!(!g.add_edge(0, 0), "self-loop ignored");
        assert!(g.add_edge(2, 3));
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        g.check_invariants().unwrap();
    }

    #[test]
    fn neighbors_sorted_and_degrees() {
        let g = Graph::from_edges(5, &[(0, 3), (0, 1), (0, 4), (1, 2)]);
        assert_eq!(g.neighbors(0), &[1, 3, 4]);
        assert_eq!(g.degree(0), 3);
        let degrees: Vec<usize> = (0..5).map(|u| g.degree(u)).collect();
        assert_eq!(degrees, vec![3, 2, 1, 1, 1]);
        assert_eq!(g.max_degree(), 3);
        assert!((g.avg_degree() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        assert!(edges.iter().all(|&(u, v)| u < v));
        let arcs = g.directed_arcs();
        assert_eq!(arcs.len(), 8);
    }

    #[test]
    fn isolated_count() {
        let g = Graph::from_edges(5, &[(0, 1)]);
        assert_eq!((0..5).filter(|&u| g.degree(u) == 0).count(), 3);
    }

    #[test]
    #[should_panic]
    fn out_of_range_edge_panics() {
        let mut g = Graph::new(2);
        g.add_edge(0, 5);
    }
}
