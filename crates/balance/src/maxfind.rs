//! Finding the device with the maximum workload (Algorithm 3).
//!
//! Devices may not share workloads in the clear, so the protocol runs in
//! two phases of secure comparisons:
//!
//! 1. every device compares its workload with each ego-network neighbor;
//!    local maxima report themselves to the server as the *candidate vertex
//!    set* (CVS);
//! 2. the CVS members compare pairwise; the overall winner is reported, and
//!    ties are broken by the server uniformly at random.

// Fixed-point cost module: a narrowing `as` cast here silently corrupts
// the µs encoding, so each one is an error unless audited with `#[expect]`.
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]

use lumos_common::rng::Xoshiro256pp;
use lumos_graph::Graph;

use crate::oracle::CompareOracle;
use crate::problem::Assignment;

/// Bit width for unweighted workload comparisons (workloads are bounded by
/// the maximum degree; 16 bits covers graphs up to degree 65,535).
pub const WORKLOAD_BITS: u32 = 16;

/// Bit width for *weighted* workload comparisons: per-node costs are
/// fixed-point virtual microseconds (up to ~2·10⁷ µs/node for the slowest
/// clamped profile) times a degree, so 48 bits (≈ 2.8·10¹⁴) leaves ample
/// headroom.
pub const WEIGHTED_WORKLOAD_BITS: u32 = 48;

/// The comparison width Algorithm 3 uses for `assignment`: the paper's
/// 16-bit node counts, or the wide fixed-point lane once costs are
/// attached. Keeping the unweighted width untouched is what preserves the
/// seed → bit-identical communication meters of the default objective.
pub fn workload_bits(assignment: &Assignment) -> u32 {
    if assignment.costs().is_some() {
        WEIGHTED_WORKLOAD_BITS
    } else {
        WORKLOAD_BITS
    }
}

/// Communication with the coordinating server during Algorithm 3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerTraffic {
    /// Candidate/no-candidate notifications (phase 1) and winner reports
    /// (phase 2).
    pub messages: u64,
}

/// Result of one Algorithm 3 execution.
#[derive(Debug, Clone)]
pub struct MaxFindOutcome {
    /// The selected device (maximum workload; ties broken randomly).
    pub device: u32,
    /// Size of the candidate vertex set after phase 1.
    pub cvs_size: usize,
    /// Server-bound messages consumed.
    pub server: ServerTraffic,
}

/// Runs Algorithm 3 on the current assignment.
///
/// # Panics
/// Panics if the graph has no vertices.
pub fn find_max_workload_device(
    g: &Graph,
    assignment: &Assignment,
    oracle: &mut dyn CompareOracle,
    rng: &mut Xoshiro256pp,
) -> MaxFindOutcome {
    let n = g.num_nodes();
    assert!(n > 0, "empty system");
    let bits = workload_bits(assignment);
    // One workload derivation per device per sweep: the assignment is
    // immutable for the duration of the protocol, so re-deriving
    // `weighted_workload` per edge endpoint (twice per edge, again per
    // phase-2 candidate) was pure waste.
    let wl: Vec<u64> = (0..crate::problem::device_id_count(n))
        .map(|v| {
            let w = assignment.weighted_workload(v);
            debug_assert!(w < 1u64 << bits, "workload {w} overflows {bits} bits");
            w
        })
        .collect();

    // Phase 1 (device operation 1): each device checks whether it is a
    // local maximum among its ego-network neighbors. Each edge is compared
    // once; both endpoints learn the ordering, mirroring the pairwise
    // protocol runs of Alg. 1. The edges are independent, so the whole
    // sweep goes to the oracle as one batch — the bit-sliced backend packs
    // 64 of them per circuit evaluation; the scalar backend's default loop
    // reproduces the historical per-edge calls bit for bit.
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let pairs: Vec<(u64, u64)> = edges
        .iter()
        .map(|&(u, v)| (wl[u as usize], wl[v as usize]))
        .collect();
    let mut is_candidate = vec![true; n];
    for (&(u, v), ord) in edges.iter().zip(oracle.compare_batch(&pairs, bits)) {
        match ord {
            std::cmp::Ordering::Greater => is_candidate[v as usize] = false,
            std::cmp::Ordering::Less => is_candidate[u as usize] = false,
            std::cmp::Ordering::Equal => {}
        }
    }
    let mut server = ServerTraffic::default();
    // Every device sends its candidate flag to the server (Alg. 3 line 16).
    server.messages += n as u64;
    let cvs: Vec<u32> = (0..crate::problem::device_id_count(n))
        .filter(|&v| is_candidate[v as usize])
        .collect();

    // Phase 2 (device operation 2): candidates compare pairwise. The scan
    // is sequential by construction (each comparison's operand is the
    // running winner), so it stays on the scalar entry point.
    let mut best: Vec<u32> = Vec::new();
    let mut best_wl: Option<u64> = None;
    for &c in &cvs {
        match best_wl {
            None => {
                best.push(c);
                best_wl = Some(wl[c as usize]);
            }
            Some(current) => match oracle.compare(wl[c as usize], current, bits) {
                std::cmp::Ordering::Greater => {
                    best.clear();
                    best.push(c);
                    best_wl = Some(wl[c as usize]);
                }
                std::cmp::Ordering::Equal => best.push(c),
                std::cmp::Ordering::Less => {}
            },
        }
    }
    // Each candidate reports its "am I the largest" verdict (line 18).
    server.messages += cvs.len() as u64;

    // Ties: the server picks uniformly at random (footnote 5).
    let device = *rng.choose(&best);
    MaxFindOutcome {
        device,
        cvs_size: cvs.len(),
        server,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::MeteredPlainOracle;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(500)
    }

    #[test]
    fn finds_the_unique_maximum() {
        // Star with center 0: workloads 4,1,1,1,1 under the full assignment.
        let edges: Vec<(u32, u32)> = (1..=4).map(|v| (0u32, v)).collect();
        let g = Graph::from_edges(5, &edges);
        let a = Assignment::full(&g);
        let mut oracle = MeteredPlainOracle::new();
        let out = find_max_workload_device(&g, &a, &mut oracle, &mut rng());
        assert_eq!(out.device, 0);
        assert_eq!(out.cvs_size, 1, "only the hub survives phase 1");
        assert_eq!(out.server.messages, 5 + 1);
    }

    #[test]
    fn result_matches_plain_argmax_on_random_graphs() {
        let mut r = Xoshiro256pp::seed_from_u64(3);
        for trial in 0..20 {
            let g = lumos_graph::generate::erdos_renyi(40, 0.15, &mut r);
            let a = Assignment::full(&g);
            let mut oracle = MeteredPlainOracle::new();
            let out = find_max_workload_device(&g, &a, &mut oracle, &mut r);
            let max_wl = a.workloads().into_iter().max().unwrap();
            assert_eq!(
                a.workload(out.device),
                max_wl,
                "trial {trial}: protocol must select a max-workload device"
            );
        }
    }

    #[test]
    fn ties_are_broken_among_true_maxima() {
        // Two disjoint edges: all four devices have workload 1 and all are
        // candidates; any of them is a legal answer.
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let a = Assignment::full(&g);
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..40u64 {
            let mut oracle = MeteredPlainOracle::new();
            let mut r = Xoshiro256pp::seed_from_u64(seed);
            let out = find_max_workload_device(&g, &a, &mut oracle, &mut r);
            assert_eq!(a.workload(out.device), 1);
            seen.insert(out.device);
        }
        assert!(
            seen.len() > 1,
            "tie-break should vary with server randomness"
        );
    }

    #[test]
    fn weighted_costs_move_the_maximum() {
        // Star with center 0: the hub holds 4 nodes, each leaf 1. A leaf
        // whose per-node cost dwarfs the hub's total becomes the weighted
        // maximum even though its tree is the smallest.
        let edges: Vec<(u32, u32)> = (1..=4).map(|v| (0u32, v)).collect();
        let g = Graph::from_edges(5, &edges);
        let unweighted = Assignment::full(&g);
        assert_eq!(workload_bits(&unweighted), WORKLOAD_BITS);
        let a = unweighted.with_costs(vec![1, 1_000_000, 1, 1, 1]);
        assert_eq!(workload_bits(&a), WEIGHTED_WORKLOAD_BITS);
        let mut oracle = MeteredPlainOracle::new();
        let out = find_max_workload_device(&g, &a, &mut oracle, &mut rng());
        assert_eq!(out.device, 1, "the throttled leaf dominates in µs");
        assert_eq!(a.weighted_workload(out.device), 1_000_000);
    }

    #[test]
    fn bitsliced_sweep_matches_scalar_with_fewer_messages() {
        use crate::oracle::BitslicedPlainOracle;
        let mut r = Xoshiro256pp::seed_from_u64(17);
        let g = lumos_graph::generate::erdos_renyi(120, 0.08, &mut r);
        let a = Assignment::full(&g);
        let mut scalar = MeteredPlainOracle::new();
        let mut sliced = BitslicedPlainOracle::new();
        let out_scalar =
            find_max_workload_device(&g, &a, &mut scalar, &mut Xoshiro256pp::seed_from_u64(9));
        let out_sliced =
            find_max_workload_device(&g, &a, &mut sliced, &mut Xoshiro256pp::seed_from_u64(9));
        assert_eq!(out_scalar.device, out_sliced.device);
        assert_eq!(out_scalar.cvs_size, out_sliced.cvs_size);
        assert_eq!(out_scalar.server, out_sliced.server);
        // Same logical comparisons; far fewer wire messages (phase 1 packs
        // the whole edge sweep 64 lanes per word).
        assert_eq!(scalar.comparisons(), sliced.comparisons());
        assert!(
            sliced.meter().messages * 8 < scalar.meter().messages,
            "batched sweep must collapse messages: {} vs {}",
            sliced.meter().messages,
            scalar.meter().messages
        );
    }

    #[test]
    fn comparison_count_is_edges_plus_cvs_pairs() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let a = Assignment::full(&g);
        let mut oracle = MeteredPlainOracle::new();
        let out = find_max_workload_device(&g, &a, &mut oracle, &mut rng());
        // Phase 1: 3 edges. Phase 2: sequential scan of the CVS performs
        // |CVS| - 1 comparisons (first candidate enters for free).
        let expected = 3 + (out.cvs_size as u64 - 1);
        assert_eq!(oracle.comparisons(), expected);
    }
}
