//! Buffer recycling is invisible: a tape that is reset and re-recorded
//! produces the bits a fresh tape does, whatever its recycled buffers held.

mod common;

use common::{bits, record, Inputs, LeafKind, NUM_LEAVES, ROWS};
use lumos_common::rng::Xoshiro256pp;
use lumos_tensor::Tape;

#[test]
fn reset_tape_matches_fresh_tapes_bitwise() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5eed1);
    // Shapes change between rounds. Round 1's 24-value buffers are
    // re-issued for round 2's 12-value tensors and again for round 3's 20:
    // an accumulating kernel (`matmul*`, `scatter_add_rows`, `propagate`)
    // that trusted a recycled buffer to be zero would add onto round 1.
    let rounds: Vec<(Inputs, u64)> = [(6, 4), (4, 3), (5, 4)]
        .into_iter()
        .map(|(n, d)| (Inputs::random(n, d, &mut rng), rng.next_u64()))
        .collect();
    let kinds: Vec<LeafKind> = (0..NUM_LEAVES)
        .map(|i| match i % 3 {
            _ if i == ROWS => LeafKind::RowOperand,
            0 => LeafKind::Param,
            1 => LeafKind::OwnedConstant,
            _ => LeafKind::BorrowedConstant,
        })
        .collect();

    let mut recycled = Tape::new();
    for (inputs, plan) in &rounds {
        recycled = recycled.reset();
        let rec = record(&mut recycled, inputs, &kinds, *plan);
        let grads = recycled.backward(rec.loss);

        let mut fresh = Tape::new();
        let fresh_rec = record(&mut fresh, inputs, &kinds, *plan);
        let fresh_grads = fresh.backward(fresh_rec.loss);

        assert_eq!(recycled.len(), fresh.len());
        let mut formed = 0;
        for v in 0..fresh.len() {
            if rec.row_leaf != Some(v) {
                assert_eq!(bits(recycled.value(v)), bits(fresh.value(v)), "value {v}");
            }
            assert_eq!(
                grads.get(v).map(bits),
                fresh_grads.get(v).map(bits),
                "gradient {v}"
            );
            formed += usize::from(grads.get(v).is_some());
        }
        // Exactly the parameter leaves the loss depends on keep a gradient:
        // every interior one went back to the free list once pushed down.
        let reaches = rec.reaches_loss();
        let params = (rec.leaves.iter().enumerate())
            .filter(|&(i, &leaf)| kinds[i] == LeafKind::Param && reaches[leaf])
            .count();
        assert!(params > 0, "the plan reaches no parameter");
        assert_eq!(formed, params, "the sweep returned {formed} gradients");
    }
}
