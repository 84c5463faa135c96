//! The demand-driven sweep is exact: pruning the operands no parameter sits
//! below changes no bit of any gradient that is still formed.

mod common;

use common::{bits, record, record_with, Cut, Inputs, LeafKind, Variant, NUM_LEAVES, ROWS};
use lumos_common::rng::Xoshiro256pp;
use lumos_tensor::{ParamStore, Tape};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One chain over all 23 `Op` variants, differentiated as recorded
    /// (a random mix of params and constants) and again with every
    /// constant promoted to a param — the full sweep, through the same
    /// code. Whatever the pruned sweep still computes is bitwise what the
    /// full one does: at the parameter leaves, and at every matrix step
    /// re-recorded as a parameter leaf.
    #[test]
    fn pruned_sweep_matches_full_sweep(
        seed in any::<u64>(),
        n in 2usize..7,
        d in 1usize..5,
    ) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let inputs = Inputs::random(n, d, &mut rng);
        // The row-operand kind is drawn for the one slot that may take it.
        let kinds: Vec<LeafKind> = (0..NUM_LEAVES)
            .map(|i| match rng.index(if i == ROWS { 4 } else { 3 }) {
                0 => LeafKind::Param,
                1 => LeafKind::OwnedConstant,
                2 => LeafKind::BorrowedConstant,
                _ => LeafKind::RowOperand,
            })
            .collect();
        let plan = rng.next_u64();

        let mut mixed = Tape::new();
        let rec = record(&mut mixed, &inputs, &kinds, plan);
        let grads = mixed.backward(rec.loss);
        let mut full = Tape::new();
        let full_rec = record(&mut full, &inputs, &[LeafKind::Param; NUM_LEAVES], plan);
        let full_grads = full.backward(full_rec.loss);

        prop_assert_eq!(mixed.len(), full.len());
        for v in 0..mixed.len() {
            if rec.row_leaf != Some(v) {
                prop_assert_eq!(bits(mixed.value(v)), bits(full.value(v)), "value {}", v);
            }
        }
        // Gradients are returned for the parameter leaves the loss reaches,
        // and for nothing else.
        for (v, reached) in rec.reaches_loss().into_iter().enumerate() {
            let leaf = rec.leaves.iter().position(|&l| l == v);
            match leaf.filter(|&i| kinds[i] == LeafKind::Param && reached) {
                Some(_) => {
                    let g = grads.get(v).expect("a reached parameter has a gradient");
                    let reference = full_grads.get(v).expect("full sweep reaches it");
                    prop_assert_eq!(bits(g), bits(reference), "gradient {}", v);
                }
                None => prop_assert!(grads.get(v).is_none(), "node {} kept a gradient", v),
            }
        }

        // Every matrix step, observed as a parameter leaf cut in with the
        // value the step computes: the gradient arriving there is what the
        // pruned sweep pushed down from above, and must be the full one's.
        for step in 0..rec.steps.len() {
            let mut cut_store = ParamStore::new();
            let id = cut_store.add("cut", mixed.value(rec.steps[step]).clone());
            let cut = Variant { cut: Some(Cut { step, store: &cut_store, id }), ..Variant::default() };
            let mut pruned = Tape::new();
            let pruned_rec = record_with(&mut pruned, &inputs, &kinds, plan, cut);
            let pruned_grads = pruned.backward(pruned_rec.loss);
            let mut all = Tape::new();
            let all_kinds = [LeafKind::Param; NUM_LEAVES];
            let all_rec = record_with(&mut all, &inputs, &all_kinds, plan, cut);
            let all_grads = all.backward(all_rec.loss);

            prop_assert_eq!(bits(pruned.value(pruned_rec.loss)), bits(mixed.value(rec.loss)));
            let leaf = pruned_rec.steps[step];
            let formed = pruned_grads.get(leaf);
            prop_assert_eq!(formed.is_some(), pruned_rec.reaches_loss()[leaf], "step {}", step);
            prop_assert_eq!(formed.map(bits), all_grads.get(leaf).map(bits), "step {}", step);
        }

        // What reaches the store is the same either way.
        let (mut store, mut full_store) = (inputs.store.clone(), inputs.store.clone());
        mixed.accumulate_param_grads(&grads, &mut store);
        full.accumulate_param_grads(&full_grads, &mut full_store);
        for (i, &id) in inputs.ids.iter().enumerate() {
            if kinds[i] == LeafKind::Param {
                prop_assert_eq!(bits(&store.get(id).grad), bits(&full_store.get(id).grad));
            } else {
                prop_assert!(store.get(id).grad.data().iter().all(|&g| g == 0.0));
            }
        }
    }

    /// A loss no parameter feeds has nothing to differentiate: no gradient
    /// anywhere, nothing folded into the store, no panic.
    #[test]
    fn parameter_free_loss_yields_no_gradients(seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let inputs = Inputs::random(4, 3, &mut rng);
        let mut tape = Tape::new();
        let rec = record(
            &mut tape,
            &inputs,
            &[LeafKind::BorrowedConstant; NUM_LEAVES],
            rng.next_u64(),
        );
        let grads = tape.backward(rec.loss);
        for v in 0..tape.len() {
            prop_assert!(grads.get(v).is_none());
        }
        let mut store = inputs.store.clone();
        tape.accumulate_param_grads(&grads, &mut store);
        prop_assert_eq!(store.grad_norm(), 0.0);
    }
}
