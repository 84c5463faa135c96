//! Releasing what no adjoint reads is invisible: a recording whose spans
//! are scoped computes, bit for bit, what the same recording unscoped does,
//! and the table of adjoint reads lists every value a sweep reads — a value
//! released that an arm still read would panic here.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};

use common::{bits, record_with, Inputs, LeafKind, Variant, NUM_LEAVES, ROWS};
use lumos_common::rng::Xoshiro256pp;
use lumos_tensor::{Adam, Tape};
use proptest::prelude::*;

/// Records the 23-op chain in spans of up to `max_span` steps, once plain
/// and once with a `Tape::scope` per span, and asserts the two agree on the
/// loss, on every value the scoped tape kept, on every leaf gradient and on
/// an Adam update of the store. Returns how many values the scopes
/// released.
fn scoped_matches_plain(seed: u64, n: usize, d: usize, max_span: usize) -> usize {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let inputs = Inputs::random(n, d, &mut rng);
    let kinds: Vec<LeafKind> = (0..NUM_LEAVES)
        .map(|i| match rng.index(if i == ROWS { 4 } else { 3 }) {
            0 => LeafKind::Param,
            1 => LeafKind::OwnedConstant,
            2 => LeafKind::BorrowedConstant,
            _ => LeafKind::RowOperand,
        })
        .collect();
    let plan = rng.next_u64();
    let plain = Variant {
        max_span,
        ..Variant::default()
    };
    let scoped = Variant {
        scoped: true,
        ..plain
    };

    let mut kept = Tape::new();
    let rec = record_with(&mut kept, &inputs, &kinds, plan, plain);
    let mut lean = Tape::new();
    let lean_rec = record_with(&mut lean, &inputs, &kinds, plan, scoped);
    assert_eq!(kept.len(), lean.len());
    // Every released buffer is re-issued or waits on the free list: the
    // scoped tape never holds more.
    assert!(lean.held_bytes() <= kept.held_bytes());
    let grads = kept.backward(rec.loss);
    let lean_grads = lean.backward(lean_rec.loss);
    assert_eq!(bits(kept.value(rec.loss)), bits(lean.value(lean_rec.loss)));

    let mut released = 0;
    for v in 0..kept.len() {
        assert_eq!(
            grads.get(v).map(bits),
            lean_grads.get(v).map(bits),
            "gradient {v}"
        );
        if rec.row_leaf == Some(v) {
            continue;
        }
        match catch_unwind(AssertUnwindSafe(|| bits(lean.value(v)))) {
            Ok(value) => assert_eq!(value, bits(kept.value(v)), "value {v}"),
            Err(payload) => {
                let message = payload.downcast_ref::<String>().expect("a formatted panic");
                assert!(
                    message.starts_with(&format!("variable {v} was released")),
                    "{message}"
                );
                // What a span hands on, and the leaves before it, stay.
                assert!(!rec.span_outputs.contains(&v) && !rec.leaves.contains(&v));
                released += 1;
            }
        }
    }

    let (mut store, mut lean_store) = (inputs.store.clone(), inputs.store.clone());
    kept.accumulate_param_grads(&grads, &mut store);
    lean.accumulate_param_grads(&lean_grads, &mut lean_store);
    Adam::new(0.01).step(&mut store);
    Adam::new(0.01).step(&mut lean_store);
    for &id in &inputs.ids {
        assert_eq!(bits(store.value(id)), bits(lean_store.value(id)));
        assert_eq!(bits(&store.get(id).grad), bits(&lean_store.get(id).grad));
    }
    released
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scoped_spans_change_no_bit(
        seed in any::<u64>(),
        n in 2usize..7,
        d in 1usize..5,
        max_span in 1usize..7,
    ) {
        scoped_matches_plain(seed, n, d, max_span);
    }
}

/// The property above is not vacuous: scopes over spans of several steps do
/// release values.
#[test]
fn scoped_spans_release_values() {
    let released: usize = (0..16)
        .map(|seed| scoped_matches_plain(seed, 5, 3, 5))
        .sum();
    assert!(released > 16, "the scopes released {released} values");
}
