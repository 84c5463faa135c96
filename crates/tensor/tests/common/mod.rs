//! A seeded generator of tape recordings that visit every `Op` variant,
//! shared by the gradient-demand and buffer-recycling tests.

// Each test binary compiles its own copy and reads a different subset.
#![allow(dead_code)]

use std::rc::Rc;

use lumos_common::rng::Xoshiro256pp;
use lumos_tensor::{ParamId, ParamStore, RowOperand, Tape, Tensor, VarId};

/// How a leaf enters a recording.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LeafKind {
    Param,
    OwnedConstant,
    BorrowedConstant,
    /// Read row by row, never held densely: the [`ROWS`] slot only, whose
    /// one consumer is a `matmul` it is the left operand of.
    RowOperand,
}

/// A matrix as a structured [`RowOperand`]: its all-zero rows are reported
/// as such, and a row equal to the one above it as its alias.
#[derive(Debug)]
pub struct Structured(Tensor);

impl RowOperand for Structured {
    fn dims(&self) -> (usize, usize) {
        self.0.dims()
    }

    fn row<'s>(&'s self, r: usize, scratch: &'s mut [f32]) -> Option<&'s [f32]> {
        // Through the scratch, as an operand that decodes its rows would.
        scratch.copy_from_slice(self.0.row(r));
        scratch.iter().any(|&x| x != 0.0).then_some(&*scratch)
    }

    fn alias(&self, r: usize) -> Option<usize> {
        let same = |a: &[f32], b: &[f32]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        (r > 0 && same(self.0.row(r), self.0.row(r - 1))).then(|| r - 1)
    }
}

/// The leaf tensors of one recording, every one also registered in `store`
/// (the scratch store a constant is promoted through).
pub struct Inputs {
    pub n: usize,
    pub d: usize,
    pub store: ParamStore,
    pub ids: Vec<ParamId>,
    /// The [`ROWS`] leaf as a row operand.
    pub rows: Structured,
}

// Leaf slots: four `[n, d]` matrices, then the odd shapes.
const MATS: usize = 4;
const W: usize = 4; // [d, d]
const W_CAT: usize = 5; // [2d, d]
const BIAS: usize = 6; // [1, d]
const A_COL: usize = 7; // [d, 1]
/// `[n, d]` with a zero row and a repeated row; read only by one `matmul`.
pub const ROWS: usize = 8;
pub const NUM_LEAVES: usize = 9;

impl Inputs {
    pub fn random(n: usize, d: usize, rng: &mut Xoshiro256pp) -> Self {
        let mut store = ParamStore::new();
        let mut ids = Vec::new();
        let shapes = [(n, d); MATS]
            .into_iter()
            .chain([(d, d), (2 * d, d), (1, d), (d, 1), (n, d)]);
        for (i, (r, c)) in shapes.enumerate() {
            let mut t = Tensor::rand_uniform(r, c, -1.0, 1.0, rng);
            if i == ROWS {
                t.row_mut(0).fill(0.0);
                let above = t.row(n - 2).to_vec();
                t.row_mut(n - 1).copy_from_slice(&above);
            }
            ids.push(store.add(format!("leaf{i}"), t));
        }
        let rows = Structured(store.value(ids[ROWS]).clone());
        Self {
            n,
            d,
            store,
            ids,
            rows,
        }
    }
}

/// One recording: its loss, its leaves' variables, and per variable whether
/// a `Param` leaf lies below it.
pub struct Recording {
    pub loss: VarId,
    pub leaves: Vec<VarId>,
    pub below_param: Vec<bool>,
    /// The leaf recorded as a row operand, if any: `Tape::value` of it
    /// panics, every other variable's is readable.
    pub row_leaf: Option<VarId>,
}

/// Records a chain on `tape` that applies every non-leaf op once — the
/// matrix-to-matrix ops in a `plan_seed`-shuffled order over randomly chosen
/// earlier results, then the four scalar heads summed into the loss. Two
/// calls with equal `inputs` and `plan_seed` record the same computation
/// whatever `kinds` says.
pub fn record<'a>(
    tape: &mut Tape<'a>,
    inputs: &'a Inputs,
    kinds: &[LeafKind],
    plan_seed: u64,
) -> Recording {
    let (n, d) = (inputs.n, inputs.d);
    let mut rng = Xoshiro256pp::seed_from_u64(plan_seed);
    let mut below_param: Vec<bool> = Vec::new();
    let leaves: Vec<VarId> = (0..NUM_LEAVES)
        .map(|i| {
            let value = inputs.store.value(inputs.ids[i]);
            below_param.push(kinds[i] == LeafKind::Param);
            match kinds[i] {
                LeafKind::Param => tape.param(&inputs.store, inputs.ids[i]),
                LeafKind::OwnedConstant => tape.constant(value.clone()),
                LeafKind::BorrowedConstant => tape.constant_ref(value),
                LeafKind::RowOperand => {
                    assert_eq!(i, ROWS, "only the ROWS slot is read row by row");
                    tape.constant_rows(&inputs.rows)
                }
            }
        })
        .collect();

    let rows = |rng: &mut Xoshiro256pp, bound: usize| -> Rc<Vec<u32>> {
        Rc::new((0..n).map(|_| rng.index(bound) as u32).collect())
    };
    let floats = |rng: &mut Xoshiro256pp, len: usize, lo: f32, hi: f32| -> Rc<Vec<f32>> {
        Rc::new((0..len).map(|_| lo + (hi - lo) * rng.next_f32()).collect())
    };

    // `[n, d]` results so far; every op below maps some of them to one more.
    let mut mats: Vec<VarId> = leaves[..MATS].to_vec();
    let below = &mut below_param;
    let mut order: Vec<usize> = (0..19).collect();
    rng.shuffle(&mut order);
    for op in order {
        let x = *rng.choose(&mats);
        let y = *rng.choose(&mats);
        let out = match op {
            0 => note(below, tape.add(x, y), &[x, y]),
            1 => note(below, tape.sub(x, y), &[x, y]),
            2 => note(below, tape.mul(x, y), &[x, y]),
            3 => note(below, tape.scale(x, 0.7), &[x]),
            4 => {
                let b = leaves[BIAS];
                note(below, tape.add_row_broadcast(x, b), &[x, b])
            }
            5 => {
                let a = leaves[A_COL];
                let col = note(below, tape.matmul(y, a), &[y, a]);
                note(below, tape.mul_col_broadcast(x, col), &[x, col])
            }
            6 => note(below, tape.matmul(x, leaves[W]), &[x, leaves[W]]),
            7 => note(below, tape.relu(x), &[x]),
            8 => note(below, tape.leaky_relu(x, 0.2), &[x]),
            9 => note(below, tape.sigmoid(x), &[x]),
            10 => {
                let mask = Rc::new(
                    (0..n * d)
                        .map(|_| if rng.bernoulli(0.3) { 0.0 } else { 1.0 / 0.7 })
                        .collect(),
                );
                note(below, tape.dropout(x, mask), &[x])
            }
            11 => note(below, tape.gather_rows(x, rows(&mut rng, n)), &[x]),
            12 => note(below, tape.scatter_add_rows(x, rows(&mut rng, n), n), &[x]),
            13 => note(
                below,
                tape.scale_rows(x, floats(&mut rng, n, 0.1, 1.0)),
                &[x],
            ),
            14 => note(below, tape.segment_softmax(x, rows(&mut rng, 3), 3), &[x]),
            15 => {
                let w = leaves[W_CAT];
                let cat = note(below, tape.concat_cols(&[x, y]), &[x, y]);
                note(below, tape.matmul(cat, w), &[cat, w])
            }
            16 => note(below, tape.log_softmax_rows(x), &[x]),
            17 => {
                let (src, dst) = (rows(&mut rng, n), rows(&mut rng, n));
                let coeff = floats(&mut rng, n, -1.0, 1.0);
                note(below, tape.propagate(x, src, coeff, dst, n), &[x])
            }
            18 => {
                let (rows, w) = (leaves[ROWS], leaves[W]);
                note(below, tape.matmul(rows, w), &[rows, w])
            }
            _ => unreachable!("19 matrix ops"),
        };
        mats.push(out);
    }

    let x = *rng.choose(&mats);
    let sum = note(below, tape.sum_all(x), &[x]);
    let x = *rng.choose(&mats);
    let mean = note(below, tape.mean_all(x), &[x]);
    let x = *rng.choose(&mats);
    let logp = note(below, tape.log_softmax_rows(x), &[x]);
    let mut mask: Vec<f32> = (0..n).map(|_| rng.index(2) as f32).collect();
    mask[0] = 1.0;
    let targets = rows(&mut rng, d);
    let nll = note(
        below,
        tape.nll_masked(logp, targets, Rc::new(mask)),
        &[logp],
    );
    let x = *rng.choose(&mats);
    let bce_targets = Rc::new((0..n * d).map(|_| rng.index(2) as f32).collect());
    let bce = note(below, tape.bce_with_logits_mean(x, bce_targets), &[x]);

    let mut loss = sum;
    for head in [mean, nll, bce] {
        loss = note(below, tape.add(loss, head), &[loss, head]);
    }
    assert_eq!(below_param.len(), tape.len());
    let row_leaf = (kinds[ROWS] == LeafKind::RowOperand).then_some(leaves[ROWS]);
    Recording {
        loss,
        leaves,
        below_param,
        row_leaf,
    }
}

/// Flags the node just recorded as `out`: below a param iff an operand is.
fn note(below: &mut Vec<bool>, out: VarId, operands: &[VarId]) -> VarId {
    assert_eq!(out, below.len(), "one flag per recorded node");
    below.push(operands.iter().any(|&v| below[v]));
    out
}

/// The bit pattern of a tensor, shape included.
pub fn bits(t: &Tensor) -> (usize, usize, Vec<u32>) {
    let (r, c) = t.dims();
    (r, c, t.data().iter().map(|x| x.to_bits()).collect())
}
