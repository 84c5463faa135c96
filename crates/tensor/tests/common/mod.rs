//! A seeded generator of tape recordings that visit every `Op` variant,
//! shared by the gradient-demand and buffer-recycling tests.

#![expect(
    dead_code,
    reason = "each test binary compiles its own copy and reads a different subset"
)]

use std::rc::Rc;

use lumos_common::rng::Xoshiro256pp;
use lumos_tensor::nn::DropoutMask;
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

/// One recording: its loss, its leaves' variables, and per variable the
/// variables its op read.
pub struct Recording {
    pub loss: VarId,
    pub leaves: Vec<VarId>,
    /// Per variable, the variables its op read (none for a leaf).
    pub operands: Vec<Vec<VarId>>,
    /// The result of each matrix step, in recording order — the cut leaf
    /// in place of its step's result.
    pub steps: Vec<VarId>,
    /// The last result of each span: all the steps after it can see of it.
    pub span_outputs: Vec<VarId>,
    /// The leaf recorded as a row operand, if any: `Tape::value` of it
    /// panics, every other variable's is readable.
    pub row_leaf: Option<VarId>,
}

impl Recording {
    /// Per variable, whether the loss depends on it.
    pub fn reaches_loss(&self) -> Vec<bool> {
        let mut reaches = vec![false; self.operands.len()];
        reaches[self.loss] = true;
        for v in (0..=self.loss).rev() {
            if reaches[v] {
                for &u in &self.operands[v] {
                    reaches[u] = true;
                }
            }
        }
        reaches
    }
}

/// A parameter leaf recorded in place of one matrix step's result, so
/// that the gradient arriving there is a leaf's: `store`'s `id` should hold
/// the value the step computes (read off an earlier recording).
#[derive(Clone, Copy)]
pub struct Cut<'s> {
    pub step: usize,
    pub store: &'s ParamStore,
    pub id: ParamId,
}

/// How [`record_with`] varies a recording without changing its arithmetic.
#[derive(Clone, Copy, Default)]
pub struct Variant<'s> {
    /// The most matrix steps one span holds; 0 or 1 is the plain chain.
    /// A span's steps read the results before it and each other's — each
    /// after the first reads the one before it — and the steps after it
    /// read only its last result.
    pub max_span: usize,
    /// Whether each span is recorded inside a `Tape::scope`.
    pub scoped: bool,
    /// A step observed as a parameter leaf.
    pub cut: Option<Cut<'s>>,
}

/// Matrix-to-matrix op kinds; each is applied once per recording.
const MATRIX_OPS: usize = 19;

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
    record_with(tape, inputs, kinds, plan_seed, Variant::default())
}

/// [`record`], with the steps grouped into spans, each span optionally
/// scoped, and optionally one step's result replaced by a parameter leaf.
/// Two calls with equal `inputs`, `plan_seed` and `max_span` compute the
/// same values whatever `kinds` and `scoped` say, and whether or not a cut
/// stands in its step's value.
pub fn record_with<'a>(
    tape: &mut Tape<'a>,
    inputs: &'a Inputs,
    kinds: &[LeafKind],
    plan_seed: u64,
    variant: Variant<'_>,
) -> Recording {
    let (n, d) = (inputs.n, inputs.d);
    let mut chain = Chain {
        rng: Xoshiro256pp::seed_from_u64(plan_seed),
        n,
        d,
        leaves: Vec::new(),
        operands: Vec::new(),
        steps: Vec::new(),
        cut: variant.cut,
    };
    for (i, (&kind, &id)) in kinds.iter().zip(&inputs.ids).enumerate() {
        let value = inputs.store.value(id);
        let leaf = match kind {
            LeafKind::Param => tape.param(&inputs.store, id),
            LeafKind::OwnedConstant => tape.constant(value.clone()),
            LeafKind::BorrowedConstant => tape.constant_ref(value),
            LeafKind::RowOperand => {
                assert_eq!(i, ROWS, "only the ROWS slot is read row by row");
                tape.constant_rows(&inputs.rows)
            }
        };
        chain.note(leaf, &[]);
        chain.leaves.push(leaf);
    }

    // `[n, d]` results so far; every span maps some of them to one more.
    let mut mats: Vec<VarId> = chain.leaves[..MATS].to_vec();
    let mut order: Vec<usize> = (0..MATRIX_OPS).collect();
    chain.rng.shuffle(&mut order);
    // Span lengths have their own stream, so the plain chain's is unchanged.
    let mut spans = Xoshiro256pp::seed_from_u64(plan_seed ^ 0x5ca1_ab1e);
    let mut span_outputs = Vec::new();
    let mut rest = &order[..];
    while !rest.is_empty() {
        let len = 1 + spans.index(variant.max_span.clamp(1, rest.len()));
        let (span, after) = rest.split_at(len);
        rest = after;
        let seen = &mats;
        let chain = &mut chain;
        let mut body = |tape: &mut Tape<'a>| {
            let mut visible = seen.clone();
            let mut last = None;
            for &op in span {
                let out = chain.step(tape, op, &visible, last);
                visible.push(out);
                last = Some(out);
            }
            last.expect("a span holds a step")
        };
        let out = if variant.scoped {
            tape.scope(body)
        } else {
            body(tape)
        };
        span_outputs.push(out);
        mats.push(out);
    }

    // Spanned, the heads are one more span, whose BCE head reads its
    // logits through a halving recorded inside it: a value only that head
    // reads is then a span's interior too.
    let spanned = variant.max_span > 1;
    let loss = if variant.scoped {
        tape.scope(|tape| chain.heads(tape, &mats, spanned))
    } else {
        chain.heads(tape, &mats, spanned)
    };
    assert_eq!(chain.operands.len(), tape.len());
    let row_leaf = (kinds[ROWS] == LeafKind::RowOperand).then_some(chain.leaves[ROWS]);
    Recording {
        loss,
        leaves: chain.leaves,
        operands: chain.operands,
        steps: chain.steps,
        span_outputs,
        row_leaf,
    }
}

/// A recording in progress: its plan's stream and what it has noted of
/// every recorded node.
struct Chain<'s> {
    rng: Xoshiro256pp,
    n: usize,
    d: usize,
    leaves: Vec<VarId>,
    operands: Vec<Vec<VarId>>,
    steps: Vec<VarId>,
    cut: Option<Cut<'s>>,
}

impl Chain<'_> {
    /// Notes the node just recorded as `out` and the variables it read.
    fn note(&mut self, out: VarId, operands: &[VarId]) -> VarId {
        assert_eq!(out, self.operands.len(), "one note per recorded node");
        self.operands.push(operands.to_vec());
        out
    }

    /// The four scalar heads over results drawn from `mats`, summed into
    /// the loss; `halve` puts a `scale(·, 0.5)` in front of the BCE head.
    fn heads(&mut self, tape: &mut Tape<'_>, mats: &[VarId], halve: bool) -> VarId {
        let (n, d) = (self.n, self.d);
        let x = *self.rng.choose(mats);
        let sum = self.note(tape.sum_all(x), &[x]);
        let x = *self.rng.choose(mats);
        let mean = self.note(tape.mean_all(x), &[x]);
        let x = *self.rng.choose(mats);
        let logp = self.note(tape.log_softmax_rows(x), &[x]);
        let mut mask: Vec<f32> = (0..n).map(|_| self.rng.index(2) as f32).collect();
        mask[0] = 1.0;
        let targets = self.rows(d);
        let nll = tape.nll_masked(logp, targets, Rc::new(mask));
        let nll = self.note(nll, &[logp]);
        let mut x = *self.rng.choose(mats);
        if halve {
            x = self.note(tape.scale(x, 0.5), &[x]);
        }
        let bce_targets = Rc::new((0..n * d).map(|_| self.rng.index(2) as f32).collect());
        let bce = self.note(tape.bce_with_logits_mean(x, bce_targets), &[x]);

        let mut loss = sum;
        for head in [mean, nll, bce] {
            loss = self.note(tape.add(loss, head), &[loss, head]);
        }
        loss
    }

    /// `n` row indices below `bound`.
    fn rows(&mut self, bound: usize) -> Rc<Vec<u32>> {
        Rc::new((0..self.n).map(|_| self.rng.index(bound) as u32).collect())
    }

    fn floats(&mut self, len: usize, lo: f32, hi: f32) -> Rc<Vec<f32>> {
        Rc::new(
            (0..len)
                .map(|_| lo + (hi - lo) * self.rng.next_f32())
                .collect(),
        )
    }

    /// Records matrix op `op` over two results drawn from `visible` — the
    /// first is the span's previous result, if it has one — or, at the
    /// cut's step, records it and stands the cut's leaf in for it.
    fn step(
        &mut self,
        tape: &mut Tape<'_>,
        op: usize,
        visible: &[VarId],
        previous: Option<VarId>,
    ) -> VarId {
        let drawn = *self.rng.choose(visible);
        let x = previous.unwrap_or(drawn);
        let y = *self.rng.choose(visible);
        let (n, d, leaves) = (self.n, self.d, self.leaves.clone());
        let out = match op {
            0 => self.note(tape.add(x, y), &[x, y]),
            1 => self.note(tape.sub(x, y), &[x, y]),
            2 => self.note(tape.mul(x, y), &[x, y]),
            3 => self.note(tape.scale(x, 0.7), &[x]),
            4 => {
                let b = leaves[BIAS];
                self.note(tape.add_row_broadcast(x, b), &[x, b])
            }
            5 => {
                let a = leaves[A_COL];
                let col = self.note(tape.matmul(y, a), &[y, a]);
                self.note(tape.mul_col_broadcast(x, col), &[x, col])
            }
            6 => self.note(tape.matmul(x, leaves[W]), &[x, leaves[W]]),
            7 => self.note(tape.relu(x), &[x]),
            8 => self.note(tape.leaky_relu(x, 0.2), &[x]),
            9 => self.note(tape.sigmoid(x), &[x]),
            10 => {
                let mask =
                    DropoutMask::from_kept((0..n * d).map(|_| !self.rng.bernoulli(0.3)), 0.3);
                self.note(tape.dropout(x, mask), &[x])
            }
            11 => {
                let idx = self.rows(n);
                self.note(tape.gather_rows(x, idx), &[x])
            }
            12 => {
                let idx = self.rows(n);
                self.note(tape.scatter_add_rows(x, idx, n), &[x])
            }
            13 => {
                let coeff = self.floats(n, 0.1, 1.0);
                self.note(tape.scale_rows(x, coeff), &[x])
            }
            14 => {
                let seg = self.rows(3);
                self.note(tape.segment_softmax(x, seg, 3), &[x])
            }
            15 => {
                let w = leaves[W_CAT];
                let cat = self.note(tape.concat_cols(&[x, y]), &[x, y]);
                self.note(tape.matmul(cat, w), &[cat, w])
            }
            16 => self.note(tape.log_softmax_rows(x), &[x]),
            17 => {
                let (src, dst) = (self.rows(n), self.rows(n));
                let coeff = self.floats(n, -1.0, 1.0);
                self.note(tape.propagate(x, src, coeff, dst, n), &[x])
            }
            18 => {
                let (rows, w) = (leaves[ROWS], leaves[W]);
                self.note(tape.matmul(rows, w), &[rows, w])
            }
            _ => unreachable!("{MATRIX_OPS} matrix ops"),
        };
        let out = match self.cut {
            Some(cut) if cut.step == self.steps.len() => {
                self.note(tape.param(cut.store, cut.id), &[])
            }
            _ => out,
        };
        self.steps.push(out);
        out
    }
}

/// The bit pattern of a tensor, shape included.
pub fn bits(t: &Tensor) -> (usize, usize, Vec<u32>) {
    let (r, c) = t.dims();
    (r, c, t.data().iter().map(|x| x.to_bits()).collect())
}
