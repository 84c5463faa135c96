//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records every operation as a node with an explicit `Op`
//! descriptor (no closures), so the backward pass is a transparent reverse
//! sweep with a `match` per op. Leaves are constants — owned, borrowed for
//! the tape's lifetime, or borrowed row by row ([`RowOperand`]) — or
//! snapshots of [`ParamStore`] parameters, and
//! [`Tape::backward`] returns gradients that can be folded back into the
//! store with [`Tape::accumulate_param_grads`].
//!
//! The sweep is demand-driven: every node records whether a parameter lies
//! below it, and `backward` forms a gradient only for nodes that do. One
//! tape serves a whole training run: [`Tape::reset`] empties the recording
//! and keeps every buffer the tape owned on a free list, from which the next
//! recording and its gradients draw.
//!
//! The tape keeps only the buffers a later step reads. `backward` recycles
//! an interior node's gradient as soon as it has been pushed down, so
//! [`Gradients::get`] answers for leaves alone. One table,
//! `Tape::adjoint_reads`, says which values each adjoint reads; every other
//! read of the sweep is of a shape. [`Tape::scope`] uses it to release, when
//! a span of the recording returns, every value recorded in the span that
//! no adjoint reads.

use std::cell::RefCell;
use std::rc::Rc;

use crate::kernels::{
    concat_cols_into, copy_cols_into, gather_rows_into, log_softmax_rows_into, propagate_into,
    scale_rows_into, scatter_add_rows_into, segment_softmax_backward_into, segment_softmax_into,
};
use crate::matmul::RowOperand;
use crate::nn::DropoutMask;
use crate::param::{ParamId, ParamStore};
use crate::tensor::{matmul_rows_into, matmul_tn_rows_into, Tensor};

/// Handle to a value recorded on a [`Tape`].
pub type VarId = usize;

/// Operation descriptor stored with each tape node.
#[derive(Debug, Clone)]
enum Op {
    /// Input value; optionally bound to a trainable parameter.
    Leaf { param: Option<ParamId> },
    /// Elementwise `a + b` (same shape).
    Add(VarId, VarId),
    /// Elementwise `a - b`.
    Sub(VarId, VarId),
    /// Elementwise `a * b`.
    Mul(VarId, VarId),
    /// `alpha * a`.
    Scale(VarId, f32),
    /// `[n,d] + [1,d]` row-broadcast (bias add).
    AddRowBroadcast(VarId, VarId),
    /// `[n,d] * [n,1]` column-broadcast (attention weighting).
    MulColBroadcast(VarId, VarId),
    /// Matrix product `a @ b`.
    MatMul(VarId, VarId),
    /// Rectified linear unit.
    Relu(VarId),
    /// Leaky ReLU with the given negative slope.
    LeakyRelu(VarId, f32),
    /// Logistic sigmoid.
    Sigmoid(VarId),
    /// Inverted dropout with a fixed 0/scale mask sampled at forward time.
    Dropout(VarId, DropoutMask),
    /// Row gather by index.
    GatherRows(VarId, Rc<Vec<u32>>),
    /// Row scatter-add into `out_rows` rows.
    ScatterAddRows(VarId, Rc<Vec<u32>>, usize),
    /// Constant per-row scaling (GCN normalization, mean-pool weights).
    ScaleRows(VarId, Rc<Vec<f32>>),
    /// Fused message passing: `out[dst[i]] += a[src[i]] * coeff[i]` into
    /// `out_rows` rows (the gather → scale-rows → scatter-add chain of a
    /// GCN layer as one node).
    Propagate {
        a: VarId,
        src: Rc<Vec<u32>>,
        coeff: Rc<Vec<f32>>,
        dst: Rc<Vec<u32>>,
        out_rows: usize,
    },
    /// Softmax within segments (GAT attention normalization).
    SegmentSoftmax(VarId, Rc<Vec<u32>>, usize),
    /// Horizontal concatenation (multi-head outputs).
    ConcatCols(Vec<VarId>),
    /// Sum of all elements, producing a 1×1 scalar.
    SumAll(VarId),
    /// Mean of all elements, producing a 1×1 scalar.
    MeanAll(VarId),
    /// Row-wise log-softmax.
    LogSoftmaxRows(VarId),
    /// Masked negative log-likelihood over rows of log-probabilities.
    NllMasked {
        logp: VarId,
        targets: Rc<Vec<u32>>,
        mask: Rc<Vec<f32>>,
    },
    /// Mean binary cross-entropy on logits against fixed targets.
    BceWithLogitsMean {
        logits: VarId,
        targets: Rc<Vec<f32>>,
    },
}

/// What a node holds: a tensor the tape owns (and recycles) or borrows; an
/// operand it can read but never sees whole (a constant leaf only); or the
/// shape of an owned value [`Tape::scope`] released.
#[derive(Debug)]
enum Value<'a> {
    Owned(Tensor),
    Borrowed(&'a Tensor),
    Rows(&'a dyn RowOperand),
    Released(usize, usize),
}

#[derive(Debug)]
struct Node<'a> {
    op: Op,
    value: Value<'a>,
    /// Whether a parameter leaf lies at or below this node: only then can a
    /// gradient arriving here reach anything [`Tape::accumulate_param_grads`]
    /// reads.
    needs_grad: bool,
}

/// Buffers of tensors the tape no longer needs, re-issued by capacity.
#[derive(Debug, Default)]
struct FreeList {
    bufs: Vec<Vec<f32>>,
}

impl FreeList {
    /// An empty tensor with room for `len` values: backed by the smallest
    /// free buffer that fits without being more than twice too large, or by
    /// a fresh allocation.
    fn take(&mut self, len: usize) -> Tensor {
        let best = self
            .bufs
            .iter()
            .enumerate()
            .filter(|(_, b)| (len..=2 * len).contains(&b.capacity()))
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i);
        Tensor::from_buffer(match best {
            Some(i) => self.bufs.swap_remove(i),
            None => Vec::with_capacity(len),
        })
    }

    fn give(&mut self, t: Tensor) {
        let buf = t.into_buffer();
        if buf.capacity() > 0 {
            self.bufs.push(buf);
        }
    }
}

/// Gradients produced by [`Tape::backward`], indexed by [`VarId`]. Dropping
/// them hands their buffers back to the tape that produced them.
#[derive(Debug)]
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
    /// The producing tape's free list — shared rather than borrowed, so the
    /// tape can be moved (or reset) while its gradients are still held.
    free: Rc<RefCell<FreeList>>,
}

impl Gradients {
    /// Gradient of the loss w.r.t. the leaf `id`, if the loss depends on it
    /// and it is a parameter (constants get none). An interior node has
    /// none either: its gradient is recycled once pushed down.
    pub fn get(&self, id: VarId) -> Option<&Tensor> {
        self.grads.get(id).and_then(|g| g.as_ref())
    }

    fn buf(&self, len: usize) -> Tensor {
        self.free.borrow_mut().take(len)
    }

    fn recycle(&self, t: Tensor) {
        self.free.borrow_mut().give(t);
    }

    /// Adds into the gradient of `id` a contribution of `len` values that
    /// `fill` writes; the first contribution becomes the gradient itself.
    fn accumulate_with(&mut self, id: VarId, len: usize, fill: impl FnOnce(&mut Tensor)) {
        let mut g = self.buf(len);
        fill(&mut g);
        match &mut self.grads[id] {
            Some(existing) => {
                existing.add_assign(&g);
                self.recycle(g);
            }
            slot @ None => *slot = Some(g),
        }
    }

    /// Adds `g` — an upstream gradient passed through unchanged, which its
    /// own node's arm still reads — into the gradient of `id`.
    fn accumulate_copy(&mut self, id: VarId, g: &Tensor) {
        match &mut self.grads[id] {
            Some(existing) => existing.add_assign(g),
            None => self.accumulate_with(id, g.len(), |copy| g.copy_into(copy)),
        }
    }
}

impl Drop for Gradients {
    fn drop(&mut self) {
        let mut free = self.free.borrow_mut();
        for g in self.grads.drain(..).flatten() {
            free.give(g);
        }
    }
}

/// A recording of a forward computation. `'a` bounds the constants it
/// borrows ([`Tape::constant_ref`]).
#[derive(Debug, Default)]
pub struct Tape<'a> {
    nodes: Vec<Node<'a>>,
    free: Rc<RefCell<FreeList>>,
}

impl<'a> Tape<'a> {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the recording for the next step, keeping every buffer the
    /// tape owned for re-use. The emptied tape borrows nothing, so it may
    /// go on to borrow constants of an unrelated lifetime.
    #[must_use = "the returned tape holds the recycled buffers"]
    pub fn reset<'b>(self) -> Tape<'b> {
        let Tape { nodes, free } = self;
        for node in nodes {
            if let Value::Owned(value) = node.value {
                free.borrow_mut().give(value);
            }
        }
        Tape {
            nodes: Vec::new(),
            free,
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Bytes of `f32` storage the tape holds allocated: the values it
    /// recorded and owns, plus every buffer waiting on its free list.
    pub fn held_bytes(&self) -> usize {
        let owned = self.nodes.iter().map(|node| match &node.value {
            Value::Owned(t) => t.capacity(),
            Value::Borrowed(_) | Value::Rows(_) | Value::Released(..) => 0,
        });
        let free = self.free.borrow();
        let floats = owned.sum::<usize>() + free.bufs.iter().map(Vec::capacity).sum::<usize>();
        floats * std::mem::size_of::<f32>()
    }

    /// Value of a recorded variable.
    ///
    /// # Panics
    /// Panics on a [`Tape::constant_rows`] leaf: it has no dense value —
    /// not building one is what the leaf is for. Such a leaf is read only
    /// as the left operand of [`Tape::matmul`]. Panics too on a value
    /// [`Tape::scope`] released.
    pub fn value(&self, id: VarId) -> &Tensor {
        match &self.nodes[id].value {
            Value::Owned(t) => t,
            Value::Borrowed(t) => t,
            Value::Rows(_) => {
                panic!("variable {id} is a row operand: it can only be the left operand of matmul")
            }
            Value::Released(..) => {
                panic!("variable {id} was released by Tape::scope: no adjoint reads it")
            }
        }
    }

    /// Shape of a recorded variable, whatever it holds.
    fn dims(&self, id: VarId) -> (usize, usize) {
        match &self.nodes[id].value {
            Value::Owned(t) => t.dims(),
            Value::Borrowed(t) => t.dims(),
            Value::Rows(rows) => rows.dims(),
            &Value::Released(rows, cols) => (rows, cols),
        }
    }

    /// Records `body`, then releases every value it recorded — except the
    /// one it returns — that no adjoint recorded in it reads: the buffer
    /// goes to the free list and the node keeps its shape. `body` must hand
    /// nothing but its result on to what is recorded after it; reading a
    /// released value panics in [`Tape::value`] instead of training on
    /// stale numbers.
    pub fn scope(&mut self, body: impl FnOnce(&mut Self) -> VarId) -> VarId {
        let start = self.nodes.len();
        let out = body(self);
        let mut reads = vec![out];
        for id in start..self.nodes.len() {
            self.adjoint_reads(id, &mut reads);
        }
        let mut live = vec![false; self.nodes.len() - start];
        for id in reads.into_iter().filter(|&id| id >= start) {
            live[id - start] = true;
        }
        let mut free = self.free.borrow_mut();
        for (node, live) in self.nodes[start..].iter_mut().zip(live) {
            if let (false, Value::Owned(t)) = (live, &node.value) {
                let (rows, cols) = t.dims();
                if let Value::Owned(t) =
                    std::mem::replace(&mut node.value, Value::Released(rows, cols))
                {
                    free.give(t);
                }
            }
        }
        out
    }

    fn needs_grad(&self, id: VarId) -> bool {
        self.nodes[id].needs_grad
    }

    /// An empty output tensor with room for `len` values, recycled if one
    /// fits.
    fn buf(&self, len: usize) -> Tensor {
        self.free.borrow_mut().take(len)
    }

    fn push_leaf(&mut self, param: Option<ParamId>, value: Value<'a>) -> VarId {
        self.nodes.push(Node {
            op: Op::Leaf { param },
            value,
            needs_grad: param.is_some(),
        });
        self.nodes.len() - 1
    }

    /// Records the result of `op` over `inputs`; it needs a gradient iff
    /// one of them does.
    fn push(&mut self, op: Op, inputs: &[VarId], value: Tensor) -> VarId {
        let needs_grad = inputs.iter().any(|&i| self.needs_grad(i));
        self.nodes.push(Node {
            op,
            value: Value::Owned(value),
            needs_grad,
        });
        self.nodes.len() - 1
    }

    /// Records `f(a)`, an elementwise map.
    fn push_map(&mut self, op: Op, a: VarId, f: impl Fn(f32) -> f32) -> VarId {
        let mut v = self.buf(self.value(a).len());
        self.value(a).map_into(&mut v, f);
        self.push(op, &[a], v)
    }

    /// Records `f(a, b)`, an elementwise combination of equal shapes.
    fn push_zip(&mut self, op: Op, a: VarId, b: VarId, f: impl Fn(f32, f32) -> f32) -> VarId {
        let mut v = self.buf(self.value(a).len());
        self.value(a).zip_into(self.value(b), &mut v, f);
        self.push(op, &[a, b], v)
    }

    /// Records a 1×1 result.
    fn push_scalar(&mut self, op: Op, a: VarId, value: f32) -> VarId {
        let mut v = self.buf(1);
        v.reshape_filled(1, 1, value);
        self.push(op, &[a], v)
    }

    /// Records a constant (non-trainable) input.
    pub fn constant(&mut self, value: Tensor) -> VarId {
        self.push_leaf(None, Value::Owned(value))
    }

    /// Records a constant the tape only borrows: nothing is copied, and
    /// `value` must outlive the tape (or its next [`Tape::reset`]).
    pub fn constant_ref(&mut self, value: &'a Tensor) -> VarId {
        self.push_leaf(None, Value::Borrowed(value))
    }

    /// Records a constant the tape reads a row at a time and never holds
    /// densely. The variable is valid only as the left operand of
    /// [`Tape::matmul`], whose value and whose gradient for the right
    /// operand equal, bit for bit, those of the same rows recorded as a
    /// dense constant; it takes no gradient itself.
    pub fn constant_rows(&mut self, rows: &'a dyn RowOperand) -> VarId {
        self.push_leaf(None, Value::Rows(rows))
    }

    /// Records a snapshot of a trainable parameter as a leaf.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> VarId {
        let mut v = self.buf(store.value(id).len());
        store.value(id).copy_into(&mut v);
        self.push_leaf(Some(id), Value::Owned(v))
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        self.push_zip(Op::Add(a, b), a, b, |x, y| x + y)
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        self.push_zip(Op::Sub(a, b), a, b, |x, y| x - y)
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: VarId, b: VarId) -> VarId {
        self.push_zip(Op::Mul(a, b), a, b, |x, y| x * y)
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: VarId, alpha: f32) -> VarId {
        self.push_map(Op::Scale(a, alpha), a, |x| alpha * x)
    }

    /// Adds a `[1, d]` row vector to every row of a `[n, d]` matrix.
    pub fn add_row_broadcast(&mut self, a: VarId, b: VarId) -> VarId {
        let (n, d) = self.value(a).dims();
        let (br, bc) = self.value(b).dims();
        assert_eq!((br, bc), (1, d), "bias must be [1, {d}], got [{br}, {bc}]");
        let mut v = self.buf(n * d);
        let bias = self.value(b).row(0);
        let buf = v.reshape_empty(n, d);
        for i in 0..n {
            buf.extend(self.value(a).row(i).iter().zip(bias).map(|(&x, &y)| x + y));
        }
        self.push(Op::AddRowBroadcast(a, b), &[a, b], v)
    }

    /// Multiplies each row of a `[n, d]` matrix by the matching entry of a
    /// `[n, 1]` column vector.
    pub fn mul_col_broadcast(&mut self, a: VarId, b: VarId) -> VarId {
        let (n, d) = self.value(a).dims();
        let (br, bc) = self.value(b).dims();
        assert_eq!((br, bc), (n, 1), "column factor must be [{n}, 1]");
        let mut v = self.buf(n * d);
        scale_rows_into(self.value(a), self.value(b).data(), &mut v);
        self.push(Op::MulColBroadcast(a, b), &[a, b], v)
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        let v = match self.nodes[a].value {
            Value::Rows(rows) => self.product(rows, b),
            _ => self.product(self.value(a), b),
        };
        self.push(Op::MatMul(a, b), &[a, b], v)
    }

    /// `lhs @ value(b)` in a recycled buffer.
    fn product(&self, lhs: &(impl RowOperand + ?Sized), b: VarId) -> Tensor {
        let rhs = self.value(b);
        let mut v = self.buf(lhs.dims().0 * rhs.cols());
        matmul_rows_into(lhs, rhs, &mut v);
        v
    }

    /// ReLU activation.
    pub fn relu(&mut self, a: VarId) -> VarId {
        self.push_map(Op::Relu(a), a, |x| x.max(0.0))
    }

    /// Leaky ReLU activation.
    pub fn leaky_relu(&mut self, a: VarId, slope: f32) -> VarId {
        self.push_map(Op::LeakyRelu(a, slope), a, |x| {
            if x > 0.0 {
                x
            } else {
                slope * x
            }
        })
    }

    /// Sigmoid activation.
    pub fn sigmoid(&mut self, a: VarId) -> VarId {
        self.push_map(Op::Sigmoid(a), a, |x| 1.0 / (1.0 + (-x).exp()))
    }

    /// Inverted dropout: each element times its factor in `mask`, `0.0`
    /// (dropped) or `1/(1-p)` (kept); sample it with
    /// [`crate::nn::dropout_mask`].
    pub fn dropout(&mut self, a: VarId, mask: DropoutMask) -> VarId {
        let mut v = self.buf(mask.len());
        mask.scale_into(self.value(a), &mut v);
        self.push(Op::Dropout(a, mask), &[a], v)
    }

    /// Gathers rows by index.
    pub fn gather_rows(&mut self, a: VarId, idx: Rc<Vec<u32>>) -> VarId {
        let mut v = self.buf(idx.len() * self.value(a).cols());
        gather_rows_into(self.value(a), &idx, &mut v);
        self.push(Op::GatherRows(a, idx), &[a], v)
    }

    /// Scatter-adds rows into a tensor with `out_rows` rows.
    pub fn scatter_add_rows(&mut self, a: VarId, idx: Rc<Vec<u32>>, out_rows: usize) -> VarId {
        let mut v = self.buf(out_rows * self.value(a).cols());
        scatter_add_rows_into(self.value(a), &idx, out_rows, &mut v);
        self.push(Op::ScatterAddRows(a, idx, out_rows), &[a], v)
    }

    /// Scales each row by a constant coefficient (no gradient to the
    /// coefficients).
    pub fn scale_rows(&mut self, a: VarId, coeff: Rc<Vec<f32>>) -> VarId {
        let mut v = self.buf(self.value(a).len());
        scale_rows_into(self.value(a), &coeff, &mut v);
        self.push(Op::ScaleRows(a, coeff), &[a], v)
    }

    /// One message-passing step with constant per-arc coefficients:
    /// `out[dst[i]] += a[src[i]] * coeff[i]` over the arcs in index order,
    /// into `out_rows` rows. Values and gradients equal, bit for bit, those
    /// of [`Tape::gather_rows`] → [`Tape::scale_rows`] →
    /// [`Tape::scatter_add_rows`], without the two arc-sized intermediates.
    pub fn propagate(
        &mut self,
        a: VarId,
        src: Rc<Vec<u32>>,
        coeff: Rc<Vec<f32>>,
        dst: Rc<Vec<u32>>,
        out_rows: usize,
    ) -> VarId {
        let mut v = self.buf(out_rows * self.value(a).cols());
        propagate_into(self.value(a), &src, &coeff, &dst, out_rows, &mut v);
        let op = Op::Propagate {
            a,
            src,
            coeff,
            dst,
            out_rows,
        };
        self.push(op, &[a], v)
    }

    /// Segment softmax (per destination node, per head).
    pub fn segment_softmax(&mut self, a: VarId, seg: Rc<Vec<u32>>, n_seg: usize) -> VarId {
        let mut v = self.buf(self.value(a).len());
        segment_softmax_into(self.value(a), &seg, n_seg, &mut v);
        self.push(Op::SegmentSoftmax(a, seg, n_seg), &[a], v)
    }

    /// Horizontal concatenation of several variables.
    pub fn concat_cols(&mut self, parts: &[VarId]) -> VarId {
        let tensors: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let mut v = self.buf(tensors.iter().map(|t| t.len()).sum());
        concat_cols_into(&tensors, &mut v);
        self.push(Op::ConcatCols(parts.to_vec()), parts, v)
    }

    /// Sum of all elements (1×1 output).
    pub fn sum_all(&mut self, a: VarId) -> VarId {
        let sum = self.value(a).sum();
        self.push_scalar(Op::SumAll(a), a, sum)
    }

    /// Mean of all elements (1×1 output).
    pub fn mean_all(&mut self, a: VarId) -> VarId {
        let mean = self.value(a).mean();
        self.push_scalar(Op::MeanAll(a), a, mean)
    }

    /// Row-wise log-softmax.
    pub fn log_softmax_rows(&mut self, a: VarId) -> VarId {
        let mut v = self.buf(self.value(a).len());
        log_softmax_rows_into(self.value(a), &mut v);
        self.push(Op::LogSoftmaxRows(a), &[a], v)
    }

    /// Masked NLL loss over rows of log-probabilities: returns
    /// `-(Σ_i mask_i · logp[i, t_i]) / Σ_i mask_i` as a 1×1 scalar.
    ///
    /// # Panics
    /// Panics if lengths disagree, a target is out of range, or the mask sums
    /// to zero.
    pub fn nll_masked(&mut self, logp: VarId, targets: Rc<Vec<u32>>, mask: Rc<Vec<f32>>) -> VarId {
        let val = self.value(logp);
        let (n, c) = val.dims();
        assert_eq!(targets.len(), n, "targets length mismatch");
        assert_eq!(mask.len(), n, "mask length mismatch");
        let denom: f32 = mask.iter().sum();
        assert!(denom > 0.0, "mask must select at least one row");
        let mut total = 0.0f32;
        for i in 0..n {
            let t = targets[i] as usize;
            assert!(t < c, "target {t} out of range for {c} classes");
            total -= mask[i] * val.at(i, t);
        }
        self.push_scalar(
            Op::NllMasked {
                logp,
                targets,
                mask,
            },
            logp,
            total / denom,
        )
    }

    /// Mean binary cross-entropy with logits:
    /// `mean_i [ max(z,0) − z·t + ln(1+e^{−|z|}) ]`, a 1×1 scalar.
    ///
    /// # Panics
    /// Panics if `targets.len()` differs from the element count.
    pub fn bce_with_logits_mean(&mut self, logits: VarId, targets: Rc<Vec<f32>>) -> VarId {
        let val = self.value(logits);
        assert_eq!(targets.len(), val.len(), "targets length mismatch");
        let mut total = 0.0f32;
        for (&z, &t) in val.data().iter().zip(targets.iter()) {
            total += z.max(0.0) - z * t + (1.0 + (-z.abs()).exp()).ln();
        }
        let mean = total / targets.len() as f32;
        self.push_scalar(Op::BceWithLogitsMean { logits, targets }, logits, mean)
    }

    /// Reverse sweep from a scalar loss. Gradients are formed only for
    /// nodes with a parameter below them, so a constant operand costs
    /// nothing (`MatMul(X_const, W)` computes `Xᵀg` alone) and a loss that
    /// reaches no parameter yields no gradients at all. Only the leaves'
    /// gradients are returned.
    ///
    /// # Panics
    /// Panics if `loss` is not 1×1.
    pub fn backward(&self, loss: VarId) -> Gradients {
        assert_eq!(
            self.dims(loss),
            (1, 1),
            "backward starts from a scalar loss"
        );
        let mut grads = Gradients {
            grads: vec![None; self.nodes.len()],
            free: Rc::clone(&self.free),
        };
        if self.needs_grad(loss) {
            let mut seed = grads.buf(1);
            seed.reshape_filled(1, 1, 1.0);
            grads.grads[loss] = Some(seed);
        }
        for id in (0..=loss).rev() {
            // A gradient only ever lands on a node that needs one. A leaf's
            // stays for `accumulate_param_grads`; any other node's is read
            // by its own arm alone, and goes back to the free list after.
            if matches!(self.nodes[id].op, Op::Leaf { .. }) {
                continue;
            }
            let Some(g) = grads.grads[id].take() else {
                continue;
            };
            self.push_down(id, &g, &mut grads);
            grads.recycle(g);
        }
        grads
    }

    /// Pushes onto `out` the variables whose values the arm of node `id` in
    /// [`Tape::push_down`] reads: its operands, its own output, or none.
    /// Every other read there is of a shape, through [`Tape::dims`], so a
    /// value no entry names is free to go ([`Tape::scope`]).
    fn adjoint_reads(&self, id: VarId, out: &mut Vec<VarId>) {
        match &self.nodes[id].op {
            Op::MatMul(a, b) | Op::Mul(a, b) | Op::MulColBroadcast(a, b) => out.extend([*a, *b]),
            Op::LeakyRelu(a, _) | Op::BceWithLogitsMean { logits: a, .. } => out.push(*a),
            Op::Relu(_) | Op::Sigmoid(_) | Op::SegmentSoftmax(..) | Op::LogSoftmaxRows(_) => {
                out.push(id)
            }
            Op::Leaf { .. }
            | Op::Add(..)
            | Op::Sub(..)
            | Op::Scale(..)
            | Op::AddRowBroadcast(..)
            | Op::Dropout(..)
            | Op::GatherRows(..)
            | Op::ScatterAddRows(..)
            | Op::ScaleRows(..)
            | Op::Propagate { .. }
            | Op::ConcatCols(_)
            | Op::SumAll(_)
            | Op::MeanAll(_)
            | Op::NllMasked { .. } => {}
        }
    }

    /// Pushes `g`, the gradient of node `id`, down to each operand that
    /// needs one.
    fn push_down(&self, id: VarId, g: &Tensor, grads: &mut Gradients) {
        // A unary op's operand needs a gradient whenever the node itself
        // does, so only the multi-operand arms ask.
        match &self.nodes[id].op {
            Op::Leaf { .. } => {}
            Op::Add(a, b) => {
                for &x in [a, b] {
                    if self.needs_grad(x) {
                        grads.accumulate_copy(x, g);
                    }
                }
            }
            Op::Sub(a, b) => {
                if self.needs_grad(*a) {
                    grads.accumulate_copy(*a, g);
                }
                if self.needs_grad(*b) {
                    grads.accumulate_with(*b, g.len(), |db| g.map_into(db, |x| -x));
                }
            }
            Op::Mul(a, b) => {
                for (&x, &other) in [(a, b), (b, a)] {
                    if self.needs_grad(x) {
                        grads.accumulate_with(x, g.len(), |dx| {
                            g.zip_into(self.value(other), dx, |gi, oi| gi * oi)
                        });
                    }
                }
            }
            Op::Scale(a, alpha) => {
                grads.accumulate_with(*a, g.len(), |da| g.map_into(da, |x| alpha * x));
            }
            Op::AddRowBroadcast(a, b) => {
                if self.needs_grad(*a) {
                    grads.accumulate_copy(*a, g);
                }
                if self.needs_grad(*b) {
                    grads.accumulate_with(*b, g.cols(), |db| g.sum_rows_into(db));
                }
            }
            Op::MulColBroadcast(a, b) => {
                if self.needs_grad(*a) {
                    grads.accumulate_with(*a, g.len(), |da| {
                        scale_rows_into(g, self.value(*b).data(), da)
                    });
                }
                if self.needs_grad(*b) {
                    let mut weighted = grads.buf(g.len());
                    g.zip_into(self.value(*a), &mut weighted, |gi, ai| gi * ai);
                    grads.accumulate_with(*b, g.rows(), |db| weighted.sum_cols_into(db));
                    grads.recycle(weighted);
                }
            }
            Op::MatMul(a, b) => {
                if self.needs_grad(*a) {
                    grads.accumulate_with(*a, self.value(*a).len(), |da| {
                        g.matmul_nt_into(self.value(*b), da)
                    });
                }
                if self.needs_grad(*b) {
                    grads.accumulate_with(*b, self.value(*b).len(), |db| {
                        match self.nodes[*a].value {
                            Value::Rows(rows) => matmul_tn_rows_into(rows, g, db),
                            _ => matmul_tn_rows_into(self.value(*a), g, db),
                        }
                    });
                }
            }
            Op::Relu(a) => {
                // y = max(x, 0) is positive exactly where x is (NaN and -0
                // included), so the output masks as the input would.
                grads.accumulate_with(*a, g.len(), |da| {
                    g.zip_into(self.value(id), da, |gi, yi| if yi > 0.0 { gi } else { 0.0 })
                });
            }
            Op::LeakyRelu(a, slope) => {
                grads.accumulate_with(*a, g.len(), |da| {
                    g.zip_into(
                        self.value(*a),
                        da,
                        |gi, xi| if xi > 0.0 { gi } else { slope * gi },
                    )
                });
            }
            Op::Sigmoid(a) => {
                grads.accumulate_with(*a, g.len(), |da| {
                    g.zip_into(self.value(id), da, |gi, yi| gi * yi * (1.0 - yi))
                });
            }
            Op::Dropout(a, mask) => {
                grads.accumulate_with(*a, g.len(), |da| mask.scale_into(g, da));
            }
            Op::GatherRows(a, idx) => {
                let (rows, cols) = self.dims(*a);
                grads.accumulate_with(*a, rows * cols, |da| {
                    scatter_add_rows_into(g, idx, rows, da)
                });
            }
            Op::ScatterAddRows(a, idx, out_rows) => {
                debug_assert_eq!(g.rows(), *out_rows, "upstream gradient shape");
                let (rows, cols) = self.dims(*a);
                grads.accumulate_with(*a, rows * cols, |da| gather_rows_into(g, idx, da));
            }
            Op::ScaleRows(a, coeff) => {
                grads.accumulate_with(*a, g.len(), |da| scale_rows_into(g, coeff, da));
            }
            Op::Propagate {
                a,
                src,
                coeff,
                dst,
                out_rows,
            } => {
                // The adjoint runs the arcs backwards: dst → src.
                debug_assert_eq!(g.rows(), *out_rows, "upstream gradient shape");
                let (rows, cols) = self.dims(*a);
                grads.accumulate_with(*a, rows * cols, |da| {
                    propagate_into(g, dst, coeff, src, rows, da)
                });
            }
            Op::SegmentSoftmax(a, seg, n_seg) => {
                grads.accumulate_with(*a, g.len(), |da| {
                    segment_softmax_backward_into(self.value(id), g, seg, *n_seg, da)
                });
            }
            Op::ConcatCols(parts) => {
                let mut off = 0;
                for &p in parts {
                    let width = self.dims(p).1;
                    if self.needs_grad(p) {
                        grads.accumulate_with(p, g.rows() * width, |dp| {
                            copy_cols_into(g, off, width, dp)
                        });
                    }
                    off += width;
                }
            }
            Op::SumAll(a) => {
                let (r, c) = self.dims(*a);
                grads.accumulate_with(*a, r * c, |da| da.reshape_filled(r, c, g.item()));
            }
            Op::MeanAll(a) => {
                let (r, c) = self.dims(*a);
                grads.accumulate_with(*a, r * c, |da| {
                    da.reshape_filled(r, c, g.item() / (r * c) as f32)
                });
            }
            Op::LogSoftmaxRows(a) => {
                // dx = g - softmax(x) * rowsum(g)
                let y = self.value(id); // log-probs
                let (n, c) = y.dims();
                grads.accumulate_with(*a, n * c, |da| {
                    let buf = da.reshape_empty(n, c);
                    for i in 0..n {
                        let row_g_sum: f32 = g.row(i).iter().sum();
                        buf.extend(
                            g.row(i)
                                .iter()
                                .zip(y.row(i))
                                .map(|(&gj, &yj)| gj - yj.exp() * row_g_sum),
                        );
                    }
                });
            }
            Op::NllMasked {
                logp,
                targets,
                mask,
            } => {
                let (n, c) = self.dims(*logp);
                let denom: f32 = mask.iter().sum();
                let scale = g.item() / denom;
                grads.accumulate_with(*logp, n * c, |da| {
                    da.reshape_filled(n, c, 0.0);
                    for i in 0..n {
                        da.set(i, targets[i] as usize, -mask[i] * scale);
                    }
                });
            }
            Op::BceWithLogitsMean { logits, targets } => {
                let z = self.value(*logits);
                let scale = g.item() / targets.len() as f32;
                grads.accumulate_with(*logits, z.len(), |da| {
                    z.zip_slice_into(targets, da, |x, t| {
                        let sig = 1.0 / (1.0 + (-x).exp());
                        (sig - t) * scale
                    })
                });
            }
        }
    }

    /// Folds leaf gradients into the owning [`ParamStore`].
    pub fn accumulate_param_grads(&self, grads: &Gradients, store: &mut ParamStore) {
        for (id, node) in self.nodes.iter().enumerate() {
            if let Op::Leaf { param: Some(pid) } = node.op {
                if let Some(g) = grads.get(id) {
                    store.accumulate_grad(pid, g);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks `loss = mean(sigmoid(x @ w + b))` against finite differences.
    /// Sigmoid is smooth everywhere, so the comparison is exact up to f32
    /// truncation (ReLU's kink is covered by a dedicated test below).
    #[test]
    fn linear_sigmoid_gradients_match_finite_difference() {
        let mut store = ParamStore::new();
        let mut rng = lumos_common::rng::Xoshiro256pp::seed_from_u64(7);
        let w = store.add("w", Tensor::rand_uniform(3, 2, -1.0, 1.0, &mut rng));
        let b = store.add("b", Tensor::rand_uniform(1, 2, -0.5, 0.5, &mut rng));
        let x = Tensor::rand_uniform(4, 3, -1.0, 1.0, &mut rng);

        let eval = |store: &ParamStore| -> f32 {
            let mut t = Tape::new();
            let xv = t.constant(x.clone());
            let wv = t.param(store, w);
            let bv = t.param(store, b);
            let h = t.matmul(xv, wv);
            let h = t.add_row_broadcast(h, bv);
            let h = t.sigmoid(h);
            let l = t.mean_all(h);
            t.value(l).item()
        };

        // Analytic gradients.
        let mut t = Tape::new();
        let xv = t.constant(x.clone());
        let wv = t.param(&store, w);
        let bv = t.param(&store, b);
        let h = t.matmul(xv, wv);
        let h = t.add_row_broadcast(h, bv);
        let h = t.sigmoid(h);
        let l = t.mean_all(h);
        let grads = t.backward(l);
        store.zero_grad();
        t.accumulate_param_grads(&grads, &mut store);

        // Finite differences.
        let num_w = crate::gradcheck::numeric_grad(&mut store, w, &eval, 1e-3);
        let num_b = crate::gradcheck::numeric_grad(&mut store, b, &eval, 1e-3);
        assert!(
            store.get(w).grad.max_abs_diff(&num_w) < 1e-2,
            "w grads differ: {:?} vs {:?}",
            store.get(w).grad,
            num_w
        );
        assert!(store.get(b).grad.max_abs_diff(&num_b) < 1e-2);
    }

    /// ReLU backward on values safely away from the kink at zero.
    #[test]
    fn relu_backward_exact_away_from_kink() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::from_vec(1, 4, vec![-2.0, -0.5, 0.5, 2.0]));
        let mut t = Tape::new();
        let av = t.param(&store, a);
        let r = t.relu(av);
        let w = t.constant(Tensor::from_vec(1, 4, vec![10.0, 20.0, 30.0, 40.0]));
        let m = t.mul(r, w);
        let l = t.sum_all(m);
        let grads = t.backward(l);
        t.accumulate_param_grads(&grads, &mut store);
        assert_eq!(store.get(a).grad.data(), &[0.0, 0.0, 30.0, 40.0]);
    }

    #[test]
    #[should_panic(expected = "row operand")]
    fn a_row_operand_leaf_has_no_dense_value() {
        let x = Tensor::ones(2, 3);
        let mut t = Tape::new();
        let xv = t.constant_rows(&x);
        t.value(xv);
    }

    /// A scope releases the two values no adjoint reads — the scale's, and
    /// the add's, which ReLU's adjoint skips by reading its own output —
    /// and still differentiates; reading one then panics with its id.
    #[test]
    #[should_panic(expected = "variable 2 was released by Tape::scope")]
    fn a_released_value_panics_with_its_id() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::from_vec(1, 3, vec![-1.0, 0.5, 2.0]));
        let mut t = Tape::new();
        let av = t.param(&store, a);
        let out = t.scope(|t| {
            let doubled = t.scale(av, 2.0);
            let quadrupled = t.add(doubled, doubled);
            t.relu(quadrupled)
        });
        assert_eq!((out, t.value(out).data()), (3, &[0.0, 2.0, 8.0][..]));
        let l = t.sum_all(out);
        t.accumulate_param_grads(&t.backward(l), &mut store);
        assert_eq!(store.get(a).grad.data(), &[0.0, 4.0, 4.0]);
        assert_eq!(
            t.value(av).data(),
            store.value(a).data(),
            "a leaf outside stays"
        );
        t.value(2);
    }

    #[test]
    fn a_row_operand_leaf_multiplies_and_differentiates_as_its_dense_twin() {
        let mut store = ParamStore::new();
        let mut rng = lumos_common::rng::Xoshiro256pp::seed_from_u64(43);
        let w = store.add("w", Tensor::rand_uniform(3, 2, -1.0, 1.0, &mut rng));
        let x = Tensor::rand_uniform(5, 3, -1.0, 1.0, &mut rng);
        let run = |rows: bool| {
            let mut t = Tape::new();
            let xv = if rows {
                t.constant_rows(&x)
            } else {
                t.constant_ref(&x)
            };
            let wv = t.param(&store, w);
            let h = t.matmul(xv, wv);
            let s = t.sigmoid(h);
            let l = t.mean_all(s);
            let grads = t.backward(l);
            assert!(grads.get(xv).is_none(), "a constant takes no gradient");
            let bits = |v: &Tensor| v.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            (bits(t.value(h)), bits(grads.get(wv).expect("dL/dW")))
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn mul_and_scale_gradients() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::from_vec(1, 2, vec![2.0, 3.0]));
        let mut t = Tape::new();
        let av = t.param(&store, a);
        let sq = t.mul(av, av); // a^2
        let scaled = t.scale(sq, 0.5); // a^2 / 2
        let l = t.sum_all(scaled);
        let grads = t.backward(l);
        t.accumulate_param_grads(&grads, &mut store);
        // d/da (a^2/2) = a
        assert_eq!(store.get(a).grad.data(), &[2.0, 3.0]);
    }

    #[test]
    fn gather_scatter_gradients_match_finite_difference() {
        let mut store = ParamStore::new();
        let mut rng = lumos_common::rng::Xoshiro256pp::seed_from_u64(11);
        let x = store.add("x", Tensor::rand_uniform(4, 3, -1.0, 1.0, &mut rng));
        let idx = Rc::new(vec![0u32, 2, 2, 3, 1]);
        let dst = Rc::new(vec![1u32, 0, 1, 1, 0]);

        let eval = |store: &ParamStore| -> f32 {
            let mut t = Tape::new();
            let xv = t.param(store, x);
            let gath = t.gather_rows(xv, idx.clone());
            let act = t.leaky_relu(gath, 0.2);
            let sc = t.scatter_add_rows(act, dst.clone(), 2);
            let l = t.sum_all(sc);
            t.value(l).item()
        };

        let mut t = Tape::new();
        let xv = t.param(&store, x);
        let gath = t.gather_rows(xv, idx.clone());
        let act = t.leaky_relu(gath, 0.2);
        let sc = t.scatter_add_rows(act, dst.clone(), 2);
        let l = t.sum_all(sc);
        let grads = t.backward(l);
        store.zero_grad();
        t.accumulate_param_grads(&grads, &mut store);
        let numeric = crate::gradcheck::numeric_grad(&mut store, x, &eval, 1e-3);
        assert!(store.get(x).grad.max_abs_diff(&numeric) < 1e-2);
    }

    /// A message graph's arcs: sources, coefficients, destinations.
    type Arcs<'a> = (&'a Rc<Vec<u32>>, &'a Rc<Vec<f32>>, &'a Rc<Vec<u32>>);

    /// One recording of `propagate`, or of the three ops it fuses, between
    /// a leaky ReLU (so the incoming values are not the parameter itself)
    /// and a weighted sum (so the upstream gradient is not constant).
    fn record_message_pass(
        t: &mut Tape<'_>,
        store: &ParamStore,
        x: ParamId,
        arcs: Arcs<'_>,
        weight: &Tensor,
        fused: bool,
    ) -> VarId {
        let xv = t.param(store, x);
        let act = t.leaky_relu(xv, 0.2);
        let agg = aggregate(t, act, arcs, weight.rows(), fused);
        weigh(t, agg, weight)
    }

    /// `propagate`, or the three ops it fuses, over `act` into `out_rows`.
    fn aggregate(
        t: &mut Tape<'_>,
        act: VarId,
        (src, coeff, dst): Arcs<'_>,
        out_rows: usize,
        fused: bool,
    ) -> VarId {
        if fused {
            t.propagate(act, src.clone(), coeff.clone(), dst.clone(), out_rows)
        } else {
            let gathered = t.gather_rows(act, src.clone());
            let scaled = t.scale_rows(gathered, coeff.clone());
            t.scatter_add_rows(scaled, dst.clone(), out_rows)
        }
    }

    /// `sum(agg ⊙ weight)`.
    fn weigh(t: &mut Tape<'_>, agg: VarId, weight: &Tensor) -> VarId {
        let wv = t.constant(weight.clone());
        let weighted = t.mul(agg, wv);
        t.sum_all(weighted)
    }

    #[test]
    fn propagate_matches_the_three_op_chain_bit_for_bit() {
        let mut rng = lumos_common::rng::Xoshiro256pp::seed_from_u64(37);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for _ in 0..30 {
            let (n, d, out_rows) = (1 + rng.index(8), 1 + rng.index(18), 1 + rng.index(8));
            // Repeated destinations, destinations and sources no arc touches.
            let arcs = rng.index(4 * n);
            let src = Rc::new((0..arcs).map(|_| rng.index(n) as u32).collect::<Vec<_>>());
            let dst = Rc::new(
                (0..arcs)
                    .map(|_| rng.index(out_rows) as u32)
                    .collect::<Vec<_>>(),
            );
            let coeff = Rc::new(
                (0..arcs)
                    .map(|_| 2.0 * rng.next_f32() - 1.0)
                    .collect::<Vec<_>>(),
            );
            let mut store = ParamStore::new();
            let x = store.add("x", Tensor::rand_uniform(n, d, -1.0, 1.0, &mut rng));
            let weight = Tensor::rand_uniform(out_rows, d, -1.0, 1.0, &mut rng);

            let grads_of = |fused: bool| {
                let arcs = (&src, &coeff, &dst);
                let mut t = Tape::new();
                let loss = record_message_pass(&mut t, &store, x, arcs, &weight, fused);
                let dx = bits(t.backward(loss).get(0).expect("parameter gradient"));
                // x, its activation, and the aggregate: nodes 0, 1 and the
                // one before the weight constant. The two interior ones are
                // observed as parameter leaves holding the same values, so
                // their gradients are leaf gradients.
                let mut observed = ParamStore::new();
                let act = observed.add("act", t.value(1).clone());
                let agg = observed.add("agg", t.value(loss - 3).clone());

                let mut t = Tape::new();
                let av = t.param(&observed, act);
                let aggv = aggregate(&mut t, av, arcs, weight.rows(), fused);
                let loss = weigh(&mut t, aggv, &weight);
                let dact = bits(t.backward(loss).get(av).expect("activation gradient"));

                let mut t = Tape::new();
                let gv = t.param(&observed, agg);
                let loss = weigh(&mut t, gv, &weight);
                let dagg = bits(t.backward(loss).get(gv).expect("aggregate gradient"));
                (bits(observed.value(agg)), dagg, dact, dx)
            };
            assert_eq!(grads_of(true), grads_of(false));
        }
    }

    #[test]
    fn propagate_gradients_match_finite_difference() {
        let mut store = ParamStore::new();
        let mut rng = lumos_common::rng::Xoshiro256pp::seed_from_u64(41);
        let x = store.add("x", Tensor::rand_uniform(4, 3, -1.0, 1.0, &mut rng));
        let src = Rc::new(vec![0u32, 2, 2, 3, 1, 0]);
        let dst = Rc::new(vec![1u32, 0, 1, 1, 0, 1]);
        let coeff = Rc::new(vec![0.5f32, -1.5, 0.25, 2.0, 1.0, -0.75]);
        let weight = Tensor::rand_uniform(3, 3, -1.0, 1.0, &mut rng);
        let arcs = (&src, &coeff, &dst);

        let eval = |store: &ParamStore| -> f32 {
            let mut t = Tape::new();
            let l = record_message_pass(&mut t, store, x, arcs, &weight, true);
            t.value(l).item()
        };

        let mut t = Tape::new();
        let l = record_message_pass(&mut t, &store, x, arcs, &weight, true);
        let grads = t.backward(l);
        store.zero_grad();
        t.accumulate_param_grads(&grads, &mut store);
        let numeric = crate::gradcheck::numeric_grad(&mut store, x, &eval, 1e-3);
        assert!(
            store.get(x).grad.max_abs_diff(&numeric) < 1e-2,
            "{:?} vs {numeric:?}",
            store.get(x).grad
        );
    }

    #[test]
    fn segment_softmax_gradients_match_finite_difference() {
        let mut store = ParamStore::new();
        let mut rng = lumos_common::rng::Xoshiro256pp::seed_from_u64(13);
        let x = store.add("x", Tensor::rand_uniform(5, 2, -1.0, 1.0, &mut rng));
        let seg = Rc::new(vec![0u32, 0, 1, 1, 1]);
        let weight = Tensor::rand_uniform(5, 2, 0.1, 1.0, &mut rng);

        let eval = |store: &ParamStore| -> f32 {
            let mut t = Tape::new();
            let xv = t.param(store, x);
            let sm = t.segment_softmax(xv, seg.clone(), 2);
            let wv = t.constant(weight.clone());
            let weighted = t.mul(sm, wv);
            let l = t.sum_all(weighted);
            t.value(l).item()
        };

        let mut t = Tape::new();
        let xv = t.param(&store, x);
        let sm = t.segment_softmax(xv, seg.clone(), 2);
        let wv = t.constant(weight.clone());
        let weighted = t.mul(sm, wv);
        let l = t.sum_all(weighted);
        let grads = t.backward(l);
        store.zero_grad();
        t.accumulate_param_grads(&grads, &mut store);
        let numeric = crate::gradcheck::numeric_grad(&mut store, x, &eval, 1e-3);
        assert!(
            store.get(x).grad.max_abs_diff(&numeric) < 1e-2,
            "{:?} vs {numeric:?}",
            store.get(x).grad
        );
    }

    #[test]
    fn nll_loss_gradients_match_finite_difference() {
        let mut store = ParamStore::new();
        let mut rng = lumos_common::rng::Xoshiro256pp::seed_from_u64(17);
        let x = store.add("x", Tensor::rand_uniform(4, 3, -1.0, 1.0, &mut rng));
        let targets = Rc::new(vec![0u32, 2, 1, 2]);
        let mask = Rc::new(vec![1.0f32, 1.0, 0.0, 1.0]);

        let eval = |store: &ParamStore| -> f32 {
            let mut t = Tape::new();
            let xv = t.param(store, x);
            let lp = t.log_softmax_rows(xv);
            let l = t.nll_masked(lp, targets.clone(), mask.clone());
            t.value(l).item()
        };

        let mut t = Tape::new();
        let xv = t.param(&store, x);
        let lp = t.log_softmax_rows(xv);
        let l = t.nll_masked(lp, targets.clone(), mask.clone());
        let grads = t.backward(l);
        store.zero_grad();
        t.accumulate_param_grads(&grads, &mut store);
        let numeric = crate::gradcheck::numeric_grad(&mut store, x, &eval, 1e-3);
        assert!(store.get(x).grad.max_abs_diff(&numeric) < 1e-2);
    }

    #[test]
    fn bce_with_logits_gradients_match_finite_difference() {
        let mut store = ParamStore::new();
        let mut rng = lumos_common::rng::Xoshiro256pp::seed_from_u64(19);
        let z = store.add("z", Tensor::rand_uniform(6, 1, -2.0, 2.0, &mut rng));
        let targets = Rc::new(vec![1.0f32, 0.0, 1.0, 1.0, 0.0, 0.0]);

        let eval = |store: &ParamStore| -> f32 {
            let mut t = Tape::new();
            let zv = t.param(store, z);
            let l = t.bce_with_logits_mean(zv, targets.clone());
            t.value(l).item()
        };

        let mut t = Tape::new();
        let zv = t.param(&store, z);
        let l = t.bce_with_logits_mean(zv, targets.clone());
        let grads = t.backward(l);
        store.zero_grad();
        t.accumulate_param_grads(&grads, &mut store);
        let numeric = crate::gradcheck::numeric_grad(&mut store, z, &eval, 1e-3);
        assert!(store.get(z).grad.max_abs_diff(&numeric) < 1e-2);
    }

    #[test]
    fn concat_cols_routes_gradients_to_parts() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::from_vec(2, 1, vec![1.0, 2.0]));
        let b = store.add("b", Tensor::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]));
        let mut t = Tape::new();
        let av = t.param(&store, a);
        let bv = t.param(&store, b);
        let cat = t.concat_cols(&[av, bv]);
        let mask = t.constant(Tensor::from_vec(2, 3, vec![1., 0., 2., 0., 3., 0.]));
        let m = t.mul(cat, mask);
        let l = t.sum_all(m);
        let grads = t.backward(l);
        t.accumulate_param_grads(&grads, &mut store);
        assert_eq!(store.get(a).grad.data(), &[1.0, 0.0]);
        assert_eq!(store.get(b).grad.data(), &[0.0, 2.0, 3.0, 0.0]);
    }

    #[test]
    fn mul_col_broadcast_gradients_match_finite_difference() {
        let mut store = ParamStore::new();
        let mut rng = lumos_common::rng::Xoshiro256pp::seed_from_u64(23);
        let a = store.add("a", Tensor::rand_uniform(3, 4, -1.0, 1.0, &mut rng));
        let c = store.add("c", Tensor::rand_uniform(3, 1, -1.0, 1.0, &mut rng));

        let eval = |store: &ParamStore| -> f32 {
            let mut t = Tape::new();
            let av = t.param(store, a);
            let cv = t.param(store, c);
            let m = t.mul_col_broadcast(av, cv);
            let s = t.sigmoid(m);
            let l = t.mean_all(s);
            t.value(l).item()
        };

        let mut t = Tape::new();
        let av = t.param(&store, a);
        let cv = t.param(&store, c);
        let m = t.mul_col_broadcast(av, cv);
        let s = t.sigmoid(m);
        let l = t.mean_all(s);
        let grads = t.backward(l);
        store.zero_grad();
        t.accumulate_param_grads(&grads, &mut store);
        let na = crate::gradcheck::numeric_grad(&mut store, a, &eval, 1e-3);
        let nc = crate::gradcheck::numeric_grad(&mut store, c, &eval, 1e-3);
        assert!(store.get(a).grad.max_abs_diff(&na) < 1e-2);
        assert!(store.get(c).grad.max_abs_diff(&nc) < 1e-2);
    }

    #[test]
    fn dropout_backward_respects_mask() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::from_vec(1, 4, vec![1., 2., 3., 4.]));
        let mask = DropoutMask::from_kept([false, true, false, true], 0.5);
        let mut t = Tape::new();
        let av = t.param(&store, a);
        let d = t.dropout(av, mask);
        let l = t.sum_all(d);
        assert_eq!(t.value(d).data(), &[0., 4., 0., 8.]);
        let grads = t.backward(l);
        t.accumulate_param_grads(&grads, &mut store);
        assert_eq!(store.get(a).grad.data(), &[0., 2., 0., 2.]);
    }

    #[test]
    fn diamond_reuse_accumulates_gradients() {
        // loss = sum(a + a) must give da = 2.
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::from_vec(1, 2, vec![1.0, -1.0]));
        let mut t = Tape::new();
        let av = t.param(&store, a);
        let s = t.add(av, av);
        let l = t.sum_all(s);
        let grads = t.backward(l);
        t.accumulate_param_grads(&grads, &mut store);
        assert_eq!(store.get(a).grad.data(), &[2.0, 2.0]);
    }

    #[test]
    fn sub_gradient_signs() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::scalar(3.0));
        let b = store.add("b", Tensor::scalar(1.0));
        let mut t = Tape::new();
        let av = t.param(&store, a);
        let bv = t.param(&store, b);
        let d = t.sub(av, bv);
        let l = t.sum_all(d);
        let grads = t.backward(l);
        t.accumulate_param_grads(&grads, &mut store);
        assert_eq!(store.get(a).grad.item(), 1.0);
        assert_eq!(store.get(b).grad.item(), -1.0);
    }
}
