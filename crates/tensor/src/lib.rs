//! `lumos-tensor` — a dense tensor and reverse-mode autodiff engine.
//!
//! The Lumos paper's GNN trainer (its §VI) needs hand-rolled GCN/GAT layers
//! over tree-structured graphs. This crate provides the minimal but complete
//! machinery: a row-major 2-D [`Tensor`], sparse-access kernels (gather /
//! scatter-add / their fused propagate / segment softmax), register-tiled
//! dense products whose left operand may be any [`RowOperand`] (a constant
//! read row by row, never materialised), a transparent [`Tape`]-based
//! autograd with an explicit op enum, trainable [`ParamStore`], and the
//! [`Adam`] optimizer. [`gradcheck`] exposes finite-difference checking so every
//! downstream layer can be verified numerically.
//!
//! # Example
//!
//! ```
//! use lumos_tensor::{Tensor, Tape, ParamStore, Adam};
//!
//! let mut store = ParamStore::new();
//! let w = store.add("w", Tensor::scalar(0.0));
//! let mut opt = Adam::new(0.1);
//! let target = Tensor::scalar(2.0);
//! let mut tape = Tape::new();
//! for _ in 0..200 {
//!     store.zero_grad();
//!     tape = tape.reset(); // one tape, its buffers recycled every step
//!     let wv = tape.param(&store, w);
//!     let target = tape.constant_ref(&target);
//!     let diff = tape.sub(wv, target);
//!     let loss = tape.mul(diff, diff);
//!     let loss = tape.sum_all(loss);
//!     let grads = tape.backward(loss);
//!     tape.accumulate_param_grads(&grads, &mut store);
//!     opt.step(&mut store);
//! }
//! assert!((store.value(w).item() - 2.0).abs() < 1e-2);
//! ```

#![forbid(unsafe_code)]
pub mod gradcheck;
pub mod kernels;
mod matmul;
pub mod nn;
pub mod optim;
pub mod param;
pub mod tape;
pub mod tensor;

pub use matmul::RowOperand;
pub use optim::Adam;
pub use param::{Param, ParamId, ParamStore};
pub use tape::{Gradients, Tape, VarId};
pub use tensor::{matmul_rows, matmul_tn_rows, Tensor};
