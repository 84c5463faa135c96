//! `lumos-gnn` — hand-rolled graph neural network layers and training
//! utilities.
//!
//! Implements the two backbones of the paper's evaluation (§VIII-B): a GCN
//! layer with symmetric normalization and a multi-head GAT layer, stacked
//! into the 2-layer/16-dim encoder, plus the classification and link
//! decoders (§VI-C), loss functions, and the accuracy/ROC-AUC metrics of
//! Figures 3–6. Layers operate on a [`MessageGraph`] edge-index, so they
//! run unchanged on the global graph (baselines) and on Lumos's batched
//! virtual-node trees.

#![forbid(unsafe_code)]
pub mod adj;
pub mod decoder;
pub mod encoder;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod sage;

pub use adj::MessageGraph;
pub use decoder::{link_logits, LinearDecoder};
pub use encoder::{Backbone, EncoderConfig, GnnEncoder};
pub use layers::{GatLayer, GcnLayer, Layer};
pub use loss::{cross_entropy_masked, link_prediction_loss};
pub use metrics::{accuracy_masked, roc_auc};
pub use sage::SageLayer;
