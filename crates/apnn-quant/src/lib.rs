#![warn(missing_docs)]

//! # apnn-quant
//!
//! The quantization-algorithm side of the APNN-TC reproduction:
//!
//! * [`dorefa`] — DoReFa-Net weight/activation quantizers.
//! * [`mlp`] / [`mod@train`] — a manual-backprop classifier with
//!   straight-through-estimator quantization-aware training.
//! * [`data`] — a reproducible synthetic image-classification dataset
//!   (the offline substitute for ImageNet in the Table 1 accuracy
//!   experiment; see `DESIGN.md` §2 for the substitution argument).
//! * [`export`] — lowering trained QAT models onto the packed integer
//!   engine (an `apnn_nn::CompiledNet` built stage by stage), closing the
//!   loop between training-time fake quantization and the bit-serial
//!   inference kernels.

pub mod data;
pub mod dorefa;
pub mod export;
pub mod mlp;
pub mod train;

pub use data::SyntheticDataset;
pub use mlp::{Mlp, QuantScheme};
pub use train::{schedule_accuracy, train, train_model, TrainConfig, TrainResult};
