//! # noc-workloads — traffic generators and application models
//!
//! Everything the paper's evaluation throws at the NoC, reconstructed:
//!
//! * [`TrafficGen`]/[`Pattern`] — synthetic endpoint traffic (uniform,
//!   hotspot, permutation, neighbor) with read/write mixes;
//! * [`Zipf`]/[`ZipfAddressStream`] — skewed server address streams
//!   (§3.1.1);
//! * [`lmbench_kernels`] — the Figure 10 bandwidth kernels;
//! * [`SpecProfile`] + suites — analytic SPECint/SPECpower models
//!   converting measured latency into scores (Figures 12/13, Table 6);
//! * [`NnModel`] traces for ResNet-50, BERT, Wide&Deep, GPT, Mask R-CNN,
//!   YOLOv3 (Tables 3 and 8);
//! * [`Machine`] rooflines (Figure 3).

#![forbid(unsafe_code)]

pub mod lmbench;
pub mod nn;
pub mod roofline;
pub mod server_app;
pub mod spec;
pub mod synthetic;
pub mod trace;
pub mod txn;
pub mod zipf;

pub use lmbench::{lmbench_kernels, LmbenchKernel};
pub use nn::{
    bert_large, gpt, mask_rcnn, resnet50, table3_models, wide_deep, yolov3, Layer, NnModel,
};
pub use roofline::{figure3_app_points, AppPoint, Machine};
pub use server_app::{ServerApp, ServerAppParams, ServerOp};
pub use spec::{geomean_ratio, specint2006, specint2017, PowerModel, SpecProfile, SpecSuite};
pub use synthetic::{Pattern, TrafficGen, ZipfAddressStream};
pub use trace::{Trace, TraceEvent, TraceReplayer};
pub use txn::{TxnMix, TxnRequest, TxnWorkload};
pub use zipf::Zipf;
