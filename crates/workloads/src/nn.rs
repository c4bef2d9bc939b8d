//! Neural-network operator traces (paper Table 3, Table 8).
//!
//! Each model is a list of coarse layers with FLOP and byte counts per
//! training step, derived from the published layer shapes. The traces
//! drive (a) the Figure 3 roofline points, (b) the AI-processor traffic
//! mixes (read/write ratios differ per layer type), and (c) the Table 8
//! end-to-end comparisons.

use crate::roofline::Machine;
use serde::{Deserialize, Serialize};

/// One coarse network layer (or fused block).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Layer {
    /// Layer label.
    pub name: String,
    /// Compute per step in GFLOP.
    pub gflops: f64,
    /// Bytes read per step, in GB.
    pub read_gb: f64,
    /// Bytes written per step, in GB.
    pub write_gb: f64,
}

impl Layer {
    /// Total data moved, in GB.
    pub fn total_gb(&self) -> f64 {
        self.read_gb + self.write_gb
    }

    /// Arithmetic intensity in FLOP/byte.
    pub fn arithmetic_intensity(&self) -> f64 {
        self.gflops / self.total_gb()
    }

    /// Read fraction of the layer's traffic.
    pub fn read_frac(&self) -> f64 {
        self.read_gb / self.total_gb()
    }
}

/// A whole network's per-training-step trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NnModel {
    /// Model name.
    pub name: String,
    /// Application domain (Table 3).
    pub domain: &'static str,
    /// Per-step layers.
    pub layers: Vec<Layer>,
}

impl NnModel {
    /// Total compute per step in GFLOP.
    pub fn total_gflops(&self) -> f64 {
        self.layers.iter().map(|l| l.gflops).sum()
    }

    /// Total traffic per step in GB.
    pub fn total_gb(&self) -> f64 {
        self.layers.iter().map(Layer::total_gb).sum()
    }

    /// Whole-model arithmetic intensity.
    pub fn arithmetic_intensity(&self) -> f64 {
        self.total_gflops() / self.total_gb()
    }

    /// Whole-model read fraction (drives the Table 7 R/W mixes).
    pub fn read_frac(&self) -> f64 {
        self.layers.iter().map(|l| l.read_gb).sum::<f64>() / self.total_gb()
    }

    /// Step time on a machine: layers execute sequentially, each at its
    /// roofline bound.
    pub fn step_time_s(&self, machine: &Machine) -> f64 {
        self.layers
            .iter()
            .map(|l| machine.time_s(l.gflops, l.total_gb()))
            .sum()
    }
}

fn layer(name: &str, gflops: f64, read_gb: f64, write_gb: f64) -> Layer {
    Layer {
        name: name.to_string(),
        gflops,
        read_gb,
        write_gb,
    }
}

/// ResNet-50 v1.5 training step (batch 256, fwd+bwd ≈ 3× fwd FLOPs).
/// Forward is ≈ 4.1 GFLOP/image.
pub fn resnet50(batch: u32) -> NnModel {
    let b = batch as f64;
    NnModel {
        name: format!("ResNet-50 (batch {batch})"),
        domain: "Image Classification",
        layers: vec![
            layer("stem conv7x7", 0.24 * b * 3.0, 0.0017 * b, 0.0032 * b),
            layer("stage1 convs", 0.68 * b * 3.0, 0.010 * b, 0.010 * b),
            layer("stage2 convs", 1.03 * b * 3.0, 0.008 * b, 0.008 * b),
            layer("stage3 convs", 1.47 * b * 3.0, 0.007 * b, 0.006 * b),
            layer("stage4 convs", 0.66 * b * 3.0, 0.005 * b, 0.003 * b),
            layer("fc + loss", 0.004 * b * 3.0, 0.0002 * b, 0.0001 * b),
            // Weight gradients + optimizer touch all 25.6M params.
            layer("optimizer", 0.05 * b, 0.20, 0.10),
        ],
    }
}

/// BERT-large pre-training step (batch, sequence 512). Forward is
/// ≈ 2 × params ≈ 0.68 GFLOP per token with 340 M params; training is
/// ≈ 3× forward. Attention traffic includes the O(T²) score matrices,
/// which keeps part of the step bandwidth-bound.
pub fn bert_large(batch: u32, seq: u32) -> NnModel {
    let tokens = (batch * seq) as f64;
    let fwd = 0.68 * tokens; // GFLOP
                             // Activations ≈ hidden(1024) × layers(24) × ~10 tensors × 2B/token.
    let act_gb_per_token = 0.5e-3;
    // Attention scores: heads(16) × seq × 2B per token, touched ~4×.
    let score_gb_per_token = 16.0 * seq as f64 * 2.0 * 4.0 / 1e9;
    NnModel {
        name: format!("BERT-large (batch {batch}, seq {seq})"),
        domain: "NLP",
        layers: vec![
            layer(
                "embeddings",
                0.02 * fwd * 3.0,
                0.05 * act_gb_per_token * tokens,
                0.05 * act_gb_per_token * tokens,
            ),
            layer(
                "attention",
                0.38 * fwd * 3.0,
                (0.45 * act_gb_per_token + score_gb_per_token) * tokens,
                (0.35 * act_gb_per_token + score_gb_per_token * 0.5) * tokens,
            ),
            layer(
                "ffn",
                0.58 * fwd * 3.0,
                0.45 * act_gb_per_token * tokens,
                0.45 * act_gb_per_token * tokens,
            ),
            layer(
                "mlm head",
                0.02 * fwd * 3.0,
                0.02 * act_gb_per_token * tokens,
                0.01 * act_gb_per_token * tokens,
            ),
            layer("optimizer", 0.7, 2.7, 1.4), // 340M params fp16 + states
        ],
    }
}

/// Wide & Deep recommendation step: embedding-lookup dominated, very
/// low arithmetic intensity.
pub fn wide_deep(batch: u32) -> NnModel {
    let b = batch as f64;
    NnModel {
        name: format!("Wide & Deep (batch {batch})"),
        domain: "Recommendation",
        layers: vec![
            layer("embedding gather", 0.0005 * b, 0.004 * b, 0.0002 * b),
            layer("mlp", 0.002 * b * 3.0, 0.0004 * b, 0.0004 * b),
            layer("optimizer (sparse)", 0.001 * b, 0.008 * b, 0.008 * b),
        ],
    }
}

/// A GPT-style decoder training step (params in billions, batch in
/// tokens). FLOPs/token ≈ 6 × params.
pub fn gpt(params_b: f64, batch_tokens: u32) -> NnModel {
    let tokens = batch_tokens as f64;
    let gflops = 6.0 * params_b * tokens; // 6·P FLOP/token, P in 1e9 → GFLOP
    NnModel {
        name: format!("GPT ({params_b}B params)"),
        domain: "NLP",
        layers: vec![
            layer(
                "attention blocks",
                gflops * 0.35,
                0.002 * tokens,
                0.002 * tokens,
            ),
            layer("mlp blocks", gflops * 0.6, 0.0015 * tokens, 0.0015 * tokens),
            layer("optimizer", params_b, params_b * 8.0, params_b * 4.0),
        ],
    }
}

/// Mask R-CNN training step (batch in images).
pub fn mask_rcnn(batch: u32) -> NnModel {
    let b = batch as f64;
    NnModel {
        name: format!("Mask R-CNN (batch {batch})"),
        domain: "Detection/Segmentation",
        layers: vec![
            layer("backbone (R50-FPN)", 12.0 * b * 3.0, 0.04 * b, 0.04 * b),
            layer("rpn + roi heads", 6.0 * b * 3.0, 0.03 * b, 0.02 * b),
            layer("mask head", 3.0 * b * 3.0, 0.01 * b, 0.01 * b),
            layer("optimizer", 0.09 * b, 0.35, 0.18),
        ],
    }
}

/// YOLOv3 inference (batch in images) — the paper's tiny-inference
/// example (swing face detection).
pub fn yolov3(batch: u32) -> NnModel {
    let b = batch as f64;
    NnModel {
        name: format!("YOLOv3 (batch {batch}, inference)"),
        domain: "Detection",
        layers: vec![
            layer("darknet-53", 50.0 * b, 0.12 * b, 0.10 * b),
            layer("detection heads", 15.0 * b, 0.05 * b, 0.04 * b),
        ],
    }
}

/// The Table 3 model zoo at representative batch sizes.
pub fn table3_models() -> Vec<NnModel> {
    vec![
        resnet50(256),
        bert_large(32, 512),
        wide_deep(4096),
        gpt(175.0, 2048),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet_flops_scale_with_batch() {
        let a = resnet50(64);
        let b = resnet50(256);
        let ratio = b.total_gflops() / a.total_gflops();
        assert!((3.5..4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn resnet_training_flops_plausible() {
        // ≈ 4.1 GFLOP fwd × 3 × 256 ≈ 3150 GFLOP per step.
        let m = resnet50(256);
        let g = m.total_gflops();
        assert!((2000.0..5000.0).contains(&g), "GFLOP {g}");
    }

    #[test]
    fn conv_nets_have_higher_intensity_than_recsys() {
        let rn = resnet50(256);
        let wd = wide_deep(4096);
        assert!(
            rn.arithmetic_intensity() > 10.0 * wd.arithmetic_intensity(),
            "resnet {} vs wide&deep {}",
            rn.arithmetic_intensity(),
            wd.arithmetic_intensity()
        );
    }

    #[test]
    fn gpt_is_compute_heavy() {
        let g = gpt(175.0, 2048);
        assert!(
            g.total_gflops() > 1e6,
            "175B @ 2048 tokens is petaFLOP-scale"
        );
        assert!(g.arithmetic_intensity() > 50.0);
    }

    #[test]
    fn read_frac_in_unit_interval() {
        for m in table3_models() {
            let f = m.read_frac();
            assert!((0.0..=1.0).contains(&f), "{}: {f}", m.name);
        }
    }

    #[test]
    fn step_time_decreases_on_faster_machine() {
        let slow = Machine::new("slow", 100.0, 1.0);
        let fast = Machine::new("fast", 300.0, 3.0);
        for m in table3_models() {
            assert!(m.step_time_s(&fast) < m.step_time_s(&slow), "{}", m.name);
        }
    }
}
