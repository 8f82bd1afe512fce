//! Whole-model end-to-end measurement harness — the §6 setting behind the
//! `e2e_model` section of `bench_m2xfp_json`.
//!
//! Builds a scaled synthetic LLaMA3-8B stack through
//! [`m2x_nn::model::ModelBuilder`], times offline quantization, batched
//! forward throughput on the packed and grouped backends (verifying bit
//! equality), the prefill→decode serving loop, and measures per-layer +
//! whole-model NRMSE against the f32 reference path.

use crate::measure::{bits_eq, time_best};
use crate::report::Json;
use m2x_nn::model::{ModelBuilder, QuantizedModel};
use m2x_nn::profile::ModelProfile;
use m2x_nn::synth::activation_matrix;
use m2x_tensor::stats::nmse;
use m2x_tensor::Matrix;
use m2xfp::backend::BackendKind;
use std::hint::black_box;
use std::time::Instant;

/// Dimensions and measurement knobs of one end-to-end run.
#[derive(Debug, Clone, Copy)]
pub struct E2eConfig {
    /// Hidden (residual stream) dimension.
    pub hidden: usize,
    /// Transformer layer count.
    pub layers: usize,
    /// Prefill batch size in tokens.
    pub tokens: usize,
    /// Decode steps timed after a half-batch prefill.
    pub decode_steps: usize,
    /// Measurement repetitions (best-of is reported).
    pub reps: usize,
}

impl E2eConfig {
    /// The fixed small configuration embedded in `bench_m2xfp_json` (and
    /// gated by CI): big enough to exercise every engine layer, small
    /// enough for a shared runner.
    pub fn ci() -> Self {
        E2eConfig {
            hidden: 128,
            layers: 2,
            tokens: 16,
            decode_steps: 4,
            reps: 3,
        }
    }
}

/// Measured results of one end-to-end run.
#[derive(Debug, Clone)]
pub struct E2eReport {
    /// Configuration measured.
    pub cfg: E2eConfig,
    /// Attention heads / KV heads / MLP width of the scaled model.
    pub heads: usize,
    /// KV heads.
    pub kv_heads: usize,
    /// MLP intermediate width.
    pub intermediate: usize,
    /// Packed weight footprint (bytes).
    pub weight_bytes: usize,
    /// Offline build: synthesize + Sg-EM quantize + backend prepare, all
    /// layers (seconds).
    pub quantize_s: f64,
    /// Best-of-reps batched forward on the packed backend (seconds).
    pub forward_batch_packed_s: f64,
    /// Best-of-reps batched forward on the grouped backend (seconds).
    pub forward_batch_grouped_s: f64,
    /// Whole-model throughput of the packed batched forward (GMAC/s).
    pub gmacs: f64,
    /// Hardware-normalized whole-model ratio grouped/packed.
    pub speedup_packed: f64,
    /// Packed and grouped backends produced bit-identical batch outputs.
    pub backends_exact: bool,
    /// Decode throughput after a half-batch prefill (tokens/s).
    pub decode_tokens_per_s: f64,
    /// Whole-model output NRMSE vs the f32 reference.
    pub nrmse: f64,
    /// Per-layer residual-stream NMSE vs the f32 reference (quantized
    /// trace vs reference trace, cumulative through the stack).
    pub per_layer_nmse: Vec<f64>,
}

/// Token embeddings for the run: profile-calibrated activations squashed
/// into an embedding-like range so deep stacks stay well-conditioned.
pub fn token_embeddings(profile: &ModelProfile, tokens: usize, hidden: usize) -> Matrix {
    activation_matrix(profile, 0, tokens, hidden).map(|v| (v * 0.25).tanh())
}

fn build(profile: &ModelProfile, cfg: &E2eConfig, backend: BackendKind) -> QuantizedModel {
    ModelBuilder::scaled(profile, cfg.hidden, cfg.layers)
        .backend(backend)
        .keep_reference(backend == BackendKind::Packed)
        .build()
        .expect("scaled dimensions are group-aligned")
}

/// Runs the full measurement. Deterministic given the configuration.
pub fn run(cfg: E2eConfig) -> E2eReport {
    let profile = ModelProfile::llama3_8b();
    let x = token_embeddings(&profile, cfg.tokens, cfg.hidden);

    let (quantize_s, mut model) =
        time_best(cfg.reps, || build(&profile, &cfg, BackendKind::Packed));
    let (forward_batch_packed_s, y_packed) =
        time_best(cfg.reps, || model.forward_batch(&x).expect("aligned"));

    let mut grouped = build(&profile, &cfg, BackendKind::Grouped);
    let (forward_batch_grouped_s, y_grouped) =
        time_best(cfg.reps, || grouped.forward_batch(&x).expect("aligned"));
    let backends_exact = bits_eq(&y_packed, &y_grouped);

    // Serving loop: prefill half the batch, then single-token decodes on
    // the append-only KV path (each step grows the prepared K streams
    // and cached V rows incrementally — O(1) per head per step).
    let prefill_rows = (cfg.tokens / 2).max(1);
    let decode_s = {
        model.reset();
        let head = Matrix::from_fn(prefill_rows, cfg.hidden, |r, c| x[(r, c)]);
        model.prefill(&head).expect("aligned");
        let xt = Matrix::from_fn(1, cfg.hidden, |_, c| x[(prefill_rows.min(x.rows() - 1), c)]);
        let t0 = Instant::now();
        for _ in 0..cfg.decode_steps {
            black_box(model.decode(&xt).expect("aligned"));
        }
        t0.elapsed().as_secs_f64()
    };

    // Accuracy: quantized vs f32 reference, per layer and end to end.
    let (y_q, trace_q) = {
        model.reset();
        model.forward_batch_traced(&x).expect("aligned")
    };
    let (y_ref, trace_ref) = model.reference_traced(&x).expect("reference kept");
    let per_layer_nmse: Vec<f64> = trace_q
        .iter()
        .zip(&trace_ref)
        .map(|(a, b)| nmse(b.as_slice(), a.as_slice()))
        .collect();
    let nrmse = nmse(y_ref.as_slice(), y_q.as_slice()).sqrt();

    let macs = model.forward_macs(cfg.tokens, 0) as f64;
    E2eReport {
        cfg,
        heads: model.heads(),
        kv_heads: model.kv_heads(),
        intermediate: model.intermediate(),
        weight_bytes: model.weight_bytes(),
        quantize_s,
        forward_batch_packed_s,
        forward_batch_grouped_s,
        gmacs: macs / forward_batch_packed_s / 1e9,
        speedup_packed: forward_batch_grouped_s / forward_batch_packed_s,
        backends_exact,
        decode_tokens_per_s: cfg.decode_steps as f64 / decode_s,
        nrmse,
        per_layer_nmse,
    }
}

impl E2eReport {
    /// The `e2e_model` section: dims flat, per-layer errors as
    /// `per_layer.layer_<i>`.
    pub fn to_json(&self) -> Json {
        let per_layer = self
            .per_layer_nmse
            .iter()
            .enumerate()
            .fold(Json::new(), |j, (i, e)| j.num(&format!("layer_{i}"), *e, 8));
        Json::new()
            .int("hidden", self.cfg.hidden)
            .int("layers", self.cfg.layers)
            .int("tokens", self.cfg.tokens)
            .int("decode_steps", self.cfg.decode_steps)
            .int("heads", self.heads)
            .int("kv_heads", self.kv_heads)
            .int("weight_bytes", self.weight_bytes)
            .num("quantize_s", self.quantize_s, 6)
            .num("forward_batch_packed_s", self.forward_batch_packed_s, 6)
            .num("forward_batch_grouped_s", self.forward_batch_grouped_s, 6)
            .num("gmacs", self.gmacs, 4)
            .num("speedup_packed", self.speedup_packed, 3)
            .flag("backends_exact", self.backends_exact)
            .num("decode_tokens_per_s", self.decode_tokens_per_s, 2)
            .num("nrmse", self.nrmse, 6)
            .obj("per_layer", per_layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_run_is_exact_and_accurate() {
        let mut cfg = E2eConfig::ci();
        cfg.hidden = 64;
        cfg.tokens = 6;
        cfg.reps = 1;
        cfg.decode_steps = 2;
        let r = run(cfg);
        assert!(r.backends_exact, "packed and grouped diverged");
        assert!(r.nrmse > 0.0 && r.nrmse < 0.3, "nrmse {}", r.nrmse);
        assert_eq!(r.per_layer_nmse.len(), cfg.layers);
        assert!(r.gmacs > 0.0 && r.speedup_packed > 0.0);
        let json = r.to_json().render();
        assert!(json.contains("\"backends_exact\": true"));
        assert!(json.contains("\"layer_1\""));
    }
}
