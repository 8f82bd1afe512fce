//! Whole-model end-to-end measurement harness — the §6 setting behind the
//! `e2e_model` driver binary and the `e2e_model` section of
//! `bench_m2xfp_json`.
//!
//! Builds a scaled synthetic LLaMA3-8B stack through
//! [`m2x_nn::model::ModelBuilder`], times offline quantization, batched
//! forward throughput on the packed and grouped backends (verifying bit
//! equality), the prefill→decode serving loop, and measures per-layer +
//! whole-model NRMSE against the f32 reference path. The JSON it renders is
//! array-free so `ci_perf_gate`'s flattener can gate every field.

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

fn time_best<O>(reps: usize, mut f: impl FnMut() -> O) -> (f64, O) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        out = Some(black_box(f()));
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, out.expect("reps >= 1"))
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
    let backends_exact = y_packed
        .as_slice()
        .iter()
        .zip(y_grouped.as_slice())
        .all(|(a, b)| a.to_bits() == b.to_bits());

    // Serving loop: prefill half the batch, then single-token decodes on
    // the decode-on-append KV path (each step grows the prepared K plane
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
    /// Renders the report as a JSON object (no arrays — `ci_perf_gate`'s
    /// flattener reads every numeric/bool field). Per-layer errors become
    /// `per_layer.layer_<i>` keys.
    pub fn to_json(&self) -> String {
        let per_layer = self
            .per_layer_nmse
            .iter()
            .enumerate()
            .map(|(i, e)| format!("    \"layer_{i}\": {e:.8}"))
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            r#"{{
  "bench": "e2e_model",
  "model": "LLaMA3-8B-scaled",
  "dims": {{"hidden": {h}, "layers": {l}, "tokens": {t}, "heads": {heads}, "kv_heads": {kvh}}},
  "weight_bytes": {wb},
  "quantize_s": {qs:.6},
  "forward_batch_packed_s": {fp:.6},
  "forward_batch_grouped_s": {fg:.6},
  "gmacs": {gm:.4},
  "speedup_packed": {sp:.3},
  "backends_exact": {ex},
  "decode_tokens_per_s": {dt:.2},
  "nrmse": {nr:.6},
  "per_layer": {{
{per_layer}
  }}
}}"#,
            h = self.cfg.hidden,
            l = self.cfg.layers,
            t = self.cfg.tokens,
            heads = self.heads,
            kvh = self.kv_heads,
            wb = self.weight_bytes,
            qs = self.quantize_s,
            fp = self.forward_batch_packed_s,
            fg = self.forward_batch_grouped_s,
            gm = self.gmacs,
            sp = self.speedup_packed,
            ex = self.backends_exact,
            dt = self.decode_tokens_per_s,
            nr = self.nrmse,
        )
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
        let json = r.to_json();
        assert!(json.contains("\"backends_exact\": true"));
        assert!(json.contains("\"layer_1\""));
    }
}
