//! Property-based tests on the unified engine API: execution-form
//! bit-equivalence (linear against the f64 oracle, whole model), the
//! prefill/decode session contract, and the branch-free online activation
//! encoder's bit-identity against the float-codec oracle.

use m2xfp_repro::core::activation::{quantize_group_into, quantize_group_into_reference};
use m2xfp_repro::core::backend::BackendKind;
use m2xfp_repro::core::format::{ActTensor, PackedWeightTensor};
use m2xfp_repro::core::gemm::{qgemm_reference, GemmScratch};
use m2xfp_repro::core::{M2xfpConfig, ScaleRule};
use m2xfp_repro::nn::linear::QuantizedLinear;
use m2xfp_repro::nn::model::ModelBuilder;
use m2xfp_repro::nn::profile::ModelProfile;
use m2xfp_repro::tensor::Matrix;
use m2xfp_repro::testkit::cases;

fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: shape");
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}");
    }
}

/// The packed and grouped forms produce linear forwards bit-identical to
/// the f64 oracle `qgemm_reference` on one to four rows (plus a random
/// batch), ragged reduction dims, every scale rule (cycled by case), both
/// metadata granularities (4 and 2 subgroups per group) and fixed/adaptive
/// scales.
#[test]
fn backends_bit_identical_on_linear_forwards() {
    let mut scratch = GemmScratch::new();
    cases(24, |g| {
        let cfg = M2xfpConfig {
            subgroup_size: if g.below(2) == 0 { 8 } else { 16 },
            scale_rule: ScaleRule::ALL[g.case % ScaleRule::ALL.len()],
            adaptive_weight_scale: g.below(2) == 0,
            ..M2xfpConfig::default()
        };
        // Ragged K exercises the zero-padded trailing groups of every
        // kernel (the raw prepared-weights API has no alignment
        // requirement).
        let k = 32 + g.below(70);
        let n = 1 + g.below(12);
        let scale = [0.03f32, 1.0, 40.0][g.below(3)];
        let w = {
            let mut vals = g.vec_f32(n * k, -2.0, 2.0);
            vals.iter_mut().for_each(|v| *v *= scale);
            Matrix::from_vec(n, k, vals)
        };
        let packed = PackedWeightTensor::quantize_parallel(&w, cfg);
        let prepared = BackendKind::ALL.map(|kind| kind.prepare(packed.clone()));
        for m in [1, 2, 3, 4, 1 + g.below(6)] {
            let x = Matrix::from_vec(m, k, g.vec_f32(m * k, -4.0, 4.0));
            let want = qgemm_reference(&ActTensor::quantize(&x, cfg), &packed.to_grouped());
            for p in &prepared {
                let y = p.forward_scratch(&x, &mut scratch).unwrap();
                assert_bits_eq(&want, &y, &format!("case {} m={m} {:?}", g.case, p.kind()));
            }
        }
    });
}

/// Builds one tiny model per form (same profile/config/seed) and checks
/// `forward_batch` is bit-identical across both engines, across
/// metadata granularities and scale rules — the acceptance bar for the
/// engine abstraction on a ≥4-layer synthetic model.
#[test]
fn backends_bit_identical_on_whole_model() {
    let profile = ModelProfile::llama3_8b();
    for (sg, rule) in [
        (8usize, ScaleRule::Floor),
        (16, ScaleRule::Ceil),
        (8, ScaleRule::Rtn2),
    ] {
        let cfg = M2xfpConfig {
            subgroup_size: sg,
            scale_rule: rule,
            ..M2xfpConfig::default()
        };
        let x = m2xfp_repro::nn::synth::activation_matrix(&profile, 0, 6, 64)
            .map(|v| (v * 0.25).tanh());
        let mut outs = Vec::new();
        for kind in BackendKind::ALL {
            let mut model = ModelBuilder::scaled(&profile, 64, 4)
                .config(cfg)
                .backend(kind)
                .build()
                .unwrap();
            assert_eq!(model.backend(), kind);
            assert_eq!(model.layer_count(), 4);
            outs.push(model.forward_batch(&x).unwrap());
        }
        for o in &outs[1..] {
            assert_bits_eq(&outs[0], o, &format!("model sg={sg} rule={rule:?}"));
        }
    }
}

/// Any prefill/decode split of a token stream reproduces the one-shot
/// batched forward bit for bit — the session-state contract of
/// `QuantizedModel` (KV rows quantize independently; every kernel computes
/// each output element identically).
#[test]
fn prefill_decode_split_matches_batch() {
    let profile = ModelProfile::llama3_8b();
    let total = 7usize;
    let x = m2xfp_repro::nn::synth::activation_matrix(&profile, 0, total, 64)
        .map(|v| (v * 0.25).tanh());
    let mut model = ModelBuilder::scaled(&profile, 64, 4).build().unwrap();
    let batch = model.forward_batch(&x).unwrap();
    for split in [1usize, 3, 6] {
        model.reset();
        let head = Matrix::from_fn(split, 64, |r, c| x[(r, c)]);
        let mut rows = model.prefill(&head).unwrap().into_vec();
        for t in split..total {
            let xt = Matrix::from_fn(1, 64, |_, c| x[(t, c)]);
            rows.extend(model.decode(&xt).unwrap().into_vec());
        }
        assert_eq!(model.seq_len(), total);
        let inc = Matrix::from_vec(total, 64, rows);
        assert_bits_eq(&batch, &inc, &format!("split {split}"));
    }
}

/// Layers built on different forms from the same weights expose
/// byte-identical packed streams (the canonical bits are form-free).
#[test]
fn layer_weights_canonical_across_backends() {
    cases(8, |g| {
        let cfg = M2xfpConfig::default();
        let k = 32 * (1 + g.below(3));
        let w = Matrix::from_vec(6, k, g.vec_f32(6 * k, -1.5, 1.5));
        let layers: Vec<QuantizedLinear> = BackendKind::ALL
            .iter()
            .map(|&b| QuantizedLinear::with_backend(&w, cfg, b).unwrap())
            .collect();
        for l in &layers[1..] {
            assert_eq!(
                layers[0].packed_weights(),
                l.packed_weights(),
                "case {}",
                g.case
            );
        }
    });
}

/// The branch-free online activation encoder (`fp4_encode` +
/// `fp6_mag_code`, reciprocal scaling) is bit-identical to the float-codec
/// oracle on random groups across lengths, magnitudes and scale rules.
#[test]
fn fast_activation_encode_matches_float_oracle() {
    cases(400, |g| {
        let cfg = m2xfp_repro::core::GroupConfig::new(32, [4usize, 8, 16][g.below(3)]);
        let rule = ScaleRule::ALL[g.below(5)];
        let len = 1 + g.below(32);
        let mag = [1e-30f32, 1e-3, 1.0, 1e3, 1e30][g.below(5)];
        let mut x = g.vec_f32(len, -4.0, 4.0);
        x.iter_mut().for_each(|v| *v *= mag);
        if g.below(8) == 0 {
            x[0] = 0.0; // exercise all-zero-ish groups
        }
        let nsub = cfg.subgroup_count(len);
        let (mut c1, mut m1) = (vec![0u8; len], vec![0u8; nsub]);
        let (mut c2, mut m2) = (vec![0u8; len], vec![0u8; nsub]);
        let s1 = quantize_group_into(&x, cfg, rule, &mut c1, &mut m1);
        let s2 = quantize_group_into_reference(&x, cfg, rule, &mut c2, &mut m2);
        assert_eq!(s1, s2, "case {}: scale", g.case);
        assert_eq!(c1, c2, "case {}: codes", g.case);
        assert_eq!(m1, m2, "case {}: meta", g.case);
    });
}
