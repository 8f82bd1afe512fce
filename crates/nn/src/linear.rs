//! A ready-to-use quantized linear layer — the API a downstream user would
//! deploy: weights held in the packed M2XFP representation, prepared once
//! into an execution form ([`PreparedWeights`]) that runs its own kernel on
//! every forward pass.
//!
//! The default form is [`BackendKind::Packed`] (the LUT/cache-blocked hot
//! path); [`QuantizedLinear::with_backend`] swaps in the grouped PE model,
//! whose outputs are bit-identical.

use m2x_tensor::Matrix;
use m2xfp::backend::{BackendKind, PreparedWeights};
use m2xfp::format::{PackedWeightTensor, WeightTensor};
use m2xfp::{Error, M2xfpConfig};

/// Error constructing or applying a [`QuantizedLinear`] — an alias of the
/// engine-wide [`m2xfp::Error`], kept so pre-unification call sites keep
/// compiling.
pub type LinearError = Error;

/// A linear layer `y = x·Wᵀ` with M2XFP-quantized weights.
///
/// ```
/// use m2x_nn::linear::QuantizedLinear;
/// use m2x_tensor::Matrix;
/// use m2xfp::gemm::GemmScratch;
/// use m2xfp::M2xfpConfig;
///
/// // W: 8 output features, 64 inputs (stored transposed, [out, in]).
/// let w = Matrix::from_fn(8, 64, |r, c| ((r * 64 + c) as f32 * 0.1).sin());
/// let layer = QuantizedLinear::from_weights(&w, M2xfpConfig::default())?;
/// let x = Matrix::from_fn(4, 64, |r, c| ((r + c) as f32 * 0.2).cos());
/// let y = layer.forward_scratch(&x, &mut GemmScratch::new())?;
/// assert_eq!((y.rows(), y.cols()), (4, 8));
/// # Ok::<(), m2xfp::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedLinear {
    /// Weights prepared once for the chosen form (the packed form keeps
    /// just the canonical three-stream bits, which its kernel reads in
    /// place), shared by every [`Self::forward_scratch`] call.
    prepared: PreparedWeights,
}

impl QuantizedLinear {
    /// Quantizes a transposed weight matrix `[out_features, in_features]`
    /// for the production [`BackendKind::Packed`] engine.
    ///
    /// # Errors
    ///
    /// Fails when `in_features` is not a multiple of the group size (the
    /// hardware layout requires aligned rows).
    pub fn from_weights(w_t: &Matrix, cfg: M2xfpConfig) -> Result<Self, Error> {
        Self::with_backend(w_t, cfg, BackendKind::Packed)
    }

    /// [`Self::from_weights`] on an explicit execution form. Both forms
    /// produce bit-identical forwards from the same weights.
    ///
    /// # Errors
    ///
    /// Fails when `in_features` is not a multiple of the group size.
    pub fn with_backend(
        w_t: &Matrix,
        cfg: M2xfpConfig,
        backend: BackendKind,
    ) -> Result<Self, Error> {
        if w_t.cols() % cfg.group_size != 0 {
            return Err(Error::Misaligned {
                tensor: "linear weights".to_string(),
                len: w_t.cols(),
                group_size: cfg.group_size,
            });
        }
        // The threaded integer-LUT Sg-EM search — layer construction is the
        // offline weight-quantization moment, the path the paper's §6
        // end-to-end setting exercises per layer — followed by the
        // one-time decode into the execution form.
        let packed = PackedWeightTensor::quantize_parallel(w_t, cfg);
        let prepared = backend.prepare(packed);
        Ok(QuantizedLinear { prepared })
    }

    /// The execution form this layer runs on.
    pub fn backend(&self) -> BackendKind {
        self.prepared.kind()
    }

    /// The configuration the weights were quantized with.
    pub fn config(&self) -> &M2xfpConfig {
        self.prepared.config()
    }

    /// Output features.
    pub fn out_features(&self) -> usize {
        self.prepared.shape().0
    }

    /// Input features.
    pub fn in_features(&self) -> usize {
        self.prepared.shape().1
    }

    /// The grouped weight representation, reconstructed from the packed
    /// streams.
    pub fn weights(&self) -> WeightTensor {
        self.prepared.packed().to_grouped()
    }

    /// The three-stream packed weight representation.
    pub fn packed_weights(&self) -> &PackedWeightTensor {
        self.prepared.packed()
    }

    /// W4A4 forward pass through the layer's execution form: quantizes `x`
    /// online (Elem-EM-top1) and runs the bit-exact PE GEMM against the
    /// prepared weights. The caller-held [`GemmScratch`](m2xfp::gemm::GemmScratch)
    /// holds the decoded activations and is reused across calls instead of
    /// allocated fresh; its state never changes the output bits.
    ///
    /// # Errors
    ///
    /// Fails on an input width mismatch.
    pub fn forward_scratch(
        &self,
        x: &Matrix,
        scratch: &mut m2xfp::gemm::GemmScratch,
    ) -> Result<Matrix, Error> {
        self.prepared.forward_scratch(x, scratch)
    }

    /// Serializes the weights to the paper's three-stream byte layout.
    ///
    /// # Errors
    ///
    /// Propagates the packing layout error.
    pub fn pack_weights(&self) -> Result<Vec<u8>, Error> {
        self.weights().pack()
    }

    /// Storage footprint of the packed weights in bytes.
    pub fn weight_bytes(&self) -> usize {
        let (n, k) = self.prepared.shape();
        let cfg = self.config();
        let groups = n * k / cfg.group_size;
        groups * (cfg.group_size / 2 + 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m2x_tensor::stats::nmse;
    use m2x_tensor::Xoshiro;
    use m2xfp::format::ActTensor;
    use m2xfp::gemm::{qgemm_reference, GemmScratch};

    fn layer(out: usize, inp: usize, seed: u64) -> QuantizedLinear {
        let mut r = Xoshiro::seed(seed);
        let w = Matrix::from_fn(out, inp, |_, _| r.laplace(0.5));
        QuantizedLinear::from_weights(&w, M2xfpConfig::default()).unwrap()
    }

    #[test]
    fn forward_tracks_full_precision() {
        let mut r = Xoshiro::seed(1);
        let w = Matrix::from_fn(16, 128, |_, _| r.laplace(0.5));
        let x = Matrix::from_fn(6, 128, |_, _| r.laplace(1.0));
        let l = QuantizedLinear::from_weights(&w, M2xfpConfig::default()).unwrap();
        let y_ref = x.matmul(&w.transpose());
        let y = l.forward_scratch(&x, &mut GemmScratch::new()).unwrap();
        let e = nmse(y_ref.as_slice(), y.as_slice());
        assert!(e > 0.0 && e < 0.05, "nmse {e}");
    }

    #[test]
    fn every_backend_layer_is_bit_identical() {
        let mut r = Xoshiro::seed(11);
        let w = Matrix::from_fn(12, 64, |_, _| r.laplace(0.5));
        let x = Matrix::from_fn(5, 64, |_, _| r.laplace(1.0));
        let cfg = M2xfpConfig::default();
        let mut scratch = GemmScratch::new();
        let packed = PackedWeightTensor::quantize_parallel(&w, cfg);
        let want = qgemm_reference(&ActTensor::quantize(&x, cfg), &packed.to_grouped());
        for k in BackendKind::ALL {
            let l = QuantizedLinear::with_backend(&w, cfg, k).unwrap();
            assert_eq!(l.backend(), k);
            let got = l.forward_scratch(&x, &mut scratch).unwrap();
            for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{k:?}");
            }
        }
    }

    #[test]
    fn shape_errors_reported() {
        let l = layer(8, 64, 3);
        let bad = Matrix::zeros(2, 65);
        assert!(l.forward_scratch(&bad, &mut GemmScratch::new()).is_err());
        let w_bad = Matrix::zeros(8, 65);
        let err = QuantizedLinear::from_weights(&w_bad, M2xfpConfig::default()).unwrap_err();
        assert!(err.to_string().contains("linear weights"), "{err}");
    }

    #[test]
    fn weight_footprint_is_4_5_bits() {
        let l = layer(8, 64, 4);
        let bits = l.weight_bytes() as f64 * 8.0 / (8.0 * 64.0);
        assert!((bits - 4.5).abs() < 1e-12);
        assert_eq!(l.pack_weights().unwrap().len(), l.weight_bytes());
    }

    #[test]
    fn accessors() {
        let l = layer(8, 64, 5);
        assert_eq!(l.out_features(), 8);
        assert_eq!(l.in_features(), 64);
        assert_eq!(l.backend(), BackendKind::Packed);
    }
}
