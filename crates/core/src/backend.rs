//! Execution forms — the engine behind every quantized forward pass.
//!
//! Running `y = Q_a(x) · Q_w(W)ᵀ` takes an activation encoder, a tensor
//! representation and a GEMM kernel. Weights are prepared **once** per
//! layer ([`BackendKind::prepare`]) into a [`PreparedWeights`], which
//! records its execution form and runs the matching kernel itself
//! ([`PreparedWeights::forward_scratch`]) — the prepare-once contract that
//! `m2x_nn::linear` and `m2x_nn::model` build on. Both forms consume the
//! same canonical weight bits (a [`PackedWeightTensor`] produced by the
//! threaded integer-LUT Sg-EM search) and are **bit-identical** to the f64
//! oracle [`qgemm_reference`](crate::gemm::qgemm_reference) on every input — the property tests assert
//! it:
//!
//! * [`BackendKind::Packed`] — the production hot path: branch-free packed
//!   activation encode and the threaded integer
//!   [`qgemm_packed_planed_scratch`] straight off the 4.5-bit weight
//!   streams (a [`WeightPlane`] holds them; nothing is decoded ahead).
//! * [`BackendKind::Grouped`] — the `Vec<Group>` pipeline, the readable
//!   model of the PE ([`qgemm`]); the end-to-end gates time a whole-model
//!   packed forward against it.
//!
//! ```
//! use m2x_tensor::Matrix;
//! use m2xfp::backend::BackendKind;
//! use m2xfp::format::{ActTensor, PackedWeightTensor};
//! use m2xfp::gemm::{qgemm_reference, GemmScratch};
//! use m2xfp::M2xfpConfig;
//!
//! let cfg = M2xfpConfig::default();
//! let w = Matrix::from_fn(8, 64, |r, c| ((r * 64 + c) as f32 * 0.1).sin());
//! let x = Matrix::from_fn(4, 64, |r, c| ((r + c) as f32 * 0.2).cos());
//! let packed = PackedWeightTensor::quantize_parallel(&w, cfg);
//! let want = qgemm_reference(&ActTensor::quantize(&x, cfg), &packed.to_grouped());
//! let mut scratch = GemmScratch::new();
//! for kind in BackendKind::ALL {
//!     let prepared = kind.prepare(packed.clone());
//!     // packed and grouped both equal the f64 oracle, bit for bit
//!     assert_eq!(prepared.forward_scratch(&x, &mut scratch)?, want);
//! }
//! # Ok::<(), m2xfp::Error>(())
//! ```

use crate::format::{ActTensor, PackedActTensor, PackedWeightTensor, WeightTensor};
use crate::gemm::{gemm_threads, qgemm, qgemm_packed_planed_scratch, GemmScratch, WeightPlane};
use crate::{Error, M2xfpConfig};
use m2x_tensor::Matrix;
use std::sync::Arc;

/// Selector for the two execution forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Three-stream packed pipeline (production hot path).
    Packed,
    /// Grouped `Vec<Group>` pipeline (readable PE model).
    Grouped,
}

impl BackendKind {
    /// Both forms, production first.
    pub const ALL: [BackendKind; 2] = [BackendKind::Packed, BackendKind::Grouped];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Packed => "packed",
            BackendKind::Grouped => "grouped",
        }
    }

    /// Identity. Kept only so the call `BackendKind::Packed.backend().prepare(..)`
    /// in the `servebench` harness keeps compiling; new code calls
    /// [`Self::prepare`] directly.
    pub fn backend(self) -> Self {
        self
    }

    /// Prepares quantized weights for this form: the packed form takes
    /// the streams as they are, the grouped form also rebuilds the
    /// per-group structs (O(N·K)). Do this once per layer and reuse the
    /// result across forwards.
    pub fn prepare(self, weights: PackedWeightTensor) -> PreparedWeights {
        let exec = match self {
            BackendKind::Packed => ExecForm::Plane(WeightPlane::from(weights)),
            BackendKind::Grouped => {
                let grouped = weights.to_grouped();
                ExecForm::Grouped(weights, grouped)
            }
        };
        PreparedWeights {
            inner: Arc::new(exec),
        }
    }

    /// Fake-quantizes activations (quantize + dequantize) through this
    /// form's online encoder — the form error measurement flows through.
    /// Bit-identical across forms.
    pub fn fake_quantize_activations(self, x: &Matrix, cfg: M2xfpConfig) -> Matrix {
        match self {
            BackendKind::Packed => PackedActTensor::quantize_parallel(x, cfg).dequantize(),
            BackendKind::Grouped => ActTensor::quantize(x, cfg).dequantize(),
        }
    }
}

/// A weight tensor prepared for repeated forwards: the canonical packed
/// streams, which the packed kernel reads in place (one copy, held by a
/// [`WeightPlane`]), or those streams plus the reconstructed
/// [`WeightTensor`] groups of the grouped kernel. The form picks the
/// kernel, so a forward can never be handed weights of the wrong form.
///
/// The prepared state lives behind an [`Arc`], so `Clone` is O(1) and
/// never copies it: one prepared layer can be shared across any number of
/// concurrent inference sessions or threads (`m2x_serve` builds on exactly
/// this — N sessions cost N KV caches, not N weight copies). Mutation
/// ([`Self::append_quantized`], the KV-cache growth path) is copy-on-write:
/// unshared handles mutate in place, shared ones clone first.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedWeights {
    inner: Arc<ExecForm>,
}

#[derive(Debug, Clone, PartialEq)]
enum ExecForm {
    Plane(WeightPlane),
    Grouped(PackedWeightTensor, WeightTensor),
}

impl PreparedWeights {
    /// The form these weights were prepared into.
    pub fn kind(&self) -> BackendKind {
        match *self.inner {
            ExecForm::Plane(_) => BackendKind::Packed,
            ExecForm::Grouped(..) => BackendKind::Grouped,
        }
    }

    /// Matrix shape `(rows, cols)` = `(out_features, in_features)`.
    pub fn shape(&self) -> (usize, usize) {
        self.packed().shape()
    }

    /// The configuration the weights were quantized with.
    pub fn config(&self) -> &M2xfpConfig {
        self.packed().config()
    }

    /// The canonical three-stream weight bits.
    pub fn packed(&self) -> &PackedWeightTensor {
        match &*self.inner {
            ExecForm::Plane(plane) => plane.packed(),
            ExecForm::Grouped(packed, _) => packed,
        }
    }

    /// W4A4 forward `y = Q_a(x) · Wᵀ` through this form's encoder and
    /// kernel, with a caller-held reusable [`GemmScratch`].
    ///
    /// On the packed form the activation scratch is reused across calls
    /// instead of allocated fresh — serving sessions hold one scratch and
    /// route every projection and attention score GEMM through here.
    /// Single-row inputs run the kernel inline ([`gemm_threads`] picks one
    /// worker). The grouped form ignores the scratch; both compute
    /// identical bits.
    ///
    /// # Errors
    ///
    /// Fails when `x.cols()` does not match the weights' reduction
    /// dimension.
    pub fn forward_scratch(&self, x: &Matrix, scratch: &mut GemmScratch) -> Result<Matrix, Error> {
        let (n, k) = self.shape();
        if x.cols() != k {
            return Err(Error::WidthMismatch {
                tensor: "prepared weights".to_string(),
                expected: k,
                got: x.cols(),
            });
        }
        Ok(match &*self.inner {
            ExecForm::Plane(plane) => {
                // Auto-threaded online encode; decode-sized batches stay
                // single-threaded below the work threshold.
                let xq = PackedActTensor::quantize_parallel(x, *self.config());
                qgemm_packed_planed_scratch(&xq, plane, gemm_threads(x.rows(), k, n), scratch)
            }
            ExecForm::Grouped(_, grouped) => {
                qgemm(&ActTensor::quantize(x, *self.config()), grouped)
            }
        })
    }

    /// Quantizes `rows` (Sg-EM search) and appends them below the prepared
    /// weights, updating the execution form incrementally — O(rows) per
    /// call regardless of how many rows are already prepared. This is the
    /// append path a growing KV cache rides: the appended rows quantize
    /// independently, so the result is bit-identical to re-preparing the
    /// row-concatenated tensor (pinned by tests).
    ///
    /// # Errors
    ///
    /// Fails on a width mismatch.
    pub fn append_rows(&mut self, rows: &Matrix) -> Result<(), Error> {
        let delta = PackedWeightTensor::quantize_parallel(rows, *self.config());
        self.append_quantized(delta)
    }

    /// Appends already-quantized rows below the prepared tensor, updating
    /// the execution form **incrementally** — O(delta), never a rebuild of
    /// the existing rows (the streams grow by the delta's bytes, the
    /// grouped form also appends groups). Bit-identical to re-preparing
    /// the row-concatenated tensor, which the tests pin. Copy-on-write
    /// when the handle is shared.
    ///
    /// # Errors
    ///
    /// Fails on a width or configuration mismatch.
    pub fn append_quantized(&mut self, delta: PackedWeightTensor) -> Result<(), Error> {
        if delta.shape().1 != self.shape().1 {
            return Err(Error::WidthMismatch {
                tensor: "prepared weights".to_string(),
                expected: self.shape().1,
                got: delta.shape().1,
            });
        }
        if delta.config() != self.config() {
            return Err(Error::config(
                "appended rows were quantized with a different config",
            ));
        }
        match Arc::make_mut(&mut self.inner) {
            ExecForm::Plane(plane) => plane.append(&delta),
            ExecForm::Grouped(packed, grouped) => {
                grouped.append_tensor(delta.to_grouped());
                packed.append_packed(&delta)
            }
        }
    }

    /// Drops all rows while keeping the allocations when the handle is
    /// unshared — the KV page-frame recycling path: a recycled frame
    /// compares equal to a freshly prepared empty tensor of the same
    /// width, so page reuse leaves no trace of the previous occupant. A
    /// shared handle (outstanding clones or weak refs) cannot be truncated
    /// in place and is replaced by a fresh empty preparation instead.
    pub fn clear_rows(&mut self) {
        if let Some(inner) = Arc::get_mut(&mut self.inner) {
            match inner {
                ExecForm::Plane(plane) => plane.clear_rows(),
                ExecForm::Grouped(packed, grouped) => {
                    packed.clear_rows();
                    grouped.clear_rows();
                }
            }
        } else {
            let empty = PackedWeightTensor::empty(self.shape().1, *self.config());
            *self = self.kind().prepare(empty);
        }
    }

    /// Heap bytes held on top of the canonical packed streams: 0 for the
    /// packed form (its kernel reads the streams in place), the
    /// reconstructed groups for the grouped one.
    pub fn decoded_bytes(&self) -> usize {
        match &*self.inner {
            ExecForm::Plane(_) => 0,
            ExecForm::Grouped(_, grouped) => grouped
                .groups()
                .iter()
                .map(|g| {
                    g.codes.len()
                        + g.sg_em.len()
                        + std::mem::size_of::<crate::weight::WeightGroup>()
                })
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::qgemm_reference;

    fn mat(rows: usize, cols: usize, seed: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let t = (r * cols + c) as f32 + seed;
            (t * 0.713).sin() * 2.5 + (t * 0.137).cos() * 0.5
        })
    }

    /// A forward through a fresh scratch.
    fn forward(x: &Matrix, w: &PreparedWeights) -> Result<Matrix, Error> {
        w.forward_scratch(x, &mut GemmScratch::new())
    }

    /// The f64 oracle on the same operands.
    fn oracle(x: &Matrix, w: &PackedWeightTensor) -> Matrix {
        qgemm_reference(&ActTensor::quantize(x, *w.config()), &w.to_grouped())
    }

    fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}");
        for (p, q) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(p.to_bits(), q.to_bits(), "{what}");
        }
    }

    #[test]
    fn backends_bit_identical_including_ragged() {
        let cfg = M2xfpConfig::default();
        for cols in [64usize, 96, 80, 41] {
            let w = PackedWeightTensor::quantize_parallel(&mat(7, cols, 9.0), cfg);
            let x = mat(5, cols, 1.0);
            let want = oracle(&x, &w);
            for kind in BackendKind::ALL {
                let prepared = kind.prepare(w.clone());
                assert_eq!(prepared.kind(), kind);
                assert_eq!(prepared.shape(), (7, cols));
                let got = forward(&x, &prepared).unwrap();
                assert_bits_eq(&got, &want, &format!("{kind:?} cols={cols}"));
            }
        }
    }

    #[test]
    fn forward_scratch_matches_reference_bitwise() {
        // The scratch-reusing forward equals the f64 oracle on every
        // form — one row (the decode shape), a few rows and ragged K —
        // with one scratch reused across shapes and forms.
        let cfg = M2xfpConfig::default();
        let mut scratch = GemmScratch::new();
        for cols in [96usize, 80] {
            let w = PackedWeightTensor::quantize_parallel(&mat(7, cols, 9.0), cfg);
            for kind in BackendKind::ALL {
                let prepared = kind.prepare(w.clone());
                for rows in [1usize, 2, 3, 4] {
                    let x = mat(rows, cols, 2.0);
                    let got = prepared.forward_scratch(&x, &mut scratch).unwrap();
                    assert_eq!(got, oracle(&x, &w), "{kind:?} rows={rows} cols={cols}");
                }
            }
        }
    }

    #[test]
    fn scratch_reused_after_caught_panic_is_bit_identical() {
        // A serving engine isolates step panics with `catch_unwind` and
        // keeps stepping the surviving requests with the same scratch. The
        // scratch contract (see `GemmScratch`) is that a panic can only
        // leave *stale* data behind, never data a later call reads: a
        // forward through a scratch abandoned mid-use — with and without an
        // explicit `reset()` — must match a fresh-scratch forward bitwise.
        let cfg = M2xfpConfig::default();
        let w = PackedWeightTensor::quantize_parallel(&mat(6, 96, 3.0), cfg);
        let prepared = BackendKind::Packed.prepare(w);
        let x = mat(2, 96, 1.5);
        let want = forward(&x, &prepared).unwrap();

        let mut scratch = GemmScratch::new();
        // Dirty the scratch with a different shape, then abandon a call
        // mid-flight via a panic unwinding across it.
        let other = mat(5, 96, 9.0);
        prepared.forward_scratch(&other, &mut scratch).unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = prepared.forward_scratch(&other, &mut scratch);
            panic!("injected fault");
        }));
        assert!(caught.is_err());
        let after_panic = prepared.forward_scratch(&x, &mut scratch).unwrap();
        assert_bits_eq(&after_panic, &want, "after panic");
        scratch.reset();
        let after_reset = prepared.forward_scratch(&x, &mut scratch).unwrap();
        assert_bits_eq(&after_reset, &want, "after reset");
    }

    #[test]
    fn fake_quantize_identical_across_backends() {
        let cfg = M2xfpConfig::default();
        let x = mat(4, 100, 3.0);
        let want = ActTensor::quantize(&x, cfg).dequantize();
        for kind in BackendKind::ALL {
            assert_eq!(kind.fake_quantize_activations(&x, cfg), want, "{kind:?}");
        }
    }

    #[test]
    fn forward_rejects_width_mismatch() {
        let cfg = M2xfpConfig::default();
        let w = PackedWeightTensor::quantize_parallel(&mat(4, 64, 0.0), cfg);
        for kind in BackendKind::ALL {
            let prepared = kind.prepare(w.clone());
            for cols in [63usize, 65, 0] {
                assert!(
                    matches!(
                        forward(&mat(2, cols, 0.0), &prepared),
                        Err(Error::WidthMismatch {
                            expected: 64,
                            got,
                            ..
                        }) if got == cols
                    ),
                    "{kind:?} cols={cols}"
                );
            }
        }
    }

    #[test]
    fn append_rows_matches_full_reprepare_on_every_backend() {
        // Decode-on-append (the KV-cache growth path) must be bit-identical
        // to preparing the fully grown tensor from scratch, on every form,
        // including ragged reduction dims.
        let cfg = M2xfpConfig::default();
        for cols in [64usize, 80] {
            let full = mat(9, cols, 5.0);
            let x = mat(3, cols, 2.0);
            let full_q = PackedWeightTensor::quantize_parallel(&full, cfg);
            for kind in BackendKind::ALL {
                let mut grown =
                    kind.prepare(PackedWeightTensor::quantize(&Matrix::zeros(0, cols), cfg));
                let mut row = 0usize;
                for chunk in [1usize, 4, 2, 2] {
                    let delta = Matrix::from_fn(chunk, cols, |r, c| full[(row + r, c)]);
                    grown.append_rows(&delta).unwrap();
                    row += chunk;
                }
                let fresh = kind.prepare(full_q.clone());
                assert_eq!(grown, fresh, "cols={cols} {kind:?}");
                let a = forward(&x, &grown).unwrap();
                assert_bits_eq(
                    &a,
                    &forward(&x, &fresh).unwrap(),
                    &format!("cols={cols} {kind:?}"),
                );
                assert_bits_eq(&a, &oracle(&x, &full_q), &format!("cols={cols} {kind:?}"));
                assert!(grown.append_rows(&Matrix::zeros(1, cols + 1)).is_err());
            }
        }
    }

    #[test]
    fn shared_prepared_weights_forward_identically_across_threads() {
        // Preparing once and forwarding from two threads through Arc-shared
        // clones is bit-identical to two independent preparations — the
        // contract the multi-session serving runtime builds on.
        let cfg = M2xfpConfig::default();
        let w = PackedWeightTensor::quantize_parallel(&mat(8, 96, 4.0), cfg);
        let shared = BackendKind::Packed.prepare(w.clone());
        let xs = [mat(3, 96, 1.0), mat(2, 96, 7.0)];
        let from_threads: Vec<Matrix> = std::thread::scope(|s| {
            let handles: Vec<_> = xs
                .iter()
                .map(|x| {
                    let mine = shared.clone(); // O(1): Arc, no re-decode
                    s.spawn(move || forward(x, &mine).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (x, got) in xs.iter().zip(&from_threads) {
            let independent = forward(x, &BackendKind::Packed.prepare(w.clone())).unwrap();
            assert_bits_eq(got, &independent, "shared vs independent");
        }
    }

    #[test]
    fn append_to_shared_handle_is_copy_on_write() {
        let cfg = M2xfpConfig::default();
        let base = BackendKind::Packed.prepare(PackedWeightTensor::quantize(&mat(2, 64, 0.0), cfg));
        let mut grown = base.clone();
        grown.append_rows(&mat(3, 64, 8.0)).unwrap();
        // The shared original is untouched; the grown handle diverged.
        assert_eq!(base.shape(), (2, 64));
        assert_eq!(grown.shape(), (5, 64));
    }

    #[test]
    fn kinds_have_distinct_names() {
        let names: Vec<_> = BackendKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["packed", "grouped"]);
        for kind in BackendKind::ALL {
            assert_eq!(kind.backend(), kind);
        }
    }
}
