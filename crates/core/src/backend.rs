//! Execution backends — the engine abstraction behind every quantized
//! forward pass.
//!
//! A backend owns the *how* of running `y = Q_a(x) · Q_w(W)ᵀ`: which
//! activation encoder, which tensor representation and which GEMM kernel.
//! All three implementations consume the same canonical weight bits (a
//! [`PackedWeightTensor`] produced by the threaded integer-LUT Sg-EM
//! search) and are **bit-identical** on every input — the property tests
//! assert it — so callers pick a backend for speed or debuggability, never
//! for accuracy:
//!
//! * [`PackedBackend`] — the production hot path: branch-free packed
//!   activation encode, cached [`WeightPlane`] decode, register-blocked
//!   threaded integer [`qgemm_packed_planed_scratch`].
//! * [`GroupedBackend`] — the legacy `Vec<Group>` pipeline, demoted to a
//!   readable reference implementation of the PE ([`qgemm`]).
//! * [`ReferenceBackend`] — the float oracle: dequantize both operands and
//!   multiply in f64 ([`qgemm_reference`]).
//!
//! Weights are prepared **once** per layer ([`ExecBackend::prepare`]) into
//! the backend's execution form ([`PreparedWeights`]) and reused across
//! forwards — the decode-once contract that `m2x_nn::linear` and
//! `m2x_nn::model` build on.
//!
//! ```
//! use m2x_tensor::Matrix;
//! use m2xfp::backend::BackendKind;
//! use m2xfp::format::PackedWeightTensor;
//! use m2xfp::gemm::GemmScratch;
//! use m2xfp::M2xfpConfig;
//!
//! let cfg = M2xfpConfig::default();
//! let w = Matrix::from_fn(8, 64, |r, c| ((r * 64 + c) as f32 * 0.1).sin());
//! let x = Matrix::from_fn(4, 64, |r, c| ((r + c) as f32 * 0.2).cos());
//! let packed = PackedWeightTensor::quantize_parallel(&w, cfg);
//! let mut scratch = GemmScratch::new();
//! let mut outs = Vec::new();
//! for kind in BackendKind::ALL {
//!     let be = kind.backend();
//!     let prepared = be.prepare(packed.clone());
//!     outs.push(be.forward_scratch(&x, &prepared, &mut scratch)?);
//! }
//! assert_eq!(outs[0], outs[1]); // packed == grouped, bit for bit
//! assert_eq!(outs[1], outs[2]); // grouped == reference
//! # Ok::<(), m2xfp::Error>(())
//! ```

use crate::format::{ActTensor, PackedActTensor, PackedWeightTensor, WeightTensor};
use crate::gemm::{
    gemm_threads, qgemm, qgemm_packed_planed_scratch, qgemm_reference, GemmScratch, WeightPlane,
};
use crate::{Error, M2xfpConfig};
use m2x_tensor::Matrix;
use std::sync::Arc;

/// Selector for the three built-in execution backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Three-stream packed pipeline (production hot path).
    Packed,
    /// Legacy grouped `Vec<Group>` pipeline (readable PE reference).
    Grouped,
    /// Float-oracle pipeline (dequantize + f64 matmul).
    Reference,
}

impl BackendKind {
    /// All backends, production first.
    pub const ALL: [BackendKind; 3] = [
        BackendKind::Packed,
        BackendKind::Grouped,
        BackendKind::Reference,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Packed => "packed",
            BackendKind::Grouped => "grouped",
            BackendKind::Reference => "reference",
        }
    }

    /// The backend implementation for this kind (a static singleton —
    /// backends are stateless).
    pub fn backend(self) -> &'static dyn ExecBackend {
        match self {
            BackendKind::Packed => &PackedBackend,
            BackendKind::Grouped => &GroupedBackend,
            BackendKind::Reference => &ReferenceBackend,
        }
    }
}

/// A weight tensor prepared for repeated forwards under one backend: the
/// canonical packed streams plus the backend's decoded execution form
/// (fixed-point [`WeightPlane`] for the packed kernel, reconstructed
/// [`WeightTensor`] groups for the grouped/reference kernels).
///
/// The decoded state lives behind an [`Arc`], so `Clone` is O(1) and never
/// re-decodes: one prepared layer can be shared across any number of
/// concurrent inference sessions or threads (`m2x_serve` builds on exactly
/// this — N sessions cost N KV caches, not N weight copies). Mutation
/// ([`Self::append_quantized`], the KV-cache growth path) is copy-on-write:
/// unshared handles mutate in place, shared ones clone first.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedWeights {
    inner: Arc<PreparedInner>,
}

#[derive(Debug, Clone, PartialEq)]
struct PreparedInner {
    packed: PackedWeightTensor,
    exec: ExecForm,
}

#[derive(Debug, Clone, PartialEq)]
enum ExecForm {
    Plane(WeightPlane),
    Grouped(WeightTensor),
}

impl PreparedWeights {
    fn new(packed: PackedWeightTensor, exec: ExecForm) -> Self {
        PreparedWeights {
            inner: Arc::new(PreparedInner { packed, exec }),
        }
    }

    /// Matrix shape `(rows, cols)` = `(out_features, in_features)`.
    pub fn shape(&self) -> (usize, usize) {
        self.inner.packed.shape()
    }

    /// The configuration the weights were quantized with.
    pub fn config(&self) -> &M2xfpConfig {
        self.inner.packed.config()
    }

    /// The canonical three-stream weight bits.
    pub fn packed(&self) -> &PackedWeightTensor {
        &self.inner.packed
    }

    /// Appends already-quantized rows below the prepared tensor, updating
    /// both the canonical streams and the backend's execution form
    /// **incrementally** — O(delta), never a re-decode of the existing rows
    /// (the plane appends decoded rows, the grouped form appends groups).
    /// Bit-identical to re-preparing the row-concatenated tensor, which the
    /// tests pin. Copy-on-write when the handle is shared.
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
        let inner = Arc::make_mut(&mut self.inner);
        match &mut inner.exec {
            ExecForm::Plane(plane) => plane.append(&delta),
            ExecForm::Grouped(grouped) => grouped.append_tensor(delta.to_grouped()),
        }
        inner.packed.append_packed(delta)
    }

    /// Drops all rows while keeping the allocations when the handle is
    /// unshared — the KV page-frame recycling path: a recycled frame
    /// compares equal to a freshly prepared empty tensor of the same
    /// width, so page reuse leaves no trace of the previous occupant. A
    /// shared handle (outstanding clones or weak refs) cannot be truncated
    /// in place and is replaced by a fresh empty preparation instead.
    pub fn clear_rows(&mut self) {
        if let Some(inner) = Arc::get_mut(&mut self.inner) {
            inner.packed.clear_rows();
            match &mut inner.exec {
                ExecForm::Plane(plane) => plane.clear_rows(),
                ExecForm::Grouped(grouped) => grouped.clear_rows(),
            }
        } else {
            let packed = PackedWeightTensor::empty(self.shape().1, *self.config());
            let exec = match self.inner.exec {
                ExecForm::Plane(_) => ExecForm::Plane(WeightPlane::decode(&packed)),
                ExecForm::Grouped(_) => ExecForm::Grouped(packed.to_grouped()),
            };
            *self = PreparedWeights::new(packed, exec);
        }
    }

    /// Heap bytes of the decoded execution form — the working state that
    /// rides alongside the canonical packed streams (fixed-point plane for
    /// the packed backend, reconstructed groups for grouped/reference).
    /// Packed-stream accounting alone understates a prepared tensor's real
    /// footprint by roughly this much.
    pub fn decoded_bytes(&self) -> usize {
        match &self.inner.exec {
            ExecForm::Plane(plane) => plane.decoded_bytes(),
            ExecForm::Grouped(grouped) => grouped
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

    fn form_name(&self) -> &'static str {
        match self.inner.exec {
            ExecForm::Plane(_) => "packed",
            ExecForm::Grouped(_) => "grouped",
        }
    }

    fn exec(&self) -> &ExecForm {
        &self.inner.exec
    }
}

/// An execution backend: prepares quantized weights into its preferred
/// form and runs the W4A4 forward pass (online activation quantization +
/// quantized GEMM) against them.
///
/// All implementations produce bit-identical outputs from the same weight
/// bits; see the [module docs](self) for the menu.
pub trait ExecBackend: Send + Sync + std::fmt::Debug {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// Display name (mirrors [`BackendKind::name`]).
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Decodes quantized weights into this backend's execution form. Do
    /// this once per layer (it is the O(N·K) decode) and reuse the result
    /// across forwards.
    fn prepare(&self, weights: PackedWeightTensor) -> PreparedWeights;

    /// W4A4 forward `y = Q_a(x) · Wᵀ` against prepared weights, with a
    /// caller-held reusable [`GemmScratch`].
    ///
    /// On the packed backend the activation scratch is reused across calls
    /// instead of allocated fresh — serving sessions hold one scratch and
    /// route every projection and attention score GEMM through here.
    /// Single-row inputs run the kernel inline ([`gemm_threads`] picks one
    /// worker). Backends without a scratch to reuse ignore it; every
    /// backend computes identical bits.
    ///
    /// # Errors
    ///
    /// Fails when `x.cols()` does not match the weights' reduction
    /// dimension, or when `w` was prepared into a different backend's form.
    fn forward_scratch(
        &self,
        x: &Matrix,
        w: &PreparedWeights,
        scratch: &mut GemmScratch,
    ) -> Result<Matrix, Error>;

    /// Quantizes `rows` (Sg-EM search) and appends them below prepared
    /// weights, updating the execution form incrementally — O(rows) per
    /// call regardless of how many rows are already prepared. This is the
    /// decode-on-append path a growing KV cache rides: the appended rows
    /// quantize and decode independently, so the result is bit-identical to
    /// re-preparing the row-concatenated tensor (pinned by tests).
    ///
    /// # Errors
    ///
    /// Fails on a width mismatch.
    fn append_rows(&self, w: &mut PreparedWeights, rows: &Matrix) -> Result<(), Error> {
        w.append_quantized(PackedWeightTensor::quantize_parallel(rows, *w.config()))
    }

    /// Fake-quantizes activations (quantize + dequantize) through this
    /// backend's online encoder — the form error measurement flows
    /// through. Bit-identical across backends.
    fn fake_quantize_activations(&self, x: &Matrix, cfg: M2xfpConfig) -> Matrix;
}

fn check_forward(x: &Matrix, w: &PreparedWeights) -> Result<(), Error> {
    let (_, k) = w.shape();
    if x.cols() != k {
        return Err(Error::WidthMismatch {
            tensor: "prepared weights".to_string(),
            expected: k,
            got: x.cols(),
        });
    }
    Ok(())
}

fn form_error(backend: &dyn ExecBackend, w: &PreparedWeights) -> Error {
    Error::BackendMismatch {
        backend: backend.name(),
        prepared_by: w.form_name(),
    }
}

/// The production backend: packed three-stream tensors end to end.
#[derive(Debug, Clone, Copy, Default)]
pub struct PackedBackend;

impl ExecBackend for PackedBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Packed
    }

    fn prepare(&self, weights: PackedWeightTensor) -> PreparedWeights {
        let plane = WeightPlane::decode(&weights);
        PreparedWeights::new(weights, ExecForm::Plane(plane))
    }

    fn forward_scratch(
        &self,
        x: &Matrix,
        w: &PreparedWeights,
        scratch: &mut GemmScratch,
    ) -> Result<Matrix, Error> {
        check_forward(x, w)?;
        let ExecForm::Plane(plane) = w.exec() else {
            return Err(form_error(self, w));
        };
        let (n, k) = w.shape();
        // Auto-threaded online encode; decode-sized batches stay
        // single-threaded below the work threshold.
        let xq = PackedActTensor::quantize_parallel(x, *w.config());
        let threads = gemm_threads(x.rows(), k, n);
        Ok(qgemm_packed_planed_scratch(&xq, plane, threads, scratch))
    }

    fn fake_quantize_activations(&self, x: &Matrix, cfg: M2xfpConfig) -> Matrix {
        PackedActTensor::quantize_parallel(x, cfg).dequantize()
    }
}

/// The legacy grouped backend: `Vec<Group>` tensors and the readable
/// per-group integer PE pipeline ([`qgemm`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupedBackend;

impl ExecBackend for GroupedBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Grouped
    }

    fn prepare(&self, weights: PackedWeightTensor) -> PreparedWeights {
        let grouped = weights.to_grouped();
        PreparedWeights::new(weights, ExecForm::Grouped(grouped))
    }

    fn forward_scratch(
        &self,
        x: &Matrix,
        w: &PreparedWeights,
        _scratch: &mut GemmScratch,
    ) -> Result<Matrix, Error> {
        check_forward(x, w)?;
        let ExecForm::Grouped(grouped) = w.exec() else {
            return Err(form_error(self, w));
        };
        let xq = ActTensor::quantize(x, *w.config());
        Ok(qgemm(&xq, grouped))
    }

    fn fake_quantize_activations(&self, x: &Matrix, cfg: M2xfpConfig) -> Matrix {
        ActTensor::quantize(x, cfg).dequantize()
    }
}

/// The float-oracle backend: dequantizes both operands and multiplies in
/// f64 ([`qgemm_reference`]) — every quantized value is a small dyadic
/// rational, so this is exact and matches the integer kernels bit for bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceBackend;

impl ExecBackend for ReferenceBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Reference
    }

    fn prepare(&self, weights: PackedWeightTensor) -> PreparedWeights {
        GroupedBackend.prepare(weights)
    }

    fn forward_scratch(
        &self,
        x: &Matrix,
        w: &PreparedWeights,
        _scratch: &mut GemmScratch,
    ) -> Result<Matrix, Error> {
        check_forward(x, w)?;
        let ExecForm::Grouped(grouped) = w.exec() else {
            return Err(form_error(self, w));
        };
        let xq = ActTensor::quantize(x, *w.config());
        Ok(qgemm_reference(&xq, grouped))
    }

    fn fake_quantize_activations(&self, x: &Matrix, cfg: M2xfpConfig) -> Matrix {
        GroupedBackend.fake_quantize_activations(x, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, seed: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let t = (r * cols + c) as f32 + seed;
            (t * 0.713).sin() * 2.5 + (t * 0.137).cos() * 0.5
        })
    }

    /// A forward through a fresh scratch.
    fn forward(be: &dyn ExecBackend, x: &Matrix, w: &PreparedWeights) -> Result<Matrix, Error> {
        be.forward_scratch(x, w, &mut GemmScratch::new())
    }

    #[test]
    fn backends_bit_identical_including_ragged() {
        let cfg = M2xfpConfig::default();
        for cols in [64usize, 96, 80, 41] {
            let w = PackedWeightTensor::quantize_parallel(&mat(7, cols, 9.0), cfg);
            let x = mat(5, cols, 1.0);
            let mut outs = Vec::new();
            for kind in BackendKind::ALL {
                let be = kind.backend();
                assert_eq!(be.kind(), kind);
                let prepared = be.prepare(w.clone());
                assert_eq!(prepared.shape(), (7, cols));
                outs.push(forward(be, &x, &prepared).unwrap());
            }
            for o in &outs[1..] {
                for (a, b) in outs[0].as_slice().iter().zip(o.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "cols={cols}");
                }
            }
        }
    }

    #[test]
    fn forward_scratch_matches_reference_bitwise() {
        // The scratch-reusing forward equals the f64 oracle on every
        // backend — one row (the decode shape), a few rows and ragged K —
        // with one scratch reused across shapes and backends.
        let cfg = M2xfpConfig::default();
        let mut scratch = GemmScratch::new();
        for cols in [96usize, 80] {
            let w = PackedWeightTensor::quantize_parallel(&mat(7, cols, 9.0), cfg);
            for kind in BackendKind::ALL {
                let be = kind.backend();
                let prepared = be.prepare(w.clone());
                for rows in [1usize, 2, 3, 4] {
                    let x = mat(rows, cols, 2.0);
                    let want = qgemm_reference(&ActTensor::quantize(&x, cfg), &w.to_grouped());
                    let got = be.forward_scratch(&x, &prepared, &mut scratch).unwrap();
                    assert_eq!(got, want, "{kind:?} rows={rows} cols={cols}");
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
        let be = BackendKind::Packed.backend();
        let prepared = be.prepare(w);
        let x = mat(2, 96, 1.5);
        let want = be
            .forward_scratch(&x, &prepared, &mut GemmScratch::new())
            .unwrap();

        let mut scratch = GemmScratch::new();
        // Dirty the scratch with a different shape, then abandon a call
        // mid-flight via a panic unwinding across it.
        let other = mat(5, 96, 9.0);
        be.forward_scratch(&other, &prepared, &mut scratch).unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = be.forward_scratch(&other, &prepared, &mut scratch);
            panic!("injected fault");
        }));
        assert!(caught.is_err());
        let after_panic = be.forward_scratch(&x, &prepared, &mut scratch).unwrap();
        for (p, q) in want.as_slice().iter().zip(after_panic.as_slice()) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
        scratch.reset();
        let after_reset = be.forward_scratch(&x, &prepared, &mut scratch).unwrap();
        for (p, q) in want.as_slice().iter().zip(after_reset.as_slice()) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn fake_quantize_identical_across_backends() {
        let cfg = M2xfpConfig::default();
        let x = mat(4, 100, 3.0);
        let base_a = BackendKind::Packed
            .backend()
            .fake_quantize_activations(&x, cfg);
        for kind in [BackendKind::Grouped, BackendKind::Reference] {
            let be = kind.backend();
            assert_eq!(be.fake_quantize_activations(&x, cfg), base_a, "{kind:?}");
        }
    }

    #[test]
    fn forward_rejects_width_mismatch_and_foreign_form() {
        let cfg = M2xfpConfig::default();
        let w = PackedWeightTensor::quantize_parallel(&mat(4, 64, 0.0), cfg);
        let packed = BackendKind::Packed.backend().prepare(w.clone());
        let grouped = BackendKind::Grouped.backend().prepare(w);
        let bad = mat(2, 65, 0.0);
        assert!(matches!(
            forward(BackendKind::Packed.backend(), &bad, &packed),
            Err(Error::WidthMismatch { .. })
        ));
        let x = mat(2, 64, 0.0);
        assert!(matches!(
            forward(BackendKind::Packed.backend(), &x, &grouped),
            Err(Error::BackendMismatch { .. })
        ));
        assert!(matches!(
            forward(BackendKind::Grouped.backend(), &x, &packed),
            Err(Error::BackendMismatch { .. })
        ));
    }

    #[test]
    fn append_rows_matches_full_reprepare_on_every_backend() {
        // Decode-on-append (the KV-cache growth path) must be bit-identical
        // to preparing the fully grown tensor from scratch, on every
        // backend, including ragged reduction dims.
        let cfg = M2xfpConfig::default();
        for cols in [64usize, 80] {
            let full = mat(9, cols, 5.0);
            let x = mat(3, cols, 2.0);
            for kind in BackendKind::ALL {
                let be = kind.backend();
                let mut grown =
                    be.prepare(PackedWeightTensor::quantize(&Matrix::zeros(0, cols), cfg));
                let mut row = 0usize;
                for chunk in [1usize, 4, 2, 2] {
                    let delta = Matrix::from_fn(chunk, cols, |r, c| full[(row + r, c)]);
                    be.append_rows(&mut grown, &delta).unwrap();
                    row += chunk;
                }
                let fresh = be.prepare(PackedWeightTensor::quantize_parallel(&full, cfg));
                assert_eq!(grown, fresh, "cols={cols} {kind:?}");
                let a = forward(be, &x, &grown).unwrap();
                let b = forward(be, &x, &fresh).unwrap();
                for (p, q) in a.as_slice().iter().zip(b.as_slice()) {
                    assert_eq!(p.to_bits(), q.to_bits(), "cols={cols} {kind:?}");
                }
                assert!(be
                    .append_rows(&mut grown, &Matrix::zeros(1, cols + 1))
                    .is_err());
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
        let be = BackendKind::Packed.backend();
        let shared = be.prepare(w.clone());
        let xs = [mat(3, 96, 1.0), mat(2, 96, 7.0)];
        let from_threads: Vec<Matrix> = std::thread::scope(|s| {
            let handles: Vec<_> = xs
                .iter()
                .map(|x| {
                    let mine = shared.clone(); // O(1): Arc, no re-decode
                    s.spawn(move || forward(be, x, &mine).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (x, got) in xs.iter().zip(&from_threads) {
            let independent = forward(be, x, &be.prepare(w.clone())).unwrap();
            for (p, q) in independent.as_slice().iter().zip(got.as_slice()) {
                assert_eq!(p.to_bits(), q.to_bits());
            }
        }
    }

    #[test]
    fn append_to_shared_handle_is_copy_on_write() {
        let cfg = M2xfpConfig::default();
        let be = BackendKind::Packed.backend();
        let base = be.prepare(PackedWeightTensor::quantize(&mat(2, 64, 0.0), cfg));
        let mut grown = base.clone();
        be.append_rows(&mut grown, &mat(3, 64, 8.0)).unwrap();
        // The shared original is untouched; the grown handle diverged.
        assert_eq!(base.shape(), (2, 64));
        assert_eq!(grown.shape(), (5, 64));
    }

    #[test]
    fn kinds_have_distinct_names() {
        let names: Vec<_> = BackendKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["packed", "grouped", "reference"]);
    }
}
