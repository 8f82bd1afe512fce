//! Measurement helpers shared by every bench scenario: best-of timing,
//! bitwise matrix equality and nearest-rank percentiles.

use m2x_tensor::Matrix;
use std::hint::black_box;
use std::time::Instant;

/// Best-of-`reps` wall time of `f` in seconds, plus the last run's output
/// (so a caller that needs the built value pays no extra untimed run).
pub fn time_best<O>(reps: usize, mut f: impl FnMut() -> O) -> (f64, O) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        out = Some(black_box(f()));
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, out.expect("reps >= 1"))
}

/// Bitwise equality of two matrices, shape included. f32 `==` would
/// equate ±0 and miss NaN payloads; comparing the flat slices alone would
/// equate a 2×3 with a 3×2.
pub fn bits_eq(a: &Matrix, b: &Matrix) -> bool {
    (a.rows(), a.cols()) == (b.rows(), b.cols())
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(p, q)| p.to_bits() == q.to_bits())
}

/// Nearest-rank `p`-quantile (`p` in `[0, 1]`) of ascending `sorted`;
/// 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_eq_checks_shape_sign_and_nan_payload() {
        let data = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let a = Matrix::from_vec(2, 3, data.clone());
        assert!(bits_eq(&a, &a.clone()));
        // Same flat data, different shape.
        assert!(!bits_eq(&a, &Matrix::from_vec(3, 2, data)));
        // -0.0 == 0.0 as floats, but not as bits.
        assert!(!bits_eq(
            &Matrix::from_vec(1, 1, vec![-0.0]),
            &Matrix::from_vec(1, 1, vec![0.0])
        ));
        // NaN != NaN as floats, but an identical payload is bit-equal.
        let nan = f32::from_bits(0x7fc0_0001);
        let n = Matrix::from_vec(1, 2, vec![nan, 1.0]);
        assert!(bits_eq(&n, &n.clone()));
    }
}
