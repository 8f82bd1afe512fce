//! Bit-exact quantized GEMM mirroring the M2XFP processing element
//! (paper §5.4, Fig. 11, Eq. 5).
//!
//! The PE pipeline is: FP4×FP4 products accumulated in a fixed-point
//! register, an auxiliary MAC adding the ΔX extra-mantissa correction for
//! each subgroup's top-1 activation, a shift-add subgroup scale refinement
//! `P·{1.0,1.25,1.5,1.75}`, and a final E8M0 dequantize-and-accumulate.
//!
//! Everything is exact integer arithmetic in units of 1/64 (activations are
//! multiples of 1/8 after FP6 refinement, weights multiples of 1/2, the
//! multiplier contributes a /4), so [`qgemm`], the packed kernel
//! [`qgemm_packed_planed_scratch`] and the floating-point reference
//! [`qgemm_reference`] all agree **exactly**, which the tests and property
//! tests assert.
//!
//! Four GEMMs, all bit-identical:
//!
//! * [`qgemm_packed_planed_scratch`] — the production path for any number
//!   of rows. It reads the weight streams of a [`WeightPlane`] in place
//!   (16 B of nibble codes, one E8M0 byte and one Sg-EM byte per group:
//!   4.5 bits per weight, no decoded copy) against an activation plane
//!   decoded into a caller-held [`GemmScratch`]. The body is picked at
//!   run time ([`KernelIsa::detect`]): on `x86_64` hosts with AVX2 it
//!   splits the code nibbles, looks them up with `vpshufb`, folds in the
//!   subgroup multiplier and multiplies with `vpmaddwd`; elsewhere, and
//!   for geometries other than group 32 / subgroup 8, a portable scalar
//!   body does the same arithmetic. Workers split the output rows, or its
//!   columns when the batch is too small to give each worker 4 rows.
//! * [`qgemv_packed_into`] — the same kernel at `m == 1`, writing into a
//!   caller-held output row: zero heap allocations once the scratch is
//!   warm, which `tests/alloc_gate.rs` pins.
//! * [`qgemm`] — the readable per-group PE model over the grouped tensors,
//!   decoding through the integer LUTs of `m2x_formats::tables` (no float
//!   decode round-trip anywhere); the hardware-unit models of `m2x-accel`
//!   are pinned against it.
//! * [`qgemm_reference`] — the f64 oracle every kernel is tested against.

use crate::format::{ActTensor, PackedActTensor, PackedWeightTensor, WeightTensor};
use crate::Error;
use m2x_formats::packing::two_bits_at;
use m2x_formats::tables::{top1_index, EXTRA_X8, FP4_X2, FP4_X8};
use m2x_tensor::matrix::par_row_chunks;
use m2x_tensor::Matrix;
use std::ops::Range;

/// Exact value of 1/64: the PE's fixed-point unit (1/8 activation × 1/2
/// weight × 1/4 multiplier).
const FIXED_POINT_UNIT: f64 = 1.0 / 64.0;

/// Column-tile width of the packed kernel: the code streams of 64 weight
/// rows stay cache-hot while every [`MR`]-row block of the output walks
/// them.
const COL_TILE: usize = 64;

/// Activation-row block: each weight group is decoded once and dotted
/// against up to [`MR`] activation rows, quartering the weight-stream
/// traffic of batched steps (the continuous-batching scheduler's decode
/// batches are exactly this shape: a handful of single-token rows stacked
/// per projection). A one-row block dots one activation group against
/// four weight columns instead.
const MR: usize = 4;

/// An activation group decoded to integers: values ×8, plus the shared
/// exponent.
#[derive(Debug, Clone)]
struct ActInts {
    x8: Vec<i64>,
    exp: i32,
}

/// A weight group decoded to integers: values ×2, per-subgroup multiplier
/// codes, plus the shared exponent.
#[derive(Debug, Clone)]
struct WeightInts {
    w2: Vec<i64>,
    mult: Vec<u8>,
    exp: i32,
}

/// Applies the per-subgroup top-1 metadata refinement to a decoded ×8
/// buffer. `codes` and `x8` cover one group.
fn refine_top1_x8<T: From<i16> + Copy>(
    codes: &[u8],
    meta_of: impl Fn(usize) -> u8,
    sg_size: usize,
    x8: &mut [T],
) {
    for (sg_idx, sg_codes) in codes.chunks(sg_size).enumerate() {
        let local = top1_index(sg_codes);
        let idx = sg_idx * sg_size + local;
        x8[idx] = T::from(EXTRA_X8[sg_codes[local] as usize][meta_of(sg_idx) as usize]);
    }
}

fn decode_act_ints(t: &ActTensor) -> Vec<ActInts> {
    let sg_size = t.config().subgroup_size;
    t.groups()
        .iter()
        .map(|g| {
            let mut x8: Vec<i64> = g.codes.iter().map(|&c| FP4_X8[c as usize] as i64).collect();
            refine_top1_x8(&g.codes, |sg| g.meta[sg], sg_size, &mut x8);
            ActInts {
                x8,
                exp: g.scale.exponent(),
            }
        })
        .collect()
}

fn decode_weight_ints(t: &WeightTensor) -> Vec<WeightInts> {
    t.groups()
        .iter()
        .map(|g| WeightInts {
            w2: g.codes.iter().map(|&c| FP4_X2[c as usize] as i64).collect(),
            mult: g.sg_em.clone(),
            exp: g.scale.exponent(),
        })
        .collect()
}

/// Quantized GEMM `Y[M,N] = X[M,K] · W^T[N,K]` through the exact PE
/// pipeline.
///
/// # Panics
///
/// Panics when the reduction dimensions or group geometries disagree.
pub fn qgemm(x: &ActTensor, w: &WeightTensor) -> Matrix {
    let (m, k) = x.shape();
    let (n, k2) = w.shape();
    assert_eq!(k, k2, "reduction dimension mismatch");
    assert_eq!(
        (x.config().group_size, x.config().subgroup_size),
        (w.config().group_size, w.config().subgroup_size),
        "group geometry mismatch"
    );
    let sg_size = x.config().subgroup_size;
    let gpr = x.groups_per_row();

    let xi = decode_act_ints(x);
    let wi = decode_weight_ints(w);

    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for g in 0..gpr {
                let xg = &xi[i * gpr + g];
                let wg = &wi[j * gpr + g];
                // Fixed-point accumulation in units of 1/64 (the PE's 32-bit
                // fixed-point register; i64 here so no overflow handling is
                // needed at any group size).
                let mut acc64: i64 = 0;
                for (s, (xs, ws)) in xg.x8.chunks(sg_size).zip(wg.w2.chunks(sg_size)).enumerate() {
                    let mut sacc: i64 = 0; // units of 1/16
                    for (&a, &b) in xs.iter().zip(ws) {
                        sacc += a * b;
                    }
                    // Subgroup scale refinement: ×(4 + code)/4, realized in
                    // hardware as shift-adds.
                    acc64 += sacc * (4 + wg.mult[s] as i64);
                }
                // Dequantize: exponent alignment only (E8M0 scales).
                acc += acc64 as f64 * ((xg.exp + wg.exp - 6) as f64).exp2();
            }
            out[(i, j)] = acc as f32;
        }
    }
    out
}

/// Minimum MAC count that justifies one additional GEMM worker thread.
/// Below ~8 MiMAC per extra worker the scoped-thread spawn/join overhead
/// and the cache interference of splitting a small output exceed the
/// parallel win (the recorded `BENCH_m2xfp.json` anomaly where the
/// threaded kernel lost to the pinned single-thread run), so small and
/// medium GEMMs stay single-threaded.
const GEMM_MACS_PER_THREAD: usize = 8 << 20;

/// Worker count for an `M×K×N` packed GEMM: one thread per
/// `GEMM_MACS_PER_THREAD` MACs, capped at the available cores and at the
/// output row count, never below one.
///
/// Problems that cannot use a second worker — a single row, or at most one
/// thread's worth of MACs — return 1 without querying the OS:
/// `available_parallelism` costs microseconds per call, and attention
/// issues one single-row score GEMV per (session, head, KV page) every
/// decode step.
pub fn gemm_threads(m: usize, k: usize, n: usize) -> usize {
    let macs = m.saturating_mul(k).saturating_mul(n);
    if m <= 1 || macs / GEMM_MACS_PER_THREAD <= 1 {
        return 1;
    }
    let avail = std::thread::available_parallelism().map_or(1, |t| t.get());
    avail.min(macs / GEMM_MACS_PER_THREAD).min(m)
}

/// `2^e` for every E8M0 scale byte (`0xFF`, the NaN code, maps to NaN):
/// the exact powers of two the packed kernels scale by, looked up per
/// group instead of an `exp2` call. Byte 127 is `2^0`.
static E8M0_F64: [f64; 256] = e8m0_table();

const fn e8m0_table() -> [f64; 256] {
    let mut t = [f64::NAN; 256];
    let (mut up, mut down) = (1.0f64, 1.0f64);
    let mut i = 0;
    while i < 128 {
        t[127 + i] = up;
        t[127 - i] = down;
        up *= 2.0;
        down *= 0.5;
        i += 1;
    }
    t
}

/// The kernel bodies the packed GEMM can run. [`KernelIsa::detect`] picks
/// the best one the host supports, once per call; every body computes the
/// same bits (the integer group sums are exact and each output's f64
/// operation sequence is fixed), which the tests pin body against body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelIsa {
    /// Portable Rust over the packed streams: any group geometry, any
    /// host, and the oracle the SIMD body is tested against.
    Scalar,
    /// `x86_64` AVX2 (`vpshufb` nibble decode, `vpmaddwd` group dots) for
    /// the production geometry, group 32 / subgroup 8; other geometries
    /// fall back to the scalar body.
    Avx2,
}

impl KernelIsa {
    /// Every body, portable first.
    pub const ALL: [KernelIsa; 2] = [KernelIsa::Scalar, KernelIsa::Avx2];

    /// The best body this host supports.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return KernelIsa::Avx2;
        }
        KernelIsa::Scalar
    }

    /// Whether this host can run the body.
    pub fn available(self) -> bool {
        self == KernelIsa::Scalar || KernelIsa::detect() == self
    }

    /// Short name: `"scalar"` or `"avx2"`.
    pub fn name(self) -> &'static str {
        match self {
            KernelIsa::Scalar => "scalar",
            KernelIsa::Avx2 => "avx2",
        }
    }
}

/// Name of the body the packed GEMM dispatches to on this host (`"avx2"`
/// or `"scalar"`), for logs and for the gate that a host with AVX2 never
/// silently runs the scalar body.
pub fn kernel_isa() -> &'static str {
    KernelIsa::detect().name()
}

/// Reusable scratch of the packed kernels: the decoded fixed-point
/// activation plane (`x8`), its per-group scales (`xscale`), one group's
/// staging buffers (`code_buf`, `group_buf`) and the transposed output of
/// the column-split path (`out_t`).
///
/// The decode hot loop of a serving session calls a GEMM once per
/// projection per layer per step; holding one `GemmScratch` per session
/// (or per engine thread) and passing it to [`qgemm_packed_planed_scratch`]
/// or [`qgemv_packed_into`] keeps the activation decode allocation-free
/// after warm-up — the buffers are cleared and refilled in place, never
/// reallocated once they have grown to the largest projection width.
///
/// **Panic safety:** the scratch carries no semantic state between calls —
/// every kernel clears and fully rewrites the region it reads before use.
/// A scratch abandoned mid-call by a panic (e.g. one caught by a serving
/// engine's `catch_unwind` isolation) can therefore be reused as-is and
/// still computes bit-identical results; [`GemmScratch::reset`] merely
/// discards the stale contents eagerly.
#[derive(Debug, Clone, Default)]
pub struct GemmScratch {
    x8: Vec<i16>,
    xscale: Vec<f64>,
    code_buf: Vec<u8>,
    group_buf: Vec<i16>,
    out_t: Vec<f32>,
}

impl GemmScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the buffers (capacity kept). Correctness never requires
    /// this — see the type docs — but a recovery path that wants to drop
    /// data a caught panic left behind can call it cheaply.
    pub fn reset(&mut self) {
        self.x8.clear();
        self.xscale.clear();
        self.code_buf.clear();
        self.group_buf.clear();
        self.out_t.clear();
    }
}

/// Decodes the activation stream into the scratch (i16 LUT lookups, no
/// float round-trip) and returns the padded row width `kp`.
///
/// * `x8` — values ×8, row-major. Each group owns a slot of
///   `2·⌈gs/2⌉` lanes holding its **even** elements, then its **odd**
///   ones: the order in which a weight group's code bytes carry their low
///   and high nibbles, so a kernel multiplies the split nibbles against
///   the slot halves with no shuffle. Zero padding keeps ragged trailing
///   groups exact (zero codes contribute nothing to any product).
/// * `xscale` — `2^(e−6)` (the group scale times [`FIXED_POINT_UNIT`]),
///   group-major (`g·m + row`) so [`MR`] consecutive rows of one group
///   load as one vector, plus [`MR`] zero entries of tail padding.
// m2x-lint: hot
fn decode_act_plane(x: &PackedActTensor, s: &mut GemmScratch) -> usize {
    let gs = x.config().group_size;
    let sgs = x.config().subgroup_size;
    let gpr = x.groups_per_row();
    let half = gs.div_ceil(2);
    let kp = gpr * 2 * half;
    let m = x.shape().0;
    let (x8, xscale) = (&mut s.x8, &mut s.xscale);
    let (code_buf, group_buf) = (&mut s.code_buf, &mut s.group_buf);
    x8.clear();
    x8.resize(m * kp, 0);
    xscale.clear();
    xscale.resize(gpr * m + MR, 0.0);
    code_buf.clear();
    code_buf.resize(gs, 0);
    group_buf.clear();
    group_buf.resize(gs, 0);
    for (g, &scale) in x.scales().iter().enumerate() {
        let len = x.group_len(g);
        let (row, gi) = (g / gpr, g % gpr);
        let (codes, vals) = (&mut code_buf[..len], &mut group_buf[..len]);
        for (i, (c, v)) in codes.iter_mut().zip(vals.iter_mut()).enumerate() {
            *c = x.code_at(g, i);
            *v = FP4_X8[*c as usize] as i16;
        }
        refine_top1_x8(codes, |sg| x.meta_at(g, sg), sgs, vals);
        let slot = &mut x8[row * kp + gi * 2 * half..][..2 * half];
        for (i, &v) in vals.iter().enumerate() {
            slot[i / 2 + (i & 1) * half] = v;
        }
        xscale[gi * m + row] = E8M0_F64[scale as usize] * FIXED_POINT_UNIT;
    }
    kp
}

/// What one kernel call reads: the decoded activation plane (see
/// [`decode_act_plane`]) and the weight streams in place, with the group
/// geometry both share.
#[derive(Clone, Copy)]
struct Operands<'a> {
    x8: &'a [i16],
    xscale: &'a [f64],
    m: usize,
    kp: usize,
    codes: &'a [u8],
    scales: &'a [u8],
    meta: &'a [u8],
    gpr: usize,
    gs: usize,
    sgs: usize,
}

impl<'a> Operands<'a> {
    /// Activation row `i` of the plane.
    #[inline(always)]
    fn x_row(&self, i: usize) -> &'a [i16] {
        &self.x8[i * self.kp..(i + 1) * self.kp]
    }

    /// `xs·2⁻⁶·ws` of activation row `i` and weight group `wg` (row `j`,
    /// group `g`) — the operands and order of every body, so each output
    /// sees the same f64 products.
    #[inline(always)]
    fn scale(&self, i: usize, g: usize, wg: usize) -> f64 {
        self.xscale[g * self.m + i] * E8M0_F64[self.scales[wg] as usize]
    }
}

/// The output region a worker owns: element `(i, j)` of the full output
/// lands at `(i − r0)·rs + (j − c0)·cs` — row-major row chunks
/// (`rs = n, cs = 1`) or the transposed column chunks of the column split
/// (`rs = 1, cs = m`).
struct Dst<'a> {
    out: &'a mut [f32],
    r0: usize,
    c0: usize,
    rs: usize,
    cs: usize,
}

impl Dst<'_> {
    #[inline(always)]
    fn put(&mut self, i: usize, j: usize, acc: f64) {
        self.out[(i - self.r0) * self.rs + (j - self.c0) * self.cs] = acc as f32;
    }
}

/// One group's integer dot in units of 1/64: the activation slot (even
/// elements, then odd) against the group's code bytes (low nibble = even
/// element, high = odd), each weight ×2 and ×(4 + its subgroup's Sg-EM
/// code). Exact in i32: |x8| ≤ 60 and |w·(4+m)| ≤ 84 per lane, a group
/// total ≤ 32·5040. `field0` is the group's first metadata field.
#[inline(always)]
fn dot_scalar(codes: &[u8], meta: &[u8], field0: usize, spg: usize, sgs: usize, x: &[i16]) -> i32 {
    let (xe, xo) = x.split_at(codes.len());
    // Clamped so the slack nibble of an odd group size (code 0, worth
    // nothing) never reads the next group's metadata.
    let mult = |i: usize| 4 + two_bits_at(meta, field0 + (i / sgs).min(spg - 1)) as i32;
    let mut s = 0i32;
    for (b, (&c, (&a, &o))) in codes.iter().zip(xe.iter().zip(xo)).enumerate() {
        s += a as i32 * FP4_X2[(c & 0xF) as usize] as i32 * mult(2 * b)
            + o as i32 * FP4_X2[(c >> 4) as usize] as i32 * mult(2 * b + 1);
    }
    s
}

/// The portable body over rows `i0..i0 + mr` × `cols`: per output, the
/// groups in ascending order, each an exact [`dot_scalar`] times
/// [`Operands::scale`] added to an f64 accumulator.
fn scalar_tile(op: &Operands, i0: usize, mr: usize, cols: Range<usize>, dst: &mut Dst) {
    let half = op.gs.div_ceil(2);
    let spg = op.gs / op.sgs;
    for j in cols {
        for i in i0..i0 + mr {
            let xr = op.x_row(i);
            let mut acc = 0.0f64;
            for (g, xg) in xr.chunks_exact(2 * half).enumerate() {
                let wg = j * op.gpr + g;
                let codes = &op.codes[wg * half..(wg + 1) * half];
                let dot = dot_scalar(codes, op.meta, wg * spg, spg, op.sgs, xg);
                acc += dot as f64 * op.scale(i, g, wg);
            }
            dst.put(i, j, acc);
        }
    }
}

/// The AVX2 body for group 32 / subgroup 8: 16 code bytes, one scale byte
/// and one metadata byte per group, read straight from the streams.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Dst, Operands, E8M0_F64, MR};
    use m2x_formats::tables::FP4_X2;
    use std::arch::x86_64::*;
    use std::ops::Range;

    // The row tile reduces exactly four row dots per group.
    const _: () = assert!(MR == 4);

    /// `4 + code` of each subgroup, per metadata byte, spread over the 16
    /// lanes of one nibble half (lane `l` holds element `2l` or `2l + 1`,
    /// both in subgroup `l / 4`).
    static SG_MULT16: [[i16; 16]; 256] = sg_mult_table();

    const fn sg_mult_table() -> [[i16; 16]; 256] {
        let mut t = [[0i16; 16]; 256];
        let mut b = 0;
        while b < 256 {
            let mut l = 0;
            while l < 16 {
                t[b][l] = 4 + ((b >> (2 * (l / 4))) & 3) as i16;
                l += 1;
            }
            b += 1;
        }
        t
    }

    /// Weight group `wg` as two i16 vectors (even elements, odd elements):
    /// the 16 code bytes split into nibbles, looked up in `FP4_X2` (value
    /// ×2) and multiplied by the subgroup's `4 + code` (|w| ≤ 84).
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    // SAFETY: callers guarantee AVX2 (see `run_region`).
    unsafe fn weight_group(op: &Operands, wg: usize) -> (__m256i, __m256i) {
        let codes = &op.codes[wg * 16..(wg + 1) * 16];
        let mult = &SG_MULT16[op.meta[wg] as usize];
        let lut: [i8; 16] = FP4_X2;
        // SAFETY: `codes` is a 16-byte slice, `lut` 16 `i8`s and `mult` 16
        // `i16`s: each unaligned load reads exactly its source.
        let (c, lut, mult) = unsafe {
            (
                _mm_loadu_si128(codes.as_ptr().cast()),
                _mm_loadu_si128(lut.as_ptr().cast()),
                _mm256_loadu_si256(mult.as_ptr().cast()),
            )
        };
        let mask = _mm_set1_epi8(0x0F);
        let lo = _mm_shuffle_epi8(lut, _mm_and_si128(c, mask));
        let hi = _mm_shuffle_epi8(lut, _mm_and_si128(_mm_srli_epi16(c, 4), mask));
        (
            _mm256_mullo_epi16(_mm256_cvtepi8_epi16(lo), mult),
            _mm256_mullo_epi16(_mm256_cvtepi8_epi16(hi), mult),
        )
    }

    /// Activation slot `g` of row `xr` as two i16 vectors (even
    /// elements, odd elements).
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    // SAFETY: callers guarantee AVX2 (see `run_region`).
    unsafe fn act_slot(xr: &[i16], g: usize) -> (__m256i, __m256i) {
        let x = &xr[g * 32..(g + 1) * 32];
        // SAFETY: `x` is a 32-element `i16` slice; the loads read its two
        // 16-element halves.
        unsafe {
            (
                _mm256_loadu_si256(x.as_ptr().cast()),
                _mm256_loadu_si256(x[16..].as_ptr().cast()),
            )
        }
    }

    /// The dot of a decoded weight group with a decoded activation slot,
    /// as eight i32 partial sums.
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    // SAFETY: callers guarantee AVX2 (see `run_region`).
    unsafe fn dot8(w: (__m256i, __m256i), x: (__m256i, __m256i)) -> __m256i {
        _mm256_add_epi32(_mm256_madd_epi16(w.0, x.0), _mm256_madd_epi16(w.1, x.1))
    }

    /// Reduces four 8-lane partial sums to their four totals, as f64
    /// (exact: every total fits an i32).
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    // SAFETY: callers guarantee AVX2 (see `run_region`).
    unsafe fn hsum4(d: [__m256i; 4]) -> __m256d {
        let a = _mm256_hadd_epi32(d[0], d[1]);
        let b = _mm256_hadd_epi32(d[2], d[3]);
        let c = _mm256_hadd_epi32(a, b);
        let s = _mm_add_epi32(_mm256_castsi256_si128(c), _mm256_extracti128_si256(c, 1));
        _mm256_cvtepi32_pd(s)
    }

    /// Rows `i0..i0 + mr` (2 ≤ `mr` ≤ [`MR`]) × `cols`, two columns at
    /// a time: each group's four activation slots are loaded once, each
    /// weight group is decoded once, and every column's four row dots
    /// share one reduction and one f64 vector step. Lanes past `mr` repeat
    /// the last row, a lone last column is computed twice; both extras
    /// are dropped.
    ///
    /// # Safety
    ///
    /// The host must support AVX2; the geometry must be group 32 /
    /// subgroup 8.
    #[target_feature(enable = "avx2")]
    // SAFETY: callers guarantee AVX2 and the geometry (see `run_region`).
    pub(super) unsafe fn tile_rows(
        op: &Operands,
        i0: usize,
        mr: usize,
        cols: Range<usize>,
        dst: &mut Dst,
    ) {
        let xr: [&[i16]; MR] = std::array::from_fn(|r| op.x_row(i0 + r.min(mr - 1)));
        let mut lanes = [[0.0f64; MR]; 2];
        let mut j = cols.start;
        while j < cols.end {
            let nc = 2.min(cols.end - j);
            let (ra, rb) = (j * op.gpr, (j + nc - 1) * op.gpr);
            let (mut acc_a, mut acc_b) = (_mm256_setzero_pd(), _mm256_setzero_pd());
            for g in 0..op.gpr {
                let x = [
                    act_slot(xr[0], g),
                    act_slot(xr[1], g),
                    act_slot(xr[2], g),
                    act_slot(xr[3], g),
                ];
                let (wa, wb) = (weight_group(op, ra + g), weight_group(op, rb + g));
                let da = hsum4([
                    dot8(wa, x[0]),
                    dot8(wa, x[1]),
                    dot8(wa, x[2]),
                    dot8(wa, x[3]),
                ]);
                let db = hsum4([
                    dot8(wb, x[0]),
                    dot8(wb, x[1]),
                    dot8(wb, x[2]),
                    dot8(wb, x[3]),
                ]);
                let xs = &op.xscale[g * op.m + i0..][..MR];
                // SAFETY: `xs` is an `MR`-element (4) `f64` slice.
                let xs = unsafe { _mm256_loadu_pd(xs.as_ptr()) };
                let wsa = _mm256_set1_pd(E8M0_F64[op.scales[ra + g] as usize]);
                let wsb = _mm256_set1_pd(E8M0_F64[op.scales[rb + g] as usize]);
                acc_a = _mm256_add_pd(acc_a, _mm256_mul_pd(da, _mm256_mul_pd(xs, wsa)));
                acc_b = _mm256_add_pd(acc_b, _mm256_mul_pd(db, _mm256_mul_pd(xs, wsb)));
            }
            // SAFETY: each `lanes` row is 4 writable `f64`s.
            unsafe {
                _mm256_storeu_pd(lanes[0].as_mut_ptr(), acc_a);
                _mm256_storeu_pd(lanes[1].as_mut_ptr(), acc_b);
            }
            for (c, col) in lanes.iter().take(nc).enumerate() {
                for (r, &a) in col.iter().take(mr).enumerate() {
                    dst.put(i0 + r, j + c, a);
                }
            }
            j += 2;
        }
    }

    /// Row `i` × `cols`, four columns at a time: the activation slot of
    /// each group is dotted against four weight groups, whose totals share
    /// one reduction and one f64 vector step. Lanes past the last column
    /// repeat it and are dropped.
    ///
    /// # Safety
    ///
    /// The host must support AVX2; the geometry must be group 32 /
    /// subgroup 8.
    #[target_feature(enable = "avx2")]
    // SAFETY: callers guarantee AVX2 and the geometry (see `run_region`).
    pub(super) unsafe fn tile_cols(op: &Operands, i: usize, cols: Range<usize>, dst: &mut Dst) {
        let xr = op.x_row(i);
        let mut lanes = [0.0f64; 4];
        let mut j = cols.start;
        while j < cols.end {
            let nc = 4.min(cols.end - j);
            let w0: [usize; 4] = std::array::from_fn(|c| (j + c.min(nc - 1)) * op.gpr);
            let mut acc = _mm256_setzero_pd();
            for g in 0..op.gpr {
                let x = act_slot(xr, g);
                let dots = hsum4([
                    dot8(weight_group(op, w0[0] + g), x),
                    dot8(weight_group(op, w0[1] + g), x),
                    dot8(weight_group(op, w0[2] + g), x),
                    dot8(weight_group(op, w0[3] + g), x),
                ]);
                let ws = w0.map(|r| E8M0_F64[op.scales[r + g] as usize]);
                // SAFETY: `ws` is 4 readable `f64`s.
                let ws = unsafe { _mm256_loadu_pd(ws.as_ptr()) };
                let scale = _mm256_mul_pd(_mm256_set1_pd(op.xscale[g * op.m + i]), ws);
                acc = _mm256_add_pd(acc, _mm256_mul_pd(dots, scale));
            }
            // SAFETY: `lanes` is 4 writable `f64`s.
            unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), acc) };
            for (c, &a) in lanes.iter().take(nc).enumerate() {
                dst.put(i, j + c, a);
            }
            j += 4;
        }
    }
}

/// Runs `isa`'s body over rows `rows` × columns `cols` into `dst`:
/// [`COL_TILE`] column tiles keep a tile's weight streams cache-hot across
/// the [`MR`]-row blocks. Every output accumulates its groups in
/// ascending order with the same f64 operands whatever the blocking, so
/// every tiling, split and body gives the same bits.
// m2x-lint: hot
fn run_region(
    isa: KernelIsa,
    op: &Operands,
    rows: Range<usize>,
    cols: Range<usize>,
    dst: &mut Dst,
) {
    let simd = isa == KernelIsa::Avx2 && op.gs == 32 && op.sgs == 8;
    for jt in (cols.start..cols.end).step_by(COL_TILE) {
        let jhi = (jt + COL_TILE).min(cols.end);
        let mut i0 = rows.start;
        while i0 < rows.end {
            let mr = MR.min(rows.end - i0);
            match (simd, mr) {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `simd` holds only for `KernelIsa::Avx2`, which
                // `planed_into` receives only when the host supports AVX2,
                // and only for the group-32 / subgroup-8 geometry.
                (true, 1) => unsafe { avx2::tile_cols(op, i0, jt..jhi, dst) },
                #[cfg(target_arch = "x86_64")]
                // SAFETY: as above.
                (true, _) => unsafe { avx2::tile_rows(op, i0, mr, jt..jhi, dst) },
                _ => scalar_tile(op, i0, mr, jt..jhi, dst),
            }
            i0 += mr;
        }
    }
}

/// The weight operand of the packed kernels: a [`PackedWeightTensor`]'s
/// three streams (nibble codes, E8M0 scales, 2-bit Sg-EM metadata), held
/// as they are — 4.5 bits per weight, no decoded copy. The kernels decode
/// each group in registers as they stream it. Build one with `From` (takes
/// the tensor) or [`Self::decode`] (copies a borrowed one).
#[derive(Debug, Clone, PartialEq)]
pub struct WeightPlane {
    packed: PackedWeightTensor,
}

impl From<PackedWeightTensor> for WeightPlane {
    fn from(packed: PackedWeightTensor) -> Self {
        WeightPlane { packed }
    }
}

impl WeightPlane {
    /// A plane over a copy of `w`'s streams.
    pub fn decode(w: &PackedWeightTensor) -> Self {
        Self::from(w.clone())
    }

    /// The streams the kernels read.
    pub fn packed(&self) -> &PackedWeightTensor {
        &self.packed
    }

    /// Matrix shape `(rows, cols)` = `(N, K)`.
    pub fn shape(&self) -> (usize, usize) {
        self.packed.shape()
    }

    /// Appends `delta`'s rows below the existing ones: O(delta) stream
    /// bytes, bit-identical to a plane over the row-concatenated tensor,
    /// which the tests pin — the KV-cache growth path.
    ///
    /// # Errors
    ///
    /// Fails when `delta`'s width or configuration differs.
    pub fn append(&mut self, delta: &PackedWeightTensor) -> Result<(), Error> {
        self.packed.append_packed(delta)
    }

    /// Drops all rows while keeping the stream allocations — the KV
    /// page-frame recycling path. The cleared plane equals a plane over an
    /// empty tensor with the same geometry (equality ignores capacity).
    pub fn clear_rows(&mut self) {
        self.packed.clear_rows();
    }
}

/// The one body of the packed entry points: checks the geometry, decodes
/// `x` into `scratch` and runs `isa`'s kernel over the `x.rows() × n`
/// output `out` on `threads` workers (inline at one). Workers split the
/// output rows when each gets at least [`MR`] of them; smaller batches
/// split the output *columns* instead, so each worker streams only its
/// share of the weights (written transposed into the scratch, then copied
/// out). An empty output is left untouched.
// m2x-lint: hot
fn planed_into(
    isa: KernelIsa,
    x: &PackedActTensor,
    w: &WeightPlane,
    threads: usize,
    scratch: &mut GemmScratch,
    out: &mut [f32],
) {
    let wt = &w.packed;
    let (n, k) = wt.shape();
    assert_eq!(x.shape().1, k, "reduction dimension mismatch");
    assert_eq!(
        (x.config().group_size, x.config().subgroup_size),
        (wt.config().group_size, wt.config().subgroup_size),
        "group geometry mismatch"
    );
    if out.is_empty() {
        return;
    }
    let m = x.shape().0;
    let kp = decode_act_plane(x, scratch);
    let op = Operands {
        x8: &scratch.x8,
        xscale: &scratch.xscale,
        m,
        kp,
        codes: wt.codes(),
        scales: wt.scales(),
        meta: wt.meta(),
        gpr: x.groups_per_row(),
        gs: x.config().group_size,
        sgs: x.config().subgroup_size,
    };
    let region = |rows: Range<usize>, cols: Range<usize>, out: &mut [f32], rs: usize, cs: usize| {
        let (r0, c0) = (rows.start, cols.start);
        run_region(
            isa,
            &op,
            rows,
            cols,
            &mut Dst {
                out,
                r0,
                c0,
                rs,
                cs,
            },
        );
    };
    if threads <= 1 {
        region(0..m, 0..n, out, n, 1);
    } else if m < MR * threads {
        let out_t = &mut scratch.out_t;
        out_t.clear();
        out_t.resize(n * m, 0.0);
        par_row_chunks(out_t, m, threads, |j0, chunk| {
            region(0..m, j0..j0 + chunk.len() / m, chunk, 1, m);
        });
        for (j, col) in out_t.chunks_exact(m).enumerate() {
            for (i, &v) in col.iter().enumerate() {
                out[i * n + j] = v;
            }
        }
    } else {
        par_row_chunks(out, n, threads, |i0, chunk| {
            region(i0..i0 + chunk.len() / n, 0..n, chunk, n, 1);
        });
    }
}

/// The packed qGEMM `Y[M,N] = X[M,K] · W^T[N,K]` straight off the weight
/// streams — the production entry for any number of rows, on the best
/// body the host supports ([`kernel_isa`]). The activation decode reuses
/// the caller-held [`GemmScratch`] in place, so after the first call at a
/// given shape the only allocation is the output matrix. `threads`
/// workers split the output (see [`gemm_threads`]); at one thread the
/// kernel runs inline on the caller. Every thread count and body produces
/// identical bits, bit-exact against [`qgemm_reference`]. Zero-row and
/// zero-column inputs return the corresponding empty matrix.
///
/// # Panics
///
/// Panics when the reduction dimensions or group geometries disagree.
// m2x-lint: hot
pub fn qgemm_packed_planed_scratch(
    x: &PackedActTensor,
    w: &WeightPlane,
    threads: usize,
    scratch: &mut GemmScratch,
) -> Matrix {
    let mut out = Matrix::zeros(x.shape().0, w.shape().0);
    planed_into(
        KernelIsa::detect(),
        x,
        w,
        threads,
        scratch,
        out.as_mut_slice(),
    );
    out
}

/// [`qgemm_packed_planed_scratch`] on a named body instead of the detected
/// one, or `None` when this host cannot run it — how the tests hold every
/// SIMD body to the scalar one and both to [`qgemm_reference`].
///
/// # Panics
///
/// Panics when the reduction dimensions or group geometries disagree.
pub fn qgemm_packed_on(
    isa: KernelIsa,
    x: &PackedActTensor,
    w: &WeightPlane,
    threads: usize,
    scratch: &mut GemmScratch,
) -> Option<Matrix> {
    if !isa.available() {
        return None;
    }
    let mut out = Matrix::zeros(x.shape().0, w.shape().0);
    planed_into(isa, x, w, threads, scratch, out.as_mut_slice());
    Some(out)
}

/// The single-row GEMV writing into a caller-held output row: **zero heap
/// allocations** once `scratch` is warm at this shape, which
/// `tests/alloc_gate.rs` pins with a counting global allocator. Bit-exact
/// against [`qgemm_packed_planed_scratch`] at one row (same body, same
/// scratch decode, same accumulation order).
///
/// # Panics
///
/// Panics when `x` has more than one row, when `out.len()` differs from
/// the weight row count, or when the reduction dimensions or group
/// geometries disagree.
// m2x-lint: hot
pub fn qgemv_packed_into(
    x: &PackedActTensor,
    w: &WeightPlane,
    scratch: &mut GemmScratch,
    out: &mut [f32],
) {
    assert_eq!(x.shape().0, 1, "qgemv_packed_into expects exactly one row");
    assert_eq!(out.len(), w.shape().0, "output row length mismatch");
    planed_into(KernelIsa::detect(), x, w, 1, scratch, out);
}

/// Floating-point reference: dequantizes both tensors and multiplies in
/// f64. All quantized values are small dyadic rationals, so this is exact
/// and must equal [`qgemm`] bit-for-bit after the final f32 rounding.
pub fn qgemm_reference(x: &ActTensor, w: &WeightTensor) -> Matrix {
    let xd = x.dequantize();
    let wd = w.dequantize();
    let (m, k) = x.shape();
    let n = w.shape().0;
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            let xr = xd.row(i);
            let wr = wd.row(j);
            for kk in 0..k {
                acc += xr[kk] as f64 * wr[kk] as f64;
            }
            out[(i, j)] = acc as f32;
        }
    }
    out
}

/// The Eq. 5 decomposition for one subgroup: `W×X' = W×X + W×ΔX`, where `X`
/// is the FP4 baseline (values ×8) and `ΔX` the extra-mantissa correction
/// applied at `top_idx`. Returns (baseline, correction) partial sums in
/// units of 1/16.
pub fn pe_subgroup_decomposed(
    x8_base: &[i64],
    w2: &[i64],
    top_idx: usize,
    delta8: i64,
) -> (i64, i64) {
    let base: i64 = x8_base.iter().zip(w2).map(|(&a, &b)| a * b).sum();
    let corr = delta8 * w2[top_idx];
    (base, corr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::M2xfpConfig;

    fn mat(rows: usize, cols: usize, seed: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let t = (r * cols + c) as f32 + seed;
            (t * 0.713).sin() * 2.5 + (t * 0.137).cos() * 0.5
        })
    }

    #[test]
    fn fixed_point_matches_reference_exactly() {
        let cfg = M2xfpConfig::default();
        let x = ActTensor::quantize(&mat(5, 64, 0.0), cfg);
        let w = WeightTensor::quantize(&mat(7, 64, 9.0), cfg);
        let a = qgemm(&x, &w);
        let b = qgemm_reference(&x, &w);
        for i in 0..5 {
            for j in 0..7 {
                assert_eq!(
                    a[(i, j)].to_bits(),
                    b[(i, j)].to_bits(),
                    "mismatch at ({i},{j}): {} vs {}",
                    a[(i, j)],
                    b[(i, j)]
                );
            }
        }
    }

    /// The production entry through a fresh plane and a fresh
    /// scratch: the one-shot form of a packed GEMM.
    fn planed(xp: &PackedActTensor, wp: &PackedWeightTensor, threads: usize) -> Matrix {
        qgemm_packed_planed_scratch(
            xp,
            &WeightPlane::decode(wp),
            threads,
            &mut GemmScratch::new(),
        )
    }

    #[test]
    fn packed_matches_reference_exactly() {
        let cfg = M2xfpConfig::default();
        let xm = mat(5, 96, 0.0);
        let wm = mat(7, 96, 9.0);
        let want = qgemm_reference(
            &ActTensor::quantize(&xm, cfg),
            &WeightTensor::quantize(&wm, cfg),
        );
        let xp = PackedActTensor::quantize(&xm, cfg);
        let wp = PackedWeightTensor::quantize(&wm, cfg);
        for threads in [1, 2, 4] {
            let got = planed(&xp, &wp, threads);
            for i in 0..5 {
                for j in 0..7 {
                    assert_eq!(
                        got[(i, j)].to_bits(),
                        want[(i, j)].to_bits(),
                        "threads={threads} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_matches_reference_on_ragged_k() {
        // K = 80 = 32 + 32 + 16: exercises ragged trailing groups and the
        // zero-padded tail subgroups of the packed kernel.
        let cfg = M2xfpConfig::default();
        let xm = mat(3, 80, 1.0);
        let wm = mat(4, 80, 2.0);
        let want = qgemm_reference(
            &ActTensor::quantize(&xm, cfg),
            &WeightTensor::quantize(&wm, cfg),
        );
        let got = planed(
            &PackedActTensor::quantize(&xm, cfg),
            &PackedWeightTensor::quantize(&wm, cfg),
            gemm_threads(3, 80, 4),
        );
        assert_eq!(got, want);
    }

    #[test]
    fn planed_kernel_matches_per_call_decode() {
        // A cached WeightPlane and scratch reused across calls give the
        // same bits as a fresh decode every call.
        let cfg = M2xfpConfig::default();
        let wm = mat(5, 80, 4.0);
        let wp = PackedWeightTensor::quantize(&wm, cfg);
        let plane = WeightPlane::decode(&wp);
        assert_eq!(plane.shape(), (5, 80));
        let mut scratch = GemmScratch::new();
        for seed in [0.0, 6.0] {
            let xp = PackedActTensor::quantize(&mat(3, 80, seed), cfg);
            assert_eq!(
                qgemm_packed_planed_scratch(&xp, &plane, 2, &mut scratch),
                planed(&xp, &wp, 2),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn appended_plane_matches_full_decode() {
        // Growing a plane row-chunk by row-chunk (the KV-cache pattern) is
        // identical to a plane over the fully grown tensor — bit for bit on
        // the raw streams via PartialEq — including ragged K and a
        // metadata granularity whose per-group run is not byte-aligned
        // (subgroup 16 → 4 bits/group).
        let mut scratch = GemmScratch::new();
        for cfg in [
            M2xfpConfig::default(),
            M2xfpConfig {
                subgroup_size: 16,
                ..M2xfpConfig::default()
            },
        ] {
            for cols in [64usize, 80] {
                let full = mat(7, cols, 3.0);
                let want = WeightPlane::decode(&PackedWeightTensor::quantize(&full, cfg));
                let mut grown = WeightPlane::decode(&PackedWeightTensor::quantize(
                    &Matrix::zeros(0, cols),
                    cfg,
                ));
                let mut row = 0usize;
                for chunk in [2usize, 1, 3, 1] {
                    let delta = Matrix::from_fn(chunk, cols, |r, c| full[(row + r, c)]);
                    grown
                        .append(&PackedWeightTensor::quantize(&delta, cfg))
                        .unwrap();
                    row += chunk;
                }
                assert_eq!(grown, want, "cols={cols} sg={}", cfg.subgroup_size);
                let wider = PackedWeightTensor::quantize(&mat(1, cols + 32, 0.0), cfg);
                assert!(grown.append(&wider).is_err());
                // And the kernel consumes the grown plane bit-identically.
                let xp = PackedActTensor::quantize(&mat(3, cols, 1.0), cfg);
                assert_eq!(
                    qgemm_packed_planed_scratch(&xp, &grown, 1, &mut scratch),
                    qgemm_packed_planed_scratch(&xp, &want, 1, &mut scratch),
                );
            }
        }
    }

    #[test]
    fn gemv_matches_planed_and_reference_bitwise() {
        // The zero-alloc GEMV (reused scratch and output row) and the
        // planed entry at one row agree with the f64 reference on the
        // m == 1 serving shape, including NR-unaligned n and ragged K.
        let cfg = M2xfpConfig::default();
        let mut scratch = GemmScratch::new();
        let mut out = Vec::new();
        for (n, cols) in [(1usize, 64usize), (5, 80), (7, 96), (13, 41)] {
            let xm = mat(1, cols, 2.0);
            let wm = mat(n, cols, 8.0);
            let want = qgemm_reference(
                &ActTensor::quantize(&xm, cfg),
                &WeightTensor::quantize(&wm, cfg),
            );
            let xp = PackedActTensor::quantize(&xm, cfg);
            let plane = WeightPlane::decode(&PackedWeightTensor::quantize(&wm, cfg));
            // The same scratch and output buffer are reused across shapes
            // on purpose.
            out.resize(n, f32::NAN);
            qgemv_packed_into(&xp, &plane, &mut scratch, &mut out);
            assert_eq!(out, want.as_slice(), "gemv n={n} cols={cols}");
            for threads in [1, 3] {
                let got = qgemm_packed_planed_scratch(&xp, &plane, threads, &mut scratch);
                assert_eq!(got, want, "planed n={n} cols={cols} threads={threads}");
            }
        }
    }

    #[test]
    fn degenerate_shapes_return_empty_matrices() {
        // (0, k), (m, 0) and (0, 0) shapes produce empty outputs on every
        // kernel instead of relying on incidental chunk arithmetic.
        let cfg = M2xfpConfig::default();
        let x0 = PackedActTensor::quantize(&Matrix::zeros(0, 64), cfg);
        let xm = PackedActTensor::quantize(&mat(3, 64, 0.0), cfg);
        let w0 = WeightPlane::decode(&PackedWeightTensor::quantize(&Matrix::zeros(0, 64), cfg));
        let wn = WeightPlane::decode(&PackedWeightTensor::quantize(&mat(4, 64, 9.0), cfg));
        let mut scratch = GemmScratch::new();
        let dims = |y: &Matrix| (y.rows(), y.cols());
        for threads in [1, 2] {
            let mut run = |x, w| dims(&qgemm_packed_planed_scratch(x, w, threads, &mut scratch));
            // (0, k) × (n, k) → 0 × n.
            assert_eq!(run(&x0, &wn), (0, 4));
            // (m, k) × (0, k) → m × 0.
            assert_eq!(run(&xm, &w0), (3, 0));
            // (0, k) × (0, k) → 0 × 0.
            assert_eq!(run(&x0, &w0), (0, 0));
        }
        // One row against zero columns: the GEMV writes nothing.
        let x1 = PackedActTensor::quantize(&mat(1, 64, 5.0), cfg);
        qgemv_packed_into(&x1, &w0, &mut scratch, &mut []);
        // The grouped kernels agree on the shapes.
        let g0 = ActTensor::quantize(&Matrix::zeros(0, 64), cfg);
        let gw = WeightTensor::quantize(&Matrix::zeros(0, 64), cfg);
        assert_eq!(dims(&qgemm(&g0, &gw)), (0, 0));
        assert_eq!(dims(&qgemm_reference(&g0, &gw)), (0, 0));
    }

    #[test]
    fn scratch_reuse_is_bit_stable() {
        // Calling through one scratch repeatedly (the decode hot loop)
        // yields the same bits as fresh scratches every call.
        let cfg = M2xfpConfig::default();
        let wp = PackedWeightTensor::quantize(&mat(6, 96, 3.0), cfg);
        let plane = WeightPlane::decode(&wp);
        let mut scratch = GemmScratch::new();
        let (mut reused, mut fresh) = ([0.0f32; 6], [0.0f32; 6]);
        for seed in [0.0f32, 2.0, 4.0, 6.0] {
            let xp = PackedActTensor::quantize(&mat(1, 96, seed), cfg);
            qgemv_packed_into(&xp, &plane, &mut scratch, &mut reused);
            qgemv_packed_into(&xp, &plane, &mut GemmScratch::new(), &mut fresh);
            assert_eq!(reused, fresh, "seed {seed}");
        }
    }

    #[test]
    fn gemm_threads_guard_matches_formula() {
        // The early return for single-row and one-worker problems gives
        // the value of the full formula everywhere.
        let avail = std::thread::available_parallelism().map_or(1, |t| t.get());
        let formula = |m: usize, k: usize, n: usize| {
            let macs = m.saturating_mul(k).saturating_mul(n);
            avail.min(macs / GEMM_MACS_PER_THREAD).min(m.max(1)).max(1)
        };
        let sizes = [0usize, 1, 2, 3, 7, 64, 1024, 4096, 14336, 1 << 20];
        for m in [0usize, 1, 2, 3, 4, 8, 32, 512, 4096] {
            for k in sizes {
                for n in sizes {
                    assert_eq!(gemm_threads(m, k, n), formula(m, k, n), "m={m} k={k} n={n}");
                }
            }
        }
        assert_eq!(
            gemm_threads(usize::MAX, usize::MAX, 2),
            formula(usize::MAX, usize::MAX, 2)
        );
    }

    #[test]
    fn quantized_gemm_close_to_full_precision() {
        let cfg = M2xfpConfig::default();
        let xm = mat(4, 128, 1.0);
        let wm = mat(6, 128, 2.0);
        let y_ref = xm.matmul(&wm.transpose());
        let y_q = qgemm(
            &ActTensor::quantize(&xm, cfg),
            &WeightTensor::quantize(&wm, cfg),
        );
        let e = m2x_tensor::stats::nmse(y_ref.as_slice(), y_q.as_slice());
        assert!(e < 0.02, "relative output error too large: {e}");
        assert!(e > 0.0);
    }

    #[test]
    fn eq5_decomposition_is_exact() {
        // W×X' = W×X + W×ΔX for every subgroup of a quantized tensor.
        let cfg = M2xfpConfig::default();
        let xm = mat(3, 64, 3.0);
        let x = ActTensor::quantize(&xm, cfg);
        let sg_size = cfg.subgroup_size;
        for g in x.groups() {
            for (sg_idx, sg_codes) in g.codes.chunks(sg_size).enumerate() {
                let local = top1_index(sg_codes);
                let x8_base: Vec<i64> = sg_codes
                    .iter()
                    .map(|&c| FP4_X8[c as usize] as i64)
                    .collect();
                let refined8 = EXTRA_X8[sg_codes[local] as usize][g.meta[sg_idx] as usize] as i64;
                let mag = refined8.abs() as f32 / 8.0;
                let delta8 = refined8 - x8_base[local];
                // The refined magnitude is one of the bias-clamp candidates
                // for this FP4 magnitude (bit distance in [-1, +2]).
                let cands = m2x_formats::tables::fp6_candidates(sg_codes[local] & 7);
                assert!(cands.contains(&mag), "refined {mag} not in {cands:?}");
                // Any weight vector: decomposed == direct.
                let w2: Vec<i64> = (0..sg_codes.len() as i64).map(|i| (i % 25) - 12).collect();
                let mut x8_full = x8_base.clone();
                x8_full[local] = refined8;
                let direct: i64 = x8_full.iter().zip(&w2).map(|(&a, &b)| a * b).sum();
                let (base, corr) = pe_subgroup_decomposed(&x8_base, &w2, local, delta8);
                assert_eq!(base + corr, direct);
            }
        }
    }

    #[test]
    fn zero_inputs_give_zero_output() {
        let cfg = M2xfpConfig::default();
        let x = ActTensor::quantize(&Matrix::zeros(2, 32), cfg);
        let w = WeightTensor::quantize(&Matrix::zeros(3, 32), cfg);
        let y = qgemm(&x, &w);
        assert!(y.as_slice().iter().all(|&v| v == 0.0));
        let yp = planed(
            &PackedActTensor::quantize(&Matrix::zeros(2, 32), cfg),
            &PackedWeightTensor::quantize(&Matrix::zeros(3, 32), cfg),
            1,
        );
        assert!(yp.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn multi_group_reduction() {
        // K = 3 groups; exercises the per-group exponent alignment.
        let cfg = M2xfpConfig::default();
        let xm = mat(2, 96, 5.0).map(|v| v * 100.0); // larger dynamic range
        let wm = mat(2, 96, 7.0).map(|v| v * 0.01);
        let a = qgemm(
            &ActTensor::quantize(&xm, cfg),
            &WeightTensor::quantize(&wm, cfg),
        );
        let b = qgemm_reference(
            &ActTensor::quantize(&xm, cfg),
            &WeightTensor::quantize(&wm, cfg),
        );
        assert_eq!(a, b);
        let c = planed(
            &PackedActTensor::quantize(&xm, cfg),
            &PackedWeightTensor::quantize(&wm, cfg),
            2,
        );
        assert_eq!(c, b);
    }

    /// Every body this host runs, on `threads` workers, equals `want` bit
    /// for bit; the AVX2 body is among them whenever the host has AVX2.
    fn assert_every_body(
        xp: &PackedActTensor,
        plane: &WeightPlane,
        threads: usize,
        want: &Matrix,
        what: &str,
    ) {
        let mut scratch = GemmScratch::new();
        let mut ran = 0;
        for isa in KernelIsa::ALL {
            let Some(got) = qgemm_packed_on(isa, xp, plane, threads, &mut scratch) else {
                continue;
            };
            ran += 1;
            assert_eq!(
                (got.rows(), got.cols()),
                (want.rows(), want.cols()),
                "{what}"
            );
            for (idx, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{what} {isa:?} threads={threads} at {idx}"
                );
            }
        }
        assert_eq!(ran, 1 + usize::from(KernelIsa::Avx2.available()), "{what}");
    }

    #[test]
    fn gemm_kernel_isa_is_the_detected_body() {
        // `cargo test -p m2xfp gemm -- --nocapture` prints the body a run
        // exercised.
        println!("gemm kernel_isa: {}", kernel_isa());
        assert_eq!(kernel_isa(), KernelIsa::detect().name());
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            KernelIsa::Avx2.available(),
            std::arch::is_x86_feature_detected!("avx2")
        );
        assert!(KernelIsa::Scalar.available());
    }

    #[test]
    fn simd_and_scalar_bodies_match_reference() {
        // Ragged K (41, 80, 4100), every row count 1..=9 the row blocking
        // and the row/column split distinguish, column counts not a
        // multiple of 4 or below the worker count, 1–3 workers, subgroup
        // 16 (the scalar fallback) and every scale rule.
        for (case, &(k, sgs)) in [(41usize, 8usize), (80, 8), (4100, 8), (80, 16), (96, 16)]
            .iter()
            .enumerate()
        {
            let cfg = M2xfpConfig {
                subgroup_size: sgs,
                scale_rule: crate::ScaleRule::ALL[case % crate::ScaleRule::ALL.len()],
                ..M2xfpConfig::default()
            };
            for n in [1usize, 2, 7, 13] {
                let wm = mat(n, k, 9.0 + n as f32);
                let wt = WeightTensor::quantize(&wm, cfg);
                let plane = WeightPlane::decode(&PackedWeightTensor::quantize(&wm, cfg));
                for m in 1..=9usize {
                    if k > 1000 && m % 4 != 1 {
                        continue; // the long reduction: one row of each block shape
                    }
                    let xm = mat(m, k, m as f32).map(|v| v * 3.0);
                    let want = qgemm_reference(&ActTensor::quantize(&xm, cfg), &wt);
                    let xp = PackedActTensor::quantize(&xm, cfg);
                    for threads in 1..=3 {
                        let what = format!("k={k} sg={sgs} n={n} m={m}");
                        assert_every_body(&xp, &plane, threads, &want, &what);
                    }
                }
            }
        }
    }

    /// `buf` (a packed `elements | scales | meta` buffer of `groups`
    /// group-32 groups) with every scale byte set to `scale` and, with
    /// `clamp`, every code magnitude cut to at most 1.0 (code 2) so values
    /// times 2^127 stay finite in the f32 reference.
    fn restream(mut buf: Vec<u8>, groups: usize, scale: u8, clamp: bool) -> Vec<u8> {
        if clamp {
            for b in &mut buf[..groups * 16] {
                let cut = |c: u8| if c & 7 > 2 { (c & 8) | 2 } else { c };
                *b = cut(*b & 0xF) | (cut(*b >> 4) << 4);
            }
        }
        buf[groups * 16..groups * 17].fill(scale);
        buf
    }

    #[test]
    fn extreme_scale_bytes_match_reference() {
        // E8M0 bytes 0x00 (2^-127) and 0xFE (2^127) on either operand,
        // paired so the f32 reference stays finite: every body computes the
        // reference bits.
        let cfg = M2xfpConfig::default();
        let (m, n, k) = (5usize, 7usize, 96usize);
        let xt = ActTensor::quantize(&mat(m, k, 1.0).map(|v| v * 4.0), cfg);
        let wt = WeightTensor::quantize(&mat(n, k, 2.0), cfg);
        let (xg, wg) = (m * k / 32, n * k / 32);
        let (xbuf, wbuf) = (xt.pack().unwrap(), wt.pack().unwrap());
        let acts = |scale: Option<u8>, clamp: bool| match scale {
            None => xt.clone(),
            Some(s) => ActTensor::unpack(&restream(xbuf.clone(), xg, s, clamp), m, k, cfg).unwrap(),
        };
        let weights = |scale: Option<u8>, clamp: bool| match scale {
            None => wt.clone(),
            Some(s) => {
                WeightTensor::unpack(&restream(wbuf.clone(), wg, s, clamp), n, k, cfg).unwrap()
            }
        };
        for (xs, ws, clamp_x, clamp_w) in [
            (None, Some(0x00), false, false),
            (Some(0x00), None, false, false),
            (Some(0x00), Some(0xFE), false, true),
            (Some(0xFE), Some(0x00), true, false),
        ] {
            let (x, w) = (acts(xs, clamp_x), weights(ws, clamp_w));
            let want = qgemm_reference(&x, &w);
            assert!(want.as_slice().iter().all(|v| v.is_finite()));
            let plane = WeightPlane::from(PackedWeightTensor::from_grouped(&w));
            let xp = PackedActTensor::from_grouped(&x);
            for threads in [1, 2] {
                assert_every_body(&xp, &plane, threads, &want, &format!("x={xs:?} w={ws:?}"));
            }
        }
    }
}
