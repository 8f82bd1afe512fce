//! Criterion benchmarks of the M2XFP core primitives: the Algorithm-1
//! encoder (the unit the streaming Quantization Engine implements), the
//! Sg-EM weight search, pack/unpack, and the bit-exact quantized GEMMs —
//! legacy grouped pipeline versus the packed three-stream pipeline.
//!
//! Set `M2X_BENCH_GEMM_DIM=<n>` (or `M2X_BENCH_DIM`, the emitter's knob)
//! to scale the qGEMM comparison (M = 32, K = N = n; default 512). The
//! full-size acceptance run uses 4096 via the `bench_m2xfp_json` binary in
//! `src/bin`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use m2x_tensor::{Matrix, Xoshiro};
use m2xfp::format::{ActTensor, PackedActTensor, PackedWeightTensor, WeightTensor};
use m2xfp::gemm::{gemm_threads, qgemm_packed_planed_scratch, GemmScratch, WeightPlane};
use m2xfp::{activation, weight, GroupConfig, M2xfpConfig, ScaleRule};
use std::hint::black_box;

fn gemm_dim() -> usize {
    std::env::var("M2X_BENCH_GEMM_DIM")
        .or_else(|_| std::env::var("M2X_BENCH_DIM"))
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(512)
}

fn core_primitives(c: &mut Criterion) {
    let cfg = M2xfpConfig::default();
    let gc = GroupConfig::m2xfp_default();
    let mut rng = Xoshiro::seed(1);
    let group: Vec<f32> = rng.vec_of(32, |r| r.laplace(1.0));

    let mut g = c.benchmark_group("group_primitives");
    g.throughput(Throughput::Elements(32));
    g.bench_function("algorithm1_encode", |b| {
        b.iter(|| {
            black_box(activation::quantize_group(
                black_box(&group),
                gc,
                ScaleRule::Floor,
            ))
        });
    });
    let mut codes = [0u8; 32];
    let mut meta = [0u8; 4];
    g.bench_function("algorithm1_encode_into", |b| {
        b.iter(|| {
            black_box(activation::quantize_group_into(
                black_box(&group),
                gc,
                ScaleRule::Floor,
                &mut codes,
                &mut meta,
            ))
        });
    });
    let encoded = activation::quantize_group(&group, gc, ScaleRule::Floor);
    g.bench_function("algorithm1_decode", |b| {
        b.iter(|| black_box(activation::dequantize_group(black_box(&encoded), gc)));
    });
    g.bench_function("sgem_weight_search_adaptive", |b| {
        b.iter(|| {
            black_box(weight::quantize_group(
                black_box(&group),
                gc,
                ScaleRule::Floor,
                true,
            ))
        });
    });
    g.finish();

    let x = Matrix::from_fn(32, 512, |_, _| rng.laplace(1.0));
    let xt = ActTensor::quantize(&x, cfg);
    let mut g = c.benchmark_group("tensor_ops");
    g.sample_size(20);
    g.throughput(Throughput::Elements(x.len() as u64));
    g.bench_function("quantize_grouped", |b| {
        b.iter(|| black_box(ActTensor::quantize(black_box(&x), cfg)));
    });
    g.bench_function("quantize_packed", |b| {
        b.iter(|| black_box(PackedActTensor::quantize(black_box(&x), cfg)));
    });
    g.bench_function("pack", |b| {
        b.iter(|| black_box(xt.pack().unwrap()));
    });
    let bytes = xt.pack().unwrap();
    g.bench_function("unpack", |b| {
        b.iter(|| black_box(ActTensor::unpack(black_box(&bytes), 32, 512, cfg).unwrap()));
    });
    g.finish();

    let dim = gemm_dim();
    let (m, k, n) = (32, dim, dim);
    let x = Matrix::from_fn(m, k, |_, _| rng.laplace(1.0));
    let w = Matrix::from_fn(n, k, |_, _| rng.laplace(0.5));
    let xt = ActTensor::quantize(&x, cfg);
    let wt = WeightTensor::quantize(&w, cfg);
    let xp = PackedActTensor::quantize(&x, cfg);
    let wp = PackedWeightTensor::quantize(&w, cfg);
    let mut g = c.benchmark_group(format!("qgemm_{m}x{k}x{n}"));
    g.sample_size(10);
    g.throughput(Throughput::Elements((m * k * n) as u64));
    g.bench_function("grouped_pipeline", |b| {
        b.iter(|| black_box(m2xfp::gemm::qgemm(black_box(&xt), black_box(&wt))));
    });
    // One-shot packed calls: weight-plane decode, fresh scratch, kernel.
    let packed = |threads| {
        qgemm_packed_planed_scratch(
            black_box(&xp),
            &WeightPlane::decode(black_box(&wp)),
            threads,
            &mut GemmScratch::new(),
        )
    };
    g.bench_function("packed_1thread", |b| {
        b.iter(|| black_box(packed(1)));
    });
    let threads = gemm_threads(m, k, n);
    g.bench_function("packed_threaded", |b| {
        b.iter(|| black_box(packed(threads)));
    });
    g.bench_function("f64_reference", |b| {
        b.iter(|| black_box(m2xfp::gemm::qgemm_reference(black_box(&xt), black_box(&wt))));
    });
    g.finish();
}

criterion_group!(benches, core_primitives);
criterion_main!(benches);
