//! Timed calls into each layer's public functions at a workload's own
//! shapes, plus two host roofline probes. Bytes moved are computed from
//! tensor sizes, not measured.

use crate::drive::generate_request;
use crate::spec::{Rng, Workload};
use crate::stats::median;
use m2x_gateway::{http, json};
use m2x_nn::model::{ModelWeights, StepScratch};
use m2x_nn::profile::ModelProfile;
use m2x_nn::synth::{weight_matrix, LayerKind};
use m2x_serve::feedback_token;
use m2x_tensor::Matrix;
use m2xfp::backend::BackendKind;
use m2xfp::format::{PackedActTensor, PackedWeightTensor};
use m2xfp::gemm::{
    gemm_threads, qgemm_packed_planed_scratch, qgemv_packed_into, GemmScratch, WeightPlane,
};
use std::hint::black_box;
use std::time::Instant;

/// Host facts and roofline probes.
pub struct Host {
    pub cores: usize,
    /// Bit 0 AVX2, bit 1 AVX-512BW, bit 2 AVX-512 VNNI, bit 3 AVX-VNNI.
    pub isa_mask: u32,
    pub isa: String,
    /// Single-thread STREAM triad bandwidth, GB/s.
    pub stream_gbps: f64,
    /// Single-thread peak of group-32 i16 dot products, GMAC/s, with the
    /// instruction set this build targets (the kernels' own).
    pub int_dot_gmacps: f64,
}

impl Host {
    /// Seconds a kernel doing `macs` multiply-accumulates over `bytes` of
    /// memory traffic on `threads` threads would take at the roofline:
    /// the slower of the compute bound and the (single-thread) bandwidth
    /// bound.
    pub fn roofline_s(&self, macs: f64, bytes: f64, threads: usize) -> f64 {
        (macs / (self.int_dot_gmacps * threads as f64)).max(bytes / self.stream_gbps) / 1e9
    }
}

pub fn host() -> Host {
    let mut isa = Vec::new();
    let mut isa_mask = 0;
    #[cfg(target_arch = "x86_64")]
    for (bit, (name, on)) in [
        ("avx2", is_x86_feature_detected!("avx2")),
        ("avx512bw", is_x86_feature_detected!("avx512bw")),
        ("avx512vnni", is_x86_feature_detected!("avx512vnni")),
        ("avxvnni", is_x86_feature_detected!("avxvnni")),
    ]
    .into_iter()
    .enumerate()
    {
        if on {
            isa_mask |= 1 << bit;
            isa.push(name);
        }
    }
    Host {
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        isa_mask,
        isa: isa.join(","),
        stream_gbps: stream_triad_gbps(),
        int_dot_gmacps: int_dot_gmacps(),
    }
}

/// STREAM triad `a = b + s*c` over three 32 MiB arrays; best of 5
/// passes, 24 bytes counted per element as STREAM does.
fn stream_triad_gbps() -> f64 {
    let n = 4 << 20;
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let mut best = f64::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + 3.0 * c;
        }
        black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (24 * n) as f64 / best / 1e9
}

/// One group-32 i16 dot product, the shape the qGEMM kernels reduce.
#[inline(always)]
fn dot32(a: &[i16; 32], b: &[i16; 32]) -> i32 {
    let mut s = 0i32;
    for i in 0..32 {
        s += i32::from(a[i]) * i32::from(b[i]);
    }
    s
}

/// Group-32 i16 dot products over L1-resident data, 8 independent
/// accumulation chains (one per activation group); best of 5.
fn int_dot_gmacps() -> f64 {
    let groups = 64;
    let reps = 2000;
    let x: Vec<[i16; 32]> = (0..8)
        .map(|g| std::array::from_fn(|i| ((g * 32 + i) % 61) as i16 - 30))
        .collect();
    let w: Vec<[i16; 32]> = (0..groups)
        .map(|g| std::array::from_fn(|i| ((g * 32 + i) % 83) as i16 - 41))
        .collect();
    let mut best = f64::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        let mut acc = [0i32; 8];
        for _ in 0..reps {
            for wg in black_box(&w[..]) {
                for (a, xg) in acc.iter_mut().zip(black_box(&x[..])) {
                    *a = a.wrapping_add(dot32(xg, wg));
                }
            }
        }
        black_box(acc);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (reps * groups * 8 * 32) as f64 / best / 1e9
}

/// One timed kernel call shape. Bytes are computed from tensor sizes:
/// the decoded weight plane, the i16 activation plane with its per-group
/// f64 scales, and the f32 output.
#[derive(Default, Clone, Copy)]
pub struct Timed {
    pub m: usize,
    pub threads: usize,
    pub secs: f64,
    pub macs: f64,
    pub bytes: f64,
}

impl Timed {
    /// Sums several calls of one row count; the thread count shown is the
    /// last call's.
    pub fn total<'a>(all: impl Iterator<Item = &'a Timed>) -> Timed {
        all.fold(Timed::default(), |a, t| Timed {
            m: t.m,
            threads: t.threads,
            secs: a.secs + t.secs,
            macs: a.macs + t.macs,
            bytes: a.bytes + t.bytes,
        })
    }

    /// Roofline seconds of this call on `host`.
    pub fn roofline_s(&self, host: &Host) -> f64 {
        host.roofline_s(self.macs, self.bytes, self.threads)
    }
}

/// One projection's kernel probe.
pub struct OpProbe {
    pub name: &'static str,
    pub n: usize,
    pub k: usize,
    pub quant_s: f64,
    pub packed_bytes: usize,
    pub decoded_bytes: usize,
    /// `qgemv_packed_into`, the decode shape.
    pub gemv: Timed,
    /// `qgemm_packed_planed_scratch` at a decode batch of 4 rows.
    pub batch: Timed,
    /// `qgemm_packed_planed_scratch` at the workload's prompt rows.
    pub prefill: Timed,
}

pub struct CoreProbe {
    pub ops: Vec<OpProbe>,
    pub act_encode_ns_per_row: f64,
}

fn layer_kind(name: &str) -> LayerKind {
    match name {
        "q" => LayerKind::Q,
        "k" => LayerKind::K,
        "v" => LayerKind::V,
        "o" => LayerKind::O,
        "gate" => LayerKind::Gate,
        "up" => LayerKind::Up,
        _ => LayerKind::Down,
    }
}

/// Layer 0's seven projections at the workload's shape: each quantized
/// through the production entry point and prepared, then the decode GEMV
/// and the batch and prefill GEMMs timed in layer order (q, k, v, o, gate,
/// up, down), so each plane is as cold or as hot in cache as it is when
/// the model steps.
pub fn core(w: &Workload, weights: &ModelWeights, rng: &mut Rng) -> CoreProbe {
    let profile = ModelProfile::llama3_8b();
    let cfg = *weights.config();
    let mut planes = Vec::new();
    let mut ops = Vec::new();
    for (name, n, k) in w.shape.projections() {
        let wt = weight_matrix(&profile, layer_kind(name), 0, n, k);
        let t = Instant::now();
        let packed = PackedWeightTensor::quantize_parallel(&wt, cfg);
        let quant_s = t.elapsed().as_secs_f64();
        drop(wt);
        let prepared = BackendKind::Packed.backend().prepare(packed);
        planes.push(WeightPlane::decode(prepared.packed()));
        ops.push(OpProbe {
            name,
            n,
            k,
            quant_s,
            packed_bytes: prepared.packed().packed_bytes(),
            decoded_bytes: prepared.decoded_bytes(),
            gemv: Timed::default(),
            batch: Timed::default(),
            prefill: Timed::default(),
        });
    }
    let mut scratch = GemmScratch::new();
    for m in [1, 4, w.prompt_tokens] {
        let xs: Vec<PackedActTensor> = ops
            .iter()
            .map(|o| PackedActTensor::quantize(&rng.tokens(m, o.k), cfg))
            .collect();
        let threads: Vec<usize> = ops
            .iter()
            .map(|o| if m == 1 { 1 } else { gemm_threads(m, o.k, o.n) })
            .collect();
        let mut out: Vec<Vec<f32>> = ops.iter().map(|o| vec![0f32; o.n]).collect();
        let mut pass = |secs: &mut [Vec<f64>]| {
            for (i, plane) in planes.iter().enumerate() {
                let t = Instant::now();
                if m == 1 {
                    qgemv_packed_into(&xs[i], plane, &mut scratch, &mut out[i]);
                    black_box(&mut out[i]);
                } else {
                    black_box(qgemm_packed_planed_scratch(
                        &xs[i],
                        plane,
                        threads[i],
                        &mut scratch,
                    ));
                }
                secs[i].push(t.elapsed().as_secs_f64());
            }
        };
        let mut secs = vec![Vec::new(); ops.len()];
        let t = Instant::now();
        pass(&mut secs);
        let reps = (0.5 / t.elapsed().as_secs_f64()).clamp(3.0, 200.0) as usize;
        let mut secs = vec![Vec::new(); ops.len()];
        for _ in 0..reps {
            pass(&mut secs);
        }
        for ((o, s), thr) in ops.iter_mut().zip(&secs).zip(&threads) {
            let timed = Timed {
                m,
                threads: *thr,
                secs: median(s),
                macs: (m * o.n * o.k) as f64,
                bytes: (o.decoded_bytes + m * o.n * 4 + m * o.k * 2) as f64
                    + (m * o.k.div_ceil(cfg.group_size) * 8) as f64,
            };
            match m {
                1 => o.gemv = timed,
                4 => o.batch = timed,
                _ => o.prefill = timed,
            }
        }
    }
    let row = rng.tokens(1, w.shape.hidden);
    let reps = 2000;
    let t = Instant::now();
    for _ in 0..reps {
        black_box(PackedActTensor::quantize(black_box(&row), cfg));
    }
    CoreProbe {
        ops,
        act_encode_ns_per_row: t.elapsed().as_secs_f64() * 1e9 / reps as f64,
    }
}

/// Model-step probe on fresh sessions.
pub struct NnProbe {
    pub prefill_us_per_tok: f64,
    pub decode_ms_b1: f64,
    pub decode_ms_b4: f64,
    pub kv_packed_bytes_per_tok: f64,
    pub kv_decoded_bytes_per_tok: f64,
}

/// Prefills one prompt of the workload's length, then times decode steps
/// at batch 1 and at batch 4 (the prefilled session cloned copy-on-write,
/// so all four sit at the same context).
pub fn nn(weights: &ModelWeights, prompt: &Matrix) -> NnProbe {
    let steps = 6;
    let mut scratch = StepScratch::new();
    let mut s0 = weights.new_session();
    let t = Instant::now();
    let y = weights
        .step_sessions_scratch(
            &mut [&mut s0],
            std::slice::from_ref(prompt),
            0,
            &mut scratch,
        )
        .expect("prefill probe step");
    let prefill_us_per_tok = t.elapsed().as_secs_f64() * 1e6 / prompt.rows() as f64;
    let kv_packed_bytes_per_tok = s0.kv_bytes() as f64 / s0.pos() as f64;
    let kv_decoded_bytes_per_tok = s0.kv_decoded_bytes() as f64 / s0.pos() as f64;
    let tok = feedback_token(&y[0]);
    let mut batch: Vec<_> = (0..3).map(|_| s0.clone()).collect();
    let mut time_steps = |sessions: &mut [&mut m2x_nn::SessionState]| -> f64 {
        let inputs = vec![tok.clone(); sessions.len()];
        let mut t = Vec::new();
        for _ in 0..steps {
            let s = Instant::now();
            weights
                .step_sessions_scratch(sessions, &inputs, 0, &mut scratch)
                .expect("decode probe step");
            t.push(s.elapsed().as_secs_f64() * 1e3);
        }
        median(&t)
    };
    let decode_ms_b1 = time_steps(&mut [&mut s0]);
    let mut all: Vec<&mut m2x_nn::SessionState> = batch.iter_mut().collect();
    all.push(&mut s0);
    let decode_ms_b4 = time_steps(&mut all);
    NnProbe {
        prefill_us_per_tok,
        decode_ms_b1,
        decode_ms_b4,
        kv_packed_bytes_per_tok,
        kv_decoded_bytes_per_tok,
    }
}

/// Gateway microbenchmarks on the workload's own bytes.
pub struct GatewayProbe {
    pub parse_us_per_req: f64,
    pub frame_us_per_tok: f64,
}

/// Parses the workload's own request bytes (HTTP head, then the JSON
/// body) and renders one output row the way an SSE frame prints it.
pub fn gateway(w: &Workload, prompts: &[Matrix], row: &Matrix) -> GatewayProbe {
    let limits = http::Limits::default();
    let reqs: Vec<Vec<u8>> = prompts
        .iter()
        .take(8)
        .map(|p| generate_request(p, w.decode_tokens))
        .collect();
    let reps = 50;
    let t = Instant::now();
    for _ in 0..reps {
        for raw in &reqs {
            match http::parse_request(black_box(raw), &limits) {
                Ok(http::Parsed::Complete { request, .. }) => {
                    let body = std::str::from_utf8(&request.body).expect("UTF-8 request body");
                    black_box(json::parse(body).expect("well-formed request JSON"));
                }
                _ => panic!("the benchmark's own request did not parse"),
            }
        }
    }
    let parse_us_per_req = t.elapsed().as_secs_f64() * 1e6 / (reps * reqs.len()) as f64;
    let reps = 500;
    let t = Instant::now();
    for _ in 0..reps {
        for &v in row.row(0) {
            black_box(json::f32_repr(black_box(v)));
        }
    }
    GatewayProbe {
        parse_us_per_req,
        frame_us_per_tok: t.elapsed().as_secs_f64() * 1e6 / reps as f64,
    }
}
