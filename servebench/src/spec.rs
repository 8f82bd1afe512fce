//! The three workloads and the seeded inputs they send. The serving stack
//! receives only the generated prompts; the seed never reaches it.

use m2x_nn::model::ModelBuilder;
use m2x_nn::profile::ModelProfile;
use m2x_tensor::Matrix;

/// Model dimensions of a workload (synthetic LLaMA-3-8B-profile weights).
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub hidden: usize,
    pub intermediate: usize,
    pub heads: usize,
    pub kv_heads: usize,
    pub layers: usize,
}

impl Shape {
    pub fn builder(&self) -> ModelBuilder {
        ModelBuilder::new(&ModelProfile::llama3_8b())
            .layers(self.layers)
            .hidden(self.hidden)
            .intermediate(self.intermediate)
            .heads(self.heads, self.kv_heads)
    }

    /// `(name, out_features, in_features)` of one layer's projections.
    pub fn projections(&self) -> [(&'static str, usize, usize); 7] {
        let (h, i) = (self.hidden, self.intermediate);
        let kv = self.kv_heads * (h / self.heads);
        [
            ("q", h, h),
            ("k", kv, h),
            ("v", kv, h),
            ("o", h, h),
            ("gate", i, h),
            ("up", i, h),
            ("down", h, i),
        ]
    }
}

/// How load reaches the server.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// In process through `m2x_serve::Server`; `clients` closed-loop users
    /// that each wait for their reply before sending the next request.
    Closed { clients: usize },
    /// In process, a closed loop of `size` users that move in waves: one
    /// thread sends a request for each user, streams them all to the end,
    /// and sends the next wave, so every wave goes through the same steps.
    Waves { size: usize },
    /// Through a live `m2x_gateway::Gateway` on loopback; `clients`
    /// closed-loop connections, and every `scrape_every`-th request of
    /// client 0 is a `GET /metrics`.
    Gateway { clients: usize, scrape_every: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    pub load: Load,
    pub prompt_tokens: usize,
    pub decode_tokens: usize,
    /// Distinct prompts the requests draw from.
    pub prompt_pool: usize,
    /// Tokens of the prefix the sharing requests have in common (0: the
    /// requests draw from the prompt pool instead).
    pub shared_prefix_tokens: usize,
    /// One request in this many has a prompt of its own.
    pub miss_every: usize,
    /// Warm-up requests per client (per user, in waves), sent before the
    /// measured window.
    pub warmup_requests: usize,
    pub warmup_decode: usize,
    /// Each closed-loop client (waves have none) pauses a seeded uniform
    /// draw from `[0, think_ms)` before each measured request, so the
    /// clients' requests do not lock into one phase pattern for a whole run.
    pub think_ms: f64,
    /// Set-ups timed per run; `setup_s` is their median.
    pub setup_reps: usize,
    pub max_batch: usize,
    /// Percentiles reported as `ttft_ms_tail` and `itl_ms_tail`.
    pub ttft_tail_q: f64,
    pub itl_tail_q: f64,
    /// Goodput limits, about 3x the unloaded medians.
    pub slo_ttft_ms: f64,
    pub slo_itl_ms: f64,
}

const DIM_8B: Shape = Shape {
    hidden: 4096,
    intermediate: 14336,
    heads: 32,
    kv_heads: 8,
    layers: 1,
};

const DIM_MID: Shape = Shape {
    hidden: 1024,
    intermediate: 3584,
    heads: 8,
    kv_heads: 2,
    layers: 2,
};

/// `ModelBuilder::scaled(&llama3_8b(), 256, 2)`.
const DIM_256: Shape = Shape {
    hidden: 256,
    intermediate: 896,
    heads: 4,
    kv_heads: 1,
    layers: 2,
};

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "decode_8b",
        shape: DIM_8B,
        load: Load::Waves { size: 4 },
        prompt_tokens: 16,
        decode_tokens: 16,
        prompt_pool: 4,
        shared_prefix_tokens: 0,
        miss_every: 0,
        warmup_requests: 1,
        warmup_decode: 2,
        think_ms: 0.0,
        setup_reps: 1,
        max_batch: 4,
        ttft_tail_q: 0.90,
        itl_tail_q: 0.90,
        slo_ttft_ms: 3000.0,
        slo_itl_ms: 350.0,
    },
    Workload {
        name: "prefix_long",
        shape: DIM_MID,
        load: Load::Closed { clients: 1 },
        prompt_tokens: 512,
        decode_tokens: 16,
        prompt_pool: 0,
        shared_prefix_tokens: 448,
        miss_every: 8,
        warmup_requests: 1,
        warmup_decode: 2,
        think_ms: 0.0,
        setup_reps: 3,
        max_batch: 8,
        ttft_tail_q: 0.95,
        itl_tail_q: 0.90,
        slo_ttft_ms: 1100.0,
        slo_itl_ms: 60.0,
    },
    Workload {
        name: "gateway_chat",
        shape: DIM_256,
        load: Load::Gateway {
            clients: 2,
            scrape_every: 16,
        },
        prompt_tokens: 16,
        decode_tokens: 16,
        prompt_pool: 64,
        shared_prefix_tokens: 0,
        miss_every: 0,
        warmup_requests: 2,
        warmup_decode: 16,
        think_ms: 100.0,
        setup_reps: 5,
        max_batch: 8,
        ttft_tail_q: 0.90,
        itl_tail_q: 0.90,
        slo_ttft_ms: 40.0,
        slo_itl_ms: 6.0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: small, seedable, and good enough for input generation.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Standard normal (Box-Muller).
    pub fn gauss(&mut self) -> f64 {
        let u = self.unit().max(f64::MIN_POSITIVE);
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }

    /// `rows` embedding-like token rows in `(-1, 1)`.
    pub fn tokens(&mut self, rows: usize, hidden: usize) -> Matrix {
        Matrix::from_fn(rows, hidden, |_, _| (0.5 * self.gauss()).tanh() as f32)
    }
}

/// One request a client will send.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    /// The prompt's index: into the pool, or the request's own number in
    /// a shared-prefix workload (see [`Inputs::prompt`]).
    pub prompt: usize,
    pub decode: usize,
    pub warmup: bool,
    /// Shared-prefix workloads: whether the prompt starts with the prefix.
    pub shares_prefix: bool,
    /// The client's pause before sending, in seconds.
    pub think_s: f64,
}

/// Everything a run sends, generated from the seed alone.
pub struct Inputs {
    /// Per client, the requests in sending order (the client stops at the
    /// end of the window, long before the list runs out).
    pub per_client: Vec<Vec<Planned>>,
    /// The prompt pool of pool workloads.
    pub pool: Vec<Matrix>,
    /// The common prefix of a shared-prefix workload.
    prefix: Option<Matrix>,
    seed: u64,
    prompt_tokens: usize,
    hidden: usize,
}

/// Requests each client has queued up; far more than any window can use.
const CLIENT_PLAN: usize = 20_000;

impl Inputs {
    pub fn generate(w: &Workload, seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        let hidden = w.shape.hidden;
        let clients = match w.load {
            Load::Closed { clients } | Load::Gateway { clients, .. } => clients,
            Load::Waves { size } => size,
        };
        let pool = (0..w.prompt_pool)
            .map(|_| rng.tokens(w.prompt_tokens, hidden))
            .collect();
        let prefix =
            (w.shared_prefix_tokens > 0).then(|| rng.tokens(w.shared_prefix_tokens, hidden));
        let mut next = 0;
        let per_client = (0..clients)
            .map(|_| {
                (0..CLIENT_PLAN)
                    .map(|i| {
                        let warmup = i < w.warmup_requests;
                        let measured = i.wrapping_sub(w.warmup_requests);
                        let prompt = if prefix.is_some() {
                            next += 1;
                            next - 1
                        } else {
                            rng.below(w.prompt_pool)
                        };
                        Planned {
                            prompt,
                            decode: if warmup {
                                w.warmup_decode
                            } else {
                                w.decode_tokens
                            },
                            warmup,
                            // The last measured request of every
                            // `miss_every` has a prompt of its own, the same
                            // for every seed. The pool retains 64 frozen
                            // pages first in first out; a prompt of its own
                            // freezes 16 and a sharing one 2, so the shared
                            // prefix is pushed out by the second own prompt
                            // and the next requests prefill it again. Placed
                            // last, that second own prompt is the 16th
                            // measured request, about where the window
                            // closes; placed earlier, the window would end
                            // part-way through the slow requests that follow
                            // it, a different number of them in each run.
                            shares_prefix: prefix.is_some()
                                && (warmup || measured % w.miss_every != w.miss_every - 1),
                            think_s: rng.unit() * w.think_ms / 1e3,
                        }
                    })
                    .collect()
            })
            .collect();
        Inputs {
            per_client,
            pool,
            prefix,
            seed,
            prompt_tokens: w.prompt_tokens,
            hidden,
        }
    }

    /// The prompt of request `p`: a pool entry, or, in a shared-prefix
    /// workload, drawn on demand from the seed and the request's number
    /// (the prefix plus a suffix of its own, or a prompt of its own), so a
    /// long plan costs no memory.
    pub fn prompt(&self, p: &Planned) -> Matrix {
        let Some(prefix) = &self.prefix else {
            return self.pool[p.prompt].clone();
        };
        let mut rng =
            Rng::new(self.seed ^ (p.prompt as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
        if p.shares_prefix {
            let mut m = prefix.clone();
            m.push_rows(&rng.tokens(self.prompt_tokens - prefix.rows(), self.hidden));
            m
        } else {
            rng.tokens(self.prompt_tokens, self.hidden)
        }
    }
}
