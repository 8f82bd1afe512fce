//! Load generation: one phase of a workload against a fresh server, in
//! process or through the gateway, recording what every client saw.
//!
//! A run is a warm-up phase followed by the measured window. When the run
//! is traced, telemetry is switched on exactly at the start of the window,
//! so every trace event belongs to a measured request, and the main thread
//! drains the rings while the load runs so none are overwritten.

use crate::spec::{Inputs, Load, Planned, Workload};
use m2x_gateway::{client, Gateway, GatewayConfig};
use m2x_nn::model::ModelWeights;
use m2x_nn::PoolStats;
use m2x_serve::{RequestOptions, ServeConfig, ServeStats, Server, StreamEvent};
use m2x_telemetry::stage::StageTally;
use m2x_telemetry::trace::TraceEvent;
use m2x_tensor::Matrix;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

/// What one client saw of one request.
pub struct Rec {
    pub plan: Planned,
    /// When the request was sent. TTFT counts from here.
    pub sent_at: Instant,
    pub token_at: Vec<Instant>,
    pub done_at: Instant,
    /// The outcome kind (`finished`, `rejected`, ...) or a transport error.
    pub outcome: String,
    /// The decode rows as received (reassembled from SSE for the gateway).
    pub rows: Matrix,
    /// Gateway only: the raw response, decoded after the window.
    pub raw: Vec<u8>,
}

impl Rec {
    fn new(plan: Planned, sent_at: Instant, hidden: usize) -> Rec {
        Rec {
            plan,
            sent_at,
            token_at: Vec::new(),
            done_at: sent_at,
            outcome: String::new(),
            rows: Matrix::zeros(0, hidden),
            raw: Vec::new(),
        }
    }

    /// Finished with every token it asked for.
    pub fn ok(&self) -> bool {
        self.outcome == "finished" && self.rows.rows() == self.plan.decode
    }

    pub fn ttft_ms(&self) -> Option<f64> {
        self.token_at.first().map(|t| ms(*t - self.sent_at))
    }

    pub fn gaps_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.token_at.windows(2).map(|w| ms(w[1] - w[0]))
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One `GET /metrics` scrape.
pub struct Scrape {
    pub ms: f64,
    pub ok: bool,
}

/// Trace events drained during the window, with the ring they came from.
#[derive(Default)]
pub struct Trace {
    pub events: Vec<(String, TraceEvent)>,
    pub dropped: u64,
    /// `ServeStats::kv_fragmentation` sampled at each drain while KV was
    /// in use.
    pub fragmentation: Vec<f64>,
}

impl Trace {
    fn absorb(&mut self, server: &Server) {
        for ring in server.telemetry().drain() {
            self.dropped += ring.dropped;
            self.events
                .extend(ring.events.into_iter().map(|e| (ring.name.clone(), e)));
        }
        let stats = server.stats();
        if stats.kv_packed_bytes > 0 {
            self.fragmentation.push(stats.kv_fragmentation);
        }
    }

    pub fn of<'a>(&'a self, ring: &'a str, stage: u16) -> impl Iterator<Item = &'a TraceEvent> {
        self.events
            .iter()
            .filter(move |(r, e)| r == ring && e.stage == stage)
            .map(|(_, e)| e)
    }
}

/// Everything one run produced.
pub struct RunOut {
    pub recs: Vec<Rec>,
    pub scrapes: Vec<Scrape>,
    /// Measured window: its start to the last measured completion, and at
    /// least the requested seconds.
    pub window_s: f64,
    pub stats: ServeStats,
    /// KV pool counters at the start and the end of the window.
    pub pool: (PoolStats, PoolStats),
    pub trace: Trace,
    /// Per-stage engine time over the window (traced runs only).
    pub stages: StageTally,
}

impl RunOut {
    pub fn measured(&self) -> impl Iterator<Item = &Rec> {
        self.recs.iter().filter(|r| !r.plan.warmup)
    }
}

/// The start of the measured window, taken once by whichever client gets
/// there first: switches tracing on and snapshots the pool counters.
struct Window<'a> {
    server: &'a Server,
    weights: &'a ModelWeights,
    traced: bool,
    start: OnceLock<(Instant, PoolStats)>,
}

impl Window<'_> {
    fn open(&self) -> Instant {
        self.start
            .get_or_init(|| {
                if self.traced {
                    self.server.telemetry().set_enabled(true);
                }
                (Instant::now(), self.weights.kv_pool().stats())
            })
            .0
    }
}

const METRICS_REQUEST: &[u8] = b"GET /metrics HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n\r\n";

/// Runs warm-up and the measured window of `w` on a fresh server over
/// `weights`, then shuts the server (and gateway) down.
pub fn run(
    w: &Workload,
    weights: &Arc<ModelWeights>,
    inputs: &Inputs,
    seconds: f64,
    traced: bool,
) -> RunOut {
    let cfg = ServeConfig {
        max_batch: w.max_batch,
        telemetry: false,
        ..ServeConfig::default()
    };
    let server = Arc::new(Server::start(Arc::clone(weights), cfg));
    let gateway = match w.load {
        Load::Gateway { .. } => Some(
            Gateway::bind(Arc::clone(&server), GatewayConfig::default())
                .expect("binding the gateway on loopback"),
        ),
        _ => None,
    };
    let wire = gateway.as_ref().map(|g| Wire {
        addr: g.local_addr(),
        requests: inputs
            .pool
            .iter()
            .map(|p| generate_request(p, w.decode_tokens))
            .collect(),
    });
    let clients = match w.load {
        Load::Closed { clients } | Load::Gateway { clients, .. } => clients,
        Load::Waves { .. } => 1,
    };
    let barrier = Barrier::new(clients);
    let win = Window {
        server: &server,
        weights,
        traced,
        start: OnceLock::new(),
    };
    let mut trace = Trace::default();
    let mut scrapes = Vec::new();

    let recs: Vec<Rec> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (win, server, barrier, wire) = (&win, &server, &barrier, wire.as_ref());
                s.spawn(move || match w.load {
                    Load::Waves { .. } => (waves(w, inputs, server, win, seconds), Vec::new()),
                    _ => client(w, c, inputs, server, wire, barrier, win, seconds),
                })
            })
            .collect();
        while !handles.iter().all(|h| h.is_finished()) {
            std::thread::sleep(Duration::from_millis(50));
            if traced {
                trace.absorb(&server);
            }
        }
        let mut recs = Vec::new();
        for h in handles {
            let (r, sc) = h.join().expect("load client panicked");
            recs.extend(r);
            scrapes.extend(sc);
        }
        recs
    });
    if traced {
        trace.absorb(&server);
    }
    let (t0, pool0) = *win.start.get().expect("the measured window opened");
    let pool1 = weights.kv_pool().stats();
    let end = recs
        .iter()
        .filter(|r| !r.plan.warmup)
        .map(|r| r.done_at)
        .max()
        .unwrap_or(t0);
    let stages = server.telemetry_snapshot().stages;
    // Gateway first: it holds a handle on the server.
    drop(gateway);
    let stats = Arc::into_inner(server)
        .expect("the gateway released its server handle")
        .shutdown();
    let mut out = RunOut {
        recs,
        scrapes,
        window_s: (end - t0).as_secs_f64().max(seconds),
        stats,
        pool: (pool0, pool1),
        trace,
        stages,
    };
    if wire.is_some() {
        for r in &mut out.recs {
            decode_sse(r);
        }
    }
    out
}

type ClientOut = (Vec<Rec>, Vec<Scrape>);

/// The gateway's address and every prompt's `POST /v1/generate` bytes,
/// rendered before the window so clients spend no time on it.
struct Wire {
    addr: SocketAddr,
    requests: Vec<Vec<u8>>,
}

/// One closed-loop client: its warm-up requests, then, after its think
/// time, one request at a time until the window closes.
#[allow(clippy::too_many_arguments)]
fn client(
    w: &Workload,
    c: usize,
    inputs: &Inputs,
    server: &Server,
    wire: Option<&Wire>,
    barrier: &Barrier,
    win: &Window,
    seconds: f64,
) -> ClientOut {
    let hidden = w.shape.hidden;
    let scrape_every = match w.load {
        Load::Gateway { scrape_every, .. } if c == 0 => scrape_every,
        _ => 0,
    };
    // Each request's bytes or prompt rows are built before its send time
    // is stamped, so TTFT holds no load-generator work.
    let one = |p: &Planned| -> Rec {
        match wire {
            Some(g) if p.decode == w.decode_tokens => {
                gateway_generate(g.addr, &g.requests[p.prompt], *p, hidden)
            }
            Some(g) => gateway_generate(
                g.addr,
                &generate_request(&inputs.prompt(p), p.decode),
                *p,
                hidden,
            ),
            None => {
                let prompt = inputs.prompt(p);
                let mut rec = Rec::new(*p, Instant::now(), hidden);
                match submit(server, prompt, p.decode) {
                    Ok(id) => while next(server, id, &mut rec) {},
                    Err(e) => rec.outcome = e,
                }
                rec
            }
        }
    };
    let plan = &inputs.per_client[c];
    let mut recs: Vec<Rec> = plan.iter().take_while(|p| p.warmup).map(one).collect();
    barrier.wait();
    let deadline = win.open() + Duration::from_secs_f64(seconds);
    let mut scrapes = Vec::new();
    for (i, p) in plan.iter().filter(|p| !p.warmup).enumerate() {
        std::thread::sleep(Duration::from_secs_f64(p.think_s));
        if Instant::now() >= deadline {
            break;
        }
        if let Some(g) = wire.filter(|_| scrape_every > 0 && (i + 1) % scrape_every == 0) {
            let t = Instant::now();
            let ok =
                client::http_request_full(g.addr, METRICS_REQUEST).is_ok_and(|r| r.status == 200);
            scrapes.push(Scrape {
                ms: ms(t.elapsed()),
                ok,
            });
            continue;
        }
        recs.push(one(p));
    }
    (recs, scrapes)
}

/// How far a wave's first request leads the rest: far less than any
/// prefill step at the wave workload's shape, far more than the engine
/// takes to wake.
const WAVE_LEAD: Duration = Duration::from_millis(20);

/// The in-process closed loop in waves: all of a wave's prompts are built
/// first, then sent (each stamped as it is sent), and the requests are
/// streamed round robin until every one has resolved. The first request
/// leads by [`WAVE_LEAD`], so the engine always prefills it alone and the
/// others together in the next step; sent back to back, which of them made
/// the first step would be a race. After that the requests decode in
/// lockstep, so each blocking wait returns one step's token.
fn waves(w: &Workload, inputs: &Inputs, server: &Server, win: &Window, seconds: f64) -> Vec<Rec> {
    let hidden = w.shape.hidden;
    let lanes = &inputs.per_client;
    let wave = |j: usize| -> Vec<Rec> {
        let prompts: Vec<(Planned, Matrix)> = lanes
            .iter()
            .map(|lane| (lane[j], inputs.prompt(&lane[j])))
            .collect();
        let mut recs = Vec::new();
        let mut open = Vec::new();
        for (k, (p, prompt)) in prompts.into_iter().enumerate() {
            if k == 1 {
                std::thread::sleep(WAVE_LEAD);
            }
            let mut rec = Rec::new(p, Instant::now(), hidden);
            match submit(server, prompt, p.decode) {
                Ok(id) => open.push((recs.len(), id)),
                Err(e) => rec.outcome = e,
            }
            recs.push(rec);
        }
        while !open.is_empty() {
            open.retain(|&(i, id)| next(server, id, &mut recs[i]));
        }
        recs
    };
    let warm = lanes[0].iter().take_while(|p| p.warmup).count();
    let mut recs: Vec<Rec> = (0..warm).flat_map(wave).collect();
    let deadline = win.open() + Duration::from_secs_f64(seconds);
    for j in warm..lanes[0].len() {
        if Instant::now() >= deadline {
            break;
        }
        recs.extend(wave(j));
    }
    recs
}

fn submit(server: &Server, prompt: Matrix, decode: usize) -> Result<u64, String> {
    let opts = RequestOptions {
        stream: true,
        ..RequestOptions::default()
    };
    server
        .submit_with(prompt, decode, opts)
        .map_err(|e| format!("submit error: {e}"))
}

/// Waits for request `id`'s next stream event and records it: a token is
/// stamped on arrival. Returns whether the request is still open.
fn next(server: &Server, id: u64, rec: &mut Rec) -> bool {
    let event = server.next_token(id, rec.token_at.len());
    let now = Instant::now();
    match event {
        Ok(StreamEvent::Token { row, .. }) => {
            rec.token_at.push(now);
            rec.rows.push_rows(&row);
            return true;
        }
        Ok(StreamEvent::Done(outcome)) => rec.outcome = outcome.kind().to_string(),
        Err(e) => rec.outcome = format!("serve error: {e}"),
    }
    rec.done_at = now;
    false
}

/// The raw bytes of one `POST /v1/generate` for `prompt`.
pub fn generate_request(prompt: &Matrix, decode: usize) -> Vec<u8> {
    let body = client::generate_body(prompt, decode, None, None);
    format!(
        "POST /v1/generate HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

const FRAME: &[u8] = b"data: {\"index\"";

/// Sends one generation over a fresh connection and reads the stream to
/// EOF, stamping each token frame as its bytes arrive. Parsing waits
/// until after the window ([`decode_sse`]).
fn gateway_generate(addr: SocketAddr, req: &[u8], p: Planned, hidden: usize) -> Rec {
    let mut rec = Rec::new(p, Instant::now(), hidden);
    let res = (|| -> std::io::Result<()> {
        let mut conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        conn.set_read_timeout(Some(Duration::from_secs(60)))?;
        conn.write_all(req)?;
        let mut chunk = [0u8; 16 * 1024];
        let mut scanned = 0;
        loop {
            let n = conn.read(&mut chunk)?;
            if n == 0 {
                return Ok(());
            }
            let now = Instant::now();
            rec.raw.extend_from_slice(&chunk[..n]);
            while let Some(at) = find(&rec.raw[scanned..], FRAME) {
                rec.token_at.push(now);
                scanned += at + FRAME.len();
            }
            scanned = scanned.max(rec.raw.len().saturating_sub(FRAME.len() - 1));
        }
    })();
    rec.done_at = Instant::now();
    if let Err(e) = res {
        rec.outcome = format!("transport error: {e}");
    }
    rec
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Reassembles a gateway response into its outcome and token rows.
fn decode_sse(rec: &mut Rec) {
    if !rec.outcome.is_empty() {
        return;
    }
    let decoded = client::parse_response(&rec.raw).and_then(|r| client::decode_generated(&r));
    match decoded {
        Ok(g) => {
            rec.outcome = g.outcome.unwrap_or_else(|| format!("http {}", g.status));
            if g.tokens.rows() > 0 {
                rec.rows = g.tokens;
            }
            if rec.rows.rows() != rec.token_at.len() {
                rec.outcome = format!(
                    "frame count mismatch: {} rows, {} stamped frames",
                    rec.rows.rows(),
                    rec.token_at.len()
                );
            }
        }
        Err(e) => rec.outcome = format!("bad response: {e}"),
    }
}
