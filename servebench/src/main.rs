//! `servebench`: the serving benchmark of the M2XFP stack.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload decode_8b --seed 1 --seconds 15 --trace 0
//! ```
//!
//! One workload per process. `--trace 0` sets up, runs the workload with
//! telemetry off and prints the end-to-end metrics. `--trace 1` then runs
//! the same seed again with telemetry on, times each layer's public
//! functions at the workload's shapes, and prints the per-layer metrics.
//! Every finished request is compared bit for bit with `run_solo` for its
//! prompt, and the KV pool and session count must return to zero; any
//! mismatch or leak makes the run fail (exit code 1). The last line of
//! standard output is one JSON object. See `README.md` beside this file.

mod drive;
mod probes;
mod spec;
mod stats;

use drive::{Rec, RunOut};
use m2x_gateway::{Gateway, GatewayConfig};
use m2x_nn::model::ModelWeights;
use m2x_serve::{run_solo, ServeConfig, Server};
use m2x_telemetry::stage;
use m2x_tensor::Matrix;
use spec::{Inputs, Load, Planned, Rng, Workload};
use stats::{beyond, median, percentile, ratio};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A run that has not finished by now is stopped; the limit per run is
/// 180 s.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Stage cover below this is flagged: the stage split leaves a visible
/// share of the tick unattributed.
const COVER_FLOOR: f64 = 0.9;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 15.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(spec::find(&val).ok_or_else(|| format!("unknown workload {val:?}"))?)
            }
            "--seed" => seed = val.parse().map_err(|_| bad())?,
            "--seconds" => seconds = val.parse().map_err(|_| bad())?,
            "--trace" => trace = val.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    let workload = workload.ok_or_else(|| format!("--workload is one of {names:?}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!("usage: servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("servebench: watchdog: run exceeded {WATCHDOG:?}, aborting");
        std::process::exit(3);
    });
    std::process::exit(bench(&args, process_start));
}

/// Metrics in print order: `(name, value, unit)`.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// `run_solo` outputs per distinct prompt, computed outside the timed
/// window and kept across the two runs of one seed.
#[derive(Default)]
struct Oracle(HashMap<usize, Matrix>);

impl Oracle {
    /// Fills in every prompt of `out` that produced tokens, two prompts at
    /// a time (one per core).
    fn fill(&mut self, weights: &Arc<ModelWeights>, inputs: &Inputs, out: &RunOut, decode: usize) {
        let mut todo: Vec<Planned> = out
            .recs
            .iter()
            .filter(|r| r.rows.rows() > 0 && !self.0.contains_key(&r.plan.prompt))
            .map(|r| r.plan)
            .collect();
        todo.sort_unstable_by_key(|p| p.prompt);
        todo.dedup_by_key(|p| p.prompt);
        let lanes = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(2);
        let per = todo.len().div_ceil(lanes).max(1);
        let done: Vec<(usize, Matrix)> = std::thread::scope(|s| {
            let handles: Vec<_> = todo
                .chunks(per)
                .map(|chunk| {
                    s.spawn(move || {
                        chunk
                            .iter()
                            .map(|p| {
                                let solo = run_solo(weights, &inputs.prompt(p), decode)
                                    .expect("run_solo on a generated prompt");
                                (p.prompt, solo)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("oracle thread panicked"))
                .collect()
        });
        self.0.extend(done);
    }

    /// Requests whose received rows differ in any bit from the solo run.
    fn mismatches(&self, out: &RunOut) -> usize {
        out.recs
            .iter()
            .filter(|r| r.rows.rows() > 0)
            .filter(|r| {
                let solo = &self.0[&r.plan.prompt];
                let n = r.rows.rows() * r.rows.cols();
                r.rows.rows() > solo.rows()
                    || r.rows.cols() != solo.cols()
                    || r.rows
                        .as_slice()
                        .iter()
                        .zip(&solo.as_slice()[..n])
                        .any(|(a, b)| a.to_bits() != b.to_bits())
            })
            .count()
    }
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Sessions or KV pages still held once every server is gone.
fn leaks(weights: &ModelWeights) -> Option<String> {
    let sessions = weights.open_sessions();
    let pool = weights.kv_pool().stats();
    (sessions != 0 || pool.pages_in_use != 0 || pool.retained_pages != 0).then(|| {
        format!(
            "{sessions} open sessions, {} pages in use, {} retained",
            pool.pages_in_use, pool.retained_pages
        )
    })
}

/// Client-side view of one run's measured window.
struct ClientView {
    ttft: Vec<f64>,
    itl: Vec<f64>,
    tokens: usize,
    sent: usize,
    ok: usize,
    good: usize,
    warm_sent: usize,
    warm_ok: usize,
}

/// Finished with every token, within the workload's TTFT limit and with a
/// mean gap between tokens within its ITL limit.
fn good(w: &Workload, r: &Rec) -> bool {
    let mean_itl = ratio(r.gaps_ms().sum(), r.token_at.len().saturating_sub(1) as f64);
    r.ok() && r.ttft_ms().is_some_and(|t| t <= w.slo_ttft_ms) && mean_itl <= w.slo_itl_ms
}

/// The end-to-end timings and rates of one run, over its whole measured
/// window.
struct EndToEnd {
    ttft_p50: f64,
    ttft_tail: f64,
    itl_p50: f64,
    itl_tail: f64,
    tok_per_s: f64,
    goodput_rps: f64,
}

impl EndToEnd {
    fn of(w: &Workload, v: &ClientView, window_s: f64) -> EndToEnd {
        EndToEnd {
            ttft_p50: median(&v.ttft),
            ttft_tail: percentile(&v.ttft, w.ttft_tail_q),
            itl_p50: median(&v.itl),
            itl_tail: percentile(&v.itl, w.itl_tail_q),
            tok_per_s: ratio(v.tokens as f64, window_s),
            goodput_rps: ratio(v.good as f64, window_s),
        }
    }
}

impl ClientView {
    fn of(w: &Workload, out: &RunOut) -> ClientView {
        let m: Vec<&Rec> = out.measured().collect();
        let good = m.iter().filter(|r| good(w, r)).count();
        let warm: Vec<&Rec> = out.recs.iter().filter(|r| r.plan.warmup).collect();
        ClientView {
            ttft: m.iter().filter_map(|r| r.ttft_ms()).collect(),
            itl: m.iter().flat_map(|r| r.gaps_ms()).collect(),
            tokens: m.iter().map(|r| r.token_at.len()).sum(),
            sent: m.len() + out.scrapes.len(),
            ok: m.iter().filter(|r| r.ok()).count() + out.scrapes.iter().filter(|s| s.ok).count(),
            good,
            warm_sent: warm.len(),
            warm_ok: warm.iter().filter(|r| r.ok()).count(),
        }
    }
}

/// Times `w`'s set-up: weights synthesized, quantized and prepared, the
/// server started and (for the gateway workload) the gateway bound. The
/// first set-up counts from process start.
fn setup(w: &Workload, process_start: Instant) -> (Arc<ModelWeights>, Vec<f64>) {
    let mut times = Vec::new();
    let mut weights = None;
    for rep in 0..w.setup_reps.max(1) {
        // The previous set-up's weights go first, so the peak resident
        // set never holds two copies.
        drop(weights.take());
        let t = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let wts = Arc::new(
            w.shape
                .builder()
                .build_weights()
                .expect("workload shapes are group-aligned"),
        );
        let server = Arc::new(Server::start(Arc::clone(&wts), ServeConfig::default()));
        let gateway = matches!(w.load, Load::Gateway { .. }).then(|| {
            Gateway::bind(Arc::clone(&server), GatewayConfig::default())
                .expect("binding the gateway on loopback")
        });
        times.push(t.elapsed().as_secs_f64());
        drop(gateway);
        drop(server);
        weights = Some(wts);
    }
    (weights.expect("at least one set-up"), times)
}

fn bench(args: &Args, process_start: Instant) -> i32 {
    let w = args.workload;
    let (weights, setup_s) = setup(w, process_start);
    let inputs = Inputs::generate(w, args.seed);
    let mut problems: Vec<String> = Vec::new();
    let mut oracle = Oracle::default();

    let t_ready = process_start.elapsed().as_secs_f64();
    let plain = drive::run(w, &weights, &inputs, args.seconds, false);
    let rss_mb = peak_rss_mb();
    let t_run = process_start.elapsed().as_secs_f64();
    oracle.fill(&weights, &inputs, &plain, w.decode_tokens);
    let t_oracle = process_start.elapsed().as_secs_f64();
    let mut mismatched = oracle.mismatches(&plain);
    let traced = args.trace.then(|| {
        let out = drive::run(w, &weights, &inputs, args.seconds, true);
        oracle.fill(&weights, &inputs, &out, w.decode_tokens);
        mismatched += oracle.mismatches(&out);
        out
    });
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "  elapsed since process start: set-ups done {t_ready:.1} s, untraced run done {t_run:.1} s, oracle done {t_oracle:.1} s, traced run done {:.1} s",
        process_start.elapsed().as_secs_f64()
    );
    problems.extend(leaks(&weights).map(|l| format!("leak after serving: {l}")));
    // No request fails on these workloads: a rejected, failed, expired or
    // transport-errored request, or a failed scrape, fails the run.
    for out in std::iter::once(&plain).chain(&traced) {
        let bad: Vec<&str> = out
            .recs
            .iter()
            .filter(|r| !r.ok())
            .map(|r| r.outcome.as_str())
            .chain(out.scrapes.iter().filter(|s| !s.ok).map(|_| "scrape failed"))
            .collect();
        if let Some(first) = bad.first() {
            problems.push(format!(
                "{} requests did not finish with every token (first: {first})",
                bad.len()
            ));
        }
    }
    if mismatched > 0 {
        problems.push(format!("{mismatched} requests differ from run_solo"));
    }

    let pv = ClientView::of(w, &plain);
    let mut attempted = pv.sent + pv.warm_sent;
    let mut failed = attempted - pv.ok - pv.warm_ok;
    println!(
        "  untraced: window {:.3} s, warm-up sent {} ok {}, measured sent {} ok {} good {}, ttft n={} ({} beyond p{}), itl n={} ({} beyond p{})",
        plain.window_s,
        pv.warm_sent,
        pv.warm_ok,
        pv.sent,
        pv.ok,
        pv.good,
        pv.ttft.len(),
        beyond(&pv.ttft, w.ttft_tail_q),
        (w.ttft_tail_q * 100.0).round(),
        pv.itl.len(),
        beyond(&pv.itl, w.itl_tail_q),
        (w.itl_tail_q * 100.0).round(),
    );

    for (what, v) in [("ttft", &pv.ttft), ("itl", &pv.itl)] {
        let q: Vec<String> = [0.0, 0.1, 0.5, 0.9, 0.99, 1.0]
            .iter()
            .map(|&q| format!("{:.1}", percentile(v, q)))
            .collect();
        println!("  {what} ms min/p10/p50/p90/p99/max: {}", q.join(" / "));
    }
    if w.shared_prefix_tokens > 0 {
        let ttft_of = |shares: bool| -> Vec<f64> {
            plain
                .measured()
                .filter(|r| r.plan.shares_prefix == shares)
                .filter_map(Rec::ttft_ms)
                .collect()
        };
        let (hit, own) = (ttft_of(true), ttft_of(false));
        println!(
            "  ttft p50 {:.1} ms over {} prefix-sharing requests, {:.1} ms over {} with a prompt of their own",
            median(&hit),
            hit.len(),
            median(&own),
            own.len()
        );
    }

    let mut m = Metrics::default();
    match &traced {
        None => {
            let e = EndToEnd::of(w, &pv, plain.window_s);
            m.put("setup_s", median(&setup_s), "s");
            m.put("ttft_ms_p50", e.ttft_p50, "ms");
            m.put("ttft_ms_tail", e.ttft_tail, "ms");
            m.put("itl_ms_p50", e.itl_p50, "ms");
            m.put("itl_ms_tail", e.itl_tail, "ms");
            m.put("output_tok_per_s", e.tok_per_s, "tok/s");
            m.put("goodput_rps", e.goodput_rps, "req/s");
            m.put("success_rate", ratio(pv.ok as f64, pv.sent as f64), "ratio");
            m.put("peak_rss_mb", rss_mb, "MiB");
        }
        Some(tr) => {
            let tv = ClientView::of(w, tr);
            attempted += tv.sent + tv.warm_sent;
            failed += tv.sent + tv.warm_sent - tv.ok - tv.warm_ok;
            println!(
                "  traced:   window {:.3} s, warm-up sent {} ok {}, measured sent {} ok {}, trace events {} dropped {}",
                tr.window_s,
                tv.warm_sent,
                tv.warm_ok,
                tv.sent,
                tv.ok,
                tr.trace.events.len(),
                tr.trace.dropped
            );
            per_layer(w, &weights, &inputs, &plain, &pv, tr, &tv, &mut m);
            problems.extend(leaks(&weights).map(|l| format!("leak after probes: {l}")));
        }
    }

    for (name, value, unit) in &m.0 {
        println!("  {name:<34} {value:>14.4} {unit}");
    }
    for p in &problems {
        println!("  FAIL: {p}");
    }
    let correct = problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        m.json()
    );
    if correct {
        0
    } else {
        1
    }
}

/// Server-side view of the traced window, from the drained trace.
struct ServerView {
    ttft_ms: Vec<f64>,
    itl_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    step_ms: Vec<f64>,
    tokens: usize,
}

impl ServerView {
    fn of(tr: &RunOut) -> ServerView {
        let submitted: HashMap<u32, u64> = tr
            .trace
            .of("api", stage::REQ_SUBMITTED)
            .map(|e| (e.req, e.ts_us))
            .collect();
        let mut tokens: HashMap<u32, Vec<u64>> = HashMap::new();
        for e in tr.trace.of("engine", stage::REQ_TOKEN) {
            tokens.entry(e.req).or_default().push(e.ts_us);
        }
        let mut ttft_ms = Vec::new();
        let mut itl_ms = Vec::new();
        for (req, ts) in &mut tokens {
            ts.sort_unstable();
            if let Some(sub) = submitted.get(req) {
                ttft_ms.push(ts[0].saturating_sub(*sub) as f64 / 1e3);
            }
            itl_ms.extend(ts.windows(2).map(|w| (w[1] - w[0]) as f64 / 1e3));
        }
        ServerView {
            ttft_ms,
            itl_ms,
            queue_ms: tr
                .trace
                .of("engine", stage::REQ_ADMITTED)
                .map(|e| f64::from(e.dur_us) / 1e3)
                .collect(),
            step_ms: tr
                .trace
                .of("engine", stage::TICK)
                .map(|e| f64::from(e.dur_us) / 1e3)
                .collect(),
            tokens: tokens.values().map(Vec::len).sum(),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    w: &Workload,
    weights: &Arc<ModelWeights>,
    inputs: &Inputs,
    plain: &RunOut,
    pv: &ClientView,
    tr: &RunOut,
    tv: &ClientView,
    m: &mut Metrics,
) {
    let sv = ServerView::of(tr);
    let mut rng = Rng::new(0x5EED_F00D);
    let host = probes::host();
    let core = probes::core(w, weights, &mut rng);
    let nn = probes::nn(weights, &inputs.prompt(&inputs.per_client[0][0]));

    println!(
        "  host: {} cores, ISA [{}], STREAM triad {:.2} GB/s, i16 dot {:.2} GMAC/s (single thread)",
        host.cores, host.isa, host.stream_gbps, host.int_dot_gmacps
    );
    println!("  core probe rows (bytes computed from tensor sizes, not measured):");
    println!(
        "    {:<5} {:>6} {:>6} {:>5} {:>3} {:>12} {:>12} {:>8} {:>8} {:>9}",
        "op", "n", "k", "m", "thr", "us", "bytes", "GB/s", "GMAC/s", "roofline"
    );
    let row = |name: &str, t: &probes::Timed| {
        println!(
            "    {:<5} {:>6} {:>6} {:>5} {:>3} {:>12.1} {:>12.0} {:>8.2} {:>8.2} {:>9.3}",
            name,
            "",
            "",
            t.m,
            t.threads,
            t.secs * 1e6,
            t.bytes,
            t.bytes / t.secs / 1e9,
            t.macs / t.secs / 1e9,
            t.roofline_s(&host) / t.secs
        );
    };
    for o in &core.ops {
        println!("    {:<5} {:>6} {:>6}", o.name, o.n, o.k);
        for t in [&o.gemv, &o.batch, &o.prefill] {
            row("", t);
        }
    }

    m.put("host.cores", host.cores as f64, "count");
    m.put("host.isa_mask", f64::from(host.isa_mask), "bitmask");
    m.put("host.stream_gbps", host.stream_gbps, "GB/s");
    m.put("host.int_dot_gops", host.int_dot_gmacps, "GMAC/s");

    for o in &core.ops {
        m.put(format!("core.gemv_us.{}", o.name), o.gemv.secs * 1e6, "us");
    }
    for (kind, pick) in [
        (
            "gemv",
            (|o| &o.gemv) as fn(&probes::OpProbe) -> &probes::Timed,
        ),
        ("gemm_batch", |o| &o.batch),
        ("gemm_prefill", |o| &o.prefill),
    ] {
        let t = probes::Timed::total(core.ops.iter().map(pick));
        let roofline_s: f64 = core.ops.iter().map(|o| pick(o).roofline_s(&host)).sum();
        row(&format!("{kind}:"), &t);
        m.put(format!("core.{kind}_bytes"), t.bytes, "B");
        m.put(format!("core.{kind}_gbps"), t.bytes / t.secs / 1e9, "GB/s");
        m.put(
            format!("core.{kind}_gmacps"),
            t.macs / t.secs / 1e9,
            "GMAC/s",
        );
        m.put(
            format!("core.{kind}_roofline_frac"),
            roofline_s / t.secs,
            "ratio",
        );
    }
    m.put(
        "core.weight_quant_s",
        core.ops.iter().map(|o| o.quant_s).sum(),
        "s",
    );
    m.put(
        "core.act_encode_ns_per_row",
        core.act_encode_ns_per_row,
        "ns",
    );
    let resident: usize = core
        .ops
        .iter()
        .map(|o| o.packed_bytes + o.decoded_bytes)
        .sum();
    let weights_n: usize = core.ops.iter().map(|o| o.n * o.k).sum();
    m.put(
        "core.resident_bytes_per_weight",
        resident as f64 / weights_n as f64,
        "B",
    );

    m.put("nn.step_decode_ms_b1", nn.decode_ms_b1, "ms");
    m.put("nn.step_decode_ms_b4", nn.decode_ms_b4, "ms");
    m.put("nn.step_prefill_us_per_tok", nn.prefill_us_per_tok, "us");
    let tick_ns: f64 = sv.step_ms.iter().sum::<f64>() * 1e6;
    for (name, s) in [
        ("assemble", stage::ASSEMBLE),
        ("encode", stage::ENCODE),
        ("qgemm", stage::QGEMM),
        ("attention", stage::ATTENTION),
        ("kv_append", stage::KV_APPEND),
        ("feedback", stage::FEEDBACK),
    ] {
        m.put(
            format!("nn.stage_share.{name}"),
            ratio(tr.stages.ns(s) as f64, tick_ns),
            "ratio",
        );
    }
    let cover = ratio(tr.stages.stage_sum_ns() as f64, tick_ns);
    m.put("nn.stage_cover", cover, "ratio");
    m.put(
        "nn.stage_cover_short",
        f64::from(u8::from(cover < COVER_FLOOR)),
        "flag",
    );
    if cover < COVER_FLOOR {
        println!(
            "  FLAG: stage cover {cover:.3} is below {COVER_FLOOR} (dim-256 record ~0.98): {:.1}% of tick time is unattributed",
            (1.0 - cover) * 100.0
        );
    }

    let (p0, p1) = &tr.pool;
    let hits = (p1.prefix_hits - p0.prefix_hits) as f64;
    let misses = (p1.prefix_misses - p0.prefix_misses) as f64;
    let allocs = (p1.page_allocs - p0.page_allocs) as f64;
    let reuses = (p1.page_reuses - p0.page_reuses) as f64;
    let prompt_rows = w.prompt_tokens * tr.measured().filter(|r| !r.token_at.is_empty()).count();
    let page_tokens = weights.kv_pool().page_tokens() as f64;
    m.put("nn.kv_prefix_hit_rate", ratio(hits, hits + misses), "ratio");
    m.put(
        "nn.kv_prompt_cached_share",
        ratio(hits * page_tokens, prompt_rows as f64),
        "ratio",
    );
    m.put(
        "nn.kv_page_reuse_rate",
        ratio(reuses, allocs + reuses),
        "ratio",
    );
    m.put(
        "nn.kv_cow_clones",
        (p1.cow_clones - p0.cow_clones) as f64,
        "count",
    );
    m.put(
        "nn.kv_fragmentation",
        median(&tr.trace.fragmentation),
        "ratio",
    );
    m.put("nn.kv_peak_pages", p1.peak_pages as f64, "pages");
    m.put(
        "nn.kv_packed_bytes_per_tok",
        nn.kv_packed_bytes_per_tok,
        "B",
    );
    m.put(
        "nn.kv_decoded_bytes_per_tok",
        nn.kv_decoded_bytes_per_tok,
        "B",
    );

    let step_p50 = median(&sv.step_ms);
    let serve_ttft = median(&sv.ttft_ms);
    m.put("serve.queue_wait_ms_p50", median(&sv.queue_ms), "ms");
    m.put(
        "serve.queue_wait_ms_tail",
        percentile(&sv.queue_ms, w.ttft_tail_q),
        "ms",
    );
    m.put("serve.step_ms_p50", step_p50, "ms");
    m.put("serve.step_ms_p99", percentile(&sv.step_ms, 0.99), "ms");
    m.put("serve.ttft_ms_p50", serve_ttft, "ms");
    m.put(
        "serve.tokens_per_step",
        ratio(sv.tokens as f64, sv.step_ms.len() as f64),
        "tok",
    );
    m.put("serve.peak_batch", tr.stats.peak_batch as f64, "count");
    m.put("serve.rejected", tr.stats.rejected as f64, "count");
    m.put("serve.failed", tr.stats.failed as f64, "count");
    m.put(
        "serve.deadline_exceeded",
        tr.stats.deadline_exceeded as f64,
        "count",
    );

    let client_ttft = median(&tv.ttft);
    let is_gateway = matches!(w.load, Load::Gateway { .. });
    let gw = is_gateway.then(|| {
        let out_row = tr
            .measured()
            .find(|r| r.rows.rows() > 0)
            .map_or_else(|| Matrix::zeros(1, w.shape.hidden), |r| r.rows.clone());
        probes::gateway(w, &inputs.pool, &out_row)
    });
    let overhead = if is_gateway {
        client_ttft - serve_ttft
    } else {
        0.0
    };
    let wire: usize = tr.measured().map(|r| r.raw.len()).sum();
    let scrape_ms: Vec<f64> = tr.scrapes.iter().map(|s| s.ms).collect();
    m.put("gateway.overhead_ms_p50", overhead, "ms");
    m.put(
        "gateway.overhead_share",
        ratio(overhead, client_ttft),
        "ratio",
    );
    m.put(
        "gateway.parse_us_per_req",
        gw.as_ref().map_or(0.0, |g| g.parse_us_per_req),
        "us",
    );
    m.put(
        "gateway.frame_us_per_tok",
        gw.as_ref().map_or(0.0, |g| g.frame_us_per_tok),
        "us",
    );
    m.put(
        "gateway.wire_bytes_per_tok",
        ratio(wire as f64, tv.tokens as f64),
        "B",
    );
    m.put("gateway.metrics_scrape_ms_p50", median(&scrape_ms), "ms");

    m.put(
        "telemetry.overhead_ratio",
        ratio(
            EndToEnd::of(w, tv, tr.window_s).tok_per_s,
            EndToEnd::of(w, pv, plain.window_s).tok_per_s,
        ),
        "ratio",
    );
    m.put("telemetry.trace_dropped", tr.trace.dropped as f64, "count");

    // Cross-checks: the untraced run's client view against the traced
    // run's server timestamps, in milliseconds and in engine steps.
    let ttft_gap = median(&pv.ttft) - serve_ttft;
    let itl_gap = median(&pv.itl) - median(&sv.itl_ms);
    m.put("xcheck.ttft_gap_ms", ttft_gap, "ms");
    m.put("xcheck.itl_gap_ms", itl_gap, "ms");
    m.put("xcheck.ttft_gap_steps", ratio(ttft_gap, step_p50), "steps");
    m.put("xcheck.itl_gap_steps", ratio(itl_gap, step_p50), "steps");
    for (what, gap) in [("TTFT", ttft_gap), ("ITL", itl_gap)] {
        if ratio(gap, step_p50).abs() > 0.5 {
            println!(
                "  FLAG: client {what} p50 differs from the server's by {gap:.3} ms, more than half a step ({step_p50:.3} ms)"
            );
        }
    }

    m.put("bench.warmup_sent", pv.warm_sent as f64, "count");
    m.put("bench.warmup_ok", pv.warm_ok as f64, "count");
    m.put(
        "bench.warmup_failed",
        (pv.warm_sent - pv.warm_ok) as f64,
        "count",
    );
    m.put("bench.sent", pv.sent as f64, "count");
    m.put("bench.ok", pv.ok as f64, "count");
    m.put("bench.failed", (pv.sent - pv.ok) as f64, "count");
    m.put(
        "bench.error_rate",
        ratio((pv.sent - pv.ok) as f64, pv.sent as f64),
        "ratio",
    );
    m.put("bench.ttft_samples", pv.ttft.len() as f64, "count");
    m.put("bench.itl_samples", pv.itl.len() as f64, "count");
}
