//! `cpu_decode`: the functional path, running real attention and matmul arithmetic.
//!
//! Set-up builds `Model::random(ModelDesc::small(), seed)` and a paged KV cache holding
//! `PAIRS` pairs of sequences with contexts spread over 1k–4k tokens. One sequence of
//! each pair sits in the GPU pool and its twin, with the same KV and start token, in
//! the CPU pool, like NEO's two sub-batches. The KV is written directly with seeded
//! values through `PagedKvCache::write_kv`: filling the same contexts through
//! `Model::prefill` would take tens of seconds. The timed phase runs rounds of greedy
//! `Model::decode_batch` steps over all sequences, each round from freshly filled
//! prompts so the contexts stay the same however long the run. Steps are timed on the
//! CPU clock and scaled by the host's slowdown around their round (see
//! [`host::Slowdown`]). Every step the twins must pick the same token, and every
//! round must decode what the first one did.

use std::hint::black_box;
use std::mem::size_of;

use neo_kernels::decode::paged_decode_attention;
use neo_kernels::reference::dense_attention;
use neo_kernels::AttentionConfig;
use neo_kvcache::{BlockTable, Device};
use neo_model::{argmax, LayerWeights, Model, ModelWeights, PagedKvCache};
use neo_sim::ModelDesc;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::host::{self, CpuTimer, Slowdown};
use crate::report::{median, quantile, ratio, Layers, Outcome};
use crate::tracer::{self, SharedTracer, NONE};

/// GPU/CPU sequence pairs; the batch decodes `2 * PAIRS` sequences per step.
const PAIRS: usize = 4;
/// Context lengths are spread over `[MIN_CTX, MAX_CTX)`, one stratum per pair.
const MIN_CTX: usize = 1024;
const MAX_CTX: usize = 4096;
/// Each context is its stratum's centre moved by up to this many tokens either way.
const CTX_JITTER: usize = 64;
/// Decode steps per round. Every round restarts from freshly filled prompts, so the
/// contexts, and the work per step, stay the same however long a run lasts.
const ROUND_STEPS: usize = 32;
/// Timed repetitions of each probe; the median is reported.
const PROBE_REPS: usize = 5;
/// Block size of the paged cache, in tokens.
const BLOCK: usize = 16;
/// Tolerance of the kernel probe against the dense reference, as in
/// `tests/parallel_equivalence.rs`.
const TOLERANCE: f32 = 1e-3;

/// The model and the seeded prompts it decodes from.
struct Setup {
    model: Model,
    /// One layer's weights, for the linear probe.
    probe_layer: LayerWeights,
    contexts: Vec<usize>,
    /// First input token of each pair.
    start_tokens: Vec<u32>,
    /// Seeds the stream of KV values [`Setup::fill`] writes.
    kv_seed: u64,
}

/// Builds the model and a filled cache.
fn setup(seed: u64) -> Result<(Setup, PagedKvCache), String> {
    let desc = ModelDesc::small();
    let weights = ModelWeights::random(&desc, seed);
    let probe_layer = weights.layers[0].clone();
    let model = Model::from_weights(weights);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_DECD);
    let stratum = (MAX_CTX - MIN_CTX) / PAIRS;
    let mut contexts: Vec<usize> = (0..PAIRS)
        .map(|p| {
            MIN_CTX + p * stratum + stratum / 2 - CTX_JITTER + rng.gen_range(0..2 * CTX_JITTER)
        })
        .collect();
    // Shuffle which pair gets which stratum.
    for i in (1..PAIRS).rev() {
        contexts.swap(i, rng.gen_range(0..=i));
    }
    let start_tokens = (0..PAIRS).map(|_| rng.gen_range(0..desc.vocab) as u32).collect();
    let s = Setup { model, probe_layer, contexts, start_tokens, kv_seed: rng.next_u64() };
    let cache = s.fill()?;
    Ok((s, cache))
}

impl Setup {
    /// A fresh cache holding every prompt's KV: pair `p` is sequence `2p` in the GPU
    /// pool and its twin `2p + 1`, with the same values, in the CPU pool.
    fn fill(&self) -> Result<PagedKvCache, String> {
        let desc = self.model.desc();
        let blocks: usize = self.contexts.iter().map(|c| (c + ROUND_STEPS).div_ceil(BLOCK)).sum();
        let mut cache = PagedKvCache::new(desc, BLOCK, blocks * BLOCK, blocks * BLOCK);
        let kv_dim = desc.n_kv_heads * desc.head_dim;
        let (mut k, mut v) = (vec![0.0f32; kv_dim], vec![0.0f32; kv_dim]);
        let mut rng = StdRng::seed_from_u64(self.kv_seed);
        for (p, &ctx) in self.contexts.iter().enumerate() {
            let (gpu, cpu) = ((2 * p) as u64, (2 * p + 1) as u64);
            cache.allocate(gpu, ctx, Device::Gpu).map_err(|e| e.to_string())?;
            cache.allocate(cpu, ctx, Device::Cpu).map_err(|e| e.to_string())?;
            for layer in 0..desc.n_layers {
                for t in 0..ctx {
                    k.iter_mut().chain(v.iter_mut()).for_each(|x| *x = rng.gen_range(-1.0..1.0));
                    for seq in [gpu, cpu] {
                        cache.write_kv(layer, seq, t, &k, &v).map_err(|e| e.to_string())?;
                    }
                }
            }
        }
        Ok(cache)
    }
}

/// What a decode round produced.
struct Decoded {
    /// CPU seconds of each completed step.
    step_s: Vec<f64>,
    /// Tokens chosen by each GPU-pool sequence, step by step.
    history: Vec<Vec<u32>>,
    /// Tokens of the round that were not decoded, or whose twin picked another one.
    failed_tokens: u64,
    problems: Vec<String>,
}

/// Tokens one round decodes: every sequence, every step.
const ROUND_TOKENS: u64 = (ROUND_STEPS * 2 * PAIRS) as u64;

/// One round: `ROUND_STEPS` greedy `decode_batch` steps from freshly filled prompts.
fn round(s: &Setup, cache: &mut PagedKvCache, tracer: Option<&SharedTracer>) -> Decoded {
    let mut out = Decoded {
        step_s: Vec::new(),
        history: vec![Vec::new(); PAIRS],
        failed_tokens: 0,
        problems: Vec::new(),
    };
    let mut tokens: Vec<u32> = s.start_tokens.iter().flat_map(|&t| [t, t]).collect();
    for step_no in 1..=ROUND_STEPS {
        let items: Vec<(u64, u32)> =
            tokens.iter().enumerate().map(|(i, &t)| (i as u64, t)).collect();
        let span = tracer.map(|t| tracer::lock(t).open("model.decode_batch", NONE));
        let step = CpuTimer::start();
        let logits = s.model.decode_batch(&items, cache);
        let elapsed = step.elapsed_s();
        if let (Some(t), Some(id)) = (tracer, span) {
            tracer::lock(t).close(id);
        }
        let logits = match logits {
            Ok(l) => l,
            Err(e) => {
                out.problems.push(format!("decode_batch failed: {e}"));
                out.failed_tokens += ((ROUND_STEPS - step_no + 1) * 2 * PAIRS) as u64;
                break;
            }
        };
        out.step_s.push(elapsed);
        for (i, l) in logits.iter().enumerate() {
            tokens[i] = argmax(black_box(l));
        }
        for p in 0..PAIRS {
            let (gpu, cpu) = (tokens[2 * p], tokens[2 * p + 1]);
            if gpu != cpu {
                out.failed_tokens += 2;
                if out.problems.is_empty() {
                    out.problems.push(format!(
                        "pair {p} diverged at step {step_no}: GPU-pool token {gpu}, CPU-pool \
                         token {cpu}"
                    ));
                }
            }
            out.history[p].push(gpu);
        }
    }
    out
}

/// Runs `cpu_decode`: decode rounds for `seconds`, or with `traced`, three rounds
/// (warm-up, untraced, traced) and the kernel and linear probes.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut outcome = Outcome::default();
    outcome.note("sequences", 2 * PAIRS);
    // The timed set-ups come first and are dropped, so the peak memory counts one.
    let setup_s = if traced { Vec::new() } else { host::timed_setups(|| drop(setup(seed))) };
    host::reset_peak_rss();
    let (s, cache) = match setup(seed) {
        Ok(ready) => ready,
        Err(e) => {
            outcome.check(false, || format!("set-up failed: {e}"));
            return outcome;
        }
    };
    outcome.note("contexts", format!("{:?}", s.contexts));
    if traced {
        run_traced(seed, &s, cache, &mut outcome);
        return outcome;
    }
    let mut step_s = Vec::new();
    let mut scaled_step_s = Vec::new();
    let mut first: Option<Vec<Vec<u32>>> = None;
    let mut prefilled = Some(cache);
    let timed = std::time::Instant::now();
    let mut rounds = 0;
    while rounds == 0 || timed.elapsed().as_secs_f64() < seconds {
        // The previous round's cache is dropped before the next one is filled.
        let mut cache = match prefilled.take().map_or_else(|| s.fill(), Ok) {
            Ok(c) => c,
            Err(e) => {
                outcome.check(false, || format!("refilling the cache failed: {e}"));
                break;
            }
        };
        let slowdown = Slowdown::start();
        let d = round(&s, &mut cache, None);
        let slowdown = slowdown.finish();
        rounds += 1;
        step_s.extend(&d.step_s);
        scaled_step_s.extend(d.step_s.iter().map(|t| t / slowdown));
        outcome.attempted += ROUND_TOKENS;
        let mut failed = d.failed_tokens;
        outcome.problems.extend(d.problems);
        match &first {
            None => first = Some(d.history),
            Some(f) => {
                // A GPU-pool token off round 1's, and its twin's, fail.
                let off = f.iter().flatten().zip(d.history.iter().flatten());
                let off = 2 * off.filter(|(a, b)| a != b).count() as u64;
                failed = (failed + off).min(ROUND_TOKENS);
                outcome.check(off == 0, || {
                    format!(
                        "round {rounds} decoded other tokens than round 1 from the same prompts"
                    )
                })
            }
        }
        outcome.failed += failed;
    }
    let rss = host::peak_rss_mib();
    let tokens = (step_s.len() * 2 * PAIRS) as u64;
    outcome.check(!step_s.is_empty(), || "no decode step completed".into());
    // Generated tokens per CPU second spent in `decode_batch`, refills excluded.
    let tok_per_s = ratio(tokens as f64, step_s.iter().sum());
    outcome.note("setup_s_each [s, scaled]", format!("{setup_s:.4?}"));
    outcome.note("rounds", rounds);
    outcome.note("steps", step_s.len());
    outcome.note("decode_tok_per_s [tok/s, unscaled]", tok_per_s);
    outcome.note("decode_step_p50_ms [ms, unscaled]", quantile(&step_s, 0.5) * 1e3);
    outcome.note("decode_step_p90_ms [ms, unscaled]", quantile(&step_s, 0.9) * 1e3);
    let scaled_tok_per_s = ratio(tokens as f64, scaled_step_s.iter().sum());
    outcome.end_to_end(median(&setup_s), scaled_tok_per_s, rss);
    outcome
}

fn run_traced(seed: u64, s: &Setup, mut cache: PagedKvCache, outcome: &mut Outcome) {
    // The untraced round is the second, like the traced one, so both run warm.
    drop(round(s, &mut cache, None));
    drop(cache);
    let mut cache = match s.fill() {
        Ok(c) => c,
        Err(e) => return outcome.check(false, || format!("refilling the cache failed: {e}")),
    };
    let slowdown = Slowdown::start();
    let plain = round(s, &mut cache, None);
    let plain_slowdown = slowdown.finish();
    drop(cache);
    let mut cache = match s.fill() {
        Ok(c) => c,
        Err(e) => return outcome.check(false, || format!("refilling the cache failed: {e}")),
    };
    let shared = tracer::shared();
    let slowdown = Slowdown::start();
    let traced = round(s, &mut cache, Some(&shared));
    let traced_slowdown = slowdown.finish();
    outcome.attempted = 2 * ROUND_TOKENS;
    outcome.failed = plain.failed_tokens + traced.failed_tokens;
    outcome.problems.extend(plain.problems);
    outcome.problems.extend(traced.problems);
    outcome.check(plain.history == traced.history, || "tracing changed the decoded tokens".into());

    let mut layers = Layers::default();
    let step_ms = quantile(&traced.step_s, 0.5) * 1e3;
    layers.set("model.decode_batch_ms", step_ms);
    let plain_ms = quantile(&plain.step_s, 0.5) * 1e3;
    layers.set("trace.overhead", ratio(step_ms / traced_slowdown, plain_ms / plain_slowdown));

    // Kernel probe: the calls one decode step makes (every layer, each pool's group),
    // on this run's own caches.
    let desc = s.model.desc().clone();
    let cfg = AttentionConfig::new(desc.n_heads, desc.n_kv_heads, desc.head_dim);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0B5E_55ED);
    let mut call_ms = Vec::new();
    let mut call_bytes = Vec::new();
    let mut worst = 0.0f32;
    for layer in 0..desc.n_layers {
        for (device, first) in [(Device::Gpu, 0), (Device::Cpu, 1)] {
            let seqs: Vec<u64> = (0..PAIRS).map(|p| (2 * p + first) as u64).collect();
            let tables: Vec<&BlockTable> =
                seqs.iter().map(|&q| cache.block_table(q).expect("sequence exists")).collect();
            let lens: Vec<usize> =
                seqs.iter().map(|&q| cache.num_tokens(q).expect("sequence exists")).collect();
            let storage = cache.storage(layer, device);
            let queries: Vec<f32> =
                (0..seqs.len() * cfg.q_stride()).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut out = vec![0.0f32; queries.len()];
            let mut reps = Vec::new();
            for _ in 0..PROBE_REPS {
                let span = tracer::lock(&shared).open("kern.decode_attention", NONE);
                let start = CpuTimer::start();
                paged_decode_attention(&queries, storage, &tables, &lens, &cfg, &mut out);
                reps.push(start.elapsed_s() * 1e3);
                tracer::lock(&shared).close(span);
                black_box(&out);
            }
            call_ms.push(median(&reps));
            // K and V of every cached token the call reads, computed from the shapes.
            let kv_bytes = lens.iter().sum::<usize>() * cfg.kv_stride() * 2 * size_of::<f32>();
            call_bytes.push(kv_bytes as f64);
            if layer == 0 || layer + 1 == desc.n_layers {
                for (i, (&table, &len)) in tables.iter().zip(&lens).enumerate() {
                    let (mut k, mut v) = (Vec::new(), Vec::new());
                    for t in 0..len {
                        let (block, slot) = table.locate(t).expect("token is cached");
                        k.extend_from_slice(storage.read_k(block, slot).expect("in range"));
                        v.extend_from_slice(storage.read_v(block, slot).expect("in range"));
                    }
                    let q = &queries[i * cfg.q_stride()..(i + 1) * cfg.q_stride()];
                    let mut expected = vec![0.0f32; cfg.q_stride()];
                    dense_attention(q, &k, &v, 1, len, &cfg, None, &mut expected);
                    let got = &out[i * cfg.q_stride()..(i + 1) * cfg.q_stride()];
                    for (a, b) in got.iter().zip(&expected) {
                        worst = worst.max((a - b).abs());
                    }
                }
            }
        }
    }
    outcome.note("kern_max_abs_error", worst);
    outcome.check(worst < TOLERANCE, || {
        format!("decode attention is {worst} away from the dense reference (tolerance {TOLERANCE})")
    });
    let attn_ms = median(&call_ms);
    let bytes = median(&call_bytes);
    let gbps = ratio(bytes, attn_ms * 1e-3) * 1e-9;
    let stream_gbps = stream_read_gbps();
    layers.set("kern.decode_attn_ms", attn_ms);
    layers.set("kern.kv_bytes_per_call", bytes);
    layers.set("kern.decode_attn_gbps", gbps);
    layers.set("kern.stream_read_gbps", stream_gbps);
    layers.set("kern.roofline_frac", ratio(gbps, stream_gbps));
    layers.set("model.attn_share", ratio(call_ms.iter().sum::<f64>(), step_ms));
    layers.set("model.linear_us_per_token", linear_us_per_token(&s.probe_layer, &mut rng));
    let t = tracer::lock(&shared);
    layers.set("trace.spans", t.spans().len() as f64);
    t.write_spans("cpu_decode", outcome);
    layers.emit(outcome);
}

/// Single-thread streaming read bandwidth of this host, in GB/s: the median of
/// `PROBE_REPS` passes over a 64 MiB buffer, far larger than the caches. Integer
/// adds, unlike float ones, may be reordered, so the loop vectorises and the memory
/// system, not the adder, sets the rate.
fn stream_read_gbps() -> f64 {
    let buf = vec![1u64; 8 << 20];
    let mut rates = Vec::new();
    for _ in 0..PROBE_REPS {
        let start = CpuTimer::start();
        black_box(black_box(&buf).iter().fold(0u64, |acc, &x| acc.wrapping_add(x)));
        rates.push(std::mem::size_of_val(&buf[..]) as f64 / start.elapsed_s() * 1e-9);
    }
    median(&rates)
}

/// Microseconds one token spends in one layer's seven projections, called directly
/// through `Linear::forward`.
fn linear_us_per_token(layer: &LayerWeights, rng: &mut StdRng) -> f64 {
    const TOKENS: usize = 64;
    let mut vector = |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect() };
    let x = vector(layer.wq.cols());
    let attn = vector(layer.wo.cols());
    let ffn = vector(layer.w_down.cols());
    let mut reps = Vec::new();
    for _ in 0..PROBE_REPS {
        let start = CpuTimer::start();
        for _ in 0..TOKENS {
            for lin in [&layer.wq, &layer.wk, &layer.wv, &layer.w_gate, &layer.w_up] {
                black_box(lin.forward(black_box(&x)));
            }
            black_box(layer.wo.forward(black_box(&attn)));
            black_box(layer.w_down.forward(black_box(&ffn)));
        }
        reps.push(start.elapsed_s() * 1e6 / TOKENS as f64);
    }
    median(&reps)
}
