//! The three simulator workloads: `fleet48`, `t4_offload` and `chat_prefix`.
//!
//! Each builds a seeded trace and fresh NEO engines (set-up), then serves the whole
//! trace (timed on the CPU clock and scaled by the host's slowdown, see
//! [`host::Slowdown`]): `fleet48` through `Cluster::new` + `Cluster::run`, the other
//! two through `Server::submit*` + `Server::tick`. The trace length is fixed per
//! workload, because host cost per request grows with it; `--seconds` sets how many
//! runs, each on a new trace drawn from the seed, an invocation makes, and the host
//! rates are their median. A run cut by its budget (see the known defects in
//! `perfbench/README.md`) counts all its unfinished requests as failed and gives no
//! rate.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use neo_bench::{Policy, Scenario};
use neo_cluster::{Cluster, ClusterConfig, Discipline};
use neo_core::{Engine, EngineConfig, Scheduler};
use neo_kvcache::Device;
use neo_serve::metrics::LatencySummary;
use neo_serve::{run_online, RequestHandle, RequestStatus, Server, ServerReport};
use neo_workload::{fleet_mix, multi_turn_chat, osc_like, ArrivalProcess, ChatConfig};
use neo_workload::{SessionTrace, Trace};

use crate::host::{self, CpuTimer, Slowdown};
use crate::report::{mean, median, quantile, ratio, Layers, Outcome};
use crate::tracer::{self, SharedTracer, TracedScheduler, NONE};

/// Engine iterations the serving loop may run per request sent before the run is
/// cut and every unfinished request counts as failed. Healthy runs need 3 (on
/// `t4_offload`) to 12 (on `chat_prefix`); see `serve.ticks` in a traced run.
const TICKS_PER_REQUEST: u64 = 40;
/// Runs an untraced invocation times at least (after the warm-up run, and not
/// counting runs cut by their budget), however long they take.
const MIN_TIMED_RUNS: usize = 3;
/// An untraced invocation starts no run after this many seconds, even if too few
/// runs drained, so it ends well within its time limit.
const RUN_LIMIT_S: f64 = 100.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sim {
    Fleet48,
    T4Offload,
    ChatPrefix,
}

/// Latency limits of the `sim_slo_frac` metric: a request meets its SLO when its
/// time to first token and its mean latency per output token (request latency ÷
/// output length) are both within them.
#[derive(Debug, Clone, Copy)]
pub struct Slo {
    pub ttft_s: f64,
    pub per_token_s: f64,
}

impl Sim {
    pub const ALL: [Sim; 3] = [Sim::Fleet48, Sim::T4Offload, Sim::ChatPrefix];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Sim::Fleet48 => "fleet48",
            Sim::T4Offload => "t4_offload",
            Sim::ChatPrefix => "chat_prefix",
        }
    }

    /// The SLO of the single-server workloads. `fleet48` has none: the cluster
    /// report exposes no per-request latencies to check one against.
    pub fn slo(self) -> Option<Slo> {
        match self {
            Sim::Fleet48 => None,
            Sim::T4Offload => Some(Slo { ttft_s: 5.0, per_token_s: 0.25 }),
            Sim::ChatPrefix => Some(Slo { ttft_s: 0.25, per_token_s: 0.05 }),
        }
    }

    fn traffic(self, seed: u64) -> Traffic {
        match self {
            Sim::Fleet48 => Traffic::Flat(fleet_mix(25_600, 0.35, 72.0, seed)),
            Sim::T4Offload => Traffic::Flat(osc_like(
                T4_REQUESTS,
                ArrivalProcess::Poisson { rate: T4_RATE },
                seed,
            )),
            Sim::ChatPrefix => Traffic::Sessions(multi_turn_chat(
                &ChatConfig {
                    sessions: CHAT_SESSIONS,
                    turns: 4,
                    system_len: 1024,
                    user_len: 96,
                    output_len: 48,
                    shared_system_prob: 0.5,
                    session_rate: 0.6,
                    turn_gap: 6.0,
                },
                seed,
            )),
        }
    }

    /// The fleet, each engine running `Policy::Neo`, wrapped when traced.
    fn engines(self, tracer: Option<&SharedTracer>) -> Vec<(String, Engine)> {
        let engine = |scenario: &Scenario, config: EngineConfig| {
            let policy = Policy::Neo.scheduler();
            let scheduler: Box<dyn Scheduler> = match tracer {
                Some(t) => Box::new(TracedScheduler::new(policy, t.clone())),
                None => policy,
            };
            Engine::new(scenario.cost_model(), config, scheduler)
        };
        match self {
            Sim::Fleet48 => {
                let kinds = [
                    ("t4-7b", Scenario::t4_7b()),
                    ("a10g-8b", Scenario::a10g_8b()),
                    ("h100-70b", Scenario::h100_70b()),
                ];
                (0..16)
                    .flat_map(|i| kinds.iter().map(move |(name, s)| (format!("{name}-{i}"), s)))
                    .map(|(name, s)| (name, engine(s, EngineConfig::default())))
                    .collect()
            }
            Sim::T4Offload => {
                vec![("t4-7b".to_string(), engine(&Scenario::t4_7b(), EngineConfig::default()))]
            }
            Sim::ChatPrefix => {
                let config =
                    EngineConfig { prefix_cache: true, disk_tier: true, ..EngineConfig::default() };
                vec![("a10g-8b".to_string(), engine(&Scenario::a10g_8b(), config))]
            }
        }
    }
}

/// `t4_offload`'s Poisson arrival rate, just past the fig6 knee.
const T4_RATE: f64 = 2.5;
/// Requests per `t4_offload` trace.
const T4_REQUESTS: usize = 10_000;
/// Chat sessions (of 4 requests each) per `chat_prefix` trace.
const CHAT_SESSIONS: usize = 1_000;

enum Traffic {
    Flat(Trace),
    Sessions(SessionTrace),
}

impl Traffic {
    fn len(&self) -> usize {
        match self {
            Traffic::Flat(t) => t.len(),
            Traffic::Sessions(t) => t.len(),
        }
    }

    fn output_len(&self, i: usize) -> usize {
        match self {
            Traffic::Flat(t) => t.requests()[i].output_len,
            Traffic::Sessions(t) => t.requests()[i].output_len,
        }
    }

    fn prompt_tokens(&self) -> u64 {
        match self {
            Traffic::Flat(t) => t.requests().iter().map(|r| r.prompt_len as u64).sum(),
            Traffic::Sessions(t) => t.requests().iter().map(|r| r.prompt_len() as u64).sum(),
        }
    }
}

/// The simulated results of one run. They depend only on the trace and the
/// engines, so a traced run of the same trace must reproduce them exactly.
#[derive(Debug, Clone, PartialEq)]
struct SimOutputs {
    sent: u64,
    finished: u64,
    failed: u64,
    streamed_tokens: u64,
    makespan: f64,
    ttft: Option<LatencySummary>,
    itl: Option<LatencySummary>,
    /// Requests meeting the SLO; `None` where the run exposes no per-request
    /// latencies (a cluster report carries only summaries).
    slo_met: Option<u64>,
    /// Whether the run hit its budget (event or tick) before draining.
    budget_hit: bool,
    /// The full report of the driven entry point, as printed by `Debug`.
    report: String,
}

/// Per-tick samples the benchmark loop takes around a traced run, of what no
/// report exposes.
#[derive(Debug, Default)]
struct LoopSamples {
    queue_depth: Vec<f64>,
    gpu_used: Vec<f64>,
    cpu_used: Vec<f64>,
    busy_batch: Vec<f64>,
    busy_cpu_offloaded: Vec<f64>,
    prefill_tokens: u64,
    decode_tokens: u64,
    swap_out: u64,
    swap_in: u64,
    demoted_disk: u64,
    promoted_disk: u64,
}

/// One served trace.
struct Run {
    out: SimOutputs,
    /// Host CPU seconds from the first submit until the run drained.
    host_s: f64,
    samples: LoopSamples,
    /// The server's report, on the single-server workloads.
    served: Option<ServerReport>,
    /// Counters read from the driven entry point once the run ended.
    ticks: u64,
    prefix_hit_tokens: u64,
    cow_splits: u64,
    routes: u64,
    retries: u64,
    dropped: u64,
    /// Conservation checks that failed.
    problems: Vec<String>,
}

impl Run {
    fn new(out: SimOutputs, host_s: f64) -> Self {
        Self {
            out,
            host_s,
            samples: LoopSamples::default(),
            served: None,
            ticks: 0,
            prefix_hit_tokens: 0,
            cow_splits: 0,
            routes: 0,
            retries: 0,
            dropped: 0,
            problems: Vec::new(),
        }
    }

    /// Every request sent ended exactly once, and the streamed tokens are exactly
    /// the finished requests' outputs plus the partial output of failed ones.
    fn check_conservation(&mut self, streamed_expected: u64) {
        let o = &self.out;
        if o.finished + o.failed != o.sent {
            self.problems
                .push(format!("finished {} + failed {} != sent {}", o.finished, o.failed, o.sent));
        }
        if o.streamed_tokens != streamed_expected {
            self.problems.push(format!(
                "streamed {} tokens, but finished requests' outputs (plus partial output of \
                 failed ones) sum to {streamed_expected}",
                o.streamed_tokens
            ));
        }
    }
}

/// What the cluster's event engine panics with when a run exceeds `max_events`.
const EVENT_BUDGET_PANIC: &str = "event engine exceeded";

/// Runs `f`, turning a panic into its message; the caller reports it.
fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = catch_unwind(AssertUnwindSafe(f));
    std::panic::set_hook(hook);
    result.map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "a panic with no message".to_string())
    })
}

/// Opens a span when traced.
fn open(tracer: Option<&SharedTracer>, name: &'static str, request: u64) -> Option<u64> {
    tracer.map(|t| tracer::lock(t).open(name, request))
}

fn close(tracer: Option<&SharedTracer>, span: Option<u64>) {
    if let (Some(t), Some(id)) = (tracer, span) {
        tracer::lock(t).close(id);
    }
}

/// Serves `traffic` on one engine through `Server::submit*` and `Server::tick`.
fn serve(engine: Engine, traffic: &Traffic, slo: Slo, tracer: Option<&SharedTracer>) -> Run {
    let start = CpuTimer::start();
    let mut server = Server::new(engine);
    let n = traffic.len();
    let mut handles: Vec<Option<RequestHandle>> = Vec::with_capacity(n);
    for i in 0..n {
        let span = open(tracer, "serve.submit", i as u64);
        let handle = match traffic {
            Traffic::Flat(t) => {
                let r = &t.requests()[i];
                server.submit(r.arrival, r.prompt_len, r.output_len)
            }
            Traffic::Sessions(t) => {
                let r = &t.requests()[i];
                server.submit_with_runs(r.arrival, r.runs.clone(), r.output_len)
            }
        };
        close(tracer, span);
        handles.push(handle.ok());
    }
    let budget = TICKS_PER_REQUEST * n as u64;
    let mut samples = LoopSamples::default();
    let mut ticks = 0u64;
    let mut budget_hit = false;
    loop {
        if ticks == budget {
            budget_hit = true;
            break;
        }
        let span = open(tracer, "serve.tick", NONE);
        let more = server.tick();
        close(tracer, span);
        if !more {
            break;
        }
        ticks += 1;
        if tracer.is_some() {
            sample(&server, &mut samples);
        }
    }
    let host_s = start.elapsed_s();

    let report = server.report();
    let refused = handles.iter().filter(|h| h.is_none()).count() as u64;
    let mut unfinished = 0u64;
    let mut streamed_expected = 0u64;
    for (i, handle) in handles.iter().enumerate() {
        let Some(handle) = handle else { continue };
        match server.status(*handle) {
            RequestStatus::Finished { .. } => streamed_expected += traffic.output_len(i) as u64,
            RequestStatus::Running { generated } => {
                unfinished += 1;
                streamed_expected += generated as u64;
            }
            RequestStatus::Cancelled { generated } | RequestStatus::Dropped { generated, .. } => {
                streamed_expected += generated as u64
            }
            RequestStatus::Scheduled | RequestStatus::Backlogged => unfinished += 1,
        }
    }
    let completed = server.engine().completed();
    let slo_met = completed
        .iter()
        .filter(|r| {
            r.ttft().is_some_and(|t| t <= slo.ttft_s)
                && r.per_token_latency().is_some_and(|t| t <= slo.per_token_s)
        })
        .count() as u64;
    let out = SimOutputs {
        sent: n as u64,
        finished: completed.len() as u64,
        failed: refused + report.dropped as u64 + report.cancelled as u64 + unfinished,
        streamed_tokens: report.streamed_tokens,
        makespan: report.makespan,
        ttft: report.ttft,
        itl: report.itl,
        slo_met: Some(slo_met),
        budget_hit,
        report: format!("{report:?}"),
    };
    let mut run = Run::new(out, host_s);
    run.check_conservation(streamed_expected);
    run.samples = samples;
    run.served = Some(report);
    run.ticks = ticks;
    run.prefix_hit_tokens = server.engine().prefix_hit_tokens() as u64;
    run.cow_splits = server.engine().cow_splits() as u64;
    run
}

/// Per-tick samples of the traced serving loop, taken outside the tick span.
fn sample(server: &Server, s: &mut LoopSamples) {
    s.queue_depth.push(server.queue_depth() as f64);
    let kv = server.engine().kv();
    s.gpu_used.push(kv.pool(Device::Gpu).utilization());
    s.cpu_used.push(kv.pool(Device::Cpu).utilization());
    let Some(r) = server.last_iteration().filter(|r| !r.idle) else { return };
    s.busy_batch.push(r.batch_size as f64);
    s.busy_cpu_offloaded.push(r.cpu_offloaded as f64);
    s.prefill_tokens += r.prefill_tokens as u64;
    s.decode_tokens += r.decode_tokens as u64;
    s.swap_out += r.swapped_out as u64;
    s.swap_in += r.swapped_in as u64;
    s.demoted_disk += r.demoted_disk as u64;
    s.promoted_disk += r.promoted_disk as u64;
}

/// Serves the trace on the fleet through `Cluster::new` and `Cluster::run`, routed
/// least-KV under the default `ClusterConfig`, and so bounded by its `max_events`.
fn cluster(engines: Vec<(String, Engine)>, trace: &Trace, tracer: Option<&SharedTracer>) -> Run {
    let span = open(tracer, "cluster.run", NONE);
    let start = CpuTimer::start();
    let config = ClusterConfig { discipline: Discipline::LeastKv, ..ClusterConfig::default() };
    let result = catch(|| Cluster::new(engines, trace, config).run());
    let host_s = start.elapsed_s();
    close(tracer, span);
    let sent = trace.len() as u64;
    let report = match result {
        Ok(report) => report,
        Err(panic) => {
            eprintln!("perfbench: Cluster::run stopped: {panic}");
            // The budget guard panics, and the report goes with it: no request is known
            // to have finished, so every one counts as failed.
            let out = SimOutputs {
                sent,
                finished: 0,
                failed: sent,
                streamed_tokens: 0,
                makespan: 0.0,
                ttft: None,
                itl: None,
                slo_met: None,
                budget_hit: true,
                report: format!("aborted: {panic}"),
            };
            let mut run = Run::new(out, host_s);
            if !panic.contains(EVENT_BUDGET_PANIC) {
                run.problems.push(format!("Cluster::run panicked: {panic}"));
            }
            return run;
        }
    };
    let dropped: std::collections::BTreeSet<u64> = report.drops.iter().map(|d| d.id).collect();
    let streamed_expected = trace
        .requests()
        .iter()
        .enumerate()
        .filter(|(i, _)| !dropped.contains(&(*i as u64)))
        .map(|(_, r)| r.output_len as u64)
        .sum();
    let out = SimOutputs {
        sent,
        finished: report.completed as u64,
        failed: report.dropped as u64,
        streamed_tokens: report.streamed_tokens,
        makespan: report.makespan,
        ttft: report.ttft,
        itl: report.itl,
        slo_met: None,
        budget_hit: false,
        report: format!("{report:?}"),
    };
    let mut run = Run::new(out, host_s);
    run.check_conservation(streamed_expected);
    let engine_tokens: u64 = report.engines.iter().map(|e| e.streamed_tokens).sum();
    if engine_tokens != report.streamed_tokens {
        run.problems.push(format!(
            "engines streamed {engine_tokens} tokens, the cluster reports {}",
            report.streamed_tokens
        ));
    }
    run.routes = report.routes.len() as u64;
    run.retries = report.retries;
    run.dropped = report.dropped as u64;
    run
}

/// Serves the trace once on engines built during set-up.
fn run_once(
    sim: Sim,
    engines: Vec<(String, Engine)>,
    traffic: &Traffic,
    tracer: Option<&SharedTracer>,
) -> Run {
    if let (Sim::Fleet48, Traffic::Flat(trace)) = (sim, traffic) {
        return cluster(engines, trace, tracer);
    }
    let slo = sim.slo().expect("the single-server workloads have an SLO");
    let (_, engine) = engines.into_iter().next().expect("a single-server workload has an engine");
    serve(engine, traffic, slo, tracer)
}

/// `t4_offload` only: the `Server`-driven summaries must equal `run_online`'s on
/// the same trace.
fn check_against_run_online(run: &Run, trace: &Trace, outcome: &mut Outcome) {
    if run.out.budget_hit {
        outcome.note("run_online_check", "skipped: the run hit its tick budget");
        return;
    }
    let engine = Sim::T4Offload.engines(None).into_iter().next().expect("one engine").1;
    let budget = TICKS_PER_REQUEST * trace.len() as u64;
    let online = match catch(|| run_online(engine, trace, T4_RATE, budget)) {
        Ok(online) => online,
        Err(panic) => {
            return outcome.check(false, || {
                format!("run_online panicked on a trace the Server loop drained: {panic}")
            })
        }
    };
    let o = &run.out;
    let same = online.completed as u64 == o.finished
        && online.makespan.to_bits() == o.makespan.to_bits()
        && Some(online.ttft) == o.ttft
        && online.itl == o.itl;
    outcome.check(same, || {
        format!(
            "Server loop and run_online disagree: completed {} vs {}, makespan {} vs {}, \
             ttft {:?} vs {:?}, itl {:?} vs {:?}",
            o.finished,
            online.completed,
            o.makespan,
            online.makespan,
            o.ttft,
            online.ttft,
            o.itl,
            online.itl
        )
    });
    outcome.note("run_online_check", if same { "equal" } else { "DIFFERENT" });
}

/// The trace seed of run `i` of an invocation: run 0 serves the `--seed` trace
/// itself, later runs serve further traces drawn from it.
fn run_seed(seed: u64, i: u64) -> u64 {
    if i == 0 {
        seed
    } else {
        StdRng::seed_from_u64(seed ^ i.rotate_left(32)).next_u64()
    }
}

/// Runs a simulator workload. Untraced, it times the set-ups, then serves a new trace
/// drawn from the seed per run until `seconds` have passed and at least
/// `MIN_TIMED_RUNS` were timed, and reports medians over the runs after the first
/// that drained; traced, it serves the seed's trace three times (warm-up, untraced,
/// traced).
pub fn run(sim: Sim, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut outcome = Outcome::default();
    if traced {
        run_traced(sim, seed, &mut outcome);
        return outcome;
    }
    let setup_s = host::timed_setups(|| drop((sim.traffic(seed), sim.engines(None))));
    let mut req_rates = Vec::new();
    let mut tok_rates = Vec::new();
    let mut raw_tok_rates = Vec::new();
    let mut peak_rss = Vec::new();
    let mut budget_hits = 0;
    let mut first: Option<Run> = None;
    let timed = Instant::now();
    let mut i = 0;
    loop {
        let elapsed = timed.elapsed().as_secs_f64();
        let wanted = tok_rates.len() < MIN_TIMED_RUNS || elapsed < seconds;
        if !wanted || elapsed >= RUN_LIMIT_S {
            break;
        }
        host::reset_peak_rss();
        let traffic = sim.traffic(run_seed(seed, i));
        let engines = sim.engines(None);
        let slowdown = Slowdown::start();
        let run = run_once(sim, engines, &traffic, None);
        let slowdown = slowdown.finish();
        outcome.attempted += run.out.sent;
        outcome.failed += run.out.failed;
        if run.out.budget_hit {
            // A run cut by its budget has no rate: how much of it finished is unknown
            // (the cluster's report is lost) or partial. Its requests count as failed.
            budget_hits += 1;
        } else if i > 0 {
            // Run 0 warms the caches and the allocator; the host medians skip it.
            req_rates.push(run.out.finished as f64 / run.host_s * slowdown);
            let tok_rate = run.out.streamed_tokens as f64 / run.host_s;
            raw_tok_rates.push(tok_rate);
            tok_rates.push(tok_rate * slowdown);
            peak_rss.push(host::peak_rss_mib());
        }
        outcome.problems.extend(run.problems.iter().cloned());
        first.get_or_insert(run);
        i += 1;
    }
    let first = first.expect("at least one run");
    outcome.note("setup_s_each [s, scaled]", format!("{setup_s:.5?}"));
    outcome.note("runs", i);
    outcome.note("host_tok_per_s_per_timed_run [tok/s, scaled]", format!("{tok_rates:.0?}"));
    outcome.note("host_tok_per_s_per_timed_run [tok/s, unscaled]", format!("{raw_tok_rates:.0?}"));
    outcome.note("runs_that_hit_their_budget", budget_hits);
    outcome.note("sim_req_per_s [req/s, scaled, median over runs]", median(&req_rates));
    outcome.note("simulated_outputs_below", "run 0, which serves the --seed trace");
    describe(sim, &first.out, &mut outcome);
    if sim == Sim::T4Offload {
        if let Traffic::Flat(trace) = sim.traffic(seed) {
            check_against_run_online(&first, &trace, &mut outcome);
        }
    }
    outcome.end_to_end(median(&setup_s), median(&tok_rates), median(&peak_rss));
    outcome
}

/// Prints the simulated serving metrics and request counts of one run.
fn describe(sim: Sim, o: &SimOutputs, outcome: &mut Outcome) {
    outcome.note("requests_sent", o.sent);
    outcome.note("requests_finished", o.finished);
    outcome.note("requests_failed", o.failed);
    outcome.note("budget_hit", o.budget_hit);
    let pick =
        |s: &Option<LatencySummary>, f: fn(&LatencySummary) -> f64| s.as_ref().map_or(0.0, f);
    outcome.note("sim_ttft_p50_s [sim s]", pick(&o.ttft, |s| s.p50));
    outcome.note("sim_ttft_p99_s [sim s]", pick(&o.ttft, |s| s.p99));
    outcome.note("sim_itl_p50_s [sim s]", pick(&o.itl, |s| s.p50));
    outcome.note("sim_itl_p99_s [sim s]", pick(&o.itl, |s| s.p99));
    outcome.note("sim_out_tok_per_s [tok/sim s]", ratio(o.streamed_tokens as f64, o.makespan));
    match (sim.slo(), o.slo_met) {
        (Some(slo), Some(met)) => outcome.note(
            format!(
                "sim_slo_frac [ratio, TTFT <= {} s and per-token <= {} s]",
                slo.ttft_s, slo.per_token_s
            ),
            ratio(met as f64, o.sent as f64),
        ),
        _ => outcome.note("sim_slo_frac", "n/a: the cluster report has no per-request latencies"),
    }
}

/// A warm-up run, then one untraced and one traced run of the same trace: the
/// simulated outputs must be identical, and the traced run gives the per-layer
/// metrics. The warm-up run leaves the caches and the allocator as warm for the
/// untraced run as for the traced one, so their time ratio is the tracing overhead.
fn run_traced(sim: Sim, seed: u64, outcome: &mut Outcome) {
    let traffic = sim.traffic(seed);
    drop(run_once(sim, sim.engines(None), &traffic, None));
    let slowdown = Slowdown::start();
    let plain = run_once(sim, sim.engines(None), &traffic, None);
    let plain_s = plain.host_s / slowdown.finish();
    let shared = tracer::shared();
    let slowdown = Slowdown::start();
    let traced = run_once(sim, sim.engines(Some(&shared)), &traffic, Some(&shared));
    let traced_s = traced.host_s / slowdown.finish();
    outcome.attempted = traced.out.sent;
    outcome.failed = traced.out.failed;
    outcome.problems.extend(plain.problems.iter().cloned());
    outcome.problems.extend(traced.problems.iter().cloned());
    outcome.check(plain.out == traced.out, || {
        format!(
            "tracing changed the simulated outputs:\n  untraced {:?}\n  traced   {:?}",
            plain.out, traced.out
        )
    });
    describe(sim, &traced.out, outcome);

    let t = tracer::lock(&shared);
    let mut layers = Layers::default();
    let sched_s = t.durations_s("sched.schedule");
    let calls = sched_s.len() as f64;
    let sched_busy: f64 = sched_s.iter().sum();
    layers.set("sched.calls", calls);
    layers.set("sched.busy_s", sched_busy);
    layers.set("sched.us_p50", quantile(&sched_s, 0.5) * 1e6);
    layers.set("sched.us_p99", quantile(&sched_s, 0.99) * 1e6);
    // Spans share one clock: the scheduler's share of the time spent in the driven
    // entry points.
    let driven_s = t.total_s("cluster.run") + t.total_s("serve.submit") + t.total_s("serve.tick");
    layers.set("sched.busy_frac", ratio(sched_busy, driven_s));
    layers.set("cost.calls", t.cost_calls as f64);
    layers.set("cost.calls_per_iter", ratio(t.cost_calls as f64, calls));
    layers.set("cost.busy_s", t.cost_ns as f64 * 1e-9);
    let sent = traced.out.sent as f64;
    if sim == Sim::Fleet48 {
        let d = t.decisions;
        layers.set("cluster.run_s", t.total_s("cluster.run"));
        layers.set("cluster.engine_iters", calls);
        layers.set("cluster.iters_per_req", ratio(calls, sent));
        layers.set("cluster.routes", traced.routes as f64);
        layers.set("cluster.retries", traced.retries as f64);
        layers.set("cluster.dropped", traced.dropped as f64);
        layers.set("cluster.residual_us_per_iter", ratio(t.self_s("cluster.run"), calls) * 1e6);
        let busy = (d.iterations - d.idle) as f64;
        layers.set("engine.batch_mean", ratio(d.sequences as f64, busy));
        layers.set("engine.offload_iter_frac", ratio(d.offload_iterations as f64, busy));
        layers.set("engine.cpu_offloaded_mean", ratio(d.cpu_offloaded as f64, busy));
        layers.set("engine.idle_iter_frac", ratio(d.idle as f64, d.iterations as f64));
        layers.set("engine.prefill_tokens", d.prefill_tokens as f64);
        layers.set("engine.decode_tokens", d.decode_tokens as f64);
    } else {
        let s = &traced.samples;
        let r = traced.served.as_ref().expect("a single-server run has a server report");
        let ticks_s = t.durations_s("serve.tick");
        let ticks = traced.ticks as f64;
        layers.set("serve.tick_us_p50", quantile(&ticks_s, 0.5) * 1e6);
        layers.set("serve.tick_us_p99", quantile(&ticks_s, 0.99) * 1e6);
        layers.set("serve.ticks", ticks);
        layers.set("serve.submit_s", t.total_s("serve.submit"));
        layers.set("serve.queue_depth_mean", mean(&s.queue_depth));
        layers.set("serve.max_backlog", r.max_backlog as f64);
        layers.set("serve.residual_us_per_iter", ratio(t.self_s("serve.tick"), ticks) * 1e6);
        let idle = (r.iterations - r.busy_iterations) as f64;
        layers.set("engine.batch_mean", mean(&s.busy_batch));
        layers.set("engine.offload_iter_frac", r.offload_fraction);
        layers.set("engine.cpu_offloaded_mean", mean(&s.busy_cpu_offloaded));
        layers.set("engine.idle_iter_frac", ratio(idle, r.iterations as f64));
        layers.set("engine.prefill_tokens", s.prefill_tokens as f64);
        layers.set("engine.decode_tokens", s.decode_tokens as f64);
        layers.set("kv.gpu_used_frac_mean", mean(&s.gpu_used));
        layers.set("kv.cpu_used_frac_mean", mean(&s.cpu_used));
        layers.set("kv.swap_out", s.swap_out as f64);
        layers.set("kv.swap_in", s.swap_in as f64);
        layers.set("kv.demoted_disk", s.demoted_disk as f64);
        layers.set("kv.promoted_disk", s.promoted_disk as f64);
        layers.set(
            "kv.prefix_hit_rate",
            ratio(traced.prefix_hit_tokens as f64, traffic.prompt_tokens() as f64),
        );
        layers.set("kv.cow_splits", traced.cow_splits as f64);
    }
    layers.set("trace.overhead", ratio(traced_s, plain_s));
    layers.set("trace.spans", t.spans().len() as f64);
    outcome.note("untraced_run_s [CPU s, scaled]", plain_s);
    outcome.note("traced_run_s [CPU s, scaled]", traced_s);
    t.write_spans(sim.name(), outcome);
    layers.emit(outcome);
}
