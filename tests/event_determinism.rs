//! Event-engine determinism, replay, and closed-form agreement contracts.
//!
//! The engine charges every iteration with the paper's closed forms
//! (`neo_core::pipeline`); `neo_core::event_overlap` is their reference oracle, which
//! prices the same decision by event-ordered execution of its job graph. This suite
//! records the decisions of one engine or server run with a test-side [`Scheduler`]
//! wrapper and prices each decision both ways. The oracle must be:
//!
//! * **order-invariant** — fuzzing the same-tick dispatch order with any seed leaves
//!   every estimate bit-identical, because well-formed components derive their
//!   transitions from simulated time and shared state, never from dispatch order
//!   (proptested over ≥ 64 seeds, plus the `NEO_EVENT_FUZZ_SEED` CI matrix);
//! * **replayable** — the exact `(tick, component, event)` sequence of an h100_70b
//!   decision window is pinned, in the style of the scheduling traces in
//!   `tests/tp_accounting.rs`;
//! * **agreeing with the pinned closed forms** — on every recorded decision the
//!   event-ordered estimate is never slower, and in aggregate at most 8 % faster.

use std::sync::{Arc, Mutex};

use neo_bench::{Policy, Scenario};
use neo_core::config::EngineConfig;
use neo_core::pipeline::{estimate_decision, IterationEstimate};
use neo_core::request::Request;
use neo_core::{
    estimate_decision_event, trace_decision_event, Engine, ExecutionMode, IterationReport,
    ScheduleContext, ScheduleDecision, Scheduler, SubBatch,
};
use neo_serve::Server;
use neo_sim::event::TieBreak;
use neo_sim::CostModel;
use proptest::prelude::*;

/// The small T4 scenario (LLaMa-2-7B on g4dn.4xlarge) used by the determinism
/// proptests: bursty enough to exercise offloading, swaps and both sub-batches, small
/// enough to price 64+ fuzzed cases quickly.
const T4_REQUESTS: usize = 10;
const T4_PROMPT: usize = 240;
const T4_OUTPUT: usize = 12;

/// `NEO_KV_HIERARCHY=on` (the CI `prefix-cache` matrix) turns the shared-prefix cache
/// on for every engine in this suite. None of these workloads share token runs, so the
/// cache must be a pure no-op: every bit-identity, replay, and agreement contract below
/// must hold unchanged — the "on" matrix leg re-proves the hierarchy's transparency.
fn kv_hierarchy_on() -> bool {
    std::env::var("NEO_KV_HIERARCHY").map(|v| v == "on" || v == "1").unwrap_or(false)
}

/// One non-idle decision, with the whole-sequence swap traffic the engine priced it
/// with.
struct Recorded {
    decision: ScheduleDecision,
    swap_out_tokens: usize,
    swap_in_tokens: usize,
}

type Log = Arc<Mutex<Vec<Recorded>>>;

/// Delegates to the real policy and logs every non-idle decision it makes.
struct Recorder {
    inner: Box<dyn Scheduler>,
    log: Log,
}

impl Scheduler for Recorder {
    fn schedule(&mut self, ctx: &ScheduleContext<'_>) -> ScheduleDecision {
        let decision = self.inner.schedule(ctx);
        if !decision.is_idle() {
            let tokens = |ids: &[u64]| ids.iter().map(|id| ctx.requests[id].context_len()).sum();
            let recorded = Recorded {
                swap_out_tokens: tokens(&decision.swap_out),
                swap_in_tokens: tokens(&decision.swap_in),
                decision: decision.clone(),
            };
            self.log.lock().expect("no test thread panics holding the log").push(recorded);
        }
        decision
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A NEO engine on `scenario` whose decisions land in the returned log.
fn recording_engine(scenario: &Scenario) -> (Engine, Log) {
    let log = Log::default();
    let config = EngineConfig { prefix_cache: kv_hierarchy_on(), ..EngineConfig::default() };
    let scheduler = Recorder { inner: Policy::Neo.scheduler(), log: Arc::clone(&log) };
    (Engine::new(scenario.cost_model(), config, Box::new(scheduler)), log)
}

fn take(log: &Log) -> Vec<Recorded> {
    std::mem::take(&mut *log.lock().expect("no test thread panics holding the log"))
}

/// Prices a recorded decision with the closed forms, exactly as the engine did.
fn closed_form(cost: &CostModel, r: &Recorded) -> IterationEstimate {
    estimate_decision(cost, &r.decision, r.swap_out_tokens, r.swap_in_tokens, true)
}

/// Prices a recorded decision with the event-ordered oracle.
fn event_ordered(cost: &CostModel, r: &Recorded, tie_break: TieBreak) -> IterationEstimate {
    estimate_decision_event(cost, &r.decision, r.swap_out_tokens, r.swap_in_tokens, true, tie_break)
}

/// Runs `requests` on a recording engine until idle and returns the engine's cost
/// model, every iteration report and the recorded decisions.
fn record_engine_run(
    scenario: &Scenario,
    requests: impl IntoIterator<Item = Request>,
) -> (CostModel, Vec<IterationReport>, Vec<Recorded>) {
    let (mut engine, log) = recording_engine(scenario);
    for request in requests {
        engine.submit(request).unwrap();
    }
    let mut reports = Vec::new();
    while !engine.is_idle() {
        reports.push(engine.step());
    }
    (engine.cost_model().clone(), reports, take(&log))
}

/// The T4 workload's decisions, recorded twice: once stepping the engine directly,
/// once through the serving loop (staggered arrivals, token streaming).
fn t4_recordings() -> (CostModel, Vec<Recorded>) {
    let requests = (0..T4_REQUESTS as u64)
        .map(|id| Request::new(id, 0.0, T4_PROMPT + (id as usize % 3) * 40, T4_OUTPUT));
    let (cost, _, mut decisions) = record_engine_run(&Scenario::t4_7b(), requests);
    let (engine, log) = recording_engine(&Scenario::t4_7b());
    let mut server = Server::new(engine);
    for i in 0..T4_REQUESTS {
        server.submit(i as f64 * 0.05, T4_PROMPT, T4_OUTPUT).unwrap();
    }
    server.run_until_idle();
    decisions.extend(take(&log));
    (cost, decisions)
}

/// Every recorded decision priced by the oracle under `tie_break`, rendered with full
/// `{:?}` (f64 round-trip) precision — the bit-identity surface.
fn render_event_estimates(cost: &CostModel, decisions: &[Recorded], tie_break: TieBreak) -> String {
    decisions.iter().map(|r| format!("{:?}\n", event_ordered(cost, r, tie_break))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ≥ 64 fuzzed tie-break seeds: the oracle's estimate of every decision of the T4
    /// engine and server runs is bit-identical to the deterministic (`ById`, seed 0)
    /// order.
    #[test]
    fn fuzzed_tie_break_order_is_bit_identical_on_t4(seed in 1u64..u64::MAX) {
        let (cost, decisions) = t4_recordings();
        let reference = render_event_estimates(&cost, &decisions, TieBreak::ById);
        let fuzzed = render_event_estimates(&cost, &decisions, TieBreak::from_seed(seed));
        prop_assert_eq!(&reference, &fuzzed);
    }
}

/// The CI seed-matrix entry point: `NEO_EVENT_FUZZ_SEED` (0 = deterministic order)
/// must reproduce the seed-0 estimates bit-identically. The fuzzed-order CI job runs
/// this test binary once per seed.
#[test]
fn ci_fuzz_seed_matches_the_deterministic_order() {
    let seed: u64 =
        std::env::var("NEO_EVENT_FUZZ_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xC0FFEE);
    let (cost, decisions) = t4_recordings();
    assert!(!decisions.is_empty());
    assert_eq!(
        render_event_estimates(&cost, &decisions, TieBreak::ById),
        render_event_estimates(&cost, &decisions, TieBreak::from_seed(seed))
    );
}

/// A representative h100_70b (tp = 2) asymmetric decision: a prefill chunk headed for
/// the CPU cache, GPU decodes, an offloaded batch-1, and whole-sequence swap traffic in
/// both directions.
fn h100_decision() -> ScheduleDecision {
    ScheduleDecision {
        mode: ExecutionMode::Asymmetric,
        batch0: SubBatch {
            prefills: vec![neo_core::PrefillItem {
                req: 900,
                new_tokens: 512,
                ctx_after: 512,
                target: neo_kvcache::Device::Cpu,
            }],
            gpu_decodes: (0..24).map(|i| (i, 1500)).collect(),
            cpu_decodes: vec![],
        },
        batch1: SubBatch {
            prefills: vec![],
            gpu_decodes: vec![],
            cpu_decodes: (100..112).map(|i| (i, 1500)).collect(),
        },
        swap_out: vec![],
        swap_in: vec![],
        preempt: vec![],
        demote_disk: vec![],
        promote_disk: vec![],
    }
}

/// Golden trace: the exact `(tick, component, event)` sequence of the first ten
/// dispatches of the h100_70b decision window, plus the window's totals, pinned with
/// `{:?}` round-trip literals. Any change to event ordering, job construction or the
/// cost model shows up here as a bit-level diff.
#[test]
fn h100_70b_event_trace_is_pinned() {
    let scenario = Scenario::h100_70b_tp(2);
    let cost = scenario.cost_model();
    let decision = h100_decision();
    let (estimate, trace) =
        trace_decision_event(&cost, &decision, 3000, 2000, true, TieBreak::ById);

    // 80 layers × (4 compute + 2 link jobs), two dispatches (start/finish, possibly
    // fused) each; the exact length is part of the replay contract.
    let window: Vec<(f64, &str, &str)> =
        trace.iter().take(10).map(|r| (r.tick, r.name.as_str(), r.event.as_str())).collect();
    let expected: Vec<(f64, &str, &str)> = vec![
        (0.0, "gpu", "start layer0/gpu.linear0"),
        (0.0, "cpu", "start layer0/cpu.attn1"),
        (0.0007899345306122448, "cpu", "finish layer0/cpu.attn1"),
        (0.0009173112776051424, "gpu", "finish layer0/gpu.linear0; start layer0/gpu.linear1+attn0"),
        (0.0013081066670578786, "gpu", "finish layer0/gpu.linear1+attn0; start layer1/gpu.linear0"),
        (0.0013081066670578786, "cpu", "start layer1/cpu.attn1"),
        (0.0013081066670578786, "link.d2h", "start layer0/d2h"),
        (0.0013081066670578786, "link.h2d", "start layer0/h2d"),
        (0.001401440000391212, "link.h2d", "finish layer0/h2d"),
        (0.001473952000391212, "link.d2h", "finish layer0/d2h"),
    ];
    assert_eq!(window, expected);
    assert_eq!(trace.len(), 641);
    assert_eq!(estimate.total_time, 0.10528941657338621);
    assert_eq!(estimate.exposed_swap_time, 0.00016584533333303952);
}

/// Asserts the pinned tolerance over a run's recorded decisions: the oracle is never
/// slower than the closed form on any decision, and at most 8 % faster in aggregate.
fn assert_oracle_agrees(label: &str, cost: &CostModel, decisions: &[Recorded]) {
    assert!(!decisions.is_empty(), "{label}: nothing was recorded");
    let mut closed_total = 0.0;
    let mut event_total = 0.0;
    for (i, r) in decisions.iter().enumerate() {
        let closed = closed_form(cost, r).total_time;
        let event = event_ordered(cost, r, TieBreak::ById).total_time;
        assert!(event <= closed + 1e-9, "{label} decision {i}: event {event} > closed {closed}");
        closed_total += closed;
        event_total += event;
    }
    let rel = (closed_total - event_total) / closed_total;
    assert!(
        (-1e-9..=0.08).contains(&rel),
        "{label}: event makespan deviates {:.2}% from the closed forms",
        rel * 100.0
    );
}

/// Engine-level agreement. Each recorded decision is priced exactly as the engine
/// charged it (checked against the iteration reports), and the oracle tracks those
/// closed forms within the pinned tolerance.
#[test]
fn event_path_agrees_with_closed_form_within_pinned_tolerance() {
    // Workloads sized so each scenario drains: the T4 has far less KV headroom than
    // the A10G or the H100, so it gets fewer, shorter requests.
    for (label, scenario, n_requests, prompt) in [
        ("t4_7b", Scenario::t4_7b(), 10u64, 240usize),
        ("a10g_8b", Scenario::a10g_8b(), 16, 1200),
        ("h100_70b", Scenario::h100_70b(), 16, 1200),
    ] {
        let requests = (0..n_requests).map(|id| Request::new(id, 0.0, prompt, 24));
        let (cost, reports, decisions) = record_engine_run(&scenario, requests);
        let busy: Vec<&IterationReport> = reports.iter().filter(|r| !r.idle).collect();
        assert_eq!(busy.len(), decisions.len(), "{label}: one record per busy iteration");
        for (report, r) in busy.iter().zip(&decisions) {
            let charged = closed_form(&cost, r).total_time.max(1e-6);
            assert!(
                (report.duration - charged).abs() <= 1e-9,
                "{label} iter {}: engine charged {}, recorded decision prices {charged}",
                report.iteration,
                report.duration
            );
        }
        assert_oracle_agrees(label, &cost, &decisions);
    }
}

/// Serving-level agreement: the decisions of a server draining a burst price within
/// the pinned tolerance under the oracle.
#[test]
fn event_path_serves_the_same_workload_within_tolerance() {
    let (engine, log) = recording_engine(&Scenario::a10g_8b());
    let cost = engine.cost_model().clone();
    let mut server = Server::new(engine);
    for _ in 0..12 {
        server.submit(0.0, 800, 16).unwrap();
    }
    assert_eq!(server.run_until_idle().completed, 12);
    assert_oracle_agrees("a10g_8b server", &cost, &take(&log));
}
