//! Integration tests of the `SchedulerPolicy` seam: the blanket-driver equivalence
//! contract, cross-policy decision invariants on randomised scheduling contexts, NEO's
//! incremental balance pricing against a re-pricing reference (decisions and query
//! counts), and pinned decision traces for the pipelined-offloading baselines on a small
//! deterministic workload.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use neo_baselines::{
    FastDecodePlusScheduler, GpuOnlyScheduler, PipoScheduler, SimpleOffloadScheduler,
    SpecOffloadScheduler, SymmetricPipelineScheduler,
};
use neo_bench::{Policy, Scenario};
use neo_core::batch::{ScheduleDecision, SubBatch};
use neo_core::config::EngineConfig;
use neo_core::pipeline::{balanced, estimate_asymmetric, estimate_gpu_only};
use neo_core::policy::{IterationPlan, SchedulerPolicy};
use neo_core::request::Request;
use neo_core::scheduler::{NeoScheduler, ScheduleContext, Scheduler};
use neo_core::ExecutionMode;
use neo_kvcache::Device;
use neo_sim::profiler::{IterationCost, ProfiledCostModel};
use neo_sim::{CostModel, ModelDesc, Testbed};
use proptest::prelude::*;

/// A deterministic, hand-built scheduling context.
struct Fixture {
    requests: BTreeMap<u64, Request>,
    waiting: Vec<u64>,
    gpu_run: Vec<u64>,
    cpu_run: Vec<u64>,
    disk_run: Vec<u64>,
    prefill_device: BTreeMap<u64, Device>,
    gpu_free: usize,
    cpu_free: usize,
    disk_free: usize,
    config: EngineConfig,
}

impl Fixture {
    fn new(gpu_free: usize, cpu_free: usize) -> Self {
        Self {
            requests: BTreeMap::new(),
            waiting: vec![],
            gpu_run: vec![],
            cpu_run: vec![],
            disk_run: vec![],
            prefill_device: BTreeMap::new(),
            gpu_free,
            cpu_free,
            disk_free: 0,
            config: EngineConfig::default(),
        }
    }

    fn add_waiting(&mut self, id: u64, prompt: usize) {
        self.requests.insert(id, Request::new(id, 0.0, prompt, 32));
        self.waiting.push(id);
    }

    fn add_running(&mut self, id: u64, ctx_len: usize, device: Device) {
        let mut r = Request::new(id, 0.0, ctx_len.max(1), 32);
        r.advance_prefill(r.prompt_len);
        self.requests.insert(id, r);
        match device {
            Device::Gpu => self.gpu_run.push(id),
            Device::Cpu => self.cpu_run.push(id),
            Device::Disk => self.disk_run.push(id),
        }
    }

    /// A waiting request whose first `done` prompt tokens are already prefilled, with
    /// that KV on `device`.
    fn add_partial(&mut self, id: u64, prompt: usize, done: usize, device: Device) {
        let mut r = Request::new(id, 0.0, prompt, 32);
        r.advance_prefill(done);
        self.requests.insert(id, r);
        self.waiting.push(id);
        self.prefill_device.insert(id, device);
    }

    fn ctx<'a>(&'a self, cost: &'a dyn IterationCost) -> ScheduleContext<'a> {
        ScheduleContext {
            cost,
            config: &self.config,
            requests: &self.requests,
            waiting: &self.waiting,
            gpu_run: &self.gpu_run,
            cpu_run: &self.cpu_run,
            disk_run: &self.disk_run,
            gpu_free_tokens: self.gpu_free,
            cpu_free_tokens: self.cpu_free,
            disk_free_tokens: self.disk_free,
            gpu_capacity_tokens: self.gpu_free,
            prefill_device: &self.prefill_device,
            admission_backlog: 0,
        }
    }
}

fn a10g_cost() -> CostModel {
    CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1)
}

/// Drives a policy's phases by hand, exactly as the blanket `Scheduler` impl does.
fn manual_schedule<P: SchedulerPolicy>(
    policy: &mut P,
    ctx: &ScheduleContext<'_>,
) -> ScheduleDecision {
    let mut plan = IterationPlan::new(ctx);
    policy.form_batches(ctx, &mut plan);
    policy.admit(ctx, &mut plan);
    policy.split_offload(ctx, &mut plan);
    let decision = policy.select_mode(ctx, plan);
    if decision.is_idle() {
        ScheduleDecision::idle()
    } else {
        decision
    }
}

/// The blanket `Scheduler` impl must be exactly the documented phase pipeline — running
/// the phases by hand on a fresh policy instance yields an identical decision.
#[test]
fn blanket_driver_is_equivalent_to_manual_phases() {
    let mut fx = Fixture::new(2_000, 200_000);
    for id in 0..3 {
        fx.add_waiting(id, 700);
    }
    for id in 10..30 {
        fx.add_running(id, 600, Device::Gpu);
    }
    for id in 50..70 {
        fx.add_running(id, 800, Device::Cpu);
    }
    let cost = a10g_cost();
    let ctx = fx.ctx(&cost);

    fn check<P: SchedulerPolicy + Clone>(policy: &P, ctx: &ScheduleContext<'_>) {
        let via_trait = policy.clone().schedule(ctx);
        let via_phases = manual_schedule(&mut policy.clone(), ctx);
        assert_eq!(via_trait, via_phases, "{} diverged from its phases", policy.policy_name());
    }

    check(&NeoScheduler::new(), &ctx);
    check(&GpuOnlyScheduler::vllm_like(), &ctx);
    check(&GpuOnlyScheduler::swiftllm_like(), &ctx);
    check(&FastDecodePlusScheduler::new(), &ctx);
    check(&SimpleOffloadScheduler::new(), &ctx);
    check(&SymmetricPipelineScheduler::new(), &ctx);
    check(&PipoScheduler::new(), &ctx);
    check(&SpecOffloadScheduler::new(), &ctx);
}

/// Structural invariants every policy's decisions must uphold, whatever the context.
fn check_decision_invariants(
    name: &str,
    fx: &Fixture,
    d: &ScheduleDecision,
) -> Result<(), TestCaseError> {
    // Every scheduled id refers to a live request, and no id is scheduled twice.
    let ids = d.scheduled_ids();
    for window in ids.windows(2) {
        prop_assert!(window[0] != window[1], "{name}: id {} scheduled twice", window[0]);
    }
    for id in &ids {
        prop_assert!(fx.requests.contains_key(id), "{name}: unknown id {id}");
    }
    // Swap lists are disjoint, and preempted requests never also execute.
    for id in &d.swap_out {
        prop_assert!(!d.swap_in.contains(id), "{name}: {id} swapped both ways");
    }
    // Requests that are preempted or change KV tier this iteration never also execute:
    // a demoted request has no CPU-resident KV left, a promoted one has none yet.
    for (list, what) in
        [(&d.preempt, "preempted"), (&d.demote_disk, "demoted"), (&d.promote_disk, "promoted")]
    {
        for id in list {
            prop_assert!(!ids.contains(id), "{name}: {what} {id} still scheduled");
        }
    }
    for id in &d.demote_disk {
        prop_assert!(!d.promote_disk.contains(id), "{name}: {id} demoted and promoted");
    }
    // Prefills only ever sit in batch-0, within the per-iteration token budget.
    prop_assert!(d.batch1.prefills.is_empty(), "{name}: prefills in batch-1");
    let prefill_tokens: usize = d.batch0.prefills.iter().map(|p| p.new_tokens).sum();
    prop_assert!(
        prefill_tokens <= fx.config.max_batch_tokens,
        "{name}: prefill tokens {prefill_tokens} exceed the budget"
    );
    // Prefill chunks only come from the waitqueue.
    for p in &d.batch0.prefills {
        prop_assert!(fx.waiting.contains(&p.req), "{name}: prefilled {} not waiting", p.req);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All registered policies produce structurally sound decisions on randomised
    /// scheduling contexts (varying queue mix and memory pressure). The disk-tier arm
    /// runs with the tier on, requests parked on disk and tight GPU and CPU caches, so
    /// GPU pressure demotes CPU residents to disk.
    #[test]
    fn prop_all_policies_emit_sound_decisions(
        n_waiting in 0usize..6,
        n_gpu in 0usize..40,
        n_cpu in 0usize..40,
        ctx_len in 50usize..1500,
        gpu_free in 0usize..30_000,
        disk_arm in (0usize..2, 1usize..4, 0usize..1500),
    ) {
        let (disk_tier, n_disk, cpu_room) = disk_arm;
        let disk_tier = disk_tier == 1;
        // The disk arm leaves the GPU short of room for the decodes' new tokens, and the
        // CPU cache short of room for a swapped-out context.
        let (gpu_free, cpu_free) = if disk_tier {
            (gpu_free.min(n_gpu / 2), cpu_room % ctx_len)
        } else {
            (gpu_free, 500_000)
        };
        let mut fx = Fixture::new(gpu_free, cpu_free);
        if disk_tier {
            fx.config.disk_tier = true;
            fx.disk_free = 1_000_000;
            for id in 300..300 + n_disk as u64 {
                fx.add_running(id, ctx_len, Device::Disk);
            }
        }
        for id in 0..n_waiting as u64 {
            fx.add_waiting(id, ctx_len);
        }
        for id in 100..100 + n_gpu as u64 {
            fx.add_running(id, ctx_len, Device::Gpu);
        }
        for id in 200..200 + n_cpu as u64 {
            fx.add_running(id, ctx_len, Device::Cpu);
        }
        let cost = a10g_cost();
        let ctx = fx.ctx(&cost);
        for policy in Policy::ALL {
            let mut sched = policy.scheduler();
            let d = sched.schedule(&ctx);
            check_decision_invariants(sched.name(), &fx, &d)?;
        }
    }

    /// Every registered policy drains random workloads through the engine, conserving
    /// tokens and releasing all KV.
    #[test]
    fn prop_all_policies_drain_workloads(
        specs in proptest::collection::vec((50usize..600, 1usize..24), 1..10)
    ) {
        let scenario = Scenario::a10g_8b();
        for policy in Policy::ALL {
            let mut engine = scenario.engine(policy);
            for (i, &(prompt, output)) in specs.iter().enumerate() {
                engine.submit(Request::new(i as u64, 0.0, prompt, output)).unwrap();
            }
            let mut iterations = 0u64;
            while !engine.is_idle() && iterations < 400_000 {
                engine.step();
                iterations += 1;
            }
            prop_assert!(engine.is_idle(), "{} did not drain", engine.scheduler_name());
            prop_assert_eq!(engine.completed().len(), specs.len());
            let expected_decode: u64 = specs.iter().map(|&(_, o)| o as u64).sum();
            prop_assert_eq!(engine.total_decode_tokens(), expected_decode);
            prop_assert_eq!(engine.kv().num_sequences(), 0);
        }
    }
}

/// NEO's steps 4–6 as they were written before incremental pricing, kept as the test
/// oracle: every probe and every shed re-prices *both* sub-batches with
/// [`balanced`], and step 6 prices a cloned GPU-only decision in full. Batch
/// formation and admission delegate to [`NeoScheduler`].
#[derive(Debug, Default, Clone)]
struct RepricingNeo(NeoScheduler);

impl SchedulerPolicy for RepricingNeo {
    fn policy_name(&self) -> &'static str {
        "neo-repricing"
    }

    fn form_batches(&mut self, ctx: &ScheduleContext<'_>, plan: &mut IterationPlan) {
        self.0.form_batches(ctx, plan);
    }

    fn admit(&mut self, ctx: &ScheduleContext<'_>, plan: &mut IterationPlan) {
        self.0.admit(ctx, plan);
    }

    fn split_offload(&mut self, ctx: &ScheduleContext<'_>, plan: &mut IterationPlan) {
        let cfg = ctx.config;
        let hidden = |plan: &IterationPlan| {
            balanced(ctx.cost, &plan.batch0, &plan.batch1, cfg.balance_slack)
        };
        let mut candidates: Vec<(u64, usize)> = ctx
            .cpu_run
            .iter()
            .filter(|id| !plan.swap_in.contains(id) && !plan.demote_disk.contains(id))
            .map(|&id| (id, ctx.context_len(id)))
            .collect();
        candidates.extend(plan.swap_out.iter().map(|&id| (id, ctx.context_len(id))));
        candidates.sort_by_key(|&(_, c)| c);
        if plan.batch0.is_empty() && !candidates.is_empty() {
            for (id, c) in candidates.drain(..) {
                if plan.batch1.sequences() >= cfg.max_batch_seqs {
                    break;
                }
                plan.batch1.cpu_decodes.push((id, c));
            }
        }
        for (id, c) in candidates {
            if plan.sequences() >= 2 * cfg.max_batch_seqs {
                break;
            }
            plan.batch1.cpu_decodes.push((id, c));
            if hidden(plan) {
                continue;
            }
            plan.batch1.cpu_decodes.pop();
            plan.batch0.cpu_decodes.push((id, c));
            if hidden(plan) {
                continue;
            }
            plan.batch0.cpu_decodes.pop();
        }
        if !plan.batch0.cpu_decodes.is_empty() || !plan.batch1.cpu_decodes.is_empty() {
            while let Some(pos) = plan.batch0.prefills.iter().rposition(|p| p.target == Device::Cpu)
            {
                let removed = plan.batch0.prefills.remove(pos);
                if hidden(plan) {
                    continue;
                }
                plan.batch0.prefills.insert(pos, removed);
                break;
            }
        }
    }

    fn select_mode(&mut self, ctx: &ScheduleContext<'_>, plan: IterationPlan) -> ScheduleDecision {
        let overlap = ctx.config.layerwise_swap_overlap;
        let tokens = |ids: &[u64]| ids.iter().map(|&id| ctx.context_len(id)).sum::<usize>();
        let (swap_out, swap_in) = (tokens(&plan.swap_out), tokens(&plan.swap_in));
        let mut asym = plan.into_decision();
        asym.mode = ExecutionMode::Asymmetric;
        let asym_est = estimate_asymmetric(ctx.cost, &asym, swap_out, swap_in, overlap);
        let mut gpu_only = ScheduleDecision {
            mode: ExecutionMode::GpuOnly,
            batch1: SubBatch::new(),
            ..asym.clone()
        };
        gpu_only.batch0.cpu_decodes.clear();
        let gpu_est = estimate_gpu_only(ctx.cost, &gpu_only.batch0, swap_out, swap_in, overlap);
        if asym_est.throughput() > gpu_est.throughput() {
            asym
        } else {
            gpu_only
        }
    }
}

/// The cost models the oracle comparisons run under: exact, profiled, and profiled with
/// ±5% deterministic noise, which makes stage times non-monotone in their inputs (the
/// `ablation_knobs` sweep runs NEO on it).
fn oracle_cost_models() -> [Box<dyn IterationCost>; 3] {
    let exact = a10g_cost();
    [
        Box::new(exact.clone()),
        Box::new(ProfiledCostModel::new(exact.clone())),
        Box::new(ProfiledCostModel::with_noise(exact, 0.05)),
    ]
}

/// The `balance_slack` settings the oracle comparisons sweep.
const ORACLE_SLACKS: [f64; 3] = [0.0, 0.05, 0.3];

/// NEO's decision on `fx` equals the re-pricing reference's.
fn check_matches_reference(fx: &Fixture, cost: &dyn IterationCost) -> Result<(), TestCaseError> {
    let ctx = fx.ctx(cost);
    let incremental = NeoScheduler::new().schedule(&ctx);
    let reference = RepricingNeo::default().schedule(&ctx);
    prop_assert_eq!(incremental, reference);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Pricing each probe incrementally never changes a decision: on random queue mixes
    /// (fresh, CPU-pinned and GPU-pinned partial prefills; GPU, CPU and disk residents),
    /// memory pressure from none to total, every oracle cost model and every slack,
    /// `NeoScheduler` emits exactly the re-pricing reference's decision.
    #[test]
    fn prop_incremental_pricing_matches_the_repricing_reference(
        waiting in proptest::collection::vec((50usize..3000, 0usize..3), 0..6),
        gpu_ctx in proptest::collection::vec(1usize..3000, 0..40),
        cpu_ctx in proptest::collection::vec(1usize..3000, 0..60),
        pools in (0u32..16, 0u32..20, 0usize..2),
        knobs in (0usize..3, 0usize..3),
    ) {
        // Pool sizes drawn on a log scale, so both starved and ample pools are common.
        let (gpu_bits, cpu_bits, disk_tier) = pools;
        let mut fx = Fixture::new((1 << gpu_bits) - 1, (1 << cpu_bits) - 1);
        let (model, slack) = knobs;
        fx.config.balance_slack = ORACLE_SLACKS[slack];
        for (id, &(prompt, kind)) in (0u64..).zip(&waiting) {
            match kind {
                0 => fx.add_waiting(id, prompt),
                1 => fx.add_partial(id, prompt, prompt / 2, Device::Cpu),
                _ => fx.add_partial(id, prompt, prompt / 2, Device::Gpu),
            }
        }
        for (id, &c) in (100u64..).zip(&gpu_ctx) {
            fx.add_running(id, c, Device::Gpu);
        }
        for (id, &c) in (200u64..).zip(&cpu_ctx) {
            fx.add_running(id, c, Device::Cpu);
        }
        if disk_tier == 1 {
            fx.config.disk_tier = true;
            fx.disk_free = 100_000;
            fx.add_running(300, 700, Device::Disk);
        }
        check_matches_reference(&fx, oracle_cost_models()[model].as_ref())?;
    }
}

/// The two paths the random contexts reach least often, under every oracle cost model
/// and slack: an empty batch-0 (CPU residents only, run as a plain CPU batch), and step
/// 5 shedding CPU-targeted prefill chunks once CPU decodes are placed, until a removal
/// would unbalance the pipeline.
#[test]
fn incremental_pricing_matches_the_reference_on_empty_batch0_and_shedding() {
    for cost in oracle_cost_models() {
        for slack in ORACLE_SLACKS {
            let mut cpu_only = Fixture::new(0, 400_000);
            cpu_only.config.balance_slack = slack;
            for id in 0..12 {
                cpu_only.add_running(id, 300 + 50 * id as usize, Device::Cpu);
            }
            check_matches_reference(&cpu_only, cost.as_ref()).unwrap();
            let d = NeoScheduler::new().schedule(&cpu_only.ctx(cost.as_ref()));
            assert!(d.batch0.is_empty());
            assert_eq!(d.batch1.cpu_decodes.len(), 12);

            // 30 GPU decodes leave 10 free GPU tokens, so every prompt chunk targets the
            // CPU; 40 CPU residents fill batch-1 up to batch-0's linear stage, so
            // shedding chunks soon shortens that stage too far.
            let mut shedding = Fixture::new(40, 400_000);
            shedding.config.balance_slack = slack;
            for id in 0..30 {
                shedding.add_running(id, 600, Device::Gpu);
            }
            for id in 100..103 {
                shedding.add_waiting(id, 600);
            }
            for id in 200..240 {
                shedding.add_running(id, 600, Device::Cpu);
            }
            check_matches_reference(&shedding, cost.as_ref()).unwrap();
            let ctx = shedding.ctx(cost.as_ref());
            let cpu_chunks = |plan: &IterationPlan| {
                plan.batch0.prefills.iter().filter(|p| p.target == Device::Cpu).count()
            };
            let mut neo = NeoScheduler::new();
            let mut plan = IterationPlan::new(&ctx);
            neo.form_batches(&ctx, &mut plan);
            neo.admit(&ctx, &mut plan);
            let admitted = cpu_chunks(&plan);
            neo.split_offload(&ctx, &mut plan);
            // Some chunks are shed, and the last attempt is put back: both exits taken.
            let kept = cpu_chunks(&plan);
            assert!(0 < kept && kept < admitted, "admitted {admitted}, kept {kept}");
        }
    }
}

/// Counts every query made of the cost model it wraps.
struct CountingCost<'a> {
    inner: &'a dyn IterationCost,
    queries: AtomicUsize,
}

impl<'a> CountingCost<'a> {
    fn new(inner: &'a dyn IterationCost) -> Self {
        Self { inner, queries: AtomicUsize::new(0) }
    }

    fn count(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Queries since the last call.
    fn take(&self) -> usize {
        self.queries.swap(0, Ordering::Relaxed)
    }
}

impl IterationCost for CountingCost<'_> {
    fn linear_time(&self, n_tokens: usize) -> f64 {
        self.count();
        self.inner.linear_time(n_tokens)
    }
    fn gpu_attn_time(&self, prefill: &[(usize, usize)], decode_ctx: usize, reqs: usize) -> f64 {
        self.count();
        self.inner.gpu_attn_time(prefill, decode_ctx, reqs)
    }
    fn cpu_attn_time(&self, ctx_total: usize, n_reqs: usize) -> f64 {
        self.count();
        self.inner.cpu_attn_time(ctx_total, n_reqs)
    }
    fn swap_out_time(&self, n_tokens: usize) -> f64 {
        self.count();
        self.inner.swap_out_time(n_tokens)
    }
    fn swap_in_time(&self, n_tokens: usize) -> f64 {
        self.count();
        self.inner.swap_in_time(n_tokens)
    }
    fn pre_post_time(&self, n_tokens: usize, n_seqs: usize) -> f64 {
        self.count();
        self.inner.pre_post_time(n_tokens, n_seqs)
    }
    fn n_layers(&self) -> usize {
        self.count();
        self.inner.n_layers()
    }
    fn tp(&self) -> usize {
        self.count();
        self.inner.tp()
    }
}

/// Cost queries one `NeoScheduler` call makes besides its balance probes, read off the
/// code: pricing both sub-batches once after the plain-CPU-batch step (3 + 3); step 6's
/// asymmetric estimate (`n_layers` twice, two swap-outs, one swap-in, pre/post: 6); and
/// its GPU-only estimate (the same 6, plus re-pricing batch-0's linear stage without
/// its CPU decodes: 7). Step 5 adds 3 per CPU-targeted prefill it tries to shed.
const FIXED_QUERIES: usize = 3 + 3 + 6 + 7;

/// The work-count gate: on the `scheduler/neo_queue_depth` bench fixture (a quarter
/// waiting, half GPU-resident, a quarter CPU-resident), NEO places each CPU candidate
/// with at most two probes of two queries each, so one call makes at most
/// `4 × candidates + FIXED_QUERIES` cost queries. The count is exact and
/// machine-independent, so quadratic re-pricing cannot hide under a wall-clock bound;
/// the re-pricing reference, which spends six queries per probe, breaks the bound.
#[test]
fn neo_scheduler_cost_queries_are_linear_in_its_candidates() {
    let profiled = ProfiledCostModel::new(a10g_cost());
    let counting = CountingCost::new(&profiled);
    for n in [16u64, 64, 256] {
        let mut fx = Fixture::new(30_000, 300_000);
        for id in 0..n / 4 {
            fx.add_waiting(id, 1000);
        }
        for id in n / 4..3 * n / 4 {
            fx.add_running(id, 800, Device::Gpu);
        }
        for id in 3 * n / 4..n {
            fx.add_running(id, 800, Device::Cpu);
        }
        let ctx = fx.ctx(&counting);
        counting.take();
        let d = NeoScheduler::new().schedule(&ctx);
        let queries = counting.take();
        let reference = RepricingNeo::default().schedule(&ctx);
        let reference_queries = counting.take();
        assert_eq!(d, reference);

        // Swap-ins and demotions leave the CPU run queue; swap-outs join the candidates.
        let candidates =
            fx.cpu_run.len() - d.swap_in.len() - d.demote_disk.len() + d.swap_out.len();
        // Ample GPU room: every prefill chunk stays on the GPU, so step 5 sheds nothing.
        assert!(d.batch0.prefills.iter().all(|p| p.target == Device::Gpu));
        let bound = 4 * candidates + FIXED_QUERIES;
        assert!(queries <= bound, "depth {n}: {queries} cost queries > bound {bound}");
        if n == 256 {
            assert!(
                reference_queries > bound,
                "the re-pricing reference ({reference_queries} queries) must fail the bound {bound}"
            );
        }
    }
}

/// Compact signature of one executed iteration, for decision-trace pinning.
fn signature(e: &mut neo_core::Engine) -> (String, usize, usize, usize, usize) {
    let r = e.step();
    (r.mode.to_string(), r.prefill_tokens, r.decode_tokens, r.cpu_offloaded, r.swapped_out)
}

/// PIPO's schedule on a small deterministic trace, pinned iteration by iteration: one
/// 512-token chunked prefill per request (KV to the host), then streamed decode batches
/// covering all four requests until they retire together.
#[test]
fn pipo_decision_trace_is_pinned() {
    let scenario = Scenario::t4_7b();
    let mut e = scenario.engine(Policy::Pipo);
    for id in 0..4 {
        e.submit(Request::new(id, 0.0, 600, 4)).unwrap();
    }
    // Prefill: 600-token prompts in 512/88-token chunks, all four requests interleaved
    // under the 2048-token budget; the completing chunk emits the first output token.
    assert_eq!(signature(&mut e), ("streamed".into(), 2048, 0, 0, 0));
    assert_eq!(signature(&mut e), ("streamed".into(), 352, 4, 0, 0));
    // Decode: all four stream every iteration until their 4 tokens are out.
    assert_eq!(signature(&mut e), ("streamed".into(), 0, 4, 4, 0));
    assert_eq!(signature(&mut e), ("streamed".into(), 0, 4, 4, 0));
    assert_eq!(signature(&mut e), ("streamed".into(), 0, 4, 4, 0));
    assert!(e.is_idle(), "all requests retired after the pinned trace");
    assert_eq!(e.completed().len(), 4);
}

/// SpecOffload's schedule on a deterministic memory-pressure trace: GPU-first prefill,
/// swap-outs once the T4's KV pool fills, then speculative CPU decodes alongside the GPU
/// batch.
#[test]
fn specoffload_decision_trace_is_pinned() {
    let scenario = Scenario::t4_7b();
    let mut e = scenario.engine(Policy::SpecOffload);
    for id in 0..24 {
        e.submit(Request::new(id, 0.0, 400, 16)).unwrap();
    }
    let mut saw_swap_out = false;
    let mut saw_speculative_mix = false;
    let mut iterations = 0;
    while !e.is_idle() && iterations < 100_000 {
        let r = e.step();
        if r.swapped_out > 0 {
            saw_swap_out = true;
        }
        // A speculative iteration runs GPU decodes and claimed CPU decodes together.
        if r.cpu_offloaded > 0 && r.decode_tokens > r.cpu_offloaded {
            saw_speculative_mix = true;
        }
        iterations += 1;
    }
    assert_eq!(e.completed().len(), 24);
    assert!(saw_swap_out, "T4 memory pressure must force swap-outs");
    assert!(saw_speculative_mix, "speculation must mix CPU claims into GPU iterations");
}

/// The engine-facing name of each registered policy is stable — figure JSON and
/// BENCH_scheduler.json reference these strings.
#[test]
fn policy_engine_names_are_pinned() {
    let expected = [
        (Policy::Neo, "neo"),
        (Policy::VllmLike, "vllm-like"),
        (Policy::SwiftLlmLike, "swiftllm-like"),
        (Policy::FastDecodePlus, "fastdecode+"),
        (Policy::SimpleOffload, "simple-offload"),
        (Policy::SymmetricPipeline, "symmetric-pipeline"),
        (Policy::Pipo, "pipo"),
        (Policy::SpecOffload, "specoffload"),
    ];
    for (policy, name) in expected {
        assert_eq!(policy.scheduler().name(), name);
    }
}
