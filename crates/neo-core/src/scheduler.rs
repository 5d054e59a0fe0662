//! The load-aware scheduler (§3.2 of the paper) and the scheduler interface.
//!
//! [`NeoScheduler`] follows the paper's six-step per-iteration procedure:
//!
//! 1. initialise two empty sub-batch schedules;
//! 2. schedule GPU decode requests, swapping requests out (or in) so the GPU-cache can
//!    hold all new KV entries (*Maximizing GPU*);
//! 3. admit prefill requests from the waitqueue into batch-0 until the activation/token
//!    budget is exhausted, keeping the generated KV on the GPU when it fits and marking it
//!    for swap-out otherwise (*Maximizing GPU*);
//! 4. place CPU decode requests into batch-0 or batch-1 while maintaining
//!    `Tca0 ≤ Tl1 + Tga0` and `Tca1 ≤ Tl0` (*Balancing*, *Hiding CPU*);
//! 5. shed prefill chunks that would force a swap-out, as long as the inequalities keep
//!    holding (*Balancing*);
//! 6. build the GPU-only alternative (batch-0 without the CPU decodes added in step 4) and
//!    greedily pick whichever schedule has the higher estimated throughput (*Greedy*).
//!
//! The procedure runs on every iteration's critical path, so steps 4–6 price each
//! sub-batch once and then keep its stage times up to date: one CPU-decode probe costs
//! two cost-model queries, and one call costs O(candidates) queries in all.
//!
//! `NeoScheduler` — like every baseline in `neo-baselines` — is written as a
//! [`SchedulerPolicy`] (the phase-decomposed policy seam in [`crate::policy`]): the six
//! steps map onto the trait's phases as batch formation (step 2), admission (step 3),
//! offload split (steps 4–5) and mode selection (step 6). The blanket impl turns any
//! policy into a [`Scheduler`], which is the engine-facing object-safe interface.

use std::collections::BTreeMap;

use neo_kvcache::Device;
use neo_sim::profiler::IterationCost;

use crate::batch::{ScheduleDecision, SubBatch};
use crate::config::EngineConfig;
use crate::pipeline::{
    balanced_times, estimate_asymmetric_priced, estimate_gpu_only_priced, stage_times, StageTimes,
};
use crate::policy::{IterationPlan, SchedulerPolicy};
use crate::request::Request;
use crate::ExecutionMode;

/// Everything a scheduler may look at when forming one iteration's schedule.
///
/// Note that [`Request::output_len`] is ground truth the real system would not have; the
/// provided schedulers never read it.
pub struct ScheduleContext<'a> {
    /// Cost model (typically the profiled/interpolated one) used for time estimates.
    pub cost: &'a dyn IterationCost,
    /// Engine configuration.
    pub config: &'a EngineConfig,
    /// All live requests by id.
    pub requests: &'a BTreeMap<u64, Request>,
    /// Prefill waitqueue (arrival order). Includes partially prefilled requests.
    pub waiting: &'a [u64],
    /// GPU decoding runqueue.
    pub gpu_run: &'a [u64],
    /// CPU decoding runqueue.
    pub cpu_run: &'a [u64],
    /// Disk-resident requests (demoted from the CPU cache). They cannot decode until
    /// promoted back; always empty unless [`EngineConfig::disk_tier`] is enabled.
    pub disk_run: &'a [u64],
    /// Free tokens in the GPU KV pool.
    pub gpu_free_tokens: usize,
    /// Free tokens in the CPU KV pool.
    pub cpu_free_tokens: usize,
    /// Free tokens in the disk KV tier (0 when the tier is disabled).
    pub disk_free_tokens: usize,
    /// Total size of the GPU KV pool, in tokens. Lets admission distinguish "the GPU
    /// is busy right now" from "this prompt can *never* fit the GPU": a fresh request
    /// whose whole prompt exceeds this must build its KV on the CPU from the first
    /// chunk, because partially-prefilled requests are pinned to their device.
    pub gpu_capacity_tokens: usize,
    /// Device each partially-prefilled request's KV currently resides on (absent for
    /// requests that have not started prefill).
    pub prefill_device: &'a BTreeMap<u64, Device>,
    /// Requests the serving layer has accepted but is holding back because the engine
    /// reported admission backpressure ([`crate::Engine::can_admit`] was `false`).
    /// Advisory load signal: none of the bundled policies act on it yet, but load-aware
    /// schedulers (and the pipelined-offloading baselines planned in the roadmap) can use
    /// it to see queueing pressure beyond the waitqueue.
    pub admission_backlog: usize,
}

impl ScheduleContext<'_> {
    /// Current context length (cached tokens) of a request.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown; schedulers only receive ids present in `requests`.
    pub fn context_len(&self, id: u64) -> usize {
        self.requests[&id].context_len()
    }

    /// Remaining prompt tokens of a request.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    pub fn remaining_prefill(&self, id: u64) -> usize {
        self.requests[&id].remaining_prefill()
    }
}

/// A per-iteration scheduling policy.
pub trait Scheduler: Send {
    /// Produces the schedule for the next iteration.
    fn schedule(&mut self, ctx: &ScheduleContext<'_>) -> ScheduleDecision;

    /// Human-readable policy name (used in reports and figures).
    fn name(&self) -> &'static str;
}

/// NEO's load-aware scheduler.
#[derive(Debug, Default, Clone)]
pub struct NeoScheduler {
    iterations: u64,
    /// Stage times of the plan `split_offload` just finished, for `select_mode`.
    priced: Option<PricedPlan>,
}

impl NeoScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of schedules produced so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }
}

impl SchedulerPolicy for NeoScheduler {
    fn policy_name(&self) -> &'static str {
        "neo"
    }

    /// Step 2 of §3.2: schedule GPU decode requests; each needs one new KV slot on the
    /// GPU. Under pressure the longest-context requests are swapped out (or preempted
    /// when the CPU cache is full too); with ample free memory CPU-requests are pulled
    /// back in, smallest context first. The mechanics are
    /// [`IterationPlan::form_gpu_first_batches`], shared with the SpecOffload baseline.
    fn form_batches(&mut self, ctx: &ScheduleContext<'_>, plan: &mut IterationPlan) {
        self.iterations += 1;
        self.priced = None;
        plan.form_gpu_first_batches(ctx);
    }

    /// Step 3: admit prefill requests into batch-0 under the token budget. The generated
    /// KV stays on the GPU when it fits, otherwise it is marked for the CPU cache
    /// (layer-wise swap-out); partially prefilled requests must stay on whichever device
    /// their earlier chunks landed on.
    fn admit(&mut self, ctx: &ScheduleContext<'_>, plan: &mut IterationPlan) {
        plan.admit_prefills(ctx, |plan, id, chunk| {
            let target = match ctx.prefill_device.get(&id) {
                Some(&d) => d,
                // A prompt that exceeds the *whole* GPU pool can never finish a GPU
                // prefill: once its first chunk lands there the request is pinned to
                // the device, stalls when the pool fills, and livelocks against the
                // deadlock-breaking preemption. Send it to the CPU cache from the
                // first chunk — this is state-independent, so the choice is the same
                // on an idle and on a loaded engine.
                None if ctx.requests[&id].prompt_len > ctx.gpu_capacity_tokens => Device::Cpu,
                None if plan.gpu_free >= chunk as i64 => Device::Gpu,
                None => Device::Cpu,
            };
            match target {
                // No room to continue this request's prefill on its device: stop.
                Device::Gpu if plan.gpu_free >= chunk as i64 => Some(Device::Gpu),
                Device::Cpu if plan.cpu_free >= chunk as i64 => Some(Device::Cpu),
                _ => None,
            }
        });
    }

    /// Steps 4 and 5: place CPU decode requests while the balancing inequalities hold,
    /// then shed prefill chunks that force swap-outs while balance keeps holding.
    ///
    /// Each sub-batch is priced once up front and then kept priced as it is edited: a
    /// probe that adds one CPU decode re-prices only the probed sub-batch's linear and
    /// CPU-attention stages (two cost queries), and a shed prefill re-prices batch-0
    /// alone. The decisions are exactly those of re-checking [`balanced`] on the whole
    /// plan at every probe, since every query sees the same integer sums.
    ///
    /// [`balanced`]: crate::pipeline::balanced
    fn split_offload(&mut self, ctx: &ScheduleContext<'_>, plan: &mut IterationPlan) {
        let cost = ctx.cost;
        let cfg = ctx.config;

        // Step 4: CPU-resident candidates (minus swapped-in and disk-demoted, plus
        // freshly swapped-out), shortest context first.
        let mut cpu_candidates = plan.offload_candidates(ctx);

        // Degenerate case: nothing at all runs on the GPU this iteration (no prefills, no
        // GPU decodes). The balancing inequalities would then forbid every CPU decode
        // (`Tca ≤ Tl0 = 0`), starving CPU-resident requests forever; run them as a plain
        // CPU batch instead — there is no GPU work to hide them behind anyway.
        if plan.batch0.is_empty() && !cpu_candidates.is_empty() {
            for (id, c) in cpu_candidates.drain(..) {
                if plan.batch1.sequences() >= cfg.max_batch_seqs {
                    break;
                }
                plan.batch1.cpu_decodes.push((id, c));
            }
        }
        let mut p0 = PricedBatch::price(cost, &plan.batch0);
        let mut p1 = PricedBatch::price(cost, &plan.batch1);
        for (id, c) in cpu_candidates {
            if plan.batch0.sequences() + plan.batch1.sequences() >= 2 * cfg.max_batch_seqs {
                break;
            }
            // Try batch-1 first (it exists to absorb CPU attention under Tl0's shadow).
            let probe = p1.with_cpu_decode(cost, c);
            if balanced_times(&p0.times, &probe.times, cfg.balance_slack) {
                plan.batch1.cpu_decodes.push((id, c));
                p1 = probe;
                continue;
            }
            let probe = p0.with_cpu_decode(cost, c);
            if balanced_times(&probe.times, &p1.times, cfg.balance_slack) {
                plan.batch0.cpu_decodes.push((id, c));
                p0 = probe;
            }
            // Otherwise it violates both inequalities: leave it for the next iteration
            // (Hiding CPU).
        }

        // Step 5: shed prefill chunks that force swap-outs while balance still holds.
        // Only applies when there is CPU attention to balance against — if no CPU decodes
        // are scheduled, a CPU-targeted prefill is the only way the request can make
        // progress under GPU memory pressure and must not be shed (otherwise it would
        // starve forever).
        let has_cpu_work =
            !plan.batch0.cpu_decodes.is_empty() || !plan.batch1.cpu_decodes.is_empty();
        if has_cpu_work {
            while let Some(pos) = plan.batch0.prefills.iter().rposition(|p| p.target == Device::Cpu)
            {
                let removed = plan.batch0.prefills.remove(pos);
                let shed = PricedBatch::price(cost, &plan.batch0);
                if balanced_times(&shed.times, &p1.times, cfg.balance_slack) {
                    p0 = shed;
                    continue; // removal kept the pipeline balanced; keep it removed
                }
                // Removing it unbalanced the pipeline (the CPU work no longer hides behind
                // the linear stage): put it back and stop shedding.
                plan.batch0.prefills.insert(pos, removed);
                break;
            }
        }
        self.priced = Some(PricedPlan { shape: plan_shape(plan), batch0: p0, batch1: p1 });
    }

    /// Step 6: greedy choice between the asymmetric and GPU-only schedules by estimated
    /// throughput.
    ///
    /// Reuses the stage times `split_offload` left priced for this plan (re-pricing only
    /// when the phases were driven without it), and builds the GPU-only alternative by
    /// taking batch-0's CPU decodes out of the asymmetric decision rather than cloning
    /// it: only its linear stage needs a new query.
    fn select_mode(&mut self, ctx: &ScheduleContext<'_>, plan: IterationPlan) -> ScheduleDecision {
        let cost = ctx.cost;
        let cfg = ctx.config;
        let swap_out_tokens: usize = plan.swap_out.iter().map(|&id| ctx.context_len(id)).sum();
        let swap_in_tokens: usize = plan.swap_in.iter().map(|&id| ctx.context_len(id)).sum();

        let (p0, p1) = match self.priced.take() {
            Some(priced) if priced.shape == plan_shape(&plan) => (priced.batch0, priced.batch1),
            _ => (PricedBatch::price(cost, &plan.batch0), PricedBatch::price(cost, &plan.batch1)),
        };

        let mut asym = plan.into_decision();
        asym.mode = ExecutionMode::Asymmetric;
        let asym_est = estimate_asymmetric_priced(
            cost,
            &asym,
            &p0.times,
            &p1.times,
            swap_out_tokens,
            swap_in_tokens,
            cfg.layerwise_swap_overlap,
        );

        // GPU-only alternative: batch-0 without the CPU decodes added in step 4.
        let cpu_decodes = std::mem::take(&mut asym.batch0.cpu_decodes);
        let gpu_tl = if cpu_decodes.is_empty() {
            p0.times.tl
        } else {
            cost.linear_time(p0.linear_tokens - cpu_decodes.len())
        };
        let gpu_s0 = StageTimes { tl: gpu_tl, tga: p0.times.tga, tca: 0.0 };
        let gpu_est = estimate_gpu_only_priced(
            cost,
            &asym.batch0,
            &gpu_s0,
            swap_out_tokens,
            swap_in_tokens,
            cfg.layerwise_swap_overlap,
        );

        if asym_est.throughput() > gpu_est.throughput() {
            asym.batch0.cpu_decodes = cpu_decodes;
            asym
        } else {
            ScheduleDecision { mode: ExecutionMode::GpuOnly, batch1: SubBatch::new(), ..asym }
        }
    }
}

/// A sub-batch's stage times together with the integer sums they were priced from, so
/// adding one CPU decode re-prices with two cost queries instead of three plus O(n)
/// sums.
#[derive(Debug, Clone, Copy)]
struct PricedBatch {
    times: StageTimes,
    /// [`SubBatch::linear_tokens`] of the priced sub-batch.
    linear_tokens: usize,
    /// [`SubBatch::cpu_decode_ctx`] of the priced sub-batch.
    cpu_ctx: usize,
    /// Number of CPU decodes in the priced sub-batch.
    n_cpu_decodes: usize,
}

impl PricedBatch {
    fn price(cost: &dyn IterationCost, batch: &SubBatch) -> Self {
        Self {
            times: stage_times(cost, batch),
            linear_tokens: batch.linear_tokens(),
            cpu_ctx: batch.cpu_decode_ctx(),
            n_cpu_decodes: batch.cpu_decodes.len(),
        }
    }

    /// The pricing of this sub-batch with one more CPU decode of context `ctx_len`: its
    /// GPU attention is unchanged.
    fn with_cpu_decode(&self, cost: &dyn IterationCost, ctx_len: usize) -> Self {
        let linear_tokens = self.linear_tokens + 1;
        let cpu_ctx = self.cpu_ctx + ctx_len;
        let n_cpu_decodes = self.n_cpu_decodes + 1;
        Self {
            times: StageTimes {
                tl: cost.linear_time(linear_tokens),
                tga: self.times.tga,
                tca: cost.cpu_attn_time(cpu_ctx, n_cpu_decodes),
            },
            linear_tokens,
            cpu_ctx,
            n_cpu_decodes,
        }
    }
}

/// Both sub-batches as `split_offload` left them, priced, keyed by the plan's shape.
#[derive(Debug, Clone, Copy)]
struct PricedPlan {
    shape: [usize; 6],
    batch0: PricedBatch,
    batch1: PricedBatch,
}

/// Item counts of both sub-batches: `select_mode` re-prices instead of trusting a cache
/// whose plan was edited in between.
fn plan_shape(plan: &IterationPlan) -> [usize; 6] {
    let (b0, b1) = (&plan.batch0, &plan.batch1);
    [
        b0.prefills.len(),
        b0.gpu_decodes.len(),
        b0.cpu_decodes.len(),
        b1.prefills.len(),
        b1.gpu_decodes.len(),
        b1.cpu_decodes.len(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_sim::{CostModel, ModelDesc, Testbed};

    fn cost() -> CostModel {
        CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1)
    }

    struct Fixture {
        requests: BTreeMap<u64, Request>,
        waiting: Vec<u64>,
        gpu_run: Vec<u64>,
        cpu_run: Vec<u64>,
        prefill_device: BTreeMap<u64, Device>,
        gpu_free: usize,
        cpu_free: usize,
        config: EngineConfig,
    }

    impl Fixture {
        fn new() -> Self {
            Self {
                requests: BTreeMap::new(),
                waiting: vec![],
                gpu_run: vec![],
                cpu_run: vec![],
                prefill_device: BTreeMap::new(),
                gpu_free: 20_000,
                cpu_free: 200_000,
                config: EngineConfig::default(),
            }
        }

        fn add_waiting(&mut self, id: u64, prompt: usize) {
            self.requests.insert(id, Request::new(id, 0.0, prompt, 64));
            self.waiting.push(id);
        }

        fn add_running(&mut self, id: u64, ctx: usize, device: Device) {
            let mut r = Request::new(id, 0.0, ctx.max(1), 64);
            r.advance_prefill(r.prompt_len);
            self.requests.insert(id, r);
            match device {
                Device::Gpu => self.gpu_run.push(id),
                Device::Cpu => self.cpu_run.push(id),
                Device::Disk => unreachable!("tests place requests on GPU or CPU"),
            }
        }

        fn schedule(&self, cost: &CostModel) -> ScheduleDecision {
            NeoScheduler::new().schedule(&self.ctx(cost))
        }

        fn ctx<'a>(&'a self, cost: &'a CostModel) -> ScheduleContext<'a> {
            ScheduleContext {
                cost,
                config: &self.config,
                requests: &self.requests,
                waiting: &self.waiting,
                gpu_run: &self.gpu_run,
                cpu_run: &self.cpu_run,
                disk_run: &[],
                gpu_free_tokens: self.gpu_free,
                cpu_free_tokens: self.cpu_free,
                disk_free_tokens: 0,
                gpu_capacity_tokens: self.gpu_free,
                prefill_device: &self.prefill_device,
                admission_backlog: 0,
            }
        }
    }

    #[test]
    fn empty_system_yields_idle_decision() {
        let fx = Fixture::new();
        let d = fx.schedule(&cost());
        assert!(d.is_idle());
    }

    #[test]
    fn waiting_requests_are_prefilled() {
        let mut fx = Fixture::new();
        fx.add_waiting(1, 300);
        fx.add_waiting(2, 400);
        let d = fx.schedule(&cost());
        let prefilled: Vec<u64> = d.batch0.prefills.iter().map(|p| p.req).collect();
        assert!(prefilled.contains(&1) && prefilled.contains(&2));
        // Plenty of GPU memory: both target the GPU, no swaps.
        assert!(d.batch0.prefills.iter().all(|p| p.target == Device::Gpu));
        assert!(d.swap_out.is_empty());
    }

    #[test]
    fn prefill_respects_token_budget() {
        let mut fx = Fixture::new();
        fx.config.max_batch_tokens = 512;
        fx.config.prefill_chunk = 512;
        for id in 0..10 {
            fx.add_waiting(id, 400);
        }
        let d = fx.schedule(&cost());
        assert!(d.batch0.linear_tokens() <= 512, "budget exceeded: {}", d.batch0.linear_tokens());
    }

    #[test]
    fn gpu_decodes_all_scheduled_when_memory_allows() {
        let mut fx = Fixture::new();
        for id in 0..50 {
            fx.add_running(id, 500, Device::Gpu);
        }
        let d = fx.schedule(&cost());
        assert_eq!(d.batch0.gpu_decodes.len(), 50);
        assert!(d.swap_out.is_empty());
    }

    #[test]
    fn gpu_memory_pressure_triggers_swap_out() {
        let mut fx = Fixture::new();
        fx.gpu_free = 10; // almost no room for new KV slots
        for id in 0..50 {
            fx.add_running(id, 500, Device::Gpu);
        }
        let d = fx.schedule(&cost());
        assert!(!d.swap_out.is_empty(), "must shed some GPU requests");
        // Shed requests either decode from the CPU cache this iteration or idle, but they
        // are never still counted as GPU decodes.
        for id in &d.swap_out {
            assert!(!d.batch0.gpu_decodes.iter().any(|&(i, _)| i == *id));
        }
    }

    #[test]
    fn ample_gpu_memory_triggers_swap_in() {
        let mut fx = Fixture::new();
        fx.gpu_free = 50_000;
        for id in 0..5 {
            fx.add_running(id, 300, Device::Cpu);
        }
        let d = fx.schedule(&cost());
        assert!(!d.swap_in.is_empty(), "idle GPU memory should pull CPU requests back");
    }

    #[test]
    fn cpu_decodes_are_balanced_against_linear_stage() {
        let mut fx = Fixture::new();
        // A healthy GPU batch providing a long linear stage...
        for id in 0..40 {
            fx.add_running(id, 800, Device::Gpu);
        }
        fx.add_waiting(1000, 1500);
        // ...and many CPU-resident requests; only some can hide under the linear stage.
        for id in 100..400 {
            fx.add_running(id, 800, Device::Cpu);
        }
        let d = fx.schedule(&cost());
        assert_eq!(d.mode, ExecutionMode::Asymmetric);
        let scheduled_cpu = d.batch0.cpu_decodes.len() + d.batch1.cpu_decodes.len();
        assert!(scheduled_cpu > 0, "some CPU requests must be scheduled");
        assert!(scheduled_cpu < 300, "not all CPU requests can hide under the GPU stage");
        // The balancing inequalities hold for the emitted schedule.
        let cm = cost();
        let s0 = stage_times(&cm, &d.batch0);
        let s1 = stage_times(&cm, &d.batch1);
        let tol = 1.0 + fx.config.balance_slack + 0.05;
        assert!(s1.tca <= s0.tl * tol, "Tca1 {} vs Tl0 {}", s1.tca, s0.tl);
        assert!(s0.tca <= (s1.tl + s0.tga) * tol, "Tca0 {} vs Tl1+Tga0 {}", s0.tca, s1.tl + s0.tga);
    }

    #[test]
    fn select_mode_reprices_a_plan_edited_after_the_split() {
        let mut fx = Fixture::new();
        for id in 0..40 {
            fx.add_running(id, 800, Device::Gpu);
        }
        fx.add_waiting(1000, 1500);
        for id in 100..160 {
            fx.add_running(id, 800, Device::Cpu);
        }
        let cm = cost();
        let ctx = fx.ctx(&cm);
        let mut neo = NeoScheduler::new();
        let mut plan = IterationPlan::new(&ctx);
        neo.form_batches(&ctx, &mut plan);
        neo.admit(&ctx, &mut plan);
        neo.split_offload(&ctx, &mut plan);
        assert!(plan.batch1.cpu_decodes.len() > 1, "the split must offload to batch-1");
        // A caller drops a CPU decode between the phases: the cached stage times no
        // longer describe the plan, so the choice must match a scheduler without them.
        plan.batch1.cpu_decodes.pop();
        let after_edit = neo.select_mode(&ctx, plan.clone());
        assert_eq!(after_edit, NeoScheduler::new().select_mode(&ctx, plan));
    }

    #[test]
    fn greedy_never_picks_worse_than_gpu_only() {
        // With no CPU work at all, the decision must effectively be the GPU-only batch.
        let mut fx = Fixture::new();
        for id in 0..20 {
            fx.add_running(id, 400, Device::Gpu);
        }
        let d = fx.schedule(&cost());
        assert!(d.batch1.cpu_decodes.is_empty());
        assert!(d.batch0.cpu_decodes.is_empty());
    }

    #[test]
    fn scheduler_reports_name_and_counts_iterations() {
        let mut s = NeoScheduler::new();
        assert_eq!(s.name(), "neo");
        let fx = Fixture::new();
        let cm = cost();
        let ctx = fx.ctx(&cm);
        let _ = s.schedule(&ctx);
        let _ = s.schedule(&ctx);
        assert_eq!(s.iterations(), 2);
    }

    #[test]
    fn partially_prefilled_request_stays_on_its_device() {
        let mut fx = Fixture::new();
        fx.config.prefill_chunk = 128;
        let mut r = Request::new(7, 0.0, 600, 32);
        r.advance_prefill(128);
        fx.requests.insert(7, r);
        fx.waiting.push(7);
        fx.prefill_device.insert(7, Device::Cpu);
        let d = fx.schedule(&cost());
        let item = d.batch0.prefills.iter().find(|p| p.req == 7).expect("request scheduled");
        assert_eq!(item.target, Device::Cpu);
        assert_eq!(item.ctx_after, 128 + item.new_tokens);
    }
}
