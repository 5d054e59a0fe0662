//! In-memory spans and the scheduler/cost-model wrappers of the traced run.
//!
//! Spans are opened and closed from the benchmark's own files, around the calls it
//! makes into each layer, and from [`TracedScheduler`], which the engines under test
//! call through. Cost-model queries are too short and too many to span one by one
//! (tens per scheduler call), so [`CountingCost`] sums their count and time instead.
//! The spans stay in memory and are written out once the run ends.

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use neo_core::batch::ScheduleDecision;
use neo_core::scheduler::{ScheduleContext, Scheduler};
use neo_sim::profiler::IterationCost;

use crate::report::Outcome;

/// Marks a span with no parent, or with no request.
pub const NONE: u64 = u64::MAX;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NONE`].
    pub parent: u64,
    /// Request the span serves, or [`NONE`] when it serves a batch.
    pub request: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Engine work as the wrapped scheduler decided it, one entry per engine iteration.
#[derive(Debug, Default, Clone, Copy)]
pub struct DecisionTotals {
    pub iterations: u64,
    pub idle: u64,
    pub sequences: u64,
    pub offload_iterations: u64,
    pub cpu_offloaded: u64,
    pub prefill_tokens: u64,
    pub decode_tokens: u64,
}

/// Spans and counters of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u64>,
    pub cost_calls: u64,
    pub cost_ns: u64,
    pub decisions: DecisionTotals,
}

/// The tracer shared by the benchmark loop and the wrappers inside the engines.
/// [`Scheduler`] must be `Send`, hence `Arc<Mutex<_>>`; the run is single-threaded,
/// so the lock is never contended.
pub type SharedTracer = Arc<Mutex<Tracer>>;

pub fn shared() -> SharedTracer {
    Arc::new(Mutex::new(Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        cost_calls: 0,
        cost_ns: 0,
        decisions: DecisionTotals::default(),
    }))
}

pub fn lock(tracer: &SharedTracer) -> MutexGuard<'_, Tracer> {
    tracer.lock().expect("the traced run is single-threaded and never panics holding the lock")
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one and returns its id.
    pub fn open(&mut self, name: &'static str, request: u64) -> u64 {
        let id = self.spans.len() as u64;
        let parent = self.open.last().copied().unwrap_or(NONE);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: u64) {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close in the order they opened");
        self.spans[id as usize].end_ns = end;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64 * 1e-9).collect()
    }

    /// Total seconds inside spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.ns()).sum::<u64>() as f64 * 1e-9
    }

    /// Self time of spans called `name`, in seconds: their duration minus the part
    /// their direct child spans cover.
    pub fn self_s(&self, name: &str) -> f64 {
        let mut child_ns = 0u64;
        for span in &self.spans {
            if span.parent != NONE && self.spans[span.parent as usize].name == name {
                child_ns += span.ns();
            }
        }
        (self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns())
            .sum::<u64>()
            .saturating_sub(child_ns)) as f64
            * 1e-9
    }

    fn record(&mut self, decision: &ScheduleDecision) {
        let d = &mut self.decisions;
        d.iterations += 1;
        if decision.is_idle() {
            d.idle += 1;
            return;
        }
        let mut cpu = 0;
        for batch in [&decision.batch0, &decision.batch1] {
            d.sequences +=
                (batch.prefills.len() + batch.gpu_decodes.len() + batch.cpu_decodes.len()) as u64;
            d.prefill_tokens += batch.prefills.iter().map(|p| p.new_tokens as u64).sum::<u64>();
            d.decode_tokens += (batch.gpu_decodes.len() + batch.cpu_decodes.len()) as u64;
            cpu += batch.cpu_decodes.len() as u64;
        }
        d.cpu_offloaded += cpu;
        if cpu > 0 {
            d.offload_iterations += 1;
        }
    }

    /// Writes the spans to `perfbench/out/spans-<workload>.csv` under the working
    /// directory and notes where. A write failure is noted but fails no check.
    pub fn write_spans(&self, workload: &str, outcome: &mut Outcome) {
        let path = std::path::Path::new("perfbench/out").join(format!("spans-{workload}.csv"));
        match self.write_csv(&path) {
            Ok(()) => outcome.note("spans_file", path.display()),
            Err(e) => outcome.note("spans_file", format!("not written: {e}")),
        }
    }

    /// Writes every span as one CSV line: `id,parent,name,start_ns,end_ns,request`
    /// (`-` for no parent or request).
    fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,name,start_ns,end_ns,request")?;
        let field = |v: u64| if v == NONE { "-".to_string() } else { v.to_string() };
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{id},{},{},{},{},{}",
                field(s.parent),
                s.name,
                s.start_ns,
                s.end_ns,
                field(s.request)
            )?;
        }
        out.flush()
    }
}

/// A [`Scheduler`] that times the policy it wraps and passes it a [`CountingCost`].
pub struct TracedScheduler {
    inner: Box<dyn Scheduler>,
    tracer: SharedTracer,
}

impl TracedScheduler {
    pub fn new(inner: Box<dyn Scheduler>, tracer: SharedTracer) -> Self {
        Self { inner, tracer }
    }
}

impl Scheduler for TracedScheduler {
    fn schedule(&mut self, ctx: &ScheduleContext<'_>) -> ScheduleDecision {
        let span = lock(&self.tracer).open("sched.schedule", NONE);
        let cost =
            CountingCost { inner: ctx.cost, calls: AtomicU64::new(0), ns: AtomicU64::new(0) };
        let decision = self.inner.schedule(&ScheduleContext { cost: &cost, ..*ctx });
        let mut tracer = lock(&self.tracer);
        tracer.close(span);
        tracer.cost_calls += cost.calls.into_inner();
        tracer.cost_ns += cost.ns.into_inner();
        tracer.record(&decision);
        decision
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// An [`IterationCost`] that counts and times every query it forwards.
struct CountingCost<'a> {
    inner: &'a dyn IterationCost,
    calls: AtomicU64,
    ns: AtomicU64,
}

impl CountingCost<'_> {
    fn timed<T>(&self, query: impl FnOnce(&dyn IterationCost) -> T) -> T {
        let start = Instant::now();
        let value = query(self.inner);
        // Relaxed: plain statistics, read only after the scheduler call returns.
        self.ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        value
    }
}

impl IterationCost for CountingCost<'_> {
    fn linear_time(&self, n_tokens: usize) -> f64 {
        self.timed(|c| c.linear_time(n_tokens))
    }
    fn gpu_attn_time(
        &self,
        prefill: &[(usize, usize)],
        decode_ctx: usize,
        decode_reqs: usize,
    ) -> f64 {
        self.timed(|c| c.gpu_attn_time(prefill, decode_ctx, decode_reqs))
    }
    fn cpu_attn_time(&self, ctx_total: usize, n_reqs: usize) -> f64 {
        self.timed(|c| c.cpu_attn_time(ctx_total, n_reqs))
    }
    fn swap_out_time(&self, n_tokens: usize) -> f64 {
        self.timed(|c| c.swap_out_time(n_tokens))
    }
    fn swap_in_time(&self, n_tokens: usize) -> f64 {
        self.timed(|c| c.swap_in_time(n_tokens))
    }
    fn pre_post_time(&self, n_tokens: usize, n_seqs: usize) -> f64 {
        self.timed(|c| c.pre_post_time(n_tokens, n_seqs))
    }
    fn n_layers(&self) -> usize {
        self.timed(|c| c.n_layers())
    }
    fn tp(&self) -> usize {
        self.timed(|c| c.tp())
    }
}
