//! Discrete-event simulation core: components, wake-ups, and a task-graph runner.
//!
//! The closed-form overlap terms in [`crate::transfer`] and `neo_kvcache::SwapPlan`
//! describe *steady-state* pipelines: one formula per regime, no notion of which engine
//! was busy when. This module provides the finer-grained alternative: everything that
//! evolves over time — a GPU compute stream, the CPU attention workers, each per-rank
//! PCIe link direction — is a [`Component`] with its own clock, driven by an
//! [`EventEngine`] that pops wake-ups from a min-heap keyed `(next_tick, ComponentId)`.
//! Transfer/compute overlap then *falls out of event ordering* instead of being
//! assumed by a formula.
//!
//! # Determinism and fuzzed execution order
//!
//! Correctness of a discrete-event simulation is all about event ordering, so the
//! engine is deterministic by construction: same components, same shared state, same
//! tie-break mode ⇒ bit-identical execution. Components that wake at the *same* tick
//! are dispatched in [`TieBreak::ById`] order by default. A well-formed component must
//! not depend on that order — its state transitions must derive from simulated time and
//! shared state only — and [`TieBreak::Fuzzed`] exists precisely to shake out
//! violations: it permutes same-tick dispatch order with a seeded xorshift while
//! leaving everything else untouched, so any output difference across seeds is an
//! ordering race in a component.
//!
//! # The task-graph runner
//!
//! Most uses of the engine in this workspace share one shape: a DAG of jobs (layer
//! compute, per-layer KV transfer chunks, CPU attention stages) executed FIFO on a
//! small set of serial resources (the GPU stream, the CPU pool, each PCIe direction).
//! [`TaskGraph`] captures that shape once: build jobs with durations, resources and
//! dependencies, then [`TaskGraph::simulate`] runs them through the event engine and
//! returns per-job finish times, the makespan, and (optionally) the exact
//! `(tick, component, event)` trace.
//!
//! ```
//! use neo_sim::event::{TaskGraph, TieBreak};
//!
//! // A 2-stage double-buffered pipeline: transfer (resource 1) feeds compute
//! // (resource 0), layer by layer.
//! let mut g = TaskGraph::new(2);
//! let t0 = g.push("xfer0", 1, 2.0, &[]);
//! let c0 = g.push("comp0", 0, 1.0, &[t0]);
//! let t1 = g.push("xfer1", 1, 2.0, &[]);
//! let _c1 = g.push("comp1", 0, 1.0, &[t1, c0]);
//! let run = g.simulate(TieBreak::ById, false);
//! // The link serializes the transfers; the second compute waits for its buffer.
//! assert_eq!(run.makespan, 5.0);
//! ```

use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};

/// Identifies a component within one [`EventEngine`] (its registration index).
pub type ComponentId = usize;

/// Anything that evolves over simulated time.
///
/// A component advertises when it next wants to run ([`Component::next_tick`], `None`
/// while it is asleep waiting on shared state) and advances its own state when the
/// engine dispatches it ([`Component::tick`]). All inter-component interaction goes
/// through the shared state `S`; after every dispatch the engine re-polls every
/// component's `next_tick`, so mutating shared state is how one component wakes
/// another.
///
/// **Ordering contract:** a component's behaviour must depend only on `now` and the
/// shared state, never on the dispatch order of other components woken at the same
/// tick. [`TieBreak::Fuzzed`] exists to catch violations.
pub trait Component<S> {
    /// The component's registration index in its engine.
    fn id(&self) -> ComponentId;
    /// Human-readable name, used in event traces.
    fn name(&self) -> &str;
    /// The next simulated time this component needs to run given the shared state, or
    /// `None` to sleep until another component's tick changes that state.
    fn next_tick(&self, shared: &S) -> Option<f64>;
    /// Advances the component to `now`, mutating shared state as needed, and returns
    /// its new wake-up time (which must agree with a subsequent [`Component::next_tick`]
    /// poll).
    fn tick(&mut self, now: f64, shared: &mut S) -> Option<f64>;
    /// Short description of what the last [`Component::tick`] did, recorded in traces.
    fn event_label(&self) -> String {
        String::new()
    }
}

/// How the engine orders components woken at the same tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TieBreak {
    /// Deterministic: ascending [`ComponentId`] (the pinned reference order).
    ById,
    /// Seeded permutation of same-tick dispatch order. Execution stays fully
    /// deterministic *given the seed*; outputs of well-formed components are
    /// bit-identical across seeds, so differing outputs expose an ordering race.
    Fuzzed {
        /// Seed of the xorshift generator ranking same-tick wake-ups.
        seed: u64,
    },
}

impl TieBreak {
    /// Builds the tie-break mode used throughout tests and CI: deterministic for
    /// `seed == 0`, fuzzed otherwise. This is the convention the
    /// `NEO_EVENT_FUZZ_SEED` environment variable (CI seed matrix) follows.
    pub fn from_seed(seed: u64) -> Self {
        if seed == 0 {
            TieBreak::ById
        } else {
            TieBreak::Fuzzed { seed }
        }
    }
}

/// One dispatched event, as recorded by an engine with tracing enabled.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Simulated time of the dispatch.
    pub tick: f64,
    /// Component that ran.
    pub component: ComponentId,
    /// The component's [`Component::name`] at dispatch time.
    pub name: String,
    /// The component's [`Component::event_label`] after the tick.
    pub event: String,
}

/// A heap entry: `time` is the wake-up tick, `rank` the tie-break key among same-time
/// entries, `id` the component. The derived ordering is inverted so Rust's max-heap
/// pops the minimum `(time, rank, id)` first.
#[derive(Debug, Clone, Copy)]
struct WakeUp {
    time: f64,
    rank: u64,
    id: ComponentId,
}

impl PartialEq for WakeUp {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.rank == other.rank && self.id == other.id
    }
}

impl Eq for WakeUp {}

impl Ord for WakeUp {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.rank.cmp(&self.rank))
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for WakeUp {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// SplitMix64: a tiny, high-quality mixer for tie-break ranks. Deterministic in its
/// input, so fuzzed runs are reproducible from the seed alone.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The discrete-event driver: a min-heap of component wake-ups keyed
/// `(next_tick, ComponentId)` (with the configured tie-break rank in between).
///
/// After every dispatch the engine re-polls each component's
/// [`Component::next_tick`] against its currently scheduled wake-up and pushes fresh
/// heap entries for any that changed; stale entries are discarded lazily on pop. This
/// keeps the heap correct even when one component's tick re-schedules another through
/// the shared state.
pub struct EventEngine<S> {
    components: Vec<Box<dyn Component<S>>>,
    shared: S,
    now: f64,
    heap: BinaryHeap<WakeUp>,
    /// The wake-up time each component currently has queued (lazy-deletion marker).
    scheduled: Vec<Option<f64>>,
    tie_break: TieBreak,
    /// Monotone counter salting fuzzed ranks so re-scheduling the same component at
    /// the same tick still reshuffles.
    pushes: u64,
    processed: u64,
    trace: Option<Vec<EventRecord>>,
}

impl<S> EventEngine<S> {
    /// Creates an engine at time zero over the given shared state.
    pub fn new(shared: S, tie_break: TieBreak) -> Self {
        Self {
            components: Vec::new(),
            shared,
            now: 0.0,
            heap: BinaryHeap::new(),
            scheduled: Vec::new(),
            tie_break,
            pushes: 0,
            processed: 0,
            trace: None,
        }
    }

    /// Enables `(tick, component, event)` trace recording.
    pub fn with_trace(mut self) -> Self {
        self.trace = Some(Vec::new());
        self
    }

    /// Registers a component; its [`Component::id`] must equal the returned index.
    ///
    /// # Panics
    ///
    /// Panics if the component's `id()` does not match its registration index.
    pub fn add_component(&mut self, component: Box<dyn Component<S>>) -> ComponentId {
        let id = self.components.len();
        assert_eq!(component.id(), id, "component id must equal its registration index");
        self.components.push(component);
        self.scheduled.push(None);
        id
    }

    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The shared state.
    pub fn shared(&self) -> &S {
        &self.shared
    }

    /// Number of events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// The recorded trace (empty unless built [`EventEngine::with_trace`]).
    pub fn trace(&self) -> &[EventRecord] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Consumes the engine, returning the shared state and the recorded trace.
    pub fn into_parts(self) -> (S, Vec<EventRecord>) {
        (self.shared, self.trace.unwrap_or_default())
    }

    fn rank_for(&mut self, id: ComponentId) -> u64 {
        self.pushes += 1;
        match self.tie_break {
            TieBreak::ById => id as u64,
            TieBreak::Fuzzed { seed } => {
                splitmix64(seed ^ (id as u64).wrapping_mul(0xA24B_AED4_963E_E407) ^ self.pushes)
            }
        }
    }

    /// Re-polls every component and (re-)queues those whose wake-up changed.
    fn sync_wakeups(&mut self) {
        for id in 0..self.components.len() {
            let next = self.components[id].next_tick(&self.shared);
            if next != self.scheduled[id] {
                self.scheduled[id] = next;
                if let Some(time) = next {
                    assert!(
                        time.is_finite() && time + 1e-12 >= self.now,
                        "component {id} scheduled a wake-up in the past ({time} < {})",
                        self.now
                    );
                    let rank = self.rank_for(id);
                    self.heap.push(WakeUp { time, rank, id });
                }
            }
        }
    }

    /// Dispatches the next due event, advancing simulated time to it. Returns `false`
    /// when no component has a pending wake-up.
    pub fn step_event(&mut self) -> bool {
        self.sync_wakeups();
        while let Some(wake) = self.heap.pop() {
            // Lazy deletion: the entry is live only if it matches the component's
            // currently scheduled wake-up.
            if self.scheduled[wake.id] != Some(wake.time) {
                continue;
            }
            debug_assert!(wake.time + 1e-12 >= self.now, "event heap went backwards");
            self.now = self.now.max(wake.time);
            // Clear the marker so sync re-queues the component at whatever its tick
            // returns (even the same instant again).
            self.scheduled[wake.id] = None;
            let next = self.components[wake.id].tick(self.now, &mut self.shared);
            debug_assert_eq!(
                next,
                self.components[wake.id].next_tick(&self.shared),
                "tick() and next_tick() disagree for component {}",
                wake.id
            );
            self.processed += 1;
            if let Some(trace) = self.trace.as_mut() {
                trace.push(EventRecord {
                    tick: self.now,
                    component: wake.id,
                    name: self.components[wake.id].name().to_owned(),
                    event: self.components[wake.id].event_label(),
                });
            }
            return true;
        }
        false
    }

    /// Runs until no component has a pending wake-up, returning the final time.
    ///
    /// # Panics
    ///
    /// Panics if more than `max_events` events are dispatched (runaway guard: a
    /// component re-scheduling itself at the same tick forever).
    pub fn run(&mut self, max_events: u64) -> f64 {
        let start = self.processed;
        while self.step_event() {
            assert!(
                self.processed - start <= max_events,
                "event engine exceeded {max_events} events — a component is livelocked"
            );
        }
        self.now
    }
}

// ---------------------------------------------------------------------------
// Serial links
// ---------------------------------------------------------------------------

/// A serial FIFO link: one transfer occupies the wire at a time, each for
/// `bytes / bandwidth` seconds, and every delivery lands one propagation `latency`
/// after its transfer drains. This is the inter-node primitive the cluster prices
/// frontend→engine hops with; the per-rank PCIe directions in
/// [`crate::transfer`] stay closed-form.
///
/// Pricing is deterministic and order-dependent only on the call order of
/// [`SerialLine::delivery`] — callers must offer transfers in a deterministic order
/// (the cluster router offers them in routing order).
#[derive(Debug, Clone, PartialEq)]
pub struct SerialLine {
    /// Propagation latency added after a transfer drains, in seconds.
    latency: f64,
    /// Wire bandwidth in bytes per second.
    bytes_per_s: f64,
    /// Time the wire finishes its last accepted transfer.
    free_at: f64,
}

impl SerialLine {
    /// A link with the given propagation latency (seconds) and bandwidth (bytes/s).
    ///
    /// # Panics
    ///
    /// Panics if the latency is negative/not finite or the bandwidth is not positive.
    pub fn new(latency: f64, bytes_per_s: f64) -> Self {
        assert!(latency.is_finite() && latency >= 0.0, "latency must be finite and >= 0");
        assert!(
            bytes_per_s.is_finite() && bytes_per_s > 0.0,
            "bandwidth must be finite and positive"
        );
        Self { latency, bytes_per_s, free_at: 0.0 }
    }

    /// Accepts a transfer of `bytes` that becomes ready to send at `ready`, and
    /// returns its delivery time: the wire serializes transfers FIFO in call order,
    /// and the payload lands `latency` after its slot drains.
    ///
    /// # Panics
    ///
    /// Panics if `ready` is not finite or `bytes` is negative/not finite.
    pub fn delivery(&mut self, ready: f64, bytes: f64) -> f64 {
        assert!(ready.is_finite(), "ready time must be finite");
        assert!(bytes.is_finite() && bytes >= 0.0, "transfer size must be finite and >= 0");
        let start = self.free_at.max(ready);
        self.free_at = start + bytes / self.bytes_per_s;
        self.free_at + self.latency
    }

    /// Time the wire finishes its last accepted transfer (0 before any transfer).
    pub fn free_at(&self) -> f64 {
        self.free_at
    }

    /// Current propagation latency, in seconds.
    pub fn latency(&self) -> f64 {
        self.latency
    }

    /// Current wire bandwidth, in bytes per second.
    pub fn bytes_per_s(&self) -> f64 {
        self.bytes_per_s
    }

    /// Re-rates the wire in place — a fault injector modelling congestion or a flaky
    /// cable cuts bandwidth and adds latency mid-simulation. In-flight transfers keep
    /// the delivery times they were quoted (`free_at` is preserved); only transfers
    /// accepted after the call see the new rates.
    ///
    /// # Panics
    ///
    /// Same domain checks as [`SerialLine::new`].
    pub fn reconfigure(&mut self, latency: f64, bytes_per_s: f64) {
        assert!(latency.is_finite() && latency >= 0.0, "latency must be finite and >= 0");
        assert!(
            bytes_per_s.is_finite() && bytes_per_s > 0.0,
            "bandwidth must be finite and positive"
        );
        self.latency = latency;
        self.bytes_per_s = bytes_per_s;
    }
}

// ---------------------------------------------------------------------------
// Task-graph runner
// ---------------------------------------------------------------------------

/// Identifies a serial resource (GPU stream, CPU pool, one PCIe link direction).
pub type ResourceId = usize;

/// Identifies a job within a [`TaskGraph`].
pub type JobId = usize;

/// One job: runs for `duration` seconds on `resource` once every dependency finished.
#[derive(Debug, Clone)]
struct JobSpec {
    name: String,
    resource: ResourceId,
    duration: f64,
}

/// A DAG of jobs over serial resources, executed by the event engine.
///
/// Each resource runs one job at a time; among ready jobs it picks the lowest
/// [`JobId`] first (FIFO in construction order), which makes execution independent of
/// same-tick dispatch order — the property the fuzzed tie-break verifies.
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    jobs: Vec<JobSpec>,
    deps: Vec<Vec<JobId>>,
    resource_names: Vec<String>,
}

/// Outcome of simulating a [`TaskGraph`].
#[derive(Debug, Clone)]
pub struct TaskGraphRun {
    /// Time the last job finished (0 for an empty graph).
    pub makespan: f64,
    /// Per-job finish times, indexed by [`JobId`].
    pub finish_times: Vec<f64>,
    /// Per-resource busy time (sum of executed job durations).
    pub busy: Vec<f64>,
    /// The dispatch trace, when requested.
    pub trace: Vec<EventRecord>,
}

impl TaskGraph {
    /// An empty graph over `n_resources` serial resources named `r0`, `r1`, ….
    pub fn new(n_resources: usize) -> Self {
        Self::named(&(0..n_resources).map(|r| format!("r{r}")).collect::<Vec<_>>())
    }

    /// An empty graph whose resources carry the given names (shown as the component
    /// names in event traces).
    pub fn named<S: AsRef<str>>(resource_names: &[S]) -> Self {
        Self {
            jobs: Vec::new(),
            deps: Vec::new(),
            resource_names: resource_names.iter().map(|s| s.as_ref().to_owned()).collect(),
        }
    }

    /// Adds a job and returns its id. Dependencies must already exist (so the graph is
    /// acyclic by construction); zero-duration jobs are allowed.
    ///
    /// # Panics
    ///
    /// Panics if the resource is out of range, a dependency id is not smaller than the
    /// new job's id, or the duration is negative/not finite.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        resource: ResourceId,
        duration: f64,
        deps: &[JobId],
    ) -> JobId {
        assert!(resource < self.resource_names.len(), "resource {resource} out of range");
        assert!(duration.is_finite() && duration >= 0.0, "job duration must be finite and >= 0");
        let id = self.jobs.len();
        for &d in deps {
            assert!(d < id, "dependency {d} of job {id} must be an earlier job");
        }
        self.jobs.push(JobSpec { name: name.into(), resource, duration });
        self.deps.push(deps.to_vec());
        id
    }

    /// Number of jobs in the graph.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the graph holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Executes the graph on the event engine and returns finish times, per-resource
    /// busy time and the makespan. `trace` enables `(tick, component, event)`
    /// recording.
    pub fn simulate(&self, tie_break: TieBreak, trace: bool) -> TaskGraphRun {
        let n_jobs = self.jobs.len();
        let n_resources = self.resource_names.len();
        let mut board = Board {
            durations: self.jobs.iter().map(|j| j.duration).collect(),
            names: self.jobs.iter().map(|j| j.name.clone()).collect(),
            resources: self.jobs.iter().map(|j| j.resource).collect(),
            dependents: vec![Vec::new(); n_jobs],
            remaining: self.deps.iter().map(|d| d.len()).collect(),
            enabled_at: vec![f64::NAN; n_jobs],
            ready: vec![BTreeSet::new(); n_resources],
            finish: vec![f64::NAN; n_jobs],
            done: vec![false; n_jobs],
        };
        for (id, deps) in self.deps.iter().enumerate() {
            for &d in deps {
                board.dependents[d].push(id);
            }
        }
        for id in 0..n_jobs {
            if board.remaining[id] == 0 {
                board.enabled_at[id] = 0.0;
                board.ready[board.resources[id]].insert(id);
            }
        }
        let mut engine = EventEngine::new(board, tie_break);
        if trace {
            engine = engine.with_trace();
        }
        for r in 0..n_resources {
            engine
                .add_component(Box::new(ResourceComponent::new(r, self.resource_names[r].clone())));
        }
        // Each job produces at most two events (start, finish; possibly fused), plus
        // slack for same-tick re-wakes.
        engine.run(4 * n_jobs as u64 + 8);
        let busy: Vec<f64> = (0..n_resources)
            .map(|r| self.jobs.iter().filter(|j| j.resource == r).map(|j| j.duration).sum())
            .collect();
        let (board, trace) = engine.into_parts();
        assert!(
            board.done.iter().all(|&d| d),
            "task graph deadlocked: a job's dependencies never completed"
        );
        let makespan = board.finish.iter().copied().fold(0.0_f64, f64::max);
        TaskGraphRun { makespan, finish_times: board.finish, busy, trace }
    }
}

/// Shared state of a task-graph simulation.
struct Board {
    durations: Vec<f64>,
    names: Vec<String>,
    resources: Vec<ResourceId>,
    dependents: Vec<Vec<JobId>>,
    remaining: Vec<usize>,
    /// Time each job's last dependency finished (NaN until enabled).
    enabled_at: Vec<f64>,
    /// Ready jobs per resource, ordered by job id (FIFO in construction order).
    ready: Vec<BTreeSet<JobId>>,
    finish: Vec<f64>,
    done: Vec<bool>,
}

/// A serial execution resource: runs one ready job at a time, FIFO by job id.
struct ResourceComponent {
    id: ResourceId,
    name: String,
    /// The running job and its finish time.
    running: Option<(JobId, f64)>,
    /// When the resource last became free.
    free_at: f64,
    last_event: String,
}

impl ResourceComponent {
    fn new(id: ResourceId, name: String) -> Self {
        Self { id, name, running: None, free_at: 0.0, last_event: String::new() }
    }

    /// The time the next ready job could start on this resource, if any.
    fn next_start(&self, board: &Board) -> Option<f64> {
        board.ready[self.id].iter().next().map(|&job| board.enabled_at[job].max(self.free_at))
    }
}

impl Component<Board> for ResourceComponent {
    fn id(&self) -> ComponentId {
        self.id
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn next_tick(&self, board: &Board) -> Option<f64> {
        match self.running {
            Some((_, finish)) => Some(finish),
            None => self.next_start(board),
        }
    }

    fn tick(&mut self, now: f64, board: &mut Board) -> Option<f64> {
        self.last_event.clear();
        // Complete the running job if its finish time has arrived.
        if let Some((job, finish)) = self.running {
            if now >= finish {
                self.running = None;
                self.free_at = finish;
                board.finish[job] = finish;
                board.done[job] = true;
                for i in 0..board.dependents[job].len() {
                    let dep = board.dependents[job][i];
                    board.remaining[dep] -= 1;
                    if board.remaining[dep] == 0 {
                        board.enabled_at[dep] = finish;
                        board.ready[board.resources[dep]].insert(dep);
                    }
                }
                self.last_event = format!("finish {}", board.names[job]);
            }
        }
        // Start the next ready job if the resource is free and the job's enable time
        // has arrived (completion and the next start may share a tick).
        if self.running.is_none() {
            if let Some(&job) = board.ready[self.id].iter().next() {
                let start = board.enabled_at[job].max(self.free_at);
                if start <= now {
                    board.ready[self.id].remove(&job);
                    let finish = now + board.durations[job];
                    self.running = Some((job, finish));
                    if !self.last_event.is_empty() {
                        self.last_event.push_str("; ");
                    }
                    self.last_event.push_str(&format!("start {}", board.names[job]));
                }
            }
        }
        self.next_tick(board)
    }

    fn event_label(&self) -> String {
        self.last_event.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A component that wakes every `period` seconds `n` times and appends its id to a
    /// shared log.
    struct Beeper {
        id: ComponentId,
        period: f64,
        remaining: usize,
        next: f64,
    }

    impl Component<Vec<(f64, ComponentId)>> for Beeper {
        fn id(&self) -> ComponentId {
            self.id
        }
        fn name(&self) -> &str {
            "beeper"
        }
        fn next_tick(&self, _shared: &Vec<(f64, ComponentId)>) -> Option<f64> {
            (self.remaining > 0).then_some(self.next)
        }
        fn tick(&mut self, now: f64, shared: &mut Vec<(f64, ComponentId)>) -> Option<f64> {
            shared.push((now, self.id));
            self.remaining -= 1;
            self.next = now + self.period;
            self.next_tick(shared)
        }
    }

    fn beeper(id: ComponentId, period: f64, n: usize) -> Box<Beeper> {
        Box::new(Beeper { id, period, remaining: n, next: period })
    }

    #[test]
    fn events_dispatch_in_time_order() {
        let mut engine = EventEngine::new(Vec::new(), TieBreak::ById);
        engine.add_component(beeper(0, 3.0, 2));
        engine.add_component(beeper(1, 2.0, 3));
        let end = engine.run(100);
        assert_eq!(end, 6.0);
        let log = engine.shared().clone();
        assert_eq!(log, vec![(2.0, 1), (3.0, 0), (4.0, 1), (6.0, 0), (6.0, 1)]);
        assert_eq!(engine.events_processed(), 5);
    }

    #[test]
    fn same_tick_ties_break_by_id_by_default() {
        let mut engine = EventEngine::new(Vec::new(), TieBreak::ById);
        engine.add_component(beeper(0, 1.0, 4));
        engine.add_component(beeper(1, 1.0, 4));
        engine.run(100);
        for pair in engine.shared().chunks(2) {
            assert_eq!(pair[0].0, pair[1].0);
            assert!(pair[0].1 < pair[1].1, "ById must dispatch component 0 first");
        }
    }

    #[test]
    fn fuzzed_tie_break_permutes_order_but_not_times() {
        // Across seeds the *set* of (time, id) pairs is identical; at least one seed
        // flips some same-tick pair relative to ById.
        let run = |tie: TieBreak| {
            let mut engine = EventEngine::new(Vec::new(), tie);
            for id in 0..4 {
                engine.add_component(beeper(id, 1.0, 8));
            }
            engine.run(1_000);
            engine.shared().clone()
        };
        let reference = run(TieBreak::ById);
        let mut saw_reorder = false;
        for seed in 1..=16 {
            let fuzzed = run(TieBreak::Fuzzed { seed });
            let mut sorted_ref = reference.clone();
            let mut sorted_fuzz = fuzzed.clone();
            sorted_ref.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            sorted_fuzz.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            assert_eq!(sorted_ref, sorted_fuzz, "seed {seed} changed times, not just order");
            if fuzzed != reference {
                saw_reorder = true;
            }
        }
        assert!(saw_reorder, "fuzzing never produced a different same-tick order");
    }

    #[test]
    fn fuzzed_runs_are_reproducible_from_the_seed() {
        let run = |seed: u64| {
            let mut engine = EventEngine::new(Vec::new(), TieBreak::Fuzzed { seed });
            for id in 0..3 {
                engine.add_component(beeper(id, 0.5, 5));
            }
            engine.run(1_000);
            engine.shared().clone()
        };
        assert_eq!(run(7), run(7));
        assert_eq!(TieBreak::from_seed(0), TieBreak::ById);
        assert_eq!(TieBreak::from_seed(9), TieBreak::Fuzzed { seed: 9 });
    }

    #[test]
    fn trace_records_tick_component_event() {
        let mut engine = EventEngine::new(Vec::new(), TieBreak::ById).with_trace();
        engine.add_component(beeper(0, 1.5, 2));
        engine.run(100);
        let trace = engine.trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].tick, 1.5);
        assert_eq!(trace[1].tick, 3.0);
        assert_eq!(trace[0].component, 0);
        assert_eq!(trace[0].name, "beeper");
    }

    #[test]
    #[should_panic(expected = "livelocked")]
    fn runaway_component_trips_the_event_guard() {
        struct Stuck;
        impl Component<()> for Stuck {
            fn id(&self) -> ComponentId {
                0
            }
            fn name(&self) -> &str {
                "stuck"
            }
            fn next_tick(&self, _: &()) -> Option<f64> {
                Some(1.0)
            }
            fn tick(&mut self, _now: f64, _: &mut ()) -> Option<f64> {
                Some(1.0) // never advances
            }
        }
        let mut engine = EventEngine::new((), TieBreak::ById);
        engine.add_component(Box::new(Stuck));
        engine.run(16);
    }

    #[test]
    #[should_panic(expected = "registration index")]
    fn mismatched_component_id_is_rejected() {
        let mut engine: EventEngine<()> = EventEngine::new((), TieBreak::ById);
        struct Wrong;
        impl Component<()> for Wrong {
            fn id(&self) -> ComponentId {
                7
            }
            fn name(&self) -> &str {
                "wrong"
            }
            fn next_tick(&self, _: &()) -> Option<f64> {
                None
            }
            fn tick(&mut self, _: f64, _: &mut ()) -> Option<f64> {
                None
            }
        }
        engine.add_component(Box::new(Wrong));
    }

    // -- serial line --------------------------------------------------------

    #[test]
    fn idle_serial_line_delivers_after_transfer_plus_latency() {
        let mut line = SerialLine::new(0.5, 100.0);
        // 200 bytes at 100 B/s = 2 s on the wire, landing 0.5 s later.
        assert_eq!(line.delivery(1.0, 200.0), 3.5);
        assert_eq!(line.free_at(), 3.0);
    }

    #[test]
    fn serial_line_serializes_back_to_back_transfers_fifo() {
        let mut line = SerialLine::new(0.1, 10.0);
        let first = line.delivery(0.0, 20.0); // wire 0..2
        let second = line.delivery(0.0, 10.0); // queued: wire 2..3
        assert_eq!(first, 2.1);
        assert_eq!(second, 3.1);
        // A transfer ready after the wire drains is not delayed by the earlier ones.
        assert_eq!(line.delivery(10.0, 10.0), 11.1);
    }

    #[test]
    fn zero_byte_transfer_costs_only_latency() {
        let mut line = SerialLine::new(0.25, 1.0);
        assert_eq!(line.delivery(4.0, 0.0), 4.25);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn serial_line_rejects_zero_bandwidth() {
        let _ = SerialLine::new(0.0, 0.0);
    }

    #[test]
    fn reconfigure_rerates_new_transfers_but_keeps_quoted_deliveries() {
        let mut line = SerialLine::new(0.5, 100.0);
        assert_eq!(line.delivery(0.0, 200.0), 2.5); // wire busy 0..2
                                                    // Degrade mid-flight: bandwidth cut 10x, latency doubled.
        line.reconfigure(1.0, 10.0);
        assert_eq!(line.latency(), 1.0);
        assert_eq!(line.bytes_per_s(), 10.0);
        assert_eq!(line.free_at(), 2.0, "the in-flight transfer keeps its quoted slot");
        // The next transfer queues behind the old slot but drains at the new rate.
        assert_eq!(line.delivery(0.0, 10.0), 2.0 + 1.0 + 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn reconfigure_rejects_zero_bandwidth() {
        let mut line = SerialLine::new(0.0, 1.0);
        line.reconfigure(0.0, 0.0);
    }

    // -- task graph ---------------------------------------------------------

    #[test]
    fn serial_chain_sums_durations() {
        let mut g = TaskGraph::new(1);
        let a = g.push("a", 0, 1.0, &[]);
        let b = g.push("b", 0, 2.0, &[a]);
        let _c = g.push("c", 0, 3.0, &[b]);
        let run = g.simulate(TieBreak::ById, false);
        assert_eq!(run.makespan, 6.0);
        assert_eq!(run.finish_times, vec![1.0, 3.0, 6.0]);
        assert_eq!(run.busy, vec![6.0]);
    }

    #[test]
    fn independent_jobs_on_distinct_resources_run_in_parallel() {
        let mut g = TaskGraph::new(2);
        g.push("a", 0, 4.0, &[]);
        g.push("b", 1, 3.0, &[]);
        let run = g.simulate(TieBreak::ById, false);
        assert_eq!(run.makespan, 4.0);
    }

    #[test]
    fn one_resource_serializes_fifo_by_job_id() {
        let mut g = TaskGraph::new(1);
        g.push("a", 0, 1.0, &[]);
        g.push("b", 0, 1.0, &[]);
        g.push("c", 0, 1.0, &[]);
        let run = g.simulate(TieBreak::ById, false);
        assert_eq!(run.finish_times, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn double_buffered_pipeline_matches_the_closed_form_when_hidden() {
        // t <= c: transfers hide behind compute; total = fill + L*c, exactly the
        // closed-form double_buffered_time.
        let layers = 8;
        let (c, t) = (2.0, 1.0);
        let mut g = TaskGraph::new(2);
        let mut prev_compute: Option<JobId> = None;
        let mut computes = Vec::new();
        for i in 0..layers {
            // Double-buffer depth 2: transfer i waits for compute i-2 to release its
            // buffer; the link itself serializes transfers.
            let mut tdeps: Vec<JobId> = Vec::new();
            if i >= 2 {
                tdeps.push(computes[i - 2]);
            }
            let xfer = g.push(format!("xfer{i}"), 1, t, &tdeps);
            let mut cdeps = vec![xfer];
            if let Some(p) = prev_compute {
                cdeps.push(p);
            }
            let comp = g.push(format!("comp{i}"), 0, c, &cdeps);
            computes.push(comp);
            prev_compute = Some(comp);
        }
        let run = g.simulate(TieBreak::ById, false);
        let closed = crate::transfer::double_buffered_time(layers, c, t);
        assert!((run.makespan - closed).abs() < 1e-12, "event {} closed {closed}", run.makespan);
    }

    #[test]
    fn transfer_bound_pipeline_is_finer_than_the_closed_form() {
        // t > c: the event-ordered pipeline finishes at L*t + c; the closed form
        // charges t + L*t (steady-state cadence), a slight overcount. The event engine
        // must sit at or below the closed form, within one stage time.
        let layers = 8;
        let (c, t) = (1.0, 3.0);
        let mut g = TaskGraph::new(2);
        let mut computes: Vec<JobId> = Vec::new();
        for i in 0..layers {
            let mut tdeps: Vec<JobId> = Vec::new();
            if i >= 2 {
                tdeps.push(computes[i - 2]);
            }
            let xfer = g.push(format!("xfer{i}"), 1, t, &tdeps);
            let mut cdeps = vec![xfer];
            if let Some(&p) = computes.last() {
                cdeps.push(p);
            }
            computes.push(g.push(format!("comp{i}"), 0, c, &cdeps));
        }
        let run = g.simulate(TieBreak::ById, false);
        assert_eq!(run.makespan, layers as f64 * t + c);
        let closed = crate::transfer::double_buffered_time(layers, c, t);
        assert!(run.makespan <= closed);
        assert!(closed - run.makespan <= t);
    }

    #[test]
    fn fuzzed_order_leaves_task_graph_results_bit_identical() {
        // A graph with plenty of same-tick ties: 3 resources, layered fan-out.
        let mut g = TaskGraph::new(3);
        let mut prev: Vec<JobId> = Vec::new();
        for layer in 0..6 {
            let mut next = Vec::new();
            for r in 0..3 {
                next.push(g.push(format!("j{layer}-{r}"), r, 1.0, &prev));
            }
            prev = next;
        }
        let reference = g.simulate(TieBreak::ById, false);
        for seed in [1, 2, 3, 0xDEAD_BEEF] {
            let fuzzed = g.simulate(TieBreak::Fuzzed { seed }, false);
            assert_eq!(reference.finish_times, fuzzed.finish_times, "seed {seed}");
            assert_eq!(reference.makespan, fuzzed.makespan);
        }
    }

    #[test]
    fn zero_duration_jobs_complete_at_their_enable_time() {
        let mut g = TaskGraph::new(1);
        let a = g.push("a", 0, 2.0, &[]);
        let b = g.push("b", 0, 0.0, &[a]);
        let run = g.simulate(TieBreak::ById, false);
        assert_eq!(run.finish_times[b], 2.0);
    }

    #[test]
    fn empty_graph_has_zero_makespan() {
        let g = TaskGraph::new(2);
        assert!(g.is_empty());
        let run = g.simulate(TieBreak::ById, false);
        assert_eq!(run.makespan, 0.0);
        assert!(run.finish_times.is_empty());
    }

    #[test]
    fn trace_captures_starts_and_finishes() {
        let mut g = TaskGraph::new(2);
        let a = g.push("load", 1, 1.0, &[]);
        g.push("work", 0, 2.0, &[a]);
        let run = g.simulate(TieBreak::ById, true);
        let events: Vec<(f64, &str)> =
            run.trace.iter().map(|r| (r.tick, r.event.as_str())).collect();
        assert_eq!(
            events,
            vec![
                (0.0, "start load"),
                (1.0, "finish load"),
                (1.0, "start work"),
                (3.0, "finish work"),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "earlier job")]
    fn forward_dependency_is_rejected() {
        let mut g = TaskGraph::new(1);
        g.push("a", 0, 1.0, &[3]);
    }
}
