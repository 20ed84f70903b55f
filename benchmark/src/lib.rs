//! The repository benchmark's library half: the workload definitions and the
//! hand-driven campaign loop that times each layer from outside.
//!
//! [`Episode::run`] makes exactly the calls [`SloCampaign::run`] makes — churn
//! events, open-loop injection, one Figure-7 step per cycle, the SLO fold — plus
//! an optional route-query client, and wraps each call into an engine crate with
//! a host clock.  The engine crates themselves stay clock-free: every timing in
//! this package is taken here, around their public functions.

use std::time::Instant;

use lgfi_core::network::{LgfiNetwork, NetworkConfig};
use lgfi_core::route_service::{RouteReader, RouteService};
use lgfi_core::routing::{LgfiRouter, ProbeEngine, ProbeOutcome, ProbeStatus, Router};
use lgfi_core::slo::SloObserver;
use lgfi_core::status::NodeStatus;
use lgfi_core::traffic_engine::{TrafficEngine, TrafficSpec};
use lgfi_sim::{
    FaultEvent, FaultEventKind, FaultPlan, FaultPlanCursor, Histogram, InjectionProcess, SloTracker,
};
use lgfi_topology::NodeId;
use lgfi_workloads::{
    CampaignFaults, ChurnConfig, ChurnProcess, FaultGenerator, FaultPlacement, SloCampaign,
    TrafficGenerator, TrafficPattern,
};

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = [
    "churn_packets_128",
    "static_wormhole_128",
    "churn_queries_128",
];

/// Mesh radix of every workload (a 128×128 2-D mesh).
const SIDE: i32 = 128;
/// Cycle budget of one packet: a packet still in flight after this many cycles
/// fails.
const MAX_PACKET_CYCLES: u64 = 1_000;
/// Drain budget after the injection window (longer than a packet's budget, so
/// every packet finishes).
const DRAIN: u64 = 2_000;
/// Step budget of one route query.
const MAX_QUERY_STEPS: u64 = 100_000;
/// Every `QUERY_CHECK_EVERY`-th query is re-resolved on the live network.
const QUERY_CHECK_EVERY: u64 = 61;

/// One benchmark workload: a campaign plus an optional route-query client.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Mesh, λ, traffic spec, pattern and fault process.
    pub campaign: SloCampaign,
    /// Route queries resolved per step by one same-thread reader (0 = no
    /// route service is attached and steps drive the traffic engine).
    pub queries_per_step: usize,
}

impl Workload {
    /// The named workload with its inputs drawn from `seed`, or `None` for an
    /// unknown name.
    pub fn named(name: &str, seed: u64) -> Option<Workload> {
        let churn = |fail_rate| {
            CampaignFaults::Churn(ChurnConfig {
                fail_rate,
                mean_downtime: 150.0,
                max_faulty: 64,
            })
        };
        let mut campaign = SloCampaign {
            dims: vec![SIDE, SIDE],
            seed,
            lambda: 1,
            threads: 1,
            frontier: true,
            probe_threads: 1,
            traffic: TrafficSpec::at_rate(32.0)
                .cycles(2_000)
                .drain_cycles(DRAIN)
                .max_packet_cycles(MAX_PACKET_CYCLES),
            pattern: TrafficPattern::UniformRandom,
            faults: churn(0.05),
        };
        let mut queries_per_step = 0;
        match name {
            "churn_packets_128" => {}
            "static_wormhole_128" => {
                let plan = FaultGenerator::new(campaign.mesh(), seed)
                    .static_plan(64, FaultPlacement::Clustered { clusters: 6 });
                campaign.faults = CampaignFaults::Plan(plan);
                campaign.traffic = campaign
                    .traffic
                    .rate(3.0)
                    .cycles(6_000)
                    .flits_per_packet(4)
                    .vc_count(2)
                    .escape_vc(true)
                    // One decision worker: on a 2-CPU host two workers ran
                    // about 25% slower and too unsteadily to bound.
                    .traffic_threads(1);
            }
            "churn_queries_128" => {
                campaign.faults = churn(0.1);
                campaign.traffic = campaign.traffic.rate(0.0).cycles(1_500).drain_cycles(0);
                queries_per_step = 32;
            }
            _ => return None,
        }
        Some(Workload {
            campaign,
            queries_per_step,
        })
    }
}

/// The host clock.  The benchmark is the measurement harness: it times calls
/// into the engine crates from outside, which stay clock-free.
pub fn now() -> Instant {
    // audit:allow(clock): the benchmark harness times engine calls from outside
    Instant::now()
}

/// Nanoseconds since `start`.
fn since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Host time of one layer: every call's duration.
#[derive(Debug, Clone, Default)]
pub struct Span {
    /// Per-call durations in nanoseconds, in call order.
    pub ns: Vec<u64>,
}

/// The step classes of `core::network`, assigned from outside by what a step
/// changed (first match wins).
pub const STEP_CLASSES: [&str; 4] = ["rebuild", "event", "publish", "quiet"];

/// Per-layer host time of a traced episode.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// `ChurnProcess::events_at`.
    pub churn: Span,
    /// `TrafficGenerator::next_request` (packets and queries).
    pub traffic_gen: Span,
    /// `TrafficEngine::inject`.
    pub inject: Span,
    /// `LgfiNetwork::run_traffic_step_with` / `run_step_with`, split by
    /// [`STEP_CLASSES`].
    pub steps: [Span; 4],
    /// `SloObserver::observe_step`.
    pub observe: Span,
    /// `RouteReader::resolve`.
    pub resolve: Span,
}

/// Runs `f`, adding its duration to `span` when tracing.
fn timed<R>(span: Option<&mut Span>, f: impl FnOnce() -> R) -> R {
    match span {
        None => f(),
        Some(span) => {
            let start = now();
            let out = f();
            span.ns.push(since(start));
            out
        }
    }
}

/// What one episode produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Simulated statistics, in a fixed order.  They are a pure function of the
    /// workload and seed, so they must repeat exactly across runs and between
    /// traced and untraced runs.
    pub sim: Vec<(&'static str, u64)>,
    /// The SLO tracker, as [`SloCampaign::run`] would return it.
    pub tracker: SloTracker,
    /// Host nanoseconds of every injection-window cycle.
    pub cycle_ns: Vec<u64>,
    /// Host nanoseconds of the whole drain.
    pub drain_ns: u64,
    /// Host nanoseconds of every request call: `RouteReader::resolve` when the
    /// workload queries, `TrafficEngine::inject` when it sends packets.
    pub request_ns: Vec<u64>,
    /// Failed output checks (empty on a correct run).
    pub mismatches: Vec<String>,
    /// Per-layer host time (traced runs only).
    pub trace: Option<Trace>,
}

/// A set-up episode: the network, engine, generators and observer of one
/// workload, before its first cycle.
pub struct Episode {
    horizon: u64,
    drain_cycles: u64,
    queries_per_step: usize,
    faults: CampaignFaults,
    net: LgfiNetwork,
    engine: TrafficEngine,
    traffic: TrafficGenerator,
    injection: InjectionProcess,
    obs: SloObserver,
    churn: Option<ChurnProcess>,
    service: Option<(RouteService, RouteReader, TrafficGenerator)>,
}

impl Episode {
    /// Builds the inputs, network, engine and (for query workloads) the route
    /// service, exactly as [`SloCampaign::run`] does before its first cycle.
    pub fn setup(workload: &Workload) -> Episode {
        let c = &workload.campaign;
        let mesh = c.mesh();
        let horizon = c.traffic.cycles;
        let mut net = LgfiNetwork::new(
            mesh.clone(),
            FaultPlan::empty(),
            NetworkConfig {
                lambda: c.lambda,
                max_probe_steps: horizon + c.traffic.drain_cycles,
                threads: c.threads,
                frontier: c.frontier,
                probe_threads: c.probe_threads,
            },
        );
        let mut engine = TrafficEngine::new(mesh.clone(), c.traffic, &make_router);
        let traffic = TrafficGenerator::new(mesh.clone(), c.pattern, c.seed ^ 0x00AF_F1C0);
        let injection = InjectionProcess::new(c.traffic.injection_rate);
        let mut obs = SloObserver::new(mesh.node_count());
        let max_bursts = match &c.faults {
            CampaignFaults::Plan(plan) => plan
                .events()
                .iter()
                .filter(|e| e.kind == FaultEventKind::Fail)
                .count(),
            CampaignFaults::Churn(cfg) => (cfg.fail_rate * horizon as f64).ceil() as usize + 16,
        };
        obs.reserve(c.traffic.max_packet_cycles + 2, 4_096, max_bursts);
        engine.reserve(
            64 + (c.traffic.injection_rate.ceil() as usize) * 64,
            c.traffic.max_packet_cycles + 2,
        );
        let churn = match &c.faults {
            CampaignFaults::Churn(cfg) => Some(ChurnProcess::new(mesh.clone(), c.seed, *cfg)),
            CampaignFaults::Plan(_) => None,
        };
        let service = (workload.queries_per_step > 0).then(|| {
            let service = net.route_service();
            let reader = service.reader();
            let pairs =
                TrafficGenerator::new(mesh, TrafficPattern::UniformRandom, c.seed ^ 0x0051_E7A5);
            (service, reader, pairs)
        });
        Episode {
            horizon,
            drain_cycles: c.traffic.drain_cycles,
            queries_per_step: workload.queries_per_step,
            faults: c.faults.clone(),
            net,
            engine,
            traffic,
            injection,
            obs,
            churn,
            service,
        }
    }

    /// Runs the episode's injection window and drain, timing every cycle, and
    /// every layer call when `traced`.
    pub fn run(mut self, traced: bool) -> Outcome {
        let mut trace = traced.then(Trace::default);
        let mut cycle_ns = Vec::with_capacity(self.horizon as usize);
        let per_step = self
            .queries_per_step
            .max(self.injection.rate().ceil() as usize);
        let mut request_ns = Vec::with_capacity(self.horizon as usize * per_step);
        let mut mismatches = Vec::new();
        let mut events: Vec<FaultEvent> = Vec::with_capacity(32);
        let mut plan_cursor = FaultPlanCursor::new();
        let router = LgfiRouter::new();
        let mut live_engine = ProbeEngine::new();
        let mut samples: Vec<(NodeId, NodeId, u64, ProbeOutcome)> = Vec::new();
        let mut sim = SimCounters::default();

        for _ in 0..self.horizon {
            let cycle = now();
            let step = self.net.step();
            match (&self.faults, self.churn.as_mut()) {
                (CampaignFaults::Plan(plan), _) => {
                    events.clear();
                    events.extend_from_slice(plan_cursor.events_at(plan, step));
                }
                (CampaignFaults::Churn(_), Some(churn)) => {
                    let span = trace.as_mut().map(|t| &mut t.churn);
                    timed(span, || churn.events_at(step, &mut events));
                }
                (CampaignFaults::Churn(_), None) => events.clear(),
            }
            sim.fault_events += events.len() as u64;
            for _ in 0..self.injection.packets_this_cycle() {
                sim.offered += 1;
                let statuses = self.net.statuses();
                let traffic = &mut self.traffic;
                let span = trace.as_mut().map(|t| &mut t.traffic_gen);
                let req = timed(span, || {
                    traffic.next_request(|id| statuses[id] == NodeStatus::Enabled)
                });
                let Some(req) = req else {
                    sim.refused += 1;
                    continue;
                };
                if self.engine.in_flight() == sim.inflight_max as usize {
                    sim.inject_fresh += 1;
                }
                let start = now();
                self.engine.inject(req.source, req.dest);
                let ns = since(start);
                request_ns.push(ns);
                if let Some(t) = trace.as_mut() {
                    t.inject.ns.push(ns);
                }
                sim.inflight_max = sim.inflight_max.max(self.engine.in_flight() as u64);
            }
            self.step(&events, trace.as_mut(), &mut sim);
            if let Some((_, reader, pairs)) = self.service.as_mut() {
                for _ in 0..self.queries_per_step {
                    sim.queries += 1;
                    let statuses = self.net.statuses();
                    let span = trace.as_mut().map(|t| &mut t.traffic_gen);
                    let req = timed(span, || {
                        pairs.next_request(|id| statuses[id] == NodeStatus::Enabled)
                    });
                    let Some(req) = req else {
                        sim.queries_refused += 1;
                        continue;
                    };
                    let start = now();
                    let q = reader.resolve(&router, req.source, req.dest, MAX_QUERY_STEPS);
                    let ns = since(start);
                    request_ns.push(ns);
                    if let Some(t) = trace.as_mut() {
                        t.resolve.ns.push(ns);
                    }
                    sim.record_query(&q.outcome);
                    if sim.queries % QUERY_CHECK_EVERY == 0 {
                        samples.push((req.source, req.dest, q.epoch, q.outcome));
                    }
                }
            }
            self.observe_and_clear(&events, trace.as_mut(), &mut sim);
            cycle_ns.push(since(cycle));
            // Output check, outside the cycle's timing: sampled reader results
            // equal the live network's at the same epoch.
            for (source, dest, epoch, outcome) in samples.drain(..) {
                let live =
                    self.net
                        .resolve_live(&router, source, dest, MAX_QUERY_STEPS, &mut live_engine);
                if epoch != self.net.info_changes() || live != outcome {
                    mismatches.push(format!(
                        "query {source}->{dest}: reader {outcome:?} at epoch {epoch}, \
                         live {live:?} at epoch {}",
                        self.net.info_changes()
                    ));
                }
            }
        }
        // Event-free drain: let the in-flight packets finish.  Its length
        // depends on stragglers, so it is timed apart from the injection window.
        let drain = now();
        let mut drained = 0u64;
        while self.engine.in_flight() > 0 && drained < self.drain_cycles {
            self.step(&[], trace.as_mut(), &mut sim);
            self.observe_and_clear(&[], trace.as_mut(), &mut sim);
            drained += 1;
        }
        let drain_ns = since(drain);

        let stats = self.engine.stats();
        let stranded = self.engine.in_flight() as u64;
        if stats.injected() != stats.delivered() + stats.failed() + stranded {
            mismatches.push(format!(
                "conservation: injected {} != delivered {} + failed {} + stranded {stranded}",
                stats.injected(),
                stats.delivered(),
                stats.failed()
            ));
        }
        let tracker = self.obs.into_tracker();
        if tracker.delivered() != stats.delivered() {
            mismatches.push(format!(
                "delivered: SLO tracker {} != traffic stats {}",
                tracker.delivered(),
                stats.delivered()
            ));
        }
        if sim.offered != stats.injected() + sim.refused {
            mismatches.push(format!(
                "offered {} != injected {} + refused {}",
                sim.offered,
                stats.injected(),
                sim.refused
            ));
        }
        let records = self.net.convergence_records();
        let service = self.service.as_ref().map(|(s, _, _)| s.stats());
        let q = |h: &Histogram, p: f64| h.quantile(p).unwrap_or(0);
        let latency = if sim.queries > 0 {
            &sim.query_steps
        } else {
            tracker.latency()
        };
        let failed = stats.failed() + stranded + sim.refused + sim.queries_failed();
        let attempted = sim.offered + sim.queries;
        let out = vec![
            ("cycles", self.horizon),
            ("drained", drained),
            ("attempted", attempted),
            ("failed", failed),
            // Parts per million, so the share stays an integer fingerprint.
            ("failed_ppm", failed * 1_000_000 / attempted.max(1)),
            ("latency_p50", q(latency, 0.5)),
            ("latency_p99", q(latency, 0.99)),
            ("detour_violations", tracker.detour_violations()),
            ("reconverge_p50", q(tracker.reconverge(), 0.5)),
            ("bursts", tracker.bursts()),
            ("offered", sim.offered),
            ("refused", sim.refused),
            ("injected", stats.injected()),
            ("delivered", stats.delivered()),
            ("failed_packets", stats.failed()),
            ("deadlocked", stats.deadlocked()),
            ("stranded", stranded),
            ("hops", stats.total_hops()),
            ("stalls", stats.total_stalls()),
            ("inflight_sum", sim.inflight_sum),
            ("inflight_max", sim.inflight_max),
            ("inject_fresh", sim.inject_fresh),
            ("tracker_delivered", tracker.delivered()),
            ("rebuilds", records.len() as u64),
            (
                "blocks_changed",
                records.iter().map(|r| r.blocks_changed as u64).sum(),
            ),
            ("a_rounds", records.iter().map(|r| r.a_rounds).sum()),
            ("b_rounds", records.iter().map(|r| r.b_rounds).sum()),
            ("c_rounds", records.iter().map(|r| r.c_rounds).sum()),
            ("fault_events", sim.fault_events),
            ("step_rebuild", sim.step_classes[0]),
            ("step_event", sim.step_classes[1]),
            ("step_publish", sim.step_classes[2]),
            ("step_quiet", sim.step_classes[3]),
            ("queries", sim.queries),
            ("queries_refused", sim.queries_refused),
            ("queries_delivered", sim.queries_delivered),
            ("query_steps", sim.query_steps_sum),
            (
                "epochs_published",
                service.map_or(0, |s| s.epochs_published),
            ),
            ("buffers_reused", service.map_or(0, |s| s.buffers_reused)),
            (
                "snapshot_heap_bytes",
                service.map_or(0, |s| s.snapshot_heap_bytes),
            ),
        ];
        Outcome {
            sim: out,
            tracker,
            cycle_ns,
            drain_ns,
            request_ns,
            mismatches,
            trace,
        }
    }

    /// One Figure-7 step: the traffic engine's cycle, or a probe-mode step
    /// publishing to the route service.  The step is classed from outside by
    /// what it changed: a completed rebuild, applied fault events, a published
    /// epoch, or nothing.
    fn step(&mut self, events: &[FaultEvent], trace: Option<&mut Trace>, sim: &mut SimCounters) {
        let epoch = |ep: &Self| ep.service.as_ref().map_or(0, |(s, _, _)| s.epoch());
        let (records, epoch_before) = (self.net.convergence_records().len(), epoch(self));
        let start = now();
        if self.service.is_some() {
            self.net.run_step_with(events);
        } else {
            self.net.run_traffic_step_with(events, &mut self.engine);
        }
        let ns = since(start);
        let class = if self.net.convergence_records().len() > records {
            0
        } else if !events.is_empty() {
            1
        } else if epoch(self) > epoch_before {
            2
        } else {
            3
        };
        sim.step_classes[class] += 1;
        if let Some(t) = trace {
            t.steps[class].ns.push(ns);
        }
    }

    /// The SLO fold closing every cycle, as in [`SloCampaign::run`].
    fn observe_and_clear(
        &mut self,
        events: &[FaultEvent],
        trace: Option<&mut Trace>,
        sim: &mut SimCounters,
    ) {
        let (net, engine, obs) = (&self.net, &self.engine, &mut self.obs);
        timed(trace.map(|t| &mut t.observe), || {
            obs.observe_step(net, engine, events);
        });
        self.engine.clear_records();
        self.obs.notify_records_cleared();
        sim.inflight_sum += self.engine.in_flight() as u64;
    }
}

/// Simulated counters the loop keeps itself.
#[derive(Debug, Default)]
struct SimCounters {
    offered: u64,
    refused: u64,
    inject_fresh: u64,
    inflight_sum: u64,
    inflight_max: u64,
    fault_events: u64,
    step_classes: [u64; 4],
    queries: u64,
    queries_refused: u64,
    queries_delivered: u64,
    query_steps_sum: u64,
    query_steps: Histogram,
}

impl SimCounters {
    fn record_query(&mut self, outcome: &ProbeOutcome) {
        if outcome.status == ProbeStatus::Delivered {
            self.queries_delivered += 1;
            self.query_steps.record(outcome.steps);
        }
        self.query_steps_sum += outcome.steps;
    }

    fn queries_failed(&self) -> u64 {
        self.queries - self.queries_delivered
    }
}

/// A fresh LGFI router (the one router every workload uses).
pub fn make_router() -> Box<dyn Router> {
    Box::new(LgfiRouter::new())
}
