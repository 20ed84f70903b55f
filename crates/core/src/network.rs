//! The dynamic network: labeling, identification, boundary construction and routing
//! *hand-in-hand* (Figure 7).
//!
//! [`LgfiNetwork`] executes the step model of Section 5 over a
//! [`FaultPlan`]:
//!
//! * at the beginning of every step the fault events scheduled for that step take
//!   effect and are detected by the neighbors;
//! * the step then runs λ information rounds: the labeling advances (Algorithm 1), and
//!   once it has stabilised the affected blocks are identified (Algorithm 2) and their
//!   boundaries constructed (Definition 3); the resulting information becomes visible
//!   at each node only after the corresponding number of rounds has elapsed, so during
//!   the converging period different nodes hold *inconsistent* information — exactly
//!   the regime the paper analyses;
//! * at the end of the step every in-flight probe makes one routing decision
//!   (Algorithm 3) using whatever information its current node holds at that round,
//!   and advances one hop.
//!
//! The network records one [`ConvergenceRecord`] per disturbance (the paper's `a_i`,
//! `b_i`, `c_i`) and one [`ProbeReport`] per probe (delivery, detours, the distance
//! `D(i)` at every fault occurrence) so the experiment harness can compare measured
//! behaviour against the bounds of Theorems 3–5.

use std::collections::BTreeMap;
use std::sync::Arc;

use lgfi_sim::{FaultEvent, FaultEventKind, FaultPlan, FaultPlanCursor, StepConfig};
use lgfi_topology::{Direction, Mesh, NodeId, Region};

use crate::block::{BlockId, BlockSet};
use crate::boundary::{BoundaryEntry, BoundaryMap};
use crate::bounds::{DetourBound, IntervalParams};
use crate::identification::IdentificationProcess;
use crate::labeling::LabelingEngine;
use crate::route_service::{RoutePublisher, RouteService};
use crate::routing::{
    CsrBoundary, Extent, NeighborSlot, Probe, ProbeEngine, ProbeOutcome, ProbeStatus, Router,
    RoutingDecision, TimedEntry, Window,
};
use crate::status::NodeStatus;
use crate::traffic_engine::CycleEnv;

/// Configuration of the dynamic network.
#[derive(Debug, Clone, Copy)]
pub struct NetworkConfig {
    /// Information rounds per step (the paper's λ).
    pub lambda: u64,
    /// Safety cap on the number of steps a probe may take before being declared
    /// exhausted.
    pub max_probe_steps: u64,
    /// Worker threads for the information rounds (`1` = serial, `0` = one per
    /// available core).  Parallelism is an execution detail: every run is
    /// bit-identical to the serial one.
    pub threads: usize,
    /// Active-frontier scheduling for the labeling rounds (on by default): after a
    /// disturbance only the nodes around the shrinking fault region are re-evaluated.
    /// Like `threads`, an execution detail — results are bit-identical either way.
    pub frontier: bool,
    /// Worker threads for the per-step probe routing decisions (`1` = serial, `0` =
    /// one per available core).  In-flight probes are independent within a step, so
    /// their decisions shard across threads with the launch-order report merge and
    /// every run stays bit-identical to the serial one.
    pub probe_threads: usize,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            lambda: 1,
            max_probe_steps: 100_000,
            threads: 1,
            frontier: true,
            probe_threads: 1,
        }
    }
}

/// Convergence measurements for one disturbance (one burst of fault/recovery events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvergenceRecord {
    /// The step at which the disturbance took effect.
    pub step: u64,
    /// Rounds for the block construction (labeling) to stabilise — the paper's `a_i`.
    pub a_rounds: u64,
    /// Rounds for the identification construction — the paper's `b_i` (maximum over
    /// the blocks that had to be re-identified; 0 if none).
    pub b_rounds: u64,
    /// Rounds for the boundary construction — the paper's `c_i` (maximum over the
    /// re-built boundaries; 0 if none).
    pub c_rounds: u64,
    /// Number of block extents that appeared or changed with this disturbance.
    pub blocks_changed: usize,
}

impl ConvergenceRecord {
    /// Total information rounds for this disturbance (`a_i + b_i + c_i`).
    pub fn total_rounds(&self) -> u64 {
        self.a_rounds + self.b_rounds + self.c_rounds
    }
}

/// Deterministic counters of the information plane.  They count work on the
/// code paths that do it and read no clock, so they are part of a run's
/// fingerprint: the same plan gives the same counters for every thread count and
/// scheduling knob.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InfoCounters {
    /// Block boundaries constructed: one per new or changed block extent.
    pub boundaries_constructed: u64,
    /// Boundary entries scheduled into the timed store.
    pub entries_scheduled: u64,
    /// Entries retired from the timed store once their deletion wave has passed.
    pub entries_retired: u64,
    /// Builds of the timed arena.  One follows a change of the wave set (a
    /// rebuild or a wave retirement) once a consumer reads the arena; a window
    /// opening or closing builds nothing.
    pub arena_builds: u64,
    /// Window openings and closings that took effect: due transitions of entries
    /// whose window is open at some round.
    pub transitions_published: u64,
}

/// One entry of a [`Wave`]: a node on one of the block's boundaries.
#[derive(Debug, Clone, Copy)]
struct WaveEntry {
    node: NodeId,
    guard: Direction,
    arrival_offset: u64,
}

/// The timed store's unit: the boundary information one rebuild distributed for
/// one new or changed block extent, with its visibility windows in absolute
/// rounds.  The store is keyed by extent, not by block id — every
/// [`BlockSet::extract`] renumbers ids, so an id goes stale at the next rebuild.
#[derive(Debug)]
struct Wave {
    /// Distribution order; scheduled transitions refer to their wave by it.
    serial: u64,
    /// The block's id in the set the wave was built from, carried unchanged into
    /// the materialised entries.
    block_id: BlockId,
    /// The block extent (the information itself, and the store's key).
    block: Region,
    /// An entry becomes visible `start + arrival_offset`.
    start: u64,
    /// The round the extent disappeared and the deletion wave started: an entry
    /// stops being visible `deleted_at + arrival_offset + 1`.
    deleted_at: Option<u64>,
    /// The largest arrival offset of the entries.
    max_offset: u64,
    /// Sorted by node; at one node in guard order (the order routing sees them).
    entries: Vec<WaveEntry>,
}

impl Wave {
    /// The visibility window of an entry with this arrival offset — the single
    /// definition of the window, shared by the observable
    /// [`LgfiNetwork::visible_info`] view, the timed arena and its debug-build
    /// oracle so they can never diverge.
    fn window(&self, arrival_offset: u64) -> Window {
        Window {
            from: self.start + arrival_offset,
            until: self.deleted_at.map_or(u64::MAX, |d| d + arrival_offset + 1),
        }
    }

    /// True if the entry is visible at the given absolute round.
    fn visible_at(&self, e: &WaveEntry, round: u64) -> bool {
        self.window(e.arrival_offset).contains(round)
    }

    /// True if the entry is visible at `round` or at some later round.
    fn live_at(&self, e: &WaveEntry, round: u64) -> bool {
        let window = self.window(e.arrival_offset);
        window.until > round.max(window.from)
    }

    /// The wave's entries at `node`.
    fn at(&self, node: NodeId) -> &[WaveEntry] {
        let lo = self.entries.partition_point(|e| e.node < node);
        let hi = lo + self.entries[lo..].partition_point(|e| e.node == node);
        &self.entries[lo..hi]
    }

    /// The boundary entry routing consumes.
    fn materialize(&self, e: &WaveEntry) -> BoundaryEntry {
        BoundaryEntry {
            block_id: self.block_id,
            // audit:allow(alloc): a Region stores its bounds inline for meshes of up to 8 dimensions
            block: self.block.clone(),
            guard: e.guard,
            arrival_offset: e.arrival_offset,
        }
    }

    /// The round from which none of the entries can be visible again and no
    /// transition of the wave is pending: the wave can leave the store.
    fn retired_at(&self) -> Option<u64> {
        self.deleted_at
            .map(|d| self.start.max(d + 1) + self.max_offset)
    }
}

/// A scheduled visibility transition: an entry of wave `wave` opens or closes its
/// window at the round it is keyed under.
#[derive(Debug, Clone, Copy)]
struct Transition {
    wave: u64,
    arrival_offset: u64,
}

/// The timed CSR arena: node `i`'s stored entries are `data[off[i]..off[i + 1]]`,
/// each with its visibility window, and their blocks are `extents[entry.extent]`.
/// Readers filter by round ([`VisibleArena::view`]), so a window opening or
/// closing leaves the arena untouched: it is built only when the wave set
/// changes.  The live network and its published epoch snapshots share one arena
/// behind an `Arc`; a build writes into the spare of a double buffer.
#[derive(Debug, Clone, Default)]
pub(crate) struct VisibleArena {
    data: Vec<TimedEntry>,
    off: Vec<usize>,
    extents: Vec<Extent>,
}

impl VisibleArena {
    /// An arena with no entry at any of `nodes` nodes.
    fn empty(nodes: usize) -> Self {
        VisibleArena {
            data: Vec::new(),
            off: vec![0; nodes + 1],
            extents: Vec::new(),
        }
    }

    /// The entries of a stabilised boundary map, every one always visible.  The
    /// map comes from one block set, so a block id names one extent.
    pub(crate) fn always_visible(mesh: &Mesh, map: &BoundaryMap) -> Self {
        let mut arena = VisibleArena::empty(0);
        let mut extent_of: Vec<Option<u32>> = Vec::new();
        for node in 0..mesh.node_count() {
            for e in map.entries(node) {
                if extent_of.len() <= e.block_id {
                    extent_of.resize(e.block_id + 1, None);
                }
                let extent = *extent_of[e.block_id].get_or_insert_with(|| {
                    arena.extents.push(Extent {
                        block_id: e.block_id,
                        block: e.block.clone(),
                    });
                    arena.extents.len() as u32 - 1
                });
                arena.data.push(TimedEntry {
                    extent,
                    guard: e.guard,
                    arrival_offset: e.arrival_offset,
                    window: Window::ALWAYS,
                });
            }
            arena.off.push(arena.data.len());
        }
        arena
    }

    /// The arena read at `round`.
    pub(crate) fn view(&self, round: u64) -> CsrBoundary<'_> {
        CsrBoundary::new(&self.data, &self.off, &self.extents, round)
    }

    /// Entries visible at `round` across all nodes.
    pub(crate) fn visible_entries(&self, round: u64) -> usize {
        self.data
            .iter()
            .filter(|e| e.window.contains(round))
            .count()
    }

    /// Approximate heap footprint in bytes (capacities × element sizes).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<TimedEntry>()
            + self.off.capacity() * std::mem::size_of::<usize>()
            + self.extents.capacity() * std::mem::size_of::<Extent>()
    }

    /// Rebuilds `self` from the timed store by a counting sort over `nodes`
    /// nodes: at one node the entries keep wave order, then guard order (the
    /// order routing sees them).  An arena is read only at rounds from its
    /// build on, so the entries no longer live at `round` are left out.  Costs
    /// O(nodes + stored entries) and reuses the buffers, so a warm build
    /// allocates nothing.
    fn build(&mut self, waves: &[Wave], nodes: usize, round: u64) {
        self.off.clear();
        self.off.resize(nodes + 1, 0);
        for wave in waves {
            for e in wave.entries.iter().filter(|e| wave.live_at(e, round)) {
                self.off[e.node + 1] += 1;
            }
        }
        for i in 1..=nodes {
            self.off[i] += self.off[i - 1];
        }
        // `off[i]` is node i's start: use it as the node's write cursor, which
        // leaves it at node i + 1's start, then shift the table back.
        let unset = TimedEntry {
            extent: 0,
            guard: Direction::pos(0),
            arrival_offset: 0,
            window: Window::ALWAYS,
        };
        self.data.clear();
        self.data.resize(self.off[nodes], unset);
        self.extents.clear();
        for (extent, wave) in waves.iter().enumerate() {
            self.extents.push(Extent {
                block_id: wave.block_id,
                // audit:allow(alloc): one Region per extent, stored inline for meshes of up to 8 dimensions
                block: wave.block.clone(),
            });
            for e in wave.entries.iter().filter(|e| wave.live_at(e, round)) {
                let at = &mut self.off[e.node];
                self.data[*at] = TimedEntry {
                    extent: extent as u32,
                    guard: e.guard,
                    arrival_offset: e.arrival_offset,
                    window: wave.window(e.arrival_offset),
                };
                *at += 1;
            }
        }
        self.off.copy_within(0..nodes, 1);
        self.off[0] = 0;
    }
}

/// One launched probe and its bookkeeping.
struct ProbeState {
    probe: Probe,
    router: Box<dyn Router>,
    launched_at: u64,
    /// Distance to the destination recorded at every fault-occurrence step (the
    /// paper's `D(i)` series), keyed by the occurrence step.
    distance_at_fault: BTreeMap<u64, u32>,
    /// Per-probe direction-indexed neighbor scratch, refilled at every decision so a
    /// warm probe never allocates per hop (and parallel probe workers never share
    /// scratch).
    slots: Vec<NeighborSlot>,
}

/// Final report for one probe routed through the dynamic network.
#[derive(Debug, Clone)]
pub struct ProbeReport {
    /// The source node.
    pub source: NodeId,
    /// The destination node.
    pub dest: NodeId,
    /// Step at which the probe was launched.
    pub launched_at: u64,
    /// Step at which the probe finished (delivered, unreachable or exhausted).
    pub finished_at: u64,
    /// The routing outcome (steps, backtracks, detours, ...).
    pub outcome: ProbeOutcome,
    /// The distance to the destination at every fault occurrence while the probe was
    /// in flight (`D(i)`), keyed by the occurrence step.
    pub distance_at_fault: BTreeMap<u64, u32>,
    /// Name of the router that drove the probe.
    pub router: &'static str,
}

/// The dynamic LGFI network.
pub struct LgfiNetwork {
    mesh: Mesh,
    config: NetworkConfig,
    plan: FaultPlan,
    /// Forward scanner over `plan`, so the per-step event lookup is O(events at this
    /// step) instead of a full-plan scan-and-collect.
    plan_cursor: FaultPlanCursor,
    labeling: LabelingEngine,
    step: u64,
    round: u64,
    /// True if the labeling has pending changes that have not yet been followed by a
    /// rebuild of blocks/identification/boundaries.
    dirty: bool,
    /// Rounds spent converging since the last disturbance (for the `a_i` record).
    rounds_since_disturbance: u64,
    /// The step at which the current disturbance started.
    disturbance_step: u64,
    /// Stabilised blocks (as of the last rebuild), shared with the published
    /// epoch snapshots.
    blocks: Arc<BlockSet>,
    /// The timed store: one wave per distributed extent, in distribution order
    /// (so also in `serial` order).  An extent with an undeleted wave is
    /// distributed and is not re-propagated while it stays unchanged (the paper's
    /// reactive rule).
    waves: Vec<Wave>,
    /// The serial the next wave gets.
    next_wave: u64,
    /// Round-keyed visibility transitions: every window opening or closing of a
    /// stored entry, keyed by the round it happens at.
    schedule: BTreeMap<u64, Vec<Transition>>,
    /// The round of the last rebuild.  An entry whose window closed by then has
    /// left the transition set: a window that would open later without ever
    /// having been visible no longer counts as a change.
    pruned_through: u64,
    counters: InfoCounters,
    convergence: Vec<ConvergenceRecord>,
    probes: Vec<ProbeState>,
    reports: Vec<ProbeReport>,
    /// The timed store flattened per node, with every entry's visibility window.
    /// Routing decisions borrow its slices and filter them by round, instead of
    /// searching the timed store per hop; it is rebuilt only when the wave set
    /// changes, not when a window opens or closes.  Shared with the latest
    /// published epoch snapshot.
    vis: Arc<VisibleArena>,
    /// The other half of the arena's double buffer: the next build writes into
    /// it once no snapshot shares it any more.
    vis_spare: Arc<VisibleArena>,
    /// True when the wave set changed (a rebuild or a wave retirement) since the
    /// arena was last built.  A retired wave is never visible again, so a stale
    /// arena still reads right; it is rebuilt at the next refresh.
    arena_stale: bool,
    /// False when a rebuild ran, or a window opened or closed, since the last
    /// refresh.
    vis_valid: bool,
    /// Generation counter of the visible information, bumped on every refresh
    /// that follows a rebuild or a window opening or closing.  This is the single
    /// dirty signal the epoch publisher keys off: a step whose refresh leaves the
    /// generation unchanged (and applied no fault events) publishes nothing.
    vis_gen: u64,
    /// True while fault/recovery events applied at the current step have not yet
    /// been folded into the query plane's info-change count.
    events_pending: bool,
    /// Number of information transitions observed by the attached query plane
    /// (fault/recovery events taking effect, arena rebuilds, visibility-window
    /// openings/closings).  Only advances while a route service is attached — it
    /// is the epoch clock: the service's current epoch always equals this count.
    info_changes: u64,
    /// The epoch publisher of the attached route service, if any.
    publisher: Option<RoutePublisher>,
    /// Resolved probe-decision worker count (>= 1).
    probe_threads: usize,
    /// Recycled buffers of finished probes (path + used-direction store + neighbor
    /// slots), reused by subsequent launches: steady-state probe turnover stops
    /// paying a fresh allocation per probe, and the network's high-water memory
    /// is bounded by the maximum number of *concurrent* probes rather than the
    /// total launched.
    spare_probes: Vec<(Probe, Vec<NeighborSlot>)>,
    /// Persistent worker pool for the sharded per-step probe decisions (spawned
    /// lazily on the first parallel decision sweep, parked between steps).
    probe_pool: lgfi_sim::PoolHandle,
}

impl LgfiNetwork {
    /// Creates a network over `mesh` with a fault plan and configuration.  No events
    /// are applied until [`LgfiNetwork::run_step`] is called.
    pub fn new(mesh: Mesh, plan: FaultPlan, config: NetworkConfig) -> Self {
        let labeling = LabelingEngine::new(mesh.clone())
            .with_threads(config.threads)
            .with_frontier(config.frontier);
        let blocks = Arc::new(BlockSet::extract(&mesh, labeling.statuses()));
        LgfiNetwork {
            waves: Vec::new(),
            next_wave: 0,
            schedule: BTreeMap::new(),
            pruned_through: 0,
            arena_stale: false,
            counters: InfoCounters::default(),
            vis: Arc::new(VisibleArena::empty(mesh.node_count())),
            vis_spare: Arc::default(),
            labeling,
            blocks,
            mesh,
            config,
            plan,
            plan_cursor: FaultPlanCursor::new(),
            step: 0,
            round: 0,
            dirty: false,
            rounds_since_disturbance: 0,
            disturbance_step: 0,
            convergence: Vec::new(),
            probes: Vec::new(),
            reports: Vec::new(),
            vis_valid: false,
            vis_gen: 0,
            events_pending: false,
            info_changes: 0,
            publisher: None,
            probe_threads: lgfi_sim::resolve_threads(config.probe_threads),
            spare_probes: Vec::new(),
            probe_pool: lgfi_sim::PoolHandle::new(),
        }
    }

    /// The mesh.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The current step number.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// The absolute information round.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The step configuration as a [`StepConfig`].
    pub fn step_config(&self) -> StepConfig {
        StepConfig::with_lambda(self.config.lambda)
    }

    /// The resolved worker-thread count the information rounds execute with (>= 1).
    pub fn threads(&self) -> usize {
        self.labeling.threads()
    }

    /// True if the labeling rounds run with active-frontier scheduling.
    pub fn frontier_active(&self) -> bool {
        self.labeling.frontier_active()
    }

    /// The resolved worker-thread count the probe routing decisions execute with
    /// (>= 1).
    pub fn probe_threads(&self) -> usize {
        self.probe_threads
    }

    /// Current node statuses.
    pub fn statuses(&self) -> &[NodeStatus] {
        self.labeling.statuses()
    }

    /// The blocks as of the last rebuild.
    pub fn blocks(&self) -> &BlockSet {
        &self.blocks
    }

    /// The fault plan driving the network.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Convergence records collected so far (one per disturbance).
    pub fn convergence_records(&self) -> &[ConvergenceRecord] {
        &self.convergence
    }

    /// Finished probe reports.
    pub fn reports(&self) -> &[ProbeReport] {
        &self.reports
    }

    /// Number of probes still in flight.
    pub fn probes_in_flight(&self) -> usize {
        self.probes.len()
    }

    /// The boundary/block information visible at a node *right now*.
    pub fn visible_info(&self, id: NodeId) -> Vec<BoundaryEntry> {
        self.waves
            .iter()
            .flat_map(|w| {
                w.at(id)
                    .iter()
                    .filter(|e| w.visible_at(e, self.round))
                    .map(|e| w.materialize(e))
            })
            .collect()
    }

    /// Number of nodes currently holding at least one visible entry.
    pub fn nodes_with_visible_info(&self) -> usize {
        (0..self.mesh.node_count())
            .filter(|&id| !self.visible_info(id).is_empty())
            .count()
    }

    /// The information plane's deterministic work counters so far.
    pub fn info_counters(&self) -> InfoCounters {
        self.counters
    }

    /// Launches a probe from `source` to `dest` driven by `router`.  The probe makes
    /// its first move at the end of the *next* executed step.
    pub fn launch_probe(&mut self, source: NodeId, dest: NodeId, router: Box<dyn Router>) {
        let (probe, slots) = match self.spare_probes.pop() {
            Some((mut probe, slots)) => {
                probe.reset(&self.mesh, source, dest);
                (probe, slots)
            }
            None => (Probe::new(&self.mesh, source, dest), Vec::new()),
        };
        self.probes.push(ProbeState {
            probe,
            router,
            launched_at: self.step,
            distance_at_fault: BTreeMap::new(),
            slots,
        });
    }

    /// Executes one full step of the Figure-7 model.
    pub fn run_step(&mut self) {
        self.run_step_with(&[]);
    }

    /// [`LgfiNetwork::run_step`] with additional `external` fault events taking
    /// effect at this step, on top of those the fault plan schedules — the
    /// probe-mode twin of [`LgfiNetwork::run_traffic_step_with`], used by
    /// incremental fault sources (e.g. a churn process driving the control plane of
    /// a route service).  External events must carry the current step number
    /// ([`LgfiNetwork::step`]).
    pub fn run_step_with(&mut self, external: &[FaultEvent]) {
        self.begin_step_with(external);
        self.sync_query_plane();

        // --- Phases 3-5: reception, routing decision, sending. -----------------------
        // Every in-flight probe makes one independent decision against the shared
        // (frozen) step state, so the decisions shard across probe workers; the
        // finished scan below runs serially in launch order either way, keeping
        // parallel execution bit-identical to serial.
        if !self.probes.is_empty() {
            self.refresh_visible_arena();
            let env = step_env(&self.labeling, &self.blocks, &self.vis, self.round);
            let mesh = &self.mesh;
            let max_probe_steps = self.config.max_probe_steps;
            let probes = &mut self.probes;
            let workers = self.probe_threads.min(probes.len());
            if workers > 1 {
                // Each pool chunk is a contiguous launch-order run of probes; the
                // chunk count tracks the in-flight population while the pool keeps
                // its `probe_threads` width (no re-spawn as probes come and go).
                self.probe_pool.get(self.probe_threads).run_chunked(
                    probes.as_mut_slice(),
                    workers,
                    |_, chunk| {
                        for state in chunk {
                            advance_probe(mesh, &env, max_probe_steps, state);
                        }
                    },
                );
            } else {
                for state in probes.iter_mut() {
                    advance_probe(mesh, &env, max_probe_steps, state);
                }
            }
        }
        // Collect finished probes into reports in launch order (removals walk the
        // indices in reverse so earlier reports keep their positions).
        let finished: Vec<usize> = self
            .probes
            .iter()
            .enumerate()
            .filter(|(_, state)| state.probe.status != ProbeStatus::InFlight)
            .map(|(idx, _)| idx)
            .collect();
        for idx in finished.into_iter().rev() {
            let state = self.probes.remove(idx);
            self.reports.push(ProbeReport {
                source: state.probe.source,
                dest: state.probe.dest,
                launched_at: state.launched_at,
                finished_at: self.step,
                outcome: state.probe.outcome(),
                distance_at_fault: state.distance_at_fault,
                router: state.router.name(),
            });
            self.spare_probes.push((state.probe, state.slots));
        }

        self.step += 1;
    }

    /// Phases 1–2 of the Figure-7 step, shared by [`LgfiNetwork::run_step`] and
    /// [`LgfiNetwork::run_traffic_step`]: fault detection (events scheduled for this
    /// step take effect, plus the caller's `external` events) and the λ information
    /// rounds.  Incremental fault sources (e.g. a churn process emitting events
    /// step by step) feed the network through this path without ever materialising
    /// a full plan.  External events must carry the current step number and satisfy
    /// the [`FaultPlan::validate`] rules against the network's live fault state.
    fn begin_step_with(&mut self, external: &[FaultEvent]) {
        // --- Phase 1: fault detection (events scheduled for this step take effect). --
        // The cursor returns the plan's events for this step as a contiguous slice —
        // no per-step allocation, no full-plan scan.
        let events = self.plan_cursor.events_at(&self.plan, self.step);
        let mut any_event = false;
        let mut fault_occurred = false;
        for e in events.iter().chain(external) {
            debug_assert_eq!(e.step, self.step, "event applied at the wrong step");
            any_event = true;
            match e.kind {
                FaultEventKind::Fail => {
                    fault_occurred = true;
                    self.labeling.inject_fault(e.node);
                }
                FaultEventKind::Recover => self.labeling.recover(e.node),
            }
        }
        if any_event {
            if !self.dirty {
                self.disturbance_step = self.step;
                self.rounds_since_disturbance = 0;
            }
            self.dirty = true;
        }
        self.events_pending = any_event;
        if fault_occurred {
            // Record D(i) for every in-flight probe at this fault occurrence.
            for p in &mut self.probes {
                let d = p.probe.distance();
                p.distance_at_fault.insert(self.step, d);
            }
        }

        // --- Phase 2: λ information rounds. ------------------------------------------
        for _ in 0..self.config.lambda {
            self.round += 1;
            if self.dirty {
                let changes = self.labeling.run_round();
                self.rounds_since_disturbance += 1;
                if changes == 0 {
                    // The labeling has stabilised: rebuild blocks, identification and
                    // boundaries, and schedule the visibility of the new information.
                    self.rebuild_information();
                    self.dirty = false;
                }
            }
        }
        // The schedule follows the round clock whether or not anything consumes
        // the arena this step, so expired waves leave the store on time.
        self.collect_due();
    }

    /// Executes one Figure-7 step whose routing phase drives the concurrent-traffic
    /// engine for one cycle instead of the independent probes: the fault events and
    /// λ information rounds run exactly as in [`LgfiNetwork::run_step`], and every
    /// in-flight packet of `traffic` then makes one contention-arbitrated hop
    /// against the boundary information visible at its node *this* round.
    ///
    /// One network step is one traffic cycle, so packet latency is measured in the
    /// same unit a probe's steps are.
    pub fn run_traffic_step(&mut self, traffic: &mut crate::traffic_engine::TrafficEngine) {
        self.run_traffic_step_with(&[], traffic);
    }

    /// [`LgfiNetwork::run_traffic_step`] with additional fault events taking effect
    /// at this step, on top of those the fault plan schedules.  This is the entry
    /// point of incremental fault sources (a `ChurnProcess` emitting millions of
    /// events one step at a time): the caller owns the event stream and the network
    /// never materialises it as a plan.  `external` events must carry the current
    /// step number ([`LgfiNetwork::step`]).
    pub fn run_traffic_step_with(
        &mut self,
        external: &[FaultEvent],
        traffic: &mut crate::traffic_engine::TrafficEngine,
    ) {
        self.begin_step_with(external);
        self.sync_query_plane();
        self.refresh_visible_arena();
        traffic.run_cycle(&step_env(
            &self.labeling,
            &self.blocks,
            &self.vis,
            self.round,
        ));
        self.step += 1;
    }

    /// Brings the visible information up to the current round: if the wave set
    /// changed since the last build, the timed arena is rebuilt into the spare
    /// half of the double buffer, and the generation is bumped if a rebuild ran
    /// or a window opened or closed.  A window opening or closing alone costs one
    /// increment, since readers filter by round.  Steady state (no disturbance,
    /// no pending transition) costs one branch.
    fn refresh_visible_arena(&mut self) {
        if self.vis_valid {
            return;
        }
        if self.arena_stale {
            self.counters.arena_builds += 1;
            if let Some(publisher) = &mut self.publisher {
                publisher.release_retired();
            }
            if Arc::get_mut(&mut self.vis_spare).is_none() {
                // A reader still holds the snapshot sharing the spare: leave it
                // to them and start a fresh buffer.
                // audit:allow(alloc): cold path, taken only while a reader pins an old epoch
                self.vis_spare = Arc::default();
            }
            Arc::make_mut(&mut self.vis_spare).build(
                &self.waves,
                self.mesh.node_count(),
                self.round,
            );
            std::mem::swap(&mut self.vis, &mut self.vis_spare);
            self.arena_stale = false;
            #[cfg(debug_assertions)]
            self.check_visible_arena();
        }
        self.vis_valid = true;
        self.vis_gen += 1;
    }

    /// Moves the transitions due by the current round off the schedule: one of
    /// an entry still in the transition set invalidates the visible information.
    /// Then retires the waves that can never be visible again.  Runs at the end
    /// of every step and before every rebuild; a round with nothing due costs one
    /// lookup.
    fn collect_due(&mut self) {
        let mut popped = false;
        while let Some(due) = self.schedule.first_entry() {
            if *due.key() > self.round {
                break;
            }
            popped = true;
            for t in due.remove() {
                let Ok(at) = self.waves.binary_search_by_key(&t.wave, |w| w.serial) else {
                    continue;
                };
                let window = self.waves[at].window(t.arrival_offset);
                if window.until > self.pruned_through {
                    self.vis_valid = false;
                    if !window.is_empty() {
                        self.counters.transitions_published += 1;
                    }
                }
            }
        }
        // A wave retires at the round of its last scheduled transition.
        if !popped {
            return;
        }
        let (round, stored) = (self.round, self.waves.len());
        let mut retired = 0u64;
        self.waves.retain(|w| {
            let live = w.retired_at().map_or(true, |r| r > round);
            if !live {
                retired += w.entries.len() as u64;
            }
            live
        });
        self.counters.entries_retired += retired;
        self.arena_stale |= self.waves.len() < stored;
    }

    /// Debug-build oracle of the arena build: walks the timed store and the arena
    /// side by side.  Every stored entry still live at the build's round must
    /// sit in its node's arena slice at exactly its store position (after the
    /// live entries of earlier waves at that node), carrying its wave's extent
    /// and window, and the arena must hold nothing else.  The walk costs the store's entries, not the mesh, and
    /// allocates nothing, so the zero-allocation suites hold in debug builds too.
    #[cfg(debug_assertions)]
    fn check_visible_arena(&self) {
        let (arena, round) = (&self.vis, self.round);
        let live_at =
            |w: &Wave, node: NodeId| w.at(node).iter().filter(|e| w.live_at(e, round)).count();
        assert_eq!(arena.off.len(), self.mesh.node_count() + 1);
        assert_eq!(arena.extents.len(), self.waves.len());
        let mut total = 0;
        for (i, wave) in self.waves.iter().enumerate() {
            let extent = &arena.extents[i];
            assert!(
                extent.block_id == wave.block_id && extent.block == wave.block,
                "arena extent {i} diverged from its wave"
            );
            // (node, arena position of the wave's next entry there)
            let mut slot = (usize::MAX, 0);
            for e in wave.entries.iter().filter(|e| wave.live_at(e, round)) {
                if slot.0 != e.node {
                    let earlier: usize = self.waves[..i].iter().map(|w| live_at(w, e.node)).sum();
                    slot = (e.node, arena.off[e.node] + earlier);
                }
                let expected = TimedEntry {
                    extent: i as u32,
                    guard: e.guard,
                    arrival_offset: e.arrival_offset,
                    window: wave.window(e.arrival_offset),
                };
                assert!(
                    arena.data[..arena.off[e.node + 1]].get(slot.1) == Some(&expected),
                    "timed arena diverged from the timed store at node {}",
                    e.node
                );
                slot.1 += 1;
                total += 1;
            }
        }
        assert_eq!(total, arena.data.len(), "timed arena holds stale entries");
    }

    /// Publishes a new [`EpochSnapshot`](crate::route_service::EpochSnapshot) to the
    /// attached route service if (and only if) the information observable by the
    /// query plane changed this step: fault/recovery events took effect, or the
    /// visible-boundary arena actually rebuilt (information change or a visibility
    /// window opening/closing).  Quiescent steps publish nothing — the publish seam
    /// and the arena's dirty tracking are the same signal (`vis_gen`), so the
    /// service's epoch number always equals [`LgfiNetwork::info_changes`].
    fn sync_query_plane(&mut self) {
        if self.publisher.is_none() {
            return;
        }
        self.refresh_visible_arena();
        if let Some(publisher) = &mut self.publisher {
            if self.vis_gen != publisher.published_gen() || self.events_pending {
                self.info_changes += 1;
                publisher.publish(
                    &self.mesh,
                    self.step,
                    self.round,
                    self.labeling.statuses(),
                    &self.blocks,
                    &self.vis,
                );
                publisher.set_published_gen(self.vis_gen);
            }
        }
        self.events_pending = false;
    }

    /// Attaches the epoch-snapshot route-query plane (see
    /// [`crate::route_service`]) and returns a cloneable service handle.  The
    /// initial snapshot (epoch 0) is taken immediately from the current state;
    /// from then on every step whose information changed publishes one new epoch.
    /// Calling this again returns another handle to the same service.
    pub fn route_service(&mut self) -> RouteService {
        if let Some(publisher) = &self.publisher {
            return publisher.handle();
        }
        self.refresh_visible_arena();
        self.events_pending = false;
        let mut publisher = RoutePublisher::attach(
            &self.mesh,
            self.step,
            self.round,
            self.labeling.statuses(),
            &self.blocks,
            &self.vis,
        );
        publisher.set_published_gen(self.vis_gen);
        let handle = publisher.handle();
        self.publisher = Some(publisher);
        handle
    }

    /// Number of information transitions observed by the attached query plane so
    /// far (the publish seam's contract: this always equals the service's current
    /// epoch number).  0 until a service is attached.
    pub fn info_changes(&self) -> u64 {
        self.info_changes
    }

    /// Resolves one source→dest route against the live network *frozen at the
    /// current round*: the same statuses, blocks and visible-boundary arena a
    /// snapshot published right now would copy, driven through the same
    /// [`ProbeEngine::route_view`] hop loop.  The bit-equality of this and a
    /// snapshot-resolved route at the same epoch is the query plane's correctness
    /// contract (`tests/route_service_equivalence.rs`).
    pub fn resolve_live(
        &mut self,
        router: &dyn Router,
        source: NodeId,
        dest: NodeId,
        max_steps: u64,
        engine: &mut ProbeEngine,
    ) -> ProbeOutcome {
        self.refresh_visible_arena();
        engine.route_view(
            &self.mesh,
            self.labeling.statuses(),
            self.blocks.blocks(),
            self.vis.view(self.round),
            router,
            source,
            dest,
            max_steps,
        )
    }

    /// Runs steps until all probes have finished and all scheduled fault events have
    /// been applied and stabilised, or `max_steps` have been executed.  Returns the
    /// number of steps executed.
    pub fn run_to_completion(&mut self, max_steps: u64) -> u64 {
        let mut executed = 0u64;
        while executed < max_steps {
            let plan_done = self.plan.last_step().map(|s| self.step > s).unwrap_or(true);
            if self.probes.is_empty() && plan_done && !self.dirty {
                break;
            }
            self.run_step();
            executed += 1;
        }
        executed
    }

    /// Rebuilds blocks, identification outcomes and boundary maps after the labeling
    /// has stabilised, scheduling the visibility of every piece of information.
    /// Only blocks whose extent is new or changed get a boundary; the work
    /// follows their entries, not the mesh.
    fn rebuild_information(&mut self) {
        let new_blocks = BlockSet::extract(&self.mesh, self.labeling.statuses());
        // Transitions due by now are collected before the prune horizon moves.
        self.collect_due();
        self.pruned_through = self.round;

        // Information for extents that no longer exist is deleted; the deletion
        // wave travels the same path as the original distribution, so an entry
        // disappears `arrival_offset` rounds after the deletion starts (now).
        for wave in &mut self.waves {
            if wave.deleted_at.is_some()
                || new_blocks.blocks().iter().any(|b| b.region == wave.block)
            {
                continue;
            }
            wave.deleted_at = Some(self.round);
            self.arena_stale = true;
            for e in &wave.entries {
                schedule(&mut self.schedule, self.round + 1, wave.serial, e);
            }
        }

        // Identification + boundary construction for extents that are new or
        // changed (no undeleted wave carries them).
        let changed: Vec<BlockId> = new_blocks
            .blocks()
            .iter()
            .filter(|b| {
                !self
                    .waves
                    .iter()
                    .any(|w| w.deleted_at.is_none() && w.block == b.region)
            })
            .map(|b| b.id)
            .collect();
        let mut b_rounds = 0u64;
        let mut c_rounds = 0u64;
        if !changed.is_empty() {
            self.arena_stale = true;
            let ident = IdentificationProcess::default();
            let built = BoundaryMap::construct_for(&self.mesh, &new_blocks, &changed);
            #[cfg(debug_assertions)]
            check_construct_for(&self.mesh, &new_blocks, &changed, &built);
            self.counters.boundaries_constructed += changed.len() as u64;
            for &block_id in &changed {
                let region = &new_blocks.blocks()[block_id].region;
                let outcome =
                    ident.run_from_default_corner(&self.mesh, region, self.labeling.statuses());
                let b = outcome
                    .as_ref()
                    .filter(|o| o.stable)
                    .map(|o| o.completed_round)
                    .unwrap_or(0);
                b_rounds = b_rounds.max(b);
                // Schedule the boundary entries of this block: visible b + offset
                // rounds after now.
                let entries: Vec<WaveEntry> = built
                    .iter()
                    .filter(|(_, e)| e.block_id == block_id)
                    .map(|(node, e)| WaveEntry {
                        node: *node,
                        guard: e.guard,
                        arrival_offset: e.arrival_offset,
                    })
                    .collect();
                let wave = Wave {
                    serial: self.next_wave,
                    block_id,
                    block: region.clone(),
                    start: self.round + b,
                    deleted_at: None,
                    max_offset: entries.iter().map(|e| e.arrival_offset).max().unwrap_or(0),
                    entries,
                };
                self.next_wave += 1;
                c_rounds = c_rounds.max(wave.max_offset);
                for e in &wave.entries {
                    schedule(&mut self.schedule, wave.start, wave.serial, e);
                }
                self.counters.entries_scheduled += wave.entries.len() as u64;
                self.waves.push(wave);
            }
        }

        self.convergence.push(ConvergenceRecord {
            step: self.disturbance_step,
            a_rounds: self.rounds_since_disturbance,
            b_rounds,
            c_rounds,
            blocks_changed: changed.len(),
        });
        self.blocks = Arc::new(new_blocks);
        self.vis_valid = false;
    }

    /// Builds the [`DetourBound`] of Theorems 3–5 for a probe launched at `start_step`
    /// from the network's fault plan and convergence records: intervals are taken from
    /// the fault occurrence times after the routing start, `a_i` from the matching
    /// convergence records (converted to steps with λ), and `e_max` from the largest
    /// block seen.
    pub fn detour_bound_for(&self, start_step: u64) -> DetourBound {
        let cfg = self.step_config();
        let t_p = self
            .plan
            .occurrence_times_iter()
            .filter(|&t| t <= start_step)
            .max()
            .unwrap_or(0);
        let a_steps_at = |step: u64| {
            let a_rounds = self
                .convergence
                .iter()
                .find(|c| c.step == step)
                .map(|c| c.a_rounds)
                .unwrap_or(0);
            cfg.steps_for_rounds(a_rounds)
        };
        // Walk the occurrence times >= t_p pairwise without collecting them.
        let mut intervals = Vec::new();
        let mut prev: Option<u64> = None;
        for t in self.plan.occurrence_times_iter().filter(|&t| t >= t_p) {
            if let Some(p) = prev {
                intervals.push(IntervalParams {
                    d: t - p,
                    a_steps: a_steps_at(p),
                });
            }
            prev = Some(t);
        }
        // The last interval extends to "after the last fault": treat it as long enough
        // for any remaining distance (diameter of the mesh).
        if let Some(last) = prev {
            intervals.push(IntervalParams {
                d: u64::from(self.mesh.diameter()) * 4,
                a_steps: a_steps_at(last),
            });
        }
        let e_max = self.blocks.e_max() as u64;
        DetourBound {
            start_step,
            t_p,
            intervals,
            e_max,
        }
    }
}

/// Schedules the window transition of entry `e` of wave `wave` whose wave-wide
/// round is `base` (the entry's own round is `base + arrival_offset`).
fn schedule(schedule: &mut BTreeMap<u64, Vec<Transition>>, base: u64, wave: u64, e: &WaveEntry) {
    schedule
        .entry(base + e.arrival_offset)
        .or_default()
        .push(Transition {
            wave,
            arrival_offset: e.arrival_offset,
        });
}

/// Debug-build oracle of [`BoundaryMap::construct_for`]: its entries must be
/// exactly the `ids` blocks' entries of a full [`BoundaryMap::construct`], node by
/// node and in the same order.
#[cfg(debug_assertions)]
fn check_construct_for(
    mesh: &Mesh,
    blocks: &BlockSet,
    ids: &[BlockId],
    built: &[(NodeId, BoundaryEntry)],
) {
    let full = BoundaryMap::construct(mesh, blocks);
    let mut built = built.iter();
    for node in 0..mesh.node_count() {
        for entry in full
            .entries(node)
            .iter()
            .filter(|e| ids.contains(&e.block_id))
        {
            assert_eq!(
                built.next(),
                Some(&(node, entry.clone())),
                "construct_for diverged from construct at node {node}"
            );
        }
    }
    assert!(built.next().is_none(), "construct_for built extra entries");
}

/// The frozen environment a step's routing phase reads: the statuses, the blocks
/// and the timed arena at the current round.
fn step_env<'a>(
    labeling: &'a LabelingEngine,
    blocks: &'a BlockSet,
    vis: &'a VisibleArena,
    round: u64,
) -> CycleEnv<'a> {
    CycleEnv {
        statuses: labeling.statuses(),
        blocks: blocks.blocks(),
        boundary: vis.view(round),
    }
}

/// Advances one in-flight probe by a single step-model decision against the frozen
/// step state: the forced backtrack off a freshly faulty node, the unreachable check
/// for a faulty destination, and otherwise one Algorithm-3 decision over the visible
/// boundary information.  Pure function of the shared step state and the probe's own
/// mutable state, so probe workers can run it concurrently with bit-identical
/// results.
fn advance_probe(mesh: &Mesh, env: &CycleEnv<'_>, max_probe_steps: u64, state: &mut ProbeState) {
    if state.probe.status != ProbeStatus::InFlight {
        return;
    }
    if state.probe.steps >= max_probe_steps {
        state.probe.status = ProbeStatus::Exhausted;
        return;
    }
    let current = state.probe.current;
    // A probe sitting on a node that just became faulty is forced back onto the
    // previous node of its reserved path.
    if env.statuses[current] == NodeStatus::Faulty {
        state.probe.apply(mesh, RoutingDecision::Backtrack);
        return;
    }
    if env.statuses[state.probe.dest] == NodeStatus::Faulty {
        state.probe.status = ProbeStatus::Unreachable;
        return;
    }
    let ctx = state.probe.route_ctx(
        mesh,
        env.statuses,
        env.boundary.at(current),
        env.blocks,
        &mut state.slots,
    );
    let decision = state.router.decide(&ctx);
    state.probe.apply(mesh, decision);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::LgfiRouter;
    use lgfi_sim::FaultEvent;
    use lgfi_topology::coord;

    fn mesh10() -> Mesh {
        Mesh::cubic(10, 2)
    }

    #[test]
    fn static_plan_routes_like_the_static_engine() {
        let mesh = mesh10();
        let plan = FaultPlan::static_faults(&[
            mesh.id_of(&coord![4, 4]),
            mesh.id_of(&coord![5, 5]),
            mesh.id_of(&coord![4, 5]),
            mesh.id_of(&coord![5, 4]),
        ]);
        let mut net = LgfiNetwork::new(mesh.clone(), plan, NetworkConfig::default());
        // Let the information stabilise before launching the probe.
        for _ in 0..60 {
            net.run_step();
        }
        assert_eq!(net.blocks().len(), 1);
        assert!(net.nodes_with_visible_info() > 0);
        net.launch_probe(
            mesh.id_of(&coord![0, 0]),
            mesh.id_of(&coord![9, 9]),
            Box::new(LgfiRouter::new()),
        );
        net.run_to_completion(1_000);
        assert_eq!(net.reports().len(), 1);
        let report = &net.reports()[0];
        assert!(report.outcome.delivered());
        assert_eq!(report.router, "lgfi");
        // The block does intersect the bounding box, but a detour of at most the block
        // perimeter suffices.
        assert!(report.outcome.detours().unwrap() <= 8);
    }

    #[test]
    fn convergence_records_track_each_disturbance() {
        let mesh = mesh10();
        let plan = FaultPlan::new(vec![
            FaultEvent::fail(0, mesh.id_of(&coord![3, 3])),
            FaultEvent::fail(0, mesh.id_of(&coord![4, 4])),
            FaultEvent::fail(0, mesh.id_of(&coord![3, 4])),
            FaultEvent::fail(40, mesh.id_of(&coord![7, 7])),
            FaultEvent::fail(40, mesh.id_of(&coord![8, 8])),
            FaultEvent::fail(40, mesh.id_of(&coord![7, 8])),
        ]);
        let mut net = LgfiNetwork::new(mesh, plan, NetworkConfig::default());
        for _ in 0..120 {
            net.run_step();
        }
        assert_eq!(net.convergence_records().len(), 2);
        let first = net.convergence_records()[0];
        let second = net.convergence_records()[1];
        assert_eq!(first.step, 0);
        assert_eq!(second.step, 40);
        assert!(first.a_rounds >= 1);
        assert!(first.b_rounds > 0);
        assert!(first.c_rounds > 0);
        assert_eq!(first.blocks_changed, 1);
        assert_eq!(second.blocks_changed, 1);
        assert!(first.total_rounds() >= first.a_rounds);
        assert_eq!(net.blocks().len(), 2);
    }

    #[test]
    fn information_becomes_visible_gradually() {
        let mesh = mesh10();
        let plan = FaultPlan::static_faults(&[
            mesh.id_of(&coord![4, 5]),
            mesh.id_of(&coord![5, 6]),
            mesh.id_of(&coord![4, 6]),
            mesh.id_of(&coord![5, 5]),
        ]);
        let mut net = LgfiNetwork::new(mesh.clone(), plan, NetworkConfig::default());
        // Run just a few steps: labeling stabilises quickly, but far-away wall nodes
        // must not have the information yet.
        for _ in 0..4 {
            net.run_step();
        }
        let far_wall = mesh.id_of(&coord![3, 0]);
        let near_wall = mesh.id_of(&coord![3, 4]);
        let visible_far_early = net.visible_info(far_wall).len();
        // Keep running until everything is distributed.
        for _ in 0..60 {
            net.run_step();
        }
        let visible_far_late = net.visible_info(far_wall).len();
        let visible_near_late = net.visible_info(near_wall).len();
        assert_eq!(
            visible_far_early, 0,
            "distant wall nodes must not know the block yet"
        );
        assert!(visible_far_late > 0, "eventually the information arrives");
        assert!(visible_near_late > 0);
    }

    #[test]
    fn lambda_speeds_up_information_distribution() {
        let mesh = mesh10();
        let faults = [
            mesh.id_of(&coord![4, 5]),
            mesh.id_of(&coord![5, 6]),
            mesh.id_of(&coord![4, 6]),
            mesh.id_of(&coord![5, 5]),
        ];
        let steps_until_visible = |lambda: u64| {
            let plan = FaultPlan::static_faults(&faults);
            let mut net = LgfiNetwork::new(
                mesh.clone(),
                plan,
                NetworkConfig {
                    lambda,
                    ..NetworkConfig::default()
                },
            );
            let far_wall = mesh.id_of(&coord![3, 0]);
            for step in 0..200 {
                net.run_step();
                if !net.visible_info(far_wall).is_empty() {
                    return step;
                }
            }
            panic!("information never arrived");
        };
        let slow = steps_until_visible(1);
        let fast = steps_until_visible(4);
        assert!(
            fast < slow,
            "lambda=4 ({fast}) must distribute faster than lambda=1 ({slow})"
        );
    }

    #[test]
    fn dynamic_fault_mid_route_is_survived() {
        // A fault cluster appears right in front of the probe while it travels.
        let mesh = Mesh::cubic(14, 2);
        let plan = FaultPlan::new(vec![
            FaultEvent::fail(6, mesh.id_of(&coord![7, 7])),
            FaultEvent::fail(6, mesh.id_of(&coord![8, 8])),
            FaultEvent::fail(6, mesh.id_of(&coord![7, 8])),
            FaultEvent::fail(6, mesh.id_of(&coord![8, 7])),
        ]);
        let mut net = LgfiNetwork::new(mesh.clone(), plan, NetworkConfig::default());
        net.launch_probe(
            mesh.id_of(&coord![1, 1]),
            mesh.id_of(&coord![12, 12]),
            Box::new(LgfiRouter::new()),
        );
        net.run_to_completion(2_000);
        assert_eq!(net.reports().len(), 1);
        let report = &net.reports()[0];
        assert!(
            report.outcome.delivered(),
            "probe must survive the dynamic fault: {report:?}"
        );
        // D(i) was recorded at the fault occurrence.
        assert_eq!(report.distance_at_fault.len(), 1);
        let d_at_fault = *report.distance_at_fault.get(&6).unwrap();
        assert!(d_at_fault < 22 && d_at_fault > 0);
        // The detour bound of Theorem 4 holds.
        let bound = net.detour_bound_for(report.launched_at);
        let max_steps = bound.max_steps(u64::from(report.outcome.initial_distance));
        assert!(
            report.outcome.steps <= max_steps,
            "steps {} must be within the Theorem-4 bound {max_steps}",
            report.outcome.steps
        );
    }

    #[test]
    fn recovery_shrinks_visible_information() {
        let mesh = mesh10();
        let ids = [
            mesh.id_of(&coord![4, 4]),
            mesh.id_of(&coord![5, 5]),
            mesh.id_of(&coord![4, 5]),
            mesh.id_of(&coord![5, 4]),
        ];
        let mut plan = FaultPlan::static_faults(&ids);
        for &id in &ids {
            plan.push(FaultEvent::recover(50, id));
        }
        let mut net = LgfiNetwork::new(mesh, plan, NetworkConfig::default());
        for _ in 0..40 {
            net.run_step();
        }
        let with_block = net.nodes_with_visible_info();
        assert!(with_block > 0);
        assert_eq!(net.blocks().len(), 1);
        for _ in 0..80 {
            net.run_step();
        }
        assert_eq!(net.blocks().len(), 0, "all faults recovered");
        assert_eq!(
            net.nodes_with_visible_info(),
            0,
            "stale boundary information must be deleted after recovery"
        );
        assert!(net.convergence_records().len() >= 2);
    }

    #[test]
    fn exhaustion_cap_is_enforced() {
        let mesh = mesh10();
        let mut net = LgfiNetwork::new(
            mesh.clone(),
            FaultPlan::empty(),
            NetworkConfig {
                lambda: 1,
                max_probe_steps: 3,
                ..NetworkConfig::default()
            },
        );
        net.launch_probe(
            mesh.id_of(&coord![0, 0]),
            mesh.id_of(&coord![9, 9]),
            Box::new(LgfiRouter::new()),
        );
        net.run_to_completion(100);
        assert_eq!(net.reports().len(), 1);
        assert_eq!(net.reports()[0].outcome.status, ProbeStatus::Exhausted);
    }

    #[test]
    fn run_to_completion_stops_when_idle() {
        let mesh = Mesh::cubic(6, 2);
        let mut net = LgfiNetwork::new(mesh, FaultPlan::empty(), NetworkConfig::default());
        let executed = net.run_to_completion(1_000);
        assert_eq!(executed, 0, "an idle network does not spin");
    }

    #[test]
    fn traffic_steps_route_packets_through_dynamic_faults() {
        use crate::traffic_engine::{TrafficEngine, TrafficSpec};
        // A fault cluster appears at step 4 while a burst of packets crosses the
        // mesh concurrently; every packet must survive it, and shared links at the
        // sources must produce observable queueing.
        let mesh = Mesh::cubic(12, 2);
        let plan = FaultPlan::new(vec![
            FaultEvent::fail(4, mesh.id_of(&coord![5, 5])),
            FaultEvent::fail(4, mesh.id_of(&coord![6, 6])),
            FaultEvent::fail(4, mesh.id_of(&coord![5, 6])),
            FaultEvent::fail(4, mesh.id_of(&coord![6, 5])),
        ]);
        let mut net = LgfiNetwork::new(mesh.clone(), plan, NetworkConfig::default());
        let mut traffic = TrafficEngine::new(mesh.clone(), TrafficSpec::new(), &|| {
            Box::new(LgfiRouter::new())
        });
        // Three packets from the same corner (they contend for the corner's two
        // outgoing links) plus one crossing the future block.
        traffic.inject(mesh.id_of(&coord![0, 0]), mesh.id_of(&coord![11, 11]));
        traffic.inject(mesh.id_of(&coord![0, 0]), mesh.id_of(&coord![11, 10]));
        traffic.inject(mesh.id_of(&coord![0, 0]), mesh.id_of(&coord![10, 11]));
        traffic.inject(mesh.id_of(&coord![5, 0]), mesh.id_of(&coord![6, 11]));
        for _ in 0..500 {
            net.run_traffic_step(&mut traffic);
            if traffic.in_flight() == 0 {
                break;
            }
        }
        assert_eq!(traffic.in_flight(), 0);
        assert_eq!(traffic.records().len(), 4);
        assert!(
            traffic.records().iter().all(|r| r.delivered()),
            "{:?}",
            traffic.records()
        );
        assert!(
            traffic.stats().total_stalls() > 0,
            "three packets out of one corner (2 links) must queue"
        );
        for r in traffic.records() {
            assert!(r.latency() >= u64::from(r.initial_distance));
            assert_eq!(r.latency(), r.hops + r.stalls);
        }
    }

    #[test]
    fn epoch_count_equals_info_change_count_on_a_static_plan() {
        let mesh = mesh10();
        let plan = FaultPlan::static_faults(&[
            mesh.id_of(&coord![4, 4]),
            mesh.id_of(&coord![5, 5]),
            mesh.id_of(&coord![4, 5]),
            mesh.id_of(&coord![5, 4]),
        ]);
        let mut net = LgfiNetwork::new(mesh, plan, NetworkConfig::default());
        let service = net.route_service();
        assert_eq!(service.epoch(), 0, "attach publishes the baseline epoch 0");
        assert_eq!(net.info_changes(), 0);
        for _ in 0..200 {
            net.run_step();
        }
        // The unified seam: the epoch clock IS the info-change count.
        assert_eq!(service.epoch(), net.info_changes());
        assert!(
            service.epoch() >= 2,
            "the fault burst plus at least one visibility transition must each \
             have published: {}",
            service.epoch()
        );
        // Once the static plan's information has fully distributed, further steps
        // change nothing and publish nothing.
        let settled = service.epoch();
        for _ in 0..50 {
            net.run_step();
        }
        assert_eq!(service.epoch(), settled, "quiescent steps publish nothing");
        assert_eq!(net.info_changes(), settled);
        assert_eq!(service.stats().epochs_published, settled + 1);
    }

    #[test]
    fn parallel_network_runs_are_bit_identical_to_serial() {
        let mesh = Mesh::cubic(12, 2);
        let run = |threads: usize| {
            let mut plan = FaultPlan::new(vec![
                FaultEvent::fail(0, mesh.id_of(&coord![5, 5])),
                FaultEvent::fail(0, mesh.id_of(&coord![6, 6])),
                FaultEvent::fail(0, mesh.id_of(&coord![5, 6])),
                FaultEvent::fail(25, mesh.id_of(&coord![2, 8])),
                FaultEvent::fail(25, mesh.id_of(&coord![3, 9])),
            ]);
            plan.push(FaultEvent::recover(60, mesh.id_of(&coord![5, 5])));
            let mut net = LgfiNetwork::new(
                mesh.clone(),
                plan,
                NetworkConfig {
                    lambda: 2,
                    threads,
                    ..NetworkConfig::default()
                },
            );
            net.launch_probe(
                mesh.id_of(&coord![0, 0]),
                mesh.id_of(&coord![11, 11]),
                Box::new(LgfiRouter::new()),
            );
            net.run_to_completion(2_000);
            (
                net.statuses().to_vec(),
                net.blocks().regions(),
                net.convergence_records().to_vec(),
                net.round(),
                format!("{:?}", net.reports()),
            )
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial, parallel);
    }
}
