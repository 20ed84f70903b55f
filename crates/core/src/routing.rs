//! Algorithm 3: fault-information-based PCS routing.
//!
//! Routing in the paper is the *path setup phase* of pipelined circuit switching: a
//! probe travels from the source towards the destination one hop per step, reserving a
//! path; when it runs into trouble it backtracks and tries another direction.  The
//! probe header carries the destination address and, for every forwarding node along
//! the path, the list of directions already used there, so that no direction is tried
//! twice.
//!
//! At every step the current node classifies its outgoing directions
//! ([`DirectionClass`]) and picks an unused one with the highest priority:
//!
//! 1. **preferred** — reduces the distance to the destination and is not flagged as a
//!    detour by the boundary information (non-critical routing);
//! 2. **spare along block** — does not reduce the distance, but slides along the
//!    surface of a block that is blocking a preferred direction;
//! 3. **preferred but detour** — a preferred direction that the boundary information
//!    at this node marks as entering a dangerous area (critical routing);
//! 4. **spare** — any other non-shortening direction (the paper folds these into the
//!    spare class; we keep them after the detour class so that progress is preferred
//!    over wandering);
//! 5. **incoming** — going back the way the probe came, which is the same as
//!    backtracking one hop.
//!
//! If the current node is disabled, or no unused direction remains, the probe
//! backtracks; if it backtracks past the source, the destination is unreachable.
//!
//! The [`Router`] trait abstracts the decision rule so that the baseline routers of
//! `lgfi-baselines` can be driven by the same probe engine; [`LgfiRouter`] is the
//! paper's rule.

use lgfi_topology::direction::DirectionSet;
use lgfi_topology::{Coord, Direction, Mesh, NodeId, Region};

use crate::block::{BlockId, FaultyBlock};
use crate::boundary::{mark_critical_steps, BoundaryEntry, BoundaryMap, BoundaryRef};
use crate::status::NodeStatus;

/// One entry of the direction-indexed neighbor table of a [`RouteCtx`]: slot
/// [`Direction::index`] holds `Some((neighbor id, detected status))` when the mesh
/// has a neighbor in that direction, `None` on the mesh surface.
///
/// Indexing by direction makes [`RouteCtx::neighbor_status`] a constant-time slot
/// load instead of a linear scan over the neighbor list.
pub type NeighborSlot = Option<(NodeId, NodeStatus)>;

/// Fills `slots` with the direction-indexed neighbor table of `node`, whose
/// coordinate is `coord` (`2n` entries, indexed by [`Direction::index`]).  Each
/// entry costs a bounds test on `coord` and one stride ([`Mesh::neighbor_at`]), no
/// division.  The vector is cleared and refilled in place, so a warm buffer is never
/// reallocated — this is the per-hop neighbor table of the routing data plane.
pub fn fill_neighbor_slots(
    mesh: &Mesh,
    statuses: &[NodeStatus],
    node: NodeId,
    coord: &Coord,
    slots: &mut Vec<NeighborSlot>,
) {
    slots.clear();
    for dir in Direction::iter_all(mesh.ndim()) {
        slots.push(
            mesh.neighbor_at(node, coord, dir)
                .map(|nid| (nid, statuses[nid])),
        );
    }
}

/// A visibility window in absolute information rounds, half-open at both ends:
/// an entry is visible at round `r` iff `from <= r < until`.  A window whose
/// information was deleted before it arrived (`until <= from`) is never visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// The first round the entry is visible at.
    pub from: u64,
    /// The first round the entry is no longer visible at.
    pub until: u64,
}

impl Window {
    /// The window of information that never arrives late and is never deleted.
    pub const ALWAYS: Window = Window {
        from: 0,
        until: u64::MAX,
    };

    /// True if the window is open at `round`.
    #[inline]
    pub fn contains(&self, round: u64) -> bool {
        // Both bounds are tested without a branch between them: read-time
        // filtering sits on the per-hop path.
        (self.from <= round) & (round < self.until)
    }

    /// True if the window is open at no round.
    pub fn is_empty(&self) -> bool {
        self.until <= self.from
    }
}

/// The block a [`TimedEntry`] guards: one row of a timed store's extent table,
/// shared by all of the block's entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Extent {
    /// The block's id in the set its boundary was built from.
    pub block_id: BlockId,
    /// The block extent.
    pub block: Region,
}

/// A stored boundary entry with its visibility window: what a node holds and
/// from which round to which round.  `Copy` and compact — the block lives once in
/// the extent table, at index `extent` — so a timed store is built by a plain
/// counting sort and filtered by round where it is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEntry {
    /// Index of the guarded block in the store's extent table.
    pub extent: u32,
    /// The direction of the adjacent surface the boundary is for.
    pub guard: Direction,
    /// Rounds after the block information is available at the block's frame until
    /// this node receives it.
    pub arrival_offset: u64,
    /// The rounds the entry is visible in.
    pub window: Window,
}

const _: () = assert!(std::mem::size_of::<TimedEntry>() <= 48);

impl TimedEntry {
    #[inline]
    fn view<'a>(&self, extents: &'a [Extent]) -> BoundaryRef<'a> {
        let extent = &extents[self.extent as usize];
        BoundaryRef {
            block_id: extent.block_id,
            block: &extent.block,
            guard: self.guard,
            arrival_offset: self.arrival_offset,
        }
    }
}

/// The boundary information a node holds at one round, as routing reads it:
/// either a plain list of entries that are all visible, or a node's timed
/// entries filtered by the round at read time.  `Copy`, so a [`RouteCtx`] stays
/// `Copy`.
#[derive(Debug, Clone, Copy)]
pub struct BoundaryInfo<'a> {
    /// Entries that are all visible (empty for a timed view).
    all: &'a [BoundaryEntry],
    /// Entries visible while their window is open at `round` (empty for a
    /// plain list).
    timed: &'a [TimedEntry],
    extents: &'a [Extent],
    round: u64,
}

impl<'a> BoundaryInfo<'a> {
    /// No information at all.
    pub const EMPTY: BoundaryInfo<'static> = BoundaryInfo {
        all: &[],
        timed: &[],
        extents: &[],
        round: 0,
    };

    /// Entries that are all visible.
    pub fn all(entries: &'a [BoundaryEntry]) -> Self {
        BoundaryInfo {
            all: entries,
            ..BoundaryInfo::EMPTY
        }
    }

    /// The entries of `entries` whose window is open at `round`; their blocks are
    /// `extents[entry.extent]`.
    pub fn timed(entries: &'a [TimedEntry], extents: &'a [Extent], round: u64) -> Self {
        BoundaryInfo {
            timed: entries,
            extents,
            round,
            ..BoundaryInfo::EMPTY
        }
    }

    /// The visible entries, in store order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = BoundaryRef<'a>> + 'a {
        let (extents, round) = (self.extents, self.round);
        self.all.iter().map(BoundaryEntry::view).chain(
            self.timed
                .iter()
                .filter(move |e| e.window.contains(round))
                .map(move |e| e.view(extents)),
        )
    }

    /// True if no entry is visible.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }
}

/// A per-node source of boundary information for the probe engine.
///
/// The hop loop of [`ProbeEngine`] only ever asks "what boundary entries are stored
/// at the node currently holding the probe?".  Abstracting that lookup lets the same
/// loop route against a live [`BoundaryMap`] (the static experiments) or against the
/// timed CSR arena of an [`EpochSnapshot`](crate::route_service::EpochSnapshot)
/// filtered at its round — which is what makes snapshot-resolved routes
/// bit-identical to routes resolved against the live network frozen at the same
/// epoch.
pub trait BoundarySource {
    /// The boundary entries stored at (and visible to) `node`.
    fn entries_for(&self, node: NodeId) -> BoundaryInfo<'_>;
}

impl BoundarySource for BoundaryMap {
    #[inline]
    fn entries_for(&self, node: NodeId) -> BoundaryInfo<'_> {
        BoundaryInfo::all(self.entries(node))
    }
}

/// A borrowed CSR view over a timed boundary arena read at one round: node `i`'s
/// stored entries are `data[off[i]..off[i + 1]]`, their blocks sit in `extents`,
/// and an entry is visible if its window is open at `round` — the layout of
/// [`LgfiNetwork`](crate::network::LgfiNetwork)'s arena and of epoch snapshots.
#[derive(Debug, Clone, Copy)]
pub struct CsrBoundary<'a> {
    data: &'a [TimedEntry],
    off: &'a [usize],
    extents: &'a [Extent],
    round: u64,
}

impl<'a> CsrBoundary<'a> {
    /// Wraps a `(data, off)` arena pair over the extent table `extents`, read at
    /// `round`.
    ///
    /// # Panics
    /// Panics if the offset table is empty or its last offset overruns `data`.
    pub fn new(
        data: &'a [TimedEntry],
        off: &'a [usize],
        extents: &'a [Extent],
        round: u64,
    ) -> Self {
        assert!(
            !off.is_empty() && off[off.len() - 1] <= data.len(),
            "malformed boundary CSR arena: {} offsets over {} entries",
            off.len(),
            data.len()
        );
        CsrBoundary {
            data,
            off,
            extents,
            round,
        }
    }

    /// The number of nodes the arena covers.
    pub fn node_count(&self) -> usize {
        self.off.len() - 1
    }

    /// The information visible at `node` at the view's round.
    #[inline]
    pub fn at(&self, node: NodeId) -> BoundaryInfo<'a> {
        BoundaryInfo::timed(
            &self.data[self.off[node]..self.off[node + 1]],
            self.extents,
            self.round,
        )
    }
}

impl BoundarySource for CsrBoundary<'_> {
    #[inline]
    fn entries_for(&self, node: NodeId) -> BoundaryInfo<'_> {
        self.at(node)
    }
}

/// Everything a node is allowed to look at when making a routing decision.
///
/// The limited-global-information router only uses the node-local fields (`current`,
/// `dest`, `current_status`, `neighbors`, `boundary_info`, `used`, `incoming`); the
/// `global_blocks` field exists solely for the idealised global-information baselines
/// and is empty when the context is built by [`LgfiNetwork`](crate::network::LgfiNetwork)
/// for the LGFI router.
///
/// Every field is borrowed or `Copy`, so the context itself is `Copy`: building one
/// per hop costs nothing, and wrapper routers (the baselines) derive stripped or
/// enriched variants with struct-update syntax instead of cloning vectors.
#[derive(Debug, Clone, Copy)]
pub struct RouteCtx<'a> {
    /// The mesh.
    pub mesh: &'a Mesh,
    /// Coordinate of the node currently holding the probe.
    pub current: &'a Coord,
    /// Coordinate of the destination.
    pub dest: &'a Coord,
    /// The current node's own status (it may have become disabled under dynamic
    /// faults while holding the probe).
    pub current_status: NodeStatus,
    /// The detected status of every in-mesh neighbor, indexed by
    /// [`Direction::index`] (fault detection happens at the beginning of every step,
    /// so this is current information).  See [`fill_neighbor_slots`].
    pub neighbors: &'a [NeighborSlot],
    /// The boundary/block information stored at the current node and visible at this
    /// round (limited global information).
    pub boundary_info: BoundaryInfo<'a>,
    /// Global block view — only for the global-information baselines.
    pub global_blocks: &'a [FaultyBlock],
    /// Directions already used by this probe at this node.
    pub used: DirectionSet,
    /// The direction by which the probe entered this node, if any.
    pub incoming: Option<Direction>,
}

impl RouteCtx<'_> {
    /// The Manhattan distance from the current node to the destination.
    pub fn distance(&self) -> u32 {
        self.current.manhattan(self.dest)
    }

    /// True if the hop in `dir` reduces the distance to the destination.
    #[inline]
    pub fn is_preferred(&self, dir: Direction) -> bool {
        shrinks(self.dest[dir.dim] - self.current[dir.dim], dir)
    }

    /// The detected status of the neighbor in `dir`, if it exists — a constant-time
    /// slot load on the direction-indexed neighbor table.
    #[inline]
    pub fn neighbor_status(&self, dir: Direction) -> Option<NodeStatus> {
        self.neighbors[dir.index()].map(|(_, s)| s)
    }
}

/// The priority class of one candidate outgoing direction (lower = better).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DirectionClass {
    /// Reduces the distance and is not flagged by boundary information.
    Preferred,
    /// Does not reduce the distance but slides along a block that is in the way.
    SpareAlongBlock,
    /// Reduces the distance but the boundary information marks it as entering a
    /// dangerous detour area (critical routing).
    PreferredButDetour,
    /// Any other direction that does not reduce the distance.
    Spare,
    /// The direction the probe came from (equivalent to backtracking one hop).
    Incoming,
}

/// The decision a router takes for one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingDecision {
    /// Forward the probe one hop in the given direction.
    Forward(Direction),
    /// Backtrack one hop along the reserved path.
    Backtrack,
    /// Give up: the router has determined the destination is unreachable from here
    /// (only deterministic, non-backtracking baselines use this).
    Fail,
}

/// A routing decision rule.
///
/// `Send` so that batched sweeps and the dynamic network can hand each worker
/// exclusive access to its probes' routers; a router is only ever used from one
/// thread at a time.
pub trait Router: Send {
    /// Human-readable name used in experiment tables.
    fn name(&self) -> &'static str;

    /// Decides what the probe should do at the current node.
    fn decide(&self, ctx: &RouteCtx<'_>) -> RoutingDecision;
}

/// The paper's fault-information-based PCS routing rule (Algorithm 3).
#[derive(Debug, Clone, Default)]
pub struct LgfiRouter {
    /// If true (default), directions whose next node is *known* to be faulty or
    /// disabled (detected at this step) are never selected; the probe slides around
    /// blocks instead of bouncing off them.  Setting it to false reproduces a purely
    /// reactive variant that only reacts after entering a disabled node.
    pub avoid_known_blocked: bool,
}

impl LgfiRouter {
    /// The default configuration.
    pub fn new() -> Self {
        LgfiRouter {
            avoid_known_blocked: true,
        }
    }

    /// Classifies one candidate direction, or returns `None` if it must not be used at
    /// all (outside the mesh, already used, or pointing at a known faulty/disabled
    /// node).
    pub fn classify(&self, ctx: &RouteCtx<'_>, dir: Direction) -> Option<DirectionClass> {
        self.class_of(ctx, &NodeView::read(ctx), dir)
    }

    /// The one classification rule behind [`LgfiRouter::classify`] and the
    /// decision, over what `view` has read of the node once.
    #[inline]
    fn class_of(
        &self,
        ctx: &RouteCtx<'_>,
        view: &NodeView<'_>,
        dir: Direction,
    ) -> Option<DirectionClass> {
        if ctx.used.contains(dir) {
            return None;
        }
        let status = ctx.neighbor_status(dir)?;
        if status == NodeStatus::Faulty {
            return None;
        }
        if self.avoid_known_blocked && status == NodeStatus::Disabled {
            return None;
        }
        if Some(dir) == ctx.incoming.map(|d| d.opposite()) {
            return Some(DirectionClass::Incoming);
        }
        if view.is_preferred(dir) {
            // Critical routing: a boundary entry stored here flags this hop.
            if view.critical.contains(dir) {
                return Some(DirectionClass::PreferredButDetour);
            }
            return Some(DirectionClass::Preferred);
        }
        if view.blocked_preferred {
            Some(DirectionClass::SpareAlongBlock)
        } else {
            Some(DirectionClass::Spare)
        }
    }

    /// Orders the candidate directions by (class, tie-break) and returns the best
    /// one, reading the node once for all of them.
    fn best_direction(&self, ctx: &RouteCtx<'_>) -> Option<(Direction, DirectionClass)> {
        let view = NodeView::read(ctx);
        let mut best: Option<(Direction, DirectionClass, i64)> = None;
        for dir in Direction::iter_all(view.current.len()) {
            let Some(class) = self.class_of(ctx, &view, dir) else {
                continue;
            };
            // Tie-break within a class: preferred moves pick the dimension with the
            // largest remaining offset (classic adaptive heuristic); spare moves pick
            // the dimension with the *smallest* remaining offset, so that a detour
            // slides around the block instead of retreating along the main travel
            // axis.  The direction index breaks remaining ties deterministically.
            let offset = i64::from(view.offset(dir.dim).abs());
            let score = match class {
                DirectionClass::Preferred | DirectionClass::PreferredButDetour => {
                    -offset * 16 + dir.index() as i64
                }
                _ => offset * 16 + dir.index() as i64,
            };
            match &best {
                None => best = Some((dir, class, score)),
                Some((_, bc, bs)) => {
                    if (class, score) < (*bc, *bs) {
                        best = Some((dir, class, score));
                    }
                }
            }
        }
        best.map(|(d, c, _)| (d, c))
    }
}

/// What one Algorithm-3 decision reads of its node once, whatever the candidate
/// direction: the positions as slices, whether a preferred direction is blocked
/// and which preferred directions the visible boundary entries flag.
struct NodeView<'c> {
    current: &'c [i32],
    dest: &'c [i32],
    /// Some preferred direction leads into a faulty or disabled neighbor, so a
    /// sideways move slides along that neighbor's block.
    blocked_preferred: bool,
    /// The preferred directions whose hop enters a dangerous area guarded by a
    /// visible boundary entry (Section 2.2).  One pass over the entries, which a
    /// node without information skips.
    critical: DirectionSet,
}

impl<'c> NodeView<'c> {
    #[inline]
    fn read(ctx: &RouteCtx<'c>) -> Self {
        let (current, dest) = (ctx.current.as_slice(), ctx.dest.as_slice());
        // The preferred direction of dimension `d` is the sign of its offset.
        let blocked_preferred = (0..current.len()).any(|d| {
            let offset = dest[d] - current[d];
            offset != 0
                && ctx
                    .neighbor_status(Direction::new(d, offset > 0))
                    .is_some_and(NodeStatus::in_block)
        });
        let mut critical = DirectionSet::empty();
        for e in ctx.boundary_info.iter() {
            mark_critical_steps(e.block, e.guard, current, dest, &mut critical);
        }
        NodeView {
            current,
            dest,
            blocked_preferred,
            critical,
        }
    }

    /// The remaining offset `dest - current` along `dim`.
    #[inline]
    fn offset(&self, dim: usize) -> i32 {
        self.dest[dim] - self.current[dim]
    }

    /// True if the hop in `dir` reduces the distance (see [`RouteCtx::is_preferred`]).
    #[inline]
    fn is_preferred(&self, dir: Direction) -> bool {
        shrinks(self.offset(dir.dim), dir)
    }
}

/// True if a hop in `dir` shrinks `offset`, the destination's position minus the
/// current one along `dir.dim`.
#[inline]
fn shrinks(offset: i32, dir: Direction) -> bool {
    (dir.positive && offset > 0) || (!dir.positive && offset < 0)
}

impl Router for LgfiRouter {
    fn name(&self) -> &'static str {
        "lgfi"
    }

    fn decide(&self, ctx: &RouteCtx<'_>) -> RoutingDecision {
        // Step 1 of Algorithm 3: a disabled node cannot host the probe.
        if ctx.current_status == NodeStatus::Disabled {
            return RoutingDecision::Backtrack;
        }
        match self.best_direction(ctx) {
            // Choosing the incoming direction is the same as backtracking.
            Some((_, DirectionClass::Incoming)) | None => RoutingDecision::Backtrack,
            Some((dir, _)) => RoutingDecision::Forward(dir),
        }
    }
}

/// The final status of a probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeStatus {
    /// Still travelling.
    InFlight,
    /// Reached the destination: the path is set up.
    Delivered,
    /// Backtracked past the source with no usable direction left.
    Unreachable,
    /// The step budget was exhausted before reaching the destination.
    Exhausted,
    /// A deterministic router gave up (see [`RoutingDecision::Fail`]).
    Failed,
    /// The packet's worm was torn down by the wormhole deadlock detector after a
    /// cyclic credit wait (see
    /// [`TrafficSpec::deadlock_threshold`](crate::traffic_engine::TrafficSpec)).
    /// Single-probe engines never produce this status — only the concurrent
    /// traffic engine does.
    Deadlocked,
}

/// Marks an empty slot in the open-addressed index of [`UsedDirections`].
const EMPTY_SLOT: u32 = u32::MAX;

/// Index slots a [`UsedDirections`] store allocates on its first insert (a power of
/// two).  At load 1/2 that holds 64 nodes — a minimal route across a 32×32 mesh —
/// before the first doubling, for 1.5 KB of heap whatever the mesh size.
const MIN_INDEX_SLOTS: usize = 128;

/// The fixed multiplicative (Fibonacci) hash constant of the index: `2^64 / φ`.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// The per-node used-direction store of a probe header, sized to the probe's
/// footprint rather than to the mesh.
///
/// The store holds one `(node, set)` entry per node the probe has marked a direction
/// at, in first-touch order, plus a power-of-two open-addressed index into those
/// entries (load at most 1/2, linear probing, a fixed multiplicative hash — so the
/// layout is deterministic and `HashMap` stays out of the engine under DET-001).
/// Lookups and inserts are one hash and a short probe run; [`UsedDirections::clear`]
/// resets in `O(touched)` — one fill of an index no larger than eight slots per
/// entry, or else popping the entries and emptying their index slots — so a
/// recycled probe keeps its warm capacity.  Heap use
/// follows the number of nodes touched ([`UsedDirections::heap_bytes`]), never the
/// mesh: a packet costs the same on a 16×16 and on a 512×512 mesh.
///
/// Semantics are those of a `BTreeMap<NodeId, DirectionSet>`: a node's set persists
/// for every node the probe has ever visited (not only the nodes currently on the
/// path), which is what makes the backtracking search terminate even under dynamic
/// faults — a probe that re-enters a node it backtracked out of earlier still
/// remembers the directions it already burned there.
#[derive(Debug, Clone, Default)]
pub struct UsedDirections {
    /// The size of the mesh the store serves; nodes at or past it are rejected.
    node_count: usize,
    /// The touched nodes and their non-empty sets, in first-touch order; popping
    /// these on [`UsedDirections::clear`] makes the reset proportional to the
    /// probe's footprint.
    entries: Vec<(NodeId, DirectionSet)>,
    /// Open-addressed index into `entries` ([`EMPTY_SLOT`] = free); its length is
    /// zero until the first insert, then a power of two at least twice
    /// `entries.len()`.
    index: Vec<u32>,
}

impl UsedDirections {
    /// An empty store for a mesh of `node_count` nodes.  It allocates nothing until
    /// the first insert.
    pub fn with_node_count(node_count: usize) -> Self {
        UsedDirections {
            node_count,
            entries: Vec::new(),
            index: Vec::new(),
        }
    }

    /// The number of nodes of the mesh the store serves.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The used-direction set recorded at `node`.
    ///
    /// # Panics
    /// Panics if `node` is outside the mesh.
    #[inline]
    pub fn at(&self, node: NodeId) -> DirectionSet {
        self.check_node(node);
        if self.index.is_empty() {
            return DirectionSet::empty();
        }
        match self.index[self.slot_of(node)] {
            EMPTY_SLOT => DirectionSet::empty(),
            entry => self.entries[entry as usize].1,
        }
    }

    /// Marks `dir` used at `node`.
    ///
    /// # Panics
    /// Panics if `node` is outside the mesh.
    #[inline]
    pub fn insert(&mut self, node: NodeId, dir: Direction) {
        self.check_node(node);
        if !self.index.is_empty() {
            let slot = self.slot_of(node);
            let entry = self.index[slot];
            if entry != EMPTY_SLOT {
                self.entries[entry as usize].1.insert(dir);
                return;
            }
            if 2 * (self.entries.len() + 1) <= self.index.len() {
                self.push_entry(slot, node, dir);
                return;
            }
        }
        self.grow();
        let slot = self.slot_of(node);
        self.push_entry(slot, node, dir);
    }

    /// Number of nodes holding a non-empty set.
    pub fn touched_count(&self) -> usize {
        self.entries.len()
    }

    /// Heap bytes the store holds (its capacity, not its length): a function of the
    /// largest footprint it has recorded, independent of the mesh size.
    pub fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(NodeId, DirectionSet)>()
            + self.index.capacity() * std::mem::size_of::<u32>()
    }

    /// Resets every recorded set in `O(touched)` without shrinking the buffers.
    ///
    /// While the index holds at most eight slots per entry, one sequential fill
    /// costs less than re-hashing every entry, so the index is emptied whole.
    /// Otherwise (a store grown by a long route, now reset after a short one)
    /// entries leave in reverse first-touch order, so every entry still present
    /// was placed before the one being removed and no probe run it belongs to
    /// crosses the slot being emptied.
    pub fn clear(&mut self) {
        if 8 * self.entries.len() >= self.index.len() {
            self.index.fill(EMPTY_SLOT);
            self.entries.clear();
            return;
        }
        while let Some(&(node, _)) = self.entries.last() {
            let slot = self.slot_of(node);
            self.index[slot] = EMPTY_SLOT;
            self.entries.pop();
        }
    }

    /// Rejects nodes outside the mesh, as indexing a mesh-sized array would.
    #[inline]
    fn check_node(&self, node: NodeId) {
        assert!(
            node < self.node_count,
            "node {node} is outside the {}-node mesh of this used-direction store",
            self.node_count
        );
    }

    /// The index slot holding `node`, or the free slot ending its probe run.  The
    /// index must be non-empty; load at most 1/2 guarantees the run ends.
    #[inline]
    fn slot_of(&self, node: NodeId) -> usize {
        let mask = self.index.len() - 1;
        let shift = 64 - self.index.len().trailing_zeros();
        let mut slot = ((node as u64).wrapping_mul(HASH_MUL) >> shift) as usize;
        loop {
            match self.index[slot] {
                EMPTY_SLOT => return slot,
                entry if self.entries[entry as usize].0 == node => return slot,
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Appends `node`'s first entry and points the free `slot` at it.
    #[inline]
    fn push_entry(&mut self, slot: usize, node: NodeId, dir: Direction) {
        let mut set = DirectionSet::empty();
        set.insert(dir);
        self.index[slot] = self.entries.len() as u32;
        self.entries.push((node, set));
    }

    /// Doubles the index (or allocates the first one) and re-slots every entry;
    /// the entry buffer is sized to the new index's load limit so it grows in step.
    #[cold]
    fn grow(&mut self) {
        let slots = (2 * self.index.len()).max(MIN_INDEX_SLOTS);
        assert!(
            slots / 2 < EMPTY_SLOT as usize,
            "used-direction store outgrew its u32 entry index"
        );
        self.index = vec![EMPTY_SLOT; slots];
        self.entries.reserve_exact(slots / 2 - self.entries.len());
        for entry in 0..self.entries.len() {
            let slot = self.slot_of(self.entries[entry].0);
            self.index[slot] = entry as u32;
        }
    }
}

/// A PCS path-setup probe with its header state.
///
/// The probe owns recyclable buffers (the reserved path and the footprint-sized
/// [`UsedDirections`] store), so its heap follows the nodes it touches, not the
/// mesh.  [`Probe::reset`] rewinds it for a new source/destination pair while
/// keeping the buffers at their high-water capacity, which is how the batched sweep
/// and the [`ProbeEngine`] achieve zero steady-state allocations per probe.
///
/// The probe also carries the coordinates of `current` and `dest`, stepped with
/// every hop, so a hop is stride arithmetic with no id-to-coordinate division.
/// It moves only through [`Probe::apply`] and [`Probe::reset`]; writing `current`
/// directly would leave the carried coordinate behind.
#[derive(Debug, Clone)]
pub struct Probe {
    /// The source node.
    pub source: NodeId,
    /// The destination node.
    pub dest: NodeId,
    /// The node currently holding the probe.
    pub current: NodeId,
    /// The reserved path, source first, current node last.
    pub path: Vec<NodeId>,
    /// Per-node used-direction sets (the header of Algorithm 3).  Kept for every node
    /// the probe has ever visited so that the search terminates even under dynamic
    /// faults.
    pub used: UsedDirections,
    /// Direction by which the probe entered the current node.
    pub incoming: Option<Direction>,
    /// Steps taken so far (each forward or backtrack hop is one step).
    pub steps: u64,
    /// Number of backtrack hops taken.
    pub backtracks: u64,
    /// Current status.
    pub status: ProbeStatus,
    /// The initial source-to-destination distance (the paper's `D`).
    pub initial_distance: u32,
    /// The coordinate of `current`.
    current_coord: Coord,
    /// The coordinate of `dest`.
    dest_coord: Coord,
}

impl Probe {
    /// A new probe at its source.
    pub fn new(mesh: &Mesh, source: NodeId, dest: NodeId) -> Self {
        let (current_coord, dest_coord) = (mesh.coord_of(source), mesh.coord_of(dest));
        Probe {
            source,
            dest,
            current: source,
            path: vec![source],
            used: UsedDirections::with_node_count(mesh.node_count()),
            incoming: None,
            steps: 0,
            backtracks: 0,
            status: ProbeStatus::InFlight,
            initial_distance: current_coord.manhattan(&dest_coord),
            current_coord,
            dest_coord,
        }
    }

    /// Rewinds the probe to a fresh launch from `source` to `dest`, recycling the
    /// path and used-direction buffers (no allocation once they are warm).
    ///
    /// # Panics
    /// Panics if the probe was sized for a different mesh.
    pub fn reset(&mut self, mesh: &Mesh, source: NodeId, dest: NodeId) {
        assert_eq!(
            self.used.node_count(),
            mesh.node_count(),
            "probe recycled across meshes of different size"
        );
        self.source = source;
        self.dest = dest;
        self.current = source;
        self.path.clear();
        self.path.push(source);
        self.used.clear();
        self.incoming = None;
        self.steps = 0;
        self.backtracks = 0;
        self.status = ProbeStatus::InFlight;
        self.current_coord = mesh.coord_of(source);
        self.dest_coord = mesh.coord_of(dest);
        self.initial_distance = self.current_coord.manhattan(&self.dest_coord);
    }

    /// The coordinate of the node holding the probe.
    #[inline]
    pub fn current_coord(&self) -> &Coord {
        &self.current_coord
    }

    /// The coordinate of the destination.
    #[inline]
    pub fn dest_coord(&self) -> &Coord {
        &self.dest_coord
    }

    /// The Manhattan distance from the node holding the probe to the destination.
    #[inline]
    pub fn distance(&self) -> u32 {
        self.current_coord.manhattan(&self.dest_coord)
    }

    /// The routing context at the node holding the probe: refills `slots` with the
    /// node's neighbor table and borrows the carried coordinates.  The hop loops of
    /// the probe engine, the dynamic network and the traffic engine all build their
    /// context here.
    #[inline]
    pub fn route_ctx<'a>(
        &'a self,
        mesh: &'a Mesh,
        statuses: &[NodeStatus],
        boundary_info: BoundaryInfo<'a>,
        global_blocks: &'a [FaultyBlock],
        slots: &'a mut Vec<NeighborSlot>,
    ) -> RouteCtx<'a> {
        fill_neighbor_slots(mesh, statuses, self.current, &self.current_coord, slots);
        RouteCtx {
            mesh,
            current: &self.current_coord,
            dest: &self.dest_coord,
            current_status: statuses[self.current],
            neighbors: slots,
            boundary_info,
            global_blocks,
            used: self.used_here(),
            incoming: self.incoming,
        }
    }

    /// The used-direction set of the current node.
    #[inline]
    pub fn used_here(&self) -> DirectionSet {
        self.used.at(self.current)
    }

    /// The used-direction set recorded at `node`.
    pub fn used_at(&self, node: NodeId) -> DirectionSet {
        self.used.at(node)
    }

    /// Applies a routing decision, moving the probe by one hop (one step of the
    /// Figure-7 model).  `faulty_current` indicates that the node holding the probe
    /// has itself become faulty, in which case the reservation collapses back to the
    /// previous node.
    pub fn apply(&mut self, mesh: &Mesh, decision: RoutingDecision) {
        debug_assert_eq!(self.status, ProbeStatus::InFlight);
        self.steps += 1;
        match decision {
            RoutingDecision::Forward(dir) => {
                self.used.insert(self.current, dir);
                let next = mesh
                    .neighbor_at(self.current, &self.current_coord, dir)
                    // audit:allow(panic): Algorithm 3 only offers in-mesh directions; an off-mesh Forward is a router bug worth crashing on
                    .expect("router returned an off-mesh direction");
                self.current_coord[dir.dim] += dir.delta();
                self.path.push(next);
                self.current = next;
                self.incoming = Some(dir);
                if next == self.dest {
                    self.status = ProbeStatus::Delivered;
                }
            }
            RoutingDecision::Backtrack => {
                self.backtracks += 1;
                if self.path.len() <= 1 {
                    self.status = ProbeStatus::Unreachable;
                    return;
                }
                self.path.pop();
                // audit:allow(panic): guarded above — path.len() > 1 before the pop, so a last element remains
                let prev = *self.path.last().expect("path retains the source");
                // Consecutive path nodes are mesh neighbors, so this is always Some.
                self.incoming = mesh.hop_direction(self.current, &self.current_coord, prev);
                if let Some(back) = self.incoming {
                    self.current_coord[back.dim] += back.delta();
                }
                self.current = prev;
            }
            RoutingDecision::Fail => {
                self.status = ProbeStatus::Failed;
            }
        }
        debug_assert_eq!(
            self.current_coord,
            mesh.coord_of(self.current),
            "the carried coordinate left node {}",
            self.current
        );
    }

    /// Summarises the finished probe.
    pub fn outcome(&self) -> ProbeOutcome {
        ProbeOutcome {
            status: self.status,
            steps: self.steps,
            backtracks: self.backtracks,
            path_length: self.path.len().saturating_sub(1) as u64,
            initial_distance: self.initial_distance,
        }
    }
}

/// Summary of a finished (or abandoned) probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeOutcome {
    /// Final status.
    pub status: ProbeStatus,
    /// Total steps taken (forward + backtrack hops).
    pub steps: u64,
    /// Backtrack hops.
    pub backtracks: u64,
    /// Length of the reserved path at the end.
    pub path_length: u64,
    /// The source-destination distance `D` at start.
    pub initial_distance: u32,
}

impl ProbeOutcome {
    /// True if the path was set up.
    pub fn delivered(&self) -> bool {
        self.status == ProbeStatus::Delivered
    }

    /// Extra steps beyond the initial distance (the paper's *detours*); `None` when
    /// the probe was not delivered.
    pub fn detours(&self) -> Option<u64> {
        if self.delivered() {
            Some(self.steps.saturating_sub(u64::from(self.initial_distance)))
        } else {
            None
        }
    }

    /// Path stretch: final path length divided by the initial distance.
    pub fn stretch(&self) -> Option<f64> {
        if self.delivered() && self.initial_distance > 0 {
            Some(self.path_length as f64 / f64::from(self.initial_distance))
        } else {
            None
        }
    }
}

/// A recyclable static-routing worker: owns the probe buffers and the per-hop
/// neighbor-slot scratch, so routing a probe through a warm engine performs **zero
/// heap allocations per hop** (proved by `tests/alloc_regression.rs` with a counting
/// global allocator).  The buffers keep the capacity of the largest route the
/// engine has carried, so a reader that lives for millions of queries holds
/// memory in proportion to its longest route, never to the mesh.
///
/// One engine routes one probe at a time; batched sweeps give each worker thread its
/// own engine (see [`sweep_static`]).
#[derive(Debug, Default)]
pub struct ProbeEngine {
    /// The recycled probe (path + used-direction store), if one has been routed.
    probe: Option<Probe>,
    /// Direction-indexed neighbor scratch, refilled per hop.
    slots: Vec<NeighborSlot>,
}

impl ProbeEngine {
    /// A fresh engine with cold buffers.
    pub fn new() -> Self {
        ProbeEngine::default()
    }

    /// Routes a probe in a *static* environment (no dynamic faults during the
    /// routing): statuses, blocks and boundary information are fixed, every node's
    /// boundary information has fully arrived.  Returns the probe outcome.
    ///
    /// This is the workhorse for the static experiments and the baselines; the
    /// dynamic Figure-7 loop lives in [`crate::network::LgfiNetwork`].
    #[allow(clippy::too_many_arguments)]
    pub fn route_static(
        &mut self,
        mesh: &Mesh,
        statuses: &[NodeStatus],
        blocks: &[FaultyBlock],
        boundary: &BoundaryMap,
        router: &dyn Router,
        source: NodeId,
        dest: NodeId,
        max_steps: u64,
    ) -> ProbeOutcome {
        self.route_with(
            mesh, statuses, blocks, boundary, router, source, dest, max_steps,
        )
    }

    /// Routes a probe against a flattened CSR boundary arena — the entry point used
    /// by the epoch-snapshot route-query plane
    /// ([`crate::route_service`]).  Same hop loop as
    /// [`ProbeEngine::route_static`], so for identical statuses/blocks/arena the
    /// outcomes are bit-identical.
    #[allow(clippy::too_many_arguments)]
    pub fn route_view(
        &mut self,
        mesh: &Mesh,
        statuses: &[NodeStatus],
        blocks: &[FaultyBlock],
        boundary: CsrBoundary<'_>,
        router: &dyn Router,
        source: NodeId,
        dest: NodeId,
        max_steps: u64,
    ) -> ProbeOutcome {
        self.route_with(
            mesh, statuses, blocks, &boundary, router, source, dest, max_steps,
        )
    }

    /// Shared take-reset-drive-put-back cycle over any boundary source.
    #[allow(clippy::too_many_arguments)]
    fn route_with(
        &mut self,
        mesh: &Mesh,
        statuses: &[NodeStatus],
        blocks: &[FaultyBlock],
        boundary: &dyn BoundarySource,
        router: &dyn Router,
        source: NodeId,
        dest: NodeId,
        max_steps: u64,
    ) -> ProbeOutcome {
        let mut probe = match self.probe.take() {
            Some(mut p) if p.used.node_count() == mesh.node_count() => {
                p.reset(mesh, source, dest);
                p
            }
            _ => Probe::new(mesh, source, dest),
        };
        let outcome = self.drive(
            mesh, statuses, blocks, boundary, router, &mut probe, max_steps,
        );
        self.probe = Some(probe);
        outcome
    }

    /// The routing loop body, operating on a prepared in-flight probe.
    #[allow(clippy::too_many_arguments)]
    fn drive(
        &mut self,
        mesh: &Mesh,
        statuses: &[NodeStatus],
        blocks: &[FaultyBlock],
        boundary: &dyn BoundarySource,
        router: &dyn Router,
        probe: &mut Probe,
        max_steps: u64,
    ) -> ProbeOutcome {
        if probe.source == probe.dest {
            probe.status = ProbeStatus::Delivered;
            return probe.outcome();
        }
        if statuses[probe.source] == NodeStatus::Faulty
            || statuses[probe.dest] == NodeStatus::Faulty
        {
            probe.status = ProbeStatus::Unreachable;
            return probe.outcome();
        }
        while probe.status == ProbeStatus::InFlight {
            if probe.steps >= max_steps {
                probe.status = ProbeStatus::Exhausted;
                break;
            }
            let ctx = probe.route_ctx(
                mesh,
                statuses,
                boundary.entries_for(probe.current),
                blocks,
                &mut self.slots,
            );
            let decision = router.decide(&ctx);
            probe.apply(mesh, decision);
        }
        probe.outcome()
    }
}

/// Routes a single probe through a one-shot [`ProbeEngine`]; see
/// [`ProbeEngine::route_static`].  Callers routing many probes should hold an engine
/// (or use [`sweep_static`]) so the buffers are recycled.
#[allow(clippy::too_many_arguments)]
pub fn route_static(
    mesh: &Mesh,
    statuses: &[NodeStatus],
    blocks: &[FaultyBlock],
    boundary: &BoundaryMap,
    router: &dyn Router,
    source: NodeId,
    dest: NodeId,
    max_steps: u64,
) -> ProbeOutcome {
    ProbeEngine::new().route_static(
        mesh, statuses, blocks, boundary, router, source, dest, max_steps,
    )
}

/// Routes a whole batch of source/destination pairs through the static environment,
/// sharding independent probes across `threads` worker threads (`1` = serial, `0` =
/// one worker per available core).
///
/// Each worker owns a recycled [`ProbeEngine`] and its own router instance from
/// `make_router`, and routes a contiguous chunk of the batch; the per-chunk results
/// are concatenated in chunk (= launch) order.  Because every probe is an
/// independent deterministic function of the shared static environment, the returned
/// outcomes are **bit-identical** to the serial sweep for every thread count
/// (`tests/probe_batch_equivalence.rs` asserts this across routers and fault
/// patterns).
#[allow(clippy::too_many_arguments)]
pub fn sweep_static(
    mesh: &Mesh,
    statuses: &[NodeStatus],
    blocks: &[FaultyBlock],
    boundary: &BoundaryMap,
    make_router: &(dyn Fn() -> Box<dyn Router> + Sync),
    pairs: &[(NodeId, NodeId)],
    max_steps: u64,
    threads: usize,
) -> Vec<ProbeOutcome> {
    let threads = lgfi_sim::resolve_threads(threads).min(pairs.len().max(1));
    let route_chunk = |chunk: &[(NodeId, NodeId)]| -> Vec<ProbeOutcome> {
        let router = make_router();
        let mut engine = ProbeEngine::new();
        chunk
            .iter()
            .map(|&(s, d)| {
                engine.route_static(
                    mesh,
                    statuses,
                    blocks,
                    boundary,
                    router.as_ref(),
                    s,
                    d,
                    max_steps,
                )
            })
            .collect()
    };
    if threads <= 1 || pairs.len() <= 1 {
        return route_chunk(pairs);
    }
    let ranges = lgfi_sim::batch_ranges(pairs.len(), threads);
    let mut slots: Vec<Vec<ProbeOutcome>> = (0..ranges.len()).map(|_| Vec::new()).collect();
    lgfi_sim::WorkerPool::new(threads).run_chunked(&mut slots, threads, |i, slot| {
        slot[0] = route_chunk(&pairs[ranges[i].clone()]);
    });
    let mut out = Vec::with_capacity(pairs.len());
    for slot in &mut slots {
        out.append(slot);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockSet;
    use crate::boundary::BoundaryMap;
    use crate::labeling::LabelingEngine;
    use lgfi_topology::coord;

    struct Env {
        mesh: Mesh,
        statuses: Vec<NodeStatus>,
        blocks: BlockSet,
        boundary: BoundaryMap,
    }

    fn build_env(mesh: Mesh, faults: &[Coord]) -> Env {
        let mut eng = LabelingEngine::new(mesh.clone());
        eng.apply_faults(faults);
        let blocks = BlockSet::extract(&mesh, eng.statuses());
        let boundary = BoundaryMap::construct(&mesh, &blocks);
        Env {
            statuses: eng.statuses().to_vec(),
            blocks,
            boundary,
            mesh,
        }
    }

    fn route(env: &Env, s: &Coord, d: &Coord) -> ProbeOutcome {
        route_static(
            &env.mesh,
            &env.statuses,
            env.blocks.blocks(),
            &env.boundary,
            &LgfiRouter::new(),
            env.mesh.id_of(s),
            env.mesh.id_of(d),
            10_000,
        )
    }

    #[test]
    fn fault_free_routing_is_minimal() {
        let env = build_env(Mesh::cubic(8, 3), &[]);
        let out = route(&env, &coord![0, 0, 0], &coord![7, 7, 7]);
        assert!(out.delivered());
        assert_eq!(out.steps, 21);
        assert_eq!(out.detours(), Some(0));
        assert_eq!(out.path_length, 21);
        assert_eq!(out.stretch(), Some(1.0));
        assert_eq!(out.backtracks, 0);
    }

    #[test]
    fn routing_to_self_is_trivially_delivered() {
        let env = build_env(Mesh::cubic(5, 2), &[]);
        let out = route(&env, &coord![2, 2], &coord![2, 2]);
        assert!(out.delivered());
        assert_eq!(out.steps, 0);
    }

    #[test]
    fn faulty_destination_is_unreachable() {
        let env = build_env(Mesh::cubic(8, 2), &[coord![4, 4]]);
        let out = route(&env, &coord![0, 0], &coord![4, 4]);
        assert_eq!(out.status, ProbeStatus::Unreachable);
    }

    #[test]
    fn safe_source_route_around_block_stays_minimal() {
        // Block in the middle; source and destination positioned so that the block
        // does not intersect the bounding box: a minimal path must be found.
        let env = build_env(
            Mesh::cubic(12, 2),
            &[coord![5, 5], coord![6, 6], coord![5, 6], coord![6, 5]],
        );
        let out = route(&env, &coord![1, 1], &coord![3, 10]);
        assert!(out.delivered());
        assert_eq!(
            out.detours(),
            Some(0),
            "safe source must get a minimal path"
        );
    }

    #[test]
    fn boundary_information_prevents_entering_the_dangerous_area() {
        // 2-D mesh with a wide block; destination directly above the block, source
        // directly below it.  The LGFI router must be warned at the boundary and go
        // around; it must still deliver, and the number of extra hops is bounded by
        // the block perimeter.
        let env = build_env(
            Mesh::cubic(16, 2),
            &[
                coord![5, 7],
                coord![10, 7],
                coord![5, 8],
                coord![10, 8],
                coord![7, 7],
                coord![8, 8],
                coord![6, 7],
                coord![9, 8],
            ],
        );
        // One wide block [5:10, 7:8].
        assert_eq!(env.blocks.len(), 1);
        assert_eq!(
            env.blocks.blocks()[0].region,
            lgfi_topology::Region::new(vec![5, 7], vec![10, 8])
        );
        let out = route(&env, &coord![8, 2], &coord![8, 13]);
        assert!(out.delivered());
        // Minimal distance is 11; going around the block costs at most the block's
        // half-perimeter extra.
        let detours = out.detours().unwrap();
        assert!(detours > 0, "the block forces a detour");
        assert!(
            detours <= 2 * (6 + 2),
            "detours {detours} should be bounded by the block size"
        );
    }

    #[test]
    fn without_boundary_info_the_probe_wastes_steps_in_the_dangerous_area() {
        // Same scenario as above but with the boundary map removed: the router only
        // discovers the block when it bumps into it, so it needs strictly more steps.
        let env = build_env(
            Mesh::cubic(16, 2),
            &[
                coord![5, 7],
                coord![10, 7],
                coord![5, 8],
                coord![10, 8],
                coord![7, 7],
                coord![8, 8],
                coord![6, 7],
                coord![9, 8],
            ],
        );
        let with_info = route(&env, &coord![8, 2], &coord![8, 13]);
        let empty = BoundaryMap::empty(&env.mesh);
        let without_info = route_static(
            &env.mesh,
            &env.statuses,
            env.blocks.blocks(),
            &empty,
            &LgfiRouter::new(),
            env.mesh.id_of(&coord![8, 2]),
            env.mesh.id_of(&coord![8, 13]),
            10_000,
        );
        assert!(with_info.delivered());
        assert!(without_info.delivered());
        assert!(
            with_info.steps <= without_info.steps,
            "limited-global information must not hurt ({} vs {})",
            with_info.steps,
            without_info.steps
        );
    }

    #[test]
    fn direction_classification_matches_algorithm_3() {
        let env = build_env(
            Mesh::cubic(16, 2),
            &[
                coord![5, 7],
                coord![10, 7],
                coord![5, 8],
                coord![10, 8],
                coord![7, 7],
                coord![8, 8],
                coord![6, 7],
                coord![9, 8],
            ],
        );
        let router = LgfiRouter::new();
        // A node on the boundary wall left of the block (x = 4), destination above the
        // block within its cross-section: +X (into the shadow) is preferred-but-detour,
        // +Y is preferred.
        let node = coord![4, 5];
        let dest = coord![8, 13];
        let mut slots = Vec::new();
        fill_neighbor_slots(
            &env.mesh,
            &env.statuses,
            env.mesh.id_of(&node),
            &node,
            &mut slots,
        );
        let ctx = RouteCtx {
            mesh: &env.mesh,
            current: &node,
            dest: &dest,
            current_status: NodeStatus::Enabled,
            neighbors: &slots,
            boundary_info: BoundaryInfo::all(env.boundary.entries(env.mesh.id_of(&node))),
            global_blocks: &[],
            used: DirectionSet::empty(),
            incoming: Some(Direction::pos(1)),
        };
        assert!(
            !ctx.boundary_info.is_empty(),
            "x=4 wall node must hold boundary info"
        );
        assert_eq!(
            router.classify(&ctx, Direction::pos(0)),
            Some(DirectionClass::PreferredButDetour)
        );
        assert_eq!(
            router.classify(&ctx, Direction::pos(1)),
            Some(DirectionClass::Preferred)
        );
        assert_eq!(
            router.classify(&ctx, Direction::neg(0)),
            Some(DirectionClass::Spare)
        );
        assert_eq!(
            router.classify(&ctx, Direction::neg(1)),
            Some(DirectionClass::Incoming)
        );
        assert_eq!(
            router.decide(&ctx),
            RoutingDecision::Forward(Direction::pos(1))
        );
    }

    /// Algorithm 3's per-direction rule as first written: one direction at a time,
    /// the next node built as a coordinate, the blocked-preferred scan repeated per
    /// spare direction.  The reference the one-pass decision is checked against.
    fn reference_class(
        router: &LgfiRouter,
        ctx: &RouteCtx<'_>,
        dir: Direction,
    ) -> Option<DirectionClass> {
        if ctx.used.contains(dir) {
            return None;
        }
        let status = ctx.neighbor_status(dir)?;
        if status == NodeStatus::Faulty
            || (router.avoid_known_blocked && status == NodeStatus::Disabled)
        {
            return None;
        }
        if Some(dir) == ctx.incoming.map(|d| d.opposite()) {
            return Some(DirectionClass::Incoming);
        }
        if ctx.is_preferred(dir) {
            let next = ctx.current.step(dir);
            let critical = ctx
                .boundary_info
                .iter()
                .any(|e| e.is_critical_hop(&next, ctx.dest));
            return Some(if critical {
                DirectionClass::PreferredButDetour
            } else {
                DirectionClass::Preferred
            });
        }
        let blocked_preferred = Direction::iter_all(ctx.mesh.ndim())
            .any(|p| ctx.is_preferred(p) && ctx.neighbor_status(p).is_some_and(|s| s.in_block()));
        Some(if blocked_preferred {
            DirectionClass::SpareAlongBlock
        } else {
            DirectionClass::Spare
        })
    }

    /// On seeded random 2-D and 3-D contexts — random used sets, incoming
    /// directions, faulty and disabled neighbors, both `avoid_known_blocked`
    /// settings and boundary entries placed to make hops critical — `classify`
    /// matches the reference rule and `best_direction` picks the minimum
    /// `(class, score)` over `classify`.
    #[test]
    fn the_one_pass_decision_picks_the_minimum_over_classify() {
        use lgfi_sim::DetRng;
        use std::collections::BTreeMap;
        let mut rng = DetRng::seed_from_u64(0xa1_93);
        let mut classes: BTreeMap<DirectionClass, usize> = BTreeMap::new();
        for mesh in [Mesh::cubic(9, 2), Mesh::new(&[6, 5, 7])] {
            let n = mesh.ndim();
            let statuses = [
                NodeStatus::Enabled,
                NodeStatus::Disabled,
                NodeStatus::Faulty,
            ];
            for case in 0..3000 {
                let at = |rng: &mut DetRng| {
                    Coord::from_slice(
                        &mesh
                            .dims()
                            .iter()
                            .map(|&k| rng.range_i32(0, k - 1))
                            .collect::<Vec<_>>(),
                    )
                };
                let (current, dest) = (at(&mut rng), at(&mut rng));
                let node = mesh.id_of(&current);
                let slots: Vec<NeighborSlot> = Direction::iter_all(n)
                    .map(|dir| {
                        let status = if rng.chance(0.6) {
                            NodeStatus::Enabled
                        } else {
                            *rng.choose(&statuses)
                        };
                        mesh.neighbor_id(node, dir).map(|nid| (nid, status))
                    })
                    .collect();
                // Blocks one or two hops ahead of the node, some of them between it
                // and the destination, guarded on random sides.
                let entries: Vec<BoundaryEntry> = (0..rng.below(4))
                    .map(|i| {
                        let lo: Vec<i32> =
                            (0..n).map(|d| current[d] + rng.range_i32(-2, 2)).collect();
                        let hi: Vec<i32> = lo.iter().map(|&x| x + rng.range_i32(0, 2)).collect();
                        let guard = if rng.chance(0.5) {
                            let d = rng.below(n);
                            Direction::new(d, dest[d] > current[d])
                        } else {
                            Direction::from_index(rng.below(2 * n))
                        };
                        BoundaryEntry {
                            block_id: i,
                            block: Region::new(lo, hi),
                            guard,
                            arrival_offset: 0,
                        }
                    })
                    .collect();
                let used: DirectionSet =
                    Direction::iter_all(n).filter(|_| rng.chance(0.2)).collect();
                let incoming = rng
                    .chance(0.7)
                    .then(|| Direction::from_index(rng.below(2 * n)));
                let ctx = RouteCtx {
                    mesh: &mesh,
                    current: &current,
                    dest: &dest,
                    current_status: NodeStatus::Enabled,
                    neighbors: &slots,
                    boundary_info: BoundaryInfo::all(&entries),
                    global_blocks: &[],
                    used,
                    incoming,
                };
                let router = LgfiRouter {
                    avoid_known_blocked: case % 4 != 0,
                };
                let mut reference: Option<(DirectionClass, i64, Direction)> = None;
                for dir in Direction::iter_all(n) {
                    let class = router.classify(&ctx, dir);
                    assert_eq!(
                        class,
                        reference_class(&router, &ctx, dir),
                        "{mesh:?} case {case} {dir:?}"
                    );
                    let Some(class) = class else { continue };
                    *classes.entry(class).or_default() += 1;
                    let offset = i64::from((dest[dir.dim] - current[dir.dim]).abs());
                    let score = match class {
                        DirectionClass::Preferred | DirectionClass::PreferredButDetour => {
                            -offset * 16 + dir.index() as i64
                        }
                        _ => offset * 16 + dir.index() as i64,
                    };
                    if reference.map_or(true, |(c, sc, _)| (class, score) < (c, sc)) {
                        reference = Some((class, score, dir));
                    }
                }
                assert_eq!(
                    router.best_direction(&ctx),
                    reference.map(|(class, _, dir)| (dir, class)),
                    "{mesh:?} case {case}"
                );
            }
        }
        // Every class was seen, the critical one included.
        assert_eq!(classes.len(), 5, "{classes:?}");
    }

    #[test]
    fn windows_are_half_open_at_both_ends() {
        let window = Window { from: 3, until: 6 };
        let open: Vec<u64> = (0..10).filter(|&r| window.contains(r)).collect();
        assert_eq!(open, [3, 4, 5]);
        assert!(!window.is_empty());
        assert!(Window::ALWAYS.contains(0) && Window::ALWAYS.contains(u64::MAX - 1));
    }

    #[test]
    fn a_window_deleted_before_it_opened_is_never_visible() {
        let extents = [Extent {
            block_id: 0,
            block: lgfi_topology::Region::new(vec![4, 4], vec![5, 5]),
        }];
        let entry = |from, until| TimedEntry {
            extent: 0,
            guard: Direction::pos(0),
            arrival_offset: 2,
            window: Window { from, until },
        };
        // Deleted before, and exactly when, it would have arrived; then one
        // entry that does open, so the filter is seen to keep something.
        let entries = [entry(5, 2), entry(5, 5), entry(3, 6)];
        assert!(entries[0].window.is_empty() && entries[1].window.is_empty());
        for round in 0..12 {
            let visible: Vec<BoundaryRef<'_>> = BoundaryInfo::timed(&entries, &extents, round)
                .iter()
                .collect();
            let expected = usize::from((3..6).contains(&round));
            assert_eq!(visible.len(), expected, "round {round}");
        }
    }

    #[test]
    fn all_and_always_open_timed_views_yield_the_same_entries() {
        let env = build_env(
            Mesh::cubic(16, 2),
            &[coord![5, 7], coord![10, 8], coord![6, 7], coord![2, 12]],
        );
        let arena = crate::network::VisibleArena::always_visible(&env.mesh, &env.boundary);
        let mut seen = 0;
        for node in 0..env.mesh.node_count() {
            let all: Vec<BoundaryRef<'_>> = BoundaryInfo::all(env.boundary.entries(node))
                .iter()
                .collect();
            for round in [0, 17, u64::MAX - 1] {
                let timed: Vec<BoundaryRef<'_>> = arena.view(round).at(node).iter().collect();
                assert_eq!(all, timed, "node {node}, round {round}");
            }
            seen += all.len();
        }
        assert_eq!(seen, env.boundary.total_entries());
        assert!(seen > 0);
    }

    #[test]
    fn used_directions_are_never_retried() {
        let env = build_env(Mesh::cubic(6, 2), &[]);
        let mesh = &env.mesh;
        let mut probe = Probe::new(mesh, mesh.id_of(&coord![0, 0]), mesh.id_of(&coord![5, 5]));
        probe.apply(mesh, RoutingDecision::Forward(Direction::pos(0)));
        assert!(probe
            .used_at(mesh.id_of(&coord![0, 0]))
            .contains(Direction::pos(0)));
        probe.apply(mesh, RoutingDecision::Backtrack);
        assert_eq!(probe.current, mesh.id_of(&coord![0, 0]));
        assert_eq!(probe.backtracks, 1);
        // The used set survived the backtrack.
        assert!(probe
            .used_at(mesh.id_of(&coord![0, 0]))
            .contains(Direction::pos(0)));
    }

    /// Replays seeded random insert/at/clear sequences against a `BTreeMap` model.
    /// Each run is a walk that mostly steps to fresh nodes but often re-enters one
    /// it has already marked (the backtrack-and-return pattern of Algorithm 3);
    /// the last run marks enough distinct nodes to double the index four times.
    #[test]
    fn used_directions_match_a_btreemap_model() {
        use lgfi_sim::DetRng;
        use std::collections::BTreeMap;
        let node_count = 1 << 16;
        let dirs = 6;
        let mut rng = DetRng::seed_from_u64(0x05ed);
        let mut store = UsedDirections::with_node_count(node_count);
        let mut model: BTreeMap<NodeId, DirectionSet> = BTreeMap::new();
        let mut previous: Vec<NodeId> = Vec::new();
        let runs = [40, 300, 5, 0, 900, 64, 65, 129, MIN_INDEX_SLOTS << 3];
        for (run, &fresh) in runs.iter().enumerate() {
            store.clear();
            model.clear();
            assert_eq!(store.touched_count(), 0, "run {run}: clear left entries");
            for &node in &previous {
                assert!(
                    store.at(node).is_empty(),
                    "run {run}: node {node} survived clear"
                );
            }
            let mut visited: Vec<NodeId> = Vec::new();
            while model.len() < fresh {
                let node = if !visited.is_empty() && rng.chance(0.4) {
                    *rng.choose(&visited)
                } else {
                    rng.below(node_count)
                };
                let dir = Direction::from_index(rng.below(dirs));
                store.insert(node, dir);
                model
                    .entry(node)
                    .or_insert_with(DirectionSet::empty)
                    .insert(dir);
                visited.push(node);
                let probe = rng.below(node_count);
                let expected = model
                    .get(&probe)
                    .copied()
                    .unwrap_or_else(DirectionSet::empty);
                assert_eq!(store.at(probe), expected, "run {run}: miss at {probe}");
                assert_eq!(store.at(node), model[&node], "run {run}: set at {node}");
            }
            assert_eq!(store.touched_count(), model.len(), "run {run}");
            for (&node, &set) in &model {
                assert_eq!(store.at(node), set, "run {run}: final set at {node}");
            }
            let firsts: Vec<NodeId> = store.entries.iter().map(|&(node, _)| node).collect();
            let mut expected_order: Vec<NodeId> = Vec::new();
            for &node in &visited {
                if !expected_order.contains(&node) {
                    expected_order.push(node);
                }
            }
            assert_eq!(
                firsts, expected_order,
                "run {run}: entries leave first-touch order"
            );
            previous = visited;
        }
        assert!(
            store.index.len() >= MIN_INDEX_SLOTS << 4,
            "the last run must double the index at least four times (index {})",
            store.index.len()
        );
    }

    /// `clear` empties a small index with one fill and a large one entry by
    /// entry; after either, no set survives and every index slot is free.
    #[test]
    fn used_directions_clear_leaves_nothing_on_either_branch() {
        let node_count = 1 << 16;
        let mut store = UsedDirections::with_node_count(node_count);
        let long: Vec<NodeId> = (0..3000).map(|i| (i * 7919) % node_count).collect();
        let short: Vec<NodeId> = (0..12).map(|i| (i * 104_729) % node_count).collect();
        let mark = |store: &mut UsedDirections, nodes: &[NodeId]| {
            for (i, &node) in nodes.iter().enumerate() {
                store.insert(node, Direction::from_index(i % 4));
            }
        };
        let assert_empty = |store: &UsedDirections, nodes: &[NodeId], what: &str| {
            assert_eq!(store.touched_count(), 0, "{what}");
            assert!(store.index.iter().all(|&slot| slot == EMPTY_SLOT), "{what}");
            assert!(
                nodes.iter().all(|&node| store.at(node).is_empty()),
                "{what}"
            );
        };
        // A long route fills its grown index densely: the one-fill branch.
        mark(&mut store, &long);
        assert!(8 * store.touched_count() >= store.index.len());
        store.clear();
        assert_empty(&store, &long, "fill branch");
        // A short route in the grown index: the entry-by-entry branch.
        mark(&mut store, &short);
        assert!(8 * store.touched_count() < store.index.len());
        store.clear();
        assert_empty(&store, &short, "pop branch");
        // The store still works after both, with its capacity kept.
        let bytes = store.heap_bytes();
        mark(&mut store, &short);
        assert_eq!(
            store.at(short[5]),
            DirectionSet::from_iter([Direction::from_index(1)])
        );
        assert_eq!(store.heap_bytes(), bytes);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn used_directions_reject_out_of_range_nodes_on_insert() {
        let mut store = UsedDirections::with_node_count(36);
        store.insert(3, Direction::pos(0));
        store.insert(36, Direction::pos(0));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn used_directions_reject_out_of_range_nodes_on_lookup() {
        let store = UsedDirections::with_node_count(36);
        let _ = store.at(36);
    }

    /// The same route — a detour around the same 3×3 block, at the same offset from
    /// source and destination — costs the same per-probe heap on a 16×16 mesh as
    /// on a 512×512 one: the used-direction store follows the footprint, not the
    /// mesh.
    #[test]
    fn per_probe_heap_follows_the_route_not_the_mesh() {
        let route_on = |side: i32, origin: i32| -> (ProbeOutcome, usize, usize) {
            let at = |x: i32, y: i32| coord![origin + x, origin + y];
            let block: Vec<Coord> = (5..8)
                .flat_map(|x| (5..8).map(move |y| (x, y)))
                .map(|(x, y)| at(x, y))
                .collect();
            let env = build_env(Mesh::cubic(side, 2), &block);
            let mut engine = ProbeEngine::new();
            let out = engine.route_static(
                &env.mesh,
                &env.statuses,
                env.blocks.blocks(),
                &env.boundary,
                &LgfiRouter::new(),
                env.mesh.id_of(&at(6, 1)),
                env.mesh.id_of(&at(6, 13)),
                10_000,
            );
            let used = &engine.probe.as_ref().expect("engine kept its probe").used;
            (out, used.touched_count(), used.heap_bytes())
        };
        let (small, small_touched, small_bytes) = route_on(16, 0);
        let (large, large_touched, large_bytes) = route_on(512, 250);
        assert!(small.delivered() && small.detours() > Some(0), "{small:?}");
        assert_eq!(small, large, "the relative route must be the same");
        assert_eq!(small_touched, large_touched);
        assert_eq!(small_bytes, large_bytes);
        assert!(
            small_bytes > 0 && small_bytes <= 2048,
            "{small_bytes} bytes"
        );
    }

    /// A probe's carried coordinate follows every forward hop and backtrack of a
    /// seeded random walk on a 3-D mesh, and `reset` restores it.
    #[test]
    fn the_carried_coordinate_follows_every_hop_and_reset() {
        use lgfi_sim::DetRng;
        let mesh = Mesh::new(&[5, 4, 6]);
        let mut rng = DetRng::seed_from_u64(0xc0_0d);
        let node = |rng: &mut DetRng| rng.below(mesh.node_count());
        let mut probe = Probe::new(&mesh, node(&mut rng), node(&mut rng));
        let (mut forwards, mut backtracks) = (0, 0);
        for walk in 0..40 {
            let (source, dest) = (node(&mut rng), node(&mut rng));
            probe.reset(&mesh, source, dest);
            assert_eq!(probe.current_coord(), &mesh.coord_of(source), "walk {walk}");
            assert_eq!(probe.dest_coord(), &mesh.coord_of(dest), "walk {walk}");
            assert_eq!(probe.initial_distance, mesh.distance(source, dest));
            for _ in 0..60 {
                if probe.status != ProbeStatus::InFlight {
                    break;
                }
                let back = probe.path.len() > 1 && rng.chance(0.35);
                let decision = if back {
                    backtracks += 1;
                    RoutingDecision::Backtrack
                } else {
                    let dirs: Vec<Direction> = Direction::iter_all(3)
                        .filter(|&d| mesh.neighbor_id(probe.current, d).is_some())
                        .collect();
                    forwards += 1;
                    RoutingDecision::Forward(*rng.choose(&dirs))
                };
                let from = probe.current;
                probe.apply(&mesh, decision);
                assert_eq!(probe.current_coord(), &mesh.coord_of(probe.current));
                assert_eq!(probe.distance(), mesh.distance(probe.current, dest));
                if back {
                    let to = mesh.coord_of(probe.current);
                    assert_eq!(probe.incoming, mesh.coord_of(from).direction_to(&to));
                }
            }
        }
        assert!(
            forwards > 500 && backtracks > 200,
            "{forwards} {backtracks}"
        );
    }

    #[test]
    fn backtracking_past_the_source_reports_unreachable() {
        let env = build_env(Mesh::cubic(6, 2), &[]);
        let mesh = &env.mesh;
        let mut probe = Probe::new(mesh, mesh.id_of(&coord![0, 0]), mesh.id_of(&coord![5, 5]));
        probe.apply(mesh, RoutingDecision::Backtrack);
        assert_eq!(probe.status, ProbeStatus::Unreachable);
    }

    #[test]
    fn completely_walled_in_destination_is_unreachable() {
        // A destination surrounded by faults on all four sides cannot be reached; the
        // probe must terminate with Unreachable rather than loop forever.
        let env = build_env(
            Mesh::cubic(10, 2),
            &[coord![4, 5], coord![6, 5], coord![5, 4], coord![5, 6]],
        );
        // The destination itself is disabled by the labeling (it has faulty neighbors
        // in two dimensions), so the router refuses to enter it; the probe gives up.
        let out = route(&env, &coord![0, 0], &coord![5, 5]);
        assert_ne!(out.status, ProbeStatus::Delivered);
        assert_ne!(
            out.status,
            ProbeStatus::Exhausted,
            "must terminate by search, not timeout"
        );
    }

    #[test]
    fn exhaustion_is_reported_when_step_budget_is_too_small() {
        let env = build_env(Mesh::cubic(10, 3), &[]);
        let out = route_static(
            &env.mesh,
            &env.statuses,
            env.blocks.blocks(),
            &env.boundary,
            &LgfiRouter::new(),
            env.mesh.id_of(&coord![0, 0, 0]),
            env.mesh.id_of(&coord![9, 9, 9]),
            5,
        );
        assert_eq!(out.status, ProbeStatus::Exhausted);
    }

    #[test]
    fn random_static_fault_patterns_always_deliver_between_enabled_corners() {
        use lgfi_sim::DetRng;
        // With interior faults and enabled corner nodes, the mesh stays connected
        // (property from [14]); the LGFI router must always set up a path.
        let mesh = Mesh::cubic(10, 3);
        let interior: Vec<Coord> = mesh.interior_region().unwrap().iter_coords().collect();
        for seed in 0..6u64 {
            let mut rng = DetRng::seed_from_u64(1000 + seed);
            let picks = rng.sample_indices(interior.len(), 30);
            let faults: Vec<Coord> = picks.iter().map(|&i| interior[i].clone()).collect();
            let env = build_env(mesh.clone(), &faults);
            let out = route(&env, &coord![0, 0, 0], &coord![9, 9, 9]);
            assert!(
                out.delivered(),
                "seed {seed}: corner-to-corner route failed: {out:?}"
            );
        }
    }
}
