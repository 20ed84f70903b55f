//! Definition 3: boundaries of a block and their construction.
//!
//! For every pair of opposite adjacent surfaces of a block, a message that enters the
//! *dangerous area* on one side while its destination lies directly beyond the other
//! side has lost every minimal path: it will have to detour around the block.  The
//! **boundary** for a surface `S_g` encloses that dangerous area: it starts from the
//! edges of the opposite surface `S_{(g+n) mod 2n}` (except the corners) and extends
//! away from the block, one node per hop, until it reaches the outermost surface of
//! the mesh or merges into another block.
//!
//! The block information is stored at every node of the boundary, so that a routing
//! message about to cross the wall into the dangerous area can be warned: the
//! preferred direction pointing inside becomes *preferred but detour* (critical
//! routing, Algorithm 3).
//!
//! [`BoundaryMap::construct`] builds the boundaries of every block of a [`BlockSet`]
//! and records, for every node, the [`BoundaryEntry`] list it stores together with the
//! number of rounds (counted from the moment the block information is available at the
//! block's frame) after which the information reaches it; the maximum of these offsets
//! is the paper's `c_i`.
//!
//! ## Merging (Figure 3 (d))
//!
//! If the hop-by-hop propagation reaches a node adjacent to another block, the
//! information merges into that block's frame: it continues along the second block's
//! adjacent nodes and down the second block's own boundary for the same surface
//! direction.  This is implemented as a breadth-first propagation whose expansion rule
//! at a node `v` is:
//!
//! * if `v` is a plain wall node (not adjacent to any other block) the information
//!   moves one hop further away from the block (direction `-g`);
//! * if `v` is adjacent to another block `B2`, the information additionally spreads to
//!   every enabled neighbor of `v` that is also adjacent to `B2`, and continues away
//!   from the block from those of `B2`'s frame nodes that lie on `B2`'s own starting
//!   edges for the same guard direction.

use std::collections::{BTreeMap, VecDeque};

use lgfi_topology::direction::DirectionSet;
use lgfi_topology::{Coord, Direction, FrameLevel, Mesh, NodeId, Region};

use crate::block::{BlockId, BlockSet};

/// One piece of limited-global information stored at a node: "block `block` exists;
/// this node is on the boundary that guards its surface in direction `guard`".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundaryEntry {
    /// The id of the guarded block within the [`BlockSet`] the entry was built
    /// from.  An id means something only in that set: every
    /// [`BlockSet::extract`] renumbers its blocks, so an entry kept across a later
    /// extraction (as the dynamic network's timed store keeps them) is keyed by
    /// its extent, [`BoundaryEntry::block`], not by this id.
    pub block_id: BlockId,
    /// The extent of the guarded block (the block information itself).
    pub block: Region,
    /// The direction of the adjacent surface this boundary is *for*: a message whose
    /// destination lies beyond the block in this direction and which is about to enter
    /// the shadow on the opposite side is in danger.
    pub guard: Direction,
    /// Rounds after the block information is available at the block's frame until
    /// this node receives it along the boundary.
    pub arrival_offset: u64,
}

impl BoundaryEntry {
    /// True if, for a message currently able to move to `next` and destined for
    /// `dest`, taking that hop would enter the dangerous area guarded by this entry
    /// (see [`critical_hop`]).
    pub fn is_critical_hop(&self, next: &Coord, dest: &Coord) -> bool {
        critical_hop(&self.block, self.guard, next, dest)
    }

    /// The entry as the borrowed form routing reads.
    #[inline]
    pub fn view(&self) -> BoundaryRef<'_> {
        BoundaryRef {
            block_id: self.block_id,
            block: &self.block,
            guard: self.guard,
            arrival_offset: self.arrival_offset,
        }
    }
}

/// A [`BoundaryEntry`] as routing reads it: the block extent is borrowed from
/// wherever the entry is stored, so a view over a timed store hands entries out
/// without cloning a [`Region`] per read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundaryRef<'a> {
    /// The id of the guarded block (see [`BoundaryEntry::block_id`]).
    pub block_id: BlockId,
    /// The extent of the guarded block.
    pub block: &'a Region,
    /// The direction of the adjacent surface the boundary is for.
    pub guard: Direction,
    /// Rounds after the block information is available at the block's frame until
    /// this node receives it.
    pub arrival_offset: u64,
}

impl BoundaryRef<'_> {
    /// The criticality test of Section 2.2 (see [`critical_hop`]).
    #[inline]
    pub fn is_critical_hop(&self, next: &Coord, dest: &Coord) -> bool {
        critical_hop(self.block, self.guard, next, dest)
    }
}

/// The criticality test of Section 2.2: true if, for a message currently able to
/// move to `next` and destined for `dest`, taking that hop enters the dangerous area
/// of `block` guarded in direction `guard` — the destination lies in the shadow
/// beyond the block in the `guard` direction and the next node lies in the shadow
/// on the opposite side.
#[inline]
pub fn critical_hop(block: &Region, guard: Direction, next: &Coord, dest: &Coord) -> bool {
    dest_beyond(block, guard, dest.as_slice()) && next_in_shadow(block, guard, |d| next[d])
}

/// Marks in `marked` every distance-reducing hop from `current` towards `dest`
/// that [`critical_hop`] flags for `block` guarded in `guard`: the test for all
/// preferred directions of one routing decision at once, its destination half
/// evaluated once and no next-node [`Coord`] built.
#[inline]
pub(crate) fn mark_critical_steps(
    block: &Region,
    guard: Direction,
    current: &[i32],
    dest: &[i32],
    marked: &mut DirectionSet,
) {
    if !dest_beyond(block, guard, dest) {
        return;
    }
    for (dim, (&from, &to)) in current.iter().zip(dest).enumerate() {
        if from != to {
            let step = Direction::new(dim, from < to);
            let next = |d: usize| current[d] + if d == dim { step.delta() } else { 0 };
            if next_in_shadow(block, guard, next) {
                marked.insert(step);
            }
        }
    }
}

/// The destination half of the Section-2.2 test: `dest` lies beyond the block in
/// the `guard` direction, within its cross-section.
#[inline]
fn dest_beyond(block: &Region, guard: Direction, dest: &[i32]) -> bool {
    let (lo, hi, dim) = (block.lo(), block.hi(), guard.dim);
    let beyond = if guard.positive {
        dest[dim] > hi[dim]
    } else {
        dest[dim] < lo[dim]
    };
    beyond && in_cross_section(lo, hi, dim, |d| dest[d])
}

/// The next-node half of the Section-2.2 test: the node at positions `next` lies
/// in the shadow on the side of the block opposite `guard`.
#[inline]
fn next_in_shadow(block: &Region, guard: Direction, next: impl Fn(usize) -> i32) -> bool {
    let (lo, hi, dim) = (block.lo(), block.hi(), guard.dim);
    let in_shadow = if guard.positive {
        next(dim) < lo[dim]
    } else {
        next(dim) > hi[dim]
    };
    in_shadow && in_cross_section(lo, hi, dim, next)
}

/// True if the positions `at` lie within `lo..=hi` in every dimension but `dim`.
#[inline]
fn in_cross_section(lo: &[i32], hi: &[i32], dim: usize, at: impl Fn(usize) -> i32) -> bool {
    (0..lo.len())
        .filter(|&d| d != dim)
        .all(|d| (lo[d]..=hi[d]).contains(&at(d)))
}

/// The boundary information of every node of a mesh for a given block set.
#[derive(Debug, Clone, Default)]
pub struct BoundaryMap {
    entries: Vec<Vec<BoundaryEntry>>,
}

impl BoundaryMap {
    /// An empty map (no blocks, no information anywhere).
    pub fn empty(mesh: &Mesh) -> Self {
        BoundaryMap {
            entries: vec![Vec::new(); mesh.node_count()],
        }
    }

    /// Constructs the boundaries of every block in `blocks`.
    pub fn construct(mesh: &Mesh, blocks: &BlockSet) -> Self {
        let ids: Vec<BlockId> = (0..blocks.len()).collect();
        let mut map = BoundaryMap::empty(mesh);
        for (node, entry) in Self::construct_for(mesh, blocks, &ids) {
            map.entries[node].push(entry);
        }
        map
    }

    /// Constructs the boundaries of just the blocks `ids` of `blocks` (ascending),
    /// as `(node, entry)` pairs sorted by node.  At one node the entries keep the
    /// order [`BoundaryMap::construct`] stores them in: by block id, then by guard
    /// direction.  The cost follows the constructed boundaries and the frames of
    /// the blocks, not the size of the mesh, so a rebuild pays only for the blocks
    /// that are new or changed.
    pub fn construct_for(
        mesh: &Mesh,
        blocks: &BlockSet,
        ids: &[BlockId],
    ) -> Vec<(NodeId, BoundaryEntry)> {
        let adjacency = frame_stamps(mesh, blocks);
        let mut out = Vec::new();
        for &block_id in ids {
            for guard in Direction::all(mesh.ndim()) {
                Self::propagate_boundary(mesh, blocks, &adjacency, block_id, guard, &mut out);
            }
        }
        // Stable: at one node the emission order (block, then guard) survives.
        out.sort_by_key(|&(node, _)| node);
        out
    }

    /// Propagates the boundary of `block_id` for surface direction `guard`.
    fn propagate_boundary(
        mesh: &Mesh,
        blocks: &BlockSet,
        adjacency: &[(NodeId, BlockId)],
        block_id: BlockId,
        guard: Direction,
        out: &mut Vec<(NodeId, BoundaryEntry)>,
    ) {
        let region = blocks.blocks()[block_id].region.clone();
        let away = guard.opposite();
        // If there is no shadow on the far side (the block touches the mesh surface
        // there) the dangerous area is empty and no boundary is needed.
        if region.shadow_prism(mesh, away).is_none() {
            return;
        }

        // Seeds: the edge nodes (2-level frame nodes, not corners) of the opposite
        // adjacent surface S_{(g+n) mod 2n}, i.e. frame nodes whose coordinate in the
        // guard dimension is one unit outside the block on the `away` side.
        let away_coord = if away.positive {
            region.hi()[guard.dim] + 1
        } else {
            region.lo()[guard.dim] - 1
        };
        let mut seeds: Vec<NodeId> = Vec::new();
        for c in region.expand(1).iter_coords() {
            if !mesh.contains(&c) {
                continue;
            }
            if c[guard.dim] != away_coord {
                continue;
            }
            if region.frame_level(&c) == FrameLevel::Frame(2) {
                seeds.push(mesh.id_of(&c));
            }
        }

        // Breadth-first propagation, one hop per round.
        let mut arrival: BTreeMap<NodeId, u64> = BTreeMap::new();
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        for s in seeds {
            arrival.insert(s, 0);
            queue.push_back(s);
        }
        while let Some(u) = queue.pop_front() {
            let t = arrival[&u];
            let uc = mesh.coord_of(u);
            let mut targets: Vec<NodeId> = Vec::new();

            let adjacent_other = adjacent_block(adjacency, u).filter(|&b| b != block_id);
            match adjacent_other {
                None => {
                    // Plain wall node: continue straight away from the block.
                    if let Some(nc) = mesh.neighbor(&uc, away) {
                        targets.push(mesh.id_of(&nc));
                    }
                }
                Some(other) => {
                    // Merge into the other block's frame: spread over its adjacent
                    // nodes...
                    for dir in Direction::iter_all(mesh.ndim()) {
                        let Some(nid) = mesh.neighbor_id(u, dir) else {
                            continue;
                        };
                        if adjacent_block(adjacency, nid) == Some(other)
                            && blocks.block_of(nid).is_none()
                        {
                            targets.push(nid);
                        }
                    }
                    // ...and continue away from the block from the other block's own
                    // starting edge for the same guard direction.
                    let other_region = &blocks.blocks()[other].region;
                    let other_away_coord = if away.positive {
                        other_region.hi()[guard.dim] + 1
                    } else {
                        other_region.lo()[guard.dim] - 1
                    };
                    if uc[guard.dim] == other_away_coord
                        && other_region.frame_level(&uc) == FrameLevel::Frame(2)
                    {
                        if let Some(nc) = mesh.neighbor(&uc, away) {
                            targets.push(mesh.id_of(&nc));
                        }
                    }
                }
            }

            for v in targets {
                if blocks.block_of(v).is_some() || arrival.contains_key(&v) {
                    continue;
                }
                arrival.insert(v, t + 1);
                queue.push_back(v);
            }
        }

        for (node, offset) in arrival {
            out.push((
                node,
                BoundaryEntry {
                    block_id,
                    block: region.clone(),
                    guard,
                    arrival_offset: offset,
                },
            ));
        }
    }

    /// The boundary entries stored at a node.
    pub fn entries(&self, id: NodeId) -> &[BoundaryEntry] {
        &self.entries[id]
    }

    /// Number of nodes storing at least one boundary entry.
    pub fn nodes_with_info(&self) -> usize {
        self.entries.iter().filter(|e| !e.is_empty()).count()
    }

    /// Total number of stored entries across all nodes.
    pub fn total_entries(&self) -> usize {
        self.entries.iter().map(|e| e.len()).sum()
    }

    /// The number of rounds for the boundary construction to complete (the paper's
    /// `c_i`): the maximum arrival offset over all entries, 0 if there are none.
    pub fn construction_rounds(&self) -> u64 {
        self.entries
            .iter()
            .flat_map(|e| e.iter().map(|x| x.arrival_offset))
            .max()
            .unwrap_or(0)
    }

    /// All node ids that guard the given block for the given surface direction.
    pub fn boundary_nodes(&self, block_id: BlockId, guard: Direction) -> Vec<NodeId> {
        (0..self.entries.len())
            .filter(|&id| {
                self.entries[id]
                    .iter()
                    .any(|e| e.block_id == block_id && e.guard == guard)
            })
            .collect()
    }
}

/// The merge rule's adjacency: every block's expanded frame stamped with the
/// block's id, keeping the lowest id where frames overlap, sorted by node.
fn frame_stamps(mesh: &Mesh, blocks: &BlockSet) -> Vec<(NodeId, BlockId)> {
    let mut stamps = Vec::new();
    for block in blocks.blocks() {
        for c in block.region.expand(1).iter_coords() {
            if mesh.contains(&c) && matches!(block.region.frame_level(&c), FrameLevel::Frame(_)) {
                stamps.push((mesh.id_of(&c), block.id));
            }
        }
    }
    stamps.sort_unstable();
    stamps.dedup_by_key(|&mut (node, _)| node);
    stamps
}

/// The block on whose expanded frame `node` lies (the lowest id if several), looked
/// up in the sorted [`frame_stamps`].
fn adjacent_block(adjacency: &[(NodeId, BlockId)], node: NodeId) -> Option<BlockId> {
    adjacency
        .binary_search_by_key(&node, |&(n, _)| n)
        .ok()
        .map(|i| adjacency[i].1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockSet;
    use crate::labeling::LabelingEngine;
    use lgfi_topology::coord;

    fn build(mesh: &Mesh, faults: &[Coord]) -> (BlockSet, BoundaryMap) {
        let mut eng = LabelingEngine::new(mesh.clone());
        eng.apply_faults(faults);
        let blocks = BlockSet::extract(mesh, eng.statuses());
        let map = BoundaryMap::construct(mesh, &blocks);
        (blocks, map)
    }

    fn figure1_mesh() -> (Mesh, BlockSet, BoundaryMap) {
        let mesh = Mesh::cubic(10, 3);
        let (blocks, map) = build(
            &mesh,
            &[
                coord![3, 5, 4],
                coord![4, 5, 4],
                coord![5, 5, 3],
                coord![3, 6, 3],
            ],
        );
        (mesh, blocks, map)
    }

    #[test]
    fn boundary_for_s4_extends_from_the_edges_of_s1_in_negative_y() {
        // Figure 3 (a): block [3:5, 5:6, 3:4]; the boundary for S4 (+Y) starts at the
        // edges of S1 (the y = 4 adjacent surface) and propagates towards y = 0.
        let (mesh, blocks, map) = figure1_mesh();
        assert_eq!(blocks.len(), 1);
        let guard = Direction::pos(1);
        let nodes = map.boundary_nodes(0, guard);
        assert!(!nodes.is_empty());
        for id in &nodes {
            let c = mesh.coord_of(*id);
            // All boundary nodes lie at or below the S1 plane (y <= 4) ...
            assert!(c[1] <= 4, "{c:?} should be below the block");
            // ... and on the lateral ring of the shadow prism: exactly one of x or z is
            // one unit outside the block's extent, the other within.
            let x_out = c[0] == 2 || c[0] == 6;
            let z_out = c[2] == 2 || c[2] == 5;
            let x_in = (3..=5).contains(&c[0]);
            let z_in = (3..=4).contains(&c[2]);
            assert!(
                (x_out && z_in) || (z_out && x_in),
                "{c:?} is not on the lateral walls of the dangerous area"
            );
        }
        // The walls reach the outermost surface of the mesh (y = 0).
        assert!(nodes.iter().any(|&id| mesh.coord_of(id)[1] == 0));
        // Seed nodes (on the S1 plane itself) have offset 0 and the farthest wall node
        // has offset 4 (from y = 4 down to y = 0).
        let offsets: Vec<u64> = nodes
            .iter()
            .flat_map(|&id| {
                map.entries(id)
                    .iter()
                    .filter(|e| e.guard == guard)
                    .map(|e| e.arrival_offset)
            })
            .collect();
        assert_eq!(offsets.iter().copied().min(), Some(0));
        assert_eq!(offsets.iter().copied().max(), Some(4));
    }

    #[test]
    fn every_surface_direction_gets_a_boundary_for_an_interior_block() {
        let (mesh, _blocks, map) = figure1_mesh();
        for guard in Direction::all(3) {
            let nodes = map.boundary_nodes(0, guard);
            assert!(!nodes.is_empty(), "no boundary for {guard}");
            // No boundary node is inside the block.
            let region = Region::new(vec![3, 5, 3], vec![5, 6, 4]);
            assert!(nodes.iter().all(|&id| !region.contains(&mesh.coord_of(id))));
        }
        assert!(map.construction_rounds() > 0);
        assert!(map.nodes_with_info() > 0);
        assert!(map.total_entries() >= map.nodes_with_info());
    }

    #[test]
    fn block_flush_with_mesh_surface_has_no_boundary_on_that_side() {
        // A block whose extent touches y = 0 has no dangerous area below it, hence no
        // boundary for S_{+Y}.
        let mesh = Mesh::cubic(10, 2);
        let mut eng = LabelingEngine::new(mesh.clone());
        // Faults at y = 1 with the block extending to y = 0 after labeling?  Simpler:
        // inject faults forming a block at rows 0..1 directly (the validate() rule
        // about the outermost surface is a modelling assumption, not enforced here).
        eng.inject_fault_coord(&coord![4, 0]);
        eng.inject_fault_coord(&coord![4, 1]);
        eng.inject_fault_coord(&coord![5, 0]);
        eng.inject_fault_coord(&coord![5, 1]);
        eng.run_to_fixpoint(100).unwrap();
        let blocks = BlockSet::extract(&mesh, eng.statuses());
        let map = BoundaryMap::construct(&mesh, &blocks);
        assert!(map.boundary_nodes(0, Direction::pos(1)).is_empty());
        assert!(!map.boundary_nodes(0, Direction::neg(1)).is_empty());
    }

    #[test]
    fn two_d_boundary_is_two_columns() {
        // In 2-D the boundary for S_{+Y} of a block is the two columns just left and
        // right of the block, from the block's lower edge down to y = 0.
        let mesh = Mesh::cubic(12, 2);
        let (blocks, map) = build(
            &mesh,
            &[coord![5, 6], coord![6, 7], coord![5, 7], coord![6, 6]],
        );
        assert_eq!(blocks.len(), 1);
        let nodes = map.boundary_nodes(0, Direction::pos(1));
        let coords: Vec<Coord> = nodes.iter().map(|&id| mesh.coord_of(id)).collect();
        assert!(coords.iter().all(|c| c[0] == 4 || c[0] == 7));
        assert!(coords.iter().all(|c| c[1] <= 5));
        // Both columns reach the mesh edge.
        assert!(coords.iter().any(|c| c[0] == 4 && c[1] == 0));
        assert!(coords.iter().any(|c| c[0] == 7 && c[1] == 0));
        // 2 columns x 6 rows (y=0..5).
        assert_eq!(coords.len(), 12);
    }

    #[test]
    fn criticality_test_matches_the_dangerous_area_definition() {
        let entry = BoundaryEntry {
            block_id: 0,
            block: Region::new(vec![3, 5, 3], vec![5, 6, 4]),
            guard: Direction::pos(1),
            arrival_offset: 0,
        };
        // Destination right above the block, next hop into the shadow below: critical.
        assert!(entry.is_critical_hop(&coord![4, 4, 3], &coord![4, 8, 3]));
        // Destination above but outside the cross-section: a minimal path around the
        // block exists, not critical.
        assert!(!entry.is_critical_hop(&coord![4, 4, 3], &coord![7, 8, 3]));
        // Next hop not inside the shadow: not critical.
        assert!(!entry.is_critical_hop(&coord![6, 4, 3], &coord![4, 8, 3]));
        // Destination below the block: not critical for this guard.
        assert!(!entry.is_critical_hop(&coord![4, 4, 3], &coord![4, 0, 3]));
        // Destination above the block top (z outside cross-section): not critical.
        assert!(!entry.is_critical_hop(&coord![4, 4, 3], &coord![4, 8, 7]));
    }

    #[test]
    fn marked_critical_steps_are_the_preferred_hops_the_hop_form_flags() {
        let block = Region::new(vec![3, 5, 3], vec![5, 6, 4]);
        let around = Region::new(vec![1, 2, 1], vec![7, 9, 6]);
        let dests = [
            coord![4, 8, 3],
            coord![4, 0, 4],
            coord![7, 5, 3],
            coord![2, 6, 6],
            coord![5, 8, 4],
        ];
        let mut critical = 0;
        for guard in Direction::iter_all(3) {
            for current in around.iter_coords() {
                for dest in &dests {
                    let mut marked = DirectionSet::empty();
                    mark_critical_steps(
                        &block,
                        guard,
                        current.as_slice(),
                        dest.as_slice(),
                        &mut marked,
                    );
                    let expected: DirectionSet = Direction::iter_all(3)
                        .filter(|&step| {
                            let offset = dest[step.dim] - current[step.dim];
                            offset != 0
                                && (offset > 0) == step.positive
                                && critical_hop(&block, guard, &current.step(step), dest)
                        })
                        .collect();
                    assert_eq!(marked, expected, "{guard:?} {current:?} {dest:?}");
                    critical += marked.len();
                }
            }
        }
        assert!(critical > 0);
    }

    #[test]
    fn boundary_merges_into_a_second_block() {
        // Figure 3 (d): block A sits above block B; A's boundary for S_{+Y} propagates
        // downwards, hits B's frame and merges around it instead of stopping.
        let mesh = Mesh::cubic(14, 2);
        let (blocks, map) = build(
            &mesh,
            &[
                // block A: [5:6, 9:10]
                coord![5, 9],
                coord![6, 10],
                coord![5, 10],
                coord![6, 9],
                // block B: [4:5, 4:5] -- offset so that A's left wall (x = 4) runs into
                // B's frame.
                coord![4, 4],
                coord![5, 5],
                coord![4, 5],
                coord![5, 4],
            ],
        );
        assert_eq!(blocks.len(), 2);
        let a = blocks
            .blocks()
            .iter()
            .find(|b| b.region.lo()[1] == 9)
            .unwrap()
            .id;
        let b = blocks
            .blocks()
            .iter()
            .find(|b| b.region.lo()[1] == 4)
            .unwrap()
            .id;
        assert_ne!(a, b);
        let guard = Direction::pos(1);
        let nodes = map.boundary_nodes(a, guard);
        let coords: Vec<Coord> = nodes.iter().map(|&id| mesh.coord_of(id)).collect();
        // The wall at x = 4 stops where block B sits, but A's information continues
        // around B (it reaches nodes adjacent to B) ...
        assert!(
            coords.iter().any(|c| c[0] == 3 && c[1] <= 5),
            "A's info must spread around B's far side: {coords:?}"
        );
        // ... and continues below B along B's own boundary columns.
        assert!(
            coords.iter().any(|c| c[1] < 4),
            "A's info must continue below block B"
        );
        // It never enters either block.
        for c in &coords {
            assert!(!blocks.blocks()[a].region.contains(c));
            assert!(!blocks.blocks()[b].region.contains(c));
        }
    }

    #[test]
    fn arrival_offsets_grow_with_distance_from_the_block() {
        let (mesh, _blocks, map) = figure1_mesh();
        let guard = Direction::pos(1);
        // Wall node right at the S1 plane vs. three hops further down the same wall.
        let near = mesh.id_of(&coord![2, 4, 3]);
        let far = mesh.id_of(&coord![2, 1, 3]);
        let near_e = map
            .entries(near)
            .iter()
            .find(|e| e.guard == guard)
            .expect("near node must hold the info");
        let far_e = map
            .entries(far)
            .iter()
            .find(|e| e.guard == guard)
            .expect("far node must hold the info");
        assert_eq!(near_e.arrival_offset, 0);
        assert_eq!(far_e.arrival_offset, 3);
    }

    #[test]
    fn frame_stamps_give_every_node_the_lowest_adjacent_block() {
        // Blocks two apart share frame nodes; the merge rule must see the lowest
        // block id there, as a scan over the blocks in id order does.
        let mesh = Mesh::cubic(16, 2);
        let (blocks, _) = build(
            &mesh,
            &[
                coord![4, 4],
                coord![5, 5],
                coord![4, 5],
                coord![5, 4],
                coord![7, 4],
                coord![8, 5],
                coord![7, 5],
                coord![8, 4],
                coord![5, 7],
                coord![6, 8],
                coord![5, 8],
                coord![6, 7],
            ],
        );
        assert_eq!(blocks.len(), 3);
        let stamps = frame_stamps(&mesh, &blocks);
        let mut shared = 0;
        for id in 0..mesh.node_count() {
            let c = mesh.coord_of(id);
            let on_frame = |b: &&crate::block::FaultyBlock| {
                matches!(b.region.frame_level(&c), FrameLevel::Frame(_))
            };
            let expected = blocks.blocks().iter().find(on_frame).map(|b| b.id);
            assert_eq!(adjacent_block(&stamps, id), expected, "node {c:?}");
            shared += usize::from(blocks.blocks().iter().filter(on_frame).count() > 1);
        }
        assert!(shared > 0, "the layout must make frames overlap");
    }

    #[test]
    fn construct_for_a_subset_matches_the_full_construction() {
        let mesh = Mesh::cubic(14, 2);
        let (blocks, full) = build(
            &mesh,
            &[
                coord![5, 9],
                coord![6, 10],
                coord![5, 10],
                coord![6, 9],
                coord![4, 4],
                coord![5, 5],
                coord![4, 5],
                coord![5, 4],
            ],
        );
        for ids in [vec![0], vec![1], vec![0, 1]] {
            let built = BoundaryMap::construct_for(&mesh, &blocks, &ids);
            let expected: Vec<(NodeId, BoundaryEntry)> = (0..mesh.node_count())
                .flat_map(|n| {
                    full.entries(n)
                        .iter()
                        .filter(|e| ids.contains(&e.block_id))
                        .map(move |e| (n, e.clone()))
                })
                .collect();
            assert_eq!(built, expected, "ids {ids:?}");
        }
    }

    #[test]
    fn fault_free_mesh_has_empty_map() {
        let mesh = Mesh::cubic(8, 3);
        let blocks = BlockSet::extract(&mesh, &vec![crate::status::NodeStatus::Enabled; 512]);
        let map = BoundaryMap::construct(&mesh, &blocks);
        assert_eq!(map.nodes_with_info(), 0);
        assert_eq!(map.total_entries(), 0);
        assert_eq!(map.construction_rounds(), 0);
        assert!(map.entries(0).is_empty());
    }
}
