//! The information plane's cost follows the changed block, not the mesh.
//!
//! One 2×2 fault cluster sits at the centre of a 32×32 and of a 256×256 mesh.
//! Each network runs the cluster's whole life — the boundary waves open, the
//! faults recover, the deletion waves close every window and the timed store
//! retires the entries — with a route service attached, so every visibility
//! change is refreshed and published.  The check is on the deterministic
//! [`InfoCounters`], not on clocks: the block's walls run from the block to the
//! mesh surface, so every counter may grow with the side of the mesh, never with
//! its node count.
//!
//! The side ratio is 8; the bound is 9 because the walls start one block-width
//! away from the centre and the walls of neighbouring surfaces share their first
//! node, so the exact ratios of the counters are 8.5× to 8.7×.  The node ratio
//! is 64×.

use lgfi::prelude::*;

/// Side ratio of the two meshes, rounded up for the fixed block (see above).
const BOUND: u64 = 256 / 32 + 1;

/// Runs one centred 2×2 cluster through convergence and recovery on a
/// `side`×`side` mesh and returns the network's counters.
fn cluster_life(side: i32) -> InfoCounters {
    let mesh = Mesh::cubic(side, 2);
    let c = side / 2 - 1;
    let cluster = [
        coord![c, c],
        coord![c + 1, c + 1],
        coord![c, c + 1],
        coord![c + 1, c],
    ];
    // Recovery comes after every wall has reached the surface (offsets stay
    // below the side), and the run ends after every deletion wave has passed.
    let recover_at = 2 * side as u64;
    let mut events = Vec::new();
    for node in &cluster {
        events.push(FaultEvent::fail(0, mesh.id_of(node)));
        events.push(FaultEvent::recover(recover_at, mesh.id_of(node)));
    }
    let mut net = LgfiNetwork::new(mesh, FaultPlan::new(events), NetworkConfig::default());
    let service = net.route_service();
    for _ in 0..2 * recover_at {
        net.run_step();
    }
    assert!(
        net.blocks().is_empty(),
        "side {side}: the cluster recovered"
    );
    assert_eq!(net.nodes_with_visible_info(), 0, "side {side}: all deleted");
    assert_eq!(service.epoch(), net.info_changes());
    let counters = net.info_counters();
    assert_eq!(
        counters.entries_retired, counters.entries_scheduled,
        "side {side}: every scheduled entry retires once its deletion wave passed"
    );
    counters
}

#[test]
fn information_plane_counters_grow_with_the_side_not_the_node_count() {
    let small = cluster_life(32);
    let large = cluster_life(256);
    let fields = |c: &InfoCounters| {
        [
            ("boundaries_constructed", c.boundaries_constructed),
            ("entries_scheduled", c.entries_scheduled),
            ("entries_retired", c.entries_retired),
            ("arena_builds", c.arena_builds),
            ("transitions_published", c.transitions_published),
        ]
    };
    for ((name, s), (_, l)) in fields(&small).into_iter().zip(fields(&large)) {
        assert!(s > 0, "{name} never moved on 32x32: {small:?}");
        assert!(
            l <= BOUND * s,
            "{name} grew {:.2}x from 32x32 to 256x256 (bound {BOUND}x): {small:?} -> {large:?}",
            l as f64 / s as f64
        );
    }
    // One block each: exactly one boundary construction, whatever the mesh.
    assert_eq!(small.boundaries_constructed, 1);
    assert_eq!(large.boundaries_constructed, 1);
}
