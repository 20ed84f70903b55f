//! Integration tests for the dynamic Figure-7 step loop: information convergence,
//! inconsistent-information periods, recoveries, multiple concurrent probes and λ.

use lgfi::prelude::*;
use lgfi::workloads::DynamicFaultConfig;

#[test]
fn information_distribution_is_gradual_and_complete() {
    let mesh = Mesh::cubic(14, 2);
    let faults = [coord![6, 7], coord![7, 8], coord![6, 8], coord![7, 7]];
    let plan = FaultPlan::static_faults(&faults.iter().map(|c| mesh.id_of(c)).collect::<Vec<_>>());
    let mut net = LgfiNetwork::new(mesh.clone(), plan, NetworkConfig::default());
    let mut coverage = Vec::new();
    for _ in 0..60 {
        net.run_step();
        coverage.push(net.nodes_with_visible_info());
    }
    // Coverage grows monotonically (no oscillation for a single static block) and
    // saturates.
    assert!(coverage.windows(2).all(|w| w[1] >= w[0]), "{coverage:?}");
    let final_coverage = *coverage.last().unwrap();
    assert!(final_coverage > 0);
    assert_eq!(
        coverage.iter().copied().max().unwrap(),
        final_coverage,
        "coverage must saturate"
    );
    // And it matches the statically computed information placement.
    let blocks = BlockSet::extract(&mesh, net.statuses());
    let boundary = BoundaryMap::construct(&mesh, &blocks);
    assert_eq!(final_coverage, boundary.nodes_with_info());
    // The counters account for exactly that one block's boundary: every entry
    // was scheduled once, none retired, and nothing read the arena, so it was
    // never built.
    let counters = net.info_counters();
    assert_eq!(counters.boundaries_constructed, 1);
    assert_eq!(counters.entries_scheduled, boundary.total_entries() as u64);
    assert_eq!(counters.entries_retired, 0);
    assert_eq!(
        counters.arena_builds, 0,
        "no probe or service consumed the arena"
    );
}

#[test]
fn converging_period_can_mislead_but_routing_still_succeeds() {
    // Launch the probe immediately, before any block information exists; faults appear
    // right in front of it.  During the converging period the probe routes on
    // inconsistent information but must still arrive.
    let mesh = Mesh::cubic(16, 2);
    let mut events = Vec::new();
    for c in [coord![7, 7], coord![8, 8], coord![7, 8], coord![8, 7]] {
        events.push(FaultEvent::fail(4, mesh.id_of(&c)));
    }
    let plan = FaultPlan::new(events);
    let mut net = LgfiNetwork::new(mesh.clone(), plan, NetworkConfig::default());
    net.launch_probe(
        mesh.id_of(&coord![7, 0]),
        mesh.id_of(&coord![8, 15]),
        Box::new(LgfiRouter::new()),
    );
    net.run_to_completion(5_000);
    let report = &net.reports()[0];
    assert!(report.outcome.delivered());
    assert!(report.outcome.steps >= u64::from(report.outcome.initial_distance));
    assert_eq!(report.distance_at_fault.len(), 1);
}

#[test]
fn multiple_probes_share_the_network() {
    let mesh = Mesh::cubic(14, 2);
    let mut generator = FaultGenerator::new(mesh.clone(), 3);
    let plan = generator.dynamic_plan(
        DynamicFaultConfig {
            fault_count: 4,
            first_step: 5,
            interval: 30,
            with_recovery: false,
            recovery_delay: 0,
        },
        FaultPlacement::UniformInterior,
    );
    let mut net = LgfiNetwork::new(mesh.clone(), plan, NetworkConfig::default());
    let corners = [
        (coord![0, 0], coord![13, 13]),
        (coord![13, 0], coord![0, 13]),
        (coord![0, 13], coord![13, 0]),
        (coord![13, 13], coord![0, 0]),
        (coord![0, 6], coord![13, 7]),
    ];
    for (s, d) in &corners {
        net.launch_probe(mesh.id_of(s), mesh.id_of(d), Box::new(LgfiRouter::new()));
    }
    assert_eq!(net.probes_in_flight(), corners.len());
    net.run_to_completion(10_000);
    assert_eq!(net.reports().len(), corners.len());
    assert_eq!(net.probes_in_flight(), 0);
    for report in net.reports() {
        assert!(report.outcome.delivered(), "{report:?}");
    }
}

#[test]
fn recovery_mid_route_and_stale_information_deletion() {
    let mesh = Mesh::cubic(14, 2);
    let block_nodes = [coord![6, 6], coord![7, 7], coord![6, 7], coord![7, 6]];
    let mut plan = FaultPlan::static_faults(
        &block_nodes
            .iter()
            .map(|c| mesh.id_of(c))
            .collect::<Vec<_>>(),
    );
    for c in &block_nodes {
        plan.push(FaultEvent::recover(60, mesh.id_of(c)));
    }
    let mut net = LgfiNetwork::new(mesh.clone(), plan, NetworkConfig::default());
    // Let the block information spread first.
    for _ in 0..30 {
        net.run_step();
    }
    assert!(net.nodes_with_visible_info() > 0);
    net.launch_probe(
        mesh.id_of(&coord![6, 1]),
        mesh.id_of(&coord![7, 12]),
        Box::new(LgfiRouter::new()),
    );
    net.run_to_completion(5_000);
    assert!(net.reports()[0].outcome.delivered());
    // After the recovery stabilises, every piece of stale boundary information is
    // eventually deleted — the deletion wave itself travels one hop per round, so give
    // it a few more steps to drain.
    assert_eq!(net.blocks().len(), 0);
    for _ in 0..40 {
        net.run_step();
    }
    assert_eq!(net.nodes_with_visible_info(), 0);
    // Both the fault burst and the recovery produced convergence records.
    assert!(net.convergence_records().len() >= 2);
    // The deletion wave has passed: the timed store retired every entry it had
    // scheduled, and each scheduled entry opened and closed its window at most
    // once.  Windows open without builds: the arena is built only when the wave
    // set changes — at a rebuild, or when the one wave retires.
    let counters = net.info_counters();
    assert_eq!(counters.boundaries_constructed, 1);
    assert_eq!(counters.entries_retired, counters.entries_scheduled);
    assert!(counters.arena_builds > 0);
    assert!(counters.transitions_published <= 2 * counters.entries_scheduled);
    assert!(
        counters.transitions_published > counters.arena_builds,
        "{counters:?}"
    );
    let rebuilds = net.convergence_records().len() as u64;
    assert!(counters.arena_builds <= rebuilds + 1, "{counters:?}");
}

/// A snapshot reads the timed arena at its own round.  At every step of a
/// Poisson-churn run the latest published view must show each node exactly the
/// entries the timed store holds visible there now, in the same order: a step
/// that publishes nothing must leave the view unchanged.  Runs in release
/// builds too, where the debug-build arena oracle is compiled out.
#[test]
fn published_view_matches_the_timed_store_under_churn() {
    use lgfi::core::boundary::BoundaryRef;
    use lgfi::core::routing::BoundarySource;
    use lgfi::workloads::{ChurnConfig, ChurnProcess};
    let mesh = Mesh::cubic(16, 2);
    let mut net = LgfiNetwork::new(mesh.clone(), FaultPlan::empty(), NetworkConfig::default());
    let service = net.route_service();
    let mut churn = ChurnProcess::new(
        mesh.clone(),
        17,
        ChurnConfig {
            fail_rate: 0.2,
            mean_downtime: 40.0,
            max_faulty: 12,
        },
    );
    let mut events = Vec::new();
    let mut seen = 0usize;
    for _ in 0..300 {
        churn.events_at(net.step(), &mut events);
        net.run_step_with(&events);
        let snapshot = service.latest();
        let view = snapshot.boundary();
        for node in 0..mesh.node_count() {
            let held: Vec<BoundaryRef<'_>> = view.entries_for(node).iter().collect();
            let stored = net.visible_info(node);
            let expected: Vec<BoundaryRef<'_>> = stored.iter().map(BoundaryEntry::view).collect();
            assert_eq!(held, expected, "node {node} at step {}", net.step());
            seen += held.len();
        }
    }
    let counters = net.info_counters();
    assert!(seen > 0, "the churn must distribute information");
    assert!(counters.boundaries_constructed > 1 && counters.entries_retired > 0);
    assert!(
        counters.transitions_published > counters.arena_builds,
        "{counters:?}"
    );
}

#[test]
fn larger_lambda_never_slows_down_information_convergence() {
    let mesh = Mesh::cubic(16, 2);
    let faults: Vec<usize> = [coord![7, 8], coord![8, 9], coord![7, 9], coord![8, 8]]
        .iter()
        .map(|c| mesh.id_of(c))
        .collect();
    let observer = mesh.id_of(&coord![6, 0]);
    let steps_until_visible = |lambda: u64| -> u64 {
        let mut net = LgfiNetwork::new(
            mesh.clone(),
            FaultPlan::static_faults(&faults),
            NetworkConfig {
                lambda,
                max_probe_steps: 1_000,
                ..NetworkConfig::default()
            },
        );
        for step in 0..500 {
            net.run_step();
            if !net.visible_info(observer).is_empty() {
                return step;
            }
        }
        panic!("information never arrived for lambda {lambda}");
    };
    let mut previous = u64::MAX;
    for lambda in [1, 2, 4, 8] {
        let steps = steps_until_visible(lambda);
        assert!(steps <= previous, "lambda {lambda}: {steps} > {previous}");
        previous = steps;
    }
}

#[test]
fn scenario_harness_end_to_end_with_every_router_name() {
    use lgfi::core::routing::Router;
    type RouterFactory = Box<dyn Fn() -> Box<dyn Router>>;
    let factories: Vec<(&str, RouterFactory)> = vec![
        (
            "lgfi",
            Box::new(|| Box::new(LgfiRouter::new()) as Box<dyn Router>),
        ),
        (
            "global-info",
            Box::new(|| Box::new(GlobalInfoRouter::new()) as Box<dyn Router>),
        ),
        (
            "local-only",
            Box::new(|| Box::new(LocalInfoRouter::new()) as Box<dyn Router>),
        ),
    ];
    for (name, factory) in &factories {
        let mut scenario = Scenario::small();
        scenario.dims = vec![12, 12];
        scenario.messages = 8;
        scenario.fault_count = 5;
        let result = scenario.run(factory.as_ref());
        assert!(result.launched > 0, "{name}");
        assert!(
            result.delivery_ratio() > 0.9,
            "{name}: delivery {}",
            result.delivery_ratio()
        );
        for report in &result.reports {
            assert_eq!(report.router, *name);
        }
    }
}
