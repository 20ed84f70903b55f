//! Golden routing fingerprints: every route of a fixed set of workloads, hashed.
//!
//! The equivalence suites compare execution modes against each other within one
//! build; nothing else compares the routes themselves across changes.  These tests
//! pin them: each workload folds `(status, steps, backtracks, path_length)` of every
//! route into one FNV-1a hash and compares it with a constant recorded before the
//! hop loop was last reworked.  A change that only claims to make routing faster
//! must leave every constant untouched; a change that means to alter routes must
//! say so and re-record them.
//!
//! Workloads:
//! - static fault patterns on a 2-D 32² and a 3-D 8³ mesh, routed by
//!   [`sweep_static`] with the LGFI router and the local-information,
//!   global-information, Wu minimal-block and dimension-order baselines;
//! - 500 `RouteReader::resolve` calls on an epoch snapshot of a 64² mesh under
//!   Poisson churn;
//! - a dynamic probe scenario and a wormhole traffic scenario with escape VCs,
//!   which route through the network's probe step and the traffic engine's
//!   decision and escape-class paths.

use lgfi::core::network::{LgfiNetwork, NetworkConfig};
use lgfi::core::routing::{sweep_static, ProbeOutcome, Router};
use lgfi::core::traffic_engine::TrafficSpec;
use lgfi::prelude::*;
use lgfi::workloads::{ChurnConfig, ChurnProcess, DynamicFaultConfig};
use lgfi_sim::FaultPlan;

/// A 64-bit FNV-1a hash over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn outcome(&mut self, o: &ProbeOutcome) {
        self.word(o.status as u64);
        self.word(o.steps);
        self.word(o.backtracks);
        self.word(o.path_length);
    }
}

fn router_by_name(name: &str) -> Box<dyn Router> {
    match name {
        "lgfi" => Box::new(LgfiRouter::new()),
        "global-info" => Box::new(GlobalInfoRouter::new()),
        "local-only" => Box::new(LocalInfoRouter::new()),
        "wu-minimal-block" => Box::new(StaticBlockRouter::new()),
        "dimension-order" => Box::new(DimensionOrderRouter::new()),
        other => panic!("unknown router {other}"),
    }
}

const ROUTERS: [&str; 5] = [
    "lgfi",
    "local-only",
    "global-info",
    "wu-minimal-block",
    "dimension-order",
];

/// Hashes every route of `probes` random enabled pairs over `faults` faults
/// placed by `placement`, for every router, and returns the hash together with
/// the number of delivered LGFI routes (so a degenerate world is caught).
fn static_fingerprint(
    dims: &[i32],
    faults: usize,
    placement: FaultPlacement,
    seed: u64,
    probes: usize,
) -> (u64, usize) {
    let mesh = Mesh::new(dims);
    let placed = FaultGenerator::new(mesh.clone(), seed).place(faults, placement);
    let mut labeling = LabelingEngine::new(mesh.clone());
    labeling.apply_faults(&placed);
    let blocks = BlockSet::extract(&mesh, labeling.statuses());
    let boundary = BoundaryMap::construct(&mesh, &blocks);
    let statuses = labeling.statuses();
    let mut traffic = TrafficGenerator::new(mesh.clone(), TrafficPattern::UniformRandom, seed ^ 7);
    let pairs: Vec<(NodeId, NodeId)> = traffic
        .requests(probes, |id| statuses[id] == NodeStatus::Enabled)
        .into_iter()
        .map(|r| (r.source, r.dest))
        .collect();
    assert_eq!(pairs.len(), probes);
    let mut hash = Fnv::new();
    let mut delivered = 0;
    for name in ROUTERS {
        let outcomes = sweep_static(
            &mesh,
            statuses,
            blocks.blocks(),
            &boundary,
            &|| router_by_name(name),
            &pairs,
            100_000,
            1,
        );
        for o in &outcomes {
            hash.outcome(o);
        }
        if name == "lgfi" {
            delivered = outcomes.iter().filter(|o| o.delivered()).count();
        }
    }
    (hash.0, delivered)
}

#[test]
fn static_routes_on_a_32x32_mesh_match_the_golden_fingerprint() {
    let (uniform, delivered) =
        static_fingerprint(&[32, 32], 40, FaultPlacement::UniformInterior, 11, 300);
    assert!(delivered > 250, "{delivered} of 300 delivered");
    let (clustered, _) = static_fingerprint(
        &[32, 32],
        48,
        FaultPlacement::Clustered { clusters: 4 },
        12,
        300,
    );
    assert_eq!(
        (uniform, clustered),
        (0x15a2_017a_f535_8d23, 0x4d8a_8e51_9243_bc2d),
        "32x32 static routes changed"
    );
}

#[test]
fn static_routes_on_an_8x8x8_mesh_match_the_golden_fingerprint() {
    let (uniform, delivered) =
        static_fingerprint(&[8, 8, 8], 40, FaultPlacement::UniformInterior, 21, 300);
    assert!(delivered > 250, "{delivered} of 300 delivered");
    let (clustered, _) = static_fingerprint(
        &[8, 8, 8],
        30,
        FaultPlacement::Clustered { clusters: 3 },
        22,
        300,
    );
    assert_eq!(
        (uniform, clustered),
        (0x4417_fcbf_03e6_02af, 0x7f2b_ae2b_bd1e_09a9),
        "8x8x8 static routes changed"
    );
}

#[test]
fn snapshot_queries_on_a_churned_64x64_mesh_match_the_golden_fingerprint() {
    let mesh = Mesh::cubic(64, 2);
    let mut net = LgfiNetwork::new(mesh.clone(), FaultPlan::empty(), NetworkConfig::default());
    let service = net.route_service();
    let mut churn = ChurnProcess::new(
        mesh.clone(),
        5,
        ChurnConfig {
            fail_rate: 0.5,
            mean_downtime: 60.0,
            max_faulty: 48,
        },
    );
    let mut events = Vec::new();
    for _ in 0..120 {
        churn.events_at(net.step(), &mut events);
        net.run_step_with(&events);
    }
    let mut reader = service.reader();
    let statuses = reader.snapshot().statuses().to_vec();
    let mut traffic = TrafficGenerator::new(mesh, TrafficPattern::UniformRandom, 9);
    let requests = traffic.requests(500, |id| statuses[id] == NodeStatus::Enabled);
    assert_eq!(requests.len(), 500);
    let router = LgfiRouter::new();
    let mut hash = Fnv::new();
    hash.word(reader.epoch());
    hash.word(reader.snapshot().visible_entries() as u64);
    let mut detoured = 0;
    for r in &requests {
        let q = reader.resolve(&router, r.source, r.dest, 100_000);
        hash.outcome(&q.outcome);
        detoured += usize::from(q.outcome.detours() > Some(0));
    }
    assert!(detoured > 0, "the churn must force some detours");
    assert_eq!(
        hash.0, 0x7998_b081_bedc_0755,
        "snapshot routes on the churned 64x64 mesh changed"
    );
}

#[test]
fn dynamic_probes_and_escape_class_worms_match_the_golden_fingerprint() {
    let scenario = Scenario {
        dims: vec![12, 12],
        seed: 29,
        fault_count: 6,
        placement: FaultPlacement::Clustered { clusters: 2 },
        dynamic: Some(DynamicFaultConfig {
            fault_count: 6,
            first_step: 10,
            interval: 25,
            with_recovery: true,
            recovery_delay: 70,
        }),
        lambda: 1,
        traffic: TrafficPattern::UniformRandom,
        messages: 60,
        launch_step: 0,
        max_steps: 50_000,
        threads: 1,
        frontier: true,
        probe_threads: 1,
        traffic_threads: 1,
    };
    let mut probes = Fnv::new();
    let mut worms = Fnv::new();
    for name in ROUTERS {
        let result = scenario.run(&|| router_by_name(name));
        assert!(result.launched > 0);
        for report in &result.reports {
            probes.word(report.finished_at);
            probes.outcome(&report.outcome);
        }
        let spec = TrafficSpec::at_rate(1.2)
            .cycles(60)
            .drain_cycles(5_000)
            .flits_per_packet(4)
            .vc_count(2)
            .escape_vc(true);
        let traffic = Scenario {
            messages: 0,
            ..scenario.clone()
        }
        .run_traffic(spec, &|| router_by_name(name));
        assert!(traffic.stats.injected() >= 50);
        for record in &traffic.records {
            worms.word(record.status as u64);
            worms.word(record.finished_at);
            worms.word(record.hops);
            worms.word(record.stalls);
        }
    }
    assert_eq!(
        (probes.0, worms.0),
        (0xe82b_0306_c487_6b5c, 0xfd19_73c6_5e39_31ed),
        "dynamic probe or wormhole routes changed"
    );
}
