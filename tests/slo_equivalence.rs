//! Determinism matrix for the fault-campaign and SLO plane.
//!
//! Robustness campaigns are only comparable across PRs (and across the CI
//! determinism matrix) if they are exactly reproducible: the same seed must
//! produce a bit-identical fault schedule from every generator, and the same
//! campaign must produce a bit-identical SLO report under every execution knob
//! (`LGFI_THREADS`, `LGFI_FRONTIER`, `LGFI_PROBE_THREADS`,
//! `LGFI_TRAFFIC_THREADS`).
//!
//! The long-horizon churn test honours `LGFI_SLO_CHURN_CYCLES`, which the CI
//! churn leg raises to 100k+ cycles on a small mesh.

use lgfi::analysis::{SloReport, SloRow};
use lgfi::prelude::*;
use lgfi::workloads::{
    CampaignFaults, ChurnConfig, ChurnProcess, ClusterShape, DynamicFaultConfig, FaultFrontConfig,
    FaultGenerator, FaultPlacement, RegionalOutageConfig, SloCampaign,
};
use lgfi_core::traffic_engine::TrafficSpec;

#[test]
fn every_fault_generator_is_bit_identical_in_its_seed() {
    let mesh = Mesh::cubic(12, 2);
    let shaped = |seed: u64| {
        FaultGenerator::new(mesh.clone(), seed).dynamic_plan(
            DynamicFaultConfig {
                fault_count: 9,
                first_step: 5,
                interval: 25,
                with_recovery: true,
                recovery_delay: 80,
            },
            FaultPlacement::Shaped(ClusterShape::Plus),
        )
    };
    assert_eq!(shaped(3), shaped(3));
    assert_ne!(shaped(3), shaped(4));

    let front = |seed: u64| {
        FaultGenerator::new(mesh.clone(), seed).front_plan(FaultFrontConfig {
            first_step: 10,
            interval: 20,
            thickness: 2,
        })
    };
    assert_eq!(
        front(1),
        front(2),
        "the front is seed-independent by design"
    );

    let outage = |seed: u64| {
        FaultGenerator::new(mesh.clone(), seed).regional_outage_plan(RegionalOutageConfig {
            outages: 2,
            max_extent: 3,
            first_step: 10,
            spacing: 100,
            duration: 40,
        })
    };
    assert_eq!(outage(7), outage(7));

    let churn =
        |seed: u64| ChurnProcess::new(mesh.clone(), seed, ChurnConfig::default()).plan(3_000);
    assert_eq!(churn(11), churn(11));
    assert_ne!(churn(11), churn(12));
}

fn campaign(faults: CampaignFaults, horizon: u64) -> SloCampaign {
    SloCampaign {
        dims: vec![12, 12],
        seed: 9,
        lambda: 1,
        threads: 1,
        frontier: true,
        probe_threads: 1,
        traffic: TrafficSpec::at_rate(0.8)
            .cycles(horizon)
            .drain_cycles(2_000)
            .max_packet_cycles(2_000),
        pattern: TrafficPattern::UniformRandom,
        faults,
    }
}

fn shaped_plan_faults() -> CampaignFaults {
    let plan = FaultGenerator::new(Mesh::cubic(12, 2), 31).dynamic_plan(
        DynamicFaultConfig {
            fault_count: 8,
            first_step: 15,
            interval: 30,
            with_recovery: true,
            recovery_delay: 90,
        },
        FaultPlacement::Shaped(ClusterShape::Ring),
    );
    CampaignFaults::Plan(plan)
}

fn churn_faults() -> CampaignFaults {
    CampaignFaults::Churn(ChurnConfig {
        fail_rate: 0.03,
        mean_downtime: 60.0,
        max_faulty: 6,
    })
}

#[test]
fn campaign_slo_reports_are_bit_identical_across_every_knob() {
    for faults in [shaped_plan_faults(), churn_faults()] {
        let reference = campaign(faults.clone(), 400).run(&|| Box::new(LgfiRouter::new()));
        assert!(
            reference.tracker.injected() > 100,
            "campaign must carry traffic"
        );
        for (threads, frontier, probe_threads, traffic_threads) in [
            (2usize, true, 1usize, 2usize),
            (4, false, 2, 3),
            (0, true, 0, 0),
        ] {
            let mut c = campaign(faults.clone(), 400);
            c.threads = threads;
            c.frontier = frontier;
            c.probe_threads = probe_threads;
            c.traffic = c.traffic.traffic_threads(traffic_threads);
            let knobbed = c.run(&|| Box::new(LgfiRouter::new()));
            assert_eq!(
                reference.tracker, knobbed.tracker,
                "threads {threads} frontier {frontier} probe {probe_threads} \
                 traffic {traffic_threads}: SLOs diverged"
            );
            assert_eq!(reference.e_max_seen, knobbed.e_max_seen);
            assert_eq!(reference.a_steps_max, knobbed.a_steps_max);
            assert_eq!(
                reference.info, knobbed.info,
                "information-plane counters diverged"
            );
            // The condensed report row — what BENCH_engine.json records — must
            // therefore also be bit-identical.
            let mut a = SloReport::new();
            a.push(SloRow::from_tracker(
                "lgfi",
                "x",
                0.1,
                400,
                &reference.tracker,
            ));
            let mut b = SloReport::new();
            b.push(SloRow::from_tracker(
                "lgfi",
                "x",
                0.1,
                400,
                &knobbed.tracker,
            ));
            assert_eq!(a, b);
        }
    }
}

/// The CI determinism matrix sets the `LGFI_*` knobs and raises
/// `LGFI_SLO_CHURN_CYCLES` to run a 100k+ cycle churn campaign on a small mesh;
/// whatever the configuration, the SLO report must reproduce the serial
/// reference exactly.
#[test]
fn long_horizon_churn_is_bit_identical_across_env_knobs() {
    let knob = |name: &str, default: usize| -> usize {
        match std::env::var(name) {
            Ok(s) if !s.trim().is_empty() => s
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("{name} must be an integer, got {s:?}")),
            _ => default,
        }
    };
    let horizon = knob("LGFI_SLO_CHURN_CYCLES", 3_000) as u64;
    let base = SloCampaign {
        dims: vec![10, 10],
        seed: 4,
        lambda: 1,
        threads: 1,
        frontier: true,
        probe_threads: 1,
        traffic: TrafficSpec::at_rate(0.4)
            .cycles(horizon)
            .drain_cycles(2_000)
            .max_packet_cycles(2_000),
        pattern: TrafficPattern::UniformRandom,
        faults: CampaignFaults::Churn(ChurnConfig {
            fail_rate: 0.02,
            mean_downtime: 80.0,
            max_faulty: 5,
        }),
    };
    let reference = base.run(&|| Box::new(LgfiRouter::new()));
    assert!(reference.tracker.bursts() > 0, "churn must actually fire");
    assert!(
        reference.info.boundaries_constructed > 0 && reference.info.entries_retired > 0,
        "churn must construct boundaries and retire expired ones: {:?}",
        reference.info
    );
    assert!(
        reference.tracker.delivery_rate() > 0.5,
        "rate {}",
        reference.tracker.delivery_rate()
    );
    let mut configured = base;
    configured.threads = knob("LGFI_THREADS", 1);
    configured.probe_threads = knob("LGFI_PROBE_THREADS", 1);
    configured.traffic = configured
        .traffic
        .traffic_threads(knob("LGFI_TRAFFIC_THREADS", 1));
    configured.frontier = !matches!(
        std::env::var("LGFI_FRONTIER").as_deref().map(str::trim),
        Ok("0") | Ok("false") | Ok("off")
    );
    let knobbed = configured.run(&|| Box::new(LgfiRouter::new()));
    assert_eq!(
        reference.tracker, knobbed.tracker,
        "churn campaign over {horizon} cycles diverged from the serial reference"
    );
    assert_eq!(reference.drained, knobbed.drained);
    assert_eq!(reference.info, knobbed.info);
}
