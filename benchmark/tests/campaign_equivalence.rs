//! The benchmark's hand-driven loop must be the campaign loop: for the same
//! campaign, [`Episode::run`] yields the SLO tracker [`SloCampaign::run`]
//! returns, traced or not.

use lgfi_benchmark::{make_router, Episode, Workload};
use lgfi_workloads::{CampaignFaults, FaultGenerator, FaultPlacement, SloCampaign};

fn assert_same_tracker(name: &str, campaign: SloCampaign) {
    let expected = campaign.run(&make_router).tracker;
    assert!(
        expected.injected() > 0,
        "{name}: the campaign moved no packets"
    );
    let workload = Workload {
        campaign,
        queries_per_step: 0,
    };
    for traced in [false, true] {
        let outcome = Episode::setup(&workload).run(traced);
        assert!(
            outcome.mismatches.is_empty(),
            "{name}: {:?}",
            outcome.mismatches
        );
        assert_eq!(outcome.tracker, expected, "{name} (traced: {traced})");
    }
}

#[test]
fn churn_loop_matches_the_campaign() {
    let mut campaign = SloCampaign::small_churn();
    campaign.traffic = campaign.traffic.cycles(300);
    assert_same_tracker("small_churn", campaign);
}

#[test]
fn plan_wormhole_loop_matches_the_campaign() {
    let mut campaign = SloCampaign::small_churn();
    let plan = FaultGenerator::new(campaign.mesh(), 3)
        .static_plan(10, FaultPlacement::Clustered { clusters: 2 });
    campaign.faults = CampaignFaults::Plan(plan);
    campaign.traffic = campaign
        .traffic
        .cycles(300)
        .flits_per_packet(4)
        .traffic_threads(2);
    assert_same_tracker("small_plan_wormhole", campaign);
}

#[test]
fn benchmark_workloads_match_the_campaign_on_a_short_horizon() {
    for name in ["churn_packets_128", "static_wormhole_128"] {
        let mut workload = Workload::named(name, 5).expect("a benchmark workload");
        workload.campaign.traffic = workload.campaign.traffic.cycles(40).drain_cycles(400);
        assert_same_tracker(name, workload.campaign);
    }
}

#[test]
fn query_workload_checks_its_reader_against_the_live_network() {
    let mut workload = Workload::named("churn_queries_128", 5).expect("a benchmark workload");
    workload.campaign.traffic = workload.campaign.traffic.cycles(120);
    let outcome = Episode::setup(&workload).run(false);
    assert!(outcome.mismatches.is_empty(), "{:?}", outcome.mismatches);
    let sim = |key: &str| {
        outcome
            .sim
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .expect("a simulated value")
    };
    assert_eq!(sim("queries"), 120 * 32);
    assert!(sim("epochs_published") > 1);
    assert_eq!(
        outcome.request_ns.len() as u64,
        sim("queries") - sim("queries_refused")
    );
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(Workload::named("churn_packets_64", 1).is_none());
}
