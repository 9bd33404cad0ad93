//! The drive-loop oracle: [`Cluster::run`] — the one warmup, closed-loop
//! and open-loop body, fed by [`ne_cluster::FactorySource`] — must be
//! **byte-identical** to the historic factory-driven loops kept below as
//! the reference, in every export: accepted counts, the `ne-tenants/v1`
//! export, and the merged `ne-metrics/v2` JSON, clean and under chaos.
//!
//! This is the in-process half of the `ne-serve` wire-oracle invariant:
//! the wire source only has to match `FactorySource`, and this test pins
//! `FactorySource` and the shared loops to the historic ones.

use ne_cluster::{
    drive, shard_seed, Cluster, ClusterConfig, MigrationPolicy, Scenario, Shard, Traffic,
    CHAOS_SALT,
};
use ne_host::RequestFactory;
use ne_sgx::fault::FaultPlan;

const SEED: u64 = 0x5E12_4E57;

fn build(tenants: usize, services: usize) -> Cluster {
    let mut cfg = ClusterConfig::new(drive::standard_specs(tenants, services), 1);
    cfg.host.seed = SEED;
    Cluster::build(cfg).expect("cluster build")
}

fn exports(cluster: &Cluster) -> (String, String) {
    let metrics = cluster.merged_metrics().expect("metrics merge");
    metrics.check().expect("metrics identities");
    (cluster.tenants_export(), metrics.to_json())
}

/// Reference warmup: every live pair's provisioning requests (at least
/// one per service), each served as it is submitted, then drain and
/// reset the measurement window.
fn reference_warmup(shard: &mut Shard, factories: &mut [Vec<RequestFactory>]) {
    let server = &mut shard.server;
    for (t, tenant_factories) in factories.iter_mut().enumerate() {
        if server.tenants()[t].shed {
            continue;
        }
        for (s, factory) in tenant_factories.iter_mut().enumerate() {
            for _ in 0..factory.setup_requests().max(1) {
                let payload = factory.next_request();
                assert!(
                    server.submit(t, s, server.now(), payload).is_accepted(),
                    "warmup request rejected"
                );
                server.step().expect("warmup step");
            }
        }
    }
    server.drain().expect("warmup drain");
    server.reset_measurement();
}

/// Reference open loop over a routed arrival schedule: arrivals are
/// submitted on time regardless of completions; full queues reject.
fn reference_open_loop(
    shard: &mut Shard,
    factories: &mut [Vec<RequestFactory>],
    schedule: &[(usize, usize, u64)],
) -> u64 {
    let server = &mut shard.server;
    let mut accepted = 0u64;
    let mut i = 0;
    while i < schedule.len() || server.pending() > 0 {
        while i < schedule.len() && (schedule[i].2 <= server.now() || server.pending() == 0) {
            let (t, s, at) = schedule[i];
            i += 1;
            let payload = factories[t][s].next_request();
            if server.submit(t, s, at, payload).is_accepted() {
                accepted += 1;
            }
        }
        if server.pending() > 0 {
            server.step().expect("open-loop step");
        }
    }
    accepted
}

/// Reference closed loop: one client per (tenant, service) submitting
/// its next request at the completion time of its previous one,
/// `requests` times; a rejected submit stops that client.
fn reference_closed_loop(
    shard: &mut Shard,
    factories: &mut [Vec<RequestFactory>],
    requests: usize,
) -> u64 {
    let server = &mut shard.server;
    let mut remaining: Vec<Vec<usize>> = factories
        .iter()
        .enumerate()
        .map(|(t, fs)| {
            let n = if server.tenants()[t].shed {
                0
            } else {
                requests
            };
            vec![n; fs.len()]
        })
        .collect();
    let mut accepted = 0u64;
    for t in 0..factories.len() {
        for s in 0..factories[t].len() {
            if remaining[t][s] > 0 {
                remaining[t][s] -= 1;
                let payload = factories[t][s].next_request();
                if server.submit(t, s, 0, payload).is_accepted() {
                    accepted += 1;
                } else {
                    remaining[t][s] = 0;
                }
            }
        }
    }
    while server.pending() > 0 {
        let Some(c) = server.step().expect("closed-loop step") else {
            continue;
        };
        if remaining[c.tenant][c.service] > 0 {
            remaining[c.tenant][c.service] -= 1;
            let payload = factories[c.tenant][c.service].next_request();
            if server
                .submit(c.tenant, c.service, c.end, payload)
                .is_accepted()
            {
                accepted += 1;
            } else {
                remaining[c.tenant][c.service] = 0;
            }
        }
    }
    accepted
}

/// A one-shard cluster warmed by the reference warmup, with the chaos
/// plan `Cluster::run` would install on shard 0.
fn reference_cluster(
    tenants: usize,
    services: usize,
    chaos: Option<&str>,
) -> (Cluster, Vec<Vec<RequestFactory>>) {
    let mut cluster = build(tenants, services);
    let shard = &mut cluster.shards_mut()[0];
    let mut factories = drive::factories(shard, SEED);
    reference_warmup(shard, &mut factories);
    if let Some(spec) = chaos {
        let plan = FaultPlan::parse(spec, shard_seed(SEED ^ CHAOS_SALT, shard.id)).expect("chaos");
        shard.server.install_chaos(plan);
    }
    (cluster, factories)
}

/// `traffic` with an optional chaos spec; no migration, no sampler.
fn scenario(traffic: Traffic, chaos: Option<&str>) -> Scenario {
    Scenario {
        traffic,
        chaos: chaos.map(str::to_string),
        migration: MigrationPolicy::default(),
        obs: None,
    }
}

/// Reference closed loop (one call per segment) on one cluster,
/// `Cluster::run` on another; same bytes out.
fn assert_closed_equivalent(
    tenants: usize,
    services: usize,
    segments: &[usize],
    chaos: Option<&str>,
) {
    let (mut reference, mut factories) = reference_cluster(tenants, services, chaos);
    let shard = &mut reference.shards_mut()[0];
    let expected_accepted: u64 = segments
        .iter()
        .map(|&n| reference_closed_loop(shard, &mut factories, n))
        .sum();
    let expected = exports(&reference);

    let mut cluster = build(tenants, services);
    let traffic = Traffic::Closed {
        segments: segments.to_vec(),
    };
    let accepted = cluster
        .run(&scenario(traffic, chaos))
        .expect("closed run")
        .accepted;

    assert_eq!(accepted, expected_accepted, "accepted diverged");
    assert_eq!(exports(&cluster), expected, "exports diverged");
}

/// Reference open loop vs `Cluster::run` over the same global schedule.
fn assert_open_equivalent(tenants: usize, services: usize, requests: usize, chaos: Option<&str>) {
    let (mut reference, mut factories) = reference_cluster(tenants, services, chaos);
    // One shard: the global pair list is the local one, in order.
    let pairs: Vec<(usize, usize)> = (0..tenants)
        .flat_map(|t| (0..services).map(move |s| (t, s)))
        .collect();
    let schedule = drive::poisson_schedule(&pairs, requests, SEED);
    let expected_accepted =
        reference_open_loop(&mut reference.shards_mut()[0], &mut factories, &schedule);
    let expected = exports(&reference);

    let mut cluster = build(tenants, services);
    let accepted = cluster
        .run(&scenario(Traffic::Open { requests }, chaos))
        .expect("open run")
        .accepted;

    assert_eq!(accepted, expected_accepted, "accepted diverged");
    assert_eq!(exports(&cluster), expected, "exports diverged");
}

const CHAOS_SPECS: [&str; 3] = ["aex+evict", "crash:3", "aex:2+mac:5+stall:4"];

#[test]
fn closed_external_matches_plain() {
    assert_closed_equivalent(3, 2, &[5], None);
}

#[test]
fn open_external_matches_plain() {
    assert_open_equivalent(3, 2, 5, None);
}

#[test]
fn closed_external_matches_plain_under_chaos() {
    // crash sheds whole tenants mid-run; the shared loop must take the
    // exact same counter path (including rejected resubmits).
    for spec in CHAOS_SPECS {
        assert_closed_equivalent(3, 2, &[5], Some(spec));
    }
}

#[test]
fn open_external_matches_plain_under_chaos() {
    for spec in CHAOS_SPECS {
        assert_open_equivalent(3, 2, 5, Some(spec));
    }
}

#[test]
fn segmented_closed_run_matches_the_reference_segments() {
    // Each segment re-opens every live pair's budget; a pair closed by a
    // rejected resubmit stays closed only until the next segment, and a
    // shed tenant stays out — exactly as the reference loop run once per
    // segment.
    assert_closed_equivalent(3, 2, &[2, 3], None);
    for spec in CHAOS_SPECS {
        assert_closed_equivalent(3, 2, &[2, 3], Some(spec));
    }
}
