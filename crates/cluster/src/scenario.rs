//! The one entry point: a [`Scenario`] says what traffic to offer, which
//! chaos plan and migration policy apply, and whether the observability
//! plane rides along; [`Cluster::run`] drives it on every shard.
//!
//! Every run takes the same path: per shard, warmup → chaos install →
//! sampler attach; then each closed segment (or the one open-loop
//! schedule) runs on every shard in parallel, with a drained migration
//! barrier between closed segments; finally the per-shard timelines are
//! namespaced and folded. The sampler only reads, so attaching it leaves
//! accepted counts, metrics and every other export byte-identical.

use crate::cluster::Cluster;
use crate::drive::{self, FactorySource, RequestSource};
use crate::migrate::{MigrationPolicy, MigrationRecord};
use ne_host::server::HostServer;
use ne_obs::{Sampler, SamplerConfig, Timeline};

/// The arrival process of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Traffic {
    /// One client per (tenant, service) pair keeping one request in
    /// flight, next request at the previous completion time. Each entry
    /// is one segment's requests per pair; consecutive segments are
    /// separated by a drained migration barrier. A plain closed run is
    /// one segment.
    ///
    /// Running `[a, b]` with no migrations produces exactly the same
    /// per-tenant reply bytes as `[a + b]` — reply streams depend only
    /// on the payload streams and sealed state, never on barrier timing
    /// — which is what makes the migration differential oracle
    /// byte-exact.
    Closed {
        /// Requests per pair in each segment.
        segments: Vec<usize>,
    },
    /// `requests` arrivals per pair from one **global** Poisson schedule
    /// (seeded by the cluster seed, so offered arrival times do not
    /// depend on the shard count), routed to each tenant's shard and
    /// offered regardless of completions.
    Open {
        /// Arrivals per pair.
        requests: usize,
    },
}

/// Everything a run needs beyond the cluster itself.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Arrival process.
    pub traffic: Traffic,
    /// Fault-plan spec installed on every shard after warmup (see
    /// [`ne_sgx::fault::FaultPlan::parse`]); each shard's plan is seeded
    /// from the cluster seed and its shard id.
    pub chaos: Option<String>,
    /// Moves to make at the barriers between closed segments.
    pub migration: MigrationPolicy,
    /// Attach one `ne-obs` sampler per shard and fold their timelines.
    pub obs: Option<SamplerConfig>,
}

impl Scenario {
    /// A plain closed run of `requests` per pair: one segment, no chaos,
    /// no migration, no sampler.
    pub fn closed(requests: usize) -> Scenario {
        Scenario::with_traffic(Traffic::Closed {
            segments: vec![requests],
        })
    }

    /// A plain open run of `requests` arrivals per pair.
    pub fn open(requests: usize) -> Scenario {
        Scenario::with_traffic(Traffic::Open { requests })
    }

    fn with_traffic(traffic: Traffic) -> Scenario {
        Scenario {
            traffic,
            chaos: None,
            migration: MigrationPolicy::default(),
            obs: None,
        }
    }
}

/// What a run produced beyond the cluster's own end state.
#[derive(Debug)]
pub struct RunOutput {
    /// Accepted measured requests across shards.
    pub accepted: u64,
    /// The folded `ne-obs` timeline, when [`Scenario::obs`] was set.
    pub timeline: Option<Timeline>,
    /// Every barrier migration, in execution order.
    pub migrations: Vec<MigrationRecord>,
}

impl Cluster {
    /// Runs `scenario` on every shard, each fed by a [`FactorySource`]
    /// over its tenants' seeded request streams.
    ///
    /// # Errors
    ///
    /// A malformed chaos spec, a migration whose rollback failed, or an
    /// impossible timeline fold.
    pub fn run(&mut self, scenario: &Scenario) -> Result<RunOutput, String> {
        let sources = self
            .shards
            .iter()
            .map(|shard| FactorySource::new(drive::factories(shard, self.seed)))
            .collect();
        let (out, _) = self.run_with_sources(scenario, sources)?;
        Ok(out)
    }

    /// [`Cluster::run`] with caller-supplied request sources, one per
    /// shard in shard order (the `ne-serve` wire front door passes its
    /// socket-backed source). Returns the sources after the run.
    ///
    /// # Errors
    ///
    /// As [`Cluster::run`].
    ///
    /// # Panics
    ///
    /// Panics if `sources` is not one per shard.
    pub fn run_with_sources<S: RequestSource + Send>(
        &mut self,
        scenario: &Scenario,
        sources: Vec<S>,
    ) -> Result<(RunOutput, Vec<S>), String> {
        let plans = self.chaos_plans(scenario.chaos.as_deref())?;
        let (segments, schedules) = match &scenario.traffic {
            Traffic::Closed { segments } => (segments.clone(), None),
            Traffic::Open { requests } => (vec![*requests], Some(self.open_schedules(*requests))),
        };
        let seed = self.seed;
        let obs = scenario.obs;
        let payloads = sources.into_iter().zip(plans).collect();
        let mut state = self.run_parallel(payloads, |shard, (mut source, plan)| {
            drive::warmup(shard, &mut source, seed);
            if let Some(plan) = plan {
                shard.server.install_chaos(plan);
            }
            let sampler = obs.map(|cfg| Sampler::new(&shard.server, shard.globals.clone(), cfg));
            (source, sampler)
        });
        let mut accepted = 0u64;
        let mut migrations = Vec::new();
        for (i, &requests) in segments.iter().enumerate() {
            let results = self.run_parallel(state, |shard, (mut source, mut sampler)| {
                source.begin_segment(requests);
                let mut observe = |server: &HostServer| {
                    if let Some(sampler) = sampler.as_mut() {
                        sampler.poll(server);
                    }
                };
                let n = match &schedules {
                    Some(schedules) => {
                        drive::open_loop(shard, &mut source, &schedules[shard.id], &mut observe)
                    }
                    None => drive::closed_loop(shard, &mut source, &mut observe),
                };
                (n, (source, sampler))
            });
            let (counts, next): (Vec<u64>, Vec<_>) = results.into_iter().unzip();
            accepted += counts.iter().sum::<u64>();
            state = next;
            if i + 1 == segments.len() {
                break;
            }
            for (global, to, trigger) in self.barrier_moves(i, &scenario.migration) {
                let from = self.assignment[global].0;
                let outcome = self
                    .migrate_for_driver(global, to, &mut state)
                    .map_err(|e| format!("migrating tenant {global} to shard {to}: {e}"))?;
                migrations.push(MigrationRecord {
                    segment: i,
                    global,
                    from,
                    trigger,
                    outcome,
                });
            }
        }
        let (sources, samplers): (Vec<S>, Vec<Option<Sampler>>) = state.into_iter().unzip();
        let timelines: Option<Vec<Timeline>> = samplers
            .into_iter()
            .zip(&self.shards)
            .map(|(sampler, shard)| {
                let mut timeline = sampler?.finish(&shard.server);
                timeline.rebase_shard(shard.id);
                Some(timeline)
            })
            .collect();
        let timeline = timelines.map(|t| Timeline::fold(&t)).transpose()?;
        let out = RunOutput {
            accepted,
            timeline,
            migrations,
        };
        Ok((out, sources))
    }

    /// The global open-loop schedule ([`drive::poisson_schedule`] over
    /// every (global tenant, service) pair in global order) routed to
    /// each tenant's shard, in schedule order, with tenant ids rewritten
    /// to shard-local slots.
    fn open_schedules(&self, requests: usize) -> Vec<Vec<(usize, usize, u64)>> {
        let pairs: Vec<(usize, usize)> = (0..self.num_tenants())
            .flat_map(|g| {
                let (s, l) = self.assignment[g];
                let services = self.shards[s].server.tenants()[l].spec.services.len();
                (0..services).map(move |svc| (g, svc))
            })
            .collect();
        let mut routed: Vec<Vec<(usize, usize, u64)>> = vec![Vec::new(); self.shards.len()];
        for (g, svc, at) in drive::poisson_schedule(&pairs, requests, self.seed) {
            let (s, l) = self.assignment[g];
            routed[s].push((l, svc, at));
        }
        routed
    }
}
