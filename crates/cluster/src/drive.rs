//! Shard drivers: the one warmup, closed-loop and open-loop body every
//! run goes through ([`crate::Cluster::run`]), fed by a [`RequestSource`]
//! — the in-process [`FactorySource`] or the `ne-serve` wire. Driven by
//! a `FactorySource`, a one-shard cluster reproduces the unsharded
//! `ne-load` harness's request streams, arrival times, and replies byte
//! for byte.
//!
//! Two things differ from the unsharded code, both required for
//! shard-count invariance and neither observable at one shard:
//!
//! * request factories are keyed by the tenant's **global** id
//!   ([`crate::Shard::globals`]), not its local slot, so a tenant's
//!   payload stream survives re-placement;
//! * the open-loop Poisson schedule is generated **globally**
//!   ([`poisson_schedule`], same RNG and salt as `ne-load`) and routed to
//!   shards afterwards, so offered arrival times do not depend on the
//!   shard count.

use crate::cluster::Shard;
use ne_host::server::HostServer;
use ne_host::{RequestFactory, ServiceKind, TenantSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mean inter-arrival gap of the open-loop Poisson process, in cycles
/// across all tenants — the same constant the unsharded `ne-load`
/// harness uses (roughly 70% utilization of three serving cores at the
/// mixed-service cost).
pub const MEAN_GAP_CYCLES: f64 = 120_000.0;

/// Salt XORed into the base seed for the open-loop arrival RNG; matches
/// `ne-load` so the global schedule is byte-identical to the unsharded
/// harness's.
pub const OPEN_LOOP_SALT: u64 = 0x5EED_AD11;

/// The standard tenant population the load harnesses use: `tenant{i}`
/// with priority `tenants - i` (earlier tenants more important) and
/// `services` service kinds cycling through [`ServiceKind::ALL`].
pub fn standard_specs(tenants: usize, services: usize) -> Vec<TenantSpec> {
    (0..tenants)
        .map(|i| {
            let kinds: Vec<ServiceKind> = (0..services)
                .map(|s| ServiceKind::ALL[s % ServiceKind::ALL.len()])
                .collect();
            TenantSpec::new(&format!("tenant{i}"), (tenants - i) as u8, kinds)
        })
        .collect()
}

/// The global open-loop Poisson arrival schedule: `requests` arrivals per
/// `(tenant, service)` pair, round-robin over `pairs`, with exponential
/// inter-arrival gaps of mean [`MEAN_GAP_CYCLES`] drawn from
/// `StdRng(seed ^ OPEN_LOOP_SALT)`. Entries are `(tenant, service, at)`
/// with whatever id space `pairs` carries (the cluster passes global
/// tenant ids and rewrites them to shard-local slots while routing).
pub fn poisson_schedule(
    pairs: &[(usize, usize)],
    requests: usize,
    seed: u64,
) -> Vec<(usize, usize, u64)> {
    let mut rng = StdRng::seed_from_u64(seed ^ OPEN_LOOP_SALT);
    let mut schedule = Vec::with_capacity(requests * pairs.len());
    let mut at = 0u64;
    for i in 0..requests * pairs.len() {
        let u: f64 = rng.gen_range(0.0..1.0);
        at += (-(1.0 - u).ln() * MEAN_GAP_CYCLES) as u64;
        let (t, s) = pairs[i % pairs.len()];
        schedule.push((t, s, at));
    }
    schedule
}

/// One factory per (local tenant, service) on the shard, keyed by the
/// tenant's **global** id so the payload stream is placement-invariant.
pub fn factories(shard: &Shard, seed: u64) -> Vec<Vec<RequestFactory>> {
    shard
        .server
        .tenants()
        .iter()
        .enumerate()
        .map(|(l, state)| {
            state
                .spec
                .services
                .iter()
                .map(|&k| RequestFactory::new(k, shard.globals[l], seed))
                .collect()
        })
        .collect()
}

/// What a [`RequestSource`] produced for one `pull`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pulled {
    /// The pair's next request payload.
    Request(Vec<u8>),
    /// The pair has no further requests (graceful end of stream).
    Done,
    /// The pair stopped producing before its stream ended (a wire
    /// client hit its read deadline, broke the connection, or violated
    /// the protocol). The driver sheds the whole tenant via
    /// [`HostServer::shed_tenant`].
    Stalled,
}

/// Where a drive loop gets its request payloads and posts its results —
/// the seam between the simulation-stepping loops below and a transport
/// (the `ne-serve` TCP front door) or the in-process [`FactorySource`].
///
/// The contract that keeps every source byte-identical to
/// [`FactorySource`]: `pull` may block on wall-clock I/O but must not
/// touch the simulation, and for a well-behaved source it returns
/// exactly the payload stream a [`RequestFactory`] keyed by the same
/// `(seed, global tenant)` would produce. `deliver` and `rejected` are
/// notifications only (the driver ignores their effects entirely).
pub trait RequestSource {
    /// Produces the next request payload for `(tenant, service)`.
    fn pull(&mut self, tenant: usize, service: usize) -> Pulled;
    /// Reports a completion for `(tenant, service)` (reply delivery).
    fn deliver(&mut self, tenant: usize, service: usize, completion: &ne_host::Completion);
    /// Reports that the pair's last pulled request was rejected by
    /// admission (backpressure or shed).
    fn rejected(&mut self, tenant: usize, service: usize);
    /// Opens a measured segment of `requests` per pair (called after
    /// warmup and again after every migration barrier). The default does
    /// nothing: a peer that ends its own stream with [`Pulled::Done`]
    /// decides the length.
    fn begin_segment(&mut self, _requests: usize) {}
    /// Hands local tenant `local`'s stream to `dest`, which gained the
    /// tenant as its newest slot at a migration barrier; `None` means a
    /// rolled-back adoption re-slotted it on this source's own shard.
    /// The default does nothing: only multi-shard runs migrate, and the
    /// wire serves one shard.
    fn move_tenant(&mut self, _local: usize, _dest: Option<&mut Self>)
    where
        Self: Sized,
    {
    }
}

/// A [`RequestSource`] backed by one [`RequestFactory`] per (local
/// tenant, service) — the reference implementation of the source
/// contract, and what [`crate::Cluster::run`] drives every shard with.
/// The `ne-serve` wire source must match it byte for byte.
pub struct FactorySource {
    /// One row of factories per local tenant slot.
    rows: Vec<Vec<RequestFactory>>,
    /// Measured requests still to serve per pair in this segment;
    /// unbounded before the first segment, so warmup (bounded by the
    /// driver) draws the leading provisioning requests of each stream.
    remaining: Vec<Vec<usize>>,
}

impl FactorySource {
    /// A source over `rows` (see [`factories`]).
    pub fn new(rows: Vec<Vec<RequestFactory>>) -> FactorySource {
        let remaining = rows.iter().map(|r| vec![usize::MAX; r.len()]).collect();
        FactorySource { rows, remaining }
    }
}

impl RequestSource for FactorySource {
    fn pull(&mut self, tenant: usize, service: usize) -> Pulled {
        let left = &mut self.remaining[tenant][service];
        if *left == 0 {
            return Pulled::Done;
        }
        *left -= 1;
        Pulled::Request(self.rows[tenant][service].next_request())
    }

    fn deliver(&mut self, _tenant: usize, _service: usize, _completion: &ne_host::Completion) {}

    fn rejected(&mut self, _tenant: usize, _service: usize) {}

    fn begin_segment(&mut self, requests: usize) {
        self.remaining = self.rows.iter().map(|r| vec![requests; r.len()]).collect();
    }

    fn move_tenant(&mut self, local: usize, dest: Option<&mut Self>) {
        // The vacated slot keeps an empty row so later local indices hold.
        let row = std::mem::take(&mut self.rows[local]);
        dest.unwrap_or(self).rows.push(row);
    }
}

/// Serves each live pair's provisioning requests (the leading
/// [`RequestFactory::setup_requests`] of its stream under `seed`, and at
/// least one request per service to warm the paths), serving as it goes
/// so setup never trips the queue bound, then drains and resets the
/// measurement window. A pair that stalls or ends early gets its whole
/// tenant shed ([`HostServer::shed_tenant`]) and the tenant's remaining
/// warmup is skipped — the measured loops then treat it exactly like a
/// tenant shed at admission.
pub(crate) fn warmup(shard: &mut Shard, source: &mut dyn RequestSource, seed: u64) {
    let setup = factories(shard, seed);
    let server = &mut shard.server;
    'tenants: for (t, row) in setup.iter().enumerate() {
        if server.tenants()[t].shed {
            continue;
        }
        for (s, factory) in row.iter().enumerate() {
            for _ in 0..factory.setup_requests().max(1) {
                match source.pull(t, s) {
                    Pulled::Request(payload) => {
                        assert!(
                            server.submit(t, s, server.now(), payload).is_accepted(),
                            "warmup request rejected (queue bound too small for setup?)"
                        );
                        server.step().expect("warmup step");
                    }
                    Pulled::Done | Pulled::Stalled => {
                        server.shed_tenant(t);
                        continue 'tenants;
                    }
                }
            }
        }
    }
    server.drain().expect("warmup drain");
    server.reset_measurement();
}

/// Offered-load run over a pre-routed arrival schedule (`(local tenant,
/// service, at)`): arrivals are submitted on time regardless of
/// completions, and full queues reject (backpressure). Arrival stamps
/// come from the schedule, never from wall clock, so a blocking `pull`
/// cannot perturb the simulation. A stalled pair sheds its tenant and
/// its later arrivals are dropped. `observe` runs after every server
/// step (the obs sampler polls here) and only reads. Returns accepted.
pub(crate) fn open_loop(
    shard: &mut Shard,
    source: &mut dyn RequestSource,
    schedule: &[(usize, usize, u64)],
    observe: &mut dyn FnMut(&HostServer),
) -> u64 {
    let server = &mut shard.server;
    let mut live: Vec<Vec<bool>> = server
        .tenants()
        .iter()
        .map(|t| vec![true; t.spec.services.len()])
        .collect();
    let mut accepted = 0u64;
    let mut i = 0;
    while i < schedule.len() || server.pending() > 0 {
        // Submit everything that has arrived by the serving clock; when
        // the server is idle, jump to the next arrival.
        while i < schedule.len() && (schedule[i].2 <= server.now() || server.pending() == 0) {
            let (t, s, at) = schedule[i];
            i += 1;
            if !live[t][s] {
                continue;
            }
            match source.pull(t, s) {
                Pulled::Request(payload) => {
                    if server.submit(t, s, at, payload).is_accepted() {
                        accepted += 1;
                    } else {
                        source.rejected(t, s);
                    }
                }
                Pulled::Done => live[t][s] = false,
                Pulled::Stalled => {
                    server.shed_tenant(t);
                    live[t].iter_mut().for_each(|l| *l = false);
                }
            }
        }
        if server.pending() > 0 {
            let stepped = server.step().expect("open-loop step");
            observe(server);
            if let Some(c) = stepped {
                source.deliver(c.tenant, c.service, &c);
            }
        }
    }
    accepted
}

/// Think-time-free closed loop: one in-flight request per live pair,
/// resubmitted at the completion time of the previous one until the
/// source reports [`Pulled::Done`]. The pull on the *specific completed
/// pair's* stream re-imposes the deterministic order no matter how a
/// transport interleaves arrivals. A rejected resubmit closes the pair
/// (the client sees a reject notification); a stalled pair sheds its
/// tenant. `observe` as in [`open_loop`]. Returns accepted.
pub(crate) fn closed_loop(
    shard: &mut Shard,
    source: &mut dyn RequestSource,
    observe: &mut dyn FnMut(&HostServer),
) -> u64 {
    let server = &mut shard.server;
    let mut open: Vec<Vec<bool>> = server
        .tenants()
        .iter()
        .map(|t| vec![!t.shed; t.spec.services.len()])
        .collect();
    let mut accepted = 0u64;
    // Prime one in-flight request per live pair, in (tenant, service)
    // order.
    for (t, row) in open.iter_mut().enumerate() {
        let mut stalled = false;
        for (s, live) in row.iter_mut().enumerate() {
            if !*live {
                continue;
            }
            match source.pull(t, s) {
                Pulled::Request(payload) => {
                    if server.submit(t, s, 0, payload).is_accepted() {
                        accepted += 1;
                    } else {
                        source.rejected(t, s);
                        *live = false;
                    }
                }
                Pulled::Done => *live = false,
                Pulled::Stalled => {
                    server.shed_tenant(t);
                    stalled = true;
                    break;
                }
            }
        }
        if stalled {
            row.iter_mut().for_each(|o| *o = false);
        }
    }
    // A `None` step under chaos means a request was shed, not that the
    // queues are dry — keep stepping until pending work is gone.
    while server.pending() > 0 {
        let stepped = server.step().expect("closed-loop step");
        observe(server);
        let Some(c) = stepped else {
            continue;
        };
        source.deliver(c.tenant, c.service, &c);
        if !open[c.tenant][c.service] {
            continue;
        }
        match source.pull(c.tenant, c.service) {
            Pulled::Request(payload) => {
                if server
                    .submit(c.tenant, c.service, c.end, payload)
                    .is_accepted()
                {
                    accepted += 1;
                } else {
                    source.rejected(c.tenant, c.service);
                    open[c.tenant][c.service] = false;
                }
            }
            Pulled::Done => open[c.tenant][c.service] = false,
            Pulled::Stalled => {
                server.shed_tenant(c.tenant);
                open[c.tenant].iter_mut().for_each(|o| *o = false);
            }
        }
    }
    accepted
}
